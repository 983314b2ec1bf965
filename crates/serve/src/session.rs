//! Warm sessions: constructed solvers kept alive across jobs.
//!
//! A session is one fully set-up [`PoissonSolver`] world — single-rank
//! ([`SelfComm`]) or a persistent ranks-as-threads world
//! ([`ThreadComm`]) — cached under a [`SessionKey`]. A warm hit skips
//! the paper's entire setup phase (grid, operator, workspace and RHS
//! assembly, normalisation, offload) and re-runs only `solve`, swapping
//! in a fresh RHS when the job brings one.
//!
//! Panic isolation: every rank closure runs under `catch_unwind`; on a
//! multi-rank panic the world is poisoned so blocked peers unwind
//! instead of deadlocking, and the caller quarantines the session.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use accel::{AnyDevice, Recorder};
use blockgrid::{BlockGrid, Decomp};
use comm::{Poisoner, ReduceOrder, SelfComm, ThreadComm};
use krylov::{CancelToken, SolveOutcome, SolveParams, SolverKind, SolverOptions};
use poisson::assemble::local_rhs;
use poisson::{PoissonProblem, PoissonSolver, SetupError};

use crate::job::JobError;
use crate::request::SolveRequest;

/// What a cached session is keyed by: the problem *discretisation* (not
/// its closures), the decomposition, the device spec *and lease slot*,
/// and the solver configuration. Two requests with equal keys can share
/// a constructed solver; the RHS itself is per-job state (see
/// [`Session::run`]).
///
/// The slot is part of the key because a session embeds its own device
/// handles (a clone of the leased device single-rank, per-rank devices
/// built from the spec multi-rank): keying the cache per slot means a
/// session only ever runs under the lease it was built on, so the
/// `DevicePool` bounds *device* concurrency, not just job concurrency —
/// two workers holding different slots can never drive the same
/// session's devices at once.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct SessionKey {
    n: [usize; 3],
    h: [u64; 3],
    origin: [u64; 3],
    bc: [[blockgrid::BcKind; 2]; 3],
    decomp: [usize; 3],
    device: String,
    slot: usize,
    kind: SolverKind,
    opts: ([u64; 4], [usize; 2], bool),
}

impl SessionKey {
    /// Key of a request placed on `device` held under lease `slot`.
    /// Calls `problem.discretize()`, which panics on singular input —
    /// callers run this under the job's panic isolation.
    pub(crate) fn of(req: &SolveRequest, device: &str, slot: usize) -> Self {
        let g = req.problem.discretize();
        // Exhaustive on purpose: a new `SolverOptions` field fails to
        // compile here until it is part of the key.
        let SolverOptions {
            inner_tol_g,
            inner_tol_bj,
            inner_max_iters,
            ci_iterations,
            eig_max_shrink,
            eig_min_factor,
            mixed_precision,
        } = req.opts;
        Self {
            n: g.n,
            h: g.h.map(f64::to_bits),
            origin: g.origin.map(f64::to_bits),
            bc: g.bc,
            decomp: req.decomp,
            device: device.to_string(),
            slot,
            kind: req.kind,
            opts: (
                [
                    inner_tol_g.to_bits(),
                    inner_tol_bj.to_bits(),
                    eig_max_shrink.to_bits(),
                    eig_min_factor.to_bits(),
                ],
                [inner_max_iters, ci_iterations],
                mixed_precision,
            ),
        }
    }

    /// The device spec this key pins.
    pub(crate) fn device(&self) -> &str {
        &self.device
    }
}

/// Identity of the closures a right-hand side was assembled from
/// (pointer identity — resubmitting the same `PoissonProblem` value
/// matches, a problem rebuilt from different closures does not).
///
/// Holds *clones* of the five `Arc`s, not bare addresses: the clones
/// keep the allocations alive for as long as the session remembers
/// them, so a later tenant's closures can never be allocated at the
/// recycled addresses and falsely match. Pointer comparison is only
/// sound while the pointee is pinned by a live reference.
#[derive(Clone)]
struct RhsSource([poisson::SpaceFn; 5]);

impl RhsSource {
    fn of(p: &PoissonProblem) -> Self {
        let [dx0, dx1, dx2] = p.neumann_dx.clone();
        Self([p.rhs.clone(), p.dirichlet.clone(), dx0, dx1, dx2])
    }

    /// Whether `p`'s closures are the very allocations this source
    /// holds (thin-pointer comparison, so vtable identity is moot).
    fn matches(&self, p: &PoissonProblem) -> bool {
        let same = |a: &poisson::SpaceFn, b: &poisson::SpaceFn| {
            std::ptr::eq(Arc::as_ptr(a) as *const (), Arc::as_ptr(b) as *const ())
        };
        let [rhs, dirichlet, dx0, dx1, dx2] = &self.0;
        same(rhs, &p.rhs)
            && same(dirichlet, &p.dirichlet)
            && [dx0, dx1, dx2]
                .into_iter()
                .zip(&p.neumann_dx)
                .all(|(a, b)| same(a, b))
    }
}

enum SessionWorld {
    Single(Box<PoissonSolver<f64, AnyDevice, SelfComm<f64>>>),
    Multi {
        ranks: Vec<PoissonSolver<f64, AnyDevice, ThreadComm<f64>>>,
        poisoner: Poisoner<f64>,
    },
}

/// A constructed solver world, reusable across jobs with equal
/// [`SessionKey`]s.
pub(crate) struct Session {
    world: SessionWorld,
    /// Provenance of the RHS currently offloaded in `b`: the closures
    /// it was assembled from, or `None` after an explicit override.
    b_source: Option<RhsSource>,
    /// Completed solves on this session (diagnostics).
    pub(crate) solves: u64,
}

/// Downcast a panic payload to its message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Among the per-rank panic payloads, prefer the root cause over the
/// poison cascade every *other* rank unwinds with.
pub(crate) fn primary_panic(msgs: Vec<String>) -> String {
    msgs.iter()
        .find(|m| !m.contains("poisoned"))
        .cloned()
        .unwrap_or_else(|| msgs.first().cloned().unwrap_or_default())
}

/// Scatter a global x-fastest RHS vector to one rank's interior.
pub(crate) fn scatter(grid: &BlockGrid, global: &[f64]) -> Result<Vec<f64>, SetupError> {
    let [nx, ny, nz] = grid.global.n;
    let expected = nx * ny * nz;
    if global.len() != expected {
        return Err(SetupError::RhsSizeMismatch {
            expected,
            got: global.len(),
        });
    }
    let [lx, ly, lz] = grid.local_n;
    let [ox, oy, oz] = grid.offset;
    let mut local = Vec::with_capacity(lx * ly * lz);
    for k in 0..lz {
        for j in 0..ly {
            let row = ox + nx * ((oy + j) + ny * (oz + k));
            // LINT: panic-ok(offset + local_n <= n per axis is a grid
            // invariant, so row + lx <= expected after the size check)
            local.extend_from_slice(&global[row..row + lx]);
        }
    }
    Ok(local)
}

/// How this job's RHS reaches the solver.
#[derive(Clone, Copy)]
enum RhsPlan<'a> {
    /// The offloaded `b` already matches the request; solve directly.
    Keep,
    /// Re-assemble from the request problem's closures, then swap.
    Assemble(&'a PoissonProblem),
    /// Scatter the request's global override, then swap.
    Scatter(&'a [f64]),
}

fn run_one<C: comm::Communicator<f64>>(
    solver: &mut PoissonSolver<f64, AnyDevice, C>,
    plan: RhsPlan<'_>,
    kind: SolverKind,
    opts: &SolverOptions,
    params: &SolveParams,
) -> Result<SolveOutcome, SetupError> {
    match plan {
        RhsPlan::Keep => Ok(solver.solve(kind, opts, params)),
        RhsPlan::Assemble(problem) => {
            let local = local_rhs(problem, solver.grid());
            solver.resolve_with_rhs(&local, kind, opts, params)
        }
        RhsPlan::Scatter(global) => {
            let local = scatter(solver.grid(), global)?;
            solver.resolve_with_rhs(&local, kind, opts, params)
        }
    }
}

/// Run every lane of a coalesced batch through one multi-RHS solve on
/// this rank's solver. Per-lane setup refusals (zero RHS, size
/// mismatch) come back in the lane's slot without poisoning the batch;
/// the verdicts are collective, so every rank returns the same vec.
///
/// Every lane brings its own RHS (a scattered override or a fresh
/// assembly from its problem closures) — the batched path never reuses
/// the session's offloaded `b`, so `b_source` provenance is untouched.
fn run_lanes<C: comm::Communicator<f64>>(
    solver: &mut PoissonSolver<f64, AnyDevice, C>,
    reqs: &[&SolveRequest],
    params: &SolveParams,
    cancels: &[Option<CancelToken>],
) -> Vec<Result<SolveOutcome, SetupError>> {
    // LINT: panic-ok(callers always pass at least one lane request)
    let head = reqs[0];
    let assembled: Vec<Result<Vec<f64>, SetupError>> = reqs
        .iter()
        .map(|req| match &req.rhs {
            Some(global) => scatter(solver.grid(), global),
            None => Ok(local_rhs(&req.problem, solver.grid())),
        })
        .collect();
    // Lanes whose scatter failed stay in the batch as empty slices so
    // lane indexing (and the collective normalisation) stays aligned on
    // every rank; their recorded error wins below. A global-size
    // mismatch is rank-uniform, so this stays collective.
    let rhs_locals: Vec<&[f64]> = assembled
        .iter()
        .map(|r| r.as_deref().unwrap_or(&[]))
        .collect();
    let lanes = solver.solve_batch(&rhs_locals, head.kind, &head.opts, params, cancels);
    lanes
        .into_iter()
        .zip(assembled)
        .map(|(lane, pre)| match pre {
            Err(e) => Err(e),
            Ok(_) => lane.map(|l| l.outcome),
        })
        .collect()
}

impl Session {
    /// Construct the session for `req` cold. The single-rank flavour
    /// runs on a clone of the leased device; multi-rank worlds build
    /// one device per rank from the key's spec. Any panic during
    /// construction is caught (and, multi-rank, the half-built world
    /// poisoned) and reported as [`JobError::Panicked`] — the caller
    /// counts the stillborn session as quarantined.
    pub(crate) fn build(
        key: &SessionKey,
        req: &SolveRequest,
        order: ReduceOrder,
        leased: &AnyDevice,
    ) -> Result<Self, JobError> {
        let decomp = Decomp::new(req.decomp);
        let ranks = decomp.ranks();
        let b_source = Some(RhsSource::of(&req.problem));
        if ranks == 1 {
            let problem = req.problem.clone();
            let dev = leased.clone();
            let built = catch_unwind(AssertUnwindSafe(|| {
                PoissonSolver::try_new(problem, decomp, dev, SelfComm::default())
            }));
            match built {
                Ok(Ok(solver)) => Ok(Self {
                    world: SessionWorld::Single(Box::new(solver)),
                    b_source,
                    solves: 0,
                }),
                Ok(Err(e)) => Err(JobError::Setup(e)),
                Err(p) => Err(JobError::Panicked(panic_message(p))),
            }
        } else {
            let comms = ThreadComm::<f64>::world(ranks, order, vec![Recorder::disabled(); ranks]);
            // LINT: panic-ok(world(ranks, ..) returns exactly ranks >= 2
            // communicators on this branch)
            let poisoner = comms[0].poisoner();
            let spec = key.device().to_string();
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = comms
                    .into_iter()
                    .map(|comm| {
                        let problem = req.problem.clone();
                        let poi = poisoner.clone();
                        let spec = spec.clone();
                        s.spawn(move || {
                            let r = catch_unwind(AssertUnwindSafe(|| {
                                let dev = AnyDevice::from_spec(&spec, Recorder::disabled())
                                    // LINT: panic-ok(try_start built a device from this exact spec)
                                    .expect("device spec validated at service start");
                                PoissonSolver::try_new(problem, decomp, dev, comm)
                            }));
                            if r.is_err() {
                                // unblock peers stuck in collectives so
                                // they unwind too
                                poi.poison();
                            }
                            r
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    // LINT: panic-ok(rank closures run under catch_unwind)
                    .map(|h| h.join().expect("rank threads catch their panics"))
                    .collect()
            });
            let mut solvers = Vec::with_capacity(ranks);
            let mut panics = Vec::new();
            let mut setup = None;
            for r in results {
                match r {
                    Ok(Ok(s)) => solvers.push(s),
                    Ok(Err(e)) => setup = Some(e),
                    Err(p) => panics.push(panic_message(p)),
                }
            }
            if !panics.is_empty() {
                Err(JobError::Panicked(primary_panic(panics)))
            } else if let Some(e) = setup {
                Err(JobError::Setup(e))
            } else {
                Ok(Self {
                    world: SessionWorld::Multi {
                        ranks: solvers,
                        poisoner,
                    },
                    b_source,
                    solves: 0,
                })
            }
        }
    }

    /// Execute one job on this session.
    ///
    /// `Err(JobError::Panicked)` means the session state can no longer
    /// be trusted — the caller must quarantine it. `Err(JobError::Setup)`
    /// is a clean collective refusal (every rank returned before
    /// touching solver state): the session stays reusable.
    pub(crate) fn run(
        &mut self,
        req: &SolveRequest,
        cancel: CancelToken,
    ) -> Result<SolveOutcome, JobError> {
        let plan = match &req.rhs {
            Some(global) => RhsPlan::Scatter(global),
            None if self
                .b_source
                .as_ref()
                .is_some_and(|s| s.matches(&req.problem)) =>
            {
                RhsPlan::Keep
            }
            None => RhsPlan::Assemble(&req.problem),
        };
        let params = SolveParams {
            tol: req.tol,
            max_iters: req.max_iters,
            record_history: false,
            cancel: Some(cancel),
            ..Default::default()
        };
        let outcome = match &mut self.world {
            SessionWorld::Single(solver) => {
                match catch_unwind(AssertUnwindSafe(|| {
                    run_one(solver, plan, req.kind, &req.opts, &params)
                })) {
                    Ok(Ok(out)) => Ok(out),
                    Ok(Err(e)) => Err(JobError::Setup(e)),
                    Err(p) => Err(JobError::Panicked(panic_message(p))),
                }
            }
            SessionWorld::Multi { ranks, poisoner } => {
                let results: Vec<_> = std::thread::scope(|s| {
                    let handles: Vec<_> = ranks
                        .iter_mut()
                        .map(|solver| {
                            let poi = poisoner.clone();
                            let params = params.clone();
                            s.spawn(move || {
                                let r = catch_unwind(AssertUnwindSafe(|| {
                                    run_one(solver, plan, req.kind, &req.opts, &params)
                                }));
                                if r.is_err() {
                                    poi.poison();
                                }
                                r
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        // LINT: panic-ok(rank closures run under catch_unwind)
                        .map(|h| h.join().expect("rank threads catch their panics"))
                        .collect()
                });
                let mut out = None;
                let mut panics = Vec::new();
                let mut setup = None;
                for r in results {
                    match r {
                        Ok(Ok(o)) => out = out.or(Some(o)),
                        Ok(Err(e)) => setup = Some(e),
                        Err(p) => panics.push(panic_message(p)),
                    }
                }
                if !panics.is_empty() {
                    Err(JobError::Panicked(primary_panic(panics)))
                } else if let Some(e) = setup {
                    Err(JobError::Setup(e))
                } else {
                    // LINT: panic-ok(no panics and no setup error means
                    // every rank returned Ok, and ranks >= 2 here)
                    Ok(out.expect("every rank returned an outcome"))
                }
            }
        }?;
        self.solves += 1;
        self.b_source = match &req.rhs {
            Some(_) => None,
            None => Some(RhsSource::of(&req.problem)),
        };
        Ok(outcome)
    }

    /// Execute a coalesced batch of jobs as one multi-RHS solve.
    ///
    /// Callers guarantee the requests share this session's key plus the
    /// solve envelope (`tol`, `max_iters`) — batch formation enforces
    /// it. Each lane carries its own cancel token; cancelling one lane
    /// freezes it and leaves every other lane bitwise-unchanged.
    ///
    /// `Ok` carries one slot per lane: the lane's outcome, or its own
    /// clean setup refusal (a bad lane never poisons its batchmates).
    /// `Err(JobError::Panicked)` condemns the whole batch and the
    /// caller must quarantine the session, exactly like [`Session::run`].
    pub(crate) fn run_batch(
        &mut self,
        reqs: &[&SolveRequest],
        cancels: &[Option<CancelToken>],
    ) -> Result<Vec<Result<SolveOutcome, SetupError>>, JobError> {
        // LINT: panic-ok(callers always pass at least one lane request)
        let head = reqs[0];
        let params = SolveParams {
            tol: head.tol,
            max_iters: head.max_iters,
            record_history: false,
            // Per-lane tokens travel through `cancels`; a params-level
            // token is a solo-path concept the batched driver rejects.
            cancel: None,
            ..Default::default()
        };
        let out = match &mut self.world {
            SessionWorld::Single(solver) => {
                match catch_unwind(AssertUnwindSafe(|| {
                    run_lanes(solver, reqs, &params, cancels)
                })) {
                    Ok(lanes) => Ok(lanes),
                    Err(p) => Err(JobError::Panicked(panic_message(p))),
                }
            }
            SessionWorld::Multi { ranks, poisoner } => {
                let results: Vec<_> = std::thread::scope(|s| {
                    let handles: Vec<_> = ranks
                        .iter_mut()
                        .map(|solver| {
                            let poi = poisoner.clone();
                            let params = params.clone();
                            s.spawn(move || {
                                let r = catch_unwind(AssertUnwindSafe(|| {
                                    run_lanes(solver, reqs, &params, cancels)
                                }));
                                if r.is_err() {
                                    poi.poison();
                                }
                                r
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        // LINT: panic-ok(rank closures run under catch_unwind)
                        .map(|h| h.join().expect("rank threads catch their panics"))
                        .collect()
                });
                let mut out = None;
                let mut panics = Vec::new();
                for r in results {
                    match r {
                        // Lane verdicts are collective: every rank's vec
                        // is identical, so rank 0's stands for all.
                        Ok(lanes) => out = out.or(Some(lanes)),
                        Err(p) => panics.push(panic_message(p)),
                    }
                }
                if !panics.is_empty() {
                    Err(JobError::Panicked(primary_panic(panics)))
                } else {
                    // LINT: panic-ok(no panics means every rank returned
                    // its lane vec, and ranks >= 2 here)
                    Ok(out.expect("every rank returned lane outcomes"))
                }
            }
        }?;
        self.solves += reqs.len() as u64;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use krylov::SolverKind;
    use poisson::unit_cube_dirichlet;

    #[test]
    fn session_keys_are_per_lease_slot() {
        // A session embeds its own device handles, so the cache must
        // never hand a session built under one lease to the holder of
        // another — the slot is part of the identity.
        let req = SolveRequest::new(unit_cube_dirichlet(5), SolverKind::BiCgs);
        let a = SessionKey::of(&req, "serial", 0);
        let b = SessionKey::of(&req, "serial", 1);
        assert_ne!(a, b, "same request under different lease slots");
        assert_eq!(a, SessionKey::of(&req, "serial", 0));
    }

    #[test]
    fn rhs_source_tracks_closure_identity_not_value() {
        let p = unit_cube_dirichlet(5);
        let source = RhsSource::of(&p);
        assert!(source.matches(&p));
        assert!(source.matches(&p.clone()), "clones share the same Arcs");
        let mut q = p.clone();
        q.rhs = Arc::new(|_, _, _| 1.0);
        assert!(!source.matches(&q), "a rebuilt closure must not match");
    }
}

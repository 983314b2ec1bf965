//! Warm sessions: constructed solvers kept alive across jobs.
//!
//! A session is one fully set-up world of [`PoissonSolver`]s — one per
//! rank of a persistent ranks-as-threads world ([`ThreadComm`]), one rank
//! or many — cached under a [`SessionKey`]. A warm hit skips the paper's
//! entire setup phase (grid, operator, workspace and RHS assembly,
//! normalisation, offload) and re-runs only the solve, loading a lane's
//! RHS only when its solver slot does not already hold it.
//!
//! Panic isolation: every rank closure runs under `catch_unwind`; on a
//! panic the world is poisoned so blocked peers unwind instead of
//! deadlocking, and the caller quarantines the session.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use accel::{AnyDevice, Recorder};
use blockgrid::{BlockGrid, Decomp};
use comm::{Poisoner, ReduceOrder, ThreadComm};
use krylov::{CancelToken, SolveOutcome, SolveParams, SolverKind, SolverOptions};
use poisson::assemble::local_rhs;
use poisson::{LaneRhs, PoissonProblem, PoissonSolver, SetupError};

use crate::job::JobError;
use crate::request::SolveRequest;

/// What a cached session is keyed by: the problem *discretisation* (not
/// its closures), the decomposition, the device spec *and lease slot*,
/// and the solver configuration. Two requests with equal keys can share
/// a constructed solver; the RHS itself is per-job state (see
/// [`Session::run`]).
///
/// The slot is part of the key because a session embeds its own device
/// handles (the leased device in a one-rank world, per-rank devices
/// built from the spec in wider ones): keying the cache per slot means a
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

/// A constructed solver world, reusable across jobs with equal
/// [`SessionKey`]s.
pub(crate) struct Session {
    /// One solver per rank, in rank order.
    ranks: Vec<PoissonSolver<f64, AnyDevice, ThreadComm<f64>>>,
    poisoner: Poisoner<f64>,
    /// Provenance of the RHS each solver slot holds (the same on every
    /// rank): the closures it was assembled from, or `None` after an
    /// explicit override (or before the slot's first load).
    sources: Vec<Option<RhsSource>>,
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

/// Run `f` once per rank of a world — rank 0 on the calling thread, the
/// others on scoped threads — each under `catch_unwind`: a panicking rank
/// poisons the world so that peers blocked in a collective unwind too.
/// Returns the per-rank results in rank order, or the root-cause panic's
/// message.
fn on_ranks<X: Send, R: Send>(
    poisoner: &Poisoner<f64>,
    per_rank: impl IntoIterator<Item = X>,
    f: impl Fn(X) -> R + Sync,
) -> Result<Vec<R>, String> {
    let run = |x: X| {
        let r = catch_unwind(AssertUnwindSafe(|| f(x)));
        if r.is_err() {
            poisoner.poison();
        }
        r
    };
    let run = &run;
    let results: Vec<_> = std::thread::scope(|s| {
        let mut per_rank = per_rank.into_iter();
        let rank0 = per_rank.next();
        let others: Vec<_> = per_rank.map(|x| s.spawn(move || run(x))).collect();
        let joined = others.into_iter().map(|h| {
            // LINT: panic-ok(rank closures run under catch_unwind)
            h.join().expect("rank threads catch their panics")
        });
        rank0.map(run).into_iter().chain(joined).collect()
    });
    let mut outs = Vec::with_capacity(results.len());
    let mut panics = Vec::new();
    for r in results {
        match r {
            Ok(out) => outs.push(out),
            Err(p) => panics.push(panic_message(p)),
        }
    }
    if panics.is_empty() {
        Ok(outs)
    } else {
        Err(primary_panic(panics))
    }
}

/// One rank's part of [`Session::run`]: bring every lane's RHS to its
/// solver slot — kept where `keep` says so, scattered from the lane's
/// global override, or assembled from its problem's closures — and solve
/// the lanes as one list. Per-lane setup refusals (zero RHS, size
/// mismatch) come back in the lane's verdict without poisoning the list;
/// the verdicts are collective, so every rank returns the same vec.
fn run_lanes(
    solver: &mut PoissonSolver<f64, AnyDevice, ThreadComm<f64>>,
    reqs: &[&SolveRequest],
    keep: &[bool],
    params: &SolveParams,
    cancels: &[Option<CancelToken>],
) -> Vec<Result<SolveOutcome, SetupError>> {
    // LINT: panic-ok(callers always pass at least one lane request)
    let head = reqs[0];
    let loads: Vec<Result<Option<Vec<f64>>, SetupError>> = reqs
        .iter()
        .zip(keep)
        .map(|(req, &keep)| match &req.rhs {
            Some(global) => scatter(solver.grid(), global).map(Some),
            None if keep => Ok(None),
            None => Ok(Some(local_rhs(&req.problem, solver.grid()))),
        })
        .collect();
    // A lane whose scatter failed stays in the list as an empty slice so
    // lane indexing (and the collective normalisation) stays aligned on
    // every rank; its recorded error wins below. A global-size mismatch
    // is rank-uniform, so this stays collective.
    let lanes: Vec<LaneRhs<'_>> = loads
        .iter()
        .map(|load| match load {
            Ok(Some(local)) => LaneRhs::Load(local),
            Ok(None) => LaneRhs::Keep,
            Err(_) => LaneRhs::Load(&[]),
        })
        .collect();
    let outs = solver.solve_lanes(&lanes, head.kind, &head.opts, params, cancels);
    loads
        .into_iter()
        .zip(outs)
        .map(|(load, out)| load.and(out))
        .collect()
}

impl Session {
    /// Construct the session for `req` cold: a world of
    /// `req.decomp`-many ranks, each assembling and offloading `req`'s
    /// RHS into its solver's slot 0. A one-rank world runs on the leased
    /// device itself; wider worlds build one device per rank from the
    /// key's spec. Any panic during construction is caught (and the
    /// half-built world poisoned) and reported as
    /// [`JobError::Panicked`] — the caller counts the stillborn session
    /// as quarantined.
    pub(crate) fn build(
        key: &SessionKey,
        req: &SolveRequest,
        order: ReduceOrder,
        leased: &AnyDevice,
    ) -> Result<Self, JobError> {
        let decomp = Decomp::new(req.decomp);
        let size = decomp.ranks();
        let comms = ThreadComm::<f64>::world(size, order, vec![Recorder::disabled(); size]);
        // LINT: panic-ok(world(size, ..) returns exactly size >= 1 communicators)
        let poisoner = comms[0].poisoner();
        let built = on_ranks(&poisoner, comms, |comm| {
            let dev = if size == 1 {
                leased.clone()
            } else {
                AnyDevice::from_spec(key.device(), Recorder::disabled())
                    // LINT: panic-ok(try_start built a device from this exact spec)
                    .expect("device spec validated at service start")
            };
            PoissonSolver::try_new(req.problem.clone(), decomp, dev, comm)
        })
        .map_err(JobError::Panicked)?;
        let ranks = built
            .into_iter()
            .collect::<Result<_, _>>()
            .map_err(JobError::Setup)?;
        Ok(Self {
            ranks,
            poisoner,
            sources: vec![Some(RhsSource::of(&req.problem))],
            solves: 0,
        })
    }

    /// Execute jobs on this session as one multi-RHS solve: a solo job
    /// is a one-lane list, a coalesced batch a wider one. Lane `l` runs in
    /// slot `l` of every rank's solver; a lane without an RHS override
    /// keeps the slot's RHS when the slot was assembled from the very
    /// closures of the lane's problem ([`RhsSource`]), and every other
    /// lane loads its own.
    ///
    /// Callers guarantee the requests share this session's key plus the
    /// solve envelope (`tol`, `max_iters`) — batch formation enforces
    /// it. Each lane carries its own cancel token; cancelling one lane
    /// freezes it and leaves every other lane bitwise-unchanged.
    ///
    /// `Ok` carries one verdict per lane: the lane's outcome, or its own
    /// clean setup refusal — collective, so every rank agrees, it leaves
    /// the session reusable and never poisons the lane's batchmates.
    /// `Err` is a panic's message and condemns every lane: the session
    /// state can no longer be trusted and the caller must quarantine it.
    pub(crate) fn run(
        &mut self,
        reqs: &[&SolveRequest],
        cancels: &[Option<CancelToken>],
    ) -> Result<Vec<Result<SolveOutcome, SetupError>>, String> {
        // LINT: panic-ok(callers always pass at least one lane request)
        let head = reqs[0];
        let params = SolveParams {
            tol: head.tol,
            max_iters: head.max_iters,
            record_history: false,
            ..Default::default()
        };
        // Decided once, for every rank alike.
        let width = self.sources.len().max(reqs.len());
        self.sources.resize(width, None);
        let keep: Vec<bool> = reqs
            .iter()
            .zip(&self.sources)
            .map(|(req, source)| {
                req.rhs.is_none() && source.as_ref().is_some_and(|s| s.matches(&req.problem))
            })
            .collect();
        let per_rank = on_ranks(&self.poisoner, &mut self.ranks, |solver| {
            run_lanes(solver, reqs, &keep, &params, cancels)
        })?;
        // Lane verdicts are collective: every rank's vec is identical, so
        // rank 0's stands for all.
        // LINT: panic-ok(a world has at least one rank)
        let verdicts = per_rank.into_iter().next().expect("one rank at least");
        for ((req, verdict), source) in reqs.iter().zip(&verdicts).zip(&mut self.sources) {
            // A refused lane left its slot as it was.
            if verdict.is_ok() {
                *source = req.rhs.is_none().then(|| RhsSource::of(&req.problem));
            }
        }
        self.solves += reqs.len() as u64;
        Ok(verdicts)
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

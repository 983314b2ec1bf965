//! Workloads 1–5: one `PoissonSolver` world driven directly.
//!
//! The solve path uses only what a later refactor has to keep:
//! `PoissonSolver::{try_new, resolve_with_rhs, solve_batch, solution_local}`,
//! `SolverKind`, default options and parameters, `comm::run_ranks_recorded`
//! (`run_ranks` plus the recorders a traced run reads) and
//! `AnyDevice::from_spec`. Exact counts read `Recorder` events and, through
//! `PoissonSolver::ctx`, the rank's `CommStats`.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use accel::{AnyDevice, Event, Recorder};
use blockgrid::Decomp;
use comm::{run_ranks_recorded, CommStats, Communicator, ReduceOrder, ThreadComm};
use krylov::{SolveOutcome, SolveParams, SolverOptions};
use poisson::{paper_problem, PoissonSolver};

use crate::calib::Reference;
use crate::inputs::{Amplitudes, Basis};
use crate::spec::{RankWorkload, MAX_ITERS, MIN_SETUP_SAMPLES, TOL};
use crate::stats::{fnv1a, fnv1a_words, median, FNV_OFFSET};
use crate::trace::{At, Tracer};

type Solver = PoissonSolver<f64, AnyDevice, ThreadComm<f64>>;

/// Preconditioner options of every operation.
pub fn solver_options() -> SolverOptions {
    SolverOptions {
        eig_min_factor: 10.0,
        ..Default::default()
    }
}

/// Solve parameters of every operation (`max_iters` lower only to warm up).
pub fn solve_params(max_iters: usize) -> SolveParams {
    SolveParams {
        tol: TOL,
        max_iters,
        record_history: false,
        ..Default::default()
    }
}

/// How one pass over a workload is run.
#[derive(Clone, Copy, Debug)]
pub struct Pass {
    pub seed: u64,
    /// Length of the timed window; another operation starts only while one
    /// more like the last still fits.
    pub seconds: f64,
    /// Operations timed whatever the window says.
    pub min_ops: usize,
    /// Take set-up samples between operations (and top up to the minimum).
    pub setup_samples: bool,
    /// Run the host-speed reference around every timed sample and divide the
    /// sample by how slow the host was just then (see `calib.rs`).
    pub reference: bool,
    /// Record `Recorder` events and count them per operation.
    pub record_events: bool,
    /// Shrink the mesh by three (smoke mode).
    pub check: bool,
}

/// Exact per-operation counts of rank 0, from `Recorder` events and `CommStats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub kernel_launches: u64,
    pub kernel_bytes: u64,
    pub kernel_flops: u64,
    pub h2d_bytes: u64,
    pub d2h_bytes: u64,
    pub halo_exchanges: u64,
    pub halo_bytes: u64,
    /// Preconditioner applications (`"Preconditioner"` stages).
    pub prec_applies: u64,
    /// Elements swept by full-grid kernels outside the preconditioner.
    pub hot_elems: u64,
    /// Bytes those kernels moved.
    pub hot_bytes: u64,
    /// Halo exchanges outside the preconditioner.
    pub hot_halo_exchanges: u64,
    pub allreduces: u64,
    pub msgs: u64,
    pub bytes_sent: u64,
}

impl Counts {
    fn from_events(events: &[Event], interior: u64, comm: (CommStats, CommStats)) -> Self {
        let mut c = Self {
            allreduces: comm.1.allreduces - comm.0.allreduces,
            msgs: comm.1.msgs_sent - comm.0.msgs_sent,
            bytes_sent: comm.1.bytes_sent - comm.0.bytes_sent,
            ..Self::default()
        };
        let mut in_prec = 0usize;
        for e in events {
            match e {
                Event::Begin { name } if *name == "Preconditioner" => {
                    in_prec += 1;
                    c.prec_applies += 1;
                }
                Event::End { name } if *name == "Preconditioner" => in_prec -= 1,
                Event::Kernel {
                    name,
                    elems,
                    bytes,
                    flops,
                } => {
                    c.kernel_launches += 1;
                    c.kernel_bytes += bytes;
                    c.kernel_flops += flops;
                    // Row-sized folds, ghost updates and halo packing are not
                    // full-grid sweeps; pure reductions record rows, not
                    // elements, and sweep the whole interior.
                    let small = *name == "KernelNeumannBCs"
                        || name.starts_with("KernelFold")
                        || name.starts_with("KernelHalo");
                    if in_prec == 0 && !small {
                        c.hot_bytes += bytes;
                        c.hot_elems += if name.starts_with("KernelDot") {
                            interior
                        } else {
                            *elems
                        };
                    }
                }
                Event::H2D { bytes } => c.h2d_bytes += bytes,
                Event::D2H { bytes } => c.d2h_bytes += bytes,
                Event::Halo { bytes, .. } => {
                    c.halo_exchanges += 1;
                    c.halo_bytes += bytes;
                    if in_prec == 0 {
                        c.hot_halo_exchanges += 1;
                    }
                }
                _ => {}
            }
        }
        c
    }
}

/// One right-hand side of one operation, as one rank saw it.
#[derive(Clone, Copy, Debug)]
struct LaneLocal {
    /// Converged without breakdown (`false` too when set-up refused the lane).
    converged: bool,
    iters: usize,
    prec_sweeps: u64,
    err_sq: f64,
    ref_sq: f64,
    checksum: u64,
}

struct OpLocal {
    dur_s: f64,
    cycle_s: f64,
    /// How slow rank 0 found the host around this operation (1 elsewhere).
    host: f64,
    lanes: Vec<LaneLocal>,
    counts: Counts,
}

/// One timed operation, combined over ranks.
#[derive(Clone, Debug)]
pub struct OpRecord {
    /// Wall time of the solve call, the slowest rank's.
    pub dur_s: f64,
    /// Solve call plus fetching the solution (`solve_batch` returns it).
    pub cycle_s: f64,
    /// How much slower than on a quiet host the reference ran around this
    /// operation (1 without a reference): reported times are divided by it.
    pub host: f64,
    /// Outer iterations per right-hand side.
    pub iters: Vec<usize>,
    pub prec_sweeps: u64,
    /// Relative L2 error per right-hand side.
    pub rel_err: Vec<f64>,
    /// Right-hand sides that did not converge, broke down, were refused, or
    /// missed the error bound.
    pub failed: usize,
    /// FNV-1a of every solution's bits, ranks in order.
    pub checksum: u64,
    pub counts: Counts,
}

/// What one pass measured.
#[derive(Clone, Debug, Default)]
pub struct RankReport {
    pub ops: Vec<OpRecord>,
    /// Seconds per cold construction as the clock read them, one entry per
    /// set-up sample.
    pub setup_raw: Vec<f64>,
    /// The host reading around each set-up sample (1 without a reference).
    pub setup_host: Vec<f64>,
    /// Every reference sample of the pass, in seconds.
    pub reference_s: Vec<f64>,
    /// The very first construction of the process (cold caches, page faults).
    pub first_construct_s: f64,
    /// Bytes of one halo-padded field on rank 0.
    pub field_bytes: usize,
    /// Interior unknowns of rank 0.
    pub interior: usize,
    /// Wall time from the first timed operation to the end of the window.
    pub window_s: f64,
}

impl RankReport {
    pub fn rhs_attempted(&self) -> usize {
        self.ops.iter().map(|o| o.iters.len()).sum()
    }

    pub fn rhs_failed(&self) -> usize {
        self.ops.iter().map(|o| o.failed).sum()
    }

    /// Seconds per operation as the clock read them.
    pub fn op_raw(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.dur_s).collect()
    }

    /// Seconds per operation on a quiet host: the clock's over the host's.
    pub fn op_seconds(&self) -> Vec<f64> {
        self.ops.iter().map(|o| o.dur_s / o.host).collect()
    }

    /// Seconds per cold construction on a quiet host.
    pub fn setup_seconds(&self) -> Vec<f64> {
        let host = self.setup_host.iter();
        self.setup_raw
            .iter()
            .zip(host)
            .map(|(s, h)| s / h)
            .collect()
    }

    /// Right-hand sides solved and fetched per second: those of one operation
    /// over the reported time of solving and fetching them.
    pub fn rhs_per_s(&self) -> f64 {
        let cycles: Vec<f64> = self.ops.iter().map(|o| o.cycle_s / o.host).collect();
        self.ops.first().map_or(0, |o| o.iters.len()) as f64 / median(&cycles)
    }

    /// FNV-1a over the checksums and iteration counts of the first `n`
    /// operations: equal across runs with the same seed.
    pub fn digest(&self, n: usize) -> u64 {
        self.ops.iter().take(n).fold(FNV_OFFSET, |state, op| {
            let iters = op.iters.iter().map(|&i| i as u64);
            fnv1a_words(state, std::iter::once(op.checksum).chain(iters))
        })
    }
}

/// Mesh nodes of a workload in this mode.
pub fn mesh_nodes(nodes: usize, check: bool) -> usize {
    if check {
        (nodes / 3).max(9)
    } else {
        nodes
    }
}

/// One set-up sample: `reps` cold constructions back to back, each a fresh
/// world (rank threads, communicators, devices) plus `try_new` on every rank.
/// Returns seconds per construction, as the calling thread saw them — that
/// is, until the slowest rank was done.
fn setup_sample(w: &RankWorkload, nodes: usize, tracer: &Tracer) -> Result<f64, String> {
    let at = At::default();
    let (result, dur) = tracer.time("world + PoissonSolver::try_new", "poisson", at, || {
        for _ in 0..w.setup_reps {
            let built = run_ranks_recorded::<f64, _, _>(
                w.ranks,
                ReduceOrder::RankOrder,
                vec![Recorder::disabled(); w.ranks],
                |comm| {
                    let dev = AnyDevice::from_spec(w.device, Recorder::disabled())?;
                    Solver::try_new(paper_problem(nodes), Decomp::new(w.decomp), dev, comm)
                        .map(drop)
                        .map_err(|e| e.to_string())
                },
            );
            built.into_iter().collect::<Result<Vec<()>, String>>()?;
        }
        Ok::<(), String>(())
    });
    result.map(|()| dur.as_secs_f64() / w.setup_reps as f64)
}

/// Readings of the reference averaged on each side of a timed sample. One
/// reading lasts a tenth of an operation or less, so a single one is noisier
/// than the operation it is meant to judge.
const HOST_WINDOW: usize = 2;

/// Rank 0's view of the host: the reference and every reading of it so far.
/// Readings and timed samples alternate, and a timed sample remembers how many
/// readings came before it.
struct Host {
    reference: Option<Reference>,
    quiet_s: f64,
    readings: Vec<f64>,
}

impl Host {
    fn new(reference: Option<Reference>, quiet_s: f64) -> Self {
        let mut host = Self {
            reference,
            quiet_s,
            readings: Vec::new(),
        };
        // Twice: the first reading warms the reference's own arrays up.
        host.read();
        host.readings.clear();
        host.read();
        host
    }

    /// Run the reference once more.
    fn read(&mut self) {
        if let Some(reference) = &mut self.reference {
            self.readings.push(reference.sample());
        }
    }

    /// How slow the host was around a timed sample that `before` readings
    /// preceded: the mean of the `HOST_WINDOW` readings on each side of it
    /// over the quiet-host time. Always 1 without a reference.
    fn slowness(&self, before: usize) -> f64 {
        if self.reference.is_none() {
            return 1.0;
        }
        let from = before.saturating_sub(HOST_WINDOW);
        let to = (before + HOST_WINDOW).min(self.readings.len());
        let near = &self.readings[from..to];
        near.iter().sum::<f64>() / near.len() as f64 / self.quiet_s
    }
}

/// `n` set-up samples, each followed by a reading of the host. `out` gets the
/// seconds of each and the number of readings before it.
fn take_setup_samples(
    w: &RankWorkload,
    nodes: usize,
    tracer: &Tracer,
    n: usize,
    host: &mut Host,
    out: &mut Vec<(f64, usize)>,
) -> Result<(), String> {
    for _ in 0..n {
        out.push((setup_sample(w, nodes, tracer)?, host.readings.len()));
        host.read();
    }
    Ok(())
}

/// Run one operation on this rank: make the right-hand sides, meet the other
/// ranks at the barrier, time the solve call, then fetch and check the answer.
#[allow(clippy::too_many_arguments)]
fn run_op(
    w: &RankWorkload,
    solver: &mut Solver,
    basis: &Basis,
    amps: &[(f64, f64)],
    rhs: &mut [Vec<f64>],
    params: &SolveParams,
    barrier: &Barrier,
    tracer: &Tracer,
    at: At,
) -> (f64, f64, Vec<LaneLocal>) {
    for (buf, amp) in rhs.iter_mut().zip(amps) {
        basis.rhs_into(*amp, buf);
    }
    let opts = solver_options();
    let lane = |outcome: Option<&SolveOutcome>, sol: &[f64], amp: (f64, f64)| -> LaneLocal {
        let (err_sq, ref_sq) = match outcome {
            Some(_) => basis.error_sq(amp, sol),
            None => (0.0, 0.0),
        };
        LaneLocal {
            converged: outcome.is_some_and(|o| o.converged && o.breakdown.is_none()),
            iters: outcome.map_or(0, |o| o.iterations),
            prec_sweeps: outcome.map_or(0, |o| o.prec_iterations),
            err_sq,
            ref_sq,
            checksum: fnv1a(FNV_OFFSET, sol),
        }
    };
    barrier.wait();
    if w.lanes == 1 {
        let (outcome, dur) = tracer.time("PoissonSolver::resolve_with_rhs", "poisson", at, || {
            solver.resolve_with_rhs(&rhs[0], w.kind, &opts, params)
        });
        let (sol, fetch) = tracer.time("PoissonSolver::solution_local", "poisson", at, || {
            solver.solution_local()
        });
        let (lane, _) = tracer.time("verify", "benchmark", at, || {
            lane(outcome.as_ref().ok(), &sol, amps[0])
        });
        (dur.as_secs_f64(), (dur + fetch).as_secs_f64(), vec![lane])
    } else {
        let refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let (solved, dur) = tracer.time("PoissonSolver::solve_batch", "poisson", at, || {
            solver.solve_batch(&refs, w.kind, &opts, params, &[])
        });
        let (lanes, _) = tracer.time("verify", "benchmark", at, || {
            solved
                .iter()
                .zip(amps)
                .map(|(l, amp)| match l {
                    Ok(l) => lane(Some(&l.outcome), &l.solution_local, *amp),
                    Err(_) => lane(None, &[], *amp),
                })
                .collect()
        });
        (dur.as_secs_f64(), dur.as_secs_f64(), lanes)
    }
}

/// Run one pass of `w`. Spans go to `tracer`; an `Err` is a set-up refusal.
pub fn run(w: &RankWorkload, pass: Pass, tracer: &Tracer) -> Result<RankReport, String> {
    let nodes = mesh_nodes(w.nodes, pass.check);
    let recorders: Vec<Recorder> = (0..w.ranks)
        .map(|_| {
            if pass.record_events {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            }
        })
        .collect();
    let barrier = Barrier::new(w.ranks);
    let go_on = AtomicBool::new(true);
    let max_rel_err = if pass.check { 0.3 } else { w.max_rel_err };

    /// One rank's operations, and the report's other fields as it saw them.
    struct RankOut {
        ops: Vec<OpLocal>,
        rest: RankReport,
    }

    let per_rank = run_ranks_recorded::<f64, _, _>(
        w.ranks,
        ReduceOrder::RankOrder,
        recorders.clone(),
        |comm| -> Result<RankOut, String> {
            let rank = comm.rank();
            let recorder = &recorders[rank];
            let here = At {
                rank,
                ..At::default()
            };
            let (solver, first) = tracer.time("PoissonSolver::try_new", "poisson", here, || {
                AnyDevice::from_spec(w.device, recorder.clone()).and_then(|dev| {
                    Solver::try_new(paper_problem(nodes), Decomp::new(w.decomp), dev, comm)
                        .map_err(|e| e.to_string())
                })
            });
            let mut solver = solver?;
            let basis = Basis::new(nodes, solver.grid());
            let interior = basis.len();
            let field_bytes = solver.grid().padded_len() * std::mem::size_of::<f64>();
            let mut amplitudes = Amplitudes::new(pass.seed, w.stream);
            let mut rhs = vec![Vec::new(); w.lanes];
            let mut amps = vec![(0.0, 0.0); w.lanes];

            let mut warm = |solver: &mut Solver, params: &SolveParams, n: usize| {
                for _ in 0..n {
                    amps.fill_with(|| amplitudes.next());
                    run_op(
                        w, solver, &basis, &amps, &mut rhs, params, &barrier, tracer, here,
                    );
                }
            };
            match w.warmup_ops {
                0 => warm(&mut solver, &solve_params(2), 1),
                _ if pass.check => warm(&mut solver, &solve_params(MAX_ITERS), 1),
                n => warm(&mut solver, &solve_params(MAX_ITERS), n),
            }

            let params = solve_params(MAX_ITERS);
            let mut ops: Vec<OpLocal> = Vec::new();
            let mut setups: Vec<(f64, usize)> = Vec::new();
            let mut readings_before_op = Vec::new();
            let reference = (pass.reference && rank == 0)
                .then(|| Reference::new(w.compute_threads, solver.grid().padded(), w.ref_sweeps));
            let mut host = Host::new(reference, w.ref_quiet_s);
            // The other ranks sleep here while rank 0 takes its first reading.
            barrier.wait();
            let window = Instant::now();
            let mut failure: Option<String> = None;
            loop {
                let cycle = Instant::now();
                let op_id = ops.len() as u64;
                let op_span = tracer.open(
                    "op",
                    "benchmark",
                    At {
                        op: Some(op_id),
                        rank,
                        parent: None,
                    },
                );
                let at = At {
                    op: Some(op_id),
                    rank,
                    parent: op_span,
                };
                amps.fill_with(|| amplitudes.next());
                let _ = recorder.drain();
                let before = solver.ctx().comm.stats();
                let (dur_s, cycle_s, lanes) = run_op(
                    w,
                    &mut solver,
                    &basis,
                    &amps,
                    &mut rhs,
                    &params,
                    &barrier,
                    tracer,
                    at,
                );
                let after = solver.ctx().comm.stats();
                let counts =
                    Counts::from_events(&recorder.drain(), interior as u64, (before, after));
                tracer.close(op_span);
                ops.push(OpLocal {
                    dur_s,
                    cycle_s,
                    host: 1.0,
                    lanes,
                    counts,
                });

                barrier.wait();
                if rank == 0 {
                    readings_before_op.push(host.readings.len());
                    host.read();
                    let due = if !pass.setup_samples {
                        0
                    } else if pass.check {
                        1
                    } else if w.setups_per_op > 0 {
                        w.setups_per_op
                    } else {
                        usize::from(ops.len().is_multiple_of(16))
                    };
                    let mut taken =
                        take_setup_samples(w, nodes, tracer, due, &mut host, &mut setups);
                    let cycle_s = cycle.elapsed().as_secs_f64();
                    let go = taken.is_ok()
                        && (ops.len() < pass.min_ops
                            || window.elapsed().as_secs_f64() + cycle_s <= pass.seconds);
                    if !go && taken.is_ok() && pass.setup_samples && !pass.check {
                        let missing = MIN_SETUP_SAMPLES.saturating_sub(setups.len());
                        taken =
                            take_setup_samples(w, nodes, tracer, missing, &mut host, &mut setups);
                    }
                    failure = taken.err();
                    go_on.store(go, Ordering::SeqCst);
                }
                barrier.wait();
                if !go_on.load(Ordering::SeqCst) {
                    break;
                }
            }
            for (op, before) in ops.iter_mut().zip(&readings_before_op) {
                op.host = host.slowness(*before);
            }
            match failure {
                Some(e) => Err(e),
                None => Ok(RankOut {
                    ops,
                    rest: RankReport {
                        ops: Vec::new(),
                        setup_raw: setups.iter().map(|s| s.0).collect(),
                        setup_host: setups.iter().map(|s| host.slowness(s.1)).collect(),
                        reference_s: host.readings,
                        first_construct_s: first.as_secs_f64(),
                        field_bytes,
                        interior,
                        window_s: window.elapsed().as_secs_f64(),
                    },
                }),
            }
        },
    );

    let mut ranks: Vec<RankOut> = per_rank.into_iter().collect::<Result<_, _>>()?;
    let n_ops = ranks[0].ops.len();
    let ops = (0..n_ops)
        .map(|i| {
            let lanes = ranks[0].ops[i].lanes.len();
            let mut rec = OpRecord {
                dur_s: ranks.iter().map(|r| r.ops[i].dur_s).fold(0.0, f64::max),
                cycle_s: ranks.iter().map(|r| r.ops[i].cycle_s).fold(0.0, f64::max),
                host: ranks[0].ops[i].host,
                iters: Vec::with_capacity(lanes),
                prec_sweeps: 0,
                rel_err: Vec::with_capacity(lanes),
                failed: 0,
                checksum: FNV_OFFSET,
                counts: ranks[0].ops[i].counts,
            };
            for l in 0..lanes {
                let each = || ranks.iter().map(|r| r.ops[i].lanes[l]);
                let err: f64 = each().map(|x| x.err_sq).sum();
                let norm: f64 = each().map(|x| x.ref_sq).sum();
                let rel = (err / norm.max(f64::MIN_POSITIVE)).sqrt();
                let ok = each().all(|x| x.converged) && rel <= max_rel_err;
                let first = each().next().expect("at least one rank");
                rec.iters.push(first.iters);
                rec.prec_sweeps += first.prec_sweeps;
                rec.rel_err.push(rel);
                rec.failed += usize::from(!ok);
                rec.checksum = fnv1a_words(rec.checksum, each().map(|x| x.checksum));
            }
            rec
        })
        .collect();
    let rest = ranks.swap_remove(0).rest;
    Ok(RankReport { ops, ..rest })
}

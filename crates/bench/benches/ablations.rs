//! Ablation benchmarks for the design choices DESIGN.md calls out.
//!
//! Two kinds of output, kept apart. The criterion groups time the paper's
//! §V choices on this host's wall clock: preconditioner communication,
//! Chebyshev sweep count, eigenvalue rescaling, kernel fusion and
//! reduction ordering. After them, one table prints the modelled
//! ablations — schedule, batched multi-RHS and mixed precision — as an
//! MI250X replay of recorded event streams ([`modelled_replays`]). Those
//! figures are perfmodel output and never print as timings.

use accel::{Event, Recorder, Serial};
use blockgrid::{Decomp, Field};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use krylov::kernels::{dot, INFO_DOT};
use krylov::{SolveParams, SolverKind, SolverOptions};
use perfmodel::{CostBreakdown, MachineModel};
use poisson::{paper_problem, PoissonSolver};
use stencil::{apply_physical_bcs, Laplacian, INFO_APPLY};

fn solve_time(kind: SolverKind, opts: &SolverOptions) -> usize {
    let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
        paper_problem(17),
        Decomp::single(),
        Serial::new(Recorder::disabled()),
        comm::SelfComm::default(),
    );
    let out = solver.solve(
        kind,
        opts,
        &SolveParams {
            tol: 1e-10,
            max_iters: 20_000,
            record_history: false,
            ..Default::default()
        },
    );
    assert!(out.converged);
    out.iterations
}

/// G(CI) vs GNoComm(CI): the cost of communicating in the preconditioner.
fn ablation_comm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_comm");
    group.sample_size(10);
    let opts = SolverOptions {
        eig_min_factor: 10.0,
        ..Default::default()
    };
    for kind in [
        SolverKind::BiCgsGCi,
        SolverKind::BiCgsGNoCommCi,
        SolverKind::BiCgsBjCi,
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(kind.label()), &kind, |b, &k| {
            b.iter(|| solve_time(k, &opts));
        });
    }
    group.finish();
}

/// Chebyshev sweep-count sweep around the paper's N_s/2 bound.
fn ablation_ci_iters(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_ci_iters");
    group.sample_size(10);
    for sweeps in [6usize, 12, 24, 48] {
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ci_iterations: sweeps,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(sweeps), &sweeps, |b, _| {
            b.iter(|| solve_time(SolverKind::BiCgsGNoCommCi, &opts));
        });
    }
    group.finish();
}

/// Bergamaschi eigenvalue rescaling on/off.
fn ablation_rescale(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_rescale");
    group.sample_size(10);
    for (label, min_factor) in [("raw_bounds", 1.0), ("rescaled_x10", 10.0)] {
        let opts = SolverOptions {
            eig_min_factor: min_factor,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(label), &label, |b, _| {
            b.iter(|| solve_time(SolverKind::BiCgsGNoCommCi, &opts));
        });
    }
    group.finish();
}

/// Fused stencil+dot (KernelBiCGS1) vs separate apply-then-dot — the
/// temporal-locality claim of Sec. III-B.
fn ablation_fusion(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_fusion");
    let n = 32;
    let grid = blockgrid::BlockGrid::new(
        blockgrid::GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]),
        Decomp::single(),
        0,
    );
    let dev = Serial::new(Recorder::disabled());
    let lap = Laplacian::new(&grid);
    let vals: Vec<f64> = (0..n * n * n).map(|i| (i % 89) as f64 / 89.0).collect();
    let mut u = Field::from_interior(&dev, &grid, &vals);
    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
    let g = Field::from_interior(&dev, &grid, &vals);
    let mut w = Field::zeros(&dev, &grid);
    group.bench_function("fused", |b| {
        b.iter(|| lap.apply_fused_dot(&dev, INFO_APPLY, &u, &mut w, &g));
    });
    group.bench_function("separate", |b| {
        b.iter(|| {
            lap.apply(&dev, INFO_APPLY, &u, &mut w);
            dot(&dev, INFO_DOT, &grid, &g, &w)
        });
    });
    group.finish();
}

/// Deterministic (rank-order) vs arrival-order allreduce.
fn ablation_reduction(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_reduction");
    group.sample_size(10);
    for (label, order) in [
        ("rank_order", ReduceOrder::RankOrder),
        ("arrival", ReduceOrder::Arrival),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(label), &order, |b, &order| {
            b.iter(|| {
                run_ranks::<f64, _, _>(4, order, |comm_handle| {
                    let mut acc = 0.0;
                    for i in 0..200 {
                        let mut v = [comm_handle.rank() as f64 + i as f64];
                        comm_handle.all_reduce(&mut v, ReduceOp::Sum);
                        acc += v[0];
                    }
                    acc
                })
            });
        });
    }
    group.finish();
}

/// One line of the modelled replay table: two arms' modelled seconds for
/// one case; the ratio `arms[0] / arms[1]` must clear `bar` when set.
struct ReplayRow {
    ablation: &'static str,
    case: String,
    arms: [(&'static str, f64); 2],
    bar: Option<f64>,
}

impl ReplayRow {
    fn ratio(&self) -> f64 {
        self.arms[0].1 / self.arms[1].1
    }
}

/// Hold every row to its bar; an ablation calls this before it writes
/// its record.
fn assert_bars(rows: &[ReplayRow]) {
    for r in rows {
        if let Some(bar) = r.bar {
            assert!(
                r.ratio() >= bar,
                "{} below the {bar}x bar at {}: {:.3}x modelled",
                r.ablation,
                r.case,
                r.ratio()
            );
        }
    }
}

/// Ranks of every recorded world. Its 33³ nodes under a 2×2×2 decomp
/// give each rank a 16³ block: the strong-scaling limit of the paper's
/// Fig. 6, where per-launch and per-message fixed costs rival the kernels.
const RANKS: usize = 8;
const RECORDED_LOCAL: usize = 16;

/// Threads per rank's device, sized like an MPI+OpenMP job: cores / ranks,
/// at least one; oversubscription would only slow the recording.
fn workers_per_rank() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |p| p.get() / RANKS)
        .max(1)
}

/// One full paper-problem solve on the recorded world through `run`
/// ([`bench::run_once`] or [`bench::run_reference`]): its outer iterations
/// and every rank's event stream.
fn record_solve(
    run: fn(&bench::RunConfig) -> bench::RunResult,
    kind: SolverKind,
    mixed_precision: bool,
) -> (usize, Vec<Vec<Event>>) {
    let mut cfg = bench::RunConfig::small(kind);
    cfg.nodes = 33;
    cfg.decomp = [2, 2, 2];
    cfg.device = format!("threads:{}", workers_per_rank());
    cfg.record_events = true;
    cfg.tol = 1e-8;
    cfg.opts.mixed_precision = mixed_precision;
    let res = run(&cfg);
    assert!(res.outcome.converged, "{:?}", res.outcome);
    (res.outcome.iterations, res.events)
}

/// Slowest rank's modelled solve time at `model_ranks`, with the recorded
/// 16³-per-rank streams scaled to a `local`³ block.
fn worst_scaled(streams: &[Vec<Event>], model_ranks: usize, local: usize) -> CostBreakdown {
    let r = local as f64 / RECORDED_LOCAL as f64;
    let machine = MachineModel::mi250x();
    bench::worst_rank_replay_scaled(streams, &machine, model_ranks, r.powi(3), r.powi(2))
}

/// The modelled ablations, printed as one table. None of it is a timing.
///
/// The in-process communicator delivers messages in nanoseconds, and on a
/// shared host the OS interleaves all eight rank threads on the same
/// cores, so wall time cannot show what a schedule, a batch or a narrower
/// element buys on a real interconnect and GPU. These ablations run real
/// 8-rank Threads solves, record each rank's event stream — kernel
/// footprints, halo messages, overlap windows and reductions, measured
/// rather than synthesized — and replay the streams through the MI250X
/// machine model, reporting the slowest rank. Each asserts its bar,
/// writes `BENCH_<name>.json` and merges its section into the committed
/// `results/bench_summary.json`.
fn modelled_replays() {
    let rows: Vec<ReplayRow> = [
        ablation_schedule(),
        ablation_batched_rhs(),
        ablation_mixed_precision(),
    ]
    .into_iter()
    .flatten()
    .collect();
    println!(
        "\nmodelled: MI250X replay of recorded event streams \
         (perfmodel seconds, not wall clock)"
    );
    println!(
        "{:<16} {:<24} {:>24} {:>24} {:>8}  bar",
        "ablation", "case", "baseline", "variant", "ratio"
    );
    for r in &rows {
        let arm = |(name, s): (&str, f64)| format!("{name} {s:.3e} s");
        let bar = r.bar.map_or(String::new(), |b| format!(">= {b}x"));
        println!(
            "{:<16} {:<24} {:>24} {:>24} {:>7.3}x  {bar}",
            r.ablation,
            r.case,
            arm(r.arms[0]),
            arm(r.arms[1]),
            r.ratio()
        );
    }
}

/// The schedule ablation: the historical "paper" schedule
/// ([`bench::run_reference`] — eleven unfused sweeps, blocking halo
/// exchanges, three blocking reductions per iteration) against the one
/// production schedule (five fused sweeps, split-phase halos, two
/// batched reductions with compute posted under the first), on a full
/// 8-rank Bi-CGSTAB solve recorded live on the Threads back-end and
/// replayed on two grids:
///
/// * **model ranks 8–512** at the recorded 16³ block: the allreduce term
///   grows with `ceil(log2 P)` while the local compute stays fixed, the
///   strong-scaling regime of the paper's Fig. 6, where the 3-to-2
///   message cut and the window pay off (bar: ≥ 1.15× at ≥ 256 ranks);
/// * **local blocks 64³–320³** at 8 ranks (kernel footprints scaled by
///   volume, halos by face area): the bandwidth-bound regime where
///   264 → 200 B/elem of streaming traffic pays off (bar: ≥ 1.25× at
///   ≥ 256³ per rank).
fn ablation_schedule() -> Vec<ReplayRow> {
    const MODEL_RANKS: [usize; 4] = [8, 64, 256, 512];
    const LOCALS: [usize; 4] = [64, 128, 256, 320];

    let (iters_ref, ref_streams) = record_solve(bench::run_reference, SolverKind::BiCgs, false);
    let (iterations, prod_streams) = record_solve(bench::run_once, SolverKind::BiCgs, false);
    assert_eq!(
        iters_ref, iterations,
        "the schedule must not change the iteration count"
    );

    // What separates the arms, read off the streams rather than assumed.
    let allreduces_per_iteration = |streams: &[Vec<Event>]| {
        bench::first_iteration_profile(&streams[0])
            .iter()
            .filter(|e| matches!(e, Event::AllReduce { .. }))
            .count()
    };
    let allreduces = [&ref_streams, &prod_streams].map(|s| allreduces_per_iteration(s));
    assert_eq!(allreduces, [3, 2], "allreduces per iteration");
    let sweeps = [
        bench::sweeps_per_iteration(bench::run_reference),
        bench::sweeps_per_iteration(bench::run_once),
    ];
    assert!(
        (sweeps[0] - 11.0).abs() < 0.01 && (sweeps[1] - 5.0).abs() < 0.01,
        "expected 11 -> 5 sweeps per iteration, measured {sweeps:?}"
    );

    let grid = MODEL_RANKS
        .iter()
        .map(|&p| (p, RECORDED_LOCAL))
        .chain(LOCALS.iter().map(|&n| (RANKS, n)));

    #[derive(serde::Serialize)]
    struct Row {
        model_ranks: usize,
        local_nodes: usize,
        reference: CostBreakdown,
        production: CostBreakdown,
        reference_iter_s: f64,
        production_iter_s: f64,
        model_speedup: f64,
    }
    #[derive(serde::Serialize)]
    struct ScheduleRecord {
        schema_version: u32,
        recorded_ranks: usize,
        machine: &'static str,
        iterations: usize,
        sweeps_per_iteration: [f64; 2],
        allreduces_per_iteration: [usize; 2],
        bytes_per_elem_per_iteration: [u32; 2],
        rows: Vec<Row>,
    }
    let rows: Vec<Row> = grid
        .map(|(p, n)| {
            let reference = worst_scaled(&ref_streams, p, n);
            let production = worst_scaled(&prod_streams, p, n);
            Row {
                model_ranks: p,
                local_nodes: n,
                reference_iter_s: reference.total_s() / iterations as f64,
                production_iter_s: production.total_s() / iterations as f64,
                reference,
                production,
                model_speedup: reference.total_s() / production.total_s(),
            }
        })
        .collect();
    let replay: Vec<ReplayRow> = rows
        .iter()
        .map(|r| ReplayRow {
            ablation: "schedule",
            case: format!("{} ranks, {}³/rank", r.model_ranks, r.local_nodes),
            arms: [
                ("reference", r.reference.total_s()),
                ("production", r.production.total_s()),
            ],
            bar: if r.local_nodes >= 256 {
                Some(1.25)
            } else if r.model_ranks >= 256 {
                Some(1.15)
            } else {
                None
            },
        })
        .collect();
    assert_bars(&replay);
    let record = ScheduleRecord {
        schema_version: 1,
        recorded_ranks: RANKS,
        machine: "mi250x",
        iterations,
        sweeps_per_iteration: sweeps,
        allreduces_per_iteration: allreduces,
        bytes_per_elem_per_iteration: [264, 200],
        rows,
    };
    bench::write_bench_json("schedule", &record).expect("write BENCH_schedule.json");
    bench::update_summary("schedule", serde::Serialize::to_value(&record));
    replay
}

/// Batched multi-RHS solves: B independent single-lane solves vs one
/// B-lane batched solve, on the real 8-rank Threads world.
///
/// The batched driver runs every lane through the same iteration
/// schedule — one lane-strided kernel launch per sweep instead of B, one
/// B-face halo message per neighbour instead of B, and one B-wide
/// allreduce per reduction point instead of B — so all the per-launch
/// and per-message fixed costs amortize across lanes while the streamed
/// bytes stay proportional to B. In the strong-scaling regime (16³ per
/// rank) where those fixed costs dominate, the B = 4 batched aggregate
/// throughput must model at ≥ 1.5× four back-to-back solo solves. The
/// record also carries each recorded run's wall time (`wall_*`).
fn ablation_batched_rhs() -> Vec<ReplayRow> {
    use accel::Threads;
    use comm::run_ranks_recorded;
    use std::time::Instant;

    const WIDTHS: [usize; 4] = [1, 2, 4, 8];

    struct WorldRun {
        /// Per-lane outer iteration counts (identical on all ranks).
        iters: Vec<usize>,
        /// Slowest rank's wall seconds over the measured solves.
        wall_s: f64,
        /// Rank-0 allreduce messages over the measured solves.
        allreduces: u64,
        /// Per-rank event streams.
        streams: Vec<Vec<Event>>,
    }

    // One recorded 8-rank Threads world solving `nb` right-hand sides,
    // either as nb sequential single-lane solves or as one nb-lane
    // batched solve. A warm-up lane fills the buffer pools and message
    // queues first and its events/counters are discarded.
    let run_world = |nb: usize, batched: bool| -> WorldRun {
        let decomp = Decomp::new([2, 2, 2]);
        let workers = workers_per_rank();
        let recorders: Vec<Recorder> = (0..RANKS).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        let per_rank = run_ranks_recorded::<f64, _, _>(
            RANKS,
            ReduceOrder::RankOrder,
            recorders,
            move |comm| {
                let rec = comm.recorder().clone();
                let dev = Threads::new(workers, rec.clone());
                let mut solver: PoissonSolver<f64, _, _> =
                    PoissonSolver::new(paper_problem(33), decomp, dev, comm);
                let n: usize = solver.grid().local_n.iter().product();
                let rhs: Vec<Vec<f64>> = (0..nb)
                    .map(|lane| {
                        (0..n)
                            .map(|i| 1.0 + (((i + 7 * lane) as f64) * 0.29).sin())
                            .collect()
                    })
                    .collect();
                let opts = SolverOptions {
                    eig_min_factor: 10.0,
                    ..Default::default()
                };
                let params = SolveParams {
                    tol: 1e-8,
                    max_iters: 50_000,
                    record_history: false,
                    ..Default::default()
                };
                let lane_iters = |lane: Result<poisson::LaneSolve, _>| {
                    let lane = lane.expect("valid lane");
                    assert!(lane.outcome.converged, "{:?}", lane.outcome);
                    lane.outcome.iterations
                };
                let warm = solver.solve_batch(&[&rhs[0]], SolverKind::BiCgs, &opts, &params, &[]);
                lane_iters(warm.into_iter().next().expect("one warm-up lane"));
                rec.drain();
                let reduces0 = solver.ctx().comm.stats().allreduces;
                let t0 = Instant::now();
                let iters: Vec<usize> = if batched {
                    let refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
                    solver
                        .solve_batch(&refs, SolverKind::BiCgs, &opts, &params, &[])
                        .into_iter()
                        .map(lane_iters)
                        .collect()
                } else {
                    rhs.iter()
                        .map(|b| {
                            let lanes = solver.solve_batch(
                                &[b.as_slice()],
                                SolverKind::BiCgs,
                                &opts,
                                &params,
                                &[],
                            );
                            lane_iters(lanes.into_iter().next().expect("one solo lane"))
                        })
                        .collect()
                };
                let wall = t0.elapsed().as_secs_f64();
                let reduces = solver.ctx().comm.stats().allreduces - reduces0;
                (iters, wall, reduces)
            },
        );
        WorldRun {
            iters: per_rank[0].0.clone(),
            wall_s: per_rank.iter().map(|r| r.1).fold(0.0, f64::max),
            allreduces: per_rank[0].2,
            streams: handles.iter().map(|r| r.drain()).collect(),
        }
    };

    let machine = MachineModel::mi250x();
    let worst = |streams: &[Vec<Event>]| -> CostBreakdown {
        bench::worst_rank_replay(streams, &machine, RANKS)
    };

    #[derive(serde::Serialize)]
    struct Row {
        lanes: usize,
        iterations: Vec<usize>,
        wall_solo_s: f64,
        wall_batched_s: f64,
        wall_speedup: f64,
        allreduce_messages_solo: u64,
        allreduce_messages_batched: u64,
        solo: CostBreakdown,
        batched: CostBreakdown,
        model_throughput_x: f64,
    }
    let rows: Vec<Row> = WIDTHS
        .iter()
        .map(|&nb| {
            let (solo, batched) = (run_world(nb, false), run_world(nb, true));
            assert_eq!(
                solo.iters, batched.iters,
                "batching must not change any lane's iteration count (B={nb})"
            );
            let longest = *batched.iters.iter().max().expect("at least one lane") as u64;
            // The reduction-amortization contract: one B-wide message
            // per reduction point of the longest-running lane (2 per
            // iteration + setup), not B per point. Frozen lanes keep
            // their (zeroed) slots, so the count is that of the longest lane,
            // with a small constant for rhs-norm and residual setup.
            assert!(
                batched.allreduces <= 2 * longest + 6,
                "B={nb}: {} batched allreduces exceeds 2*{longest}+6",
                batched.allreduces
            );
            if nb >= 2 {
                assert!(
                    batched.allreduces < solo.allreduces,
                    "B={nb}: batching must cut allreduce messages \
                     ({} batched vs {} solo)",
                    batched.allreduces,
                    solo.allreduces
                );
            }
            let s = worst(&solo.streams);
            let b = worst(&batched.streams);
            Row {
                lanes: nb,
                iterations: solo.iters,
                wall_solo_s: solo.wall_s,
                wall_batched_s: batched.wall_s,
                wall_speedup: solo.wall_s / batched.wall_s,
                allreduce_messages_solo: solo.allreduces,
                allreduce_messages_batched: batched.allreduces,
                solo: s,
                batched: b,
                // Same nb solves completed in both arms, so the aggregate
                // throughput ratio is the modeled time ratio.
                model_throughput_x: s.total_s() / b.total_s(),
            }
        })
        .collect();
    let replay: Vec<ReplayRow> = rows
        .iter()
        .map(|r| ReplayRow {
            ablation: "batched_rhs",
            case: format!("B={}, {RANKS} ranks, 16³/rank", r.lanes),
            arms: [("solo", r.solo.total_s()), ("batched", r.batched.total_s())],
            bar: (r.lanes == 4).then_some(1.5),
        })
        .collect();
    assert_bars(&replay);

    #[derive(serde::Serialize)]
    struct BatchedRecord {
        schema_version: u32,
        recorded_ranks: usize,
        machine: &'static str,
        local_nodes: usize,
        rows: Vec<Row>,
    }
    let record = BatchedRecord {
        schema_version: 1,
        recorded_ranks: RANKS,
        machine: "mi250x",
        local_nodes: RECORDED_LOCAL,
        rows,
    };
    bench::write_bench_json("batched_rhs", &record).expect("write BENCH_batched_rhs.json");
    bench::update_summary("batched_rhs", serde::Serialize::to_value(&record));
    replay
}

/// Mixed-precision Chebyshev preconditioning: f32 inner sweeps, state
/// and halo wire words under the f64 outer recurrence, vs the all-f64
/// baseline, on real 8-rank Threads `G(CI)` solves.
///
/// The recorded 16³-per-rank streams — the halved kernel footprints of
/// the f32 sweeps and the half-width wire words of the f32 halo band
/// are measured, not synthesized — are scaled to production-size local
/// blocks before the replay. Once the local block is bandwidth bound,
/// halving the preconditioner's streamed bytes must model ≥ 1.2× faster
/// per outer iteration (at ≥ 256³ per rank). The convergence side of the
/// trade rides on the same runs: the outer iteration count must stay
/// within ±2 of the all-f64 baseline (the guard the poisson test suite
/// also pins per back-end).
fn ablation_mixed_precision() -> Vec<ReplayRow> {
    const LOCALS: [usize; 4] = [64, 128, 256, 320];

    let (iters_f64, f64_streams) = record_solve(bench::run_once, SolverKind::BiCgsGCi, false);
    let (iters_mixed, mixed_streams) = record_solve(bench::run_once, SolverKind::BiCgsGCi, true);
    let drift = (iters_mixed as i64 - iters_f64 as i64).abs();
    assert!(
        drift <= 2,
        "mixed precision drifted {drift} outer iterations \
         ({iters_mixed} mixed vs {iters_f64} f64)"
    );

    #[derive(serde::Serialize)]
    struct Row {
        local_nodes: usize,
        f64_iter_s: f64,
        mixed_iter_s: f64,
        per_iteration_speedup: f64,
        f64_total: CostBreakdown,
        mixed_total: CostBreakdown,
    }
    #[derive(serde::Serialize)]
    struct MixedRecord {
        schema_version: u32,
        recorded_ranks: usize,
        machine: &'static str,
        iterations_f64: usize,
        iterations_mixed: usize,
        rows: Vec<Row>,
    }
    let rows: Vec<Row> = LOCALS
        .iter()
        .map(|&n| {
            let base = worst_scaled(&f64_streams, RANKS, n);
            let mix = worst_scaled(&mixed_streams, RANKS, n);
            let f64_iter_s = base.total_s() / iters_f64 as f64;
            let mixed_iter_s = mix.total_s() / iters_mixed as f64;
            Row {
                local_nodes: n,
                f64_iter_s,
                mixed_iter_s,
                per_iteration_speedup: f64_iter_s / mixed_iter_s,
                f64_total: base,
                mixed_total: mix,
            }
        })
        .collect();
    let replay: Vec<ReplayRow> = rows
        .iter()
        .map(|r| ReplayRow {
            ablation: "mixed_precision",
            case: format!("{}³/rank, per iteration", r.local_nodes),
            arms: [("f64", r.f64_iter_s), ("mixed", r.mixed_iter_s)],
            bar: (r.local_nodes >= 256).then_some(1.2),
        })
        .collect();
    assert_bars(&replay);
    let record = MixedRecord {
        schema_version: 1,
        recorded_ranks: RANKS,
        machine: "mi250x",
        iterations_f64: iters_f64,
        iterations_mixed: iters_mixed,
        rows,
    };
    bench::write_bench_json("mixed_precision", &record).expect("write BENCH_mixed_precision.json");
    bench::update_summary("mixed_precision", serde::Serialize::to_value(&record));
    replay
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = ablation_comm, ablation_ci_iters, ablation_rescale, ablation_fusion, ablation_reduction
);
criterion_main!(benches, modelled_replays);

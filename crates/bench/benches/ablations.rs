//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! preconditioner communication, Chebyshev sweep count, eigenvalue
//! rescaling, kernel fusion, and reduction ordering.

use accel::{Recorder, Serial};
use blockgrid::{Decomp, Field};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use krylov::kernels::{dot, INFO_DOT};
use krylov::{SolveParams, SolverKind, SolverOptions};
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

/// Chebyshev vs naive Richardson polynomial preconditioning at equal
/// sweep budgets — the quantitative case for the paper's CI choice.
fn ablation_polynomial(c: &mut Criterion) {
    use accel::Recorder;
    use krylov::{
        bicgstab_solve, global_bounds, ChebyMode, ChebyPrecond, RankCtx, RichardsonPrec, Scope,
        Workspace,
    };

    let mut group = c.benchmark_group("ablation_polynomial");
    group.sample_size(10);
    let problem = paper_problem(17);
    let grid = blockgrid::BlockGrid::new(problem.discretize(), Decomp::single(), 0);
    let ctx: RankCtx<f64, _, comm::SelfComm<f64>> = RankCtx::new(
        Serial::new(Recorder::disabled()),
        comm::SelfComm::default(),
        grid,
    );
    let bounds = global_bounds(&ctx).rescaled(1e-4, 10.0);
    let b_host = poisson::assemble::local_rhs(&problem, &ctx.grid);
    let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
    let b_scaled: Vec<f64> = b_host.iter().map(|v| v / bnorm).collect();
    let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_scaled);
    let params = SolveParams {
        tol: 1e-10,
        max_iters: 20_000,
        record_history: false,
        ..Default::default()
    };

    group.bench_function("chebyshev_24", |bch| {
        bch.iter(|| {
            let mut prec = ChebyPrecond::<f64>::new(&ctx, ChebyMode::GlobalNoComm, bounds, 24);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let out = bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut prec, &mut ws, &params);
            assert!(out.converged);
            out.iterations
        });
    });
    group.bench_function("richardson_24", |bch| {
        bch.iter(|| {
            let mut prec = RichardsonPrec::new(&ctx, ChebyMode::GlobalNoComm, bounds, 24);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let out = bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut prec, &mut ws, &params);
            assert!(out.converged);
            out.iterations
        });
    });
    group.finish();
}

/// Overlap vs no overlap: RAS(1) against the paper's non-overlapping
/// Block-Jacobi limit, at equal local sweep counts (the Schwarz trade of
/// Sec. III-A: fewer outer iterations vs one extra exchange per apply).
fn ablation_overlap(c: &mut Criterion) {
    use accel::Recorder;
    use krylov::{
        bicgstab_solve, local_bounds, ChebyMode, ChebyPrecond, RankCtx, RasPrec, Scope, Workspace,
    };

    let mut group = c.benchmark_group("ablation_overlap");
    group.sample_size(10);
    // single rank: RAS == BJ, so run the comparison on the structure cost
    // only; multi-rank comparisons live in the krylov test suite.
    let problem = paper_problem(17);
    let grid = blockgrid::BlockGrid::new(problem.discretize(), Decomp::single(), 0);
    let ctx: RankCtx<f64, _, comm::SelfComm<f64>> = RankCtx::new(
        Serial::new(Recorder::disabled()),
        comm::SelfComm::default(),
        grid,
    );
    let b_host = poisson::assemble::local_rhs(&problem, &ctx.grid);
    let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
    let b_scaled: Vec<f64> = b_host.iter().map(|v| v / bnorm).collect();
    let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_scaled);
    let params = SolveParams {
        tol: 1e-10,
        max_iters: 20_000,
        record_history: false,
        ..Default::default()
    };

    group.bench_function("bj_no_overlap", |bch| {
        bch.iter(|| {
            let bounds = local_bounds(&ctx).rescaled(1e-4, 10.0);
            let mut prec = ChebyPrecond::<f64>::new(&ctx, ChebyMode::BlockJacobi, bounds, 24);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut prec, &mut ws, &params).iterations
        });
    });
    group.bench_function("ras_overlap1", |bch| {
        bch.iter(|| {
            let mut prec = RasPrec::new(&ctx, 24, 1e-4, 10.0);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut prec, &mut ws, &params).iterations
        });
    });
    group.finish();
}

/// Split-phase overlapped halo exchange vs the synchronous exchange, per
/// operator application, on the Threads back-end at 8 ranks (2×2×2).
///
/// The in-process communicator delivers messages in nanoseconds, and on a
/// shared CI host the OS scheduler interleaves all eight rank threads on
/// the same cores, so raw wall time cannot expose what overlap buys on a
/// real interconnect (even sleep-based latency emulation is void: while
/// one rank sleeps on a "wire", the scheduler runs the other ranks'
/// compute, hiding the latency in *both* arms). This bench therefore
/// follows the repo's standing methodology (DESIGN.md, EXPERIMENTS.md):
/// run the real 8-rank Threads world, record each rank's logical event
/// stream — kernel launches with measured byte/flop footprints, halo
/// message counts and bytes, overlap windows — and report that stream's
/// modeled time on the paper's LUMI-G machine model, where a split-phase
/// window costs `max(comm, in-window compute)`. The reported duration is
/// the slowest rank's modeled per-application time; the event streams it
/// prices are measured, not synthesized. The figure is a *modelled*
/// replay and is labelled as one: the split it prices is the production
/// one (a message-sized window), chosen on measured wall clock.
fn ablation_halo_overlap(c: &mut Criterion) {
    use accel::{Event, Threads};
    use blockgrid::{BlockGrid, GlobalGrid, HaloExchange};
    use comm::run_ranks_recorded;
    use perfmodel::MachineModel;
    use std::time::Duration;

    const RANKS: usize = 8;

    // One operator application's event stream per rank, measured live.
    let record_world = |overlap: bool| -> Vec<Vec<Event>> {
        let decomp = Decomp::new([2, 2, 2]);
        // Local 96³ per rank: the regime where one face-wave of halo
        // latency rivals the interior sweep (the paper's Fig. 6 balance
        // at 64 ranks), i.e. where split-phase overlap pays off most.
        let global = GlobalGrid::dirichlet([192, 192, 192], [0.05; 3], [0.0; 3]);
        // Size the worker pool like an MPI+OpenMP job: cores / ranks,
        // at least one; oversubscription would only slow the recording.
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let recorders: Vec<Recorder> = (0..RANKS).map(|_| Recorder::enabled()).collect();
        run_ranks_recorded::<f64, _, _>(RANKS, ReduceOrder::RankOrder, recorders, move |comm| {
            let rec = comm.recorder().clone();
            let dev = Threads::new(workers, rec.clone());
            let grid = BlockGrid::new(global.clone(), decomp, comm.rank());
            let vals: Vec<f64> = (0..grid.local_n.iter().product())
                .map(|i| (i % 97) as f64 / 97.0)
                .collect();
            let mut u = Field::from_interior(&dev, &grid, &vals);
            let lap = Laplacian::new(&grid);
            let mut w = Field::zeros(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            // warm the buffer pool and the per-(peer, tag) message
            // queues, then discard the warm-up's events
            halo.exchange(&dev, &comm, &mut u);
            rec.drain();
            if overlap {
                let pending = halo.begin(&dev, &comm, &u);
                apply_physical_bcs(&grid, &mut u, &rec, false);
                lap.apply_interior(&dev, INFO_APPLY, &u, &mut w);
                halo.finish(&dev, &comm, pending, &mut u);
                lap.apply_shell(&dev, INFO_APPLY, &u, &mut w);
            } else {
                halo.exchange(&dev, &comm, &mut u);
                apply_physical_bcs(&grid, &mut u, &rec, false);
                lap.apply(&dev, INFO_APPLY, &u, &mut w);
            }
            rec.drain()
        })
    };

    let machine = MachineModel::mi250x();
    let modeled = |streams: &[Vec<Event>]| -> Duration {
        Duration::from_secs_f64(bench::worst_rank_replay(streams, &machine, RANKS).total_s())
    };

    let mut group = c.benchmark_group("ablation_halo_overlap");
    group.sample_size(10);
    group.bench_function("synchronous", |b| {
        b.iter_custom(|_| modeled(&record_world(false)))
    });
    group.bench_function("overlapped", |b| {
        b.iter_custom(|_| modeled(&record_world(true)))
    });
    group.finish();

    // What the model can and cannot say. It prices a window as
    // `max(comm, in-window compute)` and a one-cell row like a streamed
    // one, so it rewards hiding the exchange behind the *whole* interior
    // and never sees what peeling every face costs on a real cache. The
    // production window is sized by the message, on measured wall clock
    // (EXPERIMENTS.md, "Measured — face-aware windowed split"); here it
    // must merely never model slower than the synchronous exchange, and
    // the share of the halo cost it hides is reported, not gated.
    let sync_streams = record_world(false);
    let over_streams = record_world(true);
    let sync_b = bench::worst_rank_replay(&sync_streams, &machine, RANKS);
    let over_b = bench::worst_rank_replay(&over_streams, &machine, RANKS);
    let (sync_s, over_s) = (sync_b.total_s(), over_b.total_s());
    assert!(
        over_s <= sync_s,
        "the split-phase sweep models slower than the synchronous one: \
         synchronous {sync_s:.3e}s vs overlapped {over_s:.3e}s"
    );

    #[derive(serde::Serialize)]
    struct HaloRecord {
        ranks: usize,
        machine: &'static str,
        synchronous: perfmodel::CostBreakdown,
        overlapped: perfmodel::CostBreakdown,
        speedup: f64,
        /// Share of the synchronous arm's halo cost the window covers.
        hidden_share: f64,
    }
    let record = HaloRecord {
        ranks: RANKS,
        machine: "mi250x",
        synchronous: sync_b,
        overlapped: over_b,
        speedup: sync_s / over_s,
        hidden_share: 1.0 - over_b.comm_s / sync_b.comm_s,
    };
    bench::write_bench_json("halo_overlap", &record).expect("write BENCH_halo_overlap.json");
    bench::update_summary("halo_overlap", serde::Serialize::to_value(&record));
}

/// The schedule ablation: the historical "paper" schedule
/// ([`bench::run_reference`] — eleven unfused sweeps, blocking halo
/// exchanges, three blocking reductions per iteration) against the one
/// production schedule (five fused sweeps, split-phase halos, two
/// batched reductions with compute posted under the first), on a full
/// 8-rank Bi-CGSTAB solve recorded live on the Threads back-end.
///
/// Same methodology as [`ablation_halo_overlap`]: the in-process
/// communicator cannot expose allreduce latency in wall time, so the
/// real per-rank event streams — sweep footprints, overlap windows and
/// reduction messages measured, not synthesized — are replayed through
/// the LUMI-G machine model on two grids:
///
/// * **model ranks 8–512** at the recorded 16³ block: the allreduce term
///   grows with `ceil(log2 P)` while the local compute stays fixed, the
///   strong-scaling regime of the paper's Fig. 6, where the 3-to-2
///   message cut and the window pay off (bar: ≥ 1.15× at ≥ 256 ranks);
/// * **local blocks 64³–320³** at 8 ranks (kernel footprints scaled by
///   volume, halos by face area): the bandwidth-bound regime where
///   264 → 200 B/elem of streaming traffic pays off (bar: ≥ 1.25× at
///   ≥ 256³ per rank).
fn ablation_schedule(c: &mut Criterion) {
    use accel::Event;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::Duration;

    const RANKS: usize = 8;
    // nodes = 33 under a 2x2x2 decomp: each rank owns a 16^3 block —
    // the strong-scaling limit where the per-iteration dots rival the
    // kernels.
    const RECORDED_LOCAL: f64 = 16.0;
    const MODEL_RANKS: [usize; 4] = [8, 64, 256, 512];
    const LOCALS: [usize; 4] = [64, 128, 256, 320];

    // One full solve's event stream per rank, live on Threads.
    let record = |run: fn(&bench::RunConfig) -> bench::RunResult| -> (usize, Vec<Vec<Event>>) {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let mut cfg = bench::RunConfig::small(SolverKind::BiCgs);
        cfg.nodes = 33;
        cfg.decomp = [2, 2, 2];
        cfg.device = format!("threads:{workers}");
        cfg.record_events = true;
        cfg.tol = 1e-8;
        let res = run(&cfg);
        assert!(res.outcome.converged, "{:?}", res.outcome);
        (res.outcome.iterations, res.events)
    };
    let (iters_ref, ref_streams) = record(bench::run_reference);
    let (iterations, prod_streams) = record(bench::run_once);
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

    let machine = MachineModel::mi250x();
    // Slowest rank's modeled solve time at `model_ranks`, with the
    // recorded 16^3-per-rank streams scaled to a `local`^3 block.
    let worst = |streams: &[Vec<Event>], model_ranks: usize, local: usize| -> CostBreakdown {
        let r = local as f64 / RECORDED_LOCAL;
        bench::worst_rank_replay_scaled(streams, &machine, model_ranks, r.powi(3), r.powi(2))
    };
    let grid: Vec<(usize, usize)> = MODEL_RANKS
        .iter()
        .map(|&p| (p, RECORDED_LOCAL as usize))
        .chain(LOCALS.iter().map(|&n| (RANKS, n)))
        .collect();

    let mut group = c.benchmark_group("ablation_schedule");
    group.sample_size(10);
    for &(p, n) in &grid {
        let id = format!("{p}ranks_{n}cubed");
        for (arm, streams) in [("reference", &ref_streams), ("production", &prod_streams)] {
            group.bench_with_input(BenchmarkId::new(arm, &id), &(p, n), |b, &(p, n)| {
                b.iter_custom(|_| Duration::from_secs_f64(worst(streams, p, n).total_s()))
            });
        }
    }
    group.finish();

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
        .iter()
        .map(|&(p, n)| {
            let reference = worst(&ref_streams, p, n);
            let production = worst(&prod_streams, p, n);
            let model_speedup = reference.total_s() / production.total_s();
            // The two headline claims, unchanged from the single-factor
            // ablations this one replaces.
            if p >= 256 {
                assert!(
                    model_speedup >= 1.15,
                    "production schedule below the 1.15x bar at {p} model ranks: \
                     {model_speedup:.3}"
                );
            }
            if n >= 256 {
                assert!(
                    model_speedup >= 1.25,
                    "production schedule below the 1.25x bar at {n}^3/rank: {model_speedup:.3}"
                );
            }
            Row {
                model_ranks: p,
                local_nodes: n,
                reference_iter_s: reference.total_s() / iterations as f64,
                production_iter_s: production.total_s() / iterations as f64,
                reference,
                production,
                model_speedup,
            }
        })
        .collect();
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

    // Refresh the committed stable-schema summary artifact at the
    // repository root, so the headline figures travel with the tree.
    bench::update_summary("schedule", serde::Serialize::to_value(&record));
}

/// Batched multi-RHS solves: B independent single-lane solves vs one
/// B-lane batched solve, on the real 8-rank Threads world.
///
/// The batched driver runs every lane through the same iteration
/// schedule — one lane-strided kernel launch per sweep instead of B, one
/// B-face halo message per neighbour instead of B, and one B-wide
/// allreduce per reduction point instead of B — so all the
/// per-launch and per-message fixed costs amortize across lanes while
/// the streamed bytes stay proportional to B. Wall time is measured
/// live (criterion re-runs the world per sample); the headline claim is
/// modeled, same methodology as [`ablation_schedule`]: replay the
/// recorded per-rank event streams through the MI250X node model in the
/// strong-scaling regime (16³ per rank) where those fixed costs
/// dominate, and require the B=4 batched aggregate throughput to model
/// at >= 1.5x four back-to-back solo solves.
fn ablation_batched_rhs(c: &mut Criterion) {
    use accel::{Event, Threads};
    use comm::run_ranks_recorded;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::{Duration, Instant};

    const RANKS: usize = 8;
    const WIDTHS: [usize; 4] = [1, 2, 4, 8];

    struct WorldRun {
        /// Per-lane outer iteration counts (identical on all ranks).
        iters: Vec<usize>,
        /// Slowest rank's wall seconds over the measured solves.
        wall_s: f64,
        /// Rank-0 allreduce messages over the measured solves.
        allreduces: u64,
        /// Per-rank event streams (empty unless recording).
        streams: Vec<Vec<Event>>,
    }

    // One 8-rank Threads world solving `nb` right-hand sides, either as
    // nb sequential single-lane solves or as one nb-lane batched solve.
    // A warm-up lane fills the buffer pools and message queues first and
    // its events/counters are discarded.
    let run_world = |nb: usize, batched: bool, record: bool| -> WorldRun {
        let decomp = Decomp::new([2, 2, 2]);
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let recorders: Vec<Recorder> = (0..RANKS)
            .map(|_| {
                if record {
                    Recorder::enabled()
                } else {
                    Recorder::disabled()
                }
            })
            .collect();
        let handles = recorders.clone();
        let per_rank = run_ranks_recorded::<f64, _, _>(
            RANKS,
            ReduceOrder::RankOrder,
            recorders,
            move |comm| {
                let rec = comm.recorder().clone();
                let dev = Threads::new(workers, rec.clone());
                // nodes = 33 under 2x2x2: 16^3 per rank, the
                // strong-scaling limit regime of the paper's Fig. 6.
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

    // One recorded run per (width, arm) for the model replay; the wall
    // arms below re-run the world unrecorded on every criterion sample.
    let recorded: Vec<(usize, WorldRun, WorldRun)> = WIDTHS
        .iter()
        .map(|&nb| (nb, run_world(nb, false, true), run_world(nb, true, true)))
        .collect();

    let mut group = c.benchmark_group("ablation_batched_rhs");
    group.sample_size(10);
    for &nb in &WIDTHS {
        group.bench_with_input(BenchmarkId::new("solo_wall", nb), &nb, |b, &nb| {
            b.iter_custom(|_| Duration::from_secs_f64(run_world(nb, false, false).wall_s))
        });
        group.bench_with_input(BenchmarkId::new("batched_wall", nb), &nb, |b, &nb| {
            b.iter_custom(|_| Duration::from_secs_f64(run_world(nb, true, false).wall_s))
        });
        let (_, solo, batched) = recorded
            .iter()
            .find(|(w, _, _)| *w == nb)
            .expect("recorded");
        let (solo_s, batched_s) = (
            worst(&solo.streams).total_s(),
            worst(&batched.streams).total_s(),
        );
        group.bench_with_input(BenchmarkId::new("solo_model", nb), &solo_s, |b, &s| {
            b.iter_custom(|_| Duration::from_secs_f64(s))
        });
        group.bench_with_input(
            BenchmarkId::new("batched_model", nb),
            &batched_s,
            |b, &s| b.iter_custom(|_| Duration::from_secs_f64(s)),
        );
    }
    group.finish();

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
    let rows: Vec<Row> = recorded
        .iter()
        .map(|(nb, solo, batched)| {
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
            if *nb >= 2 {
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
            // Same nb solves completed in both arms, so the aggregate
            // throughput ratio is the modeled time ratio.
            let model_throughput_x = s.total_s() / b.total_s();
            if *nb == 4 {
                assert!(
                    model_throughput_x >= 1.5,
                    "batched multi-RHS below the 1.5x bar at B=4: {model_throughput_x:.3}"
                );
            }
            Row {
                lanes: *nb,
                iterations: solo.iters.clone(),
                wall_solo_s: solo.wall_s,
                wall_batched_s: batched.wall_s,
                wall_speedup: solo.wall_s / batched.wall_s,
                allreduce_messages_solo: solo.allreduces,
                allreduce_messages_batched: batched.allreduces,
                solo: s,
                batched: b,
                model_throughput_x,
            }
        })
        .collect();

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
        local_nodes: 16,
        rows,
    };
    bench::write_bench_json("batched_rhs", &record).expect("write BENCH_batched_rhs.json");
    bench::update_summary("batched_rhs", serde::Serialize::to_value(&record));
}

/// Mixed-precision Chebyshev preconditioning: f32 inner sweeps, state
/// and halo wire words under the f64 outer recurrence, vs the all-f64
/// baseline, on real 8-rank Threads `G(CI)` solves.
///
/// Same methodology as [`ablation_schedule`]: record the
/// 16³-per-rank event streams live — the halved kernel footprints of
/// the f32 sweeps and the half-width wire words of the f32 halo band
/// are measured, not synthesized — scale them to production-size local
/// blocks and replay through the MI250X node model, reporting the
/// slowest rank. The convergence side of the trade rides on the same
/// runs: the outer iteration count must stay within ±2 of the all-f64
/// baseline (the guard the poisson test suite also pins per back-end).
fn ablation_mixed_precision(c: &mut Criterion) {
    use accel::Event;
    use perfmodel::{CostBreakdown, MachineModel};
    use std::time::Duration;

    const RANKS: usize = 8;
    // nodes = 33 under a 2x2x2 decomp: each rank owns a 16^3 block.
    const RECORDED_LOCAL: f64 = 16.0;
    const LOCALS: [usize; 4] = [64, 128, 256, 320];

    let record = |mixed: bool| -> (usize, Vec<Vec<Event>>) {
        let workers = std::thread::available_parallelism()
            .map_or(1, |p| p.get() / RANKS)
            .max(1);
        let mut cfg = bench::RunConfig::small(SolverKind::BiCgsGCi);
        cfg.nodes = 33;
        cfg.decomp = [2, 2, 2];
        cfg.device = format!("threads:{workers}");
        cfg.record_events = true;
        cfg.tol = 1e-8;
        cfg.opts.mixed_precision = mixed;
        let res = bench::run_once(&cfg);
        assert!(res.outcome.converged, "{:?}", res.outcome);
        (res.outcome.iterations, res.events)
    };

    let (iters_f64, f64_streams) = record(false);
    let (iters_mixed, mixed_streams) = record(true);
    let drift = (iters_mixed as i64 - iters_f64 as i64).abs();
    assert!(
        drift <= 2,
        "mixed precision drifted {drift} outer iterations \
         ({iters_mixed} mixed vs {iters_f64} f64)"
    );

    let machine = MachineModel::mi250x();
    let worst = |streams: &[Vec<Event>], local: usize| -> CostBreakdown {
        let r = local as f64 / RECORDED_LOCAL;
        bench::worst_rank_replay_scaled(streams, &machine, RANKS, r.powi(3), r.powi(2))
    };

    let mut group = c.benchmark_group("ablation_mixed_precision");
    group.sample_size(10);
    for local in LOCALS {
        group.bench_with_input(BenchmarkId::new("f64", local), &local, |b, &n| {
            b.iter_custom(|_| Duration::from_secs_f64(worst(&f64_streams, n).total_s()))
        });
        group.bench_with_input(BenchmarkId::new("mixed", local), &local, |b, &n| {
            b.iter_custom(|_| Duration::from_secs_f64(worst(&mixed_streams, n).total_s()))
        });
    }
    group.finish();

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
            let base = worst(&f64_streams, n);
            let mix = worst(&mixed_streams, n);
            let f64_iter_s = base.total_s() / iters_f64 as f64;
            let mixed_iter_s = mix.total_s() / iters_mixed as f64;
            let per_iteration_speedup = f64_iter_s / mixed_iter_s;
            // The headline claim: once the local block is bandwidth
            // bound, halving the preconditioner's streamed bytes must
            // model >= 1.2x faster per outer iteration.
            if n >= 256 {
                assert!(
                    per_iteration_speedup >= 1.2,
                    "mixed precision below the 1.2x bar at {n}^3/rank: \
                     {per_iteration_speedup:.3}"
                );
            }
            Row {
                local_nodes: n,
                f64_iter_s,
                mixed_iter_s,
                per_iteration_speedup,
                f64_total: base,
                mixed_total: mix,
            }
        })
        .collect();
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

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(300));
    targets = ablation_comm, ablation_ci_iters, ablation_rescale, ablation_fusion, ablation_reduction, ablation_polynomial, ablation_overlap, ablation_halo_overlap, ablation_schedule, ablation_batched_rhs, ablation_mixed_precision
);
criterion_main!(benches);

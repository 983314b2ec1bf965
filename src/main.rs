//! `poisson-bicgstab-repro` — CLI driver for the reproduced solver.
//!
//! Runs the paper's test problem (Sec. IV) at any mesh size, rank count,
//! solver configuration and back-end, and optionally reports the modeled
//! cross-architecture times, a one-iteration trace (Fig. 8 style) and a
//! roofline table.
//!
//! ```text
//! cargo run --release -- --nodes 64 --ranks 2x2x2 --solver gnocomm-ci \
//!     --device mi250x --machines --trace --roofline
//! ```

use bench::{first_iteration_profile, run_once, Args, RunConfig};
use comm::ReduceOrder;
use krylov::SolverKind;
use perfmodel::{build_timeline, render_roofline, render_timeline, replay, roofline, MachineModel};

/// Every `--option` the solver front-end understands (the usage text
/// below documents each); anything else is rejected, not ignored.
const OPTIONS: &[&str] = &[
    "nodes",
    "ranks",
    "solver",
    "device",
    "tol",
    "max-iters",
    "ci-iters",
    "min-factor",
    "arrival",
    "true-res",
    "restarts",
    "history",
    "machines",
    "trace",
    "roofline",
    "help",
];

fn usage() -> ! {
    eprintln!(
        "poisson-bicgstab-repro: preconditioned Bi-CGSTAB Poisson solver

USAGE: poisson-bicgstab-repro [OPTIONS]
       poisson-bicgstab-repro serve-demo   (multi-tenant solve-service demo)
  --nodes N        mesh nodes per axis                       [48]
  --ranks AxBxC    process-grid decomposition                [1x1x1]
  --solver NAME    bicgs | g-bicgs | bj-bicgs | bj-ci | g-ci | gnocomm-ci
                                                             [gnocomm-ci]
  --device SPEC    serial | threads[:N] | mi250x | h100 | simgpu[:B]
                                                             [serial]
  --tol X          relative residual tolerance               [1e-10]
  --max-iters N    outer iteration cap                       [50000]
  --ci-iters N     Chebyshev sweeps per application          [24]
  --min-factor X   lambda_min rescaling (Bergamaschi)        [10]
  --arrival        arrival-order (nondeterministic) reductions
  --true-res K     recompute the true residual every K iterations
  --restarts N     shadow-residual restarts on breakdown     [0]
  --history        print the residual history
  --machines       print modeled TTS on every machine model
  --trace          print a one-iteration timeline (MI250X model)
  --roofline       print the per-kernel roofline table (MI250X model)
  --help           this text"
    );
    std::process::exit(2)
}

/// `serve-demo`: exercise `crates/serve` end to end — warm-session
/// reuse, priorities, a multi-rank tenant and a quarantined poison
/// tenant — and print the service counters.
fn serve_demo() -> ! {
    use poisson::{paper_problem, unit_cube_dirichlet};
    use serve::{JobHandle, JobResult, Priority, ServiceConfig, SolveRequest, SolveService};

    // The poison tenant panics by design; keep its backtrace quiet.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let expected = info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|s| s.contains("demo poison tenant"));
        if !expected {
            default_hook(info);
        }
    }));

    let svc = SolveService::start(ServiceConfig {
        workers: 2,
        queue_capacity: 16,
        session_capacity: 8,
        ..ServiceConfig::default()
    });
    println!("serve-demo: 2 workers, queue capacity 16, warm-session cache 8\n");

    let submit = |req: SolveRequest| -> JobHandle { svc.submit(req).expect("queue has room") };
    let report = |name: &str, handle: &JobHandle| match handle.wait() {
        JobResult::Done(out) => println!(
            "  {name:<28} done: {} in {} iters ({}, setup {:.1} ms, solve {:.1} ms)",
            if out.outcome.converged {
                "converged"
            } else {
                "stopped"
            },
            out.outcome.iterations,
            if out.metrics.warm {
                "warm session"
            } else {
                "cold build"
            },
            out.metrics.setup.as_secs_f64() * 1e3,
            out.metrics.solve.as_secs_f64() * 1e3,
        ),
        JobResult::Failed(e) => println!("  {name:<28} failed: {e}"),
        JobResult::Shed => println!("  {name:<28} shed before starting"),
        JobResult::Cancelled => println!("  {name:<28} cancelled"),
    };

    // Two tenants with different discretisations (both cold).
    let paper = paper_problem(21);
    let mut a = SolveRequest::new(paper.clone(), SolverKind::BiCgsGNoCommCi);
    a.tol = 1e-8;
    a.priority = Priority::High;
    let mut b = SolveRequest::new(unit_cube_dirichlet(17), SolverKind::BiCgs);
    b.tol = 1e-8;
    let (a, b) = (submit(a), submit(b));
    report("tenant A (paper, high)", &a);
    report("tenant B (unit cube)", &b);

    // Tenant A again: same discretisation and config, so the cached
    // session is reused and setup is skipped.
    let mut a2 = SolveRequest::new(paper, SolverKind::BiCgsGNoCommCi);
    a2.tol = 1e-8;
    let a2 = submit(a2);
    report("tenant A repeat (warm)", &a2);

    // A 4-rank tenant: the service spawns a ranks-as-threads world.
    let mut multi = SolveRequest::new(unit_cube_dirichlet(15), SolverKind::BiCgsGNoCommCi);
    multi.tol = 1e-8;
    multi.decomp = [2, 2, 1];
    let multi = submit(multi);
    report("tenant C (2x2x1 ranks)", &multi);

    // A poison tenant: its RHS closure panics mid-assembly. The panic
    // is caught, the half-built session quarantined, and the service
    // keeps serving.
    let mut bad = unit_cube_dirichlet(9);
    bad.rhs = std::sync::Arc::new(|_, _, _| panic!("demo poison tenant"));
    bad.exact = None;
    let poison = submit(SolveRequest::new(bad, SolverKind::BiCgs));
    report("poison tenant", &poison);

    let mut after = SolveRequest::new(unit_cube_dirichlet(9), SolverKind::BiCgs);
    after.tol = 1e-8;
    let after = submit(after);
    report("tenant D (after poison)", &after);

    let stats = svc.shutdown();
    println!(
        "\nservice stats: {} submitted, {} completed, {} failed \
         ({} panicked, {} sessions quarantined), {} warm hits / {} cold builds",
        stats.submitted,
        stats.completed,
        stats.failed,
        stats.panicked,
        stats.quarantined,
        stats.warm_hits,
        stats.cold_builds
    );
    std::process::exit(if stats.completed == 5 { 0 } else { 1 })
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some("serve-demo") {
        serve_demo();
    }
    let args = Args::parse();
    if args.flag("help") {
        usage();
    }
    if let Some(arg) = args.unrecognized(OPTIONS) {
        eprintln!("unrecognized argument {arg:?}\n");
        usage();
    }
    let solver: SolverKind = args
        .get_str("solver", "gnocomm-ci")
        .parse()
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            usage()
        });
    let mut cfg = RunConfig::small(solver);
    cfg.nodes = args.get("nodes", 48);
    cfg.decomp = args.try_decomp("ranks", [1, 1, 1]).unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    cfg.device = args.get_str("device", "serial");
    cfg.tol = args.get("tol", 1e-10);
    cfg.max_iters = args.get("max-iters", 50_000);
    cfg.opts.ci_iterations = args.get("ci-iters", 24);
    cfg.opts.eig_min_factor = args.get("min-factor", 10.0);
    cfg.order = if args.flag("arrival") {
        ReduceOrder::Arrival
    } else {
        ReduceOrder::RankOrder
    };
    cfg.params_extra.true_residual_every = args.get("true-res", 0);
    cfg.params_extra.max_restarts = args.get("restarts", 0);
    let need_events = args.flag("machines") || args.flag("trace") || args.flag("roofline");
    cfg.record_events = need_events;

    // Reject a bad spec here with a usage hint rather than panicking
    // inside a rank thread mid-run.
    if let Err(e) = accel::AnyDevice::from_spec(&cfg.device, accel::Recorder::disabled()) {
        eprintln!("{e}");
        usage();
    }

    let ranks = cfg.ranks();
    println!(
        "solving: {} mesh {}^3, ranks {:?} ({} total), device {}, tol {:.1e}",
        solver.label(),
        cfg.nodes,
        cfg.decomp,
        ranks,
        cfg.device,
        cfg.tol
    );

    let res = run_once(&cfg);
    let out = &res.outcome;
    println!(
        "\nresult: {} in {} outer iterations ({} prec sweeps, {:.1}/outer), residual {:.3e}",
        if out.converged { "converged" } else { "FAILED" },
        out.iterations,
        out.prec_iterations,
        out.prec_per_outer(),
        out.final_residual
    );
    if let Some(b) = out.breakdown {
        println!("breakdown: {b:?} after {} restarts", out.restarts);
    }
    println!(
        "accuracy: relative L2 error vs the manufactured solution {:.3e}",
        res.l2_error
    );
    println!(
        "this box: {:.3} s wall; rank 0 sent {} msgs / {} bytes, {} allreduces",
        res.wall_s, res.comm_stats.msgs_sent, res.comm_stats.bytes_sent, res.comm_stats.allreduces
    );
    if !out.true_residuals.is_empty() {
        println!("\ntrue-residual samples:");
        for (i, t) in &out.true_residuals {
            println!("  iter {i:>6}  |b - A x| = {t:.6e}");
        }
    }
    if args.flag("history") {
        println!("\nresidual history:");
        for (i, r) in out.residual_history.iter().enumerate() {
            println!("  iter {i:>6}  residual {r:.6e}");
        }
    }

    if args.flag("machines") {
        println!("\nmodeled time to solution (measured event stream replayed):");
        for m in [
            MachineModel::lumi_c_rank(),
            MachineModel::lumi_c_node(),
            MachineModel::mi250x(),
            MachineModel::h100_gpudirect(),
            MachineModel::h100_mn5(),
        ] {
            let c = replay(&res.events[0], &m, ranks);
            println!(
                "  {:<40} compute {:>9.4} s  comm {:>9.4} s  total {:>9.4} s",
                m.name,
                c.compute_s,
                c.comm_s,
                c.total_s()
            );
        }
    }
    if args.flag("trace") {
        let m = MachineModel::mi250x();
        let profile = first_iteration_profile(&res.events[0]);
        let spans = build_timeline(&profile, &m, ranks);
        println!("\none-iteration trace on the {} model:", m.name);
        println!("{}", render_timeline(&spans, 72));
    }
    if args.flag("roofline") {
        let m = MachineModel::mi250x();
        let pts = roofline(&res.events[0], &m);
        println!("\n{}", render_roofline(&pts, &m));
    }
    if !out.converged {
        std::process::exit(1);
    }
}

//! Integration: the paper's qualitative findings, asserted.
//!
//! Each test pins one claim from the paper's evaluation that must hold at
//! any problem scale (the quantitative tables are regenerated by the
//! `bench` harness binaries; these are the scale-free invariants).

use accel::{Recorder, Serial};
use blockgrid::{Decomp, Field};
use comm::{run_ranks, Communicator, ReduceOrder, SelfComm, ThreadComm};
use krylov::{
    bicgstab_solve, global_bounds, ChebyMode, ChebyPrecond, Preconditioner, RankCtx, Scope,
    SolveOutcome, SolveParams, SolverKind, SolverOptions, Workspace,
};
use poisson::{paper_problem, PoissonSolver};

fn run_kind(nodes: usize, kind: SolverKind, min_factor: f64) -> SolveOutcome {
    let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
        paper_problem(nodes),
        Decomp::single(),
        Serial::new(Recorder::disabled()),
        SelfComm::default(),
    );
    let out = solver.solve(
        kind,
        &SolverOptions {
            eig_min_factor: min_factor,
            ..Default::default()
        },
        &SolveParams {
            tol: 1e-10,
            max_iters: 50_000,
            record_history: true,
            ..Default::default()
        },
    );
    assert!(out.converged, "{kind}: {out:?}");
    out
}

#[test]
fn preconditioners_cut_outer_iterations() {
    // Observation I: every preconditioner reduces the outer iterations.
    let plain = run_kind(21, SolverKind::BiCgs, 10.0).iterations;
    for kind in SolverKind::all().into_iter().skip(1) {
        let its = run_kind(21, kind, 10.0).iterations;
        assert!(its < plain, "{kind}: {its} !< plain {plain}");
    }
}

#[test]
fn global_preconditioner_needs_fewest_outer_iterations() {
    // Table II: G(BiCGS) ~15, G(CI) ~50, the block/no-comm variants more.
    let g_bicgs = run_kind(21, SolverKind::FBiCgsGBiCgs, 10.0).iterations;
    let g_ci = run_kind(21, SolverKind::BiCgsGCi, 10.0).iterations;
    let gnocomm = run_kind(21, SolverKind::BiCgsGNoCommCi, 10.0).iterations;
    assert!(g_bicgs <= g_ci, "G(BiCGS) {g_bicgs} vs G(CI) {g_ci}");
    assert!(g_ci <= gnocomm, "G(CI) {g_ci} vs GNoComm {gnocomm}");
}

#[test]
fn ci_preconditioners_apply_exactly_48_sweeps_per_outer() {
    // Table II: "Preconditioner it. / outer it." = 48 (24 sweeps x 2
    // applications) for every CI-based solver.
    for kind in [
        SolverKind::BiCgsBjCi,
        SolverKind::BiCgsGCi,
        SolverKind::BiCgsGNoCommCi,
    ] {
        let out = run_kind(17, kind, 10.0);
        assert_eq!(out.prec_per_outer(), 48.0, "{kind}");
    }
}

#[test]
fn gnocomm_equals_block_jacobi_with_global_spectrum() {
    // Sec. III-A: "GNoComm(CI) is equivalent to the BJ(CI) preconditioner
    // in which the parameters are computed with the eigenvalues of the
    // global matrix". Assert bitwise equality of one application.
    run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
        let problem = paper_problem(17);
        let grid =
            blockgrid::BlockGrid::new(problem.discretize(), Decomp::new([2, 2, 1]), comm.rank());
        let ctx: RankCtx<f64, _, ThreadComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), comm, grid);
        let bounds = global_bounds(&ctx).rescaled(1e-4, 10.0);
        let mut gnocomm = ChebyPrecond::<f64>::new(&ctx, ChebyMode::GlobalNoComm, bounds, 24);
        let mut bj_global = ChebyPrecond::<f64>::new(&ctx, ChebyMode::BlockJacobi, bounds, 24);
        let rhs_host: Vec<f64> = (0..ctx.grid.local_n.iter().product::<usize>())
            .map(|i| ((i * 37 + ctx.grid.rank) % 101) as f64 / 101.0 - 0.5)
            .collect();
        let mut rhs1 = Field::from_interior(&ctx.dev, &ctx.grid, &rhs_host);
        let mut rhs2 = Field::from_interior(&ctx.dev, &ctx.grid, &rhs_host);
        let mut out1 = ctx.field();
        let mut out2 = ctx.field();
        gnocomm.apply(&ctx, &mut rhs1, &mut out1);
        bj_global.apply(&ctx, &mut rhs2, &mut out2);
        assert_eq!(
            out1.interior_to_host(&ctx.grid),
            out2.interior_to_host(&ctx.grid),
            "rank {}",
            ctx.grid.rank
        );
    });
}

#[test]
fn eigenvalue_rescaling_accelerates_convergence() {
    // Sec. IV cites Bergamaschi et al.: rescaled bounds reduce the outer
    // iteration count versus raw bounds.
    let rescaled = run_kind(21, SolverKind::BiCgsGNoCommCi, 10.0).iterations;
    let raw = run_kind(21, SolverKind::BiCgsGNoCommCi, 1.0).iterations;
    assert!(
        rescaled <= raw,
        "rescaling must not slow convergence: {rescaled} vs {raw}"
    );
}

#[test]
fn deterministic_reductions_give_bitwise_repeatable_solves() {
    let run = || {
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
                paper_problem(17),
                Decomp::new([2, 2, 2]),
                Serial::new(Recorder::disabled()),
                comm,
            );
            let out = solver.solve(
                SolverKind::BiCgsGNoCommCi,
                &SolverOptions {
                    eig_min_factor: 10.0,
                    ..Default::default()
                },
                &SolveParams {
                    tol: 1e-10,
                    max_iters: 20_000,
                    record_history: true,
                    ..Default::default()
                },
            );
            out.residual_history
        })
    };
    let a = run();
    let b = run();
    for (ra, rb) in a[0].iter().zip(&b[0]) {
        assert_eq!(
            ra.to_bits(),
            rb.to_bits(),
            "histories must be bitwise equal"
        );
    }
}

#[test]
fn inner_solver_tolerances_trade_outer_for_inner_iterations() {
    // Looser inner tolerance => more outer iterations, fewer inner sweeps
    // per application (the G(BiCGS) vs BJ(BiCGS) trade of Table II).
    let ctx: RankCtx<f64, _, SelfComm<f64>> = {
        let problem = paper_problem(17);
        let grid = blockgrid::BlockGrid::new(problem.discretize(), Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    };
    let problem = paper_problem(17);
    let b_host = poisson::assemble::local_rhs(&problem, &ctx.grid);
    let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
    let b_scaled: Vec<f64> = b_host.iter().map(|v| v / bnorm).collect();
    let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_scaled);

    let solve_with_tol = |tol: f64| -> SolveOutcome {
        let mut prec = krylov::InnerBiCgsPrec::new(&ctx, Scope::Global, tol, 500);
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let mut x = ctx.field();
        bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut prec,
            &mut ws,
            &SolveParams {
                tol: 1e-10,
                max_iters: 10_000,
                record_history: false,
                ..Default::default()
            },
        )
    };
    let loose = solve_with_tol(1e-1);
    let tight = solve_with_tol(1e-6);
    assert!(loose.converged && tight.converged);
    assert!(
        tight.iterations <= loose.iterations,
        "tighter inner solves need fewer outer iterations: {} vs {}",
        tight.iterations,
        loose.iterations
    );
    assert!(
        tight.prec_per_outer() > loose.prec_per_outer(),
        "tighter inner solves cost more sweeps per outer iteration"
    );
}

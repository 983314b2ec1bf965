//! The real solver under full checking: every launch sanitized, every
//! message verified — and zero false positives.

use accel::{Device, Recorder, Serial, Threads};
use blockgrid::Decomp;
use check::{try_run_ranks_checked, CheckConfig, Checked};
use comm::SelfComm;
use krylov::{SolveOutcome, SolveParams, SolverKind, SolverOptions};
use poisson::{paper_problem, PoissonSolver};

fn solve_params() -> SolveParams {
    SolveParams {
        tol: 1e-12,
        max_iters: 20_000,
        record_history: false,
        ..Default::default()
    }
}

fn solver_opts() -> SolverOptions {
    SolverOptions {
        eig_min_factor: 10.0,
        ..Default::default()
    }
}

fn solve_single<D: Device>(dev: D, nodes: usize) -> (SolveOutcome, Vec<f64>) {
    let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
        paper_problem(nodes),
        Decomp::single(),
        dev,
        SelfComm::default(),
    );
    let out = solver.solve(SolverKind::BiCgsGNoCommCi, &solver_opts(), &solve_params());
    let sol = solver.solution_local();
    (out, sol)
}

/// The sanitizer must not perturb the solve at all: same iteration
/// count, bitwise-identical solution.
#[test]
fn checked_solve_is_bitwise_identical_to_plain() {
    let (plain_out, plain_sol) = solve_single(Serial::new(Recorder::disabled()), 13);
    let (checked_out, checked_sol) =
        solve_single(Checked::new(Serial::new(Recorder::disabled())), 13);
    assert!(plain_out.converged && checked_out.converged);
    assert_eq!(plain_out.iterations, checked_out.iterations);
    assert_eq!(plain_sol.len(), checked_sol.len());
    for (a, b) in plain_sol.iter().zip(&checked_sol) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Distributed solve with sanitized devices and verified communicators:
/// the halo exchanges, boundary kernels and collectives of the real
/// solver must produce no diagnostics (zero false positives) and still
/// converge to the manufactured solution. With `G(CI)` every Chebyshev
/// sweep runs after a blocking three-face exchange of its input.
#[test]
fn distributed_solve_runs_clean_under_full_checking() {
    let decomp = Decomp::new([2, 2, 2]);
    for kind in [SolverKind::BiCgsGNoCommCi, SolverKind::BiCgsGCi] {
        let results = try_run_ranks_checked::<f64, _, _>(8, CheckConfig::default(), move |comm| {
            let dev = Checked::new(Serial::new(Recorder::disabled()));
            let mut solver: PoissonSolver<f64, _, _> =
                PoissonSolver::new(paper_problem(13), decomp, dev, comm);
            let out = solver.solve(kind, &solver_opts(), &solve_params());
            let (l2, _) = solver.error_vs_exact();
            (out.converged, out.iterations, l2)
        })
        .unwrap_or_else(|failure| panic!("{kind:?}: false positives under checking:\n{failure}"));
        for (converged, _iters, l2) in &results {
            assert!(converged, "{kind:?}");
            assert!(*l2 < 1e-3, "{kind:?}: relative L2 error {l2}");
        }
    }
}

/// The batched multi-RHS path under full checking across 8 ranks: the
/// lane-strided fused kernels, per-face batched halo packing and the
/// chunked B-wide reductions must produce zero diagnostics, with a
/// communicating preconditioner in the loop.
#[test]
fn eight_rank_batched_solve_runs_clean_under_full_checking() {
    let decomp = Decomp::new([2, 2, 2]);
    let results = try_run_ranks_checked::<f64, _, _>(8, CheckConfig::default(), move |comm| {
        let dev = Checked::new(Serial::new(Recorder::disabled()));
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(13), decomp, dev, comm);
        let n: usize = solver.grid().local_n.iter().product();
        let rhs: Vec<Vec<f64>> = (0..3)
            .map(|lane| {
                (0..n)
                    .map(|i| 1.0 + (((i + 7 * lane) as f64) * 0.29).sin())
                    .collect()
            })
            .collect();
        let rhs_refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let lanes = solver.solve_batch(
            &rhs_refs,
            SolverKind::BiCgsGCi,
            &solver_opts(),
            &solve_params(),
            &[],
        );
        lanes
            .into_iter()
            .map(|lane| lane.expect("all lanes are valid").outcome.converged)
            .collect::<Vec<_>>()
    })
    .unwrap_or_else(|failure| panic!("false positives under checking:\n{failure}"));
    for lanes in &results {
        assert!(
            lanes.iter().all(|&converged| converged),
            "every batched lane must converge under checking: {lanes:?}"
        );
    }
}

/// The mixed-precision Chebyshev path under full checking across 8
/// ranks: the f32 state sweeps, the cast kernels at the precision
/// boundary and the half-width wire words of the f32 halo band must
/// produce zero diagnostics with the communicating `G(CI/f32)`
/// preconditioner in the loop.
#[test]
fn eight_rank_mixed_precision_solve_runs_clean_under_full_checking() {
    let decomp = Decomp::new([2, 2, 2]);
    let results = try_run_ranks_checked::<f64, _, _>(8, CheckConfig::default(), move |comm| {
        let dev = Checked::new(Serial::new(Recorder::disabled()));
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(13), decomp, dev, comm);
        let opts = SolverOptions {
            mixed_precision: true,
            ..solver_opts()
        };
        let out = solver.solve(SolverKind::BiCgsGCi, &opts, &solve_params());
        let (l2, _) = solver.error_vs_exact();
        (out.converged, out.iterations, l2)
    })
    .unwrap_or_else(|failure| panic!("false positives under checking:\n{failure}"));
    for (converged, _iters, l2) in &results {
        assert!(converged);
        assert!(*l2 < 1e-3, "relative L2 error {l2}");
    }
}

/// Same checked world on the threaded back-end, with the plain solver's
/// preconditioned configuration — back-end independence of the checkers.
#[test]
fn threaded_checked_solve_matches_unchecked_iterations() {
    let decomp = Decomp::new([2, 1, 1]);
    let run = |checked: bool| {
        let d = decomp;
        try_run_ranks_checked::<f64, _, _>(2, CheckConfig::default(), move |comm| {
            let out = if checked {
                let dev = Checked::new(Threads::new(2, Recorder::disabled()));
                let mut solver: PoissonSolver<f64, _, _> =
                    PoissonSolver::new(paper_problem(11), d, dev, comm);
                solver.solve(SolverKind::BiCgsGNoCommCi, &solver_opts(), &solve_params())
            } else {
                let dev = Threads::new(2, Recorder::disabled());
                let mut solver: PoissonSolver<f64, _, _> =
                    PoissonSolver::new(paper_problem(11), d, dev, comm);
                solver.solve(SolverKind::BiCgsGNoCommCi, &solver_opts(), &solve_params())
            };
            (out.converged, out.iterations)
        })
        .expect("clean run")
    };
    let plain = run(false);
    let checked = run(true);
    assert_eq!(plain, checked);
}

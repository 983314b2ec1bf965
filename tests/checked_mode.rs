//! Integration: the correctness tooling guards the real pipeline.
//!
//! The whole distributed solve — decomposition, split-phase halo
//! exchange, fused kernels, preconditioned Bi-CGSTAB — runs under the
//! kernel sanitizer ([`check::Checked`]) and the comm-protocol verifier
//! ([`check::VerifiedComm`]) and must produce zero diagnostics while
//! converging exactly as the unchecked pipeline does.

use accel::{AnyDevice, Recorder, Serial};
use blockgrid::Decomp;
use check::{try_run_ranks_checked, CheckConfig, Checked};
use comm::SelfComm;
use krylov::{SolveParams, SolverKind, SolverOptions};
use poisson::{paper_problem, PoissonSolver};

fn opts() -> SolverOptions {
    SolverOptions {
        eig_min_factor: 10.0,
        ..Default::default()
    }
}

fn params() -> SolveParams {
    SolveParams {
        tol: 1e-12,
        max_iters: 30_000,
        record_history: false,
        ..Default::default()
    }
}

/// Every back-end spec the cross-backend suite exercises also solves
/// cleanly when wrapped in the sanitizer — and bitwise-identically.
#[test]
fn all_backends_solve_identically_under_the_sanitizer() {
    for spec in ["serial", "threads:3", "mi250x"] {
        let (plain_iters, plain_sol) = solve_spec(spec, false);
        let (checked_iters, checked_sol) = solve_spec(spec, true);
        assert_eq!(plain_iters, checked_iters, "{spec}");
        for (a, b) in plain_sol.iter().zip(&checked_sol) {
            assert_eq!(a.to_bits(), b.to_bits(), "{spec}");
        }
    }
}

fn solve_spec(spec: &str, checked: bool) -> (usize, Vec<f64>) {
    let dev = AnyDevice::from_spec(spec, Recorder::disabled()).unwrap();
    if checked {
        solve_with(Checked::new(dev))
    } else {
        solve_with(dev)
    }
}

fn solve_with<D: accel::Device>(dev: D) -> (usize, Vec<f64>) {
    let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
        paper_problem(13),
        Decomp::single(),
        dev,
        SelfComm::default(),
    );
    let out = solver.solve(SolverKind::BiCgsGNoCommCi, &opts(), &params());
    assert!(out.converged, "{out:?}");
    (out.iterations, solver.solution_local())
}

/// The paper's distributed configuration under full checking: sanitized
/// devices and verified communicators on a 2x2x1 decomposition, with the
/// deadlock detector and teardown audit armed. Zero false positives.
#[test]
fn distributed_paper_solve_is_clean_under_full_checking() {
    let decomp = Decomp::new([2, 2, 1]);
    let results = try_run_ranks_checked::<f64, _, _>(4, CheckConfig::default(), move |comm| {
        let dev = Checked::new(Serial::new(Recorder::disabled()));
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(13), decomp, dev, comm);
        let out = solver.solve(SolverKind::BiCgsGNoCommCi, &opts(), &params());
        let (l2, _) = solver.error_vs_exact();
        (out.converged, l2)
    })
    .unwrap_or_else(|failure| panic!("false positives in checked mode:\n{failure}"));
    for (converged, l2) in &results {
        assert!(converged);
        assert!(*l2 < 1e-3, "relative L2 error {l2}");
    }
}

/// The multi-rank reduction schedule under full checking: 8 verified
/// ranks on a 2x2x2 decomposition run Bi-CGSTAB with its split-phase
/// batched reductions, lagged convergence check and post-loop drain,
/// with zero findings from the verifier or the teardown audit.
#[test]
fn eight_rank_lagged_reduction_solve_is_clean_under_full_checking() {
    let decomp = Decomp::new([2, 2, 2]);
    let results = try_run_ranks_checked::<f64, _, _>(8, CheckConfig::default(), move |comm| {
        let dev = Checked::new(Serial::new(Recorder::disabled()));
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(13), decomp, dev, comm);
        let out = solver.solve(SolverKind::BiCgsGNoCommCi, &opts(), &params());
        let (l2, _) = solver.error_vs_exact();
        (out.converged, l2)
    })
    .unwrap_or_else(|failure| panic!("false positives in checked mode:\n{failure}"));
    for (converged, l2) in &results {
        assert!(converged);
        assert!(*l2 < 1e-3, "relative L2 error {l2}");
    }
}

//! Convergence guard for the mixed-precision Chebyshev preconditioner.
//!
//! The f32 inner sweeps make the preconditioner a *different* (still
//! fixed) operator, so the outer Bi-CGSTAB iteration count may shift —
//! but only marginally: the polynomial is the same, the rounding is on
//! the order of 1e-7, and the outer recurrence stays f64. The guard
//! pins that claim across back-ends and rank counts: mixed precision
//! must converge to the same tolerance within ±2 outer iterations of
//! the all-f64 baseline, with the same solution accuracy.

use accel::{Device, GpuSimParams, Recorder, Serial, SimGpu, Threads};
use blockgrid::Decomp;
use comm::{run_ranks, ReduceOrder, SelfComm};
use krylov::{SolveParams, SolverKind, SolverOptions};
use poisson::{paper_problem, PoissonSolver};

/// Mixed must track f64 within this many outer iterations.
const ITER_SLACK: i64 = 2;

fn solve_params() -> SolveParams {
    SolveParams {
        tol: 1e-12,
        max_iters: 20_000,
        record_history: false,
        ..Default::default()
    }
}

fn solver_opts(mixed: bool) -> SolverOptions {
    SolverOptions {
        eig_min_factor: 10.0,
        mixed_precision: mixed,
        ..Default::default()
    }
}

/// Solve the paper problem single-rank; returns (converged, iterations,
/// relative L2 error vs the exact solution).
fn single_rank<D: Device>(dev: D, mixed: bool) -> (bool, usize, f64) {
    let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
        paper_problem(13),
        Decomp::single(),
        dev,
        SelfComm::default(),
    );
    let out = solver.solve(SolverKind::BiCgsGCi, &solver_opts(mixed), &solve_params());
    let (l2, _) = solver.error_vs_exact();
    (out.converged, out.iterations, l2)
}

/// Solve the paper problem on 8 ranks; returns per-rank (converged,
/// iterations, relative L2 error).
fn eight_rank<D, F>(make_dev: F, mixed: bool) -> Vec<(bool, usize, f64)>
where
    D: Device,
    F: Fn() -> D + Sync,
{
    let decomp = Decomp::new([2, 2, 2]);
    run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(13), decomp, make_dev(), comm);
        let out = solver.solve(SolverKind::BiCgsGCi, &solver_opts(mixed), &solve_params());
        let (l2, _) = solver.error_vs_exact();
        (out.converged, out.iterations, l2)
    })
}

fn assert_guard(label: &str, f64_run: &[(bool, usize, f64)], mixed_run: &[(bool, usize, f64)]) {
    for (rank, ((bc, bi, bl2), (mc, mi, ml2))) in f64_run.iter().zip(mixed_run).enumerate() {
        assert!(*bc, "{label} rank {rank}: f64 baseline did not converge");
        assert!(*mc, "{label} rank {rank}: mixed did not converge");
        let drift = (*mi as i64 - *bi as i64).abs();
        assert!(
            drift <= ITER_SLACK,
            "{label} rank {rank}: mixed took {mi} outer iterations vs f64's {bi} \
             (drift {drift} > {ITER_SLACK})"
        );
        assert!(*bl2 < 1e-3, "{label} rank {rank}: f64 L2 error {bl2}");
        assert!(*ml2 < 1e-3, "{label} rank {rank}: mixed L2 error {ml2}");
    }
}

#[test]
fn serial_single_rank_tracks_f64() {
    let base = single_rank(Serial::new(Recorder::disabled()), false);
    let mixed = single_rank(Serial::new(Recorder::disabled()), true);
    assert_guard("serial/1", &[base], &[mixed]);
}

#[test]
fn threads_single_rank_tracks_f64() {
    let base = single_rank(Threads::new(2, Recorder::disabled()), false);
    let mixed = single_rank(Threads::new(2, Recorder::disabled()), true);
    assert_guard("threads/1", &[base], &[mixed]);
}

#[test]
fn simgpu_single_rank_tracks_f64() {
    let base = single_rank(
        SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
        false,
    );
    let mixed = single_rank(
        SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
        true,
    );
    assert_guard("simgpu/1", &[base], &[mixed]);
}

#[test]
fn serial_eight_rank_tracks_f64() {
    let base = eight_rank(|| Serial::new(Recorder::disabled()), false);
    let mixed = eight_rank(|| Serial::new(Recorder::disabled()), true);
    assert_guard("serial/8", &base, &mixed);
}

#[test]
fn threads_eight_rank_tracks_f64() {
    let base = eight_rank(|| Threads::new(2, Recorder::disabled()), false);
    let mixed = eight_rank(|| Threads::new(2, Recorder::disabled()), true);
    assert_guard("threads/8", &base, &mixed);
}

#[test]
fn simgpu_eight_rank_tracks_f64() {
    let base = eight_rank(
        || SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
        false,
    );
    let mixed = eight_rank(
        || SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
        true,
    );
    assert_guard("simgpu/8", &base, &mixed);
}

/// FNV-1a over the little-endian bytes of `bits`.
fn fnv1a(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bits {
        for byte in b.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// A `mixed_precision` solve of the 12³ paper problem with `kind` on
/// an `ns` world of Serial devices: (outer iterations, FNV-1a of every
/// rank's solution bits in rank order, FNV-1a of the residual history).
fn mixed_bits(kind: SolverKind, ns: [usize; 3]) -> (usize, u64, u64) {
    let decomp = Decomp::new(ns);
    let ranks = run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, move |comm| {
        let dev = Serial::new(Recorder::disabled());
        let mut solver: PoissonSolver<f64, _, _> =
            PoissonSolver::new(paper_problem(12), decomp, dev, comm);
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 500,
            record_history: true,
            ..Default::default()
        };
        let out = solver.solve(kind, &solver_opts(true), &params);
        (out, solver.solution_local())
    });
    let x = ranks
        .iter()
        .flat_map(|(_, x)| x.iter().map(|v| v.to_bits()));
    let out = &ranks[0].0;
    let history = out.residual_history.iter().map(|v| v.to_bits());
    (out.iterations, fnv1a(x), fnv1a(history))
}

/// The f32 preconditioner path runs in no gated benchmark workload, so
/// its bits are pinned here: recorded when the Chebyshev recurrence was
/// folded into weighted stencil sweeps (the outer iteration counts held),
/// they must not move.
#[test]
fn mixed_precision_bits_are_pinned() {
    for (kind, ns, want) in [
        (
            SolverKind::BiCgsGCi,
            [1, 1, 1],
            (4, 0x70fd_687d_d329_e859, 0x07ea_6700_501b_2ae0),
        ),
        (
            SolverKind::BiCgsGCi,
            [2, 1, 1],
            (4, 0xd312_3d9d_f59e_a017, 0x4d9b_8e5e_506b_3798),
        ),
        (
            SolverKind::BiCgsGNoCommCi,
            [2, 2, 2],
            (19, 0x9245_0a67_9ef0_18df, 0x8cca_b71b_bc96_d149),
        ),
    ] {
        assert_eq!(mixed_bits(kind, ns), want, "{kind:?} on {ns:?}");
    }
}

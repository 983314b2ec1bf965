//! High-level per-rank solver facade.

use std::sync::Mutex;

use accel::{Device, Scalar};
use blockgrid::{BlockGrid, Decomp, Field};
use comm::{Communicator, ReduceOp};
use krylov::{
    bicgstab_solve, bicgstab_solve_batch, CancelToken, RankCtx, Scope, SharedPrec, SolveOutcome,
    SolveParams, SolverKind, SolverOptions, Workspace,
};

use crate::assemble::{local_exact, local_rhs};
use crate::problem::PoissonProblem;

/// Why solver setup (or an RHS swap) refused the input.
///
/// Every variant is decided *collectively*: either from data all ranks
/// share (the decomposition) or from a globally reduced quantity (the
/// RHS norm, a validity flag), so in a multi-rank world every rank
/// returns the same variant and no rank is left blocked in a collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetupError {
    /// `comm.size() != decomp.ranks()` — the decomposition does not
    /// match the communicator.
    DecompMismatch {
        /// Communicator world size.
        comm: usize,
        /// Ranks the decomposition expects.
        decomp: usize,
    },
    /// The global RHS norm is not positive (all-zero or non-finite
    /// right-hand side) — the normalisation `b / ‖b‖` is undefined.
    ZeroRhs,
    /// A rank was handed a local RHS slice of the wrong length.
    RhsSizeMismatch {
        /// This rank's interior size.
        expected: usize,
        /// Length actually provided on this rank.
        got: usize,
    },
}

impl std::fmt::Display for SetupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DecompMismatch { comm, decomp } => write!(
                f,
                "decomposition must match the communicator size \
                 (communicator has {comm} ranks, decomposition wants {decomp})"
            ),
            Self::ZeroRhs => write!(
                f,
                "zero right-hand side (the global RHS norm must be positive and finite)"
            ),
            Self::RhsSizeMismatch { expected, got } => write!(
                f,
                "local RHS size mismatch (expected {expected} interior values, got {got})"
            ),
        }
    }
}

impl std::error::Error for SetupError {}

/// One rank's fully wired Poisson solver: subdomain, operator, assembled
/// and normalised right-hand side, and reusable Krylov workspace.
///
/// Construction performs the paper's setup phase — assemble `b` on the
/// host, normalise it globally (all tolerances become relative), offload
/// to the device once. `solve` then runs any of the six Table I solver
/// configurations; the solution stays device-resident until
/// [`PoissonSolver::solution_local`] copies it back (the paper's single
/// end-of-run D2H transfer).
pub struct PoissonSolver<T: Scalar, D: Device, C: Communicator<T>> {
    ctx: RankCtx<T, D, C>,
    ws: Workspace<T>,
    b: Field<T>,
    b_norm: f64,
    x: Field<T>,
    problem: PoissonProblem,
    /// Lane workspaces for [`PoissonSolver::solve_batch`], grown lazily
    /// to the widest batch seen and reused across batches (the warm
    /// path of a batching serving layer).
    batch_ws: Vec<Workspace<T>>,
    /// Per-lane iterates for `solve_batch`, same growth policy.
    batch_xs: Vec<Field<T>>,
}

/// One lane's result from a batched facade solve
/// ([`PoissonSolver::solve_batch`]).
#[derive(Clone, Debug)]
pub struct LaneSolve {
    /// The lane's solver outcome (identical on every rank).
    pub outcome: SolveOutcome,
    /// This rank's interior solution, un-normalised back to the lane's
    /// original RHS scale (one D2H transfer per lane).
    pub solution_local: Vec<f64>,
    /// Global RHS norm used for this lane's normalisation.
    pub rhs_norm: f64,
}

impl<T: Scalar, D: Device, C: Communicator<T>> PoissonSolver<T, D, C> {
    /// Set up the solver for this rank's subdomain of `problem` under
    /// `decomp`. `comm.size()` must equal `decomp.ranks()`.
    ///
    /// Panics on invalid input; services should prefer
    /// [`PoissonSolver::try_new`].
    pub fn new(problem: PoissonProblem, decomp: Decomp, dev: D, comm: C) -> Self {
        Self::try_new(problem, decomp, dev, comm).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible setup: like [`PoissonSolver::new`] but refusing bad
    /// input with a [`SetupError`] instead of aborting the process.
    ///
    /// The decision is collective-safe: in a multi-rank world every rank
    /// returns the same `Err` variant (see [`SetupError`]).
    pub fn try_new(
        problem: PoissonProblem,
        decomp: Decomp,
        dev: D,
        comm: C,
    ) -> Result<Self, SetupError> {
        if comm.size() != decomp.ranks() {
            return Err(SetupError::DecompMismatch {
                comm: comm.size(),
                decomp: decomp.ranks(),
            });
        }
        let grid = BlockGrid::new(problem.discretize(), decomp, comm.rank());
        let ctx: RankCtx<T, D, C> = RankCtx::new(dev, comm, grid);

        // Assemble and globally normalise the RHS (Sec. IV: "we always
        // normalize the right-hand side").
        let b_host = local_rhs(&problem, &ctx.grid);
        let (b_scaled, b_norm) = Self::normalised(&ctx, &b_host)?;
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_scaled);

        let ws = Workspace::new(&ctx.dev, &ctx.grid);
        let x = Field::zeros(&ctx.dev, &ctx.grid);
        Ok(Self {
            ctx,
            ws,
            b,
            b_norm,
            x,
            problem,
            batch_ws: Vec::new(),
            batch_xs: Vec::new(),
        })
    }

    /// Validate and globally normalise a local RHS slice.
    ///
    /// The per-rank size check rides inside the norm reduction as a
    /// validity flag, so a rank with a malformed slice never leaves its
    /// peers blocked in the collective: all ranks observe the flagged
    /// failure and return together.
    fn normalised(ctx: &RankCtx<T, D, C>, rhs_local: &[f64]) -> Result<(Vec<T>, f64), SetupError> {
        let expected: usize = ctx.grid.local_n.iter().product();
        let (local_sq, bad) = if rhs_local.len() == expected {
            (rhs_local.iter().map(|v| v * v).sum::<f64>(), 0.0)
        } else {
            (0.0, 1.0)
        };
        let mut sums = [T::from_f64(local_sq), T::from_f64(bad)];
        ctx.comm.all_reduce(&mut sums, ReduceOp::Sum);
        if sums[1].to_f64() != 0.0 {
            return Err(SetupError::RhsSizeMismatch {
                expected,
                got: rhs_local.len(),
            });
        }
        let b_norm = sums[0].to_f64().max(0.0).sqrt();
        if !(b_norm > 0.0 && b_norm.is_finite()) {
            return Err(SetupError::ZeroRhs);
        }
        let b_scaled: Vec<T> = rhs_local.iter().map(|&v| T::from_f64(v / b_norm)).collect();
        Ok((b_scaled, b_norm))
    }

    /// Validate and globally normalise a batch of local RHS slices with
    /// **one** reduction carrying every lane's squared norm and validity
    /// flag (the batched counterpart of
    /// [`normalised`](PoissonSolver::normalised); per-lane slots fold
    /// element-wise, so each lane's verdict and scale are bitwise those
    /// of a solo normalisation). Verdicts derive from reduced values, so
    /// every rank returns the same per-lane `Result`s.
    #[allow(clippy::type_complexity)]
    fn normalised_many(
        ctx: &RankCtx<T, D, C>,
        rhs_locals: &[&[f64]],
    ) -> Vec<Result<(Vec<T>, f64), SetupError>> {
        let expected: usize = ctx.grid.local_n.iter().product();
        let mut sums: Vec<T> = Vec::with_capacity(2 * rhs_locals.len());
        for rhs in rhs_locals {
            let (local_sq, bad) = if rhs.len() == expected {
                (rhs.iter().map(|v| v * v).sum::<f64>(), 0.0)
            } else {
                (0.0, 1.0)
            };
            sums.push(T::from_f64(local_sq));
            sums.push(T::from_f64(bad));
        }
        ctx.comm.all_reduce(&mut sums, ReduceOp::Sum);
        rhs_locals
            .iter()
            .enumerate()
            .map(|(l, rhs)| {
                if sums[2 * l + 1].to_f64() != 0.0 {
                    return Err(SetupError::RhsSizeMismatch {
                        expected,
                        got: rhs.len(),
                    });
                }
                let b_norm = sums[2 * l].to_f64().max(0.0).sqrt();
                if !(b_norm > 0.0 && b_norm.is_finite()) {
                    return Err(SetupError::ZeroRhs);
                }
                let b_scaled: Vec<T> = rhs.iter().map(|&v| T::from_f64(v / b_norm)).collect();
                Ok((b_scaled, b_norm))
            })
            .collect()
    }

    /// Solve one batch of right-hand sides concurrently over this rank's
    /// subdomain ([`krylov::bicgstab_solve_batch`]): every sweep, halo
    /// exchange and reduction is amortised across the batch, and each
    /// lane's iterates are bitwise those of a solo
    /// [`solve`](PoissonSolver::solve) against the same RHS. The lanes run
    /// through the same driver loop as a solo solve, so everything
    /// `params` can ask of one — true-residual guard, breakdown restarts —
    /// holds per lane.
    ///
    /// Lanes are validated and normalised collectively (one reduction);
    /// an invalid lane gets its [`SetupError`] while the remaining lanes
    /// ride the batch — the valid-lane set is identical on every rank.
    /// `cancels` is empty (no cancellation) or one optional token per
    /// input lane; `params.cancel` must be `None` (per-lane tokens
    /// replace it). Lane workspaces are allocated lazily and kept for
    /// the next batch. The lanes share one preconditioner, built per call
    /// and applied by each lane in turn ([`SharedPrec`]): a batch holds
    /// one set of its buffers, not one per lane.
    pub fn solve_batch(
        &mut self,
        rhs_locals: &[&[f64]],
        kind: SolverKind,
        opts: &SolverOptions,
        params: &SolveParams,
        cancels: &[Option<CancelToken>],
    ) -> Vec<Result<LaneSolve, SetupError>> {
        let nb = rhs_locals.len();
        assert!(
            cancels.is_empty() || cancels.len() == nb,
            "cancels must be empty or carry one optional token per lane"
        );
        if nb == 0 {
            return Vec::new();
        }
        let mut errs: Vec<Option<SetupError>> = Vec::with_capacity(nb);
        let mut b_fields: Vec<Field<T>> = Vec::new();
        let mut norms: Vec<f64> = Vec::new();
        for lane in Self::normalised_many(&self.ctx, rhs_locals) {
            match lane {
                Ok((scaled, b_norm)) => {
                    b_fields.push(Field::from_interior(&self.ctx.dev, &self.ctx.grid, &scaled));
                    norms.push(b_norm);
                    errs.push(None);
                }
                Err(e) => errs.push(Some(e)),
            }
        }

        let nv = b_fields.len();
        let outs = if nv > 0 {
            while self.batch_ws.len() < nv {
                self.batch_ws
                    .push(Workspace::new(&self.ctx.dev, &self.ctx.grid));
            }
            while self.batch_xs.len() < nv {
                self.batch_xs
                    .push(Field::zeros(&self.ctx.dev, &self.ctx.grid));
            }
            for x in self.batch_xs.iter_mut().take(nv) {
                x.fill_zero();
            }
            let bs: Vec<&Field<T>> = b_fields.iter().collect();
            let mut xs: Vec<&mut Field<T>> = self.batch_xs.iter_mut().take(nv).collect();
            // One preconditioner for the whole batch, applied by each lane
            // in turn: none the facade builds carries state between
            // applications (see `SharedPrec`).
            let mut prec = kind.build_preconditioner(&self.ctx, opts);
            let shared = Mutex::new(&mut *prec);
            let mut handles: Vec<_> = (0..nv).map(|_| SharedPrec::new(&shared)).collect();
            let mut precs: Vec<_> = handles.iter_mut().collect();
            let lane_cancels: Vec<Option<CancelToken>> = if cancels.is_empty() {
                Vec::new()
            } else {
                (0..nb)
                    .filter(|&l| errs[l].is_none())
                    .map(|l| cancels[l].clone())
                    .collect()
            };
            bicgstab_solve_batch(
                &self.ctx,
                Scope::Global,
                &bs,
                &mut xs,
                &mut precs,
                &mut self.batch_ws,
                params,
                &lane_cancels,
            )
        } else {
            Vec::new()
        };

        let mut solved = outs.into_iter();
        let mut slot = 0usize;
        errs.into_iter()
            .map(|e| match e {
                Some(err) => Err(err),
                None => {
                    let outcome = solved.next().expect("one outcome per valid lane");
                    let rhs_norm = norms[slot];
                    let solution_local: Vec<f64> = self.batch_xs[slot]
                        .interior_to_host(&self.ctx.grid)
                        .into_iter()
                        .map(|v| v.to_f64() * rhs_norm)
                        .collect();
                    slot += 1;
                    Ok(LaneSolve {
                        outcome,
                        solution_local,
                        rhs_norm,
                    })
                }
            })
            .collect()
    }

    /// Swap in a fresh local right-hand side, keeping the grid, the
    /// operator, the Krylov [`Workspace`] and every device allocation of
    /// this solver: only the new RHS is re-normalised and offloaded (the
    /// warm path of a serving layer — the setup phase the paper
    /// amortises is skipped entirely).
    pub fn set_rhs(&mut self, rhs_local: &[f64]) -> Result<(), SetupError> {
        let (b_scaled, b_norm) = Self::normalised(&self.ctx, rhs_local)?;
        self.b = Field::from_interior(&self.ctx.dev, &self.ctx.grid, &b_scaled);
        self.b_norm = b_norm;
        Ok(())
    }

    /// [`set_rhs`](PoissonSolver::set_rhs) followed by
    /// [`solve`](PoissonSolver::solve): re-solve this rank's subdomain
    /// against a fresh RHS while reusing the constructed solver. The
    /// result is bitwise-identical to a freshly constructed solver fed
    /// the same inputs (the solve starts from a zero guess and every
    /// workspace value is overwritten before use).
    pub fn resolve_with_rhs(
        &mut self,
        rhs_local: &[f64],
        kind: SolverKind,
        opts: &SolverOptions,
        params: &SolveParams,
    ) -> Result<SolveOutcome, SetupError> {
        self.set_rhs(rhs_local)?;
        Ok(self.solve(kind, opts, params))
    }

    /// The rank context (device, communicator, grid, operator).
    pub fn ctx(&self) -> &RankCtx<T, D, C> {
        &self.ctx
    }

    /// The subdomain.
    pub fn grid(&self) -> &BlockGrid {
        &self.ctx.grid
    }

    /// The continuous problem.
    pub fn problem(&self) -> &PoissonProblem {
        &self.problem
    }

    /// Global RHS norm used for the normalisation.
    pub fn rhs_norm(&self) -> f64 {
        self.b_norm
    }

    /// Run one solver configuration from a zero initial guess.
    ///
    /// `params.tol` is relative to the RHS (the stored `b` is normalised).
    pub fn solve(
        &mut self,
        kind: SolverKind,
        opts: &SolverOptions,
        params: &SolveParams,
    ) -> SolveOutcome {
        self.x.fill_zero();
        let mut prec = kind.build_preconditioner(&self.ctx, opts);
        bicgstab_solve(
            &self.ctx,
            Scope::Global,
            &self.b,
            &mut self.x,
            &mut *prec,
            &mut self.ws,
            params,
        )
    }

    /// Download this rank's interior solution, un-normalised back to the
    /// original RHS scale (one D2H transfer).
    pub fn solution_local(&self) -> Vec<f64> {
        self.x
            .interior_to_host(&self.ctx.grid)
            .into_iter()
            .map(|v| v.to_f64() * self.b_norm)
            .collect()
    }

    /// Global relative L2 error and absolute max error against the
    /// problem's exact solution (collective call — every rank must enter).
    pub fn error_vs_exact(&self) -> (f64, f64) {
        let exact = local_exact(&self.problem, &self.ctx.grid);
        let got = self.solution_local();
        let mut err_sq = 0.0;
        let mut ref_sq = 0.0;
        let mut linf: f64 = 0.0;
        for (g, e) in got.iter().zip(&exact) {
            let d = g - e;
            err_sq += d * d;
            ref_sq += e * e;
            linf = linf.max(d.abs());
        }
        let mut sums = [T::from_f64(err_sq), T::from_f64(ref_sq)];
        self.ctx.comm.all_reduce(&mut sums, ReduceOp::Sum);
        let mut maxes = [T::from_f64(linf)];
        self.ctx.comm.all_reduce(&mut maxes, ReduceOp::Max);
        let l2_rel = (sums[0].to_f64() / sums[1].to_f64().max(f64::MIN_POSITIVE)).sqrt();
        (l2_rel, maxes[0].to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{paper_problem, unit_cube_dirichlet};
    use accel::{Recorder, Serial};
    use comm::{run_ranks, ReduceOrder, SelfComm, ThreadComm};

    fn solve_single(nodes: usize) -> (f64, f64, SolveOutcome) {
        let p = paper_problem(nodes);
        let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p,
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        let out = solver.solve(
            SolverKind::BiCgsGNoCommCi,
            &SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            },
            &SolveParams {
                tol: 1e-12,
                max_iters: 20_000,
                record_history: false,
                ..Default::default()
            },
        );
        let (l2, linf) = solver.error_vs_exact();
        (l2, linf, out)
    }

    #[test]
    fn converges_to_manufactured_solution() {
        let (l2, _linf, out) = solve_single(13);
        assert!(out.converged, "{out:?}");
        assert!(l2 < 1e-3, "relative L2 error {l2}");
    }

    #[test]
    fn second_order_convergence() {
        // halving h must cut the discretisation error ~4x
        let (l2_coarse, _, out1) = solve_single(9);
        let (l2_fine, _, out2) = solve_single(17);
        assert!(out1.converged && out2.converged);
        let rate = l2_coarse / l2_fine;
        assert!(
            (3.0..5.5).contains(&rate),
            "expected ~4x error reduction, got {rate} ({l2_coarse} -> {l2_fine})"
        );
    }

    #[test]
    fn unit_cube_dirichlet_solves() {
        let p = unit_cube_dirichlet(17);
        let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p,
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        let out = solver.solve(
            SolverKind::BiCgs,
            &SolverOptions::default(),
            &SolveParams {
                tol: 1e-11,
                max_iters: 10_000,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged);
        let (l2, _) = solver.error_vs_exact();
        assert!(l2 < 5e-3, "relative L2 error {l2}");
    }

    #[test]
    fn distributed_solution_matches_exact() {
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let p = paper_problem(13);
            let mut solver: PoissonSolver<f64, Serial, ThreadComm<f64>> = PoissonSolver::new(
                p,
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
                    tol: 1e-12,
                    max_iters: 20_000,
                    record_history: false,
                    ..Default::default()
                },
            );
            assert!(out.converged);
            let (l2, _) = solver.error_vs_exact();
            assert!(l2 < 1e-3, "relative L2 error {l2}");
        });
    }

    #[test]
    fn rhs_norm_restores_scale() {
        // the normalised internal RHS must reproduce an un-normalised
        // solution: solving the same problem twice with RHS scaled by c
        // gives identical `solution_local` output because the problem is
        // identical — here we just assert the norm is positive and the
        // solution is not normalised-scale.
        let p = paper_problem(9);
        let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p,
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        assert!(solver.rhs_norm() > 1.0, "paper RHS has a large norm");
        let out = solver.solve(
            SolverKind::BiCgsGNoCommCi,
            &SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            },
            &SolveParams {
                tol: 1e-12,
                max_iters: 20_000,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged);
        let sol = solver.solution_local();
        let exact = crate::assemble::local_exact(solver.problem(), solver.grid());
        // un-normalised magnitudes match the exact solution's scale
        let max_sol = sol.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        let max_exact = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!((max_sol / max_exact - 1.0).abs() < 0.1);
    }

    #[test]
    #[should_panic(expected = "decomposition must match")]
    fn mismatched_decomposition_rejected() {
        let p = paper_problem(9);
        let _: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p,
            Decomp::new([2, 1, 1]),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
    }

    #[test]
    fn try_new_reports_decomp_mismatch() {
        let p = paper_problem(9);
        let err = PoissonSolver::<f64, _, _>::try_new(
            p,
            Decomp::new([2, 1, 1]),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        )
        .map(|_| ())
        .expect_err("one rank cannot satisfy a 2-rank decomposition");
        assert_eq!(err, SetupError::DecompMismatch { comm: 1, decomp: 2 });
    }

    #[test]
    fn try_new_reports_zero_rhs() {
        use crate::problem::PoissonProblem;
        use std::sync::Arc;
        // a genuinely zero RHS with zero boundary data: ‖b‖ = 0
        let p = PoissonProblem {
            lo: [0.0; 3],
            hi: [1.0; 3],
            nodes: [9; 3],
            bc: [[blockgrid::BcKind::Dirichlet; 2]; 3],
            rhs: Arc::new(|_, _, _| 0.0),
            dirichlet: Arc::new(|_, _, _| 0.0),
            neumann_dx: std::array::from_fn(|_| {
                Arc::new(|_: f64, _: f64, _: f64| 0.0) as crate::problem::SpaceFn
            }),
            exact: None,
        };
        let err = PoissonSolver::<f64, _, _>::try_new(
            p,
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        )
        .map(|_| ())
        .expect_err("a zero RHS must be refused");
        assert_eq!(err, SetupError::ZeroRhs);
    }

    #[test]
    fn set_rhs_rejects_wrong_length() {
        let p = paper_problem(9);
        let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p,
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        let n: usize = solver.grid().local_n.iter().product();
        let err = solver.set_rhs(&vec![1.0; n + 1]).expect_err("wrong length");
        assert_eq!(
            err,
            SetupError::RhsSizeMismatch {
                expected: n,
                got: n + 1
            }
        );
        // the solver is still usable after the refusal
        let out = solver.solve(
            SolverKind::BiCgsGNoCommCi,
            &SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            },
            &SolveParams {
                tol: 1e-10,
                max_iters: 20_000,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged);
    }

    /// The warm-path guarantee: a solver that already ran against one
    /// RHS and is re-aimed at another via `resolve_with_rhs` must
    /// reproduce a freshly constructed solver *bitwise* — same residual
    /// history, same solution bits.
    #[test]
    fn resolve_with_rhs_is_bitwise_identical_to_fresh_solver() {
        let kind = SolverKind::BiCgsGNoCommCi;
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..Default::default()
        };
        let params = SolveParams {
            tol: 1e-12,
            max_iters: 20_000,
            record_history: true,
            ..Default::default()
        };

        // fresh solver, solved once against the paper RHS
        let p = paper_problem(11);
        let mut fresh: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p.clone(),
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        let fresh_out = fresh.solve(kind, &opts, &params);
        assert!(fresh_out.converged);

        // warm solver: first exhausted against a *different* RHS (the
        // paper RHS scaled — different normalisation, different iterates),
        // then re-aimed at the paper RHS via the swap path
        let mut warm: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p.clone(),
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        let rhs_paper = crate::assemble::local_rhs(&p, warm.grid());
        let rhs_other: Vec<f64> = rhs_paper.iter().map(|v| 3.5 * v + 1.0).collect();
        warm.set_rhs(&rhs_other).unwrap();
        let _ = warm.solve(kind, &opts, &params);
        let warm_out = warm
            .resolve_with_rhs(&rhs_paper, kind, &opts, &params)
            .unwrap();

        assert_eq!(fresh_out.iterations, warm_out.iterations);
        assert_eq!(
            fresh.rhs_norm().to_bits(),
            warm.rhs_norm().to_bits(),
            "re-normalisation must reproduce the fresh norm"
        );
        let hf: Vec<u64> = fresh_out
            .residual_history
            .iter()
            .map(|v| v.to_bits())
            .collect();
        let hw: Vec<u64> = warm_out
            .residual_history
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(hf, hw, "residual histories diverge");
        let sf: Vec<u64> = fresh.solution_local().iter().map(|v| v.to_bits()).collect();
        let sw: Vec<u64> = warm.solution_local().iter().map(|v| v.to_bits()).collect();
        assert_eq!(sf, sw, "solutions diverge");
    }

    /// The facade-level batching guarantee: each lane of `solve_batch`
    /// reproduces a solo `resolve_with_rhs` against the same RHS
    /// bitwise — outcome, residual history, normalisation and the
    /// un-normalised solution — and the lane workspaces are reused by a
    /// following (wider or narrower) batch without perturbing it. The
    /// lanes share one preconditioner, so the guarantee is checked for a
    /// Chebyshev one at both sweep widths and for an inner Bi-CGSTAB.
    #[test]
    fn solve_batch_lanes_match_solo_facade_bitwise() {
        for (kind, mixed_precision) in [
            (SolverKind::BiCgsGNoCommCi, false),
            (SolverKind::BiCgsGNoCommCi, true),
            (SolverKind::FBiCgsGBiCgs, false),
        ] {
            let what = format!("{kind:?} mixed={mixed_precision}");
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                mixed_precision,
                ..Default::default()
            };
            let params = SolveParams {
                tol: 1e-11,
                max_iters: 20_000,
                record_history: true,
                ..Default::default()
            };
            let p = paper_problem(9);
            let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
                p.clone(),
                Decomp::single(),
                Serial::new(Recorder::disabled()),
                SelfComm::default(),
            );
            let rhs_paper = crate::assemble::local_rhs(&p, solver.grid());
            let rhs_other: Vec<f64> = rhs_paper.iter().map(|v| 2.0 * v + 0.5).collect();
            let rhs_third: Vec<f64> = rhs_paper.iter().map(|v| -v + 1.5).collect();

            let mut solo = Vec::new();
            for rhs in [&rhs_paper, &rhs_other, &rhs_third] {
                let out = solver.resolve_with_rhs(rhs, kind, &opts, &params).unwrap();
                assert!(out.converged, "{what}: {out:?}");
                solo.push((out, solver.rhs_norm(), solver.solution_local()));
            }

            let lanes = solver.solve_batch(
                &[&rhs_paper, &rhs_other, &rhs_third],
                kind,
                &opts,
                &params,
                &[],
            );
            assert_eq!(lanes.len(), 3);
            for (l, (lane, (so, snorm, ssol))) in lanes.iter().zip(&solo).enumerate() {
                let lane = lane.as_ref().expect("valid lane");
                assert!(lane.outcome.converged, "{what} lane {l}");
                assert_eq!(so.iterations, lane.outcome.iterations, "{what} lane {l}");
                assert_eq!(
                    so.prec_iterations, lane.outcome.prec_iterations,
                    "{what} lane {l}: preconditioner sweeps"
                );
                assert_eq!(
                    snorm.to_bits(),
                    lane.rhs_norm.to_bits(),
                    "{what} lane {l}: norm"
                );
                let hs: Vec<u64> = so.residual_history.iter().map(|v| v.to_bits()).collect();
                let hb: Vec<u64> = lane
                    .outcome
                    .residual_history
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(hs, hb, "{what} lane {l}: residual histories diverge");
                let ss: Vec<u64> = ssol.iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = lane.solution_local.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ss, sb, "{what} lane {l}: solutions diverge");
            }

            // A narrower follow-up batch reuses the (wider) lane cache and
            // still reproduces its solo solve bitwise.
            let again = solver.solve_batch(&[&rhs_other], kind, &opts, &params, &[]);
            let lane = again[0].as_ref().expect("valid lane");
            let (so, snorm, ssol) = &solo[1];
            assert_eq!(so.iterations, lane.outcome.iterations, "{what}");
            assert_eq!(snorm.to_bits(), lane.rhs_norm.to_bits(), "{what}");
            let ss: Vec<u64> = ssol.iter().map(|v| v.to_bits()).collect();
            let sb: Vec<u64> = lane.solution_local.iter().map(|v| v.to_bits()).collect();
            assert_eq!(ss, sb, "{what}: cache reuse perturbed the lane");
        }
    }

    /// Collective lane validation: a malformed lane gets its
    /// [`SetupError`] while the surviving lanes solve bitwise as solo —
    /// on every rank, with the verdicts riding one shared reduction.
    #[test]
    fn solve_batch_rejects_bad_lanes_without_poisoning_the_batch() {
        let kind = SolverKind::BiCgsGNoCommCi;
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..Default::default()
        };
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 20_000,
            record_history: false,
            ..Default::default()
        };
        let p = paper_problem(9);
        let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
            p.clone(),
            Decomp::single(),
            Serial::new(Recorder::disabled()),
            SelfComm::default(),
        );
        let rhs_paper = crate::assemble::local_rhs(&p, solver.grid());
        let n = rhs_paper.len();
        let solo = solver
            .resolve_with_rhs(&rhs_paper, kind, &opts, &params)
            .unwrap();
        let solo_sol = solver.solution_local();

        let zero = vec![0.0; n];
        let short = vec![1.0; n - 1];
        let lanes = solver.solve_batch(&[&zero, &rhs_paper, &short], kind, &opts, &params, &[]);
        assert_eq!(lanes[0].as_ref().unwrap_err(), &SetupError::ZeroRhs);
        assert_eq!(
            lanes[2].as_ref().unwrap_err(),
            &SetupError::RhsSizeMismatch {
                expected: n,
                got: n - 1
            }
        );
        let live = lanes[1].as_ref().expect("valid lane");
        assert!(live.outcome.converged);
        assert_eq!(live.outcome.iterations, solo.iterations);
        let ss: Vec<u64> = solo_sol.iter().map(|v| v.to_bits()).collect();
        let sb: Vec<u64> = live.solution_local.iter().map(|v| v.to_bits()).collect();
        assert_eq!(ss, sb, "bad neighbours perturbed the live lane");
    }

    /// Distributed facade batching: 8 ranks, two lanes, each lane
    /// bitwise its solo facade solve under rank-ordered reductions.
    #[test]
    fn distributed_solve_batch_matches_solo_facade() {
        let decomp = Decomp::new([2, 2, 2]);
        let kind = SolverKind::BiCgsGNoCommCi;
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let p = paper_problem(13);
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            };
            let params = SolveParams {
                tol: 1e-11,
                max_iters: 20_000,
                record_history: true,
                ..Default::default()
            };
            let mut solver: PoissonSolver<f64, Serial, ThreadComm<f64>> =
                PoissonSolver::new(p.clone(), decomp, Serial::new(Recorder::disabled()), comm);
            let rhs_paper = crate::assemble::local_rhs(&p, solver.grid());
            let rhs_other: Vec<f64> = rhs_paper.iter().map(|v| 1.5 * v - 0.25).collect();
            let mut solo = Vec::new();
            for rhs in [&rhs_paper, &rhs_other] {
                let out = solver.resolve_with_rhs(rhs, kind, &opts, &params).unwrap();
                solo.push((out, solver.solution_local()));
            }
            let lanes = solver.solve_batch(&[&rhs_paper, &rhs_other], kind, &opts, &params, &[]);
            (solo, lanes)
        });
        for (rank, (solo, lanes)) in results.iter().enumerate() {
            for (l, (lane, (so, ssol))) in lanes.iter().zip(solo).enumerate() {
                let lane = lane.as_ref().expect("valid lane");
                assert!(
                    so.converged && lane.outcome.converged,
                    "rank {rank} lane {l}"
                );
                assert_eq!(
                    so.iterations, lane.outcome.iterations,
                    "rank {rank} lane {l}"
                );
                let hs: Vec<u64> = so.residual_history.iter().map(|v| v.to_bits()).collect();
                let hb: Vec<u64> = lane
                    .outcome
                    .residual_history
                    .iter()
                    .map(|v| v.to_bits())
                    .collect();
                assert_eq!(hs, hb, "rank {rank} lane {l}: histories diverge");
                let ss: Vec<u64> = ssol.iter().map(|v| v.to_bits()).collect();
                let sb: Vec<u64> = lane.solution_local.iter().map(|v| v.to_bits()).collect();
                assert_eq!(ss, sb, "rank {rank} lane {l}: solutions diverge");
            }
        }
    }

    /// The same warm-path guarantee distributed: 8 ranks, overlapped
    /// reductions, RHS swapped between two solves.
    #[test]
    fn distributed_resolve_with_rhs_matches_fresh_solver() {
        let decomp = Decomp::new([2, 2, 2]);
        let kind = SolverKind::BiCgsGNoCommCi;
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let p = paper_problem(13);
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            };
            let params = SolveParams {
                tol: 1e-12,
                max_iters: 20_000,
                record_history: true,
                ..Default::default()
            };
            let mut solver: PoissonSolver<f64, Serial, ThreadComm<f64>> =
                PoissonSolver::new(p.clone(), decomp, Serial::new(Recorder::disabled()), comm);
            let rhs_paper = crate::assemble::local_rhs(&p, solver.grid());
            let first = solver.solve(kind, &opts, &params);
            let again = solver
                .resolve_with_rhs(&rhs_paper, kind, &opts, &params)
                .unwrap();
            (first, again, solver.solution_local())
        });
        let sol0 = &results[0].2;
        for (rank, (first, again, _)) in results.iter().enumerate() {
            assert!(first.converged && again.converged, "rank {rank}");
            assert_eq!(first.iterations, again.iterations, "rank {rank}");
            let hf: Vec<u64> = first.residual_history.iter().map(|v| v.to_bits()).collect();
            let ha: Vec<u64> = again.residual_history.iter().map(|v| v.to_bits()).collect();
            assert_eq!(hf, ha, "rank {rank}: swap perturbed the iteration");
        }
        assert!(!sol0.is_empty());
    }
}

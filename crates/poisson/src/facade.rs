//! High-level per-rank solver facade.

use accel::{Device, Scalar};
use blockgrid::{BlockGrid, Decomp, Field};
use comm::{Communicator, ReduceOp};
use krylov::{
    bicgstab_solve_batch, CancelToken, LaneSystem, RankCtx, Scope, SolveOutcome, SolveParams,
    SolverKind, SolverOptions, Workspace,
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

/// One rank's fully wired Poisson solver: subdomain, operator, and one
/// *slot* per right-hand side — the normalised RHS, its norm, the iterate
/// and the Krylov workspace of one lane of a solve.
///
/// Construction performs the paper's setup phase — assemble `b` on the
/// host, normalise it globally (all tolerances become relative), offload
/// to the device once — into slot 0, the solver's own lane. Every solve
/// runs a list of lanes ([`PoissonSolver::solve_lanes`]), lane `l` in
/// slot `l`: [`solve`](PoissonSolver::solve),
/// [`set_rhs`](PoissonSolver::set_rhs) and
/// [`resolve_with_rhs`](PoissonSolver::resolve_with_rhs) act on slot 0,
/// [`solve_batch`](PoissonSolver::solve_batch) on as many slots as it
/// has right-hand sides; slots are added as wider batches need them and
/// kept for the next call. Any of the six Table I solver configurations
/// runs; solutions stay device-resident until
/// [`PoissonSolver::solution_local`] copies slot 0's back (the paper's
/// single end-of-run D2H transfer).
pub struct PoissonSolver<T: Scalar, D: Device, C: Communicator<T>> {
    ctx: RankCtx<T, D, C>,
    slots: Vec<Slot<T>>,
    problem: PoissonProblem,
}

/// One right-hand side's device state: the normalised RHS `b`, its
/// global norm, the iterate `x` and the Krylov workspace.
struct Slot<T> {
    b: Field<T>,
    /// `0` until a right-hand side is loaded.
    norm: f64,
    x: Field<T>,
    ws: Workspace<T>,
}

impl<T: Scalar> Slot<T> {
    fn new<D: Device>(dev: &D, grid: &BlockGrid, b: Field<T>, norm: f64) -> Self {
        let ws = Workspace::new(dev, grid);
        let x = Field::zeros(dev, grid);
        Self { b, norm, x, ws }
    }

    /// This rank's interior solution, un-normalised back to the original
    /// RHS scale (one D2H transfer).
    fn solution(&self, grid: &BlockGrid) -> Vec<f64> {
        self.x
            .interior_to_host(grid)
            .into_iter()
            .map(|v| v.to_f64() * self.norm)
            .collect()
    }
}

/// Where a lane of [`PoissonSolver::solve_lanes`] takes its right-hand
/// side from.
#[derive(Clone, Copy, Debug)]
pub enum LaneRhs<'a> {
    /// Keep the one its slot holds, loaded by an earlier call (a slot
    /// never loaded refuses with [`SetupError::ZeroRhs`]).
    Keep,
    /// Load this rank's slice of a new one into the slot: validated,
    /// normalised and uploaded in place.
    Load(&'a [f64]),
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

/// `rhs / norm` at the solver's precision.
fn scaled<T: Scalar>(rhs: &[f64], norm: f64) -> Vec<T> {
    rhs.iter().map(|&v| T::from_f64(v / norm)).collect()
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
        // normalize the right-hand side") into slot 0.
        let b_host = local_rhs(&problem, &ctx.grid);
        let norm = Self::norms(&ctx, &[&b_host]).remove(0)?;
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &scaled(&b_host, norm));
        let slot = Slot::new(&ctx.dev, &ctx.grid, b, norm);
        Ok(Self {
            ctx,
            slots: vec![slot],
            problem,
        })
    }

    /// Validate local right-hand sides and compute their global norms
    /// with **one** reduction carrying every lane's squared norm and
    /// validity flag — per-lane slots fold element-wise, so each lane's
    /// verdict and norm are bitwise those of a lane validated alone — and
    /// none when `rhs_locals` is empty.
    ///
    /// The per-rank size check rides inside the norm reduction as a
    /// validity flag, so a rank with a malformed slice never leaves its
    /// peers blocked in the collective: verdicts derive from reduced
    /// values, and every rank returns the same per-lane `Result`s.
    fn norms(ctx: &RankCtx<T, D, C>, rhs_locals: &[&[f64]]) -> Vec<Result<f64, SetupError>> {
        if rhs_locals.is_empty() {
            return Vec::new();
        }
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
            .zip(sums.chunks_exact(2))
            .map(|(rhs, sum)| {
                if sum[1].to_f64() != 0.0 {
                    return Err(SetupError::RhsSizeMismatch {
                        expected,
                        got: rhs.len(),
                    });
                }
                let norm = sum[0].to_f64().max(0.0).sqrt();
                if !(norm > 0.0 && norm.is_finite()) {
                    return Err(SetupError::ZeroRhs);
                }
                Ok(norm)
            })
            .collect()
    }

    /// Bring lane `l`'s right-hand side into slot `l` for every lane,
    /// adding the slots a wider list needs: the [`LaneRhs::Load`] lanes
    /// are validated and normalised together ([`PoissonSolver::norms`])
    /// and uploaded over their slot's `b` — no new field. Returns each
    /// lane's verdict; a refused lane's slot is left as it was.
    fn load(&mut self, lanes: &[LaneRhs<'_>]) -> Vec<Result<(), SetupError>> {
        let (dev, grid) = (&self.ctx.dev, &self.ctx.grid);
        while self.slots.len() < lanes.len() {
            let slot = Slot::new(dev, grid, Field::zeros(dev, grid), 0.0);
            self.slots.push(slot);
        }
        let loads: Vec<&[f64]> = lanes
            .iter()
            .filter_map(|lane| match lane {
                LaneRhs::Load(rhs) => Some(*rhs),
                LaneRhs::Keep => None,
            })
            .collect();
        let mut norms = Self::norms(&self.ctx, &loads).into_iter();
        lanes
            .iter()
            .zip(&mut self.slots)
            .map(|(lane, slot)| match lane {
                LaneRhs::Keep if slot.norm > 0.0 => Ok(()),
                LaneRhs::Keep => Err(SetupError::ZeroRhs),
                LaneRhs::Load(rhs) => {
                    let norm = norms.next().expect("one verdict per loaded lane")?;
                    slot.b.upload_interior(grid, &scaled(rhs, norm));
                    slot.norm = norm;
                    Ok(())
                }
            })
            .collect()
    }

    /// Solve a list of lanes over this rank's subdomain, lane `l` in slot
    /// `l` from a zero initial guess, each against a new right-hand side
    /// or the one its slot keeps ([`LaneRhs`]). The lanes run as one
    /// [`krylov::bicgstab_solve_batch`] under one preconditioner built for
    /// the call: every sweep, halo exchange and reduction is amortised
    /// across them, and each lane's iterates are bitwise those of the
    /// lane solved alone. Everything `params` can ask of a solve —
    /// true-residual guard, breakdown restarts — holds per lane;
    /// `params.tol` is relative to the lane's RHS (the stored `b` is
    /// normalised).
    ///
    /// New right-hand sides are validated and normalised collectively
    /// (one reduction, none when every lane keeps its own); a refused
    /// lane gets its [`SetupError`] while the remaining lanes solve — the
    /// set of solved lanes is identical on every rank, as must be the
    /// list itself. `cancels` is empty (no cancellation) or one optional
    /// token per lane, installed on the same lanes on every rank.
    pub fn solve_lanes(
        &mut self,
        lanes: &[LaneRhs<'_>],
        kind: SolverKind,
        opts: &SolverOptions,
        params: &SolveParams,
        cancels: &[Option<CancelToken>],
    ) -> Vec<Result<SolveOutcome, SetupError>> {
        assert!(
            cancels.is_empty() || cancels.len() == lanes.len(),
            "cancels must be empty or carry one optional token per lane"
        );
        let loaded = self.load(lanes);
        let outs = if loaded.iter().any(Result::is_ok) {
            let (ctx, slots) = (&self.ctx, &mut self.slots);
            let systems = slots
                .iter_mut()
                .zip(&loaded)
                .enumerate()
                .filter(|(_, (_, verdict))| verdict.is_ok())
                .map(|(l, (slot, _))| {
                    let Slot { b, x, ws, .. } = slot;
                    x.fill_zero();
                    let cancel = cancels.get(l).and_then(Option::as_ref);
                    LaneSystem { b, x, ws, cancel }
                });
            let mut prec = kind.build_preconditioner(ctx, opts);
            bicgstab_solve_batch(ctx, Scope::Global, systems, &mut *prec, params)
        } else {
            Vec::new()
        };
        let mut outs = outs.into_iter();
        loaded
            .into_iter()
            .map(|verdict| verdict.map(|()| outs.next().expect("one outcome per solved lane")))
            .collect()
    }

    /// Solve one batch of right-hand sides concurrently: load every one
    /// into its slot, solve them as one list of lanes
    /// ([`solve_lanes`](PoissonSolver::solve_lanes)), download every
    /// solution. Each lane's result is bitwise that of a solo
    /// [`resolve_with_rhs`](PoissonSolver::resolve_with_rhs) against the
    /// same RHS; a malformed lane gets its [`SetupError`] without
    /// poisoning the batch. Lane 0 runs in slot 0, so afterwards
    /// [`solution_local`](PoissonSolver::solution_local) and
    /// [`rhs_norm`](PoissonSolver::rhs_norm) report it (if it was
    /// accepted). `cancels` is empty or one optional token per lane.
    pub fn solve_batch(
        &mut self,
        rhs_locals: &[&[f64]],
        kind: SolverKind,
        opts: &SolverOptions,
        params: &SolveParams,
        cancels: &[Option<CancelToken>],
    ) -> Vec<Result<LaneSolve, SetupError>> {
        let lanes: Vec<LaneRhs<'_>> = rhs_locals.iter().map(|&rhs| LaneRhs::Load(rhs)).collect();
        let outs = self.solve_lanes(&lanes, kind, opts, params, cancels);
        outs.into_iter()
            .zip(&self.slots)
            .map(|(verdict, slot)| {
                verdict.map(|outcome| LaneSolve {
                    outcome,
                    solution_local: slot.solution(&self.ctx.grid),
                    rhs_norm: slot.norm,
                })
            })
            .collect()
    }

    /// Swap in a fresh local right-hand side for slot 0, keeping the
    /// grid, the operator, the Krylov [`Workspace`] and every device
    /// allocation of this solver: only the new RHS is re-normalised and
    /// uploaded (the warm path of a serving layer — the setup phase the
    /// paper amortises is skipped entirely).
    pub fn set_rhs(&mut self, rhs_local: &[f64]) -> Result<(), SetupError> {
        self.load(&[LaneRhs::Load(rhs_local)]).remove(0)
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
        let lane = [LaneRhs::Load(rhs_local)];
        self.solve_lanes(&lane, kind, opts, params, &[]).remove(0)
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

    /// Global norm slot 0's right-hand side was normalised by.
    pub fn rhs_norm(&self) -> f64 {
        self.slots[0].norm
    }

    /// Solve slot 0's right-hand side with one solver configuration from
    /// a zero initial guess.
    ///
    /// `params.tol` is relative to the RHS (the stored `b` is normalised).
    pub fn solve(
        &mut self,
        kind: SolverKind,
        opts: &SolverOptions,
        params: &SolveParams,
    ) -> SolveOutcome {
        let keep = [LaneRhs::Keep];
        let out = self.solve_lanes(&keep, kind, opts, params, &[]).remove(0);
        out.expect("slot 0 holds a right-hand side from construction on")
    }

    /// Download slot 0's interior solution on this rank, un-normalised
    /// back to the original RHS scale (one D2H transfer).
    pub fn solution_local(&self) -> Vec<f64> {
        self.slots[0].solution(&self.ctx.grid)
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

    /// Slots outlive the call: after a batch, slot 0 is the solver's own
    /// lane again (`solution_local`/`rhs_norm` report the batch's lane 0),
    /// and a later `solve_lanes` that keeps every slot's right-hand side
    /// re-solves each lane bitwise, while a slot no call has loaded
    /// refuses.
    #[test]
    fn kept_slots_resolve_bitwise_and_unloaded_slots_refuse() {
        let kind = SolverKind::BiCgsGNoCommCi;
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..Default::default()
        };
        let params = SolveParams {
            tol: 1e-10,
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
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };

        let lanes = solver.solve_batch(&[&rhs_other, &rhs_paper], kind, &opts, &params, &[]);
        let lanes: Vec<LaneSolve> = lanes.into_iter().map(|l| l.expect("valid")).collect();
        assert_eq!(
            bits(&solver.solution_local()),
            bits(&lanes[0].solution_local)
        );
        assert_eq!(solver.rhs_norm().to_bits(), lanes[0].rhs_norm.to_bits());

        let again = solver.solve_lanes(&[LaneRhs::Keep; 3], kind, &opts, &params, &[]);
        for (l, lane) in lanes.iter().enumerate() {
            let kept = again[l].as_ref().expect("a loaded slot keeps its RHS");
            assert_eq!(kept.iterations, lane.outcome.iterations, "lane {l}");
            assert_eq!(
                bits(&kept.residual_history),
                bits(&lane.outcome.residual_history),
                "lane {l}: a kept RHS must solve like the loaded one"
            );
        }
        assert_eq!(again[2].as_ref().unwrap_err(), &SetupError::ZeroRhs);
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

    /// The same warm-path guarantee distributed: 8 ranks, blocking
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

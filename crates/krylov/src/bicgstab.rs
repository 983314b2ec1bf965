//! Preconditioned Bi-CGSTAB exactly as implemented in the paper (Alg. 3),
//! on the one production schedule.
//!
//! One outer iteration is two preconditioner applications, two halo
//! exchanges and **five** full-grid sweeps; on a multi-rank world its
//! scalars travel in exactly **two** batched reduction messages:
//!
//! ```text
//! Preconditioner  MPI1+BCs  KernelBiCGS1 (w = A p̂ ⊕ σ = r̃ᵀw)
//!   M1: iall_reduce [σ, ‖r‖²_prev]  ∥  KernelBiCGS4 (x ← (x+α p̂)+ω r̂)  host α
//! KernelBiCGS2F (r −= αw ⊕ σ₃)   Preconditioner
//! MPI3+BCs  KernelBiCGS3F (t = A r̂ ⊕ σ₁,σ₂,σ₄)
//!   M2: reduce [σ₁,σ₂,σ₃,σ₄]                                          host ω, ρ, β
//! KernelBiCGS56 (r −= ωt ⊕ ‖r‖² ⊕ p ← r + β(p − ωw))
//! ```
//!
//! Nothing about the schedule is selectable — the driver derives it from
//! the world it is handed:
//!
//! * **Halo.** The two operator applications run split-phase
//!   (`begin → BCs → interior sweep → finish → shell sweep → row fold`)
//!   exactly when [`RankCtx::split_phase_halo`] says so: the scope
//!   communicates *and* this rank has an interface face. Otherwise one
//!   monolithic fused sweep does the same arithmetic in one launch.
//! * **Reductions.** In [`Scope::Global`] on more than one rank M1 is
//!   posted split-phase with the previous iteration's merged x-update
//!   computing under it (its `p̂` survives the next preconditioner
//!   application in the `Workspace::p_hat_prev` ping-pong buffer) and
//!   the stopping decision is read one message late. Elsewhere
//!   reductions are free, so each stage reduces in place and nothing
//!   lags.
//!
//! Every arm produces the same bits: fusion and splitting regroup *which
//! loop* computes a value, never the order of the float operations
//! inside a row or the tree that merges row partials; batching regroups
//! which scalars share a message, and the element-wise rank-ordered fold
//! is oblivious to grouping. The historical schedule — eleven unfused
//! sweeps, blocking exchanges, one blocking reduction per stage — lives
//! on as [`crate::reference::bicgstab_reference`], the bitwise oracle
//! this driver is property-tested against.
//!
//! Two tricks make ≤2 messages possible (the reference uses both too, so
//! the schedules differ in message *grouping*, never in values):
//!
//! * **ρ by recurrence.** `ρ_{i+1} = r̃ᵀr_{i+1} = r̃ᵀs − ω r̃ᵀt`
//!   (`s = r − αw` is the half-updated residual). The two extra dots
//!   `σ₃ = r̃ᵀs`, `σ₄ = r̃ᵀt` ride in M2 *before* ω exists, breaking the
//!   serial ω → ρ dependency that forced a third reduction. The
//!   convergence norm `‖r‖²` stays a *direct* dot (the analogous
//!   recurrence cancels catastrophically near convergence).
//! * **Lagged convergence check.** `‖r_i‖²` is reduced inside iteration
//!   `i+1`'s M1 and iteration `i`'s stopping decision is taken one
//!   iteration late — at the cost of one speculative preconditioner
//!   application on the final iteration.
//!
//! The same routine serves as the *outer* solver and — in [`Scope::Local`]
//! and [`Scope::Global`] flavours with an identity preconditioner — as the
//! *inner* solver of the `G(BiCGS)` and `BJ(BiCGS)` preconditioners:
//! local scope skips every exchange and reduction and restricts the
//! operator to the subdomain block (Eq. 13).

use accel::Device;
use accel::Scalar;
use accel::REDUCE_OVERLAP_STAGE;
use blockgrid::Field;
use comm::{Communicator, ReduceOp};
use stencil::apply_physical_bcs;

use crate::cancel::CancelToken;
use crate::ctx::{BatchWorkspace, RankCtx, Workspace};
use crate::kernels::{
    axpy2_chained_batch, axpy2_chained_inplace, axpy_dot, axpy_dot_batch, diff_norm2, norm2_axpy,
    norm2_axpy_batch, residual_p_update_fused, residual_p_update_fused_batch,
    residual_update_fused, INFO_BICGS1, INFO_BICGS2F, INFO_BICGS3F, INFO_BICGS4, INFO_BICGS5,
    INFO_BICGS56, INFO_DOT, INFO_FOLD1, INFO_FOLD3, INFO_NORM2AXPY,
};
use crate::precond::Preconditioner;

/// Whether the solve is the global problem or a subdomain-restricted one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scope {
    /// Global system: halo exchanges and `MPI_Allreduce` reductions.
    Global,
    /// Block-restricted system `R_s A R_sᵀ x = R_s b`: communication-free,
    /// local reductions only (inner solver of `BJ(BiCGS)`).
    Local,
}

/// Stopping parameters of one Bi-CGSTAB solve.
#[derive(Clone, Debug)]
pub struct SolveParams {
    /// Absolute tolerance on the residual 2-norm (the caller normalises
    /// the RHS, making this a relative tolerance as in the paper).
    pub tol: f64,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Record the residual-norm history (Figs. 2–4).
    pub record_history: bool,
    /// Every `k` outer iterations recompute the *true* residual
    /// `‖b − A x‖` (one extra exchange + sweep + reduction) and use it
    /// for the convergence decision; `0` disables. Guards against the
    /// recursive-residual drift inherent to BiCGStab's non-monotone
    /// updates (visible in the paper's Fig. 2).
    pub true_residual_every: usize,
    /// On a ρ/ω breakdown, restart with a fresh shadow residual
    /// (`r̃ = r`, recomputed true residual) up to this many times before
    /// reporting the breakdown.
    pub max_restarts: usize,
    /// Cooperative cancellation flag, polled collectively once per outer
    /// iteration (see [`CancelToken`]). `None` adds no messages and no
    /// polling; on a multi-rank world an installed token adds no
    /// messages either — the flag rides the M1 batch as one extra
    /// scalar rather than a dedicated blocking reduction.
    pub cancel: Option<CancelToken>,
}

impl Default for SolveParams {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iters: 10_000,
            record_history: true,
            true_residual_every: 0,
            max_restarts: 0,
            cancel: None,
        }
    }
}

/// Why a solve stopped before converging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Breakdown {
    /// `r̃ᵀ A p̂` vanished (α undefined).
    PSumZero,
    /// `ρ` vanished (β undefined).
    RhoZero,
    /// `ω` vanished with a non-converged residual (stagnation).
    OmegaZero,
    /// A non-finite value appeared (overflow / NaN).
    NonFinite,
}

/// Outcome of one solve; identical on every rank in [`Scope::Global`].
#[derive(Clone, Debug)]
pub struct SolveOutcome {
    /// `true` if the residual tolerance was met.
    pub converged: bool,
    /// Outer iterations performed.
    pub iterations: usize,
    /// Total preconditioner sweeps across all applications.
    pub prec_iterations: u64,
    /// Residual 2-norm per outer iteration, starting with `‖r_0‖`.
    pub residual_history: Vec<f64>,
    /// Final residual 2-norm.
    pub final_residual: f64,
    /// Breakdown cause, if any.
    pub breakdown: Option<Breakdown>,
    /// Number of shadow-residual restarts taken (see
    /// [`SolveParams::max_restarts`]).
    pub restarts: usize,
    /// `(iteration, ‖b − A x‖)` samples when
    /// [`SolveParams::true_residual_every`] is active.
    pub true_residuals: Vec<(usize, f64)>,
    /// `true` when the solve stopped because its [`CancelToken`] fired
    /// (the iterate is valid up to the last completed iteration).
    pub cancelled: bool,
}

impl SolveOutcome {
    /// Mean preconditioner sweeps per outer iteration (Table II column).
    pub fn prec_per_outer(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.prec_iterations as f64 / self.iterations as f64
        }
    }
}

/// Refresh ghost layers for an operator application in `scope`.
pub(crate) fn refresh_ghosts<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    f: &mut Field<T>,
) {
    match scope {
        Scope::Global => {
            ctx.recorder
                .stage(stage, || ctx.halo.exchange(&ctx.dev, &ctx.comm, f));
            apply_physical_bcs(&ctx.grid, f, &ctx.recorder, false);
        }
        Scope::Local => {
            apply_physical_bcs(&ctx.grid, f, &ctx.recorder, true);
        }
    }
}

/// `w = A u` with ghosts refreshed in `scope`.
///
/// When `split` is set the halo exchange is split-phase and hidden
/// behind the ghost-independent work:
/// `begin → KernelNeumannBCs → apply_interior → finish → apply_shell`.
/// The boundary-condition kernel and the window sweep touch no
/// interface ghost, so they run while the messages are in flight; the
/// shell sweep completes the cover afterwards. Each interior cell is
/// written exactly once with the same arithmetic as the monolithic
/// sweep, so `w` is bitwise-identical to the synchronous path.
fn refresh_and_apply<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    split: bool,
    u: &mut Field<T>,
    w: &mut Field<T>,
) {
    let info = stencil::INFO_APPLY;
    if split {
        let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, u);
        apply_physical_bcs(&ctx.grid, u, &ctx.recorder, false);
        ctx.lap.apply_interior(&ctx.dev, info, u, w);
        ctx.halo.finish(&ctx.dev, &ctx.comm, pending, u);
        ctx.lap.apply_shell(&ctx.dev, info, u, w);
    } else {
        refresh_ghosts(ctx, scope, stage, u);
        ctx.lap.apply(&ctx.dev, info, u, w);
    }
}

/// Sum `vals` across ranks in [`Scope::Global`]; local identity otherwise.
///
/// Routed through [`Communicator::reduce_batch`] so the blocking call
/// sites share the same pack/fold path as the split-phase M1 batch.
pub(crate) fn global_sum<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    vals: &mut [T],
) {
    if scope == Scope::Global {
        ctx.recorder
            .stage(stage, || ctx.comm.reduce_batch(&mut [vals], ReduceOp::Sum));
    }
}

/// Whether the scalars of a solve in `scope` take the lagged two-message
/// schedule: only a real multi-rank world pays for reductions; on one
/// rank (and in the reduction-local [`Scope::Local`]) they are free and
/// the lag would only spend an extra preconditioner application.
fn lagged_reductions<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
) -> bool {
    scope == Scope::Global && ctx.comm.size() > 1
}

/// Solve `A x = b` with preconditioned Bi-CGSTAB (Alg. 3).
///
/// `x` holds the initial guess on entry and the solution on exit.
/// In [`Scope::Global`] the outcome is identical on every rank (all
/// stopping decisions are made on allreduced quantities).
pub fn bicgstab_solve<T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    b: &Field<T>,
    x: &mut Field<T>,
    prec: &mut P,
    ws: &mut Workspace<T>,
    params: &SolveParams,
) -> SolveOutcome
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    // LINT: alloc-ok(per-solve convergence bookkeeping, grows amortised
    // outside the audited steady-state window)
    let mut history = Vec::new();
    let mut prec_iterations = 0u64;

    let split = ctx.split_phase_halo(scope == Scope::Global);
    let lag = lagged_reductions(ctx, scope);

    // r_0 = b − A x_0 and ρ_0 = r̃ᵀ r_0 = ‖r_0‖² in one sweep
    // (KernelNorm2Axpy; r̃ = r_0 elementwise, so the fused norm is the
    // same sequence of products as the dot).
    refresh_and_apply(ctx, scope, "MPI0", split, x, &mut ws.w);
    let mut sums = [norm2_axpy(
        &ctx.dev,
        INFO_NORM2AXPY,
        &ctx.grid,
        &mut ws.r,
        b,
        &ws.w,
    )];
    // r̃ = r_0, p_0 = r_0
    ws.r0t.copy_from(&ws.r);
    ws.p.copy_from(&ws.r);
    global_sum(ctx, scope, "MPI0", &mut sums);
    let mut rho = sums[0];
    let res0 = rho.to_f64().max(0.0).sqrt();
    if params.record_history {
        history.push(res0);
    }
    if res0 < params.tol {
        return SolveOutcome {
            converged: true,
            iterations: 0,
            prec_iterations: 0,
            residual_history: history,
            final_residual: res0,
            breakdown: None,
            restarts: 0,
            // LINT: alloc-ok(empty vec for the zero-iteration early return)
            true_residuals: Vec::new(),
            cancelled: false,
        };
    }

    let mut outcome_breakdown = None;
    let mut converged = false;
    let mut final_residual = res0;
    let mut iterations = 0;
    let mut restarts = 0usize;
    // LINT: alloc-ok(per-solve diagnostic bookkeeping, off the iteration path)
    let mut true_residuals: Vec<(usize, f64)> = Vec::new();
    let mut cancelled = false;

    // Lag state: `(i, ‖r_i‖²_local, ω_i, α_i)` — iteration i's
    // not-yet-reduced convergence norm and its deferred merged x-update
    // `x ← (x + α p̂) + ω r̂`, both completed under iteration i+1's M1.
    let mut lagged: Option<(usize, T, T, T)> = None;

    /// Iteration `$j`'s epilogue once its global `‖r_j‖²` is in hand:
    /// history/final-residual bookkeeping and the stopping ladder
    /// (non-finite → converged → true-residual guard). `break`s out of
    /// the enclosing loop on any stop, falls through otherwise.
    macro_rules! finish_iteration {
        ($j:expr, $rnorm2:expr) => {{
            let j = $j;
            let res = $rnorm2.to_f64().max(0.0).sqrt();
            final_residual = res;
            if params.record_history {
                history.push(res);
            }
            if !res.is_finite() {
                outcome_breakdown = Some(Breakdown::NonFinite);
                iterations = j;
                break;
            }
            if res < params.tol {
                converged = true;
                iterations = j;
                break;
            }
            // Optional drift guard: recompute the true residual
            // ‖b − A x‖ (the recursive residual can decouple from it in
            // long stagnating solves) and let it decide convergence too.
            if params.true_residual_every > 0 && j % params.true_residual_every == 0 {
                refresh_and_apply(ctx, scope, "MPI6", split, x, &mut ws.t);
                let mut s = [diff_norm2(&ctx.dev, INFO_DOT, &ctx.grid, b, &ws.t)];
                global_sum(ctx, scope, "MPI6", &mut s);
                let tres = s[0].to_f64().max(0.0).sqrt();
                true_residuals.push((j, tres));
                if tres < params.tol {
                    final_residual = tres;
                    converged = true;
                    iterations = j;
                    break;
                }
            }
        }};
    }

    for i in 1..=params.max_iters {
        // Cooperative cancellation, decided collectively so every rank
        // breaks on the same iteration: each rank reduces its local view
        // of the flag and any rank's request stops them all. Under the
        // lagged schedule the flag rides the M1 batch instead (see
        // below) — a dedicated blocking reduction here would reintroduce
        // the per-iteration synchronous message the batching removed.
        if !lag {
            if let Some(token) = &params.cancel {
                let mut flag = [if token.is_cancelled() {
                    T::ONE
                } else {
                    T::ZERO
                }];
                global_sum(ctx, scope, "MPIC", &mut flag);
                if flag[0] != T::ZERO {
                    cancelled = true;
                    iterations = i - 1;
                    break;
                }
            }
        }
        iterations = i;

        /// On a curable breakdown: restart the Krylov process from the
        /// current iterate with a fresh shadow residual (`r̃ = r`), or
        /// give up when the restart budget is spent.
        macro_rules! breakdown_or_restart {
            ($kind:expr) => {{
                let kind = $kind;
                if restarts < params.max_restarts && kind != Breakdown::NonFinite {
                    restarts += 1;
                    refresh_and_apply(ctx, scope, "MPI0", split, x, &mut ws.w);
                    let mut s = [norm2_axpy(
                        &ctx.dev,
                        INFO_NORM2AXPY,
                        &ctx.grid,
                        &mut ws.r,
                        b,
                        &ws.w,
                    )];
                    ws.r0t.copy_from(&ws.r);
                    ws.p.copy_from(&ws.r);
                    global_sum(ctx, scope, "MPI0", &mut s);
                    rho = s[0];
                    let res = rho.to_f64().max(0.0).sqrt();
                    final_residual = res;
                    if res < params.tol {
                        converged = true;
                        break;
                    }
                    continue;
                } else {
                    outcome_breakdown = Some(kind);
                    break;
                }
            }};
        }

        // Solve M p̂ = p
        prec_iterations += ctx.recorder.stage("Preconditioner", || {
            prec.apply(ctx, &mut ws.p, &mut ws.p_hat)
        }) as u64;
        // MPI1 + KernelNeumannBCs, then KernelBiCGS1: w = A p̂, σ = r̃ᵀ w.
        // Split, the window and shell sweeps *keep* their dot: each
        // piece deposits per-row partials into the slot buffer and a row
        // fold completes the scalar — still one full-grid sweep, bitwise
        // equal to the monolithic KernelBiCGS1.
        let psum_local = if split {
            let r0s = ws.r0t.as_slice();
            let terms = |c: usize, v: T| [r0s[c] * v];
            let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, &ws.p_hat);
            apply_physical_bcs(&ctx.grid, &mut ws.p_hat, &ctx.recorder, false);
            ctx.lap.apply_interior_dot(
                &ctx.dev,
                INFO_BICGS1,
                &ws.p_hat,
                &mut ws.w,
                &mut ws.slots,
                &terms,
            );
            ctx.halo.finish(&ctx.dev, &ctx.comm, pending, &mut ws.p_hat);
            let fold = ctx.lap.apply_shell_dot(
                &ctx.dev,
                INFO_BICGS1,
                &ws.p_hat,
                &mut ws.w,
                &mut ws.slots,
                &terms,
            );
            let [s] = fold.fold(&ctx.dev, INFO_FOLD1, &ws.slots);
            s
        } else {
            refresh_ghosts(ctx, scope, "MPI1", &mut ws.p_hat);
            ctx.lap
                .apply_fused_dot(&ctx.dev, INFO_BICGS1, &ws.p_hat, &mut ws.w, &ws.r0t)
        };
        // M1: reduce σ = r̃ᵀw — lagged, batched with the previous
        // iteration's ‖r‖² and posted split-phase so the previous
        // iteration's deferred x-update computes while the message is in
        // flight.
        let psum = if lag {
            ctx.recorder.begin(REDUCE_OVERLAP_STAGE);
            // The cancel poll piggybacks on M1 as one extra scalar, so
            // an installed token adds no message: the flag is sampled
            // here instead of at the loop top, and the decision lands
            // after the deferred x-update below completes the previous
            // iterate — the same iteration boundary the blocking poll
            // stops at.
            let cancel_local = params.cancel.as_ref().map(|token| {
                [if token.is_cancelled() {
                    T::ONE
                } else {
                    T::ZERO
                }]
            });
            let rnorm2_prev = lagged.as_ref().map(|(_, r, _, _)| [*r]);
            let psl = [psum_local];
            // Fixed-capacity group list: the M1 batch is at most
            // [σ, ‖r‖²_prev, cancel] and the hot loop must not allocate.
            let mut groups: [&[T]; 3] = [&psl; 3];
            let mut ng = 1;
            if let Some(r) = &rnorm2_prev {
                groups[ng] = r;
                ng += 1;
            }
            if let Some(c) = &cancel_local {
                groups[ng] = c;
                ng += 1;
            }
            let req = ctx.comm.iall_reduce_batch(&groups[..ng], ReduceOp::Sum);
            if let Some((_, _, omega_prev, alpha_prev)) = lagged {
                // KernelBiCGS4 deferred from iteration i−1:
                // x ← (x + α p̂_prev) + ω r̂, chained exactly as the
                // reference's 4a/4b pair so the iterate matches bitwise.
                axpy2_chained_inplace(
                    &ctx.dev,
                    INFO_BICGS4,
                    &ctx.grid,
                    x,
                    &ws.p_hat_prev,
                    alpha_prev,
                    &ws.r_hat,
                    omega_prev,
                );
            }
            let mut red = [T::ZERO; 3];
            ctx.comm.reduce_finish(req, &mut red[..ng]);
            ctx.recorder.end(REDUCE_OVERLAP_STAGE);
            let had_lag = lagged.is_some();
            if let Some((prev, _, _, _)) = lagged.take() {
                // iteration i−1's stopping decisions, one message late
                finish_iteration!(prev, red[1]);
            }
            if cancel_local.is_some() && red[1 + usize::from(had_lag)] != T::ZERO {
                // Every rank reads the same reduced sum, so all break
                // together; x is complete through iteration i−1 (the
                // deferred update just landed above).
                cancelled = true;
                iterations = i - 1;
                break;
            }
            red[0]
        } else {
            let mut sums = [psum_local];
            global_sum(ctx, scope, "MPI2", &mut sums);
            sums[0]
        };
        if !psum.is_finite() {
            outcome_breakdown = Some(Breakdown::NonFinite);
            break;
        }
        if psum == T::ZERO {
            breakdown_or_restart!(Breakdown::PSumZero);
        }
        let alpha = rho / psum;

        // KernelBiCGS2F: r ← r − α w, and σ₃ = r̃ᵀ s — the first half of
        // the ρ recurrence ρ_{i+1} = r̃ᵀ r_{i+1} = r̃ᵀ s − ω r̃ᵀ t.
        // Computing ρ this way frees it from its serial dependence on ω,
        // letting it ride in M2 alongside the ω dots instead of forcing a
        // third reduction.
        let c3_local = axpy_dot(
            &ctx.dev,
            INFO_BICGS2F,
            &ctx.grid,
            &mut ws.r,
            &ws.w,
            -alpha,
            &ws.r0t,
        );

        // Solve M r̂ = r
        prec_iterations += ctx.recorder.stage("Preconditioner", || {
            prec.apply(ctx, &mut ws.r, &mut ws.r_hat)
        }) as u64;
        // MPI3 + BCs, then KernelBiCGS3F: t = A r̂ with p1 = tᵀ r,
        // p2 = tᵀ t and σ₄ = r̃ᵀ t (second half of the ρ recurrence), all
        // three dots riding in the stencil sweep.
        let [p1l, p2l, c4_local] = if split {
            let rs = ws.r.as_slice();
            let r0s = ws.r0t.as_slice();
            let terms = |c: usize, v: T| [v * rs[c], v * v, r0s[c] * v];
            let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, &ws.r_hat);
            apply_physical_bcs(&ctx.grid, &mut ws.r_hat, &ctx.recorder, false);
            ctx.lap.apply_interior_dot(
                &ctx.dev,
                INFO_BICGS3F,
                &ws.r_hat,
                &mut ws.t,
                &mut ws.slots,
                &terms,
            );
            ctx.halo.finish(&ctx.dev, &ctx.comm, pending, &mut ws.r_hat);
            let fold = ctx.lap.apply_shell_dot(
                &ctx.dev,
                INFO_BICGS3F,
                &ws.r_hat,
                &mut ws.t,
                &mut ws.slots,
                &terms,
            );
            fold.fold(&ctx.dev, INFO_FOLD3, &ws.slots)
        } else {
            refresh_ghosts(ctx, scope, "MPI3", &mut ws.r_hat);
            let (a, b2, c) = ctx.lap.apply_fused_dot3(
                &ctx.dev,
                INFO_BICGS3F,
                &ws.r_hat,
                &mut ws.t,
                &ws.r,
                &ws.r0t,
            );
            [a, b2, c]
        };

        // M2: all four scalars in one blocking batch — both x-halves
        // ride in next iteration's merged KernelBiCGS4 sweep, so there
        // is nothing left to hide under this message.
        let mut sums = [p1l, p2l, c3_local, c4_local];
        global_sum(ctx, scope, "MPI4", &mut sums);
        let [p1, p2, c3, c4] = sums;
        if !(p1.is_finite() && p2.is_finite()) {
            outcome_breakdown = Some(Breakdown::NonFinite);
            break;
        }
        // t = 0 can only happen when r is (numerically) zero; ω = 0 keeps
        // the update well-defined and the convergence check decides.
        let omega = if p2 == T::ZERO { T::ZERO } else { p1 / p2 };
        let rho_new = c3 - omega * c4;

        // β only exists when ρ and ω are both non-zero, so breakdown is
        // decided *before* the residual/p sweep and the fused
        // KernelBiCGS56 only runs on the healthy path.
        if rho_new != T::ZERO && omega != T::ZERO {
            let beta = (rho_new / rho) * (alpha / omega);
            rho = rho_new;
            // KernelBiCGS56: r ← r − ω t, ‖r‖² and p ← r + β (p − ω w)
            // in one sweep. The direct ‖r‖² is kept — ρ already came
            // from the recurrence (the direct norm avoids the
            // cancellation a norm recurrence suffers near convergence).
            let rnorm2_local = residual_p_update_fused(
                &ctx.dev,
                INFO_BICGS56,
                &ctx.grid,
                &mut ws.r,
                &mut ws.p,
                &ws.t,
                &ws.w,
                omega,
                beta,
            );
            if lag {
                // The x-update defers into next iteration's M1 window;
                // keep this p̂ alive across the swap.
                lagged = Some((i, rnorm2_local, omega, alpha));
                std::mem::swap(&mut ws.p_hat, &mut ws.p_hat_prev);
            } else {
                // KernelBiCGS4: x ← (x + α p̂) + ω r̂
                axpy2_chained_inplace(
                    &ctx.dev,
                    INFO_BICGS4,
                    &ctx.grid,
                    x,
                    &ws.p_hat,
                    alpha,
                    &ws.r_hat,
                    omega,
                );
                let mut s = [rnorm2_local];
                global_sum(ctx, scope, "MPI5", &mut s);
                finish_iteration!(i, s[0]);
            }
        } else {
            // Breakdown pre-empts the fusion and the lag: β is undefined,
            // so finish the iteration eagerly with the plain residual
            // update, the merged x sweep and a blocking norm reduction —
            // convergence keeps its priority over the breakdown and a
            // restart resumes from the fully-updated iterate.
            let (_, rnorm2_local) = residual_update_fused(
                &ctx.dev,
                INFO_BICGS5,
                &ctx.grid,
                &mut ws.r,
                &ws.t,
                omega,
                &ws.r0t,
            );
            axpy2_chained_inplace(
                &ctx.dev,
                INFO_BICGS4,
                &ctx.grid,
                x,
                &ws.p_hat,
                alpha,
                &ws.r_hat,
                omega,
            );
            let mut s = [rnorm2_local];
            global_sum(ctx, scope, "MPI5", &mut s);
            finish_iteration!(i, s[0]);
            if rho_new == T::ZERO {
                breakdown_or_restart!(Breakdown::RhoZero);
            } else {
                // stagnated: ω = 0 with a non-converged residual
                breakdown_or_restart!(Breakdown::OmegaZero);
            }
        }
    }

    // Drain the lag when the iteration budget ran out with the last
    // iteration's bookkeeping still in flight: apply its deferred
    // x-update (its p̂ lives in the swapped buffer) and take its stopping
    // decisions (the one-shot loop hosts the macro's `break`s).
    if let Some((j, rnorm2_local, omega_prev, alpha_prev)) = lagged.take() {
        axpy2_chained_inplace(
            &ctx.dev,
            INFO_BICGS4,
            &ctx.grid,
            x,
            &ws.p_hat_prev,
            alpha_prev,
            &ws.r_hat,
            omega_prev,
        );
        let mut s = [rnorm2_local];
        global_sum(ctx, scope, "MPI5", &mut s);
        #[allow(clippy::never_loop)]
        loop {
            finish_iteration!(j, s[0]);
            break;
        }
    }

    SolveOutcome {
        converged,
        iterations,
        prec_iterations,
        residual_history: history,
        final_residual,
        breakdown: outcome_breakdown,
        restarts,
        true_residuals,
        cancelled: cancelled && !converged,
    }
}

/// Per-lane progress of a batched solve: the scalar recurrence state and
/// the convergence bookkeeping a solo [`bicgstab_solve`] keeps in locals.
struct Lane<T> {
    rho: T,
    alpha: T,
    omega: T,
    beta: T,
    /// `(iteration, ‖r‖²_local, ω, α)` awaiting next M1 (lag schedule).
    lag: Option<(usize, T, T, T)>,
    history: Vec<f64>,
    final_residual: f64,
    iterations: usize,
    prec_iterations: u64,
    converged: bool,
    breakdown: Option<Breakdown>,
    cancelled: bool,
    /// A frozen lane takes no further part in kernels, halo messages or
    /// reduction *values* (its fixed message slots carry zero).
    frozen: bool,
}

/// Iteration `j`'s epilogue for one lane of a batched solve, once its
/// global `‖r_j‖²` is in hand — the batch counterpart of the solo
/// `finish_iteration!` ladder (minus the true-residual guard, which the
/// batch path does not support). Returns `true` when the lane stops.
fn lane_finish<T: Scalar>(lane: &mut Lane<T>, params: &SolveParams, j: usize, rnorm2: T) -> bool {
    let res = rnorm2.to_f64().max(0.0).sqrt();
    lane.final_residual = res;
    if params.record_history {
        lane.history.push(res);
    }
    if !res.is_finite() {
        lane.breakdown = Some(Breakdown::NonFinite);
        lane.iterations = j;
        return true;
    }
    if res < params.tol {
        lane.converged = true;
        lane.iterations = j;
        return true;
    }
    false
}

/// Refresh ghost layers of several lanes for an operator application in
/// `scope`: one batched halo exchange carrying every lane's face planes
/// per message, then the per-lane physical-BC kernels.
fn refresh_ghosts_many<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    fields: &mut [&mut Field<T>],
) {
    match scope {
        Scope::Global => {
            ctx.recorder.stage(stage, || {
                ctx.halo.exchange_batch(&ctx.dev, &ctx.comm, fields)
            });
            for f in fields.iter_mut() {
                apply_physical_bcs(&ctx.grid, f, &ctx.recorder, false);
            }
        }
        Scope::Local => {
            for f in fields.iter_mut() {
                apply_physical_bcs(&ctx.grid, f, &ctx.recorder, true);
            }
        }
    }
}

/// Sum each group of `groups` element-wise across ranks in
/// [`Scope::Global`] (one message); local identity otherwise.
fn global_sum_groups<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    groups: &mut [&mut [T]],
) {
    if scope == Scope::Global {
        ctx.recorder
            .stage(stage, || ctx.comm.reduce_batch(groups, ReduceOp::Sum));
    }
}

/// Solve `A x_b = b_b` for a batch of right-hand sides with one
/// Bi-CGSTAB instance per lane, amortising sweeps, halo messages and
/// reductions across the batch (the multi-RHS tentpole):
///
/// * every full-grid vector sweep strides all live lanes inside **one**
///   kernel launch (`*_batch` kernels over the accel lane-launch API);
/// * every halo exchange packs all live lanes' face planes into **one**
///   message per face ([`blockgrid::HaloExchange::exchange_batch`]);
/// * every reduction ships all lanes' scalars in the **same** messages —
///   the per-iteration message count stays 2 (M1 split-phase, M2
///   blocking) regardless of batch width, instead of `2 B`.
///
/// Lane `b` runs the exact solo schedule: its iterates, residual
/// history and stopping decisions are **bitwise identical** to
/// `bicgstab_solve(ctx, scope, bs[b], xs[b], precs[b], …, params)` under
/// a deterministic [`comm::ReduceOrder`] — batching only regroups which
/// scalars share a message and which sweep covers a row, never the
/// arithmetic order inside a lane. Converged, cancelled or broken-down
/// lanes *freeze*: they drop out of kernels and halo payloads while
/// their fixed message slots carry zeros, so the remaining lanes'
/// schedules (and bit patterns) are unaffected.
///
/// Restrictions relative to the solo path (asserted): no true-residual
/// guard and no breakdown restarts — a lane that breaks down freezes
/// and reports its [`Breakdown`] instead of restarting. Halo exchanges
/// are blocking (one batched message per face). Cancellation is **per
/// lane** via `cancels` (empty slice: none; otherwise one optional token
/// per lane, present on every rank); [`SolveParams::cancel`] must be
/// `None`. In the lagged schedule the cancel flags ride the M1 batch —
/// `B` extra scalars, zero extra messages.
///
/// Every rank must pass the same batch width and freeze decisions are
/// taken on allreduced values, so the live-lane set — and hence the
/// kernel, halo and message schedule — stays identical on every rank.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab_solve_batch<T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    bs: &[&Field<T>],
    xs: &mut [&mut Field<T>],
    precs: &mut [&mut P],
    bws: &mut BatchWorkspace<T>,
    params: &SolveParams,
    cancels: &[Option<CancelToken>],
) -> Vec<SolveOutcome>
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    let nb = bs.len();
    assert_eq!(xs.len(), nb, "one iterate per right-hand side");
    assert_eq!(precs.len(), nb, "one preconditioner per lane");
    assert!(
        bws.lanes.len() >= nb,
        "one workspace lane per right-hand side (a wider cache is fine; the first {nb} are used)"
    );
    assert!(
        cancels.is_empty() || cancels.len() == nb,
        "cancels must be empty or carry one optional token per lane"
    );
    assert!(
        params.cancel.is_none(),
        "batched solves take per-lane tokens via `cancels`, not SolveParams::cancel"
    );
    assert!(
        params.true_residual_every == 0 && params.max_restarts == 0,
        "true-residual guards and restarts are unsupported in batched solves"
    );
    if nb == 0 {
        return Vec::new();
    }

    let lag_mode = lagged_reductions(ctx, scope);
    let has_tokens = cancels.iter().any(|c| c.is_some());
    let cancel_flag = |b: usize, lanes: &[Lane<T>]| -> T {
        let live = !lanes[b].frozen;
        match cancels.get(b) {
            Some(Some(tok)) if live && tok.is_cancelled() => T::ONE,
            _ => T::ZERO,
        }
    };

    // ---- Setup (MPI0): r_0 = b − A x_0, ρ_0 = ‖r_0‖² per lane, one
    // batched exchange + one batched fused sweep + one batched reduce.
    {
        let mut fields: Vec<&mut Field<T>> = xs.iter_mut().map(|x| &mut **x).collect();
        refresh_ghosts_many(ctx, scope, "MPI0", &mut fields);
    }
    for (x, ws) in xs.iter().zip(bws.lanes.iter_mut()) {
        ctx.lap.apply(&ctx.dev, stencil::INFO_APPLY, x, &mut ws.w);
    }
    let mut rhos: Vec<T> = vec![T::ZERO; nb];
    {
        let mut accs = vec![[T::ZERO; 1]; nb];
        let mut outs: Vec<&mut [T]> = Vec::with_capacity(nb);
        let mut wsl: Vec<&[T]> = Vec::with_capacity(nb);
        for ws in bws.lanes.iter_mut().take(nb) {
            outs.push(ws.r.as_mut_slice());
            wsl.push(ws.w.as_slice());
        }
        let bsl: Vec<&[T]> = bs.iter().map(|b| b.as_slice()).collect();
        norm2_axpy_batch(
            &ctx.dev,
            INFO_NORM2AXPY,
            &ctx.grid,
            &mut outs,
            &bsl,
            &wsl,
            &mut accs,
        );
        for (rho, a) in rhos.iter_mut().zip(&accs) {
            *rho = a[0];
        }
    }
    for ws in bws.lanes.iter_mut().take(nb) {
        ws.r0t.copy_from(&ws.r);
        ws.p.copy_from(&ws.r);
    }
    global_sum(ctx, scope, "MPI0", &mut rhos);

    let mut lanes: Vec<Lane<T>> = rhos
        .iter()
        .map(|&rho| Lane {
            rho,
            alpha: T::ZERO,
            omega: T::ZERO,
            beta: T::ZERO,
            lag: None,
            history: Vec::new(),
            final_residual: 0.0,
            iterations: 0,
            prec_iterations: 0,
            converged: false,
            breakdown: None,
            cancelled: false,
            frozen: false,
        })
        .collect();
    for lane in lanes.iter_mut() {
        let res0 = lane.rho.to_f64().max(0.0).sqrt();
        lane.final_residual = res0;
        if params.record_history {
            lane.history.push(res0);
        }
        if res0 < params.tol {
            lane.converged = true;
            lane.frozen = true;
        }
    }

    for i in 1..=params.max_iters {
        let mut active: Vec<usize> = (0..nb).filter(|&b| !lanes[b].frozen).collect();
        if active.is_empty() {
            break;
        }

        // Blocking cancel poll of the unlagged schedule (one B-wide
        // group, mirroring the solo MPIC reduction). Lagged, the
        // flags ride M1 below instead — zero extra messages.
        if !lag_mode && has_tokens {
            let mut flags: Vec<T> = (0..nb).map(|b| cancel_flag(b, &lanes)).collect();
            global_sum(ctx, scope, "MPIC", &mut flags);
            for &b in &active {
                if flags[b] != T::ZERO {
                    lanes[b].cancelled = true;
                    lanes[b].iterations = i - 1;
                    lanes[b].frozen = true;
                }
            }
            active.retain(|&b| !lanes[b].frozen);
            if active.is_empty() {
                break;
            }
        }
        for &b in &active {
            lanes[b].iterations = i;
        }

        // Solve M p̂ = p per lane (preconditioners are per-lane state; the
        // lane order is fixed, so any collectives inside a communicating
        // preconditioner stay rank-uniform).
        for &b in &active {
            let ws = &mut bws.lanes[b];
            lanes[b].prec_iterations += ctx.recorder.stage("Preconditioner", || {
                precs[b].apply(ctx, &mut ws.p, &mut ws.p_hat)
            }) as u64;
        }

        // MPI1 (one batched exchange) + BCs, then batched KernelBiCGS1:
        // w = A p̂, σ = r̃ᵀ w per lane in a single sweep.
        {
            let mut fields: Vec<&mut Field<T>> = bws
                .lanes
                .iter_mut()
                .enumerate()
                .filter(|(b, _)| active.contains(b))
                .map(|(_, ws)| &mut ws.p_hat)
                .collect();
            refresh_ghosts_many(ctx, scope, "MPI1", &mut fields);
        }
        let mut psum_slots: Vec<T> = vec![T::ZERO; nb];
        {
            let mut accs = vec![[T::ZERO; 1]; active.len()];
            let mut wm: Vec<&mut [T]> = Vec::with_capacity(active.len());
            let mut us: Vec<&[T]> = Vec::with_capacity(active.len());
            let mut gs: Vec<&[T]> = Vec::with_capacity(active.len());
            for (b, ws) in bws.lanes.iter_mut().enumerate() {
                if !active.contains(&b) {
                    continue;
                }
                wm.push(ws.w.as_mut_slice());
                us.push(ws.p_hat.as_slice());
                gs.push(ws.r0t.as_slice());
            }
            ctx.lap
                .apply_fused_dot_batch(&ctx.dev, INFO_BICGS1, &us, &mut wm, &gs, &mut accs);
            for (slot, &b) in active.iter().enumerate() {
                psum_slots[b] = accs[slot][0];
            }
        }

        // M1: one chunked split-phase message carrying every lane's σ,
        // the previous iteration's lagged ‖r‖² per lane, and (token
        // installed) the per-lane cancel flags — fixed B-wide slot
        // groups, frozen slots zero. The deferred merged x-updates of
        // all lagged lanes compute under the message in one batched
        // KernelBiCGS4 sweep, exactly as solo defers its single update.
        let any_lag = lanes.iter().any(|l| l.lag.is_some());
        if lag_mode {
            let mut payload: Vec<T> = Vec::with_capacity(3 * nb);
            payload.extend_from_slice(&psum_slots);
            if any_lag {
                payload.extend((0..nb).map(|b| match lanes[b].lag {
                    Some((_, rn, _, _)) => rn,
                    None => T::ZERO,
                }));
            }
            if has_tokens {
                payload.extend((0..nb).map(|b| cancel_flag(b, &lanes)));
            }
            ctx.recorder.begin(REDUCE_OVERLAP_STAGE);
            let req = ctx.comm.iall_reduce_many(&payload, ReduceOp::Sum);
            if any_lag {
                let mut ys: Vec<&mut [T]> = Vec::with_capacity(nb);
                let mut x1s: Vec<&[T]> = Vec::with_capacity(nb);
                let mut x2s: Vec<&[T]> = Vec::with_capacity(nb);
                let mut a1s: Vec<T> = Vec::with_capacity(nb);
                let mut a2s: Vec<T> = Vec::with_capacity(nb);
                for (b, (x, ws)) in xs.iter_mut().zip(bws.lanes.iter()).enumerate() {
                    if let Some((_, _, omega_prev, alpha_prev)) = lanes[b].lag {
                        ys.push(x.as_mut_slice());
                        x1s.push(ws.p_hat_prev.as_slice());
                        x2s.push(ws.r_hat.as_slice());
                        a1s.push(alpha_prev);
                        a2s.push(omega_prev);
                    }
                }
                axpy2_chained_batch(
                    &ctx.dev,
                    INFO_BICGS4,
                    &ctx.grid,
                    &mut ys,
                    &x1s,
                    &a1s,
                    &x2s,
                    &a2s,
                );
            }
            let mut red = vec![T::ZERO; payload.len()];
            ctx.comm.reduce_finish_many(req, &mut red);
            ctx.recorder.end(REDUCE_OVERLAP_STAGE);
            psum_slots.copy_from_slice(&red[..nb]);
            // Iteration i−1's stopping decisions per lagged lane, one
            // message late (the solo lag ladder, lane-wise).
            if any_lag {
                for b in 0..nb {
                    if let Some((prev, _, _, _)) = lanes[b].lag.take() {
                        if lane_finish(&mut lanes[b], params, prev, red[nb + b]) {
                            lanes[b].frozen = true;
                        }
                    }
                }
            }
            if has_tokens {
                let off = if any_lag { 2 * nb } else { nb };
                for &b in &active {
                    if !lanes[b].frozen && red[off + b] != T::ZERO {
                        lanes[b].cancelled = true;
                        lanes[b].iterations = i - 1;
                        lanes[b].frozen = true;
                    }
                }
            }
        } else {
            global_sum(ctx, scope, "MPI2", &mut psum_slots);
        }
        for &b in &active {
            if lanes[b].frozen {
                continue;
            }
            let psum = psum_slots[b];
            if !psum.is_finite() {
                lanes[b].breakdown = Some(Breakdown::NonFinite);
                lanes[b].frozen = true;
                continue;
            }
            if psum == T::ZERO {
                lanes[b].breakdown = Some(Breakdown::PSumZero);
                lanes[b].frozen = true;
                continue;
            }
            lanes[b].alpha = lanes[b].rho / psum;
        }
        active.retain(|&b| !lanes[b].frozen);
        if active.is_empty() {
            continue;
        }

        // Batched KernelBiCGS2F: r ← r − α w with σ₃ = r̃ᵀ s per lane.
        let mut c3_slots: Vec<T> = vec![T::ZERO; nb];
        {
            let mut accs = vec![[T::ZERO; 1]; active.len()];
            let mut ys: Vec<&mut [T]> = Vec::with_capacity(active.len());
            let mut xsl: Vec<&[T]> = Vec::with_capacity(active.len());
            let mut gs: Vec<&[T]> = Vec::with_capacity(active.len());
            let mut coefs: Vec<T> = Vec::with_capacity(active.len());
            for (b, ws) in bws.lanes.iter_mut().enumerate() {
                if !active.contains(&b) {
                    continue;
                }
                ys.push(ws.r.as_mut_slice());
                xsl.push(ws.w.as_slice());
                gs.push(ws.r0t.as_slice());
                coefs.push(-lanes[b].alpha);
            }
            axpy_dot_batch(
                &ctx.dev,
                INFO_BICGS2F,
                &ctx.grid,
                &mut ys,
                &xsl,
                &coefs,
                &gs,
                &mut accs,
            );
            for (slot, &b) in active.iter().enumerate() {
                c3_slots[b] = accs[slot][0];
            }
        }

        // Solve M r̂ = r per lane.
        for &b in &active {
            let ws = &mut bws.lanes[b];
            lanes[b].prec_iterations += ctx.recorder.stage("Preconditioner", || {
                precs[b].apply(ctx, &mut ws.r, &mut ws.r_hat)
            }) as u64;
        }

        // MPI3 (one batched exchange) + BCs, then batched KernelBiCGS3F:
        // t = A r̂ with (p1, p2, σ₄) per lane in a single sweep.
        {
            let mut fields: Vec<&mut Field<T>> = bws
                .lanes
                .iter_mut()
                .enumerate()
                .filter(|(b, _)| active.contains(b))
                .map(|(_, ws)| &mut ws.r_hat)
                .collect();
            refresh_ghosts_many(ctx, scope, "MPI3", &mut fields);
        }
        let mut p1_slots: Vec<T> = vec![T::ZERO; nb];
        let mut p2_slots: Vec<T> = vec![T::ZERO; nb];
        let mut c4_slots: Vec<T> = vec![T::ZERO; nb];
        {
            let mut accs = vec![[T::ZERO; 3]; active.len()];
            let mut tm: Vec<&mut [T]> = Vec::with_capacity(active.len());
            let mut us: Vec<&[T]> = Vec::with_capacity(active.len());
            let mut rsl: Vec<&[T]> = Vec::with_capacity(active.len());
            let mut gs: Vec<&[T]> = Vec::with_capacity(active.len());
            for (b, ws) in bws.lanes.iter_mut().enumerate() {
                if !active.contains(&b) {
                    continue;
                }
                tm.push(ws.t.as_mut_slice());
                us.push(ws.r_hat.as_slice());
                rsl.push(ws.r.as_slice());
                gs.push(ws.r0t.as_slice());
            }
            ctx.lap.apply_fused_dot3_batch(
                &ctx.dev,
                INFO_BICGS3F,
                &us,
                &mut tm,
                &rsl,
                &gs,
                &mut accs,
            );
            for (slot, &b) in active.iter().enumerate() {
                p1_slots[b] = accs[slot][0];
                p2_slots[b] = accs[slot][1];
                c4_slots[b] = accs[slot][2];
            }
        }

        // M2: all four scalar groups of every lane in one blocking
        // message (the solo fused M2 blocks too — nothing is left to
        // hide under it). Fixed B-wide groups, frozen slots zero.
        global_sum_groups(
            ctx,
            scope,
            "MPI4",
            &mut [&mut p1_slots, &mut p2_slots, &mut c3_slots, &mut c4_slots],
        );

        // Per-lane ω / ρ-recurrence / β, and the breakdown partition.
        let mut healthy: Vec<usize> = Vec::with_capacity(active.len());
        let mut broken: Vec<(usize, T, T)> = Vec::new();
        for &b in &active {
            let (p1, p2, c3, c4) = (p1_slots[b], p2_slots[b], c3_slots[b], c4_slots[b]);
            if !(p1.is_finite() && p2.is_finite()) {
                lanes[b].breakdown = Some(Breakdown::NonFinite);
                lanes[b].frozen = true;
                continue;
            }
            let omega = if p2 == T::ZERO { T::ZERO } else { p1 / p2 };
            let rho_new = c3 - omega * c4;
            if rho_new == T::ZERO || omega == T::ZERO {
                broken.push((b, omega, rho_new));
            } else {
                lanes[b].beta = (rho_new / lanes[b].rho) * (lanes[b].alpha / omega);
                lanes[b].omega = omega;
                lanes[b].rho = rho_new;
                healthy.push(b);
            }
        }

        // Breakdown lanes finish eagerly with the solo kernels (constant
        // work — each lane breaks at most once per solve) and share one
        // extra blocking norm reduction; the broken set derives from
        // reduced values, so every rank takes this branch together.
        if !broken.is_empty() {
            let mut rn: Vec<T> = vec![T::ZERO; nb];
            for &(b, omega, _) in &broken {
                let ws = &mut bws.lanes[b];
                let (_, rl) = residual_update_fused(
                    &ctx.dev,
                    INFO_BICGS5,
                    &ctx.grid,
                    &mut ws.r,
                    &ws.t,
                    omega,
                    &ws.r0t,
                );
                axpy2_chained_inplace(
                    &ctx.dev,
                    INFO_BICGS4,
                    &ctx.grid,
                    &mut *xs[b],
                    &ws.p_hat,
                    lanes[b].alpha,
                    &ws.r_hat,
                    omega,
                );
                rn[b] = rl;
            }
            global_sum(ctx, scope, "MPI5", &mut rn);
            for &(b, omega, rho_new) in &broken {
                if !lane_finish(&mut lanes[b], params, i, rn[b]) {
                    lanes[b].breakdown = Some(if rho_new == T::ZERO {
                        Breakdown::RhoZero
                    } else {
                        debug_assert_eq!(omega, T::ZERO);
                        Breakdown::OmegaZero
                    });
                }
                lanes[b].frozen = true;
            }
        }
        if healthy.is_empty() {
            continue;
        }

        // Batched KernelBiCGS56: r ← r − ω t with ‖r‖² and
        // p ← r + β (p − ω w), every healthy lane in one sweep.
        let mut rn_slots: Vec<T> = vec![T::ZERO; nb];
        {
            let mut accs = vec![[T::ZERO; 1]; healthy.len()];
            let mut rm: Vec<&mut [T]> = Vec::with_capacity(healthy.len());
            let mut pm: Vec<&mut [T]> = Vec::with_capacity(healthy.len());
            let mut tsl: Vec<&[T]> = Vec::with_capacity(healthy.len());
            let mut wsl: Vec<&[T]> = Vec::with_capacity(healthy.len());
            let mut omegas: Vec<T> = Vec::with_capacity(healthy.len());
            let mut betas: Vec<T> = Vec::with_capacity(healthy.len());
            for (b, ws) in bws.lanes.iter_mut().enumerate() {
                if !healthy.contains(&b) {
                    continue;
                }
                rm.push(ws.r.as_mut_slice());
                pm.push(ws.p.as_mut_slice());
                tsl.push(ws.t.as_slice());
                wsl.push(ws.w.as_slice());
                omegas.push(lanes[b].omega);
                betas.push(lanes[b].beta);
            }
            residual_p_update_fused_batch(
                &ctx.dev,
                INFO_BICGS56,
                &ctx.grid,
                &mut rm,
                &mut pm,
                &tsl,
                &wsl,
                &omegas,
                &betas,
                &mut accs,
            );
            for (slot, &b) in healthy.iter().enumerate() {
                rn_slots[b] = accs[slot][0];
            }
        }
        if lag_mode {
            // Defer every healthy lane's merged x-update and stopping
            // decision into next iteration's M1 window; keep each lane's
            // p̂ alive across the swap (the solo ping-pong, lane-wise).
            for &b in &healthy {
                lanes[b].lag = Some((i, rn_slots[b], lanes[b].omega, lanes[b].alpha));
                let ws = &mut bws.lanes[b];
                std::mem::swap(&mut ws.p_hat, &mut ws.p_hat_prev);
            }
        } else {
            // Unlagged tail: merged x-updates now (one batched
            // sweep), then one blocking B-wide norm reduction and the
            // stopping ladder per lane.
            {
                let mut ys: Vec<&mut [T]> = Vec::with_capacity(healthy.len());
                let mut x1s: Vec<&[T]> = Vec::with_capacity(healthy.len());
                let mut x2s: Vec<&[T]> = Vec::with_capacity(healthy.len());
                let mut a1s: Vec<T> = Vec::with_capacity(healthy.len());
                let mut a2s: Vec<T> = Vec::with_capacity(healthy.len());
                for (b, (x, ws)) in xs.iter_mut().zip(bws.lanes.iter()).enumerate() {
                    if !healthy.contains(&b) {
                        continue;
                    }
                    ys.push(x.as_mut_slice());
                    x1s.push(ws.p_hat.as_slice());
                    x2s.push(ws.r_hat.as_slice());
                    a1s.push(lanes[b].alpha);
                    a2s.push(lanes[b].omega);
                }
                axpy2_chained_batch(
                    &ctx.dev,
                    INFO_BICGS4,
                    &ctx.grid,
                    &mut ys,
                    &x1s,
                    &a1s,
                    &x2s,
                    &a2s,
                );
            }
            global_sum(ctx, scope, "MPI5", &mut rn_slots);
            for &b in &healthy {
                if lane_finish(&mut lanes[b], params, i, rn_slots[b]) {
                    lanes[b].frozen = true;
                }
            }
        }
    }

    // Drain the lags when the iteration budget ran out with the last
    // iterations' bookkeeping still in flight: one batched deferred
    // x-update sweep, one blocking norm reduction, per-lane ladder.
    let drain: Vec<usize> = (0..nb).filter(|&b| lanes[b].lag.is_some()).collect();
    if !drain.is_empty() {
        {
            let mut ys: Vec<&mut [T]> = Vec::with_capacity(drain.len());
            let mut x1s: Vec<&[T]> = Vec::with_capacity(drain.len());
            let mut x2s: Vec<&[T]> = Vec::with_capacity(drain.len());
            let mut a1s: Vec<T> = Vec::with_capacity(drain.len());
            let mut a2s: Vec<T> = Vec::with_capacity(drain.len());
            for (b, (x, ws)) in xs.iter_mut().zip(bws.lanes.iter()).enumerate() {
                if let Some((_, _, omega_prev, alpha_prev)) = lanes[b].lag {
                    ys.push(x.as_mut_slice());
                    x1s.push(ws.p_hat_prev.as_slice());
                    x2s.push(ws.r_hat.as_slice());
                    a1s.push(alpha_prev);
                    a2s.push(omega_prev);
                }
            }
            axpy2_chained_batch(
                &ctx.dev,
                INFO_BICGS4,
                &ctx.grid,
                &mut ys,
                &x1s,
                &a1s,
                &x2s,
                &a2s,
            );
        }
        let mut rn: Vec<T> = vec![T::ZERO; nb];
        for &b in &drain {
            rn[b] = lanes[b].lag.map(|(_, r, _, _)| r).unwrap_or(T::ZERO);
        }
        global_sum(ctx, scope, "MPI5", &mut rn);
        for &b in &drain {
            let (j, _, _, _) = lanes[b].lag.take().expect("drain lane has a pending lag");
            lane_finish(&mut lanes[b], params, j, rn[b]);
            lanes[b].frozen = true;
        }
    }

    lanes
        .into_iter()
        .map(|l| SolveOutcome {
            converged: l.converged,
            iterations: l.iterations,
            prec_iterations: l.prec_iterations,
            residual_history: l.history,
            final_residual: l.final_residual,
            breakdown: l.breakdown,
            restarts: 0,
            // LINT: alloc-ok(empty vec; the batch path has no true-residual guard)
            true_residuals: Vec::new(),
            cancelled: l.cancelled && !l.converged,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SolverKind, SolverOptions};
    use crate::precond::IdentityPrec;
    use crate::testutil::{bits, paper_bcs, rng_values, scatter, world8};
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::{run_ranks, ReduceOrder, SelfComm, ThreadComm};
    use stencil::matrix::assemble_poisson;

    fn ctx_single(n: [usize; 3], bc: [[BcKind; 2]; 3]) -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet(n, [0.15; 3], [0.0; 3]);
        g.bc = bc;
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    fn solve_single(
        ctx: &RankCtx<f64, Serial, SelfComm<f64>>,
        kind: SolverKind,
        b_host: &[f64],
        tol: f64,
    ) -> (Vec<f64>, SolveOutcome) {
        let b = Field::from_interior(&ctx.dev, &ctx.grid, b_host);
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..SolverOptions::default()
        };
        let mut prec = kind.build_preconditioner(ctx, &opts);
        let params = SolveParams {
            tol,
            max_iters: 20_000,
            record_history: true,
            ..Default::default()
        };
        let out = bicgstab_solve(ctx, Scope::Global, &b, &mut x, &mut *prec, &mut ws, &params);
        (x.interior_to_host(&ctx.grid), out)
    }

    /// Solve the seeded [`world8`] problem with `kind`'s preconditioner;
    /// every rank returns `(outcome, local solution, allreduces)`.
    /// `tol_rel` is relative to the global RHS norm.
    fn solve_world8(
        seed: u64,
        kind: SolverKind,
        tol_rel: f64,
        cancel: Option<CancelToken>,
    ) -> Vec<(SolveOutcome, Vec<f64>, u64)> {
        let bnorm: f64 = rng_values(512, seed)
            .iter()
            .map(|v| v * v)
            .sum::<f64>()
            .sqrt();
        world8(seed, |ctx, b_local| {
            let b = Field::from_interior(&ctx.dev, &ctx.grid, b_local);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                ..SolverOptions::default()
            };
            let mut prec = kind.build_preconditioner(ctx, &opts);
            let params = SolveParams {
                tol: tol_rel * bnorm,
                max_iters: 20_000,
                record_history: true,
                cancel: cancel.clone(),
                ..Default::default()
            };
            let out = bicgstab_solve(ctx, Scope::Global, &b, &mut x, &mut *prec, &mut ws, &params);
            (
                out,
                x.interior_to_host(&ctx.grid),
                ctx.comm.stats().allreduces,
            )
        })
    }

    #[test]
    fn plain_bicgstab_matches_dense_lu() {
        let ctx = ctx_single([5, 4, 3], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 5);
        let (x, out) = solve_single(&ctx, SolverKind::BiCgs, &b, 1e-12);
        assert!(out.converged, "did not converge: {out:?}");
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let x_ref = m.solve(&b);
        for i in 0..n {
            assert!(
                (x[i] - x_ref[i]).abs() < 1e-8 * x_ref[i].abs().max(1.0),
                "unknown {i}: {} vs {}",
                x[i],
                x_ref[i]
            );
        }
    }

    #[test]
    fn all_six_solvers_converge_to_the_same_solution() {
        let ctx = ctx_single([6, 6, 6], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 17);
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let x_ref = m.solve(&b);
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        for kind in SolverKind::all() {
            let (x, out) = solve_single(&ctx, kind, &b, 1e-10 * bnorm);
            assert!(out.converged, "{kind}: {out:?}");
            let err: f64 = x
                .iter()
                .zip(&x_ref)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(err < 1e-6, "{kind}: solution error {err}");
        }
    }

    #[test]
    fn preconditioning_reduces_outer_iterations() {
        let ctx = ctx_single([8, 8, 8], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 23);
        let bnorm: f64 = b.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-10 * bnorm;
        let (_, plain) = solve_single(&ctx, SolverKind::BiCgs, &b, tol);
        let (_, gnocomm) = solve_single(&ctx, SolverKind::BiCgsGNoCommCi, &b, tol);
        assert!(plain.converged && gnocomm.converged);
        assert!(
            gnocomm.iterations * 2 < plain.iterations,
            "GNoComm(CI) should cut iterations at least in half: {} vs {}",
            gnocomm.iterations,
            plain.iterations
        );
    }

    #[test]
    fn residual_history_is_recorded_and_final_matches() {
        let ctx = ctx_single([5, 5, 5], paper_bcs());
        let n = ctx.grid.global.unknowns();
        let b = rng_values(n, 31);
        let (_, out) = solve_single(&ctx, SolverKind::BiCgsGNoCommCi, &b, 1e-10);
        assert_eq!(out.residual_history.len(), out.iterations + 1);
        assert_eq!(*out.residual_history.last().unwrap(), out.final_residual);
        assert!(out.final_residual < 1e-10);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let ctx = ctx_single([4, 4, 4], paper_bcs());
        let b = vec![0.0; 64];
        let (x, out) = solve_single(&ctx, SolverKind::BiCgs, &b, 1e-12);
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
        assert!(x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn nonzero_initial_guess_is_used() {
        let ctx = ctx_single([4, 4, 4], paper_bcs());
        let n = 64;
        let x_true = rng_values(n, 3);
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let b_host = m.matvec(&x_true);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        // start from the exact solution: must converge in 0 iterations
        let mut x = Field::from_interior(&ctx.dev, &ctx.grid, &x_true);
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut IdentityPrec,
            &mut ws,
            &SolveParams {
                tol: 1e-8,
                max_iters: 100,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn multirank_matches_single_rank_solution() {
        // 8 ranks (2x2x2) with deterministic reductions must produce the
        // same solution as 1 rank (different FP grouping is allowed in the
        // iterates, so compare against the true solution, tightly).
        let ctx1 = ctx_single([8, 8, 8], paper_bcs());
        let b_host = rng_values(512, 41);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let (x1, out1) = solve_single(&ctx1, SolverKind::BiCgsGNoCommCi, &b_host, 1e-11 * bnorm);
        assert!(out1.converged);

        let results = solve_world8(41, SolverKind::BiCgsGNoCommCi, 1e-11, None);
        let iters: Vec<usize> = results.iter().map(|(o, _, _)| o.iterations).collect();
        assert!(
            results.iter().all(|(o, _, _)| o.converged),
            "iters {iters:?}"
        );
        assert!(
            iters.iter().all(|&i| i == iters[0]),
            "ranks disagree: {iters:?}"
        );

        // every rank's block agrees with its slice of the 1-rank solution
        let decomp = Decomp::new([2, 2, 2]);
        for (rank, (_, local, _)) in results.iter().enumerate() {
            let grid = BlockGrid::new(ctx1.grid.global.clone(), decomp, rank);
            for (got, want) in local.iter().zip(scatter(&grid, &x1)) {
                assert!(
                    (got - want).abs() < 1e-7 * want.abs().max(1.0),
                    "rank {rank}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn multi_rank_solve_ships_two_messages_per_iteration() {
        // The headline message-count guarantee of the lagged schedule:
        // one batch at M1, one at M2 — 2 per iteration, plus the ρ₀ init
        // reduction and the final iteration's lagged-check message.
        for (out, _, allreduces) in solve_world8(59, SolverKind::BiCgs, 1e-8, None) {
            assert!(out.converged);
            assert_eq!(allreduces, 2 * out.iterations as u64 + 2);
        }
    }

    #[test]
    fn cancel_poll_adds_no_messages_on_a_multi_rank_world() {
        // An installed (never-fired) token must ride the M1 batch as one
        // extra scalar instead of shipping its own blocking reduction:
        // allreduce counts stay at 2 per iteration + 2, identical to the
        // token-free solve, and the iteration itself is bitwise untouched.
        let plain = solve_world8(61, SolverKind::BiCgs, 1e-8, None);
        let tokened = solve_world8(61, SolverKind::BiCgs, 1e-8, Some(CancelToken::new()));
        for (rank, ((po, _, pa), (to, _, ta))) in plain.iter().zip(&tokened).enumerate() {
            assert!(po.converged && to.converged, "rank {rank}");
            assert!(!to.cancelled, "rank {rank}");
            assert_eq!(po.iterations, to.iterations, "rank {rank}");
            assert_eq!(
                pa, ta,
                "rank {rank}: an uncancelled token must not add messages"
            );
            assert_eq!(*ta, 2 * to.iterations as u64 + 2, "rank {rank}");
            assert_eq!(
                bits(&po.residual_history),
                bits(&to.residual_history),
                "rank {rank}: residual histories diverge"
            );
        }
    }

    #[test]
    fn pre_cancelled_token_stops_every_rank_of_a_multi_rank_world() {
        // The piggybacked flag is decided collectively: a pre-cancelled
        // token stops all ranks at iteration 0 after exactly two
        // messages (the ρ₀ init reduction and the M1 batch carrying the
        // flag).
        let token = CancelToken::new();
        token.cancel();
        let results = solve_world8(67, SolverKind::BiCgs, 1e-14, Some(token));
        for (rank, (out, _, allreduces)) in results.iter().enumerate() {
            assert!(out.cancelled, "rank {rank}: {out:?}");
            assert!(!out.converged, "rank {rank}");
            assert_eq!(out.iterations, 0, "rank {rank}");
            assert_eq!(*allreduces, 2, "rank {rank}: init + flag-carrying M1");
        }
    }

    #[test]
    fn f32_solver_reaches_single_precision_tolerance() {
        let mut g = GlobalGrid::dirichlet([6, 6, 6], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f32, _, _> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let b_host: Vec<f32> = rng_values(216, 2).iter().map(|&v| v as f32).collect();
        let bnorm: f64 = b_host
            .iter()
            .map(|&v| (v as f64) * (v as f64))
            .sum::<f64>()
            .sqrt();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut IdentityPrec,
            &mut ws,
            &SolveParams {
                tol: 1e-4 * bnorm,
                max_iters: 5_000,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(out.converged, "{out:?}");
    }
    #[test]
    fn local_scope_solves_each_block_independently() {
        // Two ranks, local scope: each solves its restricted block. Verify
        // against per-block dense references.
        let mut g = GlobalGrid::dirichlet([8, 4, 4], [0.2; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let decomp = Decomp::new([2, 1, 1]);
        let g2 = g.clone();
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, move |comm| {
            let rank = comm.rank();
            let grid = BlockGrid::new(g2.clone(), decomp, rank);
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let nloc = ctx.grid.local_n.iter().product::<usize>();
            let b_host = rng_values(nloc, 100 + rank as u64);
            let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let out = bicgstab_solve(
                &ctx,
                Scope::Local,
                &b,
                &mut x,
                &mut IdentityPrec,
                &mut ws,
                &SolveParams {
                    tol: 1e-12,
                    max_iters: 5_000,
                    record_history: false,
                    ..Default::default()
                },
            );
            assert!(out.converged);
            let m = assemble_poisson(&ctx.lap.local_ops(), ctx.grid.global.h);
            let x_ref = m.solve(&b_host);
            let got = x.interior_to_host(&ctx.grid);
            for i in 0..nloc {
                assert!(
                    (got[i] - x_ref[i]).abs() < 1e-8 * x_ref[i].abs().max(1.0),
                    "rank {rank} unknown {i}"
                );
            }
        });
    }
}

#[cfg(test)]
mod feature_tests {
    use super::*;
    use crate::precond::{IdentityPrec, PrecTraits, Preconditioner};
    use crate::testutil::rng_values;
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::SelfComm;

    fn ctx() -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet([6, 6, 6], [0.15; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Neumann];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    fn solve_with(params: &SolveParams) -> SolveOutcome {
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(216, 7));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut IdentityPrec,
            &mut ws,
            params,
        )
    }

    #[test]
    fn true_residual_sampling_matches_recursive_residual() {
        let out = solve_with(&SolveParams {
            tol: 1e-12,
            true_residual_every: 3,
            ..Default::default()
        });
        assert!(out.converged);
        assert!(!out.true_residuals.is_empty(), "samples must be taken");
        for (i, tres) in &out.true_residuals {
            assert_eq!(i % 3, 0);
            // recursive residual history[i] and the true residual track
            // each other well in a healthy solve (same order of magnitude;
            // the last bits drift once the residual approaches round-off)
            let recursive = out.residual_history[*i];
            let ratio = tres / recursive.max(1e-300);
            assert!(
                (0.5..2.0).contains(&ratio),
                "iter {i}: true {tres} vs recursive {recursive}"
            );
        }
    }

    #[test]
    fn pre_cancelled_token_stops_before_the_first_iteration() {
        let token = CancelToken::new();
        token.cancel();
        let out = solve_with(&SolveParams {
            tol: 1e-14,
            cancel: Some(token),
            ..Default::default()
        });
        assert!(out.cancelled);
        assert!(!out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn uncancelled_token_changes_nothing_bitwise() {
        // Installing a token that never fires must not perturb the
        // iteration: identical history and iteration count.
        let plain = solve_with(&SolveParams {
            tol: 1e-10,
            ..Default::default()
        });
        let tokened = solve_with(&SolveParams {
            tol: 1e-10,
            cancel: Some(CancelToken::new()),
            ..Default::default()
        });
        assert!(plain.converged && tokened.converged);
        assert!(!tokened.cancelled);
        assert_eq!(plain.iterations, tokened.iterations);
        let a: Vec<u64> = plain.residual_history.iter().map(|v| v.to_bits()).collect();
        let b: Vec<u64> = tokened
            .residual_history
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clean_solves_take_no_restarts() {
        let out = solve_with(&SolveParams {
            tol: 1e-10,
            max_restarts: 3,
            ..Default::default()
        });
        assert!(out.converged);
        assert_eq!(out.restarts, 0);
    }

    /// A pathological preconditioner that maps everything to zero — it
    /// forces `p̂ = 0`, hence `r̃ᵀ A p̂ = 0`, a PSumZero breakdown every
    /// iteration.
    struct ZeroPrec;
    impl Preconditioner<f64, Serial, SelfComm<f64>> for ZeroPrec {
        fn apply(
            &mut self,
            _ctx: &RankCtx<f64, Serial, SelfComm<f64>>,
            _rhs: &mut Field<f64>,
            out: &mut Field<f64>,
        ) -> usize {
            out.fill_zero();
            0
        }
        fn traits(&self) -> PrecTraits {
            PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }
        }
        fn name(&self) -> &'static str {
            "Zero"
        }
    }

    #[test]
    fn restart_budget_is_spent_then_breakdown_reported() {
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(216, 9));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x,
            &mut ZeroPrec,
            &mut ws,
            &SolveParams {
                tol: 1e-10,
                max_iters: 50,
                max_restarts: 2,
                ..Default::default()
            },
        );
        assert!(!out.converged);
        assert_eq!(out.restarts, 2, "both restarts must be attempted");
        assert_eq!(out.breakdown, Some(Breakdown::PSumZero));
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::ctx::BatchWorkspace;
    use crate::precond::{IdentityPrec, PrecTraits};
    use crate::testutil::{bits, paper_bcs, rng_values, scatter};
    use accel::{GpuSimParams, Recorder, Serial, SimGpu, Threads};
    use blockgrid::{BlockGrid, Decomp, GlobalGrid};
    use comm::{run_ranks, ReduceOrder, SelfComm, ThreadComm};
    use proptest::prelude::*;

    fn assert_lane_matches_solo(
        tag: &str,
        solo: &(SolveOutcome, Vec<f64>),
        bo: &SolveOutcome,
        bx: &[f64],
    ) {
        let (so, sx) = solo;
        assert_eq!(so.converged, bo.converged, "{tag}: converged");
        assert_eq!(so.iterations, bo.iterations, "{tag}: iterations");
        assert_eq!(so.breakdown, bo.breakdown, "{tag}: breakdown");
        assert_eq!(so.prec_iterations, bo.prec_iterations, "{tag}: prec sweeps");
        assert_eq!(
            so.final_residual.to_bits(),
            bo.final_residual.to_bits(),
            "{tag}: final residual diverges"
        );
        assert_eq!(
            bits(&so.residual_history),
            bits(&bo.residual_history),
            "{tag}: residual histories diverge"
        );
        assert_eq!(bits(sx), bits(bx), "{tag}: solutions diverge");
    }

    /// Lane-wise bitwise identity on one rank (the unlagged batch
    /// schedule): every lane of a 3-wide batch reproduces the solo
    /// fused solve bit-for-bit on each back-end's fold order.
    fn lanewise_matches_solo_on<D: Device>(label: &str, dev: D) {
        let mut g = GlobalGrid::dirichlet([6, 5, 4], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> = RankCtx::new(dev, SelfComm::default(), grid);
        let n = ctx.grid.global.unknowns();
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 5_000,
            ..Default::default()
        };
        let nb = 3;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 70 + l as u64)).collect();

        let mut solo = Vec::new();
        for bh in &b_hosts {
            let b = Field::from_interior(&ctx.dev, &ctx.grid, bh);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let out = bicgstab_solve(
                &ctx,
                Scope::Global,
                &b,
                &mut x,
                &mut IdentityPrec,
                &mut ws,
                &params,
            );
            assert!(out.converged, "{label}: solo lane failed: {out:?}");
            solo.push((out, x.interior_to_host(&ctx.grid)));
        }

        let bfields: Vec<Field<f64>> = b_hosts
            .iter()
            .map(|bh| Field::from_interior(&ctx.dev, &ctx.grid, bh))
            .collect();
        let bs: Vec<&Field<f64>> = bfields.iter().collect();
        let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
        let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
        let mut ps: Vec<IdentityPrec> = (0..nb).map(|_| IdentityPrec).collect();
        let mut precs: Vec<&mut IdentityPrec> = ps.iter_mut().collect();
        let mut bws = BatchWorkspace::new(&ctx.dev, &ctx.grid, nb);
        let outs = bicgstab_solve_batch(
            &ctx,
            Scope::Global,
            &bs,
            &mut xs,
            &mut precs,
            &mut bws,
            &params,
            &[],
        );
        for (l, (s, bo)) in solo.iter().zip(&outs).enumerate() {
            let bx = xfields[l].interior_to_host(&ctx.grid);
            assert_lane_matches_solo(&format!("{label} lane {l}"), s, bo, &bx);
        }
    }

    #[test]
    fn batched_lanes_bitwise_match_solo_on_every_backend() {
        lanewise_matches_solo_on("serial", Serial::new(Recorder::disabled()));
        lanewise_matches_solo_on("threads", Threads::new(3, Recorder::disabled()));
        lanewise_matches_solo_on(
            "simgpu",
            SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
        );
    }

    /// Lane-wise bitwise identity across 8 ranks under the lagged
    /// (lagged) schedule with a communicating preconditioner: batching
    /// regroups messages and sweeps, never a lane's arithmetic.
    #[test]
    fn batched_lanes_bitwise_match_solo_across_ranks() {
        use crate::config::{SolverKind, SolverOptions};
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let nb = 2;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 80 + l as u64)).collect();
        let bnorm: f64 = b_hosts[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-9 * bnorm;

        let decomp = Decomp::new([2, 2, 2]);
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let locals: Vec<Vec<f64>> = b_hosts.iter().map(|bh| scatter(&ctx.grid, bh)).collect();
            let opts = SolverOptions {
                eig_min_factor: 10.0,
                ..SolverOptions::default()
            };
            let params = SolveParams {
                tol,
                max_iters: 20_000,
                ..Default::default()
            };

            // Solo references, lane by lane (rank-uniform order).
            let mut solo = Vec::new();
            for local in &locals {
                let b = Field::from_interior(&ctx.dev, &ctx.grid, local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let mut prec = SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts);
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut *prec,
                    &mut ws,
                    &params,
                );
                solo.push((out, x.interior_to_host(&ctx.grid)));
            }

            // One batched solve over both lanes.
            let bfields: Vec<Field<f64>> = locals
                .iter()
                .map(|l| Field::from_interior(&ctx.dev, &ctx.grid, l))
                .collect();
            let bs: Vec<&Field<f64>> = bfields.iter().collect();
            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
            let mut boxes: Vec<_> = (0..nb)
                .map(|_| SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts))
                .collect();
            let mut precs: Vec<_> = boxes.iter_mut().map(|p| &mut **p).collect();
            let mut bws = BatchWorkspace::new(&ctx.dev, &ctx.grid, nb);
            let outs = bicgstab_solve_batch(
                &ctx,
                Scope::Global,
                &bs,
                &mut xs,
                &mut precs,
                &mut bws,
                &params,
                &[],
            );
            let batch: Vec<(SolveOutcome, Vec<f64>)> = outs
                .into_iter()
                .zip(&xfields)
                .map(|(o, x)| (o, x.interior_to_host(&ctx.grid)))
                .collect();
            (solo, batch)
        });

        for (rank, (solo, batch)) in results.iter().enumerate() {
            for (l, (s, (bo, bx))) in solo.iter().zip(batch).enumerate() {
                assert!(s.0.converged, "rank {rank} lane {l}: solo failed");
                assert_lane_matches_solo(&format!("rank {rank} lane {l}"), s, bo, bx);
            }
        }
    }

    /// The headline amortisation guarantee: a 4-wide batch ships the
    /// solo lagged schedule's message count of its *longest* lane —
    /// 2 per iteration + 2 — instead of four solo solves' worth.
    #[test]
    fn batched_reductions_amortize_across_lanes() {
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let nb = 4;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 90 + l as u64)).collect();
        let bnorm: f64 = b_hosts[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-8 * bnorm;

        let decomp = Decomp::new([2, 2, 2]);
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let locals: Vec<Vec<f64>> = b_hosts.iter().map(|bh| scatter(&ctx.grid, bh)).collect();
            let params = SolveParams {
                tol,
                max_iters: 20_000,
                record_history: false,
                ..Default::default()
            };

            // Solo message bill, lane by lane.
            let before_solo = ctx.comm.stats().allreduces;
            let mut solo_iters = Vec::new();
            for local in &locals {
                let b = Field::from_interior(&ctx.dev, &ctx.grid, local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let out = bicgstab_solve(
                    &ctx,
                    Scope::Global,
                    &b,
                    &mut x,
                    &mut IdentityPrec,
                    &mut ws,
                    &params,
                );
                assert!(out.converged);
                solo_iters.push(out.iterations);
            }
            let solo_msgs = ctx.comm.stats().allreduces - before_solo;

            // Batched message bill.
            let bfields: Vec<Field<f64>> = locals
                .iter()
                .map(|l| Field::from_interior(&ctx.dev, &ctx.grid, l))
                .collect();
            let bs: Vec<&Field<f64>> = bfields.iter().collect();
            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
            let mut ps: Vec<IdentityPrec> = (0..nb).map(|_| IdentityPrec).collect();
            let mut precs: Vec<&mut IdentityPrec> = ps.iter_mut().collect();
            let mut bws = BatchWorkspace::new(&ctx.dev, &ctx.grid, nb);
            let before_batch = ctx.comm.stats().allreduces;
            let outs = bicgstab_solve_batch(
                &ctx,
                Scope::Global,
                &bs,
                &mut xs,
                &mut precs,
                &mut bws,
                &params,
                &[],
            );
            let batch_msgs = ctx.comm.stats().allreduces - before_batch;
            let batch_iters: Vec<usize> = outs.iter().map(|o| o.iterations).collect();
            assert!(outs.iter().all(|o| o.converged), "{outs:?}");
            (solo_iters, solo_msgs, batch_iters, batch_msgs)
        });

        for (rank, (solo_iters, solo_msgs, batch_iters, batch_msgs)) in results.iter().enumerate() {
            assert_eq!(solo_iters, batch_iters, "rank {rank}: lane iterations");
            let longest = *batch_iters.iter().max().unwrap() as u64;
            let solo_bill: u64 = solo_iters.iter().map(|&i| 2 * i as u64 + 2).sum();
            assert_eq!(*solo_msgs, solo_bill, "rank {rank}: solo bill");
            assert_eq!(
                *batch_msgs,
                2 * longest + 2,
                "rank {rank}: the batch must ship its longest lane's solo bill"
            );
            assert!(
                *batch_msgs < solo_bill,
                "rank {rank}: batching must amortize ({batch_msgs} vs {solo_bill})"
            );
        }
    }

    /// A zero RHS converges at setup (iteration 0) and freezes; its
    /// message slots carry zeros and the surviving lane stays bitwise
    /// identical to its solo solve.
    #[test]
    fn converged_lane_freezes_without_touching_others() {
        let mut g = GlobalGrid::dirichlet([6, 5, 4], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let n = ctx.grid.global.unknowns();
        let params = SolveParams {
            tol: 1e-10,
            max_iters: 5_000,
            ..Default::default()
        };
        let live_host = rng_values(n, 7);

        let b_live = Field::from_interior(&ctx.dev, &ctx.grid, &live_host);
        let mut x_solo = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let solo_out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b_live,
            &mut x_solo,
            &mut IdentityPrec,
            &mut ws,
            &params,
        );
        let solo = (solo_out, x_solo.interior_to_host(&ctx.grid));

        let b_zero = ctx.field();
        let bs = [&b_zero, &b_live];
        let mut x0 = ctx.field();
        let mut x1 = ctx.field();
        let mut xs = [&mut x0, &mut x1];
        let mut p0 = IdentityPrec;
        let mut p1 = IdentityPrec;
        let mut precs = [&mut p0, &mut p1];
        let mut bws = BatchWorkspace::new(&ctx.dev, &ctx.grid, 2);
        let outs = bicgstab_solve_batch(
            &ctx,
            Scope::Global,
            &bs,
            &mut xs,
            &mut precs,
            &mut bws,
            &params,
            &[],
        );
        assert!(outs[0].converged, "{:?}", outs[0]);
        assert_eq!(outs[0].iterations, 0);
        assert_eq!(outs[0].residual_history, vec![0.0]);
        assert!(x0.interior_to_host(&ctx.grid).iter().all(|&v| v == 0.0));
        let bx = x1.interior_to_host(&ctx.grid);
        assert_lane_matches_solo("live lane", &solo, &outs[1], &bx);
    }

    /// An identity preconditioner that fires a cancel token after a set
    /// number of applications — a deterministic stand-in for a client
    /// abandoning one lane mid-solve.
    struct CancelAfter {
        token: CancelToken,
        after: usize,
        count: usize,
    }

    impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for CancelAfter {
        fn apply(
            &mut self,
            _ctx: &RankCtx<T, D, C>,
            rhs: &mut Field<T>,
            out: &mut Field<T>,
        ) -> usize {
            self.count += 1;
            if self.count == self.after {
                self.token.cancel();
            }
            out.copy_from(rhs);
            0
        }

        fn traits(&self) -> PrecTraits {
            PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }
        }

        fn name(&self) -> &'static str {
            "CancelAfter"
        }
    }

    fn cancel_lane_run(
        fire_after: Option<usize>,
        seeds: [u64; 2],
    ) -> (Vec<SolveOutcome>, Vec<Vec<f64>>) {
        let mut g = GlobalGrid::dirichlet([5, 4, 3], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let n = ctx.grid.global.unknowns();
        let params = SolveParams {
            tol: 1e-11,
            max_iters: 5_000,
            ..Default::default()
        };
        let hosts: Vec<Vec<f64>> = seeds.iter().map(|&s| rng_values(n, s)).collect();
        let bfields: Vec<Field<f64>> = hosts
            .iter()
            .map(|h| Field::from_interior(&ctx.dev, &ctx.grid, h))
            .collect();
        let bs: Vec<&Field<f64>> = bfields.iter().collect();
        let mut xfields: Vec<Field<f64>> = (0..2).map(|_| ctx.field()).collect();
        let mut xs: Vec<&mut Field<f64>> = xfields.iter_mut().collect();
        let token = CancelToken::new();
        let mut p0 = CancelAfter {
            token: token.clone(),
            after: fire_after.unwrap_or(usize::MAX),
            count: 0,
        };
        let mut p1 = CancelAfter {
            token: CancelToken::new(),
            after: usize::MAX,
            count: 0,
        };
        let mut precs = [&mut p0, &mut p1];
        let mut bws = BatchWorkspace::new(&ctx.dev, &ctx.grid, 2);
        let cancels = if fire_after.is_some() {
            vec![Some(token), None]
        } else {
            Vec::new()
        };
        let outs = bicgstab_solve_batch(
            &ctx,
            Scope::Global,
            &bs,
            &mut xs,
            &mut precs,
            &mut bws,
            &params,
            &cancels,
        );
        let sols = xfields
            .iter()
            .map(|x| x.interior_to_host(&ctx.grid))
            .collect();
        (outs, sols)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        // Satellite: cancelling one lane mid-solve leaves every other
        // lane's outcome and solution bitwise unchanged, wherever the
        // cancellation lands in the schedule.
        #[test]
        fn cancelled_lane_leaves_other_lanes_bitwise_unchanged(
            fire in 1usize..12,
            seed in 0u64..1000,
        ) {
            let seeds = [seed.wrapping_mul(2).wrapping_add(1), seed.wrapping_mul(2).wrapping_add(2)];
            let (base_outs, base_sols) = cancel_lane_run(None, seeds);
            prop_assert!(base_outs[0].converged && base_outs[1].converged);
            let (outs, sols) = cancel_lane_run(Some(fire), seeds);

            // Lane 0 either got cancelled or converged first — never both.
            if outs[0].cancelled {
                prop_assert!(!outs[0].converged);
                prop_assert!(outs[0].iterations <= base_outs[0].iterations);
            } else {
                prop_assert_eq!(outs[0].iterations, base_outs[0].iterations);
            }

            // Lane 1 is bitwise untouched by its neighbour's fate.
            prop_assert!(outs[1].converged);
            prop_assert_eq!(outs[1].iterations, base_outs[1].iterations);
            prop_assert_eq!(
                bits(&outs[1].residual_history),
                bits(&base_outs[1].residual_history)
            );
            prop_assert_eq!(bits(&sols[1]), bits(&base_sols[1]));
        }
    }
}

//! Preconditioned Bi-CGSTAB exactly as implemented in the paper (Alg. 3),
//! on the one production schedule.
//!
//! One outer iteration is two preconditioner applications, two halo
//! exchanges and **four** full-grid sweeps; on a multi-rank world its
//! scalars travel in exactly **two** batched reduction messages:
//!
//! ```text
//! Preconditioner  MPI1+BCs  KernelBiCGS1 (w = A p̂ ⊕ σ = r̃ᵀw)
//!   M1: reduce [σ, ‖r‖²_prev]                                         host α
//! KernelBiCGS2F (r −= αw ⊕ σ₃)   Preconditioner
//! MPI3+BCs  KernelBiCGS3F (t = A r̂ ⊕ σ₁,σ₂,σ₄)
//!   M2: reduce [σ₁,σ₂,σ₃,σ₄]                                          host ω, ρ, β
//! KernelBiCGS456 (x ← (x+α p̂)+ω r̂ ⊕ r −= ωt ⊕ ‖r‖² ⊕ p ← r + β(p − ωw))
//! ```
//!
//! The x-update rides in the sweep that overwrites `p` and `r`, each row
//! updating `x` first, on every world and under every preconditioner.
//! With `M = I` (plain Bi-CGSTAB, and the inner solves of `G(BiCGS)` and
//! `BJ(BiCGS)`) there is no `Preconditioner` stage and no copy: `p̂ ≡ p`
//! and `r̂ ≡ r`, so `KernelBiCGS1` sweeps `p` and `KernelBiCGS3F` sweeps
//! `r` in place — their BCs and halos land in `p`'s and `r`'s ghosts —
//! and `KernelBiCGS456` reads the `p` and `r` rows it is about to
//! overwrite, streaming them once.
//!
//! There is one driver: the loop runs over a group of *lanes* — the
//! right-hand sides of a multi-RHS batch, solved together under one
//! preconditioner — of which [`bicgstab_solve`] passes one and
//! [`bicgstab_solve_batch`] any number, each a [`LaneSystem`] record.
//! Nothing about the schedule is selectable — the driver derives it from
//! the world it is handed:
//!
//! * **Halo.** Every operator application is `exchange → BCs → sweep`
//!   ([`LaneGroup::refresh_lanes`]): one blocking lanes-wide exchange in
//!   [`Scope::Global`] only, then `KernelNeumannBCs`, then one launch over
//!   the whole interior for all lanes — the fused sweeps fold their dots
//!   straight into the lane accumulators, as Alg. 3's `KernelBiCGS1/3`
//!   do after `MPI1/3`.
//! * **Reductions.** Every reduction is one blocking message. In
//!   [`Scope::Global`] on more than one rank M1 also carries the previous
//!   iteration's `‖r‖²`, so the stopping decision is read one message
//!   late. Elsewhere reductions are free, so `‖r‖²` is reduced at once
//!   and nothing lags.
//! * **Preconditioner.** The driver asks the preconditioner whether it
//!   is the identity ([`Preconditioner::is_identity`]); if so it never
//!   applies it and the operator sweeps read `p` and `r` directly (see
//!   above), leaving `p̂` and `r̂` unwritten.
//! * **Lanes.** Every full-grid vector sweep strides all participating
//!   lanes inside one kernel launch, every halo exchange packs their face
//!   planes into one message per face, and every reduction ships their
//!   scalars in the same message, in fixed per-lane slots (a lane that
//!   sits a message out leaves its slots zero). A lane that converges, is
//!   cancelled or breaks down for good drops out of kernels and halo
//!   payloads; all such decisions are taken on reduced values, so the
//!   participating set — and hence the kernel, halo and message schedule
//!   — stays identical on every rank, and no lane's arithmetic depends on
//!   which other lanes ride along.
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

use std::ops::{Deref, DerefMut};

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::{Communicator, ReduceOp};
use stencil::{apply_physical_bcs, INFO_APPLY};

use crate::cancel::CancelToken;
use crate::ctx::{RankCtx, Workspace};
use crate::kernels::{
    axpy_dot_batch, diff_norm2, info_bicgs456, norm2_axpy_batch, x_residual_p_update_fused_batch,
    INFO_BICGS1, INFO_BICGS2F, INFO_BICGS3F, INFO_DOT, INFO_NORM2AXPY,
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

/// Stopping parameters of one Bi-CGSTAB solve, shared by every lane of a
/// batch. Cancellation is not among them: it is per lane, a token on the
/// lane's [`LaneSystem`].
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
}

impl Default for SolveParams {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iters: 10_000,
            record_history: true,
            true_residual_every: 0,
            max_restarts: 0,
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
#[derive(Clone, Debug, Default)]
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

/// Widest lane group one pass of the driver carries — the width of a
/// [`LaneSet`], and of the inline per-lane scalar slots and operand lists
/// that let the loop allocate nothing at any lane count.
/// [`bicgstab_solve_batch`] runs wider batches group after group.
const MAX_LANES: usize = 32;

/// A set of lanes of one group: bit `b` is lane `b`.
type LaneSet = u32;

/// The lanes of `set`, ascending.
fn members(set: LaneSet) -> impl Iterator<Item = usize> {
    (0..MAX_LANES).filter(move |b| set >> b & 1 == 1)
}

/// The items of the lanes of `set`, in lane order.
fn pick_mut<X>(items: &mut [X], set: LaneSet) -> impl Iterator<Item = &mut X> {
    let of_set = move |(b, x)| (set >> b & 1 == 1).then_some(x);
    items.iter_mut().enumerate().filter_map(of_set)
}

/// One operand per lane of a lanes-wide kernel or exchange, in lane
/// order, held inline (the hot loop must not allocate).
#[derive(Default)]
struct Lanes<X> {
    items: [X; MAX_LANES],
    len: usize,
}

impl<X: Default> Lanes<X> {
    fn push(&mut self, x: X) {
        self.items[self.len] = x;
        self.len += 1;
    }

    fn of(xs: impl Iterator<Item = X>) -> Self {
        let mut lanes = Self::default();
        xs.for_each(|x| lanes.push(x));
        lanes
    }
}

impl<X> Deref for Lanes<X> {
    type Target = [X];
    fn deref(&self) -> &[X] {
        &self.items[..self.len]
    }
}

impl<X> DerefMut for Lanes<X> {
    fn deref_mut(&mut self) -> &mut [X] {
        &mut self.items[..self.len]
    }
}

/// One lane of a [`bicgstab_solve_batch`] group: the system it solves,
/// the buffers it solves it in, and how it may be stopped.
pub struct LaneSystem<'a, T> {
    /// The right-hand side.
    pub b: &'a Field<T>,
    /// The initial guess on entry, the solution on exit.
    pub x: &'a mut Field<T>,
    /// The lane's Krylov vectors.
    pub ws: &'a mut Workspace<T>,
    /// Cooperative cancellation flag, polled collectively once per outer
    /// iteration (see [`CancelToken`]); a rank-uniform choice — every
    /// rank installs a token on the same lanes. Installed tokens add no
    /// messages: the flags ride the M1 batch as one extra scalar per lane.
    pub cancel: Option<&'a CancelToken>,
}

/// One lane of a solve: its system, the scalar recurrence and the
/// outcome under construction.
struct Lane<'a, T> {
    b: &'a Field<T>,
    x: &'a mut Field<T>,
    ws: &'a mut Workspace<T>,
    cancel: Option<&'a CancelToken>,
    out: SolveOutcome,
    rho: T,
    alpha: T,
    omega: T,
    beta: T,
    /// Lagged schedule: the last iteration's not-yet-reduced `‖r‖²`,
    /// whose stopping decision completes under the next iteration's M1.
    /// Its x-update already rode in the `KernelBiCGS456` sweep.
    lag: Option<T>,
}

impl<'a, T: Scalar> Lane<'a, T> {
    fn new(system: LaneSystem<'a, T>) -> Self {
        let LaneSystem { b, x, ws, cancel } = system;
        Self {
            b,
            x,
            ws,
            cancel,
            out: SolveOutcome::default(),
            rho: T::ZERO,
            alpha: T::ZERO,
            omega: T::ZERO,
            beta: T::ZERO,
            lag: None,
        }
    }
}

/// Refresh ghost layers for an operator application in `scope` (the
/// reference schedule's blocking exchange).
pub(crate) fn refresh_ghosts<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    f: &mut Field<T>,
) {
    if scope == Scope::Global {
        let exchange = || ctx.halo.exchange(&ctx.dev, &ctx.comm, f);
        ctx.recorder.stage(stage, exchange);
    }
    apply_physical_bcs(&ctx.grid, f, &ctx.recorder, scope == Scope::Local);
}

/// Sum `vals` across ranks in [`Scope::Global`] (one blocking message);
/// local identity otherwise.
pub(crate) fn global_sum<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    stage: &'static str,
    vals: &mut [T],
) {
    if scope == Scope::Global {
        let comm = &ctx.comm;
        ctx.recorder
            .stage(stage, || comm.all_reduce(vals, ReduceOp::Sum));
    }
}

/// The operands of the iteration's first fused operator application
/// (`w = A p̂`) or its `second` (`t = A r̂`), per lane of `set`: the
/// inputs — with `M = I` (`identity`) `p` and `r` themselves — the
/// outputs and the `(r, r̃)` the dots read.
#[allow(clippy::type_complexity)]
fn dot_operands<'l, T: Scalar>(
    lanes: &'l mut [Lane<'_, T>],
    set: LaneSet,
    second: bool,
    identity: bool,
) -> (
    Lanes<&'l [T]>,
    Lanes<&'l mut [T]>,
    Lanes<(&'l [T], &'l [T])>,
) {
    let (mut us, mut outs, mut ins) = Default::default();
    for l in pick_mut(lanes, set) {
        let ws = &mut *l.ws;
        let out = if second { &mut ws.t } else { &mut ws.w };
        let u = match (second, identity) {
            (false, false) => &ws.p_hat,
            (false, true) => &ws.p,
            (true, false) => &ws.r_hat,
            (true, true) => &ws.r,
        };
        Lanes::push(&mut us, u.as_slice());
        Lanes::push(&mut outs, out.as_mut_slice());
        Lanes::push(&mut ins, (ws.r.as_slice(), ws.r0t.as_slice()));
    }
    (us, outs, ins)
}

/// Up to [`MAX_LANES`] lanes solved together by the one driver loop
/// ([`LaneGroup::solve`], see the module docs): the world, the stopping
/// parameters, the preconditioner every lane applies in turn, and the
/// lanes.
struct LaneGroup<'g, 'a, T: Scalar, D: Device, C: Communicator<T>, P: ?Sized> {
    ctx: &'g RankCtx<T, D, C>,
    scope: Scope,
    params: &'g SolveParams,
    prec: &'g mut P,
    lanes: &'g mut [Lane<'a, T>],
}

impl<T, D, C, P> LaneGroup<'_, '_, T, D, C, P>
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    /// Make the ghosts of the `input` field of every lane of `set`
    /// current for an operator application: one blocking exchange for
    /// all lanes (one message per face; none in [`Scope::Local`], whose
    /// restricted BCs zero the interface ghosts), then `KernelNeumannBCs`.
    fn refresh_lanes(
        &mut self,
        set: LaneSet,
        input: impl for<'l> Fn(&'l mut Lane<'_, T>) -> &'l mut Field<T>,
    ) {
        let ctx = self.ctx;
        let local = self.scope == Scope::Local;
        if !local {
            let mut us = Lanes::of(pick_mut(self.lanes, set).map(|l| input(l).as_mut_slice()));
            ctx.halo.exchange_lanes(&ctx.dev, &ctx.comm, &mut us);
        }
        for l in pick_mut(self.lanes, set) {
            apply_physical_bcs(&ctx.grid, input(l), &ctx.recorder, local);
        }
    }

    /// `out = A x` for every lane of `set`: [`LaneGroup::refresh_lanes`],
    /// then one plain sweep per lane.
    fn refresh_and_apply(
        &mut self,
        set: LaneSet,
        out: impl for<'w> Fn(&'w mut Workspace<T>) -> &'w mut Field<T>,
    ) {
        let ctx = self.ctx;
        self.refresh_lanes(set, |l| &mut *l.x);
        for l in pick_mut(self.lanes, set) {
            ctx.lap.apply(&ctx.dev, INFO_APPLY, l.x, out(l.ws));
        }
    }

    /// One of the iteration's two operator applications with its dots
    /// fused in — the first (`KernelBiCGS1`, `w = A p̂`) or the `second`
    /// (`KernelBiCGS3F`, `t = A r̂`; with `M = I` the sweeps read `p` and
    /// `r` in place) — for every lane of `set`
    /// ([`LaneGroup::refresh_lanes`], then one launch for all lanes,
    /// [`stencil::Laplacian::apply_fused_dots`]): `out = A u` and the `NR`
    /// sums over the interior of `terms(r, r̃, i, v)`, the dot terms of a
    /// cell: `r` and `r̃` are the lane's windows of the cell's row, sliced
    /// once per row, `i` the cell's index in them and `v` the stencil
    /// value there. Returns the lanes' sums, in lane order of `set`.
    fn apply_dots<const NR: usize>(
        &mut self,
        set: LaneSet,
        second: bool,
        terms: impl Fn(&[T], &[T], usize, T) -> [T; NR] + Sync,
    ) -> [[T; NR]; MAX_LANES] {
        let ctx = self.ctx;
        let info = if second { INFO_BICGS3F } else { INFO_BICGS1 };
        let identity = self.prec.is_identity();
        self.refresh_lanes(set, |l| {
            let ws = &mut *l.ws;
            match (second, identity) {
                (false, false) => &mut ws.p_hat,
                (false, true) => &mut ws.p,
                (true, false) => &mut ws.r_hat,
                (true, true) => &mut ws.r,
            }
        });
        let (us, mut outs, ins) = dot_operands(self.lanes, set, second, identity);
        let row_terms = |s: usize, b: usize, n: usize| {
            let (r, r0, terms) = (&ins[s].0[b..b + n], &ins[s].1[b..b + n], &terms);
            move |i: usize, v: T| terms(r, r0, i, v)
        };
        let mut dots = [[T::ZERO; NR]; MAX_LANES];
        let accs = &mut dots[..outs.len()];
        ctx.lap
            .apply_fused_dots(&ctx.dev, info, &us, &mut outs, accs, &row_terms);
        dots
    }

    /// `r = b − A x`, `r̃ = p = r` and `ρ = r̃ᵀ r = ‖r‖²` for every lane
    /// of `set` — the setup of a solve, and the restart of the Krylov
    /// process from the current iterate after a curable breakdown: one
    /// lanes-wide exchange, one fused `KernelNorm2Axpy` sweep (`r̃ = r`
    /// elementwise, so the fused norm is the same sequence of products as
    /// the dot), one reduction. Returns the lanes still above the
    /// tolerance; the others have converged.
    fn form_residual(&mut self, set: LaneSet) -> LaneSet {
        let ctx = self.ctx;
        self.refresh_and_apply(set, |ws| &mut ws.w);
        let mut outs = Lanes::default();
        let mut ins = Lanes::default();
        for l in pick_mut(self.lanes, set) {
            outs.push(l.ws.r.as_mut_slice());
            ins.push((l.b.as_slice(), l.ws.w.as_slice()));
        }
        let mut accs = [[T::ZERO]; MAX_LANES];
        let accs = &mut accs[..outs.len()];
        norm2_axpy_batch(&ctx.dev, INFO_NORM2AXPY, &ctx.grid, &mut outs, &ins, accs);
        let mut rhos = [T::ZERO; MAX_LANES];
        for ((l, b), acc) in pick_mut(self.lanes, set).zip(members(set)).zip(accs) {
            l.ws.r0t.copy_from(&l.ws.r);
            l.ws.p.copy_from(&l.ws.r);
            rhos[b] = acc[0];
        }
        global_sum(ctx, self.scope, "MPI0", &mut rhos[..self.lanes.len()]);
        let mut open = 0;
        for b in members(set) {
            let lane = &mut self.lanes[b];
            lane.rho = rhos[b];
            lane.out.final_residual = lane.rho.to_f64().max(0.0).sqrt();
            if lane.out.final_residual < self.params.tol {
                lane.out.converged = true;
            } else {
                open |= 1 << b;
            }
        }
        open
    }

    /// The lanes of `set` hit a curable breakdown, already noted in their
    /// outcomes: those with restart budget left restart the Krylov
    /// process from the current iterate with a fresh shadow residual
    /// ([`LaneGroup::form_residual`]) and sit out the rest of the
    /// iteration; the others give up. Returns the lanes that stop — out
    /// of budget, or converged by their recomputed residual.
    fn restart_or_stop(&mut self, set: LaneSet) -> LaneSet {
        let mut again = 0;
        for b in members(set) {
            let out = &mut self.lanes[b].out;
            if out.restarts < self.params.max_restarts {
                out.restarts += 1;
                out.breakdown = None;
                again |= 1 << b;
            }
        }
        if again == 0 {
            return set;
        }
        set & !self.form_residual(again)
    }

    /// Iteration `j`'s epilogue for the lanes of `set` once their global
    /// `‖r_j‖²` (slot `b` of `rnorm2`) is in hand: history/final-residual
    /// bookkeeping and the stopping ladder (non-finite → converged →
    /// true-residual guard). Returns the lanes that stop.
    fn finish_iteration(&mut self, set: LaneSet, j: usize, rnorm2: &[T]) -> LaneSet {
        let (ctx, params) = (self.ctx, self.params);
        let mut stopped = 0;
        let mut guard = 0;
        for b in members(set) {
            let out = &mut self.lanes[b].out;
            let res = rnorm2[b].to_f64().max(0.0).sqrt();
            out.final_residual = res;
            if params.record_history {
                out.residual_history.push(res);
            }
            if !res.is_finite() {
                out.breakdown = Some(Breakdown::NonFinite);
            } else if res < params.tol {
                out.converged = true;
            } else {
                if params.true_residual_every > 0 && j.is_multiple_of(params.true_residual_every) {
                    guard |= 1 << b;
                }
                continue;
            }
            out.iterations = j;
            stopped |= 1 << b;
        }
        // Optional drift guard: recompute the true residual ‖b − A x‖ (the
        // recursive residual can decouple from it in long stagnating
        // solves) and let it decide convergence too.
        if guard != 0 {
            self.refresh_and_apply(guard, |ws| &mut ws.t);
            let mut s = [T::ZERO; MAX_LANES];
            for b in members(guard) {
                let l = &self.lanes[b];
                s[b] = diff_norm2(&ctx.dev, INFO_DOT, &ctx.grid, l.b, &l.ws.t);
            }
            global_sum(ctx, self.scope, "MPI6", &mut s[..self.lanes.len()]);
            for b in members(guard) {
                let out = &mut self.lanes[b].out;
                let tres = s[b].to_f64().max(0.0).sqrt();
                out.true_residuals.push((j, tres));
                if tres < params.tol {
                    out.final_residual = tres;
                    out.converged = true;
                    out.iterations = j;
                    stopped |= 1 << b;
                }
            }
        }
        stopped
    }

    /// Stop the lanes of `set` whose reduced cancel flag (slot `b` of
    /// `flags`) is raised, their iterates complete through iteration
    /// `done`; returns them. Every rank reads the same reduced sums, so
    /// all stop the same lanes.
    fn stop_cancelled(&mut self, set: LaneSet, flags: &[T], done: usize) -> LaneSet {
        let mut stopped = 0;
        for b in members(set).filter(|&b| flags[b] != T::ZERO) {
            self.lanes[b].out.cancelled = true;
            self.lanes[b].out.iterations = done;
            stopped |= 1 << b;
        }
        stopped
    }

    /// The Bi-CGSTAB iteration (Alg. 3) — the only copy of the loop:
    /// [`bicgstab_solve`] runs it over one lane, [`bicgstab_solve_batch`]
    /// over many.
    fn solve(&mut self) {
        let (ctx, scope, params) = (self.ctx, self.scope, self.params);
        let (dev, comm, grid) = (&ctx.dev, &ctx.comm, &ctx.grid);
        let nb = self.lanes.len();
        debug_assert!((1..=MAX_LANES).contains(&nb));
        // A lane's ‖r‖² waits for the next M1 only where reductions cost
        // something: a real multi-rank world. On one rank (and in the
        // reduction-local `Scope::Local`) they are free, so it is reduced
        // in `"MPI5"` at once and the lag would only spend an extra
        // preconditioner application.
        let lag = scope == Scope::Global && comm.size() > 1;
        let identity = self.prec.is_identity();
        let has_tokens = self.lanes.iter().any(|l| l.cancel.is_some());

        // Lanes still iterating; the others have their final outcome.
        let mut live = self.form_residual(LaneSet::MAX >> (MAX_LANES - nb));
        if params.record_history {
            for lane in self.lanes.iter_mut() {
                lane.out.residual_history.push(lane.out.final_residual);
            }
        }

        for i in 1..=params.max_iters {
            if live == 0 {
                break;
            }
            // The lanes taking part in the rest of this iteration: a lane
            // that restarts leaves `run` but stays `live`, and rejoins at
            // the next iteration.
            let mut run = live;

            // Solve M p̂ = p (the one preconditioner serves the lanes in
            // turn, in fixed lane order, so any collectives inside a
            // communicating preconditioner stay rank-uniform); with M = I
            // p̂ is p.
            for l in pick_mut(self.lanes, run) {
                l.out.iterations = i;
                if !identity {
                    let apply = || self.prec.apply(ctx, &mut l.ws.p, &mut l.ws.p_hat);
                    l.out.prec_iterations += ctx.recorder.stage("Preconditioner", apply) as u64;
                }
            }
            // MPI1 + KernelNeumannBCs, then KernelBiCGS1: w = A p̂,
            // σ = r̃ᵀ w.
            let mut m1 = [T::ZERO; 3 * MAX_LANES];
            let sigmas = self.apply_dots(run, false, |_, r0, i, v| [r0[i] * v]);
            for (b, [sigma]) in members(run).zip(sigmas) {
                m1[b] = sigma;
            }

            // M1: σ = r̃ᵀw in one blocking message with two more groups
            // of per-lane slots — the lagged ‖r‖² of the lanes that lag,
            // and the cancel flags if tokens are installed, so a token
            // adds no message. Each rank sends its local view of the
            // flags and any rank's request counts; the decisions land at
            // iteration i−1's boundary, the x-update of i still to come.
            let mut n = nb;
            let mut lagging = 0;
            for b in members(run) {
                if let Some(rnorm2) = self.lanes[b].lag.take() {
                    m1[n + b] = rnorm2;
                    lagging |= 1 << b;
                }
            }
            n += if lagging != 0 { nb } else { 0 };
            let cancel_at = n;
            if has_tokens {
                for b in members(run) {
                    let cancelled = self.lanes[b].cancel.is_some_and(|t| t.is_cancelled());
                    m1[n + b] = if cancelled { T::ONE } else { T::ZERO };
                }
                n += nb;
            }
            global_sum(ctx, scope, "MPI2", &mut m1[..n]);
            live &= !self.finish_iteration(lagging, i - 1, &m1[nb..]);
            live &= !self.stop_cancelled(run & live, &m1[cancel_at..], i - 1);
            run &= live;
            let mut broken = 0;
            for (b, sigma) in members(run).map(|b| (b, m1[b])) {
                let lane = &mut self.lanes[b];
                if !sigma.is_finite() {
                    lane.out.breakdown = Some(Breakdown::NonFinite);
                    live &= !(1 << b);
                } else if sigma == T::ZERO {
                    lane.out.breakdown = Some(Breakdown::PSumZero);
                    broken |= 1 << b;
                } else {
                    lane.alpha = lane.rho / sigma;
                }
            }
            live &= !self.restart_or_stop(broken);
            run &= live & !broken;
            if run == 0 {
                continue;
            }

            // KernelBiCGS2F: r ← r − α w, and σ₃ = r̃ᵀ s — the first half
            // of the ρ recurrence ρ_{i+1} = r̃ᵀ r_{i+1} = r̃ᵀ s − ω r̃ᵀ t.
            // Computing ρ this way frees it from its serial dependence on
            // ω, letting it ride in M2 alongside the ω dots instead of
            // forcing a third reduction.
            let mut m2 = [T::ZERO; 4 * MAX_LANES];
            let mut accs = [[T::ZERO]; MAX_LANES];
            {
                let mut ys = Lanes::default();
                let mut ins = Lanes::default();
                for l in pick_mut(self.lanes, run) {
                    ys.push(l.ws.r.as_mut_slice());
                    ins.push((l.ws.w.as_slice(), -l.alpha, l.ws.r0t.as_slice()));
                }
                let accs = &mut accs[..ys.len()];
                axpy_dot_batch(dev, INFO_BICGS2F, grid, &mut ys, &ins, accs);
                for (b, acc) in members(run).zip(accs) {
                    m2[2 * nb + b] = acc[0];
                }
            }

            // Solve M r̂ = r; with M = I r̂ is r.
            if !identity {
                for l in pick_mut(self.lanes, run) {
                    let apply = || self.prec.apply(ctx, &mut l.ws.r, &mut l.ws.r_hat);
                    l.out.prec_iterations += ctx.recorder.stage("Preconditioner", apply) as u64;
                }
            }
            // MPI3 + BCs, then KernelBiCGS3F: t = A r̂ with p1 = tᵀ r,
            // p2 = tᵀ t and σ₄ = r̃ᵀ t (second half of the ρ recurrence),
            // all three dots riding in the stencil sweep.
            let dots = self.apply_dots(run, true, |r, r0, i, v| [v * r[i], v * v, r0[i] * v]);
            for (b, [p1, p2, c4]) in members(run).zip(dots) {
                (m2[b], m2[nb + b], m2[3 * nb + b]) = (p1, p2, c4);
            }

            // M2: all four scalars of every lane in one blocking batch —
            // both x-halves need this message's ω, so there is nothing
            // left to hide under it.
            global_sum(ctx, scope, "MPI4", &mut m2[..4 * nb]);

            // β only exists when ρ and ω are both non-zero, so breakdown
            // is decided *before* the residual/p sweep; a broken-down lane
            // rides in it with β = 0.
            let mut broken = 0;
            let mut kinds = [None; MAX_LANES];
            for b in members(run) {
                let lane = &mut self.lanes[b];
                let (p1, p2, c3, c4) = (m2[b], m2[nb + b], m2[2 * nb + b], m2[3 * nb + b]);
                if !(p1.is_finite() && p2.is_finite()) {
                    lane.out.breakdown = Some(Breakdown::NonFinite);
                    live &= !(1 << b);
                    run &= !(1 << b);
                    continue;
                }
                // t = 0 can only happen when r is (numerically) zero;
                // ω = 0 keeps the update well-defined and the convergence
                // check decides.
                lane.omega = if p2 == T::ZERO { T::ZERO } else { p1 / p2 };
                let rho_new = c3 - lane.omega * c4;
                if rho_new != T::ZERO && lane.omega != T::ZERO {
                    lane.beta = (rho_new / lane.rho) * (lane.alpha / lane.omega);
                    lane.rho = rho_new;
                } else {
                    lane.beta = T::ZERO;
                    broken |= 1 << b;
                    kinds[b] = Some(if rho_new == T::ZERO {
                        Breakdown::RhoZero
                    } else {
                        // stagnated: ω = 0 with a non-converged residual
                        Breakdown::OmegaZero
                    });
                }
            }
            if run == 0 {
                continue;
            }

            // KernelBiCGS456: x ← (x + α p̂) + ω r̂, r ← r − ω t, ‖r‖² and
            // p ← r + β (p − ω w) in one sweep, each row updating x first
            // (with M = I from the p and r rows about to be overwritten).
            // A broken-down lane's p is dead — a restart resets it to r, a
            // stopped lane never reads it. The direct ‖r‖² is kept — ρ
            // already came from the recurrence (the direct norm avoids the
            // cancellation a norm recurrence suffers near convergence).
            let mut rnorm2 = [T::ZERO; MAX_LANES];
            {
                let (mut rs, mut ps, mut xs, mut ins, mut x_ins) = Default::default();
                for l in pick_mut(self.lanes, run) {
                    let ws = &mut *l.ws;
                    let hats = (!identity).then(|| (ws.p_hat.as_slice(), ws.r_hat.as_slice()));
                    Lanes::push(&mut x_ins, (l.alpha, hats));
                    let (t, w) = (ws.t.as_slice(), ws.w.as_slice());
                    Lanes::push(&mut ins, (t, w, l.omega, l.beta));
                    Lanes::push(&mut rs, ws.r.as_mut_slice());
                    Lanes::push(&mut ps, ws.p.as_mut_slice());
                    Lanes::push(&mut xs, l.x.as_mut_slice());
                }
                let (accs, info) = (&mut accs[..rs.len()], info_bicgs456(identity));
                let (rs, ps, xs) = (&mut *rs, &mut *ps, &mut *xs);
                x_residual_p_update_fused_batch(dev, info, grid, rs, ps, xs, &ins, &x_ins, accs);
                for (b, acc) in members(run).zip(accs) {
                    rnorm2[b] = acc[0];
                }
            }

            // The norms of the lanes of a set, the other slots zero.
            let only = |set: LaneSet| {
                let mut s = [T::ZERO; MAX_LANES];
                members(set).for_each(|b| s[b] = rnorm2[b]);
                s
            };
            // Breakdown pre-empts the lag: those lanes reduce their norm
            // eagerly in a blocking message, so convergence keeps its
            // priority over the breakdown and a restart resumes from the
            // fully-updated iterate.
            if broken != 0 {
                let mut s = only(broken);
                global_sum(ctx, scope, "MPI5", &mut s[..nb]);
                let stopped = self.finish_iteration(broken, i, &s);
                let open = broken & !stopped;
                for b in members(open) {
                    self.lanes[b].out.breakdown = kinds[b];
                }
                live &= !(stopped | self.restart_or_stop(open));
            }
            let healthy = run & !broken;
            if healthy == 0 {
                continue;
            }
            if lag {
                // The stopping decision waits for next iteration's M1.
                for (b, l) in members(healthy).zip(pick_mut(self.lanes, healthy)) {
                    l.lag = Some(rnorm2[b]);
                }
            } else {
                let mut s = only(healthy);
                global_sum(ctx, scope, "MPI5", &mut s[..nb]);
                live &= !self.finish_iteration(healthy, i, &s);
            }
        }

        // Drain the lag when the iteration budget ran out with the last
        // iteration's stopping decisions still in flight.
        let mut lagging = 0;
        let mut rnorm2 = [T::ZERO; MAX_LANES];
        for (b, lane) in self.lanes.iter_mut().enumerate() {
            if let Some(r) = lane.lag.take() {
                rnorm2[b] = r;
                lagging |= 1 << b;
            }
        }
        if lagging != 0 {
            global_sum(ctx, scope, "MPI5", &mut rnorm2[..nb]);
            self.finish_iteration(lagging, params.max_iters, &rnorm2);
        }
    }
}

/// Solve `A x = b` with preconditioned Bi-CGSTAB (Alg. 3) — the
/// one-lane [`bicgstab_solve_batch`], without a cancel token.
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
    let cancel = None;
    let mut lanes = [Lane::new(LaneSystem { b, x, ws, cancel })];
    LaneGroup {
        ctx,
        scope,
        params,
        prec,
        lanes: &mut lanes,
    }
    .solve();
    let [lane] = lanes;
    lane.out
}

/// Solve `A x_b = b_b` for a batch of right-hand sides — one
/// [`LaneSystem`] each — with one Bi-CGSTAB instance per lane, amortising
/// sweeps, halo messages and reductions across the batch (see the module
/// docs): every full-grid vector sweep is **one** launch, every halo
/// exchange **one** message per face, and an iteration's scalars travel
/// in the two reductions of a solo solve instead of `2 B` — a multi-rank
/// batch ships `2·iters(longest lane) + 2` allreduces.
///
/// The lanes share `prec`, which applies to each lane in turn: a batch
/// holds one set of its buffers — the Chebyshev rotation fields, an inner
/// solve's workspace — not one per lane. That is sound for a
/// preconditioner whose output depends on its input alone, carrying
/// nothing from one application to the next — every one
/// [`crate::SolverKind::build_preconditioner`] builds: a Chebyshev
/// iteration runs a fixed polynomial over buffers it overwrites before
/// reading, and an inner Bi-CGSTAB starts from zero in a workspace it
/// overwrites the same way. Lane `b` then runs the schedule and features
/// of a solo solve — lanes-wide halos, lagged reductions, true-residual
/// guard, restarts — and its iterates, residual history and stopping
/// decisions are **bitwise identical** to `bicgstab_solve(ctx, scope, b,
/// x, prec, ws, params)` on its record under a deterministic
/// [`comm::ReduceOrder`]: batching only regroups which scalars share a
/// message and which sweep covers a row, never the arithmetic order
/// inside a lane.
///
/// Every rank must pass the same number of lanes, with tokens on the
/// same ones. A batch wider than one lane group (32 lanes) runs group
/// after group, each paying its own sweeps and messages.
pub fn bicgstab_solve_batch<'a, T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    lanes: impl IntoIterator<Item = LaneSystem<'a, T>>,
    prec: &mut P,
    params: &SolveParams,
) -> Vec<SolveOutcome>
where
    T: Scalar + 'a,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    // LINT: alloc-ok(the lane records, once per solve)
    let mut lanes: Vec<_> = lanes.into_iter().map(Lane::new).collect();
    for group in lanes.chunks_mut(MAX_LANES) {
        LaneGroup {
            ctx,
            scope,
            params,
            prec: &mut *prec,
            lanes: group,
        }
        .solve();
    }
    // LINT: alloc-ok(the result, once per solve)
    lanes.into_iter().map(|lane| lane.out).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SolverKind, SolverOptions};
    use crate::precond::IdentityPrec;
    use crate::testutil::{bits, paper_bcs, rng_values, scatter, world};
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

    /// [`solve_world`] on a 2×2×2 decomposition.
    fn solve_world8(
        seed: u64,
        kind: SolverKind,
        tol_rel: f64,
        cancel: Option<CancelToken>,
    ) -> Vec<(SolveOutcome, Vec<f64>, u64)> {
        solve_world([2, 2, 2], seed, kind, tol_rel, cancel)
    }

    /// Solve the seeded [`world`] problem on `decomp` with `kind`'s
    /// preconditioner; every rank returns `(outcome, local solution,
    /// allreduces)`. `tol_rel` is relative to the global RHS norm.
    fn solve_world(
        decomp: [usize; 3],
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
        world(decomp, seed, |ctx, b_local| {
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
                ..Default::default()
            };
            let lane = LaneSystem {
                b: &b,
                x: &mut x,
                ws: &mut ws,
                cancel: cancel.as_ref(),
            };
            let out =
                bicgstab_solve_batch(ctx, Scope::Global, [lane], &mut *prec, &params).remove(0);
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
    fn cancel_poll_adds_no_messages_on_a_one_rank_world() {
        // On one rank too a never-fired token rides M1: the solve ships
        // the token-free bill — ρ₀, then M1, M2 and the eager ‖r‖² per
        // iteration — and the iteration is bitwise untouched.
        let token = Some(CancelToken::new());
        let plain = solve_world([1, 1, 1], 61, SolverKind::BiCgs, 1e-8, None);
        let tokened = solve_world([1, 1, 1], 61, SolverKind::BiCgs, 1e-8, token);
        let ((po, _, pa), (to, _, ta)) = (&plain[0], &tokened[0]);
        assert!(po.converged && to.converged && !to.cancelled, "{to:?}");
        assert_eq!(po.iterations, to.iterations);
        assert_eq!(*pa, 3 * po.iterations as u64 + 1);
        assert_eq!(pa, ta, "an uncancelled token must not add messages");
        assert_eq!(bits(&po.residual_history), bits(&to.residual_history));
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

    fn solve_with(params: &SolveParams, cancel: Option<&CancelToken>) -> SolveOutcome {
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(216, 7));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let lane = LaneSystem {
            b: &b,
            x: &mut x,
            ws: &mut ws,
            cancel,
        };
        bicgstab_solve_batch(&ctx, Scope::Global, [lane], &mut IdentityPrec, params).remove(0)
    }

    #[test]
    fn true_residual_sampling_matches_recursive_residual() {
        let out = solve_with(
            &SolveParams {
                tol: 1e-12,
                true_residual_every: 3,
                ..Default::default()
            },
            None,
        );
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
        let params = SolveParams {
            tol: 1e-14,
            ..Default::default()
        };
        let out = solve_with(&params, Some(&token));
        assert!(out.cancelled);
        assert!(!out.converged);
        assert_eq!(out.iterations, 0);
    }

    #[test]
    fn uncancelled_token_changes_nothing_bitwise() {
        // Installing a token that never fires must not perturb the
        // iteration: identical history and iteration count.
        let params = SolveParams {
            tol: 1e-10,
            ..Default::default()
        };
        let plain = solve_with(&params, None);
        let tokened = solve_with(&params, Some(&CancelToken::new()));
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
        let params = SolveParams {
            tol: 1e-10,
            max_restarts: 3,
            ..Default::default()
        };
        let out = solve_with(&params, None);
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
    use crate::precond::{IdentityPrec, PrecTraits};
    use crate::testutil::{bits, lane_systems, paper_bcs, rng_values, scatter};
    use accel::{Event, GpuSimParams, Recorder, Serial, SimGpu, Threads};
    use blockgrid::{BlockGrid, Decomp, GlobalGrid};
    use comm::{run_ranks, run_ranks_recorded, ReduceOrder, SelfComm, ThreadComm};
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
        assert_eq!(so.restarts, bo.restarts, "{tag}: restarts");
        let samples = |o: &SolveOutcome| -> Vec<(usize, u64)> {
            let bits = |&(j, r): &(usize, f64)| (j, r.to_bits());
            o.true_residuals.iter().map(bits).collect()
        };
        assert_eq!(samples(so), samples(bo), "{tag}: true-residual samples");
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
    /// schedule): every lane of an `nb`-wide batch reproduces the solo
    /// fused solve bit-for-bit on each back-end's fold order.
    fn lanewise_matches_solo_on<D: Device>(label: &str, dev: D, nb: usize) {
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
        let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
        let mut bws: Vec<_> = (0..nb)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let lanes = lane_systems(&bfields, &mut xfields, &mut bws);
        let outs = bicgstab_solve_batch(&ctx, Scope::Global, lanes, &mut IdentityPrec, &params);
        for (l, (s, bo)) in solo.iter().zip(&outs).enumerate() {
            let bx = xfields[l].interior_to_host(&ctx.grid);
            assert_lane_matches_solo(&format!("{label} lane {l}"), s, bo, &bx);
        }
    }

    #[test]
    fn batched_lanes_bitwise_match_solo_on_every_backend() {
        lanewise_matches_solo_on("serial", Serial::new(Recorder::disabled()), 3);
        lanewise_matches_solo_on("threads", Threads::new(3, Recorder::disabled()), 3);
        lanewise_matches_solo_on(
            "simgpu",
            SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()),
            3,
        );
        // wider than one lane group: the batch runs group after group
        let wide = MAX_LANES + 2;
        lanewise_matches_solo_on(
            "serial, two groups",
            Serial::new(Recorder::disabled()),
            wide,
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
            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut prec = SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts);
            let mut bws: Vec<_> = (0..nb)
                .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                .collect();
            let lanes = lane_systems(&bfields, &mut xfields, &mut bws);
            let outs = bicgstab_solve_batch(&ctx, Scope::Global, lanes, &mut *prec, &params);
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

    /// The headline amortisation guarantee: a batch ships the solo lagged
    /// schedule's message count of its *longest* lane (2 per iteration,
    /// plus 2) instead of every lane's solo bill, and each of its halo
    /// exchanges ships one message per interface face, whatever the
    /// number of lanes riding in it, cancel `tokens` installed or not. A
    /// batch wider than [`MAX_LANES`] pays that bill once per lane group.
    /// Its fused sweeps are one launch for all lanes, so it launches them
    /// as often as its longest lane does alone.
    fn batch_ships_its_longest_lanes_bill(ranks: [usize; 3], nb: usize, tokens: bool) {
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 90 + l as u64)).collect();
        let bnorm: f64 = b_hosts[0].iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-8 * bnorm;

        let decomp = Decomp::new(ranks);
        let recorders = (0..decomp.ranks()).map(|_| Recorder::enabled()).collect();
        let run = move |comm: ThreadComm<f64>| {
            let rec = comm.recorder().clone();
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let dev = Serial::new(rec.clone());
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
            let mut solo_launches = Vec::new();
            for local in &locals {
                let b = Field::from_interior(&ctx.dev, &ctx.grid, local);
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                rec.drain();
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
                solo_launches.push(fused_launches(&rec.drain()));
            }
            let solo_msgs = ctx.comm.stats().allreduces - before_solo;

            // Batched message bill.
            let bfields: Vec<Field<f64>> = locals
                .iter()
                .map(|l| Field::from_interior(&ctx.dev, &ctx.grid, l))
                .collect();
            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut bws: Vec<_> = (0..nb)
                .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                .collect();
            let token = CancelToken::new();
            let lanes = lane_systems(&bfields, &mut xfields, &mut bws).map(|lane| LaneSystem {
                cancel: tokens.then_some(&token),
                ..lane
            });
            rec.drain();
            let before_batch = ctx.comm.stats().allreduces;
            let outs = bicgstab_solve_batch(&ctx, Scope::Global, lanes, &mut IdentityPrec, &params);
            let batch_msgs = ctx.comm.stats().allreduces - before_batch;
            let batch_iters: Vec<usize> = outs.iter().map(|o| o.iterations).collect();
            assert!(outs.iter().all(|o| o.converged), "{outs:?}");
            let faces = ctx.grid.interface_mask().count_ones();
            (
                (solo_iters, solo_launches),
                solo_msgs,
                batch_iters,
                batch_msgs,
                faces,
                rec.drain(),
            )
        };
        let results =
            run_ranks_recorded::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, recorders, run);

        for (
            rank,
            ((solo_iters, solo_launches), solo_msgs, batch_iters, batch_msgs, faces, events),
        ) in results.iter().enumerate()
        {
            assert_eq!(solo_iters, batch_iters, "rank {rank}: lane iterations");
            // Per lane group, the fused-sweep launches of its longest lane.
            let groups = batch_iters
                .chunks(MAX_LANES)
                .zip(solo_launches.chunks(MAX_LANES));
            let bill = groups.fold([0; 2], |bill, (iters, launches)| {
                let longest = (0..iters.len()).max_by_key(|&l| iters[l]).unwrap();
                std::array::from_fn(|k| bill[k] + launches[longest][k])
            });
            assert_eq!(fused_launches(events), bill, "rank {rank}: fused launches");
            // One pass of the driver per group of MAX_LANES lanes, each
            // as long as its longest lane.
            let longest: u64 = batch_iters
                .chunks(MAX_LANES)
                .map(|group| *group.iter().max().unwrap() as u64)
                .sum();
            let groups = nb.div_ceil(MAX_LANES) as u64;
            let solo_bill: u64 = solo_iters.iter().map(|&i| 2 * i as u64 + 2).sum();
            assert_eq!(*solo_msgs, solo_bill, "rank {rank}: solo bill");
            assert_eq!(
                *batch_msgs,
                2 * longest + 2 * groups,
                "rank {rank}: the batch must ship its longest lane's solo bill"
            );
            assert!(
                *batch_msgs < solo_bill,
                "rank {rank}: batching must amortize ({batch_msgs} vs {solo_bill})"
            );
            // Setup, then two operator applications per iteration (the
            // lag speculates one past the longest lane's last): each one
            // exchange, one message per interface face.
            let exchanges: Vec<u32> = events
                .iter()
                .filter_map(|e| match e {
                    Event::Halo { msgs, .. } => Some(*msgs),
                    _ => None,
                })
                .collect();
            let applications = 2 * longest + 2 * groups;
            assert_eq!(
                exchanges.len() as u64,
                applications,
                "rank {rank}: exchanges"
            );
            assert!(
                exchanges.iter().all(|m| m == faces),
                "rank {rank}: one message per interface face per exchange: {exchanges:?}"
            );
        }
    }

    /// Launches of the fused sweeps' kernels in an event stream.
    fn fused_launches(events: &[Event]) -> [usize; 2] {
        ["BiCGS1", "BiCGS3F"].map(|k| {
            let kernel = |e: &&Event| match e {
                Event::Kernel { name, .. } => name.strip_prefix("Kernel") == Some(k),
                _ => false,
            };
            events.iter().filter(kernel).count()
        })
    }

    #[test]
    fn batched_reductions_amortize_across_lanes() {
        batch_ships_its_longest_lanes_bill([2, 2, 2], 4, false);
        batch_ships_its_longest_lanes_bill([2, 1, 1], 3, true);
    }

    /// Width costs what the docs say and no more: 18 lanes (72 M2
    /// scalars) and 22 lanes with tokens (66 M1 scalars once lanes lag),
    /// both past 64 scalars, still ship two reductions per iteration; one
    /// lane past [`MAX_LANES`] runs as a second group.
    #[test]
    fn wide_batches_pay_the_documented_message_bill() {
        batch_ships_its_longest_lanes_bill([2, 1, 1], 18, false);
        batch_ships_its_longest_lanes_bill([2, 1, 1], 22, true);
        batch_ships_its_longest_lanes_bill([2, 1, 1], MAX_LANES + 1, false);
    }

    /// The addresses of a workspace's `p` and `r` — the inputs of its
    /// lane's two preconditioner applications per iteration — by which the
    /// one preconditioner of a group tells that lane's applications from
    /// the other lanes'.
    fn inputs_of<T: Scalar>(ws: &Workspace<T>) -> [usize; 2] {
        [&ws.p, &ws.r].map(|f| f.as_slice().as_ptr() as usize)
    }

    /// Whether `rhs` is one of the lane `inputs` name.
    fn is_input<T: Scalar>(inputs: [usize; 2], rhs: &Field<T>) -> bool {
        inputs.contains(&(rhs.as_slice().as_ptr() as usize))
    }

    /// An identity preconditioner that returns zero for the `at`-th
    /// application to one lane — the lane whose workspace `inputs` names.
    /// On a `p̂` application (odd `at`) that forces `r̃ᵀ A p̂ = 0`, a
    /// `PSumZero` breakdown; on an `r̂` application (even) `t = A r̂ = 0`,
    /// hence `ω = 0` — the eager-finish breakdown path `RhoZero` shares.
    struct ZeroAt {
        inputs: [usize; 2],
        at: usize,
        count: usize,
    }

    impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for ZeroAt {
        fn apply(
            &mut self,
            _ctx: &RankCtx<T, D, C>,
            rhs: &mut Field<T>,
            out: &mut Field<T>,
        ) -> usize {
            if is_input(self.inputs, rhs) {
                self.count += 1;
            }
            if is_input(self.inputs, rhs) && self.count == self.at {
                out.fill_zero();
            } else {
                out.copy_from(rhs);
            }
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
            "ZeroAt"
        }
    }

    /// Solve three seeded right-hand sides on `ranks`, each alone and then
    /// all together, under a `ZeroAt { at: zero_at }` aimed at lane 0, and
    /// assert every lane of the batch matches its solo run bitwise.
    /// Returns rank 0's batch outcomes.
    fn lanes_match_solo_with(
        ranks: [usize; 3],
        zero_at: usize,
        params: SolveParams,
    ) -> Vec<SolveOutcome> {
        let mut g = GlobalGrid::dirichlet([8, 6, 5], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let nb = 3;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 40 + l as u64)).collect();
        let decomp = Decomp::new(ranks);
        let mut results = run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let rank = comm.rank();
            let grid = BlockGrid::new(g.clone(), decomp, rank);
            let dev = Serial::new(Recorder::disabled());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
            let bfields: Vec<Field<f64>> = b_hosts
                .iter()
                .map(|bh| Field::from_interior(&ctx.dev, &ctx.grid, &scatter(&ctx.grid, bh)))
                .collect();

            let mut solo = Vec::new();
            for (l, b) in bfields.iter().enumerate() {
                let mut x = ctx.field();
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                let at = if l == 0 { zero_at } else { usize::MAX };
                let inputs = inputs_of(&ws);
                let mut prec = ZeroAt {
                    inputs,
                    at,
                    count: 0,
                };
                let out =
                    bicgstab_solve(&ctx, Scope::Global, b, &mut x, &mut prec, &mut ws, &params);
                solo.push((out, x.interior_to_host(&ctx.grid)));
            }

            let mut xfields: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut bws: Vec<_> = (0..nb)
                .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                .collect();
            let mut prec = ZeroAt {
                inputs: inputs_of(&bws[0]),
                at: zero_at,
                count: 0,
            };
            let lanes = lane_systems(&bfields, &mut xfields, &mut bws);
            let outs = bicgstab_solve_batch(&ctx, Scope::Global, lanes, &mut prec, &params);
            for (l, (s, bo)) in solo.iter().zip(&outs).enumerate() {
                let bx = xfields[l].interior_to_host(&ctx.grid);
                assert_lane_matches_solo(&format!("rank {rank} lane {l}"), s, bo, &bx);
            }
            outs
        });
        results.swap_remove(0)
    }

    /// What the batched path used to refuse: with a restart budget, a lane
    /// that breaks down restarts exactly like its solo run — on one rank
    /// and under the lagged schedule of two — while the other
    /// lanes of the batch are bitwise untouched.
    #[test]
    fn broken_lane_restarts_like_solo_and_leaves_the_others_alone() {
        let params = SolveParams {
            tol: 1e-9,
            max_iters: 2_000,
            max_restarts: 2,
            ..Default::default()
        };
        for ranks in [[1, 1, 1], [2, 1, 1]] {
            // application 5 solves M p̂ = p, application 6 solves M r̂ = r
            for zero_at in [5, 6] {
                let outs = lanes_match_solo_with(ranks, zero_at, params.clone());
                let tag = format!("{ranks:?} zero_at {zero_at}: {outs:?}");
                assert_eq!(outs[0].restarts, 1, "{tag}");
                assert!(outs.iter().all(|o| o.converged), "{tag}");
                assert!(outs[1..].iter().all(|o| o.restarts == 0), "{tag}");
                // without the budget the same lane reports its breakdown
                let broke = SolveParams {
                    max_restarts: 0,
                    ..params.clone()
                };
                let outs = lanes_match_solo_with(ranks, zero_at, broke);
                let kind = [Breakdown::PSumZero, Breakdown::OmegaZero][zero_at - 5];
                assert_eq!(outs[0].breakdown, Some(kind), "{tag}");
                assert!(outs[1..].iter().all(|o| o.converged), "{tag}");
            }
        }
    }

    /// ... and the true-residual guard samples every lane of a batch on
    /// its own iterations, with the values of its solo run.
    #[test]
    fn true_residual_guard_samples_each_lane_like_solo() {
        let params = SolveParams {
            tol: 1e-9,
            max_iters: 2_000,
            true_residual_every: 3,
            ..Default::default()
        };
        for ranks in [[1, 1, 1], [2, 1, 1]] {
            let outs = lanes_match_solo_with(ranks, usize::MAX, params.clone());
            for (l, out) in outs.iter().enumerate() {
                assert!(out.converged, "{ranks:?} lane {l}: {out:?}");
                // every third iteration short of the last; the last one is
                // sampled only if the recursive residual did not already
                // stop the lane there
                let every_third: Vec<usize> = (3..out.iterations).step_by(3).collect();
                let mut sampled: Vec<usize> = out.true_residuals.iter().map(|s| s.0).collect();
                sampled.retain(|&j| j < out.iterations);
                assert_eq!(sampled, every_third, "{ranks:?} lane {l}");
            }
        }
    }

    /// One solo run or batch lane of [`identity_runs`]: its outcome and
    /// solution, and whether its `p̂` and `r̂` were all NaN after the
    /// solve.
    type IdentityRun = ((SolveOutcome, Vec<f64>), bool);

    /// Solve three seeded right-hand sides with `M = I` in `scope` on
    /// `ranks`, over the device `dev` builds per rank — each lane alone,
    /// then all three as one batch — with every lane's `p̂` and `r̂`
    /// filled with NaN beforehand when `poison`. Returns rank
    /// by rank the three solo runs, then the three batch lanes.
    fn identity_runs<D: Device>(
        ranks: [usize; 3],
        scope: Scope,
        dev: impl Fn() -> D + Sync,
        poison: bool,
    ) -> Vec<Vec<IdentityRun>> {
        let mut g = GlobalGrid::dirichlet([8, 6, 5], [0.15; 3], [0.0; 3]);
        g.bc = paper_bcs();
        let n = g.unknowns();
        let nb = 3;
        let b_hosts: Vec<Vec<f64>> = (0..nb).map(|l| rng_values(n, 60 + l as u64)).collect();
        let params = SolveParams {
            tol: 1e-9,
            max_iters: 2_000,
            ..Default::default()
        };
        let decomp = Decomp::new(ranks);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
            let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev(), comm, grid);
            let bs: Vec<Field<f64>> = b_hosts
                .iter()
                .map(|bh| Field::from_interior(&ctx.dev, &ctx.grid, &scatter(&ctx.grid, bh)))
                .collect();
            let workspace = || {
                let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
                if poison {
                    for f in [&mut ws.p_hat, &mut ws.r_hat] {
                        f.as_mut_slice().fill(f64::NAN);
                    }
                }
                ws
            };
            let untouched = |ws: &Workspace<f64>| {
                let hats = [&ws.p_hat, &ws.r_hat];
                hats.iter().all(|f| f.as_slice().iter().all(|v| v.is_nan()))
            };
            let mut runs = Vec::new();
            for b in &bs {
                let mut x = ctx.field();
                let mut ws = workspace();
                let out =
                    bicgstab_solve(&ctx, scope, b, &mut x, &mut IdentityPrec, &mut ws, &params);
                runs.push(((out, x.interior_to_host(&ctx.grid)), untouched(&ws)));
            }
            let mut xs: Vec<Field<f64>> = (0..nb).map(|_| ctx.field()).collect();
            let mut wss: Vec<_> = (0..nb).map(|_| workspace()).collect();
            let lanes = lane_systems(&bs, &mut xs, &mut wss);
            let outs = bicgstab_solve_batch(&ctx, scope, lanes, &mut IdentityPrec, &params);
            for ((out, x), ws) in outs.into_iter().zip(&xs).zip(&wss) {
                runs.push(((out, x.interior_to_host(&ctx.grid)), untouched(ws)));
            }
            runs
        })
    }

    /// With `M = I` the driver sweeps `p` and `r` in place and updates x
    /// before the sweep that overwrites them: `p̂` and `r̂` poisoned
    /// with NaN stay all NaN and change no bit of any lane — on
    /// one rank (Serial and Threads), under the lagged two-rank schedule
    /// and block-restricted, solo and batched.
    #[test]
    fn identity_solves_never_write_the_preconditioned_buffers() {
        fn check<D: Device>(
            label: &str,
            ranks: [usize; 3],
            scope: Scope,
            dev: impl Fn() -> D + Sync,
        ) {
            let clean = identity_runs(ranks, scope, &dev, false);
            let poisoned = identity_runs(ranks, scope, &dev, true);
            for (rank, (clean, poisoned)) in clean.iter().zip(&poisoned).enumerate() {
                for (k, ((run, _), ((po, px), untouched))) in clean.iter().zip(poisoned).enumerate()
                {
                    let how = if k < 3 { "solo" } else { "batch lane" };
                    let tag = format!("{label} rank {rank} {how} {}", k % 3);
                    assert!(run.0.converged, "{tag}: {:?}", run.0);
                    assert_lane_matches_solo(&tag, run, po, px);
                    assert!(untouched, "{tag}: p̂ or r̂ was written");
                }
            }
        }
        let serial = || Serial::new(Recorder::disabled());
        check("serial", [1, 1, 1], Scope::Global, serial);
        check("threads:2", [1, 1, 1], Scope::Global, || {
            Threads::new(2, Recorder::disabled())
        });
        check("lagged", [2, 1, 1], Scope::Global, serial);
        check("local", [2, 1, 1], Scope::Local, serial);
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

        let bs = [ctx.field(), b_live];
        let mut xs = [ctx.field(), ctx.field()];
        let mut bws: Vec<_> = (0..2)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let lanes = lane_systems(&bs, &mut xs, &mut bws);
        let outs = bicgstab_solve_batch(&ctx, Scope::Global, lanes, &mut IdentityPrec, &params);
        assert!(outs[0].converged, "{:?}", outs[0]);
        assert_eq!(outs[0].iterations, 0);
        assert_eq!(outs[0].residual_history, vec![0.0]);
        assert!(xs[0].interior_to_host(&ctx.grid).iter().all(|&v| v == 0.0));
        let bx = xs[1].interior_to_host(&ctx.grid);
        assert_lane_matches_solo("live lane", &solo, &outs[1], &bx);
    }

    /// An identity preconditioner that fires a cancel token after a set
    /// number of applications to one lane — the lane whose workspace
    /// `inputs` names: a deterministic stand-in for a client abandoning
    /// that lane mid-solve.
    struct CancelAfter {
        inputs: [usize; 2],
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
            if is_input(self.inputs, rhs) {
                self.count += 1;
                if self.count == self.after {
                    self.token.cancel();
                }
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
        let bfields: Vec<Field<f64>> = seeds
            .iter()
            .map(|&s| Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(n, s)))
            .collect();
        let mut xfields: Vec<Field<f64>> = (0..2).map(|_| ctx.field()).collect();
        let mut bws: Vec<_> = (0..2)
            .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
            .collect();
        let token = CancelToken::new();
        let mut prec = CancelAfter {
            inputs: inputs_of(&bws[0]),
            token: token.clone(),
            after: fire_after.unwrap_or(usize::MAX),
            count: 0,
        };
        let mut lanes: Vec<_> = lane_systems(&bfields, &mut xfields, &mut bws).collect();
        lanes[0].cancel = fire_after.map(|_| &token);
        let outs = bicgstab_solve_batch(&ctx, Scope::Global, lanes, &mut prec, &params);
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

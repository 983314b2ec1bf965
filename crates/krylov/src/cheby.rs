//! The Chebyshev iteration (Algorithms 2 and 4 of the paper).
//!
//! Given the extreme eigenvalues `[α, β]` of the operator, the Chebyshev
//! iteration approximates `A⁻¹ b` with a fixed polynomial recurrence —
//! no scalar products, hence *reduction-free*, which makes it a fixed
//! preconditioner (Sec. III-A). Three communication flavours implement
//! the paper's preconditioner family:
//!
//! * [`ChebyMode::Global`] — halo exchanges every sweep: approximates the
//!   global `A⁻¹` (the `G(CI)` preconditioner).
//! * [`ChebyMode::GlobalNoComm`] — skips all communication but keeps the
//!   *global* eigenvalue bounds (`GNoComm(CI)`). As the paper notes, this
//!   is equivalent to a Block-Jacobi application with global Chebyshev
//!   parameters; the operator restriction zeroes interface ghosts.
//! * [`ChebyMode::BlockJacobi`] — same restricted operator but with the
//!   *local* subdomain bounds (`BJ(CI)`, Eq. 14).
//!
//! Like the paper's kernels templated on `T_data`, the iteration is
//! generic over its sweep element `E`, independent of the outer solve's
//! scalar `T`. With `E = T` the sweeps read the right-hand side in place
//! and the last one writes the result. With a narrower `E` — `f32`
//! sweeps under an `f64` Bi-CGSTAB (`SolverOptions::mixed_precision`) —
//! one rounding cast enters a resident `E` copy of the right-hand side
//! and one exact widening cast leaves: that precision boundary is the
//! only width-specific code. The sweeps, their state and their halo
//! messages are then all `E` wide, roughly halving the preconditioner's
//! streamed bytes and wire payloads. Bi-CGSTAB tolerates the inexact
//! preconditioner as long as it stays a *fixed* linear operator, and it
//! does: `(θ, δ, σ)` and the `ρ` recurrence stay in host `f64`, each
//! sweep's coefficients rounded to `E` once, so every application rounds
//! the same way. The outer recurrence and its residual stay in `T`.

use std::any::{Any, TypeId};

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::{apply_physical_bcs, spectrum, SpectralBounds};

use crate::ctx::RankCtx;
use crate::kernels::{
    cast, INFO_CAST_DOWN, INFO_CAST_UP, INFO_CI1, INFO_CI1_F32, INFO_CI2, INFO_CI2_F32, INFO_SCALE,
    INFO_SCALE_F32,
};

/// Communication flavour of the Chebyshev iteration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChebyMode {
    /// Exchange halos before every operator application (not comm-free).
    Global,
    /// No communication; global spectral bounds (`GNoComm`).
    GlobalNoComm,
    /// No communication; local (subdomain) spectral bounds (`BJ`).
    BlockJacobi,
}

impl ChebyMode {
    /// `true` if this flavour never communicates.
    pub fn comm_free(self) -> bool {
        !matches!(self, Self::Global)
    }
}

/// Extreme eigenvalues of the rank's *global* operator (Eqs. 10–11).
pub fn global_bounds<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
) -> SpectralBounds {
    spectrum::kronecker_bounds(&ctx.lap.global_ops(), ctx.grid.global.h)
}

/// Extreme eigenvalues of the rank's *restricted* operator
/// `R_s A R_sᵀ` (interfaces truncated, Eq. 13).
pub fn local_bounds<T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
) -> SpectralBounds {
    spectrum::kronecker_bounds(&ctx.lap.local_ops(), ctx.grid.global.h)
}

/// Refresh a field's ghost layers according to the iteration's mode.
fn refresh_ghosts<E: Scalar, T: Scalar, D: Device, C: Communicator<T>>(
    mode: ChebyMode,
    ctx: &RankCtx<T, D, C>,
    f: &mut Field<E>,
) {
    match mode {
        ChebyMode::Global => {
            ctx.halo.exchange(&ctx.dev, &ctx.comm, f);
            apply_physical_bcs(&ctx.grid, f, &ctx.recorder, false);
        }
        ChebyMode::GlobalNoComm | ChebyMode::BlockJacobi => {
            apply_physical_bcs(&ctx.grid, f, &ctx.recorder, true);
        }
    }
}

/// `f` as a field of the sweep element: `Some` exactly when `E = T`.
fn as_sweep_field<E: Scalar, T: Scalar>(f: &mut Field<T>) -> Option<&mut Field<E>> {
    (f as &mut dyn Any).downcast_mut()
}

/// A configured Chebyshev iteration sweeping in `E`, with its own
/// rotation buffers.
pub struct ChebyshevIteration<E> {
    mode: ChebyMode,
    iterations: usize,
    theta: f64,
    delta: f64,
    sigma: f64,
    z: Field<E>,
    y: Field<E>,
    w: Field<E>,
    /// The right-hand side rounded to `E` when the outer scalar is
    /// another type (resident, so the boundary allocates nothing); `None`
    /// when the sweeps read the caller's right-hand side in place.
    b: Option<Field<E>>,
}

impl<E: Scalar> ChebyshevIteration<E> {
    /// Configure the iteration for `ctx` with the given (already
    /// rescaled) spectral bounds and sweep count (`iterMax >= 1`).
    pub fn new<T: Scalar, D: Device, C: Communicator<T>>(
        ctx: &RankCtx<T, D, C>,
        mode: ChebyMode,
        bounds: SpectralBounds,
        iterations: usize,
    ) -> Self {
        assert!(iterations >= 1, "Chebyshev needs at least one sweep");
        assert!(
            bounds.min > 0.0 && bounds.max > bounds.min,
            "Chebyshev needs 0 < min < max, got {bounds:?}"
        );
        // Eq. 15, in full precision on the host.
        let theta = 0.5 * (bounds.max + bounds.min);
        let delta = 0.5 * (bounds.max - bounds.min);
        let sigma = theta / delta;
        let field = || Field::zeros(&ctx.dev, &ctx.grid);
        Self {
            mode,
            iterations,
            theta,
            delta,
            sigma,
            z: field(),
            y: field(),
            w: field(),
            b: (TypeId::of::<E>() != TypeId::of::<T>()).then(field),
        }
    }

    /// The iteration's communication flavour.
    pub fn mode(&self) -> ChebyMode {
        self.mode
    }

    /// The Chebyshev parameters `(θ, δ, σ)` of Eq. 15 (host `f64`).
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.theta, self.delta, self.sigma)
    }

    /// Run `iterMax` sweeps of Algorithm 4, writing `x ≈ A⁻¹ b`; returns
    /// the number of sweeps performed.
    ///
    /// With `E = T` the sweeps read `b` in place — its ghost layers are
    /// refreshed, its interior is unchanged — and the last sweep writes
    /// straight into `x`'s interior, no trailing full-field copy, so
    /// `x`'s ghost layers are left as they were (like every sweep output,
    /// they are the caller's to refresh before a stencil reads them).
    /// Otherwise `b`'s interior is read once through the rounding
    /// down-cast (its ghosts are left untouched: the iteration refreshes
    /// its own) and the result is widened into `x`'s interior.
    pub fn solve<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &mut Field<T>,
        x: &mut Field<T>,
    ) -> usize {
        match (as_sweep_field(b), as_sweep_field(x)) {
            (Some(b), Some(x)) => self.sweeps(ctx, b, Some(x)),
            _ => {
                // The precision boundary: one rounding step in, the last
                // sweep left in `w`, one exact widening step out.
                let mut lo = self.b.take().expect("a narrow iteration keeps its own RHS");
                cast(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut lo, b);
                self.sweeps(ctx, &mut lo, None);
                cast(&ctx.dev, INFO_CAST_UP, &ctx.grid, x, &self.w);
                self.b = Some(lo);
            }
        }
        self.iterations
    }

    /// The sweeps of Algorithm 4 on `b` (ghosts refreshed here): the last
    /// one lands in `x`, or in `w` when there is no `x` of this width.
    fn sweeps<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &mut Field<E>,
        mut x: Option<&mut Field<E>>,
    ) {
        let theta = self.theta;
        let delta = self.delta;
        let sigma = self.sigma;
        let mut rho_old = 1.0 / sigma;
        let mut rho_cur = 1.0 / (2.0 * sigma - rho_old);
        // the sweeps' traffic accounting follows their element width
        let [info_ci1, info_ci2, info_scale] = if E::BYTES == f32::BYTES {
            [INFO_CI1_F32, INFO_CI2_F32, INFO_SCALE_F32]
        } else {
            [INFO_CI1, INFO_CI2, INFO_SCALE]
        };

        // Split-phase only when the mode communicates and this rank has
        // a neighbour; the sweeps are bitwise-identical either way.
        let split = ctx.split_phase_halo(self.mode == ChebyMode::Global);

        // KernelCI1: z = b/θ ; y = 2 ρ/δ (2 b − A b / θ). Split, the
        // exchange of b's halos hides behind the ghost-independent scale
        // kernel and the window part of the sweep.
        let c1 = E::from_f64(4.0 * rho_cur / delta);
        let ca = E::from_f64(-2.0 * rho_cur / (delta * theta));
        let inv_theta = E::from_f64(1.0 / theta);
        // a one-sweep iteration's first sweep is its last
        let y1 = match (self.iterations, &mut x) {
            (1, Some(x)) => &mut **x,
            (1, None) => &mut self.w,
            _ => &mut self.y,
        };
        if split {
            let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, b);
            apply_physical_bcs(&ctx.grid, b, &ctx.recorder, false);
            crate::kernels::scale(&ctx.dev, info_scale, &ctx.grid, &mut self.z, b, inv_theta);
            ctx.lap
                .apply_combine_interior(&ctx.dev, info_ci1, b, y1, ca, [(b, c1)]);
            ctx.halo.finish(&ctx.dev, &ctx.comm, pending, b);
            ctx.lap
                .apply_combine_shell(&ctx.dev, info_ci1, b, y1, ca, [(b, c1)]);
        } else {
            // MPI1 + KernelNeumannBCs on b
            refresh_ghosts(self.mode, ctx, b);
            crate::kernels::scale(&ctx.dev, info_scale, &ctx.grid, &mut self.z, b, inv_theta);
            ctx.lap
                .apply_combine(&ctx.dev, info_ci1, b, y1, ca, [(b, c1)]);
        }

        for i in 2..=self.iterations {
            // the last sweep lands in `x`, the others in the scratch `w`
            let last = i == self.iterations;
            let w_mut = match (last, &mut x) {
                (true, Some(x)) => &mut **x,
                _ => &mut self.w,
            };
            // host-side ρ recurrence (the only CPU work in the CI loop)
            rho_old = rho_cur;
            rho_cur = 1.0 / (2.0 * sigma - rho_old);
            // KernelCI2: w = ρ (2σ y + 2/δ (b − A y) − ρ_old z)
            let ca = E::from_f64(-2.0 * rho_cur / delta);
            let cy = E::from_f64(2.0 * sigma * rho_cur);
            let cb = E::from_f64(2.0 * rho_cur / delta);
            let cz = E::from_f64(-rho_cur * rho_old);
            if split {
                // MPI2 in flight behind BCs + the window sweep
                let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, &self.y);
                apply_physical_bcs(&ctx.grid, &mut self.y, &ctx.recorder, false);
                let (y_ref, z_ref) = (&self.y, &self.z);
                ctx.lap.apply_combine_interior(
                    &ctx.dev,
                    info_ci2,
                    y_ref,
                    w_mut,
                    ca,
                    [(y_ref, cy), (b, cb), (z_ref, cz)],
                );
                ctx.halo.finish(&ctx.dev, &ctx.comm, pending, &mut self.y);
                let (y_ref, z_ref) = (&self.y, &self.z);
                ctx.lap.apply_combine_shell(
                    &ctx.dev,
                    info_ci2,
                    y_ref,
                    w_mut,
                    ca,
                    [(y_ref, cy), (b, cb), (z_ref, cz)],
                );
            } else {
                // MPI2 + KernelNeumannBCs on y
                refresh_ghosts(self.mode, ctx, &mut self.y);
                let (y_ref, z_ref) = (&self.y, &self.z);
                ctx.lap.apply_combine(
                    &ctx.dev,
                    info_ci2,
                    y_ref,
                    w_mut,
                    ca,
                    [(y_ref, cy), (b, cb), (z_ref, cz)],
                );
            }
            if !last {
                // pointer rotation: z ← y, y ← w (w's old storage becomes scratch)
                self.z.swap(&mut self.y);
                self.y.swap(&mut self.w);
            }
        }
    }
}

/// Outcome of using the Chebyshev iteration as the *main* solver.
#[derive(Clone, Debug)]
pub struct ChebyOutcome {
    /// `true` if the residual tolerance was met.
    pub converged: bool,
    /// Total Chebyshev sweeps performed (across restarts).
    pub sweeps: usize,
    /// Residual 2-norm after each restart cycle, starting with `‖r_0‖`.
    pub residual_history: Vec<f64>,
    /// Final residual 2-norm.
    pub final_residual: f64,
}

impl<T: Scalar> ChebyshevIteration<T> {
    /// Use the Chebyshev iteration as the *main solver* (Sec. III-A notes
    /// this is possible but slower than Krylov methods — asserted in the
    /// test suite): restarted `iterMax`-sweep cycles with a true-residual
    /// check between cycles (iterative refinement),
    ///
    /// ```text
    /// r = b − A x;  if ‖r‖ < tol stop;  x += CI(r)
    /// ```
    ///
    /// Convergence requires the iteration to approximate the *global*
    /// inverse, i.e. [`ChebyMode::Global`] on multi-rank worlds (the
    /// restricted modes are preconditioners, not solvers, once the domain
    /// is split). `x` holds the initial guess on entry.
    pub fn solve_monitored<D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &Field<T>,
        x: &mut Field<T>,
        tol: f64,
        max_sweeps: usize,
    ) -> ChebyOutcome {
        use crate::kernels::{axpy_inplace, norm2_axpy, INFO_BICGS2, INFO_NORM2AXPY};
        use comm::ReduceOp;

        let mut residual = ctx.field();
        let mut correction = ctx.field();
        let mut sweeps = 0usize;
        let mut history = Vec::new();
        loop {
            // A x, staged in `correction` (refilled by the CI below)
            if ctx.split_phase_halo(self.mode == ChebyMode::Global) {
                let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, x);
                apply_physical_bcs(&ctx.grid, x, &ctx.recorder, false);
                ctx.lap
                    .apply_interior(&ctx.dev, stencil::INFO_APPLY, x, &mut correction);
                ctx.halo.finish(&ctx.dev, &ctx.comm, pending, x);
                ctx.lap
                    .apply_shell(&ctx.dev, stencil::INFO_APPLY, x, &mut correction);
            } else {
                refresh_ghosts(self.mode, ctx, x);
                ctx.lap
                    .apply(&ctx.dev, stencil::INFO_APPLY, x, &mut correction);
            }
            // r = b − A x and ‖r‖² in one fused sweep — no per-cycle
            // temporary field, no separate copy/axpy/dot triple.
            let mut s = [norm2_axpy(
                &ctx.dev,
                INFO_NORM2AXPY,
                &ctx.grid,
                &mut residual,
                b,
                &correction,
            )];
            ctx.comm.all_reduce(&mut s, ReduceOp::Sum);
            let res = s[0].to_f64().max(0.0).sqrt();
            history.push(res);
            if res < tol {
                return ChebyOutcome {
                    converged: true,
                    sweeps,
                    residual_history: history,
                    final_residual: res,
                };
            }
            if sweeps >= max_sweeps || !res.is_finite() {
                return ChebyOutcome {
                    converged: false,
                    sweeps,
                    residual_history: history,
                    final_residual: res,
                };
            }
            // x += CI(r)
            sweeps += self.solve(ctx, &mut residual, &mut correction);
            axpy_inplace(&ctx.dev, INFO_BICGS2, &ctx.grid, x, &correction, T::ONE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{norm2_local, INFO_DOT};
    use crate::testutil::{bits, chebyshev_sync_oracle, rng_values, world};
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::SelfComm;
    use stencil::matrix::assemble_poisson;
    use stencil::INFO_APPLY;

    fn ctx_single(n: usize) -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet([n, n, n], [0.2; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Neumann];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    /// One fresh `E`-sweep application of `sweeps` sweeps to `rhs`.
    fn apply<E: Scalar>(
        ctx: &RankCtx<f64, Serial, SelfComm<f64>>,
        mode: ChebyMode,
        sweeps: usize,
        rhs: &[f64],
    ) -> Vec<f64> {
        let mut b = Field::from_interior(&ctx.dev, &ctx.grid, rhs);
        let mut x = ctx.field();
        let mut cheb = ChebyshevIteration::<E>::new(ctx, mode, global_bounds(ctx), sweeps);
        cheb.solve(ctx, &mut b, &mut x);
        x.interior_to_host(&ctx.grid)
    }

    #[test]
    fn parameters_follow_eq15() {
        let ctx = ctx_single(4);
        let cheb = ChebyshevIteration::<f64>::new(
            &ctx,
            ChebyMode::Global,
            SpectralBounds {
                min: 2.0,
                max: 10.0,
            },
            3,
        );
        let (theta, delta, sigma) = cheb.parameters();
        assert_eq!(theta, 6.0);
        assert_eq!(delta, 4.0);
        assert_eq!(sigma, 1.5);
    }

    #[test]
    fn error_decreases_with_sweeps() {
        let ctx = ctx_single(5);
        let n = ctx.grid.global.unknowns();
        let x_true = rng_values(n, 9);
        // b = A x_true via dense reference
        let m = assemble_poisson(&ctx.lap.global_ops(), ctx.grid.global.h);
        let b_host = m.matvec(&x_true);
        let mut prev_err = f64::INFINITY;
        for sweeps in [2usize, 6, 16, 40] {
            let got = apply::<f64>(&ctx, ChebyMode::Global, sweeps, &b_host);
            let err: f64 = got
                .iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b) * (a - b))
                .sum::<f64>()
                .sqrt();
            assert!(
                err < prev_err,
                "error must shrink: {err} !< {prev_err} at {sweeps}"
            );
            prev_err = err;
        }
        assert!(
            prev_err < 1e-2,
            "40 sweeps should be quite accurate: {prev_err}"
        );
    }

    #[test]
    fn residual_shrinks_after_preconditioning() {
        // One CI application must reduce ||b - A x|| vs x = 0 baseline.
        let ctx = ctx_single(6);
        let n = ctx.grid.global.unknowns();
        let b_host = rng_values(n, 21);
        let mut b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        let mut x = ctx.field();
        let bounds = global_bounds(&ctx);
        let mut cheb = ChebyshevIteration::<f64>::new(&ctx, ChebyMode::Global, bounds, 24);
        cheb.solve(&ctx, &mut b, &mut x);
        // r = b - A x
        ctx.halo.exchange(&ctx.dev, &ctx.comm, &mut x);
        apply_physical_bcs(&ctx.grid, &mut x, &ctx.recorder, false);
        let mut ax = ctx.field();
        ctx.lap.apply(&ctx.dev, INFO_APPLY, &x, &mut ax);
        crate::kernels::axpy_inplace(&ctx.dev, INFO_DOT, &ctx.grid, &mut ax, &b, -1.0);
        let r2 = norm2_local(&ctx.dev, INFO_DOT, &ctx.grid, &ax);
        let b2 = norm2_local(&ctx.dev, INFO_DOT, &ctx.grid, &b);
        assert!(
            r2 < 0.25 * b2,
            "24 CI sweeps should cut the residual well below the RHS: {r2} vs {b2}"
        );
    }

    #[test]
    fn application_is_linear() {
        // Fixed (reduction-free) preconditioner => exactly linear operator.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let u = rng_values(n, 1);
        let v = rng_values(n, 2);
        let (a, c) = (0.7, -1.3);
        let combo: Vec<f64> = u.iter().zip(&v).map(|(x, y)| a * x + c * y).collect();
        let mu = apply::<f64>(&ctx, ChebyMode::GlobalNoComm, 8, &u);
        let mv = apply::<f64>(&ctx, ChebyMode::GlobalNoComm, 8, &v);
        let mc = apply::<f64>(&ctx, ChebyMode::GlobalNoComm, 8, &combo);
        for i in 0..n {
            let expect = a * mu[i] + c * mv[i];
            assert!(
                (mc[i] - expect).abs() < 1e-10 * expect.abs().max(1.0),
                "linearity violated at {i}: {} vs {expect}",
                mc[i]
            );
        }
    }

    #[test]
    fn application_is_linear_in_f32() {
        // Fixed single-precision polynomial => linear to f32 rounding.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let u = rng_values(n, 1);
        let two_u: Vec<f64> = u.iter().map(|v| 2.0 * v).collect();
        let mu = apply::<f32>(&ctx, ChebyMode::GlobalNoComm, 8, &u);
        let m2u = apply::<f32>(&ctx, ChebyMode::GlobalNoComm, 8, &two_u);
        for i in 0..n {
            // scaling by 2 is exact in binary floating point
            assert_eq!(m2u[i], 2.0 * mu[i], "homogeneity violated at {i}");
        }
    }

    #[test]
    fn single_rank_modes_coincide() {
        // With one rank there are no interfaces: BJ, GNoComm and Global
        // restrict identically, so all three must agree bitwise.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 77);
        let run = |mode: ChebyMode, bounds: SpectralBounds| {
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            let mut x = ctx.field();
            let mut cheb = ChebyshevIteration::<f64>::new(&ctx, mode, bounds, 10);
            cheb.solve(&ctx, &mut b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let g = global_bounds(&ctx);
        let l = local_bounds(&ctx);
        assert_eq!(g, l, "single rank: local operator == global operator");
        let a = run(ChebyMode::Global, g);
        let b = run(ChebyMode::GlobalNoComm, g);
        let c = run(ChebyMode::BlockJacobi, l);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn mixed_tracks_the_f64_iteration_to_f32_accuracy() {
        // The f32 sweeps implement the same polynomial; the result must
        // match the f64 iteration to within single-precision rounding
        // accumulated over the sweeps, far tighter than the inexactness
        // Bi-CGSTAB already tolerates from the preconditioner — also for
        // a one-sweep iteration, whose only sweep is its last.
        let ctx = ctx_single(6);
        let rhs = rng_values(ctx.grid.global.unknowns(), 17);
        for sweeps in [1, 24] {
            let wide = apply::<f64>(&ctx, ChebyMode::Global, sweeps, &rhs);
            let mixed = apply::<f32>(&ctx, ChebyMode::Global, sweeps, &rhs);
            let scale: f64 = wide.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
            for (a, b) in wide.iter().zip(&mixed) {
                assert!(
                    (a - b).abs() < 1e-4 * scale,
                    "{sweeps} sweeps: mixed diverged from f64: {a} vs {b} (scale {scale})"
                );
            }
        }
    }

    #[test]
    fn nan_poisoned_rhs_ghosts_do_not_leak() {
        // The down-cast reads only the interior and the iteration
        // refreshes its own f32 ghosts, so NaNs planted in the f64 RHS
        // ghost layers must not perturb a single output bit.
        let ctx = ctx_single(5);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 41);
        let bounds = global_bounds(&ctx);
        let run = |poison: bool| {
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            if poison {
                let mi = ctx.grid.interior_map();
                let mut interior = vec![false; b.as_slice().len()];
                for k in 0..mi.nz {
                    for j in 0..mi.ny {
                        let off = mi.row_offset(j, k);
                        interior[off..off + mi.len]
                            .iter_mut()
                            .for_each(|m| *m = true);
                    }
                }
                for (v, keep) in b.as_mut_slice().iter_mut().zip(&interior) {
                    if !keep {
                        *v = f64::NAN;
                    }
                }
            }
            let mut x = ctx.field();
            let mut mixed = ChebyshevIteration::<f32>::new(&ctx, ChebyMode::Global, bounds, 10);
            mixed.solve(&ctx, &mut b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let clean = run(false);
        let poisoned = run(true);
        for (c, p) in clean.iter().zip(&poisoned) {
            assert!(p.is_finite(), "a sweep read a poisoned ghost: {p}");
            assert_eq!(c.to_bits(), p.to_bits());
        }
    }

    /// A *fixed* preconditioner: state carried in the rotation buffers
    /// (and the resident narrow RHS) between applications must not
    /// change the result.
    fn repeated_applications_agree<E: Scalar>() {
        let ctx = ctx_single(4);
        let rhs = rng_values(ctx.grid.global.unknowns(), 55);
        let bounds = global_bounds(&ctx);
        let mut cheb = ChebyshevIteration::<E>::new(&ctx, ChebyMode::Global, bounds, 8);
        let mut outs = Vec::new();
        for _ in 0..2 {
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            let mut x = ctx.field();
            cheb.solve(&ctx, &mut b, &mut x);
            outs.push(bits(&x.interior_to_host(&ctx.grid)));
        }
        assert_eq!(outs[0], outs[1]);
    }

    #[test]
    fn repeated_applications_are_identical() {
        repeated_applications_agree::<f64>();
        repeated_applications_agree::<f32>();
    }

    /// On a communicating world the iteration runs split-phase (begin →
    /// interior → finish → shell); at sweep width `E` it must not change
    /// a bit relative to blocking exchanges and monolithic sweeps on the
    /// same down-cast right-hand side.
    fn split_matches_sync_oracle<E: Scalar>(decomp: [usize; 3], seed: u64) {
        let results = world(decomp, seed, |ctx, b_local| {
            let bounds = global_bounds(ctx).rescaled(1e-4, 10.0);
            let mut cheb = ChebyshevIteration::<E>::new(ctx, ChebyMode::Global, bounds, 12);
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, b_local);
            let mut x = ctx.field();
            cheb.solve(ctx, &mut b, &mut x);
            let mut b_e = Field::<E>::zeros(&ctx.dev, &ctx.grid);
            cast(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut b_e, &b);
            let want = chebyshev_sync_oracle(
                ctx,
                cheb.parameters(),
                12,
                |f| refresh_ghosts(ChebyMode::Global, ctx, f),
                b_e,
            );
            let want: Vec<f64> = want
                .interior_to_host(&ctx.grid)
                .iter()
                .map(|v| v.to_f64())
                .collect();
            (bits(&x.interior_to_host(&ctx.grid)), bits(&want))
        });
        for (rank, (got, want)) in results.iter().enumerate() {
            assert_eq!(got, want, "{decomp:?} rank {rank}");
        }
    }

    #[test]
    fn split_phase_sweeps_match_the_synchronous_oracle_at_both_widths() {
        // 8 ranks: every rank has x, y and z faces in flight; 2 ranks
        // along x: one face, so the windowed split peels a real window.
        for (decomp, seed) in [([2, 2, 2], 29), ([2, 1, 1], 23)] {
            split_matches_sync_oracle::<f64>(decomp, seed);
            split_matches_sync_oracle::<f32>(decomp, seed);
        }
    }

    #[test]
    #[should_panic(expected = "at least one sweep")]
    fn zero_iterations_rejected() {
        let ctx = ctx_single(3);
        let _ = ChebyshevIteration::<f64>::new(
            &ctx,
            ChebyMode::Global,
            SpectralBounds { min: 1.0, max: 2.0 },
            0,
        );
    }
}

#[cfg(test)]
mod main_solver_tests {
    use super::*;
    use crate::bicgstab::{bicgstab_solve, Scope, SolveParams};
    use crate::ctx::Workspace;
    use crate::precond::IdentityPrec;
    use accel::{Recorder, Serial};
    use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
    use comm::SelfComm;

    fn ctx() -> RankCtx<f64, Serial, SelfComm<f64>> {
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([8, 8, 8], [0.2; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.37).sin()).collect()
    }

    #[test]
    fn chebyshev_main_solver_converges() {
        let ctx = ctx();
        let b_host = rhs(512);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
        let mut x = ctx.field();
        let mut ci =
            ChebyshevIteration::<f64>::new(&ctx, ChebyMode::Global, global_bounds(&ctx), 16);
        let out = ci.solve_monitored(&ctx, &b, &mut x, 1e-8 * bnorm, 100_000);
        assert!(out.converged, "{out:?}");
        assert!(out.final_residual < 1e-8 * bnorm);
        // residual history decreases monotonically for a fixed iteration
        for w in out.residual_history.windows(2) {
            assert!(
                w[1] < w[0],
                "restarted CI must contract: {:?}",
                out.residual_history
            );
        }
    }

    #[test]
    fn chebyshev_is_slower_than_bicgstab() {
        // the paper: "its convergence rate is known to be slower compared
        // to iterative Krylov methods" — compare matrix applications.
        let ctx = ctx();
        let b_host = rhs(512);
        let bnorm: f64 = b_host.iter().map(|v| v * v).sum::<f64>().sqrt();
        let tol = 1e-8 * bnorm;
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);

        let mut x = ctx.field();
        let mut ci =
            ChebyshevIteration::<f64>::new(&ctx, ChebyMode::Global, global_bounds(&ctx), 16);
        let ci_out = ci.solve_monitored(&ctx, &b, &mut x, tol, 100_000);
        assert!(ci_out.converged);
        // CI matvecs: one per sweep plus one residual check per cycle
        let ci_matvecs = ci_out.sweeps + ci_out.residual_history.len();

        let mut x2 = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let bi_out = bicgstab_solve(
            &ctx,
            Scope::Global,
            &b,
            &mut x2,
            &mut IdentityPrec,
            &mut ws,
            &SolveParams {
                tol,
                max_iters: 10_000,
                record_history: false,
                ..Default::default()
            },
        );
        assert!(bi_out.converged);
        let bi_matvecs = 2 * bi_out.iterations;
        assert!(
            ci_matvecs > bi_matvecs,
            "CI should need more operator applications: {ci_matvecs} vs {bi_matvecs}"
        );
    }

    #[test]
    fn main_solver_honours_sweep_budget() {
        let ctx = ctx();
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs(512));
        let mut x = ctx.field();
        let mut ci =
            ChebyshevIteration::<f64>::new(&ctx, ChebyMode::Global, global_bounds(&ctx), 16);
        let out = ci.solve_monitored(&ctx, &b, &mut x, 1e-300, 32);
        assert!(!out.converged);
        assert!(out.sweeps <= 48, "budget roughly honoured: {}", out.sweeps);
    }
}

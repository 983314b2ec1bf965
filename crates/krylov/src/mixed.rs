//! Mixed-precision Chebyshev iteration: `f32` sweeps under an `f64`
//! Bi-CGSTAB recurrence.
//!
//! The solver is memory-bandwidth-bound and the Chebyshev
//! preconditioner's sweeps are the bulk of every iteration's streamed
//! bytes, so running them in single precision nearly halves both the
//! sweep traffic and the halo payloads. Because Bi-CGSTAB tolerates an
//! *inexact* preconditioner — it only has to stay a *fixed* linear
//! operator for the standard (non-flexible) recurrence to hold — the
//! inner iteration can round freely as long as it rounds the same way
//! every application, which a fixed `f32` polynomial does. The outer
//! recurrence stays in `f64`: its scalars (`ρ`, `α`, `ω`) and residual
//! are what convergence is measured with, and single precision there
//! would floor the achievable residual near `1e-7‖b‖`.
//!
//! The precision boundary is one rounding step on entry
//! ([`crate::kernels::cast_down`], round-to-nearest-even per element)
//! and an exact widening on exit ([`crate::kernels::cast_up`]); the
//! Chebyshev coefficients are computed on the host in `f64` (Eq. 15)
//! and rounded once per sweep, exactly as the `T_data = float` build of
//! the paper's templated kernels would.

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::{apply_physical_bcs, SpectralBounds};

use crate::cheby::ChebyMode;
use crate::ctx::RankCtx;
use crate::kernels::{
    cast_down, cast_up, INFO_CAST_DOWN, INFO_CAST_UP, INFO_CI1_F32, INFO_CI2_F32, INFO_SCALE_F32,
};

/// Refresh a single-precision field's ghost layers according to the
/// iteration's mode — the `f32` twin of the `f64` path, using the
/// half-width halo wire format.
fn refresh_ghosts_f32<T: Scalar, D: Device, C: Communicator<T>>(
    mode: ChebyMode,
    ctx: &RankCtx<T, D, C>,
    f: &mut Field<f32>,
) {
    match mode {
        ChebyMode::Global => {
            ctx.halo.exchange_f32(&ctx.dev, &ctx.comm, f);
            apply_physical_bcs(&ctx.grid, f, &ctx.recorder, false);
        }
        ChebyMode::GlobalNoComm | ChebyMode::BlockJacobi => {
            apply_physical_bcs(&ctx.grid, f, &ctx.recorder, true);
        }
    }
}

/// A Chebyshev iteration whose sweeps, state and halo traffic are all
/// `f32`, applied as a preconditioner inside an `f64` outer solve.
///
/// Mirrors [`crate::ChebyshevIteration`] sweep for sweep (including the
/// split-phase halo overlap of the `Global` mode); only the element
/// width differs. The `(θ, δ, σ)` parameters and the `ρ` recurrence
/// stay on the host in `f64` — each sweep's coefficients are rounded
/// to `f32` once, so the iteration is a *fixed* single-precision
/// polynomial in exact arithmetic terms.
pub struct MixedChebyshev {
    mode: ChebyMode,
    iterations: usize,
    theta: f64,
    delta: f64,
    sigma: f64,
    b32: Field<f32>,
    z: Field<f32>,
    y: Field<f32>,
    w: Field<f32>,
}

impl MixedChebyshev {
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
        Self {
            mode,
            iterations,
            theta,
            delta,
            sigma,
            b32: Field::zeros(&ctx.dev, &ctx.grid),
            z: Field::zeros(&ctx.dev, &ctx.grid),
            y: Field::zeros(&ctx.dev, &ctx.grid),
            w: Field::zeros(&ctx.dev, &ctx.grid),
        }
    }

    /// Number of sweeps per application.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The iteration's communication flavour.
    pub fn mode(&self) -> ChebyMode {
        self.mode
    }

    /// The Chebyshev parameters `(θ, δ, σ)` of Eq. 15 (host `f64`).
    pub fn parameters(&self) -> (f64, f64, f64) {
        (self.theta, self.delta, self.sigma)
    }

    /// Run `iterMax` single-precision sweeps of Algorithm 4, writing
    /// `x ≈ A⁻¹ b` widened back to the outer precision. `b`'s interior
    /// is read once through the rounding down-cast; its `f64` ghosts are
    /// left untouched (the iteration refreshes its *own* `f32` ghosts).
    /// Returns the number of sweeps performed.
    pub fn solve<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &Field<T>,
        x: &mut Field<T>,
    ) -> usize {
        // The precision boundary: one rounding step on entry.
        cast_down(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut self.b32, b);

        let theta = self.theta;
        let delta = self.delta;
        let sigma = self.sigma;
        let mut rho_old = 1.0 / sigma;
        let mut rho_cur = 1.0 / (2.0 * sigma - rho_old);

        // Split-phase only when the mode communicates and this rank has
        // a neighbour; the sweeps are bitwise-identical either way.
        let split = ctx.split_phase_halo(self.mode == ChebyMode::Global);

        // KernelCI1f32: z = b/θ ; y = 2 ρ/δ (2 b − A b / θ). Coefficients
        // round host-f64 → f32 once per sweep.
        let c1 = (4.0 * rho_cur / delta) as f32;
        let ca = (-2.0 * rho_cur / (delta * theta)) as f32;
        let inv_theta = (1.0 / theta) as f32;
        if split {
            let pending = ctx.halo.begin_f32(&ctx.dev, &ctx.comm, &self.b32);
            apply_physical_bcs(&ctx.grid, &mut self.b32, &ctx.recorder, false);
            crate::kernels::scale(
                &ctx.dev,
                INFO_SCALE_F32,
                &ctx.grid,
                &mut self.z,
                &self.b32,
                inv_theta,
            );
            ctx.lap.apply_combine_interior(
                &ctx.dev,
                INFO_CI1_F32,
                &self.b32,
                &mut self.y,
                ca,
                [(&self.b32, c1)],
            );
            ctx.halo
                .finish_f32(&ctx.dev, &ctx.comm, pending, &mut self.b32);
            ctx.lap.apply_combine_shell(
                &ctx.dev,
                INFO_CI1_F32,
                &self.b32,
                &mut self.y,
                ca,
                [(&self.b32, c1)],
            );
        } else {
            refresh_ghosts_f32(self.mode, ctx, &mut self.b32);
            crate::kernels::scale(
                &ctx.dev,
                INFO_SCALE_F32,
                &ctx.grid,
                &mut self.z,
                &self.b32,
                inv_theta,
            );
            ctx.lap.apply_combine(
                &ctx.dev,
                INFO_CI1_F32,
                &self.b32,
                &mut self.y,
                ca,
                [(&self.b32, c1)],
            );
        }

        for _i in 2..=self.iterations {
            // host-side ρ recurrence, still in f64
            rho_old = rho_cur;
            rho_cur = 1.0 / (2.0 * sigma - rho_old);
            // KernelCI2f32: w = ρ (2σ y + 2/δ (b − A y) − ρ_old z)
            let ca = (-2.0 * rho_cur / delta) as f32;
            let cy = (2.0 * sigma * rho_cur) as f32;
            let cb = (2.0 * rho_cur / delta) as f32;
            let cz = (-rho_cur * rho_old) as f32;
            if split {
                let pending = ctx.halo.begin_f32(&ctx.dev, &ctx.comm, &self.y);
                apply_physical_bcs(&ctx.grid, &mut self.y, &ctx.recorder, false);
                let (y_ref, z_ref, b_ref, w_mut) = (&self.y, &self.z, &self.b32, &mut self.w);
                ctx.lap.apply_combine_interior(
                    &ctx.dev,
                    INFO_CI2_F32,
                    y_ref,
                    w_mut,
                    ca,
                    [(y_ref, cy), (b_ref, cb), (z_ref, cz)],
                );
                ctx.halo
                    .finish_f32(&ctx.dev, &ctx.comm, pending, &mut self.y);
                let (y_ref, z_ref, b_ref, w_mut) = (&self.y, &self.z, &self.b32, &mut self.w);
                ctx.lap.apply_combine_shell(
                    &ctx.dev,
                    INFO_CI2_F32,
                    y_ref,
                    w_mut,
                    ca,
                    [(y_ref, cy), (b_ref, cb), (z_ref, cz)],
                );
            } else {
                refresh_ghosts_f32(self.mode, ctx, &mut self.y);
                let (y_ref, z_ref, b_ref, w_mut) = (&self.y, &self.z, &self.b32, &mut self.w);
                ctx.lap.apply_combine(
                    &ctx.dev,
                    INFO_CI2_F32,
                    y_ref,
                    w_mut,
                    ca,
                    [(y_ref, cy), (b_ref, cb), (z_ref, cz)],
                );
            }
            // pointer rotation: z ← y, y ← w
            self.z.swap(&mut self.y);
            self.y.swap(&mut self.w);
        }
        // Exact widening on exit: every f32 is representable in f64. (The
        // f64 iteration writes its last sweep straight into `x`; here `y`
        // and `x` differ in element type, so this sweep has to stay.)
        cast_up(&ctx.dev, INFO_CAST_UP, &ctx.grid, x, &self.y);
        self.iterations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cheby::{global_bounds, ChebyshevIteration};
    use crate::testutil::{chebyshev_sync_oracle, rng_values, world8};
    use accel::{Recorder, Serial};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::SelfComm;

    fn ctx_single(n: usize) -> RankCtx<f64, Serial, SelfComm<f64>> {
        let mut g = GlobalGrid::dirichlet([n, n, n], [0.2; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Neumann];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    #[test]
    fn parameters_match_f64_iteration() {
        let ctx = ctx_single(4);
        let bounds = SpectralBounds {
            min: 2.0,
            max: 10.0,
        };
        let mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 3);
        let wide = ChebyshevIteration::new(&ctx, ChebyMode::Global, bounds, 3);
        assert_eq!(mixed.parameters(), wide.parameters());
        assert_eq!(mixed.iterations(), 3);
        assert_eq!(mixed.mode(), ChebyMode::Global);
    }

    #[test]
    fn mixed_tracks_the_f64_iteration_to_f32_accuracy() {
        // The f32 sweeps implement the same polynomial; the result must
        // match the f64 iteration to within single-precision rounding
        // accumulated over the sweeps, far tighter than the inexactness
        // Bi-CGSTAB already tolerates from the preconditioner.
        let ctx = ctx_single(6);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 17);
        let bounds = global_bounds(&ctx);
        let mut b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
        let mut x_wide = ctx.field();
        let mut wide = ChebyshevIteration::new(&ctx, ChebyMode::Global, bounds, 24);
        wide.solve(&ctx, &mut b, &mut x_wide);

        let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
        let mut x_mixed = ctx.field();
        let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 24);
        mixed.solve(&ctx, &b, &mut x_mixed);

        let wi = x_wide.interior_to_host(&ctx.grid);
        let mi = x_mixed.interior_to_host(&ctx.grid);
        let scale: f64 = wi.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
        for (a, b) in wi.iter().zip(&mi) {
            assert!(
                (a - b).abs() < 1e-4 * scale,
                "mixed diverged from f64: {a} vs {b} (scale {scale})"
            );
        }
    }

    #[test]
    fn split_phase_sweeps_match_the_synchronous_oracle_on_8_ranks() {
        // Like the f64 iteration, the split-phase schedule a
        // communicating world runs must not change a single bit relative
        // to blocking f32 exchanges and monolithic sweeps.
        let results = world8(23, |ctx, b_local| {
            let bounds = global_bounds(ctx).rescaled(1e-4, 10.0);
            let mut mixed = MixedChebyshev::new(ctx, ChebyMode::Global, bounds, 12);
            let b = Field::from_interior(&ctx.dev, &ctx.grid, b_local);
            let mut x = ctx.field();
            mixed.solve(ctx, &b, &mut x);
            let mut b32 = Field::<f32>::zeros(&ctx.dev, &ctx.grid);
            cast_down(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut b32, &b);
            let want = chebyshev_sync_oracle(
                ctx,
                mixed.parameters(),
                12,
                |f| refresh_ghosts_f32(ChebyMode::Global, ctx, f),
                b32,
            );
            (
                x.interior_to_host(&ctx.grid),
                want.interior_to_host(&ctx.grid),
            )
        });
        for (rank, (got, want)) in results.iter().enumerate() {
            for (a, b) in got.iter().zip(want) {
                assert_eq!(a.to_bits(), f64::from(*b).to_bits(), "rank {rank}");
            }
        }
    }

    #[test]
    fn application_is_linear_in_f32() {
        // Fixed single-precision polynomial => linear to f32 rounding.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let u = rng_values(n, 1);
        let two_u: Vec<f64> = u.iter().map(|v| 2.0 * v).collect();
        let apply = |rhs: &[f64]| -> Vec<f64> {
            let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, rhs);
            let mut x = ctx.field();
            let mut mixed =
                MixedChebyshev::new(&ctx, ChebyMode::GlobalNoComm, global_bounds(&ctx), 8);
            mixed.solve(&ctx, &b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let mu = apply(&u);
        let m2u = apply(&two_u);
        for i in 0..n {
            // scaling by 2 is exact in binary floating point
            assert_eq!(m2u[i], 2.0 * mu[i], "homogeneity violated at {i}");
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
            let mut b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
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
            let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 10);
            mixed.solve(&ctx, &b, &mut x);
            x.interior_to_host(&ctx.grid)
        };
        let clean = run(false);
        let poisoned = run(true);
        for (c, p) in clean.iter().zip(&poisoned) {
            assert!(p.is_finite(), "a sweep read a poisoned ghost: {p}");
            assert_eq!(c.to_bits(), p.to_bits());
        }
    }

    #[test]
    fn repeated_applications_are_identical() {
        // A *fixed* preconditioner: state carried in the rotation
        // buffers between applications must not change the result.
        let ctx = ctx_single(4);
        let n = ctx.grid.global.unknowns();
        let rhs = rng_values(n, 55);
        let bounds = global_bounds(&ctx);
        let mut mixed = MixedChebyshev::new(&ctx, ChebyMode::Global, bounds, 8);
        let mut outs = Vec::new();
        for _ in 0..2 {
            let b = blockgrid::Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
            let mut x = ctx.field();
            mixed.solve(&ctx, &b, &mut x);
            outs.push(x.interior_to_host(&ctx.grid));
        }
        for (a, b) in outs[0].iter().zip(&outs[1]) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}

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
//!
//! Each sweep is one weighted 7-point sweep
//! ([`stencil::Laplacian::apply_combine`]): the recurrence's
//! `ca · (A y) + cu · y` folds into the stencil weights, so `KernelCI1`
//! is a weighted sweep of `b` alone and `KernelCI2` adds the `b` and `z`
//! terms. Algorithm 4's `z = b/θ` is only ever read by sweep 2, which
//! folds it into its `b` coefficient: no sweep writes it.

use std::any::{Any, TypeId};

use accel::{Device, DeviceKind, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::{
    apply_physical_bcs, apply_physical_bcs_planes, physical_bc_elems, spectrum, Part,
    SpectralBounds, INFO_NEUMANN_BCS,
};

use crate::ctx::RankCtx;
use crate::kernels::{
    cast, INFO_CAST_DOWN, INFO_CAST_UP, INFO_CI1, INFO_CI1_F32, INFO_CI2, INFO_CI2_F32,
    INFO_CI2_NO_Z, INFO_CI2_NO_Z_F32,
};

/// Cache budget of a z-plane wavefront (see [`wavefront_depth`]).
const WAVEFRONT_CACHE_BYTES: usize = 1 << 20;

/// Sweeps a z-plane wavefront keeps in flight: each holds about four
/// padded planes of `plane_bytes` in cache (its input's three-plane
/// stencil window and its output plane), and all of them together fit
/// [`WAVEFRONT_CACHE_BYTES`] — about 7 sweeps at 64³ in `f64`, 13 at
/// 48³, twice that in `f32`. At least one sweep (whole sweeps, no
/// wavefront), at most all of them.
fn wavefront_depth(plane_bytes: usize, iterations: usize) -> usize {
    (WAVEFRONT_CACHE_BYTES / (4 * plane_bytes)).clamp(1, iterations)
}

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

/// `f` as a field of the sweep element: `Some` exactly when `E = T`.
fn as_sweep_field<E: Scalar, T: Scalar>(f: &mut Field<T>) -> Option<&mut Field<E>> {
    (f as &mut dyn Any).downcast_mut()
}

/// The traffic accounting of sweep `i ≥ 1` at element width `E`:
/// `KernelCI1`, then `KernelCI2` without and with a `z` read.
fn info<E: Scalar>(i: usize) -> accel::KernelInfo {
    let infos = if E::BYTES == f32::BYTES {
        [INFO_CI1_F32, INFO_CI2_NO_Z_F32, INFO_CI2_F32]
    } else {
        [INFO_CI1, INFO_CI2_NO_Z, INFO_CI2]
    };
    infos[i.min(3) - 1]
}

/// `(w, y, z)` of sweep `i`: `bufs[i % 3]`, `bufs[(i − 1) % 3]` and
/// `bufs[(i − 2) % 3]` (sweeps 1 and 2 read no `z`).
fn rotation<E>(
    bufs: &mut [Field<E>; 3],
    i: usize,
) -> (&mut Field<E>, &mut Field<E>, &mut Field<E>) {
    let [b0, b1, b2] = bufs;
    match i % 3 {
        0 => (b0, b2, b1),
        1 => (b1, b0, b2),
        _ => (b2, b1, b0),
    }
}

/// Refresh `f`'s ghosts before a sweep reads them: the blocking halo
/// exchange on [`ChebyMode::Global`], then `KernelNeumannBCs`, restricted
/// (interface ghosts zeroed) iff the mode is comm-free.
fn refresh<E: Scalar, T: Scalar, D: Device, C: Communicator<T>>(
    ctx: &RankCtx<T, D, C>,
    mode: ChebyMode,
    f: &mut Field<E>,
) {
    if mode == ChebyMode::Global {
        ctx.halo.exchange(&ctx.dev, &ctx.comm, f);
    }
    apply_physical_bcs(&ctx.grid, f, &ctx.recorder, mode.comm_free());
}

/// A configured Chebyshev iteration sweeping in `E`, with its own
/// rotation buffers.
pub struct ChebyshevIteration<E> {
    mode: ChebyMode,
    iterations: usize,
    theta: f64,
    delta: f64,
    sigma: f64,
    /// The weights of sweep `i`'s weighted stencil, at `weights[i − 1]`
    /// ([`stencil::Laplacian::combine_weights`]). Like `terms`, they come
    /// from the host-`f64` ρ recurrence and `h`, each rounded to `E`
    /// once. (Two small tables rather than one of 48-byte rows: at 24
    /// sweeps in `f64` one table outgrew glibc's per-thread cache, and
    /// building it each solve cost the 64³ benchmark 6 MiB of peak RSS.)
    weights: Vec<[E; 4]>,
    /// Sweep `i`'s term coefficients `[c_b, c_z]`, at `terms[i − 1]`:
    /// unused by `KernelCI1`, and only the folded `c_b + c_z/θ` for
    /// sweep 2.
    terms: Vec<[E; 2]>,
    /// The rotation buffers. Sweep `i ≥ 1` writes `bufs[i % 3]` and reads
    /// `y = bufs[(i − 1) % 3]` and `z = bufs[(i − 2) % 3]`: by the time it
    /// writes a plane, nothing still needs sweep `i − 3`'s values there,
    /// so the buffers rotate by index, with nothing copied or swapped.
    bufs: [Field<E>; 3],
    /// Sweeps in flight per z-plane wavefront: [`wavefront_depth`] for a
    /// comm-free iteration on a [`DeviceKind::CpuSerial`] device, 1
    /// (whole sweeps) everywhere else.
    depth: usize,
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
        let mut rho_old = 1.0 / sigma;
        let mut rho = 1.0 / (2.0 * sigma - rho_old);
        let weigh = |ca: f64, cu: f64| ctx.lap.combine_weights(ca, cu).map(E::from_f64);
        let mut weights = Vec::with_capacity(iterations);
        let mut terms = Vec::with_capacity(iterations);
        // KernelCI1: y = 2 ρ/δ (2 b − A b / θ)
        weights.push(weigh(-2.0 * rho / (delta * theta), 4.0 * rho / delta));
        terms.push([E::ZERO; 2]);
        for i in 2..=iterations {
            rho_old = rho;
            rho = 1.0 / (2.0 * sigma - rho_old);
            // KernelCI2: w = ρ (2σ y + 2/δ (b − A y) − ρ_old z), where
            // sweep 2's z is b/θ
            weights.push(weigh(-2.0 * rho / delta, 2.0 * sigma * rho));
            let (cb, cz) = (2.0 * rho / delta, -rho * rho_old);
            let c = if i == 2 {
                [cb + cz / theta, 0.0]
            } else {
                [cb, cz]
            };
            terms.push(c.map(E::from_f64));
        }
        let [px, py, _] = ctx.grid.padded();
        let depth = if mode.comm_free() && ctx.dev.kind() == DeviceKind::CpuSerial {
            wavefront_depth(px * py * E::BYTES, iterations)
        } else {
            1
        };
        let field = || Field::zeros(&ctx.dev, &ctx.grid);
        Self {
            mode,
            iterations,
            theta,
            delta,
            sigma,
            weights,
            terms,
            bufs: [field(), field(), field()],
            depth,
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
                // sweep left in its buffer, one exact widening step out.
                let mut lo = self.b.take().expect("a narrow iteration keeps its own RHS");
                cast(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut lo, b);
                self.sweeps(ctx, &mut lo, None);
                let w = &self.bufs[self.iterations % 3];
                cast(&ctx.dev, INFO_CAST_UP, &ctx.grid, x, w);
                self.b = Some(lo);
            }
        }
        self.iterations
    }

    /// The sweeps of Algorithm 4 on `b` (ghosts refreshed here): the last
    /// one lands in `x`, or in its rotation buffer when there is no `x`
    /// of this width.
    ///
    /// Every mode refreshes `b`'s ghosts ([`refresh`]), then runs the
    /// sweeps as z-plane wavefronts of
    /// [`ChebyshevIteration::depth`] sweeps in flight — one plane per step
    /// on a comm-free iteration on a `Serial` device, whose sweeps then
    /// stream from cache instead of memory — or one whole sweep after the
    /// other, each output refreshed before the next sweep reads it. Every
    /// schedule is bitwise-identical.
    fn sweeps<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &mut Field<E>,
        mut x: Option<&mut Field<E>>,
    ) {
        let (grid, m) = (&ctx.grid, self.iterations);
        refresh(ctx, self.mode, b);
        if self.depth == 1 {
            return self.wavefront(ctx, b, &mut x);
        }
        // One plane per launch: the stream still reads as the sequence of
        // whole sweeps — one KernelCI1/CI2 per sweep, the restricted BCs
        // of each output between them — and nothing per plane.
        ctx.recorder.muted(|| self.wavefront(ctx, b, &mut x));
        let (cells, ghosts) = (grid.interior_map().elems(), physical_bc_elems(grid, true));
        for i in 1..=m {
            ctx.recorder.kernel(info::<E>(i), cells);
            if i < m {
                ctx.recorder.kernel(INFO_NEUMANN_BCS, ghosts);
            }
        }
    }

    /// Sweeps `1..=iterations` as z-plane wavefronts of
    /// [`ChebyshevIteration::depth`] sweeps in flight, one plane per step:
    /// sweep `i` covers a plane right after sweep `i − 1` has covered the
    /// next one, and each output plane gets its ghosts as soon as it
    /// lands. At depth 1 the block is all planes: the plain sequence of
    /// whole sweeps, each followed by the [`refresh`] of its output.
    fn wavefront<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        b: &Field<E>,
        x: &mut Option<&mut Field<E>>,
    ) {
        let (m, nz, depth) = (self.iterations, ctx.grid.local_n[2], self.depth);
        let height = if depth == 1 { nz } else { 1 };
        let blocks = nz.div_ceil(height);
        for first in (1..=m).step_by(depth) {
            let last = (first + depth - 1).min(m);
            for step in 0..blocks + last - first {
                for i in first..=last {
                    let Some(block) = step.checked_sub(i - first).filter(|&n| n < blocks) else {
                        continue;
                    };
                    let (lo, hi) = (block * height, ((block + 1) * height).min(nz));
                    self.sweep(ctx, i, Part::Planes(lo..hi), b, x);
                    if i == m {
                        continue;
                    }
                    // refresh the new y (the restricted BCs of a single
                    // plane only in a plane-by-plane wavefront)
                    let y = &mut self.bufs[i % 3];
                    if depth == 1 {
                        refresh(ctx, self.mode, y);
                    } else {
                        apply_physical_bcs_planes(&ctx.grid, y, true, lo..hi);
                    }
                }
            }
        }
    }

    /// Sweep `i ≥ 1` of Algorithm 4 over `part` of the interior:
    /// `KernelCI1` from `b`, or `KernelCI2` from `y` and `b`, and from
    /// `z` too after sweep 2; into `x` if this is the last sweep and there
    /// is one, else `bufs[i % 3]`.
    fn sweep<T: Scalar, D: Device, C: Communicator<T>>(
        &mut self,
        ctx: &RankCtx<T, D, C>,
        i: usize,
        part: Part,
        b: &Field<E>,
        x: &mut Option<&mut Field<E>>,
    ) {
        let (k, [cb, cz]) = (self.weights[i - 1], self.terms[i - 1]);
        let (w, y, z) = rotation(&mut self.bufs, i);
        let out = match x {
            Some(x) if i == self.iterations => &mut **x,
            _ => w,
        };
        let (lap, dev, info) = (&ctx.lap, &ctx.dev, info::<E>(i));
        match i {
            1 => lap.apply_combine(dev, info, &part, b, out, k, []),
            2 => lap.apply_combine(dev, info, &part, y, out, k, [(b, cb)]),
            _ => lap.apply_combine(dev, info, &part, y, out, k, [(b, cb), (&*z, cz)]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{norm2_local, INFO_DOT};
    use crate::testutil::{bits, chebyshev_sync_oracle, rng_values, world, world_on};
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

    /// On a communicating world every sweep exchanges its input's halo,
    /// refreshes its BCs and sweeps the whole interior; at sweep width
    /// `E` that must be bitwise the oracle's blocking sweeps on the same
    /// down-cast right-hand side.
    fn global_matches_sync_oracle<E: Scalar>(decomp: [usize; 3], seed: u64) {
        let results = world(decomp, seed, |ctx, b_local| {
            let bounds = global_bounds(ctx).rescaled(1e-4, 10.0);
            let mut cheb = ChebyshevIteration::<E>::new(ctx, ChebyMode::Global, bounds, 12);
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, b_local);
            let mut x = ctx.field();
            cheb.solve(ctx, &mut b, &mut x);
            let mut b_e = Field::<E>::zeros(&ctx.dev, &ctx.grid);
            cast(&ctx.dev, INFO_CAST_DOWN, &ctx.grid, &mut b_e, &b);
            let sweeps = chebyshev_sync_oracle(
                ctx,
                cheb.parameters(),
                12,
                |f| {
                    ctx.halo.exchange(&ctx.dev, &ctx.comm, f);
                    apply_physical_bcs(&ctx.grid, f, &ctx.recorder, false);
                },
                b_e,
            );
            let want: Vec<f64> = sweeps[12]
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
    fn global_sweeps_match_the_synchronous_oracle_at_both_widths() {
        // 8 ranks: every rank exchanges x, y and z faces; 2 ranks along
        // x: one face per rank.
        for (decomp, seed) in [([2, 2, 2], 29), ([2, 1, 1], 23)] {
            global_matches_sync_oracle::<f64>(decomp, seed);
            global_matches_sync_oracle::<f32>(decomp, seed);
        }
    }

    #[test]
    fn wavefront_depth_follows_the_cache_budget() {
        // about four padded planes per sweep in flight in 1 MiB: 7 at
        // 64^3 and 13 at 48^3 in f64, twice that in f32, capped by the
        // sweep count — and only for a comm-free iteration on Serial
        let depth = |n: usize, dev: &str, mode: ChebyMode, wide: bool| {
            let grid = BlockGrid::new(
                GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]),
                Decomp::single(),
                0,
            );
            let dev = accel::AnyDevice::from_spec(dev, Recorder::disabled()).unwrap();
            let ctx: RankCtx<f64, _, _> = RankCtx::new(dev, SelfComm::default(), grid);
            let bounds = global_bounds(&ctx);
            if wide {
                ChebyshevIteration::<f64>::new(&ctx, mode, bounds, 24).depth
            } else {
                ChebyshevIteration::<f32>::new(&ctx, mode, bounds, 24).depth
            }
        };
        let no_comm = ChebyMode::GlobalNoComm;
        assert_eq!(depth(64, "serial", no_comm, true), 7);
        assert_eq!(depth(48, "serial", no_comm, true), 13);
        assert_eq!(depth(64, "serial", ChebyMode::BlockJacobi, false), 15);
        assert_eq!(depth(48, "serial", no_comm, false), 24);
        assert_eq!(depth(64, "serial", ChebyMode::Global, true), 1);
        assert_eq!(depth(64, "threads:2", no_comm, true), 1);
        assert_eq!(depth(64, "mi250x", no_comm, true), 1);
        assert_eq!(
            wavefront_depth(8 << 20, 24),
            1,
            "a huge plane: whole sweeps"
        );
    }

    /// The events of one `E`-width application of a 5-sweep GNoComm(CI)
    /// iteration on `dev`, and the iteration's wavefront depth there.
    fn application_events<E: Scalar>(dev: &str) -> (Vec<accel::Event>, usize) {
        let mut g = GlobalGrid::dirichlet([6, 5, 7], [0.2, 0.3, 0.25], [0.0; 3]);
        g.bc = crate::testutil::paper_bcs();
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let rec = Recorder::enabled();
        let dev = accel::AnyDevice::from_spec(dev, rec.clone()).unwrap();
        let ctx: RankCtx<f64, _, _> = RankCtx::new(dev, SelfComm::default(), grid);
        let bounds = global_bounds(&ctx);
        let mut cheb = ChebyshevIteration::<E>::new(&ctx, ChebyMode::GlobalNoComm, bounds, 5);
        let mut b = Field::from_interior(&ctx.dev, &ctx.grid, &rng_values(210, 3));
        let mut x = ctx.field();
        rec.drain();
        cheb.solve(&ctx, &mut b, &mut x);
        (rec.drain(), cheb.depth)
    }

    #[test]
    fn wavefront_books_one_event_per_logical_sweep() {
        // A serial application sweeps plane by plane, yet its stream must
        // read as the sequence of whole sweeps — one KernelCI1, m − 1
        // KernelCI2 and m KernelNeumannBCs, in order, each with the
        // element count of the whole sweep — event for event what the
        // whole-sweep schedule records on Threads.
        let ghosts = {
            let ctx = ctx_single(2);
            let mut g = ctx.grid.global.clone();
            (g.n, g.h) = ([6, 5, 7], [0.2, 0.3, 0.25]);
            g.bc = crate::testutil::paper_bcs();
            stencil::physical_bc_elems(&BlockGrid::new(g, Decomp::single(), 0), true) as u64
        };
        let check = |events: &[accel::Event], want: &[(&str, u64)]| {
            let got: Vec<(&str, u64)> = events
                .iter()
                .map(|e| match e {
                    accel::Event::Kernel { name, elems, .. } => (*name, *elems),
                    other => panic!("a comm-free application recorded {other:?}"),
                })
                .collect();
            assert_eq!(got, want);
        };
        let sweeps = |ci1: &'static str, ci2: &'static str| {
            let mut want = vec![(ci1, 210)];
            for _ in 2..=5 {
                want.extend([("KernelNeumannBCs", ghosts), (ci2, 210)]);
            }
            want
        };
        let (serial, depth) = application_events::<f64>("serial");
        assert!(depth > 1, "the serial application must run a wavefront");
        let mut want = vec![("KernelNeumannBCs", ghosts)];
        want.extend(sweeps("KernelCI1", "KernelCI2"));
        check(&serial, &want);
        assert_eq!(serial, application_events::<f64>("threads:2").0);

        let (serial, _) = application_events::<f32>("serial");
        let mut want = vec![("KernelCastDown", 210), ("KernelNeumannBCs", ghosts)];
        want.extend(sweeps("KernelCI1f32", "KernelCI2f32"));
        want.push(("KernelCastUp", 210));
        check(&serial, &want);
        assert_eq!(serial, application_events::<f32>("threads:2").0);
    }

    #[test]
    fn one_application_books_the_bytes_its_sweeps_stream() {
        // Per cell of a 5-sweep application: KernelCI1 streams b and y
        // (32 B in f64), sweep 2 y, b and w (40 B), sweeps 3-5 also z
        // (48 B each); plus 16 B per ghost of each of the 5 BC refreshes
        // (b's and those of sweeps 1-4). f32 sweeps stream half, and the
        // precision boundary adds its two casts at 12 B per cell.
        let ghosts = |events: &[accel::Event]| {
            let bcs = events.iter().filter_map(|e| match e {
                accel::Event::Kernel { name, elems, .. } if *name == "KernelNeumannBCs" => {
                    Some(*elems)
                }
                _ => None,
            });
            bcs.sum::<u64>()
        };
        let bytes = |events: &[accel::Event]| {
            let kernels = events.iter().map(|e| match e {
                accel::Event::Kernel { bytes, .. } => *bytes,
                _ => 0,
            });
            kernels.sum::<u64>()
        };
        let booked = |events: &[accel::Event]| bytes(events) - 16 * ghosts(events);
        for dev in ["serial", "threads:2"] {
            let (wide, _) = application_events::<f64>(dev);
            assert_eq!(booked(&wide), 210 * (32 + 40 + 3 * 48), "f64 on {dev}");
            let (narrow, _) = application_events::<f32>(dev);
            let want = 210 * (16 + 20 + 3 * 24 + 2 * 12);
            assert_eq!(booked(&narrow), want, "f32 on {dev}");
        }
    }

    /// Bounds of `mode` on `ctx`: the subdomain's own for `BJ`, the
    /// global ones otherwise.
    fn mode_bounds<D: Device, C: Communicator<f64>>(
        ctx: &RankCtx<f64, D, C>,
        mode: ChebyMode,
    ) -> SpectralBounds {
        match mode {
            ChebyMode::BlockJacobi => local_bounds(ctx),
            _ => global_bounds(ctx),
        }
    }

    /// Algorithm 4 as the textbook writes it, unfolded and in `f64` on
    /// the host: `z = b/θ`, then `w = ρ (2σ y + 2/δ (b − A y) − ρ_old z)`
    /// sweep after sweep from `y = z` and a zero `z` (so the first sweep
    /// is `2 ρ/δ (2 b − A b/θ)`), `A y` one plain operator sweep after the
    /// ghost refresh of `mode`.
    fn textbook<D: Device, C: Communicator<f64>>(
        ctx: &RankCtx<f64, D, C>,
        mode: ChebyMode,
        bounds: SpectralBounds,
        sweeps: usize,
        b: &[f64],
    ) -> Vec<f64> {
        let theta = 0.5 * (bounds.max + bounds.min);
        let delta = 0.5 * (bounds.max - bounds.min);
        let sigma = theta / delta;
        let mut rho = 1.0 / sigma;
        let mut z = vec![0.0; b.len()];
        let mut y: Vec<f64> = b.iter().map(|b| b / theta).collect();
        for _ in 0..sweeps {
            let rho_old = rho;
            rho = 1.0 / (2.0 * sigma - rho_old);
            let mut yf = Field::from_interior(&ctx.dev, &ctx.grid, &y);
            refresh(ctx, mode, &mut yf);
            let mut ay = ctx.field();
            ctx.lap.apply(&ctx.dev, INFO_APPLY, &yf, &mut ay);
            let ay = ay.interior_to_host(&ctx.grid);
            let w = (0..b.len())
                .map(|c| rho * (2.0 * sigma * y[c] + 2.0 / delta * (b[c] - ay[c]) - rho_old * z[c]))
                .collect();
            z = std::mem::replace(&mut y, w);
        }
        y
    }

    /// `‖got − want‖ / ‖want‖`.
    fn relative_error(got: &[f64], want: &[f64]) -> f64 {
        let diff: f64 = got.iter().zip(want).map(|(g, w)| (g - w) * (g - w)).sum();
        let norm: f64 = want.iter().map(|w| w * w).sum();
        (diff / norm).sqrt()
    }

    /// The folded sweeps against the unfolded textbook recurrence, on
    /// every rank of a `decomp` world: the worst relative error.
    fn folded_error<E: Scalar>(mode: ChebyMode, decomp: [usize; 3], sweeps: usize) -> f64 {
        let errors = world(decomp, 67, |ctx, b_local| {
            let bounds = mode_bounds(ctx, mode);
            let mut cheb = ChebyshevIteration::<E>::new(ctx, mode, bounds, sweeps);
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, b_local);
            let mut x = ctx.field();
            cheb.solve(ctx, &mut b, &mut x);
            let want = textbook(ctx, mode, bounds, sweeps, b_local);
            relative_error(&x.interior_to_host(&ctx.grid), &want)
        });
        errors.into_iter().fold(0.0, f64::max)
    }

    #[test]
    fn folded_sweeps_match_the_unfolded_textbook_recurrence() {
        // The folded weights, the folded z = b/θ and the bitwise oracles
        // share one coefficient table; this recurrence shares none of it,
        // so a wrong sign or weight shows here as an O(1) error.
        let modes = [
            ChebyMode::Global,
            ChebyMode::GlobalNoComm,
            ChebyMode::BlockJacobi,
        ];
        for mode in modes {
            for decomp in [[1, 1, 1], [2, 1, 1]] {
                for sweeps in [1, 2, 3, 24] {
                    let wide = folded_error::<f64>(mode, decomp, sweeps);
                    let narrow = folded_error::<f32>(mode, decomp, sweeps);
                    let what = format!("{mode:?} on {decomp:?}, {sweeps} sweeps");
                    assert!(wide <= 1e-12, "{what}: f64 relative error {wide:e}");
                    assert!(narrow <= 1e-5, "{what}: f32 relative error {narrow:e}");
                }
            }
        }
    }

    /// One `E`-width application of 24 `mode` sweeps on every rank of a
    /// `decomp` world of `dev` devices: each rank's result bits, and
    /// whether the application ran a wavefront.
    fn application_on<E: Scalar>(
        dev: &str,
        mode: ChebyMode,
        decomp: [usize; 3],
    ) -> Vec<(Vec<u64>, bool)> {
        let dev = || accel::AnyDevice::from_spec(dev, Recorder::disabled()).unwrap();
        world_on(dev, decomp, 71, |ctx, b_local| {
            let bounds = mode_bounds(ctx, mode);
            let mut cheb = ChebyshevIteration::<E>::new(ctx, mode, bounds, 24);
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, b_local);
            let mut x = ctx.field();
            cheb.solve(ctx, &mut b, &mut x);
            (bits(&x.interior_to_host(&ctx.grid)), cheb.depth > 1)
        })
    }

    #[test]
    fn one_application_is_bitwise_identical_across_backends() {
        // Serial runs a comm-free application as a plane wavefront,
        // Threads and SimGpu as whole sweeps split their own ways: every
        // result bit must agree.
        let cases = [
            (ChebyMode::GlobalNoComm, [1, 1, 1]),
            (ChebyMode::BlockJacobi, [1, 1, 1]),
            (ChebyMode::Global, [2, 1, 1]),
        ];
        for (mode, decomp) in cases {
            for wide in [true, false] {
                let run = |dev: &str| {
                    if wide {
                        application_on::<f64>(dev, mode, decomp)
                    } else {
                        application_on::<f32>(dev, mode, decomp)
                    }
                };
                let serial = run("serial");
                let wavefront = serial.iter().all(|(_, w)| *w);
                assert_eq!(wavefront, mode.comm_free(), "{mode:?}: serial schedule");
                for dev in ["threads:2", "threads:3", "mi250x"] {
                    let got = run(dev);
                    for (rank, (got, want)) in got.iter().zip(&serial).enumerate() {
                        let what = format!("{mode:?} on {decomp:?}, f64 {wide}, {dev} rank {rank}");
                        assert_eq!(got.0, want.0, "{what}");
                    }
                }
            }
        }
    }

    mod wavefront_proptests {
        use super::*;
        use proptest::prelude::*;
        use proptest::test_runner::TestCaseError;

        fn extent() -> impl Strategy<Value = usize> {
            prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(7), 1usize..9]
        }

        fn padded_bits<E: Scalar>(f: &Field<E>) -> Vec<u64> {
            f.as_slice().iter().map(|v| v.to_f64().to_bits()).collect()
        }

        fn interior_bits<E: Scalar>(f: &Field<E>, grid: &BlockGrid) -> Vec<u64> {
            let v = f.interior_to_host(grid);
            v.iter().map(|v| v.to_f64().to_bits()).collect()
        }

        /// Every rank of a `decomp` world of `local`-cell blocks — a
        /// Neumann face wherever `neumann` has its bit (`2 · axis + side`)
        /// and the axis is at least two cells thick, Dirichlet elsewhere
        /// and always at x-low, interface faces restricted — runs two
        /// `E`-width applications of `iterations` sweeps on a Serial
        /// device. Each must match the sequential oracle bit for bit: the
        /// result, and the fields the rotation buffers are left holding.
        fn check<E: Scalar>(
            local: [usize; 3],
            decomp: [usize; 3],
            neumann: u8,
            mode: ChebyMode,
            iterations: usize,
            seed: u64,
        ) -> Result<(), TestCaseError> {
            let n = std::array::from_fn(|a| local[a] * decomp[a]);
            let mut g = GlobalGrid::dirichlet(n, [0.3, 0.5, 0.7], [0.0; 3]);
            for face in 1..6 {
                let (axis, side) = (face / 2, face % 2);
                if neumann & (1 << face) != 0 && local[axis] >= 2 {
                    g.bc[axis][side] = BcKind::Neumann;
                }
            }
            let decomp = Decomp::new(decomp);
            for rank in 0..decomp.ranks() {
                let grid = BlockGrid::new(g.clone(), decomp, rank);
                let ctx =
                    RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
                let grid = &ctx.grid;
                let exact = match mode {
                    ChebyMode::BlockJacobi => local_bounds(&ctx),
                    _ => global_bounds(&ctx),
                };
                let bounds = SpectralBounds {
                    min: 0.5 * exact.min,
                    max: 1.5 * exact.max,
                };
                let mut cheb = ChebyshevIteration::<E>::new(&ctx, mode, bounds, iterations);
                let [px, py, _] = grid.padded();
                prop_assert_eq!(cheb.depth, wavefront_depth(px * py * E::BYTES, iterations));
                let rhs = rng_values(local.iter().product(), seed + rank as u64);
                for app in 0..2 {
                    let tag = format!(
                        "{local:?} of {:?} rank {rank}, {mode:?}, {iterations} sweeps at \
                         {} B, application {app}",
                        decomp.ns,
                        E::BYTES
                    );
                    let mut b = Field::from_interior(&ctx.dev, grid, &rhs);
                    let mut x = ctx.field();
                    cheb.solve(&ctx, &mut b, &mut x);
                    let mut b_e = Field::<E>::zeros(&ctx.dev, grid);
                    cast(&ctx.dev, INFO_CAST_DOWN, grid, &mut b_e, &b);
                    let refresh =
                        |f: &mut Field<E>| apply_physical_bcs(grid, f, &ctx.recorder, true);
                    let want =
                        chebyshev_sync_oracle(&ctx, cheb.parameters(), iterations, refresh, b_e);
                    prop_assert_eq!(
                        interior_bits(&x, grid),
                        interior_bits(&want[iterations], grid),
                        "{}: result",
                        tag
                    );
                    // the last three sweeps' fields: sweeps that fed a
                    // next one with their refreshed ghosts, the unwritten
                    // x₀ buffer and a last sweep left in its buffer by
                    // their interiors
                    let in_x = E::BYTES == f64::BYTES;
                    for j in iterations.saturating_sub(2)..=iterations {
                        let got = &cheb.bufs[j % 3];
                        if (1..iterations).contains(&j) {
                            prop_assert_eq!(padded_bits(got), padded_bits(&want[j]), "{}", tag);
                        } else if !(j == iterations && in_x) {
                            let (got, want) = (interior_bits(got, grid), &want[j]);
                            prop_assert_eq!(got, interior_bits(want, grid), "{}: {}", tag, j);
                        }
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The z-plane wavefront ≡ the sequential sweeps, at both
            /// widths, on generated extents (planes fewer than the depth
            /// included), boundary kinds, decompositions and sweep counts.
            #[test]
            fn wavefront_matches_the_sequential_oracle(
                nx in extent(), ny in extent(),
                nz in prop_oneof![Just(1usize), Just(2), Just(3), extent()],
                decomp in prop_oneof![
                    Just([1usize, 1, 1]), Just([2, 1, 1]), Just([1, 1, 2]), Just([2, 2, 2])
                ],
                neumann in 0u8..64,
                block_jacobi in 0u8..2,
                iterations in 1usize..31,
                seed in 1u64..1 << 40,
            ) {
                let mode = [ChebyMode::GlobalNoComm, ChebyMode::BlockJacobi][block_jacobi as usize];
                let local = [nx, ny, nz];
                check::<f64>(local, decomp, neumann, mode, iterations, seed)?;
                check::<f32>(local, decomp, neumann, mode, iterations, seed)?;
            }
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

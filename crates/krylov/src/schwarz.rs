//! Overlapping Restricted Additive Schwarz (RAS) preconditioner.
//!
//! Sec. III-A of the paper derives its Block-Jacobi preconditioner as the
//! zero-overlap limit of the additive Schwarz family and notes that "the
//! power of Schwarz methods relies on the overlapping between
//! subdomains" — then deliberately trades that power away to obtain a
//! communication-free preconditioner. This module implements the road not
//! taken: RAS with one layer of overlap,
//!
//! ```text
//! M⁻¹_RAS = Σ_s R̃_sᵀ (R'_s A R'_sᵀ)⁻¹ R'_s
//! ```
//!
//! where `R'_s` restricts to the *extended* subdomain (interior plus the
//! neighbours' first cell layer) and `R̃_s` is the non-overlapping
//! restriction (each rank keeps only its own cells of the local solve —
//! the "restricted" in RAS, which avoids the double-counting of plain
//! ASM). One halo exchange ships the overlap data, so the preconditioner
//! is *not* communication-free — exactly the trade the paper's Table I
//! tracks. The local extended problem is solved with the same fixed
//! Chebyshev iteration as `BJ(CI)`, so the preconditioner stays fixed and
//! reduction-free.

use accel::{Device, Scalar};
use blockgrid::{BlockGrid, Field};
use comm::Communicator;
use stencil::{apply_physical_bcs, spectrum, Laplacian};

use crate::ctx::RankCtx;
use crate::kernels::{INFO_CI1, INFO_CI2, INFO_SCALE};
use crate::precond::{PrecTraits, Preconditioner};

/// Restricted Additive Schwarz preconditioner with overlap 1, local
/// solves by Chebyshev iteration.
pub struct RasPrec<T> {
    /// The extended (overlap-1) subdomain view.
    ext_grid: BlockGrid,
    ext_lap: Laplacian,
    /// Overlap layers present per axis/side (1 at interfaces, 0 at
    /// physical faces).
    lo_overlap: [usize; 3],
    iterations: usize,
    theta: f64,
    delta: f64,
    sigma: f64,
    b_ext: Field<T>,
    z: Field<T>,
    y: Field<T>,
    w: Field<T>,
}

impl<T: Scalar> RasPrec<T> {
    /// Configure a RAS(1) preconditioner: `iterations` Chebyshev sweeps on
    /// the extended local block, spectral bounds from the extended
    /// operator rescaled by `(max_shrink, min_factor)` as in Sec. IV.
    pub fn new<D: Device, C: Communicator<T>>(
        ctx: &RankCtx<T, D, C>,
        iterations: usize,
        max_shrink: f64,
        min_factor: f64,
    ) -> Self {
        assert!(iterations >= 1, "RAS needs at least one local sweep");
        // Build the extended subdomain: one extra cell layer on every
        // interface face. The extended block is still a box; interface
        // ends stay Dirichlet-like truncations (now one layer further
        // out), physical ends keep their condition.
        let mut ext_grid = ctx.grid.clone();
        let mut lo_overlap = [0usize; 3];
        for (a, lo_a) in lo_overlap.iter_mut().enumerate() {
            let lo = usize::from(ctx.grid.boundary(a, 0).is_interface());
            let hi = usize::from(ctx.grid.boundary(a, 1).is_interface());
            ext_grid.local_n[a] += lo + hi;
            // interfaces never sit at the global edge, so offset >= 1 here
            ext_grid.offset[a] -= lo;
            *lo_a = lo;
        }
        let ext_lap = Laplacian::new(&ext_grid);
        let bounds = spectrum::kronecker_bounds(&ext_lap.local_ops(), ext_grid.global.h)
            .rescaled(max_shrink, min_factor);
        let theta = 0.5 * (bounds.max + bounds.min);
        let delta = 0.5 * (bounds.max - bounds.min);
        Self {
            b_ext: Field::zeros(&ctx.dev, &ext_grid),
            z: Field::zeros(&ctx.dev, &ext_grid),
            y: Field::zeros(&ctx.dev, &ext_grid),
            w: Field::zeros(&ctx.dev, &ext_grid),
            ext_grid,
            ext_lap,
            lo_overlap,
            iterations,
            theta,
            delta,
            sigma: theta / delta,
        }
    }

    /// The extended subdomain dims (interior + overlap).
    pub fn extended_local_n(&self) -> [usize; 3] {
        self.ext_grid.local_n
    }

    /// Gather `rhs` (whose interface ghosts hold the neighbours' overlap
    /// row) into the extended block's interior.
    fn gather_extended(&mut self, rhs: &Field<T>) {
        let en = self.ext_grid.local_n;
        self.b_ext.fill_zero();
        for k in 1..=en[2] {
            for j in 1..=en[1] {
                for i in 1..=en[0] {
                    // extended interior (i,j,k) <-> rhs padded coordinate
                    // (i - lo_overlap, ...): overlap cells map onto the
                    // rhs ghost layer filled by the halo exchange.
                    let src = [
                        i - self.lo_overlap[0],
                        j - self.lo_overlap[1],
                        k - self.lo_overlap[2],
                    ];
                    let v = rhs.as_slice()[rhs.idx(src[0], src[1], src[2])];
                    let dst = self.b_ext.idx(i, j, k);
                    self.b_ext.as_mut_slice()[dst] = v;
                }
            }
        }
    }

    /// Scatter the *owned* part of the extended solution into `out`
    /// (the restricted prolongation `R̃ᵀ` of RAS).
    fn scatter_owned<D: Device, C: Communicator<T>>(
        &self,
        ctx: &RankCtx<T, D, C>,
        out: &mut Field<T>,
    ) {
        let n = ctx.grid.local_n;
        for k in 1..=n[2] {
            for j in 1..=n[1] {
                for i in 1..=n[0] {
                    let src = self.y.idx(
                        i + self.lo_overlap[0],
                        j + self.lo_overlap[1],
                        k + self.lo_overlap[2],
                    );
                    let v = self.y.as_slice()[src];
                    let dst = out.idx(i, j, k);
                    out.as_mut_slice()[dst] = v;
                }
            }
        }
    }

    /// The Chebyshev recurrence of Algorithm 4 on the extended block
    /// (restricted ghosts — the truncation at the extended boundary).
    fn local_chebyshev<D: Device, C: Communicator<T>>(&mut self, ctx: &RankCtx<T, D, C>) {
        let (theta, delta, sigma) = (self.theta, self.delta, self.sigma);
        let mut rho_old = 1.0 / sigma;
        let mut rho_cur = 1.0 / (2.0 * sigma - rho_old);
        apply_physical_bcs(&self.ext_grid, &mut self.b_ext, &ctx.recorder, true);
        crate::kernels::scale(
            &ctx.dev,
            INFO_SCALE,
            &self.ext_grid,
            &mut self.z,
            &self.b_ext,
            T::from_f64(1.0 / theta),
        );
        let c1 = T::from_f64(4.0 * rho_cur / delta);
        let ca = T::from_f64(-2.0 * rho_cur / (delta * theta));
        let (b_ref, y_mut) = (&self.b_ext, &mut self.y);
        self.ext_lap
            .apply_combine(&ctx.dev, INFO_CI1, b_ref, y_mut, ca, [(b_ref, c1)]);
        for _ in 2..=self.iterations {
            rho_old = rho_cur;
            rho_cur = 1.0 / (2.0 * sigma - rho_old);
            apply_physical_bcs(&self.ext_grid, &mut self.y, &ctx.recorder, true);
            let ca = T::from_f64(-2.0 * rho_cur / delta);
            let cy = T::from_f64(2.0 * sigma * rho_cur);
            let cb = T::from_f64(2.0 * rho_cur / delta);
            let cz = T::from_f64(-rho_cur * rho_old);
            let (y_ref, z_ref, b_ref, w_mut) = (&self.y, &self.z, &self.b_ext, &mut self.w);
            self.ext_lap.apply_combine(
                &ctx.dev,
                INFO_CI2,
                y_ref,
                w_mut,
                ca,
                [(y_ref, cy), (b_ref, cb), (z_ref, cz)],
            );
            self.z.swap(&mut self.y);
            self.y.swap(&mut self.w);
        }
    }
}

impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for RasPrec<T> {
    fn apply(&mut self, ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize {
        // one halo exchange ships the neighbours' overlap rows
        ctx.recorder
            .stage("MPI-RAS", || ctx.halo.exchange(&ctx.dev, &ctx.comm, rhs));
        self.gather_extended(rhs);
        self.local_chebyshev(ctx);
        out.fill_zero();
        self.scatter_owned(ctx, out);
        self.iterations
    }

    fn traits(&self) -> PrecTraits {
        PrecTraits {
            fixed: true,
            comm_free: false,
            reduction_free: true,
        }
    }

    fn name(&self) -> &'static str {
        "RAS1(CI)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::{bicgstab_solve, Scope, SolveParams};
    use crate::cheby::{local_bounds, ChebyMode};
    use crate::ctx::Workspace;
    use crate::precond::ChebyPrecond;
    use accel::{Recorder, Serial};
    use blockgrid::{Decomp, GlobalGrid};
    use comm::{run_ranks, ReduceOrder, SelfComm, ThreadComm};

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn single_rank_ras_equals_block_jacobi() {
        // no interfaces => no overlap => RAS reduces to BJ(CI) exactly
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([8, 8, 8], [0.2; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let mut ras = RasPrec::new(&ctx, 12, 1e-4, 10.0);
        assert_eq!(ras.extended_local_n(), [8, 8, 8]);
        let bounds = local_bounds(&ctx).rescaled(1e-4, 10.0);
        let mut bj = ChebyPrecond::<f64>::new(&ctx, ChebyMode::BlockJacobi, bounds, 12);
        let rhs_host = rng_values(512, 3);
        let mut r1 = Field::from_interior(&ctx.dev, &ctx.grid, &rhs_host);
        let mut r2 = Field::from_interior(&ctx.dev, &ctx.grid, &rhs_host);
        let mut o1 = ctx.field();
        let mut o2 = ctx.field();
        Preconditioner::apply(&mut ras, &ctx, &mut r1, &mut o1);
        Preconditioner::apply(&mut bj, &ctx, &mut r2, &mut o2);
        assert_eq!(
            o1.interior_to_host(&ctx.grid),
            o2.interior_to_host(&ctx.grid),
            "zero overlap must reduce RAS to BJ(CI)"
        );
    }

    #[test]
    fn extended_block_grows_at_interfaces_only() {
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.2; 3], [0.0; 3]);
        g.bc[0] = [blockgrid::BcKind::Dirichlet, blockgrid::BcKind::Neumann];
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, move |comm| {
            let rank = comm.rank();
            let grid = BlockGrid::new(g.clone(), Decomp::new([2, 1, 1]), rank);
            let ctx: RankCtx<f64, _, ThreadComm<f64>> =
                RankCtx::new(Serial::new(Recorder::disabled()), comm, grid);
            let ras = RasPrec::<f64>::new(&ctx, 4, 1e-4, 10.0);
            // 4 local cells + 1 overlap layer on the single interface
            assert_eq!(ras.extended_local_n(), [5, 8, 8], "rank {rank}");
        });
    }

    fn solve_iterations(use_ras: bool) -> usize {
        let decomp = Decomp::new([2, 2, 2]);
        let results = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(
                GlobalGrid::dirichlet([16, 16, 16], [0.2; 3], [0.0; 3]),
                decomp,
                comm.rank(),
            );
            let ctx: RankCtx<f64, _, ThreadComm<f64>> =
                RankCtx::new(Serial::new(Recorder::disabled()), comm, grid);
            let b_host = rng_values(8 * 8 * 8, 11 + ctx.grid.rank as u64);
            let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let params = SolveParams {
                tol: 1e-9,
                max_iters: 5_000,
                record_history: false,
                ..Default::default()
            };
            let out = if use_ras {
                let mut prec = RasPrec::new(&ctx, 10, 1e-4, 10.0);
                bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut prec, &mut ws, &params)
            } else {
                let bounds = local_bounds(&ctx).rescaled(1e-4, 10.0);
                let mut prec = ChebyPrecond::<f64>::new(&ctx, ChebyMode::BlockJacobi, bounds, 10);
                bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut prec, &mut ws, &params)
            };
            assert!(out.converged, "{out:?}");
            out.iterations
        });
        assert!(results.iter().all(|&i| i == results[0]));
        results[0]
    }

    #[test]
    fn overlap_strengthens_the_preconditioner() {
        // the Schwarz-theory claim the paper cites: overlap reduces outer
        // iterations relative to the non-overlapping (BJ) limit
        let bj = solve_iterations(false);
        let ras = solve_iterations(true);
        assert!(
            ras <= bj,
            "RAS(1) must not need more outer iterations than BJ: {ras} vs {bj}"
        );
    }

    #[test]
    fn ras_traits_reflect_the_communication_trade() {
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([4, 4, 4], [0.2; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        // tiny 4^3 block: x10 min-rescaling would collapse the interval
        let ras = RasPrec::<f64>::new(&ctx, 2, 1e-4, 1.0);
        let t = Preconditioner::<f64, Serial, SelfComm<f64>>::traits(&ras);
        assert!(t.fixed && t.reduction_free);
        assert!(
            !t.comm_free,
            "overlap costs communication — the paper's point"
        );
    }
}

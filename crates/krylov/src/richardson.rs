//! Richardson (Neumann-series) polynomial preconditioner — the naive
//! baseline the Chebyshev iteration is optimal against.
//!
//! The Chebyshev iteration (Alg. 2/4) is the *optimal* fixed polynomial
//! approximation of `A⁻¹` given the spectral interval; the simplest
//! alternative is damped Richardson / a truncated Neumann series,
//!
//! ```text
//! z_{k+1} = z_k + τ (b − A z_k),   τ = 2 / (λ_min + λ_max)
//! ```
//!
//! with the classical optimal damping for an SPD-like spectrum. It shares
//! every structural property of the paper's CI preconditioners — fixed,
//! reduction-free, and communication-free in its restricted flavour — but
//! contracts only like `((κ−1)/(κ+1))^m` instead of Chebyshev's
//! `(\sqrt κ − 1)/(\sqrt κ + 1)` rate. The ablation bench and tests
//! demonstrate the gap, which is the quantitative justification for the
//! paper's choice of Chebyshev.

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::{apply_physical_bcs, SpectralBounds};

use crate::cheby::ChebyMode;
use crate::ctx::RankCtx;
use crate::kernels::INFO_CI2;
use crate::precond::{PrecTraits, Preconditioner};

/// Damped-Richardson polynomial preconditioner.
pub struct RichardsonPrec<T> {
    mode: ChebyMode,
    iterations: usize,
    tau: f64,
    z: Field<T>,
    scratch: Field<T>,
}

impl<T: Scalar> RichardsonPrec<T> {
    /// Configure `iterations` damped-Richardson sweeps with the optimal
    /// constant step for the given (rescaled) spectral bounds.
    pub fn new<D: Device, C: Communicator<T>>(
        ctx: &RankCtx<T, D, C>,
        mode: ChebyMode,
        bounds: SpectralBounds,
        iterations: usize,
    ) -> Self {
        assert!(iterations >= 1, "Richardson needs at least one sweep");
        assert!(
            bounds.min > 0.0 && bounds.max > bounds.min,
            "bad bounds {bounds:?}"
        );
        Self {
            mode,
            iterations,
            tau: 2.0 / (bounds.min + bounds.max),
            z: ctx.field(),
            scratch: ctx.field(),
        }
    }

    /// The damping factor τ.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// Sweeps per application.
    pub fn iterations(&self) -> usize {
        self.iterations
    }
}

impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for RichardsonPrec<T> {
    fn apply(&mut self, ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize {
        let tau = T::from_f64(self.tau);
        // z_1 = τ b (zero initial guess)
        crate::kernels::scale(
            &ctx.dev,
            crate::kernels::INFO_SCALE,
            &ctx.grid,
            &mut self.z,
            rhs,
            tau,
        );
        for _ in 1..self.iterations {
            // ghosts of the running iterate
            match self.mode {
                ChebyMode::Global => {
                    ctx.halo.exchange(&ctx.dev, &ctx.comm, &mut self.z);
                    apply_physical_bcs(&ctx.grid, &mut self.z, &ctx.recorder, false);
                }
                _ => apply_physical_bcs(&ctx.grid, &mut self.z, &ctx.recorder, true),
            }
            // scratch = z + τ b − τ A z  (one fused sweep)
            let (z_ref, scratch_mut) = (&self.z, &mut self.scratch);
            ctx.lap.apply_combine(
                &ctx.dev,
                INFO_CI2,
                z_ref,
                scratch_mut,
                -tau,
                [(z_ref, T::ONE), (rhs, tau)],
            );
            self.z.swap(&mut self.scratch);
        }
        out.copy_from(&self.z);
        self.iterations
    }

    fn traits(&self) -> PrecTraits {
        PrecTraits {
            fixed: true,
            comm_free: self.mode.comm_free(),
            reduction_free: true,
        }
    }

    fn name(&self) -> &'static str {
        match self.mode {
            ChebyMode::Global => "G(Richardson)",
            ChebyMode::GlobalNoComm => "GNoComm(Richardson)",
            ChebyMode::BlockJacobi => "BJ(Richardson)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::{bicgstab_solve, Scope, SolveParams};
    use crate::cheby::global_bounds;
    use crate::ctx::Workspace;
    use crate::precond::ChebyPrecond;
    use accel::{Recorder, Serial};
    use blockgrid::{BlockGrid, Decomp, GlobalGrid};
    use comm::SelfComm;

    fn ctx() -> RankCtx<f64, Serial, SelfComm<f64>> {
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([10, 10, 10], [0.2; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid)
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| ((i as f64) * 0.41).cos()).collect()
    }

    fn outer_iterations_with(prec_kind: &str, sweeps: usize) -> usize {
        let ctx = ctx();
        let bounds = global_bounds(&ctx);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs(1000));
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let params = SolveParams {
            tol: 1e-9,
            max_iters: 5_000,
            record_history: false,
            ..Default::default()
        };
        let out = match prec_kind {
            "richardson" => {
                let mut p = RichardsonPrec::new(&ctx, ChebyMode::GlobalNoComm, bounds, sweeps);
                bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut p, &mut ws, &params)
            }
            _ => {
                let mut p = ChebyPrecond::<f64>::new(&ctx, ChebyMode::GlobalNoComm, bounds, sweeps);
                bicgstab_solve(&ctx, Scope::Global, &b, &mut x, &mut p, &mut ws, &params)
            }
        };
        assert!(out.converged, "{prec_kind}: {out:?}");
        out.iterations
    }

    #[test]
    fn richardson_preconditioned_solver_converges() {
        let its = outer_iterations_with("richardson", 12);
        assert!(its > 0);
    }

    #[test]
    fn chebyshev_beats_richardson_at_equal_sweeps() {
        // the quantitative argument for the paper's choice of CI: at the
        // same per-application sweep budget, the optimal polynomial needs
        // fewer outer iterations
        let rich = outer_iterations_with("richardson", 12);
        let cheb = outer_iterations_with("chebyshev", 12);
        assert!(
            cheb < rich,
            "Chebyshev must beat Richardson at equal sweeps: {cheb} vs {rich}"
        );
    }

    #[test]
    fn optimal_tau_formula() {
        let ctx = ctx();
        let p = RichardsonPrec::new(
            &ctx,
            ChebyMode::GlobalNoComm,
            SpectralBounds { min: 1.0, max: 3.0 },
            4,
        );
        assert!((p.tau() - 0.5).abs() < 1e-15);
        assert_eq!(p.iterations(), 4);
    }

    #[test]
    fn traits_match_mode() {
        let ctx = ctx();
        let bounds = global_bounds(&ctx);
        let p = RichardsonPrec::<f64>::new(&ctx, ChebyMode::Global, bounds, 2);
        let t = Preconditioner::<f64, Serial, SelfComm<f64>>::traits(&p);
        assert!(t.fixed && !t.comm_free && t.reduction_free);
        let p = RichardsonPrec::<f64>::new(&ctx, ChebyMode::BlockJacobi, bounds, 2);
        let t = Preconditioner::<f64, Serial, SelfComm<f64>>::traits(&p);
        assert!(t.comm_free);
    }

    #[test]
    fn application_is_linear_and_fixed() {
        let ctx = ctx();
        let bounds = global_bounds(&ctx);
        let n = 1000;
        let u = rhs(n);
        let v: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.17).sin()).collect();
        let apply = |data: &[f64]| -> Vec<f64> {
            let mut p = RichardsonPrec::new(&ctx, ChebyMode::GlobalNoComm, bounds, 6);
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, data);
            let mut out = ctx.field();
            Preconditioner::<f64, Serial, SelfComm<f64>>::apply(&mut p, &ctx, &mut b, &mut out);
            out.interior_to_host(&ctx.grid)
        };
        let mu = apply(&u);
        let mv = apply(&v);
        let combo: Vec<f64> = u.iter().zip(&v).map(|(a, b)| 2.0 * a - 0.5 * b).collect();
        let mc = apply(&combo);
        for i in 0..n {
            let expect = 2.0 * mu[i] - 0.5 * mv[i];
            assert!(
                (mc[i] - expect).abs() < 1e-10 * expect.abs().max(1.0),
                "linearity at {i}"
            );
        }
    }
}

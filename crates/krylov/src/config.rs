//! The six solver configurations of Table I, as data.

use accel::{Device, Scalar};
use comm::Communicator;

use crate::bicgstab::Scope;
use crate::cheby::{global_bounds, local_bounds, ChebyMode};
use crate::ctx::RankCtx;
use crate::precond::{ChebyPrecond, IdentityPrec, InnerBiCgsPrec, PrecTraits, Preconditioner};

/// One of the six solvers evaluated in the paper (Table I / Table II).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolverKind {
    /// Un-preconditioned Bi-CGSTAB.
    BiCgs,
    /// Flexible Bi-CGSTAB with a global inner Bi-CGSTAB preconditioner.
    FBiCgsGBiCgs,
    /// Flexible Bi-CGSTAB with a Block-Jacobi inner Bi-CGSTAB preconditioner.
    FBiCgsBjBiCgs,
    /// Bi-CGSTAB with a Block-Jacobi Chebyshev preconditioner.
    BiCgsBjCi,
    /// Bi-CGSTAB with a global Chebyshev preconditioner.
    BiCgsGCi,
    /// Bi-CGSTAB with the communication-free global-spectrum Chebyshev
    /// preconditioner — the paper's fastest configuration.
    BiCgsGNoCommCi,
}

/// Tunables of the preconditioner family (paper Sec. IV defaults).
#[derive(Clone, Copy, Debug)]
pub struct SolverOptions {
    /// Inner relative tolerance for `G(BiCGS)` (paper: `1e-2`).
    pub inner_tol_g: f64,
    /// Inner relative tolerance for `BJ(BiCGS)` (paper: `1e-6`).
    pub inner_tol_bj: f64,
    /// Inner iteration cap for both (paper: 500).
    pub inner_max_iters: usize,
    /// Chebyshev sweeps per application (paper: 24, from the `N_s/2`
    /// error-propagation bound).
    pub ci_iterations: usize,
    /// Bergamaschi rescaling: relative shrink of `λ_max` (paper: `1e-4`).
    pub eig_max_shrink: f64,
    /// Bergamaschi rescaling: inflation of `λ_min` (paper: 100 for the
    /// multi-rank runs, 10 for the single-rank 64³ run).
    pub eig_min_factor: f64,
    /// Run the Chebyshev preconditioner's sweeps, state and halo traffic
    /// in `f32` under the `f64` outer recurrence (default off): the
    /// preconditioner becomes a `ChebyPrecond<f32>`, whose only
    /// width-specific work is one rounding cast in and one exact
    /// widening cast out per application. Only the `BJ(CI)` / `G(CI)` /
    /// `GNoComm(CI)` flavours have an inner precision to lower; the
    /// inner-Bi-CGSTAB preconditioners ignore the flag.
    pub mixed_precision: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            inner_tol_g: 1e-2,
            inner_tol_bj: 1e-6,
            inner_max_iters: 500,
            ci_iterations: 24,
            eig_max_shrink: 1e-4,
            eig_min_factor: 100.0,
            mixed_precision: false,
        }
    }
}

impl SolverKind {
    /// All six configurations, in Table I order.
    pub fn all() -> [SolverKind; 6] {
        [
            Self::BiCgs,
            Self::FBiCgsGBiCgs,
            Self::FBiCgsBjBiCgs,
            Self::BiCgsBjCi,
            Self::BiCgsGCi,
            Self::BiCgsGNoCommCi,
        ]
    }

    /// The paper's label for the configuration.
    pub fn label(&self) -> &'static str {
        match self {
            Self::BiCgs => "BiCGS",
            Self::FBiCgsGBiCgs => "FBiCGS-G(BiCGS)",
            Self::FBiCgsBjBiCgs => "FBiCGS-BJ(BiCGS)",
            Self::BiCgsBjCi => "BiCGS-BJ(CI)",
            Self::BiCgsGCi => "BiCGS-G(CI)",
            Self::BiCgsGNoCommCi => "BiCGS-GNoComm(CI)",
        }
    }

    /// Table I row: the preconditioner characterisation (`None` for the
    /// un-preconditioned solver).
    pub fn prec_traits(&self) -> Option<PrecTraits> {
        match self {
            Self::BiCgs => None,
            Self::FBiCgsGBiCgs => Some(PrecTraits {
                fixed: false,
                comm_free: false,
                reduction_free: false,
            }),
            Self::FBiCgsBjBiCgs => Some(PrecTraits {
                fixed: false,
                comm_free: true,
                reduction_free: false,
            }),
            Self::BiCgsBjCi => Some(PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }),
            Self::BiCgsGCi => Some(PrecTraits {
                fixed: true,
                comm_free: false,
                reduction_free: true,
            }),
            Self::BiCgsGNoCommCi => Some(PrecTraits {
                fixed: true,
                comm_free: true,
                reduction_free: true,
            }),
        }
    }

    /// Build the configured preconditioner for `ctx`.
    pub fn build_preconditioner<T, D, C>(
        &self,
        ctx: &RankCtx<T, D, C>,
        opts: &SolverOptions,
    ) -> Box<dyn Preconditioner<T, D, C>>
    where
        T: Scalar,
        D: Device,
        C: Communicator<T>,
    {
        match self {
            Self::BiCgs => Box::new(IdentityPrec),
            Self::FBiCgsGBiCgs => Box::new(InnerBiCgsPrec::new(
                ctx,
                Scope::Global,
                opts.inner_tol_g,
                opts.inner_max_iters,
            )),
            Self::FBiCgsBjBiCgs => Box::new(InnerBiCgsPrec::new(
                ctx,
                Scope::Local,
                opts.inner_tol_bj,
                opts.inner_max_iters,
            )),
            Self::BiCgsBjCi => {
                let bounds = local_bounds(ctx).rescaled(opts.eig_max_shrink, opts.eig_min_factor);
                cheby_prec(ctx, ChebyMode::BlockJacobi, bounds, opts)
            }
            Self::BiCgsGCi => {
                let bounds = global_bounds(ctx).rescaled(opts.eig_max_shrink, opts.eig_min_factor);
                cheby_prec(ctx, ChebyMode::Global, bounds, opts)
            }
            Self::BiCgsGNoCommCi => {
                let bounds = global_bounds(ctx).rescaled(opts.eig_max_shrink, opts.eig_min_factor);
                cheby_prec(ctx, ChebyMode::GlobalNoComm, bounds, opts)
            }
        }
    }
}

/// Build a Chebyshev preconditioner in `mode`, picking the element
/// width from [`SolverOptions::mixed_precision`].
fn cheby_prec<T, D, C>(
    ctx: &RankCtx<T, D, C>,
    mode: ChebyMode,
    bounds: stencil::SpectralBounds,
    opts: &SolverOptions,
) -> Box<dyn Preconditioner<T, D, C>>
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
{
    if opts.mixed_precision {
        Box::new(ChebyPrecond::<f32>::new(
            ctx,
            mode,
            bounds,
            opts.ci_iterations,
        ))
    } else {
        Box::new(ChebyPrecond::<T>::new(
            ctx,
            mode,
            bounds,
            opts.ci_iterations,
        ))
    }
}

impl std::fmt::Display for SolverKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for SolverKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bicgs" | "plain" => Ok(Self::BiCgs),
            "g-bicgs" | "fbicgs-g(bicgs)" | "gbicgs" => Ok(Self::FBiCgsGBiCgs),
            "bj-bicgs" | "fbicgs-bj(bicgs)" | "bjbicgs" => Ok(Self::FBiCgsBjBiCgs),
            "bj-ci" | "bicgs-bj(ci)" | "bjci" => Ok(Self::BiCgsBjCi),
            "g-ci" | "bicgs-g(ci)" | "gci" => Ok(Self::BiCgsGCi),
            "gnocomm-ci" | "bicgs-gnocomm(ci)" | "gnocommci" | "gnocomm" => {
                Ok(Self::BiCgsGNoCommCi)
            }
            other => Err(format!(
                "unknown solver {other:?}; expected one of bicgs | g-bicgs | bj-bicgs | bj-ci | g-ci | gnocomm-ci"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_rows() {
        // Table I of the paper, row for row.
        assert_eq!(SolverKind::BiCgs.prec_traits(), None);
        let g_bicgs = SolverKind::FBiCgsGBiCgs.prec_traits().unwrap();
        assert!(!g_bicgs.fixed && !g_bicgs.comm_free && !g_bicgs.reduction_free);
        let bj_bicgs = SolverKind::FBiCgsBjBiCgs.prec_traits().unwrap();
        assert!(!bj_bicgs.fixed && bj_bicgs.comm_free && !bj_bicgs.reduction_free);
        let bj_ci = SolverKind::BiCgsBjCi.prec_traits().unwrap();
        assert!(bj_ci.fixed && bj_ci.comm_free && bj_ci.reduction_free);
        let g_ci = SolverKind::BiCgsGCi.prec_traits().unwrap();
        assert!(g_ci.fixed && !g_ci.comm_free && g_ci.reduction_free);
        let gn = SolverKind::BiCgsGNoCommCi.prec_traits().unwrap();
        assert!(gn.fixed && gn.comm_free && gn.reduction_free);
    }

    #[test]
    fn labels_and_parsing_roundtrip() {
        for kind in SolverKind::all() {
            let parsed: SolverKind = kind.label().parse().unwrap();
            assert_eq!(parsed, kind);
        }
        assert!("petsc".parse::<SolverKind>().is_err());
    }

    #[test]
    fn default_options_match_paper() {
        let o = SolverOptions::default();
        assert_eq!(o.inner_tol_g, 1e-2);
        assert_eq!(o.inner_tol_bj, 1e-6);
        assert_eq!(o.inner_max_iters, 500);
        assert_eq!(o.ci_iterations, 24);
        assert_eq!(o.eig_max_shrink, 1e-4);
        assert_eq!(o.eig_min_factor, 100.0);
        assert!(!o.mixed_precision, "mixed precision is opt-in");
    }

    #[test]
    fn mixed_precision_flag_switches_the_cheby_family() {
        use accel::{Recorder, Serial};
        use blockgrid::{BlockGrid, Decomp, GlobalGrid};
        use comm::SelfComm;
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        let ctx: RankCtx<f64, _, _> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        // eig_min_factor 10: the paper's single-rank setting — the
        // multi-rank 100 would collapse this tiny grid's spectrum.
        let opts = SolverOptions {
            mixed_precision: true,
            eig_min_factor: 10.0,
            ..Default::default()
        };
        let f64_opts = SolverOptions {
            eig_min_factor: 10.0,
            ..Default::default()
        };
        for (kind, name) in [
            (SolverKind::BiCgsBjCi, "BJ(CI/f32)"),
            (SolverKind::BiCgsGCi, "G(CI/f32)"),
            (SolverKind::BiCgsGNoCommCi, "GNoComm(CI/f32)"),
        ] {
            let p = kind.build_preconditioner(&ctx, &opts);
            assert_eq!(p.name(), name);
            assert_eq!(
                Some(p.traits()),
                kind.prec_traits(),
                "Table I row unchanged"
            );
            let q = kind.build_preconditioner(&ctx, &f64_opts);
            assert!(!q.name().contains("f32"), "default stays f64: {}", q.name());
        }
        // the flag is inert for the non-Chebyshev configurations
        let p = SolverKind::BiCgs.build_preconditioner(&ctx, &opts);
        assert_eq!(p.name(), "Identity");
    }
}

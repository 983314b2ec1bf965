//! The preconditioner family of Table I.
//!
//! Bi-CGSTAB tolerates an *inexact* preconditioner, and its flexible
//! variant tolerates one that changes every iteration (Sec. III-A). The
//! paper builds five from two ingredients — an inner Bi-CGSTAB solve and
//! the Chebyshev iteration — crossed with global vs. block-restricted
//! operators:
//!
//! | name            | inner solver | operator        | comm-free | reduction-free | fixed |
//! |-----------------|--------------|-----------------|-----------|----------------|-------|
//! | `G(BiCGS)`      | Bi-CGSTAB    | global          | no        | no             | no    |
//! | `BJ(BiCGS)`     | Bi-CGSTAB    | block (Eq. 13)  | yes       | no             | no    |
//! | `BJ(CI)`        | Chebyshev    | block           | yes       | yes            | yes   |
//! | `G(CI)`         | Chebyshev    | global          | no        | yes            | yes   |
//! | `GNoComm(CI)`   | Chebyshev    | block, global λ | yes       | yes            | yes   |

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::SpectralBounds;

use crate::bicgstab::{bicgstab_solve, Scope, SolveParams};
use crate::cheby::{ChebyMode, ChebyshevIteration};
use crate::ctx::{RankCtx, Workspace};
use crate::kernels::{norm2_local, INFO_DOT};

/// The Table I characterisation of a preconditioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrecTraits {
    /// Fixed operator (identical every application)?
    pub fixed: bool,
    /// Applies without inter-rank communication?
    pub comm_free: bool,
    /// Applies without scalar-product reductions?
    pub reduction_free: bool,
}

/// A (possibly inexact, possibly iteration-varying) preconditioner
/// `M⁻¹ ≈ A⁻¹` applied matrix-free.
pub trait Preconditioner<T: Scalar, D: Device, C: Communicator<T>>: Send {
    /// Compute `out ≈ M⁻¹ rhs`.
    ///
    /// Implementations may refresh `rhs`'s ghost layers (its interior is
    /// never modified). Returns the number of inner sweeps used by this
    /// application (0 for the identity).
    fn apply(&mut self, ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize;

    /// Table I characterisation.
    fn traits(&self) -> PrecTraits;

    /// Short name for reports (e.g. `"GNoComm(CI)"`).
    fn name(&self) -> &'static str;

    /// `true` only for `M = I`: the Bi-CGSTAB driver then never applies
    /// it and sweeps `p` and `r` in place of `p̂` and `r̂`.
    fn is_identity(&self) -> bool {
        false
    }
}

/// The identity preconditioner (`M = I`, plain Bi-CGSTAB). The production
/// driver never applies it (see [`Preconditioner::is_identity`]); `apply`
/// is the plain copy the reference schedule runs.
pub struct IdentityPrec;

impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for IdentityPrec {
    fn apply(&mut self, _ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize {
        out.copy_from(rhs);
        0
    }

    fn is_identity(&self) -> bool {
        true
    }

    fn traits(&self) -> PrecTraits {
        PrecTraits {
            fixed: true,
            comm_free: true,
            reduction_free: true,
        }
    }

    fn name(&self) -> &'static str {
        "Identity"
    }
}

/// Chebyshev-iteration preconditioner (`BJ(CI)`, `G(CI)`, `GNoComm(CI)`)
/// sweeping in `E`: the outer scalar, or `f32` under an `f64` solve —
/// the same fixed polynomial with every sweep, state buffer and halo
/// message at half width (`G(CI/f32)`, …). Either way it is fixed (the
/// rounding is deterministic and identical every application) and
/// reduction-free.
pub struct ChebyPrecond<E> {
    cheby: ChebyshevIteration<E>,
    name: &'static str,
}

impl<E: Scalar> ChebyPrecond<E> {
    /// Build a Chebyshev preconditioner in the given mode with the given
    /// (already rescaled) bounds and sweep count.
    pub fn new<T: Scalar, D: Device, C: Communicator<T>>(
        ctx: &RankCtx<T, D, C>,
        mode: ChebyMode,
        bounds: SpectralBounds,
        iterations: usize,
    ) -> Self {
        let name = match (mode, E::BYTES < T::BYTES) {
            (ChebyMode::Global, false) => "G(CI)",
            (ChebyMode::GlobalNoComm, false) => "GNoComm(CI)",
            (ChebyMode::BlockJacobi, false) => "BJ(CI)",
            (ChebyMode::Global, true) => "G(CI/f32)",
            (ChebyMode::GlobalNoComm, true) => "GNoComm(CI/f32)",
            (ChebyMode::BlockJacobi, true) => "BJ(CI/f32)",
        };
        Self {
            cheby: ChebyshevIteration::new(ctx, mode, bounds, iterations),
            name,
        }
    }
}

impl<E: Scalar, T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C>
    for ChebyPrecond<E>
{
    fn apply(&mut self, ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize {
        self.cheby.solve(ctx, rhs, out)
    }

    fn traits(&self) -> PrecTraits {
        PrecTraits {
            fixed: true,
            comm_free: self.cheby.mode().comm_free(),
            reduction_free: true,
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

/// Inner-Bi-CGSTAB preconditioner (`G(BiCGS)` globally, `BJ(BiCGS)` on the
/// subdomain block). Inexact and iteration-varying — the *flexible*
/// Bi-CGSTAB setting of Vogel / Chen et al.
pub struct InnerBiCgsPrec<T> {
    scope: Scope,
    /// Relative tolerance on the inner residual.
    tol_rel: f64,
    max_iters: usize,
    ws: Workspace<T>,
    name: &'static str,
}

impl<T: Scalar> InnerBiCgsPrec<T> {
    /// Build the inner-solver preconditioner.
    ///
    /// The paper's settings: `G(BiCGS)` uses `tol_rel = 1e-2`,
    /// `BJ(BiCGS)` uses `tol_rel = 1e-6`, both capped at 500 iterations.
    pub fn new<D: Device, C: Communicator<T>>(
        ctx: &RankCtx<T, D, C>,
        scope: Scope,
        tol_rel: f64,
        max_iters: usize,
    ) -> Self {
        let name = match scope {
            Scope::Global => "G(BiCGS)",
            Scope::Local => "BJ(BiCGS)",
        };
        Self {
            scope,
            tol_rel,
            max_iters,
            ws: Workspace::new(&ctx.dev, &ctx.grid),
            name,
        }
    }
}

impl<T: Scalar, D: Device, C: Communicator<T>> Preconditioner<T, D, C> for InnerBiCgsPrec<T> {
    fn apply(&mut self, ctx: &RankCtx<T, D, C>, rhs: &mut Field<T>, out: &mut Field<T>) -> usize {
        // Scale the tolerance to the inner RHS (global or local norm
        // matching the scope of the inner reductions).
        let mut n2 = [norm2_local(&ctx.dev, INFO_DOT, &ctx.grid, rhs)];
        if self.scope == Scope::Global {
            ctx.comm.all_reduce(&mut n2, comm::ReduceOp::Sum);
        }
        let rhs_norm = n2[0].to_f64().max(0.0).sqrt();
        if rhs_norm == 0.0 {
            out.fill_zero();
            return 0;
        }
        out.fill_zero();
        let params = SolveParams {
            tol: self.tol_rel * rhs_norm,
            max_iters: self.max_iters,
            record_history: false,
            ..Default::default()
        };
        let outcome = bicgstab_solve(
            ctx,
            self.scope,
            rhs,
            out,
            &mut IdentityPrec,
            &mut self.ws,
            &params,
        );
        outcome.iterations
    }

    fn traits(&self) -> PrecTraits {
        PrecTraits {
            fixed: false,
            comm_free: self.scope == Scope::Local,
            reduction_free: false,
        }
    }

    fn name(&self) -> &'static str {
        self.name
    }
}

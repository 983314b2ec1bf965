//! # stencil — the discrete Poisson operator, matrix-free
//!
//! Everything the solver needs to *be* the matrix `A` of `A x = b`
//! without storing it (Sec. II-A and III-B of the paper):
//!
//! * [`Op1d`] / [`EndKind`] — the per-axis 1-D operators **D** and **N**
//!   (Eqs. 4–5), both as explicit coefficient rules and as dense matrices
//!   for verification.
//! * [`Laplacian`] — the matrix-free 7-point sweep, with fused-dot
//!   variants matching the paper's `KernelBiCGS1` and `KernelBiCGS3`.
//! * [`apply_physical_bcs`] — the `KernelNeumannBCs` ghost update
//!   (Neumann mirror / Dirichlet zero / Block-Jacobi restriction).
//! * [`spectrum`] — analytic (Eq. 9), Gerschgorin, and Sturm-bisection
//!   eigenvalue bounds composed through the Kronecker sum (Eqs. 8, 10–11),
//!   plus the Bergamaschi rescaling used by the Chebyshev preconditioners.
//! * [`matrix`] — dense reference assembly (Eq. 6) and LU/power-iteration
//!   utilities for the test suite.

#![warn(missing_docs)]

mod laplacian;
pub mod matrix;
mod op1d;
pub mod spectrum;

pub use laplacian::{
    apply_physical_bcs, apply_physical_bcs_planes, physical_bc_elems, Laplacian, Part, INFO_APPLY,
    INFO_NEUMANN_BCS,
};
pub use op1d::{EndKind, Op1d};
pub use spectrum::SpectralBounds;

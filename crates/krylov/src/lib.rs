//! # krylov — preconditioned Bi-CGSTAB with the paper's preconditioner family
//!
//! The core contribution of the reproduced paper: a matrix-free,
//! distributed, performance-portable Bi-CGSTAB solver (Alg. 3) with the
//! Chebyshev iteration (Alg. 4) and inner-Bi-CGSTAB preconditioners in
//! global, Block-Jacobi, and communication-free flavours (Table I).
//!
//! The solver is SPMD: every rank runs [`bicgstab_solve`] on its own
//! [`RankCtx`] (device + communicator + subdomain), and all stopping
//! decisions are taken on allreduced scalars so every rank returns the
//! identical [`SolveOutcome`]. There is one driver loop, written over a
//! group of lanes: [`bicgstab_solve`] runs it with one right-hand side,
//! [`bicgstab_solve_batch`] with several that share every kernel launch,
//! halo message and reduction message — same schedule, same features,
//! each lane bitwise its solo solve. Likewise there is one Chebyshev
//! iteration, [`ChebyshevIteration<E>`], generic over its sweep element:
//! [`ChebyPrecond<E>`] at `E = T` is the paper's preconditioner, and at
//! `E = f32` under an `f64` solve the mixed-precision one
//! ([`SolverOptions::mixed_precision`]), whose only width-specific code
//! is the cast in and the cast out.
//!
//! ```no_run
//! use accel::{Recorder, Serial};
//! use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
//! use comm::SelfComm;
//! use krylov::{bicgstab_solve, RankCtx, Scope, SolveParams, SolverKind, SolverOptions, Workspace};
//!
//! let grid = BlockGrid::new(
//!     GlobalGrid::dirichlet([32, 32, 32], [0.1; 3], [0.0; 3]),
//!     Decomp::single(),
//!     0,
//! );
//! let ctx: RankCtx<f64, _, _> =
//!     RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
//! let b = ctx.field(); // fill with your RHS
//! let mut x = ctx.field();
//! let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
//! let mut prec = SolverKind::BiCgsGNoCommCi.build_preconditioner(&ctx, &SolverOptions::default());
//! let outcome = bicgstab_solve(
//!     &ctx, Scope::Global, &b, &mut x, &mut *prec, &mut ws, &SolveParams::default(),
//! );
//! println!("{} iterations", outcome.iterations);
//! ```

#![warn(missing_docs)]

mod bicgstab;
mod cancel;
mod cheby;
mod config;
mod ctx;
pub mod kernels;
mod precond;
pub mod reference;
#[cfg(test)]
mod testutil;

pub use bicgstab::{
    bicgstab_solve, bicgstab_solve_batch, Breakdown, Scope, SolveOutcome, SolveParams,
};
pub use cancel::CancelToken;
pub use cheby::{global_bounds, local_bounds, ChebyMode, ChebyshevIteration};
pub use config::{SolverKind, SolverOptions};
pub use ctx::{RankCtx, Workspace};
pub use precond::{
    ChebyPrecond, IdentityPrec, InnerBiCgsPrec, PrecTraits, Preconditioner, SharedPrec,
};

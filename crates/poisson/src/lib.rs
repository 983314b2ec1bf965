//! # poisson — the paper's Poisson solver, end to end
//!
//! The user-facing crate of the reproduction: the continuous test problem
//! of Sec. IV (domain, mixed Dirichlet/Neumann boundary data, the
//! manufactured exact solution), its discretisation and right-hand-side
//! assembly with boundary lifting, and a per-rank [`PoissonSolver`]
//! facade that wires grid + device + communicator + Krylov solver
//! together.
//!
//! ## Quick start (single rank, serial back-end)
//!
//! ```
//! use accel::{Recorder, Serial};
//! use blockgrid::Decomp;
//! use comm::SelfComm;
//! use krylov::{SolveParams, SolverKind, SolverOptions};
//! use poisson::{paper_problem, PoissonSolver};
//!
//! let problem = paper_problem(17); // 17³-node version of the paper's mesh
//! let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(
//!     problem,
//!     Decomp::single(),
//!     Serial::new(Recorder::disabled()),
//!     SelfComm::default(),
//! );
//! let outcome = solver.solve(
//!     SolverKind::BiCgsGNoCommCi,
//!     &SolverOptions { eig_min_factor: 10.0, ..Default::default() },
//!     &SolveParams::default(),
//! );
//! assert!(outcome.converged);
//! let (l2, _linf) = solver.error_vs_exact();
//! assert!(l2 < 1e-2);
//! ```
//!
//! Multi-rank runs wrap the same code in [`comm::run_ranks`]; see the
//! `examples/` directory of the repository.

#![warn(missing_docs)]

pub mod assemble;
mod facade;
mod problem;

pub use facade::{LaneRhs, LaneSolve, PoissonSolver, SetupError};
pub use problem::{paper_problem, unit_cube_dirichlet, PoissonProblem, SpaceFn};

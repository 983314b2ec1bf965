//! # blockgrid — Cartesian domain decomposition (the paper's `blockGrid`)
//!
//! The paper's solver is organised around a workhorse `blockGrid` class
//! that "stores all the information about the global domain and the local
//! subdomain, such as the number of grid points and the subdomain location
//! in the grid" (Sec. III-C). This crate is that machinery:
//!
//! * [`GlobalGrid`] — the global unknown grid, spacing, and per-face
//!   boundary conditions (Dirichlet / Neumann per axis and side).
//! * [`Decomp`] — the `Ns_x × Ns_y × Ns_z` process grid with
//!   `Ns_x·Ns_y·Ns_z = N_MPI` (user-chosen, as in the paper).
//! * [`BlockGrid`] — one rank's subdomain: local extents, global offsets,
//!   neighbour ranks, and the classification of each local face as an
//!   interface or a physical boundary.
//! * [`Field`] — a halo-padded device-resident scalar field
//!   (`N_local + 2·N_halo` per axis, halo width 1 for the second-order
//!   stencil).
//! * [`HaloExchange`] — face pack/send/recv/unpack over a
//!   [`comm::Communicator`], the analogue of the paper's per-face
//!   `MPI_Datatype` + `Isend`/`Irecv`/`Waitall` stage.

#![warn(missing_docs)]

mod bc;
mod field;
mod grid;
mod halo;

pub use bc::{BcKind, LocalBoundary};
pub use field::Field;
pub use grid::{BlockGrid, Decomp, GlobalGrid};
pub use halo::{HaloExchange, PendingExchange};

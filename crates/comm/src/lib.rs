//! # comm — an MPI-style message-passing runtime for in-process ranks
//!
//! The paper parallelises across nodes with MPI: non-blocking halo
//! point-to-point (`MPI_Isend`/`MPI_Irecv`/`MPI_Waitall`), global
//! reductions (`MPI_Allreduce`) for the Bi-CGSTAB scalar products, and
//! derived datatypes that ship a whole subdomain face in one message.
//!
//! No multi-node cluster is available in this environment, so this crate
//! rebuilds the same contract with *ranks as OS threads* inside one
//! process:
//!
//! * [`Communicator`] is the API the solver is written against.
//! * [`ThreadComm`] is the N-rank implementation: tagged, buffered
//!   point-to-point channels plus a generation-stamped collective engine.
//! * [`SelfComm`] is the trivial single-rank world (`MPI_COMM_SELF`).
//! * [`run_ranks`] spawns one thread per rank and runs an SPMD closure,
//!   which is exactly how the examples, tests and benches launch the
//!   distributed solver.
//!
//! ## Reduction order and floating-point nondeterminism
//!
//! The paper attributes its run-to-run variance in iteration counts
//! (Table II) to non-associative floating-point reductions. The collective
//! engine makes that effect a first-class, *controllable* property:
//! [`ReduceOrder::RankOrder`] folds contributions deterministically by
//! rank, while [`ReduceOrder::Arrival`] folds them in the order ranks
//! happened to arrive — reproducing MPI's allreduce nondeterminism while
//! still guaranteeing that every rank observes the bitwise-same result
//! (which MPI also guarantees within one call).

#![warn(missing_docs)]

mod runner;
mod self_comm;
mod thread_comm;
mod types;

pub use runner::{run_ranks, run_ranks_recorded};
pub use self_comm::SelfComm;
pub use thread_comm::{Poisoner, ThreadComm};
pub use types::{
    CommStats, Communicator, RecvRequest, ReduceOp, ReduceOrder, ReduceRequest, Tag,
    MAX_REDUCE_SCALARS,
};

//! # serve — a multi-tenant solve service over the paper's solver
//!
//! The paper's measurement loop constructs one solver, runs it, and
//! exits. A *service* amortises that setup across tenants: requests
//! arrive concurrently, queue under admission control, and run on a
//! fixed worker/device pool that reuses warm sessions whenever a
//! request matches a previously constructed solver (same
//! discretisation, decomposition, device lease and solver
//! configuration — the hot path skips grid, operator and workspace
//! setup, and re-runs only the solve: against the right-hand side a
//! solver slot already holds when the tenant's problem is the one it was
//! assembled from, against a freshly loaded one otherwise).
//!
//! The pieces:
//!
//! - [`SolveService`] — submit [`SolveRequest`]s, get awaitable
//!   [`JobHandle`]s, watch [`ServiceStats`].
//! - scheduling — a bounded three-class priority queue; a full queue
//!   *rejects* ([`SubmitError::Overloaded`]) rather than blocking, with
//!   per-class headroom so a low-priority flood cannot crowd
//!   high-priority work out at admission, and queued jobs past their
//!   deadline are shed unstarted.
//! - panic isolation — every job runs under `catch_unwind`; a panic
//!   becomes [`JobError::Panicked`] with the payload preserved and the
//!   session it touched is quarantined, never returned to the pool.
//! - checked mode — a request with `checked: true` runs cold under the
//!   full correctness harness (`check::Checked` kernels +
//!   `check::VerifiedComm`); any finding fails that job only.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod job;
mod metrics;
mod request;
mod scheduler;
mod service;
mod session;
mod sync;

pub use job::{JobError, JobHandle, JobMetrics, JobOutput, JobResult, JobStatus, SubmitError};
pub use metrics::ServiceStats;
pub use request::{Priority, SolveRequest};
pub use service::{ServiceConfig, SolveService, StartError};

//! Communicator trait and shared types.

use accel::{Recorder, Scalar};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Message tag (disambiguates concurrent exchanges, like an MPI tag).
pub type Tag = u32;

/// Element-wise reduction operator for collectives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
}

impl ReduceOp {
    /// Apply the operator to a pair of scalars.
    #[inline]
    pub fn combine<T: Scalar>(self, a: T, b: T) -> T {
        match self {
            Self::Sum => a + b,
            Self::Min => a.min(b),
            Self::Max => a.max(b),
        }
    }
}

/// In which order `all_reduce` folds the per-rank contributions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReduceOrder {
    /// Fold in rank index order — bitwise-deterministic across runs.
    #[default]
    RankOrder,
    /// Fold in the order ranks arrived at the collective — varies run to
    /// run exactly like a real MPI reduction tree under OS jitter. All
    /// ranks still observe the same result within one call.
    Arrival,
}

/// Monotonic communication counters for one rank.
#[must_use = "a stats snapshot is pure bookkeeping; dropping it does nothing"]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CommStats {
    /// Point-to-point messages sent.
    pub msgs_sent: u64,
    /// Point-to-point payload bytes sent.
    pub bytes_sent: u64,
    /// Collective reductions participated in.
    pub allreduces: u64,
}

/// Shared atomic counters behind [`CommStats`].
#[derive(Default, Debug)]
pub(crate) struct StatsCell {
    pub msgs_sent: AtomicU64,
    pub bytes_sent: AtomicU64,
    pub allreduces: AtomicU64,
}

impl StatsCell {
    pub(crate) fn snapshot(&self) -> CommStats {
        CommStats {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            allreduces: self.allreduces.load(Ordering::Relaxed),
        }
    }
}

/// A posted non-blocking receive (the `MPI_Irecv` request object).
///
/// Completion is by matching order: because point-to-point messages are
/// buffered and matched by `(source, tag)` FIFO queues, posting early
/// never changes which message a request completes with — so the request
/// is a plain token and [`Communicator::wait`] performs the match.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a posted receive must be completed with wait/wait_all"]
pub struct RecvRequest {
    /// Source rank.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
}

/// Capacity ceiling for one split-phase reduction, in scalars.
///
/// Bounding the payload lets every layer stage a split-phase reduction
/// in fixed stack/inline storage, so posting one allocates nothing. The
/// solver posts none: its batched dot-product groups — up to three
/// scalars per lane in M1, four in M2, for up to 32 lanes — travel in
/// blocking [`Communicator::all_reduce`] calls, which take any length.
pub const MAX_REDUCE_SCALARS: usize = 64;

/// A begun split-phase reduction (the `MPI_Iallreduce` request object).
///
/// The contribution is made at begin time ([`Communicator::iall_reduce`]);
/// the reduced values are only available after
/// [`Communicator::reduce_finish`]. Between the two calls the caller is
/// free to compute — that window is what hides the reduction latency.
/// Exactly one split-phase reduction may be outstanding per rank (the
/// collective engine is a single shared slot, like a communicator-wide
/// `MPI_Iallreduce` without multiplexing).
#[derive(Clone, Debug)]
#[must_use = "a begun reduction must be completed with reduce_finish"]
pub struct ReduceRequest<T: Scalar> {
    /// Number of reduced elements (at most [`MAX_REDUCE_SCALARS`]).
    pub len: usize,
    /// Reduction operator applied element-wise.
    pub op: ReduceOp,
    /// Collective-engine generation the contribution entered
    /// (`ThreadComm` bookkeeping; 0 for resolve-at-begin communicators).
    pub(crate) generation: u64,
    /// Pre-resolved result (first `len` slots) for communicators that
    /// complete the reduction at begin time (`SelfComm`, the blocking
    /// default). Inline storage: resolving must not touch the heap.
    pub(crate) resolved: Option<[T; MAX_REDUCE_SCALARS]>,
}

/// The message-passing interface the solver is written against.
///
/// Sends are buffered and never block (the runtime owns the payload after
/// `send` returns, like a completed `MPI_Isend` on a buffered message);
/// `recv` blocks until a matching message arrives. The halo-exchange
/// pattern "post all receives and sends, then `wait_all`" is therefore
/// deadlock-free by construction.
pub trait Communicator<T: Scalar>: Send + Sync + 'static {
    /// This rank's index in `0..size()`.
    fn rank(&self) -> usize;

    /// World size.
    fn size(&self) -> usize;

    /// Post a buffered, non-blocking send of `data` to rank `dest`.
    fn send(&self, dest: usize, tag: Tag, data: Vec<T>);

    /// Block until a message with `tag` from rank `src` arrives.
    fn recv(&self, src: usize, tag: Tag) -> Vec<T>;

    /// Element-wise global reduction; every rank receives the identical
    /// combined vector in `vals`.
    fn all_reduce(&self, vals: &mut [T], op: ReduceOp);

    /// Block until every rank has entered the barrier.
    fn barrier(&self);

    /// Snapshot of this rank's communication counters.
    fn stats(&self) -> CommStats;

    /// The event stream this communicator reports collectives to.
    fn recorder(&self) -> &Recorder;

    /// Post a non-blocking receive (`MPI_Irecv`).
    #[must_use = "a posted receive must be completed with wait/wait_all"]
    fn irecv(&self, src: usize, tag: Tag) -> RecvRequest {
        RecvRequest { src, tag }
    }

    /// Complete one posted receive (`MPI_Wait`).
    #[must_use = "dropping a completed receive silently discards its payload"]
    fn wait(&self, req: RecvRequest) -> Vec<T> {
        self.recv(req.src, req.tag)
    }

    /// Complete a batch of posted receives (`MPI_Waitall`); payloads are
    /// returned in request order.
    #[must_use = "dropping completed receives silently discards their payloads"]
    fn wait_all(&self, reqs: Vec<RecvRequest>) -> Vec<Vec<T>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Begin a split-phase reduction (`MPI_Iallreduce`): contribute `vals`
    /// to the collective and return a completion handle without waiting
    /// for the other ranks. The fold topology (RankOrder vs Arrival) is
    /// the communicator's configured [`ReduceOrder`], identical to
    /// [`Communicator::all_reduce`] — so a split-phase reduction of the
    /// same values is bitwise-identical to the blocking call.
    ///
    /// At most one split-phase reduction may be outstanding per rank and
    /// `vals.len()` must not exceed [`MAX_REDUCE_SCALARS`] — the bounded
    /// payload is what lets every implementation run the steady state
    /// without heap allocation. The default implementation completes at
    /// begin time (blocking).
    #[must_use = "a begun reduction must be completed with reduce_finish"]
    fn iall_reduce(&self, vals: &[T], op: ReduceOp) -> ReduceRequest<T> {
        let mut buf = [T::ZERO; MAX_REDUCE_SCALARS];
        buf[..vals.len()].copy_from_slice(vals);
        self.all_reduce(&mut buf[..vals.len()], op);
        ReduceRequest {
            len: vals.len(),
            op,
            generation: 0,
            resolved: Some(buf),
        }
    }

    /// Complete a begun split-phase reduction (`MPI_Wait` on the
    /// [`iall_reduce`](Communicator::iall_reduce) handle), copying the
    /// reduced values — identical on every rank — into `out`, whose
    /// length must equal the request's `len`.
    fn reduce_finish(&self, req: ReduceRequest<T>, out: &mut [T]) {
        assert_eq!(
            out.len(),
            req.len,
            "reduce_finish output buffer does not match the request length"
        );
        let resolved = req
            .resolved
            .expect("reduce_finish on a request this communicator did not begin");
        out.copy_from_slice(&resolved[..req.len]);
    }
}

/// Blanket impl so `Arc<C>` is usable wherever a communicator is expected.
impl<T: Scalar, C: Communicator<T>> Communicator<T> for Arc<C> {
    fn rank(&self) -> usize {
        (**self).rank()
    }
    fn size(&self) -> usize {
        (**self).size()
    }
    fn send(&self, dest: usize, tag: Tag, data: Vec<T>) {
        (**self).send(dest, tag, data)
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<T> {
        (**self).recv(src, tag)
    }
    fn all_reduce(&self, vals: &mut [T], op: ReduceOp) {
        (**self).all_reduce(vals, op)
    }
    fn barrier(&self) {
        (**self).barrier()
    }
    fn stats(&self) -> CommStats {
        (**self).stats()
    }
    fn recorder(&self) -> &Recorder {
        (**self).recorder()
    }
    fn iall_reduce(&self, vals: &[T], op: ReduceOp) -> ReduceRequest<T> {
        (**self).iall_reduce(vals, op)
    }
    fn reduce_finish(&self, req: ReduceRequest<T>, out: &mut [T]) {
        (**self).reduce_finish(req, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_op_combine() {
        assert_eq!(ReduceOp::Sum.combine(2.0f64, 3.0), 5.0);
        assert_eq!(ReduceOp::Min.combine(2.0f64, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.combine(2.0f64, 3.0), 3.0);
    }

    #[test]
    fn default_order_is_deterministic() {
        assert_eq!(ReduceOrder::default(), ReduceOrder::RankOrder);
    }

    #[test]
    fn stats_snapshot_reads_counters() {
        let cell = StatsCell::default();
        cell.msgs_sent.store(3, Ordering::Relaxed);
        cell.bytes_sent.store(99, Ordering::Relaxed);
        let s = cell.snapshot();
        assert_eq!(s.msgs_sent, 3);
        assert_eq!(s.bytes_sent, 99);
        assert_eq!(s.allreduces, 0);
    }
}

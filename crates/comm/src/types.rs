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

/// A begun split-phase reduction (the `MPI_Iallreduce` request object)
/// of a [`ThreadComm`](crate::ThreadComm).
///
/// The contribution is made at begin time
/// ([`ThreadComm::iall_reduce`](crate::ThreadComm::iall_reduce)); the
/// reduced values are only available after
/// [`ThreadComm::reduce_finish`](crate::ThreadComm::reduce_finish).
/// Exactly one split-phase reduction may be outstanding per rank (the
/// collective engine is a single shared slot, like a communicator-wide
/// `MPI_Iallreduce` without multiplexing).
#[derive(Clone, Debug)]
#[must_use = "a begun reduction must be completed with reduce_finish"]
pub struct ReduceRequest {
    /// Number of reduced elements.
    pub len: usize,
    /// Reduction operator applied element-wise.
    pub op: ReduceOp,
    /// Collective-engine generation the contribution entered.
    pub(crate) generation: u64,
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

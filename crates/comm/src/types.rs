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
/// Split-phase reductions carry the solver's *dot-product groups*. One
/// Bi-CGSTAB lane puts at most four scalars in a message, and the driver
/// widens every group to the `B` lanes it solves together (σ/‖r‖²/cancel
/// blocks in M1, the four ω/ρ dots in M2), so the ceiling leaves room for
/// 16 lanes at four scalars each. Bounding the payload lets every layer
/// stage it in fixed stack/inline storage, which is what keeps the
/// steady-state iteration allocation-free. Larger payloads go through the
/// chunked [`Communicator::iall_reduce_many`] or the blocking
/// [`Communicator::all_reduce`] instead.
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

/// A begun chunked many-scalar reduction — the batched-RHS analogue of
/// [`ReduceRequest`] for payloads that may exceed [`MAX_REDUCE_SCALARS`].
///
/// The head chunk is a true split-phase reduction already in flight; any
/// remaining scalars are carried locally in the handle and reduced with
/// blocking collectives when the handle is completed by
/// [`Communicator::reduce_finish_many`]. Overlap therefore hides the head
/// chunk's latency and the tail costs one extra message per further
/// [`MAX_REDUCE_SCALARS`] scalars at finish time. Every rank chunks the
/// same way (the payload length is collectively uniform), so the chunk
/// sequence is collective-safe by construction.
#[derive(Debug)]
#[must_use = "a begun chunked reduction must be completed with reduce_finish_many"]
pub struct ReduceManyRequest<T: Scalar> {
    /// Split-phase handle on the in-flight head chunk.
    head: ReduceRequest<T>,
    /// Not-yet-reduced tail (empty when the payload fits one chunk).
    tail: Vec<T>,
    /// Reduction operator for the tail chunks.
    op: ReduceOp,
    /// Total number of scalars across head and tail.
    len: usize,
}

impl<T: Scalar> ReduceManyRequest<T> {
    /// Total number of scalars the handle reduces.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the handle carries no scalars at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of collective messages the whole reduction costs
    /// (the in-flight head plus one per tail chunk).
    pub fn messages(&self) -> usize {
        1 + self.tail.len().div_ceil(MAX_REDUCE_SCALARS)
    }
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

    /// Convenience: reduce a single scalar with [`ReduceOp::Sum`].
    fn all_reduce_scalar(&self, v: T) -> T {
        let mut buf = [v];
        self.all_reduce(&mut buf, ReduceOp::Sum);
        buf[0]
    }

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

    /// Reduce several independent vectors in one message: pack, one
    /// [`all_reduce`](Communicator::all_reduce), unpack in place. Because
    /// the fold is element-wise, each group's result is bitwise-identical
    /// to reducing it in its own call — batching only changes the message
    /// count, never the values.
    fn reduce_batch(&self, groups: &mut [&mut [T]], op: ReduceOp) {
        let total: usize = groups.iter().map(|g| g.len()).sum();
        // Scalar batches (the solver hot path) pack through fixed stack
        // storage; only oversized batches pay for a heap buffer.
        let mut stack = [T::ZERO; MAX_REDUCE_SCALARS];
        // LINT: alloc-ok(Vec::new is non-allocating; the heap path only
        // engages beyond MAX_REDUCE_SCALARS, off the solver hot path)
        let mut heap: Vec<T> = Vec::new();
        let packed: &mut [T] = if total <= MAX_REDUCE_SCALARS {
            &mut stack[..total]
        } else {
            heap.resize(total, T::ZERO);
            &mut heap
        };
        let mut off = 0;
        for g in groups.iter() {
            packed[off..off + g.len()].copy_from_slice(g);
            off += g.len();
        }
        self.all_reduce(packed, op);
        let mut off = 0;
        for g in groups.iter_mut() {
            g.copy_from_slice(&packed[off..off + g.len()]);
            off += g.len();
        }
    }

    /// Begin a batched split-phase reduction: several scalar groups packed
    /// into one [`iall_reduce`](Communicator::iall_reduce) message (at
    /// most [`MAX_REDUCE_SCALARS`] in total). The reduced groups come back
    /// concatenated in request order from
    /// [`reduce_finish`](Communicator::reduce_finish). Packing stages
    /// through fixed stack storage — no allocation.
    #[must_use = "a begun reduction must be completed with reduce_finish"]
    fn iall_reduce_batch(&self, groups: &[&[T]], op: ReduceOp) -> ReduceRequest<T> {
        let mut buf = [T::ZERO; MAX_REDUCE_SCALARS];
        let mut n = 0;
        for g in groups {
            buf[n..n + g.len()].copy_from_slice(g);
            n += g.len();
        }
        self.iall_reduce(&buf[..n], op)
    }

    /// Begin a chunked many-scalar reduction: the first
    /// [`MAX_REDUCE_SCALARS`] values enter a split-phase reduction
    /// immediately (overlappable exactly like
    /// [`iall_reduce`](Communicator::iall_reduce)); any remainder rides in
    /// the handle and is reduced chunk-by-chunk inside
    /// [`reduce_finish_many`](Communicator::reduce_finish_many). Chunking
    /// is element-wise and therefore bitwise-transparent: each scalar
    /// reduces exactly as it would in a dedicated call. Every rank must
    /// pass the same `vals.len()` so the chunk schedule is identical
    /// world-wide.
    #[must_use = "a begun chunked reduction must be completed with reduce_finish_many"]
    fn iall_reduce_many(&self, vals: &[T], op: ReduceOp) -> ReduceManyRequest<T> {
        let split = vals.len().min(MAX_REDUCE_SCALARS);
        // LINT: alloc-ok(the tail only exists past MAX_REDUCE_SCALARS —
        // beyond any solver hot-path payload; in-budget requests carry an
        // empty Vec, which does not allocate)
        ReduceManyRequest {
            head: self.iall_reduce(&vals[..split], op),
            tail: vals[split..].to_vec(),
            op,
            len: vals.len(),
        }
    }

    /// Complete a chunked many-scalar reduction begun with
    /// [`iall_reduce_many`](Communicator::iall_reduce_many): finish the
    /// in-flight head chunk, then reduce any carried tail chunks with
    /// blocking collectives, filling `out` (whose length must equal the
    /// request's `len`) in contribution order.
    fn reduce_finish_many(&self, req: ReduceManyRequest<T>, out: &mut [T]) {
        assert_eq!(
            out.len(),
            req.len,
            "reduce_finish_many output buffer does not match the request length"
        );
        let ReduceManyRequest {
            head,
            mut tail,
            op,
            len: _,
        } = req;
        let split = head.len;
        self.reduce_finish(head, &mut out[..split]);
        let mut off = split;
        for chunk in tail.chunks_mut(MAX_REDUCE_SCALARS) {
            self.all_reduce(chunk, op);
            out[off..off + chunk.len()].copy_from_slice(chunk);
            off += chunk.len();
        }
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
    fn reduce_batch(&self, groups: &mut [&mut [T]], op: ReduceOp) {
        (**self).reduce_batch(groups, op)
    }
    fn iall_reduce_batch(&self, groups: &[&[T]], op: ReduceOp) -> ReduceRequest<T> {
        (**self).iall_reduce_batch(groups, op)
    }
    fn iall_reduce_many(&self, vals: &[T], op: ReduceOp) -> ReduceManyRequest<T> {
        (**self).iall_reduce_many(vals, op)
    }
    fn reduce_finish_many(&self, req: ReduceManyRequest<T>, out: &mut [T]) {
        (**self).reduce_finish_many(req, out)
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

//! N-rank in-process communicator.

use accel::{Event, Recorder, Scalar, SpinPark};
use parking_lot::{Mutex, MutexGuard};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::types::{CommStats, Communicator, ReduceOp, ReduceOrder, ReduceRequest, StatsCell, Tag};

/// Messages keyed by (source, tag), FIFO per key.
type QueueMap<T> = HashMap<(usize, Tag), VecDeque<Vec<T>>>;

/// Per-destination mailbox.
struct Mailbox<T> {
    queues: Mutex<QueueMap<T>>,
    /// Woken by every `send` to this rank.
    arrived: SpinPark,
}

impl<T> Default for Mailbox<T> {
    fn default() -> Self {
        Self {
            queues: Mutex::new(HashMap::new()),
            arrived: SpinPark::default(),
        }
    }
}

/// Phase of the collective engine.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepting contributions for the current generation.
    Collect,
    /// Result published; ranks are copying it out.
    Distribute,
}

/// State of the generation-stamped collective engine.
///
/// All buffers are recycled round over round: contribution slots retire
/// into `spare` after the fold and are reused by later arrivals, and the
/// result vector keeps its capacity across rounds. After one warm-up
/// round per payload size the engine never touches the heap — the
/// steady-state allocation audits depend on this.
struct Collective<T> {
    phase: Phase,
    generation: u64,
    /// Contributions in arrival order (rank, payload).
    contributions: Vec<(usize, Vec<T>)>,
    /// Retired contribution slots awaiting reuse.
    spare: Vec<Vec<T>>,
    result: Vec<T>,
    departed: usize,
}

impl<T> Default for Collective<T> {
    fn default() -> Self {
        Self {
            phase: Phase::Collect,
            generation: 0,
            contributions: Vec::new(),
            spare: Vec::new(),
            result: Vec::new(),
            departed: 0,
        }
    }
}

struct Shared<T> {
    size: usize,
    order: ReduceOrder,
    mailboxes: Vec<Mailbox<T>>,
    collective: Mutex<Collective<T>>,
    /// Woken when a round publishes its result and when it drains.
    round: SpinPark,
    /// Set by [`ThreadComm::poison`]: every blocked or future blocking call
    /// panics instead of waiting, so a detected deadlock (or a watchdog
    /// timeout) unwinds the whole world instead of hanging it.
    poisoned: AtomicBool,
}

impl<T> Shared<T> {
    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(Ordering::Acquire),
            "ThreadComm world poisoned (deadlock or watchdog abort); \
             see the comm-verifier report for the wait-for graph"
        );
    }

    fn poison(&self) {
        self.poisoned.store(true, Ordering::Release);
        // Every waiter probes `check_poison` once the sequence moves.
        for mailbox in &self.mailboxes {
            mailbox.arrived.wake();
        }
        self.round.wake();
    }

    /// Wait on `round` until the collective engine satisfies `ready`, and
    /// hold its lock.
    fn await_round(&self, ready: impl Fn(&Collective<T>) -> bool) -> MutexGuard<'_, Collective<T>> {
        self.round.wait(|| {
            self.check_poison();
            Some(self.collective.lock()).filter(|st| ready(st))
        })
    }
}

/// Detached watchdog handle onto one world's poison flag.
///
/// Unlike a [`ThreadComm`] rank handle, a poisoner is cloneable and holds
/// no rank identity, so a supervising thread (the `check` crate's
/// watchdog) can keep one aside while every rank handle is moved onto its
/// thread, and still abort the world on a timeout.
pub struct Poisoner<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for Poisoner<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Poisoner<T> {
    /// Poison the world (see [`ThreadComm::poison`]). Idempotent.
    pub fn poison(&self) {
        self.shared.poison();
    }

    /// `true` once the world has been poisoned.
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }
}

/// One rank's handle onto an N-rank world.
///
/// Created in bulk with [`ThreadComm::world`]; each handle is moved onto
/// its rank's thread (see [`crate::run_ranks`]).
///
/// Semantics mirror buffered MPI: `send` enqueues and returns immediately,
/// `recv` blocks for a matching `(source, tag)` message, `all_reduce` and
/// `barrier` synchronise all ranks. If a rank panics while peers are
/// blocked in a collective the program hangs, as a crashed MPI rank also
/// hangs its communicator — run SPMD closures that do not panic.
pub struct ThreadComm<T> {
    shared: Arc<Shared<T>>,
    rank: usize,
    stats: Arc<StatsCell>,
    recorder: Recorder,
}

impl<T: Scalar> ThreadComm<T> {
    /// Create an N-rank world. `recorders[r]` receives rank `r`'s
    /// collective events; pass [`Recorder::disabled`] handles to skip
    /// recording.
    pub fn world(size: usize, order: ReduceOrder, recorders: Vec<Recorder>) -> Vec<Self> {
        assert!(size >= 1, "world needs at least one rank");
        assert_eq!(recorders.len(), size, "one recorder per rank required");
        let shared = Arc::new(Shared {
            size,
            order,
            mailboxes: (0..size).map(|_| Mailbox::default()).collect(),
            collective: Mutex::new(Collective::default()),
            round: SpinPark::default(),
            poisoned: AtomicBool::new(false),
        });
        recorders
            .into_iter()
            .enumerate()
            .map(|(rank, recorder)| Self {
                shared: Arc::clone(&shared),
                rank,
                stats: Arc::new(StatsCell::default()),
                recorder,
            })
            .collect()
    }

    /// Create a world with deterministic reductions and no recording.
    pub fn world_default(size: usize) -> Vec<Self> {
        Self::world(
            size,
            ReduceOrder::RankOrder,
            vec![Recorder::disabled(); size],
        )
    }

    /// The reduction-order policy of this world.
    pub fn reduce_order(&self) -> ReduceOrder {
        self.shared.order
    }

    /// Non-blocking receive: pop a matching `(src, tag)` message if one has
    /// already arrived (`MPI_Iprobe` + receive). `recv` waits on it, and
    /// the `check` crate's verified communicator polls it instead of
    /// blocking, which is what lets it run deadlock detection while
    /// "blocked".
    pub fn try_recv(&self, src: usize, tag: Tag) -> Option<Vec<T>> {
        assert!(src < self.shared.size, "recv from rank {src} outside world");
        self.shared.check_poison();
        self.shared.mailboxes[self.rank]
            .queues
            .lock()
            .get_mut(&(src, tag))
            .and_then(VecDeque::pop_front)
    }

    /// Poison the world: every rank blocked in `recv` or a collective (and
    /// every later call) panics instead of waiting forever. Idempotent.
    ///
    /// This is the escape hatch for deadlock diagnosis: a verifier or
    /// watchdog that has *proved* no progress is possible poisons the
    /// world so all rank threads unwind and the test harness can report,
    /// instead of hanging CI.
    pub fn poison(&self) {
        self.shared.poison();
    }

    /// A detached, cloneable handle that can poison this world without
    /// occupying a rank (for watchdog threads).
    pub fn poisoner(&self) -> Poisoner<T> {
        Poisoner {
            shared: Arc::clone(&self.shared),
        }
    }

    /// `true` once [`ThreadComm::poison`] has been called on any handle.
    pub fn is_poisoned(&self) -> bool {
        self.shared.poisoned.load(Ordering::Acquire)
    }

    /// Begin phase of the collective engine: pass the entry gate (the
    /// previous round must fully drain first), contribute, and — if this
    /// rank is the last arriver — fold and publish. Returns the generation
    /// the contribution entered; the caller completes it with
    /// [`Self::collective_finish`]. Never blocks on *other ranks'
    /// contributions*, only on the previous round draining, which is what
    /// makes the split-phase reduction overlap-capable.
    fn collective_begin(&self, vals: &[T], op: ReduceOp) -> u64 {
        let shared = &self.shared;
        // Entry gate: the previous round must fully drain first.
        let mut st = shared.await_round(|st| st.phase == Phase::Collect);
        assert!(
            st.contributions.iter().all(|(rank, _)| *rank != self.rank),
            "rank {} began a second collective while one is outstanding \
             (only one split-phase reduction may be in flight per rank)",
            self.rank
        );
        let my_generation = st.generation;
        // Stage the contribution in a recycled slot: `clear` +
        // `extend_from_slice` keeps the slot's capacity, so after one
        // warm-up round per payload size no round allocates.
        let mut slot = st.spare.pop().unwrap_or_default();
        slot.clear();
        slot.extend_from_slice(vals);
        st.contributions.push((self.rank, slot));
        if st.contributions.len() == shared.size {
            // Last arriver folds and publishes.
            let Collective {
                contributions,
                spare,
                result,
                ..
            } = &mut *st;
            if shared.order == ReduceOrder::RankOrder {
                // Unstable sort: ranks are unique, and stable sort would
                // allocate its merge scratch.
                contributions.sort_unstable_by_key(|(rank, _)| *rank);
            }
            result.clear();
            result.extend_from_slice(&contributions[0].1);
            for (_, contribution) in &contributions[1..] {
                for (a, b) in result.iter_mut().zip(contribution) {
                    *a = op.combine(*a, *b);
                }
            }
            // Retire the slots for the next round's arrivals.
            spare.extend(contributions.drain(..).map(|(_, slot)| slot));
            st.phase = Phase::Distribute;
            st.departed = 0;
            drop(st);
            shared.round.wake();
        }
        my_generation
    }

    /// Finish phase: wait for `generation`'s result to be published, copy
    /// it out and depart (the last departer resets the engine for the next
    /// round).
    fn collective_finish(&self, generation: u64, out: &mut [T]) {
        let shared = &self.shared;
        let mut st =
            shared.await_round(|st| st.phase == Phase::Distribute && st.generation == generation);
        out.copy_from_slice(&st.result[..out.len()]);
        st.departed += 1;
        if st.departed == shared.size {
            st.phase = Phase::Collect;
            st.generation += 1;
            drop(st);
            shared.round.wake();
        }
    }

    fn collective_exchange(&self, vals: &mut [T], op: ReduceOp) {
        let generation = self.collective_begin(vals, op);
        self.collective_finish(generation, vals);
    }

    /// Begin a split-phase reduction (`MPI_Iallreduce`): contribute `vals`
    /// to the collective and return a completion handle without waiting
    /// for the other ranks. The fold topology is the world's
    /// [`ReduceOrder`], as in [`Communicator::all_reduce`], so a
    /// split-phase reduction of the same values is bitwise-identical to
    /// the blocking call. At most one may be outstanding per rank.
    ///
    /// No solver reduction runs split: every one is a blocking
    /// `all_reduce`. This pair is kept for the benchmark's split-phase
    /// reduction probe.
    pub fn iall_reduce(&self, vals: &[T], op: ReduceOp) -> ReduceRequest {
        self.stats.allreduces.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(Event::AllReduce {
            elems: vals.len() as u32,
            bytes: (vals.len() * T::BYTES) as u64,
        });
        let generation = self.collective_begin(vals, op);
        ReduceRequest {
            len: vals.len(),
            op,
            generation,
        }
    }

    /// Complete a begun split-phase reduction (`MPI_Wait` on the
    /// [`ThreadComm::iall_reduce`] handle), copying the reduced values —
    /// identical on every rank — into `out`, whose length must equal the
    /// request's `len`.
    pub fn reduce_finish(&self, req: ReduceRequest, out: &mut [T]) {
        assert_eq!(
            out.len(),
            req.len,
            "reduce_finish output buffer does not match the request length"
        );
        self.collective_finish(req.generation, out);
    }
}

impl<T: Scalar> Communicator<T> for ThreadComm<T> {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.shared.size
    }

    fn send(&self, dest: usize, tag: Tag, data: Vec<T>) {
        assert!(dest < self.shared.size, "send to rank {dest} outside world");
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add((data.len() * T::BYTES) as u64, Ordering::Relaxed);
        let mailbox = &self.shared.mailboxes[dest];
        mailbox
            .queues
            .lock()
            .entry((self.rank, tag))
            .or_default()
            .push_back(data);
        mailbox.arrived.wake();
    }

    fn recv(&self, src: usize, tag: Tag) -> Vec<T> {
        self.shared.mailboxes[self.rank]
            .arrived
            .wait(|| self.try_recv(src, tag))
    }

    fn all_reduce(&self, vals: &mut [T], op: ReduceOp) {
        self.stats.allreduces.fetch_add(1, Ordering::Relaxed);
        self.recorder.record(Event::AllReduce {
            elems: vals.len() as u32,
            bytes: (vals.len() * T::BYTES) as u64,
        });
        self.collective_exchange(vals, op);
    }

    fn barrier(&self) {
        self.collective_exchange(&mut [], ReduceOp::Sum);
    }

    fn stats(&self) -> CommStats {
        self.stats.snapshot()
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_ranks;

    #[test]
    fn ring_pass_delivers_in_order() {
        let sums = run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            let right = (comm.rank() + 1) % comm.size();
            let left = (comm.rank() + comm.size() - 1) % comm.size();
            comm.send(right, 0, vec![comm.rank() as f64]);
            comm.send(right, 0, vec![comm.rank() as f64 + 0.5]);
            let first = comm.recv(left, 0);
            let second = comm.recv(left, 0);
            first[0] + second[0]
        });
        for (rank, s) in sums.iter().enumerate() {
            let left = (rank + 3) % 4;
            assert_eq!(*s, left as f64 * 2.0 + 0.5);
        }
    }

    #[test]
    fn all_reduce_sum_matches_serial() {
        let results = run_ranks::<f64, _, _>(5, ReduceOrder::RankOrder, |comm| {
            let mut v = vec![comm.rank() as f64, 1.0];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            v
        });
        for v in &results {
            assert_eq!(v, &vec![10.0, 5.0]);
        }
    }

    #[test]
    fn all_reduce_min_max() {
        let results = run_ranks::<f64, _, _>(3, ReduceOrder::RankOrder, |comm| {
            let mut v = vec![comm.rank() as f64];
            comm.all_reduce(&mut v, ReduceOp::Max);
            let mut w = vec![comm.rank() as f64];
            comm.all_reduce(&mut w, ReduceOp::Min);
            (v[0], w[0])
        });
        assert!(results.iter().all(|&(mx, mn)| mx == 2.0 && mn == 0.0));
    }

    #[test]
    fn repeated_collectives_do_not_cross_generations() {
        let results = run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            let mut acc = 0.0;
            for round in 0..200 {
                let mut v = [comm.rank() as f64 + round as f64];
                comm.all_reduce(&mut v, ReduceOp::Sum);
                acc += v[0];
            }
            acc
        });
        let expect: f64 = (0..200).map(|round| 6.0 + 4.0 * round as f64).sum();
        assert!(results.iter().all(|&a| a == expect));
    }

    #[test]
    fn arrival_order_gives_identical_result_on_all_ranks() {
        for _ in 0..10 {
            let results = run_ranks::<f64, _, _>(6, ReduceOrder::Arrival, |comm| {
                let mut v = [1.0 / (comm.rank() as f64 + 3.0)];
                comm.all_reduce(&mut v, ReduceOp::Sum);
                v[0]
            });
            let first = results[0].to_bits();
            assert!(results.iter().all(|r| r.to_bits() == first));
        }
    }

    #[test]
    fn barrier_synchronises() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            counter.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            // After the barrier every rank must have incremented.
            assert_eq!(counter.load(Ordering::SeqCst), 4);
        });
    }

    #[test]
    fn stats_and_events_are_per_rank() {
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let snapshot = recorders.clone();
        let comms = ThreadComm::<f64>::world(2, ReduceOrder::RankOrder, recorders);
        std::thread::scope(|s| {
            for comm in comms {
                s.spawn(move || {
                    if comm.rank() == 0 {
                        comm.send(1, 3, vec![1.0, 2.0, 3.0]);
                    } else {
                        let m = comm.recv(0, 3);
                        assert_eq!(m.len(), 3);
                    }
                    let mut v = [1.0];
                    comm.all_reduce(&mut v, ReduceOp::Sum);
                    if comm.rank() == 0 {
                        let st = comm.stats();
                        assert_eq!(st.msgs_sent, 1);
                        assert_eq!(st.bytes_sent, 24);
                        assert_eq!(st.allreduces, 1);
                    }
                });
            }
        });
        assert_eq!(
            snapshot[0].snapshot(),
            vec![Event::AllReduce { elems: 1, bytes: 8 }]
        );
        assert_eq!(
            snapshot[1].snapshot(),
            vec![Event::AllReduce { elems: 1, bytes: 8 }]
        );
    }

    #[test]
    fn messages_with_distinct_tags_do_not_mix() {
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 10, vec![10.0]);
                comm.send(1, 20, vec![20.0]);
            } else {
                // Receive in the opposite order of sending.
                assert_eq!(comm.recv(0, 20), vec![20.0]);
                assert_eq!(comm.recv(0, 10), vec![10.0]);
            }
        });
    }
}

#[cfg(test)]
mod stress_tests {
    use super::*;
    use crate::run_ranks;

    /// Random-ish all-to-all message storm: every rank sends a batch of
    /// messages with varying tags to every peer, then receives them all.
    /// Exercises mailbox matching under contention.
    #[test]
    fn all_to_all_message_storm() {
        let size = 6;
        let rounds = 20;
        run_ranks::<f64, _, _>(size, ReduceOrder::RankOrder, move |comm| {
            let me = comm.rank();
            for round in 0..rounds {
                for dest in 0..size {
                    if dest != me {
                        comm.send(dest, round as Tag, vec![(me * 1000 + round) as f64]);
                    }
                }
                for src in 0..size {
                    if src != me {
                        let msg = comm.recv(src, round as Tag);
                        assert_eq!(msg, vec![(src * 1000 + round) as f64]);
                    }
                }
            }
        });
    }

    /// Mixed collectives and point-to-point in the same round must not
    /// interfere (the solver does exactly this inside one iteration).
    #[test]
    fn interleaved_p2p_and_collectives() {
        run_ranks::<f64, _, _>(5, ReduceOrder::Arrival, |comm| {
            let me = comm.rank();
            let size = comm.size();
            for round in 0..50u32 {
                let right = (me + 1) % size;
                let left = (me + size - 1) % size;
                comm.send(right, round, vec![me as f64; 3]);
                let mut v = [1.0f64];
                comm.all_reduce(&mut v, ReduceOp::Sum);
                assert_eq!(v[0] as usize, size);
                let got = comm.recv(left, round);
                assert_eq!(got, vec![left as f64; 3]);
                comm.barrier();
            }
        });
    }

    /// Large payloads survive intact.
    #[test]
    fn large_message_integrity() {
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            if comm.rank() == 0 {
                let payload: Vec<f64> = (0..1_000_000).map(|i| i as f64 * 0.5).collect();
                comm.send(1, 0, payload);
            } else {
                let got = comm.recv(0, 0);
                assert_eq!(got.len(), 1_000_000);
                assert_eq!(got[999_999], 999_999.0 * 0.5);
                assert_eq!(got[123_456], 123_456.0 * 0.5);
            }
        });
    }

    /// f32 worlds work end to end (the comm layer is generic over T_data).
    #[test]
    fn f32_world() {
        run_ranks::<f32, _, _>(3, ReduceOrder::RankOrder, |comm| {
            let mut v = [comm.rank() as f32 + 0.5];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            assert_eq!(v[0], 0.5 + 1.5 + 2.5);
            assert_eq!(comm.stats().allreduces, 1);
        });
    }

    /// Reusing the same tag across collective generations must never pair
    /// a message with the wrong round: the per-(src, tag) FIFO plus the
    /// generation-stamped collective engine keep rounds ordered even when
    /// every round uses tag 0.
    #[test]
    fn tag_reuse_across_generations_stays_fifo() {
        run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            let me = comm.rank();
            let right = (me + 1) % comm.size();
            let left = (me + comm.size() - 1) % comm.size();
            for round in 0..100u32 {
                comm.send(right, 0, vec![(me * 1000) as f64 + round as f64]);
                // Interleave a collective so the generation counter advances
                // between reuses of tag 0.
                let mut v = [1.0f64];
                comm.all_reduce(&mut v, ReduceOp::Sum);
                assert_eq!(v[0], 4.0);
                let got = comm.recv(left, 0);
                assert_eq!(got, vec![(left * 1000) as f64 + round as f64]);
            }
        });
    }

    /// Zero-length messages are legal (a face message of an empty plane):
    /// they match by (src, tag) like any other message and count zero
    /// payload bytes.
    #[test]
    fn zero_length_messages_round_trip() {
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, vec![]);
                comm.send(1, 7, vec![1.0]);
                let st = comm.stats();
                assert_eq!(st.msgs_sent, 2);
                assert_eq!(st.bytes_sent, 8, "empty message adds no bytes");
            } else {
                assert_eq!(comm.recv(0, 7), Vec::<f64>::new());
                assert_eq!(comm.recv(0, 7), vec![1.0]);
            }
        });
    }

    /// A world may tear down with buffered sends still in flight: the
    /// sender's `send` completed (buffered semantics), nothing blocks, and
    /// dropping the world frees the undelivered payloads. The comm layer
    /// itself is silent here — flagging the lost message is the job of the
    /// `check` crate's verified communicator.
    #[test]
    fn teardown_with_in_flight_sends_does_not_hang() {
        let counts = run_ranks::<f64, _, _>(3, ReduceOrder::RankOrder, |comm| {
            comm.send((comm.rank() + 1) % 3, 42, vec![comm.rank() as f64; 5]);
            comm.stats().msgs_sent
        });
        assert_eq!(counts, vec![1, 1, 1]);
    }

    #[test]
    fn try_recv_polls_without_blocking() {
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            if comm.rank() == 0 {
                comm.barrier();
                comm.send(1, 3, vec![9.0]);
            } else {
                assert_eq!(comm.try_recv(0, 3), None, "nothing sent yet");
                comm.barrier();
                loop {
                    if let Some(msg) = comm.try_recv(0, 3) {
                        assert_eq!(msg, vec![9.0]);
                        break;
                    }
                    std::thread::yield_now();
                }
            }
        });
    }

    #[test]
    fn poison_unblocks_a_stuck_receiver() {
        let mut comms = ThreadComm::<f64>::world_default(2);
        let c1 = comms.pop().expect("rank 1");
        let c0 = comms.pop().expect("rank 0");
        let joined = std::thread::scope(|s| {
            let blocked = s.spawn(move || {
                // Blocks forever: rank 0 never sends.
                let _ = c1.recv(0, 0);
            });
            // Give rank 1 a moment to block, then poison the world.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(std::time::Duration::from_millis(20));
            assert!(!c0.is_poisoned());
            c0.poison();
            assert!(c0.is_poisoned());
            blocked.join()
        });
        assert!(joined.is_err(), "rank 1 panics out of the dead recv");
    }

    /// Poison rank 1 inside its spin budget: rank 0 sees it about to
    /// `wait`, yields an eighth of the budget (both sides yield at one
    /// rate, so rank 1 has not parked) and poisons. Both ranks must panic
    /// out before the deadline: rank 1 from its spin, rank 0 at its barrier.
    fn poison_inside_the_spin_window(wait: fn(&ThreadComm<f64>)) {
        use std::sync::atomic::AtomicBool;
        use std::time::{Duration, Instant};
        for _ in 0..20 {
            let waiting = Arc::new(AtomicBool::new(false));
            let ranks: Vec<_> = ThreadComm::<f64>::world_default(2)
                .into_iter()
                .map(|comm| {
                    let waiting = Arc::clone(&waiting);
                    std::thread::spawn(move || {
                        if comm.rank() == 1 {
                            waiting.store(true, Ordering::Release);
                            return wait(&comm);
                        }
                        while !waiting.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        for _ in 0..accel::SPIN_YIELDS / 8 {
                            std::thread::yield_now();
                        }
                        comm.poison();
                        // LINT: collective-uniform(poisoned: must panic at entry)
                        comm.barrier();
                    })
                })
                .collect();
            let deadline = Instant::now() + Duration::from_secs(10);
            while !ranks.iter().all(|r| r.is_finished()) {
                assert!(
                    Instant::now() < deadline,
                    "a rank stayed blocked in a poisoned world"
                );
                std::thread::park_timeout(Duration::from_millis(1));
            }
            let panicked: Vec<bool> = ranks.into_iter().map(|r| r.join().is_err()).collect();
            assert_eq!(panicked, [true, true], "both ranks panic out");
        }
    }

    #[test]
    fn poison_unblocks_a_spinning_receiver() {
        poison_inside_the_spin_window(|comm| {
            let _ = comm.recv(0, 0);
        });
    }

    #[test]
    fn poison_unblocks_a_spinning_collective_finish() {
        poison_inside_the_spin_window(|comm| {
            let req = comm.iall_reduce(&[1.0], ReduceOp::Sum);
            comm.reduce_finish(req, &mut [0.0]);
        });
    }

    /// Split-phase reduction: the result after `reduce_finish` is bitwise
    /// identical to the blocking `all_reduce` of the same values, under
    /// both fold topologies.
    ///
    /// The split-phase and blocking calls are *separate collective rounds*,
    /// so under `Arrival` their fold orders are independent. The
    /// contributions are therefore chosen exactly summable (distinct powers
    /// of two and small integers): every fold order produces the bitwise
    /// same sum, which makes the assertion deterministic under load instead
    /// of flaking when OS jitter reorders one of the two rounds.
    #[test]
    fn iall_reduce_matches_blocking_all_reduce() {
        for order in [ReduceOrder::RankOrder, ReduceOrder::Arrival] {
            run_ranks::<f64, _, _>(5, order, |comm| {
                let mine = vec![2f64.powi(-(comm.rank() as i32)), comm.rank() as f64];
                let req = comm.iall_reduce(&mine, ReduceOp::Sum);
                // Overlap window: the rank is free to compute here.
                let busywork: f64 = (0..100).map(|i| i as f64).sum();
                assert_eq!(busywork, 4950.0);
                let mut split = vec![0.0; mine.len()];
                comm.reduce_finish(req, &mut split);
                let mut blocking = mine;
                comm.all_reduce(&mut blocking, ReduceOp::Sum);
                assert_eq!(
                    split.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    blocking.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            });
        }
    }

    /// Split-phase rounds keep their generation stamps straight when the
    /// begin/finish pairs of consecutive rounds interleave across ranks.
    #[test]
    fn repeated_iall_reduce_rounds_do_not_cross() {
        run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            for round in 0..200 {
                let req = comm.iall_reduce(&[comm.rank() as f64 + round as f64], ReduceOp::Sum);
                let mut got = [0.0];
                comm.reduce_finish(req, &mut got);
                assert_eq!(got, [6.0 + 4.0 * round as f64]);
            }
        });
    }

    /// Beginning a second split-phase reduction while one is outstanding
    /// is a protocol violation and must fail loudly, not corrupt the fold.
    #[test]
    fn double_begin_without_finish_panics() {
        let comms = ThreadComm::<f64>::world_default(2);
        let c0 = &comms[0];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _r1 = c0.iall_reduce(&[1.0], ReduceOp::Sum);
            let _r2 = c0.iall_reduce(&[2.0], ReduceOp::Sum);
        }));
        let msg = *result
            .expect_err("second begin must panic")
            .downcast::<String>()
            .expect("string panic payload");
        assert!(msg.contains("second collective"), "{msg}");
    }

    /// Min/Max reductions across many ranks.
    #[test]
    fn min_max_over_many_ranks() {
        run_ranks::<f64, _, _>(12, ReduceOrder::Arrival, |comm| {
            let mut v = [comm.rank() as f64, -(comm.rank() as f64)];
            comm.all_reduce(&mut v[..1], ReduceOp::Max);
            comm.all_reduce(&mut v[1..], ReduceOp::Min);
            assert_eq!(v[0], 11.0);
            assert_eq!(v[1], -11.0);
        });
    }
}

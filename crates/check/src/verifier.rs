//! `VerifiedComm` — the comm-protocol verifier.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use accel::{Recorder, Scalar};
use comm::{CommStats, Communicator, RecvRequest, ReduceOp, ReduceRequest, Tag, ThreadComm};

/// What one rank is doing right now, as seen by the verifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum RankState {
    /// Executing user code.
    Running,
    /// Polling for a `(src, tag)` message.
    BlockedRecv {
        /// Source rank awaited.
        src: usize,
        /// Tag awaited.
        tag: Tag,
    },
    /// Inside the inner communicator's collective engine.
    BlockedCollective {
        /// `"all_reduce"` or `"barrier"`.
        kind: &'static str,
    },
    /// The rank closure returned.
    Done,
}

/// Per-channel `(src, dst, tag)` message accounting.
#[derive(Clone, Copy, Debug, Default)]
struct ChannelStat {
    sent: u64,
    received: u64,
    first_len: Option<usize>,
    len_mismatch: Option<usize>,
}

/// One globally-ordered collective call, as recorded by its first arriver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct CollectiveRecord {
    kind: &'static str,
    op: Option<ReduceOp>,
    len: usize,
}

/// Verifier state shared by every rank of one world (plus the watchdog).
pub(crate) struct VerifierShared {
    size: usize,
    /// Bumped on every send, delivered receive and completed collective;
    /// a stable counter while every rank is blocked proves a deadlock.
    progress: AtomicU64,
    states: Mutex<Vec<RankState>>,
    channels: Mutex<HashMap<(usize, usize, Tag), ChannelStat>>,
    /// Outstanding posted-but-never-waited receives per `(rank, src, tag)`.
    posted: Mutex<HashMap<(usize, usize, Tag), u64>>,
    /// Global collective log, indexed by each rank's local call count.
    collectives: Mutex<Vec<CollectiveRecord>>,
    coll_counts: Mutex<Vec<u64>>,
    /// Outstanding split-phase reductions per rank (begun with
    /// `iall_reduce` but not yet completed with `reduce_finish`).
    ireduce_outstanding: Mutex<Vec<u64>>,
    /// Everything the verifier has diagnosed, for the runner's report.
    pub(crate) violations: Mutex<Vec<String>>,
    deadlock_reported: AtomicBool,
    /// How long the world must sit fully-blocked with no progress before
    /// a polling rank declares deadlock.
    window: Duration,
}

impl VerifierShared {
    pub(crate) fn new(size: usize, window: Duration) -> Arc<Self> {
        Arc::new(Self {
            size,
            progress: AtomicU64::new(0),
            states: Mutex::new(vec![RankState::Running; size]),
            channels: Mutex::new(HashMap::new()),
            posted: Mutex::new(HashMap::new()),
            collectives: Mutex::new(Vec::new()),
            coll_counts: Mutex::new(vec![0; size]),
            ireduce_outstanding: Mutex::new(vec![0; size]),
            violations: Mutex::new(Vec::new()),
            deadlock_reported: AtomicBool::new(false),
            window,
        })
    }

    fn set_state(&self, rank: usize, state: RankState) {
        self.states.lock().expect("states lock")[rank] = state;
    }

    pub(crate) fn set_done(&self, rank: usize) {
        self.set_state(rank, RankState::Done);
    }

    fn bump_progress(&self) {
        self.progress.fetch_add(1, Ordering::Release);
    }

    fn record_violation(&self, msg: String) {
        self.violations.lock().expect("violations lock").push(msg);
    }

    /// Render the wait-for graph: what every rank is blocked on, which
    /// channels hold undelivered messages, and any blocked-recv cycle.
    pub(crate) fn wait_for_graph(&self) -> String {
        let states = self.states.lock().expect("states lock").clone();
        let mut out = String::from("wait-for graph:\n");
        for (rank, st) in states.iter().enumerate() {
            let line = match st {
                RankState::Running => format!("  rank {rank}: running\n"),
                RankState::BlockedRecv { src, tag } => {
                    format!("  rank {rank}: blocked in recv(src={src}, tag={tag})\n")
                }
                RankState::BlockedCollective { kind } => {
                    format!("  rank {rank}: blocked in {kind}\n")
                }
                RankState::Done => format!("  rank {rank}: finished\n"),
            };
            out.push_str(&line);
        }
        let channels = self.channels.lock().expect("channels lock");
        let mut undelivered: Vec<_> = channels
            .iter()
            .filter(|(_, c)| c.sent > c.received)
            .collect();
        undelivered.sort_by_key(|(k, _)| **k);
        if !undelivered.is_empty() {
            out.push_str("undelivered messages:\n");
            for ((src, dst, tag), c) in undelivered {
                out.push_str(&format!(
                    "  rank {src} -> rank {dst} tag {tag}: {} sent, {} received\n",
                    c.sent, c.received
                ));
            }
        }
        // Follow blocked-recv edges from each rank to surface a cycle.
        for start in 0..self.size {
            let mut path = vec![start];
            let mut cur = start;
            while let RankState::BlockedRecv { src, .. } = states[cur] {
                if src == start {
                    let names: Vec<String> = path.iter().map(|r| format!("rank {r}")).collect();
                    out.push_str(&format!(
                        "recv cycle: {} -> rank {start}\n",
                        names.join(" -> ")
                    ));
                    return out;
                }
                if path.contains(&src) {
                    break;
                }
                path.push(src);
                cur = src;
            }
        }
        out
    }

    /// `true` when no rank is in user code: every rank is blocked or done.
    fn nobody_running(&self) -> bool {
        self.states
            .lock()
            .expect("states lock")
            .iter()
            .all(|s| !matches!(s, RankState::Running))
    }
}

/// A protocol-verifying [`Communicator`] wrapping one rank's
/// [`ThreadComm`] handle.
///
/// Point-to-point and collective traffic delegate to the inner
/// communicator, but the verifier additionally:
///
/// * implements `recv` as a polling loop over [`ThreadComm::try_recv`],
///   so a blocked receive participates in **live deadlock detection**:
///   when every rank of the world is blocked and the global progress
///   counter stays frozen for a stability window, the poller dumps the
///   wait-for graph (rank, source and tag of every blocked receive,
///   undelivered channels, recv cycles), poisons the world and panics —
///   instead of hanging CI;
/// * audits every collective against the global call order: all ranks'
///   n-th collective must agree on kind (`all_reduce` vs `barrier`),
///   reduction operator and vector length, otherwise the inner engine
///   would silently fold mismatched vectors;
/// * counts messages per `(src, dst, tag)` channel and posted receives
///   per `(rank, src, tag)`, so the checked runner can report unmatched
///   sends, never-waited requests and size-mismatched channels at world
///   teardown.
pub struct VerifiedComm<T: Scalar> {
    inner: ThreadComm<T>,
    shared: Arc<VerifierShared>,
}

impl<T: Scalar> VerifiedComm<T> {
    pub(crate) fn new(inner: ThreadComm<T>, shared: Arc<VerifierShared>) -> Self {
        Self { inner, shared }
    }

    /// The wrapped per-rank communicator.
    pub fn inner(&self) -> &ThreadComm<T> {
        &self.inner
    }

    fn rank(&self) -> usize {
        Communicator::<T>::rank(&self.inner)
    }

    /// Declare deadlock from a polling receive: record, dump, poison,
    /// panic. Only the first declaring rank reports.
    fn declare_deadlock(&self, src: usize, tag: Tag) -> ! {
        if self.shared.deadlock_reported.swap(true, Ordering::AcqRel) {
            // Another rank already reported; unwind quietly via poison.
            self.inner.poison();
            panic!("comm-verifier: world poisoned after deadlock");
        }
        let graph = self.shared.wait_for_graph();
        let msg = format!(
            "deadlock: rank {} can never complete recv(src={src}, tag={tag}) — \
             no rank can make progress\n{graph}",
            self.rank()
        );
        self.shared.record_violation(msg.clone());
        self.inner.poison();
        panic!("comm-verifier: {msg}");
    }

    /// Audit this rank's next collective against the global call order.
    fn audit_collective(&self, kind: &'static str, op: Option<ReduceOp>, len: usize) {
        let my_call = {
            let mut counts = self.shared.coll_counts.lock().expect("counts lock");
            let c = counts[self.rank()];
            counts[self.rank()] += 1;
            c as usize
        };
        let mine = CollectiveRecord { kind, op, len };
        let mut log = self.shared.collectives.lock().expect("collectives lock");
        if my_call < log.len() {
            let first = log[my_call];
            if first != mine {
                let msg = format!(
                    "collective mismatch at call #{my_call}: rank {} entered \
                     {kind}(op={op:?}, len={len}) but an earlier rank entered \
                     {}(op={:?}, len={})",
                    self.rank(),
                    first.kind,
                    first.op,
                    first.len
                );
                drop(log);
                self.shared.record_violation(msg.clone());
                self.inner.poison();
                panic!("comm-verifier: {msg}");
            }
        } else {
            log.push(mine);
        }
    }

    fn verified_collective(&self, kind: &'static str, f: impl FnOnce()) {
        self.shared
            .set_state(self.rank(), RankState::BlockedCollective { kind });
        f();
        self.shared.set_state(self.rank(), RankState::Running);
        self.shared.bump_progress();
    }
}

impl<T: Scalar> Communicator<T> for VerifiedComm<T> {
    fn rank(&self) -> usize {
        Communicator::<T>::rank(&self.inner)
    }

    fn size(&self) -> usize {
        Communicator::<T>::size(&self.inner)
    }

    fn send(&self, dest: usize, tag: Tag, data: Vec<T>) {
        {
            let mut channels = self.shared.channels.lock().expect("channels lock");
            let stat = channels.entry((self.rank(), dest, tag)).or_default();
            stat.sent += 1;
            match stat.first_len {
                None => stat.first_len = Some(data.len()),
                Some(first) if first != data.len() && stat.len_mismatch.is_none() => {
                    stat.len_mismatch = Some(data.len());
                }
                _ => {}
            }
        }
        self.inner.send(dest, tag, data);
        self.shared.bump_progress();
    }

    fn recv(&self, src: usize, tag: Tag) -> Vec<T> {
        let me = self.rank();
        self.shared
            .set_state(me, RankState::BlockedRecv { src, tag });
        let mut last_progress = self.shared.progress.load(Ordering::Acquire);
        let mut stable_since = Instant::now();
        let mut spins = 0u32;
        loop {
            if self.inner.is_poisoned() {
                panic!(
                    "comm-verifier: world poisoned while rank {me} waited for \
                     recv(src={src}, tag={tag}); see the verifier report"
                );
            }
            if let Some(msg) = self.inner.try_recv(src, tag) {
                self.shared.set_state(me, RankState::Running);
                self.shared
                    .channels
                    .lock()
                    .expect("channels lock")
                    .entry((src, me, tag))
                    .or_default()
                    .received += 1;
                self.shared.bump_progress();
                return msg;
            }
            let p = self.shared.progress.load(Ordering::Acquire);
            if p != last_progress {
                last_progress = p;
                stable_since = Instant::now();
            } else if stable_since.elapsed() >= self.shared.window && self.shared.nobody_running() {
                self.declare_deadlock(src, tag);
            }
            spins += 1;
            if spins < 128 {
                std::thread::yield_now();
            } else {
                #[allow(clippy::disallowed_methods)]
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }

    fn all_reduce(&self, vals: &mut [T], op: ReduceOp) {
        self.audit_collective("all_reduce", Some(op), vals.len());
        self.verified_collective("all_reduce", || self.inner.all_reduce(vals, op));
    }

    fn barrier(&self) {
        self.audit_collective("barrier", None, 0);
        self.verified_collective("barrier", || self.inner.barrier());
    }

    fn stats(&self) -> CommStats {
        Communicator::<T>::stats(&self.inner)
    }

    fn recorder(&self) -> &Recorder {
        Communicator::<T>::recorder(&self.inner)
    }

    fn irecv(&self, src: usize, tag: Tag) -> RecvRequest {
        *self
            .shared
            .posted
            .lock()
            .expect("posted lock")
            .entry((self.rank(), src, tag))
            .or_default() += 1;
        RecvRequest { src, tag }
    }

    fn iall_reduce(&self, vals: &[T], op: ReduceOp) -> ReduceRequest<T> {
        self.audit_collective("iall_reduce", Some(op), vals.len());
        let me = self.rank();
        {
            let mut outstanding = self
                .shared
                .ireduce_outstanding
                .lock()
                .expect("ireduce lock");
            if outstanding[me] > 0 {
                let msg = format!(
                    "rank {me} began a second iall_reduce while one was still \
                     outstanding (complete it with reduce_finish first)"
                );
                drop(outstanding);
                self.shared.record_violation(msg.clone());
                self.inner.poison();
                panic!("comm-verifier: {msg}");
            }
            outstanding[me] += 1;
        }
        // The begin phase only blocks on the previous round draining, but
        // it *can* block — expose that to the deadlock detector.
        self.shared.set_state(
            me,
            RankState::BlockedCollective {
                kind: "iall_reduce",
            },
        );
        let req = self.inner.iall_reduce(vals, op);
        self.shared.set_state(me, RankState::Running);
        self.shared.bump_progress();
        req
    }

    fn reduce_finish(&self, req: ReduceRequest<T>, out: &mut [T]) {
        let me = self.rank();
        {
            let mut outstanding = self
                .shared
                .ireduce_outstanding
                .lock()
                .expect("ireduce lock");
            if outstanding[me] == 0 {
                let msg = format!(
                    "rank {me} called reduce_finish with no outstanding \
                     iall_reduce (the request was not begun on this rank)"
                );
                drop(outstanding);
                self.shared.record_violation(msg.clone());
                self.inner.poison();
                panic!("comm-verifier: {msg}");
            }
            outstanding[me] -= 1;
        }
        self.shared.set_state(
            me,
            RankState::BlockedCollective {
                kind: "reduce_finish",
            },
        );
        self.inner.reduce_finish(req, out);
        self.shared.set_state(me, RankState::Running);
        self.shared.bump_progress();
    }

    fn wait(&self, req: RecvRequest) -> Vec<T> {
        {
            let mut posted = self.shared.posted.lock().expect("posted lock");
            match posted.get_mut(&(self.rank(), req.src, req.tag)) {
                Some(n) if *n > 0 => *n -= 1,
                _ => {
                    let msg = format!(
                        "rank {} waited on recv(src={}, tag={}) that was never \
                         posted with irecv",
                        self.rank(),
                        req.src,
                        req.tag
                    );
                    drop(posted);
                    self.shared.record_violation(msg.clone());
                    self.inner.poison();
                    panic!("comm-verifier: {msg}");
                }
            }
        }
        self.recv(req.src, req.tag)
    }
}

/// World-teardown findings assembled by the checked runner.
pub(crate) fn teardown_report(shared: &VerifierShared) -> Vec<String> {
    let mut findings = Vec::new();
    let channels = shared.channels.lock().expect("channels lock");
    let mut sorted: Vec<_> = channels.iter().collect();
    sorted.sort_by_key(|(k, _)| **k);
    for ((src, dst, tag), c) in sorted {
        if c.sent > c.received {
            findings.push(format!(
                "unmatched send: rank {src} sent {} message(s) to rank {dst} \
                 with tag {tag} that were never received",
                c.sent - c.received
            ));
        }
        if let (Some(first), Some(other)) = (c.first_len, c.len_mismatch) {
            findings.push(format!(
                "size mismatch: rank {src} -> rank {dst} tag {tag} carried \
                 messages of {first} and of {other} elements"
            ));
        }
    }
    let posted = shared.posted.lock().expect("posted lock");
    let mut sorted: Vec<_> = posted.iter().filter(|(_, &n)| n > 0).collect();
    sorted.sort_by_key(|(k, _)| **k);
    for ((rank, src, tag), n) in sorted {
        findings.push(format!(
            "dropped request: rank {rank} posted {n} irecv(src={src}, \
             tag={tag}) that were never completed with wait"
        ));
    }
    let outstanding = shared.ireduce_outstanding.lock().expect("ireduce lock");
    for (rank, &n) in outstanding.iter().enumerate() {
        if n > 0 {
            findings.push(format!(
                "dropped reduction: rank {rank} began {n} iall_reduce that \
                 were never completed with reduce_finish"
            ));
        }
    }
    let counts = shared.coll_counts.lock().expect("counts lock");
    let min = counts.iter().min().copied().unwrap_or(0);
    let max = counts.iter().max().copied().unwrap_or(0);
    if min != max {
        findings.push(format!(
            "collective count mismatch: ranks completed between {min} and \
             {max} collective calls"
        ));
    }
    findings.extend(
        shared
            .violations
            .lock()
            .expect("violations lock")
            .iter()
            .cloned(),
    );
    findings
}

//! Single-rank communicator (`MPI_COMM_SELF`).

use accel::{Event, Recorder, Scalar};
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use crate::types::{CommStats, Communicator, ReduceOp, StatsCell, Tag};

/// The trivial world of one rank.
///
/// Used for the paper's single-process experiments (the 64³ mesh of
/// Figs. 4 and 7). Loopback messaging is supported so code that sends to
/// itself (periodic 1-rank decompositions, tests) still works; collectives
/// are identities.
#[derive(Clone)]
pub struct SelfComm<T> {
    loopback: Arc<Mutex<HashMap<Tag, VecDeque<Vec<T>>>>>,
    stats: Arc<StatsCell>,
    recorder: Recorder,
}

impl<T: Scalar> SelfComm<T> {
    /// Create a single-rank communicator reporting to `recorder`.
    pub fn new(recorder: Recorder) -> Self {
        Self {
            loopback: Arc::new(Mutex::new(HashMap::new())),
            stats: Arc::new(StatsCell::default()),
            recorder,
        }
    }
}

impl<T: Scalar> Default for SelfComm<T> {
    fn default() -> Self {
        Self::new(Recorder::disabled())
    }
}

impl<T: Scalar> Communicator<T> for SelfComm<T> {
    fn rank(&self) -> usize {
        0
    }

    fn size(&self) -> usize {
        1
    }

    fn send(&self, dest: usize, tag: Tag, data: Vec<T>) {
        assert_eq!(dest, 0, "SelfComm only has rank 0");
        self.stats
            .msgs_sent
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.stats.bytes_sent.fetch_add(
            (data.len() * T::BYTES) as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        self.loopback.lock().entry(tag).or_default().push_back(data);
    }

    fn recv(&self, src: usize, tag: Tag) -> Vec<T> {
        assert_eq!(src, 0, "SelfComm only has rank 0");
        self.loopback
            .lock()
            .get_mut(&tag)
            .and_then(VecDeque::pop_front)
            .expect("SelfComm recv with no matching loopback message (would deadlock)")
    }

    fn all_reduce(&self, vals: &mut [T], _op: ReduceOp) {
        self.stats
            .allreduces
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.recorder.record(Event::AllReduce {
            elems: vals.len() as u32,
            bytes: (vals.len() * T::BYTES) as u64,
        });
    }

    fn barrier(&self) {}

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

    #[test]
    fn identity_collectives() {
        let c = SelfComm::<f64>::default();
        let mut v = [1.0, 2.0];
        c.all_reduce(&mut v, ReduceOp::Sum);
        assert_eq!(v, [1.0, 2.0]);
        c.barrier();
        assert_eq!(c.rank(), 0);
        assert_eq!(c.size(), 1);
    }

    #[test]
    fn loopback_messages_fifo_per_tag() {
        let c = SelfComm::<f64>::default();
        c.send(0, 7, vec![1.0]);
        c.send(0, 7, vec![2.0]);
        c.send(0, 9, vec![3.0]);
        assert_eq!(c.recv(0, 9), vec![3.0]);
        assert_eq!(c.recv(0, 7), vec![1.0]);
        assert_eq!(c.recv(0, 7), vec![2.0]);
    }

    #[test]
    fn stats_count_traffic() {
        let c = SelfComm::<f64>::default();
        c.send(0, 1, vec![0.0; 10]);
        let _ = c.recv(0, 1);
        let mut v = [0.0];
        c.all_reduce(&mut v, ReduceOp::Sum);
        let s = c.stats();
        assert_eq!(s.msgs_sent, 1);
        assert_eq!(s.bytes_sent, 80);
        assert_eq!(s.allreduces, 1);
    }

    #[test]
    #[should_panic(expected = "no matching loopback")]
    fn recv_without_send_panics() {
        let c = SelfComm::<f64>::default();
        let _ = c.recv(0, 1);
    }

    /// Single-rank split-phase reductions resolve at begin time with
    /// identity values, and still count as collectives in the stats.
    #[test]
    fn iall_reduce_is_identity_resolved_at_begin() {
        let c = SelfComm::<f64>::default();
        let req = c.iall_reduce(&[3.0, 4.0], ReduceOp::Sum);
        assert_eq!(req.len, 2);
        let mut out = [0.0; 2];
        c.reduce_finish(req, &mut out);
        assert_eq!(out, [3.0, 4.0]);
        assert_eq!(c.stats().allreduces, 1);
    }
}

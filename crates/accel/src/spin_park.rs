//! One spin-then-park waiter for every blocking wait of the thread team
//! (`pool`: a worker waiting for the next epoch, the launcher for the
//! acknowledgements) and of `comm::ThreadComm` (a mailbox receive, the
//! collective engine's entry gate and finish). [`SpinPark`] owns the whole
//! protocol:
//!
//! * a **sequence** the waker bumps after it changes the waited-on state;
//!   a waiter re-tests the state (taking whatever lock guards it) only when
//!   the sequence has moved;
//! * the **spin budget**: [`SPIN_YIELDS`] `yield_now`s per wait;
//! * the **parked count**; and
//! * **wake only if parked**: the waker takes the park lock to notify only
//!   when a waiter is parked, so a wake-up nobody waits for costs two
//!   atomics.

use std::sync::atomic::{AtomicUsize, Ordering};

use parking_lot::{Condvar, Mutex};

/// Yields a waiter makes before it parks. Long enough that the gap
/// between two launches of one solve, the imbalance between two halves
/// of a sweep, or a peer rank's last kernel before its send passes without
/// a futex round trip; short enough that an idle waiter is asleep within
/// about half a millisecond (2048 yields take 0.46–0.51 ms on an idle core
/// of a 2-vCPU x86-64 VM). On that host, 256 yields left a third of the
/// 2-thread Bi-CGSTAB gain on the table and 8192 added nothing measurable.
/// `ThreadComm` waits share it: on the 2-rank Bi-CGSTAB stream a budget of
/// 256 matched 2048 on solve time and 0 gave up the whole gain. A yield hands the core to any other runnable thread, so an
/// oversubscribed host (eight ranks on two cores) loses little to the spin.
pub const SPIN_YIELDS: u32 = 2048;

/// A spin-then-park waiter: wakers call [`SpinPark::wake`] after changing
/// the state that waiters probe in [`SpinPark::wait`].
#[derive(Default)]
pub struct SpinPark {
    /// Bumped (`SeqCst`, so also `Release`) by every [`SpinPark::wake`].
    seq: AtomicUsize,
    /// Waiters parked on `cvar`. Incremented under `lock`, then `seq` is
    /// re-checked; the waker bumps `seq` then reads this — both `SeqCst`,
    /// so one of the two sees the other and no wake-up is lost.
    parked: AtomicUsize,
    lock: Mutex<()>,
    cvar: Condvar,
}

impl SpinPark {
    /// How many times [`SpinPark::wake`] has run (`Acquire`: a waker's
    /// writes before its bump are visible to a reader that sees it).
    pub fn seq(&self) -> usize {
        self.seq.load(Ordering::Acquire)
    }

    /// Waiters parked right now.
    pub fn parked(&self) -> usize {
        self.parked.load(Ordering::SeqCst)
    }

    /// Announce a change of the waited-on state: bump the sequence, and
    /// wake every parked waiter if there is one. Call it after the change
    /// is published — released by an atomic store, or made under the lock
    /// the waiters' probe takes.
    pub fn wake(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _lock = self.lock.lock();
            self.cvar.notify_all();
        }
    }

    /// Block until `probe` returns `Some`, and return its value. `probe`
    /// runs at once and again each time the sequence moves; in
    /// between the waiter yields, [`SPIN_YIELDS`] times per wait in all,
    /// and then parks until the next wake.
    pub fn wait<R>(&self, mut probe: impl FnMut() -> Option<R>) -> R {
        let mut spins = SPIN_YIELDS;
        loop {
            // Read before the probe: a change the probe misses is announced
            // by a bump after this load.
            let seen = self.seq();
            if let Some(ready) = probe() {
                return ready;
            }
            self.await_move(seen, &mut spins);
        }
    }

    /// Yield until the sequence moves past `seen`, spending `spins`; park
    /// once they are spent. One out-of-line copy serves every probe.
    #[inline(never)]
    fn await_move(&self, seen: usize, spins: &mut u32) {
        while self.seq() == seen {
            if *spins == 0 {
                return self.park(seen);
            }
            *spins -= 1;
            std::thread::yield_now();
        }
    }

    /// Sleep until the sequence has moved past `seen`.
    fn park(&self, seen: usize) {
        let mut lock = self.lock.lock();
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.seq.load(Ordering::SeqCst) == seen {
            self.cvar.wait(&mut lock);
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{mpsc, Arc};
    use std::time::Duration;

    #[test]
    fn spin_park_ping_pong_takes_both_exits_and_loses_no_wake_up() {
        // Two players hand a ball back and forth. Most hand-offs land
        // within microseconds, inside the receiver's spin budget; every
        // `HOLD`-th round the passer holds the ball until its peer has
        // spent the budget and parked, so the park exit runs too. A lost
        // wake-up stalls a hand-off and fails the watchdog, not the suite.
        const ROUNDS: usize = 3000;
        const HOLD: usize = 100;
        let shared = Arc::new((
            AtomicUsize::new(0),
            [SpinPark::default(), SpinPark::default()],
        ));
        let (tx, rx) = mpsc::channel();
        let players: Vec<_> = (0..2)
            .map(|me| {
                let (shared, tx) = (Arc::clone(&shared), tx.clone());
                std::thread::spawn(move || {
                    let (ball, parks) = &*shared;
                    for round in 0..ROUNDS {
                        let mine = 2 * round + me;
                        parks[me].wait(|| (ball.load(Ordering::Acquire) == mine).then_some(()));
                        // The peer waits for this pass unless it has played
                        // its last round.
                        if round % HOLD == HOLD / 2 && mine + 1 < 2 * ROUNDS {
                            while parks[1 - me].parked() == 0 {
                                std::thread::yield_now();
                            }
                        }
                        ball.store(mine + 1, Ordering::Release);
                        parks[1 - me].wake();
                        tx.send(()).expect("watchdog is listening");
                    }
                })
            })
            .collect();
        for pass in 0..2 * ROUNDS {
            rx.recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("hand-off {pass} stalled: a wake-up was lost"));
        }
        for p in players {
            p.join().expect("player");
        }
        assert!(shared.1.iter().all(|p| p.parked() == 0));
    }
}

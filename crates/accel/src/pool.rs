//! A persistent thread team for the threaded CPU back-end.
//!
//! alpaka's OpenMP-blocks back-end keeps a warm thread team across kernel
//! launches, and so does this pool: `ThreadPool::new(n)` makes a team of
//! `n` participants — the thread that launches is participant 0, and
//! `n − 1` workers live as long as the pool. A launch ([`ThreadPool::run_chunks`])
//! costs what it computes, not an OS fork-join:
//!
//! * **One job slot, published by an epoch counter.** The launcher writes
//!   the closure and chunk count into the slot and bumps the epoch; no
//!   queue node, latch or `Arc` is allocated per launch.
//! * **Static chunk ownership.** Chunk `c` always runs on participant
//!   `c % n`, so every launch over the same rows hands each thread the rows
//!   it swept last time.
//! * **One countdown.** Every worker acknowledges every epoch, chunk or
//!   not, so no worker can still be reading the slot when the next launch
//!   overwrites it.
//! * **Spin, then park.** A waiting side — a worker between launches, the
//!   launcher after its own chunks — waits on a [`SpinPark`]: it yields
//!   before it parks, and the other side takes a lock to wake it only when
//!   it is parked.
//! * **Panics propagate.** A chunk that panics is caught on its thread; the
//!   epoch is still acknowledged, the launcher re-raises the first payload
//!   once every participant is done, and the team serves the next launch.
//! * **Concurrent launchers** (clones of one `Threads` device handed to
//!   several rank threads) take turns on a submit lock.
//!
//! `run_chunks` returns only after every participant has acknowledged the
//! epoch, which is what makes lending a borrowed closure to the workers
//! sound.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;

use crate::spin_park::SpinPark;

/// The work of one epoch.
#[derive(Clone, Copy)]
struct Job {
    /// Type-erased `&(dyn Fn(usize) + Sync)` with its lifetime erased;
    /// `None` tells the workers to exit.
    ///
    /// Validity: `run_chunks` keeps the referent alive and does not return
    /// until every worker has acknowledged the epoch that carries it.
    func: Option<*const (dyn Fn(usize) + Sync)>,
    chunks: usize,
}

/// State the launcher and the workers share.
struct Team {
    participants: usize,
    /// Written only by a launcher holding the submit lock while no worker
    /// is between observing an epoch and acknowledging it; read by workers
    /// only in that window.
    job: UnsafeCell<Job>,
    /// Workers wait here for the next epoch, which is its sequence: the
    /// launcher wakes it after `job` and `pending` are written, and
    /// workers read the sequence with `Acquire`.
    work: SpinPark,
    /// Workers yet to acknowledge the current epoch. Each worker's
    /// decrement releases its chunk writes; the launcher's `Acquire` load
    /// of zero sees all of them (the decrements form one release sequence).
    pending: AtomicUsize,
    /// The launcher waits here for `pending` to reach zero; the last
    /// worker to acknowledge wakes it.
    done: SpinPark,
    /// First panic payload of the current launch.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

// SAFETY: every field but `job` is a sync primitive. `job` holds a raw
// pointer to a `Sync` closure (sharing it across threads is sound) and is
// only accessed under the discipline documented on the field: the single
// writer (submit lock) and the readers are separated by the epoch's
// Release/Acquire publication (`work`) and the `pending` countdown.
unsafe impl Sync for Team {}
// SAFETY: as above; nothing in `Team` is tied to the thread that made it.
unsafe impl Send for Team {}

impl Team {
    /// Run every chunk participant `me` owns, catching a panic so the
    /// caller can still acknowledge the epoch.
    fn run_owned(&self, me: usize, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let n = self.participants;
        let owned = panic::catch_unwind(AssertUnwindSafe(|| {
            for c in (me..chunks).step_by(n) {
                f(c);
            }
        }));
        if let Err(payload) = owned {
            self.panic.lock().get_or_insert(payload);
        }
    }

    /// Publish a job: write the slot, arm the countdown, and start the
    /// next epoch.
    ///
    /// # Safety
    /// No worker may be between observing an epoch and acknowledging it,
    /// and no other thread may publish concurrently.
    unsafe fn publish(&self, job: Job) {
        // SAFETY: the caller guarantees no reader and no other writer.
        unsafe { *self.job.get() = job };
        self.pending.store(self.participants - 1, Ordering::Relaxed);
        self.work.wake();
    }

    /// Worker side: wait for an epoch other than `seen` and return it.
    fn next_epoch(&self, seen: usize) -> usize {
        self.work
            .wait(|| Some(self.work.seq()).filter(|&epoch| epoch != seen))
    }

    /// Worker side: this worker is done with the current epoch.
    fn acknowledge(&self) {
        if self.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.done.wake();
        }
    }

    /// Launcher side: wait until every worker acknowledged the epoch.
    fn wait_acknowledged(&self) {
        self.done
            .wait(|| (self.pending.load(Ordering::Acquire) == 0).then_some(()));
    }

    /// Body of worker participant `me` (1-based among the participants).
    fn serve(&self, me: usize) {
        let mut seen = 0;
        loop {
            seen = self.next_epoch(seen);
            // SAFETY: the launcher wrote the slot before bumping the epoch
            // (Acquire in `next_epoch`) and writes it again only after this
            // worker acknowledges.
            let job = unsafe { *self.job.get() };
            let Some(func) = job.func else { return };
            // SAFETY: see `Job::func` — the referent outlives this epoch.
            let f = unsafe { &*func };
            self.run_owned(me, job.chunks, f);
            self.acknowledge();
        }
    }
}

/// A persistent team of `size` participants: the launching thread and
/// `size − 1` workers.
pub struct ThreadPool {
    team: Arc<Team>,
    /// Serialises launchers: the job slot holds one job at a time.
    submit: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ThreadPool {
    /// Make a team of `size >= 1` participants (spawns `size − 1` workers).
    pub fn new(size: usize) -> Self {
        assert!(size >= 1, "thread pool needs at least one participant");
        let team = Arc::new(Team {
            participants: size,
            job: UnsafeCell::new(Job {
                func: None,
                chunks: 0,
            }),
            work: SpinPark::default(),
            pending: AtomicUsize::new(0),
            done: SpinPark::default(),
            panic: Mutex::new(None),
        });
        let workers = (1..size)
            .map(|me| {
                let team = Arc::clone(&team);
                std::thread::Builder::new()
                    .name(format!("accel-worker-{me}"))
                    .spawn(move || team.serve(me))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Self {
            team,
            submit: Mutex::new(()),
            workers,
        }
    }

    /// Number of participants (workers plus the launching thread).
    pub fn size(&self) -> usize {
        self.team.participants
    }

    /// Execute `f(0), f(1), .., f(chunks - 1)` — chunk `c` on participant
    /// `c % size`, the calling thread being participant 0 — and block until
    /// all calls have returned. If a chunk panics, the first payload is
    /// re-raised here after every participant is done.
    pub fn run_chunks(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        let team = &*self.team;
        if chunks <= 1 || team.participants == 1 {
            (0..chunks).for_each(f);
            return;
        }
        let _turn = self.submit.lock();
        // Erase the closure lifetime; soundness argument on `Job::func`.
        // SAFETY: same fat-pointer layout; the referent outlives every use
        // because this function waits for every acknowledgement below,
        // panicking chunks included, before it returns or unwinds.
        let func = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f)
        };
        // SAFETY: the submit lock excludes other launchers, and the previous
        // launch returned only after every worker acknowledged its epoch.
        unsafe {
            team.publish(Job {
                func: Some(func),
                chunks,
            })
        };
        team.run_owned(0, chunks, f);
        team.wait_acknowledged();
        let raised = team.panic.lock().take();
        if let Some(payload) = raised {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // SAFETY: `&mut self` means no launch is in flight, so every worker
        // acknowledged the last epoch and is waiting for the next.
        unsafe {
            self.team.publish(Job {
                func: None,
                chunks: 0,
            })
        };
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn executes_every_chunk_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        pool.run_chunks(64, &|c| {
            hits[c].fetch_add(1, Ordering::Relaxed);
        });
        for (c, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::Relaxed), 1, "chunk {c}");
        }
    }

    #[test]
    fn chunk_runs_on_its_static_owner() {
        // More chunks than participants: each chunk runs once, on
        // participant `c % n`, the same thread in every launch.
        let n = 3;
        let pool = ThreadPool::new(n);
        let runs: Vec<Mutex<Vec<std::thread::ThreadId>>> =
            (0..10).map(|_| Mutex::new(Vec::new())).collect();
        for _ in 0..3 {
            pool.run_chunks(10, &|c| runs[c].lock().push(std::thread::current().id()));
        }
        let runs: Vec<Vec<_>> = runs.into_iter().map(Mutex::into_inner).collect();
        // Participant p's thread is the one that ran chunk p.
        assert_eq!(runs[0][0], std::thread::current().id());
        for p in 0..n {
            for q in 0..p {
                assert_ne!(runs[p][0], runs[q][0], "participants {p} and {q}");
            }
        }
        for (c, r) in runs.iter().enumerate() {
            assert_eq!(r.len(), 3, "chunk {c} must run once per launch");
            assert!(
                r.iter().all(|&t| t == runs[c % n][0]),
                "chunk {c} left its owner"
            );
        }
    }

    #[test]
    fn zero_and_one_chunk_fast_paths() {
        let pool = ThreadPool::new(2);
        pool.run_chunks(0, &|_| panic!("must not run"));
        let ran = AtomicU64::new(0);
        pool.run_chunks(1, &|c| {
            assert_eq!(c, 0);
            ran.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn one_participant_pool_runs_everything_inline() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.size(), 1);
        assert!(pool.workers.is_empty());
        let caller = std::thread::current().id();
        let total = AtomicU64::new(0);
        pool.run_chunks(5, &|c| {
            assert_eq!(std::thread::current().id(), caller);
            total.fetch_add(c as u64, Ordering::Relaxed);
        });
        assert_eq!(total.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn reusable_across_many_launches() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run_chunks(7, &|c| {
                total.fetch_add(c as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 100 * (0..7).sum::<u64>());
    }

    #[test]
    fn concurrent_launchers_share_one_pool() {
        // Four threads, one pool, 200 launches each: the submit lock takes
        // them in turn and every launch sees its own closure and data.
        let pool = Arc::new(ThreadPool::new(2));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = Arc::clone(&pool);
                s.spawn(move || {
                    for i in 0..200u64 {
                        let parts = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
                        pool.run_chunks(3, &|c| {
                            parts[c].store(t * 1000 + i * 3 + c as u64, Ordering::Relaxed);
                        });
                        for (c, p) in parts.iter().enumerate() {
                            assert_eq!(p.load(Ordering::Relaxed), t * 1000 + i * 3 + c as u64);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn borrowed_data_is_visible_and_mutations_survive() {
        let pool = ThreadPool::new(4);
        let input = vec![1u64; 1000];
        let partial: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.run_chunks(8, &|c| {
            let r = crate::index::chunk_range(input.len(), 8, c);
            let s: u64 = input[r].iter().sum();
            partial[c].store(s, Ordering::Relaxed);
        });
        let sum: u64 = partial.iter().map(|p| p.load(Ordering::Relaxed)).sum();
        assert_eq!(sum, 1000);
    }

    #[test]
    fn panicking_chunk_propagates_and_pool_survives() {
        // The launch runs on a helper thread so a launch that never returns
        // fails the test at the watchdog instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let pool = ThreadPool::new(2);
            let raised = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run_chunks(2, &|c| {
                    if c == 1 {
                        panic!("chunk 1 fails");
                    }
                })
            }));
            let message = raised
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let ran = AtomicU64::new(0);
            pool.run_chunks(2, &|_| {
                ran.fetch_add(1, Ordering::Relaxed);
            });
            tx.send((message, ran.load(Ordering::Relaxed)))
                .expect("watchdog is listening");
        });
        let (message, ran) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a launch with a panicking chunk never returned");
        helper.join().expect("helper thread");
        assert_eq!(message.as_deref(), Some("chunk 1 fails"));
        assert_eq!(ran, 2, "the pool must serve the launch after a panic");
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ThreadPool::new(2);
        drop(pool); // must not hang or panic
    }

    #[test]
    fn drop_wakes_parked_workers() {
        let pool = ThreadPool::new(3);
        pool.run_chunks(3, &|_| {});
        // Wait until both workers have given up spinning and parked.
        while pool.team.work.parked() < 2 {
            std::thread::yield_now();
        }
        drop(pool);
    }
}

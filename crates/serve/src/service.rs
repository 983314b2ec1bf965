//! The multi-tenant solve service: admission, workers, session cache.
//!
//! Submitting returns an awaitable [`JobHandle`]; a fixed worker pool
//! drains the priority queue, leasing a device per job and reusing warm
//! sessions when a compatible one is cached. Panics are isolated per
//! job: the offending session is quarantined and the service keeps
//! serving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use accel::{AnyDevice, DeviceLease, DevicePool, Recorder};
use blockgrid::Decomp;
use check::{try_run_ranks_checked, CheckConfig, Checked};
use comm::ReduceOrder;
use krylov::{CancelToken, SolveOutcome, SolveParams};
use poisson::{LaneRhs, PoissonSolver};

use crate::job::{JobError, JobHandle, JobMetrics, JobOutput, JobResult, JobShared, SubmitError};
use crate::metrics::{ServiceStats, StatsInner};
use crate::request::SolveRequest;
use crate::scheduler::Scheduler;
use crate::session::{panic_message, primary_panic, scatter, Session, SessionKey};
use crate::sync;

/// Why [`SolveService::try_start`] refused to bring the service up — a
/// deployment misconfiguration, never a per-job failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StartError {
    /// `workers` was zero: nothing would ever drain the queue.
    NoWorkers,
    /// `queue_capacity` was zero: nothing could ever be admitted.
    NoQueue,
    /// A device spec failed to parse or construct.
    InvalidDevice {
        /// The offending spec string.
        spec: String,
        /// Why the device could not be built from it.
        reason: String,
    },
    /// The OS refused to spawn a worker thread.
    Spawn(String),
}

impl std::fmt::Display for StartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoWorkers => write!(f, "service needs at least one worker"),
            Self::NoQueue => write!(f, "service needs a non-empty queue"),
            Self::InvalidDevice { spec, reason } => {
                write!(f, "invalid device spec {spec:?}: {reason}")
            }
            Self::Spawn(e) => write!(f, "failed to spawn worker thread: {e}"),
        }
    }
}

impl std::error::Error for StartError {}

/// Static configuration of a [`SolveService`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads draining the queue concurrently.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected with
    /// [`SubmitError::Overloaded`]. Admission is class-aware: Normal
    /// and Low each forfeit a `capacity / 8` reserve tranche, so a
    /// flood of low-priority work cannot fill the queue and push
    /// high-priority submissions into `Overloaded`.
    pub queue_capacity: usize,
    /// Device specs backing the lease pool (one lease per entry, e.g.
    /// `"serial"`, `"threads:4"`, `"simgpu"`). Empty means one
    /// `"serial"` device per worker.
    pub devices: Vec<String>,
    /// Warm sessions kept alive across jobs; `0` disables reuse (every
    /// job builds cold).
    pub session_capacity: usize,
    /// Most lanes one worker may coalesce into a single batched
    /// multi-RHS solve. After popping a job, the worker pulls up to
    /// `batch_window - 1` still-queued jobs with the same session
    /// fingerprint (identical `SessionKey` plus solve envelope) into
    /// the same solve, amortising stencil sweeps, halo exchanges and
    /// allreduce latency across all of them; each lane keeps its own
    /// cancel token, deadline and metrics, and its result is
    /// bitwise-identical to a solo run. `0` or `1` disables coalescing.
    /// Riding lanes never displace higher classes from the worker
    /// itself — the queue still pops strictly by class.
    pub batch_window: usize,
    /// Reduction order for multi-rank worlds spawned by the service.
    pub order: ReduceOrder,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            devices: Vec::new(),
            session_capacity: 8,
            batch_window: 1,
            order: ReduceOrder::RankOrder,
        }
    }
}

/// LRU-ish warm-session cache: checkout removes, checkin appends and
/// evicts the oldest entry past capacity.
struct SessionCache {
    entries: Mutex<Vec<(SessionKey, Session)>>,
    capacity: usize,
}

impl SessionCache {
    fn new(capacity: usize) -> Self {
        Self {
            entries: Mutex::new(Vec::new()),
            capacity,
        }
    }

    fn checkout(&self, key: &SessionKey) -> Option<Session> {
        let mut entries = sync::lock(&self.entries);
        let pos = entries.iter().position(|(k, _)| k == key)?;
        Some(entries.remove(pos).1)
    }

    /// Return a healthy session; reports whether an old session was
    /// evicted to make room. With capacity `0` the session is simply
    /// dropped (reuse disabled).
    fn checkin(&self, key: SessionKey, session: Session) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let mut entries = sync::lock(&self.entries);
        entries.push((key, session));
        if entries.len() > self.capacity {
            entries.remove(0);
            true
        } else {
            false
        }
    }

    fn len(&self) -> usize {
        sync::lock(&self.entries).len()
    }
}

struct ServiceInner {
    queue: Scheduler,
    cache: SessionCache,
    pool: DevicePool<AnyDevice>,
    specs: Vec<String>,
    stats: StatsInner,
    order: ReduceOrder,
    batch_window: usize,
    next_id: AtomicU64,
}

/// An in-process solve service. Construct with
/// [`SolveService::start`], submit with [`SolveService::submit`],
/// observe with [`SolveService::stats`]. Dropping the service (or
/// calling [`SolveService::shutdown`]) closes admission, sheds
/// everything still queued and joins the workers.
pub struct SolveService {
    inner: Arc<ServiceInner>,
    workers: Vec<JoinHandle<()>>,
}

impl SolveService {
    /// Start the worker pool.
    ///
    /// Panics on an invalid device spec or a zero-sized pool — a
    /// service that cannot run anything is a deployment error, not a
    /// per-job failure. [`SolveService::try_start`] is the
    /// non-panicking form for callers that surface deployment errors
    /// themselves.
    pub fn start(cfg: ServiceConfig) -> Self {
        // LINT: panic-ok(documented panicking facade over try_start; a
        // service that cannot start is a deployment error)
        Self::try_start(cfg).unwrap_or_else(|e| panic!("cannot start solve service: {e}"))
    }

    /// Start the worker pool, reporting a deployment error instead of
    /// panicking.
    pub fn try_start(cfg: ServiceConfig) -> Result<Self, StartError> {
        if cfg.workers < 1 {
            return Err(StartError::NoWorkers);
        }
        if cfg.queue_capacity < 1 {
            return Err(StartError::NoQueue);
        }
        let specs = if cfg.devices.is_empty() {
            vec!["serial".to_string(); cfg.workers]
        } else {
            cfg.devices.clone()
        };
        let mut devices = Vec::with_capacity(specs.len());
        for spec in &specs {
            match AnyDevice::from_spec(spec, Recorder::disabled()) {
                Ok(dev) => devices.push(dev),
                Err(e) => {
                    return Err(StartError::InvalidDevice {
                        spec: spec.clone(),
                        reason: e.to_string(),
                    })
                }
            }
        }
        let inner = Arc::new(ServiceInner {
            queue: Scheduler::new(cfg.queue_capacity),
            cache: SessionCache::new(cfg.session_capacity),
            pool: DevicePool::new(devices),
            specs,
            stats: StatsInner::default(),
            order: cfg.order,
            batch_window: cfg.batch_window.max(1),
            next_id: AtomicU64::new(0),
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        for i in 0..cfg.workers {
            let worker_inner = inner.clone();
            match std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&worker_inner))
            {
                Ok(handle) => workers.push(handle),
                Err(e) => {
                    // Unwind the partial pool: close the queue so the
                    // already-spawned workers exit, then join them.
                    inner.queue.close();
                    for handle in workers {
                        let _ = handle.join();
                    }
                    return Err(StartError::Spawn(e.to_string()));
                }
            }
        }
        Ok(Self { inner, workers })
    }

    /// Submit one request. Never blocks: a full queue answers
    /// `Err(Overloaded)` immediately (admission control), leaving the
    /// caller to shed or retry.
    pub fn submit(&self, request: SolveRequest) -> Result<JobHandle, SubmitError> {
        let id = self.inner.next_id.fetch_add(1, Ordering::SeqCst) + 1;
        let job = Arc::new(JobShared::new(id, request));
        match self.inner.queue.push(job.clone()) {
            Ok(()) => {
                self.inner.stats.bump(&self.inner.stats.submitted);
                Ok(JobHandle { shared: job })
            }
            Err(e) => {
                self.inner.stats.bump(&self.inner.stats.rejected);
                Err(e)
            }
        }
    }

    /// Point-in-time counter snapshot.
    pub fn stats(&self) -> ServiceStats {
        let s = &self.inner.stats;
        let load = |c: &AtomicU64| c.load(Ordering::SeqCst);
        ServiceStats {
            submitted: load(&s.submitted),
            rejected: load(&s.rejected),
            completed: load(&s.completed),
            failed: load(&s.failed),
            shed: load(&s.shed),
            cancelled: load(&s.cancelled),
            panicked: load(&s.panicked),
            quarantined: load(&s.quarantined),
            warm_hits: load(&s.warm_hits),
            cold_builds: load(&s.cold_builds),
            evicted: load(&s.evicted),
            queued: self.inner.queue.len(),
            cached_sessions: self.inner.cache.len(),
        }
    }

    /// Close admission, shed every queued job, finish in-flight work
    /// and join the workers. Idempotent; also runs on drop.
    pub fn shutdown(mut self) -> ServiceStats {
        self.shutdown_impl();
        self.stats()
    }

    fn shutdown_impl(&mut self) {
        for job in self.inner.queue.close() {
            job.finish(JobResult::Shed);
            self.inner.stats.bump(&self.inner.stats.shed);
        }
        for handle in self.workers.drain(..) {
            // LINT: panic-ok(worker_loop catches every job panic; join
            // only fails on an analyzer-visible bug in the loop itself)
            handle.join().expect("workers never panic at top level");
        }
    }
}

impl Drop for SolveService {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

/// One member of a coalesced batch: the job, its claimed request, and
/// its queue wait measured when it left the queue.
struct Lane {
    job: Arc<JobShared>,
    request: SolveRequest,
    queue_wait: Duration,
}

fn worker_loop(inner: &ServiceInner) {
    while let Some(job) = inner.queue.pop() {
        let queue_wait = job.submitted.elapsed();
        let Some(request) = job.take_request() else {
            continue;
        };
        if job.cancel.is_cancelled() {
            inner.stats.bump(&inner.stats.cancelled);
            job.finish(JobResult::Cancelled);
            continue;
        }
        if job.deadline_expired(Instant::now()) {
            inner.stats.bump(&inner.stats.shed);
            job.finish(JobResult::Shed);
            continue;
        }
        job.set_running();
        let lease = inner.pool.acquire();
        // LINT: panic-ok(the pool is built with exactly one spec per slot)
        let spec = inner.specs[lease.slot()].clone();
        let results: Vec<(Arc<JobShared>, JobResult)> = if request.checked {
            let result = execute_checked(inner, &job, &request, &spec, queue_wait);
            vec![(job, result)]
        } else {
            // The key derivation discretises the problem, which panics on
            // singular input — isolate it like any other job panic.
            match catch_unwind(AssertUnwindSafe(|| {
                SessionKey::of(&request, &spec, lease.slot())
            })) {
                Ok(key) => {
                    let primary = Lane {
                        job,
                        request,
                        queue_wait,
                    };
                    let lanes = form_batch(inner, primary, &key, &spec, lease.slot());
                    let results = execute(inner, &lanes, key, &lease, &spec);
                    lanes
                        .into_iter()
                        .map(|lane| lane.job)
                        .zip(results)
                        .collect()
                }
                Err(payload) => {
                    inner.stats.bump(&inner.stats.panicked);
                    let msg = panic_message(payload);
                    vec![(job, JobResult::Failed(JobError::Panicked(msg)))]
                }
            }
        };
        // Return the slot before publishing the results: a submitter
        // reacting to a completion must find the device (and its
        // per-slot warm session) available again, not still leased.
        drop(lease);
        for (job, result) in results {
            match &result {
                JobResult::Done(_) => inner.stats.bump(&inner.stats.completed),
                JobResult::Failed(_) => inner.stats.bump(&inner.stats.failed),
                JobResult::Cancelled => inner.stats.bump(&inner.stats.cancelled),
                JobResult::Shed => inner.stats.bump(&inner.stats.shed),
            };
            job.finish(result);
        }
    }
}

/// Whether a still-queued job can ride `key`'s batched solve: same
/// session fingerprint (so the one constructed solver fits every lane)
/// plus the same solve envelope (`tol`, `max_iters` — the batched
/// driver runs one stopping rule for all lanes), and not a checked job
/// (the harness owns its world and always runs alone).
///
/// The key derivation discretises the candidate's problem, which panics
/// on singular input; a panicking candidate simply doesn't match and is
/// left queued to fail on its own solo pop.
fn lane_compatible(
    key: &SessionKey,
    primary: &SolveRequest,
    spec: &str,
    slot: usize,
    req: &SolveRequest,
) -> bool {
    !req.checked
        && req.tol.to_bits() == primary.tol.to_bits()
        && req.max_iters == primary.max_iters
        && catch_unwind(AssertUnwindSafe(|| SessionKey::of(req, spec, slot) == *key))
            .unwrap_or(false)
}

/// Coalesce still-queued jobs compatible with the popped `primary`
/// (whose session key is `key`) into one batch, bounded by the
/// configured window. Lanes are claimed in pop order; a claimed lane
/// whose cancel fired or deadline expired while queued is finished
/// right here (Cancelled/Shed) and never occupies a lane. Returns the
/// lanes, primary first — only the primary when batching is off.
fn form_batch(
    inner: &ServiceInner,
    primary: Lane,
    key: &SessionKey,
    spec: &str,
    slot: usize,
) -> Vec<Lane> {
    if inner.batch_window <= 1 {
        return vec![primary];
    }
    let mates = inner
        .queue
        .take_batchmates(inner.batch_window - 1, |candidate| {
            candidate
                .peek_request(|req| lane_compatible(key, &primary.request, spec, slot, req))
                .unwrap_or(false)
        });
    let mut lanes = vec![primary];
    let now = Instant::now();
    for mate in mates {
        let queue_wait = mate.submitted.elapsed();
        let Some(request) = mate.take_request() else {
            continue;
        };
        if mate.cancel.is_cancelled() {
            inner.stats.bump(&inner.stats.cancelled);
            mate.finish(JobResult::Cancelled);
            continue;
        }
        if mate.deadline_expired(now) {
            inner.stats.bump(&inner.stats.shed);
            mate.finish(JobResult::Shed);
            continue;
        }
        mate.set_running();
        lanes.push(Lane {
            job: mate,
            request,
            queue_wait,
        });
    }
    lanes
}

/// Execute a formed batch — a solo job is a one-lane batch — as one
/// multi-RHS solve on the leased device, returning one terminal result
/// per lane (in lane order). One warm checkout or one cold build serves
/// every lane; a panic anywhere condemns the whole batch and quarantines
/// the session (nothing of a stillborn one ever reaches the cache).
fn execute(
    inner: &ServiceInner,
    lanes: &[Lane],
    key: SessionKey,
    lease: &DeviceLease<AnyDevice>,
    spec: &str,
) -> Vec<JobResult> {
    // A panic condemns every lane; the session is dropped instead of
    // checked in: one tenant's panic quarantines the shared world.
    let condemn = |msg: String| -> Vec<JobResult> {
        inner.stats.bump(&inner.stats.quarantined);
        let failed = |_| {
            inner.stats.bump(&inner.stats.panicked);
            JobResult::Failed(JobError::Panicked(msg.clone()))
        };
        lanes.iter().map(failed).collect()
    };
    let setup_start = Instant::now();
    let (mut session, warm) = match inner.cache.checkout(&key) {
        Some(session) => {
            inner.stats.bump(&inner.stats.warm_hits);
            (session, true)
        }
        // LINT: panic-ok(form_batch always returns the primary as lane 0)
        None => match Session::build(&key, &lanes[0].request, inner.order, lease) {
            Ok(session) => {
                inner.stats.bump(&inner.stats.cold_builds);
                (session, false)
            }
            Err(JobError::Panicked(msg)) => return condemn(msg),
            Err(e) => return lanes.iter().map(|_| JobResult::Failed(e.clone())).collect(),
        },
    };
    let setup = setup_start.elapsed();
    let reqs: Vec<&SolveRequest> = lanes.iter().map(|l| &l.request).collect();
    let cancels: Vec<Option<CancelToken>> =
        lanes.iter().map(|l| Some(l.job.cancel.clone())).collect();
    let solve_start = Instant::now();
    match session.run(&reqs, &cancels) {
        Ok(per_lane) => {
            let solve = solve_start.elapsed();
            if inner.cache.checkin(key, session) {
                inner.stats.bump(&inner.stats.evicted);
            }
            lanes
                .iter()
                .zip(per_lane)
                .map(|(lane, verdict)| match verdict {
                    Ok(outcome) if outcome.cancelled => JobResult::Cancelled,
                    Ok(outcome) => JobResult::Done(done(
                        inner,
                        outcome,
                        lane.queue_wait,
                        setup,
                        solve,
                        warm,
                        lanes.len(),
                        spec.to_string(),
                    )),
                    Err(e) => JobResult::Failed(JobError::Setup(e)),
                })
                .collect()
        }
        Err(msg) => condemn(msg),
    }
}

/// Run a checked job under the full correctness harness: sanitized
/// kernels and verified communicators, always cold (the harness owns
/// its world). Any finding fails the job.
fn execute_checked(
    inner: &ServiceInner,
    job: &JobShared,
    request: &SolveRequest,
    spec: &str,
    queue_wait: Duration,
) -> JobResult {
    let ranks = request.ranks();
    let config = CheckConfig {
        order: inner.order,
        ..CheckConfig::default()
    };
    let params = SolveParams {
        tol: request.tol,
        max_iters: request.max_iters,
        record_history: false,
        ..SolveParams::default()
    };
    let cancels = [Some(job.cancel.clone())];
    let setup_start = Instant::now();
    let ran = try_run_ranks_checked::<f64, _, _>(ranks, config, |comm| {
        let dev = Checked::new(
            AnyDevice::from_spec(spec, Recorder::disabled())
                // LINT: panic-ok(try_start built a device from this exact spec)
                .expect("device spec validated at service start"),
        );
        let decomp = Decomp::new(request.decomp);
        let mut solver = PoissonSolver::try_new(request.problem.clone(), decomp, dev, comm)?;
        let local = match &request.rhs {
            Some(global) => Some(scatter(solver.grid(), global)?),
            None => None,
        };
        let lane = local.as_deref().map_or(LaneRhs::Keep, LaneRhs::Load);
        let (kind, opts) = (request.kind, &request.opts);
        solver
            .solve_lanes(&[lane], kind, opts, &params, &cancels)
            .remove(0)
    });
    let solve = setup_start.elapsed();
    match ran {
        Ok(rank_results) => {
            let mut outcome = None;
            let mut setup_err = None;
            for r in rank_results {
                match r {
                    Ok(o) => outcome = outcome.or(Some(o)),
                    Err(e) => setup_err = Some(e),
                }
            }
            if let Some(e) = setup_err {
                return JobResult::Failed(JobError::Setup(e));
            }
            // LINT: panic-ok(ranks() is >= 1, and the error branch above
            // returned already, so at least one rank produced an outcome)
            let outcome = outcome.expect("checked world has at least one rank");
            if outcome.cancelled {
                JobResult::Cancelled
            } else {
                JobResult::Done(done(
                    inner,
                    outcome,
                    queue_wait,
                    Duration::ZERO,
                    solve,
                    false,
                    1,
                    spec.to_string(),
                ))
            }
        }
        Err(failure) => {
            if failure.panics.is_empty() {
                JobResult::Failed(JobError::Check(format!("{failure}")))
            } else {
                inner.stats.bump(&inner.stats.panicked);
                let msgs = failure.panics.into_iter().map(|(_, m)| m).collect();
                JobResult::Failed(JobError::Panicked(primary_panic(msgs)))
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn done(
    inner: &ServiceInner,
    outcome: SolveOutcome,
    queue_wait: Duration,
    setup: Duration,
    solve: Duration,
    warm: bool,
    batch_size: usize,
    device: String,
) -> JobOutput {
    let metrics = JobMetrics {
        queue_wait,
        setup,
        solve,
        iterations: outcome.iterations,
        warm,
        batch_size,
        device,
        completion_seq: inner.stats.bump(&inner.stats.completion_seq),
    };
    JobOutput { outcome, metrics }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Priority;
    use krylov::SolverKind;
    use poisson::unit_cube_dirichlet;
    use proptest::prelude::*;

    fn job_with(id: u64, n: usize, kind: SolverKind, tol: f64, class: usize) -> Arc<JobShared> {
        let mut req = SolveRequest::new(unit_cube_dirichlet(n), kind);
        req.tol = tol;
        req.priority = match class {
            0 => Priority::High,
            1 => Priority::Normal,
            _ => Priority::Low,
        };
        Arc::new(JobShared::new(id, req))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Batch formation never merges jobs with different session
        // fingerprints (different discretisation, solver kind, or solve
        // envelope), whatever mix is queued — and while window remains
        // it never strands a compatible job in the queue either.
        #[test]
        fn formation_coalesces_compatible_jobs_and_only_those(
            mix in prop::collection::vec((0usize..2, 0usize..2, 0usize..2, 0usize..3), 1..24),
            window in 1usize..6,
        ) {
            let q = Scheduler::new(256);
            for (i, &(nsel, ksel, tsel, class)) in mix.iter().enumerate() {
                let n = [5, 7][nsel];
                let kind = [SolverKind::BiCgs, SolverKind::BiCgsGCi][ksel];
                let tol = [1e-8, 1e-6][tsel];
                q.push(job_with(i as u64, n, kind, tol, class)).unwrap();
            }
            let primary = q.pop().expect("queue is non-empty");
            let preq = primary.take_request().expect("queued jobs hold their request");
            let key = SessionKey::of(&preq, "serial", 0);
            let taken = q.take_batchmates(window, |cand| {
                cand.peek_request(|r| lane_compatible(&key, &preq, "serial", 0, r))
                    .unwrap_or(false)
            });
            prop_assert!(taken.len() <= window);
            for mate in &taken {
                let same_fingerprint = mate
                    .peek_request(|r| {
                        SessionKey::of(r, "serial", 0) == key
                            && r.tol.to_bits() == preq.tol.to_bits()
                            && r.max_iters == preq.max_iters
                            && !r.checked
                    })
                    .expect("mates still hold their request until claimed");
                prop_assert!(same_fingerprint, "incompatible job {} was coalesced", mate.id);
            }
            if taken.len() < window {
                for leftover in q.close() {
                    let compatible = leftover
                        .peek_request(|r| lane_compatible(&key, &preq, "serial", 0, r))
                        .unwrap_or(false);
                    prop_assert!(!compatible, "compatible job {} was left queued", leftover.id);
                }
            }
        }
    }
}

//! End-to-end service tests: lifecycle, warm reuse, panic isolation,
//! scheduling semantics and the checked-mode harness.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use krylov::SolverKind;
use poisson::{paper_problem, unit_cube_dirichlet, PoissonProblem, SetupError};
use serve::{
    JobError, JobHandle, JobResult, JobStatus, Priority, ServiceConfig, SolveRequest, SolveService,
    SubmitError,
};

/// A request small and loose enough to finish in milliseconds.
fn quick(problem: PoissonProblem) -> SolveRequest {
    let mut req = SolveRequest::new(problem, SolverKind::BiCgs);
    req.tol = 1e-8;
    req.max_iters = 2_000;
    req
}

fn single_worker(session_capacity: usize) -> SolveService {
    SolveService::start(ServiceConfig {
        workers: 1,
        session_capacity,
        ..ServiceConfig::default()
    })
}

/// A problem whose RHS assembly blocks until `gate` opens — pins the
/// (single) worker deterministically so tests can fill the queue,
/// expire deadlines or cancel behind it.
fn gated_problem(gate: &Arc<AtomicBool>) -> PoissonProblem {
    let mut p = unit_cube_dirichlet(5);
    let gate = gate.clone();
    p.rhs = Arc::new(move |_, _, _| {
        while !gate.load(Ordering::SeqCst) {
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(1));
        }
        1.0
    });
    p.exact = None;
    p
}

/// A problem whose RHS assembly panics — the poison tenant.
fn poison_problem() -> PoissonProblem {
    let mut p = unit_cube_dirichlet(5);
    p.rhs = Arc::new(|_, _, _| panic!("tenant rhs exploded"));
    p.exact = None;
    p
}

/// Block until the worker has started executing `handle`'s job.
fn wait_until_running(handle: &JobHandle) {
    let start = Instant::now();
    while handle.status() != JobStatus::Running {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "job never started running"
        );
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_micros(100));
    }
}

#[test]
fn solves_a_simple_job_end_to_end() {
    let svc = single_worker(8);
    let handle = svc.submit(quick(unit_cube_dirichlet(9))).unwrap();
    let result = handle.wait();
    let output = result.output().expect("job should complete");
    assert!(output.outcome.converged);
    assert!(!output.metrics.warm);
    assert_eq!(output.metrics.device, "serial");
    let stats = svc.stats();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.cold_builds, 1);
    assert_eq!(stats.warm_hits, 0);
    assert_eq!(stats.cached_sessions, 1);
}

#[test]
fn warm_reuse_is_bitwise_identical_to_the_cold_solve() {
    let svc = single_worker(8);
    let req = quick(unit_cube_dirichlet(9));
    let cold = svc.submit(req.clone()).unwrap().wait();
    let warm = svc.submit(req).unwrap().wait();
    let cold = cold.output().expect("cold job completes");
    let warm = warm.output().expect("warm job completes");
    assert!(!cold.metrics.warm);
    assert!(
        warm.metrics.warm,
        "second identical request must hit the cache"
    );
    assert_eq!(cold.outcome.iterations, warm.outcome.iterations);
    assert_eq!(
        cold.outcome.final_residual.to_bits(),
        warm.outcome.final_residual.to_bits(),
        "warm solve must be bitwise-identical to the cold one"
    );
    let stats = svc.stats();
    assert_eq!(stats.cold_builds, 1);
    assert_eq!(stats.warm_hits, 1);
}

#[test]
fn warm_sessions_pin_their_rhs_closures_and_reassemble_for_new_tenants() {
    // Regression: RHS provenance must hold the closure Arcs themselves,
    // not their raw addresses. With bare addresses, the first tenant's
    // dropped allocations could be recycled for a later tenant's
    // closures, falsely matching the cached RHS and silently serving
    // the previous tenant's solution.
    let svc = single_worker(8);
    let req = quick(unit_cube_dirichlet(9));
    let rhs_weak = Arc::downgrade(&req.problem.rhs);
    assert!(svc.submit(req).unwrap().wait().output().is_some());
    // The request is long gone, but the cached session must keep the
    // closures it assembled its RHS from alive — that pin is what makes
    // pointer identity sound.
    assert!(
        rhs_weak.upgrade().is_some(),
        "cached session must pin the RHS closures it assembled from"
    );
    // A same-discretisation tenant with different closures must hit the
    // warm cache yet re-assemble: its solve must be bitwise-identical
    // to a cold solve of the same problem.
    let mut other = quick(unit_cube_dirichlet(9));
    other.problem.rhs = Arc::new(|x, y, z| 1.0 + x + 2.0 * y - z);
    other.problem.exact = None;
    let warm = svc.submit(other.clone()).unwrap().wait();
    let warm = warm.output().expect("warm job completes");
    assert!(warm.metrics.warm, "same discretisation must hit the cache");
    let cold_svc = single_worker(8);
    let cold = cold_svc.submit(other).unwrap().wait();
    let cold = cold.output().expect("cold job completes");
    assert_eq!(warm.outcome.iterations, cold.outcome.iterations);
    assert_eq!(
        warm.outcome.final_residual.to_bits(),
        cold.outcome.final_residual.to_bits(),
        "a new tenant's closures must be re-assembled, not kept"
    );
}

#[test]
fn a_panicking_job_is_quarantined_and_the_service_keeps_serving() {
    let svc = single_worker(8);
    let poisoned = svc.submit(quick(poison_problem())).unwrap().wait();
    match poisoned {
        JobResult::Failed(JobError::Panicked(msg)) => {
            assert!(
                msg.contains("tenant rhs exploded"),
                "panic payload must be preserved, got: {msg}"
            );
        }
        other => panic!("poison job should fail as Panicked, got {other:?}"),
    }
    // Every subsequent tenant is served normally.
    let good: Vec<_> = (0..5)
        .map(|_| svc.submit(quick(unit_cube_dirichlet(7))).unwrap())
        .collect();
    for handle in good {
        let result = handle.wait();
        assert!(
            result.output().is_some_and(|o| o.outcome.converged),
            "jobs after a quarantine must still succeed, got {result:?}"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.panicked, 1);
    assert_eq!(stats.quarantined, 1, "exactly one session quarantined");
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.completed, 5);
}

#[test]
fn eight_rank_checked_job_reports_zero_findings() {
    let svc = single_worker(0);
    let mut req = quick(paper_problem(13));
    req.decomp = [2, 2, 2];
    req.kind = SolverKind::BiCgsGNoCommCi;
    req.checked = true;
    let result = svc.submit(req).unwrap().wait();
    let output = result
        .output()
        .unwrap_or_else(|| panic!("checked 8-rank solve must be clean, got {result:?}"));
    assert!(output.outcome.converged);
    assert!(!output.metrics.warm, "checked jobs always run cold");
}

#[test]
fn full_queue_rejects_immediately_instead_of_blocking() {
    let gate = Arc::new(AtomicBool::new(false));
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        queue_capacity: 2,
        session_capacity: 0,
        ..ServiceConfig::default()
    });
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let q1 = svc.submit(quick(unit_cube_dirichlet(7))).unwrap();
    let q2 = svc.submit(quick(unit_cube_dirichlet(7))).unwrap();
    let start = Instant::now();
    let rejected = svc.submit(quick(unit_cube_dirichlet(7)));
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "admission must not block on a full queue"
    );
    assert!(matches!(rejected, Err(SubmitError::Overloaded)));
    assert_eq!(svc.stats().rejected, 1);
    gate.store(true, Ordering::SeqCst);
    assert!(blocker.wait().output().is_some());
    assert!(q1.wait().output().is_some());
    assert!(q2.wait().output().is_some());
}

#[test]
fn deadline_expired_jobs_are_shed_unstarted() {
    let gate = Arc::new(AtomicBool::new(false));
    let svc = single_worker(0);
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let mut stale = quick(unit_cube_dirichlet(7));
    stale.deadline = Some(Duration::from_millis(10));
    let stale = svc.submit(stale).unwrap();
    #[allow(clippy::disallowed_methods)]
    std::thread::sleep(Duration::from_millis(30));
    gate.store(true, Ordering::SeqCst);
    assert!(matches!(stale.wait(), JobResult::Shed));
    assert!(blocker.wait().output().is_some());
    let stats = svc.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn a_queued_job_can_be_cancelled() {
    let gate = Arc::new(AtomicBool::new(false));
    let svc = single_worker(0);
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let victim = svc.submit(quick(unit_cube_dirichlet(7))).unwrap();
    victim.cancel();
    gate.store(true, Ordering::SeqCst);
    assert!(matches!(victim.wait(), JobResult::Cancelled));
    assert!(blocker.wait().output().is_some());
    assert_eq!(svc.stats().cancelled, 1);
}

#[test]
fn a_running_job_is_cancelled_cooperatively() {
    let svc = single_worker(0);
    let mut req = quick(unit_cube_dirichlet(17));
    // Unreachable tolerance: without cancellation this would grind
    // through the full iteration budget.
    req.tol = 1e-300;
    req.max_iters = 50_000_000;
    let handle = svc.submit(req).unwrap();
    wait_until_running(&handle);
    handle.cancel();
    assert!(matches!(handle.wait(), JobResult::Cancelled));
    assert_eq!(svc.stats().cancelled, 1);
}

#[test]
fn priority_classes_drain_high_first_fifo_within_each() {
    let gate = Arc::new(AtomicBool::new(false));
    let svc = single_worker(8);
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let submit = |priority| {
        let mut req = quick(unit_cube_dirichlet(7));
        req.priority = priority;
        svc.submit(req).unwrap()
    };
    let low_1 = submit(Priority::Low);
    let normal_1 = submit(Priority::Normal);
    let high_1 = submit(Priority::High);
    let low_2 = submit(Priority::Low);
    let high_2 = submit(Priority::High);
    gate.store(true, Ordering::SeqCst);
    let seq = |h: &JobHandle| {
        h.wait()
            .output()
            .expect("queued jobs complete")
            .metrics
            .completion_seq
    };
    let (h1, h2, n1, l1, l2) = (
        seq(&high_1),
        seq(&high_2),
        seq(&normal_1),
        seq(&low_1),
        seq(&low_2),
    );
    assert!(blocker.wait().output().is_some());
    assert!(
        h1 < h2 && h2 < n1 && n1 < l1 && l1 < l2,
        "expected High(FIFO), Normal, Low(FIFO); got seqs {:?}",
        [h1, h2, n1, l1, l2]
    );
}

#[test]
fn a_zero_rhs_is_refused_cleanly_and_the_session_pool_stays_healthy() {
    let svc = single_worker(8);
    let mut p = unit_cube_dirichlet(7);
    p.rhs = Arc::new(|_, _, _| 0.0);
    p.dirichlet = Arc::new(|_, _, _| 0.0);
    p.exact = None;
    let result = svc.submit(quick(p)).unwrap().wait();
    assert!(
        matches!(
            result,
            JobResult::Failed(JobError::Setup(SetupError::ZeroRhs))
        ),
        "zero RHS must fail as a clean SetupError, got {result:?}"
    );
    let good = svc.submit(quick(unit_cube_dirichlet(7))).unwrap().wait();
    assert!(good.output().is_some_and(|o| o.outcome.converged));
    let stats = svc.stats();
    assert_eq!(stats.failed, 1);
    assert_eq!(stats.quarantined, 0, "a setup refusal is not a quarantine");
}

#[test]
fn shutdown_sheds_queued_jobs_and_finishes_running_ones() {
    let gate = Arc::new(AtomicBool::new(false));
    let svc = single_worker(0);
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let queued = svc.submit(quick(unit_cube_dirichlet(7))).unwrap();
    let releaser = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(Duration::from_millis(30));
            gate.store(true, Ordering::SeqCst);
        })
    };
    let stats = svc.shutdown();
    releaser.join().unwrap();
    assert!(matches!(queued.wait(), JobResult::Shed));
    assert!(
        blocker.wait().output().is_some(),
        "the in-flight job runs to completion through shutdown"
    );
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 1);
}

/// A distinct global RHS override for lane `seed` of a batching test:
/// smooth, nonzero, and cheap to regenerate for the reference run.
fn rhs_override(problem: &PoissonProblem, seed: u64) -> Vec<f64> {
    let n = problem.discretize().unknowns();
    (0..n)
        .map(|i| 1.0 + ((i as f64) * 0.37 + seed as f64).sin())
        .collect()
}

#[test]
fn compatible_queued_jobs_coalesce_into_one_batched_solve_bitwise() {
    // Pin the single worker behind a gate, queue three jobs that share
    // a session fingerprint but carry different right-hand sides, then
    // release: the first popped job must pull the other two into one
    // batched solve, and every lane must be bitwise-identical to the
    // same request served solo.
    let gate = Arc::new(AtomicBool::new(false));
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        batch_window: 4,
        ..ServiceConfig::default()
    });
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let base = quick(unit_cube_dirichlet(9));
    let handles: Vec<JobHandle> = (0..3)
        .map(|i| {
            let mut req = base.clone();
            req.rhs = Some(rhs_override(&base.problem, i));
            svc.submit(req).unwrap()
        })
        .collect();
    gate.store(true, Ordering::SeqCst);
    assert!(blocker.wait().output().is_some());
    let solo_svc = single_worker(8);
    for (i, handle) in handles.iter().enumerate() {
        let result = handle.wait();
        let out = result.output().unwrap_or_else(|| {
            panic!("batched lane {i} must complete, got {result:?}");
        });
        assert!(out.outcome.converged, "lane {i} must converge");
        assert_eq!(
            out.metrics.batch_size, 3,
            "three compatible jobs must form one 3-lane batch"
        );
        let mut req = base.clone();
        req.rhs = Some(rhs_override(&base.problem, i as u64));
        let solo = solo_svc.submit(req).unwrap().wait();
        let solo = solo.output().expect("solo reference completes");
        assert_eq!(solo.metrics.batch_size, 1);
        assert_eq!(out.outcome.iterations, solo.outcome.iterations);
        assert_eq!(
            out.outcome.final_residual.to_bits(),
            solo.outcome.final_residual.to_bits(),
            "lane {i} must be bitwise-identical to its solo solve"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.completed, 4);
    assert_eq!(
        stats.cold_builds, 2,
        "the blocker builds one session, the whole batch shares one more"
    );
}

#[test]
fn jobs_differing_only_in_precision_do_not_coalesce() {
    // Two queued jobs identical but for `mixed_precision` need different
    // preconditioners, so they must get different session keys and run
    // as two solo solves — each bitwise-equal to its own solo reference,
    // not to the other precision's.
    let gate = Arc::new(AtomicBool::new(false));
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        batch_window: 4,
        ..ServiceConfig::default()
    });
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let mut base = quick(unit_cube_dirichlet(9));
    base.kind = SolverKind::BiCgsGCi;
    let requests: Vec<SolveRequest> = [false, true]
        .into_iter()
        .map(|mixed_precision| {
            let mut req = base.clone();
            req.opts.mixed_precision = mixed_precision;
            req
        })
        .collect();
    let handles: Vec<JobHandle> = requests
        .iter()
        .map(|req| svc.submit(req.clone()).unwrap())
        .collect();
    gate.store(true, Ordering::SeqCst);
    assert!(blocker.wait().output().is_some());
    let solo_svc = single_worker(8);
    let mut residuals = Vec::new();
    for (req, handle) in requests.iter().zip(&handles) {
        let mixed = req.opts.mixed_precision;
        let result = handle.wait();
        let out = result.output().unwrap_or_else(|| {
            panic!("mixed_precision={mixed} must complete, got {result:?}");
        });
        assert_eq!(
            out.metrics.batch_size, 1,
            "mixed_precision={mixed} must not share a batch"
        );
        let solo = solo_svc.submit(req.clone()).unwrap().wait();
        let solo = solo.output().expect("solo reference completes");
        assert_eq!(
            out.outcome.final_residual.to_bits(),
            solo.outcome.final_residual.to_bits(),
            "mixed_precision={mixed} must be bitwise-identical to its solo solve"
        );
        residuals.push(out.outcome.final_residual.to_bits());
    }
    assert_ne!(
        residuals[0], residuals[1],
        "the two precisions must really have run different preconditioners"
    );
}

#[test]
fn formation_honors_cancel_and_deadline_before_claiming_a_lane() {
    // Of three fingerprint-compatible queued jobs, one is cancelled and
    // one is past its deadline by the time the worker forms the batch:
    // neither may occupy a lane, and the survivor runs (solo, as a
    // 1-lane batch collapses to the ordinary path).
    let gate = Arc::new(AtomicBool::new(false));
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        batch_window: 4,
        ..ServiceConfig::default()
    });
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let base = quick(unit_cube_dirichlet(9));
    let survivor = svc.submit(base.clone()).unwrap();
    let doomed = svc.submit(base.clone()).unwrap();
    let mut stale_req = base.clone();
    stale_req.deadline = Some(Duration::from_millis(5));
    let stale = svc.submit(stale_req).unwrap();
    doomed.cancel();
    #[allow(clippy::disallowed_methods)]
    std::thread::sleep(Duration::from_millis(20));
    gate.store(true, Ordering::SeqCst);
    assert!(blocker.wait().output().is_some());
    assert!(matches!(doomed.wait(), JobResult::Cancelled));
    assert!(matches!(stale.wait(), JobResult::Shed));
    let out = survivor.wait();
    let out = out.output().expect("survivor completes");
    assert!(out.outcome.converged);
    assert_eq!(
        out.metrics.batch_size, 1,
        "with both mates dropped at formation the survivor runs solo"
    );
    let stats = svc.stats();
    assert_eq!(stats.cancelled, 1);
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.completed, 2);
}

#[test]
fn multi_rank_jobs_coalesce_and_match_their_solo_runs() {
    let gate = Arc::new(AtomicBool::new(false));
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        batch_window: 4,
        ..ServiceConfig::default()
    });
    let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
    wait_until_running(&blocker);
    let mut base = quick(paper_problem(9));
    base.decomp = [2, 1, 1];
    base.kind = SolverKind::BiCgsGCi;
    let handles: Vec<JobHandle> = (0..2)
        .map(|i| {
            let mut req = base.clone();
            req.rhs = Some(rhs_override(&base.problem, 10 + i));
            svc.submit(req).unwrap()
        })
        .collect();
    gate.store(true, Ordering::SeqCst);
    assert!(blocker.wait().output().is_some());
    let solo_svc = single_worker(8);
    for (i, handle) in handles.iter().enumerate() {
        let result = handle.wait();
        let out = result.output().unwrap_or_else(|| {
            panic!("multi-rank lane {i} must complete, got {result:?}");
        });
        assert!(out.outcome.converged);
        assert_eq!(out.metrics.batch_size, 2);
        let mut req = base.clone();
        req.rhs = Some(rhs_override(&base.problem, 10 + i as u64));
        let solo = solo_svc.submit(req).unwrap().wait();
        let solo = solo.output().expect("solo reference completes");
        assert_eq!(out.outcome.iterations, solo.outcome.iterations);
        assert_eq!(
            out.outcome.final_residual.to_bits(),
            solo.outcome.final_residual.to_bits(),
            "multi-rank lane {i} must match its solo solve bitwise"
        );
    }
}

/// A tenant whose RHS closure counts its evaluations in `calls` — the
/// cost of assembling its right-hand side — with `amp` telling tenants
/// apart.
fn counted_problem(calls: &Arc<AtomicUsize>, amp: f64) -> PoissonProblem {
    let mut p = unit_cube_dirichlet(9);
    let calls = calls.clone();
    p.rhs = Arc::new(move |x, y, z| {
        calls.fetch_add(1, Ordering::SeqCst);
        amp * (1.0 + x + 2.0 * y - z)
    });
    p.exact = None;
    p
}

#[test]
fn warm_lanes_keep_their_slot_rhs_instead_of_reassembling() {
    // Three tenants, same session fingerprint, distinct RHS closures,
    // coalesced into one batch behind a gated blocker — twice — then
    // lane 0's tenant alone. Cold, every RHS is assembled exactly once:
    // lane 0's by the session build, which its slot keeps, and the
    // others' into their own slots. Warm, every lane finds its slot
    // already holding its tenant's RHS and assembles nothing, and so
    // does the solo job in slot 0. Every answer is bitwise its cold one.
    let svc = SolveService::start(ServiceConfig {
        workers: 1,
        batch_window: 4,
        ..ServiceConfig::default()
    });
    let calls: Vec<Arc<AtomicUsize>> = (0..3).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let reqs: Vec<SolveRequest> = calls
        .iter()
        .enumerate()
        .map(|(i, c)| quick(counted_problem(c, 1.0 + i as f64)))
        .collect();
    let counts = || -> Vec<usize> { calls.iter().map(|c| c.load(Ordering::SeqCst)).collect() };
    let coalesced = |reqs: &[SolveRequest]| {
        let gate = Arc::new(AtomicBool::new(false));
        let blocker = svc.submit(quick(gated_problem(&gate))).unwrap();
        wait_until_running(&blocker);
        let handles: Vec<JobHandle> = reqs
            .iter()
            .map(|r| svc.submit(r.clone()).unwrap())
            .collect();
        gate.store(true, Ordering::SeqCst);
        assert!(blocker.wait().output().is_some());
        handles
            .iter()
            .map(|h| h.wait().output().expect("lane completes").clone())
            .collect::<Vec<_>>()
    };

    let cold = coalesced(&reqs);
    let assembled = counts();
    assert!(assembled[0] > 0, "{assembled:?}");
    assert!(
        assembled.iter().all(|&n| n == assembled[0]),
        "each RHS assembled exactly once cold: {assembled:?}"
    );
    let warm = coalesced(&reqs);
    assert_eq!(counts(), assembled, "warm lanes must keep their slots' RHS");
    let solo = svc.submit(reqs[0].clone()).unwrap().wait();
    let solo = solo.output().expect("solo job completes").clone();
    assert_eq!(counts(), assembled, "a solo job must keep slot 0's RHS");

    for (i, (c, w)) in cold.iter().zip(&warm).enumerate() {
        assert_eq!((c.metrics.batch_size, w.metrics.batch_size), (3, 3));
        assert!(!c.metrics.warm && w.metrics.warm, "lane {i}");
        assert!(c.outcome.converged, "lane {i}");
        assert_eq!(c.outcome.iterations, w.outcome.iterations, "lane {i}");
        assert_eq!(
            c.outcome.final_residual.to_bits(),
            w.outcome.final_residual.to_bits(),
            "lane {i}: a kept RHS must solve bitwise like the assembled one"
        );
    }
    assert_eq!(solo.metrics.batch_size, 1);
    assert!(solo.metrics.warm);
    assert_eq!(
        solo.outcome.final_residual.to_bits(),
        cold[0].outcome.final_residual.to_bits(),
        "the solo job must solve bitwise like its cold lane"
    );
}

mod no_job_lost {
    //! Property: every admitted job reaches exactly one terminal state,
    //! whatever mix of good, poison, cancelled and stale jobs arrives,
    //! and the terminal counters account for all of them.

    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn every_admitted_job_reaches_a_terminal_state(
            flavors in prop::collection::vec((0usize..4, 0usize..3), 1..7),
            workers in 1usize..3,
        ) {
            let svc = SolveService::start(ServiceConfig {
                workers,
                queue_capacity: 64,
                session_capacity: 4,
                ..ServiceConfig::default()
            });
            let mut handles = Vec::new();
            for (flavor, class) in flavors {
                let mut req = quick(unit_cube_dirichlet(5 + 2 * (class % 2)));
                req.priority = match class {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                };
                match flavor {
                    1 => req.problem = poison_problem(),
                    2 => req.deadline = Some(Duration::ZERO),
                    _ => {}
                }
                let handle = svc.submit(req).unwrap();
                if flavor == 3 {
                    handle.cancel();
                }
                handles.push(handle);
            }
            let admitted = handles.len() as u64;
            for handle in &handles {
                // wait() returning at all is the invariant: a lost job
                // would hang here (and trip the harness timeout).
                let _terminal = handle.wait();
            }
            let stats = svc.shutdown();
            prop_assert_eq!(stats.submitted, admitted);
            prop_assert_eq!(
                stats.completed + stats.failed + stats.shed + stats.cancelled,
                admitted,
                "terminal counters must account for every admitted job"
            );
        }
    }
}

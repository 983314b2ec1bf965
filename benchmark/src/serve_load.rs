//! Workload 6: a seeded traffic mix through `serve::SolveService`.
//!
//! Set-up cycles (start, one cold job per tenant, shutdown), then on one
//! long-lived service an open loop (requests sent on a seeded schedule whatever
//! the service does, latency counted from the time a request was *due*) and a
//! closed loop (a fixed number outstanding, the next sent when one returns).
//!
//! A served job returns its outcome but not its solution, so every distinct
//! right-hand side is first solved directly through `PoissonSolver` and checked
//! against the exact solution; a served job then has to converge to the same
//! tolerance in the same number of iterations (±2).

use std::sync::mpsc;
use std::time::{Duration, Instant};

use accel::{AnyDevice, Recorder};
use blockgrid::Decomp;
use comm::{run_ranks_recorded, ReduceOrder, ThreadComm};
use krylov::SolverOptions;
use poisson::{paper_problem, PoissonProblem, PoissonSolver};
use serve::{JobResult, Priority, ServiceConfig, ServiceStats, SolveRequest, SolveService};

use crate::inputs::{Amplitudes, Basis, Rng};
use crate::spec::{ServeWorkload, Tenant, MAX_ITERS, TOL};
use crate::trace::{At, Tracer};
use crate::workload::{mesh_nodes, solve_params, solver_options};

/// How one pass over the serve workload is run.
#[derive(Clone, Copy, Debug)]
pub struct ServePass {
    pub seed: u64,
    pub seconds: f64,
    /// Run the set-up cycles a full run reports `setup_s` from; without, one
    /// cycle only (a traced run wants its span, not its statistics).
    pub setup_cycles: bool,
    pub check: bool,
}

/// One request's fate.
#[derive(Clone, Debug)]
pub struct Served {
    /// Index of the tenant class.
    pub tenant: usize,
    /// Due time to `JobHandle::wait` returning, seconds.
    pub latency_s: f64,
    /// How late the generator sent it, seconds.
    pub gen_lag_s: f64,
    pub ok: bool,
    pub queue_wait_s: f64,
    pub setup_s: f64,
    pub solve_s: f64,
    pub warm: bool,
    pub batch_size: usize,
    pub iters: usize,
    pub prec_sweeps: u64,
}

#[derive(Clone, Debug, Default)]
pub struct ServeReport {
    /// Wall time of each set-up cycle.
    pub setup_cycles: Vec<f64>,
    pub open: Vec<Served>,
    pub open_wall_s: f64,
    pub closed: Vec<Served>,
    pub closed_wall_s: f64,
    /// Requests the service refused at the door (counted as failed).
    pub rejected: usize,
    /// Jobs of the set-up cycles and the warm-up that failed verification.
    pub setup_failed: usize,
    pub setup_jobs: usize,
    /// Counters of the long-lived service at shutdown.
    pub stats: ServiceStats,
}

impl ServeReport {
    pub fn attempted(&self) -> usize {
        self.open.len() + self.closed.len() + self.rejected + self.setup_jobs
    }

    pub fn failed(&self) -> usize {
        let bad = |v: &[Served]| v.iter().filter(|s| !s.ok).count();
        bad(&self.open) + bad(&self.closed) + self.rejected + self.setup_failed
    }

    /// Verified requests per second of the closed loop.
    pub fn closed_rhs_per_s(&self) -> f64 {
        self.closed.iter().filter(|s| s.ok).count() as f64 / self.closed_wall_s
    }

    /// Worker time spent on open-loop jobs over worker time available. A
    /// coalesced batch reports its shared solve on every lane, hence the split.
    pub fn open_util(&self, workers: usize) -> f64 {
        let busy: f64 = self
            .open
            .iter()
            .map(|s| (s.setup_s + s.solve_s) / s.batch_size.max(1) as f64)
            .sum();
        busy / (workers as f64 * self.open_wall_s)
    }
}

/// What a served job must reproduce.
#[derive(Clone, Copy, Debug)]
struct Reference {
    tenant: usize,
    iters: usize,
}

/// One tenant class, ready to issue requests.
struct TenantState {
    problem: PoissonProblem,
    spec: Tenant,
    /// Global right-hand-side overrides, and what each must converge like.
    variants: Vec<(Vec<f64>, Reference)>,
    /// The problem's own right-hand side (no override).
    own: Reference,
}

fn tenant_options(t: &Tenant) -> SolverOptions {
    SolverOptions {
        mixed_precision: t.mixed_precision,
        ..solver_options()
    }
}

/// Solve every right-hand side a tenant will ever send, directly, and check
/// each against its exact solution. Returns the number that failed.
fn prepare_tenant(
    tenant: usize,
    t: &Tenant,
    n_variants: usize,
    seed: u64,
    max_rel_err: f64,
    check: bool,
) -> Result<(TenantState, usize), String> {
    let nodes = mesh_nodes(t.nodes, check);
    let problem = paper_problem(nodes);
    let mut amplitudes = Amplitudes::new(seed, false);
    let amps: Vec<Option<(f64, f64)>> = std::iter::once(None)
        .chain((0..n_variants).map(|_| Some(amplitudes.next())))
        .collect();
    let solved = run_ranks_recorded::<f64, _, _>(
        1,
        ReduceOrder::RankOrder,
        vec![Recorder::disabled()],
        |comm| -> Result<Vec<(Vec<f64>, Reference, bool)>, String> {
            let dev = AnyDevice::from_spec("serial", Recorder::disabled())?;
            let mut solver = PoissonSolver::<f64, AnyDevice, ThreadComm<f64>>::try_new(
                problem.clone(),
                Decomp::single(),
                dev,
                comm,
            )
            .map_err(|e| e.to_string())?;
            let basis = Basis::new(nodes, solver.grid());
            let opts = tenant_options(t);
            amps.iter()
                .map(|amp| {
                    let amp = amp.unwrap_or((0.0, 0.0));
                    let rhs = basis.rhs(amp);
                    let out = solver
                        .resolve_with_rhs(&rhs, t.kind, &opts, &solve_params(MAX_ITERS))
                        .map_err(|e| e.to_string())?;
                    let (err, norm) = basis.error_sq(amp, &solver.solution_local());
                    let ok = out.converged && (err / norm).sqrt() <= max_rel_err;
                    Ok((
                        rhs,
                        Reference {
                            tenant,
                            iters: out.iterations,
                        },
                        ok,
                    ))
                })
                .collect()
        },
    );
    let mut solved = solved.into_iter().next().expect("one rank")?;
    let failed = solved.iter().filter(|(_, _, ok)| !ok).count();
    let (_, own, _) = solved.remove(0);
    Ok((
        TenantState {
            problem,
            spec: *t,
            variants: solved.into_iter().map(|(rhs, r, _)| (rhs, r)).collect(),
            own,
        },
        failed,
    ))
}

/// One request of the schedule.
#[derive(Clone, Copy, Debug)]
struct Planned {
    tenant: usize,
    variant: Option<usize>,
    priority: Priority,
}

/// The seeded request mix: tenants dealt from a reshuffled 49-card deck (so
/// every ~3 s of traffic has exactly the Zipf shares and the medians do not
/// wander with the seed), priorities 1:2:1, two thirds with an override.
struct Mix {
    rng: Rng,
    deck: Vec<usize>,
    next: usize,
    variants: usize,
}

impl Mix {
    fn new(w: &ServeWorkload, seed: u64) -> Self {
        let deck = w
            .tenants
            .iter()
            .enumerate()
            .flat_map(|(i, t)| std::iter::repeat_n(i, t.cards))
            .collect::<Vec<_>>();
        Self {
            rng: Rng::new(seed ^ 0x5E57E),
            next: deck.len(),
            deck,
            variants: w.rhs_variants,
        }
    }

    fn draw(&mut self) -> Planned {
        if self.next == self.deck.len() {
            for i in (1..self.deck.len()).rev() {
                let j = (self.rng.next_u64() % (i as u64 + 1)) as usize;
                self.deck.swap(i, j);
            }
            self.next = 0;
        }
        let tenant = self.deck[self.next];
        self.next += 1;
        let priority = [
            Priority::High,
            Priority::Normal,
            Priority::Normal,
            Priority::Low,
        ][(self.rng.next_u64() % 4) as usize];
        let variant = (!self.rng.next_u64().is_multiple_of(3))
            .then(|| (self.rng.next_u64() % self.variants as u64) as usize);
        Planned {
            tenant,
            variant,
            priority,
        }
    }
}

fn request(tenants: &[TenantState], p: Planned) -> (SolveRequest, Reference) {
    let t = &tenants[p.tenant];
    let mut req = SolveRequest::new(t.problem.clone(), t.spec.kind);
    req.opts = tenant_options(&t.spec);
    req.tol = TOL;
    req.max_iters = MAX_ITERS;
    req.priority = p.priority;
    let reference = match p.variant {
        Some(v) => {
            req.rhs = Some(t.variants[v].0.clone());
            t.variants[v].1
        }
        None => t.own,
    };
    (req, reference)
}

/// Judge a finished job against its reference.
fn judge(result: &JobResult, reference: Reference) -> bool {
    match result {
        JobResult::Done(out) => {
            let o = &out.outcome;
            o.converged
                && o.breakdown.is_none()
                && o.final_residual <= TOL
                && o.iterations.abs_diff(reference.iters) <= 2
        }
        _ => false,
    }
}

fn served(
    due: Instant,
    sent: Instant,
    done: Instant,
    result: &JobResult,
    reference: Reference,
) -> Served {
    let out = result.output();
    let secs =
        |f: fn(&serve::JobMetrics) -> Duration| out.map_or(0.0, |o| f(&o.metrics).as_secs_f64());
    Served {
        tenant: reference.tenant,
        latency_s: (done - due).as_secs_f64(),
        gen_lag_s: (sent - due).as_secs_f64(),
        ok: judge(result, reference),
        queue_wait_s: secs(|m| m.queue_wait),
        setup_s: secs(|m| m.setup),
        solve_s: secs(|m| m.solve),
        warm: out.is_some_and(|o| o.metrics.warm),
        batch_size: out.map_or(1, |o| o.metrics.batch_size),
        iters: out.map_or(0, |o| o.outcome.iterations),
        prec_sweeps: out.map_or(0, |o| o.outcome.prec_iterations),
    }
}

fn config(w: &ServeWorkload) -> ServiceConfig {
    ServiceConfig {
        workers: w.workers,
        queue_capacity: w.queue_capacity,
        session_capacity: w.session_capacity,
        batch_window: w.batch_window,
        ..ServiceConfig::default()
    }
}

/// One set-up cycle: start, one awaited cold job per tenant, shutdown.
/// Returns (seconds, failed jobs).
fn setup_cycle(w: &ServeWorkload, tenants: &[TenantState], tracer: &Tracer) -> (f64, usize) {
    let (failed, dur) = tracer.time(
        "SolveService start + cold jobs + shutdown",
        "serve",
        At::default(),
        || {
            let service = SolveService::start(config(w));
            let failed = one_job_per_tenant(&service, tenants);
            service.shutdown();
            failed
        },
    );
    (dur.as_secs_f64(), failed)
}

fn one_job_per_tenant(service: &SolveService, tenants: &[TenantState]) -> usize {
    (0..tenants.len())
        .filter(|&tenant| {
            let (req, reference) = request(
                tenants,
                Planned {
                    tenant,
                    variant: None,
                    priority: Priority::Normal,
                },
            );
            !service
                .submit(req)
                .is_ok_and(|h| judge(&h.wait(), reference))
        })
        .count()
}

/// Submit `p` (due at `due`) and hand the handle to a waiter thread that
/// stamps the moment `wait` returns. `false` if the service refused it.
#[allow(clippy::too_many_arguments)]
fn send<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    service: &SolveService,
    tenants: &[TenantState],
    tracer: &'env Tracer,
    p: Planned,
    due: Instant,
    op: u64,
    tx: &mpsc::Sender<Served>,
) -> bool {
    let (req, reference) = request(tenants, p);
    let sent = Instant::now();
    let Ok(handle) = service.submit(req) else {
        return false;
    };
    let tx = tx.clone();
    scope.spawn(move || {
        let result = handle.wait();
        let done = Instant::now();
        let at = At {
            op: Some(op),
            ..At::default()
        };
        tracer.record(
            "SolveService::submit -> JobHandle::wait",
            "serve",
            at,
            sent,
            done,
        );
        // The receiver outlives every waiter; a send can only fail if the
        // generator itself panicked, which the scope reports.
        let _ = tx.send(served(due, sent, done, &result, reference));
    });
    true
}

/// Run the serve workload.
pub fn run(w: &ServeWorkload, pass: ServePass, tracer: &Tracer) -> Result<ServeReport, String> {
    let max_rel_err = if pass.check { 0.3 } else { w.max_rel_err };
    let mut report = ServeReport::default();
    let mut tenants = Vec::new();
    for (i, t) in w.tenants.iter().enumerate() {
        let (state, failed) = prepare_tenant(
            i,
            t,
            w.rhs_variants,
            pass.seed.wrapping_add(i as u64),
            max_rel_err,
            pass.check,
        )?;
        report.setup_jobs += 1 + w.rhs_variants;
        report.setup_failed += failed;
        tenants.push(state);
    }
    let tenants = tenants.as_slice();
    let whole = Instant::now();
    let cycle = |report: &mut ServeReport| {
        let (s, failed) = setup_cycle(w, tenants, tracer);
        report.setup_cycles.push(s);
        report.setup_jobs += tenants.len();
        report.setup_failed += failed;
        s
    };
    let before = if pass.check || !pass.setup_cycles {
        1
    } else {
        w.min_setup_cycles.div_ceil(2)
    };
    for _ in 0..before {
        cycle(&mut report);
    }

    let service = SolveService::start(config(w));
    report.setup_jobs += tenants.len();
    report.setup_failed += one_job_per_tenant(&service, tenants);
    let mut mix = Mix::new(w, pass.seed);
    let mut op = 0u64;

    // Open loop: exponential gaps at a constant rate, sent when due.
    let open_s = if pass.check {
        0.5
    } else {
        pass.seconds * w.open_share
    };
    let mut gaps = Rng::new(pass.seed ^ 0x0A11);
    let start = Instant::now();
    let (open, rejected) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Served>();
        let mut rejected = 0;
        let mut due_s = gaps.exp(1.0 / w.open_rate);
        while due_s < open_s {
            let due = start + Duration::from_secs_f64(due_s);
            // The open loop's pacing: sleep until the request is due.
            #[allow(clippy::disallowed_methods)]
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            rejected += usize::from(!send(
                scope,
                &service,
                tenants,
                tracer,
                mix.draw(),
                due,
                op,
                &tx,
            ));
            op += 1;
            due_s += gaps.exp(1.0 / w.open_rate);
        }
        drop(tx);
        (rx.iter().collect::<Vec<Served>>(), rejected)
    });
    report.open_wall_s = start.elapsed().as_secs_f64();
    report.rejected += rejected;
    report.open = open;

    // Closed loop: keep a fixed number outstanding; the drain counts.
    let closed_s = if pass.check {
        0.5
    } else {
        pass.seconds * w.closed_share
    };
    let start = Instant::now();
    let (closed, rejected) = std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<Served>();
        let mut rejected = 0;
        let mut outstanding = 0;
        let mut landed = Vec::new();
        loop {
            let open_for_more = start.elapsed().as_secs_f64() < closed_s;
            while open_for_more && outstanding < w.closed_outstanding {
                let sent = send(
                    scope,
                    &service,
                    tenants,
                    tracer,
                    mix.draw(),
                    Instant::now(),
                    op,
                    &tx,
                );
                op += 1;
                if !sent {
                    // A refusal is a failed operation, not a reason to spin.
                    rejected += 1;
                    break;
                }
                outstanding += 1;
            }
            if outstanding == 0 {
                break;
            }
            landed.push(rx.recv().expect("a waiter is outstanding"));
            outstanding -= 1;
        }
        (landed, rejected)
    });
    report.closed_wall_s = start.elapsed().as_secs_f64();
    report.rejected += rejected;
    report.closed = closed;
    report.stats = service.shutdown();

    if pass.setup_cycles && !pass.check {
        let mut last = cycle(&mut report);
        while report.setup_cycles.len() < w.min_setup_cycles
            || whole.elapsed().as_secs_f64() + last <= pass.seconds
        {
            last = cycle(&mut report);
        }
    }
    Ok(report)
}

//! # bench — the experiment harness behind every paper table and figure
//!
//! One binary per table/figure (`table1`, `fig2`, `table2`, `fig3`,
//! `fig4`, `fig5`, `fig6`, `fig7`, `fig8`) plus Criterion micro-benches.
//! This library holds the shared machinery: a tiny CLI parser, the SPMD
//! experiment runner, and JSON result records.
//!
//! Default problem sizes are scaled to a small CI machine; pass `--full`
//! (or explicit `--nodes`/`--ranks`) for paper-scale runs. Convergence
//! observables are always *measured*; times-to-solution are produced by
//! replaying the measured event stream through `perfmodel` machine
//! models (see DESIGN.md for the substitution rationale).

#![warn(missing_docs)]

use std::collections::HashMap;
use std::time::Instant;

use accel::{AnyDevice, Event, Recorder};
use blockgrid::{Decomp, Field};
use comm::{run_ranks_recorded, CommStats, Communicator, ReduceOrder};
use krylov::reference::bicgstab_reference;
use krylov::{Scope, SolveOutcome, SolveParams, SolverKind, SolverOptions, Workspace};
use poisson::assemble::local_rhs;
use poisson::{paper_problem, PoissonSolver};
use serde::Serialize;

/// Minimal `--key value` / `--flag` CLI parser for the harness binaries.
pub struct Args {
    map: HashMap<String, String>,
    flags: Vec<String>,
    /// Stray positionals (arguments that are neither an `--option` nor
    /// its value), in command-line order.
    positionals: Vec<String>,
}

impl Args {
    /// Parse `std::env::args`.
    pub fn parse() -> Self {
        let mut map = HashMap::new();
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(arg) = it.next() {
            if let Some(key) = arg.strip_prefix("--") {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        map.insert(key.to_owned(), it.next().unwrap());
                    }
                    _ => flags.push(key.to_owned()),
                }
            } else {
                positionals.push(arg);
            }
        }
        Self {
            map,
            flags,
            positionals,
        }
    }

    /// The first argument a front-end that understands exactly the
    /// `known` option names cannot use: a stray positional, or an
    /// `--option` outside the list (alphabetically first, so the message
    /// is reproducible). `None` when the command line is clean.
    pub fn unrecognized(&self, known: &[&str]) -> Option<String> {
        if let Some(stray) = self.positionals.first() {
            return Some(stray.clone());
        }
        self.map
            .keys()
            .chain(&self.flags)
            .filter(|k| !known.contains(&k.as_str()))
            .min()
            .map(|k| format!("--{k}"))
    }

    /// Typed lookup with default.
    pub fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        self.map
            .get(key)
            .map(|v| v.parse().unwrap_or_else(|e| panic!("--{key} {v:?}: {e:?}")))
            .unwrap_or(default)
    }

    /// String lookup with default.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.map
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_owned())
    }

    /// Presence of `--flag`.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Parse a decomposition spec like `2x2x2`.
    pub fn decomp(&self, key: &str, default: [usize; 3]) -> [usize; 3] {
        self.try_decomp(key, default)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`Args::decomp`], for CLI front-ends that want to
    /// reject a malformed spec with a usage hint instead of panicking.
    pub fn try_decomp(&self, key: &str, default: [usize; 3]) -> Result<[usize; 3], String> {
        match self.map.get(key) {
            None => Ok(default),
            Some(spec) => {
                let parts: Vec<usize> = spec
                    .split('x')
                    .map(|p| p.parse().map_err(|e| format!("--{key} {spec:?}: {e}")))
                    .collect::<Result<_, _>>()?;
                if parts.len() != 3 {
                    return Err(format!("--{key} {spec:?}: must be AxBxC"));
                }
                Ok([parts[0], parts[1], parts[2]])
            }
        }
    }
}

/// Configuration of one solver experiment.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Mesh nodes per axis (the paper's "N × N × N mesh").
    pub nodes: usize,
    /// Process-grid decomposition.
    pub decomp: [usize; 3],
    /// Solver configuration under test.
    pub kind: SolverKind,
    /// Preconditioner tunables.
    pub opts: SolverOptions,
    /// Relative residual tolerance (paper: 1e-10).
    pub tol: f64,
    /// Outer iteration cap.
    pub max_iters: usize,
    /// Back-end spec for [`accel::AnyDevice::from_spec`].
    pub device: String,
    /// Reduction ordering (Arrival reproduces the paper's run-to-run
    /// variance).
    pub order: ReduceOrder,
    /// Capture the per-rank event streams.
    pub record_events: bool,
    /// Extra solver options (true-residual monitoring, restart budget)
    /// threaded through to [`SolveParams`].
    pub params_extra: ParamsExtra,
}

/// The optional [`SolveParams`] features exposed on [`RunConfig`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ParamsExtra {
    /// True-residual recomputation period (0 = off).
    pub true_residual_every: usize,
    /// Shadow-residual restart budget on breakdown.
    pub max_restarts: usize,
}

impl RunConfig {
    /// A small-machine default: 64³ mesh, 2×2×2 ranks, serial back-end,
    /// paper tolerances, single-rank eigenvalue rescaling (×10 — the 64³
    /// setting of Sec. IV).
    pub fn small(kind: SolverKind) -> Self {
        Self {
            nodes: 64,
            decomp: [2, 2, 2],
            kind,
            opts: SolverOptions {
                eig_min_factor: 10.0,
                ..Default::default()
            },
            tol: 1e-10,
            max_iters: 50_000,
            device: "serial".into(),
            order: ReduceOrder::RankOrder,
            record_events: false,
            params_extra: ParamsExtra::default(),
        }
    }

    /// Total rank count.
    pub fn ranks(&self) -> usize {
        self.decomp[0] * self.decomp[1] * self.decomp[2]
    }
}

/// Result of one experiment run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Solver outcome (identical on all ranks; taken from rank 0).
    pub outcome: SolveOutcome,
    /// Max total preconditioner sweeps across ranks (local inner solves
    /// may differ per rank for `BJ(BiCGS)`).
    pub prec_iterations_max: u64,
    /// Wall-clock seconds of the solve phase (max over ranks).
    pub wall_s: f64,
    /// Per-rank event streams (`record_events` only).
    pub events: Vec<Vec<Event>>,
    /// Rank-0 communication counters.
    pub comm_stats: CommStats,
    /// Global relative L2 error vs. the manufactured solution (NaN from
    /// [`run_reference`], whose iterate lives outside the facade).
    pub l2_error: f64,
}

/// Run one solver experiment on the paper problem.
pub fn run_once(cfg: &RunConfig) -> RunResult {
    run_world(cfg, false)
}

/// [`run_once`] on the historical schedule
/// ([`krylov::reference::bicgstab_reference`]: eleven unfused sweeps,
/// blocking exchanges, three blocking reductions per iteration) — the
/// "paper schedule" arm of the schedule ablation. The facade's setup
/// (grid, normalised RHS) is shared; `cfg.params_extra` does not apply.
pub fn run_reference(cfg: &RunConfig) -> RunResult {
    run_world(cfg, true)
}

fn run_world(cfg: &RunConfig, reference: bool) -> RunResult {
    let ranks = cfg.ranks();
    let recorders: Vec<Recorder> = (0..ranks)
        .map(|_| {
            if cfg.record_events {
                Recorder::enabled()
            } else {
                Recorder::disabled()
            }
        })
        .collect();
    let handles = recorders.clone();
    let decomp = Decomp::new(cfg.decomp);
    let cfg2 = cfg.clone();
    let per_rank = run_ranks_recorded::<f64, _, _>(ranks, cfg.order, recorders, move |comm| {
        let rec = comm.recorder().clone();
        let dev = AnyDevice::from_spec(&cfg2.device, rec).expect("bad device spec");
        let problem = paper_problem(cfg2.nodes);
        let mut solver: PoissonSolver<f64, _, _> = PoissonSolver::new(problem, decomp, dev, comm);
        let (outcome, wall, l2) = if reference {
            let ctx = solver.ctx();
            let b_host: Vec<f64> = local_rhs(solver.problem(), &ctx.grid)
                .iter()
                .map(|v| v / solver.rhs_norm())
                .collect();
            let b = Field::from_interior(&ctx.dev, &ctx.grid, &b_host);
            let mut x = ctx.field();
            let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
            let mut prec = cfg2.kind.build_preconditioner(ctx, &cfg2.opts);
            let t0 = Instant::now();
            let outcome = bicgstab_reference(
                ctx,
                Scope::Global,
                &b,
                &mut x,
                &mut *prec,
                &mut ws,
                cfg2.tol,
                cfg2.max_iters,
            );
            (outcome, t0.elapsed().as_secs_f64(), f64::NAN)
        } else {
            let params = SolveParams {
                tol: cfg2.tol,
                max_iters: cfg2.max_iters,
                record_history: true,
                true_residual_every: cfg2.params_extra.true_residual_every,
                max_restarts: cfg2.params_extra.max_restarts,
                cancel: None,
            };
            let t0 = Instant::now();
            let outcome = solver.solve(cfg2.kind, &cfg2.opts, &params);
            let wall = t0.elapsed().as_secs_f64();
            (outcome, wall, solver.error_vs_exact().0)
        };
        let stats = solver.ctx().comm.stats();
        (outcome, wall, stats, l2)
    });
    let events: Vec<Vec<Event>> = handles.iter().map(|r| r.drain()).collect();
    let outcome = per_rank[0].0.clone();
    RunResult {
        prec_iterations_max: per_rank
            .iter()
            .map(|r| r.0.prec_iterations)
            .max()
            .unwrap_or(0),
        wall_s: per_rank.iter().map(|r| r.1).fold(0.0, f64::max),
        comm_stats: per_rank[0].2,
        l2_error: per_rank[0].3,
        events,
        outcome,
    }
}

/// Extract the events of the solve's *first outer iteration* from a
/// recorded stream: everything from the first `Begin("Preconditioner")`
/// to just before the second one... more precisely, one full cycle —
/// two preconditioner stages, the kernels and the reduction messages
/// (two batched ones on a multi-rank world, three blocking ones from
/// the reference schedule).
pub fn first_iteration_profile(events: &[Event]) -> Vec<Event> {
    let starts: Vec<usize> = events
        .iter()
        .enumerate()
        .filter_map(|(i, e)| match e {
            Event::Begin { name } if *name == "Preconditioner" => Some(i),
            _ => None,
        })
        .collect();
    match starts.len() {
        0 => events.to_vec(),
        1 | 2 => events[starts[0]..].to_vec(),
        // an outer iteration contains exactly two Preconditioner stages
        _ => events[starts[0]..starts[2]].to_vec(),
    }
}

/// Mean and population standard deviation.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty());
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / values.len() as f64;
    (mean, var.sqrt())
}

/// A serialisable experiment record written next to each harness run.
#[derive(Serialize)]
pub struct ExperimentRecord<T: Serialize> {
    /// Experiment id (e.g. `"table2"`).
    pub experiment: String,
    /// Mesh nodes per axis.
    pub nodes: usize,
    /// Rank count.
    pub ranks: usize,
    /// Payload rows.
    pub data: T,
}

/// Write an experiment record as pretty JSON under `results/`.
pub fn write_json<T: Serialize>(record: &ExperimentRecord<T>) -> std::io::Result<String> {
    std::fs::create_dir_all("results")?;
    let path = format!("results/{}.json", record.experiment);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(record).expect("serialise"),
    )?;
    Ok(path)
}

/// Write a machine-readable ablation record as `BENCH_<name>.json` at the
/// repository root, where CI picks the files up as artifacts. The shared
/// emitter keeps every ablation's output at a predictable path regardless
/// of the working directory cargo launches the bench binary with.
pub fn write_bench_json<T: Serialize>(name: &str, payload: &T) -> std::io::Result<String> {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the repository root");
    let path = root.join(format!("BENCH_{name}.json"));
    std::fs::write(
        &path,
        serde_json::to_string_pretty(payload).expect("serialise"),
    )?;
    Ok(path.display().to_string())
}

/// Replay every rank's recorded event stream through `machine` at
/// `model_ranks` and return the slowest rank's cost breakdown — the
/// worst-rank figure every model-replay ablation reports. Panics on an
/// empty stream set.
pub fn worst_rank_replay(
    streams: &[Vec<Event>],
    machine: &perfmodel::MachineModel,
    model_ranks: usize,
) -> perfmodel::CostBreakdown {
    streams
        .iter()
        .map(|evs| perfmodel::replay(evs, machine, model_ranks))
        .max_by(|a, b| a.total_s().total_cmp(&b.total_s()))
        .expect("at least one rank stream")
}

/// [`worst_rank_replay`] with each stream first rescaled from the
/// recorded local block to a production-size one: kernel/transfer
/// footprints by `volume_ratio`, halo payloads by `face_ratio` (see
/// [`perfmodel::scale_events`]).
pub fn worst_rank_replay_scaled(
    streams: &[Vec<Event>],
    machine: &perfmodel::MachineModel,
    model_ranks: usize,
    volume_ratio: f64,
    face_ratio: f64,
) -> perfmodel::CostBreakdown {
    let scaled: Vec<Vec<Event>> = streams
        .iter()
        .map(|evs| perfmodel::scale_events(evs, volume_ratio, face_ratio))
        .collect();
    worst_rank_replay(&scaled, machine, model_ranks)
}

/// Merge one ablation's headline record into the committed
/// `results/bench_summary.json` at the repository root. The summary is a
/// `{schema_version, sections: {<ablation>: ...}}` document so several
/// ablations can contribute rows without clobbering each other.
pub fn update_summary(section: &str, value: serde::Value) {
    use serde::Value;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate sits two levels below the repository root");
    std::fs::create_dir_all(root.join("results")).expect("create results/");
    let path = root.join("results/bench_summary.json");
    let prior = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| serde_json::from_str(&s).ok());
    let mut sections: Vec<(String, Value)> = match prior {
        Some(Value::Object(entries)) => match entries.into_iter().find(|(k, _)| k == "sections") {
            Some((_, Value::Object(secs))) => secs,
            _ => Vec::new(),
        },
        _ => Vec::new(),
    };
    match sections.iter_mut().find(|(k, _)| k == section) {
        Some(slot) => slot.1 = value,
        None => sections.push((section.into(), value)),
    }
    let doc = Value::Object(vec![
        ("schema_version".into(), Value::U64(2)),
        ("sections".into(), Value::Object(sections)),
    ]);
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&doc).expect("serialise"),
    )
    .expect("write results/bench_summary.json");
}

/// Sum the elements streamed by the Bi-CGSTAB hot-path full-grid
/// sweeps in an event stream: kernels outside `Preconditioner`
/// stages, excluding the O(faces) boundary/halo-staging kernels and
/// the O(ny·nz) slot folds. The split interior/shell pieces of one
/// overlapped sweep sum to exactly one interior's worth of elements,
/// so elements ÷ interior = full-grid sweep count. Reduction kernels
/// record their *row* count as `elems`, but each launch streams the
/// whole grid once — so a dot launch counts as one interior.
///
/// Returns `(total_hot_elems, interior_elems)`; see
/// [`sweeps_per_iteration`] for the figure the schedule ablation reports.
pub fn hot_sweep_elems(events: &[Event]) -> (u64, u64) {
    let interior = events
        .iter()
        .filter_map(|e| match e {
            Event::Kernel { name, elems, .. } if name.starts_with("KernelBiCGS") => Some(*elems),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let mut depth = 0usize;
    let mut total = 0u64;
    for e in events {
        match e {
            Event::Begin { name } if *name == "Preconditioner" => depth += 1,
            Event::End { name } if *name == "Preconditioner" => depth -= 1,
            Event::Kernel { name, elems, .. } if depth == 0 => {
                if name.starts_with("KernelDot") {
                    total += interior;
                } else if *name != "KernelNeumannBCs"
                    && !name.starts_with("KernelFold")
                    && !name.starts_with("KernelHalo")
                {
                    total += elems;
                }
            }
            _ => {}
        }
    }
    (total, interior)
}

/// Full-grid sweeps per outer Bi-CGSTAB iteration of `run`
/// ([`run_once`] or [`run_reference`]), measured on real event streams
/// with [`hot_sweep_elems`]: two unpreconditioned solves at fixed
/// iteration caps (the tolerance is unreachable), whose difference
/// removes setup and drain.
pub fn sweeps_per_iteration(run: impl Fn(&RunConfig) -> RunResult) -> f64 {
    let elems = |iters: usize| {
        let mut cfg = RunConfig::small(SolverKind::BiCgs);
        cfg.nodes = 17;
        cfg.tol = 1e-300;
        cfg.max_iters = iters;
        cfg.record_events = true;
        hot_sweep_elems(&run(&cfg).events[0])
    };
    let (lo, interior) = elems(3);
    let (hi, _) = elems(6);
    (hi - lo) as f64 / (3 * interior) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std(&[2.0, 4.0]);
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        let (m, s) = mean_std(&[5.0]);
        assert_eq!(m, 5.0);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn small_config_runs_and_converges() {
        let mut cfg = RunConfig::small(SolverKind::BiCgsGNoCommCi);
        cfg.nodes = 17;
        cfg.decomp = [2, 1, 1];
        let res = run_once(&cfg);
        assert!(res.outcome.converged, "{:?}", res.outcome);
        assert!(res.l2_error < 1e-2);
        assert!(res.outcome.residual_history.len() == res.outcome.iterations + 1);
    }

    #[test]
    fn recorded_run_produces_event_streams() {
        let mut cfg = RunConfig::small(SolverKind::BiCgsGNoCommCi);
        cfg.nodes = 13;
        cfg.decomp = [2, 1, 1];
        cfg.record_events = true;
        let res = run_once(&cfg);
        assert_eq!(res.events.len(), 2);
        assert!(!res.events[0].is_empty());
        let profile = first_iteration_profile(&res.events[0]);
        // a GNoComm(CI) iteration: 2 preconditioner stages with 24 CI
        // sweeps each, plus the BiCGS kernels
        let kernels = profile
            .iter()
            .filter(|e| matches!(e, Event::Kernel { .. }))
            .count();
        assert!(
            kernels > 40,
            "expected a full iteration, got {kernels} kernels"
        );
        let allreduces = profile
            .iter()
            .filter(|e| matches!(e, Event::AllReduce { .. }))
            .count();
        // on >1 rank the iteration's dots travel as the two batched
        // messages M1 and M2
        assert_eq!(allreduces, 2, "M1 [σ, ‖r‖²_prev] and M2 [σ₁..σ₄]");
    }

    #[test]
    fn fusion_cuts_sweeps_per_iteration_from_eleven_to_five() {
        // The traffic claim of the fused schedule, asserted on real event
        // streams: the reference schedule runs 11 full-grid sweeps per
        // outer iteration, the production one 5.
        let unfused = sweeps_per_iteration(run_reference);
        let fused = sweeps_per_iteration(run_once);
        assert!(
            unfused >= 10.0,
            "reference schedule should sweep >=10x/iter, measured {unfused}"
        );
        assert!(
            fused <= 6.0,
            "production schedule should sweep <=6x/iter, measured {fused}"
        );
        assert!(
            (unfused - 11.0).abs() < 0.01 && (fused - 5.0).abs() < 0.01,
            "expected exactly 11 -> 5 sweeps, measured {unfused} -> {fused}"
        );
    }

    /// Best-of-12 mean-of-5 seconds of `a` and `b`, alternated: a ratio
    /// of two kernels on the same host, each taken at its best, holds on
    /// a noisy runner where an absolute time does not.
    fn best_times(a: &mut dyn FnMut(), b: &mut dyn FnMut()) -> (f64, f64) {
        let mean_of_5 = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            for _ in 0..5 {
                f();
            }
            t.elapsed().as_secs_f64() / 5.0
        };
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..12 {
            best = (best.0.min(mean_of_5(a)), best.1.min(mean_of_5(b)));
        }
        best
    }

    /// The operator of rank 0 of `decomp` on an `n`-cubed grid, three
    /// deterministic input fields whose physical ghosts are current, and
    /// an output field for each of two timed sweeps.
    fn sweep_fixture(
        n: usize,
        decomp: [usize; 3],
    ) -> (
        stencil::Laplacian,
        [blockgrid::Field<f64>; 3],
        [blockgrid::Field<f64>; 2],
    ) {
        use blockgrid::{BlockGrid, Field, GlobalGrid};
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]),
            Decomp::new(decomp),
            0,
        );
        let dev = accel::Serial::new(Recorder::disabled());
        let cells: usize = grid.local_n.iter().product();
        let field = |seed: usize| {
            let vals: Vec<f64> = (0..cells)
                .map(|i| ((i * 31 + seed) % 97) as f64 / 97.0)
                .collect();
            let mut f = Field::from_interior(&dev, &grid, &vals);
            stencil::apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
            f
        };
        let fields = [field(1), field(2), field(3)];
        let outputs = [Field::zeros(&dev, &grid), Field::zeros(&dev, &grid)];
        (stencil::Laplacian::new(&grid), fields, outputs)
    }

    #[test]
    #[ignore = "wall-clock ratio: run with --release (CI fusion-suite does)"]
    fn combine_sweep_costs_at_most_2_5x_plain_apply() {
        // KernelCI2 (stencil + 3 terms) streams 5 fields where the plain
        // apply streams 2, so at the memory roof it costs <= 2.5x per
        // cell. The indexed body it replaced read 3.9x.
        use stencil::INFO_APPLY;
        let dev = accel::Serial::new(Recorder::disabled());
        let (lap, [u, f1, f2], [mut wa, mut wb]) = sweep_fixture(63, [1, 1, 1]);
        let terms = [(&u, 1.5), (&f1, -0.5), (&f2, 0.25)];
        let (apply, combine) = best_times(
            &mut || lap.apply(&dev, INFO_APPLY, &u, &mut wa),
            &mut || lap.apply_combine(&dev, INFO_APPLY, &u, &mut wb, -0.1, terms),
        );
        let ratio = combine / apply;
        println!(
            "apply {:.0} us, combine(3 terms) {:.0} us, ratio {ratio:.2}",
            apply * 1e6,
            combine * 1e6
        );
        assert!(
            ratio <= 2.5,
            "apply_combine with 3 terms costs {ratio:.2}x plain apply per cell (bound 2.5x)"
        );
    }

    #[test]
    #[ignore = "wall-clock ratio: run with --release (CI fusion-suite does)"]
    fn split_sweep_costs_at_most_1_25x_monolithic() {
        // A Chebyshev sweep split around the halo exchange must cost
        // about what it hides: on rank 0 of [2,1,1] at 64^3 the window,
        // its peeled x column and the planes behind it together sweep
        // the interior once, nearly all of it as full rows (reads 1.0-1.1x;
        // peeling all six faces into 7688 cold one-cell rows read 1.9-2.0x).
        use stencil::INFO_APPLY;
        let dev = accel::Serial::new(Recorder::disabled());
        let (lap, [u, f1, f2], [mut wa, mut wb]) = sweep_fixture(64, [2, 1, 1]);
        let terms = [(&u, 1.5), (&f1, -0.5), (&f2, 0.25)];
        let (whole, split) = best_times(
            &mut || lap.apply_combine(&dev, INFO_APPLY, &u, &mut wa, -0.1, terms),
            &mut || {
                lap.apply_combine_interior(&dev, INFO_APPLY, &u, &mut wb, -0.1, terms);
                lap.apply_combine_shell(&dev, INFO_APPLY, &u, &mut wb, -0.1, terms);
            },
        );
        let ratio = split / whole;
        println!(
            "combine(3 terms) {:.0} us, window + shell {:.0} us, ratio {ratio:.2}",
            whole * 1e6,
            split * 1e6
        );
        assert!(
            ratio <= 1.25,
            "a split combine sweep costs {ratio:.2}x the monolithic one (bound 1.25x)"
        );
    }

    #[test]
    #[ignore = "wall-clock ratio: run with --release (CI fusion-suite does)"]
    fn wavefront_application_costs_at_most_0_92x_whole_sweeps() {
        // A 64^3 GNoComm(CI) application on a serial device runs its 24
        // sweeps as z-plane wavefronts, so they stream from cache; the
        // same work as 24 whole KernelCI2 sweeps plus their restricted
        // BCs streams every sweep through the shared L3. Measured on a
        // 2-vCPU Xeon (2 MiB L2 per core): 0.86-0.90; with the wavefront
        // off 1.04-1.05, with both sides on the portable (SSE2) arm
        // 0.94-0.96. At the compute roof of an
        // in-cache sweep (~1.17 against ~1.42 ns/cell whole) it would read
        // ~0.82; the rest is each group's trip through L3.
        use krylov::kernels::INFO_CI2;
        use krylov::{global_bounds, ChebyMode, ChebyshevIteration, RankCtx};
        let (lap, [y, b, z], [mut wa, mut wb]) = sweep_fixture(64, [1, 1, 1]);
        let grid = lap.grid().clone();
        let dev = accel::Serial::new(Recorder::disabled());
        let ctx: RankCtx<f64, _, _> = RankCtx::new(dev.clone(), comm::SelfComm::default(), grid);
        let mut cheb =
            ChebyshevIteration::<f64>::new(&ctx, ChebyMode::GlobalNoComm, global_bounds(&ctx), 24);
        let mut rhs = b.clone();
        let terms = [(&y, 1.5), (&b, -0.5), (&z, 0.25)];
        let (whole, wavefront) = best_times(
            &mut || {
                for _ in 0..24 {
                    lap.apply_combine(&dev, INFO_CI2, &y, &mut wa, -0.1, terms);
                    stencil::apply_physical_bcs(lap.grid(), &mut wa, &Recorder::disabled(), true);
                }
            },
            &mut || {
                cheb.solve(&ctx, &mut rhs, &mut wb);
            },
        );
        let ratio = wavefront / whole;
        println!(
            "24 whole sweeps {:.0} us, one wavefront application {:.0} us, ratio {ratio:.2}",
            whole * 1e6,
            wavefront * 1e6
        );
        assert!(
            ratio <= 0.92,
            "a wavefront application costs {ratio:.2}x its sweeps run whole (bound 0.92x)"
        );
    }

    #[test]
    #[ignore = "wall-clock ratio: run with --release (CI fusion-suite does)"]
    fn short_rows_cost_at_most_1_15x_long_rows_per_cell() {
        // One hot z plane of KernelCI2 (stencil + 3 terms), swept over and
        // over so it stays in cache, on a 32-cell-wide plane and on a
        // 128-wide one of the same cell count: launch costs cancel, and
        // the per-cell ratio is what each row's fixed cost adds to the
        // short rows. A sweep that picks its vector arm, slices its
        // windows and broadcasts its coefficients once per run of rows
        // reads 1.06-1.09 on a 2-vCPU Xeon; once per row it read 1.23-1.27.
        use krylov::kernels::INFO_CI2;
        let dev = accel::Serial::new(Recorder::disabled());
        let plane = |nx: usize, ny: usize| {
            use blockgrid::{BlockGrid, Field, GlobalGrid};
            let grid = BlockGrid::new(
                GlobalGrid::dirichlet([nx, ny, 3], [0.1; 3], [0.0; 3]),
                Decomp::single(),
                0,
            );
            let field = |seed: usize| {
                let vals: Vec<f64> = (0..nx * ny * 3)
                    .map(|i| ((i * 31 + seed) % 97) as f64 / 97.0)
                    .collect();
                Field::from_interior(&dev, &grid, &vals)
            };
            let fields = [field(1), field(2), field(3), Field::zeros(&dev, &grid)];
            (stencil::Laplacian::new(&grid), fields)
        };
        let (short_lap, [y, b, z, mut short_out]) = plane(32, 128);
        let (long_lap, [ly, lb, lz, mut long_out]) = plane(128, 32);
        let sweeps = |lap: &stencil::Laplacian, y, b, z, out: &mut blockgrid::Field<f64>| {
            let terms = [(y, 1.5), (b, -0.5), (z, 0.25)];
            for _ in 0..200 {
                lap.apply_combine_planes(&dev, INFO_CI2, 1..2, y, out, -0.1, terms);
            }
        };
        // The quietest of many short alternated samples: a sub-ms sample
        // often runs undisturbed on a shared host, where a longer mean
        // rarely does.
        let (mut short, mut long) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..60 {
            let t = Instant::now();
            sweeps(&short_lap, &y, &b, &z, &mut short_out);
            short = short.min(t.elapsed().as_secs_f64());
            let t = Instant::now();
            sweeps(&long_lap, &ly, &lb, &lz, &mut long_out);
            long = long.min(t.elapsed().as_secs_f64());
        }
        let ratio = short / long;
        let ns = |t: f64| t / (200.0 * 4096.0) * 1e9;
        println!(
            "hot plane, 32-wide {:.3} ns/cell, 128-wide {:.3} ns/cell, ratio {ratio:.2}",
            ns(short),
            ns(long)
        );
        assert!(
            ratio <= 1.15,
            "a 32-cell row costs {ratio:.2}x a 128-cell one per cell (bound 1.15x)"
        );
    }

    #[test]
    fn bench_json_lands_at_repo_root() {
        #[derive(Serialize)]
        struct Payload {
            ok: bool,
        }
        let path = write_bench_json("selftest", &Payload { ok: true }).unwrap();
        assert!(path.ends_with("BENCH_selftest.json"), "{path}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"ok\": true"), "{text}");
        std::fs::remove_file(&path).unwrap();
    }

    /// `update_summary` only merges, so a deleted ablation's section would
    /// outlive it: the committed summary holds exactly the modelled
    /// replays `benches/ablations.rs` still writes.
    #[test]
    fn summary_sections_are_the_modelled_ablations() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/bench_summary.json"
        );
        let doc = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let Some(serde::Value::Object(sections)) = doc.get("sections") else {
            panic!("no sections object in {path}");
        };
        let mut names: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
        names.sort_unstable();
        assert_eq!(names, ["batched_rhs", "mixed_precision", "schedule"]);
    }

    #[test]
    fn prec_iterations_counted() {
        let mut cfg = RunConfig::small(SolverKind::BiCgsBjCi);
        cfg.nodes = 13;
        cfg.decomp = [1, 1, 1];
        let res = run_once(&cfg);
        assert!(res.outcome.converged);
        // fixed 24-sweep CI applied twice per outer iteration
        assert_eq!(res.outcome.prec_per_outer(), 48.0);
    }
}

/// Render convergence series as an ASCII semilog plot (x = iteration,
/// y = log10 of the residual) — the terminal rendition of the paper's
/// Figs. 2–4. Each series gets a distinct glyph; overlapping points show
/// the later series' glyph.
pub fn ascii_semilogy(series: &[(String, Vec<f64>)], width: usize, height: usize) -> String {
    const GLYPHS: [char; 8] = ['o', '+', 'x', '*', '#', '@', '%', '&'];
    let max_len = series.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    if max_len == 0 {
        return String::from("(no data)\n");
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for (_, s) in series {
        for &v in s {
            if v > 0.0 && v.is_finite() {
                lo = lo.min(v.log10());
                hi = hi.max(v.log10());
            }
        }
    }
    if !lo.is_finite() || hi - lo < 1e-12 {
        return String::from("(series constant or empty)\n");
    }
    let mut canvas = vec![vec![' '; width]; height];
    for (si, (_, s)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for (i, &v) in s.iter().enumerate() {
            if !(v > 0.0 && v.is_finite()) {
                continue;
            }
            let x = if max_len == 1 {
                0
            } else {
                i * (width - 1) / (max_len - 1)
            };
            let fy = (v.log10() - lo) / (hi - lo);
            let y = ((1.0 - fy) * (height - 1) as f64).round() as usize;
            canvas[y.min(height - 1)][x.min(width - 1)] = glyph;
        }
    }
    let mut out = String::new();
    for (row, line) in canvas.iter().enumerate() {
        let level = hi - (hi - lo) * row as f64 / (height - 1) as f64;
        out.push_str(&format!("1e{level:>6.1} |"));
        out.extend(line.iter());
        out.push('\n');
    }
    out.push_str(&format!("         +{}\n", "-".repeat(width)));
    out.push_str(&format!(
        "          0{:>width$}\n",
        format!("iter {}", max_len - 1),
        width = width - 1
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", GLYPHS[si % GLYPHS.len()], name));
    }
    out
}

#[cfg(test)]
mod plot_tests {
    use super::ascii_semilogy;

    #[test]
    fn plot_contains_legend_and_axes() {
        let series = vec![
            ("fast".to_owned(), vec![1.0, 1e-3, 1e-6, 1e-9]),
            ("slow".to_owned(), vec![1.0, 1e-1, 1e-2, 1e-3]),
        ];
        let txt = ascii_semilogy(&series, 40, 12);
        assert!(txt.contains("o fast"));
        assert!(txt.contains("+ slow"));
        assert!(txt.contains("iter 3"));
        // the fast series must reach a lower row than the slow one
        assert!(txt.lines().count() > 12);
    }

    #[test]
    fn empty_and_degenerate_series_are_safe() {
        assert!(ascii_semilogy(&[], 20, 5).contains("no data"));
        let flat = vec![("flat".to_owned(), vec![1.0, 1.0])];
        assert!(ascii_semilogy(&flat, 20, 5).contains("constant"));
        let zeros = vec![("z".to_owned(), vec![0.0, 0.0])];
        assert!(ascii_semilogy(&zeros, 20, 5).contains("constant"));
    }

    #[test]
    fn monotone_series_descends_across_rows() {
        let s = vec![(
            "d".to_owned(),
            (0..20).map(|i| 10f64.powi(-i)).collect::<Vec<_>>(),
        )];
        let txt = ascii_semilogy(&s, 40, 10);
        // first data row (top) holds the early iterations, bottom the late
        let rows: Vec<&str> = txt.lines().take(10).collect();
        let first_col = rows[0].find('o').unwrap();
        let last_col = rows[9].find('o').unwrap();
        assert!(first_col < last_col, "plot must descend left-to-right");
    }
}

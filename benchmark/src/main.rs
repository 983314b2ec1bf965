//! The repository benchmark.
//!
//! ```text
//! poisson-benchmark run --workload W --seed N --seconds S --trace 0|1   one workload, one process
//! poisson-benchmark run [--seed N] [--seconds S] [--traced]             every workload, each in a fresh process
//! poisson-benchmark run --check                                         smoke mode: small meshes, no metrics
//! poisson-benchmark spec                                                print BENCHMARK.json
//! ```
//!
//! A one-workload run prints a report for people and then, as the last line of
//! standard output, one JSON object for the driver. See `README.md`.

mod calib;
mod inputs;
mod layers;
mod probes;
mod serve_load;
mod spec;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;

use serve_load::{ServePass, ServeReport};
use spec::{EndToEnd, RankWorkload, END_TO_END, PER_LAYER, RANK_WORKLOADS, SERVE};
use stats::Summary;
use trace::{json_num, json_str, Tracer};
use workload::{Pass, RankReport};

/// Parsed command line of `run`.
#[derive(Clone, Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    check: bool,
}

fn usage() -> String {
    format!(
        "usage: poisson-benchmark run [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced] [--check]\n       poisson-benchmark spec\nworkloads: {}",
        spec::workload_names().join(" ")
    )
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        check: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !spec::workload_names().contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}"));
                }
                out.workload = Some(w.clone());
            }
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
                if !(out.seconds >= 1.0 && out.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => out.traced = true,
            "--check" => out.check = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(out)
}

/// What one workload produced, whichever kind it is.
pub(crate) enum Report {
    Rank(&'static RankWorkload, RankReport),
    Serve(ServeReport),
}

impl Report {
    fn attempted(&self) -> usize {
        match self {
            Self::Rank(_, r) => r.rhs_attempted(),
            Self::Serve(r) => r.attempted(),
        }
    }

    fn failed(&self) -> usize {
        match self {
            Self::Rank(_, r) => r.rhs_failed(),
            Self::Serve(r) => r.failed(),
        }
    }

    /// Samples behind `tts_s`.
    fn tts_samples(&self) -> Vec<f64> {
        match self {
            Self::Rank(_, r) => r.op_seconds(),
            Self::Serve(r) => r.open.iter().map(|s| s.latency_s).collect(),
        }
    }

    /// The statistic of a traced pass, which runs without the host reference
    /// and is compared with the layer probes: like theirs, the 10th percentile
    /// ([`stats::low`]). The serve workload pools six tenant classes — a low
    /// percentile of that pool would report the smallest class — so its
    /// median.
    fn traced_tts(&self, samples: &[f64]) -> f64 {
        match self {
            Self::Rank(..) => stats::low(samples),
            Self::Serve(_) => stats::median(samples),
        }
    }

    /// The reported `tts_s`: the median of its samples (for the rank workloads,
    /// of samples already divided by the host's slowness, see `calib.rs`).
    fn tts(&self) -> f64 {
        stats::median(&self.tts_samples())
    }

    fn setup_samples(&self) -> Vec<f64> {
        match self {
            Self::Rank(_, r) => r.setup_seconds(),
            Self::Serve(r) => r.setup_cycles.clone(),
        }
    }

    fn rhs_per_s(&self) -> f64 {
        match self {
            Self::Rank(_, r) => r.rhs_per_s(),
            Self::Serve(r) => r.closed_rhs_per_s(),
        }
    }
}

fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &Tracer,
) -> Result<Report, String> {
    if let Some(w) = RANK_WORKLOADS.iter().find(|w| w.name == name) {
        let pass = Pass {
            seed,
            seconds,
            min_ops: if traced { 1 } else { w.min_ops },
            setup_samples: !traced,
            reference: !traced,
            record_events: tracer.enabled(),
            check: false,
        };
        workload::run(w, pass, tracer).map(|r| Report::Rank(w, r))
    } else {
        let pass = ServePass {
            seed,
            seconds,
            setup_cycles: !traced,
            check: false,
        };
        serve_load::run(&SERVE, pass, tracer).map(Report::Serve)
    }
}

/// The report for people: every timing with its spread, the determinism
/// digest, and the host facts the numbers depend on.
fn describe(name: &str, args: &Args, report: &Report) -> String {
    let mut out = String::new();
    let why = match report {
        Report::Rank(w, _) => w.why,
        Report::Serve(_) => SERVE.why,
    };
    let _ = writeln!(
        out,
        "== {name}  seed {}  window {} s\n   {why}",
        args.seed, args.seconds
    );
    let _ = writeln!(
        out,
        "host: nproc {}  L2 {} KiB  LLC {} KiB",
        stats::nproc(),
        stats::cache_bytes(2).map_or(0, |b| b >> 10),
        stats::llc_bytes().map_or(0, |b| b >> 10)
    );
    let _ = writeln!(
        out,
        "{}",
        Summary::of(&report.tts_samples()).line("tts_s", "s")
    );
    let _ = writeln!(
        out,
        "{}",
        Summary::of(&report.setup_samples()).line("setup_s", "s")
    );
    match report {
        Report::Rank(w, r) => {
            if r.reference_s.is_empty() {
                let _ = writeln!(
                    out,
                    "no host reference in this pass: every time is the clock's"
                );
            } else {
                let _ = writeln!(
                    out,
                    "{}\n{}\n{}",
                    Summary::of(&r.op_raw()).line("tts_s by the clock", "s"),
                    Summary::of(&r.setup_raw).line("setup_s by the clock", "s"),
                    Summary::of(&r.reference_s).line("host reference", "s"),
                );
                let _ = writeln!(
                    out,
                    "host reference: {} thread(s) x {} sweeps, quiet-host time {} s; tts_s and setup_s above are the clock's over (reference around the sample / quiet-host time)",
                    w.compute_threads, w.ref_sweeps, w.ref_quiet_s
                );
            }
            let _ = writeln!(
                out,
                "first construction {:.6} s;  {} rank(s) x {} unknowns;  one halo-padded field {} B (L2 holds {:.1} of them)",
                r.first_construct_s,
                w.ranks,
                r.interior,
                r.field_bytes,
                stats::cache_bytes(2).unwrap_or(0) as f64 / r.field_bytes as f64
            );
            let _ = writeln!(
                out,
                "ops {}  rhs attempted {}  rhs failed {}  window {:.3} s",
                r.ops.len(),
                r.rhs_attempted(),
                r.rhs_failed(),
                r.window_s
            );
            for (i, op) in r.ops.iter().take(8).enumerate() {
                let worst = op.rel_err.iter().copied().fold(0.0, f64::max);
                let _ = writeln!(
                    out,
                    "  op {i}: {:.6} s by the clock, host {:.3}  krylov.outer_iters {:?}  fnv1a {:016x}  worst rel err {worst:.3e}",
                    op.dur_s, op.host, op.iters, op.checksum
                );
            }
            let worst = r
                .ops
                .iter()
                .flat_map(|o| o.rel_err.iter().copied())
                .fold(0.0, f64::max);
            let _ = writeln!(
                out,
                "worst rel err {worst:.3e} (bound {:.1e})",
                w.max_rel_err
            );
            let n = w.min_ops.min(r.ops.len());
            let _ = writeln!(
                out,
                "determinism: first {n} ops digest {:016x} (same seed => same digest)",
                r.digest(n)
            );
        }
        Report::Serve(r) => {
            let lat = |v: &[serve_load::Served]| v.iter().map(|s| s.latency_s).collect::<Vec<_>>();
            let _ = writeln!(
                out,
                "{}",
                Summary::of(&lat(&r.closed)).line("closed-loop latency", "s")
            );
            let _ = writeln!(
                out,
                "open loop: {} requests in {:.3} s, util {:.3};  closed loop: {} requests in {:.3} s;  rejected {}",
                r.open.len(),
                r.open_wall_s,
                r.open_util(SERVE.workers),
                r.closed.len(),
                r.closed_wall_s,
                r.rejected
            );
            for (i, t) in SERVE.tenants.iter().enumerate() {
                let mine: Vec<f64> = r
                    .open
                    .iter()
                    .filter(|s| s.tenant == i)
                    .map(|s| s.latency_s)
                    .collect();
                let _ = writeln!(
                    out,
                    "  tenant {i} ({}^3 {}): {}",
                    t.nodes,
                    t.kind,
                    Summary::of(&mine).line("open-loop latency", "s")
                );
            }
            let _ = writeln!(out, "service: {:?}", r.stats);
            let _ = writeln!(
                out,
                "ops attempted {} (incl. {} set-up and reference jobs)  failed {}",
                r.attempted(),
                r.setup_jobs,
                r.failed()
            );
        }
    }
    out
}

fn end_to_end_values(report: &Report) -> Vec<(&'static EndToEnd, f64)> {
    END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => stats::median(&report.setup_samples()),
                "tts_s" => report.tts(),
                "rhs_per_s" => report.rhs_per_s(),
                "peak_rss_mib" => stats::peak_rss_mib(),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            (m, v)
        })
        .collect()
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, &str, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// One workload in this process. Returns whether every answer was right.
fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    if !args.traced {
        let report = run_workload(name, args.seed, args.seconds, false, &Tracer::new(false))?;
        print!("{}", describe(name, args, &report));
        let values = end_to_end_values(&report);
        for (m, v) in &values {
            println!(
                "{} = {v} {} ({} is better, bound {})",
                m.name, m.unit, m.better, m.bound
            );
        }
        println!(
            "ops_attempted = {}  ops_failed = {}",
            report.attempted(),
            report.failed()
        );
        let correct = report.failed() == 0 && values.iter().all(|(_, v)| v.is_finite() && *v > 0.0);
        let metrics: Vec<_> = values.iter().map(|(m, v)| (m.name, m.unit, *v)).collect();
        println!(
            "{}",
            result_line(
                correct,
                report.attempted().max(1),
                report.failed(),
                &metrics
            )
        );
        return Ok(correct);
    }

    // Traced: short passes over the same workload, spans and events off and
    // on in turn, so that both sides see the same host load and the cost of
    // tracing is itself measured. Together they take two fifths of the window.
    let pairs = if name == SERVE.name { 1 } else { 2 };
    let share = args.seconds * 0.2 / pairs as f64;
    let (off, tracer) = (Tracer::new(false), Tracer::new(true));
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        plain.push(run_workload(name, args.seed, share, true, &off)?);
        traced.push(run_workload(name, args.seed, share, true, &tracer)?);
    }
    let pooled = |passes: &[Report]| {
        let samples: Vec<f64> = passes.iter().flat_map(Report::tts_samples).collect();
        passes[0].traced_tts(&samples)
    };
    let probes = probes::run(false);
    let spans = tracer.spans();
    let values = layers::metrics(
        &traced[0],
        pooled(&plain),
        pooled(&traced),
        &probes,
        spans.len(),
    );
    let failed: usize = plain.iter().chain(&traced).map(Report::failed).sum();
    let attempted: usize = plain.iter().chain(&traced).map(Report::attempted).sum();
    let traced = &traced[0];
    print!("{}", describe(name, args, traced));
    for note in &probes.notes {
        println!("note: {note}");
    }
    for (m, v) in &values {
        println!("{} = {v} {} -> {}", m.name, m.unit, m.moves);
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let write = |file: String, text: String| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
    };
    write(
        format!("trace_{name}.json"),
        trace::spans_json(name, &spans),
    )?;
    write(
        "layers.json".into(),
        layers::layers_json(name, &spans, &values),
    )?;
    println!("spans: {} written to {}", spans.len(), dir.display());
    let correct = failed == 0 && values.iter().all(|(_, v)| v.is_finite());
    let metrics: Vec<_> = values.iter().map(|(m, v)| (m.name, m.unit, *v)).collect();
    println!(
        "{}",
        result_line(correct, attempted.max(1), failed, &metrics)
    );
    Ok(correct)
}

/// `"name": {"value": X` out of a result line this program printed.
fn metric_of(line: &str, name: &str) -> Option<f64> {
    let key = format!("{}: {{\"value\": ", json_str(name));
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find([',', '}'])?].parse().ok()
}

/// Every workload, each in a fresh process of this executable.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut lines = Vec::new();
    let mut all_correct = true;
    for name in spec::workload_names() {
        let out = std::process::Command::new(&exe)
            .args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start {name}: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        print!("{text}");
        let last = text.lines().last().unwrap_or_default().to_string();
        all_correct &= out.status.success() && last.contains("\"correct\": true");
        lines.push((name, last));
    }
    if !args.traced {
        println!("== summary");
        for (name, line) in &lines {
            let row: Vec<String> = END_TO_END
                .iter()
                .map(|m| {
                    format!(
                        "{} {} {}",
                        m.name,
                        metric_of(line, m.name).map_or("?".into(), |v| format!("{v:.6}")),
                        m.unit
                    )
                })
                .collect();
            println!("{name}: {}", row.join("  "));
        }
        let tts = |name: &str| {
            lines
                .iter()
                .find(|(n, _)| *n == name)
                .and_then(|(_, l)| metric_of(l, "tts_s"))
        };
        if let (Some(one), Some(two)) = (tts("serial_gnocomm_64"), tts("ranks2_gci_64")) {
            println!("strong_eff_2r = {:.4} (serial_gnocomm_64 tts_s / (2 x ranks2_gci_64 tts_s), derived, not gated)", one / (2.0 * two));
        }
    }
    Ok(all_correct)
}

/// Smoke mode: every workload, verification path and probe on meshes a third
/// the size, two operations each; proves the harness works, prints no metric.
fn run_check() -> Result<bool, String> {
    let mut ok = true;
    let tracer = Tracer::new(true);
    let mut last = None;
    for w in &RANK_WORKLOADS {
        let pass = Pass {
            seed: 1,
            seconds: 0.0,
            min_ops: 2,
            setup_samples: true,
            reference: true,
            record_events: true,
            check: true,
        };
        let r = workload::run(w, pass, &tracer)?;
        let again = workload::run(
            w,
            Pass {
                setup_samples: false,
                ..pass
            },
            &Tracer::new(false),
        )?;
        let good = r.rhs_failed() == 0
            && r.ops.len() == 2
            && r.setup_raw.len() == 2
            && r.digest(2) == again.digest(2);
        println!("check {}: {}", w.name, if good { "ok" } else { "FAILED" });
        ok &= good;
        last = Some(Report::Rank(w, r));
    }
    let pass = ServePass {
        seed: 1,
        seconds: 0.0,
        setup_cycles: true,
        check: true,
    };
    let served = serve_load::run(&SERVE, pass, &tracer)?;
    let good = served.failed() == 0 && !served.open.is_empty() && !served.closed.is_empty();
    println!(
        "check {}: {}",
        SERVE.name,
        if good { "ok" } else { "FAILED" }
    );
    ok &= good;

    let probes = probes::run(true);
    let spans = tracer.spans();
    let rank = last.expect("there are rank workloads");
    for report in [&rank, &Report::Serve(served)] {
        let values = layers::metrics(report, report.tts(), report.tts(), &probes, spans.len());
        let good = values.len() >= PER_LAYER.len() && values.iter().all(|(_, v)| v.is_finite());
        println!(
            "check per-layer metrics: {}",
            if good { "ok" } else { "FAILED" }
        );
        ok &= good;
    }
    let good =
        !trace::spans_json("check", &spans).is_empty() && !trace::layer_totals(&spans).is_empty();
    println!(
        "check spans ({}): {}",
        spans.len(),
        if good { "ok" } else { "FAILED" }
    );
    ok &= good;

    // The contract file and the tables it was generated from must agree.
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(text) => {
            let good = text == spec::benchmark_json();
            println!(
                "check BENCHMARK.json matches `spec`: {}",
                if good { "ok" } else { "FAILED" }
            );
            ok &= good;
        }
        Err(_) => println!("check BENCHMARK.json: not in the working directory, skipped"),
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("spec") if argv.len() == 1 => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        Some("run") => parse(&argv[1..]).and_then(|args| {
            if args.check {
                run_check()
            } else if let Some(name) = &args.workload {
                run_one(name, &args)
            } else {
                run_all(&args)
            }
        }),
        _ => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("error: verification failed");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            ExitCode::from(2)
        }
    }
}

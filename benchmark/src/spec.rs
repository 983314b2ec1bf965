//! The frozen definition of the benchmark: workloads, metrics, constants.
//!
//! `BENCHMARK.json` at the repository root is generated from these tables
//! (`spec` subcommand) and `run --check` fails when the two differ, so the
//! names the driver expects and the names the code prints cannot drift.
//!
//! `BENCHMARK.json` allows one `why` per workload and nothing else, so the
//! frozen constants of each workload (mesh, ranks, device, solver, error
//! bound) live here and in `README.md`, not in the JSON.

use std::fmt::Write as _;

use krylov::SolverKind;

use crate::trace::json_str;

/// Solver tolerance of every operation (relative: the RHS is normalised).
pub const TOL: f64 = 1e-10;
/// Outer-iteration cap of every operation; reaching it fails the operation.
pub const MAX_ITERS: usize = 50_000;
/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 20;
/// Fewest set-up samples a full run reports a median of.
pub const MIN_SETUP_SAMPLES: usize = 25;

/// A workload that drives one `PoissonSolver` world directly.
#[derive(Clone, Copy, Debug)]
pub struct RankWorkload {
    pub name: &'static str,
    pub why: &'static str,
    /// Mesh nodes per axis (the paper's "N³ mesh").
    pub nodes: usize,
    pub ranks: usize,
    pub decomp: [usize; 3],
    /// `accel::AnyDevice` spec of every rank.
    pub device: &'static str,
    pub kind: SolverKind,
    /// Right-hand sides per operation: 1 is `resolve_with_rhs`, more is one
    /// `solve_batch` call.
    pub lanes: usize,
    /// Amplitudes follow a smooth random walk instead of independent draws.
    pub stream: bool,
    /// Full operations run before timing starts. 0 warms up with one
    /// operation capped at two iterations instead: it touches every page and
    /// code path at a ninth of the cost of a full solve.
    pub warmup_ops: usize,
    /// Operations always timed, whatever `--seconds` says; the determinism
    /// digest covers exactly these.
    pub min_ops: usize,
    /// Constructions per set-up sample, so that one sample lasts >= 25 ms.
    pub setup_reps: usize,
    /// Set-up samples taken after each timed operation (0: one every 16).
    pub setups_per_op: usize,
    /// Largest relative L2 error against the exact solution that passes:
    /// 4x the worst seen over seeds 1..3 when the benchmark was defined.
    pub max_rel_err: f64,
    /// Threads the workload computes with (ranks x device threads): the
    /// host-speed reference runs on as many.
    pub compute_threads: usize,
    /// Sweeps per reference sample, so that one lasts about a tenth of an
    /// operation and at least 5 ms.
    pub ref_sweeps: usize,
    /// Seconds one reference sample takes on this host when it is quiet
    /// (frozen): a sample twice as long means the host is half as fast.
    pub ref_quiet_s: f64,
}

pub const RANK_WORKLOADS: [RankWorkload; 5] = [
    RankWorkload {
        name: "serial_gnocomm_64",
        why: "plain single-threaded baseline of the paper's fastest solver: Chebyshev sweeps, stencil and streaming do the work, comm and halo none",
        nodes: 64,
        ranks: 1,
        decomp: [1, 1, 1],
        device: "serial",
        kind: SolverKind::BiCgsGNoCommCi,
        lanes: 1,
        stream: false,
        warmup_ops: 0,
        min_ops: 5,
        setup_reps: 2,
        setups_per_op: 2,
        max_rel_err: 2.5e-3,
        compute_threads: 1,
        ref_sweeps: 200,
        ref_quiet_s: 0.064,
    },
    RankWorkload {
        name: "ranks2_gci_64",
        why: "same outer iterations on 2 ranks with a 32 KB halo inside every sweep: halo exchange, p2p and overlap do what the baseline bypasses",
        nodes: 64,
        ranks: 2,
        decomp: [2, 1, 1],
        device: "serial",
        kind: SolverKind::BiCgsGCi,
        lanes: 1,
        stream: false,
        warmup_ops: 0,
        min_ops: 5,
        setup_reps: 2,
        setups_per_op: 2,
        max_rel_err: 2.5e-3,
        compute_threads: 2,
        ref_sweeps: 200,
        ref_quiet_s: 0.04,
    },
    RankWorkload {
        name: "threads2_bicgs_64",
        why: "unpreconditioned, ~240 short iterations on the 2-thread back-end: fork-join, chunking and the fused kernels dominate, no Chebyshev at all",
        nodes: 64,
        ranks: 1,
        decomp: [1, 1, 1],
        device: "threads:2",
        kind: SolverKind::BiCgs,
        lanes: 1,
        stream: false,
        warmup_ops: 0,
        min_ops: 5,
        setup_reps: 2,
        setups_per_op: 2,
        max_rel_err: 2.5e-3,
        compute_threads: 2,
        ref_sweeps: 200,
        ref_quiet_s: 0.073,
    },
    RankWorkload {
        name: "batch8_gnocomm_48",
        why: "solve_batch with 8 distinct right-hand sides at 48^3: the lane-strided batched driver and kernels do the work that solo solves bypass",
        nodes: 48,
        ranks: 1,
        decomp: [1, 1, 1],
        device: "serial",
        kind: SolverKind::BiCgsGNoCommCi,
        lanes: 8,
        stream: false,
        warmup_ops: 0,
        min_ops: 3,
        setup_reps: 5,
        setups_per_op: 5,
        max_rel_err: 5.0e-3,
        compute_threads: 1,
        ref_sweeps: 400,
        ref_quiet_s: 0.053,
    },
    RankWorkload {
        name: "ranks2_bicgs_stream_32",
        why: "time-stepping stream of small 2-rank solves: allreduce and small-message latency and per-solve fixed costs rule, bandwidth is negligible",
        nodes: 32,
        ranks: 2,
        decomp: [2, 1, 1],
        device: "serial",
        kind: SolverKind::BiCgs,
        lanes: 1,
        stream: true,
        warmup_ops: 20,
        min_ops: 100,
        setup_reps: 20,
        setups_per_op: 0,
        max_rel_err: 1.2e-2,
        compute_threads: 2,
        ref_sweeps: 200,
        ref_quiet_s: 0.0055,
    },
];

/// One tenant class of the serve workload.
#[derive(Clone, Copy, Debug)]
pub struct Tenant {
    pub nodes: usize,
    pub kind: SolverKind,
    pub mixed_precision: bool,
    /// Cards in the 49-card deck the request mix is dealt from (Zipf 1/k).
    pub cards: usize,
}

/// The served traffic mix.
pub struct ServeWorkload {
    pub name: &'static str,
    pub why: &'static str,
    pub workers: usize,
    pub session_capacity: usize,
    pub batch_window: usize,
    pub queue_capacity: usize,
    /// Hot tenants first. Every class has its own (mesh, solver) pair, so no
    /// two classes ever share a session or coalesce into one batch.
    pub tenants: [Tenant; 6],
    /// Distinct right-hand-side overrides per tenant.
    pub rhs_variants: usize,
    /// Open-loop arrival rate, requests per second (frozen: ~40 % of what the
    /// two workers sustain on the box the benchmark was defined on).
    pub open_rate: f64,
    /// Requests the closed loop keeps outstanding.
    pub closed_outstanding: usize,
    /// Share of `--seconds` spent in the open loop, and in the closed loop;
    /// the rest goes to set-up cycles.
    pub open_share: f64,
    pub closed_share: f64,
    /// Fewest set-up cycles (start + one cold job per tenant + shutdown).
    pub min_setup_cycles: usize,
    pub max_rel_err: f64,
}

pub const SERVE: ServeWorkload = ServeWorkload {
    name: "serve_open_mixed",
    why: "six tenant classes through SolveService, open loop then closed loop: scheduler, session cache, batch formation and set-up do the work",
    workers: 2,
    session_capacity: 4,
    batch_window: 4,
    queue_capacity: 64,
    tenants: [
        Tenant { nodes: 32, kind: SolverKind::BiCgsGNoCommCi, mixed_precision: false, cards: 20 },
        Tenant { nodes: 24, kind: SolverKind::BiCgs, mixed_precision: false, cards: 10 },
        Tenant { nodes: 40, kind: SolverKind::BiCgsGNoCommCi, mixed_precision: true, cards: 7 },
        Tenant { nodes: 32, kind: SolverKind::BiCgs, mixed_precision: false, cards: 5 },
        Tenant { nodes: 24, kind: SolverKind::BiCgsGNoCommCi, mixed_precision: false, cards: 4 },
        Tenant { nodes: 40, kind: SolverKind::BiCgs, mixed_precision: false, cards: 3 },
    ],
    rhs_variants: 4,
    open_rate: 16.0,
    closed_outstanding: 4,
    open_share: 0.5,
    closed_share: 0.3,
    min_setup_cycles: 5,
    max_rel_err: 2.5e-2,
};

/// Names of all workloads, in report order. The first five are the gated
/// ones `BENCHMARK.json` lists; the serve workload runs only when asked for
/// by name, under `run` without `--workload`, and under `run --check`.
pub fn workload_names() -> Vec<&'static str> {
    RANK_WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain([SERVE.name])
        .collect()
}

/// An end-to-end metric: what a user of the solver or the service sees.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "tts_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "rhs_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.1,
    },
];

/// A per-layer metric, with the end-to-end metric it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric on which workload (1..6) this should move.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const STREAM: &str = "tts_s on 1, 2, 4";
const LAUNCH: &str = "tts_s on 3, 5";
const LATENCY: &str = "tts_s, rhs_per_s on 5";
const HALO: &str = "tts_s on 2 (large faces), 5 (small faces)";
const CHEBY: &str = "tts_s on 1, 2, 4; not 3, 5";
const FUSED: &str = "tts_s on 3, 5";
const COUNTS: &str = "exact count of the traced workload";
const SERVE_A: &str = "tts_s on 6 (open loop)";
const SERVE_B: &str = "rhs_per_s on 6 (closed loop)";

pub const PER_LAYER: [PerLayer; 55] = [
    pl("accel.triad_gbps", "GB/s", "higher", STREAM),
    pl("accel.triad_dram_gbps", "GB/s", "higher", STREAM),
    pl(
        "accel.threads2_triad_speedup",
        "ratio",
        "higher",
        "tts_s on 3",
    ),
    pl("accel.launch_us.serial", "us", "lower", LAUNCH),
    pl("accel.launch_us.threads2", "us", "lower", "tts_s on 3"),
    pl(
        "accel.reduce_launch_us.threads2",
        "us",
        "lower",
        "tts_s on 3",
    ),
    pl("accel.kernel_launches", "count", "lower", COUNTS),
    pl("accel.kernel_bytes", "B", "lower", COUNTS),
    pl("accel.flops_per_byte", "flop/B", "higher", COUNTS),
    pl("accel.h2d_bytes", "B", "lower", COUNTS),
    pl("accel.d2h_bytes", "B", "lower", COUNTS),
    pl("comm.allreduce_us.8", "us", "lower", LATENCY),
    pl("comm.allreduce_us.64", "us", "lower", LATENCY),
    pl("comm.iallreduce_us.8", "us", "lower", LATENCY),
    pl("comm.barrier_us", "us", "lower", LATENCY),
    pl("comm.p2p_us.1k", "us", "lower", LATENCY),
    pl("comm.p2p_gbps.32k", "GB/s", "higher", "tts_s on 2"),
    pl("comm.allreduces", "count", "lower", COUNTS),
    pl("comm.msgs", "count", "lower", COUNTS),
    pl("comm.bytes", "B", "lower", COUNTS),
    pl("blockgrid.halo_exchange_us.64", "us", "lower", HALO),
    pl("blockgrid.halo_exchange_us.32", "us", "lower", HALO),
    pl("blockgrid.halo_gbps.64", "GB/s", "higher", "tts_s on 2"),
    pl(
        "blockgrid.halo_split_overhead_us.64",
        "us",
        "lower",
        "tts_s on 2",
    ),
    pl(
        "blockgrid.field_from_interior_s",
        "s",
        "lower",
        "setup_s on all; rhs_per_s on 5, 6",
    ),
    pl("blockgrid.halo_exchanges", "count", "lower", COUNTS),
    pl("blockgrid.halo_bytes", "B", "lower", COUNTS),
    pl("stencil.apply_gbps", "GB/s", "higher", CHEBY),
    pl("stencil.apply_frac_of_triad", "ratio", "higher", CHEBY),
    pl(
        "stencil.apply_fused_dot_gbps",
        "GB/s",
        "higher",
        "tts_s on 3",
    ),
    pl(
        "stencil.split_overhead_frac",
        "ratio",
        "lower",
        "tts_s on 2",
    ),
    pl("stencil.apply_us.32", "us", "lower", "tts_s on 5"),
    pl(
        "krylov.outer_iters",
        "count",
        "lower",
        "multiplies every tts_s",
    ),
    pl("krylov.prec_sweeps", "count", "lower", CHEBY),
    pl(
        "krylov.iter_s",
        "s",
        "lower",
        "tts_s of the traced workload",
    ),
    pl("krylov.sweeps_per_iter", "count", "lower", FUSED),
    pl(
        "krylov.prec_apply_s.gnocomm_64",
        "s",
        "lower",
        "tts_s on 1, 4",
    ),
    pl("krylov.prec_apply_s.gci_2r_64", "s", "lower", "tts_s on 2"),
    pl("krylov.prec_share", "ratio", "lower", CHEBY),
    pl("krylov.prec_build_s.64", "s", "lower", "rhs_per_s on 1, 2"),
    pl("krylov.prec_build_s.32", "s", "lower", "rhs_per_s on 5, 6"),
    pl("krylov.kernel_gbps.axpy_dot", "GB/s", "higher", FUSED),
    pl("krylov.kernel_gbps.norm2_axpy", "GB/s", "higher", FUSED),
    pl(
        "krylov.kernel_gbps.residual_p_update_fused",
        "GB/s",
        "higher",
        FUSED,
    ),
    pl(
        "krylov.kernel_gbps.axpy2_chained_inplace",
        "GB/s",
        "higher",
        FUSED,
    ),
    pl("krylov.kernel_gbps.axpy3_inplace", "GB/s", "higher", FUSED),
    pl(
        "krylov.mixed_iter_ratio",
        "ratio",
        "lower",
        "tts_s on 6 (mixed tenant)",
    ),
    pl(
        "krylov.batch8_eff",
        "ratio",
        "higher",
        "rhs_per_s on 4; on 6 through coalescing",
    ),
    pl(
        "krylov.reconcile_frac",
        "ratio",
        "higher",
        "explains tts_s on 1, 2: 1.0 means the layers add up",
    ),
    pl("poisson.rhs_assemble_s", "s", "lower", "setup_s on all"),
    pl("poisson.set_rhs_s", "s", "lower", "rhs_per_s on 5, 6"),
    pl("poisson.solution_local_s", "s", "lower", "rhs_per_s on 4"),
    pl(
        "poisson.error_vs_exact_s",
        "s",
        "lower",
        "none (verification only)",
    ),
    pl(
        "trace.overhead_frac",
        "ratio",
        "lower",
        "none (cost of the traced run itself)",
    ),
    pl(
        "trace.spans",
        "count",
        "lower",
        "none (spans written by the traced run)",
    ),
];

/// Per-layer metrics of the serve workload, printed by its traced run after
/// [`PER_LAYER`]. They are not in `BENCHMARK.json`: the serve workload is not
/// one of the gated workloads (see `README.md`).
pub const SERVE_LAYER: [PerLayer; 14] = [
    pl("serve.lat_p95_s", "s", "lower", SERVE_A),
    pl("serve.queue_wait_p50_s", "s", "lower", SERVE_A),
    pl("serve.queue_wait_p95_s", "s", "lower", SERVE_A),
    pl(
        "serve.setup_cold_p50_s",
        "s",
        "lower",
        "tts_s, setup_s on 6",
    ),
    pl("serve.solve_p50_s", "s", "lower", SERVE_A),
    pl("serve.overhead_p50_s", "s", "lower", SERVE_A),
    pl("serve.warm_hit_ratio", "ratio", "higher", SERVE_B),
    pl("serve.cold_builds", "count", "lower", SERVE_B),
    pl("serve.evicted", "count", "lower", SERVE_B),
    pl("serve.batch_size_mean", "count", "higher", SERVE_B),
    pl("serve.rejected", "count", "lower", "ops_failed on 6"),
    pl("serve.shed", "count", "lower", "ops_failed on 6"),
    pl("serve.util", "ratio", "lower", SERVE_A),
    pl(
        "serve.gen_lag_p95_s",
        "s",
        "lower",
        "none (generator health)",
    ),
];

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    let workloads: Vec<(&str, &str)> = RANK_WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    for (i, (name, why)) in workloads.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}}}{}",
            json_str(name),
            json_str(why),
            if i + 1 < workloads.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            m.bound,
            if i + 1 < END_TO_END.len() { "," } else { "" }
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better),
            if i + 1 < PER_LAYER.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_whys_fit_the_contract() {
        let mut names: Vec<&str> = workload_names();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(PER_LAYER.iter().chain(&SERVE_LAYER).map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "a name is used twice");
        for w in RANK_WORKLOADS.iter().map(|w| w.why).chain([SERVE.why]) {
            assert!(w.len() <= 200 && !w.contains('\n'), "{w}");
        }
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        assert_eq!(SERVE.tenants.iter().map(|t| t.cards).sum::<usize>(), 49);
    }
}

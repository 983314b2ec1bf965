//! Per-layer metrics of a traced run: probe values, exact counts of the
//! traced workload, and the figures derived from both.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use krylov::SolverKind;

use crate::probes::{Probes, PROBE_NODES};
use crate::serve_load::{ServeReport, Served};
use crate::spec::{PerLayer, RankWorkload, PER_LAYER, SERVE, SERVE_LAYER};
use crate::stats::quantile;
use crate::trace::{json_num, json_str, layer_totals, Span};
use crate::workload::{mesh_nodes, RankReport};
use crate::Report;

/// Chebyshev sweeps of one preconditioner application (`SolverOptions`
/// default, which every workload uses).
const SWEEPS_PER_APPLY: f64 = 24.0;

fn rank_metrics(
    w: &RankWorkload,
    tts: f64,
    traced: &RankReport,
    probe: impl Fn(&str) -> f64,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let op = &traced.ops[0];
    let c = op.counts;
    let iters_sum: usize = op.iters.iter().sum();
    let iters_max = op.iters.iter().copied().max().unwrap_or(0);
    let interior = traced.interior as f64;
    out.insert("accel.kernel_launches", c.kernel_launches as f64);
    out.insert("accel.kernel_bytes", c.kernel_bytes as f64);
    out.insert(
        "accel.flops_per_byte",
        c.kernel_flops as f64 / (c.kernel_bytes as f64).max(1.0),
    );
    out.insert("accel.h2d_bytes", c.h2d_bytes as f64);
    out.insert("accel.d2h_bytes", c.d2h_bytes as f64);
    out.insert("comm.allreduces", c.allreduces as f64);
    out.insert("comm.msgs", c.msgs as f64);
    out.insert("comm.bytes", c.bytes_sent as f64);
    out.insert("blockgrid.halo_exchanges", c.halo_exchanges as f64);
    out.insert("blockgrid.halo_bytes", c.halo_bytes as f64);
    out.insert(
        "krylov.outer_iters",
        iters_sum as f64 / op.iters.len() as f64,
    );
    out.insert("krylov.prec_sweeps", op.prec_sweeps as f64);
    out.insert("krylov.iter_s", tts / iters_max.max(1) as f64);
    out.insert(
        "krylov.sweeps_per_iter",
        c.hot_elems as f64 / (interior * iters_sum.max(1) as f64),
    );

    // The layers must add up: price every counted piece of work at its
    // probe's rate and compare the sum with the measured time.
    let two_rank_gci = w.ranks == 2 && w.kind == SolverKind::BiCgsGCi;
    let (apply_s, probe_cells) = if two_rank_gci {
        (probe("krylov.prec_apply_s.gci_2r_64"), probe_interior(2))
    } else {
        (probe("krylov.prec_apply_s.gnocomm_64"), probe_interior(1))
    };
    let prec_s = op.prec_sweeps as f64 * interior * apply_s / (SWEEPS_PER_APPLY * probe_cells);
    let hot_gbps = [
        "stencil.apply_fused_dot_gbps",
        "krylov.kernel_gbps.axpy_dot",
        "krylov.kernel_gbps.residual_p_update_fused",
        "krylov.kernel_gbps.axpy2_chained_inplace",
    ]
    .iter()
    .map(|n| probe(n))
    .sum::<f64>()
        / 4.0;
    let (speedup, launch_us) = if w.device == "serial" {
        (1.0, probe("accel.launch_us.serial"))
    } else {
        (
            probe("accel.threads2_triad_speedup"),
            probe("accel.launch_us.threads2"),
        )
    };
    let hot_s = c.hot_bytes as f64 / (hot_gbps * 1e9 * speedup)
        + c.kernel_launches as f64 * launch_us * 1e-6;
    let comm_s = if w.ranks > 1 {
        let halo_us = if w.nodes >= PROBE_NODES {
            probe("blockgrid.halo_exchange_us.64")
        } else {
            probe("blockgrid.halo_exchange_us.32")
        };
        (c.allreduces as f64 * probe("comm.allreduce_us.8") + c.hot_halo_exchanges as f64 * halo_us)
            * 1e-6
    } else {
        0.0
    };
    out.insert("krylov.prec_share", prec_s / tts);
    out.insert("krylov.reconcile_frac", (prec_s + hot_s + comm_s) / tts);
}

/// Interior unknowns of rank 0 of the 64³ probe geometry on `ranks` ranks.
fn probe_interior(ranks: usize) -> f64 {
    // one Dirichlet face per axis removes one node per axis
    let n = mesh_nodes(PROBE_NODES, false) - 1;
    (n.div_ceil(ranks) * n * n) as f64
}

fn serve_metrics(r: &ServeReport, out: &mut BTreeMap<&'static str, f64>) {
    let col = |f: fn(&Served) -> f64| r.open.iter().map(f).collect::<Vec<f64>>();
    let q = |v: &[f64], q: f64| if v.is_empty() { 0.0 } else { quantile_of(v, q) };
    let all = || r.open.iter().chain(&r.closed);
    let n = all().count().max(1) as f64;
    let cold: Vec<f64> = all().filter(|s| !s.warm).map(|s| s.setup_s).collect();
    let overhead: Vec<f64> = r
        .open
        .iter()
        .map(|s| s.latency_s - s.queue_wait_s - s.setup_s - s.solve_s)
        .collect();
    out.insert("serve.lat_p95_s", q(&col(|s| s.latency_s), 0.95));
    out.insert("serve.queue_wait_p50_s", q(&col(|s| s.queue_wait_s), 0.5));
    out.insert("serve.queue_wait_p95_s", q(&col(|s| s.queue_wait_s), 0.95));
    out.insert("serve.setup_cold_p50_s", q(&cold, 0.5));
    out.insert("serve.solve_p50_s", q(&col(|s| s.solve_s), 0.5));
    out.insert("serve.overhead_p50_s", q(&overhead, 0.5));
    out.insert(
        "serve.warm_hit_ratio",
        all().filter(|s| s.warm).count() as f64 / n,
    );
    out.insert("serve.cold_builds", r.stats.cold_builds as f64);
    out.insert("serve.evicted", r.stats.evicted as f64);
    out.insert(
        "serve.batch_size_mean",
        r.closed.iter().map(|s| s.batch_size as f64).sum::<f64>() / r.closed.len().max(1) as f64,
    );
    out.insert("serve.rejected", r.stats.rejected as f64);
    out.insert("serve.shed", r.stats.shed as f64);
    out.insert("serve.util", r.open_util(SERVE.workers));
    out.insert("serve.gen_lag_p95_s", q(&col(|s| s.gen_lag_s), 0.95));
    out.insert(
        "krylov.outer_iters",
        all().map(|s| s.iters as f64).sum::<f64>() / n,
    );
    out.insert(
        "krylov.prec_sweeps",
        all().map(|s| s.prec_sweeps as f64).sum::<f64>() / n,
    );
    let per_iter: Vec<f64> = all().map(|s| s.solve_s / s.iters.max(1) as f64).collect();
    out.insert("krylov.iter_s", q(&per_iter, 0.5));
}

fn quantile_of(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, q)
}

/// Every per-layer metric of `BENCHMARK.json`, in `PER_LAYER` order, followed
/// — for the serve workload — by the serve layer's own. A metric the traced
/// workload does not exercise (event counts on the serve workload, whose
/// devices the service owns) is 0.
pub fn metrics(
    traced: &Report,
    tts_untraced: f64,
    tts_traced: f64,
    probes: &Probes,
    spans: usize,
) -> Vec<(&'static PerLayer, f64)> {
    let mut out = probes.values.clone();
    let probe = |name: &str| probes.values.get(name).copied().unwrap_or(0.0);
    let serve = match traced {
        Report::Rank(w, t) => {
            rank_metrics(w, tts_untraced, t, probe, &mut out);
            false
        }
        Report::Serve(t) => {
            serve_metrics(t, &mut out);
            true
        }
    };
    out.insert("trace.overhead_frac", tts_traced / tts_untraced - 1.0);
    out.insert("trace.spans", spans as f64);
    PER_LAYER
        .iter()
        .chain(SERVE_LAYER.iter().filter(|_| serve))
        .map(|m| (m, out.get(m.name).copied().unwrap_or(0.0)))
        .collect()
}

/// `layers.json`: per-layer span totals (calls, busy and self time) and every
/// per-layer metric with its unit and the end-to-end metric it should move.
pub fn layers_json(workload: &str, spans: &[Span], values: &[(&PerLayer, f64)]) -> String {
    let mut out = format!(
        "{{\"workload\": {}, \"span_totals\": [\n",
        json_str(workload)
    );
    let totals = layer_totals(spans);
    for (i, t) in totals.iter().enumerate() {
        let _ = writeln!(
            out,
            "  {{\"layer\": {}, \"calls\": {}, \"busy_ns\": {}, \"self_ns\": {}}}{}",
            json_str(t.layer),
            t.calls,
            t.busy_ns,
            t.self_ns,
            if i + 1 < totals.len() { "," } else { "" }
        );
    }
    out.push_str("], \"metrics\": [\n");
    for (i, (m, v)) in values.iter().enumerate() {
        let layer = m.name.split('.').next().unwrap_or(m.name);
        let _ = writeln!(
            out,
            "  {{\"name\": {}, \"layer\": {}, \"value\": {}, \"unit\": {}, \"better\": {}, \"moves\": {}}}{}",
            json_str(m.name),
            json_str(layer),
            json_num(*v),
            json_str(m.unit),
            json_str(m.better),
            json_str(m.moves),
            if i + 1 < values.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

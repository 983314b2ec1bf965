//! Layer probes: one small measurement per layer boundary, traced run only.
//!
//! Every probe calls an un-suffixed public entry point of its layer, so a
//! probe that stops compiling after a refactor is a fix in this file alone.
//! Geometry is one halo-padded field of the paper problem on the 64³ mesh
//! unless a name says otherwise. GB/s divide *computed* bytes (each kernel's
//! declared bytes per element times elements), not bytes a counter saw.

use std::collections::BTreeMap;
use std::time::Duration;

use accel::{AnyDevice, Device, KernelInfo, Recorder, RowMap};
use blockgrid::{BlockGrid, Decomp, Field, HaloExchange};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder};
use krylov::kernels::{
    axpy2_chained_inplace, axpy3_inplace, axpy_dot, norm2_axpy, residual_p_update_fused,
    INFO_BICGS1, INFO_BICGS2F, INFO_BICGS4, INFO_BICGS56, INFO_BICGS6, INFO_NORM2AXPY,
};
use krylov::{RankCtx, SolverKind, SolverOptions};
use poisson::assemble::local_rhs;
use poisson::{paper_problem, PoissonSolver};
use stencil::{Laplacian, INFO_APPLY};

use crate::stats::{bench, cache_bytes, llc_bytes, mem_available_mib, timed};
use crate::workload::{mesh_nodes, solve_params, solver_options};

/// Probe results by per-layer metric name, plus notes for the report.
#[derive(Default)]
pub struct Probes {
    pub values: BTreeMap<&'static str, f64>,
    pub notes: Vec<String>,
}

const TRIAD: KernelInfo = KernelInfo::new("ProbeTriad", 24, 2);
const EMPTY: KernelInfo = KernelInfo::new("ProbeLaunch", 8, 0);

/// Mesh of the probes without a suffix (and of those suffixed `.64`): that of
/// workloads 1-3.
pub const PROBE_NODES: usize = 64;

/// Time budget of one probe.
const SLICE: Duration = Duration::from_millis(120);

fn device(spec: &str) -> AnyDevice {
    AnyDevice::from_spec(spec, Recorder::disabled()).expect("probe device specs are literals")
}

fn grid(nodes: usize, decomp: Decomp, rank: usize) -> BlockGrid {
    BlockGrid::new(paper_problem(nodes).discretize(), decomp, rank)
}

fn filled(dev: &AnyDevice, g: &BlockGrid, salt: usize) -> Field<f64> {
    let n: usize = g.local_n.iter().product();
    let vals: Vec<f64> = (0..n)
        .map(|i| ((i * 31 + salt) % 97) as f64 / 97.0 + 0.01)
        .collect();
    Field::from_interior(dev, g, &vals)
}

fn gbps(elems: usize, info: KernelInfo, seconds: f64) -> f64 {
    elems as f64 * f64::from(info.bytes_per_elem) / seconds / 1e9
}

/// `a ← b + s·c` over the interior of three fields, through `launch_rows`.
fn triad(dev: &AnyDevice, g: &BlockGrid, a: &mut Field<f64>, b: &Field<f64>, c: &Field<f64>) {
    let map = g.interior_map();
    let (bs, cs) = (b.as_slice(), c.as_slice());
    dev.launch_rows(TRIAD, map, a.as_mut_slice(), |j, k, row| {
        let base = map.base + j * map.sy + k * map.sz;
        for (i, out) in row.iter_mut().enumerate() {
            *out = bs[base + i] + 1.000_1 * cs[base + i];
        }
    });
}

/// Most MiB per array the out-of-cache triad may use. Each array should be
/// four times the last-level cache, but this host reports 260 MiB of (shared)
/// L3, and first-touching 3 x 1040 MiB costs more than a whole run lasts.
const DRAM_ARRAY_CAP_MIB: u64 = 128;

/// Streaming rate with arrays far larger than the caches this VM can count
/// on: four times the reported last-level cache, capped (with a note) at
/// [`DRAM_ARRAY_CAP_MIB`]. Both sizes are stated. 0 with a note if the host
/// reports no cache sizes or lacks the memory.
fn triad_dram(p: &mut Probes, dev: &AnyDevice, check: bool) {
    let Some(llc) = llc_bytes() else {
        p.notes
            .push("accel.triad_dram_gbps skipped: the host reports no cache sizes".into());
        p.values.insert("accel.triad_dram_gbps", 0.0);
        return;
    };
    let cap = DRAM_ARRAY_CAP_MIB << if check { 14 } else { 20 };
    let array_bytes = (4 * llc).min(cap) as usize;
    let need_mib = 3.0 * array_bytes as f64 / (1 << 20) as f64;
    if need_mib * 1.5 > mem_available_mib() {
        p.notes.push(format!(
            "accel.triad_dram_gbps skipped: 3 arrays need {need_mib:.0} MiB"
        ));
        p.values.insert("accel.triad_dram_gbps", 0.0);
        return;
    }
    const ROW: usize = 4096;
    let rows = array_bytes / 8 / ROW;
    let n = rows * ROW;
    let map = RowMap {
        base: 0,
        len: ROW,
        ny: rows,
        nz: 1,
        sy: ROW,
        sz: n,
    };
    let (b, c) = (vec![1.0f64; n], vec![2.0f64; n]);
    let mut a = vec![0.0f64; n];
    let t = bench(3, Duration::ZERO, || {
        dev.launch_rows(TRIAD, map, &mut a, |j, _, row| {
            let base = j * ROW;
            for (i, out) in row.iter_mut().enumerate() {
                *out = b[base + i] + 1.000_1 * c[base + i];
            }
        });
    });
    p.values.insert("accel.triad_dram_gbps", gbps(n, TRIAD, t));
    p.notes.push(format!(
        "accel.triad_dram_gbps: 3 arrays of {} MiB each; reported LLC {} MiB, L2 {} KiB{}",
        array_bytes >> 20,
        llc >> 20,
        cache_bytes(2).map_or(0, |b| b >> 10),
        if 4 * llc > cap {
            " (arrays capped below 4 x LLC by the time budget)"
        } else {
            ""
        }
    ));
}

fn accel_probes(p: &mut Probes, nodes: usize, check: bool) -> f64 {
    let serial = device("serial");
    let threads = device("threads:2");
    let g = grid(nodes, Decomp::single(), 0);
    let elems: usize = g.local_n.iter().product();
    let (b, c) = (filled(&serial, &g, 1), filled(&serial, &g, 2));
    let mut a = Field::zeros(&serial, &g);
    let t_serial = bench(5, SLICE, || triad(&serial, &g, &mut a, &b, &c));
    let t_threads = bench(5, SLICE, || triad(&threads, &g, &mut a, &b, &c));
    p.values
        .insert("accel.triad_gbps", gbps(elems, TRIAD, t_serial));
    p.values
        .insert("accel.threads2_triad_speedup", t_serial / t_threads);
    p.notes.push(format!(
        "accel.triad_gbps: 3 fields of {:.1} MiB each",
        (g.padded_len() * 8) as f64 / (1 << 20) as f64
    ));
    triad_dram(p, &serial, check);

    // Launch cost: a kernel over 8 rows of 8 elements does next to nothing.
    let tiny = RowMap {
        base: 0,
        len: 8,
        ny: 8,
        nz: 1,
        sy: 8,
        sz: 64,
    };
    let mut buf = vec![0.0f64; 64];
    let mut launch = |dev: &AnyDevice| {
        bench(200, SLICE, || {
            dev.launch_rows(EMPTY, tiny, &mut buf, |j, _, row| row[0] = j as f64);
        }) * 1e6
    };
    p.values.insert("accel.launch_us.serial", launch(&serial));
    p.values
        .insert("accel.launch_us.threads2", launch(&threads));
    let reduce = bench(200, SLICE, || {
        let [s]: [f64; 1] = threads.launch_reduce(EMPTY, 8, 1, |j, _| [j as f64]);
        std::hint::black_box(s);
    });
    p.values
        .insert("accel.reduce_launch_us.threads2", reduce * 1e6);
    t_serial
}

/// Seconds per call of `f` on rank 0 of a 2-rank world; both ranks run `f`
/// in lockstep, rank 1 only to be the peer.
fn two_rank<F>(min_reps: usize, f: F) -> f64
where
    F: Fn(&comm::ThreadComm<f64>) + Sync,
{
    run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
        // Both ranks must make the same number of calls: fix it up front.
        for _ in 0..min_reps / 10 + 1 {
            f(&comm);
        }
        comm.barrier();
        let (_, d) = timed(|| {
            for _ in 0..min_reps {
                f(&comm);
            }
        });
        d.as_secs_f64() / min_reps as f64
    })[0]
}

fn comm_probes(p: &mut Probes) {
    let reps = 400;
    let allreduce = |n: usize| {
        two_rank(reps, move |comm| {
            let mut v = [1.0f64; 64];
            comm.all_reduce(&mut v[..n], ReduceOp::Sum);
            std::hint::black_box(v[0]);
        }) * 1e6
    };
    p.values.insert("comm.allreduce_us.8", allreduce(8));
    p.values.insert("comm.allreduce_us.64", allreduce(64));
    let split = two_rank(reps, |comm| {
        let v = [1.0f64; 8];
        let mut out = [0.0f64; 8];
        let req = comm.iall_reduce(&v, ReduceOp::Sum);
        comm.reduce_finish(req, &mut out);
        std::hint::black_box(out[0]);
    });
    p.values.insert("comm.iallreduce_us.8", split * 1e6);
    p.values.insert(
        "comm.barrier_us",
        two_rank(reps, |comm| comm.barrier()) * 1e6,
    );

    // Ping-pong: one call is a round trip, so one way is half of it. The
    // payload bounces back and forth, so no buffer is allocated per message.
    let pingpong = |words: usize| {
        let payload = std::sync::Mutex::new([Some(vec![1.0f64; words]), Some(Vec::new())]);
        two_rank(reps, move |comm| {
            let peer = 1 - comm.rank();
            if comm.rank() == 0 {
                let mine = payload.lock().expect("probe mutex")[0]
                    .take()
                    .expect("payload at rest");
                comm.send(peer, 40, mine);
                let back = comm.recv(peer, 41);
                payload.lock().expect("probe mutex")[0] = Some(back);
            } else {
                let got = comm.recv(peer, 40);
                comm.send(peer, 41, got);
            }
        }) / 2.0
    };
    p.values.insert("comm.p2p_us.1k", pingpong(128) * 1e6);
    let words = 4 * 1024;
    p.values.insert(
        "comm.p2p_gbps.32k",
        (words * 8) as f64 / pingpong(words) / 1e9,
    );
}

/// (seconds per `exchange`, seconds per `begin`+`finish`, bytes sent per
/// exchange) on rank 0 of a `[2,1,1]` world at `nodes`.
fn halo_times(nodes: usize) -> (f64, f64, usize) {
    let reps = 200;
    let out = run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
        let dev = device("serial");
        let g = grid(nodes, Decomp::new([2, 1, 1]), comm.rank());
        let halo = HaloExchange::<f64>::new(&g);
        let mut f = filled(&dev, &g, 7);
        let mut time = |split: bool| {
            for _ in 0..reps / 10 {
                halo.exchange(&dev, &comm, &mut f);
            }
            comm.barrier();
            timed(|| {
                for _ in 0..reps {
                    if split {
                        let pending = halo.begin(&dev, &comm, &f);
                        halo.finish(&dev, &comm, pending, &mut f);
                    } else {
                        halo.exchange(&dev, &comm, &mut f);
                    }
                }
            })
            .1
            .as_secs_f64()
                / reps as f64
        };
        (time(false), time(true), g.local_n[1] * g.local_n[2] * 8)
    });
    out[0]
}

fn blockgrid_probes(p: &mut Probes, nodes: usize, small: usize) {
    let (whole, split, bytes) = halo_times(nodes);
    p.values
        .insert("blockgrid.halo_exchange_us.64", whole * 1e6);
    p.values
        .insert("blockgrid.halo_gbps.64", bytes as f64 / whole / 1e9);
    p.values
        .insert("blockgrid.halo_split_overhead_us.64", (split - whole) * 1e6);
    p.values
        .insert("blockgrid.halo_exchange_us.32", halo_times(small).0 * 1e6);
    let dev = device("serial");
    let g = grid(nodes, Decomp::single(), 0);
    let vals = vec![0.5f64; g.local_n.iter().product()];
    let t = bench(3, SLICE, || {
        std::hint::black_box(Field::from_interior(&dev, &g, &vals));
    });
    p.values.insert("blockgrid.field_from_interior_s", t);
}

fn stencil_probes(p: &mut Probes, nodes: usize, small: usize, triad_s: f64) -> f64 {
    let dev = device("serial");
    let g = grid(nodes, Decomp::single(), 0);
    let elems: usize = g.local_n.iter().product();
    let lap = Laplacian::new(&g);
    let (u, r) = (filled(&dev, &g, 1), filled(&dev, &g, 2));
    let mut w = Field::zeros(&dev, &g);
    let apply = bench(5, SLICE, || lap.apply(&dev, INFO_APPLY, &u, &mut w));
    let fused = bench(5, SLICE, || {
        std::hint::black_box(lap.apply_fused_dot(&dev, INFO_BICGS1, &u, &mut w, &r));
    });
    let parts = bench(5, SLICE, || {
        lap.apply_interior(&dev, INFO_APPLY, &u, &mut w);
        lap.apply_shell(&dev, INFO_APPLY, &u, &mut w);
    });
    let apply_gbps = gbps(elems, INFO_APPLY, apply);
    p.values.insert("stencil.apply_gbps", apply_gbps);
    p.values.insert(
        "stencil.apply_frac_of_triad",
        apply_gbps / gbps(elems, TRIAD, triad_s),
    );
    p.values.insert(
        "stencil.apply_fused_dot_gbps",
        gbps(elems, INFO_BICGS1, fused),
    );
    p.values
        .insert("stencil.split_overhead_frac", parts / apply - 1.0);

    let g = grid(small, Decomp::single(), 0);
    let lap = Laplacian::new(&g);
    let u = filled(&dev, &g, 1);
    let mut w = Field::zeros(&dev, &g);
    let t = bench(20, SLICE, || lap.apply(&dev, INFO_APPLY, &u, &mut w));
    p.values.insert("stencil.apply_us.32", t * 1e6);
    apply_gbps
}

/// (seconds per `Preconditioner::apply`, seconds per `build_preconditioner`)
/// of `kind` on rank 0 of a `ranks`-rank world at `nodes`.
fn prec_times(kind: SolverKind, ranks: usize, nodes: usize, opts: SolverOptions) -> (f64, f64) {
    let decomp = if ranks == 1 {
        Decomp::single()
    } else {
        Decomp::new([ranks, 1, 1])
    };
    run_ranks::<f64, _, _>(ranks, ReduceOrder::RankOrder, |comm| {
        let dev = device("serial");
        let g = grid(nodes, decomp, comm.rank());
        let mut rhs = filled(&dev, &g, 3);
        let ctx = RankCtx::new(dev, comm, g);
        let mut out = ctx.field();
        let build = (0..3)
            .map(|_| {
                timed(|| std::hint::black_box(kind.build_preconditioner(&ctx, &opts).name())).1
            })
            .min()
            .expect("three builds")
            .as_secs_f64();
        let mut prec = kind.build_preconditioner(&ctx, &opts);
        prec.apply(&ctx, &mut rhs, &mut out);
        ctx.comm.barrier();
        let reps = 3;
        let (_, d) = timed(|| {
            for _ in 0..reps {
                prec.apply(&ctx, &mut rhs, &mut out);
            }
        });
        (d.as_secs_f64() / reps as f64, build)
    })[0]
}

fn krylov_probes(p: &mut Probes, nodes: usize, mid: usize, small: usize) {
    let opts = solver_options();
    let (apply, build) = prec_times(SolverKind::BiCgsGNoCommCi, 1, nodes, opts);
    p.values.insert("krylov.prec_apply_s.gnocomm_64", apply);
    p.values.insert("krylov.prec_build_s.64", build);
    p.values.insert(
        "krylov.prec_apply_s.gci_2r_64",
        prec_times(SolverKind::BiCgsGCi, 2, nodes, opts).0,
    );
    p.values.insert(
        "krylov.prec_build_s.32",
        prec_times(SolverKind::BiCgsGNoCommCi, 1, small, opts).1,
    );

    let dev = device("serial");
    let g = grid(nodes, Decomp::single(), 0);
    let elems: usize = g.local_n.iter().product();
    let (x, t, r0) = (
        filled(&dev, &g, 2),
        filled(&dev, &g, 3),
        filled(&dev, &g, 4),
    );
    let (mut y, mut q) = (filled(&dev, &g, 1), filled(&dev, &g, 5));
    let mut rate = |name: &'static str, info: KernelInfo, f: &mut dyn FnMut()| {
        let t = bench(5, SLICE, f);
        p.values.insert(name, gbps(elems, info, t));
    };
    rate("krylov.kernel_gbps.axpy_dot", INFO_BICGS2F, &mut || {
        std::hint::black_box(axpy_dot(&dev, INFO_BICGS2F, &g, &mut y, &x, 1e-9, &r0));
    });
    rate("krylov.kernel_gbps.norm2_axpy", INFO_NORM2AXPY, &mut || {
        std::hint::black_box(norm2_axpy(&dev, INFO_NORM2AXPY, &g, &mut y, &x, &t));
    });
    rate(
        "krylov.kernel_gbps.residual_p_update_fused",
        INFO_BICGS56,
        &mut || {
            std::hint::black_box(residual_p_update_fused(
                &dev,
                INFO_BICGS56,
                &g,
                &mut y,
                &mut q,
                &t,
                &x,
                1e-9,
                0.5,
            ));
        },
    );
    rate(
        "krylov.kernel_gbps.axpy2_chained_inplace",
        INFO_BICGS4,
        &mut || {
            axpy2_chained_inplace(&dev, INFO_BICGS4, &g, &mut y, &x, 1e-9, &t, 1e-9);
        },
    );
    rate("krylov.kernel_gbps.axpy3_inplace", INFO_BICGS6, &mut || {
        axpy3_inplace(&dev, INFO_BICGS6, &g, &mut y, &x, &t, 0.5, 1e-9);
    });

    solver_probes(p, nodes);
    p.values.insert("krylov.batch8_eff", batch8_eff(mid));
}

/// Probes through the `PoissonSolver` facade at `nodes`: the facade's own
/// calls, and the per-iteration cost of `mixed_precision` on against off.
/// Mixed precision is reached the way a user reaches it — through the option —
/// with solves capped at two iterations.
fn solver_probes(p: &mut Probes, nodes: usize) {
    let opts = solver_options();
    let capped = solve_params(2);
    let kind = SolverKind::BiCgsGNoCommCi;
    let values = run_ranks::<f64, _, _>(1, ReduceOrder::RankOrder, |comm| {
        let problem = paper_problem(nodes);
        let mut solver = PoissonSolver::<f64, _, _>::try_new(
            problem.clone(),
            Decomp::single(),
            device("serial"),
            comm,
        )
        .expect("the paper problem sets up");
        let assemble = bench(2, SLICE, || {
            std::hint::black_box(local_rhs(&problem, solver.grid()));
        });
        let rhs = local_rhs(&problem, solver.grid());
        let mut solve = |opts: &SolverOptions| {
            bench(3, Duration::ZERO, || {
                let _ = solver.resolve_with_rhs(&rhs, kind, opts, &capped);
            })
        };
        let plain = solve(&opts);
        let mixed = solve(&SolverOptions {
            mixed_precision: true,
            ..opts
        });
        let set_rhs = bench(3, SLICE, || {
            solver.set_rhs(&rhs).expect("a valid right-hand side")
        });
        let download = bench(3, SLICE, || {
            std::hint::black_box(solver.solution_local());
        });
        let verify = bench(2, SLICE, || {
            std::hint::black_box(solver.error_vs_exact());
        });
        [mixed / plain, assemble, set_rhs, download, verify]
    });
    let names = [
        "krylov.mixed_iter_ratio",
        "poisson.rhs_assemble_s",
        "poisson.set_rhs_s",
        "poisson.solution_local_s",
        "poisson.error_vs_exact_s",
    ];
    for (name, v) in names.into_iter().zip(values[0]) {
        p.values.insert(name, v);
    }
}

/// Eight solo solves over one `solve_batch` of the same eight right-hand
/// sides at `nodes`, each capped at two iterations: 1.0 means batching buys
/// nothing, 8.0 that the batch costs what one solve does.
fn batch8_eff(nodes: usize) -> f64 {
    let opts = solver_options();
    let capped = solve_params(2);
    let kind = SolverKind::BiCgsGNoCommCi;
    run_ranks::<f64, _, _>(1, ReduceOrder::RankOrder, |comm| {
        let problem = paper_problem(nodes);
        let mut solver = PoissonSolver::<f64, _, _>::try_new(
            problem.clone(),
            Decomp::single(),
            device("serial"),
            comm,
        )
        .expect("the paper problem sets up");
        let rhs = local_rhs(&problem, solver.grid());
        let lanes: Vec<&[f64]> = vec![&rhs; 8];
        let solo = bench(8, Duration::ZERO, || {
            let _ = solver.resolve_with_rhs(&rhs, kind, &opts, &capped);
        });
        let batch = bench(2, Duration::ZERO, || {
            let _ = solver.solve_batch(&lanes, kind, &opts, &capped, &[]);
        });
        8.0 * solo / batch
    })[0]
}

/// Run every probe. `check` shrinks every mesh by three.
pub fn run(check: bool) -> Probes {
    let mut p = Probes::default();
    let (nodes, mid, small) = (
        mesh_nodes(PROBE_NODES, check),
        mesh_nodes(48, check),
        mesh_nodes(32, check),
    );
    let triad_s = accel_probes(&mut p, nodes, check);
    comm_probes(&mut p);
    blockgrid_probes(&mut p, nodes, small);
    stencil_probes(&mut p, nodes, small, triad_s);
    krylov_probes(&mut p, nodes, mid, small);
    p
}

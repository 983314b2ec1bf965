//! Criterion micro-benchmarks of the solver's device kernels — the
//! per-kernel costs behind the paper's Fig. 8 trace.

use accel::{Recorder, Serial, Threads};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
use comm::{run_ranks, ReduceOrder};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use krylov::kernels::{
    axpy3_inplace, axpy_dot, axpy_inplace, dot, residual_p_update_fused, residual_update_fused,
    INFO_BICGS2, INFO_BICGS2F, INFO_BICGS3F, INFO_BICGS5, INFO_BICGS56, INFO_BICGS6, INFO_CI1,
    INFO_CI2, INFO_DOT,
};
use krylov::{global_bounds, ChebyMode, ChebyshevIteration, RankCtx};
use stencil::{apply_physical_bcs, Laplacian, Part, INFO_APPLY};

fn grid(n: usize) -> BlockGrid {
    BlockGrid::new(
        GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]),
        Decomp::single(),
        0,
    )
}

fn filled(dev: &Serial, g: &BlockGrid, seed: usize) -> Field<f64> {
    let n = g.local_n.iter().product();
    let vals: Vec<f64> = (0..n)
        .map(|i| ((i * 31 + seed) % 97) as f64 / 97.0)
        .collect();
    Field::from_interior(dev, g, &vals)
}

fn bench_stencil(c: &mut Criterion) {
    let mut group = c.benchmark_group("stencil_apply");
    for n in [16usize, 32] {
        let g = grid(n);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&g);
        let mut u = filled(&dev, &g, 1);
        apply_physical_bcs(&g, &mut u, &Recorder::disabled(), false);
        let r0t = filled(&dev, &g, 2);
        let mut w = Field::zeros(&dev, &g);
        group.throughput(Throughput::Elements((n * n * n) as u64));
        group.bench_with_input(BenchmarkId::new("plain", n), &n, |b, _| {
            b.iter(|| lap.apply(&dev, INFO_APPLY, &u, &mut w));
        });
        group.bench_with_input(
            BenchmarkId::new("fused_dot(KernelBiCGS1)", n),
            &n,
            |b, _| {
                b.iter(|| lap.apply_fused_dot(&dev, INFO_APPLY, &u, &mut w, &r0t));
            },
        );
        let z = filled(&dev, &g, 3);
        let (rs, gs) = (r0t.as_slice(), z.as_slice());
        let dots3 = |_, c: usize, v: f64| [v * rs[c], v * v, gs[c] * v];
        let id = BenchmarkId::new("fused_dots3(KernelBiCGS3F)", n);
        group.bench_with_input(id, &n, |b, _| {
            b.iter(|| {
                let (mut acc, us) = ([[0.0; 3]], &[u.as_slice()]);
                let outs = &mut [w.as_mut_slice()];
                lap.apply_part_dots(
                    &dev,
                    INFO_BICGS3F,
                    &Part::Whole,
                    us,
                    outs,
                    &mut [],
                    &mut acc,
                    &dots3,
                )
                .fold(&dev, INFO_BICGS3F, &[], &mut acc);
                acc
            });
        });
        group.bench_with_input(BenchmarkId::new("combine(KernelCI1)", n), &n, |b, _| {
            b.iter(|| {
                let terms = [(&u, 1.5)];
                lap.apply_combine(&dev, INFO_CI1, &Part::Whole, &u, &mut w, -0.1, terms)
            });
        });
        group.bench_with_input(BenchmarkId::new("combine(KernelCI2)", n), &n, |b, _| {
            b.iter(|| {
                let terms = [(&u, 1.5), (&r0t, -0.5), (&z, 0.25)];
                lap.apply_combine(&dev, INFO_CI2, &Part::Whole, &u, &mut w, -0.1, terms)
            });
        });
        group.bench_with_input(BenchmarkId::new("physical_bcs", n), &n, |b, _| {
            b.iter(|| apply_physical_bcs(&g, &mut u, &Recorder::disabled(), true));
        });
    }
    group.finish();
}

fn bench_vector_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("vector_kernels");
    let n = 32;
    let g = grid(n);
    let dev = Serial::new(Recorder::disabled());
    let mut y = filled(&dev, &g, 1);
    let x = filled(&dev, &g, 2);
    let t = filled(&dev, &g, 3);
    let r0t = filled(&dev, &g, 4);
    group.throughput(Throughput::Elements((n * n * n) as u64));
    group.bench_function("axpy(KernelBiCGS2)", |b| {
        b.iter(|| axpy_inplace(&dev, INFO_BICGS2, &g, &mut y, &x, 1e-9));
    });
    group.bench_function("residual_update(KernelBiCGS5)", |b| {
        b.iter(|| residual_update_fused(&dev, INFO_BICGS5, &g, &mut y, &t, 1e-9, &r0t));
    });
    group.bench_function("p_update(KernelBiCGS6)", |b| {
        b.iter(|| axpy3_inplace(&dev, INFO_BICGS6, &g, &mut y, &x, &t, 0.5, 0.1));
    });
    group.bench_function("dot", |b| {
        b.iter(|| dot(&dev, INFO_DOT, &g, &x, &t));
    });
    group.bench_function("axpy_dot(KernelBiCGS2F)", |b| {
        b.iter(|| axpy_dot(&dev, INFO_BICGS2F, &g, &mut y, &x, 1e-9, &r0t));
    });
    group.bench_function("residual_p_update(KernelBiCGS56)", |b| {
        let mut p = filled(&dev, &g, 5);
        b.iter(|| {
            residual_p_update_fused(&dev, INFO_BICGS56, &g, &mut y, &mut p, &t, &x, 0.1, 0.5)
        });
    });
    group.finish();
}

fn bench_backends(c: &mut Criterion) {
    // the same stencil kernel on the serial and the threaded back-end
    let mut group = c.benchmark_group("backend_stencil");
    let n = 32;
    group.throughput(Throughput::Elements((n * n * n) as u64));
    {
        let g = grid(n);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&g);
        let mut u = filled(&dev, &g, 1);
        apply_physical_bcs(&g, &mut u, &Recorder::disabled(), false);
        let mut w = Field::zeros(&dev, &g);
        group.bench_function("serial", |b| {
            b.iter(|| lap.apply(&dev, INFO_APPLY, &u, &mut w));
        });
    }
    {
        let g = grid(n);
        let dev = Threads::new(2, Recorder::disabled());
        let lap = Laplacian::new(&g);
        let serial = Serial::new(Recorder::disabled());
        let mut u = filled(&serial, &g, 1);
        apply_physical_bcs(&g, &mut u, &Recorder::disabled(), false);
        let mut w = Field::zeros(&serial, &g);
        group.bench_function("threads2", |b| {
            b.iter(|| lap.apply(&dev, INFO_APPLY, &u, &mut w));
        });
    }
    group.finish();
}

fn bench_cheby_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("chebyshev_preconditioner");
    let n = 32;
    let g = grid(n);
    let ctx: RankCtx<f64, _, comm::SelfComm<f64>> = RankCtx::new(
        Serial::new(Recorder::disabled()),
        comm::SelfComm::default(),
        g,
    );
    let bounds = global_bounds(&ctx);
    group.throughput(Throughput::Elements((n * n * n) as u64));
    for sweeps in [6usize, 24] {
        let mut ci = ChebyshevIteration::<f64>::new(&ctx, ChebyMode::GlobalNoComm, bounds, sweeps);
        let mut b_field = filled(&ctx.dev, &ctx.grid, 5);
        let mut out = ctx.field();
        group.bench_with_input(BenchmarkId::new("gnocomm", sweeps), &sweeps, |b, _| {
            b.iter(|| ci.solve(&ctx, &mut b_field, &mut out));
        });
    }
    group.finish();
}

fn bench_halo_exchange(c: &mut Criterion) {
    // full 2-rank halo exchange, including the SPMD spawn (dominated by
    // the exchange itself for repeated iterations inside the closure)
    let mut group = c.benchmark_group("halo_exchange");
    group.sample_size(10);
    for n in [16usize, 32] {
        group.bench_with_input(BenchmarkId::new("x_split_100_exchanges", n), &n, |b, &n| {
            b.iter(|| {
                run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm_handle| {
                    let global = GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]);
                    let grid = BlockGrid::new(global, Decomp::new([2, 1, 1]), {
                        use comm::Communicator;
                        comm_handle.rank()
                    });
                    let dev = Serial::new(Recorder::disabled());
                    let mut f = filled(&dev, &grid, 7);
                    let halo = blockgrid::HaloExchange::new(&grid);
                    for _ in 0..100 {
                        halo.exchange(&dev, &comm_handle, &mut f);
                    }
                });
            });
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_stencil, bench_vector_kernels, bench_backends, bench_cheby_sweeps, bench_halo_exchange
);
criterion_main!(benches);

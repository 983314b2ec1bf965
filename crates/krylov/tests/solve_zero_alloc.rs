//! Steady-state allocation audit of the fused Bi-CGSTAB hot path.
//!
//! The fused schedule regroups the per-iteration work into four full-grid
//! sweeps, but it must do so with the same zero-allocation discipline as
//! the halo path: every vector lives in the preallocated [`Workspace`]
//! and the communicator recycles its queues. After one warm-up solve,
//! further solves — fused kernels, blocking halo exchanges and blocking
//! batched reductions, as every multi-rank world runs them — may not
//! touch the heap.
//!
//! This file holds a single test on purpose: a `#[global_allocator]` is
//! binary-wide, and a lone test keeps other harness threads from muddying
//! the audit. The counter is per-thread, so each rank audits only itself.
//!
//! [`Workspace`]: krylov::Workspace

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel::{Recorder, Serial};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder, ThreadComm};
use krylov::{bicgstab_solve, RankCtx, Scope, SolveParams, SolverKind, SolverOptions, Workspace};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// System allocator that bumps the calling thread's counter on every
/// allocation or reallocation (frees are not counted — returning memory
/// is fine; taking it is what the steady state forbids).
struct CountingAlloc;

// SAFETY: pure passthrough to `System`; the only extra work is a TLS
// counter bump, which never allocates and never panics (`try_with`).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // try_with: TLS may be gone during thread teardown; never panic
        // inside the allocator.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: `ptr`/`layout` come from this allocator (same `System`).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator (same `System`).
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn my_allocs() -> u64 {
    ALLOCS.with(|c| c.get())
}

#[test]
fn fused_solve_is_allocation_free_after_warmup() {
    let decomp = Decomp::new([2, 2, 2]);
    let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
    let counts = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
        let grid = BlockGrid::new(global.clone(), decomp, comm.rank());
        let interior: Vec<f64> = (0..grid.local_n.iter().product())
            .map(|i| (i % 13) as f64 * 0.25 + 1.0)
            .collect();
        let dev = Serial::new(Recorder::disabled());
        let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &interior);
        let x0 = ctx.field();
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let opts = SolverOptions {
            eig_min_factor: 10.0,
            ..SolverOptions::default()
        };
        // The production schedule of a multi-rank world: fused kernels,
        // blocking halo exchanges and lagged batched reductions, under
        // a Chebyshev preconditioner and under M = I (whose sweeps run
        // in place on p and r). An unreachable tolerance pins the iteration
        // count so the audit covers full steady-state loop bodies.
        // The mixed-precision flavours share the audit: their f32 state
        // fields, f32 halo pool and cast kernels must be just as
        // steady-state as the f64 path. GNoComm(CI) runs its sweeps as
        // z-plane wavefronts on these Serial devices: its coefficient
        // table and plane loop are audited too.
        let mixed_opts = SolverOptions {
            mixed_precision: true,
            ..opts
        };
        let mut precs = [
            SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts),
            SolverKind::BiCgsGCi.build_preconditioner(&ctx, &mixed_opts),
            SolverKind::BiCgsGNoCommCi.build_preconditioner(&ctx, &opts),
            SolverKind::BiCgsGNoCommCi.build_preconditioner(&ctx, &mixed_opts),
            SolverKind::BiCgs.build_preconditioner(&ctx, &opts),
        ];
        let params = SolveParams {
            tol: 1e-300,
            max_iters: 4,
            record_history: false,
            ..Default::default()
        };
        let mut solve_all = |x: &mut Field<f64>| {
            for prec in &mut precs {
                x.copy_from(&x0);
                bicgstab_solve(&ctx, Scope::Global, &b, x, &mut **prec, &mut ws, &params);
            }
        };

        // Warm-up: one solve each populates the halo buffer pool, the
        // communicator's per-(peer, tag) queues and any lazily-built
        // preconditioner state.
        solve_all(&mut x);
        // Every rank warm before anyone starts counting (a cold
        // neighbour would still only bump its *own* counter, but the
        // barrier keeps the steady-state claim honest).
        ctx.comm.all_reduce(&mut [0.0f64], ReduceOp::Sum);

        let before = my_allocs();
        solve_all(&mut x);
        my_allocs() - before
    });
    for (rank, &n) in counts.iter().enumerate() {
        assert_eq!(
            n, 0,
            "rank {rank}: {n} heap allocations in the steady-state fused solve"
        );
    }
}

//! Steady-state allocation audit of the threaded back-end.
//!
//! `solve_zero_alloc.rs` audits solves on `Serial` devices with one counter
//! per rank thread. A `Threads` launch also runs on the pool's workers, so
//! this audit counts every allocation in the process — the solving
//! thread's and the workers' alike. After one warm-up solve each, a
//! single-rank solve on `Threads::new(2)` — unpreconditioned `BiCgs` and
//! Chebyshev-preconditioned `BiCgsGCi` — may not touch the heap: no
//! per-launch partial slots, lane tables, latches or queue nodes.
//!
//! This file holds a single test on purpose: the counter is process-wide,
//! so any other test running beside this one would be counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use accel::{Recorder, Threads};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid};
use comm::SelfComm;
use krylov::{bicgstab_solve, RankCtx, Scope, SolveParams, SolverKind, SolverOptions, Workspace};

/// Allocations and reallocations by any thread (frees are not counted).
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// System allocator that counts every allocation or reallocation.
struct CountingAlloc;

// SAFETY: pure passthrough to `System`; the only extra work is a relaxed
// atomic increment (a statistic that publishes nothing), which never
// allocates and never panics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
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

#[test]
fn threads_solve_is_allocation_free_after_warmup() {
    let global = GlobalGrid::dirichlet([16, 12, 10], [0.1; 3], [0.0; 3]);
    let grid = BlockGrid::new(global, Decomp::single(), 0);
    let interior: Vec<f64> = (0..grid.local_n.iter().product())
        .map(|i| (i % 13) as f64 * 0.25 + 1.0)
        .collect();
    let dev = Threads::new(2, Recorder::disabled());
    let ctx: RankCtx<f64, _, SelfComm<f64>> = RankCtx::new(dev, SelfComm::default(), grid);
    let b = Field::from_interior(&ctx.dev, &ctx.grid, &interior);
    let x0 = ctx.field();
    let mut x = ctx.field();
    let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
    let opts = SolverOptions {
        eig_min_factor: 10.0,
        ..SolverOptions::default()
    };
    let mut precs = [
        SolverKind::BiCgs.build_preconditioner(&ctx, &opts),
        SolverKind::BiCgsGCi.build_preconditioner(&ctx, &opts),
    ];
    // An unreachable tolerance pins the iteration count so the audit
    // covers full steady-state loop bodies.
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

    // Warm-up: lazily built preconditioner state and the communicator's
    // loopback queues.
    solve_all(&mut x);
    let before = ALLOCS.load(Ordering::Relaxed);
    solve_all(&mut x);
    let n = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(
        n, 0,
        "{n} heap allocations in steady-state Threads solves (caller and pool workers)"
    );
}

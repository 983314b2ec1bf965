//! Steady-state allocation audit of the halo-exchange path.
//!
//! The halo exchange recycles its face buffers through a per-axis
//! pool and the in-process communicator reuses its per-(peer, tag) message
//! queues, so after a short warm-up no exchange — synchronous or
//! split-phase — may touch the heap. A counting global allocator with a
//! per-thread counter verifies exactly that: each rank thread counts only
//! its own allocations, so no cross-rank synchronisation is needed.
//!
//! This file holds a single test on purpose: a `#[global_allocator]`
//! is binary-wide, and a lone test keeps other harness threads from
//! muddying the audit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use accel::{Recorder, Serial};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid, HaloExchange};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder};

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
fn halo_exchange_is_allocation_free_after_warmup() {
    let decomp = Decomp::new([2, 2, 2]);
    let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
    let counts = run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, move |comm| {
        let dev = Serial::new(Recorder::disabled());
        let grid = BlockGrid::new(global.clone(), decomp, comm.rank());
        let interior: Vec<f64> = (0..grid.local_n.iter().product())
            .map(|i| i as f64 * 0.25 + 1.0)
            .collect();
        let mut field = Field::from_interior(&dev, &grid, &interior);
        let interior32: Vec<f32> = interior.iter().map(|&v| v as f32).collect();
        let mut field32 = Field::from_interior(&dev, &grid, &interior32);
        let halo = HaloExchange::new(&grid);

        // Warm-up: populate the buffer pool and the communicator's
        // message queues on both flavours of the exchange, in both
        // precisions (the f32 path has its own tag band).
        for _ in 0..3 {
            halo.exchange(&dev, &comm, &mut field);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
            halo.exchange(&dev, &comm, &mut field32);
            let pending = halo.begin(&dev, &comm, &field32);
            halo.finish(&dev, &comm, pending, &mut field32);
        }
        // Make sure every rank is warm before anyone starts counting
        // (a cold neighbour would still only bump its *own* counter,
        // but the barrier keeps the steady-state claim honest).
        comm.all_reduce(&mut [0.0f64], ReduceOp::Sum);

        let before = my_allocs();
        for _ in 0..5 {
            halo.exchange(&dev, &comm, &mut field);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
            halo.exchange(&dev, &comm, &mut field32);
            let pending = halo.begin(&dev, &comm, &field32);
            halo.finish(&dev, &comm, pending, &mut field32);
        }
        my_allocs() - before
    });
    for (rank, &n) in counts.iter().enumerate() {
        assert_eq!(
            n, 0,
            "rank {rank}: {n} heap allocations in the steady-state halo path"
        );
    }
}

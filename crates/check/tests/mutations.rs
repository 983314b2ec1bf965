//! Seeded-mutation tests: each classic defect must be caught with an
//! actionable diagnostic (naming kernel, rank and tag), never a hang.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

use accel::{
    AnyDevice, Device, GpuSimParams, KernelInfo, Recorder, RowMap, Serial, SimGpu, Threads,
};
use blockgrid::{BlockGrid, Decomp, Field, GlobalGrid, HaloExchange};
use check::{try_run_ranks_checked, CheckConfig, Checked, VerifiedComm};
use comm::{CommStats, Communicator, ReduceOp, Tag};

/// A raw pointer into a launch's buffer, written from inside a kernel
/// body that owns other rows — the seeded mutants below.
struct Esc(*mut f64);
// SAFETY: deliberately unsound test fixture — the pointer is written from
// inside a kernel that owns only other rows, exactly the seeded mutant the
// sanitizer exists to catch. Each escaped write lands on a cell no other
// owner touches, so the write itself is not a data race.
unsafe impl Send for Esc {}
// SAFETY: see above.
unsafe impl Sync for Esc {}
impl Esc {
    // Accessor so a closure captures `&Esc` (Sync) rather than the
    // raw-pointer field itself.
    fn ptr(&self) -> *mut f64 {
        self.0
    }
}

/// Mutation 1: a kernel that escapes its row slice through a raw pointer
/// (the bug class `RowMap` validation cannot see). The sanitizer's
/// snapshot diff must name the kernel and the out-of-map cell.
#[test]
fn seeded_out_of_row_write_is_caught() {
    let dev = Checked::new(Serial::new(Recorder::disabled()));
    let mut out = vec![0.0f64; 16];
    let esc = Esc(out.as_mut_ptr());
    // Rows cover [4, 8) and [10, 14); element 0 is unmapped.
    let map = RowMap {
        base: 4,
        len: 4,
        ny: 2,
        nz: 1,
        sy: 6,
        sz: 16,
    };
    let err = catch_unwind(AssertUnwindSafe(|| {
        dev.launch_rows(
            KernelInfo::new("KernelBiCGS1Mutant", 8, 0),
            map,
            &mut out,
            |j, _, row| {
                row[0] = 1.0;
                if j == 1 {
                    // SAFETY: intentionally violates the row-exclusive
                    // contract (writes unmapped element 0) — the mutant.
                    unsafe { *esc.ptr() = 99.0 };
                }
            },
        );
    }))
    .expect_err("the sanitizer must flag the escaped write");
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("KernelBiCGS1Mutant"), "{msg}");
    assert!(msg.contains("element 0"), "{msg}");
    assert!(msg.contains("escaped its row slice"), "{msg}");
}

/// The launch of the run-body mutants: rows of 4 cells, 6 apart, so
/// cells 4 and 5 of each stride are ghosts.
const RUNS: RowMap = RowMap {
    base: 0,
    len: 4,
    ny: 3,
    nz: 2,
    sy: 6,
    sz: 18,
};

/// Mutation 1b: a run body — one call per run of rows, the shape every
/// stencil sweep launches with — that writes one cell past the end of
/// each row it was handed, onto the ghost column between two rows. The
/// runs are row-exact, so the cell is outside the launch's map and the
/// snapshot diff must flag it, on every back-end.
#[test]
fn seeded_run_body_writing_past_its_row_is_caught() {
    let devices = [
        AnyDevice::Serial(Serial::new(Recorder::disabled())),
        AnyDevice::Threads(Threads::new(2, Recorder::disabled())),
        AnyDevice::SimGpu(SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled())),
    ];
    for inner in devices {
        let name = inner.name();
        let dev = Checked::new(inner);
        let mut out = vec![0.0f64; 36];
        let esc = Esc(out.as_mut_ptr());
        let err = catch_unwind(AssertUnwindSafe(|| {
            dev.launch_runs(
                KernelInfo::new("KernelRunMutant", 8, 0),
                RUNS,
                &mut [&mut out[..]],
                [],
                &mut [[]],
                |_, run, _| {
                    let k = run.k;
                    for (j, row) in run.rows() {
                        row.fill(1.0);
                        // SAFETY: intentionally violates the row-exclusive
                        // contract (the cell after the row) — the mutant.
                        unsafe { *esc.ptr().add(RUNS.row_offset(j, k) + RUNS.len) = 99.0 };
                    }
                },
            );
        }))
        .expect_err("the sanitizer must flag the escaped write");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("KernelRunMutant"), "{name}: {msg}");
        assert!(msg.contains("element 4"), "{name}: {msg}");
        assert!(msg.contains("escaped its row slice"), "{name}: {msg}");
    }
}

/// Mutation 1c: a three-output run launch — the shape of the fused
/// `KernelBiCGS456` sweep, which writes `r`, `p` and `x` — whose body
/// writes one cell past each row of its *third* output only. The
/// snapshot diff must audit every output, not just the first two.
#[test]
fn seeded_third_output_write_past_its_row_is_caught() {
    for spec in ["serial", "threads:2", "mi250x"] {
        let dev = Checked::new(AnyDevice::from_spec(spec, Recorder::disabled()).unwrap());
        let mut bufs = [[0.0f64; 36]; 3];
        let esc = Esc(bufs[2].as_mut_ptr());
        let [r, p, x] = &mut bufs;
        let err = catch_unwind(AssertUnwindSafe(|| {
            let (p, x) = (&mut [&mut p[..]], &mut [&mut x[..]]);
            let outs = [(RUNS, &mut p[..]), (RUNS, &mut x[..])];
            dev.launch_runs(
                KernelInfo::new("KernelThirdOutputMutant", 24, 0),
                RUNS,
                &mut [&mut r[..]],
                outs,
                &mut [[]],
                |_, run, _| {
                    let k = run.k;
                    for (j, r, [p, x]) in run.rows_n() {
                        r.fill(1.0);
                        p.fill(2.0);
                        x.fill(3.0);
                        // SAFETY: intentionally violates the row-exclusive
                        // contract of the third output — the mutant.
                        unsafe { *esc.ptr().add(RUNS.row_offset(j, k) + RUNS.len) = 99.0 };
                    }
                },
            );
        }))
        .expect_err("the sanitizer must flag the escaped third-output write");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("KernelThirdOutputMutant"), "{spec}: {msg}");
        assert!(msg.contains("element 4"), "{spec}: {msg}");
        assert!(msg.contains("escaped its row slice"), "{spec}: {msg}");
    }
}

/// Forwarding communicator that swaps the two x-axis face tags on every
/// send — the classic copy-paste halo bug.
struct TagSwapper(VerifiedComm<f64>);

impl Communicator<f64> for TagSwapper {
    fn rank(&self) -> usize {
        self.0.rank()
    }
    fn size(&self) -> usize {
        self.0.size()
    }
    fn send(&self, dest: usize, tag: Tag, data: Vec<f64>) {
        let mutated = match tag {
            0 => 1,
            1 => 0,
            t => t,
        };
        self.0.send(dest, mutated, data);
    }
    fn recv(&self, src: usize, tag: Tag) -> Vec<f64> {
        self.0.recv(src, tag)
    }
    fn all_reduce(&self, vals: &mut [f64], op: ReduceOp) {
        self.0.all_reduce(vals, op);
    }
    fn barrier(&self) {
        self.0.barrier();
    }
    fn stats(&self) -> CommStats {
        self.0.stats()
    }
    fn recorder(&self) -> &Recorder {
        self.0.recorder()
    }
}

/// Mutation 2: a swapped halo tag deadlocks both ranks' receives. The
/// verifier must diagnose the cycle with ranks and tags instead of
/// hanging the test suite.
#[test]
fn seeded_swapped_halo_tag_is_diagnosed() {
    let decomp = Decomp::new([2, 1, 1]);
    let config = CheckConfig {
        deadlock_window: Duration::from_millis(100),
        ..Default::default()
    };
    let failure = try_run_ranks_checked::<f64, _, _>(2, config, move |comm| {
        let comm = TagSwapper(comm);
        let dev = Serial::new(Recorder::disabled());
        let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, decomp, comm.rank());
        let mut field = Field::<f64>::zeros(&dev, &grid);
        let halo = HaloExchange::new(&grid);
        halo.exchange(&dev, &comm, &mut field);
    })
    .expect_err("the verifier must diagnose the swapped-tag deadlock");
    let text = failure.to_string();
    assert!(text.contains("deadlock"), "{text}");
    assert!(text.contains("blocked in recv"), "{text}");
    // Both swapped channels appear with rank + tag provenance.
    assert!(text.contains("tag=0") || text.contains("tag=1"), "{text}");
    assert!(text.contains("rank 0") && text.contains("rank 1"), "{text}");
}

/// Mutation 3: an `irecv` whose request is dropped without `wait`. The
/// teardown audit must name the rank, source and tag of the dropped
/// request and the matching unmatched send.
#[test]
fn seeded_dropped_wait_is_reported() {
    let failure = try_run_ranks_checked::<f64, _, _>(2, CheckConfig::default(), |comm| {
        if comm.rank() == 0 {
            let _dropped = comm.irecv(1, 7);
            // ...the mutant forgets comm.wait(_dropped)
        } else {
            comm.send(0, 7, vec![1.0, 2.0]);
        }
        comm.barrier();
    })
    .expect_err("the teardown audit must flag the dropped request");
    let text = failure.to_string();
    assert!(text.contains("irecv(src=1, tag=7)"), "{text}");
    assert!(text.contains("never completed"), "{text}");
    assert!(text.contains("unmatched send"), "{text}");
    assert!(
        text.contains("rank 1 sent 1 message(s) to rank 0"),
        "{text}"
    );
}

/// Mutation 4: a split sweep whose window reaches one cell into an
/// in-flight face — by a widened map, or by an operator that believes
/// the subdomain has no neighbour. Both read a ghost the exchange has
/// not delivered; the exchange-hazard hooks must name the kernel and the
/// face. The production window, and any sweep after `finish`, stay clean.
#[test]
fn seeded_window_into_an_in_flight_face_is_caught() {
    use check::{Policy, Violation};
    use stencil::{apply_physical_bcs, Laplacian, INFO_APPLY};

    let ns = [2, 1, 1];
    let reports = try_run_ranks_checked::<f64, _, _>(2, CheckConfig::default(), move |comm| {
        let dev = Checked::with_policy(Serial::new(Recorder::disabled()), Policy::Record);
        let global = GlobalGrid::dirichlet([10, 5, 6], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, Decomp::new(ns), comm.rank());
        let alone = BlockGrid::new(
            GlobalGrid::dirichlet(grid.local_n, [0.1; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        let mut u = Field::from_interior(&dev, &grid, &vec![1.0; 5 * 5 * 6]);
        let mut w = Field::zeros(&dev, &grid);
        let halo = HaloExchange::new(&grid);
        let lap = Laplacian::new(&grid);
        let window = RowMap::halo_window(grid.interior(), grid.interface_mask()).expect("window");
        // one more cell per row, toward this rank's interface x face
        let widened = RowMap {
            base: window.base - comm.rank(),
            len: window.len + 1,
            ..window
        };

        let pending = halo.begin(&dev, &comm, &u);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        lap.apply_interior(&dev, INFO_APPLY, &u, &mut w);
        let clean_in_flight = dev.report().snapshot();
        dev.on_stencil_read("KernelWidenedWindow", widened, u.as_slice());
        Laplacian::new(&alone).apply_interior(&dev, INFO_APPLY, &u, &mut w);
        let caught = dev.report().snapshot();
        halo.finish(&dev, &comm, pending, &mut u);
        lap.apply_shell(&dev, INFO_APPLY, &u, &mut w);
        dev.on_stencil_read("KernelWidenedWindow", widened, u.as_slice());
        (clean_in_flight, caught, dev.report().snapshot().len())
    })
    .expect("the communication itself is correct");
    for (rank, (clean_in_flight, caught, total)) in reports.into_iter().enumerate() {
        assert!(
            clean_in_flight.is_empty(),
            "rank {rank}: the production window: {clean_in_flight:?}"
        );
        let side = 1 - rank;
        assert_eq!(caught.len(), 2, "rank {rank}: {caught:?}");
        assert_eq!(total, 2, "rank {rank}: a sweep after finish() is legal");
        for (v, kernel) in caught.iter().zip(["KernelWidenedWindow", INFO_APPLY.name]) {
            assert!(
                matches!(v, Violation::InFlightGhostRead { kernel: k, axis: 0, side: s, .. }
                    if *k == kernel && *s == side),
                "rank {rank}: {v}"
            );
            let text = v.to_string();
            assert!(
                text.contains(kernel) && text.contains("still in flight"),
                "{text}"
            );
        }
    }
}

/// Mutually-blocked receives with no message in flight: the pure
/// deadlock, found by the polling detector without any watchdog.
#[test]
fn mutual_recv_deadlock_is_detected() {
    let config = CheckConfig {
        deadlock_window: Duration::from_millis(100),
        ..Default::default()
    };
    let failure = try_run_ranks_checked::<f64, _, _>(2, config, |comm| {
        let peer = 1 - comm.rank();
        let _ = comm.recv(peer, 9);
    })
    .expect_err("mutual recv must be declared a deadlock");
    let text = failure.to_string();
    assert!(text.contains("deadlock"), "{text}");
    assert!(text.contains("recv(src="), "{text}");
    assert!(text.contains("tag=9"), "{text}");
}

/// Mismatched collectives (different vector lengths for the same global
/// call) are refused before the engine can fold them.
#[test]
fn collective_length_mismatch_is_diagnosed() {
    let failure = try_run_ranks_checked::<f64, _, _>(2, CheckConfig::default(), |comm| {
        if comm.rank() == 0 {
            let mut v = [1.0];
            comm.all_reduce(&mut v, ReduceOp::Sum);
        } else {
            let mut v = [1.0, 2.0];
            comm.all_reduce(&mut v, ReduceOp::Sum);
        }
    })
    .expect_err("length mismatch must be diagnosed");
    let text = failure.to_string();
    assert!(text.contains("collective mismatch"), "{text}");
    assert!(text.contains("len=1") || text.contains("len=2"), "{text}");
}

/// A rank that skips a collective leaves the peer stuck inside the
/// engine where no receive polls — only the opt-in watchdog can abort.
#[test]
fn watchdog_aborts_a_hung_collective() {
    let config = CheckConfig {
        timeout: Some(Duration::from_millis(300)),
        ..Default::default()
    };
    let failure = try_run_ranks_checked::<f64, _, _>(2, config, |comm| {
        if comm.rank() == 1 {
            // LINT: collective-uniform(deliberately hung collective — the
            // watchdog abort is what this test exercises)
            comm.barrier(); // rank 0 never arrives
        }
    })
    .expect_err("the watchdog must abort the hung barrier");
    let text = failure.to_string();
    assert!(text.contains("watchdog"), "{text}");
    assert!(text.contains("blocked in barrier"), "{text}");
}

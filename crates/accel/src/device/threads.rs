//! Threaded CPU back-end (alpaka's OpenMP-blocks analogue).
//!
//! Every launch splits its rows into one contiguous chunk per participant
//! of a persistent [`ThreadPool`] team ([`chunk_range`]) and runs chunk `c`
//! on participant `c % n` — the launching thread is participant 0 — so a
//! thread sweeps the same rows in every launch, one run per plane its
//! chunk touches. Each chunk folds its rows in order into a local partial
//! per lane; the partials land in slots on the launcher's stack and are
//! merged in chunk order, so a launch touches no heap and its result
//! depends only on the row count and the team size.

use std::ops::Range;
use std::sync::Arc;

use crate::events::{KernelInfo, Recorder};
use crate::index::{chunk_range, RowMap, Run, SendPtr};
use crate::pool::ThreadPool;
use crate::scalar::{add_partials, Scalar};

use super::{Device, DeviceKind};

/// Partial slots of one pool run, kept on the launcher's stack: one per
/// chunk on a team of up to 64 participants, one per (chunk, lane) for 32
/// lanes on a team of two. Wider lane sets run in groups of lanes.
const SLOTS: usize = 64;

/// Multi-threaded CPU device.
///
/// Rows are split into one contiguous chunk per participant; each
/// participant folds its rows in order and chunk partials are merged in
/// chunk order. The result is deterministic for a fixed participant count
/// but uses a different floating-point summation grouping than
/// [`super::Serial`] — the same effect an OpenMP `reduction(+:...)` clause
/// has on the paper's LUMI-C runs, and the reason their CPU back-end needs
/// more iterations than the GPU ones on the small problem.
#[derive(Clone)]
pub struct Threads {
    pool: Arc<ThreadPool>,
    recorder: Recorder,
}

impl Threads {
    /// Create a device with a team of `threads >= 1` participants: the
    /// launching thread and `threads − 1` pool workers.
    pub fn new(threads: usize, recorder: Recorder) -> Self {
        Self {
            pool: Arc::new(ThreadPool::new(threads)),
            recorder,
        }
    }

    /// Number of threads a launch runs on.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    fn chunks_for(&self, rows: usize) -> usize {
        // One chunk per participant, but never more chunks than rows or
        // than partial slots.
        self.pool.size().min(rows).clamp(1, SLOTS)
    }

    /// Run `chunk(s, rows)` for every lane `s < accs.len()` over every
    /// chunk of `0..rows` — lane by lane within a chunk, each lane's partial
    /// in a local — and merge each lane's chunk partials in chunk order
    /// into `accs[s]`.
    ///
    /// Chunk geometry depends on `rows` only, never on the lane count, so
    /// each lane's partials are grouped exactly as a one-lane launch groups
    /// them — a lane sweep stays bitwise equal to a solo sweep per lane.
    fn sweep<T: Scalar, const NR: usize>(
        &self,
        rows: usize,
        accs: &mut [[T; NR]],
        chunk: impl Fn(usize, Range<usize>) -> [T; NR] + Sync,
    ) {
        let chunks = self.chunks_for(rows);
        let lanes_per_run = SLOTS / chunks;
        for (g, group) in accs.chunks_mut(lanes_per_run).enumerate() {
            let first = g * lanes_per_run;
            let nl = group.len();
            // Chunk c owns slots [c * nl, (c + 1) * nl).
            let mut partials = [[T::ZERO; NR]; SLOTS];
            let partials_ptr = SendPtr(partials.as_mut_ptr());
            self.pool.run_chunks(chunks, &|c| {
                let slots = partials_ptr;
                for l in 0..nl {
                    let acc = chunk(first + l, chunk_range(rows, chunks, c));
                    // SAFETY: `c * nl + l < chunks * nl <= SLOTS`, the slot
                    // belongs to chunk `c` alone, and `partials` outlives
                    // `run_chunks`, which waits for every participant.
                    unsafe { *slots.0.add(c * nl + l) = acc };
                }
            });
            for (l, acc) in group.iter_mut().enumerate() {
                *acc = (0..chunks)
                    .map(|c| partials[c * nl + l])
                    .fold([T::ZERO; NR], add_partials);
            }
        }
    }
}

/// Base pointer of lane `s` of a lane table, read without reborrowing the
/// lane: every participant reads the table at once.
///
/// # Safety
/// `table` must point to a live table of more than `s` lanes.
unsafe fn lane_ptr<T>(table: SendPtr<&mut [T]>, s: usize) -> SendPtr<T> {
    // SAFETY: the caller guarantees `s` is in bounds of a live table; the
    // place is only addressed, no reference to the lane is created.
    SendPtr(unsafe { std::ptr::addr_of_mut!(**table.0.add(s)) }.cast::<T>())
}

impl Device for Threads {
    fn name(&self) -> String {
        format!("cpu-threads({})", self.pool.size())
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::CpuThreads {
            threads: self.pool.size(),
        }
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    fn launch_runs<T: Scalar, F, const NR: usize, const N: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &mut [&mut [T]],
        outs: [(RowMap, &mut [&mut [T]]); N],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, Run<'_, T, N>, &mut [T; NR]) + Sync,
    {
        super::validate_runs(&map, lanes, &outs, accs.len());
        if lanes.is_empty() {
            return;
        }
        self.recorder.kernel(info, map.elems() * lanes.len());
        let table = SendPtr(lanes.as_mut_ptr());
        let outs = outs.map(|(m, l)| (m, SendPtr(l.as_mut_ptr())));
        self.sweep(map.rows(), accs, |s, rows| {
            // SAFETY: `s < accs.len()`, the length of every lane table.
            let a = unsafe { lane_ptr(table, s) };
            // SAFETY: as above.
            let b = outs.map(|(m, t)| (m, unsafe { lane_ptr(t, s) }));
            let mut acc = [T::ZERO; NR];
            for (k, js) in map.runs(rows) {
                // SAFETY: the maps validated against every lane slice of
                // their buffer; lane slices are disjoint `&mut` borrows and
                // each row belongs to exactly one chunk, so no two
                // participants ever touch the same (lane, row).
                let run =
                    unsafe { Run::from_raw(k, js, (&map, a), b.each_ref().map(|(m, p)| (m, *p))) };
                f(s, run, &mut acc);
            }
            acc
        });
    }

    fn launch_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        ny: usize,
        nz: usize,
        f: F,
    ) -> [T; NR]
    where
        F: Fn(usize, usize) -> [T; NR] + Sync,
    {
        self.recorder.kernel(info, ny * nz);
        let mut acc = [[T::ZERO; NR]];
        self.sweep(ny * nz, &mut acc, |_, rows| {
            let mut acc = [T::ZERO; NR];
            for r in rows {
                acc = add_partials(acc, f(r % ny, r / ny));
            }
            acc
        });
        acc[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Serial;
    use crate::index::Extent3;

    const INFO: KernelInfo = KernelInfo::new("test", 8, 1);

    #[test]
    fn matches_serial_elementwise() {
        let e = Extent3::new(5, 7, 3);
        let map = RowMap::halo_interior(e);
        let padded = 7 * 9 * 5;
        let mut a = vec![0.0f64; padded];
        let mut b = vec![0.0f64; padded];
        let kernel = |j: usize, k: usize, row: &mut [f64]| {
            for (i, v) in row.iter_mut().enumerate() {
                *v = (i + 10 * j + 100 * k) as f64;
            }
        };
        Serial::new(Recorder::disabled()).launch_rows(INFO, map, &mut a, kernel);
        Threads::new(4, Recorder::disabled()).launch_rows(INFO, map, &mut b, kernel);
        assert_eq!(a, b);
    }

    #[test]
    fn reduction_equals_serial_on_exact_values() {
        // Integer-valued floats sum exactly, so grouping cannot matter here.
        let map = RowMap::contiguous(1000);
        let mut out = vec![0.0f64; 1000];
        let dev = Threads::new(3, Recorder::disabled());
        let [s] = dev.launch_rows_reduce(INFO, map, &mut out, |_, _, row| {
            let mut acc = 0.0;
            for (i, v) in row.iter_mut().enumerate() {
                *v = i as f64;
                acc += i as f64;
            }
            [acc]
        });
        assert_eq!(s, (0..1000).sum::<usize>() as f64);
    }

    #[test]
    fn deterministic_across_repeats() {
        let dev = Threads::new(4, Recorder::disabled());
        let data: Vec<f64> = (0..997).map(|i| 1.0 / (i as f64 + 1.0)).collect();
        let reduce = || {
            let [s] = dev.launch_reduce(INFO, 997, 1, |j, _| [data[j] * data[j]]);
            s
        };
        let first = reduce();
        for _ in 0..10 {
            assert_eq!(reduce().to_bits(), first.to_bits());
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let dev = Threads::new(16, Recorder::disabled());
        let mut out = vec![0.0f64; 3];
        let map = RowMap::contiguous(3);
        dev.launch_rows(INFO, map, &mut out, |_, _, row| {
            for v in row.iter_mut() {
                *v += 1.0;
            }
        });
        assert_eq!(out, vec![1.0; 3]);
    }

    #[test]
    fn two_map_launch_matches_serial() {
        use crate::device::{GpuSimParams, SimGpu};
        let e = Extent3::new(5, 4, 3);
        let map_a = RowMap::halo_interior(e);
        // Second buffer: one slot per row, same (ny, nz) row set.
        let map_b = RowMap {
            base: 0,
            len: 1,
            ny: map_a.ny,
            nz: map_a.nz,
            sy: 1,
            sz: map_a.ny,
        };
        let padded = 7 * 6 * 5;
        let kernel = |_: usize, j: usize, k: usize, a: &mut [f64], [b]: [&mut [f64]; 1]| {
            let mut s = 0.0;
            for (i, v) in a.iter_mut().enumerate() {
                *v = (i + 3 * j + 7 * k) as f64;
                s += *v;
            }
            b[0] = s;
            [s]
        };
        #[allow(clippy::type_complexity)]
        let run = |dev: &dyn Fn(&mut [&mut [f64]], &mut [&mut [f64]], &mut [[f64; 1]])| {
            let mut a = vec![0.0f64; padded];
            let mut b = vec![0.0f64; map_a.rows()];
            let mut s = [[0.0f64]];
            dev(&mut [&mut a[..]], &mut [&mut b[..]], &mut s);
            (a, b, s)
        };
        let (a0, b0, s0) = run(&|a, b, s| {
            let dev = Serial::new(Recorder::disabled());
            dev.launch_lanes_n_reduce(INFO, map_a, a, [(map_b, b)], s, kernel)
        });
        let (a1, b1, s1) = run(&|a, b, s| {
            let dev = Threads::new(3, Recorder::disabled());
            dev.launch_lanes_n_reduce(INFO, map_a, a, [(map_b, b)], s, kernel)
        });
        let (a2, b2, s2) = run(&|a, b, s| {
            let dev = SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled());
            dev.launch_lanes_n_reduce(INFO, map_a, a, [(map_b, b)], s, kernel)
        });
        assert_eq!(a0, a1);
        assert_eq!(a0, a2);
        assert_eq!(b0, b1);
        assert_eq!(b0, b2);
        // Integer-valued sums are exact under any grouping.
        assert_eq!(s0, s1);
        assert_eq!(s0, s2);
    }

    #[test]
    fn pure_reduce_matches_serial() {
        let th = Threads::new(4, Recorder::disabled());
        let se = Serial::new(Recorder::disabled());
        let f = |j: usize, k: usize| [(j * 3 + k) as f64, (j + k) as f64];
        let a: [f64; 2] = th.launch_reduce(INFO, 13, 9, f);
        let b: [f64; 2] = se.launch_reduce(INFO, 13, 9, f);
        assert_eq!(a, b);
    }

    #[test]
    fn lanes_beyond_one_pool_run_stay_bitwise_solo() {
        // 16 chunks leave SLOTS / 16 = 4 lanes per pool run, so 9 lanes
        // take three runs; each lane must still match its solo launch.
        let dev = Threads::new(16, Recorder::disabled());
        let e = Extent3::new(3, 4, 5);
        let map = RowMap::halo_interior(e);
        let padded = 5 * 6 * 7;
        let kernel = |s: usize, j: usize, k: usize, row: &mut [f64]| {
            let mut acc = 0.0;
            for (i, v) in row.iter_mut().enumerate() {
                *v = 1.0 / ((s * 1000 + k * 100 + j * 10 + i) as f64 + 3.0);
                acc += *v * *v;
            }
            [acc, *row.last().unwrap()]
        };
        let mut fields = vec![vec![0.0f64; padded]; 9];
        let mut lanes: Vec<&mut [f64]> = fields.iter_mut().map(|f| f.as_mut_slice()).collect();
        let mut accs = [[0.0f64; 2]; 9];
        dev.launch_lanes_reduce(INFO, map, &mut lanes, &mut accs, kernel);
        for (s, field) in fields.iter().enumerate() {
            let mut solo = vec![0.0f64; padded];
            let r = dev.launch_rows_reduce(INFO, map, &mut solo, |j, k, row| kernel(s, j, k, row));
            assert_eq!(accs[s].map(f64::to_bits), r.map(f64::to_bits), "lane {s}");
            assert_eq!(field, &solo, "lane {s}");
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::device::{GpuSimParams, Serial, SimGpu};
    use crate::index::Extent3;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn all_backends_agree_elementwise_on_random_shapes(
            nx in 1usize..12, ny in 1usize..12, nz in 1usize..12,
            threads in 1usize..6,
            block_rows in 1usize..9,
            seed in 0u64..u64::MAX,
        ) {
            let info = KernelInfo::new("prop", 8, 1);
            let e = Extent3::new(nx, ny, nz);
            let map = RowMap::halo_interior(e);
            let padded = (nx + 2) * (ny + 2) * (nz + 2);
            let kernel = move |j: usize, k: usize, row: &mut [f64]| {
                let mut acc = 0.0f64;
                for (i, v) in row.iter_mut().enumerate() {
                    let x = ((i as u64 ^ seed)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add((j * 131 + k) as u64) >> 33) as f64;
                    *v = x / 1e6 + 0.25;
                    acc += *v;
                }
                [acc]
            };
            let mut a = vec![0.0f64; padded];
            let mut b = vec![0.0f64; padded];
            let mut c = vec![0.0f64; padded];
            let [sa]: [f64; 1] = Serial::new(Recorder::disabled())
                .launch_rows_reduce(info, map, &mut a, kernel);
            let [sb]: [f64; 1] = Threads::new(threads, Recorder::disabled())
                .launch_rows_reduce(info, map, &mut b, kernel);
            let [sc]: [f64; 1] = SimGpu::new(
                GpuSimParams { name: "prop", block_rows },
                Recorder::disabled(),
            ).launch_rows_reduce(info, map, &mut c, kernel);
            prop_assert_eq!(&a, &b, "threads elementwise");
            prop_assert_eq!(&a, &c, "simgpu elementwise");
            // reductions agree up to grouping-induced rounding
            let scale = sa.abs().max(1.0);
            prop_assert!((sa - sb).abs() < 1e-9 * scale);
            prop_assert!((sa - sc).abs() < 1e-9 * scale);
        }
    }
}

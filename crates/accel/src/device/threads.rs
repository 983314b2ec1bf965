//! Threaded CPU back-end (alpaka's OpenMP-blocks analogue).

use std::sync::Arc;

use crate::events::{KernelInfo, Recorder};
use crate::index::{chunk_range, row_slice_mut, RowMap, SendPtr};
use crate::pool::ThreadPool;
use crate::scalar::{add_partials, Scalar};

use super::{Device, DeviceKind};

/// Multi-threaded CPU device.
///
/// Rows are split into one contiguous chunk per worker; each worker folds
/// its rows in order and chunk partials are merged in chunk order. The
/// result is deterministic for a fixed worker count but uses a different
/// floating-point summation grouping than [`super::Serial`] — the same
/// effect an OpenMP `reduction(+:...)` clause has on the paper's LUMI-C
/// runs, and the reason their CPU back-end needs more iterations than the
/// GPU ones on the small problem.
#[derive(Clone)]
pub struct Threads {
    pool: Arc<ThreadPool>,
    recorder: Recorder,
}

impl Threads {
    /// Create a device with `threads >= 1` pool workers.
    pub fn new(threads: usize, recorder: Recorder) -> Self {
        Self {
            pool: Arc::new(ThreadPool::new(threads)),
            recorder,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.size()
    }

    fn chunks_for(&self, rows: usize) -> usize {
        // One chunk per worker, but never more chunks than rows.
        self.pool.size().min(rows).max(1)
    }
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

    fn launch_rows_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        out: &mut [T],
        f: F,
    ) -> [T; NR]
    where
        F: Fn(usize, usize, &mut [T]) -> [T; NR] + Sync,
    {
        map.validate(out.len());
        self.recorder.kernel(info, map.elems());
        let rows = map.rows();
        let chunks = self.chunks_for(rows);
        // Lock-free partial collection: each chunk writes only its own slot,
        // so no synchronization beyond the pool's completion latch is needed.
        let mut partials: Vec<[T; NR]> = vec![[T::ZERO; NR]; chunks];
        let partials_ptr = SendPtr(partials.as_mut_ptr());
        let ptr = SendPtr(out.as_mut_ptr());
        self.pool.run_chunks(chunks, &|c| {
            let mut acc = [T::ZERO; NR];
            for r in chunk_range(rows, chunks, c) {
                let (j, k) = map.row_jk(r);
                // SAFETY: `map` validated above; each row index `r` belongs
                // to exactly one chunk, so row slices never alias.
                let row = unsafe { row_slice_mut(ptr, &map, j, k) };
                acc = add_partials(acc, f(j, k, row));
            }
            // SAFETY: `c < chunks == partials.len()` and each chunk index is
            // dispatched exactly once, so the writes are disjoint; the Vec
            // outlives `run_chunks`, which joins all workers before returning.
            let slots = partials_ptr;
            unsafe { *slots.0.add(c) = acc };
        });
        // Merge chunk partials in chunk order (deterministic per thread count).
        partials.into_iter().fold([T::ZERO; NR], add_partials)
    }

    fn launch_rows2_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        map_a: RowMap,
        out_a: &mut [T],
        map_b: RowMap,
        out_b: &mut [T],
        f: F,
    ) -> [T; NR]
    where
        F: Fn(usize, usize, &mut [T], &mut [T]) -> [T; NR] + Sync,
    {
        map_a.validate(out_a.len());
        map_b.validate(out_b.len());
        assert_eq!(
            (map_a.ny, map_a.nz),
            (map_b.ny, map_b.nz),
            "two-map launch requires matching row sets"
        );
        self.recorder.kernel(info, map_a.elems());
        let rows = map_a.rows();
        let chunks = self.chunks_for(rows);
        // Same lock-free partial collection and chunk-order merge as
        // launch_rows_reduce, so fused two-buffer sweeps reduce with the
        // identical floating-point grouping as single-buffer ones.
        let mut partials: Vec<[T; NR]> = vec![[T::ZERO; NR]; chunks];
        let partials_ptr = SendPtr(partials.as_mut_ptr());
        let ptr_a = SendPtr(out_a.as_mut_ptr());
        let ptr_b = SendPtr(out_b.as_mut_ptr());
        self.pool.run_chunks(chunks, &|c| {
            let mut acc = [T::ZERO; NR];
            for r in chunk_range(rows, chunks, c) {
                let (j, k) = map_a.row_jk(r);
                // SAFETY: both maps validated above against their own
                // distinct buffers (`out_a`/`out_b` are exclusive borrows);
                // each row index `r` belongs to exactly one chunk, so the
                // row slices of either buffer never alias across workers.
                let row_a = unsafe { row_slice_mut(ptr_a, &map_a, j, k) };
                // SAFETY: as above for the second buffer.
                let row_b = unsafe { row_slice_mut(ptr_b, &map_b, j, k) };
                acc = add_partials(acc, f(j, k, row_a, row_b));
            }
            // SAFETY: `c < chunks == partials.len()` and each chunk index is
            // dispatched exactly once, so the writes are disjoint; the Vec
            // outlives `run_chunks`, which joins all workers before returning.
            let slots = partials_ptr;
            unsafe { *slots.0.add(c) = acc };
        });
        partials.into_iter().fold([T::ZERO; NR], add_partials)
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
        let rows = ny * nz;
        if rows == 0 {
            return [T::ZERO; NR];
        }
        let chunks = self.chunks_for(rows);
        let mut partials: Vec<[T; NR]> = vec![[T::ZERO; NR]; chunks];
        let partials_ptr = SendPtr(partials.as_mut_ptr());
        self.pool.run_chunks(chunks, &|c| {
            let mut acc = [T::ZERO; NR];
            for r in chunk_range(rows, chunks, c) {
                let (j, k) = (r % ny, r / ny);
                acc = add_partials(acc, f(j, k));
            }
            // SAFETY: disjoint per-chunk slot writes (see launch_rows_reduce).
            let slots = partials_ptr;
            unsafe { *slots.0.add(c) = acc };
        });
        partials.into_iter().fold([T::ZERO; NR], add_partials)
    }

    fn launch_lanes_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &mut [&mut [T]],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, usize, usize, &mut [T]) -> [T; NR] + Sync,
    {
        super::validate_lanes(&map, lanes, accs.len());
        if lanes.is_empty() {
            return;
        }
        self.recorder.kernel(info, map.elems() * lanes.len());
        let rows = map.rows();
        // Chunk geometry depends on rows only, never on the lane count, so
        // each lane's partials are grouped exactly as a solo launch would
        // group them — the lane sweep stays bitwise equal per lane.
        let chunks = self.chunks_for(rows);
        let nl = lanes.len();
        // One partial slot per (chunk, lane); chunk c owns the contiguous
        // range [c * nl, (c + 1) * nl).
        let mut partials: Vec<[T; NR]> = vec![[T::ZERO; NR]; chunks * nl];
        let partials_ptr = SendPtr(partials.as_mut_ptr());
        let ptrs: Vec<SendPtr<T>> = lanes.iter_mut().map(|l| SendPtr(l.as_mut_ptr())).collect();
        self.pool.run_chunks(chunks, &|c| {
            // Lane by lane within the chunk, each lane's partial in a
            // local: neighbouring chunks' slots share cache lines, and
            // accumulating in them row by row would bounce those lines
            // between the workers.
            for (s, &ptr) in ptrs.iter().enumerate() {
                let mut acc = [T::ZERO; NR];
                for r in chunk_range(rows, chunks, c) {
                    let (j, k) = map.row_jk(r);
                    // SAFETY: `map` validated against every lane slice; the
                    // lane slices are disjoint `&mut` borrows, and each row
                    // index `r` belongs to exactly one chunk, so no two
                    // workers ever touch the same (lane, row).
                    let row = unsafe { row_slice_mut(ptr, &map, j, k) };
                    acc = add_partials(acc, f(s, j, k, row));
                }
                // SAFETY: slot `c * nl + s` belongs to chunk `c` alone;
                // the Vec outlives `run_chunks`, which joins all workers.
                let slots = partials_ptr;
                unsafe { *slots.0.add(c * nl + s) = acc };
            }
        });
        // Per lane: merge chunk partials in chunk order, the solo grouping.
        for (s, acc) in accs.iter_mut().enumerate() {
            *acc = [T::ZERO; NR];
            for c in 0..chunks {
                *acc = add_partials(*acc, partials[c * nl + s]);
            }
        }
    }

    fn launch_lanes2_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        map_a: RowMap,
        lanes_a: &mut [&mut [T]],
        map_b: RowMap,
        lanes_b: &mut [&mut [T]],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, usize, usize, &mut [T], &mut [T]) -> [T; NR] + Sync,
    {
        super::validate_lanes(&map_a, lanes_a, accs.len());
        super::validate_lanes(&map_b, lanes_b, accs.len());
        assert_eq!(lanes_a.len(), lanes_b.len(), "lane count mismatch");
        assert_eq!(
            (map_a.ny, map_a.nz),
            (map_b.ny, map_b.nz),
            "two-map launch requires matching row sets"
        );
        if lanes_a.is_empty() {
            return;
        }
        self.recorder.kernel(info, map_a.elems() * lanes_a.len());
        let rows = map_a.rows();
        let chunks = self.chunks_for(rows);
        let nl = lanes_a.len();
        let mut partials: Vec<[T; NR]> = vec![[T::ZERO; NR]; chunks * nl];
        let partials_ptr = SendPtr(partials.as_mut_ptr());
        let ptrs_a: Vec<SendPtr<T>> = lanes_a
            .iter_mut()
            .map(|l| SendPtr(l.as_mut_ptr()))
            .collect();
        let ptrs_b: Vec<SendPtr<T>> = lanes_b
            .iter_mut()
            .map(|l| SendPtr(l.as_mut_ptr()))
            .collect();
        self.pool.run_chunks(chunks, &|c| {
            // Lane by lane, partials in locals (see launch_lanes_reduce).
            for s in 0..nl {
                let mut acc = [T::ZERO; NR];
                for r in chunk_range(rows, chunks, c) {
                    let (j, k) = map_a.row_jk(r);
                    // SAFETY: both maps validated against every lane slice
                    // of their buffer; lane slices are disjoint `&mut`
                    // borrows and each row belongs to exactly one chunk.
                    let row_a = unsafe { row_slice_mut(ptrs_a[s], &map_a, j, k) };
                    // SAFETY: as above for the second buffer.
                    let row_b = unsafe { row_slice_mut(ptrs_b[s], &map_b, j, k) };
                    acc = add_partials(acc, f(s, j, k, row_a, row_b));
                }
                // SAFETY: slot `c * nl + s` belongs to chunk `c` alone.
                let slots = partials_ptr;
                unsafe { *slots.0.add(c * nl + s) = acc };
            }
        });
        for (s, acc) in accs.iter_mut().enumerate() {
            *acc = [T::ZERO; NR];
            for c in 0..chunks {
                *acc = add_partials(*acc, partials[c * nl + s]);
            }
        }
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
        let kernel = |j: usize, k: usize, a: &mut [f64], b: &mut [f64]| {
            let mut s = 0.0;
            for (i, v) in a.iter_mut().enumerate() {
                *v = (i + 3 * j + 7 * k) as f64;
                s += *v;
            }
            b[0] = s;
            [s]
        };
        #[allow(clippy::type_complexity)]
        let run = |dev: &dyn Fn(&mut [f64], &mut [f64]) -> [f64; 1]| {
            let mut a = vec![0.0f64; padded];
            let mut b = vec![0.0f64; map_a.rows()];
            let s = dev(&mut a, &mut b);
            (a, b, s)
        };
        let (a0, b0, s0) = run(&|a, b| {
            Serial::new(Recorder::disabled()).launch_rows2_reduce(INFO, map_a, a, map_b, b, kernel)
        });
        let (a1, b1, s1) = run(&|a, b| {
            Threads::new(3, Recorder::disabled())
                .launch_rows2_reduce(INFO, map_a, a, map_b, b, kernel)
        });
        let (a2, b2, s2) = run(&|a, b| {
            SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled())
                .launch_rows2_reduce(INFO, map_a, a, map_b, b, kernel)
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

//! Simulated-GPU back-end.
//!
//! No GPU hardware is available in this environment, so this back-end
//! reproduces the *algorithmically visible* properties of a GPU execution:
//!
//! * **Block-structured work division.** Rows are grouped into thread
//!   blocks of `block_rows` rows, each swept one run per plane it touches;
//!   a real launch would map these to CUDA/HIP
//!   blocks. Block geometry is part of the device identity — "MI250X" and
//!   "H100" presets use different shapes, as the tuned alpaka work
//!   divisions on those chips do.
//! * **Tree reductions.** Per-block partials are combined with a pairwise
//!   binary tree, the canonical GPU reduction order. This produces
//!   different floating-point rounding than the serial or chunked-CPU
//!   orders — the mechanism behind the paper's observation that CPU and
//!   GPU back-ends need different iteration counts.
//! * **Launch accounting.** Every launch is recorded with its element,
//!   byte and flop footprint so `perfmodel` can replay the stream against
//!   real MI250X/H100 bandwidth/latency figures.
//!
//! Execution itself is host-serial: on the single-core evaluation machine,
//! parallel emulation would add noise without changing any observable the
//! reproduction relies on.

use crate::events::{KernelInfo, Recorder};
use crate::index::{RowMap, Run};
use crate::scalar::{add_partials, Scalar};

use super::{Device, DeviceKind};

/// Block geometry and identity of a simulated GPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GpuSimParams {
    /// Device name used in reports ("mi250x", "h100", ...).
    pub name: &'static str,
    /// Rows folded sequentially inside one simulated thread block.
    pub block_rows: usize,
}

impl GpuSimParams {
    /// AMD MI250X GCD preset (LUMI-G node device).
    pub const fn mi250x() -> Self {
        Self {
            name: "mi250x",
            block_rows: 4,
        }
    }

    /// NVIDIA H100 preset (MareNostrum5 accelerated partition device).
    pub const fn h100() -> Self {
        Self {
            name: "h100",
            block_rows: 8,
        }
    }
}

/// Simulated GPU device.
#[derive(Clone)]
pub struct SimGpu {
    params: GpuSimParams,
    recorder: Recorder,
}

impl SimGpu {
    /// Create a simulated GPU with the given geometry.
    pub fn new(params: GpuSimParams, recorder: Recorder) -> Self {
        assert!(params.block_rows >= 1, "block_rows must be >= 1");
        Self { params, recorder }
    }

    /// The device's block geometry.
    pub fn params(&self) -> GpuSimParams {
        self.params
    }
}

/// Pairwise binary-tree combination of block partials (GPU reduction
/// order), in place.
fn tree_reduce<T: Scalar, const NR: usize>(partials: &mut [[T; NR]]) -> [T; NR] {
    let mut len = partials.len();
    if len == 0 {
        return [T::ZERO; NR];
    }
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            partials[i] = add_partials(partials[2 * i], partials[2 * i + 1]);
        }
        if len % 2 == 1 {
            partials[half] = partials[len - 1];
            len = half + 1;
        } else {
            len = half;
        }
    }
    partials[0]
}

impl Device for SimGpu {
    fn name(&self) -> String {
        format!("simgpu-{}", self.params.name)
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::SimGpu {
            block_rows: self.params.block_rows,
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
        mut outs: [(RowMap, &mut [&mut [T]]); N],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, Run<'_, T, N>, &mut [T; NR]) + Sync,
    {
        super::validate_runs(&map, lanes, &outs, accs.len());
        if lanes.is_empty() {
            return;
        }
        // One recorded launch covering all lanes: the batched sweep pays
        // the (modelled) launch latency once, which is exactly the multi-RHS
        // amortization the perfmodel replay credits.
        self.recorder.kernel(info, map.elems() * lanes.len());
        let rows = map.rows();
        let bs = self.params.block_rows;
        let blocks = rows.div_ceil(bs);
        // Lane-major block partials: lane s owns [s*blocks, (s+1)*blocks).
        // Block geometry depends on rows only, so each lane's partials feed
        // the same pairwise tree a solo launch would build — bitwise equal
        // per lane.
        let nl = lanes.len();
        // LINT: alloc-ok(one slot per simulated thread block: unbounded)
        let mut block_partials: Vec<[T; NR]> = vec![[T::ZERO; NR]; blocks * nl];
        for b in 0..blocks {
            for (k, js) in map.runs(b * bs..((b + 1) * bs).min(rows)) {
                for (s, lane) in lanes.iter_mut().enumerate() {
                    let bufs = outs.each_mut().map(|(m, l)| (&*m, &mut *l[s]));
                    let run = Run::new(k, js.start..js.end, (&map, &mut **lane), bufs);
                    f(s, run, &mut block_partials[s * blocks + b]);
                }
            }
        }
        for (acc, partials) in accs.iter_mut().zip(block_partials.chunks_mut(blocks)) {
            *acc = tree_reduce(partials);
        }
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
        let bs = self.params.block_rows;
        let mut block_partials: Vec<[T; NR]> = (0..rows.div_ceil(bs))
            .map(|b| {
                let rows = b * bs..((b + 1) * bs).min(rows);
                rows.fold([T::ZERO; NR], |part, r| {
                    add_partials(part, f(r % ny, r / ny))
                })
            })
            .collect();
        tree_reduce(&mut block_partials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Serial;
    use crate::index::Extent3;

    const INFO: KernelInfo = KernelInfo::new("test", 8, 1);

    #[test]
    fn tree_reduce_exact_values() {
        let mut parts: Vec<[f64; 1]> = (1..=9).map(|i| [i as f64]).collect();
        assert_eq!(tree_reduce(&mut parts), [45.0]);
        let empty: &mut [[f64; 1]] = &mut [];
        assert_eq!(tree_reduce(empty), [0.0]);
        assert_eq!(tree_reduce(&mut [[7.0f64]]), [7.0]);
    }

    #[test]
    fn elementwise_matches_serial() {
        let e = Extent3::new(4, 6, 5);
        let map = RowMap::halo_interior(e);
        let padded = 6 * 8 * 7;
        let mut a = vec![0.0f64; padded];
        let mut b = vec![0.0f64; padded];
        let kernel = |j: usize, k: usize, row: &mut [f64]| {
            for (i, v) in row.iter_mut().enumerate() {
                *v = (i * 31 + j * 7 + k) as f64;
            }
        };
        Serial::new(Recorder::disabled()).launch_rows(INFO, map, &mut a, kernel);
        SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled())
            .launch_rows(INFO, map, &mut b, kernel);
        assert_eq!(a, b);
    }

    #[test]
    fn reduction_exact_on_integers() {
        let dev = SimGpu::new(GpuSimParams::h100(), Recorder::disabled());
        let [s] = dev.launch_reduce(INFO, 37, 11, |j, k| [(j + k) as f64]);
        let expect: f64 = (0..11)
            .flat_map(|k| (0..37).map(move |j| (j + k) as f64))
            .sum();
        assert_eq!(s, expect);
    }

    #[test]
    fn rounding_differs_from_serial_on_inexact_sums() {
        // A sum of many irrational-ish values: tree vs serial grouping
        // should (almost surely) give different last-bit results, which is
        // exactly the nondeterminism mechanism the paper reports.
        let n = 4096;
        let data: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7391).sin() / 3.0).collect();
        let serial = Serial::new(Recorder::disabled());
        let gpu = SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled());
        let [a]: [f64; 1] = serial.launch_reduce(INFO, n, 1, |j, _| [data[j]]);
        let [b]: [f64; 1] = gpu.launch_reduce(INFO, n, 1, |j, _| [data[j]]);
        assert!((a - b).abs() < 1e-12, "same value mathematically");
        assert_ne!(a.to_bits(), b.to_bits(), "different rounding expected");
    }

    #[test]
    fn presets_have_distinct_geometry() {
        assert_ne!(
            GpuSimParams::mi250x().block_rows,
            GpuSimParams::h100().block_rows
        );
    }
}

//! The device abstraction — alpaka's `Acc` in Rust.
//!
//! alpaka selects the accelerator at compile time (`using Acc =
//! alpaka::AccGpuHipRt<...>`) and every kernel is written once against the
//! accelerator concept. Here [`Device`] is the concept: a kernel is a
//! closure over row indices, launched with [`Device::launch_rows_reduce`],
//! and runs unchanged on every back-end. The back-ends are:
//!
//! * [`Serial`] — single-threaded reference back-end; reductions fold in
//!   row order (bitwise-deterministic).
//! * [`Threads`] — shared-memory CPU back-end (alpaka's OpenMP analogue);
//!   rows are split into one chunk per participant of a persistent,
//!   spin-then-park thread team, chunk `c` always runs on participant
//!   `c % n`, and chunk partials are merged in chunk order (deterministic
//!   for a fixed thread count, but a *different* floating-point grouping
//!   than `Serial` — exactly the OpenMP-reduction effect the paper
//!   observes on LUMI-C). A launch allocates nothing and re-raises a
//!   panicking chunk on the launching thread.
//! * [`SimGpu`] — simulated GPU back-end: rows are grouped into thread
//!   blocks, block partials are combined with a pairwise tree as a real GPU
//!   reduction would, and launch/traffic events are recorded for the
//!   performance model. Different "GPUs" use different block shapes, which
//!   reproduces the paper's cross-architecture iteration-count variations.

mod serial;
mod simgpu;
mod threads;

pub use serial::Serial;
pub use simgpu::{GpuSimParams, SimGpu};
pub use threads::Threads;

use crate::events::{KernelInfo, Recorder};
use crate::index::RowMap;
use crate::scalar::Scalar;

/// Description of a split-phase halo exchange in flight, for sanitizer
/// hooks (see [`Device::on_exchange_begin`]).
///
/// While an exchange is pending, the ghost planes named by `faces` belong
/// to the exchange: `finish` will overwrite them with received data, so a
/// kernel writing them in the window races with the unpack. A correctness
/// wrapper (the `check` crate's `Checked<D>`) records these windows and
/// flags offending launches; the production back-ends ignore them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExchangeHazard {
    /// Address of the first element of the field's padded allocation.
    pub base: usize,
    /// Size of one element in bytes.
    pub elem_bytes: usize,
    /// Padded dims of the field (x fastest).
    pub padded: [usize; 3],
    /// Bit `axis * 2 + side` is set when that ghost plane is in flight
    /// (interface faces only; physical-boundary ghosts stay writable).
    pub faces: u8,
}

impl ExchangeHazard {
    /// `true` if the plane at (`axis`, `side`) is part of this hazard.
    pub const fn face_in_flight(&self, axis: usize, side: usize) -> bool {
        self.faces & (1 << (axis * 2 + side)) != 0
    }

    /// Total padded elements covered by the field.
    pub const fn len(&self) -> usize {
        self.padded[0] * self.padded[1] * self.padded[2]
    }

    /// `true` if the field has no elements.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// If the padded linear index `lin` names a cell the in-flight
    /// exchange will overwrite at `finish`, return the `(axis, side)` of
    /// its ghost plane.
    ///
    /// The unpack kernels fill only the *interior cross-section* of each
    /// ghost plane (edges and corners of the padded box are never
    /// received), so a cell counts as hazardous only when its remaining
    /// two coordinates are strictly inside the padded extent.
    pub fn hit(&self, lin: usize) -> Option<(usize, usize)> {
        let [pnx, pny, pnz] = self.padded;
        let i = lin % pnx;
        let j = (lin / pnx) % pny;
        let k = lin / (pnx * pny);
        let coord = [i, j, k];
        let last = [pnx - 1, pny - 1, pnz - 1];
        for axis in 0..3 {
            for side in 0..2 {
                if !self.face_in_flight(axis, side) {
                    continue;
                }
                let plane = if side == 0 { 0 } else { last[axis] };
                if coord[axis] != plane {
                    continue;
                }
                let interior = (0..3)
                    .filter(|&a| a != axis)
                    .all(|a| coord[a] >= 1 && coord[a] < last[a]);
                if interior {
                    return Some((axis, side));
                }
            }
        }
        None
    }

    /// First cell of `map` whose 7-point stencil reads a cell the
    /// in-flight exchange will overwrite, as `(cell, axis, side)`. `map`
    /// indexes a field of this hazard's padded dims.
    pub fn stencil_hit(&self, map: &RowMap) -> Option<(usize, usize, usize)> {
        let strides = [1, self.padded[0], self.padded[0] * self.padded[1]];
        for r in 0..map.rows() {
            let (j, k) = map.row_jk(r);
            let off = map.row_offset(j, k);
            for cell in off..off + map.len {
                let neighbours = strides
                    .iter()
                    .flat_map(|&s| [cell.checked_sub(s), Some(cell + s)])
                    .flatten();
                for n in neighbours.filter(|&n| n < self.len()) {
                    if let Some((axis, side)) = self.hit(n) {
                        return Some((cell, axis, side));
                    }
                }
            }
        }
        None
    }
}

/// Which back-end a device is.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// Single-threaded CPU.
    CpuSerial,
    /// Multi-threaded CPU with the given thread count.
    CpuThreads {
        /// Number of threads a launch runs on (the launching thread
        /// included).
        threads: usize,
    },
    /// Simulated GPU with the given block shape.
    SimGpu {
        /// Rows folded per thread block before the tree reduction.
        block_rows: usize,
    },
}

/// A compute device that can launch kernels (alpaka's accelerator concept).
///
/// Kernels receive each output row `(j, k)` of the launch's [`RowMap`] as an
/// exclusive `&mut [T]` slice and may return `NR` partial sums which the
/// device reduces according to its back-end policy. All solver kernels —
/// the fused `KernelBiCGS1..6`, the Chebyshev kernels and the boundary
/// kernels — are expressed through these two entry points.
pub trait Device: Clone + Send + Sync + 'static {
    /// Human-readable device name for reports.
    fn name(&self) -> String;

    /// Back-end discriminator.
    fn kind(&self) -> DeviceKind;

    /// The event stream this device reports launches to.
    fn recorder(&self) -> &Recorder;

    /// Launch a kernel over the rows of `out` described by `map`, fusing an
    /// `NR`-way sum reduction (the paper's `KernelBiCGS1/3/5` fuse the
    /// stencil apply with local dot products exactly like this).
    fn launch_rows_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        out: &mut [T],
        f: F,
    ) -> [T; NR]
    where
        F: Fn(usize, usize, &mut [T]) -> [T; NR] + Sync;

    /// Launch one fused kernel over *two* row maps at once, fusing an
    /// `NR`-way sum reduction.
    ///
    /// Both maps must agree on `ny`/`nz` (they describe the same logical
    /// row set, possibly with different row lengths and strides into
    /// different buffers). The kernel receives the `(j, k)` row of each
    /// buffer as an exclusive slice. This is the entry point for fused
    /// sweeps that update two fields in one pass (e.g. the fused
    /// `KernelBiCGS56` residual+direction update) and for split stencil
    /// sweeps that deposit per-row dot partials into a slot buffer.
    ///
    /// One launch is recorded, with `map_a.elems()` elements — `info` for
    /// a fused kernel must therefore account for *all* traffic of the
    /// fused sweep per `map_a` element (see [`KernelInfo::fused`]).
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
        F: Fn(usize, usize, &mut [T], &mut [T]) -> [T; NR] + Sync;

    /// Launch a two-map kernel with no reduction (element-wise update of
    /// two buffers in one sweep).
    fn launch_rows2<T: Scalar, F>(
        &self,
        info: KernelInfo,
        map_a: RowMap,
        out_a: &mut [T],
        map_b: RowMap,
        out_b: &mut [T],
        f: F,
    ) where
        F: Fn(usize, usize, &mut [T], &mut [T]) + Sync,
    {
        let _: [T; 0] = self.launch_rows2_reduce(info, map_a, out_a, map_b, out_b, |j, k, a, b| {
            f(j, k, a, b);
            []
        });
    }

    /// Launch a pure reduction kernel over `ny * nz` rows (no output field).
    fn launch_reduce<T: Scalar, F, const NR: usize>(
        &self,
        info: KernelInfo,
        ny: usize,
        nz: usize,
        f: F,
    ) -> [T; NR]
    where
        F: Fn(usize, usize) -> [T; NR] + Sync;

    /// Launch a kernel with no reduction (element-wise update).
    fn launch_rows<T: Scalar, F>(&self, info: KernelInfo, map: RowMap, out: &mut [T], f: F)
    where
        F: Fn(usize, usize, &mut [T]) + Sync,
    {
        let _: [T; 0] = self.launch_rows_reduce(info, map, out, |j, k, row| {
            f(j, k, row);
            []
        });
    }

    /// Lane-batched launch: run the same kernel over every lane of a
    /// multi-RHS batch, amortizing launch overhead across lanes.
    ///
    /// `lanes[s]` is the backing slice of lane `s`'s field; all lanes share
    /// the row map `map`, which must validate against each slice. The
    /// caller passes only the *active* lanes — frozen lanes of a batched
    /// solve are simply omitted, and the kernel receives the slot index
    /// `s` so it can look up per-lane coefficients. Per-lane reduction
    /// results land in `accs[s]`.
    ///
    /// The contract that makes batching safe to adopt incrementally: every
    /// lane's result is **bitwise identical** to a solo
    /// [`Device::launch_rows_reduce`] over that lane's field alone. The
    /// default implementation guarantees this by construction (one solo
    /// launch per lane); back-ends override it with a single sweep over
    /// every lane that keeps one accumulator per lane through the
    /// back-end's exact solo merge structure, recording **one** kernel
    /// launch of `map.elems() * lanes.len()` elements — launch overhead is
    /// paid once per sweep instead of once per lane, which is the batched
    /// path's modelled GPU win. The CPU back-ends sweep lane by lane with
    /// the accumulator in a local, so a one-lane launch — how every
    /// single-field kernel of the solver runs — costs what
    /// [`Device::launch_rows_reduce`] does.
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
        validate_lanes(&map, lanes, accs.len());
        for (s, lane) in lanes.iter_mut().enumerate() {
            accs[s] = self.launch_rows_reduce(info, map, lane, |j, k, row| f(s, j, k, row));
        }
    }

    /// Lane-batched two-buffer launch (see [`Device::launch_lanes_reduce`]
    /// and [`Device::launch_rows2_reduce`]): the kernel receives lane `s`'s
    /// `(j, k)` row of each buffer.
    #[allow(clippy::too_many_arguments)]
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
        validate_lanes(&map_a, lanes_a, accs.len());
        validate_lanes(&map_b, lanes_b, accs.len());
        assert_eq!(lanes_a.len(), lanes_b.len(), "lane count mismatch");
        for (s, (lane_a, lane_b)) in lanes_a.iter_mut().zip(lanes_b.iter_mut()).enumerate() {
            accs[s] = self.launch_rows2_reduce(info, map_a, lane_a, map_b, lane_b, |j, k, a, b| {
                f(s, j, k, a, b)
            });
        }
    }

    /// Lane-batched launch with no reduction (element-wise update of every
    /// lane in one sweep).
    fn launch_lanes<T: Scalar, F>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &mut [&mut [T]],
        f: F,
    ) where
        F: Fn(usize, usize, usize, &mut [T]) + Sync,
    {
        // [T; 0] slots are zero-sized, so this Vec never heap-allocates.
        let mut accs = vec![[T::ZERO; 0]; lanes.len()];
        self.launch_lanes_reduce(info, map, lanes, &mut accs, |s, j, k, row| {
            f(s, j, k, row);
            []
        });
    }

    /// Sanitizer hook: a split-phase halo exchange borrowed the ghost
    /// planes described by `hazard` (called by `HaloExchange::begin` after
    /// all sends and receives are posted). Production back-ends ignore it;
    /// the `check` crate's `Checked<D>` wrapper records the window.
    fn on_exchange_begin(&self, _hazard: ExchangeHazard) {}

    /// Sanitizer hook: the pending exchange for `hazard` is being
    /// completed (called by `HaloExchange::finish` before any ghost plane
    /// is unpacked). Default no-op.
    fn on_exchange_finish(&self, _hazard: ExchangeHazard) {}

    /// Sanitizer hook: the next launch reads, from `input`, the 7-point
    /// neighbourhood of every cell of `map` (called by the stencil sweeps
    /// before they launch). A sweep that runs inside a split-phase
    /// exchange window may read physical ghosts but no ghost the exchange
    /// still owns; `Checked<D>` flags one that does. Default no-op.
    fn on_stencil_read<T: Scalar>(&self, _kernel: &'static str, _map: RowMap, _input: &[T]) {}
}

/// Shared precondition check for the lane-batched launches: the row map
/// must validate against every lane's backing slice (the `&mut` lane
/// slices are necessarily disjoint allocations, which is what makes
/// concurrent per-lane row handout sound), and there must be one
/// accumulator slot per lane.
pub(crate) fn validate_lanes<T>(map: &RowMap, lanes: &[&mut [T]], accs_len: usize) {
    assert_eq!(
        accs_len,
        lanes.len(),
        "lane launch needs one accumulator slot per lane"
    );
    for lane in lanes {
        map.validate(lane.len());
    }
}

/// Runtime-selected device (one enum, zero dynamic dispatch in kernels).
///
/// The compile-time path (`fn solve<D: Device>`) mirrors alpaka's
/// `using Acc = ...`; `AnyDevice` is the convenience for CLI tools that
/// pick the back-end from a flag.
#[derive(Clone)]
pub enum AnyDevice {
    /// Serial CPU back-end.
    Serial(Serial),
    /// Threaded CPU back-end.
    Threads(Threads),
    /// Simulated GPU back-end.
    SimGpu(SimGpu),
}

impl AnyDevice {
    /// Parse a back-end spec: `serial`, `threads[:N]`, `mi250x`, `h100`,
    /// or `simgpu[:BLOCK_ROWS]`.
    pub fn from_spec(spec: &str, recorder: Recorder) -> Result<Self, String> {
        let (head, arg) = match spec.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (spec, None),
        };
        match head {
            "serial" => Ok(Self::Serial(Serial::new(recorder))),
            "threads" => {
                let n = match arg {
                    Some(a) => a.parse().map_err(|e| format!("bad thread count {a:?}: {e}"))?,
                    None => std::thread::available_parallelism().map_or(1, |p| p.get()),
                };
                Ok(Self::Threads(Threads::new(n, recorder)))
            }
            "mi250x" => Ok(Self::SimGpu(SimGpu::new(GpuSimParams::mi250x(), recorder))),
            "h100" => Ok(Self::SimGpu(SimGpu::new(GpuSimParams::h100(), recorder))),
            "simgpu" => {
                let block_rows = match arg {
                    Some(a) => a.parse().map_err(|e| format!("bad block_rows {a:?}: {e}"))?,
                    None => 4,
                };
                Ok(Self::SimGpu(SimGpu::new(
                    GpuSimParams { name: "simgpu", block_rows },
                    recorder,
                )))
            }
            other => Err(format!(
                "unknown device spec {other:?}; expected serial | threads[:N] | mi250x | h100 | simgpu[:B]"
            )),
        }
    }
}

impl Device for AnyDevice {
    fn name(&self) -> String {
        match self {
            Self::Serial(d) => d.name(),
            Self::Threads(d) => d.name(),
            Self::SimGpu(d) => d.name(),
        }
    }

    fn kind(&self) -> DeviceKind {
        match self {
            Self::Serial(d) => d.kind(),
            Self::Threads(d) => d.kind(),
            Self::SimGpu(d) => d.kind(),
        }
    }

    fn recorder(&self) -> &Recorder {
        match self {
            Self::Serial(d) => d.recorder(),
            Self::Threads(d) => d.recorder(),
            Self::SimGpu(d) => d.recorder(),
        }
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
        match self {
            Self::Serial(d) => d.launch_rows_reduce(info, map, out, f),
            Self::Threads(d) => d.launch_rows_reduce(info, map, out, f),
            Self::SimGpu(d) => d.launch_rows_reduce(info, map, out, f),
        }
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
        match self {
            Self::Serial(d) => d.launch_rows2_reduce(info, map_a, out_a, map_b, out_b, f),
            Self::Threads(d) => d.launch_rows2_reduce(info, map_a, out_a, map_b, out_b, f),
            Self::SimGpu(d) => d.launch_rows2_reduce(info, map_a, out_a, map_b, out_b, f),
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
        match self {
            Self::Serial(d) => d.launch_reduce(info, ny, nz, f),
            Self::Threads(d) => d.launch_reduce(info, ny, nz, f),
            Self::SimGpu(d) => d.launch_reduce(info, ny, nz, f),
        }
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
        match self {
            Self::Serial(d) => d.launch_lanes_reduce(info, map, lanes, accs, f),
            Self::Threads(d) => d.launch_lanes_reduce(info, map, lanes, accs, f),
            Self::SimGpu(d) => d.launch_lanes_reduce(info, map, lanes, accs, f),
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
        match self {
            Self::Serial(d) => {
                d.launch_lanes2_reduce(info, map_a, lanes_a, map_b, lanes_b, accs, f)
            }
            Self::Threads(d) => {
                d.launch_lanes2_reduce(info, map_a, lanes_a, map_b, lanes_b, accs, f)
            }
            Self::SimGpu(d) => {
                d.launch_lanes2_reduce(info, map_a, lanes_a, map_b, lanes_b, accs, f)
            }
        }
    }

    fn on_exchange_begin(&self, hazard: ExchangeHazard) {
        match self {
            Self::Serial(d) => d.on_exchange_begin(hazard),
            Self::Threads(d) => d.on_exchange_begin(hazard),
            Self::SimGpu(d) => d.on_exchange_begin(hazard),
        }
    }

    fn on_exchange_finish(&self, hazard: ExchangeHazard) {
        match self {
            Self::Serial(d) => d.on_exchange_finish(hazard),
            Self::Threads(d) => d.on_exchange_finish(hazard),
            Self::SimGpu(d) => d.on_exchange_finish(hazard),
        }
    }

    fn on_stencil_read<T: Scalar>(&self, kernel: &'static str, map: RowMap, input: &[T]) {
        match self {
            Self::Serial(d) => d.on_stencil_read(kernel, map, input),
            Self::Threads(d) => d.on_stencil_read(kernel, map, input),
            Self::SimGpu(d) => d.on_stencil_read(kernel, map, input),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing() {
        let r = Recorder::disabled;
        assert!(matches!(
            AnyDevice::from_spec("serial", r()),
            Ok(AnyDevice::Serial(_))
        ));
        assert!(matches!(
            AnyDevice::from_spec("threads:3", r()),
            Ok(AnyDevice::Threads(_))
        ));
        assert!(matches!(
            AnyDevice::from_spec("mi250x", r()),
            Ok(AnyDevice::SimGpu(_))
        ));
        assert!(matches!(
            AnyDevice::from_spec("h100", r()),
            Ok(AnyDevice::SimGpu(_))
        ));
        assert!(matches!(
            AnyDevice::from_spec("simgpu:8", r()),
            Ok(AnyDevice::SimGpu(_))
        ));
        assert!(AnyDevice::from_spec("cuda", r()).is_err());
        assert!(AnyDevice::from_spec("threads:x", r()).is_err());
    }

    #[test]
    fn exchange_hazard_hit_identifies_in_flight_planes() {
        // 4x3x3 padded field with the x-low and y-high planes in flight
        let h = ExchangeHazard {
            base: 0,
            elem_bytes: 8,
            padded: [4, 3, 3],
            faces: (1 << 0) | (1 << 3),
        };
        assert!(h.face_in_flight(0, 0));
        assert!(h.face_in_flight(1, 1));
        assert!(!h.face_in_flight(0, 1));
        assert_eq!(h.len(), 36);
        assert!(!h.is_empty());
        // (0, 1, 1) sits on the x-low plane
        assert_eq!(h.hit(16), Some((0, 0)));
        // (1, 2, 1) sits on the y-high plane
        assert_eq!(h.hit(21), Some((1, 1)));
        // (1, 1, 1) is interior
        assert_eq!(h.hit(17), None);
        // (3, 1, 1) is the x-high plane, which is NOT in flight
        assert_eq!(h.hit(19), None);
        // (0, 0, 1) is an edge cell of the x-low plane: the unpack never
        // writes plane edges, so it is not hazardous
        assert_eq!(h.hit(12), None);
    }

    #[test]
    fn any_device_forwards_kind() {
        let d = AnyDevice::from_spec("threads:2", Recorder::disabled()).unwrap();
        assert_eq!(d.kind(), DeviceKind::CpuThreads { threads: 2 });
        let d = AnyDevice::from_spec("mi250x", Recorder::disabled()).unwrap();
        assert!(matches!(d.kind(), DeviceKind::SimGpu { .. }));
    }

    /// Inexact per-cell values so any change in fold grouping shows up in
    /// the last bit of the reductions. `s` stands in for the lane identity.
    fn lane_kernel(s: usize, j: usize, k: usize, row: &mut [f64]) -> [f64; 1] {
        let mut acc = 0.0;
        for (i, v) in row.iter_mut().enumerate() {
            *v = 1.0 / ((s * 1000 + k * 100 + j * 10 + i) as f64 + 3.0);
            acc += *v * *v;
        }
        [acc]
    }

    #[test]
    fn lane_batched_launch_is_bitwise_solo_per_lane() {
        use crate::index::Extent3;
        let info = KernelInfo::new("lanes", 16, 2);
        let e = Extent3::new(5, 4, 3);
        let map = RowMap::halo_interior(e);
        let padded = (e.nx + 2) * (e.ny + 2) * (e.nz + 2);
        let nl = 3;
        for spec in ["serial", "threads:3", "mi250x"] {
            let dev = AnyDevice::from_spec(spec, Recorder::disabled()).unwrap();
            let mut fields: Vec<Vec<f64>> = vec![vec![0.5f64; padded]; nl];
            let mut lanes: Vec<&mut [f64]> = fields.iter_mut().map(|f| f.as_mut_slice()).collect();
            let mut accs = [[0.0f64; 1]; 3];
            dev.launch_lanes_reduce(info, map, &mut lanes, &mut accs, lane_kernel);
            for s in 0..nl {
                let mut solo = vec![0.5f64; padded];
                let r = dev.launch_rows_reduce(info, map, &mut solo, |j, k, row| {
                    lane_kernel(s, j, k, row)
                });
                assert_eq!(
                    accs[s][0].to_bits(),
                    r[0].to_bits(),
                    "{spec}: lane {s} reduction not bitwise solo"
                );
                assert!(
                    fields[s]
                        .iter()
                        .zip(&solo)
                        .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{spec}: lane {s} field not bitwise solo"
                );
            }
        }
    }

    #[test]
    fn lane_batched_two_map_launch_is_bitwise_solo_per_lane() {
        use crate::index::Extent3;
        let info = KernelInfo::new("lanes2", 24, 3);
        let e = Extent3::new(4, 3, 3);
        let map_a = RowMap::halo_interior(e);
        let padded = (e.nx + 2) * (e.ny + 2) * (e.nz + 2);
        // Second buffer: one slot per row, unpadded.
        let map_b = RowMap {
            base: 0,
            len: 1,
            ny: map_a.ny,
            nz: map_a.nz,
            sy: 1,
            sz: map_a.ny,
        };
        let rows = map_a.rows();
        let nl = 3;
        let kernel = |s: usize, j: usize, k: usize, a: &mut [f64], b: &mut [f64]| {
            let mut acc = 0.0;
            for (i, v) in a.iter_mut().enumerate() {
                *v = 1.0 / ((s * 700 + k * 50 + j * 7 + i) as f64 + 2.0);
                acc += *v;
            }
            b[0] = acc;
            [acc]
        };
        for spec in ["serial", "threads:2", "h100"] {
            let dev = AnyDevice::from_spec(spec, Recorder::disabled()).unwrap();
            let mut fa: Vec<Vec<f64>> = vec![vec![0.0f64; padded]; nl];
            let mut fb: Vec<Vec<f64>> = vec![vec![0.0f64; rows]; nl];
            let mut la: Vec<&mut [f64]> = fa.iter_mut().map(|f| f.as_mut_slice()).collect();
            let mut lb: Vec<&mut [f64]> = fb.iter_mut().map(|f| f.as_mut_slice()).collect();
            let mut accs = [[0.0f64; 1]; 3];
            dev.launch_lanes2_reduce(info, map_a, &mut la, map_b, &mut lb, &mut accs, kernel);
            for s in 0..nl {
                let mut sa = vec![0.0f64; padded];
                let mut sb = vec![0.0f64; rows];
                let r =
                    dev.launch_rows2_reduce(info, map_a, &mut sa, map_b, &mut sb, |j, k, a, b| {
                        kernel(s, j, k, a, b)
                    });
                assert_eq!(accs[s][0].to_bits(), r[0].to_bits(), "{spec}: lane {s}");
                assert!(fa[s]
                    .iter()
                    .zip(&sa)
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
                assert!(fb[s]
                    .iter()
                    .zip(&sb)
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn lane_batched_launch_records_one_kernel_event() {
        use crate::events::Event;
        use crate::index::Extent3;
        let info = KernelInfo::new("lanes", 8, 1);
        let e = Extent3::new(3, 3, 2);
        let map = RowMap::halo_interior(e);
        let padded = (e.nx + 2) * (e.ny + 2) * (e.nz + 2);
        let rec = Recorder::enabled();
        let dev = AnyDevice::from_spec("mi250x", rec.clone()).unwrap();
        let mut fields: Vec<Vec<f64>> = vec![vec![0.0f64; padded]; 4];
        let mut lanes: Vec<&mut [f64]> = fields.iter_mut().map(|f| f.as_mut_slice()).collect();
        let mut accs = [[0.0f64; 1]; 4];
        dev.launch_lanes_reduce(info, map, &mut lanes, &mut accs, lane_kernel);
        let events = rec.drain();
        assert_eq!(events.len(), 1, "batched sweep must record one launch");
        match events[0] {
            Event::Kernel { elems, .. } => {
                assert_eq!(elems, (map.elems() * 4) as u64);
            }
            ref other => panic!("expected a kernel event, got {other:?}"),
        }
    }

    #[test]
    fn empty_lane_set_is_a_no_op() {
        let info = KernelInfo::new("lanes", 8, 1);
        let map = RowMap::contiguous(8);
        let rec = Recorder::enabled();
        let dev = AnyDevice::from_spec("serial", rec.clone()).unwrap();
        let mut lanes: Vec<&mut [f64]> = Vec::new();
        let mut accs: [[f64; 1]; 0] = [];
        dev.launch_lanes_reduce(info, map, &mut lanes, &mut accs, lane_kernel);
        assert_eq!(rec.len(), 0);
    }
}

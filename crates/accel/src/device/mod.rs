//! The device abstraction — alpaka's `Acc` in Rust.
//!
//! alpaka selects the accelerator at compile time (`using Acc =
//! alpaka::AccGpuHipRt<...>`) and every kernel is written once against the
//! accelerator concept. Here [`Device`] is the concept: a kernel is a
//! body over runs of rows, launched with [`Device::launch_runs`], and runs
//! unchanged on every back-end. Like alpaka's *element* level, a run — the
//! consecutive rows of one plane that one owner sweeps — lets a CPU
//! thread pay a kernel's setup once per run and then vectorise along its
//! rows; per-row kernels launch through thin wrappers over it. The
//! back-ends are:
//!
//! * [`Serial`] — single-threaded reference back-end; one run per plane,
//!   reductions fold in row order (bitwise-deterministic).
//! * [`Threads`] — shared-memory CPU back-end (alpaka's OpenMP analogue);
//!   rows are split into one chunk per participant of a persistent,
//!   spin-then-park thread team (one run per plane a chunk touches),
//!   chunk `c` always runs on participant `c % n`, and chunk partials are
//!   merged in chunk order (deterministic for a fixed thread count, but a
//!   *different* floating-point grouping than `Serial` — exactly the
//!   OpenMP-reduction effect the paper observes on LUMI-C). A launch
//!   allocates nothing and re-raises a panicking chunk on the launching
//!   thread.
//! * [`SimGpu`] — simulated GPU back-end: rows are grouped into thread
//!   blocks (one run per plane a block touches), block partials are
//!   combined with a pairwise tree as a real GPU reduction would, and
//!   launch/traffic events are recorded for the performance model.
//!   Different "GPUs" use different block shapes, which reproduces the
//!   paper's cross-architecture iteration-count variations.

mod serial;
mod simgpu;
mod threads;

pub use serial::Serial;
pub use simgpu::{GpuSimParams, SimGpu};
pub use threads::Threads;

use crate::events::{KernelInfo, Recorder};
use crate::index::{RowMap, Run};
use crate::scalar::{add_partials, Scalar};

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
/// A back-end runs one kernel launch, [`Device::launch_runs`]: it splits
/// the rows of a [`RowMap`] among its owners and hands the kernel body
/// each owner's rows one [`Run`] at a time — the consecutive rows of one
/// plane — as exclusive row-exact `&mut [T]` slices, plus the `NR`-way
/// accumulator the owner carries; the device then reduces the owners'
/// accumulators according to its back-end policy. A body folds each
/// row's partial into the accumulator in row order, so a run launch
/// reduces exactly as a launch that called the body once per row. The
/// per-row forms ([`Device::launch_rows_reduce`] and the rest) are thin
/// wrappers that do just that; together with the output-free
/// [`Device::launch_reduce`] they carry every solver kernel —
/// the fused `KernelBiCGS1..6`, the Chebyshev kernels and the boundary
/// kernels — and the stencil sweeps use the run launch directly.
pub trait Device: Clone + Send + Sync + 'static {
    /// Human-readable device name for reports.
    fn name(&self) -> String;

    /// Back-end discriminator.
    fn kind(&self) -> DeviceKind;

    /// The event stream this device reports launches to.
    fn recorder(&self) -> &Recorder;

    /// Launch a kernel body over the rows of `map` in every lane of a
    /// multi-RHS batch, one [`Run`] at a time, fusing an `NR`-way sum
    /// reduction per lane.
    ///
    /// `lanes[s]` is the backing slice of lane `s`'s field; all lanes
    /// share `map`, which must validate against each slice. Each of the
    /// `N` entries `(map_o, lanes_o)` of `outs` is one more buffer per lane
    /// the launch writes (`lanes_o[s]`, its rows under `map_o`, which must
    /// agree with `map` on `ny`/`nz`): a fused sweep that updates several
    /// fields in one pass, its runs carrying every buffer's rows
    /// ([`Run::rows_n`]).
    ///
    /// The body `f(s, run, acc)` receives the lane index `s` (so it can
    /// look up per-lane operands), a run of that lane and the accumulator
    /// of the run's owner, into which it folds each row's partial in row
    /// order. Lane `s`'s result lands in `accs[s]`, one slot per lane; the
    /// caller passes only *active* lanes (frozen lanes of a batched solve
    /// are omitted). Each lane's runs and owners depend on the row count
    /// only, never on the lane count, so every lane's output and
    /// reduction are **bitwise identical** to a one-lane launch over that
    /// lane alone — and a one-lane launch is how every single-field
    /// kernel runs.
    ///
    /// One kernel launch is recorded, with `map.elems() * lanes.len()`
    /// elements — `info` for a multi-output kernel must therefore account
    /// for *all* traffic of the fused sweep per `map` element (see
    /// [`KernelInfo::fused`]). An empty lane set launches nothing.
    fn launch_runs<T: Scalar, F, const NR: usize, const N: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &mut [&mut [T]],
        outs: [(RowMap, &mut [&mut [T]]); N],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, Run<'_, T, N>, &mut [T; NR]) + Sync;

    /// Launch a kernel over the rows of `out` described by `map`, fusing an
    /// `NR`-way sum reduction (the paper's `KernelBiCGS1/3/5` fuse the
    /// stencil apply with local dot products exactly like this). The
    /// kernel receives each row `(j, k)` as an exclusive slice and returns
    /// its partial: the one-lane [`Device::launch_runs`] with a per-row
    /// body.
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
        let mut acc = [[T::ZERO; NR]];
        self.launch_lanes_reduce(info, map, &mut [out], &mut acc, |_, j, k, row| f(j, k, row));
        acc[0]
    }

    /// Launch a pure reduction kernel over `ny * nz` rows (no output
    /// field): `f(j, k)` is row `(j, k)`'s partial. Rows are grouped and
    /// merged as by [`Device::launch_runs`] over the same row count, so
    /// the sum is bitwise that of a run launch whose body folds the same
    /// partials row by row. One launch of `ny * nz` elements is recorded.
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

    /// Lane-batched launch with a per-row body: [`Device::launch_runs`]
    /// over every lane of a multi-RHS batch, the kernel receiving the lane
    /// index `s` and lane `s`'s `(j, k)` row and returning its partial.
    /// Per-lane reduction results land in `accs[s]`; every lane's result
    /// is bitwise identical to a solo [`Device::launch_rows_reduce`] over
    /// that lane's field alone, and one launch of
    /// `map.elems() * lanes.len()` elements is recorded — launch overhead
    /// is paid once per sweep instead of once per lane, which is the
    /// batched path's modelled GPU win.
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
        self.launch_lanes_n_reduce(info, map, lanes, [], accs, |s, j, k, row, []| {
            f(s, j, k, row)
        });
    }

    /// Lane-batched `1 + N`-output launch (see
    /// [`Device::launch_lanes_reduce`]): the kernel receives lane `s`'s
    /// `(j, k)` row of the lane buffer and of each of the `N` `outs` — the
    /// entry point of fused sweeps that update several fields in one pass
    /// (`KernelBiCGS56` writes `r` and `p`, `KernelBiCGS456` `r`, `p` and
    /// `x`). One launch is recorded, with `map.elems() * lanes.len()`
    /// elements.
    fn launch_lanes_n_reduce<T: Scalar, F, const NR: usize, const N: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &mut [&mut [T]],
        outs: [(RowMap, &mut [&mut [T]]); N],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, usize, usize, &mut [T], [&mut [T]; N]) -> [T; NR] + Sync,
    {
        self.launch_runs(info, map, lanes, outs, accs, |s, run, acc| {
            let k = run.k;
            for (j, row, rows) in run.rows_n() {
                *acc = add_partials(*acc, f(s, j, k, row, rows));
            }
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

/// Shared precondition check of [`Device::launch_runs`]: `map` must
/// validate against every lane's backing slice (the `&mut` lane slices
/// are necessarily disjoint allocations, which is what makes concurrent
/// per-lane run handout sound), each output's map against every slice of
/// that output and agree with `map` on its row set, and there must be
/// one buffer of each output and one accumulator slot per lane.
pub(crate) fn validate_runs<T, const N: usize>(
    map: &RowMap,
    lanes: &[&mut [T]],
    outs: &[(RowMap, &mut [&mut [T]]); N],
    accs_len: usize,
) {
    assert_eq!(
        accs_len,
        lanes.len(),
        "lane launch needs one accumulator slot per lane"
    );
    for lane in lanes {
        map.validate(lane.len());
    }
    for (map_b, lanes_b) in outs {
        assert_eq!(lanes.len(), lanes_b.len(), "lane count mismatch");
        assert_eq!(
            (map.ny, map.nz),
            (map_b.ny, map_b.nz),
            "multi-output launch requires matching row sets"
        );
        for lane in lanes_b.iter() {
            map_b.validate(lane.len());
        }
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
        match self {
            Self::Serial(d) => d.launch_runs(info, map, lanes, outs, accs, f),
            Self::Threads(d) => d.launch_runs(info, map, lanes, outs, accs, f),
            Self::SimGpu(d) => d.launch_runs(info, map, lanes, outs, accs, f),
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
        let kernel = |s: usize, j: usize, k: usize, a: &mut [f64], [b]: [&mut [f64]; 1]| {
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
            dev.launch_lanes_n_reduce(info, map_a, &mut la, [(map_b, &mut lb)], &mut accs, kernel);
            for s in 0..nl {
                let mut sa = vec![0.0f64; padded];
                let mut sb = vec![0.0f64; rows];
                let mut r = [[0.0f64; 1]];
                let (la, lb) = (&mut [&mut sa[..]], &mut [&mut sb[..]]);
                let outs = [(map_b, &mut lb[..])];
                dev.launch_lanes_n_reduce(info, map_a, la, outs, &mut r, |_, j, k, a, b| {
                    kernel(s, j, k, a, b)
                });
                assert_eq!(accs[s][0].to_bits(), r[0][0].to_bits(), "{spec}: lane {s}");
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

/// Runs ≡ rows, generated: a run launch against a per-row oracle that
/// restates each back-end's reduction policy — which rows an owner
/// folds, in which order, and how the owners' partials combine — over
/// whole, window and shell maps, one or two buffers, 1–3 lanes and
/// `NR = 0…3`.
#[cfg(test)]
mod run_proptests {
    use super::*;
    use crate::index::{chunk_range, Extent3};
    use proptest::prelude::*;
    use std::ops::Range;

    /// The rows each owner of a launch over `rows` rows folds, in owner
    /// order: the whole range on `Serial`, one chunk per participant
    /// (never more than rows or than 64) on `Threads`, one block of
    /// `block_rows` on `SimGpu`.
    fn owners(kind: &DeviceKind, rows: usize) -> Vec<Range<usize>> {
        match *kind {
            DeviceKind::CpuSerial => std::iter::once(0..rows).collect(),
            DeviceKind::CpuThreads { threads } => {
                let chunks = threads.min(rows).clamp(1, 64);
                (0..chunks).map(|c| chunk_range(rows, chunks, c)).collect()
            }
            DeviceKind::SimGpu { block_rows } => (0..rows.div_ceil(block_rows))
                .map(|b| b * block_rows..((b + 1) * block_rows).min(rows))
                .collect(),
        }
    }

    /// How the owners' partials combine: taken as is from the one
    /// `Serial` owner, folded in chunk order from zero on `Threads`,
    /// paired level by level (an odd last one carried up) on `SimGpu`.
    fn combine<const NR: usize>(kind: &DeviceKind, mut parts: Vec<[f64; NR]>) -> [f64; NR] {
        match kind {
            DeviceKind::CpuSerial => parts[0],
            DeviceKind::CpuThreads { .. } => parts.into_iter().fold([0.0; NR], add_partials),
            DeviceKind::SimGpu { .. } => {
                while parts.len() > 1 {
                    let carry = (parts.len() % 2 == 1).then(|| parts[parts.len() - 1]);
                    parts = parts
                        .chunks_exact(2)
                        .map(|p| add_partials(p[0], p[1]))
                        .chain(carry)
                        .collect();
                }
                parts[0]
            }
        }
    }

    /// The per-row kernel both sides run: inexact values in every cell of
    /// every output's row, so any change in which cell a row lands on or
    /// in the fold grouping shows in the bits.
    fn row_kernel<const NR: usize, const N: usize>(
        s: usize,
        j: usize,
        k: usize,
        a: &mut [f64],
        outs: [&mut [f64]; N],
    ) -> [f64; NR] {
        let mut acc = [0.0; NR];
        for (i, v) in a.iter_mut().enumerate() {
            *v = 1.0 / ((s * 1009 + k * 101 + j * 11 + i) as f64 + 3.0);
            for (q, p) in acc.iter_mut().enumerate() {
                *p += v.powi(q as i32 + 1);
            }
        }
        for (o, b) in outs.into_iter().enumerate() {
            for (i, v) in b.iter_mut().enumerate() {
                *v = -1.0 / ((s * 7 + k * 5 + j * 3 + i + 13 * o) as f64 + 1.5);
            }
        }
        acc
    }

    /// The oracle: every owner folds its rows one `row_kernel` call at a
    /// time into a partial of its own, then the policy combines them.
    fn oracle<const NR: usize, const N: usize>(
        kind: &DeviceKind,
        (map, lanes): (RowMap, &mut [Vec<f64>]),
        mut outs: [(RowMap, &mut [Vec<f64>]); N],
    ) -> Vec<[f64; NR]> {
        let mut accs = Vec::new();
        for (s, lane) in lanes.iter_mut().enumerate() {
            let mut parts = Vec::new();
            for rows in owners(kind, map.rows()) {
                let mut acc = [0.0; NR];
                for r in rows {
                    let (j, k) = map.row_jk(r);
                    let off = map.row_offset(j, k);
                    let a = &mut lane[off..off + map.len];
                    let bs = outs.each_mut().map(|(mb, lb)| {
                        let off = mb.row_offset(j, k);
                        &mut lb[s][off..off + mb.len]
                    });
                    acc = add_partials(acc, row_kernel::<NR, N>(s, j, k, a, bs));
                }
                parts.push(acc);
            }
            accs.push(combine(kind, parts));
        }
        accs
    }

    /// One run launch against the oracle, fields and partials bit for bit:
    /// the lane buffer and `N` further outputs — a slot buffer under a map
    /// of its own, then padded fields under the lane map.
    fn check<const NR: usize, const N: usize>(dev: &AnyDevice, map: RowMap, len: usize, nl: usize) {
        let info = KernelInfo::new("runs", 8, 1);
        let slots = RowMap {
            base: 1,
            len: 2,
            ny: map.ny,
            nz: map.nz,
            sy: 3,
            sz: 3 * map.ny + 1,
        };
        let slot_len = slots.row_offset(map.ny - 1, map.nz - 1) + slots.len + 1;
        let fresh =
            |n: usize| -> Vec<Vec<f64>> { (0..nl).map(|s| vec![s as f64 + 0.5; n]).collect() };
        let out_maps: [(RowMap, usize); N] = std::array::from_fn(|o| {
            if o == 0 {
                (slots, slot_len)
            } else {
                (map, len)
            }
        });
        let mut a = fresh(len);
        let mut b = out_maps.map(|(_, n)| fresh(n));
        let (mut oa, mut ob) = (a.clone(), b.clone());
        let mut accs = vec![[f64::NAN; NR]; nl];
        {
            let mut la: Vec<&mut [f64]> = a.iter_mut().map(Vec::as_mut_slice).collect();
            let mut lb = b
                .each_mut()
                .map(|o| o.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
            let mut maps = out_maps.iter().map(|(m, _)| *m);
            let outs = lb
                .each_mut()
                .map(|l| (maps.next().expect("a map per output"), &mut l[..]));
            dev.launch_runs(info, map, &mut la, outs, &mut accs, |s, run, acc| {
                let k = run.k;
                for (j, ra, rb) in run.rows_n() {
                    *acc = add_partials(*acc, row_kernel::<NR, N>(s, j, k, ra, rb));
                }
            });
        }
        let mut maps = out_maps.iter().map(|(m, _)| *m);
        let outs = ob
            .each_mut()
            .map(|l| (maps.next().expect("a map per output"), &mut l[..]));
        let want = oracle::<NR, N>(&dev.kind(), (map, &mut oa), outs);
        let bits =
            |v: &[Vec<f64>]| -> Vec<u64> { v.iter().flatten().map(|x| x.to_bits()).collect() };
        let what = format!("{} {map:?} lanes {nl} NR {NR} outputs 1 + {N}", dev.name());
        assert_eq!(bits(&a), bits(&oa), "{what}: fields");
        for (b, ob) in b.iter().zip(&ob) {
            assert_eq!(bits(b), bits(ob), "{what}: further outputs");
        }
        let acc_bits =
            |v: &[[f64; NR]]| -> Vec<u64> { v.iter().flatten().map(|x| x.to_bits()).collect() };
        assert_eq!(acc_bits(&accs), acc_bits(&want), "{what}: partials");
    }

    /// [`check`] at every reduction width up to three.
    fn check_nr<const N: usize>(dev: &AnyDevice, map: RowMap, len: usize, nl: usize) {
        check::<0, N>(dev, map, len, nl);
        check::<1, N>(dev, map, len, nl);
        check::<2, N>(dev, map, len, nl);
        check::<3, N>(dev, map, len, nl);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn runs_match_the_per_row_oracle(
            nx in 1usize..10, ny in 1usize..10, nz in 1usize..10,
            in_flight in 0u8..64,
            device in prop_oneof![
                Just(0usize),
                1usize..6,
                (1usize..9).prop_map(|b| 100 + b),
            ],
            nl in 1usize..4,
            outs in 0u8..3,
        ) {
            let dev = match device {
                0 => AnyDevice::Serial(Serial::new(Recorder::disabled())),
                t @ 1..=5 => AnyDevice::Threads(Threads::new(t, Recorder::disabled())),
                b => AnyDevice::SimGpu(SimGpu::new(
                    GpuSimParams { name: "prop", block_rows: b - 100 },
                    Recorder::disabled(),
                )),
            };
            let e = Extent3::new(nx, ny, nz);
            let len = (nx + 2) * (ny + 2) * (nz + 2);
            let maps = std::iter::once(RowMap::halo_interior(e))
                .chain(RowMap::halo_window(e, in_flight))
                .chain(RowMap::halo_shell(e, in_flight));
            for map in maps {
                match outs {
                    0 => check_nr::<0>(&dev, map, len, nl),
                    1 => check_nr::<1>(&dev, map, len, nl),
                    _ => check_nr::<2>(&dev, map, len, nl),
                }
            }
        }
    }
}

//! Halo (ghost-point) exchange between neighbouring subdomains.

use std::ops::Deref;
use std::sync::Mutex;

use accel::{Device, Event, ExchangeHazard, KernelInfo, RowMap, Scalar, HALO_OVERLAP_STAGE};
use comm::{Communicator, RecvRequest, Tag};

use crate::field::Field;
use crate::grid::BlockGrid;

/// Face pack: one read + one write per face element, no flops.
pub const INFO_HALO_PACK: KernelInfo = KernelInfo::new("KernelHaloPack", 16, 0);
/// Ghost unpack: one read + one write per face element, no flops.
pub const INFO_HALO_UNPACK: KernelInfo = KernelInfo::new("KernelHaloUnpack", 16, 0);
/// Single-precision face pack: half the streamed bytes per face element.
pub const INFO_HALO_PACK_F32: KernelInfo = KernelInfo::new("KernelHaloPackF32", 8, 0);
/// Single-precision ghost unpack: half the streamed bytes per element.
pub const INFO_HALO_UNPACK_F32: KernelInfo = KernelInfo::new("KernelHaloUnpackF32", 8, 0);

/// Face-plane halo exchange for one subdomain (Fig. 1 of the paper).
///
/// Each of the up-to-six interface faces is packed into one contiguous
/// message (the analogue of the paper's per-face `MPI_Datatype`), all
/// sends are posted first, then all ghost planes are received and
/// unpacked — the buffered-`Isend`/`Irecv`/`Waitall` pattern, which is
/// deadlock-free by construction.
///
/// Two modes are offered, each for any number of *lanes* (the fields of
/// a multi-RHS batch, whose face planes share one message per face; a
/// single field is the one-lane case):
///
/// * [`HaloExchange::exchange_lanes`] — the classic synchronous exchange.
/// * [`HaloExchange::begin_lanes`] / [`HaloExchange::finish_lanes`] — a
///   split-phase exchange that lets the caller overlap interior compute
///   with the in-flight messages (the paper's Sec. V communication-hiding
///   discussion). `begin` packs and posts everything; the caller then
///   runs kernels that read no *interface* ghost — physical-boundary
///   ghosts are not part of the exchange and may be refreshed and read
///   meanwhile (e.g. the stencil over [`accel::RowMap::halo_window`],
///   which peels exactly the faces in flight and is sized by the
///   message); `finish` completes the receives and fills the ghost
///   layers, after which [`accel::RowMap::halo_shell`] completes the
///   sweep.
///
/// Pack and unpack run as device kernels through the [`Device`] launch
/// path, so they parallelize on the threaded back-end and are accounted
/// as `KernelHaloPack` / `KernelHaloUnpack` launches by the recorder.
/// Message payloads are recycled through a per-axis buffer pool:
/// neighbouring ranks along an axis share face dimensions, so every
/// received buffer is reusable for the next send and the steady-state
/// exchange performs no heap allocation.
#[derive(Debug)]
pub struct HaloExchange<T: Scalar> {
    grid: BlockGrid,
    /// Per-axis free lists of face-sized message buffers.
    pool: Mutex<[Vec<Vec<T>>; 3]>,
    /// Per-axis free lists of single-precision staging planes for the
    /// mixed-precision exchange (`f32` faces bit-packed into `T` wire
    /// words before they enter the communicator's native channels).
    pool_f32: Mutex<[Vec<Vec<f32>>; 3]>,
}

impl<T: Scalar> Clone for HaloExchange<T> {
    fn clone(&self) -> Self {
        // The pool is a warm-up cache, not state: clones start cold.
        Self::new(&self.grid)
    }
}

/// Token for a split-phase exchange in flight: the posted receives plus
/// the traffic bookkeeping `finish` will record.
#[must_use = "a begun halo exchange must be completed with finish()"]
#[derive(Debug)]
pub struct PendingExchange {
    recvs: [[Option<RecvRequest>; 2]; 3],
    lanes: usize,
    msgs: u32,
    bytes: u64,
    overlap: bool,
}

/// Token for a split-phase single-precision exchange in flight (the
/// mixed-precision analogue of [`PendingExchange`], completed with
/// [`HaloExchange::finish_f32`]).
#[must_use = "a begun f32 halo exchange must be completed with finish_f32()"]
#[derive(Debug)]
pub struct PendingExchangeF32 {
    recvs: [[Option<RecvRequest>; 2]; 3],
    msgs: u32,
    bytes: u64,
    overlap: bool,
}

/// Message tag for a face moving from side `1 - side` toward `side` along
/// `axis`, carrying the planes of `lanes` fields. Sender of its own `side`
/// face uses `face_tag(axis, side, lanes)`; the receiver filling its
/// `side` ghost expects `face_tag(axis, 1 - side, lanes)`.
///
/// Each lane count owns a band of six face tags — one lane `0..6`, two
/// lanes `12..18`, three `24..30`, … — so a channel+tag pair always
/// carries one fixed message size, which communication checkers (and
/// real MPI matching) rely on even as the live-lane set of a batched
/// solve shrinks between exchanges. The odd bands stay free; the first
/// of them is the single-precision band of [`face_tag_f32`].
fn face_tag(axis: usize, side: usize, lanes: usize) -> Tag {
    (12 * (lanes - 1) + axis * 2 + side) as Tag
}

/// Tag of a single-precision face message: its own band of six tags
/// (`6..12`), disjoint from every full-precision band, so a channel+tag
/// pair still always carries one fixed message size even when `f64` and
/// `f32` exchanges interleave on the same channel — the `f32` wire
/// payload is roughly half the `f64` one.
fn face_tag_f32(axis: usize, side: usize) -> Tag {
    6 + face_tag(axis, side, 1)
}

impl<T: Scalar> HaloExchange<T> {
    /// Build the exchange plan for `grid`'s subdomain.
    pub fn new(grid: &BlockGrid) -> Self {
        Self {
            grid: grid.clone(),
            pool: Mutex::new([Vec::new(), Vec::new(), Vec::new()]),
            pool_f32: Mutex::new([Vec::new(), Vec::new(), Vec::new()]),
        }
    }

    /// Number of interface faces this rank exchanges.
    pub fn interface_faces(&self) -> usize {
        self.grid.interface_mask().count_ones() as usize
    }

    /// Elements in the face plane orthogonal to `axis`.
    fn face_len(&self, axis: usize) -> usize {
        let n = self.grid.local_n;
        match axis {
            0 => n[1] * n[2],
            1 => n[0] * n[2],
            _ => n[0] * n[1],
        }
    }

    /// Number of `T` wire words one `f32` face plane of `axis` packs to.
    fn wire_len(&self, axis: usize) -> usize {
        self.face_len(axis).div_ceil(T::F32_LANES)
    }

    /// Take a buffer of exactly `len` elements from the `axis` free list,
    /// or allocate one (faces of any lane count and `f32` wire words all
    /// share the list — `resize` adjusts a recycled buffer in place).
    fn acquire(&self, axis: usize, len: usize) -> Vec<T> {
        let mut buf = self.pool.lock().unwrap_or_else(|p| p.into_inner())[axis]
            .pop()
            .unwrap_or_default();
        buf.resize(len, T::ZERO);
        buf
    }

    /// Return a face buffer to the `axis` free list for reuse.
    fn recycle(&self, axis: usize, buf: Vec<T>) {
        self.pool.lock().unwrap_or_else(|p| p.into_inner())[axis].push(buf);
    }

    /// Take a single-precision staging plane for `axis` from the `f32`
    /// pool (or allocate one).
    fn acquire_f32(&self, axis: usize) -> Vec<f32> {
        let len = self.face_len(axis);
        let mut buf = self.pool_f32.lock().unwrap_or_else(|p| p.into_inner())[axis]
            .pop()
            .unwrap_or_default();
        buf.resize(len, 0.0);
        buf
    }

    /// Return a staging plane to the `axis` `f32` free list for reuse.
    fn recycle_f32(&self, axis: usize, buf: Vec<f32>) {
        self.pool_f32.lock().unwrap_or_else(|p| p.into_inner())[axis].push(buf);
    }

    /// Pack the interior plane of the padded field `us` adjacent to
    /// (`axis`, `side`) into `buf` as a device kernel over the buffer's
    /// rows. Generic over the face element type so the full- and
    /// mixed-precision exchanges share one kernel body (`info` carries the
    /// per-precision traffic accounting).
    fn pack_face<S: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        us: &[S],
        axis: usize,
        side: usize,
        buf: &mut [S],
    ) {
        let n = self.grid.local_n;
        let [pnx, pny, _] = self.grid.padded();
        let fixed = if side == 0 { 1 } else { n[axis] };
        let idx = move |i: usize, j: usize, k: usize| i + pnx * (j + pny * k);
        debug_assert_eq!(buf.len(), self.face_len(axis));
        // Buffer rows are its natural contiguous runs: j-runs for the x
        // faces, i-runs for the y and z faces.
        match axis {
            0 => {
                let map = RowMap {
                    base: 0,
                    len: n[1],
                    ny: n[2],
                    nz: 1,
                    sy: n[1],
                    sz: n[1] * n[2],
                };
                dev.launch_rows(info, map, buf, |kk, _, row| {
                    for (jj, v) in row.iter_mut().enumerate() {
                        *v = us[idx(fixed, jj + 1, kk + 1)];
                    }
                });
            }
            1 => {
                let map = RowMap {
                    base: 0,
                    len: n[0],
                    ny: n[2],
                    nz: 1,
                    sy: n[0],
                    sz: n[0] * n[2],
                };
                dev.launch_rows(info, map, buf, |kk, _, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = us[idx(ii + 1, fixed, kk + 1)];
                    }
                });
            }
            _ => {
                let map = RowMap {
                    base: 0,
                    len: n[0],
                    ny: n[1],
                    nz: 1,
                    sy: n[0],
                    sz: n[0] * n[1],
                };
                dev.launch_rows(info, map, buf, |jj, _, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = us[idx(ii + 1, jj + 1, fixed)];
                    }
                });
            }
        }
    }

    /// Unpack a received plane into the ghost layer of the padded
    /// `field` at (`axis`, `side`) as a device kernel over the ghost
    /// layer's rows (generic over the face element type, like
    /// [`HaloExchange::pack_face`]).
    fn unpack_face<S: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        field: &mut [S],
        axis: usize,
        side: usize,
        plane: &[S],
    ) {
        let n = self.grid.local_n;
        let [pnx, pny, _] = self.grid.padded();
        assert_eq!(plane.len(), self.face_len(axis), "halo plane size mismatch");
        let ghost = if side == 0 { 0 } else { n[axis] + 1 };
        let idx = move |i: usize, j: usize, k: usize| i + pnx * (j + pny * k);
        let (sy, sz) = (pnx, pnx * pny);
        match axis {
            0 => {
                // x ghost plane: single-cell rows with field strides
                let map = RowMap {
                    base: idx(ghost, 1, 1),
                    len: 1,
                    ny: n[1],
                    nz: n[2],
                    sy,
                    sz,
                };
                dev.launch_rows(info, map, field, |j, k, row| {
                    row[0] = plane[k * n[1] + j];
                });
            }
            1 => {
                let map = RowMap {
                    base: idx(1, ghost, 1),
                    len: n[0],
                    ny: 1,
                    nz: n[2],
                    sy,
                    sz,
                };
                dev.launch_rows(info, map, field, |_, k, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = plane[k * n[0] + ii];
                    }
                });
            }
            _ => {
                let map = RowMap {
                    base: idx(1, 1, ghost),
                    len: n[0],
                    ny: n[1],
                    nz: 1,
                    sy,
                    sz,
                };
                dev.launch_rows(info, map, field, |j, _, row| {
                    for (ii, v) in row.iter_mut().enumerate() {
                        *v = plane[j * n[0] + ii];
                    }
                });
            }
        }
    }

    /// The sanitizer-hook description of the in-flight ghost planes of
    /// the padded field `us`: every interface face, identified by the
    /// buffer's base address.
    fn hazard<S: Scalar>(&self, us: &[S]) -> ExchangeHazard {
        assert_eq!(us.len(), self.grid.padded_len(), "field shape mismatch");
        ExchangeHazard {
            base: us.as_ptr() as usize,
            elem_bytes: S::BYTES,
            padded: self.grid.padded(),
            faces: self.grid.interface_mask(),
        }
    }

    fn begin_impl<D: Device, C: Communicator<T>, F: Deref<Target = [T]>>(
        &self,
        dev: &D,
        comm: &C,
        lanes: &[F],
        overlap: bool,
    ) -> PendingExchange {
        let nl = lanes.len();
        assert!(nl > 0, "a halo exchange carries at least one lane");
        // Post all receives first (`MPI_Irecv`), as the paper's
        // implementation does...
        let mut recvs: [[Option<RecvRequest>; 2]; 3] = [[None; 2]; 3];
        for (axis, slots) in recvs.iter_mut().enumerate() {
            for (side, slot) in slots.iter_mut().enumerate() {
                if let Some(neighbor) = self.grid.boundary(axis, side).neighbor() {
                    *slot = Some(comm.irecv(neighbor, face_tag(axis, 1 - side, nl)));
                }
            }
        }
        // ...then all sends (`MPI_Isend`, buffered): one message per
        // face, lane `s`'s plane at `[s * face_len, (s + 1) * face_len)`.
        let mut msgs = 0u32;
        let mut bytes = 0u64;
        for axis in 0..3 {
            let flen = self.face_len(axis);
            for side in 0..2 {
                if let Some(neighbor) = self.grid.boundary(axis, side).neighbor() {
                    let mut face = self.acquire(axis, flen * nl);
                    for (lane, plane) in lanes.iter().zip(face.chunks_exact_mut(flen)) {
                        self.pack_face(dev, INFO_HALO_PACK, lane, axis, side, plane);
                    }
                    bytes += (face.len() * T::BYTES) as u64;
                    msgs += 1;
                    comm.send(neighbor, face_tag(axis, side, nl), face);
                }
            }
        }
        if overlap {
            // Open the overlap window: the halo traffic is in flight from
            // here until `finish`, so kernels recorded inside the window
            // are modeled as hiding it (perfmodel's overlap-aware replay).
            comm.recorder().record(Event::Begin {
                name: HALO_OVERLAP_STAGE,
            });
            comm.recorder().record(Event::Halo { msgs, bytes });
        }
        // From here until `finish`, every lane's interface ghost planes
        // belong to the exchange; tell any sanitizing device wrapper.
        for lane in lanes {
            dev.on_exchange_begin(self.hazard::<T>(lane));
        }
        PendingExchange {
            recvs,
            lanes: nl,
            msgs,
            bytes,
            overlap,
        }
    }

    /// Start a split-phase exchange of every field in `lanes` (padded
    /// backing slices of fields on this grid): pack every interface face
    /// and post all sends and receives, returning without waiting. Each
    /// face travels as **one** message carrying all lanes' planes, so a
    /// B-lane solve pays the per-message latency once per face instead of
    /// once per face per lane; pack and unpack are pure copies, so each
    /// lane's ghosts are bitwise those of an exchange of that lane alone.
    /// All ranks must pass the same number of lanes (the live-lane set of
    /// a batched solve is decided from reduced values, so it is
    /// rank-uniform by construction).
    ///
    /// The caller may now run any kernel that does not read the lanes'
    /// interface ghosts, then must call [`HaloExchange::finish_lanes`]
    /// with the same lanes to complete the exchange before the ghosts are
    /// consumed.
    pub fn begin_lanes<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        lanes: &[&[T]],
    ) -> PendingExchange {
        self.begin_impl(dev, comm, lanes, true)
    }

    /// Complete a split-phase exchange: wait for every posted receive
    /// (`MPI_Waitall`) and unpack the ghost planes into `lanes`.
    ///
    /// Received buffers are recycled into the pool, so the next `begin`
    /// allocates nothing.
    pub fn finish_lanes<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        pending: PendingExchange,
        lanes: &mut [&mut [T]],
    ) {
        assert_eq!(lanes.len(), pending.lanes, "finish must see begin's lanes");
        // The exchange is being completed: the ghost planes return to the
        // caller before any unpack kernel writes them.
        for lane in lanes.iter() {
            dev.on_exchange_finish(self.hazard::<T>(lane));
        }
        for (axis, slots) in pending.recvs.iter().enumerate() {
            let flen = self.face_len(axis);
            for (side, slot) in slots.iter().enumerate() {
                if let Some(req) = slot {
                    let planes = comm.wait(*req);
                    assert_eq!(planes.len(), lanes.len() * flen, "halo plane size mismatch");
                    for (lane, plane) in lanes.iter_mut().zip(planes.chunks_exact(flen)) {
                        self.unpack_face(dev, INFO_HALO_UNPACK, lane, axis, side, plane);
                    }
                    self.recycle(axis, planes);
                }
            }
        }
        if pending.overlap {
            comm.recorder().record(Event::End {
                name: HALO_OVERLAP_STAGE,
            });
        } else {
            comm.recorder().record(Event::Halo {
                msgs: pending.msgs,
                bytes: pending.bytes,
            });
        }
    }

    /// Exchange all interface ghost layers of every field in `lanes` with
    /// the neighbours (synchronous: begin + finish back to back).
    ///
    /// Physical-boundary ghosts are left untouched (the boundary-condition
    /// kernel owns them). One [`Event::Halo`] with the total message count
    /// and bytes is recorded on the communicator's recorder.
    pub fn exchange_lanes<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        lanes: &mut [&mut [T]],
    ) {
        let pending = self.begin_impl(dev, comm, lanes, false);
        self.finish_lanes(dev, comm, pending, lanes);
    }

    /// [`HaloExchange::begin_lanes`] for a single field.
    pub fn begin<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &Field<T>,
    ) -> PendingExchange {
        self.begin_lanes(dev, comm, &[field.as_slice()])
    }

    /// [`HaloExchange::finish_lanes`] for a single field.
    pub fn finish<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        pending: PendingExchange,
        field: &mut Field<T>,
    ) {
        self.finish_lanes(dev, comm, pending, &mut [field.as_mut_slice()]);
    }

    /// [`HaloExchange::exchange_lanes`] for a single field.
    pub fn exchange<D: Device, C: Communicator<T>>(&self, dev: &D, comm: &C, field: &mut Field<T>) {
        self.exchange_lanes(dev, comm, &mut [field.as_mut_slice()]);
    }

    fn begin_f32_impl<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &Field<f32>,
        overlap: bool,
    ) -> PendingExchangeF32 {
        // Post all receives first, on the f32 tag band so the half-size
        // payloads never share a (channel, tag) with full-precision faces.
        let mut recvs: [[Option<RecvRequest>; 2]; 3] = [[None; 2]; 3];
        for (axis, slots) in recvs.iter_mut().enumerate() {
            for (side, slot) in slots.iter_mut().enumerate() {
                if let Some(neighbor) = self.grid.boundary(axis, side).neighbor() {
                    *slot = Some(comm.irecv(neighbor, face_tag_f32(axis, 1 - side)));
                }
            }
        }
        // ...then all sends: device-pack the f32 face plane, bit-pack it
        // into `T` wire words (two lanes per f64 word) and ship those
        // through the communicator's native channels — the wire bytes
        // are the word bytes, i.e. genuinely about half the f64 face.
        let mut msgs = 0u32;
        let mut bytes = 0u64;
        for axis in 0..3 {
            for side in 0..2 {
                if let Some(neighbor) = self.grid.boundary(axis, side).neighbor() {
                    let mut staging = self.acquire_f32(axis);
                    self.pack_face(
                        dev,
                        INFO_HALO_PACK_F32,
                        field.as_slice(),
                        axis,
                        side,
                        &mut staging,
                    );
                    let mut words = self.acquire(axis, self.wire_len(axis));
                    T::pack_f32_words(&staging, &mut words);
                    self.recycle_f32(axis, staging);
                    bytes += (words.len() * T::BYTES) as u64;
                    msgs += 1;
                    comm.send(neighbor, face_tag_f32(axis, side), words);
                }
            }
        }
        if overlap {
            comm.recorder().record(Event::Begin {
                name: HALO_OVERLAP_STAGE,
            });
            comm.recorder().record(Event::Halo { msgs, bytes });
        }
        dev.on_exchange_begin(self.hazard(field.as_slice()));
        PendingExchangeF32 {
            recvs,
            msgs,
            bytes,
            overlap,
        }
    }

    /// Start a split-phase single-precision exchange of `field`'s
    /// interface ghosts (the mixed-precision preconditioner path).
    ///
    /// Identical contract to [`HaloExchange::begin`], but each face
    /// travels as `f32` bit patterns packed into `T` wire words, so the
    /// message payload is roughly half the full-precision one. Must be
    /// completed with [`HaloExchange::finish_f32`].
    pub fn begin_f32<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &Field<f32>,
    ) -> PendingExchangeF32 {
        self.begin_f32_impl(dev, comm, field, true)
    }

    /// Complete a split-phase single-precision exchange: wait for every
    /// posted receive, unpack the wire words back into `f32` ghost
    /// planes bit-exactly, and recycle all buffers into the pools.
    pub fn finish_f32<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        pending: PendingExchangeF32,
        field: &mut Field<f32>,
    ) {
        dev.on_exchange_finish(self.hazard(field.as_slice()));
        for (axis, slots) in pending.recvs.iter().enumerate() {
            for (side, slot) in slots.iter().enumerate() {
                if let Some(req) = slot {
                    let words = comm.wait(*req);
                    assert_eq!(words.len(), self.wire_len(axis), "f32 wire length mismatch");
                    let mut staging = self.acquire_f32(axis);
                    T::unpack_f32_words(&words, &mut staging);
                    self.recycle(axis, words);
                    self.unpack_face(
                        dev,
                        INFO_HALO_UNPACK_F32,
                        field.as_mut_slice(),
                        axis,
                        side,
                        &staging,
                    );
                    self.recycle_f32(axis, staging);
                }
            }
        }
        if pending.overlap {
            comm.recorder().record(Event::End {
                name: HALO_OVERLAP_STAGE,
            });
        } else {
            comm.recorder().record(Event::Halo {
                msgs: pending.msgs,
                bytes: pending.bytes,
            });
        }
    }

    /// Synchronous single-precision exchange (begin + finish back to
    /// back) — the mixed-precision analogue of [`HaloExchange::exchange`].
    pub fn exchange_f32<D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &mut Field<f32>,
    ) {
        let pending = self.begin_f32_impl(dev, comm, field, false);
        self.finish_f32(dev, comm, pending, field);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Decomp, GlobalGrid};
    use accel::{Recorder, Serial};
    use comm::{run_ranks, ReduceOrder};

    /// Encode a global unknown index as a float so we can verify ghost
    /// provenance exactly.
    fn encode(g: [usize; 3]) -> f64 {
        (g[0] + 1000 * g[1] + 1_000_000 * g[2]) as f64
    }

    fn make_field(dev: &Serial, grid: &BlockGrid) -> Field<f64> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    interior.push(encode([
                        grid.offset[0] + i,
                        grid.offset[1] + j,
                        grid.offset[2] + k,
                    ]));
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    fn check_ghosts(grid: &BlockGrid, field: &Field<f64>) {
        let n = grid.local_n;
        let g = grid.global.n;
        let data = field.as_slice();
        // For every interior-adjacent ghost on an interface, the ghost must
        // hold the encoding of the corresponding global neighbour cell.
        for axis in 0..3 {
            for side in 0..2 {
                if !grid.boundary(axis, side).is_interface() {
                    continue;
                }
                // global coordinate just outside the subdomain
                let ghost_axis_global = if side == 0 {
                    grid.offset[axis]
                        .checked_sub(1)
                        .expect("interface at global edge")
                } else {
                    grid.offset[axis] + n[axis]
                };
                assert!(ghost_axis_global < g[axis]);
                // probe a representative set of face points
                let (pa, pb) = match axis {
                    0 => (n[1], n[2]),
                    1 => (n[0], n[2]),
                    _ => (n[0], n[1]),
                };
                for b in 1..=pb {
                    for a in 1..=pa {
                        let (i, j, k, gc) = match axis {
                            0 => {
                                let i = if side == 0 { 0 } else { n[0] + 1 };
                                (
                                    i,
                                    a,
                                    b,
                                    [
                                        ghost_axis_global,
                                        grid.offset[1] + a - 1,
                                        grid.offset[2] + b - 1,
                                    ],
                                )
                            }
                            1 => {
                                let j = if side == 0 { 0 } else { n[1] + 1 };
                                (
                                    a,
                                    j,
                                    b,
                                    [
                                        grid.offset[0] + a - 1,
                                        ghost_axis_global,
                                        grid.offset[2] + b - 1,
                                    ],
                                )
                            }
                            _ => {
                                let k = if side == 0 { 0 } else { n[2] + 1 };
                                (
                                    a,
                                    b,
                                    k,
                                    [
                                        grid.offset[0] + a - 1,
                                        grid.offset[1] + b - 1,
                                        ghost_axis_global,
                                    ],
                                )
                            }
                        };
                        assert_eq!(
                            data[field.idx(i, j, k)],
                            encode(gc),
                            "axis {axis} side {side} point ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }

    fn exchange_world(global_n: [usize; 3], ns: [usize; 3]) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            halo.exchange(&dev, &comm, &mut field);
            check_ghosts(&grid, &field);
        });
    }

    fn split_exchange_world(global_n: [usize; 3], ns: [usize; 3]) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
            check_ghosts(&grid, &field);
        });
    }

    #[test]
    fn two_ranks_along_x() {
        exchange_world([8, 4, 4], [2, 1, 1]);
    }

    #[test]
    fn eight_ranks_full_3d() {
        exchange_world([8, 8, 8], [2, 2, 2]);
    }

    #[test]
    fn uneven_decomposition() {
        exchange_world([7, 5, 6], [3, 2, 2]);
    }

    #[test]
    fn pencil_decomposition() {
        exchange_world([4, 4, 12], [1, 1, 4]);
    }

    #[test]
    fn split_phase_two_ranks() {
        split_exchange_world([8, 4, 4], [2, 1, 1]);
    }

    #[test]
    fn split_phase_eight_ranks() {
        split_exchange_world([8, 8, 8], [2, 2, 2]);
    }

    #[test]
    fn split_phase_uneven() {
        split_exchange_world([7, 5, 6], [3, 2, 2]);
    }

    #[test]
    fn repeated_exchanges_stay_consistent() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            for _ in 0..5 {
                halo.exchange(&dev, &comm, &mut field);
                check_ghosts(&grid, &field);
            }
        });
    }

    #[test]
    fn records_halo_event_with_traffic() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (3 * 3 * 8) as u64
                )),
                "missing halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn split_phase_records_overlap_window() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            let pending = halo.begin(&dev, &comm, &field);
            halo.finish(&dev, &comm, pending, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            let begin = evs
                .iter()
                .position(|e| matches!(e, Event::Begin { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap Begin");
            let halo = evs
                .iter()
                .position(|e| matches!(e, Event::Halo { msgs: 1, .. }))
                .expect("missing halo event");
            let end = evs
                .iter()
                .position(|e| matches!(e, Event::End { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap End");
            assert!(begin < halo && halo < end, "window out of order: {evs:?}");
        }
    }

    #[test]
    fn pack_unpack_run_as_device_kernels() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let rec = Recorder::enabled();
            let dev = Serial::new(rec.clone());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            rec.drain(); // discard the H2D upload
            HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
            let evs = rec.drain();
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Kernel {
                        name: "KernelHaloPack",
                        elems: 9,
                        ..
                    }
                )),
                "missing pack kernel: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Kernel {
                        name: "KernelHaloUnpack",
                        elems: 9,
                        ..
                    }
                )),
                "missing unpack kernel: {evs:?}"
            );
        });
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field(&dev, &grid);
            let halo = HaloExchange::new(&grid);
            for _ in 0..4 {
                halo.exchange(&dev, &comm, &mut field);
            }
            // one interface face along x: steady state keeps exactly one
            // recycled buffer in the axis-0 free list
            let pool = halo.pool.lock().unwrap();
            assert_eq!(
                pool[0].len(),
                1,
                "axis-0 pool should hold one recycled buffer"
            );
            assert!(pool[1].is_empty() && pool[2].is_empty());
        });
    }

    fn make_lane_field(dev: &Serial, grid: &BlockGrid, lane: usize) -> Field<f64> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    interior.push(
                        encode([grid.offset[0] + i, grid.offset[1] + j, grid.offset[2] + k])
                            + (lane as f64) * 1e9,
                    );
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    #[test]
    fn batched_exchange_matches_solo_per_lane() {
        let decomp = Decomp::new([2, 2, 2]);
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::new(&grid);
            let lanes = 3;
            let mut batched: Vec<Field<f64>> = (0..lanes)
                .map(|b| make_lane_field(&dev, &grid, b))
                .collect();
            let mut refs: Vec<&mut [f64]> = batched.iter_mut().map(|f| f.as_mut_slice()).collect();
            halo.exchange_lanes(&dev, &comm, &mut refs);
            for (b, lane) in batched.iter().enumerate() {
                let mut solo = make_lane_field(&dev, &grid, b);
                // LINT: collective-uniform(`batched` holds the same 3
                // lanes on every rank, so all ranks loop in lock-step)
                halo.exchange(&dev, &comm, &mut solo);
                assert_eq!(
                    lane.as_slice(),
                    solo.as_slice(),
                    "lane {b} ghosts differ from a solo exchange"
                );
            }
        });
    }

    #[test]
    fn batched_exchange_sends_one_message_per_face() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut fields: Vec<Field<f64>> =
                (0..4).map(|b| make_lane_field(&dev, &grid, b)).collect();
            let mut refs: Vec<&mut [f64]> = fields.iter_mut().map(|f| f.as_mut_slice()).collect();
            HaloExchange::new(&grid).exchange_lanes(&dev, &comm, &mut refs);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            // One interface face along x; the single message carries all
            // four lanes' planes.
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (4 * 3 * 3 * 8) as u64
                )),
                "missing batched halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn batched_exchange_of_one_lane_equals_solo() {
        let decomp = Decomp::new([3, 2, 2]);
        run_ranks::<f64, _, _>(12, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([7, 5, 6], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::new(&grid);
            // One lane uses one tag band whichever entry point posts it:
            // a single-field begin pairs with a one-lane finish.
            let mut batched = make_lane_field(&dev, &grid, 0);
            let pending = halo.begin(&dev, &comm, &batched);
            halo.finish_lanes(&dev, &comm, pending, &mut [batched.as_mut_slice()]);
            let mut solo = make_lane_field(&dev, &grid, 0);
            halo.exchange(&dev, &comm, &mut solo);
            assert_eq!(batched.as_slice(), solo.as_slice());
            check_ghosts(&grid, &batched);
        });
    }

    fn make_field_f32(dev: &Serial, grid: &BlockGrid) -> Field<f32> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    // The encoded values stay below 2^24, so they are
                    // exactly representable in f32 and ghost provenance
                    // can be checked with exact equality.
                    interior.push(encode([
                        grid.offset[0] + i,
                        grid.offset[1] + j,
                        grid.offset[2] + k,
                    ]) as f32);
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    fn check_ghosts_f32(grid: &BlockGrid, field: &Field<f32>) {
        // Reuse the f64 checker by widening: the payload is bit-exact.
        let dev = Serial::new(Recorder::disabled());
        let mut wide = Field::<f64>::zeros(&dev, grid);
        for (w, v) in wide.as_mut_slice().iter_mut().zip(field.as_slice()) {
            *w = f64::from(*v);
        }
        check_ghosts(grid, &wide);
    }

    fn f32_exchange_world(global_n: [usize; 3], ns: [usize; 3]) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            halo.exchange_f32(&dev, &comm, &mut field);
            check_ghosts_f32(&grid, &field);
        });
    }

    #[test]
    fn f32_exchange_two_ranks() {
        f32_exchange_world([8, 4, 4], [2, 1, 1]);
    }

    #[test]
    fn f32_exchange_eight_ranks() {
        f32_exchange_world([8, 8, 8], [2, 2, 2]);
    }

    #[test]
    fn f32_exchange_uneven_odd_faces() {
        // Odd face element counts exercise the zero tail lane of the
        // two-lanes-per-word packing.
        f32_exchange_world([7, 5, 6], [3, 2, 2]);
    }

    #[test]
    fn f32_split_phase_eight_ranks() {
        let decomp = Decomp::new([2, 2, 2]);
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            let pending = halo.begin_f32(&dev, &comm, &field);
            halo.finish_f32(&dev, &comm, pending, &mut field);
            check_ghosts_f32(&grid, &field);
        });
    }

    #[test]
    fn f32_exchange_halves_wire_bytes() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::<f64>::new(&grid);
            let mut wide = make_field(&dev, &grid);
            halo.exchange(&dev, &comm, &mut wide);
            let mut field = make_field_f32(&dev, &grid);
            halo.exchange_f32(&dev, &comm, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            // 9-element face: 72 B in f64, ceil(9/2) = 5 wire words =
            // 40 B in f32 — the payload genuinely (almost) halves.
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (3 * 3 * 8) as u64
                )),
                "missing f64 halo event: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| matches!(
                    e,
                    Event::Halo { msgs: 1, bytes } if *bytes == (5 * 8) as u64
                )),
                "missing halved f32 halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn f32_split_phase_records_overlap_window() {
        let decomp = Decomp::new([2, 1, 1]);
        let recorders: Vec<Recorder> = (0..2).map(|_| Recorder::enabled()).collect();
        let handles = recorders.clone();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            let pending = halo.begin_f32(&dev, &comm, &field);
            let mut field = field;
            halo.finish_f32(&dev, &comm, pending, &mut field);
        });
        for rec in &handles {
            let evs = rec.snapshot();
            let begin = evs
                .iter()
                .position(|e| matches!(e, Event::Begin { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap Begin");
            let halo = evs
                .iter()
                .position(|e| matches!(e, Event::Halo { msgs: 1, .. }))
                .expect("missing halo event");
            let end = evs
                .iter()
                .position(|e| matches!(e, Event::End { name } if *name == HALO_OVERLAP_STAGE))
                .expect("missing overlap End");
            assert!(begin < halo && halo < end, "window out of order: {evs:?}");
        }
    }

    #[test]
    fn f32_and_f64_exchanges_interleave_on_disjoint_tags() {
        // Both precisions in flight on the same channels at once: the
        // per-precision tag bands keep the half-size f32 messages from
        // ever matching a full-precision receive.
        let decomp = Decomp::new([2, 2, 1]);
        run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 4], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut wide = make_field(&dev, &grid);
            let mut narrow = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            let pending_wide = halo.begin(&dev, &comm, &wide);
            let pending_narrow = halo.begin_f32(&dev, &comm, &narrow);
            halo.finish_f32(&dev, &comm, pending_narrow, &mut narrow);
            halo.finish(&dev, &comm, pending_wide, &mut wide);
            check_ghosts(&grid, &wide);
            check_ghosts_f32(&grid, &narrow);
        });
    }

    #[test]
    fn f32_buffers_recycle_through_both_pools() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_field_f32(&dev, &grid);
            let halo = HaloExchange::<f64>::new(&grid);
            for _ in 0..4 {
                halo.exchange_f32(&dev, &comm, &mut field);
            }
            // One interface face along x: the wire words recycle through
            // the shared word pool and the staging plane through the f32
            // pool, one buffer each in steady state.
            let pool = halo.pool.lock().unwrap();
            let pool_f32 = halo.pool_f32.lock().unwrap();
            assert_eq!(pool[0].len(), 1, "axis-0 word pool should hold one buffer");
            assert_eq!(
                pool_f32[0].len(),
                1,
                "axis-0 staging pool should hold one buffer"
            );
        });
    }

    #[test]
    fn single_rank_exchange_is_a_noop() {
        let dev = Serial::new(Recorder::disabled());
        let global = GlobalGrid::dirichlet([4, 4, 4], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, Decomp::single(), 0);
        let mut field = make_field(&dev, &grid);
        let before = field.as_slice().to_vec();
        let comm = comm::SelfComm::<f64>::default();
        HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
        assert_eq!(field.as_slice(), &before[..]);
    }
}

//! Halo (ghost-point) exchange between neighbouring subdomains.

use std::marker::PhantomData;
use std::ops::Deref;
use std::sync::Mutex;

use accel::{Device, Event, KernelInfo, RowMap, Scalar};
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
/// [`HaloExchange::exchange_lanes`] exchanges any number of *lanes* (the
/// fields of a multi-RHS batch, whose face planes share one message per
/// face) for any field element `E` no wider than the communicator's wire
/// word `T`; [`HaloExchange::exchange`] is its one-lane call. Every
/// communicating solver sweep refreshes its input through it, blocking,
/// before it reads a ghost. [`HaloExchange::begin`] /
/// [`HaloExchange::finish`] are the same exchange of one field cut in
/// two — `begin` packs and posts everything, `finish` completes the
/// receives and fills the ghost layers — and book the same events as
/// `exchange`; no solver calls them, they are kept for the benchmark's
/// split-phase probe.
///
/// A field as wide as the wire packs straight into the message buffer.
/// A narrower one (`f32` faces on an `f64` communicator) is packed into
/// the same buffer and then compacted in place into wire words, several
/// elements per word, so its payload genuinely shrinks with its width.
///
/// Pack and unpack run as device kernels through the [`Device`] launch
/// path, so they parallelize on the threaded back-end and are accounted
/// as `KernelHaloPack` / `KernelHaloUnpack` launches (`…F32` for `f32`
/// fields) by the recorder. Message payloads are recycled through a
/// per-axis buffer pool: neighbouring ranks along an axis share face
/// dimensions, so every received buffer is reusable for the next send
/// and the steady-state exchange performs no heap allocation.
#[derive(Debug)]
pub struct HaloExchange<T: Scalar> {
    grid: BlockGrid,
    /// Per-axis free lists of face-sized message buffers.
    pool: Mutex<[Vec<Vec<T>>; 3]>,
}

impl<T: Scalar> Clone for HaloExchange<T> {
    fn clone(&self) -> Self {
        // The pool is a warm-up cache, not state: clones start cold.
        Self::new(&self.grid)
    }
}

/// Token for a split-phase exchange of `E` fields in flight: the posted
/// receives plus the traffic bookkeeping `finish` will record. The
/// element type makes "finish with the width you began with" a
/// compile-time check. Only [`HaloExchange::begin`] hands one out, which
/// is kept for the benchmark's split-phase probe.
#[must_use = "a begun halo exchange must be completed with finish()"]
#[derive(Debug)]
pub struct PendingExchange<E: Scalar> {
    recvs: [[Option<RecvRequest>; 2]; 3],
    msgs: u32,
    bytes: u64,
    width: PhantomData<E>,
}

/// Message tag for a face moving from side `1 - side` toward `side` along
/// `axis`, carrying the planes of `lanes` fields, `narrow` when they are
/// packed below the wire width. Sender of its own `side` face uses
/// `face_tag(axis, side, …)`; the receiver filling its `side` ghost
/// expects `face_tag(axis, 1 - side, …)`.
///
/// Each (lane count, width) pair owns a band of six face tags — full
/// width one lane `0..6`, two lanes `12..18`, …; narrow one lane `6..12`,
/// two lanes `18..24`, … — so a channel+tag pair always carries one
/// fixed message size, which communication checkers (and real MPI
/// matching) rely on even as the live-lane set of a batched solve
/// shrinks between exchanges, or exchanges of both widths interleave.
fn face_tag(axis: usize, side: usize, lanes: usize, narrow: bool) -> Tag {
    (6 * (2 * (lanes - 1) + usize::from(narrow)) + 2 * axis + side) as Tag
}

/// How many `E` elements one `T` wire word carries (1 for equal widths).
fn per_word<E: Scalar, T: Scalar>() -> usize {
    assert!(
        E::BYTES <= T::BYTES && T::BYTES % E::BYTES == 0,
        "halo wire word ({} B) must be a whole multiple of the field element ({} B)",
        T::BYTES,
        E::BYTES
    );
    T::BYTES / E::BYTES
}

/// The (pack, unpack) traffic accounting of an `E` face element.
fn pack_infos<E: Scalar>() -> [KernelInfo; 2] {
    if E::BYTES == f32::BYTES {
        [INFO_HALO_PACK_F32, INFO_HALO_UNPACK_F32]
    } else {
        [INFO_HALO_PACK, INFO_HALO_UNPACK]
    }
}

/// Compact a message of `E` values (stored widened to `T`) into wire
/// words in place, `k` elements per word, element 0 in the low bits; an
/// odd tail leaves the high bits of the last word zero. The words are
/// opaque bit carriers — moved, never computed on.
fn to_wire<E: Scalar, T: Scalar>(buf: &mut Vec<T>, k: usize) {
    let words = buf.len().div_ceil(k);
    for w in 0..words {
        let bits = buf[w * k..]
            .iter()
            .take(k)
            .enumerate()
            .fold(0, |acc, (l, v)| {
                acc | E::from_f64(v.to_f64()).to_bits64() << (8 * E::BYTES * l)
            });
        buf[w] = T::from_bits64(bits);
    }
    buf.truncate(words);
}

/// Inverse of [`to_wire`]: expand wire words back into `len` `E` values
/// stored widened to `T`, in place (back to front, so no word is
/// overwritten before all of its elements are read).
fn from_wire<E: Scalar, T: Scalar>(buf: &mut Vec<T>, len: usize, k: usize) {
    buf.resize(len, T::ZERO);
    for i in (0..len).rev() {
        let bits = buf[i / k].to_bits64() >> (8 * E::BYTES * (i % k));
        buf[i] = T::from_f64(E::from_bits64(bits).to_f64());
    }
}

impl<T: Scalar> HaloExchange<T> {
    /// Build the exchange plan for `grid`'s subdomain.
    pub fn new(grid: &BlockGrid) -> Self {
        Self {
            grid: grid.clone(),
            pool: Mutex::new([Vec::new(), Vec::new(), Vec::new()]),
        }
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

    /// Take a buffer of exactly `len` elements from the `axis` free list,
    /// or allocate one (faces of any lane count and width all share the
    /// list — `resize` adjusts a recycled buffer in place).
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

    /// Pack the interior plane of the padded field `us` adjacent to
    /// (`axis`, `side`) into `buf` as a device kernel over the buffer's
    /// rows, widening each element to the wire type (a plain copy when
    /// the widths match; `info` carries the per-width traffic accounting).
    fn pack_face<E: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        us: &[E],
        axis: usize,
        side: usize,
        buf: &mut [T],
    ) {
        let n = self.grid.local_n;
        let [pnx, pny, _] = self.grid.padded();
        let fixed = if side == 0 { 1 } else { n[axis] };
        let idx = move |i: usize, j: usize, k: usize| i + pnx * (j + pny * k);
        let wire = |v: E| T::from_f64(v.to_f64());
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
                        *v = wire(us[idx(fixed, jj + 1, kk + 1)]);
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
                        *v = wire(us[idx(ii + 1, fixed, kk + 1)]);
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
                        *v = wire(us[idx(ii + 1, jj + 1, fixed)]);
                    }
                });
            }
        }
    }

    /// Unpack a received plane into the ghost layer of the padded
    /// `field` at (`axis`, `side`) as a device kernel over the ghost
    /// layer's rows, narrowing each element back from the wire type
    /// (exact: it was widened from `E` by [`HaloExchange::pack_face`]).
    fn unpack_face<E: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        field: &mut [E],
        axis: usize,
        side: usize,
        plane: &[T],
    ) {
        let n = self.grid.local_n;
        let [pnx, pny, _] = self.grid.padded();
        assert_eq!(plane.len(), self.face_len(axis), "halo plane size mismatch");
        let ghost = if side == 0 { 0 } else { n[axis] + 1 };
        let idx = move |i: usize, j: usize, k: usize| i + pnx * (j + pny * k);
        let (sy, sz) = (pnx, pnx * pny);
        let elem = |v: T| E::from_f64(v.to_f64());
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
                    row[0] = elem(plane[k * n[1] + j]);
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
                        *v = elem(plane[k * n[0] + ii]);
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
                        *v = elem(plane[j * n[0] + ii]);
                    }
                });
            }
        }
    }

    /// Every lane must be a padded field of this grid.
    fn assert_shape(&self, lens: impl Iterator<Item = usize>) {
        for len in lens {
            assert_eq!(len, self.grid.padded_len(), "field shape mismatch");
        }
    }

    /// Pack every interface face of `lanes` and post all sends and
    /// receives, one message per face for all lanes.
    fn begin_impl<E: Scalar, D: Device, C: Communicator<T>, F: Deref<Target = [E]>>(
        &self,
        dev: &D,
        comm: &C,
        lanes: &[F],
    ) -> PendingExchange<E> {
        self.assert_shape(lanes.iter().map(|lane| lane.len()));
        let nl = lanes.len();
        let faces = self.grid.interface_mask();
        let in_flight = |axis: usize, side: usize| {
            let bit = faces >> (axis * 2 + side) & 1 == 1;
            bit.then(|| self.grid.boundary(axis, side).neighbor())
                .flatten()
        };
        let k = per_word::<E, T>();
        let [info, _] = pack_infos::<E>();
        // Post all receives first (`MPI_Irecv`), as the paper's
        // implementation does...
        let mut recvs: [[Option<RecvRequest>; 2]; 3] = [[None; 2]; 3];
        for (axis, slots) in recvs.iter_mut().enumerate() {
            for (side, slot) in slots.iter_mut().enumerate() {
                if let Some(neighbor) = in_flight(axis, side) {
                    *slot = Some(comm.irecv(neighbor, face_tag(axis, 1 - side, nl, k > 1)));
                }
            }
        }
        // ...then all sends (`MPI_Isend`, buffered): one message per
        // face, lane `s`'s plane at `[s * face_len, (s + 1) * face_len)`
        // before a narrow message is compacted into wire words.
        let mut msgs = 0u32;
        let mut bytes = 0u64;
        for axis in 0..3 {
            let flen = self.face_len(axis);
            for side in 0..2 {
                if let Some(neighbor) = in_flight(axis, side) {
                    let mut face = self.acquire(axis, flen * nl);
                    for (lane, plane) in lanes.iter().zip(face.chunks_exact_mut(flen)) {
                        self.pack_face(dev, info, lane, axis, side, plane);
                    }
                    if k > 1 {
                        to_wire::<E, T>(&mut face, k);
                    }
                    bytes += (face.len() * T::BYTES) as u64;
                    msgs += 1;
                    comm.send(neighbor, face_tag(axis, side, nl, k > 1), face);
                }
            }
        }
        PendingExchange {
            recvs,
            msgs,
            bytes,
            width: PhantomData,
        }
    }

    /// Complete an exchange of `lanes`, the fields it began with: wait
    /// for every posted receive (`MPI_Waitall`) and unpack the ghost
    /// planes, then record one [`Event::Halo`] of the exchange's traffic.
    /// Received buffers are recycled into the pool, so the next exchange
    /// allocates nothing.
    fn finish_impl<E: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        pending: PendingExchange<E>,
        lanes: &mut [&mut [E]],
    ) {
        self.assert_shape(lanes.iter().map(|lane| lane.len()));
        let k = per_word::<E, T>();
        let [_, info] = pack_infos::<E>();
        for (axis, slots) in pending.recvs.iter().enumerate() {
            let flen = self.face_len(axis);
            for (side, slot) in slots.iter().enumerate() {
                if let Some(req) = slot {
                    let mut planes = comm.wait(*req);
                    let len = lanes.len() * flen;
                    assert_eq!(planes.len(), len.div_ceil(k), "halo plane size mismatch");
                    if k > 1 {
                        from_wire::<E, T>(&mut planes, len, k);
                    }
                    for (lane, plane) in lanes.iter_mut().zip(planes.chunks_exact(flen)) {
                        self.unpack_face(dev, info, lane, axis, side, plane);
                    }
                    self.recycle(axis, planes);
                }
            }
        }
        comm.recorder().record(Event::Halo {
            msgs: pending.msgs,
            bytes: pending.bytes,
        });
    }

    /// Start a split-phase exchange of `field`: pack every interface face
    /// and post all sends and receives, returning without waiting.
    ///
    /// The caller may now run any kernel that reads no interface ghost
    /// (the stencil over [`accel::RowMap::halo_window`], say), then must
    /// call [`HaloExchange::finish`] with the same field to complete the
    /// exchange before the ghosts are consumed. Kept for the benchmark's
    /// split-phase probe; every solver exchange is
    /// [`HaloExchange::exchange`] or [`HaloExchange::exchange_lanes`].
    pub fn begin<E: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &Field<E>,
    ) -> PendingExchange<E> {
        self.begin_impl(dev, comm, &[field.as_slice()])
    }

    /// Complete a split-phase exchange of `field`
    /// ([`HaloExchange::begin`]) and fill its interface ghost layers.
    /// Kept for the benchmark's split-phase probe, like `begin`.
    pub fn finish<E: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        pending: PendingExchange<E>,
        field: &mut Field<E>,
    ) {
        self.finish_impl(dev, comm, pending, &mut [field.as_mut_slice()]);
    }

    /// Exchange all interface ghost layers of every field in `lanes`
    /// (padded backing slices of fields on this grid) with the neighbours,
    /// synchronously. Each face travels as **one** message carrying all
    /// lanes' planes, so a B-lane solve pays the per-message latency once
    /// per face instead of once per face per lane; pack and unpack are
    /// pure copies, so each lane's ghosts are bitwise those of an exchange
    /// of that lane alone. All ranks must pass the same number of lanes
    /// (the live-lane set of a batched solve is decided from reduced
    /// values, so it is rank-uniform by construction).
    ///
    /// Physical-boundary ghosts are left untouched (the boundary-condition
    /// kernel owns them). One [`Event::Halo`] with the total message count
    /// and bytes is recorded on the communicator's recorder.
    pub fn exchange_lanes<E: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        lanes: &mut [&mut [E]],
    ) {
        let pending = self.begin_impl(dev, comm, lanes);
        self.finish_impl(dev, comm, pending, lanes);
    }

    /// [`HaloExchange::exchange_lanes`] for a single field.
    pub fn exchange<E: Scalar, D: Device, C: Communicator<T>>(
        &self,
        dev: &D,
        comm: &C,
        field: &mut Field<E>,
    ) {
        self.exchange_lanes(dev, comm, &mut [field.as_mut_slice()]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Decomp, GlobalGrid};
    use accel::{Recorder, Serial};
    use comm::{run_ranks, ReduceOrder};

    /// Encode a global unknown index as a float so we can verify ghost
    /// provenance exactly (the grids here keep it below 2^24, exact in
    /// `f32` too); lane `b` adds `b · 10^9`.
    fn encode(g: [usize; 3], lane: usize) -> f64 {
        (g[0] + 1000 * g[1] + 1_000_000 * g[2]) as f64 + (lane as f64) * 1e9
    }

    fn make_lane_field<E: Scalar>(dev: &Serial, grid: &BlockGrid, lane: usize) -> Field<E> {
        let n = grid.local_n;
        let mut interior = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                for i in 0..n[0] {
                    let g = [grid.offset[0] + i, grid.offset[1] + j, grid.offset[2] + k];
                    interior.push(E::from_f64(encode(g, lane)));
                }
            }
        }
        Field::from_interior(dev, grid, &interior)
    }

    fn check_ghosts<E: Scalar>(grid: &BlockGrid, field: &Field<E>) {
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
                            data[field.idx(i, j, k)].to_f64(),
                            encode(gc, 0),
                            "axis {axis} side {side} point ({i},{j},{k})"
                        );
                    }
                }
            }
        }
    }

    /// Exchange a provenance-encoded field of width `E` on every rank of
    /// an `ns` world — synchronously or split-phase — and check every
    /// interface ghost.
    fn exchange_world<E: Scalar>(global_n: [usize; 3], ns: [usize; 3], split: bool) {
        let decomp = Decomp::new(ns);
        run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet(global_n, [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_lane_field::<E>(&dev, &grid, 0);
            let halo = HaloExchange::new(&grid);
            if split {
                let pending = halo.begin(&dev, &comm, &field);
                halo.finish(&dev, &comm, pending, &mut field);
            } else {
                halo.exchange(&dev, &comm, &mut field);
            }
            check_ghosts(&grid, &field);
        });
    }

    /// [`exchange_world`] at both field widths: `f64` faces travel as
    /// they are, `f32` faces two to an `f64` wire word.
    fn exchange_both_widths(global_n: [usize; 3], ns: [usize; 3], split: bool) {
        exchange_world::<f64>(global_n, ns, split);
        exchange_world::<f32>(global_n, ns, split);
    }

    #[test]
    fn two_ranks_along_x() {
        exchange_both_widths([8, 4, 4], [2, 1, 1], false);
    }

    #[test]
    fn eight_ranks_full_3d() {
        exchange_both_widths([8, 8, 8], [2, 2, 2], false);
    }

    #[test]
    fn uneven_decomposition() {
        // Odd face element counts exercise the zero tail of the last
        // f32 wire word.
        exchange_both_widths([7, 5, 6], [3, 2, 2], false);
    }

    #[test]
    fn pencil_decomposition() {
        exchange_both_widths([4, 4, 12], [1, 1, 4], false);
    }

    #[test]
    fn split_phase_two_ranks() {
        exchange_both_widths([8, 4, 4], [2, 1, 1], true);
    }

    #[test]
    fn split_phase_eight_ranks() {
        exchange_both_widths([8, 8, 8], [2, 2, 2], true);
    }

    #[test]
    fn split_phase_uneven() {
        exchange_both_widths([7, 5, 6], [3, 2, 2], true);
    }

    #[test]
    fn repeated_exchanges_stay_consistent() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut field = make_lane_field::<f64>(&dev, &grid, 0);
            let halo = HaloExchange::new(&grid);
            for _ in 0..5 {
                halo.exchange(&dev, &comm, &mut field);
                check_ghosts(&grid, &field);
            }
        });
    }

    /// Per-rank event streams (device and communicator share one
    /// recorder) of one exchange of `lanes` provenance fields of width
    /// `E` on a `[2,1,1]` world of `[4,3,3]` — one 9-element interface
    /// face per rank; `split` begins and finishes the one field.
    fn two_rank_events<E: Scalar>(lanes: usize, split: bool) -> Vec<Vec<Event>> {
        let recorders = (0..2).map(|_| Recorder::enabled()).collect();
        comm::run_ranks_recorded::<f64, _, _>(2, ReduceOrder::RankOrder, recorders, |comm| {
            let rec = comm.recorder().clone();
            let dev = Serial::new(rec.clone());
            let global = GlobalGrid::dirichlet([4, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, Decomp::new([2, 1, 1]), comm.rank());
            let mut fields: Vec<Field<E>> = (0..lanes)
                .map(|b| make_lane_field(&dev, &grid, b))
                .collect();
            rec.drain(); // discard the H2D uploads
            let halo = HaloExchange::new(&grid);
            if split {
                let pending = halo.begin(&dev, &comm, &fields[0]);
                halo.finish(&dev, &comm, pending, &mut fields[0]);
            } else {
                let mut refs: Vec<&mut [E]> = fields.iter_mut().map(|f| f.as_mut_slice()).collect();
                halo.exchange_lanes(&dev, &comm, &mut refs);
            }
            rec.drain()
        })
    }

    /// `true` if `evs` holds a one-message halo event of `bytes`.
    fn one_message_of(evs: &[Event], bytes: u64) -> bool {
        evs.iter()
            .any(|e| matches!(e, Event::Halo { msgs: 1, bytes: b } if *b == bytes))
    }

    #[test]
    fn records_halo_event_with_traffic() {
        for evs in two_rank_events::<f64>(1, false) {
            assert!(one_message_of(&evs, 9 * 8), "missing halo event: {evs:?}");
        }
    }

    #[test]
    fn f32_exchange_halves_wire_bytes() {
        // 9-element face: 72 B in f64, ceil(9/2) = 5 wire words = 40 B
        // in f32 — the payload genuinely (almost) halves.
        for evs in two_rank_events::<f32>(1, false) {
            assert!(
                one_message_of(&evs, 5 * 8),
                "missing halved halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn pack_unpack_run_as_device_kernels() {
        let widths = [
            (
                two_rank_events::<f64>(1, false),
                two_rank_events::<f64>(1, true),
                INFO_HALO_PACK,
                INFO_HALO_UNPACK,
            ),
            (
                two_rank_events::<f32>(1, false),
                two_rank_events::<f32>(1, true),
                INFO_HALO_PACK_F32,
                INFO_HALO_UNPACK_F32,
            ),
        ];
        for (streams, split, pack, unpack) in widths {
            // begin → finish books exactly what exchange books: the same
            // pack and unpack launches and one halo event of equal traffic
            assert_eq!(split, streams, "begin → finish differs from exchange");
            for evs in streams {
                let halos = evs.iter().filter(|e| matches!(e, Event::Halo { .. }));
                assert_eq!(halos.count(), 1, "one halo event per exchange: {evs:?}");
                for info in [pack, unpack] {
                    assert!(
                        evs.iter().any(|e| matches!(
                            e,
                            Event::Kernel { name, elems: 9, .. } if *name == info.name
                        )),
                        "missing {} kernel: {evs:?}",
                        info.name
                    );
                }
            }
        }
    }

    #[test]
    fn buffers_recycle_through_the_pool() {
        let decomp = Decomp::new([2, 1, 1]);
        run_ranks::<f64, _, _>(2, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([6, 3, 3], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut wide = make_lane_field::<f64>(&dev, &grid, 0);
            let mut narrow = make_lane_field::<f32>(&dev, &grid, 0);
            let halo = HaloExchange::new(&grid);
            for _ in 0..4 {
                halo.exchange(&dev, &comm, &mut wide);
                halo.exchange(&dev, &comm, &mut narrow);
            }
            // one interface face along x: both widths share the axis-0
            // free list, which keeps exactly one recycled buffer
            let pool = halo.pool.lock().unwrap();
            assert_eq!(
                pool[0].len(),
                1,
                "axis-0 pool should hold one recycled buffer"
            );
            assert!(pool[1].is_empty() && pool[2].is_empty());
        });
    }

    /// One lanes-wide exchange of `lanes` fields of width `E` on an
    /// 8-rank world leaves every lane bitwise equal to a solo exchange.
    fn lanes_match_solo<E: Scalar>(lanes: usize) {
        let decomp = Decomp::new([2, 2, 2]);
        run_ranks::<f64, _, _>(8, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let halo = HaloExchange::new(&grid);
            let mut batched: Vec<Field<E>> = (0..lanes)
                .map(|b| make_lane_field(&dev, &grid, b))
                .collect();
            let mut refs: Vec<&mut [E]> = batched.iter_mut().map(|f| f.as_mut_slice()).collect();
            halo.exchange_lanes(&dev, &comm, &mut refs);
            for (b, lane) in batched.iter().enumerate() {
                let mut solo = make_lane_field(&dev, &grid, b);
                // LINT: collective-uniform(`batched` holds the same
                // lanes on every rank, so all ranks loop in lock-step)
                halo.exchange(&dev, &comm, &mut solo);
                let bits = |f: &Field<E>| {
                    f.as_slice()
                        .iter()
                        .map(|v| v.to_bits64())
                        .collect::<Vec<_>>()
                };
                assert_eq!(
                    bits(lane),
                    bits(&solo),
                    "lane {b} ghosts differ from a solo exchange"
                );
            }
        });
    }

    #[test]
    fn batched_exchange_matches_solo_per_lane() {
        lanes_match_solo::<f64>(3);
    }

    #[test]
    fn batched_exchange_sends_one_message_per_face() {
        // One interface face along x; the single message carries all
        // four lanes' planes.
        for evs in two_rank_events::<f64>(4, false) {
            assert!(
                one_message_of(&evs, 4 * 9 * 8),
                "missing batched halo event: {evs:?}"
            );
        }
    }

    #[test]
    fn f32_lanes_exchange_equals_solo_exchanges_in_one_half_width_message() {
        lanes_match_solo::<f32>(3);
        // three 9-element f32 planes: ceil(27/2) = 14 wire words in one
        // message per face, on the narrow three-lane tag band
        for evs in two_rank_events::<f32>(3, false) {
            assert!(
                one_message_of(&evs, 14 * 8),
                "missing f32 lanes event: {evs:?}"
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
            // One lane uses one tag band whichever entry point posts it.
            let mut batched = make_lane_field::<f64>(&dev, &grid, 0);
            halo.exchange_lanes(&dev, &comm, &mut [batched.as_mut_slice()]);
            let mut solo = make_lane_field::<f64>(&dev, &grid, 0);
            let pending = halo.begin(&dev, &comm, &solo);
            halo.finish(&dev, &comm, pending, &mut solo);
            assert_eq!(batched.as_slice(), solo.as_slice());
            check_ghosts(&grid, &batched);
        });
    }

    #[test]
    fn f32_and_f64_exchanges_interleave_on_disjoint_tags() {
        // Both widths in flight on the same channels at once: the
        // per-width tag bands keep the half-size f32 messages from ever
        // matching a full-width receive.
        let decomp = Decomp::new([2, 2, 1]);
        run_ranks::<f64, _, _>(4, ReduceOrder::RankOrder, |comm| {
            let dev = Serial::new(Recorder::disabled());
            let global = GlobalGrid::dirichlet([8, 8, 4], [0.1; 3], [0.0; 3]);
            let grid = BlockGrid::new(global, decomp, comm.rank());
            let mut wide = make_lane_field::<f64>(&dev, &grid, 0);
            let mut narrow = make_lane_field::<f32>(&dev, &grid, 0);
            let halo = HaloExchange::new(&grid);
            let pending_wide = halo.begin(&dev, &comm, &wide);
            let pending_narrow = halo.begin(&dev, &comm, &narrow);
            halo.finish(&dev, &comm, pending_narrow, &mut narrow);
            halo.finish(&dev, &comm, pending_wide, &mut wide);
            check_ghosts(&grid, &wide);
            check_ghosts(&grid, &narrow);
        });
    }

    #[test]
    fn tag_bands_are_disjoint_per_lane_count_and_width() {
        // the f64 one-lane band and the f32 one-lane band are the ones
        // the two families used before they were merged
        assert_eq!(face_tag(0, 0, 1, false), 0);
        assert_eq!(face_tag(2, 1, 1, false), 5);
        assert_eq!(face_tag(0, 0, 1, true), 6);
        assert_eq!(face_tag(0, 0, 2, false), 12);
        assert_eq!(face_tag(0, 0, 2, true), 18);
        let mut seen = std::collections::BTreeSet::new();
        for lanes in 1..=4 {
            for narrow in [false, true] {
                for face in 0..6 {
                    assert!(seen.insert(face_tag(face / 2, face % 2, lanes, narrow)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "whole multiple of the field element")]
    fn a_wire_narrower_than_the_field_is_rejected() {
        let dev = Serial::new(Recorder::disabled());
        let global = GlobalGrid::dirichlet([4, 4, 4], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, Decomp::single(), 0);
        let mut field = make_lane_field::<f64>(&dev, &grid, 0);
        let comm = comm::SelfComm::<f32>::default();
        HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
    }

    /// A field of a `[4,4,4]` single-rank grid and a halo exchange for a
    /// `[4,4,5]` one: the field is one plane short of the exchange's grid.
    fn field_of_another_grid(dev: &Serial) -> (HaloExchange<f64>, Field<f64>) {
        let grid = |n| {
            BlockGrid::new(
                GlobalGrid::dirichlet(n, [0.1; 3], [0.0; 3]),
                Decomp::single(),
                0,
            )
        };
        let field = make_lane_field::<f64>(dev, &grid([4, 4, 4]), 0);
        (HaloExchange::new(&grid([4, 4, 5])), field)
    }

    #[test]
    #[should_panic(expected = "field shape mismatch")]
    fn field_shape_mismatch_panics_in_exchange_lanes() {
        let dev = Serial::new(Recorder::disabled());
        let (halo, mut short) = field_of_another_grid(&dev);
        // a padded field of the exchange's own [4,4,5] grid
        let mut good = vec![0.0; 6 * 6 * 7];
        let comm = comm::SelfComm::<f64>::default();
        halo.exchange_lanes(&dev, &comm, &mut [&mut good[..], short.as_mut_slice()]);
    }

    #[test]
    #[should_panic(expected = "field shape mismatch")]
    fn field_shape_mismatch_panics_in_begin() {
        let dev = Serial::new(Recorder::disabled());
        let (halo, field) = field_of_another_grid(&dev);
        let comm = comm::SelfComm::<f64>::default();
        let _pending = halo.begin(&dev, &comm, &field);
    }

    #[test]
    fn single_rank_exchange_is_a_noop() {
        let dev = Serial::new(Recorder::disabled());
        let global = GlobalGrid::dirichlet([4, 4, 4], [0.1; 3], [0.0; 3]);
        let grid = BlockGrid::new(global, Decomp::single(), 0);
        let mut field = make_lane_field::<f64>(&dev, &grid, 0);
        let before = field.as_slice().to_vec();
        let comm = comm::SelfComm::<f64>::default();
        HaloExchange::new(&grid).exchange(&dev, &comm, &mut field);
        assert_eq!(field.as_slice(), &before[..]);
    }
}

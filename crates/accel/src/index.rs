//! Index spaces and work division.
//!
//! alpaka expresses a kernel's index domain as an `alpaka::Vec` extent and a
//! work division (`WorkDivMembers`). Our kernels iterate a 3-D interior
//! region of a halo-padded array; the natural safe unit of parallelism in
//! Rust is a *row* (the unit-stride x-line of a (j, k) pencil), so the work
//! division here is over rows. A [`RowMap`] describes where each row of the
//! output lives inside the backing slice and is validated to guarantee rows
//! are disjoint and in bounds, which is what lets the back-ends hand each
//! worker an exclusive `&mut [T]` without data races.
//!
//! A sweep split around a halo exchange is divided in two by
//! [`RowMap::halo_window`] and [`RowMap::halo_shell`]. Only the benchmark's
//! split-sweep probe and tests run one: every solver sweep runs after a
//! blocking `exchange`/`exchange_lanes`. The split gives a *window* that
//! peels only the faces in flight and is sized by the message, swept
//! while the exchange runs, and a *shell* — the window's peeled cells,
//! then every remaining plane as full rows — swept after it. One
//! geometry, chosen from the in-flight face set alone.
//!
//! A back-end hands its kernels rows a [`Run`] at a time: the consecutive
//! rows of one plane that one owner sweeps ([`RowMap::runs`]).

use std::ops::Range;

/// 3-D extent (x is the contiguous/fastest dimension).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent3 {
    /// Number of elements in x (row length).
    pub nx: usize,
    /// Number of rows in y.
    pub ny: usize,
    /// Number of planes in z.
    pub nz: usize,
}

impl Extent3 {
    /// Create an extent.
    pub const fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self { nx, ny, nz }
    }

    /// Total number of elements.
    pub const fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// `true` if the extent contains no elements.
    pub const fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Maps the rows of a 3-D region onto a backing slice.
///
/// Row `(j, k)` with `j < ny`, `k < nz` occupies the half-open range
/// `[base + j*sy + k*sz, base + j*sy + k*sz + len)`.
///
/// For a halo-padded field of padded dims `(pnx, pny, pnz)` whose interior
/// is `(nx, ny, nz)` with halo width 1, the interior rows are
/// `RowMap { base: 1 + pnx + pnx*pny, len: nx, ny, nz, sy: pnx, sz: pnx*pny }`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowMap {
    /// Offset of row `(0, 0)` in the backing slice.
    pub base: usize,
    /// Row length (elements per row).
    pub len: usize,
    /// Number of rows in y.
    pub ny: usize,
    /// Number of rows (planes) in z.
    pub nz: usize,
    /// Stride between consecutive y rows.
    pub sy: usize,
    /// Stride between consecutive z planes.
    pub sz: usize,
}

impl RowMap {
    /// Row map for a plain contiguous slice of `n` elements (a single row).
    pub const fn contiguous(n: usize) -> Self {
        Self {
            base: 0,
            len: n,
            ny: 1,
            nz: 1,
            sy: n,
            sz: n,
        }
    }

    /// Row map for the interior of a halo-padded field.
    ///
    /// `interior` is the interior extent; the padded field has one halo
    /// layer on every side, so padded dims are `interior + 2` per axis.
    pub const fn halo_interior(interior: Extent3) -> Self {
        Self::halo_box(interior, [0; 3], [interior.nx, interior.ny, interior.nz])
    }

    /// Row map of the sub-box of the interior that starts at interior
    /// cell `lo` and spans `n` cells per axis (x, y, z).
    const fn halo_box(interior: Extent3, lo: [usize; 3], n: [usize; 3]) -> Self {
        let pnx = interior.nx + 2;
        let pny = interior.ny + 2;
        Self {
            base: (lo[0] + 1) + (lo[1] + 1) * pnx + (lo[2] + 1) * pnx * pny,
            len: n[0],
            ny: n[1],
            nz: n[2],
            sy: pnx,
            sz: pnx * pny,
        }
    }

    /// Origin and extent of the split-sweep *window* (see
    /// [`RowMap::halo_window`]), in interior cells; `None` when peeling
    /// the in-flight faces leaves no cell along some axis.
    fn window_box(interior: Extent3, in_flight: u8) -> Option<([usize; 3], [usize; 3])> {
        let n = [interior.nx, interior.ny, interior.nz];
        let bit = |axis: usize, side: usize| usize::from(in_flight & (1 << (axis * 2 + side)) != 0);
        let lo = [bit(0, 0), bit(1, 0), bit(2, 0)];
        let mut w = [0; 3];
        let mut face_cells = 0;
        for a in 0..3 {
            w[a] = n[a].checked_sub(lo[a] + bit(a, 1)).filter(|&c| c > 0)?;
            face_cells += (lo[a] + bit(a, 1)) * n[(a + 1) % 3] * n[(a + 2) % 3];
        }
        if in_flight != 0 {
            // the fewest planes whose cells outnumber the message's
            w[2] = w[2].min(face_cells / (w[0] * w[1]) + 1);
        }
        Some((lo, w))
    }

    /// Row map for the *window* of a split-phase sweep: the cells swept
    /// while a halo exchange of the faces in `in_flight` (bit
    /// `axis * 2 + side`) is in flight.
    ///
    /// No window cell has an in-flight ghost as a stencil neighbour: the
    /// cell layer next to each in-flight face is peeled. Every other
    /// ghost — physical boundaries, refreshed before the sweep — may be
    /// read. The window spans the leading z planes only, the fewest whose
    /// cells outnumber the in-flight face cells (at least one, at most
    /// all): the work hidden behind the exchange is proportional to the
    /// message, and the peeled cells swept afterwards by
    /// [`RowMap::halo_shell`] are still in cache. With nothing in flight
    /// the window is the whole interior. `None` when the block is too
    /// thin to leave a cell after peeling.
    pub fn halo_window(interior: Extent3, in_flight: u8) -> Option<Self> {
        Self::window_box(interior, in_flight).map(|(lo, n)| Self::halo_box(interior, lo, n))
    }

    /// Row maps for the *shell* of a split-phase sweep: the interior
    /// cells NOT in [`RowMap::halo_window`], swept once the exchange has
    /// finished. Window and shell tile the interior exactly, each cell
    /// covered once.
    ///
    /// Without a window the shell is the whole interior (a single map).
    /// Otherwise, in order: one piece per in-flight y face (an x-strip
    /// per window plane) and x face (a one-cell column per window row),
    /// the in-flight z-low plane, and all planes behind the window —
    /// the in-flight z-high plane included — as full rows.
    pub fn halo_shell(interior: Extent3, in_flight: u8) -> ShellMaps {
        let mut shell = ShellMaps::EMPTY;
        let Some((lo, w)) = Self::window_box(interior, in_flight) else {
            shell.push(Self::halo_interior(interior));
            return shell;
        };
        let (nx, ny, nz) = (interior.nx, interior.ny, interior.nz);
        if lo[1] == 1 {
            shell.push(Self::halo_box(interior, [0, 0, lo[2]], [nx, 1, w[2]]));
        }
        if lo[1] + w[1] < ny {
            shell.push(Self::halo_box(interior, [0, ny - 1, lo[2]], [nx, 1, w[2]]));
        }
        if lo[0] == 1 {
            shell.push(Self::halo_box(interior, [0, lo[1], lo[2]], [1, w[1], w[2]]));
        }
        if lo[0] + w[0] < nx {
            shell.push(Self::halo_box(
                interior,
                [nx - 1, lo[1], lo[2]],
                [1, w[1], w[2]],
            ));
        }
        if lo[2] == 1 {
            shell.push(Self::halo_box(interior, [0, 0, 0], [nx, ny, 1]));
        }
        let behind = lo[2] + w[2];
        if behind < nz {
            shell.push(Self::halo_box(
                interior,
                [0, 0, behind],
                [nx, ny, nz - behind],
            ));
        }
        shell
    }

    /// Total number of mapped elements.
    pub const fn elems(&self) -> usize {
        self.len * self.ny * self.nz
    }

    /// Total number of rows.
    pub const fn rows(&self) -> usize {
        self.ny * self.nz
    }

    /// Offset of row `(j, k)` in the backing slice.
    #[inline(always)]
    pub const fn row_offset(&self, j: usize, k: usize) -> usize {
        self.base + j * self.sy + k * self.sz
    }

    /// Check the *disjointness invariant*: with `sy >= len` and
    /// `sz >= ny * sy`, distinct `(j, k)` rows can never overlap, and the
    /// last row must end within `out_len`. Panics with a descriptive
    /// message if violated; back-ends call this before any unsafe row
    /// splitting.
    pub fn validate(&self, out_len: usize) {
        assert!(
            self.len > 0 && self.ny > 0 && self.nz > 0,
            "RowMap with empty extent: {self:?}"
        );
        assert!(
            self.sy >= self.len,
            "RowMap rows overlap in y: sy={} < len={}",
            self.sy,
            self.len
        );
        assert!(
            self.sz >= self.ny * self.sy,
            "RowMap planes overlap in z: sz={} < ny*sy={}",
            self.sz,
            self.ny * self.sy
        );
        let last_end = self.row_offset(self.ny - 1, self.nz - 1) + self.len;
        assert!(
            last_end <= out_len,
            "RowMap out of bounds: last row ends at {last_end} but slice has {out_len} elements"
        );
    }

    /// Decompose a linear row index `r in 0..rows()` into `(j, k)`.
    #[inline(always)]
    pub const fn row_jk(&self, r: usize) -> (usize, usize) {
        (r % self.ny, r / self.ny)
    }

    /// The runs of the linear rows `rows`: `(k, j0..j1)` for each plane
    /// they touch, in row order — the whole plane for a range that covers
    /// it, its first or last rows where the range starts or ends inside it.
    #[inline(always)]
    pub fn runs(&self, rows: Range<usize>) -> impl Iterator<Item = (usize, Range<usize>)> {
        let ny = self.ny;
        let mut r = rows.start;
        std::iter::from_fn(move || {
            if r >= rows.end {
                return None;
            }
            let (j0, k) = (r % ny, r / ny);
            let j1 = ny.min(j0 + rows.end - r);
            r += j1 - j0;
            Some((k, j0..j1))
        })
    }

    /// Backing-slice range from the first cell of row `(js.start, k)` to
    /// the last cell of row `(js.end − 1, k)`: the span one run covers.
    #[inline(always)]
    const fn run_span(&self, k: usize, js: &Range<usize>) -> Range<usize> {
        self.row_offset(js.start, k)..self.row_offset(js.end - 1, k) + self.len
    }
}

/// One run of a launch: the consecutive rows `js` of plane `k` that a
/// single owner sweeps — a whole plane on [`crate::Serial`], the plane's
/// part of a chunk on [`crate::Threads`], of a block on
/// [`crate::SimGpu`] — as row-exact `&mut` slices of the launch's lane
/// buffer and of each of its `N` further outputs.
///
/// A kernel body receives one run at a time and loops its rows itself, so
/// whatever it sets up per call — a vector arm, coefficients, windows —
/// it pays once per run instead of once per row.
pub struct Run<'a, T, const N: usize = 0> {
    /// The run's plane: row index `k` of the launch's map.
    pub k: usize,
    /// The run's rows `j0..j1` of that plane.
    pub js: Range<usize>,
    a: RunRows<'a, T>,
    outs: [RunRows<'a, T>; N],
}

impl<'a, T, const N: usize> Run<'a, T, N> {
    /// The run of rows `js` of plane `k` in `a` under `map_a` and in each
    /// further output under its own map.
    #[inline(always)]
    pub(crate) fn new(
        k: usize,
        js: Range<usize>,
        (map_a, a): (&RowMap, &'a mut [T]),
        outs: [(&RowMap, &'a mut [T]); N],
    ) -> Self {
        let outs = outs.map(|(m, b)| RunRows::new(&mut b[m.run_span(k, &js)], m));
        let a = RunRows::new(&mut a[map_a.run_span(k, &js)], map_a);
        Self { k, js, a, outs }
    }

    /// [`Run::new`] over lane base pointers, for back-ends whose owners
    /// share one lane table.
    ///
    /// # Safety
    /// Each map must have been validated against the allocation its
    /// pointer addresses ([`RowMap::validate`]), and no other live slice
    /// may overlap the rows `js` of plane `k` of any buffer: callers hand
    /// each row of a launch to exactly one owner.
    #[inline(always)]
    pub(crate) unsafe fn from_raw(
        k: usize,
        js: Range<usize>,
        (map_a, a): (&RowMap, SendPtr<T>),
        outs: [(&RowMap, SendPtr<T>); N],
    ) -> Self {
        // SAFETY: the caller guarantees every span lies inside a validated
        // allocation and belongs to this owner alone.
        let span = |map: &RowMap, p: SendPtr<T>| unsafe {
            let r = map.run_span(k, &js);
            RunRows::new(
                std::slice::from_raw_parts_mut(p.0.add(r.start), r.len()),
                map,
            )
        };
        let outs = outs.map(|(m, p)| span(m, p));
        let a = span(map_a, a);
        Self { k, js, a, outs }
    }

    /// `(j, row)` for every row of the run, in order.
    #[inline(always)]
    pub fn rows(self) -> impl Iterator<Item = (usize, &'a mut [T])> {
        self.rows_n().map(|(j, row, _)| (j, row))
    }

    /// `(j, row, outs)` for every row of the run, in order: the row of the
    /// lane buffer and the same row of each further output.
    #[inline(always)]
    pub fn rows_n(self) -> impl Iterator<Item = (usize, &'a mut [T], [&'a mut [T]; N])> {
        let Self {
            js,
            mut a,
            mut outs,
            ..
        } = self;
        js.map(move |j| (j, a.take(), outs.each_mut().map(RunRows::take)))
    }
}

/// The row slices of one buffer over a run: `len` cells every `stride`,
/// carved off the front of the run's span, which holds one row per row
/// of the run.
struct RunRows<'a, T> {
    span: &'a mut [T],
    len: usize,
    stride: usize,
}

impl<'a, T> RunRows<'a, T> {
    #[inline(always)]
    fn new(span: &'a mut [T], map: &RowMap) -> Self {
        Self {
            span,
            len: map.len,
            stride: map.sy,
        }
    }

    /// The next row.
    #[inline(always)]
    fn take(&mut self) -> &'a mut [T] {
        let (row, rest) = std::mem::take(&mut self.span).split_at_mut(self.len);
        self.span = rest.get_mut(self.stride - self.len..).unwrap_or_default();
        row
    }
}

/// The row maps of a [`RowMap::halo_shell`] decomposition, stored inline.
///
/// The shell is at most six pieces, so the container is a fixed array
/// plus a count, and `halo_shell` allocates nothing. Only the split-sweep
/// probes and tests call it. Dereferences to a slice; iterating by value
/// yields `RowMap`s.
#[derive(Clone, Copy, Debug)]
pub struct ShellMaps {
    maps: [RowMap; 6],
    n: usize,
}

impl ShellMaps {
    const EMPTY: Self = Self {
        maps: [RowMap::contiguous(0); 6],
        n: 0,
    };

    fn push(&mut self, map: RowMap) {
        self.maps[self.n] = map;
        self.n += 1;
    }
}

impl std::ops::Deref for ShellMaps {
    type Target = [RowMap];

    fn deref(&self) -> &[RowMap] {
        &self.maps[..self.n]
    }
}

impl IntoIterator for ShellMaps {
    type Item = RowMap;
    type IntoIter = std::iter::Take<std::array::IntoIter<RowMap, 6>>;

    fn into_iter(self) -> Self::IntoIter {
        self.maps.into_iter().take(self.n)
    }
}

/// A raw pointer that may be sent to worker threads.
///
/// Used by the back-ends to hand out *disjoint* mutable row slices of one
/// output buffer. Safety is established by [`RowMap::validate`]: distinct
/// rows never alias, so concurrent `&mut` row slices are sound.
pub(crate) struct SendPtr<T>(pub *mut T);

// A pointer copies whatever it points to (a derive would demand `T: Copy`,
// and a lane table's `&mut [T]` entries are not).
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

// SAFETY: the pointer is only dereferenced through `Run::from_raw`, which
// produces non-overlapping spans for distinct runs (validated RowMap), and
// the owning `&mut [T]` outlives every launch (back-ends join all workers
// before returning).
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

/// Split `n` items into `parts` nearly-equal contiguous ranges.
///
/// Returns the half-open range for `part`; ranges for successive parts
/// tile `0..n` exactly. The first `n % parts` parts get one extra item.
#[inline]
pub fn chunk_range(n: usize, parts: usize, part: usize) -> std::ops::Range<usize> {
    debug_assert!(part < parts);
    let base = n / parts;
    let rem = n % parts;
    let start = part * base + part.min(rem);
    let len = base + usize::from(part < rem);
    start..start + len
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extent_len() {
        let e = Extent3::new(4, 5, 6);
        assert_eq!(e.len(), 120);
        assert!(!e.is_empty());
        assert!(Extent3::new(0, 5, 6).is_empty());
    }

    #[test]
    fn contiguous_map() {
        let m = RowMap::contiguous(10);
        m.validate(10);
        assert_eq!(m.elems(), 10);
        assert_eq!(m.rows(), 1);
        assert_eq!(m.row_offset(0, 0), 0);
    }

    #[test]
    fn halo_interior_map() {
        let e = Extent3::new(3, 4, 5);
        let m = RowMap::halo_interior(e);
        // padded dims 5 x 6 x 7
        m.validate(5 * 6 * 7);
        assert_eq!(m.elems(), 60);
        assert_eq!(m.row_offset(0, 0), 1 + 5 + 30);
        // first interior element of second plane
        assert_eq!(m.row_offset(0, 1), 1 + 5 + 60);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn validate_rejects_short_slice() {
        let m = RowMap::halo_interior(Extent3::new(3, 4, 5));
        m.validate(10);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn validate_rejects_overlapping_rows() {
        let m = RowMap {
            base: 0,
            len: 5,
            ny: 2,
            nz: 1,
            sy: 3,
            sz: 100,
        };
        m.validate(1000);
    }

    #[test]
    fn row_jk_roundtrip() {
        let m = RowMap::halo_interior(Extent3::new(2, 3, 4));
        for r in 0..m.rows() {
            let (j, k) = m.row_jk(r);
            assert_eq!(k * m.ny + j, r);
        }
    }

    /// Mark every cell `maps` cover, validating each map on the way.
    fn coverage(e: Extent3, maps: impl IntoIterator<Item = RowMap>) -> Vec<u8> {
        let padded = (e.nx + 2) * (e.ny + 2) * (e.nz + 2);
        let mut hits = vec![0u8; padded];
        for m in maps {
            m.validate(padded);
            for r in 0..m.rows() {
                let (j, k) = m.row_jk(r);
                let off = m.row_offset(j, k);
                for h in &mut hits[off..off + m.len] {
                    *h += 1;
                }
            }
        }
        hits
    }

    /// Window and shell of `(e, in_flight)`: together they cover each
    /// interior cell once and nothing else, and no window cell reads an
    /// in-flight ghost.
    pub(super) fn check_split(e: Extent3, in_flight: u8) {
        let window = RowMap::halo_window(e, in_flight);
        let shell = RowMap::halo_shell(e, in_flight);
        let hits = coverage(e, window.into_iter().chain(shell));
        let expect = coverage(e, [RowMap::halo_interior(e)]);
        assert_eq!(hits, expect, "{e:?} mask {in_flight:#08b}: not a tiling");
        if let Some(w) = window {
            assert_window_reads_no_in_flight_ghost(e, in_flight, w);
        }
    }

    /// No cell of the window box `w` has a ghost of an in-flight face as a
    /// 7-point neighbour: along each in-flight axis side, the box keeps one
    /// cell layer away from that ghost plane.
    fn assert_window_reads_no_in_flight_ghost(e: Extent3, in_flight: u8, w: RowMap) {
        let (pnx, pny) = (e.nx + 2, e.ny + 2);
        assert_eq!((w.sy, w.sz), (pnx, pnx * pny), "window is not a box");
        // the box in padded coordinates: [lo, lo + n) per axis
        let lo = [w.base % pnx, (w.base / pnx) % pny, w.base / (pnx * pny)];
        let n = [w.len, w.ny, w.nz];
        let ghost_hi = [e.nx + 1, e.ny + 1, e.nz + 1];
        for axis in 0..3 {
            if in_flight & (1 << (axis * 2)) != 0 {
                assert!(
                    lo[axis] >= 2,
                    "{e:?} mask {in_flight:#08b}: window reads the low ghost of axis {axis}"
                );
            }
            if in_flight & (1 << (axis * 2 + 1)) != 0 {
                assert!(
                    lo[axis] + n[axis] < ghost_hi[axis],
                    "{e:?} mask {in_flight:#08b}: window reads the high ghost of axis {axis}"
                );
            }
        }
    }

    #[test]
    fn thin_blocks_have_no_window() {
        // one cell in x, an x face in flight: every cell is next to it
        let e = Extent3::new(1, 8, 8);
        assert!(RowMap::halo_window(e, 0b01).is_none());
        let shell = RowMap::halo_shell(e, 0b01);
        assert_eq!(&shell[..], &[RowMap::halo_interior(e)]);
        // two cells between two in-flight z faces
        assert!(RowMap::halo_window(Extent3::new(8, 8, 2), 0b11_0000).is_none());
        check_split(e, 0b01);
    }

    #[test]
    fn nothing_in_flight_means_nothing_deferred() {
        let e = Extent3::new(4, 5, 6);
        assert_eq!(RowMap::halo_window(e, 0), Some(RowMap::halo_interior(e)));
        assert!(RowMap::halo_shell(e, 0).is_empty());
    }

    #[test]
    fn window_is_sized_by_the_message_and_peels_only_in_flight_faces() {
        // rank 0 of [2,1,1] at 64^3: the x-high face (64 x 64 cells) is
        // in flight; a window plane holds 31 x 64 cells, so three planes
        // are the fewest that outnumber the message.
        let e = Extent3::new(32, 64, 64);
        let x_hi = 1 << 1;
        let w = RowMap::halo_window(e, x_hi).unwrap();
        assert_eq!((w.len, w.ny, w.nz), (31, 64, 3));
        assert_eq!(w.base, RowMap::halo_interior(e).base);
        let shell = RowMap::halo_shell(e, x_hi);
        let dims: Vec<_> = shell.iter().map(|m| (m.len, m.ny, m.nz)).collect();
        assert_eq!(dims, [(1, 64, 3), (32, 64, 61)]);
        check_split(e, x_hi);
        // every face in flight: six pieces, the last carries the z-high plane
        assert_eq!(
            RowMap::halo_shell(Extent3::new(5, 6, 7), 0b11_1111).len(),
            6
        );
        check_split(Extent3::new(5, 6, 7), 0b11_1111);
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for n in [0usize, 1, 7, 64, 100] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                for p in 0..parts {
                    let r = chunk_range(n, parts, p);
                    assert_eq!(r.start, covered, "n={n} parts={parts} p={p}");
                    covered = r.end;
                }
                assert_eq!(covered, n);
            }
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn halo_interior_rowmaps_always_validate(
            nx in 1usize..32, ny in 1usize..32, nz in 1usize..32,
        ) {
            let e = Extent3::new(nx, ny, nz);
            let m = RowMap::halo_interior(e);
            let padded = (nx + 2) * (ny + 2) * (nz + 2);
            m.validate(padded);
            prop_assert_eq!(m.elems(), e.len());
        }

        #[test]
        fn rows_never_overlap(
            nx in 1usize..16, ny in 1usize..16, nz in 1usize..16,
        ) {
            let m = RowMap::halo_interior(Extent3::new(nx, ny, nz));
            // mark every mapped element; each must be touched exactly once
            let padded = (nx + 2) * (ny + 2) * (nz + 2);
            let mut hits = vec![0u8; padded];
            for r in 0..m.rows() {
                let (j, k) = m.row_jk(r);
                let off = m.row_offset(j, k);
                for i in 0..m.len {
                    hits[off + i] += 1;
                }
            }
            prop_assert!(hits.iter().all(|&h| h <= 1), "overlapping rows");
            prop_assert_eq!(hits.iter().map(|&h| h as usize).sum::<usize>(), m.elems());
        }

        #[test]
        fn chunks_are_balanced(n in 0usize..10_000, parts in 1usize..64) {
            let sizes: Vec<usize> = (0..parts).map(|p| chunk_range(n, parts, p).len()).collect();
            let min = *sizes.iter().min().unwrap();
            let max = *sizes.iter().max().unwrap();
            prop_assert!(max - min <= 1, "chunks must differ by at most one element");
            prop_assert_eq!(sizes.iter().sum::<usize>(), n);
        }

        #[test]
        fn row_jk_is_a_bijection(ny in 1usize..40, nz in 1usize..40) {
            let m = RowMap { base: 0, len: 1, ny, nz, sy: 1, sz: ny };
            let mut seen = vec![false; ny * nz];
            for r in 0..m.rows() {
                let (j, k) = m.row_jk(r);
                prop_assert!(j < ny && k < nz);
                let slot = k * ny + j;
                prop_assert!(!seen[slot], "duplicate (j,k)");
                seen[slot] = true;
            }
            prop_assert!(seen.into_iter().all(|s| s));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn window_and_shell_tile_any_extent_under_any_mask(
            nx in 1usize..8, ny in 1usize..8, nz in 1usize..8, in_flight in 0u8..64,
        ) {
            super::tests::check_split(Extent3::new(nx, ny, nz), in_flight);
        }
    }
}

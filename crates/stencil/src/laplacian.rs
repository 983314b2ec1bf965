//! Matrix-free application of the discrete Poisson operator.
//!
//! The solver never stores the matrix: `A x` is a 7-point stencil sweep
//! over the subdomain interior (Sec. III-B), fused where the algorithm
//! allows with the local scalar products (`KernelBiCGS1/3` in Alg. 3).
//! Before any sweep the ghost layers must be current:
//!
//! 1. interface ghosts — [`blockgrid::HaloExchange`] (the `MPI*` stages);
//! 2. physical ghosts — [`apply_physical_bcs`] (the paper's
//!    `KernelNeumannBCs`): Neumann faces mirror the first interior plane
//!    across the boundary node (realising the `-2` row of Eq. 5), and
//!    Dirichlet faces are pinned to zero (the boundary values live in the
//!    right-hand side).

use std::ops::Range;

use accel::{
    add_partials, fold_row_edge_last_n, row_has_deep_middle, Device, KernelInfo, Recorder, RowMap,
    Run, Scalar,
};
use blockgrid::{BcKind, BlockGrid, Field, LocalBoundary};

use crate::op1d::{EndKind, Op1d};

/// Cost metadata for the plain stencil sweep: streams u and w once
/// (2 × 8 B) and does ~10 flops per element.
pub const INFO_APPLY: KernelInfo = KernelInfo::new("KernelApplyA", 32, 10);
/// The `KernelNeumannBCs` ghost update (plane traffic folded into a
/// nominal per-element cost; it touches O(N²) of an O(N³) field).
pub const INFO_NEUMANN_BCS: KernelInfo = KernelInfo::new("KernelNeumannBCs", 16, 0);

/// The refold of the window rows of a split fused-dot sweep whose x-edge
/// cell landed after the exchange: per slot element, one write and one
/// canonical fold of an `nx`-cell row. The rows it reads were swept
/// moments ago and are cache-resident — what sizing the window by the
/// message buys — so they add no streaming traffic.
fn info_fold_window<T: Scalar>(nx: usize) -> KernelInfo {
    KernelInfo::new("KernelFoldWindow", T::BYTES as u32, 2 * nx as u32)
}

/// The matrix-free 7-point Laplacian on one subdomain.
#[derive(Clone, Debug)]
pub struct Laplacian {
    grid: BlockGrid,
    /// [`BlockGrid::interface_mask`]: the faces a halo exchange of this
    /// subdomain has in flight, which the split sweeps peel.
    in_flight: u8,
}

/// The 7-point row core: per-axis `1/h²`, the padded strides and the
/// vector arm — all a row of the stencil needs besides its input. Every
/// sweep of [`Laplacian`] is a run body: it computes the rows of each
/// [`Run`] a back-end hands it through [`RowCore::stencil_run`], the only
/// copy of the stencil arithmetic.
#[derive(Clone, Copy)]
struct RowCore<T> {
    c: [T; 3],
    sy: usize,
    sz: usize,
    /// Runs take the AVX2 arm ([`avx2_detected`] when the core was built).
    avx2: bool,
}

/// `true` when runs may take the AVX2 arm of [`RowCore::stencil_run`]:
/// the CPU has AVX2, checked at run time. Never under Miri or off
/// x86-64, and not on a unit-test thread inside
/// `tests::portable_only`.
fn avx2_detected() -> bool {
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    let cpu = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(all(target_arch = "x86_64", not(miri))))]
    let cpu = false;
    #[cfg(test)]
    let cpu = cpu && !tests::PORTABLE_ONLY.with(std::cell::Cell::get);
    cpu
}

impl<T: Scalar> RowCore<T> {
    /// The stencil rows of one run of `map`: for each row `(j, row,
    /// row_b)` of `run`, `row[i] = ca · (A u)[b + i] + Σₜ cₜ fₜ[b + i]`
    /// with `b = map.row_offset(j, run.k)` its padded offset in `u`, the
    /// terms `(fₜ, cₜ)` (whole padded arrays) added in order, then
    /// `post(j, b, row, row_b)` — where a fused sweep folds the row's dot
    /// terms. Without `SCALED` the stencil value enters unscaled and `ca`
    /// is unused.
    ///
    /// One portable body ([`RowCore::stencil_run_portable`]) compiled
    /// twice: as is (SSE2 on x86-64) and inside a function with AVX2
    /// enabled, picked once per run by the flag the core was built with —
    /// the rows of a run then share one call, one set of coefficient
    /// broadcasts and one loop. AVX2 only — no FMA: Rust never contracts
    /// `a * b + c`, so both arms do the same roundings in the same order
    /// and agree bit for bit.
    #[inline(always)]
    fn stencil_run<const SCALED: bool, const N: usize>(
        &self,
        us: &[T],
        map: &RowMap,
        run: Run<'_, T>,
        ca: T,
        terms: [(&[T], T); N],
        post: impl FnMut(usize, usize, &mut [T], &mut [T]),
    ) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if self.avx2 {
            // SAFETY: `avx2` is only set by `avx2_detected`, i.e. after
            // `is_x86_feature_detected!("avx2")` returned true on this
            // machine, so every instruction of the AVX2 arm is supported.
            return unsafe { self.stencil_run_avx2::<SCALED, N>(us, map, run, ca, terms, post) };
        }
        self.stencil_run_portable::<SCALED, N>(us, map, run, ca, terms, post);
    }

    /// [`RowCore::stencil_run_portable`] compiled with AVX2 enabled.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    fn stencil_run_avx2<const SCALED: bool, const N: usize>(
        &self,
        us: &[T],
        map: &RowMap,
        run: Run<'_, T>,
        ca: T,
        terms: [(&[T], T); N],
        post: impl FnMut(usize, usize, &mut [T], &mut [T]),
    ) {
        self.stencil_run_portable::<SCALED, N>(us, map, run, ca, terms, post);
    }

    /// The row loop of a run.
    ///
    /// Every field the run reads is sliced once per run, to the span from
    /// its first row's window to its last one's (one bounds check each,
    /// so a window reaching outside its field still panics). Row `r` of
    /// the run then reads cells `r·sy .. r·sy + n` of each slice: windows
    /// of one length at one offset, whose checks the compiler folds into
    /// one per row.
    #[inline(always)]
    fn stencil_run_portable<'u, const SCALED: bool, const N: usize>(
        &self,
        us: &'u [T],
        map: &RowMap,
        run: Run<'_, T>,
        ca: T,
        terms: [(&'u [T], T); N],
        mut post: impl FnMut(usize, usize, &mut [T], &mut [T]),
    ) {
        let (n, sy) = (map.len, map.sy);
        let b0 = map.row_offset(run.js.start, run.k);
        let span = (run.js.len() - 1) * sy + n;
        let at = |c: usize| &us[c..c + span];
        let (uc, xm, xp) = (at(b0), at(b0 - 1), at(b0 + 1));
        let (ym, yp) = (at(b0 - self.sy), at(b0 + self.sy));
        let (zm, zp) = (at(b0 - self.sz), at(b0 + self.sz));
        let fs = terms.map(|(f, coef)| (&f[b0..b0 + span], coef));
        for (r, (j, row, row_b)) in run.rows2().enumerate() {
            let o = r * sy;
            let win = |f: &'u [T]| &f[o..o + n];
            let u = [
                win(uc),
                win(xm),
                win(xp),
                win(ym),
                win(yp),
                win(zm),
                win(zp),
            ];
            self.stencil_row::<SCALED, N>(u, row, ca, fs, o);
            post(j, b0 + o, row, row_b);
        }
    }

    /// The stencil arithmetic of one row: `u` holds the row's seven input
    /// windows (centre, x−, x+, y−, y+, z−, z+), and its term windows
    /// start at offset `o` of the run's term slices. Every window is cut
    /// to one length, so the loop over them is unit-stride with no index
    /// check or branch left in it — what lets the compiler vectorise it
    /// without a scalar tail.
    #[inline(always)]
    fn stencil_row<const SCALED: bool, const N: usize>(
        &self,
        [uc, xm, xp, ym, yp, zm, zp]: [&[T]; 7],
        row: &mut [T],
        ca: T,
        terms: [(&[T], T); N],
        o: usize,
    ) {
        let n = uc.len();
        let row = &mut row[..n];
        let ws = terms.map(|(f, coef)| (&f[o..o + n], coef));
        let [cx, cy, cz] = self.c;
        let two = T::from_f64(2.0);
        for i in 0..n {
            let c = uc[i];
            let au = cx * (two * c - xm[i] - xp[i])
                + cy * (two * c - ym[i] - yp[i])
                + cz * (two * c - zm[i] - zp[i]);
            let mut v = if SCALED { ca * au } else { au };
            for (f, coef) in &ws {
                v += *coef * f[i];
            }
            row[i] = v;
        }
    }

    /// `body(j, row)` for every row of `run`, on the core's arm: the run
    /// body of a sweep that folds stored rows rather than computing
    /// stencil ones (the window refold).
    #[inline(always)]
    fn rows_run(&self, run: Run<'_, T>, mut body: impl FnMut(usize, &mut [T])) {
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        if self.avx2 {
            // SAFETY: `avx2` is only set by `avx2_detected`, i.e. after
            // `is_x86_feature_detected!("avx2")` returned true on this
            // machine, so every instruction of the AVX2 arm is supported.
            return unsafe { Self::rows_run_avx2(run, body) };
        }
        run.rows().for_each(|(j, row)| body(j, row));
    }

    /// [`RowCore::rows_run`]'s row loop compiled with AVX2 enabled.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    fn rows_run_avx2(run: Run<'_, T>, mut body: impl FnMut(usize, &mut [T])) {
        run.rows().for_each(|(j, row)| body(j, row));
    }
}

impl Laplacian {
    /// Build the operator for a subdomain.
    ///
    /// Requires at least two local unknowns along any axis whose faces
    /// include a physical Neumann boundary (the mirrored ghost of a
    /// 1-cell-thick subdomain would alias the opposite ghost layer).
    pub fn new(grid: &BlockGrid) -> Self {
        for a in 0..3 {
            let neumann = (0..2).any(|s| {
                matches!(
                    grid.boundary(a, s),
                    LocalBoundary::Physical(BcKind::Neumann)
                )
            });
            assert!(
                !(neumann && grid.local_n[a] < 2),
                "axis {a}: Neumann face needs at least 2 local unknowns, got {}",
                grid.local_n[a]
            );
        }
        Self {
            grid: grid.clone(),
            in_flight: grid.interface_mask(),
        }
    }

    /// The subdomain this operator acts on.
    pub fn grid(&self) -> &BlockGrid {
        &self.grid
    }

    /// Per-axis 1-D operators of the *global* matrix (Eq. 6).
    pub fn global_ops(&self) -> [Op1d; 3] {
        std::array::from_fn(|a| {
            Op1d::new(
                self.grid.global.n[a],
                EndKind::from_bc(self.grid.global.bc[a][0]),
                EndKind::from_bc(self.grid.global.bc[a][1]),
            )
        })
    }

    /// Per-axis 1-D operators of the *local* restricted matrix
    /// `R_s A R_sᵀ` (interfaces truncate to Dirichlet-like ends, Eq. 13).
    pub fn local_ops(&self) -> [Op1d; 3] {
        std::array::from_fn(|a| {
            Op1d::new(
                self.grid.local_n[a],
                EndKind::from_local_boundary(self.grid.boundary(a, 0)),
                EndKind::from_local_boundary(self.grid.boundary(a, 1)),
            )
        })
    }

    #[inline(always)]
    fn row_core<T: Scalar>(&self) -> RowCore<T> {
        let h = self.grid.global.h;
        let p = self.grid.padded();
        RowCore {
            c: std::array::from_fn(|a| T::from_f64(1.0 / (h[a] * h[a]))),
            sy: p[0],
            sz: p[0] * p[1],
            avx2: avx2_detected(),
        }
    }

    /// `w = A u` over the interior. `u`'s ghosts must be current.
    pub fn apply<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        self.apply_on_map(dev, info, self.grid.interior_map(), u, w);
    }

    /// The part of the interior a split sweep covers while the halo
    /// exchange is in flight ([`RowMap::halo_window`] of this subdomain's
    /// interface faces).
    #[inline(always)]
    fn window(&self) -> Option<RowMap> {
        RowMap::halo_window(self.grid.interior(), self.in_flight)
    }

    /// The rest of the interior, swept after the exchange has finished.
    #[inline(always)]
    fn shell(&self) -> accel::ShellMaps {
        RowMap::halo_shell(self.grid.interior(), self.in_flight)
    }

    /// Stencil sweep restricted to one sub-map of the interior.
    fn apply_on_map<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        map: RowMap,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        self.sweep_on_map::<T, D, false, 0>(dev, info, map, u, w, T::ZERO, []);
    }

    /// `w = A u` over the *window* of the interior: the first half of a
    /// split sweep, safe to run while a split-phase halo exchange
    /// (`HaloExchange::begin`) is in flight. It reads every ghost except
    /// those of interface faces, so the physical ghosts
    /// ([`apply_physical_bcs`]) must be current; pair with
    /// [`Laplacian::apply_shell`] after `finish` to complete the sweep.
    ///
    /// The window peels only the cells next to interface faces and spans
    /// only as many leading z planes as it takes to outnumber the cells in
    /// flight; a subdomain without interfaces is swept whole. No-op when
    /// the block is too thin to leave a window (`apply_shell` then covers
    /// the interior).
    pub fn apply_interior<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        if let Some(map) = self.window() {
            self.apply_on_map(dev, info, map, u, w);
        }
    }

    /// `w = A u` over the *shell* of the interior — the complement of
    /// [`Laplacian::apply_interior`]: the window's peeled cells (still in
    /// cache) and every plane behind it as full rows. Requires all ghost
    /// layers (halo + physical) to be current. Together the two cover each
    /// interior cell exactly once with arithmetic identical to
    /// [`Laplacian::apply`], so the split sweep is bitwise-equal to the
    /// monolithic one.
    pub fn apply_shell<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
    ) {
        for map in self.shell() {
            self.apply_on_map(dev, info, map, u, w);
        }
    }

    /// Fused affine stencil sweep: `out = ca * (A u) + sum_i c_i * f_i`
    /// over the interior; the number of extra fields is part of the type,
    /// so the term loop unrolls at compile time.
    ///
    /// This is the shape of the Chebyshev kernels of Algorithm 4:
    /// `KernelCI1` is `y = c1*b + ca*(A b)` and `KernelCI2` is
    /// `w = c1*y + c2*b + c3*z + ca*(A y)` — one stencil sweep each, no
    /// reductions (the iteration is reduction-free by construction).
    pub fn apply_combine<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        self.sweep_on_map::<T, D, true, N>(dev, info, self.grid.interior_map(), u, out, ca, terms);
    }

    /// [`Laplacian::apply_combine`] over the interior z planes `planes`
    /// (0-based, non-empty, within `0..nz`) only — the step a z-plane
    /// wavefront advances a sweep by. It reads `u` on planes
    /// `planes.start − 1 ..= planes.end` (a ghost plane at either end of
    /// the interior), whose ghosts must be current, and the terms on
    /// `planes`; cell for cell it is [`Laplacian::apply_combine`].
    #[allow(clippy::too_many_arguments)]
    pub fn apply_combine_planes<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        planes: Range<usize>,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        let all = self.grid.interior_map();
        let map = RowMap {
            base: all.row_offset(0, planes.start),
            nz: planes.len(),
            ..all
        };
        self.sweep_on_map::<T, D, true, N>(dev, info, map, u, out, ca, terms);
    }

    /// [`Laplacian::apply_combine`] over the window only (see
    /// [`Laplacian::apply_interior`] for the overlap contract).
    pub fn apply_combine_interior<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        if let Some(map) = self.window() {
            self.sweep_on_map::<T, D, true, N>(dev, info, map, u, out, ca, terms);
        }
    }

    /// [`Laplacian::apply_combine`] over the shell (see
    /// [`Laplacian::apply_shell`] for the overlap contract).
    pub fn apply_combine_shell<T: Scalar, D: Device, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        for map in self.shell() {
            self.sweep_on_map::<T, D, true, N>(dev, info, map, u, out, ca, terms);
        }
    }

    /// `out = ca · (A u) + Σₜ cₜ fₜ` (`ca` unused without `SCALED`) over
    /// one sub-map of the interior: the run body of every plain and
    /// combine sweep.
    #[allow(clippy::too_many_arguments)]
    fn sweep_on_map<T: Scalar, D: Device, const SCALED: bool, const N: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        map: RowMap,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: [(&Field<T>, T); N],
    ) {
        let core = self.row_core::<T>();
        let us = u.as_slice();
        let fs = terms.map(|(f, c)| (f.as_slice(), c));
        dev.on_stencil_read(info.name, map, us);
        let lanes = &mut [out.as_mut_slice()];
        dev.launch_runs(info, map, lanes, None, &mut [[]], |_, run, _| {
            core.stencil_run::<SCALED, N>(us, &map, run, ca, fs, |_, _, _, _| {});
        });
    }

    /// `out = A u` fused with `NR` local dot products per lane — the one
    /// body of the monolithic fused stencil-dot sweeps (`KernelBiCGS1`,
    /// `KernelBiCGS3`, `KernelBiCGS3F`), every lane of a multi-RHS solve
    /// in one launch. `terms` receives the lane, the padded linear index
    /// `c` and the stencil value `v` there and returns the `NR`
    /// per-element dot terms. The device strides lanes inside a single
    /// grid sweep (one kernel-launch event for the whole batch) while
    /// folding each lane's rows with a private accumulator, so a lane's
    /// field and scalars do not depend on which other lanes ride along.
    /// Slices are full padded lane arrays with current ghosts; per-lane
    /// dots land in `accs[s]`.
    ///
    /// Each dot folds its rows in the canonical edge-last order
    /// ([`fold_row_edge_last_n`]), so the result is bitwise identical to
    /// the split halo-overlap form ([`Laplacian::apply_interior_dot`] +
    /// [`Laplacian::apply_shell_dot`] + fold) of the same `terms` and to
    /// plain dots over `out` after a separate apply.
    pub fn apply_fused_dots<T: Scalar, D: Device, F, const NR: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        us: &[&[T]],
        outs: &mut [&mut [T]],
        accs: &mut [[T; NR]],
        terms: &F,
    ) where
        F: Fn(usize, usize, T) -> [T; NR] + Sync,
    {
        assert_eq!(us.len(), outs.len(), "lane count mismatch");
        let core = self.row_core::<T>();
        let map = self.grid.interior_map();
        let [nx, ny, nz] = self.grid.local_n;
        dev.launch_runs(info, map, outs, None, accs, |s, run, acc| {
            let k = run.k;
            core.stencil_run::<false, 0>(us[s], &map, run, T::ZERO, [], |j, b, row, _| {
                let mid = row_has_deep_middle(nx, ny, nz, j, k);
                let dots = fold_row_edge_last_n(nx, mid, |i| terms(s, b + i, row[i]));
                *acc = add_partials(*acc, dots);
            });
        });
    }

    /// `w = A u` fused with the local dot `g · w` (the paper's
    /// `KernelBiCGS1`: `w = A p̂`, `p_sum = r̃ᵀ w`): the one-lane
    /// [`Laplacian::apply_fused_dots`].
    pub fn apply_fused_dot<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
        g: &Field<T>,
    ) -> T {
        let gs = g.as_slice();
        let [dot] = self.apply_fused_dots_one(dev, info, u, w, &|_, c, v| [gs[c] * v]);
        dot
    }

    /// `t = A u` fused with the two local dots `(t · r, t · t)` (the
    /// paper's `KernelBiCGS3`), as one lane of
    /// [`Laplacian::apply_fused_dots`].
    pub fn apply_fused_dot2<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        t: &mut Field<T>,
        r: &Field<T>,
    ) -> (T, T) {
        let rs = r.as_slice();
        let [tr, tt] = self.apply_fused_dots_one(dev, info, u, t, &|_, c, v| [v * rs[c], v * v]);
        (tr, tt)
    }

    /// `t = A u` fused with the three local dots `(t · r, t · t, g · t)`
    /// — the `KernelBiCGS3F` sweep: the second stencil apply of the
    /// Bi-CGSTAB iteration produces every scalar the ω-step needs
    /// (`p1 = t·r`, `p2 = t·t`, `c4 = r̃ᵀ t`) in one pass. One lane of
    /// [`Laplacian::apply_fused_dots`].
    pub fn apply_fused_dot3<T: Scalar, D: Device>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        t: &mut Field<T>,
        r: &Field<T>,
        g: &Field<T>,
    ) -> (T, T, T) {
        let (rs, gs) = (r.as_slice(), g.as_slice());
        let terms = |_, c: usize, v: T| [v * rs[c], v * v, gs[c] * v];
        let [tr, tt, gt] = self.apply_fused_dots_one(dev, info, u, t, &terms);
        (tr, tt, gt)
    }

    /// [`Laplacian::apply_fused_dots`] over the single field `u`.
    fn apply_fused_dots_one<T: Scalar, D: Device, F, const NR: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        out: &mut Field<T>,
        terms: &F,
    ) -> [T; NR]
    where
        F: Fn(usize, usize, T) -> [T; NR] + Sync,
    {
        let mut acc = [[T::ZERO; NR]];
        let outs = &mut [out.as_mut_slice()];
        self.apply_fused_dots(dev, info, &[u.as_slice()], outs, &mut acc, terms);
        acc[0]
    }

    /// Slot-buffer row map for the rows of `piece`: the `NR` slots of
    /// interior row `(J, K)` live at offset `(J + ny·K) · NR`.
    fn slot_map_for<const NR: usize>(&self, piece: RowMap) -> RowMap {
        let (_, j0, k0) = self.piece_origin(piece);
        let ny = self.grid.local_n[1];
        RowMap {
            base: (j0 + ny * k0) * NR,
            len: NR,
            ny: piece.ny,
            nz: piece.nz,
            sy: NR,
            sz: ny * NR,
        }
    }

    /// Interior coordinates of the first cell of a window/shell piece.
    fn piece_origin(&self, piece: RowMap) -> (usize, usize, usize) {
        let [px, py, _] = self.grid.padded();
        (
            piece.base % px - 1,
            piece.base / px % py - 1,
            piece.base / (px * py) - 1,
        )
    }

    /// Fold the `NR` dot products of interior row `(j, k)` — its stencil
    /// values in `row`, its first cell at padded offset `b` — into the
    /// row's slots, in the canonical order of the monolithic fused sweeps.
    #[inline(always)]
    fn fold_row_into<T: Scalar, F, const NR: usize>(
        &self,
        (j, k): (usize, usize),
        b: usize,
        row: &[T],
        terms: &F,
        slot: &mut [T],
    ) where
        F: Fn(usize, T) -> [T; NR],
    {
        let [nx, ny, nz] = self.grid.local_n;
        let mid = row_has_deep_middle(nx, ny, nz, j, k);
        slot.copy_from_slice(&fold_row_edge_last_n(nx, mid, |i| terms(b + i, row[i])));
    }

    /// Stencil sweep over a piece made of *full* interior rows that also
    /// folds each row's `NR` dot products into the row's slots
    /// ([`Laplacian::fold_row_into`]). `terms` receives the padded linear
    /// index `c` and the stencil value `v` there and returns the `NR`
    /// per-element dot terms.
    #[allow(clippy::too_many_arguments)]
    fn apply_rows_dot<T: Scalar, D: Device, F, const NR: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        map: RowMap,
        u: &Field<T>,
        w: &mut Field<T>,
        slots: &mut [T],
        terms: &F,
    ) where
        F: Fn(usize, T) -> [T; NR] + Sync,
    {
        let core = self.row_core::<T>();
        let (_, j0, k0) = self.piece_origin(map);
        let us = u.as_slice();
        dev.on_stencil_read(info.name, map, us);
        let slots = Some((self.slot_map_for::<NR>(map), &mut [slots][..]));
        let lanes = &mut [w.as_mut_slice()];
        dev.launch_runs(info, map, lanes, slots, &mut [[]], |_, run, _| {
            let k = run.k;
            core.stencil_run::<false, 0>(us, &map, run, T::ZERO, [], |j, b, row, slot| {
                self.fold_row_into((j0 + j, k0 + k), b, row, terms, slot);
            });
        });
    }

    /// Number of slot elements [`Laplacian::apply_interior_dot`] /
    /// [`Laplacian::apply_shell_dot`] need for an `NR`-way fused dot:
    /// one `NR`-slot row per interior `(j, k)` row.
    pub fn slot_len(&self, nr: usize) -> usize {
        self.grid.local_n[1] * self.grid.local_n[2] * nr
    }

    /// Window half of a split fused `apply + NR-way dot` sweep: `w = A u`
    /// over the window (see [`Laplacian::apply_interior`] for the overlap
    /// contract), folding each full window row's dot terms into `slots`.
    /// Window rows that miss an x-edge cell — an x face is in flight —
    /// are folded by [`Laplacian::apply_shell_dot`] once the cell has
    /// landed. Complete the sweep with it and fold the slots with
    /// [`PendingDotFold::fold`]; the composed result is bitwise identical
    /// to the monolithic fused-dot sweep.
    pub fn apply_interior_dot<T: Scalar, D: Device, F, const NR: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
        slots: &mut [T],
        terms: &F,
    ) where
        F: Fn(usize, T) -> [T; NR] + Sync,
    {
        match self.window() {
            Some(map) if map.len == self.grid.local_n[0] => {
                self.apply_rows_dot(dev, info, map, u, w, slots, terms);
            }
            Some(map) => self.apply_on_map(dev, info, map, u, w),
            None => {}
        }
    }

    /// Shell half of the split fused `apply + NR-way dot` sweep (pair of
    /// [`Laplacian::apply_interior_dot`]). Requires current ghosts.
    /// Every slot row the window left open is written: full-row pieces
    /// fold as they sweep, x-face pieces only land their one-cell rows,
    /// and the window rows they complete are then refolded from the
    /// stored `w` — the window is small and still in cache — so every
    /// row folds in the canonical order and the composition is bitwise
    /// identical to the monolithic sweep.
    pub fn apply_shell_dot<T: Scalar, D: Device, F, const NR: usize>(
        &self,
        dev: &D,
        info: KernelInfo,
        u: &Field<T>,
        w: &mut Field<T>,
        slots: &mut [T],
        terms: &F,
    ) -> PendingDotFold<NR>
    where
        F: Fn(usize, T) -> [T; NR] + Sync,
    {
        let [nx, ny, nz] = self.grid.local_n;
        for map in self.shell() {
            if map.len == nx {
                self.apply_rows_dot(dev, info, map, u, w, slots, terms);
            } else {
                self.apply_on_map(dev, info, map, u, w);
            }
        }
        if let Some(window) = self.window().filter(|m| m.len < nx) {
            let core = self.row_core::<T>();
            let (i0, j0, k0) = self.piece_origin(window);
            let ws = w.as_slice();
            let slot_map = self.slot_map_for::<NR>(window);
            let info = info_fold_window::<T>(nx);
            dev.launch_runs(
                info,
                slot_map,
                &mut [slots],
                None,
                &mut [[]],
                |_, run, _| {
                    let k = run.k;
                    core.rows_run(run, |j, slot| {
                        let b = window.row_offset(j, k) - i0;
                        self.fold_row_into((j0 + j, k0 + k), b, &ws[b..b + nx], terms, slot);
                    });
                },
            );
        }
        PendingDotFold { ny, nz }
    }
}

/// Obligation to fold the per-row dot partials deposited by a split
/// fused-dot sweep ([`Laplacian::apply_interior_dot`] +
/// [`Laplacian::apply_shell_dot`]) into the `NR` local dot values.
///
/// The fold launches one reduction over the same `(ny, nz)` row set as
/// the monolithic fused sweep, so the back-end's partial merge is
/// identical and the folded dots are bitwise equal to the monolithic
/// ones.
#[must_use = "slot partials must be folded to complete the fused dot"]
#[derive(Debug)]
pub struct PendingDotFold<const NR: usize> {
    ny: usize,
    nz: usize,
}

impl<const NR: usize> PendingDotFold<NR> {
    /// Reduce the slot buffer to the `NR` local dot values.
    pub fn fold<T: Scalar, D: Device>(self, dev: &D, info: KernelInfo, slots: &[T]) -> [T; NR] {
        let (ny, nz) = (self.ny, self.nz);
        dev.launch_reduce(info, ny, nz, |j, k| {
            let off = (j + ny * k) * NR;
            std::array::from_fn(|q| slots[off + q])
        })
    }
}

/// Update the physical-boundary ghost layers of `field` (the paper's
/// `KernelNeumannBCs` stage): mirror interior planes across Neumann faces,
/// zero Dirichlet faces. Interface ghosts are untouched — they belong to
/// the halo exchange.
///
/// When `restricted` is `true`, interface ghosts are *also* zeroed: this
/// turns the sweep into the Block-Jacobi restricted operator `R_s A R_sᵀ`
/// of Eq. 13 (used by the BJ and GNoComm preconditioners, which skip all
/// communication).
pub fn apply_physical_bcs<T: Scalar>(
    grid: &BlockGrid,
    field: &mut Field<T>,
    recorder: &Recorder,
    restricted: bool,
) {
    apply_physical_bcs_planes(grid, field, restricted, 0..grid.local_n[2]);
    recorder.kernel(INFO_NEUMANN_BCS, physical_bc_elems(grid, restricted));
}

/// The ghost cells one [`apply_physical_bcs`] writes: the element count
/// of its `KernelNeumannBCs` event.
pub fn physical_bc_elems(grid: &BlockGrid, restricted: bool) -> usize {
    let n = grid.local_n;
    physical_faces(grid, restricted)
        .map(|(axis, _, _)| n[(axis + 1) % 3] * n[(axis + 2) % 3])
        .sum()
}

/// The faces [`apply_physical_bcs`] writes, as `(axis, side, mirror)`:
/// physical faces (Neumann ones mirrored, Dirichlet ones zeroed) and,
/// when `restricted`, the interface faces too (zeroed).
fn physical_faces(
    grid: &BlockGrid,
    restricted: bool,
) -> impl Iterator<Item = (usize, usize, bool)> + '_ {
    (0..6).filter_map(move |face| {
        let (axis, side) = (face / 2, face % 2);
        let mirror = match (grid.boundary(axis, side), restricted) {
            (LocalBoundary::Physical(BcKind::Neumann), _) => true,
            (LocalBoundary::Physical(BcKind::Dirichlet), _) => false,
            (LocalBoundary::Interface { .. }, true) => false,
            (LocalBoundary::Interface { .. }, false) => return None,
        };
        Some((axis, side, mirror))
    })
}

/// [`apply_physical_bcs`] for the ghosts that the interior z planes
/// `planes` (0-based) determine, recording nothing: the x and y face
/// ghosts of those planes, and a z ghost plane when the plane it is
/// taken from — the mirrored one, or the adjacent one for a zeroed face
/// — lies in `planes`. A plane wavefront refreshes each output plane
/// this way as it lands; over `0..nz` it writes exactly what
/// [`apply_physical_bcs`] writes.
pub fn apply_physical_bcs_planes<T: Scalar>(
    grid: &BlockGrid,
    field: &mut Field<T>,
    restricted: bool,
    planes: Range<usize>,
) {
    let n = grid.local_n;
    let [px, py, _] = grid.padded();
    let stride = [1, px, px * py];
    let data = field.as_mut_slice();
    // the planes' padded z coordinates
    let (k0, k1) = (planes.start + 1, planes.end + 1);
    for (axis, side, mirror) in physical_faces(grid, restricted) {
        // ghost plane coordinate and its mirror (one-in from the
        // boundary node, i.e. two steps from the ghost)
        let (ghost, source) = if side == 0 {
            (0, 2)
        } else {
            (n[axis] + 1, n[axis] - 1)
        };
        let (g, m) = (ghost * stride[axis], source * stride[axis]);
        // one unit-stride row of n[0] cells per line of a y or z face
        let mut line = |r: usize| {
            if mirror {
                data.copy_within(r + m..r + m + n[0], r + g);
            } else {
                data[r + g..r + g + n[0]].fill(T::ZERO);
            }
        };
        match axis {
            0 => {
                // one cell per (j, k) row, a padded row apart
                for k in k0..k1 {
                    for j in 1..=n[1] {
                        let r = j * stride[1] + k * stride[2];
                        data[r + g] = if mirror { data[r + m] } else { T::ZERO };
                    }
                }
            }
            1 => (k0..k1).for_each(|k| line(1 + k * stride[2])),
            _ => {
                let from = if mirror { source } else { [1, n[2]][side] };
                if (k0..k1).contains(&from.clamp(1, n[2])) {
                    (1..=n[1]).for_each(|j| line(1 + j * stride[1]));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::assemble_poisson;
    use accel::{Event, GpuSimParams, Serial, SimGpu, Threads};
    use blockgrid::{Decomp, GlobalGrid};
    use std::cell::Cell;

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        // small deterministic LCG; avoids pulling rand into the hot crate
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    #[test]
    fn batched_fused_dots_bitwise_match_solo_per_lane() {
        // A many-lane apply_fused_dots must leave each lane — output
        // field and reduction scalars — bitwise identical to the one-lane
        // fused sweeps, on every back-end.
        let bc = [[BcKind::Dirichlet, BcKind::Neumann]; 3];
        let grid = single_rank_grid([5, 4, 3], bc);
        let lap = Laplacian::new(&grid);
        let nb = 3;
        let n = grid.global.unknowns();
        let run = |dev: &dyn Fn() -> accel::AnyDevice| {
            let dev = dev();
            let mk = |seed: u64| {
                let mut f = Field::from_interior(&dev, &grid, &rng_values(n, seed));
                apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
                f
            };
            let us: Vec<Field<f64>> = (0..nb).map(|l| mk(70 + l as u64)).collect();
            let rs: Vec<Field<f64>> = (0..nb).map(|l| mk(80 + l as u64)).collect();
            let gs: Vec<Field<f64>> = (0..nb).map(|l| mk(90 + l as u64)).collect();
            let mut w_b: Vec<Field<f64>> = (0..nb).map(|_| Field::zeros(&dev, &grid)).collect();
            let mut accs1 = vec![[0.0f64; 1]; nb];
            {
                let usl: Vec<&[f64]> = us.iter().map(|f| f.as_slice()).collect();
                let gsl: Vec<&[f64]> = gs.iter().map(|f| f.as_slice()).collect();
                let mut wm: Vec<&mut [f64]> = w_b.iter_mut().map(|f| f.as_mut_slice()).collect();
                let terms = |s: usize, c: usize, v: f64| [gsl[s][c] * v];
                lap.apply_fused_dots(&dev, INFO_APPLY, &usl, &mut wm, &mut accs1, &terms);
            }
            let mut t_b: Vec<Field<f64>> = (0..nb).map(|_| Field::zeros(&dev, &grid)).collect();
            let mut accs3 = vec![[0.0f64; 3]; nb];
            {
                let usl: Vec<&[f64]> = us.iter().map(|f| f.as_slice()).collect();
                let rsl: Vec<&[f64]> = rs.iter().map(|f| f.as_slice()).collect();
                let gsl: Vec<&[f64]> = gs.iter().map(|f| f.as_slice()).collect();
                let mut tm: Vec<&mut [f64]> = t_b.iter_mut().map(|f| f.as_mut_slice()).collect();
                let terms = |s: usize, c: usize, v: f64| [v * rsl[s][c], v * v, gsl[s][c] * v];
                lap.apply_fused_dots(&dev, INFO_APPLY, &usl, &mut tm, &mut accs3, &terms);
            }
            for l in 0..nb {
                let mut w_ref = Field::zeros(&dev, &grid);
                let d = lap.apply_fused_dot(&dev, INFO_APPLY, &us[l], &mut w_ref, &gs[l]);
                assert_eq!(accs1[l][0].to_bits(), d.to_bits());
                for (a, b) in w_b[l].as_slice().iter().zip(w_ref.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                let mut t_ref = Field::zeros(&dev, &grid);
                let (tr, tt, gt) =
                    lap.apply_fused_dot3(&dev, INFO_APPLY, &us[l], &mut t_ref, &rs[l], &gs[l]);
                assert_eq!(accs3[l][0].to_bits(), tr.to_bits());
                assert_eq!(accs3[l][1].to_bits(), tt.to_bits());
                assert_eq!(accs3[l][2].to_bits(), gt.to_bits());
                for (a, b) in t_b[l].as_slice().iter().zip(t_ref.as_slice()) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        };
        run(&|| accel::AnyDevice::Serial(Serial::new(Recorder::disabled())));
        run(&|| accel::AnyDevice::Threads(Threads::new(3, Recorder::disabled())));
        run(&|| {
            accel::AnyDevice::SimGpu(SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled()))
        });
    }

    fn single_rank_grid(n: [usize; 3], bc: [[BcKind; 2]; 3]) -> BlockGrid {
        let mut g = GlobalGrid::dirichlet(n, [0.3, 0.5, 0.7], [0.0; 3]);
        g.bc = bc;
        BlockGrid::new(g, Decomp::single(), 0)
    }

    /// Dense reference: y = A x for the global operator.
    fn dense_apply(grid: &BlockGrid, x: &[f64]) -> Vec<f64> {
        let lap = Laplacian::new(grid);
        let m = assemble_poisson(&lap.global_ops(), grid.global.h);
        m.matvec(x)
    }

    fn check_apply_matches_dense(bc: [[BcKind; 2]; 3]) {
        let grid = single_rank_grid([4, 3, 5], bc);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let x = rng_values(grid.global.unknowns(), 42);
        let u = Field::from_interior(&dev, &grid, &x);
        let mut u = u;
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let mut w = Field::zeros(&dev, &grid);
        lap.apply(&dev, INFO_APPLY, &u, &mut w);
        let got = w.interior_to_host(&grid);
        let expect = dense_apply(&grid, &x);
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!((a - b).abs() < 1e-12, "entry {i}: {a} vs {b} (bc {bc:?})");
        }
    }

    #[test]
    fn apply_matches_dense_all_dirichlet() {
        check_apply_matches_dense([[BcKind::Dirichlet; 2]; 3]);
    }

    #[test]
    fn apply_matches_dense_paper_bcs() {
        // paper: Dirichlet on x-, y+, z+; Neumann on x+, y-, z-
        check_apply_matches_dense([
            [BcKind::Dirichlet, BcKind::Neumann],
            [BcKind::Neumann, BcKind::Dirichlet],
            [BcKind::Neumann, BcKind::Dirichlet],
        ]);
    }

    #[test]
    fn apply_matches_dense_all_neumann_x() {
        check_apply_matches_dense([
            [BcKind::Neumann, BcKind::Neumann],
            [BcKind::Dirichlet, BcKind::Dirichlet],
            [BcKind::Dirichlet, BcKind::Neumann],
        ]);
    }

    #[test]
    fn fused_dot_matches_separate() {
        let grid = single_rank_grid([5, 4, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let x = rng_values(grid.global.unknowns(), 7);
        let gv = rng_values(grid.global.unknowns(), 8);
        let mut u = Field::from_interior(&dev, &grid, &x);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let g = Field::from_interior(&dev, &grid, &gv);
        let mut w = Field::zeros(&dev, &grid);
        let dot = lap.apply_fused_dot(&dev, INFO_APPLY, &u, &mut w, &g);
        let wi = w.interior_to_host(&grid);
        let expect: f64 = wi.iter().zip(&gv).map(|(a, b)| a * b).sum();
        assert!((dot - expect).abs() < 1e-12);
    }

    #[test]
    fn fused_dot2_matches_separate() {
        let grid = single_rank_grid([3, 3, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let x = rng_values(27, 3);
        let rv = rng_values(27, 4);
        let mut u = Field::from_interior(&dev, &grid, &x);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let r = Field::from_interior(&dev, &grid, &rv);
        let mut t = Field::zeros(&dev, &grid);
        let (tr, tt) = lap.apply_fused_dot2(&dev, INFO_APPLY, &u, &mut t, &r);
        let ti = t.interior_to_host(&grid);
        let e_tr: f64 = ti.iter().zip(&rv).map(|(a, b)| a * b).sum();
        let e_tt: f64 = ti.iter().map(|a| a * a).sum();
        // fused and separate sums use different groupings; compare relatively
        assert!((tr - e_tr).abs() < 1e-12 * e_tr.abs().max(1.0));
        assert!((tt - e_tt).abs() < 1e-12 * e_tt.max(1.0));
    }

    #[test]
    fn apply_combine_matches_composition() {
        let grid = single_rank_grid([4, 4, 4], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let n = 64;
        let uv = rng_values(n, 1);
        let f1v = rng_values(n, 2);
        let f2v = rng_values(n, 3);
        let mut u = Field::from_interior(&dev, &grid, &uv);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let f1 = Field::from_interior(&dev, &grid, &f1v);
        let f2 = Field::from_interior(&dev, &grid, &f2v);
        let mut out = Field::zeros(&dev, &grid);
        let (ca, c1, c2) = (0.25, -1.5, 2.0);
        lap.apply_combine(&dev, INFO_APPLY, &u, &mut out, ca, [(&f1, c1), (&f2, c2)]);
        // reference: separate apply then axpys
        let mut au = Field::zeros(&dev, &grid);
        lap.apply(&dev, INFO_APPLY, &u, &mut au);
        let aui = au.interior_to_host(&grid);
        let got = out.interior_to_host(&grid);
        for i in 0..n {
            let expect = ca * aui[i] + c1 * f1v[i] + c2 * f2v[i];
            assert!(
                (got[i] - expect).abs() < 1e-13 * expect.abs().max(1.0),
                "{i}"
            );
        }
    }

    #[test]
    fn apply_combine_no_terms_is_scaled_apply() {
        let grid = single_rank_grid([3, 3, 3], [[BcKind::Dirichlet; 2]; 3]);
        let dev = Serial::new(Recorder::disabled());
        let lap = Laplacian::new(&grid);
        let uv = rng_values(27, 5);
        let mut u = Field::from_interior(&dev, &grid, &uv);
        apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
        let mut out = Field::zeros(&dev, &grid);
        lap.apply_combine(&dev, INFO_APPLY, &u, &mut out, -1.0, []);
        let mut au = Field::zeros(&dev, &grid);
        lap.apply(&dev, INFO_APPLY, &u, &mut au);
        let a = out.interior_to_host(&grid);
        let b = au.interior_to_host(&grid);
        for i in 0..27 {
            assert_eq!(a[i], -b[i]);
        }
    }

    #[test]
    fn same_result_across_backends() {
        let grid = single_rank_grid(
            [6, 5, 4],
            [
                [BcKind::Dirichlet, BcKind::Neumann],
                [BcKind::Neumann, BcKind::Dirichlet],
                [BcKind::Dirichlet, BcKind::Dirichlet],
            ],
        );
        let x = rng_values(grid.global.unknowns(), 11);
        let run = |devname: &str| -> Vec<f64> {
            let rec = Recorder::disabled();
            let lap = Laplacian::new(&grid);
            match devname {
                "serial" => {
                    let dev = Serial::new(rec);
                    let mut u = Field::from_interior(&dev, &grid, &x);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    let mut w = Field::zeros(&dev, &grid);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                    w.interior_to_host(&grid)
                }
                "threads" => {
                    let dev = Threads::new(3, rec);
                    let mut u = Field::from_interior(&dev, &grid, &x);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    let mut w = Field::zeros(&dev, &grid);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                    w.interior_to_host(&grid)
                }
                _ => {
                    let dev = SimGpu::new(GpuSimParams::mi250x(), rec);
                    let mut u = Field::from_interior(&dev, &grid, &x);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    let mut w = Field::zeros(&dev, &grid);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                    w.interior_to_host(&grid)
                }
            }
        };
        let a = run("serial");
        let b = run("threads");
        let c = run("gpu");
        assert_eq!(a, b, "elementwise kernels must agree exactly");
        assert_eq!(a, c);
    }

    /// The indexed scalar body the row core replaced, kept as the oracle:
    /// per-element `us[c ± s]` indexing and a runtime-length term loop
    /// over the interior rows, no device, no windows.
    fn oracle_combine<T: Scalar>(
        lap: &Laplacian,
        u: &Field<T>,
        out: &mut Field<T>,
        ca: T,
        terms: &[(&Field<T>, T)],
    ) {
        let map = lap.grid().interior_map();
        let RowCore {
            c: [cx, cy, cz],
            sy,
            sz,
            ..
        } = lap.row_core::<T>();
        let us = u.as_slice();
        let two = T::from_f64(2.0);
        for k in 0..map.nz {
            for j in 0..map.ny {
                let b = map.row_offset(j, k);
                for c in b..b + map.len {
                    let uc = us[c];
                    let au = cx * (two * uc - us[c - 1] - us[c + 1])
                        + cy * (two * uc - us[c - sy] - us[c + sy])
                        + cz * (two * uc - us[c - sz] - us[c + sz]);
                    let mut v = ca * au;
                    for (f, coeff) in terms {
                        v += *coeff * f.as_slice()[c];
                    }
                    out.as_mut_slice()[c] = v;
                }
            }
        }
    }

    /// A field whose *whole* padded array (ghosts included) is random.
    fn random_padded<T: Scalar, D: Device>(dev: &D, grid: &BlockGrid, seed: u64) -> Field<T> {
        let mut f = Field::zeros(dev, grid);
        for (d, v) in f
            .as_mut_slice()
            .iter_mut()
            .zip(rng_values(grid.padded_len(), seed))
        {
            *d = T::from_f64(v);
        }
        f
    }

    fn assert_bitwise<T: Scalar>(got: &Field<T>, want: &Field<T>, what: &str) {
        for (c, (g, w)) in got.as_slice().iter().zip(want.as_slice()).enumerate() {
            assert_eq!(
                g.to_f64().to_bits(),
                w.to_f64().to_bits(),
                "{what}: padded cell {c}: {g} vs oracle {w}"
            );
        }
    }

    /// Monolithic and interior+shell `apply_combine` with `N` terms
    /// against the oracle, whole padded array (so a write outside the
    /// interior shows too).
    fn check_combine<T: Scalar, D: Device, const N: usize>(
        dev: &D,
        lap: &Laplacian,
        fields: &[Field<T>; 4],
        what: &str,
    ) {
        let grid = lap.grid();
        let coef = [1.75, -0.375, 0.0625].map(T::from_f64);
        let ca = T::from_f64(-0.3125);
        let terms: [(&Field<T>, T); N] = std::array::from_fn(|i| (&fields[i + 1], coef[i]));
        let mut want = random_padded::<T, D>(dev, grid, 99);
        let (mut mono, mut split, mut planes) = (want.clone(), want.clone(), want.clone());
        oracle_combine(lap, &fields[0], &mut want, ca, &terms);
        lap.apply_combine(dev, INFO_APPLY, &fields[0], &mut mono, ca, terms);
        lap.apply_combine_interior(dev, INFO_APPLY, &fields[0], &mut split, ca, terms);
        lap.apply_combine_shell(dev, INFO_APPLY, &fields[0], &mut split, ca, terms);
        // one plane at a time, last plane first, then a two-plane block
        let nz = grid.local_n[2];
        for k in (1..nz).rev() {
            lap.apply_combine_planes(
                dev,
                INFO_APPLY,
                k..k + 1,
                &fields[0],
                &mut planes,
                ca,
                terms,
            );
        }
        lap.apply_combine_planes(
            dev,
            INFO_APPLY,
            0..nz.min(2),
            &fields[0],
            &mut planes,
            ca,
            terms,
        );
        assert_bitwise(&mono, &want, &format!("{what} N={N} monolithic"));
        assert_bitwise(&split, &want, &format!("{what} N={N} split"));
        assert_bitwise(&planes, &want, &format!("{what} N={N} plane by plane"));
    }

    /// Local `local`-cell block of rank `rank` in an `ns` decomposition.
    fn rank_grid(local: [usize; 3], ns: [usize; 3], rank: usize) -> BlockGrid {
        let n = std::array::from_fn(|a| local[a] * ns[a]);
        let g = GlobalGrid::dirichlet(n, [0.3, 0.5, 0.7], [0.0; 3]);
        BlockGrid::new(g, Decomp::new(ns), rank)
    }

    /// Every sweep of the operator — monolithic and split around the
    /// subdomain's interface faces — against the oracle on one back-end:
    /// fields over the whole padded array, fused dots against each other.
    fn check_row_core<T: Scalar, D: Device>(dev: &D, grid: &BlockGrid, seed: u64, what: &str) {
        let lap = Laplacian::new(grid);
        let fields: [Field<T>; 4] =
            std::array::from_fn(|i| random_padded::<T, D>(dev, grid, seed + i as u64));
        check_combine::<T, D, 0>(dev, &lap, &fields, what);
        check_combine::<T, D, 1>(dev, &lap, &fields, what);
        check_combine::<T, D, 2>(dev, &lap, &fields, what);
        check_combine::<T, D, 3>(dev, &lap, &fields, what);

        // the plain and dot-fused sweeps write the same field: 1 * (A u)
        let [u, r, g, _] = &fields;
        let (rs, gs) = (r.as_slice(), g.as_slice());
        let mut want = random_padded::<T, D>(dev, grid, 99);
        let mut got: [Field<T>; 7] = std::array::from_fn(|_| want.clone());
        oracle_combine(&lap, u, &mut want, T::ONE, &[]);
        let [plain, split, dot1, dot2, dot3, split_dot1, split_dot3] = &mut got;
        lap.apply(dev, INFO_APPLY, u, plain);
        lap.apply_interior(dev, INFO_APPLY, u, split);
        lap.apply_shell(dev, INFO_APPLY, u, split);
        let d1 = lap.apply_fused_dot(dev, INFO_APPLY, u, dot1, g);
        let _ = lap.apply_fused_dot2(dev, INFO_APPLY, u, dot2, r);
        let d3 = lap.apply_fused_dot3(dev, INFO_APPLY, u, dot3, r, g);
        // slots start poisoned: the split must write every row it folds
        let mut slots = vec![T::from_f64(f64::NAN); lap.slot_len(3)];
        let terms = |c: usize, v: T| [gs[c] * v];
        lap.apply_interior_dot(dev, INFO_APPLY, u, split_dot1, &mut slots, &terms);
        let s1 = lap
            .apply_shell_dot(dev, INFO_APPLY, u, split_dot1, &mut slots, &terms)
            .fold(dev, INFO_APPLY, &slots);
        slots.fill(T::from_f64(f64::NAN));
        let terms = |c: usize, v: T| [v * rs[c], v * v, gs[c] * v];
        lap.apply_interior_dot(dev, INFO_APPLY, u, split_dot3, &mut slots, &terms);
        let s3 = lap
            .apply_shell_dot(dev, INFO_APPLY, u, split_dot3, &mut slots, &terms)
            .fold(dev, INFO_APPLY, &slots);
        for (f, name) in got.iter().zip([
            "apply",
            "apply split",
            "fused_dot",
            "fused_dot2",
            "fused_dot3",
            "split dot",
            "split dot3",
        ]) {
            assert_bitwise(f, &want, &format!("{what} {name}"));
        }
        let bits = |v: &[T]| v.iter().map(|x| x.to_f64().to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&s1), bits(&[d1]), "{what}: split dot vs fused");
        assert_eq!(
            bits(&s3),
            bits(&[d3.0, d3.1, d3.2]),
            "{what}: split dot3 vs fused"
        );
    }

    thread_local! {
        /// Set inside [`portable_only`]: row cores built on this thread
        /// take the portable arm whatever the CPU has.
        pub(super) static PORTABLE_ONLY: Cell<bool> = const { Cell::new(false) };
    }

    /// Run `f` with every row core built on this thread on the portable
    /// arm. (A `Threads` launch builds its core on the launching thread
    /// and hands the workers a copy, so they follow.)
    fn portable_only<R>(f: impl FnOnce() -> R) -> R {
        struct Reset;
        impl Drop for Reset {
            fn drop(&mut self) {
                PORTABLE_ONLY.with(|p| p.set(false));
            }
        }
        PORTABLE_ONLY.with(|p| p.set(true));
        let _reset = Reset;
        f()
    }

    #[test]
    fn row_core_takes_the_avx2_arm_exactly_when_the_cpu_has_it() {
        let lap = Laplacian::new(&single_rank_grid([3, 3, 3], [[BcKind::Dirichlet; 2]; 3]));
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        assert_eq!(
            lap.row_core::<f64>().avx2,
            std::arch::is_x86_feature_detected!("avx2")
        );
        assert!(!portable_only(|| lap.row_core::<f32>().avx2));
        assert_eq!(lap.row_core::<f32>().avx2, avx2_detected(), "reset on exit");
    }

    /// [`check_row_core`] in both precisions on all three back-ends, on
    /// the forced-portable arm and on the arm this CPU selects (AVX2 when
    /// it has it).
    fn check_row_core_everywhere(grid: &BlockGrid, seed: u64, what: &str) {
        let serial = Serial::new(Recorder::disabled());
        let threads = Threads::new(3, Recorder::disabled());
        let gpu = SimGpu::new(GpuSimParams::mi250x(), Recorder::disabled());
        let all = |arm: &str| {
            let what = format!("{what} {arm}");
            check_row_core::<f64, _>(&serial, grid, seed, &format!("{what} f64 serial"));
            check_row_core::<f32, _>(&serial, grid, seed, &format!("{what} f32 serial"));
            check_row_core::<f64, _>(&threads, grid, seed, &format!("{what} f64 threads"));
            check_row_core::<f32, _>(&threads, grid, seed, &format!("{what} f32 threads"));
            check_row_core::<f64, _>(&gpu, grid, seed, &format!("{what} f64 simgpu"));
            check_row_core::<f32, _>(&gpu, grid, seed, &format!("{what} f32 simgpu"));
        };
        portable_only(|| all("portable"));
        all(if avx2_detected() { "avx2" } else { "portable" });
    }

    #[test]
    fn split_sweep_launches_follow_the_interface_faces() {
        let launches = |grid: &BlockGrid, dot: bool| {
            let rec = Recorder::enabled();
            let dev = Serial::new(rec.clone());
            let lap = Laplacian::new(grid);
            let u = random_padded::<f64, _>(&dev, grid, 3);
            let mut w = Field::zeros(&dev, grid);
            if dot {
                let mut slots = vec![0.0; lap.slot_len(1)];
                let terms = |_: usize, v: f64| [v];
                lap.apply_interior_dot(&dev, INFO_APPLY, &u, &mut w, &mut slots, &terms);
                let _ = lap.apply_shell_dot(&dev, INFO_APPLY, &u, &mut w, &mut slots, &terms);
            } else {
                lap.apply_interior(&dev, INFO_APPLY, &u, &mut w);
                lap.apply_shell(&dev, INFO_APPLY, &u, &mut w);
            }
            let names = |e: Event| match e {
                Event::Kernel { name, .. } => name,
                other => panic!("unexpected event {other:?}"),
            };
            rec.drain().into_iter().map(names).collect::<Vec<_>>()
        };
        let apply = INFO_APPLY.name;
        // no interface face: everything in the first call, nothing after
        let single = rank_grid([6, 6, 6], [1, 1, 1], 0);
        assert_eq!(launches(&single, false), [apply]);
        assert_eq!(launches(&single, true), [apply]);
        // one x face: window, its peeled column, the planes behind — and
        // for the fused dot the refold of the window rows
        let half = rank_grid([6, 6, 6], [2, 1, 1], 0);
        assert_eq!(launches(&half, false), [apply; 3]);
        assert_eq!(
            launches(&half, true),
            [apply, apply, apply, "KernelFoldWindow"]
        );
        // three faces, none of them z-low: window, y and x pieces, rest
        let corner = rank_grid([6, 6, 6], [2, 2, 2], 0);
        assert_eq!(launches(&corner, false), [apply; 4]);
        // ... and with z-low in flight, its plane too
        assert_eq!(
            launches(&rank_grid([6, 6, 12], [2, 2, 2], 7), false),
            [apply; 5]
        );
    }

    #[test]
    fn split_sweeps_bitwise_match_monolithic_on_every_rank_of_a_cube() {
        for rank in 0..8 {
            let grid = rank_grid([5, 4, 6], [2, 2, 2], rank);
            check_row_core_everywhere(&grid, 40 + rank as u64, &format!("rank {rank}"));
        }
    }

    mod row_core_proptests {
        use super::*;
        use proptest::prelude::*;

        /// Extents that stress the windows: 1- and 2-cell-thick blocks
        /// (the shortest rows and windows), the first primes,
        /// and whatever else 1..14 draws; the three axes independently,
        /// so boxes are non-cubic.
        fn extent() -> impl Strategy<Value = usize> {
            prop_oneof![
                Just(1usize),
                Just(2),
                Just(3),
                Just(5),
                Just(7),
                Just(11),
                Just(13),
                1usize..14
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            #[test]
            fn row_core_bitwise_matches_scalar_oracle(
                nx in extent(), ny in extent(), nz in extent(), seed in 1u64..1 << 40,
            ) {
                let n = [nx, ny, nz];
                let grid = single_rank_grid(n, [[BcKind::Dirichlet; 2]; 3]);
                check_row_core_everywhere(&grid, seed, &format!("{n:?}"));
            }

            /// Split ≡ monolithic on both sides of a cut along each axis
            /// and in every corner of `[2,2,2]`, for local blocks from one
            /// cell (no window) up: whatever the in-flight faces peel.
            #[test]
            fn split_sweeps_bitwise_match_monolithic_on_every_side(
                nx in 1usize..8, ny in 1usize..8, nz in 1usize..8,
                ns in prop_oneof![
                    Just([2usize, 1, 1]), Just([1, 2, 1]), Just([1, 1, 2]), Just([2, 2, 2])
                ],
                seed in 1u64..1 << 40,
            ) {
                for rank in 0..ns.iter().product() {
                    let grid = rank_grid([nx, ny, nz], ns, rank);
                    let what = format!("{:?} rank {rank} of {ns:?}", grid.local_n);
                    check_row_core_everywhere(&grid, seed, &what);
                }
            }
        }
    }

    #[test]
    fn windows_read_exactly_the_seven_point_neighbourhood() {
        // Poison everything a 7-point sweep over the interior must not
        // touch: the edge and corner ghosts of `u` (two or more padded
        // coordinates on the boundary) and every ghost of the term
        // fields. One NaN read would surface in the output; the output's
        // own ghosts must come back as they went in.
        for n in [[4usize, 3, 5], [1, 1, 7], [2, 6, 1], [3, 3, 3]] {
            let grid = single_rank_grid(n, [[BcKind::Dirichlet; 2]; 3]);
            let dev = Serial::new(Recorder::disabled());
            let lap = Laplacian::new(&grid);
            let p = grid.padded();
            let poison = |f: &mut Field<f64>, min_faces: usize| {
                for k in 0..p[2] {
                    for j in 0..p[1] {
                        for i in 0..p[0] {
                            let faces = [(i, p[0]), (j, p[1]), (k, p[2])]
                                .iter()
                                .filter(|(c, pc)| *c == 0 || *c == pc - 1)
                                .count();
                            if faces >= min_faces {
                                let c = grid.idx(i, j, k);
                                f.as_mut_slice()[c] = f64::NAN;
                            }
                        }
                    }
                }
            };
            let run = |poisoned: bool| {
                let mut u = random_padded::<f64, _>(&dev, &grid, 5);
                let mut f1 = random_padded::<f64, _>(&dev, &grid, 6);
                let mut out = random_padded::<f64, _>(&dev, &grid, 7);
                if poisoned {
                    poison(&mut u, 2);
                    poison(&mut f1, 1);
                    poison(&mut out, 1);
                }
                let mut split = out.clone();
                let terms = [(&u, 0.5), (&f1, -2.0)];
                lap.apply_combine(&dev, INFO_APPLY, &u, &mut out, 0.25, terms);
                lap.apply_combine_interior(&dev, INFO_APPLY, &u, &mut split, 0.25, terms);
                lap.apply_combine_shell(&dev, INFO_APPLY, &u, &mut split, 0.25, terms);
                (out, split)
            };
            let (clean, _) = run(false);
            let (mono, split) = run(true);
            let want = clean.interior_to_host(&grid);
            for got in [&mono, &split] {
                let interior = got.interior_to_host(&grid);
                assert!(
                    interior.iter().all(|v| v.is_finite()),
                    "{n:?}: a window read a poisoned ghost"
                );
                assert_eq!(interior, want, "{n:?}");
                let nans = got.as_slice().iter().filter(|v| v.is_nan()).count();
                assert_eq!(
                    nans,
                    grid.padded_len() - grid.global.unknowns(),
                    "{n:?}: the sweep wrote outside the interior"
                );
            }
        }
    }

    #[test]
    fn physical_bcs_match_per_cell_reference() {
        // The row-wise ghost update against the per-cell definition, on
        // the whole padded array: same cells written, same values, same
        // recorded element count.
        let bcs = [
            [
                [BcKind::Dirichlet, BcKind::Neumann],
                [BcKind::Neumann, BcKind::Dirichlet],
                [BcKind::Neumann, BcKind::Neumann],
            ],
            [[BcKind::Neumann, BcKind::Dirichlet]; 3],
        ];
        for (n, bc) in [
            ([4usize, 3, 5], bcs[0]),
            ([2, 7, 2], bcs[1]),
            ([5, 2, 3], bcs[0]),
        ] {
            for (decomp, rank, restricted) in [
                (Decomp::single(), 0, false),
                (Decomp::new([2, 1, 1]), 0, true),
                (Decomp::new([1, 2, 1]), 1, false),
                (Decomp::new([1, 1, 2]), 1, true),
            ] {
                let mut g = GlobalGrid::dirichlet(
                    std::array::from_fn(|a| n[a] * decomp.ns[a]),
                    [0.3, 0.5, 0.7],
                    [0.0; 3],
                );
                g.bc = bc;
                let grid = BlockGrid::new(g, decomp, rank);
                let dev = Serial::new(Recorder::disabled());
                let mut got = random_padded::<f64, _>(&dev, &grid, 31);
                let mut want = got.clone();
                // the plane-ranged form, one plane at a time in reverse
                let mut by_plane = got.clone();
                for k in (0..grid.local_n[2]).rev() {
                    apply_physical_bcs_planes(&grid, &mut by_plane, restricted, k..k + 1);
                }
                let rec = Recorder::enabled();
                apply_physical_bcs(&grid, &mut got, &rec, restricted);

                let ln = grid.local_n;
                let mut elems = 0;
                for axis in 0..3 {
                    for side in 0..2 {
                        let mirror = match (grid.boundary(axis, side), restricted) {
                            (LocalBoundary::Physical(BcKind::Neumann), _) => true,
                            (LocalBoundary::Interface { .. }, false) => continue,
                            _ => false,
                        };
                        let (ghost, src) = [(0, 2), (ln[axis] + 1, ln[axis] - 1)][side];
                        let (a1, a2) = ((axis + 1) % 3, (axis + 2) % 3);
                        for q in 1..=ln[a2] {
                            for p in 1..=ln[a1] {
                                let at = |plane: usize| {
                                    let mut ijk = [0; 3];
                                    (ijk[axis], ijk[a1], ijk[a2]) = (plane, p, q);
                                    grid.idx(ijk[0], ijk[1], ijk[2])
                                };
                                let v = if mirror {
                                    want.as_slice()[at(src)]
                                } else {
                                    0.0
                                };
                                want.as_mut_slice()[at(ghost)] = v;
                                elems += 1;
                            }
                        }
                    }
                }
                assert_bitwise(&got, &want, &format!("{n:?} rank {rank} bcs"));
                assert_bitwise(&by_plane, &want, &format!("{n:?} rank {rank} bcs by plane"));
                assert_eq!(physical_bc_elems(&grid, restricted), elems);
                let events = rec.drain();
                assert_eq!(events.len(), 1);
                assert!(
                    matches!(&events[0], accel::Event::Kernel { elems: e, .. } if *e as usize == elems),
                    "{:?} vs {elems} ghost cells",
                    events[0]
                );
            }
        }
    }

    #[test]
    fn restricted_bcs_zero_interface_ghosts() {
        // two ranks in x; rank 0 high-x face is an interface
        let mut g = GlobalGrid::dirichlet([8, 4, 4], [0.1; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Dirichlet, BcKind::Dirichlet];
        let grid = BlockGrid::new(g, Decomp::new([2, 1, 1]), 0);
        let dev = Serial::new(Recorder::disabled());
        let mut f = Field::from_interior(&dev, &grid, &vec![1.0f64; 4 * 4 * 4]);
        // scribble an "exchanged" value into the interface ghost
        let gi = grid.idx(5, 2, 2);
        f.as_mut_slice()[gi] = 7.0;
        apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
        assert_eq!(f.as_slice()[gi], 7.0, "unrestricted keeps interface ghosts");
        apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), true);
        assert_eq!(f.as_slice()[gi], 0.0, "restricted zeroes interface ghosts");
    }

    #[test]
    fn neumann_mirror_values() {
        let grid = single_rank_grid(
            [4, 2, 2],
            [
                [BcKind::Neumann, BcKind::Dirichlet],
                [BcKind::Dirichlet, BcKind::Dirichlet],
                [BcKind::Dirichlet, BcKind::Dirichlet],
            ],
        );
        let dev = Serial::new(Recorder::disabled());
        let interior: Vec<f64> = (0..16).map(|i| i as f64 + 1.0).collect();
        let mut f = Field::from_interior(&dev, &grid, &interior);
        apply_physical_bcs(&grid, &mut f, &Recorder::disabled(), false);
        // ghost (0, j, k) must equal interior (2, j, k)
        for k in 1..=2 {
            for j in 1..=2 {
                assert_eq!(
                    f.as_slice()[grid.idx(0, j, k)],
                    f.as_slice()[grid.idx(2, j, k)]
                );
            }
        }
        // Dirichlet high-x ghost is zero
        assert_eq!(f.as_slice()[grid.idx(5, 1, 1)], 0.0);
    }

    #[test]
    fn local_ops_classify_interfaces() {
        let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Neumann, BcKind::Dirichlet];
        let grid = BlockGrid::new(g, Decomp::new([2, 1, 1]), 0);
        let lap = Laplacian::new(&grid);
        let local = lap.local_ops();
        assert_eq!(local[0].lo, EndKind::Neumann);
        assert_eq!(local[0].hi, EndKind::DirichletLike); // interface
        let global = lap.global_ops();
        assert_eq!(global[0].n, 8);
        assert_eq!(local[0].n, 4);
    }

    #[test]
    #[should_panic(expected = "Neumann face needs at least 2")]
    fn thin_neumann_subdomain_rejected() {
        let mut g = GlobalGrid::dirichlet([1, 4, 4], [0.1; 3], [0.0; 3]);
        g.bc[0] = [BcKind::Neumann, BcKind::Dirichlet];
        let grid = BlockGrid::new(g, Decomp::single(), 0);
        let _ = Laplacian::new(&grid);
    }
}

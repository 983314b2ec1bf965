//! The fused Bi-CGSTAB vector kernels of Algorithm 3.
//!
//! The paper merges the BLAS-1 operations of the textbook algorithm into
//! six fused kernels (`KernelBiCGS1..6`) to improve temporal locality;
//! `KernelBiCGS1` and `KernelBiCGS3` additionally fuse the stencil apply
//! with the local scalar products (those two live on
//! [`stencil::Laplacian`]). This module provides the remaining vector
//! kernels, all operating on subdomain interiors. The kernels of the
//! production driver have one body each, the lane-strided `*_batch` form
//! (one launch over every lane of a multi-RHS solve); their single-field
//! forms are its one-lane calls.
//!
//! Every body works on row windows: each row slices its operands to the
//! row once (`&x[b..b + n]`) and loops over row-local indices, so the
//! loops carry no bounds checks and the updates vectorise. A reduction
//! that shares a sweep with an update (`KernelBiCGS5`'s two sums,
//! `KernelBiCGS56`'s `‖r‖²`) is a second pass over the row just written,
//! adding the same terms in the same order: LLVM must not reorder a
//! float sum, so a loop that both updates and accumulates stays scalar
//! as a whole. Bits are those of the fused per-element loops.

use accel::{fold_row_edge_last, row_has_deep_middle, Device, KernelInfo, Scalar};
use blockgrid::{BlockGrid, Field};

/// `KernelBiCGS2`: `r ← r − α w` (one stream in, one in/out, 2 flops).
pub const INFO_BICGS2: KernelInfo = KernelInfo::new("KernelBiCGS2", 24, 2);
/// `KernelBiCGS4`: `x ← x + α p̂ + ω r̂`.
pub const INFO_BICGS4: KernelInfo = KernelInfo::new("KernelBiCGS4", 32, 4);
/// First half of the split x-update, `x ← x + α p̂`, as the reference
/// schedule ([`crate::reference`]) runs it: two plain axpys re-stream `x`
/// once (48 B/elem total vs 32 B for the merged `KernelBiCGS4` of the
/// production driver, which chains the same two operations per element).
pub const INFO_BICGS4A: KernelInfo = KernelInfo::new("KernelBiCGS4a", 24, 2);
/// Second half of the split x-update, `x ← x + ω r̂` (reference schedule).
pub const INFO_BICGS4B: KernelInfo = KernelInfo::new("KernelBiCGS4b", 24, 2);
/// `KernelBiCGS5`: `r ← r − ω t` fused with the dots `r̃·r` and `r·r`.
pub const INFO_BICGS5: KernelInfo = KernelInfo::new("KernelBiCGS5", 32, 6);
/// `KernelBiCGS6`: `p ← r + β (p − ω w)`.
pub const INFO_BICGS6: KernelInfo = KernelInfo::new("KernelBiCGS6", 32, 4);
/// `KernelBiCGS1` (stencil + dot, launched via `Laplacian::apply_fused_dots`).
pub const INFO_BICGS1: KernelInfo = KernelInfo::new("KernelBiCGS1", 40, 12);
/// `KernelBiCGS3` (stencil + the dots `t·r`, `t·t`): the base of [`INFO_BICGS3F`].
pub const INFO_BICGS3: KernelInfo = KernelInfo::new("KernelBiCGS3", 48, 14);
/// `KernelCI1`: the Chebyshev start step `y = k · b`, one weighted 7-point
/// sweep of `b` with no terms (`b` in, `y` out: [`stencil::INFO_APPLY`]'s
/// traffic, 10 flops).
pub const INFO_CI1: KernelInfo = KernelInfo::new("KernelCI1", 32, 10);
/// `KernelCI2`: the Chebyshev sweep `w = k · y + c_b b + c_z z`, a weighted
/// sweep of `y` plus two terms (8 B and 2 flops each over `KernelCI1`).
pub const INFO_CI2: KernelInfo = KernelInfo::new("KernelCI2", 48, 14);
/// `KernelCI2` as sweep 2 runs it, `w = k · y + c_b b`: its `z = b/θ`
/// folds into the `b` term, so it reads no `z`.
pub const INFO_CI2_NO_Z: KernelInfo = KernelInfo::new("KernelCI2", 40, 12);
/// Plain local dot product (initial `ρ_0 = r̃ᵀ r_0` of Alg. 3 line 4).
pub const INFO_DOT: KernelInfo = KernelInfo::new("KernelDot", 16, 2);
/// `KernelBiCGS2F`: `KernelBiCGS2` fused with the follow-on dot
/// `r̃ᵀ r` — the updated `r` never round-trips to memory between the
/// axpy and the reduction (8 B/elem deduplicated: one `r` re-read).
pub const INFO_BICGS2F: KernelInfo = KernelInfo::fused("KernelBiCGS2F", INFO_BICGS2, INFO_DOT, 8);
/// `KernelBiCGS3F`: `KernelBiCGS3` fused with the third dot `r̃ᵀ t`,
/// so the second stencil apply produces all three scalars of the ω
/// step in one sweep (16 B/elem deduplicated: `t` re-read + re-write).
pub const INFO_BICGS3F: KernelInfo = KernelInfo::fused("KernelBiCGS3F", INFO_BICGS3, INFO_DOT, 16);
/// `KernelBiCGS56`: `KernelBiCGS5` and `KernelBiCGS6` in one sweep —
/// `r ← r − ω t` with `‖r‖²`, and `p ← r + β (p − ω w)` consuming the
/// fresh residual value in-register. Streams r(rw), p(rw), t(r), w(r):
/// 48 B/elem vs 64 B for the pair (`r̃ᵀr` is free: it equals ρ_new,
/// already reduced).
pub const INFO_BICGS56: KernelInfo = KernelInfo::new("KernelBiCGS56", 48, 8);
/// `KernelBiCGS456`: `KernelBiCGS4`'s x-update riding in `KernelBiCGS56`.
/// With `M = I` (`identity`) its `p̂`, `r̂` are the `p`, `r` the sweep
/// streams anyway: 64 B/elem vs 80 B for the pair; under a real
/// preconditioner they are buffers of their own and only the launch goes.
pub const fn info_bicgs456(identity: bool) -> KernelInfo {
    let shared = if identity { 16 } else { 0 };
    KernelInfo::fused("KernelBiCGS456", INFO_BICGS4, INFO_BICGS56, shared)
}
/// `KernelNorm2Axpy`: residual formation `r ← b − w` fused with `‖r‖²`
/// (setup/restart path; replaces copy + axpy + dot at 24 B/elem extra).
pub const INFO_NORM2AXPY: KernelInfo = KernelInfo::new("KernelNorm2Axpy", 32, 3);
/// `KernelCI1f32`: the Chebyshev start step in single precision — the
/// same sweep as `KernelCI1` at half the element width (32 B → 16 B).
pub const INFO_CI1_F32: KernelInfo = KernelInfo::new("KernelCI1f32", 16, 10);
/// `KernelCI2f32`: the single-precision Chebyshev sweep (48 B → 24 B).
pub const INFO_CI2_F32: KernelInfo = KernelInfo::new("KernelCI2f32", 24, 14);
/// [`INFO_CI2_NO_Z`] in single precision (40 B → 20 B).
pub const INFO_CI2_NO_Z_F32: KernelInfo = KernelInfo::new("KernelCI2f32", 20, 12);
/// Down-cast `f64 → f32` entry sweep of a single-precision Chebyshev
/// iteration under an `f64` solve (8 B read + 4 B write per element, no
/// flops booked).
pub const INFO_CAST_DOWN: KernelInfo = KernelInfo::new("KernelCastDown", 12, 0);
/// Up-cast `f32 → f64` exit sweep (4 B read + 8 B write per element).
pub const INFO_CAST_UP: KernelInfo = KernelInfo::new("KernelCastUp", 12, 0);

/// `y ← y + a x` over the interior, `x` sliced to each row's window.
pub fn axpy_inplace<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    y: &mut Field<T>,
    x: &Field<T>,
    a: T,
) {
    let map = grid.interior_map();
    let xs = x.as_slice();
    dev.launch_rows(info, map, y.as_mut_slice(), |j, k, row| {
        let b = map.row_offset(j, k);
        let n = row.len();
        for (v, &xv) in row.iter_mut().zip(&xs[b..b + n]) {
            *v += a * xv;
        }
    });
}

/// `KernelBiCGS5`: `r ← r − ω t`, returning the local partial sums
/// `(r̃ · r, r · r)` of the updated residual.
///
/// The two sums are a second pass over the row just written, adding the
/// same terms in the same order as a fused loop would: a float sum
/// sharing the update's loop keeps LLVM from vectorising the update.
pub fn residual_update_fused<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    r: &mut Field<T>,
    t: &Field<T>,
    omega: T,
    r0t: &Field<T>,
) -> (T, T) {
    let map = grid.interior_map();
    let ts = t.as_slice();
    let r0s = r0t.as_slice();
    let [p1, p2] = dev.launch_rows_reduce(info, map, r.as_mut_slice(), |j, k, row| {
        let b = map.row_offset(j, k);
        let n = row.len();
        r_row(row, &ts[b..b + n], &r0s[b..b + n], omega)
    });
    (p1, p2)
}

/// `KernelBiCGS5`'s row: `r ← r − ω t`, then `(r̃ · r, r · r)` as a second
/// pass over the row just written.
#[inline(always)]
fn r_row<T: Scalar>(r: &mut [T], t: &[T], r0: &[T], omega: T) -> [T; 2] {
    for (v, &tv) in r.iter_mut().zip(t) {
        *v -= omega * tv;
    }
    let mut s1 = T::ZERO;
    let mut s2 = T::ZERO;
    for (&rv, &gv) in r.iter().zip(r0) {
        s1 += gv * rv;
        s2 += rv * rv;
    }
    [s1, s2]
}

/// `KernelBiCGS56`'s row: `r ← r − ω t` and `p ← r + β (p − ω w)`, the
/// fresh residual value consumed in-register, then `r · r` as a second
/// pass over the row of `r` just written.
#[inline(always)]
fn rp_row<T: Scalar>(r: &mut [T], p: &mut [T], t: &[T], w: &[T], omega: T, beta: T) -> T {
    for (((r, p), &tv), &wv) in r.iter_mut().zip(p.iter_mut()).zip(t).zip(w) {
        let rv = *r - omega * tv;
        *r = rv;
        *p = rv + beta * (*p - omega * wv);
    }
    let mut acc = T::ZERO;
    for &rv in r.iter() {
        acc += rv * rv;
    }
    acc
}

/// `KernelBiCGS4`'s row: `x ← (x + α p̂) + ω r̂`, grouped as the two
/// sequential axpys `KernelBiCGS4a`, `KernelBiCGS4b`.
#[inline(always)]
fn x_row<T: Scalar>(x: &mut [T], p_hat: &[T], r_hat: &[T], alpha: T, omega: T) {
    for ((v, &pv), &rv) in x.iter_mut().zip(p_hat).zip(r_hat) {
        let v1 = *v + alpha * pv;
        *v = v1 + omega * rv;
    }
}

/// One lane's x-update operands in `KernelBiCGS456`: `α` and the whole
/// padded `(p̂, r̂)` — `None` with `M = I`, where they are `p` and `r`,
/// read before the sweep overwrites them.
pub type XUpdate<'a, T> = (T, Option<(&'a [T], &'a [T])>);

/// `KernelBiCGS6`: `p ← r + β (p − ω w)` — a three-stream axpy-style
/// update (read `r`, `w`, read-modify-write `p`) in one sweep, `r` and
/// `w` sliced to each row's window.
#[allow(clippy::too_many_arguments)]
pub fn axpy3_inplace<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    p: &mut Field<T>,
    r: &Field<T>,
    w: &Field<T>,
    beta: T,
    omega: T,
) {
    let map = grid.interior_map();
    let rs = r.as_slice();
    let ws = w.as_slice();
    dev.launch_rows(info, map, p.as_mut_slice(), |j, k, row| {
        let b = map.row_offset(j, k);
        let n = row.len();
        for ((v, &rv), &wv) in row.iter_mut().zip(&rs[b..b + n]).zip(&ws[b..b + n]) {
            *v = rv + beta * (*v - omega * wv);
        }
    });
}

/// `out ← b − w` fused with `‖out‖²` per lane — the `KernelNorm2Axpy`
/// setup sweep forming the initial residual and `ρ_0 = r̃ᵀ r = ‖r‖²`
/// (since `r̃ = r` at setup) in one pass, for every lane of a multi-RHS
/// solve in one launch; `ins[s]` is lane `s`'s `(b, w)`. Bitwise
/// identical per lane to `copy + axpy(-1) + dot(r, r)`: `b + (−1)·w`
/// rounds as `b − w`, and the norm folds edge-last like [`dot`] in a
/// second pass over the row just written.
///
/// Like every `*_batch` kernel here: the device sweeps all lanes inside
/// a single grid pass (one kernel-launch event, amortising launch and
/// sync overhead across the batch) while folding each lane's rows with a
/// private accumulator, so a lane's field and scalar do not depend on
/// which other lanes ride along. Slices are full padded lane arrays, the
/// read-only operands and coefficients of lane `s` travel as one record
/// `ins[s]`, and per-lane results land in `accs[s]`. Each row slices its
/// lane's operands to the row window once.
pub fn norm2_axpy_batch<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    outs: &mut [&mut [T]],
    ins: &[(&[T], &[T])],
    accs: &mut [[T; 1]],
) {
    assert_eq!(outs.len(), ins.len(), "lane count mismatch");
    let map = grid.interior_map();
    let [nx, ny, nz] = grid.local_n;
    dev.launch_lanes_reduce(info, map, outs, accs, |s, j, k, row| {
        let b = map.row_offset(j, k);
        let n = row.len();
        let (bsl, wsl) = ins[s];
        for ((v, &bv), &wv) in row.iter_mut().zip(&bsl[b..b + n]).zip(&wsl[b..b + n]) {
            *v = bv - wv;
        }
        let mid = row_has_deep_middle(nx, ny, nz, j, k);
        [fold_row_edge_last(n, mid, |i| row[i] * row[i])]
    });
}

/// [`norm2_axpy_batch`] for a single field.
pub fn norm2_axpy<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    out: &mut Field<T>,
    b: &Field<T>,
    w: &Field<T>,
) -> T {
    let mut acc = [[T::ZERO]];
    let ins = [(b.as_slice(), w.as_slice())];
    norm2_axpy_batch(dev, info, grid, &mut [out.as_mut_slice()], &ins, &mut acc);
    acc[0][0]
}

/// `y ← y + a x` fused with the dot `g · y` over the updated values, per
/// lane (`ins[s] = (x, a, g)`) — the `KernelBiCGS2F` sweep (`r ← r − α w`
/// producing `r̃ᵀ r` in the same pass). `x` and `g` are sliced to each
/// row's window once; the dot is a second pass over the row just
/// written, folding edge-last, bitwise identical to running
/// [`axpy_inplace`] followed by [`dot`]`(g, y)`.
pub fn axpy_dot_batch<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    ys: &mut [&mut [T]],
    ins: &[(&[T], T, &[T])],
    accs: &mut [[T; 1]],
) {
    assert_eq!(ys.len(), ins.len(), "lane count mismatch");
    let map = grid.interior_map();
    let [nx, ny, nz] = grid.local_n;
    dev.launch_lanes_reduce(info, map, ys, accs, |s, j, k, row| {
        let b = map.row_offset(j, k);
        let n = row.len();
        let (xsl, a, gsl) = ins[s];
        for (v, &xv) in row.iter_mut().zip(&xsl[b..b + n]) {
            *v += a * xv;
        }
        let g = &gsl[b..b + n];
        let mid = row_has_deep_middle(nx, ny, nz, j, k);
        [fold_row_edge_last(n, mid, |i| g[i] * row[i])]
    });
}

/// [`axpy_dot_batch`] for a single field.
pub fn axpy_dot<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    y: &mut Field<T>,
    x: &Field<T>,
    a: T,
    g: &Field<T>,
) -> T {
    let mut acc = [[T::ZERO]];
    let ins = [(x.as_slice(), a, g.as_slice())];
    axpy_dot_batch(dev, info, grid, &mut [y.as_mut_slice()], &ins, &mut acc);
    acc[0][0]
}

/// `y ← (y + a1 x1) + a2 x2` over the interior — the two split halves of
/// the x-update re-merged into one sweep (`KernelBiCGS4` traffic) while
/// keeping the *grouping* of the two sequential axpys, so the result is
/// bitwise identical to running `KernelBiCGS4a` then `KernelBiCGS4b`.
/// (Summing the two terms first, `y + (a1 x1 + a2 x2)`, would round
/// differently.) `x1` and `x2` are sliced to each row's window once.
#[allow(clippy::too_many_arguments)]
pub fn axpy2_chained_inplace<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    y: &mut Field<T>,
    x1: &Field<T>,
    a1: T,
    x2: &Field<T>,
    a2: T,
) {
    let map = grid.interior_map();
    let (x1, x2) = (x1.as_slice(), x2.as_slice());
    dev.launch_rows(info, map, y.as_mut_slice(), |j, k, row| {
        let (b, n) = (map.row_offset(j, k), row.len());
        x_row(row, &x1[b..b + n], &x2[b..b + n], a1, a2);
    });
}

/// `KernelBiCGS456`: the x-update `x ← (x + α p̂) + ω r̂` riding in
/// [`residual_p_update_fused`]'s sweep — one three-output launch
/// writing `r`, `p` and `x` per lane (`ins[s] = (t, w, ω, β)`, `xs_in[s]`
/// the lane's [`XUpdate`]). Each row updates `x` first, then runs
/// `KernelBiCGS56`'s row: every element keeps the arithmetic of the pair
/// and `‖r‖²` its fold order, so the bits are theirs.
#[allow(clippy::too_many_arguments)]
pub fn x_residual_p_update_fused_batch<'a, T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    rs: &mut [&'a mut [T]],
    ps: &mut [&'a mut [T]],
    xs: &mut [&'a mut [T]],
    ins: &[(&[T], &[T], T, T)],
    xs_in: &[XUpdate<'_, T>],
    accs: &mut [[T; 1]],
) {
    assert_eq!(rs.len(), ins.len(), "lane count mismatch");
    let map = grid.interior_map();
    let outs = [(map, ps), (map, xs)];
    dev.launch_lanes_n_reduce(info, map, rs, outs, accs, |s, j, k, r, [p, x]| {
        let (b, n, (t, w, omega, beta)) = (map.row_offset(j, k), r.len(), ins[s]);
        let (alpha, hats) = xs_in[s];
        let (ph, rh) = hats.map_or((&*p, &*r), |(ph, rh)| (&ph[b..b + n], &rh[b..b + n]));
        x_row(x, ph, rh, alpha, omega);
        [rp_row(r, p, &t[b..b + n], &w[b..b + n], omega, beta)]
    });
}

/// `KernelBiCGS56`: `r ← r − ω t` with `‖r‖²` **and** `p ← r + β (p −
/// ω w)` in one two-output sweep, the fresh residual value consumed
/// in-register. `t` and `w` are sliced to each row's window once. The
/// norm is a second pass over the row of `r` just written (a float sum in
/// the update loop would keep LLVM from vectorising it) and accumulates in
/// plain row order — exactly the order `KernelBiCGS5`'s `r·r` partial
/// uses — and the `p` formula matches [`axpy3_inplace`]
/// element-for-element, so the fused sweep is bitwise identical to
/// `KernelBiCGS5` + `KernelBiCGS6`.
#[allow(clippy::too_many_arguments)]
pub fn residual_p_update_fused<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    r: &mut Field<T>,
    p: &mut Field<T>,
    t: &Field<T>,
    w: &Field<T>,
    omega: T,
    beta: T,
) -> T {
    let map = grid.interior_map();
    let (t, w) = (t.as_slice(), w.as_slice());
    let (mut acc, ps) = ([[T::ZERO]], &mut [p.as_mut_slice()]);
    dev.launch_lanes_n_reduce(
        info,
        map,
        &mut [r.as_mut_slice()],
        [(map, ps)],
        &mut acc,
        |_, j, k, r, [p]| {
            let (b, n) = (map.row_offset(j, k), r.len());
            [rp_row(r, p, &t[b..b + n], &w[b..b + n], omega, beta)]
        },
    );
    acc[0][0]
}

/// Local interior dot product `a · b` (reduced per back-end policy).
///
/// Each row slices `a` and `b` to its window once and folds in the
/// canonical edge-last order ([`fold_row_edge_last`]), making the result
/// bitwise identical to the same dot fused into a stencil sweep.
pub fn dot<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    a: &Field<T>,
    b: &Field<T>,
) -> T {
    let map = grid.interior_map();
    let [nx, ny, nz] = grid.local_n;
    let (asl, bsl) = (a.as_slice(), b.as_slice());
    let len = map.len;
    let [s] = dev.launch_reduce(info.per_row(len), map.ny, map.nz, |j, k| {
        let o = map.row_offset(j, k);
        let (a, b) = (&asl[o..o + len], &bsl[o..o + len]);
        let mid = row_has_deep_middle(nx, ny, nz, j, k);
        [fold_row_edge_last(len, mid, |i| a[i] * b[i])]
    });
    s
}

/// Local interior dot pair `(a · b, a · a)` in one reduction — the
/// standalone form of the first two dots fused into `KernelBiCGS3F`, used
/// by the reference schedule. Each row slices `a` and `b` to its window
/// once; each component folds per row in the canonical edge-last order,
/// rows in `(j, k)` order with the back-end partial merge, matching the
/// fused sweeps of [`stencil::Laplacian::apply_fused_dots`] exactly, so
/// given the same `a` the results are bitwise identical.
pub fn dot2<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    a: &Field<T>,
    b: &Field<T>,
) -> (T, T) {
    let map = grid.interior_map();
    let [nx, ny, nz] = grid.local_n;
    let (asl, bsl) = (a.as_slice(), b.as_slice());
    let len = map.len;
    let [ab, aa] = dev.launch_reduce(info.per_row(len), map.ny, map.nz, |j, k| {
        let o = map.row_offset(j, k);
        let (a, b) = (&asl[o..o + len], &bsl[o..o + len]);
        let mid = row_has_deep_middle(nx, ny, nz, j, k);
        [
            fold_row_edge_last(len, mid, |i| a[i] * b[i]),
            fold_row_edge_last(len, mid, |i| a[i] * a[i]),
        ]
    });
    (ab, aa)
}

/// Local interior squared difference norm `Σ (a − b)²` (true-residual
/// evaluation `‖b − A x‖²` without materialising the difference), `a`
/// and `b` sliced to each row's window once.
pub fn diff_norm2<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    a: &Field<T>,
    b: &Field<T>,
) -> T {
    let map = grid.interior_map();
    let (asl, bsl) = (a.as_slice(), b.as_slice());
    let len = map.len;
    let [s] = dev.launch_reduce(info.per_row(len), map.ny, map.nz, |j, k| {
        let o = map.row_offset(j, k);
        let mut acc = T::ZERO;
        for (&av, &bv) in asl[o..o + len].iter().zip(&bsl[o..o + len]) {
            let d = av - bv;
            acc += d * d;
        }
        [acc]
    });
    s
}

/// Local interior squared norm `a · a`.
pub fn norm2_local<T: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    a: &Field<T>,
) -> T {
    dot(dev, info, grid, a, a)
}

/// `out ← src` over the interior, converted element-wise through
/// `f64` — the precision boundary of a Chebyshev iteration narrower than
/// its outer solve (`KernelCastDown` on entry, `KernelCastUp` on exit).
/// A narrowing cast rounds each element to nearest (ties to even), a
/// widening one is exact; ghosts are not touched — the caller refreshes
/// them in the target precision. `src` is sliced to each row's window.
pub fn cast<S: Scalar, E: Scalar, D: Device>(
    dev: &D,
    info: KernelInfo,
    grid: &BlockGrid,
    out: &mut Field<E>,
    src: &Field<S>,
) {
    let map = grid.interior_map();
    let ss = src.as_slice();
    dev.launch_rows(info, map, out.as_mut_slice(), |j, k, row| {
        let b = map.row_offset(j, k);
        let n = row.len();
        for (v, &sv) in row.iter_mut().zip(&ss[b..b + n]) {
            *v = E::from_f64(sv.to_f64());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::{Recorder, Serial};
    use blockgrid::{Decomp, GlobalGrid};

    fn setup() -> (Serial, BlockGrid) {
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([3, 3, 3], [0.1; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        (Serial::new(Recorder::disabled()), grid)
    }

    fn field_iota(dev: &Serial, grid: &BlockGrid, scale_by: f64) -> Field<f64> {
        let vals: Vec<f64> = (0..27).map(|i| i as f64 * scale_by).collect();
        Field::from_interior(dev, grid, &vals)
    }

    #[test]
    fn axpy_updates_interior_only() {
        let (dev, grid) = setup();
        let mut y = field_iota(&dev, &grid, 1.0);
        let x = field_iota(&dev, &grid, 2.0);
        axpy_inplace(&dev, INFO_BICGS2, &grid, &mut y, &x, 0.5);
        let yi = y.interior_to_host(&grid);
        for (i, v) in yi.iter().enumerate() {
            assert_eq!(*v, i as f64 + 0.5 * (2.0 * i as f64));
        }
        // halos untouched (still zero)
        assert_eq!(y.as_slice()[0], 0.0);
    }

    #[test]
    fn residual_update_matches_manual() {
        let (dev, grid) = setup();
        let mut r = field_iota(&dev, &grid, 1.0);
        let t = field_iota(&dev, &grid, 0.5);
        let r0t = field_iota(&dev, &grid, 2.0);
        let omega = 0.25;
        let (p1, p2) = residual_update_fused(&dev, INFO_BICGS5, &grid, &mut r, &t, omega, &r0t);
        let mut e1 = 0.0;
        let mut e2 = 0.0;
        for i in 0..27 {
            let rv = i as f64 - omega * 0.5 * i as f64;
            e1 += 2.0 * i as f64 * rv;
            e2 += rv * rv;
        }
        assert!((p1 - e1).abs() < 1e-12 * e1.abs().max(1.0));
        assert!((p2 - e2).abs() < 1e-12 * e2.abs().max(1.0));
        let ri = r.interior_to_host(&grid);
        assert_eq!(ri[4], 4.0 - 0.25 * 2.0);
    }

    #[test]
    fn p_update_formula() {
        let (dev, grid) = setup();
        let mut p = field_iota(&dev, &grid, 1.0);
        let r = field_iota(&dev, &grid, 3.0);
        let w = field_iota(&dev, &grid, 1.0);
        axpy3_inplace(&dev, INFO_BICGS6, &grid, &mut p, &r, &w, 2.0, 0.5);
        let pi = p.interior_to_host(&grid);
        for (i, v) in pi.iter().enumerate() {
            let x = i as f64;
            assert_eq!(*v, 3.0 * x + 2.0 * (x - 0.5 * x));
        }
    }

    #[test]
    fn dot_and_norm() {
        let (dev, grid) = setup();
        let a = field_iota(&dev, &grid, 1.0);
        let b = field_iota(&dev, &grid, 2.0);
        let d = dot(&dev, INFO_DOT, &grid, &a, &b);
        let expect: f64 = (0..27).map(|i| (i * i * 2) as f64).sum();
        assert_eq!(d, expect);
        let n2 = norm2_local(&dev, INFO_DOT, &grid, &a);
        let expect: f64 = (0..27).map(|i| (i * i) as f64).sum();
        assert_eq!(n2, expect);
    }

    #[test]
    fn dots_ignore_halo_contamination() {
        let (dev, grid) = setup();
        let mut a = field_iota(&dev, &grid, 1.0);
        // poison a ghost cell; interior dot must not see it
        let gi = grid.idx(0, 0, 0);
        a.as_mut_slice()[gi] = 1e9;
        let n2 = norm2_local(&dev, INFO_DOT, &grid, &a);
        let expect: f64 = (0..27).map(|i| (i * i) as f64).sum();
        assert_eq!(n2, expect);
    }

    fn setup_rect() -> (Serial, BlockGrid) {
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([5, 4, 6], [0.1; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        (Serial::new(Recorder::disabled()), grid)
    }

    fn rng_values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    fn rng_field(dev: &Serial, grid: &BlockGrid, seed: u64) -> Field<f64> {
        let n = grid.local_n.iter().product();
        Field::from_interior(dev, grid, &rng_values(n, seed))
    }

    #[test]
    fn fused_axpy_dot_bitwise_matches_unfused() {
        let (dev, grid) = setup_rect();
        let x = rng_field(&dev, &grid, 1);
        let g = rng_field(&dev, &grid, 2);
        let mut y_fused = rng_field(&dev, &grid, 3);
        let mut y_ref = rng_field(&dev, &grid, 3);
        let a = 0.37;
        let s_fused = axpy_dot(&dev, INFO_BICGS2F, &grid, &mut y_fused, &x, a, &g);
        axpy_inplace(&dev, INFO_BICGS2, &grid, &mut y_ref, &x, a);
        let s_ref = dot(&dev, INFO_DOT, &grid, &g, &y_ref);
        assert_eq!(s_fused.to_bits(), s_ref.to_bits());
        for (f, r) in y_fused.as_slice().iter().zip(y_ref.as_slice()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn chained_axpy2_bitwise_matches_two_sequential_axpys() {
        let (dev, grid) = setup_rect();
        let x1 = rng_field(&dev, &grid, 4);
        let x2 = rng_field(&dev, &grid, 5);
        let mut y_fused = rng_field(&dev, &grid, 6);
        let mut y_ref = rng_field(&dev, &grid, 6);
        let (a1, a2) = (0.73, -1.19);
        axpy2_chained_inplace(&dev, INFO_BICGS4, &grid, &mut y_fused, &x1, a1, &x2, a2);
        axpy_inplace(&dev, INFO_BICGS4A, &grid, &mut y_ref, &x1, a1);
        axpy_inplace(&dev, INFO_BICGS4B, &grid, &mut y_ref, &x2, a2);
        for (f, r) in y_fused.as_slice().iter().zip(y_ref.as_slice()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    #[test]
    fn norm2_axpy_bitwise_matches_copy_axpy_dot() {
        let (dev, grid) = setup_rect();
        let b = rng_field(&dev, &grid, 7);
        let w = rng_field(&dev, &grid, 8);
        let mut r_fused = Field::zeros(&dev, &grid);
        let n2_fused = norm2_axpy(&dev, INFO_NORM2AXPY, &grid, &mut r_fused, &b, &w);
        let mut r_ref = Field::zeros(&dev, &grid);
        r_ref.copy_from(&b);
        axpy_inplace(&dev, INFO_BICGS2, &grid, &mut r_ref, &w, -1.0);
        let n2_ref = dot(&dev, INFO_DOT, &grid, &r_ref, &r_ref);
        assert_eq!(n2_fused.to_bits(), n2_ref.to_bits());
        let mi = grid.interior_map();
        let (ri, rr) = (r_fused.as_slice(), r_ref.as_slice());
        for k in 0..mi.nz {
            for j in 0..mi.ny {
                let off = mi.row_offset(j, k);
                for i in off..off + mi.len {
                    assert_eq!(ri[i].to_bits(), rr[i].to_bits());
                }
            }
        }
    }

    #[test]
    fn fused_bicgs56_bitwise_matches_bicgs5_then_bicgs6() {
        let (dev, grid) = setup_rect();
        let t = rng_field(&dev, &grid, 9);
        let w = rng_field(&dev, &grid, 10);
        let r0t = rng_field(&dev, &grid, 11);
        let (omega, beta) = (0.41, -0.87);
        let mut r_fused = rng_field(&dev, &grid, 12);
        let mut p_fused = rng_field(&dev, &grid, 13);
        let n2_fused = residual_p_update_fused(
            &dev,
            INFO_BICGS56,
            &grid,
            &mut r_fused,
            &mut p_fused,
            &t,
            &w,
            omega,
            beta,
        );
        let mut r_ref = rng_field(&dev, &grid, 12);
        let mut p_ref = rng_field(&dev, &grid, 13);
        let (_, n2_ref) =
            residual_update_fused(&dev, INFO_BICGS5, &grid, &mut r_ref, &t, omega, &r0t);
        axpy3_inplace(
            &dev,
            INFO_BICGS6,
            &grid,
            &mut p_ref,
            &r_ref,
            &w,
            beta,
            omega,
        );
        assert_eq!(n2_fused.to_bits(), n2_ref.to_bits());
        for (f, r) in r_fused.as_slice().iter().zip(r_ref.as_slice()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
        for (f, r) in p_fused.as_slice().iter().zip(p_ref.as_slice()) {
            assert_eq!(f.to_bits(), r.to_bits());
        }
    }

    /// Overwrite every non-interior (ghost/padding) cell with NaN, the
    /// most contagious contaminant: one stray read poisons the result.
    fn poison_ghosts<T: Scalar>(grid: &BlockGrid, f: &mut Field<T>) {
        let mi = grid.interior_map();
        let mut interior = vec![false; f.as_slice().len()];
        for k in 0..mi.nz {
            for j in 0..mi.ny {
                let off = mi.row_offset(j, k);
                interior[off..off + mi.len]
                    .iter_mut()
                    .for_each(|b| *b = true);
            }
        }
        for (v, keep) in f.as_mut_slice().iter_mut().zip(&interior) {
            if !keep {
                *v = T::from_f64(f64::NAN);
            }
        }
    }

    #[test]
    fn fused_reductions_ignore_nan_poisoned_ghosts() {
        // The fused single-sweep reductions must walk exactly the interior
        // rows: a NaN in any ghost or pad cell they wrongly touched would
        // surface in the scalar. Results must be bitwise identical to the
        // clean-field run.
        let (dev, grid) = setup_rect();
        let run = |poison: bool| -> [f64; 4] {
            let mut x = rng_field(&dev, &grid, 21);
            let mut g = rng_field(&dev, &grid, 22);
            let mut b = rng_field(&dev, &grid, 23);
            let mut w = rng_field(&dev, &grid, 24);
            let mut t = rng_field(&dev, &grid, 25);
            let mut y = rng_field(&dev, &grid, 26);
            let mut r = rng_field(&dev, &grid, 27);
            let mut p = rng_field(&dev, &grid, 28);
            if poison {
                for f in [
                    &mut x, &mut g, &mut b, &mut w, &mut t, &mut y, &mut r, &mut p,
                ] {
                    poison_ghosts(&grid, f);
                }
            }
            let s1 = axpy_dot(&dev, INFO_BICGS2F, &grid, &mut y, &x, 0.59, &g);
            let mut res = Field::zeros(&dev, &grid);
            let s2 = norm2_axpy(&dev, INFO_NORM2AXPY, &grid, &mut res, &b, &w);
            let s3 = residual_p_update_fused(
                &dev,
                INFO_BICGS56,
                &grid,
                &mut r,
                &mut p,
                &t,
                &w,
                0.3,
                1.7,
            );
            let (s4a, s4b) = residual_update_fused(&dev, INFO_BICGS5, &grid, &mut r, &t, 0.3, &g);
            [s1, s2, s3, s4a + s4b]
        };
        let clean = run(false);
        let poisoned = run(true);
        for (c, q) in clean.iter().zip(&poisoned) {
            assert!(q.is_finite(), "a fused reduction read a ghost cell: {q}");
            assert_eq!(c.to_bits(), q.to_bits());
        }
    }

    #[test]
    fn batch_kernels_bitwise_match_solo_per_lane() {
        // Every *_batch kernel must leave each lane bitwise identical to
        // the solo kernel run over that lane's fields alone — fields and
        // reduction scalars both.
        let (dev, grid) = setup_rect();
        let nb = 3;
        let coefs: Vec<f64> = vec![0.37, -1.19, 0.73];

        // Per-lane field sets, one "batched" copy and one "solo" copy.
        let mk = |seed: u64| rng_field(&dev, &grid, seed);
        let mut r_b: Vec<Field<f64>> = (0..nb).map(|l| mk(100 + l as u64)).collect();
        let mut r_s: Vec<Field<f64>> = (0..nb).map(|l| mk(100 + l as u64)).collect();
        let w: Vec<Field<f64>> = (0..nb).map(|l| mk(400 + l as u64)).collect();
        let g: Vec<Field<f64>> = (0..nb).map(|l| mk(500 + l as u64)).collect();
        let b_rhs: Vec<Field<f64>> = (0..nb).map(|l| mk(600 + l as u64)).collect();

        // norm2_axpy_batch vs norm2_axpy
        let mut out_b: Vec<Field<f64>> = (0..nb).map(|_| Field::zeros(&dev, &grid)).collect();
        let mut accs = vec![[0.0f64; 1]; nb];
        {
            let mut outs: Vec<&mut [f64]> = out_b.iter_mut().map(|f| f.as_mut_slice()).collect();
            let ins: Vec<_> = (0..nb)
                .map(|l| (b_rhs[l].as_slice(), w[l].as_slice()))
                .collect();
            norm2_axpy_batch(&dev, INFO_NORM2AXPY, &grid, &mut outs, &ins, &mut accs);
        }
        for l in 0..nb {
            let mut out_ref = Field::zeros(&dev, &grid);
            let n2 = norm2_axpy(&dev, INFO_NORM2AXPY, &grid, &mut out_ref, &b_rhs[l], &w[l]);
            assert_eq!(accs[l][0].to_bits(), n2.to_bits());
            for (a, b) in out_b[l].as_slice().iter().zip(out_ref.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        // axpy_dot_batch vs axpy_dot (updates r in place)
        let mut accs2 = vec![[0.0f64; 1]; nb];
        {
            let mut ys: Vec<&mut [f64]> = r_b.iter_mut().map(|f| f.as_mut_slice()).collect();
            let ins: Vec<_> = (0..nb)
                .map(|l| (w[l].as_slice(), coefs[l], g[l].as_slice()))
                .collect();
            axpy_dot_batch(&dev, INFO_BICGS2F, &grid, &mut ys, &ins, &mut accs2);
        }
        for l in 0..nb {
            let s = axpy_dot(
                &dev,
                INFO_BICGS2F,
                &grid,
                &mut r_s[l],
                &w[l],
                coefs[l],
                &g[l],
            );
            assert_eq!(accs2[l][0].to_bits(), s.to_bits());
            for (a, b) in r_b[l].as_slice().iter().zip(r_s[l].as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn casts_roundtrip_and_ignore_poisoned_ghosts() {
        // The precision boundary: down-cast rounds once, up-cast is
        // exact, and neither sweep reads or writes a ghost cell — a NaN
        // planted there must neither leak into the output interior nor
        // be cleared.
        let (dev, grid) = setup_rect();
        let mut src = rng_field(&dev, &grid, 31);
        poison_ghosts(&grid, &mut src);
        let mut narrow = Field::<f32>::zeros(&dev, &grid);
        cast(&dev, INFO_CAST_DOWN, &grid, &mut narrow, &src);
        for v in narrow.as_slice() {
            assert!(v.is_finite(), "the down-cast touched a ghost");
        }
        let mut wide = Field::<f64>::zeros(&dev, &grid);
        cast(&dev, INFO_CAST_UP, &grid, &mut wide, &narrow);
        let si = src.interior_to_host(&grid);
        let wi = wide.interior_to_host(&grid);
        for (a, b) in si.iter().zip(&wi) {
            assert_eq!(f64::from(*a as f32), *b, "f64→f32→f64 must round once");
        }
    }

    #[test]
    fn f32_info_constants_halve_sweep_traffic() {
        assert_eq!(INFO_CI1_F32.bytes_per_elem * 2, INFO_CI1.bytes_per_elem);
        assert_eq!(INFO_CI2_F32.bytes_per_elem * 2, INFO_CI2.bytes_per_elem);
        assert_eq!(
            INFO_CI2_NO_Z_F32.bytes_per_elem * 2,
            INFO_CI2_NO_Z.bytes_per_elem
        );
        assert_eq!(INFO_CI1_F32.flops_per_elem, INFO_CI1.flops_per_elem);
        assert_eq!(INFO_CI2_F32.flops_per_elem, INFO_CI2.flops_per_elem);
        assert_eq!(
            INFO_CI2_NO_Z_F32.flops_per_elem,
            INFO_CI2_NO_Z.flops_per_elem
        );
    }

    #[test]
    fn fused_info_constants_dedup_traffic() {
        assert_eq!(INFO_BICGS2F.bytes_per_elem, 32);
        assert_eq!(INFO_BICGS2F.flops_per_elem, 4);
        assert_eq!(INFO_BICGS3F.bytes_per_elem, 48);
        assert_eq!(INFO_BICGS3F.flops_per_elem, 16);
        // x, r, p read and written, t and w read; p̂, r̂ on top under a
        // real preconditioner.
        let bytes = [true, false].map(|id| info_bicgs456(id).bytes_per_elem);
        assert_eq!(bytes, [64, 80]);
        assert_eq!(info_bicgs456(true).flops_per_elem, 12);
    }

    /// Test-only copies of the kernel bodies that predate row windows:
    /// whole padded arrays indexed per element (`xs[b + i]`), and the
    /// reductions of `KernelBiCGS5`/`KernelBiCGS56` summed inside their
    /// update loops. The oracle of
    /// `vector_kernels_bitwise_match_scalar_oracle`.
    mod oracle {
        use accel::{fold_row_edge_last, row_has_deep_middle, Device, KernelInfo, Scalar};
        use blockgrid::{BlockGrid, Field};

        pub(super) fn axpy_inplace<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            y: &mut Field<T>,
            x: &Field<T>,
            a: T,
        ) {
            let map = grid.interior_map();
            let xs = x.as_slice();
            let base0 = map.base;
            let (sy, sz) = (map.sy, map.sz);
            dev.launch_rows(info, map, y.as_mut_slice(), |j, k, row| {
                let b = base0 + j * sy + k * sz;
                for (i, v) in row.iter_mut().enumerate() {
                    *v += a * xs[b + i];
                }
            });
        }

        pub(super) fn residual_update_fused<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            r: &mut Field<T>,
            t: &Field<T>,
            omega: T,
            r0t: &Field<T>,
        ) -> (T, T) {
            let map = grid.interior_map();
            let ts = t.as_slice();
            let r0s = r0t.as_slice();
            let base0 = map.base;
            let (sy, sz) = (map.sy, map.sz);
            let [p1, p2] = dev.launch_rows_reduce(info, map, r.as_mut_slice(), |j, k, row| {
                let b = base0 + j * sy + k * sz;
                let mut s1 = T::ZERO;
                let mut s2 = T::ZERO;
                for (i, v) in row.iter_mut().enumerate() {
                    let rv = *v - omega * ts[b + i];
                    *v = rv;
                    s1 += r0s[b + i] * rv;
                    s2 += rv * rv;
                }
                [s1, s2]
            });
            (p1, p2)
        }

        #[allow(clippy::too_many_arguments)]
        pub(super) fn axpy3_inplace<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            p: &mut Field<T>,
            r: &Field<T>,
            w: &Field<T>,
            beta: T,
            omega: T,
        ) {
            let map = grid.interior_map();
            let rs = r.as_slice();
            let ws = w.as_slice();
            let base0 = map.base;
            let (sy, sz) = (map.sy, map.sz);
            dev.launch_rows(info, map, p.as_mut_slice(), |j, k, row| {
                let b = base0 + j * sy + k * sz;
                for (i, v) in row.iter_mut().enumerate() {
                    *v = rs[b + i] + beta * (*v - omega * ws[b + i]);
                }
            });
        }

        pub(super) fn norm2_axpy_batch<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            outs: &mut [&mut [T]],
            ins: &[(&[T], &[T])],
            accs: &mut [[T; 1]],
        ) {
            assert_eq!(outs.len(), ins.len(), "lane count mismatch");
            let map = grid.interior_map();
            let [nx, ny, nz] = grid.local_n;
            dev.launch_lanes_reduce(info, map, outs, accs, |s, j, k, row| {
                let b0 = map.row_offset(j, k);
                let (bsl, wsl) = ins[s];
                for (i, v) in row.iter_mut().enumerate() {
                    *v = bsl[b0 + i] - wsl[b0 + i];
                }
                let mid = row_has_deep_middle(nx, ny, nz, j, k);
                [fold_row_edge_last(row.len(), mid, |i| row[i] * row[i])]
            });
        }

        pub(super) fn axpy_dot_batch<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            ys: &mut [&mut [T]],
            ins: &[(&[T], T, &[T])],
            accs: &mut [[T; 1]],
        ) {
            assert_eq!(ys.len(), ins.len(), "lane count mismatch");
            let map = grid.interior_map();
            let [nx, ny, nz] = grid.local_n;
            dev.launch_lanes_reduce(info, map, ys, accs, |s, j, k, row| {
                let b = map.row_offset(j, k);
                let (xsl, a, gsl) = ins[s];
                for (i, v) in row.iter_mut().enumerate() {
                    *v += a * xsl[b + i];
                }
                let mid = row_has_deep_middle(nx, ny, nz, j, k);
                [fold_row_edge_last(row.len(), mid, |i| gsl[b + i] * row[i])]
            });
        }

        pub(super) fn dot<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            a: &Field<T>,
            b: &Field<T>,
        ) -> T {
            let map = grid.interior_map();
            let [nx, ny, nz] = grid.local_n;
            let asl = a.as_slice();
            let bsl = b.as_slice();
            let base0 = map.base;
            let (len, sy, sz) = (map.len, map.sy, map.sz);
            let [s] = dev.launch_reduce(info.per_row(len), map.ny, map.nz, |j, k| {
                let off = base0 + j * sy + k * sz;
                let mid = row_has_deep_middle(nx, ny, nz, j, k);
                [fold_row_edge_last(len, mid, |i| {
                    asl[off + i] * bsl[off + i]
                })]
            });
            s
        }

        pub(super) fn dot2<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            a: &Field<T>,
            b: &Field<T>,
        ) -> (T, T) {
            let map = grid.interior_map();
            let [nx, ny, nz] = grid.local_n;
            let asl = a.as_slice();
            let bsl = b.as_slice();
            let base0 = map.base;
            let (len, sy, sz) = (map.len, map.sy, map.sz);
            let [ab, aa] = dev.launch_reduce(info.per_row(len), map.ny, map.nz, |j, k| {
                let off = base0 + j * sy + k * sz;
                let mid = row_has_deep_middle(nx, ny, nz, j, k);
                [
                    fold_row_edge_last(len, mid, |i| asl[off + i] * bsl[off + i]),
                    fold_row_edge_last(len, mid, |i| {
                        let av = asl[off + i];
                        av * av
                    }),
                ]
            });
            (ab, aa)
        }

        pub(super) fn diff_norm2<T: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            a: &Field<T>,
            b: &Field<T>,
        ) -> T {
            let map = grid.interior_map();
            let asl = a.as_slice();
            let bsl = b.as_slice();
            let base0 = map.base;
            let (len, sy, sz) = (map.len, map.sy, map.sz);
            let [s] = dev.launch_reduce(info.per_row(len), map.ny, map.nz, |j, k| {
                let off = base0 + j * sy + k * sz;
                let mut acc = T::ZERO;
                for i in 0..len {
                    let d = asl[off + i] - bsl[off + i];
                    acc += d * d;
                }
                [acc]
            });
            s
        }

        pub(super) fn cast<S: Scalar, E: Scalar, D: Device>(
            dev: &D,
            info: KernelInfo,
            grid: &BlockGrid,
            out: &mut Field<E>,
            src: &Field<S>,
        ) {
            let map = grid.interior_map();
            let ss = src.as_slice();
            let base0 = map.base;
            let (sy, sz) = (map.sy, map.sz);
            dev.launch_rows(info, map, out.as_mut_slice(), |j, k, row| {
                let b = base0 + j * sy + k * sz;
                for (i, v) in row.iter_mut().enumerate() {
                    *v = E::from_f64(ss[b + i].to_f64());
                }
            });
        }
    }

    mod windows {
        use super::*;
        use accel::AnyDevice;
        use proptest::prelude::*;

        /// Random interior values from `seed`, every ghost and pad cell NaN.
        fn poisoned<T: Scalar>(grid: &BlockGrid, seed: u64) -> Field<T> {
            let dev = Serial::new(Recorder::disabled());
            let n = grid.local_n.iter().product();
            let vals: Vec<T> = rng_values(n, seed).into_iter().map(T::from_f64).collect();
            let mut f = Field::from_interior(&dev, grid, &vals);
            poison_ghosts(grid, &mut f);
            f
        }

        fn slices<T: Scalar>(fs: &mut [Field<T>]) -> Vec<&mut [T]> {
            fs.iter_mut().map(|f| f.as_mut_slice()).collect()
        }

        fn assert_fields<T: Scalar>(got: &[Field<T>], want: &[Field<T>], what: &str) {
            for (l, (g, w)) in got.iter().zip(want).enumerate() {
                let bits = |f: &Field<T>| {
                    f.as_slice()
                        .iter()
                        .map(|v| v.to_bits64())
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(g), bits(w), "{what}: lane {l} padded output");
            }
        }

        fn assert_sums<const NR: usize>(got: &[[f64; NR]], want: &[[f64; NR]], what: &str) {
            for (l, (g, w)) in got.iter().zip(want).enumerate() {
                assert_eq!(
                    g.map(f64::to_bits),
                    w.map(f64::to_bits),
                    "{what}: lane {l} sums"
                );
            }
        }

        /// Every row-window kernel against its [`oracle`] body on `nb`
        /// lanes of NaN-ghosted fields: whole padded outputs and every
        /// sum bitwise.
        fn check_vector_kernels(
            dev: &AnyDevice,
            grid: &BlockGrid,
            nb: usize,
            seed: u64,
            what: &str,
        ) {
            let lanes = |s: u64| -> Vec<Field<f64>> {
                (0..nb)
                    .map(|l| poisoned(grid, seed ^ (s << 48) ^ (l as u64) << 56))
                    .collect()
            };
            let coefs = rng_values(4 * nb, seed ^ 0x5EED);
            let coef = |c: usize, l: usize| 3.0 * coefs[c * nb + l];
            let (xs, gs, ts, ws) = (lanes(1), lanes(2), lanes(3), lanes(4));
            let batch = |kernel: &str| format!("{kernel} on {what}, {nb} lanes");

            // KernelNorm2Axpy
            let (mut got, mut want) = (lanes(5), lanes(5));
            let (mut sg, mut sw) = (vec![[0.0]; nb], vec![[0.0]; nb]);
            let ins: Vec<_> = (0..nb)
                .map(|l| (xs[l].as_slice(), ws[l].as_slice()))
                .collect();
            norm2_axpy_batch(
                dev,
                INFO_NORM2AXPY,
                grid,
                &mut slices(&mut got),
                &ins,
                &mut sg,
            );
            oracle::norm2_axpy_batch(
                dev,
                INFO_NORM2AXPY,
                grid,
                &mut slices(&mut want),
                &ins,
                &mut sw,
            );
            assert_fields(&got, &want, &batch("KernelNorm2Axpy"));
            assert_sums(&sg, &sw, &batch("KernelNorm2Axpy"));

            // KernelBiCGS2F
            let (mut got, mut want) = (lanes(6), lanes(6));
            let (mut sg, mut sw) = (vec![[0.0]; nb], vec![[0.0]; nb]);
            let ins: Vec<_> = (0..nb)
                .map(|l| (ws[l].as_slice(), coef(0, l), gs[l].as_slice()))
                .collect();
            axpy_dot_batch(
                dev,
                INFO_BICGS2F,
                grid,
                &mut slices(&mut got),
                &ins,
                &mut sg,
            );
            oracle::axpy_dot_batch(
                dev,
                INFO_BICGS2F,
                grid,
                &mut slices(&mut want),
                &ins,
                &mut sw,
            );
            assert_fields(&got, &want, &batch("KernelBiCGS2F"));
            assert_sums(&sg, &sw, &batch("KernelBiCGS2F"));

            // The single-field kernels, once per lane.
            for l in 0..nb {
                let (x, g, t, w) = (&xs[l], &gs[l], &ts[l], &ws[l]);
                let (a, b) = (coef(0, l), coef(1, l));
                let one = |kernel: &str| format!("{kernel} on {what}, lane {l}");

                let (mut got, mut want) = (lanes(10), lanes(10));
                axpy_inplace(dev, INFO_BICGS2, grid, &mut got[l], x, a);
                oracle::axpy_inplace(dev, INFO_BICGS2, grid, &mut want[l], x, a);
                assert_fields(&got, &want, &one("axpy_inplace"));

                let (mut got, mut want) = (lanes(11), lanes(11));
                let sg = residual_update_fused(dev, INFO_BICGS5, grid, &mut got[l], t, a, g);
                let sw =
                    oracle::residual_update_fused(dev, INFO_BICGS5, grid, &mut want[l], t, a, g);
                assert_fields(&got, &want, &one("KernelBiCGS5"));
                assert_sums(&[[sg.0, sg.1]], &[[sw.0, sw.1]], &one("KernelBiCGS5"));

                let (mut got, mut want) = (lanes(12), lanes(12));
                axpy3_inplace(dev, INFO_BICGS6, grid, &mut got[l], x, w, a, b);
                oracle::axpy3_inplace(dev, INFO_BICGS6, grid, &mut want[l], x, w, a, b);
                assert_fields(&got, &want, &one("axpy3_inplace"));

                let (mut got, mut want) = ([poisoned::<f32>(grid, seed)], [poisoned(grid, seed)]);
                cast(dev, INFO_CAST_DOWN, grid, &mut got[0], x);
                oracle::cast(dev, INFO_CAST_DOWN, grid, &mut want[0], x);
                assert_fields(&got, &want, &one("cast down"));
                let (mut up_got, mut up_want) = (lanes(14), lanes(14));
                cast(dev, INFO_CAST_UP, grid, &mut up_got[l], &got[0]);
                oracle::cast(dev, INFO_CAST_UP, grid, &mut up_want[l], &got[0]);
                assert_fields(&up_got, &up_want, &one("cast up"));

                let (ab, aa) = dot2(dev, INFO_DOT, grid, x, g);
                let got = [
                    dot(dev, INFO_DOT, grid, x, g),
                    ab,
                    aa,
                    diff_norm2(dev, INFO_DOT, grid, x, g),
                ];
                let (ab, aa) = oracle::dot2(dev, INFO_DOT, grid, x, g);
                let want = [
                    oracle::dot(dev, INFO_DOT, grid, x, g),
                    ab,
                    aa,
                    oracle::diff_norm2(dev, INFO_DOT, grid, x, g),
                ];
                assert_sums(&[got], &[want], &one("dot, dot2, diff_norm2"));
            }
        }

        /// The lanes of `fs` whose bit is set in `on`, as launch slices.
        fn picked(fs: &mut [Field<f64>], on: usize) -> Vec<&mut [f64]> {
            let lanes = fs.iter_mut().enumerate().filter(|(l, _)| on >> l & 1 == 1);
            lanes.map(|(_, f)| f.as_mut_slice()).collect()
        }

        /// `KernelBiCGS456` over the lanes of `nb` set in `on` against its
        /// unfused pair, `KernelBiCGS4` then `KernelBiCGS56`, run lane by
        /// lane. With `id` (`M = I`) the x-update reads the `p` and `r` the
        /// sweep overwrites; the lanes left out of the launch must come out
        /// untouched.
        fn x_sweeps(dev: &AnyDevice, g: &BlockGrid, nb: usize, on: usize, id: bool, seed: u64) {
            let lanes = |s: u64| -> Vec<Field<f64>> {
                let lane = |l: u64| poisoned(g, seed ^ (s << 48) ^ l << 56);
                (0..nb as u64).map(lane).collect()
            };
            let coefs = &rng_values(3 * nb, seed ^ 0xF05E);
            let [a, o, be] = [0, 1, 2].map(|c| move |l: usize| 3.0 * coefs[c * nb + l]);
            let (ph, rh, ts, ws) = (lanes(1), lanes(2), lanes(3), lanes(4));
            let live: Vec<usize> = (0..nb).filter(|l| on >> l & 1 == 1).collect();
            let hats = |l: usize| (!id).then(|| (ph[l].as_slice(), rh[l].as_slice()));
            let what = format!("{:?} {}, lanes {live:?}/{nb}", g.local_n, dev.name());
            let what = |kernel: &str| format!("{kernel} on {what}, M = I {id}");

            let ([mut xg, mut rg, mut pg], [mut xw, mut rw, mut pw]) =
                [0, 0].map(|_| [6, 7, 8].map(lanes)).into();
            let ins: Vec<_> = live
                .iter()
                .map(|&l| (ts[l].as_slice(), ws[l].as_slice(), o(l), be(l)))
                .collect();
            let x_ins: Vec<_> = live.iter().map(|&l| (a(l), hats(l))).collect();
            let (mut sg, mut sw, info) = (vec![[0.0]; live.len()], Vec::new(), info_bicgs456(id));
            let [mut r, mut p, mut x] = [&mut rg, &mut pg, &mut xg].map(|f| picked(f, on));
            x_residual_p_update_fused_batch(
                dev, info, g, &mut r, &mut p, &mut x, &ins, &x_ins, &mut sg,
            );
            for &l in &live {
                let (p_hat, r_hat) = [(&ph[l], &rh[l]), (&pw[l], &rw[l])][usize::from(id)];
                axpy2_chained_inplace(dev, INFO_BICGS4, g, &mut xw[l], p_hat, a(l), r_hat, o(l));
                let (r, p, t, w) = (&mut rw[l], &mut pw[l], &ts[l], &ws[l]);
                let n2 = residual_p_update_fused(dev, INFO_BICGS56, g, r, p, t, w, o(l), be(l));
                sw.push([n2]);
            }
            for (got, want, field) in [(&xg, &xw, "x"), (&rg, &rw, "r"), (&pg, &pw, "p")] {
                assert_fields(got, want, &what(&format!("KernelBiCGS456 {field}")));
            }
            assert_sums(&sg, &sw, &what("KernelBiCGS456"));
        }

        /// Row lengths 1, 2 and 3 (the shortest windows, and the shortest
        /// rows that fold edge-last) and whatever else 1..14 draws.
        fn extent() -> impl Strategy<Value = usize> {
            prop_oneof![Just(1usize), Just(2), Just(3), 1usize..14]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// The row-window kernels are bitwise their indexed oracles on
            /// every back-end, for 1–3 lanes of every extent, with NaN in
            /// every ghost: a slice off by one cell or a sum regrouped
            /// shows as a differing bit.
            #[test]
            fn vector_kernels_bitwise_match_scalar_oracle(
                nx in extent(), ny in 1usize..14, nz in 1usize..14,
                nb in 1usize..4, seed in 1u64..1 << 40,
            ) {
                let grid = BlockGrid::new(
                    GlobalGrid::dirichlet([nx, ny, nz], [0.1; 3], [0.0; 3]),
                    Decomp::single(),
                    0,
                );
                for spec in ["serial", "threads:2", "threads:3", "simgpu:2"] {
                    let dev = AnyDevice::from_spec(spec, Recorder::disabled()).unwrap();
                    let what = format!("{:?} {spec}", grid.local_n);
                    check_vector_kernels(&dev, &grid, nb, seed, &what);
                }
            }

            /// The x-update riding in the residual sweeps is bitwise its
            /// unfused pair on every back-end, on odd extents, for 1–8
            /// lanes of which any may be frozen out of the launch.
            #[test]
            fn fused_x_update_sweeps_match_their_unfused_pairs(
                half in [0usize..7, 0usize..7, 0usize..7],
                nb in 1usize..9, on in 0usize..256, identity in 0u8..2, seed in 1u64..1 << 40,
            ) {
                let grid = BlockGrid::new(
                    GlobalGrid::dirichlet(half.map(|h| 2 * h + 1), [0.1; 3], [0.0; 3]),
                    Decomp::single(),
                    0,
                );
                let on = on & ((1 << nb) - 1);
                for spec in ["serial", "threads:1", "threads:2", "threads:3", "simgpu:2"] {
                    let dev = AnyDevice::from_spec(spec, Recorder::disabled()).unwrap();
                    x_sweeps(&dev, &grid, nb, on, identity == 1, seed);
                }
            }
        }
    }
}

//! Canonical row-fold order for fused dot-producing kernels.
//!
//! A fused `apply + dot` sweep folds each row's dot terms in one fixed,
//! *canonical* grouping: rows away from every subdomain face fold as
//! `(Σ middle) + edge_first + edge_last`, all others plain left to
//! right. The grouping is what a deep-interior launch followed by an
//! x-low and an x-high launch would deposit into a shared per-row slot.
//! No sweep has that shape any more — the fused sweeps run over the
//! whole interior after their exchange — so the grouping stays only
//! because every recorded digest depends on it. [`fold_row_edge_last`]
//! is the fold and [`row_has_deep_middle`] the predicate deciding which
//! rows have a middle; both depend on the interior extent only, so every
//! rank folds a given row the same way in every schedule, and the
//! separate dots of the reference schedule fold in the same order.
//!
//! Both orders start their accumulator at `+0.0`; an IEEE-754 sum seeded
//! from `+0.0` never produces `-0.0` unless a term is `-0.0` *and* the
//! partial sum is exactly zero, in which case every grouping agrees, so
//! regrouping is sign-safe as well as value-safe.

use crate::scalar::{add_partials, Scalar};

/// `true` when interior row `(j, k)` of an `nx × ny × nz` interior folds
/// edge-last: every dimension is at least 3 and the row touches no y or
/// z face (`1..=ny-2` × `1..=nz-2`). All other rows fold in plain order.
#[inline(always)]
pub fn row_has_deep_middle(nx: usize, ny: usize, nz: usize, j: usize, k: usize) -> bool {
    nx >= 3 && ny >= 3 && nz >= 3 && j >= 1 && j + 1 < ny && k >= 1 && k + 1 < nz
}

/// Fold `term(0..len)` in the canonical order.
///
/// With `has_middle` (and `len >= 3`) the grouping is
/// `((term(1) + ... + term(len-2)) + term(0)) + term(len-1)`; otherwise
/// the row folds plain left-to-right.
#[inline(always)]
pub fn fold_row_edge_last<T: Scalar>(len: usize, has_middle: bool, term: impl Fn(usize) -> T) -> T {
    let [sum] = fold_row_edge_last_n(len, has_middle, |i| [term(i)]);
    sum
}

/// [`fold_row_edge_last`] for `NR` dots at once: `term(i)` yields the
/// `NR` terms of element `i`, and each component folds in the canonical
/// order independently.
#[inline(always)]
pub fn fold_row_edge_last_n<T: Scalar, const NR: usize>(
    len: usize,
    has_middle: bool,
    term: impl Fn(usize) -> [T; NR],
) -> [T; NR] {
    let mut acc = [T::ZERO; NR];
    if has_middle && len >= 3 {
        for i in 1..len - 1 {
            acc = add_partials(acc, term(i));
        }
        add_partials(add_partials(acc, term(0)), term(len - 1))
    } else {
        for i in 0..len {
            acc = add_partials(acc, term(i));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_middle_predicate() {
        // Any dim < 3: no middles at all.
        assert!(!row_has_deep_middle(2, 5, 5, 2, 2));
        assert!(!row_has_deep_middle(5, 2, 5, 0, 2));
        assert!(!row_has_deep_middle(5, 5, 1, 2, 0));
        // 3x3x3: exactly the single centre row has a middle.
        assert!(row_has_deep_middle(3, 3, 3, 1, 1));
        assert!(!row_has_deep_middle(3, 3, 3, 0, 1));
        assert!(!row_has_deep_middle(3, 3, 3, 2, 1));
        assert!(!row_has_deep_middle(3, 3, 3, 1, 0));
        assert!(!row_has_deep_middle(3, 3, 3, 1, 2));
        // 5x4x6: rows j in 1..=2, k in 1..=4.
        assert!(row_has_deep_middle(5, 4, 6, 1, 4));
        assert!(!row_has_deep_middle(5, 4, 6, 3, 4));
        assert!(!row_has_deep_middle(5, 4, 6, 1, 5));
    }

    #[test]
    fn edge_last_grouping_is_exact_on_integers() {
        let data = [3.0f64, 1.0, 4.0, 1.0, 5.0];
        let plain = fold_row_edge_last(5, false, |i| data[i]);
        let split = fold_row_edge_last(5, true, |i| data[i]);
        assert_eq!(plain, 14.0);
        assert_eq!(split, 14.0);
    }

    #[test]
    fn edge_last_matches_piece_composition_bitwise() {
        // The fold must equal: plain fold of 1..len-1, then + edge(0),
        // then + edge(len-1) — in that exact order.
        let data: Vec<f64> = (0..7).map(|i| ((i as f64) * 0.7391).sin() / 3.0).collect();
        let len = data.len();
        let mut mid = 0.0f64;
        for &v in &data[1..len - 1] {
            mid += v;
        }
        let composed = (mid + data[0]) + data[len - 1];
        let folded = fold_row_edge_last(len, true, |i| data[i]);
        assert_eq!(folded.to_bits(), composed.to_bits());
    }

    #[test]
    fn short_rows_fold_plain() {
        let data = [1.5f64, 2.5];
        let a = fold_row_edge_last(2, true, |i| data[i]);
        let b = fold_row_edge_last(2, false, |i| data[i]);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

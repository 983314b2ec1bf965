//! Global grid, process decomposition, and per-rank subdomain view.

use accel::{chunk_range, Extent3, RowMap};

use crate::bc::{BcKind, LocalBoundary};

/// The global grid of *unknowns* with spacing and boundary conditions.
///
/// `n[a]` counts the unknowns along axis `a`: Dirichlet boundary nodes are
/// excluded (their values are folded into the right-hand side, Eq. 4),
/// Neumann boundary nodes are included (Eq. 5). `coord` maps an unknown
/// index to its physical coordinate; `origin` is the coordinate of unknown
/// `(0, 0, 0)`.
#[derive(Clone, Debug, PartialEq)]
pub struct GlobalGrid {
    /// Unknowns per axis.
    pub n: [usize; 3],
    /// Grid spacing per axis.
    pub h: [f64; 3],
    /// Physical coordinate of the first unknown along each axis.
    pub origin: [f64; 3],
    /// Boundary condition per `[axis][side]` with side 0 = low, 1 = high.
    pub bc: [[BcKind; 2]; 3],
}

impl GlobalGrid {
    /// Uniform grid with Dirichlet conditions on all faces.
    pub fn dirichlet(n: [usize; 3], h: [f64; 3], origin: [f64; 3]) -> Self {
        Self {
            n,
            h,
            origin,
            bc: [[BcKind::Dirichlet; 2]; 3],
        }
    }

    /// Total number of unknowns.
    pub fn unknowns(&self) -> usize {
        self.n[0] * self.n[1] * self.n[2]
    }

    /// Physical coordinate of unknown `i` along `axis`.
    pub fn coord(&self, axis: usize, i: usize) -> f64 {
        self.origin[axis] + self.h[axis] * i as f64
    }
}

/// The process grid: `ns[a]` subdomains along axis `a`.
///
/// Ranks are laid out x-fastest: `rank = cx + ns_x * (cy + ns_y * cz)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decomp {
    /// Subdomain counts per axis.
    pub ns: [usize; 3],
}

impl Decomp {
    /// Create a decomposition; every axis must have at least one block.
    pub fn new(ns: [usize; 3]) -> Self {
        assert!(
            ns.iter().all(|&s| s >= 1),
            "decomposition needs >= 1 block per axis"
        );
        Self { ns }
    }

    /// Single-subdomain decomposition.
    pub fn single() -> Self {
        Self::new([1, 1, 1])
    }

    /// Total number of ranks.
    pub fn ranks(&self) -> usize {
        self.ns[0] * self.ns[1] * self.ns[2]
    }

    /// Cartesian coordinates of `rank` in the process grid.
    pub fn coords(&self, rank: usize) -> [usize; 3] {
        assert!(rank < self.ranks(), "rank {rank} outside decomposition");
        [
            rank % self.ns[0],
            (rank / self.ns[0]) % self.ns[1],
            rank / (self.ns[0] * self.ns[1]),
        ]
    }

    /// Rank at the given process-grid coordinates.
    pub fn rank_of(&self, c: [usize; 3]) -> usize {
        debug_assert!(c[0] < self.ns[0] && c[1] < self.ns[1] && c[2] < self.ns[2]);
        c[0] + self.ns[0] * (c[1] + self.ns[1] * c[2])
    }

    /// Neighbour rank of `coords` along `axis` on `side` (0 = low, 1 = high),
    /// or `None` at the edge of the process grid (non-periodic).
    pub fn neighbor(&self, coords: [usize; 3], axis: usize, side: usize) -> Option<usize> {
        let mut c = coords;
        if side == 0 {
            if c[axis] == 0 {
                return None;
            }
            c[axis] -= 1;
        } else {
            if c[axis] + 1 == self.ns[axis] {
                return None;
            }
            c[axis] += 1;
        }
        Some(self.rank_of(c))
    }
}

/// One rank's view of the decomposed grid — the paper's `blockGrid`.
#[derive(Clone, Debug)]
pub struct BlockGrid {
    /// The global problem.
    pub global: GlobalGrid,
    /// The process grid.
    pub decomp: Decomp,
    /// This rank.
    pub rank: usize,
    /// This rank's coordinates in the process grid.
    pub coords: [usize; 3],
    /// Local unknowns per axis (without halo).
    pub local_n: [usize; 3],
    /// Global index of the first local unknown along each axis.
    pub offset: [usize; 3],
}

impl BlockGrid {
    /// Build the subdomain view for `rank`.
    ///
    /// Unknowns along each axis are split into `ns` nearly-equal
    /// contiguous blocks (equal when divisible — the paper's setting).
    pub fn new(global: GlobalGrid, decomp: Decomp, rank: usize) -> Self {
        let coords = decomp.coords(rank);
        let mut local_n = [0; 3];
        let mut offset = [0; 3];
        for a in 0..3 {
            let r = chunk_range(global.n[a], decomp.ns[a], coords[a]);
            assert!(
                !r.is_empty(),
                "axis {a}: more subdomains ({}) than unknowns ({})",
                decomp.ns[a],
                global.n[a]
            );
            offset[a] = r.start;
            local_n[a] = r.len();
        }
        Self {
            global,
            decomp,
            rank,
            coords,
            local_n,
            offset,
        }
    }

    /// Local interior extent.
    pub fn interior(&self) -> Extent3 {
        Extent3::new(self.local_n[0], self.local_n[1], self.local_n[2])
    }

    /// Padded (halo-included) dims: `local_n + 2` per axis.
    pub fn padded(&self) -> [usize; 3] {
        [
            self.local_n[0] + 2,
            self.local_n[1] + 2,
            self.local_n[2] + 2,
        ]
    }

    /// Total padded elements.
    pub fn padded_len(&self) -> usize {
        let p = self.padded();
        p[0] * p[1] * p[2]
    }

    /// Row map over the interior of a padded local field.
    pub fn interior_map(&self) -> RowMap {
        RowMap::halo_interior(self.interior())
    }

    /// Linear index into a padded field; `i, j, k` are padded coordinates
    /// (interior spans `1..=local_n`, halos at `0` and `local_n + 1`).
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        let p = self.padded();
        debug_assert!(i < p[0] && j < p[1] && k < p[2]);
        i + p[0] * (j + p[1] * k)
    }

    /// What the subdomain face on `axis`/`side` borders on.
    pub fn boundary(&self, axis: usize, side: usize) -> LocalBoundary {
        match self.decomp.neighbor(self.coords, axis, side) {
            Some(neighbor) => LocalBoundary::Interface { neighbor },
            None => LocalBoundary::Physical(self.global.bc[axis][side]),
        }
    }

    /// The interface faces of this subdomain as a bit set: bit
    /// `axis * 2 + side` is set when that face borders a neighbour rank.
    /// These are the faces a halo exchange has in flight (the layout of
    /// the `in_flight` argument of `accel::RowMap::halo_window`).
    pub fn interface_mask(&self) -> u8 {
        let mut faces = 0u8;
        for axis in 0..3 {
            for side in 0..2 {
                if self.boundary(axis, side).is_interface() {
                    faces |= 1 << (axis * 2 + side);
                }
            }
        }
        faces
    }

    /// Physical coordinate of local unknown `i` (interior index `0..local_n`)
    /// along `axis`.
    pub fn local_coord(&self, axis: usize, i: usize) -> f64 {
        self.global.coord(axis, self.offset[axis] + i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_8() -> GlobalGrid {
        GlobalGrid::dirichlet([8, 8, 8], [0.1; 3], [0.0; 3])
    }

    #[test]
    fn decomp_rank_coord_roundtrip() {
        let d = Decomp::new([2, 3, 4]);
        assert_eq!(d.ranks(), 24);
        for rank in 0..24 {
            assert_eq!(d.rank_of(d.coords(rank)), rank);
        }
    }

    #[test]
    fn decomp_neighbors() {
        let d = Decomp::new([2, 2, 1]);
        // rank 0 at (0,0,0)
        assert_eq!(d.neighbor([0, 0, 0], 0, 0), None);
        assert_eq!(d.neighbor([0, 0, 0], 0, 1), Some(1));
        assert_eq!(d.neighbor([0, 0, 0], 1, 1), Some(2));
        assert_eq!(d.neighbor([1, 1, 0], 0, 0), Some(2));
        assert_eq!(d.neighbor([1, 1, 0], 2, 1), None);
    }

    #[test]
    fn blockgrid_even_split() {
        let g = grid_8();
        let bg = BlockGrid::new(g, Decomp::new([2, 2, 2]), 7);
        assert_eq!(bg.coords, [1, 1, 1]);
        assert_eq!(bg.local_n, [4, 4, 4]);
        assert_eq!(bg.offset, [4, 4, 4]);
        assert_eq!(bg.padded(), [6, 6, 6]);
        assert_eq!(bg.padded_len(), 216);
    }

    #[test]
    fn blockgrid_uneven_split_tiles_domain() {
        let g = GlobalGrid::dirichlet([10, 7, 5], [0.1; 3], [0.0; 3]);
        let d = Decomp::new([3, 2, 1]);
        let mut counts = [0usize; 3];
        for rank in 0..d.ranks() {
            let bg = BlockGrid::new(g.clone(), d, rank);
            if bg.coords[1] == 0 && bg.coords[2] == 0 {
                counts[0] += bg.local_n[0];
            }
        }
        assert_eq!(counts[0], 10);
    }

    #[test]
    fn boundary_classification() {
        let mut g = grid_8();
        g.bc[0] = [BcKind::Dirichlet, BcKind::Neumann];
        let d = Decomp::new([2, 1, 1]);
        let left = BlockGrid::new(g.clone(), d, 0);
        let right = BlockGrid::new(g, d, 1);
        assert_eq!(
            left.boundary(0, 0),
            LocalBoundary::Physical(BcKind::Dirichlet)
        );
        assert_eq!(
            left.boundary(0, 1),
            LocalBoundary::Interface { neighbor: 1 }
        );
        assert_eq!(
            right.boundary(0, 0),
            LocalBoundary::Interface { neighbor: 0 }
        );
        assert_eq!(
            right.boundary(0, 1),
            LocalBoundary::Physical(BcKind::Neumann)
        );
        assert!(!left.boundary(1, 0).is_interface());
    }

    #[test]
    fn coordinates_account_for_offset() {
        let g = GlobalGrid::dirichlet([8, 8, 8], [0.5; 3], [1.0; 3]);
        let bg = BlockGrid::new(g, Decomp::new([2, 1, 1]), 1);
        assert_eq!(bg.local_coord(0, 0), 1.0 + 0.5 * 4.0);
    }

    #[test]
    #[should_panic(expected = "more subdomains")]
    fn too_many_subdomains_panics() {
        let g = GlobalGrid::dirichlet([2, 2, 2], [0.1; 3], [0.0; 3]);
        let _ = BlockGrid::new(g, Decomp::new([4, 1, 1]), 3);
    }

    #[test]
    fn idx_is_x_fastest() {
        let bg = BlockGrid::new(grid_8(), Decomp::single(), 0);
        assert_eq!(bg.idx(0, 0, 0), 0);
        assert_eq!(bg.idx(1, 0, 0), 1);
        assert_eq!(bg.idx(0, 1, 0), 10);
        assert_eq!(bg.idx(0, 0, 1), 100);
    }
}

//! Halo-padded device fields.

use accel::{Device, DeviceBuffer, Scalar};

use crate::grid::BlockGrid;

/// A device-resident scalar field on one subdomain, padded with one halo
/// layer per side.
///
/// The interior spans padded coordinates `1..=local_n` per axis; index `0`
/// and `local_n + 1` are ghost layers filled by the halo exchange (at
/// interfaces) or by the boundary-condition kernel (at physical faces).
/// All solver vectors (`x`, `r`, `p`, `p̂`, `t`, …) are `Field`s.
#[derive(Clone, Debug)]
pub struct Field<T> {
    buf: DeviceBuffer<T>,
    padded: [usize; 3],
}

impl<T: Scalar> Field<T> {
    /// Zero-filled field (interior and halo).
    pub fn zeros<D: Device>(dev: &D, grid: &BlockGrid) -> Self {
        Self {
            buf: DeviceBuffer::zeros(dev, grid.padded_len()),
            padded: grid.padded(),
        }
    }

    /// Field with the given interior values (x-fastest order over
    /// `local_n`) and zeroed halos; records one H2D upload.
    pub fn from_interior<D: Device>(dev: &D, grid: &BlockGrid, interior: &[T]) -> Self {
        Self {
            buf: DeviceBuffer::from_host(dev, &padded_host(grid, interior)),
            padded: grid.padded(),
        }
    }

    /// Overwrite the field in place with the given interior values and
    /// zeroed halos — [`Field::from_interior`] into an existing
    /// allocation; records one H2D upload.
    pub fn upload_interior(&mut self, grid: &BlockGrid, interior: &[T]) {
        assert_eq!(self.padded, grid.padded(), "field shape mismatch");
        self.buf.upload(&padded_host(grid, interior));
    }

    /// Padded dims of the field.
    pub fn padded(&self) -> [usize; 3] {
        self.padded
    }

    /// Linear index of padded coordinates `(i, j, k)`.
    #[inline(always)]
    pub fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.padded[0] && j < self.padded[1] && k < self.padded[2]);
        i + self.padded[0] * (j + self.padded[1] * k)
    }

    /// Device-side read view of the padded data.
    #[inline(always)]
    pub fn as_slice(&self) -> &[T] {
        self.buf.as_slice()
    }

    /// Device-side write view of the padded data.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        self.buf.as_mut_slice()
    }

    /// Download the interior values to the host in x-fastest order
    /// (records one D2H transfer — the paper's single end-of-solve copy).
    pub fn interior_to_host(&self, grid: &BlockGrid) -> Vec<T> {
        let n = grid.local_n;
        let host = self.buf.copy_to_host();
        let mut out = Vec::with_capacity(n[0] * n[1] * n[2]);
        for k in 0..n[2] {
            for j in 0..n[1] {
                let src = self.idx(1, j + 1, k + 1);
                out.extend_from_slice(&host[src..src + n[0]]);
            }
        }
        out
    }

    /// Device-to-device copy of the full padded array from `src`.
    pub fn copy_from(&mut self, src: &Self) {
        assert_eq!(self.padded, src.padded, "field shape mismatch");
        self.buf.copy_from_device(&src.buf);
    }

    /// Zero the full padded array (device-side).
    pub fn fill_zero(&mut self) {
        self.buf.as_mut_slice().fill(T::ZERO);
    }
}

/// The padded host image of a field with the given interior values (x-fastest
/// order over `local_n`) and zeroed halos.
fn padded_host<T: Scalar>(grid: &BlockGrid, interior: &[T]) -> Vec<T> {
    let n = grid.local_n;
    assert_eq!(interior.len(), n[0] * n[1] * n[2], "interior size mismatch");
    let mut host = vec![T::ZERO; grid.padded_len()];
    let mut src = 0;
    for k in 0..n[2] {
        for j in 0..n[1] {
            let dst = grid.idx(1, j + 1, k + 1);
            host[dst..dst + n[0]].copy_from_slice(&interior[src..src + n[0]]);
            src += n[0];
        }
    }
    host
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::{Decomp, GlobalGrid};
    use accel::{Recorder, Serial};

    fn bg(n: usize) -> BlockGrid {
        BlockGrid::new(
            GlobalGrid::dirichlet([n, n, n], [0.1; 3], [0.0; 3]),
            Decomp::single(),
            0,
        )
    }

    #[test]
    fn interior_roundtrip() {
        let dev = Serial::new(Recorder::disabled());
        let grid = bg(3);
        let interior: Vec<f64> = (0..27).map(|i| i as f64).collect();
        let f = Field::from_interior(&dev, &grid, &interior);
        assert_eq!(f.interior_to_host(&grid), interior);
    }

    #[test]
    fn from_interior_zeroes_halo() {
        let dev = Serial::new(Recorder::disabled());
        let grid = bg(2);
        let f = Field::from_interior(&dev, &grid, &[1.0f64; 8]);
        let s = f.as_slice();
        // corner ghost must be zero, interior 1
        assert_eq!(s[f.idx(0, 0, 0)], 0.0);
        assert_eq!(s[f.idx(1, 1, 1)], 1.0);
        assert_eq!(s[f.idx(2, 2, 2)], 1.0);
        assert_eq!(s[f.idx(3, 3, 3)], 0.0);
    }

    #[test]
    fn copy_from_copies_the_field() {
        let dev = Serial::new(Recorder::disabled());
        let grid = bg(2);
        let a = Field::from_interior(&dev, &grid, &[2.0f64; 8]);
        let mut b = Field::from_interior(&dev, &grid, &[1.0f64; 8]);
        b.copy_from(&a);
        assert_eq!(b.interior_to_host(&grid), vec![2.0; 8]);
    }

    #[test]
    fn upload_interior_rewrites_in_place_like_from_interior() {
        let rec = Recorder::enabled();
        let dev = Serial::new(rec.clone());
        let grid = bg(2);
        let fresh = Field::from_interior(&dev, &grid, &[3.0f64; 8]);
        let mut reused = Field::from_interior(&dev, &grid, &[1.0f64; 8]);
        reused.as_mut_slice().fill(7.0); // ghosts dirty too
        let data = reused.as_slice().as_ptr();
        rec.drain();
        reused.upload_interior(&grid, &[3.0; 8]);
        assert_eq!(reused.as_slice(), fresh.as_slice());
        assert_eq!(reused.as_slice().as_ptr(), data, "no new allocation");
        let bytes = (grid.padded_len() * 8) as u64;
        assert_eq!(rec.drain(), vec![accel::Event::H2D { bytes }]);
    }

    #[test]
    #[should_panic(expected = "interior size mismatch")]
    fn wrong_interior_size_panics() {
        let dev = Serial::new(Recorder::disabled());
        let grid = bg(2);
        let _ = Field::from_interior(&dev, &grid, &[0.0f64; 7]);
    }
}

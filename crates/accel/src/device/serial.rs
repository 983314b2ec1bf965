//! Single-threaded reference back-end.

use crate::events::{KernelInfo, Recorder};
use crate::index::RowMap;
use crate::scalar::{add_partials, Scalar};

use super::{Device, DeviceKind};

/// Serial CPU device: rows execute in linear order and reduction partials
/// fold in that same order, making every launch bitwise-deterministic.
/// This is the reference semantics all other back-ends are tested against.
#[derive(Clone)]
pub struct Serial {
    recorder: Recorder,
}

impl Serial {
    /// Create a serial device reporting to `recorder`.
    pub fn new(recorder: Recorder) -> Self {
        Self { recorder }
    }
}

impl Device for Serial {
    fn name(&self) -> String {
        "cpu-serial".to_owned()
    }

    fn kind(&self) -> DeviceKind {
        DeviceKind::CpuSerial
    }

    fn recorder(&self) -> &Recorder {
        &self.recorder
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
        map.validate(out.len());
        self.recorder.kernel(info, map.elems());
        let mut acc = [T::ZERO; NR];
        for k in 0..map.nz {
            for j in 0..map.ny {
                let off = map.row_offset(j, k);
                let row = &mut out[off..off + map.len];
                acc = add_partials(acc, f(j, k, row));
            }
        }
        acc
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
        map_a.validate(out_a.len());
        map_b.validate(out_b.len());
        assert_eq!(
            (map_a.ny, map_a.nz),
            (map_b.ny, map_b.nz),
            "two-map launch requires matching row sets"
        );
        self.recorder.kernel(info, map_a.elems());
        let mut acc = [T::ZERO; NR];
        for k in 0..map_a.nz {
            for j in 0..map_a.ny {
                let off_a = map_a.row_offset(j, k);
                let off_b = map_b.row_offset(j, k);
                let row_a = &mut out_a[off_a..off_a + map_a.len];
                let row_b = &mut out_b[off_b..off_b + map_b.len];
                acc = add_partials(acc, f(j, k, row_a, row_b));
            }
        }
        acc
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
        self.recorder.kernel(info, ny * nz);
        let mut acc = [T::ZERO; NR];
        for k in 0..nz {
            for j in 0..ny {
                acc = add_partials(acc, f(j, k));
            }
        }
        acc
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
        super::validate_lanes(&map, lanes, accs.len());
        if lanes.is_empty() {
            return;
        }
        // One launch for the whole lane sweep; each lane still folds its
        // own rows in (k, j) order into a local accumulator, so per-lane
        // results stay bitwise equal to a solo launch_rows_reduce over
        // that lane's field — and a one-lane sweep costs what that does.
        self.recorder.kernel(info, map.elems() * lanes.len());
        for (s, (lane, out)) in lanes.iter_mut().zip(accs.iter_mut()).enumerate() {
            let mut acc = [T::ZERO; NR];
            for k in 0..map.nz {
                for j in 0..map.ny {
                    let off = map.row_offset(j, k);
                    let row = &mut lane[off..off + map.len];
                    acc = add_partials(acc, f(s, j, k, row));
                }
            }
            *out = acc;
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
        super::validate_lanes(&map_a, lanes_a, accs.len());
        super::validate_lanes(&map_b, lanes_b, accs.len());
        assert_eq!(lanes_a.len(), lanes_b.len(), "lane count mismatch");
        assert_eq!(
            (map_a.ny, map_a.nz),
            (map_b.ny, map_b.nz),
            "two-map launch requires matching row sets"
        );
        if lanes_a.is_empty() {
            return;
        }
        self.recorder.kernel(info, map_a.elems() * lanes_a.len());
        let lanes = lanes_a.iter_mut().zip(lanes_b.iter_mut());
        for (s, ((lane_a, lane_b), out)) in lanes.zip(accs.iter_mut()).enumerate() {
            let mut acc = [T::ZERO; NR];
            for k in 0..map_a.nz {
                for j in 0..map_a.ny {
                    let off_a = map_a.row_offset(j, k);
                    let off_b = map_b.row_offset(j, k);
                    let row_a = &mut lane_a[off_a..off_a + map_a.len];
                    let row_b = &mut lane_b[off_b..off_b + map_b.len];
                    acc = add_partials(acc, f(s, j, k, row_a, row_b));
                }
            }
            *out = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::Extent3;

    const INFO: KernelInfo = KernelInfo::new("test", 8, 1);

    #[test]
    fn writes_only_interior() {
        let e = Extent3::new(2, 2, 2);
        let map = RowMap::halo_interior(e);
        let padded = 4 * 4 * 4;
        let mut out = vec![0.0f64; padded];
        let dev = Serial::new(Recorder::disabled());
        dev.launch_rows(INFO, map, &mut out, |_, _, row| {
            for v in row.iter_mut() {
                *v = 1.0;
            }
        });
        let written = out.iter().filter(|&&v| v == 1.0).count();
        assert_eq!(written, e.len());
        // halo corners untouched
        assert_eq!(out[0], 0.0);
        assert_eq!(out[padded - 1], 0.0);
    }

    #[test]
    fn fused_reduction_matches_manual_sum() {
        let map = RowMap::contiguous(100);
        let mut out = vec![0.0f64; 100];
        let input: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let dev = Serial::new(Recorder::disabled());
        let [dot] = dev.launch_rows_reduce(INFO, map, &mut out, |_, _, row| {
            let mut s = 0.0;
            for (o, &x) in row.iter_mut().zip(&input) {
                *o = 2.0 * x;
                s += x * x;
            }
            [s]
        });
        let expect: f64 = input.iter().map(|x| x * x).sum();
        assert_eq!(dot, expect);
        assert_eq!(out[3], 6.0);
    }

    #[test]
    fn pure_reduce_over_rows() {
        let dev = Serial::new(Recorder::disabled());
        let [s] = dev.launch_reduce(INFO, 4, 5, |j, k| [(j + k) as f64]);
        let expect: f64 = (0..5)
            .flat_map(|k| (0..4).map(move |j| (j + k) as f64))
            .sum();
        assert_eq!(s, expect);
    }

    #[test]
    fn records_launch_event() {
        let rec = Recorder::enabled();
        let dev = Serial::new(rec.clone());
        let mut out = vec![0.0f64; 10];
        dev.launch_rows(INFO, RowMap::contiguous(10), &mut out, |_, _, _| {});
        assert_eq!(rec.len(), 1);
    }
}

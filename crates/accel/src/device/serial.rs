//! Single-threaded reference back-end.

use crate::events::{KernelInfo, Recorder};
use crate::index::{RowMap, Run};
use crate::scalar::{add_partials, Scalar};

use super::{Device, DeviceKind};

/// Serial CPU device: each plane is one run, rows execute in linear order
/// and reduction partials fold in that same order, making every launch
/// bitwise-deterministic.
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

    fn launch_runs<T: Scalar, F, const NR: usize, const N: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &mut [&mut [T]],
        mut outs: [(RowMap, &mut [&mut [T]]); N],
        accs: &mut [[T; NR]],
        f: F,
    ) where
        F: Fn(usize, Run<'_, T, N>, &mut [T; NR]) + Sync,
    {
        super::validate_runs(&map, lanes, &outs, accs.len());
        if lanes.is_empty() {
            return;
        }
        // One launch for the whole lane sweep; each lane folds its planes
        // in order into its own accumulator, so per-lane results stay
        // bitwise equal to a one-lane launch over that lane's field — and
        // a one-lane sweep costs what that does.
        self.recorder.kernel(info, map.elems() * lanes.len());
        for (s, (lane, acc)) in lanes.iter_mut().zip(accs.iter_mut()).enumerate() {
            *acc = [T::ZERO; NR];
            for (k, js) in map.runs(0..map.rows()) {
                let b = outs.each_mut().map(|(m, l)| (&*m, &mut *l[s]));
                f(s, Run::new(k, js, (&map, &mut **lane), b), acc);
            }
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
        self.recorder.kernel(info, ny * nz);
        let mut sum = [T::ZERO; NR];
        for k in 0..nz {
            for j in 0..ny {
                sum = add_partials(sum, f(j, k));
            }
        }
        sum
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

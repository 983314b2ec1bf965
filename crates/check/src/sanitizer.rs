//! `Checked<D>` — the kernel sanitizer device wrapper.

use std::mem::size_of;
use std::sync::{Arc, Mutex};

use accel::{
    Device, DeviceKind, ExchangeHazard, KernelInfo, Recorder, RowMap, Run, Scalar, Serial,
};

use crate::report::{Policy, Report, Violation};

/// One opt-in "fresh buffer" whose reads are tracked until every element
/// has been written at least once.
struct FreshRegion {
    base: usize,
    elem_bytes: usize,
    /// `false` while the element has never been the target of a launch.
    initialized: Vec<bool>,
}

struct State {
    policy: Policy,
    report: Report,
    hazards: Mutex<Vec<ExchangeHazard>>,
    fresh: Mutex<Vec<FreshRegion>>,
}

/// A sanitizing [`Device`] wrapper: transparently delegates every launch
/// to the inner back-end while shadow-tracking what the launch was
/// *allowed* to do versus what it *did*.
///
/// Checks performed per launch:
///
/// * **Map audit** — the `RowMap` is walked exhaustively: every mapped
///   element must be in bounds and covered by exactly one row
///   ([`Violation::MapOutOfBounds`], [`Violation::RowAliasing`]).
/// * **Write-set audit** — the output slice is snapshotted before the
///   launch and diffed after it: any element that changed but is not
///   mapped was written through an escape hatch (a raw pointer, an
///   aliased capture) and is flagged ([`Violation::OutOfMapWrite`]).
/// * **Exchange hazard** — while a split-phase halo exchange is in
///   flight (between [`Device::on_exchange_begin`] and
///   [`Device::on_exchange_finish`], wired up by
///   `blockgrid::HaloExchange`), launching a kernel whose map covers an
///   in-flight interface ghost plane races with the unpack and is
///   flagged ([`Violation::InFlightGhostWrite`]).
/// * **Stale ghost read** — a stencil sweep announces the field it
///   reads ([`Device::on_stencil_read`]); inside an exchange window it
///   may read physical ghosts but no cell of a ghost plane the exchange
///   still owns ([`Violation::InFlightGhostRead`]).
/// * **Read-before-init** (opt-in via [`Checked::track_fresh`]) — the
///   kernel is first replayed on two shadow copies of the output whose
///   never-written elements hold different canary values; any divergence
///   in the written elements or the reduction partials proves the result
///   depends on uninitialised data ([`Violation::ReadBeforeInit`]).
///
/// The wrapper is a bitwise-identical passthrough: the real launch runs
/// on the inner device with the caller's closure, so results, reduction
/// order and recorded events are exactly those of the wrapped back-end.
#[derive(Clone)]
pub struct Checked<D: Device> {
    inner: D,
    state: Arc<State>,
}

impl<D: Device> Checked<D> {
    /// Wrap `inner` with the default [`Policy::Panic`].
    pub fn new(inner: D) -> Self {
        Self::with_policy(inner, Policy::Panic)
    }

    /// Wrap `inner` with an explicit violation policy.
    pub fn with_policy(inner: D, policy: Policy) -> Self {
        Self {
            inner,
            state: Arc::new(State {
                policy,
                report: Report::new(),
                hazards: Mutex::new(Vec::new()),
                fresh: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The wrapped back-end.
    pub fn inner(&self) -> &D {
        &self.inner
    }

    /// The shared violation report (only populated under
    /// [`Policy::Record`]).
    pub fn report(&self) -> Report {
        self.state.report.clone()
    }

    /// Register `buf` as freshly allocated: until every element has been
    /// the target of a launch, kernels whose output depends on its
    /// unwritten elements are flagged as reads of uninitialised memory.
    pub fn track_fresh<T: Scalar>(&self, buf: &[T]) {
        self.state
            .fresh
            .lock()
            .expect("fresh lock")
            .push(FreshRegion {
                base: buf.as_ptr() as usize,
                elem_bytes: size_of::<T>(),
                initialized: vec![false; buf.len()],
            });
    }

    /// Panic if any violation was recorded (or a halo exchange is still
    /// open). Call at the end of a [`Policy::Record`] run.
    pub fn assert_clean(&self) {
        let open = self.state.hazards.lock().expect("hazard lock").len();
        assert_eq!(open, 0, "{open} halo exchange(s) begun but never finished");
        let violations = self.state.report.snapshot();
        assert!(
            violations.is_empty(),
            "kernel sanitizer found {} violation(s):\n  {}",
            violations.len(),
            violations
                .iter()
                .map(Violation::to_string)
                .collect::<Vec<_>>()
                .join("\n  ")
        );
    }

    fn flag(&self, v: Violation) {
        match self.state.policy {
            Policy::Panic => panic!("kernel sanitizer: {v}"),
            Policy::Record => self.state.report.push(v),
        }
    }

    /// Walk `map` exhaustively, returning the per-element coverage bitmap.
    /// Flags out-of-bounds or doubly-mapped elements and returns `None`
    /// (the launch must be skipped: the back-end would reject the map).
    fn audit_map(&self, kernel: &'static str, map: &RowMap, out_len: usize) -> Option<Vec<bool>> {
        let mut mapped = vec![false; out_len];
        for r in 0..map.rows() {
            let (j, k) = map.row_jk(r);
            let off = map.row_offset(j, k);
            let end = off + map.len;
            if end > out_len {
                self.flag(Violation::MapOutOfBounds {
                    kernel,
                    cell: off.max(out_len),
                    out_len,
                });
                return None;
            }
            for (cell, slot) in mapped.iter_mut().enumerate().take(end).skip(off) {
                if *slot {
                    self.flag(Violation::RowAliasing { kernel, cell });
                    return None;
                }
                *slot = true;
            }
        }
        Some(mapped)
    }

    /// Flag mapped elements that lie on an in-flight interface ghost
    /// plane of any active exchange hazard.
    fn audit_hazards<T: Scalar>(&self, kernel: &'static str, out: &[T], mapped: &[bool]) {
        let hazards = self.state.hazards.lock().expect("hazard lock");
        if hazards.is_empty() {
            return;
        }
        let out_lo = out.as_ptr() as usize;
        let out_hi = out_lo + size_of_val(out);
        for h in hazards.iter() {
            let h_hi = h.base + h.len() * h.elem_bytes;
            if out_lo >= h_hi || h.base >= out_hi {
                continue;
            }
            for (cell, &m) in mapped.iter().enumerate() {
                if !m {
                    continue;
                }
                let addr = out_lo + cell * size_of::<T>();
                if addr < h.base || addr >= h_hi {
                    continue;
                }
                let lin = (addr - h.base) / h.elem_bytes;
                if let Some((axis, side)) = h.hit(lin) {
                    self.flag(Violation::InFlightGhostWrite {
                        kernel,
                        cell,
                        axis,
                        side,
                    });
                    return;
                }
            }
        }
    }

    /// Cells of `out` that lie in a tracked fresh region and have never
    /// been the target of a launch.
    fn uninit_cells<T: Scalar>(&self, out: &[T]) -> Vec<usize> {
        let fresh = self.state.fresh.lock().expect("fresh lock");
        let out_lo = out.as_ptr() as usize;
        let mut cells = Vec::new();
        for region in fresh.iter() {
            if region.elem_bytes != size_of::<T>() {
                continue;
            }
            let r_hi = region.base + region.initialized.len() * region.elem_bytes;
            for cell in 0..out.len() {
                let addr = out_lo + cell * size_of::<T>();
                if addr < region.base || addr >= r_hi {
                    continue;
                }
                if !region.initialized[(addr - region.base) / region.elem_bytes] {
                    cells.push(cell);
                }
            }
        }
        cells
    }

    /// Replay the launch on two shadow copies of every buffer whose
    /// tracked, never-initialised elements hold different canaries; a
    /// divergence in mapped elements or in any lane's partials proves a
    /// read-before-init. The replay runs on [`Serial`] — the row order
    /// every back-end's runs reproduce per owner — with its recorder off.
    #[allow(clippy::too_many_arguments)]
    fn audit_fresh_reads<T: Scalar, F, const NR: usize, const N: usize>(
        &self,
        info: KernelInfo,
        map: RowMap,
        lanes: &[&mut [T]],
        outs: [(RowMap, &[&mut [T]]); N],
        mapped: &[Vec<bool>],
        f: &F,
    ) where
        F: Fn(usize, Run<'_, T, N>, &mut [T; NR]) + Sync,
    {
        let bufs = buffers(map, lanes, outs).map(|(_, b)| b);
        let uninit: Vec<Vec<usize>> = bufs.clone().map(|b| self.uninit_cells(b)).collect();
        if uninit.iter().all(Vec::is_empty) {
            return;
        }
        // Both canaries are exactly representable in f32 and f64, so the
        // shadow buffers are bit-identical to the real ones everywhere else.
        let shadow = |canary: f64| -> Vec<Vec<T>> {
            bufs.clone()
                .zip(&uninit)
                .map(|(b, cells)| {
                    let mut v = b.to_vec();
                    for &c in cells {
                        v[c] = T::from_f64(canary);
                    }
                    v
                })
                .collect()
        };
        let replay = Serial::new(Recorder::disabled());
        let nl = lanes.len();
        let run = |mut bufs: Vec<Vec<T>>| {
            let mut accs = vec![[T::ZERO; NR]; nl];
            let mut groups = bufs
                .chunks_mut(nl)
                .map(|g| g.iter_mut().map(Vec::as_mut_slice));
            let mut a: Vec<&mut [T]> = groups.next().into_iter().flatten().collect();
            let mut b: [Vec<&mut [T]>; N] =
                std::array::from_fn(|_| groups.next().into_iter().flatten().collect());
            let mut maps = outs.iter().map(|(m, _)| *m);
            let outs = b
                .each_mut()
                .map(|l| (maps.next().expect("a map per output"), &mut l[..]));
            replay.launch_runs(info, map, &mut a, outs, &mut accs, f);
            (bufs, accs)
        };
        let (bufs_a, accs_a) = run(shadow(1.0e30));
        let (bufs_b, accs_b) = run(shadow(-3.0e30));
        for ((mapped, a), b) in mapped.iter().zip(&bufs_a).zip(&bufs_b) {
            for (cell, &m) in mapped.iter().enumerate() {
                if m && bits(a[cell]) != bits(b[cell]) {
                    self.flag(Violation::ReadBeforeInit {
                        kernel: info.name,
                        cell,
                    });
                    return;
                }
            }
        }
        let partials = accs_a.iter().flatten().zip(accs_b.iter().flatten());
        if partials.into_iter().any(|(a, b)| bits(*a) != bits(*b)) {
            self.flag(Violation::ReadBeforeInit {
                kernel: info.name,
                cell: 0,
            });
        }
    }

    /// Mark every mapped element of `out` initialised in the tracked
    /// fresh regions.
    fn mark_initialized<T: Scalar>(&self, out: &[T], mapped: &[bool]) {
        let mut fresh = self.state.fresh.lock().expect("fresh lock");
        if fresh.is_empty() {
            return;
        }
        let out_lo = out.as_ptr() as usize;
        for region in fresh.iter_mut() {
            if region.elem_bytes != size_of::<T>() {
                continue;
            }
            let r_hi = region.base + region.initialized.len() * region.elem_bytes;
            for (cell, &m) in mapped.iter().enumerate() {
                if !m {
                    continue;
                }
                let addr = out_lo + cell * size_of::<T>();
                if addr >= region.base && addr < r_hi {
                    region.initialized[(addr - region.base) / region.elem_bytes] = true;
                }
            }
        }
        fresh.retain(|r| !r.initialized.iter().all(|&i| i));
    }
}

/// Every buffer a run launch writes, with its map: each lane under
/// `map`, then each buffer of each further output under its own.
fn buffers<'b, T, const N: usize>(
    map: RowMap,
    lanes: &'b [&mut [T]],
    outs: [(RowMap, &'b [&mut [T]]); N],
) -> impl Iterator<Item = (RowMap, &'b [T])> + Clone {
    let outs = outs
        .into_iter()
        .flat_map(|(m, l)| l.iter().map(move |b| (m, &**b)));
    lanes.iter().map(move |b| (map, &**b)).chain(outs)
}

/// A read-only view of a launch's further outputs.
fn read_only<'b, T, const N: usize>(
    outs: &'b [(RowMap, &mut [&mut [T]]); N],
) -> [(RowMap, &'b [&'b mut [T]]); N] {
    outs.each_ref().map(|(m, l)| (*m, &**l))
}

#[inline]
fn bits<T: Scalar>(v: T) -> u64 {
    v.to_f64().to_bits()
}

impl<D: Device> Device for Checked<D> {
    fn name(&self) -> String {
        format!("checked({})", self.inner.name())
    }

    fn kind(&self) -> DeviceKind {
        self.inner.kind()
    }

    fn recorder(&self) -> &Recorder {
        self.inner.recorder()
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
        // A launch is audited exactly once, whatever it writes: every
        // lane's map walked, every buffer's write-set diffed, and the
        // fresh-read replay runs the body on shadow copies of all buffers
        // together.
        let mut mapped = Vec::new();
        for (m, buf) in buffers(map, lanes, read_only(&outs)) {
            let Some(cells) = self.audit_map(info.name, &m, buf.len()) else {
                // Invalid map under Policy::Record: the violation is
                // recorded and the launch is skipped (the back-end would
                // panic on it).
                accs.fill([T::ZERO; NR]);
                return;
            };
            self.audit_hazards(info.name, buf, &cells);
            mapped.push(cells);
        }
        self.audit_fresh_reads(info, map, lanes, read_only(&outs), &mapped, &f);
        let before: Vec<Vec<u64>> = buffers(map, lanes, read_only(&outs))
            .map(|(_, b)| b.iter().map(|&v| bits(v)).collect())
            .collect();
        // `&F: Fn + Sync` whenever `F` is, so delegating by reference keeps
        // the real launch bitwise identical to the unwrapped back-end.
        let outs_rw = outs.each_mut().map(|(m, l)| (*m, &mut **l));
        self.inner.launch_runs(info, map, lanes, outs_rw, accs, &f);
        let after = buffers(map, lanes, read_only(&outs))
            .zip(&mapped)
            .zip(&before);
        for (((_, buf), cells), before) in after {
            let escaped = before
                .iter()
                .zip(buf.iter())
                .enumerate()
                .find(|(cell, (&b, &a))| b != bits(a) && !cells[*cell]);
            if let Some((cell, _)) = escaped {
                self.flag(Violation::OutOfMapWrite {
                    kernel: info.name,
                    cell,
                });
            }
            self.mark_initialized(buf, cells);
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
        // Pure reductions have no output buffer to audit.
        self.inner.launch_reduce(info, ny, nz, f)
    }

    fn on_exchange_begin(&self, hazard: ExchangeHazard) {
        {
            let mut hazards = self.state.hazards.lock().expect("hazard lock");
            if hazards.iter().any(|h| h.base == hazard.base) {
                self.flag(Violation::UnbalancedExchange {
                    detail: format!(
                        "begin() for the field at {:#x} while a previous exchange \
                         of the same field is still in flight",
                        hazard.base
                    ),
                });
            }
            hazards.push(hazard);
        }
        self.inner.on_exchange_begin(hazard);
    }

    fn on_exchange_finish(&self, hazard: ExchangeHazard) {
        {
            let mut hazards = self.state.hazards.lock().expect("hazard lock");
            match hazards.iter().position(|h| h.base == hazard.base) {
                Some(i) => {
                    hazards.remove(i);
                }
                None => self.flag(Violation::UnbalancedExchange {
                    detail: format!(
                        "finish() for the field at {:#x} with no exchange in flight",
                        hazard.base
                    ),
                }),
            }
        }
        self.inner.on_exchange_finish(hazard);
    }

    fn on_stencil_read<T: Scalar>(&self, kernel: &'static str, map: RowMap, input: &[T]) {
        let base = input.as_ptr() as usize;
        let hit = {
            let hazards = self.state.hazards.lock().expect("hazard lock");
            hazards
                .iter()
                .filter(|h| h.base == base)
                .find_map(|h| h.stencil_hit(&map))
        };
        if let Some((cell, axis, side)) = hit {
            self.flag(Violation::InFlightGhostRead {
                kernel,
                cell,
                axis,
                side,
            });
        }
        self.inner.on_stencil_read(kernel, map, input);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::Serial;

    fn serial() -> Checked<Serial> {
        Checked::new(Serial::new(Recorder::disabled()))
    }

    #[test]
    fn passthrough_matches_inner_bitwise() {
        let info = KernelInfo::new("KernelAxpy", 16, 2);
        let mut plain = vec![0.5f64; 32];
        let mut wrapped = plain.clone();
        let dev = Serial::new(Recorder::disabled());
        let [a] = dev.launch_rows_reduce(info, RowMap::contiguous(32), &mut plain, |_, _, row| {
            let mut s = 0.0;
            for v in row.iter_mut() {
                *v = *v * 3.0 + 1.0;
                s += *v;
            }
            [s]
        });
        let [b] =
            serial().launch_rows_reduce(info, RowMap::contiguous(32), &mut wrapped, |_, _, row| {
                let mut s = 0.0;
                for v in row.iter_mut() {
                    *v = *v * 3.0 + 1.0;
                    s += *v;
                }
                [s]
            });
        assert_eq!(a.to_bits(), b.to_bits());
        let same = plain
            .iter()
            .zip(&wrapped)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same);
    }

    #[test]
    #[should_panic(expected = "aliasing")]
    fn aliasing_map_is_flagged() {
        let mut out = vec![0.0f64; 100];
        let map = RowMap {
            base: 0,
            len: 5,
            ny: 2,
            nz: 1,
            sy: 3,
            sz: 100,
        };
        serial().launch_rows(
            KernelInfo::new("KernelBad", 8, 0),
            map,
            &mut out,
            |_, _, r| {
                r[0] = 1.0;
            },
        );
    }

    #[test]
    #[should_panic(expected = "maps element 8 but the output slice")]
    fn out_of_bounds_map_is_flagged() {
        let mut out = vec![0.0f64; 8];
        serial().launch_rows(
            KernelInfo::new("KernelBad", 8, 0),
            RowMap::contiguous(9),
            &mut out,
            |_, _, r| r[0] = 1.0,
        );
    }

    #[test]
    fn record_policy_collects_instead_of_panicking() {
        let dev = Checked::with_policy(Serial::new(Recorder::disabled()), Policy::Record);
        let mut out = vec![0.0f64; 8];
        dev.launch_rows(
            KernelInfo::new("KernelBad", 8, 0),
            RowMap::contiguous(9),
            &mut out,
            |_, _, r| r[0] = 1.0,
        );
        let vs = dev.report().take();
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].kernel(), "KernelBad");
    }

    #[test]
    fn fresh_write_only_kernel_is_clean() {
        let dev = serial();
        let mut out = vec![0.0f64; 16];
        dev.track_fresh(&out);
        dev.launch_rows(
            KernelInfo::new("KernelFill", 8, 0),
            RowMap::contiguous(16),
            &mut out,
            |_, _, row| {
                for v in row.iter_mut() {
                    *v = 7.0;
                }
            },
        );
        assert!(out.iter().all(|&v| v == 7.0));
    }

    #[test]
    #[should_panic(expected = "uninitialised")]
    fn fresh_read_modify_write_is_flagged() {
        let dev = serial();
        let mut out = vec![0.0f64; 16];
        dev.track_fresh(&out);
        dev.launch_rows(
            KernelInfo::new("KernelAccumulate", 16, 1),
            RowMap::contiguous(16),
            &mut out,
            |_, _, row| {
                for v in row.iter_mut() {
                    *v += 1.0;
                }
            },
        );
    }

    #[test]
    fn initialised_fresh_buffer_stops_tracking() {
        let dev = serial();
        let mut out = vec![0.0f64; 8];
        dev.track_fresh(&out);
        let fill = |_: usize, _: usize, row: &mut [f64]| {
            for v in row.iter_mut() {
                *v = 1.0;
            }
        };
        dev.launch_rows(
            KernelInfo::new("KernelFill", 8, 0),
            RowMap::contiguous(8),
            &mut out,
            fill,
        );
        // Now fully initialised: accumulating is legal.
        dev.launch_rows(
            KernelInfo::new("KernelAccumulate", 16, 1),
            RowMap::contiguous(8),
            &mut out,
            |_, _, row| {
                for v in row.iter_mut() {
                    *v += 1.0;
                }
            },
        );
        assert!(out.iter().all(|&v| v == 2.0));
    }

    #[test]
    #[should_panic(expected = "no exchange in flight")]
    fn unbalanced_finish_is_flagged() {
        let dev = serial();
        dev.on_exchange_finish(ExchangeHazard {
            base: 0x1000,
            elem_bytes: 8,
            padded: [3, 3, 3],
            faces: 1,
        });
    }

    #[test]
    fn assert_clean_reports_open_exchange() {
        let dev = serial();
        dev.on_exchange_begin(ExchangeHazard {
            base: 0x1000,
            elem_bytes: 8,
            padded: [3, 3, 3],
            faces: 1,
        });
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| dev.assert_clean()))
            .expect_err("must flag the open exchange");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("never finished"), "{msg}");
    }
}

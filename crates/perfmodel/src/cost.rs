//! Event-stream cost replay.

use accel::Event;
use serde::{Deserialize, Serialize};

use crate::machine::MachineModel;

/// Modeled wall time of one rank's event stream, split the way the
/// paper's Figs. 6–7 split their bars.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize, PartialEq)]
pub struct CostBreakdown {
    /// Device kernel time (the paper's "computation").
    pub compute_s: f64,
    /// Halo exchange + reduction time (the paper's "communication").
    pub comm_s: f64,
    /// Host↔device transfer time.
    pub transfer_s: f64,
}

impl CostBreakdown {
    /// Total modeled time.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_s + self.transfer_s
    }

    /// Component-wise sum.
    pub fn add(&mut self, other: &CostBreakdown) {
        self.compute_s += other.compute_s;
        self.comm_s += other.comm_s;
        self.transfer_s += other.transfer_s;
    }

    /// Component-wise scale (e.g. extrapolating one iteration to many).
    pub fn scaled(&self, factor: f64) -> CostBreakdown {
        CostBreakdown {
            compute_s: self.compute_s * factor,
            comm_s: self.comm_s * factor,
            transfer_s: self.transfer_s * factor,
        }
    }
}

/// Cost of a single event (seconds) on `machine` in a `ranks`-rank world.
pub fn event_cost_s(ev: &Event, machine: &MachineModel, ranks: usize) -> f64 {
    match ev {
        Event::Kernel { bytes, flops, .. } => machine.kernel_cost_s(*bytes, *flops),
        Event::Halo { msgs, bytes } => machine.halo_cost_s(*msgs, *bytes, ranks),
        Event::AllReduce { bytes, .. } => machine.allreduce_cost_s(*bytes, ranks),
        Event::H2D { bytes } | Event::D2H { bytes } => machine.transfer_cost_s(*bytes),
        Event::Begin { .. } | Event::End { .. } => 0.0,
    }
}

/// Replay one rank's event stream through a machine model.
///
/// Every event is booked synchronously, in its own bucket: every halo
/// exchange and every reduction the solver posts is blocking, so no
/// communication hides behind a kernel.
pub fn replay(events: &[Event], machine: &MachineModel, ranks: usize) -> CostBreakdown {
    let mut out = CostBreakdown::default();
    for ev in events {
        let c = event_cost_s(ev, machine, ranks);
        match ev {
            Event::Kernel { .. } => out.compute_s += c,
            Event::Halo { .. } | Event::AllReduce { .. } => out.comm_s += c,
            Event::H2D { .. } | Event::D2H { .. } => out.transfer_s += c,
            Event::Begin { .. } | Event::End { .. } => {}
        }
    }
    out
}

/// Scale a measured per-iteration event stream to a different local
/// problem size: volumetric footprints (kernels, transfers) scale by
/// `volume_ratio`, surface footprints (halo bytes) by `face_ratio`.
/// Message and reduction *counts* are preserved — the structure of one
/// iteration does not change with the mesh.
pub fn scale_events(events: &[Event], volume_ratio: f64, face_ratio: f64) -> Vec<Event> {
    let sv = |v: u64| ((v as f64 * volume_ratio).round() as u64).max(1);
    let sf = |v: u64| ((v as f64 * face_ratio).round() as u64).max(1);
    events
        .iter()
        .map(|ev| match ev {
            Event::Kernel {
                name,
                elems,
                bytes,
                flops,
            } => Event::Kernel {
                name,
                elems: sv(*elems),
                bytes: sv(*bytes),
                flops: sv(*flops),
            },
            Event::Halo { msgs, bytes } => Event::Halo {
                msgs: *msgs,
                bytes: sf(*bytes),
            },
            Event::H2D { bytes } => Event::H2D { bytes: sv(*bytes) },
            Event::D2H { bytes } => Event::D2H { bytes: sv(*bytes) },
            other => other.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Begin { name: "iter" },
            Event::Kernel {
                name: "KernelBiCGS1",
                elems: 1000,
                bytes: 24_000,
                flops: 12_000,
            },
            Event::Halo {
                msgs: 6,
                bytes: 4800,
            },
            Event::AllReduce {
                elems: 2,
                bytes: 16,
            },
            Event::D2H { bytes: 8000 },
            Event::End { name: "iter" },
        ]
    }

    #[test]
    fn replay_buckets_costs() {
        let m = MachineModel::mi250x();
        let b = replay(&sample_events(), &m, 64);
        assert!(b.compute_s > 0.0 && b.comm_s > 0.0 && b.transfer_s > 0.0);
        let manual = m.kernel_cost_s(24_000, 12_000)
            + m.halo_cost_s(6, 4800, 64)
            + m.allreduce_cost_s(16, 64)
            + m.transfer_cost_s(8000);
        assert!((b.total_s() - manual).abs() < 1e-15);
    }

    #[test]
    fn fused_kernel_events_model_the_traffic_dedup() {
        // A kernel built with `KernelInfo::fused` streams the two bodies'
        // bytes minus the deduplicated operand traffic; replaying it must
        // therefore model strictly less compute time than the two unfused
        // launches, with the gap explained entirely by the saved bytes.
        use accel::{KernelInfo, Recorder};
        let m = MachineModel::mi250x();
        let a = KernelInfo::new("KernelAxpy", 24, 2); // y = a*x + y
        let b = KernelInfo::new("KernelDot", 16, 2); // s += y*z
        let ab = KernelInfo::fused("KernelAxpyDot", a, b, 16); // y re-streamed once
        assert_eq!(ab.bytes_per_elem, 24);
        assert_eq!(ab.flops_per_elem, 4);

        let elems = 1 << 20;
        let rec = |infos: &[KernelInfo]| {
            let r = Recorder::enabled();
            for info in infos {
                r.kernel(*info, elems);
            }
            r.drain()
        };
        let unfused = replay(&rec(&[a, b]), &m, 1);
        let fused = replay(&rec(&[ab]), &m, 1);
        assert!(
            fused.compute_s < unfused.compute_s,
            "fused {fused:?} vs unfused {unfused:?}"
        );
        // At a memory-bound operational intensity the saving is exactly
        // the deduplicated bytes over the device bandwidth, plus the one
        // launch overhead the fusion removes.
        let saved = unfused.compute_s - fused.compute_s;
        let floor = m.kernel_cost_s(16 * elems as u64, 0) - m.kernel_cost_s(1, 0);
        assert!(
            saved >= floor,
            "saved {saved} should cover the dedup traffic {floor}"
        );
    }

    #[test]
    fn f64_replays_price_identically_to_the_legacy_8_byte_rule() {
        // Regression for the byte-carrying AllReduce event: a double-
        // precision stream (whose recorders set `bytes = elems × 8`)
        // must replay to exactly what the old hard-coded 8-B/scalar
        // formula produced, across rank counts and element counts.
        let m = MachineModel::mi250x();
        for ranks in [1usize, 2, 8, 64, 512] {
            for elems in [1u32, 2, 4, 64] {
                let ev = Event::AllReduce {
                    elems,
                    bytes: u64::from(elems) * 8,
                };
                let legacy = if ranks <= 1 {
                    0.0
                } else {
                    let stages = (ranks as f64).log2().ceil();
                    stages * m.sync_stage_us * 1e-6
                        + stages * (elems as u64 * 8) as f64 / (m.net_bw_gbps * 1e9)
                };
                let now = event_cost_s(&ev, &m, ranks);
                assert!(
                    (now - legacy).abs() < 1e-18,
                    "ranks {ranks} elems {elems}: {now} != legacy {legacy}"
                );
            }
        }
        // And a single-precision reduction of the same element count is
        // strictly cheaper on the wire (same sync floor, half the bytes).
        let wide = event_cost_s(
            &Event::AllReduce {
                elems: 64,
                bytes: 512,
            },
            &m,
            64,
        );
        let narrow = event_cost_s(
            &Event::AllReduce {
                elems: 64,
                bytes: 256,
            },
            &m,
            64,
        );
        assert!(narrow < wide);
    }

    #[test]
    fn markers_cost_nothing() {
        let m = MachineModel::mi250x();
        let only_markers = vec![Event::Begin { name: "a" }, Event::End { name: "a" }];
        assert_eq!(replay(&only_markers, &m, 4).total_s(), 0.0);
    }

    #[test]
    fn scaled_breakdown() {
        let b = CostBreakdown {
            compute_s: 1.0,
            comm_s: 2.0,
            transfer_s: 3.0,
        };
        let s = b.scaled(2.0);
        assert_eq!(s.total_s(), 12.0);
    }

    #[test]
    fn scale_events_volume_vs_face() {
        let scaled = scale_events(&sample_events(), 8.0, 4.0);
        match &scaled[1] {
            Event::Kernel { bytes, .. } => assert_eq!(*bytes, 192_000),
            other => panic!("unexpected {other:?}"),
        }
        match &scaled[2] {
            Event::Halo { msgs, bytes } => {
                assert_eq!(*msgs, 6, "message count unchanged");
                assert_eq!(*bytes, 19_200);
            }
            other => panic!("unexpected {other:?}"),
        }
        // reductions untouched
        assert_eq!(
            scaled[3],
            Event::AllReduce {
                elems: 2,
                bytes: 16
            }
        );
    }
}

//! Performance-event recording.
//!
//! The paper characterises its solver with rocProf/Omnitrace traces (Fig. 8)
//! and per-stage timing breakdowns (Figs. 6-7). Since no GPU hardware is
//! available here, the solver instead emits a stream of *logical* events —
//! kernel launches with their traffic/flop footprints, host↔device
//! transfers, halo messages and reductions — which the `perfmodel` crate
//! replays through calibrated machine models to obtain modeled timelines
//! and times-to-solution.
//!
//! Recording is optional: a disabled [`Recorder`] is a no-op that costs one
//! branch per kernel launch. The stream is *logical*: a kernel that runs
//! as many physical launches (the Chebyshev plane wavefront) mutes them
//! ([`Recorder::muted`]) and books one event per logical sweep.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Static cost metadata for one kernel, per element of the launch.
///
/// `bytes_per_elem` counts distinct reads + writes per interior element
/// (assuming perfect cache reuse of stencil neighbours, i.e. streaming
/// traffic), which is the standard roofline accounting for stencil codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelInfo {
    /// Kernel name as it appears in traces (e.g. `"KernelBiCGS1"`).
    pub name: &'static str,
    /// Streaming bytes moved per element.
    pub bytes_per_elem: u32,
    /// Floating-point operations per element.
    pub flops_per_elem: u32,
}

impl KernelInfo {
    /// Construct kernel metadata.
    pub const fn new(name: &'static str, bytes_per_elem: u32, flops_per_elem: u32) -> Self {
        Self {
            name,
            bytes_per_elem,
            flops_per_elem,
        }
    }

    /// Metadata for a kernel that fuses `a` and `b` into one sweep.
    ///
    /// Flops add (both bodies still execute per element); streaming bytes
    /// add *minus* `dedup_bytes`, the per-element traffic the fusion
    /// eliminates because an operand is re-read (or a value re-written)
    /// by both members but only streamed once in the fused sweep. This is
    /// the accounting rule the performance model costs fused kernels by.
    pub const fn fused(name: &'static str, a: KernelInfo, b: KernelInfo, dedup_bytes: u32) -> Self {
        Self {
            name,
            bytes_per_elem: a.bytes_per_elem + b.bytes_per_elem - dedup_bytes,
            flops_per_elem: a.flops_per_elem + b.flops_per_elem,
        }
    }

    /// Rescale element-wise metadata to *row*-wise metadata for kernels
    /// recorded through [`Device::launch_reduce`], whose element count is
    /// the row count `ny·nz`: a grid-field reduction streams `row_len`
    /// elements per row, so bytes and flops multiply by the row length
    /// and the recorded totals stay honest. Without this a dot's traffic
    /// would be under-booked by `nx` in the performance model.
    ///
    /// [`Device::launch_reduce`]: crate::Device::launch_reduce
    pub const fn per_row(self, row_len: usize) -> Self {
        Self {
            name: self.name,
            bytes_per_elem: self.bytes_per_elem * row_len as u32,
            flops_per_elem: self.flops_per_elem * row_len as u32,
        }
    }
}

/// One logical performance event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A device kernel launch.
    Kernel {
        /// Kernel name.
        name: &'static str,
        /// Number of elements processed.
        elems: u64,
        /// Total streaming bytes.
        bytes: u64,
        /// Total floating point operations.
        flops: u64,
    },
    /// Host-to-device transfer.
    H2D {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Device-to-host transfer.
    D2H {
        /// Bytes transferred.
        bytes: u64,
    },
    /// Point-to-point halo traffic posted by this rank in one exchange.
    Halo {
        /// Number of messages sent.
        msgs: u32,
        /// Total payload bytes sent.
        bytes: u64,
    },
    /// A global reduction this rank participated in.
    AllReduce {
        /// Number of scalars reduced.
        elems: u32,
        /// Payload bytes per stage (`elems × element width`): the
        /// per-precision width is carried with the event so the
        /// performance model never has to assume 8 B/scalar.
        bytes: u64,
    },
    /// Begin of a named stage (for trace rendering).
    Begin {
        /// Stage name (e.g. `"Preconditioner"`, `"MPI1"`).
        name: &'static str,
    },
    /// End of the innermost open stage with this name.
    End {
        /// Stage name.
        name: &'static str,
    },
}

#[derive(Default, Debug)]
struct Sink {
    events: Mutex<Vec<Event>>,
    /// Set inside [`Recorder::muted`]: events are dropped, not stored.
    muted: AtomicBool,
}

/// Restores a sink's mute flag when a [`Recorder::muted`] scope ends,
/// unwinding included.
struct Unmute<'a> {
    flag: &'a AtomicBool,
    was: bool,
}

impl Drop for Unmute<'_> {
    fn drop(&mut self) {
        self.flag.store(self.was, Ordering::Relaxed);
    }
}

/// A cloneable handle onto an event stream.
///
/// Cloned handles share the same sink, so a device and a communicator owned
/// by the same rank append to one ordered per-rank stream.
#[derive(Clone, Default, Debug)]
pub struct Recorder {
    sink: Option<Arc<Sink>>,
}

impl Recorder {
    /// A recorder that drops all events.
    pub fn disabled() -> Self {
        Self { sink: None }
    }

    /// A recorder that appends events to a fresh shared stream.
    pub fn enabled() -> Self {
        Self {
            sink: Some(Arc::new(Sink::default())),
        }
    }

    /// `true` if events are being captured.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Append one event (no-op when disabled).
    #[inline]
    pub fn record(&self, ev: Event) {
        if let Some(sink) = &self.sink {
            if !sink.muted.load(Ordering::Relaxed) {
                sink.events.lock().push(ev);
            }
        }
    }

    /// Run `f` with the stream muted: whatever `f` records — through this
    /// handle or any clone of it — is dropped. For a caller that runs one
    /// *logical* kernel as many physical launches (the Chebyshev plane
    /// wavefront) and books the logical events itself afterwards, so the
    /// stream reads as if the kernel had run whole.
    pub fn muted<R>(&self, f: impl FnOnce() -> R) -> R {
        let Some(sink) = &self.sink else {
            return f();
        };
        let _unmute = Unmute {
            flag: &sink.muted,
            was: sink.muted.swap(true, Ordering::Relaxed),
        };
        f()
    }

    /// Record a kernel launch of `elems` elements described by `info`.
    #[inline]
    pub fn kernel(&self, info: KernelInfo, elems: usize) {
        if self.sink.is_some() {
            self.record(Event::Kernel {
                name: info.name,
                elems: elems as u64,
                bytes: elems as u64 * u64::from(info.bytes_per_elem),
                flops: elems as u64 * u64::from(info.flops_per_elem),
            });
        }
    }

    /// Record the begin of a named stage.
    #[inline]
    pub fn begin(&self, name: &'static str) {
        self.record(Event::Begin { name });
    }

    /// Record the end of a named stage.
    #[inline]
    pub fn end(&self, name: &'static str) {
        self.record(Event::End { name });
    }

    /// Run `f` inside a `Begin`/`End` pair.
    pub fn stage<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(name);
        let r = f();
        self.end(name);
        r
    }

    /// Snapshot and clear the recorded stream.
    pub fn drain(&self) -> Vec<Event> {
        match &self.sink {
            Some(sink) => std::mem::take(&mut *sink.events.lock()),
            None => Vec::new(),
        }
    }

    /// Snapshot the recorded stream without clearing it.
    pub fn snapshot(&self) -> Vec<Event> {
        match &self.sink {
            Some(sink) => sink.events.lock().clone(),
            None => Vec::new(),
        }
    }

    /// Number of events currently buffered.
    pub fn len(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.events.lock().len())
    }

    /// `true` if no events are buffered (or recording is disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_drops_events() {
        let r = Recorder::disabled();
        r.record(Event::H2D { bytes: 10 });
        assert!(!r.is_enabled());
        assert!(r.is_empty());
        assert_eq!(r.drain(), vec![]);
    }

    #[test]
    fn enabled_recorder_captures_in_order() {
        let r = Recorder::enabled();
        r.begin("MPI1");
        r.record(Event::Halo {
            msgs: 6,
            bytes: 4096,
        });
        r.end("MPI1");
        let evs = r.drain();
        assert_eq!(
            evs,
            vec![
                Event::Begin { name: "MPI1" },
                Event::Halo {
                    msgs: 6,
                    bytes: 4096
                },
                Event::End { name: "MPI1" },
            ]
        );
        assert!(r.is_empty());
    }

    #[test]
    fn kernel_event_totals() {
        let r = Recorder::enabled();
        let info = KernelInfo::new("KernelBiCGS1", 24, 10);
        r.kernel(info, 1000);
        match &r.snapshot()[0] {
            Event::Kernel {
                name,
                elems,
                bytes,
                flops,
            } => {
                assert_eq!(*name, "KernelBiCGS1");
                assert_eq!(*elems, 1000);
                assert_eq!(*bytes, 24_000);
                assert_eq!(*flops, 10_000);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }

    #[test]
    fn clones_share_the_stream() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r.record(Event::H2D { bytes: 1 });
        r2.record(Event::D2H { bytes: 2 });
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn muted_scope_drops_events_on_every_clone_and_unmutes_on_unwind() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r.record(Event::H2D { bytes: 1 });
        let v = r.muted(|| {
            r2.kernel(KernelInfo::new("KernelPlane", 8, 1), 64);
            r.muted(|| r.record(Event::D2H { bytes: 2 }));
            // still muted after the nested scope ends
            r2.record(Event::D2H { bytes: 3 });
            7
        });
        assert_eq!(v, 7);
        r.record(Event::H2D { bytes: 4 });
        assert_eq!(
            r.drain(),
            vec![Event::H2D { bytes: 1 }, Event::H2D { bytes: 4 }]
        );
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            r.muted(|| panic!("boom"));
        }));
        assert!(caught.is_err());
        r2.record(Event::H2D { bytes: 5 });
        assert_eq!(
            r.len(),
            1,
            "a panicking scope must not leave the stream muted"
        );
        // a disabled recorder just runs the closure
        assert_eq!(Recorder::disabled().muted(|| 3), 3);
    }

    #[test]
    fn stage_wraps_closure() {
        let r = Recorder::enabled();
        let v = r.stage("Preconditioner", || 42);
        assert_eq!(v, 42);
        let evs = r.drain();
        assert_eq!(
            evs.first(),
            Some(&Event::Begin {
                name: "Preconditioner"
            })
        );
        assert_eq!(
            evs.last(),
            Some(&Event::End {
                name: "Preconditioner"
            })
        );
    }
}

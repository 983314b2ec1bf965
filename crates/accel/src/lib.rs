//! # accel — a performance-portability layer in the spirit of alpaka
//!
//! The paper implements its Poisson solver against
//! [alpaka](https://github.com/alpaka-group/alpaka), a header-only C++
//! abstraction over CUDA, HIP, SYCL and OpenMP: kernels are written once
//! and the accelerator is chosen with a single type alias. This crate is
//! that abstraction rebuilt in safe, idiomatic Rust for the reproduction:
//!
//! * [`Device`] is the accelerator concept. Solver kernels are bodies
//!   over [`Run`]s — the consecutive rows of one plane of a 3-D index
//!   space that one owner sweeps — or, through thin wrappers, closures
//!   over single rows, and run unchanged on every back-end.
//! * [`Serial`], [`Threads`] and [`SimGpu`] are the back-ends (reference
//!   CPU, shared-memory CPU, simulated GPU). [`AnyDevice`] selects one at
//!   runtime from a CLI spec.
//! * [`DeviceBuffer`] models device-resident memory with explicit
//!   host↔device transfer accounting.
//! * [`Recorder`] captures the logical performance-event stream (kernel
//!   launches, transfers, halo messages, reductions) that the `perfmodel`
//!   crate replays through calibrated machine models.
//!
//! The crucial reproduction detail is *floating-point reduction order*:
//! each back-end folds partial sums differently (row order / chunk order /
//! block tree), which is the mechanism behind the paper's observed
//! iteration-count differences between CPU and GPU back-ends and the
//! run-to-run variance in Table II.
//!
//! ## Example
//!
//! ```
//! use accel::{Device, KernelInfo, Recorder, RowMap, Serial, Threads};
//!
//! // One kernel source...
//! fn axpy<D: Device>(dev: &D, a: f64, x: &[f64], y: &mut [f64]) -> f64 {
//!     let info = KernelInfo::new("axpy", 24, 2);
//!     let [norm2] = dev.launch_rows_reduce(info, RowMap::contiguous(y.len()), y, |_, _, row| {
//!         let mut s = 0.0;
//!         for (yi, &xi) in row.iter_mut().zip(x) {
//!             *yi += a * xi;
//!             s += *yi * *yi;
//!         }
//!         [s]
//!     });
//!     norm2
//! }
//!
//! // ...many back-ends.
//! let x = vec![1.0; 8];
//! let mut y1 = vec![2.0; 8];
//! let mut y2 = vec![2.0; 8];
//! let n1 = axpy(&Serial::new(Recorder::disabled()), 3.0, &x, &mut y1);
//! let n2 = axpy(&Threads::new(2, Recorder::disabled()), 3.0, &x, &mut y2);
//! assert_eq!(y1, y2);
//! assert_eq!(n1, 8.0 * 25.0);
//! assert_eq!(n2, 8.0 * 25.0);
//! ```

#![warn(missing_docs)]

mod buffer;
mod device;
mod events;
mod fold;
mod index;
mod lease;
mod pool;
mod scalar;
mod spin_park;

pub use buffer::DeviceBuffer;
pub use device::{
    AnyDevice, Device, DeviceKind, ExchangeHazard, GpuSimParams, Serial, SimGpu, Threads,
};
pub use events::{Event, KernelInfo, Recorder};
pub use fold::{fold_row_edge_last, fold_row_edge_last_n, row_has_deep_middle};
pub use index::{chunk_range, Extent3, RowMap, Run, ShellMaps};
pub use lease::{DeviceLease, DevicePool};
pub use pool::ThreadPool;
pub use scalar::{add_partials, Scalar};
pub use spin_park::{SpinPark, SPIN_YIELDS};

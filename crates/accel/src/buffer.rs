//! Device memory buffers.
//!
//! The paper's solver offloads all vectors to the accelerator once at
//! start-up and copies the solution back once at the end (Sec. III-C);
//! everything in between stays resident in device memory. [`DeviceBuffer`]
//! models that contract: construction from host data records an H2D
//! transfer, `copy_to_host` records a D2H transfer, and the perfmodel
//! charges PCIe/Infinity-Fabric costs for each. In-place kernel access via
//! slices is free, as device-resident access is on real hardware.

use crate::device::Device;
use crate::events::{Event, Recorder};
use crate::scalar::Scalar;

/// A typed allocation in (simulated) device memory.
#[derive(Clone, Debug)]
pub struct DeviceBuffer<T> {
    data: Vec<T>,
    recorder: Recorder,
}

impl<T: Scalar> DeviceBuffer<T> {
    /// Allocate a zero-initialised buffer of `n` elements on `dev`.
    ///
    /// Zero-fill happens device-side (like `hipMemset`), so no transfer is
    /// recorded.
    pub fn zeros<D: Device>(dev: &D, n: usize) -> Self {
        Self {
            data: vec![T::ZERO; n],
            recorder: dev.recorder().clone(),
        }
    }

    /// Upload `host` to the device (records an H2D transfer).
    pub fn from_host<D: Device>(dev: &D, host: &[T]) -> Self {
        let recorder = dev.recorder().clone();
        recorder.record(Event::H2D {
            bytes: (host.len() * T::BYTES) as u64,
        });
        Self {
            data: host.to_vec(),
            recorder,
        }
    }

    /// Download the buffer contents (records a D2H transfer).
    pub fn copy_to_host(&self) -> Vec<T> {
        self.recorder.record(Event::D2H {
            bytes: (self.data.len() * T::BYTES) as u64,
        });
        self.data.clone()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Device-side read access (no transfer).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Device-side write access (no transfer).
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Overwrite the buffer from host memory (records an H2D transfer).
    pub fn upload(&mut self, host: &[T]) {
        assert_eq!(host.len(), self.data.len(), "upload size mismatch");
        self.recorder.record(Event::H2D {
            bytes: (host.len() * T::BYTES) as u64,
        });
        self.data.copy_from_slice(host);
    }

    /// Device-to-device copy from `src` (no host transfer recorded).
    pub fn copy_from_device(&mut self, src: &Self) {
        assert_eq!(src.len(), self.len(), "device copy size mismatch");
        self.data.copy_from_slice(&src.data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Serial;

    #[test]
    fn zeros_records_no_transfer() {
        let rec = Recorder::enabled();
        let dev = Serial::new(rec.clone());
        let b = DeviceBuffer::<f64>::zeros(&dev, 16);
        assert_eq!(b.len(), 16);
        assert!(b.as_slice().iter().all(|&v| v == 0.0));
        assert!(rec.is_empty());
    }

    #[test]
    fn upload_download_roundtrip_and_events() {
        let rec = Recorder::enabled();
        let dev = Serial::new(rec.clone());
        let host = vec![1.0f64, 2.0, 3.0];
        let b = DeviceBuffer::from_host(&dev, &host);
        assert_eq!(b.copy_to_host(), host);
        let evs = rec.drain();
        assert_eq!(
            evs,
            vec![Event::H2D { bytes: 24 }, Event::D2H { bytes: 24 }]
        );
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn upload_size_mismatch_panics() {
        let dev = Serial::new(Recorder::disabled());
        let mut b = DeviceBuffer::<f64>::zeros(&dev, 2);
        b.upload(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn f32_traffic_accounting() {
        let rec = Recorder::enabled();
        let dev = Serial::new(rec.clone());
        let _ = DeviceBuffer::from_host(&dev, &[0.5f32; 10]);
        assert_eq!(rec.drain(), vec![Event::H2D { bytes: 40 }]);
    }
}

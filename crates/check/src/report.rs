//! Violation types and the shared violation sink.

use std::fmt;
use std::sync::{Arc, Mutex};

/// One correctness violation found by the kernel sanitizer.
///
/// Every variant names the offending kernel, so a diagnostic is
/// actionable without a debugger: which launch, which cell, which rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// The launch's `RowMap` escapes the output slice.
    MapOutOfBounds {
        /// Offending kernel name.
        kernel: &'static str,
        /// Linear index of the first out-of-bounds element.
        cell: usize,
        /// Length of the output slice.
        out_len: usize,
    },
    /// Two rows of the launch's `RowMap` cover the same element, so two
    /// workers could hold `&mut` to it at once.
    RowAliasing {
        /// Offending kernel name.
        kernel: &'static str,
        /// Linear index of the first doubly-mapped element.
        cell: usize,
    },
    /// The kernel changed an element its `RowMap` does not cover — a
    /// write that escaped the row slice (e.g. through a raw pointer).
    OutOfMapWrite {
        /// Offending kernel name.
        kernel: &'static str,
        /// Linear index of the first out-of-map element that changed.
        cell: usize,
    },
    /// The launch targets a ghost-plane cell that a split-phase halo
    /// exchange is about to overwrite (`begin` called, `finish` not yet).
    InFlightGhostWrite {
        /// Offending kernel name.
        kernel: &'static str,
        /// Linear index (within the exchanged field) of the cell.
        cell: usize,
        /// Ghost-plane axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Ghost-plane side (0 = low, 1 = high).
        side: usize,
    },
    /// A stencil sweep reads a ghost-plane cell that a split-phase halo
    /// exchange has not delivered yet (`begin` called, `finish` not yet):
    /// the value is stale.
    InFlightGhostRead {
        /// Offending kernel name.
        kernel: &'static str,
        /// Linear index (within the exchanged field) of the swept cell
        /// whose stencil reaches the ghost.
        cell: usize,
        /// Ghost-plane axis (0 = x, 1 = y, 2 = z).
        axis: usize,
        /// Ghost-plane side (0 = low, 1 = high).
        side: usize,
    },
    /// The kernel's output depends on a tracked-fresh element that was
    /// never written: a read of uninitialised memory.
    ReadBeforeInit {
        /// Offending kernel name.
        kernel: &'static str,
        /// Linear index of the first output element that diverged under
        /// the two shadow canaries.
        cell: usize,
    },
    /// `on_exchange_finish` arrived for a field with no matching
    /// `on_exchange_begin` (or a second `begin` for the same field).
    UnbalancedExchange {
        /// What went wrong.
        detail: String,
    },
}

impl Violation {
    /// The kernel this violation is attributed to (empty for exchange
    /// bookkeeping errors, which have no kernel).
    pub fn kernel(&self) -> &'static str {
        match self {
            Self::MapOutOfBounds { kernel, .. }
            | Self::RowAliasing { kernel, .. }
            | Self::OutOfMapWrite { kernel, .. }
            | Self::InFlightGhostWrite { kernel, .. }
            | Self::InFlightGhostRead { kernel, .. }
            | Self::ReadBeforeInit { kernel, .. } => kernel,
            Self::UnbalancedExchange { .. } => "",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MapOutOfBounds {
                kernel,
                cell,
                out_len,
            } => write!(
                f,
                "kernel `{kernel}`: RowMap maps element {cell} but the output \
                 slice has only {out_len} elements"
            ),
            Self::RowAliasing { kernel, cell } => write!(
                f,
                "kernel `{kernel}`: RowMap maps element {cell} from two \
                 different rows (cross-row aliasing)"
            ),
            Self::OutOfMapWrite { kernel, cell } => write!(
                f,
                "kernel `{kernel}`: element {cell} changed during the launch \
                 but is not covered by the RowMap — a write escaped its row \
                 slice"
            ),
            Self::InFlightGhostWrite {
                kernel,
                cell,
                axis,
                side,
            } => write!(
                f,
                "kernel `{kernel}`: element {cell} lies on the (axis {axis}, \
                 side {side}) ghost plane of a field whose halo exchange is \
                 still in flight (begin() without finish())"
            ),
            Self::InFlightGhostRead {
                kernel,
                cell,
                axis,
                side,
            } => write!(
                f,
                "kernel `{kernel}`: the stencil at element {cell} reads the \
                 (axis {axis}, side {side}) ghost plane of a field whose halo \
                 exchange is still in flight (begin() without finish())"
            ),
            Self::ReadBeforeInit { kernel, cell } => write!(
                f,
                "kernel `{kernel}`: output element {cell} depends on \
                 uninitialised input (two shadow canaries produced different \
                 results)"
            ),
            Self::UnbalancedExchange { detail } => {
                write!(f, "unbalanced halo exchange: {detail}")
            }
        }
    }
}

/// What the sanitizer does when it finds a violation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Policy {
    /// Panic immediately with the violation message (the default — a CI
    /// run under `Checked` fails at the offending launch).
    #[default]
    Panic,
    /// Record the violation in the shared [`Report`] and keep going
    /// whenever it is safe to do so.
    Record,
}

/// Cloneable shared sink of recorded violations.
#[derive(Clone, Default, Debug)]
pub struct Report {
    inner: Arc<Mutex<Vec<Violation>>>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one violation.
    pub fn push(&self, v: Violation) {
        self.inner.lock().expect("report lock").push(v);
    }

    /// Snapshot and clear the recorded violations.
    pub fn take(&self) -> Vec<Violation> {
        std::mem::take(&mut *self.inner.lock().expect("report lock"))
    }

    /// Snapshot the recorded violations without clearing.
    pub fn snapshot(&self) -> Vec<Violation> {
        self.inner.lock().expect("report lock").clone()
    }

    /// Number of recorded violations.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("report lock").len()
    }

    /// `true` when no violation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_kernel_and_cell() {
        let v = Violation::OutOfMapWrite {
            kernel: "KernelBiCGS1",
            cell: 42,
        };
        let msg = v.to_string();
        assert!(msg.contains("KernelBiCGS1"));
        assert!(msg.contains("42"));
        assert_eq!(v.kernel(), "KernelBiCGS1");
    }

    #[test]
    fn report_takes_and_clears() {
        let r = Report::new();
        assert!(r.is_empty());
        r.push(Violation::RowAliasing {
            kernel: "k",
            cell: 1,
        });
        assert_eq!(r.len(), 1);
        let taken = r.take();
        assert_eq!(taken.len(), 1);
        assert!(r.is_empty());
        assert!(taken[0].to_string().contains("aliasing"));
    }
}

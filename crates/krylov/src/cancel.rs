//! Cooperative cancellation for in-flight solves.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable cancellation flag observed by [`bicgstab_solve_batch`] for
/// the lane whose [`LaneSystem`](crate::LaneSystem) carries it.
///
/// The solver polls the token once per outer iteration, *collectively*:
/// every rank contributes its local view of the flag to a reduction, so
/// all ranks take the break on the same iteration even when the flip
/// races with the loop. A cancelled solve stops at an iteration
/// boundary with its iterate fully updated and reports
/// [`SolveOutcome::cancelled`](crate::SolveOutcome::cancelled).
///
/// Without a token installed on any lane the solver ships no extra
/// messages: the poll and its reduction exist only when someone can
/// actually cancel. On a multi-rank world even installed tokens are free
/// of extra messages — the flags ride the per-iteration M1 batch as one
/// more scalar per lane, preserving the 2-messages-per-iteration
/// guarantee.
///
/// [`bicgstab_solve_batch`]: crate::bicgstab_solve_batch
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Request cancellation; observed by every clone of this token.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let t = CancelToken::new();
        let c = t.clone();
        assert!(!c.is_cancelled());
        t.cancel();
        assert!(c.is_cancelled());
        assert!(t.is_cancelled());
    }
}

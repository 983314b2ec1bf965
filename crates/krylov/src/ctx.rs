//! Per-rank solver context and field workspace.

use accel::{Device, Recorder, Scalar};
use blockgrid::{BlockGrid, Field, HaloExchange};
use comm::Communicator;
use stencil::Laplacian;

/// Everything one rank needs to run the solver: its device, its
/// communicator handle, its subdomain, the matrix-free operator and the
/// halo-exchange plan. One `RankCtx` is built per MPI-rank-equivalent
/// thread (the paper's per-process solver state).
///
/// It carries no schedule decision: every operator application —
/// Bi-CGSTAB's and every `G(CI)` Chebyshev sweep — runs
/// `exchange → BCs → sweep`, one blocking exchange and one launch over
/// the whole interior.
pub struct RankCtx<T: Scalar, D: Device, C: Communicator<T>> {
    /// The accelerator this rank offloads to (one GPU / GCD per rank in
    /// the paper's runs).
    pub dev: D,
    /// This rank's communicator handle.
    pub comm: C,
    /// Subdomain geometry.
    pub grid: BlockGrid,
    /// Matrix-free operator on the subdomain.
    pub lap: Laplacian,
    /// Halo-exchange plan.
    pub halo: HaloExchange<T>,
    /// Event stream (shared with `dev`).
    pub recorder: Recorder,
    _marker: std::marker::PhantomData<T>,
}

impl<T: Scalar, D: Device, C: Communicator<T>> RankCtx<T, D, C> {
    /// Assemble the context for one rank.
    pub fn new(dev: D, comm: C, grid: BlockGrid) -> Self {
        let lap = Laplacian::new(&grid);
        let halo = HaloExchange::new(&grid);
        let recorder = dev.recorder().clone();
        Self {
            dev,
            comm,
            grid,
            lap,
            halo,
            recorder,
            _marker: std::marker::PhantomData,
        }
    }

    /// Allocate a zeroed field on this rank's device.
    pub fn field(&self) -> Field<T> {
        Field::zeros(&self.dev, &self.grid)
    }
}

/// The Bi-CGSTAB vector set (Alg. 3), allocated once and reused across
/// solves — every vector lives in device memory for the whole solve,
/// matching the paper's offload-once design.
pub struct Workspace<T> {
    /// Residual `r`.
    pub r: Field<T>,
    /// Shadow residual `r̃` (chosen as `r_0`).
    pub r0t: Field<T>,
    /// Search direction `p`.
    pub p: Field<T>,
    /// Preconditioned direction `p̂`. Never written when `M = I`: the
    /// driver then sweeps `p` in its place.
    pub p_hat: Field<T>,
    /// Preconditioned residual `r̂`. Never written when `M = I`: the
    /// driver then sweeps `r` in its place.
    pub r_hat: Field<T>,
    /// `w = A p̂`.
    pub w: Field<T>,
    /// `t = A r̂`.
    pub t: Field<T>,
}

impl<T: Scalar> Workspace<T> {
    /// Allocate the workspace on `dev` for `grid`.
    pub fn new<D: Device>(dev: &D, grid: &BlockGrid) -> Self {
        Self {
            r: Field::zeros(dev, grid),
            r0t: Field::zeros(dev, grid),
            p: Field::zeros(dev, grid),
            p_hat: Field::zeros(dev, grid),
            r_hat: Field::zeros(dev, grid),
            w: Field::zeros(dev, grid),
            t: Field::zeros(dev, grid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel::Serial;
    use blockgrid::{Decomp, GlobalGrid};
    use comm::SelfComm;

    #[test]
    fn context_assembles() {
        let grid = BlockGrid::new(
            GlobalGrid::dirichlet([4, 4, 4], [0.1; 3], [0.0; 3]),
            Decomp::single(),
            0,
        );
        let ctx: RankCtx<f64, _, _> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let f = ctx.field();
        assert_eq!(f.padded(), [6, 6, 6]);
        let ws = Workspace::<f64>::new(&ctx.dev, &ctx.grid);
        assert_eq!(ws.r.padded(), [6, 6, 6]);
    }
}

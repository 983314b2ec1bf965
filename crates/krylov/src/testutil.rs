//! Fixtures shared by the crate's unit-test modules.

use accel::{Device, Recorder, Scalar, Serial};
use blockgrid::{BcKind, BlockGrid, Decomp, Field, GlobalGrid};
use comm::{run_ranks, Communicator, ReduceOrder, ThreadComm};
use stencil::Part;

use crate::{LaneSystem, RankCtx, Workspace};

/// `n` reproducible pseudo-random values in `[-1, 1)`.
pub(crate) fn rng_values(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    (0..n)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
        .collect()
}

/// The boundary conditions of the paper's test problem (Sec. IV).
pub(crate) fn paper_bcs() -> [[BcKind; 2]; 3] {
    [
        [BcKind::Dirichlet, BcKind::Neumann],
        [BcKind::Neumann, BcKind::Dirichlet],
        [BcKind::Neumann, BcKind::Dirichlet],
    ]
}

/// Restrict a global lexicographic field to `grid`'s interior.
pub(crate) fn scatter(grid: &BlockGrid, global: &[f64]) -> Vec<f64> {
    let [nx, ny, _] = grid.global.n;
    let (ln, off) = (grid.local_n, grid.offset);
    let mut local = Vec::with_capacity(ln.iter().product());
    for k in 0..ln[2] {
        for j in 0..ln[1] {
            for i in 0..ln[0] {
                local.push(global[(off[0] + i) + nx * ((off[1] + j) + ny * (off[2] + k))]);
            }
        }
    }
    local
}

/// Run `body` on every rank of the crate's standard multi-rank test
/// world — an 8³ paper-BC grid split `decomp` (2×2×2 unless a test needs
/// another split) over Serial devices with rank-ordered reductions —
/// handing it the rank context and the rank's slice of the seeded
/// global right-hand side.
pub(crate) fn world<R: Send>(
    decomp: [usize; 3],
    seed: u64,
    body: impl Fn(&RankCtx<f64, Serial, ThreadComm<f64>>, &[f64]) -> R + Sync,
) -> Vec<R> {
    world_on(|| Serial::new(Recorder::disabled()), decomp, seed, body)
}

/// [`world`] with each rank's device made by `dev`.
pub(crate) fn world_on<D: Device, R: Send>(
    dev: impl Fn() -> D + Sync,
    decomp: [usize; 3],
    seed: u64,
    body: impl Fn(&RankCtx<f64, D, ThreadComm<f64>>, &[f64]) -> R + Sync,
) -> Vec<R> {
    let mut g = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
    g.bc = paper_bcs();
    let b_host = rng_values(g.unknowns(), seed);
    let decomp = Decomp::new(decomp);
    run_ranks::<f64, _, _>(decomp.ranks(), ReduceOrder::RankOrder, |comm| {
        let grid = BlockGrid::new(g.clone(), decomp, comm.rank());
        let ctx = RankCtx::new(dev(), comm, grid);
        body(&ctx, &scatter(&ctx.grid, &b_host))
    })
}

/// One token-free [`LaneSystem`] per right-hand side of `bs`, each with
/// its iterate and workspace.
pub(crate) fn lane_systems<'a, T: Scalar>(
    bs: &'a [Field<T>],
    xs: &'a mut [Field<T>],
    wss: &'a mut [Workspace<T>],
) -> impl Iterator<Item = LaneSystem<'a, T>> {
    let cancel = None;
    let lane = move |((b, x), ws)| LaneSystem { b, x, ws, cancel };
    bs.iter().zip(xs).zip(wss).map(lane)
}

/// Bit patterns of `v`, for exact comparisons with readable failures.
pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Sequential Chebyshev oracle for every schedule of
/// [`crate::ChebyshevIteration`] — whole sweeps, z-plane wavefronts:
/// Algorithm 4 sweep for sweep at element width `E`, with the recurrence
/// folded into the stencil weights as production folds it, each sweep
/// one monolithic `apply_combine` into a field of its own after a
/// blocking ghost `refresh` of its input (exchange → BCs for a
/// communicating iteration, the restricted BCs for a comm-free one).
/// Returns every sweep's field in order, the zero start `x₀` first:
/// entry `i ≥ 1` is sweep `i`'s output, with the ghosts the next sweep
/// read.
pub(crate) fn chebyshev_sync_oracle<E, T, D, C>(
    ctx: &RankCtx<T, D, C>,
    (theta, delta, sigma): (f64, f64, f64),
    iterations: usize,
    mut refresh: impl FnMut(&mut Field<E>),
    mut b: Field<E>,
) -> Vec<Field<E>>
where
    E: Scalar,
    T: Scalar,
    D: Device,
    C: Communicator<T>,
{
    let (dev, grid, info) = (&ctx.dev, &ctx.grid, stencil::INFO_APPLY);
    let field = || Field::<E>::zeros(dev, grid);
    let weights = |ca: f64, cu: f64| ctx.lap.combine_weights(ca, cu).map(E::from_f64);
    let mut rho_old = 1.0 / sigma;
    let mut rho = 1.0 / (2.0 * sigma - rho_old);
    refresh(&mut b);
    let k = weights(-2.0 * rho / (delta * theta), 4.0 * rho / delta);
    let mut y = field();
    ctx.lap
        .apply_combine(dev, info, &Part::Whole, &b, &mut y, k, []);
    let mut outs = vec![field(), y];
    for i in 2..=iterations {
        rho_old = rho;
        rho = 1.0 / (2.0 * sigma - rho_old);
        let k = weights(-2.0 * rho / delta, 2.0 * sigma * rho);
        let (cb, cz) = (2.0 * rho / delta, -rho * rho_old);
        refresh(&mut outs[i - 1]);
        let (y, z) = (&outs[i - 1], &outs[i - 2]);
        let mut w = field();
        let part = &Part::Whole;
        if i == 2 {
            // z = b/θ folds into the b term
            let terms = [(&b, E::from_f64(cb + cz / theta))];
            ctx.lap.apply_combine(dev, info, part, y, &mut w, k, terms);
        } else {
            let terms = [(&b, E::from_f64(cb)), (z, E::from_f64(cz))];
            ctx.lap.apply_combine(dev, info, part, y, &mut w, k, terms);
        }
        outs.push(w);
    }
    outs
}

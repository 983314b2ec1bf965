//! Property-based integration tests (proptest).
//!
//! Randomised checks of the core invariants across grid shapes, boundary
//! conditions, decompositions and data:
//!
//! * the distributed matrix-free stencil equals the dense operator,
//! * halo exchange delivers exactly the neighbour faces,
//! * collectives reduce exactly (deterministic order),
//! * Bi-CGSTAB solutions satisfy the linear system to the requested
//!   tolerance (verified independently against the dense operator),
//! * the Chebyshev preconditioner is a linear fixed operator.

use accel::{Recorder, Serial};
use blockgrid::{BcKind, BlockGrid, Decomp, Field, GlobalGrid, HaloExchange};
use comm::{run_ranks, Communicator, ReduceOp, ReduceOrder, SelfComm};
use krylov::{
    bicgstab_solve, global_bounds, ChebyMode, ChebyshevIteration, IdentityPrec, RankCtx, Scope,
    SolveParams, Workspace,
};
use proptest::prelude::*;
use stencil::matrix::assemble_poisson;
use stencil::{apply_physical_bcs, Laplacian, INFO_APPLY};

fn bc_strategy() -> impl Strategy<Value = BcKind> {
    prop_oneof![Just(BcKind::Dirichlet), Just(BcKind::Neumann)]
}

/// A random mixed-BC assignment with at least one Dirichlet face per axis
/// (keeps the operator comfortably nonsingular for solver properties).
fn bcs_strategy() -> impl Strategy<Value = [[BcKind; 2]; 3]> {
    [
        (bc_strategy(), bc_strategy()),
        (bc_strategy(), bc_strategy()),
        (bc_strategy(), bc_strategy()),
    ]
    .prop_map(|axes| {
        let mut bc = [[BcKind::Dirichlet; 2]; 3];
        for (a, (lo, hi)) in axes.into_iter().enumerate() {
            bc[a] = [lo, hi];
            if bc[a] == [BcKind::Neumann, BcKind::Neumann] {
                bc[a][1] = BcKind::Dirichlet; // avoid the singular pure-Neumann axis
            }
        }
        bc
    })
}

fn grid_strategy() -> impl Strategy<Value = (GlobalGrid, Vec<f64>)> {
    (
        (2usize..=5, 2usize..=5, 2usize..=5),
        bcs_strategy(),
        (1u64..u64::MAX),
    )
        .prop_map(|((nx, ny, nz), bc, seed)| {
            let mut g = GlobalGrid::dirichlet([nx, ny, nz], [0.3, 0.45, 0.6], [0.0; 3]);
            g.bc = bc;
            let n = g.unknowns();
            let mut state = seed;
            let vals = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
                })
                .collect();
            (g, vals)
        })
}

fn decomp_strategy() -> impl Strategy<Value = [usize; 3]> {
    prop_oneof![
        Just([1, 1, 1]),
        Just([2, 1, 1]),
        Just([1, 2, 1]),
        Just([1, 1, 2]),
        Just([2, 2, 1]),
        Just([2, 1, 2]),
        Just([2, 2, 2]),
    ]
}

/// Scatter a global vector onto a rank's interior.
fn scatter(global: &GlobalGrid, grid: &BlockGrid, v: &[f64]) -> Vec<f64> {
    let n = grid.local_n;
    let gn = global.n;
    let mut out = Vec::with_capacity(n[0] * n[1] * n[2]);
    for k in 0..n[2] {
        for j in 0..n[1] {
            for i in 0..n[0] {
                out.push(
                    v[(grid.offset[0] + i)
                        + gn[0] * ((grid.offset[1] + j) + gn[1] * (grid.offset[2] + k))],
                );
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn distributed_stencil_equals_dense_operator(
        (global, input) in grid_strategy(),
        decomp in decomp_strategy(),
    ) {
        // skip decompositions finer than the grid
        for (d, n) in decomp.iter().zip(&global.n) {
            prop_assume!(d <= n);
        }
        // thin Neumann subdomains are rejected by design; skip them
        let d = Decomp::new(decomp);
        let mut feasible = true;
        for rank in 0..d.ranks() {
            let bg = BlockGrid::new(global.clone(), d, rank);
            for a in 0..3 {
                let neumann = (0..2).any(|s| {
                    matches!(bg.boundary(a, s), blockgrid::LocalBoundary::Physical(BcKind::Neumann))
                });
                if neumann && bg.local_n[a] < 2 {
                    feasible = false;
                }
            }
        }
        prop_assume!(feasible);

        // dense reference on the single-rank operator
        let ref_grid = BlockGrid::new(global.clone(), Decomp::single(), 0);
        let lap = Laplacian::new(&ref_grid);
        let dense = assemble_poisson(&lap.global_ops(), global.h);
        let expect = dense.matvec(&input);

        let g2 = global.clone();
        let inp = input.clone();
        let results = run_ranks::<f64, _, _>(d.ranks(), ReduceOrder::RankOrder, move |comm| {
            let grid = BlockGrid::new(g2.clone(), d, comm.rank());
            let dev = Serial::new(Recorder::disabled());
            let local = scatter(&g2, &grid, &inp);
            let mut u = Field::from_interior(&dev, &grid, &local);
            HaloExchange::new(&grid).exchange(&dev, &comm, &mut u);
            apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
            let lap = Laplacian::new(&grid);
            let mut w = Field::zeros(&dev, &grid);
            lap.apply(&dev, INFO_APPLY, &u, &mut w);
            (w.interior_to_host(&grid), grid.offset, grid.local_n)
        });

        let gn = global.n;
        for (local, off, ln) in &results {
            let mut idx = 0;
            for k in 0..ln[2] {
                for j in 0..ln[1] {
                    for i in 0..ln[0] {
                        let g = (off[0] + i) + gn[0] * ((off[1] + j) + gn[1] * (off[2] + k));
                        let e = expect[g];
                        prop_assert!(
                            (local[idx] - e).abs() < 1e-10 * e.abs().max(1.0),
                            "unknown {g}: {} vs {e}", local[idx]
                        );
                        idx += 1;
                    }
                }
            }
        }
    }

    #[test]
    fn allreduce_matches_serial_fold(
        vals in prop::collection::vec(-1e6f64..1e6, 1..8),
        ranks in 1usize..=9,
    ) {
        let v = vals.clone();
        let results = run_ranks::<f64, _, _>(ranks, ReduceOrder::RankOrder, move |comm| {
            let mut mine: Vec<f64> = v.iter().map(|x| x + comm.rank() as f64).collect();
            comm.all_reduce(&mut mine, ReduceOp::Sum);
            mine
        });
        // serial reference with the same fold order (rank 0, 1, 2, ...)
        let mut expect: Vec<f64> = vals.to_vec();
        for r in 1..ranks {
            for (e, x) in expect.iter_mut().zip(&vals) {
                *e += x + r as f64;
            }
        }
        for res in &results {
            for (a, b) in res.iter().zip(&expect) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn bicgstab_solution_satisfies_system(
        (global, rhs) in grid_strategy(),
    ) {
        let grid = BlockGrid::new(global.clone(), Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let b = Field::from_interior(&ctx.dev, &ctx.grid, &rhs);
        let mut x = ctx.field();
        let mut ws = Workspace::new(&ctx.dev, &ctx.grid);
        let bnorm: f64 = rhs.iter().map(|v| v * v).sum::<f64>().sqrt();
        prop_assume!(bnorm > 1e-8);
        let tol = 1e-9 * bnorm;
        let out = bicgstab_solve(
            &ctx, Scope::Global, &b, &mut x, &mut IdentityPrec, &mut ws,
            &SolveParams { tol, max_iters: 20_000, record_history: false, ..Default::default() },
        );
        prop_assert!(out.converged, "{:?}", out);
        // verify independently against the dense operator
        let dense = assemble_poisson(&ctx.lap.global_ops(), global.h);
        let got = x.interior_to_host(&ctx.grid);
        let ax = dense.matvec(&got);
        let res: f64 = ax.iter().zip(&rhs).map(|(a, b)| (a - b) * (a - b)).sum::<f64>().sqrt();
        prop_assert!(res < 10.0 * tol, "true residual {res} vs tol {tol}");
    }

    #[test]
    fn chebyshev_is_a_linear_fixed_operator(
        (global, u) in grid_strategy(),
        seed in 1u64..u64::MAX,
        a in -3.0f64..3.0,
        c in -3.0f64..3.0,
        sweeps in 1usize..12,
    ) {
        let grid = BlockGrid::new(global.clone(), Decomp::single(), 0);
        let ctx: RankCtx<f64, _, SelfComm<f64>> =
            RankCtx::new(Serial::new(Recorder::disabled()), SelfComm::default(), grid);
        let n = global.unknowns();
        let mut state = seed;
        let v: Vec<f64> = (0..n).map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }).collect();
        let bounds = global_bounds(&ctx);
        let apply = |rhs: &[f64]| -> Vec<f64> {
            let mut b = Field::from_interior(&ctx.dev, &ctx.grid, rhs);
            let mut out = ctx.field();
            let mut ci = ChebyshevIteration::<f64>::new(&ctx, ChebyMode::GlobalNoComm, bounds, sweeps);
            ci.solve(&ctx, &mut b, &mut out);
            out.interior_to_host(&ctx.grid)
        };
        let combo: Vec<f64> = u.iter().zip(&v).map(|(x, y)| a * x + c * y).collect();
        let mu = apply(&u);
        let mv = apply(&v);
        let mc = apply(&combo);
        for i in 0..n {
            let expect = a * mu[i] + c * mv[i];
            let scale = mu[i].abs().max(mv[i].abs()).max(1.0) * (a.abs() + c.abs() + 1.0);
            prop_assert!(
                (mc[i] - expect).abs() < 1e-9 * scale,
                "linearity at {i}: {} vs {expect}", mc[i]
            );
        }
        // fixed operator: repeated application of the same input is bitwise equal
        let mu2 = apply(&u);
        for i in 0..n {
            prop_assert_eq!(mu[i].to_bits(), mu2[i].to_bits());
        }
    }

    /// Batching transparency of the reduction: one blocking `all_reduce`
    /// of N scalars returns exactly the bits of N one-scalar `all_reduce`
    /// calls under RankOrder, with the local scalars produced by the
    /// device dot kernel on every back-end — N up to the 96 slots of a
    /// full M1. This is the invariant that lets Bi-CGSTAB pack its
    /// per-iteration dots, lagged norms and cancel flags into two batched
    /// messages (M1, M2) without perturbing a single bit.
    #[test]
    fn batched_all_reduce_matches_sequential_all_reduce(
        (global, input) in grid_strategy(),
        decomp in decomp_strategy(),
        dev_spec in prop_oneof![Just("serial"), Just("threads:3"), Just("simgpu:4")],
        nscalars in prop_oneof![1usize..=6, Just(96)],
    ) {
        for (d, n) in decomp.iter().zip(&global.n) {
            prop_assume!(d <= n);
        }
        let d = Decomp::new(decomp);
        let run = |batched: bool| {
            let g2 = global.clone();
            let inp = input.clone();
            run_ranks::<f64, _, _>(d.ranks(), ReduceOrder::RankOrder, move |comm| {
                let grid = BlockGrid::new(g2.clone(), d, comm.rank());
                let dev = accel::AnyDevice::from_spec(dev_spec, Recorder::disabled()).unwrap();
                let local = scatter(&g2, &grid, &inp);
                let u = Field::from_interior(&dev, &grid, &local);
                let base = krylov::kernels::dot(&dev, krylov::kernels::INFO_DOT, &grid, &u, &u);
                let vals: Vec<f64> = (0..nscalars)
                    .map(|s| base * (0.25 + 0.5 * s as f64) - s as f64)
                    .collect();
                let reduced: Vec<f64> = if batched {
                    let mut out = vals;
                    comm.all_reduce(&mut out, ReduceOp::Sum);
                    out
                } else {
                    vals.iter()
                        .map(|&v| {
                            let mut one = [v];
                            comm.all_reduce(&mut one, ReduceOp::Sum);
                            one[0]
                        })
                        .collect()
                };
                reduced.iter().map(|v| v.to_bits()).collect::<Vec<u64>>()
            })
        };
        let sequential = run(false);
        let batch = run(true);
        for (rank, (s, b)) in sequential.iter().zip(&batch).enumerate() {
            prop_assert_eq!(s, b, "reduced scalars differ on rank {}", rank);
        }
    }

    /// Tentpole invariant of the split-phase halo exchange: on every
    /// back-end, `begin → BCs → apply_interior → finish → apply_shell`
    /// leaves the field (ghosts included) and the operator output
    /// bitwise-identical to the synchronous
    /// `exchange → BCs → apply` path, for random shapes, decompositions
    /// and boundary conditions.
    #[test]
    fn split_phase_apply_is_bitwise_identical(
        (global, input) in grid_strategy(),
        decomp in decomp_strategy(),
        dev_spec in prop_oneof![Just("serial"), Just("threads:3"), Just("simgpu:4")],
    ) {
        for (d, n) in decomp.iter().zip(&global.n) {
            prop_assume!(d <= n);
        }
        let d = Decomp::new(decomp);
        let mut feasible = true;
        for rank in 0..d.ranks() {
            let bg = BlockGrid::new(global.clone(), d, rank);
            for a in 0..3 {
                let neumann = (0..2).any(|s| {
                    matches!(bg.boundary(a, s), blockgrid::LocalBoundary::Physical(BcKind::Neumann))
                });
                if neumann && bg.local_n[a] < 2 {
                    feasible = false;
                }
            }
        }
        prop_assume!(feasible);

        // (field bits, A·field bits) per rank, sync and split flavours
        let run = |split: bool| {
            let g2 = global.clone();
            let inp = input.clone();
            run_ranks::<f64, _, _>(d.ranks(), ReduceOrder::RankOrder, move |comm| {
                let grid = BlockGrid::new(g2.clone(), d, comm.rank());
                let dev = accel::AnyDevice::from_spec(dev_spec, Recorder::disabled()).unwrap();
                let local = scatter(&g2, &grid, &inp);
                let mut u = Field::from_interior(&dev, &grid, &local);
                let lap = Laplacian::new(&grid);
                let mut w = Field::zeros(&dev, &grid);
                let halo = HaloExchange::new(&grid);
                if split {
                    // LINT: collective-uniform(`split` is the closure's bool
                    // argument, identical on every rank)
                    let pending = halo.begin(&dev, &comm, &u);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    lap.apply_interior(&dev, INFO_APPLY, &u, &mut w);
                    // LINT: collective-uniform(same rank-uniform `split` flag)
                    halo.finish(&dev, &comm, pending, &mut u);
                    lap.apply_shell(&dev, INFO_APPLY, &u, &mut w);
                } else {
                    // LINT: collective-uniform(same rank-uniform `split` flag)
                    halo.exchange(&dev, &comm, &mut u);
                    apply_physical_bcs(&grid, &mut u, &Recorder::disabled(), false);
                    lap.apply(&dev, INFO_APPLY, &u, &mut w);
                }
                let bits = |f: &Field<f64>| -> Vec<u64> {
                    f.as_slice().iter().map(|v| v.to_bits()).collect()
                };
                (bits(&u), bits(&w))
            })
        };
        let sync = run(false);
        let split = run(true);
        for (rank, ((us, ws), (uo, wo))) in sync.iter().zip(&split).enumerate() {
            prop_assert_eq!(us, uo, "ghost-refreshed field differs on rank {}", rank);
            prop_assert_eq!(ws, wo, "operator output differs on rank {}", rank);
        }
    }
}

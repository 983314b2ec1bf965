//! The historical Bi-CGSTAB schedule, kept as a reference oracle.
//!
//! [`bicgstab_reference`] is Alg. 3 the way this repository first ran
//! it: eleven unfused full-grid sweeps per iteration, a blocking halo
//! `exchange` before each operator application and one blocking
//! reduction per stage (three per iteration). It shares the production
//! driver's arithmetic — ρ by recurrence, the x-update chained as its
//! 4a/4b halves — so under a deterministic [`comm::ReduceOrder`] it is
//! the **bitwise oracle** of [`crate::bicgstab_solve`]: same iterates,
//! same residual history, same stopping decisions. It is also the
//! "paper schedule" arm of the modelled schedule ablation.
//!
//! Deliberately minimal: no restarts, no true-residual guard, no
//! cancellation, nothing to configure. Not for production use.

use accel::{Device, Scalar};
use blockgrid::Field;
use comm::Communicator;
use stencil::INFO_APPLY;

use crate::bicgstab::{global_sum, refresh_ghosts, Breakdown, Scope, SolveOutcome};
use crate::ctx::{RankCtx, Workspace};
use crate::kernels::{
    axpy3_inplace, axpy_inplace, dot, dot2, residual_update_fused, INFO_BICGS2, INFO_BICGS4A,
    INFO_BICGS4B, INFO_BICGS5, INFO_BICGS6, INFO_DOT,
};
use crate::precond::Preconditioner;

/// Solve `A x = b` on the historical schedule (see the module docs).
///
/// `x` holds the initial guess on entry and the solution on exit; the
/// residual history is always recorded.
#[allow(clippy::too_many_arguments)]
pub fn bicgstab_reference<T, D, C, P>(
    ctx: &RankCtx<T, D, C>,
    scope: Scope,
    b: &Field<T>,
    x: &mut Field<T>,
    prec: &mut P,
    ws: &mut Workspace<T>,
    tol: f64,
    max_iters: usize,
) -> SolveOutcome
where
    T: Scalar,
    D: Device,
    C: Communicator<T>,
    P: Preconditioner<T, D, C> + ?Sized,
{
    let (dev, grid) = (&ctx.dev, &ctx.grid);
    let mut out = SolveOutcome {
        converged: false,
        iterations: 0,
        prec_iterations: 0,
        residual_history: Vec::new(),
        final_residual: 0.0,
        breakdown: None,
        restarts: 0,
        true_residuals: Vec::new(),
        cancelled: false,
    };

    // r_0 = b − A x_0, r̃ = p_0 = r_0, ρ_0 = r̃ᵀ r_0
    refresh_ghosts(ctx, scope, "MPI0", x);
    ctx.lap.apply(dev, INFO_APPLY, x, &mut ws.w);
    ws.r.copy_from(b);
    axpy_inplace(dev, INFO_BICGS2, grid, &mut ws.r, &ws.w, -T::ONE);
    ws.r0t.copy_from(&ws.r);
    ws.p.copy_from(&ws.r);
    let mut s = [dot(dev, INFO_DOT, grid, &ws.r0t, &ws.r)];
    global_sum(ctx, scope, "MPI0", &mut s);
    let mut rho = s[0];
    out.final_residual = rho.to_f64().max(0.0).sqrt();
    out.residual_history.push(out.final_residual);
    if out.final_residual < tol {
        out.converged = true;
        return out;
    }

    for i in 1..=max_iters {
        out.iterations = i;

        // p̂ = M⁻¹ p, w = A p̂, σ = r̃ᵀ w
        out.prec_iterations += ctx.recorder.stage("Preconditioner", || {
            prec.apply(ctx, &mut ws.p, &mut ws.p_hat)
        }) as u64;
        refresh_ghosts(ctx, scope, "MPI1", &mut ws.p_hat);
        ctx.lap.apply(dev, INFO_APPLY, &ws.p_hat, &mut ws.w);
        let mut s = [dot(dev, INFO_DOT, grid, &ws.r0t, &ws.w)];
        global_sum(ctx, scope, "MPI2", &mut s);
        let psum = s[0];
        if !psum.is_finite() {
            out.breakdown = Some(Breakdown::NonFinite);
            break;
        }
        if psum == T::ZERO {
            out.breakdown = Some(Breakdown::PSumZero);
            break;
        }
        let alpha = rho / psum;

        // KernelBiCGS2: r ← r − α w, then σ₃ = r̃ᵀ r
        axpy_inplace(dev, INFO_BICGS2, grid, &mut ws.r, &ws.w, -alpha);
        let c3 = dot(dev, INFO_DOT, grid, &ws.r0t, &ws.r);

        // r̂ = M⁻¹ r, t = A r̂, (tᵀ r, tᵀ t) and σ₄ = r̃ᵀ t
        out.prec_iterations += ctx.recorder.stage("Preconditioner", || {
            prec.apply(ctx, &mut ws.r, &mut ws.r_hat)
        }) as u64;
        refresh_ghosts(ctx, scope, "MPI3", &mut ws.r_hat);
        ctx.lap.apply(dev, INFO_APPLY, &ws.r_hat, &mut ws.t);
        let (p1, p2) = dot2(dev, INFO_DOT, grid, &ws.t, &ws.r);
        let c4 = dot(dev, INFO_DOT, grid, &ws.r0t, &ws.t);
        let mut s = [p1, p2, c3, c4];
        global_sum(ctx, scope, "MPI4", &mut s);
        let [p1, p2, c3, c4] = s;
        if !(p1.is_finite() && p2.is_finite()) {
            out.breakdown = Some(Breakdown::NonFinite);
            break;
        }
        let omega = if p2 == T::ZERO { T::ZERO } else { p1 / p2 };
        let rho_new = c3 - omega * c4;

        // KernelBiCGS4a: x ← x + α p̂; KernelBiCGS5: r ← r − ω t with
        // ‖r‖²; KernelBiCGS4b: x ← x + ω r̂
        axpy_inplace(dev, INFO_BICGS4A, grid, x, &ws.p_hat, alpha);
        let (_, rnorm2) =
            residual_update_fused(dev, INFO_BICGS5, grid, &mut ws.r, &ws.t, omega, &ws.r0t);
        axpy_inplace(dev, INFO_BICGS4B, grid, x, &ws.r_hat, omega);
        let mut s = [rnorm2];
        global_sum(ctx, scope, "MPI5", &mut s);
        let res = s[0].to_f64().max(0.0).sqrt();
        out.final_residual = res;
        out.residual_history.push(res);
        if !res.is_finite() {
            out.breakdown = Some(Breakdown::NonFinite);
            break;
        }
        if res < tol {
            out.converged = true;
            break;
        }
        if rho_new == T::ZERO {
            out.breakdown = Some(Breakdown::RhoZero);
            break;
        }
        if omega == T::ZERO {
            out.breakdown = Some(Breakdown::OmegaZero);
            break;
        }

        // KernelBiCGS6: p ← r + β (p − ω w)
        let beta = (rho_new / rho) * (alpha / omega);
        rho = rho_new;
        axpy3_inplace(dev, INFO_BICGS6, grid, &mut ws.p, &ws.r, &ws.w, beta, omega);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicgstab::{bicgstab_solve, bicgstab_solve_batch, SolveParams};
    use crate::config::{SolverKind, SolverOptions};
    use crate::testutil::{bits, lane_systems, rng_values, scatter};
    use accel::{AnyDevice, Event, Recorder};
    use blockgrid::{BcKind, BlockGrid, Decomp, GlobalGrid};
    use comm::{run_ranks_recorded, ReduceOrder, ThreadComm};
    use proptest::prelude::*;

    /// What one rank reports from one solve of a generated case: per
    /// lane the outcome and the local solution.
    struct RankRun {
        outs: Vec<SolveOutcome>,
        xs: Vec<Vec<f64>>,
        allreduces: u64,
        events: Vec<Event>,
    }

    /// One generated world: grid, decomposition, back-end, solver.
    #[derive(Clone, Debug)]
    struct Case {
        global: GlobalGrid,
        decomp: [usize; 3],
        device: &'static str,
        kind: SolverKind,
        scope: Scope,
        seed: u64,
        /// Right-hand sides (seeds `seed`, `seed + 1000`, …): the
        /// production driver solves them together, one lane each; the
        /// reference solves each alone.
        lanes: usize,
        /// Chebyshev preconditioners sweep in `f32`
        /// ([`SolverOptions::mixed_precision`]).
        mixed_precision: bool,
    }

    impl Case {
        /// Solve on every rank with the production driver or the
        /// reference, from the same seeded right-hand sides.
        fn run(&self, production: bool, record: bool) -> Vec<RankRun> {
            let decomp = Decomp::new(self.decomp);
            let b_hosts: Vec<Vec<f64>> = (0..self.lanes as u64)
                .map(|l| rng_values(self.global.unknowns(), self.seed + 1000 * l))
                .collect();
            let bnorm: f64 = b_hosts[0].iter().map(|v| v * v).sum::<f64>().sqrt();
            let recorders = (0..decomp.ranks())
                .map(|_| {
                    if record {
                        Recorder::enabled()
                    } else {
                        Recorder::disabled()
                    }
                })
                .collect();
            run_ranks_recorded::<f64, _, _>(
                decomp.ranks(),
                ReduceOrder::RankOrder,
                recorders,
                |comm| {
                    let rec = comm.recorder().clone();
                    let grid = BlockGrid::new(self.global.clone(), decomp, comm.rank());
                    let dev = AnyDevice::from_spec(self.device, rec.clone()).unwrap();
                    let ctx: RankCtx<f64, _, ThreadComm<f64>> = RankCtx::new(dev, comm, grid);
                    let bs: Vec<Field<f64>> = b_hosts
                        .iter()
                        .map(|b| Field::from_interior(&ctx.dev, &ctx.grid, &scatter(&ctx.grid, b)))
                        .collect();
                    let mut xs: Vec<Field<f64>> = bs.iter().map(|_| ctx.field()).collect();
                    let mut wss: Vec<Workspace<f64>> = bs
                        .iter()
                        .map(|_| Workspace::new(&ctx.dev, &ctx.grid))
                        .collect();
                    // No λ_min inflation: generated blocks can be tiny,
                    // and a collapsed spectrum is not what is under test.
                    let opts = SolverOptions {
                        eig_min_factor: 1.0,
                        ci_iterations: 6,
                        inner_max_iters: 40,
                        mixed_precision: self.mixed_precision,
                        ..SolverOptions::default()
                    };
                    let mut precs: Vec<_> = bs
                        .iter()
                        .map(|_| self.kind.build_preconditioner(&ctx, &opts))
                        .collect();
                    let (tol, max_iters) = (1e-9 * bnorm, 200);
                    let params = SolveParams {
                        tol,
                        max_iters,
                        ..SolveParams::default()
                    };
                    rec.drain();
                    let before = ctx.comm.stats().allreduces;
                    let outs = if !production {
                        (0..self.lanes)
                            .map(|l| {
                                let (x, prec, ws) = (&mut xs[l], &mut *precs[l], &mut wss[l]);
                                bicgstab_reference(
                                    &ctx, self.scope, &bs[l], x, prec, ws, tol, max_iters,
                                )
                            })
                            .collect()
                    } else if self.lanes == 1 {
                        let (x, prec, ws) = (&mut xs[0], &mut *precs[0], &mut wss[0]);
                        vec![bicgstab_solve(
                            &ctx, self.scope, &bs[0], x, prec, ws, &params,
                        )]
                    } else {
                        // the lanes share lane 0's preconditioner
                        let lanes = lane_systems(&bs, &mut xs, &mut wss);
                        bicgstab_solve_batch(&ctx, self.scope, lanes, &mut *precs[0], &params)
                    };
                    RankRun {
                        outs,
                        xs: xs.iter().map(|x| x.interior_to_host(&ctx.grid)).collect(),
                        allreduces: ctx.comm.stats().allreduces - before,
                        events: rec.drain(),
                    }
                },
            )
        }
    }

    /// Extents covering primes, non-cubic boxes and 1-/2-cell-thick
    /// local blocks, with decompositions `[1,1,1] … [2,2,2]`. An axis
    /// whose blocks are too thin to mirror a Neumann face is Dirichlet;
    /// no axis is pure Neumann, so the operator stays non-singular.
    fn world() -> impl Strategy<Value = (GlobalGrid, [usize; 3])> {
        let extent = || prop_oneof![Just(2usize), Just(3), Just(4), Just(5), Just(7), Just(8)];
        let bc = || {
            prop_oneof![
                Just([BcKind::Dirichlet, BcKind::Neumann]),
                Just([BcKind::Neumann, BcKind::Dirichlet]),
                Just([BcKind::Dirichlet, BcKind::Dirichlet]),
            ]
        };
        (
            [extent(), extent(), extent()],
            [1usize..=2, 1usize..=2, 1usize..=2],
            [bc(), bc(), bc()],
        )
            .prop_map(|(n, decomp, mut bcs)| {
                for a in 0..3 {
                    if n[a] / decomp[a] < 2 {
                        bcs[a] = [BcKind::Dirichlet; 2];
                    }
                }
                let mut g = GlobalGrid::dirichlet(n, [0.15, 0.1, 0.2], [0.0; 3]);
                g.bc = bcs;
                (g, decomp)
            })
    }

    /// Solver kind and scope: the four kinds the production driver
    /// serves globally, and — block-restricted, where ranks iterate
    /// independently — the two whose preconditioner never communicates.
    fn solver() -> impl Strategy<Value = (SolverKind, Scope)> {
        prop_oneof![
            Just((SolverKind::BiCgs, Scope::Global)),
            Just((SolverKind::BiCgsBjCi, Scope::Global)),
            Just((SolverKind::BiCgsGCi, Scope::Global)),
            Just((SolverKind::FBiCgsGBiCgs, Scope::Global)),
            Just((SolverKind::BiCgs, Scope::Local)),
            Just((SolverKind::BiCgsBjCi, Scope::Local)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The production schedule — fused sweeps, lanes-wide halos,
        /// lagged two-message reductions, whichever of them the world
        /// calls for, over one lane or several, with `f64` or `f32`
        /// Chebyshev sweeps — reproduces, lane by lane, the reference run
        /// on that right-hand side alone bit for bit on every rank, and
        /// on a multi-rank world each side ships exactly its advertised
        /// number of reduction messages.
        #[test]
        fn production_matches_reference_bitwise(
            (global, decomp) in world(),
            device in prop_oneof![Just("serial"), Just("threads:2"), Just("simgpu:4")],
            (kind, scope) in solver(),
            seed in 0u64..1000,
            lanes in 1usize..=3,
            mixed_precision in prop_oneof![Just(false), Just(true)],
        ) {
            // every block needs a spectrum with two distinct eigenvalues
            prop_assume!((0..3).any(|a| global.n[a] / decomp[a] >= 2));
            let case = Case { global, decomp, device, kind, scope, seed, lanes, mixed_precision };
            let reference = case.run(false, false);
            let production = case.run(true, false);
            let ranks = reference.len();
            let reduction_free = kind.prec_traits().is_none_or(|t| t.reduction_free);
            for (rank, (r, p)) in reference.iter().zip(&production).enumerate() {
                for lane in 0..lanes {
                    let tag = format!("{case:?} rank {rank} lane {lane}");
                    let (ro, po) = (&r.outs[lane], &p.outs[lane]);
                    prop_assert_eq!(ro.converged, po.converged, "{}", tag);
                    prop_assert_eq!(ro.breakdown, po.breakdown, "{}", tag);
                    prop_assert_eq!(ro.iterations, po.iterations, "{}", tag);
                    prop_assert_eq!(
                        bits(&ro.residual_history),
                        bits(&po.residual_history),
                        "{}: residual histories diverge", tag
                    );
                    prop_assert_eq!(
                        bits(&r.xs[lane]), bits(&p.xs[lane]), "{}: solutions diverge", tag
                    );
                }
                let tag = format!("{case:?} rank {rank}");
                let clean = r.outs.iter().all(|o| o.breakdown.is_none());
                if scope == Scope::Local {
                    prop_assert_eq!((r.allreduces, p.allreduces), (0, 0), "{}", tag);
                } else if ranks > 1 && reduction_free && clean {
                    // the lanes share every message: production pays for
                    // its longest lane, the reference for each in turn
                    let iters = r.outs.iter().map(|o| o.iterations as u64);
                    let longest = iters.clone().max().unwrap();
                    prop_assert_eq!(p.allreduces, 2 * longest + 2, "{}: production", tag);
                    let solo: u64 = iters.map(|i| 3 * i + 1).sum();
                    prop_assert_eq!(r.allreduces, solo, "{}: reference", tag);
                }
            }
        }
    }

    /// Launches of kernel `name` in an event stream.
    fn launches(events: &[Event], name: &str) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, Event::Kernel { name: n, .. } if *n == name))
            .count()
    }

    /// Halo exchanges in an event stream, each one `Event::Halo`.
    fn exchanges(events: &[Event]) -> usize {
        events
            .iter()
            .filter(|e| matches!(e, Event::Halo { .. }))
            .count()
    }

    /// The halo schedule, read off real event streams: every operator
    /// application — Bi-CGSTAB's and each Chebyshev sweep of `G(CI)` —
    /// exchanges first, then sweeps the whole interior in one launch,
    /// whatever the world. A `Scope::Local` solve exchanges nothing.
    #[test]
    fn halo_schedule_follows_the_interface_faces() {
        let mut global = GlobalGrid::dirichlet([8, 8, 8], [0.15; 3], [0.0; 3]);
        global.bc = crate::testutil::paper_bcs();
        let case = |decomp| Case {
            global: global.clone(),
            decomp,
            device: "serial",
            kind: SolverKind::BiCgsGCi,
            scope: Scope::Global,
            seed: 7,
            lanes: 1,
            mixed_precision: false,
        };

        let single = &case([1, 1, 1]).run(true, true)[0];
        let iters = single.outs[0].iterations;
        assert!(single.outs[0].converged && iters > 0, "{:?}", single.outs);
        let ev = &single.events;
        assert_eq!(launches(ev, "KernelBiCGS1"), iters);
        assert_eq!(launches(ev, "KernelBiCGS3F"), iters);
        // 6 CI sweeps per application, two applications per iteration
        assert_eq!(launches(ev, "KernelCI1"), 2 * iters);
        assert_eq!(launches(ev, "KernelCI2"), 2 * iters * 5);
        // every one of them, and every Bi-CGSTAB application, runs its
        // (empty) exchange first
        assert_eq!(exchanges(ev), 6 * 2 * iters + 2 * iters + 1);

        for run in case([2, 1, 1]).run(true, true) {
            // the lag speculates one preconditioner application and one
            // KernelBiCGS1 sweep past the converged iteration
            let (iters, ev) = (run.outs[0].iterations, &run.events);
            assert!(run.outs[0].converged, "{:?}", run.outs);
            // the fused sweeps run after their exchange, one launch each
            assert_eq!(launches(ev, "KernelBiCGS1"), iters + 1);
            assert_eq!(launches(ev, "KernelBiCGS3F"), iters);
            // so does every Chebyshev sweep: 6 per application, two
            // applications per iteration plus the speculated one
            assert_eq!(launches(ev, "KernelCI1"), 2 * iters + 1);
            assert_eq!(launches(ev, "KernelCI2"), 5 * (2 * iters + 1));
            // one exchange per Chebyshev sweep, per fused sweep and for
            // the set-up residual
            assert_eq!(exchanges(ev), 6 * (2 * iters + 1) + 2 * iters + 2);
            // the x-update rides in the residual sweep under a real
            // preconditioner on two ranks too: nothing runs under M1
            assert_eq!(launches(ev, "KernelBiCGS456"), iters);
            assert_eq!(
                launches(ev, "KernelBiCGS4") + launches(ev, "KernelBiCGS56"),
                0
            );
        }

        let local = Case {
            kind: SolverKind::BiCgs,
            scope: Scope::Local,
            ..case([2, 1, 1])
        };
        for run in local.run(true, true) {
            let (iters, ev) = (run.outs[0].iterations, &run.events);
            assert!(run.outs[0].converged && iters > 0, "{:?}", run.outs);
            assert_eq!(exchanges(ev), 0);
            assert_eq!(launches(ev, "KernelBiCGS1"), iters);
            assert_eq!(launches(ev, "KernelBiCGS3F"), iters);
        }
    }
}

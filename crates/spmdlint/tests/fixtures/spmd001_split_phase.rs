//! SPMD001 fixture: split-phase begins that miss their finish on some
//! path. Analyzed under a non-test `src/` rel path by tests/fixtures.rs;
//! inline `EXPECT` markers name the exact line each finding anchors to.

pub fn dropped_on_early_return(comm: &Comm, flag: bool) -> f64 {
    let req = comm.iall_reduce(&[1.0]); // EXPECT: SPMD001
    if flag {
        return 0.0; // leaves `req` unfinished
    }
    let mut out = [0.0];
    comm.reduce_finish(req, &mut out);
    out[0]
}

pub fn finished_on_one_branch_only(ctx: &Ctx, split: bool) {
    let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, &ctx.u); // EXPECT: SPMD001
    if split {
        ctx.halo.finish(&ctx.dev, &ctx.comm, pending, &mut ctx.u);
    }
    // fallthrough arm drops the exchange
}

pub fn borrowed_but_never_finished(ctx: &Ctx) -> u8 {
    let pending = ctx.halo.begin(&ctx.dev, &ctx.comm, &ctx.u); // EXPECT: SPMD001
    pending.faces()
}

pub fn properly_paired_is_clean(comm: &Comm, flag: bool) -> f64 {
    let req = comm.iall_reduce(&[1.0]);
    let mut out = [0.0];
    if flag {
        comm.reduce_finish(req, &mut out);
    } else {
        comm.reduce_finish(req, &mut out);
    }
    out[0]
}

pub fn annotated_is_clean(comm: &Comm) {
    // LINT: split-phase-ok(fixture: deliberately dropped request)
    let req = comm.iall_reduce(&[1.0]);
}

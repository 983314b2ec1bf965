//! SPMD003 — allocation in registered hot functions.
//!
//! The steady-state solve path is required to be allocation-free (the
//! runtime counting-allocator audits in `solve_zero_alloc.rs` /
//! `threads_zero_alloc.rs` / `halo_zero_alloc.rs` enforce it dynamically). This pass turns the
//! same contract into a static gate: inside the registered hot functions
//! any allocating construct — `Vec::new`, `vec![…]`, `Box::new`,
//! `format!`, `String::from`, `.to_vec()`, `.to_owned()`,
//! `.to_string()`, `.collect()`, `.clone()` — is a finding unless the
//! line carries `// LINT: alloc-ok(<reason>)` (e.g. a cold-path fallback
//! or setup code executed once).
//!
//! The registry matches by name, so a refactor that renames or deletes a
//! registered function would silently drop it out of the gate: an entry
//! that names no non-test `fn` in its file (or whose file is gone) is
//! itself an SPMD003 finding.

use std::path::Path;

use crate::tree::{FnItem, Tree};
use crate::{Finding, SrcInfo};

/// `(path suffix, fn name)` pairs forming the hot registry: the
/// steady-state set audited by the zero-alloc runtime tests.
pub const HOT_FUNCTIONS: &[(&str, &str)] = &[
    // The one Bi-CGSTAB driver loop (`LaneGroup::solve`), its two entry
    // points and its helpers. The n-lane entry allocates its lane records
    // and its result once per solve, outside the loop (`alloc-ok`).
    ("crates/krylov/src/bicgstab.rs", "bicgstab_solve"),
    ("crates/krylov/src/bicgstab.rs", "bicgstab_solve_batch"),
    ("crates/krylov/src/bicgstab.rs", "solve"),
    ("crates/krylov/src/bicgstab.rs", "form_residual"),
    ("crates/krylov/src/bicgstab.rs", "restart_or_stop"),
    ("crates/krylov/src/bicgstab.rs", "finish_iteration"),
    ("crates/krylov/src/bicgstab.rs", "stop_cancelled"),
    ("crates/krylov/src/bicgstab.rs", "refresh_ghosts"),
    ("crates/krylov/src/bicgstab.rs", "refresh_lanes"),
    ("crates/krylov/src/bicgstab.rs", "refresh_and_apply"),
    ("crates/krylov/src/bicgstab.rs", "apply_dots"),
    ("crates/krylov/src/bicgstab.rs", "dot_operands"),
    ("crates/krylov/src/bicgstab.rs", "global_sum"),
    ("crates/krylov/src/bicgstab.rs", "members"),
    ("crates/krylov/src/bicgstab.rs", "pick_mut"),
    ("crates/krylov/src/bicgstab.rs", "push"),
    ("crates/krylov/src/bicgstab.rs", "of"),
    ("crates/krylov/src/bicgstab.rs", "new"),
    // Fused vector kernels.
    ("crates/krylov/src/kernels.rs", "axpy_inplace"),
    ("crates/krylov/src/kernels.rs", "axpy2_chained_inplace"),
    ("crates/krylov/src/kernels.rs", "axpy3_inplace"),
    ("crates/krylov/src/kernels.rs", "axpy_dot"),
    ("crates/krylov/src/kernels.rs", "axpy_dot_batch"),
    ("crates/krylov/src/kernels.rs", "norm2_axpy"),
    ("crates/krylov/src/kernels.rs", "norm2_axpy_batch"),
    ("crates/krylov/src/kernels.rs", "residual_p_update_fused"),
    ("crates/krylov/src/kernels.rs", "residual_update_fused"),
    (
        "crates/krylov/src/kernels.rs",
        "x_residual_p_update_fused_batch",
    ),
    ("crates/krylov/src/kernels.rs", "x_row"),
    ("crates/krylov/src/kernels.rs", "rp_row"),
    ("crates/krylov/src/kernels.rs", "r_row"),
    ("crates/krylov/src/kernels.rs", "dot"),
    ("crates/krylov/src/kernels.rs", "dot2"),
    ("crates/krylov/src/kernels.rs", "diff_norm2"),
    ("crates/krylov/src/kernels.rs", "norm2_local"),
    ("crates/krylov/src/kernels.rs", "cast"),
    // Chebyshev preconditioner inner loop (either sweep width).
    ("crates/krylov/src/cheby.rs", "solve"),
    ("crates/krylov/src/cheby.rs", "sweeps"),
    ("crates/krylov/src/cheby.rs", "info"),
    ("crates/krylov/src/cheby.rs", "rotation"),
    ("crates/krylov/src/cheby.rs", "refresh"),
    ("crates/krylov/src/cheby.rs", "sweep"),
    // The comm-free Serial z-plane wavefront, its plane-ranged ghost
    // refresh, and the mute that keeps its events logical.
    ("crates/krylov/src/cheby.rs", "wavefront"),
    ("crates/stencil/src/laplacian.rs", "apply_physical_bcs"),
    (
        "crates/stencil/src/laplacian.rs",
        "apply_physical_bcs_planes",
    ),
    ("crates/stencil/src/laplacian.rs", "physical_faces"),
    ("crates/stencil/src/laplacian.rs", "physical_bc_elems"),
    ("crates/accel/src/events.rs", "muted"),
    // The sweep families: plain and combine over a `Part`, and the
    // lanes-wide fused dots.
    ("crates/stencil/src/laplacian.rs", "apply"),
    ("crates/stencil/src/laplacian.rs", "apply_part"),
    ("crates/stencil/src/laplacian.rs", "apply_interior"),
    ("crates/stencil/src/laplacian.rs", "apply_shell"),
    ("crates/stencil/src/laplacian.rs", "apply_combine"),
    ("crates/stencil/src/laplacian.rs", "for_each_map"),
    ("crates/stencil/src/laplacian.rs", "sweep"),
    ("crates/stencil/src/laplacian.rs", "apply_fused_dot"),
    ("crates/stencil/src/laplacian.rs", "apply_fused_dots"),
    // The 7-point row core every sweep above runs through: the run bodies
    // (one arm pick per run, the row loop inside) and the row arithmetic.
    ("crates/stencil/src/laplacian.rs", "row_core"),
    ("crates/stencil/src/laplacian.rs", "avx2_detected"),
    ("crates/stencil/src/laplacian.rs", "stencil_run"),
    ("crates/stencil/src/laplacian.rs", "stencil_run_avx2"),
    ("crates/stencil/src/laplacian.rs", "stencil_run_portable"),
    ("crates/stencil/src/laplacian.rs", "stencil_row"),
    // Halo pack/unpack, the blocking lanes-wide exchange and its
    // begin/finish halves.
    ("crates/blockgrid/src/halo.rs", "pack_face"),
    ("crates/blockgrid/src/halo.rs", "unpack_face"),
    ("crates/blockgrid/src/halo.rs", "acquire"),
    ("crates/blockgrid/src/halo.rs", "recycle"),
    ("crates/blockgrid/src/halo.rs", "assert_shape"),
    ("crates/blockgrid/src/halo.rs", "begin_impl"),
    ("crates/blockgrid/src/halo.rs", "finish_impl"),
    ("crates/blockgrid/src/halo.rs", "begin"),
    ("crates/blockgrid/src/halo.rs", "finish"),
    ("crates/blockgrid/src/halo.rs", "exchange_lanes"),
    ("crates/blockgrid/src/halo.rs", "exchange"),
    // Narrow (f32) faces: in-place compaction into wire words.
    ("crates/blockgrid/src/halo.rs", "to_wire"),
    ("crates/blockgrid/src/halo.rs", "from_wire"),
    // ThreadComm collective engine.
    ("crates/comm/src/thread_comm.rs", "collective_begin"),
    ("crates/comm/src/thread_comm.rs", "collective_finish"),
    ("crates/comm/src/thread_comm.rs", "collective_exchange"),
    ("crates/comm/src/thread_comm.rs", "await_round"),
    ("crates/comm/src/thread_comm.rs", "all_reduce"),
    ("crates/comm/src/thread_comm.rs", "barrier"),
    ("crates/comm/src/thread_comm.rs", "iall_reduce"),
    ("crates/comm/src/thread_comm.rs", "reduce_finish"),
    // The run launch of every back-end, the run geometry and the per-row
    // wrappers every element-wise kernel launches through. SimGpu books
    // one partial slot per simulated thread block (`alloc-ok`).
    ("crates/accel/src/device/mod.rs", "launch_rows_reduce"),
    ("crates/accel/src/device/mod.rs", "launch_reduce"),
    ("crates/accel/src/device/mod.rs", "launch_lanes_reduce"),
    ("crates/accel/src/device/mod.rs", "launch_lanes_n_reduce"),
    ("crates/accel/src/device/mod.rs", "validate_runs"),
    ("crates/accel/src/index.rs", "runs"),
    ("crates/accel/src/index.rs", "from_raw"),
    ("crates/accel/src/index.rs", "take"),
    ("crates/accel/src/index.rs", "rows_n"),
    ("crates/accel/src/device/serial.rs", "launch_runs"),
    ("crates/accel/src/device/serial.rs", "launch_reduce"),
    ("crates/accel/src/device/simgpu.rs", "launch_runs"),
    // Threads back-end: every launch, its stack-slot sweep and the team's
    // hand-off (job slot, countdown, spin-then-park) — no per-launch heap.
    ("crates/accel/src/device/threads.rs", "launch_runs"),
    ("crates/accel/src/device/threads.rs", "launch_reduce"),
    ("crates/accel/src/device/threads.rs", "sweep"),
    ("crates/accel/src/pool.rs", "run_chunks"),
    ("crates/accel/src/pool.rs", "run_owned"),
    ("crates/accel/src/pool.rs", "publish"),
    ("crates/accel/src/pool.rs", "next_epoch"),
    ("crates/accel/src/pool.rs", "acknowledge"),
    ("crates/accel/src/pool.rs", "wait_acknowledged"),
    ("crates/accel/src/pool.rs", "serve"),
    ("crates/accel/src/spin_park.rs", "wait"),
    ("crates/accel/src/spin_park.rs", "wake"),
];

/// Method names whose call allocates an owning container.
const ALLOC_METHODS: &[&str] = &["to_vec", "to_owned", "to_string", "collect", "clone"];

/// Run SPMD003 over the registered hot functions of a file.
pub fn check(src: &SrcInfo<'_>, fns: &[FnItem], findings: &mut Vec<Finding>) {
    let hot: Vec<&str> = HOT_FUNCTIONS
        .iter()
        .filter(|(suffix, _)| src.rel.ends_with(suffix))
        .map(|(_, name)| *name)
        .collect();
    if hot.is_empty() {
        return;
    }
    let stale: Vec<&str> = hot
        .iter()
        .copied()
        .filter(|name| !fns.iter().any(|f| !f.is_test && f.name == *name))
        .collect();
    if !stale.is_empty() {
        findings.push(Finding {
            code: "SPMD003",
            path: src.rel.to_string(),
            line: 1,
            message: format!(
                "stale hot-registry entries: no fn `{}` in this file — renamed or deleted? \
                 Update HOT_FUNCTIONS in crates/spmdlint/src/hotalloc.rs so the code stays \
                 gated",
                stale.join("`, `")
            ),
        });
    }
    for f in fns
        .iter()
        .filter(|f| !f.is_test && hot.contains(&f.name.as_str()))
    {
        scan(src, &f.name, &f.body, findings);
    }
}

/// Workspace half of the stale-entry check: every registered file must
/// still exist ([`check`] only sees files that do).
pub fn audit_registry_files(root: &Path, findings: &mut Vec<Finding>) {
    let mut missing: Vec<&str> = HOT_FUNCTIONS
        .iter()
        .map(|(rel, _)| *rel)
        .filter(|rel| !root.join(rel).is_file())
        .collect();
    missing.sort_unstable();
    missing.dedup();
    for rel in missing {
        findings.push(Finding {
            code: "SPMD003",
            path: rel.to_string(),
            line: 1,
            message: "stale hot-registry entries: file not found (moved or deleted? \
                      Update HOT_FUNCTIONS in crates/spmdlint/src/hotalloc.rs)"
                .to_string(),
        });
    }
}

fn scan(src: &SrcInfo<'_>, fn_name: &str, items: &[Tree], findings: &mut Vec<Finding>) {
    let mut i = 0;
    while i < items.len() {
        let t = &items[i];
        // Nested fn bodies are scanned under their own names only if
        // registered — skip them here.
        if t.is_ident("fn") {
            let mut j = i + 1;
            while j < items.len() && !items[j].is_punct(b';') && !items[j].is_group(b'{') {
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if let Some(what) = alloc_at(items, i) {
            let line = t.line();
            if !src.annotated(line, "alloc-ok") {
                findings.push(Finding {
                    code: "SPMD003",
                    path: src.rel.to_string(),
                    line,
                    message: format!(
                        "`{what}` allocates inside hot function `{fn_name}` (zero-alloc \
                         steady-state registry); hoist it to setup, use a pooled buffer, \
                         or annotate `// LINT: alloc-ok(<reason>)`"
                    ),
                });
            }
        }
        if let Tree::Group { items: g, .. } = t {
            scan(src, fn_name, g, findings);
        }
        i += 1;
    }
}

/// Identify an allocating construct at `items[at]`, returning a display
/// name.
fn alloc_at(items: &[Tree], at: usize) -> Option<String> {
    let name = items[at].ident()?;
    let next = items.get(at + 1);
    let prev = at.checked_sub(1).map(|p| &items[p]);
    let prev2 = at.checked_sub(2).map(|p| &items[p]);

    // vec![…] / format!(…)
    if matches!(name, "vec" | "format") && matches!(next, Some(n) if n.is_punct(b'!')) {
        return Some(format!("{name}!"));
    }
    // Vec::new / Vec::with_capacity / Vec::from / Box::new / String::from /
    // String::new — match the *second* path segment with `::` before it.
    if matches!(name, "new" | "with_capacity" | "from")
        && matches!(prev, Some(p) if p.is_punct(b':'))
        && matches!(prev2, Some(p) if p.is_punct(b':'))
    {
        if let Some(owner) = at.checked_sub(3).and_then(|p| items[p].ident()) {
            if matches!(
                owner,
                "Vec" | "Box" | "String" | "VecDeque" | "HashMap" | "BTreeMap"
            ) {
                return Some(format!("{owner}::{name}"));
            }
        }
    }
    // .to_vec() / .collect() / .clone() …
    if ALLOC_METHODS.contains(&name)
        && matches!(prev, Some(p) if p.is_punct(b'.'))
        && matches!(next, Some(n) if n.is_group(b'('))
    {
        return Some(format!(".{name}()"));
    }
    None
}

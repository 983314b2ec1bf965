//! Seeded-mutation guard: apply each fixture mutation to a scratch copy
//! of the *real* source file and assert spmdlint reports the expected
//! code at the expected line — so the analyzer cannot rot into a no-op
//! while the gate stays green.
//!
//! Line numbers are located dynamically (by searching for the mutated
//! statement), so the tests survive unrelated edits to the sources.

use std::path::PathBuf;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/spmdlint sits two levels below the repo root")
        .to_path_buf()
}

fn load(rel: &str) -> String {
    let path = repo_root().join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// 1-based line number of the first line containing `needle`.
fn line_of(text: &str, needle: &str) -> u32 {
    (text
        .lines()
        .position(|l| l.contains(needle))
        .unwrap_or_else(|| panic!("pattern {needle:?} not found — update the mutation test"))
        + 1) as u32
}

fn findings_with(rel: &str, text: &str, code: &str) -> Vec<(u32, String)> {
    spmdlint::analyze_source(rel, text)
        .into_iter()
        .filter(|f| f.code == code)
        .map(|f| (f.line, f.message))
        .collect()
}

#[test]
fn unmutated_sources_are_clean() {
    for rel in [
        "crates/krylov/src/bicgstab.rs",
        "crates/krylov/src/kernels.rs",
        "crates/krylov/src/cheby.rs",
        "crates/serve/src/service.rs",
        "crates/serve/src/scheduler.rs",
        "crates/comm/src/thread_comm.rs",
        "crates/blockgrid/src/halo.rs",
        "crates/stencil/src/laplacian.rs",
        "crates/accel/src/pool.rs",
        "crates/accel/src/index.rs",
        "crates/accel/src/device/mod.rs",
        "crates/accel/src/device/serial.rs",
        "crates/accel/src/device/simgpu.rs",
        "crates/accel/src/device/threads.rs",
        "crates/accel/src/events.rs",
    ] {
        let findings = spmdlint::analyze_source(rel, &load(rel));
        assert!(
            findings.is_empty(),
            "{rel} must be finding-free before mutation: {findings:?}"
        );
    }
}

#[test]
fn rank_guarded_collective_is_caught_spmd002() {
    let rel = "crates/krylov/src/bicgstab.rs";
    let text = load(rel);
    // Mutation: make the blocking halo exchange of refresh_ghosts
    // conditional on being rank 0.
    let guard = "if scope == Scope::Global {";
    let cond_line = line_of(&text, guard);
    let mutant = text.replacen(
        guard,
        "if scope == Scope::Global && ctx.comm.rank() == 0 {",
        1,
    );
    let found = findings_with(rel, &mutant, "SPMD002");
    assert!(
        found
            .iter()
            .any(|(_, m)| m.contains(&format!("line {cond_line}"))),
        "expected SPMD002 naming condition line {cond_line}, got {found:?}"
    );
}

#[test]
fn hot_path_allocation_is_caught_spmd003() {
    let rel = "crates/krylov/src/kernels.rs";
    let text = load(rel);
    // Mutation: allocate a scratch Vec at the top of axpy_inplace.
    let sig = line_of(&text, "pub fn axpy_inplace<T: Scalar, D: Device>(");
    let open = text
        .lines()
        .enumerate()
        .skip(sig as usize - 1)
        .find(|(_, l)| l.trim_end().ends_with('{'))
        .map(|(i, _)| i + 1)
        .expect("axpy_inplace opening brace");
    let inject = (open + 1) as u32;
    let mutant: Vec<&str> = text.lines().collect();
    let mut lines: Vec<String> = mutant.iter().map(|s| s.to_string()).collect();
    lines[open] = format!("    let scratch: Vec<T> = Vec::new(); {}", lines[open]);
    let mutant = lines.join("\n");
    let found = findings_with(rel, &mutant, "SPMD003");
    assert!(
        found
            .iter()
            .any(|(l, m)| *l == inject && m.contains("Vec::new")),
        "expected SPMD003 at injected line {inject}, got {found:?}"
    );
}

#[test]
fn pool_launch_allocation_is_caught_spmd003() {
    // Mutation: a per-launch partials `vec!` planted in the pool's launch
    // path.
    let rel = "crates/accel/src/pool.rs";
    let text = load(rel);
    let anchor = "let _turn = self.submit.lock();";
    let inject = line_of(&text, anchor);
    let mutant = text.replacen(
        anchor,
        "let _partials = vec![0.0f64; chunks]; let _turn = self.submit.lock();",
        1,
    );
    let found = findings_with(rel, &mutant, "SPMD003");
    assert!(
        found
            .iter()
            .any(|(l, m)| *l == inject && m.contains("vec!") && m.contains("run_chunks")),
        "expected SPMD003 in run_chunks at line {inject}, got {found:?}"
    );
}

#[test]
fn wavefront_allocation_is_caught_spmd003() {
    // Mutation: a per-plane scratch `vec!` planted in the Chebyshev
    // z-plane wavefront.
    let rel = "crates/krylov/src/cheby.rs";
    let text = load(rel);
    let anchor = "let (lo, hi) = (block * height, ((block + 1) * height).min(nz));";
    let inject = line_of(&text, anchor);
    let mutant = text.replacen(
        anchor,
        "let planes = block * height..((block + 1) * height).min(nz); \
         let _plane = vec![E::ZERO; nz];",
        1,
    );
    let found = findings_with(rel, &mutant, "SPMD003");
    assert!(
        found
            .iter()
            .any(|(l, m)| *l == inject && m.contains("vec!") && m.contains("`wavefront`")),
        "expected SPMD003 in wavefront at line {inject}, got {found:?}"
    );
}

#[test]
fn run_body_allocation_is_caught_spmd003() {
    // Mutation: a per-run `vec!` planted in the stencil run body
    // every sweep's rows go through.
    let rel = "crates/stencil/src/laplacian.rs";
    let text = load(rel);
    let anchor = "let span = (run.js.len() - 1) * sy + n;";
    let inject = line_of(&text, anchor);
    let mutant = text.replacen(
        anchor,
        "let span = (run.js.len() - 1) * sy + n; let _rows = vec![T::ZERO; span];",
        1,
    );
    let found = findings_with(rel, &mutant, "SPMD003");
    assert!(
        found.iter().any(|(l, m)| *l == inject
            && m.contains("vec!")
            && m.contains("`stencil_run_portable`")),
        "expected SPMD003 in stencil_run_portable at line {inject}, got {found:?}"
    );
}

#[test]
fn renamed_hot_function_is_caught_spmd003() {
    // The registry matches by name: a refactor that renames a registered
    // function must surface as a finding, not silently ungate it.
    let rel = "crates/krylov/src/bicgstab.rs";
    let text = load(rel);
    line_of(&text, "fn refresh_and_apply(");
    let mutant = text.replacen("fn refresh_and_apply(", "fn refresh_then_apply(", 1);
    let found = findings_with(rel, &mutant, "SPMD003");
    assert!(
        found
            .iter()
            .any(|(_, m)| m.contains("stale hot-registry entries")
                && m.contains("`refresh_and_apply`")),
        "expected a stale-entry SPMD003 for refresh_and_apply, got {found:?}"
    );
}

#[test]
fn registry_entries_without_a_definition_are_findings() {
    // A hot-registry file that no longer exists is reported once.
    let mut found = Vec::new();
    spmdlint::hotalloc::audit_registry_files(&repo_root().join("crates/spmdlint"), &mut found);
    assert!(
        found
            .iter()
            .filter(|f| f.path == "crates/krylov/src/bicgstab.rs")
            .count()
            == 1,
        "{found:?}"
    );
    let mut found = Vec::new();
    spmdlint::hotalloc::audit_registry_files(&repo_root(), &mut found);
    assert!(found.is_empty(), "{found:?}");
}

#[test]
fn fresh_unwrap_in_serve_is_caught_spmd004() {
    let rel = "crates/serve/src/service.rs";
    let text = load(rel);
    let anchor = line_of(&text, "fn worker_loop");
    let open = text
        .lines()
        .enumerate()
        .skip(anchor as usize - 1)
        .find(|(_, l)| l.trim_end().ends_with('{'))
        .map(|(i, _)| i + 1)
        .expect("worker_loop opening brace");
    let inject = (open + 1) as u32;
    let mut lines: Vec<String> = text.lines().map(|s| s.to_string()).collect();
    lines[open] = format!("    let _poke = None::<usize>.unwrap(); {}", lines[open]);
    let mutant = lines.join("\n");
    let found = findings_with(rel, &mutant, "SPMD004");
    assert!(
        found
            .iter()
            .any(|(l, m)| *l == inject && m.contains(".unwrap()")),
        "expected SPMD004 at injected line {inject}, got {found:?}"
    );
}

#[test]
fn stripped_must_use_is_caught_spmd006() {
    // Seeded mutation: a ReduceRequest declaration stripped of its
    // `#[must_use]` marker must produce a finding, and the marked form
    // must not — the lint reads the attribute, not just the type name.
    let dir = std::env::temp_dir().join(format!("spmdlint-mustuse-{}", std::process::id()));
    let file = dir.join("crates/comm/src/types.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();

    std::fs::write(&file, "pub struct ReduceRequest<T: Scalar> {}\n").unwrap();
    let mut findings = Vec::new();
    spmdlint::must_use::audit_must_use(&dir, &mut findings);
    assert!(
        findings
            .iter()
            .any(|f| f.code == "SPMD006" && f.message.contains("ReduceRequest must be")),
        "unmarked mutant not caught: {findings:?}"
    );

    std::fs::write(
        &file,
        "#[must_use = \"finish the reduction\"]\npub struct ReduceRequest<T: Scalar> {}\n",
    )
    .unwrap();
    let mut findings = Vec::new();
    spmdlint::must_use::audit_must_use(&dir, &mut findings);
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("ReduceRequest must be")),
        "marked declaration flagged: {findings:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stripped_generic_halo_must_use_is_caught_spmd006() {
    // Same mutation for the width-generic halo handle: the registry entry
    // must find `PendingExchange` through its type parameter list.
    let dir = std::env::temp_dir().join(format!("spmdlint-mustuse-halo-{}", std::process::id()));
    let file = dir.join("crates/blockgrid/src/halo.rs");
    std::fs::create_dir_all(file.parent().unwrap()).unwrap();

    std::fs::write(&file, "pub struct PendingExchange<E: Scalar> {}\n").unwrap();
    let mut findings = Vec::new();
    spmdlint::must_use::audit_must_use(&dir, &mut findings);
    assert!(
        findings
            .iter()
            .any(|f| f.code == "SPMD006"
                && f.message.contains("PendingExchange must be #[must_use]")),
        "unmarked mutant not caught: {findings:?}"
    );

    std::fs::write(
        &file,
        "#[must_use = \"finish the exchange\"]\npub struct PendingExchange<E: Scalar> {}\n",
    )
    .unwrap();
    let mut findings = Vec::new();
    spmdlint::must_use::audit_must_use(&dir, &mut findings);
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("PendingExchange")),
        "marked declaration flagged: {findings:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

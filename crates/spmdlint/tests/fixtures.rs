//! Fixture driver: every deliberately-broken file under
//! `tests/fixtures/` must produce *exactly* the findings marked inline
//! with `// EXPECT: <code>` — same stable code, same line, and nothing
//! else. The clean companion functions in each fixture double as
//! false-positive regression tests (balanced arms, typed errors,
//! annotation escapes).
//!
//! The rel path each fixture is analyzed under selects the per-path
//! registries (hot functions, serve request paths, unsafe allowlist);
//! `run_workspace` itself skips `tests/fixtures/`, so these files never
//! gate the real workspace.

use std::path::PathBuf;

fn fixture_text(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(line, code)` expectations parsed from `// EXPECT: <code>` markers.
fn expectations(text: &str) -> Vec<(u32, String)> {
    text.lines()
        .enumerate()
        .filter_map(|(i, l)| {
            l.split("EXPECT: ")
                .nth(1)
                .map(|code| ((i + 1) as u32, code.trim().to_string()))
        })
        .collect()
}

fn assert_exact(name: &str, rel: &str) {
    let text = fixture_text(name);
    let mut want = expectations(&text);
    assert!(
        !want.is_empty(),
        "fixture {name} has no EXPECT markers — not testing anything"
    );
    let mut got: Vec<(u32, String)> = spmdlint::analyze_source(rel, &text)
        .into_iter()
        .map(|f| (f.line, f.code.to_string()))
        .collect();
    want.sort();
    got.sort();
    assert_eq!(
        got, want,
        "fixture {name} (analyzed as {rel}): findings must match the EXPECT markers exactly"
    );
}

#[test]
fn spmd001_split_phase_fires_at_the_begin_line() {
    assert_exact("spmd001_split_phase.rs", "crates/krylov/src/fixture.rs");
}

#[test]
fn spmd002_divergence_fires_at_the_collective_line() {
    assert_exact("spmd002_divergence.rs", "crates/comm/src/fixture.rs");
}

#[test]
fn spmd003_hotalloc_fires_only_in_registered_functions() {
    // Analyzed as the real kernels.rs path so the fixture's
    // `axpy_inplace`/`dot`/`cast` land on the hot registry.
    assert_exact("spmd003_hotalloc.rs", "crates/krylov/src/kernels.rs");
}

#[test]
fn spmd004_panic_hygiene_fires_on_the_serve_path_only() {
    assert_exact("spmd004_panic.rs", "crates/serve/src/fixture.rs");
    // The same source outside crates/serve/src/ is not on a request
    // path and must be silent.
    let text = fixture_text("spmd004_panic.rs");
    let findings = spmdlint::analyze_source("crates/krylov/src/fixture.rs", &text);
    assert!(
        findings.is_empty(),
        "panic hygiene must be scoped to serve: {findings:?}"
    );
}

#[test]
fn spmd005_unsafe_outside_the_allowlist_fires() {
    assert_exact("spmd005_unsafe.rs", "crates/krylov/src/fixture.rs");
}

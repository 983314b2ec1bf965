//! SPMD005–SPMD007 — the checks migrated from the original `xtask lint`
//! pass, now running on the shared lexer.
//!
//! - **SPMD005** unsafe allowlist: `unsafe` may appear only in the
//!   modules listed in [`UNSAFE_ALLOWLIST`], each occurrence documented
//!   by a nearby `// SAFETY:` comment (or `# Safety` doc section).
//! - **SPMD006** `#[must_use]` registry: split-phase handle types whose
//!   silent drop loses messages must carry the attribute.
//! - **SPMD007** missing-docs opt-in: every library crate root must
//!   `#![warn(missing_docs)]` (or deny).

use std::path::Path;

use crate::lexer::{has_word, strip_comments_and_strings};
use crate::Finding;

/// Modules allowed to contain `unsafe` code, relative to the repo root.
///
/// Everything else must stay safe Rust; adding a file here should come
/// with Miri coverage (see `.github/workflows/ci.yml`, job `miri`).
pub const UNSAFE_ALLOWLIST: &[&str] = &[
    // Disjoint run handout: validated RowMap + SendPtr.
    "crates/accel/src/index.rs",
    // Persistent thread team: a lifetime-erased job slot published by an
    // epoch and released by a countdown.
    "crates/accel/src/pool.rs",
    // Threaded back-end: per-chunk partial slots, lane tables, row slices.
    "crates/accel/src/device/threads.rs",
    // One call of its AVX2 `#[target_feature]` arm per dispatched run
    // body of the row core, made only after
    // `is_x86_feature_detected!("avx2")` (compiled out under Miri, which
    // runs the portable arm).
    "crates/stencil/src/laplacian.rs",
    // Test fixture: counting global allocator (passthrough to System).
    "crates/blockgrid/tests/halo_zero_alloc.rs",
    // Test fixture: counting global allocator (passthrough to System).
    "crates/krylov/tests/solve_zero_alloc.rs",
    // Test fixture: counting global allocator (passthrough to System).
    "crates/krylov/tests/threads_zero_alloc.rs",
    // Test fixture: deliberately unsound kernel mutant the sanitizer
    // must catch.
    "crates/check/tests/mutations.rs",
];

/// `(file, type)` pairs that must be `#[must_use]`: dropping one of
/// these silently abandons an in-flight message or a borrowed ghost
/// region.
pub const MUST_USE_TYPES: &[(&str, &str)] = &[
    ("crates/comm/src/types.rs", "RecvRequest"),
    ("crates/comm/src/types.rs", "ReduceRequest"),
    // Dropping a chunked handle abandons both the in-flight head chunk
    // and the never-reduced tail scalars.
    ("crates/comm/src/types.rs", "ReduceManyRequest"),
    // Generic over the field width (`PendingExchange<E>`): one handle
    // for full- and single-precision exchanges.
    ("crates/blockgrid/src/halo.rs", "PendingExchange"),
    // Dropping a job handle silently discards the tenant's result.
    ("crates/serve/src/job.rs", "JobHandle"),
    // Dropping the fold handle abandons the slot partials of a fused
    // split-phase dot — the scalar would silently never be produced.
    ("crates/stencil/src/laplacian.rs", "PendingDotFold"),
];

/// How many lines above an `unsafe` token a `SAFETY` comment may sit.
pub const SAFETY_WINDOW: usize = 10;

/// SPMD005: check the unsafe policy for one file.
pub fn audit_unsafe(rel: &str, text: &str, findings: &mut Vec<Finding>) {
    let code = strip_comments_and_strings(text);
    let allowlisted = UNSAFE_ALLOWLIST.contains(&rel);
    let original: Vec<&str> = text.lines().collect();
    for (i, line) in code.lines().enumerate() {
        if !has_word(line, "unsafe") {
            continue;
        }
        let lineno = (i + 1) as u32;
        if !allowlisted {
            findings.push(Finding {
                code: "SPMD005",
                path: rel.to_string(),
                line: lineno,
                message: "`unsafe` outside the allowlist (UNSAFE_ALLOWLIST in \
                          crates/spmdlint/src/legacy.rs)"
                    .to_string(),
            });
            continue;
        }
        let lo = i.saturating_sub(SAFETY_WINDOW);
        let documented = original[lo..=i.min(original.len() - 1)]
            .iter()
            .any(|l| l.contains("SAFETY") || l.contains("# Safety"));
        if !documented {
            findings.push(Finding {
                code: "SPMD005",
                path: rel.to_string(),
                line: lineno,
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within {SAFETY_WINDOW} lines"
                ),
            });
        }
    }
}

/// SPMD006: check that the listed split-phase handle types are
/// `#[must_use]`.
pub fn audit_must_use(root: &Path, findings: &mut Vec<Finding>) {
    for (rel, ty) in MUST_USE_TYPES {
        let path = root.join(rel);
        let Ok(text) = std::fs::read_to_string(&path) else {
            findings.push(Finding {
                code: "SPMD006",
                path: (*rel).to_string(),
                line: 1,
                message: format!("missing (expected to define {ty})"),
            });
            continue;
        };
        let lines: Vec<&str> = text.lines().collect();
        let decl = lines
            .iter()
            .position(|l| has_word(l, "struct") && has_word(l, ty));
        let Some(decl) = decl else {
            findings.push(Finding {
                code: "SPMD006",
                path: (*rel).to_string(),
                line: 1,
                message: format!("type {ty} not found"),
            });
            continue;
        };
        let lo = decl.saturating_sub(SAFETY_WINDOW);
        // Both `#[must_use]` and `#[must_use = "reason"]` count.
        let marked = lines[lo..=decl].iter().any(|l| l.contains("#[must_use"));
        if !marked {
            findings.push(Finding {
                code: "SPMD006",
                path: (*rel).to_string(),
                line: (decl + 1) as u32,
                message: format!("{ty} must be #[must_use] (dropping it loses in-flight messages)"),
            });
        }
    }
}

/// SPMD007: check that every library crate warns on missing docs.
pub fn audit_missing_docs(root: &Path, findings: &mut Vec<Finding>) {
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        findings.push(Finding {
            code: "SPMD007",
            path: "crates/".to_string(),
            line: 1,
            message: "missing".to_string(),
        });
        return;
    };
    let mut libs: Vec<_> = entries
        .flatten()
        .map(|e| e.path().join("src/lib.rs"))
        .filter(|p| p.is_file())
        .collect();
    libs.sort();
    for lib in libs {
        let rel = crate::rel_path(root, &lib);
        let Ok(text) = std::fs::read_to_string(&lib) else {
            findings.push(Finding {
                code: "SPMD007",
                path: rel,
                line: 1,
                message: "unreadable".to_string(),
            });
            continue;
        };
        let opted_in =
            text.contains("#![warn(missing_docs)]") || text.contains("#![deny(missing_docs)]");
        if !opted_in {
            findings.push(Finding {
                code: "SPMD007",
                path: rel,
                line: 1,
                message: "crate root must carry #![warn(missing_docs)]".to_string(),
            });
        }
    }
}

//! SPMD006 — the `#[must_use]` registry: the handle types whose silent
//! drop loses messages or results ([`MUST_USE_TYPES`]) must carry the
//! attribute.

use std::path::Path;

use crate::hygiene::SAFETY_WINDOW;
use crate::lexer::has_word;
use crate::Finding;

/// `(file, type)` pairs that must be `#[must_use]`: dropping one of
/// these silently abandons an in-flight message or a tenant's result.
pub const MUST_USE_TYPES: &[(&str, &str)] = &[
    ("crates/comm/src/types.rs", "RecvRequest"),
    ("crates/comm/src/types.rs", "ReduceRequest"),
    // Generic over the field width (`PendingExchange<E>`): one handle
    // for full- and single-precision exchanges.
    ("crates/blockgrid/src/halo.rs", "PendingExchange"),
    // Dropping a job handle silently discards the tenant's result.
    ("crates/serve/src/job.rs", "JobHandle"),
];

/// SPMD006: check that the listed handle types are `#[must_use]`.
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

//! SPMD004, SPMD005, SPMD007 — source hygiene.
//!
//! - **SPMD004** panic hygiene: `crates/serve` hosts multi-tenant jobs,
//!   and a panic on the request path kills a worker or quarantines it.
//!   Non-test code under `crates/serve/src` must not call
//!   `.unwrap()`/`.expect(…)`, invoke `panic!`-family macros, or use
//!   bracket indexing; provably-infallible sites carry
//!   `// LINT: panic-ok(<reason>)`.
//! - **SPMD005** unsafe allowlist: `unsafe` only in the modules of
//!   [`UNSAFE_ALLOWLIST`], each use under a nearby `// SAFETY:` comment
//!   (or `# Safety` doc section).
//! - **SPMD007** missing-docs opt-in: every library crate root must
//!   `#![warn(missing_docs)]` (or deny).

use std::path::Path;

use crate::lexer::{has_word, strip_comments_and_strings};
use crate::tree::{FnItem, Tree};
use crate::{Finding, SrcInfo};

/// Path fragment selecting the files this pass covers.
const SERVE_SRC: &str = "crates/serve/src/";

/// Identifier keywords that legitimately precede a `[` without forming
/// an index expression (`&mut [T]`, `if cond [..]` never parses, but be
/// conservative).
const NON_INDEX_PREV: &[&str] = &[
    "mut", "ref", "dyn", "as", "in", "if", "else", "match", "return", "let", "move", "box",
    "while", "loop", "for", "break", "continue", "unsafe", "where", "impl", "fn", "pub", "use",
    "mod", "struct", "enum", "trait", "type", "const", "static", "crate",
];

/// Run SPMD004 over non-test functions of serve source files.
pub fn check(src: &SrcInfo<'_>, fns: &[FnItem], findings: &mut Vec<Finding>) {
    if !src.rel.contains(SERVE_SRC) {
        return;
    }
    for f in fns.iter().filter(|f| !f.is_test) {
        scan(src, &f.body, findings);
    }
}

fn scan(src: &SrcInfo<'_>, items: &[Tree], findings: &mut Vec<Finding>) {
    for (i, t) in items.iter().enumerate() {
        if let Some((line, what)) = panic_site(items, i) {
            if !src.annotated(line, "panic-ok") {
                findings.push(Finding {
                    code: "SPMD004",
                    path: src.rel.to_string(),
                    line,
                    message: format!(
                        "`{what}` on the serve request path can panic a multi-tenant worker; \
                         return a typed error (`SubmitError`/`JobError`/`StartError`) or \
                         justify with `// LINT: panic-ok(<reason>)`"
                    ),
                });
            }
        }
        if let Tree::Group { items: g, .. } = t {
            scan(src, g, findings);
        }
    }
}

/// Identify a panic-capable construct at `items[at]`.
fn panic_site(items: &[Tree], at: usize) -> Option<(u32, String)> {
    let t = &items[at];
    if let Some(name) = t.ident() {
        let next = items.get(at + 1);
        let prev = at.checked_sub(1).map(|p| &items[p]);
        // .unwrap() / .expect(…)
        if matches!(name, "unwrap" | "expect")
            && matches!(prev, Some(p) if p.is_punct(b'.'))
            && matches!(next, Some(n) if n.is_group(b'('))
        {
            return Some((t.line(), format!(".{name}()")));
        }
        // panic! / unreachable! / todo! / unimplemented! / assert!-family
        if matches!(name, "panic" | "unreachable" | "todo" | "unimplemented")
            && matches!(next, Some(n) if n.is_punct(b'!'))
        {
            return Some((t.line(), format!("{name}!")));
        }
        return None;
    }
    // Bracket indexing: `expr[…]` — a `[` group directly after an
    // identifier (that is not a keyword) or a call/index result.
    if let Tree::Group {
        delim: b'[',
        open_line,
        ..
    } = t
    {
        match at.checked_sub(1).map(|p| &items[p]) {
            Some(Tree::Leaf(prev_tok)) => {
                if let Some(name) = prev_tok.ident() {
                    if !NON_INDEX_PREV.contains(&name) {
                        return Some((*open_line, format!("{name}[…]")));
                    }
                }
            }
            Some(Tree::Group {
                delim: b')' | b'(' | b'[',
                ..
            }) => {
                return Some((*open_line, "(…)[…]".to_string()));
            }
            _ => {}
        }
    }
    None
}

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
                          crates/spmdlint/src/hygiene.rs)"
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

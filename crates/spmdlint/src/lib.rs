//! Control-flow-aware static analysis for the SPMD solver workspace.
//!
//! `spmdlint` lexes every workspace `.rs` file into a brace-balanced,
//! line-number-preserving token tree ([`lexer`], [`tree`]) and runs
//! intraprocedural passes per `fn` body:
//!
//! | code | pass | contract |
//! |------|------|----------|
//! | `SPMD001` | [`split_phase`] | every split-phase begin reaches its finish on every path |
//! | `SPMD002` | [`divergence`]  | no collective under a rank-dependent branch |
//! | `SPMD003` | [`hotalloc`]    | registered hot functions stay allocation-free |
//! | `SPMD004` | [`hygiene`]     | no panics/unwraps/indexing on the serve request path |
//! | `SPMD005` | [`hygiene`]     | `unsafe` allowlist + `// SAFETY:` comments |
//! | `SPMD006` | [`split_phase`] | split-phase handle types are `#[must_use]` |
//! | `SPMD007` | [`hygiene`]     | library crates opt into `missing_docs` |
//!
//! The analyzer is dependency-free and control-flow-*approximate*: it
//! interprets token trees, not typed HIR. False positives are silenced
//! in place with `// LINT: <marker>(<reason>)` annotations
//! (`split-phase-ok`, `collective-uniform`, `alloc-ok`, `panic-ok`) that
//! double as reviewer-facing justification comments. The name-matched
//! registries behind SPMD001, SPMD003 and SPMD006 are audited too: an
//! entry that no longer names a `fn`/type is a finding of its own code.
//! `cargo xtask lint` drives [`run_workspace`] and gates CI on zero
//! findings.

#![warn(missing_docs)]

pub mod divergence;
pub mod hotalloc;
pub mod hygiene;
pub mod lexer;
pub mod split_phase;
pub mod tree;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// One lint finding with a stable code and exact source anchor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Stable code, e.g. `SPMD001`.
    pub code: &'static str,
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Human-readable description with remediation hint.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} {}:{}: {}",
            self.code, self.path, self.line, self.message
        )
    }
}

/// Result of a workspace run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Number of `.rs` files analyzed.
    pub files_scanned: usize,
    /// All findings, sorted by path/line/code.
    pub findings: Vec<Finding>,
}

/// Per-file context shared by the passes: the repo-relative path plus
/// the *original* (unstripped) lines, used to honour `// LINT: …`
/// annotations that the lexer removes from the analyzed text.
pub struct SrcInfo<'a> {
    /// Repo-relative path.
    pub rel: &'a str,
    /// Original source lines.
    pub lines: Vec<&'a str>,
}

/// How many lines above a finding an annotation may sit (the line
/// itself plus two above, so a comment can precede a multi-line call).
const ANNOTATION_WINDOW: u32 = 2;

impl SrcInfo<'_> {
    /// True when `// LINT: <marker>(…)` appears on `line` or within the
    /// `ANNOTATION_WINDOW` lines above it.
    pub fn annotated(&self, line: u32, marker: &str) -> bool {
        let needle = format!("LINT: {marker}");
        let idx = (line as usize).saturating_sub(1); // 0-based index of `line`
        let lo = idx.saturating_sub(ANNOTATION_WINDOW as usize);
        let hi = (idx + 1).min(self.lines.len());
        lo < hi && self.lines[lo..hi].iter().any(|l| l.contains(&needle))
    }
}

/// Run SPMD001–SPMD005 on a single file's source text. `rel` selects
/// the per-path registries (hot functions, serve request paths, unsafe
/// allowlist), so tests can analyze fixture content under any path.
pub fn analyze_source(rel: &str, text: &str) -> Vec<Finding> {
    analyze(rel, text).0
}

/// [`analyze_source`], plus the names of the file's non-test `fn`s —
/// the workspace run audits its name-matched registries against them.
fn analyze(rel: &str, text: &str) -> (Vec<Finding>, Vec<String>) {
    let mut findings = Vec::new();
    let stripped = lexer::strip_comments_and_strings(text);
    let toks = lexer::tokenize(&stripped);
    let forest = tree::parse(&toks);
    let is_integration_test = rel.contains("/tests/") || rel.contains("/benches/");
    let mut fns = tree::collect_fns(&forest);
    if is_integration_test {
        for f in &mut fns {
            f.is_test = true;
        }
    }
    let src = SrcInfo {
        rel,
        lines: text.lines().collect(),
    };
    split_phase::check(&src, &fns, &mut findings);
    divergence::check(&src, &fns, &mut findings);
    hotalloc::check(&src, &fns, &mut findings);
    hygiene::check(&src, &fns, &mut findings);
    hygiene::audit_unsafe(rel, text, &mut findings);
    let defined = fns
        .into_iter()
        .filter(|f| !f.is_test)
        .map(|f| f.name)
        .collect();
    (findings, defined)
}

/// Run every pass over the workspace rooted at `root`.
pub fn run_workspace(root: &Path) -> Report {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benches"] {
        collect_rust_files(&root.join(dir), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    let mut defined = BTreeSet::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = rel_path(root, path);
        // Negative fixtures are deliberately-broken inputs for the
        // analyzer's own tests — never lint them as workspace code.
        if rel.contains("tests/fixtures/") {
            continue;
        }
        scanned += 1;
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let (found, fns) = analyze(&rel, &text);
                findings.extend(found);
                defined.extend(fns);
            }
            Err(e) => findings.push(Finding {
                code: "SPMD000",
                path: rel,
                line: 1,
                message: format!("unreadable: {e}"),
            }),
        }
    }
    split_phase::audit_registry(&defined, &mut findings);
    hotalloc::audit_registry_files(root, &mut findings);
    split_phase::audit_must_use(root, &mut findings);
    hygiene::audit_missing_docs(root, &mut findings);
    findings
        .sort_by(|a, b| (a.path.as_str(), a.line, a.code).cmp(&(b.path.as_str(), b.line, b.code)));
    Report {
        files_scanned: scanned,
        findings,
    }
}

/// Repo-relative display path with forward slashes.
pub fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Render a report as schema-stable JSON
/// (`{"schema":"spmdlint-findings-v1", "files_scanned":N, "findings":[…]}`).
///
/// Hand-rolled so the analyzer stays dependency-free; the vendored
/// `serde_json` shim parses it back in the round-trip test.
pub fn to_json(report: &Report) -> String {
    let mut out = String::with_capacity(256 + report.findings.len() * 128);
    out.push_str("{\"schema\":\"spmdlint-findings-v1\",\"files_scanned\":");
    out.push_str(&report.files_scanned.to_string());
    out.push_str(",\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"code\":");
        json_string(&mut out, f.code);
        out.push_str(",\"path\":");
        json_string(&mut out, &f.path);
        out.push_str(",\"line\":");
        out.push_str(&f.line.to_string());
        out.push_str(",\"message\":");
        json_string(&mut out, &f.message);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

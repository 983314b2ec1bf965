//! Repository automation — the static correctness pass.
//!
//! `cargo xtask lint` is a thin driver over the [`spmdlint`] analyzer:
//! it runs every pass (SPMD002–SPMD007: collective divergence, hot-path
//! allocation, serve panic hygiene, unsafe allowlist, `#[must_use]`
//! registry, missing-docs opt-in) across the
//! workspace and exits non-zero when anything is found, so CI can gate
//! on it.
//!
//! `cargo xtask lint --json` emits the machine-readable findings report
//! (`spmdlint-findings-v1`) on stdout instead of the human listing; the
//! exit code carries the pass/fail either way. `--root <path>` points
//! the analyzer at another workspace root (used by the CLI tests).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo xtask lint [--json] [--root <path>]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let mut json = false;
            let mut root: Option<PathBuf> = None;
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--json" => json = true,
                    "--root" => match it.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => {
                            eprintln!("--root needs a path\n{USAGE}");
                            return ExitCode::from(2);
                        }
                    },
                    other => {
                        eprintln!("unknown lint flag `{other}`\n{USAGE}");
                        return ExitCode::from(2);
                    }
                }
            }
            lint(json, &root.unwrap_or_else(repo_root))
        }
        Some(other) => {
            eprintln!("unknown xtask command `{other}`\n{USAGE}");
            ExitCode::from(2)
        }
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn lint(json: bool, root: &Path) -> ExitCode {
    let report = spmdlint::run_workspace(root);
    if json {
        println!("{}", spmdlint::to_json(&report));
    } else if report.findings.is_empty() {
        println!("xtask lint: OK ({} files scanned)", report.files_scanned);
    } else {
        eprintln!("xtask lint: {} finding(s)", report.findings.len());
        for f in &report.findings {
            eprintln!("  {f}");
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace root, two levels above this crate's manifest.
fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the repo root")
        .to_path_buf()
}

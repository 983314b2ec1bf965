//! Command-line contract of the solver front-end: options it does not
//! know are rejected with the usage text and exit code 2, never ignored.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_poisson-bicgstab-repro"))
        .args(args)
        .output()
        .expect("spawn the CLI")
}

#[test]
fn unknown_options_and_stray_positionals_exit_2_with_usage() {
    // `--no-fuse` selected a schedule arm that no longer exists; silently
    // accepting it would make an A/B script compare a run with itself.
    for bad in [&["--no-fuse"][..], &["--nodes", "9", "extra"], &["17"]] {
        let out = run(bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unrecognized argument"), "{bad:?}: {err}");
        assert!(err.contains("USAGE:"), "{bad:?}: {err}");
        assert!(out.stdout.is_empty(), "{bad:?} must not start a solve");
    }
}

#[test]
fn help_lists_only_options_that_exist() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(2));
    let help = String::from_utf8_lossy(&out.stderr);
    for removed in [
        "--no-overlap",
        "--no-overlap-reduce",
        "--no-fuse",
        "--early-exit",
    ] {
        assert!(!help.contains(removed), "{removed} is gone:\n{help}");
    }
    assert!(help.contains("--solver") && help.contains("--true-res"));
}

#[test]
fn documented_options_still_solve() {
    let out = run(&["--nodes", "9", "--solver", "bicgs", "--true-res", "5"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("converged"));
}

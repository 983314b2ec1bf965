//! Schema stability of the `--json` report: the hand-rolled writer must
//! round-trip through the vendored `serde_json` parser, field for field,
//! including pathological message content.

use spmdlint::{Finding, Report};

#[test]
fn report_round_trips_through_serde_json() {
    let nasty = "tricky \"quoted\"\nmessage\twith \\ escapes and control \u{1}";
    let report = Report {
        files_scanned: 3,
        findings: vec![
            Finding {
                code: "SPMD002",
                path: "crates/a/src/lib.rs".to_string(),
                line: 42,
                message: nasty.to_string(),
            },
            Finding {
                code: "SPMD004",
                path: "crates/serve/src/service.rs".to_string(),
                line: 7,
                message: "plain".to_string(),
            },
        ],
    };
    let text = spmdlint::to_json(&report);
    let v = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("writer output must be valid JSON: {e}\n{text}"));

    assert_eq!(
        v.get("schema").and_then(|s| s.as_str()),
        Some("spmdlint-findings-v1"),
        "schema tag is the compatibility contract"
    );
    assert_eq!(v.get("files_scanned").and_then(|n| n.as_u64()), Some(3));
    let findings = v
        .get("findings")
        .and_then(|f| f.as_array())
        .expect("findings array");
    assert_eq!(findings.len(), 2);

    let f0 = &findings[0];
    assert_eq!(f0.get("code").and_then(|c| c.as_str()), Some("SPMD002"));
    assert_eq!(
        f0.get("path").and_then(|p| p.as_str()),
        Some("crates/a/src/lib.rs")
    );
    assert_eq!(f0.get("line").and_then(|l| l.as_u64()), Some(42));
    assert_eq!(
        f0.get("message").and_then(|m| m.as_str()),
        Some(nasty),
        "escaping must be lossless through the round-trip"
    );
    assert_eq!(findings[1].get("line").and_then(|l| l.as_u64()), Some(7));
}

#[test]
fn empty_report_is_valid_json_with_empty_findings() {
    let report = Report {
        files_scanned: 0,
        findings: Vec::new(),
    };
    let v = serde_json::from_str(&spmdlint::to_json(&report)).unwrap();
    assert_eq!(
        v.get("findings").and_then(|f| f.as_array()).map(<[_]>::len),
        Some(0)
    );
}

#[test]
fn live_workspace_report_parses_and_matches_counts() {
    let root = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(std::path::Path::parent)
        .expect("crates/spmdlint sits two levels below the repo root")
        .to_path_buf();
    let report = spmdlint::run_workspace(&root);
    let v = serde_json::from_str(&spmdlint::to_json(&report)).unwrap();
    assert_eq!(
        v.get("files_scanned").and_then(|n| n.as_u64()),
        Some(report.files_scanned as u64)
    );
    assert_eq!(
        v.get("findings").and_then(|f| f.as_array()).map(<[_]>::len),
        Some(report.findings.len())
    );
}

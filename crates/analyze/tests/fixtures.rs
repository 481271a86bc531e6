//! Self-tests for `srank-analyze`: each seeded-violation fixture must
//! produce exactly one finding with the right rule id, the clean
//! fixture (and the real tree) must produce none.

use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn run(name: &str) -> Vec<srank_analyze::Finding> {
    srank_analyze::analyze(&fixture(name)).expect("fixture tree loads")
}

#[test]
fn clean_fixture_has_zero_findings() {
    let findings = run("clean");
    assert!(findings.is_empty(), "clean fixture flagged: {findings:?}");
}

#[test]
fn lock_cycle_fixture_yields_one_lock_order_finding() {
    let findings = run("lock_cycle");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "lock-order");
    assert!(
        findings[0].message.contains("inverts the rank order"),
        "message: {}",
        findings[0].message
    );
    assert!(findings[0].file.ends_with("foo.rs"));
}

#[test]
fn panic_path_fixture_yields_one_panic_path_finding() {
    let findings = run("panic_path");
    assert_eq!(findings.len(), 1, "findings: {findings:?}");
    assert_eq!(findings[0].rule, "panic-path");
    assert!(
        findings[0].message.contains("`.unwrap`"),
        "message: {}",
        findings[0].message
    );
    assert!(findings[0].file.ends_with("engine.rs"));
}

#[test]
fn real_tree_is_clean() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let findings = srank_analyze::analyze(&root).expect("workspace root loads");
    assert!(findings.is_empty(), "real tree flagged: {findings:#?}");
}

#[test]
fn json_output_is_well_formed() {
    let findings = run("panic_path");
    let json = srank_analyze::to_json(&findings);
    assert!(json.starts_with("[\n") && json.ends_with("\n]"), "{json}");
    assert!(json.contains("\"rule\": \"panic-path\""), "{json}");
    assert_eq!(srank_analyze::to_json(&[]), "[]");
}

//! Fixture-driven acceptance tests for the analyzer.
//!
//! Each rule has a `tests/fixtures/<rule>/` directory with a
//! fire/pass/allowed triple and two manifests:
//!
//! - `analysis.toml` scopes the scan to the directory with only that
//!   rule enabled and one `[[allow]]` entry for `allowed.rs`;
//! - `clean.toml` additionally excludes `fire.rs`.
//!
//! The library tests pin where diagnostics come from; the binary tests
//! pin the CI contract (exit 1 on violations, exit 0 when clean,
//! exit 2 on config errors) via `CARGO_BIN_EXE`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gdsearch_analysis::analyze;
use gdsearch_analysis::config::{AllowEntry, Config, RULE_NAMES};

fn fixture_dir(rule: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rule)
}

fn run_bin(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gdsearch-analysis"))
        .args(args)
        .output()
        .expect("analyzer binary must spawn")
}

#[test]
fn every_rule_fires_on_fire_and_spares_pass_and_allowed() {
    for rule in RULE_NAMES {
        let dir = fixture_dir(rule);
        let cfg = Config::load(&dir.join("analysis.toml"))
            .unwrap_or_else(|e| panic!("{rule}: manifest must parse: {e}"));
        let a = analyze(&dir, &cfg).unwrap();
        assert_eq!(a.files_scanned, 3, "{rule}: triple must be scanned");
        assert!(
            !a.violations.is_empty(),
            "{rule}: fire.rs must trip the rule"
        );
        for d in &a.violations {
            assert_eq!(d.rule, rule, "{rule}: cross-rule diagnostic {d:?}");
            assert_eq!(
                d.path, "fire.rs",
                "{rule}: diagnostic outside fire.rs {d:?}"
            );
        }
        assert!(
            a.allowlisted_sites >= 1,
            "{rule}: allowed.rs must be absorbed by the manifest entry"
        );
        assert!(
            a.allowlist_errors.is_empty(),
            "{rule}: {:?}",
            a.allowlist_errors
        );
    }
}

#[test]
fn excluding_fire_yields_a_clean_run() {
    for rule in RULE_NAMES {
        let dir = fixture_dir(rule);
        let cfg = Config::load(&dir.join("clean.toml")).unwrap();
        let a = analyze(&dir, &cfg).unwrap();
        assert!(
            a.clean(),
            "{rule}: {:?} {:?}",
            a.violations,
            a.allowlist_errors
        );
        assert_eq!(a.files_scanned, 2, "{rule}: fire.rs must be excluded");
    }
}

#[test]
fn transitive_fixture_reports_the_full_two_hop_chain() {
    // The transitive acceptance case: a `HashMap` two calls below a
    // public entry point is caught, with the provenance chain naming
    // every hop as `fn (file:line)`.
    let dir = fixture_dir("transitive-determinism");
    let cfg = Config::load(&dir.join("analysis.toml")).unwrap();
    let a = analyze(&dir, &cfg).unwrap();
    let d = a
        .violations
        .iter()
        .find(|d| d.rule == "transitive-determinism")
        .expect("fire.rs must trip transitive-determinism");
    assert_eq!(d.check, "hash-collection");
    assert_eq!(
        d.chain,
        vec![
            "fire::entry (fire.rs:5)".to_string(),
            "fire::merge_partials (fire.rs:9)".to_string(),
            "fire::order_rollup (fire.rs:14)".to_string(),
        ],
        "{d:?}"
    );
    assert!(d.message.contains("fire::entry"), "{}", d.message);

    // The rendered report shows the chain hop by hop.
    let out = run_bin(&["--root", dir.to_str().unwrap()]);
    let report = String::from_utf8_lossy(&out.stdout);
    assert!(report.contains("chain: fire::entry"), "{report}");
    assert!(report.contains("→ fire::order_rollup"), "{report}");
}

#[test]
fn panic_provenance_fixture_chain_ends_at_the_unwrap() {
    let dir = fixture_dir("panic-provenance");
    let cfg = Config::load(&dir.join("analysis.toml")).unwrap();
    let a = analyze(&dir, &cfg).unwrap();
    let d = a
        .violations
        .iter()
        .find(|d| d.rule == "panic-provenance")
        .expect("fire.rs must trip panic-provenance");
    assert_eq!(d.check, "unwrap");
    assert_eq!(d.chain.len(), 3, "{:?}", d.chain);
    assert_eq!(d.chain[0], "fire::entry (fire.rs:5)");
    assert!(d.chain[2].starts_with("fire::parse_step"), "{:?}", d.chain);
}

#[test]
fn json_export_carries_chains_and_schema() {
    let dir = fixture_dir("transitive-determinism");
    let json_path = std::env::temp_dir().join("gdsearch-fixture-diag.json");
    let out = run_bin(&[
        "--root",
        dir.to_str().unwrap(),
        "--json",
        json_path.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1));
    let j = std::fs::read_to_string(&json_path).unwrap();
    assert!(j.contains("\"schema\": \"gdsearch.analysis.v1\""), "{j}");
    assert!(j.contains("\"rule\": \"transitive-determinism\""), "{j}");
    assert!(j.contains("fire::merge_partials (fire.rs:9)"), "{j}");
    let _ = std::fs::remove_file(&json_path);
}

#[test]
fn graph_dot_export_names_the_fixture_chain() {
    let dir = fixture_dir("transitive-determinism");
    let dot_path = std::env::temp_dir().join("gdsearch-fixture-graph.dot");
    let _ = run_bin(&[
        "--root",
        dir.to_str().unwrap(),
        "--graph-dot",
        dot_path.to_str().unwrap(),
    ]);
    let dot = std::fs::read_to_string(&dot_path).unwrap();
    assert!(dot.starts_with("digraph callgraph"), "{dot}");
    assert!(dot.contains("fire::order_rollup"), "{dot}");
    assert!(dot.contains("->"), "{dot}");
    let _ = std::fs::remove_file(&dot_path);
}

#[test]
fn unsafe_without_safety_comment_defeats_the_allowlist() {
    // A manifest entry covering fire.rs must NOT absorb an `unsafe`
    // that lacks a `// SAFETY:` argument: the safety comment is a
    // precondition for allowlisting. The unused entry is also reported
    // as stale, so the gate fails twice over.
    let dir = fixture_dir("unsafe");
    let mut cfg = Config::load(&dir.join("analysis.toml")).unwrap();
    cfg.allows.push(AllowEntry {
        rule: "unsafe".into(),
        check: None,
        path: "fire.rs".into(),
        pattern: None,
        max: None,
        reason: "must not work".into(),
        used: 0,
    });
    let a = analyze(&dir, &cfg).unwrap();
    assert!(
        a.violations.iter().any(|d| d.path == "fire.rs"),
        "unallowlistable unsafe must stay a violation"
    );
    assert!(
        a.allowlist_errors.iter().any(|e| e.contains("stale")),
        "the ineffective entry must be reported stale: {:?}",
        a.allowlist_errors
    );
}

#[test]
fn binary_exit_codes_match_the_ci_contract() {
    for rule in RULE_NAMES {
        let dir = fixture_dir(rule);
        let root = dir.to_str().unwrap();

        // --root picks up the directory's analysis.toml: violations → 1.
        let firing = run_bin(&["--root", root]);
        assert_eq!(
            firing.status.code(),
            Some(1),
            "{rule}: firing fixture must exit 1"
        );
        let report = String::from_utf8_lossy(&firing.stdout);
        assert!(
            report.contains("fire.rs") && report.contains(rule),
            "{rule}: report must name the file and the rule:\n{report}"
        );

        // fire.rs out of scope → 0.
        let clean_manifest = dir.join("clean.toml");
        let clean = run_bin(&[
            "--root",
            root,
            "--manifest",
            clean_manifest.to_str().unwrap(),
        ]);
        assert_eq!(
            clean.status.code(),
            Some(0),
            "{rule}: clean manifest must exit 0: {}",
            String::from_utf8_lossy(&clean.stdout)
        );
    }
}

#[test]
fn binary_rejects_bad_usage_and_missing_manifest() {
    let missing = run_bin(&["--manifest", "/nonexistent/analysis.toml"]);
    assert_eq!(
        missing.status.code(),
        Some(2),
        "missing manifest is a usage error"
    );
    let bad_rule = run_bin(&["--rule", "frobnicate"]);
    assert_eq!(
        bad_rule.status.code(),
        Some(2),
        "unknown rule is a usage error"
    );
}

#[test]
fn the_workspace_tree_is_clean() {
    // The CI gate itself: the analyzer over the real tree with the real
    // manifest must pass. Run from the workspace root two levels up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = run_bin(&["--root", root.to_str().unwrap(), "--quiet"]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must satisfy its own invariants:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}

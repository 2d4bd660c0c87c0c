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
use gdsearch_analysis::config::{Config, RULE_NAMES};

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

#[test]
fn every_library_crate_is_in_scope() {
    // The lexical rules see a whole call chain only if every crate a
    // library can call is on their scope list: a new `crates/x/src`
    // must join `LIBRARY_CRATES` or be named here as a tool.
    const TOOL_CRATES: [&str; 2] = ["bench", "analysis"];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let cfg = Config::default();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name().to_string_lossy().into_owned();
        if !entry.path().join("src").is_dir() || TOOL_CRATES.contains(&name.as_str()) {
            continue;
        }
        let file = format!("crates/{name}/src/lib.rs");
        for rule in [&cfg.determinism, &cfg.panic, &cfg.casts] {
            assert!(
                rule.applies_to(&file),
                "crates/{name}/src is outside a rule's scope: add it to LIBRARY_CRATES"
            );
        }
    }
}

//! Grouped per-rule report rendering.

use std::fmt::Write as _;

use crate::config::RULE_NAMES;
use crate::Analysis;

/// One-line headline per rule, shown in the report headers.
fn rule_headline(rule: &str) -> &'static str {
    match rule {
        "determinism" => "result paths must be replayable (no hash order, clocks, entropy, env)",
        "panic" => "library code must return errors, not abort",
        "casts" => "narrowing casts must be audited",
        "wire" => "wire codecs need a wire_size-equality test",
        _ => "",
    }
}

/// Renders the full report for `analysis`.
pub fn render(analysis: &Analysis) -> String {
    let mut out = String::new();
    for rule in RULE_NAMES {
        let group: Vec<_> = analysis
            .violations
            .iter()
            .filter(|d| d.rule == rule)
            .collect();
        if group.is_empty() {
            continue;
        }
        let _ = writeln!(
            out,
            "rule `{rule}` — {} violation(s) — {}",
            group.len(),
            rule_headline(rule)
        );
        for d in &group {
            let _ = writeln!(out, "  {}:{}  [{}] {}", d.path, d.line, d.check, d.message);
            if !d.snippet.is_empty() {
                let _ = writeln!(out, "      | {}", d.snippet);
            }
        }
        out.push('\n');
    }
    for err in &analysis.allowlist_errors {
        let _ = writeln!(out, "allowlist: {err}");
    }
    if !analysis.allowlist_errors.is_empty() {
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "{} file(s) scanned; {} violation(s); {} site(s) allowlisted; \
         {} site(s) comment-justified; {} allowlist error(s)",
        analysis.files_scanned,
        analysis.violations.len(),
        analysis.allowlisted_sites,
        analysis.comment_justified_sites,
        analysis.allowlist_errors.len()
    );
    if analysis.clean() {
        let _ = writeln!(out, "clean: all determinism & safety invariants hold");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Diagnostic;

    #[test]
    fn groups_by_rule_and_reports_summary() {
        let analysis = Analysis {
            violations: vec![Diagnostic {
                rule: "panic",
                check: "unwrap",
                path: "crates/x/src/lib.rs".into(),
                line: 3,
                message: "m".into(),
                snippet: "x.unwrap()".into(),
            }],
            allowlist_errors: vec!["stale allowlist entry (panic y.rs)".into()],
            files_scanned: 2,
            allowlisted_sites: 1,
            comment_justified_sites: 0,
            allows: Vec::new(),
        };
        let r = render(&analysis);
        assert!(r.contains("rule `panic` — 1 violation(s)"));
        assert!(r.contains("crates/x/src/lib.rs:3"));
        assert!(r.contains("allowlist: stale"));
        assert!(r.contains("2 file(s) scanned"));
        assert!(!r.contains("clean:"));
    }
}

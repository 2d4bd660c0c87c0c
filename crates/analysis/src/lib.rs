//! `gdsearch-analysis` — workspace determinism & safety analyzer.
//!
//! The repo's central claim is that diffusion results are bit-for-bit
//! identical across engines, shard counts, thread counts, and transports.
//! That claim is *dynamic* (proptests sample the space); this crate makes
//! its preconditions *static*: a hand-rolled Rust lexer ([`lexer`]) feeds
//! a rule engine ([`rules`]) that walks every `.rs` file in the workspace
//! and reports violations of four lexical, per-file invariants:
//!
//! 1. **determinism** — no hash-map iteration-order dependence, wall
//!    clocks, OS entropy, or environment reads in the library crates'
//!    result paths;
//! 2. **panic** — no `unwrap`/`expect`/panic-family macros/unchecked
//!    indexing in library code (tests and the bench harness are exempt);
//! 3. **casts** — every `as u32`/`as usize` narrowing cast is audited;
//! 4. **wire** — every wire codec module carries a `wire_size`-equality
//!    test, so declared frame sizes cannot drift from encoded sizes.
//!
//! Rules 1–3 share one scope list (`config::LIBRARY_CRATES`): every
//! library crate is scanned by all three, so nothing a library can call
//! is out of their sight. (`unsafe` is the compiler's job: the workspace
//! lint table forbids `unsafe_code`.)
//!
//! Audited exceptions live in `analysis.toml` ([`config`]); each entry
//! carries a mandatory one-line justification, may pin a sub-check and a
//! line pattern, and may cap the number of sites it absorbs (`max`) so a
//! file quietly growing new violations still fails the gate. Unused
//! entries are themselves errors: the allowlist can only shrink.
//!
//! Run `cargo run -p gdsearch-analysis` from the workspace root; the
//! binary exits nonzero on any violation and is a required CI job.

pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod toml;

use std::fmt;
use std::path::{Path, PathBuf};

use config::{AllowEntry, Config};
use rules::{Diagnostic, FileCtx};

/// Outcome of one analysis run.
#[derive(Debug)]
pub struct Analysis {
    /// Violations that survived comment justifications and the allowlist,
    /// sorted by (rule, path, line).
    pub violations: Vec<Diagnostic>,
    /// Allowlist bookkeeping errors (stale entries, exceeded `max`).
    pub allowlist_errors: Vec<String>,
    /// Number of scanned files.
    pub files_scanned: usize,
    /// Sites absorbed by allowlist entries.
    pub allowlisted_sites: usize,
    /// Sites suppressed by inline `analysis:allow(rule)` comments.
    pub comment_justified_sites: usize,
    /// The allowlist with per-entry usage counts filled in.
    pub allows: Vec<AllowEntry>,
}

impl Analysis {
    /// Whether the tree is clean.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.allowlist_errors.is_empty()
    }
}

/// Analysis-run failure (I/O or configuration).
#[derive(Debug)]
pub struct AnalysisError(pub String);

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for AnalysisError {}

/// Runs the analyzer over `root` with `cfg`.
pub fn analyze(root: &Path, cfg: &Config) -> Result<Analysis, AnalysisError> {
    let mut paths = Vec::new();
    for dir in &cfg.roots {
        let base = if dir == "." {
            root.to_path_buf()
        } else {
            root.join(dir)
        };
        collect_rs_files(&base, &mut paths);
    }
    paths.sort();
    paths.dedup();

    let mut cfg = cfg.clone();
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut files_scanned = 0usize;
    let mut comment_justified = 0usize;

    for path in &paths {
        let rel = relative_slash_path(root, path);
        if cfg.exclude.iter().any(|e| {
            let e = e.strip_suffix('/').unwrap_or(e);
            rel == e || rel.starts_with(&format!("{e}/"))
        }) {
            continue;
        }
        let src = std::fs::read_to_string(path)
            .map_err(|e| AnalysisError(format!("{}: {e}", path.display())))?;
        let lexed = lexer::lex(&src);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            rel_path: &rel,
            lexed: &lexed,
            source_lines: &lines,
        };
        files_scanned += 1;

        let mut file_diags = Vec::new();
        rules::run_rules(&ctx, &cfg, &mut file_diags);

        // Inline justification: a comment on the flagged line or the line
        // above containing `analysis:allow(<rule>)`.
        for d in file_diags {
            let marker = format!("analysis:allow({})", d.rule);
            let inline_ok = (d.line.saturating_sub(1)..=d.line)
                .any(|l| lexed.comments_on(l).any(|c| c.text.contains(&marker)));
            if inline_ok {
                comment_justified += 1;
            } else {
                raw.push(d);
            }
        }
    }

    // Allowlist pass: the first covering entry absorbs a diagnostic.
    let mut violations = Vec::new();
    let mut allowlisted = 0usize;
    for d in raw {
        let entry = cfg
            .allows
            .iter_mut()
            .find(|e| e.covers(d.rule, d.check, &d.path, &d.snippet));
        match entry {
            Some(e) => {
                e.used += 1;
                allowlisted += 1;
            }
            None => violations.push(d),
        }
    }
    violations.sort_by(|a, b| {
        let ra = config::RULE_NAMES.iter().position(|r| *r == a.rule);
        let rb = config::RULE_NAMES.iter().position(|r| *r == b.rule);
        (ra, &a.path, a.line).cmp(&(rb, &b.path, b.line))
    });

    // Allowlist bookkeeping: stale entries and exceeded caps are errors.
    // Entries for disabled rules are skipped (e.g. a `--rule` subset run
    // must not report the other rules' entries as stale).
    let mut allowlist_errors = Vec::new();
    for e in &cfg.allows {
        let enabled = cfg.rule(&e.rule).is_some_and(|rc| rc.enabled);
        if !enabled {
            continue;
        }
        if e.used == 0 {
            allowlist_errors.push(format!(
                "stale allowlist entry ({} {}): matched no site — delete it",
                e.rule, e.path
            ));
        } else if e.max.is_some_and(|m| e.used > m) {
            allowlist_errors.push(format!(
                "allowlist drift ({} {}): {} sites exceed the audited max of {} — \
                 new violations were added to this file",
                e.rule,
                e.path,
                e.used,
                e.max.unwrap_or(0)
            ));
        }
    }

    Ok(Analysis {
        violations,
        allowlist_errors,
        files_scanned,
        allowlisted_sites: allowlisted,
        comment_justified_sites: comment_justified,
        allows: cfg.allows,
    })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, `/`-separated regardless of platform.
fn relative_slash_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, rel: &str, content: &str) {
        let p = dir.join(rel);
        if let Some(parent) = p.parent() {
            std::fs::create_dir_all(parent).unwrap();
        }
        std::fs::write(p, content).unwrap();
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("gdsearch-analysis-test")
            .join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn cfg_everywhere() -> Config {
        let mut cfg = Config {
            roots: vec![".".into()],
            exclude: Vec::new(),
            ..Config::default()
        };
        for name in config::RULE_NAMES {
            cfg.rule_mut(name).unwrap().paths.clear();
        }
        cfg
    }

    #[test]
    fn end_to_end_violation_and_inline_justification() {
        let dir = scratch("e2e");
        write(&dir, "a.rs", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n");
        write(
            &dir,
            "b.rs",
            "// analysis:allow(panic) — demo justification\nfn g(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        let a = analyze(&dir, &cfg_everywhere()).unwrap();
        assert_eq!(a.files_scanned, 2);
        assert_eq!(a.violations.len(), 1, "{:?}", a.violations);
        assert_eq!(a.violations[0].path, "a.rs");
        assert_eq!(a.comment_justified_sites, 1);
    }

    #[test]
    fn allowlist_absorbs_and_catches_drift() {
        let dir = scratch("allow");
        write(&dir, "a.rs", "fn f() { g().unwrap(); h().unwrap(); }\n");
        let mut cfg = cfg_everywhere();
        cfg.allows.push(AllowEntry {
            rule: "panic".into(),
            check: Some("unwrap".into()),
            path: "a.rs".into(),
            pattern: None,
            max: Some(2),
            reason: "test".into(),
            used: 0,
        });
        let a = analyze(&dir, &cfg).unwrap();
        assert!(a.clean(), "{:?} {:?}", a.violations, a.allowlist_errors);
        assert_eq!(a.allowlisted_sites, 2);

        // One more unwrap than the audited max: drift error.
        write(
            &dir,
            "a.rs",
            "fn f() { g().unwrap(); h().unwrap(); i().unwrap(); }\n",
        );
        let a = analyze(&dir, &cfg).unwrap();
        assert!(!a.clean());
        assert!(a.allowlist_errors[0].contains("drift"));
    }

    #[test]
    fn stale_entries_fail() {
        let dir = scratch("stale");
        write(&dir, "a.rs", "fn f() {}\n");
        let mut cfg = cfg_everywhere();
        cfg.allows.push(AllowEntry {
            rule: "panic".into(),
            check: None,
            path: "gone.rs".into(),
            pattern: None,
            max: None,
            reason: "obsolete".into(),
            used: 0,
        });
        let a = analyze(&dir, &cfg).unwrap();
        assert!(!a.clean());
        assert!(a.allowlist_errors[0].contains("stale"));
    }

    #[test]
    fn excluded_paths_are_not_scanned() {
        let dir = scratch("exclude");
        write(&dir, "vendor/bad.rs", "fn f() { x.unwrap(); }\n");
        let mut cfg = cfg_everywhere();
        cfg.exclude = vec!["vendor/".into()];
        let a = analyze(&dir, &cfg).unwrap();
        assert_eq!(a.files_scanned, 0);
        assert!(a.clean());
    }
}

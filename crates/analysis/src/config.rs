//! Analyzer configuration: rule toggles, scan scope, and the allowlist.
//!
//! Built-in defaults encode the workspace's invariants; `analysis.toml`
//! at the workspace root can toggle rules, re-scope them (fixtures use
//! this), and — most importantly — carry the audited allowlist entries.

use std::fmt;
use std::path::Path;

use crate::toml::{self, Document, Table};

/// The four rule identifiers, in report order. All are lexical (per-file
/// token patterns).
pub const RULE_NAMES: [&str; 4] = ["determinism", "panic", "casts", "wire"];

/// Per-rule configuration.
#[derive(Debug, Clone)]
pub struct RuleConfig {
    pub enabled: bool,
    /// Path prefixes (relative to the analysis root, `/`-separated) the
    /// rule applies to. Empty = everything scanned.
    pub paths: Vec<String>,
    /// Path prefixes exempt from the rule even when under `paths`.
    pub exclude: Vec<String>,
    /// For `casts`: the flagged target types of `as` casts.
    pub cast_targets: Vec<String>,
}

impl RuleConfig {
    fn new(paths: &[&str], exclude: &[&str]) -> Self {
        RuleConfig {
            enabled: true,
            paths: paths.iter().map(|s| s.to_string()).collect(),
            exclude: exclude.iter().map(|s| s.to_string()).collect(),
            cast_targets: Vec::new(),
        }
    }

    /// Whether the rule applies to `rel` (a `/`-separated relative path).
    pub fn applies_to(&self, rel: &str) -> bool {
        if !self.enabled {
            return false;
        }
        if self.exclude.iter().any(|p| path_matches(rel, p)) {
            return false;
        }
        self.paths.is_empty() || self.paths.iter().any(|p| path_matches(rel, p))
    }
}

/// One audited exception from `analysis.toml`.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// Rule the entry applies to.
    pub rule: String,
    /// Optional sub-check discriminator (e.g. `index`, `unwrap`).
    pub check: Option<String>,
    /// Relative path (exact file, or directory prefix ending in `/`).
    pub path: String,
    /// Optional substring the flagged source line must contain.
    pub pattern: Option<String>,
    /// Optional cap on the number of sites the entry may absorb; more
    /// sites than `max` is an error (the drift-catcher).
    pub max: Option<usize>,
    /// Mandatory one-line justification.
    pub reason: String,
    /// Sites absorbed during this run (filled by the engine).
    pub used: usize,
}

impl AllowEntry {
    /// Whether this entry covers a diagnostic at (`rule`, `check`, `rel`)
    /// whose source line is `line_text`.
    pub fn covers(&self, rule: &str, check: &str, rel: &str, line_text: &str) -> bool {
        self.rule == rule
            && self.check.as_deref().is_none_or(|c| c == check)
            && path_matches(rel, &self.path)
            && self
                .pattern
                .as_deref()
                .is_none_or(|p| line_text.contains(p))
    }
}

/// Full analyzer configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Directories (relative to the root) to scan for `.rs` files.
    pub roots: Vec<String>,
    /// Path prefixes excluded from scanning entirely.
    pub exclude: Vec<String>,
    pub determinism: RuleConfig,
    pub panic: RuleConfig,
    pub casts: RuleConfig,
    pub wire: RuleConfig,
    pub allows: Vec<AllowEntry>,
}

/// The library crates: the one scope list of `determinism`, `panic` and
/// `casts`. Everything a library can call is on it, so no call chain
/// leaves the lexical rules' sight; `bench` and `analysis` are tools, not
/// libraries (`tests/fixtures.rs` checks the list against `crates/*/src`
/// on disk).
const LIBRARY_CRATES: [&str; 6] = [
    "crates/graph/src/",
    "crates/embed/src/",
    "crates/diffusion/src/",
    "crates/sim/src/",
    "crates/dist/src/",
    "crates/core/src/",
];

impl Default for Config {
    fn default() -> Self {
        let mut casts = RuleConfig::new(&LIBRARY_CRATES, &[]);
        casts.cast_targets = vec!["u32".into(), "usize".into()];
        Config {
            roots: vec!["crates".into(), "tests".into(), "examples".into()],
            exclude: vec![
                "vendor/".into(),
                "target/".into(),
                // Rule fixtures violate the rules on purpose.
                "crates/analysis/tests/fixtures/".into(),
            ],
            determinism: RuleConfig::new(&LIBRARY_CRATES, &[]),
            panic: RuleConfig::new(&LIBRARY_CRATES, &[]),
            casts,
            wire: RuleConfig::new(&["crates/"], &[]),
            allows: Vec::new(),
        }
    }
}

/// Configuration / manifest error.
#[derive(Debug)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Loads the manifest at `path` over the defaults.
    pub fn load(path: &Path) -> Result<Config, ConfigError> {
        let src = std::fs::read_to_string(path)
            .map_err(|e| ConfigError(format!("{}: {e}", path.display())))?;
        let doc = toml::parse(&src).map_err(|e| ConfigError(format!("{}: {e}", path.display())))?;
        Config::from_document(&doc)
    }

    /// Applies a parsed manifest over the defaults.
    pub fn from_document(doc: &Document) -> Result<Config, ConfigError> {
        let mut cfg = Config::default();
        for (name, table) in &doc.tables {
            match name.as_str() {
                "" => {}
                "scope" => {
                    if let Some(v) = table.get("roots") {
                        cfg.roots = str_array(v, "scope.roots")?;
                    }
                    if let Some(v) = table.get("exclude") {
                        cfg.exclude = str_array(v, "scope.exclude")?;
                    }
                }
                _ => {
                    let Some(rule) = name.strip_prefix("rules.") else {
                        return Err(ConfigError(format!("unknown table [{name}]")));
                    };
                    let rc = cfg.rule_mut(rule).ok_or_else(|| {
                        ConfigError(format!(
                            "unknown rule [{name}]; rules are {}",
                            RULE_NAMES.join(", ")
                        ))
                    })?;
                    apply_rule_table(rc, rule, table)?;
                }
            }
        }
        if let Some((name, _)) = doc.table_arrays.iter().find(|(n, _)| *n != "allow") {
            return Err(ConfigError(format!("unknown array of tables [[{name}]]")));
        }
        if let Some(entries) = doc.table_arrays.get("allow") {
            for (i, t) in entries.iter().enumerate() {
                cfg.allows.push(parse_allow(t, i)?);
            }
        }
        Ok(cfg)
    }

    /// The rule config named `name`.
    pub fn rule(&self, name: &str) -> Option<&RuleConfig> {
        match name {
            "determinism" => Some(&self.determinism),
            "panic" => Some(&self.panic),
            "casts" => Some(&self.casts),
            "wire" => Some(&self.wire),
            _ => None,
        }
    }

    /// The mutable rule config named `name`.
    pub fn rule_mut(&mut self, name: &str) -> Option<&mut RuleConfig> {
        match name {
            "determinism" => Some(&mut self.determinism),
            "panic" => Some(&mut self.panic),
            "casts" => Some(&mut self.casts),
            "wire" => Some(&mut self.wire),
            _ => None,
        }
    }
}

fn apply_rule_table(rc: &mut RuleConfig, rule: &str, table: &Table) -> Result<(), ConfigError> {
    for (key, value) in table {
        match key.as_str() {
            "enabled" => {
                rc.enabled = value
                    .as_bool()
                    .ok_or_else(|| ConfigError(format!("rules.{rule}.enabled must be a bool")))?;
            }
            "paths" => rc.paths = str_array(value, "paths")?,
            "exclude" => rc.exclude = str_array(value, "exclude")?,
            "cast-targets" if rule == "casts" => {
                rc.cast_targets = str_array(value, "cast-targets")?;
            }
            _ => {
                return Err(ConfigError(format!("unknown key rules.{rule}.{key}")));
            }
        }
    }
    Ok(())
}

fn parse_allow(t: &Table, index: usize) -> Result<AllowEntry, ConfigError> {
    let get_str = |key: &str| -> Result<Option<String>, ConfigError> {
        match t.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_str()
                .map(|s| Some(s.to_string()))
                .ok_or_else(|| ConfigError(format!("allow[{index}].{key} must be a string"))),
        }
    };
    let rule =
        get_str("rule")?.ok_or_else(|| ConfigError(format!("allow[{index}] missing `rule`")))?;
    if !RULE_NAMES.contains(&rule.as_str()) {
        return Err(ConfigError(format!(
            "allow[{index}] names unknown rule `{rule}`"
        )));
    }
    let path =
        get_str("path")?.ok_or_else(|| ConfigError(format!("allow[{index}] missing `path`")))?;
    let reason = get_str("reason")?
        .filter(|r| !r.trim().is_empty())
        .ok_or_else(|| {
            ConfigError(format!(
                "allow[{index}] ({rule} {path}) missing `reason`: every exception must be justified"
            ))
        })?;
    let max = match t.get("max") {
        None => None,
        Some(v) => Some(v.as_int().filter(|i| *i >= 0).ok_or_else(|| {
            ConfigError(format!("allow[{index}].max must be a non-negative integer"))
        })? as usize),
    };
    for key in t.keys() {
        if !["rule", "check", "path", "pattern", "max", "reason"].contains(&key.as_str()) {
            return Err(ConfigError(format!(
                "allow[{index}] has unknown key `{key}`"
            )));
        }
    }
    Ok(AllowEntry {
        rule,
        check: get_str("check")?,
        path,
        pattern: get_str("pattern")?,
        max,
        reason,
        used: 0,
    })
}

fn str_array(v: &toml::Value, what: &str) -> Result<Vec<String>, ConfigError> {
    v.as_str_array()
        .ok_or_else(|| ConfigError(format!("{what} must be an array of strings")))
}

/// `pat` matches `rel` when equal, or when `pat` is a directory prefix
/// (with or without a trailing `/`).
fn path_matches(rel: &str, pat: &str) -> bool {
    if pat == rel || pat.is_empty() || pat == "." {
        return true;
    }
    let dir = pat.strip_suffix('/').unwrap_or(pat);
    rel.strip_prefix(dir)
        .is_some_and(|rest| rest.starts_with('/'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_matching() {
        assert!(path_matches("crates/graph/src/lib.rs", "crates/graph/src/"));
        assert!(path_matches("crates/graph/src/lib.rs", "crates/graph/src"));
        assert!(path_matches(
            "crates/graph/src/lib.rs",
            "crates/graph/src/lib.rs"
        ));
        assert!(!path_matches("crates/graphx/src/lib.rs", "crates/graph/"));
        assert!(!path_matches("crates/graph/srcx/a.rs", "crates/graph/src"));
    }

    #[test]
    fn defaults_scope_rules_to_library_crates() {
        let cfg = Config::default();
        assert!(cfg.determinism.applies_to("crates/core/src/walk.rs"));
        assert!(cfg.determinism.applies_to("crates/embed/src/vector.rs"));
        assert!(!cfg.panic.applies_to("crates/bench/src/lib.rs"));
        assert!(cfg.panic.applies_to("crates/embed/src/vector.rs"));
    }

    #[test]
    fn manifest_overrides_and_allows() {
        let doc = toml::parse(
            r#"
[scope]
roots = ["."]
[rules.determinism]
paths = ["."]
[rules.panic]
enabled = false
[[allow]]
rule = "casts"
check = "u32"
path = "crates/graph/src/sparse.rs"
max = 3
reason = "bounded by validated node count"
"#,
        )
        .unwrap();
        let cfg = Config::from_document(&doc).unwrap();
        assert_eq!(cfg.roots, ["."]);
        assert!(!cfg.panic.enabled);
        assert!(cfg.determinism.applies_to("anything/at/all.rs"));
        assert_eq!(cfg.allows.len(), 1);
        assert!(cfg.allows[0].covers("casts", "u32", "crates/graph/src/sparse.rs", "x as u32"));
        assert!(!cfg.allows[0].covers("casts", "usize", "crates/graph/src/sparse.rs", "x"));
    }

    #[test]
    fn rejects_unjustified_or_malformed_entries() {
        let no_reason = toml::parse("[[allow]]\nrule = \"panic\"\npath = \"x.rs\"\n").unwrap();
        assert!(Config::from_document(&no_reason).is_err());
        let bad_rule =
            toml::parse("[[allow]]\nrule = \"nope\"\npath = \"x.rs\"\nreason = \"r\"\n").unwrap();
        assert!(Config::from_document(&bad_rule).is_err());
        let unknown_key = toml::parse("[rules.panic]\nfrobnicate = true\n").unwrap();
        assert!(Config::from_document(&unknown_key).is_err());
    }
}

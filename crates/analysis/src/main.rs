//! CLI for the workspace determinism & safety analyzer.
//!
//! ```text
//! gdsearch-analysis [--root DIR] [--manifest FILE] [--rule NAME]... [--quiet]
//! ```
//!
//! - `--root` defaults to the current directory (CI runs from the
//!   workspace root).
//! - `--manifest` defaults to `<root>/analysis.toml`; if that default is
//!   absent the built-in configuration runs with an empty allowlist. An
//!   explicitly passed manifest must exist.
//! - `--rule` restricts the run to the named rule(s); repeatable.
//!
//! Exit codes: `0` clean, `1` violations or allowlist errors, `2` usage,
//! I/O, or manifest errors.

use std::path::PathBuf;
use std::process::ExitCode;

use gdsearch_analysis::config::{Config, RULE_NAMES};
use gdsearch_analysis::{analyze, report};

fn main() -> ExitCode {
    match run() {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("gdsearch-analysis: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<bool, String> {
    let mut root = PathBuf::from(".");
    let mut manifest: Option<PathBuf> = None;
    let mut only_rules: Vec<String> = Vec::new();
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--manifest" => {
                manifest = Some(PathBuf::from(
                    args.next().ok_or("--manifest needs a value")?,
                ));
            }
            "--rule" => {
                let name = args.next().ok_or("--rule needs a value")?;
                if !RULE_NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown rule `{name}`; rules are {}",
                        RULE_NAMES.join(", ")
                    ));
                }
                only_rules.push(name);
            }
            "--quiet" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "usage: gdsearch-analysis [--root DIR] [--manifest FILE] \
                     [--rule NAME]... [--quiet]\nrules: {}",
                    RULE_NAMES.join(", ")
                );
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }

    let mut cfg = match &manifest {
        Some(path) => Config::load(path).map_err(|e| e.to_string())?,
        None => {
            let default = root.join("analysis.toml");
            if default.exists() {
                Config::load(&default).map_err(|e| e.to_string())?
            } else {
                Config::default()
            }
        }
    };
    if !only_rules.is_empty() {
        for name in RULE_NAMES {
            if let Some(rc) = cfg.rule_mut(name) {
                rc.enabled &= only_rules.iter().any(|r| r == name);
            }
        }
    }

    let analysis = analyze(&root, &cfg).map_err(|e| e.to_string())?;
    let rendered = report::render(&analysis);
    if !quiet || !analysis.clean() {
        print!("{rendered}");
    }
    Ok(analysis.clean())
}

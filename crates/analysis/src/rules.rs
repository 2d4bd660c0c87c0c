//! The rule passes.
//!
//! Every rule walks the token stream of one file (comments and string
//! contents already stripped by the lexer) and emits [`Diagnostic`]s.
//! Test regions (`#[cfg(test)]` modules, `#[test]` functions) are never
//! flagged.

use crate::config::Config;
use crate::lexer::Lexed;

/// One finding, pre-allowlist.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Rule identifier (one of [`crate::config::RULE_NAMES`]).
    pub rule: &'static str,
    /// Sub-check discriminator, matchable by allowlist entries.
    pub check: &'static str,
    /// `/`-separated path relative to the analysis root.
    pub path: String,
    /// 1-based source line.
    pub line: u32,
    pub message: String,
    /// The trimmed source line, for the report and pattern matching.
    pub snippet: String,
}

/// Everything a rule needs to know about one file.
pub struct FileCtx<'a> {
    pub rel_path: &'a str,
    pub lexed: &'a Lexed,
    pub source_lines: &'a [&'a str],
}

impl FileCtx<'_> {
    fn snippet(&self, line: u32) -> String {
        self.source_lines
            .get(line as usize - 1)
            .map(|s| s.trim().to_string())
            .unwrap_or_default()
    }

    fn diag(
        &self,
        rule: &'static str,
        check: &'static str,
        line: u32,
        message: String,
    ) -> Diagnostic {
        Diagnostic {
            rule,
            check,
            path: self.rel_path.to_string(),
            line,
            message,
            snippet: self.snippet(line),
        }
    }
}

/// Runs every enabled, in-scope rule over one file.
pub fn run_rules(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.determinism.applies_to(ctx.rel_path) {
        determinism(ctx, out);
    }
    if cfg.panic.applies_to(ctx.rel_path) {
        panic_freedom(ctx, out);
    }
    if cfg.casts.applies_to(ctx.rel_path) {
        casts(ctx, &cfg.casts.cast_targets, out);
    }
    // Whole-file test code (integration tests, benches) is exempt from
    // wire discipline for the same reason `#[cfg(test)]` regions are:
    // test-only message types don't ship frames anywhere.
    let test_file = ctx
        .rel_path
        .split('/')
        .any(|seg| seg == "tests" || seg == "benches");
    if cfg.wire.applies_to(ctx.rel_path) && !test_file {
        wire_discipline(ctx, out);
    }
}

/// Rust keywords that can legitimately precede `[` without forming an
/// index expression (`let [a, b] = …`, `return [x]`, `in [..]`, …).
const NON_INDEX_KEYWORDS: [&str; 24] = [
    "let", "in", "return", "if", "else", "match", "mut", "ref", "move", "break", "continue", "as",
    "where", "impl", "for", "while", "loop", "use", "pub", "fn", "type", "const", "static", "dyn",
];

fn lexeme_at<'a>(ctx: &'a FileCtx<'_>, i: usize) -> &'a str {
    ctx.lexed
        .tokens
        .get(i)
        .map(|t| t.lexeme.as_str())
        .unwrap_or("")
}

fn seq_at(ctx: &FileCtx<'_>, i: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| lexeme_at(ctx, i + k) == *p)
}

/// A lexical finding at one token index: `(sub-check, line, message)`.
type Site = (&'static str, u32, String);

/// Whether the token at `i` is a nondeterminism source.
fn determinism_site_at(ctx: &FileCtx<'_>, i: usize) -> Option<Site> {
    let t = ctx.lexed.tokens.get(i)?;
    match t.lexeme.as_str() {
        // Hash collections: iteration order varies per process (seeded
        // hasher), so any use in a result path is a replay hazard.
        "HashMap" | "HashSet" => Some((
            "hash-collection",
            t.line,
            format!(
                "{} iteration order is seeded per process; \
                 use BTreeMap/BTreeSet or a sorted Vec",
                t.lexeme
            ),
        )),
        // `SystemTime` has no legitimate deterministic use here; the
        // bare identifier is safe to flag. `Instant` can also be an enum
        // variant named `Instant`, so it is only flagged as
        // `std::time::Instant` / `Instant::now` / a
        // `std::time::{…, Instant}` brace import.
        "SystemTime" => Some((
            "wall-clock",
            t.line,
            "SystemTime reads the wall clock; use the simulator's virtual clock".into(),
        )),
        "Instant" => {
            let from_std_time = i >= 3
                && lexeme_at(ctx, i - 1) == ":"
                && lexeme_at(ctx, i - 2) == ":"
                && lexeme_at(ctx, i - 3) == "time";
            let calls_now = seq_at(ctx, i + 1, &[":", ":", "now"]);
            let in_time_brace = {
                // Walk back over the brace group's idents and commas to
                // its `{`, then check for the `std::time::` prefix.
                let mut j = i;
                while j > 0 {
                    let p = lexeme_at(ctx, j - 1);
                    let identish = p
                        .chars()
                        .next()
                        .is_some_and(|c| c.is_alphabetic() || c == '_');
                    if p == "," || identish {
                        j -= 1;
                    } else {
                        break;
                    }
                }
                j >= 7
                    && lexeme_at(ctx, j - 1) == "{"
                    && lexeme_at(ctx, j - 2) == ":"
                    && lexeme_at(ctx, j - 3) == ":"
                    && lexeme_at(ctx, j - 4) == "time"
                    && lexeme_at(ctx, j - 5) == ":"
                    && lexeme_at(ctx, j - 6) == ":"
                    && lexeme_at(ctx, j - 7) == "std"
            };
            (from_std_time || calls_now || in_time_brace).then(|| {
                (
                    "wall-clock",
                    t.line,
                    "std::time::Instant reads the wall clock; use the simulator's \
                     virtual clock"
                        .to_string(),
                )
            })
        }
        // OS entropy: unseedable randomness breaks replay.
        "thread_rng" | "from_entropy" => Some((
            "os-entropy",
            t.line,
            format!(
                "{} draws OS entropy: thread results become unreplayable; \
                 seed a StdRng explicitly",
                t.lexeme
            ),
        )),
        // Process environment reads make results depend on ambient state.
        "std" if seq_at(ctx, i + 1, &[":", ":", "env"]) => Some((
            "env-read",
            t.line,
            "std::env makes results depend on ambient process state".into(),
        )),
        "env"
            if seq_at(ctx, i + 1, &[":", ":"])
                && matches!(
                    lexeme_at(ctx, i + 3),
                    "var" | "var_os" | "vars" | "args" | "temp_dir" | "current_dir"
                ) =>
        {
            Some((
                "env-read",
                t.line,
                format!(
                    "env::{} makes results depend on ambient process state",
                    lexeme_at(ctx, i + 3)
                ),
            ))
        }
        _ => None,
    }
}

/// Rule 1: determinism. Result paths of the library crates must not
/// depend on hash-map iteration order, wall clocks, OS entropy, or the
/// process environment.
fn determinism(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.lexed.tokens.len() {
        if ctx.lexed.in_test_region(ctx.lexed.tokens[i].line) {
            continue;
        }
        if let Some((check, line, message)) = determinism_site_at(ctx, i) {
            out.push(ctx.diag(
                "determinism",
                check,
                line,
                format!("{message} (deterministic crate)"),
            ));
        }
    }
}

/// Rule 2: panic-freedom. Library code must surface failures as errors,
/// not process aborts: no `unwrap`/`expect`, no panic-family macros, no
/// unchecked slice indexing.
fn panic_freedom(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.lexed.tokens.len() {
        if ctx.lexed.in_test_region(ctx.lexed.tokens[i].line) {
            continue;
        }
        if let Some((check, line, message)) = panic_site_at(ctx, i) {
            out.push(ctx.diag("panic", check, line, message));
        }
    }
}

/// Whether the token at `i` is a panic site.
fn panic_site_at(ctx: &FileCtx<'_>, i: usize) -> Option<Site> {
    let t = ctx.lexed.tokens.get(i)?;
    match t.lexeme.as_str() {
        "unwrap" | "expect"
            if i > 0 && lexeme_at(ctx, i - 1) == "." && lexeme_at(ctx, i + 1) == "(" =>
        {
            let check = if t.lexeme == "unwrap" {
                "unwrap"
            } else {
                "expect"
            };
            Some((
                check,
                t.line,
                format!(
                    ".{}() in library code: return an error or justify the invariant",
                    t.lexeme
                ),
            ))
        }
        "panic" | "todo" | "unimplemented" | "unreachable" if lexeme_at(ctx, i + 1) == "!" => {
            Some((
                "panic-macro",
                t.line,
                format!("{}! in library code aborts the process", t.lexeme),
            ))
        }
        "[" => {
            // Index expression: `expr[…]` — the token before `[` is an
            // identifier (not a keyword), `)`, or `]`. Array literals,
            // slice types/patterns, attributes, and `vec![…]` have
            // punctuation or keywords before the bracket.
            let prev = if i > 0 { lexeme_at(ctx, i - 1) } else { "" };
            let is_expr_prefix = prev == ")"
                || prev == "]"
                || (prev
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_alphabetic() || c == '_')
                    && !NON_INDEX_KEYWORDS.contains(&prev)
                    && !prev.starts_with('#'));
            is_expr_prefix.then(|| {
                (
                    "index",
                    t.line,
                    "slice index without `get`: out-of-range aborts the process".to_string(),
                )
            })
        }
        _ => None,
    }
}

/// Rule 3: cast audit. `as u32` / `as usize` silently truncate when the
/// source is wider; every site must be justified.
fn casts(ctx: &FileCtx<'_>, targets: &[String], out: &mut Vec<Diagnostic>) {
    for (i, t) in ctx.lexed.tokens.iter().enumerate() {
        if t.lexeme != "as" || ctx.lexed.in_test_region(t.line) {
            continue;
        }
        let target = lexeme_at(ctx, i + 1);
        if let Some(target) = targets.iter().find(|t| t.as_str() == target) {
            // `use x as usize` cannot occur (keywords aren't rename
            // targets), so `as <target>` is always a cast expression.
            let check: &'static str = match target.as_str() {
                "u32" => "u32",
                "usize" => "usize",
                "u8" => "u8",
                "u16" => "u16",
                "i32" => "i32",
                _ => "other",
            };
            out.push(ctx.diag(
                "casts",
                check,
                t.line,
                format!(
                    "`as {target}` can silently truncate: prove the bound (and allowlist) \
                     or use try_into"
                ),
            ));
        }
    }
}

/// Rule 4: wire-size discipline. Any module that implements
/// `WireMessage` (or an inherent `encode`/`wire_size` frame codec) must
/// also carry a test referencing `wire_size`, so declared sizes can never
/// drift from encoded sizes unobserved.
fn wire_discipline(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    let toks = &ctx.lexed.tokens;
    let mut impl_line: Option<u32> = None;
    let mut has_encode = None;
    let mut has_wire_size_fn = None;
    for (i, t) in toks.iter().enumerate() {
        if ctx.lexed.in_test_region(t.line) {
            continue;
        }
        match t.lexeme.as_str() {
            // `impl WireMessage for T` (generics between `impl` and the
            // trait name don't matter: the trait name is directly followed
            // by `for`). The trait *declaration* is followed by `{`.
            "WireMessage" if lexeme_at(ctx, i + 1) == "for" => {
                impl_line.get_or_insert(t.line);
            }
            "fn" => match lexeme_at(ctx, i + 1) {
                "encode" => has_encode = has_encode.or(Some(t.line)),
                "wire_size" => has_wire_size_fn = has_wire_size_fn.or(Some(t.line)),
                _ => {}
            },
            _ => {}
        }
    }
    let codec_line = match (impl_line, has_encode.and(has_wire_size_fn)) {
        (Some(l), _) => Some(l),
        (None, Some(l)) => Some(l),
        (None, None) => None,
    };
    let Some(line) = codec_line else { return };
    let tested = toks
        .iter()
        .any(|t| t.lexeme == "wire_size" && ctx.lexed.in_test_region(t.line));
    if !tested {
        out.push(
            ctx.diag(
                "wire",
                "untested-wire-size",
                line,
                "wire codec without a wire_size-equality test in this module: declared sizes \
             can drift from encoded sizes"
                    .into(),
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn run_on(src: &str, rel: &str) -> Vec<Diagnostic> {
        let mut cfg = Config::default();
        for name in crate::config::RULE_NAMES {
            let rc = cfg.rule_mut(name).unwrap();
            rc.paths.clear();
        }
        let lexed = lexer::lex(src);
        let lines: Vec<&str> = src.lines().collect();
        let ctx = FileCtx {
            rel_path: rel,
            lexed: &lexed,
            source_lines: &lines,
        };
        let mut out = Vec::new();
        run_rules(&ctx, &cfg, &mut out);
        out
    }

    fn checks(src: &str) -> Vec<(&'static str, &'static str)> {
        run_on(src, "src/lib.rs")
            .into_iter()
            .map(|d| (d.rule, d.check))
            .collect()
    }

    #[test]
    fn determinism_flags_hash_collections_outside_tests() {
        let src = "use std::collections::HashMap;\n#[cfg(test)]\nmod t {\n    use std::collections::HashSet;\n}\n";
        let c = checks(src);
        assert_eq!(
            c.iter().filter(|(r, _)| *r == "determinism").count(),
            1,
            "{c:?}"
        );
    }

    #[test]
    fn determinism_distinguishes_instant_variant_from_std_instant() {
        assert!(checks("let b = Delivery::Instant;")
            .iter()
            .all(|(r, _)| *r != "determinism"));
        assert!(checks("let t0 = Instant::now();")
            .iter()
            .any(|(_, c)| *c == "wall-clock"));
        assert!(checks("use std::time::Instant;")
            .iter()
            .any(|(_, c)| *c == "wall-clock"));
        assert!(checks("use std::time::{Duration, Instant};")
            .iter()
            .any(|(_, c)| *c == "wall-clock"));
        assert!(checks("use std::time::Duration;")
            .iter()
            .all(|(r, _)| *r != "determinism"));
    }

    #[test]
    fn determinism_flags_entropy_and_env() {
        assert!(checks("let mut r = thread_rng();")
            .iter()
            .any(|(_, c)| *c == "os-entropy"));
        assert!(checks("let p = std::env::temp_dir();")
            .iter()
            .any(|(_, c)| *c == "env-read"));
        assert!(checks("let v = env::var(\"X\");")
            .iter()
            .any(|(_, c)| *c == "env-read"));
    }

    #[test]
    fn panic_rule_flags_the_panic_family() {
        assert!(checks("x.unwrap();").iter().any(|(_, c)| *c == "unwrap"));
        assert!(checks("x.expect(\"m\");")
            .iter()
            .any(|(_, c)| *c == "expect"));
        assert!(checks("panic!(\"boom\");")
            .iter()
            .any(|(_, c)| *c == "panic-macro"));
        assert!(checks("todo!()").iter().any(|(_, c)| *c == "panic-macro"));
        // unwrap_or / unwrap_or_default are fine.
        assert!(checks("x.unwrap_or(0);")
            .iter()
            .all(|(_, c)| *c != "unwrap"));
    }

    #[test]
    fn index_heuristic() {
        assert!(checks("let y = xs[i];").iter().any(|(_, c)| *c == "index"));
        assert!(checks("f()[0];").iter().any(|(_, c)| *c == "index"));
        for benign in [
            "let [a, b] = pair;",
            "let t: [f32; 4] = x;",
            "#[derive(Debug)] struct S;",
            "vec![1, 2];",
            "return [1, 2];",
        ] {
            assert!(
                checks(benign).iter().all(|(_, c)| *c != "index"),
                "false positive on {benign}"
            );
        }
    }

    #[test]
    fn cast_rule_flags_configured_targets_only() {
        assert!(checks("let x = n as u32;").iter().any(|(_, c)| *c == "u32"));
        assert!(checks("let x = n as usize;")
            .iter()
            .any(|(_, c)| *c == "usize"));
        assert!(checks("let x = n as u64;")
            .iter()
            .all(|(r, _)| *r != "casts"));
        assert!(checks("let x = n as f32;")
            .iter()
            .all(|(r, _)| *r != "casts"));
    }

    #[test]
    fn wire_rule_requires_test_reference() {
        let bad = "impl WireMessage for Foo {\n    fn wire_size(&self) -> usize { 4 }\n}\n";
        assert!(run_on(bad, "a.rs").iter().any(|d| d.rule == "wire"));
        let good = format!(
            "{bad}#[cfg(test)]\nmod t {{\n    #[test]\n    fn s() {{ assert_eq!(Foo.wire_size(), 4); }}\n}}\n"
        );
        assert!(run_on(&good, "a.rs").iter().all(|d| d.rule != "wire"));
        // Trait declaration alone does not trigger.
        let decl = "pub trait WireMessage {\n    fn wire_size(&self) -> usize;\n}\n";
        assert!(run_on(decl, "a.rs").iter().all(|d| d.rule != "wire"));
    }
}

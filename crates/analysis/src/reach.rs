//! Taint/reachability over the workspace call graph (the transitive rules).
//!
//! The lexical rules 1 and 2 check nondeterminism and panic sites *per
//! file*, inside an audited path scope. A `HashMap` or `.unwrap()`
//! hidden behind a helper in a crate outside that scope is invisible to
//! them — yet a result-path entry point calling it inherits the hazard.
//! This pass closes that gap transitively:
//!
//! - **Entry points** are the public, non-test functions of the files
//!   the rule's `paths` cover (by default the five deterministic
//!   crates' result surfaces).
//! - **Seeds** are nondeterminism sources (`transitive-determinism`) or
//!   panic sites (`panic-provenance`) in bodies of files the corresponding
//!   lexical rule does *not* cover. In-scope sites are already flagged
//!   (or audited) by rules 1–2; seeding only out-of-scope files means
//!   no site is ever reported twice and existing audits stay
//!   authoritative.
//! - A multi-source BFS from the entry points marks every reachable
//!   function; each reachable seed becomes one diagnostic carrying its
//!   **provenance chain** — the shortest call path from an entry point
//!   to the seed, `fn (file:line)` at every hop.
//!
//! Reported line/snippet are the seed site's, so `analysis.toml`
//! entries and inline `analysis:allow(…)` comments scope the same way
//! they do for the lexical rules. Unresolved calls (externals,
//! ambiguous methods) make the pass under-approximate; the lexical
//! rules remain the per-file backstop.

use std::collections::{BTreeSet, VecDeque};

use crate::callgraph::{CallGraph, SourceFile};
use crate::config::{Config, RuleConfig};
use crate::rules::{self, Diagnostic, FileCtx, Site};

/// Runs the enabled transitive rules and appends their diagnostics.
pub fn run_reach(files: &[SourceFile], graph: &CallGraph, cfg: &Config, out: &mut Vec<Diagnostic>) {
    if cfg.transitive.enabled {
        run_rule(
            files,
            graph,
            &cfg.transitive,
            &cfg.determinism,
            "transitive-determinism",
            rules::determinism_site_at,
            out,
        );
    }
    if cfg.provenance.enabled {
        run_rule(
            files,
            graph,
            &cfg.provenance,
            &cfg.panic,
            "panic-provenance",
            rules::panic_site_at,
            out,
        );
    }
}

fn run_rule(
    files: &[SourceFile],
    graph: &CallGraph,
    rule_cfg: &RuleConfig,
    lexical: &RuleConfig,
    rule: &'static str,
    site_at: fn(&FileCtx<'_>, usize) -> Option<Site>,
    out: &mut Vec<Diagnostic>,
) {
    let lines: Vec<Vec<&str>> = files.iter().map(|f| f.source.lines().collect()).collect();
    let ctx_for = |fi: usize| FileCtx {
        rel_path: &files[fi].rel_path,
        lexed: &files[fi].lexed,
        source_lines: &lines[fi],
    };

    // Multi-source BFS from the entry points, recording parents so the
    // shortest provenance chain can be reconstructed per seed.
    let mut parent: Vec<Option<usize>> = vec![None; graph.nodes.len()];
    let mut visited = vec![false; graph.nodes.len()];
    let mut queue = VecDeque::new();
    for (ni, n) in graph.nodes.iter().enumerate() {
        let f = &files[n.file];
        if n.is_pub && rule_cfg.applies_to(&f.rel_path) && !f.lexed.in_test_region(n.line) {
            visited[ni] = true;
            queue.push_back(ni);
        }
    }
    while let Some(a) = queue.pop_front() {
        for &b in &graph.edges[a] {
            if !visited[b] {
                visited[b] = true;
                parent[b] = Some(a);
                queue.push_back(b);
            }
        }
    }

    for (ni, n) in graph.nodes.iter().enumerate() {
        if !visited[ni] || lexical.applies_to(&files[n.file].rel_path) {
            continue;
        }
        let item = &files[n.file].items.fns[n.item];
        let Some((open, close)) = item.body else {
            continue;
        };
        let ctx = ctx_for(n.file);
        let mut seen: BTreeSet<(&'static str, u32)> = BTreeSet::new();
        for i in open + 1..close {
            let Some((check, line, message)) = site_at(&ctx, i) else {
                continue;
            };
            if ctx.lexed.in_test_region(line) || !seen.insert((check, line)) {
                continue;
            }
            // Chain: entry → … → seed fn, `fn (file:line)` per hop. The
            // seed hop carries the site line, the rest their decl line.
            let mut chain = Vec::new();
            chain.push(format!("{} ({}:{line})", n.id, files[n.file].rel_path));
            let mut at = ni;
            while let Some(p) = parent[at] {
                let pn = &graph.nodes[p];
                chain.push(format!(
                    "{} ({}:{})",
                    pn.id, files[pn.file].rel_path, pn.line
                ));
                at = p;
            }
            chain.reverse();
            let entry_id = &graph.nodes[at].id;
            out.push(Diagnostic {
                rule,
                check,
                path: files[n.file].rel_path.clone(),
                line,
                message: format!(
                    "{message} — reachable from pub `{entry_id}` \
                     through {} call(s)",
                    chain.len() - 1
                ),
                snippet: ctx.snippet(line),
                allowlistable: true,
                chain,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::build;
    use crate::items::parse_items;
    use crate::lexer::lex;

    fn file(rel: &str, src: &str) -> SourceFile {
        let lexed = lex(src);
        let items = parse_items(&lexed);
        SourceFile {
            rel_path: rel.to_string(),
            source: src.to_string(),
            lexed,
            items,
        }
    }

    /// `transitive-determinism` scoped to crate `a`, lexical determinism
    /// also scoped to crate `a` — so crates `b`/`c` are seed territory.
    fn cfg() -> Config {
        let mut cfg = Config::default();
        for name in crate::config::RULE_NAMES {
            let rc = cfg.rule_mut(name).unwrap();
            rc.paths = vec!["crates/a/src/".into()];
            rc.exclude.clear();
        }
        cfg
    }

    #[test]
    fn two_hop_chain_is_reported_with_provenance() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "pub fn entry() { gdsearch_b::helper(); }\n",
            ),
            file(
                "crates/b/src/lib.rs",
                "pub fn helper() { gdsearch_c::tainted(); }\n",
            ),
            file(
                "crates/c/src/lib.rs",
                "pub fn tainted() { let m: HashMap<u32, u32> = HashMap::new(); drop(m); }\n",
            ),
        ];
        let g = build(&files);
        let mut out = Vec::new();
        run_reach(&files, &g, &cfg(), &mut out);
        let d: Vec<_> = out
            .iter()
            .filter(|d| d.rule == "transitive-determinism")
            .collect();
        // Two `HashMap` tokens on the line dedup to one site.
        assert_eq!(d.len(), 1, "{out:?}");
        assert_eq!(d[0].check, "hash-collection");
        assert_eq!(d[0].path, "crates/c/src/lib.rs");
        assert_eq!(
            d[0].chain,
            vec![
                "a::entry (crates/a/src/lib.rs:1)".to_string(),
                "b::helper (crates/b/src/lib.rs:1)".to_string(),
                "c::tainted (crates/c/src/lib.rs:1)".to_string(),
            ]
        );
        assert!(d[0].message.contains("a::entry"));
    }

    #[test]
    fn unreachable_seeds_stay_silent() {
        let files = [
            file("crates/a/src/lib.rs", "pub fn entry() {}\n"),
            file(
                "crates/c/src/lib.rs",
                "pub fn tainted() { let m = HashMap::new(); drop(m); }\n",
            ),
        ];
        let g = build(&files);
        let mut out = Vec::new();
        run_reach(&files, &g, &cfg(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn in_scope_sites_are_left_to_the_lexical_rule() {
        // The site is inside crate `a`, which the lexical determinism
        // rule covers — the transitive rule must not double-report it.
        let files = [file(
            "crates/a/src/lib.rs",
            "pub fn entry() { let m = HashMap::new(); drop(m); }\n",
        )];
        let g = build(&files);
        let mut out = Vec::new();
        run_reach(&files, &g, &cfg(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn panic_provenance_seeds_at_unwrap_sites() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "pub fn entry(x: Option<u32>) { gdsearch_b::force(x); }\n",
            ),
            file(
                "crates/b/src/lib.rs",
                "pub fn force(x: Option<u32>) -> u32 { x.unwrap() }\n",
            ),
        ];
        let g = build(&files);
        let mut out = Vec::new();
        run_reach(&files, &g, &cfg(), &mut out);
        let d: Vec<_> = out
            .iter()
            .filter(|d| d.rule == "panic-provenance")
            .collect();
        assert_eq!(d.len(), 1, "{out:?}");
        assert_eq!(d[0].check, "unwrap");
        assert_eq!(d[0].chain.len(), 2);
    }

    #[test]
    fn private_and_test_fns_are_not_entry_points() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "fn private_entry() { gdsearch_b::force(); }\n\
                 #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { gdsearch_b::force(); }\n}\n",
            ),
            file(
                "crates/b/src/lib.rs",
                "pub fn force() { panic!(\"boom\") }\n",
            ),
        ];
        let g = build(&files);
        let mut out = Vec::new();
        run_reach(&files, &g, &cfg(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }
}

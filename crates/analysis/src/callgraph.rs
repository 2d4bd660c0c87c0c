//! Whole-workspace call-graph construction.
//!
//! Turns the per-file item lists ([`crate::items`]) into one directed
//! graph: nodes are `fn` items, edges are *resolved* call sites. The
//! resolver is deliberately best-effort — it has no type information —
//! but errs in documented directions:
//!
//! - **Path calls** (`module::f(…)`, `Type::f(…)`) resolve through the
//!   file's `use` bindings, `crate`/`self`/`super`/`Self` anchors, and
//!   the per-crate symbol tables; an unmatched path falls back to a
//!   unique-suffix match across the workspace before giving up.
//! - **Bare calls** (`f(…)`) try the enclosing module chain, then the
//!   file's imports (incl. globs), then a unique same-crate match.
//! - **Method calls** (`x.f(…)`) carry no receiver type. A call is
//!   resolved only when exactly one workspace method of that name
//!   survives the locality filter (same file + same impl, then same
//!   crate, then impl type named somewhere in the calling file);
//!   anything else is recorded as unresolved rather than guessed.
//! - **Externals** (std, vendored stubs) never resolve; they are counted
//!   per name in [`CallGraph::unresolved`] so a `--graph-dot` dump shows
//!   exactly what the analysis cannot see. Nondeterminism and panics
//!   *inside* externals are covered by the lexical rules at the call
//!   site (`HashMap`, `.unwrap(`, …), not by reachability.
//!
//! Unresolved calls make reachability *under*-approximate; the lexical
//! rules remain the per-file backstop. The transitive rules add the
//! cross-crate dimension on the edges that do resolve.

use std::collections::{BTreeMap, BTreeSet};

use crate::items::FileItems;
use crate::lexer::{Lexed, Token};

/// One scanned file with its lexical and item views.
pub struct SourceFile {
    /// `/`-separated path relative to the analysis root.
    pub rel_path: String,
    /// Full source text (the reachability rules slice snippets from it).
    pub source: String,
    pub lexed: Lexed,
    pub items: FileItems,
}

/// One function node.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index into the file list.
    pub file: usize,
    /// Index into that file's `items.fns`.
    pub item: usize,
    /// Display id: `crate::module::Type::name`.
    pub id: String,
    pub crate_name: String,
    pub is_pub: bool,
    pub line: u32,
}

/// The workspace call graph.
pub struct CallGraph {
    pub nodes: Vec<Node>,
    /// `edges[caller]` = sorted, deduplicated callee node indices.
    pub edges: Vec<Vec<usize>>,
    /// Call names that did not resolve to a workspace function, with
    /// occurrence counts (`f` for bare/path calls, `.f` for methods).
    pub unresolved: BTreeMap<String, usize>,
    /// Total resolved call sites.
    pub resolved_calls: usize,
}

/// Keywords that can directly precede `(` without being a call.
const NON_CALL_KEYWORDS: [&str; 12] = [
    "if", "while", "match", "return", "for", "in", "move", "fn", "loop", "else", "let", "as",
];

fn lexeme(toks: &[Token], i: usize) -> &str {
    toks.get(i).map(|t| t.lexeme.as_str()).unwrap_or("")
}

fn is_ident(tok: &str) -> bool {
    tok.chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
        && !tok.starts_with('#')
}

fn is_type_like(seg: &str) -> bool {
    seg.chars().next().is_some_and(char::is_uppercase)
}

/// Derives `(crate name, module path)` from a workspace-relative path.
/// `crates/<c>/src/a/b.rs` → (`c`, `[a, b]`); files outside a crate's
/// `src/` (integration tests, examples, fixtures) each form their own
/// root so their items never collide with library symbols.
pub fn crate_and_module(rel: &str) -> (String, Vec<String>) {
    let segs: Vec<&str> = rel.split('/').collect();
    if segs.len() >= 4 && segs[0] == "crates" && segs[2] == "src" {
        let krate = segs[1].to_string();
        let mut module: Vec<String> = segs[3..segs.len() - 1]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let stem = segs[segs.len() - 1].trim_end_matches(".rs");
        if stem != "lib" && stem != "main" && stem != "mod" {
            module.push(stem.to_string());
        }
        return (krate, module);
    }
    // Own-root files: the path itself is the crate name.
    (rel.trim_end_matches(".rs").to_string(), Vec::new())
}

struct Symbols {
    /// Free fns by (crate, module path joined with `::`, name).
    free: BTreeMap<(String, String, String), Vec<usize>>,
    /// Free fns by (crate, name) — the unique-in-crate fallback.
    in_crate: BTreeMap<(String, String), Vec<usize>>,
    /// Impl/trait fns by (type, name).
    assoc: BTreeMap<(String, String), Vec<usize>>,
    /// Impl/trait fns by name — method resolution candidates.
    methods: BTreeMap<String, Vec<usize>>,
    /// Crate names reachable as extern path roots: `graph` and
    /// `gdsearch_graph` both anchor crate `graph`.
    crate_aliases: BTreeMap<String, String>,
}

/// Builds the call graph over `files`.
pub fn build(files: &[SourceFile]) -> CallGraph {
    let mut nodes = Vec::new();
    for (fi, f) in files.iter().enumerate() {
        let (krate, file_module) = crate_and_module(&f.rel_path);
        for (ii, item) in f.items.fns.iter().enumerate() {
            let mut id = String::new();
            id.push_str(&krate);
            for m in file_module.iter().chain(item.module_path.iter()) {
                id.push_str("::");
                id.push_str(m);
            }
            if let Some(t) = &item.impl_type {
                id.push_str("::");
                id.push_str(t);
            }
            id.push_str("::");
            id.push_str(&item.name);
            nodes.push(Node {
                file: fi,
                item: ii,
                id,
                crate_name: krate.clone(),
                is_pub: item.is_pub,
                line: item.line,
            });
        }
    }

    let mut sym = Symbols {
        free: BTreeMap::new(),
        in_crate: BTreeMap::new(),
        assoc: BTreeMap::new(),
        methods: BTreeMap::new(),
        crate_aliases: BTreeMap::new(),
    };
    let file_modules: Vec<(String, Vec<String>)> = files
        .iter()
        .map(|f| crate_and_module(&f.rel_path))
        .collect();
    for (ni, n) in nodes.iter().enumerate() {
        let item = &files[n.file].items.fns[n.item];
        let (krate, file_module) = &file_modules[n.file];
        sym.crate_aliases.insert(krate.clone(), krate.clone());
        sym.crate_aliases
            .insert(format!("gdsearch_{krate}"), krate.clone());
        match &item.impl_type {
            Some(t) => {
                sym.assoc
                    .entry((t.clone(), item.name.clone()))
                    .or_default()
                    .push(ni);
                sym.methods.entry(item.name.clone()).or_default().push(ni);
            }
            None => {
                let mut module = file_module.clone();
                module.extend(item.module_path.iter().cloned());
                sym.free
                    .entry((krate.clone(), module.join("::"), item.name.clone()))
                    .or_default()
                    .push(ni);
                sym.in_crate
                    .entry((krate.clone(), item.name.clone()))
                    .or_default()
                    .push(ni);
            }
        }
    }

    // Per-file ident sets for the method-locality filter.
    let file_idents: Vec<BTreeSet<&str>> = files
        .iter()
        .map(|f| {
            f.lexed
                .tokens
                .iter()
                .map(|t| t.lexeme.as_str())
                .filter(|l| is_ident(l))
                .collect()
        })
        .collect();

    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); nodes.len()];
    let mut unresolved: BTreeMap<String, usize> = BTreeMap::new();
    let mut resolved_calls = 0usize;

    for ni in 0..nodes.len() {
        let n = &nodes[ni];
        let f = &files[n.file];
        let item = &f.items.fns[n.item];
        let Some((open, close)) = item.body else {
            continue;
        };
        let toks = &f.lexed.tokens;
        let (krate, file_module) = &file_modules[n.file];
        let mut module = file_module.clone();
        module.extend(item.module_path.iter().cloned());

        let mut i = open + 1;
        while i < close {
            let l = lexeme(toks, i);
            if !is_ident(l) || NON_CALL_KEYWORDS.contains(&l) || lexeme(toks, i + 1) != "(" {
                i += 1;
                continue;
            }
            let call = if lexeme(toks, i.wrapping_sub(1)) == "." {
                // `recv.f(…)` — method call, no receiver type known.
                resolve_method(ni, l, &nodes, &sym, &file_idents, files)
                    .ok_or_else(|| format!(".{l}"))
            } else {
                // Walk back over `::`-separated path segments.
                let mut segs: Vec<&str> = Vec::new();
                let mut j = i;
                while j >= 3 && lexeme(toks, j - 1) == ":" && lexeme(toks, j - 2) == ":" {
                    let prev = lexeme(toks, j - 3);
                    if is_ident(prev) {
                        segs.insert(0, prev);
                        j -= 3;
                    } else {
                        // `<T as Trait>::f(…)` / turbofish: opaque.
                        segs.clear();
                        segs.push("<qualified>");
                        break;
                    }
                }
                if segs.first() == Some(&"<qualified>") {
                    Err(l.to_string())
                } else {
                    resolve_path(
                        ni,
                        &segs,
                        l,
                        krate,
                        &module,
                        &nodes,
                        &sym,
                        &file_idents,
                        files,
                    )
                    .ok_or_else(|| {
                        let mut name = segs.join("::");
                        if !name.is_empty() {
                            name.push_str("::");
                        }
                        name.push_str(l);
                        name
                    })
                }
            };
            match call {
                Ok(callee) => {
                    edges[ni].push(callee);
                    resolved_calls += 1;
                }
                Err(name) => {
                    *unresolved.entry(name).or_insert(0) += 1;
                }
            }
            i += 1;
        }
    }
    for e in &mut edges {
        e.sort_unstable();
        e.dedup();
    }

    CallGraph {
        nodes,
        edges,
        unresolved,
        resolved_calls,
    }
}

/// Resolves a method call `recv.name(…)` from `caller` with locality
/// preference: same file + same impl, then unique in the caller's
/// crate, then unique among methods whose impl type the calling file
/// names. Ambiguity is unresolved, never guessed.
fn resolve_method(
    caller: usize,
    name: &str,
    nodes: &[Node],
    sym: &Symbols,
    file_idents: &[BTreeSet<&str>],
    files: &[SourceFile],
) -> Option<usize> {
    let cands = sym.methods.get(name)?;
    let cn = &nodes[caller];
    let caller_impl = files[cn.file].items.fns[cn.item].impl_type.as_deref();
    if let Some(ty) = caller_impl {
        let same: Vec<usize> = cands
            .iter()
            .copied()
            .filter(|&c| {
                nodes[c].file == cn.file
                    && files[nodes[c].file].items.fns[nodes[c].item]
                        .impl_type
                        .as_deref()
                        == Some(ty)
            })
            .collect();
        if same.len() == 1 {
            return Some(same[0]);
        }
    }
    let in_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_name == cn.crate_name)
        .collect();
    if in_crate.len() == 1 {
        return Some(in_crate[0]);
    }
    let mentioned: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| {
            files[nodes[c].file].items.fns[nodes[c].item]
                .impl_type
                .as_deref()
                .is_some_and(|t| file_idents[cn.file].contains(t))
        })
        .collect();
    if mentioned.len() == 1 {
        return Some(mentioned[0]);
    }
    None
}

/// Resolves `segs::name(…)` from `caller`.
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    caller: usize,
    segs: &[&str],
    name: &str,
    krate: &str,
    module: &[String],
    nodes: &[Node],
    sym: &Symbols,
    file_idents: &[BTreeSet<&str>],
    files: &[SourceFile],
) -> Option<usize> {
    let cn = &nodes[caller];
    let uses = &files[cn.file].items.uses;

    if segs.is_empty() {
        // Bare call: enclosing module chain (innermost out), imports,
        // unique-in-crate.
        let mut m = module.to_vec();
        loop {
            if let Some(v) = sym
                .free
                .get(&(krate.to_string(), m.join("::"), name.to_string()))
            {
                if v.len() == 1 {
                    return Some(v[0]);
                }
            }
            if m.pop().is_none() {
                break;
            }
        }
        for u in uses.iter().filter(|u| !u.glob && u.alias == name) {
            let segs: Vec<&str> = u.path.iter().map(String::as_str).collect();
            if segs.len() > 1 {
                if let Some(hit) = resolve_anchored(
                    &segs[..segs.len() - 1],
                    name,
                    krate,
                    module,
                    sym,
                    nodes,
                    file_idents,
                    cn.file,
                ) {
                    return Some(hit);
                }
            }
        }
        for u in uses.iter().filter(|u| u.glob) {
            let segs: Vec<&str> = u.path.iter().map(String::as_str).collect();
            if let Some(hit) =
                resolve_anchored(&segs, name, krate, module, sym, nodes, file_idents, cn.file)
            {
                return Some(hit);
            }
        }
        let v = sym.in_crate.get(&(krate.to_string(), name.to_string()))?;
        return if v.len() == 1 { Some(v[0]) } else { None };
    }

    // `Self::f(…)`: the caller's own impl type.
    if segs == ["Self"] {
        let ty = files[cn.file].items.fns[cn.item].impl_type.clone()?;
        return assoc_unique(sym, nodes, &ty, name, krate, file_idents, cn.file);
    }

    // Expand a leading import alias: `bfs::run(…)` after
    // `use gdsearch_graph::algo::bfs;`.
    if let Some(u) = uses.iter().find(|u| !u.glob && u.alias == segs[0]) {
        let mut full: Vec<&str> = u.path.iter().map(String::as_str).collect();
        full.extend(&segs[1..]);
        return resolve_anchored(&full, name, krate, module, sym, nodes, file_idents, cn.file);
    }
    resolve_anchored(segs, name, krate, module, sym, nodes, file_idents, cn.file)
}

/// Resolves `segs::name` once the leading alias (if any) is expanded.
/// Understands `crate`/`self`/`super`/`Self` anchors, crate-name roots,
/// associated fns on type-like tails, and falls back to a unique
/// module-suffix match.
#[allow(clippy::too_many_arguments)]
fn resolve_anchored(
    segs: &[&str],
    name: &str,
    krate: &str,
    module: &[String],
    sym: &Symbols,
    nodes: &[Node],
    file_idents: &[BTreeSet<&str>],
    caller_file: usize,
) -> Option<usize> {
    let mut segs = segs.to_vec();
    let mut krate = krate.to_string();
    let mut base: Vec<String> = module.to_vec();
    let mut anchored = false;

    while let Some(&first) = segs.first() {
        match first {
            "crate" => {
                base.clear();
                segs.remove(0);
                anchored = true;
            }
            "self" => {
                segs.remove(0);
                anchored = true;
            }
            "super" => {
                base.pop();
                segs.remove(0);
                anchored = true;
            }
            _ => {
                if let Some(c) = sym.crate_aliases.get(first) {
                    krate = c.clone();
                    base.clear();
                    segs.remove(0);
                    anchored = true;
                }
                break;
            }
        }
    }

    // Associated fn: the last segment is a type name.
    if let Some(&last) = segs.last() {
        if is_type_like(last) {
            return assoc_unique(sym, nodes, last, name, &krate, file_idents, caller_file);
        }
    }

    // Module path relative to the anchor.
    let mut full = base.clone();
    full.extend(segs.iter().map(|s| s.to_string()));
    if let Some(v) = sym
        .free
        .get(&(krate.clone(), full.join("::"), name.to_string()))
    {
        if v.len() == 1 {
            return Some(v[0]);
        }
    }
    // From the crate root (absolute module path without `crate::`).
    let rooted: Vec<String> = segs.iter().map(|s| s.to_string()).collect();
    if let Some(v) = sym
        .free
        .get(&(krate.clone(), rooted.join("::"), name.to_string()))
    {
        if v.len() == 1 {
            return Some(v[0]);
        }
    }
    if anchored {
        return None;
    }
    // Unique suffix match across the workspace: `push::forward(…)` hits
    // `diffusion::push::forward` when nothing else ends that way.
    let suffix = {
        let mut s = segs.join("::");
        s.push_str("::");
        s.push_str(name);
        format!("::{s}")
    };
    let hits: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, n)| n.id.ends_with(&suffix))
        .map(|(i, _)| i)
        .collect();
    if hits.len() == 1 {
        return Some(hits[0]);
    }
    None
}

/// Unique associated fn `(ty, name)`, preferring the caller's crate and
/// then files that name the type.
fn assoc_unique(
    sym: &Symbols,
    nodes: &[Node],
    ty: &str,
    name: &str,
    krate: &str,
    file_idents: &[BTreeSet<&str>],
    caller_file: usize,
) -> Option<usize> {
    let cands = sym.assoc.get(&(ty.to_string(), name.to_string()))?;
    if cands.len() == 1 {
        return Some(cands[0]);
    }
    let in_crate: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| nodes[c].crate_name == krate)
        .collect();
    if in_crate.len() == 1 {
        return Some(in_crate[0]);
    }
    let mentioned: Vec<usize> = cands
        .iter()
        .copied()
        .filter(|&c| {
            file_idents[caller_file].contains(nodes[c].id.split("::").last().unwrap_or(""))
        })
        .collect();
    if mentioned.len() == 1 {
        return Some(mentioned[0]);
    }
    None
}

impl CallGraph {
    /// Renders the graph in Graphviz DOT, one node per function that has
    /// at least one edge (isolated nodes would drown the picture), plus
    /// an unresolved-call summary comment block.
    pub fn to_dot(&self, files: &[SourceFile]) -> String {
        use std::fmt::Write as _;
        let mut out =
            String::from("digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=9];\n");
        let mut live = vec![false; self.nodes.len()];
        for (a, es) in self.edges.iter().enumerate() {
            for &b in es {
                live[a] = true;
                live[b] = true;
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            if live[i] {
                let _ = writeln!(
                    out,
                    "  n{} [label=\"{}\\n{}:{}\"];",
                    i, n.id, files[n.file].rel_path, n.line
                );
            }
        }
        for (a, es) in self.edges.iter().enumerate() {
            for &b in es {
                let _ = writeln!(out, "  n{a} -> n{b};");
            }
        }
        let _ = writeln!(
            out,
            "  // {} nodes, {} resolved call sites, {} distinct unresolved names",
            self.nodes.len(),
            self.resolved_calls,
            self.unresolved.len()
        );
        for (name, count) in &self.unresolved {
            let _ = writeln!(out, "  // unresolved {name} x{count}");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn idx(g: &CallGraph, id: &str) -> usize {
        g.nodes.iter().position(|n| n.id == id).unwrap_or_else(|| {
            panic!(
                "{id} missing from {:?}",
                g.nodes.iter().map(|n| &n.id).collect::<Vec<_>>()
            )
        })
    }

    fn has_edge(g: &CallGraph, a: &str, b: &str) -> bool {
        g.edges[idx(g, a)].contains(&idx(g, b))
    }

    #[test]
    fn crate_and_module_mapping() {
        assert_eq!(
            crate_and_module("crates/graph/src/lib.rs"),
            ("graph".into(), vec![])
        );
        assert_eq!(
            crate_and_module("crates/graph/src/algo/bfs.rs"),
            ("graph".into(), vec!["algo".into(), "bfs".into()])
        );
        assert_eq!(
            crate_and_module("crates/embed/src/index/mod.rs"),
            ("embed".into(), vec!["index".into()])
        );
        assert_eq!(
            crate_and_module("tests/tests/walk.rs").0,
            "tests/tests/walk"
        );
    }

    #[test]
    fn bare_and_module_calls_resolve_within_a_crate() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); sub::nested(); }\nfn helper() {}\nmod sub { pub fn nested() { super_helper(); } }\nfn super_helper() {}\n",
            ),
        ];
        let g = build(&files);
        assert!(has_edge(&g, "a::entry", "a::helper"));
        assert!(has_edge(&g, "a::entry", "a::sub::nested"));
        // Bare call from inside `sub` falls back to the module chain.
        assert!(has_edge(&g, "a::sub::nested", "a::super_helper"));
    }

    #[test]
    fn use_imports_resolve_across_crates() {
        let files = [
            file(
                "crates/graph/src/algo/bfs.rs",
                "pub fn run() {}\npub fn depth() {}\n",
            ),
            file(
                "crates/core/src/walk.rs",
                "use gdsearch_graph::algo::bfs;\nuse gdsearch_graph::algo::bfs::depth;\npub fn go() { bfs::run(); depth(); }\n",
            ),
        ];
        let g = build(&files);
        assert!(has_edge(&g, "core::walk::go", "graph::algo::bfs::run"));
        assert!(has_edge(&g, "core::walk::go", "graph::algo::bfs::depth"));
    }

    #[test]
    fn assoc_and_method_calls_resolve_uniquely() {
        let files = [
            file(
                "crates/graph/src/sharded.rs",
                "pub struct ShardedGraph;\nimpl ShardedGraph {\n    pub fn from_graph() -> Self { ShardedGraph }\n    pub fn peers_of(&self) {}\n}\n",
            ),
            file(
                "crates/core/src/scheme.rs",
                "use gdsearch_graph::sharded::ShardedGraph;\npub fn build() { let s = ShardedGraph::from_graph(); s.peers_of(); }\n",
            ),
        ];
        let g = build(&files);
        assert!(has_edge(
            &g,
            "core::scheme::build",
            "graph::sharded::ShardedGraph::from_graph"
        ));
        assert!(has_edge(
            &g,
            "core::scheme::build",
            "graph::sharded::ShardedGraph::peers_of"
        ));
    }

    #[test]
    fn ambiguous_methods_stay_unresolved() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "pub struct X;\nimpl X { pub fn tick(&self) {} }\n",
            ),
            file(
                "crates/b/src/lib.rs",
                "pub struct Y;\nimpl Y { pub fn tick(&self) {} }\n",
            ),
            file("crates/c/src/lib.rs", "pub fn go(v: &V) { v.tick(); }\n"),
        ];
        let g = build(&files);
        assert_eq!(g.edges[idx(&g, "c::go")], Vec::<usize>::new());
        assert_eq!(g.unresolved.get(".tick"), Some(&1));
    }

    #[test]
    fn self_method_calls_prefer_the_same_impl() {
        let files = [
            file(
                "crates/a/src/lib.rs",
                "pub struct E;\nimpl E {\n    pub fn run(&self) { self.step(); }\n    fn step(&self) {}\n}\n",
            ),
        ];
        let g = build(&files);
        assert!(has_edge(&g, "a::E::run", "a::E::step"));
    }

    #[test]
    fn externals_are_counted_not_guessed() {
        let files = [file(
            "crates/a/src/lib.rs",
            "pub fn f(v: Vec<u32>) { std::mem::drop(v); }\n",
        )];
        let g = build(&files);
        assert!(g.edges[0].is_empty());
        assert_eq!(g.unresolved.get("std::mem::drop"), Some(&1));
    }

    #[test]
    fn dot_export_names_nodes_and_edges() {
        let files = [file(
            "crates/a/src/lib.rs",
            "pub fn entry() { helper(); }\nfn helper() {}\n",
        )];
        let g = build(&files);
        let dot = g.to_dot(&files);
        assert!(dot.contains("a::entry"));
        assert!(dot.contains("->"));
        assert!(dot.starts_with("digraph callgraph"));
    }
}

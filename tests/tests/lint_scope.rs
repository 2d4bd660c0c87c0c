//! The static gate covers every library crate. Each `crates/*/src/lib.rs`
//! except the `bench` harness must carry the clippy lint block, so a new
//! library crate cannot skip it. Audited `#![expect]`s sit at the top of
//! the file that needs them, never on a crate root or a parent module,
//! where they would cover a whole crate or subtree.

use std::path::Path;

const LINTS: [&str; 9] = [
    "expect_used",
    "unwrap_used",
    "panic",
    "todo",
    "unimplemented",
    "unreachable",
    "indexing_slicing",
    "cast_possible_truncation",
    "cast_sign_loss",
];

#[test]
fn every_library_crate_is_in_scope() {
    let lints: Vec<String> = LINTS.iter().map(|l| format!("clippy::{l}")).collect();
    let block = format!("#![cfg_attr(not(test),warn({}))]", lints.join(","));
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("../crates");
    for entry in std::fs::read_dir(&crates).unwrap() {
        let dir = entry.unwrap().path();
        let lib = dir.join("src/lib.rs");
        if dir.ends_with("bench") || !lib.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&lib).unwrap();
        let compact: String = text.split_whitespace().collect();
        assert!(compact.contains(&block), "{} lacks {block}", lib.display());
        let parents = std::fs::read_dir(dir.join("src"))
            .unwrap()
            .map(|e| e.unwrap().path().join("mod.rs"));
        for root in std::iter::once(lib).chain(parents.filter(|p| p.is_file())) {
            let text = std::fs::read_to_string(&root).unwrap();
            assert!(
                !text.contains("#![expect("),
                "{} carries an #![expect]",
                root.display()
            );
        }
    }
}

//! Edge-list input and output.
//!
//! The format is the SNAP convention used by `facebook_combined.txt`: one
//! whitespace-separated `u v` pair per line, `#`-prefixed comment lines
//! ignored. Node ids must be dense (`0..n`); [`read_edge_list`] infers `n`
//! as `max id + 1`.
//!
//! Readers and writers are generic over [`std::io::Read`] /
//! [`std::io::Write`], so they accept files, buffers or in-memory strings —
//! pass `&mut reader` if you need to keep ownership.

use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::{Graph, GraphBuilder, GraphError};

/// Reads an undirected graph from a whitespace edge list.
///
/// Lines starting with `#` and blank lines are skipped. Duplicate edges are
/// collapsed.
///
/// # Errors
///
/// Returns [`GraphError::ParseEdgeList`] on malformed lines (including a
/// node id of `u32::MAX`, which no `u32`-sized graph can hold),
/// [`GraphError::SelfLoop`] on `u u` pairs and [`GraphError::Io`] on I/O
/// failures.
///
/// # Example
///
/// ```
/// use gdsearch_graph::io::read_edge_list;
///
/// # fn main() -> Result<(), gdsearch_graph::GraphError> {
/// let text = "# comment\n0 1\n1 2\n";
/// let g = read_edge_list(text.as_bytes())?;
/// assert_eq!(g.num_nodes(), 3);
/// assert_eq!(g.num_edges(), 2);
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<Graph, GraphError> {
    let buf = BufReader::new(reader);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_node: u32 = 0;
    let mut any = false;
    for (lineno, line) in buf.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        // `u32::MAX` parses but cannot be a node: the graph would need
        // `u32::MAX + 1` nodes.
        let parse = |tok: Option<&str>| -> Result<u32, GraphError> {
            tok.and_then(|t| t.parse::<u32>().ok())
                .filter(|&id| id < u32::MAX)
                .ok_or(GraphError::ParseEdgeList {
                    line: lineno + 1,
                    content: truncate(trimmed),
                })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        if it.next().is_some() {
            return Err(GraphError::ParseEdgeList {
                line: lineno + 1,
                content: truncate(trimmed),
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { node: u });
        }
        max_node = max_node.max(u).max(v);
        any = true;
        edges.push((u, v));
    }
    let num_nodes = if any { max_node + 1 } else { 0 };
    let mut builder = GraphBuilder::new(num_nodes);
    for (u, v) in edges {
        builder.add_edge(u, v)?;
    }
    Ok(builder.build())
}

/// Reads an edge list from a file path. See [`read_edge_list`].
///
/// # Errors
///
/// As [`read_edge_list`], plus [`GraphError::Io`] if the file cannot be
/// opened.
pub fn read_edge_list_path<P: AsRef<Path>>(path: P) -> Result<Graph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(file)
}

/// Writes a graph as a whitespace edge list, one `u v` line per undirected
/// edge with `u < v`, preceded by a `#` header recording node/edge counts.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_edge_list<W: Write>(graph: &Graph, writer: W) -> Result<(), GraphError> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# gdsearch edge list: {} nodes, {} edges",
        graph.num_nodes(),
        graph.num_edges()
    )?;
    for (u, v) in graph.edges() {
        writeln!(out, "{} {}", u.as_u32(), v.as_u32())?;
    }
    out.flush()?;
    Ok(())
}

fn truncate(s: &str) -> String {
    const MAX: usize = 60;
    if s.len() <= MAX {
        s.to_string()
    } else {
        format!("{}…", &s[..MAX])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn read_simple_edge_list() {
        let g = read_edge_list("0 1\n1 2\n2 0\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn read_skips_comments_and_blanks() {
        let g = read_edge_list("# header\n\n0 1\n   \n# more\n1 2\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn read_accepts_tabs_and_extra_spaces() {
        let g = read_edge_list("0\t1\n 1   2 \n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn read_rejects_malformed_lines() {
        let err = read_edge_list("0 1\nhello\n".as_bytes()).unwrap_err();
        match err {
            GraphError::ParseEdgeList { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
        assert!(read_edge_list("0 1 2\n".as_bytes()).is_err());
        assert!(read_edge_list("0 -1\n".as_bytes()).is_err());
    }

    #[test]
    fn read_rejects_the_largest_u32_id() {
        // Once `max id + 1` overflowed: a panic in debug builds, a
        // misleading out-of-range error in release.
        for text in ["0 4294967295\n", "1 2\n4294967295 0\n"] {
            match read_edge_list(text.as_bytes()) {
                Err(GraphError::ParseEdgeList { line, content }) => {
                    assert_eq!(line, text.lines().count(), "{text:?}");
                    assert!(content.contains("4294967295"), "{content}");
                }
                other => panic!("unexpected result {other:?} for {text:?}"),
            }
        }
    }

    #[test]
    fn read_rejects_self_loop() {
        assert!(matches!(
            read_edge_list("3 3\n".as_bytes()),
            Err(GraphError::SelfLoop { node: 3 })
        ));
    }

    #[test]
    fn empty_input_is_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn duplicate_lines_collapse() {
        let g = read_edge_list("0 1\n1 0\n0 1\n".as_bytes()).unwrap();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn write_then_read_roundtrip() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let g = generators::random_connected(40, 30, &mut rng).unwrap();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    #[allow(
        clippy::disallowed_methods,
        reason = "a scratch file location; no result depends on it"
    )]
    fn path_roundtrip_through_tempfile() {
        let dir = std::env::temp_dir().join("gdsearch-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ring.edges");
        let g = generators::ring(12).unwrap();
        write_edge_list(&g, std::fs::File::create(&path).unwrap()).unwrap();
        let back = read_edge_list_path(&path).unwrap();
        assert_eq!(g, back);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = read_edge_list_path("/definitely/not/here.edges").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)));
    }
}

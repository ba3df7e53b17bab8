//! Text serialization for graph databases.
//!
//! Line-oriented format, one edge per line: `src label dst` (whitespace
//! separated); lines starting with `#` are comments; a line `node NAME`
//! declares an isolated node. Round-trips through [`GraphDb`]: names the
//! format cannot represent (empty, containing whitespace, or starting
//! with `#`) make [`write_graph`] fail with a structured
//! [`GraphWriteError`] instead of silently emitting text that
//! [`parse_graph`] would mis-read.

use crate::graph::{Dir, GraphBuilder, GraphDb};
use pathlearn_automata::BitSet;
use std::fmt::Write as _;

/// Error from [`write_graph`]: the graph contains a node name or edge
/// label the line-oriented text format cannot represent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphWriteError {
    /// The unserializable name, verbatim.
    pub name: String,
    /// `"node"` or `"label"` — which namespace the offender lives in.
    pub kind: &'static str,
}

impl std::fmt::Display for GraphWriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} name {:?} cannot be serialized: the text format forbids empty names, \
             whitespace, and a leading '#'",
            self.kind, self.name
        )
    }
}

impl std::error::Error for GraphWriteError {}

/// `true` iff the text format can round-trip `name` (non-empty, no
/// whitespace, no leading `#`).
fn serializable(name: &str) -> bool {
    !name.is_empty() && !name.starts_with('#') && !name.chars().any(char::is_whitespace)
}

/// Error from [`parse_graph`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GraphParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for GraphParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "graph parse error on line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for GraphParseError {}

/// Parses the text format into a graph.
pub fn parse_graph(text: &str) -> Result<GraphDb, GraphParseError> {
    let mut builder = GraphBuilder::new();
    for (index, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["node", name] => {
                builder.add_node(name);
            }
            [src, label, dst] => {
                builder.add_edge(src, label, dst);
            }
            _ => {
                return Err(GraphParseError {
                    line: index + 1,
                    message: format!(
                        "expected `src label dst` or `node NAME`, got {} field(s)",
                        fields.len()
                    ),
                })
            }
        }
    }
    Ok(builder.build())
}

/// Serializes a graph into the text format (deterministic order).
///
/// Fails with a [`GraphWriteError`] when a node name or label cannot be
/// represented (empty, whitespace, or a leading `#`) — a guaranteed
/// round-trip is worth more than a best-effort string, since the old
/// behavior emitted text that [`parse_graph`] silently mis-read.
pub fn write_graph(graph: &GraphDb) -> Result<String, GraphWriteError> {
    for node in graph.nodes() {
        let name = graph.node_name(node);
        if !serializable(name) {
            return Err(GraphWriteError {
                name: name.to_owned(),
                kind: "node",
            });
        }
    }
    for sym in graph.alphabet().symbols() {
        let label = graph.alphabet().name(sym);
        if !serializable(label) {
            return Err(GraphWriteError {
                name: label.to_owned(),
                kind: "label",
            });
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} nodes, {} edges, {} labels",
        graph.num_nodes(),
        graph.num_edges(),
        graph.alphabet().len()
    );
    // A node is isolated iff no label's active set, in either direction,
    // holds it: one pass of word ORs, not a per-node walk of every label.
    let mut linked = BitSet::new(graph.num_nodes());
    for dir in Dir::BOTH {
        for sym in graph.alphabet().symbols() {
            linked.union_with(graph.label_active(dir, sym));
        }
    }
    for node in graph
        .nodes()
        .filter(|&node| !linked.contains(node as usize))
    {
        let _ = writeln!(out, "node {}", graph.node_name(node));
    }
    for (src, sym, dst) in graph.edges() {
        let _ = writeln!(
            out,
            "{} {} {}",
            graph.node_name(src),
            graph.alphabet().name(sym),
            graph.node_name(dst)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::figure3_g0;

    #[test]
    fn roundtrip_figure3() {
        let graph = figure3_g0();
        let text = write_graph(&graph).unwrap();
        let parsed = parse_graph(&text).unwrap();
        assert_eq!(parsed.num_nodes(), graph.num_nodes());
        assert_eq!(parsed.num_edges(), graph.num_edges());
        // Edge sets agree modulo naming.
        for (src, sym, dst) in graph.edges() {
            let label = graph.alphabet().name(sym);
            let psrc = parsed.node_id(graph.node_name(src)).unwrap();
            let pdst = parsed.node_id(graph.node_name(dst)).unwrap();
            let psym = parsed.alphabet().symbol(label).unwrap();
            assert!(parsed
                .successors(psrc, psym)
                .iter()
                .any(|&(_, t)| t == pdst));
        }
    }

    #[test]
    fn parse_errors_and_comments() {
        assert!(parse_graph("a b").is_err());
        assert_eq!(parse_graph("a b").unwrap_err().line, 1);
        let graph = parse_graph("# comment\n\n x a y \nnode lonely\n").unwrap();
        assert_eq!(graph.num_nodes(), 3);
        assert_eq!(graph.num_edges(), 1);
        assert!(graph.node_id("lonely").is_some());
    }

    #[test]
    fn isolated_nodes_survive_roundtrip() {
        let graph = parse_graph("node alone\nx a y\n").unwrap();
        let text = write_graph(&graph).unwrap();
        let parsed = parse_graph(&text).unwrap();
        assert!(parsed.node_id("alone").is_some());
        assert_eq!(parsed.num_nodes(), 3);
    }

    #[test]
    fn write_rejects_unserializable_names() {
        // Whitespace in a node name: the old writer emitted it verbatim,
        // and parse saw four fields (silent round-trip corruption).
        let mut builder = GraphBuilder::new();
        builder.add_edge("a node", "lbl", "y");
        let err = write_graph(&builder.build()).unwrap_err();
        assert_eq!(err.kind, "node");
        assert_eq!(err.name, "a node");

        // Leading '#' in a label: the line would parse as a comment.
        let mut builder = GraphBuilder::new();
        builder.add_edge("x", "#bad", "y");
        let err = write_graph(&builder.build()).unwrap_err();
        assert_eq!(err.kind, "label");
        assert!(err.to_string().contains("#bad"));

        // Empty node name: `node ` parses as a malformed line.
        let mut builder = GraphBuilder::new();
        builder.add_node("");
        assert!(write_graph(&builder.build()).is_err());
    }

    #[test]
    fn write_includes_delta_overlay_edges() {
        let graph = figure3_g0();
        let a = graph.alphabet().symbol("a").unwrap();
        let (v4, v1) = (graph.node_id("v4").unwrap(), graph.node_id("v1").unwrap());
        let patched = graph.with_delta(&[(v4, a, v1)], &[]).unwrap();
        let text = write_graph(&patched).unwrap();
        assert!(text.contains("v4 a v1"));
        let parsed = parse_graph(&text).unwrap();
        assert_eq!(parsed.num_edges(), graph.num_edges() + 1);
    }
}

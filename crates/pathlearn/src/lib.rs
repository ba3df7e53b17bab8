//! # pathlearn — learning path queries on graph databases
//!
//! A from-scratch Rust reproduction of *Learning Path Queries on Graph
//! Databases* (Bonifati, Ciucanu, Lemay — EDBT 2015). This meta-crate
//! re-exports the public API of the workspace:
//!
//! * [`automata`] — NFAs/DFAs, regexes, RPNI, antichain inclusion;
//! * [`graph`] — the graph database, `paths_G` machinery, RPQ evaluation,
//!   SCP search;
//! * [`core`] — the paper's learner (Algorithm 1), consistency
//!   checking, characteristic graphs (Theorem 3.5);
//! * [`interactive`] — the interactive scenario of §4 (certain nodes,
//!   `kR`/`kS` strategies, the Figure 9 loop);
//! * [`datagen`] — synthetic graph generators and the paper's workloads;
//! * [`eval`] — experiment runners and metrics for §5;
//! * [`server`] — the concurrent RPQ serving layer: canonical result
//!   cache, query coalescing, admission scheduling over the eval pool.
//!
//! ## Quickstart
//!
//! ```
//! use pathlearn::prelude::*;
//!
//! // The geographical graph of Figure 1.
//! let mut builder = GraphBuilder::new();
//! for (src, label, dst) in [
//!     ("N1", "tram", "N4"), ("N2", "bus", "N1"), ("N2", "bus", "N3"),
//!     ("N3", "bus", "N2"), ("N4", "cinema", "C1"), ("N6", "cinema", "C2"),
//! ] {
//!     builder.add_edge(src, label, dst);
//! }
//! let graph = builder.build();
//!
//! // Positive examples: nodes from which a cinema is reachable by
//! // public transport; negative: the cinema node itself.
//! let sample = Sample::new()
//!     .positive(graph.node_id("N2").unwrap())
//!     .positive(graph.node_id("N6").unwrap())
//!     .negative(graph.node_id("C1").unwrap());
//!
//! let learner = Learner::default();
//! let outcome = learner.learn(&graph, &sample);
//! let query = outcome.query.expect("a consistent query exists");
//! // Sound with abstain: the learned query is consistent with the sample.
//! let selected = query.eval(&graph);
//! assert!(selected.contains(graph.node_id("N2").unwrap() as usize));
//! assert!(selected.contains(graph.node_id("N6").unwrap() as usize));
//! assert!(!selected.contains(graph.node_id("C1").unwrap() as usize));
//! ```

pub use pathlearn_automata as automata;
pub use pathlearn_core as core;
pub use pathlearn_datagen as datagen;
pub use pathlearn_eval as eval;
pub use pathlearn_graph as graph;
pub use pathlearn_interactive as interactive;
pub use pathlearn_server as server;

/// Convenience re-exports of the most common types.
pub mod prelude {
    pub use pathlearn_automata::{Alphabet, Dfa, Nfa, Regex, Symbol, Word};
    pub use pathlearn_core::{query::PathQuery, sample::Sample, Learner, LearnerConfig};
    pub use pathlearn_graph::{EvalPool, GraphBuilder, GraphDb, NodeId};
    pub use pathlearn_interactive::{
        session::{InteractiveConfig, InteractiveSession},
        strategy::StrategyKind,
    };
    pub use pathlearn_server::{QueryService, ServeConfig, ServeStats, Served};
}

//! Whole-query evaluation planning: the choice of binary engine
//! (forward or backward).
//!
//! The step cost gate ([`crate::graph::StepPolicy`]) prices each
//! `(level, symbol)` kernel *during* evaluation; this module makes the
//! one **whole-query** decision made *before* evaluation: which binary
//! engine to run, chosen from the graph's frozen per-label statistics
//! (active-node popcounts and average degrees,
//! [`GraphDb::label_active_count`] and [`GraphDb::label_avg_degree`]):
//!
//! * **Forward** — deterministic forward search from the source.
//! * **Backward** — two-phase: a full backward **coreachability**
//!   fixpoint followed by a forward pass whose every step is
//!   intersected with the coreach certificate. When the query's target
//!   side touches a rare label the certificate collapses to a sliver of
//!   the graph and the forward pass does almost no work. The forward
//!   pass only starts once the certificate has converged (a node's
//!   coreach membership is only known at fixpoint), which keeps both
//!   engines **bit-identical**.
//!
//! A plan evaluates the query DFA **as given**. The canonical DFAs the
//! serving layer plans are minimal, hence already trimmed and
//! BFS-numbered, so there is nothing left to preprocess.
//!
//! Monadic evaluation has **one** engine — the backward product search
//! over the query DFA, seeded at its accepting states (see
//! [`crate::eval`]) — so a plan decides nothing for a monadic goal: a
//! monadic query has no distinguished source side to search from, and
//! every [`Strategy`] evaluates it the same way.
//!
//! ## The direction estimate
//!
//! Frontier growth is propagated symbolically over the automaton for a
//! fixed horizon ([`HORIZON`] levels): each state carries a scalar
//! frontier mass; stepping mass `s` over symbol `a` in direction `d`
//! is priced as `s` (the frontier scan) plus the estimated output
//!
//! ```text
//! min(|active(d', a)|, s · avg_degree(d, a))        d' = d.reverse()
//! ```
//!
//! — `a`-edges per active node in direction `d`, never more nodes than
//! carry an `a`-edge in the opposite direction (an out-edge step lands
//! on nodes with an incoming `a`-edge, and vice versa) — with per-state
//! masses capped at `|V|`. The summed cost over the horizon
//! approximates total frontier mass processed. The estimate compares
//! forward-from-one-node growth against the coreach fixpoint cost
//! (`|V|` seeded at every accepting state, propagated along reverse
//! transitions), and `Auto` picks Backward exactly when the backward
//! cost is the smaller one. Estimates only ever pick *which* parameter
//! set [`crate::EvalPool::evaluate`] drives its one level loop with
//! (see [`crate::eval`]) — results are bit-identical regardless, as the
//! strategy-matrix differential suite asserts.

use crate::eval::TransIndex;
use crate::graph::{Dir, GraphDb};
use pathlearn_automata::{Dfa, Symbol};

/// Levels of symbolic frontier propagation behind a direction estimate.
/// Deep enough for single-seed forward growth to exhibit its explosion
/// against the caps, small enough to stay trivial next to evaluation.
pub const HORIZON: usize = 8;

/// Binary evaluation strategy.
///
/// `Auto` resolves to a concrete engine at planning time
/// ([`plan_query`]); the other two force it, which the differential
/// suites use to pin every engine.
/// Monadic evaluation has one engine and ignores the strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Choose per query from the direction estimates.
    #[default]
    Auto,
    /// Forward search from the source.
    Forward,
    /// Coreachability fixpoint, then a certificate-pruned forward pass.
    Backward,
}

impl Strategy {
    /// All strategies, for the differential tests.
    pub const ALL: [Strategy; 3] = [Strategy::Auto, Strategy::Forward, Strategy::Backward];

    /// Stable lowercase name (stats counters, bench JSON, CLI).
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Forward => "forward",
            Strategy::Backward => "backward",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The two direction costs behind a binary resolution, in estimated
/// frontier mass (see the module docs). Exposed for diagnostics, tests
/// and the ARCHITECTURE.md formula.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DirectionEstimate {
    /// Estimated cost of the forward engine.
    pub forward: f64,
    /// Estimated cost of the backward engine.
    pub backward: f64,
}

/// A planned query: the automaton plus the resolved binary strategy.
///
/// Plans depend only on the query's language and the graph's frozen
/// statistics, so the serving layer caches them keyed by
/// [`pathlearn_automata::CanonicalQuery`] — fingerprint replays skip
/// planning entirely.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    query: Dfa,
    binary: Strategy,
    binary_estimate: DirectionEstimate,
}

impl QueryPlan {
    /// The forward plan of `query` without estimates — what the raw-DFA
    /// shorthands ([`crate::eval::eval_monadic`] and friends) evaluate
    /// under, and what a caller that will evaluate a DFA once, or only
    /// monadically, should use instead of paying for a planning pass.
    pub fn forward(query: &Dfa) -> QueryPlan {
        QueryPlan {
            query: query.clone(),
            binary: Strategy::Forward,
            binary_estimate: DirectionEstimate::default(),
        }
    }

    /// The query DFA every engine evaluates, as the plan was given it.
    pub fn query(&self) -> &Dfa {
        &self.query
    }

    /// Resolved binary strategy: [`Strategy::Forward`] or
    /// [`Strategy::Backward`], never `Auto`.
    pub fn binary_strategy(&self) -> Strategy {
        self.binary
    }

    /// The binary direction estimate the resolution came from.
    pub fn binary_estimate(&self) -> DirectionEstimate {
        self.binary_estimate
    }
}

/// Estimated output mass of one step of mass `s` over `sym` in
/// direction `dir`: never more nodes than carry a `sym`-edge in the
/// opposite direction (where the step's endpoints are active).
fn step_est(graph: &GraphDb, dir: Dir, sym: Symbol, s: f64) -> f64 {
    let cap = graph.label_active_count(dir.reverse(), sym) as f64;
    (s * graph.label_avg_degree(dir, sym)).min(cap)
}

/// Symbolic frontier propagation behind both sides of the estimate:
/// `mass` (one scalar per state of `index`'s automaton) is stepped for
/// [`HORIZON`] levels along `index`'s live rows through the step
/// estimate of `dir`. One kernel is priced per `(state, symbol)` and
/// its output fanned out to every target — exactly the level kernel's
/// sharing structure ([`crate::eval`]).
fn simulate(index: &TransIndex, graph: &GraphDb, dir: Dir, mut mass: Vec<f64>) -> f64 {
    let v = graph.num_nodes() as f64;
    let mut cost = 0.0;
    for _ in 0..HORIZON {
        let mut next = vec![0.0f64; mass.len()];
        let mut alive = false;
        for (q, &m) in mass.iter().enumerate() {
            if m <= 0.0 {
                continue;
            }
            for row in index.live(q as u32) {
                let symbol = Symbol::from_index(row.sym as usize);
                let out = step_est(graph, dir, symbol, m);
                cost += m + out;
                if out > 0.0 {
                    for &t in index.targets(row) {
                        next[t as usize] = (next[t as usize] + out).min(v);
                    }
                    alive = true;
                }
            }
        }
        if !alive {
            break;
        }
        mass = next;
    }
    cost
}

/// Cost of the codeterministic backward search (the coreach
/// fixpoint): `|V|` seeded at every accepting state, propagated along
/// reverse transitions through in-edge step estimates.
fn sim_codeterministic(query: &Dfa, graph: &GraphDb) -> f64 {
    let mut mass = vec![0.0f64; query.num_states()];
    for f in query.finals().iter() {
        mass[f] = graph.num_nodes() as f64;
    }
    let index = TransIndex::reverse(query, graph.alphabet().len());
    simulate(&index, graph, Dir::In, mass)
}

/// Cost of the deterministic forward search: one node seeded at the
/// initial state, propagated along forward transitions through
/// out-edge step estimates.
fn sim_deterministic(dfa: &Dfa, graph: &GraphDb) -> f64 {
    if dfa.num_states() == 0 {
        return 0.0;
    }
    let mut mass = vec![0.0f64; dfa.num_states()];
    mass[dfa.initial() as usize] = 1.0f64.min(graph.num_nodes() as f64);
    let index = TransIndex::forward(dfa, graph.alphabet().len());
    simulate(&index, graph, Dir::Out, mass)
}

/// Plans a query under [`Strategy::Auto`]: estimate both directions,
/// resolve. See [`plan_query_forced`] to pin a strategy.
pub fn plan_query(query: &Dfa, graph: &GraphDb) -> QueryPlan {
    plan_query_forced(query, graph, Strategy::Auto)
}

/// Plans a query with a forced binary strategy; `Auto` resolves from
/// the direction estimate. The estimate is computed in every case, so
/// diagnostics can always report it. Linear in the automaton: nothing
/// here determinizes.
pub fn plan_query_forced(query: &Dfa, graph: &GraphDb, forced: Strategy) -> QueryPlan {
    let binary_estimate = DirectionEstimate {
        forward: sim_deterministic(query, graph),
        // The coreach fixpoint dominates the backward binary engine;
        // the certificate-pruned forward pass it buys is the payoff.
        backward: sim_codeterministic(query, graph),
    };
    let binary = match forced {
        Strategy::Auto if binary_estimate.backward < binary_estimate.forward => Strategy::Backward,
        Strategy::Auto => Strategy::Forward,
        forced => forced,
    };
    QueryPlan {
        query: query.clone(),
        binary,
        binary_estimate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_binary_from, eval_monadic, EvalScratch, Goal};
    use crate::graph::figure3_g0;
    use crate::{CancelToken, EvalPool};
    use pathlearn_automata::{BitSet, Regex};

    fn evaluate(
        scratch: &mut EvalScratch,
        plan: &QueryPlan,
        graph: &GraphDb,
        goal: Goal,
    ) -> BitSet {
        EvalPool::sequential()
            .evaluate(scratch, plan, graph, goal, &CancelToken::never())
            .unwrap()
    }

    fn query(graph: &GraphDb, expr: &str) -> Dfa {
        Regex::parse(expr, graph.alphabet())
            .unwrap()
            .to_dfa(graph.alphabet().len())
    }

    #[test]
    fn every_forced_strategy_is_bit_identical_on_g0() {
        let graph = figure3_g0();
        let mut scratch = EvalScratch::new();
        for expr in [
            "a",
            "eps",
            "(a·b)*·c",
            "b·b·c·c",
            "(a+b)*·c",
            "c·a*",
            "a*·b*·c*",
        ] {
            let q = query(&graph, expr);
            let monadic_expected = eval_monadic(&q, &graph);
            for forced in Strategy::ALL {
                let plan = plan_query_forced(&q, &graph, forced);
                assert_eq!(
                    evaluate(&mut scratch, &plan, &graph, Goal::Monadic),
                    monadic_expected,
                    "monadic {expr} forced {forced}"
                );
                for source in graph.nodes() {
                    assert_eq!(
                        evaluate(&mut scratch, &plan, &graph, Goal::BinaryFrom(source)),
                        eval_binary_from(&q, &graph, source),
                        "binary {expr} from {source} forced {forced}"
                    );
                }
            }
        }
        let empty = Dfa::empty_language(3);
        for forced in Strategy::ALL {
            let plan = plan_query_forced(&empty, &graph, forced);
            assert!(evaluate(&mut scratch, &plan, &graph, Goal::Monadic).is_empty());
            assert!(evaluate(&mut scratch, &plan, &graph, Goal::BinaryFrom(0)).is_empty());
        }
    }

    #[test]
    fn forced_strategies_resolve_as_requested() {
        let graph = figure3_g0();
        let q = query(&graph, "(a·b)*·c");
        for forced in [Strategy::Forward, Strategy::Backward] {
            let plan = plan_query_forced(&q, &graph, forced);
            assert_eq!(plan.binary_strategy(), forced);
        }
        // Auto never leaves Auto in the plan.
        assert_ne!(plan_query(&q, &graph).binary_strategy(), Strategy::Auto);
    }

    #[test]
    fn plan_preprocessing_preserves_language_and_key() {
        let graph = figure3_g0();
        // A deliberately wasteful spelling: planning rewrites no
        // automaton, so the plan evaluates exactly the DFA it was given
        // and its language and canonical key are the caller's.
        let q = query(&graph, "(a+a)·(b·eps)*·c+a·(b)*·c");
        for forced in Strategy::ALL {
            assert_eq!(plan_query_forced(&q, &graph, forced).query(), &q);
        }
        let raw = QueryPlan::forward(&q);
        assert_eq!(raw.query(), &q);
        assert_eq!(raw.binary_strategy(), Strategy::Forward);
    }

    #[test]
    fn estimates_are_finite_and_populated() {
        let graph = figure3_g0();
        let plan = plan_query(&query(&graph, "(a+b)*·c"), &graph);
        let est = plan.binary_estimate();
        assert!(est.forward.is_finite() && est.forward > 0.0);
        assert!(est.backward.is_finite() && est.backward > 0.0);
    }
}

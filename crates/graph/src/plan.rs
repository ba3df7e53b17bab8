//! Whole-query evaluation planning: forward / backward / bidirectional
//! direction choice plus automaton preprocessing.
//!
//! The PR 4 cost gate ([`crate::graph::StepPolicy`]) prices each
//! `(level, symbol)` kernel *during* evaluation; this module generalizes
//! that to **whole-query** decisions made *before* evaluation:
//!
//! 1. **Preprocess the automaton** ([`pathlearn_automata::Dfa::reduced`]):
//!    dead/unreachable-state pruning plus BFS state reordering, so every
//!    engine sees a smaller product with cache-friendly state numbering.
//!    Language-preserving, hence
//!    [`pathlearn_automata::CanonicalQuery`]-key-preserving.
//! 2. **Choose a direction** per semantics from the graph's frozen
//!    per-label statistics (active-node popcounts and average degrees,
//!    [`GraphDb::label_active_count`] and [`GraphDb::label_avg_degree`]):
//!
//!    * **Monadic Forward** — the backward product search over the
//!      original DFA: one full-node seed per accepting state,
//!      reverse-transition fan-out per step.
//!    * **Monadic Backward** — evaluate the **reversed DFA** from the
//!      query's accepting side: exactly one full-node seed at `rev(q)`'s
//!      initial state and one deterministic successor per step. Both
//!      ride the graph's in-edge kernels (the monadic answer is a set
//!      of path *starts*, which only in-edge steps can deliver); the
//!      difference is automaton bookkeeping, and the estimator prices
//!      exactly that.
//!    * **Binary Forward** — deterministic forward search from the
//!      source.
//!    * **Binary Backward** — two-phase: a full backward
//!      **coreachability** fixpoint followed by a forward pass whose
//!      every step is intersected with the coreach certificate. When
//!      the query's target side touches a rare label the certificate
//!      collapses to a sliver of the graph and the forward pass does
//!      almost no work.
//!    * **Binary Bidirectional** — meet-in-the-middle: backward-coreach
//!      levels and forward levels **interleave**; once the backward side
//!      converges, remaining forward steps are certificate-pruned, and
//!      if the forward side finishes first the backward side is simply
//!      abandoned. Pruning by a *partial* certificate would be unsound
//!      (a node's coreach membership is only known at fixpoint), so
//!      forward steps stay unpruned until convergence — which also
//!      keeps every strategy **bit-identical**.
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
//! approximates total frontier mass processed. Monadic compares the
//! original automaton (seeded `|V|` at every accepting state) against
//! the reversed one (seeded `|V|` at its initial state); binary
//! compares forward-from-one-node growth against
//! the coreach fixpoint cost, requiring a 2× margin before committing
//! to Backward and settling for Bidirectional in between. Estimates
//! only ever pick *which* parameter set [`crate::EvalPool::evaluate`]
//! drives its one level loop with (see [`crate::eval`]) — results are
//! bit-identical regardless, as the strategy-matrix differential suite
//! asserts.

use crate::eval::TransIndex;
use crate::graph::{Dir, GraphDb};
use pathlearn_automata::{Dfa, Symbol};

/// Levels of symbolic frontier propagation behind a direction estimate.
/// Deep enough for single-seed forward growth to exhibit its explosion
/// against the caps, small enough to stay trivial next to evaluation.
pub const HORIZON: usize = 8;

/// Auto never picks the monadic backward engine when the reversed DFA
/// exceeds this many states (subset construction can blow up
/// exponentially; the reversed product would dwarf any traversal win).
/// Forcing [`Strategy::Backward`] still works at any size.
pub const MAX_REV_STATES: usize = 64;

/// Whole-query evaluation strategy.
///
/// `Auto` resolves to a concrete direction at planning time
/// ([`plan_query`]); the other three force it, which the benchmark
/// ablation and the differential suite use to pin every engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Choose per query from the direction estimates.
    #[default]
    Auto,
    /// Forward evaluation (the pre-planner engines).
    Forward,
    /// Reversed-DFA (monadic) / coreach-then-pruned-forward (binary).
    Backward,
    /// Meet-in-the-middle for binary queries; monadic resolves to the
    /// estimated better direction (a monadic query has no distinguished
    /// source side to meet from).
    Bidirectional,
}

impl Strategy {
    /// All strategies, for ablation sweeps and tests.
    pub const ALL: [Strategy; 4] = [
        Strategy::Auto,
        Strategy::Forward,
        Strategy::Backward,
        Strategy::Bidirectional,
    ];

    /// Stable lowercase name (stats counters, bench JSON, CLI).
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Auto => "auto",
            Strategy::Forward => "forward",
            Strategy::Backward => "backward",
            Strategy::Bidirectional => "bidirectional",
        }
    }
}

impl std::fmt::Display for Strategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The two direction costs behind a resolution, in estimated frontier
/// mass (see the module docs). Exposed for diagnostics, tests and the
/// ARCHITECTURE.md formula.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DirectionEstimate {
    /// Estimated cost of the forward engine.
    pub forward: f64,
    /// Estimated cost of the backward engine.
    pub backward: f64,
}

/// A planned query: preprocessed automata plus resolved strategies.
///
/// Plans depend only on the query's language and the graph's frozen
/// statistics, so the serving layer caches them keyed by
/// [`pathlearn_automata::CanonicalQuery`] — fingerprint replays skip
/// planning entirely.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    query: Dfa,
    /// `None` only in [`QueryPlan::forward`] plans, which never resolve
    /// to the engine that reads it.
    reversed: Option<Dfa>,
    monadic: Strategy,
    binary: Strategy,
    monadic_estimate: DirectionEstimate,
    binary_estimate: DirectionEstimate,
}

impl QueryPlan {
    /// The all-forward plan of `query` **as given**: no `reduced()`, no
    /// `reverse()`, no estimates — what the raw-DFA shorthands
    /// ([`crate::eval::eval_monadic`] and friends) evaluate under, and
    /// what a caller that will evaluate a DFA once should use instead
    /// of paying for a planning pass.
    pub fn forward(query: &Dfa) -> QueryPlan {
        QueryPlan {
            query: query.clone(),
            reversed: None,
            monadic: Strategy::Forward,
            binary: Strategy::Forward,
            monadic_estimate: DirectionEstimate::default(),
            binary_estimate: DirectionEstimate::default(),
        }
    }

    /// The query DFA every forward-direction engine evaluates
    /// (trimmed and BFS-reordered by [`plan_query`]).
    pub fn query(&self) -> &Dfa {
        &self.query
    }

    /// The preprocessed reversal (`rev(L)`) the monadic backward engine
    /// evaluates; `None` for [`QueryPlan::forward`] plans.
    pub fn reversed(&self) -> Option<&Dfa> {
        self.reversed.as_ref()
    }

    /// Resolved monadic strategy: [`Strategy::Forward`] or
    /// [`Strategy::Backward`], never `Auto`.
    pub fn monadic_strategy(&self) -> Strategy {
        self.monadic
    }

    /// Resolved binary strategy: [`Strategy::Forward`],
    /// [`Strategy::Backward`] or [`Strategy::Bidirectional`], never
    /// `Auto`.
    pub fn binary_strategy(&self) -> Strategy {
        self.binary
    }

    /// The monadic direction estimate the resolution came from.
    pub fn monadic_estimate(&self) -> DirectionEstimate {
        self.monadic_estimate
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

/// Symbolic frontier propagation behind every direction estimate:
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

/// Cost of the codeterministic backward search (monadic forward /
/// binary coreach): `|V|` seeded at every accepting state, propagated
/// along reverse transitions through in-edge step estimates.
fn sim_codeterministic(query: &Dfa, graph: &GraphDb) -> f64 {
    let mut mass = vec![0.0f64; query.num_states()];
    for f in query.finals().iter() {
        mass[f] = graph.num_nodes() as f64;
    }
    let index = TransIndex::reverse(query, graph.alphabet().len());
    simulate(&index, graph, Dir::In, mass)
}

/// Cost of a deterministic search: `init_mass` seeded at the initial
/// state, propagated along forward transitions through the step
/// estimates of `dir` (in-edge for the reversed-DFA monadic engine,
/// out-edge for binary forward).
fn sim_deterministic(dfa: &Dfa, graph: &GraphDb, dir: Dir, init_mass: f64) -> f64 {
    if dfa.num_states() == 0 {
        return 0.0;
    }
    let mut mass = vec![0.0f64; dfa.num_states()];
    mass[dfa.initial() as usize] = init_mass.min(graph.num_nodes() as f64);
    let index = TransIndex::forward(dfa, graph.alphabet().len());
    simulate(&index, graph, dir, mass)
}

/// Plans a query under [`Strategy::Auto`]: preprocess, estimate both
/// directions, resolve. See [`plan_query_forced`] to pin a strategy.
pub fn plan_query(query: &Dfa, graph: &GraphDb) -> QueryPlan {
    plan_query_forced(query, graph, Strategy::Auto)
}

/// Plans a query with a forced strategy. `Auto` resolves from the
/// direction estimates; `Forward`/`Backward` pin both semantics;
/// `Bidirectional` pins the binary engine while monadic (which has no
/// source side to meet from) falls back to its estimated direction.
/// Estimates are computed in every case, so diagnostics and the bench
/// ablation can always report them.
pub fn plan_query_forced(query: &Dfa, graph: &GraphDb, forced: Strategy) -> QueryPlan {
    let reduced = query.reduced();
    // The reversal's subset construction can leave dead macro-states;
    // reduce it too so the backward engine sees a trimmed product.
    let reversed = reduced.reverse().reduced();

    let monadic_estimate = DirectionEstimate {
        forward: sim_codeterministic(&reduced, graph),
        backward: sim_deterministic(&reversed, graph, Dir::In, graph.num_nodes() as f64),
    };
    let binary_estimate = DirectionEstimate {
        forward: sim_deterministic(&reduced, graph, Dir::Out, 1.0),
        // The coreach fixpoint dominates the backward binary engine;
        // the certificate-pruned forward pass it buys is the payoff.
        backward: sim_codeterministic(&reduced, graph),
    };

    let auto_monadic = if monadic_estimate.backward < monadic_estimate.forward
        && reversed.num_states() <= MAX_REV_STATES
    {
        Strategy::Backward
    } else {
        Strategy::Forward
    };
    let auto_binary = if 2.0 * binary_estimate.backward < binary_estimate.forward {
        Strategy::Backward
    } else if binary_estimate.backward < binary_estimate.forward {
        Strategy::Bidirectional
    } else {
        Strategy::Forward
    };

    let (monadic, binary) = match forced {
        Strategy::Auto => (auto_monadic, auto_binary),
        Strategy::Forward => (Strategy::Forward, Strategy::Forward),
        Strategy::Backward => (Strategy::Backward, Strategy::Backward),
        Strategy::Bidirectional => (auto_monadic, Strategy::Bidirectional),
    };

    QueryPlan {
        query: reduced,
        reversed: Some(reversed),
        monadic,
        binary,
        monadic_estimate,
        binary_estimate,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_binary_from, eval_monadic, EvalScratch, Goal};
    use crate::graph::figure3_g0;
    use crate::{CancelToken, EvalPool};
    use pathlearn_automata::{BitSet, CanonicalQuery, Regex};

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
        let fwd = plan_query_forced(&q, &graph, Strategy::Forward);
        assert_eq!(fwd.monadic_strategy(), Strategy::Forward);
        assert_eq!(fwd.binary_strategy(), Strategy::Forward);
        let back = plan_query_forced(&q, &graph, Strategy::Backward);
        assert_eq!(back.monadic_strategy(), Strategy::Backward);
        assert_eq!(back.binary_strategy(), Strategy::Backward);
        let bidi = plan_query_forced(&q, &graph, Strategy::Bidirectional);
        assert_eq!(bidi.binary_strategy(), Strategy::Bidirectional);
        // Monadic has no meet-in-the-middle; it resolves to a direction.
        assert_ne!(bidi.monadic_strategy(), Strategy::Bidirectional);
        assert_ne!(bidi.monadic_strategy(), Strategy::Auto);
        // Auto never leaves Auto in the plan.
        let auto = plan_query(&q, &graph);
        assert_ne!(auto.monadic_strategy(), Strategy::Auto);
        assert_ne!(auto.binary_strategy(), Strategy::Auto);
    }

    #[test]
    fn plan_preprocessing_preserves_language_and_key() {
        let graph = figure3_g0();
        // A deliberately wasteful spelling: minimization would shrink it,
        // but the plan only trims/reorders — language must be intact.
        let q = query(&graph, "(a+a)·(b·eps)*·c+a·(b)*·c");
        let plan = plan_query(&q, &graph);
        assert!(plan.query().equivalent(&q));
        assert_eq!(CanonicalQuery::new(plan.query()), CanonicalQuery::new(&q));
        assert!(plan.query().num_states() <= q.num_states().max(1));
        // The reversal recognizes rev(L).
        assert!(plan.reversed().unwrap().reverse().equivalent(&q));
        // A forward plan keeps the DFA as given and needs no reversal.
        let raw = QueryPlan::forward(&q);
        assert_eq!(raw.query().num_states(), q.num_states());
        assert!(raw.reversed().is_none());
        assert_eq!(raw.monadic_strategy(), Strategy::Forward);
        assert_eq!(raw.binary_strategy(), Strategy::Forward);
    }

    #[test]
    fn estimates_are_finite_and_populated() {
        let graph = figure3_g0();
        let plan = plan_query(&query(&graph, "(a+b)*·c"), &graph);
        for est in [plan.monadic_estimate(), plan.binary_estimate()] {
            assert!(est.forward.is_finite() && est.forward > 0.0);
            assert!(est.backward.is_finite() && est.backward > 0.0);
        }
    }
}

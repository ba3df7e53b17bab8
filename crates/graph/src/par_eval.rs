//! The evaluation thread pool: who runs a level's steps.
//!
//! [`EvalPool`] is the handle every evaluation goes through. It decides
//! one thing, and it never changes a result bit: whether each BFS
//! level's `(state, symbol)` steps of [`EvalPool::evaluate`] (in
//! [`crate::eval`]) run inline (a one-thread pool — the sequential
//! engine *is* the one-thread instance) or are claimed by worker threads
//! from an atomic cursor with a deterministic end-of-level fold. This is
//! the **single-huge-query** shape — one candidate DFA over the whole
//! graph, the call the learner's line-6 check issues once per
//! generalization. Independent queries overlap on their callers'
//! threads (client threads, the front door's eval workers), each
//! coordinating its own evaluation over the shared, read-only
//! [`GraphDb`].
//!
//! ## Node-range fan-out (the second level)
//!
//! `(state, symbol)` granularity bottoms out at ≤ 1 task per level for
//! the paper's common 2-state single-label queries — no parallelism at
//! all. When a level harvests **fewer tasks than workers**, each task's
//! node range is split into **word-aligned chunks** (`u64` frontier
//! words; the ranged step kernels of [`GraphDb`] accumulate, so the
//! union over any word-aligned partition equals the full kernel's
//! output) and the workers claim `(task, chunk)` cells from the same
//! cursor. The chunks are sized per level: a few per worker,
//! with a floor that bounds per-claim overhead;
//! [`EvalPool::with_intra_chunk_words`] pins the width for tests. Any
//! width yields bit-identical results (proptested across
//! threads {1, 2, 4} × chunk widths {1, 4, auto}).
//!
//! ## Knobs
//!
//! Thread count comes from [`EvalPool::new`] (e.g. a `--threads` flag) or
//! [`EvalPool::from_env`], which reads the `PATHLEARN_THREADS` environment
//! variable and falls back to [`std::thread::available_parallelism`].

use crate::eval::{EvalScratch, Goal};
use crate::graph::{GraphDb, NodeId, StepPolicy};
use pathlearn_automata::{BitSet, Dfa};
use std::sync::Arc;

/// Environment variable consulted by [`EvalPool::from_env`].
pub const THREADS_ENV: &str = "PATHLEARN_THREADS";

/// Auto chunk sizing for the node-range fan-out: target this many chunks
/// per worker across a level's tasks (headroom for dynamic balancing
/// without flooding the cursor)...
const CHUNKS_PER_WORKER: usize = 4;

/// ...but never chunk finer than this many frontier words (256 nodes),
/// bounding the per-claim overhead (cursor increment + kernel call) for
/// small graphs. Explicit [`EvalPool::with_intra_chunk_words`] overrides
/// may go below the floor (the determinism proptests pin 1-word chunks).
const MIN_AUTO_CHUNK_WORDS: usize = 4;

/// A shareable handle to the evaluation thread pool.
///
/// Cloning is cheap (the pool is reference-counted) and clones share the
/// worker threads. `threads == 1` means strictly sequential: no pool is
/// built and no worker thread ever exists.
///
/// ```
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_graph::par_eval::EvalPool;
/// use pathlearn_graph::eval::eval_binary_from;
/// use pathlearn_automata::Regex;
///
/// let graph = figure3_g0();
/// let query = Regex::parse("(a+b)*·c", graph.alphabet()).unwrap().to_dfa(3);
///
/// let pool = EvalPool::new(2);
/// // Bit-identical to the sequential evaluator, source by source.
/// for source in graph.nodes() {
///     let ends = pool.eval_binary_from(&query, &graph, source);
///     assert_eq!(ends, eval_binary_from(&query, &graph, source));
/// }
/// ```
#[derive(Clone)]
pub struct EvalPool {
    threads: usize,
    /// `None` iff `threads == 1` (the sequential path).
    pool: Option<Arc<rayon::ThreadPool>>,
    /// Step-kernel policy applied by every evaluation this pool runs.
    step_policy: StepPolicy,
    /// Node-range chunk width (frontier words) for the intra-query
    /// fan-out; `None` = auto sizing.
    chunk_words: Option<usize>,
}

impl Default for EvalPool {
    /// Defaults to the sequential pool, so embedding an `EvalPool` in a
    /// config struct never spawns threads unless asked to.
    fn default() -> Self {
        Self::sequential()
    }
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl EvalPool {
    /// Creates a pool with `threads` worker threads (`0` and `1` both
    /// mean sequential).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| {
            Arc::new(
                rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .expect("build evaluation thread pool"),
            )
        });
        EvalPool {
            threads,
            pool,
            step_policy: StepPolicy::default(),
            chunk_words: None,
        }
    }

    /// The strictly sequential pool (no worker threads).
    pub fn sequential() -> Self {
        EvalPool {
            threads: 1,
            pool: None,
            step_policy: StepPolicy::default(),
            chunk_words: None,
        }
    }

    /// Sets the step-kernel policy (see [`StepPolicy`]) applied by every
    /// evaluation this pool runs, sequential and parallel paths alike.
    /// Results are bit-identical under every policy; the knob exists for
    /// the masked-kernel ablation and differential testing.
    pub fn with_step_policy(mut self, policy: StepPolicy) -> Self {
        self.step_policy = policy;
        self
    }

    /// The configured step-kernel policy ([`StepPolicy::Auto`] unless
    /// overridden).
    pub fn step_policy(&self) -> StepPolicy {
        self.step_policy
    }

    /// Pins the node-range fan-out's chunk width to `words` frontier
    /// words (64 nodes each; clamped to ≥ 1). By default the width is
    /// sized automatically per level; pinning it exists for the
    /// determinism proptests. Any width yields bit-identical results.
    pub fn with_intra_chunk_words(mut self, words: usize) -> Self {
        self.chunk_words = Some(words.max(1));
        self
    }

    /// The `(chunks_per_task, chunk_words)` grain of one intra-query
    /// level: `tasks × chunks_per_task` cells claimed from one atomic
    /// cursor. Node ranges are only split when the level has fewer tasks
    /// than workers (the ≤ 1-task-per-level regime of 2-state
    /// single-label queries); otherwise tasks are already ample and each
    /// keeps its full `0..words` range — as does every task of a
    /// sequential pool.
    pub(crate) fn level_grain(&self, tasks: usize, words: usize) -> (usize, usize) {
        if tasks == 0 || tasks >= self.threads || words <= 1 {
            return (1, words.max(1));
        }
        let chunk_words = match self.chunk_words {
            Some(pinned) => pinned,
            None => {
                let target_chunks = (self.threads * CHUNKS_PER_WORKER).div_ceil(tasks);
                words.div_ceil(target_chunks).max(MIN_AUTO_CHUNK_WORDS)
            }
        }
        .clamp(1, words);
        (words.div_ceil(chunk_words), chunk_words)
    }

    /// The thread count [`EvalPool::from_env`] resolves — the
    /// `PATHLEARN_THREADS` environment variable, falling back to
    /// [`std::thread::available_parallelism`] — without building a pool.
    /// Configuration layers (e.g. the serving layer's `ServeConfig`)
    /// read this to size a pool they construct later.
    pub fn env_threads() -> usize {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|value| value.trim().parse::<usize>().ok())
            .filter(|&t| t > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }

    /// Creates a pool sized by [`EvalPool::env_threads`].
    pub fn from_env() -> Self {
        Self::new(Self::env_threads())
    }

    /// Number of threads evaluation fans out over (`1` = sequential).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` iff levels are evaluated on worker threads.
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// The underlying thread pool, when parallel. Exposed so higher
    /// layers (the learner's SCP fan-out) can schedule their own scoped
    /// tasks next to evaluations.
    pub fn pool(&self) -> Option<&rayon::ThreadPool> {
        self.pool.as_deref()
    }

    /// The one-thread instance of this pool (same step policy, no
    /// worker threads, free to build): what a caller sharing the pool
    /// with others evaluates small inputs on.
    pub fn inline(&self) -> EvalPool {
        EvalPool::sequential().with_step_policy(self.step_policy)
    }

    /// Monadic evaluation of one query with this pool running each
    /// level's steps — shorthand for [`EvalPool::evaluate`] of
    /// [`Goal::Monadic`] under a forward plan with fresh buffers.
    /// Exactly equal to [`crate::eval::eval_monadic`] at any thread
    /// count (asserted by the differential suite).
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_graph::par_eval::EvalPool;
    /// use pathlearn_graph::eval::eval_monadic;
    /// use pathlearn_automata::Regex;
    ///
    /// let graph = figure3_g0();
    /// let query = Regex::parse("(a·b)*·c", graph.alphabet()).unwrap().to_dfa(3);
    /// let pool = EvalPool::new(2);
    /// assert_eq!(pool.eval_monadic(&query, &graph), eval_monadic(&query, &graph));
    /// ```
    pub fn eval_monadic(&self, query: &Dfa, graph: &GraphDb) -> BitSet {
        self.evaluate_dfa(&mut EvalScratch::new(), query, graph, Goal::Monadic)
    }

    /// Binary evaluation from one source — the [`Goal::BinaryFrom`]
    /// twin of [`EvalPool::eval_monadic`]. Exactly equal to
    /// [`crate::eval::eval_binary_from`] at any thread count.
    pub fn eval_binary_from(&self, query: &Dfa, graph: &GraphDb, source: NodeId) -> BitSet {
        self.evaluate_dfa(
            &mut EvalScratch::new(),
            query,
            graph,
            Goal::BinaryFrom(source),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_binary_from, eval_monadic};
    use crate::graph::figure3_g0;
    use crate::plan::{plan_query_forced, QueryPlan, Strategy};
    use crate::{CancelToken, Interrupt};
    use pathlearn_automata::{Regex, Symbol};
    use std::sync::atomic::AtomicBool;

    const EXPRS: [&str; 5] = ["a", "(a·b)*·c", "(a+b)*·c", "c·a*", "eps"];

    fn queries(graph: &GraphDb) -> Vec<Dfa> {
        EXPRS
            .iter()
            .map(|expr| {
                Regex::parse(expr, graph.alphabet())
                    .unwrap()
                    .to_dfa(graph.alphabet().len())
            })
            .collect()
    }

    #[test]
    fn pool_accessors() {
        assert_eq!(EvalPool::sequential().threads(), 1);
        assert!(!EvalPool::sequential().is_parallel());
        assert!(EvalPool::sequential().pool().is_none());
        assert_eq!(EvalPool::new(0).threads(), 1);
        let four = EvalPool::new(4);
        assert_eq!(four.threads(), 4);
        assert!(four.is_parallel());
        assert_eq!(four.pool().unwrap().current_num_threads(), 4);
        assert_eq!(format!("{:?}", four), "EvalPool { threads: 4 }");
        // Clones share the pool.
        let clone = four.clone();
        assert!(std::ptr::eq(clone.pool().unwrap(), four.pool().unwrap()));
        assert_eq!(
            format!("{:?}", EvalPool::default()),
            "EvalPool { threads: 1 }"
        );
    }

    /// A denser multi-label graph than G0 so intra-query levels carry
    /// several live (state, symbol) tasks.
    fn ladder_graph(n: usize) -> GraphDb {
        let mut builder =
            crate::GraphBuilder::with_alphabet(pathlearn_automata::Alphabet::from_labels([
                "a", "b", "c",
            ]));
        let first = builder.add_nodes("n", n);
        for i in 0..n as u32 {
            let next = first + (i + 1) % n as u32;
            builder.add_edge_ids(first + i, Symbol::from_index(i as usize % 3), next);
            builder.add_edge_ids(first + i, Symbol::from_index((i as usize + 1) % 3), next);
            if i % 7 == 0 {
                builder.add_edge_ids(next, Symbol::from_index(2), first + i);
            }
        }
        builder.build()
    }

    #[test]
    fn intra_query_monadic_matches_sequential_at_all_thread_counts() {
        for graph in [figure3_g0(), ladder_graph(100)] {
            for (i, query) in queries(&graph).iter().enumerate() {
                let expected = eval_monadic(query, &graph);
                let mut scratch = EvalScratch::new();
                for threads in [1, 2, 4] {
                    let pool = EvalPool::new(threads);
                    assert_eq!(
                        pool.eval_monadic(query, &graph),
                        expected,
                        "query {i} at {threads} threads"
                    );
                    // Scratch reuse across thread counts and queries.
                    assert_eq!(
                        pool.evaluate_dfa(&mut scratch, query, &graph, Goal::Monadic),
                        expected,
                        "query {i} at {threads} threads (reused scratch)"
                    );
                }
            }
        }
    }

    #[test]
    fn intra_query_binary_matches_sequential_at_all_thread_counts() {
        for graph in [figure3_g0(), ladder_graph(60)] {
            for query in &queries(&graph) {
                let mut scratch = EvalScratch::new();
                for source in graph.nodes().step_by(7) {
                    let expected = eval_binary_from(query, &graph, source);
                    for threads in [1, 2, 4] {
                        let pool = EvalPool::new(threads);
                        assert_eq!(
                            pool.eval_binary_from(query, &graph, source),
                            expected,
                            "source {source} at {threads} threads"
                        );
                        let goal = Goal::BinaryFrom(source);
                        assert_eq!(
                            pool.evaluate_dfa(&mut scratch, query, &graph, goal),
                            expected,
                            "source {source} at {threads} threads (reused scratch)"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn intra_query_interruptible_matches_and_cancels() {
        let graph = ladder_graph(80);
        let never = CancelToken::never();
        let tripped = CancelToken::with_flag(Arc::new(AtomicBool::new(true)));
        for query in &queries(&graph) {
            let plan = QueryPlan::forward(query);
            let expected_monadic = eval_monadic(query, &graph);
            for threads in [1, 2, 4] {
                let pool = EvalPool::new(threads);
                let mut scratch = EvalScratch::new();
                assert_eq!(
                    pool.evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &never),
                    Ok(expected_monadic.clone()),
                    "threads {threads}"
                );
                assert_eq!(
                    pool.evaluate(&mut scratch, &plan, &graph, Goal::BinaryFrom(0), &never),
                    Ok(eval_binary_from(query, &graph, 0)),
                    "threads {threads}"
                );
            }
        }
        // A tripped token interrupts every goal (the ε query answers
        // via its pre-level shortcut, so use one with at least a level).
        let query = &queries(&graph)[1];
        let plan = QueryPlan::forward(query);
        for threads in [1, 2, 4] {
            let pool = EvalPool::new(threads);
            let mut scratch = EvalScratch::new();
            for goal in [Goal::Monadic, Goal::BinaryFrom(0)] {
                assert_eq!(
                    pool.evaluate(&mut scratch, &plan, &graph, goal, &tripped),
                    Err(Interrupt::Cancelled),
                    "{goal:?} at {threads} threads"
                );
            }
            // The scratch stays usable after an interrupt.
            assert_eq!(
                pool.evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &never),
                Ok(eval_monadic(query, &graph)),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn intra_query_degenerate_inputs() {
        let graph = figure3_g0();
        let pool = EvalPool::new(2);
        // Empty-language query: no state reaches acceptance.
        let empty = Dfa::empty_language(3);
        assert!(pool.eval_monadic(&empty, &graph).is_empty());
        assert!(pool.eval_binary_from(&empty, &graph, 0).is_empty());
        // ε-accepting query selects everything monadically.
        let eps = Dfa::epsilon_language(3);
        assert_eq!(pool.eval_monadic(&eps, &graph).len(), graph.num_nodes());
        // Empty graph.
        let no_nodes = crate::GraphBuilder::new().build();
        assert!(pool.eval_monadic(&queries(&graph)[0], &no_nodes).is_empty());
    }

    #[test]
    fn planned_engines_match_sequential_at_all_thread_counts() {
        let never = CancelToken::never();
        for graph in [figure3_g0(), ladder_graph(60)] {
            for (i, query) in queries(&graph).iter().enumerate() {
                let expected_monadic = eval_monadic(query, &graph);
                for forced in Strategy::ALL {
                    let plan = plan_query_forced(query, &graph, forced);
                    for threads in [1, 2, 4] {
                        let pool = EvalPool::new(threads);
                        let mut scratch = EvalScratch::new();
                        assert_eq!(
                            pool.evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &never),
                            Ok(expected_monadic.clone()),
                            "query {i} forced {forced} at {threads} threads"
                        );
                        for source in graph.nodes().step_by(9) {
                            let goal = Goal::BinaryFrom(source);
                            assert_eq!(
                                pool.evaluate(&mut scratch, &plan, &graph, goal, &never),
                                Ok(eval_binary_from(query, &graph, source)),
                                "query {i} forced {forced} source {source} at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn planned_engines_cancel_and_recover() {
        let graph = ladder_graph(80);
        let query = &queries(&graph)[2]; // (a+b)*·c — multi-level on the ladder
        let never = CancelToken::never();
        let tripped = CancelToken::with_flag(Arc::new(AtomicBool::new(true)));
        for forced in [
            Strategy::Forward,
            Strategy::Backward,
            Strategy::Bidirectional,
        ] {
            let plan = plan_query_forced(query, &graph, forced);
            for threads in [1, 4] {
                let pool = EvalPool::new(threads);
                let mut scratch = EvalScratch::new();
                for goal in [Goal::Monadic, Goal::BinaryFrom(0)] {
                    assert_eq!(
                        pool.evaluate(&mut scratch, &plan, &graph, goal, &tripped),
                        Err(Interrupt::Cancelled),
                        "{goal:?} forced {forced} at {threads} threads"
                    );
                }
                // Scratch stays usable after an interrupt.
                assert_eq!(
                    pool.evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &never),
                    Ok(eval_monadic(query, &graph)),
                    "forced {forced} at {threads} threads"
                );
            }
        }
    }
}

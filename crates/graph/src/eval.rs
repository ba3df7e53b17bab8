//! Regular path query evaluation: one level kernel, one driver, one
//! [`EvalPool::evaluate`].
//!
//! Monadic semantics (paper §2): `q(G) = { ν | L(q) ∩ paths_G(ν) ≠ ∅ }`;
//! binary semantics (Appendix B): the end nodes `ν'` with
//! `paths2_G(source, ν') ∩ L(q) ≠ ∅`. Both are reachability in the
//! product of the graph with the query DFA, and every answer this crate
//! gives — Algorithm 1's line-6 check, the F1 scoring of §5, every
//! served query — is the same **level-synchronous BFS** over that
//! product: one node [`BitSet`] frontier per automaton state, stepped
//! per symbol through the label-partitioned CSR kernels of [`GraphDb`],
//! merged word-by-word into a reached set
//! ([`BitSet::union_with_recording_new_count`]) that both deduplicates
//! and accumulates the next frontier. Total work is `O(|E| · |Q|)` with
//! no queue traffic, no `(node, state)` packing and no per-edge hash —
//! just slice scans and 64-bit block operations. (The node-at-a-time
//! queue BFS survives as the oracle [`eval_monadic_queued`].)
//!
//! ## The level kernel
//!
//! One function steps one level of any product search. For each active
//! state and each live `(symbol, targets)` row of the pass's transition
//! index it
//!
//! 1. **plans** the step against the graph's per-label active-node
//!    bitmaps ([`GraphDb::plan_step`] under the handle's
//!    [`crate::graph::StepPolicy`]): skip it (the frontier misses the
//!    label, so the step is provably empty), mark it *covered* (the
//!    frontier holds every node with an edge of the label, so the step
//!    reaches every endpoint: its answer is the label's
//!    opposite-direction bitmap — every monadic evaluation's first
//!    level, seeded with all of `V`), mark it *sparse* (a frontier of a
//!    few nodes against `|V|`, priced before any scan — every binary
//!    evaluation's first level, seeded with one node), or walk it with
//!    the dense kernel (`frontier ∩ label-active` word-by-word, each
//!    cell found by rank in the label word) — priced by a
//!    degree-weighted popcount cost model whose frontier popcount is
//!    counted for free during the previous merge;
//! 2. **runs** the plan through the step kernel
//!    ([`GraphDb::step_into`]) in the pass's [`Dir`] (out-edges or
//!    in-edges): a covered step copies the bitmap instead of walking
//!    edges, and still counts as one task;
//! 3. optionally **intersects** the output with a coreachability
//!    certificate;
//! 4. **merges** it into every target state.
//!
//! A sparse task fuses 2–4: [`GraphDb::step_visit`] hands it each
//! endpoint of the frontier's edges, which it checks against the
//! certificate and test-and-sets into `reached` and the next frontier
//! of every target state, so it makes no `|V|`-word pass beyond finding
//! the frontier's bits — and none at all while the frontier state is
//! listed ([`GraphDb::step_visit_nodes`], see *Listed levels*). It counts
//! as one task, unless the frontier
//! missed the label — then, like a skipped step, it counts as none.
//!
//! Every evaluation runs on its caller's thread: the harvested tasks
//! run one after another, each step merged straight into its target
//! states. The level outcome per state is `(⋃ steps into it) \ reached`,
//! a set expression independent of task order. Independent queries
//! overlap on their callers' threads (client threads, the front door's
//! connection threads), each stepping its own scratch over the shared,
//! read-only [`GraphDb`].
//!
//! ## The driver and its parameter sets
//!
//! One loop — `seed → { cancel.check; step level; early exit? } →
//! harvest` — runs every engine the planner ([`crate::plan`]) can pick:
//!
//! | goal, strategy | index | kernels | seed | early exit | answer |
//! |---|---|---|---|---|---|
//! | monadic | reverse | in | `V` at every final | `reached[q₀] = V` | `reached[q₀]` |
//! | binary, forward | forward | out | `source` at `q₀` | — | `⋃ reached[final]` |
//!
//! Monadic evaluation is the first row whatever the plan's strategy
//! says. The *backward* binary strategy adds a
//! **coreachability certificate**
//! — the monadic search with neither ε shortcut nor early exit,
//! so that `reached[q]` is complete for *every* state — to the
//! binary-forward pass: it runs that search to its fixpoint first, then
//! prunes every forward step by the converged `reached` sets.
//!
//! The cancel token is checked once per level, before the level runs,
//! so an interrupt never tears a half-merged level and the scratch stays
//! reusable. Every level also adds its work — the frontier nodes entering
//! it plus the step tasks it ran — to a count that a budget can bound.
//!
//! ## Footprints and patches
//!
//! A search run to its fixpoint leaves its `reached` sets in the
//! scratch, with their sizes, which every insert keeps up to date.
//! [`EvalScratch::footprint`] copies them out — one [`NodeSet`] per
//! state, an empty state for free, a sparse one as a list whose scan
//! stops at its last member. [`Footprint::hit_by`] then tells, for an
//! edge batch, whether the answer can have changed, and
//! [`EvalPool::patch`] brings the answer and its footprint up to the new
//! graph through the same level loop: it moves the sets into its search,
//! takes out the pairs a removed edge left without a derivation, seeds
//! the pairs an added edge reaches, resumes the search to its fixpoint,
//! and moves the sets back out. The serving layer stores a footprint
//! beside each cached answer, so a delta leaves the answers its edges
//! miss alone and patches the ones they hit.
//!
//! ## Listed levels
//!
//! Every level and reached set also lists the nodes it gains while they
//! are fewer than the set's `|V|/64` words, so a search of a few pairs —
//! a patch's derivation check, the first levels of a binary evaluation —
//! walks its sparse steps, probes its meet test and clears its sets by
//! the list, not by a `|V|`-bit scan. A set that outgrows its list, or
//! that a dense step merges into, is scanned as before; the plans and the
//! work units do not depend on the lists.

use crate::cancel::{CancelToken, Interrupt};
use crate::graph::{Dir, GraphDb, NodeId, StepPlan, StepPolicy};
use crate::plan::{QueryPlan, Strategy};
use pathlearn_automata::{BitSet, Dfa, StateId, Symbol, DEAD};
use std::collections::VecDeque;

/// One live `(state, symbol)` row of a [`TransIndex`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LiveStep {
    /// The stepped symbol's index.
    pub(crate) sym: u32,
    lo: u32,
    hi: u32,
}

/// DFA transitions as a per-state CSR of live `(symbol, targets)` rows,
/// in ascending symbol order. The level kernel iterates a state's rows
/// instead of `0..|Σ|`, so symbols the query never mentions (graphs
/// routinely carry far more labels than a query does) cost nothing per
/// level. The two constructors are the two sides of the same table:
/// [`TransIndex::forward`] maps `(q, a)` to the one successor
/// `δ(q, a)`, [`TransIndex::reverse`] to every predecessor `p` with
/// `δ(p, a) = q`. A scratch rebuilds its indexes in place, in the
/// buffers the last query left.
#[derive(Debug, Default)]
pub(crate) struct TransIndex {
    offsets: Vec<u32>,
    live: Vec<LiveStep>,
    targets: Vec<StateId>,
    /// The reverse build's `(q, a)` grid.
    grid: Vec<u32>,
}

impl TransIndex {
    /// `(q, a) → [δ(q, a)]`. Only symbols both the graph (`graph_sigma`
    /// labels) and the DFA know can advance the product.
    pub(crate) fn forward(query: &Dfa, graph_sigma: usize) -> Self {
        let mut index = Self::default();
        index.set_forward(query, graph_sigma);
        index
    }

    /// `(q, a) → { p | δ(p, a) = q }`.
    pub(crate) fn reverse(query: &Dfa, graph_sigma: usize) -> Self {
        let mut index = Self::default();
        index.set_reverse(query, graph_sigma);
        index
    }

    /// Rebuilds the index as [`TransIndex::forward`]'s.
    fn set_forward(&mut self, query: &Dfa, graph_sigma: usize) -> &Self {
        let sigma = graph_sigma.min(query.alphabet_len());
        let TransIndex {
            offsets,
            live,
            targets,
            ..
        } = self;
        offsets.clear();
        live.clear();
        targets.clear();
        offsets.push(0);
        for q in 0..query.num_states() {
            for a in 0..sigma {
                let t = query.step_raw(q as StateId, Symbol::from_index(a));
                if t != DEAD {
                    let lo = targets.len() as u32;
                    targets.push(t);
                    live.push(LiveStep {
                        sym: a as u32,
                        lo,
                        hi: lo + 1,
                    });
                }
            }
            offsets.push(live.len() as u32);
        }
        self
    }

    /// Rebuilds the index as [`TransIndex::reverse`]'s, by counting sort
    /// over the dense `(q, a)` grid.
    fn set_reverse(&mut self, query: &Dfa, graph_sigma: usize) -> &Self {
        let sigma = graph_sigma.min(query.alphabet_len());
        let q_states = query.num_states();
        let cell = |q: StateId, sym: Symbol| q as usize * sigma + sym.index();
        let TransIndex {
            offsets,
            live,
            targets,
            grid,
        } = self;
        // Counts, shifted one cell up; prefix sums make `grid[c]` the
        // start of cell `c`, and placing each predecessor advances it to
        // the start of cell `c + 1`.
        grid.clear();
        grid.resize(q_states * sigma + 1, 0);
        for (_, sym, q) in query.transitions() {
            if sym.index() < sigma {
                grid[cell(q, sym) + 1] += 1;
            }
        }
        for i in 0..q_states * sigma {
            grid[i + 1] += grid[i];
        }
        targets.clear();
        targets.resize(grid[q_states * sigma] as usize, 0);
        for (p, sym, q) in query.transitions() {
            if sym.index() < sigma {
                let slot = &mut grid[cell(q, sym)];
                targets[*slot as usize] = p;
                *slot += 1;
            }
        }
        offsets.clear();
        live.clear();
        offsets.push(0);
        let mut lo = 0;
        for q in 0..q_states {
            for a in 0..sigma {
                let hi = grid[q * sigma + a];
                if lo != hi {
                    live.push(LiveStep {
                        sym: a as u32,
                        lo,
                        hi,
                    });
                }
                lo = hi;
            }
            offsets.push(live.len() as u32);
        }
        self
    }

    /// The live rows of `q`, ascending by symbol.
    #[inline]
    pub(crate) fn live(&self, q: StateId) -> &[LiveStep] {
        let q = q as usize;
        &self.live[self.offsets[q] as usize..self.offsets[q + 1] as usize]
    }

    /// The states a row's step output merges into (never empty).
    #[inline]
    pub(crate) fn targets(&self, step: &LiveStep) -> &[StateId] {
        &self.targets[step.lo as usize..step.hi as usize]
    }
}

/// What [`EvalPool::evaluate`] computes.
#[derive(Clone, Copy, Debug)]
pub enum Goal {
    /// `q(G)`: every node with an outgoing path in `L(q)`.
    Monadic,
    /// The end nodes of `L(q)`-paths starting at the given source.
    /// Sources outside the graph select nothing.
    BinaryFrom(NodeId),
}

/// A node set per automaton state, with its sizes and, while a set is
/// small, the list of its members — so a search that reaches a few pairs
/// walks, probes and clears them by the list, never by a `|V|`-bit scan.
#[derive(Debug, Default)]
struct StateSets {
    bits: Vec<BitSet>,
    /// `lens[q] = |bits[q]|`, kept by every insert and removal.
    lens: Vec<usize>,
    /// `bits[q]`'s members in insertion order, for as long as the list is
    /// *complete*: `lists[q].len() == lens[q]`. Only
    /// [`StateSets::insert`] appends, and only to a complete list shorter
    /// than `cap`; an insert that bypasses it (a word-wise merge, a full
    /// seed, a moved-in set) leaves the list short for good, and a
    /// removal empties it. A list is always a repeat-free subset of its
    /// set, so a complete one is the set.
    lists: Vec<Vec<NodeId>>,
    /// The longest list kept: the sets' word count, `|V|/64`, past which
    /// a scan of the set costs no more than a walk of the list.
    cap: usize,
}

impl StateSets {
    /// Fits the sets to `q_states` sets of capacity `v`. Every set must
    /// be empty.
    fn fit(&mut self, v: usize, q_states: usize) {
        fit(&mut self.bits, v, q_states);
        self.lens.clear();
        self.lens.resize(q_states, 0);
        self.lists.resize_with(q_states, Vec::new);
        self.cap = v.div_ceil(BitSet::BLOCK_BITS);
    }

    /// The members of the set at `q`, while its list is complete.
    #[inline]
    fn listed(&self, q: usize) -> Option<&[NodeId]> {
        let list = &self.lists[q];
        (list.len() == self.lens[q]).then_some(list.as_slice())
    }

    /// The members of the set at `q`, ascending: its list sorted while
    /// that is complete, a scan otherwise.
    fn members(&self, q: usize) -> Box<[NodeId]> {
        match self.listed(q) {
            Some(nodes) => {
                let mut members: Box<[NodeId]> = nodes.into();
                members.sort_unstable();
                members
            }
            None => scan_members(&self.bits[q], self.lens[q]),
        }
    }

    /// Inserts `node` at `q`; returns whether it is new.
    #[inline]
    fn insert(&mut self, q: usize, node: usize) -> bool {
        if !self.bits[q].insert(node) {
            return false;
        }
        let list = &mut self.lists[q];
        if list.len() == self.lens[q] && list.len() < self.cap {
            list.push(node as NodeId);
        }
        self.lens[q] += 1;
        true
    }

    /// Removes `node` from `q`, if it is there.
    fn remove(&mut self, q: usize, node: usize) {
        if self.bits[q].remove(node) {
            self.lens[q] -= 1;
            self.lists[q].clear();
        }
    }

    /// Makes the set at `q` every node.
    fn fill(&mut self, q: usize) {
        self.bits[q].insert_all();
        self.lens[q] = self.bits[q].capacity();
    }

    /// Empties the set at `q`: by its list while that is complete, word
    /// by word otherwise.
    fn clear(&mut self, q: usize) {
        let (set, list) = (&mut self.bits[q], &mut self.lists[q]);
        if list.len() == self.lens[q] {
            list.iter().for_each(|&node| {
                set.remove(node as usize);
            });
        } else {
            set.clear();
        }
        list.clear();
        self.lens[q] = 0;
    }

    /// Puts `set`, of `len` members, at `q`, whose set must be empty, and
    /// leaves that empty set in `set`.
    fn swap_in(&mut self, q: usize, set: &mut BitSet, len: usize) {
        debug_assert_eq!(self.lens[q], 0);
        std::mem::swap(&mut self.bits[q], set);
        self.lens[q] = len;
    }

    /// Takes the set at `q` into `set`, which must be empty, and leaves
    /// that empty set at `q`.
    fn swap_out(&mut self, q: usize, set: &mut BitSet) {
        debug_assert!(set.is_empty());
        std::mem::swap(&mut self.bits[q], set);
        self.lens[q] = 0;
        self.lists[q].clear();
    }
}

/// One frontier generation: a node set per automaton state, and the
/// states whose set is non-empty.
#[derive(Debug, Default)]
struct Level {
    /// Empty except at the states in `active` — every insert goes
    /// through a seed or a merge that lists its state — so clearing the
    /// active sets clears the level. The sizes, maintained by the merges
    /// (which count the fresh bits they OR in), let the step cost model
    /// read a frontier's popcount without scanning it.
    sets: StateSets,
    active: Vec<StateId>,
}

impl Level {
    /// The number of nodes over every state.
    fn total(&self) -> u64 {
        self.active
            .iter()
            .map(|&q| self.sets.lens[q as usize] as u64)
            .sum()
    }

    /// Empties the level, touching only its active sets, each by its
    /// list while it has one: a search that ran to its end left none, so
    /// a reused level costs nothing here.
    fn retire(&mut self) {
        for &q in &self.active {
            self.sets.clear(q as usize);
        }
        self.active.clear();
    }

    fn prepare(&mut self, v: usize, q_states: usize) {
        self.retire();
        self.sets.fit(v, q_states);
    }

    /// Adds `node`, new to the search, at `q`.
    #[inline]
    fn push(&mut self, q: usize, node: usize) {
        if self.sets.lens[q] == 0 {
            self.active.push(q as StateId);
        }
        self.sets.insert(q, node);
    }

    /// Records `fresh` nodes a merge just ORed into the set at `q`.
    fn grow(&mut self, q: usize, fresh: usize) {
        if fresh > 0 && self.sets.lens[q] == 0 {
            self.active.push(q as StateId);
        }
        self.sets.lens[q] += fresh;
    }

    /// Whether a pair of the level is in `reached`: by the level's list
    /// at a state that has one, by intersecting the sets at one that
    /// went dense.
    fn meets(&self, reached: &StateSets) -> bool {
        self.active.iter().any(|&q| {
            let q = q as usize;
            let other = &reached.bits[q];
            reached.lens[q] > 0
                && match self.sets.listed(q) {
                    Some(nodes) => nodes.iter().any(|&node| other.contains(node as usize)),
                    None => self.sets.bits[q].intersects(other),
                }
        })
    }
}

/// Fits `sets` to `q_states` sets of capacity `v`, reusing entries whose
/// capacity already matches (as they are: callers clear what they
/// dirtied) and adding empty ones.
fn fit(sets: &mut Vec<BitSet>, v: usize, q_states: usize) {
    sets.retain(|set| set.capacity() == v);
    sets.truncate(q_states);
    while sets.len() < q_states {
        sets.push(BitSet::new(v));
    }
}

/// The state of one product search: `reached` holds every node found at
/// each state so far, with its size — kept by every insert, so a harvest
/// skips empty states and sizes its lists without a popcount pass —
/// `frontier` the subset found in the previous level, `next` the subset
/// being found in this one.
#[derive(Debug, Default)]
struct Side {
    reached: StateSets,
    frontier: Level,
    next: Level,
}

impl Side {
    fn prepare(&mut self, v: usize, q_states: usize) {
        // The sizes say which sets a reused side dirtied.
        for q in 0..self.reached.lens.len() {
            if self.reached.lens[q] > 0 {
                self.reached.clear(q);
            }
        }
        self.reached.fit(v, q_states);
        self.frontier.prepare(v, q_states);
        self.next.prepare(v, q_states);
    }

    /// Seeds the full node set at `state`.
    fn seed_all(&mut self, state: usize) {
        self.reached.fill(state);
        if self.frontier.sets.lens[state] == 0 {
            self.frontier.active.push(state as StateId);
        }
        self.frontier.sets.fill(state);
    }

    /// Seeds the product pair `(node, state)` into the frontier, unless
    /// it is already reached.
    fn seed(&mut self, state: usize, node: usize) {
        Self::reach(&mut self.reached, &mut self.frontier, state, node);
    }

    /// Reaches one product pair: if `node` is new at `target` it joins
    /// `reached` and `level`.
    #[inline]
    fn reach(reached: &mut StateSets, level: &mut Level, target: usize, node: usize) {
        if reached.insert(target, node) {
            level.push(target, node);
        }
    }

    /// Folds `found` — only its part inside `mask`, when there is one —
    /// into `target`: bits not yet reached join `reached` and the next
    /// frontier.
    fn merge(
        reached: &mut StateSets,
        next: &mut Level,
        target: usize,
        found: &BitSet,
        mask: Option<&BitSet>,
    ) {
        let newly = &mut next.sets.bits[target];
        let set = &mut reached.bits[target];
        let fresh = match mask {
            None => set.union_with_recording_new_count(found, newly),
            Some(mask) => set.union_masked_recording_new_count(found, mask, newly),
        };
        reached.lens[target] += fresh;
        next.grow(target, fresh);
    }

    /// Retires the stepped frontier and promotes `next`.
    fn advance(&mut self) {
        self.frontier.retire();
        std::mem::swap(&mut self.frontier, &mut self.next);
    }

    fn is_done(&self) -> bool {
        self.frontier.active.is_empty()
    }

    /// The union of `reached` over `states` — the answer of a finished
    /// search.
    fn union_of(&self, states: impl Iterator<Item = usize>) -> BitSet {
        let mut result = BitSet::new(self.reached.bits[0].capacity());
        for state in states.filter(|&state| self.reached.lens[state] > 0) {
            result.union_with(&self.reached.bits[state]);
        }
        result
    }
}

/// One planned `(state, symbol)` step of a level.
#[derive(Clone, Copy, Debug)]
struct StepTask {
    state: StateId,
    row: LiveStep,
    plan: StepPlan,
}

/// The buffers a level needs besides the [`Side`] it steps, and the
/// work the levels have done.
#[derive(Debug, Default)]
struct Work {
    /// Step output.
    step: BitSet,
    tasks: Vec<StepTask>,
    /// Work units spent since [`Work::prepare`]: frontier nodes entering
    /// each level plus the step tasks it ran — the unit of the serving
    /// layer's cache cost.
    spent: u64,
    /// The units a level may not push `spent` past.
    budget: u64,
}

impl Work {
    /// Fits the step buffer to `|V| = v` and starts a `budget`.
    fn prepare(&mut self, v: usize, budget: u64) {
        if self.step.capacity() != v {
            self.step = BitSet::new(v);
        }
        self.spent = 0;
        self.budget = budget;
    }
}

/// Why a drive stopped short of its fixpoint.
#[derive(Debug)]
enum Halt {
    Interrupt(Interrupt),
    /// The next level would have spent past the budget.
    OverBudget,
}

impl From<Interrupt> for Halt {
    fn from(interrupt: Interrupt) -> Self {
        Halt::Interrupt(interrupt)
    }
}

impl Halt {
    /// The verdict of an unbudgeted drive.
    fn interrupt(self) -> Interrupt {
        match self {
            Halt::Interrupt(interrupt) => interrupt,
            Halt::OverBudget => unreachable!("evaluations run unbudgeted"),
        }
    }
}

/// Reusable buffers for [`EvalPool::evaluate`].
///
/// One evaluation of a `|Q|`-state query on a `|V|`-node graph needs
/// `3·|Q| + 1` node bitsets (twice that for the backward binary
/// strategy); callers that evaluate repeatedly — the learner's line-6
/// check, F1 scoring, the serving layer's miss path — would otherwise
/// allocate and free them per call. An `EvalScratch` owns the buffers
/// and re-fits them lazily: reuse on the same graph is allocation-free,
/// and a scratch can move between graphs and queries of any size at the
/// cost of a re-allocation. Evaluations that run at once each need their
/// own.
///
/// Scratch reuse never changes results — every buffer is cleared before
/// use, also after an interrupted evaluation:
///
/// ```
/// use pathlearn_graph::eval::{eval_monadic, EvalScratch, Goal};
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_graph::plan::plan_query;
/// use pathlearn_graph::{CancelToken, EvalPool};
/// use pathlearn_automata::Regex;
///
/// let graph = figure3_g0();
/// let pool = EvalPool::sequential();
/// let mut scratch = EvalScratch::new();
/// for expr in ["a", "(a·b)*·c", "b·b·c·c"] {
///     let query = Regex::parse(expr, graph.alphabet()).unwrap().to_dfa(3);
///     let plan = plan_query(&query, &graph);
///     let selected = pool
///         .evaluate(&mut scratch, &plan, &graph, Goal::Monadic, &CancelToken::never())
///         .unwrap();
///     assert_eq!(selected, eval_monadic(&query, &graph));
/// }
/// ```
#[derive(Debug, Default)]
pub struct EvalScratch {
    main: Side,
    /// The coreachability search of the backward binary strategy, and
    /// a patch's search for one pair's derivation.
    certificate: Side,
    /// A patch's search from the seeds on the new graph.
    proven: Side,
    /// Empty `|V|`-bit sets that patches swapped out of `main` for the
    /// stored sets they moved in, lent to the next patch that turns a
    /// listed set into a bitset.
    spare: Vec<BitSet>,
    /// The transition index of `main`'s pass, and of the opposite one.
    index: TransIndex,
    inverse: TransIndex,
    work: Work,
    /// What the last evaluation left in `main`.
    finished: Finished,
}

/// What the last [`EvalPool::evaluate`] or [`EvalPool::patch`] left in
/// its scratch's main search, for [`EvalScratch::footprint`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Finished {
    /// Nothing exact: no search ran (an ε-monadic, out-of-graph or
    /// empty answer), the monadic search stopped early at
    /// `reached[q₀] = V`, the backward strategy pruned the forward pass,
    /// or the evaluation was interrupted.
    #[default]
    Opaque,
    /// The monadic search ran to its fixpoint.
    Monadic,
    /// The unpruned forward binary search from this source ran to its
    /// fixpoint.
    Forward(NodeId),
}

impl EvalScratch {
    /// Creates an empty scratch; buffers are sized on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The [`Footprint`] of the last evaluation this scratch ran, read
    /// from the reached sets it still holds; `plan` must be the plan that
    /// evaluation ran. `None` when the search did not leave exact reached
    /// sets: an answer that needed no search (ε monadically, an
    /// out-of-graph source, an empty graph or query), the monadic early
    /// exit at `reached[q₀] = V`, a backward-planned binary answer (its
    /// forward pass is pruned) or an interrupted evaluation.
    ///
    /// ```
    /// use pathlearn_graph::eval::{EvalScratch, Goal};
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_graph::plan::QueryPlan;
    /// use pathlearn_graph::{CancelToken, EvalPool};
    /// use pathlearn_automata::Regex;
    ///
    /// let graph = figure3_g0();
    /// let query = Regex::parse("(a·b)*·c", graph.alphabet()).unwrap().to_dfa(3);
    /// let plan = QueryPlan::forward(&query);
    /// let node = |name| graph.node_id(name).unwrap();
    /// let mut scratch = EvalScratch::new();
    /// let never = CancelToken::never();
    /// let ends = EvalPool::sequential()
    ///     .evaluate(&mut scratch, &plan, &graph, Goal::BinaryFrom(node("v1")), &never)
    ///     .unwrap();
    /// let footprint = scratch.footprint(&plan).unwrap();
    /// // The search from v1 never reaches v5, so no edge out of it can
    /// // change the answer; a c-edge out of v1 can.
    /// let c = graph.alphabet().symbol("c").unwrap();
    /// assert!(!footprint.hit_by(&query, &ends, &[(node("v5"), c, node("v1"))], &[]));
    /// assert!(footprint.hit_by(&query, &ends, &[(node("v1"), c, node("v5"))], &[]));
    /// ```
    pub fn footprint(&self, plan: &QueryPlan) -> Option<Footprint> {
        self.harvest(plan.query())
    }

    /// The work units the last evaluation or patch in this scratch
    /// spent: frontier nodes entering each of its levels plus the step
    /// tasks they ran, over every level however deep (0 for an answer
    /// that needed no level). A function of the graph and the query
    /// alone, unlike wall time.
    pub fn spent(&self) -> u64 {
        self.work.spent
    }

    /// [`EvalScratch::footprint`] for the plan's query.
    fn harvest(&self, query: &Dfa) -> Option<Footprint> {
        let set = |q: usize| NodeSet::of_state(&self.main.reached, q);
        match self.finished {
            Finished::Opaque => None,
            Finished::Monadic => {
                debug_assert_eq!(self.main.reached.bits.len(), query.num_states());
                let q0 = query.initial() as usize;
                let stored = |q: usize| q != q0 && !query.finals().contains(q);
                Some(Footprint::Monadic(
                    (0..query.num_states())
                        .map(|q| stored(q).then(|| set(q)))
                        .collect(),
                ))
            }
            Finished::Forward(source) => {
                debug_assert_eq!(self.main.reached.bits.len(), query.num_states());
                let answer_state = sole_final(query);
                Some(Footprint::Forward {
                    source,
                    reached: (0..query.num_states())
                        .map(|q| (Some(q) != answer_state).then(|| set(q)))
                        .collect(),
                })
            }
        }
    }
}

/// One graph edge `(source, label, target)` of a delta batch.
pub type Edge = (NodeId, Symbol, NodeId);

/// An applied edge batch for [`EvalPool::patch`]: the graph before it,
/// the graph after it — `(before ∖ remove) ∪ add`, as an overlay or
/// compacted, on the same node ids — and its edges.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a> {
    /// The graph the patched answer was evaluated on.
    pub before: &'a GraphDb,
    /// The graph the patched answer is for.
    pub after: &'a GraphDb,
    /// The batch's added edges.
    pub add: &'a [Edge],
    /// The batch's removed edges.
    pub remove: &'a [Edge],
}

/// A node set stored as whichever of a sorted id list (4 bytes a member)
/// and a `|V|`-bit set takes fewer bytes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeSet {
    /// The members, ascending.
    List(Box<[NodeId]>),
    /// One bit per graph node.
    Bits {
        /// The members.
        set: BitSet,
        /// The number of members.
        len: usize,
    },
}

impl NodeSet {
    /// `set` as a list iff `4·|set|` is less than the bitset's bytes.
    pub fn of(set: &BitSet) -> Self {
        let len = set.len();
        Self::sized(set, len, || scan_members(set, len))
    }

    /// [`NodeSet::of`] for the set at `q` of `sets`: an empty set costs
    /// nothing, and a list is sorted from the one `sets` keeps, or scanned
    /// up to its last member.
    fn of_state(sets: &StateSets, q: usize) -> Self {
        Self::sized(&sets.bits[q], sets.lens[q], || sets.members(q))
    }

    /// `set`, of `len` members, as the list `members` gives or as a copy.
    fn sized(set: &BitSet, len: usize, members: impl FnOnce() -> Box<[NodeId]>) -> Self {
        if is_list_sized(set, len) {
            NodeSet::List(members())
        } else {
            NodeSet::Bits {
                set: set.clone(),
                len,
            }
        }
    }

    /// Whether `node` is a member.
    pub fn contains(&self, node: NodeId) -> bool {
        match self {
            NodeSet::List(nodes) => nodes.binary_search(&node).is_ok(),
            NodeSet::Bits { set, .. } => set.contains(node as usize),
        }
    }

    /// The bytes the representation holds.
    pub fn bytes(&self) -> usize {
        match self {
            NodeSet::List(nodes) => std::mem::size_of_val(&**nodes),
            NodeSet::Bits { set, .. } => std::mem::size_of_val(set.as_blocks()),
        }
    }
}

/// Whether a [`NodeSet`] of `len` of `set`'s nodes is a list.
fn is_list_sized(set: &BitSet, len: usize) -> bool {
    4 * len < std::mem::size_of_val(set.as_blocks())
}

/// The `len` members of `set`, ascending: a scan that stops at the last.
fn scan_members(set: &BitSet, len: usize) -> Box<[NodeId]> {
    let mut members = Vec::with_capacity(len);
    members.extend(set.iter().take(len).map(|node| node as NodeId));
    members.into_boxed_slice()
}

/// The reached sets a finished evaluation left — enough to tell,
/// without evaluating again, that an edge batch leaves its answer
/// unchanged ([`Footprint::hit_by`]), and to patch the answer when it
/// does not ([`EvalPool::patch`]). Harvested by
/// [`EvalScratch::footprint`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Footprint {
    /// A forward binary search from `source` run to its fixpoint:
    /// `reached[q]` for every state `q`, `None` at a query's only final
    /// state (the answer itself).
    Forward {
        /// The node the search was seeded with, at `q₀`.
        source: NodeId,
        /// `reached[q]` per state.
        reached: Vec<Option<NodeSet>>,
    },
    /// A monadic search run to its fixpoint: `reached[q]` per state,
    /// `None` where no storage is needed — at finals (always all of `V`)
    /// and at `q₀` (the answer itself).
    Monadic(Vec<Option<NodeSet>>),
}

/// The final state of a query with exactly one.
fn sole_final(query: &Dfa) -> Option<usize> {
    let mut finals = query.finals().iter();
    match (finals.next(), finals.next()) {
        (Some(f), None) => Some(f),
        _ => None,
    }
}

/// The product edges the graph edge `(u, a, w)` makes, as the search of
/// `footprint`'s kind follows them: `(x, p, y, q)` for a step from the
/// pair `(x, p)` to the pair `(y, q)`. The forward search steps
/// `(u, p) → (w, δ(p, a))`; the monadic one runs backward from
/// acceptance and steps `(w, δ(p, a)) → (u, p)`.
fn product_edges(
    query: &Dfa,
    forward: bool,
    (u, sym, w): Edge,
) -> impl Iterator<Item = (usize, usize, usize, usize)> + '_ {
    let states = if sym.index() < query.alphabet_len() {
        query.num_states()
    } else {
        0
    };
    let (u, w) = (u as usize, w as usize);
    (0..states as StateId).filter_map(move |p| {
        let q = query.step_raw(p, sym);
        (q != DEAD).then(|| {
            let (p, q) = (p as usize, q as usize);
            if forward {
                (u, p, w, q)
            } else {
                (w, q, u, p)
            }
        })
    })
}

impl Footprint {
    /// The bytes the footprint's sets hold.
    pub fn bytes(&self) -> usize {
        self.sets().iter().flatten().map(NodeSet::bytes).sum()
    }

    /// `reached[q]` per state, `None` where it is the answer or all of
    /// `V`.
    fn sets(&self) -> &[Option<NodeSet>] {
        match self {
            Footprint::Forward { reached, .. } => reached,
            Footprint::Monadic(sets) => sets,
        }
    }

    fn sets_mut(&mut self) -> &mut [Option<NodeSet>] {
        match self {
            Footprint::Forward { reached, .. } => reached,
            Footprint::Monadic(sets) => sets,
        }
    }

    /// The state whose reached set is the answer, where the footprint
    /// stores none: `q₀` monadically, a forward search's only final.
    fn answer_state(&self, query: &Dfa) -> Option<usize> {
        match self {
            Footprint::Forward { .. } => sole_final(query),
            Footprint::Monadic(_) => Some(query.initial() as usize),
        }
    }

    fn is_forward(&self) -> bool {
        matches!(self, Footprint::Forward { .. })
    }

    /// Whether the search reached `(node, q)`; `answer` is the answer
    /// the footprint belongs to.
    fn holds(&self, query: &Dfa, answer: &BitSet, q: usize, node: usize) -> bool {
        match &self.sets()[q] {
            Some(set) => set.contains(node as NodeId),
            None if Some(q) == self.answer_state(query) => answer.contains(node),
            None => true,
        }
    }

    /// Whether `(node, q)` is a seed of the search — a pair no edge
    /// derives, so no removed edge can lose it.
    fn is_seed(&self, query: &Dfa, q: usize, node: usize) -> bool {
        match self {
            Footprint::Forward { source, .. } => {
                q == query.initial() as usize && node == *source as usize
            }
            Footprint::Monadic(_) => query.finals().contains(q),
        }
    }

    /// Whether the batch `(G ∖ remove) ∪ add` can change `answer`, the
    /// answer of `query` whose evaluation left this footprint. `false`
    /// proves the new graph's product search reaches exactly the same
    /// pairs — so the footprint stays exact for the next batch too.
    ///
    /// An edge `(u, a, w)` is one product edge `(x, p) → (y, q)` per
    /// `δ(p, a) = q` (`x = u, y = w` forward, `x = w, y = u` for the
    /// monadic search, which runs backward from acceptance). An added
    /// edge hits iff one of them leaves a reached pair for an unreached
    /// one (it reaches a new pair); a removed edge hits iff one of them
    /// joins two reached pairs and its target is not a seed (a pair may
    /// have been derived through it). Both are exactly the pairs
    /// [`EvalPool::patch`] starts from.
    pub fn hit_by(&self, query: &Dfa, answer: &BitSet, add: &[Edge], remove: &[Edge]) -> bool {
        let reached = |q: usize, node: usize| self.holds(query, answer, q, node);
        let forward = self.is_forward();
        let adds_a_pair = |&edge: &Edge| {
            product_edges(query, forward, edge).any(|(x, p, y, q)| reached(p, x) && !reached(q, y))
        };
        let was_expanded = |&edge: &Edge| {
            product_edges(query, forward, edge)
                .any(|(x, p, y, q)| reached(p, x) && reached(q, y) && !self.is_seed(query, q, y))
        };
        add.iter().any(adds_a_pair) || remove.iter().any(was_expanded)
    }

    /// Seeds the search this footprint describes into `side`.
    fn seed(&self, query: &Dfa, side: &mut Side) {
        match self {
            Footprint::Forward { source, .. } => {
                side.seed(query.initial() as usize, *source as usize)
            }
            Footprint::Monadic(_) => query.finals().iter().for_each(|f| side.seed_all(f)),
        }
    }
}

/// What one level steps through: a transition index and the edge
/// direction its steps follow.
#[derive(Clone, Copy)]
struct Pass<'a> {
    index: &'a TransIndex,
    dir: Dir,
}

/// Runs one planned step into `out` and reports whether anything is
/// left to merge.
fn run_task(
    graph: &GraphDb,
    pass: Pass<'_>,
    task: &StepTask,
    frontiers: &[BitSet],
    out: &mut BitSet,
) -> bool {
    let frontier = &frontiers[task.state as usize];
    let sym = Symbol::from_index(task.row.sym as usize);
    graph.step_into(pass.dir, task.plan, frontier, sym, out);
    !out.is_empty()
}

/// Runs a [`StepPlan::Sparse`] task through [`GraphDb::step_visit`] —
/// or [`GraphDb::step_visit_nodes`], while the frontier state still
/// lists its nodes: every endpoint is test-and-set straight into
/// `reached` and the next frontier of each target state whose
/// certificate (if any) holds it — no step buffer, no merge pass.
/// Reports whether some frontier node had an edge of the label; a task
/// that finds none is the step [`StepPlan::Skip`] would have dropped.
fn run_sparse_task(
    graph: &GraphDb,
    pass: Pass<'_>,
    task: &StepTask,
    side: &mut Side,
    certificate: Option<&[BitSet]>,
) -> bool {
    let Side {
        reached,
        frontier,
        next,
    } = side;
    let targets = pass.index.targets(&task.row);
    let state = task.state as usize;
    let sym = Symbol::from_index(task.row.sym as usize);
    let visit = |endpoint: NodeId| {
        let endpoint = endpoint as usize;
        for &target in targets {
            let target = target as usize;
            if certificate.is_none_or(|certificate| certificate[target].contains(endpoint)) {
                Side::reach(reached, next, target, endpoint);
            }
        }
    };
    match frontier.sets.listed(state) {
        Some(nodes) => graph.step_visit_nodes(pass.dir, nodes, sym, visit),
        None => graph.step_visit(pass.dir, &frontier.sets.bits[state], sym, visit),
    }
}

/// The handle every evaluation goes through: it carries the step-kernel
/// policy ([`StepPolicy`]) that [`EvalPool::evaluate`] plans each level's
/// steps under, and nothing else — every evaluation runs on its caller's
/// thread. No policy changes a result bit.
///
/// ```
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_graph::eval::eval_monadic;
/// use pathlearn_graph::{EvalPool, StepPolicy};
/// use pathlearn_automata::Regex;
///
/// let graph = figure3_g0();
/// let query = Regex::parse("(a+b)*·c", graph.alphabet()).unwrap().to_dfa(3);
/// // The exhaustive kernel: bit-identical to the default policy.
/// let plain = EvalPool::sequential().with_step_policy(StepPolicy::Plain);
/// assert_eq!(plain.eval_monadic(&query, &graph), eval_monadic(&query, &graph));
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalPool {
    /// Step-kernel policy applied by every evaluation this handle runs.
    step_policy: StepPolicy,
}

impl EvalPool {
    /// The evaluation handle under the default step policy.
    pub fn sequential() -> Self {
        Self::default()
    }

    /// [`EvalPool::sequential`]; the argument is ignored. Kept for callers
    /// that still pass a thread count.
    pub fn new(_threads: usize) -> Self {
        Self::sequential()
    }

    /// Sets the step-kernel policy (see [`StepPolicy`]) applied by every
    /// evaluation this handle runs. Results are bit-identical under every
    /// policy; the knob exists for differential testing.
    pub fn with_step_policy(mut self, policy: StepPolicy) -> Self {
        self.step_policy = policy;
        self
    }

    /// The configured step-kernel policy ([`StepPolicy::Auto`] unless
    /// overridden).
    pub fn step_policy(&self) -> StepPolicy {
        self.step_policy
    }

    /// Monadic evaluation of one query — shorthand for
    /// [`EvalPool::evaluate`] of [`Goal::Monadic`] under a forward plan
    /// with fresh buffers.
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_graph::EvalPool;
    /// use pathlearn_graph::eval::eval_monadic_queued;
    /// use pathlearn_automata::Regex;
    ///
    /// let graph = figure3_g0();
    /// let query = Regex::parse("(a·b)*·c", graph.alphabet()).unwrap().to_dfa(3);
    /// let pool = EvalPool::sequential();
    /// assert_eq!(pool.eval_monadic(&query, &graph), eval_monadic_queued(&query, &graph));
    /// ```
    pub fn eval_monadic(&self, query: &Dfa, graph: &GraphDb) -> BitSet {
        self.evaluate_dfa(&mut EvalScratch::new(), query, graph, Goal::Monadic)
    }

    /// The level kernel (see the module docs): harvest this level's
    /// planned steps, run and merge each, and advance `side` to the next
    /// level — unless the level's frontier alone would spend past the
    /// budget, in which case nothing runs.
    fn step_level(
        &self,
        graph: &GraphDb,
        pass: Pass<'_>,
        side: &mut Side,
        certificate: Option<&[BitSet]>,
        work: &mut Work,
    ) -> Result<(), Halt> {
        let frontier_nodes = side.frontier.total();
        if work.spent.saturating_add(frontier_nodes) > work.budget {
            return Err(Halt::OverBudget);
        }
        let observing = crate::observer::level_begin();
        let Work {
            step, tasks, spent, ..
        } = work;
        tasks.clear();
        for &q in &side.frontier.active {
            let frontier = &side.frontier.sets.bits[q as usize];
            let len = side.frontier.sets.lens[q as usize];
            for &row in pass.index.live(q) {
                let sym = Symbol::from_index(row.sym as usize);
                let plan = graph.plan_step(pass.dir, frontier, sym, len, self.step_policy);
                if plan != StepPlan::Skip {
                    tasks.push(StepTask {
                        state: q,
                        row,
                        plan,
                    });
                }
            }
        }
        // Sparse tasks whose frontier missed the label: not counted, as
        // the skipped steps they stand in for are not.
        let mut idle_sparse = 0;
        for task in tasks.iter() {
            if task.plan == StepPlan::Sparse {
                if !run_sparse_task(graph, pass, task, side, certificate) {
                    idle_sparse += 1;
                }
            } else if run_task(graph, pass, task, &side.frontier.sets.bits, step) {
                for &target in pass.index.targets(&task.row) {
                    let target = target as usize;
                    // Sound because every node on a witness path is in
                    // the certificate of its state.
                    let mask = certificate.map(|certificate| &certificate[target]);
                    Side::merge(&mut side.reached, &mut side.next, target, step, mask);
                }
            }
        }
        *spent += frontier_nodes + tasks.len() as u64 - idle_sparse as u64;
        if let Some(started) = observing {
            let count = |plan| tasks.iter().filter(|task| task.plan == plan).count() as u32;
            crate::observer::level_record(
                started,
                frontier_nodes,
                tasks.len() as u32 - idle_sparse,
                count(StepPlan::Covered),
                count(StepPlan::Sparse) - idle_sparse,
            );
        }
        side.advance();
        Ok(())
    }

    /// The driver: steps `side` level by level until its frontier dies
    /// out or `done` says the answer is settled, checking `cancel` and
    /// `work`'s budget once per level. A `certificate` — one node set
    /// per state that holds every pair the search may keep, such as the
    /// `reached` sets of a coreach search run to its fixpoint (never a
    /// partial one: membership is only known at fixpoint) — prunes every
    /// step of `side`.
    #[allow(clippy::too_many_arguments)]
    fn drive(
        &self,
        graph: &GraphDb,
        work: &mut Work,
        side: &mut Side,
        pass: Pass<'_>,
        certificate: Option<&[BitSet]>,
        done: impl Fn(&Side) -> bool,
        cancel: &CancelToken,
    ) -> Result<(), Halt> {
        while !side.is_done() {
            cancel.check()?;
            self.step_level(graph, pass, side, certificate, work)?;
            if done(side) {
                break;
            }
        }
        Ok(())
    }

    /// Evaluates `goal` for the planned query on `graph` — the one
    /// evaluation entry point; every other `eval_*` function is a
    /// shorthand over it.
    ///
    /// The plan picks the binary engine
    /// ([`QueryPlan::binary_strategy`]; monadic goals have one), the
    /// handle's step policy how each level's steps run; neither changes a
    /// single result bit. `cancel` is checked
    /// once per BFS level and a tripped token aborts with its
    /// [`Interrupt`] verdict; answers that need no level (an empty
    /// graph, `ε ∈ L(q)` monadically, an out-of-graph source)
    /// are returned regardless.
    pub fn evaluate(
        &self,
        scratch: &mut EvalScratch,
        plan: &QueryPlan,
        graph: &GraphDb,
        goal: Goal,
        cancel: &CancelToken,
    ) -> Result<BitSet, Interrupt> {
        scratch.finished = Finished::Opaque;
        scratch.work.spent = 0;
        if graph.num_nodes() == 0 || plan.query().num_states() == 0 {
            return Ok(BitSet::new(graph.num_nodes()));
        }
        match goal {
            Goal::Monadic => self.monadic(scratch, plan, graph, cancel),
            Goal::BinaryFrom(source) => self.binary(scratch, plan, graph, source as usize, cancel),
        }
    }

    fn monadic(
        &self,
        scratch: &mut EvalScratch,
        plan: &QueryPlan,
        graph: &GraphDb,
        cancel: &CancelToken,
    ) -> Result<BitSet, Interrupt> {
        let v = graph.num_nodes();
        let sigma = graph.alphabet().len();
        let query = plan.query();
        let q0 = query.initial() as usize;
        if query.finals().contains(q0) {
            // ε ∈ L(q): every node has the empty path.
            return Ok(BitSet::full(v));
        }
        // The backward product search from acceptance over in-edges:
        // reached[q] = nodes ν with (ν, q) able to reach an accepting
        // pair, seeded at the finals, answered at q₀.
        let EvalScratch {
            main,
            index,
            work,
            finished,
            ..
        } = scratch;
        let pass = Pass {
            index: index.set_reverse(query, sigma),
            dir: Dir::In,
        };
        work.prepare(v, u64::MAX);
        main.prepare(v, query.num_states());
        for f in query.finals().iter() {
            main.seed_all(f);
        }
        let all_selected = |side: &Side| side.reached.lens[q0] == v;
        self.drive(graph, work, main, pass, None, all_selected, cancel)
            .map_err(Halt::interrupt)?;
        if main.is_done() {
            *finished = Finished::Monadic;
        }
        Ok(main.reached.bits[q0].clone())
    }

    fn binary(
        &self,
        scratch: &mut EvalScratch,
        plan: &QueryPlan,
        graph: &GraphDb,
        source: usize,
        cancel: &CancelToken,
    ) -> Result<BitSet, Interrupt> {
        let v = graph.num_nodes();
        let sigma = graph.alphabet().len();
        let query = plan.query();
        let q_states = query.num_states();
        let q0 = query.initial() as usize;
        if source >= v {
            return Ok(BitSet::new(v));
        }
        let EvalScratch {
            main,
            certificate,
            index,
            inverse,
            work,
            finished,
            ..
        } = scratch;
        work.prepare(v, u64::MAX);
        let coreach = match plan.binary_strategy() {
            Strategy::Backward => {
                let pass = Pass {
                    index: inverse.set_reverse(query, sigma),
                    dir: Dir::In,
                };
                certificate.prepare(v, q_states);
                for f in query.finals().iter() {
                    certificate.seed_all(f);
                }
                self.drive(graph, work, certificate, pass, None, |_| false, cancel)
                    .map_err(Halt::interrupt)?;
                // A source outside coreach[q₀] starts no accepting path
                // (finals' coreach is full, so ε survives this).
                if !certificate.reached.bits[q0].contains(source) {
                    return Ok(BitSet::new(v));
                }
                Some(certificate.reached.bits.as_slice())
            }
            _ => None,
        };
        let pass = Pass {
            index: index.set_forward(query, sigma),
            dir: Dir::Out,
        };
        main.prepare(v, q_states);
        main.seed(q0, source);
        self.drive(graph, work, main, pass, coreach, |_| false, cancel)
            .map_err(Halt::interrupt)?;
        if coreach.is_none() {
            *finished = Finished::Forward(source as NodeId);
        }
        Ok(main.union_of(query.finals().iter()))
    }

    /// Whether `pair = (state, node)` has a derivation on `graph` that
    /// stays inside `main`'s reached sets: a search from the pair over
    /// `passes[1]`, the opposite of the search's own pass, meets
    /// `proven`, a search from the seeds over `passes[0]` that this
    /// advances instead whenever its frontier is the smaller one. Once
    /// `proven` dies out it holds every such derivable pair.
    ///
    /// The two searches meet first in a pair the side just stepped has
    /// reached, so each round probes only that side's new level against
    /// the other side's reached sets.
    #[allow(clippy::too_many_arguments)]
    fn derivable(
        &self,
        graph: &GraphDb,
        passes: [Pass<'_>; 2],
        main: &Side,
        proven: &mut Side,
        check: &mut Side,
        work: &mut Work,
        (state, node): (usize, usize),
    ) -> Result<bool, Halt> {
        let within = Some(main.reached.bits.as_slice());
        check.prepare(graph.num_nodes(), main.reached.bits.len());
        check.seed(state, node);
        let mut met = check.frontier.meets(&proven.reached);
        while !met {
            if check.is_done() || proven.is_done() {
                return Ok(false);
            }
            met = if check.frontier.total() <= proven.frontier.total() {
                self.step_level(graph, passes[1], check, within, work)?;
                check.frontier.meets(&proven.reached)
            } else {
                self.step_level(graph, passes[0], proven, within, work)?;
                proven.frontier.meets(&check.reached)
            };
        }
        Ok(true)
    }

    /// Patches an answer for an edge batch instead of evaluating it
    /// again: `answer` and `footprint` are what an evaluation of `query`
    /// (or an earlier patch) left on `batch.before`, and the result is
    /// the answer and footprint an evaluation on `batch.after` would
    /// leave — bit-identical, the reached set of every state included.
    /// `scratch` must be one that `query`'s evaluations could use; what
    /// it held before is lost, and [`EvalScratch::footprint`] reads
    /// `None` after a patch. `None` when the patch would spend more than
    /// `budget` work units (frontier nodes entering a level plus step
    /// tasks, as an evaluation counts them).
    ///
    /// **Ownership.** The patch takes `answer` and `footprint` and moves
    /// their buffers: the answer and each stored bitset are swapped into
    /// the scratch's search, and swapped back out into the result. A set
    /// the batch leaves alone goes back unread and uncopied; only a
    /// stored list is converted, and only a changed set is stored anew.
    /// The scratch keeps the empty sets it swaps out, so a stream of
    /// patches allocates no `|V|`-bit set. A patch refused for its
    /// budget consumes its inputs: a caller that must keep them passes
    /// clones.
    ///
    /// **Cost.** Besides building the query's two transition indexes
    /// (`O(|Q|·|Σ|)`), a popcount of the answer and one `|V|`-bit fill per
    /// final state of a monadic query (the states stored as all of `V`),
    /// a patch costs the pairs its searches visit and the sets the batch
    /// changes. Each derivation check and the resumed search step levels
    /// that list their pairs — walked, probed and cleared by the list,
    /// not by a `|V|`-bit scan — until a level passes `|V|/64` pairs or a
    /// dense step fills it.
    ///
    /// Every search it runs goes through the level kernel that
    /// [`EvalPool::evaluate`] drives.
    ///
    /// - **Removes: delete and re-derive** (DRed, Gupta, Mumick,
    ///   Subrahmanian 1993), each deletion checked first for another
    ///   derivation (the Backward/Forward refinement, Motik, Nenov,
    ///   Piro, Horrocks 2015). A reached pair a removed edge led to is
    ///   checked: a search from it over the opposite pass on
    ///   `batch.after`, kept to the reached sets, looks for a search
    ///   from the seeds, which grows whenever its frontier is the
    ///   smaller one. A pair they do not join is lost, and the pairs it
    ///   led to on `batch.before` are checked in turn. Every pair left
    ///   is derivable on `batch.after`: its old derivation is intact
    ///   after the last removed edge or lost pair on it, and the pair
    ///   there passed its check.
    /// - **Adds: semi-naive resumption.** Every unreached pair an added
    ///   edge leads to from a reached one is seeded.
    ///
    /// The search then resumes from the seeded pairs on `batch.after`
    /// and runs to its fixpoint, which reaches again any lost pair that
    /// an added edge makes derivable.
    ///
    /// ```
    /// use pathlearn_graph::eval::{eval_monadic, Batch, EvalScratch, Goal};
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_graph::plan::QueryPlan;
    /// use pathlearn_graph::{CancelToken, EvalPool};
    /// use pathlearn_automata::Regex;
    ///
    /// let before = figure3_g0();
    /// let query = Regex::parse("(a·b)*·c", before.alphabet()).unwrap().to_dfa(3);
    /// let plan = QueryPlan::forward(&query);
    /// let pool = EvalPool::sequential();
    /// let mut scratch = EvalScratch::new();
    /// let never = CancelToken::never();
    /// let answer = pool.evaluate(&mut scratch, &plan, &before, Goal::Monadic, &never).unwrap();
    /// let footprint = scratch.footprint(&plan).unwrap();
    /// // v5 gains a c-edge, v3 loses its c-edge.
    /// let (c, node) = (before.alphabet().symbol("c").unwrap(), |n| before.node_id(n).unwrap());
    /// let (add, remove) = ([(node("v5"), c, node("v7"))], [(node("v3"), c, node("v4"))]);
    /// let after = before.with_delta(&add, &remove).unwrap();
    /// let batch = Batch { before: &before, after: &after, add: &add, remove: &remove };
    /// // With no work to spend, nothing is patched; the clones it consumed are gone.
    /// let (kept_answer, kept_footprint) = (answer.clone(), footprint.clone());
    /// assert!(pool.patch(&mut scratch, &query, kept_answer, kept_footprint, &batch, 0).is_none());
    /// let (patched, _) = pool
    ///     .patch(&mut scratch, &query, answer, footprint, &batch, u64::MAX)
    ///     .unwrap();
    /// assert_eq!(patched, eval_monadic(&query, &after.compact()));
    /// ```
    pub fn patch(
        &self,
        scratch: &mut EvalScratch,
        query: &Dfa,
        mut answer: BitSet,
        mut footprint: Footprint,
        batch: &Batch<'_>,
        budget: u64,
    ) -> Option<(BitSet, Footprint)> {
        let v = batch.before.num_nodes();
        if batch.after.num_nodes() != v || answer.capacity() != v {
            return None;
        }
        let sigma = batch.after.alphabet().len();
        let forward = footprint.is_forward();
        let EvalScratch {
            main,
            certificate: check,
            proven,
            spare,
            index,
            inverse,
            work,
            finished,
        } = scratch;
        // The search's own pass, and the one that finds a pair's
        // predecessors.
        let (index, inverse, dir) = if forward {
            let index = index.set_forward(query, sigma);
            (index, inverse.set_reverse(query, sigma), Dir::Out)
        } else {
            let index = index.set_reverse(query, sigma);
            (index, inverse.set_forward(query, sigma), Dir::In)
        };
        let pass = Pass { index, dir };
        let back = Pass {
            index: inverse,
            dir: dir.reverse(),
        };
        let never = CancelToken::never();
        *finished = Finished::Opaque;
        let q_states = query.num_states();
        work.prepare(v, budget);
        main.prepare(v, q_states);
        spare.retain(|set| set.capacity() == v);

        // Moves the entry's sets in. The answer and each stored bitset
        // trade places with the empty set at their state, which waits in
        // the footprint (or in `answer`) for the set to come back.
        let answer_state = footprint.answer_state(query);
        for (q, stored) in footprint.sets_mut().iter_mut().enumerate() {
            match stored {
                Some(NodeSet::Bits { set, len }) => main.reached.swap_in(q, set, *len),
                Some(NodeSet::List(nodes)) => nodes.iter().for_each(|&node| {
                    main.reached.insert(q, node as usize);
                }),
                None if Some(q) == answer_state => {
                    let len = answer.len();
                    main.reached.swap_in(q, &mut answer, len);
                }
                None => main.reached.fill(q),
            }
        }
        // A state whose size ends where it was loaded, and that lost no
        // pair (a loss marks it `usize::MAX`), was not changed.
        let mut loaded = main.reached.lens.clone();

        // Removes. `pending` holds pairs that may have lost their only
        // derivation: at first, those a removed edge led to. Each is
        // checked for another derivation on the new graph; one that has
        // none is lost, and the pairs it leads to on the old graph are
        // checked in turn. `proven` is a search from the seeds on the
        // new graph: every pair it reaches is derivable.
        let mut pending = VecDeque::new();
        for &edge in batch.remove {
            for (x, p, y, q) in product_edges(query, forward, edge) {
                if main.reached.bits[p].contains(x) && main.reached.bits[q].contains(y) {
                    pending.push_back((q, y));
                }
            }
        }
        if !pending.is_empty() {
            proven.prepare(v, q_states);
            footprint.seed(query, proven);
        }
        while let Some((q, y)) = pending.pop_front() {
            if !main.reached.bits[q].contains(y) || proven.reached.bits[q].contains(y) {
                continue;
            }
            work.spent += 1;
            if self
                .derivable(batch.after, [pass, back], main, proven, check, work, (q, y))
                .ok()?
            {
                proven.seed(q, y);
                continue;
            }
            main.reached.remove(q, y);
            loaded[q] = usize::MAX;
            for row in index.live(q as StateId) {
                let sym = Symbol::from_index(row.sym as usize);
                batch
                    .before
                    .for_each_neighbor(dir, y as NodeId, sym, |next| {
                        for &target in index.targets(row) {
                            pending.push_back((target as usize, next as usize));
                        }
                    });
            }
        }
        for &edge in batch.add {
            for (x, p, y, q) in product_edges(query, forward, edge) {
                if main.reached.bits[p].contains(x) && !main.reached.bits[q].contains(y) {
                    main.seed(q, y);
                }
            }
        }
        self.drive(batch.after, work, main, pass, None, |_| false, &never)
            .ok()?;

        // Moves the sets back out: the answer and every bitset go back
        // into the buffers they came in, and only a changed set is
        // stored anew. An answer that is a union of finals is formed
        // again only if a final changed.
        let changed = |q: usize| main.reached.lens[q] != loaded[q];
        match answer_state {
            Some(q) => main.reached.swap_out(q, &mut answer),
            None if query.finals().iter().any(changed) => {
                answer.clear();
                for f in query.finals().iter() {
                    answer.union_with(&main.reached.bits[f]);
                }
            }
            None => {}
        }
        for (q, stored) in footprint.sets_mut().iter_mut().enumerate() {
            let Some(stored) = stored else {
                continue;
            };
            let reached = &mut main.reached;
            let (len, changed) = (reached.lens[q], reached.lens[q] != loaded[q]);
            if changed && is_list_sized(&reached.bits[q], len) {
                let members = NodeSet::List(reached.members(q));
                if let NodeSet::Bits { set, .. } = std::mem::replace(stored, members) {
                    spare.push(set);
                }
            } else if changed || matches!(stored, NodeSet::Bits { .. }) {
                // A bitset goes out in the buffer it came in, a list that
                // grew into one in a spare buffer.
                let mut set = match std::mem::replace(stored, NodeSet::List(Box::default())) {
                    NodeSet::Bits { set, .. } => set,
                    NodeSet::List(_) => spare.pop().unwrap_or_else(|| BitSet::new(v)),
                };
                reached.swap_out(q, &mut set);
                *stored = NodeSet::Bits { set, len };
            }
        }
        spare.truncate(q_states);
        Some((answer, footprint))
    }

    /// [`EvalPool::evaluate`] of a raw DFA under a forward plan
    /// ([`QueryPlan::forward`], no preprocessing) and a token that never
    /// trips — the body of every `eval_*` shorthand.
    pub(crate) fn evaluate_dfa(
        &self,
        scratch: &mut EvalScratch,
        query: &Dfa,
        graph: &GraphDb,
        goal: Goal,
    ) -> BitSet {
        match self.evaluate(
            scratch,
            &QueryPlan::forward(query),
            graph,
            goal,
            &CancelToken::never(),
        ) {
            Ok(result) => result,
            Err(interrupt) => unreachable!("never-token evaluation interrupted: {interrupt}"),
        }
    }
}

/// Evaluates a (monadic) path query on a graph: the set of selected
/// nodes. Shorthand for [`EvalPool::evaluate`] of [`Goal::Monadic`]
/// under the default step policy with fresh buffers; equivalent to the oracles
/// [`eval_monadic_queued`] and [`eval_monadic_naive`] (asserted by
/// tests and proptests).
///
/// ```
/// use pathlearn_graph::eval::eval_monadic;
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_automata::Regex;
///
/// let graph = figure3_g0();
/// // Paper §2: (a·b)*·c selects exactly {ν1, ν3} on G0.
/// let query = Regex::parse("(a·b)*·c", graph.alphabet()).unwrap().to_dfa(3);
/// let selected = eval_monadic(&query, &graph);
/// let names: Vec<&str> = selected.iter().map(|n| graph.node_name(n as u32)).collect();
/// assert_eq!(names, ["v1", "v3"]);
/// ```
pub fn eval_monadic(query: &Dfa, graph: &GraphDb) -> BitSet {
    EvalPool::sequential().eval_monadic(query, graph)
}

/// Reference implementation of the **seed algorithm**: node-at-a-time
/// backward BFS over packed `(node, state)` product pairs with a queue.
/// Kept as the reference the differential suites compare the
/// frontier-batched [`eval_monadic`] against; a popped pair reads the
/// in-neighbours of each symbol that has a reverse DFA transition into
/// its state, not the node's whole row.
pub fn eval_monadic_queued(query: &Dfa, graph: &GraphDb) -> BitSet {
    let v = graph.num_nodes();
    let q_states = query.num_states();
    let mut selected = BitSet::new(v);
    if v == 0 || q_states == 0 {
        return selected;
    }
    let q0 = query.initial();
    if query.is_final(q0) {
        // ε ∈ L(q): every node has the empty path.
        return BitSet::full(v);
    }

    // Reverse DFA transitions grouped by target state and symbol:
    // rev[q][sym] = predecessor states p with δ(p, sym) = q.
    let alphabet = graph.alphabet().len();
    let mut rev: Vec<Vec<Vec<StateId>>> = vec![vec![Vec::new(); alphabet]; q_states];
    for (p, sym, q) in query.transitions() {
        if sym.index() < alphabet {
            rev[q as usize][sym.index()].push(p);
        }
    }

    // Backward reachability from accepting product states.
    let pack = |node: usize, state: usize| node * q_states + state;
    let mut reach = BitSet::new(v * q_states);
    let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
    for f in query.finals().iter() {
        for node in 0..v {
            if reach.insert(pack(node, f)) {
                queue.push_back((node as NodeId, f as StateId));
            }
        }
    }
    while let Some((node, state)) = queue.pop_front() {
        // Predecessors: graph in-edges joined with reverse DFA transitions
        // on the same symbol, delta overlay merged in.
        for (si, dfa_preds) in rev[state as usize].iter().enumerate() {
            if dfa_preds.is_empty() {
                continue;
            }
            graph.for_each_neighbor(Dir::In, node, Symbol::from_index(si), |src| {
                for &p in dfa_preds {
                    if reach.insert(pack(src as usize, p as usize)) {
                        queue.push_back((src, p));
                    }
                }
            });
        }
    }

    for node in 0..v {
        if reach.contains(pack(node, q0 as usize)) {
            selected.insert(node);
        }
    }
    selected
}

/// Reference evaluation by per-node forward product search (tests/benches).
pub fn eval_monadic_naive(query: &Dfa, graph: &GraphDb) -> BitSet {
    let mut selected = BitSet::new(graph.num_nodes());
    for node in graph.nodes() {
        let paths = graph.paths_nfa(&[node]);
        if !pathlearn_automata::product::dfa_nfa_intersection_is_empty(query, &paths) {
            selected.insert(node as usize);
        }
    }
    selected
}

/// Fraction of graph nodes selected by the query (the paper's
/// *selectivity*, Table 1).
pub fn selectivity(query: &Dfa, graph: &GraphDb) -> f64 {
    if graph.num_nodes() == 0 {
        return 0.0;
    }
    eval_monadic(query, graph).len() as f64 / graph.num_nodes() as f64
}

/// Binary semantics (Appendix B): the set of end nodes `ν'` such that
/// `paths2_G(source, ν') ∩ L(q) ≠ ∅`. Shorthand for
/// [`EvalPool::evaluate`] of [`Goal::BinaryFrom`] under the default
/// step policy with fresh buffers.
///
/// ```
/// use pathlearn_graph::eval::eval_binary_from;
/// use pathlearn_graph::graph::figure3_g0;
/// use pathlearn_automata::Regex;
///
/// let graph = figure3_g0();
/// let query = Regex::parse("(a·b)*·c", graph.alphabet()).unwrap().to_dfa(3);
/// let v1 = graph.node_id("v1").unwrap();
/// // From ν1 the only (a·b)*·c path ends in ν4 (a b c: v1→v2→v3→v4).
/// let ends = eval_binary_from(&query, &graph, v1);
/// assert_eq!(ends.len(), 1);
/// assert!(ends.contains(graph.node_id("v4").unwrap() as usize));
/// ```
pub fn eval_binary_from(query: &Dfa, graph: &GraphDb, source: NodeId) -> BitSet {
    let goal = Goal::BinaryFrom(source);
    EvalPool::sequential().evaluate_dfa(&mut EvalScratch::new(), query, graph, goal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure3_g0, StepPolicy};
    use pathlearn_automata::Regex;

    /// `evaluate` of a raw DFA under its forward plan.
    fn evaluate(
        pool: &EvalPool,
        scratch: &mut EvalScratch,
        query: &Dfa,
        graph: &GraphDb,
        goal: Goal,
        cancel: &CancelToken,
    ) -> Result<BitSet, Interrupt> {
        pool.evaluate(scratch, &QueryPlan::forward(query), graph, goal, cancel)
    }

    fn query(graph: &GraphDb, expr: &str) -> Dfa {
        Regex::parse(expr, graph.alphabet())
            .unwrap()
            .to_dfa(graph.alphabet().len())
    }

    fn names(graph: &GraphDb, set: &BitSet) -> Vec<String> {
        let mut names: Vec<String> = set
            .iter()
            .map(|n| graph.node_name(n as NodeId).to_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn paper_query_selections_on_g0() {
        let graph = figure3_g0();
        // §2: query a selects all nodes except ν4.
        let a = eval_monadic(&query(&graph, "a"), &graph);
        assert_eq!(names(&graph, &a), vec!["v1", "v2", "v3", "v5", "v6", "v7"]);
        // §2: (a·b)*·c selects ν1 and ν3.
        let abc = eval_monadic(&query(&graph, "(a·b)*·c"), &graph);
        assert_eq!(names(&graph, &abc), vec!["v1", "v3"]);
        // §2: b·b·c·c selects no node.
        let bbcc = eval_monadic(&query(&graph, "b·b·c·c"), &graph);
        assert!(bbcc.is_empty());
    }

    #[test]
    fn epsilon_query_selects_everything() {
        let graph = figure3_g0();
        let eps = eval_monadic(&query(&graph, "eps"), &graph);
        assert_eq!(eps.len(), graph.num_nodes());
        // and so does (a·b)* — it contains ε.
        let star = eval_monadic(&query(&graph, "(a·b)*"), &graph);
        assert_eq!(star.len(), graph.num_nodes());
    }

    #[test]
    fn empty_query_selects_nothing() {
        let graph = figure3_g0();
        let empty = eval_monadic(&Dfa::empty_language(3), &graph);
        assert!(empty.is_empty());
    }

    #[test]
    fn eval_over_delta_overlay_matches_compacted() {
        let graph = figure3_g0();
        let (a, c) = (
            graph.alphabet().symbol("a").unwrap(),
            graph.alphabet().symbol("c").unwrap(),
        );
        let id = |n: &str| graph.node_id(n).unwrap();
        // Give v5 a c-edge (changing (a·b)*·c's answer) and cut v3's
        // a-self-loop region.
        let overlay = graph
            .with_delta(
                &[(id("v5"), c, id("v7"))],
                &[(id("v3"), a, id("v3")), (id("v3"), c, id("v4"))],
            )
            .unwrap();
        let compacted = overlay.compact();
        for expr in ["a", "c", "(a·b)*·c", "a·a", "(a+b)*·c", "c·a*", "b·c"] {
            let q = query(&graph, expr);
            assert_eq!(
                eval_monadic(&q, &overlay),
                eval_monadic(&q, &compacted),
                "{expr} (forward)"
            );
            assert_eq!(
                eval_monadic(&q, &overlay),
                eval_monadic_naive(&q, &compacted),
                "{expr} (vs naive)"
            );
        }
    }

    #[test]
    fn backward_eval_matches_naive() {
        let graph = figure3_g0();
        for expr in ["a", "b", "c", "(a·b)*·c", "a·a", "b·c", "(a+b)*·c", "c·a*"] {
            let q = query(&graph, expr);
            assert_eq!(
                eval_monadic(&q, &graph),
                eval_monadic_naive(&q, &graph),
                "{expr}"
            );
        }
    }

    #[test]
    fn frontier_eval_matches_queued_reference() {
        // The level-synchronous evaluator and the seed's queue-based
        // product BFS must agree on every query shape, including ones
        // with unreachable/dead automaton states.
        let graph = figure3_g0();
        for expr in [
            "a",
            "b",
            "c",
            "eps",
            "(a·b)*·c",
            "a·a",
            "b·c",
            "(a+b)*·c",
            "c·a*",
            "a*·b*·c*",
            "(a+b+c)*",
            "b·(a·a)*·c",
        ] {
            let q = query(&graph, expr);
            assert_eq!(
                eval_monadic(&q, &graph),
                eval_monadic_queued(&q, &graph),
                "{expr}"
            );
        }
        let empty = Dfa::empty_language(3);
        assert_eq!(
            eval_monadic(&empty, &graph),
            eval_monadic_queued(&empty, &graph)
        );
    }

    #[test]
    fn binary_frontier_eval_matches_pairwise_naive() {
        // Check eval_binary_from against per-pair product emptiness via
        // the paths2 NFA (ground truth from first principles).
        let graph = figure3_g0();
        for expr in ["a", "(a·b)*·c", "a·a", "(a+b)*·c", "c·a*", "eps"] {
            let q = query(&graph, expr);
            for source in graph.nodes() {
                let ends = eval_binary_from(&q, &graph, source);
                for target in graph.nodes() {
                    let nfa = crate::paths::paths2_nfa(&graph, source, target);
                    let expected =
                        !pathlearn_automata::product::dfa_nfa_intersection_is_empty(&q, &nfa);
                    assert_eq!(
                        ends.contains(target as usize),
                        expected,
                        "{expr}: {source} -> {target}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_across_mixed_calls() {
        // One scratch driven through monadic and binary evaluations of
        // different |Q| (and a degenerate empty query) must keep agreeing
        // with the allocating entry points.
        let graph = figure3_g0();
        let pool = EvalPool::sequential();
        let mut scratch = EvalScratch::new();
        for expr in ["(a+b)*·c", "a", "b·(a·a)*·c", "eps", "c·a*"] {
            let q = query(&graph, expr);
            assert_eq!(
                pool.evaluate_dfa(&mut scratch, &q, &graph, Goal::Monadic),
                eval_monadic(&q, &graph),
                "monadic {expr}"
            );
            for source in graph.nodes() {
                assert_eq!(
                    pool.evaluate_dfa(&mut scratch, &q, &graph, Goal::BinaryFrom(source)),
                    eval_binary_from(&q, &graph, source),
                    "binary {expr} from {source}"
                );
            }
        }
        let empty = Dfa::empty_language(3);
        assert!(pool
            .evaluate_dfa(&mut scratch, &empty, &graph, Goal::Monadic)
            .is_empty());
        assert!(pool
            .evaluate_dfa(&mut scratch, &empty, &graph, Goal::BinaryFrom(0))
            .is_empty());
    }

    #[test]
    fn every_step_policy_agrees() {
        // Plain / Auto are pure execution strategies:
        // the selected sets must be bit-identical for monadic and binary
        // semantics on every query shape, including dead labels and a
        // query alphabet smaller than the graph's.
        let graph = figure3_g0();
        let mut scratch = EvalScratch::new();
        for expr in ["a", "eps", "(a·b)*·c", "b·b·c·c", "(a+b)*·c", "c·a*"] {
            let q = query(&graph, expr);
            let expected = eval_monadic(&q, &graph);
            for policy in StepPolicy::ALL {
                let pool = EvalPool::sequential().with_step_policy(policy);
                assert_eq!(
                    pool.evaluate_dfa(&mut scratch, &q, &graph, Goal::Monadic),
                    expected,
                    "monadic {expr} under {policy:?}"
                );
                for source in graph.nodes() {
                    assert_eq!(
                        pool.evaluate_dfa(&mut scratch, &q, &graph, Goal::BinaryFrom(source)),
                        eval_binary_from(&q, &graph, source),
                        "binary {expr} from {source} under {policy:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn interruptible_with_never_token_matches_plain() {
        let graph = figure3_g0();
        let pool = EvalPool::sequential();
        let mut scratch = EvalScratch::new();
        let never = CancelToken::never();
        for expr in ["a", "eps", "(a·b)*·c", "b·b·c·c", "(a+b)*·c"] {
            let q = query(&graph, expr);
            assert_eq!(
                evaluate(&pool, &mut scratch, &q, &graph, Goal::Monadic, &never),
                Ok(eval_monadic(&q, &graph)),
                "monadic {expr}"
            );
            for source in graph.nodes() {
                let goal = Goal::BinaryFrom(source);
                assert_eq!(
                    evaluate(&pool, &mut scratch, &q, &graph, goal, &never),
                    Ok(eval_binary_from(&q, &graph, source)),
                    "binary {expr} from {source}"
                );
            }
        }
    }

    #[test]
    fn tripped_token_interrupts_before_any_level() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let graph = figure3_g0();
        let pool = EvalPool::sequential();
        let mut scratch = EvalScratch::new();
        let cancelled = CancelToken::with_flag(Arc::new(AtomicBool::new(true)));
        let q = query(&graph, "(a·b)*·c");
        assert_eq!(
            evaluate(&pool, &mut scratch, &q, &graph, Goal::Monadic, &cancelled),
            Err(Interrupt::Cancelled)
        );
        assert_eq!(
            evaluate(
                &pool,
                &mut scratch,
                &q,
                &graph,
                Goal::BinaryFrom(0),
                &cancelled
            ),
            Err(Interrupt::Cancelled)
        );
        // The ε shortcut answers before the level loop, so a query whose
        // language contains ε still returns despite the tripped token —
        // cancellation is per level, not per call.
        let eps = query(&graph, "eps");
        assert_eq!(
            evaluate(&pool, &mut scratch, &eps, &graph, Goal::Monadic, &cancelled),
            Ok(BitSet::full(graph.num_nodes()))
        );
        // An expired deadline reports the Deadline verdict.
        let expired = CancelToken::with_deadline(std::time::Instant::now());
        assert_eq!(
            evaluate(&pool, &mut scratch, &q, &graph, Goal::Monadic, &expired),
            Err(Interrupt::Deadline)
        );
    }

    #[test]
    fn selectivity_fraction() {
        let graph = figure3_g0();
        let q = query(&graph, "(a·b)*·c");
        let s = selectivity(&q, &graph);
        assert!((s - 2.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn binary_eval_from_source() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v4 = graph.node_id("v4").unwrap();
        // (a·b)*·c from ν1 ends in ν4 (a b c path: v1→v2→v3→v4).
        let q = query(&graph, "(a·b)*·c");
        let ends = eval_binary_from(&q, &graph, v1);
        assert!(ends.contains(v4 as usize));
        assert_eq!(ends.len(), 1);
        assert!(!eval_binary_from(&q, &graph, v4).contains(v1 as usize));
    }

    #[test]
    fn binary_eval_with_smaller_query_alphabet() {
        // A DFA over fewer symbols than the graph must not index out of
        // its transition table; symbols it does not know are dead.
        let graph = figure3_g0(); // 3 labels
        let empty = Dfa::empty_language(1);
        assert!(eval_binary_from(&empty, &graph, 0).is_empty());
        let mut only_a = Dfa::new(2, 1, 0); // L = {a} over a 1-symbol alphabet
        only_a.set_transition(0, pathlearn_automata::Symbol::from_index(0), 1);
        only_a.set_final(1);
        let v1 = graph.node_id("v1").unwrap();
        let ends = eval_binary_from(&only_a, &graph, v1);
        assert_eq!(ends.len(), 1); // v1 --a--> v2 only
        assert!(ends.contains(graph.node_id("v2").unwrap() as usize));
    }

    #[test]
    fn binary_epsilon_selects_self() {
        let graph = figure3_g0();
        let v5 = graph.node_id("v5").unwrap();
        let q = query(&graph, "eps");
        let ends = eval_binary_from(&q, &graph, v5);
        assert!(ends.contains(v5 as usize));
        assert_eq!(ends.len(), 1);
    }

    /// A graph whose alphabet is mostly padding: 64 labels interned,
    /// only `a` and `b` carry edges, and the query only mentions `a`.
    /// The transition indexes must list only the live symbols per
    /// state — and in ascending order, so iteration (and every merge)
    /// matches a dense `0..|Σ|` scan.
    #[test]
    fn padded_alphabet_uses_only_live_symbols() {
        let labels: Vec<String> = (0..64).map(|i| format!("l{i:02}")).collect();
        let mut builder = crate::GraphBuilder::with_alphabet(
            pathlearn_automata::Alphabet::from_labels(labels.iter().map(String::as_str)),
        );
        let first = builder.add_nodes("n", 8);
        let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
        for i in 0..7u32 {
            builder.add_edge_ids(first + i, a, first + i + 1);
        }
        builder.add_edge_ids(first + 7, b, first);
        let graph = builder.build();

        // Query a·a over the full padded alphabet.
        let mut q = Dfa::new(3, 64, 0);
        q.set_transition(0, a, 1);
        q.set_transition(1, a, 2);
        q.set_final(2);

        // The indexes only materialize the live (state, symbol) rows.
        let rows = |index: &TransIndex, q: StateId| -> Vec<(u32, Vec<StateId>)> {
            index
                .live(q)
                .iter()
                .map(|row| (row.sym, index.targets(row).to_vec()))
                .collect()
        };
        let rev = TransIndex::reverse(&q, 64);
        assert_eq!(rows(&rev, 1), [(0, vec![0])]);
        assert_eq!(rows(&rev, 2), [(0, vec![1])]);
        assert!(rev.live(0).is_empty()); // no transition *into* 0
        let fwd = TransIndex::forward(&q, 64);
        assert_eq!(rows(&fwd, 0), [(0, vec![1])]);
        assert_eq!(rows(&fwd, 1), [(0, vec![2])]);
        assert!(fwd.live(2).is_empty());

        // Nodes n0..n5 head an a·a path; n6 and n7 do not.
        let selected = eval_monadic(&q, &graph);
        assert_eq!(selected.len(), 6);
        for i in 0..6 {
            assert!(selected.contains(i), "n{i}");
        }
        assert_eq!(eval_monadic(&q, &graph), eval_monadic_naive(&q, &graph));
        // Binary engine: exactly n2 is two a-steps from n0.
        let ends = eval_binary_from(&q, &graph, first);
        assert_eq!(ends.len(), 1);
        assert!(ends.contains((first + 2) as usize));

        // Live order is ascending even when symbols are inserted out of
        // order, matching the fixed-symbol-order loops it replaced.
        let mut multi = Dfa::new(2, 64, 0);
        for sym in [63usize, 7, 0, 31] {
            multi.set_transition(0, Symbol::from_index(sym), 1);
        }
        multi.set_final(1);
        let syms = |index: &TransIndex, q| -> Vec<u32> {
            index.live(q).iter().map(|row| row.sym).collect()
        };
        assert_eq!(syms(&TransIndex::reverse(&multi, 64), 1), [0, 7, 31, 63]);
        assert_eq!(syms(&TransIndex::forward(&multi, 64), 0), [0, 7, 31, 63]);
        // A graph with fewer labels than the DFA clamps both sides.
        assert_eq!(syms(&TransIndex::reverse(&multi, 8), 1), [0, 7]);
        assert_eq!(syms(&TransIndex::forward(&multi, 8), 0), [0, 7]);
    }
}

//! Smallest consistent paths (Algorithm 1, lines 1–2).
//!
//! For a positive node `ν`, the SCP is
//! `min_≤ ( paths_G(ν) \ paths_G(S⁻) )` — the canonically smallest path of
//! `ν` not covered by any negative node — searched only up to length `k`
//! (the paper bounds SCP length to sidestep the infinite enumeration of
//! Figure 5 and the intractability of consistency checking).
//!
//! ## Search strategy
//!
//! Both sides of the set difference are *determinized on the fly*:
//!
//! * the positive side is the set of graph nodes reachable from `ν` by the
//!   current word (`w ∈ paths_G(ν)` iff the set is non-empty);
//! * the negative side is the set of nodes reachable from `S⁻`
//!   (`w ∉ paths_G(S⁻)` iff the set is empty — path languages are
//!   prefix-closed, so once empty, always empty).
//!
//! A BFS over `(pos-set, neg-set)` pairs, expanding symbols in alphabet
//! order, therefore visits words in canonical order and the first state
//! with a dead negative side yields the SCP. The negative side depends
//! only on the word, never on `ν`, so its successor function is memoized
//! in a [`NegCache`] shared across all positive nodes of a sample.
//!
//! ## A growing `S⁻`
//!
//! The [`NegCache`] memoizes `step(reach-set, symbol)`, a function of the
//! graph alone: a new negative node moves the *root* and invalidates no
//! entry. Reach-sets distribute over union —
//! `reach(S⁻ ∪ {n}, w) = reach(S⁻, w) ∪ reach({n}, w)` — so the states
//! under the new root are derived from the old ones by a sparse walk of
//! `n`'s own paths instead of dense steps from a cold cache, and a word
//! `n` has no path for lands on the very state it reached before.
//!
//! On top of that a [`ScpFinder`] keeps what it has answered, updated by
//! [`ScpFinder::add_negative`] through three monotonicity facts of
//! `S⁻ ⊆ S⁻′` (uncovered words only shrink):
//!
//! * **L1** — a node with no uncovered path of length ≤ k never gets one,
//!   and its uncovered count never rises;
//! * **L2** — `scp(ν, k)` is unchanged unless the *new* negative covers
//!   that very word (every canonically smaller word was covered and stays
//!   covered);
//! * **L3** — a node's uncovered count can change only if it has a path
//!   spelling a word the new negative *newly* covers.

use crate::graph::{Dir, GraphDb, NodeId, StepPlan};
use pathlearn_automata::{BitSet, Symbol, Word};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet, VecDeque};
use std::hash::BuildHasher;
use std::sync::Arc;

/// One memoized reach-set of the negative side.
struct NegState {
    set: Arc<BitSet>,
    /// `succ[symbol]`: [`UNKNOWN`] = not yet computed; [`DEAD`] = the
    /// successor set is empty (the word leaves `paths_G(S⁻)`); else the
    /// successor state's id. (Packed: a session holds a few hundred of
    /// these rows and the benchmark bounds its memory.)
    succ: Box<[u32]>,
    /// `set = states[base].set ∪ extra` with `extra` sparse: how this
    /// state came about when a negative was added. A step whose base
    /// already knows its successor is then one sparse step of `extra`
    /// and a union, not a dense step of the whole set.
    derived: Option<(u32, Box<[NodeId]>)>,
}

/// Memoized deterministic view of the negative side: maps reach-sets of
/// `S⁻` to dense state ids and caches per-symbol successors. Two words
/// reach the same id **iff** they reach the same node set, under any
/// history of [`NegCache::add_negative`] calls.
pub struct NegCache<'g> {
    graph: &'g GraphDb,
    states: Vec<NegState>,
    index: HashMap<Arc<BitSet>, u32>,
    /// The reach-set of `S⁻` itself; `None` while `S⁻ = ∅`.
    root: Option<u32>,
    /// Reusable step buffer: uncached steps land here first and are only
    /// cloned into `states` when the reach-set is genuinely new.
    scratch: BitSet,
    /// Reusable sparse-step buffer of the derived steps.
    sparse: Vec<NodeId>,
    /// `states.len()` at which the next [`NegCache::add_negative`] drops
    /// the states no longer reachable from the root.
    compact_at: usize,
}

/// Slack of the compaction trigger: below this many states nothing is
/// ever dropped.
const NEG_COMPACT_MIN: usize = 16;

const UNKNOWN: u32 = u32::MAX;
const DEAD: u32 = u32::MAX - 1;

/// A memoized successor entry as the step functions report it.
fn decode(entry: u32) -> Option<Option<u32>> {
    match entry {
        UNKNOWN => None,
        DEAD => Some(None),
        id => Some(Some(id)),
    }
}

impl<'g> NegCache<'g> {
    /// Creates the cache rooted at the reach-set `S⁻`.
    pub fn new(graph: &'g GraphDb, negatives: &[NodeId]) -> Self {
        let mut cache = NegCache {
            graph,
            states: Vec::new(),
            index: HashMap::new(),
            root: None,
            scratch: BitSet::new(graph.num_nodes()),
            sparse: Vec::new(),
            compact_at: NEG_COMPACT_MIN,
        };
        if !negatives.is_empty() {
            for &node in negatives {
                cache.scratch.insert(node as usize);
            }
            cache.root = Some(cache.intern_scratch(None));
        }
        cache
    }

    /// The root state (reach-set of `S⁻` itself); `None` when `S⁻ = ∅`,
    /// in which case **every** word is uncovered.
    pub fn root(&self) -> Option<u32> {
        self.root
    }

    /// Number of memoized reach-sets (diagnostics / benches).
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Grows `S⁻` by one node: the root becomes `root ∪ {node}`, derived
    /// from the old root, and every memoized state stays valid. (State
    /// ids do not survive this call: the states only older roots reach
    /// are dropped once they outnumber the live ones.)
    pub fn add_negative(&mut self, node: NodeId) {
        self.scratch.clear();
        let derived = match self.root {
            None => None,
            Some(root) => {
                let set = &self.states[root as usize].set;
                if set.contains(node as usize) {
                    return;
                }
                self.scratch.union_with(set);
                Some((root, Box::from([node])))
            }
        };
        self.scratch.insert(node as usize);
        self.root = Some(self.intern_scratch(derived));
        if self.states.len() >= self.compact_at {
            self.compact();
            self.compact_at = self.states.len() + NEG_COMPACT_MIN;
        }
    }

    /// Keeps the root and what the root it was derived from reaches
    /// through memoized steps — the states the new root's own successors
    /// are derived from — and drops the rest, renumbering densely. A kept
    /// state whose base is dropped steps densely from then on.
    fn compact(&mut self) {
        const DROPPED: u32 = UNKNOWN;
        let Some(root) = self.root else {
            return;
        };
        let mut new_id = vec![DROPPED; self.states.len()];
        let mut stack = vec![root];
        stack.extend(
            self.states[root as usize]
                .derived
                .iter()
                .map(|(base, _)| *base),
        );
        while let Some(state) = stack.pop() {
            if std::mem::replace(&mut new_id[state as usize], 0) == DROPPED {
                stack.extend(
                    self.states[state as usize]
                        .succ
                        .iter()
                        .filter(|&&next| next < DEAD),
                );
            }
        }
        let mut kept = 0;
        for id in &mut new_id {
            if *id != DROPPED {
                *id = kept;
                kept += 1;
            }
        }
        let mut old_id = 0;
        self.states.retain_mut(|state| {
            let keep = new_id[old_id] != DROPPED;
            old_id += 1;
            if keep {
                for next in state.succ.iter_mut().filter(|next| **next < DEAD) {
                    *next = new_id[*next as usize];
                }
                state.derived = state.derived.take().and_then(|(base, extra)| {
                    let base = new_id[base as usize];
                    (base != DROPPED).then_some((base, extra))
                });
            }
            keep
        });
        self.index.retain(|_, id| {
            *id = new_id[*id as usize];
            *id != DROPPED
        });
        self.root = Some(new_id[root as usize]);
    }

    /// `true` iff `word ∈ paths_G(S⁻)`.
    pub fn covers(&mut self, word: &[Symbol]) -> bool {
        let mut state = self.root;
        for &sym in word {
            let Some(current) = state else {
                return false;
            };
            state = self.step(current, sym);
        }
        state.is_some()
    }

    /// Interns the scratch buffer's current contents, cloning only when
    /// the set was never seen before (an existing state keeps its own
    /// derivation).
    fn intern_scratch(&mut self, derived: Option<(u32, Box<[NodeId]>)>) -> u32 {
        if let Some(&id) = self.index.get(&self.scratch) {
            return id;
        }
        let id = self.states.len() as u32;
        let set = Arc::new(self.scratch.clone());
        self.index.insert(Arc::clone(&set), id);
        self.states.push(NegState {
            set,
            succ: vec![UNKNOWN; self.graph.alphabet().len()].into(),
            derived,
        });
        id
    }

    /// Deterministic step; `None` means the word has left `paths_G(S⁻)`.
    ///
    /// Uncached steps of a derived state whose base knows its successor
    /// take the sparse route; the others run the frontier kernel into the
    /// reusable scratch buffer. Either way the result is cloned only when
    /// it is a reach-set never seen before (cache hits on the *set*, not
    /// just the transition, stay allocation-free).
    pub fn step(&mut self, state: u32, sym: Symbol) -> Option<u32> {
        if let Some(cached) = decode(self.states[state as usize].succ[sym.index()]) {
            return cached;
        }
        let result = match self.step_derived(state, sym) {
            Some(result) => result,
            None => {
                let from = &self.states[state as usize].set;
                self.graph
                    .step_into(Dir::Out, StepPlan::Plain, from, sym, &mut self.scratch);
                if self.scratch.is_empty() {
                    None
                } else {
                    Some(self.intern_scratch(None))
                }
            }
        };
        self.states[state as usize].succ[sym.index()] = result.unwrap_or(DEAD);
        result
    }

    /// `step(base ∪ extra) = step(base) ∪ step(extra)`, when `state` is
    /// derived and its base's successor is already memoized; the outer
    /// `None` sends the caller to the dense kernel.
    fn step_derived(&mut self, state: u32, sym: Symbol) -> Option<Option<u32>> {
        let (base, extra) = self.states[state as usize].derived.as_ref()?;
        let base_next = decode(self.states[*base as usize].succ[sym.index()])?;
        self.graph.step_sparse_into(extra, sym, &mut self.sparse);
        if self.sparse.is_empty() {
            return Some(base_next); // the new negative has no such path
        }
        self.scratch.clear();
        if let Some(next) = base_next {
            let set = &self.states[next as usize].set;
            if self.sparse.iter().all(|&node| set.contains(node as usize)) {
                return Some(base_next);
            }
            self.scratch.union_with(set);
        }
        for &node in &self.sparse {
            self.scratch.insert(node as usize);
        }
        let derived = base_next.map(|next| (next, Box::from(self.sparse.as_slice())));
        Some(Some(self.intern_scratch(derived)))
    }
}

/// The sparse positive reach-sets of **one** search, interned: each
/// distinct sorted node vector is stored once, back to back, and
/// addressed by a dense `u32` id, so the BFS `seen` set holds
/// `(pos-id, neg-id)` pairs packed into a `u64` instead of cloning node
/// vectors per visited state. Cleared, not freed, between searches: a
/// finder's footprint is its largest search, however many nodes a
/// session asks about.
#[derive(Default)]
struct SparseSets {
    /// Set `i` is `nodes[ends[i - 1]..ends[i]]`.
    nodes: Vec<NodeId>,
    ends: Vec<u32>,
    /// Content hash → id; a slot taken by another set's hash is resolved
    /// by probing the next hash value, so equal ids mean equal sets.
    index: HashMap<u64, u32>,
    hasher: RandomState,
}

impl SparseSets {
    fn clear(&mut self) {
        self.nodes.clear();
        self.ends.clear();
        self.index.clear();
    }

    fn get(&self, id: u32) -> &[NodeId] {
        let start = match id {
            0 => 0,
            _ => self.ends[id as usize - 1],
        };
        &self.nodes[start as usize..self.ends[id as usize] as usize]
    }

    fn intern(&mut self, set: &[NodeId]) -> u32 {
        let mut hash = self.hasher.hash_one(set);
        while let Some(&id) = self.index.get(&hash) {
            if self.get(id) == set {
                return id;
            }
            hash = hash.wrapping_add(1);
        }
        let id = self.ends.len() as u32;
        self.nodes.extend_from_slice(set);
        self.ends.push(self.nodes.len() as u32);
        self.index.insert(hash, id);
        id
    }
}

/// What [`ScpFinder::walk_paths`] does after visiting a word.
enum Walk {
    /// Go on with the word's extensions.
    Descend,
    /// Go on with the word's siblings.
    Skip,
    /// End the walk.
    Stop,
}

/// Upper bound on distinct search states per SCP call (safety valve for
/// adversarial `k`/graph combinations; see [`ScpFinder::scp`]).
pub const SCP_STATE_BUDGET: usize = 250_000;

/// How one bounded SCP search ended. Only the first two are facts about
/// `(G, S⁻, ν, k)` and may be remembered; running out of budget says
/// nothing about the paths that were not reached.
enum Search {
    Found(Word),
    Exhausted,
    OverBudget,
}

/// The `kS` uncovered-path counts of one `(k, cap)`, per node.
struct CountTable {
    k: usize,
    cap: usize,
    /// [`UNCOUNTED`] or the count, saturated at `cap`.
    counts: Vec<u32>,
}

const UNCOUNTED: u32 = u32::MAX;

/// Finds smallest consistent paths for the positive nodes of a sample,
/// sharing the negative-side cache across calls — and, through
/// [`ScpFinder::add_negative`], across the samples of a session that
/// grows by one label at a time.
///
/// What the finder remembers between calls — and what a new negative
/// does to it (L1–L3 of the [module docs](self)):
///
/// * per node, the length below which it has **no** uncovered path
///   (monotone, never invalidated);
/// * per node asked, its SCP — valid for every bound `k` at least its
///   length, dropped when the new negative covers that word;
/// * per `k` asked of [`ScpFinder::count_uncovered`], the count of every
///   node asked, forgotten for exactly the nodes that have a path the new
///   negative newly covers.
///
/// Every answer equals the one a fresh `ScpFinder::new(graph, S⁻)` gives;
/// a search cut short by [`SCP_STATE_BUDGET`] is never remembered.
///
/// A finder is `Send` (the negative side's shared sets are `Arc`s, not
/// `Rc`s), so a learning state can move to whichever thread runs the
/// next round; its caches are per-finder, never shared between threads.
pub struct ScpFinder<'g> {
    graph: &'g GraphDb,
    /// `S⁻`, sorted and deduplicated — what `neg` is rooted at.
    negatives: Vec<NodeId>,
    neg: NegCache<'g>,
    /// The running search's positive reach-sets.
    pos_sets: SparseSets,
    /// Reusable sparse-step buffer (copied only when interned as new).
    scratch: Vec<NodeId>,
    /// Reusable buffers of [`ScpFinder::walk_paths`]: the reach-set of
    /// each prefix of the current word.
    prefix_sets: Vec<Vec<NodeId>>,
    /// L1: node `ν` has no uncovered path of length `< none_below[ν]`
    /// (saturating; 0 = nothing known).
    none_below: Vec<u8>,
    /// L2: the SCP of each node whose search found one.
    found: HashMap<NodeId, Word>,
    /// L3: one table per `k` that `count_uncovered` was asked.
    counts: Vec<CountTable>,
    /// [`SCP_STATE_BUDGET`] (a field so that tests can exhaust it).
    budget: usize,
}

impl<'g> ScpFinder<'g> {
    /// Creates a finder for the negative node set `negatives`.
    pub fn new(graph: &'g GraphDb, negatives: &[NodeId]) -> Self {
        let mut finder = ScpFinder {
            graph,
            negatives: Vec::new(),
            neg: NegCache::new(graph, &[]),
            pos_sets: SparseSets::default(),
            scratch: Vec::new(),
            prefix_sets: Vec::new(),
            none_below: Vec::new(),
            found: HashMap::new(),
            counts: Vec::new(),
            budget: SCP_STATE_BUDGET,
        };
        finder.rebuild(negatives);
        finder
    }

    /// The graph this finder searches.
    pub fn graph(&self) -> &'g GraphDb {
        self.graph
    }

    /// Forgets everything that depends on `S⁻` and roots the negative
    /// side at `negatives`.
    fn rebuild(&mut self, negatives: &[NodeId]) {
        self.negatives = negatives.to_vec();
        self.negatives.sort_unstable();
        self.negatives.dedup();
        self.neg = NegCache::new(self.graph, &self.negatives);
        self.none_below.clear();
        self.none_below.resize(self.graph.num_nodes(), 0);
        self.found.clear();
        self.counts.clear();
    }

    /// Brings the finder to the negative set `negatives` (sorted and
    /// deduplicated, as a sample keeps it): nothing to do when it is the
    /// set last seen, an [`ScpFinder::add_negative`] when it grew by
    /// exactly one node, a rebuild from scratch otherwise.
    pub fn set_negatives(&mut self, negatives: &[NodeId]) {
        let old = &self.negatives;
        if negatives == old.as_slice() {
            return;
        }
        let at = old
            .iter()
            .zip(negatives)
            .position(|(a, b)| a != b)
            .unwrap_or(old.len());
        if negatives.len() == old.len() + 1 && negatives[at + 1..] == old[at..] {
            self.add_negative(negatives[at]);
        } else {
            self.rebuild(negatives);
        }
    }

    /// Grows `S⁻` by `node`, keeping every remembered answer the new
    /// negative cannot have changed.
    pub fn add_negative(&mut self, node: NodeId) {
        let Err(at) = self.negatives.binary_search(&node) else {
            return;
        };
        self.negatives.insert(at, node);
        self.forget_changed_counts(node); // against the old negative side
        self.neg.add_negative(node);
        let neg = &mut self.neg;
        self.found.retain(|_, word| !neg.covers(word));
    }

    /// The SCP of `node` among paths of length ≤ `max_len`, or `None` if
    /// every such path is covered by the negatives.
    ///
    /// The BFS visits at most [`SCP_STATE_BUDGET`] distinct
    /// (pos-set, neg-state) pairs; beyond that it gives up and reports
    /// `None`, exactly like an exceeded `k` bound — the state space is
    /// `O(|Σ|^k)` in the worst case and the paper's practical `k ≤ 4`
    /// keeps real searches far below the budget (asserted by benches).
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_graph::ScpFinder;
    ///
    /// // Paper §3.2: with S⁻ = {ν2, ν7}, the SCP of ν3 is the path c.
    /// let graph = figure3_g0();
    /// let negatives = [graph.node_id("v2").unwrap(), graph.node_id("v7").unwrap()];
    /// let mut finder = ScpFinder::new(&graph, &negatives);
    /// let scp = finder.scp(graph.node_id("v3").unwrap(), 3).unwrap();
    /// assert_eq!(scp, graph.alphabet().parse_word("c").unwrap());
    /// ```
    pub fn scp(&mut self, node: NodeId, max_len: usize) -> Option<Word> {
        self.scp_ref(node, max_len).cloned()
    }

    /// [`ScpFinder::scp`] behind the memo. A remembered SCP `w` answers
    /// every bound: it is the minimum for `max_len ≥ |w|`, and its search
    /// exhausted every shorter length before it got there.
    fn scp_ref(&mut self, node: NodeId, max_len: usize) -> Option<&Word> {
        const EPSILON: &Word = &Vec::new();
        if self.neg.root().is_none() {
            return Some(EPSILON); // S⁻ = ∅: ε is consistent
        }
        if !self.found.contains_key(&node) {
            if usize::from(self.none_below[node as usize]) > max_len {
                return None;
            }
            match self.search(node, max_len) {
                Search::Found(word) => {
                    self.found.insert(node, word);
                }
                Search::Exhausted => {
                    self.none_below[node as usize] = u8::try_from(max_len + 1).unwrap_or(u8::MAX);
                    return None;
                }
                Search::OverBudget => return None,
            }
        }
        self.found.get(&node).filter(|word| word.len() <= max_len)
    }

    /// The product BFS of the module docs, from `{node}` × the root.
    fn search(&mut self, node: NodeId, max_len: usize) -> Search {
        let neg_root = self
            .neg
            .root()
            .expect("S⁻ = ∅ is answered without a search");
        // The positive side is sparse (starts from one node); the negative
        // side is the memoized dense cache. States are (pos-id, neg-id)
        // pairs packed into u64 keys.
        self.pos_sets.clear();
        let start = self.pos_sets.intern(&[node]);
        let key = |pos: u32, neg: u32| (u64::from(pos) << 32) | u64::from(neg);
        let mut seen: HashSet<u64> = HashSet::new();
        let mut queue: VecDeque<(u32, u32, Word)> = VecDeque::new();
        seen.insert(key(start, neg_root));
        queue.push_back((start, neg_root, Vec::new()));

        while let Some((pos, neg, word)) = queue.pop_front() {
            if seen.len() > self.budget {
                return Search::OverBudget;
            }
            if word.len() >= max_len {
                continue;
            }
            for sym in self.graph.alphabet().symbols() {
                self.graph
                    .step_sparse_into(self.pos_sets.get(pos), sym, &mut self.scratch);
                if self.scratch.is_empty() {
                    continue; // word·sym ∉ paths_G(node)
                }
                let mut next_word = word.clone();
                next_word.push(sym);
                match self.neg.step(neg, sym) {
                    None => return Search::Found(next_word), // uncovered
                    Some(neg_next) => {
                        let pos_next = self.pos_sets.intern(&self.scratch);
                        if seen.insert(key(pos_next, neg_next)) {
                            queue.push_back((pos_next, neg_next, next_word));
                        }
                    }
                }
            }
        }
        Search::Exhausted
    }

    /// `true` iff `node` has at least one path of length ≤ `k` not covered
    /// by the negatives — the paper's **k-informative** test (§4.2).
    pub fn is_k_informative(&mut self, node: NodeId, k: usize) -> bool {
        self.scp_ref(node, k).is_some()
    }

    /// Counts the distinct uncovered paths of `node` of length ≤ `k`,
    /// stopping at `cap`. Drives the `kS` strategy (§4.2), which prefers
    /// nodes with the *fewest* uncovered k-paths.
    ///
    /// Distinct words are counted by walking the path trie (no
    /// determinization of the positive side across words — two different
    /// words are distinct paths even if they reach the same node set).
    /// The count is remembered per `k` (one `cap` at a time) until a new
    /// negative covers one of the node's paths.
    pub fn count_uncovered(&mut self, node: NodeId, k: usize, cap: usize) -> usize {
        // One table per `k`, made the first time that `k` is asked and
        // started over if the cap changes.
        let fresh = || CountTable {
            k,
            cap,
            counts: vec![UNCOUNTED; self.graph.num_nodes()],
        };
        let at = match self.counts.iter().position(|table| table.k == k) {
            Some(at) if self.counts[at].cap == cap => at,
            Some(at) => {
                self.counts[at] = fresh();
                at
            }
            None => {
                self.counts.push(fresh());
                self.counts.len() - 1
            }
        };
        let table = &self.counts[at];
        let known = table.counts[node as usize];
        if known != UNCOUNTED {
            return known as usize;
        }
        let count = self.walk_uncovered(node, k, cap);
        if let Some(slot) = u32::try_from(count).ok().filter(|&c| c != UNCOUNTED) {
            self.counts[at].counts[node as usize] = slot;
        }
        count
    }

    /// The trie walk behind [`ScpFinder::count_uncovered`].
    fn walk_uncovered(&mut self, node: NodeId, k: usize, cap: usize) -> usize {
        let mut count = 0usize;
        if self.neg.root().is_none() {
            count += 1; // ε uncovered
            if count >= cap {
                return count;
            }
        }
        self.walk_paths(node, k, |_, neg| {
            if neg.is_none() {
                count += 1;
                if count >= cap {
                    return Walk::Stop;
                }
            }
            Walk::Descend
        });
        count
    }

    /// Depth-first walk of the trie of `node`'s non-empty paths of length
    /// ≤ `max_len`, symbols in alphabet order: `visit(word, neg)` sees
    /// every word once, with the negative state it reaches (`None` =
    /// uncovered). The trie is walked by *words* — no determinization of
    /// the positive side across words; two different words are distinct
    /// paths even if they reach the same node set — so nothing is
    /// interned: one reach-set buffer per prefix of the current word.
    fn walk_paths(
        &mut self,
        node: NodeId,
        max_len: usize,
        mut visit: impl FnMut(&[Symbol], Option<u32>) -> Walk,
    ) {
        if max_len == 0 {
            return;
        }
        let symbols = self.graph.alphabet().len();
        if self.prefix_sets.is_empty() {
            self.prefix_sets.push(Vec::new());
        }
        self.prefix_sets[0].clear();
        self.prefix_sets[0].push(node);
        // One frame per prefix: the negative state it reaches and the
        // next symbol to extend it with.
        let mut frames: Vec<(Option<u32>, usize)> = vec![(self.neg.root(), 0)];
        let mut word: Word = Vec::new();
        while let Some(frame) = frames.last_mut() {
            let (neg, next) = *frame;
            if next == symbols {
                frames.pop();
                word.pop();
                continue;
            }
            frame.1 += 1;
            let sym = Symbol::from_index(next);
            let depth = word.len();
            if self.prefix_sets.len() == depth + 1 {
                self.prefix_sets.push(Vec::new());
            }
            let (prefixes, extensions) = self.prefix_sets.split_at_mut(depth + 1);
            self.graph
                .step_sparse_into(&prefixes[depth], sym, &mut extensions[0]);
            if extensions[0].is_empty() {
                continue; // word·sym is not a path of `node`
            }
            let neg_next = neg.and_then(|state| self.neg.step(state, sym));
            word.push(sym);
            match visit(&word, neg_next) {
                Walk::Stop => return,
                Walk::Descend if word.len() < max_len => frames.push((neg_next, 0)),
                Walk::Descend | Walk::Skip => {
                    word.pop();
                }
            }
        }
    }

    /// L3, before `node` joins `S⁻`: walks `node`'s own path trie against
    /// the current negative side, collects the *minimal* newly covered
    /// words (uncovered so far, every proper prefix covered) and forgets
    /// the count of every graph node that has a path spelling one of
    /// them — any other node keeps all its uncovered words.
    fn forget_changed_counts(&mut self, node: NodeId) {
        let Some(k_max) = self.counts.iter().map(|table| table.k).max() else {
            return;
        };
        if self.neg.root().is_none() {
            self.counts.clear(); // ε itself becomes covered, for every node
            return;
        }
        let graph = self.graph;
        let nodes = graph.num_nodes();
        // changed[len - 1]: nodes with a newly covered path of that length.
        let mut changed: Vec<BitSet> = (0..k_max).map(|_| BitSet::new(nodes)).collect();
        let (mut having, mut buffer) = (BitSet::new(nodes), BitSet::new(nodes));
        self.walk_paths(node, k_max, |word, neg| {
            if neg.is_some() {
                return Walk::Descend;
            }
            graph.nodes_with_path(word, &mut having, &mut buffer);
            changed[word.len() - 1].union_with(&having);
            Walk::Skip
        });
        for table in &mut self.counts {
            for level in &changed[..table.k] {
                for node in level.iter() {
                    table.counts[node] = UNCOUNTED;
                }
            }
        }
    }
}

/// Reference SCP by naive enumeration (tests / benches): enumerate the
/// paths of `node` in canonical order and return the first not covered by
/// the negatives.
pub fn scp_naive(
    graph: &GraphDb,
    node: NodeId,
    negatives: &[NodeId],
    max_len: usize,
) -> Option<Word> {
    let limit = 1_000_000;
    graph
        .enumerate_paths(node, max_len, limit)
        .into_iter()
        .find(|w| !graph.covers(w, negatives))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{figure3_g0, GraphBuilder};
    use pathlearn_automata::Alphabet;

    #[test]
    fn paper_scps_on_g0() {
        // §3.2: with S⁺={ν1,ν3}, S⁻={ν2,ν7} the SCPs are abc (ν1), c (ν3).
        let graph = figure3_g0();
        let alphabet = graph.alphabet().clone();
        let v1 = graph.node_id("v1").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        assert_eq!(
            finder.scp(v1, 3),
            Some(alphabet.parse_word("a b c").unwrap())
        );
        assert_eq!(finder.scp(v3, 3), Some(alphabet.parse_word("c").unwrap()));
    }

    #[test]
    fn scp_matches_naive_enumeration() {
        let graph = figure3_g0();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        for node in graph.nodes() {
            for k in 0..=4 {
                assert_eq!(
                    finder.scp(node, k),
                    scp_naive(&graph, node, &[v2, v7], k),
                    "node {node}, k {k}"
                );
            }
        }
    }

    #[test]
    fn figure5_inconsistent_sample_has_no_scp() {
        // Figure 5: a positive node whose every path is covered by the two
        // negatives: + --a--> x --b--> y with negatives covering a·b* ...
        // Reconstruction: positive p with edges matching the negatives'.
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b"]));
        // positive node: a-loop into b-loop structure
        builder.add_edge("p", "a", "p2");
        builder.add_edge("p2", "b", "p2");
        // negative 1 covers a·b^i
        builder.add_edge("n1", "a", "n1b");
        builder.add_edge("n1b", "b", "n1b");
        // negative 2 covers ε (trivially) — any node does.
        builder.add_node("n2");
        let graph = builder.build();
        let p = graph.node_id("p").unwrap();
        let n1 = graph.node_id("n1").unwrap();
        let n2 = graph.node_id("n2").unwrap();
        let mut finder = ScpFinder::new(&graph, &[n1, n2]);
        // Every path of p (ε, a, ab, abb, ...) is covered by {n1, n2}.
        for k in 0..=8 {
            assert_eq!(finder.scp(p, k), None, "k={k}");
        }
    }

    #[test]
    fn empty_negatives_make_epsilon_the_scp() {
        let graph = figure3_g0();
        let mut finder = ScpFinder::new(&graph, &[]);
        assert_eq!(finder.scp(0, 3), Some(Vec::new()));
    }

    #[test]
    fn bound_k_can_hide_scps() {
        // ν1's SCP has length 3; with k=2 it is not found.
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        assert_eq!(finder.scp(v1, 2), None);
        assert!(finder.scp(v1, 3).is_some());
    }

    #[test]
    fn k_informative_and_counts() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let v2 = graph.node_id("v2").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        assert!(finder.is_k_informative(v3, 1)); // path c
        assert!(!finder.is_k_informative(v1, 2));
        assert!(finder.is_k_informative(v1, 3));
        // count_uncovered agrees with enumerate+covers.
        for node in graph.nodes() {
            for k in 0..=3 {
                let expected = graph
                    .enumerate_paths(node, k, 100_000)
                    .into_iter()
                    .filter(|w| !graph.covers(w, &[v2, v7]))
                    .count();
                assert_eq!(
                    finder.count_uncovered(node, k, usize::MAX),
                    expected,
                    "node {node} k {k}"
                );
            }
        }
    }

    #[test]
    fn count_respects_cap() {
        let graph = figure3_g0();
        let v3 = graph.node_id("v3").unwrap();
        let mut finder = ScpFinder::new(&graph, &[]);
        assert_eq!(finder.count_uncovered(v3, 4, 5), 5);
    }

    #[test]
    fn finder_is_send() {
        // A learning state may move between threads; this is a
        // compile-time property (Arc-interned store, no Rc).
        fn assert_send<T: Send>() {}
        assert_send::<ScpFinder<'static>>();
        assert_send::<NegCache<'static>>();
    }

    #[test]
    fn neg_cache_is_shared_across_nodes() {
        let graph = figure3_g0();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        for node in graph.nodes() {
            let _ = finder.scp(node, 3);
        }
        let states_after_first_pass = finder.neg.num_states();
        for node in graph.nodes() {
            let _ = finder.scp(node, 3);
        }
        // Second pass adds no new negative reach-sets.
        assert_eq!(finder.neg.num_states(), states_after_first_pass);
    }
    /// Figure 3 with the paper's `S⁻ = {ν2, ν7}` added one at a time: a
    /// finder that has answered every `(node, k ≤ 3)` under `{ν2}`, and
    /// what is left of those answers once `ν7` joins.
    fn g0_after_v2_then_v7() -> (GraphDb, NodeId, NodeId) {
        let graph = figure3_g0();
        let v2 = graph.node_id("v2").unwrap();
        let v7 = graph.node_id("v7").unwrap();
        (graph, v2, v7)
    }

    fn warm(finder: &mut ScpFinder<'_>, graph: &GraphDb) {
        for node in graph.nodes() {
            for k in 0..=3 {
                finder.scp(node, k);
                finder.count_uncovered(node, k, usize::MAX);
            }
        }
    }

    #[test]
    fn l1_uninformative_nodes_stay_uninformative_and_counts_never_rise() {
        let (graph, v2, v7) = g0_after_v2_then_v7();
        let mut finder = ScpFinder::new(&graph, &[]);
        finder.add_negative(v2);
        warm(&mut finder, &graph);
        let below_before = finder.none_below.clone();
        let counts_before: Vec<usize> = graph
            .nodes()
            .map(|n| finder.count_uncovered(n, 3, usize::MAX))
            .collect();
        finder.add_negative(v7);
        // The "no uncovered path below this length" marks survive as they
        // are — and they are still true of the larger S⁻.
        assert_eq!(finder.none_below, below_before);
        assert!(below_before.iter().any(|&below| below > 0));
        for node in graph.nodes() {
            for k in 0..usize::from(below_before[node as usize]) {
                assert_eq!(scp_naive(&graph, node, &[v2, v7], k), None);
            }
            let after = finder.count_uncovered(node, 3, usize::MAX);
            assert!(after <= counts_before[node as usize], "node {node}");
        }
    }

    #[test]
    fn l2_an_scp_survives_unless_the_new_negative_covers_it() {
        let (graph, v2, v7) = g0_after_v2_then_v7();
        let mut finder = ScpFinder::new(&graph, &[v2]);
        warm(&mut finder, &graph);
        let before = finder.found.clone();
        assert!(!before.is_empty());
        finder.add_negative(v7);
        let (mut kept, mut dropped) = (0, 0);
        for (node, word) in &before {
            if graph.covers(word, &[v7]) {
                assert!(!finder.found.contains_key(node), "node {node}");
                dropped += 1;
            } else {
                // Still remembered, and still the SCP.
                assert_eq!(finder.found.get(node), Some(word));
                assert_eq!(scp_naive(&graph, *node, &[v2, v7], 3).as_ref(), Some(word));
                kept += 1;
            }
        }
        // ν7 covers b (the SCP of ν1 and ν6 under {ν2}) but not c (ν3's).
        assert!(kept > 0 && dropped > 0, "kept {kept}, dropped {dropped}");
    }

    #[test]
    fn l3_only_nodes_with_a_newly_covered_path_are_recounted() {
        let (graph, v2, v7) = g0_after_v2_then_v7();
        let mut finder = ScpFinder::new(&graph, &[v2]);
        warm(&mut finder, &graph);
        let table = |finder: &ScpFinder<'_>| {
            let table = finder.counts.iter().find(|t| t.k == 3).unwrap();
            table.counts.clone()
        };
        let before = table(&finder);
        finder.add_negative(v7);
        let after = table(&finder);
        let mut fresh = ScpFinder::new(&graph, &[v2, v7]);
        let (mut kept, mut forgotten) = (0, 0);
        for node in graph.nodes() {
            let now = fresh.count_uncovered(node, 3, usize::MAX) as u32;
            if after[node as usize] == UNCOUNTED {
                forgotten += 1;
            } else {
                // Kept entries are the old counts, and they are right.
                assert_eq!(after[node as usize], before[node as usize]);
                assert_eq!(after[node as usize], now, "node {node}");
                kept += 1;
            }
        }
        // ν4 has no outgoing edge, so nothing ν7 covers is a path of it.
        assert!(
            kept > 0 && forgotten > 0,
            "kept {kept}, forgotten {forgotten}"
        );
        // A positive label is no call at all: nothing on this side moves.
    }

    #[test]
    fn a_search_cut_short_by_the_budget_is_not_remembered() {
        let (graph, v2, v7) = g0_after_v2_then_v7();
        let v1 = graph.node_id("v1").unwrap();
        let mut finder = ScpFinder::new(&graph, &[v2, v7]);
        // ν1's SCP a·b·c sits behind more than two search states.
        finder.budget = 2;
        assert_eq!(finder.scp(v1, 3), None);
        assert!(!finder.is_k_informative(v1, 3));
        // Neither "no SCP up to 3" nor an SCP was recorded …
        assert_eq!(finder.none_below[v1 as usize], 0);
        assert!(finder.found.is_empty());
        // … so the same finder answers correctly once it may look further,
        finder.budget = SCP_STATE_BUDGET;
        assert_eq!(finder.scp(v1, 3), scp_naive(&graph, v1, &[v2, v7], 3));
        assert!(finder.scp(v1, 3).is_some());
        // while a search that ran dry is remembered for every shorter bound.
        assert_eq!(finder.scp(v1, 2), None);
        assert!(matches!(finder.search(v1, 2), Search::Exhausted));
    }

    #[test]
    fn negative_side_drops_unreachable_states_and_stays_exact() {
        // A deterministic pseudo-random graph large enough for the
        // negative side to outgrow its compaction slack several times.
        let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
        let nodes = 120u32;
        for i in 0..nodes {
            builder.add_node(&format!("n{i}"));
        }
        let mut state = 0x9e37_79b9_u32;
        let mut next = |bound: u32| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) % bound
        };
        for _ in 0..300 {
            let (src, sym, dst) = (next(nodes), next(3), next(nodes));
            builder.add_edge_ids(src, Symbol::from_index(sym as usize), dst);
        }
        let graph = builder.build();
        let mut finder = ScpFinder::new(&graph, &[]);
        let mut negatives = Vec::new();
        let mut peak = 0;
        for round in 0..40 {
            let node = next(nodes);
            finder.add_negative(node);
            negatives.push(node);
            peak = peak.max(finder.neg.num_states());
            let mut fresh = ScpFinder::new(&graph, &negatives);
            for probe in (round % 7..nodes).step_by(7) {
                assert_eq!(finder.scp(probe, 3), fresh.scp(probe, 3), "round {round}");
                assert_eq!(
                    finder.count_uncovered(probe, 3, 50),
                    fresh.count_uncovered(probe, 3, 50),
                    "round {round}"
                );
            }
        }
        // Forty roots' worth of states were created (about 400); what is
        // kept at any time is the last two generations plus the slack.
        assert!(peak > NEG_COMPACT_MIN, "compaction never triggered");
        assert!(peak < 100, "peak {peak}");
    }
}

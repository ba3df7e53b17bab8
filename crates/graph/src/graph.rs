//! The graph database container.
//!
//! A graph database `G = (V, E)` with `E ⊆ V × Σ × V` (paper §2). Nodes
//! are dense `u32` ids with optional string names; edges are stored once
//! per [`Dir`] in a **label-partitioned CSR** (an `Adjacency`) laid out
//! **label-major**: [`Dir::Out`] sorted by `(label, src, dst)`,
//! [`Dir::In`] by `(label, dst, src)`, frozen at [`GraphBuilder::build`]
//! time. The CSR is **succinct**: it keeps an offset only for each
//! *active* `(label, node)` cell — a node with at least one edge of the
//! label in that direction — and finds a cell by **rank** over the
//! per-label active-node bitmaps the graph keeps anyway
//! ([`GraphDb::label_active`]):
//!
//! ```text
//! offsets  one u32 per active cell + 1   cell i = edges[offsets[i]..offsets[i + 1]]
//! ranks    |Σ|·⌈|V|/64⌉ u32              ranks[a·W + w] = first active cell of a in word w
//! cell(v, a) = ranks[a·W + v/64] + popcount(active_a[v/64] & below(v))   if v ∈ active_a
//! ```
//!
//! [`GraphDb::neighbors`] is therefore a bit test, a rank read, a
//! popcount and two offset reads — `O(1)`, no search — and a frontier
//! step over `a`, which visits nodes in ascending order, streams through
//! `a`'s rank words, offsets and edges front to back. Per-node views
//! ([`GraphDb::edges_of`], [`GraphDb::degree`], [`GraphDb::edges`]) test
//! the node's bit in every label instead. Everything that asks for "the
//! `a`-neighbours of a node (set), in one direction" takes the direction
//! as a [`Dir`] argument, which only selects which adjacency is read.
//!
//! On top of the partitioned layout sits the **frontier step kernel**
//! ([`GraphDb::step_into`], with the allocating form [`GraphDb::step`]):
//! one simulation step for a whole node *set* per call, deduplicating
//! through word-level [`BitSet`] operations with caller-provided scratch
//! buffers so the hot loops (RPQ evaluation, SCP search, on-the-fly
//! determinization) run allocation-free.
//!
//! ## Edge-delta overlay
//!
//! A built graph is immutable, but it can absorb **edge deltas** without
//! a rebuild: [`GraphDb::with_delta`] returns a new handle sharing the
//! frozen CSR (behind an `Arc`) plus a per-`(label, direction)` overlay
//! of added/removed edge sets. The step kernel merges the overlay at
//! visit time — base slice minus the removal list, merged in ascending
//! order with the added list, the same walk every merged view uses —
//! behind a once-per-call branch, so delta-free graphs keep the exact
//! hot path they had before. The per-label bitmaps, counts and
//! average degrees the [`StepPolicy`] cost model reads are **recomputed
//! exactly** for touched labels at delta-apply time, so plan decisions
//! stay sound on overlay graphs; the base bitmaps stay frozen beside
//! them, because the ranks count base cells. When the overlay outgrows a
//! threshold, [`GraphDb::compact`] folds it into a fresh CSR **preserving
//! node ids and the alphabet**, so result bitsets and interned symbols
//! stay valid across compaction. The node set and alphabet are frozen: a
//! delta naming an unknown node or label is a structured [`DeltaError`],
//! not an implicit rebuild.
//!
//! The slice accessors ([`GraphDb::neighbors`] and its out-direction
//! shorthand [`GraphDb::successors`]) expose the **base CSR only** — they
//! cannot splice the overlay into a borrowed slice. Semantic consumers
//! use the merged views: [`GraphDb::for_each_neighbor`],
//! [`GraphDb::edges_of`], [`GraphDb::edges`], and the step kernel itself.
//!
//! A frontier step over a symbol can only produce output from frontier
//! nodes in the label's active set, and the kernel reads that set's word
//! anyway to rank its cells: it iterates `frontier ∩ label-active`
//! word-by-word, so inactive nodes cost nothing. The **cost-model gate**
//! ([`GraphDb::plan_step`], driven by a [`StepPolicy`]) prices each
//! `(level, symbol)` step with one fused AND+popcount scan, choosing
//! skip / covered / plain for the level kernel in [`crate::eval`] —
//! *covered* when the frontier holds the whole active set, so the step's
//! answer is the label's opposite-direction bitmap — or, for a frontier
//! of a few nodes, *sparse* before any scan: the level kernel then visits
//! those nodes' edges one by one instead of making `|V|`-word passes.
//!
//! ## Complexity
//!
//! * build: the builder's `O(|E| log |E|)` sort, then per direction three
//!   passes (bitmaps and label counts; rank words and cell counts; a
//!   scatter through the offsets), `O(|Σ|·|V|/64 + |E|)` — nothing of
//!   size `|Σ|·|V|` is allocated, not even transiently;
//! * memory: `2·|E|` edge entries + `2·(Σ_a |active_a| + 1)` offsets +
//!   `2·|Σ|·⌈|V|/64⌉` rank words, beside the `2·|Σ|·|V|` bits of label
//!   bitmaps the planner reads;
//! * `step(dir, F, a)`: `O(|F ∩ active_a| + Σ_{ν∈F} deg_a(ν) + |V|/64)`;
//! * `neighbors`: `O(1)` to produce the slice; `edges_of` / `degree`:
//!   `O(|Σ| + deg(ν))`.

use pathlearn_automata::{Alphabet, BitSet, Symbol};
use std::collections::HashMap;
use std::sync::Arc;

pub mod snapshot;

/// Numeric identifier of a graph node.
pub type NodeId = u32;

/// Fixed-point scale of the frozen per-label average degrees consumed by
/// the step-kernel cost model (×16: quarter-edge resolution is plenty
/// for a heuristic, and the multiply stays in `u64`).
const AVG_DEG_FP: u64 = 16;

/// Cost-model weight of one frontier node beyond its edges, in the same
/// ×16 fixed point: the bit test, rank read and two offset reads that
/// find its cell.
const NODE_COST_X16: u64 = 2 * AVG_DEG_FP;

/// The sparse-step gate: a step is planned [`StepPlan::Sparse`] when
/// its frontier nodes, each priced at [`NODE_COST_X16`] plus its label's
/// average degree in endpoint test-and-sets, cost at most this much per
/// `u64` word of a `|V|`-bit set (×16 fixed point):
///
/// ```text
/// frontier · (node cost + avg label degree)  ≤  node words · SPARSE_WORD_COST_X16
/// ```
///
/// At one word's worth — the price of a single `|V|`-word pass, of
/// the five a dense task makes — a label of average degree 2 goes
/// sparse up to `|V|/256` frontier nodes. Measured on `cold_scan`
/// (100k nodes, 30 labels): gating four times looser, at `|V|/64`,
/// bought the median but lost the p99 and throughput, because
/// per-endpoint test-and-set loses to the word kernels on denser
/// frontiers.
const SPARSE_WORD_COST_X16: u64 = AVG_DEG_FP;

/// Which way an adjacency lookup or a frontier step follows the edges.
/// The value only selects which of the graph's two adjacencies is read;
/// every accessor and the step kernel are otherwise direction-blind.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Along the edges: a node's neighbours are its successors.
    Out,
    /// Against the edges: a node's neighbours are its predecessors.
    In,
}

impl Dir {
    /// Both directions, [`Dir::Out`] first.
    pub const BOTH: [Dir; 2] = [Dir::Out, Dir::In];

    /// The opposite direction — where the endpoints of a step in this
    /// direction are themselves active.
    pub fn reverse(self) -> Dir {
        match self {
            Dir::Out => Dir::In,
            Dir::In => Dir::Out,
        }
    }
}

/// How an evaluator executes its frontier step kernels. `Plain` is the
/// reference the differential suites compare the `Auto` gate against:
/// results are **bit-identical** across both policies; only the work
/// performed per `(level, symbol)` step differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepPolicy {
    /// Always walk: every symbol with DFA transitions is stepped by the
    /// dense kernel, with no skip, covered copy or sparse visit — the
    /// reference.
    Plain,
    /// The cost-model gate (the default everywhere): per `(level, symbol)`
    /// compare the intersection popcount against the frontier popcount and
    /// the label's active count: skip an empty step, copy a covered one,
    /// visit a tiny frontier node by node, or walk — see
    /// [`GraphDb::plan_step`].
    #[default]
    Auto,
}

impl StepPolicy {
    /// All policies, reference first — for the differential tests.
    pub const ALL: [StepPolicy; 2] = [StepPolicy::Plain, StepPolicy::Auto];
}

/// The per-`(level, symbol)` decision produced by [`GraphDb::plan_step`]
/// under a [`StepPolicy`] and executed by [`GraphDb::step_into`]:
/// skip the step entirely (provably empty), copy its provably known
/// answer, walk a frontier of a few nodes one node at a time, or run the
/// dense kernel. `Skip` and `Covered` are verdicts about the frontier
/// they were planned for; `Sparse` is a verdict about its size. Only
/// [`StepPolicy::Auto`] plans anything but `Plain`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepPlan {
    /// No frontier node carries an edge of the symbol in the step
    /// direction — the graph step is provably empty, skip it.
    Skip,
    /// The frontier contains every node that carries an edge of the
    /// symbol in the step direction, so the step reaches every endpoint
    /// of those edges: its answer is `label_active(dir.reverse(), sym)`,
    /// copied instead of walked.
    Covered,
    /// The frontier is a few nodes against `|V|` (see
    /// [`GraphDb::plan_step`]), so the level kernel in
    /// [`crate::eval`] walks its members and test-and-sets each
    /// effective neighbour ([`GraphDb::for_each_neighbor`]) straight
    /// into the reached and next-frontier sets: no step buffer, and no
    /// `|V|`-word pass beyond finding the frontier's bits
    /// ([`GraphDb::step_visit`]), or none at all for a frontier the level
    /// still lists ([`GraphDb::step_visit_nodes`]). Through
    /// [`GraphDb::step_into`] the visits are inserted into `out`.
    Sparse,
    /// The dense kernel: walk `frontier ∩ label-active` word by word,
    /// ranking each surviving node's cell in the label word just read.
    Plain,
}

/// Offset of the first non-zero word of `words`: how [`GraphDb::step_visit`]
/// skips a sparse frontier's empty words. Kept out of line on purpose:
/// inlined, the scan shares its registers with the visit body, and the
/// compiler may keep its index on the stack, storing and reloading it on
/// every word — binary evaluation over a 100k-node graph measured 15–35 %
/// slower that way.
#[inline(never)]
fn first_set_word(words: &[u64]) -> Option<usize> {
    words.iter().position(|&word| word != 0)
}

/// An immutable, query-ready graph database. Build with [`GraphBuilder`].
///
/// ```
/// use pathlearn_graph::GraphBuilder;
///
/// let mut builder = GraphBuilder::new();
/// builder.add_edge("N1", "tram", "N4");
/// builder.add_edge("N4", "cinema", "C1");
/// let graph = builder.build();
///
/// assert_eq!(graph.num_nodes(), 3);
/// let n1 = graph.node_id("N1").unwrap();
/// let word = graph.alphabet().parse_word("tram cinema").unwrap();
/// assert!(graph.covers(&word, &[n1])); // tram·cinema ∈ paths(N1)
/// ```
#[derive(Clone, Debug)]
pub struct GraphDb {
    /// The frozen CSR and its per-label statistics, shared (`Arc`) by
    /// every delta handle derived from the same build — structural
    /// sharing is what makes [`GraphDb::with_delta`] cheap.
    core: Arc<GraphCore>,
    /// Pending edge mutations, `None` for a delta-free graph (the
    /// common case; the step kernel branches on this exactly once per
    /// call).
    delta: Option<Box<DeltaOverlay>>,
}

/// The immutable build product: names plus one [`Adjacency`] per
/// [`Dir`]. One `GraphCore` is shared by the base graph and every delta
/// overlay handle derived from it.
#[derive(Debug)]
struct GraphCore {
    alphabet: Alphabet,
    node_names: Vec<String>,
    name_index: HashMap<String, NodeId>,
    /// The same edge set twice, indexed by `Dir as usize`.
    adj: [Adjacency; 2],
    /// Empty `|V|`-capacity set returned for out-of-alphabet symbols, so
    /// the label bitmaps stay total without an `Option` in the hot path.
    no_label_nodes: BitSet,
}

/// What the step planner knows about one label in one direction —
/// derived from the edge list when an `Adjacency` is frozen, and
/// recomputed exactly for a label a delta touches.
#[derive(Clone, Debug)]
struct LabelStats {
    /// Nodes with ≥ 1 edge of the label in this direction.
    active: BitSet,
    /// `|active|`, so the cost model never re-popcounts the bitmap.
    active_count: u32,
    /// Edges of the label per **active** node, in ×16 fixed point — the
    /// per-label weight of the degree-weighted step cost model (see
    /// [`GraphDb::plan_step`]).
    avg_deg_x16: u32,
    /// Edges of the label (the same number in both directions).
    edge_count: u64,
}

impl LabelStats {
    fn new(active: BitSet, edge_count: u64) -> Self {
        let active_count = active.len() as u32;
        let avg_deg_x16 = if active_count == 0 {
            0
        } else {
            (edge_count * AVG_DEG_FP / active_count as u64) as u32
        };
        LabelStats {
            active,
            active_count,
            avg_deg_x16,
            edge_count,
        }
    }
}

/// One direction of the label-partitioned CSR, stored **label-major**:
/// every edge as a `(label, endpoint)` pair in `(label, node, endpoint)`
/// order, where *node* is the source and *endpoint* the target for
/// [`Dir::Out`], and the other way round for [`Dir::In`]. Only **active**
/// `(label, node)` cells — `node` in the label's `active` bitmap — have
/// an offset, and a cell is found by rank over that bitmap (see the
/// module docs). A frontier step over one label visits nodes in
/// ascending order, so it reads that label's bitmap, rank words,
/// offsets and edges front to back.
#[derive(Debug)]
struct Adjacency {
    /// One offset into `edges` per active cell, in `(label, node)` order,
    /// plus a sentinel: cell `i`'s edges are
    /// `edges[offsets[i]..offsets[i + 1]]`, and label `a`'s cells end
    /// where `a + 1`'s begin.
    offsets: Vec<u32>,
    /// The rank directory, `words` entries per label: `ranks[a·words + w]`
    /// is the index of label `a`'s first active cell at or after node
    /// `64·w`.
    ranks: Vec<u32>,
    edges: Vec<(Symbol, NodeId)>,
    /// Per-label statistics, indexed by symbol (`|Σ|` entries). Their
    /// `active` bitmaps are what the ranks count.
    labels: Vec<LabelStats>,
    num_nodes: usize,
    /// `⌈|V|/64⌉`: bitmap words, and rank words, per label.
    words: usize,
}

/// A node id as the `(word, bit)` of its bitmap position.
#[inline(always)]
fn word_and_bit(node: usize) -> (usize, u32) {
    (
        node / BitSet::BLOCK_BITS,
        (node % BitSet::BLOCK_BITS) as u32,
    )
}

/// The index of the active cell at bit `bit` of `label_word`: the
/// word's rank plus the popcount of the label's cells below `bit`.
#[inline(always)]
fn rank(rank_word: u32, label_word: u64, bit: u32) -> usize {
    debug_assert!(label_word >> bit & 1 == 1, "rank of an inactive cell");
    rank_word as usize + (label_word & ((1u64 << bit) - 1)).count_ones() as usize
}

/// One label of an [`Adjacency`]: its bitmap words, and where its rank
/// words start in the direction's rank directory.
#[derive(Clone, Copy)]
struct LabelRun<'g> {
    adj: &'g Adjacency,
    active: &'g [u64],
    /// `ranks[rank_base + w]` is the rank word of bitmap word `w`.
    rank_base: usize,
}

impl<'g> LabelRun<'g> {
    /// `node`'s base edges of this label: one bit test, and one rank if
    /// the bit is set. Inlined into every per-node reader: a call would
    /// cost the SCP search more than the lookup.
    #[inline(always)]
    fn cell(&self, node: usize) -> &'g [(Symbol, NodeId)] {
        let (word, bit) = word_and_bit(node);
        let label_word = self.active[word];
        if label_word >> bit & 1 == 0 {
            return &[];
        }
        self.adj
            .cell_edges(rank(self.rank_word(word), label_word, bit))
    }

    /// The index of the label's first active cell in bitmap word `word`.
    #[inline(always)]
    fn rank_word(&self, word: usize) -> u32 {
        self.adj.ranks[self.rank_base + word]
    }

    /// Visits each node of `bits` — a subset of frontier word `word` —
    /// in ascending order with its base edges of this label, empty for a
    /// node without any (an overlay-only node). The label word is read
    /// once for the whole word, and each cell's rank is a popcount in it.
    #[inline]
    fn visit_word(
        &self,
        word: usize,
        mut bits: u64,
        mut visit: impl FnMut(NodeId, &'g [(Symbol, NodeId)]),
    ) {
        if bits == 0 {
            return;
        }
        let (label_word, rank_word) = (self.active[word], self.rank_word(word));
        // Local slices: `visit`'s stores would otherwise make every node
        // reload them through the shared core.
        let (offsets, edges) = (&self.adj.offsets[..], &self.adj.edges[..]);
        while bits != 0 {
            let bit = bits.trailing_zeros();
            bits &= bits - 1;
            let base = if label_word >> bit & 1 == 0 {
                &[][..]
            } else {
                let cell = rank(rank_word, label_word, bit);
                &edges[offsets[cell] as usize..offsets[cell + 1] as usize]
            };
            visit((word * BitSet::BLOCK_BITS + bit as usize) as NodeId, base);
        }
    }
}

impl Adjacency {
    /// Freezes one direction of an edge list sorted by `(src, symbol,
    /// dst)` and deduplicated, keyed by `(label, node)` — *node* being
    /// `src` for [`Dir::Out`], `dst` for [`Dir::In`] — in three passes:
    /// the first sets the label bitmaps and counts each label's edges;
    /// the second lays the rank words over the bitmaps and counts each
    /// active cell's edges; the third scatters the edges, using the
    /// offsets themselves as write cursors. Nothing of size `|Σ|·|V|`
    /// is ever allocated. Each cell receives its endpoints in list
    /// order, which is ascending in both directions: targets ascend
    /// within a `(src, symbol)` run, and sources ascend along the whole
    /// list.
    fn from_sorted(
        sorted: &[(NodeId, Symbol, NodeId)],
        dir: Dir,
        num_nodes: usize,
        sigma: usize,
    ) -> Self {
        let key = |&(src, sym, dst): &(NodeId, Symbol, NodeId)| match dir {
            Dir::Out => (sym, src, dst),
            Dir::In => (sym, dst, src),
        };
        let mut active: Vec<BitSet> = (0..sigma).map(|_| BitSet::new(num_nodes)).collect();
        let mut edge_counts = vec![0u64; sigma];
        for edge in sorted {
            let (sym, node, _) = key(edge);
            active[sym.index()].insert(node as usize);
            edge_counts[sym.index()] += 1;
        }
        let labels: Vec<LabelStats> = active
            .into_iter()
            .zip(edge_counts)
            .map(|(active, edge_count)| LabelStats::new(active, edge_count))
            .collect();
        let words = num_nodes.div_ceil(BitSet::BLOCK_BITS);
        let mut ranks = Vec::with_capacity(sigma * words);
        let mut cells = 0u32;
        for stats in &labels {
            for &label_word in stats.active.as_blocks() {
                ranks.push(cells);
                cells += label_word.count_ones();
            }
        }
        let mut adj = Adjacency {
            offsets: vec![0u32; cells as usize + 1],
            ranks,
            edges: vec![(Symbol::from_index(0), 0); sorted.len()],
            labels,
            num_nodes,
            words,
        };
        for edge in sorted {
            let (sym, node, _) = key(edge);
            let cell = adj.rank_of(node, sym.index());
            adj.offsets[cell + 1] += 1;
        }
        for i in 0..cells as usize {
            adj.offsets[i + 1] += adj.offsets[i];
        }
        for edge in sorted {
            let (sym, node, endpoint) = key(edge);
            let cell = adj.rank_of(node, sym.index());
            let cursor = adj.offsets[cell] as usize;
            adj.edges[cursor] = (sym, endpoint);
            adj.offsets[cell] += 1;
        }
        // Each cursor now stands at its cell's end — the next cell's
        // start — so one shift restores the starts.
        adj.offsets.copy_within(..cells as usize, 1);
        adj.offsets[0] = 0;
        adj
    }

    /// Label `si`'s run, `None` for an out-of-alphabet symbol.
    #[inline]
    fn run(&self, si: usize) -> Option<LabelRun<'_>> {
        let stats = self.labels.get(si)?;
        Some(LabelRun {
            adj: self,
            active: stats.active.as_blocks(),
            rank_base: si * self.words,
        })
    }

    /// The edges of cell `i`.
    #[inline(always)]
    fn cell_edges(&self, i: usize) -> &[(Symbol, NodeId)] {
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The index of `node`'s cell under label `si`, which must be active.
    #[inline]
    fn rank_of(&self, node: NodeId, si: usize) -> usize {
        let run = self.run(si).expect("an in-alphabet label");
        let (word, bit) = word_and_bit(node as usize);
        rank(run.rank_word(word), run.active[word], bit)
    }

    /// The `(node, sym)` cell: a bit test and a rank in `sym`'s run.
    /// Empty for an out-of-alphabet symbol; panics on a node id outside
    /// the graph, as an index would.
    #[inline]
    fn neighbors(&self, node: NodeId, sym: Symbol) -> &[(Symbol, NodeId)] {
        let Some(run) = self.run(sym.index()) else {
            return &[];
        };
        self.check_node(node);
        run.cell(node as usize)
    }

    /// `node`'s cell under label `si` ([`LabelRun::cell`]), empty for an
    /// out-of-alphabet symbol. Unlike [`Adjacency::neighbors`] it does
    /// not check `node`: callers check it once per walk
    /// ([`Adjacency::check_node`]) and then step `si`.
    #[inline]
    fn cell(&self, node: NodeId, si: usize) -> &[(Symbol, NodeId)] {
        self.run(si).map_or(&[], |run| run.cell(node as usize))
    }

    /// Panics on a node id outside the graph, as an index would.
    fn check_node(&self, node: NodeId) {
        assert!(
            (node as usize) < self.num_nodes,
            "node {node} out of range ({} nodes)",
            self.num_nodes
        );
    }

    /// The total length of `node`'s cells, one per label's run.
    fn degree(&self, node: NodeId) -> usize {
        self.check_node(node);
        (0..self.labels.len())
            .map(|si| self.cell(node, si).len())
            .sum()
    }

    /// Heap bytes of the offsets, rank words, edges and label bitmaps.
    fn heap_bytes(&self) -> usize {
        let bitmaps: usize = self
            .labels
            .iter()
            .map(|stats| std::mem::size_of_val(stats.active.as_blocks()))
            .sum();
        std::mem::size_of_val(&self.offsets[..])
            + std::mem::size_of_val(&self.ranks[..])
            + std::mem::size_of_val(&self.edges[..])
            + bitmaps
    }
}

/// Why [`GraphDb::with_delta`] rejected an edge-delta batch.
///
/// Deltas mutate the **edge set only**: the node set and the alphabet
/// are frozen at [`GraphBuilder::build`] time, so an endpoint or label
/// the graph has never seen requires a full rebuild, not a delta.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeltaError {
    /// An edge endpoint is not a node of this graph.
    NodeOutOfRange {
        /// The offending node id.
        node: NodeId,
        /// Number of nodes in the graph.
        num_nodes: usize,
    },
    /// An edge label is not in this graph's alphabet.
    SymbolOutOfRange {
        /// The offending symbol.
        symbol: Symbol,
        /// Size of the graph's alphabet.
        alphabet_len: usize,
    },
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            DeltaError::NodeOutOfRange { node, num_nodes } => write!(
                f,
                "delta names node {node} but the graph has {num_nodes} nodes \
                 (adding nodes requires a rebuild)"
            ),
            DeltaError::SymbolOutOfRange {
                symbol,
                alphabet_len,
            } => write!(
                f,
                "delta names symbol {} but the alphabet has {alphabet_len} labels \
                 (extending the alphabet requires a rebuild)",
                symbol.index()
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// Pending edge mutations of one `(symbol, direction)` pair, plus the
/// exactly recomputed per-label statistics the step planner reads in
/// place of the frozen ones.
///
/// Invariants (maintained by [`DeltaOverlay`]): `added` lists are
/// sorted, deduplicated, non-empty, and disjoint from the base CSR;
/// `removed` lists are sorted, non-empty subsets of the node's base
/// slice. Cross-batch cancellation (`remove` of an overlay-added edge,
/// `add` of an overlay-removed edge) mutates the overlay back instead
/// of stacking entries, so a fully cancelled symbol reverts to the
/// delta-free fast path.
#[derive(Clone, Debug)]
struct SymDelta {
    /// Overlay-added endpoints per node (targets for the out direction,
    /// sources for the in direction).
    added: HashMap<NodeId, Vec<NodeId>>,
    /// Base endpoints removed per node.
    removed: HashMap<NodeId, Vec<NodeId>>,
    /// Nodes with a non-empty `added` list — the per-node merge gate.
    added_nodes: BitSet,
    /// Nodes with a non-empty `removed` list.
    removed_nodes: BitSet,
    /// The **exact** merged statistics (`active` membership ⇔ ≥ 1
    /// effective edge of the label in this direction) — the delta-aware
    /// replacement of the frozen ones, so the kernels' masks and the cost
    /// model stay sound.
    stats: LabelStats,
}

impl SymDelta {
    fn empty(num_nodes: usize) -> Self {
        SymDelta {
            added: HashMap::new(),
            removed: HashMap::new(),
            added_nodes: BitSet::new(num_nodes),
            removed_nodes: BitSet::new(num_nodes),
            stats: LabelStats::new(BitSet::new(num_nodes), 0),
        }
    }

    fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// The **effective** endpoints of `node` in ascending order — the
    /// base cell minus the removal list, merged with the added list — as
    /// an allocation-free [`MergedNeighbors`] walk. The one overlay merge:
    /// the step kernels, the sparse step and every merged view use it.
    #[inline]
    fn merged<'g>(&'g self, base: &'g [(Symbol, NodeId)], node: NodeId) -> MergedNeighbors<'g> {
        let list = |nodes: &BitSet, lists: &'g HashMap<NodeId, Vec<NodeId>>| -> &'g [NodeId] {
            if nodes.contains(node as usize) {
                &lists[&node]
            } else {
                &[]
            }
        };
        MergedNeighbors {
            base,
            removed: list(&self.removed_nodes, &self.removed),
            added: list(&self.added_nodes, &self.added),
        }
    }
}

/// The effective `sym`-neighbours of one node in ascending order: the
/// base cell minus its removal list, two-pointer merged with its added
/// list. All three are sorted, removals are a subset of the base cell
/// and additions are disjoint from it, so the walk is the compacted
/// graph's cell.
struct MergedNeighbors<'g> {
    base: &'g [(Symbol, NodeId)],
    removed: &'g [NodeId],
    added: &'g [NodeId],
}

impl<'g> MergedNeighbors<'g> {
    /// A cell no delta touches.
    fn base(base: &'g [(Symbol, NodeId)]) -> Self {
        MergedNeighbors {
            base,
            removed: &[],
            added: &[],
        }
    }
}

impl Iterator for MergedNeighbors<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        loop {
            let Some((&(_, kept), rest)) = self.base.split_first() else {
                let (&new, added) = self.added.split_first()?;
                self.added = added;
                return Some(new);
            };
            if let Some((&new, added)) = self.added.split_first() {
                if new < kept {
                    self.added = added;
                    return Some(new);
                }
            }
            self.base = rest;
            match self.removed.split_first() {
                Some((&gone, removed)) if gone == kept => self.removed = removed,
                _ => return Some(kept),
            }
        }
    }
}

/// [`GraphDb::edges_of`]'s walk: `node`'s cell in each label's run of
/// one adjacency, in symbol order, each merged with its label's delta.
struct NodeEdges<'g> {
    adj: &'g Adjacency,
    /// The direction's per-label deltas, `None` on a delta-free graph.
    deltas: Option<&'g [Option<Arc<SymDelta>>]>,
    node: NodeId,
    /// The label whose cell is fetched once `cell` runs dry.
    next_label: usize,
    /// The label of `cell`.
    sym: Symbol,
    cell: MergedNeighbors<'g>,
}

impl Iterator for NodeEdges<'_> {
    type Item = (Symbol, NodeId);

    #[inline]
    fn next(&mut self) -> Option<(Symbol, NodeId)> {
        loop {
            if let Some(endpoint) = self.cell.next() {
                return Some((self.sym, endpoint));
            }
            // Most of a node's cells are empty: skip those on their bit
            // alone (this loop is the whole cost of a walk).
            let (si, base, delta) = loop {
                let si = self.next_label;
                if si == self.adj.labels.len() {
                    return None;
                }
                self.next_label += 1;
                let base = self.adj.cell(self.node, si);
                let delta = self.deltas.and_then(|deltas| deltas[si].as_deref());
                if !base.is_empty() || delta.is_some() {
                    break (si, base, delta);
                }
            };
            self.sym = Symbol::from_index(si);
            self.cell = match delta {
                None => MergedNeighbors::base(base),
                Some(delta) => delta.merged(base, self.node),
            };
        }
    }
}

/// The deltas of one direction, indexed by symbol (`None` = untouched).
/// Each label sits behind its own `Arc`, so cloning an overlay copies
/// `|Σ|` pointers and handles share every label neither has changed
/// since: a write reaches its label through `Arc::make_mut`, which
/// deep-copies it only while another handle still shares it.
type SymDeltas = Vec<Option<Arc<SymDelta>>>;

/// The edge-delta overlay of a [`GraphDb`] handle: per-symbol
/// added/removed edge sets in both directions, applied on top of the
/// shared [`GraphCore`] by the step kernel. Persistent per label
/// (copy-on-write, see [`SymDeltas`]): deriving a handle costs
/// `O(touched labels · |V|/64)`, not the size of the overlay.
#[derive(Clone, Debug)]
struct DeltaOverlay {
    /// The same mutations twice, indexed by `Dir as usize` like
    /// [`GraphCore::adj`]: the in-direction lists mirror the
    /// out-direction ones.
    dirs: [SymDeltas; 2],
    /// Total overlay-added edges (counted once), kept running by
    /// [`DeltaOverlay::add_edge`] / [`DeltaOverlay::remove_edge`].
    added_total: usize,
    /// Total overlay-removed edges, kept running likewise.
    removed_total: usize,
    /// `|V|` — capacity of the per-symbol bitmaps.
    num_nodes: usize,
}

impl DeltaOverlay {
    fn empty(sigma: usize, num_nodes: usize) -> Self {
        DeltaOverlay {
            dirs: [vec![None; sigma], vec![None; sigma]],
            added_total: 0,
            removed_total: 0,
            num_nodes,
        }
    }

    /// `true` iff no edge is added or removed. (A fully cancelled label
    /// reverts to `None` in [`DeltaOverlay::refresh`], so this is also
    /// "every slot is `None`".)
    fn is_empty(&self) -> bool {
        self.added_total + self.removed_total == 0
    }

    /// `true` iff `lists[node]` holds `endpoint`.
    fn list_has(lists: &HashMap<NodeId, Vec<NodeId>>, node: NodeId, endpoint: NodeId) -> bool {
        lists
            .get(&node)
            .is_some_and(|list| list.binary_search(&endpoint).is_ok())
    }

    /// Sorted-insert `endpoint` (absent) into `lists[node]`.
    fn list_insert(lists: &mut HashMap<NodeId, Vec<NodeId>>, node: NodeId, endpoint: NodeId) {
        let list = lists.entry(node).or_default();
        let pos = list
            .binary_search(&endpoint)
            .expect_err("the out-direction list said the edge is absent");
        list.insert(pos, endpoint);
    }

    /// Removes `endpoint` (present) from `lists[node]`, deleting an
    /// emptied list.
    fn list_remove(lists: &mut HashMap<NodeId, Vec<NodeId>>, node: NodeId, endpoint: NodeId) {
        const MIRRORED: &str = "the out-direction list said the edge is present";
        let list = lists.get_mut(&node).expect(MIRRORED);
        let pos = list.binary_search(&endpoint).expect(MIRRORED);
        list.remove(pos);
        if list.is_empty() {
            lists.remove(&node);
        }
    }

    /// The label's delta in one direction, read-only (`None` = untouched).
    fn peek(&self, dir: Dir, si: usize) -> Option<&SymDelta> {
        self.dirs[dir as usize][si].as_deref()
    }

    /// The label's delta in one direction for writing: created empty if
    /// untouched, deep-copied first if another handle shares it.
    fn slot(&mut self, dir: Dir, si: usize) -> &mut SymDelta {
        let num_nodes = self.num_nodes;
        let shared =
            self.dirs[dir as usize][si].get_or_insert_with(|| Arc::new(SymDelta::empty(num_nodes)));
        Arc::make_mut(shared)
    }

    /// Applies one edge removal; `true` iff the overlay changed. Verdict
    /// (mirrored into both direction maps so they always describe the
    /// same edge set): an overlay addition is cancelled; a not-yet-removed
    /// base edge is marked removed; an absent edge is a no-op. The verdict
    /// is read before anything is written, so a no-op copies nothing.
    fn remove_edge(&mut self, sym: Symbol, src: NodeId, dst: NodeId, in_base: bool) -> bool {
        let si = sym.index();
        let out = self.peek(Dir::Out, si);
        if out.is_some_and(|d| Self::list_has(&d.added, src, dst)) {
            Self::list_remove(&mut self.slot(Dir::Out, si).added, src, dst);
            Self::list_remove(&mut self.slot(Dir::In, si).added, dst, src);
            self.added_total -= 1;
        } else if in_base && !out.is_some_and(|d| Self::list_has(&d.removed, src, dst)) {
            Self::list_insert(&mut self.slot(Dir::Out, si).removed, src, dst);
            Self::list_insert(&mut self.slot(Dir::In, si).removed, dst, src);
            self.removed_total += 1;
        } else {
            return false;
        }
        true
    }

    /// Applies one edge addition; `true` iff the overlay changed. An
    /// overlay removal is cancelled (the base edge reappears); an edge
    /// already present (base or overlay) is a no-op; otherwise the edge
    /// joins the overlay-added set.
    fn add_edge(&mut self, sym: Symbol, src: NodeId, dst: NodeId, in_base: bool) -> bool {
        let si = sym.index();
        let out = self.peek(Dir::Out, si);
        if out.is_some_and(|d| Self::list_has(&d.removed, src, dst)) {
            Self::list_remove(&mut self.slot(Dir::Out, si).removed, src, dst);
            Self::list_remove(&mut self.slot(Dir::In, si).removed, dst, src);
            self.removed_total -= 1;
        } else if !in_base && !out.is_some_and(|d| Self::list_has(&d.added, src, dst)) {
            Self::list_insert(&mut self.slot(Dir::Out, si).added, src, dst);
            Self::list_insert(&mut self.slot(Dir::In, si).added, dst, src);
            self.added_total += 1;
        } else {
            return false;
        }
        true
    }

    /// Recomputes the derived state (touched-node bitmaps and the label
    /// statistics) of one direction of a label the batch changed, from
    /// its mutation maps, reverting a fully cancelled direction to
    /// `None` (the delta-free fast path). The change already made the
    /// label unique to this overlay, so `make_mut` copies nothing here.
    fn refresh(&mut self, core: &GraphCore, dir: Dir, si: usize) {
        let slot = &mut self.dirs[dir as usize][si];
        let Some(shared) = slot else {
            return;
        };
        if shared.is_noop() {
            *slot = None;
            return;
        }
        let delta = Arc::make_mut(shared);
        let adj = &core.adj[dir as usize];
        let base = &adj.labels[si];
        let sym = Symbol::from_index(si);
        let mut active = base.active.clone();
        let mut edge_count = base.edge_count;
        delta.added_nodes.clear();
        delta.removed_nodes.clear();
        for (&node, list) in &delta.removed {
            delta.removed_nodes.insert(node as usize);
            edge_count -= list.len() as u64;
            // The removal list is a subset of the node's base slice, so
            // equal lengths mean every base edge is gone.
            if list.len() == adj.neighbors(node, sym).len() {
                active.remove(node as usize);
            }
        }
        for (&node, list) in &delta.added {
            delta.added_nodes.insert(node as usize);
            edge_count += list.len() as u64;
            active.insert(node as usize);
        }
        delta.stats = LabelStats::new(active, edge_count);
    }
}

impl GraphDb {
    /// **The** constructor — the only place an edge list becomes a
    /// graph, shared by [`GraphBuilder::build`], the snapshot decoder
    /// and [`GraphDb::compact`]. `edges` must be sorted by
    /// `(src, symbol, dst)` and deduplicated, with every id in range:
    /// each direction's adjacency is one counting sort of that list (see
    /// `Adjacency::from_sorted`), neither needs a re-sort.
    fn from_sorted_edges(
        alphabet: Alphabet,
        node_names: Vec<String>,
        name_index: HashMap<String, NodeId>,
        edges: Vec<(NodeId, Symbol, NodeId)>,
    ) -> GraphDb {
        debug_assert!(edges.windows(2).all(|pair| pair[0] < pair[1]));
        let (n, sigma) = (node_names.len(), alphabet.len());
        let adj = Dir::BOTH.map(|dir| Adjacency::from_sorted(&edges, dir, n, sigma));
        GraphDb {
            core: Arc::new(GraphCore {
                alphabet,
                no_label_nodes: BitSet::new(n),
                node_names,
                name_index,
                adj,
            }),
            delta: None,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.core.node_names.len()
    }

    /// Number of edges, **including** any pending delta overlay
    /// (`base − removed + added`).
    pub fn num_edges(&self) -> usize {
        let base = self.adj(Dir::Out).edges.len();
        match self.delta.as_deref() {
            Some(delta) => base - delta.removed_total + delta.added_total,
            None => base,
        }
    }

    /// The edge-label alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.core.alphabet
    }

    /// Name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.core.node_names[node as usize]
    }

    /// Looks up a node by name.
    pub fn node_id(&self, name: &str) -> Option<NodeId> {
        self.core.name_index.get(name).copied()
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.num_nodes() as NodeId
    }

    /// The base adjacency of one direction — the data pointer a [`Dir`]
    /// argument resolves to, once per call.
    #[inline]
    fn adj(&self, dir: Dir) -> &Adjacency {
        &self.core.adj[dir as usize]
    }

    /// The pending delta of `sym` in one direction, if any — the
    /// once-per-call overlay branch of the step kernel.
    #[inline]
    fn sym_delta(&self, dir: Dir, sym: Symbol) -> Option<&SymDelta> {
        self.delta.as_ref()?.dirs[dir as usize]
            .get(sym.index())?
            .as_deref()
    }

    /// The statistics the planner reads for `sym` in one direction: the
    /// delta's recomputed ones for a touched label, the frozen ones
    /// otherwise, `None` for an out-of-alphabet symbol.
    #[inline]
    fn label_stats(&self, dir: Dir, sym: Symbol) -> Option<&LabelStats> {
        match self.sym_delta(dir, sym) {
            Some(delta) => Some(&delta.stats),
            None => self.adj(dir).labels.get(sym.index()),
        }
    }

    /// The `sym`-neighbours of `node` in the **base CSR** as the
    /// `(label, endpoint)` sub-slice, sorted by endpoint: targets of
    /// `node`'s out-edges for [`Dir::Out`], sources of its in-edges for
    /// [`Dir::In`]. A bit test in `sym`'s active bitmap, then a rank
    /// word, a popcount and two offset reads; empty for an
    /// out-of-alphabet symbol or a node without `sym`-edges. A borrowed
    /// slice cannot splice the delta overlay in — overlay-aware
    /// consumers use [`GraphDb::for_each_neighbor`].
    #[inline]
    pub fn neighbors(&self, dir: Dir, node: NodeId, sym: Symbol) -> &[(Symbol, NodeId)] {
        self.adj(dir).neighbors(node, sym)
    }

    /// `sym`-successors of `node` in the base CSR — shorthand for
    /// [`GraphDb::neighbors`] along [`Dir::Out`].
    #[inline]
    pub fn successors(&self, node: NodeId, sym: Symbol) -> &[(Symbol, NodeId)] {
        self.neighbors(Dir::Out, node, sym)
    }

    /// Visits every **effective** `sym`-neighbour of `node` in ascending
    /// order — the base slice with the delta overlay merged in (removed
    /// endpoints skipped, added ones in place), so the visit is the
    /// compacted graph's. On a delta-free graph this is exactly a walk
    /// of [`GraphDb::neighbors`].
    #[inline]
    pub fn for_each_neighbor(
        &self,
        dir: Dir,
        node: NodeId,
        sym: Symbol,
        mut visit: impl FnMut(NodeId),
    ) {
        let base = self.neighbors(dir, node, sym);
        match self.sym_delta(dir, sym) {
            None => base.iter().for_each(|&(_, endpoint)| visit(endpoint)),
            Some(delta) => delta.merged(base, node).for_each(visit),
        }
    }

    /// The **effective** edges of `node` in one direction, overlay
    /// included, as `(label, endpoint)` pairs sorted by both. The walk
    /// tests `node`'s bit in every label's bitmap, in symbol order, ranks
    /// the cells it finds, and allocates nothing — overlay-touched nodes
    /// included. Callers that want one label should ask for it
    /// ([`GraphDb::for_each_neighbor`]): that is one bit test, this is
    /// `|Σ|`.
    pub fn edges_of(&self, dir: Dir, node: NodeId) -> impl Iterator<Item = (Symbol, NodeId)> + '_ {
        self.adj(dir).check_node(node);
        NodeEdges {
            adj: self.adj(dir),
            deltas: self
                .delta
                .as_deref()
                .map(|overlay| &overlay.dirs[dir as usize][..]),
            node,
            next_label: 0,
            sym: Symbol::from_index(0),
            cell: MergedNeighbors::base(&[]),
        }
    }

    /// Number of edges of `node` in one direction (out-degree for
    /// [`Dir::Out`], in-degree for [`Dir::In`]), delta overlay included:
    /// the cell lengths of `node` across every label's run.
    pub fn degree(&self, dir: Dir, node: NodeId) -> usize {
        let mut degree = self.adj(dir).degree(node);
        if let Some(overlay) = self.delta.as_deref() {
            for delta in overlay.dirs[dir as usize].iter().flatten() {
                if delta.added_nodes.contains(node as usize) {
                    degree += delta.added[&node].len();
                }
                if delta.removed_nodes.contains(node as usize) {
                    degree -= delta.removed[&node].len();
                }
            }
        }
        degree
    }

    /// Nodes with at least one `sym`-labeled edge in direction `dir`
    /// (an outgoing one for [`Dir::Out`], an incoming one for
    /// [`Dir::In`]), as a `|V|`-capacity bitmap, delta overlay included.
    /// A frontier step ([`GraphDb::step_into`]) can only produce output
    /// from frontier nodes in this set, so evaluators skip any symbol
    /// whose frontier∩`label_active` intersection is empty — one
    /// word-level AND scan instead of a full edge-slice walk.
    /// Out-of-alphabet symbols yield the (correctly empty) all-zeros set.
    ///
    /// ```
    /// use pathlearn_graph::graph::{figure3_g0, Dir};
    ///
    /// let graph = figure3_g0();
    /// let c = graph.alphabet().symbol("c").unwrap();
    /// // v3 is the only node with an outgoing c-edge in G0, v4 the only
    /// // one with an incoming c-edge.
    /// let v3 = graph.node_id("v3").unwrap() as usize;
    /// let v4 = graph.node_id("v4").unwrap() as usize;
    /// assert_eq!(graph.label_active(Dir::Out, c).iter().collect::<Vec<_>>(), [v3]);
    /// assert_eq!(graph.label_active(Dir::In, c).iter().collect::<Vec<_>>(), [v4]);
    /// ```
    #[inline]
    pub fn label_active(&self, dir: Dir, sym: Symbol) -> &BitSet {
        self.label_stats(dir, sym)
            .map_or(&self.core.no_label_nodes, |stats| &stats.active)
    }

    /// `|label_active(dir, sym)|`, precomputed (0 for out-of-alphabet
    /// symbols). The cost model uses it to shortcut labels active on
    /// **every** node, where a mask provably cannot skip anything.
    #[inline]
    pub fn label_active_count(&self, dir: Dir, sym: Symbol) -> usize {
        self.label_stats(dir, sym)
            .map_or(0, |stats| stats.active_count as usize)
    }

    /// Average number of `sym`-edges per **active** node of the label in
    /// direction `dir` (`sym`-edges / `|label_active(dir, sym)|`; 0.0 for
    /// dead or out-of-alphabet symbols) — the degree weight of the step
    /// cost model, exposed at float precision for the planner's
    /// estimates, tests and diagnostics. Internally the model uses the
    /// ×16 fixed-point form, so values are quantized to sixteenths.
    pub fn label_avg_degree(&self, dir: Dir, sym: Symbol) -> f64 {
        let x16 = self
            .label_stats(dir, sym)
            .map_or(0, |stats| stats.avg_deg_x16);
        x16 as f64 / AVG_DEG_FP as f64
    }

    /// Heap bytes of the frozen CSR this handle shares with every delta
    /// handle derived from the same build: both directions' offsets,
    /// rank words, edges and label bitmaps. Names, the alphabet and any
    /// delta overlay are not counted.
    pub fn heap_bytes(&self) -> usize {
        let core = &*self.core;
        core.adj.iter().map(Adjacency::heap_bytes).sum::<usize>()
            + std::mem::size_of_val(core.no_label_nodes.as_blocks())
    }

    /// Heap bytes one monadic/binary **result bitset** on this graph
    /// occupies (`|V|` bits rounded up to `u64` words) — the unit the
    /// serving layer's result cache accounts memory in.
    pub fn result_bytes(&self) -> usize {
        self.num_node_words() * std::mem::size_of::<u64>()
    }

    /// Number of `u64` words a `|V|`-capacity frontier occupies — the
    /// unit of the step kernel's word scans.
    #[inline]
    pub fn num_node_words(&self) -> usize {
        self.num_nodes().div_ceil(BitSet::BLOCK_BITS)
    }

    /// Plans one step of `frontier` over `sym` in direction `dir` under
    /// `policy` (see [`StepPlan`]; [`GraphDb::step_into`] executes
    /// the verdict). `frontier_len` is the frontier's
    /// popcount; the caller computes it once per `(level, state)` and
    /// amortizes it over every symbol of the level (it is only read by
    /// [`StepPolicy::Auto`], pass 0 otherwise).
    ///
    /// Under [`StepPolicy::Auto`], an out-of-alphabet or edgeless label
    /// skips at once, and a frontier of a few nodes — priced by
    /// `frontier_len` and the label's average degree alone, before any
    /// scan — is [`StepPlan::Sparse`]: every binary evaluation's first
    /// level, seeded with one node. The gate is **degree-weighted**: it
    /// prices each frontier node at the cost of finding its cell plus
    /// the label's average degree (label edges / active nodes) in
    /// endpoint test-and-sets, against one pass over the frontier's
    /// words:
    ///
    /// ```text
    /// frontier · (node cost + avg label degree)  ≤  frontier words · word cost
    /// ```
    ///
    /// — at average degree 2, up to `|V|/256` nodes; a heavy label stays
    /// dense on the same frontier. Otherwise one fused AND+popcount scan
    /// ([`BitSet::intersection_len`]) against [`GraphDb::label_active`]
    /// prices the step: an empty intersection skips it outright, and one
    /// that is the whole active set ([`GraphDb::label_active_count`])
    /// makes it [`StepPlan::Covered`] — every `sym`-edge in direction
    /// `dir` starts in the frontier, so the answer is the label's
    /// opposite-direction bitmap, exact under a delta overlay too. This
    /// is every monadic evaluation's first level, whose frontier is all
    /// of `V`. Anything else is walked by the dense kernel,
    /// [`StepPlan::Plain`]. Labels active on all `|V|` nodes shortcut
    /// without scanning — the precomputed count proves the intersection
    /// is the frontier — to `Covered` for a full frontier and `Plain`
    /// otherwise. The plan is a pure execution strategy: results are
    /// bit-identical whichever verdict is executed (differential suite).
    ///
    /// ```
    /// use pathlearn_graph::graph::{figure3_g0, Dir, StepPlan, StepPolicy};
    /// use pathlearn_automata::BitSet;
    ///
    /// let graph = figure3_g0();
    /// let c = graph.alphabet().symbol("c").unwrap();
    /// let all = BitSet::full(graph.num_nodes());
    /// // A monadic first level: every in-c-edge ends in the frontier, so
    /// // the step over in-edges is exactly the nodes with an out-c-edge.
    /// let plan = graph.plan_step(Dir::In, &all, c, all.len(), StepPolicy::Auto);
    /// assert_eq!(plan, StepPlan::Covered);
    /// assert_eq!(&graph.step(Dir::In, &all, c), graph.label_active(Dir::Out, c));
    /// ```
    #[inline]
    pub fn plan_step(
        &self,
        dir: Dir,
        frontier: &BitSet,
        sym: Symbol,
        frontier_len: usize,
        policy: StepPolicy,
    ) -> StepPlan {
        match policy {
            StepPolicy::Plain => StepPlan::Plain,
            StepPolicy::Auto => {
                let Some(stats) = self.label_stats(dir, sym) else {
                    return StepPlan::Skip;
                };
                if stats.active_count == 0 {
                    return StepPlan::Skip;
                }
                let sparse_x16 = frontier_len as u64 * (NODE_COST_X16 + stats.avg_deg_x16 as u64);
                if sparse_x16 <= self.num_node_words() as u64 * SPARSE_WORD_COST_X16 {
                    return StepPlan::Sparse;
                }
                let active = stats.active_count as usize;
                if active >= self.num_nodes() {
                    return if frontier_len >= self.num_nodes() {
                        StepPlan::Covered
                    } else {
                        StepPlan::Plain
                    };
                }
                match frontier.intersection_len(&stats.active) {
                    0 => StepPlan::Skip,
                    inter if inter == active => StepPlan::Covered,
                    _ => StepPlan::Plain,
                }
            }
        }
    }

    /// One frontier step on a freshly allocated set: the `sym`-neighbours
    /// in direction `dir` of every node in `frontier`. Prefer
    /// [`GraphDb::step_into`] with a reused scratch buffer in hot loops.
    pub fn step(&self, dir: Dir, frontier: &BitSet, sym: Symbol) -> BitSet {
        let mut out = BitSet::new(self.num_nodes());
        self.step_into(dir, StepPlan::Plain, frontier, sym, &mut out);
        out
    }

    /// **The** frontier step kernel, allocation-free: clears `out`, then
    /// inserts into it the `sym`-neighbours in direction `dir` of every
    /// frontier node, executing `plan`. `out` must have capacity
    /// `num_nodes()`.
    ///
    /// The dense kernel, [`StepPlan::Plain`], walks the frontier word by
    /// word: it ANDs each frontier word with the matching word of
    /// `label_active(dir, sym)` — nodes outside it have no `sym`-edges in
    /// this direction and contribute nothing — and ranks each surviving
    /// node's cell with a popcount in the label word it just read. Nodes
    /// arrive in ascending order, so the kernel is one forward pass over
    /// `sym`'s rank words, offsets and edges. The two verdicts about the
    /// frontier read no edge: [`StepPlan::Skip`] adds nothing, and
    /// [`StepPlan::Covered`] copies the whole answer
    /// `label_active(dir.reverse(), sym)`. [`StepPlan::Sparse`] runs
    /// [`GraphDb::step_visit`] with an insert into `out` as its visitor;
    /// the level kernel passes its merge instead.
    ///
    /// ```
    /// use pathlearn_graph::graph::{figure3_g0, Dir, StepPlan};
    /// use pathlearn_automata::BitSet;
    ///
    /// let graph = figure3_g0();
    /// let a = graph.alphabet().symbol("a").unwrap();
    /// let v1 = graph.node_id("v1").unwrap() as usize;
    /// let frontier = BitSet::from_indices(graph.num_nodes(), [v1]);
    /// let mut out = BitSet::new(graph.num_nodes());
    /// graph.step_into(Dir::Out, StepPlan::Plain, &frontier, a, &mut out);
    /// // v1 --a--> v2 is the only a-edge out of v1.
    /// assert_eq!(out.len(), 1);
    /// assert!(out.contains(graph.node_id("v2").unwrap() as usize));
    ///
    /// let c = graph.alphabet().symbol("c").unwrap();
    /// let frontier = BitSet::full(graph.num_nodes());
    /// let (mut walked, mut sparse) = (BitSet::new(7), BitSet::new(7));
    /// graph.step_into(Dir::Out, StepPlan::Plain, &frontier, c, &mut walked);
    /// graph.step_into(Dir::Out, StepPlan::Sparse, &frontier, c, &mut sparse);
    /// assert_eq!(walked, sparse); // only v3 has a c-edge to walk
    /// ```
    pub fn step_into(
        &self,
        dir: Dir,
        plan: StepPlan,
        frontier: &BitSet,
        sym: Symbol,
        out: &mut BitSet,
    ) {
        debug_assert_eq!(out.capacity(), self.num_nodes(), "scratch capacity");
        out.clear();
        match plan {
            StepPlan::Skip => {
                debug_assert_eq!(frontier.intersection_len(self.label_active(dir, sym)), 0);
            }
            StepPlan::Covered => {
                debug_assert_eq!(
                    frontier.intersection_len(self.label_active(dir, sym)),
                    self.label_active_count(dir, sym),
                    "a covered step's frontier holds the whole active set"
                );
                out.union_with(self.label_active(dir.reverse(), sym));
            }
            StepPlan::Sparse => {
                self.step_visit(dir, frontier, sym, |endpoint| {
                    out.insert(endpoint as usize);
                });
            }
            StepPlan::Plain => self.step_words(dir, frontier, sym, out),
        }
    }

    /// The [`StepPlan::Sparse`] kernel: calls `visit` on every effective
    /// `sym`-neighbour in direction `dir` (overlay merged, as
    /// [`GraphDb::for_each_neighbor`] visits them) of every frontier node
    /// that has such an edge, and reports whether any frontier node did —
    /// `false` exactly when the step is the empty one [`StepPlan::Skip`]
    /// drops. Frontier nodes arrive in ascending order; an endpoint
    /// shared by several of them is visited once per edge. Apart from
    /// the frontier's words it reads one label word per non-empty
    /// frontier word and one rank and offset pair per frontier node with
    /// an edge, nothing of size `|V|`, so the level kernel, which
    /// test-and-sets each endpoint into its reached and next-frontier
    /// sets from here, pays no `|V|`-word pass for a frontier of a few
    /// nodes.
    pub fn step_visit(
        &self,
        dir: Dir,
        frontier: &BitSet,
        sym: Symbol,
        mut visit: impl FnMut(NodeId),
    ) -> bool {
        debug_assert_eq!(frontier.capacity(), self.num_nodes(), "frontier capacity");
        let Some(run) = self.adj(dir).run(sym.index()) else {
            return false;
        };
        let delta = self.sym_delta(dir, sym);
        // The delta's exact merged bitmap, so an overlay-added edge is
        // never masked out.
        let mask = self.label_active(dir, sym).as_blocks();
        let words = frontier.as_blocks();
        let mut productive = false;
        let mut word = 0;
        while let Some(skipped) = first_set_word(&words[word..]) {
            word += skipped;
            let bits = words[word] & mask[word];
            productive |= bits != 0;
            run.visit_word(word, bits, |node, base| match delta {
                None => base.iter().for_each(|&(_, endpoint)| visit(endpoint)),
                Some(delta) => delta.merged(base, node).for_each(&mut visit),
            });
            word += 1;
        }
        productive
    }

    /// [`GraphDb::step_visit`] of the frontier that `nodes` lists
    /// (distinct ids, in any order), visited in list order. The
    /// frontier's words are never read: a node costs one label word, and
    /// a rank and offset pair if it has an edge, so a step of a few
    /// listed nodes touches nothing of size `|V|`.
    pub fn step_visit_nodes(
        &self,
        dir: Dir,
        nodes: &[NodeId],
        sym: Symbol,
        mut visit: impl FnMut(NodeId),
    ) -> bool {
        let Some(run) = self.adj(dir).run(sym.index()) else {
            return false;
        };
        let delta = self.sym_delta(dir, sym);
        let mask = self.label_active(dir, sym).as_blocks();
        let mut productive = false;
        for &node in nodes {
            let (word, bit) = word_and_bit(node as usize);
            let bits = mask[word] & 1 << bit;
            productive |= bits != 0;
            run.visit_word(word, bits, |node, base| match delta {
                None => base.iter().for_each(|&(_, endpoint)| visit(endpoint)),
                Some(delta) => delta.merged(base, node).for_each(&mut visit),
            });
        }
        productive
    }

    /// The dense kernel behind [`GraphDb::step_into`]: walks
    /// `frontier ∩ label_active(dir, sym)` word by word. "Does a delta
    /// touch `sym`" selects, once per call, one of two word loops; the
    /// overlay loop masks with the delta's merged bitmap and merges each
    /// node's base cell — empty for an overlay-only node — with its
    /// delta lists.
    fn step_words(&self, dir: Dir, frontier: &BitSet, sym: Symbol, out: &mut BitSet) {
        debug_assert_eq!(frontier.capacity(), self.num_nodes(), "frontier capacity");
        let Some(run) = self.adj(dir).run(sym.index()) else {
            return;
        };
        let words = frontier.as_blocks();
        match self.sym_delta(dir, sym) {
            None => {
                // Local slices: `out`'s stores would otherwise make every
                // node reload them through the shared core.
                let adj = run.adj;
                let (ranks, offsets, edges) = (&adj.ranks[..], &adj.offsets[..], &adj.edges[..]);
                for (word, (&block, &label_word)) in words.iter().zip(run.active).enumerate() {
                    let mut bits = block & label_word;
                    if bits == 0 {
                        continue;
                    }
                    let rank_word = ranks[run.rank_base + word];
                    while bits != 0 {
                        let cell = rank(rank_word, label_word, bits.trailing_zeros());
                        bits &= bits - 1;
                        let span = offsets[cell] as usize..offsets[cell + 1] as usize;
                        for &(_, endpoint) in &edges[span] {
                            out.insert(endpoint as usize);
                        }
                    }
                }
            }
            Some(delta) => {
                let mask = delta.stats.active.as_blocks();
                for (word, (&block, &merged)) in words.iter().zip(mask).enumerate() {
                    run.visit_word(word, block & merged, |node, base| {
                        for endpoint in delta.merged(base, node) {
                            out.insert(endpoint as usize);
                        }
                    });
                }
            }
        }
    }

    /// One forward simulation step on a **sparse** node set (sorted,
    /// deduplicated ids): clears `out`, then writes the sorted,
    /// deduplicated `sym`-successors of `set` into it. Much cheaper than
    /// a frontier step when the set is tiny relative to the graph — the
    /// common case for the positive side of SCP searches, which start
    /// from a single node — and reusing `out` across calls keeps the
    /// search's per-expansion cost free of heap traffic (the buffer only
    /// grows, never reallocates at steady state). Each node costs one
    /// bit test in the label's bitmap, and one rank if the bit is set.
    pub fn step_sparse_into(&self, set: &[NodeId], sym: Symbol, out: &mut Vec<NodeId>) {
        out.clear();
        let Some(run) = self.adj(Dir::Out).run(sym.index()) else {
            return;
        };
        match self.sym_delta(Dir::Out, sym) {
            None => {
                for &node in set {
                    out.extend(run.cell(node as usize).iter().map(|&(_, t)| t));
                }
            }
            Some(delta) => {
                // The merged bitmap admits overlay-only nodes, whose base
                // cell is empty.
                let active = &delta.stats.active;
                for &node in set.iter().filter(|&&node| active.contains(node as usize)) {
                    out.extend(delta.merged(run.cell(node as usize), node));
                }
            }
        }
        // One node's cell is sorted and distinct already: the SCP search
        // steps single nodes millions of times per session.
        if set.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }

    /// Iterates over all **effective** edges as `(src, label, dst)` —
    /// delta overlay included, in `(src, label, dst)` order. Lazy, one
    /// block of sources at a time: a source's cells lie in `|Σ|` label
    /// runs, so the block's [`GraphDb::edges_of`] walks are gathered into
    /// one buffer before any edge is handed out — each fetched line of
    /// every run's bitmap, rank words and offsets serves many consecutive
    /// sources, whatever the consumer does with the edges in between.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Symbol, NodeId)> + '_ {
        const BLOCK: usize = 1024;
        let n = self.num_nodes() as NodeId;
        (0..n).step_by(BLOCK).flat_map(move |first| {
            let block = first..first.saturating_add(BLOCK as NodeId).min(n);
            let edges = block.flat_map(|src| {
                self.edges_of(Dir::Out, src)
                    .map(move |(sym, dst)| (src, sym, dst))
            });
            edges.collect::<Vec<_>>()
        })
    }

    /// `true` iff this handle carries a pending edge-delta overlay.
    pub fn has_delta(&self) -> bool {
        self.delta.is_some()
    }

    /// Size of the pending overlay in edges (`added + removed`, after
    /// cancellation) — the quantity the serving layer compares against
    /// its compaction threshold. 0 for a delta-free graph.
    pub fn delta_edges(&self) -> usize {
        self.delta
            .as_deref()
            .map_or(0, |d| d.added_total + d.removed_total)
    }

    /// `true` iff `src --sym--> dst` is an edge of the **base CSR**
    /// (ignoring the overlay) — one binary search within the node's
    /// label partition.
    fn base_has_edge(&self, src: NodeId, sym: Symbol, dst: NodeId) -> bool {
        self.successors(src, sym)
            .binary_search_by_key(&dst, |&(_, t)| t)
            .is_ok()
    }

    /// The validation [`GraphDb::with_delta`] applies before touching
    /// anything: every endpoint must be a node of this graph and every
    /// label a symbol of its alphabet (both are frozen, see
    /// [`DeltaError`]). Removals are checked first.
    fn check_delta(
        &self,
        add: &[(NodeId, Symbol, NodeId)],
        remove: &[(NodeId, Symbol, NodeId)],
    ) -> Result<(), DeltaError> {
        let num_nodes = self.num_nodes();
        let alphabet_len = self.core.alphabet.len();
        for &(src, symbol, dst) in remove.iter().chain(add) {
            for node in [src, dst] {
                if node as usize >= num_nodes {
                    return Err(DeltaError::NodeOutOfRange { node, num_nodes });
                }
            }
            if symbol.index() >= alphabet_len {
                return Err(DeltaError::SymbolOutOfRange {
                    symbol,
                    alphabet_len,
                });
            }
        }
        Ok(())
    }

    /// Returns a new handle over the same frozen CSR with `remove` taken
    /// out and then `add` put in (`(G ∖ remove) ∪ add` — an edge in both
    /// lists ends up **present**). Deltas are total and no-op tolerant:
    /// removing an absent edge or adding a present one does nothing, and
    /// opposite mutations cancel, so a fully cancelled overlay returns a
    /// delta-free handle. Only unknown endpoints or labels fail, checked
    /// before anything is copied: the node set and the alphabet are
    /// frozen (see [`DeltaError`]).
    ///
    /// The receiver is untouched (handles are snapshots), and stacking is
    /// supported: applying a delta to an overlay graph folds the batches
    /// together. The CSR is shared structurally and so is the overlay,
    /// one label at a time: the new handle deep-copies only the labels
    /// the batch changes and shares every other one with the receiver,
    /// so a batch costs `O(batch + touched labels · |V|/64)` however
    /// large the pending overlay has grown.
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    ///
    /// let g0 = figure3_g0();
    /// let c = g0.alphabet().symbol("c").unwrap();
    /// let (v2, v4) = (g0.node_id("v2").unwrap(), g0.node_id("v4").unwrap());
    /// let patched = g0.with_delta(&[(v2, c, v4)], &[]).unwrap();
    /// assert_eq!(patched.num_edges(), g0.num_edges() + 1);
    /// assert!(patched.has_delta());
    /// // Undoing the addition cancels the overlay entirely.
    /// let undone = patched.with_delta(&[], &[(v2, c, v4)]).unwrap();
    /// assert!(!undone.has_delta());
    /// ```
    pub fn with_delta(
        &self,
        add: &[(NodeId, Symbol, NodeId)],
        remove: &[(NodeId, Symbol, NodeId)],
    ) -> Result<GraphDb, DeltaError> {
        self.check_delta(add, remove)?;
        Ok(self.clone().apply_delta(add, remove))
    }

    /// [`GraphDb::with_delta`] on an owned, validated handle. Cloning a
    /// handle shares its labels, so `with_delta` copies each label the
    /// batch changes once; a label this handle holds alone is patched in
    /// place.
    fn apply_delta(
        mut self,
        add: &[(NodeId, Symbol, NodeId)],
        remove: &[(NodeId, Symbol, NodeId)],
    ) -> GraphDb {
        let sigma = self.core.alphabet.len();
        let mut overlay = self
            .delta
            .take()
            .unwrap_or_else(|| Box::new(DeltaOverlay::empty(sigma, self.num_nodes())));
        let mut changed = vec![false; sigma];
        // Removals strictly before additions: `(G ∖ remove) ∪ add`.
        for &(src, sym, dst) in remove {
            changed[sym.index()] |=
                overlay.remove_edge(sym, src, dst, self.base_has_edge(src, sym, dst));
        }
        for &(src, sym, dst) in add {
            changed[sym.index()] |=
                overlay.add_edge(sym, src, dst, self.base_has_edge(src, sym, dst));
        }
        for (si, &was_changed) in changed.iter().enumerate() {
            if was_changed {
                for dir in Dir::BOTH {
                    overlay.refresh(&self.core, dir, si);
                }
            }
        }
        self.delta = (!overlay.is_empty()).then_some(overlay);
        self
    }

    /// Folds the delta overlay into a fresh CSR, **preserving node ids
    /// and the alphabet** — result bitsets and interned symbols from the
    /// overlay graph remain valid on the compacted one. The names and
    /// the alphabet are cloned as they are (nothing is re-interned); the
    /// effective edge list is already in the constructor's order. A
    /// delta-free graph compacts to a (cheap, structurally shared) clone
    /// of itself.
    pub fn compact(&self) -> GraphDb {
        if self.delta.is_none() {
            return self.clone();
        }
        let core = &*self.core;
        GraphDb::from_sorted_edges(
            core.alphabet.clone(),
            core.node_names.clone(),
            core.name_index.clone(),
            self.edges().collect(),
        )
    }
}

/// Incremental builder for [`GraphDb`].
///
/// Nodes can be referenced by name (created on first use) or pre-allocated
/// with [`GraphBuilder::add_node`]; labels are interned in first-use order
/// unless the builder is seeded with [`GraphBuilder::with_alphabet`]
/// (sorted alphabets give the paper's `a < b < c` canonical order).
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    alphabet: Alphabet,
    node_names: Vec<String>,
    name_index: HashMap<String, NodeId>,
    edges: Vec<(NodeId, Symbol, NodeId)>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with a pre-interned alphabet (fixes symbol order).
    pub fn with_alphabet(alphabet: Alphabet) -> Self {
        GraphBuilder {
            alphabet,
            ..Self::default()
        }
    }

    /// Returns the node id for `name`, creating the node if needed.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.name_index.get(name) {
            return id;
        }
        let id = self.node_names.len() as NodeId;
        self.node_names.push(name.to_owned());
        self.name_index.insert(name.to_owned(), id);
        id
    }

    /// Adds `count` anonymous nodes named after their **node ids**
    /// (`prefix{first}` through `prefix{first + count - 1}`, which is
    /// `prefix0..` only when the builder is empty); returns the id of the
    /// first. Id-based naming keeps names collision-free across repeated
    /// calls with the same prefix.
    ///
    /// Unlike [`GraphBuilder::add_node`], this bulk-reserves both the
    /// name table and the name index and pushes directly — no per-node
    /// re-probe of the index.
    pub fn add_nodes(&mut self, prefix: &str, count: usize) -> NodeId {
        let first = self.node_names.len() as NodeId;
        self.node_names.reserve(count);
        self.name_index.reserve(count);
        for id in first as usize..first as usize + count {
            let name = format!("{prefix}{id}");
            if self.name_index.insert(name.clone(), id as NodeId).is_some() {
                panic!("bulk node name {name} collides with an existing node");
            }
            self.node_names.push(name);
        }
        first
    }

    /// Adds an edge by node names and label string.
    pub fn add_edge(&mut self, src: &str, label: &str, dst: &str) -> &mut Self {
        let s = self.add_node(src);
        let d = self.add_node(dst);
        let sym = self.alphabet.intern(label);
        self.edges.push((s, sym, d));
        self
    }

    /// Adds an edge by pre-allocated ids and an interned symbol.
    pub fn add_edge_ids(&mut self, src: NodeId, sym: Symbol, dst: NodeId) -> &mut Self {
        debug_assert!((src as usize) < self.node_names.len());
        debug_assert!((dst as usize) < self.node_names.len());
        debug_assert!(sym.index() < self.alphabet.len());
        self.edges.push((src, sym, dst));
        self
    }

    /// Interns a label in the builder's alphabet.
    pub fn intern(&mut self, label: &str) -> Symbol {
        self.alphabet.intern(label)
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Finalizes the graph: sorts and deduplicates the edges and freezes
    /// them once per direction into the label-partitioned layout (one
    /// sort, one counting pass and one prefix sum each).
    pub fn build(self) -> GraphDb {
        let mut edges = self.edges;
        edges.sort_unstable();
        edges.dedup();
        GraphDb::from_sorted_edges(self.alphabet, self.node_names, self.name_index, edges)
    }
}

/// Builds the graph `G0` of Figure 3 of the paper (7 nodes, 15 edges over
/// `{a, b, c}`). Used pervasively by tests and documentation examples.
///
/// The published figure is not machine-readable in the available text, so
/// this is a **reconstruction from the paper's stated properties**, all of
/// which are asserted by tests in this workspace:
///
/// * `aba` matches the node sequences `ν1ν2ν3ν4` and `ν3ν2ν3ν4` but not
///   `ν1ν2ν7ν2` (§2);
/// * `paths(ν1)` is infinite (§2);
/// * query `a` selects every node except `ν4`; query `(a·b)*·c` selects
///   exactly `{ν1, ν3}`; query `b·b·c·c` selects nothing (§2);
/// * with `S⁺ = {ν1, ν3}`, `S⁻ = {ν2, ν7}` the SCPs are `abc` and `c`, the
///   merge of PTA states `ε`/`a` is blocked by the path `bc` covered by
///   `ν2`, and the learner outputs `(a·b)*·c` (§3.2);
/// * that sample is *characteristic* for `(a·b)*·c` on `G0` (§3.3): every
///   word needed by the RPNI view is covered by the two negative nodes.
pub fn figure3_g0() -> GraphDb {
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
    for (src, label, dst) in [
        ("v1", "a", "v2"),
        ("v1", "b", "v7"),
        ("v2", "a", "v3"),
        ("v2", "b", "v3"),
        ("v3", "a", "v2"),
        ("v3", "a", "v3"),
        ("v3", "a", "v4"),
        ("v3", "c", "v4"),
        ("v5", "a", "v4"),
        ("v5", "b", "v4"),
        ("v6", "a", "v5"),
        ("v6", "a", "v4"),
        ("v6", "b", "v7"),
        ("v7", "a", "v6"),
        ("v7", "b", "v5"),
    ] {
        builder.add_edge(src, label, dst);
    }
    let graph = builder.build();
    debug_assert_eq!(graph.num_nodes(), 7);
    debug_assert_eq!(graph.num_edges(), 15);
    graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_nodes_and_labels() {
        let mut builder = GraphBuilder::new();
        builder.add_edge("x", "a", "y");
        builder.add_edge("y", "b", "x");
        builder.add_edge("x", "a", "y"); // duplicate
        let graph = builder.build();
        assert_eq!(graph.num_nodes(), 2);
        assert_eq!(graph.num_edges(), 2); // deduplicated
        assert_eq!(graph.node_name(graph.node_id("x").unwrap()), "x");
        assert!(graph.alphabet().symbol("a").is_some());
        assert!(graph.node_id("z").is_none());
    }

    #[test]
    fn adjacency_is_sorted_and_sliced() {
        let graph = figure3_g0();
        let v3 = graph.node_id("v3").unwrap();
        let a = graph.alphabet().symbol("a").unwrap();
        let b = graph.alphabet().symbol("b").unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        let out: Vec<_> = graph.edges_of(Dir::Out, v3).collect();
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(graph.successors(v3, a).len(), 3); // → v2, v3, v4
        assert_eq!(graph.successors(v3, b).len(), 0);
        assert_eq!(graph.successors(v3, c).len(), 1); // → v4
        let v4 = graph.node_id("v4").unwrap();
        // v4 in-edges: a from v3/v5/v6, b from v5, c from v3.
        assert_eq!(graph.edges_of(Dir::In, v4).count(), 5);
        assert_eq!(graph.neighbors(Dir::In, v4, c).len(), 1);
        assert_eq!(graph.neighbors(Dir::In, v4, b).len(), 1);
        assert_eq!(graph.degree(Dir::Out, v4), 0);
        assert_eq!(graph.degree(Dir::In, v4), 5);
    }

    #[test]
    fn step_follows_labels() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let a = graph.alphabet().symbol("a").unwrap();
        let b = graph.alphabet().symbol("b").unwrap();
        let start = BitSet::from_indices(graph.num_nodes(), [v1 as usize]);
        let after_a = graph.step(Dir::Out, &start, a);
        assert_eq!(after_a.len(), 1);
        assert!(after_a.contains(graph.node_id("v2").unwrap() as usize));
        let after_b = graph.step(Dir::Out, &start, b);
        assert!(after_b.contains(graph.node_id("v7").unwrap() as usize));
    }

    #[test]
    fn edges_iterator_counts_all() {
        let graph = figure3_g0();
        assert_eq!(graph.edges().count(), 15);
    }

    #[test]
    fn add_nodes_bulk() {
        let mut builder = GraphBuilder::new();
        let first = builder.add_nodes("n", 5);
        assert_eq!(first, 0);
        assert_eq!(builder.num_nodes(), 5);
        let graph = builder.build();
        assert_eq!(graph.node_name(3), "n3");
    }

    #[test]
    fn add_nodes_names_by_id_across_calls() {
        let mut builder = GraphBuilder::new();
        builder.add_node("seed");
        let first = builder.add_nodes("n", 3); // ids 1..=3 → n1..n3
        assert_eq!(first, 1);
        let second = builder.add_nodes("n", 2); // ids 4..=5 → n4, n5
        assert_eq!(second, 4);
        let graph = builder.build();
        assert_eq!(graph.num_nodes(), 6);
        assert_eq!(graph.node_name(1), "n1");
        assert_eq!(graph.node_name(5), "n5");
        assert_eq!(graph.node_id("n4"), Some(4));
    }

    #[test]
    #[should_panic(expected = "collides")]
    fn add_nodes_rejects_name_collisions() {
        let mut builder = GraphBuilder::new();
        builder.add_node("n1");
        builder.add_nodes("n", 3); // would produce a second "n1"
    }

    #[test]
    fn frontier_kernels_match_per_node_adjacency() {
        let graph = figure3_g0();
        let n = graph.num_nodes();
        for sym in graph.alphabet().symbols() {
            // Every subset of a 7-node graph, in both directions.
            for mask in 0u32..(1 << n) {
                let frontier = BitSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                for dir in Dir::BOTH {
                    let mut expected = BitSet::new(n);
                    for node in frontier.iter() {
                        for &(_, endpoint) in graph.neighbors(dir, node as NodeId, sym) {
                            expected.insert(endpoint as usize);
                        }
                    }
                    assert_eq!(graph.step(dir, &frontier, sym), expected, "{dir:?}");
                }
            }
        }
    }

    #[test]
    fn step_into_kernels_clear_their_scratch() {
        let graph = figure3_g0();
        let a = graph.alphabet().symbol("a").unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        let v3 = graph.node_id("v3").unwrap();
        let frontier = BitSet::from_indices(graph.num_nodes(), [v3 as usize]);
        let mut scratch = BitSet::full(graph.num_nodes()); // stale content
        let v4 = graph.node_id("v4").unwrap();
        graph.step_into(Dir::Out, StepPlan::Plain, &frontier, c, &mut scratch);
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![v4 as usize]);
        let mut sparse = vec![99, 98]; // stale content
        graph.step_sparse_into(&[v3], a, &mut sparse);
        let mut expected = vec![graph.node_id("v2").unwrap(), v3, v4];
        expected.sort_unstable();
        assert_eq!(sparse, expected);
        let mut fresh = Vec::new();
        graph.step_sparse_into(&[v3], a, &mut fresh);
        assert_eq!(fresh, sparse);
    }

    #[test]
    fn successors_of_out_of_alphabet_symbol_is_empty() {
        let graph = figure3_g0();
        let foreign = Symbol::from_index(17);
        assert!(graph.successors(0, foreign).is_empty());
        assert!(graph.neighbors(Dir::In, 0, foreign).is_empty());
    }

    /// The bitmap invariant: membership in `label_active(dir, sym)` is
    /// exactly "has ≥ 1 edge labeled `sym` in direction `dir`", checked
    /// against the per-node adjacency slices.
    fn assert_label_bitmaps_match_adjacency(graph: &GraphDb) {
        for sym in graph.alphabet().symbols() {
            for node in graph.nodes() {
                for dir in Dir::BOTH {
                    assert_eq!(
                        graph.label_active(dir, sym).contains(node as usize),
                        !graph.neighbors(dir, node, sym).is_empty(),
                        "label_active({dir:?}, {sym:?}) vs neighbors of {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn label_bitmaps_match_adjacency_on_g0() {
        let graph = figure3_g0();
        assert_label_bitmaps_match_adjacency(&graph);
        // Spot-check against the figure: only v3 has an out c-edge, and
        // only v4 has an in c-edge.
        let c = graph.alphabet().symbol("c").unwrap();
        let v3 = graph.node_id("v3").unwrap() as usize;
        let v4 = graph.node_id("v4").unwrap() as usize;
        let active = |dir| graph.label_active(dir, c).iter().collect::<Vec<_>>();
        assert_eq!(active(Dir::Out), [v3]);
        assert_eq!(active(Dir::In), [v4]);
    }

    #[test]
    fn label_counts_match_bitmap_population() {
        let graph = figure3_g0();
        for dir in Dir::BOTH {
            for sym in graph.alphabet().symbols() {
                assert_eq!(
                    graph.label_active_count(dir, sym),
                    graph.label_active(dir, sym).len()
                );
            }
            assert_eq!(graph.label_active_count(dir, Symbol::from_index(17)), 0);
        }
        assert_eq!(graph.num_node_words(), 1);
    }

    #[test]
    fn plan_step_cost_model_decisions() {
        let graph = figure3_g0();
        let a = graph.alphabet().symbol("a").unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        let v1 = graph.node_id("v1").unwrap() as usize;
        let v3 = graph.node_id("v3").unwrap() as usize;
        let full = BitSet::full(graph.num_nodes());

        // Plain policy never consults the bitmaps.
        assert_eq!(
            graph.plan_step(Dir::Out, &full, c, full.len(), StepPolicy::Plain),
            StepPlan::Plain
        );
        // Auto: full frontier over c holds c's only source v3 → covered:
        // the step is every c-target, read off the in-direction bitmap.
        assert_eq!(
            graph.plan_step(Dir::Out, &full, c, full.len(), StepPolicy::Auto),
            StepPlan::Covered
        );
        assert_eq!(
            &graph.step(Dir::Out, &full, c),
            graph.label_active(Dir::In, c)
        );
        // Auto: a big frontier that misses one b-source (v1) → walked.
        let b = graph.alphabet().symbol("b").unwrap();
        let all_but_v1 = BitSet::from_indices(graph.num_nodes(), (0..7).filter(|&i| i != v1));
        assert_eq!(
            graph.plan_step(Dir::Out, &all_but_v1, b, 6, StepPolicy::Auto),
            StepPlan::Plain
        );
        // Auto: frontier ⊆ label-active (v3 has an out c-edge) and it is
        // the whole active set → covered.
        let only_v3 = BitSet::from_indices(graph.num_nodes(), [v3]);
        assert_eq!(
            graph.plan_step(Dir::Out, &only_v3, c, 1, StepPolicy::Auto),
            StepPlan::Covered
        );
        // Auto: frontier ⊊ label-active (v1, v3 of a's six sources) →
        // walked.
        let v1_v3 = BitSet::from_indices(graph.num_nodes(), [v1, v3]);
        assert_eq!(
            graph.plan_step(Dir::Out, &v1_v3, a, 2, StepPolicy::Auto),
            StepPlan::Plain
        );
        // Auto: frontier disjoint from label-active → skip, dense or not.
        let only_v1 = BitSet::from_indices(graph.num_nodes(), [v1]);
        assert_eq!(
            graph.plan_step(Dir::Out, &only_v1, c, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
        // A dead frontier over a dense label (v4 has no out-edges at
        // all) is skipped too: the intersection popcount is 0.
        let v4 = graph.node_id("v4").unwrap() as usize;
        let only_v4 = BitSet::from_indices(graph.num_nodes(), [v4]);
        assert_eq!(
            graph.plan_step(Dir::Out, &only_v4, a, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
        // Against the edges the in-direction bitmap is consulted: only
        // v4 has a c-in-edge.
        assert_eq!(
            graph.plan_step(Dir::In, &only_v3, c, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
        assert_eq!(
            graph.plan_step(Dir::In, &only_v4, c, 1, StepPolicy::Auto),
            StepPlan::Covered
        );
    }

    #[test]
    fn label_average_degrees_match_adjacency() {
        let graph = figure3_g0();
        for sym in graph.alphabet().symbols() {
            let edges = graph.edges().filter(|&(_, s, _)| s == sym).count() as f64;
            // Quantized to sixteenths by the fixed-point storage.
            let q = |x: f64| (x * 16.0).floor() / 16.0;
            for dir in Dir::BOTH {
                let active = graph.label_active_count(dir, sym) as f64;
                assert_eq!(
                    graph.label_avg_degree(dir, sym),
                    q(edges / active),
                    "{dir:?} avg of {sym:?}"
                );
            }
        }
        // Spot values: 9 a-edges over 6 sources = 1.5; the single c-edge
        // over one source = 1.0. Foreign symbols report 0.
        let a = graph.alphabet().symbol("a").unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        assert_eq!(graph.label_avg_degree(Dir::Out, a), 1.5);
        assert_eq!(graph.label_avg_degree(Dir::Out, c), 1.0);
        for dir in Dir::BOTH {
            assert_eq!(graph.label_avg_degree(dir, Symbol::from_index(17)), 0.0);
        }
    }

    #[test]
    fn degree_weighted_sparse_gate_prices_the_label_weight() {
        // 640 nodes = 10 frontier words. Two labels with the *same*
        // active-set shape (two active sources each, one of them outside
        // the frontiers below, so none covers the set) but opposite
        // weights: "h" is a hub of 200 edges per source, "t" one edge
        // per source. On the same small frontier only the degree weight
        // separates the verdicts.
        let mut builder = GraphBuilder::new();
        let first = builder.add_nodes("n", 640);
        let h = builder.intern("h");
        let t = builder.intern("t");
        for source in [first, first + 600] {
            for i in 0..200u32 {
                builder.add_edge_ids(source, h, first + 100 + i);
            }
        }
        builder.add_edge_ids(first + 1, t, first + 2);
        builder.add_edge_ids(first + 601, t, first + 602);
        let graph = builder.build();
        assert_eq!(graph.label_avg_degree(Dir::Out, h), 200.0);
        assert_eq!(graph.label_avg_degree(Dir::Out, t), 1.0);

        let plan = |frontier: &BitSet, sym| {
            let plan = graph.plan_step(Dir::Out, frontier, sym, frontier.len(), StepPolicy::Auto);
            // Whatever the verdict, executing it is the plain step.
            let mut out = BitSet::new(640);
            graph.step_into(Dir::Out, plan, frontier, sym, &mut out);
            assert_eq!(out, graph.step(Dir::Out, frontier, sym), "{plan:?}");
            plan
        };
        // Three nodes × (2 + 1) ≤ 10 words: the feather-weight step goes
        // sparse before any scan; the heavy one, 3 × (2 + 200), cannot
        // and is walked.
        let three = BitSet::from_indices(640, [0, 1, 2]);
        assert_eq!(plan(&three, t), StepPlan::Sparse);
        assert_eq!(plan(&three, h), StepPlan::Plain);
        // One node more, 4 × (2 + 1) > 10 words: too many to go sparse.
        let four = BitSet::from_indices(640, [0, 1, 2, 3]);
        assert_eq!(plan(&four, t), StepPlan::Plain);
        // A big frontier missing one source is walked; the full frontier
        // holds both t-sources and is covered.
        let all_but_601 = BitSet::from_indices(640, (0..640).filter(|&i| i != 601));
        assert_eq!(plan(&all_but_601, t), StepPlan::Plain);
        assert_eq!(plan(&BitSet::full(640), t), StepPlan::Covered);
        // A one-node frontier of the heavy label is not sparse, so the
        // scan runs and finds it disjoint: skipped.
        assert_eq!(plan(&BitSet::from_indices(640, [5]), h), StepPlan::Skip);
    }

    /// The layout at the scale it exists for: 2²⁰ nodes and 32 labels,
    /// where a `(label, node)` table would hold 2²⁵ cells per direction,
    /// against a few thousand edges. Only the active cells have offsets,
    /// and the rank directory is one word per 64 nodes per label.
    #[test]
    fn storage_is_active_cells_plus_rank_words_not_sigma_times_nodes() {
        let (n, sigma) = (1usize << 20, 32usize);
        let mut edges: Vec<(NodeId, Symbol, NodeId)> = (0..4096u32)
            .map(|i| {
                let src = i.wrapping_mul(2_654_435_761) % n as NodeId;
                let dst = i.wrapping_mul(40_503) % n as NodeId;
                (src, Symbol::from_index(i as usize % sigma), dst)
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let words = n.div_ceil(64);
        for dir in Dir::BOTH {
            let adj = Adjacency::from_sorted(&edges, dir, n, sigma);
            let active: usize = adj.labels.iter().map(|stats| stats.active.len()).sum();
            assert!(active <= edges.len());
            assert_eq!(adj.offsets.len(), active + 1, "{dir:?} offsets");
            assert_eq!(adj.ranks.len(), sigma * words, "{dir:?} ranks");
            assert_eq!(adj.edges.len(), edges.len());
            // A quarter byte — two bits — per `(label, node)` cell: the bitmap
            // bit and half a bit of rank words, where a table held 32.
            assert!(adj.heap_bytes() < sigma * n / 4, "{dir:?} bytes");
            // Every edge is found through its cell.
            for &(src, sym, dst) in &edges {
                let (node, endpoint) = match dir {
                    Dir::Out => (src, dst),
                    Dir::In => (dst, src),
                };
                assert!(adj.neighbors(node, sym).contains(&(sym, endpoint)));
            }
        }
    }

    #[test]
    fn result_and_cost_hooks() {
        let graph = figure3_g0();
        assert_eq!(graph.result_bytes(), 8); // 7 nodes → one u64 word
    }

    #[test]
    fn ranged_kernels_accumulate_and_partition() {
        // On a >64-node graph every kernel takes the whole frontier in
        // one call: the dense and sparse kernels agree across all three
        // words, and a stale bit in the output buffer is cleared, not
        // accumulated.
        let mut builder = GraphBuilder::new();
        let first = builder.add_nodes("n", 130);
        let a = builder.intern("a");
        for i in 0..130u32 {
            builder.add_edge_ids(first + i, a, first + (i * 7 + 1) % 130);
        }
        let graph = builder.build();
        assert_eq!(graph.num_node_words(), 3);
        let frontier = BitSet::from_indices(130, (0..130).filter(|i| i % 3 == 0));
        let expected = BitSet::from_indices(130, frontier.iter().map(|i| (i * 7 + 1) % 130));
        assert!(!expected.contains(129));
        for plan in [StepPlan::Plain, StepPlan::Sparse] {
            let mut out = BitSet::from_indices(130, [129]);
            graph.step_into(Dir::Out, plan, &frontier, a, &mut out);
            assert_eq!(out, expected, "{plan:?}");
        }
    }

    #[test]
    fn label_bitmaps_of_foreign_symbol_are_empty_with_full_capacity() {
        let graph = figure3_g0();
        let foreign = Symbol::from_index(17);
        for dir in Dir::BOTH {
            assert!(graph.label_active(dir, foreign).is_empty());
            // Capacity |V| so frontier.intersects(bitmap) stays well-typed.
            assert_eq!(
                graph.label_active(dir, foreign).capacity(),
                graph.num_nodes()
            );
        }
    }

    #[test]
    fn label_bitmaps_track_incremental_construction() {
        // Interleave every builder entry point — named nodes, bulk node
        // reservation, name-based and id-based edges, duplicates, an
        // isolated node, a label interned late — and check the frozen
        // bitmaps still match the adjacency exactly.
        let mut builder = GraphBuilder::new();
        builder.add_edge("x", "a", "y");
        let first = builder.add_nodes("bulk", 3);
        let b = builder.intern("b");
        builder.add_edge_ids(first, b, first + 2);
        builder.add_edge("y", "a", "bulk3");
        builder.add_edge("x", "a", "y"); // duplicate, deduplicated at build
        builder.add_node("isolated");
        let c = builder.intern("c"); // label with exactly one edge, added last
        let x = builder.add_node("x");
        builder.add_edge_ids(x, c, x); // self-loop
        let graph = builder.build();
        assert_label_bitmaps_match_adjacency(&graph);
        // The isolated node is in no bitmap.
        let isolated = graph.node_id("isolated").unwrap() as usize;
        for dir in Dir::BOTH {
            for sym in graph.alphabet().symbols() {
                assert!(!graph.label_active(dir, sym).contains(isolated));
            }
            // The c self-loop puts x in both directions.
            assert_eq!(
                graph.label_active(dir, c).iter().collect::<Vec<_>>(),
                [x as usize]
            );
        }
    }

    /// Delta-aware twin of `assert_label_bitmaps_match_adjacency`: the
    /// merged views, counts, degrees and per-node metadata of an overlay
    /// graph must match its compacted rebuild exactly.
    fn assert_overlay_matches_compacted(overlay: &GraphDb, compacted: &GraphDb) {
        assert_eq!(overlay.num_nodes(), compacted.num_nodes());
        assert_eq!(overlay.num_edges(), compacted.num_edges());
        let overlay_edges: Vec<_> = overlay.edges().collect();
        let compacted_edges: Vec<_> = compacted.edges().collect();
        assert_eq!(overlay_edges, compacted_edges, "edges() order + content");
        let n = overlay.num_nodes();
        // Whole-frontier kernels, dense and sparse, from a full frontier
        // and a couple of partial ones.
        let frontiers = [
            BitSet::full(n),
            BitSet::from_indices(n, (0..n).step_by(2)),
            BitSet::from_indices(n, [0]),
        ];
        for dir in Dir::BOTH {
            for sym in overlay.alphabet().symbols() {
                assert_eq!(
                    overlay.label_active(dir, sym),
                    compacted.label_active(dir, sym),
                    "label_active({dir:?}, {sym:?})"
                );
                assert_eq!(
                    overlay.label_active_count(dir, sym),
                    compacted.label_active_count(dir, sym)
                );
                assert_eq!(
                    overlay.label_avg_degree(dir, sym),
                    compacted.label_avg_degree(dir, sym),
                    "avg {dir:?}-degree of {sym:?}"
                );
                for node in overlay.nodes() {
                    let mut via_visit = Vec::new();
                    // In order: the overlay's walk is the compacted cell.
                    overlay.for_each_neighbor(dir, node, sym, |t| via_visit.push(t));
                    let direct: Vec<NodeId> = compacted
                        .neighbors(dir, node, sym)
                        .iter()
                        .map(|&(_, t)| t)
                        .collect();
                    assert_eq!(via_visit, direct, "{dir:?} of {node} over {sym:?}");
                }
                for frontier in &frontiers {
                    let expected = compacted.step(dir, frontier, sym);
                    let mut stepped = BitSet::new(n);
                    for plan in [StepPlan::Plain, StepPlan::Sparse] {
                        overlay.step_into(dir, plan, frontier, sym, &mut stepped);
                        assert_eq!(stepped, expected, "{dir:?} {plan:?} {sym:?}");
                    }
                }
            }
            for node in overlay.nodes() {
                assert_eq!(overlay.degree(dir, node), compacted.degree(dir, node));
                assert!(
                    overlay
                        .edges_of(dir, node)
                        .eq(compacted.edges_of(dir, node)),
                    "{dir:?} view of {node}"
                );
            }
        }
        for sym in overlay.alphabet().symbols() {
            for frontier in &frontiers {
                let set: Vec<NodeId> = frontier.iter().map(|i| i as NodeId).collect();
                let (mut sa, mut sb) = (Vec::new(), Vec::new());
                overlay.step_sparse_into(&set, sym, &mut sa);
                compacted.step_sparse_into(&set, sym, &mut sb);
                assert_eq!(sa, sb, "sparse {sym:?}");
            }
        }
    }

    #[test]
    fn delta_add_remove_matches_compacted_rebuild() {
        let g0 = figure3_g0();
        let (a, b, c) = (
            g0.alphabet().symbol("a").unwrap(),
            g0.alphabet().symbol("b").unwrap(),
            g0.alphabet().symbol("c").unwrap(),
        );
        let id = |name: &str| g0.node_id(name).unwrap();
        // Mixed batch: add a new c-edge and a new b-edge, remove an
        // a-edge, remove v3's only c-edge (v3 leaves label_active(Out, c)).
        let overlay = g0
            .with_delta(
                &[(id("v2"), c, id("v4")), (id("v4"), b, id("v1"))],
                &[(id("v3"), a, id("v2")), (id("v3"), c, id("v4"))],
            )
            .unwrap();
        assert!(overlay.has_delta());
        assert_eq!(overlay.delta_edges(), 4);
        assert_eq!(overlay.num_edges(), 15);
        let compacted = overlay.compact();
        assert!(!compacted.has_delta());
        assert_overlay_matches_compacted(&overlay, &compacted);
        // The base handle is untouched.
        assert_eq!(g0.num_edges(), 15);
        assert!(!g0.has_delta());
    }

    #[test]
    fn delta_is_total_and_cancels() {
        let g0 = figure3_g0();
        let a = g0.alphabet().symbol("a").unwrap();
        let (v1, v2, v4) = (
            g0.node_id("v1").unwrap(),
            g0.node_id("v2").unwrap(),
            g0.node_id("v4").unwrap(),
        );
        // No-ops: adding a present edge, removing an absent one.
        let same = g0.with_delta(&[(v1, a, v2)], &[(v4, a, v1)]).unwrap();
        assert!(!same.has_delta());
        assert_eq!(same.num_edges(), 15);
        // remove-then-add of the same edge in one batch: removals are
        // processed first, so the edge ends up present.
        let both = g0.with_delta(&[(v1, a, v2)], &[(v1, a, v2)]).unwrap();
        assert!(!both.has_delta());
        // Cross-batch cancellation: add then remove across two deltas.
        let added = g0.with_delta(&[(v4, a, v1)], &[]).unwrap();
        assert!(added.has_delta());
        let cancelled = added.with_delta(&[], &[(v4, a, v1)]).unwrap();
        assert!(!cancelled.has_delta());
        assert_eq!(cancelled.num_edges(), 15);
        // Remove then re-add a base edge across two deltas.
        let removed = g0.with_delta(&[], &[(v1, a, v2)]).unwrap();
        assert_eq!(removed.num_edges(), 14);
        let restored = removed.with_delta(&[(v1, a, v2)], &[]).unwrap();
        assert!(!restored.has_delta());
        assert_eq!(restored.num_edges(), 15);
    }

    #[test]
    fn delta_rejects_unknown_nodes_and_symbols() {
        let g0 = figure3_g0();
        let a = g0.alphabet().symbol("a").unwrap();
        assert_eq!(
            g0.with_delta(&[(99, a, 0)], &[]).unwrap_err(),
            DeltaError::NodeOutOfRange {
                node: 99,
                num_nodes: 7
            }
        );
        assert_eq!(
            g0.with_delta(&[], &[(0, a, 42)]).unwrap_err(),
            DeltaError::NodeOutOfRange {
                node: 42,
                num_nodes: 7
            }
        );
        let foreign = Symbol::from_index(9);
        assert_eq!(
            g0.with_delta(&[(0, foreign, 1)], &[]).unwrap_err(),
            DeltaError::SymbolOutOfRange {
                symbol: foreign,
                alphabet_len: 3
            }
        );
        // `check_delta` is that validation on its own: same verdicts,
        // and an in-range batch (present or absent edges alike) passes.
        for (add, remove) in [
            (vec![(99, a, 0)], vec![]),
            (vec![], vec![(0, a, 42)]),
            (vec![(0, foreign, 1)], vec![]),
            (vec![(0, a, 1)], vec![(6, a, 6)]),
        ] {
            assert_eq!(
                g0.check_delta(&add, &remove),
                g0.with_delta(&add, &remove).map(|_| ())
            );
        }
    }

    #[test]
    fn delta_stacks_and_compaction_preserves_ids() {
        let g0 = figure3_g0();
        let (a, c) = (
            g0.alphabet().symbol("a").unwrap(),
            g0.alphabet().symbol("c").unwrap(),
        );
        let id = |name: &str| g0.node_id(name).unwrap();
        let step1 = g0.with_delta(&[(id("v4"), c, id("v5"))], &[]).unwrap();
        let step2 = step1
            .with_delta(&[(id("v4"), a, id("v6"))], &[(id("v1"), a, id("v2"))])
            .unwrap();
        assert_eq!(step2.delta_edges(), 3);
        let compacted = step2.compact();
        // Ids, names, and the alphabet survive compaction verbatim.
        for node in g0.nodes() {
            assert_eq!(step2.node_name(node), compacted.node_name(node));
        }
        assert_eq!(
            g0.alphabet().symbols().collect::<Vec<_>>(),
            compacted.alphabet().symbols().collect::<Vec<_>>()
        );
        assert_overlay_matches_compacted(&step2, &compacted);
        // Compacting a delta-free graph is a cheap structural clone.
        let recompacted = compacted.compact();
        assert_eq!(recompacted.num_edges(), compacted.num_edges());
    }

    #[test]
    fn delta_totals_run_across_stacked_batches() {
        let g0 = figure3_g0();
        let (a, b, c) = (
            g0.alphabet().symbol("a").unwrap(),
            g0.alphabet().symbol("b").unwrap(),
            g0.alphabet().symbol("c").unwrap(),
        );
        let id = |name: &str| g0.node_id(name).unwrap();
        let (v1, v2, v3, v4, v5) = (id("v1"), id("v2"), id("v3"), id("v4"), id("v5"));
        let base: std::collections::BTreeSet<_> = g0.edges().collect();
        type Batch = (Vec<(NodeId, Symbol, NodeId)>, Vec<(NodeId, Symbol, NodeId)>);
        let batches: Vec<Batch> = vec![
            // Two additions and a removal.
            (vec![(v4, a, v1), (v2, c, v4)], vec![(v1, a, v2)]),
            // No-ops only: a present edge, an absent one, a repeat.
            (
                vec![(v4, a, v1), (v3, a, v3)],
                vec![(v5, c, v1), (v1, a, v2)],
            ),
            // Cancel one addition and the removal; add and remove more.
            (
                vec![(v1, a, v2), (v4, b, v5)],
                vec![(v4, a, v1), (v3, c, v4)],
            ),
            // Cancel everything that is left.
            (vec![(v3, c, v4)], vec![(v2, c, v4), (v4, b, v5)]),
        ];
        let mut graph = g0.clone();
        let mut model = base.clone();
        for (add, remove) in &batches {
            graph = graph.with_delta(add, remove).unwrap();
            for edge in remove {
                model.remove(edge);
            }
            model.extend(add.iter().copied());
            let pending = model.symmetric_difference(&base).count();
            assert_eq!(graph.num_edges(), model.len());
            assert_eq!(graph.delta_edges(), pending);
            assert_eq!(graph.has_delta(), pending > 0);
            assert_eq!(
                graph.edges().collect::<std::collections::BTreeSet<_>>(),
                model
            );
        }
        assert!(!graph.has_delta());
    }

    /// Each label's delta allocation, both directions, `None` = untouched.
    fn label_ptrs(graph: &GraphDb) -> Vec<Option<*const SymDelta>> {
        let overlay = graph.delta.as_deref().unwrap();
        let slots = overlay.dirs.iter().flatten();
        slots.map(|slot| slot.as_ref().map(Arc::as_ptr)).collect()
    }

    #[test]
    fn delta_copies_only_the_labels_a_batch_changes() {
        let g0 = figure3_g0();
        let (a, b, c) = (
            g0.alphabet().symbol("a").unwrap(),
            g0.alphabet().symbol("b").unwrap(),
            g0.alphabet().symbol("c").unwrap(),
        );
        let id = |name: &str| g0.node_id(name).unwrap();
        let parent = g0
            .with_delta(
                &[(id("v4"), a, id("v1")), (id("v4"), b, id("v5"))],
                &[(id("v3"), c, id("v4"))],
            )
            .unwrap();
        let before = label_ptrs(&parent);
        let child = parent.with_delta(&[(id("v5"), a, id("v1"))], &[]).unwrap();
        // The receiver keeps its own allocations; the child shares every
        // label but `a` with it, and has its own copy of `a`.
        assert_eq!(label_ptrs(&parent), before);
        let sigma = g0.alphabet().len();
        for (slot, (theirs, ours)) in before.iter().zip(label_ptrs(&child)).enumerate() {
            let (theirs, ours) = (theirs.unwrap(), ours.unwrap());
            assert_eq!(theirs == ours, slot % sigma != a.index(), "slot {slot}");
        }
        assert_eq!(parent.num_edges(), 16);
        assert_eq!(child.num_edges(), 17);
        // A handle that holds `a` alone is patched in place: nothing is
        // copied, every allocation survives.
        let child_ptrs = label_ptrs(&child);
        let grandchild = child.apply_delta(&[(id("v6"), a, id("v1"))], &[]);
        assert_eq!(label_ptrs(&grandchild), child_ptrs);
        assert_eq!(grandchild.num_edges(), 18);
        assert_overlay_matches_compacted(&grandchild, &grandchild.compact());
    }

    #[test]
    fn delta_removing_every_edge_of_a_label_empties_its_bitmaps() {
        let g0 = figure3_g0();
        let c = g0.alphabet().symbol("c").unwrap();
        let (v3, v4) = (g0.node_id("v3").unwrap(), g0.node_id("v4").unwrap());
        // v3 --c--> v4 is the only c-edge in G0.
        let overlay = g0.with_delta(&[], &[(v3, c, v4)]).unwrap();
        for dir in Dir::BOTH {
            assert!(overlay.label_active(dir, c).is_empty());
            assert_eq!(overlay.label_active_count(dir, c), 0);
            assert_eq!(overlay.label_avg_degree(dir, c), 0.0);
        }
        assert_overlay_matches_compacted(&overlay, &overlay.compact());
    }
}

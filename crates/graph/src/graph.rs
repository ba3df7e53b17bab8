//! The graph database container.
//!
//! A graph database `G = (V, E)` with `E ⊆ V × Σ × V` (paper §2). Nodes
//! are dense `u32` ids with optional string names; edges are stored twice
//! in a **label-partitioned CSR**: forward edges sorted by
//! `(src, label, dst)`, backward edges by `(dst, label, src)`, each with a
//! per-`(node, symbol)` offset table of `|V|·|Σ| + 1` entries frozen at
//! [`GraphBuilder::build`] time. `successors(node, sym)` and
//! `predecessors(node, sym)` are therefore **two array reads** (offsets
//! `idx` and `idx + 1` into the edge array) instead of the two binary
//! searches a mixed-label row would need — the access pattern of every
//! simulation and product loop in the workspace.
//!
//! On top of the partitioned layout sit the **frontier-batched step
//! kernels** ([`GraphDb::step_frontier_into`] and friends): one
//! simulation step for a whole node *set* per call, deduplicating through
//! word-level [`BitSet`] operations with caller-provided scratch buffers
//! so the hot loops (RPQ evaluation, SCP search, on-the-fly
//! determinization) run allocation-free.
//!
//! ## Edge-delta overlay
//!
//! A built graph is immutable, but it can absorb **edge deltas** without
//! a rebuild: [`GraphDb::with_delta`] returns a new handle sharing the
//! frozen CSR (behind an `Arc`) plus a per-`(label, direction)` overlay
//! of added/removed edge sets. Every step kernel merges the overlay at
//! visit time — base slice filtered by the removal set, then the added
//! list — behind a once-per-call branch, so delta-free graphs keep the
//! exact hot path they had before. The per-label bitmaps, counts and
//! average degrees the [`StepPolicy`] cost model reads (and the
//! sparsity flags) are **recomputed exactly** for touched labels at delta-apply
//! time, so plan decisions stay sound on overlay graphs. When the
//! overlay outgrows a threshold, [`GraphDb::compact`] folds it into a
//! fresh CSR **preserving node ids and the alphabet**, so result bitsets
//! and interned symbols stay valid across compaction. The node set and
//! alphabet are frozen: a delta naming an unknown node or label is a
//! structured [`DeltaError`], not an implicit rebuild.
//!
//! Slice accessors ([`GraphDb::successors`], [`GraphDb::out_edges`] and
//! twins) expose the **base CSR only** — they cannot splice the overlay
//! into a borrowed slice. Semantic consumers use the merged views:
//! [`GraphDb::for_each_successor`] / [`GraphDb::for_each_predecessor`],
//! [`GraphDb::out_edges_view`] / [`GraphDb::in_edges_view`],
//! [`GraphDb::edges`], and the step kernels themselves.
//!
//! Alongside the offsets, `build` freezes **per-label active-node
//! bitmaps** ([`GraphDb::label_sources`] / [`GraphDb::label_targets`]):
//! for each symbol, the set of nodes with at least one out- (resp. in-)
//! edge of that label. A frontier step over a symbol can only produce
//! output from frontier nodes in the matching bitmap, which the kernels
//! exploit at two strengths: **masked step kernels**
//! ([`GraphDb::step_frontier_masked_into`] and twins) iterate
//! `frontier ∩ label-active` word-by-word so masked-out nodes never cost
//! an offset read, and the **cost-model gate** ([`GraphDb::plan_step`] /
//! [`GraphDb::plan_step_back`], driven by a [`StepPolicy`]) prices each
//! `(level, symbol)` step with one fused AND+popcount scan, choosing
//! skip / masked / plain for the level kernel in [`crate::eval`]. Every
//! frontier kernel also has a **ranged** variant over word-aligned node
//! chunks (`*_range_into`), the unit of the node-range fan-out a
//! parallel [`crate::par_eval::EvalPool`] splits a level into.
//!
//! ## Complexity
//!
//! * build: `O(|E| log |E|)` sort + `O(|V|·|Σ| + |E|)` offset scan;
//! * memory: `2·|E|` edge entries + `2·(|V|·|Σ| + 1)` offsets — the
//!   offsets trade `O(|V|·|Σ|)` space for `O(1)` per-symbol lookup, the
//!   PathFinder-style label-indexed adjacency choice;
//! * `step_frontier(F, a)`: `O(|F| + Σ_{ν∈F} deg_a(ν) + |V|/64)`;
//! * `successors` / `predecessors`: `O(1)` to produce the slice.

use pathlearn_automata::{Alphabet, BitSet, Symbol};
use std::collections::HashMap;

pub mod snapshot;

/// Numeric identifier of a graph node.
pub type NodeId = u32;

/// A label is **sparse** when fewer than `|V| / SPARSE_LABEL_DIVISOR`
/// nodes carry an edge of it (per direction) — a frozen per-label
/// statistic ([`GraphDb::label_sources_sparse`]). The step cost model
/// does not read it: [`StepPolicy::Auto`] prices every label by
/// popcount, dense or sparse.
const SPARSE_LABEL_DIVISOR: usize = 4;

/// Fixed-point scale of the frozen per-label average degrees consumed by
/// the step-kernel cost model (×16: quarter-edge resolution is plenty
/// for a heuristic, and the multiply stays in `u64`).
const AVG_DEG_FP: u64 = 16;

/// Cost-model weight of one frontier node the masked kernel skips, in
/// the same ×16 fixed point: the two offset reads the plain kernel
/// would issue for a node that has no edge of the stepped label.
const SKIPPED_NODE_COST_X16: u64 = 2 * AVG_DEG_FP;

/// Cost-model weight of one frontier word the masked kernel scans: the
/// extra label-bitmap load + AND per `u64` block (×16 fixed point).
const MASK_WORD_COST_X16: u64 = AVG_DEG_FP;

/// How an evaluator executes its frontier step kernels — the knob behind
/// the masked-kernel ablation in `bench_eval` and the cross-engine
/// differential suite. Results are **bit-identical** across all policies;
/// only the work performed per `(level, symbol)` step differs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StepPolicy {
    /// Plain kernels, no label-bitmap consultation — the exhaustive
    /// baseline (every symbol with DFA transitions is stepped in full).
    Plain,
    /// Masked kernels unconditionally: every step iterates
    /// `frontier ∩ label-active` word-by-word, never the raw frontier.
    Masked,
    /// The cost-model gate (the default everywhere): per `(level, symbol)`
    /// compare the intersection popcount against the frontier popcount and
    /// pick the cheaper kernel — see [`GraphDb::plan_step`].
    #[default]
    Auto,
}

impl StepPolicy {
    /// All policies, in ablation order — for differential tests and the
    /// benchmark matrix.
    pub const ALL: [StepPolicy; 3] = [StepPolicy::Plain, StepPolicy::Masked, StepPolicy::Auto];
}

/// The per-`(level, symbol)` decision produced by [`GraphDb::plan_step`] /
/// [`GraphDb::plan_step_back`] under a [`StepPolicy`]: skip the step
/// entirely (provably empty), run the masked kernel, or run the plain one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepPlan {
    /// No frontier node carries an edge of the symbol in the step
    /// direction — the graph step is provably empty, skip it.
    Skip,
    /// Iterate `frontier ∩ label-active` (the masked kernel).
    Masked,
    /// Iterate the raw frontier (the plain kernel).
    Plain,
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
    core: std::sync::Arc<GraphCore>,
    /// Pending edge mutations, `None` for a delta-free graph (the
    /// common case; every kernel branches on this exactly once per
    /// call).
    delta: Option<Box<DeltaOverlay>>,
}

/// The immutable build product: label-partitioned CSR + per-label
/// statistics. One `GraphCore` is shared by the base graph and every
/// delta overlay handle derived from it.
#[derive(Debug)]
struct GraphCore {
    alphabet: Alphabet,
    node_names: Vec<String>,
    name_index: HashMap<String, NodeId>,
    /// Per-node offsets into `out_edges` (`|V| + 1` entries).
    out_offsets: Vec<u32>,
    /// Per-`(node, symbol)` offsets into `out_edges` (`|V|·|Σ| + 1`).
    out_sym_offsets: Vec<u32>,
    out_edges: Vec<(Symbol, NodeId)>,
    /// Per-node offsets into `in_edges` (`|V| + 1` entries).
    in_offsets: Vec<u32>,
    /// Per-`(node, symbol)` offsets into `in_edges` (`|V|·|Σ| + 1`).
    in_sym_offsets: Vec<u32>,
    in_edges: Vec<(Symbol, NodeId)>,
    /// Per-symbol bitmap of nodes with ≥ 1 outgoing edge of that label.
    label_sources: Vec<BitSet>,
    /// Per-symbol bitmap of nodes with ≥ 1 incoming edge of that label.
    label_targets: Vec<BitSet>,
    /// `label_source_counts[a] = |label_sources[a]|`, frozen at build so
    /// the step-kernel cost model never re-popcounts a label bitmap.
    label_source_counts: Vec<u32>,
    /// The in-edge twin of `label_source_counts`.
    label_target_counts: Vec<u32>,
    /// Average out-degree of a label over its **active sources**
    /// (`a`-edges / `|label_sources(a)|`), frozen at build in ×16 fixed
    /// point — the per-label weight of the degree-weighted step cost
    /// model (see [`GraphDb::plan_step`]).
    label_source_avg_deg_x16: Vec<u32>,
    /// The in-edge twin: average in-degree over active targets.
    label_target_avg_deg_x16: Vec<u32>,
    /// `label_sources_sparse[a]` ⇔ fewer than `|V| / SPARSE_LABEL_DIVISOR`
    /// nodes have an out-edge labeled `a` (see
    /// [`GraphDb::label_sources_sparse`]).
    label_sources_sparse: Vec<bool>,
    /// The in-edge twin of `label_sources_sparse`.
    label_targets_sparse: Vec<bool>,
    /// Edges per label (direction-independent), frozen at build — the
    /// baseline a delta's per-label edge count is adjusted from.
    label_edge_counts: Vec<u64>,
    /// Empty `|V|`-capacity set returned for out-of-alphabet symbols, so
    /// the label bitmaps stay total without an `Option` in the hot path.
    no_label_nodes: BitSet,
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
    /// The **exact** merged active-node bitmap (membership ⇔ ≥ 1
    /// effective edge of the label in this direction) — the delta-aware
    /// replacement of the frozen label bitmap, so masked kernels and
    /// the cost model stay sound.
    active: BitSet,
    /// `|active|`, cached like the frozen per-label counts.
    active_count: u32,
    /// Effective average degree over active nodes, ×16 fixed point.
    avg_deg_x16: u32,
    /// The recomputed `|active| · SPARSE_LABEL_DIVISOR < |V|` flag.
    sparse: bool,
    /// Effective edges of this label (`base − removed + added`).
    edge_count: u64,
}

impl SymDelta {
    fn empty(num_nodes: usize) -> Self {
        SymDelta {
            added: HashMap::new(),
            removed: HashMap::new(),
            added_nodes: BitSet::new(num_nodes),
            removed_nodes: BitSet::new(num_nodes),
            active: BitSet::new(num_nodes),
            active_count: 0,
            avg_deg_x16: 0,
            sparse: false,
            edge_count: 0,
        }
    }

    fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Visits the **effective** endpoints of `node`: the base partition
    /// minus the removal list, then the added list (visit order is base
    /// survivors first, added endpoints after — set consumers only).
    #[inline]
    fn visit_merged(&self, base: &[(Symbol, NodeId)], node: NodeId, mut visit: impl FnMut(NodeId)) {
        if self.removed_nodes.contains(node as usize) {
            let removed = &self.removed[&node];
            for &(_, endpoint) in base {
                if removed.binary_search(&endpoint).is_err() {
                    visit(endpoint);
                }
            }
        } else {
            for &(_, endpoint) in base {
                visit(endpoint);
            }
        }
        if self.added_nodes.contains(node as usize) {
            for &endpoint in &self.added[&node] {
                visit(endpoint);
            }
        }
    }

    /// [`SymDelta::visit_merged`] with the added list two-pointer merged
    /// into the surviving base endpoints, so the visit order is fully
    /// sorted (both inputs are sorted and disjoint).
    fn visit_merged_sorted(
        &self,
        base: &[(Symbol, NodeId)],
        node: NodeId,
        mut visit: impl FnMut(NodeId),
    ) {
        let removed: &[NodeId] = if self.removed_nodes.contains(node as usize) {
            &self.removed[&node]
        } else {
            &[]
        };
        let added: &[NodeId] = if self.added_nodes.contains(node as usize) {
            &self.added[&node]
        } else {
            &[]
        };
        let mut next_add = 0;
        for &(_, endpoint) in base {
            if removed.binary_search(&endpoint).is_ok() {
                continue;
            }
            while next_add < added.len() && added[next_add] < endpoint {
                visit(added[next_add]);
                next_add += 1;
            }
            visit(endpoint);
        }
        for &endpoint in &added[next_add..] {
            visit(endpoint);
        }
    }
}

/// The edge-delta overlay of a [`GraphDb`] handle: per-symbol
/// added/removed edge sets in both directions, applied on top of the
/// shared [`GraphCore`] by the step kernels.
#[derive(Clone, Debug)]
struct DeltaOverlay {
    /// Out-direction deltas, indexed by symbol (`None` = untouched).
    out: Vec<Option<Box<SymDelta>>>,
    /// In-direction deltas (the mirrored edges), indexed by symbol.
    inn: Vec<Option<Box<SymDelta>>>,
    /// Total overlay-added edges (counted once, in the out direction).
    added_total: usize,
    /// Total overlay-removed edges.
    removed_total: usize,
    /// `|V|` — capacity of the per-symbol bitmaps.
    num_nodes: usize,
}

impl DeltaOverlay {
    fn empty(sigma: usize, num_nodes: usize) -> Self {
        DeltaOverlay {
            out: (0..sigma).map(|_| None).collect(),
            inn: (0..sigma).map(|_| None).collect(),
            added_total: 0,
            removed_total: 0,
            num_nodes,
        }
    }

    fn is_empty(&self) -> bool {
        self.out.iter().all(Option::is_none) && self.inn.iter().all(Option::is_none)
    }

    /// Sorted-insert `endpoint` into `lists[node]`; `false` if present.
    fn list_insert(
        lists: &mut HashMap<NodeId, Vec<NodeId>>,
        node: NodeId,
        endpoint: NodeId,
    ) -> bool {
        let list = lists.entry(node).or_default();
        match list.binary_search(&endpoint) {
            Ok(_) => false,
            Err(pos) => {
                list.insert(pos, endpoint);
                true
            }
        }
    }

    /// Removes `endpoint` from `lists[node]` (deleting an emptied
    /// list); `false` if it was not present.
    fn list_remove(
        lists: &mut HashMap<NodeId, Vec<NodeId>>,
        node: NodeId,
        endpoint: NodeId,
    ) -> bool {
        let Some(list) = lists.get_mut(&node) else {
            return false;
        };
        match list.binary_search(&endpoint) {
            Ok(pos) => {
                list.remove(pos);
                if list.is_empty() {
                    lists.remove(&node);
                }
                true
            }
            Err(_) => false,
        }
    }

    fn slot(slots: &mut [Option<Box<SymDelta>>], si: usize, num_nodes: usize) -> &mut SymDelta {
        slots[si].get_or_insert_with(|| Box::new(SymDelta::empty(num_nodes)))
    }

    /// Applies one edge removal. Verdict (mirrored into both direction
    /// maps so they always describe the same edge set): an overlay
    /// addition is cancelled; a not-yet-removed base edge is marked
    /// removed; an absent edge is a no-op.
    fn remove_edge(&mut self, sym: Symbol, src: NodeId, dst: NodeId, in_base: bool) {
        let si = sym.index();
        let n = self.num_nodes;
        let out = Self::slot(&mut self.out, si, n);
        if Self::list_remove(&mut out.added, src, dst) {
            let inn = Self::slot(&mut self.inn, si, n);
            Self::list_remove(&mut inn.added, dst, src);
        } else if in_base && Self::list_insert(&mut out.removed, src, dst) {
            let inn = Self::slot(&mut self.inn, si, n);
            Self::list_insert(&mut inn.removed, dst, src);
        }
    }

    /// Applies one edge addition: an overlay removal is cancelled (the
    /// base edge reappears); an edge already present (base or overlay)
    /// is a no-op; otherwise the edge joins the overlay-added set.
    fn add_edge(&mut self, sym: Symbol, src: NodeId, dst: NodeId, in_base: bool) {
        let si = sym.index();
        let n = self.num_nodes;
        let out = Self::slot(&mut self.out, si, n);
        if Self::list_remove(&mut out.removed, src, dst) {
            let inn = Self::slot(&mut self.inn, si, n);
            Self::list_remove(&mut inn.removed, dst, src);
        } else if !in_base && Self::list_insert(&mut out.added, src, dst) {
            let inn = Self::slot(&mut self.inn, si, n);
            Self::list_insert(&mut inn.added, dst, src);
        }
    }

    /// Recomputes the derived state (bitmaps, counts, degrees, sparsity)
    /// of both directions of `si` from the mutation maps, reverting a
    /// fully cancelled direction to `None` (the delta-free fast path).
    fn refresh_symbol(&mut self, core: &GraphCore, si: usize) {
        Self::refresh_dir(&mut self.out, core, si, true);
        Self::refresh_dir(&mut self.inn, core, si, false);
    }

    fn refresh_dir(
        slots: &mut [Option<Box<SymDelta>>],
        core: &GraphCore,
        si: usize,
        out_dir: bool,
    ) {
        let Some(delta) = slots[si].as_deref_mut() else {
            return;
        };
        if delta.is_noop() {
            slots[si] = None;
            return;
        }
        let n = core.node_names.len();
        let sigma = core.alphabet.len();
        let (base_active, offsets) = if out_dir {
            (&core.label_sources[si], &core.out_sym_offsets)
        } else {
            (&core.label_targets[si], &core.in_sym_offsets)
        };
        let base_deg = |node: NodeId| {
            let idx = node as usize * sigma + si;
            (offsets[idx + 1] - offsets[idx]) as usize
        };
        let mut active = base_active.clone();
        let mut added_nodes = BitSet::new(n);
        let mut removed_nodes = BitSet::new(n);
        let mut added_edges = 0u64;
        let mut removed_edges = 0u64;
        for (&node, list) in &delta.removed {
            removed_nodes.insert(node as usize);
            removed_edges += list.len() as u64;
            // The removal list is a subset of the node's base slice, so
            // equal lengths mean every base edge is gone.
            if list.len() == base_deg(node) {
                active.remove(node as usize);
            }
        }
        for (&node, list) in &delta.added {
            added_nodes.insert(node as usize);
            added_edges += list.len() as u64;
            active.insert(node as usize);
        }
        delta.added_nodes = added_nodes;
        delta.removed_nodes = removed_nodes;
        delta.active_count = active.len() as u32;
        delta.edge_count = core.label_edge_counts[si] - removed_edges + added_edges;
        delta.avg_deg_x16 = if delta.active_count == 0 {
            0
        } else {
            (delta.edge_count * AVG_DEG_FP / delta.active_count as u64) as u32
        };
        delta.sparse = (delta.active_count as usize) * SPARSE_LABEL_DIVISOR < n;
        delta.active = active;
    }

    /// Recounts the overlay totals (out direction only — every edge
    /// appears exactly once there).
    fn refresh_totals(&mut self) {
        self.added_total = self
            .out
            .iter()
            .flatten()
            .map(|d| d.added.values().map(Vec::len).sum::<usize>())
            .sum();
        self.removed_total = self
            .out
            .iter()
            .flatten()
            .map(|d| d.removed.values().map(Vec::len).sum::<usize>())
            .sum();
    }
}

impl GraphDb {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.core.node_names.len()
    }

    /// Number of edges, **including** any pending delta overlay
    /// (`base − removed + added`).
    pub fn num_edges(&self) -> usize {
        let base = self.core.out_edges.len();
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

    /// Outgoing edges of `node` in the **base CSR**, sorted by
    /// `(label, target)`. A borrowed slice cannot splice the delta
    /// overlay in; overlay-aware consumers use
    /// [`GraphDb::out_edges_view`] or [`GraphDb::for_each_successor`].
    pub fn out_edges(&self, node: NodeId) -> &[(Symbol, NodeId)] {
        let lo = self.core.out_offsets[node as usize] as usize;
        let hi = self.core.out_offsets[node as usize + 1] as usize;
        &self.core.out_edges[lo..hi]
    }

    /// Incoming edges of `node` in the **base CSR** as
    /// `(label, source)`, sorted. Overlay-aware consumers use
    /// [`GraphDb::in_edges_view`] or [`GraphDb::for_each_predecessor`].
    pub fn in_edges(&self, node: NodeId) -> &[(Symbol, NodeId)] {
        let lo = self.core.in_offsets[node as usize] as usize;
        let hi = self.core.in_offsets[node as usize + 1] as usize;
        &self.core.in_edges[lo..hi]
    }

    /// The out-direction delta of `sym`, if any — the once-per-call
    /// branch of every forward kernel.
    #[inline]
    fn out_delta(&self, sym: Symbol) -> Option<&SymDelta> {
        self.delta.as_ref()?.out.get(sym.index())?.as_deref()
    }

    /// The in-direction twin of [`GraphDb::out_delta`].
    #[inline]
    fn in_delta(&self, sym: Symbol) -> Option<&SymDelta> {
        self.delta.as_ref()?.inn.get(sym.index())?.as_deref()
    }

    /// `sym`-successors of `node` in the **base CSR**, as the
    /// `(label, target)` sub-slice. Two array reads into the
    /// label-partitioned offset table. Overlay-aware consumers use
    /// [`GraphDb::for_each_successor`].
    #[inline]
    pub fn successors(&self, node: NodeId, sym: Symbol) -> &[(Symbol, NodeId)] {
        let sigma = self.core.alphabet.len();
        if sym.index() >= sigma {
            return &[];
        }
        let idx = node as usize * sigma + sym.index();
        &self.core.out_edges
            [self.core.out_sym_offsets[idx] as usize..self.core.out_sym_offsets[idx + 1] as usize]
    }

    /// `sym`-predecessors of `node` in the **base CSR**, as the
    /// `(label, source)` sub-slice. Two array reads into the
    /// label-partitioned offset table. Overlay-aware consumers use
    /// [`GraphDb::for_each_predecessor`].
    #[inline]
    pub fn predecessors(&self, node: NodeId, sym: Symbol) -> &[(Symbol, NodeId)] {
        let sigma = self.core.alphabet.len();
        if sym.index() >= sigma {
            return &[];
        }
        let idx = node as usize * sigma + sym.index();
        &self.core.in_edges
            [self.core.in_sym_offsets[idx] as usize..self.core.in_sym_offsets[idx + 1] as usize]
    }

    /// Visits every **effective** `sym`-successor of `node` — the base
    /// slice with the delta overlay merged in (removed targets skipped,
    /// added targets appended). On a delta-free graph this is exactly a
    /// walk of [`GraphDb::successors`].
    #[inline]
    pub fn for_each_successor(&self, node: NodeId, sym: Symbol, mut visit: impl FnMut(NodeId)) {
        match self.out_delta(sym) {
            None => {
                for &(_, target) in self.successors(node, sym) {
                    visit(target);
                }
            }
            Some(delta) => delta.visit_merged(self.successors(node, sym), node, visit),
        }
    }

    /// The backward twin of [`GraphDb::for_each_successor`]: every
    /// effective `sym`-predecessor of `node`.
    #[inline]
    pub fn for_each_predecessor(&self, node: NodeId, sym: Symbol, mut visit: impl FnMut(NodeId)) {
        match self.in_delta(sym) {
            None => {
                for &(_, source) in self.predecessors(node, sym) {
                    visit(source);
                }
            }
            Some(delta) => delta.visit_merged(self.predecessors(node, sym), node, visit),
        }
    }

    /// `true` iff the delta overlay touches any out-edge of `node`.
    fn node_touched(slots: &[Option<Box<SymDelta>>], node: NodeId) -> bool {
        slots.iter().flatten().any(|d| {
            d.added_nodes.contains(node as usize) || d.removed_nodes.contains(node as usize)
        })
    }

    /// The **effective** outgoing edges of `node`, overlay included,
    /// sorted by `(label, target)`. Borrows the base slice when the
    /// overlay does not touch `node` (always, on a delta-free graph);
    /// allocates a merged copy otherwise.
    pub fn out_edges_view(&self, node: NodeId) -> std::borrow::Cow<'_, [(Symbol, NodeId)]> {
        match self.delta.as_deref() {
            Some(delta) if Self::node_touched(&delta.out, node) => {
                std::borrow::Cow::Owned(self.merged_edges(node, &delta.out, true))
            }
            _ => std::borrow::Cow::Borrowed(self.out_edges(node)),
        }
    }

    /// The incoming twin of [`GraphDb::out_edges_view`]: effective
    /// `(label, source)` pairs of `node`, sorted.
    pub fn in_edges_view(&self, node: NodeId) -> std::borrow::Cow<'_, [(Symbol, NodeId)]> {
        match self.delta.as_deref() {
            Some(delta) if Self::node_touched(&delta.inn, node) => {
                std::borrow::Cow::Owned(self.merged_edges(node, &delta.inn, false))
            }
            _ => std::borrow::Cow::Borrowed(self.in_edges(node)),
        }
    }

    /// Builds the merged `(label, endpoint)` list of one touched node:
    /// per symbol, the base partition filtered by the removal list, then
    /// the added list — both sorted, so the output stays sorted by
    /// `(label, endpoint)` without a final sort.
    fn merged_edges(
        &self,
        node: NodeId,
        slots: &[Option<Box<SymDelta>>],
        out_dir: bool,
    ) -> Vec<(Symbol, NodeId)> {
        let mut merged = Vec::new();
        for si in 0..self.core.alphabet.len() {
            let sym = Symbol::from_index(si);
            let base = if out_dir {
                self.successors(node, sym)
            } else {
                self.predecessors(node, sym)
            };
            match slots[si].as_deref() {
                None => merged.extend_from_slice(base),
                Some(delta) => {
                    delta.visit_merged_sorted(base, node, |endpoint| {
                        merged.push((sym, endpoint));
                    });
                }
            }
        }
        merged
    }

    /// Nodes with at least one **outgoing** `sym`-labeled edge, as a
    /// `|V|`-capacity bitmap. A forward frontier step
    /// ([`GraphDb::step_frontier_into`]) can only produce output from
    /// frontier nodes in this set, so evaluators skip any symbol whose
    /// frontier∩`label_sources` intersection is empty — one word-level
    /// AND scan instead of a full edge-slice walk. Out-of-alphabet
    /// symbols yield the (correctly empty) all-zeros set.
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    ///
    /// let graph = figure3_g0();
    /// let c = graph.alphabet().symbol("c").unwrap();
    /// // v3 is the only node with an outgoing c-edge in G0.
    /// let v3 = graph.node_id("v3").unwrap() as usize;
    /// assert_eq!(graph.label_sources(c).iter().collect::<Vec<_>>(), [v3]);
    /// ```
    #[inline]
    pub fn label_sources(&self, sym: Symbol) -> &BitSet {
        if let Some(delta) = self.out_delta(sym) {
            return &delta.active;
        }
        self.core
            .label_sources
            .get(sym.index())
            .unwrap_or(&self.core.no_label_nodes)
    }

    /// Nodes with at least one **incoming** `sym`-labeled edge — the
    /// reverse-direction twin of [`GraphDb::label_sources`], consulted by
    /// the backward frontier step ([`GraphDb::step_frontier_back_into`]):
    /// predecessors exist only for frontier nodes in this set.
    #[inline]
    pub fn label_targets(&self, sym: Symbol) -> &BitSet {
        if let Some(delta) = self.in_delta(sym) {
            return &delta.active;
        }
        self.core
            .label_targets
            .get(sym.index())
            .unwrap_or(&self.core.no_label_nodes)
    }

    /// `true` iff fewer than `|V| / 4` nodes have an outgoing
    /// `sym`-labeled edge. `false` for out-of-alphabet symbols.
    #[inline]
    pub fn label_sources_sparse(&self, sym: Symbol) -> bool {
        if let Some(delta) = self.out_delta(sym) {
            return delta.sparse;
        }
        self.core
            .label_sources_sparse
            .get(sym.index())
            .copied()
            .unwrap_or(false)
    }

    /// The in-edge twin of [`GraphDb::label_sources_sparse`].
    #[inline]
    pub fn label_targets_sparse(&self, sym: Symbol) -> bool {
        if let Some(delta) = self.in_delta(sym) {
            return delta.sparse;
        }
        self.core
            .label_targets_sparse
            .get(sym.index())
            .copied()
            .unwrap_or(false)
    }

    /// `|label_sources(sym)|`, precomputed at build (0 for out-of-alphabet
    /// symbols). The cost model uses it to shortcut labels active on
    /// **every** node, where a mask provably cannot skip anything.
    #[inline]
    pub fn label_source_count(&self, sym: Symbol) -> usize {
        if let Some(delta) = self.out_delta(sym) {
            return delta.active_count as usize;
        }
        self.core
            .label_source_counts
            .get(sym.index())
            .map_or(0, |&c| c as usize)
    }

    /// The in-edge twin of [`GraphDb::label_source_count`].
    #[inline]
    pub fn label_target_count(&self, sym: Symbol) -> usize {
        if let Some(delta) = self.in_delta(sym) {
            return delta.active_count as usize;
        }
        self.core
            .label_target_counts
            .get(sym.index())
            .map_or(0, |&c| c as usize)
    }

    /// Average number of outgoing `sym`-edges per **active source** of
    /// the label (`sym`-edges / `|label_sources(sym)|`; 0.0 for dead or
    /// out-of-alphabet symbols) — the frozen degree weight of the step
    /// cost model, exposed at float precision for tests and diagnostics.
    /// Internally the model uses the ×16 fixed-point form, so values are
    /// quantized to sixteenths.
    pub fn label_source_avg_degree(&self, sym: Symbol) -> f64 {
        self.out_avg_deg_x16(sym) as f64 / AVG_DEG_FP as f64
    }

    /// The in-edge twin of [`GraphDb::label_source_avg_degree`]: average
    /// incoming `sym`-edges per active target.
    pub fn label_target_avg_degree(&self, sym: Symbol) -> f64 {
        self.in_avg_deg_x16(sym) as f64 / AVG_DEG_FP as f64
    }

    /// The ×16 fixed-point average out-degree the cost model reads —
    /// the delta's recomputed value for touched labels, the frozen one
    /// otherwise.
    #[inline]
    fn out_avg_deg_x16(&self, sym: Symbol) -> u32 {
        if let Some(delta) = self.out_delta(sym) {
            return delta.avg_deg_x16;
        }
        self.core
            .label_source_avg_deg_x16
            .get(sym.index())
            .copied()
            .unwrap_or(0)
    }

    /// The in-edge twin of [`GraphDb::out_avg_deg_x16`].
    #[inline]
    fn in_avg_deg_x16(&self, sym: Symbol) -> u32 {
        if let Some(delta) = self.in_delta(sym) {
            return delta.avg_deg_x16;
        }
        self.core
            .label_target_avg_deg_x16
            .get(sym.index())
            .copied()
            .unwrap_or(0)
    }

    /// Heap bytes one monadic/binary **result bitset** on this graph
    /// occupies (`|V|` bits rounded up to `u64` words) — the unit the
    /// serving layer's result cache accounts memory in.
    pub fn result_bytes(&self) -> usize {
        self.num_node_words() * std::mem::size_of::<u64>()
    }

    /// The `O(|E|·|Q|)` work bound of evaluating a `q_states`-state
    /// query on this graph — the serving layer's admission-time cost
    /// estimate for a query it has never evaluated (replaced by the
    /// measured wall time once one evaluation lands). The `+ |V|` term
    /// keeps the bound positive on edge-less graphs.
    pub fn eval_cost_bound(&self, q_states: usize) -> u64 {
        (self.num_edges() + self.num_nodes() + 1) as u64 * q_states.max(1) as u64
    }

    /// Number of `u64` words a `|V|`-capacity frontier occupies — the
    /// granularity of the ranged step kernels and of the node-range
    /// fan-out in [`crate::par_eval`].
    #[inline]
    pub fn num_node_words(&self) -> usize {
        self.num_nodes().div_ceil(BitSet::BLOCK_BITS)
    }

    /// Shared cost model of [`GraphDb::plan_step`] /
    /// [`GraphDb::plan_step_back`].
    ///
    /// Under [`StepPolicy::Auto`], one fused AND+popcount scan
    /// ([`BitSet::intersection_len`]) prices the step: an empty
    /// intersection skips it outright. A non-empty
    /// intersection strictly smaller than the frontier is then priced
    /// **degree-weighted**: the masked kernel pays one extra
    /// label-bitmap load + AND per frontier word but skips every
    /// masked-out node's offset reads, so it wins when
    ///
    /// ```text
    /// (frontier − intersection) · (offset cost + avg label degree)
    ///         >  frontier words · word cost
    /// ```
    ///
    /// The per-label average degree (frozen at build: label edges /
    /// active nodes, the ROADMAP's "one multiply away" weight) scales a
    /// skipped node's worth by how heavy the label's steps are — raw
    /// popcounts weight all nodes equally, under-masking heavy labels on
    /// big graphs and over-masking feather-weight ones (the pre-weighted
    /// model masked whenever a single node was skipped, paying a full
    /// word scan to save two offset reads). The plan is a pure execution
    /// strategy: results are bit-identical whichever kernel is chosen
    /// (differential suite). Labels active on all `|V|` nodes shortcut
    /// to `Plain` without scanning — the precomputed count proves the
    /// mask is a no-op.
    #[inline]
    fn plan(
        &self,
        frontier: &BitSet,
        frontier_len: usize,
        active: &BitSet,
        active_count: usize,
        avg_deg_x16: u32,
        policy: StepPolicy,
    ) -> StepPlan {
        match policy {
            StepPolicy::Plain => StepPlan::Plain,
            StepPolicy::Masked => StepPlan::Masked,
            StepPolicy::Auto => {
                if active_count >= self.num_nodes() {
                    return StepPlan::Plain;
                }
                let inter = frontier.intersection_len(active);
                if inter == 0 {
                    return StepPlan::Skip;
                }
                let skipped = frontier_len.saturating_sub(inter) as u64;
                let saved_x16 = skipped * (SKIPPED_NODE_COST_X16 + avg_deg_x16 as u64);
                if saved_x16 > self.num_node_words() as u64 * MASK_WORD_COST_X16 {
                    StepPlan::Masked
                } else {
                    StepPlan::Plain
                }
            }
        }
    }

    /// Plans one **forward** step of `frontier` over `sym` under `policy`
    /// (see [`StepPlan`]). `frontier_len` is the frontier's popcount; the
    /// caller computes it once per `(level, state)` and amortizes it over
    /// every symbol of the level (it is only read by
    /// [`StepPolicy::Auto`], pass 0 otherwise).
    #[inline]
    pub fn plan_step(
        &self,
        frontier: &BitSet,
        sym: Symbol,
        frontier_len: usize,
        policy: StepPolicy,
    ) -> StepPlan {
        self.plan(
            frontier,
            frontier_len,
            self.label_sources(sym),
            self.label_source_count(sym),
            self.out_avg_deg_x16(sym),
            policy,
        )
    }

    /// The **backward** twin of [`GraphDb::plan_step`], pricing the step
    /// against [`GraphDb::label_targets`].
    #[inline]
    pub fn plan_step_back(
        &self,
        frontier: &BitSet,
        sym: Symbol,
        frontier_len: usize,
        policy: StepPolicy,
    ) -> StepPlan {
        self.plan(
            frontier,
            frontier_len,
            self.label_targets(sym),
            self.label_target_count(sym),
            self.in_avg_deg_x16(sym),
            policy,
        )
    }

    /// Out-degree of `node`, delta overlay included.
    pub fn out_degree(&self, node: NodeId) -> usize {
        let mut degree = self.out_edges(node).len();
        if let Some(delta) = self.delta.as_deref() {
            degree = Self::delta_degree(degree, &delta.out, node);
        }
        degree
    }

    /// In-degree of `node`, delta overlay included.
    pub fn in_degree(&self, node: NodeId) -> usize {
        let mut degree = self.in_edges(node).len();
        if let Some(delta) = self.delta.as_deref() {
            degree = Self::delta_degree(degree, &delta.inn, node);
        }
        degree
    }

    fn delta_degree(base: usize, slots: &[Option<Box<SymDelta>>], node: NodeId) -> usize {
        let mut degree = base;
        for delta in slots.iter().flatten() {
            if delta.added_nodes.contains(node as usize) {
                degree += delta.added[&node].len();
            }
            if delta.removed_nodes.contains(node as usize) {
                degree -= delta.removed[&node].len();
            }
        }
        degree
    }

    /// One forward simulation step on a node set.
    ///
    /// Kept for API stability; internally routed to
    /// [`GraphDb::step_frontier`]. Prefer [`GraphDb::step_frontier_into`]
    /// with a reused scratch buffer in hot loops.
    pub fn step_set(&self, set: &BitSet, sym: Symbol) -> BitSet {
        self.step_frontier(set, sym)
    }

    /// One forward simulation step on a frontier: the set of
    /// `sym`-successors of every node in `frontier`.
    pub fn step_frontier(&self, frontier: &BitSet, sym: Symbol) -> BitSet {
        let mut out = BitSet::new(self.num_nodes());
        self.step_frontier_into(frontier, sym, &mut out);
        out
    }

    /// Allocation-free forward frontier step: clears `out`, then inserts
    /// the `sym`-successors of every node in `frontier`. `out` must have
    /// capacity `num_nodes()`. The frontier is consumed word-by-word (the
    /// [`BitSet`] iterator walks `u64` blocks with trailing-zero scans)
    /// and every successor range is a contiguous slice of the partitioned
    /// CSR, so the kernel is a linear pass over frontier-adjacent edges.
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_automata::BitSet;
    ///
    /// let graph = figure3_g0();
    /// let a = graph.alphabet().symbol("a").unwrap();
    /// let v1 = graph.node_id("v1").unwrap() as usize;
    /// let frontier = BitSet::from_indices(graph.num_nodes(), [v1]);
    /// let mut out = BitSet::new(graph.num_nodes());
    /// graph.step_frontier_into(&frontier, a, &mut out);
    /// // v1 --a--> v2 is the only a-edge out of v1.
    /// assert_eq!(out.len(), 1);
    /// assert!(out.contains(graph.node_id("v2").unwrap() as usize));
    /// ```
    pub fn step_frontier_into(&self, frontier: &BitSet, sym: Symbol, out: &mut BitSet) {
        debug_assert_eq!(out.capacity(), self.num_nodes(), "scratch capacity");
        out.clear();
        self.step_frontier_range_into(frontier, sym, 0..self.num_node_words(), out);
    }

    /// **Masked** forward frontier step: clears `out`, then inserts the
    /// `sym`-successors of every node in `frontier ∩ label_sources(sym)`.
    /// Identical output to [`GraphDb::step_frontier_into`] — nodes outside
    /// the label's active set have no `sym`-out-edges and contribute
    /// nothing — but the kernel never reads their offsets: per `u64` word
    /// it loads the frontier block, ANDs in the label block, and iterates
    /// only the surviving bits. One extra load+AND per word buys a skipped
    /// two-offset read per masked-out node; [`GraphDb::plan_step`] prices
    /// the trade per `(level, symbol)`.
    ///
    /// ```
    /// use pathlearn_graph::graph::figure3_g0;
    /// use pathlearn_automata::BitSet;
    ///
    /// let graph = figure3_g0();
    /// let c = graph.alphabet().symbol("c").unwrap();
    /// let frontier = BitSet::full(graph.num_nodes());
    /// let (mut masked, mut plain) = (BitSet::new(7), BitSet::new(7));
    /// graph.step_frontier_masked_into(&frontier, c, &mut masked);
    /// graph.step_frontier_into(&frontier, c, &mut plain);
    /// assert_eq!(masked, plain); // only v3 is iterated by the masked kernel
    /// ```
    pub fn step_frontier_masked_into(&self, frontier: &BitSet, sym: Symbol, out: &mut BitSet) {
        debug_assert_eq!(out.capacity(), self.num_nodes(), "scratch capacity");
        out.clear();
        self.step_frontier_masked_range_into(frontier, sym, 0..self.num_node_words(), out);
    }

    /// Ranged forward frontier step over the frontier words
    /// `words.start..words.end` (each word covers 64 node ids): inserts
    /// the `sym`-successors of every frontier node in the range into
    /// `out` **without clearing it** — ranged kernels accumulate, so the
    /// union of any word-aligned partition of `0..num_node_words()`
    /// equals the full kernel's output bit-for-bit. This is the unit of
    /// the node-range fan-out in [`crate::par_eval`].
    pub fn step_frontier_range_into(
        &self,
        frontier: &BitSet,
        sym: Symbol,
        words: std::ops::Range<usize>,
        out: &mut BitSet,
    ) {
        match self.out_delta(sym) {
            None => self.for_frontier_words(frontier, None, words, |node| {
                for &(_, target) in self.successors(node, sym) {
                    out.insert(target as usize);
                }
            }),
            Some(delta) => self.for_frontier_words(frontier, None, words, |node| {
                delta.visit_merged(self.successors(node, sym), node, |target| {
                    out.insert(target as usize);
                });
            }),
        }
    }

    /// Ranged **masked** forward frontier step: the word range of
    /// [`GraphDb::step_frontier_range_into`] with the iteration masked by
    /// `label_sources(sym)` as in [`GraphDb::step_frontier_masked_into`].
    /// Accumulates into `out` without clearing.
    pub fn step_frontier_masked_range_into(
        &self,
        frontier: &BitSet,
        sym: Symbol,
        words: std::ops::Range<usize>,
        out: &mut BitSet,
    ) {
        // `label_sources` already resolves to the delta's exact merged
        // active bitmap, so the mask never hides an overlay-added edge.
        match self.out_delta(sym) {
            None => {
                self.for_frontier_words(frontier, Some(self.label_sources(sym)), words, |node| {
                    for &(_, target) in self.successors(node, sym) {
                        out.insert(target as usize);
                    }
                })
            }
            Some(delta) => self.for_frontier_words(frontier, Some(&delta.active), words, |node| {
                delta.visit_merged(self.successors(node, sym), node, |target| {
                    out.insert(target as usize);
                });
            }),
        }
    }

    /// Word-by-word frontier walk shared by every frontier kernel: for
    /// each `u64` word of `frontier` in `words`, AND in the matching mask
    /// word (when masked), then visit each surviving node id via
    /// trailing-zero scans. Ranges are clamped to the frontier's block
    /// count, so callers can pass any word-aligned chunk.
    #[inline]
    fn for_frontier_words(
        &self,
        frontier: &BitSet,
        mask: Option<&BitSet>,
        words: std::ops::Range<usize>,
        mut visit: impl FnMut(NodeId),
    ) {
        debug_assert_eq!(frontier.capacity(), self.num_nodes(), "frontier capacity");
        let blocks = frontier.as_blocks();
        let end = words.end.min(blocks.len());
        let bits_per = BitSet::BLOCK_BITS;
        match mask {
            Some(mask) => {
                let mask_blocks = mask.as_blocks();
                for word in words.start..end {
                    let mut bits = blocks[word] & mask_blocks[word];
                    while bits != 0 {
                        let node = word * bits_per + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        visit(node as NodeId);
                    }
                }
            }
            None => {
                for word in words.start..end {
                    let mut bits = blocks[word];
                    while bits != 0 {
                        let node = word * bits_per + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        visit(node as NodeId);
                    }
                }
            }
        }
    }

    /// One backward frontier step: the set of `sym`-predecessors of every
    /// node in `frontier`.
    pub fn step_frontier_back(&self, frontier: &BitSet, sym: Symbol) -> BitSet {
        let mut out = BitSet::new(self.num_nodes());
        self.step_frontier_back_into(frontier, sym, &mut out);
        out
    }

    /// Allocation-free backward frontier step: clears `out`, then inserts
    /// the `sym`-predecessors of every node in `frontier`. The backward
    /// analogue of [`GraphDb::step_frontier_into`]; this is the inner
    /// kernel of the level-synchronous backward product BFS in
    /// [`crate::eval::eval_monadic`].
    pub fn step_frontier_back_into(&self, frontier: &BitSet, sym: Symbol, out: &mut BitSet) {
        debug_assert_eq!(out.capacity(), self.num_nodes(), "scratch capacity");
        out.clear();
        self.step_frontier_back_range_into(frontier, sym, 0..self.num_node_words(), out);
    }

    /// **Masked** backward frontier step — the backward twin of
    /// [`GraphDb::step_frontier_masked_into`], iterating
    /// `frontier ∩ label_targets(sym)` (only those frontier nodes have
    /// `sym`-in-edges). Clears `out`; output is identical to
    /// [`GraphDb::step_frontier_back_into`].
    pub fn step_frontier_back_masked_into(&self, frontier: &BitSet, sym: Symbol, out: &mut BitSet) {
        debug_assert_eq!(out.capacity(), self.num_nodes(), "scratch capacity");
        out.clear();
        self.step_frontier_back_masked_range_into(frontier, sym, 0..self.num_node_words(), out);
    }

    /// Ranged backward frontier step — the backward twin of
    /// [`GraphDb::step_frontier_range_into`]. Accumulates into `out`
    /// without clearing.
    pub fn step_frontier_back_range_into(
        &self,
        frontier: &BitSet,
        sym: Symbol,
        words: std::ops::Range<usize>,
        out: &mut BitSet,
    ) {
        match self.in_delta(sym) {
            None => self.for_frontier_words(frontier, None, words, |node| {
                for &(_, source) in self.predecessors(node, sym) {
                    out.insert(source as usize);
                }
            }),
            Some(delta) => self.for_frontier_words(frontier, None, words, |node| {
                delta.visit_merged(self.predecessors(node, sym), node, |source| {
                    out.insert(source as usize);
                });
            }),
        }
    }

    /// Ranged **masked** backward frontier step — the backward twin of
    /// [`GraphDb::step_frontier_masked_range_into`], masked by
    /// `label_targets(sym)`. Accumulates into `out` without clearing.
    pub fn step_frontier_back_masked_range_into(
        &self,
        frontier: &BitSet,
        sym: Symbol,
        words: std::ops::Range<usize>,
        out: &mut BitSet,
    ) {
        match self.in_delta(sym) {
            None => {
                self.for_frontier_words(frontier, Some(self.label_targets(sym)), words, |node| {
                    for &(_, source) in self.predecessors(node, sym) {
                        out.insert(source as usize);
                    }
                })
            }
            Some(delta) => self.for_frontier_words(frontier, Some(&delta.active), words, |node| {
                delta.visit_merged(self.predecessors(node, sym), node, |source| {
                    out.insert(source as usize);
                });
            }),
        }
    }

    /// One forward simulation step on a **sparse** node set (sorted,
    /// deduplicated ids). Returns a sorted, deduplicated result. Much
    /// cheaper than [`GraphDb::step_set`] when the set is tiny relative to
    /// the graph — the common case for the positive side of SCP searches,
    /// which start from a single node.
    pub fn step_sparse(&self, set: &[NodeId], sym: Symbol) -> Vec<NodeId> {
        let mut next = Vec::with_capacity(set.len());
        self.step_sparse_into(set, sym, &mut next);
        next
    }

    /// Allocation-free sparse step: clears `out`, then writes the sorted,
    /// deduplicated `sym`-successors of `set` into it. Reusing `out`
    /// across calls keeps the SCP search's per-expansion cost free of
    /// heap traffic (the buffer only grows, never reallocates at steady
    /// state).
    pub fn step_sparse_into(&self, set: &[NodeId], sym: Symbol, out: &mut Vec<NodeId>) {
        out.clear();
        match self.out_delta(sym) {
            None => {
                for &node in set {
                    out.extend(self.successors(node, sym).iter().map(|&(_, t)| t));
                }
            }
            Some(delta) => {
                for &node in set {
                    delta.visit_merged(self.successors(node, sym), node, |t| out.push(t));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// **Masked** sparse step — the sparse twin of
    /// [`GraphDb::step_frontier_masked_into`]: skips set members outside
    /// `label_sources(sym)` with one bitmap probe each, so edge-less
    /// nodes never touch the offset table. Output is identical to
    /// [`GraphDb::step_sparse_into`] (sorted, deduplicated).
    pub fn step_sparse_masked_into(&self, set: &[NodeId], sym: Symbol, out: &mut Vec<NodeId>) {
        out.clear();
        // Delta-aware: `label_sources` is the exact merged active set.
        let active = self.label_sources(sym);
        match self.out_delta(sym) {
            None => {
                for &node in set {
                    if active.contains(node as usize) {
                        out.extend(self.successors(node, sym).iter().map(|&(_, t)| t));
                    }
                }
            }
            Some(delta) => {
                for &node in set {
                    if active.contains(node as usize) {
                        delta.visit_merged(self.successors(node, sym), node, |t| out.push(t));
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Iterates over all **effective** edges as `(src, label, dst)` —
    /// delta overlay included, in `(src, label, dst)` order. The
    /// delta-free path stays lazy and allocation-free; on an overlay
    /// graph, touched nodes materialize their merged edge list.
    pub fn edges(&self) -> Box<dyn Iterator<Item = (NodeId, Symbol, NodeId)> + '_> {
        if self.delta.is_none() {
            Box::new(
                self.nodes()
                    .flat_map(move |n| self.out_edges(n).iter().map(move |&(s, t)| (n, s, t))),
            )
        } else {
            Box::new(self.nodes().flat_map(move |n| {
                self.out_edges_view(n)
                    .into_owned()
                    .into_iter()
                    .map(move |(s, t)| (n, s, t))
            }))
        }
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
    fn base_has_out(&self, src: NodeId, sym: Symbol, dst: NodeId) -> bool {
        self.successors(src, sym)
            .binary_search_by_key(&dst, |&(_, t)| t)
            .is_ok()
    }

    /// Returns a new handle over the same frozen CSR with `remove` taken
    /// out and then `add` put in (`(G ∖ remove) ∪ add` — an edge in both
    /// lists ends up **present**). Deltas are total and no-op tolerant:
    /// removing an absent edge or adding a present one does nothing, and
    /// opposite mutations cancel, so a fully cancelled overlay returns a
    /// delta-free handle. Only unknown endpoints or labels fail: the
    /// node set and the alphabet are frozen (see [`DeltaError`]).
    ///
    /// The receiver is untouched (handles are snapshots; the CSR is
    /// shared structurally), and stacking is supported: applying a delta
    /// to an overlay graph folds the batches together.
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
        let n = self.num_nodes();
        let sigma = self.core.alphabet.len();
        for &(src, sym, dst) in remove.iter().chain(add) {
            for node in [src, dst] {
                if node as usize >= n {
                    return Err(DeltaError::NodeOutOfRange { node, num_nodes: n });
                }
            }
            if sym.index() >= sigma {
                return Err(DeltaError::SymbolOutOfRange {
                    symbol: sym,
                    alphabet_len: sigma,
                });
            }
        }
        let mut overlay = match &self.delta {
            Some(delta) => delta.clone(),
            None => Box::new(DeltaOverlay::empty(sigma, n)),
        };
        let mut touched = vec![false; sigma];
        // Removals strictly before additions: `(G ∖ remove) ∪ add`.
        for &(src, sym, dst) in remove {
            overlay.remove_edge(sym, src, dst, self.base_has_out(src, sym, dst));
            touched[sym.index()] = true;
        }
        for &(src, sym, dst) in add {
            overlay.add_edge(sym, src, dst, self.base_has_out(src, sym, dst));
            touched[sym.index()] = true;
        }
        for (si, &was_touched) in touched.iter().enumerate() {
            if was_touched {
                overlay.refresh_symbol(&self.core, si);
            }
        }
        overlay.refresh_totals();
        Ok(GraphDb {
            core: self.core.clone(),
            delta: (!overlay.is_empty()).then_some(overlay),
        })
    }

    /// Folds the delta overlay into a fresh CSR, **preserving node ids
    /// and the alphabet** — result bitsets and interned symbols from the
    /// overlay graph remain valid on the compacted one. A delta-free
    /// graph compacts to a (cheap, structurally shared) clone of itself.
    pub fn compact(&self) -> GraphDb {
        if self.delta.is_none() {
            return self.clone();
        }
        let mut builder = GraphBuilder::with_alphabet(self.core.alphabet.clone());
        for node in self.nodes() {
            builder.add_node(self.node_name(node));
        }
        for (src, sym, dst) in self.edges() {
            builder.add_edge_ids(src, sym, dst);
        }
        builder.build()
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

    /// Finalizes the graph: deduplicates edges, freezes the CSR arrays,
    /// and precomputes the per-`(node, symbol)` offset tables of the
    /// label-partitioned layout (one counting pass + one prefix sum per
    /// direction).
    pub fn build(self) -> GraphDb {
        let n = self.node_names.len();
        let sigma = self.alphabet.len();
        let mut forward = self.edges;
        forward.sort_unstable_by_key(|&(s, sym, d)| (s, sym, d));
        forward.dedup();

        // Sorting by (node, symbol, endpoint) makes each (node, symbol)
        // partition a contiguous slice; both offset granularities are
        // prefix sums over the same counting pass.
        fn offsets(
            edges: &[(NodeId, Symbol, NodeId)],
            n: usize,
            sigma: usize,
        ) -> (Vec<u32>, Vec<u32>) {
            let mut node_offsets = vec![0u32; n + 1];
            let mut sym_offsets = vec![0u32; n * sigma + 1];
            for &(node, sym, _) in edges {
                node_offsets[node as usize + 1] += 1;
                sym_offsets[node as usize * sigma + sym.index() + 1] += 1;
            }
            for i in 0..n {
                node_offsets[i + 1] += node_offsets[i];
            }
            for i in 0..n * sigma {
                sym_offsets[i + 1] += sym_offsets[i];
            }
            (node_offsets, sym_offsets)
        }

        let (out_offsets, out_sym_offsets) = offsets(&forward, n, sigma);
        let out_edges: Vec<(Symbol, NodeId)> =
            forward.iter().map(|&(_, sym, d)| (sym, d)).collect();

        let mut backward: Vec<(NodeId, Symbol, NodeId)> =
            forward.iter().map(|&(s, sym, d)| (d, sym, s)).collect();
        backward.sort_unstable_by_key(|&(d, sym, s)| (d, sym, s));
        let (in_offsets, in_sym_offsets) = offsets(&backward, n, sigma);
        let in_edges: Vec<(Symbol, NodeId)> =
            backward.iter().map(|&(_, sym, s)| (sym, s)).collect();

        // Per-label active-node bitmaps: one pass over each edge list.
        let mut label_sources: Vec<BitSet> = (0..sigma).map(|_| BitSet::new(n)).collect();
        for &(src, sym, _) in &forward {
            label_sources[sym.index()].insert(src as usize);
        }
        let mut label_targets: Vec<BitSet> = (0..sigma).map(|_| BitSet::new(n)).collect();
        for &(dst, sym, _) in &backward {
            label_targets[sym.index()].insert(dst as usize);
        }
        let counts =
            |sets: &[BitSet]| -> Vec<u32> { sets.iter().map(|s| s.len() as u32).collect() };
        let label_source_counts = counts(&label_sources);
        let label_target_counts = counts(&label_targets);
        // Edges per label (identical in both directions) → average
        // degree over each direction's active nodes, ×16 fixed point.
        let mut label_edge_counts = vec![0u64; sigma];
        for &(_, sym, _) in &forward {
            label_edge_counts[sym.index()] += 1;
        }
        let avg_deg = |counts: &[u32]| -> Vec<u32> {
            label_edge_counts
                .iter()
                .zip(counts)
                .map(|(&edges, &active)| {
                    if active == 0 {
                        0
                    } else {
                        (edges * AVG_DEG_FP / active as u64) as u32
                    }
                })
                .collect()
        };
        let label_source_avg_deg_x16 = avg_deg(&label_source_counts);
        let label_target_avg_deg_x16 = avg_deg(&label_target_counts);
        let sparse = |counts: &[u32]| -> Vec<bool> {
            counts
                .iter()
                .map(|&count| count as usize * SPARSE_LABEL_DIVISOR < n)
                .collect()
        };
        let label_sources_sparse = sparse(&label_source_counts);
        let label_targets_sparse = sparse(&label_target_counts);

        GraphDb {
            core: std::sync::Arc::new(GraphCore {
                alphabet: self.alphabet,
                node_names: self.node_names,
                name_index: self.name_index,
                out_offsets,
                out_sym_offsets,
                out_edges,
                in_offsets,
                in_sym_offsets,
                in_edges,
                label_sources,
                label_targets,
                label_source_counts,
                label_target_counts,
                label_source_avg_deg_x16,
                label_target_avg_deg_x16,
                label_sources_sparse,
                label_targets_sparse,
                label_edge_counts,
                no_label_nodes: BitSet::new(n),
            }),
            delta: None,
        }
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
        let out = graph.out_edges(v3);
        assert!(out.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(graph.successors(v3, a).len(), 3); // → v2, v3, v4
        assert_eq!(graph.successors(v3, b).len(), 0);
        assert_eq!(graph.successors(v3, c).len(), 1); // → v4
        let v4 = graph.node_id("v4").unwrap();
        // v4 in-edges: a from v3/v5/v6, b from v5, c from v3.
        assert_eq!(graph.in_edges(v4).len(), 5);
        assert_eq!(graph.predecessors(v4, c).len(), 1);
        assert_eq!(graph.predecessors(v4, b).len(), 1);
        assert_eq!(graph.out_degree(v4), 0);
    }

    #[test]
    fn step_set_follows_labels() {
        let graph = figure3_g0();
        let v1 = graph.node_id("v1").unwrap();
        let a = graph.alphabet().symbol("a").unwrap();
        let b = graph.alphabet().symbol("b").unwrap();
        let start = BitSet::from_indices(graph.num_nodes(), [v1 as usize]);
        let after_a = graph.step_set(&start, a);
        assert_eq!(after_a.len(), 1);
        assert!(after_a.contains(graph.node_id("v2").unwrap() as usize));
        let after_b = graph.step_set(&start, b);
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
            // Every subset of a 7-node graph, forward and backward.
            for mask in 0u32..(1 << n) {
                let frontier = BitSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let mut forward = BitSet::new(n);
                let mut backward = BitSet::new(n);
                for node in frontier.iter() {
                    for &(_, t) in graph.successors(node as NodeId, sym) {
                        forward.insert(t as usize);
                    }
                    for &(_, s) in graph.predecessors(node as NodeId, sym) {
                        backward.insert(s as usize);
                    }
                }
                assert_eq!(graph.step_frontier(&frontier, sym), forward);
                assert_eq!(graph.step_frontier_back(&frontier, sym), backward);
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
        graph.step_frontier_into(&frontier, c, &mut scratch);
        assert_eq!(scratch.iter().collect::<Vec<_>>(), vec![v4 as usize]);
        let mut sparse = vec![99, 98]; // stale content
        graph.step_sparse_into(&[v3], a, &mut sparse);
        let mut expected = vec![graph.node_id("v2").unwrap(), v3, v4];
        expected.sort_unstable();
        assert_eq!(sparse, expected);
        assert_eq!(graph.step_sparse(&[v3], a), sparse);
    }

    #[test]
    fn successors_of_out_of_alphabet_symbol_is_empty() {
        let graph = figure3_g0();
        let foreign = Symbol::from_index(17);
        assert!(graph.successors(0, foreign).is_empty());
        assert!(graph.predecessors(0, foreign).is_empty());
    }

    /// The bitmap invariant: membership in `label_sources(sym)` /
    /// `label_targets(sym)` is exactly "has ≥ 1 out- / in-edge labeled
    /// `sym`", checked against the per-node adjacency slices.
    fn assert_label_bitmaps_match_adjacency(graph: &GraphDb) {
        for sym in graph.alphabet().symbols() {
            for node in graph.nodes() {
                assert_eq!(
                    graph.label_sources(sym).contains(node as usize),
                    !graph.successors(node, sym).is_empty(),
                    "label_sources({sym:?}) vs successors of {node}"
                );
                assert_eq!(
                    graph.label_targets(sym).contains(node as usize),
                    !graph.predecessors(node, sym).is_empty(),
                    "label_targets({sym:?}) vs predecessors of {node}"
                );
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
        assert_eq!(graph.label_sources(c).iter().collect::<Vec<_>>(), [v3]);
        assert_eq!(graph.label_targets(c).iter().collect::<Vec<_>>(), [v4]);
    }

    #[test]
    fn label_sparsity_flags_match_bitmap_population() {
        // On G0 (7 nodes): a has 6 out-sources (dense), c has 1 (sparse:
        // 1·4 < 7). The flags must agree with the |V|/4 rule per
        // direction, and foreign symbols are never sparse (no scan).
        let graph = figure3_g0();
        for sym in graph.alphabet().symbols() {
            assert_eq!(
                graph.label_sources_sparse(sym),
                graph.label_sources(sym).len() * 4 < graph.num_nodes(),
                "sources {sym:?}"
            );
            assert_eq!(
                graph.label_targets_sparse(sym),
                graph.label_targets(sym).len() * 4 < graph.num_nodes(),
                "targets {sym:?}"
            );
        }
        let a = graph.alphabet().symbol("a").unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        assert!(!graph.label_sources_sparse(a));
        assert!(graph.label_sources_sparse(c));
        assert!(!graph.label_sources_sparse(Symbol::from_index(17)));
        assert!(!graph.label_targets_sparse(Symbol::from_index(17)));
    }

    #[test]
    fn masked_kernels_match_plain_on_every_g0_subset() {
        let graph = figure3_g0();
        let n = graph.num_nodes();
        for sym in graph.alphabet().symbols() {
            for mask in 0u32..(1 << n) {
                let frontier = BitSet::from_indices(n, (0..n).filter(|&i| mask & (1 << i) != 0));
                let mut plain = BitSet::new(n);
                let mut masked = BitSet::new(n);
                graph.step_frontier_into(&frontier, sym, &mut plain);
                graph.step_frontier_masked_into(&frontier, sym, &mut masked);
                assert_eq!(masked, plain, "forward {sym:?} {mask:b}");
                graph.step_frontier_back_into(&frontier, sym, &mut plain);
                graph.step_frontier_back_masked_into(&frontier, sym, &mut masked);
                assert_eq!(masked, plain, "backward {sym:?} {mask:b}");
            }
            let every: Vec<NodeId> = graph.nodes().collect();
            let mut plain = Vec::new();
            let mut masked = Vec::new();
            graph.step_sparse_into(&every, sym, &mut plain);
            graph.step_sparse_masked_into(&every, sym, &mut masked);
            assert_eq!(masked, plain, "sparse {sym:?}");
        }
    }

    #[test]
    fn label_counts_match_bitmap_population() {
        let graph = figure3_g0();
        for sym in graph.alphabet().symbols() {
            assert_eq!(
                graph.label_source_count(sym),
                graph.label_sources(sym).len()
            );
            assert_eq!(
                graph.label_target_count(sym),
                graph.label_targets(sym).len()
            );
        }
        assert_eq!(graph.label_source_count(Symbol::from_index(17)), 0);
        assert_eq!(graph.label_target_count(Symbol::from_index(17)), 0);
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
            graph.plan_step(&full, c, full.len(), StepPolicy::Plain),
            StepPlan::Plain
        );
        // Masked policy always masks.
        assert_eq!(
            graph.plan_step(&full, a, full.len(), StepPolicy::Masked),
            StepPlan::Masked
        );
        // Auto: full frontier over c (1 of 7 nodes active) → masked.
        assert_eq!(
            graph.plan_step(&full, c, full.len(), StepPolicy::Auto),
            StepPlan::Masked
        );
        // Auto: frontier ⊆ label-active (v3 has an out c-edge) → plain,
        // the mask cannot skip anything.
        let only_v3 = BitSet::from_indices(graph.num_nodes(), [v3]);
        assert_eq!(
            graph.plan_step(&only_v3, c, 1, StepPolicy::Auto),
            StepPlan::Plain
        );
        // Auto: frontier disjoint from label-active → skip, dense or not.
        let only_v1 = BitSet::from_indices(graph.num_nodes(), [v1]);
        assert_eq!(
            graph.plan_step(&only_v1, c, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
        // A dead frontier over a dense label (v4 has no out-edges at
        // all) is skipped too: the intersection popcount is 0.
        let v4 = graph.node_id("v4").unwrap() as usize;
        let only_v4 = BitSet::from_indices(graph.num_nodes(), [v4]);
        assert_eq!(
            graph.plan_step(&only_v4, a, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
        // Backward twin consults label_targets: only v4 has a c-in-edge.
        assert_eq!(
            graph.plan_step_back(&only_v3, c, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
        assert_eq!(
            graph.plan_step_back(&only_v4, c, 1, StepPolicy::Auto),
            StepPlan::Plain
        );
    }

    #[test]
    fn label_average_degrees_match_adjacency() {
        let graph = figure3_g0();
        for sym in graph.alphabet().symbols() {
            let edges = graph.edges().filter(|&(_, s, _)| s == sym).count() as f64;
            let sources = graph.label_source_count(sym) as f64;
            let targets = graph.label_target_count(sym) as f64;
            // Quantized to sixteenths by the fixed-point storage.
            let q = |x: f64| (x * 16.0).floor() / 16.0;
            assert_eq!(
                graph.label_source_avg_degree(sym),
                q(edges / sources),
                "source avg of {sym:?}"
            );
            assert_eq!(
                graph.label_target_avg_degree(sym),
                q(edges / targets),
                "target avg of {sym:?}"
            );
        }
        // Spot values: 9 a-edges over 6 sources = 1.5; the single c-edge
        // over one source = 1.0. Foreign symbols report 0.
        let a = graph.alphabet().symbol("a").unwrap();
        let c = graph.alphabet().symbol("c").unwrap();
        assert_eq!(graph.label_source_avg_degree(a), 1.5);
        assert_eq!(graph.label_source_avg_degree(c), 1.0);
        assert_eq!(graph.label_source_avg_degree(Symbol::from_index(17)), 0.0);
        assert_eq!(graph.label_target_avg_degree(Symbol::from_index(17)), 0.0);
    }

    #[test]
    fn degree_weighted_gate_requires_savings_to_beat_word_overhead() {
        // 640 nodes = 10 frontier words. Two labels with the *same*
        // active-set shape (one active source each) but opposite
        // weights: "h" is a 200-edge hub, "t" a single edge. With a
        // 3-node frontier the popcounts are identical (inter 1,
        // skipped 2); only the degree weight separates the verdicts.
        let mut builder = GraphBuilder::new();
        let first = builder.add_nodes("n", 640);
        let h = builder.intern("h");
        let t = builder.intern("t");
        for i in 0..200u32 {
            builder.add_edge_ids(first, h, first + 100 + i);
        }
        builder.add_edge_ids(first + 1, t, first + 2);
        let graph = builder.build();
        assert_eq!(graph.label_source_avg_degree(h), 200.0);
        assert_eq!(graph.label_source_avg_degree(t), 1.0);

        let frontier = BitSet::from_indices(640, [0, 1, 2]);
        // Heavy label: 2 skipped nodes × (2 offset reads + deg 200)
        // dwarfs the 10-word mask scan → Masked.
        assert_eq!(
            graph.plan_step(&frontier, h, 3, StepPolicy::Auto),
            StepPlan::Masked
        );
        // Feather-weight label, same popcounts: 2 × (2 + 1) < 10 words
        // of scan → Plain (the pre-weighted model masked here).
        assert_eq!(
            graph.plan_step(&frontier, t, 3, StepPolicy::Auto),
            StepPlan::Plain
        );
        // A big frontier mostly missing the active set masks even the
        // light label: 639 skipped nodes buy the scan many times over.
        let full = BitSet::full(640);
        assert_eq!(
            graph.plan_step(&full, t, 640, StepPolicy::Auto),
            StepPlan::Masked
        );
        // Disjoint frontiers still skip outright, degree notwithstanding.
        let disjoint = BitSet::from_indices(640, [5]);
        assert_eq!(
            graph.plan_step(&disjoint, h, 1, StepPolicy::Auto),
            StepPlan::Skip
        );
    }

    #[test]
    fn result_and_cost_hooks() {
        let graph = figure3_g0();
        assert_eq!(graph.result_bytes(), 8); // 7 nodes → one u64 word
                                             // O(|E|·|Q|)-shaped, positive, and monotone in |Q|.
        assert_eq!(graph.eval_cost_bound(3), (15 + 7 + 1) * 3);
        assert!(graph.eval_cost_bound(0) > 0);
        let empty = GraphBuilder::new().build();
        assert!(empty.eval_cost_bound(5) > 0);
    }

    #[test]
    fn ranged_kernels_accumulate_and_partition() {
        // On a >64-node graph, any word-aligned partition of the range
        // must reproduce the full kernel, and ranged kernels must NOT
        // clear their output buffer.
        let mut builder = GraphBuilder::new();
        let first = builder.add_nodes("n", 130);
        let a = builder.intern("a");
        for i in 0..130u32 {
            builder.add_edge_ids(first + i, a, first + (i * 7 + 1) % 130);
        }
        let graph = builder.build();
        let frontier = BitSet::from_indices(130, (0..130).filter(|i| i % 3 == 0));
        let mut full = BitSet::new(130);
        graph.step_frontier_into(&frontier, a, &mut full);
        let words = graph.num_node_words();
        assert_eq!(words, 3);
        for chunk in 1..=words {
            let mut acc = BitSet::new(130);
            let mut start = 0;
            while start < words {
                graph.step_frontier_range_into(&frontier, a, start..start + chunk, &mut acc);
                start += chunk;
            }
            assert_eq!(acc, full, "chunk {chunk}");
            let mut acc_masked = BitSet::new(130);
            let mut start = 0;
            while start < words {
                graph.step_frontier_masked_range_into(
                    &frontier,
                    a,
                    start..start + chunk,
                    &mut acc_masked,
                );
                start += chunk;
            }
            assert_eq!(acc_masked, full, "masked chunk {chunk}");
        }
        // Accumulation: a pre-existing bit survives a ranged call.
        let mut acc = BitSet::from_indices(130, [129]);
        graph.step_frontier_range_into(&frontier, a, 0..1, &mut acc);
        assert!(acc.contains(129));
        // Out-of-range word indices are clamped, not panicking.
        let mut clamped = BitSet::new(130);
        graph.step_frontier_range_into(&frontier, a, 0..words + 10, &mut clamped);
        assert_eq!(clamped, full);
    }

    #[test]
    fn label_bitmaps_of_foreign_symbol_are_empty_with_full_capacity() {
        let graph = figure3_g0();
        let foreign = Symbol::from_index(17);
        assert!(graph.label_sources(foreign).is_empty());
        assert!(graph.label_targets(foreign).is_empty());
        // Capacity |V| so frontier.intersects(bitmap) stays well-typed.
        assert_eq!(graph.label_sources(foreign).capacity(), graph.num_nodes());
        assert_eq!(graph.label_targets(foreign).capacity(), graph.num_nodes());
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
        for sym in graph.alphabet().symbols() {
            assert!(!graph.label_sources(sym).contains(isolated));
            assert!(!graph.label_targets(sym).contains(isolated));
        }
        // The c self-loop puts x in both directions.
        assert_eq!(
            graph.label_sources(c).iter().collect::<Vec<_>>(),
            [x as usize]
        );
        assert_eq!(
            graph.label_targets(c).iter().collect::<Vec<_>>(),
            [x as usize]
        );
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
        for sym in overlay.alphabet().symbols() {
            assert_eq!(
                overlay.label_sources(sym).iter().collect::<Vec<_>>(),
                compacted.label_sources(sym).iter().collect::<Vec<_>>(),
                "label_sources({sym:?})"
            );
            assert_eq!(
                overlay.label_targets(sym).iter().collect::<Vec<_>>(),
                compacted.label_targets(sym).iter().collect::<Vec<_>>(),
                "label_targets({sym:?})"
            );
            assert_eq!(
                overlay.label_source_count(sym),
                compacted.label_source_count(sym)
            );
            assert_eq!(
                overlay.label_target_count(sym),
                compacted.label_target_count(sym)
            );
            assert_eq!(
                overlay.label_source_avg_degree(sym),
                compacted.label_source_avg_degree(sym),
                "avg out-degree of {sym:?}"
            );
            assert_eq!(
                overlay.label_target_avg_degree(sym),
                compacted.label_target_avg_degree(sym),
                "avg in-degree of {sym:?}"
            );
            assert_eq!(
                overlay.label_sources_sparse(sym),
                compacted.label_sources_sparse(sym)
            );
            assert_eq!(
                overlay.label_targets_sparse(sym),
                compacted.label_targets_sparse(sym)
            );
            for node in overlay.nodes() {
                let mut via_visit = Vec::new();
                overlay.for_each_successor(node, sym, |t| via_visit.push(t));
                via_visit.sort_unstable();
                let direct: Vec<NodeId> = compacted
                    .successors(node, sym)
                    .iter()
                    .map(|&(_, t)| t)
                    .collect();
                assert_eq!(via_visit, direct, "successors of {node} over {sym:?}");
                let mut back_visit = Vec::new();
                overlay.for_each_predecessor(node, sym, |s| back_visit.push(s));
                back_visit.sort_unstable();
                let back: Vec<NodeId> = compacted
                    .predecessors(node, sym)
                    .iter()
                    .map(|&(_, s)| s)
                    .collect();
                assert_eq!(back_visit, back, "predecessors of {node} over {sym:?}");
            }
        }
        for node in overlay.nodes() {
            assert_eq!(overlay.out_degree(node), compacted.out_degree(node));
            assert_eq!(overlay.in_degree(node), compacted.in_degree(node));
            assert_eq!(
                overlay.out_edges_view(node).as_ref(),
                compacted.out_edges(node),
                "out view of {node}"
            );
            assert_eq!(
                overlay.in_edges_view(node).as_ref(),
                compacted.in_edges(node),
                "in view of {node}"
            );
        }
        // Frontier kernels, every policy-relevant flavor, every symbol,
        // from a full frontier and a couple of partial ones.
        let n = overlay.num_nodes();
        let frontiers = [
            BitSet::full(n),
            BitSet::from_indices(n, (0..n).step_by(2)),
            BitSet::from_indices(n, [0]),
        ];
        for sym in overlay.alphabet().symbols() {
            for frontier in &frontiers {
                let (mut a, mut b) = (BitSet::new(n), BitSet::new(n));
                overlay.step_frontier_into(frontier, sym, &mut a);
                compacted.step_frontier_into(frontier, sym, &mut b);
                assert_eq!(a, b, "plain forward {sym:?}");
                overlay.step_frontier_masked_into(frontier, sym, &mut a);
                assert_eq!(a, b, "masked forward {sym:?}");
                overlay.step_frontier_back_into(frontier, sym, &mut a);
                compacted.step_frontier_back_into(frontier, sym, &mut b);
                assert_eq!(a, b, "plain backward {sym:?}");
                overlay.step_frontier_back_masked_into(frontier, sym, &mut a);
                assert_eq!(a, b, "masked backward {sym:?}");
                let set: Vec<NodeId> = frontier.iter().map(|i| i as NodeId).collect();
                let (mut sa, mut sb) = (Vec::new(), Vec::new());
                overlay.step_sparse_into(&set, sym, &mut sa);
                compacted.step_sparse_into(&set, sym, &mut sb);
                assert_eq!(sa, sb, "sparse {sym:?}");
                overlay.step_sparse_masked_into(&set, sym, &mut sa);
                assert_eq!(sa, sb, "sparse masked {sym:?}");
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
        // a-edge, remove v3's only c-edge (v3 leaves label_sources(c)).
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
    fn delta_removing_every_edge_of_a_label_empties_its_bitmaps() {
        let g0 = figure3_g0();
        let c = g0.alphabet().symbol("c").unwrap();
        let (v3, v4) = (g0.node_id("v3").unwrap(), g0.node_id("v4").unwrap());
        // v3 --c--> v4 is the only c-edge in G0.
        let overlay = g0.with_delta(&[], &[(v3, c, v4)]).unwrap();
        assert!(overlay.label_sources(c).is_empty());
        assert!(overlay.label_targets(c).is_empty());
        assert_eq!(overlay.label_source_count(c), 0);
        assert_eq!(overlay.label_source_avg_degree(c), 0.0);
        assert_overlay_matches_compacted(&overlay, &overlay.compact());
    }
}

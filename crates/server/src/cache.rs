//! The canonical **result cache**: evaluated RPQ answers keyed by
//! canonical query form, with memory accounting and cost-aware eviction.
//!
//! ## Keys
//!
//! A [`CacheKey`] is a [`CanonicalQuery`] (the minimal DFA — so
//! syntactically different but equivalent submissions share one entry,
//! see `pathlearn-automata::canonical`) plus the semantics it was
//! evaluated under: monadic, or binary from one source node. Keys never
//! reference the graph: the owning [`crate::QueryService`] clears the
//! cache whenever the graph is rebuilt, so every resident entry is valid
//! for the current graph by construction.
//!
//! ## Footprints and edge deltas
//!
//! An entry may carry the [`Footprint`] its evaluation left: the reached
//! set of every state of its product search. An edge delta judges only
//! the entries whose live alphabet it touches
//! ([`ResultCache::patch_edges`]). One whose footprint no edge of the
//! batch hits is unchanged and stays (`cache.spared`). One it hits hands
//! its answer and footprint over to the caller's patch, which returns the
//! new answer and footprint (`cache.patched`) or gives up, and then the
//! entry is dropped (`cache.invalidated`), as is every hit entry without
//! a footprint. A
//! patched entry keeps its cost and its place in the eviction order; its
//! bytes are accounted again, and entries are evicted if they no longer
//! fit. Footprint bytes are resident bytes: they count against the budget
//! and in the entry's GDSF size, so footprinted entries are evicted
//! sooner than bare ones of the same cost.
//!
//! ## Eviction: GDSF (Greedy-Dual-Size-Frequency)
//!
//! Every entry carries its **evaluation cost** (any monotone measure of
//! the work recomputing it takes; the service supplies a deterministic
//! one — frontier nodes plus step tasks over the evaluation's levels —
//! so the same submissions evict the same victims on every run) and its
//! **resident bytes** (the result bitset's blocks —
//! `GraphDb::result_bytes` per monadic/binary answer — plus its
//! footprint and key). Priority is the classic GDSF value
//!
//! ```text
//! priority = clock + cost / bytes
//! ```
//!
//! refreshed on every hit (recency/frequency) with the global `clock`
//! rising to each evicted entry's priority (aging). Eviction removes the
//! minimum-priority entry until the new insertion fits, so what survives
//! pressure is what is *expensive to recompute per byte kept* and
//! recently useful — a cheap one-level query is let go before a deep
//! product BFS of the same size. Ties (integer costs tie often) go to
//! the smaller `(fingerprint, kind)`, then to the earlier insertion, so
//! the victim never depends on `HashMap` iteration order. The victims
//! wait in an ordered index beside the map, so an evicting insert takes
//! `O(log n)`, not a scan over every resident entry.

use crate::telemetry::{Counter, MetricsRegistry};
use pathlearn_automata::{BitSet, CanonicalQuery, Symbol};
use pathlearn_graph::{Edge, Footprint, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The **live alphabet** of a canonical query: the symbols with at least
/// one defined transition in its minimal DFA, sorted. A graph delta that
/// touches none of these labels provably cannot change the query's
/// answer — the label-aware invalidation rule of
/// [`ResultCache::invalidate_labels`]. The minimizer records the set
/// when the key is built ([`CanonicalQuery::live_symbols`]), so this
/// reads a field.
pub fn live_alphabet(query: &CanonicalQuery) -> &[u32] {
    query.live_symbols()
}

/// `true` iff the sorted live-alphabet slice intersects `touched`.
pub(crate) fn intersects(live: &[u32], touched: &[Symbol]) -> bool {
    touched
        .iter()
        .any(|sym| live.binary_search(&(sym.index() as u32)).is_ok())
}

/// The labels an edge batch names, sorted and deduplicated.
pub(crate) fn touched_labels(add: &[Edge], remove: &[Edge]) -> Vec<Symbol> {
    let mut touched: Vec<Symbol> = add.iter().chain(remove).map(|&(_, sym, _)| sym).collect();
    touched.sort_unstable_by_key(|sym| sym.index());
    touched.dedup();
    touched
}

/// Fixed per-entry overhead charged on top of the result bitset's blocks
/// and the key's DFA table (hash-map slot, `Arc` headers, bookkeeping)
/// so thousands of tiny results cannot blow past the configured budget
/// unaccounted.
const ENTRY_OVERHEAD_BYTES: usize = 256;

/// Accounted resident bytes of one entry: the result's blocks, its
/// footprint's sets, the canonical key's dense DFA table and finals
/// bitmap (the key is what keeps a large submitted query resident — it
/// must count against the budget), and the fixed overhead.
fn entry_bytes(key: &CacheKey, value: &BitSet, footprint: Option<&Footprint>) -> usize {
    let dfa = key.query.dfa();
    let table_bytes = dfa.num_states() * dfa.alphabet_len() * std::mem::size_of::<u32>();
    let finals_bytes = dfa.num_states().div_ceil(BitSet::BLOCK_BITS) * std::mem::size_of::<u64>();
    std::mem::size_of_val(value.as_blocks())
        + footprint.map_or(0, Footprint::bytes)
        + table_bytes
        + finals_bytes
        + ENTRY_OVERHEAD_BYTES
}

/// Which evaluation semantics a cached result answers. Ordered
/// `Monadic < Binary(source)`, binary by source — the kind component of
/// the eviction tie-break.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// `q(G)` — the monadic selected-node set.
    Monadic,
    /// Binary semantics from one fixed source node.
    Binary(NodeId),
}

/// A result-cache key: canonical query form × evaluation semantics.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The canonical (minimal-DFA) form of the submitted query.
    pub query: CanonicalQuery,
    /// Monadic or binary-from-source semantics.
    pub kind: QueryKind,
}

impl CacheKey {
    /// Key for the monadic result of `query`.
    pub fn monadic(query: CanonicalQuery) -> Self {
        CacheKey {
            query,
            kind: QueryKind::Monadic,
        }
    }

    /// Key for the binary result of `query` from `source`.
    pub fn binary(query: CanonicalQuery, source: NodeId) -> Self {
        CacheKey {
            query,
            kind: QueryKind::Binary(source),
        }
    }
}

/// Sizing knobs for [`ResultCache`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Resident-byte budget (result blocks + footprints + keys +
    /// per-entry overhead).
    /// Entries larger than the whole budget are never admitted; an entry
    /// exactly at the budget is (the budget is inclusive). A zero-byte
    /// budget is a valid configuration that rejects every insertion —
    /// caching disabled, every lookup a miss.
    pub capacity_bytes: usize,
}

impl Default for CacheConfig {
    /// 64 MiB — roughly 17k cached answers on a 30k-node graph.
    fn default() -> Self {
        CacheConfig {
            capacity_bytes: 64 << 20,
        }
    }
}

/// Counters exposed by [`ResultCache::stats`] — a point-in-time view
/// over the cache's live telemetry [`Counter`]s.
#[derive(Clone, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a resident entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Successful insertions.
    pub insertions: u64,
    /// Entries evicted under memory pressure.
    pub evictions: u64,
    /// Insertions rejected because one entry exceeded the whole budget.
    pub rejected: u64,
    /// Entries dropped by delta invalidation
    /// ([`ResultCache::patch_edges`],
    /// [`ResultCache::invalidate_labels`]).
    pub invalidated: u64,
    /// Entries whose live alphabet a delta touched but whose footprint
    /// its edges missed, so they stayed resident.
    pub spared: u64,
    /// Entries a delta's edges hit whose answer was patched in place of
    /// being dropped.
    pub patched: u64,
}

/// What [`ResultCache::patch_edges`] did with the entries a batch hit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EdgeOutcome {
    /// Entries dropped.
    pub dropped: usize,
    /// Entries whose answer and footprint were patched.
    pub patched: usize,
}

/// The cache's live counter handles. The cache increments these at its
/// mutation sites; [`CacheCounters::register`] publishes the same
/// handles in a [`MetricsRegistry`] under the stable `cache.*` names,
/// so the `/metrics` exposition and [`ResultCache::stats`] read the
/// same atomics.
#[derive(Clone, Default)]
pub(crate) struct CacheCounters {
    pub(crate) hits: Counter,
    pub(crate) misses: Counter,
    pub(crate) insertions: Counter,
    pub(crate) evictions: Counter,
    pub(crate) rejected: Counter,
    pub(crate) invalidated: Counter,
    pub(crate) spared: Counter,
    pub(crate) patched: Counter,
}

impl CacheCounters {
    /// Publishes the live handles under their `cache.*` names.
    pub(crate) fn register(&self, registry: &MetricsRegistry) {
        registry.adopt_counter("cache.hits", self.hits.clone());
        registry.adopt_counter("cache.misses", self.misses.clone());
        registry.adopt_counter("cache.insertions", self.insertions.clone());
        registry.adopt_counter("cache.evictions", self.evictions.clone());
        registry.adopt_counter("cache.rejected", self.rejected.clone());
        registry.adopt_counter("cache.invalidated", self.invalidated.clone());
        registry.adopt_counter("cache.spared", self.spared.clone());
        registry.adopt_counter("cache.patched", self.patched.clone());
    }
}

struct Entry {
    value: Arc<BitSet>,
    footprint: Option<Footprint>,
    bytes: usize,
    cost: u64,
    priority: f64,
    /// Insertion number: the last component of the eviction order.
    seq: u64,
}

/// An entry's place in the eviction order, compared as the victim rule
/// reads: priority (as [`f64::total_cmp`] orders it), fingerprint,
/// kind, then insertion number — unique per resident entry.
type Rank = (u64, u64, QueryKind, u64);

fn rank(key: &CacheKey, priority: f64, seq: u64) -> Rank {
    // The order-preserving bits of `total_cmp`: negatives flip every
    // bit, the rest gain the sign bit.
    let bits = priority.to_bits();
    let ordered = if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    };
    (ordered, key.query.fingerprint(), key.kind, seq)
}

/// The cost-aware result cache. Single-threaded by design — the owning
/// [`crate::QueryService`] guards it with its state mutex, keeping every
/// lookup-or-register decision atomic with the in-flight table.
pub struct ResultCache {
    map: HashMap<Arc<CacheKey>, Entry>,
    /// Every resident key by its [`Rank`]; the first is the next victim.
    order: BTreeMap<Rank, Arc<CacheKey>>,
    next_seq: u64,
    bytes: usize,
    capacity_bytes: usize,
    /// GDSF aging clock: rises to each evicted priority, so long-resident
    /// entries must keep earning hits to outrank fresh insertions.
    clock: f64,
    counters: CacheCounters,
}

impl ResultCache {
    /// Creates an empty cache with `config`'s byte budget.
    pub fn new(config: CacheConfig) -> Self {
        ResultCache {
            map: HashMap::new(),
            order: BTreeMap::new(),
            next_seq: 0,
            bytes: 0,
            capacity_bytes: config.capacity_bytes,
            clock: 0.0,
            counters: CacheCounters::default(),
        }
    }

    fn priority(&self, cost: u64, bytes: usize) -> f64 {
        self.clock + cost as f64 / bytes.max(1) as f64
    }

    /// Looks `key` up, refreshing its GDSF priority on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<BitSet>> {
        let hit = self.get_resident(key);
        if hit.is_none() {
            self.counters.misses.inc();
        }
        hit
    }

    /// [`ResultCache::get`] for a probe that runs *ahead of* the real
    /// lookup: a hit counts and refreshes exactly as `get`'s, a miss
    /// counts nothing — its caller goes on to the admitted path, which
    /// counts that miss once.
    pub(crate) fn get_resident(&mut self, key: &CacheKey) -> Option<Arc<BitSet>> {
        let clock = self.clock;
        let entry = self.map.get_mut(key)?;
        let priority = clock + entry.cost as f64 / entry.bytes.max(1) as f64;
        if priority.to_bits() != entry.priority.to_bits() {
            let shared = self
                .order
                .remove(&rank(key, entry.priority, entry.seq))
                .expect("resident entries are ranked");
            entry.priority = priority;
            self.order.insert(rank(key, priority, entry.seq), shared);
        }
        self.counters.hits.inc();
        Some(entry.value.clone())
    }

    /// Inserts an evaluated result with its evaluation cost and no
    /// footprint: a delta on its live alphabet drops it
    /// ([`ResultCache::insert_with_footprint`]).
    pub fn insert(&mut self, key: CacheKey, value: Arc<BitSet>, cost: u64) -> bool {
        self.insert_with_footprint(key, value, cost, None)
    }

    /// Inserts an evaluated result with its evaluation cost and the
    /// footprint its evaluation left, evicting minimum-priority entries
    /// until it fits. Returns `false` (and caches nothing) when the
    /// single entry exceeds the whole budget — which is every entry
    /// under a zero-byte budget, since an entry's accounted size is
    /// always positive; an entry exactly at the budget is admitted
    /// (evicting everything else). Re-inserting an existing key replaces
    /// the entry. Byte accounting uses checked subtraction: an underflow
    /// would mean a corrupt ledger, and failing loudly beats silently
    /// serving with a wrapped budget.
    pub fn insert_with_footprint(
        &mut self,
        key: CacheKey,
        value: Arc<BitSet>,
        cost: u64,
        footprint: Option<Footprint>,
    ) -> bool {
        let bytes = entry_bytes(&key, &value, footprint.as_ref());
        if bytes > self.capacity_bytes {
            self.counters.rejected.inc();
            return false;
        }
        if let Some(old) = self.map.remove(&key) {
            self.order.remove(&rank(&key, old.priority, old.seq));
            self.bytes = self
                .bytes
                .checked_sub(old.bytes)
                .expect("cache byte ledger underflow on replacement");
        }
        self.evict_until_fits(bytes);
        let priority = self.priority(cost, bytes);
        let seq = self.next_seq;
        self.next_seq += 1;
        let key = Arc::new(key);
        self.order.insert(rank(&key, priority, seq), key.clone());
        self.bytes += bytes;
        self.map.insert(
            key,
            Entry {
                value,
                footprint,
                bytes,
                cost,
                priority,
                seq,
            },
        );
        self.counters.insertions.inc();
        true
    }

    /// Evicts minimum-priority entries until `extra` more bytes fit.
    fn evict_until_fits(&mut self, extra: usize) {
        while self.bytes + extra > self.capacity_bytes {
            let Some((_, victim)) = self.order.pop_first() else {
                break;
            };
            let evicted = self.map.remove(&*victim).expect("victim resident");
            self.bytes = self
                .bytes
                .checked_sub(evicted.bytes)
                .expect("cache byte ledger underflow on eviction");
            self.clock = self.clock.max(evicted.priority);
            self.counters.evictions.inc();
        }
    }

    /// Label-aware invalidation: drops exactly the entries whose live
    /// alphabet intersects `touched` (an edge delta over other labels
    /// cannot change their answers — their canonical DFAs never step
    /// through a touched symbol), footprint or not. Returns the number
    /// of dropped entries. The complement — including plans and every
    /// result over disjoint labels — survives, which is the whole point
    /// of delta-based updates over rebuild-the-world.
    pub fn invalidate_labels(&mut self, touched: &[Symbol]) -> usize {
        self.invalidate(touched, None, |_, _, _, _| None).dropped
    }

    /// Brings the cache up to the batch `(G ∖ remove) ∪ add`. Of the
    /// entries [`ResultCache::invalidate_labels`] would drop, it keeps
    /// those whose footprint no edge of the batch hits
    /// ([`Footprint::hit_by`] — their answers, and their footprints, are
    /// unchanged), counted in `cache.spared`. It hands each hit entry's
    /// key, answer, footprint and cost to `patch`, and stores the answer
    /// and footprint it returns as a new `Arc` (`cache.patched`). An
    /// entry `patch` returns `None` for, or that has no footprint, is
    /// dropped (`cache.invalidated`).
    ///
    /// `patch` owns what it is handed, so it can move the buffers into
    /// its result instead of copying them ([`EvalPool::patch`]). The
    /// footprint is the entry's own. So is the answer, unless a reader
    /// still holds its `Arc`: then `patch` gets a copy, and the reader
    /// keeps the old answer.
    ///
    /// [`EvalPool::patch`]: pathlearn_graph::EvalPool::patch
    pub fn patch_edges(
        &mut self,
        add: &[Edge],
        remove: &[Edge],
        patch: impl FnMut(&CacheKey, BitSet, Footprint, u64) -> Option<(BitSet, Footprint)>,
    ) -> EdgeOutcome {
        self.invalidate(&touched_labels(add, remove), Some((add, remove)), patch)
    }

    fn invalidate(
        &mut self,
        touched: &[Symbol],
        edges: Option<(&[Edge], &[Edge])>,
        mut patch: impl FnMut(&CacheKey, BitSet, Footprint, u64) -> Option<(BitSet, Footprint)>,
    ) -> EdgeOutcome {
        let ResultCache {
            map, order, bytes, ..
        } = self;
        let before = map.len();
        let (mut spared, mut patched) = (0, 0);
        // What a patched entry holds while its patch runs.
        let taken = Arc::new(BitSet::new(0));
        map.retain(|key, entry| {
            if !intersects(live_alphabet(&key.query), touched) {
                return true;
            }
            let replacement = match (edges, entry.footprint.take()) {
                (Some((add, remove)), Some(footprint)) => {
                    if !footprint.hit_by(key.query.dfa(), &entry.value, add, remove) {
                        entry.footprint = Some(footprint);
                        spared += 1;
                        return true;
                    }
                    let answer = std::mem::replace(&mut entry.value, taken.clone());
                    let answer = Arc::try_unwrap(answer).unwrap_or_else(|shared| (*shared).clone());
                    patch(key, answer, footprint, entry.cost)
                }
                _ => None,
            };
            *bytes = bytes
                .checked_sub(entry.bytes)
                .expect("cache byte ledger underflow on invalidation");
            let Some((value, footprint)) = replacement else {
                order.remove(&rank(key, entry.priority, entry.seq));
                return false;
            };
            entry.value = Arc::new(value);
            entry.bytes = entry_bytes(key, &entry.value, Some(&footprint));
            entry.footprint = Some(footprint);
            *bytes += entry.bytes;
            patched += 1;
            true
        });
        let dropped = before - map.len();
        self.counters.invalidated.add(dropped as u64);
        self.counters.spared.add(spared);
        self.counters.patched.add(patched as u64);
        self.evict_until_fits(0);
        EdgeOutcome { dropped, patched }
    }

    /// Drops every entry (graph rebuild invalidation). Stats and the
    /// aging clock survive — they describe the cache's lifetime, not one
    /// graph's.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.bytes = 0;
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` iff no entry is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Accounted resident bytes (blocks + footprints + per-entry
    /// overhead).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Lifetime counters — a point-in-time view over the live
    /// telemetry handles (`CacheCounters`).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.counters.hits.get(),
            misses: self.counters.misses.get(),
            insertions: self.counters.insertions.get(),
            evictions: self.counters.evictions.get(),
            rejected: self.counters.rejected.get(),
            invalidated: self.counters.invalidated.get(),
            spared: self.counters.spared.get(),
            patched: self.counters.patched.get(),
        }
    }

    /// The live counter handles, for registry registration by the
    /// owning service.
    pub(crate) fn counters(&self) -> &CacheCounters {
        &self.counters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathlearn_automata::{Alphabet, Regex};
    use pathlearn_graph::NodeSet;

    fn key(expr: &str) -> CacheKey {
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        CacheKey::monadic(CanonicalQuery::new(
            &Regex::parse(expr, &alphabet).unwrap().to_dfa(3),
        ))
    }

    fn value(bits: usize) -> Arc<BitSet> {
        Arc::new(BitSet::new(bits))
    }

    /// Budget that fits exactly `n` entries of the shape the tests use
    /// (single-word result, 2-state canonical key over 3 symbols).
    fn config_for(n: usize) -> CacheConfig {
        CacheConfig {
            capacity_bytes: n * entry_bytes(&key("a"), &value(64), None),
        }
    }

    #[test]
    fn hit_and_miss_accounting() {
        let mut cache = ResultCache::new(CacheConfig::default());
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.insert(key("a"), value(64), 1000));
        assert!(cache.get(&key("a")).is_some());
        // Equivalent spellings share the entry — the canonicalization
        // contract the service relies on.
        assert!(cache.get(&key("a+a")).is_some());
        assert_eq!(cache.stats().hits, 2);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn eviction_prefers_cheap_entries() {
        // Two entries of equal size: the cost-100 one goes before the
        // cost-100,000 one, regardless of insertion order.
        let mut cache = ResultCache::new(config_for(2));
        cache.insert(key("a"), value(64), 100_000);
        cache.insert(key("b"), value(64), 100);
        cache.insert(key("c"), value(64), 50_000);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key("a")).is_some(), "expensive entry survives");
        assert!(cache.get(&key("b")).is_none(), "cheap entry evicted");
        assert!(cache.get(&key("c")).is_some());
    }

    #[test]
    fn equal_priorities_evict_in_fingerprint_then_kind_order() {
        // Five same-size, same-cost entries: the three kinds of one
        // query share a fingerprint and fall Monadic, Binary(0),
        // Binary(1); whichever query has the smaller fingerprint goes
        // first as a whole — never `HashMap` order.
        let (a, b) = (key("a").query, key("b").query);
        let (low, high) = if a.fingerprint() < b.fingerprint() {
            (a, b)
        } else {
            (b, a)
        };
        let expected = [
            CacheKey::monadic(low.clone()),
            CacheKey::binary(low.clone(), 0),
            CacheKey::binary(low, 1),
            CacheKey::monadic(high.clone()),
            CacheKey::binary(high, 7),
        ];
        let mut cache = ResultCache::new(config_for(5));
        for i in [3, 1, 4, 0, 2] {
            cache.insert(expected[i].clone(), value(64), 10);
        }
        // Same-size newcomers, too dear to ever be the victim.
        let dear = ["c", "a+b", "a+c", "b+c", "a+b+c"];
        for (evicted, expr) in dear.iter().enumerate() {
            cache.insert(key(expr), value(64), 1 << 40);
            for (i, k) in expected.iter().enumerate() {
                assert_eq!(
                    cache.map.contains_key(k),
                    i > evicted,
                    "{i} after {evicted}"
                );
            }
        }
    }

    #[test]
    fn aging_clock_lets_fresh_entries_displace_stale_expensive_ones() {
        // One-entry cache: each insertion evicts the resident entry and
        // advances the clock to its priority, so even a very expensive
        // entry cannot pin the cache forever once it stops being hit.
        let mut cache = ResultCache::new(config_for(1));
        cache.insert(key("a"), value(64), u64::MAX / 2);
        cache.insert(key("b"), value(64), 10);
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.get(&key("b")).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn key_dfa_bytes_count_against_the_budget() {
        // Budget covering the result blocks + fixed overhead but not
        // the key's DFA table: the entry must be rejected — otherwise
        // bulky canonical keys would pin unaccounted memory.
        let without_key = std::mem::size_of_val(value(64).as_blocks()) + ENTRY_OVERHEAD_BYTES;
        let mut cache = ResultCache::new(CacheConfig {
            capacity_bytes: without_key,
        });
        assert!(!cache.insert(key("a"), value(64), 10));
        assert_eq!(cache.stats().rejected, 1);
        // With the key accounted, the same entry fits exactly.
        let mut cache = ResultCache::new(config_for(1));
        assert!(cache.insert(key("a"), value(64), 10));
        assert_eq!(cache.bytes(), cache.capacity_bytes());
    }

    #[test]
    fn oversized_entries_are_rejected_not_thrashed() {
        let mut cache = ResultCache::new(CacheConfig { capacity_bytes: 64 });
        assert!(!cache.insert(key("a"), value(1 << 16), 1000));
        assert_eq!(cache.stats().rejected, 1);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn zero_byte_budget_rejects_everything_without_underflow() {
        // Regression: capacity 0 is "caching disabled", and the
        // rejection must happen before any ledger mutation — repeated
        // inserts and gets must never drive `bytes` below zero or leave
        // phantom entries.
        let mut cache = ResultCache::new(CacheConfig { capacity_bytes: 0 });
        for round in 0..3 {
            assert!(!cache.insert(key("a"), value(64), 10), "round {round}");
            assert!(!cache.insert(key("b"), value(64), 1_000), "round {round}");
            assert!(cache.get(&key("a")).is_none(), "round {round}");
            assert_eq!(cache.len(), 0, "round {round}");
            assert_eq!(cache.bytes(), 0, "round {round}");
        }
        assert_eq!(cache.stats().rejected, 6);
        assert_eq!(cache.stats().insertions, 0);
        assert_eq!(cache.stats().evictions, 0);
        cache.clear();
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn exactly_at_budget_entries_fill_replace_and_never_underflow() {
        // Regression: an entry whose accounted size equals the whole
        // budget is admitted (the budget is inclusive), a second one
        // evicts the first cleanly, and an in-place replacement at full
        // budget must not double-subtract the old entry's bytes.
        let mut cache = ResultCache::new(config_for(1));
        assert!(cache.insert(key("a"), value(64), 10));
        assert_eq!(cache.bytes(), cache.capacity_bytes());
        assert_eq!(cache.len(), 1);
        // Different key, same exact size: evict-then-admit at the boundary.
        assert!(cache.insert(key("b"), value(64), 20));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), cache.capacity_bytes());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.get(&key("b")).is_some());
        // Same key replaced in place at full budget: no eviction, no
        // ledger drift.
        assert!(cache.insert(key("b"), value(64), 30));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), cache.capacity_bytes());
        assert_eq!(cache.stats().evictions, 1);
        // One byte less than the entry takes the documented rejection
        // path instead.
        let mut tight = ResultCache::new(CacheConfig {
            capacity_bytes: config_for(1).capacity_bytes - 1,
        });
        assert!(!tight.insert(key("a"), value(64), 10));
        assert_eq!(tight.stats().rejected, 1);
        assert_eq!((tight.len(), tight.bytes()), (0, 0));
    }

    #[test]
    fn reinsert_replaces_and_reaccounts() {
        let mut cache = ResultCache::new(CacheConfig::default());
        cache.insert(key("a"), value(64), 10);
        let bytes = cache.bytes();
        cache.insert(key("a"), value(64), 99);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), bytes, "replacement does not double-count");
        assert_eq!(cache.stats().insertions, 2);
    }

    #[test]
    fn clear_empties_but_keeps_lifetime_stats() {
        let mut cache = ResultCache::new(CacheConfig::default());
        cache.insert(key("a"), value(64), 10);
        cache.get(&key("a"));
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.get(&key("a")).is_none());
        assert_eq!(
            cache.capacity_bytes(),
            CacheConfig::default().capacity_bytes
        );
    }

    #[test]
    fn label_invalidation_kills_only_intersecting_live_alphabets() {
        let mut cache = ResultCache::new(CacheConfig::default());
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        cache.insert(key("a"), value(64), 10);
        cache.insert(key("b·b"), value(64), 10);
        cache.insert(key("(a+c)*"), value(64), 10);
        let bytes_before = cache.bytes();
        // Touching c kills (a+c)* but not a or b·b.
        let c = alphabet.symbol("c").unwrap();
        assert_eq!(cache.invalidate_labels(&[c]), 1);
        assert_eq!(cache.len(), 2);
        assert!(cache.bytes() < bytes_before);
        assert!(cache.get(&key("a")).is_some());
        assert!(cache.get(&key("b·b")).is_some());
        assert!(cache.get(&key("(a+c)*")).is_none());
        // Touching a label no resident query reads drops nothing: the
        // queries a and b·b have live alphabets {a} and {b}.
        assert_eq!(cache.invalidate_labels(&[c]), 0);
        assert_eq!(cache.stats().invalidated, 1);
        // Touching a kills the a entry.
        let a = alphabet.symbol("a").unwrap();
        assert_eq!(cache.invalidate_labels(&[a]), 1);
        assert!(cache.get(&key("a")).is_none());
        assert!(cache.get(&key("b·b")).is_some());
    }

    #[test]
    fn live_alphabet_is_the_canonical_dfas_stepped_symbols() {
        // Canonicalization prunes what the raw regex mentions but the
        // minimal DFA never steps through: a + a·b·∅-ish spellings.
        assert_eq!(live_alphabet(&key("a").query), &[0]);
        assert_eq!(live_alphabet(&key("a·(b+c)").query), &[0, 1, 2]);
        // ε has an empty live alphabet: no delta can ever kill it.
        assert!(live_alphabet(&key("eps").query).is_empty());
        let mut cache = ResultCache::new(CacheConfig::default());
        cache.insert(key("eps"), value(64), 10);
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        let all: Vec<_> = alphabet.symbols().collect();
        assert_eq!(cache.invalidate_labels(&all), 0);
        assert_eq!(cache.len(), 1);
    }

    /// [`ResultCache::patch_edges`] with a patch that always gives up:
    /// the number of entries the batch drops.
    fn drop_hit(cache: &mut ResultCache, add: &[Edge], remove: &[Edge]) -> usize {
        cache.patch_edges(add, remove, |_, _, _, _| None).dropped
    }

    /// A node set over a 1,024-node graph (16 blocks, 128 bytes).
    fn nodes(members: impl IntoIterator<Item = usize>) -> NodeSet {
        NodeSet::of(&BitSet::from_indices(1024, members))
    }

    #[test]
    fn footprint_bytes_count_on_both_sides_of_the_list_bitset_crossover() {
        // 31 members take 124 list bytes, under the bitset's 128; 32
        // members would take 128, so they stay a bitset.
        let bare = entry_bytes(&key("a"), &value(1024), None);
        for (members, footprint_bytes) in [(0, 0), (31, 124), (32, 128), (1024, 128)] {
            let set = nodes(0..members);
            assert_eq!(
                matches!(set, NodeSet::List(_)),
                members < 32,
                "{members} members"
            );
            let footprint = Footprint::Forward {
                source: 0,
                reached: vec![Some(set), None],
            };
            assert_eq!(footprint.bytes(), footprint_bytes);
            let mut cache = ResultCache::new(CacheConfig::default());
            cache.insert_with_footprint(key("a"), value(1024), 10, Some(footprint));
            assert_eq!(cache.bytes(), bare + footprint_bytes, "{members} members");
        }
    }

    /// The forward footprint of `a·b` from node 3 on a graph whose only
    /// edge out of 3 is `3 -a-> 4` and where 4 has no b-edge: no set at
    /// the final state, whose reached set is the answer.
    fn a_then_b_from_3() -> (CacheKey, Footprint) {
        let query = key("a·b").query;
        let dfa = query.dfa();
        let q1 = dfa.step_raw(dfa.initial(), Symbol::from_index(0));
        let mut reached = vec![None; dfa.num_states()];
        reached[dfa.initial() as usize] = Some(nodes([3]));
        reached[q1 as usize] = Some(nodes([4]));
        let footprint = Footprint::Forward { source: 3, reached };
        (CacheKey::binary(query, 3), footprint)
    }

    #[test]
    fn an_entry_survives_edges_that_miss_its_footprint_and_dies_on_a_hit() {
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        let [a, b, _] = [0, 1, 2].map(Symbol::from_index);
        let (binary, footprint) = a_then_b_from_3();
        let mut cache = ResultCache::new(CacheConfig::default());
        cache.insert_with_footprint(binary.clone(), value(1024), 10, Some(footprint));
        cache.insert(key("c"), value(64), 10);
        // Edges out of nodes the search never reached: spared, counted.
        assert_eq!(drop_hit(&mut cache, &[(5, a, 3)], &[(9, b, 4)]), 0);
        assert_eq!(cache.stats().spared, 1);
        // An edge of a label the entry never reads is not a spare: the
        // label rule already keeps it. The bare c entry dies.
        let c = alphabet.symbol("c").unwrap();
        assert_eq!(drop_hit(&mut cache, &[(3, c, 4)], &[]), 1);
        assert!(cache.get(&key("c")).is_none());
        assert_eq!(cache.stats().spared, 1);
        assert!(cache.get(&binary).is_some());
        // Removing a b-edge out of 4 the search never stepped (it did
        // not reach 0 at the final state) spares it too.
        assert_eq!(drop_hit(&mut cache, &[], &[(4, b, 0)]), 0);
        assert_eq!(cache.stats().spared, 2);
        // Removing the edge the search stepped kills it.
        let bytes = cache.bytes();
        assert_eq!(drop_hit(&mut cache, &[], &[(3, a, 4)]), 1);
        assert!(cache.get(&binary).is_none());
        assert!(cache.bytes() < bytes);
        assert_eq!(cache.stats().invalidated, 2);
        assert_eq!(cache.stats().spared, 2);
    }

    #[test]
    fn a_patched_entry_gets_a_new_answer_and_is_accounted_again() {
        let [_, b, _] = [0, 1, 2].map(Symbol::from_index);
        let (binary, footprint) = a_then_b_from_3();
        let mut cache = ResultCache::new(CacheConfig::default());
        let old = value(1024);
        cache.insert_with_footprint(binary.clone(), old.clone(), 10, Some(footprint.clone()));
        let bytes = cache.bytes();
        // 4 gains a b-edge to 9: the patch is handed the entry and its
        // cost, and its answer and footprint replace the old ones.
        let mut patched_footprint = footprint.clone();
        let Footprint::Forward { reached, .. } = &mut patched_footprint else {
            unreachable!()
        };
        reached[binary.query.dfa().initial() as usize] = Some(nodes(0..200));
        let outcome = cache.patch_edges(&[(4, b, 9)], &[], |key, answer, seen, cost| {
            assert_eq!(
                (key, &answer, &seen, cost),
                (&binary, &*old, &footprint, 10)
            );
            Some((BitSet::from_indices(1024, [9]), patched_footprint.clone()))
        });
        assert_eq!(
            outcome,
            EdgeOutcome {
                dropped: 0,
                patched: 1
            }
        );
        let served = cache.get(&binary).expect("a patched entry stays resident");
        assert!(!Arc::ptr_eq(&served, &old), "readers keep the old answer");
        assert_eq!(served.iter().collect::<Vec<_>>(), [9]);
        assert_eq!(
            cache.bytes(),
            bytes - 4 + 128,
            "the grown footprint is counted"
        );
        let stats = cache.stats();
        assert_eq!((stats.patched, stats.invalidated, stats.spared), (1, 0, 0));
        // A patch that gives up drops the entry.
        assert_eq!(
            cache.patch_edges(&[(4, b, 300)], &[], |_, _, _, _| None),
            EdgeOutcome {
                dropped: 1,
                patched: 0
            }
        );
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        // A patch that no longer fits the budget is evicted.
        let mut tight = ResultCache::new(CacheConfig {
            capacity_bytes: bytes,
        });
        tight.insert_with_footprint(binary.clone(), value(1024), 10, Some(footprint));
        let outcome = tight.patch_edges(&[(4, b, 9)], &[], |_, _, _, _| {
            Some((BitSet::from_indices(1024, [9]), patched_footprint.clone()))
        });
        assert_eq!(outcome.patched, 1);
        assert!(tight.is_empty());
        assert_eq!((tight.bytes(), tight.stats().evictions), (0, 1));
    }

    #[test]
    fn monadic_footprints_read_finals_as_every_node_and_q0_as_the_answer() {
        // 0 -a-> 1 -b-> 2 over eight nodes: a·b selects {0}, and its
        // search reached {1} at the middle state.
        let mut builder =
            pathlearn_graph::GraphBuilder::with_alphabet(Alphabet::from_labels(["a", "b", "c"]));
        builder.add_nodes("n", 8);
        let [a, b, _] = [0, 1, 2].map(Symbol::from_index);
        builder.add_edge_ids(0, a, 1);
        builder.add_edge_ids(1, b, 2);
        let graph = builder.build();
        let query = key("a·b").query;
        let dfa = query.dfa();
        let plan = pathlearn_graph::QueryPlan::forward(dfa);
        let mut scratch = pathlearn_graph::EvalScratch::new();
        let answer = pathlearn_graph::EvalPool::sequential()
            .evaluate(
                &mut scratch,
                &plan,
                &graph,
                pathlearn_graph::Goal::Monadic,
                &pathlearn_graph::CancelToken::never(),
            )
            .unwrap();
        assert_eq!(answer.iter().collect::<Vec<_>>(), [0]);
        let footprint = scratch.footprint(&plan).expect("ran to its fixpoint");
        let (q0, q1) = (dfa.initial(), dfa.step_raw(dfa.initial(), a));
        let qf = dfa.step_raw(q1, b);
        let Footprint::Monadic(sets) = &footprint else {
            panic!("monadic footprint expected: {footprint:?}");
        };
        assert_eq!(sets[q0 as usize], None, "q₀ is the answer");
        assert_eq!(sets[qf as usize], None, "finals are every node");
        assert_eq!(
            sets[q1 as usize],
            Some(NodeSet::List(Box::new([1]))),
            "the middle state is stored"
        );
        let hit = |add: &[Edge], remove: &[Edge]| footprint.hit_by(dfa, &answer, add, remove);
        // Finals: any b-edge into any node from a node not yet at q1 is
        // a new pair; one from node 1, which is, adds nothing.
        assert!(hit(&[(5, b, 6)], &[]));
        assert!(!hit(&[(1, b, 6)], &[]));
        // q₀: an a-edge into node 1 adds a pair unless its source is
        // already selected; removing one from a selected node may lose
        // one, removing an absent one from another node cannot.
        assert!(hit(&[(3, a, 1)], &[]));
        assert!(!hit(&[(0, a, 1)], &[]));
        assert!(hit(&[], &[(0, a, 1)]));
        assert!(!hit(&[], &[(4, a, 1)]));
        // An a-edge into a node outside R[q1] is never expanded.
        assert!(!hit(&[(3, a, 5)], &[(0, a, 5)]));
        // The same verdicts through the cache.
        let mut cache = ResultCache::new(CacheConfig::default());
        let entry = CacheKey::monadic(query);
        cache.insert_with_footprint(entry.clone(), Arc::new(answer), 10, Some(footprint));
        assert_eq!(
            drop_hit(&mut cache, &[(1, b, 6), (3, a, 5)], &[(4, a, 1)]),
            0
        );
        assert_eq!(cache.stats().spared, 1);
        assert_eq!(drop_hit(&mut cache, &[], &[(1, b, 2)]), 1);
        assert!(cache.get(&entry).is_none());
    }

    #[test]
    fn label_invalidation_ignores_footprints() {
        // `invalidate_labels` keeps its label-only meaning: a footprint
        // no edge could hit does not save an entry from it.
        let mut cache = ResultCache::new(CacheConfig::default());
        let footprint = Footprint::Forward {
            source: 0,
            reached: vec![Some(nodes([])), None],
        };
        cache.insert_with_footprint(key("a"), value(1024), 10, Some(footprint));
        assert_eq!(cache.invalidate_labels(&[Symbol::from_index(0)]), 1);
        assert!(cache.is_empty());
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.stats().spared, 0);
    }

    #[test]
    fn binary_and_monadic_keys_are_distinct() {
        let mut cache = ResultCache::new(CacheConfig::default());
        let canonical = key("a").query;
        cache.insert(CacheKey::monadic(canonical.clone()), value(64), 10);
        assert!(cache.get(&CacheKey::binary(canonical.clone(), 0)).is_none());
        assert!(cache.get(&CacheKey::binary(canonical.clone(), 1)).is_none());
        cache.insert(CacheKey::binary(canonical.clone(), 0), value(64), 10);
        assert!(cache.get(&CacheKey::binary(canonical, 0)).is_some());
        assert_eq!(cache.len(), 2);
    }
}

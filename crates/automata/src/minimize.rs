//! DFA minimization.
//!
//! [`minimize`] is the one production minimizer: a single pass over
//! flat index arrays that trims the DFA, refines the partition of its
//! live states over the **live symbols** only, and builds the canonical
//! DFA once. A straightforward **Moore iteration** (`O(|Σ| n²)`,
//! [`minimize_moore`]) is kept as an independently-implemented oracle
//! for the tests.
//!
//! Both entry points return the *canonical* DFA of the language: trimmed
//! (every state reachable and co-reachable — so no sink survives), with
//! states renumbered in BFS order, symbols expanded in alphabet order.
//! This is the representation the paper uses to define query size (§2).
//! The form is unique per language, so the two minimizers agree table
//! for table.

use crate::dfa::{Dfa, DEAD};
use crate::{StateId, Symbol};

/// Minimizes a DFA in one pass; returns the canonical form.
///
/// 1. *Trim.* A forward BFS reads the dense table once, listing the
///    reachable states' transitions; a backward DFS from the reachable
///    finals over a flat reverse CSR of that list finds the live
///    (reachable and co-reachable) states.
/// 2. *Live symbols* are those on a transition between live states. Any
///    other symbol sends every live state to the implicit sink, so it
///    splits no block: refinement runs on a complete `(m + 1) × k` table
///    over the `m` live states, the sink row and the `k` live symbols,
///    not on `|Q| × |Σ|`.
/// 3. *Refine.* Hopcroft's algorithm (`O(k·m log m)`) on a refinable
///    partition held in index arrays: a block's states are a contiguous
///    range of one permutation, and the marked states of a split are
///    swapped to the range's front.
/// 4. *Number.* The blocks are numbered in BFS order from the initial
///    state's, expanding live symbols ascending; every live state is
///    co-reachable, so the sink's block is the sink alone and is dropped.
/// 5. *Build* the output [`Dfa`] once.
///
/// The empty language yields [`Dfa::empty_language`].
pub fn minimize(dfa: &Dfa) -> Dfa {
    minimize_live(dfa).0
}

/// [`minimize`], also returning the live symbols, ascending — exactly
/// the distinct symbols of the canonical DFA's transitions (none for the
/// empty language).
pub(crate) fn minimize_live(dfa: &Dfa) -> (Dfa, Box<[u32]>) {
    let sigma = dfa.alphabet_len();
    let Some(live) = LiveStates::find(dfa) else {
        return (Dfa::empty_language(sigma), Box::new([]));
    };
    let m = live.states.len();
    let sink = m as StateId;
    let live_edges = || {
        live.edges.iter().filter_map(|&(s, a, t)| {
            let (s, t) = (live.id[s as usize], live.id[t as usize]);
            (s != DEAD && t != DEAD).then_some((s, a, t))
        })
    };

    // Live symbols, ascending; `column[a]` is `a`'s column among them.
    let mut column = vec![DEAD; sigma];
    for (_, a, _) in live_edges() {
        column[a as usize] = 0;
    }
    let symbols: Box<[u32]> = (0..sigma as u32)
        .filter(|&a| column[a as usize] != DEAD)
        .collect();
    for (j, &a) in symbols.iter().enumerate() {
        column[a as usize] = j as u32;
    }
    // The complete table over live states + sink and live symbols: what
    // no live edge defines goes to the sink.
    let k = symbols.len();
    let mut delta = vec![sink; (m + 1) * k];
    for (s, a, t) in live_edges() {
        delta[s as usize * k + column[a as usize] as usize] = t;
    }

    let accepting: Vec<bool> = live.states.iter().map(|&s| dfa.is_final(s)).collect();
    let block = hopcroft(&delta, k, &accepting);

    // BFS-number the blocks from the initial state's (live id 0), one
    // representative state per block.
    let num_blocks = block.iter().max().map_or(0, |&b| b as usize + 1);
    let mut rep = vec![0 as StateId; num_blocks];
    for (s, &b) in block.iter().enumerate() {
        rep[b as usize] = s as StateId;
    }
    let sink_block = block[m];
    let mut number = vec![DEAD; num_blocks];
    let mut order = Vec::with_capacity(num_blocks);
    order.push(block[0]);
    number[block[0] as usize] = 0;
    let mut head = 0;
    while head < order.len() {
        let s = rep[order[head] as usize] as usize;
        head += 1;
        for &t in &delta[s * k..(s + 1) * k] {
            let b = block[t as usize];
            if b != sink_block && number[b as usize] == DEAD {
                number[b as usize] = order.len() as StateId;
                order.push(b);
            }
        }
    }

    let mut out = Dfa::new(order.len(), sigma, 0);
    for (i, &b) in order.iter().enumerate() {
        let s = rep[b as usize] as usize;
        for (&a, &t) in symbols.iter().zip(&delta[s * k..(s + 1) * k]) {
            let target = block[t as usize];
            if target != sink_block {
                out.set_transition(
                    i as StateId,
                    Symbol::from_index(a as usize),
                    number[target as usize],
                );
            }
        }
        if accepting[s] {
            out.set_final(i as StateId);
        }
    }
    (out, symbols)
}

/// The live (reachable and co-reachable) states of a DFA.
struct LiveStates {
    /// Live states in forward-BFS order; the initial state is first.
    states: Vec<StateId>,
    /// `id[s]`: `s`'s index in `states`, [`DEAD`] for a state that is
    /// not live.
    id: Vec<StateId>,
    /// Every transition `(from, symbol, to)` out of a reachable state —
    /// the one read of the dense table.
    edges: Vec<(StateId, u32, StateId)>,
}

impl LiveStates {
    /// `None` iff the language is empty.
    fn find(dfa: &Dfa) -> Option<LiveStates> {
        let n = dfa.num_states();
        if n == 0 {
            return None;
        }
        // Forward BFS; `reached` doubles as the visit order.
        let mut seen = vec![false; n];
        let mut reached = Vec::with_capacity(n);
        reached.push(dfa.initial());
        seen[dfa.initial() as usize] = true;
        let mut edges = Vec::new();
        let mut head = 0;
        while head < reached.len() {
            let s = reached[head];
            head += 1;
            for (a, &t) in dfa.row(s).iter().enumerate() {
                if t != DEAD {
                    edges.push((s, a as u32, t));
                    if !seen[t as usize] {
                        seen[t as usize] = true;
                        reached.push(t);
                    }
                }
            }
        }

        // Reverse CSR of those transitions (a reachable state's
        // successors are reachable), then a backward DFS from the
        // reachable finals: what it meets is live.
        let mut offsets = vec![0u32; n + 1];
        for &(_, _, t) in &edges {
            offsets[t as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut preds = vec![0 as StateId; edges.len()];
        let mut cursor = offsets.clone();
        for &(s, _, t) in &edges {
            preds[cursor[t as usize] as usize] = s;
            cursor[t as usize] += 1;
        }
        let mut live = vec![false; n];
        let mut stack: Vec<StateId> = reached
            .iter()
            .copied()
            .filter(|&s| dfa.is_final(s))
            .collect();
        for &f in &stack {
            live[f as usize] = true;
        }
        while let Some(t) = stack.pop() {
            let range = offsets[t as usize] as usize..offsets[t as usize + 1] as usize;
            for &p in &preds[range] {
                if !live[p as usize] {
                    live[p as usize] = true;
                    stack.push(p);
                }
            }
        }
        if !live[dfa.initial() as usize] {
            return None;
        }

        reached.retain(|&s| live[s as usize]);
        let mut id = vec![DEAD; n];
        for (i, &s) in reached.iter().enumerate() {
            id[s as usize] = i as StateId;
        }
        Some(LiveStates {
            states: reached,
            id,
            edges,
        })
    }
}

/// Hopcroft partition refinement of the **complete** DFA whose table is
/// `delta` (`k` symbols per row) and whose accepting states are
/// `accepting` (one entry per row except the last, the non-accepting
/// sink). Returns `block[state]`.
///
/// The partition is a permutation `elems` of the states in which every
/// block owns the range `first[b]..end[b]`; `loc` inverts `elems`.
/// Marking a state swaps it to its block's marked prefix
/// `first[b]..mid[b]`, so a split is a range cut. The smaller half
/// becomes the new block and is queued on every symbol — the halving
/// argument behind `O(k·n log n)`.
fn hopcroft(delta: &[StateId], k: usize, accepting: &[bool]) -> Vec<u32> {
    let n = accepting.len() + 1;
    // Reverse transitions keyed by (symbol, target): the predecessors
    // of `t` on symbol `j` are rev[rev_off[j·n + t]..rev_off[j·n + t + 1]].
    let mut rev_off = vec![0u32; k * n + 1];
    for (cell, &t) in delta.iter().enumerate() {
        rev_off[(cell % k) * n + t as usize + 1] += 1;
    }
    for i in 0..k * n {
        rev_off[i + 1] += rev_off[i];
    }
    let mut rev = vec![0 as StateId; delta.len()];
    let mut cursor = rev_off.clone();
    for (cell, &t) in delta.iter().enumerate() {
        let slot = &mut cursor[(cell % k) * n + t as usize];
        rev[*slot as usize] = (cell / k) as StateId;
        *slot += 1;
    }

    // Initial partition: accepting states (block 0, never empty: the
    // language is not) and the rest (block 1, never empty: the sink).
    let is_final = |s: usize| s < n - 1 && accepting[s];
    let mut elems: Vec<StateId> = Vec::with_capacity(n);
    elems.extend((0..n as StateId).filter(|&s| is_final(s as usize)));
    let accepting_count = elems.len() as u32;
    elems.extend((0..n as StateId).filter(|&s| !is_final(s as usize)));
    let mut loc = vec![0u32; n];
    for (i, &s) in elems.iter().enumerate() {
        loc[s as usize] = i as u32;
    }
    let mut block: Vec<u32> = (0..n).map(|s| u32::from(!is_final(s))).collect();
    let blocks = |initial: [u32; 2]| {
        let mut bounds = Vec::with_capacity(n);
        bounds.extend(initial);
        bounds
    };
    let mut first = blocks([0, accepting_count]);
    let mut end = blocks([accepting_count, n as u32]);
    let mut mid = blocks([0, accepting_count]);

    // Splitters `(block, symbol)`; the smaller initial block suffices.
    // A split keeps the old id on one half and queues the new one on
    // every symbol: if `(b, j)` was still queued both halves now are,
    // and if not the smaller half is — Hopcroft's rule, so no
    // "is it queued" flag is needed and no pair is ever queued twice.
    let smaller = u32::from(n as u32 - accepting_count < accepting_count);
    // Every block is queued on every symbol at most once: at its birth.
    let mut work: Vec<(u32, usize)> = Vec::with_capacity(k * n);
    work.extend((0..k).map(|j| (smaller, j)));

    let mut preimage: Vec<StateId> = Vec::with_capacity(n);
    let mut touched: Vec<u32> = Vec::with_capacity(n);
    while let Some((splitter, j)) = work.pop() {
        // Collect the whole preimage before marking: marking reorders
        // `elems`, the splitter's own range included.
        preimage.clear();
        for &t in &elems[first[splitter as usize] as usize..end[splitter as usize] as usize] {
            let cell = j * n + t as usize;
            preimage.extend_from_slice(&rev[rev_off[cell] as usize..rev_off[cell + 1] as usize]);
        }
        // Each state has one `j`-successor, so it is marked at most once.
        for &p in &preimage {
            let b = block[p as usize] as usize;
            if mid[b] == first[b] {
                touched.push(b as u32);
            }
            let (here, there) = (loc[p as usize], mid[b]);
            let other = elems[there as usize];
            elems.swap(here as usize, there as usize);
            loc[other as usize] = here;
            loc[p as usize] = there;
            mid[b] += 1;
        }
        for b in touched.drain(..) {
            let b = b as usize;
            let cut = mid[b];
            if cut == end[b] {
                mid[b] = first[b];
                continue; // wholly inside the preimage: no split
            }
            // The smaller half moves to the new block.
            let new = first.len() as u32;
            let (lo, hi) = (first[b], end[b]);
            let moved = if cut - lo <= hi - cut {
                first[b] = cut;
                lo..cut
            } else {
                end[b] = cut;
                cut..hi
            };
            mid[b] = first[b];
            for &s in &elems[moved.start as usize..moved.end as usize] {
                block[s as usize] = new;
            }
            first.push(moved.start);
            end.push(moved.end);
            mid.push(moved.start);
            work.extend((0..k).map(|jj| (new, jj)));
        }
    }
    block
}

/// Minimizes a DFA with Moore's iterative refinement; returns the
/// canonical form. The test oracle: it shares no step with
/// [`minimize`] beyond the [`Dfa`] methods it composes — trim,
/// complete, refine, quotient, trim, canonical numbering.
pub fn minimize_moore(dfa: &Dfa) -> Dfa {
    let trimmed = dfa.trim();
    if trimmed.language_is_empty() {
        return Dfa::empty_language(trimmed.alphabet_len());
    }
    let (complete, _) = trimmed.complete();
    let block_of = moore_partition(&complete);
    let num_blocks = block_of.iter().copied().max().map_or(0, |m| m as usize + 1);
    let alphabet = complete.alphabet_len();
    let mut quotient = Dfa::new(num_blocks, alphabet, block_of[complete.initial() as usize]);
    for (s, sym, t) in complete.transitions() {
        quotient.set_transition(block_of[s as usize], sym, block_of[t as usize]);
    }
    for f in complete.finals().iter() {
        quotient.set_final(block_of[f]);
    }
    quotient.trim().canonicalize()
}

/// Moore partition refinement on a **complete** DFA. Returns
/// `block_of[state]`.
fn moore_partition(dfa: &Dfa) -> Vec<u32> {
    let n = dfa.num_states();
    let alphabet = dfa.alphabet_len();
    let mut block_of: Vec<u32> = (0..n)
        .map(|s| u32::from(dfa.finals().contains(s)))
        .collect();
    let mut num_blocks = 2;
    loop {
        // Signature of a state: (block, successor blocks per symbol).
        let mut signatures: Vec<(u32, Vec<u32>)> = Vec::with_capacity(n);
        for s in 0..n {
            let succ: Vec<u32> = (0..alphabet)
                .map(|a| {
                    let t = dfa.step_raw(s as StateId, Symbol::from_index(a));
                    block_of[t as usize]
                })
                .collect();
            signatures.push((block_of[s], succ));
        }
        let mut index: std::collections::HashMap<&(u32, Vec<u32>), u32> =
            std::collections::HashMap::new();
        let mut next: Vec<u32> = vec![0; n];
        for s in 0..n {
            let fresh = index.len() as u32;
            let id = *index.entry(&signatures[s]).or_insert(fresh);
            next[s] = id;
        }
        let new_blocks = index.len();
        if new_blocks == num_blocks {
            return next;
        }
        num_blocks = new_blocks;
        block_of = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Symbol;
    use crate::word::enumerate_words;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// A redundant DFA for (a·b)*·c with duplicated states.
    fn redundant_fig4() -> Dfa {
        // states: 0 start, 1 after-a, 2 final, 3 duplicate of 0, 4 dup of 1.
        let mut dfa = Dfa::new(5, 3, 0);
        dfa.set_transition(0, sym(0), 1);
        dfa.set_transition(1, sym(1), 3);
        dfa.set_transition(3, sym(0), 4);
        dfa.set_transition(4, sym(1), 0);
        dfa.set_transition(0, sym(2), 2);
        dfa.set_transition(3, sym(2), 2);
        dfa.set_final(2);
        dfa
    }

    #[test]
    fn hopcroft_reduces_to_three_states() {
        let min = minimize(&redundant_fig4());
        assert_eq!(min.num_states(), 3);
        let reference = crate::dfa::tests::fig4();
        for word in enumerate_words(3, 5) {
            assert_eq!(min.accepts(&word), reference.accepts(&word), "{word:?}");
        }
    }

    #[test]
    fn moore_agrees_with_hopcroft() {
        let dfa = redundant_fig4();
        assert_eq!(minimize(&dfa), minimize_moore(&dfa));
    }

    #[test]
    fn minimize_is_idempotent() {
        let min = minimize(&redundant_fig4());
        assert_eq!(min, minimize(&min));
    }

    #[test]
    fn minimize_empty_and_epsilon() {
        let empty = Dfa::new(4, 2, 0);
        assert_eq!(minimize(&empty).num_states(), 1);
        assert!(minimize(&empty).language_is_empty());

        let eps = Dfa::epsilon_language(2);
        let min = minimize(&eps);
        assert_eq!(min.num_states(), 1);
        assert!(min.accepts(&[]));
        assert!(!min.accepts(&[sym(0)]));
    }

    #[test]
    fn minimize_merges_language_equal_finals() {
        // Two final states both with residual {ε}: a | b.
        let mut dfa = Dfa::new(3, 2, 0);
        dfa.set_transition(0, sym(0), 1);
        dfa.set_transition(0, sym(1), 2);
        dfa.set_final(1);
        dfa.set_final(2);
        let min = minimize(&dfa);
        assert_eq!(min.num_states(), 2);
        assert!(min.accepts(&[sym(0)]) && min.accepts(&[sym(1)]));
        assert!(!min.accepts(&[]) && !min.accepts(&[sym(0), sym(0)]));
    }

    #[test]
    fn universal_language_minimizes_to_one_state() {
        let mut dfa = Dfa::new(2, 2, 0);
        for s in 0..2 {
            for a in 0..2 {
                dfa.set_transition(s, sym(a), (s + 1) % 2);
            }
        }
        dfa.set_final(0);
        dfa.set_final(1);
        let min = minimize(&dfa);
        assert_eq!(min.num_states(), 1);
        assert!(min.accepts(&[sym(0), sym(1), sym(1)]));
    }

    #[test]
    fn randomized_hopcroft_vs_moore_language_check() {
        // Deterministic pseudo-random DFAs; compare minimal forms and
        // language membership on all short words.
        let mut seed = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..40 {
            let n = 2 + (next() % 7) as usize;
            let alphabet = 1 + (next() % 3) as usize;
            let mut dfa = Dfa::new(n, alphabet, 0);
            for s in 0..n as StateId {
                for a in 0..alphabet {
                    if next() % 4 != 0 {
                        dfa.set_transition(s, sym(a), (next() % n as u64) as StateId);
                    }
                }
            }
            for s in 0..n {
                if next() % 3 == 0 {
                    dfa.set_final(s as StateId);
                }
            }
            let hop = minimize(&dfa);
            let moore = minimize_moore(&dfa);
            assert_eq!(hop, moore, "trial {trial}");
            for word in enumerate_words(alphabet, 4) {
                assert_eq!(
                    dfa.accepts(&word),
                    hop.accepts(&word),
                    "trial {trial}, word {word:?}"
                );
            }
        }
    }
}

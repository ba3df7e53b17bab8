//! Canonical query forms — the unit of result reuse.
//!
//! The paper identifies every path query with the **unique minimal DFA**
//! of its language (§2); [`crate::minimize`] computes exactly that form
//! (one pass: trim, refine over the live symbols, BFS renumbering), so
//! two syntactically different but equivalent queries — `a·(b·c)` vs
//! `(a·b)·c`, reordered unions, a completed DFA vs its trimmed twin —
//! collapse to *structurally
//! identical* tables. [`CanonicalQuery`] freezes that form behind
//! `Eq`/`Hash`, turning language equivalence into plain `HashMap` key
//! equality: the serving layer in `pathlearn-server` canonicalizes every
//! incoming query once and then shares one cache entry per language.
//!
//! Everything derived from the table is derived **once**, at
//! construction: the minimization ([`Regex::to_canonical`](crate::Regex::to_canonical)
//! minimizes the subset construction once, where `Regex::to_dfa`
//! followed by [`CanonicalQuery::new`] would minimize twice), the live
//! symbols the minimizer found ([`CanonicalQuery::live_symbols`]) and
//! the FNV-1a [`CanonicalQuery::fingerprint`], which is also what
//! `Hash` feeds a `HashMap` — a cache probe hashes eight bytes, not the
//! `|Q| × |Σ|` table.
//!
//! ```
//! use pathlearn_automata::{Alphabet, CanonicalQuery, Regex};
//!
//! let alphabet = Alphabet::from_labels(["a", "b", "c"]);
//! let parse = |expr: &str| {
//!     CanonicalQuery::new(&Regex::parse(expr, &alphabet).unwrap().to_dfa(3))
//! };
//! // Associativity and union order vanish in the canonical form...
//! assert_eq!(parse("a·(b·c)"), parse("(a·b)·c"));
//! assert_eq!(parse("a+b+c"), parse("c+b+a"));
//! // ...but different languages stay different keys.
//! assert_ne!(parse("a·b"), parse("b·a"));
//! ```

use crate::dfa::Dfa;
use std::hash::{Hash, Hasher};

/// A path query in canonical minimal-DFA form, usable as a hash-map key.
///
/// Construction minimizes (one pass whose refinement costs
/// `O(k·n log n)` for the `k` live symbols, not all of `|Σ|` — paid once
/// per *submitted* query, not per evaluation) and digests the canonical
/// table into its [`CanonicalQuery::fingerprint`], once.
/// Equality is structural over the canonical table, so
/// `a == b ⇔ L(a) = L(b)` for queries over the same alphabet; hashing
/// writes the stored fingerprint, so a `HashMap` probe costs one `u64`
/// no matter how large `|Q| × |Σ|` is.
#[derive(Clone, Debug)]
pub struct CanonicalQuery {
    dfa: Dfa,
    /// FNV-1a over `dfa`, fixed at construction (`dfa` never changes).
    fingerprint: u64,
    /// The distinct symbols of `dfa`'s transitions, ascending. Derived
    /// from `dfa`, so neither `Eq` nor `Hash` reads it.
    live: Box<[u32]>,
}

impl CanonicalQuery {
    /// Canonicalizes `dfa` (minimize + canonical BFS numbering).
    pub fn new(dfa: &Dfa) -> Self {
        let (dfa, live) = crate::minimize::minimize_live(dfa);
        let mut hasher = Fnv1a(0xcbf2_9ce4_8422_2325);
        dfa.hash(&mut hasher);
        CanonicalQuery {
            dfa,
            fingerprint: hasher.0,
            live,
        }
    }

    /// The canonical minimal DFA — evaluate this, not the submitted
    /// form: it is never larger, so one canonicalization also buys every
    /// later evaluation the smallest `|Q|`.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// The paper's query size: states of the canonical DFA.
    pub fn num_states(&self) -> usize {
        self.dfa.num_states()
    }

    /// A stable 64-bit digest of the canonical form (FNV-1a over the
    /// table, computed once at construction), for logs and stats where
    /// a short name for "this language" is needed. Equal queries always
    /// digest equal; the converse holds only up to hash collision —
    /// keying storage must use the full [`CanonicalQuery`], never the
    /// fingerprint.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The **live symbols**: those with at least one transition in the
    /// canonical DFA, ascending — the labels an evaluation of this query
    /// can step through. The minimizer finds them on the way, so this is
    /// a field read.
    pub fn live_symbols(&self) -> &[u32] {
        &self.live
    }
}

impl PartialEq for CanonicalQuery {
    /// Structural: a fingerprint collision must never merge two
    /// languages. The digest only short-circuits the unequal case.
    fn eq(&self, other: &Self) -> bool {
        self.fingerprint == other.fingerprint && self.dfa == other.dfa
    }
}

impl Eq for CanonicalQuery {}

impl Hash for CanonicalQuery {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.fingerprint);
    }
}

/// Minimal FNV-1a so fingerprints are stable across runs and platforms
/// (`DefaultHasher` seeds are unspecified between std releases).
struct Fnv1a(u64);

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::Alphabet;
    use crate::Regex;
    use std::collections::HashMap;

    fn key(expr: &str) -> CanonicalQuery {
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        CanonicalQuery::new(&Regex::parse(expr, &alphabet).unwrap().to_dfa(3))
    }

    #[test]
    fn equivalent_forms_share_a_key() {
        assert_eq!(key("a·(b·c)"), key("(a·b)·c"));
        assert_eq!(key("a+b"), key("b+a"));
        assert_eq!(key("(a·b)*·c"), key("c+a·b·(a·b)*·c"));
        assert_eq!(key("a·a*"), key("a*·a"));
    }

    #[test]
    fn different_languages_get_different_keys() {
        assert_ne!(key("a·b"), key("b·a"));
        assert_ne!(key("a*"), key("a"));
        assert_ne!(key("eps"), key("a"));
    }

    #[test]
    fn completion_noise_vanishes() {
        // A completed DFA (extra sink state) is language-equal to the
        // original and must canonicalize to the same key.
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        let dfa = Regex::parse("(a·b)*·c", &alphabet).unwrap().to_dfa(3);
        let (completed, sink) = dfa.complete();
        assert!(sink.is_some());
        assert_eq!(CanonicalQuery::new(&dfa), CanonicalQuery::new(&completed));
    }

    #[test]
    fn keys_work_as_hashmap_keys() {
        let mut cache: HashMap<CanonicalQuery, &str> = HashMap::new();
        cache.insert(key("a·(b·c)"), "first");
        assert_eq!(cache.get(&key("(a·b)·c")), Some(&"first"));
        assert_eq!(cache.get(&key("b·a")), None);
    }

    #[test]
    fn fingerprint_consistent_with_equality() {
        assert_eq!(key("a·(b·c)").fingerprint(), key("(a·b)·c").fingerprint());
        assert_ne!(key("a").fingerprint(), key("b").fingerprint());
        // Accessors expose the canonical DFA.
        let k = key("(a·b)*·c");
        assert_eq!(k.num_states(), 3);
        assert!(k.dfa().is_prefix_free());
    }

    #[test]
    fn live_symbols_are_the_canonical_dfas_transition_symbols() {
        assert_eq!(key("(a·b)*·c").live_symbols(), &[0, 1, 2]);
        assert_eq!(key("c·c*").live_symbols(), &[2]);
        assert!(key("eps").live_symbols().is_empty());
        // A completed DFA steps every symbol somewhere; only the live
        // ones survive into the key.
        let alphabet = Alphabet::from_labels(["a", "b", "c"]);
        let (completed, _) = Regex::parse("a·c", &alphabet).unwrap().to_dfa(3).complete();
        assert_eq!(CanonicalQuery::new(&completed).live_symbols(), &[0, 2]);
    }
}

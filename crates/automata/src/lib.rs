//! Finite automata, regular expressions and grammatical-inference substrate.
//!
//! This crate implements every language-theoretic building block required by
//! the EDBT 2015 paper *Learning Path Queries on Graph Databases* (Bonifati,
//! Ciucanu, Lemay):
//!
//! * interned, ordered alphabets and the canonical order `≤` on words
//!   (length first, then lexicographic) — [`symbol`], [`word`];
//! * ε-free NFAs with product constructions, emptiness tests and
//!   canonical-order shortest witnesses — [`nfa`], [`product`];
//! * DFAs with subset construction, completion, complementation, one-pass
//!   minimization (Hopcroft over the live symbols, Moore as the oracle),
//!   canonical numbering and the prefix-free transform used to normalize
//!   path queries — [`dfa`], [`determinize`], [`minimize`];
//! * a regular-expression AST with a parser, a precedence-aware printer and
//!   a DFA→regex state-elimination pass — [`regex`], [`state_elim`];
//! * the antichain language-inclusion algorithm used for the paper's exact
//!   (PSPACE) consistency and certain-node checks — [`inclusion`];
//! * canonical query forms behind `Eq`/`Hash` — language equivalence as
//!   hash-map key equality, the cache-key unit of the serving layer —
//!   [`canonical`];
//! * prefix tree acceptors, the classic RPNI state-merging learner
//!   (generalized over a merge-consistency oracle, so the graph-based
//!   learner of the paper can reuse it), and characteristic-sample
//!   generation for RPNI targets — [`pta`], [`rpni`], [`char_sample`].
//!
//! The crate has no dependencies and is `std`-only; integer-indexed
//! structures and a hand-rolled [`bitset::BitSet`] keep the hot paths
//! allocation-light, following the Rust Performance Book guidance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitset;
pub mod canonical;
pub mod char_sample;
pub mod determinize;
pub mod dfa;
pub mod inclusion;
pub mod minimize;
pub mod nfa;
pub mod product;
pub mod pta;
pub mod regex;
pub mod rpni;
pub mod state_elim;
pub mod symbol;
pub mod word;

pub use bitset::BitSet;
pub use canonical::CanonicalQuery;
pub use dfa::{Dfa, DEAD};
pub use nfa::Nfa;
pub use regex::Regex;
pub use symbol::{Alphabet, Symbol};
pub use word::{canonical_cmp, format_word, Word};

/// Numeric identifier of an automaton state.
pub type StateId = u32;

//! Words over an alphabet and the canonical order `≤` of the paper.
//!
//! §2 of the paper: *"we extend the order on Σ to the standard
//! lexicographical order `≤_lex` on words over Σ and define a well-founded
//! canonical order `≤` on words: `w ≤ u` iff `|w| < |u|` or `|w| = |u|` and
//! `w ≤_lex u`."* Paths, SCPs and characteristic samples are all ranked by
//! this order, so it lives here once and is reused everywhere.

use crate::symbol::{Alphabet, Symbol};
use std::cmp::Ordering;

/// A word is a sequence of interned symbols. The empty vector is `ε`.
pub type Word = Vec<Symbol>;

/// Canonical order on words: shorter first, ties broken lexicographically
/// by symbol order.
pub fn canonical_cmp(a: &[Symbol], b: &[Symbol]) -> Ordering {
    a.len().cmp(&b.len()).then_with(|| a.cmp(b))
}

/// `true` iff `a` strictly precedes `b` in the canonical order.
pub fn canonical_lt(a: &[Symbol], b: &[Symbol]) -> bool {
    canonical_cmp(a, b) == Ordering::Less
}

/// Sorts a collection of words in canonical order and removes duplicates.
pub fn sort_canonical(words: &mut Vec<Word>) {
    words.sort_by(|a, b| canonical_cmp(a, b));
    words.dedup();
}

/// Renders a word with `·`-separated label names, or `ε` when empty.
pub fn format_word(word: &[Symbol], alphabet: &Alphabet) -> String {
    if word.is_empty() {
        return "ε".to_owned();
    }
    word.iter()
        .map(|&s| alphabet.name(s))
        .collect::<Vec<_>>()
        .join("·")
}

/// Enumerates all words over an alphabet of size `alphabet_len` with length
/// at most `max_len`, in canonical order. Intended for tests and
/// brute-force cross-checks only: the output has `Σ_{i≤k} |Σ|^i` entries.
pub fn enumerate_words(alphabet_len: usize, max_len: usize) -> Vec<Word> {
    let mut all: Vec<Word> = vec![Vec::new()];
    let mut frontier: Vec<Word> = vec![Vec::new()];
    for _ in 0..max_len {
        let mut next = Vec::with_capacity(frontier.len() * alphabet_len.max(1));
        for word in &frontier {
            for s in 0..alphabet_len {
                let mut extended = word.clone();
                extended.push(Symbol::from_index(s));
                next.push(extended);
            }
        }
        all.extend(next.iter().cloned());
        frontier = next;
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    #[test]
    fn canonical_order_prefers_shorter() {
        // |b| < |aa| so b < aa despite b >_lex a.
        assert!(canonical_lt(&[sym(1)], &[sym(0), sym(0)]));
        assert!(!canonical_lt(&[sym(0), sym(0)], &[sym(1)]));
    }

    #[test]
    fn canonical_order_same_length_is_lex() {
        assert!(canonical_lt(&[sym(0), sym(1)], &[sym(1), sym(0)]));
        assert_eq!(
            canonical_cmp(&[sym(0), sym(1)], &[sym(0), sym(1)]),
            Ordering::Equal
        );
    }

    #[test]
    fn epsilon_is_minimum() {
        let eps: Word = Vec::new();
        assert!(canonical_lt(&eps, &[sym(0)]));
    }

    #[test]
    fn enumerate_words_is_canonically_sorted_and_complete() {
        let words = enumerate_words(2, 3);
        // 1 + 2 + 4 + 8 = 15 words.
        assert_eq!(words.len(), 15);
        for pair in words.windows(2) {
            assert!(canonical_lt(&pair[0], &pair[1]));
        }
    }

    #[test]
    fn format_word_renders_epsilon_and_labels() {
        let alphabet = Alphabet::from_labels(["a", "b"]);
        assert_eq!(format_word(&[], &alphabet), "ε");
        let word = alphabet.parse_word("a b").unwrap();
        assert_eq!(format_word(&word, &alphabet), "a·b");
    }

    #[test]
    fn sort_canonical_dedups() {
        let a = sym(0);
        let b = sym(1);
        let mut words = vec![vec![b], vec![a], vec![a, b], vec![a], vec![]];
        sort_canonical(&mut words);
        assert_eq!(words, vec![vec![], vec![a], vec![b], vec![a, b]]);
    }
}

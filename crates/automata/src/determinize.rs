//! Subset construction (NFA → DFA).

use crate::bitset::BitSet;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::symbol::Symbol;
use crate::StateId;
use std::collections::HashMap;

/// Determinizes an NFA by subset construction.
///
/// Macro-states are explored in BFS order with symbols ascending, so the
/// output is already canonically numbered. The empty macro-state is never
/// materialized (the output stays partial instead of gaining a sink).
///
/// Worst case `O(2^n)` states — for trusted callers that only
/// determinize small automata (PTAs, query DFAs, characteristic
/// constructions); graph-sized NFAs are handled by the on-the-fly
/// algorithms in [`crate::product`] and [`crate::inclusion`], and
/// automata built from untrusted input go through
/// [`determinize_bounded`].
pub fn determinize(nfa: &Nfa) -> Dfa {
    determinize_bounded(nfa, usize::MAX).expect("an unbounded budget is never exceeded")
}

/// [`determinize`] under a state budget: `None` as soon as the subset
/// construction would materialize more than `max_states` macro-states,
/// so time and memory stay `O(max_states · |Σ|)` steps whatever the
/// input.
pub fn determinize_bounded(nfa: &Nfa, max_states: usize) -> Option<Dfa> {
    let alphabet = nfa.alphabet_len();
    let initial = nfa.initial_set();

    let mut index: HashMap<BitSet, StateId> = HashMap::new();
    let mut subsets: Vec<BitSet> = Vec::new();
    index.insert(initial.clone(), 0);
    subsets.push(initial);

    // Transitions discovered so far, row-major like `Dfa`.
    let mut rows: Vec<StateId> = Vec::new();
    let mut head = 0usize;
    while head < subsets.len() {
        let current = subsets[head].clone();
        head += 1;
        for a in 0..alphabet {
            let next = nfa.step_set(&current, Symbol::from_index(a));
            if next.is_empty() {
                rows.push(crate::dfa::DEAD);
                continue;
            }
            let fresh = subsets.len() as StateId;
            let id = *index.entry(next.clone()).or_insert_with(|| {
                subsets.push(next);
                fresh
            });
            if subsets.len() > max_states {
                return None;
            }
            rows.push(id);
        }
    }

    let mut dfa = Dfa::new(subsets.len(), alphabet, 0);
    for (s, subset) in subsets.iter().enumerate() {
        for a in 0..alphabet {
            let t = rows[s * alphabet + a];
            if t != crate::dfa::DEAD {
                dfa.set_transition(s as StateId, Symbol::from_index(a), t);
            }
        }
        if subset.intersects(nfa.finals()) {
            dfa.set_final(s as StateId);
        }
    }
    Some(dfa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::enumerate_words;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    #[test]
    fn determinize_preserves_language() {
        // NFA for Σ*·a·b over {a,b}: nondeterministic guess of the suffix.
        let mut nfa = Nfa::new(3, 2);
        nfa.set_initial(0);
        nfa.add_transition(0, sym(0), 0);
        nfa.add_transition(0, sym(1), 0);
        nfa.add_transition(0, sym(0), 1);
        nfa.add_transition(1, sym(1), 2);
        nfa.set_final(2);
        let dfa = determinize(&nfa);
        for word in enumerate_words(2, 6) {
            assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "{word:?}");
        }
    }

    #[test]
    fn determinize_multiple_initials() {
        let mut nfa = Nfa::new(3, 2);
        nfa.set_initial(0);
        nfa.set_initial(1);
        nfa.add_transition(0, sym(0), 2);
        nfa.add_transition(1, sym(1), 2);
        nfa.set_final(2);
        let dfa = determinize(&nfa);
        assert!(dfa.accepts(&[sym(0)]));
        assert!(dfa.accepts(&[sym(1)]));
        assert!(!dfa.accepts(&[]));
        assert!(!dfa.accepts(&[sym(0), sym(1)]));
    }

    #[test]
    fn determinize_empty_language() {
        let mut nfa = Nfa::new(1, 2);
        nfa.set_initial(0);
        let dfa = determinize(&nfa);
        assert!(dfa.language_is_empty());
    }

    #[test]
    fn budget_is_exact_and_stops_the_blow_up() {
        // (a+b)*·a·(a+b)^n: n + 2 NFA states, 2^(n+1) DFA states.
        let suffix_nfa = |n: usize| {
            let mut nfa = Nfa::new(n + 2, 2);
            nfa.set_initial(0);
            nfa.add_transition(0, sym(0), 0);
            nfa.add_transition(0, sym(1), 0);
            nfa.add_transition(0, sym(0), 1);
            for i in 1..=n {
                nfa.add_transition(i as StateId, sym(0), i as StateId + 1);
                nfa.add_transition(i as StateId, sym(1), i as StateId + 1);
            }
            nfa.set_final(n as StateId + 1);
            nfa
        };
        let small = suffix_nfa(3);
        assert_eq!(determinize(&small).num_states(), 16);
        assert_eq!(determinize_bounded(&small, 16), Some(determinize(&small)));
        assert_eq!(determinize_bounded(&small, 15), None);
        // 2^41 states unbounded; the budget answers at once.
        assert_eq!(determinize_bounded(&suffix_nfa(40), 1 << 10), None);
    }

    #[test]
    fn determinized_output_is_deterministic_and_canonical() {
        let mut nfa = Nfa::new(2, 2);
        nfa.set_initial(0);
        nfa.add_transition(0, sym(0), 0);
        nfa.add_transition(0, sym(0), 1);
        nfa.set_final(1);
        let dfa = determinize(&nfa);
        assert_eq!(dfa.canonicalize(), dfa);
    }
}

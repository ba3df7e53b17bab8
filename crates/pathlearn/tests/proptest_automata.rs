//! Property-based tests for the automata substrate: language-preservation
//! laws that every normalization and product must satisfy, checked
//! against brute-force word enumeration on randomly generated inputs.

use pathlearn::automata::inclusion::{nfa_included_in, nfa_included_in_naive};
use pathlearn::automata::minimize::{minimize, minimize_moore};
use pathlearn::automata::product::{
    nfa_intersection_is_empty, nfa_intersection_shortest, nfa_product,
};
use pathlearn::automata::state_elim::dfa_to_regex;
use pathlearn::automata::word::{canonical_cmp, enumerate_words};
use pathlearn::automata::{
    determinize::determinize, CanonicalQuery, Dfa, Nfa, Regex, StateId, Symbol,
};
use proptest::prelude::*;

const ALPHABET: usize = 2;
const MAX_WORD: usize = 5;

/// Strategy: a random NFA description.
fn arb_nfa() -> impl Strategy<Value = Nfa> {
    (
        1usize..6,
        proptest::collection::vec((0u32..6, 0usize..ALPHABET, 0u32..6), 0..14),
        proptest::collection::vec(0u32..6, 0..4),
        proptest::collection::vec(0u32..6, 0..4),
    )
        .prop_map(|(n, edges, initials, finals)| {
            let n = n as u32;
            let mut nfa = Nfa::new(n as usize, ALPHABET);
            nfa.set_initial(0);
            for (from, sym, to) in edges {
                nfa.add_transition(from % n, Symbol::from_index(sym), to % n);
            }
            for i in initials {
                nfa.set_initial(i % n);
            }
            for f in finals {
                nfa.set_final(f % n);
            }
            nfa
        })
}

/// Strategy: a random (partial) DFA description.
fn arb_dfa() -> impl Strategy<Value = Dfa> {
    (
        1usize..7,
        proptest::collection::vec(proptest::option::of(0u32..7), 14),
        proptest::collection::vec(any::<bool>(), 7),
    )
        .prop_map(|(n, table, finals)| {
            let mut dfa = Dfa::new(n, ALPHABET, 0);
            for s in 0..n {
                for a in 0..ALPHABET {
                    if let Some(t) = table[s * ALPHABET + a] {
                        dfa.set_transition(s as StateId, Symbol::from_index(a), t % n as u32);
                    }
                }
                if finals[s] {
                    dfa.set_final(s as StateId);
                }
            }
            dfa
        })
}

/// Strategy: a random partial DFA over a wide alphabet (|Σ| ∈ 1..=40,
/// ≤ 12 states) whose reachable part uses at most four symbols — the
/// shape of a template query over a many-labelled graph — plus
/// transitions on arbitrary, mostly unused symbols out of the upper
/// states, which nothing reaches. Returns the DFA and the symbols its
/// words are drawn from: the used ones and one arbitrary other.
fn arb_wide_dfa() -> impl Strategy<Value = (Dfa, Vec<Symbol>)> {
    (
        (1usize..41, 1usize..13),
        proptest::collection::vec(0usize..40, 1..5),
        proptest::collection::vec((0u32..12, 0usize..4, 0u32..12), 0..30),
        proptest::collection::vec((0u32..12, 0usize..40, 0u32..12), 0..8),
        proptest::collection::vec(any::<bool>(), 12),
    )
        .prop_map(|((sigma, n), used, edges, stray, finals)| {
            let n = n as u32;
            // States `reachable..n` are never a target of `edges`, and
            // state 0 is initial: they are unreachable.
            let reachable = n.div_ceil(2);
            let used: Vec<Symbol> = used
                .iter()
                .map(|&a| Symbol::from_index(a % sigma))
                .collect();
            let mut dfa = Dfa::new(n as usize, sigma, 0);
            for (from, pick, to) in edges {
                let sym = used[pick % used.len()];
                dfa.set_transition(from % reachable, sym, to % reachable);
            }
            if reachable < n {
                for (from, sym, to) in stray {
                    let from = reachable + from % (n - reachable);
                    dfa.set_transition(from, Symbol::from_index(sym % sigma), to % n);
                }
            }
            for s in 0..n {
                if finals[s as usize] {
                    dfa.set_final(s);
                }
            }
            let mut words_over = used;
            words_over.push(Symbol::from_index(sigma - 1));
            words_over.sort_by_key(|sym| sym.index());
            words_over.dedup();
            (dfa, words_over)
        })
}

/// The bench's `random_dfa`: a pseudo-random DFA with `n` states over
/// `alphabet` symbols, seven of eight transitions defined.
fn xorshift_dfa(n: usize, alphabet: usize, seed: u64) -> Dfa {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let mut dfa = Dfa::new(n, alphabet, 0);
    for state in 0..n as StateId {
        for a in 0..alphabet {
            if !next().is_multiple_of(8) {
                dfa.set_transition(state, Symbol::from_index(a), (next() % n as u64) as StateId);
            }
        }
        if next().is_multiple_of(4) {
            dfa.set_final(state);
        }
    }
    dfa
}

/// The `minimize_400` bench input: the production minimizer and the
/// Moore oracle build the same table on a 400-state DFA.
#[test]
fn minimize_agrees_with_moore_on_the_bench_dfa() {
    let dfa = xorshift_dfa(400, 4, 0xBEEF);
    let minimal = minimize(&dfa);
    assert_eq!(minimal, minimize_moore(&dfa));
    assert!(minimal.num_states() > 1);
}

/// Strategy: a random regex AST of bounded depth.
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0usize..ALPHABET).prop_map(|i| Regex::Symbol(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Determinization preserves the language.
    #[test]
    fn determinize_preserves_language(nfa in arb_nfa()) {
        let dfa = determinize(&nfa);
        for word in enumerate_words(ALPHABET, MAX_WORD) {
            prop_assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "{:?}", word);
        }
    }

    /// Minimization preserves the language, is idempotent, and agrees
    /// with Moore.
    #[test]
    fn minimize_laws(dfa in arb_dfa()) {
        let hopcroft = minimize(&dfa);
        let moore = minimize_moore(&dfa);
        prop_assert_eq!(&hopcroft, &moore);
        prop_assert_eq!(&minimize(&hopcroft), &hopcroft);
        for word in enumerate_words(ALPHABET, MAX_WORD) {
            prop_assert_eq!(dfa.accepts(&word), hopcroft.accepts(&word), "{:?}", word);
        }
    }

    /// Over wide alphabets of which the reachable part uses a few
    /// symbols: the minimizer, which refines over the live symbols only,
    /// builds Moore's table, is its own trimmed canonical form, preserves
    /// the language, and reports as live exactly the symbols of the
    /// canonical DFA's transitions.
    #[test]
    fn minimize_laws_on_wide_alphabets(case in arb_wide_dfa()) {
        let (dfa, words_over) = case;
        let minimal = minimize(&dfa);
        prop_assert_eq!(&minimal, &minimize_moore(&dfa));
        prop_assert_eq!(&minimize(&minimal), &minimal);
        // Already trimmed and BFS-numbered: a planner handed a minimal
        // DFA has nothing left to preprocess.
        prop_assert_eq!(&minimal.trim().canonicalize(), &minimal);
        for word in enumerate_words(words_over.len(), 4) {
            let word: Vec<Symbol> = word.iter().map(|sym| words_over[sym.index()]).collect();
            prop_assert_eq!(dfa.accepts(&word), minimal.accepts(&word), "{:?}", word);
        }
        let key = CanonicalQuery::new(&dfa);
        let mut symbols: Vec<u32> =
            key.dfa().transitions().map(|(_, sym, _)| sym.index() as u32).collect();
        symbols.sort_unstable();
        symbols.dedup();
        prop_assert_eq!(key.live_symbols(), &symbols[..]);
    }

    /// The minimal DFA is no larger than any equivalent trimmed DFA.
    #[test]
    fn minimize_is_minimal(dfa in arb_dfa()) {
        let minimal = minimize(&dfa);
        prop_assert!(minimal.num_states() <= dfa.trim().num_states().max(1));
    }

    /// Complementation flips membership.
    #[test]
    fn complement_flips(dfa in arb_dfa()) {
        let complement = dfa.complement();
        for word in enumerate_words(ALPHABET, MAX_WORD) {
            prop_assert_ne!(dfa.accepts(&word), complement.accepts(&word));
        }
    }

    /// The prefix-free transform yields a prefix-free language that selects
    /// the same nodes (query equivalence): its language is a subset whose
    /// every member has a prefix in the original — checked via words.
    #[test]
    fn prefix_free_laws(dfa in arb_dfa()) {
        let pf = dfa.make_prefix_free();
        prop_assert!(pf.is_prefix_free());
        for word in enumerate_words(ALPHABET, MAX_WORD) {
            if pf.accepts(&word) {
                prop_assert!(dfa.accepts(&word), "pf ⊆ original, {:?}", word);
            }
            if dfa.accepts(&word) {
                // Some prefix of the word is in the prefix-free language.
                let has_prefix = (0..=word.len()).any(|l| pf.accepts(&word[..l]));
                prop_assert!(has_prefix, "{:?}", word);
            }
        }
    }

    /// Product intersection: emptiness, witness minimality, and language.
    #[test]
    fn product_laws(a in arb_nfa(), b in arb_nfa()) {
        let product = nfa_product(&a, &b);
        let mut expected_min: Option<Vec<Symbol>> = None;
        for word in enumerate_words(ALPHABET, MAX_WORD) {
            let both = a.accepts(&word) && b.accepts(&word);
            prop_assert_eq!(product.accepts(&word), both, "{:?}", word);
            if both && expected_min.is_none() {
                expected_min = Some(word.clone());
            }
        }
        match nfa_intersection_shortest(&a, &b) {
            Some(witness) => {
                prop_assert!(a.accepts(&witness) && b.accepts(&witness));
                prop_assert!(!nfa_intersection_is_empty(&a, &b));
                if let Some(expected) = expected_min {
                    // Witness is canonical-minimal among short words.
                    if witness.len() <= MAX_WORD {
                        prop_assert_eq!(
                            canonical_cmp(&witness, &expected),
                            std::cmp::Ordering::Equal
                        );
                    }
                }
            }
            None => {
                prop_assert!(nfa_intersection_is_empty(&a, &b));
                prop_assert!(expected_min.is_none());
            }
        }
    }

    /// Antichain inclusion agrees with the naive decision and returns
    /// genuine minimal counterexamples.
    #[test]
    fn inclusion_agrees_with_naive(a in arb_nfa(), b in arb_nfa()) {
        match (nfa_included_in(&a, &b), nfa_included_in_naive(&a, &b)) {
            (Ok(()), Ok(())) => {}
            (Err(w1), Err(w2)) => {
                prop_assert!(a.accepts(&w1) && !b.accepts(&w1));
                prop_assert_eq!(canonical_cmp(&w1, &w2), std::cmp::Ordering::Equal);
            }
            (x, y) => prop_assert!(false, "disagreement: {:?} vs {:?}", x, y),
        }
    }

    /// Regex → NFA → DFA → regex round-trips preserve the language.
    #[test]
    fn regex_roundtrip(regex in arb_regex()) {
        let dfa = regex.to_dfa(ALPHABET);
        let back = dfa_to_regex(&dfa).to_dfa(ALPHABET);
        prop_assert!(dfa.equivalent(&back));
        // Spot-check against the NFA semantics too.
        let nfa = regex.to_nfa(ALPHABET);
        for word in enumerate_words(ALPHABET, 4) {
            prop_assert_eq!(nfa.accepts(&word), dfa.accepts(&word), "{:?}", word);
        }
    }

    /// `shortest_accepted` is the canonical minimum of the language.
    #[test]
    fn shortest_accepted_is_minimal(nfa in arb_nfa()) {
        let shortest = nfa.shortest_accepted();
        let brute = enumerate_words(ALPHABET, MAX_WORD)
            .into_iter()
            .find(|w| nfa.accepts(w));
        match (shortest, brute) {
            (Some(s), Some(b)) => {
                prop_assert!(nfa.accepts(&s));
                if s.len() <= MAX_WORD {
                    prop_assert_eq!(canonical_cmp(&s, &b), std::cmp::Ordering::Equal);
                }
            }
            (Some(s), None) => prop_assert!(s.len() > MAX_WORD),
            (None, Some(b)) => prop_assert!(false, "missed accepted word {:?}", b),
            (None, None) => {}
        }
    }

    /// Reversal: w ∈ L(A) iff reverse(w) ∈ L(reverse(A)).
    #[test]
    fn reverse_law(nfa in arb_nfa()) {
        let reversed = nfa.reverse();
        for word in enumerate_words(ALPHABET, 4) {
            let mut mirrored = word.clone();
            mirrored.reverse();
            prop_assert_eq!(nfa.accepts(&word), reversed.accepts(&mirrored));
        }
    }
}

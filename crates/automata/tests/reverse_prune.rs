//! Property tests for the planner's automaton preprocessing
//! ([`Dfa::reduced`]).
//!
//! The whole-query planner hands every engine a trimmed, BFS-reordered
//! table. The transform sits on the bit-identity path, so the contract
//! here is absolute: pruning/reordering must preserve the language —
//! and therefore the [`CanonicalQuery`] cache key — on every input,
//! including tables full of dead and unreachable states.

use pathlearn_automata::{CanonicalQuery, Dfa, Regex, StateId, Symbol};
use proptest::prelude::*;

const SIGMA: usize = 3;

/// Random regex AST over a 3-symbol alphabet, mirroring the query
/// shapes the learner produces (same strategy as the differential
/// suites in `crates/graph`).
fn arb_regex() -> impl Strategy<Value = Regex> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0usize..SIGMA).prop_map(|i| Regex::Symbol(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
}

/// Raw partial DFA with arbitrary (possibly dead/unreachable) states —
/// the adversarial input for `reduced()`: `trim()` must find and drop
/// exactly the useless states without touching the language.
fn arb_raw_dfa() -> impl Strategy<Value = Dfa> {
    (
        1usize..6,
        1usize..4,
        proptest::collection::vec((0usize..6, 0usize..4, 0usize..6), 0..24),
        proptest::collection::vec(0usize..6, 0..6),
        0usize..6,
    )
        .prop_map(|(states, sigma, transitions, finals, initial)| {
            let mut dfa = Dfa::new(states, sigma, (initial % states) as StateId);
            for (p, sym, q) in transitions {
                dfa.set_transition(
                    (p % states) as StateId,
                    Symbol::from_index(sym % sigma),
                    (q % states) as StateId,
                );
            }
            for f in finals {
                dfa.set_final((f % states) as StateId);
            }
            dfa
        })
}

/// Either shape; the transform must hold on both.
fn arb_dfa() -> impl Strategy<Value = Dfa> {
    prop_oneof![arb_regex().prop_map(|r| r.to_dfa(SIGMA)), arb_raw_dfa(),]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Preprocessing is language-preserving, hence key-preserving: the
    /// serving layer may plan on `reduced()` output while caching under
    /// the key of the original spelling.
    #[test]
    fn reduced_preserves_canonical_key(dfa in arb_dfa()) {
        let reduced = dfa.reduced();
        prop_assert_eq!(reduced.alphabet_len(), dfa.alphabet_len());
        prop_assert!(dfa.equivalent(&reduced));
        prop_assert_eq!(CanonicalQuery::new(&dfa), CanonicalQuery::new(&reduced));
    }

    /// `reduced()` output is a fixpoint: fully trimmed (every state
    /// reachable and coreachable) and already in BFS order, so running
    /// it again changes nothing — structurally, not just up to
    /// language. Engines can therefore preprocess unconditionally
    /// without re-planning churn.
    #[test]
    fn reduced_is_idempotent(dfa in arb_dfa()) {
        let once = dfa.reduced();
        prop_assert_eq!(once.clone(), once.reduced());
        // Trimmed: unless the language is empty (canonical 1-state
        // form), every state is live.
        if !once.language_is_empty() {
            let mut live = once.reachable();
            live.intersect_with(&once.coreachable());
            prop_assert_eq!(live.len(), once.num_states());
        } else {
            prop_assert_eq!(once.num_states(), 1);
        }
    }

    /// Pruning never grows the automaton.
    #[test]
    fn reduced_never_grows(dfa in arb_dfa()) {
        prop_assert!(dfa.reduced().num_states() <= dfa.num_states().max(1));
    }
}

/// Fixed shapes that exercised bugs elsewhere: ε-language, empty
/// language, a dead-state-heavy table, and a two-block chain.
#[test]
fn fixed_shapes() {
    // ε-language: unchanged.
    let eps = Dfa::epsilon_language(2);
    assert!(eps.reduced().equivalent(&eps));

    // Empty: stays empty, in its canonical one-state form.
    let empty = Dfa::empty_language(2);
    assert!(empty.reduced().language_is_empty());
    assert_eq!(empty.reduced().num_states(), 1);

    // a·b over Σ={a,b}.
    let (a, b) = (Symbol::from_index(0), Symbol::from_index(1));
    let mut ab = Dfa::new(3, 2, 0);
    ab.set_transition(0, a, 1);
    ab.set_transition(1, b, 2);
    ab.set_final(2);

    // Dead-state-heavy: states 2..5 unreachable or non-coreachable;
    // the reduced form keeps exactly the two live states of `a`.
    let mut noisy = Dfa::new(6, 2, 0);
    noisy.set_transition(0, a, 1);
    noisy.set_transition(1, b, 3); // 3 is a dead end
    noisy.set_transition(4, a, 5); // unreachable island
    noisy.set_final(1);
    noisy.set_final(5);
    let reduced = noisy.reduced();
    assert_eq!(reduced.num_states(), 2);
    let mut just_a = Dfa::new(2, 2, 0);
    just_a.set_transition(0, a, 1);
    just_a.set_final(1);
    assert!(reduced.equivalent(&just_a));
    assert_eq!(CanonicalQuery::new(&noisy), CanonicalQuery::new(&just_a));

    // BFS reorder: a table spelled with states in reverse discovery
    // order canonicalizes to initial = 0 and monotone discovery ids.
    let mut shuffled = Dfa::new(3, 2, 2);
    shuffled.set_transition(2, a, 1);
    shuffled.set_transition(1, b, 0);
    shuffled.set_final(0);
    let r = shuffled.reduced();
    assert_eq!(r.initial(), 0);
    assert!(r.equivalent(&ab));
}

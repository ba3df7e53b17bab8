//! Property tests for cache-key canonicalization
//! ([`pathlearn_automata::CanonicalQuery`], the serving layer's unit of
//! result reuse).
//!
//! The contract under test: for queries over one alphabet,
//! **key equality ⇔ language equivalence** — equivalent regexes
//! (associativity regroupings, union reorderings, star unrollings,
//! completion noise) minimize to the *same* key, and non-equivalent
//! ones never collide. The `⇒` direction makes the cache share entries
//! across spellings; the `⇐` direction makes sharing sound (a collision
//! would serve one language's nodes for another's query).

use pathlearn_automata::{CanonicalQuery, Dfa, Regex, Symbol};
use proptest::prelude::*;

const SIGMA: usize = 3;

/// Random regex AST over a 3-symbol alphabet (the query shape the
/// learner produces), mirroring the differential suite's strategy.
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

/// An equivalence-preserving rewrite of a regex, selected by `pick`:
/// these must never change the canonical key.
fn equivalent_variant(regex: &Regex, pick: u8) -> Regex {
    match pick % 4 {
        // r ≡ r + r (union idempotence survives the smart constructor
        // only when spelled through fresh clones, so go via a raw Alt).
        0 => Regex::alt(vec![regex.clone(), regex.clone()]),
        // r ≡ r · ε
        1 => Regex::concat(vec![regex.clone(), Regex::Epsilon]),
        // r ≡ ε · r
        2 => Regex::concat(vec![Regex::Epsilon, regex.clone()]),
        // (r*)* ≡ r*, and for non-stars r ≡ r + ∅.
        _ => Regex::alt(vec![regex.clone(), Regex::Empty]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The headline biconditional: same key ⇔ same language, on random
    /// regex pairs (language equivalence decided independently via
    /// minimal-form comparison in `Dfa::equivalent`).
    #[test]
    fn key_equality_iff_language_equivalence(a in arb_regex(), b in arb_regex()) {
        let dfa_a = a.to_dfa(SIGMA);
        let dfa_b = b.to_dfa(SIGMA);
        let keys_equal = CanonicalQuery::new(&dfa_a) == CanonicalQuery::new(&dfa_b);
        prop_assert_eq!(
            keys_equal,
            dfa_a.equivalent(&dfa_b),
            "keys must collide exactly for equal languages ({a:?} vs {b:?})"
        );
    }

    /// Equivalence-preserving rewrites — the syntactic noise real
    /// clients produce — never change the key, and the fingerprint
    /// follows the key.
    #[test]
    fn equivalent_rewrites_share_the_key(regex in arb_regex(), pick in any::<u64>()) {
        let variant = equivalent_variant(&regex, pick as u8);
        let key = CanonicalQuery::new(&regex.to_dfa(SIGMA));
        let variant_key = CanonicalQuery::new(&variant.to_dfa(SIGMA));
        prop_assert_eq!(&key, &variant_key, "{:?} vs {:?}", regex, variant);
        prop_assert_eq!(key.fingerprint(), variant_key.fingerprint());
    }

    /// Association and union order never matter: a·(b·c) ≡ (a·b)·c and
    /// r+s ≡ s+r composed from random parts.
    #[test]
    fn regrouping_and_reordering_share_the_key(
        a in arb_regex(), b in arb_regex(), c in arb_regex()
    ) {
        let left = Regex::concat(vec![
            a.clone(),
            Regex::concat(vec![b.clone(), c.clone()]),
        ]);
        let right = Regex::concat(vec![
            Regex::concat(vec![a.clone(), b.clone()]),
            c.clone(),
        ]);
        prop_assert_eq!(
            CanonicalQuery::new(&left.to_dfa(SIGMA)),
            CanonicalQuery::new(&right.to_dfa(SIGMA))
        );
        let union = Regex::alt(vec![a.clone(), b.clone()]);
        let reordered = Regex::alt(vec![b, a]);
        prop_assert_eq!(
            CanonicalQuery::new(&union.to_dfa(SIGMA)),
            CanonicalQuery::new(&reordered.to_dfa(SIGMA))
        );
    }

    /// Canonicalization is idempotent and the canonical DFA is minimal:
    /// re-keying a key's own DFA is a fixed point.
    #[test]
    fn canonicalization_is_a_fixed_point(regex in arb_regex()) {
        let key = CanonicalQuery::new(&regex.to_dfa(SIGMA));
        let again = CanonicalQuery::new(key.dfa());
        prop_assert_eq!(&again, &key);
        prop_assert_eq!(key.dfa().num_states(), key.dfa().minimize().num_states());
    }

    /// `Regex::to_canonical` skips the second minimization; it must
    /// still build exactly the key (table *and* fingerprint) the
    /// two-step route builds.
    #[test]
    fn to_canonical_equals_the_two_step_route(regex in arb_regex()) {
        let direct = regex.to_canonical(SIGMA);
        let two_step = CanonicalQuery::new(&regex.to_dfa(SIGMA));
        prop_assert_eq!(&direct, &two_step);
        prop_assert_eq!(direct.dfa(), two_step.dfa());
        prop_assert_eq!(direct.fingerprint(), two_step.fingerprint());
    }
}

/// The fingerprint is a wire-visible name (`QUERY` by fingerprint, the
/// `RESULT` echo, logs): computing it once at construction must not
/// change its value. Literals recorded at the commit before the stored
/// fingerprint landed.
#[test]
fn fingerprints_keep_their_pinned_values() {
    let pinned: [(&str, u64); 9] = [
        ("(a·b)*·c", 0x987c_d673_727e_a852),
        ("a", 0x3370_987c_b59e_99bc),
        ("eps", 0x4465_f9ef_574a_eaf8),
        ("a+b+c", 0xa9b0_1ac6_925b_8bb4),
        ("(a+b)*·c", 0x2012_e304_a1d5_a124),
        ("a·b·c", 0x0b16_a892_1a61_c8c3),
        ("c·a*", 0x6bed_8497_7200_cf81),
        ("(a·a)*", 0x0bc9_cad8_499f_b483),
        ("a*·b*·c*", 0x4c71_0763_ce38_3814),
    ];
    let alphabet = pathlearn_automata::Alphabet::from_labels(["a", "b", "c"]);
    for (expr, fingerprint) in pinned {
        let regex = Regex::parse(expr, &alphabet).unwrap();
        assert_eq!(
            CanonicalQuery::new(&regex.to_dfa(SIGMA)).fingerprint(),
            fingerprint,
            "{expr}"
        );
        assert_eq!(
            regex.to_canonical(SIGMA).fingerprint(),
            fingerprint,
            "{expr}"
        );
    }
}

/// Template-shaped queries over a 30-label alphabet, of which each
/// reads only a handful: the minimizer skips the labels no live
/// transition uses, and that must not move a key. Literals recorded
/// before the minimizer learned to skip them.
#[test]
fn wide_alphabet_template_fingerprints_keep_their_pinned_values() {
    let pinned: [(&str, u64); 3] = [
        ("l03·(l00+l07)·(l00+l07)*", 0x4056_cf78_e4d5_ae2a),
        (
            "(l01+l02)·(l01+l02)·(l01+l02)*·l05·l05·l05*",
            0x63dd_a03a_94a7_e4be,
        ),
        ("(l00+l04)·(l02+l09+l12)*·l28", 0xbbe4_45b2_cbe2_f034),
    ];
    let labels: Vec<String> = (0..30).map(|i| format!("l{i:02}")).collect();
    let alphabet = pathlearn_automata::Alphabet::from_labels(labels.iter().map(String::as_str));
    for (expr, fingerprint) in pinned {
        let regex = Regex::parse(expr, &alphabet).unwrap();
        let key = CanonicalQuery::new(&regex.to_dfa(alphabet.len()));
        assert_eq!(key.fingerprint(), fingerprint, "{expr}");
        assert_eq!(
            regex.to_canonical(alphabet.len()).fingerprint(),
            fingerprint,
            "{expr}"
        );
    }
}

/// Deterministic spot checks of the non-collision direction on a
/// pairwise-distinct family (proptest rarely draws near-miss pairs).
#[test]
fn distinct_language_family_never_collides() {
    let exprs = [
        "a",
        "b",
        "c",
        "eps",
        "a·b",
        "b·a",
        "a*",
        "a·a",
        "(a+b)*·c",
        "(a·b)*·c",
        "a+b",
        "a+c",
    ];
    let alphabet = pathlearn_automata::Alphabet::from_labels(["a", "b", "c"]);
    let keys: Vec<(&str, CanonicalQuery)> = exprs
        .iter()
        .map(|e| {
            let dfa: Dfa = Regex::parse(e, &alphabet).unwrap().to_dfa(SIGMA);
            (*e, CanonicalQuery::new(&dfa))
        })
        .collect();
    for (i, (expr_a, key_a)) in keys.iter().enumerate() {
        for (expr_b, key_b) in &keys[i + 1..] {
            assert_ne!(key_a, key_b, "{expr_a} vs {expr_b} collided");
        }
    }
}

//! Deterministic finite automata with a dense transition table.
//!
//! The paper represents every path query by its **canonical DFA** — the
//! unique minimal DFA of the regular language — and measures query size as
//! its number of states (§2). This module provides the DFA container plus
//! the normalizations the paper relies on: completion, complementation,
//! canonical (BFS) state numbering, and the **prefix-free transform**
//! ("remove all outgoing transitions of every final state"), which maps a
//! query to the minimal representative of its equivalence class.

use crate::bitset::BitSet;
use crate::nfa::Nfa;
use crate::symbol::Symbol;
use crate::word::Word;
use crate::StateId;
use std::collections::VecDeque;

/// Sentinel for "no transition" in the dense table.
pub const DEAD: StateId = StateId::MAX;

/// A (possibly partial) DFA over a dense alphabet `0..alphabet_len`.
///
/// `Hash` is structural (table, initial, finals): two DFAs hash equal iff
/// they are field-for-field identical, which after
/// [`Dfa::minimize`] + canonical numbering means *language* equality —
/// the property [`crate::canonical::CanonicalQuery`] keys caches on.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Dfa {
    alphabet_len: usize,
    num_states: usize,
    /// Row-major table: `table[state * alphabet_len + symbol]`, [`DEAD`] if
    /// the transition is undefined.
    table: Vec<StateId>,
    initial: StateId,
    finals: BitSet,
}

impl Dfa {
    /// Creates a DFA with `num_states` states, no transitions and no
    /// accepting states, starting in `initial`.
    pub fn new(num_states: usize, alphabet_len: usize, initial: StateId) -> Self {
        assert!(
            (initial as usize) < num_states.max(1),
            "initial out of range"
        );
        Dfa {
            alphabet_len,
            num_states,
            table: vec![DEAD; num_states * alphabet_len],
            initial,
            finals: BitSet::new(num_states),
        }
    }

    /// The canonical DFA of the empty language: one non-accepting state.
    pub fn empty_language(alphabet_len: usize) -> Self {
        Dfa::new(1, alphabet_len, 0)
    }

    /// The canonical DFA of `{ε}`: one accepting state, no transitions.
    pub fn epsilon_language(alphabet_len: usize) -> Self {
        let mut dfa = Dfa::new(1, alphabet_len, 0);
        dfa.set_final(0);
        dfa
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The accepting-state set.
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// Marks `state` accepting.
    pub fn set_final(&mut self, state: StateId) {
        self.finals.insert(state as usize);
    }

    /// Whether `state` is accepting.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(state as usize)
    }

    /// Defines `from --sym--> to`.
    pub fn set_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        debug_assert!(sym.index() < self.alphabet_len);
        self.table[from as usize * self.alphabet_len + sym.index()] = to;
    }

    /// The successor of `state` on `sym`, if defined.
    ///
    /// `sym` must be within the DFA's alphabet: the table is dense, so a
    /// larger index would alias into another state's row. Callers joining
    /// against a bigger alphabet (graph NFAs) must skip foreign symbols —
    /// they cannot occur in `L(self)` anyway.
    #[inline]
    pub fn step(&self, state: StateId, sym: Symbol) -> Option<StateId> {
        debug_assert!(sym.index() < self.alphabet_len, "symbol out of alphabet");
        let t = self.table[state as usize * self.alphabet_len + sym.index()];
        (t != DEAD).then_some(t)
    }

    /// Raw table entry ([`DEAD`] when undefined); hot-loop variant of
    /// [`Dfa::step`] with the same alphabet precondition.
    #[inline]
    pub fn step_raw(&self, state: StateId, sym: Symbol) -> StateId {
        debug_assert!(sym.index() < self.alphabet_len, "symbol out of alphabet");
        self.table[state as usize * self.alphabet_len + sym.index()]
    }

    /// `state`'s row of the dense table: its successor per symbol,
    /// [`DEAD`] where undefined.
    #[inline]
    pub(crate) fn row(&self, state: StateId) -> &[StateId] {
        let start = state as usize * self.alphabet_len;
        &self.table[start..start + self.alphabet_len]
    }

    /// Runs the DFA on `word` from the initial state.
    pub fn run(&self, word: &[Symbol]) -> Option<StateId> {
        self.run_from(self.initial, word)
    }

    /// Runs the DFA on `word` from an arbitrary state.
    pub fn run_from(&self, mut state: StateId, word: &[Symbol]) -> Option<StateId> {
        for &sym in word {
            state = self.step(state, sym)?;
        }
        Some(state)
    }

    /// Word membership.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.run(word).is_some_and(|s| self.is_final(s))
    }

    /// Iterates over all defined transitions as `(from, symbol, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        (0..self.num_states).flat_map(move |s| {
            (0..self.alphabet_len).filter_map(move |a| {
                let t = self.table[s * self.alphabet_len + a];
                (t != DEAD).then_some((s as StateId, Symbol::from_index(a), t))
            })
        })
    }

    /// Converts to an equivalent NFA (shares no structure).
    pub fn to_nfa(&self) -> Nfa {
        let mut nfa = Nfa::from_edges(
            self.num_states.max(1),
            self.alphabet_len,
            self.transitions(),
            [self.initial],
            self.finals.iter().map(|f| f as StateId),
        );
        nfa.set_initial(self.initial);
        nfa
    }

    /// Completes the DFA: if any transition is undefined, adds a sink state
    /// and routes every undefined transition (including the sink's) to it.
    /// Returns the completed DFA and the sink id if one was added.
    pub fn complete(&self) -> (Dfa, Option<StateId>) {
        let incomplete = self.table.contains(&DEAD) || self.num_states == 0;
        if !incomplete {
            return (self.clone(), None);
        }
        let sink = self.num_states as StateId;
        let mut out = Dfa::new(self.num_states + 1, self.alphabet_len, self.initial);
        for f in self.finals.iter() {
            out.finals.insert(f);
        }
        for s in 0..self.num_states {
            for a in 0..self.alphabet_len {
                let t = self.table[s * self.alphabet_len + a];
                out.table[s * self.alphabet_len + a] = if t == DEAD { sink } else { t };
            }
        }
        for a in 0..self.alphabet_len {
            out.table[sink as usize * self.alphabet_len + a] = sink;
        }
        (out, Some(sink))
    }

    /// The complement DFA (recognizing `Σ* \ L`).
    pub fn complement(&self) -> Dfa {
        let (mut complete, _) = self.complete();
        let mut flipped = BitSet::new(complete.num_states);
        for s in 0..complete.num_states {
            if !complete.finals.contains(s) {
                flipped.insert(s);
            }
        }
        complete.finals = flipped;
        complete
    }

    /// States reachable from the initial state.
    pub fn reachable(&self) -> BitSet {
        let mut seen = BitSet::new(self.num_states.max(1));
        if self.num_states == 0 {
            return seen;
        }
        seen.insert(self.initial as usize);
        let mut queue = VecDeque::from([self.initial]);
        while let Some(s) = queue.pop_front() {
            for a in 0..self.alphabet_len {
                let t = self.table[s as usize * self.alphabet_len + a];
                if t != DEAD && seen.insert(t as usize) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// States from which some accepting state is reachable.
    pub fn coreachable(&self) -> BitSet {
        // Reverse adjacency walk.
        let mut preds: Vec<Vec<StateId>> = vec![Vec::new(); self.num_states];
        for (from, _, to) in self.transitions() {
            preds[to as usize].push(from);
        }
        let mut seen = BitSet::new(self.num_states.max(1));
        let mut queue: VecDeque<usize> = VecDeque::new();
        for f in self.finals.iter() {
            if seen.insert(f) {
                queue.push_back(f);
            }
        }
        while let Some(s) = queue.pop_front() {
            for &p in &preds[s] {
                if seen.insert(p as usize) {
                    queue.push_back(p as usize);
                }
            }
        }
        seen
    }

    /// Restricts to reachable-and-coreachable states ("trimming").
    ///
    /// If the language is empty the result is the canonical one-state
    /// empty-language DFA. Returns the trimmed DFA.
    pub fn trim(&self) -> Dfa {
        let mut live = self.reachable();
        live.intersect_with(&self.coreachable());
        if self.num_states == 0 || !live.contains(self.initial as usize) {
            return Dfa::empty_language(self.alphabet_len);
        }
        let mut map: Vec<StateId> = vec![DEAD; self.num_states];
        let mut next = 0;
        for s in live.iter() {
            map[s] = next;
            next += 1;
        }
        let mut out = Dfa::new(next as usize, self.alphabet_len, map[self.initial as usize]);
        for s in live.iter() {
            for a in 0..self.alphabet_len {
                let t = self.table[s * self.alphabet_len + a];
                if t != DEAD && map[t as usize] != DEAD {
                    out.table[map[s] as usize * self.alphabet_len + a] = map[t as usize];
                }
            }
            if self.finals.contains(s) {
                out.finals.insert(map[s] as usize);
            }
        }
        out
    }

    /// Renumbers states in BFS discovery order from the initial state,
    /// expanding symbols in alphabet order. Two isomorphic trimmed DFAs
    /// canonicalize to identical tables, so structural equality after
    /// `minimize() + canonicalize()` is language equivalence.
    ///
    /// Unreachable states are dropped.
    pub fn canonicalize(&self) -> Dfa {
        if self.num_states == 0 {
            return Dfa::empty_language(self.alphabet_len);
        }
        let mut map: Vec<StateId> = vec![DEAD; self.num_states];
        let mut order: Vec<StateId> = Vec::with_capacity(self.num_states);
        map[self.initial as usize] = 0;
        order.push(self.initial);
        let mut head = 0;
        while head < order.len() {
            let s = order[head];
            head += 1;
            for a in 0..self.alphabet_len {
                let t = self.table[s as usize * self.alphabet_len + a];
                if t != DEAD && map[t as usize] == DEAD {
                    map[t as usize] = order.len() as StateId;
                    order.push(t);
                }
            }
        }
        let mut out = Dfa::new(order.len(), self.alphabet_len, 0);
        for (new_id, &old) in order.iter().enumerate() {
            for a in 0..self.alphabet_len {
                let t = self.table[old as usize * self.alphabet_len + a];
                if t != DEAD {
                    out.table[new_id * self.alphabet_len + a] = map[t as usize];
                }
            }
            if self.finals.contains(old as usize) {
                out.finals.insert(new_id);
            }
        }
        out
    }

    /// Minimal canonical form: one pass that trims, refines over the
    /// live symbols and numbers the blocks in BFS order. See
    /// [`crate::minimize`].
    pub fn minimize(&self) -> Dfa {
        crate::minimize::minimize(self)
    }

    /// Language equivalence via canonical minimal forms.
    pub fn equivalent(&self, other: &Dfa) -> bool {
        assert_eq!(
            self.alphabet_len, other.alphabet_len,
            "comparing DFAs over different alphabets"
        );
        self.minimize() == other.minimize()
    }

    /// `true` iff no accepted word is a proper prefix of another accepted
    /// word (paper §2: prefix-free queries are the minimal representatives
    /// of query-equivalence classes).
    pub fn is_prefix_free(&self) -> bool {
        let trimmed = self.trim();
        // In a trimmed DFA every state reaches a final state, so the
        // language is prefix-free iff no final state has an outgoing
        // transition.
        for f in trimmed.finals.iter() {
            for a in 0..trimmed.alphabet_len {
                if trimmed.table[f * trimmed.alphabet_len + a] != DEAD {
                    return false;
                }
            }
        }
        true
    }

    /// The prefix-free query equivalent to this one: removes every
    /// outgoing transition of every final state, then minimizes (§2).
    pub fn make_prefix_free(&self) -> Dfa {
        let mut pruned = self.clone();
        for f in self.finals.iter() {
            for a in 0..self.alphabet_len {
                pruned.table[f * self.alphabet_len + a] = DEAD;
            }
        }
        pruned.minimize()
    }

    /// `true` iff the recognized language is empty.
    pub fn language_is_empty(&self) -> bool {
        !self.reachable().intersects(&self.finals)
    }

    /// The `≤`-minimal accepted word, or `None` if the language is empty.
    pub fn shortest_accepted(&self) -> Option<Word> {
        self.to_nfa().shortest_accepted()
    }

    /// The paper's notion of query size: the number of states of the
    /// canonical (minimal, trimmed) DFA.
    pub fn canonical_size(&self) -> usize {
        self.minimize().num_states()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// Canonical DFA for (a·b)*·c over {a=0,b=1,c=2} — Figure 4 of the
    /// paper (3 states).
    pub(crate) fn fig4() -> Dfa {
        let mut dfa = Dfa::new(3, 3, 0);
        dfa.set_transition(0, sym(0), 1);
        dfa.set_transition(1, sym(1), 0);
        dfa.set_transition(0, sym(2), 2);
        dfa.set_final(2);
        dfa
    }

    #[test]
    fn accepts_fig4_language() {
        let dfa = fig4();
        assert!(dfa.accepts(&[sym(2)]));
        assert!(dfa.accepts(&[sym(0), sym(1), sym(2)]));
        assert!(dfa.accepts(&[sym(0), sym(1), sym(0), sym(1), sym(2)]));
        assert!(!dfa.accepts(&[]));
        assert!(!dfa.accepts(&[sym(0)]));
        assert!(!dfa.accepts(&[sym(0), sym(2)]));
    }

    #[test]
    fn complete_adds_single_sink() {
        let dfa = fig4();
        let (complete, sink) = dfa.complete();
        assert_eq!(sink, Some(3));
        assert_eq!(complete.num_states(), 4);
        // All transitions defined.
        assert!(complete.table.iter().all(|&t| t != DEAD));
        // Language unchanged.
        assert!(complete.accepts(&[sym(0), sym(1), sym(2)]));
        assert!(!complete.accepts(&[sym(1)]));
        // Completing a complete DFA is the identity.
        let (again, sink2) = complete.complete();
        assert_eq!(sink2, None);
        assert_eq!(again, complete);
    }

    #[test]
    fn complement_flips_membership() {
        let dfa = fig4();
        let comp = dfa.complement();
        for word in crate::word::enumerate_words(3, 4) {
            assert_ne!(dfa.accepts(&word), comp.accepts(&word), "word {word:?}");
        }
    }

    #[test]
    fn trim_removes_dead_and_unreachable() {
        let mut dfa = Dfa::new(5, 2, 0);
        dfa.set_transition(0, sym(0), 1);
        dfa.set_transition(0, sym(1), 2); // 2 is dead
        dfa.set_transition(3, sym(0), 1); // 3 unreachable
        dfa.set_final(1);
        let trimmed = dfa.trim();
        assert_eq!(trimmed.num_states(), 2);
        assert!(trimmed.accepts(&[sym(0)]));
        assert!(!trimmed.accepts(&[sym(1)]));
    }

    #[test]
    fn trim_of_empty_language_is_one_state() {
        let dfa = Dfa::new(3, 2, 0); // no finals at all
        let trimmed = dfa.trim();
        assert_eq!(trimmed.num_states(), 1);
        assert!(trimmed.language_is_empty());
    }

    #[test]
    fn canonicalize_is_isomorphism_invariant() {
        let dfa = fig4();
        // Relabel states: 0->2, 1->0, 2->1.
        let mut relabeled = Dfa::new(3, 3, 2);
        relabeled.set_transition(2, sym(0), 0);
        relabeled.set_transition(0, sym(1), 2);
        relabeled.set_transition(2, sym(2), 1);
        relabeled.set_final(1);
        assert_eq!(dfa.canonicalize(), relabeled.canonicalize());
    }

    #[test]
    fn prefix_free_checks() {
        let dfa = fig4();
        assert!(dfa.is_prefix_free());
        // a·b* is not prefix-free; its prefix-free form is `a`.
        let mut ab_star = Dfa::new(2, 2, 0);
        ab_star.set_transition(0, sym(0), 1);
        ab_star.set_transition(1, sym(1), 1);
        ab_star.set_final(1);
        assert!(!ab_star.is_prefix_free());
        let pf = ab_star.make_prefix_free();
        assert!(pf.is_prefix_free());
        assert!(pf.accepts(&[sym(0)]));
        assert!(!pf.accepts(&[sym(0), sym(1)]));
        assert_eq!(pf.num_states(), 2);
    }

    #[test]
    fn equivalence_and_size() {
        let dfa = fig4();
        assert!(dfa.equivalent(&dfa.complete().0));
        assert!(!dfa.equivalent(&Dfa::empty_language(3)));
        assert_eq!(dfa.canonical_size(), 3); // paper: size of (a·b)*·c is 3
    }

    #[test]
    fn shortest_accepted_word() {
        let dfa = fig4();
        assert_eq!(dfa.shortest_accepted(), Some(vec![sym(2)]));
        assert_eq!(Dfa::empty_language(3).shortest_accepted(), None);
        assert_eq!(Dfa::epsilon_language(3).shortest_accepted(), Some(vec![]));
    }

    #[test]
    fn run_from_partial() {
        let dfa = fig4();
        assert_eq!(dfa.run(&[sym(0)]), Some(1));
        assert_eq!(dfa.run(&[sym(1)]), None);
        assert_eq!(dfa.run_from(1, &[sym(1), sym(2)]), Some(2));
    }
}

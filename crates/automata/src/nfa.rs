//! ε-free nondeterministic finite automata.
//!
//! NFAs are the workhorse representation: the language `paths_G(X)` of a
//! graph database (paper §2) is exactly an NFA whose states are the graph
//! nodes, whose initial states are `X` and whose states are **all**
//! accepting (path languages are prefix-closed). Keeping NFAs ε-free makes
//! every product/simulation loop a plain worklist over `(Symbol, StateId)`
//! pairs.

use crate::bitset::BitSet;
use crate::symbol::Symbol;
use crate::word::Word;
use crate::StateId;
use std::collections::VecDeque;

/// An ε-free NFA over a dense alphabet `0..alphabet_len`.
///
/// Transitions are stored per state, sorted by `(symbol, target)`, so
/// per-symbol successor lookup is a binary-searched slice and iteration
/// order is deterministic (which the canonical-order searches rely on).
#[derive(Clone, Debug)]
pub struct Nfa {
    alphabet_len: usize,
    transitions: Vec<Vec<(Symbol, StateId)>>,
    initials: Vec<StateId>,
    finals: BitSet,
}

impl Nfa {
    /// Creates an NFA with `num_states` states and no transitions.
    pub fn new(num_states: usize, alphabet_len: usize) -> Self {
        Nfa {
            alphabet_len,
            transitions: vec![Vec::new(); num_states],
            initials: Vec::new(),
            finals: BitSet::new(num_states),
        }
    }

    /// Builds an NFA in one shot from an edge list; sorts transitions once.
    pub fn from_edges(
        num_states: usize,
        alphabet_len: usize,
        edges: impl IntoIterator<Item = (StateId, Symbol, StateId)>,
        initials: impl IntoIterator<Item = StateId>,
        finals: impl IntoIterator<Item = StateId>,
    ) -> Self {
        let mut nfa = Self::new(num_states, alphabet_len);
        for (from, sym, to) in edges {
            nfa.transitions[from as usize].push((sym, to));
        }
        for row in &mut nfa.transitions {
            row.sort_unstable();
            row.dedup();
        }
        for s in initials {
            nfa.set_initial(s);
        }
        for s in finals {
            nfa.set_final(s);
        }
        nfa
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Alphabet size.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// Adds a transition, keeping the per-state rows sorted and deduped.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        debug_assert!(sym.index() < self.alphabet_len);
        let row = &mut self.transitions[from as usize];
        match row.binary_search(&(sym, to)) {
            Ok(_) => {}
            Err(pos) => row.insert(pos, (sym, to)),
        }
    }

    /// Marks a state as initial.
    pub fn set_initial(&mut self, state: StateId) {
        if let Err(pos) = self.initials.binary_search(&state) {
            self.initials.insert(pos, state);
        }
    }

    /// Marks a state as accepting.
    pub fn set_final(&mut self, state: StateId) {
        self.finals.insert(state as usize);
    }

    /// Marks every state as accepting (prefix-closed path languages).
    pub fn set_all_final(&mut self) {
        self.finals = BitSet::full(self.num_states());
    }

    /// Whether `state` is accepting.
    pub fn is_final(&self, state: StateId) -> bool {
        self.finals.contains(state as usize)
    }

    /// The sorted initial-state slice.
    pub fn initials(&self) -> &[StateId] {
        &self.initials
    }

    /// The accepting-state set.
    pub fn finals(&self) -> &BitSet {
        &self.finals
    }

    /// All transitions out of `state`, sorted by `(symbol, target)`.
    pub fn transitions_from(&self, state: StateId) -> &[(Symbol, StateId)] {
        &self.transitions[state as usize]
    }

    /// Successor states of `state` on `sym`, as a sorted slice.
    pub fn successors(&self, state: StateId, sym: Symbol) -> &[(Symbol, StateId)] {
        let row = &self.transitions[state as usize];
        let start = row.partition_point(|&(s, _)| s < sym);
        let end = row.partition_point(|&(s, _)| s <= sym);
        &row[start..end]
    }

    /// One simulation step on a set of states: `{ t | s ∈ set, s -sym-> t }`.
    pub fn step_set(&self, set: &BitSet, sym: Symbol) -> BitSet {
        let mut next = BitSet::new(self.num_states());
        for s in set.iter() {
            for &(_, t) in self.successors(s as StateId, sym) {
                next.insert(t as usize);
            }
        }
        next
    }

    /// The initial-state set as a [`BitSet`].
    pub fn initial_set(&self) -> BitSet {
        BitSet::from_indices(self.num_states(), self.initials.iter().map(|&s| s as usize))
    }

    /// Word-membership by set simulation: `O(|w| · |E|)`.
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        let mut current = self.initial_set();
        for &sym in word {
            if current.is_empty() {
                return false;
            }
            current = self.step_set(&current, sym);
        }
        current.intersects(&self.finals)
    }

    /// States reachable from the initial set.
    pub fn reachable(&self) -> BitSet {
        let mut seen = self.initial_set();
        let mut queue: VecDeque<StateId> = self.initials.iter().copied().collect();
        while let Some(s) = queue.pop_front() {
            for &(_, t) in self.transitions_from(s) {
                if seen.insert(t as usize) {
                    queue.push_back(t);
                }
            }
        }
        seen
    }

    /// The reversed NFA: transitions flipped, initials↔finals.
    pub fn reverse(&self) -> Nfa {
        let n = self.num_states();
        let mut rev = Nfa::new(n, self.alphabet_len);
        for (from, row) in self.transitions.iter().enumerate() {
            for &(sym, to) in row {
                rev.transitions[to as usize].push((sym, from as StateId));
            }
        }
        for row in &mut rev.transitions {
            row.sort_unstable();
            row.dedup();
        }
        rev.initials = self.finals.iter().map(|i| i as StateId).collect();
        for &i in &self.initials {
            rev.finals.insert(i as usize);
        }
        rev
    }

    /// States from which an accepting state is reachable.
    pub fn coreachable(&self) -> BitSet {
        self.reverse().reachable()
    }

    /// Returns the trimmed NFA (reachable ∩ co-reachable states only) and
    /// the mapping `old state -> new state` (dense) for kept states.
    pub fn trim(&self) -> (Nfa, Vec<Option<StateId>>) {
        let mut live = self.reachable();
        live.intersect_with(&self.coreachable());
        let mut map: Vec<Option<StateId>> = vec![None; self.num_states()];
        let mut next = 0u32;
        for s in live.iter() {
            map[s] = Some(next);
            next += 1;
        }
        let mut out = Nfa::new(next as usize, self.alphabet_len);
        for (from, row) in self.transitions.iter().enumerate() {
            let Some(nf) = map[from] else { continue };
            for &(sym, to) in row {
                if let Some(nt) = map[to as usize] {
                    out.transitions[nf as usize].push((sym, nt));
                }
            }
        }
        for row in &mut out.transitions {
            row.sort_unstable();
            row.dedup();
        }
        for &i in &self.initials {
            if let Some(ni) = map[i as usize] {
                out.set_initial(ni);
            }
        }
        for f in self.finals.iter() {
            if let Some(nf) = map[f] {
                out.set_final(nf);
            }
        }
        (out, map)
    }

    /// `true` iff the recognized language is empty.
    pub fn language_is_empty(&self) -> bool {
        !self.reachable().intersects(&self.finals)
    }

    /// The `≤`-minimal accepted word (canonical order: shortest, then lex),
    /// or `None` if the language is empty.
    ///
    /// The search runs on the **lazily determinized** automaton: each word
    /// maps to a unique reach-set, so a BFS over reach-sets expanding
    /// symbols in ascending order discovers sets in canonical order of
    /// their minimal words, and the first accepting set carries the
    /// `≤`-minimal accepted word. (A BFS over plain NFA states would break
    /// the lexicographic tie when two states share a minimal word — e.g.
    /// with several initial states.)
    pub fn shortest_accepted(&self) -> Option<Word> {
        let initial = self.initial_set();
        if initial.intersects(&self.finals) {
            return Some(Vec::new());
        }
        if initial.is_empty() {
            return None;
        }
        let mut seen: std::collections::HashSet<BitSet> = std::collections::HashSet::new();
        let mut queue: VecDeque<(BitSet, Word)> = VecDeque::new();
        seen.insert(initial.clone());
        queue.push_back((initial, Vec::new()));
        while let Some((set, word)) = queue.pop_front() {
            for a in 0..self.alphabet_len {
                let sym = Symbol::from_index(a);
                let next = self.step_set(&set, sym);
                if next.is_empty() || seen.contains(&next) {
                    continue;
                }
                let mut next_word = word.clone();
                next_word.push(sym);
                if next.intersects(&self.finals) {
                    return Some(next_word);
                }
                seen.insert(next.clone());
                queue.push_back((next, next_word));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sym(i: usize) -> Symbol {
        Symbol::from_index(i)
    }

    /// NFA for (ab)*c over {a=0, b=1, c=2} plus a nondeterministic branch.
    fn sample() -> Nfa {
        let mut nfa = Nfa::new(3, 3);
        nfa.add_transition(0, sym(0), 1);
        nfa.add_transition(1, sym(1), 0);
        nfa.add_transition(0, sym(2), 2);
        nfa.set_initial(0);
        nfa.set_final(2);
        nfa
    }

    #[test]
    fn accepts_simulation() {
        let nfa = sample();
        assert!(nfa.accepts(&[sym(2)]));
        assert!(nfa.accepts(&[sym(0), sym(1), sym(2)]));
        assert!(!nfa.accepts(&[]));
        assert!(!nfa.accepts(&[sym(0)]));
        assert!(!nfa.accepts(&[sym(1), sym(2)]));
    }

    #[test]
    fn successors_are_symbol_sliced() {
        let mut nfa = Nfa::new(2, 2);
        nfa.add_transition(0, sym(1), 1);
        nfa.add_transition(0, sym(0), 0);
        nfa.add_transition(0, sym(0), 1);
        let a_succ: Vec<StateId> = nfa.successors(0, sym(0)).iter().map(|&(_, t)| t).collect();
        assert_eq!(a_succ, vec![0, 1]);
        let b_succ: Vec<StateId> = nfa.successors(0, sym(1)).iter().map(|&(_, t)| t).collect();
        assert_eq!(b_succ, vec![1]);
    }

    #[test]
    fn shortest_accepted_is_canonical_minimum() {
        // Two accepting routes: "c" (len 1) and "ab...":
        let nfa = sample();
        assert_eq!(nfa.shortest_accepted(), Some(vec![sym(2)]));
        // ε accepted when an initial state is final.
        let mut eps = Nfa::new(1, 1);
        eps.set_initial(0);
        eps.set_final(0);
        assert_eq!(eps.shortest_accepted(), Some(vec![]));
    }

    #[test]
    fn shortest_accepted_prefers_lex_smaller_same_length() {
        // Both "b a" and "a b" accepted; canonical min is "a b" (0,1).
        let mut nfa = Nfa::new(4, 2);
        nfa.set_initial(0);
        nfa.add_transition(0, sym(0), 1);
        nfa.add_transition(1, sym(1), 3);
        nfa.add_transition(0, sym(1), 2);
        nfa.add_transition(2, sym(0), 3);
        nfa.set_final(3);
        assert_eq!(nfa.shortest_accepted(), Some(vec![sym(0), sym(1)]));
    }

    #[test]
    fn empty_language() {
        let mut nfa = Nfa::new(2, 1);
        nfa.set_initial(0);
        nfa.set_final(1); // unreachable
        assert!(nfa.language_is_empty());
        assert_eq!(nfa.shortest_accepted(), None);
    }

    #[test]
    fn trim_drops_dead_states() {
        let mut nfa = Nfa::new(4, 2);
        nfa.set_initial(0);
        nfa.add_transition(0, sym(0), 1); // live path
        nfa.add_transition(0, sym(1), 2); // dead end (2 not coreachable)
        nfa.set_final(1);
        // state 3 unreachable.
        let (trimmed, map) = nfa.trim();
        assert_eq!(trimmed.num_states(), 2);
        assert!(map[2].is_none() && map[3].is_none());
        assert!(trimmed.accepts(&[sym(0)]));
        assert!(!trimmed.accepts(&[sym(1)]));
    }

    #[test]
    fn reverse_accepts_mirror() {
        let nfa = sample();
        let rev = nfa.reverse();
        assert!(rev.accepts(&[sym(2)]));
        assert!(rev.accepts(&[sym(2), sym(1), sym(0)]));
        assert!(!rev.accepts(&[sym(0), sym(1), sym(2)]));
    }

    #[test]
    fn all_final_marks_every_state() {
        let mut nfa = sample();
        nfa.set_all_final();
        assert!(nfa.accepts(&[]));
        assert!(nfa.accepts(&[sym(0)]));
        assert!(nfa.accepts(&[sym(0), sym(1)]));
        // but not words leaving the support:
        assert!(!nfa.accepts(&[sym(1)]));
    }
}

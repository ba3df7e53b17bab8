//! Regular expressions: AST, parser, printer, Thompson construction.
//!
//! The grammar is the paper's (§2):
//! `q := ε | a (a ∈ Σ) | q₁ + q₂ | q₁ · q₂ | q*` — extended with
//! parentheses and with `|` accepted as a synonym for `+`. Labels are
//! identifiers (`[A-Za-z_][A-Za-z0-9_]*`), so multi-character labels like
//! `tram` or `ProteinPurification` parse naturally; juxtaposition with
//! whitespace is an implicit concatenation (`a b` ≡ `a·b`).

use crate::canonical::CanonicalQuery;
use crate::dfa::Dfa;
use crate::nfa::Nfa;
use crate::symbol::{Alphabet, Symbol};
use crate::StateId;
use std::fmt;

/// Regular-expression abstract syntax tree.
///
/// ```
/// use pathlearn_automata::{Alphabet, Regex};
///
/// let alphabet = Alphabet::from_labels(["a", "b", "c"]);
/// let regex = Regex::parse("(a·b)*·c", &alphabet).unwrap();
/// let dfa = regex.to_dfa(alphabet.len());
/// assert_eq!(dfa.num_states(), 3); // Figure 4 of the paper
/// assert!(dfa.accepts(&alphabet.parse_word("a b c").unwrap()));
/// assert!(!dfa.accepts(&alphabet.parse_word("a c").unwrap()));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Regex {
    /// The empty language `∅` (needed as an algebraic zero by state
    /// elimination; not produced by the parser).
    Empty,
    /// The empty word `ε`.
    Epsilon,
    /// A single symbol.
    Symbol(Symbol),
    /// Concatenation of two or more factors.
    Concat(Vec<Regex>),
    /// Disjunction of two or more alternatives.
    Alt(Vec<Regex>),
    /// Kleene star.
    Star(Box<Regex>),
}

impl Regex {
    /// Builds a concatenation, flattening trivial cases.
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut flat = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Epsilon => {}
                Regex::Empty => return Regex::Empty,
                Regex::Concat(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => Regex::Epsilon,
            1 => flat.pop().unwrap(),
            _ => Regex::Concat(flat),
        }
    }

    /// Builds a disjunction, flattening and deduplicating alternatives.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        let mut flat: Vec<Regex> = Vec::with_capacity(parts.len());
        for p in parts {
            match p {
                Regex::Empty => {}
                Regex::Alt(inner) => {
                    for q in inner {
                        if !flat.contains(&q) {
                            flat.push(q);
                        }
                    }
                }
                other => {
                    if !flat.contains(&other) {
                        flat.push(other);
                    }
                }
            }
        }
        match flat.len() {
            0 => Regex::Empty,
            1 => flat.pop().unwrap(),
            _ => Regex::Alt(flat),
        }
    }

    /// Builds a star, collapsing `(r*)* = r*`, `∅* = ε*` = `ε`.
    pub fn star(inner: Regex) -> Regex {
        match inner {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            star @ Regex::Star(_) => star,
            other => Regex::Star(Box::new(other)),
        }
    }

    /// A disjunction of single symbols — the paper's `A = a₁ + … + aₙ`
    /// label classes (Table 1).
    pub fn symbol_class(symbols: &[Symbol]) -> Regex {
        Regex::alt(symbols.iter().map(|&s| Regex::Symbol(s)).collect())
    }

    /// `true` iff `ε ∈ L(self)`.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty => false,
            Regex::Epsilon => true,
            Regex::Symbol(_) => false,
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
            Regex::Star(_) => true,
        }
    }

    /// Number of AST nodes (a crude complexity measure used by the state
    /// elimination heuristics).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Symbol(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(inner) => 1 + inner.size(),
        }
    }

    /// Thompson construction followed by ε-elimination: an ε-free NFA
    /// recognizing `L(self)`.
    pub fn to_nfa(&self, alphabet_len: usize) -> Nfa {
        let mut builder = ThompsonBuilder::new(alphabet_len);
        let fragment = builder.build(self);
        builder.finish(fragment)
    }

    /// The canonical (minimal) DFA of `L(self)`.
    pub fn to_dfa(&self, alphabet_len: usize) -> Dfa {
        crate::determinize::determinize(&self.to_nfa(alphabet_len)).minimize()
    }

    /// `L(self)` as a cache key: equals
    /// `CanonicalQuery::new(&self.to_dfa(alphabet_len))`, but canonicalizes
    /// the subset construction directly instead of minimizing twice.
    pub fn to_canonical(&self, alphabet_len: usize) -> CanonicalQuery {
        CanonicalQuery::new(&crate::determinize::determinize(&self.to_nfa(alphabet_len)))
    }

    /// [`Regex::to_canonical`] for untrusted expressions: `None` if the
    /// subset construction needs more than `max_states` states (see
    /// [`crate::determinize::determinize_bounded`]) — the budget is on
    /// the DFA *before* minimization, which is where the work is.
    pub fn to_canonical_bounded(
        &self,
        alphabet_len: usize,
        max_states: usize,
    ) -> Option<CanonicalQuery> {
        let dfa = crate::determinize::determinize_bounded(&self.to_nfa(alphabet_len), max_states)?;
        Some(CanonicalQuery::new(&dfa))
    }

    /// Parses a regex over an existing alphabet; unknown labels are errors.
    pub fn parse(input: &str, alphabet: &Alphabet) -> Result<Regex, ParseError> {
        Parser::new(input, alphabet).parse()
    }

    /// Renders the regex with label names from `alphabet`.
    pub fn display<'a>(&'a self, alphabet: &'a Alphabet) -> impl fmt::Display + 'a {
        RegexDisplay {
            regex: self,
            alphabet,
        }
    }
}

// ---------------------------------------------------------------------------
// Thompson construction
// ---------------------------------------------------------------------------

/// ε-NFA under construction; edges carry `Option<Symbol>` (None = ε).
struct ThompsonBuilder {
    alphabet_len: usize,
    edges: Vec<Vec<(Option<Symbol>, StateId)>>,
}

/// A fragment with one entry and one exit state.
struct Fragment {
    start: StateId,
    end: StateId,
}

impl ThompsonBuilder {
    fn new(alphabet_len: usize) -> Self {
        ThompsonBuilder {
            alphabet_len,
            edges: Vec::new(),
        }
    }

    fn state(&mut self) -> StateId {
        self.edges.push(Vec::new());
        (self.edges.len() - 1) as StateId
    }

    fn edge(&mut self, from: StateId, label: Option<Symbol>, to: StateId) {
        self.edges[from as usize].push((label, to));
    }

    fn build(&mut self, regex: &Regex) -> Fragment {
        match regex {
            Regex::Empty => {
                let start = self.state();
                let end = self.state();
                Fragment { start, end }
            }
            Regex::Epsilon => {
                let start = self.state();
                let end = self.state();
                self.edge(start, None, end);
                Fragment { start, end }
            }
            Regex::Symbol(sym) => {
                let start = self.state();
                let end = self.state();
                self.edge(start, Some(*sym), end);
                Fragment { start, end }
            }
            Regex::Concat(parts) => {
                debug_assert!(!parts.is_empty());
                let mut iter = parts.iter();
                let first = self.build(iter.next().expect("non-empty concat"));
                let mut current = first.end;
                let start = first.start;
                for part in iter {
                    let next = self.build(part);
                    self.edge(current, None, next.start);
                    current = next.end;
                }
                Fragment {
                    start,
                    end: current,
                }
            }
            Regex::Alt(parts) => {
                let start = self.state();
                let end = self.state();
                for part in parts {
                    let frag = self.build(part);
                    self.edge(start, None, frag.start);
                    self.edge(frag.end, None, end);
                }
                Fragment { start, end }
            }
            Regex::Star(inner) => {
                let start = self.state();
                let end = self.state();
                let frag = self.build(inner);
                self.edge(start, None, frag.start);
                self.edge(frag.end, None, end);
                self.edge(start, None, end);
                self.edge(frag.end, None, frag.start);
                Fragment { start, end }
            }
        }
    }

    /// ε-closure elimination, producing an ε-free [`Nfa`].
    fn finish(self, fragment: Fragment) -> Nfa {
        let n = self.edges.len();
        // Per-state ε-closure by DFS.
        let mut closures: Vec<Vec<StateId>> = Vec::with_capacity(n);
        for s in 0..n as StateId {
            let mut seen = vec![false; n];
            let mut stack = vec![s];
            seen[s as usize] = true;
            let mut closure = Vec::new();
            while let Some(q) = stack.pop() {
                closure.push(q);
                for &(label, t) in &self.edges[q as usize] {
                    if label.is_none() && !seen[t as usize] {
                        seen[t as usize] = true;
                        stack.push(t);
                    }
                }
            }
            closures.push(closure);
        }
        let mut edge_list = Vec::new();
        for s in 0..n as StateId {
            for &q in &closures[s as usize] {
                for &(label, t) in &self.edges[q as usize] {
                    if let Some(sym) = label {
                        edge_list.push((s, sym, t));
                    }
                }
            }
        }
        let finals: Vec<StateId> = (0..n as StateId)
            .filter(|&s| closures[s as usize].contains(&fragment.end))
            .collect();
        let nfa = Nfa::from_edges(n, self.alphabet_len, edge_list, [fragment.start], finals);
        nfa.trim().0
    }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

/// Error produced by [`Regex::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the error in the input.
    pub position: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at byte {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
    alphabet: &'a Alphabet,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, alphabet: &'a Alphabet) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
            alphabet,
        }
    }

    fn parse(mut self) -> Result<Regex, ParseError> {
        let regex = self.parse_alt()?;
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.error("unexpected trailing input"));
        }
        Ok(regex)
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.to_owned(),
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.input.len() && self.input[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.input.get(self.pos).copied()
    }

    fn parse_alt(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_concat()?];
        while let Some(c) = self.peek() {
            if c == b'+' || c == b'|' {
                self.pos += 1;
                parts.push(self.parse_concat()?);
            } else {
                break;
            }
        }
        Ok(Regex::alt(parts))
    }

    /// `true` if the input at the current position starts with the UTF-8
    /// encoding of `ch`; consumes it when it does.
    fn eat_utf8(&mut self, ch: char) -> bool {
        let mut buf = [0u8; 4];
        let encoded = ch.encode_utf8(&mut buf).as_bytes();
        if self.input[self.pos..].starts_with(encoded) {
            self.pos += encoded.len();
            true
        } else {
            false
        }
    }

    fn parse_concat(&mut self) -> Result<Regex, ParseError> {
        let mut parts = vec![self.parse_postfix()?];
        loop {
            match self.peek() {
                Some(b'.') => {
                    self.pos += 1;
                    parts.push(self.parse_postfix()?);
                }
                // The paper's concatenation dot `·` (U+00B7).
                Some(0xC2) if self.eat_utf8('·') => {
                    parts.push(self.parse_postfix()?);
                }
                // Implicit concatenation before an atom start.
                Some(c) if c == b'(' || is_ident_start(c) || c == 0xCE => {
                    parts.push(self.parse_postfix()?);
                }
                _ => break,
            }
        }
        Ok(Regex::concat(parts))
    }

    fn parse_postfix(&mut self) -> Result<Regex, ParseError> {
        let mut atom = self.parse_atom()?;
        while let Some(b'*') = self.peek() {
            self.pos += 1;
            atom = Regex::star(atom);
        }
        Ok(atom)
    }

    fn parse_atom(&mut self) -> Result<Regex, ParseError> {
        match self.peek() {
            // The paper's `ε` (U+03B5).
            Some(0xCE) => {
                if self.eat_utf8('ε') {
                    Ok(Regex::Epsilon)
                } else {
                    Err(self.error("expected label, `(` or `eps`"))
                }
            }
            Some(b'(') => {
                self.pos += 1;
                let inner = self.parse_alt()?;
                if self.peek() != Some(b')') {
                    return Err(self.error("expected `)`"));
                }
                self.pos += 1;
                Ok(inner)
            }
            Some(c) if is_ident_start(c) => {
                let start = self.pos;
                while self.pos < self.input.len() && is_ident_continue(self.input[self.pos]) {
                    self.pos += 1;
                }
                let name =
                    std::str::from_utf8(&self.input[start..self.pos]).expect("ascii identifier");
                if name == "eps" {
                    return Ok(Regex::Epsilon);
                }
                let sym = self.alphabet.symbol(name).ok_or_else(|| ParseError {
                    position: start,
                    message: format!("unknown label `{name}`"),
                })?;
                Ok(Regex::Symbol(sym))
            }
            Some(_) => Err(self.error("expected label, `(` or `eps`")),
            None => Err(self.error("unexpected end of input")),
        }
    }
}

fn is_ident_start(c: u8) -> bool {
    c.is_ascii_alphabetic() || c == b'_'
}

fn is_ident_continue(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

// ---------------------------------------------------------------------------
// Printer
// ---------------------------------------------------------------------------

struct RegexDisplay<'a> {
    regex: &'a Regex,
    alphabet: &'a Alphabet,
}

/// Operator precedence levels for printing.
fn precedence(regex: &Regex) -> u8 {
    match regex {
        Regex::Alt(_) => 0,
        Regex::Concat(_) => 1,
        Regex::Star(_) => 2,
        _ => 3,
    }
}

fn write_regex(
    f: &mut fmt::Formatter<'_>,
    regex: &Regex,
    alphabet: &Alphabet,
    parent_precedence: u8,
) -> fmt::Result {
    let own = precedence(regex);
    let parens = own < parent_precedence;
    if parens {
        write!(f, "(")?;
    }
    match regex {
        Regex::Empty => write!(f, "∅")?,
        Regex::Epsilon => write!(f, "ε")?,
        Regex::Symbol(sym) => write!(f, "{}", alphabet.name(*sym))?,
        Regex::Concat(parts) => {
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, "·")?;
                }
                write_regex(f, part, alphabet, 2)?;
            }
        }
        Regex::Alt(parts) => {
            for (i, part) in parts.iter().enumerate() {
                if i > 0 {
                    write!(f, " + ")?;
                }
                write_regex(f, part, alphabet, 1)?;
            }
        }
        Regex::Star(inner) => {
            write_regex(f, inner, alphabet, 3)?;
            write!(f, "*")?;
        }
    }
    if parens {
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for RegexDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_regex(f, self.regex, self.alphabet, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::enumerate_words;

    fn alphabet() -> Alphabet {
        Alphabet::from_labels(["a", "b", "c"])
    }

    fn parse(s: &str) -> (Regex, Alphabet) {
        let alphabet = alphabet();
        let regex = Regex::parse(s, &alphabet).unwrap();
        (regex, alphabet)
    }

    #[test]
    fn parse_paper_query() {
        let (regex, alphabet) = parse("(a·b)*·c");
        assert_eq!(regex.display(&alphabet).to_string(), "(a·b)*·c");
        let dfa = regex.to_dfa(alphabet.len());
        assert_eq!(dfa.num_states(), 3); // Figure 4: canonical size 3
        let a = alphabet.symbol("a").unwrap();
        let b = alphabet.symbol("b").unwrap();
        let c = alphabet.symbol("c").unwrap();
        assert!(dfa.accepts(&[c]));
        assert!(dfa.accepts(&[a, b, c]));
        assert!(!dfa.accepts(&[a, c]));
    }

    #[test]
    fn parse_variants_agree() {
        let (r1, alpha) = parse("(a·b)*·c");
        let r2 = Regex::parse("(a b)* c", &alpha).unwrap();
        let r3 = Regex::parse("(a.b)*.c", &alpha).unwrap();
        assert!(r1.to_dfa(3).equivalent(&r2.to_dfa(3)));
        assert!(r1.to_dfa(3).equivalent(&r3.to_dfa(3)));
    }

    #[test]
    fn parse_alt_and_pipe() {
        let (r1, alpha) = parse("a + b");
        let r2 = Regex::parse("a | b", &alpha).unwrap();
        assert_eq!(r1, r2);
        let dfa = r1.to_dfa(3);
        assert!(dfa.accepts(&[alpha.symbol("a").unwrap()]));
        assert!(dfa.accepts(&[alpha.symbol("b").unwrap()]));
        assert!(!dfa.accepts(&[alpha.symbol("c").unwrap()]));
    }

    #[test]
    fn parse_epsilon_and_multichar_labels() {
        let alphabet = Alphabet::from_labels(["tram", "bus", "cinema"]);
        let regex = Regex::parse("tram (bus + eps) cinema*", &alphabet).unwrap();
        assert!(!regex.nullable());
        assert_eq!(alphabet.len(), 3);
        let dfa = regex.to_dfa(alphabet.len());
        let tram = alphabet.symbol("tram").unwrap();
        let bus = alphabet.symbol("bus").unwrap();
        let cinema = alphabet.symbol("cinema").unwrap();
        assert!(dfa.accepts(&[tram]));
        assert!(dfa.accepts(&[tram, bus]));
        assert!(dfa.accepts(&[tram, cinema, cinema]));
        assert!(!dfa.accepts(&[bus]));
    }

    #[test]
    fn parse_errors() {
        let alphabet = alphabet();
        assert!(Regex::parse("a + ", &alphabet).is_err());
        assert!(Regex::parse("(a", &alphabet).is_err());
        assert!(Regex::parse("a )", &alphabet).is_err());
        assert!(Regex::parse("unknown", &alphabet).is_err());
        assert!(Regex::parse("", &alphabet).is_err());
        assert!(Regex::parse("*a", &alphabet).is_err());
    }

    #[test]
    fn thompson_matches_direct_semantics() {
        // Check L((a+b)*·c·(a+ε)) by brute force against a hand model.
        let (regex, alphabet) = parse("(a+b)* c (a + eps)");
        let nfa = regex.to_nfa(alphabet.len());
        let a = alphabet.symbol("a").unwrap();
        let b = alphabet.symbol("b").unwrap();
        let c = alphabet.symbol("c").unwrap();
        let model = |w: &[Symbol]| -> bool {
            // prefix of a/b, then c, optional trailing a.
            let mut rest = w;
            if rest.last() == Some(&a) && rest.len() >= 2 && rest[rest.len() - 2] == c {
                rest = &rest[..rest.len() - 1];
            }
            if rest.last() != Some(&c) {
                return false;
            }
            rest[..rest.len() - 1].iter().all(|&s| s == a || s == b)
        };
        for word in enumerate_words(alphabet.len(), 5) {
            assert_eq!(nfa.accepts(&word), model(&word), "{word:?}");
        }
    }

    #[test]
    fn smart_constructors_normalize() {
        let a = Regex::Symbol(Symbol::from_index(0));
        assert_eq!(Regex::concat(vec![Regex::Epsilon, a.clone()]), a);
        assert_eq!(Regex::concat(vec![]), Regex::Epsilon);
        assert_eq!(Regex::concat(vec![Regex::Empty, a.clone()]), Regex::Empty);
        assert_eq!(Regex::alt(vec![a.clone(), a.clone()]), a);
        assert_eq!(Regex::alt(vec![]), Regex::Empty);
        assert_eq!(Regex::star(Regex::Empty), Regex::Epsilon);
        assert_eq!(Regex::star(Regex::star(a.clone())), Regex::star(a.clone()));
    }

    #[test]
    fn nullable_cases() {
        let (r, _) = parse("(a·b)*·c");
        assert!(!r.nullable());
        let (r2, _) = parse("(a·b)*");
        assert!(r2.nullable());
        let (r3, _) = parse("a* + b");
        assert!(r3.nullable());
    }

    #[test]
    fn display_round_trips_through_parser() {
        let alphabet = alphabet();
        for text in ["(a·b)*·c", "a + b·c", "a·(b + c)*·a", "eps + a"] {
            let regex = Regex::parse(text, &alphabet).unwrap();
            let printed = regex.display(&alphabet).to_string();
            // `ε` prints but does not lex; replace for re-parsing.
            let reparsed = Regex::parse(&printed.replace('ε', "eps"), &alphabet).unwrap();
            assert!(
                regex.to_dfa(3).equivalent(&reparsed.to_dfa(3)),
                "{text} -> {printed}"
            );
        }
    }
}

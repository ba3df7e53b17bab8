//! Learning algorithms for path queries on graph databases.
//!
//! The primary contribution of the EDBT 2015 paper: Algorithm 1 for
//! monadic queries and the theory around it. Appendix B's Algorithms 2–3
//! (learning binary and n-ary queries) are not implemented; binary
//! *evaluation* lives in `pathlearn_graph::eval`.
//!
//! * [`sample`] — positive/negative node examples (monadic semantics);
//! * [`query`] — the [`query::PathQuery`] type: a path query represented
//!   by its canonical DFA (paper §2), displayable as a regular expression;
//! * [`learner`] — **Algorithm 1** (`learner`): SCP selection bounded by
//!   `k`, PTA construction, RPNI-style generalization against
//!   `paths_G(S⁻)`, and the final positive-coverage check; with the
//!   dynamic-`k` escalation the paper uses in its experiments (§5.1);
//! * [`consistency`] — exact consistency checking via Lemma 3.1
//!   (PSPACE-hard in general — Lemma 3.2 — so exposed for small inputs
//!   and validation, not used on the hot path);
//! * [`theory`] — the Theorem 3.5 construction: for any target query, a
//!   **characteristic graph and sample** on which `learner` (with
//!   `k = 2n+1`) provably identifies the target.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod consistency;
pub mod learner;
pub mod query;
pub mod sample;
pub mod theory;

pub use learner::{KPolicy, LearnOutcome, LearnState, LearnStats, Learner, LearnerConfig};
pub use pathlearn_graph::EvalPool;
pub use query::PathQuery;
pub use sample::Sample;

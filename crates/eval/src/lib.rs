//! Experiment runners, metrics and report formatting (paper §5).
//!
//! * [`metrics`] — confusion matrices and the F1 score the paper uses to
//!   compare a learned query against the goal query;
//! * [`static_exp`] — the static setting (§5.2 / Figures 11–12): random
//!   samples of growing size, measuring F1 and learning time, plus the
//!   "labels needed for F1 = 1 without interactions" sweep of Table 2;
//! * [`interactive_exp`] — the interactive setting (§5.3 / Table 2):
//!   run sessions under the `kR`/`kS` strategies until the learned query
//!   is indistinguishable from the goal, recording label counts and time
//!   between interactions;
//! * [`report`] — plain-text/markdown/CSV rendering shared by the
//!   paper-artifact binaries;
//! * [`datasets`] — the simulated-AliBaba and synthetic datasets those
//!   binaries run on, and their shared `--seed` / `--full` options.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod datasets;
pub mod interactive_exp;
pub mod metrics;
pub mod report;
pub mod static_exp;

pub use metrics::Confusion;
pub use static_exp::{run_static, StaticConfig, StaticPoint};

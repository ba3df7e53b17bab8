//! Dataset generators and query workloads for the EDBT 2015 evaluation.
//!
//! The paper evaluates on (§5.1):
//!
//! * **AliBaba** \[36\] — a real protein–protein interaction graph
//!   (≈3k nodes / ≈8k edges) whose semantic part was obtained privately
//!   from the authors of \[27\]. The dataset is not redistributable, so
//!   [`alibaba`] generates a **simulated stand-in** with the same
//!   published statistics (scale, hub-dominated degree distribution, an
//!   alphabet rich enough for the Table 1 disjunction classes). Why the
//!   substitution preserves what the experiments measure is stated in
//!   [`alibaba`]'s module documentation;
//! * **synthetic scale-free graphs** with a Zipfian edge-label
//!   distribution \[27\] of 10k/20k/30k nodes and 3× edges — [`scale_free`]
//!   with [`zipf`];
//! * **workloads**: the six biological queries of Table 1 (structures
//!   `b·A·A*`, `C·C*·a·A·A*`, `C·E`, `I·I·I*`, `A·A·A*·I·I·I*`, `A·A·A*`)
//!   and the synthetic queries `syn1..syn3` (`A·B*·C` at 1% / 15% / 40%
//!   selectivity) — [`workloads`] calibrates the disjunction classes
//!   against the paper's selectivity targets;
//! * **random example sampling** for the static experiments (§5.2) —
//!   [`sampling`].
//!
//! Everything is seeded and deterministic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod alibaba;
pub mod sampling;
pub mod scale_free;
pub mod workloads;
pub mod zipf;

pub use alibaba::alibaba_like;
pub use scale_free::{scale_free_graph, ScaleFreeConfig};
pub use workloads::{bio_workload, syn_workload, BioWorkload, SynWorkload};

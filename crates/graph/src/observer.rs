//! Per-BFS-level evaluation sampling — the `EvalObserver` hook behind
//! the serving layer's query traces.
//!
//! The engine in [`crate::eval`] advances every product BFS one *level*
//! at a time through one level kernel. This module lets a caller
//! observe those levels without changing any signature:
//! [`collect_levels`] installs a thread-local sample sink around a
//! closure, and the level kernel records one [`LevelSample`] per level
//! **only while a sink is installed**. With no sink the hook is a single
//! thread-local `Option` check per level — measured noise next to the
//! kernel work a level does — so evaluation stays zero-cost for library
//! users who never ask for samples.
//!
//! The sink is thread-local on purpose: an evaluation runs entirely on
//! its calling thread, so samples land exactly with the query that
//! produced them even when many queries evaluate concurrently.

use std::cell::RefCell;
use std::time::Instant;

/// Hard cap on samples per collection: a pathological query cannot make
/// a trace unbounded (levels beyond the cap still run, unsampled).
pub const MAX_LEVEL_SAMPLES: usize = 256;

/// One observed BFS level: what the level saw going in and what it cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelSample {
    /// Level index within the collection (0-based, in execution order).
    pub level: u32,
    /// Total frontier popcount across active automaton states at the
    /// start of the level — the size feeding the step-cost model.
    pub frontier: u64,
    /// `(state, symbol)` step tasks the level executed (skipped steps —
    /// [`crate::graph::StepPlan::Skip`] — are not counted).
    pub tasks: u32,
    /// How many of those tasks copied a covered step's answer instead of
    /// walking edges ([`crate::graph::StepPlan::Covered`]).
    pub covered_tasks: u32,
    /// How many of those tasks walked a frontier of a few nodes edge by
    /// edge, merging as they went ([`crate::graph::StepPlan::Sparse`]).
    pub sparse_tasks: u32,
    /// Wall-clock nanoseconds the level spent stepping and merging.
    pub nanos: u64,
}

thread_local! {
    static SINK: RefCell<Option<Vec<LevelSample>>> = const { RefCell::new(None) };
}

/// Runs `f` with level sampling enabled on this thread and returns its
/// result together with the samples the evaluators recorded.
///
/// Nests safely: an outer collection is saved and restored (even on
/// unwind), so a query evaluated inside another observed query records
/// into the inner collection only.
pub fn collect_levels<R>(f: impl FnOnce() -> R) -> (R, Vec<LevelSample>) {
    struct Restore(Option<Vec<LevelSample>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            SINK.with(|sink| *sink.borrow_mut() = self.0.take());
        }
    }
    let outer = Restore(SINK.with(|sink| sink.borrow_mut().replace(Vec::new())));
    let result = f();
    let samples = SINK
        .with(|sink| sink.borrow_mut().take())
        .unwrap_or_default();
    drop(outer);
    (result, samples)
}

/// Marks the start of a level: `Some(now)` when a sink is installed on
/// this thread, `None` otherwise. The disabled path is one thread-local
/// read.
pub(crate) fn level_begin() -> Option<Instant> {
    SINK.with(|sink| sink.borrow().is_some()).then(Instant::now)
}

/// Records one finished level into the installed sink (no-op without
/// one; silently stops at [`MAX_LEVEL_SAMPLES`]).
pub(crate) fn level_record(
    started: Instant,
    frontier: u64,
    tasks: u32,
    covered_tasks: u32,
    sparse_tasks: u32,
) {
    let nanos = started.elapsed().as_nanos() as u64;
    SINK.with(|sink| {
        if let Some(samples) = sink.borrow_mut().as_mut() {
            if samples.len() < MAX_LEVEL_SAMPLES {
                samples.push(LevelSample {
                    level: samples.len() as u32,
                    frontier,
                    tasks,
                    covered_tasks,
                    sparse_tasks,
                    nanos,
                });
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_and_scoped_to_the_closure() {
        assert!(level_begin().is_none());
        let ((), samples) = collect_levels(|| {
            let started = level_begin().expect("sink installed");
            level_record(started, 7, 4, 1, 1);
        });
        assert_eq!(samples.len(), 1);
        assert_eq!(
            (
                samples[0].frontier,
                samples[0].tasks,
                samples[0].covered_tasks,
                samples[0].sparse_tasks
            ),
            (7, 4, 1, 1)
        );
        assert_eq!(samples[0].level, 0);
        assert!(
            level_begin().is_none(),
            "sink uninstalled after the closure"
        );
    }

    #[test]
    fn nested_collections_restore_the_outer_sink() {
        let ((), outer) = collect_levels(|| {
            let started = level_begin().unwrap();
            level_record(started, 1, 1, 0, 0);
            let ((), inner) = collect_levels(|| {
                let started = level_begin().unwrap();
                level_record(started, 2, 2, 0, 0);
            });
            assert_eq!(inner.len(), 1);
            assert_eq!(inner[0].frontier, 2);
            let started = level_begin().unwrap();
            level_record(started, 3, 3, 0, 0);
        });
        assert_eq!(outer.len(), 2);
        assert_eq!((outer[0].frontier, outer[1].frontier), (1, 3));
        assert_eq!((outer[0].level, outer[1].level), (0, 1));
    }

    #[test]
    fn a_real_evaluation_is_sampled_and_unchanged() {
        use pathlearn_automata::Regex;
        let graph = crate::graph::figure3_g0();
        let query = Regex::parse("(a·b)*·c", graph.alphabet())
            .unwrap()
            .to_dfa(3);
        let plain = crate::eval::eval_monadic(&query, &graph);
        let (observed, samples) = collect_levels(|| crate::eval::eval_monadic(&query, &graph));
        assert_eq!(observed, plain, "sampling must not change the answer");
        assert!(!samples.is_empty(), "a multi-level BFS records samples");
        for (i, sample) in samples.iter().enumerate() {
            assert_eq!(sample.level as usize, i);
            assert!(sample.frontier > 0, "active levels have frontier nodes");
            assert!(sample.covered_tasks + sample.sparse_tasks <= sample.tasks);
        }
        // Level 0 starts from all of V at the final state: the c-step
        // over in-edges is covered.
        assert_eq!(samples[0].covered_tasks, 1);
    }

    #[test]
    fn sample_count_is_capped() {
        let ((), samples) = collect_levels(|| {
            for _ in 0..MAX_LEVEL_SAMPLES + 10 {
                let started = level_begin().unwrap();
                level_record(started, 1, 1, 0, 0);
            }
        });
        assert_eq!(samples.len(), MAX_LEVEL_SAMPLES);
    }
}

//! `learn_session`: in-process library calls, the paper's §4 loop.
//!
//! `core::learner`, `graph::scp`, `interactive::strategy` and
//! `automata::rpni`/`inclusion` do all the work on cache-resident graphs
//! and the whole serving stack is idle — the control workload for every
//! serving optimisation and the only one a learner optimisation should
//! move. One op is one interaction; its latency is the program's own
//! `InteractionRecord::duration` (the paper's "time between
//! interactions").

use super::{fold, Epoch, Workload};
use crate::gen::{LearnInputs, Scale, SessionSpec};
use crate::sut::{self, HaltReason, Proposal, Sample, SessionResult};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

pub struct LearnSession {
    inputs: LearnInputs,
    /// The first epoch's results, for the untimed checks.
    first: Vec<SessionResult>,
}

impl LearnSession {
    pub fn set_up(seed: u64, scale: &Scale, rec: &mut Recorder) -> LearnSession {
        // No file or socket IO: generation and calibration only.
        LearnSession {
            inputs: LearnInputs::generate(scale, seed, rec),
            first: Vec::new(),
        }
    }

    fn run(&self, spec: &SessionSpec) -> SessionResult {
        sut::run_session(
            self.inputs.graph(spec),
            &spec.goal,
            spec.strategy,
            spec.cap,
            spec.seed,
        )
    }
}

impl Workload for LearnSession {
    fn run_epoch(&mut self, latencies_ns: &mut Vec<u64>) -> Epoch {
        let mut epoch = Epoch::default();
        let (mut labels_to_goal, mut at_goal) = (0u64, 0u64);
        let mut results = Vec::with_capacity(self.inputs.sessions.len());
        let started = Instant::now();
        for spec in &self.inputs.sessions {
            let result = self.run(spec);
            for interaction in &result.interactions {
                latencies_ns.push(interaction.duration.as_nanos() as u64);
                epoch.digest = fold(
                    epoch.digest,
                    u64::from(interaction.node) << 1 | u64::from(interaction.label),
                );
            }
            if result.halt == HaltReason::ConditionMet {
                labels_to_goal += result.labels_used() as u64;
                at_goal += 1;
            }
            results.push(result);
        }
        epoch.wall_ns = started.elapsed().as_nanos() as u64;
        epoch.counters = vec![
            ("interactive.labels_to_goal", labels_to_goal),
            ("interactive.sessions_at_goal", at_goal),
        ];
        if self.first.is_empty() {
            self.first = results;
        }
        epoch
    }

    fn check_epoch(&self, _epoch: &Epoch) -> Result<(), String> {
        Ok(())
    }

    fn notes(&self) -> Vec<String> {
        self.inputs
            .sessions
            .iter()
            .zip(&self.first)
            .map(|(spec, result)| {
                format!(
                    "learn_session/session {} {}: {} interactions, {:?}, {:.0} ms",
                    spec.goal_name,
                    spec.strategy,
                    result.labels_used(),
                    result.halt,
                    result
                        .interactions
                        .iter()
                        .map(|i| i.duration.as_secs_f64() * 1e3)
                        .sum::<f64>()
                )
            })
            .collect()
    }

    fn verify(&mut self) -> Result<(), String> {
        for (spec, result) in self.inputs.sessions.iter().zip(&self.first) {
            let graph = self.inputs.graph(spec);
            let label = format!("{} under {}", spec.goal_name, spec.strategy);
            if let Some(query) = &result.query {
                if !sut::consistent(query, graph, &result.sample) {
                    return Err(format!(
                        "learn_session: {label}: learned query is inconsistent"
                    ));
                }
            }
            if result.halt == HaltReason::ConditionMet {
                let learned = result
                    .query
                    .as_ref()
                    .ok_or("goal reached without a query")?;
                if learned.eval(graph) != spec.goal.eval(graph) {
                    return Err(format!(
                        "learn_session: {label}: goal-reaching session selects another node set"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Re-runs the session loop from its public parts — `propose`,
    /// `learn`, the halt check's evaluation — a span around each, and
    /// asserts it walks the same interactions as the real session.
    fn trace(&mut self, rec: &mut Recorder, ops: usize) -> &'static str {
        let mut op_id = 0i64;
        for spec in &self.inputs.sessions {
            if op_id as usize >= ops {
                break;
            }
            let real = self.run(spec);
            let graph = self.inputs.graph(spec);
            let goal_selection = spec.goal.eval(graph);
            let learner = sut::session_learner();
            let mut rng = StdRng::seed_from_u64(spec.seed);
            let mut sample = Sample::new();
            let mut query = None;
            for interaction in &real.interactions {
                rec.set_op(op_id);
                op_id += 1;
                rec.push_measured("op", interaction.duration.as_nanos() as u64);
                let layers = rec.begin("layers");
                let candidates: Vec<sut::NodeId> =
                    graph.nodes().filter(|&n| !sample.is_labeled(n)).collect();
                let proposal = rec.time("strategy.propose", || {
                    sut::propose(spec.strategy, graph, &sample, &candidates, &mut rng)
                });
                let Proposal::Node { node, .. } = proposal else {
                    panic!("replayed session ran out of informative nodes early");
                };
                let label = goal_selection.contains(node as usize);
                assert_eq!(
                    (node, label),
                    (interaction.node, interaction.label),
                    "replayed session diverged from the real one"
                );
                sample.add(node, label);
                if let Some(learned) =
                    rec.time("learner.learn", || sut::learn(&learner, graph, &sample))
                {
                    query = Some(learned);
                }
                rec.time("eval", || {
                    query
                        .as_ref()
                        .is_some_and(|q| q.eval(graph) == goal_selection)
                });
                rec.end(layers);
            }
        }
        "session.overhead"
    }
}

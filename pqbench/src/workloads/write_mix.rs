//! `write_mix`: real TCP against a durable service, 80 % reads / 20 %
//! single-edge writes fsynced to the WAL.
//!
//! The same `cache` and `graph::eval` layers as the other two serving
//! workloads used differently — invalidation, subsumption reuse,
//! overlay-merged kernels — beside `wal` append+fsync, checkpoint and
//! `snapshot` save. A read-path gain bought at the writes' expense shows
//! here.

use super::{
    counter_deltas, digest, distinct_key_ops, fold, oracle_answer, scratch_dir, trace_write_layers,
    Epoch, Front, Workload,
};
use crate::gen::{sub_seed, Dataset, MixInputs, MixOp, Scale, DATASET_SEED};
use crate::stats::percentile_sorted;
use crate::sut::{self, BitSet, GraphDb, Response, WireEdge};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::path::PathBuf;
use std::time::Instant;

const COUNTERS: [&str; 10] = [
    "serve.eval_ns_total",
    "serve.hits",
    "serve.misses",
    "serve.subsumption_reuses",
    "serve.deltas_applied",
    "cache.invalidated",
    "cache.evictions",
    "wal.records_logged",
    "wal.checkpoints",
    "net.shed",
];

/// Reads whose mid-epoch answers are checked against a graph rebuilt
/// from the harness's own edge list as it stood at that op.
const MID_EPOCH_CHECKS: usize = 4;

pub struct WriteMix {
    syn_nodes: usize,
    mix: MixInputs,
    front: Front,
    data_dir: PathBuf,
    /// `(op index, answer)` of the mid-epoch checks, from the first epoch.
    mid_epoch: Vec<(usize, Option<BitSet>)>,
    /// Latencies of the last epoch, split by op type.
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
    /// Trace-only: a side WAL the decomposition appends to.
    side_wal: Option<sut::Wal>,
}

impl WriteMix {
    pub fn set_up(seed: u64, scale: &Scale, rec: &mut Recorder) -> WriteMix {
        let dataset = Dataset::generate(scale.syn_nodes, rec);
        let mix = MixInputs::generate(&dataset, scale, seed);
        let text = dataset.graph_text(rec);
        drop(dataset);
        // First run of `serve --data-dir`: parse the text, seed the
        // snapshot. Then the restart every later start takes: snapshot
        // load + WAL replay.
        let data_dir = scratch_dir("write-mix-data");
        drop(rec.time("wal.seed_dir", || sut::recover(&data_dir, Some(&text))));
        drop(text);
        let (graph, persistence) = rec.time("wal.recover", || sut::recover(&data_dir, None));
        let service = rec.time("service.new", || {
            let service = sut::new_service(graph);
            service.attach_persistence(persistence);
            service
        });
        let front = Front::bring_up(service, &mix.hot, rec);
        let mut reads: Vec<usize> = (0..mix.ops.len())
            .filter(|&i| matches!(mix.ops[i], MixOp::Read(_)))
            .collect();
        reads.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, "mid-epoch")));
        reads.truncate(MID_EPOCH_CHECKS);
        WriteMix {
            syn_nodes: scale.syn_nodes,
            mid_epoch: reads.into_iter().map(|i| (i, None)).collect(),
            read_ns: Vec::with_capacity(mix.ops.len()),
            write_ns: Vec::with_capacity(mix.ops.len()),
            mix,
            front,
            data_dir,
            side_wal: None,
        }
    }

    /// A graph with the served graph's node ids and alphabet, built from
    /// the regenerated base edges plus `extra` — independent of the
    /// parser, the snapshot and the delta overlay.
    fn oracle_graph(&self, extra: &[&WireEdge]) -> GraphDb {
        let served = self.front.graph();
        let base = sut::scale_free(self.syn_nodes, DATASET_SEED);
        let mut builder = sut::GraphBuilder::with_alphabet(served.alphabet().clone());
        for node in served.nodes() {
            builder.add_node(served.node_name(node));
        }
        for (src, sym, dst) in base.edges() {
            builder.add_edge(
                base.node_name(src),
                base.alphabet().name(sym),
                base.node_name(dst),
            );
        }
        for (src, label, dst) in extra {
            builder.add_edge(src, label, dst);
        }
        builder.build()
    }

    /// The extra edges present just before op `index` of an epoch.
    fn overlay_before(&self, index: usize) -> Vec<&WireEdge> {
        let mut present = vec![false; self.mix.edges.len()];
        for op in &self.mix.ops[..index] {
            if let MixOp::Write { index } = *op {
                let (slot, add) = self.mix.write(index);
                present[slot] = add;
            }
        }
        (0..present.len())
            .filter(|&slot| present[slot])
            .map(|slot| &self.mix.edges[slot])
            .collect()
    }
}

impl Workload for WriteMix {
    fn run_epoch(&mut self, latencies_ns: &mut Vec<u64>) -> Epoch {
        let before = sut::counters(self.front.server.service());
        let mut epoch = Epoch::default();
        self.read_ns.clear();
        self.write_ns.clear();
        let mut overlay_edges = u32::MAX;
        let started = Instant::now();
        for (index, &op) in self.mix.ops.iter().enumerate() {
            match op {
                MixOp::Read(read) => {
                    let sent = Instant::now();
                    let reply = self.front.read(&self.mix.hot, read);
                    let ns = sent.elapsed().as_nanos() as u64;
                    latencies_ns.push(ns);
                    self.read_ns.push(ns);
                    let Some(reply) = reply else {
                        epoch.failed += 1;
                        continue;
                    };
                    epoch.digest = fold(epoch.digest, digest(&reply.bits));
                    if let Some(slot) = self.mid_epoch.iter_mut().find(|(i, _)| *i == index) {
                        slot.1.get_or_insert(reply.bits);
                    }
                }
                MixOp::Write { index } => {
                    let (slot, add) = self.mix.write(index);
                    let edge = &self.mix.edges[slot];
                    let sent = Instant::now();
                    let reply = sut::tcp_delta(&mut self.front.client, edge, add);
                    let ns = sent.elapsed().as_nanos() as u64;
                    latencies_ns.push(ns);
                    self.write_ns.push(ns);
                    match reply {
                        Ok(Response::DeltaApplied { delta_edges, .. }) => {
                            overlay_edges = delta_edges;
                            epoch.digest = fold(epoch.digest, u64::from(delta_edges));
                        }
                        _ => epoch.failed += 1,
                    }
                }
            }
        }
        epoch.wall_ns = started.elapsed().as_nanos() as u64;
        // The second half removed what the first half added.
        epoch.failed += u64::from(overlay_edges != 0);
        let after = sut::counters(self.front.server.service());
        epoch.counters = counter_deltas(&COUNTERS, &before, &after);
        epoch
    }

    /// Re-reads every distinct key, so each epoch starts with the same
    /// resident set as the first (an epoch's last writes leave some keys
    /// invalidated).
    fn reset(&mut self) {
        for op in distinct_key_ops(&self.mix.hot) {
            self.front.read(&self.mix.hot, op).expect("re-warm reply");
        }
    }

    fn check_epoch(&self, epoch: &Epoch) -> Result<(), String> {
        let writes = self.mix.ops.len() as u64 / 5;
        if epoch.counter("wal.records_logged") != writes {
            return Err(format!(
                "write_mix: {} of {writes} writes reached the WAL",
                epoch.counter("wal.records_logged")
            ));
        }
        let expected_checkpoints = writes / (sut::CHECKPOINT_EVERY as u64 + 1);
        if epoch.counter("wal.checkpoints") != expected_checkpoints {
            return Err(format!(
                "write_mix: {} checkpoint(s) in the epoch, expected {expected_checkpoints}",
                epoch.counter("wal.checkpoints")
            ));
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        // Final state: every write was undone, so the served graph must
        // answer like the base graph.
        let oracle = self.oracle_graph(&[]);
        for key_op in distinct_key_ops(&self.mix.hot) {
            let served = self
                .front
                .read(&self.mix.hot, key_op)
                .ok_or("write_mix: final read got no RESULT")?;
            if served.bits != oracle_answer(&self.mix.hot, &self.front.source_ids, key_op, &oracle)
            {
                return Err(format!(
                    "write_mix: final answer of key {} differs from the oracle",
                    self.mix.hot.key(key_op)
                ));
            }
        }
        drop(oracle);
        // Mid-epoch states: a few answers against the edge list as it
        // stood when they were served.
        for (index, answer) in &self.mid_epoch {
            let answer = answer
                .as_ref()
                .ok_or_else(|| format!("write_mix: op {index} kept no answer"))?;
            let MixOp::Read(read) = self.mix.ops[*index] else {
                unreachable!("mid-epoch checks are reads")
            };
            let oracle = self.oracle_graph(&self.overlay_before(*index));
            if *answer != oracle_answer(&self.mix.hot, &self.front.source_ids, read, &oracle) {
                return Err(format!(
                    "write_mix: mid-epoch answer of op {index} differs from the oracle"
                ));
            }
        }
        Ok(())
    }

    fn trace(&mut self, rec: &mut Recorder, ops: usize) -> &'static str {
        let side_wal = self
            .side_wal
            .get_or_insert_with(|| sut::open_wal(&self.data_dir.join("trace-side.wal")));
        let mut applied = Vec::new();
        for (id, &op) in self.mix.ops.iter().take(ops).enumerate() {
            rec.set_op(id as i64);
            match op {
                MixOp::Read(read) => {
                    let real = rec.begin("op");
                    let reply = self.front.read(&self.mix.hot, read);
                    rec.end(real);
                    let reply = reply.expect("traced read got no RESULT");
                    let layers = rec.begin("layers");
                    self.front
                        .trace_read_layers(&self.mix.hot, read, reply.hit, rec);
                    rec.end(layers);
                }
                MixOp::Write { index } => {
                    let (slot, add) = self.mix.write(index);
                    let edge = &self.mix.edges[slot];
                    let real = rec.begin("op");
                    let reply = sut::tcp_delta(&mut self.front.client, edge, add);
                    rec.end(real);
                    assert!(
                        matches!(reply, Ok(Response::DeltaApplied { .. })),
                        "traced write got no DELTA_APPLIED"
                    );
                    applied.push((edge, add));
                    let graph = self.front.graph();
                    let layers = rec.begin("layers");
                    drop(trace_write_layers(edge, add, &graph, side_wal, rec));
                    rec.end(layers);
                }
            }
        }
        // Undo what the slice left applied, so the served graph is the
        // base graph again.
        rec.set_op(crate::trace::NO_OP);
        for (edge, add) in applied.into_iter().rev() {
            sut::tcp_delta(&mut self.front.client, edge, !add).expect("undo traced write");
        }
        "net.overhead"
    }

    fn notes(&self) -> Vec<String> {
        let mut notes = Vec::new();
        for (name, samples) in [("read", &self.read_ns), ("write", &self.write_ns)] {
            if samples.is_empty() {
                continue;
            }
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            notes.push(format!(
                "write_mix/{name}.p50_us {:.1} us  {name}.p99_us {:.1} us  ({} ops, last epoch)",
                percentile_sorted(&sorted, 50.0) as f64 / 1e3,
                percentile_sorted(&sorted, 99.0) as f64 / 1e3,
                sorted.len()
            ));
        }
        notes
    }
}

impl Drop for WriteMix {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.data_dir);
    }
}

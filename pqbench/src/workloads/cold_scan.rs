//! `cold_scan`: in-process `QueryService`, every op a miss.
//!
//! `graph::plan` + the `graph::eval` kernels + cache insert/evict +
//! subsumption probing dominate; the working set is larger than both
//! the result cache and the CPU cache, and `net`/`proto` are bypassed —
//! a wire optimisation predicts no change here, a kernel optimisation
//! predicts no change on `hot_replay`.

use super::{counter_deltas, dfa_of, digest, fold, trace_miss_layers, Epoch, Workload};
use crate::gen::{sub_seed, ColdInputs, ColdOp, Dataset, Scale};
use crate::sut::{self, BitSet, Dfa, NodeId, QueryService};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

const COUNTERS: [&str; 7] = [
    "serve.eval_ns_total",
    "serve.hits",
    "serve.misses",
    "serve.subsumption_reuses",
    "cache.insertions",
    "cache.evictions",
    "wal.records_logged",
];

pub struct ColdScan {
    cold: ColdInputs,
    service: QueryService,
    /// Canonical DFA per family member, over the served alphabet.
    dfas: Vec<Dfa>,
    source_ids: Vec<NodeId>,
    /// Ops (by index) whose answers are kept and checked against the
    /// oracle; every answer is covered by the cross-epoch digest.
    checked: Vec<usize>,
    kept: Vec<Option<Arc<BitSet>>>,
}

impl ColdScan {
    pub fn set_up(seed: u64, scale: &Scale, rec: &mut Recorder) -> ColdScan {
        let dataset = Dataset::generate(scale.syn_nodes, rec);
        let cold = rec.time("datagen.family", || {
            ColdInputs::generate(&dataset, scale.cold_ops, seed)
        });
        let text = dataset.graph_text(rec);
        drop(dataset);
        let graph = rec.time("graph.parse_text", || sut::parse_graph_text(&text));
        drop(text);
        let dfas: Vec<Dfa> = cold.family.iter().map(|t| dfa_of(t, &graph)).collect();
        let fingerprints: HashSet<u64> = dfas
            .iter()
            .map(|dfa| sut::canonical_of(dfa).fingerprint())
            .collect();
        assert_eq!(
            fingerprints.len(),
            dfas.len(),
            "family members must have distinct fingerprints"
        );
        let source_ids = cold
            .sources
            .iter()
            .map(|name| graph.node_id(name).expect("cold source is a served node"))
            .collect();
        let service = rec.time("service.new", || sut::new_service(graph));
        let mut checked: Vec<usize> = (0..cold.ops.len()).collect();
        checked.shuffle(&mut StdRng::seed_from_u64(sub_seed(seed, "cold-checked")));
        checked.truncate(scale.cold_checked);
        let mut scan = ColdScan {
            kept: vec![None; cold.ops.len()],
            cold,
            service,
            dfas,
            source_ids,
            checked,
        };
        // Warm code and allocator on a slice of the list (every key is
        // distinct, so touching them all would be a whole epoch), then
        // drop what it cached.
        let warm = rec.begin("warmup");
        for index in 0..scan.cold.ops.len() / 16 {
            scan.submit(index);
        }
        scan.reset();
        rec.end(warm);
        scan
    }

    fn submit(&self, index: usize) -> sut::QueryResponse {
        match self.cold.ops[index] {
            ColdOp::Monadic { family } => sut::query_monadic(&self.service, &self.dfas[family]),
            ColdOp::Binary { family, source } => {
                sut::query_binary_from(&self.service, &self.dfas[family], self.source_ids[source])
            }
        }
    }
}

impl Workload for ColdScan {
    fn run_epoch(&mut self, latencies_ns: &mut Vec<u64>) -> Epoch {
        let before = sut::counters(&self.service);
        let mut epoch = Epoch::default();
        let mut keep = vec![false; self.cold.ops.len()];
        for &index in &self.checked {
            keep[index] = self.kept[index].is_none();
        }
        let started = Instant::now();
        for (index, &keep) in keep.iter().enumerate() {
            let sent = Instant::now();
            let response = self.submit(index);
            latencies_ns.push(sent.elapsed().as_nanos() as u64);
            epoch.digest = fold(epoch.digest, digest(&response.result));
            if keep {
                self.kept[index] = Some(response.result);
            }
        }
        epoch.wall_ns = started.elapsed().as_nanos() as u64;
        let after = sut::counters(&self.service);
        epoch.counters = counter_deltas(&COUNTERS, &before, &after);
        epoch
    }

    /// Every epoch starts cold: same graph, empty cache.
    fn reset(&mut self) {
        let graph = (*self.service.graph()).clone();
        self.service.rebuild_graph(graph);
    }

    fn check_epoch(&self, epoch: &Epoch) -> Result<(), String> {
        if epoch.counter("serve.hits") != 0 {
            return Err(format!(
                "cold_scan: {} op(s) hit the cache",
                epoch.counter("serve.hits")
            ));
        }
        let inserted_bytes = self.cold.ops.len() * self.service.graph().result_bytes();
        if inserted_bytes > sut::cache_budget_bytes() && epoch.counter("cache.evictions") == 0 {
            return Err("cold_scan: the epoch overflowed the cache budget without evicting".into());
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let graph = self.service.graph();
        for &index in &self.checked {
            let served = self.kept[index]
                .as_ref()
                .ok_or_else(|| format!("cold_scan: op {index} kept no answer"))?;
            let expected = match self.cold.ops[index] {
                ColdOp::Monadic { family } => sut::eval_monadic_oracle(&self.dfas[family], &graph),
                ColdOp::Binary { family, source } => {
                    sut::eval_binary_from(&self.dfas[family], &graph, self.source_ids[source])
                }
            };
            if **served != expected {
                return Err(format!(
                    "cold_scan: answer of op {index} differs from the oracle"
                ));
            }
        }
        Ok(())
    }

    fn trace(&mut self, rec: &mut Recorder, ops: usize) -> &'static str {
        self.reset();
        let graph = self.service.graph();
        for index in 0..ops.min(self.cold.ops.len()) {
            rec.set_op(index as i64);
            let real = rec.begin("op");
            let response = self.submit(index);
            rec.end(real);
            assert!(!sut::was_hit(&response), "traced op {index} hit the cache");
            let (dfa, source) = match self.cold.ops[index] {
                ColdOp::Monadic { family } => (&self.dfas[family], None),
                ColdOp::Binary { family, source } => {
                    (&self.dfas[family], Some(self.source_ids[source]))
                }
            };
            let layers = rec.begin("layers");
            trace_miss_layers(dfa, source, &graph, rec);
            rec.end(layers);
        }
        "service.miss_overhead"
    }
}

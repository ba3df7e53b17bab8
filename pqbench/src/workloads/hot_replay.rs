//! `hot_replay`: real loopback TCP, every op a cache hit.
//!
//! `net` + `proto` + `automata::regex`/canonicalization + the service
//! lock + the `cache` probe do all the work and `graph::eval` none: this
//! is where memoised text→canonical, a lock-free read path, cheaper
//! reply encoding or fewer thread hand-offs show, and where a kernel
//! optimisation predicts no change.

use super::{
    counter_deltas, digest, distinct_key_ops, fold, oracle_answer, Epoch, Front, Workload,
};
use crate::gen::{Dataset, HotInputs, ReadOp, Scale};
use crate::sut::{self, BitSet};
use crate::trace::Recorder;
use std::time::Instant;

const COUNTERS: [&str; 5] = [
    "serve.eval_ns_total",
    "serve.hits",
    "serve.misses",
    "net.queries",
    "net.shed",
];

pub struct HotReplay {
    hot: HotInputs,
    front: Front,
    /// The first answer seen per distinct key; later answers must equal
    /// it, and it must equal the oracle's.
    first_seen: Vec<Option<BitSet>>,
}

impl HotReplay {
    pub fn set_up(seed: u64, scale: &Scale, rec: &mut Recorder) -> HotReplay {
        let dataset = Dataset::generate(scale.syn_nodes, rec);
        let hot = HotInputs::generate(&dataset, scale.hot_ops, scale, seed);
        let text = dataset.graph_text(rec);
        drop(dataset);
        let graph = rec.time("graph.parse_text", || sut::parse_graph_text(&text));
        drop(text);
        let service = rec.time("service.new", || sut::new_service(graph));
        let front = Front::bring_up(service, &hot, rec);
        let first_seen = vec![None; hot.distinct_keys()];
        HotReplay {
            hot,
            front,
            first_seen,
        }
    }
}

impl Workload for HotReplay {
    fn run_epoch(&mut self, latencies_ns: &mut Vec<u64>) -> Epoch {
        let before = sut::counters(self.front.server.service());
        let mut epoch = Epoch::default();
        let started = Instant::now();
        for &op in &self.hot.ops {
            let sent = Instant::now();
            let reply = self.front.read(&self.hot, op);
            latencies_ns.push(sent.elapsed().as_nanos() as u64);
            let Some(reply) = reply else {
                epoch.failed += 1;
                continue;
            };
            let (query, key) = (op_query(op), self.hot.key(op));
            // Both spellings and the fingerprint form name one language.
            let mut ok = reply.fingerprint == self.front.fingerprints[query];
            epoch.digest = fold(epoch.digest, digest(&reply.bits));
            match &self.first_seen[key] {
                Some(first) => ok &= *first == reply.bits,
                None => self.first_seen[key] = Some(reply.bits),
            }
            epoch.failed += u64::from(!ok);
        }
        epoch.wall_ns = started.elapsed().as_nanos() as u64;
        let after = sut::counters(self.front.server.service());
        epoch.counters = counter_deltas(&COUNTERS, &before, &after);
        epoch
    }

    fn check_epoch(&self, epoch: &Epoch) -> Result<(), String> {
        if epoch.counter("serve.misses") != 0 {
            return Err(format!(
                "hot_replay: {} op(s) missed the cache in a timed epoch",
                epoch.counter("serve.misses")
            ));
        }
        if epoch.counter("serve.hits") != self.hot.ops.len() as u64 {
            return Err("hot_replay: not every op was a cache hit".to_owned());
        }
        Ok(())
    }

    fn verify(&mut self) -> Result<(), String> {
        let graph = self.front.graph();
        for key_op in distinct_key_ops(&self.hot) {
            let key = self.hot.key(key_op);
            let served = self.first_seen[key]
                .as_ref()
                .ok_or_else(|| format!("hot_replay: key {key} was never served"))?;
            if *served != oracle_answer(&self.hot, &self.front.source_ids, key_op, &graph) {
                return Err(format!(
                    "hot_replay: answer of key {key} differs from the oracle"
                ));
            }
        }
        Ok(())
    }

    fn trace(&mut self, rec: &mut Recorder, ops: usize) -> &'static str {
        for (id, &op) in self.hot.ops.iter().take(ops).enumerate() {
            rec.set_op(id as i64);
            let real = rec.begin("op");
            let reply = self.front.read(&self.hot, op);
            rec.end(real);
            assert!(reply.is_some(), "traced op {id} got no RESULT");
            let layers = rec.begin("layers");
            self.front.trace_read_layers(&self.hot, op, true, rec);
            rec.end(layers);
        }
        "net.overhead"
    }
}

fn op_query(op: ReadOp) -> usize {
    match op {
        ReadOp::Text { query, .. }
        | ReadOp::Fingerprint { query }
        | ReadOp::Binary { query, .. } => query,
    }
}

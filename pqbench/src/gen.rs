//! Seeded input generation: graphs, query texts, op lists, write edges.
//!
//! Everything here derives from `--seed`; the same seed gives the same
//! inputs. The program sees only what this module produces, in the form
//! an operator would hand it: a graph as text, queries as regex text,
//! nodes and edges by name. (Parsing renumbers nodes and labels by order
//! of appearance, so names — not generator ids — are the stable handle.)

use crate::sut::{self, CalibratedQuery, GraphDb, PathQuery, Regex, StrategyKind, WireEdge, Zipf};
use crate::trace::Recorder;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, HashSet};

/// Workload sizes. `FULL` is what `BENCHMARK.json` measures; `QUICK` is
/// the smoke configuration the crate's own tests run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scale {
    /// Nodes of the serving graph `syn-N`.
    pub syn_nodes: usize,
    /// Hot binary sources per binary query.
    pub hot_sources: usize,
    /// `hot_replay` ops per epoch.
    pub hot_ops: usize,
    /// `cold_scan` ops per epoch (half monadic, half binary).
    pub cold_ops: usize,
    /// `write_mix` writes per epoch (odd: k adds, k removes, one no-op);
    /// each write follows four reads.
    pub mix_writes: usize,
    /// Nodes of the learner's synthetic graph.
    pub learn_syn_nodes: usize,
    /// Interaction cap of the synthetic sessions.
    pub learn_cap: usize,
    /// Interaction cap of the AliBaba sessions; 0 runs them to the goal.
    pub learn_bio_cap: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Epochs measured even when `--seconds` is already used up.
    pub min_epochs: usize,
    /// Ops replayed by the traced run.
    pub trace_ops: usize,
    /// Answers checked against the oracle on `cold_scan`.
    pub cold_checked: usize,
    /// Repeats of a bring-up probe (medians are reported).
    pub probe_repeats: usize,
    /// Ops per request-path probe.
    pub probe_ops: usize,
    /// Records in the WAL the recovery probe replays.
    pub probe_wal_records: usize,
}

impl Scale {
    /// The benchmark proper.
    pub const FULL: Scale = Scale {
        syn_nodes: 100_000,
        hot_sources: 64,
        hot_ops: 2_000,
        cold_ops: 6_000,
        mix_writes: 1_025,
        learn_syn_nodes: 10_000,
        learn_cap: 100,
        learn_bio_cap: 0,
        setups: 3,
        min_epochs: 4,
        trace_ops: 2_000,
        cold_checked: 256,
        probe_repeats: 3,
        probe_ops: 256,
        probe_wal_records: 1_024,
    };

    /// Tiny graph, one epoch: seconds, not minutes.
    pub const QUICK: Scale = Scale {
        syn_nodes: 2_000,
        hot_sources: 8,
        hot_ops: 1_600,
        cold_ops: 400,
        mix_writes: 65,
        learn_syn_nodes: 600,
        learn_cap: 10,
        learn_bio_cap: 12,
        setups: 1,
        min_epochs: 1,
        trace_ops: 200,
        cold_checked: 64,
        probe_repeats: 1,
        probe_ops: 32,
        probe_wal_records: 32,
    };
}

/// The graphs are fixed datasets, as the paper's are (AliBaba is one real
/// graph, the synthetic graphs were generated once): `--seed` drives
/// everything that is done *to* them — op order, hot sources, the cold
/// family, write edges, the sessions' random choices — not the graphs.
/// With the graphs drawn from the seed too, the same code measured 12 %
/// apart on `cold_scan` and 35 % apart on `learn_session` from one seed
/// to the next (evaluation cost follows the hubs' labels; interactions
/// per epoch ranged 1,983–3,611), which no bound could sit under.
pub const DATASET_SEED: u64 = 42;

/// A sub-seed for one purpose, so streams do not overlap.
pub fn sub_seed(seed: u64, purpose: &str) -> u64 {
    // FNV-1a over the purpose, mixed with the seed (splitmix finalizer).
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in purpose.bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
    let mut z = seed ^ hash;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One canonical query in two language-equal spellings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryInput {
    /// `bio1`…`bio6`, `syn1`…`syn3`.
    pub name: String,
    /// The printer's spelling, and one with reversed disjunction
    /// operands and right-nested, parenthesised concatenation.
    pub spellings: [String; 2],
}

/// `syn-N` and the nine paper queries calibrated on it.
pub struct Dataset {
    pub graph: GraphDb,
    pub queries: Vec<CalibratedQuery>,
}

impl Dataset {
    /// Generates `syn-{nodes}` and calibrates bio1–bio6 + syn1–syn3.
    pub fn generate(nodes: usize, rec: &mut Recorder) -> Dataset {
        let graph = rec.time("datagen.scale_free", || {
            sut::scale_free(nodes, DATASET_SEED)
        });
        let queries = rec.time("datagen.calibrate", || {
            let mut queries = sut::calibrate_bio(&graph);
            queries.extend(sut::calibrate_syn(&graph));
            queries
        });
        Dataset { graph, queries }
    }

    /// The graph in the text form `pathlearn serve` loads, with one edge
    /// per label hoisted to the top in sorted label order.
    ///
    /// The parser numbers labels by first appearance, and the snapshot
    /// decoder re-sorts the alphabet by name while edges keep their
    /// symbol indices — so a snapshot of a graph whose labels did not
    /// first appear in sorted order loads with relabelled edges (found
    /// by `write_mix`'s oracle; see README, "Found while building"). The
    /// hoisted lines keep that defect out of the measured path until it
    /// is fixed; the oracle stays in place.
    pub fn graph_text(&self, rec: &mut Recorder) -> String {
        rec.time("datagen.write_text", || {
            let text = sut::write_graph_text(&self.graph);
            let lines: Vec<&str> = text.lines().collect();
            // Each label's first edge line; a `BTreeMap` iterates the
            // labels in the sorted order the snapshot decoder assumes.
            let mut first_of: BTreeMap<&str, usize> = BTreeMap::new();
            for (index, line) in lines.iter().enumerate() {
                let mut fields = line.split_whitespace();
                // An edge line is `src label dst`; `#` starts a comment.
                if let (false, Some(_), Some(label), Some(_), None) = (
                    line.starts_with('#'),
                    fields.next(),
                    fields.next(),
                    fields.next(),
                    fields.next(),
                ) {
                    first_of.entry(label).or_insert(index);
                    if first_of.len() == self.graph.alphabet().len() {
                        break;
                    }
                }
            }
            let mut hoisted = vec![false; lines.len()];
            let mut out = String::with_capacity(text.len());
            for &index in first_of.values() {
                hoisted[index] = true;
                out.push_str(lines[index]);
                out.push('\n');
            }
            for (index, line) in lines.iter().enumerate() {
                if !hoisted[index] {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            out
        })
    }

    /// Both spellings of every query.
    pub fn query_inputs(&self) -> Vec<QueryInput> {
        let alphabet = self.graph.alphabet();
        self.queries
            .iter()
            .map(|q| QueryInput {
                name: q.name.clone(),
                spellings: [
                    q.regex.display(alphabet).to_string(),
                    respell(&q.regex, &|sym| alphabet.name(sym).to_owned()),
                ],
            })
            .collect()
    }

    /// `count` distinct random node names.
    pub fn node_names(&self, count: usize, rng: &mut StdRng) -> Vec<String> {
        let n = self.graph.num_nodes();
        let mut seen = HashSet::new();
        let mut names = Vec::with_capacity(count);
        while names.len() < count.min(n) {
            let node = rng.gen_range(0..n as u32);
            if seen.insert(node) {
                names.push(self.graph.node_name(node).to_owned());
            }
        }
        names
    }
}

/// A second spelling of `regex` with the same language: disjunction
/// operands reversed, concatenation right-nested in explicit parentheses.
fn respell(regex: &Regex, name: &dyn Fn(sut::Symbol) -> String) -> String {
    match regex {
        Regex::Empty => unreachable!("calibrated queries are never empty"),
        Regex::Epsilon => "eps".to_owned(),
        Regex::Symbol(sym) => name(*sym),
        Regex::Alt(parts) => {
            let parts: Vec<String> = parts.iter().rev().map(|p| respell(p, name)).collect();
            format!("({})", parts.join(" + "))
        }
        Regex::Star(inner) => format!("({})*", respell(inner, name)),
        Regex::Concat(parts) => {
            let mut out = String::new();
            for part in parts {
                out.push_str(&respell(part, name));
                out.push_str("·(");
            }
            // Drop the last "·(" and close the rest.
            out.truncate(out.len() - "·(".len());
            out.push_str(&")".repeat(parts.len() - 1));
            out
        }
    }
}

// --- hot reads -------------------------------------------------------------

/// One read of the hot mix. Indices point into [`HotInputs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOp {
    /// `query_text`, monadic, in one of the two spellings.
    Text { query: usize, spelling: usize },
    /// `query_fingerprint`, monadic.
    Fingerprint { query: usize },
    /// `query_text_binary` from a hot source (spelling 0).
    Binary { query: usize, source: usize },
}

/// The read mix shared by `hot_replay` and `write_mix`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HotInputs {
    pub queries: Vec<QueryInput>,
    /// Indices (into `queries`) of the three binary queries: syn1–syn3.
    pub binary_queries: Vec<usize>,
    /// Hot source node names.
    pub sources: Vec<String>,
    /// One epoch of reads, in order.
    pub ops: Vec<ReadOp>,
}

impl HotInputs {
    /// 50 % text (cycling both spellings of every query), 25 %
    /// fingerprint, 25 % binary over sources × binary queries; shuffled.
    pub fn generate(dataset: &Dataset, count: usize, scale: &Scale, seed: u64) -> HotInputs {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "hot"));
        let queries = dataset.query_inputs();
        let binary_queries: Vec<usize> = queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.name.starts_with("syn"))
            .map(|(i, _)| i)
            .collect();
        let sources = dataset.node_names(scale.hot_sources, &mut rng);
        let (mut texts, mut prints, mut binaries) = (0usize, 0usize, 0usize);
        let mut ops = Vec::with_capacity(count);
        for i in 0..count {
            ops.push(match i % 4 {
                0 | 1 => {
                    let op = ReadOp::Text {
                        query: texts % queries.len(),
                        spelling: (texts / queries.len()) % 2,
                    };
                    texts += 1;
                    op
                }
                2 => {
                    prints += 1;
                    ReadOp::Fingerprint {
                        query: (prints - 1) % queries.len(),
                    }
                }
                _ => {
                    let op = ReadOp::Binary {
                        query: binary_queries[binaries % binary_queries.len()],
                        source: (binaries / binary_queries.len()) % sources.len(),
                    };
                    binaries += 1;
                    op
                }
            });
        }
        ops.shuffle(&mut rng);
        HotInputs {
            queries,
            binary_queries,
            sources,
            ops,
        }
    }

    /// Number of distinct cache keys the mix touches.
    pub fn distinct_keys(&self) -> usize {
        self.queries.len() + self.binary_queries.len() * self.sources.len()
    }

    /// The distinct-key index of `op` (both spellings and the
    /// fingerprint of a query share one key).
    pub fn key(&self, op: ReadOp) -> usize {
        match op {
            ReadOp::Text { query, .. } | ReadOp::Fingerprint { query } => query,
            ReadOp::Binary { query, source } => {
                let slot = self
                    .binary_queries
                    .iter()
                    .position(|&q| q == query)
                    .expect("binary query");
                self.queries.len() + slot * self.sources.len() + source
            }
        }
    }
}

// --- cold scans ------------------------------------------------------------

/// One never-repeated submission of `cold_scan`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ColdOp {
    /// `query_monadic` of family member `family`.
    Monadic { family: usize },
    /// `query_binary_from` of family member `family` from `source`.
    Binary { family: usize, source: usize },
}

/// A family of pairwise language-distinct queries and one epoch of
/// submissions over it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColdInputs {
    /// Regex texts, pairwise distinct as languages.
    pub family: Vec<String>,
    /// Source node names for the binary half.
    pub sources: Vec<String>,
    pub ops: Vec<ColdOp>,
}

impl ColdInputs {
    /// `count / 3` distinct members of the paper's seven templates, with
    /// label classes drawn by Zipf rank (frequent labels are frequent in
    /// queries too), and as many binary submissions with never-repeated
    /// (member, source) pairs; shuffled.
    pub fn generate(dataset: &Dataset, count: usize, seed: u64) -> ColdInputs {
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "cold"));
        let alphabet = dataset.graph.alphabet();
        let sigma = alphabet.len();
        let zipf = Zipf::new(sigma, 1.0);
        // Labels were interned in rank order by the generator.
        let symbols: Vec<sut::Symbol> = alphabet.symbols().collect();
        let class = |rng: &mut StdRng| -> Regex {
            let size = rng.gen_range(1..4usize);
            let mut members: Vec<sut::Symbol> = Vec::with_capacity(size);
            while members.len() < size {
                let sym = symbols[zipf.sample(rng)];
                if !members.contains(&sym) {
                    members.push(sym);
                }
            }
            members.sort_by_key(|s| s.index());
            Regex::symbol_class(&members)
        };
        let monadic = count / 3;
        let mut family = Vec::with_capacity(monadic);
        let mut seen = HashSet::new();
        while family.len() < monadic {
            let single = |rng: &mut StdRng| Regex::Symbol(symbols[zipf.sample(rng)]);
            let plus = |r: &Regex| vec![r.clone(), Regex::star(r.clone())];
            // The seven templates in equal shares: the seed draws the
            // label classes, not how many members are of the costly kind.
            let regex = match family.len() % 7 {
                0 => {
                    // b·A·A*
                    let mut parts = vec![single(&mut rng)];
                    parts.extend(plus(&class(&mut rng)));
                    Regex::concat(parts)
                }
                1 => {
                    // C·C*·a·A·A*
                    let mut parts = plus(&class(&mut rng));
                    parts.push(single(&mut rng));
                    parts.extend(plus(&class(&mut rng)));
                    Regex::concat(parts)
                }
                // C·E
                2 => Regex::concat(vec![class(&mut rng), class(&mut rng)]),
                3 => {
                    // I·I·I*
                    let i = class(&mut rng);
                    let mut parts = vec![i.clone()];
                    parts.extend(plus(&i));
                    Regex::concat(parts)
                }
                4 => {
                    // A·A·A*·I·I·I*
                    let (a, i) = (class(&mut rng), class(&mut rng));
                    let mut parts = vec![a.clone()];
                    parts.extend(plus(&a));
                    parts.push(i.clone());
                    parts.extend(plus(&i));
                    Regex::concat(parts)
                }
                5 => {
                    // A·A·A*
                    let a = class(&mut rng);
                    let mut parts = vec![a.clone()];
                    parts.extend(plus(&a));
                    Regex::concat(parts)
                }
                _ => {
                    // A·B*·C
                    let (a, b, c) = (class(&mut rng), class(&mut rng), class(&mut rng));
                    Regex::concat(vec![a, Regex::star(b), c])
                }
            };
            if seen.insert(sut::to_canonical(&regex, sigma)) {
                family.push(regex.display(alphabet).to_string());
            }
        }
        let sources = dataset.node_names((count - monadic).min(4096), &mut rng);
        let mut ops: Vec<ColdOp> = (0..monadic)
            .map(|family| ColdOp::Monadic { family })
            .collect();
        let mut pairs = HashSet::new();
        while ops.len() < count {
            let pair = (
                rng.gen_range(0..family.len()),
                rng.gen_range(0..sources.len()),
            );
            if pairs.insert(pair) {
                ops.push(ColdOp::Binary {
                    family: pair.0,
                    source: pair.1,
                });
            }
        }
        ops.shuffle(&mut rng);
        ColdInputs {
            family,
            sources,
            ops,
        }
    }
}

// --- writes ----------------------------------------------------------------

/// One op of `write_mix`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixOp {
    Read(ReadOp),
    /// The `index`-th write of the epoch (see [`MixInputs::write`]).
    Write {
        index: usize,
    },
}

/// The hot read mix interleaved with single-edge writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixInputs {
    pub hot: HotInputs,
    /// Edges absent from the base graph, by name; every label equally
    /// often. (By Zipf rank nearly every write invalidates most of
    /// the nine queries: hits, writes and misses then split the ops
    /// 32/20/48 and `latency_p50_us` sits on the boundary between two
    /// latency classes, moving 18 % with the seed. Spread evenly, labels
    /// touch a query's alphabet on about a quarter of the writes; the
    /// median op is a hit, the p99 op a re-evaluation over the overlay.)
    pub edges: Vec<WireEdge>,
    /// One epoch: four reads, one write, repeated.
    pub ops: Vec<MixOp>,
}

impl MixInputs {
    /// `scale.mix_writes` writes (k adds, then k removes of the same
    /// edges, then one no-op remove), each after four hot reads.
    pub fn generate(dataset: &Dataset, scale: &Scale, seed: u64) -> MixInputs {
        let writes = scale.mix_writes;
        assert!(
            writes % 2 == 1,
            "writes per epoch: k adds + k removes + 1 no-op"
        );
        let hot = HotInputs::generate(dataset, writes * 4, scale, seed);
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, "writes"));
        let graph = &dataset.graph;
        let alphabet = graph.alphabet();
        let symbols: Vec<sut::Symbol> = alphabet.symbols().collect();
        let n = graph.num_nodes() as u32;
        // Every label equally often, in shuffled order: how many writes
        // touch each query's alphabet is then the same for every seed,
        // only where they fall differs.
        let mut labels: Vec<sut::Symbol> = (0..writes / 2)
            .map(|i| symbols[i % symbols.len()])
            .collect();
        labels.shuffle(&mut rng);
        let mut seen = HashSet::new();
        let mut edges = Vec::with_capacity(labels.len());
        for sym in labels {
            loop {
                let (src, dst) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let present = graph.successors(src, sym).iter().any(|&(_, d)| d == dst);
                if !present && seen.insert((src, sym, dst)) {
                    edges.push((
                        graph.node_name(src).to_owned(),
                        alphabet.name(sym).to_owned(),
                        graph.node_name(dst).to_owned(),
                    ));
                    break;
                }
            }
        }
        let mut ops = Vec::with_capacity(writes * 5);
        for index in 0..writes {
            ops.extend(
                hot.ops[index * 4..index * 4 + 4]
                    .iter()
                    .map(|&op| MixOp::Read(op)),
            );
            ops.push(MixOp::Write { index });
        }
        MixInputs { hot, edges, ops }
    }

    /// The `index`-th write of an epoch: `(slot into edges, is_add)`.
    /// The first half adds, the second removes the same edges in the
    /// same order, and the last removes an already-absent edge — so the
    /// overlay is empty at epoch end and every epoch starts from the
    /// same graph.
    pub fn write(&self, index: usize) -> (usize, bool) {
        let k = self.edges.len();
        if index < k {
            (index, true)
        } else {
            ((index - k) % k, false)
        }
    }
}

// --- learning sessions -------------------------------------------------------

/// Which graph a session runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LearnGraph {
    Alibaba,
    Syn,
}

/// One §4 session.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    pub graph: LearnGraph,
    pub goal_name: String,
    pub goal: PathQuery,
    pub strategy: StrategyKind,
    /// 0 = uncapped.
    pub cap: usize,
    pub seed: u64,
}

/// The learner's graphs and its session list.
pub struct LearnInputs {
    pub alibaba: GraphDb,
    pub syn: GraphDb,
    pub syn_queries: Vec<CalibratedQuery>,
    pub sessions: Vec<SessionSpec>,
}

impl LearnInputs {
    /// bio1, bio3, bio6 under `kR` and `kS` and bio4 under `kS` on the
    /// simulated AliBaba graph; syn1–syn3 under `kR`, capped, on
    /// `syn-{learn_syn_nodes}`. (bio2 and bio5 take minutes per session.)
    pub fn generate(scale: &Scale, seed: u64, rec: &mut Recorder) -> LearnInputs {
        let alibaba = rec.time("datagen.alibaba", || sut::alibaba(DATASET_SEED));
        let syn = rec.time("datagen.scale_free", || {
            sut::scale_free(scale.learn_syn_nodes, DATASET_SEED)
        });
        let (bio, syn_queries) = rec.time("datagen.calibrate", || {
            (sut::calibrate_bio(&alibaba), sut::calibrate_syn(&syn))
        });
        let session_seed = sub_seed(seed, "sessions");
        let mut sessions = Vec::new();
        for (name, strategies) in [
            (
                "bio1",
                &[StrategyKind::KRandom, StrategyKind::KSmallest][..],
            ),
            (
                "bio3",
                &[StrategyKind::KRandom, StrategyKind::KSmallest][..],
            ),
            (
                "bio6",
                &[StrategyKind::KRandom, StrategyKind::KSmallest][..],
            ),
            ("bio4", &[StrategyKind::KSmallest][..]),
        ] {
            let query = bio.iter().find(|q| q.name == name).expect("bio query");
            for &strategy in strategies {
                sessions.push(SessionSpec {
                    graph: LearnGraph::Alibaba,
                    goal_name: name.to_owned(),
                    goal: query.query.clone(),
                    strategy,
                    cap: scale.learn_bio_cap,
                    seed: session_seed,
                });
            }
        }
        for query in &syn_queries {
            sessions.push(SessionSpec {
                graph: LearnGraph::Syn,
                goal_name: query.name.clone(),
                goal: query.query.clone(),
                strategy: StrategyKind::KRandom,
                cap: scale.learn_cap,
                seed: session_seed,
            });
        }
        LearnInputs {
            alibaba,
            syn,
            syn_queries,
            sessions,
        }
    }

    /// The graph `spec` runs on.
    pub fn graph(&self, spec: &SessionSpec) -> &GraphDb {
        match spec.graph {
            LearnGraph::Alibaba => &self.alibaba,
            LearnGraph::Syn => &self.syn,
        }
    }
}

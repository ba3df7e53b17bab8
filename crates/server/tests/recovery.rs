//! Crash-recovery differential suite — kill-and-recover is never a
//! wrong answer.
//!
//! The durability contract (ISSUE 9): for **any** sequence of
//! acknowledged delta batches, a process that dies and recovers from
//! its data directory (snapshot + WAL replay) serves **bit-identical**
//! results to a process that never crashed. This suite drives random
//! (graph, batch-sequence, query) triples through both lifecycles with
//! simulated kill points:
//!
//! * the WAL holds acknowledged batches the snapshot does not (the
//!   stale-snapshot case — checkpoint threshold set high);
//! * the checkpoint fired mid-sequence (threshold 0 or 2), so
//!   recovery starts from a fresh snapshot with an empty or short WAL;
//! * the final WAL record is **torn** — the process died mid-append,
//!   leaving a header whose extent crosses EOF or a record whose
//!   digest fails at EOF. That batch was never acknowledged, so
//!   recovery must drop it silently and keep everything before it;
//! * the checkpoint fired while the served graph carried a **pending
//!   overlay**: the snapshot holds the overlay's effective edge list,
//!   and the served graph was not compacted to write it;
//! * replayed records touch the same label repeatedly and later ones
//!   cancel earlier ones, so replay's stacked copy-on-write overlay
//!   must fold to the exact edge set.
//!
//! Identity is asserted at the strongest level available: the
//! recovered graph's snapshot encoding equals the never-crashed
//! service's graph encoding byte for byte, and served query bits match.

use pathlearn_automata::{Alphabet, Dfa, Regex, Symbol};
use pathlearn_graph::{GraphBuilder, GraphDb, NodeId};
use pathlearn_server::wal::{Persistence, SNAPSHOT_FILE, WAL_FILE};
use pathlearn_server::{DeltaCommitError, QueryService, ServeConfig};
use proptest::prelude::*;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const LABELS: [&str; 3] = ["a", "b", "c"];

type Edge = (NodeId, Symbol, NodeId);
type RawEdge = (u32, usize, u32);
type RawBatch = (Vec<RawEdge>, Vec<RawEdge>);

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "pathlearn-recovery-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn arb_graph() -> impl Strategy<Value = GraphDb> {
    (
        1usize..10,
        proptest::collection::vec((0u32..10, 0usize..3, 0u32..10), 0..25),
    )
        .prop_map(|(n, edges)| {
            let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
            for i in 0..n {
                builder.add_node(&format!("n{i}"));
            }
            let n = n as u32;
            for (src, sym, dst) in edges {
                builder.add_edge_ids(src % n, Symbol::from_index(sym), dst % n);
            }
            builder.build()
        })
}

fn arb_batches() -> impl Strategy<Value = Vec<RawBatch>> {
    let edge = (0u32..10, 0usize..3, 0u32..10);
    proptest::collection::vec(
        (
            proptest::collection::vec(edge.clone(), 0..6),
            proptest::collection::vec(edge, 0..6),
        ),
        0..6,
    )
}

fn arb_query() -> impl Strategy<Value = Dfa> {
    let leaf = prop_oneof![
        Just(Regex::Epsilon),
        (0usize..3).prop_map(|i| Regex::Symbol(Symbol::from_index(i))),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::concat),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Regex::alt),
            inner.prop_map(Regex::star),
        ]
    })
    .prop_map(|regex| regex.to_dfa(3))
}

fn fix(n: u32, edges: &[RawEdge]) -> Vec<Edge> {
    edges
        .iter()
        .map(|&(s, sym, d)| (s % n, Symbol::from_index(sym), d % n))
        .collect()
}

/// Appends a torn record to the WAL — what a mid-append crash leaves
/// behind. Kind 1: a header whose declared extent crosses EOF. Kind 2:
/// a structurally complete record whose digest is garbage. Either way
/// the batch it would have carried was never acknowledged.
fn tear_wal(dir: &std::path::Path, kind: usize) {
    let path = dir.join(WAL_FILE);
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .create(true)
        .open(&path)
        .expect("open wal for tearing");
    match kind {
        1 => {
            // Declares a 100-byte payload, supplies 6.
            file.write_all(&100u32.to_le_bytes()).unwrap();
            file.write_all(&0xdeadbeefu64.to_le_bytes()).unwrap();
            file.write_all(&[1, 2, 3, 4, 5, 6]).unwrap();
        }
        2 => {
            // A full empty-batch record (payload `0 adds, 0 removes`)
            // under a wrong digest — bits of the tail were lost.
            file.write_all(&8u32.to_le_bytes()).unwrap();
            file.write_all(&0x1234_5678_9abc_def0u64.to_le_bytes())
                .unwrap();
            file.write_all(&[0u8; 8]).unwrap();
        }
        _ => unreachable!(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kill-and-recover differential: apply a random prefix of
    /// random batches durably, kill the process (drop), optionally
    /// tear the WAL's tail, recover — and the recovered service is
    /// bit-identical to one that applied the same prefix and never
    /// crashed. Swept across checkpoint thresholds so recovery starts
    /// variously from a stale snapshot + long WAL, a fresh snapshot +
    /// empty WAL, and everything between.
    #[test]
    fn recovery_is_bit_identical_to_the_uninterrupted_service(
        base in arb_graph(),
        batches in arb_batches(),
        query in arb_query(),
        kill in 0usize..8,
        threshold in prop_oneof![Just(0usize), Just(2usize), Just(1 << 20)],
        tear in 0usize..3,
    ) {
        let dir = scratch_dir();
        let n = base.num_nodes() as u32;
        let kill = kill % (batches.len() + 1);

        // The durable lifecycle: recover (first run seeds the
        // snapshot), apply `kill` batches through the WAL, then die.
        {
            let recovered = {
                let base = base.clone();
                Persistence::recover(&dir, threshold, move || Ok(base))
                    .expect("first-run recovery")
            };
            let durable = QueryService::new(recovered.graph, ServeConfig::default());
            durable.attach_persistence(recovered.persistence);
            for (add, remove) in &batches[..kill] {
                durable
                    .apply_delta(&fix(n, add), &fix(n, remove))
                    .expect("durable apply");
            }
            // Process dies here: nothing is flushed beyond what
            // apply_delta already fsynced.
        }
        if tear > 0 {
            tear_wal(&dir, tear);
        }

        // The uninterrupted reference: same batches, no persistence.
        let reference = QueryService::new(base.clone(), ServeConfig::default());
        for (add, remove) in &batches[..kill] {
            reference
                .apply_delta(&fix(n, add), &fix(n, remove))
                .expect("reference apply");
        }

        // Recovery: the fallback must not run (the snapshot exists),
        // and the recovered graph encodes identically to the
        // reference's — same nodes, same alphabet, same edge set.
        let recovered = Persistence::recover(&dir, threshold, || {
            Err("recovery after a crash must come from snapshot + WAL".into())
        })
        .expect("post-crash recovery");
        prop_assert_eq!(
            recovered.graph.snapshot_bytes(),
            reference.graph().snapshot_bytes(),
            "recovered graph must be bit-identical to the never-crashed graph"
        );

        // And the *served* bits match: a client cannot tell the
        // revived service from one that never died.
        let revived = QueryService::new(recovered.graph, ServeConfig::default());
        prop_assert_eq!(
            &*revived.query_monadic(&query).result,
            &*reference.query_monadic(&query).result
        );
        for source in base.nodes() {
            prop_assert_eq!(
                &*revived.query_binary_from(&query, source).result,
                &*reference.query_binary_from(&query, source).result
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Recovering twice in a row (crash during recovery's own
    /// checkpoint window) changes nothing: recovery is idempotent.
    #[test]
    fn recovery_is_idempotent(
        base in arb_graph(),
        batches in arb_batches(),
        threshold in prop_oneof![Just(0usize), Just(1 << 20)],
    ) {
        let dir = scratch_dir();
        let n = base.num_nodes() as u32;
        {
            let recovered = {
                let base = base.clone();
                Persistence::recover(&dir, threshold, move || Ok(base)).expect("seed")
            };
            let durable = QueryService::new(recovered.graph, ServeConfig::default());
            durable.attach_persistence(recovered.persistence);
            for (add, remove) in &batches {
                durable
                    .apply_delta(&fix(n, add), &fix(n, remove))
                    .expect("durable apply");
            }
        }
        let first = Persistence::recover(&dir, threshold, || Err("no fallback".into()))
            .expect("first recovery");
        let first_bytes = first.graph.snapshot_bytes();
        drop(first);
        let second = Persistence::recover(&dir, threshold, || Err("no fallback".into()))
            .expect("second recovery");
        prop_assert_eq!(second.graph.snapshot_bytes(), first_bytes);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Deterministic anchor: the exact kill point named by the issue —
/// acknowledged batches in the WAL, snapshot still at the seed image,
/// plus a torn final record — recovers to the acknowledged state.
#[test]
fn stale_snapshot_plus_torn_tail_recovers_acknowledged_state() {
    let dir = scratch_dir();
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_edge("x", "a", "y");
    builder.add_edge("y", "b", "z");
    let base = builder.build();
    let a = base.alphabet().symbol("a").unwrap();
    let (x, y, z) = (
        base.node_id("x").unwrap(),
        base.node_id("y").unwrap(),
        base.node_id("z").unwrap(),
    );

    {
        let recovered = {
            let base = base.clone();
            Persistence::recover(&dir, 1 << 20, move || Ok(base)).expect("seed")
        };
        let durable = QueryService::new(recovered.graph, ServeConfig::default());
        durable.attach_persistence(recovered.persistence);
        durable.apply_delta(&[(x, a, z)], &[]).expect("ack 1");
        durable
            .apply_delta(&[(z, a, x)], &[(x, a, y)])
            .expect("ack 2");
    }
    tear_wal(&dir, 1);

    let recovered = Persistence::recover(&dir, 1 << 20, || Err("no fallback".into()))
        .expect("recover over torn tail");
    assert_eq!(recovered.report.wal_records_replayed, 2);
    assert!(recovered.report.torn_bytes_dropped > 0);
    let expected = base
        .with_delta(&[(x, a, z)], &[])
        .unwrap()
        .with_delta(&[(z, a, x)], &[(x, a, y)])
        .unwrap()
        .compact();
    assert_eq!(recovered.graph.snapshot_bytes(), expected.snapshot_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// Replay applies each record to the handle the previous record made,
/// and the overlay is copy-on-write per label: records that hit the
/// same label, and a later record that cancels an earlier one, must
/// still fold to exactly the edge set the batches describe. Checked
/// edge for edge against an independent model of `(G ∖ remove) ∪ add`
/// and byte for byte against the compacted in-memory chain.
#[test]
fn replay_of_same_label_records_with_cancellations_is_exact() {
    let dir = scratch_dir();
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_edge("x", "a", "y");
    builder.add_edge("y", "b", "z");
    let base = builder.build();
    let (a, b) = (
        base.alphabet().symbol("a").unwrap(),
        base.alphabet().symbol("b").unwrap(),
    );
    let (x, y, z) = (
        base.node_id("x").unwrap(),
        base.node_id("y").unwrap(),
        base.node_id("z").unwrap(),
    );
    let batches: [(Vec<Edge>, Vec<Edge>); 4] = [
        (vec![(x, a, z), (y, a, x)], vec![]),
        // The same label again: one more addition, one base removal.
        (vec![(z, a, y)], vec![(x, a, y)]),
        // Cancels the first record's (x, a, z) and the second's removal.
        (vec![(x, a, y)], vec![(x, a, z)]),
        (vec![(z, b, x)], vec![(y, b, z)]),
    ];

    {
        let recovered = {
            let base = base.clone();
            Persistence::recover(&dir, 1 << 20, move || Ok(base)).expect("seed")
        };
        let durable = QueryService::new(recovered.graph, ServeConfig::default());
        durable.attach_persistence(recovered.persistence);
        for (add, remove) in &batches {
            durable.apply_delta(add, remove).expect("ack");
        }
    }

    let recovered =
        Persistence::recover(&dir, 1 << 20, || Err("no fallback".into())).expect("recover");
    assert_eq!(recovered.report.wal_records_replayed, batches.len());
    assert!(!recovered.graph.has_delta());
    let mut model: std::collections::BTreeSet<Edge> = base.edges().collect();
    let mut chain = base.clone();
    for (add, remove) in &batches {
        for edge in remove {
            model.remove(edge);
        }
        model.extend(add.iter().copied());
        chain = chain.with_delta(add, remove).unwrap();
    }
    assert_eq!(
        recovered.graph.edges().collect::<Vec<_>>(),
        model.into_iter().collect::<Vec<_>>()
    );
    assert_eq!(
        recovered.graph.snapshot_bytes(),
        chain.compact().snapshot_bytes()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint over a pending overlay: the snapshot is written from
/// the served graph as it is — the file holds the overlay's effective
/// edge list, the served handle still carries its overlay afterwards
/// (nothing was compacted behind the readers' backs) — and a restart
/// from that dir, with nothing left to replay, is bit-identical to the
/// service that never crashed.
#[test]
fn checkpoint_over_a_pending_overlay_leaves_the_served_graph_alone() {
    let dir = scratch_dir();
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_edge("x", "a", "y");
    builder.add_edge("y", "b", "z");
    let base = builder.build();
    let a = base.alphabet().symbol("a").unwrap();
    let (x, y, z) = (
        base.node_id("x").unwrap(),
        base.node_id("y").unwrap(),
        base.node_id("z").unwrap(),
    );
    let batches: [(Vec<Edge>, Vec<Edge>); 2] = [
        (vec![(x, a, z)], vec![]),
        (vec![(z, a, x)], vec![(x, a, y)]),
    ];

    // Threshold 1: the second acknowledged batch crosses it.
    let recovered = {
        let base = base.clone();
        Persistence::recover(&dir, 1, move || Ok(base)).expect("seed")
    };
    let durable = QueryService::new(recovered.graph, ServeConfig::default());
    durable.attach_persistence(recovered.persistence);
    let reference = QueryService::new(base.clone(), ServeConfig::default());
    for (add, remove) in &batches {
        durable.apply_delta(add, remove).expect("ack");
        reference.apply_delta(add, remove).expect("reference apply");
    }
    let checkpoints = durable.telemetry().registry.counter("wal.checkpoints");
    assert_eq!(checkpoints.get(), 1);
    assert_eq!(durable.persistence_status(), Some((0, 1)));
    assert!(
        durable.graph().has_delta(),
        "checkpointing must not compact the served graph"
    );
    assert_eq!(
        std::fs::read(dir.join(SNAPSHOT_FILE)).expect("read snapshot"),
        durable.graph().snapshot_bytes(),
        "the file is the overlay graph's effective edge list"
    );
    drop(durable);

    let recovered = Persistence::recover(&dir, 1, || Err("no fallback".into())).expect("recover");
    assert_eq!(recovered.report.wal_records_replayed, 0);
    assert!(!recovered.graph.has_delta());
    assert_eq!(
        recovered.graph.snapshot_bytes(),
        reference.graph().snapshot_bytes()
    );
    let revived = QueryService::new(recovered.graph, ServeConfig::default());
    for expr in ["a", "a·a", "(a+b)*"] {
        let query = Regex::parse(expr, base.alphabet())
            .unwrap()
            .to_dfa(LABELS.len());
        assert_eq!(
            *revived.query_monadic(&query).result,
            *reference.query_monadic(&query).result,
            "{expr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A batch that fails validation never reaches the log: the durable
/// path refuses it with exactly the verdict the in-memory path gives
/// (both ask `GraphDb::check_delta`, removals first), the WAL's record
/// count and the `wal.records_logged` counter stay put, and a restart
/// has nothing to replay.
#[test]
fn rejected_durable_batch_is_never_logged() {
    let dir = scratch_dir();
    let mut builder = GraphBuilder::with_alphabet(Alphabet::from_labels(LABELS));
    builder.add_edge("x", "a", "y");
    let base = builder.build();
    let a = base.alphabet().symbol("a").unwrap();
    let foreign = Symbol::from_index(LABELS.len() + 4);

    let in_memory = QueryService::new(base.clone(), ServeConfig::default());
    let recovered = {
        let base = base.clone();
        Persistence::recover(&dir, 1 << 20, move || Ok(base)).expect("seed")
    };
    let durable = QueryService::new(recovered.graph, ServeConfig::default());
    durable.attach_persistence(recovered.persistence);
    let logged = || {
        let registry = &durable.telemetry().registry;
        registry.counter("wal.records_logged").get()
    };
    let before = (durable.persistence_status(), logged());
    assert_eq!(before.0.map(|(records, _)| records), Some(0));

    let bad_batches: [(Vec<Edge>, Vec<Edge>); 3] = [
        (vec![(0, a, 1), (0, a, 9)], vec![]),
        (vec![], vec![(0, foreign, 1)]),
        // Out of range on both sides: the removal's verdict wins.
        (vec![(7, a, 0)], vec![(0, a, 8)]),
    ];
    for (add, remove) in &bad_batches {
        let Err(DeltaCommitError::Rejected(expected)) = in_memory.apply_delta(add, remove) else {
            panic!("the in-memory path must reject {add:?} / {remove:?}");
        };
        match durable.apply_delta(add, remove) {
            Err(DeltaCommitError::Rejected(verdict)) => assert_eq!(verdict, expected),
            other => panic!("expected a rejection, got {other:?}"),
        }
        assert_eq!((durable.persistence_status(), logged()), before);
    }
    drop(durable);

    let recovered = Persistence::recover(&dir, 1 << 20, || Err("no fallback".into()))
        .expect("recover after rejections");
    assert_eq!(recovered.report.wal_records_replayed, 0);
    assert_eq!(recovered.graph.snapshot_bytes(), base.snapshot_bytes());
    std::fs::remove_dir_all(&dir).ok();
}

/// `apply_delta` is the one write path: on a service with persistence
/// attached it logs and fsyncs the batch before applying it, so an
/// acknowledged edge is still there after a restart.
#[test]
fn apply_delta_on_a_durable_service_survives_a_restart() {
    let dir = scratch_dir();
    let base = pathlearn_graph::graph::figure3_g0();
    let c = base.alphabet().symbol("c").unwrap();
    let (v1, v5) = (base.node_id("v1").unwrap(), base.node_id("v5").unwrap());
    {
        let recovered = {
            let base = base.clone();
            Persistence::recover(&dir, 1 << 20, move || Ok(base)).expect("seed")
        };
        let durable = QueryService::new(recovered.graph, ServeConfig::default());
        durable.attach_persistence(recovered.persistence);
        durable.apply_delta(&[(v1, c, v5)], &[]).expect("ack");
        assert_eq!(durable.graph().num_edges(), base.num_edges() + 1);
    }

    let recovered =
        Persistence::recover(&dir, 1 << 20, || Err("no fallback".into())).expect("recover");
    assert_eq!(recovered.report.wal_records_replayed, 1);
    assert_eq!(recovered.graph.num_edges(), base.num_edges() + 1);
    assert!(recovered.graph.edges().any(|edge| edge == (v1, c, v5)));
    std::fs::remove_dir_all(&dir).ok();
}

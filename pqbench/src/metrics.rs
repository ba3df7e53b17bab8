//! The metrics the benchmark declares, in one place. `BENCHMARK.json`
//! lists the same names, units and directions; the crate's tests hold
//! the two together, and hold every run to printing exactly these.

/// `(name, unit, better)`.
pub type Declared = (&'static str, &'static str, &'static str);

/// What a user of the system sees; measured with tracing off.
pub const END_TO_END: [Declared; 5] = [
    ("setup_s", "s", "lower"),
    ("throughput_ops_s", "1/s", "higher"),
    ("latency_p50_us", "us", "lower"),
    ("latency_p99_us", "us", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// How a per-layer metric is obtained in a traced run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Source {
    /// Median self time of the spans with this name, divided by
    /// `per_unit_ns` nanoseconds.
    Span(&'static str, f64),
    /// A value a probe computes directly (ratios, sizes, batch-timed
    /// nanosecond calls, residuals).
    Probe,
    /// A program counter's movement over one untraced epoch (0 when the
    /// workload does not touch it).
    Counter(&'static str),
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// Single layers; measured by the traced run. Layer names are the
/// repo's modules. `README.md` says which end-to-end metric each should
/// move, on which workload.
pub const PER_LAYER: [(Declared, Source); 53] = [
    // Bring-up: should move `setup_s`.
    (
        ("datagen.scale_free_ms", "ms", "lower"),
        Source::Span("datagen.scale_free", MS),
    ),
    (
        ("datagen.calibrate_ms", "ms", "lower"),
        Source::Span("datagen.calibrate", MS),
    ),
    (
        ("graph.parse_text_ms", "ms", "lower"),
        Source::Span("graph.parse_text", MS),
    ),
    (
        ("snapshot.load_ms", "ms", "lower"),
        Source::Span("snapshot.load", MS),
    ),
    (
        ("snapshot.save_ms", "ms", "lower"),
        Source::Span("snapshot.save", MS),
    ),
    (
        ("snapshot.bytes_per_text_byte", "ratio", "lower"),
        Source::Probe,
    ),
    (
        ("wal.recover_ms", "ms", "lower"),
        Source::Span("wal.recover", MS),
    ),
    (
        ("wal.checkpoint_ms", "ms", "lower"),
        Source::Span("wal.checkpoint", MS),
    ),
    (
        ("wal.append_fsync_us", "us", "lower"),
        Source::Span("wal.append_fsync", US),
    ),
    (
        ("service.new_ms", "ms", "lower"),
        Source::Span("service.new", MS),
    ),
    // The request path of a hit: should move `hot_replay`.
    (
        ("proto.encode_request_us", "us", "lower"),
        Source::Span("proto.encode_request", US),
    ),
    (
        ("proto.decode_request_us", "us", "lower"),
        Source::Span("proto.decode_request", US),
    ),
    (
        ("proto.encode_response_us", "us", "lower"),
        Source::Span("proto.encode_response", US),
    ),
    (
        ("proto.decode_response_us", "us", "lower"),
        Source::Span("proto.decode_response", US),
    ),
    (("proto.response_bytes", "B", "lower"), Source::Probe),
    (
        ("regex.parse_us", "us", "lower"),
        Source::Span("regex.parse", US),
    ),
    (
        ("automata.to_canonical_us", "us", "lower"),
        Source::Span("automata.to_canonical", US),
    ),
    (
        ("service.hit_us", "us", "lower"),
        Source::Span("service.hit", US),
    ),
    (("net.ping_us", "us", "lower"), Source::Span("net.ping", US)),
    (("net.overhead_us", "us", "lower"), Source::Probe),
    (("cache.get_hit_ns", "ns", "lower"), Source::Probe),
    (("cache.insert_evict_ns", "ns", "lower"), Source::Probe),
    (("cache.invalidate_labels_us", "us", "lower"), Source::Probe),
    // The miss path: should move `cold_scan`.
    (
        ("plan.plan_query_us", "us", "lower"),
        Source::Span("plan.plan_query", US),
    ),
    (
        ("eval.monadic_us", "us", "lower"),
        Source::Span("eval.monadic", US),
    ),
    (
        ("eval.binary_from_us", "us", "lower"),
        Source::Span("eval.binary_from", US),
    ),
    (("service.miss_overhead_us", "us", "lower"), Source::Probe),
    (("service.eval_share", "ratio", "higher"), Source::Probe),
    (
        ("inclusion.nfa_included_us", "us", "lower"),
        Source::Span("inclusion.nfa_included", US),
    ),
    (
        ("par_eval.monadic_speedup", "ratio", "higher"),
        Source::Probe,
    ),
    // The write path: should move `write_mix`.
    (
        ("delta.with_delta_us", "us", "lower"),
        Source::Span("delta.with_delta", US),
    ),
    (
        ("delta.compact_ms", "ms", "lower"),
        Source::Span("delta.compact", MS),
    ),
    (("eval.overlay_slowdown", "ratio", "lower"), Source::Probe),
    (
        ("service.apply_delta_us", "us", "lower"),
        Source::Span("service.apply_delta", US),
    ),
    // The learner: should move `learn_session`.
    (("scp.scp_us", "us", "lower"), Source::Span("scp.scp", US)),
    (
        ("strategy.propose_us", "us", "lower"),
        Source::Span("strategy.propose", US),
    ),
    (
        ("learner.learn_ms", "ms", "lower"),
        Source::Span("learner.learn_static", MS),
    ),
    (("learner.f1_static_5pct", "ratio", "higher"), Source::Probe),
    (
        ("interactive.labels_to_goal", "count", "lower"),
        Source::Counter("interactive.labels_to_goal"),
    ),
    // Exact under one closed-loop client; they explain a moved number.
    (
        ("count.serve.hits", "count", "higher"),
        Source::Counter("serve.hits"),
    ),
    (
        ("count.serve.misses", "count", "lower"),
        Source::Counter("serve.misses"),
    ),
    (
        ("count.cache.evictions", "count", "lower"),
        Source::Counter("cache.evictions"),
    ),
    (
        ("count.cache.invalidated", "count", "lower"),
        Source::Counter("cache.invalidated"),
    ),
    (
        ("count.serve.subsumption_reuses", "count", "higher"),
        Source::Counter("serve.subsumption_reuses"),
    ),
    (
        ("count.wal.records_logged", "count", "lower"),
        Source::Counter("wal.records_logged"),
    ),
    (
        ("count.wal.checkpoints", "count", "lower"),
        Source::Counter("wal.checkpoints"),
    ),
    (
        ("count.net.shed", "count", "lower"),
        Source::Counter("net.shed"),
    ),
    (("cache.hit_ratio", "ratio", "higher"), Source::Probe),
    (
        ("subsumption.useful_ratio", "ratio", "higher"),
        Source::Probe,
    ),
    // The workload's own decomposition and the harness.
    (("op.median_us", "us", "lower"), Source::Probe),
    (("op.layers_us", "us", "lower"), Source::Probe),
    (("op.residual_us", "us", "lower"), Source::Probe),
    (("trace.overhead_pct", "%", "lower"), Source::Probe),
];

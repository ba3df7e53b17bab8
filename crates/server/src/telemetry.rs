//! Unified telemetry: the metrics registry, per-query trace spans, and
//! the text admin surface.
//!
//! Everything the serving stack observes about itself flows through
//! this module:
//!
//! * **Metrics** — [`Counter`] (sharded atomics, padded a cache line
//!   apart so concurrent increments from many threads do not false-
//!   share), [`Gauge`] (a plain atomic level), and [`Histogram`]
//!   (fixed log₂ buckets — recording is two relaxed atomic adds, no
//!   lock, no allocation). Handles are cheap clones of an `Arc`;
//!   mutation sites own a handle and never look anything up by name.
//! * **Registry** — [`MetricsRegistry`] maps stable dotted names
//!   (`serve.*`, `cache.*`, `net.*`, `wal.*`, `eval.*`) to metrics.
//!   [`MetricsRegistry::snapshot`] flattens every metric to sorted
//!   `(name, u64)` pairs — the `STATS` wire frame body — deriving
//!   `{name}_count` / `{name}_p50_{unit}` / `{name}_p99_{unit}` keys
//!   from histograms so the legacy `net.latency_p50_ns` /
//!   `net.latency_p99_ns` counters keep their exact names.
//!   [`MetricsRegistry::render_prometheus`] is the `/metrics` text
//!   exposition.
//! * **Traces** — [`QueryTrace`] is one query's life: wall-clock spans
//!   ([`TraceBuilder::span`]: cache_probe → plan → eval → publish),
//!   evaluation-slot wait, per-BFS-level samples from
//!   [`pathlearn_graph::observer`], and the outcome the client saw.
//!   Traces land in a lock-striped ring ([`TraceSink`]) plus a
//!   threshold-gated slow-query log.
//! * **Admin surface** — [`AdminServer`] is a minimal HTTP/1.0
//!   responder (stdlib TCP, same timeout/cap idioms as [`crate::net`])
//!   serving `/metrics`, `/healthz` and `/slow` from closures installed
//!   via [`AdminServer::set_sources`]; until sources are installed it
//!   answers `503 recovering`, which is exactly the readiness gate a
//!   `serve --data-dir` deployment wants while the WAL replays.
//!
//! ## Quantiles
//!
//! [`Histogram::quantile`] uses the same nearest-rank rule the old
//! `LatencyRing` used (`⌈n·p/100⌉` in 1-based ranks), computed by
//! walking bucket counts — so a partially-filled history is handled by
//! construction: only recorded samples have bucket counts, there are no
//! "unwritten slots" to misread. The returned value is the matching
//! bucket's inclusive upper bound, i.e. quantiles are conservative
//! (within 2× for log₂ buckets), which is the right trade for a
//! lock-free hot path.

use pathlearn_graph::observer::LevelSample;
use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------

/// Shards per counter: enough that the client and connection threads the
/// serving stack actually runs spread without false sharing, small
/// enough that reading stays a trivial sum.
const COUNTER_SHARDS: usize = 8;

/// One cache line per shard so neighboring shards never false-share.
#[repr(align(64))]
#[derive(Default)]
struct PaddedCell(AtomicU64);

static NEXT_THREAD_SLOT: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Each thread gets a stable shard slot round-robined at first use.
    static THREAD_SLOT: usize =
        NEXT_THREAD_SLOT.fetch_add(1, Ordering::Relaxed) % COUNTER_SHARDS;
}

/// A monotonically increasing counter. Cloning shares the underlying
/// shards; increments are one relaxed atomic add on the calling
/// thread's home shard.
#[derive(Clone, Default)]
pub struct Counter {
    shards: Arc<[PaddedCell; COUNTER_SHARDS]>,
}

impl Counter {
    /// A fresh zeroed counter (standalone — registering is optional).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        let slot = THREAD_SLOT.with(|slot| *slot);
        self.shards[slot].0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total (sum over shards).
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|cell| cell.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A settable level (queue depth, resident bytes, …). One atomic.
#[derive(Clone, Default, Debug)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the level.
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
    }

    /// Raises the level by `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Lowers the level by `n`, saturating at zero.
    pub fn sub(&self, n: u64) {
        let _ = self
            .value
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(n))
            });
    }

    /// The current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Bucket count of [`Histogram`]: bucket 0 holds the value 0, bucket
/// `i ≥ 1` holds `2^(i-1) ..= 2^i - 1`, so 65 buckets cover all of
/// `u64`.
pub const HISTOGRAM_BUCKETS: usize = 65;

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

/// A fixed-bucket log₂ histogram. Recording is two relaxed atomic adds;
/// there is no lock anywhere, which is what lets it replace the
/// mutex-guarded `LatencyRing` on the request hot path.
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            inner: Arc::new(HistogramInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index `value` falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// The inclusive upper bound of bucket `index` (`2^index - 1`,
    /// saturating to `u64::MAX` for the last bucket).
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.inner.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.inner
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .sum()
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy of the per-bucket counts.
    pub fn bucket_counts(&self) -> [u64; HISTOGRAM_BUCKETS] {
        std::array::from_fn(|i| self.inner.buckets[i].load(Ordering::Relaxed))
    }

    /// Nearest-rank quantile (`p` in percent): walks the bucket counts
    /// to the 1-based rank `⌈n·p/100⌉` and returns that bucket's
    /// inclusive upper bound. An empty histogram answers 0, and only
    /// recorded samples participate — a partially-filled history needs
    /// no special casing (the `LatencyRing` cold-start fix, folded in
    /// by construction).
    pub fn quantile(&self, p: u32) -> u64 {
        let counts = self.bucket_counts();
        let n: u64 = counts.iter().sum();
        if n == 0 {
            return 0;
        }
        let rank = (n * u64::from(p)).div_ceil(100).clamp(1, n);
        let mut seen = 0u64;
        for (index, &count) in counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::bucket_upper_bound(index);
            }
        }
        Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram {
        histogram: Histogram,
        /// Unit suffix for derived quantile keys (`_p50_{unit}`), e.g.
        /// `"ns"` — how `net.latency` reproduces the legacy
        /// `net.latency_p50_ns` snapshot key.
        unit: &'static str,
    },
}

/// Name → metric map behind every exposition. Registration is
/// idempotent: asking for a name that exists returns the existing
/// handle, so independent subsystems can share a metric by name.
/// Registering a name under a *different* metric kind panics — that is
/// a wiring bug, not a runtime condition.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) a counter under `name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.adopt_counter(name, Counter::new())
    }

    /// Registers a caller-created counter under `name` (keeps the
    /// existing one if the name is taken) and returns the live handle.
    pub fn adopt_counter(&self, name: &str, counter: Counter) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert(Metric::Counter(counter))
        {
            Metric::Counter(counter) => counter.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a gauge under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(gauge) => gauge.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Registers (or retrieves) a histogram under `name`; `unit` names
    /// the derived quantile keys (`{name}_p50_{unit}`).
    pub fn histogram(&self, name: &str, unit: &'static str) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram {
                histogram: Histogram::new(),
                unit,
            }) {
            Metric::Histogram { histogram, .. } => histogram.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Flattens every metric to `(name, value)` pairs, **sorted by
    /// key** — the deterministic `STATS` frame body. Histograms emit
    /// `{name}_count`, `{name}_p50_{unit}` and `{name}_p99_{unit}`.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let metrics = self.metrics.lock().unwrap();
        let mut out = Vec::with_capacity(metrics.len() + 8);
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(counter) => out.push((name.clone(), counter.get())),
                Metric::Gauge(gauge) => out.push((name.clone(), gauge.get())),
                Metric::Histogram { histogram, unit } => {
                    out.push((format!("{name}_count"), histogram.count()));
                    out.push((format!("{name}_p50_{unit}"), histogram.quantile(50)));
                    out.push((format!("{name}_p99_{unit}"), histogram.quantile(99)));
                }
            }
        }
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Prometheus-style text exposition: `# TYPE` lines, dotted names
    /// sanitized to underscores, histograms as cumulative
    /// `_bucket{le="…"}` series plus `_sum`/`_count`.
    pub fn render_prometheus(&self) -> String {
        fn sanitize(name: &str) -> String {
            name.replace(['.', '-'], "_")
        }
        let metrics = self.metrics.lock().unwrap();
        let mut out = String::with_capacity(4096);
        for (name, metric) in metrics.iter() {
            let flat = sanitize(name);
            match metric {
                Metric::Counter(counter) => {
                    out.push_str(&format!(
                        "# TYPE {flat} counter\n{flat} {}\n",
                        counter.get()
                    ));
                }
                Metric::Gauge(gauge) => {
                    out.push_str(&format!("# TYPE {flat} gauge\n{flat} {}\n", gauge.get()));
                }
                Metric::Histogram { histogram, unit } => {
                    let series = format!("{flat}_{unit}");
                    let counts = histogram.bucket_counts();
                    let last = counts.iter().rposition(|&count| count > 0).unwrap_or(0);
                    out.push_str(&format!("# TYPE {series} histogram\n"));
                    let mut cumulative = 0u64;
                    for (index, &count) in counts.iter().enumerate().take(last + 1) {
                        cumulative += count;
                        out.push_str(&format!(
                            "{series}_bucket{{le=\"{}\"}} {cumulative}\n",
                            Histogram::bucket_upper_bound(index)
                        ));
                    }
                    let total: u64 = counts.iter().sum();
                    out.push_str(&format!("{series}_bucket{{le=\"+Inf\"}} {total}\n"));
                    out.push_str(&format!("{series}_sum {}\n", histogram.sum()));
                    out.push_str(&format!("{series}_count {total}\n"));
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------
// Traces
// ---------------------------------------------------------------------

/// One wall-clock phase of a query's life, as an offset from the
/// trace's start — offsets are monotonic by construction because
/// [`TraceBuilder::span`] closes each span before the next opens.
#[derive(Clone, Copy, Debug)]
pub struct TraceSpan {
    /// Phase name (`"canonicalize"`, `"plan"`, `"cache_probe"`,
    /// `"eval"`, `"publish"`, …).
    pub name: &'static str,
    /// Nanoseconds from trace start to span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// One query's recorded life through [`crate::QueryService`].
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Canonical query fingerprint.
    pub fingerprint: u64,
    /// Submission kind: `"monadic"` or `"binary"`.
    pub kind: &'static str,
    /// How it was served: `"hit"`, `"coalesced"`, `"evaluated"`,
    /// `"deadline"`, `"cancelled"`.
    pub outcome: &'static str,
    /// Planner strategy actually run (`"-"` when nothing was
    /// evaluated).
    pub strategy: &'static str,
    /// Time spent waiting for an evaluation slot before evaluation
    /// began (0 for in-process callers).
    pub queue_wait_ns: u64,
    /// Recorded phases, in order, offsets monotonic.
    pub spans: Vec<TraceSpan>,
    /// Per-BFS-level samples from [`pathlearn_graph::observer`]
    /// (empty for hits and coalesced waits).
    pub levels: Vec<LevelSample>,
    /// Whole-trace wall time in nanoseconds.
    pub total_ns: u64,
    /// Popcount of the answer the client saw.
    pub result_bits: u64,
    /// Canonical DFA state count.
    pub canonical_states: u32,
}

impl QueryTrace {
    /// One human-readable block for the `/slow` admin page.
    pub fn render(&self, out: &mut String) {
        out.push_str(&format!(
            "query {:016x} kind={} outcome={} strategy={} |Q|={} bits={} total={}us queue_wait={}us\n",
            self.fingerprint,
            self.kind,
            self.outcome,
            self.strategy,
            self.canonical_states,
            self.result_bits,
            self.total_ns / 1_000,
            self.queue_wait_ns / 1_000,
        ));
        for span in &self.spans {
            out.push_str(&format!(
                "  span {:<12} +{}us {}us\n",
                span.name,
                span.start_ns / 1_000,
                span.dur_ns / 1_000
            ));
        }
        for level in &self.levels {
            out.push_str(&format!(
                "  level {:>3} frontier={} tasks={} covered={} sparse={} {}us\n",
                level.level,
                level.frontier,
                level.tasks,
                level.covered_tasks,
                level.sparse_tasks,
                level.nanos / 1_000
            ));
        }
    }
}

/// Builds a [`QueryTrace`] incrementally around the serving code path.
/// Cheap: one `Instant` plus a small spans vector.
pub struct TraceBuilder {
    started: Instant,
    fingerprint: u64,
    kind: &'static str,
    queue_wait_ns: u64,
    spans: Vec<TraceSpan>,
}

impl TraceBuilder {
    /// Starts the trace clock.
    pub fn new(fingerprint: u64, kind: &'static str, queue_wait_ns: u64) -> Self {
        TraceBuilder {
            started: Instant::now(),
            fingerprint,
            kind,
            queue_wait_ns,
            spans: Vec::with_capacity(4),
        }
    }

    /// Marks a span's start for [`TraceBuilder::span_end`] — the
    /// explicit twin of [`TraceBuilder::span`] for call sites where a
    /// closure cannot borrow the builder (e.g. the builder is threaded
    /// into the measured code itself).
    pub fn span_begin(&self) -> u64 {
        self.started.elapsed().as_nanos() as u64
    }

    /// Closes a span opened with [`TraceBuilder::span_begin`]. The
    /// start offset is clamped to the previous span's end so recorded
    /// offsets stay monotonic and non-overlapping even when spans were
    /// opened out of order.
    pub fn span_end(&mut self, name: &'static str, begin_ns: u64) {
        let now = self.started.elapsed().as_nanos() as u64;
        let floor = self
            .spans
            .last()
            .map(|span| span.start_ns + span.dur_ns)
            .unwrap_or(0);
        let start_ns = begin_ns.max(floor).min(now);
        self.spans.push(TraceSpan {
            name,
            start_ns,
            dur_ns: now.saturating_sub(start_ns),
        });
    }

    /// Runs `f` as a named span; spans nest sequentially, never
    /// overlapping, so offsets come out monotonic.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start_ns = self.started.elapsed().as_nanos() as u64;
        let result = f();
        let end_ns = self.started.elapsed().as_nanos() as u64;
        self.spans.push(TraceSpan {
            name,
            start_ns,
            dur_ns: end_ns.saturating_sub(start_ns),
        });
        result
    }

    /// Seals the trace with its outcome.
    pub fn finish(
        self,
        outcome: &'static str,
        strategy: &'static str,
        levels: Vec<LevelSample>,
        result_bits: u64,
        canonical_states: u32,
    ) -> QueryTrace {
        QueryTrace {
            fingerprint: self.fingerprint,
            kind: self.kind,
            outcome,
            strategy,
            queue_wait_ns: self.queue_wait_ns,
            spans: self.spans,
            levels,
            total_ns: self.started.elapsed().as_nanos() as u64,
            result_bits,
            canonical_states,
        }
    }
}

/// Lock stripes in the recent-trace ring — keyed by fingerprint so
/// concurrent recorders rarely contend on the same stripe.
const TRACE_STRIPES: usize = 8;
/// Recent traces kept per stripe.
const TRACE_RING_CAP: usize = 32;
/// Slow-query log length.
const SLOW_LOG_CAP: usize = 32;

/// Where finished traces go: a lock-striped ring of recent traces plus
/// the threshold-gated slow-query log.
pub struct TraceSink {
    stripes: [Mutex<VecDeque<QueryTrace>>; TRACE_STRIPES],
    slow: Mutex<VecDeque<QueryTrace>>,
    slow_threshold_ns: u64,
}

impl TraceSink {
    /// A sink whose slow-query log captures traces at or above
    /// `slow_threshold` total wall time.
    pub fn new(slow_threshold: Duration) -> Self {
        TraceSink {
            stripes: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            slow: Mutex::new(VecDeque::new()),
            slow_threshold_ns: slow_threshold.as_nanos() as u64,
        }
    }

    /// Records one finished trace.
    pub fn record(&self, trace: QueryTrace) {
        if trace.total_ns >= self.slow_threshold_ns {
            let mut slow = self.slow.lock().unwrap();
            if slow.len() == SLOW_LOG_CAP {
                slow.pop_front();
            }
            slow.push_back(trace.clone());
        }
        let stripe = &self.stripes[trace.fingerprint as usize % TRACE_STRIPES];
        let mut ring = stripe.lock().unwrap();
        if ring.len() == TRACE_RING_CAP {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// Every currently-retained recent trace (all stripes).
    pub fn recent(&self) -> Vec<QueryTrace> {
        self.stripes
            .iter()
            .flat_map(|stripe| stripe.lock().unwrap().iter().cloned().collect::<Vec<_>>())
            .collect()
    }

    /// The slow-query log, oldest first.
    pub fn slow(&self) -> Vec<QueryTrace> {
        self.slow.lock().unwrap().iter().cloned().collect()
    }

    /// The slow-log threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns
    }

    /// The `/slow` admin page body.
    pub fn render_slow(&self) -> String {
        let slow = self.slow();
        let mut out = format!(
            "slow queries: {} captured (threshold {}us)\n",
            slow.len(),
            self.slow_threshold_ns() / 1_000
        );
        for trace in slow.iter().rev() {
            trace.render(&mut out);
        }
        out
    }
}

/// The telemetry bundle one [`crate::QueryService`] owns and every
/// layer above it (front door, admin surface, CLI) shares.
pub struct Telemetry {
    /// The unified metrics registry.
    pub registry: MetricsRegistry,
    /// Recent + slow query traces.
    pub traces: TraceSink,
}

impl Telemetry {
    /// A fresh registry and trace sink.
    pub fn new(slow_threshold: Duration) -> Self {
        Telemetry {
            registry: MetricsRegistry::new(),
            traces: TraceSink::new(slow_threshold),
        }
    }
}

// ---------------------------------------------------------------------
// Admin surface
// ---------------------------------------------------------------------

/// Readiness phase reported by `/healthz`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthPhase {
    /// Starting up (e.g. WAL replay) — not ready.
    Recovering,
    /// Accepting and answering queries.
    Serving,
    /// Draining for rebuild or shutdown — not ready.
    Draining,
}

impl HealthPhase {
    /// Stable lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            HealthPhase::Recovering => "recovering",
            HealthPhase::Serving => "serving",
            HealthPhase::Draining => "draining",
        }
    }
}

/// What `/healthz` reports: the phase plus free-form detail lines
/// (WAL record count, checkpoint threshold, cache occupancy, …).
pub struct HealthReport {
    /// Current readiness phase; `/healthz` answers 200 only for
    /// [`HealthPhase::Serving`].
    pub phase: HealthPhase,
    /// `key value` detail lines appended to the body.
    pub detail: Vec<(String, String)>,
}

type Source<T> = Box<dyn Fn() -> T + Send + Sync>;

/// The three content sources the admin responder serves from. Built by
/// the owner of the service (see `Server::admin_sources` in
/// [`crate::net`]) and installed with [`AdminServer::set_sources`].
pub struct AdminSources {
    /// `/metrics` body (Prometheus text exposition).
    pub metrics: Source<String>,
    /// `/healthz` report.
    pub health: Source<HealthReport>,
    /// `/slow` body (human-readable slow-query log).
    pub slow: Source<String>,
}

/// Cap on an admin request head — the same bounded-read idiom as the
/// frame cap in [`crate::net`].
const ADMIN_MAX_HEAD: usize = 8 * 1024;
/// Admin socket read/write timeouts (slow-loris defense; admin traffic
/// is curl and scrapers, both fast).
const ADMIN_IO_TIMEOUT: Duration = Duration::from_secs(5);

struct AdminInner {
    sources: Mutex<Option<AdminSources>>,
    stop: AtomicBool,
}

/// A minimal HTTP/1.0 text responder for `/metrics`, `/healthz` and
/// `/slow`. Binds immediately (so a deployment's health checks connect
/// during recovery) and answers `503 recovering` until
/// [`AdminServer::set_sources`] installs content.
pub struct AdminServer {
    inner: Arc<AdminInner>,
    local_addr: SocketAddr,
    acceptor: Option<thread::JoinHandle<()>>,
}

impl AdminServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) and starts the accept loop.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<AdminServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(AdminInner {
            sources: Mutex::new(None),
            stop: AtomicBool::new(false),
        });
        let acceptor = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("pathlearn-admin".to_owned())
                .spawn(move || accept_loop(&inner, listener))?
        };
        Ok(AdminServer {
            inner,
            local_addr,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Installs (or replaces) the content sources; until called, every
    /// endpoint answers `503 recovering`.
    pub fn set_sources(&self, sources: AdminSources) {
        *self.inner.sources.lock().unwrap() = Some(sources);
    }

    /// Stops the accept loop. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for AdminServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(inner: &AdminInner, listener: TcpListener) {
    while !inner.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Admin requests are tiny and the responder does no
                // evaluation work, so handling inline on the accept
                // thread keeps the surface to one thread total.
                let _ = handle_admin_connection(inner, stream);
            }
            Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(10));
            }
            Err(_) => thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_admin_connection(inner: &AdminInner, mut stream: TcpStream) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(ADMIN_IO_TIMEOUT))?;
    stream.set_write_timeout(Some(ADMIN_IO_TIMEOUT))?;

    // Read the request head, bounded, until the blank line.
    let mut head = Vec::with_capacity(256);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.windows(2).any(|w| w == b"\n\n") {
            break;
        }
        if head.len() > ADMIN_MAX_HEAD {
            return respond(&mut stream, 431, "request head too large\n");
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut request_line = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (
        request_line.next().unwrap_or(""),
        request_line.next().unwrap_or(""),
    );
    if method != "GET" {
        return respond(&mut stream, 405, "only GET is supported\n");
    }
    // Strip any query string: `/metrics?x=1` still means `/metrics`.
    let path = path.split('?').next().unwrap_or("");

    let sources = inner.sources.lock().unwrap();
    let Some(sources) = sources.as_ref() else {
        return respond(&mut stream, 503, "recovering\n");
    };
    match path {
        "/metrics" => {
            let body = (sources.metrics)();
            respond(&mut stream, 200, &body)
        }
        "/healthz" => {
            let report = (sources.health)();
            let mut body = String::new();
            body.push_str(report.phase.as_str());
            body.push('\n');
            for (key, value) in &report.detail {
                body.push_str(&format!("{key} {value}\n"));
            }
            let status = if report.phase == HealthPhase::Serving {
                200
            } else {
                503
            };
            respond(&mut stream, status, &body)
        }
        "/slow" => {
            let body = (sources.slow)();
            respond(&mut stream, 200, &body)
        }
        _ => respond(
            &mut stream,
            404,
            "unknown path (try /metrics, /healthz, /slow)\n",
        ),
    }
}

fn respond(stream: &mut TcpStream, status: u16, body: &str) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.0 {status} {reason}\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

// ---------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic xorshift64* — the proptest driver (no external
    /// dependencies).
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }
    }

    #[test]
    fn counter_sums_across_shards_and_clones() {
        let counter = Counter::new();
        let clone = counter.clone();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = &counter;
                scope.spawn(move || {
                    for _ in 0..1000 {
                        counter.inc();
                    }
                });
            }
        });
        clone.add(5);
        assert_eq!(counter.get(), 4005);
    }

    #[test]
    fn gauge_set_add_sub_saturates() {
        let gauge = Gauge::new();
        gauge.set(10);
        gauge.add(5);
        gauge.sub(3);
        assert_eq!(gauge.get(), 12);
        gauge.sub(100);
        assert_eq!(gauge.get(), 0, "sub saturates at zero");
    }

    /// Proptest: every value lands in the bucket whose bounds contain
    /// it — `2^(i-1) ≤ v ≤ 2^i - 1` (and 0 in bucket 0).
    #[test]
    fn histogram_bucket_boundaries_contain_their_values() {
        let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
        // Deterministic boundary sweep first: around every power of two.
        let mut values: Vec<u64> = vec![0, 1, 2, 3, u64::MAX];
        for shift in 1..64 {
            let p = 1u64 << shift;
            values.extend([p - 1, p, p + 1]);
        }
        for _ in 0..2000 {
            values.push(rng.next());
        }
        for v in values {
            let index = Histogram::bucket_index(v);
            let upper = Histogram::bucket_upper_bound(index);
            let lower = if index == 0 {
                0
            } else {
                Histogram::bucket_upper_bound(index - 1) + 1
            };
            assert!(
                lower <= v && v <= upper,
                "value {v} outside bucket {index} bounds [{lower}, {upper}]"
            );
        }
    }

    /// Proptest: the bucket-walk quantile brackets the exact
    /// nearest-rank sample — never below it, never above its bucket's
    /// upper bound.
    #[test]
    fn histogram_quantile_brackets_the_exact_nearest_rank() {
        let mut rng = XorShift(0xdead_beef_cafe_f00d);
        for round in 0..50 {
            let histogram = Histogram::new();
            let n = 1 + (rng.next() % 200) as usize;
            let mut samples: Vec<u64> = (0..n).map(|_| rng.next() >> (rng.next() % 40)).collect();
            for &sample in &samples {
                histogram.record(sample);
            }
            samples.sort_unstable();
            for p in [1u32, 25, 50, 90, 99, 100] {
                let rank = ((n as u64) * u64::from(p)).div_ceil(100).clamp(1, n as u64);
                let exact = samples[(rank - 1) as usize];
                let approx = histogram.quantile(p);
                assert!(
                    approx >= exact,
                    "round {round}: q{p} approx {approx} below exact {exact}"
                );
                assert_eq!(
                    Histogram::bucket_upper_bound(Histogram::bucket_index(exact)),
                    approx,
                    "round {round}: q{p} must be the exact sample's bucket bound"
                );
            }
        }
    }

    /// The LatencyRing cold-start fix, folded into the histogram path:
    /// partially-filled histories (n = 1 and n = 1023, one short of the
    /// old window) answer quantiles from recorded samples only.
    #[test]
    fn quantiles_over_partial_histories_ignore_unwritten_history() {
        let histogram = Histogram::new();
        histogram.record(42);
        // n = 1: every percentile is the single sample's bucket.
        let bucket42 = Histogram::bucket_upper_bound(Histogram::bucket_index(42));
        assert_eq!(histogram.quantile(1), bucket42);
        assert_eq!(histogram.quantile(50), bucket42);
        assert_eq!(histogram.quantile(100), bucket42);

        // n = 1023 (one less than the old LatencyRing window): all
        // samples equal, so every quantile is that bucket — zeros from
        // "unwritten slots" must never leak in.
        let histogram = Histogram::new();
        for _ in 0..1023 {
            histogram.record(1_000_000);
        }
        let bucket = Histogram::bucket_upper_bound(Histogram::bucket_index(1_000_000));
        assert_eq!(histogram.quantile(1), bucket);
        assert_eq!(histogram.quantile(50), bucket);
        assert_eq!(histogram.quantile(99), bucket);
        assert_eq!(histogram.count(), 1023);
    }

    #[test]
    fn empty_histogram_answers_zero() {
        let histogram = Histogram::new();
        assert_eq!(histogram.quantile(50), 0);
        assert_eq!(histogram.quantile(99), 0);
        assert_eq!(histogram.count(), 0);
    }

    #[test]
    fn registry_snapshot_is_sorted_and_derives_histogram_keys() {
        let registry = MetricsRegistry::new();
        registry.counter("serve.hits").add(3);
        registry.gauge("net.queue_depth").set(7);
        let latency = registry.histogram("net.latency", "ns");
        latency.record(1500);
        latency.record(900);
        let snapshot = registry.snapshot();
        let keys: Vec<&str> = snapshot.iter().map(|(k, _)| k.as_str()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "snapshot must be sorted by key");
        assert!(keys.contains(&"net.latency_count"));
        assert!(keys.contains(&"net.latency_p50_ns"));
        assert!(keys.contains(&"net.latency_p99_ns"));
        let get = |name: &str| {
            snapshot
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(get("serve.hits"), 3);
        assert_eq!(get("net.queue_depth"), 7);
        assert_eq!(get("net.latency_count"), 2);
    }

    #[test]
    fn registry_registration_is_idempotent_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("serve.hits");
        let b = registry.counter("serve.hits");
        a.inc();
        b.inc();
        assert_eq!(registry.counter("serve.hits").get(), 2);
    }

    /// `/metrics` exposition round-trip: every line is a comment or a
    /// `name[{labels}] value` sample, no sample name+labels repeats,
    /// and every registered metric appears.
    #[test]
    fn prometheus_exposition_parses_line_by_line() {
        let registry = MetricsRegistry::new();
        registry.counter("serve.hits").add(11);
        registry.counter("cache.misses").add(4);
        registry.gauge("net.queue_depth").set(2);
        let latency = registry.histogram("net.latency", "ns");
        for v in [100u64, 2000, 35_000, 0] {
            latency.record(v);
        }
        let text = registry.render_prometheus();
        assert!(!text.is_empty());
        let mut seen = std::collections::HashSet::new();
        for line in text.lines() {
            if line.starts_with('#') {
                assert!(line.starts_with("# TYPE "), "unknown comment: {line}");
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("sample line has a value");
            assert!(!series.is_empty());
            assert!(
                value.parse::<u64>().is_ok(),
                "unparseable sample value in {line:?}"
            );
            assert!(seen.insert(series.to_owned()), "duplicate sample {series}");
            // Sanitized names only.
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "unsanitized metric name {name:?}"
            );
        }
        for expected in ["serve_hits 11", "cache_misses 4", "net_queue_depth 2"] {
            assert!(text.contains(expected), "missing {expected:?} in {text}");
        }
        assert!(text.contains("net_latency_ns_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("net_latency_ns_count 4"));
    }

    #[test]
    fn trace_builder_spans_are_monotonic_and_sink_gates_slow() {
        let mut builder = TraceBuilder::new(0xabcd, "monadic", 17);
        builder.span("canonicalize", || {
            std::thread::sleep(Duration::from_micros(50))
        });
        builder.span("eval", || std::thread::sleep(Duration::from_micros(50)));
        let trace = builder.finish("evaluated", "forward", Vec::new(), 5, 3);
        assert_eq!(trace.spans.len(), 2);
        assert!(trace.spans[0].start_ns <= trace.spans[1].start_ns);
        assert!(
            trace.spans[0].start_ns + trace.spans[0].dur_ns <= trace.spans[1].start_ns,
            "spans must not overlap"
        );
        assert!(trace.total_ns >= trace.spans[1].start_ns + trace.spans[1].dur_ns);

        let sink = TraceSink::new(Duration::from_nanos(0));
        sink.record(trace.clone());
        assert_eq!(sink.recent().len(), 1);
        assert_eq!(sink.slow().len(), 1, "zero threshold captures everything");

        let sink = TraceSink::new(Duration::from_secs(3600));
        sink.record(trace);
        assert_eq!(sink.recent().len(), 1);
        assert!(sink.slow().is_empty(), "high threshold captures nothing");
    }

    #[test]
    fn trace_rings_are_bounded() {
        let sink = TraceSink::new(Duration::from_nanos(0));
        for i in 0..(TRACE_STRIPES * TRACE_RING_CAP * 2) {
            let builder = TraceBuilder::new(i as u64, "monadic", 0);
            sink.record(builder.finish("hit", "-", Vec::new(), 0, 1));
        }
        assert!(sink.recent().len() <= TRACE_STRIPES * TRACE_RING_CAP);
        assert!(sink.slow().len() <= SLOW_LOG_CAP);
    }

    #[test]
    fn admin_server_serves_and_flips_health() {
        fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            write!(stream, "GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
            let mut response = String::new();
            stream.read_to_string(&mut response).unwrap();
            let status: u16 = response
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let body = response
                .split_once("\r\n\r\n")
                .map(|(_, b)| b.to_owned())
                .unwrap_or_default();
            (status, body)
        }

        let mut admin = AdminServer::bind("127.0.0.1:0").unwrap();
        let addr = admin.local_addr();

        // Before sources: everything is 503 recovering.
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 503);
        assert!(body.starts_with("recovering"));

        let draining = Arc::new(AtomicBool::new(false));
        let registry = MetricsRegistry::new();
        registry.counter("serve.hits").add(9);
        let sources = {
            let registry = registry.clone();
            let draining = Arc::clone(&draining);
            AdminSources {
                metrics: Box::new(move || registry.render_prometheus()),
                health: Box::new(move || HealthReport {
                    phase: if draining.load(Ordering::Relaxed) {
                        HealthPhase::Draining
                    } else {
                        HealthPhase::Serving
                    },
                    detail: vec![("wal_records".to_owned(), "0".to_owned())],
                }),
                slow: Box::new(|| "slow queries: 0 captured\n".to_owned()),
            }
        };
        admin.set_sources(sources);

        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 200);
        assert!(body.starts_with("serving"));
        assert!(body.contains("wal_records 0"));

        let (status, body) = http_get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("serve_hits 9"));

        let (status, body) = http_get(addr, "/slow");
        assert_eq!(status, 200);
        assert!(body.starts_with("slow queries"));

        // Health flips with the underlying state.
        draining.store(true, Ordering::Relaxed);
        let (status, body) = http_get(addr, "/healthz");
        assert_eq!(status, 503);
        assert!(body.starts_with("draining"));

        let (status, _) = http_get(addr, "/nope");
        assert_eq!(status, 404);

        admin.shutdown();
    }
}

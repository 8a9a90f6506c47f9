//! # edm-trace — telemetry for the edm workspace
//!
//! Zero-external-dependency instrumentation: hierarchical **spans**
//! (RAII guards with monotonic timing), atomic **counters**,
//! fixed-bucket (power-of-two) **histograms**, and a bounded
//! per-thread **timeline event ring**, aggregated in a global
//! thread-safe registry and exportable as a JSON [`TraceReport`].
//!
//! ## Runtime knob
//!
//! The `EDM_TRACE` environment variable selects the level on first
//! probe hit (or call [`set_level`] / [`init_from_env_or`] explicitly):
//!
//! * `off` (default) — probes are a single relaxed atomic load;
//! * `summary` — counters, span aggregates, histograms;
//! * `full` — additionally the per-thread timeline ring (span
//!   begin/end + counter events) and high-frequency probes
//!   ([`record_full`], e.g. the SMO solver's per-iteration KKT gap
//!   trajectory).
//!
//! ## Timeline ring
//!
//! At `full`, every span begin/end and every counter update appends a
//! timestamped event to the calling thread's ring buffer.
//! Rings are bounded (default [`EVENT_CAP`] events per thread,
//! override with `EDM_TRACE_EVENTS` or [`set_event_capacity`]) and
//! **drop-oldest**: a full ring discards its oldest event and counts
//! it in [`TraceReport::dropped_events`]. Timestamps are nanoseconds
//! since the registry epoch, measured with the monotonic
//! [`std::time::Instant`] clock (no ambient wall-clock entropy).
//! Threads can name their ring via [`name_thread`]; `edm-par` workers
//! do this so exported timelines carry worker identities.
//! [`TraceReport::to_chrome_trace`] renders the timeline in the Chrome
//! Trace Event Format, loadable in Perfetto or `chrome://tracing`.
//!
//! ## Compile-time knob
//!
//! With the `trace` cargo feature disabled (workspace
//! `--no-default-features`), every probe in this crate is an inline
//! empty function and the registry is not compiled at all — callers
//! need no `cfg` of their own.
//!
//! ## Probe taxonomy
//!
//! Names are dot-separated `crate.component.metric` (e.g.
//! `svm.smo.iterations`, `par.worker.busy_ns`), and each name is one
//! series; span paths additionally nest by call structure with `/`
//! (e.g. `fig05/train/svm.smo.solve`).
//!
//! ## Adding a probe
//!
//! ```
//! let _span = edm_trace::span("myflow.stage");   // timed until drop
//! edm_trace::counter_add("myflow.widgets", 3);
//! edm_trace::record("myflow.latency_ns", 1234.0);
//!
//! // Hot paths resolve a handle once and skip the registry lock after.
//! let requests = edm_trace::counter_handle("myflow.requests");
//! requests.add(1);
//! let request = edm_trace::span_handle("myflow.request");
//! let _timed = request.start();
//! ```
//!
//! Probes must never perturb numerics: they may observe values but not
//! change control flow or floating-point results (property-tested at
//! the workspace root: models train bitwise-identically at `full` vs
//! `off`).

#![forbid(unsafe_code)]

use serde::Serialize;

/// Telemetry level, in increasing order of detail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Probes disabled (one relaxed atomic load each).
    Off,
    /// Counters, span aggregates, histograms.
    Summary,
    /// Summary plus the per-thread timeline ring and high-frequency
    /// [`record_full`] probes.
    Full,
}

impl Level {
    /// Canonical lowercase name (the `EDM_TRACE` vocabulary).
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Off => "off",
            Level::Summary => "summary",
            Level::Full => "full",
        }
    }

    /// Parses an `EDM_TRACE` value; `None` for unrecognized input.
    pub fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "none" | "" => Some(Level::Off),
            "summary" | "1" | "on" => Some(Level::Summary),
            "full" | "2" => Some(Level::Full),
            _ => None,
        }
    }
}

/// Aggregate statistics of one span path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanStat {
    /// `/`-joined hierarchical path (nesting by call structure).
    pub path: String,
    /// Completed activations.
    pub count: u64,
    /// Total wall time across activations, nanoseconds.
    pub total_ns: u64,
    /// Shortest activation, nanoseconds.
    pub min_ns: u64,
    /// Longest activation, nanoseconds.
    pub max_ns: u64,
}

/// One named monotonic counter.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterStat {
    /// Probe name (`crate.component.metric`).
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// One fixed-bucket histogram: buckets are powers of two, bucket
/// exponent `e` covering `[2^e, 2^(e+1))`, clamped to `e ∈ [−32, 31]`
/// (non-positive samples land in the lowest bucket).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramStat {
    /// Probe name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Sum of samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Non-empty buckets as `(exponent, count)` pairs, ascending.
    pub buckets: Vec<(i64, u64)>,
}

/// Phase of one timeline event, mirroring the Chrome Trace Event
/// Format `ph` vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize)]
#[allow(missing_docs)] // variant names ARE the Chrome `ph` vocabulary
pub enum EventKind {
    /// A span opened.
    B,
    /// A span closed.
    E,
    /// A counter changed; `value` is the new cumulative total.
    C,
}

/// One timestamped event from a thread's timeline ring
/// ([`Level::Full`] only).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TimelineEvent {
    /// Recording thread's id (registration ordinal; see
    /// [`TraceReport::threads`] for names).
    pub tid: u64,
    /// Event phase.
    pub ph: EventKind,
    /// Span leaf name ([`EventKind::B`]/[`EventKind::E`]) or
    /// counter name ([`EventKind::C`]).
    pub name: String,
    /// Nanoseconds since the registry epoch (monotonic clock).
    pub ts_ns: u64,
    /// Cumulative counter value for [`EventKind::C`]; 0 otherwise.
    pub value: f64,
}

/// Identity of one thread that recorded timeline events.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ThreadInfo {
    /// Thread id as it appears in [`TimelineEvent::tid`].
    pub tid: u64,
    /// Human-readable name (set via [`name_thread`], or `thread-<tid>`).
    pub name: String,
}

/// Default per-thread timeline ring capacity at [`Level::Full`];
/// override with `EDM_TRACE_EVENTS` or [`set_event_capacity`]. A full
/// ring drops its **oldest** event and counts it in
/// [`TraceReport::dropped_events`].
pub const EVENT_CAP: usize = 8192;

/// A point-in-time snapshot of the registry, serializable to JSON.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceReport {
    /// Level at snapshot time (`"off"`, `"summary"`, `"full"`; probes
    /// compiled out report `"off"`).
    pub level: String,
    /// Whether probe machinery was compiled in (the `trace` feature).
    pub compiled: bool,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanStat>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterStat>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramStat>,
    /// Timeline ring contents ([`Level::Full`] only), ordered by
    /// thread id, then append order (timestamps are monotone
    /// non-decreasing within a thread).
    pub timeline: Vec<TimelineEvent>,
    /// Threads contributing timeline events, sorted by id.
    pub threads: Vec<ThreadInfo>,
    /// Timeline events discarded (drop-oldest) after a thread's ring
    /// filled.
    pub dropped_events: u64,
}

impl TraceReport {
    /// A report with no data (the compiled-out and freshly-reset states).
    pub fn empty() -> Self {
        TraceReport {
            level: Level::Off.as_str().to_string(),
            compiled: compiled(),
            spans: Vec::new(),
            counters: Vec::new(),
            histograms: Vec::new(),
            timeline: Vec::new(),
            threads: Vec::new(),
            dropped_events: 0,
        }
    }

    /// Serializes to compact JSON.
    ///
    /// # Errors
    ///
    /// Propagates the (practically unreachable: all floats stored are
    /// finite) serializer error.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// The value of counter `name`, or 0 if it never fired.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|c| c.name == name).map_or(0, |c| c.value)
    }

    /// Sum of `count` over spans whose path's last `/`-segment equals
    /// `leaf` (a span may appear under several parent paths).
    pub fn span_count(&self, leaf: &str) -> u64 {
        self.spans.iter().filter(|s| s.path.rsplit('/').next() == Some(leaf)).map(|s| s.count).sum()
    }

    /// Renders the span aggregates in Brendan Gregg's collapsed-stack
    /// ("folded") format, one `stack;frames self_ns` line per span,
    /// ready for `flamegraph.pl` / `inferno-flamegraph`.
    ///
    /// The sample value of each line is the span's **self** time: its
    /// `total_ns` minus the `total_ns` of its direct children (clamped
    /// at zero, since child totals can slightly exceed the parent's
    /// when activations straddle the snapshot). Spans fully accounted
    /// for by their children produce no line, per the format's
    /// convention. Lines appear in path order, so the output is
    /// deterministic for a given report.
    pub fn to_collapsed_stacks(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let child_total: u64 = self
                .spans
                .iter()
                .filter(|c| {
                    c.path
                        .strip_prefix(&s.path)
                        .and_then(|rest| rest.strip_prefix('/'))
                        .is_some_and(|leaf| !leaf.contains('/'))
                })
                .map(|c| c.total_ns)
                .sum();
            let self_ns = s.total_ns.saturating_sub(child_total);
            if self_ns > 0 {
                out.push_str(&s.path.replace('/', ";"));
                out.push(' ');
                out.push_str(&self_ns.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// Renders the timeline ring in the Chrome Trace Event Format
    /// (JSON object form), loadable in Perfetto / `chrome://tracing`.
    ///
    /// * Each [`ThreadInfo`] becomes a `ph:"M"` `thread_name` metadata
    ///   event, so `edm-par` worker identities label the tracks.
    /// * [`EventKind::B`]/[`EventKind::E`] map to duration events
    ///   `ph:"B"`/`ph:"E"`; [`EventKind::C`] maps to `ph:"C"`
    ///   with the cumulative value in `args.value`.
    /// * Timestamps are microseconds (`ts_ns / 1000`, 3 decimals kept).
    /// * Nesting is sanitized per thread: an `E` whose opening `B` was
    ///   dropped from the ring is skipped, so begin/end pairing is
    ///   always well-formed. Unclosed `B`s (spans still open at
    ///   snapshot time) are legal in the format and kept.
    ///
    /// Names are written as JSON strings by `serde_json`. Output is
    /// deterministic for a given report.
    pub fn to_chrome_trace(&self) -> String {
        fn quote(s: &str) -> String {
            serde_json::to_string(s).expect("a string always serializes")
        }
        let mut events: Vec<String> = Vec::with_capacity(self.threads.len() + self.timeline.len());
        for t in &self.threads {
            events.push(format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                t.tid,
                quote(&t.name)
            ));
        }
        let mut depth: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
        for e in &self.timeline {
            let (ph, args) = match e.ph {
                EventKind::B => {
                    *depth.entry(e.tid).or_insert(0) += 1;
                    ("B", String::new())
                }
                EventKind::E => {
                    let d = depth.entry(e.tid).or_insert(0);
                    if *d == 0 {
                        // The matching B fell off the ring; emitting
                        // this E would corrupt the track's nesting.
                        continue;
                    }
                    *d -= 1;
                    ("E", String::new())
                }
                EventKind::C => ("C", format!(",\"args\":{{\"value\":{}}}", e.value)),
            };
            events.push(format!(
                "{{\"ph\":\"{ph}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"name\":{}{args}}}",
                e.tid,
                e.ts_ns as f64 / 1000.0,
                quote(&e.name)
            ));
        }
        format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}", events.join(","))
    }

    /// Renders the registry snapshot in the OpenMetrics text
    /// exposition format, **without** the `# EOF` terminator — for
    /// callers (like `edm-serve`) that append their own families
    /// before closing the exposition. [`TraceReport::to_openmetrics`]
    /// is the self-terminating form.
    ///
    /// * Counters map directly: probe `svm.smo.iterations` becomes the
    ///   family `edm_svm_smo_iterations` with one `_total` sample.
    /// * Power-of-two histograms map to cumulative `le` buckets: the
    ///   bucket with exponent `e` covers `[2^e, 2^(e+1))`, so its upper
    ///   bound is `le="2^(e+1)"`; `_sum`, `_count`, and the mandatory
    ///   `le="+Inf"` bucket follow.
    /// * Span aggregates become two labeled counter families,
    ///   `edm_span_activations` and `edm_span_time_ns`, with the
    ///   hierarchical path as the `path` label.
    ///
    /// Output is deterministic for a given report (families in the
    /// report's sorted order).
    pub fn openmetrics_body(&self) -> String {
        fn metric_name(probe: &str) -> String {
            let mut name = String::with_capacity(probe.len() + 4);
            name.push_str("edm_");
            for c in probe.chars() {
                name.push(if c.is_ascii_alphanumeric() { c } else { '_' });
            }
            name
        }
        fn label_value(path: &str) -> String {
            path.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        let mut out = String::new();
        for c in &self.counters {
            let name = metric_name(&c.name);
            out.push_str(&format!("# TYPE {name} counter\n{name}_total {}\n", c.value));
        }
        for h in &self.histograms {
            let name = metric_name(&h.name);
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for &(exponent, count) in &h.buckets {
                cumulative += count;
                let le = 2f64.powi(exponent as i32 + 1);
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {count}\n{name}_sum {}\n{name}_count {count}\n",
                h.sum,
                count = h.count
            ));
        }
        if !self.spans.is_empty() {
            out.push_str("# TYPE edm_span_activations counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "edm_span_activations_total{{path=\"{}\"}} {}\n",
                    label_value(&s.path),
                    s.count
                ));
            }
            out.push_str("# TYPE edm_span_time_ns counter\n");
            for s in &self.spans {
                out.push_str(&format!(
                    "edm_span_time_ns_total{{path=\"{}\"}} {}\n",
                    label_value(&s.path),
                    s.total_ns
                ));
            }
        }
        out
    }

    /// Renders the registry snapshot in the OpenMetrics text
    /// exposition format for scrape-based monitoring, ending with the
    /// mandatory `# EOF` terminator. See
    /// [`TraceReport::openmetrics_body`] for the family mapping.
    pub fn to_openmetrics(&self) -> String {
        let mut out = self.openmetrics_body();
        out.push_str("# EOF\n");
        out
    }
}

/// True when the probe machinery is compiled in (`trace` feature).
pub const fn compiled() -> bool {
    cfg!(feature = "trace")
}

// edm-allow-file(unordered-iteration): the registry maps are keyed by
// probe name for O(1) hot-path updates and are only ever iterated by
// snapshot(), which sorts every family by name before reporting.
#[cfg(feature = "trace")]
mod imp {
    use super::*;
    use edm_sync::{DbgMutex, SyncEvent};
    use std::cell::RefCell;
    use std::collections::{HashMap, VecDeque};
    use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex, Once, OnceLock};
    use std::time::Instant;

    const UNINIT: u8 = u8::MAX;
    static LEVEL: AtomicU8 = AtomicU8::new(UNINIT);
    static ENV_WARN: Once = Once::new();

    fn level_from_u8(v: u8) -> Level {
        match v {
            1 => Level::Summary,
            2 => Level::Full,
            _ => Level::Off,
        }
    }

    /// Current level, initializing from `EDM_TRACE` on first use.
    pub fn level() -> Level {
        let v = LEVEL.load(Ordering::Relaxed);
        if v == UNINIT {
            init_level_from_env()
        } else {
            level_from_u8(v)
        }
    }

    #[cold]
    fn init_level_from_env() -> Level {
        let lvl = match std::env::var("EDM_TRACE") {
            Ok(s) => Level::parse(&s).unwrap_or_else(|| {
                ENV_WARN.call_once(|| {
                    eprintln!(
                        "edm-trace: unrecognized EDM_TRACE value {s:?} \
                         (expected off|summary|full); tracing stays off"
                    );
                });
                Level::Off
            }),
            Err(_) => Level::Off,
        };
        LEVEL.store(lvl as u8, Ordering::Relaxed);
        lvl
    }

    /// Sets the level programmatically (overrides `EDM_TRACE`).
    pub fn set_level(lvl: Level) {
        LEVEL.store(lvl as u8, Ordering::Relaxed);
    }

    /// Initializes the level from `EDM_TRACE` when set and parseable,
    /// else to `default`. Harness entry points call this so their run
    /// manifests have data even when the variable is unset.
    pub fn init_from_env_or(default: Level) {
        let lvl = std::env::var("EDM_TRACE").ok().and_then(|s| Level::parse(&s)).unwrap_or(default);
        set_level(lvl);
    }

    /// True when probes record (level ≥ `summary`). The disabled path
    /// is this one relaxed atomic load.
    #[inline]
    pub fn enabled() -> bool {
        level() != Level::Off
    }

    /// True when high-frequency probes record (level = `full`).
    #[inline]
    pub fn full_enabled() -> bool {
        level() == Level::Full
    }

    const CAP_UNINIT: usize = usize::MAX;
    static EVENT_CAPACITY: AtomicUsize = AtomicUsize::new(CAP_UNINIT);

    /// Per-thread timeline ring capacity, initializing from
    /// `EDM_TRACE_EVENTS` on first use ([`EVENT_CAP`] default).
    pub fn event_capacity() -> usize {
        let v = EVENT_CAPACITY.load(Ordering::Relaxed);
        if v != CAP_UNINIT {
            return v;
        }
        init_event_capacity()
    }

    #[cold]
    fn init_event_capacity() -> usize {
        let cap = std::env::var("EDM_TRACE_EVENTS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .unwrap_or(EVENT_CAP)
            .min(CAP_UNINIT - 1);
        EVENT_CAPACITY.store(cap, Ordering::Relaxed);
        cap
    }

    /// Sets the per-thread timeline ring capacity programmatically
    /// (overrides `EDM_TRACE_EVENTS`; 0 drops every event). Applies to
    /// subsequent pushes; existing rings shrink lazily.
    pub fn set_event_capacity(cap: usize) {
        EVENT_CAPACITY.store(cap.min(CAP_UNINIT - 1), Ordering::Relaxed);
    }

    #[derive(Default)]
    struct SpanAgg {
        count: u64,
        total_ns: u64,
        min_ns: u64,
        max_ns: u64,
    }

    struct Hist {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: [u64; 64],
    }

    impl Hist {
        fn new() -> Self {
            Hist {
                count: 0,
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
                buckets: [0; 64],
            }
        }
    }

    /// Bucket index for value `v`: exponent `floor(log2 v)` clamped to
    /// `[−32, 31]`, offset by 32. Non-positive and non-finite-negative
    /// samples land in bucket 0.
    fn bucket_index(v: f64) -> usize {
        if v > 0.0 {
            (v.log2().floor().clamp(-32.0, 31.0) as i64 + 32) as usize
        } else {
            0
        }
    }

    #[derive(Clone, Copy)]
    struct RingEvent {
        ph: EventKind,
        name: &'static str,
        ts_ns: u64,
        value: f64,
    }

    struct RingBuf {
        buf: VecDeque<RingEvent>,
        dropped: u64,
    }

    struct Shard {
        tid: u64,
        label: Mutex<String>,
        ring: Mutex<RingBuf>,
    }

    // Registry cells are `Arc`'d so pre-resolved probe handles
    // ([`counter_handle`] & co.) can update a series with one atomic or
    // one short per-series lock instead of taking the global registry
    // mutex (and re-hashing the name) on every hot-path event.
    struct Registry {
        epoch: Instant,
        spans: DbgMutex<HashMap<String, Arc<Mutex<SpanAgg>>>>,
        counters: DbgMutex<HashMap<&'static str, Arc<AtomicU64>>>,
        hists: DbgMutex<HashMap<&'static str, Arc<Mutex<Hist>>>>,
        shards: DbgMutex<Vec<Arc<Shard>>>,
        next_tid: AtomicU64,
    }

    fn registry() -> &'static Registry {
        static REGISTRY: OnceLock<Registry> = OnceLock::new();
        REGISTRY.get_or_init(|| {
            // The debug sync layer's warnings become trace counters, so
            // held-too-long locks and order inversions show up in run
            // manifests and the `/metrics` exposition (the hook runs
            // under edm-sync's reentrancy latch, so its own registry
            // locks are never re-checked).
            edm_sync::set_report_hook(Box::new(|event| match event {
                SyncEvent::HeldTooLong { .. } => counter_add("sync.lock.held_too_long", 1),
                SyncEvent::OrderInversion { .. } => counter_add("sync.lock.order_warnings", 1),
            }));
            Registry {
                epoch: Instant::now(),
                spans: DbgMutex::new("trace.registry.spans", HashMap::new()),
                counters: DbgMutex::new("trace.registry.counters", HashMap::new()),
                hists: DbgMutex::new("trace.registry.hists", HashMap::new()),
                shards: DbgMutex::new("trace.registry.shards", Vec::new()),
                next_tid: AtomicU64::new(0),
            }
        })
    }

    fn now_ns(reg: &Registry) -> u64 {
        reg.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    thread_local! {
        static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        static SHARD: RefCell<Option<Arc<Shard>>> = const { RefCell::new(None) };
        static PENDING_LABEL: RefCell<Option<String>> = const { RefCell::new(None) };
    }

    /// The calling thread's ring shard, created (and registered
    /// globally, so it outlives the thread) on first use.
    fn shard_for_thread() -> Arc<Shard> {
        SHARD.with(|s| {
            let mut slot = s.borrow_mut();
            if let Some(shard) = slot.as_ref() {
                return shard.clone();
            }
            let reg = registry();
            let tid = reg.next_tid.fetch_add(1, Ordering::Relaxed);
            let label = PENDING_LABEL
                .with(|p| p.borrow_mut().take())
                .unwrap_or_else(|| format!("thread-{tid}"));
            let shard = Arc::new(Shard {
                tid,
                label: Mutex::new(label),
                ring: Mutex::new(RingBuf { buf: VecDeque::new(), dropped: 0 }),
            });
            reg.shards.lock().expect("shard registry poisoned").push(shard.clone());
            *slot = Some(shard.clone());
            shard
        })
    }

    /// Names the calling thread's timeline ring (shown as the track
    /// name in Chrome-trace exports). `edm-par` workers call this at
    /// spawn; harness mains may too. Cheap and safe at any level.
    pub fn name_thread(label: &str) {
        let existing = SHARD.with(|s| s.borrow().clone());
        match existing {
            Some(shard) => {
                *shard.label.lock().expect("shard label poisoned") = label.to_string();
            }
            None => PENDING_LABEL.with(|p| *p.borrow_mut() = Some(label.to_string())),
        }
    }

    fn push_event(ph: EventKind, name: &'static str, ts_ns: u64, value: f64) {
        let cap = event_capacity();
        let shard = shard_for_thread();
        let mut ring = shard.ring.lock().expect("ring poisoned");
        if cap == 0 {
            ring.dropped += 1;
            return;
        }
        while ring.buf.len() + 1 > cap {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(RingEvent { ph, name, ts_ns, value });
    }

    struct ActiveSpan {
        agg: Arc<Mutex<SpanAgg>>,
        name: &'static str,
        depth: usize,
        start: Instant,
    }

    /// RAII span guard: times from creation to drop and records into
    /// the series it resolved when it opened. Obtain via [`span`] or
    /// [`SpanHandle::start`].
    pub struct Span(Option<ActiveSpan>);

    impl Span {
        /// Pushes `name` onto this thread's span stack and starts the
        /// clock; `series` picks the aggregate cell from the stack.
        fn open(
            name: &'static str,
            series: impl FnOnce(&[&'static str]) -> Arc<Mutex<SpanAgg>>,
        ) -> Span {
            let (agg, depth) = SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.push(name);
                (series(&s), s.len())
            });
            if full_enabled() {
                push_event(EventKind::B, name, now_ns(registry()), 0.0);
            }
            Span(Some(ActiveSpan { agg, name, depth, start: Instant::now() }))
        }
    }

    impl Drop for Span {
        fn drop(&mut self) {
            let Some(active) = self.0.take() else { return };
            let dur_ns = active.start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            SPAN_STACK.with(|s| {
                let mut s = s.borrow_mut();
                s.truncate(active.depth.saturating_sub(1));
            });
            let mut agg = active.agg.lock().expect("span series poisoned");
            if agg.count == 0 {
                agg.min_ns = dur_ns;
                agg.max_ns = dur_ns;
            } else {
                agg.min_ns = agg.min_ns.min(dur_ns);
                agg.max_ns = agg.max_ns.max(dur_ns);
            }
            agg.count += 1;
            agg.total_ns += dur_ns;
            drop(agg);
            if full_enabled() {
                push_event(EventKind::E, active.name, now_ns(registry()), 0.0);
            }
        }
    }

    fn span_cell(path: String) -> Arc<Mutex<SpanAgg>> {
        let mut spans = registry().spans.lock().expect("span registry poisoned");
        Arc::clone(spans.entry(path).or_default())
    }

    /// Opens a span named `name`, nested under any span already open on
    /// this thread. Off-level cost: one relaxed atomic load.
    pub fn span(name: &'static str) -> Span {
        if !enabled() {
            return Span(None);
        }
        Span::open(name, |stack| span_cell(stack.join("/")))
    }

    /// Pre-resolved span series for a *top-level* hot-path span (the
    /// recorded path is `name` alone, with no parent prefix — resolve
    /// handles only for spans opened at the top of a thread's stack,
    /// e.g. a server worker's per-request span). Children opened inside
    /// a running handle span still nest under `name` normally.
    #[derive(Clone)]
    pub struct SpanHandle {
        name: &'static str,
        agg: Arc<Mutex<SpanAgg>>,
    }

    impl SpanHandle {
        /// Opens the span; timing stops when the guard drops.
        pub fn start(&self) -> Span {
            if !enabled() {
                return Span(None);
            }
            Span::open(self.name, |_| Arc::clone(&self.agg))
        }
    }

    /// Resolves a [`SpanHandle`] for top-level span `name`.
    pub fn span_handle(name: &'static str) -> SpanHandle {
        SpanHandle { name, agg: span_cell(name.to_string()) }
    }

    /// Pre-resolved counter series: [`CounterHandle::add`] is one
    /// relaxed atomic add — no registry lock. For hot paths
    /// (per-request serving loops); resolve once, reuse.
    /// [`counter_add`] goes through a handle too.
    ///
    /// The handle stays wired to [`collect`] reports for its lifetime.
    /// [`reset`] zeroes the series in place when a handle is live.
    #[derive(Clone)]
    pub struct CounterHandle {
        name: &'static str,
        cell: Arc<AtomicU64>,
    }

    impl CounterHandle {
        /// Adds `delta` when tracing is enabled (one atomic add). At
        /// [`Level::Full`] also appends a timeline event carrying the
        /// new cumulative value.
        #[inline]
        pub fn add(&self, delta: u64) {
            if !enabled() {
                return;
            }
            let cumulative = self.cell.fetch_add(delta, Ordering::Relaxed) + delta;
            if full_enabled() {
                push_event(EventKind::C, self.name, now_ns(registry()), cumulative as f64);
            }
        }
    }

    /// Resolves a [`CounterHandle`] for `name` (one registry lock,
    /// here, once).
    pub fn counter_handle(name: &'static str) -> CounterHandle {
        let mut counters = registry().counters.lock().expect("counter registry poisoned");
        CounterHandle { name, cell: Arc::clone(counters.entry(name).or_default()) }
    }

    /// Adds `delta` to counter `name`. Off-level cost: one relaxed
    /// atomic load. At [`Level::Full`] also appends a timeline event
    /// carrying the new cumulative value.
    pub fn counter_add(name: &'static str, delta: u64) {
        if enabled() {
            counter_handle(name).add(delta);
        }
    }

    /// Pre-resolved histogram series: [`HistHandle::record`] takes one
    /// short per-series lock — no registry lock. [`record`] and
    /// [`record_full`] go through a handle too.
    #[derive(Clone)]
    pub struct HistHandle(Arc<Mutex<Hist>>);

    impl HistHandle {
        /// Records `value` when tracing is enabled.
        #[inline]
        pub fn record(&self, value: f64) {
            if !enabled() || !value.is_finite() {
                return;
            }
            let mut h = self.0.lock().expect("histogram series poisoned");
            h.count += 1;
            h.sum += value;
            h.min = h.min.min(value);
            h.max = h.max.max(value);
            h.buckets[bucket_index(value)] += 1;
        }
    }

    /// Resolves a [`HistHandle`] for `name` (one registry lock, here,
    /// once).
    pub fn hist_handle(name: &'static str) -> HistHandle {
        let mut hists = registry().hists.lock().expect("histogram registry poisoned");
        HistHandle(Arc::clone(
            hists.entry(name).or_insert_with(|| Arc::new(Mutex::new(Hist::new()))),
        ))
    }

    /// Records `value` into histogram `name`. Off-level cost: one
    /// relaxed atomic load.
    pub fn record(name: &'static str, value: f64) {
        if enabled() {
            hist_handle(name).record(value);
        }
    }

    /// Records `value` into histogram `name` only at [`Level::Full`] —
    /// for high-frequency probes (per-iteration trajectories) too hot
    /// for `summary` runs.
    pub fn record_full(name: &'static str, value: f64) {
        if full_enabled() {
            hist_handle(name).record(value);
        }
    }

    /// Clears all spans, counters, histograms, and timeline rings (the
    /// level, ring capacity, and thread names are untouched). Harnesses
    /// call this between measured sections.
    pub fn reset() {
        let reg = registry();
        // Series with live probe handles are zeroed in place (dropping
        // them would silently detach the handle from future reports);
        // everything else is removed.
        reg.spans.lock().expect("span registry poisoned").retain(|_, cell| {
            if Arc::strong_count(cell) > 1 {
                *cell.lock().expect("span series poisoned") = SpanAgg::default();
                true
            } else {
                false
            }
        });
        reg.counters.lock().expect("counter registry poisoned").retain(|_, cell| {
            if Arc::strong_count(cell) > 1 {
                cell.store(0, Ordering::Relaxed);
                true
            } else {
                false
            }
        });
        reg.hists.lock().expect("histogram registry poisoned").retain(|_, cell| {
            if Arc::strong_count(cell) > 1 {
                *cell.lock().expect("histogram series poisoned") = Hist::new();
                true
            } else {
                false
            }
        });
        let shards = reg.shards.lock().expect("shard registry poisoned");
        for shard in shards.iter() {
            let mut ring = shard.ring.lock().expect("ring poisoned");
            ring.buf.clear();
            ring.dropped = 0;
        }
    }

    /// Snapshots the registry into a sorted, serializable report. When
    /// any timeline events were dropped, a synthetic
    /// `trace.ring.dropped` counter carries the total.
    pub fn collect() -> TraceReport {
        let reg = registry();
        // Span/histogram series that have never recorded an event are
        // skipped: resolving a handle merely *wires* a series, it
        // should not make an all-zero row appear in reports. (Counters
        // keep zero rows — a zero cumulative counter is meaningful.)
        let mut spans: Vec<SpanStat> = reg
            .spans
            .lock()
            .expect("span registry poisoned")
            .iter()
            .map(|(path, cell)| {
                let a = cell.lock().expect("span series poisoned");
                SpanStat {
                    path: path.clone(),
                    count: a.count,
                    total_ns: a.total_ns,
                    min_ns: a.min_ns,
                    max_ns: a.max_ns,
                }
            })
            .filter(|s| s.count > 0)
            .collect();
        spans.sort_by(|a, b| a.path.cmp(&b.path));
        let mut counters: Vec<CounterStat> = reg
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(name, cell)| CounterStat {
                name: name.to_string(),
                value: cell.load(Ordering::Relaxed),
            })
            .collect();
        let mut histograms: Vec<HistogramStat> = reg
            .hists
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(name, cell)| {
                let h = cell.lock().expect("histogram series poisoned");
                HistogramStat {
                    name: name.to_string(),
                    count: h.count,
                    sum: h.sum,
                    min: if h.count == 0 { 0.0 } else { h.min },
                    max: if h.count == 0 { 0.0 } else { h.max },
                    buckets: h
                        .buckets
                        .iter()
                        .enumerate()
                        .filter(|(_, &c)| c > 0)
                        .map(|(i, &c)| (i as i64 - 32, c))
                        .collect(),
                }
            })
            .filter(|h| h.count > 0)
            .collect();
        histograms.sort_by(|a, b| a.name.cmp(&b.name));
        let (timeline, threads, dropped_events) = {
            let mut shards: Vec<Arc<Shard>> =
                reg.shards.lock().expect("shard registry poisoned").clone();
            shards.sort_by_key(|s| s.tid);
            let mut timeline = Vec::new();
            let mut threads = Vec::new();
            let mut dropped = 0u64;
            for shard in &shards {
                let ring = shard.ring.lock().expect("ring poisoned");
                dropped += ring.dropped;
                if ring.buf.is_empty() && ring.dropped == 0 {
                    continue;
                }
                threads.push(ThreadInfo {
                    tid: shard.tid,
                    name: shard.label.lock().expect("shard label poisoned").clone(),
                });
                timeline.extend(ring.buf.iter().map(|e| TimelineEvent {
                    tid: shard.tid,
                    ph: e.ph,
                    name: e.name.to_string(),
                    ts_ns: e.ts_ns,
                    value: e.value,
                }));
            }
            (timeline, threads, dropped)
        };
        if dropped_events > 0 {
            counters.push(CounterStat {
                name: "trace.ring.dropped".to_string(),
                value: dropped_events,
            });
        }
        counters.sort_by(|a, b| a.name.cmp(&b.name));
        TraceReport {
            level: level().as_str().to_string(),
            compiled: true,
            spans,
            counters,
            histograms,
            timeline,
            threads,
            dropped_events,
        }
    }
}

#[cfg(not(feature = "trace"))]
mod imp {
    use super::{Level, TraceReport, EVENT_CAP};

    /// Compiled-out span guard: a zero-sized no-op.
    pub struct Span(());

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn span(_name: &'static str) -> Span {
        Span(())
    }

    /// Always [`Level::Off`] (probes compiled out).
    #[inline(always)]
    pub fn level() -> Level {
        Level::Off
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn set_level(_lvl: Level) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn init_from_env_or(_default: Level) {}

    /// Always false (probes compiled out).
    #[inline(always)]
    pub fn enabled() -> bool {
        false
    }

    /// Always false (probes compiled out).
    #[inline(always)]
    pub fn full_enabled() -> bool {
        false
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn counter_add(_name: &'static str, _delta: u64) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn record(_name: &'static str, _value: f64) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn record_full(_name: &'static str, _value: f64) {}

    /// Compiled-out counter handle: a zero-sized no-op.
    #[derive(Clone)]
    pub struct CounterHandle(());

    impl CounterHandle {
        /// No-op (probes compiled out).
        #[inline(always)]
        pub fn add(&self, _delta: u64) {}
    }

    /// No-op handle (probes compiled out).
    #[inline(always)]
    pub fn counter_handle(_name: &'static str) -> CounterHandle {
        CounterHandle(())
    }

    /// Compiled-out histogram handle: a zero-sized no-op.
    #[derive(Clone)]
    pub struct HistHandle(());

    impl HistHandle {
        /// No-op (probes compiled out).
        #[inline(always)]
        pub fn record(&self, _value: f64) {}
    }

    /// No-op handle (probes compiled out).
    #[inline(always)]
    pub fn hist_handle(_name: &'static str) -> HistHandle {
        HistHandle(())
    }

    /// Compiled-out span handle: a zero-sized no-op.
    #[derive(Clone)]
    pub struct SpanHandle(());

    impl SpanHandle {
        /// No-op (probes compiled out).
        #[inline(always)]
        pub fn start(&self) -> Span {
            Span(())
        }
    }

    /// No-op handle (probes compiled out).
    #[inline(always)]
    pub fn span_handle(_name: &'static str) -> SpanHandle {
        SpanHandle(())
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn name_thread(_label: &str) {}

    /// Always [`EVENT_CAP`] (probes compiled out).
    #[inline(always)]
    pub fn event_capacity() -> usize {
        EVENT_CAP
    }

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn set_event_capacity(_cap: usize) {}

    /// No-op (probes compiled out).
    #[inline(always)]
    pub fn reset() {}

    /// Always [`TraceReport::empty`] (probes compiled out).
    #[inline(always)]
    pub fn collect() -> TraceReport {
        TraceReport::empty()
    }
}

pub use imp::{
    collect, counter_add, counter_handle, enabled, event_capacity, full_enabled, hist_handle,
    init_from_env_or, level, name_thread, record, record_full, reset, set_event_capacity,
    set_level, span, span_handle, CounterHandle, HistHandle, Span, SpanHandle,
};

#[cfg(test)]
mod collapse_tests {
    use super::*;

    fn stat(path: &str, total_ns: u64) -> SpanStat {
        SpanStat { path: path.to_string(), count: 1, total_ns, min_ns: total_ns, max_ns: total_ns }
    }

    /// Folded output: `/` becomes `;`, values are self time (total
    /// minus direct children), zero-self and over-accounted spans are
    /// omitted, order follows the report's path order.
    #[test]
    fn collapsed_stacks_formatting() {
        let mut r = TraceReport::empty();
        r.spans = vec![
            stat("other", 10),
            stat("solve", 100),
            stat("solve/select", 30),
            stat("solve/select/row", 30), // fully accounts for its parent
            stat("solve/update", 20),
        ];
        assert_eq!(
            r.to_collapsed_stacks(),
            "other 10\nsolve 50\nsolve;select;row 30\nsolve;update 20\n"
        );

        // Child totals exceeding the parent's clamp to zero rather than
        // wrapping.
        r.spans = vec![stat("a", 5), stat("a/b", 9)];
        assert_eq!(r.to_collapsed_stacks(), "a;b 9\n");

        assert_eq!(TraceReport::empty().to_collapsed_stacks(), "");
    }
}

#[cfg(test)]
mod chrome_trace_tests {
    use super::*;

    fn ev(tid: u64, ph: EventKind, name: &str, ts_ns: u64, value: f64) -> TimelineEvent {
        TimelineEvent { tid, ph, name: name.to_string(), ts_ns, value }
    }

    /// Threads become `M` metadata rows; B/E/C events carry µs
    /// timestamps; names are JSON-escaped.
    #[test]
    fn chrome_trace_formatting() {
        let mut r = TraceReport::empty();
        r.threads = vec![ThreadInfo { tid: 0, name: "main".to_string() }];
        r.timeline = vec![
            ev(0, EventKind::B, "solve", 1500, 0.0),
            ev(0, EventKind::C, "iters", 2000, 42.0),
            ev(0, EventKind::E, "solve", 2500, 0.0),
        ];
        assert_eq!(
            r.to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\
             \"args\":{\"name\":\"main\"}},\
             {\"ph\":\"B\",\"pid\":1,\"tid\":0,\"ts\":1.500,\"name\":\"solve\"},\
             {\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":2.000,\"name\":\"iters\",\
             \"args\":{\"value\":42}},\
             {\"ph\":\"E\",\"pid\":1,\"tid\":0,\"ts\":2.500,\"name\":\"solve\"}]}"
        );
    }

    /// An `E` whose opening `B` fell off the ring is skipped so the
    /// exported track nests cleanly; unclosed `B`s are kept.
    #[test]
    fn chrome_trace_sanitizes_dangling_ends() {
        let mut r = TraceReport::empty();
        r.timeline = vec![
            ev(3, EventKind::E, "lost", 100, 0.0), // opener dropped
            ev(3, EventKind::B, "kept", 200, 0.0),
            ev(3, EventKind::E, "kept", 300, 0.0),
            ev(3, EventKind::B, "open", 400, 0.0), // still open
        ];
        let out = r.to_chrome_trace();
        assert!(!out.contains("lost"), "dangling E must be skipped: {out}");
        assert!(out.contains("\"ph\":\"B\",\"pid\":1,\"tid\":3,\"ts\":0.200"));
        assert!(out.contains("\"ph\":\"E\",\"pid\":1,\"tid\":3,\"ts\":0.300"));
        assert!(out.contains("\"ts\":0.400,\"name\":\"open\""));
    }

    /// Empty reports export an empty-but-valid trace.
    #[test]
    fn chrome_trace_empty() {
        assert_eq!(
            TraceReport::empty().to_chrome_trace(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
    }

    /// Special characters in names survive as valid JSON escapes.
    #[test]
    fn chrome_trace_escapes_names() {
        let mut r = TraceReport::empty();
        r.threads = vec![ThreadInfo { tid: 0, name: "a\"b\\c\nd".to_string() }];
        assert!(r.to_chrome_trace().contains("{\"name\":\"a\\\"b\\\\c\\nd\"}"));
    }
}

#[cfg(test)]
mod openmetrics_tests {
    use super::*;

    /// Counters map directly; probe dots become metric-name
    /// underscores; the counter sample carries the `_total` suffix.
    #[test]
    fn counters_map_directly() {
        let mut r = TraceReport::empty();
        r.counters = vec![
            CounterStat { name: "svm.smo.iterations".to_string(), value: 42 },
            CounterStat { name: "svm.qcache.hits".to_string(), value: 7 },
        ];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_svm_smo_iterations counter\n\
             edm_svm_smo_iterations_total 42\n\
             # TYPE edm_svm_qcache_hits counter\n\
             edm_svm_qcache_hits_total 7\n\
             # EOF\n"
        );
    }

    /// Power-of-two buckets become cumulative `le` buckets at the
    /// bucket's upper bound `2^(e+1)`, closed by `+Inf`, `_sum`,
    /// `_count`.
    #[test]
    fn histogram_buckets_are_cumulative_le() {
        let mut r = TraceReport::empty();
        r.histograms = vec![HistogramStat {
            name: "t.hist".to_string(),
            count: 4,
            sum: 1035.0,
            min: 0.25,
            max: 1024.0,
            // [2^-3, 2^-2): 1 sample; [2^1, 2^2): 2; [2^10, 2^11): 1
            buckets: vec![(-3, 1), (1, 2), (10, 1)],
        }];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_t_hist histogram\n\
             edm_t_hist_bucket{le=\"0.25\"} 1\n\
             edm_t_hist_bucket{le=\"4\"} 3\n\
             edm_t_hist_bucket{le=\"2048\"} 4\n\
             edm_t_hist_bucket{le=\"+Inf\"} 4\n\
             edm_t_hist_sum 1035\n\
             edm_t_hist_count 4\n\
             # EOF\n"
        );
    }

    /// Spans become two labeled counter families; quotes and
    /// backslashes in paths are escaped per the exposition format.
    #[test]
    fn spans_become_labeled_counters() {
        let mut r = TraceReport::empty();
        r.spans = vec![
            SpanStat { path: "solve".to_string(), count: 2, total_ns: 90, min_ns: 40, max_ns: 50 },
            SpanStat {
                path: "solve/q\"r\\w".to_string(),
                count: 1,
                total_ns: 30,
                min_ns: 30,
                max_ns: 30,
            },
        ];
        assert_eq!(
            r.to_openmetrics(),
            "# TYPE edm_span_activations counter\n\
             edm_span_activations_total{path=\"solve\"} 2\n\
             edm_span_activations_total{path=\"solve/q\\\"r\\\\w\"} 1\n\
             # TYPE edm_span_time_ns counter\n\
             edm_span_time_ns_total{path=\"solve\"} 90\n\
             edm_span_time_ns_total{path=\"solve/q\\\"r\\\\w\"} 30\n\
             # EOF\n"
        );
    }

    /// The body form omits `# EOF` so callers can append their own
    /// families; the terminating form is body + `# EOF`.
    #[test]
    fn body_composes_with_eof() {
        let mut r = TraceReport::empty();
        r.counters = vec![CounterStat { name: "a.b".to_string(), value: 1 }];
        let body = r.openmetrics_body();
        assert!(!body.contains("# EOF"));
        assert_eq!(r.to_openmetrics(), format!("{body}# EOF\n"));
    }

    /// An empty report is just the terminator.
    #[test]
    fn empty_report_is_only_eof() {
        assert_eq!(TraceReport::empty().to_openmetrics(), "# EOF\n");
    }
}

#[cfg(all(test, feature = "trace"))]
mod tests {
    use super::*;

    /// One sequential lifecycle test: the registry and level are global,
    /// so interleaved tests would race each other's counts.
    #[test]
    fn lifecycle_spans_counters_histograms_report() {
        set_level(Level::Off);
        reset();

        // Off: nothing records.
        {
            let _s = span("off.span");
            counter_add("off.counter", 5);
            record("off.hist", 1.0);
        }
        let r = collect();
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.histograms.is_empty());
        assert!(r.compiled);
        assert_eq!(r.level, "off");

        // Summary: aggregates but no timeline events.
        set_level(Level::Summary);
        {
            let _outer = span("outer");
            {
                let _inner = span("inner");
                counter_add("t.count", 2);
                counter_add("t.count", 3);
                record("t.hist", 3.5); // exponent 1
                record("t.hist", 1024.0); // exponent 10
                record_full("t.hot", 1.0); // full-only: must not record
            }
            {
                let _inner2 = span("inner");
            }
        }
        let r = collect();
        assert_eq!(r.counter("t.count"), 5);
        assert_eq!(r.span_count("inner"), 2);
        let outer = r.spans.iter().find(|s| s.path == "outer").expect("outer span");
        assert_eq!(outer.count, 1);
        let nested = r.spans.iter().find(|s| s.path == "outer/inner").expect("nested path");
        assert_eq!(nested.count, 2);
        assert!(nested.min_ns <= nested.max_ns && nested.total_ns >= nested.max_ns);
        let h = r.histograms.iter().find(|h| h.name == "t.hist").expect("histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 1027.5);
        assert_eq!(h.min, 3.5);
        assert_eq!(h.max, 1024.0);
        assert_eq!(h.buckets, vec![(1, 1), (10, 1)]);
        assert!(r.histograms.iter().all(|h| h.name != "t.hot"), "record_full off at summary");
        assert!(r.timeline.is_empty(), "no timeline events at summary level");

        // Pre-resolved handles: same series as the by-name calls, and
        // an unused handle never surfaces an all-zero span/histogram.
        let hc = counter_handle("t.count");
        hc.add(10);
        let hh = hist_handle("t.hist");
        hh.record(3.5);
        let hs = span_handle("h.span");
        {
            let _top = hs.start();
            let _child = span("child");
        }
        let idle_hist = hist_handle("h.idle");
        let idle_span = span_handle("h.idle.span");
        let r = collect();
        assert_eq!(r.counter("t.count"), 15, "handle adds join the by-name series");
        assert_eq!(r.histograms.iter().find(|h| h.name == "t.hist").map(|h| h.count), Some(3));
        assert_eq!(r.span_count("h.span"), 1);
        let child = r.spans.iter().find(|s| s.path == "h.span/child");
        assert_eq!(child.map(|s| s.count), Some(1), "a span inside a handle span nests under it");
        assert!(r.histograms.iter().all(|h| h.name != "h.idle"), "idle hist handle hidden");
        assert!(r.spans.iter().all(|s| s.path != "h.idle.span"), "idle span handle hidden");
        // Reset keeps handle-held series wired (zeroed, not detached),
        // and so does an open span: it records once into the new window.
        let straddling = span("straddle");
        reset();
        hc.add(2);
        hh.record(1.0);
        drop(straddling);
        let r = collect();
        assert_eq!(r.counter("t.count"), 2, "post-reset handle still reports");
        assert_eq!(r.histograms.iter().find(|h| h.name == "t.hist").map(|h| h.count), Some(1));
        let straddle: Vec<_> = r.spans.iter().filter(|s| s.path == "straddle").collect();
        assert_eq!(straddle.len(), 1, "a span open across reset appears once: {:?}", r.spans);
        assert_eq!(straddle[0].count, 1);
        assert_eq!(r.spans.len(), 1, "unreferenced span series dropped by reset");
        // Dropped handles release their series for the next reset.
        drop((hc, hh, hs, idle_hist, idle_span));

        // Full: timeline events appear; record_full records.
        set_level(Level::Full);
        {
            let _s = span("full.span");
            counter_add("full.count", 7);
            counter_handle("t.handle").add(3);
            record_full("t.hot", 2.0);
        }
        let r = collect();
        let begins: Vec<_> =
            r.timeline.iter().filter(|e| e.ph == EventKind::B && e.name == "full.span").collect();
        assert_eq!(begins.len(), 1, "one B event for full.span");
        assert!(
            r.timeline.iter().any(|e| e.ph == EventKind::E && e.name == "full.span"),
            "E event for full.span"
        );
        let c_ev = r
            .timeline
            .iter()
            .find(|e| e.ph == EventKind::C && e.name == "full.count")
            .expect("counter timeline event");
        assert_eq!(c_ev.value, 7.0, "C event carries cumulative value");
        let handle_ev = r.timeline.iter().find(|e| e.ph == EventKind::C && e.name == "t.handle");
        assert_eq!(
            handle_ev.map(|e| e.value),
            Some(3.0),
            "no C event for a handle add in {:?}",
            r.timeline
        );
        assert!(!r.threads.is_empty(), "recording thread listed");
        assert_eq!(r.histograms.iter().find(|h| h.name == "t.hot").map(|h| h.count), Some(1));

        // Serializes to JSON that names the level.
        let json = r.to_json().expect("serializable");
        assert!(json.contains(r#""level":"full""#), "level missing from {json}");

        // Reset clears data but not the level.
        reset();
        let r = collect();
        assert!(r.spans.is_empty() && r.counters.is_empty() && r.timeline.is_empty());
        assert_eq!(r.dropped_events, 0);
        assert_eq!(r.level, "full");
        set_level(Level::Off);
        reset();
    }

    #[test]
    fn level_parse_vocabulary() {
        assert_eq!(Level::parse("off"), Some(Level::Off));
        assert_eq!(Level::parse("  SUMMARY "), Some(Level::Summary));
        assert_eq!(Level::parse("full"), Some(Level::Full));
        assert_eq!(Level::parse("1"), Some(Level::Summary));
        assert_eq!(Level::parse(""), Some(Level::Off));
        assert_eq!(Level::parse("verbose"), None);
    }

    #[test]
    fn empty_report_serializes() {
        let r = TraceReport::empty();
        let json = r.to_json().expect("serializable");
        let want = r#"{"level":"off","compiled":true,"spans":[],"counters":[],"histograms":[],"timeline":[],"threads":[],"dropped_events":0}"#;
        assert_eq!(json, want);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.span_count("absent"), 0);
    }
}

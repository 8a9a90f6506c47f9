//! Request-scoped serving metrics, independent of the `edm-trace`
//! level so `/metrics` can always answer "which model is slow right
//! now".
//!
//! [`ServeMetrics`] keeps one series per `endpoint × model` pair:
//! per-status request counts, a **lifetime** latency histogram, and a
//! **rolling window** of the last [`WINDOW_SECS`] seconds (per-second
//! slots, so the window advances without rescanning history).
//! Latencies go into decilog histograms — bucket `i` covers
//! `[10^(i/10), 10^((i+1)/10))` nanoseconds, i.e. ~26% wide buckets —
//! which bounds quantile estimation error to one bucket edge while
//! keeping each series a fixed 128-slot array.
//!
//! Rendering ([`ServeMetrics::render_openmetrics`]) emits OpenMetrics
//! families **without** the `# EOF` terminator; the server composes
//! them after the `edm-trace` registry body and closes the exposition
//! itself. Timekeeping uses the monotonic [`Instant`] clock anchored at
//! construction (no wall-clock entropy).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use edm_par::sync::DbgMutex;

/// Width of the rolling latency window, in seconds.
pub const WINDOW_SECS: u64 = 60;

/// Decilog bucket count: bucket 127 starts at `10^12.7` ns ≈ 83 min,
/// far beyond any request this server answers.
const BUCKETS: usize = 128;

/// Bucket index for a latency: `floor(10·log10(ns))`, clamped.
fn bucket_index(ns: u64) -> usize {
    if ns <= 1 {
        return 0;
    }
    ((ns as f64).log10() * 10.0).floor().clamp(0.0, (BUCKETS - 1) as f64) as usize
}

/// Upper edge of bucket `i`, in nanoseconds.
fn bucket_edge_ns(i: usize) -> f64 {
    10f64.powf((i + 1) as f64 / 10.0)
}

/// Fixed-size decilog latency histogram.
#[derive(Clone)]
struct LogHist {
    count: u64,
    sum_ns: u64,
    buckets: [u64; BUCKETS],
}

impl LogHist {
    fn new() -> Self {
        LogHist { count: 0, sum_ns: 0, buckets: [0; BUCKETS] }
    }

    fn record(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns += ns;
        self.buckets[bucket_index(ns)] += 1;
    }

    fn clear(&mut self) {
        self.count = 0;
        self.sum_ns = 0;
        self.buckets = [0; BUCKETS];
    }

    fn merge(&mut self, other: &LogHist) {
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
    }

    /// Quantile estimate (bucket upper edge), `None` when empty. The
    /// estimate is at most one decilog bucket (~26%) above the true
    /// order statistic.
    fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(bucket_edge_ns(i));
            }
        }
        Some(bucket_edge_ns(BUCKETS - 1))
    }
}

/// One second of window data: the elapsed-second it was written for,
/// and that second's latencies.
#[derive(Clone)]
struct Slot {
    sec: u64,
    hist: LogHist,
}

/// All data for one `endpoint × model` pair.
struct Series {
    statuses: BTreeMap<u16, u64>,
    lifetime: LogHist,
    slots: Vec<Slot>,
}

impl Series {
    fn new() -> Self {
        Series {
            statuses: BTreeMap::new(),
            lifetime: LogHist::new(),
            slots: (0..WINDOW_SECS).map(|_| Slot { sec: 0, hist: LogHist::new() }).collect(),
        }
    }

    fn record(&mut self, status: u16, ns: u64, now_sec: u64) {
        *self.statuses.entry(status).or_insert(0) += 1;
        self.lifetime.record(ns);
        let slot = &mut self.slots[(now_sec % WINDOW_SECS) as usize];
        if slot.sec != now_sec {
            slot.hist.clear();
            slot.sec = now_sec;
        }
        slot.hist.record(ns);
    }

    /// Aggregate of the slots written within the last [`WINDOW_SECS`]
    /// seconds ending at `now_sec`.
    fn window(&self, now_sec: u64) -> LogHist {
        let mut agg = LogHist::new();
        for slot in &self.slots {
            if slot.hist.count > 0 && now_sec.saturating_sub(slot.sec) < WINDOW_SECS {
                agg.merge(&slot.hist);
            }
        }
        agg
    }
}

/// Lifetime micro-batch scheduler counters, as exposed to tests and
/// the `/metrics` exposition.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchSnapshot {
    /// Total flushed `predict_batch` calls through the scheduler
    /// (inline, drain, size, and bypass flushes alike).
    pub flushes: u64,
    /// Total rows scored across all flushes.
    pub batched_rows: u64,
    /// Flushes that coalesced ≥ 2 requests into one call.
    pub coalesced_batches: u64,
    /// Requests that rode a coalesced flush.
    pub coalesced_requests: u64,
    /// Largest single flush, in rows.
    pub max_batch_rows: u64,
    /// Flush counts keyed by reason (`inline`, `drain`, `size`,
    /// `bypass`).
    pub flush_reasons: BTreeMap<String, u64>,
}

/// A point-in-time latency summary for one `endpoint × model` series,
/// as exposed to tests and harnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySnapshot {
    /// Requests in the summarized range.
    pub count: u64,
    /// Estimated median latency, nanoseconds (0 when empty).
    pub p50_ns: f64,
    /// Estimated 99th-percentile latency, nanoseconds (0 when empty).
    pub p99_ns: f64,
}

/// Request-scoped metrics registry for one server instance: request-id
/// allocation plus per-`endpoint × model` status counts and latency
/// series (lifetime + rolling window). See the [module docs](self).
pub struct ServeMetrics {
    start: Instant,
    next_id: AtomicU64,
    /// `endpoint -> model -> series`, nested so the per-request
    /// `observe` hit path can look both levels up by `&str` without
    /// building an owned key.
    series: DbgMutex<BTreeMap<String, BTreeMap<String, Series>>>,
    batch: DbgMutex<BatchSnapshot>,
    tier_rejects: DbgMutex<BTreeMap<(String, String), u64>>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// An empty registry; the window clock starts now.
    pub fn new() -> Self {
        ServeMetrics {
            start: Instant::now(),
            next_id: AtomicU64::new(1),
            series: DbgMutex::new("serve.metrics.series", BTreeMap::new()),
            batch: DbgMutex::new("serve.metrics.batch", BatchSnapshot::default()),
            tier_rejects: DbgMutex::new("serve.metrics.tiers", BTreeMap::new()),
        }
    }

    /// Allocates the next request id (1, 2, 3, ...).
    pub fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Seconds elapsed since construction (the window clock).
    fn now_sec(&self) -> u64 {
        self.start.elapsed().as_secs()
    }

    /// Records one finished request. Allocation-free once the
    /// `endpoint × model` series exists.
    pub fn observe(&self, endpoint: &str, model: &str, status: u16, latency_ns: u64) {
        let now_sec = self.now_sec();
        let mut series = self.series.lock().expect("metrics registry poisoned");
        let hit = series
            .get_mut(endpoint)
            .and_then(|models| models.get_mut(model))
            .map(|s| s.record(status, latency_ns, now_sec));
        if hit.is_none() {
            series
                .entry(endpoint.to_string())
                .or_default()
                .entry(model.to_string())
                .or_insert_with(Series::new)
                .record(status, latency_ns, now_sec);
        }
    }

    /// Lifetime latency summary for one series, `None` when the pair
    /// never recorded.
    pub fn lifetime_snapshot(&self, endpoint: &str, model: &str) -> Option<LatencySnapshot> {
        let series = self.series.lock().expect("metrics registry poisoned");
        let s = series.get(endpoint).and_then(|models| models.get(model))?;
        Some(snapshot_of(&s.lifetime))
    }

    /// Records one flushed `predict_batch` call from the micro-batch
    /// scheduler: its flush `reason`, how many coalesced `requests` it
    /// carried, and the total `rows` scored.
    pub fn batch_flush(&self, reason: &str, requests: usize, rows: usize) {
        let mut b = self.batch.lock().expect("batch stats poisoned");
        b.flushes += 1;
        b.batched_rows += rows as u64;
        if requests >= 2 {
            b.coalesced_batches += 1;
            b.coalesced_requests += requests as u64;
        }
        b.max_batch_rows = b.max_batch_rows.max(rows as u64);
        // The reason vocabulary is tiny and closed; only the first
        // flush per reason pays the owned-key allocation.
        match b.flush_reasons.get_mut(reason) {
            Some(n) => *n += 1,
            None => {
                b.flush_reasons.insert(reason.to_string(), 1);
            }
        }
    }

    /// Lifetime micro-batch counters.
    pub fn batch_snapshot(&self) -> BatchSnapshot {
        self.batch.lock().expect("batch stats poisoned").clone()
    }

    /// Records one request rejected by a per-model admission tier.
    pub fn tier_reject(&self, model: &str, tier: &str) {
        let mut rejects = self.tier_rejects.lock().expect("tier stats poisoned");
        *rejects.entry((model.to_string(), tier.to_string())).or_insert(0) += 1;
    }

    /// Lifetime tier-rejection counts keyed by `(model, tier)`.
    pub fn tier_reject_snapshot(&self) -> BTreeMap<(String, String), u64> {
        self.tier_rejects.lock().expect("tier stats poisoned").clone()
    }

    /// Rolling-window latency summary for one series, `None` when the
    /// pair never recorded (an empty window returns `count: 0`).
    pub fn window_snapshot(&self, endpoint: &str, model: &str) -> Option<LatencySnapshot> {
        let now_sec = self.now_sec();
        let series = self.series.lock().expect("metrics registry poisoned");
        let s = series.get(endpoint).and_then(|models| models.get(model))?;
        Some(snapshot_of(&s.window(now_sec)))
    }

    /// Renders every series as OpenMetrics families, without the
    /// `# EOF` terminator (the caller composes and closes the
    /// exposition):
    ///
    /// * `edm_serve_requests_total{endpoint,model,status}` — counter;
    /// * `edm_serve_request_latency_ns{endpoint,model}` — lifetime
    ///   histogram with cumulative decilog `le` buckets;
    /// * `edm_serve_latency_quantile_ms{endpoint,model,window,quantile}`
    ///   — gauge, `window` ∈ {`lifetime`, `60s`}, `quantile` ∈ {`0.5`,
    ///   `0.99`};
    /// * `edm_serve_window_requests{endpoint,model}` — gauge, requests
    ///   inside the rolling window;
    /// * `edm_serve_batches_total{reason}` — counter, micro-batch
    ///   flushes by flush reason;
    /// * `edm_serve_batch_rows_total` / `edm_serve_coalesced_batches_total`
    ///   / `edm_serve_coalesced_requests_total` — counters, scheduler
    ///   volume; `edm_serve_batch_rows_max` — gauge, largest flush;
    /// * `edm_serve_tier_rejected_total{model,tier}` — counter,
    ///   requests refused by per-model admission tiers.
    ///
    /// Empty when nothing was ever recorded. Deterministic for a given
    /// state (series in key order).
    pub fn render_openmetrics(&self) -> String {
        fn esc(v: &str) -> String {
            v.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
        }
        /// Flattens the nested `endpoint -> model` map back to
        /// `(endpoint, model, series)` rows in key order.
        fn flat(
            series: &BTreeMap<String, BTreeMap<String, Series>>,
        ) -> impl Iterator<Item = (&str, &str, &Series)> {
            series.iter().flat_map(|(endpoint, models)| {
                models.iter().map(move |(model, s)| (endpoint.as_str(), model.as_str(), s))
            })
        }
        let now_sec = self.now_sec();
        let series = self.series.lock().expect("metrics registry poisoned");
        let batch = self.batch.lock().expect("batch stats poisoned").clone();
        let tier_rejects = self.tier_rejects.lock().expect("tier stats poisoned").clone();
        if series.is_empty() && batch.flushes == 0 && tier_rejects.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        out.push_str("# TYPE edm_serve_requests counter\n");
        for (endpoint, model, s) in flat(&series) {
            for (&status, &n) in &s.statuses {
                out.push_str(&format!(
                    "edm_serve_requests_total{{endpoint=\"{}\",model=\"{}\",status=\"{status}\"}} {n}\n",
                    esc(endpoint),
                    esc(model)
                ));
            }
        }
        out.push_str("# TYPE edm_serve_request_latency_ns histogram\n");
        for (endpoint, model, s) in flat(&series) {
            let labels = format!("endpoint=\"{}\",model=\"{}\"", esc(endpoint), esc(model));
            let mut cumulative = 0u64;
            for (i, &c) in s.lifetime.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                out.push_str(&format!(
                    "edm_serve_request_latency_ns_bucket{{{labels},le=\"{:.1}\"}} {cumulative}\n",
                    bucket_edge_ns(i)
                ));
            }
            out.push_str(&format!(
                "edm_serve_request_latency_ns_bucket{{{labels},le=\"+Inf\"}} {}\n\
                 edm_serve_request_latency_ns_sum{{{labels}}} {}\n\
                 edm_serve_request_latency_ns_count{{{labels}}} {}\n",
                s.lifetime.count, s.lifetime.sum_ns, s.lifetime.count
            ));
        }
        out.push_str("# TYPE edm_serve_latency_quantile_ms gauge\n");
        for (endpoint, model, s) in flat(&series) {
            let labels = format!("endpoint=\"{}\",model=\"{}\"", esc(endpoint), esc(model));
            let window = s.window(now_sec);
            for (window_label, hist) in [("lifetime", &s.lifetime), ("60s", &window)] {
                for (q_label, q) in [("0.5", 0.5), ("0.99", 0.99)] {
                    let Some(ns) = hist.quantile_ns(q) else { continue };
                    out.push_str(&format!(
                        "edm_serve_latency_quantile_ms{{{labels},window=\"{window_label}\",\
                         quantile=\"{q_label}\"}} {:.6}\n",
                        ns / 1e6
                    ));
                }
            }
        }
        out.push_str("# TYPE edm_serve_window_requests gauge\n");
        for (endpoint, model, s) in flat(&series) {
            out.push_str(&format!(
                "edm_serve_window_requests{{endpoint=\"{}\",model=\"{}\"}} {}\n",
                esc(endpoint),
                esc(model),
                s.window(now_sec).count
            ));
        }
        if batch.flushes > 0 {
            out.push_str("# TYPE edm_serve_batches counter\n");
            for (reason, n) in &batch.flush_reasons {
                out.push_str(&format!(
                    "edm_serve_batches_total{{reason=\"{}\"}} {n}\n",
                    esc(reason)
                ));
            }
            out.push_str(&format!(
                "# TYPE edm_serve_batch_rows counter\n\
                 edm_serve_batch_rows_total {}\n\
                 # TYPE edm_serve_coalesced_batches counter\n\
                 edm_serve_coalesced_batches_total {}\n\
                 # TYPE edm_serve_coalesced_requests counter\n\
                 edm_serve_coalesced_requests_total {}\n\
                 # TYPE edm_serve_batch_rows_max gauge\n\
                 edm_serve_batch_rows_max {}\n",
                batch.batched_rows,
                batch.coalesced_batches,
                batch.coalesced_requests,
                batch.max_batch_rows
            ));
        }
        if !tier_rejects.is_empty() {
            out.push_str("# TYPE edm_serve_tier_rejected counter\n");
            for ((model, tier), n) in &tier_rejects {
                out.push_str(&format!(
                    "edm_serve_tier_rejected_total{{model=\"{}\",tier=\"{}\"}} {n}\n",
                    esc(model),
                    esc(tier)
                ));
            }
        }
        out
    }
}

fn snapshot_of(hist: &LogHist) -> LatencySnapshot {
    LatencySnapshot {
        count: hist.count,
        p50_ns: hist.quantile_ns(0.5).unwrap_or(0.0),
        p99_ns: hist.quantile_ns(0.99).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decilog_buckets_bracket_their_samples() {
        // 1000 ns: log10 = 3.0 exactly -> bucket 30, edge 10^3.1.
        assert_eq!(bucket_index(1000), 30);
        assert!(bucket_edge_ns(30) > 1000.0 && bucket_edge_ns(30) < 1300.0);
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_one_bucket_of_truth() {
        let mut h = LogHist::new();
        for ns in [100u64, 200, 300, 400, 1_000_000] {
            h.record(ns);
        }
        let p50 = h.quantile_ns(0.5).expect("non-empty");
        // True median 300; the estimate is its bucket's upper edge.
        assert!((300.0..=300.0 * 1.26).contains(&p50), "p50 = {p50}");
        let p99 = h.quantile_ns(0.99).expect("non-empty");
        assert!((1e6..=1e6 * 1.26).contains(&p99), "p99 = {p99}");
        assert_eq!(LogHist::new().quantile_ns(0.5), None);
    }

    #[test]
    fn observe_feeds_lifetime_and_window() {
        let m = ServeMetrics::new();
        assert_eq!(m.next_request_id(), 1);
        assert_eq!(m.next_request_id(), 2);
        m.observe("predict", "svc", 200, 1_000_000);
        m.observe("predict", "svc", 200, 2_000_000);
        m.observe("predict", "svc", 400, 500_000);
        let life = m.lifetime_snapshot("predict", "svc").expect("series exists");
        assert_eq!(life.count, 3);
        assert!(life.p50_ns >= 1e6 && life.p50_ns <= 1.26e6, "p50 = {}", life.p50_ns);
        // The window was written this second, so it holds everything.
        let win = m.window_snapshot("predict", "svc").expect("series exists");
        assert_eq!(win.count, 3);
        assert!(m.lifetime_snapshot("predict", "other").is_none());
    }

    #[test]
    fn window_slots_expire_older_seconds() {
        let mut s = Series::new();
        s.record(200, 1000, 10);
        s.record(200, 1000, 30);
        // At second 30 both are inside the 60 s window...
        assert_eq!(s.window(30).count, 2);
        // ...at second 80 only the second-30 slot remains...
        assert_eq!(s.window(80).count, 1);
        // ...and at second 100 the window is empty, lifetime is not.
        assert_eq!(s.window(100).count, 0);
        assert_eq!(s.lifetime.count, 2);
        // A slot is reused (cleared) when its second comes around again.
        s.record(200, 1000, 10 + WINDOW_SECS);
        assert_eq!(s.window(10 + WINDOW_SECS).count, 2, "slot 10 cleared and rewritten");
    }

    #[test]
    fn openmetrics_rendering_has_all_families() {
        let m = ServeMetrics::new();
        assert_eq!(m.render_openmetrics(), "", "no families before any request");
        m.observe("predict", "svc", 200, 1_500_000);
        m.observe("predict", "svc", 503, 2_000);
        m.observe("healthz", "-", 200, 900);
        let text = m.render_openmetrics();
        assert!(!text.contains("# EOF"), "body must not terminate the exposition");
        assert!(text.contains(
            "edm_serve_requests_total{endpoint=\"predict\",model=\"svc\",status=\"200\"} 1"
        ));
        assert!(text.contains(
            "edm_serve_requests_total{endpoint=\"predict\",model=\"svc\",status=\"503\"} 1"
        ));
        assert!(text
            .contains("edm_serve_request_latency_ns_count{endpoint=\"predict\",model=\"svc\"} 2"));
        assert!(text.contains("window=\"lifetime\",quantile=\"0.5\""));
        assert!(text.contains("window=\"60s\",quantile=\"0.99\""));
        assert!(text.contains("edm_serve_window_requests{endpoint=\"healthz\",model=\"-\"} 1"));
        // Cumulative le buckets end at +Inf with the full count.
        assert!(text.contains(
            "edm_serve_request_latency_ns_bucket{endpoint=\"healthz\",model=\"-\",le=\"+Inf\"} 1"
        ));
        // No batch flushed and no tier rejected -> those families stay out.
        assert!(!text.contains("edm_serve_batches_total"));
        assert!(!text.contains("edm_serve_tier_rejected_total"));
    }

    #[test]
    fn batch_and_tier_families_render_once_recorded() {
        let m = ServeMetrics::new();
        m.batch_flush("inline", 1, 16);
        m.batch_flush("drain", 3, 48);
        m.batch_flush("drain", 2, 8);
        m.tier_reject("svc", "bulk");
        m.tier_reject("svc", "bulk");
        let snap = m.batch_snapshot();
        assert_eq!(snap.flushes, 3);
        assert_eq!(snap.batched_rows, 72);
        assert_eq!(snap.coalesced_batches, 2);
        assert_eq!(snap.coalesced_requests, 5);
        assert_eq!(snap.max_batch_rows, 48);
        assert_eq!(snap.flush_reasons.get("drain"), Some(&2));
        assert_eq!(m.tier_reject_snapshot().get(&("svc".into(), "bulk".into())), Some(&2));
        let text = m.render_openmetrics();
        assert!(text.contains("edm_serve_batches_total{reason=\"inline\"} 1"));
        assert!(text.contains("edm_serve_batches_total{reason=\"drain\"} 2"));
        assert!(text.contains("edm_serve_batch_rows_total 72"));
        assert!(text.contains("edm_serve_coalesced_batches_total 2"));
        assert!(text.contains("edm_serve_coalesced_requests_total 5"));
        assert!(text.contains("edm_serve_batch_rows_max 48"));
        assert!(text.contains("edm_serve_tier_rejected_total{model=\"svc\",tier=\"bulk\"} 2"));
    }
}

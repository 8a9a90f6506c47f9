//! Micro-batch scheduler: coalesces concurrent predict requests for
//! the same model into one `predict_batch` call.
//!
//! # Why
//!
//! A scoring service under a high-rate stream of small requests pays
//! the per-call overhead of `predict_batch` (dispatch, cache warm-up)
//! once per request, and the kernels underneath (tiled Gram, batched
//! Q fills) never see batches large enough to win. Coalescing
//! concurrent requests converts that per-request overhead into the
//! large batches the compute layer is optimized for — without changing a single scored value, because
//! every `Predictor` scores rows independently (batched output row `i`
//! is bitwise identical to scoring row `i` alone; pinned by the
//! `batch_props` proptests).
//!
//! # How
//!
//! Per model the scheduler keeps a tiny state machine: an `active`
//! flag (someone is scoring right now) and a queue of waiting
//! requests.
//!
//! * **Inline fast path.** A request that finds the model idle scores
//!   immediately on its own thread — an idle server adds *zero*
//!   latency (`reason = "inline"`).
//! * **Coalescing.** Requests arriving while a score is in flight
//!   enqueue and park. When the in-flight call finishes, the whole
//!   queue is handed to one waiter (the promoted *leader*), which
//!   scores every queued request in one `predict_batch` call and
//!   distributes the per-request slices back to the parked waiters in
//!   order (`reason = "drain"`). The natural coalescing window
//!   is therefore one in-flight execution — bounded by the model's own
//!   batch latency, not by a timer — so added latency stays at most
//!   one execution even under adversarial arrival patterns.
//! * **Caps.** Batches are chunked at request boundaries to
//!   [`BatchConfig::max_rows`] rows per call (`reason = "size"` for
//!   every chunk but the last); a single oversized request bypasses
//!   the queue entirely (`reason = "bypass"`).
//!
//! Flush counts by reason and row volume are recorded once, in the
//! always-on [`ServeMetrics`] batch families rendered on `/metrics`;
//! `edm-trace` keeps only the distributions, the `serve.batch.size`
//! and `serve.batch.wait_ns` histograms.
//!
//! # Failure containment
//!
//! Shapes are validated *before* submission (the server rejects
//! mismatched rows with 400 up front), so one malformed request can
//! never poison a shared batch. If `predict_batch` still fails or
//! panics mid-flush, every request in that flush gets the error while
//! the model's state machine is released by RAII guards — a panicking
//! predictor cannot wedge the queue or strand a parked waiter.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use edm_par::sync::{DbgCondvar, DbgMutex, DbgMutexGuard};

use crate::metrics::ServeMetrics;
use crate::registry::ServedModel;

/// Tunables for the [`BatchScheduler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Most rows per flushed `predict_batch` call; batches are chunked
    /// at request boundaries to stay under this. Requests carrying
    /// `max_rows` or more rows bypass the queue.
    pub max_rows: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_rows: 512 }
    }
}

/// Scoring outcome for one submitted request.
type ScoreResult = Result<Vec<f64>, String>;

/// What one parked request is waiting on.
enum SlotState {
    /// Still queued; the leader has not picked this request up yet.
    Waiting,
    /// This waiter was promoted to leader: it must score the contained
    /// batch (its own request included) and distribute the results.
    Lead(Vec<Pending>),
    /// Scored; the result is ready to take.
    Done(ScoreResult),
    /// Result already taken (terminal; seen only by debug assertions).
    Taken,
}

/// One parked request's rendezvous point.
struct Slot {
    state: DbgMutex<SlotState>,
    ready: DbgCondvar,
}

impl Slot {
    fn new() -> Arc<Slot> {
        Arc::new(Slot {
            state: DbgMutex::new("serve.batch.slot", SlotState::Waiting),
            ready: DbgCondvar::new(),
        })
    }

    fn fill(&self, result: ScoreResult) {
        let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *st = SlotState::Done(result);
        self.ready.notify_one();
    }
}

/// A queued request: its rows and where to deliver the result.
struct Pending {
    rows: Vec<Vec<f64>>,
    enqueued: Instant,
    slot: Arc<Slot>,
}

/// Per-model coalescing state.
struct QState {
    /// True while some thread is scoring this model (inline or as a
    /// leader). Requests arriving meanwhile enqueue instead of racing.
    active: bool,
    queue: Vec<Pending>,
}

struct ModelQueue {
    state: DbgMutex<QState>,
}

impl ModelQueue {
    fn new() -> Arc<ModelQueue> {
        Arc::new(ModelQueue {
            state: DbgMutex::new("serve.batch.queue", QState { active: false, queue: Vec::new() }),
        })
    }

    fn lock(&self) -> DbgMutexGuard<'_, QState> {
        self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Releases a model's `active` flag when scoring finishes — promoting
/// a new leader if requests queued up meanwhile. Runs on drop so a
/// panicking predictor cannot wedge the model.
struct ActiveGuard<'a> {
    mq: &'a ModelQueue,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        let mut st = self.mq.lock();
        if st.queue.is_empty() {
            st.active = false;
            return;
        }
        // Promote: hand the whole queue to the first waiter; `active`
        // stays true until that leader's own guard runs.
        let batch = std::mem::take(&mut st.queue);
        let lead = Arc::clone(&batch[0].slot);
        drop(st);
        let mut slot = lead.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        *slot = SlotState::Lead(batch);
        lead.ready.notify_one();
    }
}

/// Fails every not-yet-delivered request in a flush if the scoring
/// call panics, so parked waiters always wake.
struct FlushGuard<'a> {
    undelivered: &'a [Pending],
    armed: bool,
}

impl Drop for FlushGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        for p in self.undelivered {
            p.slot.fill(Err("batched scoring panicked".to_string()));
        }
    }
}

/// Flush-size and queue-wait distributions, resolved once at scheduler
/// construction so the per-flush cost never touches the global trace
/// registry. Flush counts by reason live in [`ServeMetrics`].
struct BatchProbes {
    size: edm_trace::HistHandle,
    wait_ns: edm_trace::HistHandle,
}

impl BatchProbes {
    fn resolve() -> BatchProbes {
        BatchProbes {
            size: edm_trace::hist_handle("serve.batch.size", &[]),
            wait_ns: edm_trace::hist_handle("serve.batch.wait_ns", &[]),
        }
    }
}

/// The per-server micro-batch scheduler. See the [module docs](self).
///
/// Queues are keyed per **(model name, registry generation)**: after a
/// hot reload, requests routed against the new generation coalesce in
/// a fresh queue while any in-flight leader finishes draining the old
/// one — a batch can therefore never mix rows scored by two different
/// generations of a model.
pub struct BatchScheduler {
    config: BatchConfig,
    queues: DbgMutex<BTreeMap<String, (u64, Arc<ModelQueue>)>>,
    probes: BatchProbes,
}

impl BatchScheduler {
    /// A scheduler with the given tunables.
    pub fn new(config: BatchConfig) -> Self {
        BatchScheduler {
            config,
            queues: DbgMutex::new("serve.batch.queues", BTreeMap::new()),
            probes: BatchProbes::resolve(),
        }
    }

    /// Scores `rows` against `model`, coalescing with any concurrent
    /// submissions for the same `name` *and* `generation`. Blocks
    /// until this request's results are ready. Row `i` of the return
    /// value is bitwise identical to what `model.predict_batch(&rows)`
    /// would have produced for row `i`.
    ///
    /// `generation` is the registry generation `model` came from;
    /// requests from different generations never share a batch.
    ///
    /// # Errors
    ///
    /// The stringified predictor error; every request in a failing
    /// flush observes the same error. Callers should validate shapes
    /// against [`edm::Predictor::n_features`] *before* submitting so a
    /// shape error cannot fail innocent co-batched requests.
    pub fn submit(
        &self,
        name: &str,
        generation: u64,
        model: &ServedModel,
        rows: Vec<Vec<f64>>,
        metrics: &ServeMetrics,
    ) -> ScoreResult {
        if rows.len() >= self.config.max_rows {
            return self.score_chunk(model, &[], &rows, "bypass", Instant::now(), metrics);
        }
        let mq = self.model_queue(name, generation);
        let enqueued = Instant::now();
        {
            let mut st = mq.lock();
            if st.active {
                // Someone is scoring this model: park and coalesce.
                let slot = Slot::new();
                st.queue.push(Pending { rows, enqueued, slot: Arc::clone(&slot) });
                drop(st);
                return self.wait_or_lead(&mq, &slot, model, metrics);
            }
            st.active = true;
        }
        // Inline fast path: the model was idle, score immediately.
        let _release = ActiveGuard { mq: &mq };
        self.score_chunk(model, &[], &rows, "inline", enqueued, metrics)
    }

    /// Parks on `slot` until a result arrives — or until this waiter
    /// is promoted to leader, in which case it scores the batch it was
    /// handed and returns its own slice.
    fn wait_or_lead(
        &self,
        mq: &ModelQueue,
        slot: &Arc<Slot>,
        model: &ServedModel,
        metrics: &ServeMetrics,
    ) -> ScoreResult {
        let mut st = slot.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            match std::mem::replace(&mut *st, SlotState::Taken) {
                SlotState::Done(result) => return result,
                SlotState::Lead(batch) => {
                    drop(st);
                    return self.lead(mq, slot, batch, model, metrics);
                }
                waiting @ SlotState::Waiting => {
                    *st = waiting;
                    st = slot.ready.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                SlotState::Taken => unreachable!("slot consumed twice"),
            }
        }
    }

    /// Leader duty: flush the batch in `max_rows`-bounded chunks,
    /// delivering every request's slice. Returns this leader's own
    /// result. The leader's [`ActiveGuard`] promotes the next leader
    /// (or goes idle) on exit — including on panic.
    fn lead(
        &self,
        mq: &ModelQueue,
        own: &Arc<Slot>,
        batch: Vec<Pending>,
        model: &ServedModel,
        metrics: &ServeMetrics,
    ) -> ScoreResult {
        let _release = ActiveGuard { mq };
        let mut own_result: ScoreResult = Err("leader lost its own result".to_string());
        let mut start = 0;
        while start < batch.len() {
            // Chunk at request boundaries: extend while under the cap
            // (always take at least one request).
            let mut end = start + 1;
            let mut chunk_rows = batch[start].rows.len();
            while end < batch.len() && chunk_rows + batch[end].rows.len() <= self.config.max_rows {
                chunk_rows += batch[end].rows.len();
                end += 1;
            }
            let chunk = &batch[start..end];
            let chunk_reason = if end < batch.len() { "size" } else { "drain" };
            let all_rows: Vec<Vec<f64>> =
                chunk.iter().flat_map(|p| p.rows.iter().cloned()).collect();
            let oldest = chunk.iter().map(|p| p.enqueued).min().unwrap_or_else(Instant::now);
            let _ = self.score_chunk(model, chunk, &all_rows, chunk_reason, oldest, metrics);
            // `score_chunk` delivered every request's slice, our own
            // included (the leader's pending is somewhere in `batch`);
            // fish our slice back out of our slot when its chunk runs.
            if chunk.iter().any(|p| Arc::ptr_eq(&p.slot, own)) {
                let mut st = own.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if let SlotState::Done(r) = std::mem::replace(&mut *st, SlotState::Taken) {
                    own_result = r;
                }
            }
            start = end;
        }
        own_result
    }

    /// Scores one flushed chunk (`followers` may be empty for the
    /// inline/bypass paths, where `rows` belong to the calling request
    /// alone), records the flush telemetry, and delivers every
    /// follower's slice. Returns the full chunk result.
    fn score_chunk(
        &self,
        model: &ServedModel,
        followers: &[Pending],
        rows: &[Vec<f64>],
        reason: &'static str,
        oldest: Instant,
        metrics: &ServeMetrics,
    ) -> ScoreResult {
        let mut guard = FlushGuard { undelivered: followers, armed: true };
        let wait_ns = oldest.elapsed().as_nanos() as u64;
        let n_requests = followers.len().max(1);
        self.probes.size.record(rows.len() as f64);
        self.probes.wait_ns.record(wait_ns as f64);
        metrics.batch_flush(reason, n_requests, rows.len());
        let result = model.predict_batch(rows).map_err(|e| e.to_string());
        guard.armed = false;
        match &result {
            Ok(preds) => {
                let mut offset = 0;
                for p in followers {
                    let take = p.rows.len();
                    p.slot.fill(Ok(preds[offset..offset + take].to_vec()));
                    offset += take;
                }
            }
            Err(e) => {
                for p in followers {
                    p.slot.fill(Err(e.clone()));
                }
            }
        }
        result
    }

    /// Requests currently parked for `name` (any generation), waiting
    /// to be coalesced. Point-in-time observability for tests and
    /// harnesses.
    pub fn queued(&self, name: &str) -> usize {
        let queues = self.queues.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        queues.get(name).map_or(0, |(_, mq)| mq.lock().queue.len())
    }

    /// The (lazily created) queue for `name` at `generation`. A stale
    /// entry from an older generation is replaced with a fresh queue:
    /// its in-flight leader keeps draining the waiters it already owns
    /// (they hold their own `Arc`), while new arrivals coalesce under
    /// the new generation. The hit path is allocation-free (no owned
    /// key is built for the lookup).
    fn model_queue(&self, name: &str, generation: u64) -> Arc<ModelQueue> {
        let mut queues = self.queues.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match queues.get_mut(name) {
            Some((gen, mq)) if *gen == generation => Arc::clone(mq),
            Some(slot) => {
                *slot = (generation, ModelQueue::new());
                Arc::clone(&slot.1)
            }
            None => {
                let (_, mq) = queues
                    .entry(name.to_string())
                    .or_insert_with(|| (generation, ModelQueue::new()));
                Arc::clone(mq)
            }
        }
    }
}

impl std::fmt::Debug for BatchScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchScheduler").field("config", &self.config).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm::prelude::*;

    fn plane() -> ServedModel {
        let x = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0, 2.0, 3.0];
        Arc::new(Ridge::fit(&x, &y, 1e-6).expect("plane fits"))
    }

    #[test]
    fn inline_path_matches_direct_scoring_bitwise() {
        let model = plane();
        let sched = BatchScheduler::new(BatchConfig::default());
        let metrics = ServeMetrics::new();
        let rows = vec![vec![0.25, 0.5], vec![0.75, -0.25]];
        let direct = model.predict_batch(&rows).expect("direct");
        let batched =
            sched.submit("plane", 1, &model, rows, &metrics).expect("inline submit succeeds");
        assert_eq!(batched.len(), direct.len());
        for (b, d) in batched.iter().zip(&direct) {
            assert_eq!(b.to_bits(), d.to_bits());
        }
        let snap = metrics.batch_snapshot();
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.batched_rows, 2);
        assert_eq!(snap.coalesced_batches, 0, "a lone request is not a coalesced batch");
    }

    #[test]
    fn oversized_requests_bypass_the_queue() {
        let model = plane();
        let sched = BatchScheduler::new(BatchConfig { max_rows: 2 });
        let metrics = ServeMetrics::new();
        let rows = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.5, 0.5]];
        let out = sched.submit("plane", 1, &model, rows, &metrics).expect("bypass path");
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn shape_errors_surface_as_strings() {
        let model = plane();
        let sched = BatchScheduler::new(BatchConfig::default());
        let metrics = ServeMetrics::new();
        let err = sched
            .submit("plane", 1, &model, vec![vec![1.0, 2.0, 3.0]], &metrics)
            .expect_err("shape mismatch");
        assert!(err.contains("expects"), "got {err}");
    }
}

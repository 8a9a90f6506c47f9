//! The threaded HTTP server: accept loop, keep-alive connection
//! handling, routing, backpressure, and graceful shutdown.
//!
//! # Threading model
//!
//! All threads live in [`edm_par::pool::WorkerPool`]s — the workspace
//! bans `thread::spawn` outside `edm-par`. A single-worker pool runs
//! the accept loop; a second pool of [`ServerConfig::workers`] threads
//! handles connections, behind a bounded queue of
//! [`ServerConfig::queue_capacity`] slots.
//!
//! # Keep-alive
//!
//! Connections are persistent (HTTP/1.1 default): one worker runs a
//! per-connection request loop until the client sends
//! `Connection: close`, the idle window ([`ServerConfig::idle_timeout`])
//! expires between requests, the per-connection request cap
//! ([`ServerConfig::max_requests_per_conn`]) is reached, or the server
//! shuts down. Each request re-arms the socket's read deadline
//! ([`ServerConfig::read_timeout`]), so a slow second request cannot
//! ride the first request's budget. Because a parked keep-alive
//! connection pins its worker, size [`ServerConfig::workers`] to the
//! number of concurrent connections, not concurrent requests.
//!
//! # Backpressure
//!
//! Admission is two-phase: the accept loop reserves a queue slot
//! *before* handing the socket to a worker. When no slot is free it
//! still owns the connection, so it answers
//! `503 Service Unavailable` with a `retry-after` header instead of
//! hanging the client or buffering unboundedly. Per-model
//! [`AdmissionTier`](crate::registry::AdmissionTier) quotas layer under
//! that global gate: a hot model that saturates its own in-flight quota
//! gets tier-specific 503s while other models keep scoring.
//!
//! # Micro-batching
//!
//! Predict requests score through the per-server
//! [`BatchScheduler`]: concurrent
//! requests for the same model coalesce into one `predict_batch` call
//! (see the [`batch`](crate::batch) module docs for the flush policy).
//!
//! # Shutdown
//!
//! [`Server::shutdown`] flips the shutdown flag, wakes the accept loop
//! with a loopback connection, joins it, then drains the worker pool.
//! Idle keep-alive workers poll the flag between reads (≤ ~100 ms
//! ticks), so shutdown latency stays bounded even with parked
//! connections; every request already admitted is answered before the
//! threads exit.
//!
//! # Request-scoped telemetry
//!
//! Every request gets a monotonically increasing id (echoed as an
//! `x-request-id` header) and is classified into an `endpoint × model`
//! pair. Request, micro-batch flush and tier-rejection counts live in
//! one place, the always-on [`ServeMetrics`] registry (per-status
//! counts plus lifetime and rolling-window latency series, rendered on
//! `/metrics` at every trace level); `edm-trace` keeps spans, server
//! internals and distributions. A finished request also goes to an
//! env-gated one-line access log on stderr (`EDM_SERVE_LOG=1`;
//! requests at or above the `EDM_SERVE_SLOW_MS` threshold are always
//! logged and counted under `serve.request.slow`). `GET /v1/trace`
//! returns the live [`edm_trace::TraceReport`] as JSON for interactive
//! debugging.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use std::{fmt, io};

use edm_par::pool::WorkerPool;

use crate::batch::{BatchConfig, BatchScheduler};
use crate::http::{self, HttpError, Request, Response};
use crate::json::{self, Value};
use crate::metrics::ServeMetrics;
use crate::registry::{ModelEntry, ModelRegistry, RegistrySnapshot, SharedRegistry};
use crate::store::ModelStore;

/// Tunables for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads handling connections.
    pub workers: usize,
    /// Bounded queue depth; connection number `queue_capacity + 1`
    /// while all workers are busy is refused with a 503.
    pub queue_capacity: usize,
    /// Per-request socket read timeout, re-armed for every request on
    /// a keep-alive connection.
    pub read_timeout: Duration,
    /// Per-connection socket write timeout.
    pub write_timeout: Duration,
    /// How long a keep-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (`connection: close` on the final response).
    pub max_requests_per_conn: usize,
    /// Micro-batch scheduler tunables.
    pub batch: BatchConfig,
    /// Largest accepted request body, in bytes (413 beyond this).
    pub max_body_bytes: usize,
    /// Seconds advertised in the `retry-after` header of 503 responses.
    pub retry_after_secs: u32,
    /// Emit a one-line access log for every request (slow requests are
    /// logged regardless). `None` defers to the `EDM_SERVE_LOG`
    /// environment variable (truthy values: `1`, `true`, `on`).
    pub access_log: Option<bool>,
    /// Slow-request threshold in milliseconds. `None` defers to
    /// `EDM_SERVE_SLOW_MS`, defaulting to 500 ms.
    pub slow_ms: Option<f64>,
    /// Model directory for persisted `*.edm` containers. When set, the
    /// directory is scanned at startup (disk models overlay same-named
    /// registry entries), rescanned by `POST /v1/admin/reload`, and
    /// written by `POST /v1/models/{name}:train`. `None` disables the
    /// reload endpoint and makes `:train` register in-memory only.
    pub model_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            idle_timeout: Duration::from_secs(10),
            max_requests_per_conn: 10_000,
            batch: BatchConfig::default(),
            max_body_bytes: 1 << 20,
            retry_after_secs: 1,
            access_log: None,
            slow_ms: None,
            model_dir: None,
        }
    }
}

/// Resolved access-log settings (see [`ServerConfig::access_log`] and
/// [`ServerConfig::slow_ms`]).
#[derive(Debug, Clone, Copy)]
struct LogConfig {
    enabled: bool,
    slow_ns: u64,
}

impl LogConfig {
    fn resolve(config: &ServerConfig) -> LogConfig {
        let enabled = config.access_log.unwrap_or_else(|| {
            std::env::var("EDM_SERVE_LOG").is_ok_and(|v| {
                v == "1" || v.eq_ignore_ascii_case("true") || v.eq_ignore_ascii_case("on")
            })
        });
        let slow_ms = config.slow_ms.unwrap_or_else(|| {
            std::env::var("EDM_SERVE_SLOW_MS")
                .ok()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or(500.0)
        });
        LogConfig { enabled, slow_ns: (slow_ms.max(0.0) * 1e6) as u64 }
    }
}

/// Per-connection limits resolved from [`ServerConfig`].
#[derive(Debug, Clone, Copy)]
struct ConnConfig {
    read_timeout: Duration,
    idle_timeout: Duration,
    max_requests: usize,
    max_body: usize,
}

/// Hot-path trace probes, pre-resolved once at server start so the
/// per-request cost is an atomic add (counters) or one short
/// per-series lock (span), not a global-registry lock and a name
/// lookup.
struct HotProbes {
    connections: edm_trace::CounterHandle,
    requests: edm_trace::CounterHandle,
    request_span: edm_trace::SpanHandle,
}

impl HotProbes {
    fn resolve() -> HotProbes {
        HotProbes {
            connections: edm_trace::counter_handle("serve.http.connections"),
            requests: edm_trace::counter_handle("serve.http.requests"),
            request_span: edm_trace::span_handle("serve.request"),
        }
    }
}

/// Shared per-server state handed to every connection handler.
struct ServeState {
    /// The generation-swapped registry. Requests take one snapshot at
    /// routing time and score entirely against it, so reloads never
    /// disturb in-flight work.
    registry: SharedRegistry,
    /// The registry the server was started with, before any disk
    /// overlay — the rebuild base for `POST /v1/admin/reload` (models
    /// deleted from the directory fall back to, or disappear from,
    /// this baseline).
    base: ModelRegistry,
    /// Model directory, when configured.
    store: Option<ModelStore>,
    metrics: ServeMetrics,
    batcher: BatchScheduler,
    log: LogConfig,
    conn: ConnConfig,
    stop: Arc<AtomicBool>,
    probes: HotProbes,
}

/// Why the server could not start.
#[derive(Debug)]
pub enum ServeError {
    /// Binding or inspecting the listening socket failed.
    Io(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "could not start the server: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A running scoring server. Dropping it (or calling
/// [`Server::shutdown`]) stops accepting, drains admitted connections,
/// and joins every thread.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<WorkerPool>,
    workers: Option<Arc<WorkerPool>>,
}

impl fmt::Debug for Server {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Server").field("local_addr", &self.local_addr).finish()
    }
}

impl Server {
    /// Binds `addr` and starts serving `registry` in the background.
    ///
    /// Bind to port 0 for an ephemeral port and read the actual one
    /// back from [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn start<A: ToSocketAddrs>(
        addr: A,
        registry: ModelRegistry,
        config: ServerConfig,
    ) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let workers = Arc::new(WorkerPool::new(config.workers, config.queue_capacity));
        let log = LogConfig::resolve(&config);
        let conn = ConnConfig {
            read_timeout: config.read_timeout,
            idle_timeout: config.idle_timeout,
            max_requests: config.max_requests_per_conn.max(1),
            max_body: config.max_body_bytes,
        };
        let store = config.model_dir.clone().map(ModelStore::new);
        // Startup scan: disk models overlay the programmatic registry
        // as generation 1. Per-file load failures are reported and
        // skipped — a corrupt container must not stop the server from
        // serving everything else.
        let mut generation_one = registry.clone();
        if let Some(store) = &store {
            match store.scan() {
                Ok(report) => {
                    for (file, why) in &report.errors {
                        eprintln!("edm-serve: skipping model file {file}: {why}");
                    }
                    report.apply(&mut generation_one);
                }
                Err(e) => {
                    eprintln!("edm-serve: model dir {} is unreadable: {e}", store.dir().display());
                }
            }
        }
        let state = Arc::new(ServeState {
            registry: SharedRegistry::new(generation_one),
            base: registry,
            store,
            metrics: ServeMetrics::new(),
            batcher: BatchScheduler::new(config.batch.clone()),
            log,
            conn,
            stop: Arc::clone(&stop),
            probes: HotProbes::resolve(),
        });

        let acceptor = WorkerPool::new(1, 1);
        {
            let stop = Arc::clone(&stop);
            let workers = Arc::clone(&workers);
            let permit = acceptor.try_reserve().expect("fresh 1-slot pool has room");
            permit.execute(move || accept_loop(&listener, &workers, &state, &stop, &config));
        }
        Ok(Server { local_addr, stop, acceptor: Some(acceptor), workers: Some(workers) })
    }

    /// The bound address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently admitted but not yet picked up by a
    /// worker (includes in-flight admissions).
    pub fn queue_len(&self) -> usize {
        self.workers.as_ref().map_or(0, |w| w.queue_len())
    }

    /// Stops accepting, drains every admitted connection, and joins
    /// all threads. Also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // The accept loop may be parked in `accept()`; a throwaway
        // loopback connection wakes it so it can observe the flag.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(mut acceptor) = self.acceptor.take() {
            acceptor.shutdown();
        }
        // The accept loop has exited and dropped its pool handle, so
        // this is the last one; draining it answers every admitted
        // connection before the workers exit.
        if let Some(workers) = self.workers.take() {
            if let Some(mut pool) = Arc::into_inner(workers) {
                pool.shutdown();
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

fn accept_loop(
    listener: &TcpListener,
    workers: &Arc<WorkerPool>,
    state: &Arc<ServeState>,
    stop: &AtomicBool,
    config: &ServerConfig,
) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let stream = match conn {
            Ok(s) => s,
            // Transient accept failures (e.g. the peer vanished
            // between SYN and accept) are not fatal to the server.
            Err(_) => continue,
        };
        // The read timeout stays pinned to IDLE_POLL for the whole
        // connection; per-request read budgets are enforced by
        // `DeadlineReader` without further setsockopt round trips.
        let _ = stream.set_read_timeout(Some(IDLE_POLL));
        let _ = stream.set_write_timeout(Some(config.write_timeout));
        // Request/response ping-pong over keep-alive: never hold small
        // writes back for coalescing.
        let _ = stream.set_nodelay(true);
        match workers.try_reserve() {
            None => {
                // Queue full: the permit was never granted, so this
                // thread still owns the socket and can refuse politely.
                edm_trace::counter_add("serve.http.rejected", 1);
                let mut resp = error_response(503, "scoring queue is full");
                resp.retry_after = Some(config.retry_after_secs);
                respond_and_drain(&stream, &resp, config.max_body_bytes);
            }
            Some(permit) => {
                edm_trace::record("serve.queue.depth", workers.queue_len() as f64);
                let state = Arc::clone(state);
                permit.execute(move || handle_connection(&stream, &state));
            }
        }
    }
}

/// Poll tick for the keep-alive idle wait: parked workers observe the
/// shutdown flag (and the idle deadline) at this granularity. The
/// socket's OS read timeout is pinned to this value for the whole
/// connection; [`DeadlineReader`] turns the ticks into per-request
/// read budgets without per-request `setsockopt` calls.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// `Read` adapter enforcing a replaceable deadline over a socket whose
/// OS timeout is pinned to [`IDLE_POLL`]: timeout ticks are retried
/// until `deadline`, then surfaced as `TimedOut`. One read is always
/// attempted, so an already-expired deadline still drains buffered
/// bytes and acts as a single poll tick.
///
/// It also owns the connection's *cork* (responses held while the next
/// request is already buffered) and writes it out before every socket
/// read, so no response is ever held across a socket wait.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    corked: Vec<u8>,
}

impl DeadlineReader<'_> {
    /// Writes the cork, ignoring socket errors: the client may be gone,
    /// and a failed write must not take the worker down.
    fn flush_corked(&mut self) {
        if !self.corked.is_empty() {
            let mut stream = self.stream;
            let _ = stream.write_all(&self.corked);
            self.corked.clear();
        }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.flush_corked();
        loop {
            let mut stream = self.stream;
            match stream.read(buf) {
                Err(e)
                    if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) =>
                {
                    if Instant::now() >= self.deadline {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }
}

/// Blocks until the next request's first bytes are available. Returns
/// `false` when the connection should close instead: client EOF, idle
/// timeout, socket error, or server shutdown.
///
/// The wait polls: the reader's deadline is parked in the past so each
/// `fill_buf` is one [`IDLE_POLL`] tick, checking the stop flag and
/// the idle deadline between ticks. That keeps parked keep-alive
/// workers responsive to shutdown without any cross-thread connection
/// tracking.
///
/// `honor_stop` is `false` while waiting for a connection's *first*
/// request: a connection admitted before shutdown is still owed one
/// answer (graceful drain), so only subsequent requests are refused by
/// closing.
fn wait_for_request(
    reader: &mut BufReader<DeadlineReader<'_>>,
    state: &ServeState,
    honor_stop: bool,
) -> bool {
    // Pipelined bytes already buffered: no need to touch the socket.
    if !reader.buffer().is_empty() {
        return true;
    }
    let deadline = Instant::now() + state.conn.idle_timeout;
    reader.get_mut().deadline = Instant::now() - Duration::from_secs(1);
    loop {
        if honor_stop && state.stop.load(Ordering::SeqCst) {
            return false;
        }
        match reader.fill_buf() {
            Ok([]) => return false, // client closed
            Ok(_) => return true,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if Instant::now() >= deadline {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
}

/// Most response bytes held corked before forcing a flush.
const MAX_CORKED_BYTES: usize = 64 * 1024;

/// Serves one (keep-alive) connection: a request loop that re-arms the
/// read deadline per request and closes on `connection: close`, idle
/// timeout, the per-connection request cap, parse errors, or shutdown.
///
/// Responses are *corked* under pipelining: while bytes of the next
/// request have already arrived, response bytes accumulate in the
/// [`DeadlineReader`] and go out in one `write` when the next socket
/// read begins (or the cork cap is hit) — one syscall for a whole burst
/// instead of one per response.
fn handle_connection(stream: &TcpStream, state: &ServeState) {
    state.probes.connections.add(1);
    let mut reader = BufReader::with_capacity(
        32 * 1024,
        DeadlineReader {
            stream,
            deadline: Instant::now() + state.conn.read_timeout,
            corked: Vec::new(),
        },
    );
    let mut served = 0usize;
    while wait_for_request(&mut reader, state, served > 0) {
        // Fresh per-request read budget: a slow request N+1 cannot
        // ride whatever deadline request N left on the socket.
        reader.get_mut().deadline = Instant::now() + state.conn.read_timeout;
        state.probes.requests.add(1);
        let _span = state.probes.request_span.start();
        let id = state.metrics.next_request_id();
        let t0 = Instant::now();
        let (mut routed, drain, client_close) =
            match http::read_request(&mut reader, state.conn.max_body) {
                Ok(request) => {
                    let close = request.close;
                    (route(&request, state), false, close)
                }
                // Requests that never parsed still count: they get the
                // sentinel endpoint `unparsed` and the draining close
                // (their bytes were not fully read, so the connection
                // cannot be reused).
                Err(HttpError::Malformed(why)) => {
                    (Routed::plain(error_response(400, &why), "unparsed"), true, true)
                }
                Err(HttpError::TooLarge { limit }) => (
                    Routed::plain(
                        error_response(413, &format!("request body exceeds {limit} bytes")),
                        "unparsed",
                    ),
                    true,
                    true,
                ),
                // Dead or stalled socket: nobody is left to answer.
                Err(HttpError::Io(_)) => return,
            };
        served += 1;
        let close =
            client_close || served >= state.conn.max_requests || state.stop.load(Ordering::SeqCst);
        routed.response.request_id = Some(id);
        routed.response.close = close;
        let pipelined = !reader.buffer().is_empty();
        let out = reader.get_mut();
        if drain {
            out.flush_corked();
            respond_and_drain(stream, &routed.response, state.conn.max_body);
        } else {
            out.corked.extend_from_slice(&routed.response.to_bytes());
            if close || !pipelined || out.corked.len() >= MAX_CORKED_BYTES {
                out.flush_corked();
            }
        }
        finish_request(state, id, &routed, (t0.elapsed().as_secs_f64() * 1e9) as u64);
        if close {
            return;
        }
    }
}

/// Records one finished request in [`ServeMetrics`] and (when enabled,
/// or when slow) the access log.
fn finish_request(state: &ServeState, id: u64, routed: &Routed, latency_ns: u64) {
    let status = routed.response.status;
    state.metrics.observe(routed.endpoint, &routed.model, status, latency_ns);
    let slow = latency_ns >= state.log.slow_ns;
    if slow {
        edm_trace::counter_add("serve.request.slow", 1);
    }
    if state.log.enabled || slow {
        eprintln!(
            "edm-serve: request_id={id} endpoint={} model={} status={status} \
             latency_ms={:.3} slow={slow}",
            routed.endpoint,
            routed.model,
            latency_ns as f64 / 1e6,
        );
    }
}

/// How much unread request the draining close will consume before
/// giving up, beyond the body cap (request line + headers).
const DRAIN_SLACK_BYTES: usize = 16 * 1024;

/// Answers a request that was *not* fully read: writes `resp`,
/// half-closes the write side, then drains (bounded) whatever the
/// client already sent. Closing a socket with unread bytes in its
/// receive buffer makes TCP send RST instead of FIN, which can
/// destroy the just-written response in the client's receive buffer —
/// exactly the 503/413 answers this server most needs to deliver.
fn respond_and_drain(mut stream: &TcpStream, resp: &Response, cap: usize) {
    let _ = resp.write_to(&mut stream);
    let _ = stream.shutdown(Shutdown::Write);
    // A well-behaved client closes as soon as it has read the
    // response (the half-close above ends its `read`), so this loop
    // normally sees EOF within a round trip; the short timeout bounds
    // the cost of a client that trickles instead.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut sink = [0u8; 4096];
    let mut drained = 0usize;
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                drained += n;
                if drained > cap + DRAIN_SLACK_BYTES {
                    break;
                }
            }
        }
    }
}

/// A routed response plus its telemetry classification.
struct Routed {
    response: Response,
    /// Static endpoint label: `healthz`, `metrics`, `models`,
    /// `predict`, `train`, `reload`, `trace`, `other`, or `unparsed`.
    endpoint: &'static str,
    /// Model label: the registered name for predict requests, the
    /// bounded sentinel `unknown` for unregistered names, `-` for
    /// model-less endpoints (label cardinality stays finite either
    /// way).
    model: String,
}

impl Routed {
    fn plain(response: Response, endpoint: &'static str) -> Routed {
        Routed { response, endpoint, model: "-".to_string() }
    }
}

fn route(req: &Request, state: &ServeState) -> Routed {
    match req.target.as_str() {
        "/healthz" => Routed::plain(
            require_get(req).unwrap_or_else(|| Response::text(200, "ok\n")),
            "healthz",
        ),
        "/metrics" => Routed::plain(
            require_get(req).unwrap_or_else(|| metrics_response(&state.metrics)),
            "metrics",
        ),
        "/v1/models" => Routed::plain(
            require_get(req).unwrap_or_else(|| models_response(&state.registry.snapshot())),
            "models",
        ),
        "/v1/trace" => Routed::plain(require_get(req).unwrap_or_else(trace_response), "trace"),
        "/v1/admin/reload" => {
            let response = if req.method == "POST" {
                reload_response(state)
            } else {
                error_response(405, "reload requires POST")
            };
            Routed::plain(response, "reload")
        }
        target if target.starts_with("/v1/models/") && target.ends_with(":predict") => {
            let name = &target["/v1/models/".len()..target.len() - ":predict".len()];
            // One snapshot for the whole request: lookup, telemetry
            // labels, scoring, and the generation header all agree even
            // if a reload swaps the registry mid-request.
            let snapshot = state.registry.snapshot();
            let model = if snapshot.registry.get(name).is_some() { name } else { "unknown" };
            let mut response = if req.method == "POST" {
                predict_response(name, &req.body, &snapshot, state)
            } else {
                error_response(405, ":predict requires POST")
            };
            response.model_generation = Some(snapshot.generation);
            Routed { response, endpoint: "predict", model: model.to_string() }
        }
        target if target.starts_with("/v1/models/") && target.ends_with(":train") => {
            let name = &target["/v1/models/".len()..target.len() - ":train".len()];
            let known = state.registry.snapshot().registry.get(name).is_some();
            let response = if req.method == "POST" {
                train_response(name, &req.body, state)
            } else {
                error_response(405, ":train requires POST")
            };
            // Bounded label cardinality: a name only becomes a metric
            // label once it actually names a model (pre-existing or
            // just trained) — failed requests at arbitrary names
            // collapse to `unknown`.
            let model = if known || response.status == 200 { name } else { "unknown" };
            Routed { response, endpoint: "train", model: model.to_string() }
        }
        _ => Routed::plain(error_response(404, "no such endpoint"), "other"),
    }
}

/// `/metrics`: the `edm-trace` registry families, the serve-local
/// request series, and the closing `# EOF` line, as one OpenMetrics
/// exposition.
fn metrics_response(metrics: &ServeMetrics) -> Response {
    let mut body = edm_trace::collect().openmetrics_body();
    body.push_str(&metrics.render_openmetrics());
    body.push_str("# EOF\n");
    Response {
        status: 200,
        content_type: "application/openmetrics-text; version=1.0.0; charset=utf-8",
        retry_after: None,
        request_id: None,
        model_generation: None,
        close: false,
        body: body.into_bytes(),
    }
}

/// `/v1/trace`: the live [`edm_trace::TraceReport`] as JSON.
fn trace_response() -> Response {
    match edm_trace::collect().to_json() {
        Ok(json) => Response::json(200, json),
        Err(e) => error_response(500, &format!("trace serialization failed: {e}")),
    }
}

/// `None` when the method is GET, otherwise the 405 to send.
fn require_get(req: &Request) -> Option<Response> {
    (req.method != "GET").then(|| error_response(405, "this endpoint requires GET"))
}

/// `{"error": msg}` with the given status.
fn error_response(status: u16, msg: &str) -> Response {
    let body = Value::Object(vec![("error".to_string(), Value::Str(msg.to_string()))]);
    Response::json(status, body.encode())
}

fn models_response(snapshot: &RegistrySnapshot) -> Response {
    let models: Vec<Value> = snapshot
        .registry
        .list()
        .into_iter()
        .map(|m| {
            Value::Object(vec![
                ("name".to_string(), Value::Str(m.name)),
                ("family".to_string(), Value::Str(m.family.to_string())),
                ("n_features".to_string(), Value::Number(m.n_features as f64)),
                ("generation".to_string(), Value::Number(snapshot.generation as f64)),
                ("loaded_from".to_string(), m.loaded_from.map_or(Value::Null, Value::Str)),
                (
                    "checksum".to_string(),
                    m.checksum.map_or(Value::Null, |c| Value::Number(c as f64)),
                ),
            ])
        })
        .collect();
    let body = Value::Object(vec![
        ("generation".to_string(), Value::Number(snapshot.generation as f64)),
        ("models".to_string(), Value::Array(models)),
    ]);
    Response::json(200, body.encode())
}

/// `POST /v1/admin/reload`: rescans the model directory, overlays the
/// result onto the startup baseline, and publishes the new registry as
/// the next generation. In-flight requests finish on the generation
/// they started with.
fn reload_response(state: &ServeState) -> Response {
    let Some(store) = &state.store else {
        return error_response(
            409,
            "no model directory configured (set model_dir or EDM_SERVE_MODEL_DIR)",
        );
    };
    let _span = edm_trace::span("serve.reload");
    let report = match store.scan() {
        Ok(report) => report,
        Err(e) => {
            return error_response(
                500,
                &format!("model dir {} is unreadable: {e}", store.dir().display()),
            );
        }
    };
    if !report.errors.is_empty() {
        edm_trace::counter_add("serve.reload.errors", report.errors.len() as u64);
    }
    // Build the whole next generation offline, then swap: the write
    // lock is held only for the pointer exchange.
    let mut next = state.base.clone();
    report.apply(&mut next);
    let loaded: Vec<Value> = report.models.iter().map(|m| Value::Str(m.name.clone())).collect();
    let errors: Vec<(String, Value)> =
        report.errors.iter().map(|(f, why)| (f.clone(), Value::Str(why.clone()))).collect();
    let generation = state.registry.swap(next);
    let body = Value::Object(vec![
        ("generation".to_string(), Value::Number(generation as f64)),
        ("loaded".to_string(), Value::Array(loaded)),
        ("errors".to_string(), Value::Object(errors)),
    ]);
    Response::json(200, body.encode())
}

/// `POST /v1/models/{name}:train`: trains a fresh model of the
/// requested family on the supplied data (default hyperparameters via
/// [`edm::fit_family`]), persists it to the model directory when one
/// is configured, and publishes it as the next registry generation.
fn train_response(name: &str, body: &[u8], state: &ServeState) -> Response {
    if !ModelRegistry::valid_name(name) {
        return error_response(
            400,
            &format!("invalid model name {name:?}: use 1+ characters from [A-Za-z0-9_.-]"),
        );
    }
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "request body is not UTF-8"),
    };
    let (family, rows, targets) = match json::parse_train(text) {
        Ok(parsed) => parsed,
        Err(e) => return error_response(400, &e.to_string()),
    };
    if rows.is_empty() {
        return error_response(400, "training needs at least one input row");
    }
    if family != "one_class_svm" && targets.len() != rows.len() {
        return error_response(
            400,
            &format!("targets has {} entries for {} input rows", targets.len(), rows.len()),
        );
    }
    let _span = edm_trace::span("serve.train");
    let model = match edm::fit_family(&family, &rows, &targets) {
        Ok(model) => model,
        Err(e) => return error_response(400, &format!("training failed: {e}")),
    };
    // Persist before publishing: a model the client was told is live
    // must survive the next reload.
    let mut saved: Option<(String, u32)> = None;
    if let Some(store) = &state.store {
        match store.save(name, model.as_ref()) {
            Ok((path, checksum)) => saved = Some((path.display().to_string(), checksum)),
            Err(e) => return error_response(500, &format!("could not persist the model: {e}")),
        }
    }
    let n_features = model.n_features();
    let family_tag = model.name();
    let served: crate::registry::ServedModel = Arc::new(TrainedPredictor(model));
    // Next generation = the current one plus (or replacing) this
    // model; a replaced entry keeps its admission gate.
    let snapshot = state.registry.snapshot();
    let mut next = snapshot.registry.clone();
    let gate = next.get_entry(name).and_then(|e| e.gate);
    let entry = ModelEntry {
        model: served,
        gate,
        loaded_from: saved.as_ref().map(|(path, _)| path.clone()),
        checksum: saved.as_ref().map(|&(_, checksum)| checksum),
    };
    if let Err(e) = next.upsert_entry(name, entry) {
        return error_response(400, &e.to_string());
    }
    let generation = state.registry.swap(next);
    let body = Value::Object(vec![
        ("model".to_string(), Value::Str(name.to_string())),
        ("family".to_string(), Value::Str(family_tag.to_string())),
        ("n_features".to_string(), Value::Number(n_features as f64)),
        ("generation".to_string(), Value::Number(generation as f64)),
        (
            "saved_to".to_string(),
            saved.as_ref().map_or(Value::Null, |(path, _)| Value::Str(path.clone())),
        ),
        (
            "checksum".to_string(),
            saved.as_ref().map_or(Value::Null, |&(_, checksum)| Value::Number(checksum as f64)),
        ),
    ]);
    Response::json(200, body.encode())
}

/// Adapter serving a freshly trained
/// `Box<dyn edm::PersistentPredictor>` as a registry model.
struct TrainedPredictor(Box<dyn edm::PersistentPredictor + Send + Sync>);

impl edm::Predictor for TrainedPredictor {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, edm::Error> {
        self.0.predict_batch(xs)
    }

    fn n_features(&self) -> usize {
        self.0.n_features()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }
}

fn predict_response(
    name: &str,
    body: &[u8],
    snapshot: &RegistrySnapshot,
    state: &ServeState,
) -> Response {
    let Some(entry) = snapshot.registry.get_entry(name) else {
        return error_response(404, &format!("no model named {name:?}"));
    };
    let text = match std::str::from_utf8(body) {
        Ok(t) => t,
        Err(_) => return error_response(400, "request body is not UTF-8"),
    };
    let rows = match json::parse_inputs(text) {
        Ok(rows) => rows,
        Err(e) => return error_response(400, &e.to_string()),
    };
    // Shape pre-validation: a mismatched request must be rejected
    // *before* it can join a coalesced batch, where its Shape error
    // would fail every innocent co-batched request.
    let expected = entry.model.n_features();
    for (i, row) in rows.iter().enumerate() {
        if row.len() != expected {
            let e = edm::Error::Shape { row: i, expected, found: row.len() };
            return error_response(400, &e.to_string());
        }
    }
    // Per-model admission: claim a tier unit for the whole scoring
    // call; saturated tiers refuse with their own Retry-After while
    // other models' requests keep flowing.
    let _permit = match &entry.gate {
        None => None,
        Some(gate) => match gate.try_acquire() {
            Some(permit) => Some(permit),
            None => {
                let tier = gate.tier();
                state.metrics.tier_reject(name, &tier.name);
                let mut resp = error_response(
                    503,
                    &format!("model {name:?} is saturated (tier {:?})", tier.name),
                );
                resp.retry_after = Some(tier.retry_after_secs.min(u32::MAX as u64) as u32);
                return resp;
            }
        },
    };
    // Shapes were validated above, so any scheduler error left is the
    // server's fault (predictor failure/panic), not the client's.
    match state.batcher.submit(name, snapshot.generation, &entry.model, rows, &state.metrics) {
        Ok(predictions) => {
            // Hand-rolled encoding of the success body: same bytes the
            // `Value` tree would produce (shared number writer and
            // escaper), without building one node per prediction.
            let mut body = String::with_capacity(96 + 24 * predictions.len());
            body.push_str("{\"model\":");
            json::write_escaped(name, &mut body);
            body.push_str(",\"family\":");
            json::write_escaped(entry.model.name(), &mut body);
            body.push_str(",\"count\":");
            json::write_number(predictions.len() as f64, &mut body);
            body.push_str(",\"predictions\":[");
            for (i, &p) in predictions.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                json::write_number(p, &mut body);
            }
            body.push_str("]}");
            Response::json(200, body)
        }
        Err(e) => error_response(500, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm::prelude::*;

    fn registry_with_ridge() -> ModelRegistry {
        let x = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0, 2.0, 3.0];
        let mut reg = ModelRegistry::new();
        reg.register("plane", Ridge::fit(&x, &y, 1e-6).expect("plane fits")).expect("register");
        reg
    }

    fn req(method: &str, target: &str, body: &str) -> Request {
        Request {
            method: method.to_string(),
            target: target.to_string(),
            body: body.as_bytes().to_vec(),
            close: false,
        }
    }

    /// Wraps `reg` in a throwaway server state (default batching, no
    /// logging) for socket-less routing tests.
    fn test_state(reg: ModelRegistry) -> ServeState {
        test_state_with_store(reg, None)
    }

    fn test_state_with_store(reg: ModelRegistry, store: Option<ModelStore>) -> ServeState {
        ServeState {
            registry: SharedRegistry::new(reg.clone()),
            base: reg,
            store,
            metrics: ServeMetrics::new(),
            batcher: BatchScheduler::new(BatchConfig::default()),
            log: LogConfig { enabled: false, slow_ns: u64::MAX },
            conn: ConnConfig {
                read_timeout: Duration::from_secs(5),
                idle_timeout: Duration::from_secs(5),
                max_requests: 100,
                max_body: 1 << 20,
            },
            stop: Arc::new(AtomicBool::new(false)),
            probes: HotProbes::resolve(),
        }
    }

    /// Routes `r` against a throwaway state and returns the response
    /// alone (most routing tests don't care about labels).
    fn route_only(r: &Request, reg: &ModelRegistry) -> Response {
        let state = test_state(reg.clone());
        route(r, &state).response
    }

    #[test]
    fn routing_table_without_sockets() {
        let reg = registry_with_ridge();
        assert_eq!(route_only(&req("GET", "/healthz", ""), &reg).status, 200);
        assert_eq!(route_only(&req("POST", "/healthz", ""), &reg).status, 405);
        assert_eq!(route_only(&req("GET", "/metrics", ""), &reg).status, 200);
        assert_eq!(route_only(&req("GET", "/v1/models", ""), &reg).status, 200);
        assert_eq!(route_only(&req("GET", "/v1/trace", ""), &reg).status, 200);
        assert_eq!(route_only(&req("POST", "/v1/trace", ""), &reg).status, 405);
        assert_eq!(route_only(&req("GET", "/v1/models/plane:predict", ""), &reg).status, 405);
        assert_eq!(route_only(&req("GET", "/nope", ""), &reg).status, 404);
        let ok =
            route_only(&req("POST", "/v1/models/plane:predict", r#"{"inputs": [[1, 1]]}"#), &reg);
        assert_eq!(ok.status, 200);
        let shown = String::from_utf8(ok.body).expect("utf8");
        assert!(shown.contains("\"predictions\":["), "body was {shown}");
    }

    #[test]
    fn routes_classify_endpoint_and_model() {
        let state = test_state(registry_with_ridge());
        let health = route(&req("GET", "/healthz", ""), &state);
        assert_eq!((health.endpoint, health.model.as_str()), ("healthz", "-"));
        let hit = route(&req("POST", "/v1/models/plane:predict", "{\"inputs\": []}"), &state);
        assert_eq!((hit.endpoint, hit.model.as_str()), ("predict", "plane"));
        // Unregistered names collapse to the bounded `unknown` label so
        // clients cannot mint unbounded metric series.
        let miss = route(&req("POST", "/v1/models/ghost:predict", "{}"), &state);
        assert_eq!((miss.endpoint, miss.model.as_str()), ("predict", "unknown"));
        let lost = route(&req("GET", "/nope", ""), &state);
        assert_eq!(lost.endpoint, "other");
    }

    #[test]
    fn saturated_tier_refuses_with_retry_after() {
        let x = vec![vec![0.0, 0.0], vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0, 2.0, 3.0];
        let mut reg = ModelRegistry::new();
        reg.register_tiered(
            "plane",
            Ridge::fit(&x, &y, 1e-6).expect("plane fits"),
            crate::registry::AdmissionTier {
                name: "bulk".to_string(),
                max_in_flight: 1,
                retry_after_secs: 7,
            },
        )
        .expect("tiered register");
        let state = test_state(reg);
        // Hold the model's only quota unit, as an in-flight request
        // would, then route a second predict at it.
        let gate = state
            .registry
            .snapshot()
            .registry
            .get_entry("plane")
            .expect("entry")
            .gate
            .expect("tiered");
        let held = gate.try_acquire().expect("first unit");
        let refused =
            route(&req("POST", "/v1/models/plane:predict", "{\"inputs\": [[1, 1]]}"), &state);
        assert_eq!(refused.response.status, 503);
        assert_eq!(refused.response.retry_after, Some(7), "tier-specific Retry-After");
        assert_eq!(
            state.metrics.tier_reject_snapshot().get(&("plane".into(), "bulk".into())),
            Some(&1)
        );
        drop(held);
        let admitted =
            route(&req("POST", "/v1/models/plane:predict", "{\"inputs\": [[1, 1]]}"), &state);
        assert_eq!(admitted.response.status, 200, "freed quota admits again");
        assert_eq!(gate.in_flight(), 0, "permit returned after scoring");
    }

    #[test]
    fn trace_endpoint_returns_live_report_json() {
        let reg = registry_with_ridge();
        let resp = route_only(&req("GET", "/v1/trace", ""), &reg);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.content_type, "application/json");
        let doc = json::parse(std::str::from_utf8(&resp.body).expect("utf8"))
            .expect("live trace report parses with our own JSON parser");
        assert!(doc.get("level").is_some(), "report carries the trace level");
        assert!(doc.get("dropped_events").is_some(), "report carries the ring drop counter");
    }

    #[test]
    fn metrics_endpoint_composes_serve_families_and_eof() {
        let state = test_state(registry_with_ridge());
        state.metrics.observe("predict", "plane", 200, 1_500_000);
        let resp = route(&req("GET", "/metrics", ""), &state).response;
        let text = String::from_utf8(resp.body).expect("utf8");
        assert!(
            text.contains(
                "edm_serve_requests_total{endpoint=\"predict\",model=\"plane\",status=\"200\"} 1"
            ),
            "serve families missing from {text}"
        );
        assert!(text.ends_with("# EOF\n"), "exposition must end with EOF");
        assert_eq!(text.matches("# EOF").count(), 1, "exactly one EOF terminator");
    }

    #[test]
    fn predict_error_statuses() {
        let reg = registry_with_ridge();
        let predict = "/v1/models/plane:predict";
        // Unknown model.
        assert_eq!(route_only(&req("POST", "/v1/models/ghost:predict", "{}"), &reg).status, 404);
        // Not JSON at all.
        assert_eq!(route_only(&req("POST", predict, "not json"), &reg).status, 400);
        // JSON, wrong shape.
        assert_eq!(route_only(&req("POST", predict, "{\"rows\": []}"), &reg).status, 400);
        assert_eq!(route_only(&req("POST", predict, "{\"inputs\": [4]}"), &reg).status, 400);
        assert_eq!(route_only(&req("POST", predict, "{\"inputs\": [[true]]}"), &reg).status, 400);
        // Feature-count mismatch surfaces the facade Shape error.
        let mismatch = route_only(&req("POST", predict, "{\"inputs\": [[1, 2, 3]]}"), &reg);
        assert_eq!(mismatch.status, 400);
        let shown = String::from_utf8(mismatch.body).expect("utf8");
        assert!(shown.contains("expects"), "body was {shown}");
    }

    #[test]
    fn predictions_match_the_inherent_path() {
        let reg = registry_with_ridge();
        let model = reg.get("plane").expect("registered");
        let rows = vec![vec![0.25, 0.5], vec![0.75, -0.25]];
        let direct = model.predict_batch(&rows).expect("clean batch");
        let resp = route_only(
            &req("POST", "/v1/models/plane:predict", r#"{"inputs": [[0.25, 0.5], [0.75, -0.25]]}"#),
            &reg,
        );
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
        let served: Vec<f64> = doc
            .get("predictions")
            .and_then(Value::as_array)
            .expect("predictions array")
            .iter()
            .map(|v| v.as_f64().expect("number"))
            .collect();
        assert_eq!(served.len(), direct.len());
        for (s, d) in served.iter().zip(&direct) {
            assert_eq!(s.to_bits(), d.to_bits(), "wire round trip changed a prediction");
        }
    }

    #[test]
    fn predict_responses_carry_the_generation_header() {
        let state = test_state(registry_with_ridge());
        let hit =
            route(&req("POST", "/v1/models/plane:predict", r#"{"inputs": [[1, 1]]}"#), &state);
        assert_eq!(hit.response.model_generation, Some(1));
        // Misses stamp the generation too: the header describes the
        // registry consulted, not the model found.
        let miss = route(&req("POST", "/v1/models/ghost:predict", "{}"), &state);
        assert_eq!(miss.response.model_generation, Some(1));
        let health = route(&req("GET", "/healthz", ""), &state);
        assert_eq!(health.response.model_generation, None);
    }

    #[test]
    fn models_endpoint_reports_generation_and_provenance() {
        let state = test_state(registry_with_ridge());
        let resp = route(&req("GET", "/v1/models", ""), &state).response;
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
        assert_eq!(doc.get("generation").and_then(Value::as_f64), Some(1.0));
        let models = doc.get("models").and_then(Value::as_array).expect("models array");
        assert_eq!(models.len(), 1);
        let plane = &models[0];
        assert_eq!(plane.get("name").and_then(Value::as_str), Some("plane"));
        assert_eq!(plane.get("family").and_then(Value::as_str), Some("ridge"));
        assert_eq!(plane.get("generation").and_then(Value::as_f64), Some(1.0));
        assert!(
            matches!(plane.get("loaded_from"), Some(Value::Null)),
            "programmatic models have no provenance"
        );
        assert!(matches!(plane.get("checksum"), Some(Value::Null)));
    }

    #[test]
    fn reload_without_a_store_conflicts() {
        let state = test_state(registry_with_ridge());
        let resp = route(&req("POST", "/v1/admin/reload", ""), &state);
        assert_eq!((resp.response.status, resp.endpoint), (409, "reload"));
        assert_eq!(route(&req("GET", "/v1/admin/reload", ""), &state).response.status, 405);
    }

    #[test]
    fn reload_swaps_in_disk_models_and_bumps_the_generation() {
        let dir = std::env::temp_dir().join(format!("edm-server-reload-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ModelStore::new(&dir);
        let state = test_state_with_store(registry_with_ridge(), Some(store.clone()));

        // Nothing on disk yet: reload succeeds, keeps the baseline.
        let empty = route(&req("POST", "/v1/admin/reload", ""), &state).response;
        assert_eq!(empty.status, 200);
        assert_eq!(state.registry.generation(), 2);

        // Drop a new model into the directory and reload again.
        let x = vec![vec![0.0], vec![1.0], vec![2.0]];
        let y = vec![0.0, 2.0, 4.0];
        let line = Ridge::fit(&x, &y, 1e-9).expect("line fits");
        store.save("line", &line).expect("save");
        let resp = route(&req("POST", "/v1/admin/reload", ""), &state).response;
        assert_eq!(resp.status, 200);
        let doc = json::parse(std::str::from_utf8(&resp.body).expect("utf8")).expect("json");
        assert_eq!(doc.get("generation").and_then(Value::as_f64), Some(3.0));
        let snapshot = state.registry.snapshot();
        assert_eq!(snapshot.generation, 3);
        assert!(snapshot.registry.get("plane").is_some(), "baseline survives reloads");
        let entry = snapshot.registry.get_entry("line").expect("disk model registered");
        assert!(entry.loaded_from.is_some() && entry.checksum.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_fits_persists_and_publishes() {
        let dir = std::env::temp_dir().join(format!("edm-server-train-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let state = test_state_with_store(registry_with_ridge(), Some(ModelStore::new(&dir)));
        let body =
            r#"{"family": "ridge", "inputs": [[0], [1], [2], [3]], "targets": [0, 3, 6, 9]}"#;
        let routed = route(&req("POST", "/v1/models/steep:train", body), &state);
        assert_eq!((routed.response.status, routed.model.as_str()), (200, "steep"));
        let doc =
            json::parse(std::str::from_utf8(&routed.response.body).expect("utf8")).expect("json");
        assert_eq!(doc.get("family").and_then(Value::as_str), Some("ridge"));
        assert_eq!(doc.get("generation").and_then(Value::as_f64), Some(2.0));
        assert!(doc.get("saved_to").and_then(Value::as_str).is_some(), "persisted to the store");
        assert!(doc.get("checksum").and_then(Value::as_f64).is_some());

        // The new model scores immediately, against the new generation.
        let hit = route(&req("POST", "/v1/models/steep:predict", r#"{"inputs": [[2]]}"#), &state);
        assert_eq!(hit.response.status, 200);
        assert_eq!(hit.response.model_generation, Some(2));
        // And it survives a reload, now loaded from disk.
        let reload = route(&req("POST", "/v1/admin/reload", ""), &state).response;
        assert_eq!(reload.status, 200);
        let entry =
            state.registry.snapshot().registry.get_entry("steep").expect("reloaded from disk");
        assert!(entry.loaded_from.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn train_error_statuses_and_label_bounding() {
        let state = test_state(registry_with_ridge());
        // Invalid name → 400, label collapses to `unknown`.
        let routed = route(&req("POST", "/v1/models/bad%20name:train", "{}"), &state);
        assert_eq!((routed.response.status, routed.model.as_str()), (400, "unknown"));
        // Unknown family → 400.
        let body = r#"{"family": "nope", "inputs": [[1]], "targets": [1]}"#;
        assert_eq!(
            route_only(&req("POST", "/v1/models/m:train", body), &registry_with_ridge()).status,
            400
        );
        // Row/target mismatch → 400.
        let body = r#"{"family": "ridge", "inputs": [[1], [2]], "targets": [1]}"#;
        assert_eq!(
            route_only(&req("POST", "/v1/models/m:train", body), &registry_with_ridge()).status,
            400
        );
        // No rows → 400.
        let body = r#"{"family": "ridge", "inputs": [], "targets": []}"#;
        assert_eq!(
            route_only(&req("POST", "/v1/models/m:train", body), &registry_with_ridge()).status,
            400
        );
        // Missing, null, non-array and non-number targets → 400, each
        // with its own message.
        for (targets, why) in [
            ("", "targets has 0 entries for 1 input rows"),
            (r#", "targets": null"#, "targets has 0 entries for 1 input rows"),
            (r#", "targets": "1""#, "\\\"targets\\\" is not an array at byte 48"),
            (r#", "targets": [1, "2"]"#, "targets[1] is not a number at byte 52"),
        ] {
            let body = format!(r#"{{"family": "ridge", "inputs": [[1]]{targets}}}"#);
            let resp =
                route_only(&req("POST", "/v1/models/m:train", &body), &registry_with_ridge());
            let shown = String::from_utf8(resp.body).expect("utf8");
            assert_eq!(resp.status, 400, "{body}");
            assert!(shown.contains(why), "{body} answered {shown}");
        }
        // GET → 405.
        assert_eq!(
            route_only(&req("GET", "/v1/models/m:train", ""), &registry_with_ridge()).status,
            405
        );
        // Training without a store still publishes (in-memory only).
        let body = r#"{"family": "ridge", "inputs": [[0], [1]], "targets": [0, 1]}"#;
        let trained = route(&req("POST", "/v1/models/mem:train", body), &state);
        assert_eq!(trained.response.status, 200);
        let doc =
            json::parse(std::str::from_utf8(&trained.response.body).expect("utf8")).expect("json");
        assert!(matches!(doc.get("saved_to"), Some(Value::Null)), "no store, no file");
        assert!(state.registry.snapshot().registry.get("mem").is_some());
    }

    #[test]
    fn mutated_bodies_never_get_a_5xx() {
        let reg = registry_with_ridge();
        let seeds = [
            ("/v1/models/plane:predict", r#"{"inputs": [[0.25, 0.5], [0.75, -0.25]]}"#),
            (
                "/v1/models/m:train",
                r#"{"family": "ridge", "inputs": [[0], [1]], "targets": [0, 1]}"#,
            ),
        ];
        for (target, seed) in seeds {
            let mut bodies: Vec<Vec<u8>> =
                (0..seed.len()).map(|end| seed.as_bytes()[..end].to_vec()).collect();
            for at in 0..seed.len() {
                for &b in b"\"\\[]{},:-0.e \x01\xff" {
                    let mut bytes = seed.as_bytes().to_vec();
                    bytes[at] = b;
                    bodies.push(bytes);
                }
            }
            for body in bodies {
                let r =
                    Request { method: "POST".into(), target: target.into(), body, close: false };
                let status = route_only(&r, &reg).status;
                assert!(status < 500, "{status} for {:?}", String::from_utf8_lossy(&r.body));
            }
        }
    }
}

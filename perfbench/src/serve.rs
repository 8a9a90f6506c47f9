//! `serve_mixed`: `POST …:predict` streams against an in-process
//! `edm_serve::Server`, with model writes beside them.
//!
//! The server holds an RBF SVC, where `predict_batch` dominates a
//! request, a ridge model, where HTTP and JSON dominate, and a third
//! model the workload retrains; rows per request follow a fixed seeded
//! mix of 1–16 and 128. The measured phase has two parts:
//!
//! * an open loop at one rate below the knee on one connection, while a
//!   second connection, at a fixed interval, retrains the third model
//!   (`:train` fits, persists to a model directory, publishes) and
//!   reloads the directory — reads beside `model-io`, `serve::store`
//!   and generation swaps. Latency is measured from each request's
//!   scheduled send time, so a stall also delays every request queued
//!   behind it;
//! * a closed loop: rounds of the same requests sent back to back,
//!   pipelined on one connection, whose rate the server's read path
//!   sets rather than a schedule.
//!
//! Load comes from this one process over two client threads and two
//! connections. Every 2xx response must carry the right row count and
//! be bitwise equal to in-process `predict_batch` on the model
//! generation named in its `x-model-generation` header.

use std::collections::{BTreeMap, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use edm::learn::linreg::Ridge;
use edm::{PersistentPredictor, Predictor};
use edm_kernels::RbfKernel;
use edm_serve::http::{self, Response};
use edm_serve::json::{self, Value};
use edm_serve::{
    BatchConfig, BatchScheduler, ModelRegistry, ModelStore, ServeMetrics, ServedModel, Server,
    ServerConfig, SharedRegistry,
};
use edm_svm::{SvcParams, SvcTrainer};

use crate::report::Report;
use crate::stats::{self, ScheduleLag, SplitMix, Tally};
use crate::Args;

/// Features per row.
const DIM: usize = 16;
/// Most requests in flight on one connection. Bounds the bytes either
/// side buffers, so a pipelined writer can never deadlock against the
/// server; past it, sends run late and the lateness is charged to
/// latency (measured from the schedule) and to `bench.gen_lag_ms`.
const WINDOW: usize = 16;
/// Segments of the measured phase; each runs on its own set-up.
///
/// A shared host slows down for seconds at a time, so a run measures in
/// segments spread over its whole length rather than in one block per
/// metric: set-up, open loop and closed loop each sample every part of
/// the run.
const SEGMENTS: usize = 5;
/// Set-ups per segment; `setup_s` is the median of all of them. One
/// set-up takes about 0.4 s, and its phases (fits, pool, warm-up) each
/// swing by half between consecutive set-ups of the same seed.
const SETUPS: usize = 3;
/// Requests per window of the windowed p99 ([`stats::windowed_tail`]):
/// enough for a p99 with ten samples beyond it.
const TAIL_WINDOW: usize = 1000;
/// Requests per window of the windowed median
/// ([`stats::windowed_median`]): one second at [`OPEN_RPS`].
const MEDIAN_WINDOW: usize = 500;
/// Offered predict rate of the open loop: below the single-connection
/// knee (2000–5700 rps on a shared two-core host) with room to spare.
const OPEN_RPS: f64 = 500.0;
/// Share of the measured time the open loop is scheduled for; the
/// closed loop runs for the rest.
const OPEN_SHARE: f64 = 0.6;
/// Requests per closed-loop round: twice the pool, about a quarter of a
/// second at 4000–5000 rps.
const CLOSED_REQUESTS: usize = 1024;
/// The open loop sends one write (alternately `:train` and reload) this
/// often.
const WRITE_EVERY: Duration = Duration::from_millis(400);
/// The model the workload retrains.
const LIVE: &str = "svc-live";

/// Data and pool sizes.
#[derive(Debug, Clone, Copy)]
struct Sizes {
    svc_train: usize,
    live_train: usize,
    pool: usize,
}

const FULL: Sizes = Sizes { svc_train: 1500, live_train: 300, pool: 512 };
const PROBE: Sizes = Sizes { svc_train: 300, live_train: 100, pool: 64 };

/// One pre-built predict request.
struct PoolReq {
    model: &'static str,
    rows: Vec<Vec<f64>>,
    bytes: Vec<u8>,
    /// In-process `predict_batch` of `rows`: one entry for a static
    /// model, one per training set for the retrained model.
    expected: Vec<Vec<f64>>,
}

/// A labelled training set for `:train`, with its request bytes.
struct TrainSet {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    request: Vec<u8>,
}

/// From which generation on the retrained model holds which training
/// set: `(generation, set)` pairs in publication order.
#[derive(Debug, Clone, Default)]
struct Generations(Vec<(u64, usize)>);

impl Generations {
    /// The training set behind generation `generation`.
    fn version_at(&self, generation: u64) -> Option<usize> {
        self.0.iter().rev().find(|&&(g, _)| g <= generation).map(|&(_, v)| v)
    }
}

/// One set-up: models, the request pool, and a running server.
struct Bench {
    server: Option<Server>,
    addr: SocketAddr,
    dir: PathBuf,
    pool: Vec<PoolReq>,
    live: [TrainSet; 2],
    generations: Generations,
    registry: ModelRegistry,
    svc: Arc<edm_svm::SvcModel<RbfKernel>>,
}

impl Drop for Bench {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            let _ = std::fs::remove_dir(parent); // only once empty
        }
    }
}

fn rows(rng: &mut SplitMix, n: usize) -> Vec<Vec<f64>> {
    (0..n).map(|_| (0..DIM).map(|_| rng.next_f64()).collect()).collect()
}

fn labels(x: &[Vec<f64>], rng: &mut SplitMix) -> Vec<f64> {
    x.iter()
        .map(|r| {
            if r[0] * r[1] + 0.5 * r[2] - 0.2 * r[3] + 0.2 * rng.next_f64() > 0.0 {
                1.0
            } else {
                -1.0
            }
        })
        .collect()
}

fn matrix(rows: &[Vec<f64>]) -> Value {
    Value::Array(
        rows.iter().map(|r| Value::Array(r.iter().map(|&v| Value::Number(v)).collect())).collect(),
    )
}

fn post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: perfbench\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A fresh model directory under the working directory.
fn model_dir() -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    PathBuf::from(".perfbench_tmp").join(format!("models-{}-{n}", std::process::id()))
}

fn setup(seed: u64, sizes: Sizes, tally: &mut Tally) -> Result<Bench, String> {
    let mut rng = SplitMix::new(seed ^ 0x7365_7276_6500);
    let x = rows(&mut rng, sizes.svc_train);
    let y = labels(&x, &mut rng);
    let svc = SvcTrainer::new(SvcParams::default())
        .kernel(RbfKernel::new(1.0 / DIM as f64))
        .fit(&x, &y)
        .map_err(|e| e.to_string())?;
    let ridge_y: Vec<f64> = x
        .iter()
        .map(|r| {
            r.iter().enumerate().map(|(j, v)| (j as f64 + 1.0) * v).sum::<f64>()
                + 0.1 * rng.next_f64()
        })
        .collect();
    let ridge = Ridge::fit(&x, &ridge_y, 1.0).map_err(|e| e.to_string())?;
    let svc = Arc::new(svc);
    let ridge: ServedModel = Arc::new(ridge);
    let mut registry = ModelRegistry::new();
    registry.register_arc("svc", svc.clone()).map_err(|e| e.to_string())?;
    registry.register_arc("ridge", ridge.clone()).map_err(|e| e.to_string())?;

    let live = [0, 1].map(|_| {
        let x = rows(&mut rng, sizes.live_train);
        let y = labels(&x, &mut rng);
        let body = Value::Object(vec![
            ("family".to_string(), Value::Str("svc".to_string())),
            ("inputs".to_string(), matrix(&x)),
            ("targets".to_string(), Value::Array(y.iter().map(|&v| Value::Number(v)).collect())),
        ]);
        let request = post(&format!("/v1/models/{LIVE}:train"), &body.encode());
        TrainSet { x, y, request }
    });
    let live_models = live
        .iter()
        .map(|s| edm::fit_family("svc", &s.x, &s.y).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let dir = model_dir();
    ModelStore::new(&dir).save(LIVE, live_models[0].as_ref()).map_err(|e| e.to_string())?;

    let names = ["svc", "ridge", LIVE];
    // Fixed composition, seeded order: models take equal shares, one
    // request in sixteen carries 128 rows and the rest 1..=16 rows in
    // equal shares, so the seed moves values and order but not the mix.
    let mut shape: Vec<(usize, usize)> = (0..sizes.pool)
        .map(|i| {
            (
                (i + i / 16) % names.len(),
                if i % 16 == 15 { 128 } else { 1 + (i / names.len()) % 16 },
            )
        })
        .collect();
    for i in (1..shape.len()).rev() {
        shape.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut pool = Vec::with_capacity(sizes.pool);
    for (m, n) in shape {
        let model = names[m];
        let rows = rows(&mut rng, n);
        let predict = |m: &dyn Predictor| m.predict_batch(&rows).map_err(|e| e.to_string());
        let expected = match model {
            "svc" => vec![predict(svc.as_ref())?],
            "ridge" => vec![predict(ridge.as_ref())?],
            _ => vec![predict(live_models[0].as_ref())?, predict(live_models[1].as_ref())?],
        };
        let body = Value::Object(vec![("inputs".to_string(), matrix(&rows))]).encode();
        let bytes = post(&format!("/v1/models/{model}:predict"), &body);
        pool.push(PoolReq { model, rows, bytes, expected });
    }

    let config = ServerConfig {
        model_dir: Some(dir.clone()),
        access_log: Some(false),
        ..Default::default()
    };
    let server =
        Server::start("127.0.0.1:0", registry.clone(), config).map_err(|e| e.to_string())?;
    let addr = server.local_addr();
    let mut bench = Bench {
        server: Some(server),
        addr,
        dir,
        pool,
        live,
        generations: Generations(vec![(1, 0)]),
        registry,
        svc,
    };
    // Warm-up: every pooled request once, beside a write of each kind,
    // so lazy initialization and first-touch costs land in set-up.
    let all = back_to_back(bench.pool.len(), 0, bench.pool.len());
    let warm_writes = [(Duration::ZERO, WriteOp::Train(0)), (Duration::ZERO, WriteOp::Reload)];
    step(&mut bench, &all, &warm_writes, tally);
    Ok(bench)
}

/// One scheduled send: when (offset from the step's start) and which
/// pooled request.
#[derive(Debug, Clone, Copy)]
struct Sched {
    at: Duration,
    req: usize,
}

/// One answered (or failed: status 0) request.
#[derive(Debug, Clone)]
struct Done {
    req: usize,
    status: u16,
    generation: Option<u64>,
    latency_ms: f64,
    body: Vec<u8>,
}

/// What one connection's generator saw.
#[derive(Debug, Default)]
struct ConnResult {
    dones: Vec<Done>,
    lag: ScheduleLag,
}

/// A parsed response: status, `x-model-generation`, body, and the bytes
/// it took from the buffer.
struct Parsed {
    status: u16,
    generation: Option<u64>,
    /// The server closes the connection after this response.
    close: bool,
    body: Vec<u8>,
    used: usize,
}

/// Parses one complete `content-length`-framed response off the front
/// of `buf`; `None` until all of it has arrived.
fn parse_response(buf: &[u8]) -> Option<Parsed> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let (mut len, mut generation, mut close) = (0usize, None, false);
    for line in lines {
        let Some((k, v)) = line.split_once(':') else { continue };
        if k.eq_ignore_ascii_case("content-length") {
            len = v.trim().parse().ok()?;
        } else if k.eq_ignore_ascii_case("x-model-generation") {
            generation = v.trim().parse().ok();
        } else if k.eq_ignore_ascii_case("connection") {
            close = v.trim().eq_ignore_ascii_case("close");
        }
    }
    let start = head_end + 4;
    let body = buf.get(start..start + len)?.to_vec();
    Some(Parsed { status, generation, close, body, used: start + len })
}

/// Opens a client connection.
fn connect(addr: SocketAddr) -> Option<TcpStream> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    Some(stream)
}

/// Sends `items` on one keep-alive connection on their schedule,
/// pipelining up to [`WINDOW`] requests, and collects every response.
/// One thread, one connection: reads wait with a timeout that ends at
/// the next scheduled send. When the server ends the connection (its
/// per-connection request cap; pipelined requests it never read may
/// reset the socket), the generator reconnects and resends the requests
/// still in flight. Predicts are idempotent, so a resend is safe.
fn drive(addr: SocketAddr, pool: &[PoolReq], items: &[Sched], t0: Instant) -> ConnResult {
    /// Reconnects allowed per call before the rest is failed.
    const MAX_RECONNECTS: usize = 1000;
    let mut out = ConnResult::default();
    // Fails every request not yet answered (answers arrive in send
    // order, so those are the items from `dones.len()` on).
    let fail_rest = |out: &mut ConnResult| {
        for s in &items[out.dones.len()..] {
            let latency_ms =
                Instant::now().saturating_duration_since(t0 + s.at).as_secs_f64() * 1e3;
            out.dones.push(Done {
                req: s.req,
                status: 0,
                generation: None,
                latency_ms,
                body: Vec::new(),
            });
        }
    };
    let Some(mut stream) = connect(addr) else {
        fail_rest(&mut out);
        return out;
    };
    let last_at = items.last().map_or(Duration::ZERO, |s| s.at);
    let give_up = t0 + last_at + Duration::from_secs(20);
    let mut inbuf: Vec<u8> = Vec::with_capacity(1 << 16);
    let mut readbuf = vec![0u8; 1 << 16];
    let mut in_flight: VecDeque<usize> = VecDeque::new();
    let mut next = 0usize;
    let mut reconnects = 0usize;
    loop {
        let mut broken = false;
        while !broken
            && next < items.len()
            && in_flight.len() < WINDOW
            && t0 + items[next].at <= Instant::now()
        {
            let s = items[next];
            out.lag.record(s.at, Instant::now().saturating_duration_since(t0));
            broken = stream.write_all(&pool[s.req].bytes).is_err();
            in_flight.push_back(next);
            next += 1;
        }
        if !broken {
            if next == items.len() && in_flight.is_empty() {
                return out;
            }
            let now = Instant::now();
            if now > give_up {
                fail_rest(&mut out);
                return out;
            }
            let send_due = next < items.len() && in_flight.len() < WINDOW;
            let wait = if send_due {
                (t0 + items[next].at).saturating_duration_since(now)
            } else {
                Duration::from_millis(100)
            };
            if in_flight.is_empty() {
                std::thread::sleep(wait);
                continue;
            }
            if wait.is_zero() {
                continue;
            }
            let _ = stream.set_read_timeout(Some(wait));
            match stream.read(&mut readbuf) {
                Ok(0) => broken = true,
                Ok(n) => {
                    inbuf.extend_from_slice(&readbuf[..n]);
                    let done_at = Instant::now();
                    while let Some(p) = parse_response(&inbuf) {
                        inbuf.drain(..p.used);
                        let Some(i) = in_flight.pop_front() else { break };
                        let s = items[i];
                        out.dones.push(Done {
                            req: s.req,
                            status: p.status,
                            generation: p.generation,
                            latency_ms: done_at.saturating_duration_since(t0 + s.at).as_secs_f64()
                                * 1e3,
                            body: p.body,
                        });
                        if p.close {
                            // The server answers nothing after a close.
                            broken = true;
                            break;
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(_) => broken = true,
            }
        }
        if broken {
            inbuf.clear();
            reconnects += 1;
            let resent = reconnects <= MAX_RECONNECTS
                && connect(addr).is_some_and(|s| {
                    stream = s;
                    in_flight.iter().all(|&i| stream.write_all(&pool[items[i].req].bytes).is_ok())
                });
            if !resent {
                fail_rest(&mut out);
                return out;
            }
        }
    }
}

/// Predictions of a predict response body.
fn predictions(body: &[u8]) -> Option<Vec<f64>> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let preds: Option<Vec<f64>> =
        doc.get("predictions")?.as_array()?.iter().map(Value::as_f64).collect();
    let preds = preds?;
    (doc.get("count")?.as_f64()? == preds.len() as f64).then_some(preds)
}

/// Whether a predict response is right: 2xx, the request's row count,
/// and bitwise equal to in-process `predict_batch` on the generation it
/// names.
fn verify(done: &Done, req: &PoolReq, generations: &Generations) -> bool {
    if !(200..300).contains(&done.status) {
        return false;
    }
    let Some(got) = predictions(&done.body) else { return false };
    let expected = match req.expected.as_slice() {
        [only] => only,
        per_version => match done.generation.and_then(|g| generations.version_at(g)) {
            Some(v) => &per_version[v],
            None => return false,
        },
    };
    got.len() == req.rows.len()
        && got.len() == expected.len()
        && got.iter().zip(expected).all(|(a, b)| a.to_bits() == b.to_bits())
}

/// Results of one step.
struct Step {
    dones: Vec<Done>,
    lag: ScheduleLag,
    wall_s: f64,
}

impl Step {
    fn latencies_ms(&self) -> Vec<f64> {
        self.dones.iter().map(|d| d.latency_ms).collect()
    }
}

/// The open-loop send schedule of `secs` at `rate`; request `k` uses
/// pooled request `(first + k) % pool`.
fn schedule(rate: f64, secs: f64, first: usize, pool: usize) -> Vec<Sched> {
    let n = ((rate * secs).round() as usize).max(1);
    (0..n)
        .map(|k| Sched { at: Duration::from_secs_f64(k as f64 / rate), req: (first + k) % pool })
        .collect()
}

/// `n` requests all due at once: [`drive`] sends them back to back,
/// [`WINDOW`] in flight, so the server sets their rate.
fn back_to_back(n: usize, first: usize, pool: usize) -> Vec<Sched> {
    (0..n).map(|k| Sched { at: Duration::ZERO, req: (first + k) % pool }).collect()
}

/// A write the workload sends.
#[derive(Debug, Clone, Copy)]
enum WriteOp {
    /// `POST {LIVE}:train` with training set `n`.
    Train(usize),
    /// `POST /v1/admin/reload`.
    Reload,
}

/// One answered write.
struct WriteDone {
    kind: WriteOp,
    latency_ms: f64,
    ok: bool,
}

/// Sends `writes` one at a time on their own connection, each at its
/// scheduled offset from `t0` or as soon as the previous one is
/// answered: the writer is one administrator waiting on every reply (a
/// closed loop), so a write's latency runs from its actual send.
/// Returns the answers and, for each new generation, the training set
/// the retrained model holds from then on (`current` is the set it
/// holds before the first write). Opens no connection for no writes.
fn admin(
    addr: SocketAddr,
    live: &[TrainSet; 2],
    writes: &[(Duration, WriteOp)],
    t0: Instant,
    mut current: usize,
) -> (Vec<WriteDone>, Vec<(u64, usize)>) {
    let mut out = Vec::new();
    let mut published = Vec::new();
    if writes.is_empty() {
        return (out, published);
    }
    let reload = post("/v1/admin/reload", "");
    let mut stream = TcpStream::connect(addr).ok();
    if let Some(s) = &stream {
        let _ = s.set_nodelay(true);
        let _ = s.set_read_timeout(Some(Duration::from_secs(30)));
    }
    let mut buf = Vec::new();
    let mut readbuf = vec![0u8; 1 << 14];
    for &(at, kind) in writes {
        let due = t0 + at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let bytes = match kind {
            WriteOp::Train(n) => &live[n].request,
            WriteOp::Reload => &reload,
        };
        let sent = Instant::now();
        let mut answer = None;
        if let Some(s) = stream.as_mut() {
            if s.write_all(bytes).is_ok() {
                answer = loop {
                    if let Some(p) = parse_response(&buf) {
                        buf.drain(..p.used);
                        break Some(p);
                    }
                    match s.read(&mut readbuf) {
                        Ok(n) if n > 0 => buf.extend_from_slice(&readbuf[..n]),
                        _ => break None,
                    }
                };
            }
        }
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        let generation = answer.as_ref().filter(|p| p.status == 200).and_then(|p| {
            let doc = json::parse(std::str::from_utf8(&p.body).ok()?).ok()?;
            Some(doc.get("generation")?.as_f64()? as u64)
        });
        if let Some(g) = generation {
            // A reload republishes what the directory holds: the last
            // training set written.
            if let WriteOp::Train(n) = kind {
                current = n;
            }
            published.push((g, current));
        }
        out.push(WriteDone { kind, latency_ms, ok: generation.is_some() });
    }
    (out, published)
}

/// Every `WRITE_EVERY` within `secs`, alternately a `:train` (the
/// training sets alternate, starting from the one not yet served) and
/// a reload.
fn write_plan(secs: f64) -> Vec<(Duration, WriteOp)> {
    let n = (Duration::from_secs_f64(secs).as_nanos() / WRITE_EVERY.as_nanos()) as u32;
    (0..n)
        .map(|k| {
            let kind = if k % 2 == 0 {
                WriteOp::Train(((k / 2 + 1) % 2) as usize)
            } else {
                WriteOp::Reload
            };
            (WRITE_EVERY * k + WRITE_EVERY / 2, kind)
        })
        .collect()
}

/// One step: `plan` on one connection beside `writes` on another, each
/// from its own thread (the calling thread writes). Every response is
/// checked.
fn step(
    bench: &mut Bench,
    plan: &[Sched],
    writes: &[(Duration, WriteOp)],
    tally: &mut Tally,
) -> (Step, Vec<WriteDone>) {
    let current = bench.generations.0.last().map_or(0, |&(_, v)| v);
    let t0 = Instant::now() + Duration::from_millis(5);
    let (addr, pool, live) = (bench.addr, &bench.pool, &bench.live);
    let (reads, (written, published)) = std::thread::scope(|s| {
        let reads = s.spawn(move || drive(addr, pool, plan, t0));
        let writes = admin(addr, live, writes, t0, current);
        (reads.join().expect("generator thread panicked"), writes)
    });
    let wall_s = t0.elapsed().as_secs_f64();
    bench.generations.0.extend(published);
    for d in &reads.dones {
        tally.check(verify(d, &bench.pool[d.req], &bench.generations));
    }
    for w in &written {
        tally.check(w.ok);
    }
    (Step { dones: reads.dones, lag: reads.lag, wall_s }, written)
}

/// The open loop: `secs` of predicts at [`OPEN_RPS`] beside the writes.
fn open_loop(bench: &mut Bench, secs: f64, tally: &mut Tally) -> (Step, Vec<WriteDone>) {
    let plan = schedule(OPEN_RPS, secs, 0, bench.pool.len());
    step(bench, &plan, &write_plan(secs), tally)
}

/// [`SETUPS`] set-ups, each timed into `secs`; returns the last.
fn set_up(args: &Args, secs: &mut Vec<f64>, report: &mut Report) -> Option<Bench> {
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let (b, s) = stats::timed(|| setup(args.seed, FULL, &mut report.tally));
        secs.push(s);
        match b {
            Ok(b) => bench = Some(b),
            Err(e) => {
                eprintln!("perfbench: serve set-up failed: {e}");
                report.tally.check(false);
                return None;
            }
        }
    }
    bench
}

/// The `serve_mixed` workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let mut setup_secs = Vec::new();
    if args.trace {
        // The open loop untraced, then traced; the traced half feeds
        // the per-layer metrics.
        let Some(mut bench) = set_up(args, &mut setup_secs, &mut report) else { return report };
        let half = args.seconds * OPEN_SHARE / 2.0;
        let (plain, _) = open_loop(&mut bench, half, &mut report.tally);
        edm_trace::reset();
        edm_trace::set_level(edm_trace::Level::Summary);
        let (traced, written) = open_loop(&mut bench, half, &mut report.tally);
        let p50 = |s: &Step| stats::median(&s.latencies_ms());
        report.set("trace.overhead_pct", 100.0 * (p50(&traced) / p50(&plain) - 1.0));
        layer_metrics(&mut bench, &traced, written, &mut report);
        edm_trace::set_level(edm_trace::Level::Off);
        return report;
    }
    let open_s = args.seconds * OPEN_SHARE / SEGMENTS as f64;
    let closed_s = args.seconds * (1.0 - OPEN_SHARE) / SEGMENTS as f64;
    let (mut latencies, mut rates) = (Vec::new(), Vec::new());
    for _ in 0..SEGMENTS {
        let Some(mut bench) = set_up(args, &mut setup_secs, &mut report) else { return report };
        let (open, _) = open_loop(&mut bench, open_s, &mut report.tally);
        latencies.extend(open.latencies_ms());
        // Closed-loop rounds for the rest of the segment; each round's
        // rate counts only correct answers.
        let start = Instant::now();
        loop {
            let plan = back_to_back(CLOSED_REQUESTS, rates.len() * 7919, bench.pool.len());
            let failed = report.tally.failed;
            let (round, _) = step(&mut bench, &plan, &[], &mut report.tally);
            let ok = CLOSED_REQUESTS as u64 - (report.tally.failed - failed);
            rates.push(ok as f64 / round.wall_s);
            if start.elapsed().as_secs_f64() >= closed_s {
                break;
            }
        }
    }
    report.set("setup_s", stats::median(&setup_secs));
    report.set("p50_ms", stats::windowed_median(&latencies, MEDIAN_WINDOW));
    report.set("rate_per_s", stats::median(&rates));
    report
}

/// The serve layers at probe scale, for other workloads' traced runs
/// (tracing is already on).
pub fn probe(args: &Args) -> Report {
    let mut report = Report::default();
    let mut tally = Tally::default();
    let Ok(mut bench) = setup(args.seed, PROBE, &mut tally) else {
        report.tally.check(false);
        return report;
    };
    edm_trace::reset();
    let plan = schedule(400.0, 0.5, 0, bench.pool.len());
    let (traced, _) = step(&mut bench, &plan, &[], &mut tally);
    layer_metrics(&mut bench, &traced, Vec::new(), &mut report);
    report.tally.add(tally);
    report
}

/// Mean wall time of `reps` calls of `f`, microseconds per call: for
/// calls too short to time one by one.
fn per_call_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// Per-layer metrics of the serve path: replays of each layer's public
/// calls on the traced step's request and response bytes, the batch
/// families scraped from `/metrics`, and the write path.
fn layer_metrics(
    bench: &mut Bench,
    traced: &Step,
    mut written: Vec<WriteDone>,
    report: &mut Report,
) {
    report.set("bench.gen_lag_ms", traced.lag.median_ms());
    report.set("serve.p99_ms", stats::windowed_tail(&traced.latencies_ms(), TAIL_WINDOW));
    let scrape = metrics_scrape(bench.addr);
    report.set("serve.batch.rows_per_flush", scrape.rows_per_flush);
    report.set("serve.batch.wait_us", scrape.wait_us);
    report.set("serve.batch.coalesced_share", scrape.coalesced_share);
    report.set("serve.handle_p50_us", scrape.handle_p50_us);

    // Replays, one pooled request at a time, on the bytes the traced
    // step sent and received.
    let mut bodies: BTreeMap<usize, &[u8]> = BTreeMap::new();
    for d in traced.dones.iter().filter(|d| d.status == 200) {
        bodies.entry(d.req).or_insert(&d.body);
    }
    let shared = SharedRegistry::new(bench.registry.clone());
    let scheduler = BatchScheduler::new(BatchConfig::default());
    let metrics = ServeMetrics::new();
    let (
        mut read,
        mut parse,
        mut route,
        mut predict,
        mut overhead,
        mut encode,
        mut observe,
        mut sum,
    ) = (vec![], vec![], vec![], vec![], vec![], vec![], vec![], vec![]);
    for (&i, &body) in &bodies {
        let req = &bench.pool[i];
        let (request, read_s) = stats::timed(|| http::read_request(&mut &req.bytes[..], 1 << 20));
        let Ok(request) = request else {
            report.tally.check(false);
            continue;
        };
        let text = String::from_utf8_lossy(&request.body).into_owned();
        let (rows, parse_s) = stats::timed(|| json::parse_inputs_fast(&text));
        let route_us = per_call_us(100, || {
            std::hint::black_box(shared.snapshot().registry.get_entry(req.model));
        });
        // The retrained model lives only in the server's registry: its
        // requests are not replayed.
        let Some(model) = shared.snapshot().registry.get(req.model) else { continue };
        let Some(rows) = rows else {
            report.tally.check(false);
            continue;
        };
        let copy = rows.clone();
        let (_, predict_s) = stats::timed(|| std::hint::black_box(model.predict_batch(&rows)));
        let (scored, submit_s) =
            stats::timed(|| scheduler.submit(req.model, 1, &model, copy, &metrics));
        report.tally.check(scored.is_ok_and(|p| {
            p.iter().zip(&req.expected[0]).all(|(a, b)| a.to_bits() == b.to_bits())
                && p.len() == req.expected[0].len()
        }));
        let text = String::from_utf8_lossy(body).into_owned();
        let (_, encode_s) = stats::timed(|| {
            let mut resp = Response::json(200, text);
            resp.request_id = Some(i as u64);
            resp.model_generation = Some(1);
            std::hint::black_box(resp.to_bytes())
        });
        let observe_us = per_call_us(100, || metrics.observe("predict", req.model, 200, 1000));
        let us = |s: f64| s * 1e6;
        let layers = [us(read_s), us(parse_s), route_us, us(submit_s), us(encode_s), observe_us];
        read.push(layers[0]);
        parse.push(layers[1]);
        route.push(layers[2]);
        predict.push(us(predict_s));
        overhead.push(us(submit_s - predict_s));
        encode.push(layers[4]);
        observe.push(layers[5]);
        sum.push(layers.iter().sum());
    }
    report.set("serve.http.read_us", stats::median(&read));
    report.set("serve.json.parse_us", stats::median(&parse));
    report.set("serve.registry.route_us", stats::median(&route));
    report.set("serve.predict_us", stats::median(&predict));
    report.set("serve.batch.overhead_us", stats::median(&overhead));
    report.set("serve.http.encode_us", stats::median(&encode));
    report.set("serve.metrics.observe_us", stats::median(&observe));
    // What the replayed layers (read, parse, route, batch + predict,
    // encode, observe) do not explain of the server's own handling
    // time: socket writes, scheduling, and anything unreplayed.
    report.set("serve.unattributed_us", scrape.handle_p50_us - stats::median(&sum));
    let swaps: Vec<f64> = (0..64)
        .map(|_| {
            let next = bench.registry.clone();
            stats::timed(|| shared.swap(next)).1 * 1e6
        })
        .collect();
    report.set("serve.registry.swap_us", stats::median(&swaps));

    // The write path's layers, and its HTTP latencies.
    let ms = |s: f64| s * 1e3;
    let mut saved = Vec::new();
    let save: Vec<f64> = (0..5)
        .map(|_| {
            saved.clear();
            ms(stats::timed(|| bench.svc.save(&mut saved)).1)
        })
        .collect();
    let load: Vec<f64> = (0..5)
        .map(|_| {
            let (loaded, s) = stats::timed(|| edm::load_predictor_from_bytes(&saved));
            report.tally.check(loaded.is_ok());
            ms(s)
        })
        .collect();
    let scan: Vec<f64> = (0..5)
        .map(|_| {
            let (scanned, s) = stats::timed(|| ModelStore::new(&bench.dir).scan());
            report.tally.check(scanned.is_ok_and(|r| r.errors.is_empty() && r.models.len() == 1));
            ms(s)
        })
        .collect();
    let fit: Vec<f64> = (0..3)
        .map(|_| {
            let set = &bench.live[0];
            let (fitted, s) = stats::timed(|| edm::fit_family("svc", &set.x, &set.y));
            report.tally.check(fitted.is_ok());
            ms(s)
        })
        .collect();
    report.set("model_io.save_ms", stats::median(&save));
    report.set("model_io.load_ms", stats::median(&load));
    report.set("serve.store.scan_ms", stats::median(&scan));
    report.set("fit_family_ms", stats::median(&fit));
    if written.is_empty() {
        // No write stream ran: send a short fixed sequence.
        let plan: Vec<(Duration, WriteOp)> = (0..4)
            .flat_map(|k| {
                [(Duration::ZERO, WriteOp::Train((k + 1) % 2)), (Duration::ZERO, WriteOp::Reload)]
            })
            .collect();
        let current = bench.generations.0.last().map_or(0, |&(_, v)| v);
        let (out, published) = admin(bench.addr, &bench.live, &plan, Instant::now(), current);
        bench.generations.0.extend(published);
        written = out;
    }
    let (mut train, mut reload) = (Vec::new(), Vec::new());
    for w in &written {
        report.tally.check(w.ok);
        match w.kind {
            WriteOp::Train(_) => train.push(w.latency_ms),
            WriteOp::Reload => reload.push(w.latency_ms),
        }
    }
    report.set("http_train_p50_ms", stats::median(&train));
    report.set("http_reload_p50_ms", stats::median(&reload));
}

/// Batch and latency families read off `/metrics`.
#[derive(Debug, Default, PartialEq)]
struct Scrape {
    rows_per_flush: f64,
    wait_us: f64,
    coalesced_share: f64,
    handle_p50_us: f64,
}

fn metrics_scrape(addr: SocketAddr) -> Scrape {
    let mut text = String::new();
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = s.set_read_timeout(Some(Duration::from_secs(10)));
        let req = b"GET /metrics HTTP/1.1\r\nhost: perfbench\r\nconnection: close\r\n\r\n";
        if s.write_all(req).is_ok() {
            let _ = s.read_to_string(&mut text);
        }
    }
    parse_scrape(&text)
}

/// Value of a sample line `name{labels} value`.
fn sample_value(line: &str) -> Option<f64> {
    line.rsplit(' ').next()?.parse().ok()
}

fn label<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("{key}=\""))? + key.len() + 2;
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn parse_scrape(text: &str) -> Scrape {
    let sum = |prefix: &str| -> f64 {
        text.lines().filter(|l| l.starts_with(prefix)).filter_map(sample_value).sum()
    };
    let flushes = sum("edm_serve_batches_total{");
    let predicts = sum("edm_serve_requests_total{endpoint=\"predict\"");
    let waits = sum("edm_serve_batch_wait_ns_count");
    // Server-side handling time of predicts: merge the per-model
    // cumulative latency buckets and interpolate the median.
    let mut cells: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| l.starts_with("edm_serve_request_latency_ns_bucket{endpoint=\"predict\""))
    {
        let (Some(model), Some(le), Some(count)) =
            (label(line, "model"), label(line, "le"), sample_value(line))
        else {
            continue;
        };
        if let Ok(le) = le.parse::<f64>() {
            cells.entry(model.to_string()).or_default().push((le, count));
        }
    }
    let mut buckets: BTreeMap<u64, f64> = BTreeMap::new();
    for series in cells.values() {
        let mut below = 0.0;
        for &(le, cumulative) in series {
            *buckets.entry(le.to_bits()).or_default() += cumulative - below;
            below = cumulative;
        }
    }
    Scrape {
        rows_per_flush: sum("edm_serve_batch_rows_total") / flushes.max(1.0),
        wait_us: sum("edm_serve_batch_wait_ns_sum") / waits.max(1.0) / 1e3,
        coalesced_share: sum("edm_serve_coalesced_requests_total") / predicts.max(1.0),
        handle_p50_us: bucket_median(
            &buckets.iter().map(|(&b, &c)| (f64::from_bits(b), c)).collect::<Vec<_>>(),
        ) / 1e3,
    }
}

/// Median of a histogram given as `(upper edge, count)` buckets in
/// ascending order, interpolated linearly inside its bucket (the first
/// bucket's lower edge taken as 0).
fn bucket_median(buckets: &[(f64, f64)]) -> f64 {
    let total: f64 = buckets.iter().map(|&(_, c)| c).sum();
    let mut below = 0.0;
    let mut lower = 0.0;
    for &(upper, count) in buckets {
        if count > 0.0 && below + count >= total / 2.0 {
            return lower + (upper - lower) * (total / 2.0 - below) / count;
        }
        below += count;
        lower = upper;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_req(model: &'static str, expected: Vec<Vec<f64>>) -> PoolReq {
        let rows = vec![vec![0.0; DIM]; expected[0].len()];
        PoolReq { model, rows, bytes: Vec::new(), expected }
    }

    fn done(status: u16, generation: Option<u64>, body: &str) -> Done {
        Done { req: 0, status, generation, latency_ms: 1.0, body: body.as_bytes().to_vec() }
    }

    #[test]
    fn responses_are_checked_bitwise_against_their_generation() {
        let ok = "{\"model\":\"svc\",\"family\":\"svc\",\"count\":2.0,\"predictions\":[1.0,-1.0]}";
        let req = pool_req("svc", vec![vec![1.0, -1.0]]);
        let gens = Generations(vec![(1, 0)]);
        assert!(verify(&done(200, Some(1), ok), &req, &gens));
        // A corrupted prediction, a wrong count, or a non-2xx status all
        // fail, and so count toward `error_rate`.
        let corrupted = ok.replace("-1.0]", "-1.0000000000000002]");
        assert!(!verify(&done(200, Some(1), &corrupted), &req, &gens));
        assert!(!verify(&done(200, Some(1), &ok.replace("2.0,", "3.0,")), &req, &gens));
        assert!(!verify(&done(503, Some(1), ok), &req, &gens));
        let mut tally = Tally::default();
        tally.check(verify(&done(200, Some(1), &corrupted), &req, &gens));
        assert_eq!(tally.error_rate(), 1.0);

        // The retrained model: the generation picks the expected set.
        let live = pool_req(LIVE, vec![vec![1.0, 1.0], vec![1.0, -1.0]]);
        let gens = Generations(vec![(1, 0), (3, 1), (4, 1), (5, 0)]);
        assert!(!verify(&done(200, Some(2), ok), &live, &gens), "generation 2 serves set 0");
        assert!(verify(&done(200, Some(4), ok), &live, &gens));
        assert!(!verify(&done(200, None, ok), &live, &gens), "no generation header");
    }

    #[test]
    fn responses_are_framed_by_content_length() {
        let two = b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\nX-Model-Generation: 7\r\n\r\n{}HTTP/1.1 503 Busy\r\ncontent-length: 0\r\n\r\n";
        let first = parse_response(two).expect("complete");
        assert_eq!(
            (first.status, first.generation, first.body.as_slice()),
            (200, Some(7), &b"{}"[..])
        );
        let second = parse_response(&two[first.used..]).expect("complete");
        assert_eq!((second.status, second.used), (503, two.len() - first.used));
        assert!(parse_response(&two[..first.used - 1]).is_none(), "body not yet complete");
    }

    #[test]
    fn schedules_pace_or_release_requests() {
        let plan = schedule(1000.0, 0.01, 5, 8);
        assert_eq!(plan.len(), 10);
        assert_eq!(plan[1].at, Duration::from_millis(1));
        assert_eq!(plan[4].at, Duration::from_millis(4));
        assert_eq!(plan[3].req, (5 + 3) % 8);
        let burst = back_to_back(10, 5, 8);
        assert!(burst.iter().all(|s| s.at == Duration::ZERO));
        assert_eq!(burst.iter().map(|s| s.req).collect::<Vec<_>>(), [5, 6, 7, 0, 1, 2, 3, 4, 5, 6]);
        let writes = write_plan(1.3);
        assert_eq!(writes.len(), 3);
        assert!(matches!(writes[0].1, WriteOp::Train(1)));
        assert!(matches!(writes[1].1, WriteOp::Reload));
        assert!(matches!(writes[2].1, WriteOp::Train(0)));
    }

    #[test]
    fn scrape_reads_batch_families_and_the_handling_median() {
        let text = "edm_serve_requests_total{endpoint=\"predict\",model=\"svc\",status=\"200\"} 8\n\
                    edm_serve_batches_total{reason=\"drain\"} 1\n\
                    edm_serve_batches_total{reason=\"inline\"} 3\n\
                    edm_serve_batch_rows_total 40\n\
                    edm_serve_coalesced_requests_total 2\n\
                    edm_serve_batch_wait_ns_sum 8000\n\
                    edm_serve_batch_wait_ns_count 4\n\
                    edm_serve_request_latency_ns_bucket{endpoint=\"predict\",model=\"a\",le=\"100.0\"} 2\n\
                    edm_serve_request_latency_ns_bucket{endpoint=\"predict\",model=\"a\",le=\"200.0\"} 4\n\
                    edm_serve_request_latency_ns_bucket{endpoint=\"predict\",model=\"a\",le=\"+Inf\"} 4\n\
                    edm_serve_request_latency_ns_bucket{endpoint=\"predict\",model=\"b\",le=\"200.0\"} 4\n";
        let s = parse_scrape(text);
        assert_eq!(s.rows_per_flush, 10.0);
        assert_eq!(s.wait_us, 2.0);
        assert_eq!(s.coalesced_share, 0.25);
        // Merged buckets: 2 below 100 ns, 6 in (100, 200]; the median
        // (4th of 8) sits a third of the way into the second bucket.
        assert!((s.handle_p50_us * 1e3 - (100.0 + 100.0 * 2.0 / 6.0)).abs() < 1e-9);
        assert_eq!(bucket_median(&[]), 0.0);
    }

    #[test]
    fn generations_map_to_the_training_set_they_publish() {
        let gens = Generations(vec![(1, 0), (2, 1), (3, 1), (4, 0)]);
        assert_eq!(gens.version_at(1), Some(0));
        assert_eq!(gens.version_at(3), Some(1));
        assert_eq!(gens.version_at(9), Some(0));
        assert_eq!(gens.version_at(0), None);
    }
}

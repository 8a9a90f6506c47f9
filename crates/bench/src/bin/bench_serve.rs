//! Load harness for the `edm-serve` scoring service. Emits
//! `BENCH_serve.json` in the working directory.
//!
//! Measurements against live servers on ephemeral loopback ports:
//!
//! * **keep-alive closed loop** — persistent connections, each client
//!   issuing framed requests back-to-back (one in flight); sustained
//!   rps is compared against the PR 7 connection-per-request baseline
//!   (2937.3 rps on this harness);
//! * **pipelined keep-alive closed loop** — the peak-throughput
//!   headline: each connection keeps a window of requests in flight
//!   (HTTP/1.1 pipelining), eliminating the per-request round-trip
//!   wait;
//! * **legacy closed loop** — connection-per-request, with **connect
//!   time and request time reported as separate distributions** (the
//!   old harness conflated them, hiding the server-side cost);
//! * **open loop** — an arrival-rate sweep over pipelined keep-alive
//!   connections; requests are sent on a fixed schedule and latency is
//!   measured from the *scheduled* send time (coordinated-omission
//!   free), reporting the saturation knee = the highest offered rate
//!   with achieved ≥ 0.95 × offered;
//! * **micro-batch coalescing** — concurrent clients against a slow
//!   model must produce coalesced `predict_batch` flushes, visible in
//!   `/metrics` and `/v1/trace`;
//! * **admission tiers** — a quota'd slow model under a hot client
//!   swarm returns tier 503s while an untiered model keeps serving;
//! * a correctness probe: predictions served over HTTP are bitwise
//!   identical to the in-process `predict_batch` path;
//! * deterministic queue-full backpressure (one worker, one slot) and
//!   mid-run `/metrics` + `/v1/trace` liveness checks.
//!
//! `--quick` shrinks the request counts for CI smoke use.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use edm::prelude::*;
use edm_serve::json::{self, Value};
use edm_serve::{AdmissionTier, ModelRegistry, Server, ServerConfig};

const DIM: usize = 8;
const TRAIN_N: usize = 240;
/// Rows per scoring request.
const BATCH: usize = 16;
/// Concurrent closed-loop clients (and keep-alive connections).
const CLIENTS: usize = 8;
/// PR 7 sustained rps on this harness (connection-per-request).
const PR7_BASELINE_RPS: f64 = 2937.3;

/// Deterministic SplitMix64 stream.
struct Mix(u64);

impl Mix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    }
}

fn points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut m = Mix(seed);
    (0..n).map(|_| (0..d).map(|_| m.next_f64()).collect()).collect()
}

/// Two separable blobs with ±1 labels.
fn blobs(seed: u64, n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = points(seed, n, DIM);
    let y: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
    for (xi, &yi) in x.iter_mut().zip(&y) {
        for v in xi.iter_mut() {
            *v += yi * 1.3;
        }
    }
    (x, y)
}

fn predict_body(rows: &[Vec<f64>]) -> String {
    let inputs = Value::Array(
        rows.iter().map(|r| Value::Array(r.iter().map(|&v| Value::Number(v)).collect())).collect(),
    );
    Value::Object(vec![("inputs".to_string(), inputs)]).encode()
}

fn predict_request(path: &str, body: &str) -> String {
    format!("POST {path} HTTP/1.1\r\nhost: bench\r\ncontent-length: {}\r\n\r\n{body}", body.len())
}

/// Runs `f(0..n)` on `n` plain scoped threads and collects the results
/// in index order. The load phases use this instead of
/// `edm_par::map_indexed` on purpose: load clients must all start at
/// once, while `map_indexed` runs jobs on the calling thread and forks
/// only when its estimate says the remaining work pays for it — so
/// clients would start one after another. (Server-side flushes run on
/// `WorkerPool` workers and never fan out, whatever `EDM_NUM_THREADS`
/// says.)
fn fan_out<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let f = &f;
    // edm-allow(direct-thread-spawn): load clients must all run at once, not when a fork pays
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n).map(|i| s.spawn(move || f(i))).collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    })
}

/// Parses the leading unsigned integer of `bytes` (after skipping
/// blanks), e.g. the status code after `HTTP/1.1 ` or a
/// `content-length` value.
fn leading_uint(bytes: &[u8]) -> u64 {
    let mut v = 0u64;
    let mut seen = false;
    for &b in bytes {
        match b {
            b'0'..=b'9' => {
                v = v * 10 + u64::from(b - b'0');
                seen = true;
            }
            b' ' | b'\t' if !seen => {}
            _ => break,
        }
    }
    v
}

/// Reads one `content-length`-framed response off a keep-alive stream,
/// discarding the body without copying it. `line` is caller-owned
/// scratch so the hot loop does no per-response allocation. Returns the
/// status code.
fn read_framed<R: BufRead>(reader: &mut R, line: &mut Vec<u8>) -> std::io::Result<u16> {
    let mut status = 0u16;
    let mut content_length = 0usize;
    loop {
        line.clear();
        let n = reader.read_until(b'\n', line)?;
        if n == 0 {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "EOF in headers"));
        }
        let mut end = line.len();
        while end > 0 && (line[end - 1] == b'\n' || line[end - 1] == b'\r') {
            end -= 1;
        }
        let l = &line[..end];
        if l.is_empty() {
            break;
        }
        if status == 0 && l.starts_with(b"HTTP/") {
            let after = l.iter().position(|&b| b == b' ').map_or(l.len(), |i| i + 1);
            status = leading_uint(&l[after..]) as u16;
        } else if l.len() > 15 && l[..15].eq_ignore_ascii_case(b"content-length:") {
            content_length = leading_uint(&l[15..]) as usize;
        }
    }
    // Skip the body straight out of the BufReader's buffer.
    let mut remaining = content_length;
    while remaining > 0 {
        let available = reader.fill_buf()?;
        if available.is_empty() {
            return Err(std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "EOF in body"));
        }
        let take = available.len().min(remaining);
        reader.consume(take);
        remaining -= take;
    }
    Ok(status)
}

/// One connection-per-request exchange with split timings; returns
/// `(status, body, connect_ns, request_ns)`. Socket failures come back
/// as status 0 so a load phase never panics mid-measurement.
fn exchange(addr: SocketAddr, request: &str) -> (u16, String, u64, u64) {
    let t0 = Instant::now();
    let stream = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(_) => return (0, String::new(), t0.elapsed().as_nanos() as u64, 0),
    };
    let connect_ns = t0.elapsed().as_nanos() as u64;
    let t1 = Instant::now();
    let run = |mut stream: TcpStream| -> std::io::Result<String> {
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(request.as_bytes())?;
        let mut response = String::new();
        stream.read_to_string(&mut response)?;
        Ok(response)
    };
    let response = match run(stream) {
        Ok(r) => r,
        Err(_) => return (0, String::new(), connect_ns, t1.elapsed().as_nanos() as u64),
    };
    let request_ns = t1.elapsed().as_nanos() as u64;
    let status = response.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let body = response.split_once("\r\n\r\n").map_or(String::new(), |(_, b)| b.to_string());
    (status, body, connect_ns, request_ns)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    let (s, b, _, _) =
        exchange(addr, &format!("GET {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\r\n"));
    (s, b)
}

fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
    let raw = format!(
        "POST {path} HTTP/1.1\r\nhost: bench\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let (s, b, _, _) = exchange(addr, &raw);
    (s, b)
}

/// Value of the first exposition line starting with `prefix`
/// (`name{labels} value`), if any.
fn metric_value(body: &str, prefix: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(prefix))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

/// Sum of every exposition line starting with `prefix`.
fn metric_sum(body: &str, prefix: &str) -> f64 {
    body.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
        .sum()
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx.min(sorted_ms.len() - 1)]
}

fn sorted_ms(ns: impl Iterator<Item = u64>) -> Vec<f64> {
    let mut v: Vec<f64> = ns.map(|n| n as f64 / 1e6).collect();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    v
}

/// Outcome of one closed-loop keep-alive run.
struct ClosedLoop {
    statuses: Vec<u16>,
    latencies_ns: Vec<u64>,
    wall_s: f64,
}

/// `clients` persistent connections, each issuing `per_client`
/// framed requests back-to-back.
fn run_keepalive_closed_loop(
    addr: SocketAddr,
    request: &str,
    clients: usize,
    per_client: usize,
) -> ClosedLoop {
    let t0 = Instant::now();
    let per: Vec<Vec<(u16, u64)>> = fan_out(clients, |_| {
        let Ok(stream) = TcpStream::connect(addr) else {
            return vec![(0u16, 0u64); per_client];
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let Ok(read_half) = stream.try_clone() else {
            return vec![(0u16, 0u64); per_client];
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut line = Vec::new();
        (0..per_client)
            .map(|_| {
                let t = Instant::now();
                if writer.write_all(request.as_bytes()).is_err() {
                    return (0u16, 0u64);
                }
                match read_framed(&mut reader, &mut line) {
                    Ok(status) => (status, t.elapsed().as_nanos() as u64),
                    Err(_) => (0u16, 0u64),
                }
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut statuses = Vec::new();
    let mut latencies_ns = Vec::new();
    for conn in per {
        for (s, ns) in conn {
            statuses.push(s);
            latencies_ns.push(ns);
        }
    }
    ClosedLoop { statuses, latencies_ns, wall_s }
}

/// Pipelined closed loop: each connection keeps up to `window` requests
/// in flight (HTTP/1.1 pipelining), writing refill bursts as single
/// syscalls once the window half-drains. This removes the per-request
/// client↔server round-trip wait of the strict closed loop and keeps
/// the server's connection readers always hot, so it measures peak
/// server throughput; per-request latency is meaningless here (it is
/// dominated by the client's own queue) and is not reported.
fn run_pipelined_closed_loop(
    addr: SocketAddr,
    request: &str,
    clients: usize,
    per_client: usize,
    window: usize,
) -> (usize, f64) {
    let burst: Vec<u8> = request.as_bytes().repeat(window);
    let req_len = request.len();
    let t0 = Instant::now();
    let ok_per_conn: Vec<usize> = fan_out(clients, |_| {
        let Ok(stream) = TcpStream::connect(addr) else { return 0 };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let Ok(read_half) = stream.try_clone() else { return 0 };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut line = Vec::new();
        let (mut sent, mut done, mut ok) = (0usize, 0usize, 0usize);
        while done < per_client {
            let in_flight = sent - done;
            if sent < per_client && in_flight <= window / 2 {
                let n = (window - in_flight).min(per_client - sent);
                if writer.write_all(&burst[..n * req_len]).is_err() {
                    return ok;
                }
                sent += n;
            }
            match read_framed(&mut reader, &mut line) {
                Ok(200) => {
                    ok += 1;
                    done += 1;
                }
                Ok(_) => done += 1,
                Err(_) => return ok,
            }
        }
        ok
    });
    (ok_per_conn.iter().sum(), t0.elapsed().as_secs_f64())
}

/// One open-loop sweep step at `offered_rps` across `conns` pipelined
/// keep-alive connections for ~`duration`. Latency is measured from the
/// scheduled send time.
struct OpenLoopStep {
    offered_rps: f64,
    achieved_rps: f64,
    delivered: usize,
    sent: usize,
    p50_ms: f64,
    p99_ms: f64,
}

fn run_open_loop_step(
    addr: SocketAddr,
    request: &str,
    conns: usize,
    offered_rps: f64,
    duration: Duration,
) -> OpenLoopStep {
    let per_conn_rate = offered_rps / conns as f64;
    let count = ((per_conn_rate * duration.as_secs_f64()).round() as usize).max(1);
    let offered_actual = count as f64 * conns as f64 / duration.as_secs_f64();
    let streams: Vec<TcpStream> = (0..conns)
        .map(|_| {
            let s = TcpStream::connect(addr).expect("open-loop connect");
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(Duration::from_secs(30))).expect("timeout");
            s
        })
        .collect();
    let t0 = Instant::now();
    // Jobs 0..conns write on a fixed schedule; jobs conns..2*conns read
    // framed responses off the same sockets and stamp completion times.
    // Writers use catch-up pacing: sleep until the next unsent request
    // is due, then send *every* request already due in one burst — on a
    // contended host this avoids a sleep/wake cycle per request while
    // keeping the schedule (latency is still measured from the
    // scheduled send time, so bursts cannot hide queueing).
    let outcomes: Vec<Vec<(u16, u64)>> = fan_out(2 * conns, |job| {
        if job < conns {
            let mut stream = &streams[job];
            let mut sent = 0usize;
            'writer: while sent < count {
                let due = ((t0.elapsed().as_secs_f64() * per_conn_rate) as usize + 1).min(count);
                while sent < due {
                    if stream.write_all(request.as_bytes()).is_err() {
                        break 'writer;
                    }
                    sent += 1;
                }
                if sent < count {
                    let next = t0 + Duration::from_secs_f64(sent as f64 / per_conn_rate);
                    let now = Instant::now();
                    if next > now {
                        std::thread::sleep(next - now);
                    }
                }
            }
            Vec::new()
        } else {
            let mut reader = BufReader::new(&streams[job - conns]);
            let mut line = Vec::new();
            (0..count)
                .map(|_| match read_framed(&mut reader, &mut line) {
                    Ok(status) => (status, t0.elapsed().as_nanos() as u64),
                    Err(_) => (0u16, 0u64),
                })
                .collect()
        }
    });
    let mut latencies_ns: Vec<u64> = Vec::new();
    let mut delivered = 0usize;
    let mut last_completion_ns = 0u64;
    for conn_events in outcomes.iter().filter(|v| !v.is_empty()) {
        for (k, &(status, completion_ns)) in conn_events.iter().enumerate() {
            if status != 200 {
                continue;
            }
            delivered += 1;
            last_completion_ns = last_completion_ns.max(completion_ns);
            let sched_ns = (k as f64 / per_conn_rate * 1e9) as u64;
            latencies_ns.push(completion_ns.saturating_sub(sched_ns));
        }
    }
    let lat_ms = sorted_ms(latencies_ns.into_iter());
    let elapsed_s = (last_completion_ns as f64 / 1e9).max(duration.as_secs_f64());
    OpenLoopStep {
        offered_rps: offered_actual,
        achieved_rps: delivered as f64 / elapsed_s,
        delivered,
        sent: count * conns,
        p50_ms: percentile(&lat_ms, 0.50),
        p99_ms: percentile(&lat_ms, 0.99),
    }
}

/// A deliberately slow predictor (deterministic spin) so the
/// backpressure / coalescing / tier phases can saturate a server.
struct SpinPredictor {
    spin_iters: u64,
}

impl Predictor for SpinPredictor {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, edm::Error> {
        let mut acc = 0.0f64;
        for i in 0..self.spin_iters {
            acc += (i as f64).sqrt();
        }
        Ok(vec![acc.fract(); xs.len()])
    }

    fn n_features(&self) -> usize {
        DIM
    }

    fn name(&self) -> &'static str {
        "spin"
    }
}

#[allow(clippy::too_many_lines)]
fn main() {
    edm_bench::init_trace();
    let quick = std::env::args().any(|a| a == "--quick");
    let ka_requests = if quick { 480 } else { 12_000 };
    let legacy_requests = if quick { 64 } else { 640 };
    let burst = if quick { 32 } else { 96 };
    let sweep_duration = Duration::from_secs_f64(if quick { 0.4 } else { 1.2 });
    let mut claims = Vec::new();

    edm_bench::header("edm-serve scoring service");
    println!(
        "d = {DIM}, batch = {BATCH} rows/request, clients = {CLIENTS}, \
         keepalive requests = {ka_requests}, legacy requests = {legacy_requests}, quick = {quick}"
    );

    // --- server with real models ------------------------------------
    let (x, y) = blobs(3, TRAIN_N);
    let svc = SvcTrainer::new(SvcParams::default())
        .kernel(RbfKernel::new(0.4))
        .fit(&x, &y)
        .expect("separable blobs train");
    let ridge = Ridge::fit(&x, &y, 0.1).expect("ridge fits");
    let queries = points(11, BATCH, DIM);
    let expected = svc.predict_batch(&queries);

    let mut reg = ModelRegistry::new();
    reg.register("svc", svc).expect("register svc");
    reg.register("ridge", ridge).expect("register ridge");
    // Keep-alive pins one worker per connection: size the pool to the
    // connection count, not the request count.
    let config =
        ServerConfig { workers: 2 * CLIENTS + 2, queue_capacity: 64, ..ServerConfig::default() };
    let server = Server::start("127.0.0.1:0", reg, config).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let body = predict_body(&queries);
    let request = predict_request("/v1/models/svc:predict", &body);

    // Wire-format correctness probe before any load.
    let (status, resp_body) = post(addr, "/v1/models/svc:predict", &body);
    let served: Vec<f64> = json::parse(&resp_body)
        .ok()
        .and_then(|doc| {
            doc.get("predictions")
                .and_then(Value::as_array)
                .map(|preds| preds.iter().filter_map(Value::as_f64).collect())
        })
        .unwrap_or_default();
    let bitwise = status == 200
        && served.len() == expected.len()
        && served.iter().zip(&expected).all(|(s, e)| s.to_bits() == e.to_bits());
    claims.push(edm_bench::claim(
        "HTTP predictions are bitwise equal to in-process scoring",
        bitwise,
    ));

    // --- legacy closed loop: connection per request -----------------
    let legacy_request = format!(
        "POST /v1/models/svc:predict HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{body}",
        body.len()
    );
    for _ in 0..CLIENTS {
        let (s, _, _, _) = exchange(addr, &legacy_request);
        assert_eq!(s, 200, "legacy warmup request failed");
    }
    let t0 = Instant::now();
    // CLIENTS concurrent clients, each opening a fresh connection per
    // request and splitting the total request count evenly.
    let legacy: Vec<(u16, u64, u64)> = fan_out(CLIENTS, |c| {
        let share = legacy_requests / CLIENTS + usize::from(c < legacy_requests % CLIENTS);
        (0..share)
            .map(|_| {
                let (status, _, connect_ns, request_ns) = exchange(addr, &legacy_request);
                (status, connect_ns, request_ns)
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let legacy_wall_s = t0.elapsed().as_secs_f64();
    let legacy_ok = legacy.iter().filter(|(s, _, _)| *s == 200).count();
    let legacy_rps = legacy_requests as f64 / legacy_wall_s;
    let connect_ms = sorted_ms(legacy.iter().map(|(_, c, _)| *c));
    let req_ms = sorted_ms(legacy.iter().map(|(_, _, r)| *r));
    let (connect_p50, connect_p99) = (percentile(&connect_ms, 0.5), percentile(&connect_ms, 0.99));
    let (req_p50, req_p99) = (percentile(&req_ms, 0.5), percentile(&req_ms, 0.99));
    println!(
        "legacy closed loop: {legacy_ok}/{legacy_requests} ok | {legacy_rps:9.1} req/s | \
         connect p50 {connect_p50:6.3} ms p99 {connect_p99:6.3} ms | \
         request p50 {req_p50:6.3} ms p99 {req_p99:6.3} ms"
    );

    // --- keep-alive closed loop (headline) --------------------------
    // Two halves with a /metrics scrape between them so the labeled
    // per-model series are proven live *mid-run*.
    let half = ka_requests / 2 / CLIENTS;
    let first = run_keepalive_closed_loop(addr, &request, CLIENTS, half);
    let (mid_status, mid_metrics) = get(addr, "/metrics");
    let mid_count = metric_value(
        &mid_metrics,
        "edm_serve_requests_total{endpoint=\"predict\",model=\"svc\",status=\"200\"}",
    )
    .unwrap_or(0.0);
    let mid_window_p50 = metric_value(
        &mid_metrics,
        "edm_serve_latency_quantile_ms{endpoint=\"predict\",model=\"svc\",window=\"60s\",quantile=\"0.5\"}",
    );
    let mid_run_scrape_ok = mid_status == 200
        && mid_count >= (half * CLIENTS) as f64
        && mid_window_p50.is_some_and(|v| v > 0.0);
    println!(
        "mid-run /metrics: status {mid_status}, predict×svc 200s = {mid_count:.0}, \
         rolling-window p50 = {mid_window_p50:?} ms"
    );
    let second = run_keepalive_closed_loop(addr, &request, CLIENTS, half);
    let ka_total = 2 * half * CLIENTS;
    let ka_ok = first.statuses.iter().chain(&second.statuses).filter(|&&s| s == 200).count();
    let ka_wall_s = first.wall_s + second.wall_s;
    let sustained_rps = ka_total as f64 / ka_wall_s;
    let ka_ms = sorted_ms(
        first.latencies_ns.iter().chain(&second.latencies_ns).copied().filter(|&n| n > 0),
    );
    let p50_ms = percentile(&ka_ms, 0.50);
    let p99_ms = percentile(&ka_ms, 0.99);
    let speedup = sustained_rps / PR7_BASELINE_RPS;
    println!(
        "keep-alive closed loop: {ka_ok}/{ka_total} ok | {sustained_rps:9.1} req/s sustained \
         ({speedup:.2}x PR7 baseline {PR7_BASELINE_RPS}) | p50 {p50_ms:7.3} ms | p99 {p99_ms:7.3} ms"
    );
    claims.push(edm_bench::claim(
        "every keep-alive load request scored (no drops)",
        ka_ok == ka_total,
    ));
    claims.push(edm_bench::claim(
        "keep-alive sustained throughput is positive and finite",
        sustained_rps.is_finite() && sustained_rps > 0.0,
    ));
    let rows_per_s = sustained_rps * BATCH as f64;

    // --- pipelined keep-alive closed loop (peak throughput) ----------
    // Twice the strict-loop connection count: pipelined clients spend
    // most of their time parked in `read`, and more connections let the
    // micro-batch scheduler coalesce deeper per flush.
    const PIPELINE_WINDOW: usize = 32;
    let pipe_conns = CLIENTS;
    let pipe_per_client = ka_requests / pipe_conns;
    let (pipe_ok, pipe_wall_s) =
        run_pipelined_closed_loop(addr, &request, pipe_conns, pipe_per_client, PIPELINE_WINDOW);
    let pipe_total = pipe_per_client * pipe_conns;
    let pipelined_rps = pipe_total as f64 / pipe_wall_s;
    let pipe_speedup = pipelined_rps / PR7_BASELINE_RPS;
    println!(
        "pipelined keep-alive ({pipe_conns} conns, window {PIPELINE_WINDOW}): \
         {pipe_ok}/{pipe_total} ok | {pipelined_rps:9.1} req/s sustained \
         ({pipe_speedup:.2}x PR7 baseline)"
    );
    claims.push(edm_bench::claim(
        "every pipelined keep-alive request scored (no drops)",
        pipe_ok == pipe_total,
    ));
    let best_rps = sustained_rps.max(pipelined_rps);
    let best_speedup = best_rps / PR7_BASELINE_RPS;

    // --- open-loop arrival-rate sweep -------------------------------
    edm_bench::header("open-loop arrival sweep");
    let factors: &[f64] = if quick { &[0.5, 0.8, 1.1] } else { &[0.3, 0.5, 0.7, 0.85, 1.0, 1.15] };
    let mut sweep = Vec::new();
    let mut knee_rps = 0.0f64;
    for &f in factors {
        let offered = best_rps * f;
        let step = run_open_loop_step(addr, &request, CLIENTS, offered, sweep_duration);
        println!(
            "offered {:9.1} req/s -> achieved {:9.1} req/s | delivered {}/{} | \
             p50 {:7.3} ms | p99 {:7.3} ms",
            step.offered_rps,
            step.achieved_rps,
            step.delivered,
            step.sent,
            step.p50_ms,
            step.p99_ms
        );
        if step.achieved_rps >= 0.95 * step.offered_rps {
            knee_rps = knee_rps.max(step.offered_rps);
        }
        sweep.push(step);
    }
    let knee_found = knee_rps > 0.0;
    println!("saturation knee: {knee_rps:.1} req/s (achieved >= 0.95 x offered)");
    claims.push(edm_bench::claim("open-loop sweep found a saturation knee", knee_found));

    // --- server-side telemetry cross-checks -------------------------
    let (metrics_status, metrics_body) = get(addr, "/metrics");
    let openmetrics_ok = metrics_status == 200 && metrics_body.ends_with("# EOF\n");
    claims.push(edm_bench::claim("/metrics is OpenMetrics text ending in # EOF", openmetrics_ok));
    claims.push(edm_bench::claim(
        "mid-run /metrics exposed live labeled predict×svc series",
        mid_run_scrape_ok,
    ));
    let svc_series = "edm_serve_latency_quantile_ms{endpoint=\"predict\",model=\"svc\"";
    let server_p50_ms = metric_value(
        &metrics_body,
        &format!("{svc_series},window=\"lifetime\",quantile=\"0.5\"}}"),
    )
    .unwrap_or(0.0);
    let server_p99_ms = metric_value(
        &metrics_body,
        &format!("{svc_series},window=\"lifetime\",quantile=\"0.99\"}}"),
    )
    .unwrap_or(0.0);
    let server_count = metric_value(
        &metrics_body,
        "edm_serve_request_latency_ns_count{endpoint=\"predict\",model=\"svc\"}",
    )
    .unwrap_or(0.0);
    // The server times request handling only; its p50 must be positive
    // and within one decilog bucket (~26%) + slack of the client's
    // keep-alive p50 (which excludes connect but includes the wire).
    let latency_cross_check = server_p50_ms > 0.0
        && server_p50_ms <= p50_ms * 1.26 + 1.0
        && server_count >= ka_total as f64;
    println!(
        "latency cross-check: server p50 {server_p50_ms:.3} ms vs client keep-alive p50 \
         {p50_ms:.3} ms | server series count {server_count:.0}"
    );
    claims.push(edm_bench::claim(
        "server-side per-model latency agrees with client measurements (within tolerance)",
        latency_cross_check,
    ));
    let (trace_status, trace_body) = get(addr, "/v1/trace");
    let trace_endpoint_ok = trace_status == 200
        && json::parse(&trace_body).ok().is_some_and(|doc| doc.get("level").is_some());
    claims.push(edm_bench::claim(
        "/v1/trace returns a live report our own JSON parser accepts",
        trace_endpoint_ok,
    ));
    let (models_status, _) = get(addr, "/v1/models");
    claims.push(edm_bench::claim("/v1/models answers 200 under no load", models_status == 200));
    server.shutdown();

    // --- micro-batch coalescing under a slow model ------------------
    edm_bench::header("micro-batch coalescing: slow model, concurrent clients");
    let mut coal_reg = ModelRegistry::new();
    let coal_iters = if quick { 400_000 } else { 1_000_000 };
    coal_reg.register("spin", SpinPredictor { spin_iters: coal_iters }).expect("register spin");
    let coal_server = Server::start(
        "127.0.0.1:0",
        coal_reg,
        ServerConfig { workers: CLIENTS + 2, queue_capacity: 64, ..ServerConfig::default() },
    )
    .expect("bind coalescing server");
    let coal_addr = coal_server.local_addr();
    let spin_body = predict_body(&queries[..1]);
    let spin_request = predict_request("/v1/models/spin:predict", &spin_body);
    let coal_per_client = if quick { 8 } else { 24 };
    let coal = run_keepalive_closed_loop(coal_addr, &spin_request, 6, coal_per_client);
    let coal_ok = coal.statuses.iter().filter(|&&s| s == 200).count();
    let (_, coal_metrics) = get(coal_addr, "/metrics");
    let coalesced_batches =
        metric_value(&coal_metrics, "edm_serve_coalesced_batches_total").unwrap_or(0.0);
    let coalesced_requests =
        metric_value(&coal_metrics, "edm_serve_coalesced_requests_total").unwrap_or(0.0);
    let batch_rows_max = metric_value(&coal_metrics, "edm_serve_batch_rows_max").unwrap_or(0.0);
    let flushes_total = metric_sum(&coal_metrics, "edm_serve_batches_total{reason=");
    let (_, coal_trace) = get(coal_addr, "/v1/trace");
    let trace_has_flush_probe = coal_trace.contains("serve.batch.wait_ns");
    println!(
        "coalescing: {coal_ok}/{} ok | {flushes_total:.0} flushes | {coalesced_batches:.0} \
         coalesced batches covering {coalesced_requests:.0} requests | largest flush \
         {batch_rows_max:.0} rows | trace probe seen = {trace_has_flush_probe}",
        6 * coal_per_client
    );
    let coalescing_observed = coalesced_batches >= 1.0 && coal_ok == 6 * coal_per_client;
    claims.push(edm_bench::claim(
        "concurrent requests against a busy model coalesce into shared predict_batch calls",
        coalescing_observed,
    ));
    coal_server.shutdown();

    // --- admission tiers: hot model cannot starve the registry ------
    edm_bench::header("admission tiers: quota'd hot model + untiered neighbor");
    let mut tier_reg = ModelRegistry::new();
    tier_reg
        .register_tiered(
            "spin",
            SpinPredictor { spin_iters: coal_iters },
            AdmissionTier::new("hot", 1),
        )
        .expect("register tiered spin");
    tier_reg
        .register("ridge", Ridge::fit(&x, &y, 0.1).expect("ridge fits"))
        .expect("register ridge");
    let tier_server = Server::start(
        "127.0.0.1:0",
        tier_reg,
        ServerConfig { workers: CLIENTS + 2, queue_capacity: 64, ..ServerConfig::default() },
    )
    .expect("bind tier server");
    let tier_addr = tier_server.local_addr();
    let ridge_body = predict_body(&queries);
    let ridge_request = predict_request("/v1/models/ridge:predict", &ridge_body);
    let tier_per_client = if quick { 6 } else { 16 };
    // 4 hot clients hammer the quota'd model while 2 quiet clients use
    // the untiered one; both loops run concurrently via one fan-out.
    // Hot clients pipeline all their requests up-front so the server
    // always has hot work buffered on 4 connections — on a single-core
    // host, strict one-in-flight clients can serialize by accident and
    // never contend for the tier quota.
    let tier_results: Vec<Vec<u16>> = fan_out(6, |c| {
        let req = if c < 4 { &spin_request } else { &ridge_request };
        let Ok(stream) = TcpStream::connect(tier_addr) else { return vec![0u16; tier_per_client] };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
        let Ok(read_half) = stream.try_clone() else { return vec![0u16; tier_per_client] };
        let mut reader = BufReader::new(read_half);
        let mut writer = stream;
        let mut line = Vec::new();
        if c < 4 {
            if writer.write_all(req.as_bytes().repeat(tier_per_client).as_slice()).is_err() {
                return vec![0u16; tier_per_client];
            }
            (0..tier_per_client).map(|_| read_framed(&mut reader, &mut line).unwrap_or(0)).collect()
        } else {
            (0..tier_per_client)
                .map(|_| {
                    if writer.write_all(req.as_bytes()).is_err() {
                        return 0u16;
                    }
                    read_framed(&mut reader, &mut line).unwrap_or(0)
                })
                .collect()
        }
    });
    let hot: Vec<u16> = tier_results[..4].iter().flatten().copied().collect();
    let quiet: Vec<u16> = tier_results[4..].iter().flatten().copied().collect();
    let hot_ok = hot.iter().filter(|&&s| s == 200).count();
    let hot_rejected = hot.iter().filter(|&&s| s == 503).count();
    let quiet_ok = quiet.iter().filter(|&&s| s == 200).count();
    let (_, tier_metrics) = get(tier_addr, "/metrics");
    let tier_rejected_total =
        metric_value(&tier_metrics, "edm_serve_tier_rejected_total{model=\"spin\",tier=\"hot\"}")
            .unwrap_or(0.0);
    println!(
        "tiers: hot {hot_ok} ok + {hot_rejected} tier-503 of {} | quiet {quiet_ok}/{} ok | \
         tier_rejected_total {tier_rejected_total:.0}",
        hot.len(),
        quiet.len()
    );
    let tier_isolation = hot_rejected >= 1
        && quiet_ok == quiet.len()
        && hot_ok >= 1
        && hot_ok + hot_rejected == hot.len();
    claims.push(edm_bench::claim(
        "a quota'd hot model sheds load with tier 503s while the untiered model serves fully",
        tier_isolation,
    ));
    tier_server.shutdown();

    // --- backpressure under queue-full load ------------------------
    edm_bench::header("backpressure: 1 worker, 1 queue slot");
    let mut slow_reg = ModelRegistry::new();
    let spin_iters = if quick { 2_000_000 } else { 8_000_000 };
    slow_reg.register("spin", SpinPredictor { spin_iters }).expect("register spin");
    let slow_server = Server::start(
        "127.0.0.1:0",
        slow_reg,
        ServerConfig { workers: 1, queue_capacity: 1, ..ServerConfig::default() },
    )
    .expect("bind backpressure server");
    let slow_addr = slow_server.local_addr();
    let slow_request = format!(
        "POST /v1/models/spin:predict HTTP/1.1\r\nhost: bench\r\nconnection: close\r\n\
         content-length: {}\r\n\r\n{spin_body}",
        spin_body.len()
    );
    let burst_results = fan_out(burst, |_| {
        let (status, _, _, _) = exchange(slow_addr, &slow_request);
        status
    });
    let served_count = burst_results.iter().filter(|&&s| s == 200).count();
    let rejected_503 = burst_results.iter().filter(|&&s| s == 503).count();
    let other = burst - served_count - rejected_503;
    println!(
        "burst of {burst}: {served_count} served, {rejected_503} rejected with 503, {other} other"
    );
    claims.push(edm_bench::claim(
        "overload overflow is refused with 503, not hung or dropped",
        rejected_503 >= 1 && other == 0,
    ));
    claims.push(edm_bench::claim(
        "the saturated server still serves (worker + queue drain)",
        served_count >= 2,
    ));
    slow_server.shutdown();

    // The 5x acceptance claim is meaningful on the full run only; quick
    // mode still records the measured speedup. The headline is the best
    // closed-loop number: strict (one in flight) or pipelined.
    let speedup_target_met = best_speedup >= 5.0;
    claims.push(edm_bench::claim(
        "keep-alive + micro-batching sustain >= 5x the PR7 connection-per-request baseline",
        speedup_target_met || quick,
    ));

    // --- manifest --------------------------------------------------
    use std::fmt::Write as _;
    let mut j = String::new();
    let _ = writeln!(j, "{{");
    let _ = writeln!(
        j,
        "  \"config\": {{\"d\": {DIM}, \"batch_rows\": {BATCH}, \"clients\": {CLIENTS}, \
         \"keepalive_requests\": {ka_total}, \"legacy_requests\": {legacy_requests}, \
         \"burst\": {burst}, \"quick\": {quick}, \"host_cores\": {}}},",
        std::thread::available_parallelism().map_or(1, |c| c.get())
    );
    let _ = writeln!(j, "  \"baseline\": {{\"pr7_sustained_rps\": {PR7_BASELINE_RPS}}},");
    let _ = writeln!(j, "  \"closed_loop\": {{");
    let _ = writeln!(j, "    \"keepalive\": {{");
    let _ = writeln!(j, "      \"sustained_rps\": {sustained_rps:.1},");
    let _ = writeln!(j, "      \"rows_per_s\": {rows_per_s:.1},");
    let _ = writeln!(j, "      \"p50_latency_ms\": {p50_ms:.3},");
    let _ = writeln!(j, "      \"p99_latency_ms\": {p99_ms:.3},");
    let _ = writeln!(j, "      \"completed\": {ka_ok},");
    let _ = writeln!(j, "      \"speedup_vs_pr7\": {speedup:.2}");
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"pipelined_keepalive\": {{");
    let _ = writeln!(j, "      \"window\": {PIPELINE_WINDOW},");
    let _ = writeln!(j, "      \"connections\": {pipe_conns},");
    let _ = writeln!(j, "      \"sustained_rps\": {pipelined_rps:.1},");
    let _ = writeln!(j, "      \"rows_per_s\": {:.1},", pipelined_rps * BATCH as f64);
    let _ = writeln!(j, "      \"completed\": {pipe_ok},");
    let _ = writeln!(j, "      \"speedup_vs_pr7\": {pipe_speedup:.2}");
    let _ = writeln!(j, "    }},");
    let _ = writeln!(j, "    \"legacy_connection_per_request\": {{");
    let _ = writeln!(j, "      \"sustained_rps\": {legacy_rps:.1},");
    let _ = writeln!(j, "      \"connect_p50_ms\": {connect_p50:.3},");
    let _ = writeln!(j, "      \"connect_p99_ms\": {connect_p99:.3},");
    let _ = writeln!(j, "      \"request_p50_ms\": {req_p50:.3},");
    let _ = writeln!(j, "      \"request_p99_ms\": {req_p99:.3},");
    let _ = writeln!(j, "      \"completed\": {legacy_ok}");
    let _ = writeln!(j, "    }}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"open_loop\": {{");
    let _ = writeln!(j, "    \"sweep\": [");
    for (i, s) in sweep.iter().enumerate() {
        let comma = if i + 1 < sweep.len() { "," } else { "" };
        let _ = writeln!(
            j,
            "      {{\"offered_rps\": {:.1}, \"achieved_rps\": {:.1}, \"delivered\": {}, \
             \"sent\": {}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3}}}{comma}",
            s.offered_rps, s.achieved_rps, s.delivered, s.sent, s.p50_ms, s.p99_ms
        );
    }
    let _ = writeln!(j, "    ],");
    let _ = writeln!(j, "    \"knee_rps\": {knee_rps:.1},");
    let _ = writeln!(j, "    \"knee_criterion\": \"achieved >= 0.95 * offered\"");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"batching\": {{");
    let _ = writeln!(j, "    \"flushes\": {flushes_total:.0},");
    let _ = writeln!(j, "    \"coalesced_batches\": {coalesced_batches:.0},");
    let _ = writeln!(j, "    \"coalesced_requests\": {coalesced_requests:.0},");
    let _ = writeln!(j, "    \"batch_rows_max\": {batch_rows_max:.0},");
    let _ = writeln!(j, "    \"trace_flush_probe_seen\": {trace_has_flush_probe}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"tiers\": {{");
    let _ = writeln!(j, "    \"hot_requests\": {},", hot.len());
    let _ = writeln!(j, "    \"hot_ok\": {hot_ok},");
    let _ = writeln!(j, "    \"hot_rejected_503\": {hot_rejected},");
    let _ = writeln!(j, "    \"quiet_requests\": {},", quiet.len());
    let _ = writeln!(j, "    \"quiet_ok\": {quiet_ok},");
    let _ = writeln!(j, "    \"tier_rejected_total\": {tier_rejected_total:.0}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"telemetry\": {{");
    let _ = writeln!(j, "    \"client_p50_ms\": {p50_ms:.3},");
    let _ = writeln!(j, "    \"client_p99_ms\": {p99_ms:.3},");
    let _ = writeln!(j, "    \"server_p50_ms\": {server_p50_ms:.3},");
    let _ = writeln!(j, "    \"server_p99_ms\": {server_p99_ms:.3},");
    let _ = writeln!(j, "    \"server_latency_count\": {server_count:.0},");
    let _ = writeln!(j, "    \"mid_run_scrape_ok\": {mid_run_scrape_ok},");
    let _ = writeln!(j, "    \"latency_cross_check\": {latency_cross_check},");
    let _ = writeln!(j, "    \"trace_endpoint_ok\": {trace_endpoint_ok}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"backpressure\": {{");
    let _ = writeln!(j, "    \"burst\": {burst},");
    let _ = writeln!(j, "    \"served\": {served_count},");
    let _ = writeln!(j, "    \"rejected_503\": {rejected_503},");
    let _ = writeln!(j, "    \"unexpected_statuses\": {other}");
    let _ = writeln!(j, "  }},");
    let _ = writeln!(j, "  \"claims\": {{");
    let _ = writeln!(j, "    \"bitwise_identical_over_http\": {bitwise},");
    let _ = writeln!(j, "    \"openmetrics_eof_framing\": {openmetrics_ok},");
    let _ = writeln!(j, "    \"backpressure_503_seen\": {},", rejected_503 >= 1);
    let _ = writeln!(j, "    \"open_loop_knee_found\": {knee_found},");
    let _ = writeln!(j, "    \"coalescing_observed\": {coalescing_observed},");
    let _ = writeln!(j, "    \"tier_isolation_observed\": {tier_isolation},");
    let _ = writeln!(j, "    \"keepalive_speedup_x\": {best_speedup:.2},");
    let _ = writeln!(j, "    \"keepalive_5x_vs_pr7\": {speedup_target_met},");
    let _ = writeln!(
        j,
        "    \"note\": \"closed-loop keep-alive load from {CLIENTS} persistent connections; \
         keepalive_speedup_x is the best closed-loop rps (strict or pipelined window \
         {PIPELINE_WINDOW}) over the PR7 baseline; keep-alive latency excludes connect \
         (reported separately under legacy_connection_per_request); open-loop latency \
         measured from scheduled send time\""
    );
    let _ = writeln!(j, "  }}");
    let _ = writeln!(j, "}}");
    std::fs::write("BENCH_serve.json", &j).expect("write BENCH_serve.json");
    println!("\nwrote BENCH_serve.json");

    edm_bench::emit_trace("bench_serve", 3);
    edm_bench::finish(&claims);
}

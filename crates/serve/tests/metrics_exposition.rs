//! The `/metrics` exposition names every family once, with the trace
//! registry live: after a tier 503 and a normal predict, each
//! `# TYPE` line and each sample line appears exactly once.
//!
//! Its own test binary, because the trace level is process-global.

#![cfg(feature = "parallel")]

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use edm::prelude::*;
use edm_serve::{AdmissionTier, ModelRegistry, Server, ServerConfig};

/// One `connection: close` exchange: (status, body).
fn exchange(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("timeout");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\nconnection: close\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let status = head.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status line");
    (status, body.to_string())
}

/// Parks inside `predict_batch` until the gate opens, so the test holds
/// the tiered model's only quota unit for as long as it needs.
struct GatedPredictor {
    started: Mutex<mpsc::Sender<()>>,
    gate: Arc<(Mutex<bool>, Condvar)>,
}

impl Predictor for GatedPredictor {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<f64>, edm::Error> {
        let _ = self.started.lock().unwrap_or_else(std::sync::PoisonError::into_inner).send(());
        let (open, cv) = &*self.gate;
        let mut open = open.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        while !*open {
            open = cv.wait(open).unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        Ok(vec![0.0; xs.len()])
    }

    fn n_features(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "gated"
    }
}

/// Opens the gate on drop, so a failed assertion cannot leave a worker
/// parked and deadlock `Server::drop`.
struct GateGuard(Arc<(Mutex<bool>, Condvar)>);

impl Drop for GateGuard {
    fn drop(&mut self) {
        let (open, cv) = &*self.0;
        *open.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = true;
        cv.notify_all();
    }
}

/// The lines that occur more than once, with their counts.
fn repeated<'a>(lines: impl Iterator<Item = &'a str>) -> BTreeMap<&'a str, usize> {
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for line in lines {
        *seen.entry(line).or_insert(0) += 1;
    }
    seen.retain(|_, n| *n > 1);
    seen
}

#[test]
fn every_family_and_sample_appears_once_after_a_tier_rejection() {
    edm_trace::set_level(edm_trace::Level::Summary);
    let (started_tx, started_rx) = mpsc::channel();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let x = vec![vec![0.0], vec![1.0], vec![2.0]];
    let y = vec![0.0, 2.0, 4.0];
    let mut reg = ModelRegistry::new();
    reg.register_tiered(
        "slow",
        GatedPredictor { started: Mutex::new(started_tx), gate: Arc::clone(&gate) },
        AdmissionTier::new("hot", 1),
    )
    .expect("register tiered");
    reg.register("line", Ridge::fit(&x, &y, 1e-9).expect("line fits")).expect("register line");
    let guard = GateGuard(gate);
    let server =
        Server::start("127.0.0.1:0", reg, ServerConfig { workers: 4, ..ServerConfig::default() })
            .expect("bind");
    let addr = server.local_addr();

    // A holds the slow model's single unit, so B gets the tier 503.
    let handle_a = std::thread::spawn(move || {
        exchange(addr, "POST", "/v1/models/slow:predict", "{\"inputs\": [[1]]}")
    });
    started_rx.recv_timeout(Duration::from_secs(20)).expect("worker picked up A");
    let (status_b, _) = exchange(addr, "POST", "/v1/models/slow:predict", "{\"inputs\": [[2]]}");
    assert_eq!(status_b, 503, "saturated tier must refuse");
    let (status_c, body_c) =
        exchange(addr, "POST", "/v1/models/line:predict", "{\"inputs\": [[1.5]]}");
    assert_eq!(status_c, 200, "normal predict: {body_c}");
    drop(guard);
    assert_eq!(handle_a.join().expect("client A").0, 200);

    let (status, body) = exchange(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(
        body.contains("edm_serve_tier_rejected_total{model=\"slow\",tier=\"hot\"} 1\n"),
        "tier rejection missing from {body}"
    );
    assert!(
        body.contains(
            "edm_serve_requests_total{endpoint=\"predict\",model=\"line\",status=\"200\"} 1\n"
        ),
        "normal predict missing from {body}"
    );
    let types = repeated(body.lines().filter(|l| l.starts_with("# TYPE ")));
    assert!(types.is_empty(), "families declared more than once: {types:?}");
    let samples = repeated(body.lines().filter(|l| !l.starts_with('#')));
    assert!(samples.is_empty(), "samples rendered more than once: {samples:?}");
    server.shutdown();
}

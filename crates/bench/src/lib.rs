//! # edm-bench — experiment harnesses for every table and figure
//!
//! One harness per paper result, listed once in [`HARNESSES`] and run
//! by the `figures` binary (`cargo run --release -p edm-bench --bin
//! figures [-- <name>… | --sweep]`):
//!
//! | Harness | Paper result |
//! |---|---|
//! | `fig03_kernel_trick` | Fig. 3 — kernel trick separability |
//! | `fig05_overfitting` | Fig. 5 — training vs validation error |
//! | `fig07_novel_test_selection` | Fig. 7 — simulation saving |
//! | `fig09_litho_variability` | Fig. 9 — fast variability prediction |
//! | `fig10_dstc` | Fig. 10 — slow-path diagnosis |
//! | `fig11_customer_returns` | Fig. 11 — return screening |
//! | `fig12_difficult_case` | Fig. 12 — the escapes |
//! | `ref03_boolean_learning` | ref \[3\] — Boolean learning without guarantees |
//! | `ref20_fmax_regressors` | ref \[20\] — five regressors on Fmax |
//! | `ref32_wafer_patterns` | ref \[32\] — inter-wafer pattern mining |
//! | `table1_template_refinement` | Table 1 — coverage after learning |
//! | `ablations` | kernel, filter and feature-selection ablations |
//!
//! Each harness is a function of a seed offset `s`: every RNG it draws
//! is `seed_from_u64(literal + 1000·s)`, so `s = 0` is the canonical
//! run whose stdout is checked in as `results/<name>.txt`; the per-claim
//! tally over the sweep seeds `s = 1..=16` is checked in as
//! `results/sweep/<name>.txt`. A [`Report`]
//! collects the run's stdout and its `[PASS]`/`[FAIL]` claims.
//!
//! The `tune_coverage` binary prints a template's coverage profile (a
//! diagnostic, no claims); `bench_kernel_compute` times the Gram
//! build's thread scaling and tile sweep. End-to-end and per-layer
//! timing lives in the stand-alone `perfbench/` package; the claims the
//! older timing harnesses made (bitwise serving, solver iteration cuts,
//! trace invariance) are exact tests in the crates they describe.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

/// Initializes telemetry for a harness run: level from `EDM_TRACE`
/// when set, else `summary`, so run manifests ([`emit_trace`]) carry
/// data by default. Call first in `main`, before any probe fires.
pub fn init_trace() {
    edm_trace::init_from_env_or(edm_trace::Level::Summary);
    // Label the harness thread's timeline ring so Chrome-trace exports
    // show "main" instead of a numeric default.
    edm_trace::name_thread("main");
}

/// Runs `f` under a named harness-level span (a one-line way to group
/// a phase of a harness under its own path in the trace manifest).
pub fn phase<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = edm_trace::span(name);
    f()
}

/// Derived headline numbers of a run manifest, so downstream tooling
/// need not walk the raw counter list for the common questions.
#[derive(Debug, Clone, Serialize)]
pub struct TraceSummary {
    /// Total SMO iterations across every solver call in the run.
    pub smo_iterations: u64,
    /// SMO solver invocations.
    pub smo_calls: u64,
    /// Q-row cache hits across all caches dropped during the run.
    pub qcache_hits: u64,
    /// Q-row cache misses.
    pub qcache_misses: u64,
    /// Q-row cache evictions.
    pub qcache_evictions: u64,
    /// `hits / (hits + misses)` (0 when the cache was never touched).
    pub qcache_hit_rate: f64,
    /// Completed span activations (all paths).
    pub span_count: u64,
}

/// A `results/<name>.trace.json` run manifest: the run's identity
/// (name, seed, trace level) plus the full telemetry snapshot.
#[derive(Debug, Clone, Serialize)]
pub struct TraceManifest {
    /// Harness or binary name.
    pub name: String,
    /// Seed of the run (a harness's seed offset `s`).
    pub seed: u64,
    /// Headline numbers.
    pub summary: TraceSummary,
    /// Full registry snapshot (spans, counters, histograms, events).
    pub report: edm_trace::TraceReport,
}

impl TraceManifest {
    /// Builds a manifest from the current trace registry contents.
    pub fn capture(name: &str, seed: u64) -> Self {
        let report = edm_trace::collect();
        let hits = report.counter("svm.qcache.hits");
        let misses = report.counter("svm.qcache.misses");
        let summary = TraceSummary {
            smo_iterations: report.counter("svm.smo.iterations"),
            smo_calls: report.counter("svm.smo.calls"),
            qcache_hits: hits,
            qcache_misses: misses,
            qcache_evictions: report.counter("svm.qcache.evictions"),
            qcache_hit_rate: if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
            span_count: report.spans.iter().map(|s| s.count).sum(),
        };
        TraceManifest { name: name.to_string(), seed, summary, report }
    }
}

/// Captures the trace registry and writes the run manifest to
/// `results/<name>.trace.json` (creating `results/` if needed); at
/// `EDM_TRACE=full` also a flamegraph-ready `<name>.folded` and a
/// Chrome Trace Event `<name>.chrome.json` (load in Perfetto). Call
/// once at the end of a run, after all phase spans have closed. The
/// file lines go to stderr, and failures never fail the run —
/// telemetry must not break a reproduction.
pub fn emit_trace(name: &str, seed: u64) {
    let manifest = TraceManifest::capture(name, seed);
    let json = match serde_json::to_string(&manifest) {
        Ok(j) => j,
        Err(e) => return eprintln!("trace manifest for {name} not serializable: {e}"),
    };
    let mut files = vec![("trace manifest", "trace.json", json)];
    if manifest.report.level == "full" {
        files.push(("collapsed stacks", "folded", manifest.report.to_collapsed_stacks()));
        files.push(("chrome trace", "chrome.json", manifest.report.to_chrome_trace()));
    }
    for (what, ext, body) in files {
        let path = std::path::Path::new("results").join(format!("{name}.{ext}"));
        match std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, body)) {
            Ok(()) => eprintln!("{what}: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// `println!` into a [`Report`].
macro_rules! outln {
    ($r:expr) => { $r.line(format_args!("")) };
    ($r:expr, $($arg:tt)*) => { $r.line(format_args!($($arg)*)) };
}

/// A paper figure or table: its name (also its golden file's stem,
/// `results/<name>.txt`) and the function that reproduces it.
#[derive(Debug)]
pub struct Harness {
    /// Harness name, e.g. `fig03_kernel_trick`.
    pub name: &'static str,
    body: fn(u64, &mut Report),
}

macro_rules! harnesses {
    ($($m:ident),*) => {
        mod harness { $(pub mod $m;)* }
        /// Every figure/table harness, in run order.
        pub const HARNESSES: &[Harness] =
            &[$(Harness { name: stringify!($m), body: harness::$m::run }),*];
    };
}

harnesses! {
    fig03_kernel_trick, fig05_overfitting, fig07_novel_test_selection, fig09_litho_variability,
    fig10_dstc, fig11_customer_returns, fig12_difficult_case, ref03_boolean_learning,
    ref20_fmax_regressors, ref32_wafer_patterns, table1_template_refinement, ablations
}

impl Harness {
    /// Runs the harness at seed offset `s`. When every claim holds, the
    /// output ends with the `all N reproduction claims hold` line.
    pub fn run(&self, s: u64) -> Report {
        let mut r = Report::default();
        (self.body)(s, &mut r);
        if r.failed() == 0 {
            outln!(r, "\nall {} reproduction claims hold", r.claims.len());
        }
        r
    }
}

/// The RNG a harness draws for stream `literal` at seed offset `s`:
/// `seed_from_u64(literal + 1000·s)`, so `s = 0` is the canonical run.
pub(crate) fn rng(literal: u64, s: u64) -> StdRng {
    StdRng::seed_from_u64(literal + 1000 * s)
}

/// One harness run: the stdout it prints and the claims it checks.
#[derive(Debug, Default)]
pub struct Report {
    out: String,
    claims: Vec<(String, bool)>,
}

impl Report {
    /// Appends one line to the run's stdout.
    pub(crate) fn line(&mut self, args: std::fmt::Arguments<'_>) {
        // Writing into a `String` cannot fail.
        let _ = writeln!(self.out, "{args}");
    }

    /// Prints a section header in a uniform style.
    pub(crate) fn header(&mut self, title: &str) {
        outln!(self, "\n=== {title} ===");
    }

    /// Checks a reproduction claim and prints its `[PASS]`/`[FAIL]`
    /// line. Measured numbers belong in a trailing ` (…)`: the text
    /// before it is the claim's key across seeds (`figures --sweep`).
    pub(crate) fn claim(&mut self, description: &str, holds: bool) {
        outln!(self, "[{}] {description}", if holds { "PASS" } else { "FAIL" });
        let key = description.strip_suffix(')').and_then(|d| d.rsplit_once(" ("));
        let key = key.map_or(description, |(k, _)| k);
        self.claims.push((key.to_string(), holds));
    }

    /// The run's stdout.
    pub fn stdout(&self) -> &str {
        &self.out
    }

    /// `(key, held)` per claim, in check order.
    pub fn claims(&self) -> &[(String, bool)] {
        &self.claims
    }

    /// How many claims failed.
    pub fn failed(&self) -> usize {
        self.claims.iter().filter(|(_, held)| !held).count()
    }
}

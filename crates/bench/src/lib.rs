//! # edm-bench — experiment harnesses for every table and figure
//!
//! One binary per paper result (run with
//! `cargo run --release -p edm-bench --bin <name>`):
//!
//! | Binary | Paper result |
//! |---|---|
//! | `fig03_kernel_trick` | Fig. 3 — kernel trick separability |
//! | `fig05_overfitting` | Fig. 5 — training vs validation error |
//! | `fig07_novel_test_selection` | Fig. 7 — simulation saving |
//! | `table1_template_refinement` | Table 1 — coverage after learning |
//! | `fig09_litho_variability` | Fig. 9 — fast variability prediction |
//! | `fig10_dstc` | Fig. 10 — slow-path diagnosis |
//! | `fig11_customer_returns` | Fig. 11 — return screening |
//! | `fig12_difficult_case` | Fig. 12 — the escapes |
//! | `tune_coverage` | (diagnostic) coverage profile of a template |
//!
//! `bench_kernel_compute` times the Gram build's thread scaling and
//! tile sweep. End-to-end and per-layer timing lives in the stand-alone
//! `perfbench/` package; the claims the older timing harnesses made
//! (bitwise serving, solver iteration cuts, trace invariance) are exact
//! tests in the crates they describe.
//!
//! Every binary is seeded and deterministic; all print plain-text tables
//! mirroring the rows/series the paper reports, and exit non-zero if the
//! paper's qualitative claim fails to hold (so CI catches regressions in
//! the reproductions).

#![forbid(unsafe_code)]

use serde::Serialize;

/// Prints a section header in a uniform style.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

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
    /// Harness binary name.
    pub name: String,
    /// RNG seed of the run.
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
/// `results/<name>.trace.json` (creating `results/` if needed). Call
/// once at the end of a harness `main`, after all phase spans have
/// closed. Failures are reported on stderr but never fail the run —
/// telemetry must not break a reproduction.
pub fn emit_trace(name: &str, seed: u64) {
    let manifest = TraceManifest::capture(name, seed);
    let json = match serde_json::to_string(&manifest) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("trace manifest for {name} not serializable: {e}");
            return;
        }
    };
    let path = std::path::Path::new("results").join(format!("{name}.trace.json"));
    let write = std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, json));
    // At `EDM_TRACE=full` also drop a flamegraph-ready collapsed-stack
    // file and a Chrome Trace Event file (load in Perfetto or
    // chrome://tracing) next to the manifest.
    if manifest.report.level == "full" {
        let folded = std::path::Path::new("results").join(format!("{name}.folded"));
        if let Err(e) = std::fs::write(&folded, manifest.report.to_collapsed_stacks()) {
            eprintln!("could not write {}: {e}", folded.display());
        } else {
            eprintln!("collapsed stacks: {}", folded.display());
        }
        let chrome = std::path::Path::new("results").join(format!("{name}.chrome.json"));
        if let Err(e) = std::fs::write(&chrome, manifest.report.to_chrome_trace()) {
            eprintln!("could not write {}: {e}", chrome.display());
        } else {
            eprintln!("chrome trace: {}", chrome.display());
        }
    }
    // The manifest lines go to stderr, so a harness's stdout holds only
    // its figure.
    match write {
        Ok(()) => eprintln!(
            "trace manifest: {} ({} spans, level {})",
            path.display(),
            manifest.summary.span_count,
            manifest.report.level,
        ),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Asserts a reproduction claim, printing PASS/FAIL and returning
/// whether it held (binaries aggregate these into the exit code).
pub fn claim(description: &str, holds: bool) -> bool {
    println!("[{}] {description}", if holds { "PASS" } else { "FAIL" });
    holds
}

/// Exits with status 1 if any claim failed.
pub fn finish(claims: &[bool]) {
    if claims.iter().all(|&c| c) {
        println!("\nall {} reproduction claims hold", claims.len());
    } else {
        let failed = claims.iter().filter(|&&c| !c).count();
        eprintln!("\n{failed} reproduction claim(s) FAILED");
        std::process::exit(1);
    }
}

//! End-to-end benchmark of the edm workspace, with per-layer
//! attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train_large|serve_mixed|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload sets up several times (reporting the median set-up
//! time), measures for `--seconds`, checks every output, and prints as
//! its last line one JSON object: `correct`, `attempted`, `failed`, and
//! `metrics` — the end-to-end metrics with `--trace 0` (tracing off),
//! the per-layer metrics with `--trace 1`. `--workload all` runs the
//! workloads one after another, each in its own process.
//!
//! Every workload reports every metric, so that each names one thing
//! to compare between two commits; what a metric measures on each
//! workload is listed beside [`END_TO_END`]. Per-layer metrics of a
//! layer a workload does not itself exercise come from a small fixed
//! probe of that layer run inside the traced run; the six `edm-core`
//! flows are measured that way, at their figure binaries' sizes, by
//! the traced run of every workload.

mod flows;
mod report;
mod serve;
mod stats;
mod train;

use std::process::ExitCode;

use report::Report;

/// End-to-end metrics, reported with tracing off by every workload.
///
/// * `setup_s` — median of several set-ups: input generation, model
///   fitting, server start, and warm-up.
/// * `p50_ms` — median latency of the workload's unit of work: one
///   training round (`train_large`, the median round), one predict
///   request measured from its scheduled send time (`serve_mixed`'s open
///   loop: the median across one-second windows of each window's
///   median).
/// * `rate_per_s` — work completed per second at full speed: held-out
///   rows scored by `predict_batch` (`train_large`, the median round),
///   correct predict answers in the closed loop (`serve_mixed`, the
///   median round).
/// * `peak_rss_mb` — `VmHWM` at the end of the workload.
///
/// The served p99 is a per-layer metric (`serve.p99_ms`), not a bounded
/// one: on a shared two-core host, hypervisor preemption (a spinning
/// thread sees dozens of 0.5–7 ms gaps every 10 s) moves it two- to
/// threefold between runs of the same code.
pub const END_TO_END: [(&str, &str); 4] =
    [("setup_s", "s"), ("p50_ms", "ms"), ("rate_per_s", "1/s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics, reported by the traced run of every workload.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("core.noveltest_s", "s"),
    ("core.template_refine_s", "s"),
    ("core.variability_s", "s"),
    ("core.dstc_s", "s"),
    ("core.returns_s", "s"),
    ("core.testcost_s", "s"),
    ("verif.simulate_s", "s"),
    ("noveltest.decision_s", "s"),
    ("noveltest.accept_s", "s"),
    ("litho.golden_s", "s"),
    ("litho.features_s", "s"),
    ("mfgtest.population_s", "s"),
    ("returns.select_s", "s"),
    ("returns.score_s", "s"),
    ("svm.fit_s", "s"),
    ("flows.attributed_pct", "%"),
    ("flows.smo.iterations", "count"),
    ("flows.qcache.hit_rate", "ratio"),
    ("kernels.gram_s", "s"),
    ("kernels.gram.tiles", "count"),
    ("kernels.evals", "count"),
    ("svm.qcache.hits", "count"),
    ("svm.qcache.misses", "count"),
    ("svm.qcache.evictions", "count"),
    ("svm.qcache.hit_rate", "ratio"),
    ("svm.q.batch_fills", "count"),
    ("svm.svc_fit_s", "s"),
    ("svm.one_class_solve_s", "s"),
    ("svm.smo.iterations", "count"),
    ("svm.smo.calls", "count"),
    ("svm.predict_batch_s", "s"),
    ("svm.predict_batch_vs_scalar", "ratio"),
    ("par.jobs", "count"),
    ("train_s", "s"),
    ("serve.http.read_us", "us"),
    ("serve.http.encode_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.registry.route_us", "us"),
    ("serve.registry.swap_us", "us"),
    ("serve.batch.overhead_us", "us"),
    ("serve.batch.rows_per_flush", "rows"),
    ("serve.batch.wait_us", "us"),
    ("serve.batch.coalesced_share", "ratio"),
    ("serve.predict_us", "us"),
    ("serve.metrics.observe_us", "us"),
    ("serve.handle_p50_us", "us"),
    ("serve.p99_ms", "ms"),
    ("serve.unattributed_us", "us"),
    ("model_io.save_ms", "ms"),
    ("model_io.load_ms", "ms"),
    ("serve.store.scan_ms", "ms"),
    ("fit_family_ms", "ms"),
    ("http_train_p50_ms", "ms"),
    ("http_reload_p50_ms", "ms"),
    ("bench.gen_lag_ms", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads, in `--workload all` order.
///
/// The six flows and a ladder of offered predict rates are not
/// workloads of their own: on a shared two-core host their times moved
/// by a quarter (the flows' pass time) and a half (the ladder's p50)
/// between sets of runs of the same code, more than any bound a
/// regression gate can use. The traced runs still measure every flow
/// layer (by probe) and every serve layer.
pub const WORKLOADS: [&str; 2] = ["train_large", "serve_mixed"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for every generated input.
    pub seed: u64,
    /// Length of the measured phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args { workload: String::new(), seed: 1, seconds: 10.0, trace: false };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Report {
    // The traced run turns tracing on around the parts it traces; the
    // untraced run keeps it off throughout (whatever EDM_TRACE says).
    edm_trace::set_level(edm_trace::Level::Off);
    let training = args.workload == "train_large";
    let mut report = if training { train::run(args) } else { serve::run(args) };
    if args.trace {
        // Layers this workload does not exercise itself are measured
        // by probes, so every traced run reports them all.
        edm_trace::set_level(edm_trace::Level::Summary);
        report.fill_missing(flows::probe());
        report.fill_missing(if training { serve::probe(args) } else { train::probe(args) });
        edm_trace::set_level(edm_trace::Level::Off);
        let error_rate = report.tally.error_rate();
        report.set("error_rate", error_rate);
    } else {
        report.set("peak_rss_mb", stats::peak_rss_mb().unwrap_or(f64::NAN));
    }
    report
}

/// `--workload all`: each workload in its own process, so each peak
/// RSS is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= status.is_ok_and(|s| s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let report = run_workload(&args);
    let expected: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match report.render(&args.workload, expected) {
        Ok((table, json)) => {
            print!("{table}");
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn args_parse_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve_mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve_mixed", 7, 10.0, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "flows"])).is_err());
        assert!(parse_args(&strings(&["--workload", "train_large", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "train_large", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload"])).is_err());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        assert_eq!(compact.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "{name} ({unit}) is not in BENCHMARK.json");
        }
        assert_eq!(compact.matches("\"why\":").count(), WORKLOADS.len());
        for workload in WORKLOADS {
            assert!(compact.contains(&format!("\"name\":\"{workload}\",\"why\"")), "{workload}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).map(|&(n, _)| n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}

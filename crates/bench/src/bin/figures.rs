//! Runs the paper's figure/table harnesses ([`edm_bench::HARNESSES`]).
//!
//! ```text
//! figures [<name>…]           run at s = 0, diff stdout against results/<name>.txt
//! figures --sweep [<name>…]   tally each claim over s = 1..=16, diff against results/sweep/<name>.txt
//! ```
//!
//! Run it from the repository root. The default run prints each
//! harness's stdout and writes its trace manifest to
//! `results/<name>.trace.json`; `--sweep` prints each harness's
//! per-claim pass counts. Either way the printed text is checked against
//! its golden file, which is rewritten when it differs, and the run
//! exits 1 if one did — so `git diff` shows what moved.

use std::process::ExitCode;

use edm_bench::{Harness, HARNESSES};

/// The fixed seed set of `--sweep`.
const SWEEP: std::ops::RangeInclusive<u64> = 1..=16;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sweep = args.iter().any(|a| a == "--sweep");
    let names: Vec<&str> = args.iter().map(String::as_str).filter(|a| *a != "--sweep").collect();
    if let Some(bad) = names.iter().find(|n| !HARNESSES.iter().any(|h| h.name == **n)) {
        let known: Vec<&str> = HARNESSES.iter().map(|h| h.name).collect();
        eprintln!("unknown harness {bad:?}; known: {}", known.join(" "));
        return ExitCode::from(2);
    }
    edm_bench::init_trace();
    let chosen = HARNESSES.iter().filter(|h| names.is_empty() || names.contains(&h.name));
    let run = if sweep { sweep_one } else { golden };
    let diffs = chosen.map(run).filter(|matched| !matched).count();
    if diffs == 0 {
        return ExitCode::SUCCESS;
    }
    eprintln!("\n{diffs} golden file(s) rewritten: review `git diff results/`");
    ExitCode::FAILURE
}

/// Runs `h` at `s = 0`, writes its manifest, and checks its stdout
/// against the golden file (rewriting it on a mismatch).
fn golden(h: &Harness) -> bool {
    edm_trace::reset();
    let r = h.run(0);
    print!("{}", r.stdout());
    if r.failed() > 0 {
        eprintln!("\n{}: {} reproduction claim(s) FAILED", h.name, r.failed());
    }
    edm_bench::emit_trace(h.name, 0);
    matches_golden(&format!("results/{}.txt", h.name), r.stdout())
}

/// Prints how many seeds of [`SWEEP`] each claim of `h` holds at, and
/// checks that tally against `results/sweep/<name>.txt` (rewriting it on
/// a mismatch). A claim a run never reaches counts as failed at that
/// seed.
fn sweep_one(h: &Harness) -> bool {
    let mut tally: Vec<(String, u64)> = Vec::new();
    let mut red = 0;
    for s in SWEEP {
        edm_trace::reset();
        let r = h.run(s);
        red += u64::from(r.failed() > 0);
        for (key, held) in r.claims() {
            match tally.iter_mut().find(|(k, _)| k == key) {
                Some((_, n)) => *n += u64::from(*held),
                None => tally.push((key.clone(), u64::from(*held))),
            }
        }
    }
    let n = SWEEP.count();
    let mut out = format!("{}: runs with a failed claim {red}/{n}\n", h.name);
    for (key, passed) in tally {
        out += &format!("  {passed:>2}/{n} {key}\n");
    }
    print!("{out}");
    matches_golden(&format!("results/sweep/{}.txt", h.name), &out)
}

/// Whether the golden file at `path` holds exactly `out`; if not, the
/// file is rewritten with `out`.
fn matches_golden(path: &str, out: &str) -> bool {
    if std::fs::read_to_string(path).is_ok_and(|g| g == out) {
        return true;
    }
    let dir = std::path::Path::new(path).parent().expect("golden paths name a directory");
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(path, out)) {
        Ok(()) => eprintln!("{path}: differs from this run; rewritten"),
        Err(e) => eprintln!("{path}: differs from this run; could not rewrite: {e}"),
    }
    false
}

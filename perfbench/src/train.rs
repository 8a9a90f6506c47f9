//! `train_large`: one training round is three steps, each timed on its
//! own — an RBF `SvcTrainer::fit` whose Q matrix is over three times
//! the default 64 MiB `cache_bytes`, a precomputed-Gram one-class fit
//! (`gram_matrix` then `solve_one_class`), and `predict_batch` over
//! held-out rows in fixed 64-row chunks.
//!
//! This is the only workload where the tiled Gram, Q-row evictions, SMO
//! iterations and the small-batch `predict_batch` fan-out do most of
//! the work. Every round must rebuild bitwise the same models, and
//! every chunk's `predict_batch` must equal scalar `predict` bitwise.

use std::time::Instant;

use edm_kernels::{gram_matrix, RbfKernel};
use edm_svm::{solve_one_class, OneClassParams, SvcModel, SvcParams, SvcTrainer};

use crate::report::Report;
use crate::stats::{self, SplitMix, Tally};
use crate::Args;

/// Features per row.
const DIM: usize = 32;
/// Rows per `predict_batch` call.
const CHUNK: usize = 64;
/// Segments of the measured phase, each after its own set-up;
/// `setup_s` is the median set-up. A shared host slows down for seconds
/// at a time, so set-ups and rounds are spread over the whole run
/// rather than measured in one block each.
const SEGMENTS: usize = 5;
/// One-class ν.
const NU: f64 = 0.1;

/// Training set size: 5120² f64s of Q are 210 MB, 3.1× the default
/// `cache_bytes`, so the SVC fit must evict Q rows.
const N_TRAIN: usize = 5120;
/// Held-out rows scored per round.
const N_HELD_OUT: usize = 2048;

/// Inputs drawn from the workload seed: rows uniform in [-1, 1)^32 with
/// a nonlinear, slightly noisy labelling, so the SVC keeps many support
/// vectors.
struct Inputs {
    x: Vec<Vec<f64>>,
    y: Vec<f64>,
    held_out: Vec<Vec<f64>>,
    kernel: RbfKernel,
}

impl Inputs {
    fn new(seed: u64, n_train: usize, n_held_out: usize) -> Inputs {
        let mut mix = SplitMix::new(seed ^ 0x7472_6169_6e00);
        let mut rows = |n: usize| -> Vec<Vec<f64>> {
            (0..n).map(|_| (0..DIM).map(|_| mix.next_f64()).collect()).collect()
        };
        let x = rows(n_train);
        let held_out = rows(n_held_out);
        let mut noise = SplitMix::new(seed);
        let y = x
            .iter()
            .map(|r| {
                let score = r[0] * r[1] + 0.5 * r[2] - 0.3 * r[3] * r[4] + 0.2 * noise.next_f64();
                if score > 0.0 {
                    1.0
                } else {
                    -1.0
                }
            })
            .collect();
        Inputs { x, y, held_out, kernel: RbfKernel::new(1.0 / DIM as f64) }
    }
}

/// What one round produced, for the cross-round checks.
struct Round {
    svc: Result<SvcModel<RbfKernel>, edm_svm::SvmError>,
    one_class: u64,
    predictions: Vec<f64>,
    fit_s: f64,
    gram_s: f64,
    solve_s: f64,
    predict_s: f64,
}

impl Round {
    fn train_s(&self) -> f64 {
        self.fit_s + self.gram_s + self.solve_s
    }

    fn total_s(&self) -> f64 {
        self.train_s() + self.predict_s
    }

    fn svc_fingerprint(&self) -> u64 {
        self.svc.as_ref().map_or(0, |m| {
            let mut bits = m.coefficients().to_vec();
            bits.push(m.rho());
            bits.extend(m.support_vectors().iter().flatten());
            stats::fingerprint_f64s(&bits)
        })
    }
}

/// Runs one round. With `trace`, each step is traced on its own and its
/// counters are added to `counters` (tracing must already be on).
fn round(inp: &Inputs, mut counters: Option<&mut Counters>) -> Round {
    let traced = counters.is_some();
    let begin_step = || {
        if traced {
            edm_trace::reset();
        }
    };
    begin_step();
    let (svc, fit_s) = stats::timed(|| {
        SvcTrainer::new(SvcParams::default()).kernel(inp.kernel).fit(&inp.x, &inp.y)
    });
    if let Some(c) = counters.as_deref_mut() {
        c.add_fit(&edm_trace::collect());
    }
    begin_step();
    let (gram, gram_s) = stats::timed(|| gram_matrix(&inp.kernel, &inp.x));
    let (solution, solve_s) =
        stats::timed(|| solve_one_class(&gram, &OneClassParams::default().with_nu(NU)));
    // Drop the Gram before predicting: holding a 200 MB buffer across
    // the next step perturbs page-fault behaviour.
    drop(gram);
    if let Some(c) = counters.as_deref_mut() {
        c.add_one_class(&edm_trace::collect(), inp.x.len());
    }
    let one_class = solution.map_or(0, |(alpha, rho, _)| {
        let mut bits = alpha;
        bits.push(rho);
        stats::fingerprint_f64s(&bits)
    });
    begin_step();
    let (predictions, predict_s) = stats::timed(|| match &svc {
        Ok(m) => inp.held_out.chunks(CHUNK).flat_map(|c| m.predict_batch(c)).collect(),
        Err(_) => Vec::new(),
    });
    if let Some(c) = counters {
        c.par_jobs += edm_trace::collect().counter("par.jobs");
    }
    Round { svc, one_class, predictions, fit_s, gram_s, solve_s, predict_s }
}

/// Trace counters of the traced round, per step.
#[derive(Default)]
struct Counters {
    hits: u64,
    misses: u64,
    evictions: u64,
    batch_fills: u64,
    iterations: u64,
    calls: u64,
    tiles: u64,
    /// Kernel evaluations, computed from the counters: every Q-row miss
    /// of the SVC fit evaluates one kernel row of `n`, and the Gram
    /// build evaluates every cell it does not mirror.
    evals: u64,
    /// `edm-par` jobs run by the batched predictions.
    par_jobs: u64,
}

impl Counters {
    fn add_fit(&mut self, t: &edm_trace::TraceReport) {
        self.hits += t.counter("svm.qcache.hits");
        self.misses += t.counter("svm.qcache.misses");
        self.evictions += t.counter("svm.qcache.evictions");
        self.batch_fills += t.counter("svm.q.batch_fills");
        self.iterations += t.counter("svm.smo.iterations");
        self.calls += t.counter("svm.smo.calls");
    }

    fn add_one_class(&mut self, t: &edm_trace::TraceReport, n: usize) {
        self.iterations += t.counter("svm.smo.iterations");
        self.calls += t.counter("svm.smo.calls");
        self.tiles += t.counter("kernels.gram.tiles");
        let cells = (n * n) as u64;
        self.evals =
            self.misses * n as u64 + cells.saturating_sub(t.counter("kernels.gram.mirrored_cells"));
    }
}

/// Checks a round against the set-up round: the same SVC and one-class
/// solution bitwise, and batched predictions equal to scalar ones.
fn check(round: &Round, reference: &Round, scalar: &[f64], tally: &mut Tally) {
    tally.check(round.svc.is_ok() && round.svc_fingerprint() == reference.svc_fingerprint());
    tally.check(round.one_class != 0 && round.one_class == reference.one_class);
    let same = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    for (got, want) in round.predictions.chunks(CHUNK).zip(scalar.chunks(CHUNK)) {
        tally.check(same(got, want));
    }
    if round.predictions.len() != scalar.len() {
        tally.check(false);
    }
}

/// Scalar `predict` on every held-out row: the reference every batched
/// chunk must equal.
fn scalar_predictions(inp: &Inputs, round: &Round) -> Vec<f64> {
    match &round.svc {
        Ok(m) => inp.held_out.iter().map(|r| m.predict(r)).collect(),
        Err(_) => Vec::new(),
    }
}

/// The inputs, one warm-up round (the reference), and the scalar
/// predictions every later chunk is checked against.
fn set_up(seed: u64, tally: &mut Tally) -> (Inputs, Round, Vec<f64>) {
    let inp = Inputs::new(seed, N_TRAIN, N_HELD_OUT);
    let reference = round(&inp, None);
    let scalar = scalar_predictions(&inp, &reference);
    check(&reference, &reference, &scalar, tally);
    (inp, reference, scalar)
}

/// The `train_large` workload.
pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    if !args.trace {
        let mut setup_secs = Vec::new();
        let (mut total, mut predict) = (Vec::new(), Vec::new());
        let mut first_models = None;
        for _ in 0..SEGMENTS {
            let ((inp, reference, scalar), secs) =
                stats::timed(|| set_up(args.seed, &mut report.tally));
            setup_secs.push(secs);
            // Every set-up must build bitwise the same models.
            let models = (reference.svc_fingerprint(), reference.one_class);
            report.tally.check(*first_models.get_or_insert(models) == models);
            let start = Instant::now();
            loop {
                let r = round(&inp, None);
                check(&r, &reference, &scalar, &mut report.tally);
                total.push(r.total_s());
                predict.push(r.predict_s);
                if start.elapsed().as_secs_f64() >= args.seconds / SEGMENTS as f64 {
                    break;
                }
            }
        }
        report.set("setup_s", stats::median(&setup_secs));
        report.set("p50_ms", stats::median(&total) * 1e3);
        report.set("rate_per_s", N_HELD_OUT as f64 / stats::median(&predict));
        return report;
    }
    let (inp, reference, scalar) = set_up(args.seed, &mut report.tally);
    let start = Instant::now();
    // Traced run: rounds alternate tracing off and on; the last traced
    // round gives the per-layer metrics.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut last = None;
    while on.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let traced = off.len() > on.len();
        let mut counters = Counters::default();
        if traced {
            edm_trace::set_level(edm_trace::Level::Summary);
        }
        let r = round(&inp, traced.then_some(&mut counters));
        edm_trace::set_level(edm_trace::Level::Off);
        check(&r, &reference, &scalar, &mut report.tally);
        if traced {
            on.push(r.total_s());
            last = Some((r, counters));
        } else {
            off.push(r.total_s());
        }
    }
    report.set("trace.overhead_pct", 100.0 * (stats::median(&on) / stats::median(&off) - 1.0));
    let (r, counters) = last.expect("at least one traced round");
    layer_metrics(&inp, &r, &counters, &mut report);
    report
}

/// The training layers at probe scale, for other workloads' traced
/// runs (tracing is already on).
pub fn probe(args: &Args) -> Report {
    let mut report = Report::default();
    let inp = Inputs::new(args.seed, 600, 256);
    let mut counters = Counters::default();
    let r = round(&inp, Some(&mut counters));
    let scalar = scalar_predictions(&inp, &r);
    check(&r, &r, &scalar, &mut report.tally);
    layer_metrics(&inp, &r, &counters, &mut report);
    report
}

fn layer_metrics(inp: &Inputs, r: &Round, c: &Counters, report: &mut Report) {
    report.set("train_s", r.train_s());
    report.set("kernels.gram_s", r.gram_s);
    report.set("svm.svc_fit_s", r.fit_s);
    report.set("svm.one_class_solve_s", r.solve_s);
    report.set("svm.predict_batch_s", r.predict_s);
    report.set("kernels.gram.tiles", c.tiles as f64);
    report.set("kernels.evals", c.evals as f64);
    report.set("svm.qcache.hits", c.hits as f64);
    report.set("svm.qcache.misses", c.misses as f64);
    report.set("svm.qcache.evictions", c.evictions as f64);
    report.set("svm.qcache.hit_rate", c.hits as f64 / (c.hits + c.misses).max(1) as f64);
    report.set("svm.q.batch_fills", c.batch_fills as f64);
    report.set("svm.smo.iterations", c.iterations as f64);
    report.set("svm.smo.calls", c.calls as f64);
    report.set("par.jobs", c.par_jobs as f64);
    // Scalar over batched time on the same chunks: below 1 means the
    // batched path is slower than calling `predict` row by row.
    if let Ok(m) = &r.svc {
        let (_, scalar_s) = stats::timed(|| {
            for row in &inp.held_out {
                std::hint::black_box(m.predict(row));
            }
        });
        let (_, batch_s) = stats::timed(|| {
            for chunk in inp.held_out.chunks(CHUNK) {
                std::hint::black_box(m.predict_batch(chunk));
            }
        });
        report.set("svm.predict_batch_vs_scalar", scalar_s / batch_s);
    }
}

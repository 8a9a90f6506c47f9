//! The six `edm-core` methodology flows, measured by every traced run
//! at their figure binaries' sizes and seeds.
//!
//! Substrate simulators (`verif`, `litho`, `mfgtest`, `timing`), flow
//! glue and small cache-resident SVMs dominate the flows, so a Q-cache
//! or SMO change should leave them flat. The inputs are the figures'
//! own, so the paper's claims are checked on every run; they do not
//! depend on the workload seed.
//!
//! Three flows are also replayed stage by stage from this file —
//! Fig. 7 (simulate, novelty decision, accept), Fig. 9 (golden litho,
//! density features, SVM fits), Fig. 11 (populations, test-space
//! selection, scoring) — timing each layer's public calls; each replay
//! must reproduce its flow's output, and the staged layers' share of
//! the flow's `run` time is reported.

use std::time::Instant;

use edm_core::dstc::{self, DstcConfig};
use edm_core::noveltest::{
    self, CurvePoint, NovelSelectionConfig, NovelSelectionResult, NoveltyFilter,
};
use edm_core::returns::{self, ReturnScreeningConfig, ReturnScreeningResult};
use edm_core::template_refine::{self, RefinementConfig};
use edm_core::testcost::{self, TestCostConfig};
use edm_core::variability::{self, VariabilityConfig, VariabilityPredictor, VariabilityResult};
use edm_kernels::HistogramIntersectionKernel;
use edm_litho::features::density_histogram;
use edm_litho::layout::{LayoutClip, LayoutGenerator};
use edm_litho::variability::{VariabilityAnalyzer, VariabilityLabel};
use edm_mfgtest::product::ProductModel;
use edm_mfgtest::returns::FieldModel;
use edm_mfgtest::testflow::TestFlow;
use edm_svm::{OneClassParams, OneClassSvm, SvcParams, SvcTrainer};
use edm_timing::silicon::{SiliconModel, SystematicEffect};
use edm_verif::coverage::CoverageMap;
use edm_verif::lsu::{LsuConfig, LsuSimulator};
use edm_verif::program::Program;
use edm_verif::template::MixtureTemplate;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Report;
use crate::stats::{self, Tally};

/// Flow names, in the order of [`run_flow`]'s index.
const FLOWS: [&str; 6] =
    ["noveltest", "template_refine", "variability", "dstc", "returns", "testcost"];

/// The figure binaries' sizes, or a small version of the same inputs
/// for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Scale {
    Figure,
    #[cfg_attr(not(test), allow(dead_code))]
    Probe,
}

/// Every flow's configuration, plus the Fig. 7 test stream.
struct Inputs {
    scale: Scale,
    fig7_tests: Vec<Program>,
    fig7_sim: LsuSimulator,
    fig7: NovelSelectionConfig,
    table1: RefinementConfig,
    fig9: VariabilityConfig,
    fig10: DstcConfig,
    silicon: SiliconModel,
    fig11: ReturnScreeningConfig,
    fig11_seed: u64,
    fig12: TestCostConfig,
}

impl Inputs {
    /// The figure binaries' configurations and seeds (`crates/bench`).
    fn new(scale: Scale) -> Inputs {
        let probe = scale == Scale::Probe;
        let fig7 = NovelSelectionConfig {
            n_tests: if probe { 600 } else { 8000 },
            nu: 0.15,
            ngram: 3,
            length_weight: 2.0,
            ..Default::default()
        };
        let template = MixtureTemplate::verification_plan();
        let mut rng = StdRng::seed_from_u64(7);
        let fig7_tests = (0..fig7.n_tests).map(|_| template.generate(&mut rng)).collect();
        Inputs {
            scale,
            fig7_tests,
            fig7_sim: LsuSimulator::new(LsuConfig { store_buffer_depth: 6, ..Default::default() }),
            fig7,
            table1: RefinementConfig {
                tests_per_stage: if probe { vec![80, 20, 10] } else { vec![400, 100, 50] },
                ..Default::default()
            },
            fig9: if probe {
                VariabilityConfig { n_train: 120, n_test: 60, ..Default::default() }
            } else {
                VariabilityConfig { n_train: 400, n_test: 200, ..Default::default() }
            },
            fig10: DstcConfig { n_paths: if probe { 300 } else { 1200 }, ..Default::default() },
            silicon: SiliconModel::default()
                .with_effect(SystematicEffect::ViaResistance { lower_layer: 4, extra_ps: 7.0 })
                .with_effect(SystematicEffect::ViaResistance { lower_layer: 5, extra_ps: 7.0 }),
            // The probe population is the size `edm-core`'s own return
            // test uses, with its seed, which is known to yield returns.
            fig11: if probe {
                ReturnScreeningConfig {
                    lot_size: 2_000,
                    n_lots: 8,
                    defect_rate: 2e-3,
                    ..Default::default()
                }
            } else {
                ReturnScreeningConfig {
                    lot_size: 10_000,
                    n_lots: 10,
                    defect_rate: 3e-4,
                    ..Default::default()
                }
            },
            fig11_seed: if probe { 101 } else { 11 },
            fig12: if probe {
                TestCostConfig { phase1_chips: 20_000, phase2_chips: 10_000, ..Default::default() }
            } else {
                TestCostConfig::default()
            },
        }
    }
}

/// What a flow run leaves for the staged replay.
enum Detail {
    None,
    Novel(NovelSelectionResult),
    Variability(Box<(VariabilityResult, VariabilityPredictor)>),
    Returns(Box<ReturnScreeningResult>),
}

/// One flow run: its wall time, the fingerprint of its serialized
/// result, and whether its figure's claims held.
struct FlowRun {
    secs: f64,
    fingerprint: u64,
    claims_ok: bool,
    detail: Detail,
}

fn json_fingerprint<T: serde::Serialize>(value: &T) -> u64 {
    serde_json::to_string(value).map_or(0, |s| stats::fingerprint(s.as_bytes()))
}

/// Runs flow `i` and checks the claims its figure binary prints. Only
/// the `run` call is timed. Fig. 7's two quantitative claims depend on
/// the RNG stream and fail under the workspace's stand-in `rand`, so
/// only its coverage claim is checked; at probe scale no claim applies.
fn run_flow(i: usize, inp: &Inputs) -> FlowRun {
    let figure = inp.scale == Scale::Figure;
    let failed = |secs| FlowRun { secs, fingerprint: 0, claims_ok: false, detail: Detail::None };
    match i {
        0 => {
            let (r, secs) =
                stats::timed(|| noveltest::run_stream(&inp.fig7_tests, &inp.fig7_sim, &inp.fig7));
            let Ok(r) = r else { return failed(secs) };
            FlowRun {
                secs,
                fingerprint: json_fingerprint(&r),
                claims_ok: !figure || r.filtered_tests_to_max.is_some(),
                detail: Detail::Novel(r),
            }
        }
        1 => {
            let mut rng = StdRng::seed_from_u64(1);
            let sim = LsuSimulator::default_config();
            let (r, secs) = stats::timed(|| template_refine::run(&sim, &inp.table1, &mut rng));
            let Ok(stages) = r else { return failed(secs) };
            let claims_ok = !figure || {
                let (first, last) = (&stages[0], &stages[stages.len() - 1]);
                let rate = |s: &template_refine::StageResult| {
                    s.counts[2..].iter().sum::<u64>() as f64 / s.n_tests as f64
                };
                let covered =
                    |s: &template_refine::StageResult| s.counts.iter().filter(|&&c| c > 0).count();
                rate(first) < 0.3
                    && first.counts[0] > 100
                    && first.counts[1] > 100
                    && covered(last) >= covered(first)
                    && covered(last) >= 7
                    && rate(last) >= 5.0 * rate(first).max(0.02)
            };
            FlowRun {
                secs,
                fingerprint: json_fingerprint(&stages),
                claims_ok,
                detail: Detail::None,
            }
        }
        2 => {
            let mut rng = StdRng::seed_from_u64(9);
            let (r, secs) = stats::timed(|| {
                variability::run(
                    &LayoutGenerator::default(),
                    &VariabilityAnalyzer::default(),
                    &inp.fig9,
                    &mut rng,
                )
            });
            let Ok((result, predictor)) = r else { return failed(secs) };
            let claims_ok = !figure
                || (result.svc.accuracy >= 0.80
                    && result.svc.bad_recall >= 0.75
                    && result.speedup() >= 10.0);
            // The two per-clip wall times are measurements, not results.
            let mut stable = result.clone();
            stable.golden_us_per_clip = 0.0;
            stable.model_us_per_clip = 0.0;
            FlowRun {
                secs,
                fingerprint: json_fingerprint(&(stable, &predictor)),
                claims_ok,
                detail: Detail::Variability(Box::new((result, predictor))),
            }
        }
        3 => {
            let mut rng = StdRng::seed_from_u64(10);
            let (r, secs) = stats::timed(|| {
                dstc::run(
                    &Default::default(),
                    &Default::default(),
                    &inp.silicon,
                    &inp.fig10,
                    &mut rng,
                )
            });
            let Ok(r) = r else { return failed(secs) };
            let names = edm_timing::path::TimingPath::feature_names(6);
            let claims_ok = !figure
                || (r.slow_cluster_mismatch - r.fast_cluster_mismatch > 10.0
                    && (r.implicates("via45") || r.implicates("via56"))
                    && r.raw_rules.first().is_some_and(|rule| {
                        rule.conditions.iter().any(|c| {
                            names[c.feature].starts_with("via4")
                                || names[c.feature].starts_with("via5")
                        })
                    }));
            FlowRun { secs, fingerprint: json_fingerprint(&r), claims_ok, detail: Detail::None }
        }
        4 => {
            let mut rng = StdRng::seed_from_u64(inp.fig11_seed);
            let (r, secs) = stats::timed(|| returns::run(&inp.fig11, &mut rng));
            let Ok(r) = r else { return failed(secs) };
            let min_pct = r.baseline_return_percentiles.iter().fold(1.0_f64, |m, &p| m.min(p));
            let claims_ok = !figure
                || (min_pct > 0.95
                    && (r.later_total == 0 || r.later_caught * 3 >= r.later_total * 2)
                    && (r.sister_total == 0 || r.sister_caught * 2 >= r.sister_total)
                    && r.overkill_rate < 0.01);
            FlowRun {
                secs,
                fingerprint: json_fingerprint(&r),
                claims_ok,
                detail: Detail::Returns(Box::new(r)),
            }
        }
        _ => {
            let mut rng = StdRng::seed_from_u64(12);
            let (r, secs) = stats::timed(|| testcost::run(&inp.fig12, &mut rng));
            let a = &r.analysis;
            let claims_ok = !figure
                || (a.correlations.iter().all(|&(_, c)| c >= 0.95)
                    && a.unique_catches == 0
                    && a.recommend_drop
                    && r.escapes > 0
                    && r.escapes_from_tail_mechanism * 10 >= r.escapes * 8);
            FlowRun { secs, fingerprint: json_fingerprint(&r), claims_ok, detail: Detail::None }
        }
    }
}

/// One pass over the six flows; results indexed by flow.
fn pass(inp: &Inputs) -> Vec<FlowRun> {
    (0..FLOWS.len()).map(|i| run_flow(i, inp)).collect()
}

/// Counts each flow run of a pass as one operation: it fails unless its
/// claims held and its fingerprint matches the first pass's.
fn check_pass(runs: &[FlowRun], reference: &mut Option<Vec<u64>>, tally: &mut Tally) {
    let prints: Vec<u64> = runs.iter().map(|r| r.fingerprint).collect();
    let reference = reference.get_or_insert_with(|| prints.clone());
    for (run, (&got, &want)) in runs.iter().zip(prints.iter().zip(reference.iter())) {
        tally.check(run.claims_ok && run.fingerprint != 0 && got == want);
    }
}

/// The flow layers at the figures' sizes, for the traced runs (tracing
/// is already on): a warm-up pass and a traced pass, whose results must
/// agree fingerprint for fingerprint and meet their figures' claims,
/// then the staged replays.
pub fn probe() -> Report {
    let mut report = Report::default();
    let inp = Inputs::new(Scale::Figure);
    let mut reference = None;
    check_pass(&pass(&inp), &mut reference, &mut report.tally);
    edm_trace::reset();
    let runs = pass(&inp);
    let trace = edm_trace::collect();
    check_pass(&runs, &mut reference, &mut report.tally);
    layer_metrics(&inp, &runs, &trace, &mut report);
    report
}

/// Per-layer metrics from one traced pass: each flow's `run` time, the
/// SVM counters, and the staged replays with their attribution.
fn layer_metrics(
    inp: &Inputs,
    runs: &[FlowRun],
    trace: &edm_trace::TraceReport,
    report: &mut Report,
) {
    const CORE: [&str; 6] = [
        "core.noveltest_s",
        "core.template_refine_s",
        "core.variability_s",
        "core.dstc_s",
        "core.returns_s",
        "core.testcost_s",
    ];
    for (name, run) in CORE.iter().zip(runs) {
        report.set(name, run.secs);
    }
    report.set("flows.smo.iterations", trace.counter("svm.smo.iterations") as f64);
    let (hits, misses) = (trace.counter("svm.qcache.hits"), trace.counter("svm.qcache.misses"));
    report.set("flows.qcache.hit_rate", hits as f64 / (hits + misses).max(1) as f64);

    // Each staged flow runs once more right before its replay, so the
    // two times it compares see the same host conditions.
    let mut attributed = Vec::new();
    for staged in [0, 2, 4] {
        let run = run_flow(staged, inp);
        let (layers_s, ok) = match run.detail {
            Detail::Novel(result) => replay_noveltest(inp, &result, report),
            Detail::Variability(b) => replay_variability(inp, &b.1, report),
            Detail::Returns(result) => replay_returns(inp, &result, report),
            Detail::None => (0.0, false),
        };
        report.tally.check(ok);
        attributed.push(100.0 * layers_s / run.secs);
    }
    let worst = attributed.iter().copied().fold(f64::INFINITY, f64::min);
    report.set("flows.attributed_pct", worst);
}

/// Fig. 7 stage by stage: simulate the stream, then the novelty filter's
/// decide/accept loop. Returns the staged seconds and whether the
/// filtered curve equals the flow's.
fn replay_noveltest(
    inp: &Inputs,
    result: &NovelSelectionResult,
    report: &mut Report,
) -> (f64, bool) {
    let (outcomes, simulate_s) = stats::timed(|| {
        inp.fig7_tests.iter().map(|t| inp.fig7_sim.simulate(t)).collect::<Vec<_>>()
    });
    let cfg = &inp.fig7;
    let mut filter =
        NoveltyFilter::weighted(cfg.ngram, cfg.length_weight, cfg.nu, cfg.retrain_every);
    let (mut decision_s, mut accept_s) = (0.0, 0.0);
    let mut filtered = Vec::new();
    let mut coverage = CoverageMap::new();
    let mut cycles = 0u64;
    let mut ok = true;
    for (test, out) in inp.fig7_tests.iter().zip(&outcomes) {
        let tokens = test.tokens();
        let accept = filter.n_accepted() < cfg.warmup || {
            let (d, s) = stats::timed(|| filter.decision(&tokens));
            decision_s += s;
            d < cfg.margin
        };
        if !accept {
            continue;
        }
        let (accepted, s) = stats::timed(|| filter.accept(tokens));
        accept_s += s;
        ok &= accepted.is_ok();
        coverage.merge(&out.coverage);
        cycles += out.cycles;
        filtered.push(CurvePoint {
            simulated: filtered.len() + 1,
            covered: coverage.n_covered(),
            cycles,
        });
    }
    report.set("verif.simulate_s", simulate_s);
    report.set("noveltest.decision_s", decision_s);
    report.set("noveltest.accept_s", accept_s);
    (simulate_s + decision_s + accept_s, ok && filtered == result.filtered)
}

/// Fig. 9 stage by stage: golden simulation, density features, the two
/// SVM fits. Returns the staged seconds and whether the replayed models
/// predict every held-out clip as the flow's predictor does.
fn replay_variability(
    inp: &Inputs,
    predictor: &VariabilityPredictor,
    report: &mut Report,
) -> (f64, bool) {
    let cfg = &inp.fig9;
    let mut rng = StdRng::seed_from_u64(9);
    let generator = LayoutGenerator::default();
    let clips: Vec<LayoutClip> =
        (0..cfg.n_train + cfg.n_test).map(|_| generator.generate_random(&mut rng).1).collect();
    let analyzer = VariabilityAnalyzer::default();
    let (labels, golden_s) =
        stats::timed(|| clips.iter().map(|c| analyzer.analyze(c).label).collect::<Vec<_>>());
    let (hists, features_s) = stats::timed(|| {
        clips.iter().map(|c| density_histogram(c, &cfg.histogram)).collect::<Vec<_>>()
    });
    let (train_h, test_h) = hists.split_at(cfg.n_train);
    let (models, fit_s) = stats::timed(|| {
        let y: Vec<f64> = labels[..cfg.n_train]
            .iter()
            .map(|&l| if l == VariabilityLabel::Bad { 1.0 } else { -1.0 })
            .collect();
        let svc = SvcTrainer::new(SvcParams::default().with_c(cfg.svc_c))
            .kernel(HistogramIntersectionKernel::new())
            .fit(train_h, &y)?;
        let good: Vec<Vec<f64>> = train_h
            .iter()
            .zip(&labels)
            .filter(|&(_, &l)| l == VariabilityLabel::Good)
            .map(|(h, _)| h.clone())
            .collect();
        let one_class = OneClassSvm::new(OneClassParams::default().with_nu(cfg.one_class_nu))
            .kernel(HistogramIntersectionKernel::new())
            .fit(&good)?;
        Ok::<_, edm_svm::SvmError>((svc, one_class))
    });
    report.set("litho.golden_s", golden_s);
    report.set("litho.features_s", features_s);
    report.set("svm.fit_s", fit_s);
    let ok = models.is_ok_and(|(svc, one_class)| {
        clips[cfg.n_train..].iter().zip(test_h).all(|(clip, h)| {
            predictor.predict_bad(clip) == (svc.predict(h) > 0.0)
                && predictor.is_unfamiliar(clip) == one_class.is_novel(h)
        })
    });
    (golden_s + features_s + fit_s, ok)
}

/// Fig. 11 stage by stage: the three device populations, test-space
/// selection, and every scoring call the flow makes with its screen.
/// Returns the staged seconds and whether selection and every plotted
/// number equal the flow's.
fn replay_returns(
    inp: &Inputs,
    result: &ReturnScreeningResult,
    report: &mut Report,
) -> (f64, bool) {
    let cfg = &inp.fig11;
    let mut rng = StdRng::seed_from_u64(inp.fig11_seed);
    let product = ProductModel::automotive().with_defect_rate(cfg.defect_rate);
    let flow = TestFlow::new(product.spec_limits().to_vec());
    let sister = product.sister_product();
    let sister_flow = TestFlow::new(sister.spec_limits().to_vec());
    let field = FieldModel::default();
    // Draw order matches `returns::run` (selection and fitting draw
    // nothing between the baseline and later populations).
    let t = Instant::now();
    let base: Vec<_> =
        (0..cfg.n_lots).flat_map(|lot| product.generate_lot(lot, cfg.lot_size, &mut rng)).collect();
    let (shipped, _) = flow.screen(&base);
    let (returned, survivors) = field.field_exposure(&shipped, &mut rng);
    let later: Vec<_> = (cfg.n_lots..cfg.n_lots + 4)
        .flat_map(|lot| product.generate_lot(lot + 20, cfg.lot_size, &mut rng))
        .collect();
    let (later_shipped, _) = flow.screen(&later);
    let (later_returned, later_survivors) = field.field_exposure(&later_shipped, &mut rng);
    let sisters: Vec<_> =
        (0..4).flat_map(|lot| sister.generate_lot(lot + 50, cfg.lot_size, &mut rng)).collect();
    let (sister_shipped, _) = sister_flow.screen(&sisters);
    let (sister_returned, sister_survivors) = field.field_exposure(&sister_shipped, &mut rng);
    let population_s = t.elapsed().as_secs_f64();

    let (selected, select_s) = stats::timed(|| {
        returns::select_test_space(&survivors, &returned, product.n_tests(), cfg.n_selected)
    });
    let screen = &result.screen;
    let ((survivor_scores, return_scores, later_caught, sister_caught, later_scores), score_s) =
        stats::timed(|| {
            (
                screen.score_population(&survivors),
                returned.iter().map(|d| screen.score(d, &survivors)).collect::<Vec<_>>(),
                later_returned.iter().filter(|d| screen.flags(d, &later_survivors)).count(),
                sister_returned.iter().filter(|d| screen.flags(d, &sister_survivors)).count(),
                screen.score_population(&later_survivors),
            )
        });
    report.set("mfgtest.population_s", population_s);
    report.set("returns.select_s", select_s);
    report.set("returns.score_s", score_s);

    let mut sorted = survivor_scores;
    sorted.sort_by(f64::total_cmp);
    let percentiles: Vec<f64> = return_scores
        .iter()
        .map(|&s| sorted.partition_point(|&v| v < s) as f64 / sorted.len().max(1) as f64)
        .collect();
    let overkill = later_scores.iter().filter(|&&s| s > screen.threshold()).count() as f64
        / later_scores.len().max(1) as f64;
    let ok = selected == screen.selected_tests
        && percentiles == result.baseline_return_percentiles
        && (later_caught, later_returned.len()) == (result.later_caught, result.later_total)
        && (sister_caught, sister_returned.len()) == (result.sister_caught, result.sister_total)
        && overkill == result.overkill_rate;
    (population_s + select_s + score_s, ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_flow_result_counts_as_a_failure() {
        let inp = Inputs::new(Scale::Probe);
        let runs = pass(&inp);
        let mut reference = None;
        let mut tally = Tally::default();
        check_pass(&runs, &mut reference, &mut tally);
        assert_eq!(tally, Tally { attempted: 6, failed: 0 });
        // The same results again pass; one corrupted fingerprint fails.
        let mut again = pass(&inp);
        check_pass(&again, &mut reference, &mut tally);
        assert_eq!(tally.failed, 0);
        again[4].fingerprint ^= 1;
        check_pass(&again, &mut reference, &mut tally);
        assert_eq!(tally, Tally { attempted: 18, failed: 1 });
        assert!(tally.error_rate() > 0.0);
    }

    #[test]
    fn staged_replays_reproduce_their_flows() {
        let inp = Inputs::new(Scale::Probe);
        let mut report = Report::default();
        let runs = pass(&inp);
        layer_metrics(&inp, &runs, &edm_trace::TraceReport::empty(), &mut report);
        assert_eq!(report.tally, Tally { attempted: 3, failed: 0 });
        assert!(report.get("flows.attributed_pct").is_some_and(|p| p > 0.0));
    }
}

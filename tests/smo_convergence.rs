//! SMO convergence on the paper's workload substrates: first-order
//! (WSS1) against second-order (WSS2) working-set selection, with and
//! without shrinking.
//!
//! Iteration counts are deterministic, so the claims are exact checks
//! rather than timings:
//!
//! * on the Fig. 7 (LSU coverage signatures) and Fig. 11 (parametric
//!   returns) one-class workloads, WSS2 + shrinking needs at most half
//!   the iterations of WSS1, and on the other three no more than WSS1;
//! * on all five workloads, the three solver configurations agree in
//!   sign wherever the reference decision value is clear of a 1e-4
//!   band (inside it the solvers stopped at different points within
//!   `tol` of the optimum, and the sign is genuinely ambiguous);
//! * batch scoring is bitwise the scalar loop on the four trained models.
//!
//! The verif-spectrum workload is a deliberate contrast: its cosine
//! Gram is close to uniform, so WSS1 is already near-optimal there.

use edm::data::{Dataset, StandardScaler};
use edm::kernels::{HistogramIntersectionKernel, RbfKernel, SpectrumKernel, SpectrumProfile};
use edm::linalg::Matrix;
use edm::litho::features::{density_histogram, HistogramSpec};
use edm::litho::layout::LayoutGenerator;
use edm::litho::variability::{VariabilityAnalyzer, VariabilityLabel};
use edm::mfgtest::product::ProductModel;
use edm::svm::{
    solve_one_class, OneClassParams, OneClassSvm, SvcParams, SvcTrainer, SvrParams, SvrTrainer,
    WorkingSet,
};
use edm::verif::lsu::{LsuConfig, LsuSimulator};
use edm::verif::template::MixtureTemplate;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 14;

/// Decision values inside this band may differ in sign between solvers.
const BAND: f64 = 1e-4;

/// WSS1, WSS2, WSS2 + shrinking — in that order throughout.
const CONFIGS: [(WorkingSet, bool); 3] = [
    (WorkingSet::FirstOrder, false),
    (WorkingSet::SecondOrder, false),
    (WorkingSet::SecondOrder, true),
];

/// One solver configuration's SMO iterations and decision values.
struct Run {
    iterations: usize,
    decisions: Vec<f64>,
}

fn standardized(raw: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    let ds = Dataset::unlabeled(raw);
    let scaler = StandardScaler::fit(&ds);
    ds.rows().iter().map(|r| scaler.transform_sample(r)).collect()
}

/// Asserts every configuration agrees in sign with WSS1 outside [`BAND`].
fn assert_signs_agree(workload: &str, runs: &[Run]) {
    let reference = &runs[0].decisions;
    for (cfg, run) in runs.iter().enumerate().skip(1) {
        for (i, (&r, &o)) in reference.iter().zip(&run.decisions).enumerate() {
            assert!(
                r.abs() < BAND || o.abs() < BAND || (r > 0.0) == (o > 0.0),
                "{workload}: config {cfg} disagrees with WSS1 at point {i} ({o} vs {r})"
            );
        }
    }
}

/// Asserts WSS1 takes at least `factor` times the iterations of
/// WSS2 + shrinking.
fn assert_cuts_iterations(workload: &str, runs: &[Run], factor: usize) {
    let (wss1, wss2_shrink) = (runs[0].iterations, runs[2].iterations);
    assert!(
        wss1 >= factor * wss2_shrink,
        "{workload}: WSS1 {wss1} iterations vs WSS2+shrinking {wss2_shrink}, under {factor}x"
    );
}

/// Asserts batch scoring is bitwise the scalar loop; returns the scores.
fn batch_matches_scalar(workload: &str, batch: Vec<f64>, scalar: Vec<f64>) -> Vec<f64> {
    assert_eq!(batch.len(), scalar.len(), "{workload}: batch length");
    for (i, (b, s)) in batch.iter().zip(&scalar).enumerate() {
        assert_eq!(b.to_bits(), s.to_bits(), "{workload}: batch row {i} ({b} vs {s})");
    }
    batch
}

fn one_class_params(
    nu: f64,
    tol: f64,
    (working_set, shrinking): (WorkingSet, bool),
) -> OneClassParams {
    let mut params = OneClassParams::default()
        .with_nu(nu)
        .with_working_set(working_set)
        .with_shrinking(shrinking);
    params.tol = tol;
    params
}

/// Fig. 7 substrate: a one-class model over standardized LSU coverage
/// signatures (log1p hit counts, log1p cycles, program length) of
/// constrained-random test programs.
fn verif_coverage_runs() -> Vec<Run> {
    let template = MixtureTemplate::verification_plan();
    let sim = LsuSimulator::new(LsuConfig { store_buffer_depth: 6, ..Default::default() });
    let mut rng = StdRng::seed_from_u64(7);
    let raw: Vec<Vec<f64>> = (0..100)
        .map(|_| {
            let program = template.generate(&mut rng);
            let out = sim.simulate(&program);
            let mut f: Vec<f64> =
                out.coverage.as_row().iter().map(|&c| (c as f64).ln_1p()).collect();
            f.push((out.cycles as f64).ln_1p());
            f.push(program.tokens().len() as f64);
            f
        })
        .collect();
    let x = standardized(raw);
    CONFIGS
        .into_iter()
        .map(|cfg| {
            let svm =
                OneClassSvm::new(one_class_params(0.05, 1e-6, cfg)).kernel(RbfKernel::new(0.1));
            let model = svm.fit(&x).expect("coverage one-class fits");
            let scalar = x.iter().map(|xi| model.decision_function(xi)).collect();
            Run {
                iterations: model.iterations(),
                decisions: batch_matches_scalar(
                    "one_class/verif_coverage",
                    model.decision_function_batch(&x),
                    scalar,
                ),
            }
        })
        .collect()
}

/// Fig. 11 substrate: a one-class model over standardized parametric
/// measurements of passing automotive devices.
fn mfgtest_returns_runs() -> Vec<Run> {
    let product = ProductModel::automotive();
    let mut rng = StdRng::seed_from_u64(11);
    let raw = product.generate_lot(0, 200, &mut rng).into_iter().map(|d| d.measurements).collect();
    let x = standardized(raw);
    CONFIGS
        .into_iter()
        .map(|cfg| {
            let svm =
                OneClassSvm::new(one_class_params(0.05, 1e-6, cfg)).kernel(RbfKernel::new(0.02));
            let model = svm.fit(&x).expect("returns one-class fits");
            let scalar = x.iter().map(|xi| model.decision_function(xi)).collect();
            Run {
                iterations: model.iterations(),
                decisions: batch_matches_scalar(
                    "one_class/mfgtest_returns",
                    model.decision_function_batch(&x),
                    scalar,
                ),
            }
        })
        .collect()
}

#[test]
fn fig07_coverage_workload_halves_iterations_and_agrees() {
    let runs = verif_coverage_runs();
    assert_cuts_iterations("one_class/verif_coverage", &runs, 2);
    assert_signs_agree("one_class/verif_coverage", &runs);
}

#[test]
fn fig11_returns_workload_halves_iterations_and_agrees() {
    let runs = mfgtest_returns_runs();
    assert_cuts_iterations("one_class/mfgtest_returns", &runs, 2);
    assert_signs_agree("one_class/mfgtest_returns", &runs);
}

/// Fig. 9 substrate: C-SVC over the histogram-intersection kernel on
/// layout density histograms labeled by the golden simulator.
#[test]
fn fig09_litho_svc_wss2_never_slower_and_agrees() {
    let (n_train, n_test) = (120, 60);
    let generator = LayoutGenerator::default();
    let analyzer = VariabilityAnalyzer::default();
    let spec = HistogramSpec::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let clips: Vec<_> =
        (0..n_train + n_test).map(|_| generator.generate_random(&mut rng).1).collect();
    let hists: Vec<Vec<f64>> = clips.iter().map(|c| density_histogram(c, &spec)).collect();
    let labels: Vec<f64> = clips[..n_train]
        .iter()
        .map(|c| if analyzer.analyze(c).label == VariabilityLabel::Bad { 1.0 } else { -1.0 })
        .collect();
    let (train, test) = hists.split_at(n_train);
    let runs: Vec<Run> = CONFIGS
        .into_iter()
        .map(|(working_set, shrinking)| {
            let params = SvcParams::default()
                .with_c(10.0)
                .with_working_set(working_set)
                .with_shrinking(shrinking);
            let model = SvcTrainer::new(params)
                .kernel(HistogramIntersectionKernel::new())
                .fit(train, &labels)
                .expect("litho SVC fits");
            let scalar = test.iter().map(|h| model.decision_function(h)).collect();
            Run {
                iterations: model.iterations(),
                decisions: batch_matches_scalar(
                    "svc/litho_hotspots",
                    model.decision_function_batch(test),
                    scalar,
                ),
            }
        })
        .collect();
    assert_cuts_iterations("svc/litho_hotspots", &runs, 1);
    assert_signs_agree("svc/litho_hotspots", &runs);
}

/// Ref \[20\] substrate: ε-SVR predicting Fmax from the automotive
/// product's other standardized parametric tests. Besides the sign
/// check, near-optimal duals must predict within ε = 0.02 of WSS1.
#[test]
fn ref20_fmax_svr_wss2_never_slower_and_agrees() {
    let (n_train, n_test) = (150, 60);
    let product = ProductModel::automotive();
    let fmax = product.test_index("fmax").expect("model has fmax");
    let mut rng = StdRng::seed_from_u64(SEED ^ 20);
    let devices = product.generate_lot(0, n_train + n_test, &mut rng);
    let raw: Vec<Vec<f64>> = devices
        .iter()
        .map(|d| {
            d.measurements.iter().enumerate().filter(|&(i, _)| i != fmax).map(|(_, &v)| v).collect()
        })
        .collect();
    let y: Vec<f64> = devices[..n_train].iter().map(|d| d.measurements[fmax]).collect();
    let x = standardized(raw);
    let (train, test) = x.split_at(n_train);
    let runs: Vec<Run> = CONFIGS
        .into_iter()
        .map(|(working_set, shrinking)| {
            let params = SvrParams::default()
                .with_c(10.0)
                .with_epsilon(0.02)
                .with_working_set(working_set)
                .with_shrinking(shrinking);
            let model = SvrTrainer::new(params)
                .kernel(RbfKernel::new(0.1))
                .fit(train, &y)
                .expect("fmax SVR fits");
            let scalar = test.iter().map(|t| model.predict(t)).collect();
            Run {
                iterations: model.iterations(),
                decisions: batch_matches_scalar(
                    "svr/mfgtest_fmax",
                    model.predict_batch(test),
                    scalar,
                ),
            }
        })
        .collect();
    assert_cuts_iterations("svr/mfgtest_fmax", &runs, 1);
    assert_signs_agree("svr/mfgtest_fmax", &runs);
    for run in &runs[1..] {
        for (&a, &b) in runs[0].decisions.iter().zip(&run.decisions) {
            assert!((a - b).abs() <= 0.02, "svr/mfgtest_fmax: {b} vs WSS1 {a}");
        }
    }
}

/// Contrast row: the ν one-class dual over the weighted spectrum
/// kernel's cosine Gram of Fig. 7 test programs, solved straight from
/// the Gram matrix.
#[test]
fn fig07_spectrum_gram_wss2_never_slower_and_agrees() {
    let n = 90;
    let template = MixtureTemplate::verification_plan();
    let kernel = SpectrumKernel::weighted(3, 2.0);
    let mut rng = StdRng::seed_from_u64(7);
    let profiles: Vec<SpectrumProfile> = (0..n)
        .map(|_| SpectrumProfile::build(&template.generate(&mut rng).tokens(), &kernel))
        .collect();
    let mut gram = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let v = profiles[i].cosine(&profiles[j]);
            gram[(i, j)] = v;
            gram[(j, i)] = v;
        }
    }
    let runs: Vec<Run> = CONFIGS
        .into_iter()
        .map(|cfg| {
            let (alpha, rho, iterations) =
                solve_one_class(&gram, &one_class_params(0.5, 1e-5, cfg))
                    .expect("spectrum one-class solves");
            // Training-set decision values f(xᵢ) = Σⱼ αⱼK(xᵢ,xⱼ) − ρ.
            let decisions = (0..n)
                .map(|i| (0..n).map(|j| alpha[j] * gram[(i, j)]).sum::<f64>() - rho)
                .collect();
            Run { iterations, decisions }
        })
        .collect();
    assert_cuts_iterations("one_class/verif_spectrum", &runs, 1);
    assert_signs_agree("one_class/verif_spectrum", &runs);
}

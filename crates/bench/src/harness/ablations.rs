//! Ablations of the design choices the methodology flows depend on —
//! the paper's central claim is that domain knowledge enters through the
//! kernel and the features, so each ablation removes one piece of that
//! knowledge and measures the damage.
//!
//! 1. Fig. 9 kernel choice: histogram-intersection (the paper's choice)
//!    vs RBF vs χ² on the same density histograms.
//! 2. Fig. 7 filter kernel: length-weighted vs flat spectrum grams, and
//!    a ν sweep.
//! 3. Fig. 11 feature selection: the selected 3-test space vs the full
//!    test space for the Mahalanobis screen.

use crate::{pct, Report};

fn ablate_fig9_kernels(s: u64, r: &mut Report) {
    use edm_kernels::{Chi2Kernel, HistogramIntersectionKernel, Kernel, RbfKernel};
    use edm_litho::features::{density_histogram, HistogramSpec};
    use edm_litho::layout::LayoutGenerator;
    use edm_litho::variability::{VariabilityAnalyzer, VariabilityLabel};
    use edm_svm::{SvcParams, SvcTrainer};

    r.header("ablation 1: Fig. 9 kernel choice on density histograms");
    let generator = LayoutGenerator::default();
    let analyzer = VariabilityAnalyzer::default();
    let spec = HistogramSpec::default();
    let mut rng = crate::rng(91, s);
    let n_train = 200;
    let n_test = 100;
    let mut hists = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..(n_train + n_test) {
        let clip = generator.generate_random(&mut rng).1;
        hists.push(density_histogram(&clip, &spec));
        let bad = analyzer.analyze(&clip).label == VariabilityLabel::Bad;
        labels.push(if bad { 1.0 } else { -1.0 });
    }
    let (train_h, test_h) = hists.split_at(n_train);
    let (train_l, test_l) = labels.split_at(n_train);

    fn accuracy<K: Kernel<[f64]> + Clone>(
        k: K,
        train_h: &[Vec<f64>],
        train_l: &[f64],
        test_h: &[Vec<f64>],
        test_l: &[f64],
    ) -> f64 {
        let m = SvcTrainer::new(SvcParams::default().with_c(10.0))
            .kernel(k)
            .fit(train_h, train_l)
            .expect("fit");
        test_h.iter().zip(test_l).filter(|(h, &l)| m.predict(h) == l).count() as f64
            / test_h.len() as f64
    }
    let hi = accuracy(HistogramIntersectionKernel::new(), train_h, train_l, test_h, test_l);
    let rbf = accuracy(RbfKernel::new(10.0), train_h, train_l, test_h, test_l);
    let chi2 = accuracy(Chi2Kernel::new(1.0), train_h, train_l, test_h, test_l);
    outln!(r, "HI kernel   accuracy: {}", pct(hi));
    outln!(r, "RBF kernel  accuracy: {}", pct(rbf));
    outln!(r, "chi2 kernel accuracy: {}", pct(chi2));
    r.claim("HI kernel is competitive with the best alternative (within 3%)", {
        hi + 0.03 >= rbf.max(chi2)
    });
    r.claim("all kernels beat the majority-class baseline", {
        let base = test_l.iter().filter(|&&l| l == 1.0).count() as f64 / test_l.len() as f64;
        let majority = base.max(1.0 - base);
        hi > majority && rbf > majority - 0.05 && chi2 > majority - 0.05
    });
}

fn ablate_fig7_filter(s: u64, r: &mut Report) {
    use edm_core::noveltest::{run_stream, NovelSelectionConfig};
    use edm_verif::lsu::{LsuConfig, LsuSimulator};
    use edm_verif::template::MixtureTemplate;

    r.header("ablation 2: Fig. 7 novelty-filter parameters");
    let template = MixtureTemplate::verification_plan();
    let sim = LsuSimulator::new(LsuConfig { store_buffer_depth: 6, ..Default::default() });
    let mut rng = crate::rng(92, s);
    let tests: Vec<_> = (0..3000).map(|_| template.generate(&mut rng)).collect();

    outln!(r, "{:>6} {:>8} {:>14} {:>12}", "nu", "lweight", "sims to max", "saving");
    let mut rows = Vec::new();
    for &(nu, lw) in &[(0.15, 2.0), (0.15, 1.0), (0.40, 2.0), (0.05, 2.0)] {
        let config = NovelSelectionConfig {
            n_tests: tests.len(),
            nu,
            ngram: 3,
            length_weight: lw,
            ..Default::default()
        };
        let res = run_stream(&tests, &sim, &config).expect("flow runs");
        let sims = res.filtered_tests_to_max;
        let saving = res.simulation_saving();
        match (sims, saving) {
            (Some(n), Some(sv)) => outln!(r, "{nu:>6} {lw:>8} {n:>14} {:>12}", pct(sv)),
            _ => outln!(r, "{nu:>6} {lw:>8} {:>14} {:>12}", "stalled", "-"),
        }
        rows.push((nu, lw, sims, saving));
    }
    let default_cfg = rows[0].3.unwrap_or(0.0);
    r.claim("the tuned configuration reaches max coverage", rows[0].2.is_some());
    r.claim(
        &format!("tuned configuration saves >= 60% ({})", pct(default_cfg)),
        default_cfg >= 0.60,
    );
    r.claim(
        "at least one ablated configuration is strictly worse (stalls or saves less)",
        rows[1..].iter().any(|(_, _, sims, saving)| {
            sims.is_none() || saving.unwrap_or(0.0) < default_cfg - 0.02
        }),
    );
}

fn ablate_fig11_feature_selection(s: u64, r: &mut Report) {
    use edm_mfgtest::product::ProductModel;
    use edm_mfgtest::returns::FieldModel;
    use edm_mfgtest::testflow::TestFlow;
    use edm_novelty::{MahalanobisDetector, NoveltyDetector};

    r.header("ablation 3: Fig. 11 selected 3-test space vs full space");
    let product = ProductModel::automotive().with_defect_rate(2e-3);
    let flow = TestFlow::new(product.spec_limits().to_vec());
    let field = FieldModel::default();
    let mut rng = crate::rng(93, s);
    let mut devices = Vec::new();
    for lot in 0..6 {
        devices.extend(product.generate_lot(lot, 3_000, &mut rng));
    }
    let (shipped, _) = flow.screen(&devices);
    let (returns, survivors) = field.field_exposure(&shipped, &mut rng);
    assert!(!returns.is_empty(), "need returns for the ablation");

    // Selected space: the defect-bearing tests (iddq, vmin, leak_hi).
    let idx_sel: Vec<usize> = ["iddq", "vmin", "leak_hi"]
        .iter()
        .map(|n| product.test_index(n).expect("test exists"))
        .collect();
    let idx_all: Vec<usize> = (0..product.n_tests()).collect();

    let detect_rate = |idx: &[usize]| -> f64 {
        let pop: Vec<Vec<f64>> =
            survivors.iter().map(|d| idx.iter().map(|&t| d.measurements[t]).collect()).collect();
        let det = MahalanobisDetector::fit(&pop, 0.999).expect("fit");
        let caught = returns
            .iter()
            .filter(|d| {
                let z: Vec<f64> = idx.iter().map(|&t| d.measurements[t]).collect();
                det.is_novel(&z)
            })
            .count();
        caught as f64 / returns.len() as f64
    };
    let sel = detect_rate(&idx_sel);
    let all = detect_rate(&idx_all);
    outln!(r, "returns: {}", returns.len());
    outln!(r, "selected 3-test space detection rate: {}", pct(sel));
    outln!(r, "full 8-test space detection rate:     {}", pct(all));
    r.claim("the selected subspace catches most returns", sel >= 0.7);
    r.claim("feature selection does not lose detection vs the full space", sel >= all - 0.10);
}

pub fn run(s: u64, r: &mut Report) {
    ablate_fig9_kernels(s, r);
    ablate_fig7_filter(s, r);
    ablate_fig11_feature_selection(s, r);
}

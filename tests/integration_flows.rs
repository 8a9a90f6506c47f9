//! Integration tests spanning substrates, learners, and methodology
//! flows — small-scale versions of each paper experiment, end to end.

use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fig3_kernel_trick_end_to_end() {
    use edm::kernels::{LinearKernel, PolyKernel};
    use edm::svm::{SvcParams, SvcTrainer};
    // Ring vs disc.
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..20 {
        let a = i as f64 * std::f64::consts::TAU / 20.0;
        x.push(vec![0.5 * a.cos(), 0.5 * a.sin()]);
        y.push(-1.0);
        x.push(vec![2.0 * a.cos(), 2.0 * a.sin()]);
        y.push(1.0);
    }
    let lin = SvcTrainer::new(SvcParams::default().with_c(10.0))
        .kernel(LinearKernel::new())
        .fit(&x, &y)
        .unwrap();
    let poly = SvcTrainer::new(SvcParams::default().with_c(10.0))
        .kernel(PolyKernel::homogeneous(2))
        .fit(&x, &y)
        .unwrap();
    let errors =
        |m: &dyn Fn(&[f64]) -> f64| x.iter().zip(&y).filter(|(xi, &yi)| m(xi) != yi).count();
    assert!(errors(&|p| lin.predict(p)) > 0);
    assert_eq!(errors(&|p| poly.predict(p)), 0);
}

#[test]
fn fig7_novelty_filter_saves_simulations() {
    use edm::core::noveltest::{run_stream, NovelSelectionConfig};
    use edm::verif::lsu::LsuSimulator;
    use edm::verif::template::MixtureTemplate;
    let template = MixtureTemplate::verification_plan();
    let mut rng = StdRng::seed_from_u64(71);
    let tests: Vec<_> = (0..600).map(|_| template.generate(&mut rng)).collect();
    let config = NovelSelectionConfig {
        n_tests: 600,
        nu: 0.2,
        ngram: 3,
        length_weight: 2.0,
        ..Default::default()
    };
    let result = run_stream(&tests, &LsuSimulator::default_config(), &config).unwrap();
    let reached = result.filtered_tests_to_max.expect("reaches max");
    assert!(reached <= result.baseline_tests_to_max);
}

#[test]
fn table1_refinement_round_trip() {
    use edm::core::template_refine::{run, RefinementConfig};
    use edm::verif::lsu::LsuSimulator;
    let config = RefinementConfig { tests_per_stage: vec![150, 60], ..Default::default() };
    let mut rng = StdRng::seed_from_u64(72);
    let stages = run(&LsuSimulator::default_config(), &config, &mut rng).unwrap();
    assert_eq!(stages.len(), 2);
    // The refined template differs from the original.
    assert_ne!(stages[0].template, stages[1].template);
}

#[test]
fn fig9_predictor_serializes_and_restores() {
    use edm::core::variability::{run, VariabilityConfig};
    use edm::litho::features::density_histogram;
    use edm::litho::layout::LayoutGenerator;
    use edm::litho::variability::VariabilityAnalyzer;
    use edm::{load_predictor_from_bytes, PersistentPredictor};
    let config = VariabilityConfig { n_train: 80, n_test: 30, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(73);
    let generator = LayoutGenerator::default();
    let (_, predictor) =
        run(&generator, &VariabilityAnalyzer::default(), &config, &mut rng).unwrap();
    let held_out: Vec<Vec<f64>> = (0..20)
        .map(|_| density_histogram(&generator.generate_random(&mut rng).1, predictor.spec()))
        .collect();
    // Round-trip both deployable models through `model-io`: the
    // histogram-intersection kernel reloads as `AnyKernel` and scores
    // the held-out clips bit for bit.
    let models: [(&dyn PersistentPredictor, &str); 2] =
        [(predictor.svc(), "svc"), (predictor.one_class(), "one_class_svm")];
    for (model, family) in models {
        let mut bytes = Vec::new();
        model.save(&mut bytes).unwrap();
        let restored = load_predictor_from_bytes(&bytes).unwrap().model;
        assert_eq!(restored.name(), family);
        let bits = |m: &dyn PersistentPredictor| -> Vec<u64> {
            m.predict_batch(&held_out).unwrap().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(bits(model), bits(restored.as_ref()), "{family} drifted across the round trip");
    }
}

#[test]
fn fig10_dstc_is_specific_to_the_injected_layer() {
    use edm::core::dstc::{run, DstcConfig};
    use edm::timing::path::PathGenerator;
    use edm::timing::silicon::{SiliconModel, SystematicEffect};
    use edm::timing::sta::Timer;
    // Inject on layer 2-3 instead: rules should NOT implicate via45/56.
    let silicon = SiliconModel::default()
        .with_effect(SystematicEffect::ViaResistance { lower_layer: 2, extra_ps: 8.0 });
    let mut rng = StdRng::seed_from_u64(74);
    let config = DstcConfig { n_paths: 500, ..Default::default() };
    let result =
        run(&PathGenerator::default(), &Timer::default(), &silicon, &config, &mut rng).unwrap();
    assert!(result.implicates("via23"), "should find the layer-2-3 effect, got {:?}", result.rules);
}

#[test]
fn fig11_screen_catches_planted_defect() {
    use edm::core::returns::{run, ReturnScreeningConfig};
    let config = ReturnScreeningConfig {
        lot_size: 2_000,
        n_lots: 6,
        defect_rate: 2e-3,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(75);
    let result = run(&config, &mut rng).unwrap();
    assert!(result.n_baseline_returns > 0);
    assert!(result.baseline_return_percentiles.iter().all(|&p| p > 0.9));
}

#[test]
fn fig12_escapes_scale_with_tail_rate() {
    use edm::core::testcost::{run, TestCostConfig};
    let mut rng = StdRng::seed_from_u64(76);
    let low = run(
        &TestCostConfig {
            phase1_chips: 30_000,
            phase2_chips: 30_000,
            tail_rate: 1e-4,
            ..Default::default()
        },
        &mut rng,
    );
    let high = run(
        &TestCostConfig {
            phase1_chips: 30_000,
            phase2_chips: 30_000,
            tail_rate: 2e-3,
            ..Default::default()
        },
        &mut rng,
    );
    assert!(high.escapes > low.escapes, "high {} low {}", high.escapes, low.escapes);
}

#[test]
fn learners_agree_on_an_easy_problem() {
    use edm::learn::discriminant::{Covariance, DiscriminantAnalysis};
    use edm::learn::forest::{ForestParams, RandomForestClassifier};
    use edm::learn::knn::KnnClassifier;
    use edm::learn::tree::{DecisionTreeClassifier, TreeParams};
    let mut rng = StdRng::seed_from_u64(77);
    let mut x = Vec::new();
    let mut y = Vec::new();
    for _ in 0..50 {
        x.push(vec![
            edm::linalg::sample::standard_normal(&mut rng) * 0.5,
            edm::linalg::sample::standard_normal(&mut rng) * 0.5,
        ]);
        y.push(0);
        x.push(vec![
            3.0 + edm::linalg::sample::standard_normal(&mut rng) * 0.5,
            3.0 + edm::linalg::sample::standard_normal(&mut rng) * 0.5,
        ]);
        y.push(1);
    }
    let probe_lo = [0.0, 0.0];
    let probe_hi = [3.0, 3.0];

    let knn = KnnClassifier::fit(5, &x, &y).unwrap();
    let lda = DiscriminantAnalysis::fit(&x, &y, Covariance::Pooled).unwrap();
    let tree = DecisionTreeClassifier::fit(&x, &y, TreeParams::default()).unwrap();
    let forest = RandomForestClassifier::fit(&x, &y, ForestParams::default(), &mut rng).unwrap();

    for (name, lo, hi) in [
        ("knn", knn.predict(&probe_lo), knn.predict(&probe_hi)),
        ("lda", lda.predict(&probe_lo), lda.predict(&probe_hi)),
        ("tree", tree.predict(&probe_lo), tree.predict(&probe_hi)),
        ("forest", forest.predict(&probe_lo), forest.predict(&probe_hi)),
    ] {
        assert_eq!(lo, 0, "{name} misclassified the low probe");
        assert_eq!(hi, 1, "{name} misclassified the high probe");
    }
}

#[test]
fn five_fmax_regressors_from_the_paper_all_fit() {
    // Paper ref [20] compared kNN, LSF, regularized LSF, SVR, GP for
    // Fmax prediction; verify all five train on the same data and make
    // sensible predictions.
    use edm::kernels::RbfKernel;
    use edm::learn::gp::GpRegressor;
    use edm::learn::knn::KnnRegressor;
    use edm::learn::linreg::{LeastSquares, Ridge};
    use edm::svm::{SvrParams, SvrTrainer};
    let x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 * 0.1]).collect();
    let y: Vec<f64> = x.iter().map(|v| 2.0 + 0.8 * v[0]).collect();
    let probe = [2.0];
    let want = 2.0 + 0.8 * 2.0;

    let knn = KnnRegressor::fit(3, &x, &y).unwrap();
    let lsf = LeastSquares::fit(&x, &y).unwrap();
    let ridge = Ridge::fit(&x, &y, 0.1).unwrap();
    let svr = SvrTrainer::new(SvrParams::default().with_c(100.0).with_epsilon(0.01))
        .kernel(RbfKernel::new(0.5))
        .fit(&x, &y)
        .unwrap();
    let gp = GpRegressor::fit(&x, &y, RbfKernel::new(0.5), 1e-4).unwrap();

    for (name, pred) in [
        ("knn", knn.predict(&probe)),
        ("lsf", lsf.predict(&probe)),
        ("ridge", ridge.predict(&probe)),
        ("svr", svr.predict(&probe)),
        ("gp", gp.predict(&probe)),
    ] {
        assert!((pred - want).abs() < 0.3, "{name} predicted {pred}, want ~{want}");
    }
}

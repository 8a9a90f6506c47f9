//! Contract tests for the facade surface: the [`edm::Error`] sum type
//! (one round-trip test per variant) and the object-safe
//! [`edm::Predictor`] trait every served model family implements.

use std::error::Error as StdError;

use edm::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Asserts the `From` round trip for one variant: the converted error
/// displays with its domain prefix, and `source()` leads back to the
/// exact per-crate error it was built from.
macro_rules! assert_round_trip {
    ($inner:expr, $variant:path, $prefix:literal, $ty:ty) => {{
        let inner = $inner;
        let wrapped: edm::Error = inner.clone().into();
        assert!(matches!(wrapped, $variant(_)), "wrong variant: {wrapped:?}");
        let shown = wrapped.to_string();
        assert!(
            shown.starts_with(concat!($prefix, ": ")),
            "display {shown:?} lacks the {} prefix",
            $prefix
        );
        assert!(shown.ends_with(&inner.to_string()), "display {shown:?} drops the inner message");
        let source = wrapped.source().expect("wrapped errors expose a source");
        let recovered = source.downcast_ref::<$ty>().expect("source downcasts to the inner type");
        assert_eq!(recovered, &inner, "round trip changed the error");
    }};
}

#[test]
fn svm_error_round_trips() {
    assert_round_trip!(SvmError::SingleClass, edm::Error::Svm, "svm", SvmError);
}

#[test]
fn learn_error_round_trips() {
    assert_round_trip!(
        LearnError::InvalidInput("empty".into()),
        edm::Error::Learn,
        "learn",
        LearnError
    );
}

#[test]
fn cluster_error_round_trips() {
    use edm::cluster::ClusterError;
    assert_round_trip!(
        ClusterError::InvalidInput("no points".into()),
        edm::Error::Cluster,
        "cluster",
        ClusterError
    );
}

#[test]
fn novelty_error_round_trips() {
    assert_round_trip!(
        NoveltyError::Numeric("singular covariance".into()),
        edm::Error::Novelty,
        "novelty",
        NoveltyError
    );
}

#[test]
fn transform_error_round_trips() {
    use edm::transform::TransformError;
    assert_round_trip!(
        TransformError::InvalidInput("ragged rows".into()),
        edm::Error::Transform,
        "transform",
        TransformError
    );
}

#[test]
fn linalg_error_round_trips() {
    use edm::linalg::LinalgError;
    assert_round_trip!(
        LinalgError::NotSquare { rows: 2, cols: 3 },
        edm::Error::Linalg,
        "linalg",
        LinalgError
    );
}

#[test]
fn dataset_error_round_trips() {
    use edm::data::DatasetError;
    assert_round_trip!(
        DatasetError::TargetLengthMismatch { samples: 4, target: 3 },
        edm::Error::Dataset,
        "dataset",
        DatasetError
    );
}

#[test]
fn question_mark_crosses_crate_boundaries() {
    // The whole point of the sum type: `?` on different per-crate error
    // types inside one function returning `edm::Error`.
    fn flow() -> Result<(), edm::Error> {
        let x = vec![vec![0.0, 0.0], vec![0.1, 0.2], vec![0.9, 1.0], vec![1.0, 0.8]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let _svc = SvcTrainer::new(SvcParams::default()).fit(&x, &y)?; // SvmError
        let _ridge = Ridge::fit(&x, &y, 0.5)?; // LearnError
        Ok(())
    }
    flow().expect("both trainers succeed on clean input");
}

fn two_blobs() -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for i in 0..10 {
        let t = i as f64 * 0.13;
        x.push(vec![t, t + 0.1]);
        y.push(-1.0);
        x.push(vec![t + 3.0, t + 2.9]);
        y.push(1.0);
    }
    (x, y)
}

#[test]
fn trait_object_scores_match_inherent_paths() {
    let (x, y) = two_blobs();
    let svc =
        SvcTrainer::new(SvcParams::default()).kernel(RbfKernel::new(0.7)).fit(&x, &y).unwrap();
    let ridge = Ridge::fit(&x, &y, 0.1).unwrap();

    let served: Vec<&dyn Predictor> = vec![&svc, &ridge];
    assert_eq!(served[0].name(), "svc");
    assert_eq!(served[1].name(), "ridge");
    for p in &served {
        assert_eq!(p.n_features(), 2);
    }
    assert_eq!(served[0].predict_batch(&x).unwrap(), svc.predict_batch(&x));
    assert_eq!(served[1].predict_batch(&x).unwrap(), ridge.predict_batch(&x));
}

#[test]
fn shape_mismatch_is_an_error_not_a_panic() {
    let (x, y) = two_blobs();
    let ridge = Ridge::fit(&x, &y, 0.1).unwrap();
    let served: &dyn Predictor = &ridge;
    let bad = vec![vec![0.0, 0.0], vec![1.0, 2.0, 3.0]];
    match served.predict_batch(&bad) {
        Err(edm::Error::Shape { row, expected, found }) => {
            assert_eq!((row, expected, found), (1, 2, 3));
        }
        other => panic!("expected a Shape error, got {other:?}"),
    }
}

#[test]
fn one_class_predictor_uses_sign_convention() {
    let x: Vec<Vec<f64>> =
        (0..30).map(|i| vec![(i % 6) as f64 * 0.1, (i / 6) as f64 * 0.1]).collect();
    let model = OneClassSvm::new(OneClassParams::default().with_nu(0.1))
        .kernel(RbfKernel::new(1.0))
        .fit(&x)
        .unwrap();
    let served: &dyn Predictor = &model;
    assert_eq!(served.name(), "one_class_svm");
    let probes = vec![vec![0.2, 0.2], vec![50.0, -40.0]];
    let out = served.predict_batch(&probes).unwrap();
    let novel = model.is_novel_batch(&probes);
    for (o, n) in out.iter().zip(&novel) {
        assert_eq!(*o, if *n { -1.0 } else { 1.0 });
    }
    assert_eq!(out[1], -1.0, "a far point must score as novel");
}

#[test]
fn classifier_predictors_return_integer_labels_as_f64() {
    let x = vec![vec![0.0, 0.0], vec![0.2, 0.1], vec![4.0, 4.0], vec![4.2, 4.1]];
    let labels = vec![3, 3, 9, 9];
    let knn = KnnClassifier::fit(1, &x, &labels).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let forest =
        RandomForestClassifier::fit(&x, &labels, ForestParams::default(), &mut rng).unwrap();
    for p in [&knn as &dyn Predictor, &forest] {
        let out = p.predict_batch(&x).unwrap();
        assert_eq!(out, vec![3.0, 3.0, 9.0, 9.0], "{} labels", p.name());
    }
}

#[test]
fn every_served_family_scores_through_the_trait() {
    let (x, y) = two_blobs();
    let labels: Vec<i32> = y.iter().map(|&v| v as i32).collect();
    let mut rng = StdRng::seed_from_u64(5);

    let svc = SvcTrainer::new(SvcParams::default()).fit(&x, &y).unwrap();
    let svr = SvrTrainer::new(SvrParams::default()).fit(&x, &y).unwrap();
    let one_class = OneClassSvm::new(OneClassParams::default().with_nu(0.2)).fit(&x).unwrap();
    let ols = LeastSquares::fit(&x, &y).unwrap();
    let ridge = Ridge::fit(&x, &y, 1.0).unwrap();
    let gp = GpRegressor::fit(&x, &y, RbfKernel::new(1.0), 1e-4).unwrap();
    let knn_c = KnnClassifier::fit(3, &x, &labels).unwrap();
    let knn_r = KnnRegressor::fit(3, &x, &y).unwrap();
    let forest =
        RandomForestClassifier::fit(&x, &labels, ForestParams::default(), &mut rng).unwrap();

    let served: Vec<&dyn Predictor> =
        vec![&svc, &svr, &one_class, &ols, &ridge, &gp, &knn_c, &knn_r, &forest];
    let names: Vec<&str> = served.iter().map(|p| p.name()).collect();
    assert_eq!(
        names,
        vec![
            "svc",
            "svr",
            "one_class_svm",
            "least_squares",
            "ridge",
            "gp_regressor",
            "knn_classifier",
            "knn_regressor",
            "random_forest"
        ]
    );
    for p in served {
        let out = p.predict_batch(&x).expect("clean batch scores");
        assert_eq!(out.len(), x.len(), "{}", p.name());
        assert!(out.iter().all(|v| v.is_finite()), "{}", p.name());
        assert_eq!(p.n_features(), 2, "{}", p.name());
    }
}

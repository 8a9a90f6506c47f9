//! Paper §2.4 / ref \[20\] — "Data learning techniques and methodology
//! for Fmax prediction": compare the five regression families the paper
//! names (nearest neighbor, LSF, regularized LSF, SVR, Gaussian process)
//! on the task of predicting a chip's maximum frequency from its other
//! parametric tests.
//!
//! The data comes from `edm-mfgtest`: `fmax` is one of the automotive
//! product's measurements, driven by the shared process factors that
//! also drive the other tests — so it is genuinely predictable from
//! them, with irreducible per-test noise.

use crate::Report;
use edm_data::metrics::{r2, rmse};
use edm_kernels::RbfKernel;
use edm_learn::gp::GpRegressor;
use edm_learn::knn::KnnRegressor;
use edm_learn::linreg::{LeastSquares, Ridge};
use edm_mfgtest::product::ProductModel;
use edm_svm::{SvrParams, SvrTrainer};

pub fn run(s: u64, r: &mut Report) {
    r.header("ref [20]: five regressor families on Fmax prediction");
    let product = ProductModel::automotive();
    let fmax_idx = product.test_index("fmax").expect("model has fmax");
    let mut rng = crate::rng(20, s);
    let devices = product.generate_lot(0, 1_400, &mut rng);

    // X = all tests except fmax (standardized), y = fmax.
    let raw: Vec<Vec<f64>> = devices
        .iter()
        .map(|d| {
            d.measurements
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != fmax_idx)
                .map(|(_, &v)| v)
                .collect()
        })
        .collect();
    let y_all: Vec<f64> = devices.iter().map(|d| d.measurements[fmax_idx]).collect();
    let ds = edm_data::Dataset::unlabeled(raw);
    let scaler = edm_data::StandardScaler::fit(&ds);
    let x_all: Vec<Vec<f64>> = ds.rows().iter().map(|r| scaler.transform_sample(r)).collect();

    let n_train = 1_000;
    let (x_train, x_test) = x_all.split_at(n_train);
    let (y_train, y_test) = y_all.split_at(n_train);

    // Train the five families (paper ref [20]'s lineup).
    let knn = KnnRegressor::fit(15, x_train, y_train).expect("knn");
    let lsf = LeastSquares::fit(x_train, y_train).expect("lsf");
    let ridge = Ridge::fit(x_train, y_train, 10.0).expect("ridge");
    let svr = SvrTrainer::new(SvrParams::default().with_c(10.0).with_epsilon(0.02))
        .kernel(RbfKernel::new(0.1))
        .fit(x_train, y_train)
        .expect("svr");
    let gp_train = 400; // GP is O(n³); condition on a subset
    let gp =
        GpRegressor::fit(&x_train[..gp_train], &y_train[..gp_train], RbfKernel::new(0.05), 0.1)
            .expect("gp");

    let evaluate = |name: &str, pred: Vec<f64>| -> (String, f64, f64) {
        (name.to_string(), rmse(y_test, &pred), r2(y_test, &pred))
    };
    let results = vec![
        evaluate("nearest neighbor", x_test.iter().map(|x| knn.predict(x)).collect()),
        evaluate("LSF", x_test.iter().map(|x| lsf.predict(x)).collect()),
        evaluate("regularized LSF", x_test.iter().map(|x| ridge.predict(x)).collect()),
        evaluate("SVR (RBF)", x_test.iter().map(|x| svr.predict(x)).collect()),
        evaluate("Gaussian process", x_test.iter().map(|x| gp.predict(x)).collect()),
    ];

    let y_sigma = edm_linalg::variance(y_test).sqrt();
    outln!(r, "train {} devices, test {}   (fmax sigma = {:.3})", n_train, x_test.len(), y_sigma);
    outln!(r, "{:<20} {:>10} {:>8}", "model", "RMSE", "R2");
    for (name, e, r2) in &results {
        outln!(r, "{name:<20} {e:>10.4} {r2:>8.3}");
    }
    // GP predictive uncertainty (the family's differentiator in [20]).
    let (mean, var) = gp.predict_with_variance(&x_test[0]);
    outln!(
        r,
        "\nGP predictive interval example: {:.3} ± {:.3} (truth {:.3})",
        mean,
        2.0 * var.sqrt(),
        y_test[0]
    );

    let all_beat_sigma = results.iter().all(|(_, e, _)| *e < y_sigma);
    let all_positive_r2 = results.iter().all(|(_, _, r)| *r > 0.3);
    r.claim("every family beats the trivial (mean) predictor", all_beat_sigma);
    r.claim("every family explains a meaningful share of variance (R2 > 0.3)", all_positive_r2);
    r.claim("GP predictive variance is positive and finite", var > 0.0 && var.is_finite());
}

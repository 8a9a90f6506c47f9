//! Fig. 5 — overfitting in view of model complexity: training error
//! falls monotonically as complexity grows, validation error turns back
//! up past the sweet spot.
//!
//! Two sweeps: polynomial-degree regression (complexity = degree) and
//! RBF-SVC bandwidth (complexity = Σα, the paper's measure).

use crate::Report;
use edm_data::metrics::rmse;
use edm_kernels::RbfKernel;
use edm_learn::linreg::{polynomial_features, LeastSquares};
use edm_linalg::sample::standard_normal;
use edm_svm::{SvcParams, SvcTrainer};
use rand::rngs::StdRng;
use rand::Rng;

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 5: overfitting vs model complexity");

    // --- Sweep 1: polynomial regression on noisy data ---------------
    let mut rng = crate::rng(5, s);
    let truth = |x: f64| (1.8 * x).sin() + 0.3 * x;
    let noisy =
        |x: f64, rng: &mut StdRng| truth(x) + 0.25 * standard_normal(rng);
    let train_x: Vec<Vec<f64>> = (0..24).map(|i| vec![i as f64 * 0.25 - 3.0]).collect();
    let train_y: Vec<f64> = train_x.iter().map(|v| noisy(v[0], &mut rng)).collect();
    let val_x: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 * 0.06 - 3.0]).collect();
    let val_y: Vec<f64> = val_x.iter().map(|v| noisy(v[0], &mut rng)).collect();

    outln!(r, "\npolynomial regression (n_train = {}):", train_x.len());
    outln!(r, "{:>7} {:>12} {:>12}", "degree", "train RMSE", "val RMSE");
    let degrees: Vec<u32> = (1..=15).collect();
    let mut train_errs = Vec::new();
    let mut val_errs = Vec::new();
    for &d in &degrees {
        let xt = polynomial_features(&train_x, d);
        let model = LeastSquares::fit(&xt, &train_y).expect("fit");
        let tr = rmse(&train_y, &model.predict_batch(&xt));
        let xv = polynomial_features(&val_x, d);
        let vr = rmse(&val_y, &model.predict_batch(&xv));
        outln!(r, "{d:>7} {tr:>12.4} {vr:>12.4}");
        train_errs.push(tr);
        val_errs.push(vr);
    }
    let train_decreases = train_errs[0] > train_errs[train_errs.len() - 1];
    let best = argmin(&val_errs);
    let val_u_shape = best > 0
        && best < val_errs.len() - 1
        && val_errs[val_errs.len() - 1] > 1.5 * val_errs[best];

    // --- Sweep 2: RBF-SVC bandwidth, complexity = sum of alphas -----
    let mut rng = crate::rng(55, s);
    // Overlapping blobs.
    let mut blobs = |n: usize| -> (Vec<Vec<f64>>, Vec<f64>) {
        (0..n)
            .map(|_| {
                let c = if rng.gen::<bool>() { 1.0 } else { -1.0 };
                (vec![c * 0.7 + standard_normal(&mut rng), standard_normal(&mut rng)], c)
            })
            .unzip()
    };
    let (cx, cy) = blobs(80);
    let (vx, vy) = blobs(400);
    outln!(r, "\nRBF-SVC bandwidth sweep (C = 50):");
    outln!(r, "{:>8} {:>14} {:>12} {:>12}", "gamma", "complexity Σα", "train err", "val err");
    let gammas = [0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0];
    let mut svc_train = Vec::new();
    let mut svc_val = Vec::new();
    for &g in &gammas {
        let model = SvcTrainer::new(SvcParams::default().with_c(50.0))
            .kernel(RbfKernel::new(g))
            .fit(&cx, &cy)
            .expect("fit");
        let err = |xs: &[Vec<f64>], ys: &[f64]| {
            xs.iter().zip(ys).filter(|(x, &y)| model.predict(x) != y).count() as f64
                / xs.len() as f64
        };
        let (te, ve) = (err(&cx, &cy), err(&vx, &vy));
        outln!(r, "{g:>8} {:>14.1} {te:>12.3} {ve:>12.3}", model.complexity());
        svc_train.push(te);
        svc_val.push(ve);
    }
    let svc_train_drops = svc_train[svc_train.len() - 1] < svc_train[0];
    let svc_overfits = svc_val[svc_val.len() - 1] > svc_val[argmin(&svc_val)] + 0.05;

    r.claim("poly: training error decreases with degree", train_decreases);
    r.claim("poly: validation error is U-shaped (interior minimum)", val_u_shape);
    r.claim("svc: training error decreases with gamma", svc_train_drops);
    r.claim("svc: validation error rises past the optimum", svc_overfits);
}

/// Index of the first minimum of a non-empty sweep.
fn argmin(v: &[f64]) -> usize {
    (0..v.len()).min_by(|&a, &b| v[a].partial_cmp(&v[b]).expect("finite")).expect("sweep ran")
}

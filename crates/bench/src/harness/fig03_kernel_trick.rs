//! Fig. 3 — the kernel trick: ring-vs-disc data is not linearly
//! separable in the input space but is under k(x,x') = ⟨x,x'⟩².
//!
//! Prints training error of a linear SVM in the input space, the same
//! linear algorithm in the explicit feature space Φ(x) = (x₁², x₂²,
//! √2·x₁x₂), and the implicit kernel path — demonstrating both halves of
//! the paper's Fig. 3.

use crate::{pct, Report};
use edm_kernels::{LinearKernel, PolyKernel};
use edm_svm::{SvcParams, SvcTrainer};
use rand::rngs::StdRng;
use rand::Rng;

fn ring_disc(n: usize, rng: &mut StdRng) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut x = Vec::new();
    let mut y = Vec::new();
    for _ in 0..n {
        // inner disc, class -1
        let r = 0.8 * rng.gen::<f64>();
        let a = rng.gen::<f64>() * std::f64::consts::TAU;
        x.push(vec![r * a.cos(), r * a.sin()]);
        y.push(-1.0);
        // outer ring, class +1
        let r = 1.6 + 0.6 * rng.gen::<f64>();
        let a = rng.gen::<f64>() * std::f64::consts::TAU;
        x.push(vec![r * a.cos(), r * a.sin()]);
        y.push(1.0);
    }
    (x, y)
}

fn phi(v: &[f64]) -> Vec<f64> {
    vec![v[0] * v[0], v[1] * v[1], std::f64::consts::SQRT_2 * v[0] * v[1]]
}

fn training_error<K: edm_kernels::Kernel<[f64]> + Clone>(
    kernel: K,
    x: &[Vec<f64>],
    y: &[f64],
) -> f64 {
    let model = SvcTrainer::new(SvcParams::default().with_c(10.0))
        .kernel(kernel)
        .fit(x, y)
        .expect("training succeeds");
    let wrong = x.iter().zip(y).filter(|(xi, &yi)| model.predict(xi) != yi).count();
    wrong as f64 / x.len() as f64
}

pub fn run(s: u64, r: &mut Report) {
    r.header("Figure 3: kernel trick on ring-vs-disc data");
    let mut rng = crate::rng(3, s);
    let (x, y) = ring_disc(100, &mut rng);

    let linear_err = training_error(LinearKernel::new(), &x, &y);
    let explicit: Vec<Vec<f64>> = x.iter().map(|v| phi(v)).collect();
    let explicit_err = training_error(LinearKernel::new(), &explicit, &y);
    let kernel_err = training_error(PolyKernel::homogeneous(2), &x, &y);

    outln!(r, "samples: {} per class {}", x.len(), x.len() / 2);
    outln!(r, "{:<44} {:>10}", "model", "train err");
    outln!(r, "{:<44} {:>10}", "linear SVM, input space", pct(linear_err));
    outln!(r, "{:<44} {:>10}", "linear SVM, explicit feature space Phi", pct(explicit_err));
    outln!(r, "{:<44} {:>10}", "SVM with kernel <x,x'>^2 (implicit Phi)", pct(kernel_err));

    r.claim("input space is NOT linearly separable (error > 10%)", linear_err > 0.10);
    r.claim("explicit feature space IS separable (error = 0)", explicit_err == 0.0);
    r.claim("kernel path matches the explicit map (error = 0)", kernel_err == 0.0);
}

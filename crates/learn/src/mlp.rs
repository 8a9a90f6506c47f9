//! A small multi-layer perceptron — the paper's canonical example of a
//! *predefined, complexity-limited* model structure (§2.3's first
//! overfitting-avoidance idea): fix the architecture, then minimize
//! training error.
//!
//! One or more tanh hidden layers, linear output, trained by
//! full-batch gradient descent with momentum. Sized for the workloads in
//! this workspace (hundreds to thousands of samples, tens of features) —
//! not a deep-learning framework.

use rand::Rng;
use serde::Serialize;

use crate::{error::check_xy, LearnError};

/// Hyperparameters for MLP training.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MlpParams {
    /// Hidden-layer widths, e.g. `vec![16, 8]`.
    pub hidden: Vec<usize>,
    /// Learning rate.
    pub learning_rate: f64,
    /// Momentum coefficient in `[0, 1)`.
    pub momentum: f64,
    /// Full-batch epochs.
    pub epochs: usize,
    /// L2 weight decay.
    pub weight_decay: f64,
}

impl Default for MlpParams {
    fn default() -> Self {
        MlpParams {
            hidden: vec![16],
            learning_rate: 0.05,
            momentum: 0.9,
            epochs: 500,
            weight_decay: 1e-4,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize)]
struct Layer {
    /// `out x in` weight matrix, row-major.
    w: Vec<f64>,
    b: Vec<f64>,
    n_in: usize,
    n_out: usize,
}

impl Layer {
    fn forward(&self, x: &[f64], out: &mut Vec<f64>) {
        out.clear();
        for o in 0..self.n_out {
            let row = &self.w[o * self.n_in..(o + 1) * self.n_in];
            out.push(edm_linalg::dot(row, x) + self.b[o]);
        }
    }
}

/// A trained MLP regressor (single output, tanh hidden units).
///
/// For binary classification, train on targets `±1` and threshold the
/// output at zero.
///
/// # Example
///
/// ```
/// use edm_learn::mlp::{MlpParams, MlpRegressor};
/// use rand::SeedableRng;
///
/// // XOR — impossible for a linear model, easy for one hidden layer.
/// let x = vec![vec![0.,0.], vec![1.,1.], vec![0.,1.], vec![1.,0.]];
/// let y = vec![-1.0, -1.0, 1.0, 1.0];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(42);
/// let params = MlpParams { hidden: vec![8], epochs: 2000, ..Default::default() };
/// let m = MlpRegressor::fit(&x, &y, params, &mut rng)?;
/// assert!(m.predict(&[0.0, 1.0]) > 0.0);
/// assert!(m.predict(&[1.0, 1.0]) < 0.0);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MlpRegressor {
    layers: Vec<Layer>,
    final_loss: f64,
}

impl MlpRegressor {
    /// Trains with full-batch gradient descent.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] on inconsistent input;
    /// [`LearnError::InvalidParameter`] on an empty hidden spec, zero
    /// width, or out-of-range momentum.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[f64],
        params: MlpParams,
        rng: &mut R,
    ) -> Result<Self, LearnError> {
        let d = check_xy(x, y.len())?;
        if params.hidden.is_empty() || params.hidden.contains(&0) {
            return Err(LearnError::InvalidParameter {
                name: "hidden",
                value: 0.0,
                constraint: "must list at least one non-empty layer",
            });
        }
        if !(0.0..1.0).contains(&params.momentum) {
            return Err(LearnError::InvalidParameter {
                name: "momentum",
                value: params.momentum,
                constraint: "must be in [0, 1)",
            });
        }
        // Build layers: d -> hidden... -> 1, Xavier-ish init.
        let mut sizes = vec![d];
        sizes.extend_from_slice(&params.hidden);
        sizes.push(1);
        let mut layers = Vec::new();
        for win in sizes.windows(2) {
            let (n_in, n_out) = (win[0], win[1]);
            let scale = (2.0 / (n_in + n_out) as f64).sqrt();
            let w: Vec<f64> =
                (0..n_in * n_out).map(|_| (rng.gen::<f64>() * 2.0 - 1.0) * scale).collect();
            layers.push(Layer { w, b: vec![0.0; n_out], n_in, n_out });
        }
        let n_layers = layers.len();
        let mut vel_w: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
        let mut vel_b: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();

        let n = x.len() as f64;
        let mut final_loss = f64::INFINITY;
        for _ in 0..params.epochs {
            // Accumulate full-batch gradients.
            let mut grad_w: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.w.len()]).collect();
            let mut grad_b: Vec<Vec<f64>> = layers.iter().map(|l| vec![0.0; l.b.len()]).collect();
            let mut loss = 0.0;
            for (xi, &yi) in x.iter().zip(y) {
                // Forward, caching activations (post-nonlinearity).
                let mut acts: Vec<Vec<f64>> = vec![xi.clone()];
                let mut pre = Vec::new();
                for (li, layer) in layers.iter().enumerate() {
                    layer.forward(acts.last().expect("non-empty"), &mut pre);
                    let act = if li + 1 < n_layers {
                        pre.iter().map(|&v| v.tanh()).collect()
                    } else {
                        pre.clone()
                    };
                    acts.push(act);
                }
                let out = acts.last().expect("output layer")[0];
                let err = out - yi;
                loss += 0.5 * err * err;
                // Backward.
                let mut delta = vec![err]; // linear output layer
                for li in (0..n_layers).rev() {
                    let input = &acts[li];
                    let layer = &layers[li];
                    for o in 0..layer.n_out {
                        grad_b[li][o] += delta[o];
                        let grow = &mut grad_w[li][o * layer.n_in..(o + 1) * layer.n_in];
                        for (g, &inp) in grow.iter_mut().zip(input) {
                            *g += delta[o] * inp;
                        }
                    }
                    if li > 0 {
                        // delta for previous layer, through tanh'.
                        let mut prev = vec![0.0; layer.n_in];
                        for o in 0..layer.n_out {
                            let row = &layer.w[o * layer.n_in..(o + 1) * layer.n_in];
                            for (p, &wv) in prev.iter_mut().zip(row) {
                                *p += delta[o] * wv;
                            }
                        }
                        for (p, &a) in prev.iter_mut().zip(&acts[li]) {
                            *p *= 1.0 - a * a;
                        }
                        delta = prev;
                    }
                }
            }
            final_loss = loss / n;
            // Parameter update with momentum and weight decay.
            for li in 0..n_layers {
                for (idx, g) in grad_w[li].iter().enumerate() {
                    let decayed = g / n + params.weight_decay * layers[li].w[idx];
                    vel_w[li][idx] =
                        params.momentum * vel_w[li][idx] - params.learning_rate * decayed;
                    layers[li].w[idx] += vel_w[li][idx];
                }
                for (idx, g) in grad_b[li].iter().enumerate() {
                    vel_b[li][idx] =
                        params.momentum * vel_b[li][idx] - params.learning_rate * (g / n);
                    layers[li].b[idx] += vel_b[li][idx];
                }
            }
        }
        Ok(MlpRegressor { layers, final_loss })
    }

    /// Forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the fitted feature count.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let n_layers = self.layers.len();
        let mut cur = x.to_vec();
        let mut next = Vec::new();
        for (li, layer) in self.layers.iter().enumerate() {
            layer.forward(&cur, &mut next);
            if li + 1 < n_layers {
                for v in &mut next {
                    *v = v.tanh();
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        cur[0]
    }

    /// Final mean training loss (½ MSE) after the last epoch.
    pub fn final_loss(&self) -> f64 {
        self.final_loss
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fits_linear_function() {
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.1 - 1.0]).collect();
        let y: Vec<f64> = x.iter().map(|v| 0.8 * v[0] + 0.1).collect();
        let mut rng = StdRng::seed_from_u64(1);
        let m =
            MlpRegressor::fit(&x, &y, MlpParams { epochs: 1000, ..Default::default() }, &mut rng)
                .unwrap();
        for probe in [-0.8, 0.0, 0.7] {
            assert!((m.predict(&[probe]) - (0.8 * probe + 0.1)).abs() < 0.1);
        }
    }

    #[test]
    fn solves_xor() {
        let x = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        let y = vec![-1.0, -1.0, 1.0, 1.0];
        let mut rng = StdRng::seed_from_u64(42);
        let m = MlpRegressor::fit(
            &x,
            &y,
            MlpParams { hidden: vec![8], epochs: 3000, ..Default::default() },
            &mut rng,
        )
        .unwrap();
        for (xi, &yi) in x.iter().zip(&y) {
            assert_eq!(m.predict(xi).signum(), yi.signum(), "failed at {xi:?}");
        }
    }

    #[test]
    fn training_reduces_loss() {
        let x: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64 * 0.1]).collect();
        let y: Vec<f64> = x.iter().map(|v| (2.0 * v[0]).sin()).collect();
        let mut rng1 = StdRng::seed_from_u64(9);
        let short =
            MlpRegressor::fit(&x, &y, MlpParams { epochs: 10, ..Default::default() }, &mut rng1)
                .unwrap();
        let mut rng2 = StdRng::seed_from_u64(9);
        let long =
            MlpRegressor::fit(&x, &y, MlpParams { epochs: 2000, ..Default::default() }, &mut rng2)
                .unwrap();
        assert!(long.final_loss() < short.final_loss());
    }

    #[test]
    fn invalid_params_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            MlpRegressor::fit(
                &[vec![0.0]],
                &[0.0],
                MlpParams { hidden: vec![], ..Default::default() },
                &mut rng
            ),
            Err(LearnError::InvalidParameter { name: "hidden", .. })
        ));
        assert!(matches!(
            MlpRegressor::fit(
                &[vec![0.0]],
                &[0.0],
                MlpParams { momentum: 1.5, ..Default::default() },
                &mut rng
            ),
            Err(LearnError::InvalidParameter { name: "momentum", .. })
        ));
    }
}

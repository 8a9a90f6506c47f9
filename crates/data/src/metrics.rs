//! Evaluation metrics: classification accuracy and regression error.
//!
//! The paper's application results are reported as coverage counts,
//! accuracy against a golden simulator (Fig. 9), and escape counts
//! (Fig. 12); the harnesses print these metrics beside them.

/// Fraction of positions where the labels agree.
///
/// # Panics
///
/// Panics if the vectors have different lengths.
pub fn accuracy(truth: &[i32], predicted: &[i32]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "paired labels must have equal length");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth.iter().zip(predicted).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

/// Mean squared error, behind [`rmse`].
fn mse(truth: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "paired values must have equal length");
    assert!(!truth.is_empty(), "mse of empty vectors is undefined");
    truth.iter().zip(predicted).map(|(t, p)| (t - p) * (t - p)).sum::<f64>() / truth.len() as f64
}

/// Root mean squared error.
///
/// # Panics
///
/// Panics if the vectors have different lengths or are empty.
pub fn rmse(truth: &[f64], predicted: &[f64]) -> f64 {
    mse(truth, predicted).sqrt()
}

/// Coefficient of determination R².
///
/// Returns `0.0` when the truth is constant (so a constant predictor
/// scores 0, not NaN).
///
/// # Panics
///
/// Panics if the vectors have different lengths or are empty.
pub fn r2(truth: &[f64], predicted: &[f64]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "paired values must have equal length");
    assert!(!truth.is_empty(), "r2 of empty vectors is undefined");
    let mean = edm_linalg::mean(truth);
    let ss_tot: f64 = truth.iter().map(|t| (t - mean) * (t - mean)).sum();
    if ss_tot < 1e-300 {
        return 0.0;
    }
    let ss_res: f64 = truth.iter().zip(predicted).map(|(t, p)| (t - p) * (t - p)).sum();
    1.0 - ss_res / ss_tot
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_agreeing_positions() {
        let truth = [0, 0, 1, 1, 2];
        let pred = [0, 1, 1, 1, 0];
        assert!((accuracy(&truth, &pred) - 3.0 / 5.0).abs() < 1e-12);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn regression_metrics() {
        let t = [1.0, 2.0, 3.0];
        let p = [1.0, 2.0, 5.0];
        assert!((mse(&t, &p) - 4.0 / 3.0).abs() < 1e-12);
        assert!((rmse(&t, &p) - (4.0_f64 / 3.0).sqrt()).abs() < 1e-12);
        assert!((r2(&t, &t) - 1.0).abs() < 1e-12);
        assert!(r2(&t, &p) < 1.0);
        // constant truth -> 0
        assert_eq!(r2(&[2.0, 2.0], &[1.0, 3.0]), 0.0);
    }
}

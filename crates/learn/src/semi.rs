//! Semi-supervised learning by self-training.
//!
//! The paper's Fig. 1 taxonomy includes the semi-supervised case: "some
//! (usually much fewer) samples are with labels and others have no
//! label" — the everyday situation in EDA, where labels cost simulation
//! or silicon time. Self-training wraps any probabilistic classifier:
//! fit on the labeled seed, label the unlabeled samples the model is
//! most confident about, refit, repeat.

use serde::Serialize;

use crate::nbayes::GaussianNb;
use crate::LearnError;

/// Parameters for self-training.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SelfTrainParams {
    /// Posterior confidence required to adopt a pseudo-label.
    pub confidence: f64,
    /// Maximum fit/label rounds.
    pub max_rounds: usize,
}

impl Default for SelfTrainParams {
    fn default() -> Self {
        SelfTrainParams { confidence: 0.95, max_rounds: 10 }
    }
}

/// A self-trained Gaussian-naive-Bayes classifier.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SelfTrainedNb {
    model: GaussianNb,
    /// Pseudo-labels adopted per unlabeled sample (`None` = never
    /// confident enough).
    pseudo_labels: Vec<Option<i32>>,
    rounds: usize,
}

impl SelfTrainedNb {
    /// Fits on labels of `Option<i32>` — `Some` for the seed, `None` for
    /// unlabeled samples (the paper's `Target::Partial` shape).
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidInput`] if no labeled seed exists or shapes
    /// disagree.
    pub fn fit(
        x: &[Vec<f64>],
        y: &[Option<i32>],
        params: SelfTrainParams,
    ) -> Result<Self, LearnError> {
        if x.len() != y.len() {
            return Err(LearnError::InvalidInput(format!(
                "{} samples but {} labels",
                x.len(),
                y.len()
            )));
        }
        if !y.iter().any(Option::is_some) {
            return Err(LearnError::InvalidInput(
                "self-training needs at least one labeled sample".into(),
            ));
        }
        let mut working: Vec<Option<i32>> = y.to_vec();
        let mut model = Self::fit_on(x, &working)?;
        let mut rounds = 0;
        for _ in 0..params.max_rounds {
            rounds += 1;
            let mut adopted = 0;
            for (i, label) in working.iter_mut().enumerate() {
                if label.is_some() {
                    continue;
                }
                let posterior = model.predict_proba(&x[i]);
                if let Some(&(l, p)) =
                    posterior.iter().max_by(|a, b| a.1.partial_cmp(&b.1).expect("finite posterior"))
                {
                    if p >= params.confidence {
                        *label = Some(l);
                        adopted += 1;
                    }
                }
            }
            if adopted == 0 {
                break;
            }
            model = Self::fit_on(x, &working)?;
        }
        let pseudo_labels = working
            .iter()
            .zip(y)
            .map(|(&w, &orig)| if orig.is_some() { None } else { w })
            .collect();
        Ok(SelfTrainedNb { model, pseudo_labels, rounds })
    }

    fn fit_on(x: &[Vec<f64>], y: &[Option<i32>]) -> Result<GaussianNb, LearnError> {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (xi, &yi) in x.iter().zip(y) {
            if let Some(l) = yi {
                xs.push(xi.clone());
                ys.push(l);
            }
        }
        GaussianNb::fit(&xs, &ys)
    }

    /// Predicts a label.
    pub fn predict(&self, x: &[f64]) -> i32 {
        self.model.predict(x)
    }

    /// The pseudo-labels adopted for originally-unlabeled samples
    /// (aligned with the training input; `None` where never confident).
    pub fn pseudo_labels(&self) -> &[Option<i32>] {
        &self.pseudo_labels
    }

    /// Self-training rounds performed.
    pub fn rounds(&self) -> usize {
        self.rounds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Two blobs; only 2 labeled samples per blob, 50 unlabeled.
    fn blob_data(seed: u64) -> (Vec<Vec<f64>>, Vec<Option<i32>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..52 {
            let n0 = edm_linalg::sample::standard_normal(&mut rng) * 0.4;
            let n1 = edm_linalg::sample::standard_normal(&mut rng) * 0.4;
            x.push(vec![n0, n1]);
            y.push(if i < 2 { Some(0) } else { None });
            let n0 = edm_linalg::sample::standard_normal(&mut rng) * 0.4;
            let n1 = edm_linalg::sample::standard_normal(&mut rng) * 0.4;
            x.push(vec![4.0 + n0, 4.0 + n1]);
            y.push(if i < 2 { Some(1) } else { None });
        }
        (x, y)
    }

    #[test]
    fn learns_from_tiny_seed_plus_unlabeled() {
        let (x, y) = blob_data(1);
        let model = SelfTrainedNb::fit(&x, &y, SelfTrainParams::default()).unwrap();
        assert_eq!(model.predict(&[0.1, -0.2]), 0);
        assert_eq!(model.predict(&[4.1, 3.9]), 1);
        // most unlabeled samples received pseudo-labels
        let adopted = model.pseudo_labels().iter().filter(|l| l.is_some()).count();
        assert!(adopted > 80, "adopted only {adopted}");
    }

    #[test]
    fn pseudo_labels_agree_with_blob_membership() {
        let (x, y) = blob_data(2);
        let model = SelfTrainedNb::fit(&x, &y, SelfTrainParams::default()).unwrap();
        let mut wrong = 0;
        for (xi, pl) in x.iter().zip(model.pseudo_labels()) {
            if let Some(l) = pl {
                let truth = i32::from(xi[0] > 2.0);
                if *l != truth {
                    wrong += 1;
                }
            }
        }
        assert!(wrong <= 2, "{wrong} wrong pseudo-labels");
    }

    #[test]
    fn strict_confidence_adopts_nothing_near_the_boundary() {
        // One unlabeled point exactly symmetric between the classes, so
        // the posterior is 0.5 regardless of variance.
        let x =
            vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![3.0, 3.0], vec![4.0, 4.0], vec![2.0, 2.0]];
        let y = vec![Some(0), Some(0), Some(1), Some(1), None];
        let model =
            SelfTrainedNb::fit(&x, &y, SelfTrainParams { confidence: 0.999999, max_rounds: 5 })
                .unwrap();
        assert_eq!(model.pseudo_labels()[4], None);
    }

    #[test]
    fn requires_a_seed() {
        let x = vec![vec![0.0], vec![1.0]];
        let y = vec![None, None];
        assert!(SelfTrainedNb::fit(&x, &y, SelfTrainParams::default()).is_err());
    }
}

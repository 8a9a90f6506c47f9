//! Random forests (paper ref \[8\], Breiman 2001): bagged CART trees
//! with per-tree feature subsampling, majority-vote prediction.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::Serialize;

use crate::tree::{DecisionTreeClassifier, TreeParams};
use crate::{error::check_xy, LearnError};

/// Hyperparameters for random-forest training.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-tree growth limits.
    pub tree: TreeParams,
    /// Features sampled per tree; `None` = ⌈√d⌉ (Breiman's default).
    pub max_features: Option<usize>,
}

impl Default for ForestParams {
    fn default() -> Self {
        ForestParams { n_trees: 50, tree: TreeParams::default(), max_features: None }
    }
}

/// A trained random-forest classifier.
///
/// # Example
///
/// ```
/// use edm_learn::forest::{ForestParams, RandomForestClassifier};
/// use rand::SeedableRng;
///
/// let x = vec![vec![0.0, 1.0], vec![0.2, 0.9], vec![5.0, 4.0], vec![5.2, 4.2]];
/// let y = vec![0, 0, 1, 1];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let m = RandomForestClassifier::fit(&x, &y, ForestParams::default(), &mut rng)?;
/// assert_eq!(m.predict(&[0.1, 1.0]), 0);
/// assert_eq!(m.predict(&[5.1, 4.1]), 1);
/// # Ok::<(), edm_learn::LearnError>(())
/// ```
#[derive(Debug, Clone, Serialize)]
pub struct RandomForestClassifier {
    trees: Vec<DecisionTreeClassifier>,
    n_features: usize,
}

impl RandomForestClassifier {
    /// Trains `n_trees` trees, each on a bootstrap resample and a random
    /// feature subset.
    ///
    /// # Errors
    ///
    /// [`LearnError::InvalidParameter`] if `n_trees == 0`;
    /// [`LearnError::InvalidInput`] on inconsistent input.
    pub fn fit<R: Rng + ?Sized>(
        x: &[Vec<f64>],
        y: &[i32],
        params: ForestParams,
        rng: &mut R,
    ) -> Result<Self, LearnError> {
        let _span = edm_trace::span("learn.forest.fit");
        if params.n_trees == 0 {
            return Err(LearnError::InvalidParameter {
                name: "n_trees",
                value: 0.0,
                constraint: "must be at least 1",
            });
        }
        let d = check_xy(x, y.len())?;
        let n = x.len();
        let m_features =
            params.max_features.unwrap_or_else(|| (d as f64).sqrt().ceil() as usize).clamp(1, d);
        // Draw every tree's randomness up front, in tree order, so the
        // forest is a pure function of the caller's RNG stream no matter
        // how many worker threads train the (deterministic) trees below.
        let mut all_features: Vec<usize> = (0..d).collect();
        let draws: Vec<(Vec<usize>, Vec<usize>)> = (0..params.n_trees)
            .map(|_| {
                let indices: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n)).collect();
                all_features.shuffle(rng);
                (indices, all_features[..m_features].to_vec())
            })
            .collect();
        let trees = edm_par::map_indexed(draws.len(), |t| {
            // One span per tree: the `learn.forest.tree` aggregate's
            // count/min/max show per-tree training time spread.
            let _tree_span = edm_trace::span("learn.forest.tree");
            let (indices, feats) = &draws[t];
            let bx: Vec<Vec<f64>> = indices.iter().map(|&i| x[i].clone()).collect();
            let by: Vec<i32> = indices.iter().map(|&i| y[i]).collect();
            DecisionTreeClassifier::fit_on_features(&bx, &by, params.tree, Some(feats))
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        Ok(RandomForestClassifier { trees, n_features: d })
    }

    /// Reassembles a forest from persisted trees — the inverse of
    /// [`RandomForestClassifier::trees`], used by `edm::persist`.
    pub fn from_parts(trees: Vec<DecisionTreeClassifier>, n_features: usize) -> Self {
        assert!(!trees.is_empty(), "a forest needs at least one tree");
        RandomForestClassifier { trees, n_features }
    }

    /// The fitted trees, in training order.
    pub fn trees(&self) -> &[DecisionTreeClassifier] {
        &self.trees
    }

    /// Number of trees in the ensemble.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Dimensionality of the training samples.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Majority votes for a batch of samples (parallel; bitwise
    /// identical to mapping [`RandomForestClassifier::predict`]).
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<i32> {
        edm_par::map_indexed(xs.len(), |i| self.predict(&xs[i]))
    }

    /// Majority vote over the trees (ties break toward smaller labels).
    pub fn predict(&self, x: &[f64]) -> i32 {
        let mut votes: Vec<(i32, usize)> = Vec::new();
        for t in &self.trees {
            let l = t.predict(x);
            match votes.iter_mut().find(|(vl, _)| *vl == l) {
                Some((_, c)) => *c += 1,
                None => votes.push((l, 1)),
            }
        }
        votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        votes[0].0
    }

    /// Fraction of trees voting for each label.
    pub fn predict_proba(&self, x: &[f64]) -> Vec<(i32, f64)> {
        let mut votes: Vec<(i32, usize)> = Vec::new();
        for t in &self.trees {
            let l = t.predict(x);
            match votes.iter_mut().find(|(vl, _)| *vl == l) {
                Some((_, c)) => *c += 1,
                None => votes.push((l, 1)),
            }
        }
        votes.sort_by_key(|&(l, _)| l);
        votes.into_iter().map(|(l, c)| (l, c as f64 / self.trees.len() as f64)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn noisy_blobs(seed: u64) -> (Vec<Vec<f64>>, Vec<i32>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..40 {
            x.push(vec![rng.gen::<f64>(), rng.gen::<f64>()]);
            y.push(0);
            x.push(vec![rng.gen::<f64>() + 2.0, rng.gen::<f64>() + 2.0]);
            y.push(1);
        }
        (x, y)
    }

    #[test]
    fn forest_classifies_blobs() {
        let (x, y) = noisy_blobs(1);
        let mut rng = StdRng::seed_from_u64(2);
        let m = RandomForestClassifier::fit(&x, &y, ForestParams::default(), &mut rng).unwrap();
        let correct = x.iter().zip(&y).filter(|(xi, &yi)| m.predict(xi) == yi).count();
        assert!(correct as f64 / x.len() as f64 > 0.95);
    }

    #[test]
    fn forest_beats_stump_on_xor() {
        let x = vec![vec![0.0, 0.0], vec![1.0, 1.0], vec![0.0, 1.0], vec![1.0, 0.0]];
        let y = vec![0, 0, 1, 1];
        let mut rng = StdRng::seed_from_u64(3);
        let m = RandomForestClassifier::fit(
            &x,
            &y,
            ForestParams { n_trees: 100, max_features: Some(2), ..Default::default() },
            &mut rng,
        )
        .unwrap();
        let correct = x.iter().zip(&y).filter(|(xi, &yi)| m.predict(xi) == yi).count();
        assert!(correct >= 3, "forest got only {correct}/4 on xor");
    }

    #[test]
    fn proba_sums_to_one() {
        let (x, y) = noisy_blobs(4);
        let mut rng = StdRng::seed_from_u64(5);
        let m = RandomForestClassifier::fit(&x, &y, ForestParams::default(), &mut rng).unwrap();
        let p = m.predict_proba(&[1.0, 1.0]);
        let total: f64 = p.iter().map(|&(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, y) = noisy_blobs(6);
        let m1 = RandomForestClassifier::fit(
            &x,
            &y,
            ForestParams::default(),
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        let m2 = RandomForestClassifier::fit(
            &x,
            &y,
            ForestParams::default(),
            &mut StdRng::seed_from_u64(7),
        )
        .unwrap();
        for probe in [[0.5, 0.5], [2.5, 2.5], [1.5, 1.5]] {
            assert_eq!(m1.predict(&probe), m2.predict(&probe));
        }
    }

    #[test]
    fn zero_trees_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            RandomForestClassifier::fit(
                &[vec![0.0]],
                &[0],
                ForestParams { n_trees: 0, ..Default::default() },
                &mut rng
            ),
            Err(LearnError::InvalidParameter { name: "n_trees", .. })
        ));
    }
}

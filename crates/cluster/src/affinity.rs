//! Affinity propagation (Frey & Dueck): clusters by passing
//! responsibility/availability messages on a similarity matrix until a
//! set of exemplars emerges. Like mean-shift, the number of clusters is
//! discovered; the `preference` (self-similarity) controls how many.

use serde::Serialize;

use crate::{check_points, ClusterError};

/// Result of affinity propagation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AffinityResult {
    /// Cluster index per input point.
    pub labels: Vec<usize>,
    /// Point indices chosen as exemplars, one per cluster.
    pub exemplars: Vec<usize>,
    /// Message-passing iterations performed.
    pub iterations: usize,
}

/// Parameters for affinity propagation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct AffinityParams {
    /// Self-similarity; `None` = median of pairwise similarities
    /// (moderate cluster count). More negative → fewer clusters.
    pub preference: Option<f64>,
    /// Message damping in `[0.5, 1)`.
    pub damping: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Stop after this many iterations without exemplar changes.
    pub convergence_iter: usize,
}

impl Default for AffinityParams {
    fn default() -> Self {
        AffinityParams { preference: None, damping: 0.7, max_iter: 400, convergence_iter: 30 }
    }
}

/// Runs affinity propagation on negative-squared-distance similarities.
///
/// # Errors
///
/// [`ClusterError::InvalidParameter`] if `damping` is outside
/// `[0.5, 1)`; [`ClusterError::InvalidInput`] on empty/ragged input.
///
/// # Example
///
/// ```
/// use edm_cluster::affinity::{affinity_propagation, AffinityParams};
///
/// let pts = vec![vec![0.0], vec![0.3], vec![12.0], vec![12.3]];
/// let r = affinity_propagation(&pts, AffinityParams::default())?;
/// assert_eq!(r.exemplars.len(), 2);
/// assert_eq!(r.labels[0], r.labels[1]);
/// # Ok::<(), edm_cluster::ClusterError>(())
/// ```
pub fn affinity_propagation(
    x: &[Vec<f64>],
    params: AffinityParams,
) -> Result<AffinityResult, ClusterError> {
    if !(0.5..1.0).contains(&params.damping) {
        return Err(ClusterError::InvalidParameter {
            name: "damping",
            value: params.damping,
            constraint: "must be in [0.5, 1)",
        });
    }
    check_points(x)?;
    let n = x.len();
    if n == 1 {
        return Ok(AffinityResult { labels: vec![0], exemplars: vec![0], iterations: 0 });
    }

    // Similarities: s(i,k) = -‖xᵢ − x_k‖².
    let mut s = vec![vec![0.0; n]; n];
    let mut off_diag = Vec::with_capacity(n * (n - 1));
    for i in 0..n {
        for k in 0..n {
            if i != k {
                let v = -edm_linalg::sq_dist(&x[i], &x[k]);
                s[i][k] = v;
                off_diag.push(v);
            }
        }
    }
    let pref =
        params.preference.unwrap_or_else(|| edm_linalg::stats::median(&off_diag).unwrap_or(-1.0));
    for (i, row) in s.iter_mut().enumerate() {
        row[i] = pref;
    }

    let mut r = vec![vec![0.0; n]; n];
    let mut a = vec![vec![0.0; n]; n];
    let damp = params.damping;
    let mut last_exemplars: Vec<usize> = Vec::new();
    let mut stable = 0usize;
    let mut iterations = 0usize;
    for _ in 0..params.max_iter {
        iterations += 1;
        // Responsibilities: r(i,k) = s(i,k) − max_{k'≠k} (a(i,k') + s(i,k')).
        for i in 0..n {
            // top-2 of a+s over k'.
            let mut best = f64::NEG_INFINITY;
            let mut second = f64::NEG_INFINITY;
            let mut best_k = 0usize;
            for k in 0..n {
                let v = a[i][k] + s[i][k];
                if v > best {
                    second = best;
                    best = v;
                    best_k = k;
                } else if v > second {
                    second = v;
                }
            }
            for k in 0..n {
                let cap = if k == best_k { second } else { best };
                r[i][k] = damp * r[i][k] + (1.0 - damp) * (s[i][k] - cap);
            }
        }
        // Availabilities.
        for k in 0..n {
            let mut pos_sum = 0.0;
            for i in 0..n {
                if i != k {
                    pos_sum += r[i][k].max(0.0);
                }
            }
            for i in 0..n {
                let new =
                    if i == k { pos_sum } else { (r[k][k] + pos_sum - r[i][k].max(0.0)).min(0.0) };
                a[i][k] = damp * a[i][k] + (1.0 - damp) * new;
            }
        }
        // Current exemplars: points where r(k,k) + a(k,k) > 0.
        let exemplars: Vec<usize> = (0..n).filter(|&k| r[k][k] + a[k][k] > 0.0).collect();
        if exemplars == last_exemplars && !exemplars.is_empty() {
            stable += 1;
            if stable >= params.convergence_iter {
                break;
            }
        } else {
            stable = 0;
            last_exemplars = exemplars;
        }
    }

    let mut exemplars = last_exemplars;
    if exemplars.is_empty() {
        // Degenerate fallback: the point with the best net self-message.
        let best = (0..n)
            .max_by(|&p, &q| {
                (r[p][p] + a[p][p]).partial_cmp(&(r[q][q] + a[q][q])).expect("finite messages")
            })
            .expect("non-empty");
        exemplars = vec![best];
    }
    let labels: Vec<usize> = (0..n)
        .map(|i| {
            if let Some(pos) = exemplars.iter().position(|&e| e == i) {
                return pos; // exemplars label themselves
            }
            exemplars
                .iter()
                .enumerate()
                .max_by(|(_, &e1), (_, &e2)| {
                    s[i][e1].partial_cmp(&s[i][e2]).expect("finite similarity")
                })
                .map(|(pos, _)| pos)
                .expect("at least one exemplar")
        })
        .collect();
    Ok(AffinityResult { labels, exemplars, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_blobs_two_exemplars() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.3, 0.0],
            vec![0.0, 0.3],
            vec![9.0, 9.0],
            vec![9.3, 9.0],
            vec![9.0, 9.3],
        ];
        let r = affinity_propagation(&pts, AffinityParams::default()).unwrap();
        assert_eq!(r.exemplars.len(), 2);
        assert_eq!(r.labels[0], r.labels[1]);
        assert_eq!(r.labels[3], r.labels[4]);
        assert_ne!(r.labels[0], r.labels[3]);
    }

    #[test]
    fn low_preference_merges_clusters() {
        let pts: Vec<Vec<f64>> = (0..9).map(|i| vec![i as f64]).collect();
        let few = affinity_propagation(
            &pts,
            AffinityParams { preference: Some(-1000.0), ..Default::default() },
        )
        .unwrap();
        let many = affinity_propagation(
            &pts,
            AffinityParams { preference: Some(-0.1), ..Default::default() },
        )
        .unwrap();
        assert!(few.exemplars.len() <= many.exemplars.len());
        assert!(many.exemplars.len() >= 3);
    }

    #[test]
    fn single_point_trivial() {
        let r = affinity_propagation(&[vec![1.0]], AffinityParams::default()).unwrap();
        assert_eq!(r.labels, vec![0]);
        assert_eq!(r.exemplars, vec![0]);
    }

    #[test]
    fn exemplars_are_cluster_members() {
        let pts = vec![vec![0.0], vec![0.5], vec![20.0], vec![20.5]];
        let r = affinity_propagation(&pts, AffinityParams::default()).unwrap();
        for (c, &e) in r.exemplars.iter().enumerate() {
            assert_eq!(r.labels[e], c, "exemplar {e} should carry its own label");
        }
    }

    #[test]
    fn invalid_damping_rejected() {
        assert!(affinity_propagation(
            &[vec![0.0]],
            AffinityParams { damping: 0.2, ..Default::default() }
        )
        .is_err());
    }
}

//! Lloyd's k-means with k-means++ seeding.

use rand::Rng;
use serde::Serialize;

use crate::{check_points, ClusterError};

/// Result of a k-means run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct KMeansResult {
    /// Cluster index per input point.
    pub labels: Vec<usize>,
    /// Final centroids, one row per cluster.
    pub centroids: Vec<Vec<f64>>,
    /// Sum of squared distances to assigned centroids.
    pub inertia: f64,
    /// Lloyd iterations performed.
    pub iterations: usize,
}

/// Points scored per unit of parallel work in the assignment sweep.
const ASSIGN_CHUNK: usize = 256;

/// Runs k-means.
///
/// Seeding is k-means++ (distance-proportional), then Lloyd iterations
/// until assignments stabilize or `max_iter` is reached. Empty clusters
/// are re-seeded with the point farthest from its centroid.
///
/// # Errors
///
/// [`ClusterError::InvalidParameter`] if `k == 0`;
/// [`ClusterError::InvalidInput`] if there are fewer points than `k`.
///
/// # Example
///
/// ```
/// use edm_cluster::kmeans::kmeans;
/// use rand::SeedableRng;
///
/// let pts = vec![vec![0.0], vec![0.1], vec![10.0], vec![10.1]];
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let r = kmeans(&pts, 2, 100, &mut rng)?;
/// assert_eq!(r.labels[0], r.labels[1]);
/// assert_ne!(r.labels[0], r.labels[2]);
/// # Ok::<(), edm_cluster::ClusterError>(())
/// ```
pub fn kmeans<R: Rng + ?Sized>(
    x: &[Vec<f64>],
    k: usize,
    max_iter: usize,
    rng: &mut R,
) -> Result<KMeansResult, ClusterError> {
    let _span = edm_trace::span("cluster.kmeans.fit");
    if k == 0 {
        return Err(ClusterError::InvalidParameter {
            name: "k",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    let d = check_points(x)?;
    let n = x.len();
    if n < k {
        return Err(ClusterError::InvalidInput(format!("{n} points for k = {k}")));
    }

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(x[rng.gen_range(0..n)].clone());
    let mut d2: Vec<f64> = x.iter().map(|p| edm_linalg::sq_dist(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All mass at existing centroids: pick any point.
            rng.gen_range(0..n)
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    pick = i;
                    break;
                }
                target -= w;
            }
            pick
        };
        centroids.push(x[next].clone());
        for (i, p) in x.iter().enumerate() {
            d2[i] = d2[i].min(edm_linalg::sq_dist(p, centroids.last().expect("just pushed")));
        }
    }

    let mut labels = vec![0usize; n];
    let mut iterations = 0;
    for _ in 0..max_iter {
        iterations += 1;
        // Assignment: the O(n·k·d) sweep. Each point's nearest-centroid
        // search is independent, so chunks of the label buffer go to
        // worker threads; every point sees the same centroid order, so
        // the result is identical to the serial sweep.
        let mut new_labels = vec![0usize; n];
        edm_par::for_each_chunk(&mut new_labels, ASSIGN_CHUNK, |c, chunk| {
            let start = c * ASSIGN_CHUNK;
            for (off, slot) in chunk.iter_mut().enumerate() {
                let p = &x[start + off];
                let (best, _) = centroids
                    .iter()
                    .enumerate()
                    .map(|(cl, cen)| (cl, edm_linalg::sq_dist(p, cen)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"))
                    .expect("k >= 1");
                *slot = best;
            }
        });
        let mut changed = new_labels != labels;
        labels = new_labels;
        // Update.
        let mut sums = vec![vec![0.0; d]; k];
        let mut counts = vec![0usize; k];
        for (p, &l) in x.iter().zip(&labels) {
            counts[l] += 1;
            for (s, &v) in sums[l].iter_mut().zip(p) {
                *s += v;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed with the point farthest from its centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = edm_linalg::sq_dist(&x[a], &centroids[labels[a]]);
                        let db = edm_linalg::sq_dist(&x[b], &centroids[labels[b]]);
                        da.partial_cmp(&db).expect("finite distances")
                    })
                    .expect("non-empty");
                centroids[c] = x[far].clone();
                changed = true;
            } else {
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / counts[c] as f64;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let inertia = x.iter().zip(&labels).map(|(p, &l)| edm_linalg::sq_dist(p, &centroids[l])).sum();
    if edm_trace::enabled() {
        edm_trace::counter_add("cluster.kmeans.runs", 1);
        edm_trace::counter_add("cluster.kmeans.iterations", iterations as u64);
        edm_trace::record("cluster.kmeans.iterations_per_run", iterations as f64);
    }
    Ok(KMeansResult { labels, centroids, inertia, iterations })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn three_blobs() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..10 {
            let o = i as f64 * 0.01;
            pts.push(vec![0.0 + o, 0.0]);
            pts.push(vec![10.0 + o, 0.0]);
            pts.push(vec![5.0 + o, 8.0]);
        }
        pts
    }

    #[test]
    fn separates_three_blobs() {
        let pts = three_blobs();
        let mut rng = StdRng::seed_from_u64(3);
        let r = kmeans(&pts, 3, 100, &mut rng).unwrap();
        // points of the same blob share a label
        for b in 0..3 {
            let l0 = r.labels[b];
            for i in 0..10 {
                assert_eq!(r.labels[3 * i + b], l0);
            }
        }
        // three distinct labels
        let mut ls = r.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 3);
    }

    #[test]
    fn inertia_decreases_with_k() {
        let pts = three_blobs();
        let i1 = kmeans(&pts, 1, 100, &mut StdRng::seed_from_u64(1)).unwrap().inertia;
        let i3 = kmeans(&pts, 3, 100, &mut StdRng::seed_from_u64(1)).unwrap().inertia;
        assert!(i3 < i1);
    }

    #[test]
    fn k_equals_n_gives_zero_inertia() {
        let pts = vec![vec![0.0], vec![1.0], vec![2.0]];
        let r = kmeans(&pts, 3, 50, &mut StdRng::seed_from_u64(2)).unwrap();
        assert!(r.inertia < 1e-18);
    }

    #[test]
    fn rejects_bad_k() {
        let pts = vec![vec![0.0]];
        assert!(kmeans(&pts, 0, 10, &mut StdRng::seed_from_u64(0)).is_err());
        assert!(kmeans(&pts, 2, 10, &mut StdRng::seed_from_u64(0)).is_err());
    }

    #[test]
    fn duplicate_points_handled() {
        let pts = vec![vec![1.0, 1.0]; 8];
        let r = kmeans(&pts, 2, 50, &mut StdRng::seed_from_u64(5)).unwrap();
        assert!(r.inertia < 1e-18);
    }
}

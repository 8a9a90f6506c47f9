//! Mean-shift clustering with a flat (uniform-ball) kernel: every point
//! hill-climbs to the mode of the local density; points converging to the
//! same mode form a cluster.

use serde::Serialize;

use crate::{check_points, ClusterError};

/// Result of mean-shift clustering.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct MeanShiftResult {
    /// Cluster index per input point.
    pub labels: Vec<usize>,
    /// Discovered modes, one per cluster.
    pub modes: Vec<Vec<f64>>,
}

/// Runs mean-shift with ball radius `bandwidth`.
///
/// Modes closer than `bandwidth / 2` are merged. The number of clusters
/// is discovered, not specified — the practical appeal the paper's survey
/// notes for exploratory EDA data.
///
/// # Errors
///
/// [`ClusterError::InvalidParameter`] if `bandwidth <= 0`;
/// [`ClusterError::InvalidInput`] on empty/ragged input.
///
/// # Example
///
/// ```
/// use edm_cluster::meanshift::mean_shift;
///
/// let pts = vec![vec![0.0], vec![0.2], vec![10.0], vec![10.2]];
/// let r = mean_shift(&pts, 1.0, 100)?;
/// assert_eq!(r.modes.len(), 2);
/// assert_eq!(r.labels[0], r.labels[1]);
/// # Ok::<(), edm_cluster::ClusterError>(())
/// ```
pub fn mean_shift(
    x: &[Vec<f64>],
    bandwidth: f64,
    max_iter: usize,
) -> Result<MeanShiftResult, ClusterError> {
    if !(bandwidth > 0.0) {
        return Err(ClusterError::InvalidParameter {
            name: "bandwidth",
            value: bandwidth,
            constraint: "must be positive",
        });
    }
    let d = check_points(x)?;
    let bw2 = bandwidth * bandwidth;

    // Shift every point to its local mode.
    let mut converged: Vec<Vec<f64>> = Vec::with_capacity(x.len());
    for start in x {
        let mut p = start.clone();
        for _ in 0..max_iter {
            let mut mean = vec![0.0; d];
            let mut count = 0usize;
            for q in x {
                if edm_linalg::sq_dist(&p, q) <= bw2 {
                    for (m, &v) in mean.iter_mut().zip(q) {
                        *m += v;
                    }
                    count += 1;
                }
            }
            for m in &mut mean {
                *m /= count.max(1) as f64;
            }
            let moved = edm_linalg::sq_dist(&p, &mean);
            p = mean;
            if moved < 1e-12 * bw2 {
                break;
            }
        }
        converged.push(p);
    }

    // Merge modes within bandwidth/2.
    let merge2 = bw2 / 4.0;
    let mut modes: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::with_capacity(x.len());
    for p in &converged {
        match modes.iter().position(|m| edm_linalg::sq_dist(m, p) <= merge2) {
            Some(i) => labels.push(i),
            None => {
                modes.push(p.clone());
                labels.push(modes.len() - 1);
            }
        }
    }
    Ok(MeanShiftResult { labels, modes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovers_cluster_count() {
        let mut pts = Vec::new();
        for i in 0..8 {
            pts.push(vec![i as f64 * 0.05, 0.0]);
            pts.push(vec![i as f64 * 0.05 + 20.0, 0.0]);
            pts.push(vec![i as f64 * 0.05 + 40.0, 0.0]);
        }
        let r = mean_shift(&pts, 2.0, 200).unwrap();
        assert_eq!(r.modes.len(), 3);
    }

    #[test]
    fn modes_land_near_blob_centers() {
        let pts = vec![vec![0.0], vec![0.2], vec![0.4], vec![10.0], vec![10.2], vec![10.4]];
        let r = mean_shift(&pts, 1.5, 200).unwrap();
        assert_eq!(r.modes.len(), 2);
        let mut centers: Vec<f64> = r.modes.iter().map(|m| m[0]).collect();
        centers.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        assert!((centers[0] - 0.2).abs() < 0.2);
        assert!((centers[1] - 10.2).abs() < 0.2);
    }

    #[test]
    fn wide_bandwidth_gives_one_cluster() {
        let pts = vec![vec![0.0], vec![3.0], vec![6.0]];
        let r = mean_shift(&pts, 100.0, 100).unwrap();
        assert_eq!(r.modes.len(), 1);
        assert!(r.labels.iter().all(|&l| l == 0));
    }

    #[test]
    fn invalid_bandwidth_rejected() {
        assert!(mean_shift(&[vec![0.0]], 0.0, 10).is_err());
    }
}

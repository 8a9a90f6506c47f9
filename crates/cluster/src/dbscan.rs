//! DBSCAN density-based clustering with explicit noise labeling.

use serde::Serialize;

use crate::{check_points, ClusterError};

/// Per-point DBSCAN assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum DbscanLabel {
    /// Member of the cluster with the given index.
    Cluster(usize),
    /// Density noise (no core point within ε).
    Noise,
}

/// Runs DBSCAN with radius `eps` and density threshold `min_points`
/// (neighborhood counts include the point itself).
///
/// # Errors
///
/// [`ClusterError::InvalidParameter`] if `eps <= 0` or
/// `min_points == 0`; [`ClusterError::InvalidInput`] on empty/ragged
/// input.
///
/// # Example
///
/// ```
/// use edm_cluster::dbscan::{dbscan, DbscanLabel};
///
/// let pts = vec![vec![0.0], vec![0.1], vec![0.2], vec![50.0]];
/// let labels = dbscan(&pts, 0.5, 2)?;
/// assert_eq!(labels[0], labels[1]);
/// assert_eq!(labels[3], DbscanLabel::Noise);
/// # Ok::<(), edm_cluster::ClusterError>(())
/// ```
pub fn dbscan(
    x: &[Vec<f64>],
    eps: f64,
    min_points: usize,
) -> Result<Vec<DbscanLabel>, ClusterError> {
    if !(eps > 0.0) {
        return Err(ClusterError::InvalidParameter {
            name: "eps",
            value: eps,
            constraint: "must be positive",
        });
    }
    if min_points == 0 {
        return Err(ClusterError::InvalidParameter {
            name: "min_points",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    check_points(x)?;
    let n = x.len();
    let eps2 = eps * eps;
    let neighbors = |i: usize| -> Vec<usize> {
        (0..n).filter(|&j| edm_linalg::sq_dist(&x[i], &x[j]) <= eps2).collect()
    };

    const UNVISITED: usize = usize::MAX;
    const NOISE: usize = usize::MAX - 1;
    let mut assign = vec![UNVISITED; n];
    let mut cluster = 0usize;
    for i in 0..n {
        if assign[i] != UNVISITED {
            continue;
        }
        let nb = neighbors(i);
        if nb.len() < min_points {
            assign[i] = NOISE;
            continue;
        }
        // Start a new cluster; BFS over density-reachable points.
        assign[i] = cluster;
        let mut queue: Vec<usize> = nb;
        while let Some(j) = queue.pop() {
            if assign[j] == NOISE {
                assign[j] = cluster; // border point adopted
            }
            if assign[j] != UNVISITED {
                continue;
            }
            assign[j] = cluster;
            let nbj = neighbors(j);
            if nbj.len() >= min_points {
                queue.extend(nbj);
            }
        }
        cluster += 1;
    }
    Ok(assign
        .into_iter()
        .map(|a| if a == NOISE { DbscanLabel::Noise } else { DbscanLabel::Cluster(a) })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_dense_blobs_one_outlier() {
        let mut pts = Vec::new();
        for i in 0..6 {
            pts.push(vec![i as f64 * 0.1, 0.0]);
        }
        for i in 0..6 {
            pts.push(vec![i as f64 * 0.1 + 10.0, 0.0]);
        }
        pts.push(vec![5.0, 5.0]);
        let labels = dbscan(&pts, 0.3, 3).unwrap();
        assert_eq!(labels[0], DbscanLabel::Cluster(0));
        assert_eq!(labels[5], DbscanLabel::Cluster(0));
        assert_eq!(labels[6], DbscanLabel::Cluster(1));
        assert_eq!(labels[12], DbscanLabel::Noise);
    }

    #[test]
    fn chain_is_density_connected() {
        let pts: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 * 0.4]).collect();
        let labels = dbscan(&pts, 0.5, 2).unwrap();
        assert!(labels.iter().all(|&l| l == DbscanLabel::Cluster(0)));
    }

    #[test]
    fn everything_noise_when_sparse() {
        let pts: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 100.0]).collect();
        let labels = dbscan(&pts, 1.0, 2).unwrap();
        assert!(labels.iter().all(|&l| l == DbscanLabel::Noise));
    }

    #[test]
    fn border_point_joins_cluster() {
        // 0.0, 0.4, 0.8 are core-dense; 1.7 is within eps of 0.8 only
        // (not core with min_points = 3) -> border, adopted.
        let pts = vec![vec![0.0], vec![0.4], vec![0.8], vec![1.7]];
        let labels = dbscan(&pts, 1.0, 3).unwrap();
        assert_eq!(labels[3], DbscanLabel::Cluster(0));
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(dbscan(&[vec![0.0]], 0.0, 1).is_err());
        assert!(dbscan(&[vec![0.0]], 1.0, 0).is_err());
    }
}

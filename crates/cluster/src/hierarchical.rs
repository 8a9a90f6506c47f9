//! Agglomerative hierarchical clustering with selectable linkage.

use serde::Serialize;

use crate::{check_points, ClusterError};

/// How the distance between two clusters is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Linkage {
    /// Minimum pairwise distance (chains easily).
    Single,
    /// Maximum pairwise distance (compact clusters).
    Complete,
    /// Mean pairwise distance (UPGMA).
    Average,
}

/// One merge step of the dendrogram: clusters `a` and `b` (indices into
/// the sequence original points `0..n` followed by merge results
/// `n, n+1, …`) joined at `distance`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Merge {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened.
    pub distance: f64,
}

/// Result of agglomerative clustering cut at `k` clusters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HierarchicalResult {
    /// Cluster index per input point (`0..k`).
    pub labels: Vec<usize>,
    /// Full merge history (length `n − k`).
    pub merges: Vec<Merge>,
}

/// Agglomerates points bottom-up until `k` clusters remain.
///
/// O(n³) in the worst case — fine for the diagnostic populations in this
/// workspace (hundreds to a few thousand paths/devices).
///
/// # Errors
///
/// [`ClusterError::InvalidParameter`] if `k == 0`;
/// [`ClusterError::InvalidInput`] if there are fewer points than `k`.
///
/// # Example
///
/// ```
/// use edm_cluster::hierarchical::{agglomerative, Linkage};
///
/// let pts = vec![vec![0.0], vec![0.2], vec![9.0], vec![9.1]];
/// let r = agglomerative(&pts, 2, Linkage::Average)?;
/// assert_eq!(r.labels[0], r.labels[1]);
/// assert_ne!(r.labels[0], r.labels[2]);
/// # Ok::<(), edm_cluster::ClusterError>(())
/// ```
pub fn agglomerative(
    x: &[Vec<f64>],
    k: usize,
    linkage: Linkage,
) -> Result<HierarchicalResult, ClusterError> {
    if k == 0 {
        return Err(ClusterError::InvalidParameter {
            name: "k",
            value: 0.0,
            constraint: "must be at least 1",
        });
    }
    check_points(x)?;
    let n = x.len();
    if n < k {
        return Err(ClusterError::InvalidInput(format!("{n} points for k = {k}")));
    }
    // Active clusters: id -> member point indices.
    let mut members: Vec<Option<Vec<usize>>> = (0..n).map(|i| Some(vec![i])).collect();
    let mut active: Vec<usize> = (0..n).collect();
    let mut merges = Vec::new();
    let mut next_id = n;

    let cluster_dist = |a: &[usize], b: &[usize]| -> f64 {
        let mut acc: f64 = match linkage {
            Linkage::Single => f64::INFINITY,
            Linkage::Complete => 0.0,
            Linkage::Average => 0.0,
        };
        for &i in a {
            for &j in b {
                let d = edm_linalg::sq_dist(&x[i], &x[j]).sqrt();
                match linkage {
                    Linkage::Single => acc = acc.min(d),
                    Linkage::Complete => acc = acc.max(d),
                    Linkage::Average => acc += d,
                }
            }
        }
        if linkage == Linkage::Average {
            acc / (a.len() * b.len()) as f64
        } else {
            acc
        }
    };

    while active.len() > k {
        // Find the closest active pair.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for ai in 0..active.len() {
            for bi in (ai + 1)..active.len() {
                let (ida, idb) = (active[ai], active[bi]);
                let d = cluster_dist(
                    members[ida].as_ref().expect("active"),
                    members[idb].as_ref().expect("active"),
                );
                if d < best.2 {
                    best = (ida, idb, d);
                }
            }
        }
        let (ida, idb, dist) = best;
        let mut merged = members[ida].take().expect("active");
        merged.extend(members[idb].take().expect("active"));
        members.push(Some(merged));
        active.retain(|&id| id != ida && id != idb);
        active.push(next_id);
        merges.push(Merge { a: ida, b: idb, distance: dist });
        next_id += 1;
    }

    let mut labels = vec![0usize; n];
    for (c, &id) in active.iter().enumerate() {
        for &p in members[id].as_ref().expect("active") {
            labels[p] = c;
        }
    }
    Ok(HierarchicalResult { labels, merges })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_count_is_n_minus_k() {
        let pts: Vec<Vec<f64>> = (0..7).map(|i| vec![i as f64]).collect();
        let r = agglomerative(&pts, 3, Linkage::Average).unwrap();
        assert_eq!(r.merges.len(), 4);
        let mut ls = r.labels.clone();
        ls.sort_unstable();
        ls.dedup();
        assert_eq!(ls.len(), 3);
    }

    #[test]
    fn all_linkages_separate_clear_blobs() {
        let pts = vec![
            vec![0.0, 0.0],
            vec![0.3, 0.1],
            vec![0.1, 0.2],
            vec![8.0, 8.0],
            vec![8.2, 7.9],
            vec![7.9, 8.1],
        ];
        for linkage in [Linkage::Single, Linkage::Complete, Linkage::Average] {
            let r = agglomerative(&pts, 2, linkage).unwrap();
            assert_eq!(r.labels[0], r.labels[1]);
            assert_eq!(r.labels[0], r.labels[2]);
            assert_eq!(r.labels[3], r.labels[4]);
            assert_eq!(r.labels[3], r.labels[5]);
            assert_ne!(r.labels[0], r.labels[3], "{linkage:?}");
        }
    }

    #[test]
    fn single_linkage_chains_where_complete_does_not() {
        // A chain of points 1 apart, then a gap of 1.5, then one point.
        // Single linkage keeps the chain whole at k=2; complete linkage
        // may split the chain instead — we assert single's behavior only.
        let pts: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0], vec![4.5]];
        let r = agglomerative(&pts, 2, Linkage::Single).unwrap();
        assert_eq!(r.labels[0], r.labels[3]);
        assert_ne!(r.labels[0], r.labels[4]);
    }

    #[test]
    fn merge_distances_nondecreasing_for_single_linkage() {
        let pts: Vec<Vec<f64>> = (0..8).map(|i| vec![(i * i) as f64 * 0.3]).collect();
        let r = agglomerative(&pts, 1, Linkage::Single).unwrap();
        for w in r.merges.windows(2) {
            assert!(w[1].distance >= w[0].distance - 1e-12);
        }
    }

    #[test]
    fn k_one_puts_everything_together() {
        let pts = vec![vec![0.0], vec![100.0]];
        let r = agglomerative(&pts, 1, Linkage::Complete).unwrap();
        assert_eq!(r.labels, vec![0, 0]);
    }
}

//! Kernels over token sequences.
//!
//! The paper's novel-test-selection application (ref \[14\], Fig. 7)
//! needed a similarity between *assembly programs* — samples that are not
//! vectors. The spectrum kernel counts shared n-grams of tokens, which
//! for instruction streams captures local instruction-sequence structure
//! (the "kernel module" the paper calls the real implementation
//! challenge).

use std::collections::BTreeMap;
use std::hash::Hash;

use serde::Serialize;

use crate::Kernel;

/// The n-gram spectrum kernel
/// `k(s, t) = Σ_u count_u(s) · count_u(t)` over all n-grams `u`, blended
/// across gram sizes `1..=n` with geometric down-weighting of shorter
/// grams.
///
/// Equivalent to a dot product in the (implicit, exponentially large)
/// space of n-gram counts — a textbook instance of the kernel trick on
/// non-vector data.
///
/// # Example
///
/// ```
/// use edm_kernels::{Kernel, SpectrumKernel};
///
/// let k = SpectrumKernel::new(2);
/// let a = ["ld", "add", "st"];
/// let b = ["ld", "add", "add"];
/// // shares the unigrams ld/add and the bigram (ld, add)
/// assert!(k.eval(&a[..], &b[..]) > 0.0);
/// assert!(k.eval(&a[..], &a[..]) >= k.eval(&a[..], &b[..]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SpectrumKernel {
    n: usize,
    /// Weight multiplier per extra token of gram length; 1.0 = flat.
    length_weight: f64,
}

impl SpectrumKernel {
    /// Creates a spectrum kernel over grams of size `1..=n` with flat
    /// weighting.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        Self::weighted(n, 1.0)
    }

    /// Creates a spectrum kernel where a gram of length `L` carries
    /// weight `length_weight^(L-1)` — values above 1 emphasize longer
    /// shared subsequences.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `length_weight <= 0`.
    pub fn weighted(n: usize, length_weight: f64) -> Self {
        assert!(n > 0, "spectrum kernel needs n >= 1");
        assert!(length_weight > 0.0, "length weight must be positive");
        SpectrumKernel { n, length_weight }
    }

    /// Maximum gram length `n`.
    pub fn n(&self) -> usize {
        self.n
    }

    // BTreeMap, not HashMap: `eval` folds these counts into a float
    // accumulator, so the iteration order must not depend on a
    // per-process hash seed.
    fn counts<'a, T: Ord>(&self, s: &'a [T], len: usize) -> BTreeMap<&'a [T], f64> {
        let mut m: BTreeMap<&[T], f64> = BTreeMap::new();
        if s.len() >= len {
            for w in s.windows(len) {
                *m.entry(w).or_insert(0.0) += 1.0;
            }
        }
        m
    }
}

impl<T: Ord> Kernel<[T]> for SpectrumKernel {
    fn eval(&self, a: &[T], b: &[T]) -> f64 {
        let mut total = 0.0;
        let mut w = 1.0;
        for len in 1..=self.n {
            let ca = self.counts(a, len);
            let cb = self.counts(b, len);
            // Iterate the smaller map for the sparse dot product.
            let (small, large) = if ca.len() <= cb.len() { (&ca, &cb) } else { (&cb, &ca) };
            let mut s = 0.0;
            for (gram, &cnt) in small {
                if let Some(&other) = large.get(gram) {
                    s += cnt * other;
                }
            }
            total += w * s;
            w *= self.length_weight;
        }
        total
    }
}

/// A precomputed spectrum-kernel profile of one sequence: hashed n-gram
/// counts (weighted by gram length) sorted for merge-join dot products.
///
/// Building a profile is `O(len · n)`; evaluating a pair is then
/// `O(|grams_a| + |grams_b|)` with no hashing — the fast path for flows
/// that score one candidate against hundreds of stored sequences (the
/// Fig. 7 novelty filter).
///
/// Gram identity uses a 64-bit hash; collisions are possible in
/// principle but negligible at the workloads involved (≪ 2³² distinct
/// grams).
///
/// # Example
///
/// ```
/// use edm_kernels::{Kernel, SpectrumKernel, SpectrumProfile};
///
/// let k = SpectrumKernel::new(2);
/// let a = [1u8, 2, 3];
/// let b = [2u8, 3, 4];
/// let pa = SpectrumProfile::build(&a, &k);
/// let pb = SpectrumProfile::build(&b, &k);
/// assert!((pa.dot(&pb) - k.eval(&a[..], &b[..])).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpectrumProfile {
    /// (gram hash, weighted count), sorted by hash.
    grams: Vec<(u64, f64)>,
    norm: f64,
}

impl SpectrumProfile {
    /// Builds the profile of `seq` under `kernel`'s gram sizes and
    /// weighting.
    pub fn build<T: Eq + Hash>(seq: &[T], kernel: &SpectrumKernel) -> Self {
        use std::hash::{DefaultHasher, Hasher};
        // Store c · √w per gram (c = occurrence count, w = the gram
        // length's weight): then dot() accumulates w · c_a · c_b, which
        // is exactly the kernel sum. The gram length is folded into the
        // hash so equal token runs of different lengths stay distinct.
        let mut map: BTreeMap<u64, f64> = BTreeMap::new();
        let mut w = 1.0_f64;
        for len in 1..=kernel.n {
            let sw = w.sqrt();
            if seq.len() >= len {
                for gram in seq.windows(len) {
                    let mut h = DefaultHasher::new();
                    h.write_usize(len);
                    for t in gram {
                        t.hash(&mut h);
                    }
                    *map.entry(h.finish()).or_insert(0.0) += sw;
                }
            }
            w *= kernel.length_weight;
        }
        // BTreeMap iteration is already ascending by hash, the order
        // `dot`'s merge-join requires.
        let grams: Vec<(u64, f64)> = map.into_iter().collect();
        let norm = grams.iter().map(|&(_, c)| c * c).sum::<f64>().sqrt();
        SpectrumProfile { grams, norm }
    }

    /// The raw spectrum-kernel value `k(a, b)`.
    pub fn dot(&self, other: &SpectrumProfile) -> f64 {
        let (mut i, mut j) = (0, 0);
        let mut acc = 0.0;
        while i < self.grams.len() && j < other.grams.len() {
            match self.grams[i].0.cmp(&other.grams[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.grams[i].1 * other.grams[j].1;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Cosine-normalized similarity in `[0, 1]` (0 when either profile
    /// is empty).
    pub fn cosine(&self, other: &SpectrumProfile) -> f64 {
        let d = self.norm * other.norm;
        if d < 1e-300 {
            0.0
        } else {
            self.dot(other) / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disjoint_alphabets_have_zero_similarity() {
        let k = SpectrumKernel::new(3);
        let a = [1u32, 2, 3, 1, 2];
        let b = [7u32, 8, 9];
        assert_eq!(k.eval(&a[..], &b[..]), 0.0);
    }

    #[test]
    fn self_similarity_dominates() {
        let k = SpectrumKernel::new(2);
        let a = ["ld", "add", "st", "ld"];
        let b = ["ld", "st", "st", "add"];
        let kaa = k.eval(&a[..], &a[..]);
        let kab = k.eval(&a[..], &b[..]);
        // Cauchy-Schwarz: k(a,b) <= sqrt(k(a,a) k(b,b))
        let kbb = k.eval(&b[..], &b[..]);
        assert!(kab <= (kaa * kbb).sqrt() + 1e-12);
    }

    #[test]
    fn unigram_kernel_counts_shared_tokens() {
        let k = SpectrumKernel::new(1);
        // 'x' appears 2x in a, 1x in b -> contributes 2; 'y' 1x1 -> 1.
        let a = ['x', 'x', 'y'];
        let b = ['x', 'y', 'z'];
        assert_eq!(k.eval(&a[..], &b[..]), 3.0);
    }

    #[test]
    fn longer_grams_add_similarity() {
        let k1 = SpectrumKernel::new(1);
        let k3 = SpectrumKernel::new(3);
        let a = [5u8, 6, 7, 8];
        let b = [5u8, 6, 7, 9];
        assert!(k3.eval(&a[..], &b[..]) > k1.eval(&a[..], &b[..]));
    }

    #[test]
    fn length_weight_emphasizes_long_matches() {
        let flat = SpectrumKernel::new(2);
        let heavy = SpectrumKernel::weighted(2, 4.0);
        let a = [1u8, 2];
        let b = [1u8, 2];
        // flat: 2 unigrams + 1 bigram = 3; heavy: 2 + 4*1 = 6
        assert_eq!(flat.eval(&a[..], &b[..]), 3.0);
        assert_eq!(heavy.eval(&a[..], &b[..]), 6.0);
    }

    #[test]
    fn empty_sequences_are_fine() {
        let k = SpectrumKernel::new(2);
        let a: [u8; 0] = [];
        let b = [1u8, 2];
        assert_eq!(k.eval(&a[..], &b[..]), 0.0);
        assert_eq!(k.eval(&a[..], &a[..]), 0.0);
    }
}

#[cfg(test)]
mod profile_tests {
    use super::*;
    use crate::Kernel;

    #[test]
    fn profile_dot_matches_kernel_flat_and_weighted() {
        let seqs: Vec<Vec<u8>> =
            vec![vec![1, 2, 3, 4, 2, 3], vec![3, 3, 3, 3], vec![1, 2, 3], vec![]];
        for k in [SpectrumKernel::new(3), SpectrumKernel::weighted(4, 2.0)] {
            let profiles: Vec<SpectrumProfile> =
                seqs.iter().map(|s| SpectrumProfile::build(s, &k)).collect();
            for a in 0..seqs.len() {
                for b in 0..seqs.len() {
                    let direct = k.eval(&seqs[a][..], &seqs[b][..]);
                    let fast = profiles[a].dot(&profiles[b]);
                    assert!(
                        (direct - fast).abs() < 1e-9,
                        "mismatch at ({a},{b}): {direct} vs {fast}"
                    );
                }
            }
        }
    }

    #[test]
    fn cosine_is_normalized() {
        let k = SpectrumKernel::weighted(3, 2.0);
        let a = SpectrumProfile::build(&[5u8, 6, 7, 5, 6], &k);
        let b = SpectrumProfile::build(&[5u8, 6, 9], &k);
        assert!((a.cosine(&a) - 1.0).abs() < 1e-12);
        let c = a.cosine(&b);
        assert!((0.0..=1.0).contains(&c));
        let empty = SpectrumProfile::build::<u8>(&[], &k);
        assert_eq!(empty.cosine(&a), 0.0);
    }
}

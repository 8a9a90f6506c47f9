//! Property tests pinning the Q-row cache's correctness guarantee: for
//! any random problem, solving with the cache **on** (large or
//! pathologically tiny budget) returns a `DualSolution` bitwise
//! identical to solving with the cache **off** — for all three dual
//! shapes (SVC, SVR, one-class). Also checks that cached rows under a
//! random access pattern always match direct kernel evaluations, that
//! a shrink pass's batched renumbering equals its swaps one at a time,
//! and pins how many kernel evaluations each row fill costs.

use std::sync::atomic::{AtomicUsize, Ordering};

use edm_kernels::{Kernel, RbfKernel};
use edm_svm::solver::{solve, DualProblem, DualSolution, SolverOptions};
use edm_svm::{CachedQ, KernelQ, QMatrix, QSource, SvmError, SvrQ};
use proptest::prelude::*;

/// Deterministic SplitMix64 point cloud.
fn points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

/// Both runs must agree exactly: same solution bit-for-bit, or the same
/// error.
fn assert_identical(a: &Result<DualSolution, SvmError>, b: &Result<DualSolution, SvmError>) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(
                a.alpha.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.alpha.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "alpha differs"
            );
            assert_eq!(a.rho.to_bits(), b.rho.to_bits(), "rho differs");
            assert_eq!(a.iterations, b.iterations, "iterations differ");
            assert_eq!(a.gap.to_bits(), b.gap.to_bits(), "gap differs");
        }
        (Err(ea), Err(eb)) => assert_eq!(format!("{ea:?}"), format!("{eb:?}")),
        (a, b) => panic!("cache changed the outcome: {a:?} vs {b:?}"),
    }
}

fn solve_svc_cached(
    x: &[Vec<f64>],
    y: &[f64],
    gamma: f64,
    cache_bytes: usize,
) -> Result<DualSolution, SvmError> {
    let k = RbfKernel::new(gamma);
    let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, x, Some(y)), cache_bytes);
    let n = x.len();
    solve(
        &mut q,
        &DualProblem {
            p: vec![-1.0; n],
            y: y.to_vec(),
            c: vec![5.0; n],
            alpha0: vec![0.0; n],
            tol: 1e-4,
            max_iter: 20_000,
            opts: SolverOptions::default(),
        },
    )
}

fn solve_svr_cached(
    x: &[Vec<f64>],
    t: &[f64],
    gamma: f64,
    cache_bytes: usize,
) -> Result<DualSolution, SvmError> {
    let k = RbfKernel::new(gamma);
    let m = x.len();
    let mut q = CachedQ::new(SvrQ::<[f64], _, _>::new(&k, x), cache_bytes);
    let epsilon = 0.05;
    let mut p = Vec::with_capacity(2 * m);
    for &ti in t {
        p.push(epsilon - ti);
    }
    for &ti in t {
        p.push(epsilon + ti);
    }
    let sign = |u: usize| if u < m { 1.0 } else { -1.0 };
    solve(
        &mut q,
        &DualProblem {
            p,
            y: (0..2 * m).map(sign).collect(),
            c: vec![2.0; 2 * m],
            alpha0: vec![0.0; 2 * m],
            tol: 1e-4,
            max_iter: 40_000,
            opts: SolverOptions::default(),
        },
    )
}

fn solve_one_class_cached(
    x: &[Vec<f64>],
    nu: f64,
    gamma: f64,
    cache_bytes: usize,
) -> Result<DualSolution, SvmError> {
    let k = RbfKernel::new(gamma);
    let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, x, None), cache_bytes);
    let n = x.len();
    // LIBSVM's feasible start Σα = νn — nonzero alpha0 also exercises
    // the gradient-initialization row fetches.
    let total = nu * n as f64;
    let full = total.floor() as usize;
    let mut alpha0 = vec![0.0; n];
    for a in alpha0.iter_mut().take(full.min(n)) {
        *a = 1.0;
    }
    if full < n {
        alpha0[full] = total - full as f64;
    }
    solve(
        &mut q,
        &DualProblem {
            p: vec![0.0; n],
            y: vec![1.0; n],
            c: vec![1.0; n],
            alpha0,
            tol: 1e-4,
            max_iter: 20_000,
            opts: SolverOptions::default(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn svc_solution_is_cache_invariant(
        seed in 0u64..1_000_000,
        n in 8usize..24,
        gamma in 0.3f64..2.0,
    ) {
        let x = points(seed, n, 2);
        let y: Vec<f64> = (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let off = solve_svc_cached(&x, &y, gamma, 0);
        // Tiny budget (2 resident rows — constant eviction churn).
        assert_identical(&solve_svc_cached(&x, &y, gamma, 8 * n), &off);
        // Ample budget (everything fits).
        assert_identical(&solve_svc_cached(&x, &y, gamma, 1 << 20), &off);
    }

    #[test]
    fn svr_solution_is_cache_invariant(
        seed in 0u64..1_000_000,
        m in 6usize..16,
        gamma in 0.3f64..2.0,
    ) {
        let x = points(seed, m, 2);
        let t: Vec<f64> = x.iter().map(|p| p[0] - 0.5 * p[1]).collect();
        let off = solve_svr_cached(&x, &t, gamma, 0);
        assert_identical(&solve_svr_cached(&x, &t, gamma, 16 * m), &off);
        assert_identical(&solve_svr_cached(&x, &t, gamma, 1 << 20), &off);
    }

    #[test]
    fn one_class_solution_is_cache_invariant(
        seed in 0u64..1_000_000,
        n in 8usize..24,
        nu in 0.1f64..0.9,
        gamma in 0.3f64..2.0,
    ) {
        let x = points(seed, n, 2);
        let off = solve_one_class_cached(&x, nu, gamma, 0);
        assert_identical(&solve_one_class_cached(&x, nu, gamma, 8 * n), &off);
        assert_identical(&solve_one_class_cached(&x, nu, gamma, 1 << 20), &off);
    }

    /// Batched fetches through `rows_prefix` — duplicates, random
    /// prefix lengths, and cache renumbering included — must return
    /// rows bitwise identical to direct kernel evaluations routed
    /// through the same permutation.
    #[test]
    fn batched_rows_prefix_matches_source_fills(
        seed in 0u64..1_000_000,
        n in 4usize..32,
        cache_bytes in 0usize..4000,
    ) {
        let x = points(seed, n, 3);
        let k = RbfKernel::new(0.7);
        let mut cached = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), cache_bytes);
        // Mirror of the renumbering applied via swap_indices: logical
        // position -> original index.
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed ^ 0xBA7C4;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            state
        };
        for _ in 0..40 {
            // Occasionally renumber, exercising the permuted gather path.
            if next() % 3 == 0 {
                let a = (next() % n as u64) as usize;
                let b = (next() % n as u64) as usize;
                cached.swap_indices(&[(a, b)]);
                perm.swap(a, b);
            }
            let batch = 1 + (next() % 5) as usize;
            let idxs: Vec<usize> = (0..batch).map(|_| (next() % n as u64) as usize).collect();
            let len = 1 + (next() % n as u64) as usize;
            let len = len.max(idxs.iter().copied().max().unwrap_or(0) + 1);
            let rows = cached.rows_prefix(&idxs, len);
            prop_assert_eq!(rows.iter().count(), idxs.len());
            for (&i, row) in idxs.iter().zip(rows.iter()) {
                let want: Vec<u64> =
                    perm[..len].iter().map(|&j| k.eval(&x[perm[i]], &x[j]).to_bits()).collect();
                let got: Vec<u64> = row[..len].iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "row {} len {}", i, len);
            }
        }
    }

    /// Same contract for the SVR source, whose fill goes through the
    /// mirrored two-block layout (`n = 2m` columns backed by `m` kernel
    /// evaluations): `Q(t, u) = s(t) s(u) k(x[t mod m], x[u mod m])`.
    #[test]
    fn batched_svr_rows_match_source_fills(
        seed in 0u64..1_000_000,
        m in 3usize..14,
        cache_bytes in 0usize..4000,
    ) {
        let x = points(seed, m, 3);
        let k = RbfKernel::new(0.9);
        let n = 2 * m;
        let sign = |u: usize| if u < m { 1.0 } else { -1.0 };
        let entry = |t: usize, u: usize| sign(t) * sign(u) * k.eval(&x[t % m], &x[u % m]);
        let mut cached = CachedQ::new(SvrQ::<[f64], _, _>::new(&k, &x), cache_bytes);
        let mut perm: Vec<usize> = (0..n).collect();
        let mut state = seed ^ 0x51C6;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            state
        };
        for _ in 0..30 {
            if next() % 3 == 0 {
                let a = (next() % n as u64) as usize;
                let b = (next() % n as u64) as usize;
                cached.swap_indices(&[(a, b)]);
                perm.swap(a, b);
            }
            let batch = 1 + (next() % 4) as usize;
            let idxs: Vec<usize> = (0..batch).map(|_| (next() % n as u64) as usize).collect();
            let rows = cached.rows_prefix(&idxs, n);
            for (&i, row) in idxs.iter().zip(rows.iter()) {
                let want: Vec<u64> = perm.iter().map(|&j| entry(perm[i], j).to_bits()).collect();
                let got: Vec<u64> = row[..n].iter().map(|v| v.to_bits()).collect();
                prop_assert_eq!(got, want, "svr row {}", i);
            }
        }
    }

    /// For duplicate-free batches under a budget ample enough that no
    /// eviction lands mid-batch, one `rows_prefix` call must leave the
    /// cache in exactly the state that sequential `row_prefix` calls
    /// would: same rows, same hit/miss/eviction counters. (Tight
    /// budgets may classify differently — a sequential insert can
    /// evict a row a later request would have hit — which is why the
    /// solver-invariance tests above, not counter equality, pin that
    /// regime.)
    #[test]
    fn batched_fetch_preserves_sequential_cache_state(
        seed in 0u64..1_000_000,
        n in 6usize..24,
    ) {
        let x = points(seed, n, 2);
        let k = RbfKernel::new(1.1);
        let cache_bytes = 1usize << 20;
        let mut batched = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), cache_bytes);
        let mut sequential = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), cache_bytes);
        let mut state = seed ^ 0xFACE;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            state
        };
        for _ in 0..30 {
            let batch = 1 + (next() % 5) as usize;
            let mut idxs: Vec<usize> = Vec::with_capacity(batch);
            while idxs.len() < batch {
                let i = (next() % n as u64) as usize;
                if !idxs.contains(&i) {
                    idxs.push(i);
                }
            }
            let rows = batched.rows_prefix(&idxs, n);
            for (&i, row) in idxs.iter().zip(rows.iter()) {
                let lone = sequential.row_prefix(i, n);
                prop_assert_eq!(
                    row[..n].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    lone[..n].iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                );
            }
            prop_assert_eq!(batched.stats(), sequential.stats());
        }
    }

    /// One `swap_indices` call over a pass's swap list must leave the
    /// cache exactly as the same swaps one call at a time would: the
    /// same rows dropped (and counted as evictions), the same entries
    /// exchanged in the rows that stay, and the same state for every
    /// later fetch. Resident rows get random prefix lengths, so swaps
    /// that cover a row, drop it, or miss it all occur, repeated
    /// indices and `a == b` swaps included.
    #[test]
    fn batched_swaps_match_sequential_swaps(
        seed in 0u64..1_000_000,
        n in 4usize..28,
        cache_bytes in 0usize..3000,
    ) {
        let x = points(seed, n, 2);
        let k = RbfKernel::new(0.8);
        let mut batched = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), cache_bytes);
        let mut sequential = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), cache_bytes);
        let mut state = seed ^ 0x5A4B;
        let mut next = move |m: usize| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let z = (state ^ (state >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            ((z >> 33) % m as u64) as usize
        };
        for _ in 0..6 {
            for _ in 0..next(12) {
                let (i, len) = (next(n), 1 + next(n));
                batched.row_prefix(i, len);
                sequential.row_prefix(i, len);
            }
            let swaps: Vec<(usize, usize)> = (0..next(2 * n)).map(|_| (next(n), next(n))).collect();
            batched.swap_indices(&swaps);
            for &swap in &swaps {
                sequential.swap_indices(&[swap]);
            }
            prop_assert_eq!(batched.stats(), sequential.stats(), "after {:?}", swaps);
            prop_assert_eq!(
                batched.diag().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                sequential.diag().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            );
            let i = next(n);
            let len = 1 + next(n);
            let a: Vec<u64> = batched.row_prefix(i, len).iter().map(|v| v.to_bits()).collect();
            let b: Vec<u64> = sequential.row_prefix(i, len).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(a, b, "row {} len {}", i, len);
            prop_assert_eq!(batched.stats(), sequential.stats());
        }
    }

    #[test]
    fn cached_rows_match_source_under_random_access(
        seed in 0u64..1_000_000,
        n in 8usize..40,
        cache_bytes in 0usize..4000,
    ) {
        let x = points(seed, n, 3);
        let k = RbfKernel::new(0.9);
        let mut cached = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), cache_bytes);
        let mut state = seed ^ 0xD00D;
        for _ in 0..200 {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let i = (state % n as u64) as usize;
            let row = cached.row_prefix(i, n);
            prop_assert_eq!(
                row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                x.iter().map(|xj| k.eval(&x[i], xj).to_bits()).collect::<Vec<_>>()
            );
        }
    }
}

/// `RbfKernel` that counts its evaluations (from any worker thread).
struct CountingKernel {
    inner: RbfKernel,
    evals: AtomicUsize,
}

impl Kernel<[f64]> for CountingKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        self.evals.fetch_add(1, Ordering::Relaxed);
        self.inner.eval(a, b)
    }
}

impl CountingKernel {
    /// Evaluations since the last call.
    fn take(&self) -> usize {
        self.evals.swap(0, Ordering::Relaxed)
    }
}

/// Runs one `fill_rows` into scratch outputs.
fn fill(src: &impl QSource, rows: &[usize], cols: &[usize]) {
    let mut outs = vec![vec![0.0; cols.len()]; rows.len()];
    src.fill_rows(rows, cols, &mut outs.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
}

/// Kernel evaluations per fill: a full `KernelQ` row costs `n` and a
/// B-row batch `B·n`; a full `SvrQ` row over `2m` columns costs `m`
/// (α and α* share each value) and a B-row batch `B·m`; a gathered SVR
/// row costs exactly its distinct samples. The size spans several
/// parallel chunks of the fill.
#[test]
fn row_fills_cost_one_kernel_evaluation_per_distinct_sample() {
    let n = 1100;
    let x = points(0xC0_FFEE, n, 3);
    let k = CountingKernel { inner: RbfKernel::new(0.8), evals: AtomicUsize::new(0) };
    let all: Vec<usize> = (0..n).collect();
    let kq = KernelQ::<[f64], _, _>::new(&k, &x, None);
    fill(&kq, &[17], &all);
    assert_eq!(k.take(), n, "full KernelQ row");
    let batch = [0, 5, 5, 999, n - 1];
    fill(&kq, &batch, &all);
    assert_eq!(k.take(), batch.len() * n, "B-row KernelQ batch");

    let m = n;
    let all2: Vec<usize> = (0..2 * m).collect();
    let sq = SvrQ::<[f64], _, _>::new(&k, &x);
    fill(&sq, &[m + 17], &all2);
    assert_eq!(k.take(), m, "full SvrQ row over 2m columns");
    let batch2 = [0, m, 3, 2 * m - 1, 640];
    fill(&sq, &batch2, &all2);
    assert_eq!(k.take(), batch2.len() * m, "B-row SvrQ batch");
    // The same row through the cache: one miss, m evaluations.
    let mut cached = CachedQ::new(SvrQ::<[f64], _, _>::new(&k, &x), 1 << 20);
    k.take();
    cached.row_prefix(m + 17, 2 * m);
    assert_eq!(k.take(), m, "cached full SvrQ row");

    // Gathered SVR rows over shuffled column subsets, where `u` and
    // `u + m` often both appear.
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    for _ in 0..20 {
        let mut cols = all2.clone();
        for t in (1..cols.len()).rev() {
            cols.swap(t, next() % (t + 1));
        }
        cols.truncate(1 + next() % (2 * m));
        let mut distinct: Vec<usize> = cols.iter().map(|&u| u % m).collect();
        distinct.sort_unstable();
        distinct.dedup();
        fill(&sq, &[next() % (2 * m)], &cols);
        assert_eq!(k.take(), distinct.len(), "gathered SvrQ row over {} columns", cols.len());
    }
}

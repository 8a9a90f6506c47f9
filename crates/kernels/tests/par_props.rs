//! Property tests pinning the determinism guarantee of the parallel
//! Gram builders: `gram_matrix` and `gram_row` must be **bitwise**
//! identical to serial reference loops for any input.
//!
//! `edm-par` forks only when the work left on the calling thread is
//! estimated to outweigh a fork, so cheap kernels on these sizes may
//! stay serial. `spinning_kernel_forks_and_stays_bitwise_serial` wraps
//! the kernel in a test-only [`SpinKernel`] that spends about 1 µs per
//! evaluation, which makes every band and row chunk cost far more
//! than a fork: that case is certain to run the forked path (under the
//! default `parallel` feature) and checks that it did.

use edm_kernels::{gram_matrix, gram_row, Kernel, LinearKernel, RbfKernel};
use edm_linalg::Matrix;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The pre-tiling row-sharded Gram builder: one `for_each_row`
/// dispatch per output row, each streaming the whole sample set, then
/// an element-wise mirror. It is the reference the tiled
/// builder must match bitwise.
fn gram_matrix_rows(kernel: &RbfKernel, items: &[Vec<f64>]) -> Matrix {
    let n = items.len();
    let mut g = Matrix::zeros(n, n);
    if n == 0 {
        return g;
    }
    // Each worker fills columns i..n of its own row i.
    edm_par::for_each_row(g.as_mut_slice(), n, |i, row| {
        for (j, slot) in row.iter_mut().enumerate().skip(i) {
            *slot = kernel.eval(&items[i], &items[j]);
        }
    });
    for i in 1..n {
        for j in 0..i {
            g[(i, j)] = g[(j, i)];
        }
    }
    g
}

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

/// Serial reference: upper triangle evaluated in the same (i, j) order
/// as the parallel builder, then mirrored.
fn gram_serial<K: Kernel<[f64]>>(kernel: &K, items: &[Vec<f64>]) -> Vec<u64> {
    let n = items.len();
    let mut g = vec![0.0f64; n * n];
    for i in 0..n {
        for j in i..n {
            g[i * n + j] = kernel.eval(&items[i], &items[j]);
        }
    }
    for i in 1..n {
        for j in 0..i {
            g[i * n + j] = g[j * n + i];
        }
    }
    g.iter().map(|v| v.to_bits()).collect()
}

/// Test-only kernel wrapper that busy-waits about 1 µs before each
/// evaluation, then returns exactly what the wrapped kernel does.
struct SpinKernel<K>(K);

impl<K: Kernel<[f64]>> Kernel<[f64]> for SpinKernel<K> {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_micros(1) {
            std::hint::spin_loop();
        }
        self.0.eval(a, b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn parallel_gram_matrix_is_bitwise_serial(
        seed in 0u64..1_000_000,
        n in 64usize..72,
        gamma in 0.2f64..2.0,
    ) {
        let pts = points(seed, n, 3);
        let k = RbfKernel::new(gamma);
        let g = gram_matrix(&k, &pts);
        let got: Vec<u64> = (0..n)
            .flat_map(|i| g.row(i).iter().map(|v| v.to_bits()))
            .collect();
        prop_assert_eq!(got, gram_serial(&k, &pts));
    }

    #[test]
    fn parallel_gram_row_is_bitwise_serial(seed in 0u64..1_000_000) {
        // 4200 cheap items: may stay on the caller (see the spinning
        // case below for the forked path).
        let pts = points(seed, 4200, 2);
        let probe = points(seed ^ 0x5151, 1, 2).pop().expect("one point");
        let k = LinearKernel::new();
        let row = gram_row(&k, probe.as_slice(), &pts);
        let want: Vec<u64> = pts
            .iter()
            .map(|p| k.eval(&probe, p).to_bits())
            .collect();
        prop_assert_eq!(
            row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            want
        );
    }

    /// Ragged sizes straddling the tile geometry (n below one band,
    /// one past a boundary, not a multiple of the column tile) and the
    /// degenerate d = 1 must all reproduce the naive reference.
    #[test]
    fn tiled_gram_matrix_handles_ragged_sizes(
        seed in 0u64..1_000_000,
        n in 1usize..140,
        d in 1usize..4,
        gamma in 0.2f64..2.0,
    ) {
        let pts = points(seed, n, d);
        let k = RbfKernel::new(gamma);
        let g = gram_matrix(&k, &pts);
        let got: Vec<u64> = (0..n)
            .flat_map(|i| g.row(i).iter().map(|v| v.to_bits()))
            .collect();
        prop_assert_eq!(got, gram_serial(&k, &pts));
    }

    /// The row-sharded reference and the tiled builder fill
    /// every cell with the same lone `kernel.eval` (or its mirror), so
    /// their outputs must be bitwise interchangeable.
    #[test]
    fn tiled_gram_matches_row_sharded_reference(
        seed in 0u64..1_000_000,
        n in 1usize..90,
        gamma in 0.2f64..2.0,
    ) {
        let pts = points(seed, n, 3);
        let k = RbfKernel::new(gamma);
        let tiled = gram_matrix(&k, &pts);
        let sharded = gram_matrix_rows(&k, &pts);
        let tb: Vec<u64> = (0..n)
            .flat_map(|i| tiled.row(i).iter().map(|v| v.to_bits()))
            .collect();
        let sb: Vec<u64> = (0..n)
            .flat_map(|i| sharded.row(i).iter().map(|v| v.to_bits()))
            .collect();
        prop_assert_eq!(tb, sb);
    }

    /// The forked path, made certain: with two workers, ~1 µs per
    /// evaluation puts each Gram band (64 rows) and each 512-item row
    /// chunk well past the fork cost, so both calls fork after their
    /// first job — and must still match the serial references bitwise.
    #[test]
    #[cfg_attr(not(feature = "parallel"), ignore = "needs the parallel feature")]
    fn spinning_kernel_forks_and_stays_bitwise_serial(
        seed in 0u64..1_000_000,
        gamma in 0.2f64..2.0,
    ) {
        std::env::set_var("EDM_NUM_THREADS", "2");
        edm_trace::set_level(edm_trace::Level::Summary);
        let forks = || edm_trace::collect().counter("par.forks");
        let before = forks();

        let pts = points(seed, 200, 3);
        let k = RbfKernel::new(gamma);
        let g = gram_matrix(&SpinKernel(k), &pts);
        let got: Vec<u64> = (0..200)
            .flat_map(|i| g.row(i).iter().map(|v| v.to_bits()))
            .collect();
        prop_assert_eq!(got, gram_serial(&k, &pts));

        let items = points(seed ^ 0x7777, 4200, 2);
        let probe = points(seed ^ 0x5151, 1, 2).pop().expect("one point");
        let lin = LinearKernel::new();
        let row = gram_row(&SpinKernel(lin), probe.as_slice(), &items);
        let want: Vec<u64> = items.iter().map(|p| lin.eval(&probe, p).to_bits()).collect();
        prop_assert_eq!(row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);

        if cfg!(feature = "trace") {
            let forked = forks() - before;
            prop_assert!(forked >= 2, "both calls must fork, saw {} forks", forked);
        }
    }
}

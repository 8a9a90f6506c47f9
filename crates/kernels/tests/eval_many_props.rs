//! `Kernel::eval_many` must return, for every kernel, exactly what
//! `Kernel::eval` returns pair by pair: `out[t]` bitwise equal to
//! `eval(a, bs[t])` for any batch length (so every lane-group
//! remainder is hit), and a panic wherever `eval` panics, with the
//! same message.
//!
//! The forwarding cases guard the silent fallback: a wrapper that
//! forgets to forward `eval_many` still returns the right values (the
//! per-pair default), only slower, so they count the override's calls
//! instead of comparing values.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

use edm_kernels::{
    gram_matrix, gram_row, AnyKernel, Chi2Kernel, HistogramIntersectionKernel, Kernel,
    LinearKernel, NormalizedKernel, PolyKernel, ProductKernel, RbfKernel, ScaledKernel,
    SigmoidKernel, SpectrumKernel, SumKernel,
};
use proptest::prelude::*;

/// Deterministic SplitMix64 rows in `[-1, 1)` (`[0, 1)` when
/// `nonneg`), with every seventh value a signed zero and every
/// eleventh row a copy of row 0, so ties and `±0` reach every lane.
fn rows(seed: u64, n: usize, d: usize, nonneg: bool) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        z
    };
    let mut out: Vec<Vec<f64>> = (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    let z = next();
                    let v = (z >> 11) as f64 / (1u64 << 53) as f64;
                    match (z % 7, nonneg) {
                        (0, _) if z & 1 == 0 => 0.0,
                        (0, false) => -0.0,
                        (_, true) => v,
                        (_, false) => 2.0 * v - 1.0,
                    }
                })
                .collect()
        })
        .collect();
    for t in (11..n).step_by(11) {
        out[t] = out[0].clone();
    }
    out
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `eval_many(a, bs)` is bitwise `eval(a, b)` per `b`.
fn assert_matches_eval<S: ?Sized, K: Kernel<S> + ?Sized>(name: &str, k: &K, a: &S, bs: &[&S]) {
    let mut out = vec![f64::NAN; bs.len()];
    k.eval_many(a, bs, &mut out);
    let want: Vec<f64> = bs.iter().map(|b| k.eval(a, b)).collect();
    assert_eq!(bits(&out), bits(&want), "{name}, {} samples", bs.len());
}

/// A kernel under test: its name, the kernel, and the input domain it
/// is checked on (`true`: non-negative histograms).
type Case = (&'static str, Box<dyn Kernel<[f64]>>, bool);

/// Every vector kernel, composite and `AnyKernel` variant.
fn vector_kernels(gamma: f64) -> Vec<Case> {
    let rbf = RbfKernel::new(gamma);
    let lin = LinearKernel::new();
    let poly = PolyKernel::new(3, gamma, 0.5);
    let sig = SigmoidKernel::new(gamma, -0.25);
    let hi = HistogramIntersectionKernel::new();
    let chi2 = Chi2Kernel::new(gamma);
    vec![
        ("linear", Box::new(lin), false),
        ("poly", Box::new(poly), false),
        ("rbf", Box::new(rbf), false),
        ("sigmoid", Box::new(sig), false),
        ("hi", Box::new(hi), true),
        ("chi2", Box::new(chi2), true),
        ("sum", Box::new(SumKernel::new(rbf, lin)), false),
        ("product", Box::new(ProductKernel::new(poly, hi)), true),
        ("scaled", Box::new(ScaledKernel::new(rbf, 2.5)), false),
        ("normalized", Box::new(NormalizedKernel::new(poly)), false),
        ("any linear", Box::new(AnyKernel::from(lin)), false),
        ("any poly", Box::new(AnyKernel::from(poly)), false),
        ("any rbf", Box::new(AnyKernel::from(rbf)), false),
        ("any sigmoid", Box::new(AnyKernel::from(sig)), false),
        ("any hi", Box::new(AnyKernel::from(hi)), true),
        ("any chi2", Box::new(AnyKernel::from(chi2)), true),
    ]
}

/// The message of a caught panic.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => {
            p.downcast::<&str>().map_or_else(|_| "<non-string panic>".into(), |s| s.to_string())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every vector kernel, as a trait object, by reference and as a
    /// borrowed kernel: all batch lengths 0–19 and widths 0–6.
    #[test]
    fn vector_kernels_eval_many_is_bitwise_eval(
        seed in 0u64..1_000_000,
        d in 0usize..7,
        gamma in 0.05f64..3.0,
    ) {
        for (nonneg, data) in [false, true].map(|nn| (nn, rows(seed, 20, d, nn))) {
            let (a, rest) = data.split_first().expect("20 rows");
            for (name, k, domain) in vector_kernels(gamma) {
                if domain != nonneg {
                    continue;
                }
                for len in 0..=rest.len() {
                    let bs: Vec<&[f64]> = rest[..len].iter().map(Vec::as_slice).collect();
                    assert_matches_eval(name, k.as_ref(), a, &bs);
                    assert_matches_eval(name, &k.as_ref(), a, &bs);
                }
            }
        }
        // Concrete borrowed kernels (`&K` over a sized kernel).
        let data = rows(seed ^ 0xB0B, 20, d, false);
        let (a, rest) = data.split_first().expect("20 rows");
        let bs: Vec<&[f64]> = rest.iter().map(Vec::as_slice).collect();
        let rbf = RbfKernel::new(gamma);
        assert_matches_eval("&rbf", &&rbf, a, &bs);
        assert_matches_eval("&&rbf", &&&rbf, a, &bs);
        assert_matches_eval("&sum", &&SumKernel::new(rbf, LinearKernel::new()), a, &bs);
    }

    /// The spectrum kernel (plain, length-weighted and normalized) over
    /// token sequences of varying lengths.
    #[test]
    fn spectrum_eval_many_is_bitwise_eval(
        seed in 0u64..1_000_000,
        n in 1usize..4,
    ) {
        let seqs: Vec<Vec<u8>> = rows(seed, 20, 12, true)
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.iter().take(i % 12).map(|v| (v * 4.0) as u8).collect())
            .collect();
        let (a, rest) = seqs.split_first().expect("20 sequences");
        let plain = SpectrumKernel::new(n);
        let weighted = SpectrumKernel::weighted(n, 0.5);
        let normalized = NormalizedKernel::new(plain);
        for len in 0..=rest.len() {
            let bs: Vec<&[u8]> = rest[..len].iter().map(Vec::as_slice).collect();
            assert_matches_eval("spectrum", &plain, a.as_slice(), &bs);
            assert_matches_eval("weighted spectrum", &weighted, a.as_slice(), &bs);
            assert_matches_eval("normalized spectrum", &normalized, a.as_slice(), &bs);
            assert_matches_eval("&spectrum", &&plain, a.as_slice(), &bs);
        }
    }
}

/// A sample of the wrong width panics in `eval_many` exactly when and
/// as `eval` does, wherever it sits in the batch (inside a lane group
/// or in the tail).
#[test]
fn mismatched_widths_panic_as_eval_does() {
    let data = rows(7, 20, 4, true);
    let (a, rest) = data.split_first().expect("20 rows");
    let short = [0.5; 3];
    for (name, k, _) in vector_kernels(0.7) {
        let want = catch_unwind(AssertUnwindSafe(|| k.eval(a, &short)))
            .map_err(panic_message)
            .expect_err(name);
        for at in [0, 3, 7, 8, 15, 16, 18] {
            let mut bs: Vec<&[f64]> = rest.iter().map(Vec::as_slice).collect();
            bs[at] = &short;
            let mut out = vec![0.0; bs.len()];
            let got = catch_unwind(AssertUnwindSafe(|| k.eval_many(a, &bs, &mut out)))
                .map_err(panic_message)
                .expect_err(name);
            assert_eq!(got, want, "{name}, short sample at {at}");
        }
    }
}

/// `out` must have one slot per sample.
#[test]
#[should_panic(expected = "one output slot per sample")]
fn short_output_panics() {
    let a = [1.0, 2.0];
    let bs: Vec<&[f64]> = vec![&a; 9];
    RbfKernel::new(1.0).eval_many(&a, &bs, &mut [0.0; 8]);
}

/// Linear kernel that counts the calls reaching its `eval_many`
/// override.
#[derive(Default)]
struct ProbeKernel {
    many_calls: AtomicUsize,
}

impl Kernel<[f64]> for ProbeKernel {
    fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        LinearKernel::new().eval(a, b)
    }

    fn eval_many(&self, a: &[f64], bs: &[&[f64]], out: &mut [f64]) {
        self.many_calls.fetch_add(1, Ordering::Relaxed);
        LinearKernel::new().eval_many(a, bs, out);
    }
}

impl ProbeKernel {
    /// Override calls since the last call.
    fn take(&self) -> usize {
        self.many_calls.swap(0, Ordering::Relaxed)
    }
}

fn score<K: Kernel<[f64]>>(k: K, a: &[f64], bs: &[&[f64]]) {
    k.eval_many(a, bs, &mut vec![0.0; bs.len()]);
}

/// Borrowed and type-erased kernels reach the override, and so does
/// every Gram builder.
#[test]
fn eval_many_overrides_are_reached_through_wrappers_and_builders() {
    let probe = ProbeKernel::default();
    let data = rows(3, 40, 3, false);
    let bs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
    score(&probe, &data[0], &bs);
    assert_eq!(probe.take(), 1, "&K");
    score(&probe as &dyn Kernel<[f64]>, &data[0], &bs);
    assert_eq!(probe.take(), 1, "&dyn Kernel");

    let _ = gram_row(&probe, &data[0], &data);
    assert_eq!(probe.take(), 1, "gram_row: one call per 512-sample chunk");
    let _ = gram_matrix(&probe, &data);
    assert_eq!(probe.take(), 40, "gram_matrix: one call per row per panel");
}

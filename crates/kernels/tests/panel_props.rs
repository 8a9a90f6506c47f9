//! `Kernel::eval_panel` must return, for every kernel that packs a lane
//! panel, exactly what `Kernel::eval` returns pair by pair:
//! `out[t]` bitwise equal to `eval(a, items[cols.start + t])` for any
//! run of the packed items, including runs that start or end inside a
//! lane group, item counts that are not a multiple of `LANES`, zero
//! features, signed zeros and NaNs; and a panic wherever `eval` panics
//! on a width mismatch, with the same message.
//!
//! The kernels that pack (linear, polynomial, RBF, sigmoid, histogram
//! intersection) do so also as `AnyKernel`, by reference and as trait
//! objects; χ², composite and sequence kernels pack nothing and keep
//! scoring pair by pair.

use std::panic::{catch_unwind, AssertUnwindSafe};

use edm_kernels::{
    AnyKernel, Chi2Kernel, HistogramIntersectionKernel, Kernel, LinearKernel, NormalizedKernel,
    PolyKernel, RbfKernel, ScaledKernel, SigmoidKernel, SpectrumKernel, SumKernel,
};
use proptest::prelude::*;

/// Deterministic rows in `[-1, 1)` (`[0, 1)` when `nonneg`) where a
/// value is a signed zero one time in seven and NaN one time in
/// `nan_every` (never when `nan_every == 0`).
fn rows(seed: u64, n: usize, d: usize, nonneg: bool, nan_every: u64) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| {
            (0..d)
                .map(|_| {
                    let z = next();
                    let v = (z >> 11) as f64 / (1u64 << 53) as f64;
                    if nan_every > 0 && z % nan_every == 1 {
                        f64::NAN
                    } else if z % 7 == 0 {
                        if z & 8 == 0 {
                            0.0
                        } else {
                            -0.0
                        }
                    } else if nonneg {
                        v
                    } else {
                        2.0 * v - 1.0
                    }
                })
                .collect()
        })
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A packing kernel under test: its name, the kernel, and its input
/// domain (`true`: non-negative histograms).
type Case = (&'static str, Box<dyn Kernel<[f64]>>, bool);

/// A kernel under test and its name.
type Named = (&'static str, Box<dyn Kernel<[f64]>>);

fn packing_kernels(gamma: f64) -> Vec<Case> {
    let rbf = RbfKernel::new(gamma);
    let lin = LinearKernel::new();
    let poly = PolyKernel::new(3, gamma, 0.5);
    let sig = SigmoidKernel::new(gamma, -0.25);
    let hi = HistogramIntersectionKernel::new();
    vec![
        ("linear", Box::new(lin), false),
        ("poly", Box::new(poly), false),
        ("rbf", Box::new(rbf), false),
        ("sigmoid", Box::new(sig), false),
        ("hi", Box::new(hi), true),
        ("any linear", Box::new(AnyKernel::from(lin)), false),
        ("any poly", Box::new(AnyKernel::from(poly)), false),
        ("any rbf", Box::new(AnyKernel::from(rbf)), false),
        ("any sigmoid", Box::new(AnyKernel::from(sig)), false),
        ("any hi", Box::new(AnyKernel::from(hi)), true),
    ]
}

/// Packs `items` with `k` and checks `eval_panel` over `cols` against
/// `eval` per item.
fn assert_panel_matches_eval<K: Kernel<[f64]> + ?Sized>(
    name: &str,
    k: &K,
    a: &[f64],
    items: &[Vec<f64>],
    cols: std::ops::Range<usize>,
) {
    let refs: Vec<&[f64]> = items.iter().map(Vec::as_slice).collect();
    let panel = k.pack_panel(&refs).unwrap_or_else(|| panic!("{name} packs"));
    let mut out = vec![f64::NAN; cols.len()];
    k.eval_panel(a, &panel, cols.clone(), &mut out);
    let want: Vec<f64> = items[cols.clone()].iter().map(|b| k.eval(a, b)).collect();
    assert_eq!(bits(&out), bits(&want), "{name}, {} items, columns {cols:?}", items.len());
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

    /// Every packing kernel, as a trait object and by reference, over
    /// every run `s..e` of 0–26 items of width 0–6, with NaNs in one
    /// case in three.
    #[test]
    fn panel_scoring_is_bitwise_eval(
        seed in 0u64..1_000_000,
        n in 0usize..27,
        d in 0usize..7,
        gamma in 0.05f64..3.0,
    ) {
        let nan_every = if seed % 3 == 0 { 5 } else { 0 };
        for nonneg in [false, true] {
            let items = rows(seed, n, d, nonneg, nan_every);
            let a = &rows(seed ^ 0xA, 1, d, nonneg, nan_every)[0];
            for (name, k, domain) in packing_kernels(gamma) {
                if domain != nonneg {
                    continue;
                }
                for s in 0..=n {
                    for e in s..=n {
                        assert_panel_matches_eval(name, k.as_ref(), a, &items, s..e);
                        assert_panel_matches_eval(name, &k.as_ref(), a, &items, s..e);
                    }
                }
            }
        }
        // Concrete borrowed kernels (`&K` over a sized kernel).
        let items = rows(seed ^ 0xB0B, n, d, false, nan_every);
        let a = &rows(seed ^ 0xC, 1, d, false, nan_every)[0];
        let rbf = RbfKernel::new(gamma);
        assert_panel_matches_eval("&rbf", &&rbf, a, &items, 0..n);
        assert_panel_matches_eval("&&rbf", &&&rbf, a, &items, n / 3..n);
    }
}

/// A probe of the wrong width panics in `eval_panel` as `eval` does;
/// an empty run scores nothing and so does not panic.
#[test]
fn width_mismatch_panics_as_eval_does() {
    let items = rows(7, 19, 4, true, 0);
    let refs: Vec<&[f64]> = items.iter().map(Vec::as_slice).collect();
    let short = [0.5; 3];
    for (name, k, _) in packing_kernels(0.7) {
        let panel = k.pack_panel(&refs).expect("packs");
        let want = catch_unwind(AssertUnwindSafe(|| k.eval(&short, &items[0])))
            .map_err(panic_message)
            .expect_err(name);
        for cols in [0..19, 3..5, 16..19] {
            let mut out = vec![0.0; cols.len()];
            let got =
                catch_unwind(AssertUnwindSafe(|| k.eval_panel(&short, &panel, cols, &mut out)))
                    .map_err(panic_message)
                    .expect_err(name);
            assert_eq!(got, want, "{name}");
        }
        k.eval_panel(&short, &panel, 4..4, &mut []);
    }
}

/// Ragged items pack into no panel, and kernels without a lane form
/// pack nothing, so their callers keep the per-pair path.
#[test]
fn only_dense_lane_kernels_pack() {
    let items = rows(3, 10, 3, true, 0);
    let refs: Vec<&[f64]> = items.iter().map(Vec::as_slice).collect();
    for (name, k, _) in packing_kernels(0.5) {
        assert!(k.pack_panel(&refs).is_some(), "{name}");
        let ragged: Vec<&[f64]> = vec![&items[0], &items[1][..2]];
        assert!(k.pack_panel(&ragged).is_none(), "{name} over ragged items");
    }
    let rbf = RbfKernel::new(0.5);
    let none: Vec<Named> = vec![
        ("chi2", Box::new(Chi2Kernel::new(0.5))),
        ("any chi2", Box::new(AnyKernel::from(Chi2Kernel::new(0.5)))),
        ("sum", Box::new(SumKernel::new(rbf, LinearKernel::new()))),
        ("scaled", Box::new(ScaledKernel::new(rbf, 2.0))),
        ("normalized", Box::new(NormalizedKernel::new(rbf))),
    ];
    for (name, k) in none {
        assert!(k.pack_panel(&refs).is_none(), "{name}");
    }
    let seqs: Vec<&[u8]> = vec![&[1, 2, 3], &[2, 3]];
    assert!(SpectrumKernel::new(2).pack_panel(&seqs).is_none(), "spectrum");
}

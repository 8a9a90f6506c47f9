//! `SvModel::decision_function` scores its support vectors 64 at a
//! time: through `Kernel::eval_panel` over the lane panel every
//! constructor packs, or through `Kernel::eval_many` for a kernel that
//! packs none (χ²). It must stay bitwise equal to the per-pair
//! expansion `Σᵢ cᵢ·k(x, xᵢ) − ρ` summed in support-vector order, for
//! every family and every kernel, at support-vector counts on both
//! sides of each lane group (8) and chunk (64) boundary, and for models
//! reloaded from a saved container (kernel as `AnyKernel`), whose
//! panels are packed again by the loader; batched and scalar
//! predictions agree bit for bit, before and after the round trip.

use edm::kernels::{
    AnyKernel, Chi2Kernel, HistogramIntersectionKernel, Kernel, LinearKernel, PolyKernel,
    RbfKernel, SigmoidKernel,
};
use edm::svm::{CacheStats, OneClass, SvFamily, SvModel, Svc, Svr};
use edm::{load_predictor_from_bytes, PersistentPredictor};

const N_SV: [usize; 9] = [0, 1, 7, 8, 9, 63, 64, 65, 200];
const D: usize = 5;

/// Deterministic SplitMix64 rows in `[-1, 1)`, or `[0, 1)` for the
/// histogram kernels.
fn rows(seed: u64, n: usize, d: usize, nonneg: bool) -> Vec<Vec<f64>> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let v = (z >> 11) as f64 / (1u64 << 53) as f64;
        if nonneg {
            v
        } else {
            2.0 * v - 1.0
        }
    };
    (0..n).map(|_| (0..d).map(|_| next()).collect()).collect()
}

/// The decision value as the model computed it before batched
/// scoring: one `eval` per support vector, summed by `.sum()`.
fn oracle<K: Kernel<[f64]>>(k: &K, support: &[Vec<f64>], coef: &[f64], rho: f64, x: &[f64]) -> f64 {
    let s: f64 = support.iter().zip(coef).map(|(sv, &c)| c * k.eval(x, sv)).sum();
    s - rho
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Checks one family and kernel at every support-vector count: the
/// concrete model, the same parts over `AnyKernel`, and the saved and
/// reloaded model (whose `predict_batch` is the family's output of
/// the decision value — the value itself for SVR).
fn check<F: SvFamily, K>(name: &str, kernel: K, nonneg: bool)
where
    K: Kernel<[f64]> + Clone,
    AnyKernel: From<K>,
{
    for (case, &n_sv) in N_SV.iter().enumerate() {
        let seed = 0x5EED ^ ((case as u64) << 8) ^ n_sv as u64;
        let support = rows(seed, n_sv, D, nonneg);
        let coef: Vec<f64> = rows(seed ^ 1, n_sv, 1, false).into_iter().map(|r| r[0]).collect();
        // ρ = 0 keeps the sign of an empty sum (`-0.0`) visible.
        let rho = if case % 3 == 0 { 0.0 } else { rows(seed ^ 2, 1, 1, false)[0][0] };
        let probes = rows(seed ^ 3, 16, D, nonneg);
        let want: Vec<f64> =
            probes.iter().map(|x| oracle(&kernel, &support, &coef, rho, x)).collect();
        let parts = || (D, support.clone(), coef.clone(), rho, 0, CacheStats::default());

        let (d, s, c, r, it, cs) = parts();
        let concrete = SvModel::<K, F>::from_parts(kernel.clone(), d, s, c, r, it, cs);
        let (d, s, c, r, it, cs) = parts();
        let any = SvModel::<AnyKernel, F>::from_parts(kernel.clone().into(), d, s, c, r, it, cs);
        let one_by_one: Vec<f64> = probes.iter().map(|x| concrete.decision_function(x)).collect();
        assert_eq!(bits(&one_by_one), bits(&want), "{name} {}: n_sv {n_sv}", F::TAG);
        assert_eq!(
            bits(&concrete.decision_function_batch(&probes)),
            bits(&want),
            "{name} {} batch: n_sv {n_sv}",
            F::TAG
        );
        assert_eq!(
            bits(&any.decision_function_batch(&probes)),
            bits(&want),
            "{name} {} as AnyKernel: n_sv {n_sv}",
            F::TAG
        );

        let want_out: Vec<f64> = want.iter().map(|&v| F::output(v)).collect();
        let scalar: Vec<f64> = probes.iter().map(|x| concrete.predict(x)).collect();
        assert_eq!(bits(&scalar), bits(&want_out), "{name} {} predict: n_sv {n_sv}", F::TAG);
        assert_eq!(
            bits(&concrete.predict_batch(&probes)),
            bits(&want_out),
            "{name} {} predict_batch: n_sv {n_sv}",
            F::TAG
        );

        let mut bytes = Vec::new();
        concrete.save(&mut bytes).expect("in-memory save cannot fail");
        let loaded = load_predictor_from_bytes(&bytes).expect("fresh container loads");
        let got = loaded.model.predict_batch(&probes).expect("probes have the model's width");
        assert_eq!(bits(&got), bits(&want_out), "{name} {} reloaded: n_sv {n_sv}", F::TAG);
        for (x, &w) in probes.iter().zip(&want_out) {
            let one = loaded.model.predict_batch(std::slice::from_ref(x)).expect("one probe");
            assert_eq!(bits(&one), bits(&[w]), "{name} {} reloaded scalar: n_sv {n_sv}", F::TAG);
        }
    }
}

fn check_every_kernel<F: SvFamily>() {
    check::<F, _>("linear", LinearKernel::new(), false);
    check::<F, _>("poly", PolyKernel::new(3, 0.4, 0.5), false);
    check::<F, _>("rbf", RbfKernel::new(0.7), false);
    check::<F, _>("sigmoid", SigmoidKernel::new(0.3, -0.25), false);
    check::<F, _>("hi", HistogramIntersectionKernel::new(), true);
    check::<F, _>("chi2", Chi2Kernel::new(1.5), true);
    check::<F, _>("any rbf", AnyKernel::from(RbfKernel::new(0.7)), false);
}

#[test]
fn svc_decision_function_is_the_per_pair_sum() {
    check_every_kernel::<Svc>();
}

#[test]
fn svr_decision_function_is_the_per_pair_sum() {
    check_every_kernel::<Svr>();
}

#[test]
fn one_class_decision_function_is_the_per_pair_sum() {
    check_every_kernel::<OneClass>();
}

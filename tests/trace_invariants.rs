//! Property tests of the telemetry layer's core contract: probes
//! observe, they never perturb. Training any learner with tracing at
//! `full` must produce a bitwise-identical model to training at `off`
//! — not epsilon-close, identical, because the probes only read values
//! the algorithms already computed and never reorder a floating-point
//! operation.
//!
//! The trace level and registry are process-global, so every test
//! that sets the level holds `LEVEL_LOCK`: the `off` test below must
//! not see probes recorded while another test runs at `full`.

use std::sync::{Mutex, MutexGuard, PoisonError};

use proptest::prelude::*;

use edm::trace::Level;

static LEVEL_LOCK: Mutex<()> = Mutex::new(());

fn lock_level() -> MutexGuard<'static, ()> {
    LEVEL_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn small_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0..5.0f64, len)
}

fn point_cloud(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(small_vec(d), n)
}

/// Runs `f` twice — once at `off`, once at `full` — and returns both
/// results, leaving the level at `off` afterwards.
fn at_both_levels<T>(mut f: impl FnMut() -> T) -> (T, T) {
    let _level = lock_level();
    edm::trace::set_level(Level::Off);
    let off = f();
    edm::trace::set_level(Level::Full);
    let full = f();
    edm::trace::set_level(Level::Off);
    (off, full)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn svc_model_is_bitwise_identical_at_any_trace_level(
        pts in point_cloud(20, 3),
        gamma in 0.1..2.0f64,
    ) {
        use edm::kernels::RbfKernel;
        use edm::svm::{SvcParams, SvcTrainer};
        // Deterministic, class-balanced labels by x0 sign shift.
        let mut x = pts.clone();
        let y: Vec<f64> =
            (0..x.len()).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        for (xi, &yi) in x.iter_mut().zip(&y) {
            xi[0] += yi * 2.0;
        }
        let trainer = SvcTrainer::new(SvcParams::default()).kernel(RbfKernel::new(gamma));
        let (off, full) = at_both_levels(|| trainer.fit(&x, &y).unwrap());
        prop_assert_eq!(off.iterations(), full.iterations());
        prop_assert_eq!(off.rho().to_bits(), full.rho().to_bits());
        prop_assert_eq!(off.support_vectors(), full.support_vectors());
        for p in &x {
            prop_assert_eq!(
                off.decision_function(p).to_bits(),
                full.decision_function(p).to_bits()
            );
        }
    }

    #[test]
    fn svr_model_is_bitwise_identical_at_any_trace_level(
        pts in point_cloud(16, 2),
        gamma in 0.1..2.0f64,
    ) {
        use edm::kernels::RbfKernel;
        use edm::svm::{SvrParams, SvrTrainer};
        let y: Vec<f64> = pts.iter().map(|p| (p[0] * 0.7).sin() + p[1] * 0.1).collect();
        let trainer = SvrTrainer::new(SvrParams::default().with_c(5.0).with_epsilon(0.05))
            .kernel(RbfKernel::new(gamma));
        let (off, full) = at_both_levels(|| trainer.fit(&pts, &y).unwrap());
        prop_assert_eq!(off.iterations(), full.iterations());
        for p in &pts {
            prop_assert_eq!(off.predict(p).to_bits(), full.predict(p).to_bits());
        }
    }

    #[test]
    fn kmeans_result_is_bitwise_identical_at_any_trace_level(
        pts in point_cloud(24, 3),
        seed in 0u64..1024,
        k in 1usize..5,
    ) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (off, full) = at_both_levels(|| {
            edm::cluster::kmeans::kmeans(&pts, k, 50, &mut StdRng::seed_from_u64(seed)).unwrap()
        });
        // KMeansResult's PartialEq covers labels, centroids (exact f64
        // equality), inertia, and iteration count.
        prop_assert_eq!(off, full);
    }
}

/// At `off`, a full SVC fit records nothing: no span, counter or
/// histogram series, and no ring event, kept or dropped.
#[test]
fn svc_fit_at_off_leaves_no_trace() {
    use edm::kernels::RbfKernel;
    use edm::svm::{SvcParams, SvcTrainer};
    let x: Vec<Vec<f64>> = (0..40)
        .map(|i| vec![(i % 7) as f64 * 0.3, (i % 5) as f64 * 0.4 + (i % 2) as f64])
        .collect();
    let y: Vec<f64> = (0..40).map(|i| if i % 2 == 0 { -1.0 } else { 1.0 }).collect();

    let _level = lock_level();
    edm::trace::set_level(Level::Off);
    edm::trace::reset();
    let model = SvcTrainer::new(SvcParams::default()).kernel(RbfKernel::new(0.5)).fit(&x, &y);
    assert!(model.expect("svc trains").iterations() > 0);
    let report = edm::trace::collect();
    assert_eq!(report.level, "off");
    assert!(report.spans.is_empty(), "spans at off: {:?}", report.spans);
    assert!(report.counters.is_empty(), "counters at off: {:?}", report.counters);
    assert!(report.histograms.is_empty(), "histograms at off: {:?}", report.histograms);
    assert!(report.timeline.is_empty(), "ring events at off: {}", report.timeline.len());
    assert_eq!(report.dropped_events, 0);
}

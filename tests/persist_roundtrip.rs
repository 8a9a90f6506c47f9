//! Persistence contract tests: `save → load → predict` is bitwise
//! identical for every model family, and corrupted containers fail
//! with typed [`edm::Error::ModelIo`] variants instead of garbage
//! models.

use edm::model_io::IoError;
use edm::{fit_family, load_predictor_from_bytes, Error, FAMILIES};
use proptest::prelude::*;

/// Training targets that satisfy every family: regressors see the
/// continuous values, classifier families (svc, knn_classifier,
/// random_forest) truncate them to i32 labels, so keeping them at
/// exactly ±1.0 gives two well-formed classes.
fn labels(n: usize) -> Vec<f64> {
    (0..n).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect()
}

fn save_to_vec(model: &dyn edm::PersistentPredictor) -> Vec<u8> {
    let mut bytes = Vec::new();
    model.save(&mut bytes).expect("in-memory save cannot fail");
    bytes
}

fn feature_rows(n: usize, d: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(-5.0..5.0f64, d), n)
}

proptest! {
    // Each case fits, saves, and reloads all nine families; a handful
    // of cases already exercises the full byte layout.
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn save_load_predict_is_bitwise_identical_for_every_family(
        x in feature_rows(12, 3),
        probes in feature_rows(5, 3),
    ) {
        let y = labels(x.len());
        for family in FAMILIES {
            // Separate labels from features so svc always sees both
            // classes regardless of the sampled geometry.
            let model = match fit_family(family, &x, &y) {
                Ok(m) => m,
                // Degenerate samples (e.g. duplicate points) may
                // legitimately fail to train; the persistence contract
                // only covers models that exist.
                Err(_) => continue,
            };
            let bytes = save_to_vec(model.as_ref());
            let loaded = load_predictor_from_bytes(&bytes)
                .unwrap_or_else(|e| panic!("{family}: fresh container failed to load: {e}"));
            prop_assert_eq!(loaded.model.name(), model.name());
            prop_assert_eq!(loaded.model.n_features(), model.n_features());
            let direct = model.predict_batch(&probes).expect("direct predictions");
            let reloaded = loaded.model.predict_batch(&probes).expect("reloaded predictions");
            prop_assert_eq!(direct.len(), reloaded.len());
            for (i, (d, r)) in direct.iter().zip(&reloaded).enumerate() {
                prop_assert_eq!(
                    d.to_bits(),
                    r.to_bits(),
                    "{} changed probe {} across the round trip: {} vs {}",
                    family, i, d, r
                );
            }
            // Saving the reloaded model reproduces the container
            // byte-for-byte: the format has one canonical encoding.
            let again = save_to_vec(loaded.model.as_ref());
            prop_assert_eq!(&bytes, &again, "{} re-save diverged", family);
        }
    }
}

fn ridge_container() -> Vec<u8> {
    let x = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0], vec![1.0, 1.0]];
    let y = vec![0.0, 1.0, 1.0, 2.0];
    let model = fit_family("ridge", &x, &y).expect("ridge fits");
    save_to_vec(model.as_ref())
}

#[test]
fn truncated_container_is_a_typed_error() {
    let bytes = ridge_container();
    for keep in [bytes.len() - 1, bytes.len() / 2, 9, 3, 0] {
        match load_predictor_from_bytes(&bytes[..keep]) {
            Err(Error::ModelIo(IoError::Truncated { .. } | IoError::FileChecksum { .. })) => {}
            other => panic!("truncation at {keep} bytes gave {other:?}"),
        }
    }
}

#[test]
fn flipped_byte_fails_the_file_checksum() {
    let mut bytes = ridge_container();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::FileChecksum { expected, found })) => {
            assert_ne!(expected, found);
        }
        other => panic!("corrupted payload gave {other:?}"),
    }
}

#[test]
fn future_schema_version_is_refused_up_front() {
    let mut bytes = ridge_container();
    // Bytes 4..6 hold the little-endian schema version, checked before
    // the file checksum so old builds explain new files crisply.
    let future = (edm::model_io::SCHEMA_VERSION + 1).to_le_bytes();
    bytes[4] = future[0];
    bytes[5] = future[1];
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::UnsupportedVersion { found, supported })) => {
            assert_eq!(found, edm::model_io::SCHEMA_VERSION + 1);
            assert_eq!(supported, edm::model_io::SCHEMA_VERSION);
        }
        other => panic!("future version gave {other:?}"),
    }
}

#[test]
fn wrong_magic_is_not_a_model_file() {
    let mut bytes = ridge_container();
    bytes[0] = b'X';
    match load_predictor_from_bytes(&bytes) {
        Err(Error::ModelIo(IoError::BadMagic { found })) => assert_eq!(&found, b"XDMM"),
        other => panic!("bad magic gave {other:?}"),
    }
}

// ---- containers pinned across versions ----------------------------------

/// The fixed training set behind `tests/fixtures/*.edm`: eight 2-D
/// points, their SVC labels, and an SVR target `2x₀ − x₁ + 0.25`
/// (the one-class family ignores targets).
fn fixture_data() -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>) {
    let x = vec![
        vec![0.0, 0.1],
        vec![0.2, 0.0],
        vec![0.1, 0.3],
        vec![0.9, 1.0],
        vec![1.1, 0.8],
        vec![1.0, 1.2],
        vec![0.5, 0.6],
        vec![0.4, 0.5],
    ];
    let labels = vec![-1.0, -1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0];
    let targets = x.iter().map(|r| 2.0 * r[0] - r[1] + 0.25).collect();
    (x, labels, targets)
}

fn fixture_probes() -> Vec<Vec<f64>> {
    vec![vec![0.05, 0.1], vec![0.45, 0.55], vec![1.0, 1.0], vec![3.0, -2.0], vec![0.7, 0.2]]
}

/// Each fixture family with the `f64` bit patterns its model predicted
/// for [`fixture_probes`] in the build that wrote the container.
const FIXTURES: [(&str, [u64; 5]); 3] = [
    (
        "svc",
        [
            0xbff0000000000000,
            0xbff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0xbff0000000000000,
        ],
    ),
    (
        "svr",
        [
            0x3fd1bea13aa5b3fa,
            0x3fe42808682b4dbe,
            0x3ff38204d70328ae,
            0x3fe8fc58d52ddea8,
            0x3fec9ff70e2169dd,
        ],
    ),
    (
        "one_class_svm",
        [
            0x3ff0000000000000,
            0x3ff0000000000000,
            0x3ff0000000000000,
            0xbff0000000000000,
            0xbff0000000000000,
        ],
    ),
];

fn fixture_bytes(family: &str) -> Vec<u8> {
    let path = format!("{}/tests/fixtures/{family}.edm", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn pinned_containers_load_predict_and_resave_byte_identically() {
    let (x, labels, targets) = fixture_data();
    for (family, bits) in FIXTURES {
        let bytes = fixture_bytes(family);
        let loaded = load_predictor_from_bytes(&bytes)
            .unwrap_or_else(|e| panic!("{family}: pinned container failed to load: {e}"));
        assert_eq!(loaded.model.name(), family);
        assert_eq!(loaded.model.n_features(), 2);
        let got = loaded.model.predict_batch(&fixture_probes()).expect("fixture predictions");
        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, bits, "{family} predictions drifted from the pinned bits");
        assert_eq!(save_to_vec(loaded.model.as_ref()), bytes, "{family} re-save diverged");
        // Training the same data again writes the same bytes.
        let y = if family == "svr" { &targets } else { &labels };
        let refit = fit_family(family, &x, y).expect("fixture data trains");
        assert_eq!(save_to_vec(refit.as_ref()), bytes, "{family} refit diverged");
    }
}

/// Rebuilds a pinned SV container with its complexity slot replaced by
/// `complexity(stored)`; section and file CRCs are recomputed, so only
/// the loader's own check can catch a wrong value.
fn reseal_complexity(family: &str, complexity: impl Fn(f64) -> f64) -> Vec<u8> {
    use edm::model_io::{Enc, ModelReader, ModelWriter};
    let bytes = fixture_bytes(family);
    let r = ModelReader::from_bytes(&bytes).expect("fixture opens");
    let mut kd = r.section("kernel").unwrap();
    let mut ke = Enc::new();
    ke.put_str(&kd.get_str().unwrap());
    ke.put_f64(kd.get_f64().unwrap());
    kd.finish().unwrap();
    let mut d = r.section("model").unwrap();
    let mut me = Enc::new();
    me.put_usize(d.get_usize().unwrap());
    me.put_rows(&d.get_rows().unwrap());
    me.put_f64s(&d.get_f64s().unwrap());
    me.put_f64(d.get_f64().unwrap());
    me.put_f64(complexity(d.get_f64().unwrap()));
    me.put_usize(d.get_usize().unwrap());
    for _ in 0..3 {
        me.put_u64(d.get_u64().unwrap());
    }
    d.finish().unwrap();
    let mut w = ModelWriter::new(family);
    w.add_section("kernel", ke);
    w.add_section("model", me);
    w.to_bytes().unwrap()
}

#[test]
fn complexity_slot_that_disagrees_with_the_coefficients_is_malformed() {
    for family in ["svc", "svr"] {
        assert_eq!(reseal_complexity(family, |c| c), fixture_bytes(family), "{family} reseal");
        let flipped = reseal_complexity(family, |c| f64::from_bits(c.to_bits() ^ 1));
        match load_predictor_from_bytes(&flipped) {
            Err(Error::ModelIo(IoError::Malformed { detail })) => {
                assert!(detail.contains("complexity"), "{family}: {detail}");
            }
            other => panic!("{family}: flipped complexity slot gave {other:?}"),
        }
    }
}

// ---- structurally impossible payloads -------------------------------------

/// One model per family that stores sample rows, built from `rows`
/// (two of them) with every other part well-formed.
fn models_with_rows(rows: &[Vec<f64>]) -> Vec<Box<dyn edm::PersistentPredictor>> {
    use edm::kernels::{AnyKernel, RbfKernel};
    use edm::learn::{gp::GpRegressor, knn::KnnClassifier, knn::KnnRegressor};
    use edm::linalg::{Cholesky, Matrix};
    use edm::svm::{CacheStats, SvModel, Svc};
    let (x, k) = (rows.to_vec(), AnyKernel::from(RbfKernel::new(1.0)));
    let chol = Cholesky::from_factor(Matrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 1.0]]));
    let svc = SvModel::<_, Svc>::from_parts(
        k,
        2,
        x.clone(),
        vec![1.0, -1.0],
        0.0,
        0,
        CacheStats::default(),
    );
    vec![
        Box::new(svc),
        Box::new(GpRegressor::from_parts(k, x.clone(), vec![1.0, -1.0], chol, 0.0, 1e-6)),
        Box::new(KnnClassifier::from_parts(1, x.clone(), vec![1, -1], false)),
        Box::new(KnnRegressor::from_parts(1, x, vec![1.0, -1.0])),
    ]
}

#[test]
fn ragged_sample_rows_are_malformed() {
    // The rectangular twins load and score, so only the ragged row can
    // be what the loader rejects.
    for model in models_with_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]) {
        let loaded = load_predictor_from_bytes(&save_to_vec(model.as_ref())).expect("loads");
        assert_eq!(loaded.model.predict_batch(&[vec![0.5, 0.5]]).expect("scores").len(), 1);
    }
    for rows in [[vec![1.0, 2.0], vec![3.0]], [vec![1.0], vec![2.0, 3.0]]] {
        for model in models_with_rows(&rows) {
            match load_predictor_from_bytes(&save_to_vec(model.as_ref())) {
                Err(Error::ModelIo(IoError::Malformed { .. })) => {}
                other => panic!("{}: ragged rows {rows:?} gave {other:?}", model.name()),
            }
        }
    }
}

/// Byte ranges of every section payload in a container, found by
/// walking the layout documented in `edm_model_io`.
fn payload_ranges(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let le = |at: usize, n: usize| (0..n).rev().fold(0, |v, i| v << 8 | bytes[at + i] as usize);
    let mut pos = 8 + le(6, 2) + 4;
    let mut ranges = Vec::new();
    for _ in 0..le(pos - 4, 4) {
        pos += 2 + le(pos, 2) + 8;
        ranges.push(pos..pos + le(pos - 8, 8));
        pos = ranges.last().unwrap().end + 4;
    }
    assert_eq!(pos, bytes.len() - 4, "walked the whole container");
    ranges
}

/// Loads `bytes` and scores one probe as wide as the loaded model;
/// names the step that went wrong, if any.
fn hostile_load_failure(bytes: &[u8]) -> Option<String> {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    let loaded = match catch_unwind(|| load_predictor_from_bytes(bytes)) {
        Ok(Ok(loaded)) => loaded,
        Ok(Err(_)) => return None,
        Err(_) => return Some("load panicked".into()),
    };
    // Every fixture has support rows, so an honest width is bounded by
    // the file; a larger one would make the probe an over-large
    // allocation.
    let width = loaded.model.n_features();
    if width > bytes.len() {
        return Some(format!("accepted width {width}"));
    }
    let probe = [vec![0.5; width]];
    let scored = catch_unwind(AssertUnwindSafe(|| loaded.model.predict_batch(&probe)));
    scored.is_err().then(|| "predict_batch panicked".into())
}

/// Every single-byte mutation of a pinned container's payloads, with
/// the section and file CRCs resealed so that decoding really runs:
/// the loader returns `Ok` or a typed error and never panics, and a
/// model it accepts scores an `n_features`-wide probe without panicking.
#[test]
fn mutated_payloads_load_as_typed_errors_or_scoring_models() {
    let (mut failures, mut mutants) = (Vec::new(), 0);
    for (family, _) in FIXTURES {
        let pristine = fixture_bytes(family);
        for range in payload_ranges(&pristine) {
            for at in range.clone() {
                let b = pristine[at];
                for value in [0x00, 0xFF, b.wrapping_add(1)] {
                    let mut bytes = pristine.clone();
                    bytes[at] = value;
                    let crc = edm::model_io::crc32(&bytes[range.clone()]);
                    bytes[range.end..range.end + 4].copy_from_slice(&crc.to_le_bytes());
                    let n = bytes.len();
                    let crc = edm::model_io::crc32(&bytes[..n - 4]);
                    bytes[n - 4..].copy_from_slice(&crc.to_le_bytes());
                    mutants += 1;
                    if let Some(why) = hostile_load_failure(&bytes) {
                        failures
                            .push(format!("{family}: byte {at} {b:#04x} -> {value:#04x}: {why}"));
                    }
                }
            }
        }
    }
    assert!(failures.is_empty(), "{} of {mutants} mutants failed: {failures:#?}", failures.len());
}

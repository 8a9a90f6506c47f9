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

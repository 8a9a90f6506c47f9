//! Save/load for every [`Predictor`] family — the
//! facade layer over [`edm_model_io`]'s binary container.
//!
//! Each family encodes its parts (support vectors, weights, trees, …)
//! into named container sections; floats travel bitwise
//! ([`f64::to_bits`]), so `save → load → predict` is bitwise identical
//! to predicting with the in-memory model (pinned by proptests in
//! `tests/persist_roundtrip.rs` for all nine families).
//!
//! The write side is the object-safe [`PersistentPredictor`] trait: a
//! `&dyn PersistentPredictor` saves itself with its family tag in the
//! header. The read side is [`load_predictor`], which dispatches on
//! that tag through a closed registry — no downcasting anywhere.
//! Kernel-generic models (`SvcModel<K>` …) reload as
//! `Model<AnyKernel>`, whose delegated `eval` is bitwise identical to
//! the concrete kernel's.

use std::io::{Read, Write};

use crate::kernels::{
    AnyKernel, Chi2Kernel, HistogramIntersectionKernel, LinearKernel, PolyKernel, RbfKernel,
    SigmoidKernel,
};
use crate::learn::forest::RandomForestClassifier;
use crate::learn::gp::GpRegressor;
use crate::learn::knn::{KnnClassifier, KnnRegressor};
use crate::learn::linreg::{LeastSquares, Ridge};
use crate::learn::tree::{DecisionTreeClassifier, FlatNode};
use crate::linalg::{Cholesky, Matrix};
use crate::model_io::{Dec, Enc, IoError, ModelReader, ModelWriter};
use crate::svm::{CacheStats, OneClass, SvFamily, SvModel, Svc, Svr};
use crate::{Error, Predictor};

/// A [`Predictor`] that can serialize itself into the workspace's
/// versioned binary container and be reloaded by [`load_predictor`].
///
/// The trait is object-safe: `edm-serve` persists `dyn` registry
/// entries without knowing their concrete type. The family tag written
/// to the container header is [`Predictor::name`], which is also the
/// dispatch key [`load_predictor`] uses.
pub trait PersistentPredictor: Predictor {
    /// Serializes the model (header, checksummed sections, file CRC)
    /// to `w`.
    ///
    /// # Errors
    ///
    /// [`Error::ModelIo`] if encoding or the underlying writer fails.
    fn save(&self, w: &mut dyn Write) -> Result<(), Error>;
}

/// A predictor reloaded from a container, with the file metadata the
/// serve layer reports.
pub struct LoadedModel {
    /// The reconstructed model, ready to score.
    pub model: Box<dyn PersistentPredictor + Send + Sync>,
    /// The container's whole-file CRC-32 — a stable fingerprint of the
    /// saved bytes.
    pub checksum: u32,
    /// The schema version the file was written with.
    pub version: u16,
}

impl std::fmt::Debug for LoadedModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedModel")
            .field("family", &self.model.name())
            .field("n_features", &self.model.n_features())
            .field("checksum", &self.checksum)
            .field("version", &self.version)
            .finish()
    }
}

fn malformed(detail: String) -> Error {
    Error::ModelIo(IoError::Malformed { detail })
}

/// Fails unless every row has `width` entries: a ragged matrix would
/// load, then panic on the first prediction.
fn check_width(rows: &[Vec<f64>], width: usize, what: &str) -> Result<(), Error> {
    match rows.iter().find(|r| r.len() != width) {
        Some(r) => Err(malformed(format!("{what} row of {} features, expected {width}", r.len()))),
        None => Ok(()),
    }
}

// ---- kernel codec -------------------------------------------------------

fn put_kernel(e: &mut Enc, k: &AnyKernel) {
    e.put_str(k.tag());
    match k {
        AnyKernel::Linear(_) | AnyKernel::HistogramIntersection(_) => {}
        AnyKernel::Poly(p) => {
            e.put_u32(p.degree());
            e.put_f64(p.gamma());
            e.put_f64(p.coef0());
        }
        AnyKernel::Rbf(r) => e.put_f64(r.gamma()),
        AnyKernel::Sigmoid(s) => {
            e.put_f64(s.gamma());
            e.put_f64(s.coef0());
        }
        AnyKernel::Chi2(c) => e.put_f64(c.gamma()),
    }
}

fn get_kernel(d: &mut Dec<'_>) -> Result<AnyKernel, Error> {
    let tag = d.get_str().map_err(Error::ModelIo)?;
    let k = match tag.as_str() {
        "linear" => AnyKernel::Linear(LinearKernel::new()),
        "hist_intersection" => AnyKernel::HistogramIntersection(HistogramIntersectionKernel::new()),
        "poly" => {
            let degree = d.get_u32().map_err(Error::ModelIo)?;
            let gamma = d.get_f64().map_err(Error::ModelIo)?;
            let coef0 = d.get_f64().map_err(Error::ModelIo)?;
            if degree == 0 || !(gamma > 0.0) {
                return Err(malformed(format!("poly kernel with degree {degree}, gamma {gamma}")));
            }
            AnyKernel::Poly(PolyKernel::new(degree, gamma, coef0))
        }
        "rbf" => {
            let gamma = d.get_f64().map_err(Error::ModelIo)?;
            if !(gamma > 0.0) {
                return Err(malformed(format!("rbf kernel with gamma {gamma}")));
            }
            AnyKernel::Rbf(RbfKernel::new(gamma))
        }
        "sigmoid" => {
            let gamma = d.get_f64().map_err(Error::ModelIo)?;
            let coef0 = d.get_f64().map_err(Error::ModelIo)?;
            if !(gamma > 0.0) {
                return Err(malformed(format!("sigmoid kernel with gamma {gamma}")));
            }
            AnyKernel::Sigmoid(SigmoidKernel::new(gamma, coef0))
        }
        "chi2" => {
            let gamma = d.get_f64().map_err(Error::ModelIo)?;
            if !(gamma > 0.0) {
                return Err(malformed(format!("chi2 kernel with gamma {gamma}")));
            }
            AnyKernel::Chi2(Chi2Kernel::new(gamma))
        }
        other => return Err(malformed(format!("unknown kernel tag {other:?}"))),
    };
    Ok(k)
}

fn put_cache_stats(e: &mut Enc, s: CacheStats) {
    e.put_u64(s.hits);
    e.put_u64(s.misses);
    e.put_u64(s.evictions);
}

fn get_cache_stats(d: &mut Dec<'_>) -> Result<CacheStats, Error> {
    Ok(CacheStats {
        hits: d.get_u64().map_err(Error::ModelIo)?,
        misses: d.get_u64().map_err(Error::ModelIo)?,
        evictions: d.get_u64().map_err(Error::ModelIo)?,
    })
}

fn write_container(
    family: &str,
    sections: Vec<(&'static str, Enc)>,
    w: &mut dyn Write,
) -> Result<(), Error> {
    let _span = edm_trace::span("model_io.save");
    let mut mw = ModelWriter::new(family);
    for (name, enc) in sections {
        mw.add_section(name, enc);
    }
    mw.write_to(w).map_err(Error::ModelIo)
}

// ---- support-vector machines -------------------------------------------

// Model section: n_features, support rows, coefficients, ρ, the
// complexity Σ|cᵢ| (svc and svr containers only — one-class containers
// never carried it), iterations, cache stats.

/// Whether `F`'s containers carry the complexity slot.
fn stores_complexity<F: SvFamily>() -> bool {
    F::TAG != OneClass::TAG
}

impl<K, F> PersistentPredictor for SvModel<K, F>
where
    K: crate::kernels::Kernel<[f64]> + Clone,
    AnyKernel: From<K>,
    F: SvFamily,
{
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut ke = Enc::new();
        put_kernel(&mut ke, &AnyKernel::from(self.kernel().clone()));
        let mut me = Enc::new();
        me.put_usize(self.n_features());
        me.put_rows(self.support_vectors());
        me.put_f64s(self.coefficients());
        me.put_f64(self.rho());
        if stores_complexity::<F>() {
            me.put_f64(self.complexity());
        }
        me.put_usize(self.iterations());
        put_cache_stats(&mut me, self.cache_stats());
        write_container(F::TAG, vec![("kernel", ke), ("model", me)], w)
    }
}

fn load_sv<F: SvFamily>(
    r: &ModelReader,
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut kd = r.section("kernel").map_err(Error::ModelIo)?;
    let kernel = get_kernel(&mut kd)?;
    kd.finish().map_err(Error::ModelIo)?;
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let n_features = d.get_usize().map_err(Error::ModelIo)?;
    let support = d.get_rows().map_err(Error::ModelIo)?;
    let coef = d.get_f64s().map_err(Error::ModelIo)?;
    let rho = d.get_f64().map_err(Error::ModelIo)?;
    let complexity =
        if stores_complexity::<F>() { Some(d.get_f64().map_err(Error::ModelIo)?) } else { None };
    let iterations = d.get_usize().map_err(Error::ModelIo)?;
    let cache = get_cache_stats(&mut d)?;
    d.finish().map_err(Error::ModelIo)?;
    if support.len() != coef.len() {
        return Err(malformed("support/coefficient length mismatch".into()));
    }
    check_width(&support, n_features, "support vector")?;
    let model = SvModel::<AnyKernel, F>::from_parts(
        kernel, n_features, support, coef, rho, iterations, cache,
    );
    // The slot is derived data: a value other than the coefficients'
    // Σ|cᵢ| means the section was not written by `save`.
    if let Some(stored) = complexity {
        if stored.to_bits() != model.complexity().to_bits() {
            return Err(malformed(format!(
                "stored complexity {stored} is not the coefficients' sum {}",
                model.complexity()
            )));
        }
    }
    Ok(Box::new(model))
}

// ---- linear models ------------------------------------------------------

impl PersistentPredictor for LeastSquares {
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut e = Enc::new();
        e.put_f64s(self.coefficients());
        e.put_f64(self.intercept());
        write_container("least_squares", vec![("model", e)], w)
    }
}

fn load_least_squares(
    r: &ModelReader,
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let coef = d.get_f64s().map_err(Error::ModelIo)?;
    let intercept = d.get_f64().map_err(Error::ModelIo)?;
    d.finish().map_err(Error::ModelIo)?;
    Ok(Box::new(LeastSquares::from_parts(coef, intercept)))
}

impl PersistentPredictor for Ridge {
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut e = Enc::new();
        e.put_f64s(self.coefficients());
        e.put_f64(self.intercept());
        e.put_f64(self.lambda());
        write_container("ridge", vec![("model", e)], w)
    }
}

fn load_ridge(r: &ModelReader) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let coef = d.get_f64s().map_err(Error::ModelIo)?;
    let intercept = d.get_f64().map_err(Error::ModelIo)?;
    let lambda = d.get_f64().map_err(Error::ModelIo)?;
    d.finish().map_err(Error::ModelIo)?;
    Ok(Box::new(Ridge::from_parts(coef, intercept, lambda)))
}

// ---- Gaussian process ---------------------------------------------------

impl<K> PersistentPredictor for GpRegressor<K>
where
    K: crate::kernels::Kernel<[f64]> + Clone,
    AnyKernel: From<K>,
{
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut ke = Enc::new();
        put_kernel(&mut ke, &AnyKernel::from(self.kernel().clone()));
        let mut me = Enc::new();
        me.put_rows(self.training_x());
        me.put_f64s(self.alpha());
        me.put_f64(self.y_mean());
        me.put_f64(self.noise());
        let mut ce = Enc::new();
        let l = self.cholesky().l();
        let rows: Vec<Vec<f64>> = (0..l.rows()).map(|i| l.row(i).to_vec()).collect();
        ce.put_rows(&rows);
        write_container("gp_regressor", vec![("kernel", ke), ("model", me), ("chol", ce)], w)
    }
}

fn load_gp(r: &ModelReader) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut kd = r.section("kernel").map_err(Error::ModelIo)?;
    let kernel = get_kernel(&mut kd)?;
    kd.finish().map_err(Error::ModelIo)?;
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let x = d.get_rows().map_err(Error::ModelIo)?;
    let alpha = d.get_f64s().map_err(Error::ModelIo)?;
    let y_mean = d.get_f64().map_err(Error::ModelIo)?;
    let noise = d.get_f64().map_err(Error::ModelIo)?;
    d.finish().map_err(Error::ModelIo)?;
    let mut cd = r.section("chol").map_err(Error::ModelIo)?;
    let l_rows = cd.get_rows().map_err(Error::ModelIo)?;
    cd.finish().map_err(Error::ModelIo)?;
    if x.is_empty() || x.len() != alpha.len() || l_rows.len() != x.len() {
        return Err(malformed("GP training-set/alpha/Cholesky size mismatch".into()));
    }
    check_width(&x, x[0].len(), "GP training")?;
    if l_rows.iter().any(|row| row.len() != l_rows.len()) {
        return Err(malformed("GP Cholesky factor is not square".into()));
    }
    let chol = Cholesky::from_factor(Matrix::from_rows(&l_rows));
    Ok(Box::new(GpRegressor::from_parts(kernel, x, alpha, chol, y_mean, noise)))
}

// ---- nearest neighbors --------------------------------------------------

impl PersistentPredictor for KnnClassifier {
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut e = Enc::new();
        e.put_usize(self.k());
        e.put_rows(self.training_x());
        e.put_i32s(self.training_y());
        e.put_bool(self.is_weighted());
        write_container("knn_classifier", vec![("model", e)], w)
    }
}

fn load_knn_classifier(
    r: &ModelReader,
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let k = d.get_usize().map_err(Error::ModelIo)?;
    let x = d.get_rows().map_err(Error::ModelIo)?;
    let y = d.get_i32s().map_err(Error::ModelIo)?;
    let weighted = d.get_bool().map_err(Error::ModelIo)?;
    d.finish().map_err(Error::ModelIo)?;
    if k == 0 || x.is_empty() || x.len() != y.len() {
        return Err(malformed("knn classifier with empty or mismatched training set".into()));
    }
    check_width(&x, x[0].len(), "knn training")?;
    Ok(Box::new(KnnClassifier::from_parts(k, x, y, weighted)))
}

impl PersistentPredictor for KnnRegressor {
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut e = Enc::new();
        e.put_usize(self.k());
        e.put_rows(self.training_x());
        e.put_f64s(self.training_y());
        write_container("knn_regressor", vec![("model", e)], w)
    }
}

fn load_knn_regressor(
    r: &ModelReader,
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let k = d.get_usize().map_err(Error::ModelIo)?;
    let x = d.get_rows().map_err(Error::ModelIo)?;
    let y = d.get_f64s().map_err(Error::ModelIo)?;
    d.finish().map_err(Error::ModelIo)?;
    if k == 0 || x.is_empty() || x.len() != y.len() {
        return Err(malformed("knn regressor with empty or mismatched training set".into()));
    }
    check_width(&x, x[0].len(), "knn training")?;
    Ok(Box::new(KnnRegressor::from_parts(k, x, y)))
}

// ---- random forest ------------------------------------------------------

const NODE_LEAF: u8 = 0;
const NODE_SPLIT: u8 = 1;

fn put_tree(e: &mut Enc, tree: &DecisionTreeClassifier) {
    let nodes = tree.flatten();
    e.put_usize(nodes.len());
    for node in &nodes {
        match node {
            FlatNode::Leaf { value, counts } => {
                e.put_u8(NODE_LEAF);
                e.put_f64(*value);
                e.put_usize(counts.len());
                for &(label, count) in counts {
                    e.put_i32(label);
                    e.put_u64(count as u64);
                }
            }
            FlatNode::Split { feature, threshold } => {
                e.put_u8(NODE_SPLIT);
                e.put_usize(*feature);
                e.put_f64(*threshold);
            }
        }
    }
}

fn get_tree(d: &mut Dec<'_>) -> Result<DecisionTreeClassifier, Error> {
    let n = d.get_usize().map_err(Error::ModelIo)?;
    let mut nodes = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let tag = d.get_u8().map_err(Error::ModelIo)?;
        match tag {
            NODE_LEAF => {
                let value = d.get_f64().map_err(Error::ModelIo)?;
                let n_counts = d.get_usize().map_err(Error::ModelIo)?;
                let mut counts = Vec::with_capacity(n_counts.min(1 << 20));
                for _ in 0..n_counts {
                    let label = d.get_i32().map_err(Error::ModelIo)?;
                    let count = d.get_u64().map_err(Error::ModelIo)?;
                    counts.push((label, count as usize));
                }
                nodes.push(FlatNode::Leaf { value, counts });
            }
            NODE_SPLIT => {
                let feature = d.get_usize().map_err(Error::ModelIo)?;
                let threshold = d.get_f64().map_err(Error::ModelIo)?;
                nodes.push(FlatNode::Split { feature, threshold });
            }
            other => return Err(malformed(format!("unknown tree node tag {other}"))),
        }
    }
    DecisionTreeClassifier::from_flat(&nodes)
        .map_err(|e| malformed(format!("invalid flattened tree: {e}")))
}

impl PersistentPredictor for RandomForestClassifier {
    fn save(&self, w: &mut dyn Write) -> Result<(), Error> {
        let mut e = Enc::new();
        e.put_usize(Predictor::n_features(self));
        e.put_usize(self.trees().len());
        for tree in self.trees() {
            put_tree(&mut e, tree);
        }
        write_container("random_forest", vec![("model", e)], w)
    }
}

fn load_forest(r: &ModelReader) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    let mut d = r.section("model").map_err(Error::ModelIo)?;
    let n_features = d.get_usize().map_err(Error::ModelIo)?;
    let n_trees = d.get_usize().map_err(Error::ModelIo)?;
    let mut trees = Vec::with_capacity(n_trees.min(1 << 16));
    for _ in 0..n_trees {
        trees.push(get_tree(&mut d)?);
    }
    d.finish().map_err(Error::ModelIo)?;
    if trees.is_empty() {
        return Err(malformed("forest with zero trees".into()));
    }
    Ok(Box::new(RandomForestClassifier::from_parts(trees, n_features)))
}

// ---- registry-dispatched load ------------------------------------------

/// The family tags [`load_predictor`] dispatches on, in registry order —
/// exactly the nine [`Predictor`] families.
pub const FAMILIES: [&str; 9] = [
    Svc::TAG,
    Svr::TAG,
    OneClass::TAG,
    "least_squares",
    "ridge",
    "gp_regressor",
    "knn_classifier",
    "knn_regressor",
    "random_forest",
];

/// Reloads a model saved by [`PersistentPredictor::save`], dispatching
/// on the family tag in the container header.
///
/// # Errors
///
/// [`Error::ModelIo`] for container-level failures (bad magic,
/// unsupported schema version, checksum mismatch, truncation, missing
/// sections, unknown family) or structurally impossible payloads.
pub fn load_predictor(r: &mut dyn Read) -> Result<LoadedModel, Error> {
    let mut bytes = Vec::new();
    r.read_to_end(&mut bytes).map_err(|e| Error::ModelIo(IoError::Io(e)))?;
    load_predictor_from_bytes(&bytes)
}

/// In-memory variant of [`load_predictor`].
///
/// # Errors
///
/// As for [`load_predictor`].
pub fn load_predictor_from_bytes(bytes: &[u8]) -> Result<LoadedModel, Error> {
    let _span = edm_trace::span("model_io.load");
    let reader = ModelReader::from_bytes(bytes).map_err(Error::ModelIo)?;
    let model = match reader.family() {
        Svc::TAG => load_sv::<Svc>(&reader)?,
        Svr::TAG => load_sv::<Svr>(&reader)?,
        OneClass::TAG => load_sv::<OneClass>(&reader)?,
        "least_squares" => load_least_squares(&reader)?,
        "ridge" => load_ridge(&reader)?,
        "gp_regressor" => load_gp(&reader)?,
        "knn_classifier" => load_knn_classifier(&reader)?,
        "knn_regressor" => load_knn_regressor(&reader)?,
        "random_forest" => load_forest(&reader)?,
        other => {
            return Err(malformed(format!("unknown model family {other:?}")));
        }
    };
    Ok(LoadedModel { model, checksum: reader.checksum(), version: reader.version() })
}

/// Trains a fresh model of the named family with that family's default
/// hyperparameters — the refit primitive behind `edm-serve`'s
/// `POST /v1/models/{name}:train`.
///
/// Label conventions follow [`Predictor`]:
/// classifiers cast `y` to integer labels (SVC wants `±1.0`), the
/// one-class family ignores `y` entirely, and regressors take `y` as
/// given. Training is deterministic (the forest uses a fixed seed).
///
/// # Errors
///
/// The underlying family's fit error, or [`Error::ModelIo`] with a
/// [`IoError::Malformed`] detail for an unknown family tag.
pub fn fit_family(
    family: &str,
    x: &[Vec<f64>],
    y: &[f64],
) -> Result<Box<dyn PersistentPredictor + Send + Sync>, Error> {
    use rand::SeedableRng;
    let knn_k = |n: usize| 5usize.min(n.max(1));
    match family {
        Svc::TAG => {
            let m = crate::svm::SvcTrainer::new(crate::svm::SvcParams::default())
                .kernel(AnyKernel::from(RbfKernel::new(1.0)))
                .fit(x, y)?;
            Ok(Box::new(m))
        }
        Svr::TAG => {
            let m = crate::svm::SvrTrainer::new(crate::svm::SvrParams::default())
                .kernel(AnyKernel::from(RbfKernel::new(1.0)))
                .fit(x, y)?;
            Ok(Box::new(m))
        }
        OneClass::TAG => {
            let m = crate::svm::OneClassSvm::new(crate::svm::OneClassParams::default())
                .kernel(AnyKernel::from(RbfKernel::new(1.0)))
                .fit(x)?;
            Ok(Box::new(m))
        }
        "least_squares" => Ok(Box::new(LeastSquares::fit(x, y)?)),
        "ridge" => Ok(Box::new(Ridge::fit(x, y, 1.0)?)),
        "gp_regressor" => {
            let m = GpRegressor::fit(x, y, AnyKernel::from(RbfKernel::new(1.0)), 1e-6)?;
            Ok(Box::new(m))
        }
        "knn_classifier" => {
            let labels: Vec<i32> = y.iter().map(|&v| v as i32).collect();
            Ok(Box::new(KnnClassifier::fit(knn_k(x.len()), x, &labels)?))
        }
        "knn_regressor" => Ok(Box::new(KnnRegressor::fit(knn_k(x.len()), x, y)?)),
        "random_forest" => {
            let labels: Vec<i32> = y.iter().map(|&v| v as i32).collect();
            let mut rng = rand::rngs::StdRng::seed_from_u64(0);
            let m = RandomForestClassifier::fit(
                x,
                &labels,
                crate::learn::forest::ForestParams::default(),
                &mut rng,
            )?;
            Ok(Box::new(m))
        }
        other => Err(malformed(format!("unknown model family {other:?}"))),
    }
}

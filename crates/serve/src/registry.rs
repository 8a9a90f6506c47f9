//! The model registry: a name → [`Predictor`] map shared by every
//! worker thread, plus per-model **admission tiers** and the
//! **generation-swapped** [`SharedRegistry`] behind hot reload.
//!
//! Backed by a `BTreeMap` so listings are deterministically ordered
//! (the workspace bans `HashMap` iteration in lib code). A registry is
//! built immutably and then published as one **generation**: the
//! server holds a [`SharedRegistry`], requests take an
//! [`RegistrySnapshot`] `Arc` at routing time (one brief read lock,
//! no allocation), and `POST /v1/admin/reload` / `:train` build a
//! *fresh* registry offline and [`SharedRegistry::swap`] it in
//! atomically. In-flight requests keep scoring against the snapshot
//! they started with, so a reload can never fail a request that was
//! already admitted.
//!
//! An [`AdmissionTier`] caps how many predict requests for one model
//! may be in flight at once, layered *under* the worker pool's global
//! `try_reserve()` admission: the pool bounds total concurrency, the
//! tier bounds one model's share of it, so a hot model saturating its
//! quota keeps returning 503 (with the tier's `Retry-After`) while
//! other models' requests still find free workers. Quota accounting is
//! a single atomic counter ([`TierGate`]) released by RAII
//! ([`TierPermit`]), so a panicking request can never leak quota.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use edm_par::sync::DbgRwLock;

use edm::Predictor;

/// A model the registry can serve: any [`Predictor`] that is safe to
/// share across the worker pool.
pub type ServedModel = Arc<dyn Predictor + Send + Sync>;

/// Why a model could not be registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The name contains characters outside `[A-Za-z0-9_.-]` or is
    /// empty. Names appear verbatim in URL paths, so the alphabet is
    /// restricted to characters that need no percent-encoding.
    InvalidName(String),
    /// A model with this name is already registered.
    Duplicate(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::InvalidName(name) => {
                write!(f, "invalid model name {name:?}: use 1+ characters from [A-Za-z0-9_.-]")
            }
            RegistryError::Duplicate(name) => {
                write!(f, "a model named {name:?} is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// A per-model in-flight quota: at most `max_in_flight` predict
/// requests for the model run concurrently; excess arrivals are
/// rejected with 503 and this tier's `Retry-After`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmissionTier {
    /// Tier label, shown in the `edm_serve_tier_rejected_total{tier}`
    /// metric that [`ServeMetrics`](crate::metrics::ServeMetrics)
    /// records.
    pub name: String,
    /// Concurrent in-flight predict quota (≥ 1 enforced at
    /// registration).
    pub max_in_flight: usize,
    /// `Retry-After` seconds advertised on quota rejections.
    pub retry_after_secs: u64,
}

impl AdmissionTier {
    /// A tier with a 1-second `Retry-After`.
    pub fn new(name: &str, max_in_flight: usize) -> Self {
        AdmissionTier { name: name.to_string(), max_in_flight, retry_after_secs: 1 }
    }
}

/// Lock-free in-flight counter enforcing one model's [`AdmissionTier`].
#[derive(Debug)]
pub struct TierGate {
    tier: AdmissionTier,
    in_flight: AtomicUsize,
}

impl TierGate {
    fn new(tier: AdmissionTier) -> Arc<TierGate> {
        Arc::new(TierGate { tier, in_flight: AtomicUsize::new(0) })
    }

    /// The tier this gate enforces.
    pub fn tier(&self) -> &AdmissionTier {
        &self.tier
    }

    /// Requests currently holding a permit.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Claims one unit of quota, or `None` when the tier is saturated.
    /// The permit returns the quota on drop (including on panic).
    pub fn try_acquire(self: &Arc<Self>) -> Option<TierPermit> {
        let mut current = self.in_flight.load(Ordering::Relaxed);
        loop {
            if current >= self.tier.max_in_flight {
                return None;
            }
            match self.in_flight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(TierPermit { gate: Arc::clone(self) }),
                Err(seen) => current = seen,
            }
        }
    }
}

/// One unit of tier quota; returned to the gate on drop.
#[derive(Debug)]
pub struct TierPermit {
    gate: Arc<TierGate>,
}

impl Drop for TierPermit {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A registered model plus its (optional) admission gate and
/// persistence provenance.
#[derive(Clone)]
pub struct ModelEntry {
    /// The shared predictor.
    pub model: ServedModel,
    /// In-flight quota gate; `None` means untiered (only the global
    /// worker-pool admission applies).
    pub gate: Option<Arc<TierGate>>,
    /// Path of the container file this model was loaded from (or last
    /// persisted to); `None` for models registered in-process.
    pub loaded_from: Option<String>,
    /// The container's whole-file CRC-32 fingerprint; `None` for
    /// models registered in-process.
    pub checksum: Option<u32>,
}

impl fmt::Debug for ModelEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelEntry")
            .field("family", &self.model.name())
            .field("gate", &self.gate)
            .field("loaded_from", &self.loaded_from)
            .field("checksum", &self.checksum)
            .finish()
    }
}

/// Summary of one registered model, as reported by `GET /v1/models`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// The registered (URL-visible) name.
    pub name: String,
    /// The model family, from [`Predictor::name`].
    pub family: &'static str,
    /// Expected feature count per input row.
    pub n_features: usize,
    /// Container path the model was loaded from, when persisted.
    pub loaded_from: Option<String>,
    /// Container CRC-32 fingerprint, when persisted.
    pub checksum: Option<u32>,
}

/// An ordered collection of named models.
#[derive(Default, Clone)]
pub struct ModelRegistry {
    models: BTreeMap<String, ModelEntry>,
}

impl fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ModelRegistry").field("models", &self.names()).finish()
    }
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `model` under `name`.
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidName`] for names outside the URL-safe
    /// alphabet, [`RegistryError::Duplicate`] when the name is taken.
    pub fn register<P>(&mut self, name: &str, model: P) -> Result<(), RegistryError>
    where
        P: Predictor + Send + Sync + 'static,
    {
        self.register_arc(name, Arc::new(model))
    }

    /// Registers an already-shared model under `name`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelRegistry::register`].
    pub fn register_arc(&mut self, name: &str, model: ServedModel) -> Result<(), RegistryError> {
        self.insert_entry(name, ModelEntry { model, gate: None, loaded_from: None, checksum: None })
    }

    /// Registers a model reloaded from a persisted container, recording
    /// where it came from and its file CRC (reported by `/v1/models`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelRegistry::register`].
    pub fn register_loaded(
        &mut self,
        name: &str,
        model: ServedModel,
        loaded_from: String,
        checksum: u32,
    ) -> Result<(), RegistryError> {
        self.insert_entry(
            name,
            ModelEntry {
                model,
                gate: None,
                loaded_from: Some(loaded_from),
                checksum: Some(checksum),
            },
        )
    }

    /// Registers `model` under `name` behind an [`AdmissionTier`]
    /// in-flight quota (clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ModelRegistry::register`].
    pub fn register_tiered<P>(
        &mut self,
        name: &str,
        model: P,
        mut tier: AdmissionTier,
    ) -> Result<(), RegistryError>
    where
        P: Predictor + Send + Sync + 'static,
    {
        tier.max_in_flight = tier.max_in_flight.max(1);
        self.insert_entry(
            name,
            ModelEntry {
                model: Arc::new(model),
                gate: Some(TierGate::new(tier)),
                loaded_from: None,
                checksum: None,
            },
        )
    }

    /// Whether `name` fits the URL-safe registry alphabet.
    pub fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn insert_entry(&mut self, name: &str, entry: ModelEntry) -> Result<(), RegistryError> {
        if !Self::valid_name(name) {
            return Err(RegistryError::InvalidName(name.to_string()));
        }
        if self.models.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_string()));
        }
        self.models.insert(name.to_string(), entry);
        Ok(())
    }

    /// Inserts `entry` under `name`, replacing any existing entry —
    /// the rebuild primitive behind hot reload and `:train` (both
    /// construct the next generation from a clone of a previous one).
    ///
    /// # Errors
    ///
    /// [`RegistryError::InvalidName`] for names outside the URL-safe
    /// alphabet.
    pub fn upsert_entry(&mut self, name: &str, entry: ModelEntry) -> Result<(), RegistryError> {
        if !Self::valid_name(name) {
            return Err(RegistryError::InvalidName(name.to_string()));
        }
        self.models.insert(name.to_string(), entry);
        Ok(())
    }

    /// The model registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<ServedModel> {
        self.models.get(name).map(|e| Arc::clone(&e.model))
    }

    /// The model *and* its admission gate registered under `name`.
    pub fn get_entry(&self, name: &str) -> Option<ModelEntry> {
        self.models.get(name).cloned()
    }

    /// Registered names, in lexicographic order.
    pub fn names(&self) -> Vec<String> {
        self.models.keys().cloned().collect()
    }

    /// One [`ModelInfo`] per registered model, in name order.
    pub fn list(&self) -> Vec<ModelInfo> {
        self.models
            .iter()
            .map(|(name, entry)| ModelInfo {
                name: name.clone(),
                family: entry.model.name(),
                n_features: entry.model.n_features(),
                loaded_from: entry.loaded_from.clone(),
                checksum: entry.checksum,
            })
            .collect()
    }

    /// Number of registered models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// One published registry generation. Immutable once published:
/// requests that hold a snapshot keep scoring against it even while a
/// newer generation is being swapped in.
#[derive(Debug)]
pub struct RegistrySnapshot {
    /// The models of this generation.
    pub registry: ModelRegistry,
    /// Monotonic generation counter, starting at 1 and bumped by every
    /// [`SharedRegistry::swap`]. Echoed as the `x-model-generation`
    /// header on predict responses and in `/v1/models`.
    pub generation: u64,
}

/// The server's handle to the current registry generation: readers
/// clone an `Arc` under a brief read lock (arc-swap semantics on
/// [`DbgRwLock`]), writers publish a whole replacement registry. The
/// write lock is only held for the pointer swap itself — building the
/// next generation (directory scan, model loads, training) happens
/// before [`SharedRegistry::swap`] is called, with no lock held.
#[derive(Debug)]
pub struct SharedRegistry {
    current: DbgRwLock<Arc<RegistrySnapshot>>,
}

impl SharedRegistry {
    /// Publishes `registry` as generation 1.
    pub fn new(registry: ModelRegistry) -> Self {
        SharedRegistry {
            current: DbgRwLock::new(
                "serve.registry.current",
                Arc::new(RegistrySnapshot { registry, generation: 1 }),
            ),
        }
    }

    /// The current generation's snapshot. Cheap: one short read lock
    /// and an `Arc` clone.
    pub fn snapshot(&self) -> Arc<RegistrySnapshot> {
        Arc::clone(&self.current.read().unwrap_or_else(std::sync::PoisonError::into_inner))
    }

    /// Atomically publishes `registry` as the next generation and
    /// returns its generation number. In-flight requests holding the
    /// previous snapshot are unaffected.
    pub fn swap(&self, registry: ModelRegistry) -> u64 {
        let mut current = self.current.write().unwrap_or_else(std::sync::PoisonError::into_inner);
        let generation = current.generation + 1;
        *current = Arc::new(RegistrySnapshot { registry, generation });
        generation
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm::prelude::*;

    fn tiny_ridge() -> Ridge {
        let x = vec![vec![0.0, 0.0], vec![1.0, 0.5], vec![0.5, 1.0], vec![1.0, 1.0]];
        let y = vec![0.0, 1.0, 1.0, 2.0];
        Ridge::fit(&x, &y, 0.1).expect("tiny ridge fits")
    }

    #[test]
    fn register_and_look_up() {
        let mut reg = ModelRegistry::new();
        reg.register("fmax-ridge", tiny_ridge()).expect("register");
        assert_eq!(reg.len(), 1);
        assert!(!reg.is_empty());
        let model = reg.get("fmax-ridge").expect("present");
        assert_eq!(model.name(), "ridge");
        assert_eq!(model.n_features(), 2);
        assert!(reg.get("absent").is_none());
    }

    #[test]
    fn listing_is_name_ordered() {
        let mut reg = ModelRegistry::new();
        for name in ["zeta", "alpha", "mid.point-1_2"] {
            reg.register(name, tiny_ridge()).expect("register");
        }
        let names: Vec<String> = reg.list().into_iter().map(|m| m.name).collect();
        assert_eq!(names, vec!["alpha", "mid.point-1_2", "zeta"]);
    }

    #[test]
    fn invalid_names_are_rejected() {
        let mut reg = ModelRegistry::new();
        for bad in ["", "has space", "slash/y", "colon:predict", "q?x", "ünicode"] {
            assert_eq!(
                reg.register(bad, tiny_ridge()),
                Err(RegistryError::InvalidName(bad.to_string())),
                "{bad:?} should be invalid"
            );
        }
    }

    #[test]
    fn tier_gate_enforces_and_returns_quota() {
        let mut reg = ModelRegistry::new();
        reg.register_tiered("svc", tiny_ridge(), AdmissionTier::new("bulk", 2))
            .expect("tiered register");
        reg.register("free", tiny_ridge()).expect("untiered register");
        assert!(reg.get_entry("free").expect("entry").gate.is_none());
        let gate = reg.get_entry("svc").expect("entry").gate.expect("tiered");
        assert_eq!(gate.tier().name, "bulk");
        assert_eq!(gate.tier().retry_after_secs, 1);
        let a = gate.try_acquire().expect("first unit");
        let b = gate.try_acquire().expect("second unit");
        assert_eq!(gate.in_flight(), 2);
        assert!(gate.try_acquire().is_none(), "quota saturated");
        drop(a);
        assert_eq!(gate.in_flight(), 1);
        let _c = gate.try_acquire().expect("freed unit is reusable");
        drop(b);
    }

    #[test]
    fn zero_quota_tiers_are_clamped_to_one() {
        let mut reg = ModelRegistry::new();
        reg.register_tiered("svc", tiny_ridge(), AdmissionTier::new("tiny", 0)).expect("register");
        let gate = reg.get_entry("svc").expect("entry").gate.expect("tiered");
        assert_eq!(gate.tier().max_in_flight, 1, "a 0-quota tier would serve nothing");
        assert!(gate.try_acquire().is_some());
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut reg = ModelRegistry::new();
        reg.register("svc", tiny_ridge()).expect("first");
        assert_eq!(
            reg.register("svc", tiny_ridge()),
            Err(RegistryError::Duplicate("svc".to_string()))
        );
    }

    #[test]
    fn loaded_models_carry_provenance() {
        let mut reg = ModelRegistry::new();
        reg.register_loaded("r", Arc::new(tiny_ridge()), "/models/r.edm".to_string(), 0xDEAD)
            .expect("register loaded");
        reg.register("plain", tiny_ridge()).expect("register plain");
        let infos = reg.list();
        assert_eq!(infos[1].loaded_from.as_deref(), Some("/models/r.edm"));
        assert_eq!(infos[1].checksum, Some(0xDEAD));
        assert_eq!(infos[0].loaded_from, None, "in-process models have no provenance");
        assert_eq!(infos[0].checksum, None);
    }

    #[test]
    fn shared_registry_swaps_generations_without_touching_held_snapshots() {
        let mut gen1 = ModelRegistry::new();
        gen1.register("a", tiny_ridge()).expect("register a");
        let shared = SharedRegistry::new(gen1);
        assert_eq!(shared.generation(), 1);
        let held = shared.snapshot();

        let mut gen2 = held.registry.clone();
        gen2.upsert_entry(
            "b",
            ModelEntry {
                model: Arc::new(tiny_ridge()),
                gate: None,
                loaded_from: None,
                checksum: None,
            },
        )
        .expect("upsert b");
        assert_eq!(shared.swap(gen2), 2);

        // The held snapshot still sees generation 1's world...
        assert_eq!(held.generation, 1);
        assert_eq!(held.registry.names(), vec!["a"]);
        // ...while fresh snapshots see generation 2.
        let fresh = shared.snapshot();
        assert_eq!(fresh.generation, 2);
        assert_eq!(fresh.registry.names(), vec!["a", "b"]);
    }

    #[test]
    fn upsert_replaces_in_place() {
        let mut reg = ModelRegistry::new();
        reg.register("m", tiny_ridge()).expect("register");
        let replacement = ModelEntry {
            model: Arc::new(tiny_ridge()),
            gate: None,
            loaded_from: Some("m.edm".to_string()),
            checksum: Some(7),
        };
        reg.upsert_entry("m", replacement).expect("upsert over existing");
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.get_entry("m").expect("entry").loaded_from.as_deref(), Some("m.edm"));
        assert!(reg.upsert_entry("bad name", reg.get_entry("m").expect("entry")).is_err());
    }
}

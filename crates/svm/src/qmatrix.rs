//! The `Q` matrix abstraction behind the SMO solver, with a
//! LIBSVM-style LRU row cache.
//!
//! The dual problem's `Q` (`Qᵢⱼ = yᵢyⱼ k(xᵢ, xⱼ)` for SVC, the 2m×2m
//! block form for SVR, plain `K` for one-class) is n×n and often too
//! large to materialize. The solver therefore consumes it through the
//! [`QMatrix`] trait — whole rows at a time, because SMO's gradient
//! update reads `Q(t, i)` for *all* `t` at a fixed `i` — and this module
//! provides the implementations:
//!
//! * [`DenseQ`] — rows read from an already-materialized [`Matrix`],
//!   with optional label signs (`Q(i, j) = sᵢ sⱼ K(i, j)`); unsigned,
//!   unpermuted rows are borrowed zero-copy (the precomputed-Gram entry
//!   points, tests);
//! * [`CachedQ`] — the workhorse: wraps any [`QSource`] in an LRU row
//!   cache bounded by a byte budget, so the working set of an SMO run
//!   (typically a small fraction of all rows) is computed once.
//!
//! A [`QSource`] computes `Q` values from scratch through one gathered,
//! batched fill, [`QSource::fill_rows`]:
//!
//! * [`KernelQ`] — values computed on demand from a kernel and the raw
//!   samples, never materializing the n×n matrix (LIBSVM's mode);
//! * [`SvrQ`] — the 2m×2m SVR block structure over m samples, computing
//!   each underlying kernel value at most once per row and mirroring it
//!   with signs.
//!
//! On a cache miss, [`CachedQ`] hands all missing rows of a
//! [`QMatrix::rows_prefix`] request to `fill_rows` together, which
//! evaluates them in *one* sample-major pass over the data (each item
//! is loaded once per batch instead of once per row) on worker threads
//! (under the `parallel` feature). Every entry is one independent
//! kernel evaluation, so serial, parallel, batched and gathered fills
//! are bitwise identical, and a cached row is bitwise identical to a
//! recomputed one — caching can change solver timings but never
//! results.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::ops::Deref;
use std::rc::Rc;

use edm_kernels::Kernel;
use edm_linalg::Matrix;
use serde::Serialize;

/// Default row-cache budget (64 MiB), mirroring LIBSVM's order of
/// magnitude (its `-m` option defaults to 100 MB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Chunk size for parallel on-demand row fills: large enough that
/// per-chunk dispatch cost is negligible next to the kernel evaluations.
const Q_ROW_CHUNK: usize = 512;

/// One row of `Q`, either borrowed from backing storage or shared with
/// the row cache.
///
/// Dereferences to `&[f64]`. The `Shared` form keeps the row alive even
/// if the cache evicts it while the solver still holds the handle.
pub enum QRow<'a> {
    /// A row borrowed directly from a materialized matrix.
    Borrowed(&'a [f64]),
    /// A row shared with (or just computed by) a [`CachedQ`].
    Shared(Rc<[f64]>),
}

impl Deref for QRow<'_> {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            QRow::Borrowed(r) => r,
            QRow::Shared(r) => r,
        }
    }
}

/// Row-oriented view of the symmetric dual-problem matrix `Q`.
///
/// The solver fetches the two working-set rows once per iteration and
/// streams them through its gradient update; `Q(i, j)` point access is
/// just `row_prefix(i, j + 1)[j]`.
///
/// The shrinking heuristic renumbers variables so the active set is
/// always a prefix `0..active_size`. [`QMatrix::swap_index`] applies
/// that renumbering to the matrix view (and to any resident cache
/// rows), and row fetches ask for only the active prefix of a row so
/// shrunk iterations never pay for inactive columns.
pub trait QMatrix {
    /// Problem size (Q is `n × n`).
    fn n(&self) -> usize;

    /// The precomputed diagonal `Q(i, i)`.
    fn diag(&self) -> &[f64];

    /// Row `i` of `Q` with at least the first `len` entries valid; the
    /// returned slice may be shorter than `self.n()` but never shorter
    /// than `len`. A one-row [`QMatrix::rows_prefix`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()` or `len > self.n()`.
    fn row_prefix(&self, i: usize, len: usize) -> QRow<'_> {
        self.rows_prefix(&[i], len).pop().expect("one row requested, one row returned")
    }

    /// Several row prefixes at once: slot `r` of the result is row
    /// `idxs[r]` with at least the first `len` entries valid.
    ///
    /// [`CachedQ`] materializes all rows missing from its cache in
    /// *one* batched pass over the data (the hot case: WSS2's two
    /// working-set rows per iteration, and the solver's
    /// gradient-initialization and reconstruction sweeps). Batching
    /// never changes a row's contents — each returned row is bitwise
    /// identical to a lone `row_prefix` fetch.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.n()` or `len > self.n()`.
    fn rows_prefix(&self, idxs: &[usize], len: usize) -> Vec<QRow<'_>>;

    /// Renumbers variables `a` and `b` (rows *and* columns swap, since
    /// `Q` is symmetric): after the call, row `a` is the old row `b`
    /// with entries `a`/`b` exchanged, and `diag()` reflects the new
    /// order. Used by the solver's shrinking heuristic to keep the
    /// active set a contiguous prefix.
    ///
    /// Rows handed out *before* the swap keep the old numbering.
    ///
    /// # Panics
    ///
    /// Panics if `a >= self.n()` or `b >= self.n()`.
    fn swap_index(&mut self, a: usize, b: usize);
}

/// A strategy for computing `Q` values from scratch — what [`CachedQ`]
/// calls on a cache miss.
pub trait QSource {
    /// Problem size.
    fn n(&self) -> usize;

    /// Computes the diagonal `Q(i, i)` for all `i`.
    fn diag(&self) -> Vec<f64>;

    /// Writes `outs[r][t] = Q(rows[r], cols[t])`: the `cols` entries of
    /// every batch row, in one pass.
    ///
    /// Sources that stream the underlying data ([`KernelQ`], [`SvrQ`])
    /// compute *all* batch rows against each sample while it is
    /// cache-hot, so a B-row batch costs one pass over the data instead
    /// of B. Every cell is one independent evaluation, so batch
    /// composition, column order, and serial or parallel execution
    /// never change a value.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != outs.len()` or any output slice is not
    /// `cols.len()` long.
    fn fill_rows(&self, rows: &[usize], cols: &[usize], outs: &mut [&mut [f64]]);
}

/// `block[t * xs.len() + r] = k(xs[r], items[cols[t]])`: the
/// sample-major kernel block behind both sources' fills. Each column's
/// item is loaded once and evaluated against every batch row while
/// cache-hot, and a parallel chunk is a contiguous run of whole
/// columns.
fn kernel_block<S, K, I>(kernel: &K, items: &[I], xs: &[&S], cols: &[usize], block: &mut [f64])
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    let b = xs.len();
    debug_assert_eq!(block.len(), cols.len() * b);
    edm_par::for_each_chunk(block, Q_ROW_CHUNK * b, |c, chunk| {
        let t0 = c * Q_ROW_CHUNK;
        for (dt, cell) in chunk.chunks_exact_mut(b).enumerate() {
            let xt = items[cols[t0 + dt]].borrow();
            for (v, xi) in cell.iter_mut().zip(xs) {
                *v = kernel.eval(xi, xt);
            }
        }
    });
}

// ---------------------------------------------------------------------
// DenseQ: rows over a materialized matrix.
// ---------------------------------------------------------------------

/// [`QMatrix`] over an already-materialized symmetric matrix `K`, with
/// optional label signs: `Q(i, j) = sᵢ sⱼ K(i, j)`, or plain `K` when
/// `signs` is `None`. No cache is needed.
///
/// Unsigned rows are borrowed zero-copy until the first
/// [`QMatrix::swap_index`]; after that, and always when signed, a
/// fetch gathers the requested prefix through the permutation (an
/// O(len) copy per fetch, still no O(n²) duplicate of the matrix).
pub struct DenseQ<'a> {
    m: &'a Matrix,
    signs: Option<&'a [f64]>,
    diag: Vec<f64>,
    /// `perm[view index] = backing-matrix index`.
    perm: Vec<usize>,
    permuted: bool,
}

impl<'a> DenseQ<'a> {
    /// Wraps a square matrix; `signs`, when given, must be `±1` per
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not square or `signs` has the wrong length.
    pub fn new(m: &'a Matrix, signs: Option<&'a [f64]>) -> Self {
        assert!(m.is_square(), "Q must be square, got {}x{}", m.rows(), m.cols());
        if let Some(s) = signs {
            assert_eq!(s.len(), m.rows(), "signs length must match Q");
        }
        // Signs are ±1, so sᵢ² = 1 and the diagonal is K's.
        let diag = (0..m.rows()).map(|i| m[(i, i)]).collect();
        DenseQ { m, signs, diag, perm: (0..m.rows()).collect(), permuted: false }
    }
}

impl QMatrix for DenseQ<'_> {
    fn n(&self) -> usize {
        self.m.rows()
    }

    fn diag(&self) -> &[f64] {
        &self.diag
    }

    fn rows_prefix(&self, idxs: &[usize], len: usize) -> Vec<QRow<'_>> {
        let n = self.m.rows();
        assert!(len <= n, "prefix {len} out of bounds for n = {n}");
        let cols = &self.perm[..len];
        let row = |i: usize| {
            assert!(i < n, "row {i} out of bounds for n = {n}");
            let pi = self.perm[i];
            let src = self.m.row(pi);
            match self.signs {
                None if !self.permuted => QRow::Borrowed(src),
                None => QRow::Shared(cols.iter().map(|&t| src[t]).collect()),
                Some(s) => QRow::Shared(cols.iter().map(|&t| s[pi] * s[t] * src[t]).collect()),
            }
        };
        idxs.iter().map(|&i| row(i)).collect()
    }

    fn swap_index(&mut self, a: usize, b: usize) {
        let n = self.m.rows();
        assert!(a < n && b < n, "swap ({a}, {b}) out of bounds for n = {n}");
        if a == b {
            return;
        }
        self.perm.swap(a, b);
        self.diag.swap(a, b);
        self.permuted = true;
    }
}

// ---------------------------------------------------------------------
// KernelQ: rows computed on demand from a kernel over the raw samples.
// ---------------------------------------------------------------------

/// [`QSource`] that evaluates the kernel on demand — the Gram matrix is
/// never materialized, so memory stays `O(cache)` instead of `O(n²)`.
///
/// `Q(i, j) = k(xᵢ, xⱼ) · (sᵢ sⱼ)`, or plain `k` when `signs` is `None`.
/// A fill over `cols` costs `rows.len() · cols.len()` kernel
/// evaluations, run on worker threads (with the `parallel` feature);
/// each is independent, so serial and parallel fills are bitwise
/// identical.
pub struct KernelQ<'a, S: ?Sized, K, I> {
    kernel: &'a K,
    items: &'a [I],
    signs: Option<&'a [f64]>,
    _sample: PhantomData<&'a S>,
}

impl<'a, S, K, I> KernelQ<'a, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    /// Builds the source; `signs`, when given, must be `±1` per sample.
    ///
    /// # Panics
    ///
    /// Panics if `signs` has the wrong length.
    pub fn new(kernel: &'a K, items: &'a [I], signs: Option<&'a [f64]>) -> Self {
        if let Some(s) = signs {
            assert_eq!(s.len(), items.len(), "signs length must match items");
        }
        KernelQ { kernel, items, signs, _sample: PhantomData }
    }
}

impl<S, K, I> QSource for KernelQ<'_, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    fn n(&self) -> usize {
        self.items.len()
    }

    fn diag(&self) -> Vec<f64> {
        self.items.iter().map(|x| self.kernel.eval(x.borrow(), x.borrow())).collect()
    }

    fn fill_rows(&self, rows: &[usize], cols: &[usize], outs: &mut [&mut [f64]]) {
        assert_eq!(rows.len(), outs.len(), "one output slice per batch row");
        assert!(outs.iter().all(|o| o.len() == cols.len()), "one output cell per column");
        let b = rows.len();
        let xs: Vec<&S> = rows.iter().map(|&i| self.items[i].borrow()).collect();
        if b == 1 {
            // A lone row is its own sample-major block.
            kernel_block(self.kernel, self.items, &xs, cols, outs[0]);
        } else {
            let mut block = vec![0.0; cols.len() * b];
            kernel_block(self.kernel, self.items, &xs, cols, &mut block);
            for (r, out) in outs.iter_mut().enumerate() {
                for (t, v) in out.iter_mut().enumerate() {
                    *v = block[t * b + r];
                }
            }
        }
        if let Some(s) = self.signs {
            for (&i, out) in rows.iter().zip(outs.iter_mut()) {
                for (v, &j) in out.iter_mut().zip(cols) {
                    *v *= s[i] * s[j];
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// SvrQ: the 2m×2m block structure of the ε-SVR dual.
// ---------------------------------------------------------------------

/// [`QSource`] for the LIBSVM 2m-variable ε-SVR dual: variables
/// `0..m` are α (sign +1), `m..2m` are α* (sign −1), and
/// `Q(t, u) = s(t) s(u) K(base(t), base(u))` with `base(t) = t mod m`.
///
/// A fill evaluates each distinct base sample among its columns once
/// per row (in parallel) and mirrors the value with signs into every
/// column sharing that base, so a full `2m`-column row costs `m`
/// kernel evaluations and the block structure costs no extra kernel
/// work.
pub struct SvrQ<'a, S: ?Sized, K, I> {
    kernel: &'a K,
    items: &'a [I],
    _sample: PhantomData<&'a S>,
}

impl<'a, S, K, I> SvrQ<'a, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    /// Builds the source over `m` samples; the dual has `2m` variables.
    pub fn new(kernel: &'a K, items: &'a [I]) -> Self {
        SvrQ { kernel, items, _sample: PhantomData }
    }
}

impl<S, K, I> QSource for SvrQ<'_, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    fn n(&self) -> usize {
        2 * self.items.len()
    }

    fn diag(&self) -> Vec<f64> {
        let d: Vec<f64> =
            self.items.iter().map(|x| self.kernel.eval(x.borrow(), x.borrow())).collect();
        [d.as_slice(), d.as_slice()].concat()
    }

    fn fill_rows(&self, rows: &[usize], cols: &[usize], outs: &mut [&mut [f64]]) {
        assert_eq!(rows.len(), outs.len(), "one output slice per batch row");
        let m = self.items.len();
        let b = rows.len();
        // Columns `u` and `u + m` share one kernel value: evaluate each
        // distinct base once (`slot[base]` = its block column).
        let mut slot = vec![usize::MAX; m];
        let mut bases = Vec::new();
        for &u in cols {
            let bu = u % m;
            if slot[bu] == usize::MAX {
                slot[bu] = bases.len();
                bases.push(bu);
            }
        }
        let xs: Vec<&S> = rows.iter().map(|&t| self.items[t % m].borrow()).collect();
        let mut block = vec![0.0; bases.len() * b];
        kernel_block(self.kernel, self.items, &xs, &bases, &mut block);
        for (r, (&t, out)) in rows.iter().zip(outs.iter_mut()).enumerate() {
            assert_eq!(out.len(), cols.len(), "one output cell per column");
            let st = if t < m { 1.0 } else { -1.0 };
            for (v, &u) in out.iter_mut().zip(cols) {
                // IEEE negation is exact, so the α* mirror is bitwise
                // `s(t) s(u) K`.
                let w = st * block[slot[u % m] * b + r];
                *v = if u < m { w } else { -w };
            }
        }
    }
}
// ---------------------------------------------------------------------
// CachedQ: the LRU row cache.
// ---------------------------------------------------------------------

/// Hit/miss/eviction counters of a [`CachedQ`].
///
/// Exposed on trained models ([`SvcModel::cache_stats`](crate::SvcModel::cache_stats),
/// [`SvrModel::cache_stats`](crate::SvrModel::cache_stats),
/// [`OneClassModel::cache_stats`](crate::OneClassModel::cache_stats)) so
/// callers can see how the Q-row cache behaved during their training
/// run, and flushed into the `edm-trace` registry
/// (`svm.qcache.{hits,misses,evictions}`) when the cache is dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub struct CacheStats {
    /// Row requests served from the cache.
    pub hits: u64,
    /// Row requests that had to compute the row.
    pub misses: u64,
    /// Resident rows discarded to make room (always ≤ `misses`).
    pub evictions: u64,
}

impl CacheStats {
    /// Fraction of requests served from the cache (0 when untouched).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct CacheEntry {
    /// The cached row prefix: `data.len()` entries are valid, which may
    /// be fewer than `n` when the row was filled for a shrunk active
    /// set. A request for a longer prefix extends the row in place
    /// (keeping the already-computed entries bit-for-bit).
    data: Rc<[f64]>,
    /// Logical access time; smallest stamp = least recently used.
    stamp: u64,
}

struct CacheState {
    /// Slot per row index; `None` = not resident.
    entries: Vec<Option<CacheEntry>>,
    resident: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// LIBSVM-style LRU row cache over any [`QSource`].
///
/// Holds at most `budget_rows = cache_bytes / (8 n)` rows (at least 2
/// when caching is enabled; `cache_bytes == 0` disables caching
/// entirely). Eviction is exact LRU via access stamps; the O(n)
/// victim scan is negligible next to the O(n·d) row fill it avoids.
///
/// Rows are handed out as [`Rc`]-shared slices, so a row the solver
/// still holds survives its own eviction. Every miss is filled by
/// [`QSource::fill_rows`] over the view's columns `perm[start..len]`
/// (`start` is the end of any resident prefix being extended), and
/// each cell is one independent evaluation, so caching never changes
/// results — only how often rows are recomputed.
///
/// [`QMatrix::swap_index`] mirrors LIBSVM's cache handling: resident
/// rows long enough to cover both swapped columns get the two entries
/// exchanged in place; rows covering only the lower index can no
/// longer be represented and are dropped (counted as evictions).
pub struct CachedQ<S> {
    source: S,
    diag: Vec<f64>,
    budget_rows: usize,
    /// `perm[view index] = source index`.
    perm: Vec<usize>,
    state: RefCell<CacheState>,
}

impl<S: QSource> CachedQ<S> {
    /// Wraps `source` in a cache holding at most `cache_bytes` worth of
    /// rows. `cache_bytes == 0` disables caching (every access
    /// recomputes).
    pub fn new(source: S, cache_bytes: usize) -> Self {
        let n = source.n();
        let diag = source.diag();
        let budget_rows =
            if cache_bytes == 0 || n == 0 { 0 } else { (cache_bytes / (8 * n)).max(2).min(n) };
        CachedQ {
            source,
            diag,
            budget_rows,
            perm: (0..n).collect(),
            state: RefCell::new(CacheState {
                entries: (0..n).map(|_| None).collect(),
                resident: 0,
                clock: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Makes `data` the resident entry for (view-space) row `i` with
    /// the given access stamp, evicting the LRU row first if the budget
    /// requires it. No-op when caching is disabled.
    fn insert_row(&self, i: usize, data: &Rc<[f64]>, stamp: u64) {
        if self.budget_rows == 0 {
            return;
        }
        let mut st = self.state.borrow_mut();
        let replacing = st.entries[i].is_some();
        if !replacing && st.resident >= self.budget_rows {
            let victim = st
                .entries
                .iter()
                .enumerate()
                .filter_map(|(k, e)| e.as_ref().map(|e| (k, e.stamp)))
                .min_by_key(|&(_, s)| s)
                .map(|(k, _)| k);
            if let Some(v) = victim {
                st.entries[v] = None;
                st.resident -= 1;
                st.evictions += 1;
            }
        }
        st.entries[i] = Some(CacheEntry { data: Rc::clone(data), stamp });
        if !replacing {
            st.resident += 1;
        }
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        let st = self.state.borrow();
        CacheStats { hits: st.hits, misses: st.misses, evictions: st.evictions }
    }
}

impl<S> Drop for CachedQ<S> {
    /// Flushes this cache's lifetime counters into the global trace
    /// registry, so every training run's cache behaviour shows up in
    /// `svm.qcache.{hits,misses,evictions}` without the caller doing
    /// anything.
    fn drop(&mut self) {
        if !edm_trace::enabled() {
            return;
        }
        let st = self.state.borrow();
        if st.hits + st.misses > 0 {
            edm_trace::counter_add("svm.qcache.hits", st.hits);
            edm_trace::counter_add("svm.qcache.misses", st.misses);
            edm_trace::counter_add("svm.qcache.evictions", st.evictions);
        }
    }
}

impl<S: QSource> QMatrix for CachedQ<S> {
    fn n(&self) -> usize {
        self.diag.len()
    }

    fn diag(&self) -> &[f64] {
        &self.diag
    }

    fn rows_prefix(&self, idxs: &[usize], len: usize) -> Vec<QRow<'_>> {
        let n = self.diag.len();
        assert!(len <= n, "prefix {len} out of bounds for n = {n}");
        // Fast path: every requested row is resident with a long
        // enough prefix. This is the solver's steady state (a warm
        // cache serving the per-iteration working-set pair), so skip
        // the miss-classification machinery entirely; stamps and hit
        // counts advance exactly as the general path would.
        {
            let mut st = self.state.borrow_mut();
            let all_hit = idxs.iter().all(|&i| {
                assert!(i < n, "row {i} out of bounds for n = {n}");
                st.entries[i].as_ref().is_some_and(|e| e.data.len() >= len)
            });
            if all_hit {
                let mut out = Vec::with_capacity(idxs.len());
                for &i in idxs {
                    st.clock += 1;
                    st.hits += 1;
                    let stamp = st.clock;
                    let entry = st.entries[i].as_mut().expect("resident row checked above");
                    entry.stamp = stamp;
                    out.push(QRow::Shared(Rc::clone(&entry.data)));
                }
                return out;
            }
        }
        let mut results: Vec<Option<QRow<'_>>> = (0..idxs.len()).map(|_| None).collect();
        // Pass 1 (one cache borrow): stamp hits, classify misses.
        // `slots` collects every result position wanting the same row,
        // so duplicate indices are computed once.
        struct Miss {
            i: usize,
            stamp: u64,
            prior: Option<Rc<[f64]>>,
            slots: Vec<usize>,
        }
        let mut misses: Vec<Miss> = Vec::new();
        {
            let mut st = self.state.borrow_mut();
            'next: for (slot, &i) in idxs.iter().enumerate() {
                assert!(i < n, "row {i} out of bounds for n = {n}");
                st.clock += 1;
                let stamp = st.clock;
                for m in misses.iter_mut() {
                    if m.i == i {
                        // Duplicate of a pending miss: once the first
                        // fetch lands it would be resident, so the
                        // repeat is a hit.
                        st.hits += 1;
                        m.stamp = stamp;
                        m.slots.push(slot);
                        continue 'next;
                    }
                }
                if let Some(entry) = st.entries[i].as_mut() {
                    entry.stamp = stamp;
                    let data = Rc::clone(&entry.data);
                    if data.len() >= len {
                        st.hits += 1;
                        results[slot] = Some(QRow::Shared(data));
                        continue;
                    }
                    st.misses += 1;
                    misses.push(Miss { i, stamp, prior: Some(data), slots: vec![slot] });
                } else {
                    st.misses += 1;
                    misses.push(Miss { i, stamp, prior: None, slots: vec![slot] });
                }
            }
        }
        // Pass 2 (cache borrow released, so the possibly slow and
        // parallel fill never observes a live borrow): fill the misses.
        // Rows whose cached prefixes end at the same point share one
        // `fill_rows` pass over the columns they lack; each row's
        // contents are exactly what a lone fetch would have computed.
        let mut filled: Vec<Option<Rc<[f64]>>> = (0..misses.len()).map(|_| None).collect();
        let start_of = |m: &Miss| m.prior.as_ref().map_or(0, |p| p.len());
        let mut order: Vec<usize> = (0..misses.len()).collect();
        order.sort_by_key(|&p| start_of(&misses[p]));
        let mut batched_passes = 0u64;
        let mut g0 = 0;
        while g0 < order.len() {
            let start = start_of(&misses[order[g0]]);
            let mut g1 = g0;
            while g1 < order.len() && start_of(&misses[order[g1]]) == start {
                g1 += 1;
            }
            let group = &order[g0..g1];
            let mut bufs: Vec<Vec<f64>> = group
                .iter()
                .map(|&p| {
                    let mut buf = vec![0.0; len];
                    if let Some(prev) = &misses[p].prior {
                        buf[..start].copy_from_slice(prev);
                    }
                    buf
                })
                .collect();
            let rows: Vec<usize> = group.iter().map(|&p| self.perm[misses[p].i]).collect();
            let mut tails: Vec<&mut [f64]> = bufs.iter_mut().map(|buf| &mut buf[start..]).collect();
            self.source.fill_rows(&rows, &self.perm[start..len], &mut tails);
            if group.len() > 1 {
                batched_passes += 1;
            }
            for (&p, buf) in group.iter().zip(bufs) {
                filled[p] = Some(buf.into());
            }
            g0 = g1;
        }
        if batched_passes > 0 && edm_trace::enabled() {
            edm_trace::counter_add("svm.q.batch_fills", batched_passes);
        }
        // Insert in request order (matching what sequential fetches
        // would have done to the LRU state), then hand out the rows.
        for (m, data) in misses.iter().zip(&filled) {
            let data = data.as_ref().expect("every miss filled by its group");
            self.insert_row(m.i, data, m.stamp);
            for &slot in &m.slots {
                results[slot] = Some(QRow::Shared(Rc::clone(data)));
            }
        }
        results.into_iter().map(|r| r.expect("every slot is a hit or a filled miss")).collect()
    }

    fn swap_index(&mut self, a: usize, b: usize) {
        let n = self.diag.len();
        assert!(a < n && b < n, "swap ({a}, {b}) out of bounds for n = {n}");
        if a == b {
            return;
        }
        self.perm.swap(a, b);
        self.diag.swap(a, b);
        let st = self.state.get_mut();
        st.entries.swap(a, b);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut dropped = 0u64;
        for slot in st.entries.iter_mut() {
            let Some(entry) = slot else { continue };
            let len = entry.data.len();
            if len > hi {
                // Row covers both columns: exchange the two entries so
                // the cached contents match the new numbering.
                match Rc::get_mut(&mut entry.data) {
                    Some(d) => d.swap(lo, hi),
                    None => {
                        // A solver-held handle shares this row; leave
                        // the shared copy (old numbering) untouched.
                        let mut v = entry.data.to_vec();
                        v.swap(lo, hi);
                        entry.data = v.into();
                    }
                }
            } else if len > lo {
                // Covers `lo` but not `hi`: the prefix can no longer be
                // represented under the new numbering. Drop it (LIBSVM
                // does the same).
                *slot = None;
                dropped += 1;
            }
        }
        st.resident -= dropped as usize;
        st.evictions += dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edm_kernels::{gram_matrix, RbfKernel};

    fn cloud(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()]).collect()
    }

    /// Row `i` of `src` over every column, through the one fill.
    fn full_row(src: &impl QSource, i: usize) -> Vec<f64> {
        let cols: Vec<usize> = (0..src.n()).collect();
        let mut row = vec![0.0; cols.len()];
        src.fill_rows(&[i], &cols, &mut [&mut row]);
        row
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn kernel_q_matches_gram_closure() {
        let x = cloud(9);
        let y: Vec<f64> = (0..9).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let k = RbfKernel::new(0.7);
        let gram = gram_matrix(&k, &x);
        let src = KernelQ::<[f64], _, _>::new(&k, &x, Some(&y));
        for i in 0..9 {
            let row = full_row(&src, i);
            for j in 0..9 {
                let want = y[i] * y[j] * gram[(i, j)];
                assert!((row[j] - want).abs() < 1e-15, "Q({i},{j}) = {} want {want}", row[j]);
            }
        }
        let diag = src.diag();
        for i in 0..9 {
            assert!((diag[i] - gram[(i, i)]).abs() < 1e-15);
        }
    }

    #[test]
    fn svr_q_matches_block_formula() {
        let x = cloud(6);
        let m = x.len();
        let k = RbfKernel::new(1.1);
        let gram = gram_matrix(&k, &x);
        let sign = |t: usize| if t < m { 1.0 } else { -1.0 };
        let base = |t: usize| if t < m { t } else { t - m };
        let src = SvrQ::<[f64], _, _>::new(&k, &x);
        assert_eq!(src.n(), 2 * m);
        for t in 0..2 * m {
            let row = full_row(&src, t);
            for u in 0..2 * m {
                let want = sign(t) * sign(u) * gram[(base(t), base(u))];
                assert!((row[u] - want).abs() < 1e-15, "Q({t},{u}) = {} want {want}", row[u]);
            }
        }
        let diag = src.diag();
        for t in 0..2 * m {
            assert!((diag[t] - gram[(base(t), base(t))]).abs() < 1e-15);
        }
    }

    #[test]
    fn cached_rows_are_bitwise_identical_to_source() {
        let x = cloud(16);
        let k = RbfKernel::new(0.4);
        let cached = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 1 << 20);
        // Access pattern with revisits so both hit and miss paths run.
        for &i in &[0usize, 3, 0, 7, 3, 15, 0, 7] {
            let direct: Vec<f64> = x.iter().map(|xj| k.eval(&x[i], xj)).collect();
            assert_eq!(bits(&cached.row_prefix(i, 16)), bits(&direct));
        }
        let s = cached.stats();
        assert_eq!(s.misses, 4, "4 distinct rows touched");
        assert_eq!(s.hits, 4, "4 revisits served from cache");
        assert_eq!(s.evictions, 0, "budget was never exceeded");
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let (x, k) = (cloud(8), RbfKernel::new(1.0));
        // Budget of exactly 2 rows: 2 rows × 8 cols × 8 bytes = 128.
        let q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 128);
        q.row_prefix(0, 8); // miss — resident {0}
        q.row_prefix(1, 8); // miss — resident {0, 1}
        q.row_prefix(0, 8); // hit  — 0 now more recent than 1
        q.row_prefix(2, 8); // miss — evicts 1, resident {0, 2}
        q.row_prefix(0, 8); // hit
        q.row_prefix(1, 8); // miss — evicts 2 (was evicted itself before)
        let s = q.stats();
        assert_eq!(s.misses, 4);
        assert_eq!(s.hits, 2);
        assert_eq!(s.evictions, 2, "rows 1 then 2 were evicted");
        assert!((s.hit_rate() - 2.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (x, k) = (cloud(5), RbfKernel::new(1.0));
        let q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 0);
        for _ in 0..3 {
            q.row_prefix(2, 5);
        }
        let s = q.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 3);
        assert_eq!(s.evictions, 0, "nothing was ever resident");
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn dense_q_borrows_rows() {
        let gram = gram_matrix(&RbfKernel::new(1.0), &cloud(4));
        let q = DenseQ::new(&gram, None);
        assert_eq!(q.n(), 4);
        for i in 0..4 {
            let row = q.row_prefix(i, 4);
            assert!(matches!(row, QRow::Borrowed(_)));
            for j in 0..4 {
                assert_eq!(row[j], gram[(i, j)]);
            }
            assert_eq!(q.diag()[i], gram[(i, i)]);
        }
        // Signed rows are computed `sᵢ sⱼ K(i, j)`; the diagonal stays K's.
        let y = [1.0, -1.0, -1.0, 1.0];
        let q = DenseQ::new(&gram, Some(&y));
        for i in 0..4 {
            let row = q.row_prefix(i, 4);
            let want: Vec<f64> = (0..4).map(|j| y[i] * y[j] * gram[(i, j)]).collect();
            assert_eq!(bits(&row), bits(&want));
            assert_eq!(q.diag()[i].to_bits(), gram[(i, i)].to_bits());
        }
    }

    #[test]
    fn swap_index_permutes_rows_diag_and_cache() {
        let x = cloud(8);
        let y: Vec<f64> = (0..8).map(|i| if i % 3 == 0 { 1.0 } else { -1.0 }).collect();
        let k = RbfKernel::new(0.8);
        let gram = gram_matrix(&k, &x);
        let cached = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, Some(&y)), 1 << 20);
        let dense = DenseQ::new(&gram, Some(&y));
        let kernel_entry = |i: usize, j: usize| k.eval(&x[i], &x[j]) * (y[i] * y[j]);
        let dense_entry = |i: usize, j: usize| y[i] * y[j] * gram[(i, j)];
        let check = |mut q: Box<dyn QMatrix + '_>, entry: &dyn Fn(usize, usize) -> f64| {
            // Warm some rows before swapping so the in-cache swap path runs.
            q.row_prefix(1, 8);
            q.row_prefix(5, 8);
            q.row_prefix(2, 8);
            q.swap_index(1, 5);
            q.swap_index(0, 2);
            // View permutation: 0<->2 after 1<->5.
            let perm = [2usize, 5, 0, 3, 4, 1, 6, 7];
            for i in 0..8 {
                assert_eq!(q.diag()[i].to_bits(), gram[(perm[i], perm[i])].to_bits());
                let row = q.row_prefix(i, 8);
                for j in 0..8 {
                    assert_eq!(
                        row[j].to_bits(),
                        entry(perm[i], perm[j]).to_bits(),
                        "Q({i},{j}) after swap"
                    );
                }
            }
        };
        check(Box::new(cached), &kernel_entry);
        check(Box::new(dense), &dense_entry);
    }

    #[test]
    fn dense_q_swap_matches_reference_permutation() {
        let gram = gram_matrix(&RbfKernel::new(1.3), &cloud(6));
        let mut q = DenseQ::new(&gram, None);
        q.swap_index(0, 4);
        q.swap_index(2, 3);
        let perm = [4usize, 1, 3, 2, 0, 5];
        for i in 0..6 {
            assert_eq!(q.diag()[i].to_bits(), gram[(perm[i], perm[i])].to_bits());
            let row = q.row_prefix(i, 6);
            assert!(matches!(row, QRow::Shared(_)), "permuted rows are gathered");
            for j in 0..6 {
                assert_eq!(row[j].to_bits(), gram[(perm[i], perm[j])].to_bits());
            }
        }
        let pre = q.row_prefix(1, 3);
        assert_eq!(pre.len(), 3, "prefix fetch gathers only the prefix");
    }

    #[test]
    fn prefix_rows_extend_in_place() {
        let x = cloud(10);
        let k = RbfKernel::new(0.5);
        let q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 1 << 20);
        let full: Vec<f64> = x.iter().map(|xj| k.eval(&x[3], xj)).collect();
        let short = q.row_prefix(3, 4);
        assert_eq!(short.len(), 4);
        assert_eq!(bits(&short), bits(&full[..4]));
        // Extension keeps the cached prefix and computes the rest.
        let long = q.row_prefix(3, 10);
        assert_eq!(long.len(), 10);
        assert_eq!(bits(&long), bits(&full));
        // Now a full-length entry is resident: any prefix is a hit.
        q.row_prefix(3, 2);
        let s = q.stats();
        assert_eq!(s.misses, 2, "initial fill + extension");
        assert_eq!(s.hits, 1, "prefix served from the extended row");
    }

    #[test]
    fn swap_drops_short_rows_that_cover_only_lo() {
        let (x, k) = (cloud(8), RbfKernel::new(1.0));
        let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 1 << 20);
        q.row_prefix(0, 3); // covers column 1 but not column 5
        q.row_prefix(4, 1); // covers neither swapped column
        q.swap_index(1, 5);
        let s = q.stats();
        assert_eq!(s.evictions, 1, "row 0's prefix dropped, row 4's kept");
        // Re-fetching row 0 recomputes under the new numbering.
        let row = q.row_prefix(0, 8);
        let perm = [0usize, 5, 2, 3, 4, 1, 6, 7];
        for j in 0..8 {
            assert_eq!(row[j].to_bits(), k.eval(&x[perm[0]], &x[perm[j]]).to_bits());
        }
        // Row 4's 1-entry prefix is untouched by the swap and still hits.
        let pre = q.row_prefix(4, 1);
        assert_eq!(pre[0].to_bits(), k.eval(&x[4], &x[0]).to_bits());
        assert_eq!(q.stats().hits, 1);
    }

    #[test]
    fn gather_fill_matches_entry_oracle() {
        let x = cloud(7);
        let m = x.len();
        let y: Vec<f64> = (0..7).map(|i| if i < 4 { 1.0 } else { -1.0 }).collect();
        let k = RbfKernel::new(0.9);
        let kq = KernelQ::<[f64], _, _>::new(&k, &x, Some(&y));
        let sq = SvrQ::<[f64], _, _>::new(&k, &x);
        // KernelQ: gathered (with a repeated column), batched rows.
        let (rows, idx) = ([2usize, 6, 2], [5usize, 0, 3, 3, 6]);
        let mut outs = vec![vec![0.0; idx.len()]; rows.len()];
        kq.fill_rows(&rows, &idx, &mut outs.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>());
        for (&i, out) in rows.iter().zip(&outs) {
            let want: Vec<f64> =
                idx.iter().map(|&j| k.eval(&x[i], &x[j]) * (y[i] * y[j])).collect();
            assert_eq!(bits(out), bits(&want), "KernelQ row {i}");
        }
        // SvrQ: a gather hitting both blocks of one base (1 and 8).
        let sign = |t: usize| if t < m { 1.0 } else { -1.0 };
        let (rows2, idx2) = ([9usize, 2], [13usize, 1, 8, 0]);
        let mut outs2 = vec![vec![0.0; idx2.len()]; rows2.len()];
        sq.fill_rows(
            &rows2,
            &idx2,
            &mut outs2.iter_mut().map(Vec::as_mut_slice).collect::<Vec<_>>(),
        );
        for (&t, out) in rows2.iter().zip(&outs2) {
            let full = full_row(&sq, t);
            for (&u, v) in idx2.iter().zip(out) {
                let want = sign(t) * sign(u) * k.eval(&x[t % m], &x[u % m]);
                assert_eq!(v.to_bits(), full[u].to_bits(), "SvrQ gather vs full fill");
                assert_eq!(v.to_bits(), want.to_bits(), "SvrQ Q({t},{u})");
            }
        }
    }

    #[test]
    fn shared_row_survives_eviction() {
        let (x, k) = (cloud(8), RbfKernel::new(1.0));
        let q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 128); // 2-row budget
        let row0 = q.row_prefix(0, 8);
        let copy: Vec<f64> = row0.to_vec();
        q.row_prefix(1, 8);
        q.row_prefix(2, 8);
        q.row_prefix(3, 8); // row 0 long since evicted
        assert_eq!(q.stats().evictions, 2, "rows 0 and 1 were evicted");
        assert_eq!(&row0[..], &copy[..], "held row unchanged by eviction");
    }
}

//! The `Q` matrix abstraction behind the SMO solver, with a
//! LIBSVM-style LRU row cache.
//!
//! The dual problem's `Q` (`Qᵢⱼ = yᵢyⱼ k(xᵢ, xⱼ)` for SVC, the 2m×2m
//! block form for SVR, plain `K` for one-class) is n×n and often too
//! large to materialize. The solver therefore consumes it through the
//! [`QMatrix`] trait — whole rows at a time, because SMO's gradient
//! update reads `Q(t, i)` for *all* `t` at a fixed `i`. A fetch lends
//! its rows ([`Rows`]) for as long as the caller holds them, which is
//! until its next call on the matrix, so rows are read where they live.
//! This module provides the implementations:
//!
//! * [`DenseQ`] — rows read from an already-materialized [`Matrix`],
//!   with optional label signs (`Q(i, j) = sᵢ sⱼ K(i, j)`); unsigned,
//!   unpermuted rows are lent straight from the matrix (the
//!   precomputed-Gram entry points, tests);
//! * [`CachedQ`] — the workhorse: wraps any [`QSource`] in an LRU row
//!   cache bounded by a byte budget and held in one slab, so the
//!   working set of an SMO run (typically a small fraction of all rows)
//!   is computed once, and the budget's memory is released when the
//!   cache drops.
//!
//! A [`QSource`] computes `Q` values from scratch through one batched
//! fill, [`QSource::fill_rows`], and owns the view order the solver's
//! shrinking renumbers ([`QSource::swap_indices`]):
//!
//! * [`KernelQ`] — values computed on demand from a kernel and the raw
//!   samples, never materializing the n×n matrix (LIBSVM's mode). When
//!   the kernel packs a [`LanePanel`], the samples are packed once per
//!   fit and the panel follows the view order, so a fill scores a
//!   contiguous run of panel columns;
//! * [`SvrQ`] — the 2m×2m SVR block structure over m samples, computing
//!   each underlying kernel value at most once per row and mirroring it
//!   with signs.
//!
//! On a cache miss, [`CachedQ`] hands all missing rows of a
//! [`QMatrix::rows_prefix`] request to `fill_rows` together, which
//! evaluates them in *one* sample-major pass over the data (each item
//! is loaded once per batch instead of once per row, and each row
//! scores a chunk of items with one `Kernel::eval_panel` or
//! `Kernel::eval_many` call). The chunks are shared with the fit's
//! [`Team`] of parked helper threads (under the `parallel` feature),
//! which are woken only for fills that outweigh the wake-up; the chunks
//! the caller runs write straight into the cache's slab. Every entry is
//! bitwise one independent kernel evaluation, so caller-only, shared,
//! batched, packed and gathered fills are bitwise identical, and a
//! cached row is bitwise identical to a recomputed one — caching can
//! change solver timings but never results.

use std::borrow::Borrow;
use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Arc;

use edm_kernels::Kernel;
use edm_linalg::{LanePanel, Matrix, LANES};
use edm_par::Team;
use serde::Serialize;

/// Default row-cache budget (64 MiB), mirroring LIBSVM's order of
/// magnitude (its `-m` option defaults to 100 MB).
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Smallest row slab a [`CachedQ`] allocates (the untouched rest is
/// address space only): just over glibc's largest dynamic mmap
/// threshold (32 MiB on 64-bit hosts). A block that size is always
/// mapped of its own, zeroed lazily, and unmapped when freed without
/// raising the threshold; freeing a smaller mapped block would raise it
/// and send the process's later large allocations to the heap, which
/// is rarely given back.
const MIN_SLAB_BYTES: usize = (32 << 20) + (64 << 10);

/// Rows of `Q` lent by [`QMatrix::rows_prefix`] for the length of one
/// fetch.
///
/// Row `r` is the `len`-entry prefix of row `idxs[r]`, read where it
/// lives: in the cache's row slab, in a materialized matrix, or in a
/// buffer the matrix reuses between fetches. The loan ends before the
/// next fetch or [`QMatrix::swap_indices`].
#[derive(Debug, Clone, Copy)]
pub struct Rows<'a> {
    buf: &'a [f64],
    starts: &'a [usize],
    len: usize,
}

impl<'a> Rows<'a> {
    /// Row `r` of the fetch: the prefix of row `idxs[r]`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= idxs.len()`.
    pub fn row(&self, r: usize) -> &'a [f64] {
        &self.buf[self.starts[r]..][..self.len]
    }

    /// The fetched rows in request order.
    pub fn iter(&self) -> impl Iterator<Item = &'a [f64]> {
        let Rows { buf, starts, len } = *self;
        starts.iter().map(move |&s| &buf[s..][..len])
    }
}

/// Row-oriented view of the symmetric dual-problem matrix `Q`.
///
/// The solver fetches the two working-set rows once per iteration and
/// streams them through its gradient update; `Q(i, j)` point access is
/// just `row_prefix(i, j + 1)[j]`.
///
/// The shrinking heuristic renumbers variables so the active set is
/// always a prefix `0..active_size`. [`QMatrix::swap_indices`] applies
/// one shrink pass's renumbering to the matrix view (and to any
/// resident cache rows), and row fetches ask for only the active prefix
/// of a row so shrunk iterations never pay for inactive columns.
pub trait QMatrix {
    /// Problem size (Q is `n × n`).
    fn n(&self) -> usize;

    /// The precomputed diagonal `Q(i, i)`.
    fn diag(&self) -> &[f64];

    /// The first `len` entries of row `i` of `Q`. A one-row
    /// [`QMatrix::rows_prefix`].
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.n()` or `len > self.n()`.
    fn row_prefix(&mut self, i: usize, len: usize) -> &[f64] {
        self.rows_prefix(&[i], len).row(0)
    }

    /// Several row prefixes at once: row `r` of the result is the first
    /// `len` entries of row `idxs[r]`, lent until the next call.
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
    fn rows_prefix(&mut self, idxs: &[usize], len: usize) -> Rows<'_>;

    /// Renumbers variables by the swaps `(a, b)`, in order (rows *and*
    /// columns swap, since `Q` is symmetric): after a swap, row `a` is
    /// the old row `b` with entries `a`/`b` exchanged, and `diag()`
    /// reflects the new order. The solver's shrinking heuristic passes
    /// each pass's swaps in one call to keep the active set a
    /// contiguous prefix. The result is exactly that of applying the
    /// swaps one at a time.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.n()`.
    fn swap_indices(&mut self, swaps: &[(usize, usize)]);
}

/// A strategy for computing `Q` values from scratch — what [`CachedQ`]
/// calls on a cache miss.
///
/// A source owns the *view order*: the numbering of variables that the
/// solver's shrinking permutes through [`QSource::swap_indices`]. Rows
/// and columns of a fill are view indices, and a fill's columns are
/// always a contiguous view range, which a source keeping its data in
/// view order ([`KernelQ`]'s lane panel) scores as one run.
pub trait QSource {
    /// Problem size.
    fn n(&self) -> usize;

    /// Computes the diagonal `Q(i, i)` for every view index `i`.
    fn diag(&self) -> Vec<f64>;

    /// Writes `outs[r][t] = Q(rows[r], cols.start + t)`: the `cols`
    /// entries of every batch row, in one pass.
    ///
    /// Sources that stream the underlying data ([`KernelQ`], [`SvrQ`])
    /// compute *all* batch rows against each sample while it is
    /// cache-hot, so a B-row batch costs one pass over the data instead
    /// of B. Every cell is one independent evaluation, so batch
    /// composition, view order, and serial or parallel execution never
    /// change a value.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != outs.len()`, any output slice is not
    /// `cols.len()` long, or an index is `>= self.n()`.
    fn fill_rows(&self, rows: &[usize], cols: Range<usize>, outs: &mut [&mut [f64]]);

    /// Renumbers the view by the swaps `(a, b)`, in order, as
    /// [`QMatrix::swap_indices`] does for the matrix.
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= self.n()`.
    fn swap_indices(&mut self, swaps: &[(usize, usize)]);
}

// ---------------------------------------------------------------------
// DenseQ: rows over a materialized matrix.
// ---------------------------------------------------------------------

/// [`QMatrix`] over an already-materialized symmetric matrix `K`, with
/// optional label signs: `Q(i, j) = sᵢ sⱼ K(i, j)`, or plain `K` when
/// `signs` is `None`. No cache is needed.
///
/// Unsigned rows are lent straight from the matrix until the first
/// renumbering ([`QMatrix::swap_indices`]); after that, and always
/// when signed, a fetch gathers the requested prefixes through the
/// permutation into one reused buffer (an O(len) copy per row, never
/// an O(n²) duplicate of the matrix).
pub struct DenseQ<'a> {
    m: &'a Matrix,
    signs: Option<&'a [f64]>,
    diag: Vec<f64>,
    /// `perm[view index] = backing-matrix index`.
    perm: Vec<usize>,
    permuted: bool,
    /// Gathered rows of the current fetch.
    buf: Vec<f64>,
    starts: Vec<usize>,
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
        let perm = (0..m.rows()).collect();
        DenseQ { m, signs, diag, perm, permuted: false, buf: Vec::new(), starts: Vec::new() }
    }
}

impl QMatrix for DenseQ<'_> {
    fn n(&self) -> usize {
        self.m.rows()
    }

    fn diag(&self) -> &[f64] {
        &self.diag
    }

    fn rows_prefix(&mut self, idxs: &[usize], len: usize) -> Rows<'_> {
        let n = self.m.rows();
        assert!(len <= n, "prefix {len} out of bounds for n = {n}");
        for &i in idxs {
            assert!(i < n, "row {i} out of bounds for n = {n}");
        }
        self.starts.clear();
        if self.signs.is_none() && !self.permuted {
            self.starts.extend(idxs.iter().map(|&i| i * n));
            return Rows { buf: self.m.as_slice(), starts: &self.starts, len };
        }
        self.buf.clear();
        let cols = &self.perm[..len];
        for &i in idxs {
            let pi = self.perm[i];
            let src = self.m.row(pi);
            self.starts.push(self.buf.len());
            match self.signs {
                None => self.buf.extend(cols.iter().map(|&t| src[t])),
                Some(s) => self.buf.extend(cols.iter().map(|&t| s[pi] * s[t] * src[t])),
            }
        }
        Rows { buf: &self.buf, starts: &self.starts, len }
    }

    fn swap_indices(&mut self, swaps: &[(usize, usize)]) {
        let n = self.m.rows();
        for &(a, b) in swaps {
            assert!(a < n && b < n, "swap ({a}, {b}) out of bounds for n = {n}");
            if a != b {
                self.perm.swap(a, b);
                self.diag.swap(a, b);
                self.permuted = true;
            }
        }
    }
}

// ---------------------------------------------------------------------
// KernelQ: rows computed on demand from a kernel over the raw samples.
// ---------------------------------------------------------------------

/// Columns per chunk of a kernel-block fill, the unit a [`Team`]
/// hands out: large enough that a chunk's hand-out and copy-out are
/// negligible next to its kernel evaluations, small enough that the
/// chunk's samples (512 × 32 features = 128 KiB) stay cache-resident
/// while every row of the batch scores them, and that a 5120-column
/// row splits into ten chunks to share. A multiple of [`LANES`], so
/// chunk boundaries fall between lane groups.
const FILL_CHUNK: usize = 512;

/// Runs `body` with the team a fit's fills over `m` distinct samples
/// go through: parked helpers ([`edm_par::team`]) when a row spans
/// more than one chunk, a solo team otherwise. A one-chunk fill has
/// nothing to share, and opening and closing a one-helper team costs
/// about 65 µs (2-vCPU VM), 2 % of a 300-sample fit.
pub(crate) fn fill_team<'a, R>(m: usize, body: impl FnOnce(&Team<'a>) -> R) -> R {
    if m > FILL_CHUNK {
        edm_par::team(body)
    } else {
        body(&Team::solo())
    }
}

/// Fills the `cols` block of every output row through `team`:
/// `score(cs, runs)` writes columns `cs` (a sub-range of `cols`) of
/// every row, `runs[r]` being row `r`'s `cs.len()` cells.
///
/// The block is computed sample-major: each chunk of about
/// `FILL_CHUNK` columns (boundaries aligned to lane groups) is scored
/// against *every* row while it is cache-hot, so a B-row batch streams
/// the data once instead of B times. A chunk is one team job; `score`
/// borrows only what outlives the team and owns its per-fill data.
/// Chunks the caller runs write straight into `outs`; a helper's chunk
/// returns its values, which are copied in here. Each cell is one
/// kernel evaluation (and the same sign product), so the result is
/// bitwise independent of batch composition and of which thread ran
/// which chunk.
fn fill_block<'a>(
    team: &Team<'a>,
    cols: Range<usize>,
    outs: &mut [&mut [f64]],
    score: impl Fn(Range<usize>, &mut [&mut [f64]]) + Send + Sync + 'a,
) {
    assert!(outs.iter().all(|o| o.len() == cols.len()), "one output cell per column");
    if outs.is_empty() || cols.is_empty() {
        return;
    }
    let base = cols.start - cols.start % LANES;
    let chunk = move |c: usize| {
        (base + c * FILL_CHUNK).max(cols.start)..(base + (c + 1) * FILL_CHUNK).min(cols.end)
    };
    let rows = outs.len();
    let score = Arc::new(score);
    let posted = Arc::clone(&score);
    let theirs = team.map_local(
        (cols.end - base).div_ceil(FILL_CHUNK),
        move |c| {
            let cs = chunk(c);
            let mut values = vec![0.0; rows * cs.len()];
            let mut runs: Vec<&mut [f64]> = values.chunks_exact_mut(cs.len()).collect();
            posted(cs, &mut runs);
            values
        },
        |c| {
            let cs = chunk(c);
            let at = cs.start - cols.start..cs.end - cols.start;
            let mut runs: Vec<&mut [f64]> = outs.iter_mut().map(|o| &mut o[at.clone()]).collect();
            score(cs, &mut runs);
        },
    );
    for (c, values) in theirs {
        let cs = chunk(c);
        let at = cs.start - cols.start..cs.end - cols.start;
        for (out, run) in outs.iter_mut().zip(values.chunks_exact(cs.len())) {
            out[at.clone()].copy_from_slice(run);
        }
    }
}

/// What a [`KernelQ`] keeps in view order, shared with the fill jobs
/// of its team (an [`Arc`]: the jobs outlive the `&self` of a fill,
/// and a renumbering copies it only if a late helper still holds one).
#[derive(Clone)]
struct View {
    /// `perm[view index] = sample index`.
    perm: Vec<usize>,
    /// Label signs by view index.
    signs: Option<Vec<f64>>,
    /// The samples packed by view index, when the kernel packs.
    panel: Option<LanePanel>,
}

/// [`QSource`] that evaluates the kernel on demand — the Gram matrix is
/// never materialized, so memory stays `O(cache)` instead of `O(n²)`.
///
/// `Q(i, j) = k(xᵢ, xⱼ) · (sᵢ sⱼ)`, or plain `k` when `signs` is `None`.
/// A fill over `cols` costs `rows.len() · cols.len()` kernel
/// evaluations. When the kernel packs a [`LanePanel`]
/// ([`Kernel::pack_panel`]), the samples are packed once, kept in the
/// view order (each renumbering swaps panel columns, `d` values per
/// swap), and a fill's contiguous view range is scored straight from
/// the panel ([`Kernel::eval_panel`]); other kernels gather the range's
/// samples per chunk ([`Kernel::eval_many`]). Built
/// [`KernelQ::with_team`], a fill is split into column chunks shared
/// with the team's parked helpers; otherwise it runs on the caller.
/// Each evaluation is independent, so every path gives bitwise
/// identical rows.
pub struct KernelQ<'a, S: ?Sized, K, I> {
    kernel: &'a K,
    items: &'a [I],
    view: Arc<View>,
    team: Team<'a>,
    _sample: PhantomData<&'a S>,
}

impl<'a, S, K, I> KernelQ<'a, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    /// Builds the source; `signs`, when given, must be `±1` per sample.
    /// Packs the samples when the kernel packs a panel. Fills run on
    /// the caller until [`KernelQ::with_team`].
    ///
    /// # Panics
    ///
    /// Panics if `signs` has the wrong length.
    pub fn new(kernel: &'a K, items: &'a [I], signs: Option<&'a [f64]>) -> Self {
        if let Some(s) = signs {
            assert_eq!(s.len(), items.len(), "signs length must match items");
        }
        let refs: Vec<&S> = items.iter().map(Borrow::borrow).collect();
        let view = View {
            perm: (0..items.len()).collect(),
            signs: signs.map(<[f64]>::to_vec),
            panel: kernel.pack_panel(&refs),
        };
        KernelQ { kernel, items, view: Arc::new(view), team: Team::solo(), _sample: PhantomData }
    }

    /// Fills rows through `team` (builder-style): each fill that
    /// outweighs a hand-off is shared with its parked helpers.
    pub fn with_team(self, team: &Team<'a>) -> Self {
        KernelQ { team: team.clone(), ..self }
    }
}

impl<'a, S, K, I> QSource for KernelQ<'a, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    fn n(&self) -> usize {
        self.items.len()
    }

    fn diag(&self) -> Vec<f64> {
        let x = |i: usize| self.items[i].borrow();
        self.view.perm.iter().map(|&i| self.kernel.eval(x(i), x(i))).collect()
    }

    fn fill_rows(&self, rows: &[usize], cols: Range<usize>, outs: &mut [&mut [f64]]) {
        assert_eq!(rows.len(), outs.len(), "one output slice per batch row");
        let (kernel, items) = (self.kernel, self.items);
        let view = Arc::clone(&self.view);
        let xs: Vec<&'a S> = rows.iter().map(|&i| items[view.perm[i]].borrow()).collect();
        let row_signs: Option<Vec<f64>> =
            view.signs.as_ref().map(|s| rows.iter().map(|&i| s[i]).collect());
        fill_block(&self.team, cols, outs, move |cs, runs| {
            match &view.panel {
                Some(panel) => {
                    for (x, run) in xs.iter().zip(runs.iter_mut()) {
                        kernel.eval_panel(x, panel, cs.clone(), run);
                    }
                }
                None => {
                    let bs: Vec<&S> =
                        view.perm[cs.clone()].iter().map(|&j| items[j].borrow()).collect();
                    for (x, run) in xs.iter().zip(runs.iter_mut()) {
                        kernel.eval_many(x, &bs, run);
                    }
                }
            }
            if let (Some(row_signs), Some(s)) = (&row_signs, &view.signs) {
                for (si, run) in row_signs.iter().zip(runs.iter_mut()) {
                    for (v, sj) in run.iter_mut().zip(&s[cs.clone()]) {
                        *v *= si * sj;
                    }
                }
            }
        });
    }

    fn swap_indices(&mut self, swaps: &[(usize, usize)]) {
        let view = Arc::make_mut(&mut self.view);
        let n = view.perm.len();
        for &(a, b) in swaps {
            assert!(a < n && b < n, "swap ({a}, {b}) out of bounds for n = {n}");
            view.perm.swap(a, b);
            if let Some(s) = &mut view.signs {
                s.swap(a, b);
            }
        }
        if let Some(panel) = &mut view.panel {
            panel.swap_indices(swaps);
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
/// per row (gathered, [`Kernel::eval_many`], through the team set by
/// [`SvrQ::with_team`], as for [`KernelQ`]) and mirrors the value with
/// signs into every column sharing that base, so a full `2m`-column
/// row costs `m` kernel evaluations and the block structure costs no
/// extra kernel work.
pub struct SvrQ<'a, S: ?Sized, K, I> {
    kernel: &'a K,
    items: &'a [I],
    /// `perm[view index] = variable index` (`0..2m`).
    perm: Vec<usize>,
    team: Team<'a>,
    _sample: PhantomData<&'a S>,
}

impl<'a, S, K, I> SvrQ<'a, S, K, I>
where
    S: Sync + ?Sized,
    K: Kernel<S>,
    I: Borrow<S> + Sync,
{
    /// Builds the source over `m` samples; the dual has `2m` variables.
    /// Fills run on the caller until [`SvrQ::with_team`].
    pub fn new(kernel: &'a K, items: &'a [I]) -> Self {
        let perm = (0..2 * items.len()).collect();
        SvrQ { kernel, items, perm, team: Team::solo(), _sample: PhantomData }
    }

    /// Fills rows through `team` (builder-style), as
    /// [`KernelQ::with_team`].
    pub fn with_team(self, team: &Team<'a>) -> Self {
        SvrQ { team: team.clone(), ..self }
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
        let m = self.items.len();
        let d: Vec<f64> =
            self.items.iter().map(|x| self.kernel.eval(x.borrow(), x.borrow())).collect();
        self.perm.iter().map(|&t| d[t % m]).collect()
    }

    fn fill_rows(&self, rows: &[usize], cols: Range<usize>, outs: &mut [&mut [f64]]) {
        assert_eq!(rows.len(), outs.len(), "one output slice per batch row");
        let (kernel, items) = (self.kernel, self.items);
        let m = items.len();
        let vars = &self.perm[cols];
        // Columns `u` and `u + m` share one kernel value: evaluate each
        // distinct base once (`slot[base]` = its block column).
        let mut slot = vec![usize::MAX; m];
        let mut bases = Vec::new();
        for &u in vars {
            let bu = u % m;
            if slot[bu] == usize::MAX {
                slot[bu] = bases.len();
                bases.push(bu);
            }
        }
        let xs: Vec<&S> = rows.iter().map(|&t| items[self.perm[t] % m].borrow()).collect();
        let mut block = vec![vec![0.0; bases.len()]; rows.len()];
        let mut block_rows: Vec<&mut [f64]> = block.iter_mut().map(Vec::as_mut_slice).collect();
        let width = bases.len();
        fill_block(&self.team, 0..width, &mut block_rows, move |cs, runs| {
            let bs: Vec<&S> = bases[cs].iter().map(|&j| items[j].borrow()).collect();
            for (x, run) in xs.iter().zip(runs.iter_mut()) {
                kernel.eval_many(x, &bs, run);
            }
        });
        for ((&t, k), out) in rows.iter().zip(&block).zip(outs.iter_mut()) {
            assert_eq!(out.len(), vars.len(), "one output cell per column");
            let st = if self.perm[t] < m { 1.0 } else { -1.0 };
            for (v, &u) in out.iter_mut().zip(vars) {
                // IEEE negation is exact, so the α* mirror is bitwise
                // `s(t) s(u) K`.
                let w = st * k[slot[u % m]];
                *v = if u < m { w } else { -w };
            }
        }
    }

    fn swap_indices(&mut self, swaps: &[(usize, usize)]) {
        let n = self.perm.len();
        for &(a, b) in swaps {
            assert!(a < n && b < n, "swap ({a}, {b}) out of bounds for n = {n}");
            self.perm.swap(a, b);
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

/// A resident row: the `len`-entry valid prefix of slab slot `slot`.
/// A request for a longer prefix extends the row in place (keeping the
/// already-computed entries bit-for-bit).
#[derive(Debug, Clone, Copy)]
struct Entry {
    slot: usize,
    len: usize,
    /// Logical access time; smallest stamp = least recently used.
    stamp: u64,
}

/// One distinct row of a fetch that missed the fast path.
struct Want {
    /// View-space row index.
    i: usize,
    miss: bool,
    /// Stamp a miss is inserted with (its last request's).
    stamp: u64,
    /// The slot and valid length of the row's data when the fetch
    /// began: all of a hit, the prefix a miss extends.
    src: Option<(usize, usize)>,
    /// The slot holding the row when the fetch ends, if it is resident.
    home: Option<usize>,
    /// A scratch slot past the budget, for a row lent from scratch or
    /// staged out of a slot that changed hands.
    stage: Option<usize>,
}

/// LIBSVM-style LRU row cache over any [`QSource`].
///
/// Holds at most `budget_rows = cache_bytes / (8 n)` rows (at least 2
/// when caching is enabled; `cache_bytes == 0` disables caching
/// entirely). Eviction is exact LRU via access stamps; the O(n)
/// victim scan is negligible next to the O(n·d) row fill it avoids.
///
/// Resident rows live in one slab of `budget_rows` slots of `n` values,
/// allocated zeroed when the cache is built and freed when the cache
/// drops. The allocation is at least `MIN_SLAB_BYTES` (just over
/// 32 MiB), so the allocator maps it fresh (its pages are committed
/// only as slots fill) and unmaps it on drop. Each resident row owns
/// one slot, and an evicted row's slot is reused in place by the row
/// that evicted it. Fetches lend rows out of the slab: a hit copies
/// nothing, and a miss is filled straight into its slot by
/// [`QSource::fill_rows`] over the view's columns `start..len`
/// (`start` is the end of any resident prefix being extended). Rows
/// that cannot stay resident until the fetch ends — evicted by a later
/// row of the same batch, or with caching disabled — are lent from
/// scratch slots past the budget instead. Each cell is one independent
/// evaluation, so caching never changes results — only how often rows
/// are recomputed.
///
/// [`QMatrix::swap_indices`] mirrors LIBSVM's cache handling, swap by
/// swap: resident rows long enough to cover both swapped columns get
/// the two entries exchanged in place; rows covering only the lower
/// index can no longer be represented and are dropped (counted as
/// evictions). A swap's effect on a row depends only on the row's
/// valid length, so a whole pass is applied in one sweep over the
/// resident rows, each taking the pass's swaps in order, followed by
/// one permutation of the row table; the source renumbers its own view
/// ([`QSource::swap_indices`]).
pub struct CachedQ<S> {
    source: S,
    diag: Vec<f64>,
    budget_rows: usize,
    /// Slots of `n` values: `budget_rows` for resident rows, then
    /// scratch slots for the current fetch.
    slab: Vec<f64>,
    /// Slots no resident row holds.
    free: Vec<usize>,
    /// Per view-space row; `None` = not resident.
    entries: Vec<Option<Entry>>,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// `Q` entries computed by fills: rows × columns per fill.
    evals: u64,
    /// Where each row of the current fetch starts in the slab.
    starts: Vec<usize>,
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
            slab: if budget_rows == 0 {
                Vec::new()
            } else {
                vec![0.0; (budget_rows * n).max(MIN_SLAB_BYTES / 8)]
            },
            // Popped from the back: slots fill from the front.
            free: (0..budget_rows).rev().collect(),
            entries: vec![None; n],
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
            evals: 0,
            starts: Vec::new(),
        }
    }

    /// Hit/miss/eviction counters so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats { hits: self.hits, misses: self.misses, evictions: self.evictions }
    }

    /// Makes view-space row `i` resident with the given stamp and a
    /// `len`-entry prefix, evicting the LRU row first if the budget
    /// requires it. A row already resident keeps its slot. No-op when
    /// caching is disabled.
    fn insert(&mut self, i: usize, len: usize, stamp: u64) {
        if self.budget_rows == 0 {
            return;
        }
        let slot = if let Some(e) = self.entries[i] {
            e.slot
        } else if let Some(slot) = self.free.pop() {
            slot
        } else {
            let (victim, _) = self
                .entries
                .iter()
                .enumerate()
                .filter_map(|(k, e)| e.map(|e| (k, e.stamp)))
                .min_by_key(|&(_, s)| s)
                .expect("a full cache has a resident row");
            self.evictions += 1;
            self.entries[victim].take().expect("victim is resident").slot
        };
        self.entries[i] = Some(Entry { slot, len, stamp });
    }

    /// The fetch behind [`QMatrix::rows_prefix`] when some row misses:
    /// stamps, counts, evicts and inserts exactly as a sequence of
    /// single-row fetches would, fills the misses, and records in
    /// `self.starts` where each requested row is lent from.
    fn fetch(&mut self, idxs: &[usize], len: usize) {
        let n = self.diag.len();
        // Pass 1: stamp hits, classify misses. Repeats of a row map to
        // one `Want`; a repeat of a pending miss is a hit, since once
        // the first fetch lands the row would be resident.
        let mut wants: Vec<Want> = Vec::new();
        let mut want_of = Vec::with_capacity(idxs.len());
        for &i in idxs {
            assert!(i < n, "row {i} out of bounds for n = {n}");
            self.clock += 1;
            let stamp = self.clock;
            if let Some(w) = wants.iter().position(|w| w.i == i) {
                self.hits += 1;
                match self.entries[i].as_mut() {
                    Some(e) if !wants[w].miss => e.stamp = stamp,
                    _ => wants[w].stamp = stamp,
                }
                want_of.push(w);
                continue;
            }
            let src = self.entries[i].as_mut().map(|e| {
                e.stamp = stamp;
                (e.slot, e.len)
            });
            let miss = src.is_none_or(|(_, l)| l < len);
            if miss {
                self.misses += 1;
            } else {
                self.hits += 1;
            }
            want_of.push(wants.len());
            wants.push(Want { i, miss, stamp, src, home: None, stage: None });
        }
        // Pass 2: insert the misses in request order (what sequential
        // fetches would do to the LRU state). Only then is it known
        // which rows stay resident: a later insert may evict a row this
        // fetch lends.
        for w in wants.iter().filter(|w| w.miss) {
            self.insert(w.i, len, w.stamp);
        }
        let mut staged = self.budget_rows;
        for w in &mut wants {
            w.home = self.entries[w.i].map(|e| e.slot);
            if w.home.is_none() || w.src.is_some_and(|(slot, _)| w.home != Some(slot)) {
                w.stage = Some(staged);
                staged += 1;
            }
        }
        if self.slab.len() < staged * n {
            self.slab.resize(staged * n, 0.0);
        }
        // Stage every row whose slot changes hands out of the slab
        // before any slot is written, then move staged prefixes into
        // their new slots (only a miss can have one: a hit is never
        // re-inserted, so it keeps its slot or loses it).
        let keep = |w: &Want| w.src.map_or(0, |(_, valid)| valid.min(len));
        for w in &wants {
            if let (Some((slot, _)), Some(to)) = (w.src, w.stage) {
                self.slab.copy_within(slot * n..slot * n + keep(w), to * n);
            }
        }
        for w in &wants {
            if let (Some(from), Some(home)) = (w.stage, w.home) {
                self.slab.copy_within(from * n..from * n + keep(w), home * n);
            }
        }
        // Pass 3: fill the misses. Rows whose valid prefixes end at the
        // same point share one `fill_rows` pass over the columns they
        // lack, each written straight into the slot it is lent from.
        let lent_from = |w: &Want| w.home.or(w.stage).expect("a row is resident or staged");
        let start_of = |w: &Want| w.src.map_or(0, |(_, valid)| valid);
        let mut order: Vec<usize> = (0..wants.len()).filter(|&w| wants[w].miss).collect();
        order.sort_by_key(|&w| start_of(&wants[w]));
        let mut batched_passes = 0u64;
        for group in order.chunk_by(|&a, &b| start_of(&wants[a]) == start_of(&wants[b])) {
            let start = start_of(&wants[group[0]]);
            let rows: Vec<usize> = group.iter().map(|&w| wants[w].i).collect();
            let slots: Vec<usize> = group.iter().map(|&w| lent_from(&wants[w])).collect();
            let mut tails: Vec<&mut [f64]> = rows_mut(&mut self.slab, n, &slots)
                .into_iter()
                .map(|row| &mut row[start..len])
                .collect();
            self.source.fill_rows(&rows, start..len, &mut tails);
            self.evals += (rows.len() * (len - start)) as u64;
            if group.len() > 1 {
                batched_passes += 1;
            }
        }
        if batched_passes > 0 && edm_trace::enabled() {
            edm_trace::counter_add("svm.q.batch_fills", batched_passes);
        }
        self.starts.extend(want_of.iter().map(|&w| lent_from(&wants[w]) * n));
    }
}

/// Disjoint mutable views of the `width`-long rows `which` (distinct
/// indices, any order) of `buf`, in the order of `which`.
fn rows_mut<'b>(buf: &'b mut [f64], width: usize, which: &[usize]) -> Vec<&'b mut [f64]> {
    let mut order: Vec<usize> = (0..which.len()).collect();
    order.sort_unstable_by_key(|&k| which[k]);
    let mut out: Vec<Option<&'b mut [f64]>> = which.iter().map(|_| None).collect();
    let (mut rest, mut base) = (buf, 0);
    for k in order {
        let tail = std::mem::take(&mut rest).split_at_mut((which[k] - base) * width).1;
        let (row, tail) = tail.split_at_mut(width);
        out[k] = Some(row);
        (rest, base) = (tail, which[k] + 1);
    }
    out.into_iter().map(|r| r.expect("every requested row split off")).collect()
}

impl<S> Drop for CachedQ<S> {
    /// Flushes this cache's lifetime counters into the global trace
    /// registry, so every training run's cache behaviour shows up in
    /// `svm.qcache.{hits,misses,evictions}` and `svm.q.evals` without
    /// the caller doing anything.
    fn drop(&mut self) {
        if edm_trace::enabled() && self.hits + self.misses > 0 {
            edm_trace::counter_add("svm.qcache.hits", self.hits);
            edm_trace::counter_add("svm.qcache.misses", self.misses);
            edm_trace::counter_add("svm.qcache.evictions", self.evictions);
            edm_trace::counter_add("svm.q.evals", self.evals);
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

    fn rows_prefix(&mut self, idxs: &[usize], len: usize) -> Rows<'_> {
        let n = self.diag.len();
        assert!(len <= n, "prefix {len} out of bounds for n = {n}");
        self.starts.clear();
        // Fast path: every requested row is resident with a long
        // enough prefix. This is the solver's steady state (a warm
        // cache serving the per-iteration working-set pair): stamps and
        // hit counts advance exactly as the general path would, and the
        // rows are lent from their slots.
        let all_hit = idxs.iter().all(|&i| {
            assert!(i < n, "row {i} out of bounds for n = {n}");
            self.entries[i].is_some_and(|e| e.len >= len)
        });
        if all_hit {
            for &i in idxs {
                self.clock += 1;
                self.hits += 1;
                let e = self.entries[i].as_mut().expect("resident row checked above");
                e.stamp = self.clock;
                self.starts.push(e.slot * n);
            }
        } else {
            self.fetch(idxs, len);
        }
        Rows { buf: &self.slab, starts: &self.starts, len }
    }

    fn swap_indices(&mut self, swaps: &[(usize, usize)]) {
        let n = self.diag.len();
        for &(a, b) in swaps {
            assert!(a < n && b < n, "swap ({a}, {b}) out of bounds for n = {n}");
        }
        // Each resident row takes the swaps in order, following its own
        // view position. A row dropped at swap `k` while at position
        // `pos` is recorded as `(k, pos, slot)`: sorted, that is the
        // order in which one-at-a-time swaps free the slots.
        let mut dropped = Vec::new();
        let Self { entries, slab, .. } = self;
        for (i, entry) in entries.iter_mut().enumerate() {
            let Some(e) = *entry else { continue };
            let row = &mut slab[e.slot * n..][..e.len];
            let mut pos = i;
            for (k, &(a, b)) in swaps.iter().enumerate() {
                if a == b {
                    continue;
                }
                if pos == a {
                    pos = b;
                } else if pos == b {
                    pos = a;
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                if e.len > hi {
                    // Row covers both columns: exchange the two entries so
                    // the cached contents match the new numbering.
                    row.swap(lo, hi);
                } else if e.len > lo {
                    // Covers `lo` but not `hi`: the prefix can no longer be
                    // represented under the new numbering. Drop it (LIBSVM
                    // does the same).
                    dropped.push((k, pos, e.slot));
                    *entry = None;
                    break;
                }
            }
        }
        dropped.sort_unstable();
        self.evictions += dropped.len() as u64;
        self.free.extend(dropped.iter().map(|&(_, _, slot)| slot));
        for &(a, b) in swaps {
            self.diag.swap(a, b);
            self.entries.swap(a, b);
        }
        self.source.swap_indices(swaps);
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
        let mut row = vec![0.0; src.n()];
        src.fill_rows(&[i], 0..src.n(), &mut [&mut row]);
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
        let mut cached = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 1 << 20);
        // Access pattern with revisits so both hit and miss paths run.
        for &i in &[0usize, 3, 0, 7, 3, 15, 0, 7] {
            let direct: Vec<f64> = x.iter().map(|xj| k.eval(&x[i], xj)).collect();
            assert_eq!(bits(cached.row_prefix(i, 16)), bits(&direct));
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
        let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 128);
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
        let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 0);
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
        let mut q = DenseQ::new(&gram, None);
        assert_eq!(q.n(), 4);
        for i in 0..4 {
            assert_eq!(q.diag()[i], gram[(i, i)]);
            let row = q.row_prefix(i, 4);
            assert!(std::ptr::eq(row, gram.row(i)), "unsigned rows are lent from the matrix");
            for j in 0..4 {
                assert_eq!(row[j], gram[(i, j)]);
            }
        }
        // Signed rows are computed `sᵢ sⱼ K(i, j)`; the diagonal stays K's.
        let y = [1.0, -1.0, -1.0, 1.0];
        let mut q = DenseQ::new(&gram, Some(&y));
        for i in 0..4 {
            assert_eq!(q.diag()[i].to_bits(), gram[(i, i)].to_bits());
            let row = q.row_prefix(i, 4);
            let want: Vec<f64> = (0..4).map(|j| y[i] * y[j] * gram[(i, j)]).collect();
            assert_eq!(bits(row), bits(&want));
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
            q.swap_indices(&[(1, 5), (0, 2)]);
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
        q.swap_indices(&[(0, 4), (2, 3)]);
        let perm = [4usize, 1, 3, 2, 0, 5];
        for i in 0..6 {
            assert_eq!(q.diag()[i].to_bits(), gram[(perm[i], perm[i])].to_bits());
            let row = q.row_prefix(i, 6);
            assert!(!std::ptr::eq(row, gram.row(perm[i])), "permuted rows are gathered");
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
        let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 1 << 20);
        let full: Vec<f64> = x.iter().map(|xj| k.eval(&x[3], xj)).collect();
        let short = q.row_prefix(3, 4);
        assert_eq!(short.len(), 4);
        assert_eq!(bits(short), bits(&full[..4]));
        // Extension keeps the cached prefix and computes the rest.
        let long = q.row_prefix(3, 10);
        assert_eq!(long.len(), 10);
        assert_eq!(bits(long), bits(&full));
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
        q.swap_indices(&[(1, 5)]);
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
        let x = cloud(11);
        let m = x.len();
        let y: Vec<f64> = (0..m).map(|i| if i < 4 { 1.0 } else { -1.0 }).collect();
        let k = RbfKernel::new(0.9);
        let mut kq = KernelQ::<[f64], _, _>::new(&k, &x, Some(&y));
        let mut sq = SvrQ::<[f64], _, _>::new(&k, &x);
        // KernelQ: renumbered, batched rows over a range that starts
        // and ends inside lane groups.
        let swaps = [(0, 9), (3, 7), (9, 1), (10, 2)];
        kq.swap_indices(&swaps);
        let mut perm: Vec<usize> = (0..m).collect();
        for &(a, b) in &swaps {
            perm.swap(a, b);
        }
        let (rows, cols) = ([2usize, 6, 2], 3..10);
        let mut outs = vec![vec![0.0; cols.len()]; rows.len()];
        let mut slices: Vec<&mut [f64]> = outs.iter_mut().map(Vec::as_mut_slice).collect();
        kq.fill_rows(&rows, cols.clone(), &mut slices);
        for (&i, out) in rows.iter().zip(&outs) {
            let (pi, pj) = (perm[i], cols.clone().map(|j| perm[j]));
            let want: Vec<f64> = pj.map(|j| k.eval(&x[pi], &x[j]) * (y[pi] * y[j])).collect();
            assert_eq!(bits(out), bits(&want), "KernelQ row {i}");
        }
        assert_eq!(
            bits(&kq.diag()),
            bits(&perm.iter().map(|&i| k.eval(&x[i], &x[i])).collect::<Vec<_>>())
        );
        // SvrQ: a renumbering that puts both blocks of one base (1 and
        // 12) inside the filled range.
        let sign = |t: usize| if t < m { 1.0 } else { -1.0 };
        let swaps2 = [(0, 12), (3, 20), (5, 1)];
        sq.swap_indices(&swaps2);
        let mut perm2: Vec<usize> = (0..2 * m).collect();
        for &(a, b) in &swaps2 {
            perm2.swap(a, b);
        }
        let (rows2, cols2) = ([9usize, 2], 0..6);
        let mut outs2 = vec![vec![0.0; cols2.len()]; rows2.len()];
        let mut slices2: Vec<&mut [f64]> = outs2.iter_mut().map(Vec::as_mut_slice).collect();
        sq.fill_rows(&rows2, cols2.clone(), &mut slices2);
        for (&t, out) in rows2.iter().zip(&outs2) {
            let full = full_row(&sq, t);
            for (u, v) in cols2.clone().zip(out) {
                let (pt, pu) = (perm2[t], perm2[u]);
                let want = sign(pt) * sign(pu) * k.eval(&x[pt % m], &x[pu % m]);
                assert_eq!(v.to_bits(), full[u].to_bits(), "SvrQ range vs full fill");
                assert_eq!(v.to_bits(), want.to_bits(), "SvrQ Q({t},{u})");
            }
        }
    }

    #[test]
    fn rows_evicted_mid_batch_are_lent_from_scratch() {
        let (x, k) = (cloud(8), RbfKernel::new(1.0));
        let row =
            |i: usize| -> Vec<u64> { x.iter().map(|xj| k.eval(&x[i], xj).to_bits()).collect() };
        let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 128); // 2-row budget
        q.rows_prefix(&[0, 1], 8);
        // Row 0 hits, then rows 2 and 3 miss and evict rows 1 and 0: the
        // slot row 0 was lent from is refilled within the same fetch.
        let rows = q.rows_prefix(&[0, 2, 3], 8);
        for (&i, got) in [0, 2, 3].iter().zip(rows.iter()) {
            assert_eq!(bits(got), row(i), "row {i}");
        }
        assert_eq!(q.stats(), CacheStats { hits: 1, misses: 4, evictions: 2 });
        // With caching disabled every row is lent from scratch.
        let mut off = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 0);
        let rows = off.rows_prefix(&[5, 1, 5], 8);
        for (&i, got) in [5, 1, 5].iter().zip(rows.iter()) {
            assert_eq!(bits(got), row(i), "uncached row {i}");
        }
    }

    #[test]
    fn prefix_evicted_mid_batch_moves_to_its_new_slot() {
        let (x, k) = (cloud(8), RbfKernel::new(0.6));
        let row =
            |i: usize| -> Vec<u64> { x.iter().map(|xj| k.eval(&x[i], xj).to_bits()).collect() };
        let mut q = CachedQ::new(KernelQ::<[f64], _, _>::new(&k, &x, None), 128); // 2-row budget
        q.row_prefix(0, 3); // slot 0: a 3-entry prefix of row 0
        q.row_prefix(2, 8); // slot 1: row 2
                            // Row 1 misses and (stamped last by its repeat) evicts row 0,
                            // taking slot 0; row 0 then misses, evicts row 2 (a hit of this
                            // fetch) and lands in slot 1, carrying its 3-entry prefix along.
        let rows = q.rows_prefix(&[1, 0, 2, 1], 8);
        for (&i, got) in [1, 0, 2, 1].iter().zip(rows.iter()) {
            assert_eq!(bits(got), row(i), "row {i}");
        }
        assert_eq!(q.stats(), CacheStats { hits: 2, misses: 4, evictions: 2 });
        assert_eq!(bits(q.row_prefix(0, 8)), row(0), "row 0 stays resident, whole");
        assert_eq!(q.stats().hits, 3);
    }
}

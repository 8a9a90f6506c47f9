//! The shared SMO core.
//!
//! Solves the generic dual problem all three SVM variants reduce to
//! (LIBSVM's formulation):
//!
//! ```text
//! min_α  ½ αᵀQα + pᵀα
//! s.t.   yᵀα = Δ (implied by the feasible starting point),
//!        0 ≤ αᵢ ≤ Cᵢ
//! ```
//!
//! with `y ∈ {−1, +1}ⁿ`, using analytic two-variable updates. `Q` is
//! supplied through the row-oriented [`QMatrix`] trait so the three
//! variants can express their sign structure (`Q = yᵢyⱼKᵢⱼ` for SVC,
//! the 2m×2m block form for SVR, plain `K` for one-class) over either a
//! materialized Gram matrix with optional label signs
//! ([`DenseQ`](crate::qmatrix::DenseQ)) or an on-demand kernel
//! evaluator behind the LRU row cache
//! ([`CachedQ`](crate::qmatrix::CachedQ)).
//! SMO's gradient update reads `Q(t, i)` for all `t` at a fixed `i`, so
//! the solver fetches the two working-set rows once per iteration and
//! streams them.
//!
//! Two convergence accelerators (both from LIBSVM, both on by default
//! and switchable via [`SolverOptions`]):
//!
//! * **Second-order working-set selection** ([`WorkingSet::SecondOrder`],
//!   WSS2 of Fan, Chen & Lin 2005): `i` still maximizes the KKT
//!   violation `−yₜGₜ` over the "up" set, but `j` is chosen to maximize
//!   the analytic decrease of the dual objective,
//!   `−(g_max + yₜGₜ)² / (Qᵢᵢ + Qₜₜ − 2 yᵢyₜQᵢₜ)`, using the already
//!   cached row `i` and `diag()`. Same per-iteration cost class as the
//!   first-order rule, typically several times fewer iterations.
//!
//! * **Shrinking**: every `min(n, 1000)` iterations, bound variables
//!   whose gradient sign says they cannot re-enter the working set are
//!   swapped past `active_size` (one [`QMatrix::swap_indices`] call per
//!   pass, which keeps cached rows valid), and the solver iterates over
//!   the active prefix only — row fetches shrink to
//!   [`QMatrix::row_prefix`]. A running
//!   `Ḡₜ = Σ_{j at upper bound} Cⱼ Qₜⱼ` makes the gradient of
//!   inactive variables reconstructible; on (near-)convergence the full
//!   gradient is rebuilt and a final unshrunk pass runs, so the
//!   returned optimum satisfies the same `tol` as the unshrunk solver.
//!
//! With `working_set: FirstOrder, shrinking: false` the loop replays
//! the seed first-order solver operation-for-operation (bitwise
//! identical α). All configurations are deterministic: the solver is
//! single-threaded, and row fills delegate to the bitwise-deterministic
//! parallel layer.
//!
//! This module is public so that custom kernel learners (e.g. the
//! incremental novelty filter in `edm-core`) can reuse the optimizer, but
//! most users should go through the trainers in the crate root.

use serde::Serialize;

use crate::qmatrix::QMatrix;
use crate::SvmError;

/// Tolerance floor for the quadratic coefficient of a two-variable
/// subproblem (guards indefinite kernels).
const TAU: f64 = 1e-12;

/// Relative bound-classification tolerance used when computing `rho`:
/// scaled by each variable's box size (`max(Cₜ, 1)`) so large-`C` duals
/// — where a bound α carries absolute rounding residue proportional to
/// `C` — still classify free vs. bound vectors correctly.
const BOUND_RTOL: f64 = 1e-12;

/// Rows per [`QMatrix::rows_prefix`] batch in the gradient
/// initialization and reconstruction sweeps. Large enough that a
/// batched fill streams the data once for many rows, small enough that
/// the batch's scratch (`n × ROW_BATCH` doubles in the kernel-backed
/// sources) stays modest.
const ROW_BATCH: usize = 8;

/// Working-set selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize)]
pub enum WorkingSet {
    /// Maximal violating pair (the seed solver's rule): `j` minimizes
    /// `−yₜGₜ` over the "low" set.
    FirstOrder,
    /// LIBSVM's second-order rule (WSS2): `j` maximizes the analytic
    /// objective decrease. Costs one extra cached-row read per
    /// iteration, converges in far fewer iterations.
    #[default]
    SecondOrder,
}

/// Convergence-heuristic knobs of [`solve`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SolverOptions {
    /// Working-set selection rule (default: second order).
    pub working_set: WorkingSet,
    /// Enable the shrinking heuristic (default: `true`). With
    /// `FirstOrder` selection and shrinking off, the solver reproduces
    /// the seed first-order solver bit for bit.
    pub shrinking: bool,
    /// Iterations between shrink passes; `0` (the default) means
    /// LIBSVM's `min(n, 1000)`.
    pub shrink_interval: usize,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions { working_set: WorkingSet::SecondOrder, shrinking: true, shrink_interval: 0 }
    }
}

/// Input to [`solve`].
#[derive(Debug, Clone)]
pub struct DualProblem {
    /// Linear term `p`.
    pub p: Vec<f64>,
    /// Variable signs `y ∈ {−1, +1}`.
    pub y: Vec<f64>,
    /// Per-variable upper bounds `C`.
    pub c: Vec<f64>,
    /// Feasible starting point (determines the equality-constraint level).
    pub alpha0: Vec<f64>,
    /// KKT stopping tolerance (LIBSVM default is `1e-3`).
    pub tol: f64,
    /// Iteration cap.
    pub max_iter: usize,
    /// Selection / shrinking knobs.
    pub opts: SolverOptions,
}

/// Output of [`solve`].
#[derive(Debug, Clone)]
pub struct DualSolution {
    /// Optimal multipliers.
    pub alpha: Vec<f64>,
    /// Offset `ρ`; decision functions are `Σ coefᵢ k(xᵢ, ·) − ρ`.
    pub rho: f64,
    /// Iterations used.
    pub iterations: usize,
    /// Final KKT violation gap.
    pub gap: f64,
    /// Shrink passes executed (0 unless shrinking is on).
    pub shrink_events: usize,
    /// Full-gradient reconstructions (0 unless shrinking is on).
    pub gradient_reconstructions: usize,
}

/// Outcome of a working-set selection pass.
enum Selection {
    /// Violating pair `(i, j)` with KKT gap `gap ≥ tol`.
    Pair(usize, usize, f64),
    /// KKT-optimal (up to `tol`) over the current active set.
    Optimal(f64),
}

/// Mutable solver state. Variables live in *solver order*: shrinking
/// permutes them so the active set is always the prefix
/// `0..active_size`, and `idx` maps solver positions back to the
/// caller's original indices.
struct Smo {
    p: Vec<f64>,
    y: Vec<f64>,
    c: Vec<f64>,
    alpha: Vec<f64>,
    /// Gradient `G = Qα + p`, valid on `0..active_size` (and on the
    /// whole vector right after a reconstruction).
    g: Vec<f64>,
    /// `Ḡₜ = Σ_{j: αⱼ = Cⱼ} Cⱼ Qₜⱼ` over all `t`; maintained only when
    /// shrinking is on, and what makes gradient reconstruction O(n ·
    /// free) instead of O(n²).
    g_bar: Vec<f64>,
    /// `Q(t, t)` in solver order: a copy of the matrix's diagonal, so
    /// the update needs no access to `Q` while its rows are on loan.
    diag: Vec<f64>,
    /// Solver position → original variable index.
    idx: Vec<usize>,
    active_size: usize,
    unshrunk: bool,
    tol: f64,
    second_order: bool,
    shrinking: bool,
    // Telemetry, accumulated locally and flushed once after the loop.
    bound_hits: u64,
    shrink_events: u64,
    reconstructions: u64,
}

impl Smo {
    fn n(&self) -> usize {
        self.p.len()
    }

    fn is_upper(&self, t: usize) -> bool {
        self.alpha[t] >= self.c[t]
    }

    fn is_lower(&self, t: usize) -> bool {
        self.alpha[t] <= 0.0
    }

    /// Renumbers variables `a` and `b` across all solver state; the
    /// `Q` view follows once per shrink pass.
    fn swap_state(&mut self, a: usize, b: usize) {
        self.p.swap(a, b);
        self.y.swap(a, b);
        self.c.swap(a, b);
        self.alpha.swap(a, b);
        self.g.swap(a, b);
        self.g_bar.swap(a, b);
        self.diag.swap(a, b);
        self.idx.swap(a, b);
    }

    /// Working-set selection over the active prefix.
    fn select(&self, q: &mut dyn QMatrix) -> Selection {
        if self.second_order {
            self.select_second(q)
        } else {
            self.select_first()
        }
    }

    /// `i` maximizing `−yₜGₜ` over the up set (the first index of the
    /// strict maximum) and that maximum; `usize::MAX` when the set is
    /// empty.
    fn max_up(&self) -> (usize, f64) {
        let a = self.active_size;
        let (y, g, alpha, c) = (&self.y[..a], &self.g[..a], &self.alpha[..a], &self.c[..a]);
        let (mut i, mut g_max) = (usize::MAX, f64::NEG_INFINITY);
        for t in 0..a {
            let v = -y[t] * g[t];
            let take = up_low(y[t], alpha[t], c[t]).0 & (v > g_max);
            g_max = if take { v } else { g_max };
            i = if take { t } else { i };
        }
        (i, g_max)
    }

    /// Maximal violating pair: `i` maximizes `−yₜGₜ` over the up set,
    /// `j` minimizes it over the low set (the seed solver's rule, with
    /// identical comparisons).
    fn select_first(&self) -> Selection {
        let a = self.active_size;
        let (i, g_max) = self.max_up();
        let (y, g, alpha, c) = (&self.y[..a], &self.g[..a], &self.alpha[..a], &self.c[..a]);
        let (mut j, mut g_min) = (usize::MAX, f64::INFINITY);
        for t in 0..a {
            let v = -y[t] * g[t];
            let take = up_low(y[t], alpha[t], c[t]).1 & (v < g_min);
            g_min = if take { v } else { g_min };
            j = if take { t } else { j };
        }
        pair(i, j, g_max - g_min, self.tol)
    }

    /// Second-order rule: `i` as in the first-order rule; `j` minimizes
    /// `−(g_max + yₜGₜ)² / (Qᵢᵢ + Qₜₜ − 2yᵢyₜQᵢₜ)` over low-set
    /// candidates that still violate against `i` (the last index of the
    /// minimum), reading row `i` from `q` and the diagonal copy.
    fn select_second(&self, q: &mut dyn QMatrix) -> Selection {
        let a = self.active_size;
        let (i, g_max) = self.max_up();
        if i == usize::MAX {
            // No up candidate: `g_max = −∞`, so the gap clamps to 0.
            return Selection::Optimal(0.0);
        }
        let row_i = &q.row_prefix(i, a)[..a];
        let (y, g, alpha, c) = (&self.y[..a], &self.g[..a], &self.alpha[..a], &self.c[..a]);
        let diag = &self.diag[..a];
        let (d_i, y_i) = (diag[i], y[i]);
        let (mut j, mut g_min, mut obj_min) = (usize::MAX, f64::INFINITY, f64::INFINITY);
        for t in 0..a {
            let low = up_low(y[t], alpha[t], c[t]).1;
            let v = -y[t] * g[t];
            g_min = if low & (v < g_min) { v } else { g_min };
            let grad_diff = g_max - v;
            let quad = d_i + diag[t] - 2.0 * y_i * y[t] * row_i[t];
            let quad = if quad <= 0.0 { TAU } else { quad };
            let obj = -(grad_diff * grad_diff) / quad;
            let take = low & (grad_diff > 0.0) & (obj <= obj_min);
            obj_min = if take { obj } else { obj_min };
            j = if take { t } else { j };
        }
        pair(i, j, g_max - g_min, self.tol)
    }

    /// Can variable `t` be removed from the active set? True when `t`
    /// sits on a bound and its gradient says the bound cannot become
    /// violated again given the current extremes `gmax1` (up set) and
    /// `gmax2` (low set).
    fn be_shrunk(&self, t: usize, gmax1: f64, gmax2: f64) -> bool {
        if self.is_upper(t) {
            if self.y[t] > 0.0 {
                -self.g[t] > gmax1
            } else {
                -self.g[t] > gmax2
            }
        } else if self.is_lower(t) {
            if self.y[t] > 0.0 {
                self.g[t] > gmax2
            } else {
                self.g[t] > gmax1
            }
        } else {
            false
        }
    }

    /// One shrink pass: compute the violation extremes, unshrink once
    /// when near convergence, then swap shrinkable variables past
    /// `active_size`.
    fn do_shrinking(&mut self, q: &mut dyn QMatrix) {
        // gmax1 = max{−yₜGₜ : t ∈ up}, gmax2 = max{yₜGₜ : t ∈ low};
        // gap = gmax1 + gmax2.
        let mut gmax1 = f64::NEG_INFINITY;
        let mut gmax2 = f64::NEG_INFINITY;
        for t in 0..self.active_size {
            if self.y[t] > 0.0 {
                if !self.is_upper(t) {
                    gmax1 = gmax1.max(-self.g[t]);
                }
                if !self.is_lower(t) {
                    gmax2 = gmax2.max(self.g[t]);
                }
            } else {
                if !self.is_upper(t) {
                    gmax2 = gmax2.max(-self.g[t]);
                }
                if !self.is_lower(t) {
                    gmax1 = gmax1.max(self.g[t]);
                }
            }
        }
        if !self.unshrunk && gmax1 + gmax2 <= self.tol * 10.0 {
            // Near convergence: reconstruct once and re-shrink from the
            // full set, so over-eager early shrinks cannot bias the
            // final active set.
            self.unshrunk = true;
            self.reconstruct_gradient(q);
            self.active_size = self.n();
        }
        let mut swaps = Vec::new();
        let mut t = 0;
        while t < self.active_size {
            if self.be_shrunk(t, gmax1, gmax2) {
                self.active_size -= 1;
                while self.active_size > t {
                    if !self.be_shrunk(self.active_size, gmax1, gmax2) {
                        let b = self.active_size;
                        self.swap_state(t, b);
                        swaps.push((t, b));
                        break;
                    }
                    self.active_size -= 1;
                }
            }
            t += 1;
        }
        if !swaps.is_empty() {
            q.swap_indices(&swaps);
        }
        self.shrink_events += 1;
        edm_trace::record("svm.smo.active_set", self.active_size as f64);
    }

    /// Rebuilds `G` on the inactive tail from `Ḡ` plus the active free
    /// variables' rows: `Gₜ = Ḡₜ + pₜ + Σ_{s active, free} αₛ Qₜₛ`.
    fn reconstruct_gradient(&mut self, q: &mut dyn QMatrix) {
        let n = self.n();
        if self.active_size == n {
            return;
        }
        for t in self.active_size..n {
            self.g[t] = self.g_bar[t] + self.p[t];
        }
        // Fetch the free variables' rows in small batches (one pass
        // over the data per batch for kernel-backed sources) and apply
        // them in the same s-ascending order as a row-at-a-time loop,
        // so the rebuilt gradient is bitwise unchanged.
        let free: Vec<usize> =
            (0..self.active_size).filter(|&s| !(self.is_lower(s) || self.is_upper(s))).collect();
        for chunk in free.chunks(ROW_BATCH) {
            let rows = q.rows_prefix(chunk, n);
            for (&s, row_s) in chunk.iter().zip(rows.iter()) {
                let a = self.alpha[s];
                for t in self.active_size..n {
                    self.g[t] += a * row_s[t];
                }
            }
        }
        self.reconstructions += 1;
    }
}

/// Membership of one variable in the "up" and "low" sets, as
/// branch-free masks: up when `αₜ` can move so that `−yₜGₜ` grows
/// (`yₜ > 0` below `Cₜ`, or `yₜ < 0` above 0), low when it can shrink.
fn up_low(y: f64, alpha: f64, c: f64) -> (bool, bool) {
    let (pos, neg) = (y > 0.0, y < 0.0);
    let (upper, lower) = (alpha >= c, alpha <= 0.0);
    ((pos & !upper) | (neg & !lower), (neg & !upper) | (pos & !lower))
}

/// The selection for candidates `i`, `j` (`usize::MAX` = none) and KKT
/// gap `gap`.
fn pair(i: usize, j: usize, gap: f64, tol: f64) -> Selection {
    if i != usize::MAX && j != usize::MAX && gap >= tol {
        Selection::Pair(i, j, gap)
    } else {
        Selection::Optimal(gap.max(0.0))
    }
}

/// Computes the offset `ρ`: the average of `yₜGₜ` over free variables,
/// or the midpoint of the KKT interval when no variable is free. Bound
/// classification uses a *relative* epsilon (`BOUND_RTOL · max(Cₜ, 1)`)
/// so large-`C` problems don't misread bound variables as free.
fn compute_rho(alpha: &[f64], g: &[f64], y: &[f64], c: &[f64]) -> f64 {
    let mut ub = f64::INFINITY;
    let mut lb = f64::NEG_INFINITY;
    let mut sum_free = 0.0;
    let mut n_free = 0usize;
    for t in 0..alpha.len() {
        let yg = y[t] * g[t];
        let eps = BOUND_RTOL * c[t].max(1.0);
        if alpha[t] >= c[t] - eps {
            if y[t] < 0.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else if alpha[t] <= eps {
            if y[t] > 0.0 {
                ub = ub.min(yg);
            } else {
                lb = lb.max(yg);
            }
        } else {
            n_free += 1;
            sum_free += yg;
        }
    }
    if n_free > 0 {
        sum_free / n_free as f64
    } else {
        (ub + lb) / 2.0
    }
}

/// Runs SMO to convergence.
///
/// `q` is taken mutably because the shrinking heuristic renumbers
/// variables through [`QMatrix::swap_indices`]; with `shrinking: false`
/// the matrix is never mutated. The returned `alpha` is always in the
/// caller's original variable order.
///
/// # Errors
///
/// [`SvmError::NoConvergence`] if the iteration cap is reached with the
/// KKT gap still above `tol`; [`SvmError::InvalidInput`] on inconsistent
/// dimensions.
pub fn solve(q: &mut dyn QMatrix, problem: &DualProblem) -> Result<DualSolution, SvmError> {
    let _span = edm_trace::span("svm.smo.solve");
    let n = problem.p.len();
    if problem.y.len() != n || problem.c.len() != n || problem.alpha0.len() != n || q.n() != n {
        return Err(SvmError::InvalidInput(format!("dual problem arrays disagree on n = {n}")));
    }
    let opts = problem.opts;
    let mut smo = Smo {
        p: problem.p.clone(),
        y: problem.y.clone(),
        c: problem.c.clone(),
        alpha: problem.alpha0.clone(),
        g: problem.p.clone(),
        diag: q.diag().to_vec(),
        g_bar: vec![0.0; if opts.shrinking { n } else { 0 }],
        idx: (0..n).collect(),
        active_size: n,
        unshrunk: false,
        tol: problem.tol,
        second_order: matches!(opts.working_set, WorkingSet::SecondOrder),
        shrinking: opts.shrinking,
        bound_hits: 0,
        shrink_events: 0,
        reconstructions: 0,
    };

    // G = Qα + p. O(n²) initialization, but only nonzero α contribute.
    // Their rows are fetched in batches (one pass over the data per
    // batch — the one-class feasible start makes *every* α nonzero, so
    // this is a real hot spot) and applied in the same j-ascending
    // order as a row-at-a-time loop, keeping G bitwise unchanged. Ḡ
    // picks up the variables starting at the upper bound.
    let nonzero: Vec<usize> = (0..n).filter(|&j| smo.alpha[j] != 0.0).collect();
    for chunk in nonzero.chunks(ROW_BATCH) {
        let rows = q.rows_prefix(chunk, n);
        for (&j, row_j) in chunk.iter().zip(rows.iter()) {
            let aj = smo.alpha[j];
            for (gt, &qtj) in smo.g.iter_mut().zip(row_j.iter()) {
                *gt += qtj * aj;
            }
            if opts.shrinking && smo.alpha[j] >= smo.c[j] {
                let cj = smo.c[j];
                for (bt, &qtj) in smo.g_bar.iter_mut().zip(row_j.iter()) {
                    *bt += cj * qtj;
                }
            }
        }
    }

    let shrink_every = if opts.shrink_interval > 0 { opts.shrink_interval } else { n.min(1000) };
    let mut counter = shrink_every + 1;
    let mut iterations = 0usize;
    let mut gap = f64::INFINITY;
    while iterations < problem.max_iter {
        if smo.shrinking {
            counter -= 1;
            if counter == 0 {
                counter = shrink_every;
                smo.do_shrinking(q);
            }
        }

        let (i, j, cur_gap) = match smo.select(q) {
            Selection::Pair(i, j, g) => (i, j, g),
            Selection::Optimal(g) => {
                if smo.active_size == n {
                    gap = g;
                    break;
                }
                // Optimal over the shrunk set: rebuild the full
                // gradient and re-select over everything, so the
                // result meets `tol` on the *unshrunk* problem.
                smo.reconstruct_gradient(q);
                smo.active_size = n;
                match smo.select(q) {
                    Selection::Optimal(g) => {
                        gap = g;
                        break;
                    }
                    Selection::Pair(i, j, g) => {
                        // Violations remain: resume, and shrink again
                        // on the next iteration (LIBSVM's `counter=1`).
                        counter = 1;
                        (i, j, g)
                    }
                }
            }
        };
        gap = cur_gap;
        iterations += 1;
        edm_trace::record_full("svm.smo.kkt_gap", gap);

        // The iteration's two working-set rows, truncated to the
        // active prefix — fetched as one batch so that when both miss
        // the cache they are filled in a single pass over the data.
        let active = smo.active_size;
        let pair = q.rows_prefix(&[i, j], active);
        let (row_i, row_j) = (pair.row(0), pair.row(1));

        let old_ai = smo.alpha[i];
        let old_aj = smo.alpha[j];
        let was_upper_i = smo.is_upper(i);
        let was_upper_j = smo.is_upper(j);
        let (alpha, y, c, g, diag) = (&mut smo.alpha, &smo.y, &smo.c, &mut smo.g, &smo.diag);
        let qij = row_i[j];
        if (y[i] - y[j]).abs() > 0.5 {
            // y_i != y_j
            let mut quad = diag[i] + diag[j] + 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (-g[i] - g[j]) / quad;
            let diff = alpha[i] - alpha[j];
            alpha[i] += delta;
            alpha[j] += delta;
            if diff > 0.0 {
                if alpha[j] < 0.0 {
                    alpha[j] = 0.0;
                    alpha[i] = diff;
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = -diff;
            }
            if diff > c[i] - c[j] {
                if alpha[i] > c[i] {
                    alpha[i] = c[i];
                    alpha[j] = c[i] - diff;
                }
            } else if alpha[j] > c[j] {
                alpha[j] = c[j];
                alpha[i] = c[j] + diff;
            }
        } else {
            // y_i == y_j
            let mut quad = diag[i] + diag[j] - 2.0 * qij;
            if quad <= 0.0 {
                quad = TAU;
            }
            let delta = (g[i] - g[j]) / quad;
            let sum = alpha[i] + alpha[j];
            alpha[i] -= delta;
            alpha[j] += delta;
            if sum > c[i] {
                if alpha[i] > c[i] {
                    alpha[i] = c[i];
                    alpha[j] = sum - c[i];
                }
            } else if alpha[j] < 0.0 {
                alpha[j] = 0.0;
                alpha[i] = sum;
            }
            if sum > c[j] {
                if alpha[j] > c[j] {
                    alpha[j] = c[j];
                    alpha[i] = sum - c[j];
                }
            } else if alpha[i] < 0.0 {
                alpha[i] = 0.0;
                alpha[j] = sum;
            }
        }

        // Gradient update for the two changed variables over the active
        // prefix, streaming the fetched rows.
        let dai = alpha[i] - old_ai;
        let daj = alpha[j] - old_aj;
        if dai != 0.0 || daj != 0.0 {
            for ((gt, &qti), &qtj) in g[..active].iter_mut().zip(row_i.iter()).zip(row_j.iter()) {
                *gt += qti * dai + qtj * daj;
            }
        }
        let hit_i = alpha[i] == 0.0 || alpha[i] == c[i];
        let hit_j = alpha[j] == 0.0 || alpha[j] == c[j];
        smo.bound_hits += u64::from(hit_i) + u64::from(hit_j);

        // Ḡ tracks Σ_{upper} C Q rows: patch it whenever i or j crossed
        // the upper bound (needs the *full* rows — the cache extends
        // its prefix in place, and when both crossed the two
        // extensions share one batched pass).
        if smo.shrinking {
            let crossed_i = was_upper_i != smo.is_upper(i);
            let crossed_j = was_upper_j != smo.is_upper(j);
            if crossed_i || crossed_j {
                let mut wanted = Vec::with_capacity(2);
                if crossed_i {
                    wanted.push(i);
                }
                if crossed_j {
                    wanted.push(j);
                }
                let rows = q.rows_prefix(&wanted, n);
                for (&t, row) in wanted.iter().zip(rows.iter()) {
                    let was_upper = if t == i { was_upper_i } else { was_upper_j };
                    let ct = smo.c[t];
                    if was_upper {
                        for (bt, &qt) in smo.g_bar.iter_mut().zip(row.iter()) {
                            *bt -= ct * qt;
                        }
                    } else {
                        for (bt, &qt) in smo.g_bar.iter_mut().zip(row.iter()) {
                            *bt += ct * qt;
                        }
                    }
                }
            }
        }
    }

    if edm_trace::enabled() {
        edm_trace::counter_add("svm.smo.calls", 1);
        edm_trace::counter_add("svm.smo.iterations", iterations as u64);
        edm_trace::counter_add("svm.smo.bound_hits", smo.bound_hits);
        edm_trace::counter_add("svm.smo.shrink_events", smo.shrink_events);
        edm_trace::counter_add("svm.smo.gradient_reconstructions", smo.reconstructions);
        edm_trace::record("svm.smo.iterations_per_call", iterations as f64);
        if gap.is_finite() {
            edm_trace::record("svm.smo.final_gap", gap);
        }
    }

    if gap >= problem.tol && iterations >= problem.max_iter {
        return Err(SvmError::NoConvergence { iterations, gap });
    }

    // Un-permute to the caller's variable order before computing rho,
    // so the free-variable average sums in a shrink-independent order.
    let mut alpha_out = vec![0.0; n];
    let mut g_out = vec![0.0; n];
    for (pos, &orig) in smo.idx.iter().enumerate() {
        alpha_out[orig] = smo.alpha[pos];
        g_out[orig] = smo.g[pos];
    }
    let rho = compute_rho(&alpha_out, &g_out, &problem.y, &problem.c);

    Ok(DualSolution {
        alpha: alpha_out,
        rho,
        iterations,
        gap,
        shrink_events: smo.shrink_events as usize,
        gradient_reconstructions: smo.reconstructions as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qmatrix::DenseQ;
    use edm_linalg::Matrix;
    use proptest::prelude::*;

    fn in_up(smo: &Smo, t: usize) -> bool {
        (smo.y[t] > 0.0 && !smo.is_upper(t)) || (smo.y[t] < 0.0 && !smo.is_lower(t))
    }

    fn in_low(smo: &Smo, t: usize) -> bool {
        (smo.y[t] < 0.0 && !smo.is_upper(t)) || (smo.y[t] > 0.0 && !smo.is_lower(t))
    }

    /// The branchy first-order selection the branch-free scan replaced:
    /// the oracle it must match.
    fn select_first_oracle(smo: &Smo) -> Selection {
        let mut i: Option<usize> = None;
        let mut g_max = f64::NEG_INFINITY;
        let mut j: Option<usize> = None;
        let mut g_min = f64::INFINITY;
        for t in 0..smo.active_size {
            let v = -smo.y[t] * smo.g[t];
            if in_up(smo, t) && v > g_max {
                g_max = v;
                i = Some(t);
            }
            if in_low(smo, t) && v < g_min {
                g_min = v;
                j = Some(t);
            }
        }
        let gap = g_max - g_min;
        match (i, j) {
            (Some(i), Some(j)) if gap >= smo.tol => Selection::Pair(i, j, gap),
            _ => Selection::Optimal(gap.max(0.0)),
        }
    }

    /// The branchy second-order selection the branch-free scan replaced.
    fn select_second_oracle(smo: &Smo, q: &mut dyn QMatrix) -> Selection {
        let mut i: Option<usize> = None;
        let mut g_max = f64::NEG_INFINITY;
        for t in 0..smo.active_size {
            if in_up(smo, t) {
                let v = -smo.y[t] * smo.g[t];
                if v > g_max {
                    g_max = v;
                    i = Some(t);
                }
            }
        }
        let diag = q.diag().to_vec();
        let row_i = i.map(|i| q.row_prefix(i, smo.active_size).to_vec());
        let mut j: Option<usize> = None;
        let mut g_min = f64::INFINITY;
        let mut obj_min = f64::INFINITY;
        for t in 0..smo.active_size {
            if !in_low(smo, t) {
                continue;
            }
            let v = -smo.y[t] * smo.g[t];
            if v < g_min {
                g_min = v;
            }
            if let (Some(i), Some(row_i)) = (i, row_i.as_deref()) {
                let grad_diff = g_max - v;
                if grad_diff > 0.0 {
                    let mut quad = diag[i] + diag[t] - 2.0 * smo.y[i] * smo.y[t] * row_i[t];
                    if quad <= 0.0 {
                        quad = TAU;
                    }
                    let obj = -(grad_diff * grad_diff) / quad;
                    if obj <= obj_min {
                        obj_min = obj;
                        j = Some(t);
                    }
                }
            }
        }
        let gap = g_max - g_min;
        match (i, j) {
            (Some(i), Some(j)) if gap >= smo.tol => Selection::Pair(i, j, gap),
            _ => Selection::Optimal(gap.max(0.0)),
        }
    }

    /// `(i, j, gap bits)` of a selection, `usize::MAX` for no pair.
    fn key(sel: Selection) -> (usize, usize, u64) {
        match sel {
            Selection::Pair(i, j, gap) => (i, j, gap.to_bits()),
            Selection::Optimal(gap) => (usize::MAX, usize::MAX, gap.to_bits()),
        }
    }

    /// A random solver state over a random symmetric (not necessarily
    /// positive definite) `Q`: labels ±1, each α at 0, at C or strictly
    /// between, gradients drawn from a handful of values so that the
    /// scans meet ties, and an active prefix of any length.
    fn random_state(seed: u64, n: usize, active: usize) -> (Smo, Matrix) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut unit = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        let y: Vec<f64> = (0..n).map(|_| if unit() < 0.5 { 1.0 } else { -1.0 }).collect();
        let c: Vec<f64> = (0..n).map(|_| 0.5 + 2.0 * unit()).collect();
        let alpha: Vec<f64> = c
            .iter()
            .map(|&ct| match (unit() * 3.0) as u32 {
                0 => 0.0,
                1 => ct,
                _ => ct * unit(),
            })
            .collect();
        let levels = [-1.5, -1.0, -0.25, 0.0, 0.25, 1.0];
        let g: Vec<f64> = (0..n).map(|_| levels[(unit() * 6.0) as usize % 6]).collect();
        // Entries in [−1, 1] with diagonals in [−0.5, 1]: many pairs
        // have `Qᵢᵢ + Qₜₜ − 2yᵢyₜQᵢₜ ≤ 0`.
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.5 * unit() - 0.5;
            for j in 0..i {
                let v = 2.0 * unit() - 1.0;
                m[(i, j)] = v;
                m[(j, i)] = v;
            }
        }
        let diag = (0..n).map(|i| m[(i, i)]).collect();
        let smo = Smo {
            p: vec![-1.0; n],
            y,
            c,
            alpha,
            g,
            diag,
            g_bar: Vec::new(),
            idx: (0..n).collect(),
            active_size: active,
            unshrunk: false,
            tol: 1e-3,
            second_order: true,
            shrinking: false,
            bound_hits: 0,
            shrink_events: 0,
            reconstructions: 0,
        };
        (smo, m)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The branch-free scans select exactly what the branchy scans
        /// they replaced selected: the same `i`, `j` and gap bits.
        #[test]
        fn branch_free_selection_matches_the_branchy_oracle(
            seed in 0u64..u64::MAX,
            n in 1usize..40,
            cut in 0usize..40,
        ) {
            let active = n - cut % n;
            let (smo, m) = random_state(seed, n, active);
            prop_assert_eq!(key(smo.select_first()), key(select_first_oracle(&smo)));
            let mut q = DenseQ::new(&m, None);
            let want = key(select_second_oracle(&smo, &mut q));
            prop_assert_eq!(key(smo.select_second(&mut q)), want);
        }
    }

    fn base_problem(
        p: Vec<f64>,
        y: Vec<f64>,
        c: Vec<f64>,
        tol: f64,
        max_iter: usize,
    ) -> DualProblem {
        let n = p.len();
        DualProblem { p, y, c, alpha0: vec![0.0; n], tol, max_iter, opts: SolverOptions::default() }
    }

    /// Minimal hand-check: two points, labels ±1, linear kernel in 1-D at
    /// x = ±1. K = [[1,-1],[-1,1]] so Q = yᵢyⱼKᵢⱼ = [[1,1],[1,1]]. Solve
    /// and check the solution classifies both points correctly via
    /// f(x) = Σ y α k(x, xi) − ρ.
    #[test]
    fn two_point_svc_dual() {
        let x = [-1.0, 1.0];
        fn y_of(i: usize) -> f64 {
            if i == 0 {
                -1.0
            } else {
                1.0
            }
        }
        let qm = Matrix::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let problem = base_problem(vec![-1.0, -1.0], vec![-1.0, 1.0], vec![10.0, 10.0], 1e-6, 1000);
        for opts in [
            SolverOptions::default(),
            SolverOptions {
                working_set: WorkingSet::FirstOrder,
                shrinking: false,
                shrink_interval: 0,
            },
        ] {
            let mut q = DenseQ::new(&qm, None);
            let sol = solve(&mut q, &DualProblem { opts, ..problem.clone() }).unwrap();
            // Analytic optimum: α = 0.5 for both, ρ = 0 (margin at x = 0).
            assert!((sol.alpha[0] - 0.5).abs() < 1e-6);
            assert!((sol.alpha[1] - 0.5).abs() < 1e-6);
            assert!(sol.rho.abs() < 1e-6);
            // decision at x = 2: Σ y α k = (-1)(.5)(-2) + (1)(.5)(2) = 2 > 0
            let f = |xq: f64| -> f64 {
                (0..2).map(|i| y_of(i) * sol.alpha[i] * (x[i] * xq)).sum::<f64>() - sol.rho
            };
            assert!(f(2.0) > 0.0);
            assert!(f(-2.0) < 0.0);
        }
    }

    #[test]
    fn inconsistent_dimensions_rejected() {
        let qm = Matrix::zeros(1, 1);
        let mut q = DenseQ::new(&qm, None);
        let problem = base_problem(vec![-1.0, -1.0], vec![1.0, -1.0], vec![1.0, 1.0], 1e-3, 10);
        assert!(matches!(solve(&mut q, &problem), Err(SvmError::InvalidInput(_))));
    }

    #[test]
    fn iteration_cap_reported() {
        // A 4-point problem with a 1-iteration budget cannot converge.
        let x = [-2.0, -1.0, 1.0, 2.0];
        let ys = [-1.0, -1.0, 1.0, 1.0];
        let qf = |i: usize, j: usize| ys[i] * ys[j] * (x[i] * x[j] + 1.0);
        let qm = Matrix::from_rows(
            &(0..4).map(|i| (0..4).map(|j| qf(i, j)).collect::<Vec<_>>()).collect::<Vec<_>>(),
        );
        let mut q = DenseQ::new(&qm, None);
        let problem = base_problem(vec![-1.0; 4], ys.to_vec(), vec![1.0; 4], 1e-9, 1);
        assert!(matches!(
            solve(&mut q, &problem),
            Err(SvmError::NoConvergence { iterations: 1, .. })
        ));
    }

    /// The relative-epsilon rho fix: with C = 1e9, a variable pinned at
    /// the lower bound can carry absolute residue far above 1e-12 (here
    /// 2e-7) from catastrophic cancellation during clipping. The old
    /// absolute test misread it as free, dragging its (arbitrary) yG
    /// into the free-variable average.
    #[test]
    fn rho_uses_relative_bound_epsilon() {
        let c = vec![1e9, 1e9, 1e9];
        let y = vec![1.0, 1.0, -1.0];
        // alpha[0] is "zero up to C-scaled rounding", alpha[1] is truly
        // free, alpha[2] is at the upper bound minus C-scaled residue.
        let alpha = vec![2e-7, 5e8, 1e9 - 3e-5];
        let g = vec![100.0, -2.0, 3.0];
        let rho = compute_rho(&alpha, &g, &y, &c);
        // Variables 0 and 2 are bound: only variable 1 is free, so rho
        // must be exactly its yG = -2, not contaminated by yG = 100.
        assert_eq!(rho.to_bits(), (-2.0f64).to_bits());
    }

    /// Every selection/shrinking configuration must land on the same
    /// optimum of a small but non-trivial problem.
    #[test]
    fn all_configurations_agree_on_optimum() {
        let n = 12;
        let xs: Vec<f64> = (0..n).map(|i| (i as f64) / 2.0 - 2.75).collect();
        let ys: Vec<f64> = xs.iter().map(|&v| if v > 0.0 { 1.0 } else { -1.0 }).collect();
        let rbf = |a: f64, b: f64| (-(a - b) * (a - b)).exp();
        let qm = Matrix::from_rows(
            &(0..n)
                .map(|i| (0..n).map(|j| ys[i] * ys[j] * rbf(xs[i], xs[j])).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
        );
        let problem = base_problem(vec![-1.0; n], ys.clone(), vec![5.0; n], 1e-8, 100_000);
        let mut reference: Option<DualSolution> = None;
        for shrinking in [false, true] {
            for working_set in [WorkingSet::FirstOrder, WorkingSet::SecondOrder] {
                // A tiny interval forces many shrink passes.
                for shrink_interval in [0, 3] {
                    let mut q = DenseQ::new(&qm, None);
                    let opts = SolverOptions { working_set, shrinking, shrink_interval };
                    let sol = solve(&mut q, &DualProblem { opts, ..problem.clone() }).unwrap();
                    assert!(sol.gap < 1e-8);
                    match &reference {
                        None => reference = Some(sol),
                        Some(r) => {
                            for t in 0..n {
                                assert!(
                                    (sol.alpha[t] - r.alpha[t]).abs() < 1e-6,
                                    "alpha[{t}] diverged under {opts:?}"
                                );
                            }
                            assert!((sol.rho - r.rho).abs() < 1e-6);
                        }
                    }
                }
            }
        }
    }
}

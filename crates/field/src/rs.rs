//! Reed–Solomon decoding via the Berlekamp–Welch algorithm.
//!
//! The coin's recover round broadcasts Shamir shares; up to `f` of them come
//! from Byzantine nodes and may be arbitrary. With shares of a degree-`f`
//! polynomial held by `n ≥ 3f + 1` nodes, at least `n − f ≥ 2f + 1` shares
//! are correct, which meets the Berlekamp–Welch requirement
//! `points ≥ degree + 2·errors + 1`. Decoding is therefore *binding*: every
//! correct node reconstructs the same polynomial no matter which `≤ f`
//! shares the adversary falsifies — even with recover-round rushing.
//!
//! # The batched/incremental elimination
//!
//! This is the hottest kernel in the repo (the `benchmark/` package's
//! `field.decode.*` micro-timings and `coin.recover.recv_ms` span measure
//! it), so the decode path is built around doing no elimination for a clean
//! codeword and amortizing the elimination for the rest:
//!
//! - The key equation is solved in *homogeneous* form — find a nonzero
//!   `(Q, E)` with `Q(x_i) = y_i · E(x_i)`, `deg Q ≤ degree + e`,
//!   `deg E ≤ e` — as a growing column set in a
//!   [`linalg::Eliminator`](crate::linalg::Eliminator). Any nonzero
//!   solution over distinct `x`s has `E ≢ 0` (else `Q` would vanish at
//!   more points than its degree allows), and whenever the view is within
//!   `e` errors of a codeword, *every* nonzero solution satisfies
//!   `Q = P·E` exactly — so a candidate read off any kernel vector, then
//!   checked against the view, is as good as the textbook monic-`E`
//!   solve.
//! - **Incremental error-budget ladder** ([`decode_with_errors`]): going
//!   from `e` presumed errors to `e + 1` adds exactly two columns — one
//!   more `Q` coefficient (`x^{degree+e+1}`) and one more `E` coefficient
//!   (`−y·x^{e+1}`) — so the ladder extends one elimination instead of
//!   re-solving an ever-larger system from scratch at each error count.
//! - **Batched decoding** ([`BatchDecoder`]): all codewords that share one
//!   evaluation-point set (the per-beat GVSS recover case — every dealer's
//!   share vector uses the same node indices) share everything that
//!   depends only on the `x`s. Two rungs exist. The *clean* rung (`e = 0`)
//!   is linear, not an elimination: a view is a codeword iff its last
//!   `m − degree − 1` values are the Lagrange extension of its first
//!   `degree + 1`, so a precomputed extension matrix checks it and the
//!   inverse-Vandermonde rows read the coefficients off — dot products,
//!   no allocation. A view with a non-zero residual goes to the
//!   *full-budget* stage, whose Vandermonde `Q`-block is factored once
//!   (LU-style: the elimination's operation log *is* the factorization)
//!   and replayed per codeword against just the `y`-dependent columns; in
//!   the homogeneous form that one stage resolves every error count
//!   `1..=budget` (see [`BatchDecoder::decode_one`]).
//!
//! Both paths return exactly what the one-shot decoder returns: the unique
//! codeword within `budget` mismatches of the view, or `None`. (Two
//! degree-`≤ d` polynomials within `budget = (n − d − 1) / 2` mismatches
//! of the same `n`-point view would agree on `≥ d + 1` points and hence be
//! equal, so *which* candidate generation succeeds first cannot change the
//! answer — a property the proptests below pin.)

// Indexed loops in this file mirror the paper's matrix/polynomial
// subscripts; iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::linalg::Eliminator;
use crate::{Fp, FpElem, Poly};

/// Decodes a polynomial of degree at most `degree` from `points`, tolerating
/// up to `max_errors` corrupted y-values.
///
/// Returns `None` when decoding fails (more errors than the budget, or not
/// enough points: `points.len()` must be at least
/// `degree + 2 * max_errors + 1`).
///
/// x-coordinates must be distinct; duplicate x-coordinates make the decode
/// fail (returns `None`) rather than panic, because in the protocol the
/// point list is keyed by node id and duplicates indicate caller error only
/// in tests.
///
/// Decoding many codewords over one x-set? Use [`BatchDecoder`], which
/// amortizes the elimination across the batch and returns identical
/// results.
///
/// # Example
///
/// ```
/// use byzclock_field::{Fp, Poly, rs};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let p = Poly::from_coeffs(vec![4, 2]); // 4 + 2x
/// let mut pts: Vec<(u64, u64)> = (1..=5).map(|x| (x, p.eval(&fp, x))).collect();
/// pts[2].1 = fp.add(pts[2].1, 1); // corrupt one share
/// assert_eq!(rs::decode(&fp, &pts, 1), Some(p));
/// # Ok(())
/// # }
/// ```
pub fn decode(fp: &Fp, points: &[(FpElem, FpElem)], degree: usize) -> Option<Poly> {
    let n = points.len();
    if n == 0 {
        return None;
    }
    let max_errors = (n.saturating_sub(degree + 1)) / 2;
    // Distinct-x sanity check (protocol callers key points by node id).
    for (i, &(xi, _)) in points.iter().enumerate() {
        for &(xj, _) in &points[i + 1..] {
            if fp.reduce(xi) == fp.reduce(xj) {
                return None;
            }
        }
    }
    decode_with_errors(fp, points, degree, max_errors)
}

/// Which unknown a pushed column of the key equation stands for.
#[derive(Debug, Clone, Copy)]
enum Unknown {
    /// Coefficient `j` of `Q`.
    Q(usize),
    /// Coefficient `j` of the error locator `E`.
    E(usize),
}

/// Splits a kernel vector of the key equation into `(Q, E)` coefficient
/// vectors according to the column labels.
fn split_kernel(labels: &[Unknown], kernel: &[FpElem]) -> (Vec<FpElem>, Vec<FpElem>) {
    let q_len = labels.iter().filter(|l| matches!(l, Unknown::Q(_))).count();
    let mut q = vec![0; q_len];
    let mut e = vec![0; labels.len() - q_len];
    for (label, &v) in labels.iter().zip(kernel) {
        match label {
            Unknown::Q(j) => q[*j] = v,
            Unknown::E(j) => e[*j] = v,
        }
    }
    (q, e)
}

/// Turns one kernel vector of the key equation into an accepted codeword,
/// or `None` when the candidate does not survive the checks: `E ≢ 0`, the
/// division `Q / E` exact, the quotient of degree `≤ degree` and within
/// `budget` mismatches of the view. Shared by the ladder and the batch
/// decoder so acceptance can never drift between them.
fn accept_candidate(
    fp: &Fp,
    xs: &[FpElem],
    ys: &[FpElem],
    degree: usize,
    budget: usize,
    labels: &[Unknown],
    kernel: &[FpElem],
) -> Option<Poly> {
    let (q_coeffs, e_coeffs) = split_kernel(labels, kernel);
    let q = Poly::from_coeffs(q_coeffs);
    let e = Poly::from_coeffs(e_coeffs);
    if e.is_zero() {
        // Impossible over distinct xs (a nonzero kernel vector with E = 0
        // would force Q to vanish at more points than its degree), but
        // reachable through duplicate xs fed to `decode_with_errors`.
        return None;
    }
    let (p, rem) = q.divmod(fp, &e).ok()?;
    if !rem.is_zero() || p.degree().is_some_and(|d| d > degree) {
        return None;
    }
    // Accept only if the candidate explains all but <= budget points; this
    // rejects spurious solutions of the key equation.
    let mismatches = xs
        .iter()
        .zip(ys)
        .filter(|&(&x, &y)| p.eval(fp, x) != y)
        .count();
    (mismatches <= budget).then_some(p)
}

/// Berlekamp–Welch with an explicit error budget `e`.
///
/// Tries `e = 0, 1, …` until a candidate polynomial explains all but at
/// most `budget` of the points, extending **one** elimination by the two
/// new columns of each rung (see the module docs) instead of re-solving
/// from scratch at each error count. Exposed for tests and for callers
/// that know a tighter bound than `(n - degree - 1) / 2`.
pub fn decode_with_errors(
    fp: &Fp,
    points: &[(FpElem, FpElem)],
    degree: usize,
    max_errors: usize,
) -> Option<Poly> {
    let n = points.len();
    if n < degree + 1 {
        return None;
    }
    let budget = max_errors.min((n - degree - 1) / 2);
    let xs: Vec<FpElem> = points.iter().map(|&(x, _)| fp.reduce(x)).collect();
    let ys: Vec<FpElem> = points.iter().map(|&(_, y)| fp.reduce(y)).collect();
    // x^j for every point, up to the largest power any rung needs.
    let xpow = power_table(fp, &xs, degree + budget);

    let mut el = Eliminator::new(n);
    let mut labels: Vec<Unknown> = Vec::with_capacity(degree + 2 * budget + 2);
    let push = |el: &mut Eliminator, label: Unknown, labels: &mut Vec<Unknown>| {
        let col: Vec<FpElem> = match label {
            Unknown::Q(j) => (0..n).map(|i| xpow[i][j]).collect(),
            Unknown::E(j) => (0..n).map(|i| fp.neg(fp.mul(ys[i], xpow[i][j]))).collect(),
        };
        el.push_col(fp, col);
        labels.push(label);
    };
    // Rung e = 0: Q(x_i) = y_i * E with constant E.
    for j in 0..=degree {
        push(&mut el, Unknown::Q(j), &mut labels);
    }
    push(&mut el, Unknown::E(0), &mut labels);
    // Ascending e: the clean/low-error case (the common one) stops at the
    // smallest system. Correctness does not depend on the order — any
    // candidate within `budget` mismatches of the view is the unique
    // codeword at that distance.
    for e in 0..=budget {
        if e > 0 {
            // The incremental rung: two columns extend the elimination.
            push(&mut el, Unknown::Q(degree + e), &mut labels);
            push(&mut el, Unknown::E(e), &mut labels);
        }
        if let Some(kernel) = el.kernel_vector(fp) {
            // The first kernel candidate settles the decode either way:
            // `kernel_vector` always reads off the *first* free column,
            // and columns pushed on later rungs contribute zero
            // coefficients to that padded vector (a free column is zero
            // at and below the elimination front of its time), so every
            // later rung would re-derive this exact candidate.
            return accept_candidate(fp, &xs, &ys, degree, budget, &labels, &kernel);
        }
    }
    None
}

/// `table[i][j] = xs[i]^j` for `j = 0..=max_pow`.
fn power_table(fp: &Fp, xs: &[FpElem], max_pow: usize) -> Vec<Vec<FpElem>> {
    xs.iter().map(|&x| fp.powers(x, max_pow + 1)).collect()
}

/// Decodes many codewords that share one evaluation-point set: a clean
/// codeword costs dot products against tables that depend only on the
/// points, and the rest share one factored Vandermonde block of the
/// Berlekamp–Welch key equation (both built lazily, once).
///
/// This is the shape of the GVSS recover round: at each beat a node
/// decodes one degree-`f` polynomial per `(dealer, target)` pair, and all
/// of them are evaluated at the same node indices. Results are bit-for-bit
/// identical to calling [`decode`] per codeword (pinned by proptests).
///
/// # Example
///
/// ```
/// use byzclock_field::{BatchDecoder, Fp, Poly};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let xs: Vec<u64> = (1..=7).collect();
/// let p = Poly::from_coeffs(vec![5, 3, 7]);
/// let q = Poly::from_coeffs(vec![2, 0, 9]);
/// let mut ys_p: Vec<u64> = xs.iter().map(|&x| p.eval(&fp, x)).collect();
/// let ys_q: Vec<u64> = xs.iter().map(|&x| q.eval(&fp, x)).collect();
/// ys_p[4] = fp.add(ys_p[4], 3); // one corrupted share
///
/// let mut dec = BatchDecoder::new(&fp, &xs, 2).expect("distinct xs, enough points");
/// assert_eq!(dec.budget(), 2);
/// assert_eq!(dec.decode_at_zero(&ys_p), Some(5));
/// assert_eq!(dec.decode_batch(&[ys_p, ys_q]), vec![Some(p), Some(q)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchDecoder {
    fp: Fp,
    xs: Vec<FpElem>,
    degree: usize,
    budget: usize,
    /// `xpow[i][j] = xs[i]^j`, shared by both rungs and every codeword.
    xpow: Vec<Vec<FpElem>>,
    /// The clean rung's tables, built on the first decode.
    linear: Option<LinearTables>,
    /// The eliminated Vandermonde `Q`-block of the full-budget rung, built
    /// on the first view that is not a codeword — a clean batch never
    /// factors anything.
    full_stage: Option<Eliminator>,
    /// The reduced view under decode, reused across calls so a clean
    /// decode allocates nothing beyond its result.
    ys_buf: Vec<FpElem>,
}

/// What the clean rung knows about a point set. With `k = degree + 1` and
/// the *head* of a view its first `k` values, both matrices are row-major
/// with rows of length `k`, ready for [`Fp::dot`] against the head.
#[derive(Debug, Clone)]
struct LinearTables {
    /// `k × k`, the inverse Vandermonde matrix of the first `k` points:
    /// row `c` dotted with the head is coefficient `c` of the polynomial
    /// through it. Row 0 is the functional "value at 0".
    interp: Vec<FpElem>,
    /// `(m − k) × k`: row `r` dotted with the head is that polynomial's
    /// value at `xs[k + r]` — the view is a codeword iff every one of
    /// these equals the view's own value there.
    ext: Vec<FpElem>,
}

impl LinearTables {
    fn new(fp: &Fp, xs: &[FpElem], xpow: &[Vec<FpElem>], degree: usize) -> Self {
        let k = degree + 1;
        // M(x) = Π_{i<k} (x − x_i), low coefficient first.
        let mut master = vec![0; k + 1];
        master[0] = 1;
        for (len, &x) in xs[..k].iter().enumerate() {
            for c in (1..=len + 1).rev() {
                master[c] = fp.sub(master[c - 1], fp.mul(x, master[c]));
            }
            master[0] = fp.neg(fp.mul(x, master[0]));
        }
        // The Lagrange basis L_j = M / (x − x_j) / M'(x_j), by synthetic
        // division; its coefficients are column j of the inverse.
        let mut interp = vec![0; k * k];
        let mut quot = vec![0; k];
        for j in 0..k {
            quot[k - 1] = master[k];
            for c in (1..k).rev() {
                quot[c - 1] = fp.add(master[c], fp.mul(xs[j], quot[c]));
            }
            let at_xj = fp.dot(&quot, &xpow[j]);
            let scale = fp.inv(at_xj).expect("distinct xs: M'(x_j) is nonzero");
            for c in 0..k {
                interp[c * k + j] = fp.mul(quot[c], scale);
            }
        }
        // ext[r][j] = L_j(x_{k+r}) = Σ_c interp[c][j] · x_{k+r}^c.
        let mut ext = vec![0; (xs.len() - k) * k];
        for (row, pows) in ext.chunks_mut(k).zip(&xpow[k..]) {
            for (c, &xp) in pows[..k].iter().enumerate() {
                for j in 0..k {
                    row[j] = fp.add(row[j], fp.mul(interp[c * k + j], xp));
                }
            }
        }
        LinearTables { interp, ext }
    }
}

impl BatchDecoder {
    /// A decoder for codewords of degree at most `degree` evaluated at
    /// `xs`.
    ///
    /// Returns `None` exactly when [`decode`] would fail for *any*
    /// codeword over these points: an empty or too-short point set
    /// (`xs.len() < degree + 1`) or duplicate x-coordinates.
    pub fn new(fp: &Fp, xs: &[FpElem], degree: usize) -> Option<Self> {
        if xs.len() < degree + 1 {
            return None;
        }
        let xs: Vec<FpElem> = xs.iter().map(|&x| fp.reduce(x)).collect();
        for (i, &xi) in xs.iter().enumerate() {
            if xs[i + 1..].contains(&xi) {
                return None;
            }
        }
        let budget = (xs.len() - degree - 1) / 2;
        let xpow = power_table(fp, &xs, degree + budget);
        Some(BatchDecoder {
            fp: *fp,
            xs,
            degree,
            budget,
            xpow,
            linear: None,
            full_stage: None,
            ys_buf: Vec::new(),
        })
    }

    /// Number of evaluation points per codeword.
    pub fn codeword_len(&self) -> usize {
        self.xs.len()
    }

    /// The error budget: up to this many corrupted values per codeword are
    /// tolerated (`(len − degree − 1) / 2`).
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Decodes one codeword. Returns the unique polynomial of degree
    /// `≤ degree` within [`BatchDecoder::budget`] mismatches of `ys`, or
    /// `None` — including when `ys.len()` does not match
    /// [`BatchDecoder::codeword_len`].
    ///
    /// Only two rungs of the error ladder ever run: the clean one (`e = 0`:
    /// `ys` is a codeword iff it equals the extension of its own head, and
    /// then the polynomial through the head is the answer) and the
    /// full-budget stage. The intermediate rungs the one-shot ladder climbs
    /// are redundant here: at the full budget, *any* nonzero kernel vector
    /// already satisfies `Q = P·E` exactly whenever the view is within
    /// budget of a codeword `P` (the `n ≥ degree + 2·budget + 1` point
    /// count makes `Q − P·E` vanish at more points than its degree), so
    /// every error count `1..=budget` is resolved by one stage — and the
    /// answer is still identical to the one-shot decode by uniqueness.
    pub fn decode_one(&mut self, ys: &[FpElem]) -> Option<Poly> {
        if self.load(ys)? {
            let (fp, head, tables) = self.clean_parts();
            let coeffs = tables.interp.chunks(head.len());
            Some(Poly::from_coeffs(
                coeffs.map(|row| fp.dot(row, head)).collect(),
            ))
        } else {
            self.decode_loaded_with_errors()
        }
    }

    /// The decoded polynomial's value at 0 — what a Shamir recovery wants:
    /// `decode_one(ys).map(|g| g.eval(fp, 0))`, but a clean codeword pays
    /// one more dot product instead of building the polynomial.
    pub fn decode_at_zero(&mut self, ys: &[FpElem]) -> Option<FpElem> {
        if self.load(ys)? {
            let (fp, head, tables) = self.clean_parts();
            Some(fp.dot(&tables.interp[..head.len()], head))
        } else {
            let fp = self.fp;
            self.decode_loaded_with_errors().map(|g| g.eval(&fp, 0))
        }
    }

    /// The clean rung: loads the reduced view into `ys_buf` and reports
    /// whether it is a codeword (`None` on a length mismatch).
    fn load(&mut self, ys: &[FpElem]) -> Option<bool> {
        if ys.len() != self.xs.len() {
            return None;
        }
        let fp = self.fp;
        self.ys_buf.clear();
        if ys.iter().all(|&y| fp.contains(y)) {
            self.ys_buf.extend_from_slice(ys);
        } else {
            self.ys_buf.extend(ys.iter().map(|&y| fp.reduce(y)));
        }
        let (xs, xpow, degree) = (&self.xs, &self.xpow, self.degree);
        let tables = self
            .linear
            .get_or_insert_with(|| LinearTables::new(&fp, xs, xpow, degree));
        let (head, tail) = self.ys_buf.split_at(degree + 1);
        let mut extension = tables.ext.chunks(degree + 1).zip(tail);
        Some(extension.all(|(row, &y)| fp.dot(row, head) == y))
    }

    /// The field, the loaded view's head and the tables, after a
    /// [`BatchDecoder::load`] that reported a codeword.
    fn clean_parts(&self) -> (Fp, &[FpElem], &LinearTables) {
        let tables = self.linear.as_ref().expect("load built the tables");
        (self.fp, &self.ys_buf[..=self.degree], tables)
    }

    /// The full-budget rung over the loaded view, which is not a codeword.
    fn decode_loaded_with_errors(&mut self) -> Option<Poly> {
        let e = self.budget;
        if e == 0 {
            return None; // the clean rung was the only one
        }
        let n = self.xs.len();
        let fp = self.fp;
        let q_len = self.degree + e + 1;
        let xpow = &self.xpow;
        let ys = &self.ys_buf;
        let stage = self
            .full_stage
            .get_or_insert_with(|| build_stage(&fp, xpow, q_len));
        // Push the y-dependent columns (built in recycled column buffers),
        // read a kernel vector, rewind to the shared Q-block factorization.
        let mark = stage.mark();
        for j in 0..=e {
            let mut col = stage.spare_col();
            col.extend((0..n).map(|i| fp.neg(fp.mul(ys[i], xpow[i][j]))));
            stage.push_col(&fp, col);
        }
        let kernel = stage.kernel_vector(&fp);
        stage.reset(mark);
        let kernel = kernel?;
        let labels: Vec<Unknown> = (0..q_len)
            .map(Unknown::Q)
            .chain((0..=e).map(Unknown::E))
            .collect();
        accept_candidate(&fp, &self.xs, ys, self.degree, e, &labels, &kernel)
    }

    /// Decodes a batch of codewords; `out[i]` is [`decode_one`] of
    /// `codewords[i]`. The tables and the full-budget factorization are
    /// built at most once across the whole batch — the amortization the
    /// GVSS recover round leans on.
    ///
    /// [`decode_one`]: BatchDecoder::decode_one
    pub fn decode_batch(&mut self, codewords: &[Vec<FpElem>]) -> Vec<Option<Poly>> {
        codewords.iter().map(|ys| self.decode_one(ys)).collect()
    }
}

/// Eliminates the [`BatchDecoder`] full-budget stage's shared Vandermonde
/// `Q`-block. Distinct xs make the block full column rank, so every column
/// pivots and the stage is rewindable to this state per codeword.
fn build_stage(fp: &Fp, xpow: &[Vec<FpElem>], q_len: usize) -> Eliminator {
    let n = xpow.len();
    let mut el = Eliminator::new(n);
    for j in 0..q_len {
        let pivoted = el.push_col(fp, (0..n).map(|i| xpow[i][j]).collect());
        debug_assert!(pivoted, "Vandermonde columns over distinct xs pivot");
    }
    el
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::TEST_PRIMES;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn eval_points(fp: &Fp, p: &Poly, n: u64) -> Vec<(u64, u64)> {
        (1..=n).map(|x| (x, p.eval(fp, x))).collect()
    }

    #[test]
    fn decodes_clean_shares() {
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let pts = eval_points(&fp, &p, 7);
        assert_eq!(decode(&fp, &pts, 2), Some(p));
    }

    #[test]
    fn decodes_with_max_budget_errors() {
        // n = 7, degree = 2 -> budget = (7 - 3) / 2 = 2 errors.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let mut pts = eval_points(&fp, &p, 7);
        pts[0].1 = fp.add(pts[0].1, 3);
        pts[4].1 = fp.add(pts[4].1, 9);
        assert_eq!(decode(&fp, &pts, 2), Some(p));
    }

    #[test]
    fn fails_beyond_budget() {
        // Three errors against a budget of two: must not return the original.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let mut pts = eval_points(&fp, &p, 7);
        for i in 0..3 {
            pts[i].1 = fp.add(pts[i].1, 1);
        }
        assert_ne!(decode(&fp, &pts, 2), Some(p));
    }

    #[test]
    fn too_few_points_fails() {
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![5, 3, 7]);
        let pts = eval_points(&fp, &p, 2);
        assert_eq!(decode(&fp, &pts, 2), None);
    }

    #[test]
    fn duplicate_x_fails_cleanly() {
        let fp = Fp::new(11).unwrap();
        let pts = vec![(1, 2), (1, 3), (2, 4), (3, 5)];
        assert_eq!(decode(&fp, &pts, 1), None);
        assert!(BatchDecoder::new(&fp, &[1, 1, 2, 3], 1).is_none());
    }

    #[test]
    fn zero_polynomial_decodes() {
        let fp = Fp::new(11).unwrap();
        let pts: Vec<_> = (1..=5u64).map(|x| (x, 0u64)).collect();
        assert_eq!(decode(&fp, &pts, 1), Some(Poly::zero()));
        let mut dec = BatchDecoder::new(&fp, &[1, 2, 3, 4, 5], 1).unwrap();
        assert_eq!(dec.decode_one(&[0; 5]), Some(Poly::zero()));
    }

    #[test]
    fn binding_under_equivocated_shares() {
        // Byzantine nodes may send *different* corrupted shares to different
        // observers; both observers must still decode the same polynomial.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![8, 1, 2]);
        let base = eval_points(&fp, &p, 7);
        let mut view_a = base.clone();
        let mut view_b = base.clone();
        view_a[1].1 = 0;
        view_a[6].1 = 5;
        view_b[1].1 = 9;
        view_b[6].1 = 1;
        assert_eq!(decode(&fp, &view_a, 2), Some(p.clone()));
        assert_eq!(decode(&fp, &view_b, 2), Some(p));
    }

    #[test]
    fn batch_decoder_rejects_short_point_sets_and_bad_lengths() {
        let fp = Fp::new(11).unwrap();
        assert!(BatchDecoder::new(&fp, &[], 1).is_none());
        assert!(BatchDecoder::new(&fp, &[1, 2], 2).is_none());
        let mut dec = BatchDecoder::new(&fp, &[1, 2, 3, 4, 5], 1).unwrap();
        assert_eq!(dec.codeword_len(), 5);
        assert_eq!(dec.decode_one(&[1, 2, 3]), None, "length mismatch");
    }

    #[test]
    fn batch_decoder_reduces_inputs_like_decode() {
        // Unreduced xs/ys must behave as their reduced forms, matching the
        // per-point reduction of the one-shot path.
        let fp = Fp::new(11).unwrap();
        let p = Poly::from_coeffs(vec![4, 2]);
        let xs: Vec<u64> = (1..=5).collect();
        let ys: Vec<u64> = xs.iter().map(|&x| p.eval(&fp, x) + 22).collect();
        let mut dec = BatchDecoder::new(&fp, &xs, 1).unwrap();
        assert_eq!(dec.decode_one(&ys), Some(p));
        // Duplicate-after-reduction xs are rejected like literal ones.
        assert!(BatchDecoder::new(&fp, &[1, 12, 2, 3], 1).is_none());
    }

    #[test]
    fn batch_reuses_stages_across_mixed_error_counts() {
        // One decoder, many codewords with 0..=budget errors each, decoded
        // in an order that exercises stage reuse after rewinds.
        let fp = Fp::for_cluster(13);
        let mut rng = StdRng::seed_from_u64(42);
        let f = 4;
        let mut dec = BatchDecoder::new(&fp, &(1..=13).collect::<Vec<_>>(), f).unwrap();
        for round in 0..3u64 {
            for errors in [f, 0, 2, 1, f, 0] {
                let p = Poly::random_with_secret(&fp, fp.sample(&mut rng), f, &mut rng);
                let mut ys: Vec<u64> = (1..=13).map(|x| p.eval(&fp, x)).collect();
                for i in 0..errors {
                    ys[i] = fp.add(ys[i], 1 + round);
                }
                assert_eq!(
                    dec.decode_one(&ys),
                    Some(p),
                    "round {round}, {errors} errors"
                );
            }
        }
    }

    proptest! {
        /// Shamir recovery with adversarial corruption: n = 3f + 1 shares,
        /// f of them corrupted arbitrarily, degree-f secret polynomial.
        #[test]
        fn shamir_recover_under_f_faults(seed in 0u64..300, f in 1usize..4) {
            let n = 3 * f + 1;
            let fp = Fp::for_cluster(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let secret = fp.sample(&mut rng);
            let p = Poly::random_with_secret(&fp, secret, f, &mut rng);
            let mut pts = eval_points(&fp, &p, n as u64);
            // Corrupt f distinct shares with arbitrary values.
            for i in 0..f {
                pts[i].1 = fp.sample(&mut rng);
            }
            let decoded = decode(&fp, &pts, f).expect("within Berlekamp-Welch budget");
            prop_assert_eq!(decoded.eval(&fp, 0), secret);
        }

        /// Random polynomials, random error patterns within budget.
        #[test]
        fn random_error_patterns(seed in 0u64..300, degree in 0usize..4, extra in 0usize..5) {
            let mut rng = StdRng::seed_from_u64(seed);
            let fp = Fp::new(101).unwrap();
            let budget = extra / 2;
            let n = degree + 1 + 2 * budget;
            let p = Poly::random_with_secret(&fp, fp.sample(&mut rng), degree, &mut rng);
            let mut pts = eval_points(&fp, &p, n as u64);
            let mut corrupted = 0usize;
            while corrupted < budget {
                let idx = rng.random_range(0..n);
                let new_y = fp.sample(&mut rng);
                if new_y != p.eval(&fp, pts[idx].0) {
                    pts[idx].1 = new_y;
                    corrupted += 1;
                }
            }
            prop_assert_eq!(decode(&fp, &pts, degree), Some(p));
        }

        /// The tentpole contract: `BatchDecoder` output is identical to
        /// per-codeword [`decode`] across random error patterns up to f —
        /// and slightly beyond, where both must agree on the failure (or
        /// on whichever codeword the over-corrupted view landed near).
        /// Error counts >= 1 drive the incremental ladder past its first
        /// rung on both paths.
        #[test]
        fn batch_decoder_matches_sequential_decode(
            seed in 0u64..200,
            f in 1usize..4,
            codewords in 1usize..6,
        ) {
            let n = 3 * f + 1;
            let fp = Fp::for_cluster(n);
            let mut rng = StdRng::seed_from_u64(seed);
            let xs: Vec<u64> = (1..=n as u64).collect();
            let mut dec = BatchDecoder::new(&fp, &xs, f).expect("valid point set");
            prop_assert_eq!(dec.budget(), f, "n = 3f + 1 tolerates exactly f errors");
            let mut batch = Vec::new();
            for _ in 0..codewords {
                let p = Poly::random_with_secret(&fp, fp.sample(&mut rng), f, &mut rng);
                let mut ys: Vec<u64> = xs.iter().map(|&x| p.eval(&fp, x)).collect();
                // 0..=f+1 corruptions: within budget, at budget, beyond.
                let errors = rng.random_range(0..=f + 1);
                for _ in 0..errors {
                    let idx = rng.random_range(0..n);
                    ys[idx] = fp.sample(&mut rng);
                }
                batch.push(ys);
            }
            let batched = dec.decode_batch(&batch);
            for (ys, got) in batch.iter().zip(&batched) {
                let pts: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
                prop_assert_eq!(got.clone(), decode(&fp, &pts, f));
            }
        }

        /// The linear clean rung and the value-only entry against the
        /// one-shot decoder, over every test modulus and every way a view
        /// can sit relative to the code: a codeword, within budget, one
        /// past it, damaged only in the head the rung interpolates from,
        /// non-canonical, `m = degree + 1` (no extension rows, budget 0),
        /// and the wrong length.
        #[test]
        fn linear_rung_and_value_entry_match_one_shot_decode(
            p in proptest::sample::select(TEST_PRIMES.to_vec()),
            seed in any::<u64>(),
            shape in 0usize..6,
        ) {
            let fp = Fp::new(p).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.random_range(1..=p.min(13)) as usize;
            let degree = if shape == 5 { m - 1 } else { rng.random_range(0..m) };
            let budget = (m - degree - 1) / 2;
            // m <= p consecutive residues: distinct points, 0 among them.
            let start = fp.sample(&mut rng);
            let xs: Vec<u64> = (0..m as u64).map(|i| fp.add(start, fp.reduce(i))).collect();
            let g = Poly::random_with_secret(&fp, fp.sample(&mut rng), degree, &mut rng);
            let mut ys: Vec<u64> = xs.iter().map(|&x| g.eval(&fp, x)).collect();
            // `errors` distinct positions among the first `span`.
            let (errors, span) = match shape {
                0 | 5 => (0, m),
                2 => (budget + 1, m),
                3 => (rng.random_range(1..=degree + 1), degree + 1),
                _ => (rng.random_range(budget.min(1)..=budget), m),
            };
            let mut positions: Vec<usize> = (0..span).collect();
            for i in 0..errors {
                positions.swap(i, rng.random_range(i..span));
                let y = &mut ys[positions[i]];
                *y = fp.add(*y, rng.random_range(1..p));
            }
            if shape == 4 {
                for y in &mut ys {
                    *y += p * rng.random_range(0..3u64);
                }
            }
            let points: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
            let want = decode(&fp, &points, degree);
            if errors <= budget {
                prop_assert_eq!(want.as_ref(), Some(&g));
            }
            let mut dec = BatchDecoder::new(&fp, &xs, degree).expect("distinct xs");
            prop_assert_eq!(dec.budget(), budget);
            // Twice: the second call runs against the cached tables.
            for _ in 0..2 {
                prop_assert_eq!(dec.decode_one(&ys), want.clone());
                prop_assert_eq!(
                    dec.decode_at_zero(&ys),
                    want.as_ref().map(|g| g.eval(&fp, 0))
                );
            }
            prop_assert_eq!(dec.decode_one(&ys[..m - 1]), None);
            prop_assert_eq!(dec.decode_at_zero(&ys[..m - 1]), None);
        }

        /// The incremental ladder (`decode_with_errors` with a caller
        /// budget) agrees with a fresh decoder at every max_errors cut.
        #[test]
        fn incremental_ladder_matches_at_every_budget(
            seed in 0u64..200,
            degree in 0usize..3,
        ) {
            let fp = Fp::new(101).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let n = degree + 7; // budget (n - degree - 1) / 2 = 3
            let p = Poly::random_with_secret(&fp, fp.sample(&mut rng), degree, &mut rng);
            let mut pts: Vec<(u64, u64)> =
                (1..=n as u64).map(|x| (x, p.eval(&fp, x))).collect();
            let errors = rng.random_range(0..=3usize);
            for i in 0..errors {
                pts[i].1 = fp.sample(&mut rng);
            }
            for max_errors in 0..=3usize {
                let got = decode_with_errors(&fp, &pts, degree, max_errors);
                // The ladder must find p whenever the corruption fits the
                // caller's budget; the uniqueness argument covers the rest.
                if errors <= max_errors {
                    prop_assert_eq!(got, Some(p.clone()), "max_errors {}", max_errors);
                } else if let Some(q) = got {
                    let mismatches = pts
                        .iter()
                        .filter(|&&(x, y)| q.eval(&fp, x) != fp.reduce(y))
                        .count();
                    prop_assert!(mismatches <= max_errors.min((n - degree - 1) / 2));
                }
            }
        }
    }
}

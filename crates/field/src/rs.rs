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
//! # Three linear rungs
//!
//! Decoding sits under every coin flip (the `benchmark/` package's
//! `field.decode.*` micro-timings and `coin.recover.recv_ms` span measure
//! it), and every rung of it is linear algebra against one kind of table.
//! The *tables* at degree `d` over `m` points, with `k = d + 1`, hold
//! the inverse Vandermonde matrix of the first `k` points and the
//! *extension* matrix that maps a view's first `k` values (its *head*) to
//! the values the degree-`≤ d` polynomial through them takes at the other
//! `m − k` points. A view is a codeword of degree `≤ d` iff its
//! *residual* — its tail minus the extension of its head — is zero, and
//! then the inverse Vandermonde rows dotted with the head are its
//! coefficients. All codewords that share one evaluation-point set (the
//! per-beat GVSS recover case — every dealer's share vector uses the same
//! node indices) share these tables, so [`BatchDecoder`] builds them once
//! and tries three rungs in order:
//!
//! 1. The *clean* rung (`e = 0`): the tables at `degree`. A codeword costs
//!    one [`Fp::eval_columns`] of its head against the extension matrix,
//!    a comparison with its tail and one dot product, no allocation.
//! 2. The *erasure* rung: the clean rung over the points outside a learned
//!    *liar hint* `S` (`1 ≤ |S| ≤ budget` positions the last
//!    Berlekamp–Welch solves found wrong), with its own tables. The
//!    paper's Byzantine set is fixed, so the wrong shares of one beat's —
//!    and the next beat's — codewords come from the same `≤ f` senders,
//!    and once `S` covers them a dirty view costs the same evaluation.
//! 3. *Berlekamp–Welch* at the full budget `e`, for a view neither rung
//!    above explains, against the *key tables*: the tables at
//!    `degree + e`. A success folds the positions it found wrong into `S`.
//!    [`decode`] is this rung alone.
//!
//! The key equation asks for a nonzero error locator `E` with `deg E ≤ e`
//! and a `Q` with `deg Q ≤ degree + e` such that `Q(x_i) = y_i · E(x_i)`:
//! the vector `y ⊙ E(x)` must be a codeword of degree `≤ degree + e`. Its
//! residual against the key tables is linear in `E`'s coefficients `ε`:
//! column `j` of the `(m − k) × (e + 1)` matrix `R` (now
//! `k = degree + e + 1`) is the residual of `y ⊙ xʲ`. So `E` is any
//! nonzero kernel vector of `R` — a Gauss–Jordan over at most `e + 1`
//! columns; `R` has `m − k ≥ e` rows, and none at all when `m = k`, where
//! `ε = (1, 0, …)` — and `Q` is the key tables' interpolation of the head
//! of `y ⊙ E(x)`. Nothing is lost against the textbook solve of the whole
//! `m × (degree + 2e + 2)` system: its Vandermonde block has full column
//! rank over distinct `x`s, so `(Q, E)` solves it exactly when `Rε = 0`
//! and `Q` is that interpolation, and a nonzero `ε` is a nonzero `E`. The
//! candidate `P = Q / E` is accepted when the division is exact,
//! `deg P ≤ degree` and `P` is within `e` mismatches of the view.
//!
//! Whenever the view is within `e` errors of a codeword `P`, *every*
//! solution has `Q = P·E` — `Q − P·E` has degree `≤ degree + e` and
//! vanishes at the `≥ m − e ≥ degree + e + 1` points where the view is
//! right — so which kernel vector the elimination reads off cannot change
//! the answer, and one solve at the full budget resolves every error count
//! `0..=e`.
//!
//! Every path returns exactly what Berlekamp–Welch returns: the unique
//! codeword within `budget` mismatches of the view, or `None`. Two
//! degree-`≤ d` polynomials within `budget = (n − d − 1) / 2` mismatches
//! of the same `n`-point view agree on `≥ n − 2·budget ≥ d + 1` points and
//! hence are equal, so *which* rung succeeds first cannot change the
//! answer. For the erasure rung: if the `n − |S|` kept points fit a
//! polynomial `P` of degree `≤ d`, then `P` differs from the view in at
//! most `|S| ≤ budget` positions, so it is that unique codeword — whatever
//! `S` is. A wrong or stale hint can only send a view on to
//! Berlekamp–Welch; it changes what a decode costs, never what it returns
//! (the proptests below install arbitrary hints to pin this, and check
//! both entries against a brute-force nearest-codeword search).

// Indexed loops in this file mirror the paper's matrix/polynomial
// subscripts; iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::{Fp, FpElem, Poly};

/// Decodes a polynomial of degree at most `degree` from `points`, tolerating
/// up to `(points.len() − degree − 1) / 2` corrupted y-values.
///
/// Returns `None` when decoding fails (more errors than that budget, or
/// fewer than `degree + 1` points).
///
/// x-coordinates must be distinct; duplicate x-coordinates make the decode
/// fail (returns `None`) rather than panic, because in the protocol the
/// point list is keyed by node id and duplicates indicate caller error only
/// in tests.
///
/// Decoding many codewords over one x-set? Use [`BatchDecoder`], which
/// builds its tables once and answers most views with one column
/// evaluation, and returns identical results.
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
    if n < degree + 1 {
        return None;
    }
    let xs: Vec<FpElem> = points.iter().map(|&(x, _)| fp.reduce(x)).collect();
    // Distinct-x sanity check (protocol callers key points by node id).
    for (i, &xi) in xs.iter().enumerate() {
        if xs[i + 1..].contains(&xi) {
            return None;
        }
    }
    let ys: Vec<FpElem> = points.iter().map(|&(_, y)| fp.reduce(y)).collect();
    let e = (n - degree - 1) / 2;
    let xpow = power_table(fp, &xs, degree + e);
    let key = LinearTables::new(fp, &xs, &xpow, degree + e);
    berlekamp_welch(
        fp,
        &key,
        &xs,
        &xpow,
        &ys,
        degree,
        e,
        &mut Vec::new(),
        &mut Vec::new(),
    )
}

/// Berlekamp–Welch at error budget `e` over a reduced view `ys`: the
/// polynomial of degree `≤ degree` within `e` mismatches of it, or `None`
/// (see the module docs). `key` is [`LinearTables`] at degree
/// `degree + e` over `xs`, `xpow` reaches `x^(degree + e)`, and `scratch`
/// is working space. On success `mismatches` holds the positions where
/// the answer disagrees with the view (the batch decoder's liar hint
/// learns from them).
#[allow(clippy::too_many_arguments)]
fn berlekamp_welch(
    fp: &Fp,
    key: &LinearTables,
    xs: &[FpElem],
    xpow: &[Vec<FpElem>],
    ys: &[FpElem],
    degree: usize,
    e: usize,
    scratch: &mut Vec<FpElem>,
    mismatches: &mut Vec<usize>,
) -> Option<Poly> {
    let (m, k, cols) = (xs.len(), key.k, e + 1);
    // R, row-major, followed by room for a length-m vector and for its
    // head's extension.
    scratch.clear();
    scratch.resize((m - k) * cols + m + (m - k), 0);
    let (r, rest) = scratch.split_at_mut((m - k) * cols);
    let (v, extension) = rest.split_at_mut(m);
    for j in 0..cols {
        for i in 0..m {
            v[i] = fp.mul(ys[i], xpow[i][j]);
        }
        let (head, tail) = v.split_at(k);
        fp.eval_columns(head, &key.ext, extension);
        for (row, (&y, &x)) in tail.iter().zip(&*extension).enumerate() {
            r[row * cols + j] = fp.sub(y, x);
        }
    }
    let locator = kernel_vector(fp, r, cols)?;
    for i in 0..k {
        v[i] = fp.mul(ys[i], fp.dot(&locator, &xpow[i]));
    }
    let q = key.poly(fp, &v[..k]);
    let (p, rem) = q.divmod(fp, &Poly::from_coeffs(locator)).ok()?;
    if !rem.is_zero() || p.degree().is_some_and(|d| d > degree) {
        return None;
    }
    // Accept only if the candidate explains all but <= e points; this
    // rejects spurious solutions of the key equation.
    mismatches.clear();
    mismatches.extend((0..m).filter(|&i| p.eval(fp, xs[i]) != ys[i]));
    (mismatches.len() <= e).then_some(p)
}

/// A nonzero kernel vector of the row-major matrix `a` with `cols`
/// columns, by Gauss–Jordan elimination in place: the first free column's
/// unknown is 1 and every later one 0. `None` when the columns are
/// independent.
fn kernel_vector(fp: &Fp, a: &mut [FpElem], cols: usize) -> Option<Vec<FpElem>> {
    let rows = a.len() / cols;
    // The column of each reduced row's pivot.
    let mut pivots: Vec<usize> = Vec::with_capacity(cols);
    for c in 0..cols {
        let top = pivots.len();
        let Some(pr) = (top..rows).find(|&r| a[r * cols + c] != 0) else {
            let mut kernel = vec![0; cols];
            kernel[c] = 1;
            for (r, &pc) in pivots.iter().enumerate() {
                kernel[pc] = fp.neg(a[r * cols + c]);
            }
            return Some(kernel);
        };
        // Every column before `c` is a pivot column, so rows at or below
        // `top` are zero left of `c`.
        for j in c..cols {
            a.swap(top * cols + j, pr * cols + j);
        }
        let inv = fp.inv(a[top * cols + c]).expect("pivot is nonzero");
        for j in c..cols {
            a[top * cols + j] = fp.mul(a[top * cols + j], inv);
        }
        for r in (0..rows).filter(|&r| r != top) {
            let factor = a[r * cols + c];
            for j in c..cols {
                a[r * cols + j] = fp.sub(a[r * cols + j], fp.mul(factor, a[top * cols + j]));
            }
        }
        pivots.push(c);
    }
    None
}

/// `table[i][j] = xs[i]^j` for `j = 0..=max_pow`.
fn power_table(fp: &Fp, xs: &[FpElem], max_pow: usize) -> Vec<Vec<FpElem>> {
    xs.iter().map(|&x| fp.powers(x, max_pow + 1)).collect()
}

/// Decodes many codewords that share one evaluation-point set: a clean
/// codeword costs one column evaluation against tables that depend only
/// on the points, so does one whose wrong shares sit where earlier ones'
/// did, and the rest run Berlekamp–Welch against key tables over the same
/// points (all built lazily, once).
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
    /// `xpow[i][j] = xs[i]^j`, shared by every rung and every codeword.
    xpow: Vec<Vec<FpElem>>,
    /// The clean rung's tables, built on the first decode.
    linear: Option<LinearTables>,
    /// The erasure rung, learned from Berlekamp–Welch solves. Not a
    /// function of the points: it changes what a decode costs, never what
    /// it returns (see the module docs).
    hint: Option<LiarHint>,
    /// Berlekamp–Welch's key tables (at degree `degree + budget`), built
    /// on the first view neither linear rung explains — a clean batch
    /// never builds them.
    key: Option<LinearTables>,
    /// The reduced view under decode, reused across calls so a decode by
    /// a linear rung allocates nothing beyond its result.
    ys_buf: Vec<FpElem>,
    /// A linear rung's extension of the loaded view's head, one slot per
    /// point — sized once, at construction.
    ext_buf: Vec<FpElem>,
    /// The loaded view's values at the hint's kept positions.
    kept_buf: Vec<FpElem>,
    /// Berlekamp–Welch's working space.
    scratch: Vec<FpElem>,
    /// Where the last accepted Berlekamp–Welch answer disagreed with its
    /// view.
    mismatches: Vec<usize>,
}

/// The erasure rung's state: the positions presumed wrong and the clean
/// rung's tables over the rest.
#[derive(Debug, Clone)]
struct LiarHint {
    /// `S`: ascending, `1..=budget` positions.
    liars: Vec<usize>,
    /// The other positions, ascending.
    kept: Vec<usize>,
    /// [`LinearTables`] over the points at `kept`.
    tables: LinearTables,
}

/// What a linear rung knows about a point set at one degree `d`, with
/// `k = d + 1` and the *head* of a view its first `k` values.
#[derive(Debug, Clone)]
struct LinearTables {
    k: usize,
    /// `k × k` row-major, the inverse Vandermonde matrix of the first `k`
    /// points: row `c` dotted with the head ([`Fp::dot`]) is coefficient
    /// `c` of the polynomial through it. Row 0 is the functional "value
    /// at 0".
    interp: Vec<FpElem>,
    /// `k × (m − k)`, narrow and column-major for [`Fp::eval_columns`]:
    /// entry `(j, r)` is the Lagrange basis polynomial `L_j` at
    /// `xs[k + r]`, so evaluating the head against it gives the values
    /// the polynomial through the head takes at the other points — the
    /// view is a codeword iff every one equals the view's own value there.
    ext: Vec<u32>,
}

impl LinearTables {
    /// The tables at degree `d` over distinct `xs` (at least `d + 1` of
    /// them), whose powers `xpow` reach `x^d`.
    fn new(fp: &Fp, xs: &[FpElem], xpow: &[Vec<FpElem>], d: usize) -> Self {
        let k = d + 1;
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
        // ext[j][r] = L_j(x_{k+r}) = Σ_c interp[c][j] · x_{k+r}^c.
        let tail = xs.len() - k;
        let mut ext = vec![0; k * tail];
        for (r, pows) in xpow[k..].iter().enumerate() {
            for j in 0..k {
                let basis = (0..k).map(|c| interp[c * k + j]);
                let value = basis
                    .zip(pows)
                    .fold(0, |acc, (l, &xp)| fp.add(acc, fp.mul(l, xp)));
                ext[j * tail + r] = crate::fp::narrow(value);
            }
        }
        LinearTables { k, interp, ext }
    }

    /// Whether `view` (one value per point) is a codeword: its tail is
    /// the extension of its head. `scratch` holds at least one slot per
    /// point of the tail.
    fn fits(&self, fp: &Fp, view: &[FpElem], scratch: &mut [FpElem]) -> bool {
        let (head, tail) = view.split_at(self.k);
        let extension = &mut scratch[..tail.len()];
        fp.eval_columns(head, &self.ext, extension);
        extension == tail
    }

    /// The polynomial through `head`.
    fn poly(&self, fp: &Fp, head: &[FpElem]) -> Poly {
        let coeffs = self.interp.chunks(self.k);
        Poly::from_coeffs(coeffs.map(|row| fp.dot(row, head)).collect())
    }

    /// Its value at 0: one dot product.
    fn at_zero(&self, fp: &Fp, head: &[FpElem]) -> FpElem {
        fp.dot(&self.interp[..self.k], head)
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
        let ext_buf = vec![0; xs.len()];
        Some(BatchDecoder {
            fp: *fp,
            xs,
            degree,
            budget,
            xpow,
            linear: None,
            hint: None,
            key: None,
            ys_buf: Vec::new(),
            ext_buf,
            kept_buf: Vec::new(),
            scratch: Vec::new(),
            mismatches: Vec::new(),
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
    /// Three rungs run, the first that explains `ys` answering. The
    /// *clean* rung (`e = 0`: `ys` is a codeword iff it equals the
    /// extension of its own head, and then the polynomial through the
    /// head is the answer). The *erasure* rung: the same check over the
    /// positions outside the liar hint — if those `m − |S|` points fit a
    /// polynomial `P` of degree `≤ degree`, then `P` is within
    /// `|S| ≤ budget` mismatches of `ys`, and any two polynomials within
    /// `budget` of one view agree on `m − 2·budget ≥ degree + 1` points,
    /// so `P` is the unique codeword Berlekamp–Welch returns, whatever the
    /// hint is. And Berlekamp–Welch itself at the full budget, which
    /// resolves every error count `1..=budget` in one solve (see the
    /// module docs) — so the answer is identical to [`decode`]'s.
    pub fn decode_one(&mut self, ys: &[FpElem]) -> Option<Poly> {
        let fp = self.fp;
        match self.linear_rungs(ys)? {
            Some((tables, head)) => Some(tables.poly(&fp, head)),
            None => self.decode_full(),
        }
    }

    /// The decoded polynomial's value at 0 — what a Shamir recovery wants:
    /// `decode_one(ys).map(|g| g.eval(fp, 0))`, but a view a linear rung
    /// explains pays one more dot product instead of building the
    /// polynomial.
    pub fn decode_at_zero(&mut self, ys: &[FpElem]) -> Option<FpElem> {
        let fp = self.fp;
        match self.linear_rungs(ys)? {
            Some((tables, head)) => Some(tables.at_zero(&fp, head)),
            None => self.decode_full().map(|g| g.eval(&fp, 0)),
        }
    }

    /// The clean and erasure rungs: loads the reduced view into `ys_buf`
    /// and returns the tables and head whose interpolation is the answer,
    /// or `Some(None)` when only Berlekamp–Welch can tell (`None` on a
    /// length mismatch).
    fn linear_rungs(&mut self, ys: &[FpElem]) -> Option<Option<(&LinearTables, &[FpElem])>> {
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
        let clean = self
            .linear
            .get_or_insert_with(|| LinearTables::new(&fp, xs, xpow, degree));
        if clean.fits(&fp, &self.ys_buf, &mut self.ext_buf) {
            return Some(Some((clean, &self.ys_buf[..=degree])));
        }
        let Some(hint) = &self.hint else {
            return Some(None);
        };
        self.kept_buf.clear();
        self.kept_buf
            .extend(hint.kept.iter().map(|&i| self.ys_buf[i]));
        let erased = hint.tables.fits(&fp, &self.kept_buf, &mut self.ext_buf);
        Some(erased.then(|| (&hint.tables, &self.kept_buf[..=degree])))
    }

    /// Berlekamp–Welch at the full budget over the loaded view, which
    /// neither linear rung explains. A decoded view teaches the liar hint
    /// where it was wrong.
    fn decode_full(&mut self) -> Option<Poly> {
        let e = self.budget;
        if e == 0 {
            return None; // the clean rung was the only one
        }
        let fp = self.fp;
        let (xs, xpow, degree) = (&self.xs, &self.xpow, self.degree);
        let key = self
            .key
            .get_or_insert_with(|| LinearTables::new(&fp, xs, xpow, degree + e));
        let (ys, scratch, mismatches) = (&self.ys_buf, &mut self.scratch, &mut self.mismatches);
        let p = berlekamp_welch(&fp, key, xs, xpow, ys, degree, e, scratch, mismatches)?;
        self.learn_liars();
        Some(p)
    }

    /// Folds the mismatch set `M` of an accepted Berlekamp–Welch solve into
    /// the hint: `S ∪ M` while that fits the budget, else `M` alone. The
    /// union is what lets `S` reach the true liar set even when a lie
    /// happens to equal the correct share. Tables are rebuilt only when
    /// `S` changes.
    fn learn_liars(&mut self) {
        let liars = &mut self.mismatches;
        let old = self.hint.as_ref().map_or(&[][..], |h| &h.liars);
        let m_len = liars.len();
        for &i in old {
            if !liars[..m_len].contains(&i) {
                liars.push(i);
            }
        }
        if liars.len() > self.budget {
            liars.truncate(m_len);
        }
        liars.sort_unstable();
        if liars[..] != *old {
            let liars = liars.clone();
            self.set_hint(liars);
        }
    }

    /// Makes `liars` (ascending, at most `budget` positions) the erasure
    /// rung's hint and builds its tables; an empty set clears the hint.
    fn set_hint(&mut self, liars: Vec<usize>) {
        debug_assert!(liars.len() <= self.budget && liars.windows(2).all(|w| w[0] < w[1]));
        self.hint = (!liars.is_empty()).then(|| {
            let kept: Vec<usize> = (0..self.xs.len())
                .filter(|i| liars.binary_search(i).is_err())
                .collect();
            let xs: Vec<FpElem> = kept.iter().map(|&i| self.xs[i]).collect();
            let xpow: Vec<Vec<FpElem>> = kept.iter().map(|&i| self.xpow[i].clone()).collect();
            let tables = LinearTables::new(&self.fp, &xs, &xpow, self.degree);
            LiarHint {
                liars,
                kept,
                tables,
            }
        });
    }

    /// Decodes a batch of codewords; `out[i]` is [`decode_one`] of
    /// `codewords[i]`. The clean tables and Berlekamp–Welch's key tables
    /// are built at most once across the whole batch, and the liar hint
    /// one codeword teaches serves the next — the amortization the GVSS
    /// recover round leans on.
    ///
    /// [`decode_one`]: BatchDecoder::decode_one
    pub fn decode_batch(&mut self, codewords: &[Vec<FpElem>]) -> Vec<Option<Poly>> {
        codewords.iter().map(|ys| self.decode_one(ys)).collect()
    }
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

    /// `count` distinct members of `pool`, ascending.
    fn pick(rng: &mut StdRng, mut pool: Vec<usize>, count: usize) -> Vec<usize> {
        let len = pool.len();
        for i in 0..count {
            pool.swap(i, rng.random_range(i..len));
        }
        pool.truncate(count);
        pool.sort_unstable();
        pool
    }

    /// The one-shot reference for a view over `xs`.
    fn one_shot(fp: &Fp, xs: &[u64], ys: &[u64], degree: usize) -> Option<Poly> {
        let points: Vec<(u64, u64)> = xs.iter().copied().zip(ys.iter().copied()).collect();
        decode(fp, &points, degree)
    }

    /// Both batch entries against `want`, twice: the second call runs
    /// against the tables (and whatever hint) the first left behind.
    fn assert_batch_matches(fp: &Fp, dec: &mut BatchDecoder, ys: &[u64], want: &Option<Poly>) {
        for _ in 0..2 {
            assert_eq!(&dec.decode_one(ys), want);
            assert_eq!(dec.decode_at_zero(ys), want.as_ref().map(|g| g.eval(fp, 0)));
        }
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
        // in an order that sends views back and forth between the rungs.
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

    /// A degree-`f` codeword over `1..=n` whose `liars` carry a random
    /// share (which may happen to equal the correct one when `visible` is
    /// false, and never does when it is true).
    fn lying_view(
        fp: &Fp,
        rng: &mut StdRng,
        n: u64,
        f: usize,
        liars: &[usize],
        visible: bool,
    ) -> (Poly, Vec<u64>) {
        let p = Poly::random_with_secret(fp, fp.sample(rng), f, rng);
        let mut ys: Vec<u64> = (1..=n).map(|x| p.eval(fp, x)).collect();
        for &i in liars {
            ys[i] = if visible {
                fp.add(ys[i], rng.random_range(1..fp.modulus()))
            } else {
                fp.sample(rng)
            };
        }
        (p, ys)
    }

    #[test]
    fn fixed_liars_stop_reaching_the_full_stage_once_hinted() {
        // n = 13, f = 4, three senders lie in every codeword with random
        // shares (1 in 17 equals the truth, so one solve may miss a liar;
        // the union rule catches it on a later one). Once the hint is the
        // liar set, Berlekamp–Welch's key tables are dropped: any later
        // view that reached Berlekamp–Welch would have rebuilt them.
        let fp = Fp::for_cluster(13);
        let mut rng = StdRng::seed_from_u64(5);
        let mut dec = BatchDecoder::new(&fp, &(1..=13).collect::<Vec<_>>(), 4).unwrap();
        let liars = [2, 5, 11];
        let mut hinted_at = None;
        for c in 0..300 {
            let (p, ys) = lying_view(&fp, &mut rng, 13, 4, &liars, false);
            assert_eq!(
                dec.decode_at_zero(&ys),
                Some(p.eval(&fp, 0)),
                "codeword {c}"
            );
            if hinted_at.is_none() && dec.hint.as_ref().is_some_and(|h| h.liars == liars) {
                hinted_at = Some(c);
                dec.key = None;
            }
        }
        assert!(
            hinted_at.is_some_and(|c| c < 10),
            "learned at {hinted_at:?}"
        );
        assert!(dec.key.is_none(), "a hinted view reached the full stage");
    }

    #[test]
    fn rotating_liars_within_one_f_set_rebuild_at_most_f_times() {
        // Every nonempty subset of one fixed f-set, in turn, lies visibly.
        // The hint only grows inside that set, so its tables are built at
        // most f times. A rebuild allocates the new tables while the old
        // ones are still alive, so a changed table address is a rebuild.
        let fp = Fp::for_cluster(13);
        let f = 4;
        let f_set = [0, 3, 8, 12];
        let mut rng = StdRng::seed_from_u64(9);
        let mut dec = BatchDecoder::new(&fp, &(1..=13).collect::<Vec<_>>(), f).unwrap();
        let mut tables = None;
        let mut builds = 0;
        for c in 0..150usize {
            let mask = c % 15 + 1;
            let liars: Vec<usize> = (0..f)
                .filter(|b| mask >> b & 1 == 1)
                .map(|b| f_set[b])
                .collect();
            let (p, ys) = lying_view(&fp, &mut rng, 13, f, &liars, true);
            assert_eq!(dec.decode_one(&ys), Some(p), "codeword {c}");
            let now = dec.hint.as_ref().map(|h| h.tables.ext.as_ptr());
            builds += usize::from(now != tables);
            tables = now;
        }
        assert!(builds <= f, "{builds} rebuilds");
        assert_eq!(dec.hint.map(|h| h.liars), Some(f_set.to_vec()));
    }

    #[test]
    fn hinted_views_past_the_budget_match_decode() {
        // With a hint installed, views more than `budget` errors from the
        // polynomial they came from return exactly what `decode` returns:
        // usually `None`, and a *different* codeword when every wrong
        // share outside the hint agrees with one — the erasure rung's
        // answer is the unique nearby codeword, not the original.
        let fp = Fp::for_cluster(13);
        let xs: Vec<u64> = (1..=13).collect();
        let mut rng = StdRng::seed_from_u64(3);
        let mut dec = BatchDecoder::new(&fp, &xs, 4).unwrap();
        let hint = vec![1, 6, 9, 10];
        for errors in 5..=9 {
            for trial in 0..20 {
                dec.set_hint(hint.clone());
                let damaged = pick(&mut rng, (0..13).collect(), errors);
                let (_, mut ys) = lying_view(&fp, &mut rng, 13, 4, &damaged, true);
                let crafted = trial % 2 == 0;
                let q = Poly::random_with_secret(&fp, fp.sample(&mut rng), 4, &mut rng);
                if crafted {
                    // Show a second codeword q everywhere but the hint.
                    for i in (0..13).filter(|i| !hint.contains(i)) {
                        ys[i] = q.eval(&fp, xs[i]);
                    }
                }
                let want = one_shot(&fp, &xs, &ys, 4);
                if crafted {
                    assert_eq!(want.as_ref(), Some(&q), "{errors} errors, trial {trial}");
                }
                assert_batch_matches(&fp, &mut dec, &ys, &want);
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

        /// `BatchDecoder` output is identical to per-codeword [`decode`]
        /// across random error patterns up to f — and slightly beyond,
        /// where both must agree on the failure (or on whichever codeword
        /// the over-corrupted view landed near).
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

        /// The linear rungs and the value-only entry against the one-shot
        /// decoder, over every test modulus and every way a view can sit
        /// relative to the code: a codeword, within budget, one past it,
        /// damaged only in the head the clean rung interpolates from,
        /// non-canonical, `m = degree + 1` (no extension rows, budget 0),
        /// and the wrong length. Each view meets an arbitrary liar hint of
        /// at most `budget` positions — none, any subset, honest positions
        /// only, or the damaged set itself (all of it when it fits) — since
        /// a hint may change what a decode costs, never what it returns.
        #[test]
        fn linear_rung_and_value_entry_match_one_shot_decode(
            p in proptest::sample::select(TEST_PRIMES.to_vec()),
            seed in any::<u64>(),
            shape in 0usize..6,
            hint_kind in 0usize..4,
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
            let damaged = pick(&mut rng, (0..span).collect(), errors);
            for &i in &damaged {
                ys[i] = fp.add(ys[i], rng.random_range(1..p));
            }
            if shape == 4 {
                for y in &mut ys {
                    *y += p * rng.random_range(0..3u64);
                }
            }
            let want = one_shot(&fp, &xs, &ys, degree);
            if errors <= budget {
                prop_assert_eq!(want.as_ref(), Some(&g));
            }
            let mut dec = BatchDecoder::new(&fp, &xs, degree).expect("distinct xs");
            prop_assert_eq!(dec.budget(), budget);
            let (pool, size) = match hint_kind {
                0 => (Vec::new(), 0),
                1 => ((0..m).collect(), rng.random_range(0..=budget)),
                2 => {
                    let honest: Vec<usize> = (0..m).filter(|i| !damaged.contains(i)).collect();
                    let size = rng.random_range(0..=budget.min(honest.len()));
                    (honest, size)
                }
                _ => (damaged.clone(), errors.min(budget)),
            };
            dec.set_hint(pick(&mut rng, pool, size));
            assert_batch_matches(&fp, &mut dec, &ys, &want);
            prop_assert_eq!(dec.decode_one(&ys[..m - 1]), None);
            prop_assert_eq!(dec.decode_at_zero(&ys[..m - 1]), None);
        }
    }

    /// The nearest codeword by enumeration: every polynomial of degree
    /// `≤ degree` over `F_p`, kept when it is within
    /// `(m − degree − 1) / 2` mismatches of the view. Two such polynomials
    /// would break the uniqueness argument the decoder rests on, so the
    /// search asserts there is at most one.
    fn nearest_codeword(fp: &Fp, xs: &[u64], ys: &[u64], degree: usize) -> Option<Poly> {
        let p = fp.modulus();
        let budget = (xs.len() - degree - 1) / 2;
        let mut found = None;
        for index in 0..p.pow(degree as u32 + 1) {
            let coeffs = (0..=degree as u32).map(|c| index / p.pow(c) % p).collect();
            let g = Poly::from_coeffs(coeffs);
            let wrong = xs.iter().zip(ys).filter(|&(&x, &y)| g.eval(fp, x) != y);
            if wrong.count() <= budget {
                assert!(found.is_none(), "two codewords within {budget} of {ys:?}");
                found = Some(g);
            }
        }
        found
    }

    proptest! {
        /// Both decode entries against brute force, the one reference
        /// that shares no decoding code with them: small fields, up to nine
        /// distinct points, degree below three, and a random codeword
        /// with `0..=m` random overwrites — within the budget, at it, and
        /// far past it.
        #[test]
        fn decode_matches_brute_force_nearest_codeword(
            p in proptest::sample::select(vec![5u64, 7, 11, 13]),
            seed in any::<u64>(),
        ) {
            let fp = Fp::new(p).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let m = rng.random_range(1..=p.min(9)) as usize;
            let degree = rng.random_range(0..m.min(3));
            let xs: Vec<u64> = pick(&mut rng, (0..p as usize).collect(), m)
                .into_iter()
                .map(|x| x as u64)
                .collect();
            let g = Poly::random_with_secret(&fp, fp.sample(&mut rng), degree, &mut rng);
            let mut ys: Vec<u64> = xs.iter().map(|&x| g.eval(&fp, x)).collect();
            for _ in 0..rng.random_range(0..=m) {
                ys[rng.random_range(0..m)] = fp.sample(&mut rng);
            }
            let want = nearest_codeword(&fp, &xs, &ys, degree);
            prop_assert_eq!(one_shot(&fp, &xs, &ys, degree), want.clone());
            let mut dec = BatchDecoder::new(&fp, &xs, degree).expect("distinct xs");
            prop_assert_eq!(dec.decode_one(&ys), want);
        }
    }
}

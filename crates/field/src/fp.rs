//! The prime field `F_p` with a runtime modulus.
//!
//! The modulus depends on the cluster size (`p` = smallest prime above `n`),
//! so it is a runtime value rather than a type parameter. [`Fp`] is a small
//! context object that interprets plain `u64` values (type-aliased as
//! [`FpElem`]) as field elements; all arithmetic goes through it.

use crate::{is_prime, FieldError};

/// A field element. Always reduced, i.e. `< p` for the owning [`Fp`].
pub type FpElem = u64;

/// The prime field `F_p`.
///
/// `Fp` is a lightweight, copyable context: methods take and return raw
/// [`FpElem`] values, which keeps shares and polynomial coefficients as
/// compact `u64` vectors.
///
/// # Example
///
/// ```
/// use byzclock_field::Fp;
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let x = fp.add(7, 9);
/// assert_eq!(x, 5);
/// assert_eq!(fp.mul(x, fp.inv(x)?), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fp {
    p: u64,
}

impl Fp {
    /// Creates the field `F_p`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::NotPrime`] if `p` is composite and
    /// [`FieldError::ModulusTooLarge`] if `p` does not fit in 32 bits.
    /// The cap is what [`Fp::dot`] stands on: with `p ≤ 2³²` the product of
    /// two canonical elements fits a `u64`, so products can be summed
    /// before they are reduced. ([`Fp::mul`] itself still widens to `u128`
    /// and would work beyond the cap.) 32 bits is far beyond any realistic
    /// cluster size.
    pub fn new(p: u64) -> Result<Self, FieldError> {
        if p > u64::from(u32::MAX) {
            return Err(FieldError::ModulusTooLarge(p));
        }
        if !is_prime(p) {
            return Err(FieldError::NotPrime(p));
        }
        Ok(Fp { p })
    }

    /// The field used by a cluster of `n` nodes: the smallest prime above
    /// `max(n, 2)` (Remark 2.3 of the paper).
    ///
    /// # Example
    ///
    /// ```
    /// let fp = byzclock_field::Fp::for_cluster(7);
    /// assert_eq!(fp.modulus(), 11);
    /// ```
    pub fn for_cluster(n: usize) -> Self {
        let p = crate::smallest_prime_above((n as u64).max(2));
        Fp { p }
    }

    /// The modulus `p`.
    pub fn modulus(&self) -> u64 {
        self.p
    }

    /// Minimum number of bytes that hold any canonical element, i.e.
    /// `ceil(log2(p) / 8)` — the element width the packed wire format pays
    /// per field value. For every realistic cluster (`p` = smallest prime
    /// above `n`) this is 1, against the 8 bytes of a fixed-width `u64`.
    ///
    /// # Example
    ///
    /// ```
    /// use byzclock_field::Fp;
    ///
    /// assert_eq!(Fp::for_cluster(7).elem_width(), 1);   // p = 11
    /// assert_eq!(Fp::new(65537).unwrap().elem_width(), 3);
    /// ```
    pub fn elem_width(&self) -> usize {
        let max = self.p - 1;
        if max == 0 {
            1
        } else {
            (64 - max.leading_zeros() as usize).div_ceil(8)
        }
    }

    /// Reduces an arbitrary `u64` into the field. Receivers reduce every
    /// value a peer sent, and honest peers send canonical ones, so the
    /// canonical case skips the division.
    pub fn reduce(&self, x: u64) -> FpElem {
        if x < self.p {
            x
        } else {
            x % self.p
        }
    }

    /// Returns `true` if `x` is a canonical element (`x < p`).
    pub fn contains(&self, x: u64) -> bool {
        x < self.p
    }

    /// Addition in `F_p`.
    pub fn add(&self, a: FpElem, b: FpElem) -> FpElem {
        debug_assert!(self.contains(a) && self.contains(b));
        let s = a + b;
        if s >= self.p {
            s - self.p
        } else {
            s
        }
    }

    /// Subtraction in `F_p`.
    pub fn sub(&self, a: FpElem, b: FpElem) -> FpElem {
        debug_assert!(self.contains(a) && self.contains(b));
        if a >= b {
            a - b
        } else {
            a + self.p - b
        }
    }

    /// Additive inverse.
    pub fn neg(&self, a: FpElem) -> FpElem {
        debug_assert!(self.contains(a));
        if a == 0 {
            0
        } else {
            self.p - a
        }
    }

    /// Multiplication in `F_p`.
    ///
    /// The reduction is a plain `%` on purpose. A precomputed Barrett
    /// constant was measured net-neutral on the reference box (CHANGES.md,
    /// PR 22): the dealing loops got faster, the Berlekamp–Welch replay — a
    /// chain of dependent multiplications on operands of a dozen bits,
    /// where the hardware divider is already quick — got slower by as
    /// much, and `Fp` doubles to 16 bytes. The hot loops avoid reductions
    /// instead ([`Fp::dot`]).
    pub fn mul(&self, a: FpElem, b: FpElem) -> FpElem {
        debug_assert!(self.contains(a) && self.contains(b));
        ((u128::from(a) * u128::from(b)) % u128::from(self.p)) as u64
    }

    /// The dot product `Σ a[i]·b[i]` over the common prefix of two slices
    /// of canonical elements, with one reduction per chunk of terms rather
    /// than one per term.
    ///
    /// `p − 1 < 2^bits` bounds every product below `2^(2·bits)`, so
    /// `2^(64 − 2·bits)` of them sum below `2⁶⁴` — a power-of-two lower
    /// bound on `⌊u64::MAX / (p − 1)²⌋` that costs no division to find.
    /// Every cluster field (`p` barely above `n`) is a single chunk; at the
    /// 32-bit cap of [`Fp::new`] the chunk is one term.
    ///
    /// # Example
    ///
    /// ```
    /// let fp = byzclock_field::Fp::for_cluster(7); // p = 11
    /// assert_eq!(fp.dot(&[1, 2, 3], &[4, 5, 6]), (4 + 10 + 18) % 11);
    /// ```
    pub fn dot(&self, a: &[FpElem], b: &[FpElem]) -> FpElem {
        let chunk = self.dot_chunk();
        let mut acc: FpElem = 0;
        for (a, b) in a.chunks(chunk).zip(b.chunks(chunk)) {
            let sum: u64 = a
                .iter()
                .zip(b)
                .map(|(&x, &y)| {
                    debug_assert!(self.contains(x) && self.contains(y));
                    x * y
                })
                .sum();
            acc = self.add(acc, sum % self.p);
        }
        acc
    }

    /// How many products of canonical elements a `u64` sums without
    /// overflow: `p − 1 < 2^bits` bounds each below `2^(2·bits)`, so
    /// `2^(64 − 2·bits)` of them fit — with room to spare for one reduced
    /// residue on top (`2^(64−2·bits) · (2^bits − 1)² + 2^bits − 1 < 2⁶⁴`
    /// for every `bits ≤ 32`), which [`Fp::eval_columns`] carries across
    /// chunks.
    fn dot_chunk(&self) -> usize {
        let bits = u64::BITS - (self.p - 1).leading_zeros();
        usize::try_from(1u64 << (64 - 2 * bits)).unwrap_or(usize::MAX)
    }

    /// Evaluates the polynomial `coeffs` (constant term first) at every
    /// point of a transposed power table, one value per point:
    /// `out[m] = Σ_k coeffs[k] · table[k · out.len() + m]`. It is the
    /// column form of [`Fp::dot`], for a caller that evaluates many
    /// polynomials at the same points ([`Fp::power_columns`] builds the
    /// table), and the one kernel under every O(n³) loop of the GVSS coin:
    /// the dealing, the echo memo and the decoder's codeword check.
    ///
    /// The kernel walks the coefficients once, adding `c_k · x_m^k` into
    /// every point's unreduced accumulator, and reduces each accumulator
    /// once per chunk of [`Fp::dot`]'s size — once in all for every
    /// cluster field, after every term at the 32-bit cap. The table is
    /// narrow: every canonical element fits a `u32` under [`Fp::new`]'s
    /// cap, so each product is of two zero-extended `u32`s, which baseline
    /// x86-64 multiplies two to an SSE2 instruction. Only the common prefix
    /// of `coeffs` and the table's rows is read, so a zero-padded
    /// coefficient vector evaluates exactly like its trimmed
    /// [`crate::Poly`].
    ///
    /// # Example
    ///
    /// ```
    /// let fp = byzclock_field::Fp::for_cluster(7); // p = 11
    /// let table = fp.power_columns(&[1, 2, 3], 3);
    /// let mut out = [0; 3];
    /// fp.eval_columns(&[5, 0, 1], &table, &mut out); // 5 + x²
    /// assert_eq!(out, [6, 9, 3]);
    /// ```
    pub fn eval_columns(&self, coeffs: &[FpElem], table: &[u32], out: &mut [FpElem]) {
        out.fill(0);
        if out.is_empty() {
            return;
        }
        let chunk = self.dot_chunk();
        let mut terms = 0;
        for (&c, pows) in coeffs.iter().zip(table.chunks_exact(out.len())) {
            debug_assert!(self.contains(c));
            if terms == chunk {
                out.iter_mut().for_each(|acc| *acc %= self.p);
                terms = 0;
            }
            terms += 1;
            let c = c as u32;
            for (acc, &x) in out.iter_mut().zip(pows) {
                *acc += u64::from(c) * u64::from(x);
            }
        }
        out.iter_mut().for_each(|acc| *acc %= self.p);
    }

    /// `[x⁰, x¹, …, x^(count−1)]`, the table [`Fp::dot`] evaluates a
    /// polynomial against.
    pub fn powers(&self, x: FpElem, count: usize) -> Vec<FpElem> {
        let x = self.reduce(x);
        std::iter::successors(Some(1 % self.p), |&xp| Some(self.mul(xp, x)))
            .take(count)
            .collect()
    }

    /// The `count × xs.len()` table [`Fp::eval_columns`] evaluates
    /// against: row `k` holds `x^k` for every `x` of `xs`, so column `m` is
    /// [`Fp::powers`]`(xs[m], count)`, each power narrowed to the `u32`
    /// every canonical element fits.
    pub fn power_columns(&self, xs: &[FpElem], count: usize) -> Vec<u32> {
        let mut table = vec![0; count * xs.len()];
        for (m, &x) in xs.iter().enumerate() {
            let column = table[m..].iter_mut().step_by(xs.len());
            for (slot, xp) in column.zip(self.powers(x, count)) {
                *slot = narrow(xp);
            }
        }
        table
    }

    /// Exponentiation by squaring.
    pub fn pow(&self, mut base: FpElem, mut exp: u64) -> FpElem {
        debug_assert!(self.contains(base));
        let mut acc: FpElem = 1 % self.p;
        while exp > 0 {
            if exp & 1 == 1 {
                acc = self.mul(acc, base);
            }
            base = self.mul(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Multiplicative inverse via Fermat's little theorem.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] when `a == 0`.
    pub fn inv(&self, a: FpElem) -> Result<FpElem, FieldError> {
        if a == 0 {
            return Err(FieldError::ZeroInverse);
        }
        Ok(self.pow(a, self.p - 2))
    }

    /// Division `a / b`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] when `b == 0`.
    pub fn div(&self, a: FpElem, b: FpElem) -> Result<FpElem, FieldError> {
        Ok(self.mul(a, self.inv(b)?))
    }

    /// Samples a uniform field element.
    pub fn sample<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> FpElem {
        rng.random_range(0..self.p)
    }
}

/// A canonical element as the `u32` it fits: [`Fp::new`] caps the
/// modulus at 32 bits, so only a field no cluster uses could fail.
pub(crate) fn narrow(x: FpElem) -> u32 {
    u32::try_from(x).expect("canonical elements fit 32 bits")
}

/// The largest modulus [`Fp::new`] admits (`2³² − 5`), where [`Fp::dot`]
/// reduces after every term.
#[cfg(test)]
const LARGEST_PRIME: u64 = 4_294_967_291;
/// The moduli the field proptests run over.
#[cfg(test)]
pub(crate) const TEST_PRIMES: [u64; 6] = [2, 5, 11, 101, 65537, LARGEST_PRIME];

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rejects_composite_modulus() {
        assert_eq!(Fp::new(12), Err(FieldError::NotPrime(12)));
        assert_eq!(Fp::new(1), Err(FieldError::NotPrime(1)));
    }

    #[test]
    fn rejects_oversized_modulus() {
        let p = (1u64 << 33) + 9; // arbitrary > 32-bit value
        assert!(matches!(Fp::new(p), Err(FieldError::ModulusTooLarge(_))));
    }

    #[test]
    fn for_cluster_matches_remark_2_3() {
        assert_eq!(Fp::for_cluster(7).modulus(), 11);
        assert_eq!(Fp::for_cluster(4).modulus(), 5);
        // Degenerate cluster sizes still produce a valid field.
        assert_eq!(Fp::for_cluster(0).modulus(), 3);
        assert_eq!(Fp::for_cluster(1).modulus(), 3);
    }

    #[test]
    fn elem_width_is_the_minimal_byte_count() {
        assert_eq!(Fp::new(2).unwrap().elem_width(), 1);
        assert_eq!(Fp::new(251).unwrap().elem_width(), 1); // max elem 250
        assert_eq!(Fp::new(257).unwrap().elem_width(), 2); // max elem 256
        assert_eq!(Fp::new(65537).unwrap().elem_width(), 3);
        for n in [4usize, 7, 10, 13, 100] {
            // Every realistic cluster field packs into a single byte...
            // until n outgrows 255.
            let fp = Fp::for_cluster(n);
            let width = fp.elem_width();
            assert!(256u64.pow(width as u32) > fp.modulus() - 1);
            if fp.modulus() <= 256 {
                assert_eq!(width, 1);
            }
        }
    }

    #[test]
    fn zero_has_no_inverse() {
        let fp = Fp::new(11).unwrap();
        assert_eq!(fp.inv(0), Err(FieldError::ZeroInverse));
        assert_eq!(fp.div(3, 0), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn binary_field_edge_cases() {
        let fp = Fp::new(2).unwrap();
        assert_eq!(fp.add(1, 1), 0);
        assert_eq!(fp.neg(1), 1);
        assert_eq!(fp.inv(1).unwrap(), 1);
        assert_eq!(fp.pow(1, 999), 1);
        assert_eq!(fp.pow(0, 0), 1, "0^0 is the empty product");
    }

    #[test]
    fn the_largest_prime_is_admitted_and_dots_one_term_at_a_time() {
        let fp = Fp::new(LARGEST_PRIME).unwrap();
        assert!(Fp::new(LARGEST_PRIME + 4).is_err(), "2^32 - 1 is composite");
        let top = LARGEST_PRIME - 1; // ≡ −1, so top · top ≡ 1
        assert_eq!(fp.dot(&[top; 5], &[top; 5]), 5);
        // The narrow table holds canonical elements just below 2³²: at
        // x = −1, Σ_{k<5} (−1)·(−1)^k = −1.
        let table = fp.power_columns(&[top, 1], 5);
        assert_eq!(table[2..4], [top as u32, 1]);
        let mut out = [0; 2];
        fp.eval_columns(&[top; 5], &table, &mut out);
        assert_eq!(out, [top, fp.mul(top, 5)]);
    }

    #[test]
    fn powers_start_at_one_and_reduce_the_base() {
        let fp = Fp::new(11).unwrap();
        assert_eq!(fp.powers(3, 0), Vec::<u64>::new());
        assert_eq!(fp.powers(3, 4), vec![1, 3, 9, 5]);
        assert_eq!(fp.powers(14, 4), fp.powers(3, 4));
        assert_eq!(fp.powers(0, 3), vec![1, 0, 0]);
    }

    fn prime_and_pair() -> impl Strategy<Value = (u64, u64, u64)> {
        proptest::sample::select(TEST_PRIMES.to_vec()).prop_flat_map(|p| (Just(p), 0..p, 0..p))
    }

    fn prime_and_triple() -> impl Strategy<Value = (u64, u64, u64, u64)> {
        proptest::sample::select(TEST_PRIMES.to_vec())
            .prop_flat_map(|p| (Just(p), 0..p, 0..p, 0..p))
    }

    proptest! {
        #[test]
        fn add_is_commutative_and_reduced((p, a, b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.add(a, b), fp.add(b, a));
            prop_assert!(fp.contains(fp.add(a, b)));
        }

        #[test]
        fn mul_distributes_over_add((p, a, b, c) in prime_and_triple()) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.mul(a, fp.add(b, c)), fp.add(fp.mul(a, b), fp.mul(a, c)));
        }

        #[test]
        fn sub_inverts_add((p, a, b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.sub(fp.add(a, b), b), a);
            prop_assert_eq!(fp.add(a, fp.neg(a)), 0);
        }

        #[test]
        fn inverse_is_inverse((p, a, _b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            if a != 0 {
                prop_assert_eq!(fp.mul(a, fp.inv(a).unwrap()), 1 % p);
            }
        }

        #[test]
        fn fermat_little_theorem((p, a, _b) in prime_and_pair()) {
            let fp = Fp::new(p).unwrap();
            if a != 0 {
                prop_assert_eq!(fp.pow(a, p - 1), 1 % p);
            }
        }

        /// `dot` is the `add(mul)` fold, at lengths on both sides of every
        /// chunk boundary (one term at the largest prime) and over slices
        /// of unequal length (the common prefix).
        #[test]
        fn dot_is_the_add_mul_fold(
            p in proptest::sample::select(TEST_PRIMES.to_vec()),
            seed in any::<u64>(),
            len in 0usize..200,
            extra in 0usize..3,
        ) {
            let fp = Fp::new(p).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let a: Vec<u64> = (0..len + extra).map(|_| fp.sample(&mut rng)).collect();
            let b: Vec<u64> = (0..len).map(|_| fp.sample(&mut rng)).collect();
            let fold = a.iter().zip(&b).fold(0, |acc, (&x, &y)| fp.add(acc, fp.mul(x, y)));
            prop_assert_eq!(fp.dot(&a, &b), fold);
            prop_assert_eq!(fp.dot(&b, &a), fold);
        }

        /// `eval_columns` is `Poly::eval` at every point of the table, for
        /// every degree up to the table's `f` and for rows shorter than
        /// `f + 1`, zero-padded to the table's height or not — one term
        /// per chunk at the largest prime.
        #[test]
        fn eval_columns_is_horner_at_every_point(
            p in proptest::sample::select(TEST_PRIMES.to_vec()),
            seed in any::<u64>(),
            f in 0usize..8,
            len in 0usize..9,
            points in 0usize..40,
            pad in any::<bool>(),
        ) {
            let fp = Fp::new(p).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let len = len.min(f + 1);
            let mut coeffs: Vec<u64> = (0..len).map(|_| fp.sample(&mut rng)).collect();
            let poly = crate::Poly::from_coeffs(coeffs.clone());
            if pad {
                coeffs.resize(f + 1, 0);
            }
            let xs: Vec<u64> = (0..points).map(|_| rng.random()).collect();
            let table = fp.power_columns(&xs, f + 1);
            let mut out = vec![u64::MAX; points];
            fp.eval_columns(&coeffs, &table, &mut out);
            for (m, &x) in xs.iter().enumerate() {
                prop_assert_eq!(out[m], poly.eval(&fp, x), "point {}", m);
            }
        }

        #[test]
        fn pow_adds_exponents((p, a, _b) in prime_and_pair(), e1 in 0u64..64, e2 in 0u64..64) {
            let fp = Fp::new(p).unwrap();
            prop_assert_eq!(fp.mul(fp.pow(a, e1), fp.pow(a, e2)), fp.pow(a, e1 + e2));
        }
    }
}

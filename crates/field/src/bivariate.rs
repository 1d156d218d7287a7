//! Symmetric bivariate polynomials for verifiable secret sharing.
//!
//! A dealer hides a secret `s` in `S(0,0)` of a uniformly random symmetric
//! polynomial `S(x,y)` with degree at most `f` in each variable. Node `i`
//! receives the *row* `S(x, i)`; node `i` can then cross-check node `j`'s
//! row against its own because symmetry forces `S(j, i) = S(i, j)`. This is
//! the classical BGW/Feldman dealing used by the coin's graded VSS.

// Indexed loops in this file mirror the paper's matrix/polynomial
// subscripts; iterator rewrites would obscure the math.
#![allow(clippy::needless_range_loop)]
use crate::{Fp, FpElem, Poly};

/// A symmetric bivariate polynomial of degree at most `deg` in each
/// variable, `S(x, y) = sum c[i][j] x^i y^j` with `c[i][j] = c[j][i]`.
///
/// # Example
///
/// ```
/// use byzclock_field::{Fp, SymmetricBivariate};
/// use rand::SeedableRng;
///
/// let fp = Fp::for_cluster(7);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let s = SymmetricBivariate::random_with_secret(&fp, 1, 2, &mut rng);
/// assert_eq!(s.eval(&fp, 0, 0), 1);
/// // Symmetry: S(3, 5) == S(5, 3).
/// assert_eq!(s.eval(&fp, 3, 5), s.eval(&fp, 5, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymmetricBivariate {
    /// `deg + 1`, the side of the coefficient matrix.
    side: usize,
    /// The `side × side` coefficient matrix in one block, row-major
    /// (`c[a][b]` at `a · side + b`), kept fully materialized (symmetric)
    /// for simplicity.
    coeffs: Vec<FpElem>,
}

impl SymmetricBivariate {
    /// Samples a random symmetric polynomial with `S(0,0) = secret` and
    /// degree at most `deg` in each variable.
    pub fn random_with_secret<R: rand::Rng + ?Sized>(
        fp: &Fp,
        secret: FpElem,
        deg: usize,
        rng: &mut R,
    ) -> Self {
        let side = deg + 1;
        let mut coeffs = vec![0; side * side];
        for i in 0..side {
            for j in i..side {
                let c = fp.sample(rng);
                coeffs[i * side + j] = c;
                coeffs[j * side + i] = c;
            }
        }
        coeffs[0] = fp.reduce(secret);
        SymmetricBivariate { side, coeffs }
    }

    /// Degree bound in each variable.
    pub fn degree(&self) -> usize {
        self.side - 1
    }

    /// Evaluates `S(x, y)`.
    pub fn eval(&self, fp: &Fp, x: FpElem, y: FpElem) -> FpElem {
        self.row(fp, y).eval(fp, x)
    }

    /// The row polynomial `f_i(x) = S(x, i)` handed to node `i`: the
    /// coefficient of `x^a` is the dot product `Σ_b c[a][b]·i^b`.
    pub fn row(&self, fp: &Fp, i: FpElem) -> Poly {
        let ipows = fp.powers(i, self.side);
        let coeffs = self.coeffs.chunks_exact(self.side);
        Poly::from_coeffs(coeffs.map(|c| fp.dot(c, &ipows)).collect())
    }

    /// Every point's [`SymmetricBivariate::row`] at once, for a dealer that
    /// cuts a row for every node: given the `(deg + 1) × m` power table of
    /// `m` points ([`Fp::power_columns`]), `out[a · m + j]` becomes the
    /// coefficient of `x^a` in the row at point `j` — zero-padded to the
    /// degree bound, not stripped. Coefficient row `a` of the matrix is a
    /// polynomial in the point, so each `a` is one [`Fp::eval_columns`].
    pub fn row_columns(&self, fp: &Fp, table: &[u32], out: &mut [FpElem]) {
        debug_assert_eq!(out.len() % self.side, 0);
        let points = out.len() / self.side;
        if points == 0 {
            return;
        }
        let coeff_rows = self.coeffs.chunks_exact(self.side);
        for (c, out) in coeff_rows.zip(out.chunks_exact_mut(points)) {
            fp.eval_columns(c, table, out);
        }
    }

    /// The share polynomial `g(y) = S(0, y)` whose constant term is the
    /// secret; node `i`'s *secret share* is `g(i) = S(0, i) = f_i(0)`.
    pub fn secret_poly(&self, fp: &Fp) -> Poly {
        self.row(fp, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rows_are_consistent_with_eval() {
        let fp = Fp::new(11).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let s = SymmetricBivariate::random_with_secret(&fp, 6, 2, &mut rng);
        for i in 0..11 {
            let row = s.row(&fp, i);
            for x in 0..11 {
                assert_eq!(row.eval(&fp, x), s.eval(&fp, x, i));
            }
        }
    }

    #[test]
    fn secret_poly_interpolates_from_shares() {
        // Reconstructing S(0, .) from f+1 nodes' shares f_i(0) recovers the
        // secret — the recover-phase happy path.
        let fp = Fp::new(11).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let f = 2;
        let s = SymmetricBivariate::random_with_secret(&fp, 9, f, &mut rng);
        let points: Vec<_> = (1..=(f as u64 + 1))
            .map(|i| (i, s.row(&fp, i).eval(&fp, 0)))
            .collect();
        let g = Poly::interpolate(&fp, &points).unwrap();
        assert_eq!(g.eval(&fp, 0), 9);
        assert_eq!(g, s.secret_poly(&fp));
    }

    proptest! {
        /// `row` is the written-out double sum `Σ_b c[a][b]·i^b`, one
        /// `add(mul)` per term.
        #[test]
        fn row_matches_the_double_sum(seed in 0u64..1000, deg in 0usize..5, i in 0u64..300) {
            let fp = Fp::new(101).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SymmetricBivariate::random_with_secret(&fp, 7, deg, &mut rng);
            let expected: Vec<u64> = (0..=deg)
                .map(|a| {
                    (0..=deg).fold(0, |acc, b| {
                        fp.add(acc, fp.mul(s.coeffs[a * s.side + b], fp.pow(fp.reduce(i), b as u64)))
                    })
                })
                .collect();
            prop_assert_eq!(s.row(&fp, i), Poly::from_coeffs(expected));
        }

        /// The columnar cut is `row` at every point of the table, read
        /// down a column and stripped — zero rows included (`p = 2` with a
        /// zero secret makes trailing and all-zero rows common).
        #[test]
        fn row_columns_are_the_rows_at_every_point(
            seed in 0u64..1000,
            deg in 0usize..5,
            xs in proptest::collection::vec(0u64..300, 0..9),
            p in proptest::sample::select(vec![2u64, 3, 101]),
        ) {
            let fp = Fp::new(p).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SymmetricBivariate::random_with_secret(&fp, 0, deg, &mut rng);
            let mut out = vec![u64::MAX; (deg + 1) * xs.len()];
            s.row_columns(&fp, &fp.power_columns(&xs, deg + 1), &mut out);
            for (j, &x) in xs.iter().enumerate() {
                let column = out[j..].iter().step_by(xs.len()).copied().collect();
                prop_assert_eq!(Poly::from_coeffs(column), s.row(&fp, x), "point {}", x);
            }
        }

        #[test]
        fn symmetry_of_cross_points(secret in 0u64..101, seed in 0u64..1000, deg in 0usize..4) {
            let fp = Fp::new(101).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SymmetricBivariate::random_with_secret(&fp, secret, deg, &mut rng);
            for i in 1..8u64 {
                for j in 1..8u64 {
                    // f_i(j) = S(j, i) must equal f_j(i) = S(i, j).
                    prop_assert_eq!(s.row(&fp, i).eval(&fp, j), s.row(&fp, j).eval(&fp, i));
                }
            }
            prop_assert_eq!(s.eval(&fp, 0, 0), secret);
        }

        #[test]
        fn row_degree_is_bounded(seed in 0u64..1000, deg in 0usize..4) {
            let fp = Fp::new(101).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let s = SymmetricBivariate::random_with_secret(&fp, 1, deg, &mut rng);
            for i in 0..6u64 {
                prop_assert!(s.row(&fp, i).degree().is_none_or(|d| d <= deg));
            }
        }
    }
}

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
    /// Lower-triangle-inclusive coefficient matrix, `(deg+1) x (deg+1)`,
    /// kept fully materialized (symmetric) for simplicity.
    coeffs: Vec<Vec<FpElem>>,
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
        let d = deg + 1;
        let mut coeffs = vec![vec![0; d]; d];
        for i in 0..d {
            for j in i..d {
                let c = fp.sample(rng);
                coeffs[i][j] = c;
                coeffs[j][i] = c;
            }
        }
        coeffs[0][0] = fp.reduce(secret);
        SymmetricBivariate { coeffs }
    }

    /// Degree bound in each variable.
    pub fn degree(&self) -> usize {
        self.coeffs.len() - 1
    }

    /// Evaluates `S(x, y)`.
    pub fn eval(&self, fp: &Fp, x: FpElem, y: FpElem) -> FpElem {
        self.row(fp, y).eval(fp, x)
    }

    /// The row polynomial `f_i(x) = S(x, i)` handed to node `i`.
    pub fn row(&self, fp: &Fp, i: FpElem) -> Poly {
        self.row_powers(fp, &fp.powers(i, self.coeffs.len()))
    }

    /// [`SymmetricBivariate::row`] given the powers `[i⁰, …, i^deg]` of
    /// the node's point, for a dealer that cuts many rows at the same
    /// points: the coefficient of `x^a` is the dot product
    /// `Σ_b c[a][b]·i^b`.
    pub fn row_powers(&self, fp: &Fp, ipows: &[FpElem]) -> Poly {
        debug_assert_eq!(ipows.len(), self.coeffs.len());
        Poly::from_coeffs(self.coeffs.iter().map(|c| fp.dot(c, ipows)).collect())
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
                        fp.add(acc, fp.mul(s.coeffs[a][b], fp.pow(fp.reduce(i), b as u64)))
                    })
                })
                .collect();
            prop_assert_eq!(s.row(&fp, i), Poly::from_coeffs(expected));
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

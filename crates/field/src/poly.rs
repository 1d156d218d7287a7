//! Univariate polynomials over `F_p`.

use crate::{FieldError, Fp, FpElem};

/// A univariate polynomial over `F_p`, stored as coefficients from the
/// constant term upward (`coeffs[i]` multiplies `x^i`).
///
/// The zero polynomial is represented by an empty coefficient vector;
/// `normalize` strips trailing zero coefficients so `degree` is
/// meaningful.
///
/// # Example
///
/// ```
/// use byzclock_field::{Fp, Poly};
///
/// # fn main() -> Result<(), byzclock_field::FieldError> {
/// let fp = Fp::new(11)?;
/// let p = Poly::from_coeffs(vec![3, 0, 1]); // 3 + x^2
/// assert_eq!(p.eval(&fp, 5), (3 + 25) % 11);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Poly {
    coeffs: Vec<FpElem>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// Constructs a polynomial from low-to-high coefficients.
    pub fn from_coeffs(coeffs: Vec<FpElem>) -> Self {
        let mut poly = Poly { coeffs };
        poly.normalize();
        poly
    }

    /// The coefficient slice, constant term first. Trailing zeros stripped.
    pub fn coeffs(&self) -> &[FpElem] {
        &self.coeffs
    }

    /// Consumes the polynomial and returns its coefficient vector.
    pub fn into_coeffs(self) -> Vec<FpElem> {
        self.coeffs
    }

    /// Degree of the polynomial; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Strips trailing zero coefficients.
    fn normalize(&mut self) {
        while self.coeffs.last() == Some(&0) {
            self.coeffs.pop();
        }
    }

    /// Samples a uniformly random polynomial of degree at most `degree`
    /// with the given constant term (classic Shamir dealing).
    pub fn random_with_secret<R: rand::Rng + ?Sized>(
        fp: &Fp,
        secret: FpElem,
        degree: usize,
        rng: &mut R,
    ) -> Self {
        let mut coeffs = Vec::with_capacity(degree + 1);
        coeffs.push(fp.reduce(secret));
        for _ in 0..degree {
            coeffs.push(fp.sample(rng));
        }
        Poly::from_coeffs(coeffs)
    }

    /// Evaluates the polynomial at `x` by Horner's rule.
    pub fn eval(&self, fp: &Fp, x: FpElem) -> FpElem {
        let x = fp.reduce(x);
        let mut acc: FpElem = 0;
        for &c in self.coeffs.iter().rev() {
            acc = fp.add(fp.mul(acc, x), c);
        }
        acc
    }

    /// Adds two polynomials.
    pub fn add(&self, fp: &Fp, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = other.coeffs.get(i).copied().unwrap_or(0);
            out.push(fp.add(a, b));
        }
        Poly::from_coeffs(out)
    }

    /// Subtracts `other` from `self`.
    pub fn sub(&self, fp: &Fp, other: &Poly) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let a = self.coeffs.get(i).copied().unwrap_or(0);
            let b = other.coeffs.get(i).copied().unwrap_or(0);
            out.push(fp.sub(a, b));
        }
        Poly::from_coeffs(out)
    }

    /// Multiplies two polynomials (schoolbook; degrees here are tiny).
    pub fn mul(&self, fp: &Fp, other: &Poly) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0; self.coeffs.len() + other.coeffs.len() - 1];
        for (i, &a) in self.coeffs.iter().enumerate() {
            for (j, &b) in other.coeffs.iter().enumerate() {
                out[i + j] = fp.add(out[i + j], fp.mul(a, b));
            }
        }
        Poly::from_coeffs(out)
    }

    /// Multiplies by a scalar.
    pub fn scale(&self, fp: &Fp, s: FpElem) -> Poly {
        Poly::from_coeffs(self.coeffs.iter().map(|&c| fp.mul(c, s)).collect())
    }

    /// Polynomial long division: returns `(quotient, remainder)` with
    /// `self = quotient * divisor + remainder` and
    /// `deg(remainder) < deg(divisor)`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::ZeroInverse`] if `divisor` is zero.
    pub fn divmod(&self, fp: &Fp, divisor: &Poly) -> Result<(Poly, Poly), FieldError> {
        if divisor.is_zero() {
            return Err(FieldError::ZeroInverse);
        }
        let dlead = *divisor.coeffs.last().expect("nonzero divisor");
        let dlead_inv = fp.inv(dlead)?;
        let ddeg = divisor.coeffs.len() - 1;
        let mut rem = self.coeffs.clone();
        if rem.len() <= ddeg {
            return Ok((Poly::zero(), Poly::from_coeffs(rem)));
        }
        let qlen = rem.len() - ddeg;
        let mut quot = vec![0; qlen];
        for qi in (0..qlen).rev() {
            let lead = rem[qi + ddeg];
            if lead == 0 {
                continue;
            }
            let c = fp.mul(lead, dlead_inv);
            quot[qi] = c;
            for (di, &dc) in divisor.coeffs.iter().enumerate() {
                rem[qi + di] = fp.sub(rem[qi + di], fp.mul(c, dc));
            }
        }
        Ok((Poly::from_coeffs(quot), Poly::from_coeffs(rem)))
    }

    /// Lagrange interpolation through the given `(x, y)` points. The result
    /// has degree `< points.len()`.
    ///
    /// # Errors
    ///
    /// Returns [`FieldError::DuplicatePoint`] if two points share an
    /// x-coordinate.
    pub fn interpolate(fp: &Fp, points: &[(FpElem, FpElem)]) -> Result<Poly, FieldError> {
        for (i, &(xi, _)) in points.iter().enumerate() {
            for &(xj, _) in &points[i + 1..] {
                if fp.reduce(xi) == fp.reduce(xj) {
                    return Err(FieldError::DuplicatePoint(xi));
                }
            }
        }
        let mut acc = Poly::zero();
        for (i, &(xi, yi)) in points.iter().enumerate() {
            let xi = fp.reduce(xi);
            let yi = fp.reduce(yi);
            // Basis polynomial L_i = prod_{j != i} (x - x_j) / (x_i - x_j).
            let mut basis = Poly::from_coeffs(vec![1]);
            let mut denom: FpElem = 1;
            for (j, &(xj, _)) in points.iter().enumerate() {
                if j == i {
                    continue;
                }
                let xj = fp.reduce(xj);
                basis = basis.mul(fp, &Poly::from_coeffs(vec![fp.neg(xj), 1]));
                denom = fp.mul(denom, fp.sub(xi, xj));
            }
            let coeff = fp.mul(yi, fp.inv(denom)?);
            acc = acc.add(fp, &basis.scale(fp, coeff));
        }
        Ok(acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fp11() -> Fp {
        Fp::new(11).unwrap()
    }

    #[test]
    fn zero_polynomial_basics() {
        let fp = fp11();
        let z = Poly::zero();
        assert!(z.is_zero());
        assert_eq!(z.degree(), None);
        assert_eq!(z.eval(&fp, 7), 0);
        assert_eq!(Poly::from_coeffs(vec![0, 0, 0]), Poly::zero());
    }

    #[test]
    fn eval_matches_horner_expansion() {
        let fp = fp11();
        let p = Poly::from_coeffs(vec![3, 4, 5]); // 3 + 4x + 5x^2
        for x in 0..11 {
            let expected = (3 + 4 * x + 5 * x * x) % 11;
            assert_eq!(p.eval(&fp, x), expected);
        }
    }

    #[test]
    fn interpolate_rejects_duplicate_x() {
        let fp = fp11();
        let err = Poly::interpolate(&fp, &[(1, 2), (1, 3)]).unwrap_err();
        assert_eq!(err, FieldError::DuplicatePoint(1));
        // Duplicates modulo p are also duplicates.
        let err = Poly::interpolate(&fp, &[(1, 2), (12, 3)]).unwrap_err();
        assert_eq!(err, FieldError::DuplicatePoint(1));
    }

    #[test]
    fn interpolate_constant() {
        let fp = fp11();
        let p = Poly::interpolate(&fp, &[(4, 9)]).unwrap();
        assert_eq!(p, Poly::from_coeffs(vec![9]));
    }

    #[test]
    fn divmod_round_trip() {
        let fp = fp11();
        let a = Poly::from_coeffs(vec![1, 2, 3, 4, 5]);
        let b = Poly::from_coeffs(vec![7, 0, 2]);
        let (q, r) = a.divmod(&fp, &b).unwrap();
        let back = q.mul(&fp, &b).add(&fp, &r);
        assert_eq!(back, a);
        assert!(r.degree().is_none_or(|d| d < b.degree().unwrap()));
    }

    #[test]
    fn divmod_by_zero_fails() {
        let fp = fp11();
        let a = Poly::from_coeffs(vec![1, 2]);
        assert_eq!(a.divmod(&fp, &Poly::zero()), Err(FieldError::ZeroInverse));
    }

    #[test]
    fn random_with_secret_hits_secret_at_zero() {
        let fp = fp11();
        let mut rng = StdRng::seed_from_u64(7);
        for degree in 0..5 {
            for secret in 0..11 {
                let p = Poly::random_with_secret(&fp, secret, degree, &mut rng);
                assert_eq!(p.eval(&fp, 0), secret);
                assert!(p.degree().is_none_or(|d| d <= degree));
            }
        }
    }

    fn coeff_vec(p: u64, max_len: usize) -> impl Strategy<Value = Vec<u64>> {
        proptest::collection::vec(0..p, 0..max_len)
    }

    proptest! {
        #[test]
        fn interpolation_round_trip(coeffs in coeff_vec(101, 8)) {
            let fp = Fp::new(101).unwrap();
            let p = Poly::from_coeffs(coeffs);
            let npoints = p.coeffs().len().max(1);
            let points: Vec<_> = (1..=npoints as u64).map(|x| (x, p.eval(&fp, x))).collect();
            let q = Poly::interpolate(&fp, &points).unwrap();
            prop_assert_eq!(p, q);
        }

        #[test]
        fn add_sub_round_trip(a in coeff_vec(11, 8), b in coeff_vec(11, 8)) {
            let fp = fp11();
            let pa = Poly::from_coeffs(a);
            let pb = Poly::from_coeffs(b);
            prop_assert_eq!(pa.add(&fp, &pb).sub(&fp, &pb), pa);
        }

        #[test]
        fn mul_is_eval_homomorphic(a in coeff_vec(101, 6), b in coeff_vec(101, 6), x in 0u64..101) {
            let fp = Fp::new(101).unwrap();
            let pa = Poly::from_coeffs(a);
            let pb = Poly::from_coeffs(b);
            let prod = pa.mul(&fp, &pb);
            prop_assert_eq!(prod.eval(&fp, x), fp.mul(pa.eval(&fp, x), pb.eval(&fp, x)));
        }

        #[test]
        fn divmod_identity(a in coeff_vec(101, 8), b in coeff_vec(101, 5)) {
            let fp = Fp::new(101).unwrap();
            let pa = Poly::from_coeffs(a);
            let pb = Poly::from_coeffs(b);
            prop_assume!(!pb.is_zero());
            let (q, r) = pa.divmod(&fp, &pb).unwrap();
            prop_assert_eq!(q.mul(&fp, &pb).add(&fp, &r), pa);
        }
    }
}

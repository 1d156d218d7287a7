//! Prime-field arithmetic and coding-theory primitives for the `byzclock`
//! common coin.
//!
//! The PODC'08 clock-synchronization stack plugs in a Feldman–Micali-style
//! common coin built from verifiable secret sharing over a small prime field
//! `F_p` with `p > n` (Remark 2.3 of the paper: the constants are "part of
//! the code" — we use the smallest prime larger than `n`). This crate
//! supplies everything that layer needs:
//!
//! - [`Fp`]: a dynamic-modulus prime field with element type [`FpElem`],
//! - [`Poly`]: univariate polynomials (evaluation, Lagrange interpolation,
//!   arithmetic, division),
//! - [`SymmetricBivariate`]: symmetric bivariate polynomials used by the
//!   graded VSS dealing phase,
//! - [`rs`]: Reed–Solomon decoding via the Berlekamp–Welch algorithm, which
//!   lets the coin's recover round tolerate up to `f` corrupted shares —
//!   one-shot ([`rs::decode`]) or amortized over every codeword sharing an
//!   evaluation-point set ([`BatchDecoder`], the per-beat GVSS recover
//!   shape).
//!
//! # Example
//!
//! ```
//! use byzclock_field::{Fp, Poly, rs};
//!
//! # fn main() -> Result<(), byzclock_field::FieldError> {
//! let fp = Fp::new(11)?; // smallest prime > n for n = 10
//! // Share the secret 7 with a degree-2 polynomial: p(x) = 7 + 3x + 5x^2.
//! let poly = Poly::from_coeffs(vec![7, 3, 5]);
//! let mut shares: Vec<(u64, u64)> = (1..=7).map(|x| (x, poly.eval(&fp, x))).collect();
//! shares[0].1 = 9; // one corrupted share
//! shares[3].1 = 0; // two corrupted shares
//! let decoded = rs::decode(&fp, &shares, 2).expect("2 errors are within budget");
//! assert_eq!(decoded.eval(&fp, 0), 7);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bivariate;
mod error;
mod fp;
mod poly;
mod primes;

pub mod rs;

pub use bivariate::SymmetricBivariate;
pub use error::FieldError;
pub use fp::{Fp, FpElem};
pub use poly::Poly;
pub use primes::{is_prime, smallest_prime_above};
pub use rs::BatchDecoder;

use std::error::Error;
use std::fmt;

/// Error type for field construction and field-dependent algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FieldError {
    /// The requested modulus is not a prime number.
    NotPrime(u64),
    /// The modulus is too large for the 64-bit backed implementation.
    ModulusTooLarge(u64),
    /// An inverse of zero was requested.
    ZeroInverse,
    /// Interpolation was attempted over duplicated x-coordinates.
    DuplicatePoint(u64),
}

impl fmt::Display for FieldError {
    fn fmt(&self, fmt: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FieldError::NotPrime(p) => write!(fmt, "modulus {p} is not prime"),
            FieldError::ModulusTooLarge(p) => {
                write!(
                    fmt,
                    "modulus {p} exceeds the supported range (must fit in 32 bits)"
                )
            }
            FieldError::ZeroInverse => write!(fmt, "zero has no multiplicative inverse"),
            FieldError::DuplicatePoint(x) => {
                write!(fmt, "duplicate x-coordinate {x} in interpolation input")
            }
        }
    }
}

impl Error for FieldError {}

//! Isolated timings of the `field` kernels the coin rounds lean on, at a
//! workload's own `(n, f)`: what one call costs outside the beat, so that
//! call counts × these numbers estimate a kernel's share of a coin round.

use byzclock_field::{BatchDecoder, Fp, Poly, SymmetricBivariate};
use byzclock_sim::SimRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Isolated `field` timings at one `(n, f)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct FieldTimings {
    /// One `Poly::eval` of a degree-`f` polynomial.
    pub eval_ns: f64,
    /// One `SymmetricBivariate::row`.
    pub row_ns: f64,
    /// One `SymmetricBivariate::random_with_secret`.
    pub deal_ns: f64,
    /// `BatchDecoder::decode_batch` per codeword, no errors.
    pub clean_ns_per_codeword: f64,
    /// The same with `f` corrupted shares per codeword.
    pub errors_ns_per_codeword: f64,
    /// `BatchDecoder::new` plus the first decode of each kind, which is
    /// where a decoder builds its two stage factorizations.
    pub build_us: f64,
}

/// Calls `f` in batches until [`BUDGET`] has passed; mean ns per call.
fn time_ns<T>(mut f: impl FnMut() -> T) -> f64 {
    const BUDGET: Duration = Duration::from_millis(30);
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < BUDGET {
        for _ in 0..16 {
            black_box(f());
        }
        calls += 16;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// A beat-shaped batch: `n` codewords of degree `f` over the points
/// `1..=n`, each with `errors` corrupted shares.
fn batch(fp: &Fp, n: usize, f: usize, errors: usize, rng: &mut SimRng) -> Vec<Vec<u64>> {
    (0..n)
        .map(|_| {
            let poly = Poly::random_with_secret(fp, fp.sample(rng), f, rng);
            let mut ys: Vec<u64> = (1..=n as u64).map(|x| poly.eval(fp, x)).collect();
            for y in ys.iter_mut().take(errors) {
                *y = fp.add(*y, 1);
            }
            ys
        })
        .collect()
}

/// Times the kernels at `(n, f)`; `seed` only picks the polynomials.
pub fn field_timings(n: usize, f: usize, seed: u64) -> FieldTimings {
    let fp = Fp::for_cluster(n);
    let mut rng = SimRng::seed_from_u64(seed);
    let poly = Poly::random_with_secret(&fp, fp.sample(&mut rng), f, &mut rng);
    let bivariate = SymmetricBivariate::random_with_secret(&fp, 1, f, &mut rng);
    let xs: Vec<u64> = (1..=n as u64).collect();
    let clean = batch(&fp, n, f, 0, &mut rng);
    let dirty = batch(&fp, n, f, f, &mut rng);

    let mut x = 0u64;
    let eval_ns = time_ns(|| {
        x = x % n as u64 + 1;
        poly.eval(&fp, black_box(x))
    });
    let row_ns = time_ns(|| {
        x = x % n as u64 + 1;
        bivariate.row(&fp, black_box(x))
    });
    let deal_ns = time_ns(|| SymmetricBivariate::random_with_secret(&fp, 1, f, &mut rng));

    let build_ns = time_ns(|| {
        let mut decoder = BatchDecoder::new(&fp, &xs, f).expect("distinct points, enough of them");
        black_box(decoder.decode_one(&clean[0]));
        black_box(decoder.decode_one(&dirty[0]));
        decoder
    });
    let mut decoder = BatchDecoder::new(&fp, &xs, f).expect("distinct points, enough of them");
    let clean_ns = time_ns(|| decoder.decode_batch(black_box(&clean)));
    let dirty_ns = time_ns(|| decoder.decode_batch(black_box(&dirty)));
    assert!(
        decoder.decode_batch(&dirty).iter().all(Option::is_some),
        "f errors are within the decoder's budget"
    );

    FieldTimings {
        eval_ns,
        row_ns,
        deal_ns,
        clean_ns_per_codeword: clean_ns / n as f64,
        errors_ns_per_codeword: dirty_ns / n as f64,
        build_us: build_ns / 1e3,
    }
}

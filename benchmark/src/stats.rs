//! Order statistics over timing samples.

/// Median of `values` (mean of the middle pair for an even count); 0 for
/// no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The tail a sample of this size supports: the 11th-largest value — the
/// highest percentile with ten samples beyond it — or, below eleven
/// samples, the smallest there is. Returns the value and its rank from
/// the top.
pub fn tail(values: &[f64]) -> (f64, usize) {
    if values.is_empty() {
        return (0.0, 0);
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| b.total_cmp(a));
    let rank = v.len().min(11);
    (v[rank - 1], rank)
}

/// Largest value; 0 for no samples.
pub fn max(values: &[f64]) -> f64 {
    values.iter().copied().fold(0.0, f64::max)
}

/// Smallest value; 0 for no samples.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// The percentile a rank-from-the-top stands for in `n` samples.
pub fn percentile_of_rank(rank: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    100.0 * (n - rank) as f64 / n as f64
}

/// `x` to six significant digits, for printed tables (result files keep
/// every digit).
pub fn digits(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return "0".to_string();
    }
    let decimals = (5 - x.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{x:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest() {
        for n in [22usize, 60, 3_500] {
            // A permutation of 1..=n (n and 13 are coprime), so the 11th
            // largest is n - 10 whatever the order.
            assert_ne!(n % 13, 0);
            let values: Vec<f64> = (0..n).map(|i| ((i * 13) % n + 1) as f64).collect();
            let (value, rank) = tail(&values);
            assert_eq!((value, rank), ((n - 10) as f64, 11), "n={n}");
            assert_eq!(values.iter().filter(|&&x| x > value).count(), 10);
        }
        assert!((percentile_of_rank(11, 3_500) - 99.6857).abs() < 1e-3);
        assert!((percentile_of_rank(11, 22) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn short_samples_fall_back_to_what_they_hold() {
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (1.0, 3));
        assert_eq!(tail(&[]), (0.0, 0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(max(&[1.0, 5.0, 2.0]), 5.0);
        assert_eq!(min(&[4.0, 1.5, 3.0]), 1.5);
        assert_eq!(digits(0.000047412345), "0.0000474123");
        assert_eq!(digits(25762412.0), "25762412");
        assert_eq!(digits(349.71734), "349.717");
    }
}

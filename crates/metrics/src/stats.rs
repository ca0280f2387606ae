//! Scalar statistics.

/// Arithmetic mean; NaN for an empty iterator.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0usize;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        f64::NAN
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert!(mean(std::iter::empty()).is_nan());
    }
}

//! Order statistics the benchmark reports: medians across repeated
//! blocks and the quartile spread the `diff` command compares against a
//! metric's bound. (Percentiles inside one block are the engine's own
//! nearest-rank `qgraph_core::Percentiles`.)

#![forbid(unsafe_code)]

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite measurements"));
    v
}

/// Median (mean of the middle pair for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(v, n=4)`
/// gives (exclusive method) — the spread the builder contract gates on.
/// `None` below three values or at a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    if n < 3 {
        return None;
    }
    let quartile = |k: usize| {
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = median(&v);
    (med != 0.0).then(|| (quartile(3) - quartile(1)) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartile_spread_matches_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = quartile_spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12, "{s}");
        assert_eq!(quartile_spread(&[1.0, 2.0]), None);
    }
}

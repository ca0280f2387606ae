//! Time-stamped measurement series.

/// One measurement: a value observed at a (virtual) time, in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Observation time in seconds.
    pub t: f64,
    /// Observed value.
    pub value: f64,
}

/// An append-only series of [`Sample`]s ordered by time.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    name: String,
    samples: Vec<Sample>,
}

impl TimeSeries {
    /// An empty named series.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries {
            name: name.into(),
            samples: Vec::new(),
        }
    }

    /// Append an observation. Times must be non-decreasing.
    pub fn push(&mut self, t: f64, value: f64) {
        debug_assert!(
            self.samples.last().is_none_or(|s| s.t <= t),
            "time series `{}` must be appended in time order",
            self.name
        );
        self.samples.push(Sample { t, value });
    }

    /// All samples.
    pub fn samples(&self) -> &[Sample] {
        &self.samples
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of all values (NaN when empty).
    pub fn mean(&self) -> f64 {
        crate::mean(self.samples.iter().map(|s| s.value))
    }

    /// Aggregate into tumbling windows of `width` seconds starting at t=0;
    /// each output sample sits at the window's start and carries the mean of
    /// the window's values. Empty windows produce no sample. The figure
    /// harness buckets per-query latencies over time with it.
    pub fn tumbling_mean(&self, width: f64) -> TimeSeries {
        assert!(width > 0.0, "window width must be positive");
        let mut out = TimeSeries::new(format!("{}/tumbling{width}", self.name));
        let mut idx = 0usize;
        while idx < self.samples.len() {
            let w = (self.samples[idx].t / width).floor();
            let start = w * width;
            let end = start + width;
            let mut sum = 0.0;
            let mut n = 0usize;
            while idx < self.samples.len() && self.samples[idx].t < end {
                sum += self.samples[idx].value;
                n += 1;
                idx += 1;
            }
            out.push(start, sum / n as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(pairs: &[(f64, f64)]) -> TimeSeries {
        let mut s = TimeSeries::new("t");
        for &(t, v) in pairs {
            s.push(t, v);
        }
        s
    }

    #[test]
    fn push_and_stats() {
        let s = ts(&[(0.0, 1.0), (1.0, 3.0)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.mean(), 2.0);
    }

    #[test]
    fn tumbling_buckets_by_floor() {
        let s = ts(&[(0.1, 1.0), (0.9, 3.0), (2.5, 10.0)]);
        let w = s.tumbling_mean(1.0);
        assert_eq!(w.len(), 2);
        assert_eq!(w.samples()[0], Sample { t: 0.0, value: 2.0 });
        assert_eq!(
            w.samples()[1],
            Sample {
                t: 2.0,
                value: 10.0
            }
        );
    }

    #[test]
    fn empty_series_edge_cases() {
        let s = TimeSeries::new("e");
        assert!(s.is_empty());
        assert!(s.mean().is_nan());
        assert!(s.tumbling_mean(1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "window width must be positive")]
    fn zero_window_rejected() {
        ts(&[(0.0, 1.0)]).tumbling_mean(0.0);
    }
}

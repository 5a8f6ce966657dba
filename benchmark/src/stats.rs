//! Order statistics for timing samples. Every summary states its sample
//! count, because a median of three and a median of thirty are different
//! claims.

/// The `q`-quantile (0.0–1.0) of `samples` by nearest rank. `None` for an
/// empty slice.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// The median of `samples`: the middle value, or the mean of the two middle
/// values for an even count. `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples below which a 90th percentile is not reported: with fewer, p90 is
/// one of the two slowest samples and says nothing a maximum does not.
pub const P90_MIN_SAMPLES: usize = 20;

/// A median with its sample count, and p90 when the count supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median of the samples.
    pub median: f64,
    /// 90th percentile, when `n >= P90_MIN_SAMPLES`.
    pub p90: Option<f64>,
}

impl Summary {
    /// Summarises `samples`. `None` for an empty slice.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        Some(Summary {
            n: samples.len(),
            median: median(samples)?,
            p90: (samples.len() >= P90_MIN_SAMPLES)
                .then(|| percentile(samples, 0.9))
                .flatten(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Some(50.0));
        assert_eq!(percentile(&s, 0.99), Some(99.0));
        assert_eq!(percentile(&s, 1.0), Some(100.0));
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 0.9), Some(7.0));
    }

    #[test]
    fn summary_states_count_and_gates_p90() {
        let few = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!((few.n, few.median, few.p90), (3, 2.0, None));
        let many: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::of(&many).unwrap();
        assert_eq!((s.n, s.median, s.p90), (20, 10.5, Some(18.0)));
        assert!(Summary::of(&[]).is_none());
    }
}

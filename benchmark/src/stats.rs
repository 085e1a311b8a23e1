//! Order statistics over small samples.

/// Median of `values`; the mean of the two middle values when the count
/// is even. `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
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

/// Nearest-rank percentile (`p` in 0..=100) of `values`: the smallest
/// value with at least `p` % of the sample at or below it. `NaN` for an
/// empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// A metric over the timed repetitions: the value reported, with the least
/// and the greatest of the per-repetition values beside it as its spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// The median over the repetitions is the value.
    pub fn of(per_rep: &[f64]) -> Summary {
        Summary {
            value: median(per_rep),
            min: per_rep.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_rep.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// A value taken once per run (no repetitions to spread over).
    pub fn once(value: f64) -> Summary {
        Summary {
            value,
            min: value,
            max: value,
        }
    }

    /// The same spread around a value that was not read off one
    /// repetition (see `Rep::uncontended`).
    pub fn valued(self, value: f64) -> Summary {
        Summary { value, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        // Unsorted input, small sample: p95 of five values is the largest.
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 95.0), 5.0);
        assert_eq!(percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 50.0), 3.0);
    }

    #[test]
    fn summary_keeps_spread() {
        let s = Summary::of(&[2.0, 9.0, 4.0, 1.0, 5.0]);
        assert_eq!((s.value, s.min, s.max), (4.0, 1.0, 9.0));
        assert_eq!(s.valued(0.5), Summary { value: 0.5, ..s });
    }
}

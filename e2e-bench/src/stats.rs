//! Medians and quartiles, computed the way Python's `statistics` module
//! computes them, so a spread read off a report matches one recomputed
//! with `statistics.quantiles(values, n=4)`.

/// Median, averaging the two middle values of an even count.  Sorts
/// `values` in place; an empty slice gives `0.0`.
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => values[n / 2],
        _ => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

/// First and third quartile by the "exclusive" method of
/// `statistics.quantiles(values, n=4)`.  One value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        let v = data.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let m = ld as i64 + 1;
    let at = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the ends for tiny samples: Python extrapolates too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// A metric over repetitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Median of the values.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Number of values.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`.
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Self {
            median: median(&mut values.to_vec()),
            q1,
            q3,
            n: values.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(median(&mut ten.clone()), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }
}

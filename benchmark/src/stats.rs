//! Medians, quartiles, and the prefix-subtraction arithmetic of the
//! layer table.

use crate::json::Json;

/// Median, quartiles and sample count of one metric's per-pass values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (the exclusive method), so a spread computed from a result
    /// file matches one computed by the driver. With fewer than two
    /// values the quartiles collapse onto the median.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no values");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n < 2 {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// Inter-quartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1).abs() / self.median.abs()
    }

    /// `value` is what the metric reports — the median for most.
    pub fn to_json(self, value: f64, unit: &str) -> Json {
        Json::obj(vec![
            ("value", Json::Num(value)),
            ("unit", Json::str(unit)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    pub fn from_json(v: &Json) -> Option<Summary> {
        Some(Summary {
            median: v.get("median")?.as_f64()?,
            q1: v.get("q1")?.as_f64()?,
            q3: v.get("q3")?.as_f64()?,
            n: v.get("n")?.as_u64()? as usize,
        })
    }
}

pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// A layer's self cost: what the cumulative prefix that ends with the
/// layer costs per packet, less what the prefix before it costs. Both
/// prefixes run over the same records. Noise can push a small layer
/// below zero; that is reported as measured, not clamped, so a table
/// that does not add up shows.
pub fn self_cost_per_pkt(prefix_total: f64, previous_total: f64, records: u64) -> f64 {
    (prefix_total - previous_total) / records as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        let s = Summary::of(&[3.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 4.0, 5.5));
        let s = Summary::of(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.25, 9.0, 4.0]);
        assert_eq!(Summary::from_json(&s.to_json(s.median, "ms")), Some(s));
    }

    #[test]
    fn prefix_subtraction() {
        // read costs 50 ns/pkt, read+peek 130 ns/pkt over 1000 records.
        assert_eq!(self_cost_per_pkt(130_000.0, 50_000.0, 1000), 80.0);
        // A layer lost in noise goes negative rather than vanishing.
        assert_eq!(self_cost_per_pkt(49_000.0, 50_000.0, 1000), -1.0);
    }
}

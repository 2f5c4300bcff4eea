//! Small statistics toolkit: CDFs, time bins, and correlation.
//!
//! The campus study (§6.2) reports its metrics as per-media-type CDFs over
//! one-second bins (Fig. 15) and tests for (absence of) correlation
//! between jitter and the other metrics (Fig. 16); these helpers produce
//! exactly those artifacts.

/// A sample collection with CDF/percentile queries.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty collection.
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        if v.is_finite() {
            self.values.push(v);
            self.sorted = false;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Raw values (unordered).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Mean, or 0 for an empty collection.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank; 0 for empty.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = ((self.values.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        self.values[idx]
    }

    /// Median.
    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    /// Fraction of samples ≤ `x`.
    pub fn cdf_at(&mut self, x: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.values.partition_point(|&v| v <= x);
        n as f64 / self.values.len() as f64
    }

    /// An `n`-point CDF as (value, cumulative-fraction) pairs, evenly
    /// spaced in rank — ready for plotting (Fig. 15).
    pub fn cdf_points(&mut self, n: usize) -> Vec<(f64, f64)> {
        if self.values.is_empty() || n == 0 {
            return Vec::new();
        }
        self.ensure_sorted();
        let len = self.values.len();
        (1..=n)
            .map(|i| {
                let frac = i as f64 / n as f64;
                let idx = ((len as f64 * frac).ceil() as usize).clamp(1, len) - 1;
                (self.values[idx], frac)
            })
            .collect()
    }
}

/// Pearson correlation coefficient of paired samples; 0 when degenerate.
pub fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    if n < 2 {
        return 0.0;
    }
    let mx = xs[..n].iter().sum::<f64>() / n as f64;
    let my = ys[..n].iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for i in 0..n {
        let dx = xs[i] - mx;
        let dy = ys[i] - my;
        cov += dx * dy;
        vx += dx * dx;
        vy += dy * dy;
    }
    if vx == 0.0 || vy == 0.0 {
        return 0.0;
    }
    cov / (vx * vy).sqrt()
}

/// Fixed-width time bins accumulating a numeric value (bytes, packets...).
///
/// Bins are indexed from time zero; `add` ignores samples past `end`.
#[derive(Debug, Clone)]
pub struct TimeBins {
    width_nanos: u64,
    bins: Vec<f64>,
}

impl TimeBins {
    /// Bins of `width_nanos` covering `[0, end_nanos)`.
    pub fn new(width_nanos: u64, end_nanos: u64) -> TimeBins {
        assert!(width_nanos > 0, "bin width must be positive");
        let n = end_nanos.div_ceil(width_nanos) as usize;
        TimeBins {
            width_nanos,
            bins: vec![0.0; n],
        }
    }

    /// Add `value` at time `t`.
    pub fn add(&mut self, t: u64, value: f64) {
        let idx = (t / self.width_nanos) as usize;
        if let Some(b) = self.bins.get_mut(idx) {
            *b += value;
        }
    }

    /// Bin contents.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Bin width.
    pub fn width_nanos(&self) -> u64 {
        self.width_nanos
    }

    /// Iterate `(bin_start_nanos, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as u64 * self.width_nanos, v))
    }

    /// Rates per second: value / bin-width-in-seconds.
    pub fn rates(&self) -> Vec<f64> {
        let secs = self.width_nanos as f64 / 1e9;
        self.bins.iter().map(|v| v / secs).collect()
    }
}

/// One second of a stream's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateRow {
    /// Whole seconds since time zero.
    pub second: u64,
    /// IP-layer bytes (headers included).
    pub ip_bytes: u64,
    /// Packets.
    pub packets: u64,
    /// RTP payload bytes.
    pub media_bytes: u64,
}

impl RateRow {
    /// Start of the row's second, nanoseconds.
    pub fn start_nanos(&self) -> u64 {
        self.second * 1_000_000_000
    }
}

/// Per-second rate rows of one stream — the paper's one-second
/// granularity (§5, Fig. 15) — for long-lived streams whose start and
/// end are not known up front.
///
/// Rows are kept in time order. Capture timestamps are nearly monotonic,
/// so a packet almost always lands in the last row (one comparison); a
/// straggler from an earlier second finds or inserts its row by binary
/// search. Only seconds that saw a packet have a row.
#[derive(Debug, Clone, Default)]
pub struct RateRows {
    rows: Vec<RateRow>,
}

impl RateRows {
    /// No rows.
    pub fn new() -> RateRows {
        RateRows::default()
    }

    /// Count one packet of `ip_bytes` carrying `media_bytes` of payload,
    /// captured at `t_nanos`.
    #[inline]
    pub fn add(&mut self, t_nanos: u64, ip_bytes: u64, media_bytes: u64) {
        let second = t_nanos / 1_000_000_000;
        let row = match self.rows.last_mut() {
            Some(last) if last.second == second => last,
            _ => self.straggler_row(second),
        };
        row.ip_bytes += ip_bytes;
        row.packets += 1;
        row.media_bytes += media_bytes;
    }

    /// The row for `second` when it is not the last one: found, appended,
    /// or inserted in order.
    fn straggler_row(&mut self, second: u64) -> &mut RateRow {
        let at = match self.rows.binary_search_by_key(&second, |r| r.second) {
            Ok(at) => at,
            Err(at) => {
                let empty = RateRow {
                    second,
                    ip_bytes: 0,
                    packets: 0,
                    media_bytes: 0,
                };
                self.rows.insert(at, empty);
                at
            }
        };
        &mut self.rows[at]
    }

    /// The rows, in time order.
    pub fn rows(&self) -> &[RateRow] {
        &self.rows
    }

    /// Number of seconds that saw a packet.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no packet was counted.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_rows_accumulate_in_time_order() {
        let mut b = RateRows::new();
        assert!(b.is_empty());
        b.add(100, 10, 1);
        b.add(999_999_999, 20, 2);
        b.add(5_000_000_000, 40, 4);
        // A straggler from a second never seen, and one from a seen one.
        b.add(3_000_000_001, 7, 0);
        b.add(500, 1, 1);
        assert_eq!(b.len(), 3);
        let rows: Vec<(u64, u64, u64, u64)> = b
            .rows()
            .iter()
            .map(|r| (r.start_nanos(), r.ip_bytes, r.packets, r.media_bytes))
            .collect();
        assert_eq!(
            rows,
            vec![
                (0, 31, 3, 4),
                (3_000_000_000, 7, 1, 0),
                (5_000_000_000, 40, 1, 4)
            ]
        );
    }

    #[test]
    fn quantiles_and_median() {
        let mut s = Samples::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.mean(), 3.0);
    }

    #[test]
    fn cdf_at_boundaries() {
        let mut s = Samples::new();
        for v in 1..=10 {
            s.push(f64::from(v));
        }
        assert_eq!(s.cdf_at(0.0), 0.0);
        assert_eq!(s.cdf_at(5.0), 0.5);
        assert_eq!(s.cdf_at(10.0), 1.0);
        assert_eq!(s.cdf_at(100.0), 1.0);
    }

    #[test]
    fn cdf_points_monotone() {
        let mut s = Samples::new();
        for v in [9.0, 2.0, 7.0, 7.0, 1.0, 3.0] {
            s.push(v);
        }
        let pts = s.cdf_points(4);
        assert_eq!(pts.len(), 4);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert_eq!(pts.last().unwrap().1, 1.0);
    }

    #[test]
    fn nan_and_inf_ignored() {
        let mut s = Samples::new();
        s.push(f64::NAN);
        s.push(f64::INFINITY);
        s.push(1.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn pearson_perfect_and_absent() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 2.0 * x + 1.0).collect();
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-9);
        let neg: Vec<f64> = xs.iter().map(|x| -x).collect();
        assert!((pearson(&xs, &neg) + 1.0).abs() < 1e-9);
        // Orthogonal square wave vs ramp over a full period: ~0.
        let ws: Vec<f64> = (0..100).map(|i| f64::from(i % 2)).collect();
        assert!(pearson(&xs, &ws).abs() < 0.05);
        assert_eq!(pearson(&[], &[]), 0.0);
        assert_eq!(pearson(&[1.0, 1.0], &[2.0, 3.0]), 0.0);
    }

    #[test]
    fn time_bins_accumulate_and_rate() {
        let mut b = TimeBins::new(1_000_000_000, 3_000_000_000);
        b.add(0, 10.0);
        b.add(999_999_999, 5.0);
        b.add(1_000_000_000, 7.0);
        b.add(5_000_000_000, 100.0); // beyond end: dropped
        assert_eq!(b.bins(), &[15.0, 7.0, 0.0]);
        assert_eq!(b.rates(), vec![15.0, 7.0, 0.0]);
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs[1], (1_000_000_000, 7.0));
    }
}

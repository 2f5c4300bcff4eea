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

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
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

    /// Iterate `(bin_start_nanos, value)`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.bins
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as u64 * self.width_nanos, v))
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

/// The row of `second` in `rows`, which are kept in time order: the last
/// row (one comparison — capture timestamps are nearly monotonic), else
/// found, appended or inserted in order by binary search, made by `empty`.
#[inline]
pub(crate) fn row_of<T>(
    rows: &mut Vec<T>,
    second: u64,
    second_of: impl Fn(&T) -> u64,
    empty: impl FnOnce(u64) -> T,
) -> &mut T {
    let at = match rows.last() {
        Some(last) if second_of(last) == second => rows.len() - 1,
        _ => match rows.binary_search_by_key(&second, second_of) {
            Ok(at) => at,
            Err(at) => {
                rows.insert(at, empty(second));
                at
            }
        },
    };
    &mut rows[at]
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
    /// Count one packet of `ip_bytes` carrying `media_bytes` of payload,
    /// captured at `t_nanos`.
    #[inline]
    pub fn add(&mut self, t_nanos: u64, ip_bytes: u64, media_bytes: u64) {
        let second = t_nanos / 1_000_000_000;
        let row = row_of(
            &mut self.rows,
            second,
            |r| r.second,
            |second| RateRow {
                second,
                ip_bytes: 0,
                packets: 0,
                media_bytes: 0,
            },
        );
        row.ip_bytes += ip_bytes;
        row.packets += 1;
        row.media_bytes += media_bytes;
    }

    /// The rows, in time order.
    pub fn rows(&self) -> &[RateRow] {
        &self.rows
    }
}

/// Bits of sub-bucket resolution: above [`EXACT_BELOW`], each power of two
/// is split into `2^SUB_BITS` equal buckets.
const SUB_BITS: u32 = 6;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below this get a bucket each and are kept exactly.
const EXACT_BELOW: u64 = 2 * SUB_BUCKETS;

/// A fixed-size, mergeable histogram of `u64` values with log-linear
/// buckets — what the analyzer keeps of a distribution instead of its
/// samples.
///
/// Values below 128 are counted exactly. Above, every power of two
/// `[2^e, 2^(e+1))` is cut into 64 equal buckets, so a bucket is at most
/// 1/64 of its lower bound wide, and its midpoint — the value every query
/// reports for it — is within 1/128 of any value in it. All of `u64` fits
/// in 3 776 buckets (30 KiB), but the count vector holds only the buckets
/// from the lowest non-empty one to the highest, and grows to exactly that
/// span: round-trip times in nanoseconds, 10 ms to 500 ms, span buckets
/// 1 164 to 1 527 — 364 counts, 2.9 KB.
///
/// Counts only grow, so the histogram of the values recorded between two
/// instants is the difference of the histograms at those instants
/// ([`LogHistogram::since`]). Two histograms are equal when they count
/// the same values into the same buckets.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Count per bucket from bucket `first` on; empty, or non-zero at
    /// both ends.
    counts: Vec<u64>,
    /// Bucket of `counts[0]`; 0 when empty.
    first: usize,
    total: u64,
}

impl LogHistogram {
    /// No values.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    fn bucket(v: u64) -> usize {
        if v < EXACT_BELOW {
            return v as usize;
        }
        // v ≥ 2^7, so its top set bit is at 7 or above and shift ≥ 1.
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((shift as usize) << SUB_BITS) + (v >> shift) as usize
    }

    /// The value a query reports for bucket `i`: its midpoint.
    fn midpoint(i: usize) -> u64 {
        if (i as u64) < EXACT_BELOW {
            return i as u64;
        }
        let shift = (i >> SUB_BITS) as u32 - 1;
        let lower = ((i as u64 & (SUB_BUCKETS - 1)) + SUB_BUCKETS) << shift;
        lower + (1 << (shift - 1))
    }

    /// Count one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = Self::bucket(v);
        self.cover(i, i + 1);
        self.counts[i - self.first] += 1;
        self.total += 1;
    }

    /// Grow the count vector, exactly, to span buckets `from .. to`.
    fn cover(&mut self, from: usize, to: usize) {
        if self.counts.is_empty() {
            self.first = from;
        }
        if from < self.first {
            let grow = self.first - from;
            self.counts.reserve_exact(grow);
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.first = from;
        }
        let end = self.first + self.counts.len();
        if to > end {
            self.counts.reserve_exact(to - end);
            self.counts.resize(to - self.first, 0);
        }
    }

    /// Number of values counted.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when no value was counted.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The histogram of the values counted after `earlier`, a state this
    /// histogram passed through: the difference of the two.
    pub fn since(&self, earlier: &LogHistogram) -> LogHistogram {
        let count = |i: usize| {
            let bucket = self.first + i;
            let before = bucket
                .checked_sub(earlier.first)
                .and_then(|j| earlier.counts.get(j));
            self.counts[i] - before.unwrap_or(&0)
        };
        let Some(lo) = (0..self.counts.len()).find(|&i| count(i) != 0) else {
            return LogHistogram::new();
        };
        let hi = (lo..self.counts.len())
            .rfind(|&i| count(i) != 0)
            .expect("lo is non-zero");
        LogHistogram {
            counts: (lo..=hi).map(count).collect(),
            first: self.first + lo,
            total: self.total - earlier.total,
        }
    }

    /// The `rank`-th smallest value (from 0), as its bucket's midpoint.
    fn at_rank(&self, rank: u64) -> u64 {
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen > rank {
                return Self::midpoint(self.first + i);
            }
        }
        unreachable!("rank {rank} of {} values", self.total)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1): the value at rank `round((n − 1)·q)`
    /// of the `n` values in ascending order, counted from 0 — within 1/128
    /// of that order statistic. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let rank = ((self.total - 1) as f64 * q.clamp(0.0, 1.0)).round() as u64;
        self.at_rank(rank)
    }

    /// Median ([`LogHistogram::quantile`] at 0.5).
    pub fn median(&self) -> u64 {
        self.quantile(0.5)
    }

    /// Fraction of the values whose bucket midpoint is ≤ `x`.
    pub fn cdf_at(&self, x: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let below: u64 = self
            .counts
            .iter()
            .enumerate()
            .take_while(|&(i, _)| Self::midpoint(self.first + i) as f64 <= x)
            .map(|(_, &c)| c)
            .sum();
        below as f64 / self.total as f64
    }

    /// An `n`-point CDF as (value, cumulative-fraction) pairs, evenly
    /// spaced in rank, like [`Samples::cdf_points`].
    pub fn cdf_points(&self, n: usize) -> Vec<(f64, f64)> {
        if self.total == 0 || n == 0 {
            return Vec::new();
        }
        let len = self.total;
        (1..=n)
            .map(|i| {
                let frac = i as f64 / n as f64;
                let rank = ((len as f64 * frac).ceil() as u64).clamp(1, len) - 1;
                (self.at_rank(rank) as f64, frac)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_rows_accumulate_in_time_order() {
        let mut b = RateRows::default();
        assert!(b.rows().is_empty());
        b.add(100, 10, 1);
        b.add(999_999_999, 20, 2);
        b.add(5_000_000_000, 40, 4);
        // A straggler from a second never seen, and one from a seen one.
        b.add(3_000_000_001, 7, 0);
        b.add(500, 1, 1);
        assert_eq!(b.rows().len(), 3);
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

    /// xorshift64*: seeded, dependency-free test values.
    fn values(seed: u64, n: usize, spread: impl Fn(u64) -> u64) -> Vec<u64> {
        let mut x = seed;
        (0..n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                spread(x.wrapping_mul(0x2545_f491_4f6c_dd1d))
            })
            .collect()
    }

    fn histogram_of(vs: &[u64]) -> LogHistogram {
        let mut h = LogHistogram::new();
        for &v in vs {
            h.record(v);
        }
        h
    }

    /// Bound on `|reported − v| / v` for a value `v` and what a query
    /// reports for it (its bucket's midpoint; exact below 128).
    const MAX_RELATIVE_ERROR: f64 = 1.0 / 128.0;

    fn within_error(reported: u64, exact: u64) -> bool {
        (reported as f64 - exact as f64).abs() <= exact as f64 * MAX_RELATIVE_ERROR
    }

    #[test]
    fn histogram_buckets_tile_u64_within_the_stated_error() {
        // Every bucket edge and its neighbours, 0, 1 and the top of u64.
        let mut edges = vec![0, 1, 127, 128, 129, u64::MAX - 1, u64::MAX];
        for e in 7..64 {
            for m in 0..SUB_BUCKETS {
                let lower = (SUB_BUCKETS + m) << (e - SUB_BITS);
                edges.extend([lower - 1, lower, lower + 1]);
            }
        }
        for v in edges {
            let i = LogHistogram::bucket(v);
            let mid = LogHistogram::midpoint(i);
            assert_eq!(LogHistogram::bucket(mid), i, "midpoint of {v}'s bucket");
            assert!(within_error(mid, v), "{v} reads as {mid}");
            if v < 128 {
                assert_eq!(mid, v);
            }
        }
        assert_eq!(LogHistogram::bucket(u64::MAX), 3_775);
    }

    #[test]
    fn histogram_quantiles_track_exact_order_statistics() {
        type Spread = fn(u64) -> u64;
        let spreads: [(&str, Spread); 4] = [
            ("small", |x| x % 300),
            ("rtt-like", |x| 1_000_000 + x % 400_000_000),
            ("wide", |x| x >> (x % 64)),
            ("near u64::MAX", |x| u64::MAX - x % 1_000_000),
        ];
        for (name, spread) in spreads {
            for (seed, n) in [(1, 1), (2, 2), (3, 7), (7, 1_000), (11, 20_001)] {
                let mut vs = values(seed, n, spread);
                let h = histogram_of(&vs);
                vs.sort_unstable();
                assert_eq!(h.len(), n as u64);
                for q in [0.0, 0.05, 0.5, 0.95, 1.0] {
                    let exact = vs[((n - 1) as f64 * q).round() as usize];
                    let got = h.quantile(q);
                    assert!(
                        within_error(got, exact),
                        "{name} n={n} q={q}: {got} vs {exact}"
                    );
                }
            }
        }
        let h = histogram_of(&[0, 1]);
        assert_eq!((h.quantile(0.0), h.median(), h.quantile(1.0)), (0, 1, 1));
        assert_eq!(LogHistogram::new().quantile(0.5), 0);
    }

    #[test]
    fn histograms_subtract_like_their_value_sets() {
        let a = values(5, 3_000, |x| x % 90_000_000);
        let b = values(9, 2_000, |x| x >> (x % 64));
        let union: Vec<u64> = a.iter().chain(&b).copied().collect();
        // A window's values are the difference of the histograms at its
        // two ends.
        let whole = histogram_of(&union);
        assert_eq!(whole.since(&histogram_of(&a)), histogram_of(&b));
        assert_eq!(whole.since(&whole), LogHistogram::new());
        assert_eq!(whole.since(&LogHistogram::new()), whole);
    }

    /// A histogram's counts from bucket 0, what [`LogHistogram`] kept
    /// before it spanned only its non-empty buckets: every query answered
    /// from them.
    #[derive(Debug, Clone, PartialEq)]
    struct Dense {
        counts: Vec<u64>,
    }

    impl Dense {
        fn of(h: &LogHistogram) -> Dense {
            let mut counts = vec![0; LogHistogram::bucket(u64::MAX) + 1];
            counts[h.first..h.first + h.counts.len()].copy_from_slice(&h.counts);
            Dense { counts }
        }

        fn record(&mut self, v: u64) {
            self.counts[LogHistogram::bucket(v)] += 1;
        }

        fn total(&self) -> u64 {
            self.counts.iter().sum()
        }

        fn at_rank(&self, rank: u64) -> u64 {
            let mut seen = 0;
            for (i, &c) in self.counts.iter().enumerate() {
                seen += c;
                if seen > rank {
                    return LogHistogram::midpoint(i);
                }
            }
            unreachable!()
        }

        fn quantile(&self, q: f64) -> u64 {
            match self.total() {
                0 => 0,
                n => self.at_rank(((n - 1) as f64 * q).round() as u64),
            }
        }

        fn cdf_at(&self, x: f64) -> f64 {
            let below: u64 = (0..self.counts.len())
                .take_while(|&i| LogHistogram::midpoint(i) as f64 <= x)
                .map(|i| self.counts[i])
                .sum();
            match self.total() {
                0 => 0.0,
                n => below as f64 / n as f64,
            }
        }

        fn cdf_points(&self, n: usize) -> Vec<(f64, f64)> {
            let len = self.total();
            if len == 0 || n == 0 {
                return Vec::new();
            }
            (1..=n)
                .map(|i| {
                    let frac = i as f64 / n as f64;
                    let rank = ((len as f64 * frac).ceil() as u64).clamp(1, len) - 1;
                    (self.at_rank(rank) as f64, frac)
                })
                .collect()
        }
    }

    /// Every query of `h` answers what its dense counts answer, and `h`
    /// keeps its span exactly: non-empty at both ends, no spare slot.
    fn answers_like_dense(h: &LogHistogram, dense: &Dense, what: &str) {
        assert_eq!(Dense::of(h), *dense, "{what}");
        assert_eq!(h.len(), dense.total(), "{what}");
        assert!(h.counts.first() != Some(&0), "{what}");
        assert!(h.counts.last() != Some(&0), "{what}");
        assert_eq!(h.counts.capacity(), h.counts.len(), "{what}");
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), dense.quantile(q), "{what} q={q}");
        }
        for x in [0.0, 127.0, 1e6, 2e7, 4.6e7, 1e8, 3e8, 1e12, f64::MAX] {
            assert_eq!(h.cdf_at(x), dense.cdf_at(x), "{what} x={x}");
        }
        assert_eq!(h.cdf_points(20), dense.cdf_points(20), "{what}");
    }

    #[test]
    fn histograms_answer_what_their_dense_counts_answer() {
        type Spread = fn(u64) -> u64;
        let spreads: [Spread; 4] = [
            |x| 10_000_000 + x % 490_000_000,
            |x| x % 300,
            |x| x >> (x % 64),
            |x| u64::MAX - x % 1_000_000,
        ];
        for (s, spread) in spreads.into_iter().enumerate() {
            let vs = values(s as u64 + 3, 6_000, spread);
            let mut h = LogHistogram::new();
            let mut dense = Dense::of(&h);
            let mut marks = vec![(h.clone(), dense.clone())];
            for (i, &v) in vs.iter().enumerate() {
                h.record(v);
                dense.record(v);
                if i % 997 == 0 {
                    answers_like_dense(&h, &dense, &format!("spread {s}, value {i}"));
                    marks.push((h.clone(), dense.clone()));
                }
            }
            // A window's histogram, as its dense counts' difference.
            for (mark, mark_dense) in &marks {
                let window = h.since(mark);
                let mut diff = dense.clone();
                for (d, m) in diff.counts.iter_mut().zip(&mark_dense.counts) {
                    *d -= m;
                }
                answers_like_dense(&window, &diff, &format!("spread {s}, since"));
                assert_eq!(window.since(&window), LogHistogram::new());
            }
        }
    }

    #[test]
    fn histogram_cdf_reads_exact_values_exactly() {
        let h = histogram_of(&[1, 2, 2, 3, 10, 100]);
        assert_eq!(h.cdf_at(0.0), 0.0);
        assert_eq!(h.cdf_at(2.0), 0.5);
        assert_eq!(h.cdf_at(100.0), 1.0);
        let pts = h.cdf_points(3);
        assert_eq!(pts, vec![(2.0, 1.0 / 3.0), (3.0, 2.0 / 3.0), (100.0, 1.0)]);
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
        let pairs: Vec<_> = b.iter().collect();
        assert_eq!(pairs[1], (1_000_000_000, 7.0));
    }
}

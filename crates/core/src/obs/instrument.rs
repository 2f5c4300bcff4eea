//! The instruments the registry is built from: relaxed-ordering atomic
//! counters and gauges, fixed-bucket histograms, and the bounded labeled
//! family behind the per-meeting QoE series.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins atomic gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A gauge at zero.
    pub const fn new() -> Gauge {
        Gauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raise the value to `v` if `v` is larger (peak tracking).
    #[inline]
    pub fn set_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as its bit pattern
/// in an `AtomicU64`), for rate-style QoE values — bits per second,
/// frames per second, milliseconds of jitter.
#[derive(Debug, Default)]
pub struct FloatGauge(AtomicU64);

impl FloatGauge {
    /// A gauge at `0.0`.
    pub const fn new() -> FloatGauge {
        FloatGauge(AtomicU64::new(0))
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket cumulative histogram (Prometheus semantics: each bucket
/// counts observations ≤ its bound, plus an implicit `+Inf` bucket).
///
/// Bounds are a static slice so construction allocates exactly one `Vec`
/// of atomics and observation is a branch-free scan of ≤ 8 bounds.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// A histogram over `bounds` (must be strictly increasing).
    pub fn new(bounds: &'static [u64]) -> Histogram {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Record one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        let idx = bucket_of(self.bounds, v);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Record observations tallied elsewhere: `buckets[i]` of them fell in
    /// bucket `i` (as [`bucket_of`] numbers them), summing to `sum`.
    pub(super) fn observe_tallied(&self, buckets: &[Cell<u64>], sum: u64) {
        let mut count = 0;
        for (mine, tallied) in self.buckets.iter().zip(buckets) {
            let n = tallied.take();
            if n > 0 {
                mine.fetch_add(n, Ordering::Relaxed);
                count += n;
            }
        }
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.count.fetch_add(count, Ordering::Relaxed);
    }

    /// Plain-data copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
            count: self.count.load(Ordering::Relaxed),
        }
    }
}

/// Index of the bucket `v` falls in: the first whose bound is not below
/// it, or `bounds.len()` for the `+Inf` bucket. Bounds ascend, so that is
/// the number of bounds below `v` — summed without a branch, because
/// where to stop is unpredictable on mixed packet sizes.
#[inline]
pub(super) fn bucket_of(bounds: &[u64], v: u64) -> usize {
    bounds.iter().map(|&b| usize::from(v > b)).sum()
}

/// Plain-data copy of a [`Histogram`]. `buckets[i]` counts observations
/// in `(bounds[i-1], bounds[i]]`; the final entry is the `+Inf` bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Upper bounds of the finite buckets.
    pub bounds: &'static [u64],
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Sum of all observed values.
    pub sum: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// within the bucket holding the target rank — the same estimator
    /// Prometheus's `histogram_quantile` uses.
    ///
    /// Bias, documented: values inside a bucket are assumed uniformly
    /// distributed over `(lo, hi]`, so the result can be off by up to one
    /// bucket width; a rank that lands in the `+Inf` overflow bucket is
    /// clamped to the largest finite bound. An empty histogram reports
    /// `0.0`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cum = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if (cum + n) as f64 >= target {
                if i >= self.bounds.len() {
                    // +Inf bucket: no finite upper edge to interpolate to.
                    return self.bounds.last().copied().unwrap_or(0) as f64;
                }
                let lo = if i == 0 {
                    0.0
                } else {
                    self.bounds[i - 1] as f64
                };
                let hi = self.bounds[i] as f64;
                let frac = ((target - cum as f64) / n as f64).max(0.0);
                return lo + frac * (hi - lo);
            }
            cum += n;
        }
        self.bounds.last().copied().unwrap_or(0) as f64
    }
}

// ----------------------------------------------------- labeled families --

/// A metric type usable as the per-series value of a [`LabeledFamily`].
///
/// Sealed in practice: implemented by [`Counter`], [`Gauge`],
/// [`FloatGauge`], and [`Histogram`].
pub trait FamilyMetric: std::fmt::Debug {
    /// Plain-data copy of one series' value.
    type Snap: Clone + PartialEq + std::fmt::Debug;
    /// Snapshot this series.
    fn snap(&self) -> Self::Snap;
}

impl FamilyMetric for Counter {
    type Snap = u64;
    fn snap(&self) -> u64 {
        self.get()
    }
}

impl FamilyMetric for Gauge {
    type Snap = u64;
    fn snap(&self) -> u64 {
        self.get()
    }
}

impl FamilyMetric for FloatGauge {
    type Snap = f64;
    fn snap(&self) -> f64 {
        self.get()
    }
}

impl FamilyMetric for Histogram {
    type Snap = HistogramSnapshot;
    fn snap(&self) -> HistogramSnapshot {
        self.snapshot()
    }
}

/// One series of a labeled-family snapshot: the label *values* (in the
/// family's label-name order) and the series' value.
pub type LabeledSeries<S> = (Vec<String>, S);

#[derive(Debug)]
struct FamilyInner<M> {
    /// Label values → (metric, last-touch stamp). A `BTreeMap` keeps
    /// snapshot/render order deterministic regardless of insert order.
    series: BTreeMap<Vec<String>, (M, u64)>,
    /// Monotone stamp; bumped on every touch, used for LRU eviction.
    touch: u64,
}

/// A bounded set of labeled series over one metric type: the label
/// registry behind `zoom_qoe_*{meeting=…,media=…}`.
///
/// Cardinality is hard-capped: creating a series beyond `cap` evicts the
/// least-recently-updated one and counts it in
/// [`series_evicted`](LabeledFamily::series_evicted), so a meeting churn
/// storm can never grow the registry without bound (the same discipline
/// the engine applies to flow/stream state). Updates take an uncontended
/// `Mutex` — families are written only at window boundaries, never on
/// the per-packet path.
#[derive(Debug)]
pub struct LabeledFamily<M> {
    /// Label names, in the order label values must be supplied.
    names: &'static [&'static str],
    cap: usize,
    make: fn() -> M,
    evicted: Counter,
    inner: Mutex<FamilyInner<M>>,
}

impl<M: FamilyMetric> LabeledFamily<M> {
    /// An empty family with the given label names, series cap, and
    /// per-series constructor.
    pub fn new(names: &'static [&'static str], cap: usize, make: fn() -> M) -> LabeledFamily<M> {
        LabeledFamily {
            names,
            cap: cap.max(1),
            make,
            evicted: Counter::new(),
            inner: Mutex::new(FamilyInner {
                series: BTreeMap::new(),
                touch: 0,
            }),
        }
    }

    /// Update (creating if needed) the series for `labels`, which must
    /// match the family's label names in length. If
    /// the family is at its cap, the least-recently-updated series is
    /// evicted first and counted.
    pub fn with(&self, labels: &[&str], f: impl FnOnce(&M)) {
        debug_assert_eq!(labels.len(), self.names.len());
        let key: Vec<String> = labels.iter().map(|s| (*s).to_string()).collect();
        let mut inner = self.inner.lock().expect("family lock");
        inner.touch += 1;
        let stamp = inner.touch;
        if let Some((metric, last)) = inner.series.get_mut(&key) {
            *last = stamp;
            f(metric);
            return;
        }
        if inner.series.len() >= self.cap {
            let lru = inner
                .series
                .iter()
                .min_by_key(|(_, (_, last))| *last)
                .map(|(k, _)| k.clone())
                .expect("non-empty at cap");
            inner.series.remove(&lru);
            self.evicted.inc();
        }
        let metric = (self.make)();
        f(&metric);
        inner.series.insert(key, (metric, stamp));
    }

    /// Series evicted by the cardinality cap so far.
    pub fn series_evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Live series count.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("family lock").series.len()
    }

    /// True when no series exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Plain-data copy of every series, sorted by label values.
    pub fn snapshot(&self) -> Vec<LabeledSeries<M::Snap>> {
        self.inner
            .lock()
            .expect("family lock")
            .series
            .iter()
            .map(|(k, (m, _))| (k.clone(), m.snap()))
            .collect()
    }
}

//! Production observability: a lock-light metrics registry for the
//! analysis pipeline, plus feature-gated tracing hooks.
//!
//! The paper's toolchain is meant to run unattended against production
//! campus traffic (§6: a 12-hour, 1.8-billion-packet trace), which
//! demands the operational visibility a real deployment has: where
//! packets are dropped, which dissect stage rejected them, and whether
//! eviction is discarding live streams. This module provides:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — relaxed-ordering atomics,
//!   no locks, no allocation after construction, safe to share across the
//!   analysis, capture and scrape threads through one
//!   `Arc<PipelineMetrics>`;
//! * [`PipelineMetrics`] — the registry every sink
//!   ([`crate::pipeline::Analyzer`], [`crate::engine::StreamingEngine`])
//!   threads through its hot path;
//! * [`MetricsSnapshot`] — a plain-data copy renderable as JSON
//!   ([`MetricsSnapshot::to_json`]) or Prometheus text exposition format
//!   ([`MetricsSnapshot::to_prom`]);
//! * [`trace`] — the sampled structured-tracing core: causal trace IDs
//!   attached to record batches at the capture source, per-stage span
//!   events exported as pinned-schema NDJSON, and cross-process
//!   stitching over the `ZFRG` Trace frame (plus the legacy coarse
//!   span/event stderr hooks behind the `obs-trace` cargo feature).
//!
//! Counter updates use `Ordering::Relaxed` throughout: each counter is
//! independently monotone and snapshots are only read after ingest
//! quiesces (or as an eventually-consistent live view), so no
//! cross-counter ordering is required. An uncontended relaxed RMW is a
//! single lock-prefixed instruction — the full per-packet budget is a
//! handful of them, which keeps the `bench_ingest` throughput regression
//! inside the ≤5 % acceptance bound.

use crate::report::JsonObj;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zoom_wire::dissect::DropStage;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::zoom::MediaType;

#[cfg(feature = "obs-http")]
pub mod serve;
pub mod trace;

// ---------------------------------------------------------- primitives --

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
    fn observe_tallied(&self, buckets: &[Cell<u64>], sum: u64) {
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
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
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
fn bucket_of(bounds: &[u64], v: u64) -> usize {
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
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] as f64 };
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

    /// Label names, in declaration order.
    pub fn label_names(&self) -> &'static [&'static str] {
        self.names
    }

    /// Update (creating if needed) the series for `labels`, which must
    /// match [`label_names`](LabeledFamily::label_names) in length. If
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

/// Short machine-readable slug for a media type, used as the `media`
/// label value of the QoE series (the human label has spaces/colons).
pub fn media_slug(mt: MediaType) -> &'static str {
    match mt {
        MediaType::ScreenShare => "screen",
        MediaType::Audio => "audio",
        MediaType::Video => "video",
        MediaType::RtcpSr => "rtcp_sr",
        MediaType::RtcpSrSdes => "rtcp_sr_sdes",
        MediaType::Other(_) => "other",
    }
}

// ------------------------------------------------------------ registry --

/// Captured-packet size buckets (bytes): small control frames through
/// full-MTU media.
pub const PACKET_SIZE_BOUNDS: &[u64] = &[64, 128, 256, 512, 1024, 1536];

/// Reconstructed-frame size buckets (bytes): audio frames through large
/// screen-share keyframes (Fig. 15b's range).
pub const FRAME_SIZE_BOUNDS: &[u64] = &[256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// Stage-latency buckets (nanoseconds): 1 µs through 100 ms, one decade
/// per bucket — wide enough to separate a healthy push (~1 µs) from a
/// window tick (~ms) without paying for fine resolution.
pub const STAGE_LATENCY_BOUNDS: &[u64] =
    &[1_000, 10_000, 100_000, 1_000_000, 10_000_000, 100_000_000];

/// Default hard cap on series per labeled QoE family. Each (meeting ×
/// media type) pair is one series, so 64 covers dozens of concurrent
/// meetings; beyond it the least-recently-updated series is evicted and
/// counted in `zoom_qoe_series_evicted_total`.
pub const QOE_SERIES_CAP: usize = 64;

/// The per-meeting / per-media-type QoE series registry: the paper's §5
/// estimators (bitrate, frame rate, jitter, frame size, retransmissions,
/// RTT) as live labeled time series, updated by the streaming engine at
/// every window boundary and rendered by
/// [`MetricsSnapshot::to_prom`]/[`MetricsSnapshot::to_json`].
#[derive(Debug)]
pub struct QoeMetrics {
    /// `zoom_qoe_bitrate_bps{meeting,media,family}` — media bit rate over
    /// the last closed window.
    pub bitrate_bps: LabeledFamily<FloatGauge>,
    /// `zoom_qoe_fps{meeting,media,family}` — delivered frame rate over
    /// the last closed window.
    pub fps: LabeledFamily<FloatGauge>,
    /// `zoom_qoe_jitter_ms{meeting,media,family}` — mean frame-level
    /// jitter over the last closed window's samples.
    pub jitter_ms: LabeledFamily<FloatGauge>,
    /// `zoom_qoe_frame_size_bytes{media,family}` — histogram of
    /// per-stream mean frame sizes, one observation per active stream per
    /// window.
    pub frame_size_bytes: LabeledFamily<Histogram>,
    /// `zoom_qoe_retransmissions_total{meeting,media,family}` — duplicate
    /// (retransmitted) packets, accumulated across windows.
    pub retransmissions: LabeledFamily<Counter>,
    /// `zoom_qoe_degraded{meeting,kind}` — 1 while the degradation
    /// detector holds an alert for the meeting, 0 once it clears.
    pub degraded: LabeledFamily<Gauge>,
    /// `zoom_qoe_estimated_rtt_ms` — mean RTP-copy RTT over the last
    /// window that produced samples.
    pub estimated_rtt_ms: FloatGauge,
}

impl QoeMetrics {
    fn new(cap: usize) -> QoeMetrics {
        QoeMetrics {
            bitrate_bps: LabeledFamily::new(&["meeting", "media", "family"], cap, FloatGauge::new),
            fps: LabeledFamily::new(&["meeting", "media", "family"], cap, FloatGauge::new),
            jitter_ms: LabeledFamily::new(&["meeting", "media", "family"], cap, FloatGauge::new),
            frame_size_bytes: LabeledFamily::new(&["media", "family"], cap, || {
                Histogram::new(FRAME_SIZE_BOUNDS)
            }),
            retransmissions: LabeledFamily::new(&["meeting", "media", "family"], cap, Counter::new),
            degraded: LabeledFamily::new(&["meeting", "kind"], cap, Gauge::new),
            estimated_rtt_ms: FloatGauge::new(),
        }
    }

    /// Series evicted by the cardinality cap, per family (family name,
    /// count) — rendered as `zoom_qoe_series_evicted_total{family=…}`.
    pub fn evictions(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("bitrate_bps", self.bitrate_bps.series_evicted()),
            ("fps", self.fps.series_evicted()),
            ("jitter_ms", self.jitter_ms.series_evicted()),
            ("frame_size_bytes", self.frame_size_bytes.series_evicted()),
            ("retransmissions", self.retransmissions.series_evicted()),
            ("degraded", self.degraded.series_evicted()),
        ]
    }

    /// Plain-data copy of every family.
    pub fn snapshot(&self) -> QoeSnapshot {
        QoeSnapshot {
            bitrate_bps: self.bitrate_bps.snapshot(),
            fps: self.fps.snapshot(),
            jitter_ms: self.jitter_ms.snapshot(),
            frame_size_bytes: self.frame_size_bytes.snapshot(),
            retransmissions: self.retransmissions.snapshot(),
            degraded: self.degraded.snapshot(),
            estimated_rtt_ms: self.estimated_rtt_ms.get(),
            series_evicted: self.evictions(),
        }
    }
}

/// Plain-data copy of [`QoeMetrics`]: each family as sorted
/// (label values, value) pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct QoeSnapshot {
    /// Bitrate series, labels `[meeting, media, family]`.
    pub bitrate_bps: Vec<LabeledSeries<f64>>,
    /// Frame-rate series, labels `[meeting, media, family]`.
    pub fps: Vec<LabeledSeries<f64>>,
    /// Jitter series, labels `[meeting, media, family]`.
    pub jitter_ms: Vec<LabeledSeries<f64>>,
    /// Frame-size histograms, labels `[media, family]`.
    pub frame_size_bytes: Vec<LabeledSeries<HistogramSnapshot>>,
    /// Retransmission counters, labels `[meeting, media, family]`.
    pub retransmissions: Vec<LabeledSeries<u64>>,
    /// Degradation flags, labels `[meeting, kind]`.
    pub degraded: Vec<LabeledSeries<u64>>,
    /// Mean RTP-copy RTT, milliseconds (0 until a window yields samples).
    pub estimated_rtt_ms: f64,
    /// Per-family cardinality-cap evictions.
    pub series_evicted: Vec<(&'static str, u64)>,
}

impl QoeSnapshot {
    /// Sum of cap evictions across every family.
    pub fn series_evicted_total(&self) -> u64 {
        self.series_evicted.iter().map(|(_, v)| v).sum()
    }

    /// Append the QoE families in Prometheus exposition format.
    ///
    /// Labeled families render only when they carry at least one series;
    /// `zoom_qoe_estimated_rtt_ms` and the per-family
    /// `zoom_qoe_series_evicted_total` counters render unconditionally so
    /// scrapers always see the cap pressure and the RTT gauge.
    pub(crate) fn render_prom(&self, out: &mut String) {
        use std::fmt::Write as _;
        fn float_family(
            out: &mut String,
            name: &str,
            help: &str,
            label_names: &[&str],
            series: &[LabeledSeries<f64>],
        ) {
            if series.is_empty() {
                return;
            }
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (values, v) in series {
                let _ = writeln!(out, "{name}{} {v}", prom_labels(label_names, values));
            }
        }
        float_family(
            out,
            "zoom_qoe_bitrate_bps",
            "Media bitrate over the last closed window.",
            &["meeting", "media", "family"],
            &self.bitrate_bps,
        );
        float_family(
            out,
            "zoom_qoe_fps",
            "Frame rate over the last closed window.",
            &["meeting", "media", "family"],
            &self.fps,
        );
        float_family(
            out,
            "zoom_qoe_jitter_ms",
            "RFC 3550 interarrival jitter at the last closed window.",
            &["meeting", "media", "family"],
            &self.jitter_ms,
        );
        if !self.frame_size_bytes.is_empty() {
            let _ = writeln!(
                out,
                "# HELP zoom_qoe_frame_size_bytes Per-frame media payload size distribution."
            );
            let _ = writeln!(out, "# TYPE zoom_qoe_frame_size_bytes histogram");
            for (values, h) in &self.frame_size_bytes {
                let labels = prom_labels(&["media", "family"], values);
                prom_histogram(
                    out,
                    "zoom_qoe_frame_size_bytes",
                    &labels[1..labels.len() - 1],
                    h,
                );
            }
        }
        if !self.retransmissions.is_empty() {
            let _ = writeln!(
                out,
                "# HELP zoom_qoe_retransmissions_total Duplicate RTP sequence numbers observed."
            );
            let _ = writeln!(out, "# TYPE zoom_qoe_retransmissions_total counter");
            for (values, v) in &self.retransmissions {
                let _ = writeln!(
                    out,
                    "zoom_qoe_retransmissions_total{} {v}",
                    prom_labels(&["meeting", "media", "family"], values)
                );
            }
        }
        if !self.degraded.is_empty() {
            let _ = writeln!(
                out,
                "# HELP zoom_qoe_degraded Active QoE degradation verdicts (1 = degraded)."
            );
            let _ = writeln!(out, "# TYPE zoom_qoe_degraded gauge");
            for (values, v) in &self.degraded {
                let _ = writeln!(
                    out,
                    "zoom_qoe_degraded{} {v}",
                    prom_labels(&["meeting", "kind"], values)
                );
            }
        }
        let _ = writeln!(
            out,
            "# HELP zoom_qoe_estimated_rtt_ms Mean RTP-copy RTT over the last closed window."
        );
        let _ = writeln!(out, "# TYPE zoom_qoe_estimated_rtt_ms gauge");
        let _ = writeln!(out, "zoom_qoe_estimated_rtt_ms {}", self.estimated_rtt_ms);
        let _ = writeln!(
            out,
            "# HELP zoom_qoe_series_evicted_total Labeled series dropped at the cardinality cap."
        );
        let _ = writeln!(out, "# TYPE zoom_qoe_series_evicted_total counter");
        for (fam, v) in &self.series_evicted {
            let _ = writeln!(out, "zoom_qoe_series_evicted_total{{family=\"{fam}\"}} {v}");
        }
    }

    /// Serialize as one JSON object (the snapshot's `"qoe"` section).
    pub fn to_json(&self) -> String {
        fn arr(items: impl IntoIterator<Item = String>) -> String {
            let mut buf = String::from("[");
            for (i, item) in items.into_iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                buf.push_str(&item);
            }
            buf.push(']');
            buf
        }
        fn labels(names: &[&str], values: &[String]) -> String {
            let mut o = JsonObj::new();
            for (n, v) in names.iter().zip(values) {
                o.str(n, v);
            }
            o.finish()
        }
        let floats = |names: &'static [&'static str], s: &[LabeledSeries<f64>]| {
            arr(s.iter().map(|(lv, v)| {
                let mut o = JsonObj::new();
                o.raw("labels", &labels(names, lv)).f64("value", *v);
                o.finish()
            }))
        };
        let counts = |names: &'static [&'static str], s: &[LabeledSeries<u64>]| {
            arr(s.iter().map(|(lv, v)| {
                let mut o = JsonObj::new();
                o.raw("labels", &labels(names, lv)).u64("value", *v);
                o.finish()
            }))
        };
        let mut evicted = JsonObj::new();
        for (fam, n) in &self.series_evicted {
            evicted.u64(fam, *n);
        }
        let mut o = JsonObj::new();
        o.raw(
            "bitrate_bps",
            &floats(&["meeting", "media", "family"], &self.bitrate_bps),
        )
            .raw("fps", &floats(&["meeting", "media", "family"], &self.fps))
            .raw(
                "jitter_ms",
                &floats(&["meeting", "media", "family"], &self.jitter_ms),
            )
            .raw(
                "frame_size_bytes",
                &arr(self.frame_size_bytes.iter().map(|(lv, h)| {
                    let mut o = JsonObj::new();
                    o.raw("labels", &labels(&["media", "family"], lv))
                        .raw("histogram", &hist_json(h));
                    o.finish()
                })),
            )
            .raw(
                "retransmissions",
                &counts(&["meeting", "media", "family"], &self.retransmissions),
            )
            .raw("degraded", &counts(&["meeting", "kind"], &self.degraded))
            .f64("estimated_rtt_ms", self.estimated_rtt_ms)
            .raw("series_evicted", &evicted.finish());
        o.finish()
    }
}

/// Histogram snapshot as a JSON object, with interpolated quantile
/// summaries (see [`HistogramSnapshot::quantile`] for the bias).
fn hist_json(h: &HistogramSnapshot) -> String {
    fn arr(vals: &[u64]) -> String {
        format!(
            "[{}]",
            vals.iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
    let mut o = JsonObj::new();
    o.raw("bounds", &arr(h.bounds))
        .raw("buckets", &arr(&h.buckets))
        .u64("sum", h.sum)
        .u64("count", h.count)
        .f64("p50", h.quantile(0.5))
        .f64("p95", h.quantile(0.95))
        .f64("p99", h.quantile(0.99));
    o.finish()
}

/// Render one `{a="x",b="y"}` label block (no braces when empty is not a
/// case here — QoE families always carry labels). Values are escaped per
/// the Prometheus exposition rules.
fn prom_labels(names: &[&str], values: &[String]) -> String {
    let mut out = String::from("{");
    for (i, (n, v)) in names.iter().zip(values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(n);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Render one histogram in exposition format. `labels` is a
/// pre-rendered `name="value"` list *without* braces (empty for an
/// unlabeled histogram); `le` is appended to it on bucket lines.
fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    use std::fmt::Write as _;
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, bound) in h.bounds.iter().enumerate() {
        cumulative += h.buckets[i];
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
}

/// The pipeline-wide metrics registry, shared by the analysis sink, the
/// capture threads and the scrape endpoint through one `Arc`.
///
/// All fields are public so instrumentation sites pay exactly one atomic
/// RMW with no accessor indirection; readers should go through
/// [`PipelineMetrics::snapshot`].
#[derive(Debug)]
pub struct PipelineMetrics {
    /// Records offered to the sink (accepted or dropped).
    pub packets_in: Counter,
    /// Captured bytes across offered records.
    pub bytes_in: Counter,
    /// Records that dissected and classified as Zoom traffic.
    pub packets_classified: Counter,
    /// Records that dissected but did not classify as Zoom.
    pub packets_not_zoom: Counter,
    /// Subset of `packets_not_zoom`: UDP to/from the Zoom media port
    /// (8801) whose Zoom Media Encapsulation failed to parse.
    pub malformed_zme: Counter,
    /// Subset of `packets_classified`: packets classified under the
    /// WebRTC family (DTLS, SRTP, SRTCP).
    pub classified_webrtc: Counter,
    /// Subset of `packets_not_zoom`: packets on a session-gated WebRTC
    /// flow whose DTLS-SRTP framing failed to parse. The WebRTC-family
    /// analogue of `malformed_zme` — a broken SRTP packet counts against
    /// its own family, never against Zoom's drop stage.
    pub malformed_srtp: Counter,
    /// Captured-size distribution of offered records.
    pub packet_size: Histogram,

    /// Dissect drops: capture link type not decoded.
    pub drop_unsupported_link: Counter,
    /// Dissect drops: Ethernet frame that is not IPv4/IPv6.
    pub drop_non_ip: Counter,
    /// Dissect drops: IP protocol other than UDP/TCP.
    pub drop_non_transport: Counter,
    /// Dissect drops: headers ran past the captured bytes.
    pub drop_truncated: Counter,
    /// Dissect drops: structurally invalid header.
    pub drop_malformed: Counter,

    /// Records the pcap reader dropped at a torn file tail (gauge: set
    /// from [`zoom_wire::pcap::Reader::truncated_records`] by the ingest
    /// loop).
    pub pcap_truncated_records: Gauge,
    /// Complete records the pcap reader delivered.
    pub pcap_records_read: Gauge,
    /// Captured bytes the pcap reader delivered.
    pub pcap_bytes_read: Gauge,

    /// Tumbling windows closed by the streaming engine.
    pub windows_closed: Counter,
    /// Explicit checkpoints taken.
    pub checkpoints: Counter,
    /// Flows evicted by the idle timeout.
    pub evicted_flows: Counter,
    /// Streams evicted by the idle timeout.
    pub evicted_streams: Counter,
    /// Entries (flows + streams + STUN registrations + RTT candidates)
    /// currently tracked.
    pub tracked_entries: Gauge,
    /// High-water mark of `tracked_entries`.
    pub peak_tracked_entries: Gauge,

    /// Sampled latency of [`crate::sink::PacketSink::push`] (1-in-N
    /// clock samples; always on, unlike the verbose `obs-trace` tier).
    pub stage_push_nanos: Histogram,
    /// Latency of window closes (delta pass, eviction, report) and of
    /// the drain's end-of-trace report.
    pub stage_merge_nanos: Histogram,
    /// Latency of explicit checkpoints.
    pub stage_checkpoint_nanos: Histogram,

    /// Live QoE series, labeled per meeting and media type.
    pub qoe: QoeMetrics,

    /// Per-source capture-side accounting, one entry per registered
    /// packet source (see [`PipelineMetrics::register_source`]). Empty
    /// unless a multi-source capture front-end feeds this sink.
    sources: Mutex<Vec<Arc<SourceMetrics>>>,

    /// Per-worker accounting on a distributed merge node, one entry per
    /// registered fragment worker (see
    /// [`PipelineMetrics::register_worker`]). Empty outside `merge`.
    workers: Mutex<Vec<Arc<WorkerMetrics>>>,

    /// The structured-tracing collector (disabled unless the CLI's
    /// `--trace` / `--self-profile` flags enable it). Shared here so
    /// every stage that already holds the metrics `Arc` can record
    /// spans without extra plumbing.
    pub trace: Arc<trace::TraceCollector>,

    /// Registry creation time, the epoch of `zoom_uptime_seconds`.
    started: Instant,
}

/// One thread's not-yet-published share of the per-record counters.
///
/// The registry's counters are shared atomics; bumping five or six of
/// them for every record costs more than the counting is worth. A sink
/// thread counts into one of these instead — plain adds —
/// and [`flush`](IngestTally::flush)es the sums into the registry at
/// batch boundaries, every 64 records on per-record paths, and before
/// anything reads the registry through the sink. A scrape endpoint
/// holding the registry `Arc` therefore lags a live sink by at most one
/// batch.
///
/// Interior mutability (`Cell`) lets `&self` readers such as
/// [`crate::sink::PacketSink::metrics`] publish before they snapshot.
#[derive(Debug, Default)]
pub(crate) struct IngestTally {
    packets_in: Cell<u64>,
    bytes_in: Cell<u64>,
    size_buckets: [Cell<u64>; PACKET_SIZE_BOUNDS.len() + 1],
    pub(crate) classified: Cell<u64>,
    pub(crate) classified_webrtc: Cell<u64>,
    pub(crate) not_zoom: Cell<u64>,
    pub(crate) malformed_zme: Cell<u64>,
    pub(crate) malformed_srtp: Cell<u64>,
}

/// Add one to a tally cell.
#[inline]
pub(crate) fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

impl IngestTally {
    /// Count one offered record — [`PipelineMetrics::record_in`], deferred.
    #[inline]
    pub(crate) fn record_in(&self, bytes: usize) {
        bump(&self.packets_in);
        self.bytes_in.set(self.bytes_in.get() + bytes as u64);
        bump(&self.size_buckets[bucket_of(PACKET_SIZE_BOUNDS, bytes as u64)]);
    }

    /// Count a whole batch of offered records: what
    /// [`record_in`](Self::record_in) per record comes to, with the record
    /// count taken from the batch and the bytes summed in a register, so a
    /// record costs one bucket bump.
    pub(crate) fn record_batch_in(&self, batch: &RecordBatch) {
        let mut bytes = 0;
        for len in batch.wire_lens() {
            bytes += len as u64;
            bump(&self.size_buckets[bucket_of(PACKET_SIZE_BOUNDS, len as u64)]);
        }
        self.packets_in
            .set(self.packets_in.get() + batch.len() as u64);
        self.bytes_in.set(self.bytes_in.get() + bytes);
    }

    /// Publish everything tallied so far into `m` and reset to zero.
    pub(crate) fn flush(&self, m: &PipelineMetrics) {
        let packets = self.packets_in.take();
        if packets > 0 {
            m.packets_in.add(packets);
            let bytes = self.bytes_in.take();
            m.bytes_in.add(bytes);
            // Every offered record's size is both a byte count and a
            // histogram observation, so the sums coincide.
            m.packet_size.observe_tallied(&self.size_buckets, bytes);
        }
        for (cell, counter) in [
            (&self.classified, &m.packets_classified),
            (&self.classified_webrtc, &m.classified_webrtc),
            (&self.not_zoom, &m.packets_not_zoom),
            (&self.malformed_zme, &m.malformed_zme),
            (&self.malformed_srtp, &m.malformed_srtp),
        ] {
            let n = cell.take();
            if n > 0 {
                counter.add(n);
            }
        }
    }
}

/// Capture-side accounting for one packet source feeding the pipeline.
///
/// Registered on a [`PipelineMetrics`] via
/// [`register_source`](PipelineMetrics::register_source); the capture
/// thread keeps the returned `Arc` and bumps the counters lock-free. The
/// drop counter participates in the conservation invariant: packets a
/// source captured either reach the sink (`packets_in`) or are dropped at
/// a full hand-off ring (`ring_full_drops`), never silently lost.
#[derive(Debug)]
pub struct SourceMetrics {
    label: String,
    lane: LaneKind,
    /// Records this source's capture thread pulled off the source.
    pub packets: Counter,
    /// Captured bytes across those records.
    pub bytes: Counter,
    /// Batches handed to (or dropped at) the fan-in ring.
    pub batches: Counter,
    /// Records dropped because the hand-off ring was full (lossy
    /// overflow policy only; the lossless policy blocks instead).
    pub ring_full_drops: Counter,
    /// Batches currently queued in this source's hand-off ring (sampled
    /// by the fan-in consumer each time it visits the lane).
    pub ring_occupancy: Gauge,
    /// High-water mark of `ring_occupancy` — the worst backlog the lane
    /// ever accumulated (updated with [`Gauge::set_max`]).
    pub ring_occupancy_hwm: Gauge,
    /// Capture timestamp (nanoseconds) of the last record the fan-in
    /// delivered from this source. The spread between lanes is the
    /// per-source lag: a lane whose timestamp trails the furthest-ahead
    /// lane is the one holding the deterministic `(ts, lane)` merge back.
    pub delivered_ts_nanos: Gauge,
}

impl SourceMetrics {
    /// The source's display label (e.g. `pcap:trace.pcap` or `sim:p2p`).
    pub fn label(&self) -> &str {
        &self.label
    }
}

/// How a source's batches reach the fan-in consumer — decided once, when
/// the fan-in starts, and rendered beside the source's series so that
/// ring gauges reading 0 can be told apart: no ring, or an idle one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneKind {
    /// Read on the consumer's own thread: no capture thread, no ring; the
    /// `ring_*` gauges and `ring_full_drops` stay 0 by construction.
    Inline,
    /// One capture thread behind a bounded hand-off ring.
    Threaded,
}

impl LaneKind {
    /// The rendered form: `inline` or `threaded`.
    pub fn as_str(self) -> &'static str {
        match self {
            LaneKind::Inline => "inline",
            LaneKind::Threaded => "threaded",
        }
    }
}

/// Merge-node accounting for one fragment worker feeding the
/// distributed tier (`docs/DISTRIBUTED.md`).
///
/// Registered on a [`PipelineMetrics`] via
/// [`register_worker`](PipelineMetrics::register_worker). The
/// `packets`/`bytes`/`batches`/`ring_full_drops`/`truncated` counters
/// mirror the worker's **self-reported** capture-side totals (shipped in
/// Accounting/Bye frames), while `records_received` counts what the
/// merge node actually decoded off the wire — the two sides of the
/// worker→merge conservation invariant
/// `Σ worker packets == merge packets_in` (modulo accounted drops).
/// `bytes_received` beside `bytes` is what shipping analysis prefixes
/// saves: the record bytes that crossed the wire against the bytes the
/// worker captured.
#[derive(Debug)]
pub struct WorkerMetrics {
    label: String,
    /// Records the worker reported capturing.
    pub packets: Gauge,
    /// Captured bytes the worker reported.
    pub bytes: Gauge,
    /// Batches the worker's fan-in reported handling.
    pub batches: Gauge,
    /// Records the worker dropped at its own full capture rings.
    pub ring_full_drops: Gauge,
    /// Records the worker's sources dropped (torn pcap tails).
    pub truncated: Gauge,
    /// Records the merge node decoded out of this worker's stream.
    pub records_received: Counter,
    /// Record bytes the merge node decoded out of this worker's stream.
    pub bytes_received: Gauge,
    /// 1 once the worker's stream ended with a proper Bye frame.
    pub complete: Gauge,
    /// Link state of the worker's stream on the merge node: one of the
    /// [`link_state`] constants (`PENDING` → `STREAMING` → `DONE`, or
    /// `ERROR` on a cut/malformed stream).
    pub link_state: Gauge,
}

/// Values of [`WorkerMetrics::link_state`] /
/// [`WorkerSnapshot::link_state`].
pub mod link_state {
    /// Registered, no frames decoded yet.
    pub const PENDING: u64 = 0;
    /// Frames are being decoded from the worker's stream.
    pub const STREAMING: u64 = 1;
    /// The stream ended with a proper Bye frame.
    pub const DONE: u64 = 2;
    /// The stream was cut off or malformed.
    pub const ERROR: u64 = 3;

    /// Human-readable name for a link-state value.
    pub fn name(v: u64) -> &'static str {
        match v {
            PENDING => "pending",
            STREAMING => "streaming",
            DONE => "done",
            _ => "error",
        }
    }
}

impl WorkerMetrics {
    /// The worker's display label from its Hello frame.
    pub fn label(&self) -> &str {
        &self.label
    }
}

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics::new()
    }
}

impl PipelineMetrics {
    /// A zeroed registry.
    pub fn new() -> PipelineMetrics {
        PipelineMetrics {
            packets_in: Counter::new(),
            bytes_in: Counter::new(),
            packets_classified: Counter::new(),
            packets_not_zoom: Counter::new(),
            malformed_zme: Counter::new(),
            classified_webrtc: Counter::new(),
            malformed_srtp: Counter::new(),
            packet_size: Histogram::new(PACKET_SIZE_BOUNDS),
            drop_unsupported_link: Counter::new(),
            drop_non_ip: Counter::new(),
            drop_non_transport: Counter::new(),
            drop_truncated: Counter::new(),
            drop_malformed: Counter::new(),
            pcap_truncated_records: Gauge::new(),
            pcap_records_read: Gauge::new(),
            pcap_bytes_read: Gauge::new(),
            windows_closed: Counter::new(),
            checkpoints: Counter::new(),
            evicted_flows: Counter::new(),
            evicted_streams: Counter::new(),
            tracked_entries: Gauge::new(),
            peak_tracked_entries: Gauge::new(),
            stage_push_nanos: Histogram::new(STAGE_LATENCY_BOUNDS),
            stage_merge_nanos: Histogram::new(STAGE_LATENCY_BOUNDS),
            stage_checkpoint_nanos: Histogram::new(STAGE_LATENCY_BOUNDS),
            qoe: QoeMetrics::new(QOE_SERIES_CAP),
            sources: Mutex::new(Vec::new()),
            workers: Mutex::new(Vec::new()),
            trace: Arc::new(trace::TraceCollector::new()),
            started: Instant::now(),
        }
    }

    /// Seconds since this registry was created.
    pub fn uptime_seconds(&self) -> u64 {
        self.started.elapsed().as_secs()
    }

    /// Registers a fragment worker on a merge node and returns its
    /// zeroed counter block (off the hot path, like
    /// [`register_source`](Self::register_source)). Workers appear in
    /// [`MetricsSnapshot::workers`] in registration order; once any
    /// worker is registered the conservation invariant additionally
    /// checks the worker→merge ledger (see
    /// [`MetricsSnapshot::conservation_holds`]).
    pub fn register_worker(&self, label: &str) -> Arc<WorkerMetrics> {
        let m = Arc::new(WorkerMetrics {
            label: label.to_string(),
            packets: Gauge::new(),
            bytes: Gauge::new(),
            batches: Gauge::new(),
            ring_full_drops: Gauge::new(),
            truncated: Gauge::new(),
            records_received: Counter::new(),
            bytes_received: Gauge::new(),
            complete: Gauge::new(),
            link_state: Gauge::new(),
        });
        self.workers.lock().unwrap().push(Arc::clone(&m));
        m
    }

    /// Registers a packet source and returns its zeroed counter block.
    ///
    /// Called once per source at capture start (off the hot path, hence
    /// the mutex); the capture thread then updates the returned counters
    /// lock-free. Sources appear in [`MetricsSnapshot::sources`] in
    /// registration order and, once any source is registered, the
    /// conservation invariant additionally checks that every captured
    /// record either reached the sink or was counted as a ring drop.
    pub fn register_source(&self, label: &str, lane: LaneKind) -> Arc<SourceMetrics> {
        let m = Arc::new(SourceMetrics {
            label: label.to_string(),
            lane,
            packets: Counter::new(),
            bytes: Counter::new(),
            batches: Counter::new(),
            ring_full_drops: Counter::new(),
            ring_occupancy: Gauge::new(),
            ring_occupancy_hwm: Gauge::new(),
            delivered_ts_nanos: Gauge::new(),
        });
        self.sources.lock().unwrap().push(Arc::clone(&m));
        m
    }

    /// Count one dissect rejection at its [`DropStage`].
    #[inline]
    pub fn record_drop(&self, stage: DropStage) {
        match stage {
            DropStage::UnsupportedLink => self.drop_unsupported_link.inc(),
            DropStage::NonIp => self.drop_non_ip.inc(),
            DropStage::NonTransport => self.drop_non_transport.inc(),
            DropStage::Truncated => self.drop_truncated.inc(),
            DropStage::Malformed => self.drop_malformed.inc(),
        }
    }

    /// Count one offered record (size histogram included).
    #[inline]
    pub fn record_in(&self, bytes: usize) {
        self.packets_in.inc();
        self.bytes_in.add(bytes as u64);
        self.packet_size.observe(bytes as u64);
    }

    /// Count a whole batch of offered records, published once: what
    /// [`record_in`](Self::record_in) per record comes to for a fraction
    /// of the shared-counter traffic. For a consumer that keeps no sink
    /// (the capture filter); the sinks count through their own tally.
    pub fn record_batch_in(&self, batch: &RecordBatch) {
        let tally = IngestTally::default();
        tally.record_batch_in(batch);
        tally.flush(self);
    }

    /// Sum of all dissect-stage drop counters.
    pub fn drops_total(&self) -> u64 {
        self.drop_unsupported_link.get()
            + self.drop_non_ip.get()
            + self.drop_non_transport.get()
            + self.drop_truncated.get()
            + self.drop_malformed.get()
    }

    /// Plain-data copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            packets_in: self.packets_in.get(),
            bytes_in: self.bytes_in.get(),
            packets_classified: self.packets_classified.get(),
            packets_not_zoom: self.packets_not_zoom.get(),
            malformed_zme: self.malformed_zme.get(),
            classified_webrtc: self.classified_webrtc.get(),
            malformed_srtp: self.malformed_srtp.get(),
            packet_size: self.packet_size.snapshot(),
            drop_unsupported_link: self.drop_unsupported_link.get(),
            drop_non_ip: self.drop_non_ip.get(),
            drop_non_transport: self.drop_non_transport.get(),
            drop_truncated: self.drop_truncated.get(),
            drop_malformed: self.drop_malformed.get(),
            pcap_truncated_records: self.pcap_truncated_records.get(),
            pcap_records_read: self.pcap_records_read.get(),
            pcap_bytes_read: self.pcap_bytes_read.get(),
            windows_closed: self.windows_closed.get(),
            checkpoints: self.checkpoints.get(),
            evicted_flows: self.evicted_flows.get(),
            evicted_streams: self.evicted_streams.get(),
            tracked_entries: self.tracked_entries.get(),
            peak_tracked_entries: self.peak_tracked_entries.get(),
            stage_push_nanos: self.stage_push_nanos.snapshot(),
            stage_merge_nanos: self.stage_merge_nanos.snapshot(),
            stage_checkpoint_nanos: self.stage_checkpoint_nanos.snapshot(),
            qoe: self.qoe.snapshot(),
            capture: None,
            sources: self
                .sources
                .lock()
                .unwrap()
                .iter()
                .map(|s| SourceSnapshot {
                    label: s.label.clone(),
                    lane: s.lane,
                    packets: s.packets.get(),
                    bytes: s.bytes.get(),
                    batches: s.batches.get(),
                    ring_full_drops: s.ring_full_drops.get(),
                    ring_occupancy: s.ring_occupancy.get(),
                    ring_occupancy_hwm: s.ring_occupancy_hwm.get(),
                    delivered_ts_nanos: s.delivered_ts_nanos.get(),
                })
                .collect(),
            workers: self
                .workers
                .lock()
                .unwrap()
                .iter()
                .map(|w| WorkerSnapshot {
                    label: w.label.clone(),
                    packets: w.packets.get(),
                    bytes: w.bytes.get(),
                    batches: w.batches.get(),
                    ring_full_drops: w.ring_full_drops.get(),
                    truncated: w.truncated.get(),
                    records_received: w.records_received.get(),
                    bytes_received: w.bytes_received.get(),
                    complete: w.complete.get() != 0,
                    link_state: w.link_state.get(),
                })
                .collect(),
            uptime_seconds: self.uptime_seconds(),
            trace_events: self.trace.event_counts().0,
            trace_events_dropped: self.trace.event_counts().1,
        }
    }

    /// The `/debug/pipeline` introspection payload: one JSON object of
    /// live operational state — ring occupancy and lag per source,
    /// table sizes and eviction pressure,
    /// worker link states, and the trace collector's own health. This is
    /// the "where is it stuck right now" view, complementing the
    /// cumulative `/metrics` families.
    pub fn debug_json(&self) -> String {
        let s = self.snapshot();
        let (version, git_sha, features) = build_info();
        let mut build = JsonObj::new();
        build
            .str("version", version)
            .str("git_sha", git_sha)
            .str("features", features);

        let mut sources = String::from("[");
        let max_delivered = s
            .sources
            .iter()
            .map(|src| src.delivered_ts_nanos)
            .max()
            .unwrap_or(0);
        for (i, src) in s.sources.iter().enumerate() {
            if i > 0 {
                sources.push(',');
            }
            let mut o = JsonObj::new();
            o.str("source", &src.label)
                .str("lane", src.lane.as_str())
                .u64("packets", src.packets)
                .u64("ring_full_drops", src.ring_full_drops)
                .u64("ring_occupancy", src.ring_occupancy)
                .u64("ring_occupancy_hwm", src.ring_occupancy_hwm)
                .u64("delivered_ts_nanos", src.delivered_ts_nanos)
                .u64(
                    "lag_nanos",
                    max_delivered.saturating_sub(src.delivered_ts_nanos),
                );
            sources.push_str(&o.finish());
        }
        sources.push(']');

        let mut workers = String::from("[");
        for (i, w) in s.workers.iter().enumerate() {
            if i > 0 {
                workers.push(',');
            }
            let mut o = JsonObj::new();
            o.str("worker", &w.label)
                .str("link_state", link_state::name(w.link_state))
                .u64("packets_reported", w.packets)
                .u64("records_received", w.records_received)
                .u64("bytes_reported", w.bytes)
                .u64("bytes_received", w.bytes_received)
                .u64("ring_full_drops", w.ring_full_drops)
                .bool("complete", w.complete);
            workers.push_str(&o.finish());
        }
        workers.push(']');

        let mut tables = JsonObj::new();
        tables
            .u64("tracked_entries", s.tracked_entries)
            .u64("peak_tracked_entries", s.peak_tracked_entries)
            .u64("evicted_flows", s.evicted_flows)
            .u64("evicted_streams", s.evicted_streams)
            .u64("qoe_series_evicted", s.qoe.series_evicted_total())
            .u64("windows_closed", s.windows_closed);

        let mut trace_obj = JsonObj::new();
        trace_obj
            .bool("enabled", self.trace.is_enabled())
            .str("node", self.trace.node())
            .u64("sample_every", self.trace.sample_period())
            .u64("events", s.trace_events)
            .u64("events_dropped", s.trace_events_dropped);

        let mut o = JsonObj::new();
        o.str("type", "debug_pipeline")
            .raw("build", &build.finish())
            .u64("uptime_seconds", s.uptime_seconds)
            .u64("packets_in", s.packets_in)
            .bool("conservation_holds", s.conservation_holds())
            .raw("sources", &sources)
            .raw("workers", &workers)
            .raw("tables", &tables.finish())
            .raw("trace", &trace_obj.finish());
        o.finish()
    }
}

/// Build metadata rendered as `zoom_build_info{version,git_sha,features}`
/// and the snapshot's `"build"` JSON section, so scrapes can tell
/// deployments apart. The git SHA is baked in at compile time via the
/// `ZOOM_GIT_SHA` environment variable (`"unknown"` when unset); the
/// feature list covers the cargo features that change the binary's
/// surface.
pub fn build_info() -> (&'static str, &'static str, &'static str) {
    let features = match (cfg!(feature = "obs-http"), cfg!(feature = "obs-trace")) {
        (true, true) => "obs-http,obs-trace",
        (true, false) => "obs-http",
        (false, true) => "obs-trace",
        (false, false) => "",
    };
    (
        env!("CARGO_PKG_VERSION"),
        option_env!("ZOOM_GIT_SHA").unwrap_or("unknown"),
        features,
    )
}

// ------------------------------------------------------------ snapshot --

/// Capture-pipeline verdict counters (the software Tofino of Fig. 13),
/// folded into a snapshot by the CLI when the capture stage runs in the
/// same process. Plain data: `zoom-analysis` does not depend on
/// `zoom-capture`, so the CLI maps `StageCounters` field by field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaptureMetricsSnapshot {
    /// Packets offered to the capture filter.
    pub total: u64,
    /// Dropped: campus endpoint in an excluded subnet.
    pub excluded: u64,
    /// Passed: either address matched the Zoom server list.
    pub zoom_ip_matched: u64,
    /// Passed: STUN exchange with a Zoom server (registers the endpoint).
    pub stun_registered: u64,
    /// Passed: P2P media recognized via the STUN registers.
    pub p2p_matched: u64,
    /// Passed: non-Zoom STUN exchange (registers a WebRTC endpoint).
    pub rtc_stun_registered: u64,
    /// Passed: WebRTC media recognized via the WebRTC STUN registers.
    pub rtc_p2p_matched: u64,
    /// Dropped: neither a Zoom server nor a registered P2P endpoint.
    pub dropped: u64,
    /// Dropped: headers the data plane needs did not parse.
    pub unparseable: u64,
    /// Packets that reached the capture output.
    pub passed: u64,
    /// Bytes across passing packets.
    pub passed_bytes: u64,
    /// Bytes across all offered packets.
    pub total_bytes: u64,
}

/// A point-in-time, plain-data copy of [`PipelineMetrics`], renderable
/// as JSON or Prometheus text.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Records offered to the sink.
    pub packets_in: u64,
    /// Captured bytes across offered records.
    pub bytes_in: u64,
    /// Records classified as Zoom traffic.
    pub packets_classified: u64,
    /// Records dissected but not classified as Zoom.
    pub packets_not_zoom: u64,
    /// Port-8801 UDP records whose ZME framing failed to parse.
    pub malformed_zme: u64,
    /// Records classified under the WebRTC family (subset of
    /// `packets_classified`).
    pub classified_webrtc: u64,
    /// Session-gated WebRTC-flow records whose DTLS-SRTP framing failed
    /// to parse (subset of `packets_not_zoom`).
    pub malformed_srtp: u64,
    /// Captured-size distribution.
    pub packet_size: HistogramSnapshot,
    /// Dissect drops: unsupported link type.
    pub drop_unsupported_link: u64,
    /// Dissect drops: non-IP ethertype.
    pub drop_non_ip: u64,
    /// Dissect drops: non-UDP/TCP protocol.
    pub drop_non_transport: u64,
    /// Dissect drops: truncated headers.
    pub drop_truncated: u64,
    /// Dissect drops: malformed headers.
    pub drop_malformed: u64,
    /// Records dropped at a torn pcap tail.
    pub pcap_truncated_records: u64,
    /// Complete records the pcap reader delivered.
    pub pcap_records_read: u64,
    /// Captured bytes the pcap reader delivered.
    pub pcap_bytes_read: u64,
    /// Tumbling windows closed.
    pub windows_closed: u64,
    /// Explicit checkpoints taken.
    pub checkpoints: u64,
    /// Flows evicted by the idle timeout.
    pub evicted_flows: u64,
    /// Streams evicted by the idle timeout.
    pub evicted_streams: u64,
    /// Entries currently tracked.
    pub tracked_entries: u64,
    /// High-water mark of tracked entries.
    pub peak_tracked_entries: u64,
    /// Sampled `push` latency distribution.
    pub stage_push_nanos: HistogramSnapshot,
    /// Window-close/drain tick latency distribution.
    pub stage_merge_nanos: HistogramSnapshot,
    /// Explicit-checkpoint latency distribution.
    pub stage_checkpoint_nanos: HistogramSnapshot,
    /// Live QoE series, labeled per meeting and media type.
    pub qoe: QoeSnapshot,
    /// Capture-filter verdict counters, when the capture stage ran in
    /// the same process (`cli filter --metrics`).
    pub capture: Option<CaptureMetricsSnapshot>,
    /// Per-source capture accounting, one entry per registered packet
    /// source (empty for plain single-file ingest).
    pub sources: Vec<SourceSnapshot>,
    /// Per-worker accounting on a distributed merge node, one entry per
    /// registered fragment worker (empty outside `merge`).
    pub workers: Vec<WorkerSnapshot>,
    /// Seconds since the registry was created.
    pub uptime_seconds: u64,
    /// Trace span events recorded by the collector (0 unless tracing).
    pub trace_events: u64,
    /// Trace events dropped at the bounded export queue.
    pub trace_events_dropped: u64,
}

/// Plain-data copy of one fragment worker's merge-side counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    /// The worker's display label from its Hello frame.
    pub label: String,
    /// Records the worker reported capturing.
    pub packets: u64,
    /// Captured bytes the worker reported.
    pub bytes: u64,
    /// Batches the worker's fan-in reported handling.
    pub batches: u64,
    /// Records the worker dropped at its own full capture rings.
    pub ring_full_drops: u64,
    /// Records the worker's sources dropped (torn pcap tails).
    pub truncated: u64,
    /// Records the merge node decoded out of this worker's stream.
    pub records_received: u64,
    /// Record bytes the merge node decoded out of this worker's stream.
    pub bytes_received: u64,
    /// Whether the worker's stream ended with a proper Bye frame.
    pub complete: bool,
    /// Link state of the worker's stream (see [`link_state`]).
    pub link_state: u64,
}

/// Plain-data copy of one source's capture-side counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceSnapshot {
    /// The source's display label (e.g. `pcap:trace.pcap`).
    pub label: String,
    /// Whether the source is read in-line or by a capture thread.
    pub lane: LaneKind,
    /// Records the capture thread pulled off this source.
    pub packets: u64,
    /// Captured bytes across those records.
    pub bytes: u64,
    /// Batches handed to (or dropped at) the fan-in ring.
    pub batches: u64,
    /// Records dropped at a full hand-off ring.
    pub ring_full_drops: u64,
    /// Batches queued in the source's hand-off ring at the last sample.
    pub ring_occupancy: u64,
    /// High-water mark of ring occupancy.
    pub ring_occupancy_hwm: u64,
    /// Capture timestamp of the last record delivered from this source.
    pub delivered_ts_nanos: u64,
}

impl MetricsSnapshot {
    /// Sum of the dissect-stage drop counters.
    pub fn drops_total(&self) -> u64 {
        self.drop_unsupported_link
            + self.drop_non_ip
            + self.drop_non_transport
            + self.drop_truncated
            + self.drop_malformed
    }

    /// Sum of records captured across all registered sources.
    pub fn source_packets_total(&self) -> u64 {
        self.sources.iter().map(|s| s.packets).sum()
    }

    /// Sum of ring-full capture drops across all registered sources.
    pub fn ring_full_drops_total(&self) -> u64 {
        self.sources.iter().map(|s| s.ring_full_drops).sum()
    }

    /// Sum of records all registered fragment workers reported capturing.
    pub fn worker_packets_total(&self) -> u64 {
        self.workers.iter().map(|w| w.packets).sum()
    }

    /// Sum of records the merge node decoded across all worker streams.
    pub fn worker_records_received_total(&self) -> u64 {
        self.workers.iter().map(|w| w.records_received).sum()
    }

    /// The conservation invariant every sink maintains once ingest has
    /// quiesced: every offered record is classified, counted not-Zoom, or
    /// attributed to exactly one drop stage. When capture sources are
    /// registered the invariant extends upstream: every captured record
    /// either reached the sink or was counted as a ring-full drop, so
    /// `Σ source_packets == packets_classified + packets_not_zoom +
    /// Σ dissect drops + Σ ring_full_drops` — capture loss is part of the
    /// ledger, never silent.
    /// When fragment workers feed a merge node the ledger extends one
    /// more hop upstream: every record a worker reported capturing was
    /// either decoded at the merge (`records_received`) or dropped at
    /// the worker's own rings, and everything decoded reached the sink
    /// (modulo merge-side ring drops already covered by the source
    /// half) — `Σ worker packets_in == merge packets_in` when nothing
    /// drops anywhere.
    pub fn conservation_holds(&self) -> bool {
        let sink_ok =
            self.packets_in == self.packets_classified + self.packets_not_zoom + self.drops_total();
        let capture_ok = self.sources.is_empty()
            || self.source_packets_total() == self.packets_in + self.ring_full_drops_total();
        let workers_ok = self.workers.is_empty()
            || (self
                .workers
                .iter()
                .all(|w| w.packets == w.records_received + w.ring_full_drops)
                && self.worker_records_received_total()
                    == self.packets_in + self.ring_full_drops_total());
        sink_ok && capture_ok && workers_ok
    }

    /// Serialize as one NDJSON-friendly line, tagged `"type":"metrics"`.
    pub fn to_json(&self) -> String {
        let mut drops = JsonObj::new();
        drops
            .u64("unsupported_link", self.drop_unsupported_link)
            .u64("non_ip", self.drop_non_ip)
            .u64("non_transport", self.drop_non_transport)
            .u64("truncated", self.drop_truncated)
            .u64("malformed", self.drop_malformed);
        let mut pcap = JsonObj::new();
        pcap.u64("truncated_records", self.pcap_truncated_records)
            .u64("records_read", self.pcap_records_read)
            .u64("bytes_read", self.pcap_bytes_read);
        let mut engine = JsonObj::new();
        engine
            .u64("windows_closed", self.windows_closed)
            .u64("checkpoints", self.checkpoints)
            .u64("evicted_flows", self.evicted_flows)
            .u64("evicted_streams", self.evicted_streams)
            .u64("tracked_entries", self.tracked_entries)
            .u64("peak_tracked_entries", self.peak_tracked_entries);
        let size = hist_json(&self.packet_size);
        let mut stage = JsonObj::new();
        stage
            .raw("push", &hist_json(&self.stage_push_nanos))
            .raw("merge", &hist_json(&self.stage_merge_nanos))
            .raw("checkpoint", &hist_json(&self.stage_checkpoint_nanos));

        let (version, git_sha, features) = build_info();
        let mut build = JsonObj::new();
        build
            .str("version", version)
            .str("git_sha", git_sha)
            .str("features", features);
        let mut trace_obj = JsonObj::new();
        trace_obj
            .u64("events", self.trace_events)
            .u64("events_dropped", self.trace_events_dropped);

        let mut o = JsonObj::new();
        o.str("type", "metrics")
            .raw("build", &build.finish())
            .u64("uptime_seconds", self.uptime_seconds)
            .raw("trace", &trace_obj.finish())
            .u64("packets_in", self.packets_in)
            .u64("bytes_in", self.bytes_in)
            .u64("packets_classified", self.packets_classified)
            .u64("packets_not_zoom", self.packets_not_zoom)
            .u64("malformed_zme", self.malformed_zme)
            .u64("classified_webrtc", self.classified_webrtc)
            .u64("malformed_srtp", self.malformed_srtp)
            .raw("drops", &drops.finish())
            .bool("conservation_holds", self.conservation_holds())
            .raw("pcap", &pcap.finish())
            .raw("packet_size", &size)
            .raw("engine", &engine.finish())
            .raw("stage_latency", &stage.finish())
            .raw("qoe", &self.qoe.to_json());
        if let Some(c) = &self.capture {
            let mut cap = JsonObj::new();
            cap.u64("total", c.total)
                .u64("excluded", c.excluded)
                .u64("zoom_ip_matched", c.zoom_ip_matched)
                .u64("stun_registered", c.stun_registered)
                .u64("p2p_matched", c.p2p_matched)
                .u64("rtc_stun_registered", c.rtc_stun_registered)
                .u64("rtc_p2p_matched", c.rtc_p2p_matched)
                .u64("dropped", c.dropped)
                .u64("unparseable", c.unparseable)
                .u64("passed", c.passed)
                .u64("passed_bytes", c.passed_bytes)
                .u64("total_bytes", c.total_bytes);
            o.raw("capture", &cap.finish());
        }
        if !self.sources.is_empty() {
            let mut buf = String::from("[");
            for (i, s) in self.sources.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut so = JsonObj::new();
                so.str("source", &s.label)
                    .str("lane", s.lane.as_str())
                    .u64("packets", s.packets)
                    .u64("bytes", s.bytes)
                    .u64("batches", s.batches)
                    .u64("ring_full_drops", s.ring_full_drops)
                    .u64("ring_occupancy", s.ring_occupancy)
                    .u64("ring_occupancy_hwm", s.ring_occupancy_hwm)
                    .u64("delivered_ts_nanos", s.delivered_ts_nanos);
                buf.push_str(&so.finish());
            }
            buf.push(']');
            o.raw("sources", &buf);
        }
        if !self.workers.is_empty() {
            let mut buf = String::from("[");
            for (i, w) in self.workers.iter().enumerate() {
                if i > 0 {
                    buf.push(',');
                }
                let mut wo = JsonObj::new();
                wo.str("worker", &w.label)
                    .u64("packets", w.packets)
                    .u64("bytes", w.bytes)
                    .u64("batches", w.batches)
                    .u64("ring_full_drops", w.ring_full_drops)
                    .u64("truncated", w.truncated)
                    .u64("records_received", w.records_received)
                    .u64("bytes_received", w.bytes_received)
                    .bool("complete", w.complete)
                    .str("link_state", link_state::name(w.link_state));
                buf.push_str(&wo.finish());
            }
            buf.push(']');
            o.raw("workers", &buf);
        }
        o.finish()
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` per family, `zoom_`-prefixed names, and
    /// cumulative `_bucket{le=...}` histogram series.
    pub fn to_prom(&self) -> String {
        use std::fmt::Write as _;
        fn family(out: &mut String, name: &str, kind: &str, help: &str, v: u64) {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} {kind}");
            let _ = writeln!(out, "{name} {v}");
        }
        let mut out2 = String::with_capacity(4096);
        {
            let (version, git_sha, features) = build_info();
            let _ = writeln!(
                out2,
                "# HELP zoom_build_info Build metadata; the value is always 1."
            );
            let _ = writeln!(out2, "# TYPE zoom_build_info gauge");
            let _ = writeln!(
                out2,
                "zoom_build_info{} 1",
                prom_labels(
                    &["version", "git_sha", "features"],
                    &[
                        version.to_string(),
                        git_sha.to_string(),
                        features.to_string()
                    ]
                )
            );
            family(
                &mut out2,
                "zoom_uptime_seconds",
                "gauge",
                "Seconds since the metrics registry was created.",
                self.uptime_seconds,
            );
        }
        for (name, help, v) in [
            (
                "zoom_packets_in_total",
                "Records offered to the analysis sink.",
                self.packets_in,
            ),
            (
                "zoom_bytes_in_total",
                "Captured bytes across offered records.",
                self.bytes_in,
            ),
            (
                "zoom_packets_classified_total",
                "Records classified as Zoom traffic.",
                self.packets_classified,
            ),
            (
                "zoom_packets_not_zoom_total",
                "Records dissected but not classified as Zoom.",
                self.packets_not_zoom,
            ),
            (
                "zoom_malformed_zme_total",
                "Port-8801 UDP records whose Zoom Media Encapsulation failed to parse.",
                self.malformed_zme,
            ),
            (
                "zoom_classified_webrtc_total",
                "Records classified under the WebRTC family (DTLS, SRTP, SRTCP).",
                self.classified_webrtc,
            ),
            (
                "zoom_malformed_srtp_total",
                "WebRTC-flow records whose DTLS-SRTP framing failed to parse.",
                self.malformed_srtp,
            ),
        ] {
            family(&mut out2, name, "counter", help, v);
        }
        {
            let _ = writeln!(
                out2,
                "# HELP zoom_dissect_drops_total Records rejected by the dissector, by stage."
            );
            let _ = writeln!(out2, "# TYPE zoom_dissect_drops_total counter");
            for (stage, v) in [
                ("unsupported_link", self.drop_unsupported_link),
                ("non_ip", self.drop_non_ip),
                ("non_transport", self.drop_non_transport),
                ("truncated", self.drop_truncated),
                ("malformed", self.drop_malformed),
            ] {
                let _ = writeln!(out2, "zoom_dissect_drops_total{{stage=\"{stage}\"}} {v}");
            }

            for (name, help, v) in [
                (
                    "zoom_pcap_truncated_records",
                    "Records dropped at a torn pcap tail.",
                    self.pcap_truncated_records,
                ),
                (
                    "zoom_pcap_records_read",
                    "Complete records delivered by the pcap reader.",
                    self.pcap_records_read,
                ),
                (
                    "zoom_pcap_bytes_read",
                    "Captured bytes delivered by the pcap reader.",
                    self.pcap_bytes_read,
                ),
            ] {
                family(&mut out2, name, "gauge", help, v);
            }

            for (name, help, v) in [
                (
                    "zoom_windows_closed_total",
                    "Tumbling windows closed by the streaming engine.",
                    self.windows_closed,
                ),
                (
                    "zoom_checkpoints_total",
                    "Explicit checkpoints taken.",
                    self.checkpoints,
                ),
                (
                    "zoom_evicted_flows_total",
                    "Flows evicted by the idle timeout.",
                    self.evicted_flows,
                ),
                (
                    "zoom_evicted_streams_total",
                    "Streams evicted by the idle timeout.",
                    self.evicted_streams,
                ),
            ] {
                family(&mut out2, name, "counter", help, v);
            }
            for (name, help, v) in [
                (
                    "zoom_tracked_entries",
                    "Entries currently tracked across shards.",
                    self.tracked_entries,
                ),
                (
                    "zoom_peak_tracked_entries",
                    "High-water mark of tracked entries.",
                    self.peak_tracked_entries,
                ),
            ] {
                family(&mut out2, name, "gauge", help, v);
            }
            for (name, help, v) in [
                (
                    "zoom_trace_events_total",
                    "Trace span events recorded by the collector.",
                    self.trace_events,
                ),
                (
                    "zoom_trace_events_dropped_total",
                    "Trace events dropped at the bounded export queue.",
                    self.trace_events_dropped,
                ),
            ] {
                family(&mut out2, name, "counter", help, v);
            }

            let _ = writeln!(
                out2,
                "# HELP zoom_packet_size_bytes Captured-size distribution of offered records."
            );
            let _ = writeln!(out2, "# TYPE zoom_packet_size_bytes histogram");
            prom_histogram(&mut out2, "zoom_packet_size_bytes", "", &self.packet_size);

            let _ = writeln!(
                out2,
                "# HELP zoom_stage_latency_nanos Sampled wall-clock cost of pipeline stages."
            );
            let _ = writeln!(out2, "# TYPE zoom_stage_latency_nanos histogram");
            for (stage, h) in [
                ("push", &self.stage_push_nanos),
                ("merge", &self.stage_merge_nanos),
                ("checkpoint", &self.stage_checkpoint_nanos),
            ] {
                prom_histogram(
                    &mut out2,
                    "zoom_stage_latency_nanos",
                    &format!("stage=\"{stage}\""),
                    h,
                );
            }

            self.qoe.render_prom(&mut out2);

            if let Some(c) = &self.capture {
                let _ = writeln!(
                    out2,
                    "# HELP zoom_capture_verdicts_total Capture-filter verdicts, by stage."
                );
                let _ = writeln!(out2, "# TYPE zoom_capture_verdicts_total counter");
                for (stage, v) in [
                    ("excluded", c.excluded),
                    ("zoom_ip_matched", c.zoom_ip_matched),
                    ("stun_registered", c.stun_registered),
                    ("p2p_matched", c.p2p_matched),
                    ("rtc_stun_registered", c.rtc_stun_registered),
                    ("rtc_p2p_matched", c.rtc_p2p_matched),
                    ("dropped", c.dropped),
                    ("unparseable", c.unparseable),
                ] {
                    let _ = writeln!(out2, "zoom_capture_verdicts_total{{stage=\"{stage}\"}} {v}");
                }
                for (name, help, v) in [
                    (
                        "zoom_capture_packets_total",
                        "Packets offered to the capture filter.",
                        c.total,
                    ),
                    (
                        "zoom_capture_passed_total",
                        "Packets that reached the capture output.",
                        c.passed,
                    ),
                    (
                        "zoom_capture_passed_bytes_total",
                        "Bytes across passing packets.",
                        c.passed_bytes,
                    ),
                    (
                        "zoom_capture_bytes_total",
                        "Bytes across all offered packets.",
                        c.total_bytes,
                    ),
                ] {
                    family(&mut out2, name, "counter", help, v);
                }
            }

            if !self.sources.is_empty() {
                let name = "zoom_source_lane_info";
                let _ = writeln!(
                    out2,
                    "# HELP {name} How each capture source is read: lane=\"inline\" (no capture thread, no ring: the ring series stay 0) or \"threaded\"."
                );
                let _ = writeln!(out2, "# TYPE {name} gauge");
                for s in &self.sources {
                    let _ = writeln!(
                        out2,
                        "{name}{} 1",
                        prom_labels(
                            &["source", "lane"],
                            &[s.label.clone(), s.lane.as_str().to_string()]
                        )
                    );
                }
                for (name, help, get) in [
                    (
                        "zoom_source_packets_total",
                        "Records pulled off each capture source.",
                        (|s| s.packets) as fn(&SourceSnapshot) -> u64,
                    ),
                    (
                        "zoom_source_bytes_total",
                        "Captured bytes across each source's records.",
                        |s| s.bytes,
                    ),
                    (
                        "zoom_source_batches_total",
                        "Batches each source handed to the fan-in ring.",
                        |s| s.batches,
                    ),
                    (
                        "zoom_source_ring_full_drops_total",
                        "Records dropped at a full hand-off ring, per source.",
                        |s| s.ring_full_drops,
                    ),
                ] {
                    let _ = writeln!(out2, "# HELP {name} {help}");
                    let _ = writeln!(out2, "# TYPE {name} counter");
                    for s in &self.sources {
                        let _ = writeln!(
                            out2,
                            "{name}{} {}",
                            prom_labels(&["source"], std::slice::from_ref(&s.label)),
                            get(s)
                        );
                    }
                }
                let max_delivered = self
                    .sources
                    .iter()
                    .map(|s| s.delivered_ts_nanos)
                    .max()
                    .unwrap_or(0);
                for (name, help, get) in [
                    (
                        "zoom_source_ring_occupancy",
                        "Batches queued in each source's hand-off ring at the last sample.",
                        (|s: &SourceSnapshot, _m: u64| s.ring_occupancy)
                            as fn(&SourceSnapshot, u64) -> u64,
                    ),
                    (
                        "zoom_source_ring_occupancy_peak",
                        "High-water mark of each source's ring occupancy.",
                        |s, _m| s.ring_occupancy_hwm,
                    ),
                    (
                        "zoom_source_lag_nanos",
                        "Trace-time lag of each source lane behind the furthest-ahead lane.",
                        |s, m| m.saturating_sub(s.delivered_ts_nanos),
                    ),
                ] {
                    let _ = writeln!(out2, "# HELP {name} {help}");
                    let _ = writeln!(out2, "# TYPE {name} gauge");
                    for s in &self.sources {
                        let _ = writeln!(
                            out2,
                            "{name}{} {}",
                            prom_labels(&["source"], std::slice::from_ref(&s.label)),
                            get(s, max_delivered)
                        );
                    }
                }
            }

            if !self.workers.is_empty() {
                for (name, kind, help, get) in [
                    (
                        "zoom_worker_packets_total",
                        "counter",
                        "Records each fragment worker reported capturing.",
                        (|w| w.packets) as fn(&WorkerSnapshot) -> u64,
                    ),
                    (
                        "zoom_worker_bytes_total",
                        "counter",
                        "Captured bytes each fragment worker reported.",
                        |w| w.bytes,
                    ),
                    (
                        "zoom_worker_ring_full_drops_total",
                        "counter",
                        "Records each worker dropped at its own capture rings.",
                        |w| w.ring_full_drops,
                    ),
                    (
                        "zoom_worker_records_received_total",
                        "counter",
                        "Records the merge node decoded from each worker's stream.",
                        |w| w.records_received,
                    ),
                    (
                        "zoom_worker_bytes_received_total",
                        "counter",
                        "Record bytes the merge node decoded from each worker's stream.",
                        |w| w.bytes_received,
                    ),
                    (
                        "zoom_worker_complete",
                        "gauge",
                        "1 once a worker's stream ended with a proper Bye frame.",
                        |w| u64::from(w.complete),
                    ),
                    (
                        "zoom_worker_link_state",
                        "gauge",
                        "Worker stream state: 0 pending, 1 streaming, 2 done, 3 error.",
                        |w| w.link_state,
                    ),
                ] {
                    let _ = writeln!(out2, "# HELP {name} {help}");
                    let _ = writeln!(out2, "# TYPE {name} {kind}");
                    for w in &self.workers {
                        let _ = writeln!(
                            out2,
                            "{name}{} {}",
                            prom_labels(&["worker"], std::slice::from_ref(&w.label)),
                            get(w)
                        );
                    }
                }
            }
        }
        out2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_are_cumulative_in_prom() {
        let h = Histogram::new(PACKET_SIZE_BOUNDS);
        for v in [10u64, 64, 65, 200, 2000] {
            h.observe(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 10 + 64 + 65 + 200 + 2000);
        // ≤64: two (10, 64); (64,128]: one (65); (128,256]: one (200);
        // +Inf overflow: one (2000).
        assert_eq!(s.buckets[0], 2);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[2], 1);
        assert_eq!(*s.buckets.last().unwrap(), 1);
    }

    #[test]
    fn branch_free_bucket_of_matches_the_scan_it_replaced() {
        let scan = |bounds: &[u64], v: u64| bounds.iter().take_while(|&&b| v > b).count();
        for bounds in [PACKET_SIZE_BOUNDS, STAGE_LATENCY_BOUNDS] {
            let edges = bounds.iter().flat_map(|&b| [b - 1, b, b + 1]);
            for v in edges.chain([0, u64::MAX]) {
                assert_eq!(bucket_of(bounds, v), scan(bounds, v), "v={v}");
            }
            assert_eq!(bucket_of(bounds, 0), 0);
            assert_eq!(bucket_of(bounds, u64::MAX), bounds.len());
        }
    }

    #[test]
    fn a_batch_counts_as_its_records_do() {
        let mut batch = RecordBatch::new();
        for (i, len) in [0usize, 60, 64, 65, 700, 1536, 1537, 9000]
            .into_iter()
            .enumerate()
        {
            batch.push(i as u64, len as u32, &vec![0; len]);
        }
        // A snapped record counts at its wire length, not its captured one.
        batch.push(9, 1400, &[0; 96]);
        let by_record = PipelineMetrics::new();
        for r in &batch {
            by_record.record_in(r.wire_len());
        }
        let by_batch = PipelineMetrics::new();
        by_batch.record_batch_in(&batch);
        by_batch.record_batch_in(&RecordBatch::new());
        let (a, b) = (by_record.snapshot(), by_batch.snapshot());
        assert_eq!(b.packets_in, 9);
        assert_eq!((a.packets_in, a.bytes_in), (b.packets_in, b.bytes_in));
        assert_eq!(a.packet_size, b.packet_size);
    }

    #[test]
    fn conservation_and_drop_routing() {
        let m = PipelineMetrics::new();
        m.record_in(100);
        m.record_in(200);
        m.record_in(300);
        m.packets_classified.inc();
        m.packets_not_zoom.inc();
        m.record_drop(DropStage::NonIp);
        let s = m.snapshot();
        assert_eq!(s.packets_in, 3);
        assert_eq!(s.bytes_in, 600);
        assert_eq!(s.drop_non_ip, 1);
        assert_eq!(s.drops_total(), 1);
        assert!(s.conservation_holds());
        m.record_drop(DropStage::Truncated);
        assert!(!m.snapshot().conservation_holds());
    }

    #[test]
    fn source_registry_extends_conservation_and_renders() {
        let m = PipelineMetrics::new();
        // No sources: the families are absent from both renders.
        let s = m.snapshot();
        assert!(s.sources.is_empty());
        assert!(!s.to_prom().contains("zoom_source_packets_total"));
        assert!(!s.to_json().contains("\"sources\""));

        let tap = m.register_source("pcap:a.pcap", LaneKind::Inline);
        let live = m.register_source("sim:p2p", LaneKind::Threaded);
        // tap captured 3 records; all reached the sink.
        tap.packets.add(3);
        tap.bytes.add(300);
        tap.batches.inc();
        // live captured 4 records; one was dropped at a full ring.
        live.packets.add(4);
        live.bytes.add(400);
        live.batches.add(2);
        live.ring_full_drops.inc();
        for _ in 0..6 {
            m.record_in(100);
        }
        m.packets_classified.add(5);
        m.packets_not_zoom.inc();

        let s = m.snapshot();
        assert_eq!(s.source_packets_total(), 7);
        assert_eq!(s.ring_full_drops_total(), 1);
        // 7 captured == 6 offered to the sink + 1 ring drop, and the
        // sink-side ledger balances too.
        assert!(s.conservation_holds());

        let prom = s.to_prom();
        assert!(prom.contains("zoom_source_packets_total{source=\"pcap:a.pcap\"} 3"));
        assert!(prom.contains("zoom_source_ring_full_drops_total{source=\"sim:p2p\"} 1"));
        assert!(prom.contains("zoom_source_lane_info{source=\"pcap:a.pcap\",lane=\"inline\"} 1"));
        assert!(prom.contains("zoom_source_lane_info{source=\"sim:p2p\",lane=\"threaded\"} 1"));
        let json = s.to_json();
        assert!(json.contains("\"sources\":[{\"source\":\"pcap:a.pcap\",\"lane\":\"inline\""));
        assert!(json.contains("{\"source\":\"sim:p2p\",\"lane\":\"threaded\""));
        assert!(json.contains("\"ring_full_drops\":1"));

        // An unaccounted capture loss breaks the extended invariant even
        // though the sink-side ledger still balances.
        live.packets.inc();
        assert!(!m.snapshot().conservation_holds());
    }

    #[test]
    fn worker_registry_extends_conservation_and_renders() {
        let m = PipelineMetrics::new();
        // No workers: the families are absent from both renders.
        let s = m.snapshot();
        assert!(s.workers.is_empty());
        assert!(!s.to_prom().contains("zoom_worker_packets_total"));
        assert!(!s.to_json().contains("\"workers\""));

        let w0 = m.register_worker("box-a");
        let w1 = m.register_worker("box-b");
        // box-a captured 5, shipped all 5; box-b captured 4, dropped 1
        // at its own rings and shipped 3.
        w0.packets.set(5);
        w0.bytes.set(500);
        w0.records_received.add(5);
        w0.complete.set(1);
        w1.packets.set(4);
        w1.bytes.set(400);
        w1.ring_full_drops.set(1);
        w1.records_received.add(3);
        w1.complete.set(1);
        for _ in 0..8 {
            m.record_in(100);
        }
        m.packets_classified.add(8);

        let s = m.snapshot();
        assert_eq!(s.worker_packets_total(), 9);
        assert_eq!(s.worker_records_received_total(), 8);
        // Σ worker packets (9) == merge packets_in (8) + worker drops (1).
        assert!(s.conservation_holds());

        let prom = s.to_prom();
        assert!(prom.contains("zoom_worker_packets_total{worker=\"box-a\"} 5"));
        assert!(prom.contains("zoom_worker_ring_full_drops_total{worker=\"box-b\"} 1"));
        assert!(prom.contains("zoom_worker_records_received_total{worker=\"box-b\"} 3"));
        assert!(prom.contains("zoom_worker_complete{worker=\"box-a\"} 1"));
        let json = s.to_json();
        assert!(json.contains("\"workers\":[{\"worker\":\"box-a\""));
        assert!(json.contains("\"records_received\":3"));
        assert!(json.contains("\"complete\":true"));

        // A worker that reports more than the merge saw (a lost frame)
        // breaks the worker half of the ledger.
        w0.packets.set(6);
        assert!(!m.snapshot().conservation_holds());
    }

    /// Snapshot test: the Prometheus text render is pinned byte for byte
    /// so schema drift (name, label, or HELP changes) is an explicit,
    /// reviewed diff.
    #[test]
    fn prom_render_is_pinned() {
        let m = PipelineMetrics::new();
        m.record_in(100);
        m.record_in(1500);
        m.packets_classified.inc();
        m.record_drop(DropStage::Truncated);
        m.packets_not_zoom.inc();
        m.windows_closed.inc();
        m.tracked_entries.set(4);
        m.peak_tracked_entries.set_max(9);
        m.stage_push_nanos.observe(5_000);
        m.qoe
            .bitrate_bps
            .with(&["3", "video", "zoom"], |g| g.set(640_000.0));
        m.qoe
            .frame_size_bytes
            .with(&["video", "zoom"], |h| h.observe(1_200));
        m.qoe
            .retransmissions
            .with(&["3", "video", "zoom"], |c| c.add(2));
        m.qoe.degraded.with(&["3", "low_fps"], |g| g.set(1));
        m.qoe.estimated_rtt_ms.set(23.5);
        let prom = m.snapshot().to_prom();
        // The build_info labels track the crate version / baked-in SHA,
        // so that one line is formatted rather than hard-pinned; the
        // schema around it stays byte-pinned.
        let (version, git_sha, features) = build_info();
        let header = format!(
            "# HELP zoom_build_info Build metadata; the value is always 1.\n\
             # TYPE zoom_build_info gauge\n\
             zoom_build_info{{version=\"{version}\",git_sha=\"{git_sha}\",features=\"{features}\"}} 1\n\
             # HELP zoom_uptime_seconds Seconds since the metrics registry was created.\n\
             # TYPE zoom_uptime_seconds gauge\n\
             zoom_uptime_seconds 0\n"
        );
        let expected = "\
# HELP zoom_packets_in_total Records offered to the analysis sink.
# TYPE zoom_packets_in_total counter
zoom_packets_in_total 2
# HELP zoom_bytes_in_total Captured bytes across offered records.
# TYPE zoom_bytes_in_total counter
zoom_bytes_in_total 1600
# HELP zoom_packets_classified_total Records classified as Zoom traffic.
# TYPE zoom_packets_classified_total counter
zoom_packets_classified_total 1
# HELP zoom_packets_not_zoom_total Records dissected but not classified as Zoom.
# TYPE zoom_packets_not_zoom_total counter
zoom_packets_not_zoom_total 1
# HELP zoom_malformed_zme_total Port-8801 UDP records whose Zoom Media Encapsulation failed to parse.
# TYPE zoom_malformed_zme_total counter
zoom_malformed_zme_total 0
# HELP zoom_classified_webrtc_total Records classified under the WebRTC family (DTLS, SRTP, SRTCP).
# TYPE zoom_classified_webrtc_total counter
zoom_classified_webrtc_total 0
# HELP zoom_malformed_srtp_total WebRTC-flow records whose DTLS-SRTP framing failed to parse.
# TYPE zoom_malformed_srtp_total counter
zoom_malformed_srtp_total 0
# HELP zoom_dissect_drops_total Records rejected by the dissector, by stage.
# TYPE zoom_dissect_drops_total counter
zoom_dissect_drops_total{stage=\"unsupported_link\"} 0
zoom_dissect_drops_total{stage=\"non_ip\"} 0
zoom_dissect_drops_total{stage=\"non_transport\"} 0
zoom_dissect_drops_total{stage=\"truncated\"} 1
zoom_dissect_drops_total{stage=\"malformed\"} 0
# HELP zoom_pcap_truncated_records Records dropped at a torn pcap tail.
# TYPE zoom_pcap_truncated_records gauge
zoom_pcap_truncated_records 0
# HELP zoom_pcap_records_read Complete records delivered by the pcap reader.
# TYPE zoom_pcap_records_read gauge
zoom_pcap_records_read 0
# HELP zoom_pcap_bytes_read Captured bytes delivered by the pcap reader.
# TYPE zoom_pcap_bytes_read gauge
zoom_pcap_bytes_read 0
# HELP zoom_windows_closed_total Tumbling windows closed by the streaming engine.
# TYPE zoom_windows_closed_total counter
zoom_windows_closed_total 1
# HELP zoom_checkpoints_total Explicit checkpoints taken.
# TYPE zoom_checkpoints_total counter
zoom_checkpoints_total 0
# HELP zoom_evicted_flows_total Flows evicted by the idle timeout.
# TYPE zoom_evicted_flows_total counter
zoom_evicted_flows_total 0
# HELP zoom_evicted_streams_total Streams evicted by the idle timeout.
# TYPE zoom_evicted_streams_total counter
zoom_evicted_streams_total 0
# HELP zoom_tracked_entries Entries currently tracked across shards.
# TYPE zoom_tracked_entries gauge
zoom_tracked_entries 4
# HELP zoom_peak_tracked_entries High-water mark of tracked entries.
# TYPE zoom_peak_tracked_entries gauge
zoom_peak_tracked_entries 9
# HELP zoom_trace_events_total Trace span events recorded by the collector.
# TYPE zoom_trace_events_total counter
zoom_trace_events_total 0
# HELP zoom_trace_events_dropped_total Trace events dropped at the bounded export queue.
# TYPE zoom_trace_events_dropped_total counter
zoom_trace_events_dropped_total 0
# HELP zoom_packet_size_bytes Captured-size distribution of offered records.
# TYPE zoom_packet_size_bytes histogram
zoom_packet_size_bytes_bucket{le=\"64\"} 0
zoom_packet_size_bytes_bucket{le=\"128\"} 1
zoom_packet_size_bytes_bucket{le=\"256\"} 1
zoom_packet_size_bytes_bucket{le=\"512\"} 1
zoom_packet_size_bytes_bucket{le=\"1024\"} 1
zoom_packet_size_bytes_bucket{le=\"1536\"} 2
zoom_packet_size_bytes_bucket{le=\"+Inf\"} 2
zoom_packet_size_bytes_sum 1600
zoom_packet_size_bytes_count 2
# HELP zoom_stage_latency_nanos Sampled wall-clock cost of pipeline stages.
# TYPE zoom_stage_latency_nanos histogram
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"1000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"10000\"} 1
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"100000\"} 1
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"1000000\"} 1
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"10000000\"} 1
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"100000000\"} 1
zoom_stage_latency_nanos_bucket{stage=\"push\",le=\"+Inf\"} 1
zoom_stage_latency_nanos_sum{stage=\"push\"} 5000
zoom_stage_latency_nanos_count{stage=\"push\"} 1
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"1000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"10000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"100000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"1000000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"10000000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"100000000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"merge\",le=\"+Inf\"} 0
zoom_stage_latency_nanos_sum{stage=\"merge\"} 0
zoom_stage_latency_nanos_count{stage=\"merge\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"1000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"10000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"100000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"1000000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"10000000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"100000000\"} 0
zoom_stage_latency_nanos_bucket{stage=\"checkpoint\",le=\"+Inf\"} 0
zoom_stage_latency_nanos_sum{stage=\"checkpoint\"} 0
zoom_stage_latency_nanos_count{stage=\"checkpoint\"} 0
# HELP zoom_qoe_bitrate_bps Media bitrate over the last closed window.
# TYPE zoom_qoe_bitrate_bps gauge
zoom_qoe_bitrate_bps{meeting=\"3\",media=\"video\",family=\"zoom\"} 640000
# HELP zoom_qoe_frame_size_bytes Per-frame media payload size distribution.
# TYPE zoom_qoe_frame_size_bytes histogram
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"256\"} 0
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"512\"} 0
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"1024\"} 0
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"2048\"} 1
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"4096\"} 1
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"8192\"} 1
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"16384\"} 1
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"32768\"} 1
zoom_qoe_frame_size_bytes_bucket{media=\"video\",family=\"zoom\",le=\"+Inf\"} 1
zoom_qoe_frame_size_bytes_sum{media=\"video\",family=\"zoom\"} 1200
zoom_qoe_frame_size_bytes_count{media=\"video\",family=\"zoom\"} 1
# HELP zoom_qoe_retransmissions_total Duplicate RTP sequence numbers observed.
# TYPE zoom_qoe_retransmissions_total counter
zoom_qoe_retransmissions_total{meeting=\"3\",media=\"video\",family=\"zoom\"} 2
# HELP zoom_qoe_degraded Active QoE degradation verdicts (1 = degraded).
# TYPE zoom_qoe_degraded gauge
zoom_qoe_degraded{meeting=\"3\",kind=\"low_fps\"} 1
# HELP zoom_qoe_estimated_rtt_ms Mean RTP-copy RTT over the last closed window.
# TYPE zoom_qoe_estimated_rtt_ms gauge
zoom_qoe_estimated_rtt_ms 23.5
# HELP zoom_qoe_series_evicted_total Labeled series dropped at the cardinality cap.
# TYPE zoom_qoe_series_evicted_total counter
zoom_qoe_series_evicted_total{family=\"bitrate_bps\"} 0
zoom_qoe_series_evicted_total{family=\"fps\"} 0
zoom_qoe_series_evicted_total{family=\"jitter_ms\"} 0
zoom_qoe_series_evicted_total{family=\"frame_size_bytes\"} 0
zoom_qoe_series_evicted_total{family=\"retransmissions\"} 0
zoom_qoe_series_evicted_total{family=\"degraded\"} 0
";
        assert_eq!(prom, format!("{header}{expected}"));
    }

    #[test]
    fn json_snapshot_has_schema_keys() {
        let m = PipelineMetrics::new();
        m.record_in(64);
        m.packets_classified.inc();
        let mut s = m.snapshot();
        s.capture = Some(CaptureMetricsSnapshot {
            total: 5,
            passed: 3,
            ..Default::default()
        });
        let json = s.to_json();
        for key in [
            "\"type\":\"metrics\"",
            "\"build\":{\"version\":",
            "\"git_sha\":",
            "\"features\":",
            "\"uptime_seconds\":",
            "\"trace\":{\"events\":0,\"events_dropped\":0}",
            "\"packets_in\":1",
            "\"drops\":{",
            "\"conservation_holds\":true",
            "\"pcap\":{",
            "\"packet_size\":{",
            "\"engine\":{",
            "\"stage_latency\":{",
            "\"qoe\":{",
            "\"series_evicted\":{",
            "\"capture\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn quantile_interpolates_within_buckets() {
        let h = Histogram::new(&[10, 20, 40]);
        // Ten observations spread evenly through the (0, 10] bucket.
        for _ in 0..10 {
            h.observe(5);
        }
        let s = h.snapshot();
        // target = 0.5 * 10 = 5 observations into a 10-deep bucket that
        // spans (0, 10]: 0 + (5/10) * 10 = 5.
        assert_eq!(s.quantile(0.5), 5.0);
        assert_eq!(s.quantile(1.0), 10.0);
        assert_eq!(s.quantile(0.0), 0.0);

        let h = Histogram::new(&[10, 20, 40]);
        h.observe(5); // (0, 10]
        h.observe(15); // (10, 20]
        h.observe(15);
        h.observe(30); // (20, 40]
        let s = h.snapshot();
        // p50: target 2.0; first bucket holds 1, so 1.0 into the 2-deep
        // (10, 20] bucket: 10 + (1/2) * 10 = 15.
        assert_eq!(s.quantile(0.5), 15.0);
        // p75: target 3.0; exactly consumes the second bucket: 20.
        assert_eq!(s.quantile(0.75), 20.0);
        // p100 lands in (20, 40]: 20 + (1/1) * 20 = 40.
        assert_eq!(s.quantile(1.0), 40.0);
        // Out-of-range q clamps.
        assert_eq!(s.quantile(2.0), 40.0);

        // Overflow observations clamp to the last finite bound.
        let h = Histogram::new(&[10]);
        h.observe(1_000);
        assert_eq!(h.snapshot().quantile(0.99), 10.0);

        // Empty histogram reports 0.
        assert_eq!(Histogram::new(&[10]).snapshot().quantile(0.5), 0.0);
    }

    #[test]
    fn labeled_family_caps_cardinality_with_lru_eviction() {
        let fam: LabeledFamily<Counter> = LabeledFamily::new(&["meeting"], 2, Counter::new);
        fam.with(&["1"], |c| c.inc());
        fam.with(&["2"], |c| c.inc());
        assert_eq!(fam.len(), 2);
        assert_eq!(fam.series_evicted(), 0);
        // Touch "1" so "2" becomes the least recently used.
        fam.with(&["1"], |c| c.inc());
        fam.with(&["3"], |c| c.inc());
        assert_eq!(fam.len(), 2);
        assert_eq!(fam.series_evicted(), 1);
        let snap = fam.snapshot();
        let keys: Vec<&str> = snap.iter().map(|(k, _)| k[0].as_str()).collect();
        assert_eq!(keys, ["1", "3"], "LRU series evicted, not newest");
        assert_eq!(snap[0].1, 2);
    }

    #[test]
    fn labeled_family_snapshot_order_is_deterministic() {
        let fam: LabeledFamily<Gauge> = LabeledFamily::new(&["meeting", "media"], 8, Gauge::new);
        for labels in [["2", "video"], ["1", "video"], ["1", "audio"]] {
            fam.with(&labels, |g| g.set(7));
        }
        let keys: Vec<Vec<String>> = fam.snapshot().into_iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            [
                vec!["1".to_string(), "audio".to_string()],
                vec!["1".to_string(), "video".to_string()],
                vec!["2".to_string(), "video".to_string()],
            ],
            "snapshot sorts lexicographically by label values"
        );
    }

    #[test]
    fn qoe_prom_render_skips_empty_families() {
        let q = QoeMetrics::new(4);
        let mut out = String::new();
        q.snapshot().render_prom(&mut out);
        assert!(!out.contains("zoom_qoe_bitrate_bps{"));
        assert!(!out.contains("zoom_qoe_degraded{"));
        // Always-on lines are present even with no series.
        assert!(out.contains("zoom_qoe_estimated_rtt_ms 0"));
        assert!(out.contains("zoom_qoe_series_evicted_total{family=\"fps\"} 0"));
    }

    #[test]
    fn trace_stubs_compile_and_run() {
        let _s = trace::span("test");
        trace::event("test", "detail=1");
    }

    /// Pin the exposition-format escaping of user-supplied label values:
    /// worker labels and source specs arrive from the command line, so a
    /// path containing `\`, `"`, or a newline must render as the escape
    /// sequences Prometheus's parser expects, never raw.
    #[test]
    fn prom_label_values_are_escaped() {
        let m = PipelineMetrics::new();
        let src = m.register_source("pcap:C:\\traces\\a \"prod\" run\n.pcap", LaneKind::Threaded);
        src.packets.inc();
        let w = m.register_worker("box\\one\"two\nthree");
        w.packets.set(1);
        m.qoe
            .degraded
            .with(&["5", "weird\\\"kind\n"], |g| g.set(1));
        let prom = m.snapshot().to_prom();
        assert!(prom.contains(
            r#"zoom_source_packets_total{source="pcap:C:\\traces\\a \"prod\" run\n.pcap"} 1"#
        ));
        assert!(prom.contains(r#"zoom_worker_packets_total{worker="box\\one\"two\nthree"} 1"#));
        assert!(prom.contains(r#"zoom_qoe_degraded{meeting="5",kind="weird\\\"kind\n"} 1"#));
        // No label line may carry a raw newline or unescaped quote: every
        // rendered line must still be a complete `name{...} value` line.
        for line in prom.lines().filter(|l| l.contains("box\\\\one")) {
            assert!(
                line.ends_with(" 0") || line.ends_with(" 1"),
                "label leaked a raw newline: {line}"
            );
        }
    }

    #[test]
    fn build_info_and_uptime_render_everywhere() {
        let (version, git_sha, features) = build_info();
        assert!(!version.is_empty());
        assert!(!git_sha.is_empty());
        let m = PipelineMetrics::new();
        let s = m.snapshot();
        let prom = s.to_prom();
        assert!(prom.starts_with("# HELP zoom_build_info"));
        assert!(prom.contains(&format!(
            "zoom_build_info{{version=\"{version}\",git_sha=\"{git_sha}\",features=\"{features}\"}} 1"
        )));
        assert!(prom.contains("zoom_uptime_seconds 0"));
        let json = s.to_json();
        assert!(json.contains(&format!("\"version\":\"{version}\"")));
        assert!(json.contains("\"uptime_seconds\":0"));
    }

    #[test]
    fn debug_json_exposes_live_pipeline_state() {
        let m = PipelineMetrics::new();
        let src = m.register_source("pcap:a.pcap", LaneKind::Threaded);
        src.ring_occupancy.set(3);
        src.ring_occupancy_hwm.set_max(7);
        src.delivered_ts_nanos.set(1_000);
        let lagging = m.register_source("pcap:b.pcap", LaneKind::Inline);
        lagging.delivered_ts_nanos.set(400);
        let w = m.register_worker("box-a");
        w.link_state.set(link_state::STREAMING);
        m.trace.enable(4, "merge");

        let json = m.debug_json();
        for key in [
            "\"type\":\"debug_pipeline\"",
            "\"build\":{\"version\":",
            "{\"source\":\"pcap:a.pcap\",\"lane\":\"threaded\"",
            "{\"source\":\"pcap:b.pcap\",\"lane\":\"inline\"",
            "\"ring_occupancy\":3",
            "\"ring_occupancy_hwm\":7",
            "\"lag_nanos\":600",
            "\"link_state\":\"streaming\"",
            "\"tables\":{\"tracked_entries\":0",
            "\"trace\":{\"enabled\":true,\"node\":\"merge\",\"sample_every\":4",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

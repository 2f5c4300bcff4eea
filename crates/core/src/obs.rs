//! Production observability: a lock-light metrics registry for the
//! analysis pipeline, plus the structured-tracing core.
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
//!   stitching over the `ZFRG` Trace frame.
//!
//! Every metric is declared once, as a row of a table — [`SCALARS`],
//! [`SOURCE_ROWS`], [`WORKER_ROWS`], [`CAPTURE_ROWS`], [`QOE_FAMILIES`] —
//! naming its field, kind, JSON placement, Prometheus name and help text.
//! The registry and snapshot fields are generated from the rows, and
//! every render is a loop over the tables: Prometheus text, the JSON
//! snapshot, `/debug/pipeline` ([`PipelineMetrics::debug_json`]) and the
//! doc catalogue ([`catalogue_markdown`]). Values derived from several
//! rows (`conservation_holds`, per-source lag, build identity, uptime)
//! stay in the renderers.
//!
//! Counter updates use `Ordering::Relaxed` throughout: each counter is
//! independently monotone and snapshots are only read after ingest
//! quiesces (or as an eventually-consistent live view), so no
//! cross-counter ordering is required. An uncontended relaxed RMW is a
//! single lock-prefixed instruction.

use crate::report::JsonObj;
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zoom_wire::dissect::DropStage;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::zoom::MediaType;

#[cfg(feature = "obs-http")]
pub mod serve;
pub mod trace;

mod instrument;
use instrument::bucket_of;
pub use instrument::{
    Counter, FamilyMetric, FloatGauge, Gauge, Histogram, HistogramSnapshot, LabeledFamily,
    LabeledSeries,
};

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

// ---------------------------------------------------------- declarations --

/// The Prometheus type of a declared metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone count.
    Counter,
    /// A point-in-time value.
    Gauge,
    /// A cumulative-bucket distribution.
    Histogram,
}

impl Kind {
    /// The `# TYPE` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// How a declared metric reads its value off a snapshot `S`, and so how
/// the value renders in JSON.
pub enum Value<S> {
    /// A number.
    Num(fn(&S) -> u64),
    /// 0 or 1, a JSON boolean.
    Flag(fn(&S) -> u64),
    /// One of the [`link_state`] values, named in JSON.
    LinkState(fn(&S) -> u64),
    /// A distribution.
    Hist(fn(&S) -> &HistogramSnapshot),
}

/// One metric of a snapshot `S`, declared once. Prometheus text, the JSON
/// snapshot, `/debug/pipeline` and the doc catalogue
/// ([`catalogue_markdown`]) are loops over tables of these, each table in
/// Prometheus order.
pub struct Metric<S> {
    /// Prometheus family name; `None` for a value only JSON carries.
    pub prom: Option<&'static str>,
    /// A fixed label on this row's series, as (name, value). Consecutive
    /// rows of one family share its `# HELP` / `# TYPE` header.
    pub label: Option<(&'static str, &'static str)>,
    /// Prometheus type.
    pub kind: Kind,
    /// `# HELP` text, also the field's documentation.
    pub help: &'static str,
    /// JSON placement: a group and the key. In [`SCALARS`] the group is
    /// the snapshot section; in a row family's table, the row's rank in
    /// its object (rows of equal rank keep table order).
    pub json: (u8, &'static str),
    /// `/debug/pipeline` placement, by rank and key, for the rows that
    /// route shows.
    pub debug: Option<(u8, &'static str)>,
    /// The accessor.
    pub value: Value<S>,
}

impl<S> Metric<S> {
    /// The value as a number; `None` for a histogram.
    fn num(&self, s: &S) -> Option<u64> {
        match self.value {
            Value::Num(get) | Value::Flag(get) | Value::LinkState(get) => Some(get(s)),
            Value::Hist(_) => None,
        }
    }

    /// Write the value into `o` under `key`.
    fn put_json(&self, o: &mut JsonObj, key: &str, s: &S) {
        match self.value {
            Value::Num(get) => o.u64(key, get(s)),
            Value::Flag(get) => o.bool(key, get(s) != 0),
            Value::LinkState(get) => o.str(key, link_state::name(get(s))),
            Value::Hist(get) => o.raw(key, &hist_json(get(s))),
        };
    }
}

/// A row-family snapshot value as the registry's atomics hold it.
trait Raw: Copy {
    fn from_raw(v: u64) -> Self;
    fn raw(self) -> u64;
}

impl Raw for u64 {
    fn from_raw(v: u64) -> u64 {
        v
    }
    fn raw(self) -> u64 {
        self
    }
}

impl Raw for bool {
    fn from_raw(v: u64) -> bool {
        v != 0
    }
    fn raw(self) -> u64 {
        u64::from(self)
    }
}

// `Some(x)` for `opt!(x)`, `None` for `opt!()`.
macro_rules! opt {
    () => {
        None
    };
    ($($x:tt)+) => {
        Some($($x)+)
    };
}

// A row's key: the one given, else the field's name.
macro_rules! key_or {
    ($key:literal, $field:ident) => {
        $key
    };
    (, $field:ident) => {
        stringify!($field)
    };
}

// A type: the one given, else `u64`.
macro_rules! ty_or {
    () => {
        u64
    };
    ($ty:ty) => {
        $ty
    };
}

// The first of a list of expressions.
macro_rules! first {
    ($e:expr $(, $rest:expr)*) => {
        $e
    };
}

// The snapshot type and the accessor of a scalar of the given `Kind`.
macro_rules! snap_ty {
    (Histogram) => {
        HistogramSnapshot
    };
    ($kind:ident) => {
        u64
    };
}

macro_rules! scalar_value {
    (Histogram, $field:ident) => {
        Value::Hist(|s| &s.$field)
    };
    ($kind:ident, $field:ident) => {
        Value::Num(|s| s.$field)
    };
}

// The value type of a QoE family's series.
macro_rules! series_ty {
    (Float) => {
        f64
    };
    (Count) => {
        u64
    };
    (Hist) => {
        HistogramSnapshot
    };
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

/// Label names of the per-meeting, per-media QoE series.
const MEETING_MEDIA: &[&str] = &["meeting", "media", "family"];

/// One labeled QoE family's series, read off a [`QoeSnapshot`].
pub enum Series {
    /// Float gauges.
    Float(fn(&QoeSnapshot) -> &[LabeledSeries<f64>]),
    /// Integer counters or gauges.
    Count(fn(&QoeSnapshot) -> &[LabeledSeries<u64>]),
    /// Histograms.
    Hist(fn(&QoeSnapshot) -> &[LabeledSeries<HistogramSnapshot>]),
}

/// One labeled QoE family, declared once.
pub struct QoeFamily {
    /// Key in the snapshot's `"qoe"` object, also the family's label on
    /// `zoom_qoe_series_evicted_total`.
    pub json: &'static str,
    /// Prometheus family name.
    pub prom: &'static str,
    /// Prometheus type.
    pub kind: Kind,
    /// `# HELP` text, also the field's documentation.
    pub help: &'static str,
    /// Label names, in the order each series lists its values.
    pub labels: &'static [&'static str],
    /// The accessor.
    pub series: Series,
}

// Declares the labeled QoE families once. Each row names the field, its
// per-series metric (with a constructor when that is not `new`), label
// names, series shape, kind, Prometheus name and help text. From the rows
// come the fields of `QoeMetrics` and `QoeSnapshot`, their copies, and
// `QOE_FAMILIES`.
macro_rules! qoe_families {
    ($(
        $field:ident: $inst:ident $(($make:expr))? [$labels:expr] =>
        $series:ident $kind:ident $prom:literal $help:literal;
    )*) => {
        /// The per-meeting / per-media-type QoE series registry: the
        /// paper's §5 estimators (bitrate, frame rate, jitter, frame size,
        /// retransmissions, RTT) as live labeled time series, updated by
        /// the streaming engine at every window boundary and rendered by
        /// [`MetricsSnapshot::to_prom`]/[`MetricsSnapshot::to_json`].
        #[derive(Debug)]
        pub struct QoeMetrics {
            $( #[doc = $help] pub $field: LabeledFamily<$inst>, )*
            /// Mean RTP-copy RTT over the last window that produced
            /// samples (`zoom_qoe_estimated_rtt_ms`).
            pub estimated_rtt_ms: FloatGauge,
        }

        impl QoeMetrics {
            fn new(cap: usize) -> QoeMetrics {
                QoeMetrics {
                    $( $field: LabeledFamily::new($labels, cap, first!($($make,)? $inst::new)), )*
                    estimated_rtt_ms: FloatGauge::new(),
                }
            }

            /// Series evicted by the cardinality cap, per family (family
            /// name, count) — rendered as
            /// `zoom_qoe_series_evicted_total{family=…}`.
            pub fn evictions(&self) -> Vec<(&'static str, u64)> {
                vec![$( (stringify!($field), self.$field.series_evicted()), )*]
            }

            /// Plain-data copy of every family.
            pub fn snapshot(&self) -> QoeSnapshot {
                QoeSnapshot {
                    $( $field: self.$field.snapshot(), )*
                    estimated_rtt_ms: self.estimated_rtt_ms.get(),
                    series_evicted: self.evictions(),
                }
            }
        }

        /// Plain-data copy of [`QoeMetrics`]: each family as sorted
        /// (label values, value) pairs.
        #[derive(Debug, Clone, PartialEq)]
        pub struct QoeSnapshot {
            $( #[doc = $help] pub $field: Vec<LabeledSeries<series_ty!($series)>>, )*
            /// Mean RTP-copy RTT, milliseconds (0 until a window yields
            /// samples).
            pub estimated_rtt_ms: f64,
            /// Per-family cardinality-cap evictions.
            pub series_evicted: Vec<(&'static str, u64)>,
        }

        /// The labeled QoE families, in render order.
        pub const QOE_FAMILIES: &[QoeFamily] = &[$(
            QoeFamily {
                json: stringify!($field),
                prom: $prom,
                kind: Kind::$kind,
                help: $help,
                labels: $labels,
                series: Series::$series(|q| &q.$field),
            },
        )*];
    };
}

qoe_families! {
    bitrate_bps: FloatGauge [MEETING_MEDIA] => Float Gauge "zoom_qoe_bitrate_bps" "Media bitrate over the last closed window.";
    fps: FloatGauge [MEETING_MEDIA] => Float Gauge "zoom_qoe_fps" "Frame rate over the last closed window.";
    jitter_ms: FloatGauge [MEETING_MEDIA] => Float Gauge "zoom_qoe_jitter_ms" "RFC 3550 interarrival jitter at the last closed window.";
    frame_size_bytes: Histogram(|| Histogram::new(FRAME_SIZE_BOUNDS)) [&["media", "family"]] => Hist Histogram "zoom_qoe_frame_size_bytes" "Per-frame media payload size distribution.";
    retransmissions: Counter [MEETING_MEDIA] => Count Counter "zoom_qoe_retransmissions_total" "Duplicate RTP sequence numbers observed.";
    degraded: Gauge [&["meeting", "kind"]] => Count Gauge "zoom_qoe_degraded" "Active QoE degradation verdicts (1 = degraded).";
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
        fn family<V>(
            out: &mut String,
            f: &QoeFamily,
            series: &[LabeledSeries<V>],
            line: impl Fn(&mut String, &str, &V),
        ) {
            if series.is_empty() {
                return;
            }
            prom_header(out, f.prom, f.kind, f.help);
            for (values, v) in series {
                line(out, &prom_labels(f.labels, values), v);
            }
        }
        for f in QOE_FAMILIES {
            match f.series {
                Series::Float(get) => {
                    family(out, f, get(self), |o, l, v| prom_line(o, f.prom, l, v))
                }
                Series::Count(get) => {
                    family(out, f, get(self), |o, l, v| prom_line(o, f.prom, l, v))
                }
                Series::Hist(get) => {
                    family(out, f, get(self), |o, l, h| prom_histogram(o, f.prom, l, h))
                }
            }
        }
        let rtt = "zoom_qoe_estimated_rtt_ms";
        prom_header(
            out,
            rtt,
            Kind::Gauge,
            "Mean RTP-copy RTT over the last closed window.",
        );
        prom_line(out, rtt, "", self.estimated_rtt_ms);
        let evicted = "zoom_qoe_series_evicted_total";
        prom_header(
            out,
            evicted,
            Kind::Counter,
            "Labeled series dropped at the cardinality cap.",
        );
        for (fam, v) in &self.series_evicted {
            prom_line(out, evicted, &prom_labels(&["family"], &[fam]), v);
        }
    }

    /// Serialize as one JSON object (the snapshot's `"qoe"` section).
    pub fn to_json(&self) -> String {
        fn family<V>(
            f: &QoeFamily,
            series: &[LabeledSeries<V>],
            put: impl Fn(&mut JsonObj, &V),
        ) -> String {
            json_array(series.iter().map(|(values, v)| {
                let mut labels = JsonObj::new();
                for (name, value) in f.labels.iter().zip(values) {
                    labels.str(name, value);
                }
                let mut o = JsonObj::new();
                o.raw("labels", &labels.finish());
                put(&mut o, v);
                o.finish()
            }))
        }
        let mut o = JsonObj::new();
        for f in QOE_FAMILIES {
            let series = match f.series {
                Series::Float(get) => family(f, get(self), |o, v| {
                    o.f64("value", *v);
                }),
                Series::Count(get) => family(f, get(self), |o, v| {
                    o.u64("value", *v);
                }),
                Series::Hist(get) => family(f, get(self), |o, h| {
                    o.raw("histogram", &hist_json(h));
                }),
            };
            o.raw(f.json, &series);
        }
        let mut evicted = JsonObj::new();
        for (fam, n) in &self.series_evicted {
            evicted.u64(fam, *n);
        }
        o.f64("estimated_rtt_ms", self.estimated_rtt_ms)
            .raw("series_evicted", &evicted.finish());
        o.finish()
    }
}

/// Histogram snapshot as a JSON object, with interpolated quantile
/// summaries (see [`HistogramSnapshot::quantile`] for the bias).
fn hist_json(h: &HistogramSnapshot) -> String {
    let arr = |vals: &[u64]| json_array(vals.iter().map(u64::to_string));
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

/// A JSON array of pre-serialized items.
fn json_array(items: impl IntoIterator<Item = String>) -> String {
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

/// Render a `a="x",b="y"` label list, without braces. Values are escaped
/// per the Prometheus exposition rules.
fn prom_labels(names: &[&str], values: &[impl AsRef<str>]) -> String {
    let mut out = String::new();
    for (i, (n, v)) in names.iter().zip(values).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(n);
        out.push_str("=\"");
        for c in v.as_ref().chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// Write a family's `# HELP` and `# TYPE` lines.
fn prom_header(out: &mut String, name: &str, kind: Kind, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {}", kind.as_str());
}

/// Write one sample; `labels` is a label list without braces, empty for
/// none.
fn prom_line(out: &mut String, name: &str, labels: &str, v: impl std::fmt::Display) {
    let _ = if labels.is_empty() {
        writeln!(out, "{name} {v}")
    } else {
        writeln!(out, "{name}{{{labels}}} {v}")
    };
}

/// Render one histogram in exposition format. `labels` is a label list
/// without braces (empty for an unlabeled histogram); `le` is appended to
/// it on bucket lines.
fn prom_histogram(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cumulative = 0u64;
    for (i, bound) in h.bounds.iter().enumerate() {
        cumulative += h.buckets[i];
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{bound}\"}} {cumulative}"
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    prom_line(out, &format!("{name}_sum"), labels, h.sum);
    prom_line(out, &format!("{name}_count"), labels, h.count);
}

/// Render `rows` for each instance in `items` — its label list
/// (`source="…"`, empty for none) and its snapshot — as Prometheus text:
/// one header per family, then a line per row and instance.
fn prom_rows<S>(out: &mut String, rows: &[Metric<S>], items: &[(String, &S)]) {
    let mut family = "";
    for row in rows {
        let Some(name) = row.prom else { continue };
        if name != family {
            prom_header(out, name, row.kind, row.help);
            family = name;
        }
        for (instance, s) in items {
            let labels = match row.label {
                Some((k, v)) if instance.is_empty() => format!("{k}=\"{v}\""),
                Some((k, v)) => format!("{instance},{k}=\"{v}\""),
                None => instance.clone(),
            };
            match row.value {
                Value::Hist(get) => prom_histogram(out, name, &labels, get(s)),
                _ => prom_line(out, name, &labels, row.num(s).unwrap_or_default()),
            }
        }
    }
}

/// One instance of a row family as a JSON object: `head` writes the
/// instance's identity, then every row `place` puts in the object follows
/// by rank.
fn row_object<S>(
    rows: &[Metric<S>],
    s: &S,
    place: fn(&Metric<S>) -> Option<(u8, &'static str)>,
    head: impl FnOnce(&mut JsonObj),
) -> JsonObj {
    let mut placed: Vec<_> = rows.iter().filter_map(|r| Some((place(r)?, r))).collect();
    placed.sort_by_key(|((rank, _), _)| *rank);
    let mut o = JsonObj::new();
    head(&mut o);
    for ((_, key), r) in placed {
        r.put_json(&mut o, key, s);
    }
    o
}

/// The JSON snapshot's sections, in render order: the key each nests
/// under, or `None` for keys at the top level. A scalar's `json.0`
/// indexes this list; `conservation_holds` follows `drops`. In
/// `/debug/pipeline`, `top` rows sit at the top level, `engine` rows
/// under `tables` and `trace` rows under `trace`.
const JSON_SECTIONS: [Option<&str>; 7] = [
    Some("trace"),
    None,
    Some("drops"),
    Some("pcap"),
    None,
    Some("engine"),
    Some("stage_latency"),
];

/// Indices into [`JSON_SECTIONS`].
mod section {
    pub const TRACE: u8 = 0;
    pub const TOP: u8 = 1;
    pub const DROPS: u8 = 2;
    pub const PCAP: u8 = 3;
    pub const SIZE: u8 = 4;
    pub const ENGINE: u8 = 5;
    pub const STAGES: u8 = 6;
}

// Declares the pipeline-wide scalars once. Each row names the field, its
// instrument (or, after `<-`, how the snapshot derives it from the
// registry), kind, JSON section and key (the field's name unless given),
// `/debug/pipeline` rank and key, Prometheus name with an optional fixed
// label, and help text. From the rows come the scalar fields of
// `PipelineMetrics` and `MetricsSnapshot`, their copies in `new()` and
// `snapshot()`, and `SCALARS`; the fields listed under `registry` and
// `snapshot` are the rest of the two structs.
macro_rules! scalar_metrics {
    (
        $(#[$rm:meta])*
        registry { $( $(#[$xm:meta])* $xv:vis $xf:ident: $xt:ty = $xe:expr, )* }
        $(#[$sm:meta])*
        snapshot |$m:ident| { $( $(#[$ym:meta])* $yf:ident: $yt:ty = $ye:expr, )* }
        rows { $(
            $field:ident $(: $inst:ident($($arg:expr)?))? $(<- $derive:expr)? =>
            $kind:ident json($sec:ident $(, $key:literal)?) $(debug($dpos:literal $(, $dkey:literal)?))?
            $prom:literal $({$lname:literal = $lval:literal})? $help:literal;
        )* }
    ) => {
        $(#[$rm])*
        #[derive(Debug)]
        pub struct PipelineMetrics {
            $($( #[doc = $help] pub $field: $inst, )?)*
            $( $(#[$xm])* $xv $xf: $xt, )*
        }

        impl PipelineMetrics {
            /// A zeroed registry.
            pub fn new() -> PipelineMetrics {
                PipelineMetrics {
                    $($( $field: $inst::new($($arg)?), )?)*
                    $( $xf: $xe, )*
                }
            }

            /// Plain-data copy of every metric.
            pub fn snapshot(&self) -> MetricsSnapshot {
                let $m = self;
                MetricsSnapshot {
                    $(
                        $( $field: <$inst as FamilyMetric>::snap(&self.$field), )?
                        $( $field: {
                            let derive: fn(&PipelineMetrics) -> u64 = $derive;
                            derive(self)
                        }, )?
                    )*
                    $( $yf: $ye, )*
                }
            }
        }

        $(#[$sm])*
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsSnapshot {
            $( #[doc = $help] pub $field: snap_ty!($kind), )*
            $( $(#[$ym])* pub $yf: $yt, )*
        }

        /// Every pipeline-wide scalar, in Prometheus order.
        pub const SCALARS: &[Metric<MetricsSnapshot>] = &[$(
            Metric {
                prom: Some($prom),
                label: opt!($( ($lname, $lval) )?),
                kind: Kind::$kind,
                help: $help,
                json: (section::$sec, key_or!($($key)?, $field)),
                debug: opt!($( ($dpos, key_or!($($dkey)?, $field)) )?),
                value: scalar_value!($kind, $field),
            },
        )*];
    };
}

scalar_metrics! {
    /// The pipeline-wide metrics registry, shared by the analysis sink, the
    /// capture fan-in and the scrape endpoint through one `Arc`.
    ///
    /// The scalar fields are public so instrumentation sites pay exactly
    /// one atomic RMW with no accessor indirection; readers should go
    /// through [`PipelineMetrics::snapshot`]. Each scalar is declared once,
    /// as a row of [`SCALARS`], and documented by its help text.
    registry {
        /// Live QoE series, labeled per meeting and media type.
        pub qoe: QoeMetrics = QoeMetrics::new(QOE_SERIES_CAP),
        /// Per-source capture-side accounting, one entry per registered
        /// packet source (see [`PipelineMetrics::register_source`]).
        sources: Mutex<Vec<Arc<SourceMetrics>>> = Mutex::new(Vec::new()),
        /// Per-worker accounting on a distributed merge node, one entry
        /// per registered fragment worker (see
        /// [`PipelineMetrics::register_worker`]). Empty outside `merge`.
        workers: Mutex<Vec<Arc<WorkerMetrics>>> = Mutex::new(Vec::new()),
        /// The structured-tracing collector (disabled unless the CLI's
        /// `--trace` / `--self-profile` flags enable it). Shared here so
        /// every stage that already holds the metrics `Arc` can record
        /// spans without extra plumbing.
        pub trace: Arc<trace::TraceCollector> = Arc::new(trace::TraceCollector::new()),
        /// Registry creation time, the epoch of `zoom_uptime_seconds`.
        started: Instant = Instant::now(),
    }
    /// A point-in-time, plain-data copy of [`PipelineMetrics`], renderable
    /// as JSON or Prometheus text.
    snapshot |m| {
        /// Live QoE series, labeled per meeting and media type.
        qoe: QoeSnapshot = m.qoe.snapshot(),
        /// Capture-filter verdict counters, when the capture stage ran in
        /// the same process (`cli filter --metrics`).
        capture: Option<CaptureMetricsSnapshot> = None,
        /// Per-source capture accounting, one entry per registered packet
        /// source.
        sources: Vec<SourceSnapshot> =
            m.sources.lock().unwrap().iter().map(|s| s.snapshot()).collect(),
        /// Per-worker accounting on a distributed merge node, one entry per
        /// registered fragment worker (empty outside `merge`).
        workers: Vec<WorkerSnapshot> =
            m.workers.lock().unwrap().iter().map(|w| w.snapshot()).collect(),
        /// Seconds since the registry was created.
        uptime_seconds: u64 = m.uptime_seconds(),
    }
    rows {
        packets_in: Counter() => Counter json(TOP) debug(0) "zoom_packets_in_total" "Records offered to the analysis sink.";
        bytes_in: Counter() => Counter json(TOP) "zoom_bytes_in_total" "On-the-wire bytes (orig_len) across offered records.";
        packets_classified: Counter() => Counter json(TOP) "zoom_packets_classified_total" "Records classified as Zoom traffic.";
        packets_not_zoom: Counter() => Counter json(TOP) "zoom_packets_not_zoom_total" "Records dissected but not classified as Zoom.";
        malformed_zme: Counter() => Counter json(TOP) "zoom_malformed_zme_total" "Port-8801 UDP records whose Zoom Media Encapsulation failed to parse.";
        classified_webrtc: Counter() => Counter json(TOP) "zoom_classified_webrtc_total" "Records classified under the WebRTC family (DTLS, SRTP, SRTCP).";
        malformed_srtp: Counter() => Counter json(TOP) "zoom_malformed_srtp_total" "WebRTC-flow records whose DTLS-SRTP framing failed to parse.";
        drop_unsupported_link: Counter() => Counter json(DROPS, "unsupported_link") "zoom_dissect_drops_total" {"stage" = "unsupported_link"} "Records rejected by the dissector, by stage.";
        drop_non_ip: Counter() => Counter json(DROPS, "non_ip") "zoom_dissect_drops_total" {"stage" = "non_ip"} "Records rejected by the dissector, by stage.";
        drop_non_transport: Counter() => Counter json(DROPS, "non_transport") "zoom_dissect_drops_total" {"stage" = "non_transport"} "Records rejected by the dissector, by stage.";
        drop_truncated: Counter() => Counter json(DROPS, "truncated") "zoom_dissect_drops_total" {"stage" = "truncated"} "Records rejected by the dissector, by stage.";
        drop_malformed: Counter() => Counter json(DROPS, "malformed") "zoom_dissect_drops_total" {"stage" = "malformed"} "Records rejected by the dissector, by stage.";
        pcap_truncated_records: Gauge() => Gauge json(PCAP, "truncated_records") "zoom_pcap_truncated_records" "Records dropped at a torn pcap tail.";
        pcap_records_read: Gauge() => Gauge json(PCAP, "records_read") "zoom_pcap_records_read" "Complete records delivered by the pcap reader.";
        pcap_bytes_read: Gauge() => Gauge json(PCAP, "bytes_read") "zoom_pcap_bytes_read" "Captured bytes delivered by the pcap reader.";
        windows_closed: Counter() => Counter json(ENGINE) debug(3) "zoom_windows_closed_total" "Tumbling windows closed by the streaming engine.";
        checkpoints: Counter() => Counter json(ENGINE) "zoom_checkpoints_total" "Explicit checkpoints taken.";
        evicted_flows: Counter() => Counter json(ENGINE) debug(1) "zoom_evicted_flows_total" "Flows evicted by the idle timeout.";
        evicted_streams: Counter() => Counter json(ENGINE) debug(1) "zoom_evicted_streams_total" "Streams evicted by the idle timeout.";
        tracked_entries: Gauge() => Gauge json(ENGINE) debug(0) "zoom_tracked_entries" "Entries currently tracked.";
        peak_tracked_entries: Gauge() => Gauge json(ENGINE) debug(0) "zoom_peak_tracked_entries" "High-water mark of tracked entries.";
        trace_events <- |m| m.trace.event_counts().0 => Counter json(TRACE, "events") debug(0, "events") "zoom_trace_events_total" "Trace span events recorded by the collector.";
        trace_events_dropped <- |m| m.trace.event_counts().1 => Counter json(TRACE, "events_dropped") debug(0, "events_dropped") "zoom_trace_events_dropped_total" "Trace events dropped at the bounded export queue.";
        packet_size: Histogram(PACKET_SIZE_BOUNDS) => Histogram json(SIZE) "zoom_packet_size_bytes" "On-the-wire size distribution of offered records.";
        stage_push_nanos: Histogram(STAGE_LATENCY_BOUNDS) => Histogram json(STAGES, "push") "zoom_stage_latency_nanos" {"stage" = "push"} "Sampled wall-clock cost of pipeline stages.";
        stage_merge_nanos: Histogram(STAGE_LATENCY_BOUNDS) => Histogram json(STAGES, "merge") "zoom_stage_latency_nanos" {"stage" = "merge"} "Sampled wall-clock cost of pipeline stages.";
        stage_checkpoint_nanos: Histogram(STAGE_LATENCY_BOUNDS) => Histogram json(STAGES, "checkpoint") "zoom_stage_latency_nanos" {"stage" = "checkpoint"} "Sampled wall-clock cost of pipeline stages.";
    }
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

// Declares a family of per-instance rows once (one instance per capture
// source, or per fragment worker). Each row names the field, its
// instrument (and snapshot type, when not `u64`), kind, JSON form,
// `/debug/pipeline` rank and key, Prometheus name, and help text. The
// `keys` identify an instance. From the rows come the metrics struct, its
// plain-data snapshot, and the row table.
macro_rules! row_family {
    (
        $(#[$mm:meta])* $Metrics:ident;
        $(#[$sm:meta])* $Snap:ident;
        $(#[$tm:meta])* $ROWS:ident;
        keys { $( $(#[$km:meta])* $kf:ident: $kt:ty, )* }
        rows { $(
            $field:ident: $inst:ident $(as $snap:ty)? => $kind:ident $form:ident
            $(debug($dpos:literal $(, $dkey:literal)?))? $(prom($prom:literal))? $help:literal;
        )* }
    ) => {
        $(#[$mm])*
        #[derive(Debug)]
        pub struct $Metrics {
            $( $(#[$km])* $kf: $kt, )*
            $( #[doc = $help] pub $field: $inst, )*
        }

        impl $Metrics {
            fn new($($kf: $kt),*) -> $Metrics {
                $Metrics { $($kf,)* $($field: $inst::new(),)* }
            }

            fn snapshot(&self) -> $Snap {
                $Snap {
                    $($kf: Clone::clone(&self.$kf),)*
                    $($field: Raw::from_raw(self.$field.get()),)*
                }
            }
        }

        $(#[$sm])*
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub struct $Snap {
            $( $(#[$km])* pub $kf: $kt, )*
            $( #[doc = $help] pub $field: ty_or!($($snap)?), )*
        }

        $(#[$tm])*
        pub const $ROWS: &[Metric<$Snap>] = &[$(
            Metric {
                prom: opt!($($prom)?),
                label: None,
                kind: Kind::$kind,
                help: $help,
                json: (0, stringify!($field)),
                debug: opt!($( ($dpos, key_or!($($dkey)?, $field)) )?),
                value: Value::$form(|s| Raw::raw(s.$field)),
            },
        )*];
    };
}

row_family! {
    /// Capture-side accounting for one packet source feeding the pipeline.
    ///
    /// Registered on a [`PipelineMetrics`] via
    /// [`register_source`](PipelineMetrics::register_source); the fan-in
    /// lane reading the source keeps the returned `Arc` and bumps the
    /// counters lock-free. `packets` takes part in the conservation
    /// invariant: every record a source captured reaches the sink
    /// (`packets_in`) — the fan-in never drops. `delivered_ts_nanos` is
    /// what the per-source lag is read from: a lane whose timestamp trails
    /// the furthest-ahead lane is the one holding the deterministic
    /// `(ts, lane)` merge back.
    SourceMetrics;
    /// Plain-data copy of one source's capture-side counters.
    SourceSnapshot;
    /// The per-source rows, in Prometheus order.
    SOURCE_ROWS;
    keys {
        /// The source's display label (e.g. `pcap:trace.pcap`).
        label: String,
    }
    rows {
        packets: Counter => Counter Num debug(0) prom("zoom_source_packets_total") "Records pulled off each capture source.";
        bytes: Counter => Counter Num prom("zoom_source_bytes_total") "Captured bytes across each source's records.";
        batches: Counter => Counter Num prom("zoom_source_batches_total") "Batches each source handed to the fan-in.";
        delivered_ts_nanos: Gauge => Gauge Num debug(0) "Capture timestamp of the last record delivered from each source.";
    }
}

impl SourceMetrics {
    /// The source's display label (e.g. `pcap:trace.pcap` or `sim:p2p`).
    pub fn label(&self) -> &str {
        &self.label
    }
}

row_family! {
    /// Merge-node accounting for one fragment worker feeding the
    /// distributed tier (`docs/DISTRIBUTED.md`).
    ///
    /// Registered on a [`PipelineMetrics`] via
    /// [`register_worker`](PipelineMetrics::register_worker). The
    /// `packets`/`bytes`/`batches`/`ring_full_drops`/`truncated` values
    /// mirror the worker's **self-reported** capture-side totals (shipped
    /// in Accounting/Bye frames), while `records_received` counts what the
    /// merge node actually decoded off the wire — the two sides of the
    /// worker→merge conservation invariant
    /// `Σ worker packets == merge packets_in` (modulo accounted drops).
    /// `bytes_received` beside `bytes` is what shipping analysis prefixes
    /// saves. `link_state` holds one of the [`link_state`] constants.
    WorkerMetrics;
    /// Plain-data copy of one fragment worker's merge-side counters.
    WorkerSnapshot;
    /// The per-worker rows, in Prometheus order.
    WORKER_ROWS;
    keys {
        /// The worker's display label from its Hello frame.
        label: String,
    }
    rows {
        packets: Gauge => Counter Num debug(1, "packets_reported") prom("zoom_worker_packets_total") "Records each fragment worker reported capturing.";
        bytes: Gauge => Counter Num debug(3, "bytes_reported") prom("zoom_worker_bytes_total") "Captured bytes each fragment worker reported.";
        batches: Gauge => Counter Num "Batches each worker's fan-in reported handling.";
        ring_full_drops: Gauge => Counter Num debug(5) prom("zoom_worker_ring_full_drops_total") "Records each worker dropped at its own capture rings.";
        truncated: Gauge => Counter Num "Records each worker's sources dropped at torn pcap tails.";
        records_received: Counter => Counter Num debug(2) prom("zoom_worker_records_received_total") "Records the merge node decoded from each worker's stream.";
        bytes_received: Gauge => Counter Num debug(4) prom("zoom_worker_bytes_received_total") "Record bytes the merge node decoded from each worker's stream.";
        complete: Gauge as bool => Gauge Flag debug(6) prom("zoom_worker_complete") "1 once a worker's stream ended with a proper Bye frame.";
        link_state: Gauge => Gauge LinkState debug(0) prom("zoom_worker_link_state") "Worker stream state: 0 pending, 1 streaming, 2 done, 3 error.";
    }
}

impl WorkerMetrics {
    /// The worker's display label from its Hello frame.
    pub fn label(&self) -> &str {
        &self.label
    }
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

impl Default for PipelineMetrics {
    fn default() -> PipelineMetrics {
        PipelineMetrics::new()
    }
}

impl PipelineMetrics {
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
        let m = Arc::new(WorkerMetrics::new(label.to_string()));
        self.workers.lock().unwrap().push(Arc::clone(&m));
        m
    }

    /// Registers a packet source and returns its zeroed counter block.
    ///
    /// Called once per source at capture start (off the hot path, hence
    /// the mutex); the fan-in then updates the returned counters
    /// lock-free. Sources appear in [`MetricsSnapshot::sources`] in
    /// registration order and, once any source is registered, the
    /// conservation invariant additionally checks that every captured
    /// record reached the sink.
    pub fn register_source(&self, label: &str) -> Arc<SourceMetrics> {
        let m = Arc::new(SourceMetrics::new(label.to_string()));
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

    /// The `/debug/pipeline` introspection payload: one JSON object of
    /// live operational state — progress and lag per source,
    /// table sizes and eviction pressure,
    /// worker link states, and the trace collector's own health. This is
    /// the "where is it stuck right now" view, complementing the
    /// cumulative `/metrics` families.
    pub fn debug_json(&self) -> String {
        let s = self.snapshot();
        // A scalar shows in the object of its JSON section, by rank.
        let scalars = |sec: u8| {
            let mut rows: Vec<(u8, &'static str, u64)> = SCALARS
                .iter()
                .filter(|r| r.json.0 == sec)
                .filter_map(|r| Some((r.debug?, r.num(&s)?)))
                .map(|((rank, key), v)| (rank, key, v))
                .collect();
            rows.sort_by_key(|row| row.0);
            rows
        };
        let sources = json_array(s.sources.iter().map(|src| {
            let mut o = row_object(
                SOURCE_ROWS,
                src,
                |r| r.debug,
                |o| {
                    o.str("source", &src.label);
                },
            );
            o.u64("lag_nanos", s.lag_nanos(src));
            o.finish()
        }));
        let workers = json_array(s.workers.iter().map(|w| {
            row_object(
                WORKER_ROWS,
                w,
                |r| r.debug,
                |o| {
                    o.str("worker", &w.label);
                },
            )
            .finish()
        }));

        let mut table_rows = scalars(section::ENGINE);
        table_rows.push((2, "qoe_series_evicted", s.qoe.series_evicted_total()));
        table_rows.sort_by_key(|row| row.0);
        let mut tables = JsonObj::new();
        for (_, key, v) in table_rows {
            tables.u64(key, v);
        }

        let mut trace_obj = JsonObj::new();
        trace_obj
            .bool("enabled", self.trace.is_enabled())
            .str("node", self.trace.node())
            .u64("sample_every", self.trace.sample_period());
        for (_, key, v) in scalars(section::TRACE) {
            trace_obj.u64(key, v);
        }

        let mut o = JsonObj::new();
        o.str("type", "debug_pipeline")
            .raw("build", &build_json())
            .u64("uptime_seconds", s.uptime_seconds);
        for (_, key, v) in scalars(section::TOP) {
            o.u64(key, v);
        }
        o.bool("conservation_holds", s.conservation_holds())
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
    (
        env!("CARGO_PKG_VERSION"),
        option_env!("ZOOM_GIT_SHA").unwrap_or("unknown"),
        if cfg!(feature = "obs-http") {
            "obs-http"
        } else {
            ""
        },
    )
}

/// The `"build"` object of the JSON renders.
fn build_json() -> String {
    let (version, git_sha, features) = build_info();
    let mut o = JsonObj::new();
    o.str("version", version)
        .str("git_sha", git_sha)
        .str("features", features);
    o.finish()
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

/// The capture filter's rows, in Prometheus order: the verdicts under one
/// family, then the totals. `total` leads the JSON object (rank 0).
pub const CAPTURE_ROWS: &[Metric<CaptureMetricsSnapshot>] = &[
    verdict("excluded", |c| c.excluded),
    verdict("zoom_ip_matched", |c| c.zoom_ip_matched),
    verdict("stun_registered", |c| c.stun_registered),
    verdict("p2p_matched", |c| c.p2p_matched),
    verdict("rtc_stun_registered", |c| c.rtc_stun_registered),
    verdict("rtc_p2p_matched", |c| c.rtc_p2p_matched),
    verdict("dropped", |c| c.dropped),
    verdict("unparseable", |c| c.unparseable),
    capture_total(
        0,
        "total",
        "zoom_capture_packets_total",
        "Packets offered to the capture filter.",
        |c| c.total,
    ),
    capture_total(
        1,
        "passed",
        "zoom_capture_passed_total",
        "Packets that reached the capture output.",
        |c| c.passed,
    ),
    capture_total(
        1,
        "passed_bytes",
        "zoom_capture_passed_bytes_total",
        "Bytes across passing packets.",
        |c| c.passed_bytes,
    ),
    capture_total(
        1,
        "total_bytes",
        "zoom_capture_bytes_total",
        "Bytes across all offered packets.",
        |c| c.total_bytes,
    ),
];

/// A capture-filter verdict row of `zoom_capture_verdicts_total{stage}`.
const fn verdict(
    stage: &'static str,
    get: fn(&CaptureMetricsSnapshot) -> u64,
) -> Metric<CaptureMetricsSnapshot> {
    Metric {
        prom: Some("zoom_capture_verdicts_total"),
        label: Some(("stage", stage)),
        kind: Kind::Counter,
        help: "Capture-filter verdicts, by stage.",
        json: (1, stage),
        debug: None,
        value: Value::Num(get),
    }
}

/// A capture-filter total, a family of its own.
const fn capture_total(
    rank: u8,
    key: &'static str,
    prom: &'static str,
    help: &'static str,
    get: fn(&CaptureMetricsSnapshot) -> u64,
) -> Metric<CaptureMetricsSnapshot> {
    Metric {
        prom: Some(prom),
        label: None,
        kind: Kind::Counter,
        help,
        json: (rank, key),
        debug: None,
        value: Value::Num(get),
    }
}

impl MetricsSnapshot {
    /// Sum of the dissect-stage drop counters.
    pub fn drops_total(&self) -> u64 {
        let drops = SCALARS.iter().filter(|r| r.json.0 == section::DROPS);
        drops.filter_map(|r| r.num(self)).sum()
    }

    /// Sum of records captured across all registered sources.
    pub fn source_packets_total(&self) -> u64 {
        self.sources.iter().map(|s| s.packets).sum()
    }

    /// Sum of records all registered fragment workers reported capturing.
    pub fn worker_packets_total(&self) -> u64 {
        self.workers.iter().map(|w| w.packets).sum()
    }

    /// Sum of records the merge node decoded across all worker streams.
    pub fn worker_records_received_total(&self) -> u64 {
        self.workers.iter().map(|w| w.records_received).sum()
    }

    /// Trace-time lag of `src` behind the furthest-ahead source lane.
    fn lag_nanos(&self, src: &SourceSnapshot) -> u64 {
        let lead = self.sources.iter().map(|s| s.delivered_ts_nanos).max();
        lead.unwrap_or(0).saturating_sub(src.delivered_ts_nanos)
    }

    /// The conservation invariant every sink maintains once ingest has
    /// quiesced: every offered record is classified, counted not-Zoom, or
    /// attributed to exactly one drop stage. When capture sources are
    /// registered the invariant extends upstream: the fan-in never drops,
    /// so every captured record reached the sink —
    /// `Σ source_packets == packets_in`.
    /// When fragment workers feed a merge node the ledger extends one
    /// more hop upstream: every record a worker reported capturing was
    /// either decoded at the merge (`records_received`) or reported
    /// dropped by the worker, and everything decoded reached the sink —
    /// `Σ worker packets == merge packets_in` when nothing drops anywhere.
    pub fn conservation_holds(&self) -> bool {
        let sink_ok =
            self.packets_in == self.packets_classified + self.packets_not_zoom + self.drops_total();
        let capture_ok = self.sources.is_empty() || self.source_packets_total() == self.packets_in;
        let workers_ok = self.workers.is_empty()
            || (self
                .workers
                .iter()
                .all(|w| w.packets == w.records_received + w.ring_full_drops)
                && self.worker_records_received_total() == self.packets_in);
        sink_ok && capture_ok && workers_ok
    }

    /// Serialize as one NDJSON-friendly line, tagged `"type":"metrics"`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("type", "metrics")
            .raw("build", &build_json())
            .u64("uptime_seconds", self.uptime_seconds);
        for (sec, nest) in (0..).zip(JSON_SECTIONS) {
            let rows = SCALARS.iter().filter(|r| r.json.0 == sec);
            match nest {
                Some(key) => {
                    let mut inner = JsonObj::new();
                    rows.for_each(|r| r.put_json(&mut inner, r.json.1, self));
                    o.raw(key, &inner.finish());
                }
                None => rows.for_each(|r| r.put_json(&mut o, r.json.1, self)),
            }
            if sec == section::DROPS {
                o.bool("conservation_holds", self.conservation_holds());
            }
        }
        o.raw("qoe", &self.qoe.to_json());
        if let Some(c) = &self.capture {
            o.raw(
                "capture",
                &row_object(CAPTURE_ROWS, c, |r| Some(r.json), |_| {}).finish(),
            );
        }
        if !self.sources.is_empty() {
            let sources = self.sources.iter().map(|s| {
                row_object(
                    SOURCE_ROWS,
                    s,
                    |r| Some(r.json),
                    |o| {
                        o.str("source", &s.label);
                    },
                )
                .finish()
            });
            o.raw("sources", &json_array(sources));
        }
        if !self.workers.is_empty() {
            let workers = self.workers.iter().map(|w| {
                row_object(
                    WORKER_ROWS,
                    w,
                    |r| Some(r.json),
                    |o| {
                        o.str("worker", &w.label);
                    },
                )
                .finish()
            });
            o.raw("workers", &json_array(workers));
        }
        o.finish()
    }

    /// Render in the Prometheus text exposition format (version 0.0.4):
    /// `# HELP` / `# TYPE` per family, `zoom_`-prefixed names, and
    /// cumulative `_bucket{le=...}` histogram series.
    pub fn to_prom(&self) -> String {
        let mut out = String::with_capacity(4096);
        let (version, git_sha, features) = build_info();
        let build = prom_labels(
            &["version", "git_sha", "features"],
            &[version, git_sha, features],
        );
        prom_header(
            &mut out,
            "zoom_build_info",
            Kind::Gauge,
            "Build metadata; the value is always 1.",
        );
        prom_line(&mut out, "zoom_build_info", &build, 1);
        let uptime = "zoom_uptime_seconds";
        prom_header(
            &mut out,
            uptime,
            Kind::Gauge,
            "Seconds since the metrics registry was created.",
        );
        prom_line(&mut out, uptime, "", self.uptime_seconds);

        prom_rows(&mut out, SCALARS, &[(String::new(), self)]);
        self.qoe.render_prom(&mut out);
        if let Some(c) = &self.capture {
            prom_rows(&mut out, CAPTURE_ROWS, &[(String::new(), c)]);
        }
        if !self.sources.is_empty() {
            let items: Vec<_> = (self.sources.iter())
                .map(|s| (prom_labels(&["source"], &[&s.label]), s))
                .collect();
            prom_rows(&mut out, SOURCE_ROWS, &items);
            let lag = "zoom_source_lag_nanos";
            prom_header(
                &mut out,
                lag,
                Kind::Gauge,
                "Trace-time lag of each source lane behind the furthest-ahead lane.",
            );
            for (labels, s) in &items {
                prom_line(&mut out, lag, labels, self.lag_nanos(s));
            }
        }
        if !self.workers.is_empty() {
            let items: Vec<_> = (self.workers.iter())
                .map(|w| (prom_labels(&["worker"], &[&w.label]), w))
                .collect();
            prom_rows(&mut out, WORKER_ROWS, &items);
        }
        out
    }
}

/// The metric tables of `docs/OBSERVABILITY.md` § "Metric catalogue",
/// rendered from the declarations between the markers the doc carries
/// (a unit test holds the doc to this): JSON path, Prometheus series,
/// kind and help of every declared metric.
pub fn catalogue_markdown() -> String {
    let mut out = String::from("<!-- generated: metric catalogue -->\n");
    catalogue_table(
        &mut out,
        "Pipeline (`MetricsSnapshot`)",
        SCALARS,
        "",
        |r| match JSON_SECTIONS[usize::from(r.json.0)] {
            Some(section) => format!("{section}.{}", r.json.1),
            None => r.json.1.to_string(),
        },
    );
    catalogue_table(
        &mut out,
        "Capture sources, one row each",
        SOURCE_ROWS,
        "source",
        |r| format!("sources[i].{}", r.json.1),
    );
    catalogue_table(
        &mut out,
        "Fragment workers (merge node), one row each",
        WORKER_ROWS,
        "worker",
        |r| format!("workers[i].{}", r.json.1),
    );
    catalogue_table(
        &mut out,
        "Capture filter (`filter`, `capture`)",
        CAPTURE_ROWS,
        "",
        |r| format!("capture.{}", r.json.1),
    );
    out.push_str("\n### QoE series (labeled)\n\n| JSON | Prometheus | kind | help |\n");
    out.push_str("|------|------------|------|------|\n");
    for f in QOE_FAMILIES {
        let (json, prom, labels) = (f.json, f.prom, f.labels.join(","));
        let _ = writeln!(
            out,
            "| `qoe.{json}` | `{prom}{{{labels}}}` | {} | {} |",
            f.kind.as_str(),
            f.help
        );
    }
    out.push_str("\n<!-- end generated -->\n");
    out
}

/// One catalogue table: `instance` names the label every series of the
/// table carries (empty for none), `json` spells a row's JSON path.
fn catalogue_table<S>(
    out: &mut String,
    title: &str,
    rows: &[Metric<S>],
    instance: &str,
    json: impl Fn(&Metric<S>) -> String,
) {
    let _ = write!(
        out,
        "\n### {title}\n\n| JSON | Prometheus | kind | help |\n"
    );
    out.push_str("|------|------------|------|------|\n");
    for r in rows {
        let prom = match (r.prom, r.label) {
            (None, _) => "—".to_string(),
            (Some(name), Some((k, v))) => format!("`{name}{{{k}=\"{v}\"}}`"),
            (Some(name), None) if instance.is_empty() => format!("`{name}`"),
            (Some(name), None) => format!("`{name}{{{instance}}}`"),
        };
        let _ = writeln!(
            out,
            "| `{}` | {prom} | {} | {} |",
            json(r),
            r.kind.as_str(),
            r.help
        );
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

        let tap = m.register_source("pcap:a.pcap");
        let live = m.register_source("sim:p2p");
        // tap captured 3 records and live 3; all reached the sink.
        tap.packets.add(3);
        tap.bytes.add(300);
        tap.batches.inc();
        live.packets.add(3);
        live.bytes.add(300);
        live.batches.add(2);
        for _ in 0..6 {
            m.record_in(100);
        }
        m.packets_classified.add(5);
        m.packets_not_zoom.inc();

        let s = m.snapshot();
        assert_eq!(s.source_packets_total(), 6);
        // 6 captured == 6 offered to the sink, and the sink-side ledger
        // balances too.
        assert!(s.conservation_holds());

        let prom = s.to_prom();
        assert!(prom.contains("zoom_source_packets_total{source=\"pcap:a.pcap\"} 3"));
        assert!(prom.contains("zoom_source_batches_total{source=\"sim:p2p\"} 2"));
        let json = s.to_json();
        assert!(json.contains("\"sources\":[{\"source\":\"pcap:a.pcap\",\"packets\":3,"));
        assert!(json.contains("{\"source\":\"sim:p2p\",\"packets\":3,\"bytes\":300,\"batches\":2,"));

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
# HELP zoom_bytes_in_total On-the-wire bytes (orig_len) across offered records.
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
# HELP zoom_tracked_entries Entries currently tracked.
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
# HELP zoom_packet_size_bytes On-the-wire size distribution of offered records.
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

    /// A registry with every section populated: two sources with
    /// different delivered timestamps, two workers in
    /// different link states, every capture verdict, all six QoE
    /// families (one with a cap eviction and an escaped label), drops,
    /// pcap gauges, engine counters, histograms and trace events.
    fn populated() -> (PipelineMetrics, CaptureMetricsSnapshot) {
        let mut m = PipelineMetrics::new();
        m.qoe = QoeMetrics::new(2);
        for len in [40, 64, 90, 128, 300, 600, 1000, 1200, 1400, 1500, 2000] {
            m.record_in(len);
        }
        m.packets_classified.add(4);
        m.classified_webrtc.inc();
        m.packets_not_zoom.add(2);
        m.malformed_zme.inc();
        m.malformed_srtp.inc();
        for stage in [
            DropStage::UnsupportedLink,
            DropStage::NonIp,
            DropStage::NonTransport,
            DropStage::Truncated,
            DropStage::Malformed,
        ] {
            m.record_drop(stage);
        }
        m.pcap_truncated_records.set(1);
        m.pcap_records_read.set(11);
        m.pcap_bytes_read.set(9_022);
        m.windows_closed.add(3);
        m.checkpoints.inc();
        m.evicted_flows.add(2);
        m.evicted_streams.add(4);
        m.tracked_entries.set(5);
        m.peak_tracked_entries.set_max(9);
        m.stage_push_nanos.observe(5_000);
        m.stage_merge_nanos.observe(2_000_000);
        m.stage_checkpoint_nanos.observe(50);

        let file = m.register_source("pcap:a.pcap");
        file.packets.add(6);
        file.bytes.add(4_000);
        file.batches.inc();
        file.delivered_ts_nanos.set(1_000);
        let tap = m.register_source("sim:p2p");
        tap.packets.add(5);
        tap.bytes.add(5_022);
        tap.batches.add(3);
        tap.delivered_ts_nanos.set(400);

        let done = m.register_worker("box-a");
        done.packets.set(6);
        done.bytes.set(4_000);
        done.batches.set(1);
        done.records_received.add(6);
        done.bytes_received.set(700);
        done.complete.set(1);
        done.link_state.set(link_state::DONE);
        let live = m.register_worker("box-b");
        live.packets.set(6);
        live.bytes.set(5_100);
        live.batches.set(2);
        live.ring_full_drops.set(1);
        live.truncated.set(1);
        live.records_received.add(5);
        live.bytes_received.set(800);
        live.link_state.set(link_state::STREAMING);

        for meeting in ["1", "2", "3"] {
            m.qoe
                .bitrate_bps
                .with(&[meeting, "video", "zoom"], |g| g.set(640_000.5));
        }
        m.qoe.fps.with(&["3", "video", "zoom"], |g| g.set(29.97));
        m.qoe
            .jitter_ms
            .with(&["3", "audio", "webrtc"], |g| g.set(4.25));
        m.qoe
            .frame_size_bytes
            .with(&["video", "zoom"], |h| h.observe(1_200));
        m.qoe
            .retransmissions
            .with(&["3", "video", "zoom"], |c| c.add(2));
        m.qoe.degraded.with(&["3", "weird\\\"kind\n"], |g| g.set(1));
        m.qoe.estimated_rtt_ms.set(23.5);

        m.trace.enable(4, "merge");
        let id = m.trace.sample().expect("sampling enabled");
        m.trace.record(id, trace::spans::DISSECT, "engine", 7, 120);

        let capture = CaptureMetricsSnapshot {
            total: 100,
            excluded: 1,
            zoom_ip_matched: 2,
            stun_registered: 3,
            p2p_matched: 4,
            rtc_stun_registered: 5,
            rtc_p2p_matched: 6,
            dropped: 7,
            unparseable: 8,
            passed: 20,
            passed_bytes: 2_000,
            total_bytes: 9_000,
        };
        (m, capture)
    }

    /// The pinned renders carry `@VERSION@` / `@GIT_SHA@` / `@FEATURES@`
    /// where the build identity goes, since that tracks the crate version
    /// and the baked-in SHA.
    fn with_build_info(pinned: &str) -> String {
        let (version, git_sha, features) = build_info();
        pinned
            .replace("@VERSION@", version)
            .replace("@GIT_SHA@", git_sha)
            .replace("@FEATURES@", features)
    }

    /// Every render of a fully populated registry, pinned byte for byte:
    /// a reordered, renamed or missing row is a reviewed diff.
    #[test]
    fn full_renders_are_pinned() {
        let (m, capture) = populated();
        let mut s = m.snapshot();
        s.capture = Some(capture);
        assert_eq!(
            s.to_prom(),
            with_build_info(include_str!("obs/pinned/full.prom"))
        );
        assert_eq!(
            s.to_json(),
            with_build_info(include_str!("obs/pinned/full.json").trim_end())
        );
        assert_eq!(
            m.debug_json(),
            with_build_info(include_str!("obs/pinned/debug.json").trim_end())
        );
    }

    /// The doc's metric tables are the declarations, rendered: edit a
    /// row's help text and this fails until the doc block is replaced.
    #[test]
    fn doc_catalogue_is_generated_from_the_declarations() {
        let doc = include_str!("../../../docs/OBSERVABILITY.md");
        let expected = catalogue_markdown();
        assert!(
            doc.contains(&expected),
            "docs/OBSERVABILITY.md § \"Metric catalogue\" is out of date; \
             replace its generated block with:\n{expected}"
        );
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

    /// Pin the exposition-format escaping of user-supplied label values:
    /// worker labels and source specs arrive from the command line, so a
    /// path containing `\`, `"`, or a newline must render as the escape
    /// sequences Prometheus's parser expects, never raw.
    #[test]
    fn prom_label_values_are_escaped() {
        let m = PipelineMetrics::new();
        let src = m.register_source("pcap:C:\\traces\\a \"prod\" run\n.pcap");
        src.packets.inc();
        let w = m.register_worker("box\\one\"two\nthree");
        w.packets.set(1);
        m.qoe.degraded.with(&["5", "weird\\\"kind\n"], |g| g.set(1));
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
        let src = m.register_source("pcap:a.pcap");
        src.packets.add(3);
        src.delivered_ts_nanos.set(1_000);
        let lagging = m.register_source("pcap:b.pcap");
        lagging.delivered_ts_nanos.set(400);
        let w = m.register_worker("box-a");
        w.link_state.set(link_state::STREAMING);
        m.trace.enable(4, "merge");

        let json = m.debug_json();
        for key in [
            "\"type\":\"debug_pipeline\"",
            "\"build\":{\"version\":",
            "{\"source\":\"pcap:a.pcap\",\"packets\":3,\"delivered_ts_nanos\":1000,",
            "{\"source\":\"pcap:b.pcap\",\"packets\":0,\"delivered_ts_nanos\":400,",
            "\"lag_nanos\":600",
            "\"link_state\":\"streaming\"",
            "\"tables\":{\"tracked_entries\":0",
            "\"trace\":{\"enabled\":true,\"node\":\"merge\",\"sample_every\":4",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }
}

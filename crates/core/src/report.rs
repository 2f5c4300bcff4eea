//! Owned analysis reports and their JSON serialization.
//!
//! [`AnalysisReport`] is the value-typed result of a finished analysis —
//! trace summary, per-meeting breakdown, per-stream metrics, and RTT
//! summaries — returned by [`crate::sink::PacketSink::finish`] on either
//! sink instead of a borrow of the analyzer itself. [`WindowReport`] is the per-window variant the
//! [`crate::engine::StreamingEngine`] emits while a trace is still
//! flowing: per-stream *deltas* over one tumbling window plus
//! meeting-level rollups, mirroring a live Table 6 row.
//!
//! Serialization is hand-rolled JSON (the workspace takes no external
//! dependencies): deterministic field order, sorted collections, and
//! integer-domain aggregation wherever exactness matters, so two reports
//! built from the same underlying state serialize byte-identically — the
//! property `tests/streaming_differential.rs` leans on.

use crate::classify::TableRow;
use crate::meeting::MeetingReport;
use crate::packet::Direction;
use crate::pipeline::{Analyzer, TraceSummary};
use crate::stream::{Stream, StreamKey};
use std::borrow::BorrowMut;
use std::fmt::Write as _;
use zoom_wire::family::FamilyId;
use zoom_wire::zoom::MediaType;

// ---------------------------------------------------------------- JSON --

/// Minimal JSON object writer: deterministic field order, no trailing
/// commas, numbers via Rust's shortest round-trip `Display`. Writes into
/// a buffer it owns ([`JsonObj::new`]) or appends to the caller's
/// ([`JsonObj::append_to`]); either way values are formatted in place, with
/// no intermediate strings.
pub(crate) struct JsonObj<B = String> {
    buf: B,
    first: bool,
}

impl JsonObj {
    pub(crate) fn new() -> JsonObj {
        JsonObj::append_to(String::new())
    }
}

impl<B: BorrowMut<String>> JsonObj<B> {
    /// Open an object at the end of `buf` (a `String` or a `&mut String`);
    /// [`finish`](Self::finish) closes it and hands `buf` back.
    pub(crate) fn append_to(mut buf: B) -> JsonObj<B> {
        buf.borrow_mut().push('{');
        JsonObj { buf, first: true }
    }

    /// Write `"k":` and hand out the buffer for the value.
    fn key(&mut self, k: &str) -> &mut String {
        let buf = self.buf.borrow_mut();
        if !self.first {
            buf.push(',');
        }
        self.first = false;
        buf.push('"');
        buf.push_str(k);
        buf.push_str("\":");
        buf
    }

    pub(crate) fn u64(&mut self, k: &str, v: u64) -> &mut Self {
        let _ = write!(self.key(k), "{v}");
        self
    }

    pub(crate) fn usize(&mut self, k: &str, v: usize) -> &mut Self {
        self.u64(k, v as u64)
    }

    pub(crate) fn f64(&mut self, k: &str, v: f64) -> &mut Self {
        let buf = self.key(k);
        if v.is_finite() {
            let _ = write!(buf, "{v}");
        } else {
            buf.push_str("null");
        }
        self
    }

    /// A string field holding `v` — a `&str`, or anything else's `Display`
    /// form — escaped as it is written.
    pub(crate) fn str(&mut self, k: &str, v: impl std::fmt::Display) -> &mut Self {
        let buf = self.key(k);
        buf.push('"');
        let _ = write!(Escaped(buf), "{v}");
        buf.push('"');
        self
    }

    /// Insert pre-serialized JSON (an array or nested object) verbatim.
    pub(crate) fn raw(&mut self, k: &str, v: &str) -> &mut Self {
        self.key(k).push_str(v);
        self
    }

    /// A field whose value `write` appends to the buffer itself (a nested
    /// object or array serialized in place).
    pub(crate) fn nested(&mut self, k: &str, write: impl FnOnce(&mut String)) -> &mut Self {
        write(self.key(k));
        self
    }

    pub(crate) fn opt_u32(&mut self, k: &str, v: Option<u32>) -> &mut Self {
        let buf = self.key(k);
        match v {
            Some(v) => {
                let _ = write!(buf, "{v}");
            }
            None => buf.push_str("null"),
        }
        self
    }

    pub(crate) fn bool(&mut self, k: &str, v: bool) -> &mut Self {
        self.key(k).push_str(if v { "true" } else { "false" });
        self
    }

    pub(crate) fn finish(mut self) -> B {
        self.buf.borrow_mut().push('}');
        self.buf
    }
}

/// JSON string escaping as a `fmt::Write` adapter.
struct Escaped<'a>(&'a mut String);

impl std::fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for c in s.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                c if (c as u32) < 0x20 => write!(self.0, "\\u{:04x}", c as u32)?,
                c => self.0.push(c),
            }
        }
        Ok(())
    }
}

fn json_array(items: impl IntoIterator<Item = String>) -> String {
    let mut buf = String::new();
    write_json_array(&mut buf, items, |buf, item| buf.push_str(&item));
    buf
}

/// Append `[item,item,…]`, each item serialized in place by `write`.
fn write_json_array<T>(
    buf: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    buf.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            buf.push(',');
        }
        write(buf, item);
    }
    buf.push(']');
}

// ------------------------------------------------------------- reports --

/// Order-independent summary of a set of RTT samples.
///
/// Aggregation happens in the integer nanosecond domain (sum of `u64`,
/// then one division), so the result is bit-identical regardless of the
/// order samples were collected in — the batch and streaming paths
/// collect them in different orders.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RttSummaryReport {
    /// Number of samples.
    pub samples: usize,
    /// Mean RTT, milliseconds.
    pub mean_ms: f64,
    /// Median RTT, milliseconds (nearest rank).
    pub p50_ms: f64,
    /// 95th-percentile RTT, milliseconds (nearest rank).
    pub p95_ms: f64,
}

impl RttSummaryReport {
    /// Summarize a slice of samples (any order).
    pub fn from_samples(samples: &[crate::metrics::latency::RttSample]) -> RttSummaryReport {
        let mut nanos: Vec<u64> = samples.iter().map(|s| s.rtt_nanos).collect();
        nanos.sort_unstable();
        let n = nanos.len();
        if n == 0 {
            return RttSummaryReport {
                samples: 0,
                mean_ms: 0.0,
                p50_ms: 0.0,
                p95_ms: 0.0,
            };
        }
        let sum: u128 = nanos.iter().map(|&v| u128::from(v)).sum();
        let rank = |q: f64| nanos[((n - 1) as f64 * q).round() as usize] as f64 / 1e6;
        RttSummaryReport {
            samples: n,
            mean_ms: (sum / n as u128) as f64 / 1e6,
            p50_ms: rank(0.5),
            p95_ms: rank(0.95),
        }
    }

    fn to_json(self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    fn write_json(self, out: &mut String) {
        let mut o = JsonObj::append_to(out);
        o.usize("samples", self.samples)
            .f64("mean_ms", self.mean_ms)
            .f64("p50_ms", self.p50_ms)
            .f64("p95_ms", self.p95_ms);
        o.finish();
    }
}

/// Whole-trace metrics of one media stream (one row of the per-stream
/// report; an evicted stream that reappeared contributes one row per
/// tracked fragment).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// The stream's identity: (flow, SSRC).
    pub key: StreamKey,
    /// Zoom media encapsulation type (or its WebRTC mapping).
    pub media_type: MediaType,
    /// Uplink/downlink orientation.
    pub direction: Direction,
    /// Protocol family that produced the stream. Serialized only when
    /// not [`FamilyId::Zoom`], keeping Zoom-only reports byte-identical
    /// to the pre-family format.
    pub family: FamilyId,
    /// Identifier shared by all copies of the same media (grouping
    /// step 1).
    pub unique_id: Option<u32>,
    /// Canonical meeting id (grouping step 2).
    pub meeting: Option<u32>,
    /// First packet timestamp, nanoseconds.
    pub first_seen_nanos: u64,
    /// Last packet timestamp, nanoseconds.
    pub last_seen_nanos: u64,
    /// Packets observed.
    pub packets: u64,
    /// Media payload bytes across sub-streams.
    pub media_bytes: u64,
    /// Reconstructed frames (video/screen-share streams).
    pub frames: u64,
    /// Mean media bit rate over the stream's lifetime, bits/s.
    pub mean_bitrate_bps: f64,
    /// Frame-level jitter estimate, milliseconds.
    pub jitter_ms: f64,
    /// Sequence numbers confirmed missing, summed over sub-streams.
    pub lost: u64,
    /// Duplicate (retransmitted) packets, summed over sub-streams.
    pub duplicates: u64,
    /// True when this row was flushed by the streaming engine's idle
    /// eviction rather than at end of trace.
    pub evicted: bool,
}

impl StreamReport {
    /// `meeting` is the stream's canonical meeting id as of now.
    pub(crate) fn from_stream(s: &Stream, meeting: Option<u32>, evicted: bool) -> StreamReport {
        let (lost, duplicates) = s.seq_totals();
        StreamReport {
            key: s.key,
            media_type: s.media_type,
            direction: s.direction,
            family: s.family,
            unique_id: s.unique_id,
            meeting,
            first_seen_nanos: s.first_seen,
            last_seen_nanos: s.last_seen,
            packets: s.packets,
            media_bytes: s.media_bytes(),
            frames: s.frames.as_ref().map(|f| f.frames().len()).unwrap_or(0) as u64,
            mean_bitrate_bps: s.mean_media_bitrate(),
            jitter_ms: s.frame_jitter.jitter_ms(),
            lost,
            duplicates,
            evicted,
        }
    }

    fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("flow", self.key.flow)
            .u64("ssrc", u64::from(self.key.ssrc))
            .str("media", self.media_type.label());
        if self.family != FamilyId::Zoom {
            o.str("family", self.family.label());
        }
        o.str("direction", direction_label(self.direction))
            .opt_u32("unique_id", self.unique_id)
            .opt_u32("meeting", self.meeting)
            .u64("first_seen_nanos", self.first_seen_nanos)
            .u64("last_seen_nanos", self.last_seen_nanos)
            .u64("packets", self.packets)
            .u64("media_bytes", self.media_bytes)
            .u64("frames", self.frames)
            .f64("mean_bitrate_bps", self.mean_bitrate_bps)
            .f64("jitter_ms", self.jitter_ms)
            .u64("lost", self.lost)
            .u64("duplicates", self.duplicates)
            .bool("evicted", self.evicted);
        o.finish()
    }
}

fn direction_label(d: Direction) -> &'static str {
    match d {
        Direction::ToServer => "up",
        Direction::FromServer => "down",
        Direction::Unknown => "unknown",
    }
}

fn meeting_to_json(m: &MeetingReport) -> String {
    let mut clients: Vec<String> = m.clients.iter().map(|ip| ip.to_string()).collect();
    clients.sort();
    let mut servers: Vec<String> = m.servers.iter().map(|ip| ip.to_string()).collect();
    servers.sort();
    let mut o = JsonObj::new();
    o.u64("id", u64::from(m.id))
        .usize("participant_estimate", m.participant_estimate)
        .raw(
            "stream_uids",
            &json_array(m.stream_uids.iter().map(|u| u.to_string())),
        )
        .raw(
            "clients",
            &json_array(clients.into_iter().map(|s| format!("\"{s}\""))),
        )
        .raw(
            "servers",
            &json_array(servers.into_iter().map(|s| format!("\"{s}\""))),
        )
        .usize("streams", m.streams.len());
    o.finish()
}

fn summary_to_json(s: &TraceSummary) -> String {
    let mut o = JsonObj::new();
    o.u64("total_packets", s.total_packets)
        .u64("zoom_packets", s.zoom_packets)
        .u64("zoom_bytes", s.zoom_bytes);
    // Emitted only when the WebRTC family classified traffic, so Zoom-only
    // summaries keep the pre-family byte layout.
    if s.webrtc_packets > 0 {
        o.u64("webrtc_packets", s.webrtc_packets)
            .u64("webrtc_bytes", s.webrtc_bytes);
    }
    o.usize("zoom_flows", s.zoom_flows)
        .usize("rtp_streams", s.rtp_streams)
        .usize("meetings", s.meetings)
        .u64("duration_nanos", s.duration_nanos);
    o.finish()
}

/// Per-stage drop accounting surfaced in the final report (the same
/// counters [`crate::obs::MetricsSnapshot`] exposes, pinned here so lossy
/// inputs are visible in the report itself, not just on stderr).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DropsReport {
    /// Torn trailing records the pcap reader discarded.
    pub pcap_truncated: u64,
    /// Records on a link type the dissector does not support.
    pub unsupported_link: u64,
    /// Ethernet frames carrying a non-IP ethertype.
    pub non_ip: u64,
    /// IP packets that are neither UDP nor TCP.
    pub non_transport: u64,
    /// Records cut short mid-header.
    pub truncated: u64,
    /// Structurally invalid headers (bad version, length, checksum).
    pub malformed: u64,
    /// Dissected fine but not recognized as Zoom traffic.
    pub not_zoom: u64,
    /// UDP on the Zoom SFU port whose ZME framing failed to parse
    /// (subset of `not_zoom`).
    pub malformed_zme: u64,
    /// Records on a registered WebRTC flow whose DTLS-SRTP framing
    /// failed to parse (subset of `not_zoom`; the WebRTC family's
    /// analogue of `malformed_zme`). Serialized only when nonzero.
    pub malformed_srtp: u64,
}

impl DropsReport {
    pub(crate) fn to_json(self) -> String {
        let mut o = JsonObj::new();
        o.u64("pcap_truncated", self.pcap_truncated)
            .u64("unsupported_link", self.unsupported_link)
            .u64("non_ip", self.non_ip)
            .u64("non_transport", self.non_transport)
            .u64("truncated", self.truncated)
            .u64("malformed", self.malformed)
            .u64("not_zoom", self.not_zoom)
            .u64("malformed_zme", self.malformed_zme);
        if self.malformed_srtp > 0 {
            o.u64("malformed_srtp", self.malformed_srtp);
        }
        o.finish()
    }
}

/// The value-typed result of a finished analysis: everything the batch
/// CLI prints and the streaming engine's final drain emits.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisReport {
    /// Trace summary (Table 6).
    pub summary: TraceSummary,
    /// Records that failed link/IP dissection.
    pub undissectable: u64,
    /// Per-stage drop accounting (reader + dissector + classifier).
    pub drops: DropsReport,
    /// Reconstructed meetings (§4.3), sorted by id.
    pub meetings: Vec<MeetingReport>,
    /// Per-stream rows in global creation order; evicted fragments appear
    /// in place with `evicted: true`.
    pub streams: Vec<StreamReport>,
    /// RTP-copy RTT summary (§5.3 method 1).
    pub rtp_rtt: RttSummaryReport,
    /// TCP control-connection RTT summary (§5.3 method 2).
    pub tcp_rtt: RttSummaryReport,
    /// Cross-family Table-6-style rows ([`crate::classify::Classifier::table6`]).
    /// Empty — and omitted from the JSON — when only Zoom traffic was
    /// classified, keeping Zoom-only reports byte-identical.
    pub families: Vec<TableRow>,
}

impl AnalysisReport {
    /// Serialize as one NDJSON-friendly line, tagged `"type":"final"`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObj::new();
        o.str("type", "final")
            .raw("summary", &summary_to_json(&self.summary))
            .u64("undissectable", self.undissectable)
            .raw("drops", &self.drops.to_json())
            .raw("rtp_rtt", &self.rtp_rtt.to_json())
            .raw("tcp_rtt", &self.tcp_rtt.to_json());
        if !self.families.is_empty() {
            o.raw(
                "families",
                &json_array(self.families.iter().map(family_row_to_json)),
            );
        }
        o.raw(
            "meetings",
            &json_array(self.meetings.iter().map(meeting_to_json)),
        )
        .raw(
            "streams",
            &json_array(self.streams.iter().map(|s| s.to_json())),
        );
        o.finish()
    }
}

/// One cross-family classification row: family, media detail, shares.
fn family_row_to_json(r: &TableRow) -> String {
    let mut o = JsonObj::new();
    o.str("family", &r.label)
        .str("media", &r.detail)
        .f64("packets_pct", r.packets_pct)
        .f64("bytes_pct", r.bytes_pct);
    o.finish()
}

/// Build the end-of-trace report from an analyzer's live state plus what
/// a streaming engine evicted from it along the way (nothing, on the
/// batch path): `fragments` are the evicted streams' final rows, each
/// with its [`Stream::serial`], in eviction order; `extra_flows` counts
/// evicted flows that are not live again. Rows come out in creation
/// order of their stream keys, a key's fragments ahead of its live row.
pub(crate) fn build_report(
    analyzer: &Analyzer,
    fragments: &[(u32, StreamReport)],
    extra_flows: usize,
) -> AnalysisReport {
    let mut summary = analyzer.summary();
    summary.zoom_flows += extra_flows;
    summary.rtp_streams += analyzer.streams.evicted_keys();
    let meetings = analyzer.meetings();
    // A merge after an eviction may have folded the fragment's meeting
    // id; re-resolve so fragments and live rows agree.
    let canonical = |m: Option<u32>| m.map(|m| analyzer.grouper.canonical(m));
    let mut rows: Vec<(u32, StreamReport)> = fragments
        .iter()
        .map(|(serial, frag)| {
            let mut frag = frag.clone();
            frag.meeting = canonical(frag.meeting);
            (*serial, frag)
        })
        .collect();
    rows.extend(analyzer.streams.iter().map(|s| {
        let row = StreamReport::from_stream(s, canonical(s.meeting), false);
        (s.serial, row)
    }));
    rows.sort_by_key(|&(serial, _)| serial);
    AnalysisReport {
        summary,
        undissectable: analyzer.undissectable,
        drops: drops_from_metrics(&analyzer.metrics),
        meetings,
        streams: rows.into_iter().map(|(_, row)| row).collect(),
        rtp_rtt: RttSummaryReport::from_samples(analyzer.rtp_rtt.samples()),
        tcp_rtt: RttSummaryReport::from_samples(analyzer.tcp_rtt.samples()),
        families: analyzer.classifier.family_table(),
    }
}

/// Read the drop counters out of a live metrics registry.
fn drops_from_metrics(m: &crate::obs::PipelineMetrics) -> DropsReport {
    DropsReport {
        pcap_truncated: m.pcap_truncated_records.get(),
        unsupported_link: m.drop_unsupported_link.get(),
        non_ip: m.drop_non_ip.get(),
        non_transport: m.drop_non_transport.get(),
        truncated: m.drop_truncated.get(),
        malformed: m.drop_malformed.get(),
        not_zoom: m.packets_not_zoom.get(),
        malformed_zme: m.malformed_zme.get(),
        malformed_srtp: m.malformed_srtp.get(),
    }
}

// ------------------------------------------------------------- windows --

/// Trace-level deltas over one tumbling window, plus the cumulative
/// meeting count — a live Table 6 row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WindowTotals {
    /// Records processed in the window (Zoom or not).
    pub packets: u64,
    /// Records recognized as Zoom.
    pub zoom_packets: u64,
    /// IP bytes across the window's Zoom packets.
    pub zoom_bytes: u64,
    /// Flows first seen in the window.
    pub new_flows: u64,
    /// Streams first seen in the window.
    pub new_streams: u64,
    /// Streams with at least one packet in the window.
    pub active_streams: u64,
    /// Cumulative distinct meetings at window close.
    pub meetings: usize,
    /// Flows evicted at this window's tick.
    pub evicted_flows: u64,
    /// Streams evicted at this window's tick.
    pub evicted_streams: u64,
    /// Tracked entries (flows + streams + STUN registrations + RTT
    /// candidates) right after the tick — the bounded-memory gauge.
    pub tracked_entries: usize,
    /// RTP-copy RTT over samples collected in this window.
    pub rtp_rtt: RttSummaryReport,
}

impl Default for RttSummaryReport {
    fn default() -> Self {
        RttSummaryReport::from_samples(&[])
    }
}

/// One stream's activity within one window (counter deltas, not
/// cumulative totals). Summing a stream's deltas over all windows
/// reproduces its whole-trace counters exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamWindow {
    /// The stream's identity: (flow, SSRC).
    pub key: StreamKey,
    /// Zoom media encapsulation type (or its WebRTC mapping).
    pub media_type: MediaType,
    /// Uplink/downlink orientation.
    pub direction: Direction,
    /// Protocol family that produced the stream. Serialized only when
    /// not [`FamilyId::Zoom`].
    pub family: FamilyId,
    /// Canonical meeting id at window close.
    pub meeting: Option<u32>,
    /// Packets in the window.
    pub packets: u64,
    /// Media payload bytes in the window.
    pub media_bytes: u64,
    /// Frames completed in the window.
    pub frames: u64,
    /// Media bit rate over the window, bits/s.
    pub bitrate_bps: f64,
    /// Delivered frame rate over the window, frames/s.
    pub fps: f64,
    /// Mean frame-level jitter over the window's samples, ms (`None`
    /// when the window produced no jitter samples).
    pub jitter_ms: Option<f64>,
    /// Sequence numbers newly confirmed missing in the window.
    pub lost: u64,
    /// Duplicate packets observed in the window.
    pub duplicates: u64,
    /// True when the stream was evicted at this window's tick (this is
    /// its final fragment).
    pub evicted: bool,
}

impl StreamWindow {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObj::append_to(out);
        o.str("flow", self.key.flow)
            .u64("ssrc", u64::from(self.key.ssrc))
            .str("media", self.media_type.label());
        if self.family != FamilyId::Zoom {
            o.str("family", self.family.label());
        }
        o.str("direction", direction_label(self.direction))
            .opt_u32("meeting", self.meeting)
            .u64("packets", self.packets)
            .u64("media_bytes", self.media_bytes)
            .u64("frames", self.frames)
            .f64("bitrate_bps", self.bitrate_bps)
            .f64("fps", self.fps);
        match self.jitter_ms {
            Some(j) => o.f64("jitter_ms", j),
            None => o.raw("jitter_ms", "null"),
        };
        o.u64("lost", self.lost)
            .u64("duplicates", self.duplicates)
            .bool("evicted", self.evicted);
        o.finish();
    }
}

/// Per-meeting rollup of one window's stream activity.
#[derive(Debug, Clone, PartialEq)]
pub struct MeetingWindow {
    /// Canonical meeting id.
    pub id: u32,
    /// Member streams active in the window.
    pub active_streams: u64,
    /// Packets across those streams.
    pub packets: u64,
    /// Media payload bytes across those streams.
    pub media_bytes: u64,
}

impl MeetingWindow {
    fn write_json(&self, out: &mut String) {
        let mut o = JsonObj::append_to(out);
        o.u64("id", u64::from(self.id))
            .u64("active_streams", self.active_streams)
            .u64("packets", self.packets)
            .u64("media_bytes", self.media_bytes);
        o.finish();
    }
}

/// One closed tumbling window of streaming analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Zero-based window index. Checkpoint fragments share the index of
    /// the window they cut short.
    pub index: u64,
    /// Window start, nanoseconds (aligned to the window length).
    pub start_nanos: u64,
    /// Window end, nanoseconds (exclusive; the final window of a trace
    /// ends at the last record instead).
    pub end_nanos: u64,
    /// Trace-level deltas and gauges.
    pub totals: WindowTotals,
    /// Per-meeting rollups, sorted by meeting id.
    pub meetings: Vec<MeetingWindow>,
    /// Per-stream deltas, sorted by stream key.
    pub streams: Vec<StreamWindow>,
}

impl WindowReport {
    /// Serialize as one NDJSON line, tagged `"type":"window"`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Append what [`to_json`](Self::to_json) returns to `out`, written in
    /// place — a streaming loop clears and reuses one line buffer instead
    /// of building a string per number, row and array.
    pub fn write_json(&self, out: &mut String) {
        let mut o = JsonObj::append_to(out);
        o.str("type", "window")
            .u64("index", self.index)
            .u64("start_nanos", self.start_nanos)
            .u64("end_nanos", self.end_nanos)
            .nested("totals", |out| {
                let mut totals = JsonObj::append_to(out);
                totals
                    .u64("packets", self.totals.packets)
                    .u64("zoom_packets", self.totals.zoom_packets)
                    .u64("zoom_bytes", self.totals.zoom_bytes)
                    .u64("new_flows", self.totals.new_flows)
                    .u64("new_streams", self.totals.new_streams)
                    .u64("active_streams", self.totals.active_streams)
                    .usize("meetings", self.totals.meetings)
                    .u64("evicted_flows", self.totals.evicted_flows)
                    .u64("evicted_streams", self.totals.evicted_streams)
                    .usize("tracked_entries", self.totals.tracked_entries)
                    .nested("rtp_rtt", |out| self.totals.rtp_rtt.write_json(out));
                totals.finish();
            })
            .nested("meetings", |out| {
                write_json_array(out, &self.meetings, |out, m| m.write_json(out));
            })
            .nested("streams", |out| {
                write_json_array(out, &self.streams, |out, s| s.write_json(out));
            });
        o.finish();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_summary_is_order_independent() {
        use crate::metrics::latency::RttSample;
        use std::net::{IpAddr, Ipv4Addr};
        let to = IpAddr::V4(Ipv4Addr::new(1, 2, 3, 4));
        let mk = |rtt| RttSample {
            at: 0,
            rtt_nanos: rtt,
            to,
        };
        let a = RttSummaryReport::from_samples(&[mk(10_000_000), mk(30_000_000), mk(20_000_000)]);
        let b = RttSummaryReport::from_samples(&[mk(30_000_000), mk(10_000_000), mk(20_000_000)]);
        assert_eq!(a, b);
        assert_eq!(a.samples, 3);
        assert!((a.mean_ms - 20.0).abs() < 1e-9);
        assert!((a.p50_ms - 20.0).abs() < 1e-9);
    }

    #[test]
    fn meeting_json_sorts_sets_at_emit() {
        // Clients/servers live in hash sets whose iteration order is an
        // implementation detail of the hasher; the emitted JSON must not
        // depend on it (this is what lets the state tables swap hashers
        // without changing a byte of output).
        use crate::meeting::MeetingReport;
        use std::net::{IpAddr, Ipv4Addr};
        let ip = |a, b, c, d| IpAddr::V4(Ipv4Addr::new(a, b, c, d));
        let make = |insert_order: &[IpAddr]| MeetingReport {
            id: 7,
            stream_uids: vec![2, 0, 1],
            clients: insert_order.iter().copied().collect(),
            servers: insert_order.iter().copied().collect(),
            streams: Vec::new(),
            participant_estimate: 3,
        };
        let ips = [ip(10, 8, 0, 9), ip(10, 8, 0, 1), ip(170, 114, 0, 1)];
        let mut reversed = ips;
        reversed.reverse();
        let a = meeting_to_json(&make(&ips));
        let b = meeting_to_json(&make(&reversed));
        assert_eq!(a, b);
        // And the order is the *sorted* one, pinned exactly.
        assert!(a.contains("\"clients\":[\"10.8.0.1\",\"10.8.0.9\",\"170.114.0.1\"]"));
    }

    #[test]
    fn json_escapes_and_nulls() {
        let mut o = JsonObj::new();
        o.str("s", "a\"b\\c\n")
            .f64("nan", f64::NAN)
            .opt_u32("m", None);
        let s = o.finish();
        let expected = "{\"s\":\"a\\\"b\\\\c\\u000a\",\"nan\":null,\"m\":null}";
        assert_eq!(s, expected);
    }

    /// A window with a meeting, an evicted row without jitter samples, a
    /// WebRTC row and a non-finite float.
    fn sample_window() -> WindowReport {
        use std::net::{IpAddr, Ipv4Addr};
        use zoom_wire::flow::FiveTuple;
        use zoom_wire::ipv4::Protocol;
        let key = |host: u8, ssrc: u32| StreamKey {
            flow: FiveTuple {
                src_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, host)),
                dst_ip: IpAddr::V4(Ipv4Addr::new(170, 114, 0, 1)),
                src_port: 50_000,
                dst_port: 8801,
                protocol: Protocol::Udp,
            },
            ssrc,
        };
        WindowReport {
            index: 3,
            start_nanos: 3_000_000_000,
            end_nanos: 4_000_000_000,
            totals: WindowTotals {
                packets: 120,
                zoom_packets: 100,
                zoom_bytes: 98_765,
                new_flows: 1,
                new_streams: 2,
                active_streams: 1,
                meetings: 1,
                evicted_flows: 1,
                evicted_streams: 1,
                tracked_entries: 17,
                rtp_rtt: RttSummaryReport {
                    samples: 2,
                    mean_ms: 40.5,
                    p50_ms: 40.0,
                    p95_ms: 41.0,
                },
            },
            meetings: vec![MeetingWindow {
                id: 7,
                active_streams: 1,
                packets: 100,
                media_bytes: 70_000,
            }],
            streams: vec![
                StreamWindow {
                    key: key(1, 0x21),
                    media_type: MediaType::Video,
                    direction: Direction::ToServer,
                    family: FamilyId::Zoom,
                    meeting: Some(7),
                    packets: 100,
                    media_bytes: 70_000,
                    frames: 30,
                    bitrate_bps: 560_000.0,
                    fps: 29.97,
                    jitter_ms: Some(1.25),
                    lost: 2,
                    duplicates: 1,
                    evicted: false,
                },
                StreamWindow {
                    key: key(2, 0x22),
                    media_type: MediaType::Audio,
                    direction: Direction::FromServer,
                    family: FamilyId::Webrtc,
                    meeting: None,
                    packets: 0,
                    media_bytes: 0,
                    frames: 0,
                    bitrate_bps: f64::NAN,
                    fps: f64::INFINITY,
                    jitter_ms: None,
                    lost: 0,
                    duplicates: 0,
                    evicted: true,
                },
            ],
        }
    }

    /// The window line as the previous per-field `String` serializer
    /// wrote it (captured from that code), byte for byte.
    const SAMPLE_WINDOW_JSON: &str = concat!(
        r#"{"type":"window","index":3,"start_nanos":3000000000,"end_nanos":4000000000,"#,
        r#""totals":{"packets":120,"zoom_packets":100,"zoom_bytes":98765,"new_flows":1,"#,
        r#""new_streams":2,"active_streams":1,"meetings":1,"evicted_flows":1,"#,
        r#""evicted_streams":1,"tracked_entries":17,"#,
        r#""rtp_rtt":{"samples":2,"mean_ms":40.5,"p50_ms":40,"p95_ms":41}},"#,
        r#""meetings":[{"id":7,"active_streams":1,"packets":100,"media_bytes":70000}],"#,
        r#""streams":[{"flow":"udp 10.8.0.1:50000 > 170.114.0.1:8801","ssrc":33,"#,
        r#""media":"RTP: Video","direction":"up","meeting":7,"packets":100,"#,
        r#""media_bytes":70000,"frames":30,"bitrate_bps":560000,"fps":29.97,"#,
        r#""jitter_ms":1.25,"lost":2,"duplicates":1,"evicted":false},"#,
        r#"{"flow":"udp 10.8.0.2:50000 > 170.114.0.1:8801","ssrc":34,"#,
        r#""media":"RTP: Audio","family":"webrtc","direction":"down","meeting":null,"#,
        r#""packets":0,"media_bytes":0,"frames":0,"bitrate_bps":null,"fps":null,"#,
        r#""jitter_ms":null,"lost":0,"duplicates":0,"evicted":true}]}"#,
    );

    #[test]
    fn window_json_is_the_same_bytes_from_both_entry_points() {
        let w = sample_window();
        assert_eq!(w.to_json(), SAMPLE_WINDOW_JSON);
        // `write_json` appends, so one buffer serves line after line.
        let mut line = String::from("kept:");
        w.write_json(&mut line);
        assert_eq!(line, format!("kept:{SAMPLE_WINDOW_JSON}"));
        line.clear();
        w.write_json(&mut line);
        assert_eq!(line, SAMPLE_WINDOW_JSON);
    }
}

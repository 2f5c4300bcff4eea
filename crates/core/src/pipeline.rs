//! The end-to-end passive analyzer: capture records in, performance
//! metrics out.
//!
//! [`Analyzer`] ties the whole methodology together, mirroring Fig. 6's
//! processing chain: dissection → Zoom traffic detection (including
//! STUN-based P2P flow recognition, §4.1) → classification (Tables 2/3) →
//! stream/sub-stream tracking → per-stream metrics (§5) → meeting grouping
//! (§4.3) → trace-level reports (Table 6, Figs. 14–16).

use crate::classify::Classifier;
use crate::error::Error;
use crate::fxhash::FxHashMap;
use crate::meeting::{client_endpoint_of, GroupingConfig, MeetingGrouper, MeetingReport};
use crate::metrics::latency::{RtpRttEstimator, RttSample, TcpRttEstimator};
use crate::obs::{bump, IngestTally, MetricsSnapshot, PipelineMetrics};
use crate::packet::{extract, in_campus, meta_from_webrtc, meta_from_zoom, Extracted, PacketMeta};
use crate::report::{build_report, AnalysisReport};
use crate::sink::PacketSink;
use crate::stats::Samples;
use crate::stream::{FlowId, Stream, StreamKey, StreamTracker};
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;
use zoom_wire::dissect::{
    dissect, dissect_from, drop_stage, peek_batch, App, Dissection, PeekArena, Transport,
};
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::flow::{Endpoint, FiveTuple};
use zoom_wire::webrtc;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;
use zoom_wire::zoom::{Framing, MediaType, ZOOM_SFU_PORT};

/// Analyzer configuration.
///
/// Construct via [`AnalyzerConfig::builder`] (typed durations, validated
/// CIDR input) or take [`AnalyzerConfig::default`]; read settings through
/// the accessor methods. (The PR-2 deprecated public-field shims are
/// gone: the builder is the only construction path now.)
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Campus prefixes — orient P2P flows and pick the "client" side.
    campus: Vec<(IpAddr, u8)>,
    /// Zoom server prefixes; when non-empty, TCP RTT probing is limited
    /// to connections touching these (the control connections).
    zoom_servers: Vec<(IpAddr, u8)>,
    /// How long a STUN exchange marks its endpoint as a future P2P flow.
    stun_timeout_nanos: u64,
    /// Thresholds of the meeting-grouping heuristic (§4.3).
    grouping: GroupingConfig,
    /// Which protocol families may claim traffic (the default,
    /// [`FamilySelect::Auto`], keeps Zoom-only output byte-identical:
    /// WebRTC claims a packet only behind its session gate).
    family: FamilySelect,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            campus: vec![(IpAddr::V4(std::net::Ipv4Addr::new(10, 8, 0, 0)), 16)],
            zoom_servers: Vec::new(),
            stun_timeout_nanos: 120 * 1_000_000_000,
            grouping: GroupingConfig::default(),
            family: FamilySelect::Auto,
        }
    }
}

impl AnalyzerConfig {
    /// Start building a configuration from the defaults.
    pub fn builder() -> AnalyzerConfigBuilder {
        AnalyzerConfigBuilder::new()
    }

    /// Campus prefixes — orient P2P flows and pick the "client" side.
    pub fn campus_prefixes(&self) -> &[(IpAddr, u8)] {
        &self.campus
    }

    /// Zoom server prefixes gating TCP RTT probing.
    pub fn zoom_server_prefixes(&self) -> &[(IpAddr, u8)] {
        &self.zoom_servers
    }

    /// How long a STUN exchange marks its endpoint as a future P2P flow.
    pub fn stun_timeout(&self) -> Duration {
        Duration::from_nanos(self.stun_timeout_nanos)
    }

    /// Thresholds of the meeting-grouping heuristic (§4.3).
    pub fn grouping_config(&self) -> GroupingConfig {
        self.grouping
    }

    /// Which protocol families may claim traffic.
    pub fn family_select(&self) -> FamilySelect {
        self.family
    }
}

/// Parse a `prefix/len` CIDR spec (a bare address means a host prefix).
///
/// Shared by [`AnalyzerConfigBuilder`] and the CLI's `--campus` /
/// `--zoom-servers` flags so both reject the same inputs.
pub fn parse_cidr(spec: &str) -> Result<(IpAddr, u8), Error> {
    let (addr, len) = match spec.split_once('/') {
        Some((a, l)) => {
            let len: u8 = l
                .parse()
                .map_err(|_| Error::Config(format!("bad prefix length in {spec:?}")))?;
            (a, Some(len))
        }
        None => (spec, None),
    };
    let ip: IpAddr = addr
        .parse()
        .map_err(|_| Error::Config(format!("bad address in {spec:?}")))?;
    let max = if ip.is_ipv4() { 32 } else { 128 };
    let len = len.unwrap_or(max);
    if len > max {
        return Err(Error::Config(format!(
            "prefix length {len} exceeds {max} in {spec:?}"
        )));
    }
    Ok((ip, len))
}

/// Builder for [`AnalyzerConfig`]: typed durations, validated CIDR
/// prefixes, defaults from [`AnalyzerConfig::default`].
///
/// Parse failures are recorded and surfaced by [`build`]
/// (`Err(`[`Error::Config`]`)`), keeping call chains fluent:
///
/// ```
/// use zoom_analysis::pipeline::AnalyzerConfig;
/// let cfg = AnalyzerConfig::builder()
///     .campus("192.168.0.0/16")
///     .stun_timeout(std::time::Duration::from_secs(60))
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.campus_prefixes().len(), 1);
/// ```
///
/// [`build`]: AnalyzerConfigBuilder::build
#[derive(Debug, Clone, Default)]
pub struct AnalyzerConfigBuilder {
    campus: Vec<(IpAddr, u8)>,
    /// False until the caller touches the campus list; the first explicit
    /// prefix then *replaces* the default instead of appending to it.
    campus_set: bool,
    zoom_servers: Vec<(IpAddr, u8)>,
    stun_timeout: Option<Duration>,
    grouping: Option<GroupingConfig>,
    family: Option<FamilySelect>,
    invalid: Option<String>,
}

impl AnalyzerConfigBuilder {
    fn new() -> AnalyzerConfigBuilder {
        AnalyzerConfigBuilder::default()
    }

    fn record_invalid(&mut self, msg: String) {
        if self.invalid.is_none() {
            self.invalid = Some(msg);
        }
    }

    /// Add a campus prefix from a CIDR string; the first call replaces
    /// the default `10.8.0.0/16`, later calls append.
    pub fn campus(mut self, cidr: &str) -> Self {
        match parse_cidr(cidr) {
            Ok((ip, len)) => {
                self.campus_set = true;
                self.campus.push((ip, len));
            }
            Err(e) => self.record_invalid(e.to_string()),
        }
        self
    }

    /// Add a pre-parsed campus prefix.
    pub fn campus_prefix(mut self, ip: IpAddr, len: u8) -> Self {
        self.campus_set = true;
        self.campus.push((ip, len));
        self
    }

    /// Treat every flow as on-campus (empty campus list: orientation
    /// falls back to the packet's source side).
    pub fn everything_on_campus(mut self) -> Self {
        self.campus_set = true;
        self.campus.clear();
        self
    }

    /// Add a Zoom server prefix from a CIDR string (gates TCP RTT
    /// probing to control connections).
    pub fn zoom_server(mut self, cidr: &str) -> Self {
        match parse_cidr(cidr) {
            Ok((ip, len)) => self.zoom_servers.push((ip, len)),
            Err(e) => self.record_invalid(e.to_string()),
        }
        self
    }

    /// Add a pre-parsed Zoom server prefix.
    pub fn zoom_server_prefix(mut self, ip: IpAddr, len: u8) -> Self {
        self.zoom_servers.push((ip, len));
        self
    }

    /// STUN registration lifetime (§4.1).
    pub fn stun_timeout(mut self, timeout: Duration) -> Self {
        self.stun_timeout = Some(timeout);
        self
    }

    /// Meeting-grouping thresholds (§4.3).
    pub fn grouping(mut self, grouping: GroupingConfig) -> Self {
        self.grouping = Some(grouping);
        self
    }

    /// Which protocol families may claim traffic (default
    /// [`FamilySelect::Auto`]).
    pub fn family(mut self, family: FamilySelect) -> Self {
        self.family = Some(family);
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<AnalyzerConfig, Error> {
        if let Some(msg) = self.invalid {
            return Err(Error::Config(msg));
        }
        for &(ip, len) in self.campus.iter().chain(self.zoom_servers.iter()) {
            let max = if ip.is_ipv4() { 32 } else { 128 };
            if len > max {
                return Err(Error::Config(format!(
                    "prefix length {len} exceeds {max} for {ip}"
                )));
            }
        }
        let stun_timeout_nanos = match self.stun_timeout {
            Some(d) => u64::try_from(d.as_nanos())
                .map_err(|_| Error::Config(format!("stun timeout {d:?} too large")))?,
            None => 120 * 1_000_000_000,
        };
        let defaults = AnalyzerConfig::default();
        Ok(AnalyzerConfig {
            campus: if self.campus_set {
                self.campus
            } else {
                defaults.campus
            },
            zoom_servers: self.zoom_servers,
            stun_timeout_nanos,
            grouping: self.grouping.unwrap_or_default(),
            family: self.family.unwrap_or_default(),
        })
    }
}

/// Per-5-tuple flow accounting (the coarse view prior work was limited
/// to — kept for Table 6 and flow-vs-media-rate comparisons).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets on this directional 5-tuple.
    pub packets: u64,
    /// IP-layer bytes on this directional 5-tuple.
    pub bytes: u64,
    /// Timestamp of the first packet, nanoseconds.
    pub first_seen: u64,
    /// Timestamp of the last packet, nanoseconds.
    pub last_seen: u64,
}

/// Trace-level summary (Table 6's rows).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceSummary {
    /// All records fed to the analyzer.
    pub total_packets: u64,
    /// Records recognized as Zoom (media, RTCP, control, STUN).
    pub zoom_packets: u64,
    /// IP-layer bytes across Zoom packets.
    pub zoom_bytes: u64,
    /// Distinct Zoom UDP 5-tuples.
    pub zoom_flows: usize,
    /// RTP media streams (5-tuple + SSRC).
    pub rtp_streams: usize,
    /// Reconstructed meetings.
    pub meetings: usize,
    /// Trace duration (first to last classified packet).
    pub duration_nanos: u64,
    /// Records classified under the WebRTC family (disjoint from
    /// [`TraceSummary::zoom_packets`]; zero on Zoom-only traces).
    pub webrtc_packets: u64,
    /// IP-layer bytes across WebRTC-classified packets.
    pub webrtc_bytes: u64,
}

/// Per-media-type 1-second metric samples (the inputs to Fig. 15).
#[derive(Debug, Default)]
pub struct MediaSamples {
    /// Media bit rate per active second, Mbit/s.
    pub bitrate_mbps: Samples,
    /// Delivered frame rate per second of stream lifetime (includes
    /// zero-frame seconds — the screen-share idle bins of Fig. 15b).
    pub fps: Samples,
    /// Frame sizes, bytes.
    pub frame_size: Samples,
    /// Frame-level jitter samples, ms.
    pub jitter_ms: Samples,
}

/// The analyzer.
pub struct Analyzer {
    pub(crate) config: AnalyzerConfig,
    pub(crate) classifier: Classifier,
    /// Per-flow accounting and per-stream state, behind one table probe
    /// per packet.
    pub(crate) streams: StreamTracker,
    pub(crate) grouper: MeetingGrouper,
    pub(crate) rtp_rtt: RtpRttEstimator,
    pub(crate) tcp_rtt: TcpRttEstimator,
    /// STUN-registered endpoints → last exchange time (§4.1 registers).
    pub(crate) p2p_endpoints: FxHashMap<Endpoint, u64>,
    /// Canonical 5-tuples with an observed DTLS-SRTP handshake → last
    /// packet time. The WebRTC analogue of [`Analyzer::p2p_endpoints`]:
    /// a flow enters on a strict DTLS record (gated by the STUN
    /// registry under [`FamilySelect::Auto`]) and every later packet on
    /// it gets the WebRTC second chance.
    pub(crate) webrtc_flows: FxHashMap<FiveTuple, u64>,
    pub(crate) total_packets: u64,
    pub(crate) zoom_packets: u64,
    pub(crate) zoom_bytes: u64,
    /// Packets classified under the WebRTC family (disjoint from
    /// [`Analyzer::zoom_packets`]).
    pub(crate) webrtc_packets: u64,
    /// IP-layer bytes across WebRTC-classified packets.
    pub(crate) webrtc_bytes: u64,
    pub(crate) first_zoom_ts: Option<u64>,
    pub(crate) last_zoom_ts: u64,
    pub(crate) undissectable: u64,
    /// Set by the WebRTC second chance when a registered flow's record
    /// failed DTLS-SRTP framing; steers drop attribution in
    /// [`Analyzer::process_dissection_counted`] to `malformed_srtp`
    /// instead of Zoom's `malformed_zme`.
    srtp_malformed: bool,
    /// This thread's unpublished share of the per-record counters in
    /// [`Analyzer::metrics`]; see [`IngestTally`] for when it is flushed.
    tally: IngestTally,
    /// Reused peek arena for the batched [`PacketSink::push_batch`] path.
    peek_arena: PeekArena,
    /// The observability registry ([`crate::obs`]).
    pub(crate) metrics: Arc<PipelineMetrics>,
}

impl Analyzer {
    /// Analyzer with the given configuration.
    pub fn new(config: AnalyzerConfig) -> Analyzer {
        let grouper = MeetingGrouper::with_config(config.grouping_config());
        Analyzer {
            config,
            classifier: Classifier::new(),
            streams: StreamTracker::new(),
            grouper,
            rtp_rtt: RtpRttEstimator::default(),
            tcp_rtt: TcpRttEstimator::default(),
            p2p_endpoints: FxHashMap::default(),
            webrtc_flows: FxHashMap::default(),
            total_packets: 0,
            zoom_packets: 0,
            zoom_bytes: 0,
            webrtc_packets: 0,
            webrtc_bytes: 0,
            first_zoom_ts: None,
            last_zoom_ts: 0,
            undissectable: 0,
            srtp_malformed: false,
            tally: IngestTally::default(),
            peek_arena: PeekArena::new(),
            metrics: Arc::new(PipelineMetrics::new()),
        }
    }

    /// Shared handle to this analyzer's observability registry
    /// ([`crate::obs`]), for wiring capture-side accounting (source
    /// registration, ring-drop counters) or a metrics endpoint to the
    /// same registry the sink updates.
    pub fn metrics_handle(&self) -> Arc<PipelineMetrics> {
        self.flush_metrics();
        Arc::clone(&self.metrics)
    }

    /// Publish the per-record counters tallied since the last flush into
    /// the registry.
    pub(crate) fn flush_metrics(&self) {
        self.tally.flush(&self.metrics);
    }

    /// Process one packet from a borrowed byte slice — the zero-copy
    /// fast path behind [`PacketSink::push`], for use with
    /// [`zoom_wire::pcap::Reader::read_into`] and
    /// [`zoom_wire::pcap::SliceReader`] where no owned [`Record`](zoom_wire::pcap::Record) exists.
    /// The packet is accounted as `data.len()` bytes on the wire; a loop
    /// that has the record's `orig_len` passes it to
    /// [`Analyzer::process_record`].
    pub fn process_packet(&mut self, ts_nanos: u64, data: &[u8], link: LinkType) {
        self.process_record(ts_nanos, data.len(), data, link);
    }

    /// [`Analyzer::process_packet`] for a record of which the capture kept
    /// `data` out of `wire_len` bytes (a snap-length pcap): the ingest
    /// accounting (`bytes_in`, the `packet_size` histogram) follows the
    /// wire, whatever the capture kept.
    pub fn process_record(&mut self, ts_nanos: u64, wire_len: usize, data: &[u8], link: LinkType) {
        // 1-in-64 stage-latency sampling: a clock read pair on sampled
        // calls, which also publish the metrics tally; nothing on the
        // rest.
        let sampled_at = self.total_packets.is_multiple_of(64).then(|| {
            self.flush_metrics();
            std::time::Instant::now()
        });
        self.total_packets += 1;
        self.tally.record_in(wire_len);
        match dissect(ts_nanos, data, link, self.config.family_select().probe()) {
            Ok(d) => self.process_dissection_counted(&d),
            Err(e) => {
                self.undissectable += 1;
                self.metrics.record_drop(drop_stage(data, link, e));
            }
        }
        if let Some(t0) = sampled_at {
            self.metrics
                .stage_push_nanos
                .observe(t0.elapsed().as_nanos() as u64);
        }
    }

    /// [`Analyzer::process_dissection`] plus classification accounting:
    /// did this record end up counted under a protocol family or not?
    fn process_dissection_counted(&mut self, d: &Dissection<'_>) {
        let zoom_before = self.zoom_packets;
        let webrtc_before = self.webrtc_packets;
        self.srtp_malformed = false;
        self.process_dissection(d);
        if self.zoom_packets > zoom_before {
            bump(&self.tally.classified);
        } else if self.webrtc_packets > webrtc_before {
            bump(&self.tally.classified);
            bump(&self.tally.classified_webrtc);
        } else {
            bump(&self.tally.not_zoom);
            if self.srtp_malformed {
                // The record rode a flow with an observed DTLS-SRTP
                // handshake but its framing failed to parse: the drop
                // belongs to the WebRTC family, not to Zoom's ZME stage.
                bump(&self.tally.malformed_srtp);
            } else if matches!(d.transport, Transport::Udp { .. })
                && d.five_tuple.involves_port(ZOOM_SFU_PORT)
            {
                // A UDP record on the Zoom media port that still failed to
                // classify means its Zoom Media Encapsulation did not parse.
                bump(&self.tally.malformed_zme);
            }
        }
    }

    /// Process a pre-dissected packet.
    pub fn process_dissection(&mut self, d: &Dissection<'_>) {
        match extract(d, self.config.campus_prefixes()) {
            Extracted::Stun {
                ts_nanos,
                five_tuple,
            } => {
                // Register the non-3478 endpoint: it will carry the P2P
                // media flow (§4.1).
                let client = if five_tuple.dst_port == zoom_wire::stun::STUN_PORT {
                    five_tuple.src()
                } else {
                    five_tuple.dst()
                };
                self.p2p_endpoints.insert(client, ts_nanos);
                self.note_classified(FamilyId::Zoom, ts_nanos, &five_tuple, d.ip_total_len);
            }
            Extracted::Zoom(meta) => self.on_media(meta),
            Extracted::Webrtc {
                ts_nanos,
                five_tuple,
                ip_len,
                pdu,
            } => self.on_webrtc(ts_nanos, five_tuple, ip_len, &pdu),
            Extracted::Tcp(t) => {
                let is_control = self.config.zoom_server_prefixes().is_empty()
                    || in_campus(self.config.zoom_server_prefixes(), t.five_tuple.src_ip)
                    || in_campus(self.config.zoom_server_prefixes(), t.five_tuple.dst_ip);
                if is_control {
                    self.note_classified(FamilyId::Zoom, t.ts_nanos, &t.five_tuple, t.ip_len);
                    self.tcp_rtt.on_segment(&t);
                }
            }
            Extracted::Other => {
                // Second chances: a UDP payload on a STUN-registered
                // endpoint may be a P2P media flow — re-parse with the
                // family framings (port reuse false-positives fail these
                // parses, exactly the filter the paper describes). Zoom
                // gets the first try, preserving the pre-family dispatch
                // order bit for bit.
                if let Transport::Udp { .. } = d.transport {
                    if matches!(d.app, App::Opaque) {
                        let family = self.config.family_select();
                        let stun_fresh = self.is_p2p_flow(d);
                        if stun_fresh && family.allows(FamilyId::Zoom) {
                            let wire_len = d.transport.payload_len();
                            if let Ok(z) = zoom_wire::zoom::parse(d.payload, wire_len, Framing::P2p)
                            {
                                if z.rtp.is_some() || !z.rtcp.is_empty() {
                                    let meta = meta_from_zoom(
                                        d.ts_nanos,
                                        d.five_tuple,
                                        d.ip_total_len,
                                        Framing::P2p,
                                        &z,
                                        self.config.campus_prefixes(),
                                    );
                                    self.on_media(meta);
                                    return;
                                }
                                // Keep-alives and control packets on the
                                // P2P flow still count as Zoom traffic —
                                // unless the payload carries the WebRTC
                                // family's strict framing, which this
                                // deliberately loose parse would swallow.
                                if !(family.allows(FamilyId::Webrtc)
                                    && webrtc::classify(d.payload, wire_len).is_ok())
                                {
                                    self.note_classified(
                                        FamilyId::Zoom,
                                        d.ts_nanos,
                                        &d.five_tuple,
                                        d.ip_total_len,
                                    );
                                    return;
                                }
                            }
                        }
                        let webrtc_live = !self.webrtc_flows.is_empty();
                        if family.allows(FamilyId::Webrtc) && (stun_fresh || webrtc_live) {
                            self.webrtc_second_chance(d, stun_fresh);
                        }
                    }
                }
            }
        }
    }

    /// The WebRTC second chance: every packet on a flow with an observed
    /// DTLS-SRTP handshake parses under the family's framing (a failure
    /// is that family's malformed drop), and a strict DTLS record on a
    /// STUN-registered endpoint opens a new flow — RFC 5764's handshake
    /// precedes media, so the gate admits real sessions and nothing else.
    fn webrtc_second_chance(&mut self, d: &Dissection<'_>, stun_fresh: bool) {
        let wire_len = d.transport.payload_len();
        if self.is_webrtc_flow(d) {
            match webrtc::classify(d.payload, wire_len) {
                Ok(pdu) => self.on_webrtc(d.ts_nanos, d.five_tuple, d.ip_total_len, &pdu),
                Err(_) => self.srtp_malformed = true,
            }
            return;
        }
        if stun_fresh {
            if let Ok(pdu @ webrtc::Pdu::Dtls(_)) = webrtc::classify(d.payload, wire_len) {
                self.on_webrtc(d.ts_nanos, d.five_tuple, d.ip_total_len, &pdu);
            }
        }
    }

    fn is_p2p_flow(&mut self, d: &Dissection<'_>) -> bool {
        let now = d.ts_nanos;
        let timeout = self.config.stun_timeout().as_nanos() as u64;
        for ep in [d.five_tuple.src(), d.five_tuple.dst()] {
            if let Some(last) = self.p2p_endpoints.get_mut(&ep) {
                if now.saturating_sub(*last) <= timeout {
                    *last = now; // refresh: long calls stay matched
                    return true;
                }
            }
        }
        false
    }

    /// Whether this packet rides a flow with an observed DTLS-SRTP
    /// handshake (refreshing the entry, like [`Analyzer::is_p2p_flow`]).
    fn is_webrtc_flow(&mut self, d: &Dissection<'_>) -> bool {
        let now = d.ts_nanos;
        let timeout = self.config.stun_timeout().as_nanos() as u64;
        if let Some(last) = self.webrtc_flows.get_mut(&d.five_tuple.canonical()) {
            if now.saturating_sub(*last) <= timeout {
                *last = now;
                return true;
            }
        }
        false
    }

    /// Count one classified packet under `family`: trace totals, the
    /// first/last activity timestamps, and the flow table — the packet's
    /// one table probe; the returned handle lets [`Analyzer::on_media`]
    /// reach the stream without a second.
    fn note_classified(
        &mut self,
        family: FamilyId,
        ts: u64,
        five_tuple: &FiveTuple,
        ip_len: usize,
    ) -> FlowId {
        if family == FamilyId::Zoom {
            self.zoom_packets += 1;
            self.zoom_bytes += ip_len as u64;
        } else {
            self.webrtc_packets += 1;
            self.webrtc_bytes += ip_len as u64;
        }
        self.first_zoom_ts.get_or_insert(ts);
        self.last_zoom_ts = self.last_zoom_ts.max(ts);
        self.streams.touch_flow(five_tuple, ts, ip_len)
    }

    /// Handle one WebRTC PDU on an admitted flow: SRTP feeds the shared
    /// media pipeline (streams, frames, meetings) through
    /// [`crate::packet::meta_from_webrtc`]; DTLS and SRTCP count as
    /// classified control traffic (DTLS additionally [re-]opens the flow
    /// — eager `Only(Webrtc)` dissection reaches here without passing the
    /// second chance).
    fn on_webrtc(&mut self, ts_nanos: u64, five_tuple: FiveTuple, ip_len: usize, pdu: &webrtc::Pdu) {
        match pdu {
            webrtc::Pdu::Srtp(srtp) => {
                let meta = meta_from_webrtc(
                    ts_nanos,
                    five_tuple,
                    ip_len,
                    srtp,
                    self.config.campus_prefixes(),
                );
                self.on_media(meta);
            }
            webrtc::Pdu::Dtls(dtls) => {
                self.webrtc_flows.insert(five_tuple.canonical(), ts_nanos);
                self.note_classified(FamilyId::Webrtc, ts_nanos, &five_tuple, ip_len);
                self.classifier.record(
                    FamilyId::Webrtc,
                    MediaType::Other(dtls.content_type),
                    None,
                    ip_len,
                );
            }
            webrtc::Pdu::Srtcp(sr) => {
                self.note_classified(FamilyId::Webrtc, ts_nanos, &five_tuple, ip_len);
                // RFC 3550: packet type 200 is a Sender Report.
                let mt = if sr.packet_type == 200 {
                    MediaType::RtcpSr
                } else {
                    MediaType::Other(sr.packet_type)
                };
                self.classifier.record(FamilyId::Webrtc, mt, None, ip_len);
            }
            _ => {
                self.note_classified(FamilyId::Webrtc, ts_nanos, &five_tuple, ip_len);
            }
        }
    }

    /// Count, classify, and track one media-bearing packet of either
    /// family (Zoom ZME or WebRTC SRTP — [`PacketMeta::family`] says
    /// which).
    fn on_media(&mut self, meta: PacketMeta) {
        let flow = self.note_classified(meta.family, meta.ts_nanos, &meta.five_tuple, meta.ip_len);
        self.classifier.record(
            meta.family,
            meta.media_type,
            meta.rtp.as_ref().map(|r| r.payload_type),
            meta.ip_len,
        );
        // The RTP-copy RTT matcher (§5.3 method 1) sees every Zoom media
        // packet — a Zoom-SFU behavior; WebRTC streams don't replicate
        // across server legs.
        if meta.family == FamilyId::Zoom {
            self.rtp_rtt.on_packet(&meta);
        }
        let Some(rtp) = &meta.rtp else { return };
        let (at, created) = self.streams.on_flow_packet(flow, &meta, rtp);
        if created {
            let key = StreamKey {
                flow: meta.five_tuple,
                ssrc: rtp.ssrc,
            };
            // A key the grouper knows is a stream returning after an
            // eviction: it is the stream it was, not a new one.
            let (uid, meeting) = self.grouper.assignment(&key).unwrap_or_else(|| {
                let (client, server) =
                    resolve_stream_endpoints(&meta.five_tuple, self.config.campus_prefixes());
                let streams = &self.streams;
                self.grouper.on_new_stream(
                    key,
                    client,
                    server,
                    rtp.timestamp,
                    rtp.sequence,
                    meta.ts_nanos,
                    |k| streams.candidate(k),
                )
            });
            let stream = self.streams.at_mut(at);
            stream.unique_id = Some(uid);
            stream.meeting = Some(meeting);
        }
    }

    // ---------------------------- reports ----------------------------

    /// Finish the analysis, consuming the analyzer: an owned
    /// [`AnalysisReport`] with the trace summary, per-meeting and
    /// per-stream breakdowns, RTT summaries, and drop accounting —
    /// matching the [`PacketSink`] shape shared with
    /// [`crate::engine::StreamingEngine`]. To snapshot a report while
    /// keeping the analyzer queryable, use [`Analyzer::report`].
    pub fn finish(self) -> Result<AnalysisReport, Error> {
        Ok(self.report())
    }

    /// Snapshot the current analysis state as an owned
    /// [`AnalysisReport`] without consuming the analyzer (more records
    /// may still be fed afterwards).
    pub fn report(&self) -> AnalysisReport {
        // The report reads drop accounting out of the registry.
        self.flush_metrics();
        build_report(self, &[], 0)
    }

    /// Trace summary (Table 6).
    pub fn summary(&self) -> TraceSummary {
        TraceSummary {
            total_packets: self.total_packets.max(self.zoom_packets + self.webrtc_packets),
            zoom_packets: self.zoom_packets,
            zoom_bytes: self.zoom_bytes,
            zoom_flows: self.streams.flow_count(),
            rtp_streams: self.streams.len(),
            meetings: self.grouper.meeting_count(),
            duration_nanos: self
                .last_zoom_ts
                .saturating_sub(self.first_zoom_ts.unwrap_or(0)),
            webrtc_packets: self.webrtc_packets,
            webrtc_bytes: self.webrtc_bytes,
        }
    }

    /// The Tables 2/3 classifier.
    pub fn classifier(&self) -> &Classifier {
        &self.classifier
    }

    /// All tracked streams.
    pub fn streams(&self) -> &StreamTracker {
        &self.streams
    }

    /// Per-flow statistics, in no particular order.
    pub fn flows(&self) -> impl Iterator<Item = (&FiveTuple, &FlowStats)> + '_ {
        self.streams.flows()
    }

    /// RTP-copy RTT samples (§5.3 method 1).
    pub fn rtp_rtt_samples(&self) -> &[RttSample] {
        self.rtp_rtt.samples()
    }

    /// TCP control-connection RTT samples (§5.3 method 2).
    pub fn tcp_rtt_samples(&self) -> &[RttSample] {
        self.tcp_rtt.samples()
    }

    /// The TCP estimator itself (per-responder queries).
    pub fn tcp_rtt(&self) -> &TcpRttEstimator {
        &self.tcp_rtt
    }

    /// Meeting reports (§4.3).
    pub fn meetings(&self) -> Vec<MeetingReport> {
        self.grouper.reports()
    }

    /// One-second metric samples for one media type (Fig. 15's inputs).
    pub fn media_samples(&self, media: MediaType) -> MediaSamples {
        let mut out = MediaSamples::default();
        for s in self.streams.of_type(media) {
            for row in s.rates.rows() {
                out.bitrate_mbps.push(row.media_bytes as f64 * 8.0 / 1e6);
            }
            if let Some(frames) = &s.frames {
                for f in frames.frames() {
                    out.frame_size.push(f.size_bytes as f64);
                }
                // Per-second delivered fps over the stream's lifetime,
                // zero bins included.
                let first_sec = s.first_seen / 1_000_000_000;
                let last_sec = s.last_seen / 1_000_000_000;
                if last_sec > first_sec {
                    let mut counts: HashMap<u64, u32> = HashMap::new();
                    for f in frames.frames() {
                        *counts.entry(f.completed_at / 1_000_000_000).or_default() += 1;
                    }
                    for sec in first_sec..last_sec {
                        out.fps
                            .push(f64::from(counts.get(&sec).copied().unwrap_or(0)));
                    }
                }
            }
            for &(_, j) in s.frame_jitter.samples() {
                out.jitter_ms.push(j);
            }
        }
        out
    }

    /// Joined per-(stream, second) samples of (jitter ms, bit rate Mbit/s,
    /// fps) for video — the scatter data of Fig. 16.
    pub fn fig16_samples(&self) -> Vec<(f64, f64, f64)> {
        let mut out = Vec::new();
        for s in self.streams.of_type(MediaType::Video) {
            let rates: HashMap<u64, f64> = s
                .rates
                .rows()
                .iter()
                .map(|r| (r.second, r.media_bytes as f64 * 8.0 / 1e6))
                .collect();
            let mut fps: HashMap<u64, f64> = HashMap::new();
            if let Some(frames) = &s.frames {
                for f in frames.frames() {
                    *fps.entry(f.completed_at / 1_000_000_000).or_default() += 1.0;
                }
            }
            for &(t, j) in s.frame_jitter.samples() {
                let sec = t / 1_000_000_000;
                if let Some(&rate) = rates.get(&sec) {
                    out.push((j, rate, fps.get(&sec).copied().unwrap_or(0.0)));
                }
            }
        }
        out
    }

    /// Streams sharing a unique id — the duplicate groups that power
    /// Method-1 RTT estimation.
    pub fn duplicate_stream_groups(&self) -> HashMap<u32, Vec<StreamKey>> {
        let mut groups: HashMap<u32, Vec<StreamKey>> = HashMap::new();
        for s in self.streams.iter() {
            if let Some(uid) = s.unique_id {
                groups.entry(uid).or_default().push(s.key);
            }
        }
        groups
    }

    /// Look up a stream.
    pub fn stream(&self, key: &StreamKey) -> Option<&Stream> {
        self.streams.get(key)
    }

    /// Records that failed link/IP dissection.
    pub fn undissectable(&self) -> u64 {
        self.undissectable
    }

    /// Batched ingest: one stateless [`peek_batch`] pass walks every
    /// record's headers (prefetching the next record's), then one pass in
    /// record order finishes each dissection ([`dissect_from`]) and
    /// applies it — same observable state as per-record
    /// [`Analyzer::process_packet`] calls.
    ///
    /// `before_record` runs in that in-order pass, ahead of each record,
    /// with the record's timestamp: the streaming engine's window clock
    /// closes windows there. Every state change happens in record order,
    /// so what it sees is the state as of the previous record.
    pub(crate) fn push_batch_with(
        &mut self,
        batch: &RecordBatch,
        link: LinkType,
        mut before_record: impl FnMut(&mut Analyzer, u64),
    ) {
        let traced = batch.trace_id;
        let dissect_start = (traced != 0).then(std::time::Instant::now);
        let mut arena = std::mem::take(&mut self.peek_arena);
        peek_batch(batch, link, &mut arena);
        if let Some(t0) = dissect_start {
            self.metrics.trace.record(
                traced,
                crate::obs::trace::spans::DISSECT,
                "analyzer",
                batch.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
            self.metrics.trace.note_trace(traced);
        }
        let probe = self.config.family_select().probe();
        for (i, r) in batch.iter().enumerate() {
            before_record(self, r.ts_nanos);
            let sampled_at = self
                .total_packets
                .is_multiple_of(64)
                .then(std::time::Instant::now);
            self.total_packets += 1;
            self.tally.record_in(r.wire_len());
            match arena.peek(i) {
                Ok(info) => {
                    let d = dissect_from(info, r.ts_nanos, r.data, probe);
                    self.process_dissection_counted(&d);
                }
                Err(e) => {
                    self.undissectable += 1;
                    self.metrics.record_drop(drop_stage(r.data, link, e));
                }
            }
            if let Some(t0) = sampled_at {
                self.metrics
                    .stage_push_nanos
                    .observe(t0.elapsed().as_nanos() as u64);
            }
        }
        self.peek_arena = arena;
        self.flush_metrics();
    }
}

impl PacketSink for Analyzer {
    fn push(&mut self, ts_nanos: u64, data: &[u8], link: LinkType) -> Result<(), Error> {
        self.process_packet(ts_nanos, data, link);
        Ok(())
    }

    fn push_batch(&mut self, batch: &RecordBatch, link: LinkType) -> Result<(), Error> {
        self.push_batch_with(batch, link, |_, _| {});
        Ok(())
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.flush_metrics();
        self.metrics.snapshot()
    }

    fn note_pcap_truncated(&mut self, records: u64) {
        self.metrics.pcap_truncated_records.set(records);
    }

    fn note_pcap_progress(&mut self, records: u64, bytes: u64) {
        self.metrics.pcap_records_read.set(records);
        self.metrics.pcap_bytes_read.set(bytes);
    }

    fn finish(self) -> Result<AnalysisReport, Error> {
        Analyzer::finish(self)
    }
}

/// Resolve the (client endpoint, server address) pair of a new stream's
/// flow: the non-8801 side for server traffic, the campus side for P2P
/// (with an empty campus list, the *source* side — see
/// [`crate::packet::in_campus`]).
fn resolve_stream_endpoints(flow: &FiveTuple, campus: &[(IpAddr, u8)]) -> (Endpoint, IpAddr) {
    match client_endpoint_of(flow) {
        Some(pair) => pair,
        None => {
            if in_campus(campus, flow.src_ip) {
                (flow.src(), flow.dst_ip)
            } else {
                (flow.dst(), flow.src_ip)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zoom_wire::pcap::Record;

    /// Test shorthand for the PacketSink ingest path.
    fn feed(a: &mut Analyzer, record: &Record) {
        a.push(record.ts_nanos, &record.data, LinkType::Ethernet).unwrap();
    }
    use zoom_wire::compose;
    use zoom_wire::rtp;
    use zoom_wire::zoom;

    fn analyzer() -> Analyzer {
        Analyzer::new(AnalyzerConfig::default())
    }

    fn media_record(
        ts: u64,
        up: bool,
        ssrc: u32,
        seq: u16,
        rtp_ts: u32,
        pkts_in_frame: u8,
        marker: bool,
    ) -> Record {
        let client = if up { 1 } else { 2 };
        media_record_for(ts, up, client, ssrc, seq, rtp_ts, pkts_in_frame, marker)
    }

    /// [`media_record`] with the campus client's host byte chosen.
    #[allow(clippy::too_many_arguments)]
    fn media_record_for(
        ts: u64,
        up: bool,
        client: u8,
        ssrc: u32,
        seq: u16,
        rtp_ts: u32,
        pkts_in_frame: u8,
        marker: bool,
    ) -> Record {
        let payload = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: seq,
                direction: if up {
                    zoom::DIR_TO_SFU
                } else {
                    zoom::DIR_FROM_SFU
                },
            }),
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Video,
                sequence: seq,
                timestamp: (ts / 1_000_000) as u32,
                frame_sequence: Some(seq / 2),
                packets_in_frame: Some(pkts_in_frame),
            },
            rtp: Some(rtp::Repr {
                marker,
                payload_type: 98,
                sequence_number: seq,
                timestamp: rtp_ts,
                ssrc,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0xA5; 700],
        }
        .build();
        let data = if up {
            compose::udp_ipv4_ethernet(
                Ipv4Addr::new(10, 8, 0, client),
                Ipv4Addr::new(170, 114, 0, 1),
                50_000,
                8801,
                &payload,
            )
        } else {
            compose::udp_ipv4_ethernet(
                Ipv4Addr::new(170, 114, 0, 1),
                Ipv4Addr::new(10, 8, 0, client),
                8801,
                51_000,
                &payload,
            )
        };
        Record::full(ts, data)
    }

    const MS: u64 = 1_000_000;

    #[test]
    fn tracks_streams_and_meetings_and_rtt() {
        let mut a = analyzer();
        // 100 frames uplink; each reappears 40 ms later as a downlink
        // copy toward a second campus client.
        for i in 0..100u64 {
            let seq = i as u16 + 1;
            let rtp_ts = 1_000 + (i as u32) * 3_000;
            feed(&mut a, &media_record(i * 33 * MS, true, 0x21, seq, rtp_ts, 1, true));
            feed(&mut a, &media_record(i * 33 * MS + 40 * MS, false, 0x21, seq, rtp_ts, 1, true));
        }
        let summary = a.summary();
        assert_eq!(summary.zoom_packets, 200);
        assert_eq!(summary.rtp_streams, 2);
        assert_eq!(summary.zoom_flows, 2);
        assert_eq!(summary.meetings, 1, "copies must group into one meeting");
        // Method-1 RTT: every packet matched at ~40 ms.
        let rtts = a.rtp_rtt_samples();
        assert_eq!(rtts.len(), 100);
        assert!(rtts.iter().all(|s| (39.9..40.1).contains(&s.rtt_ms())));
        // The two streams share a unique id.
        let groups = a.duplicate_stream_groups();
        assert_eq!(groups.len(), 1);
        assert_eq!(groups.values().next().unwrap().len(), 2);
    }

    /// Fx hashes finished while `a` ingests `records`.
    fn hashes_during(a: &mut Analyzer, records: &[Record]) -> u64 {
        let before = crate::fxhash::hash_computations();
        for r in records {
            feed(a, r);
        }
        crate::fxhash::hash_computations() - before
    }

    /// The per-packet probe budget of `docs/PERFORMANCE.md`, pinned: a
    /// steady-state media packet costs one flow-table probe (none when it
    /// follows a packet of the same flow), plus the RTP-copy RTT
    /// estimator's one. (`engine::tests` pins that the streaming engine
    /// pays exactly this.)
    #[test]
    fn steady_state_media_packet_costs_one_probe() {
        const N: u64 = 200;
        // Downlink video on two flows; `interleaved` alternates them so
        // the last-flow memo never hits, `bursts` sends each flow's
        // packets back to back so it always does but once.
        let record = |i: u64, flow: u64| {
            let seq = (i / 2) as u16 + 1;
            let rtp_ts = 1_000 + u32::from(seq) * 3_000;
            media_record_for(
                i * MS,
                false,
                2 + flow as u8,
                0x21 + flow as u32,
                seq,
                rtp_ts,
                1,
                true,
            )
        };
        let warm_up: Vec<Record> = (0..20).map(|i| record(i, i % 2)).collect();
        let interleaved: Vec<Record> = (20..20 + N).map(|i| record(i, i % 2)).collect();
        let bursts: Vec<Record> = (220..220 + N)
            .map(|i| record(i, u64::from(i >= 220 + N / 2)))
            .collect();

        let mut seq = analyzer();
        hashes_during(&mut seq, &warm_up);
        assert_eq!(hashes_during(&mut seq, &interleaved), 2 * N, "interleaved");
        // One flow probe per burst (the first burst continues the flow
        // the interleaved run ended on or not — allow either).
        let burst_hashes = hashes_during(&mut seq, &bursts);
        assert!(
            (N + 1..=N + 2).contains(&burst_hashes),
            "bursts: {burst_hashes}"
        );
        assert_eq!(seq.summary().rtp_streams, 2);
    }

    #[test]
    fn media_samples_cover_video_metrics() {
        let mut a = analyzer();
        for i in 0..200u64 {
            let seq = i as u16 + 1;
            let rtp_ts = 1_000 + (i as u32) * 3_000;
            feed(&mut a, &media_record(i * 33 * MS, true, 0x21, seq, rtp_ts, 1, true));
        }
        let samples = a.media_samples(MediaType::Video);
        assert!(!samples.bitrate_mbps.is_empty());
        assert!(!samples.fps.is_empty());
        assert!(!samples.frame_size.is_empty());
        assert!(!samples.jitter_ms.is_empty());
        // ~30 fps delivered.
        let mut fps = samples.fps;
        assert!(
            (25.0..35.0).contains(&fps.median()),
            "median {}",
            fps.median()
        );
    }

    #[test]
    fn p2p_flow_needs_stun_first() {
        let mut a = analyzer();
        let p2p_payload = zoom::Builder {
            sfu: None,
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Audio,
                sequence: 1,
                timestamp: 2,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: Some(rtp::Repr {
                marker: false,
                payload_type: 112,
                sequence_number: 3,
                timestamp: 4,
                ssrc: 0x31,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![1; 80],
        }
        .build();
        let mk_media = |ts: u64| {
            Record::full(
                ts,
                compose::udp_ipv4_ethernet(
                    Ipv4Addr::new(10, 8, 0, 5),
                    Ipv4Addr::new(98, 1, 2, 3),
                    61_000,
                    62_000,
                    &p2p_payload,
                ),
            )
        };
        // Without a STUN exchange, nothing is recognized.
        feed(&mut a, &mk_media(0));
        assert_eq!(a.summary().zoom_packets, 0);

        // STUN from the same client endpoint, then media.
        let msg = zoom_wire::stun::Repr {
            message_type: zoom_wire::stun::MessageType::BindingRequest,
            transaction_id: [9; 12],
            xor_mapped_address: None,
        };
        let mut stun_payload = vec![0u8; msg.buffer_len()];
        msg.emit(&mut stun_payload);
        let stun_rec = Record::full(
            1_000 * MS,
            compose::udp_ipv4_ethernet(
                Ipv4Addr::new(10, 8, 0, 5),
                Ipv4Addr::new(170, 114, 2, 2),
                61_000,
                3478,
                &stun_payload,
            ),
        );
        feed(&mut a, &stun_rec);
        feed(&mut a, &mk_media(2_000 * MS));
        let summary = a.summary();
        assert_eq!(summary.zoom_packets, 2); // STUN + media
        assert_eq!(summary.rtp_streams, 1);
    }

    #[test]
    fn tcp_filtered_by_server_list() {
        let cfg = AnalyzerConfig::builder()
            .zoom_server("170.114.0.0/16")
            .build()
            .unwrap();
        let mut a = Analyzer::new(cfg);
        let zoom_tcp = Record::full(
            0,
            compose::tcp_ipv4_ethernet(
                Ipv4Addr::new(10, 8, 0, 1),
                Ipv4Addr::new(170, 114, 0, 9),
                50_000,
                443,
                100,
                0,
                zoom_wire::tcp::Flags {
                    ack: true,
                    psh: true,
                    ..Default::default()
                },
                b"ctl",
            ),
        );
        let other_tcp = Record::full(
            0,
            compose::tcp_ipv4_ethernet(
                Ipv4Addr::new(10, 8, 0, 1),
                Ipv4Addr::new(13, 3, 3, 3),
                50_001,
                443,
                100,
                0,
                zoom_wire::tcp::Flags {
                    ack: true,
                    psh: true,
                    ..Default::default()
                },
                b"web",
            ),
        );
        feed(&mut a, &zoom_tcp);
        feed(&mut a, &other_tcp);
        assert_eq!(a.summary().zoom_packets, 1);
    }

    #[test]
    fn garbage_counted_as_undissectable() {
        let mut a = analyzer();
        feed(&mut a, &Record::full(0, vec![1, 2, 3]));
        assert_eq!(a.undissectable(), 1);
        assert_eq!(a.summary().total_packets, 1);
        let m = a.metrics();
        assert_eq!(m.drops_total(), 1);
        assert!(m.conservation_holds());
    }
}

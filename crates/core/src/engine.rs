//! Streaming bounded-memory analysis with windowed reports.
//!
//! The batch pipeline ([`Analyzer`]) holds every flow and stream until
//! the trace ends — fine for a finished capture, unusable on a live link
//! where flows churn forever and results are wanted *while* traffic
//! flows. [`StreamingEngine`] keeps the exact same analysis but adds three
//! things:
//!
//! * **Windowed reports.** With a tumbling window configured, closing a
//!   window emits a [`WindowReport`]: per-stream counter *deltas*
//!   (bitrate, frame rate, jitter, loss over just that window) plus
//!   meeting-level rollups — a live Table 6 row. Deltas are computed from
//!   monotonic counters, so summing a stream's windows reproduces its
//!   whole-trace totals exactly.
//! * **Bounded memory.** With an idle timeout configured, each window
//!   tick evicts flows, streams, STUN registrations, and RTP-copy RTT
//!   candidates that have been idle past the timeout. Evicted streams
//!   flush a final report fragment (`evicted: true`), so end-of-trace
//!   totals stay exact even for state that was dropped mid-trace.
//! * **Checkpoint/drain.** [`StreamingEngine::checkpoint`] cuts a partial
//!   window without ending the run; [`StreamingEngine::drain`] performs
//!   the final merge and returns the finished [`AnalysisReport`] along
//!   with the merged [`Analyzer`] for ad-hoc queries.
//!
//! With no window and no idle timeout the engine is a batch pipeline:
//! one merge at drain, byte-identical to the sequential analyzer
//! (asserted by `tests/streaming_differential.rs`).
//!
//! **One thread.** The engine is a router in front of one shard: the
//! router peeks each record's headers and keeps the STUN and WebRTC
//! registries, the shard (a shard-mode [`Analyzer`]) keeps per-flow and
//! per-stream state and logs its media events, and the engine replays
//! that log through the cross-flow trackers (meeting grouping, RTP-copy
//! RTT) after every push. All of it runs on the calling thread, straight
//! out of the caller's batch: no copy, no channel. To use more cores,
//! split the taps by flow and run one process per tap
//! (`docs/DISTRIBUTED.md`).
//!
//! Windowed mode assumes capture timestamps are approximately monotonic
//! (true of pcaps and live captures alike); records may arrive slightly
//! out of order, but a record older than an already-closed window is
//! simply accounted to the current one.

pub mod qoe_watch;

pub use qoe_watch::{AlertState, QoeAlert, QoeThresholds, QoeWatch};

use crate::error::Error;
use crate::fxhash::FxHashMap;
use crate::meeting::{CandidateState, MeetingGrouper};
use crate::metrics::latency::{RtpRttEstimator, RttSample};
use crate::obs::trace::spans;
use crate::obs::{trace, IngestTally, MetricsSnapshot, PipelineMetrics};
use crate::packet::Direction;
use crate::pipeline::{
    resolve_stream_endpoints, Analyzer, AnalyzerConfig, FlowStats, MediaEvent,
};
use crate::report::{
    drops_from_metrics, AnalysisReport, MeetingWindow, RttSummaryReport, StreamReport,
    StreamWindow, WindowReport, WindowTotals,
};
use crate::sink::PacketSink;
use crate::stream::{InlineList, Stream, StreamKey};
use std::collections::BTreeMap;
use std::net::IpAddr;
use std::sync::Arc;
use std::time::Duration;
use zoom_wire::dissect::{drop_stage, peek, peek_batch, PeekArena, PeekInfo, PeekTransport};
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::flow::{Endpoint, FiveTuple};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;
use zoom_wire::webrtc;
use zoom_wire::zoom::MediaType;

/// Sample the push path's wall-clock cost on one record in this many
/// (`zoom_stage_latency_nanos{stage="push"}`). Merge and checkpoint are
/// per-window operations and are always timed.
const LATENCY_SAMPLE: u64 = 64;

/// The router's per-record flow verdicts, handed to the shard so its
/// second-chance decisions match the sequential analyzer's without any
/// shard-local registry: `p2p` is the STUN-registry probe (§4.1),
/// `webrtc` the DTLS-SRTP flow-table probe.
#[derive(Debug, Clone, Copy, Default)]
struct RouteHints {
    p2p: bool,
    webrtc: bool,
}

/// A folded [`TickReply`]'s emptied vectors, kept for the next tick, so
/// windowed mode reuses the same delta / event / RTT-sample allocations
/// every window instead of growing fresh ones (the windowed half of the
/// 0-steady-state-allocs invariant).
#[derive(Default)]
struct TickScratch {
    deltas: Vec<StreamDelta>,
    events: Vec<MediaEvent>,
    tcp_new: Vec<RttSample>,
}

/// Streaming engine configuration.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// The analysis configuration.
    pub analyzer: AnalyzerConfig,
    /// Tumbling window length; `None` disables windowing (one report at
    /// drain — the batch behavior).
    pub window: Option<Duration>,
    /// Evict flows/streams idle longer than this at each window tick;
    /// `None` disables eviction (exact batch equality).
    pub idle_timeout: Option<Duration>,
    /// Run the [`QoeWatch`] degradation detector over every closed
    /// window with these thresholds; `None` disables alerting (the QoE
    /// gauge series are still emitted).
    pub qoe: Option<QoeThresholds>,
}

/// Per-stream counter snapshot the shard keeps between ticks; the delta
/// of two snapshots is one window's activity. Every field is monotonic
/// (including `missing`, which only grows as holes retire from the
/// sequence tracker's window), so deltas never go negative.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct StreamSnap {
    packets: u64,
    media_bytes: u64,
    frames: u64,
    jitter_len: usize,
    missing: u64,
    duplicates: u64,
}

impl StreamSnap {
    fn of(s: &Stream) -> StreamSnap {
        let (missing, duplicates) = s
            .substreams
            .iter()
            .map(|sub| {
                let st = sub.seq_stats();
                (st.missing, st.duplicates)
            })
            .fold((0, 0), |(m, d), (sm, sd)| (m + sm, d + sd));
        StreamSnap {
            packets: s.packets,
            media_bytes: s.media_bytes(),
            frames: s.frames.as_ref().map(|f| f.frames().len()).unwrap_or(0) as u64,
            jitter_len: s.frame_jitter.samples().len(),
            missing,
            duplicates,
        }
    }
}

/// One stream's activity since the previous tick, shipped shard→router.
struct StreamDelta {
    key: StreamKey,
    media_type: MediaType,
    direction: Direction,
    family: FamilyId,
    packets: u64,
    media_bytes: u64,
    frames: u64,
    jitter_sum: f64,
    jitter_count: u64,
    lost: u64,
    duplicates: u64,
    evicted: bool,
}

/// Everything the shard reports at a tick: counter deltas, per-stream
/// deltas, drained media events, evicted state, and live-entry gauges.
struct TickReply {
    total_packets: u64,
    zoom_packets: u64,
    zoom_bytes: u64,
    new_flows: u64,
    new_streams: u64,
    live_flows: usize,
    live_streams: usize,
    deltas: Vec<StreamDelta>,
    events: Vec<MediaEvent>,
    evicted_streams: Vec<Stream>,
    evicted_flows: Vec<(FiveTuple, FlowStats)>,
    tcp_new: Vec<RttSample>,
}

/// The shard's state machine: the shard-mode analyzer plus the
/// between-tick snapshots delta computation needs.
struct ShardState {
    analyzer: Analyzer,
    snaps: FxHashMap<StreamKey, StreamSnap>,
    /// Persistent key→delta-row index, cleared (capacity kept) per tick.
    delta_idx: FxHashMap<StreamKey, usize>,
    total_packets: u64,
    zoom_packets: u64,
    zoom_bytes: u64,
    flows_seen: u64,
    streams_seen: u64,
    evicted_flows_cum: u64,
    evicted_streams_cum: u64,
    tcp_len: usize,
}

impl ShardState {
    fn new(config: AnalyzerConfig, metrics: Arc<PipelineMetrics>) -> ShardState {
        ShardState {
            analyzer: Analyzer::new_sharded(config, metrics),
            snaps: FxHashMap::default(),
            delta_idx: FxHashMap::default(),
            total_packets: 0,
            zoom_packets: 0,
            zoom_bytes: 0,
            flows_seen: 0,
            streams_seen: 0,
            evicted_flows_cum: 0,
            evicted_streams_cum: 0,
            tcp_len: 0,
        }
    }

    /// Close a window on the shard. `scratch` is the previous reply's
    /// emptied vectors (see [`TickScratch`]), or fresh ones.
    fn tick(&mut self, evict_before: Option<u64>, scratch: TickScratch) -> TickReply {
        // Per-stream deltas vs. the previous tick's snapshots (and update
        // the snapshots in the same pass).
        let TickScratch {
            mut deltas,
            events: events_spare,
            mut tcp_new,
        } = scratch;
        let delta_idx = &mut self.delta_idx;
        delta_idx.clear();
        let snaps = &mut self.snaps;
        for s in self.analyzer.streams.iter() {
            let prev = snaps.get(&s.key).copied().unwrap_or_default();
            let cur = StreamSnap::of(s);
            if cur == prev {
                continue;
            }
            let jitter_new = &s.frame_jitter.samples()[prev.jitter_len..];
            delta_idx.insert(s.key, deltas.len());
            deltas.push(StreamDelta {
                key: s.key,
                media_type: s.media_type,
                direction: s.direction,
                family: s.family,
                packets: cur.packets - prev.packets,
                media_bytes: cur.media_bytes - prev.media_bytes,
                frames: cur.frames - prev.frames,
                jitter_sum: jitter_new.iter().map(|&(_, j)| j).sum(),
                jitter_count: jitter_new.len() as u64,
                lost: cur.missing - prev.missing,
                duplicates: cur.duplicates - prev.duplicates,
                evicted: false,
            });
            snaps.insert(s.key, cur);
        }

        // Gauges BEFORE eviction so new_* deltas stay consistent: seen =
        // live + evicted-so-far is invariant across the eviction below.
        let flows_seen_now = self.analyzer.streams.flow_count() as u64 + self.evicted_flows_cum;
        let streams_seen_now = self.analyzer.streams.len() as u64 + self.evicted_streams_cum;
        let new_flows = flows_seen_now - self.flows_seen;
        let new_streams = streams_seen_now - self.streams_seen;
        self.flows_seen = flows_seen_now;
        self.streams_seen = streams_seen_now;

        // Idle eviction. An evicted stream gets a delta row even when it
        // was silent this window, flagged as its final fragment.
        let mut evicted_streams = Vec::new();
        let mut evicted_flows = Vec::new();
        if let Some(cutoff) = evict_before {
            (evicted_streams, evicted_flows) = self.analyzer.streams.evict_idle(cutoff);
            for s in &evicted_streams {
                self.snaps.remove(&s.key);
                match delta_idx.get(&s.key) {
                    Some(&i) => deltas[i].evicted = true,
                    None => deltas.push(StreamDelta {
                        key: s.key,
                        media_type: s.media_type,
                        direction: s.direction,
                        family: s.family,
                        packets: 0,
                        media_bytes: 0,
                        frames: 0,
                        jitter_sum: 0.0,
                        jitter_count: 0,
                        lost: 0,
                        duplicates: 0,
                        evicted: true,
                    }),
                }
            }
        }
        self.evicted_flows_cum += evicted_flows.len() as u64;
        self.evicted_streams_cum += evicted_streams.len() as u64;

        let reply = TickReply {
            total_packets: self.analyzer.total_packets - self.total_packets,
            zoom_packets: self.analyzer.zoom_packets - self.zoom_packets,
            zoom_bytes: self.analyzer.zoom_bytes - self.zoom_bytes,
            new_flows,
            new_streams,
            live_flows: self.analyzer.streams.flow_count(),
            live_streams: self.analyzer.streams.len(),
            deltas,
            events: match self.analyzer.event_log.as_mut() {
                // Swap in the recycled (empty, capacity-bearing) vector so
                // the next window's events land in reused storage.
                Some(log) => std::mem::replace(log, events_spare),
                None => Vec::new(),
            },
            evicted_streams,
            evicted_flows,
            tcp_new: {
                tcp_new.extend_from_slice(&self.analyzer.tcp_rtt.samples()[self.tcp_len..]);
                tcp_new
            },
        };
        self.total_packets = self.analyzer.total_packets;
        self.zoom_packets = self.analyzer.zoom_packets;
        self.zoom_bytes = self.analyzer.zoom_bytes;
        self.tcp_len = self.analyzer.tcp_rtt.samples().len();
        reply
    }
}

/// Per-stream replica of the candidate state the grouping heuristic's
/// lookup closure reads sequentially: per payload type the running packet
/// count and last RTP sequence/timestamp, plus the stream's last-seen
/// time. Rebuilt incrementally from the shard's event log. Replicas are
/// *not* evicted with their streams — they are what lets a stream that
/// goes idle and returns keep its meeting assignment.
struct Replica {
    key: StreamKey,
    /// A stream carries two or three payload types (main, FEC, perhaps a
    /// probe).
    subs: InlineList<ReplicaSub, 3>,
    last_seen: u64,
}

/// [`Replica`]'s mirror of one sub-stream.
#[derive(Clone, Copy, Default)]
struct ReplicaSub {
    payload_type: u8,
    packets: u64,
    last_seq: u16,
    last_rtp_ts: u32,
}

impl Replica {
    /// Mirror of `Stream::candidate_state`: the dominant sub-stream by
    /// (packets, payload type).
    fn candidate(&self) -> Option<CandidateState> {
        self.subs
            .iter()
            .max_by_key(|sub| (sub.packets, sub.payload_type))
            .map(|sub| CandidateState {
                last_rtp_ts: sub.last_rtp_ts,
                last_seq: sub.last_seq,
                last_seen: self.last_seen,
            })
    }

    /// Fold one replayed media event in.
    fn on_event(&mut self, ev: &MediaEvent) {
        self.last_seen = ev.ts_nanos;
        let pt = ev.payload_type;
        let known = self.subs.iter_mut().find(|sub| sub.payload_type == pt);
        let sub = match known {
            Some(sub) => sub,
            None => self.subs.push(ReplicaSub {
                payload_type: pt,
                ..ReplicaSub::default()
            }),
        };
        sub.packets += 1;
        sub.last_seq = ev.rtp_seq;
        sub.last_rtp_ts = ev.rtp_ts;
    }
}

/// [`StreamingEngine::handles`]' marker for a serial not seen yet.
const UNSEEN: u32 = u32::MAX;

/// Everything [`StreamingEngine::drain`] produces.
pub struct EngineOutput {
    /// The last (usually partial) window's report.
    pub final_window: WindowReport,
    /// The exact end-of-trace report, evicted fragments included.
    pub report: AnalysisReport,
    /// The merged analyzer over the still-live state, for ad-hoc queries
    /// (media samples, Fig. 16 data, classifier tables).
    pub analyzer: Analyzer,
    /// Highest tracked-entry count observed at any tick — the
    /// bounded-memory gauge benches and tests assert on.
    pub peak_tracked_entries: usize,
}

/// Incremental analyzer: one record in, zero or more [`WindowReport`]s
/// out, bounded state in between.
///
/// ```no_run
/// use std::time::Duration;
/// use zoom_analysis::engine::{EngineConfig, StreamingEngine};
/// use zoom_wire::pcap::LinkType;
///
/// let mut engine = StreamingEngine::new(EngineConfig {
///     window: Some(Duration::from_secs(10)),
///     idle_timeout: Some(Duration::from_secs(60)),
///     ..Default::default()
/// })
/// .expect("valid config");
/// // for each record: for w in engine.push_packet(ts, &data, LinkType::Ethernet)? { ... }
/// let output = engine.drain().expect("drain");
/// println!("{}", output.report.to_json());
/// # Ok::<(), zoom_analysis::Error>(())
/// ```
pub struct StreamingEngine {
    analyzer_config: AnalyzerConfig,
    window_nanos: Option<u64>,
    idle_nanos: Option<u64>,
    stun_timeout_nanos: u64,
    campus: Vec<(IpAddr, u8)>,
    /// The authoritative STUN endpoint registry (§4.1), maintained by the
    /// router with the sequential analyzer's exact insert/refresh rules.
    registry: FxHashMap<Endpoint, u64>,
    /// The authoritative WebRTC flow table (canonical 5-tuples with an
    /// observed DTLS-SRTP handshake), maintained by the router with the
    /// sequential analyzer's exact insert/refresh rules.
    webrtc_flows: FxHashMap<FiveTuple, u64>,
    /// Whether the configured [`zoom_wire::family::FamilySelect`] lets
    /// the Zoom family claim traffic.
    zoom_enabled: bool,
    /// Whether it lets the WebRTC family claim traffic.
    webrtc_enabled: bool,
    /// `Only(Webrtc)`: the dissector probes WebRTC framing eagerly, so
    /// flow registration must not wait for the STUN gate.
    webrtc_eager: bool,
    /// Records pushed so far; paces the per-record path's latency
    /// sampling.
    pushed: u64,
    /// The shard. It logs its events in record order, and the engine
    /// replays the log at the end of every push rather than only at
    /// ticks, so the log never outgrows a batch.
    state: ShardState,
    /// The last tick reply's emptied vectors, for the next tick.
    scratch: TickScratch,
    /// Reused peek arena for [`StreamingEngine::push_batch_records`].
    peek_arena: PeekArena,
    // -------- cross-flow trackers, fed by per-tick event replay --------
    grouper: MeetingGrouper,
    rtp_rtt: RtpRttEstimator,
    /// Samples before this index were already reported in a window.
    rtt_mark: usize,
    /// One replica per stream key ever seen, in global creation order
    /// (the order the end-of-trace report walks).
    replicas: Vec<Replica>,
    /// Stream key → index into `replicas`. Probed when a stream is
    /// created or reappears after eviction, never per event.
    replica_index: FxHashMap<StreamKey, u32>,
    /// Stream serial → index into `replicas` ([`UNSEEN`] until the
    /// serial's first event): what a replayed event resolves its replica
    /// through.
    handles: Vec<u32>,
    tcp_samples: Vec<RttSample>,
    // -------- evicted-state pools (compact fragments, not Streams) -----
    evicted_streams: FxHashMap<StreamKey, Vec<StreamReport>>,
    evicted_flows: FxHashMap<FiveTuple, FlowStats>,
    // -------- window bookkeeping --------
    window_index: u64,
    window_start: Option<u64>,
    first_ts: Option<u64>,
    last_ts: u64,
    last_tracked: usize,
    peak_tracked: usize,
    /// Shared observability registry ([`crate::obs`]): the router writes
    /// ingest/drop counters, the shard analyzer writes classification
    /// counters through its cloned `Arc`.
    metrics: Arc<PipelineMetrics>,
    /// The router's unpublished `record_in` counts; see [`IngestTally`]
    /// for when it is flushed.
    tally: IngestTally,
    /// Windows closed by [`PacketSink::push`] calls, held until the next
    /// [`PacketSink::take_windows`].
    pending_windows: Vec<WindowReport>,
    /// Degradation detector, present when [`EngineConfig::qoe`] was set.
    qoe_watch: Option<QoeWatch>,
    /// Alerts emitted by closed windows, held until [`take_alerts`].
    ///
    /// [`take_alerts`]: StreamingEngine::take_alerts
    pending_alerts: Vec<QoeAlert>,
}

impl StreamingEngine {
    /// Build the engine.
    ///
    /// Fails with [`Error::Config`] on a zero-length window or idle
    /// timeout, or durations whose nanosecond count overflows `u64`.
    pub fn new(config: EngineConfig) -> Result<StreamingEngine, Error> {
        let to_nanos = |d: Duration, what: &str| -> Result<u64, Error> {
            let n = u64::try_from(d.as_nanos())
                .map_err(|_| Error::Config(format!("{what} {d:?} too large")))?;
            if n == 0 {
                return Err(Error::Config(format!("{what} must be positive")));
            }
            Ok(n)
        };
        let window_nanos = config.window.map(|d| to_nanos(d, "window")).transpose()?;
        let idle_nanos = config
            .idle_timeout
            .map(|d| to_nanos(d, "idle timeout"))
            .transpose()?;
        let analyzer_config = config.analyzer;
        let campus = analyzer_config.campus_prefixes().to_vec();
        let stun_timeout_nanos = analyzer_config.stun_timeout().as_nanos() as u64;
        let family = analyzer_config.family_select();
        let grouping = analyzer_config.grouping_config();
        let metrics = Arc::new(PipelineMetrics::new());
        let state = ShardState::new(analyzer_config.clone(), Arc::clone(&metrics));
        Ok(StreamingEngine {
            analyzer_config,
            window_nanos,
            idle_nanos,
            stun_timeout_nanos,
            campus,
            registry: FxHashMap::default(),
            webrtc_flows: FxHashMap::default(),
            zoom_enabled: family.allows(FamilyId::Zoom),
            webrtc_enabled: family.allows(FamilyId::Webrtc),
            webrtc_eager: family == FamilySelect::Only(FamilyId::Webrtc),
            pushed: 0,
            state,
            scratch: TickScratch::default(),
            peek_arena: PeekArena::new(),
            grouper: MeetingGrouper::with_config(grouping),
            rtp_rtt: RtpRttEstimator::default(),
            rtt_mark: 0,
            replicas: Vec::new(),
            replica_index: FxHashMap::default(),
            handles: Vec::new(),
            tcp_samples: Vec::new(),
            evicted_streams: FxHashMap::default(),
            evicted_flows: FxHashMap::default(),
            window_index: 0,
            window_start: None,
            first_ts: None,
            last_ts: 0,
            last_tracked: 0,
            peak_tracked: 0,
            metrics,
            tally: IngestTally::default(),
            pending_windows: Vec::new(),
            qoe_watch: config.qoe.map(QoeWatch::new),
            pending_alerts: Vec::new(),
        })
    }

    /// Tracked entries (flows + streams + STUN registrations + RTP-copy
    /// RTT candidates) as of the most recent tick.
    pub fn tracked_entries(&self) -> usize {
        self.last_tracked
    }

    /// Highest tracked-entry count observed at any tick so far.
    pub fn peak_tracked_entries(&self) -> usize {
        self.peak_tracked
    }

    /// Drain the degradation alerts emitted by windows closed so far.
    ///
    /// Empty unless [`EngineConfig::qoe`] configured a detector. Alerts
    /// appear in window order, and within a window in deterministic
    /// `(meeting, media, kind)` order; render each with
    /// [`QoeAlert::to_json`] for the NDJSON alert stream.
    pub fn take_alerts(&mut self) -> Vec<QoeAlert> {
        std::mem::take(&mut self.pending_alerts)
    }

    /// The engine's shared observability registry, for wiring external
    /// consumers such as the `obs::serve` scrape endpoint (feature
    /// `obs-http`) — the endpoint holds the `Arc` and snapshots per
    /// request while the engine keeps pushing.
    pub fn metrics_handle(&self) -> Arc<PipelineMetrics> {
        self.publish_tallies();
        Arc::clone(&self.metrics)
    }

    /// Publish every count this thread has been tallying off the shared
    /// registry: the router's ingest counts and the shard's
    /// classification counts. Runs at the end of every pushed batch,
    /// 1-in-[`LATENCY_SAMPLE`] per-record pushes, and before anything
    /// reads the registry through the engine.
    fn publish_tallies(&self) {
        self.tally.flush(&self.metrics);
        self.state.analyzer.flush_metrics();
    }

    /// Feed one packet from a borrowed byte slice — the zero-copy path
    /// behind [`PacketSink::push`], for
    /// [`zoom_wire::pcap::Reader::read_into`] /
    /// [`zoom_wire::pcap::SliceReader`] loops. The bytes are analyzed
    /// where they lie; nothing allocates per packet.
    pub fn push_packet(
        &mut self,
        ts_nanos: u64,
        data: &[u8],
        link: LinkType,
    ) -> Result<Vec<WindowReport>, Error> {
        // Stage-latency sampling, 1 in [`LATENCY_SAMPLE`] pushes: one
        // monotonic-clock read pair and no allocation on sampled calls
        // (which also publish the router's metrics tally), nothing at
        // all on the rest.
        let sampled_at = self.pushed.is_multiple_of(LATENCY_SAMPLE).then(|| {
            self.publish_tallies();
            std::time::Instant::now()
        });
        let ts = ts_nanos;
        let mut out = Vec::new();
        self.roll_window(ts, &mut out)?;
        self.first_ts.get_or_insert(ts);
        self.last_ts = self.last_ts.max(ts);

        self.tally.record_in(data.len());
        let (info, hints) = self.route(ts, data, link);
        self.dispatch(ts, data, info, hints);
        self.replay_log();
        if let Some(t0) = sampled_at {
            self.metrics
                .stage_push_nanos
                .observe(t0.elapsed().as_nanos() as u64);
        }
        Ok(out)
    }

    /// Feed a whole [`RecordBatch`] through the batched hot path: one
    /// type-aware [`peek_batch`] pass over every header (with next-record
    /// prefetch), then one stateful in-order pass applying the STUN
    /// registry, window boundaries, and the shard's processing of the
    /// record. Stateless work is batched; every state mutation still
    /// happens in record order, so output is
    /// byte-identical to per-record [`StreamingEngine::push_packet`]
    /// calls (pinned by `tests/batched_differential.rs`).
    pub fn push_batch_records(
        &mut self,
        batch: &RecordBatch,
        link: LinkType,
    ) -> Result<Vec<WindowReport>, Error> {
        if batch.is_empty() {
            return Ok(Vec::new());
        }
        let t0 = std::time::Instant::now();
        let traced = batch.trace_id;
        if traced != 0 {
            // Windows closed while this batch streams in attribute their
            // emit spans to this batch's trace.
            self.metrics.trace.note_trace(traced);
        }
        // Pass 1 — stateless header walk, type-sorted by the arena.
        let mut arena = std::mem::take(&mut self.peek_arena);
        peek_batch(batch, link, &mut arena);
        if traced != 0 {
            self.metrics.trace.record(
                traced,
                spans::DISSECT,
                "engine",
                batch.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        // Pass 2 — stateful, strictly in record order.
        let mut out = Vec::new();
        for (i, r) in batch.iter().enumerate() {
            let ts = r.ts_nanos;
            self.roll_window(ts, &mut out)?;
            self.first_ts.get_or_insert(ts);
            self.last_ts = self.last_ts.max(ts);
            self.tally.record_in(r.wire_len());
            let (info, hints) = match arena.peek(i) {
                Ok(info) => {
                    let info = *info;
                    let hints = self.apply_registry(ts, &info, r.data);
                    (Some(info), hints)
                }
                Err(e) => {
                    self.metrics.record_drop(drop_stage(r.data, link, e));
                    (None, RouteHints::default())
                }
            };
            self.dispatch(ts, r.data, info, hints);
        }
        self.peek_arena = arena;
        self.replay_log();
        self.publish_tallies();
        // One histogram observation per batch: the mean per-record cost,
        // so the `stage="push"` series stays comparable with the
        // per-packet path at a fraction of the clock reads.
        self.metrics
            .stage_push_nanos
            .observe(t0.elapsed().as_nanos() as u64 / batch.len() as u64);
        if traced != 0 {
            self.metrics.trace.record(
                traced,
                spans::ENGINE_PUSH,
                "engine",
                batch.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok(out)
    }

    /// Close (and fast-forward) windows the record at `ts` has moved
    /// past. Shared by the per-record and batched push paths.
    fn roll_window(&mut self, ts: u64, out: &mut Vec<WindowReport>) -> Result<(), Error> {
        if let Some(w) = self.window_nanos {
            match self.window_start {
                None => self.window_start = Some(ts - ts % w),
                Some(start) if ts >= start + w => {
                    let end = start + w;
                    let evict = self.idle_nanos.map(|idle| end.saturating_sub(idle));
                    let emit_start = std::time::Instant::now();
                    let reply = self.tick(evict);
                    out.push(self.apply_tick(reply, start, end, true));
                    self.metrics.windows_closed.inc();
                    // Attribute the close to the batch whose record
                    // crossed the boundary (the last noted trace).
                    let tid = self.metrics.trace.last_trace_id();
                    if tid != 0 {
                        self.metrics.trace.record(
                            tid,
                            spans::WINDOW_EMIT,
                            "engine",
                            1,
                            emit_start.elapsed().as_nanos() as u64,
                        );
                    }
                    // Fast-forward through windows the gap left empty.
                    let mut s = end;
                    while ts >= s + w {
                        out.push(self.empty_window(s, s + w));
                        self.metrics.windows_closed.inc();
                        s += w;
                    }
                    self.window_start = Some(s);
                }
                Some(_) => {}
            }
        }
        Ok(())
    }

    /// Hand one routed record to the shard.
    #[inline]
    fn dispatch(&mut self, ts: u64, data: &[u8], info: Option<PeekInfo>, hints: RouteHints) {
        self.pushed += 1;
        self.state
            .analyzer
            .process_record_routed(ts, data, info.as_ref(), hints.p2p, hints.webrtc);
    }

    /// Replay what the shard logged since the last call through the
    /// cross-flow trackers, so the log never outgrows one push.
    fn replay_log(&mut self) {
        let log = self.state.analyzer.event_log.as_mut().expect("shard mode");
        if log.is_empty() {
            return;
        }
        let mut events = std::mem::take(log);
        self.replay_events(&events);
        events.clear();
        self.state.analyzer.event_log = Some(events);
    }

    /// Cut a partial window now, without waiting for a boundary record:
    /// same tick (eviction included) as a window close, but the current
    /// window keeps its index and stays open — its eventual close covers
    /// only post-checkpoint activity.
    pub fn checkpoint(&mut self) -> Result<WindowReport, Error> {
        let _span = trace::span("engine.checkpoint");
        self.publish_tallies();
        let t0 = std::time::Instant::now();
        let start = self.window_start.or(self.first_ts).unwrap_or(0);
        let end = self.last_ts.max(start);
        let evict = self.idle_nanos.map(|idle| end.saturating_sub(idle));
        let reply = self.tick(evict);
        let report = self.apply_tick(reply, start, end, false);
        self.metrics.checkpoints.inc();
        self.metrics
            .stage_checkpoint_nanos
            .observe(t0.elapsed().as_nanos() as u64);
        Ok(report)
    }

    /// Final tick and merge: the last window's report, the
    /// exact end-of-trace [`AnalysisReport`] (evicted fragments
    /// included), and the merged [`Analyzer`] over still-live state.
    pub fn drain(mut self) -> Result<EngineOutput, Error> {
        let _span = trace::span("engine.drain");
        self.publish_tallies();
        let start = self.window_start.or(self.first_ts).unwrap_or(0);
        let end = self.last_ts.max(start);
        let reply = self.tick(None);
        let final_window = self.apply_tick(reply, start, end, false);

        let StreamingEngine {
            analyzer_config,
            state,
            grouper,
            rtp_rtt,
            registry,
            webrtc_flows,
            replicas,
            mut tcp_samples,
            evicted_streams,
            evicted_flows,
            peak_tracked,
            metrics,
            ..
        } = self;
        let mut shard = state.analyzer;

        // ---- move the shard's state into a sequential-mode analyzer,
        // minus the event replay — that already happened push by push —
        // and minus shard TCP samples — those were shipped as per-tick
        // deltas into `tcp_samples`.
        let _merge_span = trace::span("engine.merge");
        let merge_t0 = std::time::Instant::now();
        let mut merged = Analyzer::new(analyzer_config);
        // Hand the merged analyzer the engine's registry so ad-hoc
        // queries (and `merged.report()`) see pipeline-wide accounting.
        merged.metrics = Arc::clone(&metrics);
        merged.total_packets = shard.total_packets;
        merged.zoom_packets = shard.zoom_packets;
        merged.zoom_bytes = shard.zoom_bytes;
        merged.webrtc_packets = shard.webrtc_packets;
        merged.webrtc_bytes = shard.webrtc_bytes;
        merged.undissectable = shard.undissectable;
        merged.first_zoom_ts = shard.first_zoom_ts;
        merged.last_zoom_ts = shard.last_zoom_ts;
        let (flows, streams) = std::mem::take(&mut shard.streams).into_parts();
        for (ft, fs) in flows {
            merged.streams.merge_flow(&ft, fs);
        }
        merged.classifier.merge(&shard.classifier);
        let mut live_pool: FxHashMap<StreamKey, Stream> =
            streams.into_iter().map(|s| (s.key, s)).collect();
        tcp_samples.sort_by_key(|s| s.at);
        merged.tcp_rtt.set_samples(tcp_samples);

        // Adopt live streams in global creation order, stamping the
        // unique ids the replayed grouper assigned. Keys whose streams
        // were all evicted have no live entry and are skipped here; their
        // fragments join the report below.
        for key in replicas.iter().map(|r| &r.key) {
            if let Some(mut s) = live_pool.remove(key) {
                s.unique_id = grouper.assignment(key).map(|(uid, _)| uid);
                merged.streams.adopt(s);
            }
        }
        debug_assert!(
            live_pool.is_empty(),
            "every live shard stream must have at least one logged event"
        );
        merged.grouper = grouper;
        merged.rtp_rtt = rtp_rtt;
        merged.p2p_endpoints = registry;
        merged.webrtc_flows = webrtc_flows;

        // ---- exact end-of-trace report: live rows interleaved with the
        // evicted fragments, in creation order; counts restored to
        // ever-seen totals.
        let extra_streams = replicas.len() - merged.streams.len();
        let extra_flows = evicted_flows
            .keys()
            .filter(|k| merged.streams.flow(k).is_none())
            .count();
        let mut rows = Vec::new();
        for key in replicas.iter().map(|r| &r.key) {
            if let Some(frags) = evicted_streams.get(key) {
                for frag in frags {
                    let mut frag = frag.clone();
                    // A merge after eviction may have folded the meeting
                    // id; re-resolve so fragments and live rows agree.
                    frag.meeting = merged.grouper.canonical_meeting(key);
                    rows.push(frag);
                }
            }
            if let Some(s) = merged.streams.get(key) {
                let uid = merged.grouper.assignment(key).map(|(u, _)| u);
                let meeting = merged.grouper.canonical_meeting(key);
                rows.push(StreamReport::from_stream(s, uid, meeting, false));
            }
        }
        let mut summary = merged.summary();
        summary.zoom_flows += extra_flows;
        summary.rtp_streams += extra_streams;
        let report = AnalysisReport {
            summary,
            undissectable: merged.undissectable,
            drops: drops_from_metrics(&metrics),
            meetings: merged.meetings(),
            streams: rows,
            rtp_rtt: RttSummaryReport::from_samples(merged.rtp_rtt.samples()),
            tcp_rtt: RttSummaryReport::from_samples(merged.tcp_rtt.samples()),
            families: merged.classifier.family_table(),
        };
        metrics
            .stage_merge_nanos
            .observe(merge_t0.elapsed().as_nanos() as u64);
        Ok(EngineOutput {
            final_window,
            report,
            analyzer: merged,
            peak_tracked_entries: peak_tracked,
        })
    }

    // ------------------------------------------------------- internals --

    /// Close a window on the shard, reusing the last reply's vectors.
    fn tick(&mut self, evict_before: Option<u64>) -> TickReply {
        let scratch = std::mem::take(&mut self.scratch);
        self.state.tick(evict_before, scratch)
    }

    /// Fold a tick reply into the cross-flow trackers and build the
    /// window's report.
    fn apply_tick(
        &mut self,
        mut reply: TickReply,
        start: u64,
        end: u64,
        advance: bool,
    ) -> WindowReport {
        let merge_t0 = std::time::Instant::now();
        let mut totals = WindowTotals {
            packets: reply.total_packets,
            zoom_packets: reply.zoom_packets,
            zoom_bytes: reply.zoom_bytes,
            new_flows: reply.new_flows,
            new_streams: reply.new_streams,
            evicted_flows: reply.evicted_flows.len() as u64,
            evicted_streams: reply.evicted_streams.len() as u64,
            ..WindowTotals::default()
        };
        let live = reply.live_flows + reply.live_streams;
        self.tcp_samples.append(&mut reply.tcp_new);
        for (ft, fs) in reply.evicted_flows {
            merge_flow(&mut self.evicted_flows, ft, fs);
        }

        // Replay what the shard logged since the last replay — the
        // records of the current batch that precede the boundary —
        // through the persistent cross-flow trackers. Pushes and ticks
        // partition the record sequence in order, so incremental replay
        // equals the batch replay.
        self.replay_events(&reply.events);
        reply.events.clear();

        // Evicted streams flush their final report fragment now that the
        // replay has assigned them; the heavyweight Stream is dropped.
        for s in reply.evicted_streams {
            let uid = self.grouper.assignment(&s.key).map(|(u, _)| u);
            let meeting = self.grouper.canonical_meeting(&s.key);
            self.evicted_streams
                .entry(s.key)
                .or_default()
                .push(StreamReport::from_stream(&s, uid, meeting, true));
        }

        let dur_secs = end.saturating_sub(start) as f64 / 1e9;
        let rate = |v: f64| if dur_secs > 0.0 { v / dur_secs } else { 0.0 };
        let mut streams: Vec<StreamWindow> = reply
            .deltas
            .iter()
            .map(|d| StreamWindow {
                key: d.key,
                media_type: d.media_type,
                direction: d.direction,
                family: d.family,
                meeting: self.grouper.canonical_meeting(&d.key),
                packets: d.packets,
                media_bytes: d.media_bytes,
                frames: d.frames,
                bitrate_bps: rate(d.media_bytes as f64 * 8.0),
                fps: rate(d.frames as f64),
                jitter_ms: (d.jitter_count > 0).then(|| d.jitter_sum / d.jitter_count as f64),
                lost: d.lost,
                duplicates: d.duplicates,
                evicted: d.evicted,
            })
            .collect();
        streams.sort_by_key(|s| s.key);
        reply.deltas.clear();
        // Emptied, capacity kept: the shard's next tick reuses them.
        self.scratch = TickScratch {
            deltas: reply.deltas,
            events: reply.events,
            tcp_new: reply.tcp_new,
        };

        let mut meetings: BTreeMap<u32, MeetingWindow> = BTreeMap::new();
        for row in &streams {
            if let Some(id) = row.meeting {
                let m = meetings.entry(id).or_insert(MeetingWindow {
                    id,
                    active_streams: 0,
                    packets: 0,
                    media_bytes: 0,
                });
                if row.packets > 0 {
                    m.active_streams += 1;
                }
                m.packets += row.packets;
                m.media_bytes += row.media_bytes;
            }
        }

        // Bound the router-side registries too: STUN entries past the
        // timeout can never match again, and neither can RTT candidates
        // past the matching window — both prunes are lossless.
        let stun_cutoff = end.saturating_sub(self.stun_timeout_nanos);
        self.registry.retain(|_, last| *last >= stun_cutoff);
        self.webrtc_flows.retain(|_, last| *last >= stun_cutoff);
        self.rtp_rtt.prune(end);

        totals.active_streams = streams.iter().filter(|r| r.packets > 0).count() as u64;
        totals.meetings = self.grouper.meeting_count();
        totals.rtp_rtt = RttSummaryReport::from_samples(&self.rtp_rtt.samples()[self.rtt_mark..]);
        self.rtt_mark = self.rtp_rtt.samples().len();
        totals.tracked_entries = live + self.registry.len() + self.rtp_rtt.outstanding();
        self.last_tracked = totals.tracked_entries;
        self.peak_tracked = self.peak_tracked.max(totals.tracked_entries);
        self.metrics.evicted_flows.add(totals.evicted_flows);
        self.metrics.evicted_streams.add(totals.evicted_streams);
        self.metrics
            .tracked_entries
            .set(totals.tracked_entries as u64);
        self.metrics
            .peak_tracked_entries
            .set_max(totals.tracked_entries as u64);

        let index = self.window_index;
        if advance {
            self.window_index += 1;
        }
        let report = WindowReport {
            index,
            start_nanos: start,
            end_nanos: end,
            totals,
            meetings: meetings.into_values().collect(),
            streams,
        };

        self.update_qoe_series(&report);
        // The detector only sees real window closes: checkpoint and
        // drain cut partial windows whose timing depends on when the
        // caller asked, which would make the alert stream nondeterministic.
        if advance {
            if let Some(watch) = &mut self.qoe_watch {
                let alerts = watch.observe(&report);
                for a in &alerts {
                    let v = match a.state {
                        AlertState::Degraded => 1,
                        AlertState::Recovered => 0,
                    };
                    self.metrics
                        .qoe
                        .degraded
                        .with(&[&a.meeting, a.kind], |g| g.set(v));
                }
                self.pending_alerts.extend(alerts);
            }
        }
        self.metrics
            .stage_merge_nanos
            .observe(merge_t0.elapsed().as_nanos() as u64);
        report
    }

    /// Refresh the `zoom_qoe_*` labeled families from a just-built
    /// window. Runs once per window close/checkpoint — never on the
    /// per-packet path — so the `with()` label allocations are
    /// amortized to nothing.
    fn update_qoe_series(&self, report: &WindowReport) {
        let qoe = &self.metrics.qoe;
        for ((meeting, media, family), agg) in qoe_watch::aggregate(report) {
            let labels = [meeting.as_str(), media, family];
            qoe.bitrate_bps.with(&labels, |g| g.set(agg.bitrate_bps));
            qoe.fps.with(&labels, |g| g.set(agg.fps_mean));
            if let Some(j) = agg.jitter_mean {
                qoe.jitter_ms.with(&labels, |g| g.set(j));
            }
            if agg.duplicates > 0 {
                qoe.retransmissions.with(&labels, |c| c.add(agg.duplicates));
            }
        }
        for s in &report.streams {
            if s.frames > 0 {
                qoe.frame_size_bytes
                    .with(&[crate::obs::media_slug(s.media_type), s.family.label()], |h| {
                        h.observe(s.media_bytes / s.frames)
                    });
            }
        }
        if report.totals.rtp_rtt.samples > 0 {
            qoe.estimated_rtt_ms.set(report.totals.rtp_rtt.mean_ms);
        }
    }

    /// A window no record fell into (trace gap): zero deltas, cumulative
    /// gauges carried forward, no tick.
    fn empty_window(&mut self, start: u64, end: u64) -> WindowReport {
        let index = self.window_index;
        self.window_index += 1;
        WindowReport {
            index,
            start_nanos: start,
            end_nanos: end,
            totals: WindowTotals {
                meetings: self.grouper.meeting_count(),
                tracked_entries: self.last_tracked,
                ..Default::default()
            },
            meetings: Vec::new(),
            streams: Vec::new(),
        }
    }

    /// Replay media events (in global order) through the persistent
    /// grouper, RTT estimator, and candidate replicas — the incremental
    /// version of the batch pipeline's merge-time replay.
    ///
    /// An event finds its replica through the stream serial the shard's
    /// stream table stamped on it: one indexed load. The keyed map
    /// is probed only on a handle's first event — a new stream, or one
    /// that was evicted and came back under a new serial and must find the
    /// replica it had before (that is what keeps it in its meeting).
    fn replay_events(&mut self, events: &[MediaEvent]) {
        let grouper = &mut self.grouper;
        let replicas = &mut self.replicas;
        let replica_index = &mut self.replica_index;
        let rtt = &mut self.rtp_rtt;
        let campus = &self.campus;
        for ev in events {
            // RTP-copy RTT is a Zoom-SFU behavior; WebRTC streams still
            // replay into the grouper and replica trackers below.
            if ev.family == FamilyId::Zoom {
                rtt.observe(
                    ev.ts_nanos,
                    (ev.ssrc, ev.payload_type, ev.rtp_seq, ev.rtp_ts),
                    ev.direction,
                    ev.flow.src_ip,
                );
            }
            let by_serial = &mut self.handles;
            let serial = ev.stream as usize;
            if serial >= by_serial.len() {
                by_serial.resize(serial + 1, UNSEEN);
            }
            if by_serial[serial] == UNSEEN {
                let key = StreamKey {
                    flow: ev.flow,
                    ssrc: ev.ssrc,
                };
                by_serial[serial] = match replica_index.get(&key) {
                    Some(&at) => at,
                    None => {
                        let (client, server) = resolve_stream_endpoints(&ev.flow, campus);
                        grouper.on_new_stream(
                            key,
                            client,
                            server,
                            ev.rtp_ts,
                            ev.rtp_seq,
                            ev.ts_nanos,
                            |k| {
                                let at = *replica_index.get(k)?;
                                replicas[at as usize].candidate()
                            },
                        );
                        let at = replicas.len() as u32;
                        replicas.push(Replica {
                            key,
                            subs: InlineList::default(),
                            last_seen: 0,
                        });
                        replica_index.insert(key, at);
                        at
                    }
                };
            }
            replicas[by_serial[serial] as usize].on_event(ev);
        }
    }

    /// Pick the peek to resume dissection from and the per-family flow
    /// verdicts for a record, mirroring the dissection and registry
    /// decisions the sequential analyzer makes.
    ///
    /// The router stays off the Zoom parse path: a header-only
    /// [`peek`] recovers the 5-tuple and header offsets (handed to the
    /// shard so it never re-scans Ethernet/IP/UDP), the STUN gate is
    /// applied exactly as the dissector applies it, and the expensive
    /// Zoom-vs-opaque question is answered lazily — only when one of the
    /// flow's endpoints has a fresh registry entry, because only then does
    /// the classification change what the registry (refresh) and the
    /// shard (P2P verdict) observe.
    fn route(&mut self, ts: u64, data: &[u8], link: LinkType) -> (Option<PeekInfo>, RouteHints) {
        let p = match peek(data, link) {
            Ok(p) => p,
            Err(e) => {
                // Undissectable records only touch additive counters;
                // account the drop here (the shard sees no PeekInfo and
                // counts nothing).
                self.metrics.record_drop(drop_stage(data, link, e));
                return (None, RouteHints::default());
            }
        };
        let hints = self.apply_registry(ts, &p.info, data);
        (Some(p.info), hints)
    }

    /// Apply the STUN-registry and WebRTC-flow-table sides of routing for
    /// one peeked record and return its flow verdicts. Shared verbatim by
    /// [`route`] and the batched pass-2 loop in [`push_batch_records`], so
    /// both paths make identical registry decisions by construction.
    ///
    /// [`route`]: StreamingEngine::route
    /// [`push_batch_records`]: StreamingEngine::push_batch_records
    fn apply_registry(&mut self, ts: u64, info: &PeekInfo, data: &[u8]) -> RouteHints {
        use zoom_wire::{stun, zoom};

        let flow = &info.five_tuple;
        let PeekTransport::Udp {
            payload_len: wire_len,
            ..
        } = info.transport
        else {
            return RouteHints::default(); // TCP: no registry interaction
        };
        // Lengths from the headers, bytes from what the capture kept.
        let payload = info.transport.payload(data);
        // STUN gate, verbatim from the dissector: port 3478 or a
        // magic-cookie match, then a successful parse.
        if flow.involves_port(stun::STUN_PORT) || stun::looks_like_stun(payload) {
            if let Ok(pkt) = stun::Packet::new_checked(payload) {
                if stun::Repr::parse(&pkt).is_ok() {
                    // Register the non-3478 endpoint — §4.1's rule.
                    let client = if flow.dst_port == stun::STUN_PORT {
                        flow.src()
                    } else {
                        flow.dst()
                    };
                    self.registry.insert(client, ts);
                    return RouteHints::default();
                }
            }
            // Gate matched but the parse failed: the dissector falls
            // through to the port-8801 / opaque branches; so do we.
        }
        // Non-STUN UDP. The sequential analyzer probes the registry
        // (refreshing on a hit) only for packets that do NOT parse as
        // Zoom server traffic. If neither endpoint has a fresh
        // registry entry, the probe is a no-op either way — skip the
        // Zoom parse entirely. Otherwise resolve the classification
        // so refresh semantics stay exact.
        let mut hints = RouteHints::default();
        if self.registry_has_fresh(ts, flow) {
            let opaque = !flow.involves_port(zoom::ZOOM_SFU_PORT)
                || zoom::parse(payload, wire_len, zoom::Framing::Server).is_err();
            if opaque {
                hints.p2p = self.probe_p2p(ts, flow);
            }
        }
        // WebRTC flow-table mirror of the sequential second chance. The
        // guard keeps this off the hot path: with no registered flows and
        // no STUN-fresh endpoint (and no eager `Only(Webrtc)` selection),
        // the sequential analyzer's verdict is trivially false too.
        if self.webrtc_enabled && (hints.p2p || self.webrtc_eager || !self.webrtc_flows.is_empty())
        {
            // A packet the Zoom second chance claims (P2P-fresh and
            // ZME-parseable) never reaches the WebRTC chance; mirror
            // that so refresh timing stays exact. The loose keep-alive
            // claim yields to strict WebRTC framing, exactly as the
            // sequential analyzer's dispatch does.
            let claimed_by_zoom = self.zoom_enabled
                && hints.p2p
                && match zoom::parse(payload, wire_len, zoom::Framing::P2p) {
                    Ok(z) => {
                        z.rtp.is_some()
                            || !z.rtcp.is_empty()
                            || webrtc::classify(payload, wire_len).is_err()
                    }
                    Err(_) => false,
                };
            if !claimed_by_zoom {
                if self.probe_webrtc(ts, flow) {
                    hints.webrtc = true;
                } else if (hints.p2p || self.webrtc_eager)
                    && matches!(
                        webrtc::classify(payload, wire_len),
                        Ok(webrtc::Pdu::Dtls(_))
                    )
                {
                    // A strict DTLS record opens the flow (RFC 5764:
                    // the handshake precedes SRTP) — the sequential
                    // analyzer's registration rule.
                    self.webrtc_flows.insert(flow.canonical(), ts);
                    hints.webrtc = true;
                }
            }
        }
        hints
    }

    /// True when either endpoint of `flow` has a registry entry within
    /// the STUN timeout. Read-only — refresh happens in `probe_p2p`.
    fn registry_has_fresh(&self, now: u64, flow: &FiveTuple) -> bool {
        let timeout = self.stun_timeout_nanos;
        [flow.src(), flow.dst()].iter().any(|ep| {
            self.registry
                .get(ep)
                .is_some_and(|&last| now.saturating_sub(last) <= timeout)
        })
    }

    /// The sequential analyzer's `is_p2p_flow`, applied to the router's
    /// registry: check `[src, dst]` in order, refresh the first endpoint
    /// still inside the STUN timeout.
    fn probe_p2p(&mut self, now: u64, flow: &FiveTuple) -> bool {
        let timeout = self.stun_timeout_nanos;
        for ep in [flow.src(), flow.dst()] {
            if let Some(last) = self.registry.get_mut(&ep) {
                if now.saturating_sub(*last) <= timeout {
                    *last = now;
                    return true;
                }
            }
        }
        false
    }

    /// The sequential analyzer's `is_webrtc_flow`, applied to the
    /// router's flow table: probe the canonical 5-tuple, refresh within
    /// the STUN timeout.
    fn probe_webrtc(&mut self, now: u64, flow: &FiveTuple) -> bool {
        let timeout = self.stun_timeout_nanos;
        if let Some(last) = self.webrtc_flows.get_mut(&flow.canonical()) {
            if now.saturating_sub(*last) <= timeout {
                *last = now;
                return true;
            }
        }
        false
    }
}

impl PacketSink for StreamingEngine {
    fn push(&mut self, ts_nanos: u64, data: &[u8], link: LinkType) -> Result<(), Error> {
        let windows = self.push_packet(ts_nanos, data, link)?;
        self.pending_windows.extend(windows);
        Ok(())
    }

    fn push_batch(&mut self, batch: &RecordBatch, link: LinkType) -> Result<(), Error> {
        let windows = self.push_batch_records(batch, link)?;
        self.pending_windows.extend(windows);
        Ok(())
    }

    fn take_windows(&mut self) -> Vec<WindowReport> {
        std::mem::take(&mut self.pending_windows)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.publish_tallies();
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
        self.drain().map(|o| o.report)
    }
}

fn merge_flow(into: &mut FxHashMap<FiveTuple, FlowStats>, ft: FiveTuple, fs: FlowStats) {
    match into.entry(ft) {
        std::collections::hash_map::Entry::Vacant(v) => {
            v.insert(fs);
        }
        std::collections::hash_map::Entry::Occupied(mut o) => o.get_mut().absorb(&fs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zoom_wire::compose;
    use zoom_wire::ipv4::Protocol;
    use zoom_wire::pcap::Record;
    use zoom_wire::rtp;
    use zoom_wire::zoom;

    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;

    fn tuple(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16) -> FiveTuple {
        FiveTuple {
            src_ip: IpAddr::V4(Ipv4Addr::from(src)),
            dst_ip: IpAddr::V4(Ipv4Addr::from(dst)),
            src_port: sport,
            dst_port: dport,
            protocol: Protocol::Udp,
        }
    }

    fn media_record(ts: u64, src_host: u8, ssrc: u32, seq: u16, rtp_ts: u32) -> Record {
        media_record_dir(ts, true, src_host, ssrc, seq, rtp_ts)
    }

    /// One video packet between campus client `host` and the SFU, uplink
    /// or downlink.
    fn media_record_dir(ts: u64, up: bool, host: u8, ssrc: u32, seq: u16, rtp_ts: u32) -> Record {
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
                packets_in_frame: Some(1),
            },
            rtp: Some(rtp::Repr {
                marker: true,
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
        let client = Ipv4Addr::new(10, 8, 0, host);
        let sfu = Ipv4Addr::new(170, 114, 0, 1);
        let data = if up {
            compose::udp_ipv4_ethernet(client, sfu, 50_000, 8801, &payload)
        } else {
            compose::udp_ipv4_ethernet(sfu, client, 8801, 50_000, &payload)
        };
        Record::full(ts, data)
    }

    #[test]
    fn windows_close_on_boundaries_and_deltas_sum() {
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .unwrap();
        // 30 fps for 25 s: windows [0,10s), [10s,20s) close; the final
        // [20s,25s) fragment arrives at drain.
        let mut windows = Vec::new();
        for i in 0..750u64 {
            let r = media_record(i * 33 * MS, 1, 0x21, i as u16 + 1, 1_000 + i as u32 * 3_000);
            windows.extend(
                engine
                    .push_packet(r.ts_nanos, &r.data, LinkType::Ethernet)
                    .unwrap(),
            );
        }
        let out = engine.drain().unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[1].index, 1);
        assert_eq!(windows[0].start_nanos, 0);
        assert_eq!(windows[0].end_nanos, 10 * SEC);
        let windowed: u64 = windows
            .iter()
            .chain(std::iter::once(&out.final_window))
            .map(|w| w.totals.zoom_packets)
            .sum();
        assert_eq!(windowed, 750);
        assert_eq!(out.report.summary.zoom_packets, 750);
        let stream_pkts: u64 = windows
            .iter()
            .chain(std::iter::once(&out.final_window))
            .flat_map(|w| w.streams.iter())
            .map(|s| s.packets)
            .sum();
        assert_eq!(stream_pkts, 750);
        assert!(windows[0].totals.tracked_entries > 0);
    }

    #[test]
    fn idle_streams_evicted_and_fragments_flushed() {
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(5)),
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .unwrap();
        // Stream A: 0–3 s, then silence. Stream B keeps the clock
        // ticking until A is idle past the timeout.
        let mut evicted_seen = 0u64;
        let mut rows = Vec::new();
        for i in 0..90u64 {
            let r = media_record(i * 33 * MS, 1, 0xA, i as u16 + 1, 1_000 + i as u32 * 3_000);
            rows.extend(
                engine
                    .push_packet(r.ts_nanos, &r.data, LinkType::Ethernet)
                    .unwrap(),
            );
        }
        for i in 0..900u64 {
            let r = media_record(
                3 * SEC + i * 33 * MS,
                2,
                0xB,
                i as u16 + 1,
                1_000 + i as u32 * 3_000,
            );
            rows.extend(
                engine
                    .push_packet(r.ts_nanos, &r.data, LinkType::Ethernet)
                    .unwrap(),
            );
        }
        for w in &rows {
            evicted_seen += w.totals.evicted_streams;
        }
        assert_eq!(evicted_seen, 1, "stream A must be evicted exactly once");
        let out = engine.drain().unwrap();
        // The evicted fragment appears in the final report with exact
        // totals, and the live stream is intact.
        let frag: Vec<_> = out.report.streams.iter().filter(|s| s.evicted).collect();
        assert_eq!(frag.len(), 1);
        assert_eq!(frag[0].packets, 90);
        assert_eq!(out.report.summary.rtp_streams, 2);
        assert_eq!(out.report.summary.zoom_packets, 990);
        assert!(out.peak_tracked_entries >= 2);
    }

    fn batch_of(records: impl IntoIterator<Item = Record>) -> RecordBatch {
        let mut batch = RecordBatch::new();
        for r in records {
            batch.push(r.ts_nanos, r.orig_len, &r.data);
        }
        batch
    }

    /// Fx hashes finished on this thread while `f` runs.
    fn hashes_during(f: impl FnOnce()) -> u64 {
        let before = crate::fxhash::hash_computations();
        f();
        crate::fxhash::hash_computations() - before
    }

    /// The deterministic companion of the window-cost rows in
    /// `docs/PERFORMANCE.md`, next to
    /// `pipeline::tests::steady_state_media_packet_costs_one_probe`: where
    /// a steady-state media packet's hashes are paid, and how many.
    #[test]
    fn inline_lane_pays_the_shard_and_replay_hashes_on_the_calling_thread() {
        const N: u64 = 200;
        // Downlink video (the RTT matcher probes for an uplink copy and
        // stores nothing, so its table never grows and rehashes) on two
        // interleaved flows (so the shard's last-flow memo never hits).
        let record = |i: u64| {
            let flow = i % 2;
            let seq = (i / 2) as u16 + 1;
            let rtp_ts = 1_000 + u32::from(seq) * 3_000;
            media_record_dir(
                i * MS,
                false,
                1 + flow as u8,
                0x21 + flow as u32,
                seq,
                rtp_ts,
            )
        };
        let warm_up = batch_of((0..20).map(record));
        let steady = batch_of((20..20 + N).map(record));

        // The shard's flow-table probe and the replay's RTT probe are both
        // paid right here, on the calling thread. The router adds none:
        // its registries are empty, and an empty table is not hashed for.
        let mut engine = StreamingEngine::new(EngineConfig::default()).unwrap();
        engine
            .push_batch_records(&warm_up, LinkType::Ethernet)
            .unwrap();
        let on_caller = hashes_during(|| {
            engine
                .push_batch_records(&steady, LinkType::Ethernet)
                .unwrap();
        });
        assert_eq!(on_caller, 2 * N);
        // Replayed at the end of each push, the log never outgrows one.
        assert!(engine.state.analyzer.event_log.as_ref().unwrap().is_empty());
        assert_eq!(engine.drain().unwrap().report.summary.zoom_packets, 20 + N);
    }

    #[test]
    fn replaying_a_known_stream_event_costs_one_hash() {
        let flow = tuple([10, 8, 0, 1], 50_000, [170, 114, 0, 1], 8801);
        let event = |i: u64| MediaEvent {
            ts_nanos: i * MS,
            flow,
            ssrc: 0x21 + i as u32 % 2,
            payload_type: 98,
            rtp_seq: i as u16,
            rtp_ts: 1_000 + i as u32 * 3_000,
            // Downlink: the RTT matcher probes and stores nothing, so
            // its table never grows (a growing table rehashes).
            direction: Direction::FromServer,
            family: FamilyId::Zoom,
            stream: i as u32 % 2,
        };
        let mut engine = StreamingEngine::new(EngineConfig::default()).unwrap();
        // First sight of each handle: keyed probes, grouping.
        let first: Vec<MediaEvent> = (0..4).map(event).collect();
        engine.replay_events(&first);
        assert_eq!(engine.replicas.len(), 2);
        // From then on: the RTT matcher's probe, nothing else.
        let steady: Vec<MediaEvent> = (4..104).map(event).collect();
        let hashes = hashes_during(|| engine.replay_events(&steady));
        assert_eq!(hashes, steady.len() as u64);
        let packets: u64 = engine.replicas[0].subs.iter().map(|s| s.packets).sum();
        assert_eq!(packets, 52);
    }

    #[test]
    fn evicted_stream_returns_to_its_replica_and_meeting() {
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(5)),
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .unwrap();
        let mut evicted = 0;
        let mut feed = |engine: &mut StreamingEngine, r: Record| {
            for w in engine
                .push_packet(r.ts_nanos, &r.data, LinkType::Ethernet)
                .unwrap()
            {
                evicted += w.totals.evicted_streams;
            }
        };
        // Stream A speaks for 3 s; stream B keeps the clock running
        // until A is evicted; then A comes back.
        for i in 0..90u64 {
            feed(
                &mut engine,
                media_record(i * 33 * MS, 1, 0xA, i as u16 + 1, 1_000 + i as u32 * 3_000),
            );
        }
        for i in 0..900u64 {
            let ts = 3 * SEC + i * 33 * MS;
            feed(
                &mut engine,
                media_record(ts, 2, 0xB, i as u16 + 1, 1_000 + i as u32 * 3_000),
            );
        }
        for i in 0..30u64 {
            let ts = 33 * SEC + i * 33 * MS;
            let n = 90 + i;
            feed(
                &mut engine,
                media_record(ts, 1, 0xA, n as u16 + 1, 1_000 + n as u32 * 3_000),
            );
        }
        assert_eq!(evicted, 1, "A must be evicted exactly once");
        engine.checkpoint().unwrap();

        // Three stream incarnations were handled — A, B, A again under
        // a new serial — but only two replicas exist: the returning A
        // found the one it had.
        let handled = engine.handles.iter().filter(|&&at| at != UNSEEN).count();
        assert_eq!(handled, 3);
        assert_eq!(engine.replicas.len(), 2);
        let a_packets: u64 = engine.replicas[0].subs.iter().map(|s| s.packets).sum();
        assert_eq!(a_packets, 120, "both incarnations feed one replica");

        // So it kept its identity: the evicted fragment and the live
        // row agree on unique id and meeting.
        let out = engine.drain().unwrap();
        let a_rows: Vec<_> = out
            .report
            .streams
            .iter()
            .filter(|s| s.key.ssrc == 0xA)
            .collect();
        assert_eq!(a_rows.len(), 2);
        assert!(a_rows[0].evicted && !a_rows[1].evicted);
        assert_eq!((a_rows[0].packets, a_rows[1].packets), (90, 30));
        assert!(a_rows[0].meeting.is_some());
        assert_eq!(a_rows[0].meeting, a_rows[1].meeting);
        assert_eq!(a_rows[0].unique_id, a_rows[1].unique_id);
        assert_eq!(out.report.summary.rtp_streams, 2);
    }

    #[test]
    fn gap_emits_empty_windows() {
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(1)),
            ..Default::default()
        })
        .unwrap();
        let mut windows = Vec::new();
        let early = media_record(0, 1, 0x1, 1, 100);
        windows.extend(
            engine
                .push_packet(early.ts_nanos, &early.data, LinkType::Ethernet)
                .unwrap(),
        );
        let late = media_record(4 * SEC + 1, 1, 0x1, 2, 200);
        windows.extend(
            engine
                .push_packet(late.ts_nanos, &late.data, LinkType::Ethernet)
                .unwrap(),
        );
        // Record at 4.000000001 s closes [0,1) and skips [1,2), [2,3), [3,4).
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].totals.zoom_packets, 1);
        assert!(windows[1..].iter().all(|w| w.totals.zoom_packets == 0));
        let indices: Vec<u64> = windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        engine.drain().unwrap();
    }
}

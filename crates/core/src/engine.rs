//! Streaming bounded-memory analysis with windowed reports.
//!
//! The batch pipeline ([`Analyzer`]) holds every flow and stream until
//! the trace ends — fine for a finished capture, unusable on a live link
//! where flows churn forever and results are wanted *while* traffic
//! flows. [`StreamingEngine`] is that same analyzer plus a window clock:
//! every record goes through the analyzer's one per-record loop, and
//! ahead of each record the clock looks at its timestamp. That adds three
//! things:
//!
//! * **Windowed reports.** With a tumbling window configured, closing a
//!   window emits a [`WindowReport`]: per-stream counter *deltas*
//!   (bitrate, frame rate, jitter, loss over just that window) plus
//!   meeting-level rollups — a live Table 6 row. Deltas are differences
//!   of monotonic counters against the snapshot each stream carries from
//!   the previous close, so summing a stream's windows reproduces its
//!   whole-trace totals exactly.
//! * **Bounded memory.** With an idle timeout configured, each window
//!   close evicts flows, streams and RTP-copy RTT candidates that have
//!   been idle past the timeout — straight out of the analyzer's own
//!   tables — and sweeps the capped P2P registers
//!   ([`crate::stun_tracker`]) of entries past their own timeout. An
//!   evicted stream flushes a final report fragment (`evicted: true`),
//!   so end-of-trace totals stay exact, and leaves a tombstone in the
//!   stream table ([`crate::stream::StreamTracker::evict_idle`]), so it
//!   stays a grouping candidate and is the same stream if it returns.
//! * **Drain.** [`StreamingEngine::drain`] ticks the last window and
//!   returns the finished [`AnalysisReport`] — the
//!   analyzer's report with the evicted fragments in their places —
//!   along with the [`Analyzer`] itself for ad-hoc queries. The last
//!   window's rows are cut only if [`EngineOutput::final_window`] is
//!   asked for them.
//!
//! With no window and no idle timeout the clock only notes the first and
//! last timestamp, and the engine *is* a batch pipeline (asserted by
//! `tests/streaming_differential.rs`). It runs on the calling thread,
//! straight out of the caller's batch. To use more cores, split the taps
//! by flow and run one process per tap (`docs/DISTRIBUTED.md`).
//!
//! Windowed mode assumes capture timestamps are approximately monotonic
//! (true of pcaps and live captures alike); records may arrive slightly
//! out of order, but a record older than an already-closed window is
//! simply accounted to the current one. A timestamp far in the future —
//! nothing about a capture file can be trusted — closes the current
//! window, emits at most `MAX_EMPTY_RUN` (3 600) empty ones, and jumps.

pub mod qoe_watch;

pub use qoe_watch::{AlertState, QoeAlert, QoeWatch};

use crate::error::Error;
use crate::fxhash::FxHashSet;
use crate::meeting::MeetingGrouper;
use crate::metrics::latency::RttTotals;
use crate::obs::trace::spans;
use crate::obs::{MetricsSnapshot, PipelineMetrics};
use crate::pipeline::{Analyzer, AnalyzerConfig};
use crate::report::{
    build_report, AnalysisReport, MeetingWindow, RttSummaryReport, StreamReport, StreamWindow,
    WindowReport, WindowTotals,
};
use crate::sink::PacketSink;
use crate::stats::LogHistogram;
use crate::stream::{Stream, StreamSnap};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zoom_wire::flow::FiveTuple;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

/// How many empty windows one record may materialise when its timestamp
/// skips ahead; past that the clock jumps, counting the skipped windows
/// in [`WindowReport::index`] without building them. An hour of
/// one-second windows: no real capture gap gets near it, and a hostile
/// timestamp costs at most this many small reports.
const MAX_EMPTY_RUN: u64 = 3_600;

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
    /// window; `false` disables alerting (the QoE gauge series are still
    /// emitted).
    pub qoe: bool,
}

/// Everything [`StreamingEngine::drain`] produces.
pub struct EngineOutput {
    /// The exact end-of-trace report, evicted fragments included.
    pub report: AnalysisReport,
    /// The engine's analyzer — the still-live state — for ad-hoc queries
    /// (media samples, Fig. 16 data, classifier tables).
    pub analyzer: Analyzer,
    /// Highest tracked-entry count observed at any tick — the
    /// bounded-memory gauge benches and tests assert on.
    pub peak_tracked_entries: usize,
    /// The last window as the drain's tick left it: no rows yet.
    last_tick: WindowReport,
    /// The last window, cut from `last_tick` on first request.
    last_window: OnceCell<WindowReport>,
}

impl EngineOutput {
    /// The last (usually partial) window's report. Its per-stream rows
    /// and meeting rollup are cut at the first call, which also refreshes
    /// the `zoom_qoe_*` series from them as every window close does: a
    /// caller that prints the window, or keeps a metrics sink for the
    /// series, asks for it; a caller that reads only the report does not
    /// pay for a row per stream.
    pub fn final_window(&self) -> &WindowReport {
        self.last_window.get_or_init(|| {
            let mut window = self.last_tick.clone();
            cut_window(&self.analyzer, &[], &mut window);
            update_qoe_series(&self.analyzer.metrics, &window);
            window
        })
    }
}

/// Incremental analyzer: one record in, zero or more [`WindowReport`]s
/// out, bounded state in between.
///
/// ```no_run
/// use std::time::Duration;
/// use zoom_analysis::engine::{EngineConfig, StreamingEngine};
/// use zoom_analysis::PacketSink;
/// use zoom_wire::pcap::{LinkType, Record};
///
/// let mut engine = StreamingEngine::new(EngineConfig {
///     window: Some(Duration::from_secs(10)),
///     idle_timeout: Some(Duration::from_secs(60)),
///     ..Default::default()
/// })
/// .expect("valid config");
/// let records: Vec<Record> = Vec::new(); // or a capture's batches, through `push_batch`
/// for r in &records {
///     engine.push(r.ts_nanos, &r.data, LinkType::Ethernet)?;
///     for w in engine.take_windows() {
///         println!("{}", w.to_json());
///     }
/// }
/// let output = engine.drain().expect("drain");
/// println!("{}", output.report.to_json());
/// # Ok::<(), zoom_analysis::Error>(())
/// ```
pub struct StreamingEngine {
    analyzer: Analyzer,
    clock: WindowClock,
}

/// The engine's half of the state: where the current window stands, what
/// the analyzer's counters read when the last one closed, and what was
/// evicted since the trace began.
struct WindowClock {
    window_nanos: Option<u64>,
    idle_nanos: Option<u64>,
    window_index: u64,
    window_start: Option<u64>,
    first_ts: Option<u64>,
    last_ts: u64,
    // -------- the analyzer's cumulative counters at the last close ------
    total_packets: u64,
    zoom_packets: u64,
    zoom_bytes: u64,
    flows_seen: u64,
    streams_seen: u64,
    evicted_flows_cum: u64,
    /// The RTP-copy RTT totals and histogram as of the last close; a
    /// window's RTT summary is the difference.
    rtt_mark: (RttTotals, LogHistogram),
    last_tracked: usize,
    peak_tracked: usize,
    // -------- what eviction took out of the analyzer --------------------
    /// Final rows of evicted streams with their creation rank
    /// ([`crate::stream::Stream`]'s `serial`), in eviction order.
    fragments: Vec<(u32, StreamReport)>,
    evicted_flows: FxHashSet<FiveTuple>,
    /// The analyzer's registry.
    metrics: Arc<PipelineMetrics>,
    /// Windows closed and not yet taken.
    closed: Vec<WindowReport>,
    /// Degradation detector, present when [`EngineConfig::qoe`] was set.
    qoe_watch: Option<QoeWatch>,
    /// Alerts emitted by closed windows, held until
    /// [`StreamingEngine::take_alerts`].
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
        let analyzer = Analyzer::new(config.analyzer);
        let clock = WindowClock {
            window_nanos,
            idle_nanos,
            window_index: 0,
            window_start: None,
            first_ts: None,
            last_ts: 0,
            total_packets: 0,
            zoom_packets: 0,
            zoom_bytes: 0,
            flows_seen: 0,
            streams_seen: 0,
            evicted_flows_cum: 0,
            rtt_mark: Default::default(),
            last_tracked: 0,
            peak_tracked: 0,
            fragments: Vec::new(),
            evicted_flows: FxHashSet::default(),
            metrics: analyzer.metrics_handle(),
            closed: Vec::new(),
            qoe_watch: config.qoe.then(QoeWatch::default),
            pending_alerts: Vec::new(),
        };
        Ok(StreamingEngine { analyzer, clock })
    }

    /// Drain the degradation alerts emitted by windows closed so far.
    ///
    /// Empty unless [`EngineConfig::qoe`] switched the detector on. Alerts
    /// appear in window order, and within a window in deterministic
    /// `(meeting, media, kind)` order; render each with
    /// [`QoeAlert::to_json`] for the NDJSON alert stream.
    pub fn take_alerts(&mut self) -> Vec<QoeAlert> {
        std::mem::take(&mut self.clock.pending_alerts)
    }

    /// The engine's observability registry, for wiring external
    /// consumers such as the `obs::serve` scrape endpoint — the
    /// endpoint holds the `Arc` and snapshots per
    /// request while the engine keeps pushing.
    pub fn metrics_handle(&self) -> Arc<PipelineMetrics> {
        self.analyzer.metrics_handle()
    }

    /// Ingest a capture hand-off batch — [`PacketSink::push_batch`],
    /// callable without the trait in scope. Windows the batch closes wait
    /// in [`take_windows`](Self::take_windows).
    pub fn push_batch(&mut self, batch: &RecordBatch, link: LinkType) -> Result<(), Error> {
        if batch.is_empty() {
            return Ok(());
        }
        let t0 = Instant::now();
        let StreamingEngine { analyzer, clock } = self;
        // Windows closed while this batch streams in attribute their emit
        // spans to this batch's trace (the analyzer notes it).
        analyzer.push_batch_with(batch, link, |a, ts| clock.before_record(a, ts));
        if batch.trace_id != 0 {
            clock.metrics.trace.record(
                batch.trace_id,
                spans::ENGINE_PUSH,
                "engine",
                batch.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
        Ok(())
    }

    /// Every window closed and not yet taken, oldest first.
    pub fn take_windows(&mut self) -> Vec<WindowReport> {
        std::mem::take(&mut self.clock.closed)
    }

    /// Snapshot of the engine's registry ([`PacketSink::metrics`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        self.analyzer.metrics()
    }

    /// The capture side's torn-tail count
    /// ([`PacketSink::note_pcap_truncated`]).
    pub fn note_pcap_truncated(&mut self, records: u64) {
        self.analyzer.note_pcap_truncated(records);
    }

    /// The capture side's delivery progress
    /// ([`PacketSink::note_pcap_progress`]).
    pub fn note_pcap_progress(&mut self, records: u64, bytes: u64) {
        self.analyzer.note_pcap_progress(records, bytes);
    }

    /// Final tick and report: the exact end-of-trace [`AnalysisReport`]
    /// (evicted fragments included), the [`Analyzer`] over still-live
    /// state, and the last window, whose rows are cut when
    /// [`EngineOutput::final_window`] asks for them.
    pub fn drain(self) -> Result<EngineOutput, Error> {
        let StreamingEngine {
            mut analyzer,
            mut clock,
        } = self;
        analyzer.flush_metrics();
        let (start, end) = clock.open_span();
        let t0 = Instant::now();
        let (last_tick, _) = clock.tick(&mut analyzer, start, end, None);
        clock
            .metrics
            .stage_merge_nanos
            .observe(t0.elapsed().as_nanos() as u64);

        let t0 = Instant::now();
        // Evicted flows count once each, and not at all while live again.
        let extra_flows = clock
            .evicted_flows
            .iter()
            .filter(|ft| !analyzer.streams.is_live(ft))
            .count();
        let report = build_report(&analyzer, &clock.fragments, extra_flows);
        clock
            .metrics
            .stage_merge_nanos
            .observe(t0.elapsed().as_nanos() as u64);
        Ok(EngineOutput {
            report,
            analyzer,
            peak_tracked_entries: clock.peak_tracked,
            last_tick,
            last_window: OnceCell::new(),
        })
    }
}

impl WindowClock {
    /// The analyzer's "before this record" hook: note the timestamp and
    /// close whatever windows it has moved past. With no window
    /// configured that is two stores.
    #[inline]
    fn before_record(&mut self, analyzer: &mut Analyzer, ts: u64) {
        self.first_ts.get_or_insert(ts);
        self.last_ts = self.last_ts.max(ts);
        let Some(w) = self.window_nanos else { return };
        match self.window_start {
            None => self.window_start = Some(ts - ts % w),
            Some(start) if ts.saturating_sub(start) >= w => self.roll(analyzer, start, w, ts),
            Some(_) => {}
        }
    }

    /// Close the window at `start` and fast-forward to the one `ts`
    /// (at least a window length past `start`) falls into.
    #[cold]
    fn roll(&mut self, analyzer: &mut Analyzer, start: u64, w: u64, ts: u64) {
        // `ts - start >= w`, so `start + w <= ts` and nothing below
        // overflows.
        let end = start + w;
        let evict = self.idle_nanos.map(|idle| end.saturating_sub(idle));
        let emit_start = Instant::now();
        let report = self.close(analyzer, start, end, evict);
        self.closed.push(report);
        self.metrics.windows_closed.inc();
        // Attribute the close to the batch whose record crossed the
        // boundary (the last noted trace).
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
        // Windows the gap left empty: materialise a bounded run of them,
        // then jump to the window `ts` is in.
        let skipped = (ts - end) / w;
        let shown = skipped.min(MAX_EMPTY_RUN);
        for i in 0..shown {
            let s = end + i * w;
            let empty = self.empty_window(analyzer, s, s + w);
            self.closed.push(empty);
            self.metrics.windows_closed.inc();
        }
        self.window_index = self.window_index.saturating_add(skipped - shown);
        self.window_start = Some(ts - ts % w);
    }

    /// The span the last, partial window covers at the drain.
    fn open_span(&self) -> (u64, u64) {
        let start = self.window_start.or(self.first_ts).unwrap_or(0);
        (start, self.last_ts.max(start))
    }

    /// Close a window over `[start, end)`: tick (evicting what has been
    /// idle since before `evict_before`), keep the evicted streams' final
    /// rows for the end-of-trace report, cut the window's rows off the
    /// analyzer's stream table and off what was just evicted, and refresh
    /// the QoE series and the QoE detector from them.
    fn close(
        &mut self,
        analyzer: &mut Analyzer,
        start: u64,
        end: u64,
        evict_before: Option<u64>,
    ) -> WindowReport {
        let t0 = Instant::now();
        let (mut report, gone_streams) = self.tick(analyzer, start, end, evict_before);
        self.window_index = self.window_index.saturating_add(1);
        // The heavyweight `Stream` is dropped, its final report row kept.
        for s in &gone_streams {
            let meeting = s.meeting.map(|m| analyzer.grouper.canonical(m));
            self.fragments
                .push((s.serial, StreamReport::from_stream(s, meeting, true)));
        }
        cut_window(analyzer, &gone_streams, &mut report);
        // Every live stream's next window starts where this one closed.
        for s in analyzer.streams.iter_mut() {
            s.close_window(StreamSnap::of(s));
        }

        update_qoe_series(&self.metrics, &report);
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
        self.metrics
            .stage_merge_nanos
            .observe(t0.elapsed().as_nanos() as u64);
        report
    }

    /// The tick of the current window, cut at `[start, end)`: the
    /// trace-level deltas since the last one, eviction of what has been
    /// idle since before `evict_before`, the registry prunes, and the
    /// tracked-entry gauges. Returns the window with its totals but no
    /// rows (nor the `active_streams` they give), and the evicted streams.
    fn tick(
        &mut self,
        analyzer: &mut Analyzer,
        start: u64,
        end: u64,
        evict_before: Option<u64>,
    ) -> (WindowReport, Vec<Stream>) {
        // Gauges BEFORE eviction so new_* deltas stay consistent: seen =
        // live + evicted-so-far is invariant across the eviction below.
        // (Every evicted stream left exactly one fragment.)
        let flows_seen = analyzer.streams.flow_count() as u64 + self.evicted_flows_cum;
        let streams_seen = (analyzer.streams.len() + self.fragments.len()) as u64;
        let mut totals = WindowTotals {
            packets: analyzer.total_packets - self.total_packets,
            zoom_packets: analyzer.zoom_packets - self.zoom_packets,
            zoom_bytes: analyzer.zoom_bytes - self.zoom_bytes,
            new_flows: flows_seen - self.flows_seen,
            new_streams: streams_seen - self.streams_seen,
            ..WindowTotals::default()
        };
        self.total_packets = analyzer.total_packets;
        self.zoom_packets = analyzer.zoom_packets;
        self.zoom_bytes = analyzer.zoom_bytes;
        self.flows_seen = flows_seen;
        self.streams_seen = streams_seen;

        let (gone_streams, gone_flows) = match evict_before {
            Some(cutoff) => analyzer.streams.evict_idle(cutoff),
            None => Default::default(),
        };
        totals.evicted_streams = gone_streams.len() as u64;
        totals.evicted_flows = gone_flows.len() as u64;
        self.evicted_flows_cum += totals.evicted_flows;
        self.evicted_flows.extend(gone_flows);

        // Bound the registries too: register entries past the timeout
        // can never match again, and neither can RTT candidates past the
        // matching window — every prune is lossless.
        analyzer.stun_register.sweep(end);
        analyzer.dtls_register.sweep(end);
        analyzer.rtp_rtt.prune(end);

        totals.meetings = analyzer.grouper.meeting_count();
        let rtt = analyzer.rtp_rtt.stats();
        let (mark_totals, mark_histogram) = &mut self.rtt_mark;
        totals.rtp_rtt = RttSummaryReport::of(
            rtt.totals().since(*mark_totals),
            &rtt.histogram().since(mark_histogram),
        );
        *mark_totals = rtt.totals();
        mark_histogram.clone_from(rtt.histogram());
        totals.tracked_entries = analyzer.streams.flow_count()
            + analyzer.streams.len()
            + analyzer.stun_register.len()
            + analyzer.rtp_rtt.outstanding();
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
        let window = WindowReport {
            index: self.window_index,
            start_nanos: start,
            end_nanos: end,
            totals,
            meetings: Vec::new(),
            streams: Vec::new(),
        };
        (window, gone_streams)
    }

    /// A window no record fell into (trace gap): zero deltas, cumulative
    /// gauges carried forward, no tick.
    fn empty_window(&mut self, analyzer: &Analyzer, start: u64, end: u64) -> WindowReport {
        let index = self.window_index;
        self.window_index = self.window_index.saturating_add(1);
        WindowReport {
            index,
            start_nanos: start,
            end_nanos: end,
            totals: WindowTotals {
                meetings: analyzer.grouper.meeting_count(),
                tracked_entries: self.last_tracked,
                ..Default::default()
            },
            meetings: Vec::new(),
            streams: Vec::new(),
        }
    }
}

/// Cut the rows of a just-ticked `window`: one per live stream whose
/// counters moved since the last close, and one per stream the tick
/// evicted (`gone`), even a silent one, flagged as its final fragment;
/// then the per-meeting rollup of those rows.
fn cut_window(analyzer: &Analyzer, gone: &[Stream], window: &mut WindowReport) {
    let dur_secs = window.end_nanos.saturating_sub(window.start_nanos) as f64 / 1e9;
    let grouper = &analyzer.grouper;
    let mut streams = Vec::new();
    for s in analyzer.streams.iter() {
        let now = StreamSnap::of(s);
        if now != s.window_snap {
            streams.push(stream_window(s, now, false, grouper, dur_secs));
        }
    }
    for s in gone {
        streams.push(stream_window(s, StreamSnap::of(s), true, grouper, dur_secs));
    }
    streams.sort_by_key(|s| s.key);

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
    window.totals.active_streams = streams.iter().filter(|r| r.packets > 0).count() as u64;
    window.meetings = meetings.into_values().collect();
    window.streams = streams;
}

/// Refresh the `zoom_qoe_*` labeled families from a just-cut window.
/// Runs once per window close — never on the per-packet path —
/// so the `with()` label allocations are amortized to nothing.
fn update_qoe_series(metrics: &PipelineMetrics, report: &WindowReport) {
    let qoe = &metrics.qoe;
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
            qoe.frame_size_bytes.with(
                &[crate::obs::media_slug(s.media_type), s.family.label()],
                |h| h.observe(s.media_bytes / s.frames),
            );
        }
    }
    if report.totals.rtp_rtt.samples > 0 {
        qoe.estimated_rtt_ms.set(report.totals.rtp_rtt.mean_ms);
    }
}

/// One stream's row in a window of `dur_secs`: what its counters gained
/// between the snapshot the previous close left on it and `now`.
fn stream_window(
    s: &Stream,
    now: StreamSnap,
    evicted: bool,
    grouper: &MeetingGrouper,
    dur_secs: f64,
) -> StreamWindow {
    let rate = |v: f64| if dur_secs > 0.0 { v / dur_secs } else { 0.0 };
    let prev = s.window_snap;
    let (jitter_sum, jitter_samples) = s.window_jitter;
    let media_bytes = now.media_bytes - prev.media_bytes;
    let frames = now.frames - prev.frames;
    StreamWindow {
        key: s.key,
        media_type: s.media_type,
        direction: s.direction,
        family: s.family,
        meeting: s.meeting.map(|m| grouper.canonical(m)),
        packets: now.packets - prev.packets,
        media_bytes,
        frames,
        bitrate_bps: rate(media_bytes as f64 * 8.0),
        fps: rate(frames as f64),
        jitter_ms: (jitter_samples > 0).then(|| jitter_sum / f64::from(jitter_samples)),
        lost: now.missing - prev.missing,
        duplicates: now.duplicates - prev.duplicates,
        evicted,
    }
}

impl PacketSink for StreamingEngine {
    fn push(&mut self, ts_nanos: u64, data: &[u8], link: LinkType) -> Result<(), Error> {
        self.clock.before_record(&mut self.analyzer, ts_nanos);
        self.analyzer.push(ts_nanos, data, link)
    }

    fn push_batch(&mut self, batch: &RecordBatch, link: LinkType) -> Result<(), Error> {
        StreamingEngine::push_batch(self, batch, link)
    }

    fn take_windows(&mut self) -> Vec<WindowReport> {
        StreamingEngine::take_windows(self)
    }

    fn metrics(&self) -> MetricsSnapshot {
        StreamingEngine::metrics(self)
    }

    fn note_pcap_truncated(&mut self, records: u64) {
        StreamingEngine::note_pcap_truncated(self, records);
    }

    fn note_pcap_progress(&mut self, records: u64, bytes: u64) {
        StreamingEngine::note_pcap_progress(self, records, bytes);
    }

    fn finish(self) -> Result<AnalysisReport, Error> {
        self.drain().map(|o| o.report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zoom_wire::compose;
    use zoom_wire::pcap::Record;
    use zoom_wire::rtp;
    use zoom_wire::zoom;

    const MS: u64 = 1_000_000;
    const SEC: u64 = 1_000_000_000;

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

    /// Push one record and take every window it closed.
    fn push_and_take(
        engine: &mut StreamingEngine,
        ts_nanos: u64,
        data: &[u8],
        link: LinkType,
    ) -> Vec<WindowReport> {
        engine.push(ts_nanos, data, link).unwrap();
        engine.take_windows()
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
            windows.extend(push_and_take(
                &mut engine,
                r.ts_nanos,
                &r.data,
                LinkType::Ethernet,
            ));
        }
        let out = engine.drain().unwrap();
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].index, 0);
        assert_eq!(windows[1].index, 1);
        assert_eq!(windows[0].start_nanos, 0);
        assert_eq!(windows[0].end_nanos, 10 * SEC);
        let last = out.final_window();
        let windowed: u64 = windows
            .iter()
            .chain(std::iter::once(last))
            .map(|w| w.totals.zoom_packets)
            .sum();
        assert_eq!(windowed, 750);
        assert_eq!(out.report.summary.zoom_packets, 750);
        let stream_pkts: u64 = windows
            .iter()
            .chain(std::iter::once(last))
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
            rows.extend(push_and_take(
                &mut engine,
                r.ts_nanos,
                &r.data,
                LinkType::Ethernet,
            ));
        }
        for i in 0..900u64 {
            let r = media_record(
                3 * SEC + i * 33 * MS,
                2,
                0xB,
                i as u16 + 1,
                1_000 + i as u32 * 3_000,
            );
            rows.extend(push_and_take(
                &mut engine,
                r.ts_nanos,
                &r.data,
                LinkType::Ethernet,
            ));
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

    /// The deterministic companion of the probe-budget and window-cost
    /// rows in `docs/PERFORMANCE.md`, next to
    /// `pipeline::tests::steady_state_media_packet_costs_one_probe`: the
    /// engine's per-record loop is the analyzer's, so a steady-state media
    /// packet costs it the same hashes, and a window close reads its
    /// deltas off the stream slab without hashing a key.
    #[test]
    fn engine_pays_the_analyzers_hashes_and_none_to_close_a_window() {
        const N: u64 = 200;
        // Downlink video (the RTT matcher probes for an uplink copy and
        // stores nothing, so its table never grows and rehashes) on two
        // flows: `interleaved` alternates them so the last-flow memo
        // never hits, `bursts` sends each flow's packets back to back.
        let record = |i: u64, flow: u64| {
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
        let warm_up = batch_of((0..20).map(|i| record(i, i % 2)));
        let interleaved = batch_of((20..20 + N).map(|i| record(i, i % 2)));
        let bursts = batch_of((220..220 + N).map(|i| record(i, u64::from(i >= 220 + N / 2))));

        let link = LinkType::Ethernet;
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        // An open window and an idle timeout: the clock is armed, and
        // nothing closes or is evicted while the packets stream in.
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(3_600)),
            idle_timeout: Some(Duration::from_secs(7_200)),
            ..Default::default()
        })
        .unwrap();
        analyzer.push_batch(&warm_up, link).unwrap();
        engine.push_batch(&warm_up, link).unwrap();
        for (name, batch, expected) in [
            // The flow-table probe and the RTT matcher's probe.
            ("interleaved", &interleaved, 2 * N..=2 * N),
            // The RTT probe, and one flow probe per burst (the first
            // burst continues the flow the interleaved run ended on).
            ("bursts", &bursts, N + 1..=N + 2),
        ] {
            let through_analyzer = hashes_during(|| analyzer.push_batch(batch, link).unwrap());
            let through_engine = hashes_during(|| engine.push_batch(batch, link).unwrap());
            assert!(
                expected.contains(&through_analyzer),
                "{name}: {through_analyzer}"
            );
            assert_eq!(through_engine, through_analyzer, "{name}");
        }

        // Forty more live streams, then a tick over all forty-two with
        // the eviction pass armed and nothing idle: not one key hashed.
        let many = batch_of((0..40u64).map(|i| {
            media_record_dir(
                500 * MS + i,
                false,
                10 + i as u8,
                0x100 + i as u32,
                1,
                1_000,
            )
        }));
        engine.push_batch(&many, link).unwrap();
        assert!(engine.take_windows().is_empty());
        // A record too short to dissect crosses the window boundary: the
        // close is all that hashes, if anything does.
        let boundary = batch_of([Record::full(3_600 * SEC, vec![0; 10])]);
        let closing = hashes_during(|| engine.push_batch(&boundary, link).unwrap());
        let windows = engine.take_windows();
        assert_eq!(windows.len(), 1);
        assert_eq!(windows[0].streams.len(), 42);
        assert_eq!(windows[0].totals.evicted_streams, 0);
        assert_eq!(closing, 0, "window close hashed");
        assert_eq!(
            engine.drain().unwrap().report.summary.zoom_packets,
            20 + 2 * N + 40
        );
    }

    #[test]
    fn evicted_stream_returns_as_the_stream_it_was() {
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(5)),
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .unwrap();
        let mut evicted = 0;
        let mut feed = |engine: &mut StreamingEngine, r: Record| {
            for w in push_and_take(engine, r.ts_nanos, &r.data, LinkType::Ethernet) {
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

        // The returning A consumed the tombstone its eviction left.
        assert_eq!(engine.analyzer.streams().evicted_keys(), 0);

        // And it kept its identity: the evicted fragment and the live
        // row sit together in A's place, ahead of B, and agree on unique
        // id and meeting.
        let out = engine.drain().unwrap();
        let ssrcs: Vec<u32> = out.report.streams.iter().map(|s| s.key.ssrc).collect();
        assert_eq!(ssrcs, [0xA, 0xA, 0xB]);
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
    fn an_evicted_flow_that_comes_back_counts_once() {
        // Flow A speaks for half a second, goes idle past the 1 s
        // timeout and is evicted at a window close while flow B keeps
        // the clock running; then A comes back and is live at the drain.
        let mut records = Vec::new();
        for i in 0..15u64 {
            records.push(media_record(
                i * 33 * MS,
                1,
                0xA,
                i as u16 + 1,
                i as u32 * 3_000,
            ));
        }
        for i in 0..150u64 {
            let ts = 600 * MS + i * 33 * MS;
            records.push(media_record(ts, 2, 0xB, i as u16 + 1, i as u32 * 3_000));
        }
        for i in 0..15u64 {
            let (ts, n) = (5_600 * MS + i * 33 * MS, 15 + i);
            records.push(media_record(ts, 1, 0xA, n as u16 + 1, n as u32 * 3_000));
        }

        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(1)),
            idle_timeout: Some(Duration::from_secs(1)),
            ..Default::default()
        })
        .unwrap();
        let mut batch = Analyzer::new(AnalyzerConfig::default());
        let mut windows = Vec::new();
        for r in &records {
            windows.extend(push_and_take(
                &mut engine,
                r.ts_nanos,
                &r.data,
                LinkType::Ethernet,
            ));
            PacketSink::push(&mut batch, r.ts_nanos, &r.data, LinkType::Ethernet).unwrap();
        }
        let out = engine.drain().unwrap();
        let new_flows: Vec<u64> = windows
            .iter()
            .chain(std::iter::once(out.final_window()))
            .map(|w| w.totals.new_flows)
            .collect();
        let evicted: u64 = windows.iter().map(|w| w.totals.evicted_flows).sum();
        assert_eq!(evicted, 1, "A is evicted once");
        // A is new in the first window and again in the one it returns
        // in; B once.
        assert_eq!(new_flows[0], 2, "{new_flows:?}");
        assert_eq!(new_flows[5], 1, "{new_flows:?}");
        assert_eq!(new_flows.iter().sum::<u64>(), 3, "{new_flows:?}");
        // The report counts A once: its evicted incarnation is not added
        // while it is live again.
        let batch = batch.finish().unwrap();
        assert_eq!(batch.summary.zoom_flows, 2);
        assert_eq!(out.report.summary.zoom_flows, batch.summary.zoom_flows);
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
        windows.extend(push_and_take(
            &mut engine,
            early.ts_nanos,
            &early.data,
            LinkType::Ethernet,
        ));
        let late = media_record(4 * SEC + 1, 1, 0x1, 2, 200);
        windows.extend(push_and_take(
            &mut engine,
            late.ts_nanos,
            &late.data,
            LinkType::Ethernet,
        ));
        // Record at 4.000000001 s closes [0,1) and skips [1,2), [2,3), [3,4).
        assert_eq!(windows.len(), 4);
        assert_eq!(windows[0].totals.zoom_packets, 1);
        assert!(windows[1..].iter().all(|w| w.totals.zoom_packets == 0));
        let indices: Vec<u64> = windows.iter().map(|w| w.index).collect();
        assert_eq!(indices, vec![0, 1, 2, 3]);
        engine.drain().unwrap();
    }

    /// A STUN binding request from campus endpoint `10.8.x.y:port` (the
    /// `i`th distinct one) to the zone controller on 3478.
    fn stun_binding(ts: u64, i: usize) -> Record {
        let msg = zoom_wire::stun::Repr {
            message_type: zoom_wire::stun::MessageType::BindingRequest,
            transaction_id: [7; 12],
            xor_mapped_address: None,
        };
        let mut payload = vec![0u8; msg.buffer_len()];
        msg.emit(&mut payload);
        let client = Ipv4Addr::new(10, 8, (i >> 8) as u8, i as u8);
        let port = 1024 + (i >> 16) as u16;
        let controller = Ipv4Addr::new(170, 114, 1, 1);
        let data = compose::udp_ipv4_ethernet(client, controller, port, 3478, &payload);
        Record::full(ts, data)
    }

    /// A flood of STUN bindings from distinct endpoints, 100 µs apart,
    /// fills the STUN register to its cap and no further: every window's
    /// tracked entries stay within the cap plus the flows the window kept
    /// live, and the registry's refusal counter is what the register
    /// turned away.
    #[test]
    fn a_stun_flood_is_held_to_the_register_cap() {
        use crate::stun_tracker::REGISTER_ENTRIES;
        const FLOOD: usize = REGISTER_ENTRIES + 10_000;
        let mut engine = StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(1)),
            idle_timeout: Some(Duration::from_secs(1)),
            ..Default::default()
        })
        .unwrap();
        let mut windows = Vec::new();
        for chunk in (0..FLOOD).collect::<Vec<_>>().chunks(128) {
            let batch = batch_of(chunk.iter().map(|&i| stun_binding(i as u64 * 100_000, i)));
            engine.push_batch(&batch, LinkType::Ethernet).unwrap();
            windows.extend(engine.take_windows());
        }
        assert_eq!(windows.len(), FLOOD / 10_000);
        for w in &windows {
            // Idle timeout = window: only this window's flows stay live.
            let live_flows = w.totals.packets as usize;
            assert!(
                w.totals.tracked_entries <= REGISTER_ENTRIES + live_flows,
                "window {}: {} tracked entries",
                w.index,
                w.totals.tracked_entries
            );
        }
        let register = engine.analyzer.stun_register.stats();
        assert_eq!(register.rejected_full, (FLOOD - REGISTER_ENTRIES) as u64);
        assert_eq!(engine.metrics().register_refused, register.rejected_full);
        let out = engine.drain().unwrap();
        assert_eq!(out.report.summary.zoom_packets, FLOOD as u64);
    }

    fn one_second_engine() -> StreamingEngine {
        StreamingEngine::new(EngineConfig {
            window: Some(Duration::from_secs(1)),
            idle_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        })
        .unwrap()
    }

    /// A timestamp can be anything: ten years past the previous record
    /// must not materialise 315 million window reports.
    #[test]
    fn ten_year_gap_emits_a_bounded_run_then_jumps() {
        const TEN_YEARS: u64 = 10 * 365 * 86_400 * SEC;
        let mut engine = one_second_engine();
        let early = media_record(SEC / 2, 1, 0x1, 1, 100);
        let late = media_record(TEN_YEARS + SEC / 2, 1, 0x1, 2, 200);
        let link = LinkType::Ethernet;
        assert!(push_and_take(&mut engine, early.ts_nanos, &early.data, link).is_empty());
        let windows = push_and_take(&mut engine, late.ts_nanos, &late.data, link);
        // [0, 1 s) with the early packet, then the bounded empty run.
        assert_eq!(windows.len() as u64, 1 + MAX_EMPTY_RUN);
        assert_eq!(windows[0].totals.zoom_packets, 1);
        assert!(windows[1..].iter().all(|w| w.totals.packets == 0));
        let last = windows.last().unwrap();
        assert_eq!(
            (last.index, last.end_nanos),
            (MAX_EMPTY_RUN, (1 + MAX_EMPTY_RUN) * SEC)
        );
        // The clock jumped to the late packet's window, and the index
        // counts every window skipped on the way.
        let out = engine.drain().unwrap();
        let last = out.final_window();
        assert_eq!(last.start_nanos, TEN_YEARS);
        assert_eq!(last.index, TEN_YEARS / SEC);
        assert_eq!(last.totals.zoom_packets, 1);
        assert_eq!(out.report.summary.zoom_packets, 2);
    }

    #[test]
    fn timestamp_near_u64_max_does_not_overflow() {
        let mut engine = one_second_engine();
        let link = LinkType::Ethernet;
        let early = media_record(SEC / 2, 1, 0x1, 1, 100);
        push_and_take(&mut engine, early.ts_nanos, &early.data, link);
        let mut windows = Vec::new();
        // The last window on the clock starts within a second of the end
        // of time; a record in it, and then one that steps back.
        for (ts, seq) in [(u64::MAX - 1, 2), (u64::MAX, 3), (u64::MAX - 5 * SEC, 4)] {
            let r = media_record(ts, 1, 0x1, seq, 100 * u32::from(seq));
            windows.extend(push_and_take(&mut engine, ts, &r.data, link));
        }
        assert_eq!(windows.len() as u64, 1 + MAX_EMPTY_RUN);
        let out = engine.drain().unwrap();
        let last = out.final_window();
        let start = last.start_nanos;
        assert_eq!(start, u64::MAX - u64::MAX % SEC);
        assert_eq!(last.end_nanos, u64::MAX);
        assert_eq!(last.index, start / SEC);
        assert_eq!(last.totals.zoom_packets, 3);
        assert_eq!(out.report.summary.zoom_packets, 4);
    }
}

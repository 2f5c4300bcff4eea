//! `zoom-tools analyze` — run the full passive analysis over one or more
//! packet sources and print the trace summary, per-meeting breakdown,
//! per-stream metrics, and latency estimates. Optionally export the
//! per-second ML feature matrix (§8).
//!
//! Input is either a positional pcap path (the classic single-file
//! shape) or any number of repeatable `--source` specs (`pcap:FILE`,
//! `sim:SCENARIO[,seed=N][,secs=N]`); both can be mixed. Multiple
//! sources are merged into one deterministic timestamp-ordered stream —
//! finite files read in-line on the analysis thread, live or `--lossy`
//! sources captured concurrently, one capture thread each, hand-off
//! through bounded lock-free rings — so an N-source run is
//! byte-identical to the equivalent single-source run (see
//! `docs/CAPTURE.md`).
//!
//! With `--window`, `--idle-timeout`, or `--follow` the command switches
//! to the streaming engine: one NDJSON line per closed window on stdout,
//! followed by the final end-of-trace report. `--follow` keeps polling
//! every pcap source for newly appended records (a live capture being
//! written by another process) until it has been quiet for `--idle-exit`
//! — the follow loop is source-agnostic, not tied to a single file.
//!
//! Both sinks (batch `Analyzer`, streaming engine) are fed through the
//! one `PacketSink` ingest loop. `--metrics <path>` writes an
//! observability snapshot file — JSON by default, Prometheus text
//! exposition when the path ends in `.prom` — rewritten every
//! `--metrics-interval` (default 5s, works with `--follow`) and once
//! more when the input is exhausted.
//!
//! Streaming mode adds live telemetry: `--serve ADDR` exposes
//! `GET /metrics` (Prometheus text, including the per-meeting
//! `zoom_qoe_*` labeled series) and `GET /healthz` on a std-only HTTP
//! endpoint for the duration of the run, and `--qoe-watch` runs the
//! degradation detector over every closed window, interleaving
//! `{"type":"qoe_alert",...}` NDJSON lines with the window reports on
//! stdout (thresholds: `--qoe-fps-floor`, `--qoe-jitter-ms`,
//! `--qoe-collapse-ratio`).
//!
//! `--trace out.ndjson` switches on sampled structured tracing: one
//! capture batch in every `--trace-sample` (default 16) gets a causal
//! trace ID, and every stage it crosses (source read, ring hand-off,
//! dissection, engine push, window emission) appends a pinned-schema
//! span event to the file. `--self-profile out.folded` aggregates the
//! same samples into flamegraph-style folded stacks. Both are side
//! channels: reports and window NDJSON stay byte-identical with tracing
//! on or off. See `docs/OBSERVABILITY.md`.
//!
//! With `--emit-fragments TARGET` the command becomes a distributed
//! *worker* instead: the captured (and deterministically merged) records
//! are shipped over the `zoom_wire::frame` protocol — to a `merge
//! --listen` node when TARGET is a socket address, to a spool file
//! otherwise — along with this worker's capture accounting, and no local
//! analysis runs. `--worker-label` names the worker in the merge node's
//! `zoom_worker_*` metrics. See `docs/DISTRIBUTED.md`.

use super::sources::{build_sources, mux_flags, start_capture, Sources};
use super::{
    campus_flag, parse_args, parse_duration, reject_shards_flag, write_window_line, CliError,
    CmdResult, FlagSpec, TraceOutput,
};
use std::collections::HashMap;
use std::io::Write as _;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, QoeThresholds, StreamingEngine};
use zoom_analysis::features;
use zoom_analysis::obs::serve;
use zoom_analysis::metrics::stall::{analyze as stall_analyze, StallConfig};
use zoom_analysis::obs::MetricsSnapshot;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::source::{FollowConfig, BATCH_RECORDS};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, RecordBuf, READ_BUFFER_BYTES};
use zoom_wire::zoom::MediaType;

/// The `--metrics <path>` snapshot file: rewritten in place every
/// `--metrics-interval` while records flow, and once more at the end.
/// A `.prom` extension selects the Prometheus text exposition format;
/// anything else gets the JSON snapshot.
pub(crate) struct MetricsFile {
    path: String,
    interval: Duration,
    last: std::time::Instant,
    pushes: u32,
}

impl MetricsFile {
    pub(crate) fn from_flags(
        flags: &HashMap<String, String>,
    ) -> Result<Option<MetricsFile>, String> {
        let Some(path) = flags.get("metrics") else {
            return Ok(None);
        };
        let interval = flags
            .get("metrics-interval")
            .map(|v| parse_duration(v))
            .transpose()?
            .unwrap_or(Duration::from_secs(5));
        Ok(Some(MetricsFile {
            path: path.clone(),
            interval,
            last: std::time::Instant::now(),
            pushes: 0,
        }))
    }

    /// Called after every push — one record on the single-reader path, a
    /// whole merged batch on the fan-in paths; rewrites the file when the
    /// interval has elapsed. The clock is only consulted once at least
    /// 256 records have accumulated, so the per-packet cost stays
    /// negligible.
    pub(crate) fn tick(
        &mut self,
        records: u32,
        snap: impl FnOnce() -> MetricsSnapshot,
    ) -> CmdResult {
        self.pushes = self.pushes.saturating_add(records);
        if self.pushes < 256 {
            return Ok(());
        }
        self.pushes = 0;
        if self.last.elapsed() < self.interval {
            return Ok(());
        }
        self.last = std::time::Instant::now();
        self.write(&snap())
    }

    pub(crate) fn write(&mut self, snap: &MetricsSnapshot) -> CmdResult {
        super::write_snapshot(&self.path, snap)
    }
}

/// The single-file ingest loop: buffer-reusing reads handed to the
/// analyzer with the length each record had on the wire, with periodic
/// metrics snapshots.
fn feed_pcap<R: std::io::Read>(
    reader: &mut Reader<R>,
    analyzer: &mut Analyzer,
    link: LinkType,
    metrics_file: &mut Option<MetricsFile>,
) -> CmdResult {
    let mut buf = RecordBuf::new();
    while reader
        .read_into(&mut buf)
        .map_err(|e| CliError::protocol(e.to_string()))?
    {
        analyzer.process_record(buf.ts_nanos(), buf.wire_len(), buf.data(), link);
        if let Some(m) = metrics_file {
            analyzer.note_pcap_progress(reader.records_read(), reader.bytes_read());
            m.tick(1, || analyzer.metrics())?;
        }
    }
    Ok(())
}

/// The fan-in ingest loop: records arrive pre-merged in timestamp order
/// from the capture fan-in, a whole run-extended batch at a time — a
/// capture batch's worth (`BATCH_RECORDS`), so a batch copied out of
/// interleaving lanes is still in cache when the sink walks it — and
/// enter the sink through the batched dissection path; progress gauges
/// come from the mux's delivered counts instead of a single reader's.
/// `after_batch` runs once a batch is in the sink (`merge` syncs its
/// workers' accounting there).
pub(crate) fn feed_mux<S: PacketSink>(
    mux: &mut CaptureMux,
    sink: &mut S,
    metrics_file: &mut Option<MetricsFile>,
    mut after_batch: impl FnMut(),
) -> CmdResult {
    let mut batch = RecordBatch::new();
    loop {
        let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS)? else {
            return Ok(());
        };
        sink.push_batch(&batch, link)?;
        after_batch();
        if let Some(m) = metrics_file {
            sink.note_pcap_progress(mux.records_delivered(), mux.bytes_delivered());
            m.tick(batch.len() as u32, || sink.metrics())?;
        }
    }
}

/// Tear down the fan-in after ingest: surface capture errors, fold
/// source-side truncation into the sink's gauges, and warn like the
/// single-reader path always has.
pub(crate) fn finish_mux<S: PacketSink>(mux: CaptureMux, sink: &mut S) -> CmdResult {
    let truncated = mux.truncated_records();
    let drops = mux.ring_full_drops();
    mux.finish()?;
    sink.note_pcap_truncated(truncated);
    if truncated > 0 {
        eprintln!("warning: {truncated} truncated record(s) at source tails ignored");
    }
    if drops > 0 {
        eprintln!("warning: {drops} record(s) dropped at full capture rings (see ring_full_drops)");
    }
    Ok(())
}

/// Parse the `--qoe-*` flags into detector thresholds. `--qoe-watch`
/// enables the detector with defaults; any explicit threshold flag also
/// enables it.
fn qoe_flags(flags: &HashMap<String, String>) -> Result<Option<QoeThresholds>, String> {
    let mut t = QoeThresholds::default();
    let mut enabled = flags.contains_key("qoe-watch");
    let mut float = |key: &str, slot: &mut f64| -> Result<(), String> {
        if let Some(v) = flags.get(key) {
            *slot = v
                .parse::<f64>()
                .ok()
                .filter(|x| x.is_finite() && *x >= 0.0)
                .ok_or_else(|| format!("--{key} expects a non-negative number, got {v:?}"))?;
            enabled = true;
        }
        Ok(())
    };
    float("qoe-fps-floor", &mut t.fps_floor)?;
    float("qoe-jitter-ms", &mut t.jitter_ceiling_ms)?;
    float("qoe-collapse-ratio", &mut t.collapse_ratio)?;
    Ok(enabled.then_some(t))
}

const FLAGS: FlagSpec = FlagSpec {
    command: "analyze",
    bools: &["follow", "json", "qoe-watch", "lossy"],
    values: &[
        "campus",
        "family",
        "window",
        "idle-timeout",
        "idle-exit",
        "ring-cap",
        "features",
        "serve",
        "metrics",
        "metrics-interval",
        "qoe-fps-floor",
        "qoe-jitter-ms",
        "qoe-collapse-ratio",
        "trace",
        "trace-sample",
        "self-profile",
        "emit-fragments",
        "worker-label",
    ],
    repeats: &["source"],
};

pub fn run(args: &[String]) -> CmdResult {
    reject_shards_flag(args)?;
    let (pos, flags, source_specs) = parse_args(args, &FLAGS)?;
    let campus = campus_flag(&flags)?;
    let window = flags.get("window").map(|v| parse_duration(v)).transpose()?;
    let idle_timeout = flags
        .get("idle-timeout")
        .map(|v| parse_duration(v))
        .transpose()?;
    let follow = flags.contains_key("follow");
    let idle_exit = flags
        .get("idle-exit")
        .map(|v| parse_duration(v))
        .transpose()?
        .unwrap_or(Duration::from_secs(5));
    let follow_cfg = follow.then_some(FollowConfig {
        poll: Duration::from_millis(200),
        idle_exit,
    });
    let qoe = qoe_flags(&flags)?;
    let mux_config = mux_flags(&flags)?;
    let mut metrics_file = MetricsFile::from_flags(&flags)?;
    let trace_out = TraceOutput::from_flags(&flags)?;

    // `--family auto|zoom|webrtc` selects which protocol families the
    // dissector probes for; bad values are configuration errors (exit 3).
    let family = flags
        .get("family")
        .map(|v| {
            v.parse::<zoom_wire::family::FamilySelect>()
                .map_err(|e| CliError::config(e.to_string()))
        })
        .transpose()?
        .unwrap_or_default();

    let config = AnalyzerConfig::builder()
        .campus_prefix(campus.0, campus.1)
        .family(family)
        .build()?;

    // The fragment-emitting worker path: capture and merge the sources
    // exactly as analysis would, but ship the merged records (plus this
    // worker's capture accounting) to a merge node instead of analyzing
    // them locally. See docs/DISTRIBUTED.md.
    if let Some(target) = flags.get("emit-fragments") {
        let label = flags
            .get("worker-label")
            .cloned()
            .unwrap_or_else(|| "worker".to_string());
        let sources = build_sources(&pos, &source_specs, follow_cfg)?;
        return run_emit(sources, target, &label, mux_config, trace_out);
    }

    let streaming = window.is_some() || idle_timeout.is_some() || follow;
    if qoe.is_some() && window.is_none() {
        return Err("--qoe-watch needs --window: the detector evaluates closed windows".into());
    }
    if flags.contains_key("serve") && !streaming {
        return Err("--serve needs streaming mode (--window, --idle-timeout, or --follow)".into());
    }
    if streaming {
        // Streaming always goes through the capture fan-in, so follow
        // mode is source-agnostic: every pcap source polls its own file.
        let sources = build_sources(&pos, &source_specs, follow_cfg)?;
        return run_streaming(
            sources,
            config,
            window,
            idle_timeout,
            qoe,
            &flags,
            metrics_file,
            mux_config,
            trace_out,
        );
    }
    // Tracing samples at batch boundaries, so a traced run always goes
    // through the capture fan-in — the differential suites pin the
    // single-file and fan-in paths byte-identical, so the report is
    // unchanged; only the trace side channel appears.
    if !source_specs.is_empty() || pos.len() > 1 || trace_out.is_some() {
        let sources = build_sources(&pos, &source_specs, None)?;
        return run_batch_mux(sources, config, &flags, metrics_file, mux_config, trace_out);
    }

    // Legacy single-file batch path: a direct buffer-reusing reader loop
    // with no capture threads — the zero-copy fast path benchmarked in
    // BENCH_ingest.json stays intact.
    let [input] = pos.as_slice() else {
        return Err("no input: give a pcap path or at least one --source".into());
    };
    let file = std::fs::File::open(input).map_err(|e| CliError::io(format!("{input}: {e}")))?;
    let mut reader = Reader::new(std::io::BufReader::with_capacity(READ_BUFFER_BYTES, file))
        .map_err(|e| CliError::protocol(format!("{input}: {e}")))?;
    let link = reader.link_type();
    // The feed loop reuses one record buffer — zero steady-state
    // allocations in the read loop.
    let mut analyzer = Analyzer::new(config);
    feed_pcap(&mut reader, &mut analyzer, link, &mut metrics_file)?;
    analyzer.note_pcap_truncated(reader.truncated_records());
    if let Some(m) = &mut metrics_file {
        m.write(&analyzer.metrics())?;
    }
    if reader.truncated_records() > 0 {
        eprintln!(
            "warning: {} truncated record(s) at end of {input} ignored",
            reader.truncated_records()
        );
    }

    print_report(&analyzer, &flags)
}

/// The multi-source batch path: the fan-in merges the sources' records
/// into the analysis sink (in-line or through capture threads and rings,
/// see [`start_capture`]), then the same report as the single-file path
/// is printed — byte-identical for equivalent inputs (see
/// `tests/multi_source_differential.rs`).
fn run_batch_mux(
    sources: Sources,
    config: AnalyzerConfig,
    flags: &HashMap<String, String>,
    mut metrics_file: Option<MetricsFile>,
    mux_config: MuxConfig,
    mut trace_out: Option<TraceOutput>,
) -> CmdResult {
    let mut analyzer = Analyzer::new(config);
    let mh = analyzer.metrics_handle();
    if let Some(t) = &trace_out {
        t.enable(&mh.trace, "analyze");
    }
    let mut mux = start_capture(sources, mux_config, Some(&mh));
    feed_mux(&mut mux, &mut analyzer, &mut metrics_file, || ())?;
    finish_mux(mux, &mut analyzer)?;
    if let Some(m) = &mut metrics_file {
        m.write(&analyzer.metrics())?;
    }
    if let Some(t) = &mut trace_out {
        t.finish(&mh.trace)?;
    }
    print_report(&analyzer, flags)
}

/// The human-readable (or `--json`) end-of-run report, shared by the
/// legacy single-file path and the multi-source fan-in path.
pub(crate) fn print_report(analyzer: &Analyzer, flags: &HashMap<String, String>) -> CmdResult {
    if flags.contains_key("json") {
        println!("{}", analyzer.report().to_json());
        export_features(analyzer, flags)?;
        return Ok(());
    }

    let summary = analyzer.summary();
    println!("=== trace summary ===");
    println!("packets:      {}", summary.total_packets);
    println!(
        "zoom packets: {} ({} bytes)",
        summary.zoom_packets, summary.zoom_bytes
    );
    println!("zoom flows:   {}", summary.zoom_flows);
    println!("rtp streams:  {}", summary.rtp_streams);
    println!("meetings:     {}", summary.meetings);
    println!("duration:     {:.1} s", summary.duration_nanos as f64 / 1e9);
    let (dp, db) = analyzer.classifier().decoded_fraction();
    println!(
        "decoded:      {:.1} % pkts / {:.1} % bytes",
        dp * 100.0,
        db * 100.0
    );

    // RTT context feeds the stall analysis threshold.
    let rtts = analyzer.rtp_rtt_samples();
    let mean_rtt_nanos = if rtts.is_empty() {
        50_000_000
    } else {
        (rtts.iter().map(|s| s.rtt_nanos).sum::<u64>() / rtts.len() as u64).max(1)
    };

    println!("\n=== meetings ===");
    for m in analyzer.meetings() {
        println!(
            "meeting {}: {} visible participant(s), {} stream(s), servers {:?}",
            m.id,
            m.participant_estimate,
            m.streams.len(),
            m.servers
        );
    }

    println!("\n=== streams ===");
    for s in analyzer.streams().iter() {
        let frames = s.frames.as_ref().map(|f| f.frames().len()).unwrap_or(0);
        print!(
            "  {} ssrc=0x{:02x} [{}] pkts={} rate={:.0} kbit/s frames={} jitter={:.2} ms",
            s.key.flow,
            s.key.ssrc,
            s.media_type.label(),
            s.packets,
            s.mean_media_bitrate() / 1e3,
            frames,
            s.frame_jitter.jitter_ms(),
        );
        if let Some(f) = &s.frames {
            let report = stall_analyze(
                f.frames(),
                StallConfig {
                    rtt_nanos: mean_rtt_nanos,
                    ..Default::default()
                },
            );
            if !report.stalls.is_empty() || report.retransmission_recovered > 0 {
                print!(
                    " stalls={} ({:.0} ms) retx-frames={}",
                    report.stalls.len(),
                    report.stalled_nanos as f64 / 1e6,
                    report.retransmission_recovered
                );
            }
        }
        println!();
    }

    if !rtts.is_empty() {
        println!(
            "\nRTT to SFU (RTP copies): {} samples, mean {:.1} ms",
            rtts.len(),
            mean_rtt_nanos as f64 / 1e6
        );
    }
    let tcp = analyzer.tcp_rtt_samples();
    if !tcp.is_empty() {
        let mean = tcp.iter().map(|s| s.rtt_ms()).sum::<f64>() / tcp.len() as f64;
        println!(
            "RTT via TCP control:     {} samples, mean {mean:.1} ms",
            tcp.len()
        );
    }

    export_features(analyzer, flags)?;
    Ok(())
}

/// The streaming path: NDJSON window reports as windows close, then the
/// final report, all on stdout. All sources — including a followed,
/// still-growing pcap — are merged through the fan-in (captured
/// concurrently, or read in-line through the same interface, see
/// [`start_capture`]), so the ingest loop below never knows (or cares)
/// how many files or simulated taps are behind it.
#[allow(clippy::too_many_arguments)]
fn run_streaming(
    sources: Sources,
    config: AnalyzerConfig,
    window: Option<Duration>,
    idle_timeout: Option<Duration>,
    qoe: Option<QoeThresholds>,
    flags: &HashMap<String, String>,
    mut metrics_file: Option<MetricsFile>,
    mux_config: MuxConfig,
    mut trace_out: Option<TraceOutput>,
) -> CmdResult {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: config,
        window,
        idle_timeout,
        qoe,
    })?;

    // The scrape endpoint holds only the metrics Arc, so it serves live
    // snapshots for the whole run and stops when the handle drops.
    let serve_handle = flags
        .get("serve")
        .map(|addr| serve::serve(addr.as_str(), engine.metrics_handle()))
        .transpose()
        .map_err(|e| format!("--serve: {e}"))?;
    if let Some(h) = &serve_handle {
        eprintln!(
            "serving /metrics, /healthz, and /debug/* on http://{}",
            h.addr()
        );
    }

    let mh = engine.metrics_handle();
    if let Some(t) = &trace_out {
        t.enable(&mh.trace, "analyze");
    }
    let mut mux = start_capture(sources, mux_config, Some(&mh));

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    // next_batch blocks (sleeping) only when nothing is buffered and a
    // live source is quiet — a followed pcap keeps its lane alive until
    // its own idle-exit elapses, so follow semantics are per source, not
    // global — and hands back a partial batch rather than sitting on
    // buffered records, so window emission latency matches the
    // per-record loop it replaced.
    let mut batch = RecordBatch::new();
    let mut line = String::new();
    while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS)? {
        engine.push_batch(&batch, link)?;
        let mut wrote = false;
        for w in engine.take_windows() {
            write_window_line(&mut out, &mut line, &w)?;
            wrote = true;
        }
        for a in engine.take_alerts() {
            writeln!(out, "{}", a.to_json()).map_err(|e| e.to_string())?;
            wrote = true;
        }
        if wrote {
            // Live followers tail this NDJSON; don't sit on closed
            // windows while the mux waits for quiet sources.
            out.flush().map_err(|e| e.to_string())?;
        }
        if let Some(m) = &mut metrics_file {
            engine.note_pcap_progress(mux.records_delivered(), mux.bytes_delivered());
            m.tick(batch.len() as u32, || engine.metrics())?;
        }
        if let Some(t) = &mut trace_out {
            t.drain(&mh.trace)?;
        }
    }
    finish_mux(mux, &mut engine)?;
    // Alerts from windows the last pushes closed; drain itself cuts a
    // partial window the detector deliberately skips.
    for a in engine.take_alerts() {
        writeln!(out, "{}", a.to_json()).map_err(|e| e.to_string())?;
    }
    let output = engine.drain()?;
    // The final snapshot is written after drain, when every count has
    // been published.
    if let Some(m) = &mut metrics_file {
        m.write(&output.analyzer.metrics())?;
    }
    if let Some(t) = &mut trace_out {
        t.finish(&mh.trace)?;
    }
    write_window_line(&mut out, &mut line, &output.final_window)?;
    writeln!(out, "{}", output.report.to_json()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    eprintln!(
        "streamed {} packets, peak tracked entries {}",
        output.report.summary.total_packets, output.peak_tracked_entries
    );
    export_features(&output.analyzer, flags)?;
    Ok(())
}

/// The worker half of the distributed tier: capture + deterministic
/// merge exactly as analysis would, but the merged records — plus this
/// worker's accounting — leave over the `zoom_wire::frame` protocol
/// (to a TCP merge node when `target` parses as a socket address, to a
/// spool file otherwise) instead of entering a local analyzer.
fn run_emit(
    sources: Sources,
    target: &str,
    label: &str,
    mux_config: MuxConfig,
    mut trace_out: Option<TraceOutput>,
) -> CmdResult {
    use zoom_analysis::obs::trace::spans;
    use zoom_analysis::obs::PipelineMetrics;
    use zoom_wire::frame::{FrameWriter, Totals};

    // One fragment stream carries one link type (the Hello pins it),
    // mirroring the one-link rule a pcap file has.
    let link = sources.list[0].link_type();
    if let Some(s) = sources.list.iter().find(|s| s.link_type() != link) {
        return Err(CliError::config(format!(
            "sources disagree on link type ({:?} vs {:?}); emit one fragment stream per link",
            link,
            s.link_type()
        )));
    }
    let out: Box<dyn std::io::Write + Send> =
        if let Ok(addr) = target.parse::<std::net::SocketAddr>() {
            Box::new(
                std::net::TcpStream::connect(addr)
                    .map_err(|e| CliError::io(format!("{target}: {e}")))?,
            )
        } else {
            Box::new(
                std::fs::File::create(target)
                    .map_err(|e| CliError::io(format!("{target}: {e}")))?,
            )
        };
    let mut writer = FrameWriter::new(std::io::BufWriter::new(out), label, link)
        .map_err(|e| CliError::io(format!("{target}: {e}")))?;

    // Tracing on a worker stamps sampled batches at its own capture
    // sources and ships their span events as `Trace` frames, each
    // annotating the `Records` frame that follows it — so the merge
    // node can stitch this worker's capture-side spans to its own by
    // trace ID. Untraced runs pass `None` and the byte stream is
    // identical to one from a build that never heard of tracing.
    let worker_metrics = trace_out.as_ref().map(|t| {
        let m = PipelineMetrics::new();
        t.enable(&m.trace, &format!("worker:{label}"));
        m
    });
    let mut mux = start_capture(sources, mux_config, worker_metrics.as_ref());
    // The mux batches the merged stream itself (run extension over the
    // winning lane), so every non-empty drain becomes one wire frame.
    let mut batch = RecordBatch::new();
    let mut frames = 0u64;
    while mux.next_batch(&mut batch, BATCH_RECORDS)?.is_some() {
        let written = if batch.trace_id != 0 {
            let m = worker_metrics.as_ref().expect("traced batch implies metrics");
            writer.write_batch_traced(&batch, batch.trace_id, |encode_nanos| {
                m.trace.record(
                    batch.trace_id,
                    spans::FRAGMENT_ENCODE,
                    label,
                    batch.len() as u64,
                    encode_nanos,
                );
                m.trace.drain_trace_ndjson(batch.trace_id)
            })
        } else {
            writer.write_batch(&batch)
        };
        written.map_err(|e| CliError::io(format!("{target}: {e}")))?;
        frames += 1;
    }

    let delivered = mux.records_delivered();
    let bytes = mux.bytes_delivered();
    let drops = mux.ring_full_drops();
    let truncated = mux.truncated_records();
    mux.finish()?;
    let shipped = writer.record_bytes_written();
    writer
        .finish(Totals {
            packets: delivered + drops,
            bytes,
            batches: frames,
            ring_full_drops: drops,
            truncated,
        })
        .map_err(|e| CliError::io(format!("{target}: {e}")))?;
    if truncated > 0 {
        eprintln!("warning: {truncated} truncated record(s) at source tails ignored");
    }
    if drops > 0 {
        eprintln!("warning: {drops} record(s) dropped at full capture rings (see ring_full_drops)");
    }
    eprintln!(
        "worker {label}: emitted {delivered} record(s) ({bytes} bytes captured, {shipped} shipped) in {frames} frame(s) to {target}"
    );
    // Events whose Records frame never followed (e.g. a final partial
    // batch) land in the local trace file instead of the wire.
    if let (Some(t), Some(m)) = (&mut trace_out, &worker_metrics) {
        t.finish(&m.trace)?;
    }
    Ok(())
}

/// Optional ML feature export (`--features out.csv`).
fn export_features(analyzer: &Analyzer, flags: &HashMap<String, String>) -> CmdResult {
    let Some(path) = flags.get("features") else {
        return Ok(());
    };
    let mut out = std::io::BufWriter::new(
        std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?,
    );
    let mut total = 0usize;
    let mut first = true;
    for s in analyzer.streams().of_type(MediaType::Video) {
        let rows = features::extract_features(s);
        total += rows.len();
        let csv = features::to_csv(&rows);
        let body = if first {
            first = false;
            csv
        } else {
            // Skip the header on subsequent streams.
            csv.split_once('\n').map(|x| x.1).unwrap_or("").to_string()
        };
        out.write_all(body.as_bytes()).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    eprintln!("wrote {total} feature rows to {path}");
    Ok(())
}

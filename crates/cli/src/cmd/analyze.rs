//! `zoom-tools analyze` — run the full passive analysis over one or more
//! packet sources and print the trace summary, per-meeting breakdown,
//! per-stream metrics, and latency estimates. Optionally export the
//! per-second ML feature matrix (§8).
//!
//! Input is any number of positional pcap paths and repeatable
//! `--source` specs (`pcap:FILE`, `sim:SCENARIO[,seed=N][,secs=N]`); a
//! positional `FILE` is `--source pcap:FILE`. Every route starts the
//! sources through [`start_capture`], which merges them into one
//! deterministic, lossless timestamp-ordered stream — every source read
//! in-line on the analysis thread — so an N-source run is byte-identical
//! to the equivalent single-source run (see `docs/CAPTURE.md`).
//!
//! Every route runs the one analysis loop ([`ingest::run`]), which
//! feeds the merged stream a batch at a time through the streaming
//! engine. Without `--window` the engine has no window — it is the batch
//! analyzer — and the command prints the end-of-trace report (text, or
//! `--json`). With `--window` or `--follow` it prints one NDJSON line per
//! closed window on stdout, followed by the final end-of-trace report;
//! `--idle-timeout` (which needs `--window`: eviction runs when a window
//! closes) evicts idle flows and streams at each close. `--follow` keeps
//! polling every pcap source for newly appended records (a live capture
//! being written by another process) until it has been quiet for
//! `--idle-exit` — the follow loop is source-agnostic, not tied to a
//! single file.
//!
//! `--metrics <path>` writes an observability snapshot file — JSON by
//! default, Prometheus text exposition when the path ends in `.prom` —
//! rewritten every `--metrics-interval` (default 5s, works with
//! `--follow`) and once more when the input is exhausted. `--serve ADDR`
//! exposes `GET /metrics` (Prometheus text, including the per-meeting
//! `zoom_qoe_*` labeled series) and `GET /healthz` on a std-only HTTP
//! endpoint for the duration of the run. `--qoe-watch` (with `--window`)
//! runs the degradation detector over every closed window, interleaving
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

use super::ingest::{self, MetricsFile, Run};
use super::sources::{build_sources, start_capture, Sources};
use super::{
    campus_flag, check_eviction_flags, parse_args, parse_duration, CliError, CmdResult, FlagSpec,
    TraceOutput,
};
use std::collections::HashMap;
use std::time::Duration;
use zoom_analysis::dist::WindowGate;
use zoom_analysis::engine::{EngineConfig, QoeThresholds, StreamingEngine};
use zoom_analysis::pipeline::AnalyzerConfig;
use zoom_capture::source::{FollowConfig, BATCH_RECORDS};
use zoom_wire::handoff::RecordBatch;

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
    bools: &["follow", "json", "qoe-watch"],
    values: &[
        "campus",
        "family",
        "window",
        "idle-timeout",
        "idle-exit",
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
    let (pos, flags, source_specs) = parse_args(args, &FLAGS)?;
    check_eviction_flags(&flags)?;
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
    let metrics_file = MetricsFile::from_flags(&flags)?;
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

    // Only the `--features` export reads the per-second series.
    let config = AnalyzerConfig::builder()
        .campus_prefix(campus.0, campus.1)
        .family(family)
        .per_second_rows(flags.contains_key("features"))
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
        return run_emit(sources, target, &label, trace_out);
    }

    if qoe.is_some() && window.is_none() {
        return Err(CliError::usage(
            "--qoe-watch needs --window: the detector evaluates closed windows",
        ));
    }
    // Follow mode is source-agnostic: every pcap source polls its own file.
    let sources = build_sources(&pos, &source_specs, follow_cfg)?;
    let engine = StreamingEngine::new(EngineConfig {
        analyzer: config,
        window,
        idle_timeout,
        qoe,
    })?;
    let run = Run {
        node: "analyze",
        flags: &flags,
        metrics_file,
        trace_out,
        ndjson: window.is_some() || follow,
        gate: WindowGate::default(),
    };
    ingest::run(engine, sources, run, &mut ())
}

/// Capacity of the buffer between a worker's frame writer and its spool
/// file or socket.
const SPOOL_BUFFER_BYTES: usize = 64 * 1024;

/// The worker half of the distributed tier: capture + deterministic
/// merge exactly as analysis would, but the merged records — plus this
/// worker's accounting — leave over the `zoom_wire::frame` protocol
/// (to a TCP merge node when `target` parses as a socket address, to a
/// spool file otherwise) instead of entering a local analyzer.
fn run_emit(
    sources: Sources,
    target: &str,
    label: &str,
    mut trace_out: Option<TraceOutput>,
) -> CmdResult {
    use zoom_analysis::obs::trace::spans;
    use zoom_analysis::obs::PipelineMetrics;
    use zoom_wire::frame::{FrameWriter, Totals};

    // One fragment stream carries one link type (the Hello pins it),
    // mirroring the one-link rule a pcap file has.
    let link = sources[0].link_type();
    if let Some(s) = sources.iter().find(|s| s.link_type() != link) {
        return Err(CliError::config(format!(
            "sources disagree on link type ({:?} vs {:?}); emit one fragment stream per link",
            link,
            s.link_type()
        )));
    }
    let out: Box<dyn std::io::Write + Send> = if let Ok(addr) =
        target.parse::<std::net::SocketAddr>()
    {
        Box::new(
            std::net::TcpStream::connect(addr)
                .map_err(|e| CliError::io(format!("{target}: {e}")))?,
        )
    } else {
        Box::new(std::fs::File::create(target).map_err(|e| CliError::io(format!("{target}: {e}")))?)
    };
    // Frames leave in writes of up to `SPOOL_BUFFER_BYTES` (a Records
    // frame of the benchmark's traces is ≈ 9.8 KB), and whatever is
    // buffered leaves whenever the sources go quiet, so a followed source
    // that stops growing has every frame it read on disk or on the wire.
    let out = std::io::BufWriter::with_capacity(SPOOL_BUFFER_BYTES, out);
    let io_err = |e: std::io::Error| CliError::io(format!("{target}: {e}"));
    let mut writer = FrameWriter::new(out, label, link).map_err(io_err)?;

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
    let mut mux = start_capture(sources, worker_metrics.as_ref());
    // The mux batches the merged stream itself (run extension over the
    // winning lane), so every non-empty drain becomes one wire frame.
    let mut batch = RecordBatch::new();
    let mut frames = 0u64;
    while mux
        .next_batch_or_idle(&mut batch, BATCH_RECORDS, || writer.flush().map_err(io_err))?
        .is_some()
    {
        let written = if batch.trace_id != 0 {
            let m = worker_metrics
                .as_ref()
                .expect("traced batch implies metrics");
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
        written.map_err(io_err)?;
        frames += 1;
    }

    let delivered = mux.records_delivered();
    let bytes = mux.bytes_delivered();
    let truncated = mux.truncated_records();
    mux.finish()?;
    let shipped = writer.record_bytes_written();
    writer
        .finish(Totals {
            packets: delivered,
            bytes,
            batches: frames,
            // The fan-in never drops; the field stays for the wire format.
            ring_full_drops: 0,
            truncated,
        })
        .map_err(io_err)?;
    if truncated > 0 {
        eprintln!("warning: {truncated} truncated record(s) at source tails ignored");
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

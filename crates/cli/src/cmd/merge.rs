//! `zoom-tools merge` — the merge half of the distributed tier:
//! consume wire-framed fragment streams from `analyze --emit-fragments`
//! workers and run the ordinary analysis over the union, byte-identical
//! to a single-process `analyze` of the same records.
//!
//! Two input modes:
//!
//! * `merge FILES...` — each positional file is one worker's spooled
//!   fragment stream.
//! * `merge --listen ADDR --workers N` — bind a TCP listener, accept
//!   exactly N worker connections, and analyze them live.
//!   `--journal DIR` tees every connection's bytes to
//!   `DIR/worker-<i>.frag` while it streams, so a crashed merge can be
//!   re-run in file mode over the journal.
//!
//! Every worker becomes one fragment lane in the same capture fan-in
//! `analyze` uses — spool files read in-line on the merge thread, live
//! connections behind one capture thread each — so the merged record
//! order, and therefore the output, is the deterministic `(ts, lane)`
//! merge the differential suites pin down. The workers' self-reported
//! accounting is folded into this process's metrics as `zoom_worker_*`
//! series, and the conservation invariant extends across the wire:
//! `Σ worker packets == merge packets_in + Σ drops`.
//!
//! With `--window` the streaming engine emits NDJSON window reports just
//! like `analyze --window`; `--checkpoint PATH` then persists a
//! [`MergeCheckpoint`] after every emitted window, and `--restore`
//! resumes from one — the replay (same files, or the journal) suppresses
//! the already-emitted window prefix and continues with bit-identical
//! output (`docs/DISTRIBUTED.md` has the runbook).

use super::analyze::{feed_mux, finish_mux, print_report, MetricsFile};
use super::sources::{mux_flags, start_capture, Sources};
use super::{
    campus_flag, parse_args, parse_duration, reject_shards_flag, write_window_line, CliError,
    CmdResult, FlagSpec, TraceOutput,
};
use std::collections::HashMap;
use std::io::{Read, Write as _};
use std::sync::Arc;
use std::time::Duration;
use zoom_analysis::dist::{MergeCheckpoint, WindowGate, WorkerMark};
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::obs::trace::TraceCollector;
use zoom_analysis::obs::{link_state, serve, PipelineMetrics, WorkerMetrics};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::fragment::{FragmentSource, WorkerAccount};
use zoom_capture::mux::MuxConfig;
use zoom_capture::source::{PacketSource, BATCH_RECORDS};
use zoom_wire::handoff::RecordBatch;

/// A boxed byte stream: a spool file or an accepted worker connection,
/// optionally teed into the journal.
type Input = Box<dyn Read + Send>;

/// Tees every byte read from a worker connection into the journal file,
/// so listen-mode sessions can be replayed in file mode after a crash.
struct Tee<R: Read> {
    inner: R,
    journal: std::io::BufWriter<std::fs::File>,
}

impl<R: Read> Read for Tee<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n == 0 {
            self.journal.flush()?;
        } else {
            self.journal.write_all(&buf[..n])?;
        }
        Ok(n)
    }
}

/// One connected (or spooled) worker, before it becomes a mux lane.
struct Worker {
    source: FragmentSource<Input>,
    account: Arc<WorkerAccount>,
    label: String,
}

fn open_worker(input: Input, context: &str) -> Result<Worker, CliError> {
    let source = FragmentSource::open(input)
        .map_err(|e| CliError::protocol(format!("{context}: {e}")))?;
    let account = source.account();
    let label = source.worker_label().to_string();
    Ok(Worker {
        source,
        account,
        label,
    })
}

/// Collect workers from positional spool files.
fn file_workers(files: &[String]) -> Result<Vec<Worker>, CliError> {
    files
        .iter()
        .map(|path| {
            let f = std::fs::File::open(path)
                .map_err(|e| CliError::io(format!("{path}: {e}")))?;
            open_worker(Box::new(std::io::BufReader::new(f)), path)
        })
        .collect()
}

/// Bind `addr`, accept exactly `count` worker connections, and wrap
/// each (teed into `journal` when given) as a fragment lane.
fn listen_workers(
    addr: &str,
    count: usize,
    journal: Option<&str>,
) -> Result<Vec<Worker>, CliError> {
    if let Some(dir) = journal {
        std::fs::create_dir_all(dir).map_err(|e| CliError::io(format!("{dir}: {e}")))?;
    }
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| CliError::io(format!("{addr}: {e}")))?;
    eprintln!("listening for {count} worker(s) on {local}");
    let mut workers = Vec::with_capacity(count);
    for i in 0..count {
        let (conn, peer) = listener
            .accept()
            .map_err(|e| CliError::io(format!("{addr}: accept: {e}")))?;
        let input: Input = match journal {
            Some(dir) => {
                let path = format!("{dir}/worker-{i}.frag");
                let f = std::fs::File::create(&path)
                    .map_err(|e| CliError::io(format!("{path}: {e}")))?;
                Box::new(Tee {
                    inner: conn,
                    journal: std::io::BufWriter::new(f),
                })
            }
            None => Box::new(conn),
        };
        let w = open_worker(input, &peer.to_string())?;
        eprintln!("worker {} connected from {peer}", w.label);
        workers.push(w);
    }
    Ok(workers)
}

/// Copy each worker's latest self-reported totals into its registered
/// `zoom_worker_*` series. Cheap (a few atomics per worker), so it runs
/// inline with ingest and once more before every snapshot.
fn sync_worker_metrics(pairs: &[(Arc<WorkerAccount>, Arc<WorkerMetrics>)]) {
    use std::sync::atomic::Ordering;
    for (acc, wm) in pairs {
        let t = acc.totals();
        wm.packets.set(t.packets);
        wm.bytes.set(t.bytes);
        wm.batches.set(t.batches);
        wm.ring_full_drops.set(t.ring_full_drops);
        wm.truncated.set(t.truncated);
        let received = acc.records_received.load(Ordering::Acquire);
        let have = wm.records_received.get();
        if received > have {
            wm.records_received.add(received - have);
        }
        wm.bytes_received
            .set(acc.bytes_received.load(Ordering::Acquire));
        let complete = acc.complete.load(Ordering::Acquire);
        wm.complete.set(u64::from(complete));
        // Don't regress an ERROR set by the ingest failure path.
        if wm.link_state.get() != link_state::ERROR {
            wm.link_state.set(if complete {
                link_state::DONE
            } else if received > 0 {
                link_state::STREAMING
            } else {
                link_state::PENDING
            });
        }
    }
}

/// Mark every worker that never finished cleanly as errored; called when
/// the ingest loop surfaces a failure so `/debug/pipeline` and the final
/// metrics snapshot show which link(s) died.
fn mark_incomplete_errored(pairs: &[(Arc<WorkerAccount>, Arc<WorkerMetrics>)]) {
    use std::sync::atomic::Ordering;
    for (acc, wm) in pairs {
        if !acc.complete.load(Ordering::Acquire) {
            wm.link_state.set(link_state::ERROR);
        }
    }
}

/// Register every worker against the metrics registry and return the
/// (account, series) pairs the ingest loop keeps in sync.
fn register_workers(
    metrics: &PipelineMetrics,
    workers: &[Worker],
) -> Vec<(Arc<WorkerAccount>, Arc<WorkerMetrics>)> {
    workers
        .iter()
        .map(|w| (Arc::clone(&w.account), metrics.register_worker(&w.label)))
        .collect()
}

/// Split the gathered workers into mux lanes plus the label list the
/// checkpoint records. With a collector, each lane stitches incoming
/// `Trace` frames into it (worker-side spans join this process's spans
/// by trace ID) and tags decoded batches for downstream attribution.
/// Spool files are finite files to the fan-in; `--listen` connections
/// are live.
fn into_sources(
    workers: Vec<Worker>,
    flags: &HashMap<String, String>,
    trace: Option<&Arc<TraceCollector>>,
) -> (Sources, Vec<String>) {
    let labels = workers.iter().map(|w| w.label.clone()).collect();
    let list = workers
        .into_iter()
        .map(|w| match trace {
            Some(tc) => Box::new(w.source.with_trace(Arc::clone(tc))) as Box<dyn PacketSource>,
            None => Box::new(w.source) as Box<dyn PacketSource>,
        })
        .collect();
    let finite_files = !flags.contains_key("listen");
    (Sources { list, finite_files }, labels)
}

const FLAGS: FlagSpec = FlagSpec {
    command: "merge",
    bools: &["json", "lossy", "restore"],
    values: &[
        "campus",
        "window",
        "idle-timeout",
        "listen",
        "workers",
        "journal",
        "checkpoint",
        "ring-cap",
        "features",
        "serve",
        "metrics",
        "metrics-interval",
        "trace",
        "trace-sample",
        "self-profile",
    ],
    repeats: &[],
};

pub fn run(args: &[String]) -> CmdResult {
    reject_shards_flag(args)?;
    let (files, flags, _) = parse_args(args, &FLAGS)?;
    let campus = campus_flag(&flags)?;
    let window = flags.get("window").map(|v| parse_duration(v)).transpose()?;
    let idle_timeout = flags
        .get("idle-timeout")
        .map(|v| parse_duration(v))
        .transpose()?;
    let mux_config = mux_flags(&flags)?;
    let metrics_file = MetricsFile::from_flags(&flags)?;
    let trace_out = TraceOutput::from_flags(&flags)?;
    let checkpoint_path = flags.get("checkpoint").cloned();
    let restore = flags.contains_key("restore");
    if restore && checkpoint_path.is_none() {
        return Err(CliError::config("--restore needs --checkpoint PATH"));
    }
    if checkpoint_path.is_some() && window.is_none() {
        return Err(CliError::config(
            "--checkpoint needs --window: only windowed output can be resumed incrementally",
        ));
    }

    let config = AnalyzerConfig::builder()
        .campus_prefix(campus.0, campus.1)
        .build()?;

    // Gather workers: spool files, or live connections.
    let workers = match flags.get("listen") {
        Some(addr) => {
            if !files.is_empty() {
                return Err(CliError::config(
                    "--listen and positional fragment files are mutually exclusive",
                ));
            }
            let count: usize = flags
                .get("workers")
                .ok_or_else(|| CliError::config("merge --listen needs --workers N"))?
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| CliError::config("--workers expects a positive integer"))?;
            listen_workers(addr, count, flags.get("journal").map(String::as_str))?
        }
        None => {
            if files.is_empty() {
                return Err(CliError::config(
                    "no input: give fragment files or --listen ADDR --workers N",
                ));
            }
            file_workers(&files)?
        }
    };

    // Restore: the replayed inputs must be the checkpointed worker set,
    // and the gate suppresses the window prefix a previous incarnation
    // already wrote.
    let mut gate = WindowGate::default();
    if restore {
        let path = checkpoint_path.as_deref().expect("checked above");
        let cp = MergeCheckpoint::load(std::path::Path::new(path))?;
        let labels: Vec<String> = workers.iter().map(|w| w.label.clone()).collect();
        cp.check_workers(&labels)?;
        gate = WindowGate::resume_from(&cp);
        eprintln!(
            "restoring from {path}: suppressing {} already-emitted window(s)",
            cp.windows_emitted
        );
    }

    if window.is_some() || idle_timeout.is_some() {
        run_streaming_merge(
            workers,
            config,
            window,
            idle_timeout,
            gate,
            checkpoint_path.as_deref(),
            &flags,
            metrics_file,
            mux_config,
            trace_out,
        )
    } else {
        run_batch_merge(workers, config, &flags, metrics_file, mux_config, trace_out)
    }
}

/// Unwindowed merge: the same batch pipeline as `analyze` over the
/// fragment lanes — its fan-in feed plus the per-batch worker-metrics
/// sync — ending in the shared report printer.
fn run_batch_merge(
    workers: Vec<Worker>,
    config: AnalyzerConfig,
    flags: &HashMap<String, String>,
    mut metrics_file: Option<MetricsFile>,
    mux_config: MuxConfig,
    mut trace_out: Option<TraceOutput>,
) -> CmdResult {
    let mut analyzer = Analyzer::new(config);
    let mh = analyzer.metrics_handle();
    if let Some(t) = &trace_out {
        t.enable(&mh.trace, "merge");
    }
    let pairs = register_workers(&mh, &workers);
    let (sources, _) = into_sources(workers, flags, trace_out.as_ref().map(|_| &mh.trace));
    let mut mux = start_capture(sources, mux_config, Some(&mh));
    let sync = || sync_worker_metrics(&pairs);
    let fed = feed_mux(&mut mux, &mut analyzer, &mut metrics_file, sync);
    if fed.is_err() {
        mark_incomplete_errored(&pairs);
    }
    fed?;
    sync_worker_metrics(&pairs);
    finish_mux(mux, &mut analyzer)?;
    if let Some(m) = &mut metrics_file {
        m.write(&analyzer.metrics())?;
    }
    if let Some(t) = &mut trace_out {
        t.finish(&mh.trace)?;
    }
    print_report(&analyzer, flags)
}

/// Windowed merge: NDJSON window reports exactly as `analyze --window`
/// prints them, gated for checkpoint restore and checkpointed after
/// every emitted window.
#[allow(clippy::too_many_arguments)]
fn run_streaming_merge(
    workers: Vec<Worker>,
    config: AnalyzerConfig,
    window: Option<Duration>,
    idle_timeout: Option<Duration>,
    mut gate: WindowGate,
    checkpoint_path: Option<&str>,
    flags: &HashMap<String, String>,
    mut metrics_file: Option<MetricsFile>,
    mux_config: MuxConfig,
    mut trace_out: Option<TraceOutput>,
) -> CmdResult {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: config,
        window,
        idle_timeout,
        qoe: None,
    })?;

    let serve_handle = flags
        .get("serve")
        .map(|addr| serve::serve(addr.as_str(), engine.metrics_handle()))
        .transpose()
        .map_err(|e| CliError::io(format!("--serve: {e}")))?;
    if let Some(h) = &serve_handle {
        eprintln!(
            "serving /metrics, /healthz, and /debug/* on http://{}",
            h.local_addr()
        );
    }

    let mh = engine.metrics_handle();
    if let Some(t) = &trace_out {
        t.enable(&mh.trace, "merge");
    }
    let pairs = register_workers(&mh, &workers);
    let (sources, labels) = into_sources(workers, flags, trace_out.as_ref().map(|_| &mh.trace));
    let mut mux = start_capture(sources, mux_config, Some(&mh));

    let save_checkpoint = |gate: &WindowGate| -> Result<(), CliError> {
        let Some(path) = checkpoint_path else {
            return Ok(());
        };
        use std::sync::atomic::Ordering;
        let cp = MergeCheckpoint {
            windows_emitted: gate.windows_seen(),
            workers: labels
                .iter()
                .zip(&pairs)
                .map(|(label, (acc, _))| WorkerMark {
                    label: label.clone(),
                    consumed: acc.records_received.load(Ordering::Acquire),
                })
                .collect(),
        };
        cp.save(std::path::Path::new(path))?;
        Ok(())
    };

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    let mut batch = RecordBatch::new();
    let mut line = String::new();
    loop {
        let link = match mux.next_batch(&mut batch, BATCH_RECORDS) {
            Ok(Some(link)) => link,
            Ok(None) => break,
            Err(e) => {
                // Surface which worker link(s) died in /debug/pipeline
                // and the final snapshot before propagating.
                mark_incomplete_errored(&pairs);
                return Err(e.into());
            }
        };
        engine.push_batch(&batch, link)?;
        sync_worker_metrics(&pairs);
        let mut wrote = false;
        for w in engine.take_windows() {
            if gate.admit() {
                write_window_line(&mut out, &mut line, &w)?;
                wrote = true;
            }
        }
        if wrote {
            out.flush().map_err(|e| e.to_string())?;
            save_checkpoint(&gate)?;
        }
        if let Some(m) = &mut metrics_file {
            engine.note_pcap_progress(mux.records_delivered(), mux.bytes_delivered());
            m.tick(batch.len() as u32, || engine.metrics())?;
        }
        if let Some(t) = &mut trace_out {
            t.drain(&mh.trace)?;
        }
    }
    sync_worker_metrics(&pairs);
    finish_mux(mux, &mut engine)?;
    let output = engine.drain()?;
    if let Some(m) = &mut metrics_file {
        m.write(&output.analyzer.metrics())?;
    }
    if let Some(t) = &mut trace_out {
        t.finish(&mh.trace)?;
    }
    write_window_line(&mut out, &mut line, &output.final_window)?;
    writeln!(out, "{}", output.report.to_json()).map_err(|e| e.to_string())?;
    out.flush().map_err(|e| e.to_string())?;
    save_checkpoint(&gate)?;
    eprintln!(
        "merged {} packets from {} worker(s), peak tracked entries {}",
        output.report.summary.total_packets,
        labels.len(),
        output.peak_tracked_entries
    );
    if let Some(h) = serve_handle {
        // Graceful: stop accepting scrapes before the process exits so
        // a scraper mid-request gets a response, not a reset.
        h.shutdown();
    }
    Ok(())
}

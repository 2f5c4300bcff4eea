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
//! `analyze` uses — spool files and live connections alike read in-line
//! on the merge thread — so the merged record
//! order, and therefore the output, is the deterministic `(ts, lane)`
//! merge the differential suites pin down. The merged stream then runs
//! through `analyze`'s own analysis loop ([`ingest::run`]), so every
//! flag the two commands share (`--window`, `--idle-timeout`, `--json`,
//! `--features`, `--serve`, `--metrics`, `--trace`) prints the same
//! bytes on both. The workers' self-reported accounting is folded into
//! this process's metrics as `zoom_worker_*` series after every batch,
//! and the conservation invariant extends across the wire:
//! `Σ worker packets == merge packets_in + Σ drops`.
//!
//! With `--window`, `--checkpoint PATH` persists a [`MergeCheckpoint`]
//! after every emitted window, and `--restore` resumes from one — the
//! replay (same files, or the journal) suppresses the already-emitted
//! window prefix and continues with bit-identical output
//! (`docs/DISTRIBUTED.md` has the runbook).

use super::ingest::{self, Hooks, MetricsFile, Run};
use super::sources::Sources;
use super::{
    campus_flag, check_eviction_flags, parse_args, parse_duration, CliError, CmdResult, FlagSpec,
    TraceOutput,
};
use std::io::{Read, Write as _};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use zoom_analysis::dist::{MergeCheckpoint, WindowGate, WorkerMark};
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::obs::trace::TraceCollector;
use zoom_analysis::obs::{link_state, PipelineMetrics, WorkerMetrics};
use zoom_analysis::pipeline::AnalyzerConfig;
use zoom_capture::fragment::{FragmentSource, WorkerAccount};
use zoom_capture::source::PacketSource;

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
    let source =
        FragmentSource::open(input).map_err(|e| CliError::protocol(format!("{context}: {e}")))?;
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
            let f = std::fs::File::open(path).map_err(|e| CliError::io(format!("{path}: {e}")))?;
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
    let listener =
        std::net::TcpListener::bind(addr).map_err(|e| CliError::io(format!("{addr}: {e}")))?;
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

/// The workers as the analysis loop sees them: each one's account and
/// its registered `zoom_worker_*` series, and where checkpoints go.
struct Lanes {
    workers: Vec<(String, Arc<WorkerAccount>, Arc<WorkerMetrics>)>,
    checkpoint: Option<String>,
}

impl Lanes {
    /// Register every worker against the metrics registry.
    fn register(
        metrics: &PipelineMetrics,
        workers: &[Worker],
        checkpoint: Option<String>,
    ) -> Lanes {
        let workers = workers
            .iter()
            .map(|w| {
                let series = metrics.register_worker(&w.label);
                (w.label.clone(), Arc::clone(&w.account), series)
            })
            .collect();
        Lanes {
            workers,
            checkpoint,
        }
    }
}

impl Hooks for Lanes {
    /// Copy each worker's latest self-reported totals into its
    /// `zoom_worker_*` series. Cheap (a few atomics per worker), so it
    /// runs after every batch.
    fn sync(&mut self) {
        for (_, acc, wm) in &self.workers {
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
            // Don't regress an ERROR set by `lane_failed`.
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

    /// Mark every worker that never finished cleanly as errored, so
    /// `/debug/pipeline` shows which link(s) died.
    fn lane_failed(&mut self) {
        for (_, acc, wm) in &self.workers {
            if !acc.complete.load(Ordering::Acquire) {
                wm.link_state.set(link_state::ERROR);
            }
        }
    }

    /// Save the checkpoint: windows seen so far and each worker's
    /// consumed records.
    fn windows_written(&mut self, gate: &WindowGate) -> CmdResult {
        let Some(path) = &self.checkpoint else {
            return Ok(());
        };
        let cp = MergeCheckpoint {
            windows_emitted: gate.windows_seen(),
            workers: self
                .workers
                .iter()
                .map(|(label, acc, _)| WorkerMark {
                    label: label.clone(),
                    consumed: acc.records_received.load(Ordering::Acquire),
                })
                .collect(),
        };
        cp.save(std::path::Path::new(path))?;
        Ok(())
    }

    fn summary(&self, packets: u64, peak_tracked: usize) -> String {
        format!(
            "merged {packets} packets from {} worker(s), peak tracked entries {peak_tracked}",
            self.workers.len()
        )
    }
}

/// Turn the gathered workers into mux lanes. With a collector, each lane
/// stitches incoming `Trace` frames into it (worker-side spans join this
/// process's spans by trace ID) and tags decoded batches for downstream
/// attribution.
fn into_sources(workers: Vec<Worker>, trace: Option<&Arc<TraceCollector>>) -> Sources {
    workers
        .into_iter()
        .map(|w| match trace {
            Some(tc) => Box::new(w.source.with_trace(Arc::clone(tc))) as Box<dyn PacketSource>,
            None => Box::new(w.source) as Box<dyn PacketSource>,
        })
        .collect()
}

const FLAGS: FlagSpec = FlagSpec {
    command: "merge",
    bools: &["json", "restore"],
    values: &[
        "campus",
        "window",
        "idle-timeout",
        "listen",
        "workers",
        "journal",
        "checkpoint",
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
    let (files, flags, _) = parse_args(args, &FLAGS)?;
    check_eviction_flags(&flags)?;
    let campus = campus_flag(&flags)?;
    let window = flags.get("window").map(|v| parse_duration(v)).transpose()?;
    let idle_timeout = flags
        .get("idle-timeout")
        .map(|v| parse_duration(v))
        .transpose()?;
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

    // Only the `--features` export reads the per-second series.
    let config = AnalyzerConfig::builder()
        .campus_prefix(campus.0, campus.1)
        .per_second_rows(flags.contains_key("features"))
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

    let engine = StreamingEngine::new(EngineConfig {
        analyzer: config,
        window,
        idle_timeout,
        qoe: None,
    })?;
    let mh = engine.metrics_handle();
    let mut lanes = Lanes::register(&mh, &workers, checkpoint_path);
    let sources = into_sources(workers, trace_out.as_ref().map(|_| &mh.trace));
    let run = Run {
        node: "merge",
        flags: &flags,
        metrics_file,
        trace_out,
        ndjson: window.is_some(),
        gate,
    };
    ingest::run(engine, sources, run, &mut lanes)
}

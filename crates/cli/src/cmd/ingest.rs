//! The one analysis loop `analyze` and `merge` share: the sources'
//! merged records (see [`start_capture`]) go a batch at a time through a
//! [`StreamingEngine`], whose window may be absent — with none it is the
//! batch analyzer plus two stores per record, byte for byte
//! (`tests/streaming_differential.rs`).
//!
//! Everything done per batch lives here once, so every route gets it:
//! closed windows and QoE alerts on stdout, the `--serve` endpoint,
//! `--metrics` ticks, the `--trace` drain, and the torn-tail warning. At the end the run prints either NDJSON (windows, then the
//! last window and the final report) or the text / `--json` report, from
//! the drained engine, written into the buffered stdout as it is
//! rendered, then writes the `--features` CSV. What `merge`
//! adds — worker accounting and checkpoints — comes in through [`Hooks`].

use super::sources::{start_capture, Sources};
use super::{write_window_line, CliError, CmdResult, TraceOutput};
use std::collections::HashMap;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};
use zoom_analysis::dist::WindowGate;
use zoom_analysis::engine::{EngineOutput, StreamingEngine};
use zoom_analysis::features;
use zoom_analysis::obs::{serve, MetricsSnapshot};
use zoom_analysis::pipeline::Analyzer;
use zoom_analysis::report;
use zoom_capture::source::BATCH_RECORDS;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::zoom::MediaType;

/// The `--metrics <path>` snapshot file: rewritten in place every
/// [`MetricsFile::INTERVAL`] while records flow, and once more at the
/// end. A `.prom` extension selects the Prometheus text exposition
/// format; anything else gets the JSON snapshot.
pub(crate) struct MetricsFile {
    path: String,
    last: Instant,
    pushes: u32,
}

impl MetricsFile {
    /// How often a run rewrites the file while records flow.
    const INTERVAL: Duration = Duration::from_secs(5);

    pub(crate) fn from_flags(flags: &HashMap<String, String>) -> Option<MetricsFile> {
        flags.get("metrics").map(|path| MetricsFile {
            path: path.clone(),
            last: Instant::now(),
            pushes: 0,
        })
    }

    /// Called after every merged batch (`records` long) enters the
    /// engine; rewrites the file when the interval has elapsed. The clock
    /// is only consulted once at least 256 records have accumulated, so
    /// the per-packet cost stays negligible.
    fn tick(&mut self, records: u32, snap: impl FnOnce() -> MetricsSnapshot) -> CmdResult {
        self.pushes = self.pushes.saturating_add(records);
        if self.pushes < 256 {
            return Ok(());
        }
        self.pushes = 0;
        if self.last.elapsed() < Self::INTERVAL {
            return Ok(());
        }
        self.last = Instant::now();
        super::write_snapshot(&self.path, &snap())
    }
}

/// How one run reads and reports, from its command line.
pub(crate) struct Run<'a> {
    /// The trace node label: the command's name.
    pub node: &'static str,
    pub flags: &'a HashMap<String, String>,
    pub metrics_file: Option<MetricsFile>,
    pub trace_out: Option<TraceOutput>,
    /// Print NDJSON — each window as it closes, then the last window and
    /// the final report — instead of the text or `--json` report.
    pub ndjson: bool,
    /// Which closed windows are printed: all of them, unless `merge
    /// --restore` replays a prefix already written.
    pub gate: WindowGate,
}

/// What a command adds to the loop; `()` adds nothing.
pub(crate) trait Hooks {
    /// Runs after every batch is in the engine, and once more when the
    /// fan-in is done.
    fn sync(&mut self) {}

    /// Runs when the fan-in fails, before the error propagates.
    fn lane_failed(&mut self) {}

    /// Runs after admitted windows are written and flushed, and after the
    /// final line.
    fn windows_written(&mut self, _gate: &WindowGate) -> CmdResult {
        Ok(())
    }

    /// The stderr line that closes an NDJSON run.
    fn summary(&self, packets: u64, peak_tracked: usize) -> String {
        format!("streamed {packets} packets, peak tracked entries {peak_tracked}")
    }
}

impl Hooks for () {}

/// Feed `sources` through `engine` and print what the run asks for.
pub(crate) fn run(
    mut engine: StreamingEngine,
    sources: Sources,
    mut run: Run<'_>,
    hooks: &mut impl Hooks,
) -> CmdResult {
    let mh = engine.metrics_handle();
    // The scrape endpoint holds only the metrics Arc, so it serves live
    // snapshots for the whole run and stops when the handle drops.
    let scrape = match run.flags.get("serve") {
        Some(addr) => {
            let h = serve::serve(addr.as_str(), Arc::clone(&mh))
                .map_err(|e| CliError::io(format!("--serve: {e}")))?;
            eprintln!(
                "serving /metrics, /healthz, and /debug/* on http://{}",
                h.addr()
            );
            Some(h)
        }
        None => None,
    };
    if let Some(t) = &run.trace_out {
        t.enable(&mh.trace, run.node);
    }
    let mut mux = start_capture(sources, Some(&mh));

    let stdout = std::io::stdout();
    let mut out = std::io::BufWriter::new(stdout.lock());
    // next_batch blocks (sleeping) only when nothing is buffered and a
    // live source is quiet — a followed pcap keeps its lane alive until
    // its own idle-exit elapses — and hands back a partial batch rather
    // than sitting on buffered records, so windows go out as they close.
    let mut batch = RecordBatch::new();
    let mut line = String::new();
    loop {
        let link = match mux.next_batch(&mut batch, BATCH_RECORDS) {
            Ok(Some(link)) => link,
            Ok(None) => break,
            Err(e) => {
                hooks.lane_failed();
                return Err(e.into());
            }
        };
        engine.push_batch(&batch, link)?;
        hooks.sync();
        let mut wrote = false;
        for w in engine.take_windows() {
            if run.gate.admit() {
                write_window_line(&mut out, &mut line, &w)?;
                wrote = true;
            }
        }
        for a in engine.take_alerts() {
            writeln!(out, "{}", a.to_json()).map_err(CliError::stdout)?;
            wrote = true;
        }
        if wrote {
            // Live followers tail this NDJSON; don't sit on closed
            // windows while the mux waits for quiet sources.
            out.flush().map_err(CliError::stdout)?;
            hooks.windows_written(&run.gate)?;
        }
        if let Some(m) = &mut run.metrics_file {
            engine.note_pcap_progress(mux.records_delivered(), mux.bytes_delivered());
            m.tick(batch.len() as u32, || engine.metrics())?;
        }
        if let Some(t) = &mut run.trace_out {
            t.drain(&mh.trace)?;
        }
    }
    hooks.sync();

    // Tear down the fan-in: surface capture errors, fold source-side
    // truncation into the gauges, and warn of torn tails.
    let truncated = mux.truncated_records();
    mux.finish()?;
    engine.note_pcap_truncated(truncated);
    if truncated > 0 {
        eprintln!("warning: {truncated} truncated record(s) at source tails ignored");
    }

    let output = engine.drain()?;
    // The last window's rows are cut only for a reader: the NDJSON line,
    // or the `zoom_qoe_*` series a `--metrics` file or `--serve` endpoint
    // shows.
    if run.ndjson || run.metrics_file.is_some() || scrape.is_some() {
        output.final_window();
    }
    // The final snapshot is written after drain, when every count has
    // been published.
    if let Some(m) = &run.metrics_file {
        super::write_snapshot(&m.path, &mh.snapshot())?;
    }
    if let Some(t) = &mut run.trace_out {
        t.finish(&mh.trace)?;
    }
    if run.ndjson {
        write_window_line(&mut out, &mut line, output.final_window())?;
    }
    let json = run.ndjson || run.flags.contains_key("json");
    let EngineOutput {
        report: final_report,
        analyzer,
        peak_tracked_entries,
        ..
    } = output;
    let packets = final_report.summary.total_packets;
    // Only the text report and `--features` read the live state from
    // here on: free it before the report is written when neither will.
    let analyzer = (!json || run.flags.contains_key("features")).then_some(analyzer);
    match &analyzer {
        Some(analyzer) if !json => {
            drop(final_report);
            report::write_text(analyzer, &mut out)
        }
        _ => final_report
            .write_json(&mut out)
            .and_then(|()| out.write_all(b"\n")),
    }
    .and_then(|()| out.flush())
    .map_err(CliError::stdout)?;
    if run.ndjson {
        hooks.windows_written(&run.gate)?;
        eprintln!("{}", hooks.summary(packets, peak_tracked_entries));
    }
    match &analyzer {
        Some(analyzer) => export_features(analyzer, run.flags),
        None => Ok(()),
    }
}

/// Optional ML feature export (`--features out.csv`).
fn export_features(analyzer: &Analyzer, flags: &HashMap<String, String>) -> CmdResult {
    let Some(path) = flags.get("features") else {
        return Ok(());
    };
    let mut out =
        std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?);
    let total = features::write_csv(&mut out, analyzer.streams().of_type(MediaType::Video))
        .and_then(|total| out.flush().map(|()| total))
        .map_err(|e| format!("{path}: {e}"))?;
    eprintln!("wrote {total} feature rows to {path}");
    Ok(())
}

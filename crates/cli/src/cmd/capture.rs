//! `zoom-tools capture` — run the live capture front-end on its own:
//! N concurrent sources fan into one deterministic timestamp-ordered
//! stream, optionally filtered and anonymized by the capture pipeline
//! (the software Tofino), and written to a single output pcap.
//!
//! The fan-in is [`start_capture`]'s, as on every analysis route: `pcap:`
//! files, followed or not, and `sim:` taps are all read in-line on this
//! thread. Behind it runs the
//! one filter loop there is ([`zoom_capture::filter::filter_to_pcap`]),
//! which prints its stage counters on stderr when it is done.
//! `--no-filter` skips classification and writes every merged record,
//! turning the command into a pure capture merger.
//!
//! Capture-side accounting flows into the same observability registry
//! `analyze` uses: `--metrics PATH` snapshots per-source
//! `zoom_source_*` series plus the capture-stage counters, and the
//! extended conservation invariant (`Σ source_packets == packets_in`)
//! holds over the written file.

use super::sources::{build_sources, start_capture, Sources};
use super::{
    filter_config, parse_args, parse_duration, write_snapshot, CliError, CmdResult, FlagSpec,
};
use std::time::Duration;
use zoom_analysis::obs::PipelineMetrics;
use zoom_capture::filter::{filter_to_pcap, FilterSummary};
use zoom_capture::pipeline::CapturePipeline;
use zoom_capture::source::FollowConfig;
use zoom_wire::pcap::READ_BUFFER_BYTES;

pub(crate) const FLAGS: FlagSpec = FlagSpec {
    command: "capture",
    bools: &["follow", "no-filter"],
    values: &["campus", "anonymize", "family", "idle-exit", "metrics"],
    repeats: &["source"],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, source_specs) = parse_args(args, &FLAGS)?;
    let [output] = pos.as_slice() else {
        return Err(CliError::usage(
            "capture needs exactly one output pcap; give inputs with --source",
        ));
    };
    if source_specs.is_empty() {
        return Err(CliError::usage(
            "capture needs at least one --source (pcap:PATH or sim:SPEC)",
        ));
    }
    // Parsed even under --no-filter, so a bad flag value fails either way.
    let config = filter_config(&flags)?;
    let filtering = !flags.contains_key("no-filter");
    if !filtering && config.anonymizer.is_some() {
        return Err(CliError::usage(
            "--anonymize needs the filter pipeline (drop --no-filter)",
        ));
    }
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
    let mut pipeline = filtering.then(|| CapturePipeline::new(config));

    let sources = build_sources(&[], &source_specs, follow_cfg)?;
    let run = filter_sources(sources, pipeline.as_mut(), output, flags.get("metrics"))?;

    for s in &run.lanes {
        eprintln!(
            "source {}: {} packets ({} bytes) in {} batches{}",
            s.label,
            s.packets,
            s.bytes,
            s.batches,
            if s.truncated > 0 {
                format!(", {} truncated", s.truncated)
            } else {
                String::new()
            }
        );
    }
    if run.truncated > 0 {
        eprintln!(
            "warning: {} truncated record(s) at source tails ignored",
            run.truncated
        );
    }
    eprintln!(
        "captured {} merged packets from {} source(s) -> {} written ({} bytes) to {output}",
        run.delivered,
        run.lanes.len(),
        run.written,
        run.written_bytes
    );
    if let Some(c) = pipeline.as_ref().map(CapturePipeline::counters) {
        eprintln!(
            "filtered {} -> {} packets ({:.1} %); server {}, stun {}, p2p {}, dropped {}",
            c.total,
            c.passed,
            100.0 * c.passed as f64 / c.total.max(1) as f64,
            c.zoom_ip_matched,
            c.stun_registered,
            c.p2p_matched,
            c.dropped
        );
    }
    Ok(())
}

/// The route from sources to a filtered pcap: the fan-in of
/// [`start_capture`], the library's filter loop into `output`, and the
/// `--metrics` snapshot with the filter's stage counters as its `capture`
/// section. `pipeline` is `None` under `--no-filter`.
fn filter_sources(
    sources: Sources,
    mut pipeline: Option<&mut CapturePipeline>,
    output: &str,
    metrics_path: Option<&String>,
) -> Result<FilterSummary, CliError> {
    // Per-source series register against this standalone registry; the
    // loop's verdict counts keep its conservation invariant intact.
    let metrics = PipelineMetrics::new();
    let mux = start_capture(sources, Some(&metrics));
    let outfile = std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let out = std::io::BufWriter::with_capacity(READ_BUFFER_BYTES, outfile);
    let (_, run) =
        filter_to_pcap(mux, pipeline.as_deref_mut(), &metrics, out).map_err(|e| e.to_string())?;
    metrics.pcap_truncated_records.set(run.truncated);
    metrics.pcap_records_read.set(run.delivered);

    if let Some(path) = metrics_path {
        let mut snap = metrics.snapshot();
        snap.capture = pipeline.map(|p| p.counters());
        debug_assert!(snap.conservation_holds());
        write_snapshot(path, &snap)?;
    }
    Ok(run)
}

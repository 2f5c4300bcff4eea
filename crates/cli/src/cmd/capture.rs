//! `zoom-tools capture` — run the live capture front-end on its own:
//! N concurrent sources fan into one deterministic timestamp-ordered
//! stream, optionally filtered and anonymized by the capture pipeline
//! (the software Tofino), and written to a single output pcap.
//!
//! The fan-in is whatever [`start_capture`] picks for the sources, as on
//! every analysis route: finite `pcap:` files and a lone lossless source
//! are read in-line on this thread; `--lossy`, and several followed files
//! or `sim:` taps, get one capture thread and ring each — the offline
//! stand-in for a port-mirrored multi-tap deployment. Behind it runs the
//! one filter loop there is ([`zoom_capture::filter::filter_to_pcap`]);
//! `filter IN OUT` is [`filter_sources`] over one `pcap:` source.
//! `--no-filter` skips classification and writes every merged record,
//! turning the command into a pure capture merger.
//!
//! Capture-side accounting flows into the same observability registry
//! `analyze` uses: `--metrics PATH` snapshots per-source
//! `zoom_source_*` series plus the capture-stage counters, and the
//! extended conservation invariant (`Σ source_packets == packets_in +
//! Σ ring_full_drops`) holds over the written file.

use super::sources::{build_sources, mux_flags, start_capture, Sources};
use super::{
    capture_snapshot, filter_config, parse_args, parse_duration, write_snapshot, CliError,
    CmdResult, FlagSpec,
};
use std::time::Duration;
use zoom_analysis::obs::PipelineMetrics;
use zoom_capture::filter::{filter_to_pcap, FilterSummary};
use zoom_capture::mux::MuxConfig;
use zoom_capture::pipeline::CapturePipeline;
use zoom_capture::source::FollowConfig;
use zoom_wire::pcap::READ_BUFFER_BYTES;

const FLAGS: FlagSpec = FlagSpec {
    command: "capture",
    bools: &["follow", "lossy", "no-filter"],
    values: &[
        "campus",
        "anonymize",
        "family",
        "idle-exit",
        "ring-cap",
        "metrics",
    ],
    repeats: &["source"],
};

pub fn run(args: &[String]) -> CmdResult {
    let (pos, flags, source_specs) = parse_args(args, &FLAGS)?;
    let [output] = pos.as_slice() else {
        return Err("capture needs exactly one output pcap; give inputs with --source".into());
    };
    if source_specs.is_empty() {
        return Err("capture needs at least one --source (pcap:PATH or sim:SPEC)".into());
    }
    // Parsed even under --no-filter, so a bad flag value fails either way.
    let config = filter_config(&flags)?;
    let filtering = !flags.contains_key("no-filter");
    if !filtering && config.anonymizer.is_some() {
        return Err("--anonymize needs the filter pipeline (drop --no-filter)".into());
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
    let mux_config = mux_flags(&flags)?;
    let mut pipeline = filtering.then(|| CapturePipeline::new(config));

    let sources = build_sources(&[], &source_specs, follow_cfg)?;
    let run = filter_sources(
        sources,
        mux_config,
        pipeline.as_mut(),
        output,
        flags.get("metrics"),
    )?;

    for s in &run.lanes {
        eprintln!(
            "source {}: {} packets ({} bytes) in {} batches, {} ring-full drops{}",
            s.label,
            s.packets,
            s.bytes,
            s.batches,
            s.ring_full_drops,
            if s.truncated > 0 {
                format!(", {} truncated", s.truncated)
            } else {
                String::new()
            }
        );
    }
    warn_of_losses(&run);
    eprintln!(
        "captured {} merged packets from {} source(s) -> {} written ({} bytes) to {output}",
        run.delivered,
        run.lanes.len(),
        run.written,
        run.written_bytes
    );
    Ok(())
}

/// The one route from sources to a filtered pcap, behind `capture` and
/// `filter`: the fan-in [`start_capture`] picks, the library's filter loop
/// into `output`, and the `--metrics` snapshot with the filter's stage
/// counters as its `capture` section. `pipeline` is `None` under
/// `--no-filter`.
pub fn filter_sources(
    sources: Sources,
    mux_config: MuxConfig,
    mut pipeline: Option<&mut CapturePipeline>,
    output: &str,
    metrics_path: Option<&String>,
) -> Result<FilterSummary, CliError> {
    // Per-source series register against this standalone registry; the
    // loop's verdict counts keep its conservation invariant intact.
    let metrics = PipelineMetrics::new();
    let mux = start_capture(sources, mux_config, Some(&metrics));
    let outfile = std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
    let out = std::io::BufWriter::with_capacity(READ_BUFFER_BYTES, outfile);
    let (_, run) =
        filter_to_pcap(mux, pipeline.as_deref_mut(), &metrics, out).map_err(|e| e.to_string())?;
    metrics.pcap_truncated_records.set(run.truncated);
    metrics.pcap_records_read.set(run.delivered);

    if let Some(path) = metrics_path {
        let mut snap = metrics.snapshot();
        snap.capture = pipeline.map(|p| capture_snapshot(p.counters()));
        debug_assert!(snap.conservation_holds());
        write_snapshot(path, &snap)?;
    }
    Ok(run)
}

/// The stderr warnings of a run that lost records: torn source tails,
/// full rings.
pub fn warn_of_losses(run: &FilterSummary) {
    if run.truncated > 0 {
        eprintln!(
            "warning: {} truncated record(s) at source tails ignored",
            run.truncated
        );
    }
    if run.ring_full_drops > 0 {
        eprintln!(
            "warning: {} record(s) dropped at full capture rings (see ring_full_drops)",
            run.ring_full_drops
        );
    }
}

//! `zoom-tools capture` — run the live capture front-end on its own:
//! N concurrent sources fan into one deterministic timestamp-ordered
//! stream through bounded lock-free rings, optionally filtered and
//! anonymized by the capture pipeline (the software Tofino), and written
//! to a single output pcap.
//!
//! This is `filter` generalized to the multi-source world: where
//! `filter` reads one file inline, `capture` runs one capture thread per
//! `--source` (pcap files, followed growing files, or `sim:` live taps)
//! and merges them — the offline stand-in for a port-mirrored
//! multi-tap deployment. `--no-filter` skips classification and writes
//! every merged record, turning the command into a pure capture merger.
//!
//! Capture-side accounting flows into the same observability registry
//! `analyze` uses: `--metrics PATH` snapshots per-source
//! `zoom_source_*` series plus the capture-stage counters, and the
//! extended conservation invariant (`Σ source_packets == packets_in +
//! Σ ring_full_drops`) holds over the written file.

use super::sources::{build_sources, mux_flags};
use super::{
    capture_snapshot, filter_config, parse_args, parse_duration, write_snapshot, CmdResult,
    FlagSpec,
};
use std::time::Duration;
use zoom_analysis::obs::PipelineMetrics;
use zoom_capture::mux::CaptureMux;
use zoom_capture::pipeline::{CapturePipeline, Verdict};
use zoom_capture::source::FollowConfig;
use zoom_wire::pcap::{LinkType, Record, Writer};

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

    // Per-source series register against this standalone registry; the
    // verdict counters below keep its conservation invariant intact.
    let metrics = PipelineMetrics::new();
    // One capture thread per source, always: this consumer is light, so
    // read-ahead is worth real rate here (docs/PERFORMANCE.md).
    let sources = build_sources(&[], &source_specs, follow_cfg)?.list;
    let mut mux = CaptureMux::start(sources, mux_config, Some(&metrics));

    // The output link type is pinned by the first merged record; a pcap
    // file cannot mix link types, so heterogeneous sources are an error.
    let mut writer: Option<Writer<std::io::BufWriter<std::fs::File>>> = None;
    let mut out_link = LinkType::Ethernet;
    // The one output record, reused: only what gets written is copied.
    let mut rec = Record::full(0, Vec::new());
    let mut written = 0u64;
    let mut written_bytes = 0u64;
    while let Some(r) = mux.next_record().map_err(|e| e.to_string())? {
        metrics.record_in((r.orig_len as usize).max(r.data.len()));
        match &writer {
            None => {
                let outfile =
                    std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
                writer = Some(
                    Writer::new(std::io::BufWriter::new(outfile), r.link)
                        .map_err(|e| format!("{output}: {e}"))?,
                );
                out_link = r.link;
            }
            Some(_) if r.link != out_link => {
                return Err(format!(
                    "sources disagree on link type ({:?} vs {:?}); a pcap holds exactly one",
                    out_link, r.link
                )
                .into());
            }
            Some(_) => {}
        }
        let w = writer.as_mut().expect("writer created above");
        let passes = match &mut pipeline {
            Some(p) => {
                let verdict = p.process_into(r.ts_nanos, r.orig_len, r.data, r.link, &mut rec);
                if verdict == Verdict::Unparseable {
                    metrics.drop_malformed.inc();
                } else if !verdict.passes() {
                    metrics.packets_not_zoom.inc();
                }
                verdict.passes()
            }
            None => {
                // Pass-through merge: every record counts as accepted.
                rec.ts_nanos = r.ts_nanos;
                rec.orig_len = r.orig_len;
                rec.data.clear();
                rec.data.extend_from_slice(r.data);
                true
            }
        };
        if passes {
            metrics.packets_classified.inc();
            written += 1;
            written_bytes += rec.data.len() as u64;
            w.write_record(&rec).map_err(|e| e.to_string())?;
        }
    }
    if let Some(w) = writer.take() {
        w.finish().map_err(|e| e.to_string())?;
    } else {
        // No records at all: still produce a valid (empty) pcap.
        let outfile = std::fs::File::create(output).map_err(|e| format!("{output}: {e}"))?;
        Writer::new(std::io::BufWriter::new(outfile), out_link)
            .map_err(|e| format!("{output}: {e}"))?
            .finish()
            .map_err(|e| e.to_string())?;
    }

    let truncated = mux.truncated_records();
    let ring_drops = mux.ring_full_drops();
    let lane_stats: Vec<_> = (0..mux.sources()).map(|i| mux.lane_stats(i)).collect();
    let delivered = mux.records_delivered();
    mux.finish().map_err(|e| e.to_string())?;
    metrics.pcap_truncated_records.set(truncated);
    metrics.pcap_records_read.set(delivered);

    if let Some(path) = flags.get("metrics") {
        let mut snap = metrics.snapshot();
        snap.capture = pipeline.as_ref().map(|p| capture_snapshot(p.counters()));
        debug_assert!(snap.conservation_holds());
        write_snapshot(path, &snap)?;
    }

    for s in &lane_stats {
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
    if truncated > 0 {
        eprintln!("warning: {truncated} truncated record(s) at source tails ignored");
    }
    if ring_drops > 0 {
        eprintln!("warning: {ring_drops} record(s) dropped at full capture rings (see ring_full_drops)");
    }
    eprintln!(
        "captured {delivered} merged packets from {} source(s) -> {written} written ({written_bytes} bytes) to {output}",
        lane_stats.len()
    );
    Ok(())
}

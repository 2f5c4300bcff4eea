//! Shared `--source SPEC` handling for `analyze`, `capture` (and `filter`,
//! its one-file form), and the fragment-emitting worker path.
//!
//! Spec strings parse through the typed
//! [`SourceSpec`] grammar — one
//! `FromStr` shared by every subcommand instead of the per-command
//! string splitting the CLI used to do — and each parsed spec selects a
//! [`PacketSource`] backend:
//!
//! * [`SourceSpec::Pcap`] — a pcap file ([`PcapFileSource`]); with
//!   `--follow` the file is polled for appended records per source.
//! * [`SourceSpec::Sim`] — a simulated live tap: the scenario's records
//!   are generated up front, then delivered through the AF_PACKET-style
//!   [`live_ring`] backend by a feeder thread, so the ingest side
//!   exercises the same ring hand-off a real socket capture would.
//!   Scenarios match `simulate`: `validation`, `p2p`, `multi`, `churn`,
//!   `campus-10x`, `webrtc` (the *name* is validated here, where the catalogue
//!   lives — the grammar itself accepts any name).
//!
//! Source labels are the spec's canonical `Display` form, so
//! `sim:p2p` and `sim:p2p,seed=7,secs=60` label identically
//! (`docs/DISTRIBUTED.md` has the migration notes).
//!
//! A bare positional input (the classic `analyze trace.pcap` shape) is
//! `--source pcap:trace.pcap`: the same source, the same route.

use super::CliError;
use std::collections::HashMap;
use zoom_analysis::obs::PipelineMetrics;
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::source::{
    live_ring, FollowConfig, PacketSource, PcapFileSource, BATCH_RECORDS,
};
use zoom_capture::spec::SourceSpec;
use zoom_sim::meeting::{MeetingConfig, MeetingSim};
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};

/// Generates one scenario's records, timestamp-sorted — the same
/// workloads (and the same `MeetingConfig` tweaks) as `simulate`, so a
/// `sim:` source is record-identical to analyzing a `simulate` output
/// file with matching parameters.
pub fn scenario_records(name: &str, seed: u64, seconds: u64) -> Result<Vec<Record>, String> {
    // The WebRTC scenario generates records directly (no MeetingConfig:
    // a WebRTC session is not a Zoom meeting), already timestamp-sorted.
    if name == "webrtc" {
        return Ok(zoom_sim::webrtc::scenario(seed, seconds * SEC));
    }
    let configs: Vec<MeetingConfig> = match name {
        "validation" => {
            let mut cfg = scenario::validation_experiment(seed);
            for p in &mut cfg.participants {
                p.leave_at = seconds * SEC;
            }
            vec![cfg]
        }
        "p2p" => vec![scenario::p2p_meeting(seed, seconds * SEC)],
        "multi" => vec![scenario::multi_party(seed, seconds * SEC)],
        "churn" => scenario::churn(seed, seconds * SEC),
        // The campus generator draws arrivals per whole minute: under one
        // minute there is none to draw for, and the trace would be empty.
        "campus-10x" if seconds < 60 => {
            return Err(format!(
                "scenario 'campus-10x' needs at least 60 seconds (its meetings arrive per whole \
                 minute); got {seconds}"
            ))
        }
        "campus-10x" => scenario::campus_10x(seed, seconds * SEC),
        other => {
            return Err(format!(
                "unknown scenario '{other}' (validation|p2p|multi|churn|campus-10x|webrtc)"
            ))
        }
    };
    // Multi-meeting scenarios interleave by timestamp so the capture
    // looks like one border tap observing them all.
    let mut records: Vec<Record> = configs.into_iter().flat_map(MeetingSim::new).collect();
    records.sort_by_key(|r| r.ts_nanos);
    Ok(records)
}

/// Parses the spec strings of one invocation into typed form: every
/// positional input becomes a `pcap:` spec, then each `--source` value
/// in order. Grammar failures exit with the configuration code.
pub fn parse_specs(
    positional: &[String],
    specs: &[(String, String)],
) -> Result<Vec<SourceSpec>, CliError> {
    let mut parsed = Vec::with_capacity(positional.len() + specs.len());
    for input in positional {
        parsed.push(SourceSpec::Pcap {
            path: input.clone(),
        });
    }
    for (_, spec) in specs {
        parsed.push(spec.parse::<SourceSpec>()?);
    }
    Ok(parsed)
}

/// Builds the source for one parsed spec. `follow` applies to pcap
/// sources only: a followed file keeps being polled until it has been
/// quiet for the configured idle-exit.
pub fn build_source(
    spec: &SourceSpec,
    follow: Option<FollowConfig>,
) -> Result<Box<dyn PacketSource>, CliError> {
    match spec {
        SourceSpec::Pcap { path } => {
            let mut src = PcapFileSource::open(path).map_err(CliError::from)?;
            if let Some(cfg) = follow {
                src = src.follow(cfg);
            }
            Ok(Box::new(src))
        }
        SourceSpec::Sim {
            scenario,
            seed,
            secs,
        } => {
            let records =
                scenario_records(scenario, *seed, *secs).map_err(CliError::config)?;
            // The label is the canonical spec so shorthand and explicit
            // forms of the same tap share one metrics series.
            let (mut handle, source) = live_ring(&spec.to_string(), LinkType::Ethernet, 8);
            // The feeder thread stands in for the kernel side of a live
            // ring: it pushes batches losslessly (the generator can
            // wait; a real NIC cannot) and exits when the consuming
            // source is dropped.
            std::thread::spawn(move || {
                let mut batch = handle.take_batch();
                for r in &records {
                    if batch.len() >= BATCH_RECORDS {
                        match handle.push_batch_blocking(batch) {
                            Ok(()) => batch = handle.take_batch(),
                            Err(_) => return, // consumer gone
                        }
                    }
                    batch.push(r.ts_nanos, r.orig_len, &r.data);
                }
                if !batch.is_empty() {
                    let _ = handle.push_batch_blocking(batch);
                }
            });
            Ok(Box::new(source))
        }
    }
}

/// The sources of one fan-in, with what [`start_capture`] needs to know
/// about them.
pub struct Sources {
    /// In lane order.
    pub list: Vec<Box<dyn PacketSource>>,
    /// Every source is a finite file — a `pcap:` spec without `--follow`,
    /// a fragment spool: its next batch is always there to be read, so
    /// reading it never waits on anything but the disk.
    pub finite_files: bool,
}

/// Builds the full source list for a command invocation: every
/// `--source` spec in order, preceded by the legacy positional input (as
/// a pcap source) when one was given.
pub fn build_sources(
    positional: &[String],
    specs: &[(String, String)],
    follow: Option<FollowConfig>,
) -> Result<Sources, CliError> {
    let parsed = parse_specs(positional, specs)?;
    if parsed.is_empty() {
        return Err("no input: give a pcap path or at least one --source".into());
    }
    Ok(Sources {
        list: parsed
            .iter()
            .map(|s| build_source(s, follow))
            .collect::<Result<_, _>>()?,
        finite_files: follow.is_none()
            && parsed.iter().all(|s| matches!(s, SourceSpec::Pcap { .. })),
    })
}

/// Parse `--ring-cap` / `--lossy` into the fan-in configuration.
/// Defaults to lossless (`Overflow::Block`): file replay can wait, so
/// reports stay deterministic. `--lossy` switches to live semantics —
/// full rings drop batches with exact `ring_full_drops` accounting.
pub fn mux_flags(flags: &HashMap<String, String>) -> Result<MuxConfig, String> {
    let ring_capacity = match flags.get("ring-cap") {
        Some(v) => v
            .parse::<usize>()
            .ok()
            .filter(|n| *n > 0)
            .ok_or_else(|| format!("--ring-cap expects a positive batch count, got {v:?}"))?,
        None => MuxConfig::default().ring_capacity,
    };
    let overflow = if flags.contains_key("lossy") {
        Overflow::Drop
    } else {
        Overflow::Block
    };
    Ok(MuxConfig {
        ring_capacity,
        overflow,
    })
}

/// Starts the fan-in of every route (`analyze`, batch, windowed or
/// `--emit-fragments`; `merge`; `capture` and `filter`): in-line on the
/// calling thread or one capture thread per source, decided here and
/// nowhere else. Under `Overflow::Block` a capture thread waits for the
/// consumer anyway, so all it buys is read-ahead on a second core — when
/// the scheduler grants one; a pass that overlaps read and analysis only
/// then takes 1.0× or 1.5× as long from one run to the next, and moves
/// every arena between cores to do it. So a lone lossless source, and any
/// number of finite files (whose next batch is always ready), are read
/// in-line ([`CaptureMux::inline`]). `--lossy` keeps its threads because
/// there the thread *is* the decoupling; several live sources (followed
/// files, `sim:` taps, `merge --listen` connections) keep theirs because
/// each paces its own polling and would stall the others in-line
/// ([`CaptureMux::start`]).
pub fn start_capture(
    sources: Sources,
    config: MuxConfig,
    metrics: Option<&PipelineMetrics>,
) -> CaptureMux {
    if config.overflow == Overflow::Block && (sources.list.len() == 1 || sources.finite_files) {
        CaptureMux::inline(sources.list, metrics)
    } else {
        CaptureMux::start(sources.list, config, metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(s: &str) -> SourceSpec {
        s.parse().unwrap()
    }

    #[test]
    fn bad_specs_error_with_config_code() {
        let reps = [("source".to_string(), "nocolon".to_string())];
        let e = build_sources(&[], &reps, None).err().unwrap();
        assert_eq!(e.code, 3, "grammar errors are configuration errors");
        assert!(e.message.contains("pcap:PATH"));

        let reps = [("source".to_string(), "ftp:whatever".to_string())];
        assert_eq!(build_sources(&[], &reps, None).err().unwrap().code, 3);

        assert!(build_source(&spec("pcap:/definitely/not/there.pcap"), None).is_err());
        let e = build_source(&spec("sim:unknown-scenario"), None).err().unwrap();
        assert_eq!(e.code, 3);
        assert!(e
            .message
            .contains("validation|p2p|multi|churn|campus-10x|webrtc"));
    }

    #[test]
    fn campus_10x_is_heavy_churn() {
        // The bench-gate standard load: ~10x the `churn` scenario's
        // meeting population inside a one-minute trace, so the batch
        // pipeline is measured under real flow-table pressure.
        let records = scenario_records("campus-10x", 7, 60).unwrap();
        assert!(
            records.len() > 100_000,
            "campus-10x too light: {} records",
            records.len()
        );
        let churn: usize = scenario::churn(7, 60 * SEC).len();
        let meetings = scenario::campus_10x(7, 60 * SEC).len();
        assert!(
            meetings >= 10 * churn,
            "campus-10x has {meetings} meetings, want >= 10x churn's {churn}"
        );
    }

    #[test]
    fn positional_inputs_become_pcap_specs() {
        let parsed = parse_specs(&["trace.pcap".into()], &[]).unwrap();
        assert_eq!(
            parsed,
            vec![SourceSpec::Pcap {
                path: "trace.pcap".into()
            }]
        );
    }

    #[test]
    fn sim_source_delivers_scenario_records() {
        use zoom_wire::handoff::RecordBatch;

        let expected = scenario_records("p2p", 3, 5).unwrap();
        let mut src = build_source(&spec("sim:p2p,seed=3,secs=5"), None).unwrap();
        assert_eq!(src.label(), "sim:p2p,seed=3,secs=5");
        let mut got = 0usize;
        let mut batch = RecordBatch::new();
        loop {
            batch.clear();
            let live = src.next_batch(&mut batch).unwrap();
            got += batch.len();
            if !live {
                break;
            }
        }
        assert_eq!(got, expected.len());
    }
}

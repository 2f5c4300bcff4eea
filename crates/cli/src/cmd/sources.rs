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
//! * [`SourceSpec::Sim`] — a simulated tap ([`ReplaySource`] over
//!   [`Scenario::records`]): the scenario's records are generated as the
//!   fan-in reads them, on the thread that reads them. Scenarios match
//!   `simulate`: `validation`, `p2p`, `multi`, `churn`, `campus-10x`,
//!   `webrtc` (the *name* is validated here, where the catalogue lives —
//!   the grammar itself accepts any name).
//!
//! Source labels are the spec's canonical `Display` form, so
//! `sim:p2p` and `sim:p2p,seed=7,secs=60` label identically
//! (`docs/DISTRIBUTED.md` has the migration notes).
//!
//! A bare positional input (the classic `analyze trace.pcap` shape) is
//! `--source pcap:trace.pcap`: the same source, the same route.

use super::CliError;
use zoom_analysis::obs::PipelineMetrics;
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::source::{FollowConfig, PacketSource, PcapFileSource, ReplaySource};
use zoom_capture::spec::SourceSpec;
use zoom_sim::campus::CampusStream;
use zoom_sim::meeting::MeetingConfig;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::{LinkType, Record};

/// One simulated scenario, checked and ready to generate — the same
/// workloads (and the same `MeetingConfig` tweaks) for `simulate` and a
/// `sim:` source, so a `sim:` source is record-identical to analyzing a
/// `simulate` output file with matching parameters.
pub enum Scenario {
    /// Zoom meetings, as one border tap observing them all sees them.
    Meetings(Vec<MeetingConfig>),
    /// A WebRTC session (no `MeetingConfig`: it is not a Zoom meeting).
    WebRtc { seed: u64, seconds: u64 },
}

impl Scenario {
    /// The scenario `name` at `seed`, `seconds` long; an error for an
    /// unknown name or a length the scenario cannot fill.
    pub fn new(name: &str, seed: u64, seconds: u64) -> Result<Scenario, String> {
        let configs: Vec<MeetingConfig> = match name {
            "webrtc" => return Ok(Scenario::WebRtc { seed, seconds }),
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
            // The campus generator draws arrivals per whole minute: under
            // one minute there is none to draw for, and the trace would be
            // empty.
            "campus-10x" if seconds < 60 => {
                return Err(format!(
                    "scenario 'campus-10x' needs at least 60 seconds (its meetings arrive per \
                     whole minute); got {seconds}"
                ))
            }
            "campus-10x" => scenario::campus_10x(seed, seconds * SEC),
            other => {
                return Err(format!(
                    "unknown scenario '{other}' (validation|p2p|multi|churn|campus-10x|webrtc)"
                ))
            }
        };
        Ok(Scenario::Meetings(configs))
    }

    /// The records, timestamp-sorted and generated as they are read: the
    /// meetings' record streams are merged lazily, one record held per
    /// meeting, never the whole trace.
    pub fn records(self) -> Box<dyn Iterator<Item = Record> + Send> {
        match self {
            Scenario::Meetings(configs) => Box::new(CampusStream::of_meetings(configs)),
            // Generated whole, already timestamp-sorted.
            Scenario::WebRtc { seed, seconds } => {
                Box::new(zoom_sim::webrtc::scenario(seed, seconds * SEC).into_iter())
            }
        }
    }
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
            let scenario = Scenario::new(scenario, *seed, *secs).map_err(CliError::config)?;
            // The label is the canonical spec so shorthand and explicit
            // forms of the same tap share one metrics series.
            Ok(Box::new(ReplaySource::new(
                &spec.to_string(),
                LinkType::Ethernet,
                scenario.records(),
            )))
        }
    }
}

/// The sources of one fan-in, in lane order.
pub type Sources = Vec<Box<dyn PacketSource>>;

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
    parsed.iter().map(|s| build_source(s, follow)).collect()
}

/// Starts the fan-in of every route (`analyze`, batch, windowed or
/// `--emit-fragments`; `merge`; `capture` and `filter`): every source is
/// read in-line on the calling thread, followed files and `merge
/// --listen` connections too. The strict `(ts, lane)` merge waits for its
/// slowest live lane whatever reads it, so a capture thread per source
/// would buy read-ahead only — and the kernel's file and socket buffers
/// already give a reader that.
pub fn start_capture(sources: Sources, metrics: Option<&PipelineMetrics>) -> CaptureMux {
    CaptureMux::start(sources, MuxConfig, metrics)
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
        let e = build_source(&spec("sim:unknown-scenario"), None)
            .err()
            .unwrap();
        assert_eq!(e.code, 3);
        assert!(e
            .message
            .contains("validation|p2p|multi|churn|campus-10x|webrtc"));
    }

    #[test]
    fn campus_10x_is_heavy_churn() {
        // The heavy-churn load: ~10x the `churn` scenario's meeting
        // population inside a one-minute trace, so an analysis of it
        // runs under real flow-table pressure.
        let records = Scenario::new("campus-10x", 7, 60)
            .unwrap()
            .records()
            .count();
        assert!(records > 100_000, "campus-10x too light: {records} records");
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

        let expected = Scenario::new("p2p", 3, 5).unwrap().records().count();
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
        assert_eq!(got, expected);
    }

    /// Each record's timestamp and an FNV-1a digest of its length and
    /// bytes.
    fn fingerprint(r: &Record) -> (u64, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in r.orig_len.to_le_bytes().iter().chain(&r.data) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (r.ts_nanos, h)
    }

    #[test]
    fn lazy_merge_equals_collect_and_stable_sort() {
        use zoom_sim::meeting::MeetingSim;
        for (name, configs) in [
            ("churn", scenario::churn(7, 60 * SEC)),
            ("multi", vec![scenario::multi_party(7, 60 * SEC)]),
            ("campus-10x", scenario::campus_10x(7, 60 * SEC)),
        ] {
            let mut want: Vec<(u64, u64)> = configs
                .into_iter()
                .flat_map(MeetingSim::new)
                .map(|r| fingerprint(&r))
                .collect();
            want.sort_by_key(|&(ts, _)| ts);
            let got: Vec<(u64, u64)> = Scenario::new(name, 7, 60)
                .unwrap()
                .records()
                .map(|r| fingerprint(&r))
                .collect();
            assert_eq!(got.len(), want.len(), "{name}: record count");
            let first_difference = got.iter().zip(&want).position(|(g, w)| g != w);
            assert_eq!(first_difference, None, "{name}: first differing record");
        }
    }
}

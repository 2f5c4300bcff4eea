//! Subcommand implementations, the tiny shared flag parser, and the
//! [`CliError`] exit-code mapping.

pub mod analyze;
pub mod capture;
pub mod discover;
pub mod dissect;
pub mod filter;
pub mod ingest;
pub mod merge;
pub mod simulate;
pub mod sources;

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;
use zoom_analysis::obs::{CaptureMetricsSnapshot, MetricsSnapshot};
use zoom_capture::anonymize::{Anonymizer, Mode};
use zoom_capture::cidr::{Cidr, PrefixSet};
use zoom_capture::pipeline::{PipelineConfig, StageCounters};
use zoom_wire::family::{FamilyId, FamilySelect};

/// A subcommand failure carrying the process exit code alongside the
/// message, so scripts can branch on *why* a run failed without parsing
/// stderr. The mapping (also in `docs/DISTRIBUTED.md`):
///
/// | code | meaning                                                |
/// |------|--------------------------------------------------------|
/// | 1    | generic runtime failure                                |
/// | 2    | usage (bad subcommand, malformed arguments, a flag that needs another) |
/// | 3    | invalid configuration (bad flag value, bad `--source`) |
/// | 4    | parse / wire-protocol error (malformed pcap, fragment) |
/// | 5    | I/O failure (file or socket)                           |
/// | 7    | checkpoint unreadable or mismatched on restore         |
///
/// (6 was a panicked analysis shard thread; there are none any more.)
///
/// [`zoom_analysis::Error`] and [`zoom_analysis::dist::MergeError`] are
/// both `#[non_exhaustive]`; the `From` impls below map their variants
/// and default any future ones to code 1.
#[derive(Debug)]
pub struct CliError {
    /// The process exit code for this failure.
    pub code: u8,
    /// The human-readable message printed to stderr.
    pub message: String,
}

impl CliError {
    /// Code 2: a command line the subcommand cannot read.
    pub fn usage(message: impl Into<String>) -> CliError {
        CliError {
            code: 2,
            message: message.into(),
        }
    }

    /// Code 3: a flag or spec value that parsed but is invalid.
    pub fn config(message: impl Into<String>) -> CliError {
        CliError {
            code: 3,
            message: message.into(),
        }
    }

    /// Code 4: input bytes violating an expected format or protocol.
    pub fn protocol(message: impl Into<String>) -> CliError {
        CliError {
            code: 4,
            message: message.into(),
        }
    }

    /// Code 5: an I/O failure, prefixed with the path or peer.
    pub fn io(message: impl Into<String>) -> CliError {
        CliError {
            code: 5,
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl From<String> for CliError {
    fn from(message: String) -> CliError {
        CliError { code: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> CliError {
        message.to_string().into()
    }
}

impl From<zoom_analysis::Error> for CliError {
    fn from(e: zoom_analysis::Error) -> CliError {
        use zoom_analysis::Error;
        let code = match &e {
            Error::Io { .. } => 5,
            Error::Parse(_) => 4,
            Error::Config(_) => 3,
            _ => 1,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

impl From<zoom_analysis::dist::MergeError> for CliError {
    fn from(e: zoom_analysis::dist::MergeError) -> CliError {
        use zoom_analysis::dist::MergeError;
        let code = match &e {
            MergeError::Io { .. } => 5,
            MergeError::Protocol(_) => 4,
            MergeError::Checkpoint(_) | MergeError::Mismatch(_) => 7,
            _ => 1,
        };
        CliError {
            code,
            message: e.to_string(),
        }
    }
}

impl From<zoom_capture::spec::SpecError> for CliError {
    fn from(e: zoom_capture::spec::SpecError) -> CliError {
        CliError::config(e.to_string())
    }
}

impl From<zoom_capture::source::SourceError> for CliError {
    fn from(e: zoom_capture::source::SourceError) -> CliError {
        use zoom_capture::source::SourceError;
        match e {
            SourceError::Io(err) => CliError::io(err.to_string()),
            other => CliError::protocol(other.to_string()),
        }
    }
}

/// Result alias for subcommands.
pub type CmdResult = Result<(), CliError>;

/// The flags one subcommand accepts; anything else on its command line
/// is a usage error, so a misspelt flag cannot silently select a default.
pub struct FlagSpec {
    /// The subcommand's name, for error messages.
    pub command: &'static str,
    /// Flags that take no value (`--follow`); they appear in the map with
    /// an empty-string value so `flags.contains_key` works.
    pub bools: &'static [&'static str],
    /// Flags that take one value; the last occurrence wins.
    pub values: &'static [&'static str],
    /// Flags that take one value and may appear several times
    /// (`--source a --source b`).
    pub repeats: &'static [&'static str],
}

/// Positional arguments, last-one-wins flag map, and repeated flags in
/// occurrence order — the result shape of [`parse_args`].
pub type ParsedArgs = (Vec<String>, HashMap<String, String>, Vec<(String, String)>);

/// Split arguments into positional values, `--flag value` pairs and the
/// occurrences of repeatable flags, accepting only the flags in `spec`.
pub fn parse_args(args: &[String], spec: &FlagSpec) -> Result<ParsedArgs, CliError> {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut repeated = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(name) = a.strip_prefix("--") else {
            positional.push(a.clone());
            i += 1;
            continue;
        };
        if spec.bools.contains(&name) {
            flags.insert(name.to_string(), String::new());
            i += 1;
            continue;
        }
        if let Some((_, _, why)) = REMOVED_FLAGS
            .iter()
            .find(|(flag, commands, _)| *flag == name && commands.contains(&spec.command))
        {
            return Err(CliError::config(*why));
        }
        let repeats = spec.repeats.contains(&name);
        if !repeats && !spec.values.contains(&name) {
            return Err(CliError::usage(format!(
                "{}: unknown flag --{name}",
                spec.command
            )));
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("flag --{name} needs a value"))?;
        if repeats {
            repeated.push((name.to_string(), value.clone()));
        } else {
            flags.insert(name.to_string(), value.clone());
        }
        i += 2;
    }
    Ok((positional, flags, repeated))
}

/// Flags that were removed, the commands that took them, and why: such a
/// flag is refused with exit 3 and its reason, not as an unknown flag.
const REMOVED_FLAGS: &[(&str, &[&str], &str)] = &[
    (
        "shards",
        &["analyze", "merge"],
        "--shards was removed (one analysis thread does > 1 M pkt/s; measured 1.10× on two \
         cores): to use more cores split the taps by flow, run one 'analyze \
         --emit-fragments' per tap and 'merge' them — docs/DISTRIBUTED.md",
    ),
    (
        "lossy",
        &["analyze", "merge", "capture"],
        "--lossy was removed: every input this tool reads (a pcap, a followed pcap, a sim: \
         tap, a fragment worker) can wait for the analysis, so the capture fan-in never \
         drops a record — docs/CAPTURE.md",
    ),
    (
        "ring-cap",
        &["analyze", "merge", "capture"],
        "--ring-cap was removed: it sized the rings --lossy dropped at, and there are no \
         rings left — every source is read in-line — docs/CAPTURE.md",
    ),
];

/// Refuse the two `--idle-timeout` combinations that cannot work, with
/// exit 2, before any input is read:
///
/// * with `--features`: a feature row needs its stream's whole history,
///   and eviction drops the stream, so every evicted stream's rows would
///   be missing from the CSV;
/// * without `--window`: eviction runs when a window closes, so on its
///   own the timeout would never evict anything.
pub fn check_eviction_flags(flags: &HashMap<String, String>) -> CmdResult {
    if !flags.contains_key("idle-timeout") {
        return Ok(());
    }
    if flags.contains_key("features") {
        return Err(CliError::usage(
            "--features cannot be combined with --idle-timeout: features need each stream's \
             whole history, and eviction drops evicted streams from the export",
        ));
    }
    if !flags.contains_key("window") {
        return Err(CliError::usage(
            "--idle-timeout needs --window: idle streams are evicted when a window closes, \
             so without windows nothing would be evicted",
        ));
    }
    Ok(())
}

/// Parse a human-friendly duration: `10s`, `500ms`, `2m`, or a bare
/// number of seconds (`10`). Fractions are accepted (`1.5s`).
pub fn parse_duration(spec: &str) -> Result<Duration, String> {
    let spec = spec.trim();
    let (num, scale_nanos) = if let Some(v) = spec.strip_suffix("ms") {
        (v, 1_000_000.0)
    } else if let Some(v) = spec.strip_suffix('s') {
        (v, 1e9)
    } else if let Some(v) = spec.strip_suffix('m') {
        (v, 60.0 * 1e9)
    } else {
        (spec, 1e9)
    };
    let value: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration {spec:?} (expected e.g. 10s, 500ms, 2m)"))?;
    if !value.is_finite() || value <= 0.0 {
        return Err(format!("duration {spec:?} must be positive"));
    }
    let nanos = value * scale_nanos;
    if nanos > u64::MAX as f64 {
        return Err(format!("duration {spec:?} is too large"));
    }
    Ok(Duration::from_nanos(nanos as u64))
}

/// The `--trace FILE` / `--trace-sample N` / `--self-profile FILE`
/// flags, shared by `analyze` and `merge`: sampled structured-tracing
/// NDJSON to `FILE`, one batch in every `N` traced (default 16), and an
/// optional flamegraph-style folded-stacks profile of per-stage
/// latencies. Everything is a side channel — reports and window NDJSON
/// on stdout are byte-identical with tracing on or off.
pub struct TraceOutput {
    file: Option<std::io::BufWriter<std::fs::File>>,
    profile_path: Option<String>,
    sample: u64,
}

impl TraceOutput {
    /// Build from parsed flags; `Ok(None)` when no tracing flag is
    /// present. `--trace-sample` without `--trace`/`--self-profile` is a
    /// configuration error.
    pub fn from_flags(flags: &HashMap<String, String>) -> Result<Option<TraceOutput>, CliError> {
        let path = flags.get("trace");
        let profile_path = flags.get("self-profile").cloned();
        let sample = match flags.get("trace-sample") {
            Some(v) => v.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(|| {
                CliError::config(format!(
                    "--trace-sample expects a positive integer, got {v:?}"
                ))
            })?,
            None => 16,
        };
        if path.is_none() && profile_path.is_none() {
            if flags.contains_key("trace-sample") {
                return Err(CliError::config(
                    "--trace-sample needs --trace FILE or --self-profile FILE",
                ));
            }
            return Ok(None);
        }
        let file = path
            .map(|p| {
                std::fs::File::create(p)
                    .map(std::io::BufWriter::new)
                    .map_err(|e| CliError::io(format!("{p}: {e}")))
            })
            .transpose()?;
        Ok(Some(TraceOutput {
            file,
            profile_path,
            sample,
        }))
    }

    /// Switch the collector on under this run's node label.
    pub fn enable(&self, trace: &zoom_analysis::obs::trace::TraceCollector, node: &str) {
        trace.enable(self.sample, node);
    }

    /// Append everything queued for export to the trace file. Called
    /// periodically from ingest loops so long `--follow` runs never hit
    /// the collector's bounded-queue drop path.
    pub fn drain(&mut self, trace: &zoom_analysis::obs::trace::TraceCollector) -> CmdResult {
        let Some(f) = &mut self.file else {
            return Ok(());
        };
        let lines = trace.drain_ndjson();
        if !lines.is_empty() {
            use std::io::Write as _;
            f.write_all(lines.as_bytes())
                .map_err(|e| CliError::io(format!("--trace: {e}")))?;
        }
        Ok(())
    }

    /// Final drain + flush, then the folded-stacks profile when asked
    /// for; reports the recorded/dropped totals on stderr.
    pub fn finish(&mut self, trace: &zoom_analysis::obs::trace::TraceCollector) -> CmdResult {
        self.drain(trace)?;
        if let Some(f) = &mut self.file {
            use std::io::Write as _;
            f.flush()
                .map_err(|e| CliError::io(format!("--trace: {e}")))?;
        }
        if let Some(p) = &self.profile_path {
            std::fs::write(p, trace.folded_stacks())
                .map_err(|e| CliError::io(format!("{p}: {e}")))?;
        }
        let (recorded, dropped) = trace.event_counts();
        eprintln!("trace: {recorded} span event(s) recorded, {dropped} dropped");
        Ok(())
    }
}

/// Write `window` as one NDJSON line, serialized into `line` — a buffer
/// the streaming loops keep across windows, so a line costs no
/// allocation once the buffer has grown to the largest one.
pub fn write_window_line(
    out: &mut impl std::io::Write,
    line: &mut String,
    window: &zoom_analysis::report::WindowReport,
) -> CmdResult {
    line.clear();
    window.write_json(line);
    line.push('\n');
    out.write_all(line.as_bytes()).map_err(|e| e.to_string())?;
    Ok(())
}

/// Parse a `--campus` CIDR flag into the `(addr, len)` form the analyzer
/// uses; defaults to 10.8.0.0/16.
pub fn campus_flag(flags: &HashMap<String, String>) -> Result<(std::net::IpAddr, u8), String> {
    let spec = flags
        .get("campus")
        .map(String::as_str)
        .unwrap_or("10.8.0.0/16");
    zoom_analysis::pipeline::parse_cidr(spec).map_err(|e| e.to_string())
}

/// The capture-filter configuration `filter` and `capture` share, from
/// their common flags: `--campus` (one prefix), `--anonymize KEY`,
/// `--family`; no exclusions, the default 120 s STUN timeout.
pub fn filter_config(flags: &HashMap<String, String>) -> Result<PipelineConfig, CliError> {
    let (campus_ip, campus_len) = campus_flag(flags)?;
    let anonymizer = flags
        .get("anonymize")
        .map(|key| {
            key.parse::<u64>()
                .map(|k| Anonymizer::new(k, Mode::PrefixPreserving))
                .map_err(|_| "--anonymize takes a numeric key".to_string())
        })
        .transpose()?;
    let std::net::IpAddr::V4(campus_v4) = campus_ip else {
        return Err("campus must be IPv4".into());
    };
    let mut campus_nets = PrefixSet::new();
    campus_nets.insert(Cidr::new(campus_v4, campus_len), ());
    let family = flags
        .get("family")
        .map(|v| {
            v.parse::<FamilySelect>()
                .map_err(|e| CliError::config(e.to_string()))
        })
        .transpose()?
        .unwrap_or(FamilySelect::Only(FamilyId::Zoom));
    Ok(PipelineConfig {
        campus_nets,
        excluded_nets: PrefixSet::new(),
        // The sample of Zoom's published list; swap in the full feed in a
        // real deployment.
        zoom_list: zoom_capture::zoom_nets::sample_list(),
        stun_timeout_nanos: 120 * 1_000_000_000,
        anonymizer,
        family,
    })
}

/// The `capture` section of a `--metrics` snapshot, from the filter's
/// stage counters.
pub fn capture_snapshot(c: StageCounters) -> CaptureMetricsSnapshot {
    CaptureMetricsSnapshot {
        total: c.total,
        excluded: c.excluded,
        zoom_ip_matched: c.zoom_ip_matched,
        stun_registered: c.stun_registered,
        p2p_matched: c.p2p_matched,
        rtc_stun_registered: c.rtc_stun_registered,
        rtc_p2p_matched: c.rtc_p2p_matched,
        dropped: c.dropped,
        unparseable: c.unparseable,
        passed: c.passed,
        passed_bytes: c.passed_bytes,
        total_bytes: c.total_bytes,
    }
}

/// Write a `--metrics` snapshot: Prometheus text when `path` ends in
/// `.prom`, one line of JSON otherwise.
pub fn write_snapshot(path: &str, snap: &MetricsSnapshot) -> CmdResult {
    let body = if path.ends_with(".prom") {
        snap.to_prom()
    } else {
        let mut s = snap.to_json();
        s.push('\n');
        s
    };
    std::fs::write(path, body).map_err(|e| CliError::io(format!("{path}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    const SPEC: FlagSpec = FlagSpec {
        command: "test",
        bools: &["follow"],
        values: &["max", "campus"],
        repeats: &["source"],
    };

    #[test]
    fn parses_positional_and_flags() {
        let (pos, flags, _) = parse_args(&s(&["a.pcap", "--max", "5", "b.pcap"]), &SPEC).unwrap();
        assert_eq!(pos, vec!["a.pcap", "b.pcap"]);
        assert_eq!(flags.get("max").unwrap(), "5");
    }

    #[test]
    fn missing_flag_value_errors() {
        assert!(parse_args(&s(&["--max"]), &SPEC).is_err());
    }

    #[test]
    fn bool_flags_take_no_value() {
        let (pos, flags, _) = parse_args(&s(&["--follow", "a.pcap", "--max", "5"]), &SPEC).unwrap();
        assert_eq!(pos, vec!["a.pcap"]);
        assert!(flags.contains_key("follow"));
        assert_eq!(flags.get("max").unwrap(), "5");
    }

    #[test]
    fn repeat_flags_preserve_order() {
        let (pos, flags, repeated) = parse_args(
            &s(&["--source", "pcap:a", "--max", "2", "--source", "sim:p2p"]),
            &SPEC,
        )
        .unwrap();
        assert!(pos.is_empty());
        assert_eq!(flags.get("max").unwrap(), "2");
        assert_eq!(
            repeated,
            vec![
                ("source".to_string(), "pcap:a".to_string()),
                ("source".to_string(), "sim:p2p".to_string()),
            ]
        );
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        for args in [
            &["a.pcap", "--windw", "1s"][..],
            &["--shards", "2"],
            &["--json"],
        ] {
            let e = parse_args(&s(args), &SPEC).unwrap_err();
            assert_eq!(e.code, 2, "{args:?}");
            assert!(
                e.message.starts_with("test: unknown flag --"),
                "{}",
                e.message
            );
        }
    }

    #[test]
    fn removed_shards_flag_names_its_replacement() {
        let analyze = FlagSpec {
            command: "analyze",
            ..SPEC
        };
        let e = parse_args(&s(&["a.pcap", "--shards", "8"]), &analyze).unwrap_err();
        assert_eq!(e.code, 3);
        assert!(e.message.contains("--emit-fragments"), "{}", e.message);
        assert!(parse_args(&s(&["a.pcap", "--follow"]), &analyze).is_ok());
    }

    /// Every subcommand that takes flags rejects one it does not know,
    /// and still accepts one it does.
    #[test]
    fn every_subcommand_rejects_unknown_flags() {
        type Run = fn(&[String]) -> CmdResult;
        let commands: [(&str, Run); 7] = [
            ("analyze", analyze::run),
            ("capture", capture::run),
            ("dissect", dissect::run),
            ("discover", discover::run),
            ("filter", filter::run),
            ("merge", merge::run),
            ("simulate", simulate::run),
        ];
        for (name, run) in commands {
            let e = run(&s(&["x", "--no-such-flag", "1"])).unwrap_err();
            assert_eq!(e.code, 2, "{name}: {}", e.message);
            assert_eq!(e.message, format!("{name}: unknown flag --no-such-flag"));
        }
    }

    #[test]
    fn durations_parse() {
        assert_eq!(parse_duration("10s").unwrap(), Duration::from_secs(10));
        assert_eq!(parse_duration("500ms").unwrap(), Duration::from_millis(500));
        assert_eq!(parse_duration("2m").unwrap(), Duration::from_secs(120));
        assert_eq!(parse_duration("10").unwrap(), Duration::from_secs(10));
        assert_eq!(
            parse_duration("1.5s").unwrap(),
            Duration::from_millis(1_500)
        );
        assert!(parse_duration("0s").is_err());
        assert!(parse_duration("-1s").is_err());
        assert!(parse_duration("junk").is_err());
    }

    #[test]
    fn campus_default_and_custom() {
        let (_, flags, _) = parse_args(&s(&[]), &SPEC).unwrap();
        let (ip, len) = campus_flag(&flags).unwrap();
        assert_eq!(ip.to_string(), "10.8.0.0");
        assert_eq!(len, 16);
        let (_, flags, _) = parse_args(&s(&["--campus", "192.168.0.0/24"]), &SPEC).unwrap();
        let (ip, len) = campus_flag(&flags).unwrap();
        assert_eq!(ip.to_string(), "192.168.0.0");
        assert_eq!(len, 24);
        let (_, flags, _) = parse_args(&s(&["--campus", "junk"]), &SPEC).unwrap();
        assert!(campus_flag(&flags).is_err());
    }
}

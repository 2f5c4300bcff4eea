//! The four workloads: the command lines a pass runs, and the check
//! every pass's output must meet.
//!
//! Each workload is the release `zoom-tools` binary run as a child
//! process on generated files — the operator's real surface, with the
//! CLI's own route selection, file I/O and report printing — and each
//! stresses a different set of layers (see `why`).

use crate::json::Json;
use crate::sys::{self, ChildUsage};
use crate::traces::{Fnv64, Manifest, Needs, BORDER, CAMPUS};
use std::fs::File;
use std::hash::Hasher;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;
use zoom_wire::pcap::{Reader, RecordBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BatchFile,
    StreamWindowed,
    DistMerge,
    BorderFilter,
}

/// What a pass adds to the plain command lines. End-to-end passes are
/// always `Plain`; the other two belong to the traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instrument {
    Plain,
    /// `--metrics metrics.json` on the step that analyzes or filters.
    Metrics,
    /// `--trace <step>.trace.ndjson --trace-sample 16` on every step.
    Trace,
}

pub const METRICS_FILE: &str = "metrics.json";
/// `--window 1s`.
const WINDOW_NANOS: u64 = 1_000_000_000;
pub const TRACE_SAMPLE: u32 = 16;

/// One child process of a pass.
#[derive(Debug, Clone)]
pub struct Step {
    pub label: &'static str,
    pub args: Vec<String>,
}

impl Step {
    pub fn stdout_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.stdout", self.label))
    }

    pub fn trace_path(&self, dir: &Path) -> PathBuf {
        dir.join(format!("{}.trace.ndjson", self.label))
    }
}

/// What one step of a pass cost.
#[derive(Debug, Clone, Copy)]
pub struct StepCost {
    pub wall_nanos: u64,
    pub usage: ChildUsage,
    /// Bytes the step printed on stdout.
    pub stdout_bytes: u64,
}

/// What one pass cost: its steps, run one after the other.
#[derive(Debug, Clone)]
pub struct PassCost {
    pub steps: Vec<StepCost>,
}

impl PassCost {
    pub fn wall_nanos(&self) -> u64 {
        self.steps.iter().map(|s| s.wall_nanos).sum()
    }

    pub fn cpu_nanos(&self) -> u64 {
        self.steps.iter().map(|s| s.usage.cpu_nanos).sum()
    }

    pub fn maxrss_kib(&self) -> u64 {
        self.steps
            .iter()
            .map(|s| s.usage.maxrss_kib)
            .max()
            .unwrap_or(0)
    }

    pub fn success(&self) -> bool {
        self.steps.iter().all(|s| s.usage.success)
    }
}

/// The hidden first argument that turns this binary into [`launcher`].
pub const LAUNCH: &str = "launch-and-wait";

/// Runs one step as a child process and reports what it cost. Stdout
/// goes to the step's file (read back by `check`), stderr to
/// `stderr.log`.
///
/// The child is not spawned from here but from a [`launcher`] — this
/// binary again, freshly started and a megabyte small. Linux seeds a
/// child's `ru_maxrss` with the resident size of the process that forked
/// it, so a child spawned directly would report *this* process's
/// footprint (traces being checked, probe state) whenever that is the
/// larger, and `peak_rss_mib` would measure the benchmark.
pub fn run_step(tools: &Path, dir: &Path, step: &Step) -> Result<StepCost, String> {
    let own = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(own)
        .arg(LAUNCH)
        .arg(step.stdout_path(dir))
        .arg(dir.join("stderr.log"))
        .arg(tools)
        .args(&step.args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("launcher: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let fields: Vec<u64> = text
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    let [wall_nanos, cpu_nanos, maxrss_kib, success] = fields[..] else {
        return Err(format!(
            "launcher for {} {} reported {text:?}",
            tools.display(),
            step.label
        ));
    };
    Ok(StepCost {
        wall_nanos,
        usage: ChildUsage {
            success: out.status.success() && success == 1,
            cpu_nanos,
            maxrss_kib,
        },
        stdout_bytes: std::fs::metadata(step.stdout_path(dir)).map_or(0, |m| m.len()),
    })
}

/// `zoom-benchmark launch-and-wait STDOUT STDERR PROGRAM [ARG…]`: spawns
/// the program, waits for it (and does nothing else meanwhile), and
/// prints `wall_nanos cpu_nanos maxrss_kib success`, timed from spawn to
/// reaped. See [`run_step`] for why this is a process of its own.
pub fn launcher(args: &[String]) -> Result<(), String> {
    let [stdout, stderr, program, program_args @ ..] = args else {
        return Err(format!("{LAUNCH} STDOUT STDERR PROGRAM [ARG…]"));
    };
    let create = |p: &String| File::create(p).map_err(|e| format!("{p}: {e}"));
    let (stdout, stderr) = (create(stdout)?, create(stderr)?);
    let t0 = Instant::now();
    let child = Command::new(program)
        .args(program_args)
        .stdin(Stdio::null())
        .stdout(stdout)
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("{program}: {e}"))?;
    let usage = sys::wait_with_usage(child).map_err(|e| format!("wait4: {e}"))?;
    let wall_nanos = t0.elapsed().as_nanos();
    println!(
        "{wall_nanos} {} {} {}",
        usage.cpu_nanos,
        usage.maxrss_kib,
        u8::from(usage.success)
    );
    Ok(())
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::BatchFile,
        Workload::StreamWindowed,
        Workload::DistMerge,
        Workload::BorderFilter,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchFile => "batch-file",
            Workload::StreamWindowed => "stream-windowed",
            Workload::DistMerge => "dist-merge",
            Workload::BorderFilter => "border-filter",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (`BENCHMARK.json` carries the
    /// same text; a test keeps them equal).
    pub fn why(self) -> &'static str {
        match self {
            Workload::BatchFile => {
                "analyze one pcap inline on one thread: dissection and per-packet state do all the work; the baseline the others are read against"
            }
            Workload::StreamWindowed => {
                "same bytes through capture thread, ring, router, shard channel and 60 one-second window closes with eviction: engine and window cost dominate"
            }
            Workload::DistMerge => {
                "two workers emit ZFRG fragment spools of a by-flow split, then merge: frame encode/decode and the two-lane fan-in dominate; no windows"
            }
            Workload::BorderFilter => {
                "capture filter with anonymization on a border link that is mostly not Zoom: the reject path and the pcap writer work, the analyzer does not"
            }
        }
    }

    /// The trace files the workload's passes and checks read.
    pub fn needs(self) -> Needs {
        Needs {
            campus: self != Workload::BorderFilter,
            taps: self == Workload::DistMerge,
            border: self == Workload::BorderFilter,
        }
    }

    /// Input records one pass offers the program.
    pub fn records(self, manifest: &Manifest) -> u64 {
        match self {
            Workload::BorderFilter => manifest.file(BORDER).records,
            _ => manifest.file(CAMPUS).records,
        }
    }

    /// The pass's command lines, in order. `@` stands for the data
    /// directory (substituted per argument, so it may hold spaces).
    pub fn steps(self, dir: &Path, instrument: Instrument) -> Vec<Step> {
        let lines: &[(&'static str, &str)] = match self {
            Workload::BatchFile => &[("analyze", "analyze @/campus.pcap --json")],
            Workload::StreamWindowed => &[(
                "analyze",
                "analyze @/campus.pcap --window 1s --idle-timeout 10s --json",
            )],
            Workload::DistMerge => &[
                ("worker0", "analyze --source pcap:@/tap0.pcap --emit-fragments @/w0.zfrg --worker-label w0"),
                ("worker1", "analyze --source pcap:@/tap1.pcap --emit-fragments @/w1.zfrg --worker-label w1"),
                ("merge", "merge @/w0.zfrg @/w1.zfrg --json"),
            ],
            Workload::BorderFilter => &[(
                "capture",
                "capture --source pcap:@/border.pcap @/filtered.pcap --anonymize 12345",
            )],
        };
        let dir_text = dir.to_string_lossy();
        let mut steps: Vec<Step> = lines
            .iter()
            .map(|&(label, line)| Step {
                label,
                args: line.split(' ').map(|a| a.replace('@', &dir_text)).collect(),
            })
            .collect();
        match instrument {
            Instrument::Plain => {}
            Instrument::Metrics => {
                let last = steps.last_mut().expect("every workload has a step");
                last.args.push("--metrics".to_string());
                last.args
                    .push(dir.join(METRICS_FILE).to_string_lossy().into_owned());
            }
            Instrument::Trace => {
                for step in &mut steps {
                    let trace = step.trace_path(dir).to_string_lossy().into_owned();
                    step.args.extend(["--trace".to_string(), trace]);
                    step.args
                        .extend(["--trace-sample".to_string(), TRACE_SAMPLE.to_string()]);
                }
            }
        }
        steps
    }

    /// Files a pass leaves behind besides its steps' stdout.
    fn products(self) -> &'static [&'static str] {
        match self {
            Workload::DistMerge => &["w0.zfrg", "w1.zfrg"],
            Workload::BorderFilter => &["filtered.pcap"],
            _ => &[],
        }
    }

    /// Runs one pass: each step as a child process, one at a time. The
    /// driver thread does nothing else meanwhile.
    pub fn run_pass(
        self,
        tools: &Path,
        dir: &Path,
        instrument: Instrument,
    ) -> Result<PassCost, String> {
        let mut costs = Vec::new();
        for step in self.steps(dir, instrument) {
            let cost = run_step(tools, dir, &step)?;
            costs.push(cost);
            if !cost.usage.success {
                // Later steps would only fail on the missing input.
                break;
            }
        }
        Ok(PassCost { steps: costs })
    }

    /// Deletes what a pass wrote, so passes do not pile up on disk and
    /// none can pass its check on a previous pass's output.
    pub fn clean(self, dir: &Path) {
        let stdouts = self
            .steps(dir, Instrument::Plain)
            .into_iter()
            .map(|s| s.stdout_path(dir));
        let products = self.products().iter().map(|p| dir.join(p));
        for path in stdouts.chain(products) {
            let _ = std::fs::remove_file(path);
        }
    }

    /// Checks the output of the pass that just ran. `reference` is the
    /// stdout of a `batch-file` pass over the same `campus.pcap`.
    pub fn check(
        self,
        dir: &Path,
        manifest: &Manifest,
        reference: Option<&Reference>,
    ) -> Result<(), String> {
        let stdout_of = |label: &str| -> Result<Vec<u8>, String> {
            let step = self
                .steps(dir, Instrument::Plain)
                .into_iter()
                .find(|s| s.label == label)
                .expect("label of this workload");
            std::fs::read(step.stdout_path(dir)).map_err(|e| format!("{label} stdout: {e}"))
        };
        let reference = || reference.ok_or("no batch-file reference for this check".to_string());
        match self {
            Workload::BatchFile => {
                let out = stdout_of("analyze")?;
                let summary = report_summary(&out)?;
                let total = summary.get("total_packets").and_then(Json::as_u64);
                if total != Some(self.records(manifest)) {
                    return Err(format!(
                        "summary.total_packets is {total:?}, {} records were offered",
                        self.records(manifest)
                    ));
                }
                // Absent on the pass that produces the reference itself.
                if let Ok(r) = reference() {
                    if r.digest != digest(&out) {
                        return Err("report differs from the warm-up pass's".to_string());
                    }
                }
                Ok(())
            }
            Workload::StreamWindowed => {
                let out = stdout_of("analyze")?;
                // Windows are aligned to whole seconds; the last, partial
                // one is printed at drain.
                let campus = manifest.file(CAMPUS);
                let windows = campus.last_ts / WINDOW_NANOS - campus.first_ts / WINDOW_NANOS + 1;
                check_window_stream(&out, windows, &reference()?.summary)
            }
            Workload::DistMerge => {
                if reference()?.digest != digest(&stdout_of("merge")?) {
                    return Err("merged report is not byte-identical to batch-file's".to_string());
                }
                Ok(())
            }
            Workload::BorderFilter => {
                let want = manifest.file(BORDER).zoom_records;
                let got = count_records(&dir.join("filtered.pcap"))?;
                if got != want {
                    return Err(format!(
                        "filter wrote {got} records, the trace holds {want} Zoom records"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// A `batch-file` report over the run's `campus.pcap`, which the other
/// campus workloads' outputs are checked against.
#[derive(Debug, Clone)]
pub struct Reference {
    digest: u64,
    summary: Json,
}

impl Reference {
    /// Reads the stdout a `batch-file` pass just left in `dir`.
    pub fn take(dir: &Path) -> Result<Reference, String> {
        let step = &Workload::BatchFile.steps(dir, Instrument::Plain)[0];
        let out =
            std::fs::read(step.stdout_path(dir)).map_err(|e| format!("reference report: {e}"))?;
        Ok(Reference {
            digest: digest(&out),
            summary: report_summary(&out)?,
        })
    }
}

fn digest(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::default();
    h.write(bytes);
    h.write_usize(bytes.len());
    h.finish()
}

/// The `summary` object of a `{"type":"final",...}` report.
fn report_summary(report: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(report).map_err(|e| format!("report is not UTF-8: {e}"))?;
    let v = Json::parse(text).map_err(|e| format!("report is not JSON: {e}"))?;
    if v.get("type").and_then(Json::as_str) != Some("final") {
        return Err("report is not of type \"final\"".to_string());
    }
    v.get("summary")
        .cloned()
        .ok_or("report has no summary".to_string())
}

/// NDJSON from `analyze --window 1s`: `expected` `window` lines with
/// consecutive indices from 0, then one `final` whose summary is the
/// batch report's.
fn check_window_stream(out: &[u8], expected: u64, batch_summary: &Json) -> Result<(), String> {
    let text = std::str::from_utf8(out).map_err(|e| format!("window stream is not UTF-8: {e}"))?;
    let mut lines = text.lines().peekable();
    let mut windows = 0u64;
    while let Some(line) = lines.next() {
        let v = Json::parse(line).map_err(|e| format!("line {}: {e}", windows + 1))?;
        match v.get("type").and_then(Json::as_str) {
            Some("window") => {
                if v.get("index").and_then(Json::as_u64) != Some(windows) {
                    return Err(format!(
                        "window {windows} carries index {:?}",
                        v.get("index")
                    ));
                }
                windows += 1;
            }
            Some("final") => {
                if lines.peek().is_some() {
                    return Err("lines follow the final report".to_string());
                }
                if windows != expected {
                    return Err(format!("{windows} windows, the trace spans {expected}"));
                }
                if v.get("summary") != Some(batch_summary) {
                    return Err("final summary differs from batch-file's".to_string());
                }
                return Ok(());
            }
            other => return Err(format!("unexpected line type {other:?}")),
        }
    }
    Err("no final report".to_string())
}

fn count_records(pcap: &Path) -> Result<u64, String> {
    let err = |e: std::io::Error| format!("{}: {e}", pcap.display());
    let mut reader = Reader::new(BufReader::new(File::open(pcap).map_err(err)?)).map_err(err)?;
    let mut buf = RecordBuf::new();
    while reader.read_into(&mut buf).map_err(err)? {}
    if reader.truncated_records() > 0 {
        return Err(format!("{}: torn tail", pcap.display()));
    }
    Ok(reader.records_read())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }

    #[test]
    fn end_to_end_passes_carry_no_instrumentation() {
        let dir = Path::new("/data");
        for w in Workload::ALL {
            for step in w.steps(dir, Instrument::Plain) {
                for flag in ["--metrics", "--trace", "--self-profile", "--serve"] {
                    assert!(
                        !step.args.iter().any(|a| a == flag),
                        "{} has {flag}",
                        w.name()
                    );
                }
            }
        }
        let traced = Workload::DistMerge.steps(dir, Instrument::Trace);
        assert!(traced.iter().all(|s| s.args.iter().any(|a| a == "--trace")));
        let metered = Workload::DistMerge.steps(dir, Instrument::Metrics);
        assert_eq!(
            metered
                .iter()
                .filter(|s| s.args.iter().any(|a| a == "--metrics"))
                .count(),
            1
        );
    }

    #[test]
    fn command_lines_name_the_files_the_builder_writes() {
        use crate::traces::{BORDER, CAMPUS, TAPS};
        let dir = Path::new("/da ta");
        let args = |w: Workload| -> Vec<String> {
            w.steps(dir, Instrument::Plain)
                .into_iter()
                .flat_map(|s| s.args)
                .collect()
        };
        assert!(args(Workload::BatchFile).contains(&format!("/da ta/{CAMPUS}")));
        assert!(args(Workload::StreamWindowed).contains(&format!("/da ta/{CAMPUS}")));
        for tap in TAPS {
            assert!(args(Workload::DistMerge).contains(&format!("pcap:/da ta/{tap}")));
        }
        assert!(args(Workload::BorderFilter).contains(&format!("pcap:/da ta/{BORDER}")));
        for product in Workload::DistMerge
            .products()
            .iter()
            .chain(Workload::BorderFilter.products())
        {
            let all = [args(Workload::DistMerge), args(Workload::BorderFilter)].concat();
            assert!(
                all.contains(&format!("/da ta/{product}")),
                "{product} is cleaned but never written"
            );
        }
    }

    #[test]
    fn window_stream_check() {
        let summary = Json::parse(r#"{"total_packets":5}"#).unwrap();
        let mut ok = String::new();
        for i in 0..60 {
            ok.push_str(&format!("{{\"type\":\"window\",\"index\":{i}}}\n"));
        }
        let fin = "{\"type\":\"final\",\"summary\":{\"total_packets\":5}}\n";
        assert_eq!(
            check_window_stream(format!("{ok}{fin}").as_bytes(), 60, &summary),
            Ok(())
        );
        assert!(check_window_stream(format!("{ok}{fin}").as_bytes(), 61, &summary).is_err());
        // A skipped index, a short stream, a wrong summary, a missing final.
        let skipped = ok.replacen("\"index\":3}", "\"index\":4}", 1);
        assert!(check_window_stream(format!("{skipped}{fin}").as_bytes(), 60, &summary).is_err());
        let short: String = ok.lines().take(10).map(|l| format!("{l}\n")).collect();
        assert!(check_window_stream(format!("{short}{fin}").as_bytes(), 60, &summary).is_err());
        let other = Json::parse(r#"{"total_packets":6}"#).unwrap();
        assert!(check_window_stream(format!("{ok}{fin}").as_bytes(), 60, &other).is_err());
        assert!(check_window_stream(ok.as_bytes(), 60, &summary).is_err());
    }
}

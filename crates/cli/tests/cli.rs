//! End-to-end tests of the `zoom-tools` binary: simulate → filter →
//! analyze → dissect → discover over real files.

use std::path::PathBuf;
use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_zoom-tools")
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("zoom_tools_test_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

fn run(args: &[&str]) -> (String, String, bool) {
    let (out, err, code) = run_code(args);
    (out, err, code == Some(0))
}

fn run_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(bin()).args(args).output().expect("spawn");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code(),
    )
}

/// The `"key":{...}` object of a one-line `--metrics` JSON file.
fn json_section(path: &std::path::Path, key: &str) -> String {
    let json = std::fs::read_to_string(path).unwrap();
    let start = json
        .find(&format!("\"{key}\":{{"))
        .unwrap_or_else(|| panic!("no {key} section in {json}"));
    let end = start + json[start..].find('}').expect("section closes");
    json[start..=end].to_string()
}

#[test]
fn full_cli_round_trip() {
    let raw = tmp("raw.pcap");
    let filtered = tmp("filtered.pcap");
    let features = tmp("features.csv");

    // simulate
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "20",
        "--seed",
        "3",
        "--scenario",
        "validation",
    ]);
    assert!(ok, "simulate failed: {err}");
    assert!(err.contains("wrote"), "stderr: {err}");

    // filter (with anonymization)
    let (_, err, ok) = run(&[
        "filter",
        raw.to_str().unwrap(),
        filtered.to_str().unwrap(),
        "--anonymize",
        "424242",
    ]);
    assert!(ok, "filter failed: {err}");
    assert!(err.contains("filtered"), "stderr: {err}");

    // analyze with feature export; campus must be the anonymized prefix,
    // but summary-level numbers work regardless.
    let (out, err, ok) = run(&[
        "analyze",
        filtered.to_str().unwrap(),
        "--features",
        features.to_str().unwrap(),
    ]);
    assert!(ok, "analyze failed: {err}");
    assert!(out.contains("=== trace summary ==="), "{out}");
    assert!(out.contains("rtp streams:"), "{out}");
    let csv = std::fs::read_to_string(&features).unwrap();
    assert!(csv.starts_with("ssrc,second,"), "{csv}");
    assert!(csv.lines().count() > 10);

    // dissect
    let (out, _, ok) = run(&["dissect", filtered.to_str().unwrap(), "--max", "3"]);
    assert!(ok);
    assert!(out.contains("Zoom SFU Encapsulation") || out.contains("Zoom Media Encapsulation"));

    // discover
    let (out, _, ok) = run(&["discover", raw.to_str().unwrap()]);
    assert!(ok);
    assert!(out.contains("RTP header at offset"), "{out}");
}

/// `filter IN OUT` is `capture OUT --source pcap:IN` under another name:
/// the same loop over the same in-line lane, so the same output bytes and
/// the same accounting.
#[test]
fn filter_and_single_source_capture_write_the_same_file() {
    let raw = tmp("same_raw.pcap");
    let by_filter = tmp("same_filter.pcap");
    let by_capture = tmp("same_capture.pcap");
    let filter_metrics = tmp("same_filter.json");
    let capture_metrics = tmp("same_capture.json");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "30",
        "--seed",
        "9",
        "--scenario",
        "p2p",
    ]);
    assert!(ok, "simulate failed: {err}");
    let (_, err, ok) = run(&[
        "filter",
        raw.to_str().unwrap(),
        by_filter.to_str().unwrap(),
        "--anonymize",
        "7",
        "--metrics",
        filter_metrics.to_str().unwrap(),
    ]);
    assert!(ok, "filter failed: {err}");
    assert!(err.starts_with("filtered "), "stderr: {err}");
    let source = format!("pcap:{}", raw.to_str().unwrap());
    let (_, err, ok) = run(&[
        "capture",
        by_capture.to_str().unwrap(),
        "--source",
        &source,
        "--anonymize",
        "7",
        "--metrics",
        capture_metrics.to_str().unwrap(),
    ]);
    assert!(ok, "capture failed: {err}");
    let a = std::fs::read(&by_filter).unwrap();
    let b = std::fs::read(&by_capture).unwrap();
    assert!(a.len() > 100_000, "filter wrote only {} bytes", a.len());
    assert!(a == b, "filter and capture outputs differ");

    let section = json_section(&filter_metrics, "capture");
    assert!(section.contains("\"passed\":"), "{section}");
    assert_eq!(section, json_section(&capture_metrics, "capture"));
    for path in [&filter_metrics, &capture_metrics] {
        let json = std::fs::read_to_string(path).unwrap();
        assert!(json.contains("\"conservation_holds\":true"), "{json}");
        assert!(json.contains("\"lane\":\"inline\""), "{json}");
    }
}

/// A torn final record is one `truncated` record, a warning and exit 0 —
/// whichever command reads the file, on whichever kind of lane.
#[test]
fn a_torn_tail_reads_the_same_through_filter_and_both_capture_lanes() {
    let raw = tmp("torn_raw.pcap");
    let torn = tmp("torn.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "10",
        "--seed",
        "4",
        "--scenario",
        "p2p",
    ]);
    assert!(ok, "simulate failed: {err}");
    let bytes = std::fs::read(&raw).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 37]).unwrap();
    // Two followed files are two live sources, which get a capture thread
    // each; the second holds a pcap header and no records.
    let empty = tmp("torn_empty.pcap");
    std::fs::write(&empty, &bytes[..24]).unwrap();

    let source = format!("pcap:{}", torn.to_str().unwrap());
    let quiet = format!("pcap:{}", empty.to_str().unwrap());
    let (torn, source, quiet) = (torn.to_str().unwrap(), source.as_str(), quiet.as_str());
    let runs: [(&str, Vec<&str>, &str); 3] = [
        ("filter", vec!["filter", torn], "inline"),
        ("capture", vec!["capture", "--source", source], "inline"),
        (
            "follow",
            vec![
                "capture",
                "--source",
                source,
                "--source",
                quiet,
                "--follow",
                "--idle-exit",
                "1s",
            ],
            "threaded",
        ),
    ];
    let mut outputs = Vec::new();
    for (name, mut args, lane) in runs {
        let out = tmp(&format!("torn_{name}.pcap"));
        let metrics = tmp(&format!("torn_{name}.json"));
        // `filter IN OUT`, `capture OUT --source …`: the output is the
        // second positional either way.
        args.insert(if name == "filter" { 2 } else { 1 }, out.to_str().unwrap());
        args.extend(["--metrics", metrics.to_str().unwrap()]);
        let (_, err, code) = run_code(&args);
        assert_eq!(code, Some(0), "{name}: {err}");
        assert!(
            err.contains("warning: 1 truncated record(s) at source tails ignored"),
            "{name}: {err}"
        );
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("\"truncated_records\":1"), "{name}: {json}");
        assert!(
            json.contains("\"conservation_holds\":true"),
            "{name}: {json}"
        );
        assert!(
            json.contains(&format!("\"lane\":\"{lane}\"")),
            "{name}: {json}"
        );
        outputs.push(std::fs::read(&out).unwrap());
    }
    assert!(outputs[0].len() > 10_000);
    assert!(outputs[0] == outputs[1] && outputs[1] == outputs[2]);
}

/// `campus-10x` draws its meetings per whole minute; a shorter trace
/// would be empty, so it is refused, not written.
#[test]
fn simulate_refuses_a_campus_trace_under_a_minute() {
    let out = tmp("campus_short.pcap");
    let (_, err, code) = run_code(&[
        "simulate",
        out.to_str().unwrap(),
        "--scenario",
        "campus-10x",
        "--seconds",
        "30",
    ]);
    assert_eq!(code, Some(3), "{err}");
    assert!(err.contains("needs at least 60 seconds"), "{err}");
    assert!(!out.exists(), "an output was left behind");
}

#[test]
fn streaming_analyze_emits_windows_then_final() {
    let raw = tmp("stream_raw.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "25",
        "--seed",
        "11",
        "--scenario",
        "multi",
    ]);
    assert!(ok, "simulate failed: {err}");

    let (out, err, ok) = run(&["analyze", raw.to_str().unwrap(), "--window", "5s"]);
    assert!(ok, "analyze failed: {err}");
    let lines: Vec<&str> = out.lines().collect();
    let windows = lines
        .iter()
        .filter(|l| l.starts_with("{\"type\":\"window\""))
        .count();
    assert!(windows >= 3, "expected >=3 window lines, got {windows}: {out}");
    let last = lines.last().expect("non-empty output");
    assert!(
        last.starts_with("{\"type\":\"final\""),
        "last line should be the final report: {last}"
    );
    // Every line is one JSON object (NDJSON): starts and ends as one.
    for l in &lines {
        assert!(l.starts_with('{') && l.ends_with('}'), "{l}");
    }

    // The churn scenario with eviction enabled still exits cleanly and
    // reports windowed evictions.
    let churn = tmp("churn_raw.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        churn.to_str().unwrap(),
        "--seconds",
        "40",
        "--seed",
        "5",
        "--scenario",
        "churn",
    ]);
    assert!(ok, "simulate churn failed: {err}");
    let (out, err, ok) = run(&[
        "analyze",
        churn.to_str().unwrap(),
        "--window",
        "5s",
        "--idle-timeout",
        "5s",
    ]);
    assert!(ok, "churn analyze failed: {err}");
    assert!(out.contains("\"evicted\":true"), "no eviction observed: {out}");
    assert!(err.contains("peak tracked entries"), "stderr: {err}");
}

#[test]
fn bad_usage_fails_cleanly() {
    let (_, _, ok) = run(&[]);
    assert!(!ok);
    let (_, err, ok) = run(&["analyze", "/nonexistent/file.pcap"]);
    assert!(!ok);
    assert!(err.contains("error:"));
    let (_, _, ok) = run(&["frobnicate"]);
    assert!(!ok);
    let (_, err, ok) = run(&["simulate", "/tmp/x.pcap", "--scenario", "bogus"]);
    assert!(!ok);
    assert!(err.contains("unknown scenario"));
    let (_, err, ok) = run(&["analyze", "/tmp/x.pcap", "--windw", "1s"]);
    assert!(!ok);
    assert!(
        err.contains("error: analyze: unknown flag --windw"),
        "{err}"
    );
    let (_, err, ok) = run(&["analyze", "/tmp/x.pcap", "--shards", "8"]);
    assert!(!ok);
    assert!(err.contains("--shards was removed"), "{err}");
}

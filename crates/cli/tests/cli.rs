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
    let out = Command::new(bin()).args(args).output().expect("spawn");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
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

/// `filter` (inline reader) and `capture --source pcap:` (capture thread,
/// ring, fan-in) run the same filter set-up over the same records, so
/// their output files are byte-identical.
#[test]
fn filter_and_single_source_capture_write_the_same_file() {
    let raw = tmp("same_raw.pcap");
    let by_filter = tmp("same_filter.pcap");
    let by_capture = tmp("same_capture.pcap");
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
    ]);
    assert!(ok, "filter failed: {err}");
    let source = format!("pcap:{}", raw.to_str().unwrap());
    let (_, err, ok) = run(&[
        "capture",
        by_capture.to_str().unwrap(),
        "--source",
        &source,
        "--anonymize",
        "7",
    ]);
    assert!(ok, "capture failed: {err}");
    let a = std::fs::read(&by_filter).unwrap();
    let b = std::fs::read(&by_capture).unwrap();
    assert!(a.len() > 100_000, "filter wrote only {} bytes", a.len());
    assert!(a == b, "filter and capture outputs differ");
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

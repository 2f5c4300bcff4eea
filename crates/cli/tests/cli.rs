//! End-to-end tests of the `zoom-tools` binary: simulate → capture →
//! analyze → dissect → discover over real files.

use std::path::PathBuf;
use std::process::Command;
use zoom_wire::frame::FrameReader;
use zoom_wire::handoff::RecordBatch;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_zoom-tools")
}

/// One test's scratch directory, removed with everything in it when the
/// guard drops — as the test ends, passed or failed.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("zoom_tools_test_{}_{test}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
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
    let scratch = Scratch::new("full_cli_round_trip");
    let raw = scratch.path("raw.pcap");
    let filtered = scratch.path("filtered.pcap");
    let features = scratch.path("features.csv");

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

    // capture through the filter, with anonymization
    let source = format!("pcap:{}", raw.to_str().unwrap());
    let (_, err, ok) = run(&[
        "capture",
        filtered.to_str().unwrap(),
        "--source",
        &source,
        "--anonymize",
        "424242",
    ]);
    assert!(ok, "capture failed: {err}");
    assert!(err.contains("\nfiltered "), "stderr: {err}");

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

/// A torn final record is one `truncated` record, a warning and exit 0
/// through the capture filter, the file followed or not: the same output
/// bytes and the same `capture` section of `--metrics` either way.
#[test]
fn a_torn_tail_reads_the_same_through_filter_and_both_capture_lanes() {
    let scratch = Scratch::new("a_torn_tail_reads_the_same_through_filter_and_both_capture_lanes");
    let raw = scratch.path("torn_raw.pcap");
    let torn = scratch.path("torn.pcap");
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
    // Under --follow, beside a second followed file that holds a pcap
    // header and no records.
    let empty = scratch.path("torn_empty.pcap");
    std::fs::write(&empty, &bytes[..24]).unwrap();

    let source = format!("pcap:{}", torn.to_str().unwrap());
    let quiet = format!("pcap:{}", empty.to_str().unwrap());
    let (source, quiet) = (source.as_str(), quiet.as_str());
    let runs: [(&str, Vec<&str>); 2] = [
        ("capture", vec!["capture", "--source", source]),
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
        ),
    ];
    let mut outputs = Vec::new();
    let mut sections = Vec::new();
    for (name, mut args) in runs {
        let out = scratch.path(&format!("torn_{name}.pcap"));
        let metrics = scratch.path(&format!("torn_{name}.json"));
        args.insert(1, out.to_str().unwrap());
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
            json.contains("\"sources\":[{\"source\":\"pcap:"),
            "{name}: {json}"
        );
        outputs.push(std::fs::read(&out).unwrap());
        sections.push(json_section(&metrics, "capture"));
    }
    assert!(outputs[0].len() > 10_000);
    assert!(outputs[0] == outputs[1]);
    assert!(sections[0].contains("\"passed\":"), "{}", sections[0]);
    assert_eq!(sections[0], sections[1]);
}

/// `json` with the value of each of `keys` — a number or a `{…}` object —
/// cut out, comma included.
fn without_keys(json: &str, keys: &[&str]) -> String {
    let mut json = json.to_string();
    for key in keys {
        let name = format!("\"{key}\":");
        let start = json
            .find(&name)
            .unwrap_or_else(|| panic!("no {key} in {json}"));
        let value = start + name.len();
        let mut depth = 0;
        let mut end = value;
        for (i, c) in json[value..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' if depth > 0 => depth -= 1,
                ',' | '}' if depth == 0 => {
                    end = value + i;
                    break;
                }
                _ => {}
            }
        }
        let end = if json[end..].starts_with(',') {
            end + 1
        } else {
            end
        };
        json.replace_range(start..end, "");
    }
    json
}

/// `analyze FILE` is `analyze --source pcap:FILE`: one route, so the same
/// report bytes, the same stderr and the same `--metrics` snapshot — all
/// but the run's `uptime_seconds` and its timing histograms — on a clean
/// file and on one with a torn last record. Both register their file as
/// a source and check both halves of the conservation invariant.
#[test]
fn a_positional_file_and_a_pcap_source_take_one_route() {
    let scratch = Scratch::new("a_positional_file_and_a_pcap_source_take_one_route");
    let clean = scratch.path("route_clean.pcap");
    let torn = scratch.path("route_torn.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        clean.to_str().unwrap(),
        "--seconds",
        "10",
        "--seed",
        "6",
        "--scenario",
        "multi",
    ]);
    assert!(ok, "simulate failed: {err}");
    let bytes = std::fs::read(&clean).unwrap();
    std::fs::write(&torn, &bytes[..bytes.len() - 37]).unwrap();

    for (name, file) in [("clean", &clean), ("torn", &torn)] {
        let file = file.to_str().unwrap();
        let source = format!("pcap:{file}");
        let by_path = scratch.path(&format!("route_{name}_path.json"));
        let by_source = scratch.path(&format!("route_{name}_source.json"));
        let (out_a, err_a, code_a) = run_code(&[
            "analyze",
            file,
            "--json",
            "--metrics",
            by_path.to_str().unwrap(),
        ]);
        let (out_b, err_b, code_b) = run_code(&[
            "analyze",
            "--source",
            &source,
            "--json",
            "--metrics",
            by_source.to_str().unwrap(),
        ]);
        assert_eq!(
            (code_a, code_b),
            (Some(0), Some(0)),
            "{name}: {err_a} / {err_b}"
        );
        assert!(out_a.len() > 1_000, "{name}: {out_a}");
        assert!(out_a == out_b, "{name}: reports differ");
        assert_eq!(err_a, err_b, "{name}");
        let timing = ["uptime_seconds", "stage_latency"];
        let metrics = without_keys(&std::fs::read_to_string(&by_path).unwrap(), &timing);
        assert_eq!(
            metrics,
            without_keys(&std::fs::read_to_string(&by_source).unwrap(), &timing),
            "{name}"
        );
        assert!(
            metrics.contains("\"sources\":[{\"source\":\"pcap:"),
            "{name}: {metrics}"
        );
        assert!(
            metrics.contains("\"conservation_holds\":true"),
            "{name}: {metrics}"
        );
        let cut = usize::from(name == "torn");
        assert!(
            metrics.contains(&format!("\"truncated_records\":{cut}")),
            "{name}: {metrics}"
        );
        assert_eq!(
            err_a.contains("warning: 1 truncated record(s) at source tails ignored"),
            name == "torn",
            "{name}: {err_a}"
        );
    }
}

/// An input that cannot be opened exits 5 and one that is not a capture
/// file exits 4, whichever command reads it — the table in
/// `docs/DISTRIBUTED.md`. Both messages name the file.
#[test]
fn unreadable_inputs_exit_alike_on_every_route() {
    let scratch = Scratch::new("unreadable_inputs_exit_alike_on_every_route");
    let missing = scratch.path("exit_missing.pcap");
    let _ = std::fs::remove_file(&missing);
    let garbage = scratch.path("exit_garbage.pcap");
    std::fs::write(&garbage, [0x42u8; 64]).unwrap();
    let out = scratch.path("exit_out.pcap");
    let out = out.to_str().unwrap();
    for (input, code) in [(&missing, 5), (&garbage, 4)] {
        let input = input.to_str().unwrap();
        let source = format!("pcap:{input}");
        let commands: [&[&str]; 7] = [
            &["analyze", input],
            &["analyze", "--source", &source],
            &["capture", "--source", &source, out],
            &["capture", out, "--source", &source, "--no-filter"],
            &["merge", input],
            &["dissect", input],
            &["discover", input],
        ];
        for args in commands {
            let (_, err, got) = run_code(args);
            assert_eq!(got, Some(code), "{args:?}: {err}");
            assert!(err.contains(input), "{args:?}: {err}");
        }
    }
}

/// FNV-1a over `bytes`: a pinned output's digest.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `discover` ranks flows and lists SSRCs in an order of the trace's
/// making, not of hash-table layout: two runs print the same bytes, and
/// they are the bytes pinned here (FNV-1a digest and length).
#[test]
fn discover_prints_the_same_bytes_every_run() {
    let scratch = Scratch::new("discover_prints_the_same_bytes_every_run");
    let raw = scratch.path("discover_multi.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "20",
        "--seed",
        "7",
        "--scenario",
        "multi",
    ]);
    assert!(ok, "simulate failed: {err}");
    let (first, err, ok) = run(&["discover", raw.to_str().unwrap()]);
    assert!(ok, "discover failed: {err}");
    assert!(first.contains("SSRCs: ["), "{first}");
    let (second, err, ok) = run(&["discover", raw.to_str().unwrap()]);
    assert!(ok, "discover failed: {err}");
    assert!(first == second, "two runs of discover differ");
    assert_eq!(
        (fnv1a(first.as_bytes()), first.len()),
        (0x23dd_f3d1_4d8f_fcb4, 26_242),
        "discover's stdout moved"
    );
}

/// Every trace is a function of its scenario and seed: uninitialised
/// buffers, a clock or hash-map iteration order anywhere in the simulator
/// would show here as two different files.
#[test]
fn simulated_traces_are_reproducible() {
    let scratch = Scratch::new("simulated_traces_are_reproducible");
    for scenario in ["multi", "webrtc"] {
        let runs: Vec<Vec<u8>> = (0..2)
            .map(|i| {
                let out = scratch.path(&format!("{scenario}_{i}.pcap"));
                let (_, err, ok) = run(&[
                    "simulate",
                    out.to_str().unwrap(),
                    "--seconds",
                    "20",
                    "--seed",
                    "7",
                    "--scenario",
                    scenario,
                ]);
                assert!(ok, "simulate {scenario} failed: {err}");
                std::fs::read(&out).expect("the trace was written")
            })
            .collect();
        assert!(
            runs[0] == runs[1],
            "{scenario}: two runs wrote different bytes"
        );
    }
}

/// `campus-10x` draws its meetings per whole minute; a shorter trace
/// would be empty, so it is refused, not written.
#[test]
fn simulate_refuses_a_campus_trace_under_a_minute() {
    let scratch = Scratch::new("simulate_refuses_a_campus_trace_under_a_minute");
    let out = scratch.path("campus_short.pcap");
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

/// The text report lists each meeting's servers sorted, as the JSON
/// report does, so two runs of the same trace print the same bytes.
#[test]
fn text_analyze_prints_the_same_bytes_every_run() {
    let scratch = Scratch::new("text_analyze_prints_the_same_bytes_every_run");
    // Thirty seconds of the P2P scenario: the meeting moves from the SFU
    // to a peer, so it has two servers.
    let raw = scratch.path("text_raw.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "30",
        "--seed",
        "7",
        "--scenario",
        "p2p",
    ]);
    assert!(ok, "simulate failed: {err}");
    let (first, err, ok) = run(&["analyze", raw.to_str().unwrap()]);
    assert!(ok, "analyze failed: {err}");
    let servers: Vec<&str> = first
        .lines()
        .filter_map(|l| {
            l.split_once("servers {")
                .map(|(_, rest)| rest.trim_end_matches('}'))
        })
        .collect();
    assert!(
        servers.iter().any(|list| list.contains(", ")),
        "no meeting with two servers to order: {first}"
    );
    for list in &servers {
        let addrs: Vec<&str> = list.split(", ").collect();
        assert!(addrs.windows(2).all(|w| w[0] < w[1]), "unsorted: {list}");
    }
    for _ in 0..3 {
        let (again, _, ok) = run(&["analyze", raw.to_str().unwrap()]);
        assert!(ok);
        assert_eq!(again, first);
    }
}

#[test]
fn streaming_analyze_emits_windows_then_final() {
    let scratch = Scratch::new("streaming_analyze_emits_windows_then_final");
    let raw = scratch.path("stream_raw.pcap");
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
    assert!(
        windows >= 3,
        "expected >=3 window lines, got {windows}: {out}"
    );
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
    let churn = scratch.path("churn_raw.pcap");
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
    assert!(
        out.contains("\"evicted\":true"),
        "no eviction observed: {out}"
    );
    assert!(err.contains("peak tracked entries"), "stderr: {err}");
}

/// The `"summary":{...}` object of a report line.
fn summary_of(line: &str) -> &str {
    let start = line.find("\"summary\":{").expect("a summary");
    let end = start + line[start..].find('}').expect("the summary closes");
    &line[start..=end]
}

/// Batch mode and the windowed engine share one per-record loop: the
/// final line of a windowed run carries the batch report's summary,
/// field for field — with nothing evicted, and on a churning trace whose
/// evicted streams and flows the drain must count back in.
#[test]
fn windowed_and_batch_routes_agree() {
    let scratch = Scratch::new("windowed_and_batch_routes_agree");
    for (scenario, seconds, seed, idle) in [("multi", "20", "7", "10s"), ("churn", "40", "5", "5s")]
    {
        let pcap = scratch.path(&format!("{scenario}.pcap"));
        let pcap = pcap.to_str().unwrap();
        let sim = [
            "simulate",
            pcap,
            "--seconds",
            seconds,
            "--seed",
            seed,
            "--scenario",
            scenario,
        ];
        let (_, err, ok) = run(&sim);
        assert!(ok, "simulate {scenario}: {err}");
        let (batch, err, ok) = run(&["analyze", pcap, "--json"]);
        assert!(ok, "analyze {scenario} --json: {err}");
        let window = [
            "analyze",
            pcap,
            "--window",
            "1s",
            "--idle-timeout",
            idle,
            "--json",
        ];
        let (windowed, err, ok) = run(&window);
        assert!(ok, "analyze {scenario} --window: {err}");
        let last = windowed.lines().last().expect("a final line");
        assert!(
            last.starts_with("{\"type\":\"final\""),
            "{scenario}: {last}"
        );
        assert_eq!(summary_of(last), summary_of(&batch), "{scenario}");
        if scenario == "churn" {
            assert!(
                windowed.contains("\"evicted\":true"),
                "churn evicts nothing"
            );
        }
    }
}

/// Features need every stream's whole history and eviction drops
/// streams, so `--features` with `--idle-timeout` is refused (exit 2)
/// before any input is read or any file written — on `analyze` and
/// `merge` alike.
#[test]
fn features_with_an_idle_timeout_are_refused() {
    let scratch = Scratch::new("features_with_an_idle_timeout_are_refused");
    let raw = scratch.path("evict_features.pcap");
    let csv = scratch.path("evict_features.csv");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "10",
        "--scenario",
        "churn",
    ]);
    assert!(ok, "simulate failed: {err}");
    let pcap = raw.to_str().unwrap();
    let features = csv.to_str().unwrap();
    let eviction = ["--idle-timeout", "2s", "--features", features];
    for args in [
        [&["analyze", pcap, "--window", "1s"][..], &eviction].concat(),
        [&["merge", pcap][..], &eviction].concat(),
    ] {
        let (out, err, code) = run_code(&args);
        assert_eq!(code, Some(2), "{args:?}: {err}");
        assert!(
            err.contains("--features cannot be combined with --idle-timeout"),
            "{err}"
        );
        assert!(out.is_empty(), "{out}");
        assert!(!csv.exists(), "{args:?} wrote {features}");
    }
    // Windows alone keep every stream, and the export works.
    let (_, err, ok) = run(&["analyze", pcap, "--window", "1s", "--features", features]);
    assert!(ok, "{err}");
    assert!(std::fs::read_to_string(&csv).unwrap().lines().count() > 1);
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
}

/// The no-argument usage: each command's continuation lines start in the
/// column of its first argument, not flush with the command names.
#[test]
fn usage_continuation_lines_align_under_the_arguments() {
    let (out, err, code) = run_code(&[]);
    assert_eq!(code, Some(2));
    assert!(out.is_empty(), "{out}");
    let mut column = None;
    let mut continuations = 0;
    for line in err.lines().skip(1) {
        let body = line.trim_start();
        let indent = line.len() - body.len();
        if let Some(command) = body.strip_prefix("zoom-tools ") {
            let args = command.trim_start_matches(|c: char| c.is_ascii_lowercase());
            let padding = args.len() - args.trim_start().len();
            column = Some(line.len() - args.len() + padding);
            assert_eq!(indent, 2, "{line:?}");
        } else {
            assert!(body.starts_with('['), "{line:?}");
            assert_eq!(Some(indent), column, "{line:?}");
            continuations += 1;
        }
    }
    assert!(continuations >= 10, "{err}");
}

/// Several `sim:` taps are read like several pcap files: one source row
/// each, and the conservation invariant holds.
#[test]
fn several_sim_sources_are_read_in_line() {
    let scratch = Scratch::new("several_sim_sources_are_read_in_line");
    let metrics = scratch.path("two_sims.json");
    let (_, err, ok) = run(&[
        "analyze",
        "--source",
        "sim:p2p,seed=7,secs=5",
        "--source",
        "sim:multi,seed=3,secs=5",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert_eq!(json.matches("{\"source\":\"sim:").count(), 2, "{json}");
    assert!(json.contains("\"conservation_holds\":true"), "{json}");
}

/// Every flag combination `analyze` and `merge` refuse, with its exit
/// code and its whole message: 2 where one flag means nothing without
/// another, 3 for the merge input and checkpoint settings. Each is
/// refused before any input is opened (the input here does not exist,
/// which would exit 5) and prints nothing on stdout.
#[test]
fn flag_combination_refusals_are_pinned() {
    let scratch = Scratch::new("flag_combination_refusals_are_pinned");
    let missing = scratch.path("refusal_missing.pcap");
    let _ = std::fs::remove_file(&missing);
    let x = missing.to_str().unwrap();
    let csv = scratch.path("refusal.csv");
    let csv = csv.to_str().unwrap();
    let features = "--features cannot be combined with --idle-timeout: features need each \
                    stream's whole history, and eviction drops evicted streams from the export";
    let idle = "--idle-timeout needs --window: idle streams are evicted when a window closes, \
                so without windows nothing would be evicted";
    let qoe = "--qoe-watch needs --window: the detector evaluates closed windows";
    let sample = "--trace-sample needs --trace FILE or --self-profile FILE";
    let shards = "--shards was removed (one analysis thread does > 1 M pkt/s; measured 1.10× on \
                  two cores): to use more cores split the taps by flow, run one 'analyze \
                  --emit-fragments' per tap and 'merge' them — docs/DISTRIBUTED.md";
    let lossy = "--lossy was removed: every input this tool reads (a pcap, a followed pcap, a \
                 sim: tap, a fragment worker) can wait for the analysis, so the capture fan-in \
                 never drops a record — docs/CAPTURE.md";
    let ring_cap = "--ring-cap was removed: it sized the rings --lossy dropped at, and there \
                    are no rings left — every source is read in-line — docs/CAPTURE.md";
    let source = format!("pcap:{x}");
    let capture: &[&str] = &["capture", csv, "--source", &source];
    let cases: [(&[&str], i32, &str); 31] = [
        (&["analyze", x, "--shards", "8"], 3, shards),
        (&["merge", x, "--shards", "8"], 3, shards),
        (&["analyze", x, "--lossy"], 3, lossy),
        (&["merge", x, "--lossy"], 3, lossy),
        (&[capture, &["--lossy"]].concat(), 3, lossy),
        (&["analyze", x, "--ring-cap", "8"], 3, ring_cap),
        (&["merge", x, "--ring-cap", "8"], 3, ring_cap),
        (&[capture, &["--ring-cap", "8"]].concat(), 3, ring_cap),
        (
            &["analyze", x, "--follow", "--ring-cap", "1", "--lossy"],
            3,
            ring_cap,
        ),
        (
            &["analyze", x, "--no-such-flag", "1"],
            2,
            "analyze: unknown flag --no-such-flag",
        ),
        (
            &["analyze", x, "--idle-timeout", "2s", "--features", csv],
            2,
            features,
        ),
        (&["analyze", x, "--idle-timeout", "2s"], 2, idle),
        (&["analyze", x, "--follow", "--idle-timeout", "2s"], 2, idle),
        (&["analyze", x, "--qoe-watch"], 2, qoe),
        (&["analyze", x, "--trace-sample", "4"], 2, sample),
        (
            &["merge", x, "--idle-timeout", "2s", "--features", csv],
            2,
            features,
        ),
        (&["merge", x, "--idle-timeout", "2s"], 2, idle),
        (
            &["merge", x, "--restore"],
            2,
            "--restore needs --checkpoint PATH",
        ),
        (
            &["merge", x, "--checkpoint", csv],
            2,
            "--checkpoint needs --window: only windowed output can be resumed incrementally",
        ),
        (
            &["merge", x, "--listen", "127.0.0.1:0", "--workers", "1"],
            3,
            "--listen and positional fragment files are mutually exclusive",
        ),
        (
            &["merge", "--listen", "127.0.0.1:0"],
            2,
            "merge --listen needs --workers N",
        ),
        (&["merge", x, "--trace-sample", "4"], 2, sample),
        (
            &["merge"],
            2,
            "no input: give fragment files or --listen ADDR --workers N",
        ),
        // Command lines the subcommand cannot read are usage errors.
        (
            &["analyze", x, "--window"],
            2,
            "flag --window needs a value",
        ),
        (
            &["capture", "--source", &source],
            2,
            "capture needs exactly one output pcap; give inputs with --source",
        ),
        (&["dissect"], 2, "dissect needs exactly one input pcap"),
        (&["discover"], 2, "discover needs exactly one input pcap"),
        (&["simulate"], 2, "simulate needs exactly one output pcap"),
        // So are a missing input and a flag that needs another flag.
        (
            &["analyze"],
            2,
            "no input: give a pcap path or at least one --source",
        ),
        (
            &["capture", csv],
            2,
            "capture needs at least one --source (pcap:PATH or sim:SPEC)",
        ),
        (
            &[capture, &["--anonymize", "12345", "--no-filter"]].concat(),
            2,
            "--anonymize needs the filter pipeline (drop --no-filter)",
        ),
    ];
    for (args, code, message) in cases {
        let (out, err, got) = run_code(args);
        assert_eq!(got, Some(code), "{args:?}: {err}");
        assert_eq!(err, format!("error: {message}\n"), "{args:?}");
        assert!(out.is_empty(), "{args:?}: {out}");
    }
    assert!(!std::path::Path::new(csv).exists());
}

/// A flag value that does not parse — a duration, a campus prefix, a
/// key, a number — is a configuration error, exit 3, on every command
/// that takes the flag, and it is refused before any input is opened
/// (the input here does not exist, which would exit 5). An IPv6 campus is
/// refused the same way: the campus match is IPv4 only.
#[test]
fn bad_flag_values_exit_3_on_every_command() {
    let scratch = Scratch::new("bad_flag_values_exit_3_on_every_command");
    let missing = scratch.path("bad_value_missing.pcap");
    let _ = std::fs::remove_file(&missing);
    let x = missing.to_str().unwrap();
    let out = scratch.path("bad_value_out.pcap");
    let out = out.to_str().unwrap();
    let source = format!("pcap:{x}");
    let capture: &[&str] = &["capture", out, "--source", &source];
    let cases: [&[&str]; 16] = [
        &["analyze", x, "--window", "bogus"],
        &["analyze", x, "--window", "1s", "--idle-timeout", "0s"],
        &["analyze", x, "--follow", "--idle-exit", "-1s"],
        &["analyze", x, "--campus", "10.0.0.0/40"],
        &["analyze", x, "--campus", "2001:db8::/32"],
        &["analyze", x, "--family", "bogus"],
        &["merge", x, "--window", "bogus"],
        &["merge", x, "--campus", "2001:db8::/32"],
        &[capture, &["--anonymize", "abc"]].concat(),
        &[capture, &["--campus", "2001:db8::/32"]].concat(),
        &[capture, &["--campus", "10.0.0.0/x"]].concat(),
        &[capture, &["--follow", "--idle-exit", "soon"]].concat(),
        &["discover", x, "--max-offset", "x"],
        &["dissect", x, "--max", "x"],
        &["simulate", out, "--seconds", "x"],
        &["simulate", out, "--seed", "-1"],
    ];
    for args in cases {
        let (stdout, err, code) = run_code(args);
        assert_eq!(code, Some(3), "{args:?}: {err}");
        assert!(err.starts_with("error: "), "{args:?}: {err}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
    }
    assert!(!std::path::Path::new(out).exists());
}

/// A reader that closes stdout before the command writes (`| head`) ends
/// the command quietly: exit 0, no panic, no message.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let scratch = Scratch::new("a_closed_stdout_ends_the_command_quietly");
    let raw = scratch.path("closed_stdout.pcap");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "20",
        "--seed",
        "7",
        "--scenario",
        "multi",
    ]);
    assert!(ok, "simulate failed: {err}");
    let raw = raw.to_str().unwrap();
    let commands: [&[&str]; 4] = [
        &["discover", raw],
        &["dissect", raw, "--max", "500"],
        &["analyze", raw],
        &["analyze", raw, "--window", "1s"],
    ];
    for args in commands {
        let mut child = Command::new(bin())
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("spawn");
        drop(child.stdout.take());
        let done = child.wait_with_output().expect("wait");
        let err = String::from_utf8_lossy(&done.stderr);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(!err.contains("error:"), "{args:?}: {err}");
        assert_eq!(done.status.code(), Some(0), "{args:?}: {err}");
    }
}

/// A one-worker spool of a trace and the trace itself, each run through
/// its command: the same stdout and the same `--features` CSV, windowed
/// or not, and `--serve` up on both without a window.
#[test]
fn merge_of_a_spool_prints_what_analyze_prints() {
    let scratch = Scratch::new("merge_of_a_spool_prints_what_analyze_prints");
    let raw = scratch.path("route_churn.pcap");
    let spool = scratch.path("route_churn.zfrg");
    let (_, err, ok) = run(&[
        "simulate",
        raw.to_str().unwrap(),
        "--seconds",
        "20",
        "--seed",
        "3",
        "--scenario",
        "churn",
    ]);
    assert!(ok, "simulate failed: {err}");
    let pcap = raw.to_str().unwrap();
    let spool = spool.to_str().unwrap();
    let (_, err, ok) = run(&["analyze", pcap, "--emit-fragments", spool]);
    assert!(ok, "emit failed: {err}");

    for (name, flags) in [("batch", &[][..]), ("windowed", &["--window", "1s"][..])] {
        let by_analyze = scratch.path(&format!("route_{name}_analyze.csv"));
        let by_merge = scratch.path(&format!("route_{name}_merge.csv"));
        let (out_a, err_a, ok_a) = run(&[
            &["analyze", pcap][..],
            flags,
            &["--features", by_analyze.to_str().unwrap()],
        ]
        .concat());
        let (out_m, err_m, ok_m) = run(&[
            &["merge", spool][..],
            flags,
            &["--features", by_merge.to_str().unwrap()],
        ]
        .concat());
        assert!(ok_a && ok_m, "{name}: {err_a} / {err_m}");
        assert!(out_a == out_m, "{name}: stdout differs");
        let csv = std::fs::read(&by_analyze).unwrap();
        assert!(csv.split(|b| *b == b'\n').count() > 100, "{name}");
        assert!(
            csv == std::fs::read(&by_merge).unwrap(),
            "{name}: CSVs differ"
        );
    }

    let (json, _, ok) = run(&["analyze", pcap, "--json"]);
    assert!(ok);
    for args in [&["analyze", pcap][..], &["merge", spool]] {
        let (out, err, ok) = run(&[args, &["--json", "--serve", "127.0.0.1:0"]].concat());
        assert!(ok, "{args:?}: {err}");
        assert!(
            err.starts_with("serving /metrics, /healthz, and /debug/* on http://127.0.0.1:"),
            "{args:?}: {err}"
        );
        assert_eq!(out, json, "{args:?}");
    }
}

/// A 20 s `multi` trace in a scratch file, as the CI smoke's inputs are.
fn multi_trace(scratch: &Scratch, name: &str) -> PathBuf {
    let path = scratch.path(name);
    let (_, err, ok) = run(&[
        "simulate",
        path.to_str().unwrap(),
        "--seconds",
        "20",
        "--seed",
        "7",
        "--scenario",
        "multi",
    ]);
    assert!(ok, "simulate failed: {err}");
    path
}

/// Followed files are read in-line like finite ones: two followed
/// sources — a trace and a header-only file — print what the trace alone
/// prints, windowed with eviction, and `capture --follow` over them writes
/// what the finite `capture` writes.
#[test]
fn followed_sources_give_what_the_finite_run_gives() {
    let scratch = Scratch::new("followed_sources_give_what_the_finite_run_gives");
    let trace = multi_trace(&scratch, "follow_obs.pcap");
    let empty = scratch.path("follow_empty.pcap");
    std::fs::write(&empty, &std::fs::read(&trace).unwrap()[..24]).unwrap();
    let trace_source = format!("pcap:{}", trace.to_str().unwrap());
    let empty_source = format!("pcap:{}", empty.to_str().unwrap());
    let sources = ["--source", &trace_source, "--source", &empty_source];
    let follow = ["--follow", "--idle-exit", "1s"];
    let windowed = ["--window", "1s", "--idle-timeout", "10s", "--json"];

    let (one_file, err, ok) = run(&[&["analyze", trace.to_str().unwrap()][..], &windowed].concat());
    assert!(ok, "{err}");
    assert!(one_file.lines().count() > 10, "{one_file}");
    let (followed, err, ok) = run(&[&["analyze"][..], &sources, &follow, &windowed].concat());
    assert!(ok, "{err}");
    assert!(
        followed == one_file,
        "two followed sources print other bytes"
    );

    let finite = scratch.path("follow_finite.pcap");
    let live = scratch.path("follow_live.pcap");
    let metrics = scratch.path("follow_live.json");
    let (_, err, ok) = run(&[
        &["capture", finite.to_str().unwrap()][..],
        &sources,
        &["--anonymize", "7"],
    ]
    .concat());
    assert!(ok, "{err}");
    let metrics_flag = ["--anonymize", "7", "--metrics", metrics.to_str().unwrap()];
    let (_, err, ok) = run(&[
        &["capture", live.to_str().unwrap()][..],
        &sources,
        &follow,
        &metrics_flag,
    ]
    .concat());
    assert!(ok, "{err}");
    let finite = std::fs::read(&finite).unwrap();
    assert!(finite.len() > 10_000);
    assert!(
        finite == std::fs::read(&live).unwrap(),
        "followed capture differs"
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"conservation_holds\":true"), "{json}");
}

/// The records of every whole Records frame in a spool's bytes, up to
/// where they end or a frame is cut.
fn spooled_records(bytes: &[u8]) -> u64 {
    let Ok(mut reader) = FrameReader::new(bytes) else {
        return 0;
    };
    let mut batch = RecordBatch::new();
    while let Ok(Some(_)) = reader.next(&mut batch) {
        batch.clear();
    }
    reader.records_read()
}

/// A worker flushes its spool whenever its sources go quiet: 1 s into a
/// follow of a trace that does not grow, with its idle exit 2 s after the
/// last record, every record it read is on disk in a whole frame.
#[test]
fn a_following_worker_has_every_frame_on_disk_while_its_source_is_quiet() {
    let scratch =
        Scratch::new("a_following_worker_has_every_frame_on_disk_while_its_source_is_quiet");
    let trace = multi_trace(&scratch, "emit_follow.pcap");
    let (finite, live) = (
        scratch.path("emit_finite.zfrg"),
        scratch.path("emit_live.zfrg"),
    );
    let source = format!("pcap:{}", trace.to_str().unwrap());
    let emit = ["analyze", "--source", &source, "--emit-fragments"];
    let (_, err, ok) = run(&[&emit[..], &[finite.to_str().unwrap()]].concat());
    assert!(ok, "{err}");
    let mut worker = Command::new(bin())
        .args(emit)
        .arg(&live)
        .args(["--follow", "--idle-exit", "2s"])
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn");
    std::thread::sleep(std::time::Duration::from_secs(1));
    let at_one_second = std::fs::read(&live).unwrap();
    assert!(worker.wait().unwrap().success());
    let records = spooled_records(&std::fs::read(&finite).unwrap());
    assert!(records > 10_000, "{records} records");
    assert_eq!(
        spooled_records(&at_one_second),
        records,
        "{} bytes on disk at 1 s",
        at_one_second.len()
    );
    assert!(std::fs::read(&live).unwrap().starts_with(&at_one_second));
}

/// `--follow` without `--window` prints NDJSON like a windowed run: the
/// run's one window, a row per stream, then the report `--json` prints.
/// The drain cuts that window only for a reader, and this is one.
#[test]
fn an_unwindowed_follow_still_prints_its_final_window() {
    let scratch = Scratch::new("an_unwindowed_follow_still_prints_its_final_window");
    let trace = multi_trace(&scratch, "follow_final.pcap");
    let trace = trace.to_str().unwrap();
    let (followed, err, ok) = run(&["analyze", trace, "--follow", "--idle-exit", "1s"]);
    assert!(ok, "{err}");
    let (report, err, ok) = run(&["analyze", trace, "--json"]);
    assert!(ok, "{err}");
    let lines: Vec<&str> = followed.lines().collect();
    assert_eq!(lines.len(), 2, "{followed}");
    let window = lines[0];
    assert!(
        window.starts_with(r#"{"type":"window","index":0,"#),
        "{window}"
    );
    let streams = report.matches(r#"{"flow":"#).count();
    assert!(streams > 5, "{report}");
    assert_eq!(window.matches(r#"{"flow":"#).count(), streams, "{window}");
    assert_eq!(format!("{}\n", lines[1]), report);
}

/// An unwindowed `--metrics` file shows the QoE series cut from the run's
/// one window and the tracked-entry gauges of the drain's tick: these
/// lines are what the run printed when the drain cut that window for
/// every caller (seed-7 `multi` trace of 20 s).
#[test]
fn unwindowed_metrics_render_the_qoe_series_and_tracked_entries() {
    let scratch = Scratch::new("unwindowed_metrics_render_the_qoe_series_and_tracked_entries");
    let trace = multi_trace(&scratch, "metrics_qoe.pcap");
    let prom = scratch.path("metrics_qoe.prom");
    let (_, err, ok) = run(&[
        "analyze",
        trace.to_str().unwrap(),
        "--metrics",
        prom.to_str().unwrap(),
    ]);
    assert!(ok, "{err}");
    let text = std::fs::read_to_string(&prom).unwrap();
    for line in [
        r#"zoom_qoe_bitrate_bps{meeting="0",media="audio",family="zoom"} 68223.34980577503"#,
        r#"zoom_qoe_bitrate_bps{meeting="0",media="video",family="zoom"} 2880970.1559484443"#,
        r#"zoom_qoe_fps{meeting="0",media="video",family="zoom"} 19.544313407092602"#,
        r#"zoom_qoe_jitter_ms{meeting="0",media="video",family="zoom"} 1.6087144938527"#,
        r#"zoom_qoe_frame_size_bytes_sum{media="video",family="zoom"} 18197"#,
        r#"zoom_qoe_frame_size_bytes_count{media="video",family="zoom"} 6"#,
        "zoom_tracked_entries 26",
        "zoom_peak_tracked_entries 26",
    ] {
        assert!(text.lines().any(|l| l == line), "no {line} in {text}");
    }
}

/// `merge --listen` reads its worker connections in-line, as `merge
/// FILES…` reads spools: two workers streaming over TCP merge to what one
/// process prints for both inputs, and the `--journal` spools replay to
/// it too. Worker `box-a` connects first, so it is lane 0. Windowed, so
/// that a record merged out of timestamp order shows in the output.
#[test]
fn merge_listen_with_two_workers_prints_the_single_process_run() {
    let scratch = Scratch::new("merge_listen_with_two_workers_prints_the_single_process_run");
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let trace = multi_trace(&scratch, "listen_obs.pcap");
    let trace_source = format!("pcap:{}", trace.to_str().unwrap());
    let sim_source = "sim:multi,seed=9,secs=10";
    let journal = scratch.path("listen_journal");

    let mut merge = Command::new(bin())
        .args([
            "merge",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--journal",
        ])
        .arg(&journal)
        .args(["--window", "1s", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn merge");
    let mut stderr = BufReader::new(merge.stderr.take().unwrap()).lines();
    let mut line_with = |text: &str| loop {
        let line = stderr.next().expect("merge stderr ended").unwrap();
        if line.contains(text) {
            return line;
        }
    };
    let listening = line_with("listening for 2 worker(s) on ");
    let addr = listening.rsplit(' ').next().unwrap().to_string();
    let worker = |source: &str, label: &str| {
        Command::new(bin())
            .args(["analyze", "--source", source, "--emit-fragments", &addr])
            .args(["--worker-label", label])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn worker")
    };
    let mut box_a = worker(&trace_source, "box-a");
    line_with("worker box-a connected");
    let mut box_b = worker(sim_source, "box-b");
    line_with("worker box-b connected");
    assert!(box_a.wait().unwrap().success());
    assert!(box_b.wait().unwrap().success());
    let merged = merge.wait_with_output().unwrap();
    assert!(merged.status.success());

    let sources = ["--source", &trace_source, "--source", sim_source];
    let windowed = ["--window", "1s", "--json"];
    let (single, err, ok) = run(&[&["analyze"][..], &sources, &windowed].concat());
    assert!(ok, "{err}");
    assert!(single.lines().count() > 10, "{single}");
    assert!(
        merged.stdout == single.as_bytes(),
        "merge --listen differs from one process"
    );
    let spools = ["worker-0.frag", "worker-1.frag"].map(|f| journal.join(f));
    let spools = [spools[0].to_str().unwrap(), spools[1].to_str().unwrap()];
    let (replayed, err, ok) = run(&[&["merge"][..], &spools, &windowed].concat());
    assert!(ok, "{err}");
    assert!(replayed == single, "the journal replays to other bytes");
}

//! End-to-end tests for the structured-tracing tier: worker-side span
//! events shipped over `ZFRG` `Trace` frames must stitch into the merge
//! node's collector by trace ID, the exported NDJSON schema is pinned,
//! and tracing is strictly a side channel — enabling it changes no byte
//! of window or report output.
//!
//! * A 2-worker fragment run with per-worker collectors (node
//!   `worker:wN`) merged through `FragmentSource::with_trace` yields
//!   traces whose IDs carry both worker-side spans (`source_read`,
//!   `fragment_encode`) and merge-side spans (`merge_decode`,
//!   `dissect`, `engine_push`) — the cross-process stitch.
//! * Every exported line matches the pinned `trace_span` schema, keys
//!   in pinned order, `trace_id` zero-padded 16-hex.
//! * The traced merge's windows and final report are byte-identical to
//!   the same fragments merged with tracing off.

use std::collections::BTreeMap;
use std::io::Cursor;
use std::sync::Arc;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::obs::trace::{spans, TraceCollector};
use zoom_analysis::pipeline::AnalyzerConfig;
use zoom_analysis::report::WindowReport;
use zoom_analysis::PacketSink;
use zoom_capture::fragment::FragmentSource;
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::source::PacketSource;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::frame::{FrameWriter, Totals};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};

/// Strictly increasing timestamps pin a single valid merge order, so
/// the traced-vs-untraced differential below is unambiguous.
fn strictly_increasing_records(seed: u64, secs: u64) -> Vec<Record> {
    let mut records: Vec<Record> =
        MeetingSim::new(scenario::multi_party(seed, secs * SEC)).collect();
    records.sort_by_key(|r| r.ts_nanos);
    let mut last = 0u64;
    for r in &mut records {
        if r.ts_nanos <= last {
            r.ts_nanos = last + 1;
        }
        last = r.ts_nanos;
    }
    records
}

fn split_round_robin(records: &[Record], n: usize) -> Vec<Vec<Record>> {
    let mut parts = vec![Vec::new(); n];
    for (i, r) in records.iter().enumerate() {
        parts[i % n].push(r.clone());
    }
    parts
}

/// Encode one worker's fragment stream the way a traced
/// `analyze --emit-fragments --trace` worker ships it: a per-worker
/// collector samples batches, records worker-side spans, and a `Trace`
/// frame carrying that trace's NDJSON precedes each tagged `Records`
/// frame. With `sample_every == 0` this degrades to the plain untraced
/// stream (no `Trace` frames at all — backwards compatible).
fn frame_stream(records: &[Record], label: &str, sample_every: u64) -> Vec<u8> {
    let tc = TraceCollector::new();
    if sample_every > 0 {
        tc.enable(sample_every, &format!("worker:{label}"));
    }
    let mut w = FrameWriter::new(Vec::new(), label, LinkType::Ethernet).expect("header");
    let mut batch = RecordBatch::new();
    let mut bytes = 0u64;
    let mut frames = 0u64;
    for chunk in records.chunks(64) {
        batch.clear();
        for r in chunk {
            batch.push(r.ts_nanos, r.orig_len, &r.data);
            bytes += r.data.len() as u64;
        }
        if let Some(id) = tc.sample() {
            batch.trace_id = id;
            tc.record(id, spans::SOURCE_READ, label, batch.len() as u64, 0);
            w.write_batch_traced(&batch, id, |encode_nanos| {
                let records = batch.len() as u64;
                tc.record(id, spans::FRAGMENT_ENCODE, label, records, encode_nanos);
                tc.drain_trace_ndjson(id)
            })
            .expect("trace and records frames");
        } else {
            w.write_batch(&batch).expect("records frame");
        }
        frames += 1;
    }
    w.finish(Totals {
        packets: records.len() as u64,
        bytes,
        batches: frames,
        ring_full_drops: 0,
        truncated: 0,
    })
    .expect("bye frame")
}

/// Merge the fragment splits exactly as `zoom-tools merge --trace`
/// wires it: `FragmentSource` lanes (stitching collectors when traced)
/// through the fan-in into the batched engine path. Returns the drained
/// trace NDJSON alongside the analysis output.
fn merge_run(
    splits: &[Vec<Record>],
    sample_every: u64,
) -> (Vec<WindowReport>, EngineOutput, String) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window: Some(Duration::from_secs(5)),
        idle_timeout: None,
        qoe: None,
    })
    .expect("valid engine config");
    let mh = engine.metrics_handle();
    if sample_every > 0 {
        mh.trace.enable(sample_every, "merge");
    }
    let sources: Vec<Box<dyn PacketSource>> = splits
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            let stream = frame_stream(recs, &format!("w{i}"), sample_every);
            let mut src = FragmentSource::open(Cursor::new(stream)).expect("valid stream");
            if sample_every > 0 {
                src = src.with_trace(Arc::clone(&mh.trace));
            }
            let wm = mh.register_worker(src.worker_label());
            let _ = wm;
            Box::new(src) as Box<dyn PacketSource>
        })
        .collect();
    let mut mux = CaptureMux::start(
        sources,
        MuxConfig {
            ring_capacity: 8,
            overflow: Overflow::Block,
        },
        Some(&mh),
    );
    let mut windows = Vec::new();
    let mut batch = RecordBatch::new();
    while let Some(link) = mux.next_batch(&mut batch, 512).expect("mux batch") {
        engine.push_batch(&batch, link).expect("push");
        windows.extend(engine.take_windows());
    }
    mux.finish().expect("capture teardown");
    let out = engine.drain().expect("drain");
    let ndjson = mh.trace.drain_ndjson();
    (windows, out, ndjson)
}

/// Pull `"key":"value"` (string) out of a pinned-schema line.
fn str_field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("\"{key}\":\"");
    let start = line.find(&tag).unwrap_or_else(|| panic!("{key} in {line}")) + tag.len();
    let end = line[start..].find('"').expect("closing quote") + start;
    &line[start..end]
}

#[test]
fn two_worker_traces_stitch_across_the_wire() {
    let records = strictly_increasing_records(17, 20);
    assert!(records.len() > 500);
    let splits = split_round_robin(&records, 2);
    let (_, _, ndjson) = merge_run(&splits, 1);

    // Group spans by trace ID: node + span names seen under each.
    let mut by_trace: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    for line in ndjson.lines() {
        by_trace
            .entry(str_field(line, "trace_id").to_string())
            .or_default()
            .push((
                str_field(line, "node").to_string(),
                str_field(line, "span").to_string(),
            ));
    }
    assert!(!by_trace.is_empty(), "traced run exported no spans");

    let mut stitched = 0usize;
    let mut worker_nodes_seen: Vec<String> = Vec::new();
    for (tid, spans_seen) in &by_trace {
        let workers: Vec<&str> = spans_seen
            .iter()
            .filter(|(n, _)| n.starts_with("worker:"))
            .map(|(n, _)| n.as_str())
            .collect();
        let merges: Vec<&str> = spans_seen
            .iter()
            .filter(|(n, _)| n == "merge")
            .map(|(_, s)| s.as_str())
            .collect();
        if workers.is_empty() || merges.is_empty() {
            continue;
        }
        stitched += 1;
        // Worker-side spans made it across the wire under this ID...
        let worker_spans: Vec<&str> = spans_seen
            .iter()
            .filter(|(n, _)| n.starts_with("worker:"))
            .map(|(_, s)| s.as_str())
            .collect();
        assert!(
            worker_spans.contains(&spans::SOURCE_READ)
                && worker_spans.contains(&spans::FRAGMENT_ENCODE),
            "trace {tid}: worker spans incomplete: {worker_spans:?}"
        );
        // ...and the merge node continued the same trace through decode
        // and the engine.
        assert!(
            merges.contains(&spans::MERGE_DECODE),
            "trace {tid}: no merge_decode span: {merges:?}"
        );
        worker_nodes_seen.extend(workers.iter().map(|w| w.to_string()));
    }
    assert!(stitched > 0, "no trace stitched worker and merge spans");
    assert!(
        worker_nodes_seen.iter().any(|w| w == "worker:w0")
            && worker_nodes_seen.iter().any(|w| w == "worker:w1"),
        "expected spans from both workers, saw {worker_nodes_seen:?}"
    );
    // The merge-side pipeline stages show up somewhere in the export.
    let all: String = ndjson.clone();
    for span in [spans::DISSECT, spans::ENGINE_PUSH] {
        assert!(
            all.contains(&format!("\"span\":\"{span}\"")),
            "missing merge-side {span} span"
        );
    }
    // Reserved in the catalogue, emitted by nothing.
    assert!(!all.contains(&format!("\"span\":\"{}\"", spans::SHARD_ROUTE)));
}

#[test]
fn trace_ndjson_schema_is_pinned() {
    let records = strictly_increasing_records(5, 10);
    let splits = split_round_robin(&records, 2);
    let (_, _, ndjson) = merge_run(&splits, 1);
    assert!(!ndjson.is_empty());
    for line in ndjson.lines() {
        // Keys in pinned order — consumers may parse positionally.
        assert!(
            line.starts_with("{\"type\":\"trace_span\",\"trace_id\":\""),
            "schema drift: {line}"
        );
        for key in ["\"span\":\"", "\"node\":\"", "\"site\":\"", "\"ts_nanos\":", "\"dur_nanos\":", "\"records\":"] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        let order = [
            "\"type\"",
            "\"trace_id\"",
            "\"span\"",
            "\"node\"",
            "\"site\"",
            "\"ts_nanos\"",
            "\"dur_nanos\"",
            "\"records\"",
        ];
        let mut pos = 0;
        for key in order {
            let at = line.find(key).unwrap_or_else(|| panic!("{key} in {line}"));
            assert!(at >= pos, "key order drift at {key}: {line}");
            pos = at;
        }
        // Every span name comes from the closed catalogue, so renaming
        // a stage fails here rather than on a dashboard.
        let span = str_field(line, "span");
        assert!(
            zoom_analysis::obs::trace::SPAN_CATALOGUE.contains(&span),
            "span {span} not in SPAN_CATALOGUE"
        );
        let tid = str_field(line, "trace_id");
        assert_eq!(tid.len(), 16, "trace_id not 16-hex: {line}");
        assert!(
            tid.chars().all(|c| c.is_ascii_hexdigit()),
            "trace_id not hex: {line}"
        );
        assert!(line.ends_with('}'), "unterminated line: {line}");
    }
}

#[test]
fn tracing_is_a_side_channel_output_stays_byte_identical() {
    let records = strictly_increasing_records(23, 20);
    let splits = split_round_robin(&records, 2);
    let (base_windows, base_out, base_ndjson) = merge_run(&splits, 0);
    assert!(base_ndjson.is_empty(), "untraced run exported spans");
    for sample_every in [1u64, 4] {
        let (windows, out, ndjson) = merge_run(&splits, sample_every);
        assert!(!ndjson.is_empty(), "traced run exported nothing");
        assert_eq!(
            windows.len(),
            base_windows.len(),
            "sample {sample_every}: window count"
        );
        for (x, y) in windows.iter().zip(&base_windows) {
            assert_eq!(
                x.to_json(),
                y.to_json(),
                "sample {sample_every}: window {}",
                x.index
            );
        }
        assert_eq!(
            out.final_window.to_json(),
            base_out.final_window.to_json(),
            "sample {sample_every}: final window"
        );
        assert_eq!(
            out.report.to_json(),
            base_out.report.to_json(),
            "sample {sample_every}: final report"
        );
    }
}

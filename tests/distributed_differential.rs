//! Differential tests for the distributed tier: shipping a trace
//! through `zoom_wire::frame` fragment streams and merging the workers
//! back through `FragmentSource` lanes must not change a byte of output.
//!
//! * Any split of a strictly-increasing-timestamp trace across 1/2/8
//!   fragment workers (round-robin interleave or contiguous time
//!   slices) produces window reports and a final report
//!   **byte-identical** to the single-process analysis, windowed and
//!   unwindowed.
//! * The workers' self-reported accounting survives the wire: the
//!   `zoom_worker_*` snapshot matches the split sizes exactly and the
//!   worker-extended conservation invariant holds
//!   (`Σ worker packets == packets_in + Σ ring_full_drops`).
//! * A worker ships each record's analysis prefix, not the record: the
//!   spools weigh a fraction of the trace, the merge node's `bytes_in`
//!   and `packet_size` histogram still read what the single process
//!   reads, a by-flow split that puts a STUN exchange and the P2P flow it
//!   announces on different workers changes nothing, and a version-1
//!   spool — records shipped whole — still merges to the same bytes.
//! * A merge "crash" mid-trace resumes from a checkpoint: replaying the
//!   same fragments under a `WindowGate` emits exactly the missing
//!   suffix, so crash + restore concatenates to the uninterrupted run —
//!   open windows at crash time lose nothing.
//! * A worker stream cut before its Bye frame surfaces as an error from
//!   the fan-in, never a silently short report.
//! * Fragment lanes read in-line (`CaptureMux::inline` — how `merge
//!   FILES…` reads its spools) equal the same lanes behind capture threads
//!   (how `merge --listen` reads its connections) equal the single
//!   process, drained the CLI's way (`next_batch(BATCH_RECORDS)` →
//!   `push_batch`), windowed and not. With
//!   `tests/multi_source_differential.rs`, which does the same over plain
//!   sources, this is what pins the fan-in's two lane kinds against each
//!   other.

use std::io::Cursor;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;
use zoom_analysis::dist::{MergeCheckpoint, WindowGate};
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::obs::{MetricsSnapshot, WorkerMetrics};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::WindowReport;
use zoom_analysis::PacketSink;
use zoom_capture::fragment::{FragmentSource, WorkerAccount};
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::source::{PacketSource, BATCH_RECORDS};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::{analysis_prefix, peek};
use zoom_wire::frame::{FrameWriter, Totals};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Record};
use zoom_wire::stun::STUN_PORT;

/// A multi-party workload with strictly increasing timestamps, so the
/// timestamp-ordered merge has exactly one valid output order and the
/// differential below is unambiguous.
fn strictly_increasing_records(seed: u64, secs: u64) -> Vec<Record> {
    strictly_increasing(MeetingSim::new(scenario::multi_party(seed, secs * SEC)).collect())
}

fn strictly_increasing(mut records: Vec<Record>) -> Vec<Record> {
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

#[derive(Clone, Copy, Debug)]
enum Split {
    RoundRobin,
    Contiguous,
}

fn split_records(records: &[Record], n: usize, how: Split) -> Vec<Vec<Record>> {
    let mut parts = vec![Vec::new(); n];
    match how {
        Split::RoundRobin => {
            for (i, r) in records.iter().enumerate() {
                parts[i % n].push(r.clone());
            }
        }
        Split::Contiguous => {
            let chunk = records.len().div_ceil(n);
            for (j, c) in records.chunks(chunk).enumerate() {
                parts[j] = c.to_vec();
            }
        }
    }
    parts
}

/// What a worker ships of `records`: every record's analysis prefix.
fn shipped_bytes(records: &[Record]) -> u64 {
    records
        .iter()
        .map(|r| analysis_prefix(&r.data, LinkType::Ethernet) as u64)
        .sum()
}

/// Encode one worker's records as the wire-framed fragment stream a
/// `analyze --emit-fragments` worker would ship.
fn frame_stream(records: &[Record], label: &str) -> Vec<u8> {
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
        w.write_batch(&batch).expect("records frame");
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

fn sync_workers(pairs: &[(Arc<WorkerAccount>, Arc<WorkerMetrics>)]) {
    for (acc, wm) in pairs {
        let t = acc.totals();
        wm.packets.set(t.packets);
        wm.bytes.set(t.bytes);
        wm.batches.set(t.batches);
        wm.ring_full_drops.set(t.ring_full_drops);
        wm.truncated.set(t.truncated);
        let received = acc.records_received.load(Ordering::Acquire);
        let have = wm.records_received.get();
        if received > have {
            wm.records_received.add(received - have);
        }
        wm.bytes_received
            .set(acc.bytes_received.load(Ordering::Acquire));
        wm.complete
            .set(u64::from(acc.complete.load(Ordering::Acquire)));
    }
}

/// How a merge run reads its fragment lanes and feeds the engine.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// Capture threads, record by record: the reference drive.
    PerRecord,
    /// As the CLI drives it — `next_batch(BATCH_RECORDS)` → `push_batch` —
    /// over capture threads (`merge --listen`) or in-line lanes (`merge
    /// FILES…`).
    Batched { inline: bool },
}

/// Run the merge-node pipeline over the fragment-encoded splits exactly
/// as `zoom-tools merge` wires it: one `FragmentSource` lane per worker,
/// worker accounts folded into the registry, snapshot after drain.
fn fragment_run(
    splits: &[Vec<Record>],
    window: Option<Duration>,
) -> (Vec<WindowReport>, EngineOutput, MetricsSnapshot) {
    fragment_run_driven(splits, window, Drive::PerRecord)
}

fn fragment_run_driven(
    splits: &[Vec<Record>],
    window: Option<Duration>,
    drive: Drive,
) -> (Vec<WindowReport>, EngineOutput, MetricsSnapshot) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: None,
    })
    .expect("valid engine config");
    let mh = engine.metrics_handle();
    let mut pairs = Vec::new();
    let sources: Vec<Box<dyn PacketSource>> = splits
        .iter()
        .enumerate()
        .map(|(i, recs)| {
            let stream = frame_stream(recs, &format!("w{i}"));
            let src = FragmentSource::open(Cursor::new(stream)).expect("valid stream");
            pairs.push((src.account(), mh.register_worker(src.worker_label())));
            Box::new(src) as Box<dyn PacketSource>
        })
        .collect();
    let config = MuxConfig {
        ring_capacity: 8,
        overflow: Overflow::Block,
    };
    let mut mux = match drive {
        Drive::Batched { inline: true } => CaptureMux::inline(sources, Some(&mh)),
        _ => CaptureMux::start(sources, config, Some(&mh)),
    };
    let mut windows = Vec::new();
    match drive {
        Drive::PerRecord => {
            while let Some(r) = mux.next_record().expect("mux record") {
                engine.push(r.ts_nanos, r.data, r.link).expect("push");
                windows.extend(engine.take_windows());
            }
        }
        Drive::Batched { .. } => {
            let mut batch = RecordBatch::new();
            while let Some(link) = mux
                .next_batch(&mut batch, BATCH_RECORDS)
                .expect("mux batch")
            {
                engine.push_batch(&batch, link).expect("push_batch");
                windows.extend(engine.take_windows());
            }
        }
    }
    assert_eq!(mux.ring_full_drops(), 0, "lossless replay must not drop");
    mux.finish().expect("capture teardown");
    sync_workers(&pairs);
    let out = engine.drain().expect("drain");
    let snap = out.analyzer.metrics();
    (windows, out, snap)
}

/// The single-process anchor: plain sequential analysis plus, when
/// windowed, the streaming engine over the already-merged record order.
fn single_process_run(
    records: &[Record],
    window: Option<Duration>,
) -> (Vec<WindowReport>, EngineOutput) {
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: None,
    })
    .expect("valid engine config");
    let mut windows = Vec::new();
    for r in records {
        engine
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
        windows.extend(engine.take_windows());
    }
    let out = engine.drain().expect("drain");
    (windows, out)
}

fn assert_same_output(
    windows: &[WindowReport],
    out: &EngineOutput,
    base_windows: &[WindowReport],
    base_out: &EngineOutput,
    label: &str,
) {
    assert_eq!(windows.len(), base_windows.len(), "{label}: window count");
    for (x, y) in windows.iter().zip(base_windows) {
        assert_eq!(x.to_json(), y.to_json(), "{label}: window {}", x.index);
    }
    assert_eq!(
        out.final_window.to_json(),
        base_out.final_window.to_json(),
        "{label}: final window"
    );
    assert_eq!(
        out.report.to_json(),
        base_out.report.to_json(),
        "{label}: final report"
    );
}

/// Worker accounting in the snapshot must match the splits exactly and
/// keep the worker-extended conservation invariant intact.
fn assert_worker_accounting(snap: &MetricsSnapshot, splits: &[Vec<Record>], label: &str) {
    assert!(snap.conservation_holds(), "{label}: conservation");
    assert_eq!(snap.workers.len(), splits.len(), "{label}: worker count");
    let total: u64 = splits.iter().map(|s| s.len() as u64).sum();
    assert_eq!(snap.worker_packets_total(), total, "{label}: Σ worker packets");
    assert_eq!(
        snap.worker_records_received_total(),
        total,
        "{label}: Σ records received"
    );
    assert_eq!(snap.packets_in, total, "{label}: merge packets_in");
    for (i, part) in splits.iter().enumerate() {
        let w = &snap.workers[i];
        assert_eq!(w.label, format!("w{i}"), "{label}: worker label");
        assert_eq!(w.packets, part.len() as u64, "{label}: worker {i} packets");
        assert_eq!(
            w.records_received,
            part.len() as u64,
            "{label}: worker {i} received"
        );
        // Captured at the tap, as the worker reports it; shipped, as the
        // merge node counts it in.
        let bytes: u64 = part.iter().map(|r| r.data.len() as u64).sum();
        assert_eq!(w.bytes, bytes, "{label}: worker {i} bytes");
        assert_eq!(
            w.bytes_received,
            shipped_bytes(part),
            "{label}: worker {i} bytes received"
        );
        assert_eq!(w.ring_full_drops, 0, "{label}: worker {i} drops");
        assert!(w.complete, "{label}: worker {i} saw Bye");
    }
}

#[test]
fn fragment_workers_byte_identical_to_single_process() {
    let records = strictly_increasing_records(11, 30);
    assert!(records.len() > 1_000);

    // The sequential no-mux report anchors the whole family.
    let mut direct = Analyzer::new(AnalyzerConfig::default());
    for r in &records {
        direct
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
    }
    let direct = direct.finish().expect("finish");

    for window in [None, Some(Duration::from_secs(10))] {
        let (base_windows, base_out) = single_process_run(&records, window);
        assert_eq!(
            base_out.report.to_json(),
            direct.to_json(),
            "single-process anchor/{window:?}"
        );
        for n in [1usize, 2, 8] {
            for how in [Split::RoundRobin, Split::Contiguous] {
                let splits = split_records(&records, n, how);
                let (windows, out, snap) = fragment_run(&splits, window);
                let label = format!("{n} workers/{how:?}/{window:?}");
                assert_same_output(&windows, &out, &base_windows, &base_out, &label);
                assert_worker_accounting(&snap, &splits, &label);
            }
        }
    }
}

/// Spool lanes read on the merge thread, connection lanes behind capture
/// threads, and no lanes at all: one output.
#[test]
fn inline_fragment_lanes_match_threaded_lanes_and_the_single_process() {
    let records = strictly_increasing_records(13, 20);
    for window in [None, Some(Duration::from_secs(3))] {
        let (base_windows, base_out) = single_process_run(&records, window);
        assert!(window.is_none() || base_windows.len() > 3, "windows closed");
        for (n, how) in [
            (1, Split::Contiguous),
            (2, Split::RoundRobin),
            (3, Split::Contiguous),
        ] {
            let splits = split_records(&records, n, how);
            let mut source_rows = Vec::new();
            for inline in [false, true] {
                let label = format!("{n} workers/inline {inline}/{window:?}");
                let (windows, out, snap) =
                    fragment_run_driven(&splits, window, Drive::Batched { inline });
                assert_same_output(&windows, &out, &base_windows, &base_out, &label);
                assert_worker_accounting(&snap, &splits, &label);
                // Record bytes only, whichever way the frames were read:
                // the framing a lane's arena holds is not counted.
                for (part, row) in splits.iter().zip(&snap.sources) {
                    assert_eq!(
                        (row.packets, row.bytes),
                        (part.len() as u64, shipped_bytes(part)),
                        "{label}"
                    );
                }
                source_rows.push(
                    snap.sources
                        .iter()
                        .map(|s| (s.label.clone(), s.packets, s.bytes, s.batches))
                        .collect::<Vec<_>>(),
                );
            }
            assert_eq!(
                source_rows[0], source_rows[1],
                "{n} workers: per-source counters"
            );
        }
    }
}

/// `frame_stream` as a version-1 worker wrote it: the same layout, every
/// record shipped whole.
fn frame_stream_v1(records: &[Record], label: &str) -> Vec<u8> {
    let frame = |out: &mut Vec<u8>, kind: u8, payload: &[u8]| {
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
    };
    let mut out = b"ZFRG\x01".to_vec();
    let mut hello = 1u32.to_be_bytes().to_vec(); // Ethernet
    hello.extend_from_slice(&(label.len() as u16).to_be_bytes());
    hello.extend_from_slice(label.as_bytes());
    frame(&mut out, 1, &hello);
    for chunk in records.chunks(64) {
        let mut payload = (chunk.len() as u32).to_be_bytes().to_vec();
        for r in chunk {
            payload.extend_from_slice(&r.ts_nanos.to_be_bytes());
            payload.extend_from_slice(&r.orig_len.to_be_bytes());
            payload.extend_from_slice(&(r.data.len() as u32).to_be_bytes());
            payload.extend_from_slice(&r.data);
        }
        frame(&mut out, 2, &payload);
    }
    let bytes: u64 = records.iter().map(|r| r.data.len() as u64).sum();
    let totals = [
        records.len() as u64,
        bytes,
        records.len().div_ceil(64) as u64,
        0,
        0,
    ];
    let bye: Vec<u8> = totals.iter().flat_map(|v| v.to_be_bytes()).collect();
    frame(&mut out, 4, &bye);
    out
}

/// Headers cross the wire, media does not — and nothing the merge node
/// prints or counts can tell.
#[test]
fn workers_ship_prefixes_and_the_merge_cannot_tell() {
    // A P2P meeting and a WebRTC session, split the way taps split
    // traffic — by flow — so that the STUN exchange goes to one worker and
    // the media flow it announces to the other: the worker that trims the
    // media never saw what makes it media.
    let p2p: Vec<Record> = MeetingSim::new(scenario::p2p_meeting(5, 20 * SEC)).collect();
    let webrtc = zoom_sim::webrtc::scenario(3, 15 * SEC);
    for (name, records) in [("p2p", p2p), ("webrtc", webrtc)] {
        let records = strictly_increasing(records);
        let is_stun = |r: &Record| {
            let p = peek(&r.data, LinkType::Ethernet).expect("sim records dissect");
            p.five_tuple().involves_port(STUN_PORT)
                && p.udp_payload.is_some_and(zoom_wire::stun::looks_like_stun)
        };
        let (stun, rest): (Vec<Record>, Vec<Record>) = records.iter().cloned().partition(is_stun);
        assert!(!stun.is_empty() && rest.len() > 1_000, "{name}: split");
        let splits = [stun, rest];

        let window = Some(Duration::from_secs(1));
        let (base_windows, base_out) = single_process_run(&records, window);
        let (windows, out, snap) =
            fragment_run_driven(&splits, window, Drive::Batched { inline: true });
        assert_same_output(&windows, &out, &base_windows, &base_out, name);
        assert_worker_accounting(&snap, &splits, name);

        // Ingest accounting follows the wire, not what was shipped.
        let base = base_out.analyzer.metrics();
        assert_eq!(snap.bytes_in, base.bytes_in, "{name}: bytes_in");
        assert_eq!(snap.packet_size, base.packet_size, "{name}: packet_size");
        assert_eq!(snap.drop_truncated, 0, "{name}: truncated");

        // The spools weigh what the prefixes weigh plus framing, a
        // fraction of the capture.
        let captured: usize = records.iter().map(|r| r.data.len()).sum();
        let spooled: usize = splits
            .iter()
            .enumerate()
            .map(|(i, part)| frame_stream(part, &format!("w{i}")).len())
            .sum();
        let shipped = splits.iter().map(|p| shipped_bytes(p)).sum::<u64>() as usize;
        assert!(
            spooled > shipped && spooled < shipped + 17 * records.len() + 200,
            "{name}: {spooled} spooled for {shipped} shipped"
        );
        assert!(
            spooled * 10 < captured * 3,
            "{name}: {spooled} of {captured}"
        );
    }
}

#[test]
fn a_version_1_spool_still_merges() {
    let records = strictly_increasing_records(19, 10);
    let splits = split_records(&records, 2, Split::RoundRobin);
    let mut engine = StreamingEngine::new(EngineConfig::default()).expect("engine");
    // One worker on the old version, one on the new.
    let sources: Vec<Box<dyn PacketSource>> = vec![
        Box::new(FragmentSource::open(Cursor::new(frame_stream_v1(&splits[0], "w0"))).expect("v1")),
        Box::new(FragmentSource::open(Cursor::new(frame_stream(&splits[1], "w1"))).expect("v2")),
    ];
    let mut mux = CaptureMux::inline(sources, None);
    let mut batch = RecordBatch::new();
    while let Some(link) = mux
        .next_batch(&mut batch, BATCH_RECORDS)
        .expect("mux batch")
    {
        engine.push_batch(&batch, link).expect("push_batch");
    }
    mux.finish().expect("teardown");
    let (_, base_out) = single_process_run(&records, None);
    assert_eq!(
        engine.drain().expect("drain").report.to_json(),
        base_out.report.to_json()
    );
}

/// Crash + restore: an incarnation that dies mid-trace emitted some
/// window prefix; the restore replays the same fragments under a
/// `WindowGate` and must emit exactly the missing suffix — including
/// the windows that were still open at crash time.
#[test]
fn merge_restart_resumes_from_checkpoint_without_losing_windows() {
    let records = strictly_increasing_records(17, 25);
    let splits = split_records(&records, 2, Split::RoundRobin);
    let window = Some(Duration::from_secs(4));

    // Uninterrupted reference.
    let (all_windows, all_out, _) = fragment_run(&splits, window);
    assert!(
        all_windows.len() >= 4,
        "need several windows for a meaningful crash point"
    );

    // Incarnation 1: dies after ~60% of the merged trace, mid-window.
    // The merged order of strictly increasing timestamps is the sorted
    // trace itself, so feeding the prefix directly is exactly what the
    // crashed merge had pushed.
    let crash_at = records.len() * 6 / 10;
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window,
        idle_timeout: None,
        qoe: None,
    })
    .expect("engine");
    let mut emitted = Vec::new();
    for r in &records[..crash_at] {
        engine
            .push(r.ts_nanos, &r.data, LinkType::Ethernet)
            .expect("push");
        emitted.extend(engine.take_windows());
    }
    let checkpoint = MergeCheckpoint {
        windows_emitted: emitted.len() as u64,
        workers: vec![],
    };
    drop(engine); // the crash: no drain, open windows lost in memory

    // Incarnation 2: full deterministic replay, prefix suppressed.
    let text = checkpoint.serialize();
    let restored = MergeCheckpoint::parse(&text).expect("reparse");
    let mut gate = WindowGate::resume_from(&restored);
    let (replayed, out, _) = fragment_run(&splits, window);
    let resumed: Vec<&WindowReport> =
        replayed.iter().filter(|_| gate.admit()).collect();

    // Crash output + resumed output == uninterrupted output.
    let stitched: Vec<&WindowReport> =
        emitted.iter().chain(resumed.iter().copied()).collect();
    assert_eq!(stitched.len(), all_windows.len(), "stitched window count");
    for (x, y) in stitched.iter().zip(&all_windows) {
        assert_eq!(x.to_json(), y.to_json(), "stitched window {}", y.index);
    }
    assert_eq!(
        out.final_window.to_json(),
        all_out.final_window.to_json(),
        "final window after restore"
    );
    assert_eq!(
        out.report.to_json(),
        all_out.report.to_json(),
        "final report after restore"
    );
}

/// A worker cut off before its Bye frame must fail the merge loudly,
/// whichever kind of lane reads it.
#[test]
fn cut_worker_stream_is_an_error_not_a_short_report() {
    let records = strictly_increasing_records(5, 10);
    let splits = split_records(&records, 2, Split::RoundRobin);
    let ok = frame_stream(&splits[0], "w0");
    let mut cut = frame_stream(&splits[1], "w1");
    cut.truncate(cut.len() - 50); // lose the Bye (and a record tail)

    let mut messages = Vec::new();
    for inline in [false, true] {
        let sources: Vec<Box<dyn PacketSource>> = vec![
            Box::new(FragmentSource::open(Cursor::new(ok.clone())).expect("ok stream")),
            Box::new(FragmentSource::open(Cursor::new(cut.clone())).expect("header still valid")),
        ];
        let mut mux = if inline {
            CaptureMux::inline(sources, None)
        } else {
            CaptureMux::start(sources, MuxConfig::default(), None)
        };
        let err = loop {
            match mux.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("cut stream passed for a complete merge"),
                Err(e) => break e,
            }
        };
        let msg = err.to_string();
        assert!(
            msg.starts_with("worker:w1: ") && (msg.contains("Bye") || msg.contains("truncated")),
            "unhelpful cut-stream error: {msg}"
        );
        messages.push(msg);
        let _ = mux.finish();
    }
    assert_eq!(messages[0], messages[1]);
}

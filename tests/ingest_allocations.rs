//! The ingest hot path stays off the allocator once it is warm: a second
//! pass of `Reader::read_into` over a pcap image, of chunk reads
//! (`Reader::read_chunk`) plus `peek_batch` classification, and of chunk
//! reads into `Analyzer::push_batch` — the route `analyze FILE` takes —
//! allocates nothing; through a `StreamingEngine` with 1 s windows, a
//! batch that closes no window allocates nothing either; a time-shifted
//! replay through a `StreamingEngine` with 10 s windows allocates less
//! than 0.05 times per record (window-close report assembly is the
//! remainder).
//! And what the analyzer retains does not grow with the run: analyzing a
//! four times longer trace — of one meeting, or of meetings that come and
//! go — raises the peak live heap by well under a byte per added record.
//! What it holds per live stream is pinned too, and writing the final
//! report holds no more than a row of it.
//!
//! Allocations and live bytes are counted per thread, so tests running
//! beside these cannot pollute the counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, BufWriter, PipeReader};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, EngineOutput, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::{peek_batch, PeekArena};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, Writer};
use zoom_wire::zoom::MediaType;

/// Counts every allocation and reallocation the calling thread makes,
/// and the bytes it holds live (allocated and not yet freed by it) with
/// their high-water mark.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Move this thread's live bytes by `delta`, raising the peak with them.
fn live(delta: i64) {
    let _ = LIVE.try_with(|l| {
        let now = l.get() + delta;
        l.set(now);
        let _ = PEAK.try_with(|p| p.set(p.get().max(now)));
    });
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's guarantees are `System`'s; counting touches only const-
// initialised thread-local `Cell`s, which do not allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        live(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // A moving realloc holds both blocks for a moment: count the new
        // one before the old one goes.
        live(new_size as i64);
        live(-(layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on this thread, and what it returns.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// How far `f` raises this thread's live heap above where it started, at
/// its peak, and what `f` returns.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let out = f();
    ((PEAK.with(Cell::get) - start) as u64, out)
}

/// Records per hand-off batch (the streaming engine's batch size).
const BATCH: usize = 256;

/// Reader-only pass reusing one `RecordBuf`; returns the record count.
fn read_pass(img: &[u8], buf: &mut RecordBuf) -> u64 {
    let mut reader = Reader::new(img).expect("pcap header");
    let mut n = 0;
    while reader.read_into(buf).expect("record") {
        n += 1;
    }
    n
}

/// Chunk reads plus `peek_batch`, reusing one batch and one arena, until
/// at least `n` records have gone by or the image ends; returns the
/// record count.
fn classify_pass(
    reader: &mut Reader<&[u8]>,
    n: u64,
    batch: &mut RecordBatch,
    arena: &mut PeekArena,
) -> u64 {
    let link = reader.link_type();
    let mut seen = 0;
    while seen < n {
        batch.clear();
        let more = reader.read_chunk(batch).expect("chunk");
        peek_batch(batch, link, arena);
        seen += batch.len() as u64;
        if !more {
            break;
        }
    }
    seen
}

/// Chunk reads into `sink`, reusing one batch, until at least `n` records
/// have gone by or the image ends — the route `analyze FILE` takes. Per
/// batch: the allocations it cost, and whether it closed a window.
fn sink_pass(
    reader: &mut Reader<&[u8]>,
    n: u64,
    batch: &mut RecordBatch,
    sink: &mut impl PacketSink,
) -> Vec<(u64, bool)> {
    let link = reader.link_type();
    let mut seen = 0;
    let mut batches = Vec::new();
    while seen < n {
        let (allocs, (more, closed)) = allocations(|| {
            batch.clear();
            let more = reader.read_chunk(batch).expect("chunk");
            sink.push_batch(batch, link).expect("push_batch");
            (more, !sink.take_windows().is_empty())
        });
        batches.push((allocs, closed));
        seen += batch.len() as u64;
        if !more {
            break;
        }
    }
    batches
}

/// One windowed pass over the trace with every timestamp shifted by
/// `offset`, taking window reports as they close.
fn windowed_pass(
    engine: &mut StreamingEngine,
    records: &[Record],
    batch: &mut RecordBatch,
    offset: u64,
) {
    for chunk in records.chunks(BATCH) {
        batch.clear();
        for r in chunk {
            batch.push(r.ts_nanos + offset, r.orig_len, &r.data);
        }
        engine
            .push_batch(batch, LinkType::Ethernet)
            .expect("push_batch");
        engine.take_windows();
    }
}

#[test]
fn warm_ingest_passes_stay_off_the_allocator() {
    let mut records: Vec<Record> = scenario::churn(7, 60 * SEC)
        .into_iter()
        .flat_map(MeetingSim::new)
        .collect();
    records.sort_by_key(|r| r.ts_nanos);
    let mut writer = Writer::new(Vec::new(), LinkType::Ethernet).expect("header");
    for r in &records {
        writer.write_record(r).expect("record");
    }
    let img = writer.finish().expect("flush");
    let n = records.len() as u64;
    assert!(n > 10_000, "{n} records");

    // `read_into`: the first pass grows the buffer, the second reuses it.
    let mut buf = RecordBuf::new();
    assert_eq!(read_pass(&img, &mut buf), n);
    let (allocs, read) = allocations(|| read_pass(&img, &mut buf));
    assert_eq!(read, n);
    assert_eq!(allocs, 0, "warm read_into pass allocated");

    // Chunk reads + classification over the records twice, one reader:
    // the batch arena, the reader's carry buffer and the peek arena are at
    // capacity after the first pass.
    let twice = [&img[..], &img[24..]].concat();
    let mut reader = Reader::new(&twice[..]).expect("pcap header");
    let mut batch = RecordBatch::new();
    let mut arena = PeekArena::new();
    let first = classify_pass(&mut reader, n, &mut batch, &mut arena);
    let (allocs, second) = allocations(|| classify_pass(&mut reader, n, &mut batch, &mut arena));
    assert_eq!(first + second, 2 * n);
    assert!(
        second > n * 9 / 10,
        "{second} of {n} records in the warm pass"
    );
    assert_eq!(allocs, 0, "warm read_chunk + peek_batch pass allocated");

    // The route `analyze FILE` takes: chunk reads straight into the
    // analyzer, over the trace and then the same trace a span later, one
    // reader. The second half meets every flow, stream and table size the
    // first one grew.
    let span = records.last().map_or(0, |r| r.ts_nanos + SEC);
    let mut writer = Writer::new(Vec::new(), LinkType::Ethernet).expect("header");
    let shifted = records.iter().map(|r| (r, span));
    for (r, shift) in records.iter().map(|r| (r, 0)).chain(shifted) {
        let mut r = r.clone();
        r.ts_nanos += shift;
        writer.write_record(&r).expect("record");
    }
    let replay = writer.finish().expect("flush");
    // Two passes over the image with one reader and one batch; the
    // second one's batches.
    type Pass<'a> = dyn FnMut(&mut Reader<&[u8]>, &mut RecordBatch) -> Vec<(u64, bool)> + 'a;
    let warm = |sink: &mut Pass<'_>| {
        let mut reader = Reader::new(&replay[..]).expect("pcap header");
        let mut batch = RecordBatch::new();
        sink(&mut reader, &mut batch);
        sink(&mut reader, &mut batch)
    };
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let second = warm(&mut |reader, batch| sink_pass(reader, n, batch, &mut analyzer));
    let allocs: u64 = second.iter().map(|&(a, _)| a).sum();
    eprintln!(
        "analyzer: {allocs} allocations over {} warm batches",
        second.len()
    );
    assert!(
        second.len() > 100,
        "{} batches in the warm pass",
        second.len()
    );
    assert_eq!(
        allocs, 0,
        "warm read_chunk + Analyzer::push_batch pass allocated"
    );
    analyzer.finish().expect("finish");

    // The same through the windowed engine, 1 s windows: a batch that
    // closed no window allocates nothing (a close assembles its report).
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window: Some(Duration::from_secs(1)),
        idle_timeout: None,
        qoe: None,
    })
    .expect("engine");
    let second = warm(&mut |reader, batch| sink_pass(reader, n, batch, &mut engine));
    let quiet: Vec<u64> = second.iter().filter(|b| !b.1).map(|b| b.0).collect();
    eprintln!(
        "1 s windows: {} of {} warm batches closed no window",
        quiet.len(),
        second.len()
    );
    assert!(quiet.len() > second.len() / 2);
    assert_eq!(
        quiet.iter().sum::<u64>(),
        0,
        "a warm windowed batch that closed no window allocated"
    );
    engine.drain().expect("drain");

    // Windowed engine: the first pass warms the flow tables, the second
    // replays the same flows later, so windows keep rolling.
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window: Some(Duration::from_secs(10)),
        idle_timeout: None,
        qoe: None,
    })
    .expect("engine");
    windowed_pass(&mut engine, &records, &mut batch, 0);
    let (allocs, ()) = allocations(|| windowed_pass(&mut engine, &records, &mut batch, span));
    let per_record = allocs as f64 / n as f64;
    eprintln!(
        "windowed engine: {allocs} allocations over {n} records ({per_record:.4} per record)"
    );
    assert!(
        per_record < 0.05,
        "windowed steady state allocates {per_record:.4} per record"
    );
    engine.drain().expect("drain");
}

/// Peak live heap of a batch analysis of `records`, fed in hand-off
/// batches; the analyzer is dropped inside the measurement.
fn analysis_peak(records: &[Record]) -> u64 {
    let mut batch = RecordBatch::new();
    let (peak, ()) = peak_live_bytes(|| {
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        for chunk in records.chunks(BATCH) {
            batch.clear();
            for r in chunk {
                batch.push(r.ts_nanos, r.orig_len, &r.data);
            }
            analyzer
                .push_batch(&batch, LinkType::Ethernet)
                .expect("push_batch");
        }
        analyzer.finish().expect("finish");
    });
    peak
}

/// Heap the analyzer may add per added record when the same traffic runs
/// four times longer. Nothing it keeps by default is per record, per
/// frame, per RTT match or per stream-second, and a sub-stream's sequence
/// window has a fixed size; what is left to grow is state per stream ever
/// seen, and hash tables meeting a busier instant. Both cases measure
/// under 0.01 bytes. On one meeting, with the per-second rows kept and a
/// sequence window that filled as it went, it measured 2.8 bytes; with
/// one log entry per completed frame and per RTT match too, 26.
const MAX_BYTES_PER_ADDED_RECORD: f64 = 0.5;

/// The peak live heap of analyzing `short` and `long`, the same traffic
/// over a shorter and a four times longer run: bytes per added record.
fn retained_bytes_per_added_record(what: &str, short: &[Record], long: &[Record]) -> f64 {
    let added = long.len() - short.len();
    assert!(
        added > 3 * short.len() / 2,
        "{what}: {} vs {} records",
        long.len(),
        short.len()
    );
    let (short_peak, long_peak) = (analysis_peak(short), analysis_peak(long));
    let per_record = long_peak.saturating_sub(short_peak) as f64 / added as f64;
    eprintln!(
        "{what}: analyzer peak live heap {short_peak} B over {} records, {long_peak} B over \
         {}: {per_record:.2} B per added record",
        short.len(),
        long.len()
    );
    per_record
}

#[test]
fn retained_heap_stays_flat_as_the_trace_grows() {
    // Copies of both campus clients' uplinks come back downlink, so the
    // RTP-copy estimator matches a probe for most media packets.
    let meeting = |secs| MeetingSim::new(scenario::multi_party(5, secs * SEC)).collect();
    // Meetings start and stop all through the run.
    let churn = |secs| {
        let mut records: Vec<Record> = scenario::churn(7, secs * SEC)
            .into_iter()
            .flat_map(MeetingSim::new)
            .collect();
        records.sort_by_key(|r| r.ts_nanos);
        records
    };
    for (what, short, long) in [
        ("one meeting", meeting(30), meeting(120)),
        ("churn", churn(60), churn(240)),
    ] {
        let per_record = retained_bytes_per_added_record(what, &short, &long);
        assert!(
            per_record < MAX_BYTES_PER_ADDED_RECORD,
            "{what}: retained heap grows {per_record:.2} B per added record"
        );
    }
}

/// The seed-7 campus trace at load scale 3 over 60 s — the benchmark's
/// `campus.pcap` shape: meetings with audio, video and screen share — as
/// a pcap stream that a thread of its own generates into a pipe, so that
/// generating it costs this thread nothing.
fn campus_pipe() -> (Reader<PipeReader>, JoinHandle<()>) {
    let (read, write) = io::pipe().expect("pipe");
    let writer = thread::spawn(move || {
        let (scenario, _) = scenario::campus_study(7, 60 * SEC, 3.0, 0.0);
        let mut pcap = Writer::new(BufWriter::new(write), LinkType::Ethernet).expect("header");
        for r in scenario.into_stream() {
            pcap.write_record(&r)
                .expect("the reader takes every record");
        }
        pcap.finish().expect("flush");
    });
    (Reader::new(read).expect("pcap header"), writer)
}

/// Analyzes [`campus_pipe`] through an engine with no window — the route
/// `analyze FILE --json` takes — and drains it. Returns the peak live
/// heap of the analysis, drain included, and the drained output. The
/// reader and its batch are sized by the first chunk before the
/// measurement starts.
fn campus_analysis() -> (u64, EngineOutput) {
    let (mut reader, writer) = campus_pipe();
    let link = reader.link_type();
    let mut batch = RecordBatch::new();
    reader.read_chunk(&mut batch).expect("chunk");
    let out = peak_live_bytes(|| {
        let mut engine = StreamingEngine::new(EngineConfig::default()).expect("engine");
        loop {
            engine.push_batch(&batch, link).expect("push_batch");
            batch.clear();
            let more = reader.read_chunk(&mut batch).expect("chunk");
            if !more && batch.is_empty() {
                break;
            }
        }
        engine.drain().expect("drain")
    });
    writer.join().expect("the trace writer");
    out
}

/// Live heap a batch analysis may hold per live stream, at its peak,
/// fixed costs shared out: 2 590 B measured on [`campus_pipe`]'s 264
/// streams, plus 10 %. Each `Stream` keeps its video-only state (frames,
/// frame-level jitter) behind one pointer that audio leaves null, its
/// sub-streams in a vector sized exactly, each with the holes of its
/// sequence window rather than a bit per number; an RTP-copy probe is 16
/// bytes, the meeting grouper keeps one entry per stream, and the drain
/// cuts no window nobody reads. With a 256-byte seen-bit window per
/// sub-stream and 32-byte probes it measured 4 381 B; with the video
/// state inline, doubling sub-stream vectors and the window cut too,
/// 7 012 B.
const MAX_BYTES_PER_LIVE_STREAM: u64 = 2_849;

#[test]
fn retained_bytes_per_live_stream() {
    let (peak, output) = campus_analysis();
    let streams = output.analyzer.streams();
    let of = |t| streams.of_type(t).count();
    let (audio, video, screen) = (
        of(MediaType::Audio),
        of(MediaType::Video),
        of(MediaType::ScreenShare),
    );
    assert!(
        audio > 0 && video > 0 && screen > 0,
        "{audio} audio, {video} video, {screen} screen-share streams"
    );
    let per_stream = peak / streams.len() as u64;
    eprintln!(
        "campus: peak live heap {peak} B over {} live streams ({audio} audio, {video} video, \
         {screen} screen share): {per_stream} B per stream",
        streams.len()
    );
    assert!(
        per_stream <= MAX_BYTES_PER_LIVE_STREAM,
        "{per_stream} B per live stream"
    );
}

/// The live heap writing the final report may add: the report is written
/// a row at a time, never held whole beside the state.
const MAX_REPORT_WRITE_BYTES: u64 = 64 * 1024;

#[test]
fn report_is_written_not_held() {
    let (_, output) = campus_analysis();
    let report = &output.report;
    assert!(
        report.streams.len() >= 200,
        "{} streams",
        report.streams.len()
    );
    // The whole line is longer than the bound: a writer that built it
    // first could not pass.
    let line = report.to_json().len() as u64;
    assert!(line > MAX_REPORT_WRITE_BYTES, "{line} B line");
    let (raised, written) = peak_live_bytes(|| report.write_json(&mut io::sink()));
    written.expect("io::sink takes every write");
    eprintln!(
        "writing a {line} B report of {} streams raised the live heap {raised} B",
        report.streams.len()
    );
    assert!(
        raised <= MAX_REPORT_WRITE_BYTES,
        "writing the report raised the live heap {raised} B"
    );
}

/// Heap one sequence tracker may hold, whatever it is fed: the 256 bytes
/// of a seen-bit per window slot, which it switches to once its list of
/// hole runs would take more.
const MAX_SEQUENCE_STATE_BYTES: i64 = 256;

#[test]
fn sequence_state_is_bounded_under_any_loss() {
    use zoom_analysis::metrics::loss::SeqTracker;
    // Every other number lost over three windows of 2 048: from 0, then
    // again past a jump of 30 000 numbers, and from a start that wraps
    // the 16-bit space.
    let lossy = |from: u16| (0..3 * 2_048u16).map(move |i| from.wrapping_add(2 * i));
    let cases: [(&str, Vec<u16>); 3] = [
        ("alternating loss across whole windows", lossy(0).collect()),
        (
            "a 30 000-number jump",
            lossy(0).chain(lossy(6 * 2_048 + 30_000)).collect(),
        ),
        ("a wrap", lossy(u16::MAX - 4_095).collect()),
    ];
    for (what, seqs) in cases {
        let start = LIVE.with(Cell::get);
        let mut held = 0;
        let mut tracker = SeqTracker::new();
        for &s in &seqs {
            tracker.on_sequence(s);
            held = held.max(LIVE.with(Cell::get) - start);
        }
        let stats = tracker.finish();
        eprintln!(
            "{what}: at most {held} B of sequence state, {} missing",
            stats.missing
        );
        assert!(stats.missing >= 2_048, "{what}: {stats:?}");
        assert!(held <= MAX_SEQUENCE_STATE_BYTES, "{what}: {held} B held");
    }
}

//! Writes `BENCH_ingest.json`: packet rates and allocations per record
//! for the pcap ingest paths (owning `Reader`, buffer-reusing
//! `read_into`, borrowed `SliceReader`), the batched dissection
//! pipeline (per-packet vs `push_batch`, unwindowed and windowed), and
//! the multi-source / distributed-merge fan-ins — all measured under a
//! counting global allocator over the `sim:campus-10x` standard load.
//!
//! The file carries a per-PR `history` array (`{pr, git_sha, entries}`)
//! so the perf trajectory is committed next to the numbers; each run
//! appends one entry and prints deltas against the previous one. The
//! schema is documented in `docs/PERFORMANCE.md`.
//!
//! Usage:
//!   `cargo run --release -p zoom-bench --bin bench_ingest [out.json] [--gate BASELINE.json]`
//!
//! `--gate` compares this run's pipeline rates against BASELINE.json
//! (normally the committed `BENCH_ingest.json`) and exits nonzero when
//! `batch_pipeline_pkts_per_sec` regresses more than 10 % (the other
//! rates are printed as informational trend lines). Set `BENCH_GATE_OVERRIDE=1`
//! to downgrade a gate failure to a warning (documented escape hatch for
//! known-noisy runners or intentional regressions); `BENCH_PR=N` pins
//! the history entry's PR number.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::PacketSink;
use zoom_capture::fragment::FragmentSource;
use zoom_capture::mux::{CaptureMux, MuxConfig, Overflow};
use zoom_capture::source::{PacketSource, ReplaySource, BATCH_RECORDS};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::{peek_batch, PeekArena};
use zoom_wire::frame::{FrameWriter, Totals};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Reader, Record, RecordBuf, SliceReader, Writer};

/// The standard load: its canonical `SourceSpec` label, so the same
/// trace is reproducible as `--source sim:campus-10x,seed=7,secs=60`.
const WORKLOAD: &str = "sim:campus-10x,seed=7,secs=60";

/// The one history entry the `--gate` check hard-fails on; the rest are
/// printed as informational trend lines (see `run_gate`).
const GATE_KEY: &str = "batch_pipeline_pkts_per_sec";
/// Records per hand-off batch on the batched pipeline measurements
/// (matches the streaming engine's internal batch size).
const BATCH: usize = 256;

/// Counts every heap allocation (and growth) made by the process so the
/// measured loops can report allocations per record.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// One measured ingest path.
struct PathResult {
    name: &'static str,
    /// Reader-only loop: records per second.
    reader_pkts_per_sec: f64,
    /// Reader-only loop: heap allocations per record, cold start.
    reader_allocs_per_record: f64,
    /// Reader-only loop: total allocations on a second pass with warm
    /// state (the `read_into` buffer already grown). Target 0 for the
    /// fast paths.
    steady_state_reader_allocs: u64,
    /// Reader feeding the sequential analyzer: records per second.
    pipeline_pkts_per_sec: f64,
}

/// Runs `f` over the image, returning (records, seconds, allocs).
fn measured(f: impl FnOnce() -> u64) -> (u64, f64, u64) {
    let a0 = allocs();
    let t0 = Instant::now();
    let n = f();
    let secs = t0.elapsed().as_secs_f64();
    (n, secs, allocs() - a0)
}

/// Timed-rate repetitions for every gated pipeline measurement: the
/// fastest of `BEST_OF` runs. A shared machine only ever adds noise in
/// one direction (slower), so best-of is the stable estimator the CI
/// gate needs.
const BEST_OF: usize = 2;

/// Runs `f` (returning `(records, seconds)`) `BEST_OF` times and keeps
/// the fastest, asserting the record count is stable.
fn best_of(mut f: impl FnMut() -> (u64, f64)) -> (u64, f64) {
    let (n, mut secs) = f();
    for _ in 1..BEST_OF {
        let (n2, s2) = f();
        assert_eq!(n, n2, "repetitions saw different record counts");
        secs = secs.min(s2);
    }
    (n, secs)
}

fn read_owning(img: &[u8]) -> u64 {
    let mut r = Reader::new(img).expect("pcap header");
    let mut n = 0u64;
    let mut sum = 0usize;
    while let Some(rec) = r.next_record().expect("record") {
        sum += rec.data.len();
        n += 1;
    }
    black_box(sum);
    n
}

fn read_reuse(img: &[u8], buf: &mut RecordBuf) -> u64 {
    let mut r = Reader::new(img).expect("pcap header");
    let mut n = 0u64;
    let mut sum = 0usize;
    while r.read_into(buf).expect("record") {
        sum += buf.data().len();
        n += 1;
    }
    black_box(sum);
    n
}

fn read_slice(img: &[u8]) -> u64 {
    let mut r = SliceReader::new(img).expect("pcap header");
    let mut n = 0u64;
    let mut sum = 0usize;
    while let Some(rec) = r.next_record().expect("record") {
        sum += rec.data.len();
        n += 1;
    }
    black_box(sum);
    n
}

fn analyze_via(img: &[u8], name: &str) -> (u64, f64) {
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let t0 = Instant::now();
    let n = match name {
        "owning_reader" => {
            let mut r = Reader::new(img).expect("pcap header");
            let link = r.link_type();
            let mut n = 0u64;
            while let Some(rec) = r.next_record().expect("record") {
                analyzer.push(rec.ts_nanos, &rec.data, link).expect("push");
                n += 1;
            }
            n
        }
        "read_into_reuse" => {
            let mut r = Reader::new(img).expect("pcap header");
            let link = r.link_type();
            let mut buf = RecordBuf::new();
            let mut n = 0u64;
            while r.read_into(&mut buf).expect("record") {
                analyzer
                    .push(buf.ts_nanos(), buf.data(), link)
                    .expect("push");
                n += 1;
            }
            n
        }
        _ => {
            let mut r = SliceReader::new(img).expect("pcap header");
            let link = r.link_type();
            let mut n = 0u64;
            while let Some(rec) = r.next_record().expect("record") {
                analyzer.push(rec.ts_nanos, rec.data, link).expect("push");
                n += 1;
            }
            n
        }
    };
    let secs = t0.elapsed().as_secs_f64();
    black_box(analyzer.summary().zoom_packets);
    (n, secs)
}

fn measure_path(img: &[u8], name: &'static str) -> PathResult {
    // Cold reader-only pass: rate and allocations per record.
    let mut reuse_buf = RecordBuf::new();
    let (n, secs, cold_allocs) = match name {
        "owning_reader" => measured(|| read_owning(img)),
        "read_into_reuse" => measured(|| read_reuse(img, &mut reuse_buf)),
        _ => measured(|| read_slice(img)),
    };
    // Warm second pass: the reuse buffer is already at capacity, so the
    // fast paths should not touch the allocator at all.
    let (_, _, steady) = match name {
        "owning_reader" => measured(|| read_owning(img)),
        "read_into_reuse" => measured(|| read_reuse(img, &mut reuse_buf)),
        _ => measured(|| read_slice(img)),
    };
    let (pn, psecs) = best_of(|| analyze_via(img, name));
    assert_eq!(pn, n, "{name}: pipeline saw a different record count");
    PathResult {
        name,
        reader_pkts_per_sec: n as f64 / secs,
        reader_allocs_per_record: cold_allocs as f64 / n as f64,
        steady_state_reader_allocs: steady,
        pipeline_pkts_per_sec: pn as f64 / psecs,
    }
}

/// The batched-dissection measurements.
struct BatchResult {
    /// Batch fill + `peek_batch` classification only (the type-sorted
    /// dispatch front half), records per second.
    classify_pkts_per_sec: f64,
    /// Classification loop allocations on a warm second pass: the batch
    /// arena and peek arena are at capacity, so this must be 0 — the
    /// batch-path extension of the reader invariant.
    steady_state_classify_allocs: u64,
    /// `SliceReader` → `RecordBatch` → `Analyzer::push_batch`:
    /// records per second. The headline batch pipeline rate, comparable
    /// to the per-packet `pipeline_pkts_per_sec` above.
    pipeline_pkts_per_sec: f64,
    /// The streaming engine (10 s windows) fed whole batches:
    /// records per second, including window emission.
    windowed_pipeline_pkts_per_sec: f64,
    /// Allocations per record on a second, warm windowed pass (same
    /// flow population, windows still rolling): the arena-recycling
    /// target is ~0 — only per-window report assembly may allocate.
    windowed_steady_state_allocs_per_record: f64,
}

/// Fill-and-classify: the reader half of the batch path. One
/// `RecordBatch` and one `PeekArena` are reused across calls, so a warm
/// pass must not allocate.
fn classify_batched(img: &[u8], batch: &mut RecordBatch, arena: &mut PeekArena) -> u64 {
    let mut r = SliceReader::new(img).expect("pcap header");
    let link = r.link_type();
    let mut n = 0u64;
    let mut classes = 0usize;
    loop {
        batch.clear();
        while batch.len() < BATCH {
            match r.next_record().expect("record") {
                Some(rec) => batch.push(rec.ts_nanos, rec.orig_len, rec.data),
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        peek_batch(batch, link, arena);
        // Touch the type-sorted dispatch output so it isn't optimized out.
        for c in [
            zoom_wire::dissect::PacketClass::Stun,
            zoom_wire::dissect::PacketClass::ZmeMedia,
            zoom_wire::dissect::PacketClass::ZmeControl,
            zoom_wire::dissect::PacketClass::NotZoom,
        ] {
            classes += arena.class_count(c);
        }
        n += batch.len() as u64;
    }
    black_box(classes);
    n
}

/// `SliceReader` → `RecordBatch` → sequential `Analyzer::push_batch`.
fn analyze_batched(img: &[u8]) -> (u64, f64) {
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let mut r = SliceReader::new(img).expect("pcap header");
    let link = r.link_type();
    let mut batch = RecordBatch::new();
    let t0 = Instant::now();
    let mut n = 0u64;
    loop {
        batch.clear();
        while batch.len() < BATCH {
            match r.next_record().expect("record") {
                Some(rec) => batch.push(rec.ts_nanos, rec.orig_len, rec.data),
                None => break,
            }
        }
        if batch.is_empty() {
            break;
        }
        analyzer.push_batch(&batch, link).expect("push_batch");
        n += batch.len() as u64;
    }
    let secs = t0.elapsed().as_secs_f64();
    black_box(analyzer.summary().zoom_packets);
    (n, secs)
}

/// One windowed engine pass over the trace with all timestamps shifted
/// by `offset`, feeding whole batches and draining window reports as
/// they close. Returns (records, seconds).
fn windowed_batch_pass(engine: &mut StreamingEngine, records: &[Record], offset: u64) -> (u64, f64) {
    let mut batch = RecordBatch::new();
    let t0 = Instant::now();
    let mut n = 0u64;
    for chunk in records.chunks(BATCH) {
        batch.clear();
        for r in chunk {
            batch.push(r.ts_nanos + offset, r.orig_len, &r.data);
        }
        engine
            .push_batch(&batch, LinkType::Ethernet)
            .expect("push_batch");
        black_box(engine.take_windows().len());
        n += chunk.len() as u64;
    }
    (n, t0.elapsed().as_secs_f64())
}

fn measure_batch(img: &[u8], records: &[Record]) -> BatchResult {
    // Classification front half: cold, then warm (must be alloc-free).
    let mut batch = RecordBatch::new();
    let mut arena = PeekArena::new();
    let (cn, csecs, _) = measured(|| classify_batched(img, &mut batch, &mut arena));
    let (_, _, steady_classify) = measured(|| classify_batched(img, &mut batch, &mut arena));
    drop((batch, arena));

    // Whole-pipeline batch rate, sequential analyzer.
    let (bn, bsecs) = best_of(|| analyze_batched(img));
    assert_eq!(bn, cn, "batch pipeline saw a different record count");

    // Windowed engine: pass 1 warms the flow tables and tick scratch;
    // pass 2 replays the same flows at later timestamps,
    // so windows keep rolling while the per-record path should stay off
    // the allocator (window-close report assembly is the remainder).
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig::default(),
        window: Some(std::time::Duration::from_secs(10)),
        idle_timeout: None,
        qoe: None,
    })
    .expect("engine");
    let span = records.last().map(|r| r.ts_nanos + SEC).unwrap_or(0);
    let (wn, _) = windowed_batch_pass(&mut engine, records, 0);
    let a0 = allocs();
    let (wn2, w2secs) = windowed_batch_pass(&mut engine, records, span);
    let steady_windowed = allocs() - a0;
    // Another warm pass (time shifted again, so windows keep rolling)
    // purely for the best-of rate.
    let (_, w3secs) = windowed_batch_pass(&mut engine, records, 2 * span);
    let wsecs = w2secs.min(w3secs);
    assert_eq!(wn, wn2);
    let output = engine.drain().expect("drain");
    black_box(output.analyzer.summary().zoom_packets);

    BatchResult {
        classify_pkts_per_sec: cn as f64 / csecs,
        steady_state_classify_allocs: steady_classify,
        pipeline_pkts_per_sec: bn as f64 / bsecs,
        windowed_pipeline_pkts_per_sec: wn as f64 / wsecs,
        windowed_steady_state_allocs_per_record: steady_windowed as f64 / wn2 as f64,
    }
}

/// Deal the trace round-robin to `n` replay sources (untimed setup;
/// sources are consumed per run).
fn deal_sources(records: &[Record], n: usize) -> Vec<Box<dyn PacketSource>> {
    let mut parts = vec![Vec::new(); n];
    for (i, r) in records.iter().enumerate() {
        parts[i % n].push(r.clone());
    }
    parts
        .into_iter()
        .enumerate()
        .map(|(i, p)| {
            Box::new(ReplaySource::new(
                &format!("bench:{i}"),
                LinkType::Ethernet,
                p,
            )) as Box<dyn PacketSource>
        })
        .collect()
}

fn start_mux(sources: Vec<Box<dyn PacketSource>>) -> CaptureMux {
    CaptureMux::start(
        sources,
        MuxConfig {
            ring_capacity: 8,
            overflow: Overflow::Block,
        },
        None,
    )
}

/// One measured multi-source run: `n_sources` in-memory replay sources
/// merged by `CaptureMux` through the lossless bounded rings, drained a
/// run-extended batch at a time. Returns (records, pipeline pkts/s
/// feeding the batched analyzer, capture-side allocations per record).
/// The allocation figure comes from a merge-only pass so it isolates
/// the fan-in — threads, rings, and the first round of arena batches,
/// amortized over the trace; once the recycle rings are warm the
/// hand-off allocates nothing per record.
fn analyze_multi_source(records: &[Record], n_sources: usize) -> (u64, f64, f64) {
    // Pass 1, merge only: capture-side allocations per record.
    let sources = deal_sources(records, n_sources);
    let a0 = allocs();
    let mut mux = start_mux(sources);
    let mut batch = RecordBatch::new();
    let mut sum = 0usize;
    let mut n1 = 0u64;
    while mux.next_batch(&mut batch, BATCH_RECORDS).expect("mux batch").is_some() {
        sum += batch.arena_bytes();
        n1 += batch.len() as u64;
    }
    mux.finish().expect("capture teardown");
    let fanin_allocs = allocs() - a0;
    black_box(sum);

    // Pass 2, merged batches feeding the batched sequential analyzer:
    // pkts/s to compare against the single-source pipeline rates above.
    let (n, secs) = best_of(|| {
        let sources = deal_sources(records, n_sources);
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        let t0 = Instant::now();
        let mut mux = start_mux(sources);
        let mut n = 0u64;
        while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS).expect("mux batch") {
            analyzer.push_batch(&batch, link).expect("push_batch");
            n += batch.len() as u64;
        }
        assert_eq!(mux.ring_full_drops(), 0, "lossless rings must not drop");
        mux.finish().expect("capture teardown");
        let secs = t0.elapsed().as_secs_f64();
        black_box(analyzer.summary().zoom_packets);
        (n, secs)
    });
    assert_eq!(n, n1, "fan-in passes disagree on record count");
    (n, n as f64 / secs, fanin_allocs as f64 / n as f64)
}

/// Encode the trace dealt round-robin to `n` workers as in-memory
/// fragment streams — the wire image a `analyze --emit-fragments`
/// worker ships (untimed setup; streams are rebuilt per run).
fn deal_fragment_streams(records: &[Record], n: usize) -> Vec<Vec<u8>> {
    let mut parts = vec![Vec::new(); n];
    for (i, r) in records.iter().enumerate() {
        parts[i % n].push(r.clone());
    }
    parts
        .into_iter()
        .enumerate()
        .map(|(i, part)| {
            let mut w = FrameWriter::new(Vec::new(), &format!("bench:{i}"), LinkType::Ethernet)
                .expect("frame header");
            let mut batch = RecordBatch::new();
            let mut bytes = 0u64;
            let mut frames = 0u64;
            for chunk in part.chunks(64) {
                batch.clear();
                for r in chunk {
                    batch.push(r.ts_nanos, r.orig_len, &r.data);
                    bytes += r.data.len() as u64;
                }
                w.write_batch(&batch).expect("records frame");
                frames += 1;
            }
            w.finish(Totals {
                packets: part.len() as u64,
                bytes,
                batches: frames,
                ring_full_drops: 0,
                truncated: 0,
            })
            .expect("bye frame")
        })
        .collect()
}

fn fragment_sources(streams: Vec<Vec<u8>>) -> Vec<Box<dyn PacketSource>> {
    streams
        .into_iter()
        .map(|s| {
            Box::new(FragmentSource::open(std::io::Cursor::new(s)).expect("stream header"))
                as Box<dyn PacketSource>
        })
        .collect()
}

/// One measured merge-node run: `n_workers` wire-framed fragment
/// streams decoded by `FragmentSource` lanes and merged through the
/// fan-in. Same two-pass shape as [`analyze_multi_source`] so the
/// numbers are comparable — the delta against `multi_source` is the
/// cost of the wire protocol (frame decode + accounting).
fn analyze_merge_fragments(records: &[Record], n_workers: usize) -> (u64, f64, f64) {
    // Pass 1, merge only: decode + fan-in allocations per record.
    let sources = fragment_sources(deal_fragment_streams(records, n_workers));
    let a0 = allocs();
    let mut mux = start_mux(sources);
    let mut batch = RecordBatch::new();
    let mut sum = 0usize;
    let mut n1 = 0u64;
    while mux.next_batch(&mut batch, BATCH_RECORDS).expect("mux batch").is_some() {
        sum += batch.arena_bytes();
        n1 += batch.len() as u64;
    }
    mux.finish().expect("capture teardown");
    let fanin_allocs = allocs() - a0;
    black_box(sum);

    // Pass 2, merged batches feeding the batched sequential analyzer.
    let (n, secs) = best_of(|| {
        let sources = fragment_sources(deal_fragment_streams(records, n_workers));
        let mut analyzer = Analyzer::new(AnalyzerConfig::default());
        let t0 = Instant::now();
        let mut mux = start_mux(sources);
        let mut n = 0u64;
        while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS).expect("mux batch") {
            analyzer.push_batch(&batch, link).expect("push_batch");
            n += batch.len() as u64;
        }
        assert_eq!(mux.ring_full_drops(), 0, "lossless rings must not drop");
        mux.finish().expect("capture teardown");
        let secs = t0.elapsed().as_secs_f64();
        black_box(analyzer.summary().zoom_packets);
        (n, secs)
    });
    assert_eq!(n, n1, "fan-in passes disagree on record count");
    (n, n as f64 / secs, fanin_allocs as f64 / n as f64)
}

// ---- history + gate plumbing (textual; this repo keeps no JSON parser,
// and the bench only ever reads back its own writer's format) ----

/// The first JSON number following `"key":` after `anchor` (or from the
/// start when `anchor` is empty).
fn num_after(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let start = if anchor.is_empty() {
        0
    } else {
        text.find(anchor)?
    };
    let rest = &text[start..];
    let k = format!("\"{key}\":");
    let p = rest.find(&k)? + k.len();
    let rest = rest[p..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The string value following `"key": "` (no escapes — labels only).
fn str_after(text: &str, key: &str) -> Option<String> {
    let k = format!("\"{key}\": \"");
    let p = text.find(&k)? + k.len();
    let rest = &text[p..];
    Some(rest[..rest.find('"')?].to_string())
}

/// The raw per-PR entry lines of a previous run's `"history"` array.
/// Falls back to synthesizing one entry from a pre-history snapshot
/// (the schema before the trajectory array existed) so the first run
/// with this binary still starts the series from the committed numbers.
fn prior_history(text: &str) -> Vec<String> {
    if let Some(p) = text.find("\"history\": [") {
        let rest = &text[p + "\"history\": [".len()..];
        let Some(end) = rest.find("\n  ]") else {
            return Vec::new();
        };
        return rest[..end]
            .lines()
            .map(str::trim)
            .filter(|l| l.starts_with('{'))
            .map(|l| l.trim_end_matches(',').to_string())
            .collect();
    }
    // Legacy snapshot: lift its headline rates into a synthetic entry.
    // The pre-history file was last regenerated by PR 7 over the old
    // standard load (`sim:multi`).
    let read_into = num_after(text, "\"name\": \"read_into_reuse\"", "pipeline_pkts_per_sec");
    let multi = num_after(text, "\"multi_source\"", "pipeline_pkts_per_sec");
    let merge = num_after(text, "\"merge_fragments\"", "pipeline_pkts_per_sec");
    let workload = str_after(text, "workload").unwrap_or_else(|| "sim:multi,seed=5,secs=60".into());
    let (Some(read_into), Some(multi), Some(merge)) = (read_into, multi, merge) else {
        return Vec::new();
    };
    vec![format!(
        "{{\"pr\": 7, \"git_sha\": \"unknown\", \"workload\": \"{workload}\", \"entries\": \
         {{\"read_into_pipeline_pkts_per_sec\": {read_into:.1}, \
         \"multi_source_pipeline_pkts_per_sec\": {multi:.1}, \
         \"merge_pipeline_pkts_per_sec\": {merge:.1}}}}}"
    )]
}

/// Coarse host fingerprint recorded with every history entry so rate
/// deltas across entries can be discounted when the hardware changed:
/// logical core count plus `uname -srm` (kernel, release, machine).
fn machine_fingerprint() -> String {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(0);
    let uname = std::process::Command::new("uname")
        .args(["-srm"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("{cores} cores, {uname}")
}

fn git_short_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Print the delta of each of this run's entry rates against the
/// previous history entry (when it recorded the same key).
fn print_deltas(prev: Option<&String>, entries: &[(&str, f64)]) {
    let Some(prev) = prev else {
        return;
    };
    let pr = num_after(prev, "", "pr").map(|v| v as i64).unwrap_or(-1);
    let sha = str_after(prev, "git_sha").unwrap_or_else(|| "unknown".into());
    let workload = str_after(prev, "workload").unwrap_or_default();
    if workload != WORKLOAD {
        eprintln!(
            "[bench_ingest] note: previous entry (pr {pr} @{sha}) ran workload \
             {workload:?}; deltas below compare across workloads"
        );
    }
    for (key, now) in entries {
        if let Some(then) = num_after(prev, "", key) {
            let pct = (now - then) / then * 100.0;
            eprintln!(
                "[bench_ingest] {key:<38} {now:>12.0} pkts/s ({pct:+.1}% vs pr {pr} @{sha})"
            );
        }
    }
}

/// `--gate`: fail (exit 1) when a headline pipeline rate regressed more
/// than 10 % against the baseline file, unless `BENCH_GATE_OVERRIDE=1`.
fn run_gate(baseline_path: &str, entries: &[(&str, f64)]) {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("[bench_ingest] gate: cannot read {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    let baseline_workload = str_after(&text, "workload");
    if baseline_workload.as_deref() != Some(WORKLOAD) {
        eprintln!(
            "[bench_ingest] gate: baseline workload {:?} differs from {WORKLOAD:?}; \
             rates are not comparable — skipping gate",
            baseline_workload
        );
        return;
    }
    // Gate against the baseline's latest history entry (the committed
    // trajectory head), falling back to its snapshot sections.
    let head = prior_history(&text);
    let head = head.last().cloned().unwrap_or(text);
    // Surface both host fingerprints: a gate verdict on different
    // hardware is trend information, not a regression proof.
    let here = machine_fingerprint();
    match str_after(&head, "machine") {
        Some(base) if base != here => eprintln!(
            "[bench_ingest] gate: machine changed — baseline [{base}], this run [{here}]"
        ),
        Some(base) => eprintln!("[bench_ingest] gate: machine [{base}] (unchanged)"),
        None => eprintln!(
            "[bench_ingest] gate: baseline entry predates machine fingerprints; \
             this run is [{here}]"
        ),
    }
    let mut failed = false;
    for (key, now) in entries {
        let Some(then) = num_after(&head, "", key) else {
            continue;
        };
        // Only the primary batched pipeline rate hard-fails the gate: the
        // per-record and fan-in rates are reported for trend visibility but
        // swing well past 10 % run-to-run on loaded single-core runners,
        // which would make the gate cry wolf.
        let gated = *key == GATE_KEY;
        let regressed = *now < then * 0.9;
        let pct = (now - then) / then * 100.0;
        let verdict = match (gated, regressed) {
            (true, true) => "FAIL",
            (true, false) => "ok",
            (false, _) => "info",
        };
        eprintln!(
            "[bench_ingest] gate: {key:<38} {now:>12.0} vs baseline {then:>12.0} \
             ({pct:+.1}%) {verdict}"
        );
        failed |= gated && regressed;
    }
    if failed {
        if std::env::var("BENCH_GATE_OVERRIDE").as_deref() == Ok("1") {
            eprintln!(
                "[bench_ingest] gate: FAILED but BENCH_GATE_OVERRIDE=1 is set — continuing"
            );
        } else {
            eprintln!(
                "[bench_ingest] gate: {GATE_KEY} regressed more than 10%. \
                 If this is expected (or the runner is known-noisy), re-run with \
                 BENCH_GATE_OVERRIDE=1 and justify the regression in the PR."
            );
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut out_path = "BENCH_ingest.json".to_string();
    let mut gate_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--gate" {
            gate_path = Some(args.next().unwrap_or_else(|| {
                eprintln!("--gate needs a baseline path");
                std::process::exit(1);
            }));
        } else {
            out_path = a;
        }
    }
    let prior_text = std::fs::read_to_string(&out_path).unwrap_or_default();

    let records: Vec<Record> = {
        let mut v: Vec<Record> = scenario::campus_10x(7, 60 * SEC)
            .into_iter()
            .flat_map(MeetingSim::new)
            .collect();
        v.sort_by_key(|r| r.ts_nanos);
        v
    };
    let mut w = Writer::new(Vec::new(), LinkType::Ethernet).expect("header");
    for r in &records {
        w.write_record(r).expect("record");
    }
    let img = w.finish().expect("flush");
    eprintln!(
        "[bench_ingest] workload {WORKLOAD}: {} records, {} pcap bytes",
        records.len(),
        img.len()
    );

    let results: Vec<PathResult> = ["owning_reader", "read_into_reuse", "slice_reader"]
        .into_iter()
        .map(|name| measure_path(&img, name))
        .collect();

    for r in &results {
        eprintln!(
            "[bench_ingest] {:<16} reader {:>12.0} pkts/s  {:.4} allocs/record \
             (steady-state {})  pipeline {:>10.0} pkts/s",
            r.name,
            r.reader_pkts_per_sec,
            r.reader_allocs_per_record,
            r.steady_state_reader_allocs,
            r.pipeline_pkts_per_sec,
        );
    }

    // The point of the fast path: strictly fewer allocations per record
    // than the owning reader, and a steady state that never allocates.
    let owning = &results[0];
    for fast in &results[1..] {
        assert!(
            fast.reader_allocs_per_record < owning.reader_allocs_per_record,
            "{} allocates as much as the owning reader",
            fast.name
        );
        assert_eq!(
            fast.steady_state_reader_allocs, 0,
            "{} allocated in steady state",
            fast.name
        );
    }

    // The batched hot path: type-sorted classification, whole-batch
    // analyzer ingest, and the windowed engine with arena recycling.
    let batch = measure_batch(&img, &records);
    eprintln!(
        "[bench_ingest] batch_classify   {:>12.0} pkts/s (steady-state allocs {})",
        batch.classify_pkts_per_sec, batch.steady_state_classify_allocs
    );
    eprintln!(
        "[bench_ingest] batch_pipeline   {:>12.0} pkts/s  windowed {:>10.0} pkts/s \
         ({:.6} steady-state allocs/record)",
        batch.pipeline_pkts_per_sec,
        batch.windowed_pipeline_pkts_per_sec,
        batch.windowed_steady_state_allocs_per_record,
    );
    assert_eq!(
        batch.steady_state_classify_allocs, 0,
        "warm batch classification touched the allocator"
    );
    assert!(
        batch.windowed_steady_state_allocs_per_record < 0.05,
        "windowed steady state allocates per record: {:.4}",
        batch.windowed_steady_state_allocs_per_record
    );

    // Continuity reference: the pre-PR-8 standard load (`multi_party`,
    // the canonical `sim:multi,seed=5,secs=60`), so the batch path can
    // be compared against the committed per-record trajectory on the
    // same footing despite the workload switch to campus-10x.
    let (ref_per_record, ref_batch) = {
        let mut v: Vec<Record> = MeetingSim::new(scenario::multi_party(5, 60 * SEC)).collect();
        v.sort_by_key(|r| r.ts_nanos);
        let mut w = Writer::new(Vec::new(), LinkType::Ethernet).expect("header");
        for r in &v {
            w.write_record(r).expect("record");
        }
        let ref_img = w.finish().expect("flush");
        let (n, secs) = best_of(|| analyze_via(&ref_img, "read_into_reuse"));
        let (bn, bsecs) = best_of(|| analyze_batched(&ref_img));
        assert_eq!(n, bn);
        (n as f64 / secs, bn as f64 / bsecs)
    };
    eprintln!(
        "[bench_ingest] reference (sim:multi,seed=5,secs=60): per-record \
         {ref_per_record:>10.0} pkts/s, batch {ref_batch:>10.0} pkts/s \
         ({:+.1}%)",
        (ref_batch - ref_per_record) / ref_per_record * 100.0
    );

    // The pcap image is only needed by the reader-path measurements;
    // drop it before the fan-in sections deal full copies of the trace.
    drop(img);
    let pcap_bytes: u64 = records.iter().map(|r| r.data.len() as u64 + 16).sum::<u64>() + 24;

    // Multi-source fan-in: the same trace dealt to two replay sources
    // and merged back by CaptureMux into the same batched analyzer. On
    // a multi-core box this should meet or beat the single-source
    // pipeline rate (capture overlaps analysis); on a single core the
    // thread hand-off is pure overhead — record the number honestly
    // either way.
    let (mn, multi_rate, multi_allocs) = analyze_multi_source(&records, 2);
    assert_eq!(mn, records.len() as u64, "multi-source lost records");
    eprintln!(
        "[bench_ingest] multi_source_2   pipeline {multi_rate:>10.0} pkts/s  \
         {multi_allocs:.4} fan-in allocs/record (setup amortized)"
    );

    // Distributed merge path: the same deal, but each worker's records
    // travel through the wire-framed fragment protocol before the
    // fan-in — the merge node's ingest cost.
    let (fn_, frag_rate, frag_allocs) = analyze_merge_fragments(&records, 2);
    assert_eq!(fn_, records.len() as u64, "fragment merge lost records");
    eprintln!(
        "[bench_ingest] merge_fragments  pipeline {frag_rate:>10.0} pkts/s  \
         {frag_allocs:.4} decode+fan-in allocs/record (setup amortized)"
    );

    // The per-PR trajectory: prior entries carried forward, this run
    // appended, deltas printed against the previous entry.
    let read_into_rate = results[1].pipeline_pkts_per_sec;
    let entries: Vec<(&str, f64)> = vec![
        ("read_into_pipeline_pkts_per_sec", read_into_rate),
        ("batch_pipeline_pkts_per_sec", batch.pipeline_pkts_per_sec),
        (
            "windowed_pipeline_pkts_per_sec",
            batch.windowed_pipeline_pkts_per_sec,
        ),
        ("multi_source_pipeline_pkts_per_sec", multi_rate),
        ("merge_pipeline_pkts_per_sec", frag_rate),
        ("reference_batch_pipeline_pkts_per_sec", ref_batch),
    ];
    let history = prior_history(&prior_text);
    print_deltas(history.last(), &entries);
    if let Some(path) = &gate_path {
        run_gate(path, &entries);
    }
    let pr = std::env::var("BENCH_PR")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or_else(|| {
            history
                .last()
                .and_then(|h| num_after(h, "", "pr"))
                .map(|v| v as u64 + 1)
                .unwrap_or(8)
        });
    let entry_fields = entries
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v:.1}"))
        .collect::<Vec<_>>()
        .join(", ");
    let new_entry = format!(
        "{{\"pr\": {pr}, \"git_sha\": \"{}\", \"workload\": \"{WORKLOAD}\", \
         \"machine\": \"{}\", \"entries\": {{{entry_fields}}}}}",
        git_short_sha(),
        machine_fingerprint()
    );

    let mut json = String::with_capacity(4096);
    json.push_str("{\n");
    json.push_str("  \"bench\": \"ingest\",\n");
    json.push_str(&format!("  \"workload\": \"{WORKLOAD}\",\n"));
    json.push_str(&format!("  \"records\": {},\n", records.len()));
    json.push_str(&format!("  \"pcap_bytes\": {pcap_bytes},\n"));
    json.push_str("  \"paths\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"reader_pkts_per_sec\": {:.1}, \
             \"reader_allocs_per_record\": {:.6}, \
             \"steady_state_reader_allocs\": {}, \
             \"pipeline_pkts_per_sec\": {:.1}}}{}\n",
            r.name,
            r.reader_pkts_per_sec,
            r.reader_allocs_per_record,
            r.steady_state_reader_allocs,
            r.pipeline_pkts_per_sec,
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"batch_pipeline\": {{\"batch_records\": {BATCH}, \
         \"classify_pkts_per_sec\": {:.1}, \"steady_state_classify_allocs\": {}, \
         \"pipeline_pkts_per_sec\": {:.1}, \"windowed_pipeline_pkts_per_sec\": {:.1}, \
         \"windowed_steady_state_allocs_per_record\": {:.6}}},\n",
        batch.classify_pkts_per_sec,
        batch.steady_state_classify_allocs,
        batch.pipeline_pkts_per_sec,
        batch.windowed_pipeline_pkts_per_sec,
        batch.windowed_steady_state_allocs_per_record,
    ));
    json.push_str(&format!(
        "  \"reference\": {{\"workload\": \"sim:multi,seed=5,secs=60\", \
         \"per_record_pkts_per_sec\": {ref_per_record:.1}, \
         \"batch_pkts_per_sec\": {ref_batch:.1}}},\n",
    ));
    json.push_str(&format!(
        "  \"multi_source\": {{\"sources\": 2, \"pipeline_pkts_per_sec\": {:.1}, \
         \"fanin_allocs_per_record\": {:.6}}},\n",
        multi_rate, multi_allocs,
    ));
    json.push_str(&format!(
        "  \"merge_fragments\": {{\"workers\": 2, \"pipeline_pkts_per_sec\": {:.1}, \
         \"fanin_allocs_per_record\": {:.6}}},\n",
        frag_rate, frag_allocs,
    ));
    json.push_str("  \"history\": [\n");
    for h in &history {
        json.push_str(&format!("    {h},\n"));
    }
    json.push_str(&format!("    {new_entry}\n"));
    json.push_str("  ]\n");
    json.push_str("}\n");

    let mut f = std::fs::File::create(&out_path).expect("create output file");
    f.write_all(json.as_bytes()).expect("write json");
    println!("[json] {out_path}");
}

//! Structured causal tracing for the capture → analysis → merge pipeline.
//!
//! The metrics registry ([`super::PipelineMetrics`]) answers *how much*:
//! cumulative counters say how many packets were classified, dropped, or
//! evicted. This module answers *where it went*: a sampled
//! [`RecordBatch`](zoom_wire::handoff::RecordBatch) is tagged with a
//! **trace ID** at its capture source, and every stage it passes through
//! (source read → ring enqueue/dequeue → dissect → engine push → window
//! emit → fragment encode → merge decode) records one span event against
//! that ID. The result is a causal tree per sampled batch, exportable as
//! pinned-schema NDJSON (`analyze --trace out.ndjson`) and inspectable
//! live through the `/debug/trace` route of [`super::serve`].
//!
//! Like the rest of `obs`, the collector is vendored and std-only — no
//! tracing crates — and lock-light: the hot path pays a single relaxed
//! atomic load while tracing is off, and one short uncontended mutex
//! push per *batch* (never per packet) while it is on. Trace output is a
//! side channel: recording a span never changes analysis state, so every
//! differential suite stays byte-identical with tracing enabled.
//!
//! # Trace IDs and determinism
//!
//! IDs are derived, not random: `mix(node_label_hash, batch_ordinal)`,
//! where the node label names the process (`worker:box-a`, `merge`) and
//! the ordinal counts sampled batches. Two runs over the same seeded sim
//! trace therefore produce the same ID sequence, which is what lets the
//! CI smoke job and the stitching tests pin trace structure without
//! pinning wall-clock timings.
//!
//! # Cross-process stitching
//!
//! A worker running `analyze --emit-fragments --trace` ships its span
//! events ahead of the records they annotate in a `Trace` frame
//! (`zoom_wire::frame::KIND_TRACE`). The merge node ingests those
//! foreign events verbatim ([`TraceCollector::ingest_foreign`]) and tags
//! the decoded batch with the same trace ID, so merge-side spans join
//! the worker's tree and the merged NDJSON tells the whole story:
//! `worker:box-a/source_read → … → merge/merge_decode → merge/window_emit`.
//!
//! # Event schema (pinned)
//!
//! One JSON object per line:
//!
//! ```json
//! {"type":"trace_span","trace_id":"00c0ffee00c0ffee","span":"source_read",
//!  "node":"worker:box-a","site":"pcap:a.pcap","ts_nanos":1200,
//!  "dur_nanos":830,"records":1024}
//! ```
//!
//! `ts_nanos` is monotonic time since the collector was created (never
//! wall-clock — traces from different machines are ordered by causality,
//! not clocks); `dur_nanos` is 0 for point events; `records` is the
//! batch size the span covered (window count for `window_emit`). The
//! span names are closed over [`SPAN_CATALOGUE`].

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ------------------------------------------------------ span catalogue --

/// Span names, one per pipeline stage. Closed set: every event's `span`
/// field is one of [`SPAN_CATALOGUE`] (foreign events re-ingested on a
/// merge node were validated by the emitting worker).
pub mod spans {
    /// The fan-in filled one batch from a packet source.
    pub const SOURCE_READ: &str = "source_read";
    /// Reserved, not emitted: a capture thread's push onto the hand-off
    /// ring it no longer has (every source is read in-line). Kept in the
    /// catalogue, as [`SHARD_ROUTE`] is, because the benchmark's layer
    /// table pins the set.
    pub const RING_ENQUEUE: &str = "ring_enqueue";
    /// Reserved, not emitted: the fan-in's pop off that ring.
    pub const RING_DEQUEUE: &str = "ring_dequeue";
    /// The sequential analyzer dissected + classified the batch.
    pub const DISSECT: &str = "dissect";
    /// Reserved, not emitted: the hop of the removed threaded shard
    /// tier. The name stays in the catalogue because the exported
    /// schema (and the benchmark's layer table) pins the set.
    pub const SHARD_ROUTE: &str = "shard_route";
    /// The streaming engine ingested the batch (peek, route, ticks).
    pub const ENGINE_PUSH: &str = "engine_push";
    /// Closed windows were handed to the caller (`records` = windows).
    pub const WINDOW_EMIT: &str = "window_emit";
    /// A worker encoded the batch into a wire-framed fragment.
    pub const FRAGMENT_ENCODE: &str = "fragment_encode";
    /// The merge node decoded the batch out of a worker's stream.
    pub const MERGE_DECODE: &str = "merge_decode";
}

/// Every span name a conforming event may carry, in pipeline order.
pub const SPAN_CATALOGUE: &[&str] = &[
    spans::SOURCE_READ,
    spans::RING_ENQUEUE,
    spans::RING_DEQUEUE,
    spans::DISSECT,
    spans::SHARD_ROUTE,
    spans::ENGINE_PUSH,
    spans::WINDOW_EMIT,
    spans::FRAGMENT_ENCODE,
    spans::MERGE_DECODE,
];

// ------------------------------------------------------------- bounds --

/// Export-queue bound, in events. A drain (`--trace` file tick or the
/// fragment-emit flush) empties it; if nothing drains, the oldest events
/// are dropped and counted, never silently lost to unbounded memory.
pub const EVENT_CAP: usize = 65_536;

/// `/debug/trace` tail-ring bound, in events. The tail is never drained
/// by exports — it always holds the most recent spans for live
/// introspection.
pub const TAIL_CAP: usize = 4_096;

// ------------------------------------------------------------- events --

#[derive(Debug, Clone)]
struct TraceEvent {
    trace_id: u64,
    /// The fully rendered NDJSON line (no trailing newline). Foreign
    /// events ingested off the wire keep the emitting node's line
    /// verbatim.
    line: String,
}

/// Escape a string for embedding in a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// FNV-1a over the label bytes: a tiny, dependency-free, stable hash for
/// deriving deterministic trace IDs from node labels.
fn label_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// SplitMix64 finalizer: spreads the ordinal across the ID space so IDs
/// from one node don't form a visible arithmetic sequence.
fn mix(h: u64, ordinal: u64) -> u64 {
    let mut z = h ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------- collector --

/// The per-process trace collector, embedded in
/// [`super::PipelineMetrics`] so every stage that already holds the
/// metrics `Arc` can record spans with no extra plumbing.
///
/// Disabled by default: [`is_enabled`](TraceCollector::is_enabled) is a
/// single relaxed load, and a disabled collector records nothing — the
/// batch pipeline's rate is unaffected with tracing off.
#[derive(Debug)]
pub struct TraceCollector {
    /// 0 = disabled; otherwise the sampling period (1 = every batch,
    /// N = every Nth batch per this node's ordinal counter).
    sample_every: AtomicU64,
    /// FNV hash of the node label, fixed at [`enable`](Self::enable).
    node_hash: AtomicU64,
    /// Sampled-batch ordinal (drives both sampling and ID derivation).
    seq: AtomicU64,
    /// Most recent trace ID seen by a sink (`0` = none yet); window
    /// emits attach to it so a window joins the batch that closed it.
    last_id: AtomicU64,
    /// Events recorded (locally or ingested) since creation.
    recorded: AtomicU64,
    /// Events dropped at [`EVENT_CAP`] because nothing drained the
    /// export queue.
    dropped: AtomicU64,
    /// Node label, set at enable time (`analyze`, `worker:box-a`, …).
    node: Mutex<String>,
    /// Export queue: drained by `--trace` writers and fragment emitters.
    events: Mutex<VecDeque<TraceEvent>>,
    /// Live tail for `/debug/trace?n=K`; a bounded ring, never drained.
    tail: Mutex<VecDeque<TraceEvent>>,
    /// Per-`node;span` totals for the folded-stacks self-profile:
    /// `(count, dur_nanos_sum)` keyed by span name (local events only).
    fold: Mutex<Vec<(String, u64, u64)>>,
    /// Monotonic zero for every `ts_nanos` this collector renders.
    start: Instant,
}

impl Default for TraceCollector {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceCollector {
    /// A disabled collector (node label `analyze` until
    /// [`enable`](Self::enable) names it).
    pub fn new() -> TraceCollector {
        TraceCollector {
            sample_every: AtomicU64::new(0),
            node_hash: AtomicU64::new(label_hash("analyze")),
            seq: AtomicU64::new(0),
            last_id: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            node: Mutex::new("analyze".to_string()),
            events: Mutex::new(VecDeque::new()),
            tail: Mutex::new(VecDeque::new()),
            fold: Mutex::new(Vec::new()),
            start: Instant::now(),
        }
    }

    /// Turn tracing on: sample one batch in `sample_every` (clamped to
    /// ≥ 1) and stamp every event with `node`. Idempotent; meant to be
    /// called once at startup, before the fan-in reads a source.
    pub fn enable(&self, sample_every: u64, node: &str) {
        *self.node.lock().unwrap() = node.to_string();
        self.node_hash.store(label_hash(node), Ordering::Relaxed);
        self.sample_every
            .store(sample_every.max(1), Ordering::Relaxed);
    }

    /// Whether any stage should bother recording. One relaxed load — the
    /// entire hot-path cost while tracing is off.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sample_every.load(Ordering::Relaxed) != 0
    }

    /// The sampling period (0 while disabled).
    pub fn sample_period(&self) -> u64 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// The node label events are stamped with.
    pub fn node(&self) -> String {
        self.node.lock().unwrap().clone()
    }

    /// `(recorded, dropped)` event totals since creation.
    pub fn event_counts(&self) -> (u64, u64) {
        (
            self.recorded.load(Ordering::Relaxed),
            self.dropped.load(Ordering::Relaxed),
        )
    }

    /// Nanoseconds since the collector was created (the `ts_nanos`
    /// epoch).
    pub fn now_nanos(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Sampling decision at a capture/ingest site: advance the batch
    /// ordinal and return a fresh deterministic trace ID for one batch
    /// in every `sample_every`. `None` while disabled or for unsampled
    /// batches.
    pub fn sample(&self) -> Option<u64> {
        let every = self.sample_every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let n = self.seq.fetch_add(1, Ordering::Relaxed);
        if !n.is_multiple_of(every) {
            return None;
        }
        // `| 1` keeps 0 reserved for "untraced".
        Some(mix(self.node_hash.load(Ordering::Relaxed), n) | 1)
    }

    /// The most recent trace ID a sink noted (0 = none). Window emits
    /// attach to this so a closed window joins the batch whose push
    /// closed it.
    pub fn last_trace_id(&self) -> u64 {
        self.last_id.load(Ordering::Relaxed)
    }

    /// Note that a sink just processed a batch carrying `trace_id`.
    #[inline]
    pub fn note_trace(&self, trace_id: u64) {
        self.last_id.store(trace_id, Ordering::Relaxed);
    }

    /// Record one span event against `trace_id`. `dur_nanos` is 0 for
    /// point events; `records` is whatever population the span covered.
    /// Costs one line render and two short uncontended mutex pushes —
    /// per batch, never per packet.
    pub fn record(
        &self,
        trace_id: u64,
        span: &'static str,
        site: &str,
        records: u64,
        dur_nanos: u64,
    ) {
        if trace_id == 0 || !self.is_enabled() {
            return;
        }
        let ts_nanos = self.now_nanos().saturating_sub(dur_nanos);
        let node = self.node.lock().unwrap().clone();
        let mut line = String::with_capacity(160);
        line.push_str("{\"type\":\"trace_span\",\"trace_id\":\"");
        line.push_str(&format!("{trace_id:016x}"));
        line.push_str("\",\"span\":\"");
        line.push_str(span);
        line.push_str("\",\"node\":\"");
        json_escape(&node, &mut line);
        line.push_str("\",\"site\":\"");
        json_escape(site, &mut line);
        line.push_str(&format!(
            "\",\"ts_nanos\":{ts_nanos},\"dur_nanos\":{dur_nanos},\"records\":{records}}}"
        ));
        {
            let mut fold = self.fold.lock().unwrap();
            match fold.iter_mut().find(|(s, _, _)| s == span) {
                Some((_, count, dur)) => {
                    *count += 1;
                    *dur += dur_nanos;
                }
                None => fold.push((span.to_string(), 1, dur_nanos)),
            }
        }
        self.push_event(TraceEvent { trace_id, line });
    }

    /// Ingest span events another process shipped over the wire (the
    /// payload of a `Trace` frame): one pre-rendered NDJSON line per
    /// event, stored verbatim so the emitting node's labels and
    /// timestamps survive the hop.
    pub fn ingest_foreign(&self, trace_id: u64, ndjson: &[u8]) {
        if !self.is_enabled() {
            return;
        }
        for line in String::from_utf8_lossy(ndjson).lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            self.push_event(TraceEvent {
                trace_id,
                line: line.to_string(),
            });
        }
    }

    fn push_event(&self, ev: TraceEvent) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        {
            let mut tail = self.tail.lock().unwrap();
            if tail.len() >= TAIL_CAP {
                tail.pop_front();
            }
            tail.push_back(ev.clone());
        }
        let mut events = self.events.lock().unwrap();
        if events.len() >= EVENT_CAP {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(ev);
    }

    /// Drain the export queue as NDJSON (one event per line, recording
    /// order). Empty string when nothing accumulated.
    pub fn drain_ndjson(&self) -> String {
        let mut events = self.events.lock().unwrap();
        let mut out = String::new();
        for ev in events.drain(..) {
            out.push_str(&ev.line);
            out.push('\n');
        }
        out
    }

    /// Drain only the events of `trace_id` from the export queue, as
    /// NDJSON — the payload a worker ships in a `Trace` frame just
    /// before the Records frame the ID annotates. Other traces' events
    /// stay queued.
    pub fn drain_trace_ndjson(&self, trace_id: u64) -> String {
        let mut events = self.events.lock().unwrap();
        let mut out = String::new();
        events.retain(|ev| {
            if ev.trace_id == trace_id {
                out.push_str(&ev.line);
                out.push('\n');
                false
            } else {
                true
            }
        });
        out
    }

    /// The `/debug/trace?n=K` payload: the last `n` distinct trace IDs
    /// in the live tail, each rendered as one NDJSON line
    /// `{"trace_id":"…","spans":[<events>]}`, oldest first.
    pub fn tail_ndjson(&self, n: usize) -> String {
        let tail = self.tail.lock().unwrap();
        let mut ids: Vec<u64> = Vec::new();
        for ev in tail.iter().rev() {
            if !ids.contains(&ev.trace_id) {
                ids.push(ev.trace_id);
                if ids.len() == n {
                    break;
                }
            }
        }
        ids.reverse();
        let mut out = String::new();
        for id in ids {
            out.push_str(&format!("{{\"trace_id\":\"{id:016x}\",\"spans\":["));
            let mut first = true;
            for ev in tail.iter().filter(|e| e.trace_id == id) {
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&ev.line);
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Fold the per-span latency totals into flamegraph "folded stacks"
    /// lines (`node;span dur_nanos_sum`), sorted by span name — the
    /// `--self-profile` output, ready for `flamegraph.pl` or speedscope.
    pub fn folded_stacks(&self) -> String {
        let node = self.node.lock().unwrap().clone();
        let mut fold = self.fold.lock().unwrap().clone();
        fold.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::new();
        for (span, count, dur) in fold {
            out.push_str(&format!("{node};{span} {dur} # count={count}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_collector_records_nothing() {
        let tc = TraceCollector::new();
        assert!(!tc.is_enabled());
        assert_eq!(tc.sample(), None);
        tc.record(7, spans::DISSECT, "x", 10, 5);
        assert_eq!(tc.event_counts(), (0, 0));
        assert!(tc.drain_ndjson().is_empty());
    }

    #[test]
    fn trace_ids_are_deterministic_per_node_and_ordinal() {
        let a = TraceCollector::new();
        a.enable(1, "worker:box-a");
        let b = TraceCollector::new();
        b.enable(1, "worker:box-a");
        let ids_a: Vec<u64> = (0..4).map(|_| a.sample().unwrap()).collect();
        let ids_b: Vec<u64> = (0..4).map(|_| b.sample().unwrap()).collect();
        assert_eq!(ids_a, ids_b, "same node + ordinal → same IDs");
        assert!(ids_a.iter().all(|&id| id != 0));
        let other = TraceCollector::new();
        other.enable(1, "worker:box-b");
        assert_ne!(other.sample().unwrap(), ids_a[0], "nodes get distinct IDs");
    }

    #[test]
    fn sampling_period_skips_batches() {
        let tc = TraceCollector::new();
        tc.enable(4, "analyze");
        let picks: Vec<bool> = (0..8).map(|_| tc.sample().is_some()).collect();
        assert_eq!(
            picks,
            [true, false, false, false, true, false, false, false]
        );
    }

    #[test]
    fn event_lines_follow_the_pinned_schema() {
        let tc = TraceCollector::new();
        tc.enable(1, "worker:box-a");
        let id = tc.sample().unwrap();
        tc.record(id, spans::SOURCE_READ, "pcap:a.pcap", 1024, 830);
        let out = tc.drain_ndjson();
        let line = out.lines().next().unwrap();
        assert!(line.starts_with("{\"type\":\"trace_span\",\"trace_id\":\""));
        for key in [
            &format!("\"trace_id\":\"{id:016x}\"") as &str,
            "\"span\":\"source_read\"",
            "\"node\":\"worker:box-a\"",
            "\"site\":\"pcap:a.pcap\"",
            "\"ts_nanos\":",
            "\"dur_nanos\":830",
            "\"records\":1024",
        ] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        // Drained once: the export queue is empty, the tail still serves.
        assert!(tc.drain_ndjson().is_empty());
        assert!(tc.tail_ndjson(8).contains(&format!("{id:016x}")));
    }

    #[test]
    fn labels_are_json_escaped() {
        let tc = TraceCollector::new();
        tc.enable(1, "node\"with\\quirks");
        let id = tc.sample().unwrap();
        tc.record(id, spans::DISSECT, "pcap:odd\nname", 1, 0);
        let out = tc.drain_ndjson();
        assert!(out.contains("node\\\"with\\\\quirks"));
        assert!(out.contains("pcap:odd\\nname"));
    }

    #[test]
    fn per_trace_drain_leaves_other_traces_queued() {
        let tc = TraceCollector::new();
        tc.enable(1, "worker:box-a");
        let id1 = tc.sample().unwrap();
        let id2 = tc.sample().unwrap();
        tc.record(id1, spans::SOURCE_READ, "s", 8, 0);
        tc.record(id2, spans::SOURCE_READ, "s", 8, 0);
        tc.record(id1, spans::DISSECT, "s", 8, 0);
        let one = tc.drain_trace_ndjson(id1);
        assert_eq!(one.lines().count(), 2);
        assert!(one.lines().all(|l| l.contains(&format!("{id1:016x}"))));
        let rest = tc.drain_ndjson();
        assert_eq!(rest.lines().count(), 1);
        assert!(rest.contains(&format!("{id2:016x}")));
    }

    #[test]
    fn foreign_events_survive_verbatim_and_stitch_by_id() {
        let worker = TraceCollector::new();
        worker.enable(1, "worker:box-a");
        let id = worker.sample().unwrap();
        worker.record(id, spans::SOURCE_READ, "pcap:a.pcap", 512, 100);
        worker.record(id, spans::FRAGMENT_ENCODE, "frag", 512, 50);
        let shipped = worker.drain_trace_ndjson(id);

        let merge = TraceCollector::new();
        merge.enable(1, "merge");
        merge.ingest_foreign(id, shipped.as_bytes());
        merge.record(id, spans::MERGE_DECODE, "worker:box-a", 512, 75);
        let stitched = merge.drain_ndjson();
        assert_eq!(stitched.lines().count(), 3);
        // Every line carries the one trace ID; node labels show both
        // sides of the hop.
        assert!(stitched.lines().all(|l| l.contains(&format!("{id:016x}"))));
        assert!(stitched.contains("\"node\":\"worker:box-a\""));
        assert!(stitched.contains("\"node\":\"merge\""));
        // The tail groups them under one trace for /debug/trace.
        let tail = merge.tail_ndjson(4);
        assert_eq!(tail.lines().count(), 1);
        assert!(tail.contains("\"spans\":[{"));
    }

    #[test]
    fn export_queue_is_bounded_and_drops_are_counted() {
        let tc = TraceCollector::new();
        tc.enable(1, "analyze");
        let id = tc.sample().unwrap();
        for _ in 0..(EVENT_CAP + 10) {
            tc.record(id, spans::DISSECT, "s", 1, 0);
        }
        let (recorded, dropped) = tc.event_counts();
        assert_eq!(recorded, (EVENT_CAP + 10) as u64);
        assert_eq!(dropped, 10);
        assert_eq!(tc.drain_ndjson().lines().count(), EVENT_CAP);
    }

    #[test]
    fn folded_stacks_aggregate_durations() {
        let tc = TraceCollector::new();
        tc.enable(1, "analyze");
        let id = tc.sample().unwrap();
        tc.record(id, spans::DISSECT, "s", 10, 300);
        tc.record(id, spans::DISSECT, "s", 10, 200);
        tc.record(id, spans::WINDOW_EMIT, "s", 1, 50);
        let folded = tc.folded_stacks();
        assert!(folded.contains("analyze;dissect 500 # count=2"));
        assert!(folded.contains("analyze;window_emit 50 # count=1"));
    }

    #[test]
    fn window_emit_attaches_to_last_noted_trace() {
        let tc = TraceCollector::new();
        tc.enable(1, "analyze");
        assert_eq!(tc.last_trace_id(), 0);
        let id = tc.sample().unwrap();
        tc.note_trace(id);
        assert_eq!(tc.last_trace_id(), id);
    }
}

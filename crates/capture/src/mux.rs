//! N-sources → one-engine fan-in with bounded lock-free hand-off.
//!
//! [`CaptureMux`] runs one capture thread per [`PacketSource`]
//! ([`CaptureMux::start`]; sources that never make their reader wait —
//! finite files — or a lone lossless one can instead be read in-line on
//! the consumer's thread, [`CaptureMux::inline`]). Each
//! thread pulls record batches off its source and offers them to the
//! analysis side through a bounded SPSC ring ([`crate::ring`]), so
//! **capture never blocks on analysis**: when the ring is full the
//! thread either drops the batch with exact accounting
//! ([`Overflow::Drop`], live semantics — the drop lands in
//! `ring_full_drops` and stays inside the conservation invariant) or
//! holds it and retries ([`Overflow::Block`], lossless replay semantics
//! for trace files, where the "capture" can wait because the data
//! already sits on disk).
//!
//! The consuming side merges the per-source streams into one
//! deterministic, timestamp-ordered record sequence: the next record is
//! always the minimum `(ts_nanos, lane_index)` across lanes, which is
//! what makes an N-source run byte-identical to the equivalent
//! single-source run (pinned by `tests/multi_source_differential.rs`).
//! Exhausted batches are recycled back to their capture thread through a
//! second ring, so the steady state allocates nothing on either side.
//!
//! Per-source accounting (`packets`, `bytes`, `batches`,
//! `ring_full_drops`) is threaded into a
//! [`zoom_analysis::obs::PipelineMetrics`] registry when one is supplied
//! to [`CaptureMux::start`], extending the pipeline's conservation
//! invariant upstream over capture (see
//! [`MetricsSnapshot::conservation_holds`](zoom_analysis::obs::MetricsSnapshot::conservation_holds)).
//!
//! ```
//! use zoom_capture::mux::{CaptureMux, MuxConfig};
//! use zoom_capture::source::ReplaySource;
//! use zoom_wire::pcap::{LinkType, Record};
//!
//! let even: Vec<Record> = (0..4).map(|i| Record::full(2 * i, vec![0; 60])).collect();
//! let odd: Vec<Record> = (0..4).map(|i| Record::full(2 * i + 1, vec![0; 60])).collect();
//! let mut mux = CaptureMux::start(
//!     vec![
//!         Box::new(ReplaySource::new("replay:even", LinkType::Ethernet, even)),
//!         Box::new(ReplaySource::new("replay:odd", LinkType::Ethernet, odd)),
//!     ],
//!     MuxConfig::default(),
//!     None,
//! );
//! let mut ts = Vec::new();
//! while let Some(r) = mux.next_record()? {
//!     ts.push(r.ts_nanos);
//! }
//! assert_eq!(ts, vec![0, 1, 2, 3, 4, 5, 6, 7]); // merged in time order
//! mux.finish()?;
//! # Ok::<(), zoom_capture::source::SourceError>(())
//! ```

use crate::ring::{self, Consumer, Producer};
use crate::source::{PacketSource, SourceError, BATCH_BYTES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use zoom_analysis::obs::trace::{spans, TraceCollector};
use zoom_analysis::obs::{LaneKind, PipelineMetrics, SourceMetrics};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

/// What a capture thread does when its hand-off ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Overflow {
    /// Hold the batch and retry until the consumer frees a slot —
    /// lossless, for replaying trace files where the producer can wait.
    Block,
    /// Drop the batch and count every record in `ring_full_drops` —
    /// live-capture semantics: the tap keeps up, the monitor owns the
    /// loss and accounts for it.
    Drop,
}

/// Fan-in tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MuxConfig {
    /// Hand-off ring depth per source, in batches (not records). With
    /// `BATCH_RECORDS`-sized batches the default of 8 buffers ~1k
    /// records per source; see `docs/CAPTURE.md` for the sizing math.
    pub ring_capacity: usize,
    /// Full-ring policy; [`Overflow::Block`] by default (file replay).
    pub overflow: Overflow,
}

impl Default for MuxConfig {
    fn default() -> MuxConfig {
        MuxConfig {
            ring_capacity: 8,
            overflow: Overflow::Block,
        }
    }
}

/// Capture-thread-side counters for one lane, read by the consumer for
/// stats and by tests for exact drop accounting.
#[derive(Debug, Default)]
struct LaneCounters {
    packets: AtomicU64,
    bytes: AtomicU64,
    batches: AtomicU64,
    ring_full_drops: AtomicU64,
    truncated: AtomicU64,
}

/// State shared between one capture thread and the consumer.
struct LaneShared {
    counters: LaneCounters,
    obs: Option<Arc<SourceMetrics>>,
    /// Pipeline trace collector; capture threads sample batches here and
    /// stamp the winners' `trace_id` so downstream stages can attribute
    /// their spans. Disabled collectors cost one relaxed load per batch.
    trace: Option<Arc<TraceCollector>>,
    error: Mutex<Option<String>>,
}

/// Plain-data copy of one lane's capture-side counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// The source's display label.
    pub label: String,
    /// Records the capture thread pulled off the source.
    pub packets: u64,
    /// Captured bytes across those records.
    pub bytes: u64,
    /// Batches handed to (or dropped at) the ring.
    pub batches: u64,
    /// Records dropped at a full ring ([`Overflow::Drop`] only).
    pub ring_full_drops: u64,
    /// Records the source itself dropped (e.g. a torn pcap tail).
    pub truncated: u64,
}

/// One record borrowed from the merged stream, tagged with its lane.
#[derive(Debug, Clone, Copy)]
pub struct MuxRecord<'a> {
    /// Capture timestamp in nanoseconds.
    pub ts_nanos: u64,
    /// Original on-the-wire length.
    pub orig_len: u32,
    /// The producing source's link type.
    pub link: LinkType,
    /// Index of the producing source (order given to
    /// [`CaptureMux::start`]).
    pub source: usize,
    /// Captured bytes, borrowed from the lane's current batch.
    pub data: &'a [u8],
}

/// Where a lane's batches come from.
enum Feed {
    /// A capture thread behind a ring pair: filled batches arrive on `rx`,
    /// spent arenas go back down `recycle_tx`.
    Thread {
        rx: Consumer<RecordBatch>,
        recycle_tx: Producer<RecordBatch>,
        thread: Option<std::thread::JoinHandle<()>>,
    },
    /// The source itself, read on the consumer's thread
    /// ([`CaptureMux::inline`]): no thread, no ring.
    Inline {
        source: Box<dyn PacketSource>,
        /// The cleared arena the next read fills.
        spare: RecordBatch,
        /// Whether the source may still yield records.
        live: bool,
    },
}

struct Lane {
    label: String,
    link: LinkType,
    feed: Feed,
    shared: Arc<LaneShared>,
    /// Batch currently being consumed, with the cursor of the next
    /// record to emit.
    current: Option<(RecordBatch, usize)>,
    done: bool,
}

impl Lane {
    /// A lane over `source` — its label, link type and registration on
    /// `metrics` as a lane of `kind` — fed by whatever `feed` makes of the
    /// source and the state the lane shares with it.
    fn new(
        source: Box<dyn PacketSource>,
        metrics: Option<&PipelineMetrics>,
        kind: LaneKind,
        feed: impl FnOnce(Box<dyn PacketSource>, &Arc<LaneShared>) -> Feed,
    ) -> Lane {
        let label = source.label().to_string();
        let shared = Arc::new(LaneShared {
            counters: LaneCounters::default(),
            obs: metrics.map(|m| m.register_source(&label, kind)),
            trace: metrics.map(|m| Arc::clone(&m.trace)),
            error: Mutex::new(None),
        });
        Lane {
            label,
            link: source.link_type(),
            feed: feed(source, &shared),
            shared,
            current: None,
            done: false,
        }
    }

    /// Peeks the timestamp of this lane's next record, `Ok(None)` if the
    /// lane has nothing buffered right now.
    fn peek_ts(&self) -> Option<u64> {
        let (batch, cursor) = self.current.as_ref()?;
        batch.get(*cursor).map(|r| r.ts_nanos)
    }

    /// Returns a cleared arena to whoever fills this lane's batches.
    fn recycle(&mut self, batch: RecordBatch) {
        match &mut self.feed {
            Feed::Thread { recycle_tx, .. } => {
                let _ = recycle_tx.try_push(batch);
            }
            Feed::Inline { spare, .. } => *spare = batch,
        }
    }

    /// Tries to make `current` hold an unconsumed record. Returns false
    /// while the lane is live but momentarily empty.
    fn refill(&mut self) -> Result<bool, SourceError> {
        loop {
            if let Some((batch, cursor)) = &self.current {
                if *cursor < batch.len() {
                    return Ok(true);
                }
                // Exhausted: hand the batch back for reuse.
                let (mut batch, _) = self.current.take().expect("checked above");
                batch.clear();
                self.recycle(batch);
            }
            let batch = match &mut self.feed {
                Feed::Thread { rx, .. } => match rx.try_pop() {
                    Some(batch) if !batch.is_empty() => {
                        if let Some(obs) = &self.shared.obs {
                            obs.ring_occupancy.set(rx.len() as u64);
                        }
                        if batch.trace_id != 0 {
                            if let Some(tc) = &self.shared.trace {
                                tc.record(
                                    batch.trace_id,
                                    spans::RING_DEQUEUE,
                                    &self.label,
                                    batch.len() as u64,
                                    0,
                                );
                            }
                        }
                        batch
                    }
                    Some(_) => continue, // empty batch: recycle via the loop
                    None if rx.is_closed() => {
                        self.done = true;
                        if let Some(msg) = self.shared.error.lock().unwrap().take() {
                            return Err(SourceError::Format(msg));
                        }
                        return Ok(false);
                    }
                    None => return Ok(false),
                },
                Feed::Inline {
                    source,
                    spare,
                    live,
                } => {
                    if !*live {
                        self.done = true;
                        self.shared
                            .counters
                            .truncated
                            .store(source.truncated_records(), Ordering::Release);
                        return Ok(false);
                    }
                    let mut batch = std::mem::take(spare);
                    let read_start = Instant::now();
                    match source.next_batch(&mut batch) {
                        Ok(more) => *live = more,
                        Err(e) => {
                            self.done = true;
                            return Err(SourceError::Format(format!("{}: {e}", self.label)));
                        }
                    }
                    if batch.is_empty() {
                        // A live source with nothing new yet (it paced the
                        // poll itself), or the end: the next call decides.
                        *spare = batch;
                        if *live {
                            return Ok(false);
                        }
                        continue;
                    }
                    note_read(&self.shared, &self.label, &mut batch, read_start);
                    batch
                }
            };
            if let Some(obs) = &self.shared.obs {
                if let Some(last) = batch.get(batch.len() - 1) {
                    // How far this lane's delivered stream has advanced;
                    // per-source lag is derived from the spread of these
                    // at render time.
                    obs.delivered_ts_nanos.set(last.ts_nanos);
                }
            }
            self.current = Some((batch, 0));
            return Ok(true);
        }
    }
}

/// The fan-in: one capture thread per source, a deterministic
/// `(ts, lane)` merge on the consuming side. See the
/// [module documentation](self) for semantics and a usage example.
pub struct CaptureMux {
    lanes: Vec<Lane>,
    /// Records handed to the consumer so far (post-merge).
    delivered: u64,
    /// Captured bytes across delivered records.
    delivered_bytes: u64,
}

impl CaptureMux {
    /// Spawns one capture thread per source and returns the consuming
    /// end. When `metrics` is given, every source is registered on it
    /// (appearing in snapshots and the extended conservation invariant).
    pub fn start(
        sources: Vec<Box<dyn PacketSource>>,
        config: MuxConfig,
        metrics: Option<&PipelineMetrics>,
    ) -> CaptureMux {
        let capacity = config.ring_capacity.max(1);
        let lanes = sources.into_iter().map(|source| {
            Lane::new(source, metrics, LaneKind::Threaded, |source, shared| {
                let (tx, rx) = ring::spsc::<RecordBatch>(capacity);
                let (recycle_tx, recycle_rx) = ring::spsc::<RecordBatch>(capacity + 2);
                let shared = Arc::clone(shared);
                let thread = std::thread::spawn(move || {
                    capture_thread(source, tx, recycle_rx, shared, config.overflow)
                });
                Feed::Thread {
                    rx,
                    recycle_tx,
                    thread: Some(thread),
                }
            })
        });
        CaptureMux {
            lanes: lanes.collect(),
            delivered: 0,
            delivered_bytes: 0,
        }
    }

    /// A fan-in that spawns nothing: every source is read on the thread
    /// that calls [`next_batch`](CaptureMux::next_batch) /
    /// [`next_record`](CaptureMux::next_record), straight into the arena
    /// the merge scan then draws from (and, when nothing interleaves with
    /// it, hands to the caller). Same records, same order, same accounting
    /// as [`start`](CaptureMux::start) over the same sources under
    /// [`Overflow::Block`] — there a capture thread waits for the consumer
    /// anyway, so all the thread buys is read-ahead on a second core, and
    /// only when the scheduler grants one. In-line, a pass costs the same
    /// wall time whether it gets one core or two. Meant for one source, or
    /// for sources that always have their next batch ready (finite files):
    /// a quiet live source paces its poll by sleeping, and in-line that
    /// sleep stalls every lane. Nothing is ever dropped (`ring_full_drops`
    /// stays 0) and the ring gauges and `ring_enqueue` / `ring_dequeue`
    /// spans do not appear: there is no ring.
    pub fn inline(
        sources: Vec<Box<dyn PacketSource>>,
        metrics: Option<&PipelineMetrics>,
    ) -> CaptureMux {
        let lanes = sources.into_iter().map(|source| {
            Lane::new(source, metrics, LaneKind::Inline, |source, _| {
                Feed::Inline {
                    source,
                    spare: RecordBatch::new(),
                    live: true,
                }
            })
        });
        CaptureMux {
            lanes: lanes.collect(),
            delivered: 0,
            delivered_bytes: 0,
        }
    }

    /// The next record in merged timestamp order, blocking while a live
    /// lane is momentarily empty (analysis may wait for capture; never
    /// the reverse). `Ok(None)` once every source is exhausted.
    pub fn next_record(&mut self) -> Result<Option<MuxRecord<'_>>, SourceError> {
        let best = loop {
            let mut best: Option<(u64, usize)> = None;
            let mut waiting = false;
            for i in 0..self.lanes.len() {
                let lane = &mut self.lanes[i];
                if lane.done {
                    continue;
                }
                if !lane.refill()? {
                    if !lane.done {
                        waiting = true;
                    }
                    continue;
                }
                let ts = lane.peek_ts().expect("refill returned true");
                if best.map(|(bts, _)| ts < bts).unwrap_or(true) {
                    best = Some((ts, i));
                }
            }
            if waiting {
                // Some live lane has nothing buffered yet: emitting from
                // another lane now could break global timestamp order
                // (the quiet lane may still produce an older record), so
                // strict (ts, lane) determinism means waiting for it.
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            match best {
                Some((_, i)) => break i,
                None => return Ok(None),
            }
        };
        let lane = &mut self.lanes[best];
        let (batch, cursor) = lane.current.as_mut().expect("refill succeeded");
        let idx = *cursor;
        *cursor += 1;
        let r = batch.get(idx).expect("cursor in bounds");
        self.delivered += 1;
        self.delivered_bytes += r.data.len() as u64;
        Ok(Some(MuxRecord {
            ts_nanos: r.ts_nanos,
            orig_len: r.orig_len,
            link: lane.link,
            source: best,
            data: r.data,
        }))
    }

    /// Fill `out` with the next run of merged records, up to `max` (and,
    /// where records are copied, up to [`BATCH_BYTES`] like every source's
    /// own batches), and return their (shared) link type. Record order is
    /// exactly [`CaptureMux::next_record`]'s strict `(ts, lane)` merge
    /// order — a batched drain is record-for-record identical to a
    /// per-record drain (pinned by tests) — but each merge scan is
    /// amortized over a whole *run* of records from the winning lane.
    ///
    /// When that run is the winning lane's whole untouched capture batch
    /// (always, with one source), the batch is **handed over** instead of
    /// copied: its arena is swapped into `out` and the arena the caller
    /// passed in goes back to the capture thread for refilling. The
    /// caller therefore gets the source's own batches (up to
    /// `BATCH_RECORDS` records each) and must not expect `out` to keep
    /// its allocation from one call to the next.
    ///
    /// A batch is cut early when the next record's lane has a different
    /// link type (one [`LinkType`] per batch, matching
    /// `PacketSink::push_batch`), or when a live lane is momentarily
    /// empty — strict ordering forbids emitting past it, and handing
    /// the partial batch to the caller beats sleeping on buffered work.
    /// Blocks (like `next_record`) only when nothing is buffered at all;
    /// `Ok(None)` once every source is exhausted.
    pub fn next_batch(
        &mut self,
        out: &mut RecordBatch,
        max: usize,
    ) -> Result<Option<LinkType>, SourceError> {
        out.clear();
        let mut link: Option<LinkType> = None;
        while out.len() < max && out.arena_bytes() < BATCH_BYTES {
            // One merge scan: the minimum (ts, lane) across lanes, plus
            // the runner-up that bounds how far the winner may run.
            let mut best: Option<(u64, usize)> = None;
            let mut second: Option<(u64, usize)> = None;
            let mut waiting = false;
            for i in 0..self.lanes.len() {
                let lane = &mut self.lanes[i];
                if lane.done {
                    continue;
                }
                if !lane.refill()? {
                    if !lane.done {
                        waiting = true;
                    }
                    continue;
                }
                let ts = lane.peek_ts().expect("refill returned true");
                match best {
                    Some((bts, _)) if ts >= bts => {
                        if second.map(|(sts, _)| ts < sts).unwrap_or(true) {
                            second = Some((ts, i));
                        }
                    }
                    _ => {
                        second = best;
                        best = Some((ts, i));
                    }
                }
            }
            if waiting {
                if link.is_some() {
                    // Never sleep on buffered work: hand the partial
                    // batch over and let the next call do the waiting.
                    break;
                }
                std::thread::sleep(Duration::from_micros(50));
                continue;
            }
            let Some((_, i)) = best else { break }; // every lane exhausted
            let lane = &mut self.lanes[i];
            match link {
                Some(l) if lane.link != l => break, // one link type per batch
                _ => link = Some(lane.link),
            }
            // The winner's run: every buffered record that still beats
            // the runner-up under (ts, lane) order.
            let wins = |ts: u64| match second {
                None => true,
                Some((sts, sj)) => ts < sts || (ts == sts && i < sj),
            };
            let (batch, cursor) = lane.current.as_mut().expect("refill succeeded");
            // Hand-over: when the run is the lane's whole untouched batch
            // and nothing was merged ahead of it, the arena itself changes
            // hands. Every record is checked, not just the last — a source
            // that breaks the ordering contract inside a batch must take
            // the copy loop, which stops where per-record order would.
            if out.is_empty()
                && *cursor == 0
                && batch.len() <= max
                && batch.iter().all(|r| wins(r.ts_nanos))
            {
                std::mem::swap(out, batch);
                self.delivered += out.len() as u64;
                self.delivered_bytes += out.arena_bytes() as u64;
                // `current` now holds the (cleared) arena the caller passed
                // in; it goes back to the lane's filler for the next fill.
                let (spare, _) = lane.current.take().expect("refill succeeded");
                lane.recycle(spare);
                break;
            }
            // A sampled capture batch hands its trace tag to the merged
            // batch (first tag wins) so downstream stages keep
            // attributing spans after the fan-in copy.
            if out.trace_id == 0 && batch.trace_id != 0 {
                out.trace_id = batch.trace_id;
            }
            while *cursor < batch.len() && out.len() < max && out.arena_bytes() < BATCH_BYTES {
                let r = batch.get(*cursor).expect("cursor in bounds");
                if !wins(r.ts_nanos) {
                    break;
                }
                out.push(r.ts_nanos, r.orig_len, r.data);
                self.delivered += 1;
                self.delivered_bytes += r.data.len() as u64;
                *cursor += 1;
            }
        }
        Ok(if out.is_empty() { None } else { link })
    }

    /// Number of sources feeding this mux.
    pub fn sources(&self) -> usize {
        self.lanes.len()
    }

    /// Link type of source `i`.
    pub fn link_type(&self, i: usize) -> LinkType {
        self.lanes[i].link
    }

    /// Records handed to the consumer so far, across all lanes.
    pub fn records_delivered(&self) -> u64 {
        self.delivered
    }

    /// Captured bytes across delivered records.
    pub fn bytes_delivered(&self) -> u64 {
        self.delivered_bytes
    }

    /// Σ records the sources themselves dropped (torn pcap tails).
    pub fn truncated_records(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.shared.counters.truncated.load(Ordering::Acquire))
            .sum()
    }

    /// Σ records dropped at full hand-off rings.
    pub fn ring_full_drops(&self) -> u64 {
        self.lanes
            .iter()
            .map(|l| l.shared.counters.ring_full_drops.load(Ordering::Acquire))
            .sum()
    }

    /// Capture-side counters for lane `i`.
    pub fn lane_stats(&self, i: usize) -> LaneStats {
        let lane = &self.lanes[i];
        let c = &lane.shared.counters;
        LaneStats {
            label: lane.label.clone(),
            packets: c.packets.load(Ordering::Acquire),
            bytes: c.bytes.load(Ordering::Acquire),
            batches: c.batches.load(Ordering::Acquire),
            ring_full_drops: c.ring_full_drops.load(Ordering::Acquire),
            truncated: c.truncated.load(Ordering::Acquire),
        }
    }

    /// Shuts the fan-in down: closes every ring (capture threads exit at
    /// the next push or poll) and joins them. Returns the first capture
    /// error, if any. Dropping the mux without calling this also stops
    /// the threads, just without surfacing their errors.
    pub fn finish(mut self) -> Result<(), SourceError> {
        let mut threads = Vec::new();
        let mut shared = Vec::new();
        for mut lane in self.lanes.drain(..) {
            if let Feed::Thread { thread, .. } = &mut lane.feed {
                threads.extend(thread.take());
            }
            shared.push(Arc::clone(&lane.shared));
            drop(lane); // closes both rings
        }
        for t in threads {
            let _ = t.join();
        }
        for s in shared {
            if let Some(msg) = s.error.lock().unwrap().take() {
                return Err(SourceError::Format(msg));
            }
        }
        Ok(())
    }
}

/// Accounts one non-empty batch read off a source — lane counters, the
/// registry's per-source counters — and, on a traced run, samples it:
/// the winner's `trace_id` is stamped on the batch and the read recorded
/// as its `source_read` span.
fn note_read(shared: &LaneShared, label: &str, batch: &mut RecordBatch, read_start: Instant) {
    let n = batch.len() as u64;
    let nbytes = batch.arena_bytes() as u64;
    let c = &shared.counters;
    c.packets.fetch_add(n, Ordering::AcqRel);
    c.bytes.fetch_add(nbytes, Ordering::AcqRel);
    c.batches.fetch_add(1, Ordering::AcqRel);
    if let Some(obs) = &shared.obs {
        obs.packets.add(n);
        obs.bytes.add(nbytes);
        obs.batches.inc();
    }
    if let Some(tc) = &shared.trace {
        // A batch pre-tagged by the source itself (a fragment lane
        // stitching a worker's trace through) keeps the foreign ID and
        // has this read attributed to it.
        if batch.trace_id == 0 {
            batch.trace_id = tc.sample().unwrap_or(0);
        }
        if batch.trace_id != 0 {
            tc.record(
                batch.trace_id,
                spans::SOURCE_READ,
                label,
                n,
                read_start.elapsed().as_nanos() as u64,
            );
        }
    }
}

/// The per-source capture loop: fill a (recycled) batch, account it,
/// offer it to the ring under the overflow policy, repeat until the
/// source is exhausted or the consumer is gone.
fn capture_thread(
    mut source: Box<dyn PacketSource>,
    mut tx: Producer<RecordBatch>,
    mut recycle_rx: Consumer<RecordBatch>,
    shared: Arc<LaneShared>,
    overflow: Overflow,
) {
    let mut spare: Option<RecordBatch> = None;
    loop {
        let mut batch = spare
            .take()
            .or_else(|| recycle_rx.try_pop())
            .unwrap_or_default();
        batch.clear();
        let read_start = Instant::now();
        let live = match source.next_batch(&mut batch) {
            Ok(live) => live,
            Err(e) => {
                *shared.error.lock().unwrap() = Some(format!("{}: {e}", source.label()));
                break;
            }
        };
        if !batch.is_empty() {
            let n = batch.len() as u64;
            let c = &shared.counters;
            note_read(&shared, source.label(), &mut batch, read_start);
            let traced = batch.trace_id;
            let enqueue_start = Instant::now();
            match offer(&mut tx, batch, overflow) {
                Offered::Delivered => {
                    if let Some(obs) = &shared.obs {
                        // Occupancy right after our own push: exact from
                        // this side, racy-but-monotone for the peak.
                        let occ = tx.len() as u64;
                        obs.ring_occupancy.set(occ);
                        obs.ring_occupancy_hwm.set_max(occ);
                    }
                    if traced != 0 {
                        if let Some(tc) = &shared.trace {
                            // Under Overflow::Block this includes the
                            // time spent waiting for a slot — which is
                            // exactly the backpressure we want visible.
                            tc.record(
                                traced,
                                spans::RING_ENQUEUE,
                                source.label(),
                                n,
                                enqueue_start.elapsed().as_nanos() as u64,
                            );
                        }
                    }
                }
                Offered::Dropped(mut b) => {
                    c.ring_full_drops.fetch_add(n, Ordering::AcqRel);
                    if let Some(obs) = &shared.obs {
                        obs.ring_full_drops.add(n);
                    }
                    b.clear();
                    spare = Some(b);
                }
                Offered::ConsumerGone => break,
            }
        } else if tx.is_closed() {
            break;
        }
        if !live {
            break;
        }
    }
    shared
        .counters
        .truncated
        .store(source.truncated_records(), Ordering::Release);
    // Dropping `tx` marks the lane closed once drained.
}

enum Offered {
    Delivered,
    Dropped(RecordBatch),
    ConsumerGone,
}

fn offer(tx: &mut Producer<RecordBatch>, batch: RecordBatch, overflow: Overflow) -> Offered {
    match overflow {
        Overflow::Drop => match tx.try_push(batch) {
            Ok(()) => Offered::Delivered,
            Err(b) if tx.is_closed() => {
                drop(b);
                Offered::ConsumerGone
            }
            Err(b) => Offered::Dropped(b),
        },
        Overflow::Block => {
            let mut pending = batch;
            loop {
                match tx.try_push(pending) {
                    Ok(()) => return Offered::Delivered,
                    Err(b) => {
                        if tx.is_closed() {
                            return Offered::ConsumerGone;
                        }
                        pending = b;
                        std::thread::sleep(Duration::from_micros(100));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplaySource;
    use zoom_wire::pcap::Record;

    fn records(ts: impl IntoIterator<Item = u64>) -> Vec<Record> {
        ts.into_iter()
            .map(|t| Record::full(t, vec![0xCD; 60]))
            .collect()
    }

    fn mux_of(parts: Vec<Vec<u64>>, config: MuxConfig) -> CaptureMux {
        let sources: Vec<Box<dyn PacketSource>> = parts
            .into_iter()
            .enumerate()
            .map(|(i, ts)| {
                Box::new(ReplaySource::new(
                    &format!("replay:{i}"),
                    LinkType::Ethernet,
                    records(ts),
                )) as Box<dyn PacketSource>
            })
            .collect();
        CaptureMux::start(sources, config, None)
    }

    fn drain_ts(mux: &mut CaptureMux) -> Vec<u64> {
        let mut out = Vec::new();
        while let Some(r) = mux.next_record().unwrap() {
            out.push(r.ts_nanos);
        }
        out
    }

    #[test]
    fn merge_is_globally_time_ordered() {
        let mut mux = mux_of(
            vec![vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]],
            MuxConfig::default(),
        );
        assert_eq!(mux.sources(), 3);
        assert_eq!(drain_ts(&mut mux), (0..10).collect::<Vec<_>>());
        assert_eq!(mux.records_delivered(), 10);
        assert_eq!(mux.ring_full_drops(), 0);
        mux.finish().unwrap();
    }

    #[test]
    fn timestamp_ties_break_by_lane_index() {
        let mut mux = mux_of(vec![vec![5, 5], vec![5, 5]], MuxConfig::default());
        let mut lanes = Vec::new();
        while let Some(r) = mux.next_record().unwrap() {
            lanes.push(r.source);
        }
        // All four records tie on ts; lane 0 drains first.
        assert_eq!(lanes, vec![0, 0, 1, 1]);
        mux.finish().unwrap();
    }

    #[test]
    fn block_policy_never_drops_even_with_tiny_rings() {
        let n = 2_000u64;
        let mut mux = mux_of(
            vec![(0..n).step_by(2).collect(), (1..n).step_by(2).collect()],
            MuxConfig {
                ring_capacity: 1,
                overflow: Overflow::Block,
            },
        );
        let ts = drain_ts(&mut mux);
        assert_eq!(ts.len(), n as usize);
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(mux.ring_full_drops(), 0);
        let s0 = mux.lane_stats(0);
        assert_eq!(s0.packets, n / 2);
        assert_eq!(s0.bytes, (n / 2) * 60);
        mux.finish().unwrap();
    }

    #[test]
    fn drop_policy_accounts_every_lost_record() {
        // A slow consumer over a capacity-1 ring with eager batches:
        // some batches must drop; captured == delivered + dropped must
        // hold exactly.
        let n = 5_000u64;
        let mut mux = mux_of(
            vec![(0..n).collect()],
            MuxConfig {
                ring_capacity: 1,
                overflow: Overflow::Drop,
            },
        );
        let mut delivered = 0u64;
        while let Some(_r) = mux.next_record().unwrap() {
            delivered += 1;
            if delivered.is_multiple_of(128) {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        let stats = mux.lane_stats(0);
        assert_eq!(stats.packets, n, "all records were captured");
        assert_eq!(
            stats.packets,
            delivered + stats.ring_full_drops,
            "captured == delivered + dropped"
        );
        mux.finish().unwrap();
    }

    fn drain_batched(mux: &mut CaptureMux, max: usize) -> (Vec<u64>, Vec<usize>) {
        let mut ts = Vec::new();
        let mut sizes = Vec::new();
        let mut batch = RecordBatch::new();
        while let Some(link) = mux.next_batch(&mut batch, max).unwrap() {
            assert_eq!(link, LinkType::Ethernet);
            sizes.push(batch.len());
            ts.extend(batch.iter().map(|r| r.ts_nanos));
        }
        (ts, sizes)
    }

    #[test]
    fn batched_drain_matches_per_record_order() {
        let parts = vec![vec![0, 3, 6, 9, 12, 13], vec![1, 4, 7, 10], vec![2, 5, 8, 11]];
        for max in [1usize, 3, 7, 4096] {
            let mut mux = mux_of(parts.clone(), MuxConfig::default());
            let (ts, sizes) = drain_batched(&mut mux, max);
            assert_eq!(ts, (0..14).collect::<Vec<_>>(), "max={max}");
            assert!(sizes.iter().all(|&s| s >= 1 && s <= max), "max={max}");
            assert_eq!(mux.records_delivered(), 14);
            assert_eq!(mux.bytes_delivered(), 14 * 60);
            mux.finish().unwrap();
        }
    }

    #[test]
    fn batched_ties_break_by_lane_index() {
        // Interleaved ties: the run extension must stop at a tie owned
        // by an earlier lane, exactly like per-record (ts, lane) order.
        let mut mux = mux_of(vec![vec![5, 5, 9], vec![5, 5, 9]], MuxConfig::default());
        let mut order = Vec::new();
        let mut batch = RecordBatch::new();
        while mux.next_batch(&mut batch, 4096).unwrap().is_some() {
            order.extend(batch.iter().map(|r| r.ts_nanos));
        }
        assert_eq!(order, vec![5, 5, 5, 5, 9, 9]);
        mux.finish().unwrap();
    }

    /// Large enough that `max` never cuts a capture batch.
    const MUX_MAX: usize = 4096;

    /// Address of a non-empty batch's arena (stable across clear/refill
    /// once the arena has grown to its working size).
    fn arena_of(batch: &RecordBatch) -> usize {
        batch.get(0).expect("non-empty batch").data.as_ptr() as usize
    }

    /// Serves fixed-size records at the given timestamps in
    /// `BATCH_RECORDS`-sized batches — without [`ReplaySource`]'s ordering
    /// assertion — and logs the arena of every batch it filled.
    struct ArenaLoggingSource {
        ts: Vec<u64>,
        cursor: usize,
        filled: Arc<Mutex<Vec<usize>>>,
    }

    impl ArenaLoggingSource {
        fn boxed(ts: Vec<u64>) -> (Box<dyn PacketSource>, Arc<Mutex<Vec<usize>>>) {
            let filled = Arc::new(Mutex::new(Vec::new()));
            let source = ArenaLoggingSource {
                ts,
                cursor: 0,
                filled: Arc::clone(&filled),
            };
            (Box::new(source), filled)
        }
    }

    impl PacketSource for ArenaLoggingSource {
        fn label(&self) -> &str {
            "replay:logged"
        }

        fn link_type(&self) -> LinkType {
            LinkType::Ethernet
        }

        fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
            let end = (self.cursor + crate::source::BATCH_RECORDS).min(self.ts.len());
            for &ts in &self.ts[self.cursor..end] {
                batch.push(ts, 60, &[0xCD; 60]);
            }
            self.cursor = end;
            if !batch.is_empty() {
                self.filled.lock().unwrap().push(arena_of(batch));
            }
            Ok(self.cursor < self.ts.len())
        }
    }

    #[test]
    fn single_source_batches_are_handed_over_not_copied() {
        use crate::source::BATCH_RECORDS;
        let config = MuxConfig::default();
        let batches = 40 * config.ring_capacity;
        let n = (batches * BATCH_RECORDS) as u64;
        let (source, filled) = ArenaLoggingSource::boxed((0..n).collect());
        let mut mux = CaptureMux::start(vec![source], config, None);

        // The caller's own arena, sized so that refilling it moves nothing.
        let mut out = RecordBatch::with_capacity(BATCH_RECORDS, BATCH_RECORDS * 60);
        out.push(0, 60, &[0; 60]);
        let callers_arena = arena_of(&out);

        let mut ts = Vec::new();
        let mut delivered = Vec::new();
        while mux.next_batch(&mut out, MUX_MAX).unwrap().is_some() {
            // The source's own batch, its own arena: nothing was copied.
            assert_eq!(out.len(), BATCH_RECORDS);
            assert!(
                filled.lock().unwrap().contains(&arena_of(&out)),
                "batch {} arrived in an arena the source never filled",
                delivered.len()
            );
            delivered.push(arena_of(&out));
            ts.extend(out.iter().map(|r| r.ts_nanos));
        }
        assert_eq!(ts, (0..n).collect::<Vec<_>>());
        assert_eq!(mux.records_delivered(), n);
        assert_eq!(mux.bytes_delivered(), n * 60);
        mux.finish().unwrap();

        // What the caller passed in went back down the recycle ring and
        // was refilled by the source ...
        assert!(
            delivered.contains(&callers_arena),
            "the caller's arena never came back"
        );
        // ... so the whole drain cycles a fixed set of arenas: a full
        // ring, the one being filled, the one delivered, one in recycle.
        let warm = &delivered[delivered.len() / 2..];
        let mut distinct = warm.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= config.ring_capacity + 3,
            "{} batches touched {} arenas",
            warm.len(),
            distinct.len()
        );
    }

    #[test]
    fn a_lane_batch_that_precedes_every_other_lane_is_handed_over() {
        // Lane 0's whole batch sorts before lane 1's first record, and
        // lane 1 is alone once lane 0 is spent: both arrive uncopied.
        let (lane0, filled0) = ArenaLoggingSource::boxed((0..100).collect());
        let (lane1, filled1) = ArenaLoggingSource::boxed((1_000..1_100).collect());
        let mut mux = CaptureMux::start(vec![lane0, lane1], MuxConfig::default(), None);
        let mut out = RecordBatch::new();
        let mut first_ts = Vec::new();
        let mut arenas = Vec::new();
        while mux.next_batch(&mut out, MUX_MAX).unwrap().is_some() {
            assert_eq!(out.len(), 100);
            first_ts.push(out.get(0).unwrap().ts_nanos);
            arenas.push(arena_of(&out));
        }
        mux.finish().unwrap();
        assert_eq!(first_ts, vec![0, 1_000]);
        assert_eq!(arenas[0], filled0.lock().unwrap()[0]);
        assert_eq!(arenas[1], filled1.lock().unwrap()[0]);
    }

    #[test]
    fn out_of_order_lane_batch_falls_back_to_the_copy_loop() {
        // Lane 0 breaks the ordering contract inside one batch. Its last
        // record (2) beats lane 1's 5, its middle one (9) does not: a
        // hand-over judged by the batch's ends would reorder 9 before 5.
        let parts = [vec![1, 9, 2], vec![5]];
        let per_record = {
            let sources = parts
                .iter()
                .map(|ts| ArenaLoggingSource::boxed(ts.clone()).0)
                .collect();
            let mut mux = CaptureMux::start(sources, MuxConfig::default(), None);
            let order = drain_ts(&mut mux);
            mux.finish().unwrap();
            order
        };
        assert_eq!(per_record, vec![1, 5, 9, 2]);

        let (lane0, filled0) = ArenaLoggingSource::boxed(parts[0].clone());
        let (lane1, _) = ArenaLoggingSource::boxed(parts[1].clone());
        let mut mux = CaptureMux::start(vec![lane0, lane1], MuxConfig::default(), None);
        let mut out = RecordBatch::new();
        let mut order = Vec::new();
        while mux.next_batch(&mut out, MUX_MAX).unwrap().is_some() {
            if order.is_empty() {
                assert_ne!(
                    arena_of(&out),
                    filled0.lock().unwrap()[0],
                    "the out-of-order batch was handed over whole"
                );
            }
            order.extend(out.iter().map(|r| r.ts_nanos));
        }
        mux.finish().unwrap();
        assert_eq!(order, per_record);
    }

    /// Lane `i` of `parts` as a source of its own: record `j` carries the
    /// lane's `j`-th timestamp and is stamped `[i, j >> 8, j]`, so a drain
    /// shows which lane's which record came out where. Odd lanes are
    /// `RawIp` when `mixed_links`.
    fn lane_link(lane: usize, mixed_links: bool) -> LinkType {
        if mixed_links && lane % 2 == 1 {
            LinkType::RawIp
        } else {
            LinkType::Ethernet
        }
    }

    fn stamped_sources(parts: &[Vec<u64>], mixed_links: bool) -> Vec<Box<dyn PacketSource>> {
        parts
            .iter()
            .enumerate()
            .map(|(i, ts)| {
                let records = ts
                    .iter()
                    .enumerate()
                    .map(|(j, &t)| {
                        let mut data = vec![0xCD; 60];
                        data[..3].copy_from_slice(&[i as u8, (j >> 8) as u8, j as u8]);
                        Record::full(t, data)
                    })
                    .collect();
                let link = lane_link(i, mixed_links);
                Box::new(ReplaySource::new(&format!("replay:{i}"), link, records))
                    as Box<dyn PacketSource>
            })
            .collect()
    }

    /// Everything one drain of a fan-in can be compared by. (Not the batch
    /// sizes: a threaded lane cuts batches where its ring happens to run
    /// dry.)
    #[derive(Debug, PartialEq)]
    struct Drained {
        /// Link type, timestamp and lane stamp of every record, in order.
        records: Vec<(LinkType, u64, [u8; 3])>,
        stats: Vec<LaneStats>,
        delivered: (u64, u64),
        truncated: u64,
    }

    /// Drains `mux` by `next_batch(max)`, or record by record without one.
    fn drain_all(mut mux: CaptureMux, max: Option<usize>) -> Drained {
        let mut records = Vec::new();
        let stamp = |data: &[u8]| [data[0], data[1], data[2]];
        match max {
            Some(max) => {
                let mut batch = RecordBatch::new();
                while let Some(link) = mux.next_batch(&mut batch, max).unwrap() {
                    assert!(!batch.is_empty() && batch.len() <= max, "max={max}");
                    records.extend(batch.iter().map(|r| (link, r.ts_nanos, stamp(r.data))));
                }
            }
            None => {
                while let Some(r) = mux.next_record().unwrap() {
                    records.push((r.link, r.ts_nanos, stamp(r.data)));
                }
            }
        }
        let drained = Drained {
            records,
            stats: (0..mux.sources()).map(|i| mux.lane_stats(i)).collect(),
            delivered: (mux.records_delivered(), mux.bytes_delivered()),
            truncated: mux.truncated_records(),
        };
        mux.finish().unwrap();
        drained
    }

    #[test]
    fn inline_lane_delivers_what_the_threaded_lane_delivers() {
        use crate::source::BATCH_RECORDS;
        let n = (5 * BATCH_RECORDS + 17) as u64;
        let cases: [(&str, Vec<Vec<u64>>, bool); 5] = [
            ("one lane", vec![(0..n).collect()], false),
            // Every timestamp of the short lane ties with one of the long.
            (
                "two uneven lanes, ties",
                vec![(0..n).map(|t| t / 2).collect(), (0..90).collect()],
                false,
            ),
            // Lane 1 is a blip, lane 2 interleaves with the first half of
            // lane 0 and leaves its second half to be handed over whole.
            (
                "three uneven lanes",
                vec![
                    (0..n).map(|t| 3 * t).collect(),
                    vec![7, 7, 8],
                    (0..n / 2).map(|t| 3 * t + 1).collect(),
                ],
                false,
            ),
            (
                "a link type per lane",
                vec![(0..300).map(|t| t / 7 * 7).collect(), (0..300).collect()],
                true,
            ),
            (
                "an empty lane",
                vec![vec![], (0..200).collect(), vec![]],
                false,
            ),
        ];
        for (name, parts, mixed_links) in &cases {
            // The merge itself, spelled out: by `(ts, lane)`, a lane's
            // records in their own order.
            let mut want: Vec<(LinkType, u64, [u8; 3])> = Vec::new();
            for (i, ts) in parts.iter().enumerate() {
                let link = lane_link(i, *mixed_links);
                want.extend(
                    ts.iter()
                        .enumerate()
                        .map(|(j, &t)| (link, t, [i as u8, (j >> 8) as u8, j as u8])),
                );
            }
            want.sort_by_key(|&(_, t, stamp)| (t, stamp));

            // `max` below a capture batch takes the copy loop, above it the
            // hand-over where a lane runs alone; `None` is per record. Both
            // lane kinds must agree record for record, counter for counter.
            for max in [
                Some(1usize),
                Some(100),
                Some(BATCH_RECORDS),
                Some(MUX_MAX),
                None,
            ] {
                let sources = || stamped_sources(parts, *mixed_links);
                let threaded = drain_all(
                    CaptureMux::start(sources(), MuxConfig::default(), None),
                    max,
                );
                let inline = drain_all(CaptureMux::inline(sources(), None), max);
                assert_eq!(inline, threaded, "{name}, max={max:?}");
                assert_eq!(inline.records, want, "{name}, max={max:?}");
                assert_eq!(
                    inline.delivered,
                    (want.len() as u64, want.len() as u64 * 60)
                );
                assert!(inline.stats.iter().all(|s| s.ring_full_drops == 0));
            }
        }
    }

    #[test]
    fn inline_lanes_break_ties_by_lane_index_and_cut_at_a_link_change() {
        let mut mux = CaptureMux::inline(
            stamped_sources(&[vec![5, 5], vec![5, 5], vec![4, 5]], false),
            None,
        );
        assert_eq!(mux.sources(), 3);
        let mut lanes = Vec::new();
        while let Some(r) = mux.next_record().unwrap() {
            lanes.push(r.source);
        }
        assert_eq!(lanes, vec![2, 0, 0, 1, 1, 2]);
        mux.finish().unwrap();

        // One link type per batch: the drain stops where the next record's
        // lane has another, whatever `max` allows.
        let mut mux =
            CaptureMux::inline(stamped_sources(&[vec![1, 2, 5], vec![3, 4, 6]], true), None);
        let mut batch = RecordBatch::new();
        let mut runs = Vec::new();
        while let Some(link) = mux.next_batch(&mut batch, MUX_MAX).unwrap() {
            runs.push((link, batch.iter().map(|r| r.ts_nanos).collect::<Vec<_>>()));
        }
        mux.finish().unwrap();
        assert_eq!(
            runs,
            vec![
                (LinkType::Ethernet, vec![1, 2]),
                (LinkType::RawIp, vec![3, 4]),
                (LinkType::Ethernet, vec![5]),
                (LinkType::RawIp, vec![6]),
            ]
        );
    }

    /// A source that insists on the thread it was built on: a capture
    /// thread would trip the assertion.
    struct SameThread {
        inner: Box<dyn PacketSource>,
        home: std::thread::ThreadId,
    }

    impl SameThread {
        fn boxed(inner: Box<dyn PacketSource>) -> Box<dyn PacketSource> {
            Box::new(SameThread {
                inner,
                home: std::thread::current().id(),
            })
        }
    }

    impl PacketSource for SameThread {
        fn label(&self) -> &str {
            self.inner.label()
        }
        fn link_type(&self) -> LinkType {
            self.inner.link_type()
        }
        fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
            assert_eq!(std::thread::current().id(), self.home, "read off-thread");
            self.inner.next_batch(batch)
        }
    }

    #[test]
    fn inline_lane_reads_on_the_callers_thread_into_two_arenas() {
        use crate::source::BATCH_RECORDS;
        let batches = 50;
        let n = (batches * BATCH_RECORDS) as u64;
        let (inner, filled) = ArenaLoggingSource::boxed((0..n).collect());
        let mut mux = CaptureMux::inline(vec![SameThread::boxed(inner)], None);

        let mut out = RecordBatch::with_capacity(BATCH_RECORDS, BATCH_RECORDS * 60);
        out.push(0, 60, &[0; 60]);
        let callers_arena = arena_of(&out);
        let mut delivered = Vec::new();
        while mux.next_batch(&mut out, MUX_MAX).unwrap().is_some() {
            assert_eq!(out.len(), BATCH_RECORDS);
            delivered.push(arena_of(&out));
        }
        assert_eq!(mux.records_delivered(), n);
        mux.finish().unwrap();
        // Handed over, never copied: each batch arrives in the arena the
        // source filled, and the arena the caller gave up is the next one
        // filled — the drain ping-pongs between two.
        assert_eq!(delivered, *filled.lock().unwrap());
        assert!(delivered.contains(&callers_arena));
        let mut distinct = delivered.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 2, "{} batches", delivered.len());
    }

    #[test]
    fn inline_lanes_read_on_the_callers_thread_hand_over_runs_and_copy_interleaves() {
        use crate::source::BATCH_RECORDS;
        // Lanes 0 and 1 interleave record by record for four capture
        // batches each, then lane 0 runs on alone for three more; lane 2
        // starts after both are spent. This is the pin that a spool merge
        // (N finite files, in-line) spawns nothing: every read of every
        // lane happens on the thread that drains the mux.
        let shared = 4 * BATCH_RECORDS as u64;
        let alone = 3 * BATCH_RECORDS as u64;
        let parts = [
            (0..shared + alone).map(|t| 2 * t).collect::<Vec<_>>(),
            (0..shared).map(|t| 2 * t + 1).collect(),
            (0..2 * BATCH_RECORDS as u64).map(|t| 100_000 + t).collect(),
        ];
        let mut fills = Vec::new();
        let sources = parts
            .iter()
            .map(|ts| {
                let (inner, filled) = ArenaLoggingSource::boxed(ts.clone());
                fills.push(filled);
                SameThread::boxed(inner)
            })
            .collect();
        let mut mux = CaptureMux::inline(sources, None);

        let filled_by_a_source =
            |arena: usize| fills.iter().any(|f| f.lock().unwrap().contains(&arena));
        let mut out = RecordBatch::new();
        let mut ts = Vec::new();
        let (mut handed_over, mut copied) = (0, 0);
        while mux.next_batch(&mut out, BATCH_RECORDS).unwrap().is_some() {
            let first = out.get(0).unwrap().ts_nanos;
            if first < 2 * shared - 2 * BATCH_RECORDS as u64 {
                // Interleaving lanes: copied into the caller's own arena.
                assert!(!filled_by_a_source(arena_of(&out)), "copy at ts {first}");
                copied += 1;
            } else if first >= 2 * (shared + BATCH_RECORDS as u64) {
                // A lane running alone: its own arena, whole.
                assert!(
                    filled_by_a_source(arena_of(&out)),
                    "hand-over at ts {first}"
                );
                assert_eq!(out.len(), BATCH_RECORDS);
                handed_over += 1;
            }
            ts.extend(out.iter().map(|r| r.ts_nanos));
        }
        mux.finish().unwrap();
        let mut want: Vec<u64> = parts.concat();
        want.sort_unstable();
        assert_eq!(ts, want);
        assert_eq!(copied, 6, "interleaved batches ahead of the last two");
        assert_eq!(
            handed_over,
            2 + 2,
            "lane 0's last two batches, lane 2's two"
        );
        // Copy or hand-over, a lane is refilled from the arenas it was
        // given back: no lane ever held more than a handful.
        for filled in &fills {
            let mut distinct = filled.lock().unwrap().clone();
            distinct.sort_unstable();
            distinct.dedup();
            assert!(
                distinct.len() <= 3,
                "a lane filled {} arenas",
                distinct.len()
            );
        }
    }

    /// Quiet (live, nothing new) on every other call, like a followed
    /// pcap at end of file; three torn records at the end.
    struct Stuttering {
        next: u64,
        calls: u32,
    }

    impl PacketSource for Stuttering {
        fn label(&self) -> &str {
            "test:stutter"
        }
        fn link_type(&self) -> LinkType {
            LinkType::Ethernet
        }
        fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Ok(true);
            }
            for _ in 0..10 {
                batch.push(self.next, 60, &[0xCD; 60]);
                self.next += 1;
            }
            Ok(self.next < 50)
        }
        fn truncated_records(&self) -> u64 {
            3
        }
    }

    #[test]
    fn inline_lane_waits_out_a_quiet_live_source_and_reports_its_tail() {
        let metrics = PipelineMetrics::new();
        let mut mux = CaptureMux::inline(
            vec![Box::new(Stuttering { next: 0, calls: 0 })],
            Some(&metrics),
        );
        let (ts, sizes) = drain_batched(&mut mux, MUX_MAX);
        assert_eq!(ts, (0..50).collect::<Vec<_>>());
        assert_eq!(sizes, vec![10; 5]);
        assert_eq!(mux.truncated_records(), 3);
        // Exhausted stays exhausted.
        assert!(mux
            .next_batch(&mut RecordBatch::new(), MUX_MAX)
            .unwrap()
            .is_none());
        assert!(mux.next_record().unwrap().is_none());
        mux.finish().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.sources[0].label, "test:stutter");
        assert_eq!(snap.source_packets_total(), 50);
        assert_eq!(snap.sources[0].delivered_ts_nanos, 49);
        assert_eq!(snap.sources[0].ring_occupancy_hwm, 0);

        // Beside other lanes: same records, and every counter — the
        // lanes' own, the registry's per-source series, the torn tails —
        // is what capture threads over the same sources report.
        let run = |inline: bool| {
            let metrics = PipelineMetrics::new();
            let mut sources = stamped_sources(&[(0..400).collect(), (20..30).collect()], false);
            sources.insert(1, Box::new(Stuttering { next: 0, calls: 0 }));
            let mux = if inline {
                CaptureMux::inline(sources, Some(&metrics))
            } else {
                CaptureMux::start(sources, MuxConfig::default(), Some(&metrics))
            };
            let drained = drain_all(mux, Some(crate::source::BATCH_RECORDS));
            let per_source: Vec<_> = metrics
                .snapshot()
                .sources
                .iter()
                .map(|s| {
                    (
                        s.label.clone(),
                        s.packets,
                        s.bytes,
                        s.batches,
                        s.ring_full_drops,
                        s.delivered_ts_nanos,
                    )
                })
                .collect();
            (drained, per_source)
        };
        let (inline, threaded) = (run(true), run(false));
        assert_eq!(inline, threaded);
        assert_eq!(inline.0.truncated, 3);
        assert_eq!(inline.0.delivered.0, 400 + 50 + 10);
        let stutter = &inline.0.stats[1];
        assert_eq!(
            (stutter.packets, stutter.batches, stutter.truncated),
            (50, 5, 3)
        );
    }

    #[test]
    fn inline_lane_traces_the_read_and_no_ring() {
        for lanes in 1..=3usize {
            let metrics = PipelineMetrics::new();
            metrics.trace.enable(1, "cap-test");
            let parts: Vec<Vec<u64>> = (0..lanes as u64)
                .map(|i| (0..64).map(|t| t * 3 + i).collect())
                .collect();
            let mut mux = CaptureMux::inline(stamped_sources(&parts, false), Some(&metrics));
            let mut batch = RecordBatch::new();
            let mut tagged = 0u64;
            while mux.next_batch(&mut batch, MUX_MAX).unwrap().is_some() {
                tagged += u64::from(batch.trace_id != 0);
            }
            mux.finish().unwrap();
            assert!(tagged > 0, "sample_every=1 must tag delivered batches");
            let ndjson = metrics.trace.drain_ndjson();
            for lane in 0..lanes {
                let site = format!("\"site\":\"replay:{lane}\"");
                assert!(
                    ndjson
                        .lines()
                        .any(|l| l.contains("\"span\":\"source_read\"") && l.contains(&site)),
                    "no source_read at {site} in {ndjson}"
                );
            }
            assert!(!ndjson.contains("\"span\":\"ring_"), "{ndjson}");
            let snap = metrics.snapshot();
            assert_eq!(snap.sources.len(), lanes);
            assert!(snap.sources.iter().all(|s| s.ring_occupancy_hwm == 0));
        }
    }

    /// `good` batches of one record each (timestamps 10, 20, …), then a
    /// failure.
    struct FailsAfter {
        good: u64,
        served: u64,
    }

    impl PacketSource for FailsAfter {
        fn label(&self) -> &str {
            "fail:later"
        }
        fn link_type(&self) -> LinkType {
            LinkType::Ethernet
        }
        fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
            if self.served == self.good {
                return Err(SourceError::Format("synthetic failure".into()));
            }
            self.served += 1;
            batch.push(10 * self.served, 60, &[0xCD; 60]);
            Ok(true)
        }
    }

    #[test]
    fn inline_lane_surfaces_a_source_error_with_its_label() {
        let mut mux = CaptureMux::inline(vec![Box::new(FailsAfter { good: 1, served: 0 })], None);
        let mut out = RecordBatch::new();
        assert!(mux.next_batch(&mut out, MUX_MAX).unwrap().is_some());
        assert_eq!(out.len(), 1);
        let err = mux.next_batch(&mut out, MUX_MAX).unwrap_err().to_string();
        assert_eq!(err, "fail:later: synthetic failure");
        // The lane is finished: nothing more, no second error.
        assert!(mux.next_batch(&mut out, MUX_MAX).unwrap().is_none());
        mux.finish().unwrap();

        // Lane 1 of three fails mid-stream. Either lane kind delivers what
        // precedes the failure, reports it once in the same words, and is
        // left with that lane finished and the others intact.
        let run = |inline: bool| {
            let mut sources = stamped_sources(&[(0..100).collect(), (0..100).collect()], false);
            sources.insert(1, Box::new(FailsAfter { good: 3, served: 0 }));
            let mut mux = if inline {
                CaptureMux::inline(sources, None)
            } else {
                CaptureMux::start(sources, MuxConfig::default(), None)
            };
            let mut before = Vec::new();
            let err = loop {
                match mux.next_record() {
                    Ok(Some(r)) => before.push((r.ts_nanos, r.source)),
                    Ok(None) => panic!("the failure was swallowed"),
                    Err(e) => break e.to_string(),
                }
            };
            let mut after = Vec::new();
            while let Some(r) = mux.next_record().unwrap() {
                after.push((r.ts_nanos, r.source));
            }
            mux.finish().unwrap();
            (before, err, after)
        };
        let (inline, threaded) = (run(true), run(false));
        assert_eq!(inline, threaded);
        let (before, err, after) = inline;
        assert_eq!(err, "fail:later: synthetic failure");
        // Lane 1's three records went out in their places; the failure
        // surfaced when the merge next needed that lane.
        assert_eq!(before.iter().filter(|r| r.1 == 1).count(), 3);
        assert_eq!(before.last(), Some(&(30, 1)));
        assert_eq!(before.len() + after.len(), 203);
        assert!(after.iter().all(|r| r.1 != 1));
    }

    #[test]
    fn obs_registration_threads_counters_into_conservation() {
        let metrics = PipelineMetrics::new();
        let sources: Vec<Box<dyn PacketSource>> = vec![
            Box::new(ReplaySource::new(
                "replay:a",
                LinkType::Ethernet,
                records(vec![0, 2]),
            )),
            Box::new(ReplaySource::new(
                "replay:b",
                LinkType::Ethernet,
                records(vec![1, 3]),
            )),
        ];
        let mut mux = CaptureMux::start(sources, MuxConfig::default(), Some(&metrics));
        while let Some(r) = mux.next_record().unwrap() {
            // Stand-in for the sink: count what it would ingest.
            metrics.record_in(r.data.len());
            metrics.packets_not_zoom.inc();
        }
        mux.finish().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.sources.len(), 2);
        assert_eq!(snap.sources[0].label, "replay:a");
        assert_eq!(snap.source_packets_total(), 4);
        assert_eq!(snap.ring_full_drops_total(), 0);
        assert!(snap.conservation_holds());
    }

    #[test]
    fn sampled_batches_carry_trace_tags_through_the_fan_in() {
        let metrics = PipelineMetrics::new();
        metrics.trace.enable(1, "cap-test");
        let sources: Vec<Box<dyn PacketSource>> = vec![Box::new(ReplaySource::new(
            "replay:t",
            LinkType::Ethernet,
            records(0..64),
        ))];
        let mut mux = CaptureMux::start(sources, MuxConfig::default(), Some(&metrics));
        let mut batch = RecordBatch::new();
        let mut tagged = 0u64;
        while mux.next_batch(&mut batch, 4096).unwrap().is_some() {
            if batch.trace_id != 0 {
                tagged += 1;
            }
        }
        mux.finish().unwrap();
        assert!(tagged > 0, "sample_every=1 must tag merged batches");
        let ndjson = metrics.trace.drain_ndjson();
        for span in ["source_read", "ring_enqueue", "ring_dequeue"] {
            assert!(
                ndjson.contains(&format!("\"span\":\"{span}\"")),
                "missing {span} in:\n{ndjson}"
            );
        }
        let snap = metrics.snapshot();
        assert!(snap.sources[0].ring_occupancy_hwm >= 1);
        assert_eq!(snap.sources[0].delivered_ts_nanos, 63);
    }

    #[test]
    fn untraced_runs_never_tag_batches() {
        let metrics = PipelineMetrics::new();
        let sources: Vec<Box<dyn PacketSource>> = vec![Box::new(ReplaySource::new(
            "replay:q",
            LinkType::Ethernet,
            records(0..16),
        ))];
        let mut mux = CaptureMux::start(sources, MuxConfig::default(), Some(&metrics));
        let mut batch = RecordBatch::new();
        while mux.next_batch(&mut batch, 4096).unwrap().is_some() {
            assert_eq!(batch.trace_id, 0);
        }
        mux.finish().unwrap();
        assert_eq!(metrics.trace.event_counts(), (0, 0));
    }

    #[test]
    fn source_error_surfaces_on_consumer_side() {
        struct Failing;
        impl PacketSource for Failing {
            fn label(&self) -> &str {
                "fail:always"
            }
            fn link_type(&self) -> LinkType {
                LinkType::Ethernet
            }
            fn next_batch(&mut self, _batch: &mut RecordBatch) -> Result<bool, SourceError> {
                Err(SourceError::Format("synthetic failure".into()))
            }
        }
        let mut mux = CaptureMux::start(
            vec![Box::new(Failing)],
            MuxConfig::default(),
            None,
        );
        let err = loop {
            match mux.next_record() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("error was swallowed"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("synthetic failure"));
    }
}

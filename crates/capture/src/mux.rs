//! N-sources → one-engine fan-in, lossless, drained a batch at a time.
//!
//! [`CaptureMux`] reads every [`PacketSource`] in-line, on the thread that
//! calls [`CaptureMux::next_batch`]: no capture thread, no ring. The merge
//! below waits for its slowest live lane whatever reads that lane, so a
//! thread per source would only add read-ahead — and the kernel already
//! buffers a socket or a file for its reader. A source that may make its
//! reader wait (a followed file, a worker connection) paces itself: it
//! blocks in its read, or sleeps its poll interval before it reports
//! "nothing new yet". Nothing is ever dropped. Each lane reads into one
//! spare arena and gets back the arenas it handed on, so the steady state
//! allocates nothing.
//!
//! The merge yields one deterministic, timestamp-ordered record sequence:
//! the next record is always the minimum `(ts_nanos, lane_index)` across
//! lanes, which is what makes an N-source run byte-identical to the
//! equivalent single-source run (pinned by
//! `tests/multi_source_differential.rs`). [`CaptureMux::next_batch`] is
//! the one drain: each merge scan yields a whole run of the winning
//! lane's records.
//!
//! Per-source accounting (`packets`, `bytes`, `batches`) is threaded into
//! a [`zoom_analysis::obs::PipelineMetrics`] registry when one is
//! supplied, extending the pipeline's conservation invariant upstream
//! over capture (see
//! [`MetricsSnapshot::conservation_holds`](zoom_analysis::obs::MetricsSnapshot::conservation_holds)).
//!
//! ```
//! use zoom_capture::mux::{CaptureMux, MuxConfig};
//! use zoom_capture::source::ReplaySource;
//! use zoom_wire::handoff::RecordBatch;
//! use zoom_wire::pcap::{LinkType, Record};
//!
//! let even: Vec<Record> = (0..4).map(|i| Record::full(2 * i, vec![0; 60])).collect();
//! let odd: Vec<Record> = (0..4).map(|i| Record::full(2 * i + 1, vec![0; 60])).collect();
//! let mut mux = CaptureMux::start(
//!     vec![
//!         Box::new(ReplaySource::new("replay:even", LinkType::Ethernet, even)),
//!         Box::new(ReplaySource::new("replay:odd", LinkType::Ethernet, odd)),
//!     ],
//!     MuxConfig,
//!     None,
//! );
//! let mut batch = RecordBatch::new();
//! let mut ts = Vec::new();
//! while mux.next_batch(&mut batch, 128)?.is_some() {
//!     ts.extend(batch.iter().map(|r| r.ts_nanos));
//! }
//! assert_eq!(ts, vec![0, 1, 2, 3, 4, 5, 6, 7]); // merged in time order
//! mux.finish()?;
//! # Ok::<(), zoom_capture::source::SourceError>(())
//! ```

use crate::source::{PacketSource, SourceError, BATCH_BYTES};
use std::sync::Arc;
use std::time::Instant;
use zoom_analysis::obs::trace::{spans, TraceCollector};
use zoom_analysis::obs::{PipelineMetrics, SourceMetrics};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

/// Fan-in settings. There are none left: every lane is read in-line.
#[derive(Debug, Clone, Copy, Default)]
pub struct MuxConfig;

/// Plain-data copy of one lane's capture-side counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaneStats {
    /// The source's display label.
    pub label: String,
    /// Records read off the source.
    pub packets: u64,
    /// Captured bytes across those records.
    pub bytes: u64,
    /// Batches read off the source.
    pub batches: u64,
    /// Records the source itself dropped (e.g. a torn pcap tail).
    pub truncated: u64,
}

struct Lane {
    source: Box<dyn PacketSource>,
    link: LinkType,
    stats: LaneStats,
    obs: Option<Arc<SourceMetrics>>,
    /// Pipeline trace collector: reads are sampled here and the winners'
    /// `trace_id` stamped on the batch so downstream stages can attribute
    /// their spans. A disabled collector costs one relaxed load per batch.
    trace: Option<Arc<TraceCollector>>,
    /// The cleared arena the next read fills.
    spare: RecordBatch,
    /// Batch currently being consumed, with the cursor of the next
    /// record to emit.
    current: Option<(RecordBatch, usize)>,
    /// Whether the source may still yield records.
    live: bool,
    /// Source exhausted (or failed) and every record it read delivered.
    done: bool,
}

impl Lane {
    fn new(source: Box<dyn PacketSource>, metrics: Option<&PipelineMetrics>) -> Lane {
        let label = source.label().to_string();
        Lane {
            link: source.link_type(),
            obs: metrics.map(|m| m.register_source(&label)),
            trace: metrics.map(|m| Arc::clone(&m.trace)),
            stats: LaneStats {
                label,
                packets: 0,
                bytes: 0,
                batches: 0,
                truncated: 0,
            },
            source,
            spare: RecordBatch::new(),
            current: None,
            live: true,
            done: false,
        }
    }

    /// Peeks the timestamp of this lane's next record, `None` if the
    /// lane has nothing buffered right now.
    fn peek_ts(&self) -> Option<u64> {
        let (batch, cursor) = self.current.as_ref()?;
        batch.get(*cursor).map(|r| r.ts_nanos)
    }

    /// Tries to make `current` hold an unconsumed record, reading the
    /// source when it does not. Returns false while the lane is live but
    /// its source had nothing new (it paced that poll itself), and once
    /// the lane is done.
    fn refill(&mut self) -> Result<bool, SourceError> {
        loop {
            if let Some((batch, cursor)) = &self.current {
                if *cursor < batch.len() {
                    return Ok(true);
                }
                // Exhausted: its arena takes the next read.
                let (mut batch, _) = self.current.take().expect("checked above");
                batch.clear();
                self.spare = batch;
            }
            if !self.live {
                self.done = true;
                self.stats.truncated = self.source.truncated_records();
                return Ok(false);
            }
            let mut batch = std::mem::take(&mut self.spare);
            let read_start = Instant::now();
            match self.source.next_batch(&mut batch) {
                Ok(more) => self.live = more,
                Err(e) => {
                    self.done = true;
                    return Err(SourceError::Format(format!("{}: {e}", self.stats.label)));
                }
            }
            if batch.is_empty() {
                // Nothing new yet, or the end: the next call decides.
                self.spare = batch;
                if self.live {
                    return Ok(false);
                }
                continue;
            }
            self.note_read(&mut batch, read_start);
            self.current = Some((batch, 0));
            return Ok(true);
        }
    }

    /// Accounts one non-empty batch read off the source — lane counters,
    /// the registry's per-source series — and, on a traced run, samples
    /// it: the winner's `trace_id` is stamped on the batch and the read
    /// recorded as its `source_read` span.
    fn note_read(&mut self, batch: &mut RecordBatch, read_start: Instant) {
        let n = batch.len() as u64;
        let nbytes = batch.arena_bytes() as u64;
        self.stats.packets += n;
        self.stats.bytes += nbytes;
        self.stats.batches += 1;
        if let Some(obs) = &self.obs {
            obs.packets.add(n);
            obs.bytes.add(nbytes);
            obs.batches.inc();
            if let Some(last) = batch.get(batch.len() - 1) {
                // How far this lane's delivered stream has advanced;
                // per-source lag is derived from the spread of these at
                // render time.
                obs.delivered_ts_nanos.set(last.ts_nanos);
            }
        }
        if let Some(tc) = &self.trace {
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
                    &self.stats.label,
                    n,
                    read_start.elapsed().as_nanos() as u64,
                );
            }
        }
    }
}

/// The fan-in: every source read in-line, a deterministic `(ts, lane)`
/// merge over them. See the [module documentation](self) for semantics
/// and a usage example.
pub struct CaptureMux {
    lanes: Vec<Lane>,
    /// Records handed to the consumer so far (post-merge).
    delivered: u64,
    /// Captured bytes across delivered records.
    delivered_bytes: u64,
}

impl CaptureMux {
    /// The fan-in over `sources`, in lane order. It starts nothing: each
    /// source is read on the thread that calls
    /// [`next_batch`](CaptureMux::next_batch), straight into the arena the
    /// merge scan then draws from (and, when nothing interleaves with it,
    /// hands to the caller). When `metrics` is given, every source is
    /// registered on it (appearing in snapshots and the extended
    /// conservation invariant).
    pub fn start(
        sources: Vec<Box<dyn PacketSource>>,
        _config: MuxConfig,
        metrics: Option<&PipelineMetrics>,
    ) -> CaptureMux {
        CaptureMux {
            lanes: sources.into_iter().map(|s| Lane::new(s, metrics)).collect(),
            delivered: 0,
            delivered_bytes: 0,
        }
    }

    /// Fill `out` with the next run of merged records, up to `max` (and,
    /// where records are copied, up to [`BATCH_BYTES`] like every source's
    /// own batches), and return their (shared) link type. Records come in
    /// strict `(ts, lane)` merge order whatever `max` is — `max` = 1 is a
    /// per-record drain — and each merge scan is amortized over a whole
    /// *run* of records from the winning lane.
    ///
    /// When that run is the winning lane's whole untouched batch (always,
    /// with one source), the batch is **handed over** instead of copied:
    /// its arena is swapped into `out` and the arena the caller passed in
    /// becomes the lane's next read — with one lane, the very next read,
    /// so a one-source drain fills one arena throughout. The caller
    /// therefore gets the source's own batches and must not expect `out`
    /// to keep its allocation from one call to the next.
    ///
    /// A batch is cut early when the next record's lane has a different
    /// link type (one [`LinkType`] per batch, matching
    /// `PacketSink::push_batch`), or when a live lane had nothing new —
    /// strict ordering forbids emitting past it, and handing the partial
    /// batch to the caller beats polling again on buffered work. With
    /// nothing buffered it polls that lane again: the source paced its own
    /// poll. `Ok(None)` once every source is exhausted.
    pub fn next_batch(
        &mut self,
        out: &mut RecordBatch,
        max: usize,
    ) -> Result<Option<LinkType>, SourceError> {
        self.next_batch_or_idle(out, max, || Ok(()))
    }

    /// [`CaptureMux::next_batch`], calling `idle` each time it is about
    /// to wait on a quiet lane with nothing to hand over — the moment for
    /// a caller that buffers its output to flush it.
    pub fn next_batch_or_idle<E: From<SourceError>>(
        &mut self,
        out: &mut RecordBatch,
        max: usize,
        mut idle: impl FnMut() -> Result<(), E>,
    ) -> Result<Option<LinkType>, E> {
        out.clear();
        if let [lane] = &mut self.lanes[..] {
            // A lone lane hands its batches over whole, so the arena the
            // caller has just spent is free: the next read fills that one,
            // and a one-source run touches one arena, not two.
            if lane.current.is_none() {
                std::mem::swap(&mut lane.spare, out);
            }
        }
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
                    waiting |= !lane.done;
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
                    // Never poll again on buffered work: hand the partial
                    // batch over and let the next call do the waiting.
                    break;
                }
                idle()?;
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
                // in; it takes the lane's next read.
                let (spare, _) = lane.current.take().expect("refill succeeded");
                lane.spare = spare;
                break;
            }
            // A sampled lane batch hands its trace tag to the merged batch
            // (first tag wins) so downstream stages keep attributing spans
            // after the fan-in copy.
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
        self.lanes.iter().map(|l| l.stats.truncated).sum()
    }

    /// Capture-side counters for lane `i`.
    pub fn lane_stats(&self, i: usize) -> LaneStats {
        self.lanes[i].stats.clone()
    }

    /// Ends the fan-in, closing every source. A source's failure has
    /// already surfaced from [`next_batch`](CaptureMux::next_batch), so
    /// this always succeeds.
    pub fn finish(self) -> Result<(), SourceError> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::ReplaySource;
    use std::sync::Mutex;
    use zoom_wire::pcap::Record;

    fn records(ts: impl IntoIterator<Item = u64>) -> Vec<Record> {
        ts.into_iter()
            .map(|t| Record::full(t, vec![0xCD; 60]))
            .collect()
    }

    /// A fan-in over `parts`, lane `i` stamped as [`stamped_sources`]
    /// stamps it.
    fn mux_of(parts: &[Vec<u64>]) -> CaptureMux {
        start(stamped_sources(parts, false), None)
    }

    fn start(sources: Vec<Box<dyn PacketSource>>, metrics: Option<&PipelineMetrics>) -> CaptureMux {
        CaptureMux::start(sources, MuxConfig, metrics)
    }

    /// Drains `mux` `max` records at a most: each record's timestamp and
    /// its first byte (the lane, for [`stamped_sources`]).
    fn drain_stamped(mux: &mut CaptureMux, max: usize) -> Vec<(u64, u8)> {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        while mux.next_batch(&mut batch, max).unwrap().is_some() {
            out.extend(batch.iter().map(|r| (r.ts_nanos, r.data[0])));
        }
        out
    }

    fn drain_ts(mux: &mut CaptureMux) -> Vec<u64> {
        drain_stamped(mux, MUX_MAX)
            .into_iter()
            .map(|(ts, _)| ts)
            .collect()
    }

    #[test]
    fn merge_is_globally_time_ordered() {
        let mut mux = mux_of(&[vec![0, 3, 6, 9], vec![1, 4, 7], vec![2, 5, 8]]);
        assert_eq!(mux.sources(), 3);
        assert_eq!(drain_ts(&mut mux), (0..10).collect::<Vec<_>>());
        assert_eq!(mux.records_delivered(), 10);
        mux.finish().unwrap();
    }

    #[test]
    fn timestamp_ties_break_by_lane_index() {
        for max in [1, MUX_MAX] {
            let mut mux = mux_of(&[vec![5, 5], vec![5, 5]]);
            let lanes: Vec<u8> = drain_stamped(&mut mux, max)
                .into_iter()
                .map(|(_, lane)| lane)
                .collect();
            // All four records tie on ts; lane 0 drains first.
            assert_eq!(lanes, vec![0, 0, 1, 1], "max={max}");
            mux.finish().unwrap();
        }
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
    fn batched_ties_break_by_lane_index() {
        // Interleaved ties: the run extension must stop at a tie owned
        // by an earlier lane, exactly like per-record (ts, lane) order.
        let mut mux = mux_of(&[vec![5, 5, 9], vec![5, 5, 9]]);
        assert_eq!(
            drain_stamped(&mut mux, MUX_MAX),
            vec![(5, 0), (5, 0), (5, 1), (5, 1), (9, 0), (9, 1)]
        );
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
        let n = (320 * BATCH_RECORDS) as u64;
        let (source, filled) = ArenaLoggingSource::boxed((0..n).collect());
        let mut mux = start(vec![source], None);

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

        // What the caller passed in was the lane's next read ...
        assert!(
            delivered.contains(&callers_arena),
            "the caller's arena never came back"
        );
        // ... so the whole drain uses one arena: each batch is read into
        // the one the caller has just spent.
        let mut distinct = delivered.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, [callers_arena], "{} batches", delivered.len());
    }

    #[test]
    fn a_lane_batch_that_precedes_every_other_lane_is_handed_over() {
        // Lane 0's whole batch sorts before lane 1's first record, and
        // lane 1 is alone once lane 0 is spent: both arrive uncopied.
        let (lane0, filled0) = ArenaLoggingSource::boxed((0..100).collect());
        let (lane1, filled1) = ArenaLoggingSource::boxed((1_000..1_100).collect());
        let mut mux = start(vec![lane0, lane1], None);
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
            let mut mux = start(sources, None);
            let order = drain_ts(&mut mux);
            mux.finish().unwrap();
            order
        };
        assert_eq!(per_record, vec![1, 5, 9, 2]);

        let (lane0, filled0) = ArenaLoggingSource::boxed(parts[0].clone());
        let (lane1, _) = ArenaLoggingSource::boxed(parts[1].clone());
        let mut mux = start(vec![lane0, lane1], None);
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
                let records: Vec<Record> = ts
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

    /// Everything one drain of a fan-in can be compared by.
    #[derive(Debug, PartialEq)]
    struct Drained {
        /// Link type, timestamp and lane stamp of every record, in order.
        records: Vec<(LinkType, u64, [u8; 3])>,
        stats: Vec<LaneStats>,
        delivered: (u64, u64),
        truncated: u64,
    }

    /// Drains `mux` by `next_batch(max)`.
    fn drain_all(mut mux: CaptureMux, max: usize) -> Drained {
        let mut records = Vec::new();
        let stamp = |data: &[u8]| [data[0], data[1], data[2]];
        let mut batch = RecordBatch::new();
        while let Some(link) = mux.next_batch(&mut batch, max).unwrap() {
            assert!(!batch.is_empty() && batch.len() <= max, "max={max}");
            records.extend(batch.iter().map(|r| (link, r.ts_nanos, stamp(r.data))));
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
    fn the_merge_is_the_spelled_out_order_at_every_max() {
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

            // `max` below a lane batch takes the copy loop, above it the
            // hand-over where a lane runs alone; 1 is per record. Every
            // `max` delivers the same records and counts them alike.
            for max in [1usize, 100, BATCH_RECORDS, MUX_MAX] {
                let drained = drain_all(start(stamped_sources(parts, *mixed_links), None), max);
                assert_eq!(drained.records, want, "{name}, max={max}");
                assert_eq!(
                    drained.delivered,
                    (want.len() as u64, want.len() as u64 * 60)
                );
                let packets: Vec<u64> = drained.stats.iter().map(|s| s.packets).collect();
                let lens: Vec<u64> = parts.iter().map(|p| p.len() as u64).collect();
                assert_eq!(packets, lens, "{name}, max={max}");
                assert_eq!(drained.truncated, 0);
            }
        }
    }

    #[test]
    fn inline_lanes_break_ties_by_lane_index_and_cut_at_a_link_change() {
        let mut mux = start(
            stamped_sources(&[vec![5, 5], vec![5, 5], vec![4, 5]], false),
            None,
        );
        assert_eq!(mux.sources(), 3);
        let lanes: Vec<u8> = drain_stamped(&mut mux, 1)
            .into_iter()
            .map(|(_, lane)| lane)
            .collect();
        assert_eq!(lanes, vec![2, 0, 0, 1, 1, 2]);
        mux.finish().unwrap();

        // One link type per batch: the drain stops where the next record's
        // lane has another, whatever `max` allows.
        let mut mux = start(stamped_sources(&[vec![1, 2, 5], vec![3, 4, 6]], true), None);
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
    /// thread would trip the assertion, and lose the lane's records.
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
        fn truncated_records(&self) -> u64 {
            self.inner.truncated_records()
        }
    }

    #[test]
    fn inline_lane_reads_on_the_callers_thread_into_one_arena() {
        use crate::source::BATCH_RECORDS;
        let batches = 50;
        let n = (batches * BATCH_RECORDS) as u64;
        let (inner, filled) = ArenaLoggingSource::boxed((0..n).collect());
        let mut mux = start(vec![SameThread::boxed(inner)], None);

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
        // filled — the drain reads into that one arena throughout.
        assert_eq!(delivered, *filled.lock().unwrap());
        let mut distinct = delivered.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct, [callers_arena], "{} batches", delivered.len());
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
        let mut mux = start(sources, None);

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
        let mut mux = start(
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
        mux.finish().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.sources[0].label, "test:stutter");
        assert_eq!(snap.source_packets_total(), 50);
        assert_eq!(snap.sources[0].delivered_ts_nanos, 49);

        // Beside other lanes: every record in its place, and the lanes'
        // own counters, the registry's per-source series and the torn
        // tails all count what each source read.
        let metrics = PipelineMetrics::new();
        let mut sources = stamped_sources(&[(0..400).collect(), (20..30).collect()], false);
        sources.insert(1, Box::new(Stuttering { next: 0, calls: 0 }));
        let drained = drain_all(start(sources, Some(&metrics)), crate::source::BATCH_RECORDS);
        let ts: Vec<u64> = drained.records.iter().map(|r| r.1).collect();
        let mut want: Vec<u64> = (0..400).chain(0..50).chain(20..30).collect();
        want.sort_unstable();
        assert_eq!(ts, want);
        assert_eq!(drained.truncated, 3);
        assert_eq!(drained.delivered.0, 400 + 50 + 10);
        let stutter = &drained.stats[1];
        assert_eq!(
            (stutter.packets, stutter.batches, stutter.truncated),
            (50, 5, 3)
        );
        let per_source: Vec<_> = metrics
            .snapshot()
            .sources
            .iter()
            .map(|s| (s.label.clone(), s.packets, s.batches, s.delivered_ts_nanos))
            .collect();
        assert_eq!(
            per_source,
            [
                ("replay:0".to_string(), 400, 4, 399),
                ("test:stutter".to_string(), 50, 5, 49),
                ("replay:1".to_string(), 10, 1, 29),
            ]
        );
    }

    #[test]
    fn start_reads_two_waiting_sources_on_the_callers_thread() {
        // Two sources that make their reader wait, the case that once got
        // a capture thread each: both are read where the drain runs, so
        // every record arrives (a read off-thread would panic there and
        // lose its lane).
        let mut mux = start(
            vec![
                SameThread::boxed(Box::new(Stuttering { next: 0, calls: 0 })),
                SameThread::boxed(Box::new(Stuttering { next: 0, calls: 0 })),
            ],
            None,
        );
        let (ts, _) = drain_batched(&mut mux, MUX_MAX);
        let want: Vec<u64> = (0..50).flat_map(|t| [t, t]).collect();
        assert_eq!(ts, want);
        assert_eq!(mux.truncated_records(), 6);
        mux.finish().unwrap();
    }

    #[test]
    fn quiet_followed_files_end_on_wall_clock_time() {
        use crate::source::{FollowConfig, PcapFileSource};
        use std::time::Duration;
        let dir = std::env::temp_dir().join(format!("zc-quiet-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let header = zoom_wire::pcap::Writer::new(Vec::new(), LinkType::Ethernet)
            .and_then(|w| w.finish())
            .unwrap();
        let follow = FollowConfig {
            poll: Duration::from_millis(10),
            idle_exit: Duration::from_millis(300),
        };
        let sources = ["a.pcap", "b.pcap"]
            .iter()
            .map(|name| {
                let path = dir.join(name);
                std::fs::write(&path, &header).unwrap();
                let source = PcapFileSource::open(path.to_str().unwrap()).unwrap();
                Box::new(source.follow(follow)) as Box<dyn PacketSource>
            })
            .collect();
        let began = std::time::Instant::now();
        let mut mux = start(sources, None);
        assert!(mux
            .next_batch(&mut RecordBatch::new(), MUX_MAX)
            .unwrap()
            .is_none());
        let took = began.elapsed();
        mux.finish().unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Each file's quiet is time since its last record, not the sum of
        // its own sleeps: the two sleep in turn, and still end together.
        assert!(took >= follow.idle_exit, "ended early: {took:?}");
        let slack = Duration::from_millis(200);
        assert!(
            took < follow.idle_exit + 2 * follow.poll + slack,
            "two quiet files took {took:?}"
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
            let mut mux = start(stamped_sources(&parts, false), Some(&metrics));
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
            assert_eq!(metrics.snapshot().sources.len(), lanes);
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
        let mut mux = start(vec![Box::new(FailsAfter { good: 1, served: 0 })], None);
        let mut out = RecordBatch::new();
        assert!(mux.next_batch(&mut out, MUX_MAX).unwrap().is_some());
        assert_eq!(out.len(), 1);
        let err = mux.next_batch(&mut out, MUX_MAX).unwrap_err().to_string();
        assert_eq!(err, "fail:later: synthetic failure");
        // The lane is finished: nothing more, no second error.
        assert!(mux.next_batch(&mut out, MUX_MAX).unwrap().is_none());
        mux.finish().unwrap();

        // Lane 1 of three fails mid-stream. The fan-in delivers what
        // precedes the failure, reports it once, and is left with that
        // lane finished and the others intact.
        let (before, err, after) = {
            let mut sources = stamped_sources(&[(0..100).collect(), (0..100).collect()], false);
            sources.insert(1, Box::new(FailsAfter { good: 3, served: 0 }));
            let mut mux = start(sources, None);
            // Lane 0 and 2 are stamped 0 and 1; the failing lane's
            // records are all 0xCD.
            let lane = |data: &[u8]| match data[0] {
                0 => 0,
                0xCD => 1,
                _ => 2,
            };
            // One record per drain: the failure surfaces where a
            // per-record merge meets it.
            let mut batch = RecordBatch::new();
            let mut before = Vec::new();
            let err = loop {
                match mux.next_batch(&mut batch, 1) {
                    Ok(Some(_)) => before.extend(batch.iter().map(|r| (r.ts_nanos, lane(r.data)))),
                    Ok(None) => panic!("the failure was swallowed"),
                    Err(e) => break e.to_string(),
                }
            };
            let mut after = Vec::new();
            while mux.next_batch(&mut batch, 1).unwrap().is_some() {
                after.extend(batch.iter().map(|r| (r.ts_nanos, lane(r.data))));
            }
            mux.finish().unwrap();
            (before, err, after)
        };
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
        let mut mux = start(sources, Some(&metrics));
        let mut batch = RecordBatch::new();
        while mux.next_batch(&mut batch, MUX_MAX).unwrap().is_some() {
            // Stand-in for the sink: count what it would ingest.
            metrics.record_batch_in(&batch);
            metrics.packets_not_zoom.add(batch.len() as u64);
        }
        mux.finish().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.sources.len(), 2);
        assert_eq!(snap.sources[0].label, "replay:a");
        assert_eq!(snap.source_packets_total(), 4);
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
        let mut mux = start(sources, Some(&metrics));
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
        assert!(ndjson.contains("\"span\":\"source_read\""), "{ndjson}");
        // No ring, no ring spans: the names stay reserved in the catalogue.
        assert!(!ndjson.contains("\"span\":\"ring_"), "{ndjson}");
        assert_eq!(metrics.snapshot().sources[0].delivered_ts_nanos, 63);
    }

    #[test]
    fn untraced_runs_never_tag_batches() {
        let metrics = PipelineMetrics::new();
        let sources: Vec<Box<dyn PacketSource>> = vec![Box::new(ReplaySource::new(
            "replay:q",
            LinkType::Ethernet,
            records(0..16),
        ))];
        let mut mux = start(sources, Some(&metrics));
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
        let mut mux = start(vec![Box::new(Failing)], None);
        let mut batch = RecordBatch::new();
        let err = loop {
            match mux.next_batch(&mut batch, MUX_MAX) {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("error was swallowed"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("synthetic failure"));
    }
}

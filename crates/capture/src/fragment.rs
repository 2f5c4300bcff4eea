//! [`FragmentSource`] — a [`PacketSource`] fed by a worker's wire-framed
//! fragment stream (`zoom_wire::frame`), the merge-node half of the
//! distributed shard tier.
//!
//! On the merge node every connected worker (a TCP connection in
//! `merge --listen` mode, a spooled file in `merge FILES...` mode)
//! becomes one `FragmentSource` lane in the ordinary
//! [`CaptureMux`](crate::mux::CaptureMux) fan-in. The records a worker
//! shipped are therefore merged by the exact deterministic `(ts, lane)`
//! rule the in-process multi-source path uses, which is what makes the
//! distributed analysis byte-identical to a single-process run
//! (`tests/distributed_differential.rs`; operator docs in
//! `docs/DISTRIBUTED.md`).
//!
//! Besides records, the stream carries the worker's own capture-side
//! accounting (cumulative `Totals` in Accounting/Bye frames). The source
//! mirrors the latest totals into a shared [`WorkerAccount`] so the
//! merge process can fold `zoom_worker_*` metrics into its conservation
//! invariant while the fan-in lane — read on the merge thread, over a
//! socket or a spool file alike — owns the source exclusively.

use crate::source::{PacketSource, SourceError};
use std::io::Read;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use zoom_analysis::obs::trace::{self, TraceCollector};
use zoom_wire::frame::{FrameEvent, FrameReader, Totals};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

/// Shared view of one worker's self-reported accounting, updated by the
/// lane that reads the stream as Accounting/Bye frames arrive and read by
/// the merge process for `zoom_worker_*` metrics.
#[derive(Debug, Default)]
pub struct WorkerAccount {
    /// Records the worker reported capturing (cumulative).
    pub packets: AtomicU64,
    /// Captured bytes the worker reported (cumulative).
    pub bytes: AtomicU64,
    /// Batches the worker's fan-in handled (cumulative).
    pub batches: AtomicU64,
    /// Records the worker reported dropping at capture (the wire format
    /// keeps the field; a current worker never drops and sends 0).
    pub ring_full_drops: AtomicU64,
    /// Records the worker's sources dropped (torn pcap tails).
    pub truncated: AtomicU64,
    /// Records actually decoded out of this worker's Records frames.
    pub records_received: AtomicU64,
    /// Record bytes decoded out of them: what the worker shipped of the
    /// `bytes` it captured.
    pub bytes_received: AtomicU64,
    /// Whether the stream ended with a proper Bye frame.
    pub complete: AtomicBool,
}

impl WorkerAccount {
    fn apply(&self, t: Totals) {
        self.packets.store(t.packets, Ordering::Release);
        self.bytes.store(t.bytes, Ordering::Release);
        self.batches.store(t.batches, Ordering::Release);
        self.ring_full_drops
            .store(t.ring_full_drops, Ordering::Release);
        self.truncated.store(t.truncated, Ordering::Release);
    }

    /// Plain-data copy of the worker's latest reported totals.
    pub fn totals(&self) -> Totals {
        Totals {
            packets: self.packets.load(Ordering::Acquire),
            bytes: self.bytes.load(Ordering::Acquire),
            batches: self.batches.load(Ordering::Acquire),
            ring_full_drops: self.ring_full_drops.load(Ordering::Acquire),
            truncated: self.truncated.load(Ordering::Acquire),
        }
    }
}

/// A [`PacketSource`] decoding one worker's fragment stream.
///
/// `next_batch` appends the records of the next Records frame to the
/// caller's batch — the frame is read onto the batch's arena and indexed
/// there, see [`FrameReader::next`]; Accounting frames update the shared
/// [`WorkerAccount`] in passing. The source reports exhaustion at the
/// Bye frame; EOF *before* Bye surfaces as a [`SourceError::Format`] so
/// a half-shipped worker can never silently pass for complete.
pub struct FragmentSource<R: Read + Send> {
    label: String,
    reader: FrameReader<R>,
    account: Arc<WorkerAccount>,
    /// Merge-side trace collector (None on untraced runs). Trace frames
    /// in the stream ship the worker's span events for the trace ID
    /// annotating the next Records frame; the collector re-ingests them
    /// verbatim so merge-side spans stitch onto the worker's tree.
    trace: Option<Arc<TraceCollector>>,
    /// Trace ID from the last Trace frame, consumed by the next Records
    /// frame (0 = none pending).
    pending_trace: u64,
}

impl<R: Read + Send> FragmentSource<R> {
    /// Wraps an already-validated frame stream. The source's label is
    /// `worker:<hello label>` so merge-side per-source metrics are
    /// attributable to the worker that shipped them.
    pub fn new(reader: FrameReader<R>) -> FragmentSource<R> {
        FragmentSource {
            label: format!("worker:{}", reader.label()),
            reader,
            account: Arc::new(WorkerAccount::default()),
            trace: None,
            pending_trace: 0,
        }
    }

    /// Validates the stream header on `input` and wraps the stream.
    pub fn open(input: R) -> Result<FragmentSource<R>, SourceError> {
        let reader = FrameReader::new(input)
            .map_err(|e| SourceError::Format(format!("fragment stream header: {e}")))?;
        Ok(FragmentSource::new(reader))
    }

    /// The worker's self-reported accounting, shared with the merge
    /// process (clone the `Arc` before handing the source to the mux).
    pub fn account(&self) -> Arc<WorkerAccount> {
        Arc::clone(&self.account)
    }

    /// The worker label from the Hello frame (without the `worker:`
    /// prefix the source label carries).
    pub fn worker_label(&self) -> &str {
        self.reader.label()
    }

    /// Attach the merge node's trace collector: Trace frames in the
    /// worker stream are re-ingested (stitching the worker's span tree
    /// into the merge-side trace by ID) and the annotated batches carry
    /// the worker's trace ID onward through the merge pipeline.
    pub fn with_trace(mut self, collector: Arc<TraceCollector>) -> FragmentSource<R> {
        self.trace = Some(collector);
        self
    }
}

impl<R: Read + Send> PacketSource for FragmentSource<R> {
    fn label(&self) -> &str {
        &self.label
    }

    fn link_type(&self) -> LinkType {
        self.reader.link_type()
    }

    fn next_batch(&mut self, batch: &mut RecordBatch) -> Result<bool, SourceError> {
        loop {
            // A Trace frame just announced the next Records frame: time
            // its decode for the `merge_decode` span.
            let decode_start = (self.pending_trace != 0).then(std::time::Instant::now);
            let held = batch.arena_bytes();
            let event = self
                .reader
                .next(batch)
                .map_err(|e| SourceError::Format(format!("fragment stream: {e}")))?;
            let decode_nanos = decode_start.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
            match event {
                Some(FrameEvent::Records { count }) => {
                    self.account
                        .records_received
                        .fetch_add(count as u64, Ordering::AcqRel);
                    self.account
                        .bytes_received
                        .fetch_add((batch.arena_bytes() - held) as u64, Ordering::AcqRel);
                    if self.pending_trace != 0 {
                        batch.trace_id = self.pending_trace;
                        if let Some(tc) = &self.trace {
                            tc.record(
                                self.pending_trace,
                                trace::spans::MERGE_DECODE,
                                &self.label,
                                count as u64,
                                decode_nanos,
                            );
                        }
                        self.pending_trace = 0;
                    }
                    return Ok(true);
                }
                Some(FrameEvent::Trace { trace_id }) => {
                    // Worker-side span events for the next Records frame.
                    // Without a merge-side collector they are skipped —
                    // a traced worker stream decodes fine untraced.
                    if let Some(tc) = &self.trace {
                        tc.ingest_foreign(trace_id, self.reader.trace_ndjson());
                        self.pending_trace = trace_id;
                    }
                }
                Some(FrameEvent::Accounting(t)) => self.account.apply(t),
                Some(FrameEvent::Bye(t)) => {
                    self.account.apply(t);
                    self.account.complete.store(true, Ordering::Release);
                    return Ok(false);
                }
                None => {
                    return Err(SourceError::Format(format!(
                        "{}: stream ended before Bye (worker cut off)",
                        self.label
                    )))
                }
            }
        }
    }

    fn truncated_records(&self) -> u64 {
        self.account.truncated.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoom_wire::frame::FrameWriter;

    fn stream(records: &[(u64, &[u8])], per_frame: usize) -> Vec<u8> {
        let mut w = FrameWriter::new(Vec::new(), "t0", LinkType::Ethernet).unwrap();
        let mut batch = RecordBatch::new();
        let mut bytes = 0u64;
        for chunk in records.chunks(per_frame) {
            batch.clear();
            for (ts, data) in chunk {
                batch.push(*ts, data.len() as u32, data);
                bytes += data.len() as u64;
            }
            w.write_batch(&batch).unwrap();
        }
        w.finish(Totals {
            packets: records.len() as u64,
            bytes,
            batches: records.len().div_ceil(per_frame) as u64,
            ring_full_drops: 0,
            truncated: 0,
        })
        .unwrap()
    }

    fn drain(src: &mut FragmentSource<&[u8]>) -> Vec<u64> {
        let mut out = Vec::new();
        let mut batch = RecordBatch::new();
        loop {
            batch.clear();
            let live = src.next_batch(&mut batch).unwrap();
            out.extend(batch.iter().map(|r| r.ts_nanos));
            if !live {
                break;
            }
        }
        out
    }

    #[test]
    fn delivers_records_and_final_accounting() {
        let data = stream(
            &[(1, &[0xAA; 60][..]), (2, &[0xBB; 61]), (3, &[0xCC; 62])],
            2,
        );
        let mut src = FragmentSource::open(&data[..]).unwrap();
        assert_eq!(src.label(), "worker:t0");
        assert_eq!(src.worker_label(), "t0");
        let account = src.account();
        assert_eq!(drain(&mut src), vec![1, 2, 3]);
        assert!(account.complete.load(Ordering::Acquire));
        let t = account.totals();
        assert_eq!((t.packets, t.bytes, t.batches), (3, 183, 2));
        assert_eq!(account.records_received.load(Ordering::Acquire), 3);
    }

    #[test]
    fn cut_stream_surfaces_an_error() {
        let data = stream(&[(1, &[0xAA; 60][..]), (2, &[0xBB; 60])], 1);
        // Drop the Bye frame (and a bit more) off the tail.
        let cut = &data[..data.len() - 45];
        let mut src = FragmentSource::open(cut).unwrap();
        let mut batch = RecordBatch::new();
        let err = loop {
            batch.clear();
            match src.next_batch(&mut batch) {
                Ok(true) => continue,
                Ok(false) => panic!("cut stream passed for complete"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("Bye") || err.to_string().contains("truncated"));
        assert!(!src.account().complete.load(Ordering::Acquire));
    }

    #[test]
    fn trace_frames_stitch_into_the_merge_collector() {
        // Worker side: record a span, ship it ahead of the records it
        // annotates.
        let worker = TraceCollector::new();
        worker.enable(1, "worker:t0");
        let id = worker.sample().unwrap();
        worker.record(id, trace::spans::SOURCE_READ, "pcap:a.pcap", 1, 0);
        let mut w = FrameWriter::new(Vec::new(), "t0", LinkType::Ethernet).unwrap();
        w.write_trace(id, worker.drain_trace_ndjson(id).as_bytes())
            .unwrap();
        let mut batch = RecordBatch::new();
        batch.push(1, 60, &[0xAA; 60]);
        w.write_batch(&batch).unwrap();
        let data = w
            .finish(Totals {
                packets: 1,
                bytes: 60,
                batches: 1,
                ..Totals::default()
            })
            .unwrap();

        // Merge side with a collector: foreign spans land, the batch
        // carries the worker's ID, and merge_decode joins the tree.
        let merge = Arc::new(TraceCollector::new());
        merge.enable(1, "merge");
        let mut src = FragmentSource::open(&data[..])
            .unwrap()
            .with_trace(Arc::clone(&merge));
        let mut out = RecordBatch::new();
        assert!(src.next_batch(&mut out).unwrap());
        assert_eq!(out.trace_id, id, "batch must carry the worker's trace ID");
        let stitched = merge.drain_ndjson();
        assert!(stitched.contains("\"node\":\"worker:t0\""));
        assert!(stitched.contains("\"span\":\"merge_decode\""));
        assert!(stitched.lines().all(|l| l.contains(&format!("{id:016x}"))));

        // An untraced merge decodes the same stream unchanged.
        let mut plain = FragmentSource::open(&data[..]).unwrap();
        let mut out2 = RecordBatch::new();
        assert!(plain.next_batch(&mut out2).unwrap());
        assert_eq!(out2.trace_id, 0);
        assert_eq!(out2.len(), out.len());
    }

    #[test]
    fn traced_spool_round_trip_times_encode_and_decode() {
        // Worker side, as `analyze --emit-fragments --trace` ships it.
        let worker = TraceCollector::new();
        worker.enable(1, "worker:t0");
        let id = worker.sample().unwrap();
        let mut batch = RecordBatch::new();
        for i in 0..64 {
            batch.push(i, 1_000, &[0xAB; 1_000]);
        }
        let mut w = FrameWriter::new(Vec::new(), "t0", LinkType::Ethernet).unwrap();
        w.write_batch_traced(&batch, id, |encode_nanos| {
            worker.record(id, trace::spans::FRAGMENT_ENCODE, "t0", 64, encode_nanos);
            worker.drain_trace_ndjson(id)
        })
        .unwrap();
        let spool = w.finish(Totals::default()).unwrap();

        // Merge side.
        let merge = Arc::new(TraceCollector::new());
        merge.enable(1, "merge");
        let mut src = FragmentSource::open(&spool[..])
            .unwrap()
            .with_trace(Arc::clone(&merge));
        let mut out = RecordBatch::new();
        assert!(src.next_batch(&mut out).unwrap());
        assert_eq!(out.len(), 64);

        let stitched = merge.drain_ndjson();
        for span in ["fragment_encode", "merge_decode"] {
            let line = stitched
                .lines()
                .find(|l| l.contains(&format!("\"span\":\"{span}\"")))
                .unwrap_or_else(|| panic!("no {span} span in:\n{stitched}"));
            assert!(line.contains("\"dur_nanos\":"), "no duration in {line}");
            assert!(
                !line.contains("\"dur_nanos\":0,") && !line.contains("\"dur_nanos\":0}"),
                "{span} reported a zero duration: {line}"
            );
        }
    }
}

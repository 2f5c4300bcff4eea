//! The unified ingest API: one trait both analysis sinks implement.
//!
//! Before this trait existed the pipeline had drifting entry points —
//! `Analyzer::process_record` and `StreamingEngine::push_record` among
//! them — with incompatible shapes (borrow
//! vs. owned records, infallible vs. `Result`, report-by-reference vs.
//! owned report). Those record-taking methods have since been removed;
//! [`PacketSink`] pins the one remaining shape:
//!
//! * [`push`](PacketSink::push) — borrowed bytes in, `Result` out: the
//!   zero-copy fast path every sink already had inherently
//!   (`process_packet` / `push_packet`) becomes the canonical API;
//! * [`finish`](PacketSink::finish) — consumes the sink, returns the
//!   owned [`AnalysisReport`];
//! * [`take_windows`](PacketSink::take_windows) — drains any window
//!   reports a streaming sink has buffered (batch sinks return nothing),
//!   so one generic read loop serves windowed and unwindowed modes;
//! * [`metrics`](PacketSink::metrics) /
//!   [`note_pcap_truncated`](PacketSink::note_pcap_truncated) — the
//!   observability surface ([`crate::obs`]), written once at the sink
//!   boundary.
//!
//! ## Migration (the old entry points no longer exist)
//!
//! ```text
//! removed                                  replacement
//! ---------------------------------------  -------------------------------------
//! a.process_record(&rec, link)             a.push(rec.ts_nanos, &rec.data, link)?
//! a.finish() (borrowing snapshot)          a.finish()? (consuming) / a.report()
//! engine.push_record(&rec, link)? -> wins  engine.push(..)?; engine.take_windows()
//! ```
//!
//! A generic feed loop over any sink:
//!
//! ```
//! use zoom_analysis::{PacketSink, Error};
//! use zoom_analysis::report::AnalysisReport;
//! use zoom_wire::pcap::{LinkType, Record};
//!
//! fn feed<S: PacketSink>(mut sink: S, records: &[Record]) -> Result<AnalysisReport, Error> {
//!     for r in records {
//!         sink.push(r.ts_nanos, &r.data, LinkType::Ethernet)?;
//!         for w in sink.take_windows() {
//!             println!("{}", w.to_json());
//!         }
//!     }
//!     sink.finish()
//! }
//!
//! # use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
//! let report = feed(Analyzer::new(AnalyzerConfig::default()), &[])?;
//! assert_eq!(report.summary.total_packets, 0);
//! # Ok::<(), Error>(())
//! ```

use crate::error::Error;
use crate::obs::MetricsSnapshot;
use crate::report::{AnalysisReport, WindowReport};
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::LinkType;

/// A packet-ingest sink: feed it capture records, finish it into an
/// [`AnalysisReport`]. Implemented by [`crate::pipeline::Analyzer`]
/// (sequential batch) and [`crate::engine::StreamingEngine`] (windowed
/// streaming).
pub trait PacketSink {
    /// Ingest one record as borrowed bytes (the zero-copy fast path; no
    /// per-record allocation in any implementation).
    ///
    /// A record the dissector rejects is *not* an error — it is counted
    /// in the sink's drop metrics and the call returns `Ok(())`. `Err` is
    /// reserved for sink-level failures.
    fn push(&mut self, ts_nanos: u64, data: &[u8], link: LinkType) -> Result<(), Error>;

    /// Ingest a whole capture hand-off batch
    /// ([`zoom_wire::handoff::RecordBatch`], the unit a
    /// `zoom-capture` fan-in ring carries) of records sharing one link
    /// type. Provided: the default loops [`push`](PacketSink::push) over
    /// the borrowed records and stops at the first sink-level error.
    fn push_batch(&mut self, batch: &RecordBatch, link: LinkType) -> Result<(), Error> {
        for r in batch.iter() {
            self.push(r.ts_nanos, r.data, link)?;
        }
        Ok(())
    }

    /// Drain window reports completed by previous [`push`](PacketSink::push)
    /// calls. Batch sinks never produce any; the streaming engine yields
    /// each closed tumbling window exactly once.
    fn take_windows(&mut self) -> Vec<WindowReport> {
        Vec::new()
    }

    /// Snapshot of the sink's [`crate::obs::PipelineMetrics`].
    fn metrics(&self) -> MetricsSnapshot;

    /// Record the pcap reader's torn-tail count (a gauge: pass the
    /// reader's cumulative [`zoom_wire::pcap::Reader::truncated_records`]
    /// before finishing so lossy inputs surface in the report's `drops`
    /// section instead of only on stderr).
    fn note_pcap_truncated(&mut self, records: u64);

    /// Record the pcap reader's cumulative delivery progress (gauges:
    /// pass [`zoom_wire::pcap::Reader::records_read`] /
    /// [`zoom_wire::pcap::Reader::bytes_read`]), so a metrics snapshot
    /// can relate pipeline counters to reader position. Optional; the
    /// default keeps the gauges at zero.
    fn note_pcap_progress(&mut self, _records: u64, _bytes: u64) {}

    /// Finish the analysis, consuming the sink and returning the owned
    /// final report.
    fn finish(self) -> Result<AnalysisReport, Error>
    where
        Self: Sized;
}

//! The capture filter's one loop: fan-in → filter → pcap.
//!
//! [`filter_to_pcap`] drains a [`CaptureMux`] batch by batch, offers every
//! record to the [`CapturePipeline`] (or passes all of them, when there is
//! none) and writes what passes to a single pcap. `zoom-tools capture`
//! runs it over whatever fan-in its sources call for, `zoom-tools filter`
//! over one file; nothing else filters to a file.
//!
//! Records are judged where they lie in the batch's arena; a passing one
//! is anonymized there and written from there, so a rejected record is
//! never copied and a passing one only into the output's buffer.
//!
//! Accounting goes to the registry once per batch
//! ([`PipelineMetrics::record_batch_in`] plus one add per verdict
//! counter), not once per record: the registry's counters are atomics a
//! scrape reads from another thread, and a filter that rejects
//! nine records in ten spends little else per record. A scrape therefore
//! lags the loop by at most one batch, and is never ahead of it.

use crate::mux::{CaptureMux, LaneStats};
use crate::pipeline::{CapturePipeline, Verdict};
use crate::source::{SourceError, BATCH_RECORDS};
use std::io::Write;
use zoom_analysis::obs::PipelineMetrics;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::pcap::{LinkType, Writer};

/// The filter and the pcap behind it, fed one merged batch at a time.
pub struct FilterWriter<'a, W: Write> {
    pipeline: Option<&'a mut CapturePipeline>,
    metrics: &'a PipelineMetrics,
    /// The output until the first batch pins its link type.
    unopened: Option<W>,
    writer: Option<(Writer<W>, LinkType)>,
    written: u64,
    written_bytes: u64,
}

impl<'a, W: Write> FilterWriter<'a, W> {
    /// A writer filtering through `pipeline` — `None` passes every record,
    /// a pure capture merger — counting into `metrics`, writing to `out`.
    pub fn new(
        pipeline: Option<&'a mut CapturePipeline>,
        metrics: &'a PipelineMetrics,
        out: W,
    ) -> FilterWriter<'a, W> {
        FilterWriter {
            pipeline,
            metrics,
            unopened: Some(out),
            writer: None,
            written: 0,
            written_bytes: 0,
        }
    }

    /// Offer one merged batch of `link`-typed records. The first batch
    /// pins the output's link type; a pcap file cannot mix link types, so
    /// a later batch of another is an error. Passing records are
    /// anonymized inside `batch`. `metrics` is up to date with the whole
    /// batch when this returns.
    pub fn push_batch(
        &mut self,
        batch: &mut RecordBatch,
        link: LinkType,
    ) -> Result<(), SourceError> {
        let w = match &mut self.writer {
            Some((_, pinned)) if *pinned != link => {
                return Err(SourceError::Format(format!(
                    "sources disagree on link type ({pinned:?} vs {link:?}); a pcap holds exactly one"
                )));
            }
            Some((w, _)) => w,
            None => {
                let out = self
                    .unopened
                    .take()
                    .expect("unopened until the first batch");
                &mut self.writer.insert((Writer::new(out, link)?, link)).0
            }
        };
        self.metrics.record_batch_in(batch);
        let (mut passed, mut not_zoom) = (0u64, 0u64);
        for i in 0..batch.len() {
            if let Some(p) = &mut self.pipeline {
                let r = batch.get(i).expect("index in bounds");
                match p.classify(r.ts_nanos, r.data, link) {
                    Verdict::Unparseable => {
                        self.metrics.drop_malformed.inc();
                        continue;
                    }
                    verdict if !verdict.passes() => {
                        not_zoom += 1;
                        continue;
                    }
                    _ => p.anonymize_in_place(batch.data_mut(i).expect("index in bounds"), link),
                }
            }
            let r = batch.get(i).expect("index in bounds");
            passed += 1;
            self.written_bytes += r.data.len() as u64;
            w.write_ref(r)?;
        }
        self.written += passed;
        self.metrics.packets_classified.add(passed);
        self.metrics.packets_not_zoom.add(not_zoom);
        Ok(())
    }

    /// Flush the output — a valid, empty pcap of `empty_link` if no batch
    /// ever came — and return it with the records and bytes written.
    pub fn finish(self, empty_link: LinkType) -> Result<(W, u64, u64), SourceError> {
        let writer = match self.writer {
            Some((w, _)) => w,
            None => {
                let out = self.unopened.expect("unopened until the first batch");
                Writer::new(out, empty_link)?
            }
        };
        Ok((writer.finish()?, self.written, self.written_bytes))
    }
}

/// What one [`filter_to_pcap`] run read and wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilterSummary {
    /// Merged records offered to the filter.
    pub delivered: u64,
    /// Records written to the output.
    pub written: u64,
    /// Captured bytes across written records.
    pub written_bytes: u64,
    /// Σ records the sources dropped at torn tails.
    pub truncated: u64,
    /// Capture-side counters per source, in lane order.
    pub lanes: Vec<LaneStats>,
}

/// Run `mux` dry through the filter into `out`: every merged record is
/// classified by `pipeline` (`None`: all pass) and, when it passes, written
/// — anonymized if the pipeline is configured to — to one pcap of the
/// records' link type (the first source's, if there are no records).
/// Returns the flushed output with the summary.
pub fn filter_to_pcap<W: Write>(
    mut mux: CaptureMux,
    pipeline: Option<&mut CapturePipeline>,
    metrics: &PipelineMetrics,
    out: W,
) -> Result<(W, FilterSummary), SourceError> {
    let empty_link = match mux.sources() {
        0 => LinkType::Ethernet,
        _ => mux.link_type(0),
    };
    let mut sink = FilterWriter::new(pipeline, metrics, out);
    let mut batch = RecordBatch::new();
    while let Some(link) = mux.next_batch(&mut batch, BATCH_RECORDS)? {
        sink.push_batch(&mut batch, link)?;
    }
    let (out, written, written_bytes) = sink.finish(empty_link)?;
    let summary = FilterSummary {
        delivered: mux.records_delivered(),
        written,
        written_bytes,
        truncated: mux.truncated_records(),
        lanes: (0..mux.sources()).map(|i| mux.lane_stats(i)).collect(),
    };
    mux.finish()?;
    Ok((out, summary))
}

//! # zoom-analysis — passive measurement of Zoom performance
//!
//! A Rust implementation of the analysis methodology from *"Enabling
//! Passive Measurement of Zoom Performance in Production Networks"*
//! (IMC '22): everything needed to turn raw packet captures of Zoom
//! traffic into fine-grained performance metrics, with no cooperation
//! from clients or servers.
//!
//! * [`entropy`] — the §4.2 reverse-engineering toolkit: field-series
//!   extraction, entropy/monotonicity classification, RTP/RTCP discovery
//! * [`packet`] — per-packet metadata extraction on top of `zoom-wire`
//! * [`classify`] — packet/byte accounting per encapsulation and payload
//!   type (Tables 2 and 3)
//! * [`stream`] — media stream and sub-stream tracking (Fig. 6)
//! * [`metrics`] — frame rate/size/delay, frame-level jitter, latency,
//!   and loss estimators (§5)
//! * [`meeting`] — the stream→meeting grouping heuristic (§4.3)
//! * [`pipeline`] — the end-to-end [`pipeline::Analyzer`]
//! * [`engine`] — the streaming [`engine::StreamingEngine`]: windowed
//!   reports, idle-timeout eviction, checkpoint/drain
//! * [`dist`] — merge-node checkpoint/restore for the distributed tier
//!   ([`dist::MergeCheckpoint`], [`dist::WindowGate`])
//! * [`report`] — owned [`report::AnalysisReport`] / windowed report
//!   types and their JSON serialization
//! * [`sink`] — the [`sink::PacketSink`] trait: the one ingest API both
//!   sinks (batch, streaming) implement
//! * [`obs`] — the production observability layer: lock-light metrics
//!   registry, JSON/Prometheus snapshots, feature-gated tracing
//! * [`error`] — the crate-wide [`Error`] type
//! * [`stats`] — CDFs, time bins, correlation
//! * [`fxhash`] — the vendored fast hasher behind every per-packet state
//!   table (reports stay deterministic: ordering is fixed at emit time)
//!
//! ## Quickstart
//!
//! ```
//! use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
//! use zoom_analysis::PacketSink;
//! use zoom_wire::pcap::LinkType;
//!
//! let config = AnalyzerConfig::builder()
//!     .campus("10.8.0.0/16")
//!     .build()
//!     .expect("valid config");
//! let mut analyzer = Analyzer::new(config);
//! // feed records: analyzer.push(record.ts_nanos, &record.data, LinkType::Ethernet)?;
//! let report = analyzer.finish()?;
//! assert_eq!(report.summary.zoom_packets, 0);
//! # Ok::<(), zoom_analysis::Error>(())
//! ```

#![warn(missing_docs)]

pub mod classify;
pub mod dist;
pub mod engine;
pub mod entropy;
pub mod error;
pub mod features;
pub mod fxhash;
pub mod meeting;
pub mod metrics;
pub mod obs;
pub mod packet;
pub mod pipeline;
pub mod report;
pub mod sink;
pub mod stats;
pub mod stream;

pub use error::Error;
pub use sink::PacketSink;

/// Position of the element `is` accepts, trying `hint` first — the
/// lookup of the small per-stream vectors that stand where hash maps
/// used to: they hold a handful of entries, and consecutive packets
/// nearly always want the one the previous packet hit.
pub(crate) fn position_hinted<T>(
    items: &[T],
    hint: usize,
    is: impl Fn(&T) -> bool,
) -> Option<usize> {
    match items.get(hint) {
        Some(item) if is(item) => Some(hint),
        _ => items.iter().position(is),
    }
}

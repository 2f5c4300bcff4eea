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
//! * [`stun_tracker`] — the capped P2P registers (§4.1) the analyzer and
//!   the capture filter both keep
//! * [`pipeline`] — the end-to-end [`pipeline::Analyzer`]
//! * [`engine`] — the streaming [`engine::StreamingEngine`]: windowed
//!   reports, idle-timeout eviction, the drain
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
//! let mut analyzer = Analyzer::new(AnalyzerConfig::default());
//! // feed records: analyzer.push(record.ts_nanos, &record.data, LinkType::Ethernet)?;
//! let report = analyzer.finish()?;
//! assert_eq!(report.summary.zoom_packets, 0);
//! # Ok::<(), zoom_analysis::Error>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

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
pub mod stun_tracker;

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

/// The last `N` RTP timestamps pushed, the oldest evicted first — how the
/// frame and jitter trackers remember which frames they have already
/// seen. A fixed ring, so [`contains`](RecentTimestamps::contains)
/// compares every slot with no early exit: a handful of vector compares
/// instead of a branch per element.
#[derive(Debug, Clone)]
pub(crate) struct RecentTimestamps<const N: usize> {
    slots: [u32; N],
    /// The slot the next push overwrites.
    next: usize,
    /// Nothing pushed yet: no slot holds a real value.
    empty: bool,
}

impl<const N: usize> RecentTimestamps<N> {
    pub(crate) const fn new() -> Self {
        RecentTimestamps {
            slots: [0; N],
            next: 0,
            empty: true,
        }
    }

    /// Remember `ts`, forgetting the oldest value once `N` are held.
    pub(crate) fn push(&mut self, ts: u32) {
        if self.empty {
            // The slots not yet written repeat the first value: it leaves
            // the set when its own slot is overwritten, and by then every
            // copy has been too.
            self.slots = [ts; N];
            self.empty = false;
        }
        self.slots[self.next] = ts;
        self.next = if self.next + 1 == N { 0 } else { self.next + 1 };
    }

    pub(crate) fn contains(&self, ts: u32) -> bool {
        !self.empty && self.slots.iter().fold(false, |hit, &s| hit | (s == ts))
    }

    /// The value pushed last.
    pub(crate) fn newest(&self) -> Option<u32> {
        let last = if self.next == 0 { N - 1 } else { self.next - 1 };
        (!self.empty).then_some(self.slots[last])
    }
}

#[cfg(test)]
mod tests {
    use super::RecentTimestamps;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// Runs `ops` — push a value, or ask for one — on a ring and on a
    /// `VecDeque` that pops its front past `N` entries, comparing every
    /// answer and, after each op, membership of every value in play.
    fn against_deque<const N: usize>(ops: &[(bool, u32)]) {
        let mut ring = RecentTimestamps::<N>::new();
        let mut model = VecDeque::new();
        for &(push, v) in ops {
            if push {
                ring.push(v);
                model.push_back(v);
                if model.len() > N {
                    model.pop_front();
                }
            } else {
                assert_eq!(ring.contains(v), model.contains(&v));
            }
            for probe in 0..12 {
                assert_eq!(ring.contains(probe), model.contains(&probe), "{ops:?}");
            }
            assert_eq!(ring.newest(), model.back().copied());
        }
    }

    proptest! {
        /// Values come from a small range so that hits, repeats and
        /// evictions are all common.
        #[test]
        fn ring_matches_a_bounded_deque(
            ops in proptest::collection::vec((any::<bool>(), 0u32..12), 0..200),
        ) {
            against_deque::<1>(&ops);
            against_deque::<4>(&ops);
            against_deque::<7>(&ops);
        }
    }

    #[test]
    fn a_new_ring_holds_nothing() {
        let ring = RecentTimestamps::<64>::new();
        assert!(!ring.contains(0));
        assert_eq!(ring.newest(), None);
    }
}

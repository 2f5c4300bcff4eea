//! Deterministic P2P detection (§4.1, Fig. 2): watch a two-party meeting
//! switch from SFU to P2P mode and show how the STUN exchange lets the
//! capture pipeline keep seeing the media after the 5-tuple changes —
//! the capability no prior work had.
//!
//! Run with: `cargo run --release --example p2p_detection`

use zoom_capture::pipeline::{CapturePipeline, PipelineConfig, Verdict};
use zoom_capture::zoom_nets::{ZoomIpList, ZoomNetwork};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::LinkType;

fn main() {
    let duration = 60 * SEC;
    let sim = MeetingSim::new(scenario::p2p_meeting(3, duration));

    let zoom_list = ZoomIpList::from_networks(vec![ZoomNetwork {
        cidr: "170.114.0.0/16".parse().unwrap(),
        owner: zoom_capture::zoom_nets::Owner::ZoomAs,
    }]);
    let mut pipeline = CapturePipeline::new(PipelineConfig {
        zoom_list,
        ..PipelineConfig::sample(scenario::CAMPUS_NET)
    });

    let mut current: Option<Verdict> = None;
    let mut since = 0u64;
    let mut counts = std::collections::HashMap::new();
    println!("verdict timeline (changes only):");
    for record in sim {
        let verdict = pipeline.classify(record.ts_nanos, &record.data, LinkType::Ethernet);
        *counts.entry(format!("{verdict:?}")).or_insert(0u64) += 1;
        if current != Some(verdict) {
            if let Some(prev) = current {
                println!(
                    "  {:>6.2}s - {:>6.2}s  {:?}",
                    since as f64 / 1e9,
                    record.ts_nanos as f64 / 1e9,
                    prev
                );
            }
            current = Some(verdict);
            since = record.ts_nanos;
        }
    }
    if let Some(prev) = current {
        println!("  {:>6.2}s - end      {prev:?}", since as f64 / 1e9);
    }

    println!("\nverdict totals:");
    let mut rows: Vec<_> = counts.into_iter().collect();
    rows.sort();
    for (v, n) in rows {
        println!("  {v:<12} {n}");
    }

    let c = pipeline.counters();
    let t = pipeline.tracker_stats();
    println!("\nstun register writes: {}", t.registered);
    println!("p2p lookups hit:      {}", t.hits);
    println!("p2p media captured:   {}", c.p2p_matched);
    assert!(
        c.p2p_matched > 0,
        "the P2P flow must be captured after the STUN exchange"
    );
    println!("\nOK: P2P media flow was deterministically detected after the STUN exchange.");
}

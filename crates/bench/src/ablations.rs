//! Ablation experiments for the design choices `DESIGN.md` calls out:
//! what breaks when a piece of the methodology is removed.

use crate::harness::{feed, ExpArgs};
use zoom_analysis::meeting::GroupingConfig;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig, STUN_TIMEOUT_NANOS};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig, Verdict};
use zoom_capture::zoom_nets::{Owner, ZoomIpList, ZoomNetwork};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::{Nanos, MS, SEC};
use zoom_wire::pcap::{LinkType, Record};
use zoom_wire::zoom::MediaType;

/// Ablation 1 — grouping without step 1 (duplicate-stream detection).
///
/// Step 1 gives stream copies a shared unique id: it is what connects one
/// campus participant's uplink with the copy forwarded to *another* campus
/// participant (they share no client IP), and what makes Method-1 RTT
/// matching groups exist at all. Without it, a meeting with two campus
/// participants splits into one meeting per client, and RTT estimation
/// loses every matching group.
pub fn grouping_without_step1(args: &ExpArgs) {
    let run = |grouping: GroupingConfig| {
        let mut cfg = scenario::validation_experiment(args.seed);
        for p in &mut cfg.participants {
            p.leave_at = 90 * SEC;
        }
        let sim = MeetingSim::new(cfg);
        let mut analyzer = Analyzer::new(AnalyzerConfig {
            grouping,
            ..AnalyzerConfig::default()
        });
        feed(&mut analyzer, sim);
        let groups = analyzer.duplicate_stream_groups();
        let multi = groups.values().filter(|g| g.len() >= 2).count();
        (analyzer.summary().meetings, multi)
    };
    let (meetings_full, dup_groups_full) = run(GroupingConfig::default());
    let (meetings_ablate, dup_groups_ablate) = run(GroupingConfig::without_step1());
    println!("Ablation: grouping heuristic step 1 (duplicate-stream detection)");
    println!("  with step 1:    {meetings_full} meeting(s), {dup_groups_full} duplicate group(s)");
    println!(
        "  without step 1: {meetings_ablate} meeting(s), {dup_groups_ablate} duplicate group(s)"
    );
    assert_eq!(
        meetings_full, 1,
        "full heuristic keeps the meeting together"
    );
    assert!(
        meetings_ablate > meetings_full,
        "removing step 1 must split the two campus participants apart"
    );
    assert_eq!(
        dup_groups_ablate, 0,
        "no RTT matching groups without step 1"
    );
}

/// Ablation 2 — packet-level vs frame-level jitter (§5.4's argument).
///
/// RTP video is bursty: frames are packet bursts followed by gaps, and the
/// packetization interval varies. A naive packet-interarrival jitter
/// estimator reads that structure as network jitter even on a *calm*
/// network; the paper's frame-level, timestamp-corrected estimator does
/// not.
pub fn jitter_packet_vs_frame(args: &ExpArgs) {
    let mut cfg = scenario::validation_experiment(args.seed);
    // Calm network: strip the congestion bursts.
    for p in &mut cfg.participants {
        p.congestion.clear();
        p.leave_at = 120 * SEC;
    }
    let sim = MeetingSim::new(cfg);
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    // Naive estimator state over the downlink video packets.
    let mut naive_j = 0.0f64;
    let mut last_arrival: Option<u64> = None;
    let mut last_gap: Option<i64> = None;
    let naive = |record: &Record| {
        let Ok(d) = zoom_wire::dissect::dissect(
            record.ts_nanos,
            &record.data,
            LinkType::Ethernet,
            zoom_wire::dissect::P2pProbe::Off,
        ) else {
            return;
        };
        if let Some(z) = d.zoom() {
            if z.media.media_type == MediaType::Video
                && d.five_tuple.dst_ip.to_string() == "10.8.3.3"
            {
                if let Some(prev) = last_arrival {
                    let gap = record.ts_nanos as i64 - prev as i64;
                    if let Some(pg) = last_gap {
                        let dd = (gap - pg).unsigned_abs() as f64;
                        naive_j += (dd - naive_j) / 16.0;
                    }
                    last_gap = Some(gap);
                }
                last_arrival = Some(record.ts_nanos);
            }
        }
    };
    feed(&mut analyzer, sim.inspect(naive));
    let stream = analyzer
        .streams()
        .of_type(MediaType::Video)
        .find(|s| s.key.flow.dst_ip.to_string() == "10.8.3.3" && s.key.flow.src_port == 8801)
        .expect("downlink video stream");
    let frame_j_ms = stream.jitter_ms();
    let naive_j_ms = naive_j / 1e6;
    println!("Ablation: jitter estimator on a CALM network");
    println!("  frame-level (paper §5.4): {frame_j_ms:.2} ms");
    println!("  naive packet-level:       {naive_j_ms:.2} ms");
    assert!(
        naive_j_ms > 3.0 * frame_j_ms.max(0.3),
        "the naive estimator must mistake frame burstiness for jitter \
         (naive {naive_j_ms:.2} vs frame {frame_j_ms:.2})"
    );
}

/// Ablation 3 — STUN register timeout sweep (§4.1's configurable timeout).
///
/// The media flow starts ~2 s after the STUN exchange in the switchover
/// scenario; register timeouts below that gap miss the P2P flow entirely,
/// anything above captures it fully (hits refresh entries, so even long
/// calls stay matched).
pub fn p2p_timeout_sweep(args: &ExpArgs) {
    let timeouts: &[Nanos] = &[
        500 * MS,
        1_500 * MS,
        2_500 * MS,
        10 * SEC,
        STUN_TIMEOUT_NANOS,
    ];
    println!("Ablation: P2P detection register timeout");
    let zoom_list = ZoomIpList::from_networks(vec![ZoomNetwork {
        cidr: "170.114.0.0/16".parse().unwrap(),
        owner: Owner::ZoomAs,
    }]);
    let mut rates = Vec::new();
    for &timeout in timeouts {
        let sim = MeetingSim::new(scenario::p2p_meeting(args.seed, 120 * SEC));
        let mut pipeline = CapturePipeline::new(PipelineConfig {
            zoom_list: zoom_list.clone(),
            stun_timeout_nanos: timeout,
            ..PipelineConfig::sample(scenario::CAMPUS_NET)
        });
        let mut p2p = 0u64;
        let mut missed_udp = 0u64;
        for record in sim {
            match pipeline.classify(record.ts_nanos, &record.data, LinkType::Ethernet) {
                Verdict::ZoomP2p => p2p += 1,
                Verdict::NotZoom => missed_udp += 1,
                _ => {}
            }
        }
        let rate = p2p as f64 / (p2p + missed_udp).max(1) as f64;
        println!(
            "  timeout {:>7.1} s: {p2p:>7} P2P captured, {missed_udp:>7} missed ({:.0} %)",
            timeout as f64 / 1e9,
            rate * 100.0
        );
        rates.push(rate);
    }
    assert!(rates[0] < 0.05, "sub-gap timeout must miss the flow");
    assert!(
        rates.last().unwrap() > &0.99,
        "the 120 s default must capture everything"
    );
    // Monotone non-decreasing in the timeout.
    for w in rates.windows(2) {
        assert!(w[1] >= w[0] - 1e-9);
    }
}

#[cfg(test)]
mod tests {
    // The ablations are exercised by `zoom-bench ablations` and asserted inline;
    // a smoke test keeps them compiling under `cargo test`.
    #[test]
    fn ablation_module_links() {
        let _ = super::grouping_without_step1 as fn(&crate::harness::ExpArgs);
    }
}

//! The paper's §5 validation methodology, reproduced: run the controlled
//! two-party experiment with cross-traffic bursts, estimate metrics
//! passively, and compare against the simulator's ground-truth QoS feed
//! (the stand-in for the instrumented Zoom SDK client) — Fig. 10a/b/c.
//!
//! The run is deterministic (seed 77), so every score is pinned to its
//! current value with a tight tolerance: a refactor may not move one, and
//! a change that means to edits the pin and says why. The frame-rate and
//! jitter scores are computed twice — from the batch `Analyzer`'s stream
//! state and from the one-second windows of a `StreamingEngine` pass over
//! the same records — so the engine is judged against simulator truth,
//! not against the analyzer.

use std::collections::HashMap;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::report::{StreamWindow, WindowReport};
use zoom_analysis::stream::Stream;
use zoom_analysis::PacketSink;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::qos::QosSample;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::pcap::LinkType;
use zoom_wire::zoom::MediaType;

struct Validation {
    analyzer: Analyzer,
    /// The engine's one-second windows in order, the drain's partial
    /// last one included.
    windows: Vec<WindowReport>,
    sdk_feed: Vec<QosSample>,
}

/// Run the experiment once; participant 0 is the campus "SDK client".
fn run() -> Validation {
    let mut sim = MeetingSim::new(scenario::validation_experiment(77));
    // The analyzer's scores read its per-second frame rows and jitter
    // samples; the engine's read its windows alone.
    let config = AnalyzerConfig {
        per_second_rows: true,
        ..AnalyzerConfig::default()
    };
    let mut analyzer = Analyzer::new(config);
    let mut engine = StreamingEngine::new(EngineConfig {
        window: Some(Duration::from_secs(1)),
        ..EngineConfig::default()
    })
    .expect("valid engine config");
    let mut windows = Vec::new();
    for record in &mut sim {
        analyzer
            .push(record.ts_nanos, &record.data, LinkType::Ethernet)
            .expect("push");
        engine
            .push(record.ts_nanos, &record.data, LinkType::Ethernet)
            .expect("push");
        windows.extend(engine.take_windows());
    }
    windows.push(engine.drain().expect("drain").final_window().clone());
    let mut gt = sim.ground_truth();
    Validation {
        analyzer,
        windows,
        sdk_feed: gt.swap_remove(0),
    }
}

/// The downlink video stream toward the SDK client (10.8.3.3) — what the
/// client renders, hence what its QoS feed describes.
fn downlink_video(analyzer: &Analyzer) -> &Stream {
    analyzer
        .streams()
        .of_type(MediaType::Video)
        .find(|s| s.key.flow.dst_ip.to_string() == "10.8.3.3" && s.key.flow.src_port == 8801)
        .expect("downlink video stream to the SDK client")
}

/// That stream's row in each one-second window that has one, by the
/// second the window covers.
fn downlink_video_windows(v: &Validation) -> HashMap<u64, &StreamWindow> {
    let key = downlink_video(&v.analyzer).key;
    v.windows
        .iter()
        .filter_map(|w| {
            let row = w.streams.iter().find(|s| s.key == key)?;
            Some((w.start_nanos / SEC, row))
        })
        .collect()
}

/// A score must sit on its pin; the message carries both.
fn assert_pinned(what: &str, score: f64, pin: f64, tolerance: f64) {
    assert!(
        (score - pin).abs() <= tolerance,
        "{what}: scored {score:.4}, pinned at {pin:.4} ± {tolerance}"
    );
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Fig. 10a's three scores from per-second delivered fps: the mean
/// absolute error against the SDK feed over the calm period (before the
/// first burst at 100 s), and the calm and burst means.
fn fps_scores(est: &HashMap<u64, f64>, sdk_feed: &[QosSample]) -> (f64, f64, f64) {
    let diffs: Vec<f64> = sdk_feed
        .iter()
        .filter(|s| (10..95).contains(&(s.at / SEC)))
        .filter_map(|s| Some((est.get(&(s.at / SEC))? - s.true_fps).abs()))
        .collect();
    assert!(diffs.len() > 60, "comparable seconds: {}", diffs.len());
    let calm = (20..90).filter_map(|s| est.get(&s)).sum::<f64>() / 70.0;
    let burst = (104..114).filter_map(|s| est.get(&s)).sum::<f64>() / 10.0;
    (mean(&diffs), calm, burst)
}

#[test]
fn fig10a_frame_rate_estimate_tracks_sdk_feed() {
    let v = run();
    // Method-1 per-second delivered fps, from the analyzer's per-second
    // frame rows…
    let seconds = downlink_video(&v.analyzer).seconds().unwrap();
    let from_frames: HashMap<u64, f64> = seconds
        .frames()
        .iter()
        .map(|r| (r.second, f64::from(r.frames)))
        .collect();
    // …and from the engine's one-second windows.
    let from_windows: HashMap<u64, f64> = downlink_video_windows(&v)
        .into_iter()
        .map(|(sec, row)| (sec, row.fps))
        .collect();

    // Both paths are held to the same pins: calm-period MAE, calm-period
    // mean, burst-period mean, fps.
    for (path, est) in [("analyzer", &from_frames), ("windows", &from_windows)] {
        let (mae, calm, burst) = fps_scores(est, &v.sdk_feed);
        assert_pinned(&format!("{path}: calm-period fps MAE"), mae, 0.2, 0.001);
        assert_pinned(&format!("{path}: calm-period fps"), calm, 28.0, 0.001);
        assert_pinned(&format!("{path}: burst-period fps"), burst, 14.6, 0.001);
        // The congestion bursts show up as a frame-rate drop (rate
        // adaptation, Fig. 10a).
        assert!(
            burst < calm - 4.0,
            "{path}: no visible adaptation: calm {calm:.1} vs burst {burst:.1}"
        );
    }
}

#[test]
fn fig10b_latency_estimate_matches_and_is_denser() {
    let v = run();
    let rtts = v.analyzer.rtp_rtt().samples();
    // Passive estimation yields far more samples than the 1 Hz SDK feed
    // (the paper: "significantly more data points").
    assert!(
        rtts > 3 * v.sdk_feed.len() as u64,
        "{rtts} rtt samples vs {} feed samples",
        v.sdk_feed.len()
    );
    // The estimate measures tap↔SFU, the feed client↔SFU: in the calm
    // period the error is the tiny campus leg plus estimator noise. In a
    // burst the estimate rises with the feed but reads well under it;
    // the gap is pinned so that it cannot widen unnoticed. The estimate
    // over a period is the mean of its one-second windows' samples:
    // Σ count·mean over Σ count (each window's mean is exact to 1 ns).
    let error_over = |period: std::ops::Range<u64>| {
        let (count, sum_ms) = v
            .windows
            .iter()
            .filter(|w| period.contains(&w.start_nanos))
            .map(|w| &w.totals.rtp_rtt)
            .fold((0, 0.0), |(n, sum), r| {
                (n + r.samples, sum + r.samples as f64 * r.mean_ms)
            });
        let truth: Vec<f64> = v
            .sdk_feed
            .iter()
            .filter(|s| period.contains(&s.at))
            .map(|s| s.true_latency_ms)
            .collect();
        assert!(count > 0 && !truth.is_empty());
        let est = sum_ms / count as f64;
        (est, est - mean(&truth))
    };
    let (calm_mean, calm_error) = error_over(10 * SEC..90 * SEC);
    let (burst_mean, burst_error) = error_over(104 * SEC..112 * SEC);
    assert_pinned("calm-period RTT estimate, ms", calm_mean, 45.2584, 0.001);
    assert_pinned("calm-period RTT error, ms", calm_error, -2.4416, 0.001);
    assert_pinned("burst-period RTT estimate, ms", burst_mean, 120.0845, 0.001);
    assert_pinned("burst-period RTT error, ms", burst_error, -66.4488, 0.001);
    // And Zoom's reported latency only refreshes every 5 s: far fewer
    // distinct values than the estimate.
    let mut reported: Vec<u64> = v
        .sdk_feed
        .iter()
        .map(|s| s.reported_latency_ms as u64)
        .collect();
    reported.dedup();
    assert!(reported.len() < v.sdk_feed.len() / 3);
}

#[test]
fn fig10c_jitter_estimate_exceeds_zooms_implausible_feed() {
    let v = run();
    // Zoom (and our SDK stand-in) clamp reported jitter below ~2 ms even
    // under congestion — the paper's surprising observation.
    assert!(v
        .sdk_feed
        .iter()
        .all(|s| s.reported_jitter_ms <= 2.0 + 1e-9));
    // Our estimator reflects the congestion instead: the frame-level
    // jitter estimate peaks well above 2 ms during the bursts and stays
    // small in the calm period (it does not invent congestion). Per
    // sample from the analyzer, per one-second mean from the windows.
    let samples = downlink_video(&v.analyzer).seconds().unwrap().jitter();
    let per_sample = |period: std::ops::Range<u64>| -> Vec<f64> {
        samples
            .iter()
            .filter(|(t, _)| period.contains(t))
            .map(|&(_, j)| j)
            .collect()
    };
    let rows = downlink_video_windows(&v);
    let per_window = |period: std::ops::Range<u64>| -> Vec<f64> {
        period.filter_map(|sec| rows.get(&sec)?.jitter_ms).collect()
    };
    // Both paths are held to the same pins.
    for (path, burst, calm) in [
        (
            "analyzer",
            per_sample(104 * SEC..114 * SEC),
            per_sample(10 * SEC..90 * SEC),
        ),
        ("windows", per_window(104..114), per_window(10..90)),
    ] {
        assert!(!burst.is_empty() && !calm.is_empty(), "{path}");
        let burst_peak = burst.iter().fold(0.0f64, |a, &b| a.max(b));
        let calm_mean = mean(&calm);
        assert_pinned(
            &format!("{path}: burst-period jitter peak, ms"),
            burst_peak,
            18.1155,
            0.001,
        );
        assert_pinned(
            &format!("{path}: calm-period jitter mean, ms"),
            calm_mean,
            1.3958,
            0.001,
        );
        assert!(
            burst_peak > 4.0 && calm_mean < burst_peak / 2.0,
            "{path}: calm {calm_mean:.2} vs burst {burst_peak:.2}"
        );
    }
}

#[test]
fn loss_shows_up_as_duplicates_not_holes() {
    // §5.5: Zoom's retransmissions reuse RTP sequence numbers, so a
    // monitor sees duplicates rather than missing packets.
    let v = run();
    let stream = downlink_video(&v.analyzer);
    let main = (stream.substreams.iter().find(|sub| sub.payload_type == 98))
        .expect("main video substream");
    let stats = main.seq_stats();
    assert_eq!(
        (main.packets, stats.duplicates, stats.missing),
        (30_733, 1, 0),
        "main video substream (received, duplicates, missing)"
    );
    // The engine's windows count the same retransmissions, over all of
    // the stream's substreams.
    let whole_stream: u64 = stream
        .substreams
        .iter()
        .map(|sub| sub.seq_stats().duplicates)
        .sum();
    let windowed: u64 = downlink_video_windows(&v)
        .values()
        .map(|row| row.duplicates)
        .sum();
    assert_eq!(windowed, whole_stream, "duplicates summed over the windows");
}

#[test]
fn tcp_rtt_splits_upstream_and_downstream() {
    // §5.3 method 2: TCP RTTs to the client and to the server are
    // separable, locating congestion relative to the tap.
    let v = run();
    let server: std::net::IpAddr = "170.114.1.10".parse().unwrap();
    let client: std::net::IpAddr = "10.8.3.3".parse().unwrap();
    let mean_to = |addr| {
        let to = v.analyzer.tcp_rtt().to(addr);
        to.mean_ms()
            .unwrap_or_else(|| panic!("no TCP RTT samples to {addr}"))
    };
    // The server sits across the WAN (~44 ms RTT); the client is on
    // campus (~3 ms RTT).
    assert_pinned("TCP RTT to the server, ms", mean_to(server), 48.84, 0.001);
    assert_pinned("TCP RTT to the client, ms", mean_to(client), 3.8529, 0.001);
}

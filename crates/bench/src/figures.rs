//! Regenerators for the paper's figures (2, 4/5, 6, 8, 10, 11, 13–17).
//!
//! Figures are emitted as CSV series under the `--out` directory (ready
//! for plotting) plus a printed summary of the *shape criteria* each
//! figure must satisfy (crossovers, clusters, correlations); see
//! `EXPERIMENTS.md`.

use crate::harness::{feed, no_meetings, write_csv, ExpArgs};
use std::collections::HashMap;
use std::time::Duration;
use zoom_analysis::engine::{EngineConfig, StreamingEngine};
use zoom_analysis::entropy::{extract_series, scan_flow, FieldClass};
use zoom_analysis::metrics::latency::RttTotals;
use zoom_analysis::pipeline::{Analyzer, AnalyzerConfig};
use zoom_analysis::stats::{pearson, Samples, TimeBins};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::qos::QosSample;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::dissect::{dissect, P2pProbe, Transport};
use zoom_wire::flow::FiveTuple;
use zoom_wire::pcap::LinkType;
use zoom_wire::zoom::MediaType;

/// Fig. 2: P2P connection establishment — the STUN exchange followed by
/// the media flow on the same client port.
pub fn fig2(args: &ExpArgs) {
    let sim = MeetingSim::new(scenario::p2p_meeting(args.seed, 60 * SEC));
    let mut events: Vec<(u64, String)> = Vec::new();
    let mut stun_port = None;
    let mut first_p2p: Option<(u64, u16)> = None;
    for record in sim {
        let Ok(d) = dissect(
            record.ts_nanos,
            &record.data,
            LinkType::Ethernet,
            P2pProbe::Auto,
        ) else {
            continue;
        };
        if d.is_stun() {
            let port = if d.five_tuple.dst_port == 3478 {
                d.five_tuple.src_port
            } else {
                d.five_tuple.dst_port
            };
            stun_port.get_or_insert(port);
            events.push((d.ts_nanos, format!("STUN exchange, campus port {port}")));
        }
        if let zoom_wire::dissect::App::Zoom(zoom_wire::zoom::Framing::P2p, _) = d.app {
            if first_p2p.is_none() {
                let port = if d.five_tuple.src_port == 8801 || d.five_tuple.dst_port == 8801 {
                    0
                } else if d.five_tuple.src_ip.to_string().starts_with("10.8") {
                    d.five_tuple.src_port
                } else {
                    d.five_tuple.dst_port
                };
                first_p2p = Some((d.ts_nanos, port));
                events.push((
                    d.ts_nanos,
                    format!("first P2P media packet, campus port {port}"),
                ));
            }
        }
    }
    println!("Fig. 2: P2P connection establishment");
    for (t, e) in &events {
        println!("  {:>7.3} s  {}", *t as f64 / 1e9, e);
    }
    let stun_port = stun_port.expect("STUN observed");
    let (t_p2p, p2p_port) = first_p2p.expect("P2P media observed");
    assert_eq!(
        stun_port, p2p_port,
        "the STUN client port must equal the later P2P media port"
    );
    println!(
        "\nOK: STUN port {stun_port} == P2P media port {p2p_port}; media followed {:.1} s later",
        t_p2p as f64 / 1e9
    );
    write_csv(
        args,
        "fig2_events.csv",
        "t_seconds,event",
        events
            .iter()
            .map(|(t, e)| format!("{:.4},{e}", *t as f64 / 1e9)),
    );
}

/// Figs. 3–5: entropy-based header analysis value series. Emits the
/// 1/2/4-byte series of the busiest flow (sampled) with inferred classes.
pub fn fig5(args: &ExpArgs) {
    let sim = MeetingSim::new(scenario::validation_experiment(args.seed));
    let mut flows: HashMap<FiveTuple, Vec<(u64, Vec<u8>)>> = HashMap::new();
    for record in sim {
        let Ok(d) = dissect(
            record.ts_nanos,
            &record.data,
            LinkType::Ethernet,
            P2pProbe::Off,
        ) else {
            continue;
        };
        if matches!(d.transport, Transport::Udp { .. }) {
            flows
                .entry(d.five_tuple)
                .or_default()
                .push((d.ts_nanos, d.payload.to_vec()));
        }
    }
    let (flow, packets) = flows
        .into_iter()
        .max_by_key(|(_, v)| v.len())
        .expect("flows captured");
    println!(
        "Fig. 5: field series of flow {flow} ({} packets)",
        packets.len()
    );

    // The representative fields of Fig. 5a–c, at our reconstructed
    // offsets (server framing):
    //  - 1-byte: media-type byte (8) and RTP PT byte (33 = RTP byte 1).
    //  - 2-byte: frame sequence (29) and RTP sequence (34).
    //  - 4-byte: RTP timestamp (36) and encrypted payload (60).
    let picks: &[(&str, usize, usize)] = &[
        ("media_type", 8, 1),
        ("rtp_pt", 33, 1),
        ("frame_seq", 29, 2),
        ("rtp_seq", 34, 2),
        ("rtp_ts", 36, 4),
        ("encrypted", 60, 4),
    ];
    let mut rows = Vec::new();
    for &(name, offset, width) in picks {
        let series = extract_series(
            packets.iter().map(|(t, p)| (*t, p.as_slice())),
            offset,
            width,
        );
        let class = series.classify();
        println!(
            "  {name:<12} offset {offset:>3} width {width}: {class:?} ({} values)",
            series.values.len()
        );
        // Sample ≤ 250 points per series, like the paper's plots.
        let step = (series.values.len() / 250).max(1);
        for (t, v) in series.values.iter().step_by(step) {
            rows.push(format!(
                "{name},{offset},{width},{:.4},{v}",
                *t as f64 / 1e9
            ));
        }
    }
    write_csv(
        args,
        "fig5_series.csv",
        "field,offset,width,t_seconds,value",
        rows,
    );

    // The automated Fig. 3/4 classification table.
    let scan = scan_flow(&packets, 44);
    let mut confident = 0;
    for (_, _, class, _) in &scan {
        if *class != FieldClass::Mixed {
            confident += 1;
        }
    }
    println!(
        "  scan: {confident}/{} (offset,width) positions confidently classified",
        scan.len()
    );
}

/// Fig. 6: the aggregation hierarchy of one meeting.
pub fn fig6(args: &ExpArgs) {
    let sim = MeetingSim::new(scenario::multi_party(args.seed, 60 * SEC));
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    feed(&mut analyzer, sim);
    println!("Fig. 6: aggregation levels within a Zoom meeting");
    for meeting in analyzer.meetings() {
        println!(
            "meeting {} — {} visible participants",
            meeting.id, meeting.participant_estimate
        );
        for key in &meeting.streams {
            let s = analyzer.stream(key).expect("stream exists");
            println!(
                "  stream ssrc=0x{:02x} [{}] {}",
                key.ssrc,
                s.media_type.label(),
                key.flow
            );
            for sub in &s.substreams {
                println!(
                    "    sub-stream PT {:>3} ({:<14}) packets={}",
                    sub.payload_type,
                    format!("{:?}", sub.kind),
                    sub.packets
                );
            }
            if let Some(frames) = s.frames() {
                println!("    frames: {}", frames.count());
            }
        }
    }
    let summary = analyzer.summary();
    assert_eq!(summary.meetings, 1);
}

/// Fig. 8/9: grouping heuristic on a small campus, including its
/// limitations (passive participants, NAT merges).
pub fn fig8(args: &ExpArgs) {
    let (scenario_obj, _infra) =
        scenario::campus_study(args.seed, args.duration(), args.scale(), 0.0);
    let truth: Vec<_> = scenario_obj.truth.clone();
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    feed(&mut analyzer, scenario_obj.into_stream());
    let meetings = analyzer.meetings();
    println!("Fig. 8: stream grouping — truth vs heuristic");
    println!("  true meetings:      {}", truth.len());
    println!("  estimated meetings: {}", meetings.len());
    let true_active: usize = truth.iter().map(|t| t.active_participants).sum();
    let est_participants: usize = meetings.iter().map(|m| m.participant_estimate).sum();
    println!("  true active participants: {true_active}");
    println!("  estimated (visible) participants: {est_participants}");
    println!("  (estimates are bounded above by truth: passive and");
    println!("   off-campus-only participants are invisible — Fig. 9)");
    write_csv(
        args,
        "fig8_meetings.csv",
        "meeting_id,streams,participant_estimate",
        meetings
            .iter()
            .map(|m| format!("{},{},{}", m.id, m.streams.len(), m.participant_estimate)),
    );
}

/// Fig. 10: estimation accuracy against the simulated SDK feed — frame
/// rate (a), latency (b), frame-level jitter (c) over a 5.5-minute
/// validation run with two congestion bursts.
pub fn fig10(args: &ExpArgs) {
    // One-second windows give the per-second RTT; the drained analyzer
    // holds the per-second frame rows and jitter samples.
    let mut sim = MeetingSim::new(scenario::validation_experiment(args.seed));
    let mut engine = StreamingEngine::new(EngineConfig {
        analyzer: AnalyzerConfig {
            per_second_rows: true,
            ..AnalyzerConfig::default()
        },
        window: Some(Duration::from_secs(1)),
        ..EngineConfig::default()
    })
    .expect("valid engine config");
    feed(&mut engine, &mut sim);
    let mut windows = engine.take_windows();
    let drained = engine.drain().expect("drain");
    windows.push(drained.final_window().clone());
    let analyzer = drained.analyzer;
    let gt = sim.ground_truth();
    let sdk: &[QosSample] = &gt[0];

    // The downlink video stream toward the SDK client.
    let stream = analyzer
        .streams()
        .of_type(MediaType::Video)
        .find(|s| s.key.flow.dst_ip.to_string() == "10.8.3.3" && s.key.flow.src_port == 8801)
        .expect("downlink video stream");
    let seconds = stream.seconds().expect("per-second rows kept");

    // (a) frame rate per second: estimate vs feed.
    let est_fps: HashMap<u64, f64> = seconds
        .frames()
        .iter()
        .map(|r| (r.second, f64::from(r.frames)))
        .collect();
    // (b) latency: per-second mean RTP-RTT, one window per second.
    let rtt_by_sec: HashMap<u64, f64> = windows
        .iter()
        .filter(|w| w.totals.rtp_rtt.samples > 0)
        .map(|w| (w.start_nanos / SEC, w.totals.rtp_rtt.mean_ms))
        .collect();
    // (c) jitter: estimator samples per second.
    let jitter_by_sec: HashMap<u64, f64> = seconds
        .jitter()
        .iter()
        .map(|&(t, j)| (t / SEC, j))
        .collect();

    let rows = sdk.iter().map(|s| {
        let sec = s.at / SEC;
        let fps = est_fps.get(&sec).copied().unwrap_or(0.0);
        let rtt = rtt_by_sec.get(&sec).copied().unwrap_or(f64::NAN);
        let jit = jitter_by_sec.get(&sec).copied().unwrap_or(f64::NAN);
        format!(
            "{sec},{fps:.1},{:.1},{rtt:.2},{:.2},{jit:.3},{:.3}",
            s.true_fps, s.reported_latency_ms, s.reported_jitter_ms
        )
    });
    write_csv(
        args,
        "fig10_series.csv",
        "t_seconds,est_fps,zoom_fps,est_latency_ms,zoom_latency_ms,est_jitter_ms,zoom_jitter_ms",
        rows,
    );

    // Shape summary.
    let mean_err: f64 = {
        let diffs: Vec<f64> = sdk
            .iter()
            .filter_map(|s| est_fps.get(&(s.at / SEC)).map(|e| (e - s.true_fps).abs()))
            .collect();
        diffs.iter().sum::<f64>() / diffs.len().max(1) as f64
    };
    println!("Fig. 10 validation summary:");
    println!("  (a) mean |fps estimate − feed| = {mean_err:.2} fps");
    println!(
        "  (b) rtt samples: {} (feed: {} @1 Hz, latency refresh 5 s)",
        analyzer.rtp_rtt().samples(),
        sdk.len()
    );
    let max_est_jitter = seconds
        .jitter()
        .iter()
        .map(|&(_, j)| j)
        .fold(0.0f64, f64::max);
    let max_zoom_jitter = sdk
        .iter()
        .map(|s| s.reported_jitter_ms)
        .fold(0.0f64, f64::max);
    println!(
        "  (c) max jitter: estimate {max_est_jitter:.1} ms vs Zoom-reported {max_zoom_jitter:.1} ms \
         (the paper's mismatch, reproduced)"
    );
}

/// Fig. 11: the two latency methods side by side.
pub fn fig11(args: &ExpArgs) {
    // Per-second RTT of both methods: the estimators' totals differenced
    // across every second boundary the trace crosses.
    let sim = MeetingSim::new(scenario::validation_experiment(args.seed));
    let mut analyzer = Analyzer::new(AnalyzerConfig::default());
    let mut seconds: Vec<(u64, RttTotals, RttTotals)> = Vec::new();
    let mut marks = (RttTotals::default(), RttTotals::default());
    // Each run of records in one second is fed whole, then the second
    // closes.
    let mut records = sim.peekable();
    while let Some(sec) = records.peek().map(|r| r.ts_nanos / SEC) {
        let of_sec = std::iter::from_fn(|| records.next_if(|r| r.ts_nanos / SEC == sec));
        feed(&mut analyzer, of_sec);
        let now = (analyzer.rtp_rtt().totals(), analyzer.tcp_rtt().totals());
        seconds.push((sec, now.0.since(marks.0), now.1.since(marks.1)));
        marks = now;
    }

    let server: std::net::IpAddr = "170.114.1.10".parse().unwrap();
    let rtp = analyzer.rtp_rtt().totals();
    let tcp = analyzer.tcp_rtt().totals();
    let tcp_server = analyzer.tcp_rtt().to(server);
    let tcp_clients = tcp.since(tcp_server);
    let mean = |t: RttTotals| t.mean_ms().unwrap_or(0.0);
    println!("Fig. 11: latency measurement methods");
    println!(
        "  (1) RTP stream copies:   {:>6} samples, mean RTT to SFU {:.1} ms",
        rtp.samples,
        mean(rtp)
    );
    println!(
        "  (2) TCP to server:       {:>6} samples, mean {:.1} ms",
        tcp_server.samples,
        mean(tcp_server)
    );
    println!(
        "      TCP to client:       {:>6} samples, mean {:.1} ms",
        tcp_clients.samples,
        mean(tcp_clients)
    );
    println!(
        "  RTP method yields {}x the probe density of the TCP method",
        rtp.samples / tcp_server.samples.max(1)
    );
    let rows = |method: &'static str, pick: fn(&(u64, RttTotals, RttTotals)) -> RttTotals| {
        seconds.iter().filter_map(move |s| {
            let t = pick(s);
            let mean = t.mean_ms()?;
            Some(format!("{method},{},{},{mean:.3}", s.0, t.samples))
        })
    };
    write_csv(
        args,
        "fig11_samples.csv",
        "method,t_seconds,samples,mean_rtt_ms",
        rows("rtp", |s| s.1).chain(rows("tcp", |s| s.2)),
    );
}

/// The capture-pipeline experiment behind Figs. 13 and 17: a mixed campus
/// feed filtered in the data plane, with per-minute packet rates.
pub struct CaptureExperiment {
    pub counters: zoom_analysis::obs::CaptureMetricsSnapshot,
    pub tracker: zoom_analysis::stun_tracker::TrackerStats,
    pub all_rate: TimeBins,
    pub zoom_rate: TimeBins,
}

/// Run it (requires `--background` > 0 to be meaningful); an error if the
/// scenario has no meetings.
pub fn capture_experiment(args: &ExpArgs) -> Result<CaptureExperiment, String> {
    let background = if args.background_ratio > 0.0 {
        args.background_ratio
    } else {
        13.6 // the paper's all-traffic : Zoom ratio
    };
    // Start at mid-morning peak so even a short window carries meetings.
    let infra = zoom_sim::infra::Infrastructure::generate();
    let scenario_obj = zoom_sim::campus::CampusScenario::generate(
        zoom_sim::campus::CampusConfig {
            duration: args.duration(),
            scale: args.scale(),
            start_hour: 10.0,
            background_ratio: background,
            seed: args.seed,
            ..Default::default()
        },
        &infra,
    );
    if scenario_obj.truth.is_empty() {
        return Err(no_meetings(args));
    }
    let mut capture = CapturePipeline::new(PipelineConfig {
        zoom_list: infra.ip_list.clone(),
        ..PipelineConfig::sample(scenario::CAMPUS_NET)
    });
    let minute = 60 * SEC;
    let mut all_rate = TimeBins::new(minute, args.duration());
    let mut zoom_rate = TimeBins::new(minute, args.duration());
    for record in scenario_obj.into_stream() {
        let verdict = capture.classify(record.ts_nanos, &record.data, LinkType::Ethernet);
        all_rate.add(record.ts_nanos, 1.0);
        if verdict.passes() {
            zoom_rate.add(record.ts_nanos, 1.0);
        }
    }
    Ok(CaptureExperiment {
        counters: capture.counters(),
        tracker: capture.tracker_stats(),
        all_rate,
        zoom_rate,
    })
}

/// Fig. 13: per-stage match counts of the capture pipeline, over a
/// capture run (`all` shares one run between Figs. 13 and 17).
pub fn fig13(exp: &CaptureExperiment) {
    let c = exp.counters;
    println!("Fig. 13: Zoom packet capture pipeline (per-stage counts)");
    println!("  packets in:           {}", c.total);
    println!("  excluded subnets:     {}", c.excluded);
    println!("  zoom IP matched:      {}", c.zoom_ip_matched);
    println!("  STUN matched:         {}", c.stun_registered);
    println!("  P2P lookup matched:   {}", c.p2p_matched);
    println!("  dropped (not Zoom):   {}", c.dropped);
    println!("  unparseable:          {}", c.unparseable);
    println!(
        "  written out:          {} ({:.1} %)",
        c.passed,
        100.0 * c.passed as f64 / c.total.max(1) as f64
    );
    println!(
        "  register writes: {}, hits: {}, expired: {}",
        exp.tracker.registered, exp.tracker.hits, exp.tracker.expired
    );
    assert_eq!(
        c.passed,
        c.zoom_ip_matched + c.stun_registered + c.p2p_matched,
        "stage counters must account for every passed packet"
    );
    assert!(c.dropped > c.passed, "background dominates a campus feed");
    if c.p2p_matched == 0 {
        println!(
            "  note: this sample contained no P2P meetings; rerun with a \
             longer --minutes or different --seed to exercise the P2P stage"
        );
    }
}

/// Fig. 14: data rate per media type over the trace.
pub fn fig14(analyzer: &Analyzer, args: &ExpArgs) {
    let minute = 60 * SEC;
    let mut bins: HashMap<&'static str, TimeBins> = HashMap::new();
    for (label, media) in [
        ("video", MediaType::Video),
        ("audio", MediaType::Audio),
        ("screen_share", MediaType::ScreenShare),
    ] {
        let mut tb = TimeBins::new(minute, args.duration());
        for s in analyzer.streams().of_type(media) {
            let seconds = s.seconds().expect("per-second rows kept");
            for row in seconds.rates() {
                tb.add(row.start_nanos(), row.media_bytes as f64);
            }
        }
        bins.insert(label, tb);
    }
    let n = bins["video"].bins().len();
    let rows = (0..n).map(|i| {
        let t_min = i as f64;
        let mbps = |label: &str| bins[label].bins()[i] * 8.0 / 60.0 / 1e6;
        format!(
            "{t_min},{:.4},{:.4},{:.4}",
            mbps("video"),
            mbps("audio"),
            mbps("screen_share")
        )
    });
    write_csv(
        args,
        "fig14_rates.csv",
        "t_minutes,video_mbps,audio_mbps,screen_mbps",
        rows,
    );

    let sum = |label: &str| bins[label].bins().iter().sum::<f64>();
    let (v, a, s) = (sum("video"), sum("audio"), sum("screen_share"));
    println!(
        "Fig. 14: media bytes — video {:.1} MB, audio {:.1} MB, screen {:.1} MB",
        v / 1e6,
        a / 1e6,
        s / 1e6
    );
    assert!(
        v > a && v > s,
        "video must dominate (paper: 'vast majority')"
    );
}

/// Fig. 15: per-media CDFs of data rate, frame rate, frame size, and
/// frame-level jitter.
pub fn fig15(analyzer: &Analyzer, args: &ExpArgs) {
    println!("Fig. 15: per-media metric distributions (medians / p95):");
    let mut rows: Vec<String> = Vec::new();
    for (label, media) in [
        ("video", MediaType::Video),
        ("audio", MediaType::Audio),
        ("screen_share", MediaType::ScreenShare),
    ] {
        let mut s = analyzer.media_samples(media);
        let mut emit =
            |metric: &str, len: usize, points: Vec<(f64, f64)>, median: f64, p95: f64| {
                if len == 0 {
                    return;
                }
                for (value, frac) in points {
                    rows.push(format!("{label},{metric},{value:.4},{frac:.4}"));
                }
                println!(
                    "  {label:<13} {metric:<18} n={len:<7} median={median:<10.3} p95={p95:.3}"
                );
            };
        for (metric, samples) in [
            ("data_rate_mbps", &mut s.bitrate_mbps),
            ("frame_rate_fps", &mut s.fps),
        ] {
            emit(
                metric,
                samples.len(),
                samples.cdf_points(200),
                samples.median(),
                samples.quantile(0.95),
            );
        }
        // Frame sizes come from a histogram: each value within 1/128.
        let sizes = &s.frame_size;
        emit(
            "frame_size_bytes",
            sizes.len() as usize,
            sizes.cdf_points(200),
            sizes.median() as f64,
            sizes.quantile(0.95) as f64,
        );
        let jitter = &mut s.jitter_ms;
        emit(
            "jitter_ms",
            jitter.len(),
            jitter.cdf_points(200),
            jitter.median(),
            jitter.quantile(0.95),
        );
    }
    write_csv(args, "fig15_cdfs.csv", "media,metric,value,cdf", rows);

    // Shape checks from §6.2.
    let mut video = analyzer.media_samples(MediaType::Video);
    let mut audio = analyzer.media_samples(MediaType::Audio);
    let mut screen = analyzer.media_samples(MediaType::ScreenShare);
    if !screen.bitrate_mbps.is_empty() {
        // 15a: screen-share bit rate is much closer to audio than video.
        let v = video.bitrate_mbps.median();
        let a = audio.bitrate_mbps.median();
        let s = screen.bitrate_mbps.median();
        println!("  15a: medians video {v:.3} / screen {s:.3} / audio {a:.3} Mbit/s");
        assert!(
            (s - a).abs() < (v - s).abs(),
            "screen-share rate closer to audio"
        );
        // 15b: ~15 % of screen-share seconds have zero frames; half ≤ 5.
        let zero = screen.fps.cdf_at(0.0);
        let le5 = screen.fps.cdf_at(5.0);
        println!("  15b: screen fps P[=0]={zero:.2} P[<=5]={le5:.2}");
        assert!(zero > 0.05, "screen share must have idle seconds");
        assert!(le5 > 0.4, "half of screen-share samples at ≤5 fps");
    }
    // 15b: video fps has probability mass around the 11–14 band.
    let le10 = video.fps.cdf_at(10.0);
    let le15 = video.fps.cdf_at(15.0);
    println!(
        "  15b: video fps P[<=10]={le10:.2}, P(10,15]={:.2}",
        le15 - le10
    );
    assert!(le15 - le10 > 0.2, "the reduced-fps mode cluster must exist");
    // 15c: most video frames below ~2000 B, few above 5000 B.
    let le2000 = video.frame_size.cdf_at(2_000.0);
    let gt5000 = 1.0 - video.frame_size.cdf_at(5_000.0);
    println!("  15c: video frames P[<=2000B]={le2000:.2}, P[>5000B]={gt5000:.2}");
    // 15d: most video jitter below 20 ms, long tail.
    let le20 = video.jitter_ms.cdf_at(20.0);
    println!("  15d: video jitter P[<=20ms]={le20:.2}");
    assert!(le20 > 0.7, "most jitter samples below 20 ms");
}

/// Fig. 16: jitter vs bit rate / frame rate scatter — no correlation, and
/// the two fps clusters.
pub fn fig16(analyzer: &Analyzer, args: &ExpArgs) {
    let samples = analyzer.fig16_samples();
    assert!(samples.len() > 100, "need samples, got {}", samples.len());
    // 1,500 randomly chosen samples, like the paper. Deterministic
    // sub-sampling by stride keeps the experiment reproducible.
    let stride = (samples.len() / 1_500).max(1);
    let picked: Vec<&(f64, f64, f64)> = samples.iter().step_by(stride).collect();
    write_csv(
        args,
        "fig16_scatter.csv",
        "jitter_ms,bitrate_mbps,fps",
        picked
            .iter()
            .map(|(j, b, f)| format!("{j:.4},{b:.4},{f:.1}")),
    );
    let jitter: Vec<f64> = picked.iter().map(|s| s.0).collect();
    let rate: Vec<f64> = picked.iter().map(|s| s.1).collect();
    let fps: Vec<f64> = picked.iter().map(|s| s.2).collect();
    let r_rate = pearson(&jitter, &rate);
    let r_fps = pearson(&jitter, &fps);
    println!("Fig. 16: correlation of frame-level jitter with:");
    println!("  bit rate:   r = {r_rate:+.3}");
    println!("  frame rate: r = {r_fps:+.3}");
    // The paper's point: jitter does not explain rate/fps variation —
    // scatter, not a line. A weak residual correlation remains in the
    // simulation because congestion events legitimately move both.
    assert!(
        r_rate.abs() < 0.45 && r_fps.abs() < 0.45,
        "jitter must not explain rate/fps variation: r_rate={r_rate:.2} r_fps={r_fps:.2}"
    );
    // The 14/28 fps bimodality.
    let mut fps_s = Samples::new();
    for &f in &fps {
        fps_s.push(f);
    }
    let low_cluster = fps_s.cdf_at(18.0) - fps_s.cdf_at(9.0);
    let high_cluster = fps_s.cdf_at(31.0) - fps_s.cdf_at(22.0);
    println!("  fps mass in (9,18] = {low_cluster:.2}, in (22,31] = {high_cluster:.2}");
    assert!(
        low_cluster > 0.15 && high_cluster > 0.1,
        "both frame-rate clusters must be visible"
    );
}

/// Fig. 17: packet rate, all campus traffic vs filtered Zoom traffic,
/// over a capture run.
pub fn fig17(exp: &CaptureExperiment, args: &ExpArgs) {
    let rows = exp
        .all_rate
        .iter()
        .zip(exp.zoom_rate.iter())
        .map(|((t, all), (_, zoom))| {
            format!("{},{:.1},{:.1}", t / (60 * SEC), all / 60.0, zoom / 60.0)
        });
    write_csv(args, "fig17_rates.csv", "t_minutes,all_pps,zoom_pps", rows);
    let total_all: f64 = exp.all_rate.bins().iter().sum();
    let total_zoom: f64 = exp.zoom_rate.bins().iter().sum();
    println!("Fig. 17: packet rates over the trace");
    println!(
        "  mean all:  {:.0} pkt/s   mean zoom: {:.0} pkt/s ({:.1} % — paper: 6.8 %)",
        total_all / (args.minutes as f64 * 60.0),
        total_zoom / (args.minutes as f64 * 60.0),
        100.0 * total_zoom / total_all.max(1.0)
    );
    assert!(total_zoom < total_all);
}

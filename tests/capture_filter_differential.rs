//! The compiled address-class table against the definition it replaced:
//! a reference classifier that answers "campus? excluded? Zoom server?"
//! by walking the three configured prefix lists, prefix by prefix, must
//! give every packet of a border-style trace the verdict
//! [`CapturePipeline`] gives it, and end with the same stage counters and
//! STUN-register statistics.
//!
//! And the one filter loop ([`filter_to_pcap`]) against the per-record
//! loop it replaced: the same output bytes, the same registry and the
//! same filter state, for one and two sources, filtering, anonymizing or
//! merging only; and the registry is exact after every batch, not just at
//! the end.

use std::net::{IpAddr, Ipv4Addr};
use zoom_analysis::obs::{MetricsSnapshot, PipelineMetrics};
use zoom_capture::anonymize::{Anonymizer, Mode};
use zoom_capture::cidr::{prefix_set, Cidr};
use zoom_capture::filter::{filter_to_pcap, FilterWriter};
use zoom_capture::mux::{CaptureMux, MuxConfig};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig, StageCounters, Verdict};
use zoom_capture::source::{PacketSource, ReplaySource, BATCH_RECORDS};
use zoom_capture::stun_tracker::{StunTracker, TrackerStats};
use zoom_capture::zoom_nets::{Owner, ZoomNetwork};
use zoom_sim::infra::Infrastructure;
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::family::FamilySelect;
use zoom_wire::flow::Endpoint;
use zoom_wire::handoff::RecordBatch;
use zoom_wire::ipv4::Protocol;
use zoom_wire::pcap::{LinkType, Record, Writer};
use zoom_wire::{ethernet, ipv4, stun, tcp, udp};

const EXCLUDED_NET: &str = "10.8.128.0/17";

/// Zoom meetings under web background, a P2P switch-over, and WebRTC
/// calls, merged by timestamp; clients land on both sides of
/// [`EXCLUDED_NET`].
fn border_records() -> Vec<Record> {
    let (campus, _) = scenario::campus_study(5, 60 * SEC, 1.0 / 5.0, 0.25);
    let mut records: Vec<Record> = campus.into_stream().collect();
    records.extend(MeetingSim::new(scenario::p2p_meeting(11, 60 * SEC)));
    records.extend(zoom_sim::webrtc::scenario(3, 30 * SEC));
    // A WebRTC call and a Zoom client inside the excluded subnet.
    records.extend(zoom_sim::webrtc::session_records(
        zoom_sim::webrtc::SessionConfig {
            client: Ipv4Addr::new(10, 8, 200, 9),
            ..zoom_sim::webrtc::SessionConfig::single(77, 20 * SEC)
        },
    ));
    let mut excluded_meeting = scenario::p2p_meeting(12, 30 * SEC);
    excluded_meeting.participants[0].ip = Ipv4Addr::new(10, 8, 130, 4);
    records.extend(MeetingSim::new(excluded_meeting));
    records.sort_by_key(|r| r.ts_nanos);
    records
}

/// The filter set-up [`border_records`] is cut for.
fn border_config(anonymizer: Option<Anonymizer>) -> PipelineConfig {
    // The simulated infrastructure's full list (the one `campus_study`
    // draws its servers from), plus the /16 the scripted meetings'
    // default servers sit in.
    let mut zoom_list = Infrastructure::generate().ip_list;
    zoom_list.push(ZoomNetwork {
        cidr: "170.114.0.0/16".parse().unwrap(),
        owner: Owner::ZoomAs,
    });
    PipelineConfig {
        campus_nets: prefix_set(&[scenario::CAMPUS_NET]),
        excluded_nets: prefix_set(&[EXCLUDED_NET]),
        zoom_list,
        stun_timeout_nanos: 120 * SEC,
        anonymizer,
        family: FamilySelect::Auto,
    }
}

/// Fig. 13 stage by stage, as the pipeline's module doc describes it, with
/// every address question answered by a linear walk.
struct Reference {
    campus: Vec<Cidr>,
    excluded: Vec<Cidr>,
    zoom: Vec<Cidr>,
    webrtc: bool,
    tracker: StunTracker,
    rtc_tracker: StunTracker,
    counters: StageCounters,
}

fn any_contains(list: &[Cidr], ip: Ipv4Addr) -> bool {
    list.iter().any(|c| c.contains(ip))
}

impl Reference {
    fn new(config: &PipelineConfig) -> Reference {
        Reference {
            campus: config.campus_nets.iter().map(|(c, _)| c).collect(),
            excluded: config.excluded_nets.iter().map(|(c, _)| c).collect(),
            zoom: config.zoom_list.networks().iter().map(|n| n.cidr).collect(),
            webrtc: config.family.allows(zoom_wire::family::FamilyId::Webrtc),
            tracker: StunTracker::new(config.stun_timeout_nanos),
            rtc_tracker: StunTracker::new(config.stun_timeout_nanos),
            counters: StageCounters::default(),
        }
    }

    fn classify(&mut self, ts: u64, data: &[u8]) -> Verdict {
        let verdict = self.decide(ts, data).unwrap_or(Verdict::Unparseable);
        let c = &mut self.counters;
        c.total += 1;
        c.total_bytes += data.len() as u64;
        match verdict {
            Verdict::Excluded => c.excluded += 1,
            Verdict::ZoomServer => c.zoom_ip_matched += 1,
            Verdict::ZoomStun => c.stun_registered += 1,
            Verdict::ZoomP2p => c.p2p_matched += 1,
            Verdict::RtcStun => c.rtc_stun_registered += 1,
            Verdict::RtcP2p => c.rtc_p2p_matched += 1,
            Verdict::NotZoom => c.dropped += 1,
            Verdict::Unparseable => c.unparseable += 1,
        }
        if verdict.passes() {
            c.passed += 1;
            c.passed_bytes += data.len() as u64;
        }
        verdict
    }

    fn decide(&mut self, ts: u64, data: &[u8]) -> Option<Verdict> {
        let eth = ethernet::Packet::new_checked(data).ok()?;
        if eth.ethertype() != ethernet::EtherType::Ipv4 {
            return None;
        }
        let ip = ipv4::Packet::new_checked(&data[ethernet::HEADER_LEN..]).ok()?;
        let (src, dst) = (ip.src_addr(), ip.dst_addr());
        let is_udp = ip.protocol() == Protocol::Udp;
        let (src_port, dst_port, is_stun) = match ip.protocol() {
            Protocol::Udp => {
                let u = udp::Packet::new_checked(ip.payload()).ok()?;
                (
                    u.src_port(),
                    u.dst_port(),
                    stun::looks_like_stun(u.payload()),
                )
            }
            Protocol::Tcp => {
                let t = tcp::Packet::new_checked(ip.payload()).ok()?;
                (t.src_port(), t.dst_port(), false)
            }
            _ => return None,
        };
        let src_ep = Endpoint::new(IpAddr::V4(src), src_port);
        let dst_ep = Endpoint::new(IpAddr::V4(dst), dst_port);

        let src_campus = any_contains(&self.campus, src);
        let dst_campus = any_contains(&self.campus, dst);
        if (src_campus && any_contains(&self.excluded, src))
            || (dst_campus && any_contains(&self.excluded, dst))
        {
            return Some(Verdict::Excluded);
        }

        let src_zoom = any_contains(&self.zoom, src);
        let dst_zoom = any_contains(&self.zoom, dst);
        if src_zoom || dst_zoom {
            let to_stun_port = (dst_zoom && dst_port == stun::STUN_PORT)
                || (src_zoom && src_port == stun::STUN_PORT);
            if !(is_udp && is_stun && to_stun_port) {
                return Some(Verdict::ZoomServer);
            }
            let client = if dst_zoom { src_ep } else { dst_ep };
            let IpAddr::V4(client_ip) = client.ip else {
                unreachable!("built from an IPv4 header");
            };
            if any_contains(&self.campus, client_ip) {
                self.tracker.register(client, ts);
            }
            return Some(Verdict::ZoomStun);
        }

        if is_udp {
            if (src_campus && self.tracker.check(src_ep, ts))
                || (dst_campus && self.tracker.check(dst_ep, ts))
            {
                return Some(Verdict::ZoomP2p);
            }
            if self.webrtc {
                if is_stun && (src_campus || dst_campus) {
                    let client = if src_campus { src_ep } else { dst_ep };
                    self.rtc_tracker.register(client, ts);
                    return Some(Verdict::RtcStun);
                }
                if (src_campus && self.rtc_tracker.check(src_ep, ts))
                    || (dst_campus && self.rtc_tracker.check(dst_ep, ts))
                {
                    return Some(Verdict::RtcP2p);
                }
            }
        }
        Some(Verdict::NotZoom)
    }
}

#[test]
fn compiled_class_table_agrees_with_linear_prefix_walk() {
    let (records, config) = (border_records(), border_config(None));
    let mut reference = Reference::new(&config);
    let mut pipeline = CapturePipeline::new(config);
    for (i, r) in records.iter().enumerate() {
        let expect = reference.classify(r.ts_nanos, &r.data);
        let got = pipeline.classify(r.ts_nanos, &r.data, LinkType::Ethernet);
        assert_eq!(got, expect, "record {i} at {} ns", r.ts_nanos);
    }
    let c = pipeline.counters();
    assert_eq!(c, reference.counters);
    assert_eq!(pipeline.tracker_stats(), reference.tracker.stats());
    assert_eq!(pipeline.rtc_tracker_stats(), reference.rtc_tracker.stats());

    // The trace reaches every stage the table feeds.
    assert!(c.zoom_ip_matched > 1_000, "{c:?}");
    assert!(c.dropped > 1_000, "{c:?}");
    for (stage, n) in [
        ("excluded", c.excluded),
        ("stun_registered", c.stun_registered),
        ("p2p_matched", c.p2p_matched),
        ("rtc_stun_registered", c.rtc_stun_registered),
        ("rtc_p2p_matched", c.rtc_p2p_matched),
    ] {
        assert!(n > 0, "no packet reached {stage}: {c:?}");
    }
    assert_eq!(c.unparseable, 0);
}

/// What a filter run leaves behind: the output file, the registry, and
/// the filter's own state (absent when nothing filtered).
#[derive(Debug, PartialEq)]
struct FilterRun {
    pcap: Vec<u8>,
    metrics: MetricsSnapshot,
    filter: Option<(StageCounters, TrackerStats, TrackerStats)>,
}

/// Which records a run passes, and how it writes them.
#[derive(Debug, Clone, Copy)]
enum Job {
    Filter,
    FilterAnonymized,
    MergeOnly,
}

impl Job {
    fn pipeline(self) -> Option<CapturePipeline> {
        let anonymizer = Anonymizer::new(7, Mode::PrefixPreserving);
        match self {
            Job::Filter => Some(CapturePipeline::new(border_config(None))),
            Job::FilterAnonymized => Some(CapturePipeline::new(border_config(Some(anonymizer)))),
            Job::MergeOnly => None,
        }
    }
}

fn filter_state(p: &CapturePipeline) -> (StageCounters, TrackerStats, TrackerStats) {
    (p.counters(), p.tracker_stats(), p.rtc_tracker_stats())
}

fn replay_sources(parts: &[Vec<Record>], links: &[LinkType]) -> Vec<Box<dyn PacketSource>> {
    parts
        .iter()
        .zip(links)
        .enumerate()
        .map(|(i, (recs, &link))| {
            Box::new(ReplaySource::new(
                &format!("replay:{i}"),
                link,
                recs.clone(),
            )) as Box<dyn PacketSource>
        })
        .collect()
}

/// Start the fan-in over `parts`, on `metrics`.
fn start_mux(parts: &[Vec<Record>], metrics: &PipelineMetrics) -> CaptureMux {
    let sources = replay_sources(parts, &vec![LinkType::Ethernet; parts.len()]);
    CaptureMux::start(sources, MuxConfig, Some(metrics))
}

/// The shipped loop.
fn run_filter_loop(parts: &[Vec<Record>], mode: Job) -> FilterRun {
    let metrics = PipelineMetrics::new();
    let mut pipeline = mode.pipeline();
    let mux = start_mux(parts, &metrics);
    let (pcap, summary) =
        filter_to_pcap(mux, pipeline.as_mut(), &metrics, Vec::new()).expect("filter run");
    let total: u64 = parts.iter().map(|p| p.len() as u64).sum();
    assert_eq!(summary.delivered, total);
    assert_eq!(summary.truncated, 0);
    assert_eq!(summary.lanes.len(), parts.len());
    FilterRun {
        pcap,
        metrics: metrics.snapshot(),
        filter: pipeline.as_ref().map(filter_state),
    }
}

/// The loop `capture` ran before there was one: a per-record drain, the
/// registry bumped for every record.
fn run_per_record_reference(parts: &[Vec<Record>], mode: Job) -> FilterRun {
    let metrics = PipelineMetrics::new();
    let mut pipeline = mode.pipeline();
    let mut mux = start_mux(parts, &metrics);
    let mut writer = Writer::new(Vec::new(), LinkType::Ethernet).unwrap();
    let mut batch = RecordBatch::new();
    while let Some(link) = mux.next_batch(&mut batch, 1).expect("mux batch") {
        let r = batch.get(0).expect("a one-record batch");
        metrics.record_in((r.orig_len as usize).max(r.data.len()));
        let record = Record {
            ts_nanos: r.ts_nanos,
            orig_len: r.orig_len,
            data: r.data.to_vec(),
        };
        let out = match &mut pipeline {
            Some(p) => match p.process_record(&record, link) {
                (Verdict::Unparseable, _) => {
                    metrics.drop_malformed.inc();
                    None
                }
                (_, None) => {
                    metrics.packets_not_zoom.inc();
                    None
                }
                (_, out) => out,
            },
            None => Some(record),
        };
        if let Some(out) = out {
            metrics.packets_classified.inc();
            writer.write_record(&out).unwrap();
        }
    }
    mux.finish().expect("capture teardown");
    FilterRun {
        pcap: writer.finish().unwrap(),
        metrics: metrics.snapshot(),
        filter: pipeline.as_ref().map(filter_state),
    }
}

/// `run` with what legitimately differs between two runs' clocks
/// blanked: the uptime.
fn clock_blind(mut run: FilterRun) -> FilterRun {
    run.metrics.uptime_seconds = 0;
    run
}

/// Frames the data plane cannot parse, one every `every` records: an
/// Ethernet frame of an unknown type, and one cut inside its IP header.
fn salt_with_unparseable(records: &mut Vec<Record>, every: usize) -> u64 {
    let mut salted = Vec::with_capacity(records.len() + records.len() / every + 1);
    let mut added = 0;
    for (i, r) in records.drain(..).enumerate() {
        if i % every == 0 {
            let mut data = r.data.clone();
            if added % 2 == 0 {
                data[12..14].copy_from_slice(&[0x88, 0xB5]);
            } else {
                data.truncate(20);
            }
            salted.push(Record::full(r.ts_nanos, data));
            added += 1;
        }
        salted.push(r);
    }
    *records = salted;
    added
}

#[test]
fn the_filter_loop_is_the_per_record_loop() {
    let mut records = border_records();
    let unparseable = salt_with_unparseable(&mut records, 997);
    let one = vec![records.clone()];
    let mut two = vec![Vec::new(), Vec::new()];
    for (i, r) in records.iter().enumerate() {
        // Runs of 5 and 3: the merge both copies interleaves and hands
        // whole arenas over.
        two[usize::from(i % 8 >= 5)].push(r.clone());
    }
    for parts in [&one, &two] {
        // The un-anonymized output, for the anonymized one to differ from.
        let mut plain = Vec::new();
        for mode in [Job::Filter, Job::FilterAnonymized, Job::MergeOnly] {
            let label = format!("{} source(s), {mode:?}", parts.len());
            let shipped = run_filter_loop(parts, mode);
            let reference = run_per_record_reference(parts, mode);

            let m = &shipped.metrics;
            assert!(m.conservation_holds(), "{label}");
            assert_eq!(m.packets_in, records.len() as u64, "{label}");
            assert_eq!(m.source_packets_total(), m.packets_in, "{label}");
            match shipped.filter {
                Some((c, ..)) => {
                    assert_eq!(m.drop_malformed, unparseable, "{label}");
                    assert_eq!(c.unparseable, unparseable, "{label}");
                    assert_eq!(m.packets_classified, c.passed, "{label}");
                    assert!(c.passed > 1_000 && c.dropped > 1_000, "{label}: {c:?}");
                }
                None => assert_eq!(m.packets_classified, m.packets_in, "{label}"),
            }
            match mode {
                Job::Filter => plain = shipped.pcap.clone(),
                Job::FilterAnonymized => {
                    assert_eq!(plain.len(), shipped.pcap.len(), "{label}");
                    assert!(plain != shipped.pcap, "{label}: nothing was anonymized");
                }
                Job::MergeOnly => {}
            }

            assert!(
                clock_blind(shipped) == clock_blind(reference),
                "{label}: batch loop != per-record loop"
            );
        }
    }
}

#[test]
fn sources_of_two_link_types_fail_with_one_pointed_error() {
    let records = border_records();
    let parts = vec![records[..400].to_vec(), records[200..600].to_vec()];
    let links = [LinkType::Ethernet, LinkType::RawIp];
    let metrics = PipelineMetrics::new();
    let mux = CaptureMux::start(replay_sources(&parts, &links), MuxConfig, Some(&metrics));
    let error = filter_to_pcap(mux, None, &PipelineMetrics::new(), Vec::new())
        .expect_err("a pcap holds one link type")
        .to_string();
    assert_eq!(
        error,
        "sources disagree on link type (Ethernet vs RawIp); a pcap holds exactly one"
    );
}

#[test]
fn the_registry_is_exact_after_every_batch() {
    let mut records = border_records();
    records.truncate(40_000);
    let unparseable = salt_with_unparseable(&mut records, 61);
    let metrics = PipelineMetrics::new();
    let mut pipeline = CapturePipeline::new(border_config(None));
    let mut reference = CapturePipeline::new(border_config(None));
    let by_record = PipelineMetrics::new();
    let mut mux = start_mux(&[records.clone()], &metrics);
    let mut sink = FilterWriter::new(Some(&mut pipeline), &metrics, Vec::new());

    let mut batch = RecordBatch::new();
    let mut batches = 0;
    while let Some(link) = mux
        .next_batch(&mut batch, BATCH_RECORDS)
        .expect("mux batch")
    {
        sink.push_batch(&mut batch, link).expect("push");
        batches += 1;
        // The per-record count of the same records, bumped one at a time.
        for r in &batch {
            by_record.record_in(r.wire_len());
            match reference.classify(r.ts_nanos, r.data, link) {
                Verdict::Unparseable => by_record.drop_malformed.inc(),
                v if v.passes() => by_record.packets_classified.inc(),
                _ => by_record.packets_not_zoom.inc(),
            }
        }
        let (got, want) = (metrics.snapshot(), by_record.snapshot());
        assert_eq!(got.packets_in, mux.records_delivered(), "batch {batches}");
        assert_eq!(
            (got.packets_in, got.bytes_in, &got.packet_size),
            (want.packets_in, want.bytes_in, &want.packet_size),
            "batch {batches}"
        );
        assert_eq!(
            (
                got.packets_classified,
                got.packets_not_zoom,
                got.drop_malformed
            ),
            (
                want.packets_classified,
                want.packets_not_zoom,
                want.drop_malformed
            ),
            "batch {batches}"
        );
        assert!(got.conservation_holds(), "batch {batches}");
    }
    assert!(batches > 100, "only {batches} batches");
    assert_eq!(metrics.snapshot().drop_malformed, unparseable);
    let (_, written, _) = sink.finish(LinkType::Ethernet).expect("finish");
    assert_eq!(written, reference.counters().passed);
    mux.finish().expect("capture teardown");
}

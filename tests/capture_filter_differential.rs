//! The compiled address-class table against the definition it replaced:
//! a reference classifier that answers "campus? excluded? Zoom server?"
//! by walking the three configured prefix lists, prefix by prefix, must
//! give every packet of a border-style trace the verdict
//! [`CapturePipeline`] gives it, and end with the same stage counters and
//! STUN-register statistics.

use std::net::{IpAddr, Ipv4Addr};
use zoom_capture::cidr::{prefix_set, Cidr};
use zoom_capture::pipeline::{CapturePipeline, PipelineConfig, StageCounters, Verdict};
use zoom_capture::stun_tracker::StunTracker;
use zoom_capture::zoom_nets::{Owner, ZoomNetwork};
use zoom_sim::meeting::MeetingSim;
use zoom_sim::scenario;
use zoom_sim::time::SEC;
use zoom_wire::family::FamilySelect;
use zoom_wire::flow::Endpoint;
use zoom_wire::ipv4::Protocol;
use zoom_wire::pcap::{LinkType, Record};
use zoom_wire::{ethernet, ipv4, stun, tcp, udp};

const EXCLUDED_NET: &str = "10.8.128.0/17";

/// Zoom meetings under web background, a P2P switch-over, and WebRTC
/// calls, merged by timestamp; clients land on both sides of
/// [`EXCLUDED_NET`].
fn border_trace() -> (Vec<Record>, PipelineConfig) {
    let (campus, infra) = scenario::campus_study(5, 60 * SEC, 1.0 / 5.0, 0.25);
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

    // The simulated infrastructure's full list, plus the /16 the scripted
    // meetings' default servers sit in.
    let mut zoom_list = infra.ip_list;
    zoom_list.push(ZoomNetwork {
        cidr: "170.114.0.0/16".parse().unwrap(),
        owner: Owner::ZoomAs,
    });
    let config = PipelineConfig {
        campus_nets: prefix_set(&[scenario::CAMPUS_NET]),
        excluded_nets: prefix_set(&[EXCLUDED_NET]),
        zoom_list,
        stun_timeout_nanos: 120 * SEC,
        anonymizer: None,
        family: FamilySelect::Auto,
    };
    (records, config)
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
    let (records, config) = border_trace();
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

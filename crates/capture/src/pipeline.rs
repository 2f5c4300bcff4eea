//! The Zoom packet-filter pipeline (Fig. 13 of the paper) in software.
//!
//! Mirrors the Tofino P4 program stage by stage:
//!
//! 1. **Campus match** — determine the campus-side endpoint; packets from
//!    excluded subnets (research-computing bulk traffic) are dropped.
//! 2. **Zoom IP match** — stateless check of either address against the
//!    published Zoom server list; matching TCP (control, port 443) and UDP
//!    (media, port 8801; STUN, port 3478) passes.
//! 3. **STUN registration** — STUN packets between a campus client and a
//!    Zoom server write the campus `(ip, port)` endpoint into the P2P
//!    registers.
//! 4. **P2P lookup** — non-server UDP packets whose campus endpoint is
//!    registered pass as P2P media; everything else is dropped.
//! 5. **Anonymization** — campus addresses in passing packets are
//!    rewritten with a one-way function before being written out.
//!
//! The pipeline parses only what a data plane would: link, IP, transport
//! ports, and the STUN magic — never the Zoom media payload.
//!
//! Stages 1 and 2 ask three questions of each address — campus? excluded?
//! Zoom server? — that the hardware answers with one TCAM lookup.
//! [`CapturePipeline::new`] therefore compiles the three configured prefix
//! lists into one address-class table (the private `cidr` module), and
//! classification looks each of the two addresses up in it exactly once.

use crate::anonymize::Anonymizer;
use crate::cidr::IntervalTable;
use crate::zoom_nets::ZoomIpList;
use std::net::{IpAddr, Ipv4Addr};
use zoom_analysis::obs::CaptureMetricsSnapshot;
use zoom_analysis::pipeline::STUN_TIMEOUT_NANOS;
use zoom_analysis::stun_tracker::{StunTracker, TrackerStats};
use zoom_wire::cidr::Cidr;
use zoom_wire::family::{FamilyId, FamilySelect};
use zoom_wire::flow::Endpoint;
use zoom_wire::ipv4::Protocol;
use zoom_wire::pcap::{LinkType, Record};
use zoom_wire::{ethernet, ipv4, stun, udp};

/// Configuration of the capture pipeline.
#[derive(Debug)]
pub struct PipelineConfig {
    /// Campus-internal networks (the monitor sits at the border).
    pub campus_nets: Vec<Cidr>,
    /// Campus subnets excluded from capture (bulk research traffic).
    pub excluded_nets: Vec<Cidr>,
    /// Zoom's published server networks.
    pub zoom_list: ZoomIpList,
    /// Timeout for P2P detection register entries.
    pub stun_timeout_nanos: u64,
    /// When set, campus addresses in passing packets are anonymized.
    pub anonymizer: Option<Anonymizer>,
    /// Protocol families the filter captures for. With
    /// [`FamilyId::Webrtc`] allowed, STUN exchanges between a campus
    /// client and a non-Zoom peer register the campus endpoint in a
    /// second set of P2P registers, and subsequent media on that
    /// endpoint passes as [`Verdict::RtcP2p`].
    pub family: FamilySelect,
}

impl PipelineConfig {
    /// A config with the sample Zoom list, the given campus, no
    /// exclusions, no anonymizer, Zoom only, and the analyzer's STUN
    /// register lifetime ([`STUN_TIMEOUT_NANOS`]). Panics on an invalid
    /// campus literal (meant for static configuration).
    pub fn sample(campus: &str) -> PipelineConfig {
        PipelineConfig {
            campus_nets: vec![campus.parse().expect("static CIDR literal")],
            excluded_nets: Vec::new(),
            zoom_list: crate::zoom_nets::sample_list(),
            stun_timeout_nanos: STUN_TIMEOUT_NANOS,
            anonymizer: None,
            family: FamilySelect::Only(FamilyId::Zoom),
        }
    }
}

/// Classification of one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// Zoom server-based traffic (UDP media, TCP control, or any other
    /// packet to/from a published Zoom address).
    ZoomServer,
    /// STUN exchange with a Zoom server (also registers the endpoint).
    ZoomStun,
    /// Zoom P2P media recognized via the STUN registers.
    ZoomP2p,
    /// Non-Zoom STUN exchange involving a campus client (registers the
    /// endpoint in the WebRTC registers). Only produced when the
    /// configured [`PipelineConfig::family`] allows WebRTC.
    RtcStun,
    /// WebRTC media recognized via the WebRTC STUN registers.
    RtcP2p,
    /// Dropped: neither a Zoom server nor a registered P2P endpoint.
    NotZoom,
    /// Dropped: campus-side endpoint in an excluded subnet.
    Excluded,
    /// Dropped: could not parse the headers the data plane needs.
    Unparseable,
}

impl Verdict {
    /// Does this packet reach the capture output?
    pub fn passes(self) -> bool {
        matches!(
            self,
            Verdict::ZoomServer
                | Verdict::ZoomStun
                | Verdict::ZoomP2p
                | Verdict::RtcStun
                | Verdict::RtcP2p
        )
    }
}

/// Address-class bits of the compiled table: which configured prefix
/// lists cover an address, in the order [`CapturePipeline::new`] hands
/// them to [`IntervalTable::classes`].
const CAMPUS: u8 = 1;
const EXCLUDED: u8 = 2;
const ZOOM: u8 = 4;

/// The capture pipeline.
#[derive(Debug)]
pub struct CapturePipeline {
    config: PipelineConfig,
    /// `config`'s three prefix lists, compiled into one table.
    classes: IntervalTable,
    tracker: StunTracker<Endpoint>,
    rtc_tracker: StunTracker<Endpoint>,
    counters: CaptureMetricsSnapshot,
}

/// Light-weight header facts the data plane extracts per packet.
#[derive(Debug, Clone, Copy)]
struct HeaderFacts {
    src: Ipv4Addr,
    dst: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    protocol: Protocol,
    is_stun: bool,
}

impl CapturePipeline {
    /// Build from a configuration.
    pub fn new(config: PipelineConfig) -> Self {
        let tracker = StunTracker::new(config.stun_timeout_nanos);
        let rtc_tracker = StunTracker::new(config.stun_timeout_nanos);
        let zoom: Vec<Cidr> = config.zoom_list.networks().iter().map(|n| n.cidr).collect();
        let classes = IntervalTable::classes(&[&config.campus_nets, &config.excluded_nets, &zoom]);
        CapturePipeline {
            classes,
            config,
            tracker,
            rtc_tracker,
            counters: CaptureMetricsSnapshot::default(),
        }
    }

    /// Counter snapshot: the `capture` section of a `--metrics` snapshot.
    pub fn counters(&self) -> CaptureMetricsSnapshot {
        CaptureMetricsSnapshot {
            register_refused: self.tracker.stats().rejected_full
                + self.rtc_tracker.stats().rejected_full,
            ..self.counters
        }
    }

    /// STUN register statistics.
    pub fn tracker_stats(&self) -> TrackerStats {
        self.tracker.stats()
    }

    /// WebRTC STUN register statistics.
    pub fn rtc_tracker_stats(&self) -> TrackerStats {
        self.rtc_tracker.stats()
    }

    /// Classify one packet and update state. This is the pure filter
    /// decision; use [`CapturePipeline::process_record`] to also produce
    /// the anonymized output record.
    pub fn classify(&mut self, ts_nanos: u64, data: &[u8], link: LinkType) -> Verdict {
        self.counters.total += 1;
        self.counters.total_bytes += data.len() as u64;
        let facts = match self.extract(data, link) {
            Some(f) => f,
            None => {
                self.counters.unparseable += 1;
                return Verdict::Unparseable;
            }
        };
        let verdict = self.decide(ts_nanos, facts);
        match verdict {
            Verdict::Excluded => self.counters.excluded += 1,
            Verdict::ZoomServer => self.counters.zoom_ip_matched += 1,
            Verdict::ZoomStun => self.counters.stun_registered += 1,
            Verdict::ZoomP2p => self.counters.p2p_matched += 1,
            Verdict::RtcStun => self.counters.rtc_stun_registered += 1,
            Verdict::RtcP2p => self.counters.rtc_p2p_matched += 1,
            Verdict::NotZoom => self.counters.dropped += 1,
            Verdict::Unparseable => {}
        }
        if verdict.passes() {
            self.counters.passed += 1;
            self.counters.passed_bytes += data.len() as u64;
        }
        verdict
    }

    /// Classify and, when the packet passes, emit the (optionally
    /// anonymized) output record. Allocates per passing record; the
    /// filter loop ([`crate::filter::FilterWriter`]) instead classifies
    /// records where they lie in a batch and rewrites the passing ones
    /// there.
    pub fn process_record(&mut self, record: &Record, link: LinkType) -> (Verdict, Option<Record>) {
        let verdict = self.classify(record.ts_nanos, &record.data, link);
        let out = verdict.passes().then(|| {
            let mut out = record.clone();
            self.anonymize_in_place(&mut out.data, link);
            out
        });
        (verdict, out)
    }

    /// Rewrite the campus addresses of a passing packet in place, when the
    /// pipeline is configured to anonymize, and fix its checksums; a no-op
    /// otherwise. The packet keeps its length.
    pub(crate) fn anonymize_in_place(&self, data: &mut [u8], link: LinkType) {
        if let Some(anon) = self.config.anonymizer {
            self.anonymize_packet(data, link, anon);
        }
    }

    /// Class bits of one address: a single table lookup.
    #[inline]
    fn class_of(&self, ip: Ipv4Addr) -> u8 {
        self.classes.get(u32::from(ip)).unwrap_or(0)
    }

    fn extract(&self, data: &[u8], link: LinkType) -> Option<HeaderFacts> {
        let ip_bytes = match link {
            LinkType::Ethernet => {
                let eth = ethernet::Packet::new_checked(data).ok()?;
                if eth.ethertype() != ethernet::EtherType::Ipv4 {
                    return None;
                }
                &data[ethernet::HEADER_LEN..]
            }
            LinkType::RawIp => data,
            LinkType::Other(_) => return None,
        };
        let ip = ipv4::Packet::new_checked(ip_bytes).ok()?;
        let protocol = ip.protocol();
        let (src_port, dst_port, is_stun) = match protocol {
            Protocol::Udp => {
                let u = udp::Packet::new_checked(ip.payload()).ok()?;
                let is_stun = stun::looks_like_stun(u.payload());
                (u.src_port(), u.dst_port(), is_stun)
            }
            Protocol::Tcp => {
                let t = zoom_wire::tcp::Packet::new_checked(ip.payload()).ok()?;
                (t.src_port(), t.dst_port(), false)
            }
            _ => return None,
        };
        Some(HeaderFacts {
            src: ip.src_addr(),
            dst: ip.dst_addr(),
            src_port,
            dst_port,
            protocol,
            is_stun,
        })
    }

    fn decide(&mut self, ts_nanos: u64, f: HeaderFacts) -> Verdict {
        let src_class = self.class_of(f.src);
        let dst_class = self.class_of(f.dst);
        let src_ep = Endpoint::new(IpAddr::V4(f.src), f.src_port);
        let dst_ep = Endpoint::new(IpAddr::V4(f.dst), f.dst_port);

        // Stage 1: campus-side endpoint and exclusions.
        let src_campus = src_class & CAMPUS != 0;
        let dst_campus = dst_class & CAMPUS != 0;
        if (src_campus && src_class & EXCLUDED != 0) || (dst_campus && dst_class & EXCLUDED != 0) {
            return Verdict::Excluded;
        }

        // Stage 2: stateless Zoom server match.
        let src_zoom = src_class & ZOOM != 0;
        let dst_zoom = dst_class & ZOOM != 0;
        if src_zoom || dst_zoom {
            // Stage 3: STUN registration for campus clients talking to a
            // Zoom server on the STUN port.
            if f.protocol == Protocol::Udp
                && f.is_stun
                && ((dst_zoom && f.dst_port == stun::STUN_PORT)
                    || (src_zoom && f.src_port == stun::STUN_PORT))
            {
                let (client, client_campus) = if dst_zoom {
                    (src_ep, src_campus)
                } else {
                    (dst_ep, dst_campus)
                };
                if client_campus {
                    self.tracker.register(client, ts_nanos);
                }
                return Verdict::ZoomStun;
            }
            return Verdict::ZoomServer;
        }

        // Stage 4: P2P lookup for non-server UDP.
        if f.protocol == Protocol::Udp {
            if src_campus && self.tracker.check(src_ep, ts_nanos) {
                return Verdict::ZoomP2p;
            }
            if dst_campus && self.tracker.check(dst_ep, ts_nanos) {
                return Verdict::ZoomP2p;
            }
        }

        // Stage 4b (WebRTC family): register and match non-Zoom STUN
        // sessions by their campus endpoint, mirroring stages 3-4.
        if self.config.family.allows(FamilyId::Webrtc) && f.protocol == Protocol::Udp {
            if f.is_stun {
                if src_campus {
                    self.rtc_tracker.register(src_ep, ts_nanos);
                    return Verdict::RtcStun;
                }
                if dst_campus {
                    self.rtc_tracker.register(dst_ep, ts_nanos);
                    return Verdict::RtcStun;
                }
            }
            if src_campus && self.rtc_tracker.check(src_ep, ts_nanos) {
                return Verdict::RtcP2p;
            }
            if dst_campus && self.rtc_tracker.check(dst_ep, ts_nanos) {
                return Verdict::RtcP2p;
            }
        }
        Verdict::NotZoom
    }

    /// Rewrite campus addresses in place with the anonymizer and fix
    /// checksums.
    fn anonymize_packet(&self, out: &mut [u8], link: LinkType, anon: Anonymizer) {
        let ip_off = match link {
            LinkType::Ethernet => ethernet::HEADER_LEN,
            _ => 0,
        };
        if out.len() < ip_off + ipv4::HEADER_LEN {
            return;
        }
        let mut ip = ipv4::Packet::new_unchecked(&mut out[ip_off..]);
        if ip.check_len().is_err() {
            return;
        }
        let src = ip.src_addr();
        let dst = ip.dst_addr();
        if self.class_of(src) & CAMPUS != 0 {
            ip.set_src_addr(anon.anonymize_v4(src));
        }
        if self.class_of(dst) & CAMPUS != 0 {
            ip.set_dst_addr(anon.anonymize_v4(dst));
        }
        ip.fill_checksum();
        // Transport checksums would no longer verify; zero the UDP one
        // (allowed by RFC 768) as the hardware anonymizer does.
        if ip.protocol() == Protocol::Udp {
            let hl = ip.header_len();
            if let Ok(mut u) = udp::Packet::new_checked(&mut out[ip_off + hl..]) {
                u.clear_checksum();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymize::Mode;
    use std::net::Ipv4Addr;
    use zoom_wire::compose;

    const SEC: u64 = 1_000_000_000;

    fn pipeline() -> CapturePipeline {
        CapturePipeline::new(PipelineConfig::sample("10.8.0.0/16"))
    }

    fn stun_payload() -> Vec<u8> {
        let msg = stun::Repr {
            message_type: stun::MessageType::BindingRequest,
            transaction_id: [3; 12],
            xor_mapped_address: None,
        };
        let mut p = vec![0u8; msg.buffer_len()];
        msg.emit(&mut p);
        p
    }

    #[test]
    fn server_udp_passes() {
        let mut p = pipeline();
        let pkt = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 2),
            Ipv4Addr::new(170, 114, 1, 1),
            51_000,
            8801,
            b"zoomish",
        );
        assert_eq!(p.classify(0, &pkt, LinkType::Ethernet), Verdict::ZoomServer);
    }

    #[test]
    fn control_tcp_passes() {
        let mut p = pipeline();
        let pkt = compose::tcp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 2),
            Ipv4Addr::new(170, 114, 1, 1),
            51_000,
            443,
            1,
            0,
            zoom_wire::tcp::Flags {
                syn: true,
                ..Default::default()
            },
            b"",
        );
        assert_eq!(p.classify(0, &pkt, LinkType::Ethernet), Verdict::ZoomServer);
    }

    #[test]
    fn non_zoom_dropped() {
        let mut p = pipeline();
        let pkt = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            51_000,
            53,
            b"dns",
        );
        assert_eq!(p.classify(0, &pkt, LinkType::Ethernet), Verdict::NotZoom);
    }

    #[test]
    fn p2p_detected_after_stun() {
        let mut p = pipeline();
        let client = Ipv4Addr::new(10, 8, 0, 2);
        let peer = Ipv4Addr::new(98, 20, 1, 7); // off-campus, non-Zoom

        // Before the STUN exchange, P2P-looking traffic is dropped.
        let media = compose::udp_ipv4_ethernet(client, peer, 61_000, 62_000, b"media");
        assert_eq!(p.classify(0, &media, LinkType::Ethernet), Verdict::NotZoom);

        // STUN to a Zoom zone controller registers 10.8.0.2:61000.
        let stun_pkt = compose::udp_ipv4_ethernet(
            client,
            Ipv4Addr::new(170, 114, 2, 2),
            61_000,
            stun::STUN_PORT,
            &stun_payload(),
        );
        assert_eq!(
            p.classify(SEC, &stun_pkt, LinkType::Ethernet),
            Verdict::ZoomStun
        );

        // Now the same endpoint talking to the peer passes as P2P —
        // in both directions.
        assert_eq!(
            p.classify(2 * SEC, &media, LinkType::Ethernet),
            Verdict::ZoomP2p
        );
        let reverse = compose::udp_ipv4_ethernet(peer, client, 62_000, 61_000, b"media");
        assert_eq!(
            p.classify(3 * SEC, &reverse, LinkType::Ethernet),
            Verdict::ZoomP2p
        );
    }

    #[test]
    fn p2p_times_out() {
        let mut cfg = PipelineConfig::sample("10.8.0.0/16");
        cfg.stun_timeout_nanos = 10 * SEC;
        let mut p = CapturePipeline::new(cfg);
        let client = Ipv4Addr::new(10, 8, 0, 2);
        let stun_pkt = compose::udp_ipv4_ethernet(
            client,
            Ipv4Addr::new(170, 114, 2, 2),
            61_000,
            stun::STUN_PORT,
            &stun_payload(),
        );
        p.classify(0, &stun_pkt, LinkType::Ethernet);
        let media =
            compose::udp_ipv4_ethernet(client, Ipv4Addr::new(98, 20, 1, 7), 61_000, 62_000, b"m");
        assert_eq!(
            p.classify(60 * SEC, &media, LinkType::Ethernet),
            Verdict::NotZoom
        );
    }

    #[test]
    fn excluded_subnet_dropped_even_to_zoom() {
        let mut cfg = PipelineConfig::sample("10.8.0.0/16");
        cfg.excluded_nets = vec!["10.8.200.0/24".parse().unwrap()];
        let mut p = CapturePipeline::new(cfg);
        let pkt = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 200, 5),
            Ipv4Addr::new(170, 114, 1, 1),
            51_000,
            8801,
            b"bulk",
        );
        assert_eq!(p.classify(0, &pkt, LinkType::Ethernet), Verdict::Excluded);
    }

    #[test]
    fn anonymization_rewrites_campus_only() {
        let mut cfg = PipelineConfig::sample("10.8.0.0/16");
        cfg.anonymizer = Some(Anonymizer::new(5, Mode::PrefixPreserving));
        let mut p = CapturePipeline::new(cfg);
        let pkt = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 2),
            Ipv4Addr::new(170, 114, 1, 1),
            51_000,
            8801,
            b"zoomish",
        );
        let record = Record::full(0, pkt);
        let (verdict, out) = p.process_record(&record, LinkType::Ethernet);
        assert!(verdict.passes());
        let out = out.unwrap();
        let ip = ipv4::Packet::new_checked(&out.data[ethernet::HEADER_LEN..]).unwrap();
        assert_ne!(ip.src_addr(), Ipv4Addr::new(10, 8, 0, 2)); // anonymized
        assert_eq!(ip.dst_addr(), Ipv4Addr::new(170, 114, 1, 1)); // server kept
        assert!(ip.verify_checksum());
    }

    #[test]
    fn counters_accumulate() {
        let mut p = pipeline();
        let zoom_pkt = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 2),
            Ipv4Addr::new(170, 114, 1, 1),
            51_000,
            8801,
            b"z",
        );
        let other = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 2),
            Ipv4Addr::new(8, 8, 8, 8),
            51_000,
            53,
            b"d",
        );
        p.classify(0, &zoom_pkt, LinkType::Ethernet);
        p.classify(0, &other, LinkType::Ethernet);
        p.classify(0, &other, LinkType::Ethernet);
        let c = p.counters();
        assert_eq!(c.total, 3);
        assert_eq!(c.passed, 1);
        assert_eq!(c.dropped, 2);
        assert!(c.passed_bytes < c.total_bytes);
    }

    #[test]
    fn rtc_stage_inactive_for_zoom_only_family() {
        let mut p = pipeline(); // sample(): family = Only(Zoom)
        let client = Ipv4Addr::new(10, 8, 0, 9);
        let peer = Ipv4Addr::new(93, 40, 6, 6); // off-campus, non-Zoom
        let stun_pkt = compose::udp_ipv4_ethernet(client, peer, 52_000, 3478, &stun_payload());
        assert_eq!(
            p.classify(0, &stun_pkt, LinkType::Ethernet),
            Verdict::NotZoom
        );
        let media = compose::udp_ipv4_ethernet(client, peer, 52_000, 52_001, b"srtp");
        assert_eq!(
            p.classify(SEC, &media, LinkType::Ethernet),
            Verdict::NotZoom
        );
        assert_eq!(p.counters().rtc_stun_registered, 0);
        assert_eq!(p.counters().rtc_p2p_matched, 0);
    }

    #[test]
    fn rtc_session_registered_and_matched_when_webrtc_allowed() {
        let mut cfg = PipelineConfig::sample("10.8.0.0/16");
        cfg.family = zoom_wire::family::FamilySelect::Auto;
        let mut p = CapturePipeline::new(cfg);
        let client = Ipv4Addr::new(10, 8, 0, 9);
        let peer = Ipv4Addr::new(93, 40, 6, 6); // off-campus, non-Zoom

        // Media before the STUN binding is still dropped.
        let media = compose::udp_ipv4_ethernet(client, peer, 52_000, 52_001, b"srtp");
        assert_eq!(p.classify(0, &media, LinkType::Ethernet), Verdict::NotZoom);

        // A non-Zoom STUN binding registers the campus endpoint...
        let stun_pkt = compose::udp_ipv4_ethernet(client, peer, 52_000, 3478, &stun_payload());
        assert_eq!(
            p.classify(SEC, &stun_pkt, LinkType::Ethernet),
            Verdict::RtcStun
        );

        // ...after which media passes in both directions.
        assert_eq!(
            p.classify(2 * SEC, &media, LinkType::Ethernet),
            Verdict::RtcP2p
        );
        let reverse = compose::udp_ipv4_ethernet(peer, client, 52_001, 52_000, b"srtp");
        assert_eq!(
            p.classify(3 * SEC, &reverse, LinkType::Ethernet),
            Verdict::RtcP2p
        );

        // Zoom STUN still takes precedence over the WebRTC registers.
        let zoom_stun = compose::udp_ipv4_ethernet(
            client,
            Ipv4Addr::new(170, 114, 2, 2),
            52_000,
            stun::STUN_PORT,
            &stun_payload(),
        );
        assert_eq!(
            p.classify(4 * SEC, &zoom_stun, LinkType::Ethernet),
            Verdict::ZoomStun
        );

        let c = p.counters();
        assert_eq!(c.rtc_stun_registered, 1);
        assert_eq!(c.rtc_p2p_matched, 2);
        assert_eq!(c.passed, 4);
    }

    #[test]
    fn class_table_matches_the_three_sets_at_every_edge() {
        use crate::zoom_nets::{Owner, ZoomNetwork};
        // Sets that nest in, abut and straddle one another, with the
        // extremes of the address space and of the prefix lengths.
        let campus = ["10.8.0.0/16", "10.9.0.0/17", "0.0.0.0/8", "192.0.2.7/32"];
        let excluded = [
            "10.8.200.0/24",
            "10.9.0.0/16",
            "10.0.0.0/7",
            "255.255.255.255/32",
        ];
        let zoom = [
            "10.8.200.128/25",
            "10.9.128.0/17",
            "170.114.0.0/16",
            "170.114.3.0/24",
            "192.0.2.6/31",
            "255.255.255.0/24",
        ];
        let cidrs =
            |list: &[&str]| -> Vec<Cidr> { list.iter().map(|s| s.parse().unwrap()).collect() };
        let mut cfg = PipelineConfig::sample("10.8.0.0/16");
        cfg.campus_nets = cidrs(&campus);
        cfg.excluded_nets = cidrs(&excluded);
        cfg.zoom_list = ZoomIpList::from_networks(
            cidrs(&zoom)
                .into_iter()
                .map(|cidr| ZoomNetwork {
                    cidr,
                    owner: Owner::Other,
                })
                .collect(),
        );
        let sets: [(&[&str], u8); 3] = [(&campus, CAMPUS), (&excluded, EXCLUDED), (&zoom, ZOOM)];
        let p = CapturePipeline::new(cfg);

        let mut probes = vec![0u32, u32::MAX];
        for (list, _) in sets {
            for c in cidrs(list) {
                let (first, last) = c.range();
                for edge in [first, last] {
                    probes.extend([edge.wrapping_sub(1), edge, edge.wrapping_add(1)]);
                }
            }
        }
        let mut seen = std::collections::BTreeSet::new();
        for probe in probes {
            let ip = Ipv4Addr::from(probe);
            let mut expect = 0;
            for (list, bit) in sets {
                if cidrs(list).iter().any(|c| c.contains(ip)) {
                    expect |= bit;
                }
            }
            assert_eq!(p.class_of(ip), expect, "at {ip}");
            seen.insert(expect);
        }
        assert_eq!(
            seen.len(),
            8,
            "every combination of the three bits: {seen:?}"
        );
    }

    #[test]
    fn garbage_is_unparseable() {
        let mut p = pipeline();
        assert_eq!(
            p.classify(0, &[0u8; 10], LinkType::Ethernet),
            Verdict::Unparseable
        );
    }
}

//! Lightweight per-packet metadata — the record type the trackers consume.
//!
//! A [`PacketMeta`] is everything the analysis layer needs from one
//! captured packet, extracted once by the dissector and then shared by the
//! flow, stream, latency, and grouping trackers without re-parsing.

use std::net::IpAddr;
use zoom_wire::cidr::Cidr;
use zoom_wire::dissect::Transport;
use zoom_wire::family::FamilyId;
use zoom_wire::flow::FiveTuple;
use zoom_wire::webrtc::{self, SrtpRepr};
use zoom_wire::zoom::{Framing, MediaType, RtpPayloadKind, DIR_FROM_SFU, ZOOM_SFU_PORT};

/// Direction of a Zoom packet relative to the infrastructure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → SFU (or campus peer → remote peer for P2P).
    ToServer,
    /// SFU → client (or remote peer → campus peer).
    FromServer,
    /// Could not be determined.
    Unknown,
}

/// RTP facts of a media packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtpMeta {
    /// Synchronization source.
    pub ssrc: u32,
    /// RTP payload type.
    pub payload_type: u8,
    /// RTP sequence number.
    pub sequence: u16,
    /// RTP media timestamp.
    pub timestamp: u32,
    /// Marker bit.
    pub marker: bool,
    /// Sub-stream classification of the payload type.
    pub kind: RtpPayloadKind,
}

/// RTCP sender-report facts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtcpMeta {
    /// Originating SSRC.
    pub ssrc: u32,
    /// 64-bit NTP timestamp from the sender info.
    pub ntp_timestamp: u64,
    /// RTP timestamp corresponding to the NTP time.
    pub rtp_timestamp: u32,
    /// Sender's cumulative packet count.
    pub packet_count: u32,
    /// Sender's cumulative payload octet count.
    pub octet_count: u32,
}

/// One analyzed Zoom packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketMeta {
    /// Capture timestamp, nanoseconds.
    pub ts_nanos: u64,
    /// The packet's 5-tuple.
    pub five_tuple: FiveTuple,
    /// Total IP-layer bytes (for flow bit rates).
    pub ip_len: usize,
    /// Protocol family the packet was classified under.
    pub family: FamilyId,
    /// Zoom media encapsulation type.
    pub media_type: MediaType,
    /// Inferred packet direction.
    pub direction: Direction,
    /// RTP header facts, for media packets.
    pub rtp: Option<RtpMeta>,
    /// First RTCP SR in the packet, if any.
    pub rtcp: Option<RtcpMeta>,
    /// Video-only: number of packets in the current frame.
    pub pkts_in_frame: Option<u8>,
    /// RTP payload bytes (the actual media bits).
    pub media_payload_len: usize,
}

/// TCP facts used by the control-connection RTT estimator (§5.3 method 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpMeta {
    /// Capture timestamp, nanoseconds.
    pub ts_nanos: u64,
    /// The segment's 5-tuple.
    pub five_tuple: FiveTuple,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Whether the ACK flag is set.
    pub has_ack: bool,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Total IP-layer bytes.
    pub ip_len: usize,
}

impl TcpMeta {
    /// The facts of a segment with transport header `t`; `None` for UDP.
    pub(crate) fn of(
        ts_nanos: u64,
        five_tuple: FiveTuple,
        ip_len: usize,
        t: &Transport,
    ) -> Option<TcpMeta> {
        match *t {
            Transport::Tcp {
                seq,
                ack,
                flags,
                payload_len,
                ..
            } => Some(TcpMeta {
                ts_nanos,
                five_tuple,
                seq,
                ack,
                has_ack: flags.ack,
                payload_len,
                ip_len,
            }),
            Transport::Udp { .. } => None,
        }
    }
}

/// Is this address inside any of the given campus prefixes? Used to
/// orient P2P flows (campus side = "client").
///
/// An **empty prefix list means "everything is on-campus"**: with no
/// vantage configured there is no basis for calling any flow external, so
/// campus orientation is effectively disabled — every address passes, and
/// P2P direction inference treats the *source* side of a flow as the
/// client. Callers that want a real campus boundary must supply at least
/// one prefix (as [`crate::pipeline::AnalyzerConfig::default`] does).
pub fn in_campus(campus: &[Cidr], ip: IpAddr) -> bool {
    campus.is_empty() || campus.iter().any(|c| c.contains_addr(ip))
}

/// Build a [`PacketMeta`] from an already-parsed Zoom packet: a server
/// or P2P framing the dissector found, or the analyzer's second-chance
/// P2P parse of an opaque UDP payload once its endpoint is known to have
/// completed a STUN exchange.
pub fn meta_from_zoom(
    ts_nanos: u64,
    five_tuple: FiveTuple,
    ip_len: usize,
    framing: Framing,
    z: &zoom_wire::zoom::ZoomPacket,
    campus: &[Cidr],
) -> PacketMeta {
    let direction = match framing {
        Framing::Server => {
            if let Some(sfu) = &z.sfu {
                if sfu.direction == DIR_FROM_SFU {
                    Direction::FromServer
                } else {
                    Direction::ToServer
                }
            } else if five_tuple.src_port == ZOOM_SFU_PORT {
                Direction::FromServer
            } else if five_tuple.dst_port == ZOOM_SFU_PORT {
                Direction::ToServer
            } else {
                Direction::Unknown
            }
        }
        Framing::P2p => {
            // Orient by campus membership: campus → peer counts as the
            // uplink direction for per-direction statistics.
            if in_campus(campus, five_tuple.src_ip) {
                Direction::ToServer
            } else if in_campus(campus, five_tuple.dst_ip) {
                Direction::FromServer
            } else {
                Direction::Unknown
            }
        }
    };
    let rtp = z.rtp.as_ref().map(|r| RtpMeta {
        ssrc: r.ssrc,
        payload_type: r.payload_type,
        sequence: r.sequence_number,
        timestamp: r.timestamp,
        marker: r.marker,
        kind: RtpPayloadKind::classify(z.media.media_type, r.payload_type),
    });
    let rtcp = z.rtcp.sender_report().map(|(ssrc, info)| RtcpMeta {
        ssrc,
        ntp_timestamp: info.ntp_timestamp,
        rtp_timestamp: info.rtp_timestamp,
        packet_count: info.packet_count,
        octet_count: info.octet_count,
    });
    PacketMeta {
        ts_nanos,
        five_tuple,
        ip_len,
        family: FamilyId::Zoom,
        media_type: z.media.media_type,
        direction,
        rtp,
        rtcp,
        pkts_in_frame: z.media.packets_in_frame,
        media_payload_len: z.media_payload_len,
    }
}

/// Build a [`PacketMeta`] from a parsed WebRTC SRTP packet.
///
/// The cleartext RTP header supplies everything the stream trackers need;
/// media type comes from the payload-type mapping
/// ([`webrtc::media_type_for_pt`]), direction from campus membership
/// (WebRTC media flows peer-to-peer, like Zoom P2P), and the ZME-only
/// fields (`pkts_in_frame`, RTCP sender info) stay `None` —
/// WebRTC video frames are delimited by the RTP marker bit instead.
pub fn meta_from_webrtc(
    ts_nanos: u64,
    five_tuple: FiveTuple,
    ip_len: usize,
    srtp: &SrtpRepr,
    campus: &[Cidr],
) -> PacketMeta {
    let direction = if in_campus(campus, five_tuple.src_ip) {
        Direction::ToServer
    } else if in_campus(campus, five_tuple.dst_ip) {
        Direction::FromServer
    } else {
        Direction::Unknown
    };
    let media_type = webrtc::media_type_for_pt(srtp.rtp.payload_type);
    PacketMeta {
        ts_nanos,
        five_tuple,
        ip_len,
        family: FamilyId::Webrtc,
        media_type,
        direction,
        rtp: Some(RtpMeta {
            ssrc: srtp.rtp.ssrc,
            payload_type: srtp.rtp.payload_type,
            sequence: srtp.rtp.sequence_number,
            timestamp: srtp.rtp.timestamp,
            marker: srtp.rtp.marker,
            kind: RtpPayloadKind::classify(media_type, srtp.rtp.payload_type),
        }),
        rtcp: None,
        pkts_in_frame: None,
        media_payload_len: srtp.payload_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;
    use zoom_wire::compose;
    use zoom_wire::dissect::{dissect, App, P2pProbe};
    use zoom_wire::pcap::LinkType;
    use zoom_wire::rtp;
    use zoom_wire::zoom;

    fn campus() -> Vec<Cidr> {
        vec![Cidr::new(Ipv4Addr::new(10, 8, 0, 0), 16)]
    }

    fn video_packet(direction: u8) -> Vec<u8> {
        let payload = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: 1,
                direction,
            }),
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Video,
                sequence: 10,
                timestamp: 20,
                frame_sequence: Some(3),
                packets_in_frame: Some(2),
            },
            rtp: Some(rtp::Repr {
                marker: true,
                payload_type: 98,
                sequence_number: 55,
                timestamp: 9_000,
                ssrc: 0x22,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![7; 50],
        }
        .build();
        if direction == zoom::DIR_FROM_SFU {
            compose::udp_ipv4_ethernet(
                Ipv4Addr::new(170, 114, 0, 1),
                Ipv4Addr::new(10, 8, 0, 9),
                zoom::ZOOM_SFU_PORT,
                50_000,
                &payload,
            )
        } else {
            compose::udp_ipv4_ethernet(
                Ipv4Addr::new(10, 8, 0, 9),
                Ipv4Addr::new(170, 114, 0, 1),
                50_000,
                zoom::ZOOM_SFU_PORT,
                &payload,
            )
        }
    }

    #[test]
    fn extracts_video_meta_with_direction() {
        let data = video_packet(zoom::DIR_FROM_SFU);
        let d = dissect(5, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        match zoom_meta(&d) {
            Some(m) => {
                assert_eq!(m.direction, Direction::FromServer);
                assert_eq!(m.media_type, zoom::MediaType::Video);
                let rtp = m.rtp.unwrap();
                assert_eq!(rtp.ssrc, 0x22);
                assert_eq!(rtp.kind, RtpPayloadKind::VideoMain);
                assert!(rtp.marker);
                assert_eq!(m.pkts_in_frame, Some(2));
                assert_eq!(m.media_payload_len, 50);
            }
            other => panic!("unexpected {other:?}"),
        }

        let data = video_packet(zoom::DIR_TO_SFU);
        let d = dissect(5, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        match zoom_meta(&d) {
            Some(m) => assert_eq!(m.direction, Direction::ToServer),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The metadata of a dissected Zoom packet, as the analyzer builds it.
    fn zoom_meta(d: &zoom_wire::dissect::Dissection<'_>) -> Option<PacketMeta> {
        match &d.app {
            App::Zoom(framing, z) => Some(meta_from_zoom(
                d.ts_nanos,
                d.five_tuple,
                d.ip_total_len,
                *framing,
                z,
                &campus(),
            )),
            _ => None,
        }
    }

    #[test]
    fn extracts_tcp_meta() {
        let data = compose::tcp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 9),
            Ipv4Addr::new(170, 114, 0, 1),
            50_000,
            443,
            100,
            200,
            zoom_wire::tcp::Flags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            b"abc",
        );
        let d = dissect(1, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(d.app, App::Opaque);
        match TcpMeta::of(d.ts_nanos, d.five_tuple, d.ip_total_len, &d.transport) {
            Some(t) => {
                assert_eq!(t.seq, 100);
                assert_eq!(t.ack, 200);
                assert!(t.has_ack);
                assert_eq!(t.payload_len, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn webrtc_srtp_meta_orients_and_classifies() {
        let rtp = rtp::Repr {
            marker: true,
            payload_type: 96,
            sequence_number: 7,
            timestamp: 180_000,
            ssrc: 0x55,
            csrc_count: 0,
            has_extension: false,
        };
        let mut payload = vec![0u8; rtp.header_len() + 60];
        rtp.emit(&mut rtp::Packet::new_unchecked(&mut payload[..]));
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 9),
            Ipv4Addr::new(203, 0, 113, 4),
            51_000,
            62_000,
            &payload,
        );
        let probe = zoom_wire::dissect::Probe {
            webrtc: zoom_wire::dissect::WebrtcProbe::Auto,
            ..Default::default()
        };
        let d = dissect(3, &data, LinkType::Ethernet, probe).unwrap();
        match &d.app {
            App::Webrtc(zoom_wire::webrtc::Pdu::Srtp(s)) => {
                assert_eq!(d.five_tuple.src_port, 51_000);
                let m = meta_from_webrtc(3, d.five_tuple, d.ip_total_len, s, &campus());
                assert_eq!(m.family, FamilyId::Webrtc);
                assert_eq!(m.media_type, MediaType::Video);
                assert_eq!(m.direction, Direction::ToServer);
                let r = m.rtp.unwrap();
                assert_eq!((r.ssrc, r.payload_type), (0x55, 96));
                assert!(r.marker);
                assert_eq!(m.media_payload_len, 50); // 60 − 10-byte auth tag
                assert_eq!(m.pkts_in_frame, None);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    /// The structs every packet moves, by value, from the dissector to the
    /// trackers. At these sizes (64-bit targets) the release build moves
    /// them without a call to `memmove`; when `ZoomPacket` still carried
    /// its 128-byte inline RTCP item list (176 bytes; `App` 184,
    /// `Dissection` 296), libc `memmove` took 16 % of a batch analysis's
    /// profile samples, most of them these moves. A field that pushes one
    /// past its pin brings the per-packet `memmove` calls back.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn per_packet_structs_keep_their_size() {
        use std::mem::size_of;
        use zoom_wire::dissect::{App, Dissection};
        use zoom_wire::zoom::ZoomPacket;
        assert_eq!(size_of::<ZoomPacket>(), 80);
        assert_eq!(size_of::<App>(), 88);
        assert_eq!(size_of::<Dissection<'_>>(), 200);
        assert_eq!(size_of::<PacketMeta>(), 120);
    }

    /// What an analyzer built with `per_second_rows` keeps per stream and
    /// second: a rate row for every stream, a frame row for a video or
    /// screen-share stream that completed a frame. Nothing is kept per
    /// frame or per RTT match.
    #[test]
    fn per_second_rows_keep_their_size() {
        use crate::metrics::frame::FrameRow;
        use crate::stats::RateRow;
        use std::mem::size_of;
        assert_eq!(size_of::<RateRow>(), 32);
        assert_eq!(size_of::<FrameRow>(), 40);
    }

    #[test]
    fn empty_campus_means_everything_on_campus() {
        assert!(in_campus(&[], "203.0.113.9".parse().unwrap()));
        assert!(in_campus(&[], "2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn in_campus_prefix_math() {
        let c = campus();
        assert!(in_campus(&c, "10.8.255.1".parse().unwrap()));
        assert!(!in_campus(&c, "10.9.0.1".parse().unwrap()));
        assert!(!in_campus(&c, "2001:db8::1".parse().unwrap()));
    }

    #[test]
    fn prefix_lengths_at_and_past_the_ends_do_not_overflow() {
        let host = Ipv4Addr::new(10, 8, 0, 7);
        let other = Ipv4Addr::new(10, 8, 0, 8).into();
        let everything = [Cidr::new(host, 0)];
        assert!(in_campus(&everything, "203.0.113.9".parse().unwrap()));
        let one = [Cidr::new(host, 32)];
        assert!(in_campus(&one, host.into()));
        assert!(!in_campus(&one, other));
        // A length past 32 cannot be configured: `--campus` and every
        // literal go through `Cidr`'s parse, which refuses it.
        for len in [33, u8::MAX] {
            assert!(format!("{host}/{len}").parse::<Cidr>().is_err(), "/{len}");
        }
    }
}

//! Full-stack packet dissector: link → network → transport → Zoom.
//!
//! This is the library equivalent of the paper's Wireshark plugin
//! (Appendix C): it walks an Ethernet or raw-IP capture record down to the
//! Zoom encapsulations and exposes every field the analysis layer needs,
//! borrowing from the input buffer (no copies).
//!
//! Heuristics mirror the plugin: UDP traffic to/from port 8801 is treated
//! as Zoom server traffic; traffic to/from port 3478 is checked for STUN;
//! any other UDP payload can optionally be probed for P2P Zoom framing
//! or for native WebRTC framing (DTLS records and SRTP/SRTCP headers).
//!
//! Every length a dissection reports — [`Dissection::ip_total_len`],
//! [`Transport`]'s payload lengths, a Zoom packet's media bytes — is the
//! length the IP/UDP headers declare, and every slice stops where the
//! capture did: a record from a snap-length pcap or a trimmed `ZFRG`
//! fragment dissects exactly like the full packet as long as it holds its
//! [`analysis_prefix`], and is [`DropStage::Truncated`] when it does not.
//!
//! Application-layer classification is delegated to the
//! [`ProtocolFamily`] implementations in
//! [`crate::family`]; the [`Probe`] struct selects which families (and
//! which of their optional heuristics) run. The historic
//! [`P2pProbe`]-taking call shape still compiles everywhere: every entry
//! point accepts `impl Into<Probe>`.

use crate::ethernet::{self, EtherType};
use crate::family::{self, ProtocolFamily, WebrtcFamily, ZoomFamily};
use crate::flow::FiveTuple;
use crate::ipv4::{self, Protocol};
use crate::ipv6;
use crate::pcap::LinkType;
use crate::stun;
use crate::tcp;
use crate::udp;
use crate::zoom::{self, Framing, ZoomPacket};
use crate::{Error, Result};
use std::fmt::Write as _;
use std::net::IpAddr;

/// Transport-layer summary of a dissected packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Transport {
    /// UDP datagram.
    Udp {
        /// Payload length in bytes.
        payload_len: usize,
    },
    /// TCP segment.
    Tcp {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Control flags.
        flags: tcp::Flags,
        /// Receive window.
        window: u16,
        /// Payload length in bytes.
        payload_len: usize,
    },
}

impl Transport {
    /// Transport payload length on the wire, from the IP/UDP headers —
    /// [`Dissection::payload`] is shorter when the capture clipped it.
    pub fn payload_len(&self) -> usize {
        match *self {
            Transport::Udp { payload_len } | Transport::Tcp { payload_len, .. } => payload_len,
        }
    }
}

/// Application-layer interpretation of a UDP payload.
#[derive(Debug, Clone, PartialEq)]
pub enum App {
    /// A parsed STUN message.
    Stun(stun::Repr),
    /// A parsed Zoom packet with the framing that succeeded.
    Zoom(Framing, ZoomPacket),
    /// A parsed native-WebRTC PDU (DTLS record, SRTP, or SRTCP).
    Webrtc(crate::webrtc::Pdu),
    /// The payload did not match anything we decode.
    Opaque,
}

/// A fully dissected packet, borrowing payload bytes from the input.
#[derive(Debug, Clone, PartialEq)]
pub struct Dissection<'a> {
    /// Capture timestamp, nanoseconds.
    pub ts_nanos: u64,
    /// Link header, when the trace has one.
    pub link: Option<ethernet::Repr>,
    /// The IP 5-tuple.
    pub five_tuple: FiveTuple,
    /// Bytes in the IP packet (header + payload) — the basis for
    /// flow-level bit rates.
    pub ip_total_len: usize,
    /// Transport summary.
    pub transport: Transport,
    /// Application interpretation (UDP only; TCP payloads stay opaque).
    pub app: App,
    /// The raw transport payload as captured — the input to entropy
    /// analysis; [`Transport::payload_len`] is its length on the wire.
    pub payload: &'a [u8],
}

impl Dissection<'_> {
    /// Convenience: the parsed Zoom packet, if any.
    pub fn zoom(&self) -> Option<&ZoomPacket> {
        match &self.app {
            App::Zoom(_, z) => Some(z),
            _ => None,
        }
    }

    /// Convenience: true when the app layer parsed as STUN.
    pub fn is_stun(&self) -> bool {
        matches!(self.app, App::Stun(_))
    }
}

/// Controls whether non-8801 UDP payloads are probed for Zoom P2P framing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum P2pProbe {
    /// Never probe: only port-8801 traffic parses as Zoom. This is what a
    /// port-based filter would see.
    #[default]
    Off,
    /// Probe every UDP payload with [`zoom::parse_auto`]. Used once a flow
    /// has been flagged as P2P by the STUN tracker, or when scanning.
    Auto,
}

/// Controls whether non-STUN, non-Zoom UDP payloads are probed for native
/// WebRTC framing (DTLS records, SRTP/SRTCP headers).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WebrtcProbe {
    /// Never probe: WebRTC traffic stays [`App::Opaque`] at the wire
    /// layer. The analysis layer's session gating (STUN-tracked flows)
    /// issues targeted second-chance probes instead.
    #[default]
    Off,
    /// Probe every remaining UDP payload with [`crate::webrtc::classify`].
    Auto,
}

/// Which protocol families (and which of their optional heuristics) the
/// dissector runs on UDP payloads.
///
/// The default — Zoom on, P2P and WebRTC probing off — is exactly the
/// pre-family dissector, and [`From<P2pProbe>`] maps the historic call
/// shape onto it, so `dissect(ts, data, link, P2pProbe::Auto)` keeps
/// meaning what it always did. Use
/// [`FamilySelect::probe`](crate::family::FamilySelect::probe) to derive
/// a `Probe` from a user-facing `--family` selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Run the Zoom family (port-8801 parsing; port-8801 failures are
    /// claimed as [`App::Opaque`] rather than passed to later families).
    pub zoom: bool,
    /// Zoom P2P probing of non-8801 payloads (requires `zoom`).
    pub p2p: P2pProbe,
    /// Native WebRTC probing of payloads no earlier family claimed.
    pub webrtc: WebrtcProbe,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            zoom: true,
            p2p: P2pProbe::Off,
            webrtc: WebrtcProbe::Off,
        }
    }
}

impl From<P2pProbe> for Probe {
    fn from(p2p: P2pProbe) -> Self {
        Probe {
            p2p,
            ..Probe::default()
        }
    }
}

/// Everything [`peek`] learns about a record's headers, as plain values
/// and byte offsets into the original record — no borrows, `Copy`, so it
/// can be shipped across threads alongside the record it describes.
///
/// [`dissect_from`] resumes a full dissection from a `PeekInfo` without
/// re-scanning the Ethernet/IP/UDP/TCP headers: the sharded pipeline
/// peeks once on the router thread and finishes the (application-layer)
/// dissection on the shard, instead of parsing the whole stack twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeekInfo {
    /// Link header, when the trace has one.
    pub link: Option<ethernet::Repr>,
    /// The IP 5-tuple.
    pub five_tuple: FiveTuple,
    /// Bytes in the IP packet (header + payload).
    pub ip_total_len: usize,
    /// Transport header fields plus the payload's byte range.
    pub transport: PeekTransport,
}

/// Transport part of a [`PeekInfo`]: pre-parsed header fields and the
/// byte range of the transport payload within the original record.
/// `payload_len` is the length on the wire, from the IP/UDP headers; a
/// clipped record holds less — [`PeekTransport::payload`] slices what is
/// there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeekTransport {
    /// UDP datagram; payload spans `payload_off .. payload_off + payload_len`.
    Udp {
        /// Payload start, bytes from the beginning of the record.
        payload_off: usize,
        /// Payload length in bytes, on the wire.
        payload_len: usize,
    },
    /// TCP segment; payload spans `payload_off .. payload_off + payload_len`.
    Tcp {
        /// Sequence number.
        seq: u32,
        /// Acknowledgment number.
        ack: u32,
        /// Control flags.
        flags: tcp::Flags,
        /// Receive window.
        window: u16,
        /// Payload start, bytes from the beginning of the record.
        payload_off: usize,
        /// Payload length in bytes, on the wire.
        payload_len: usize,
    },
}

impl PeekTransport {
    /// What the capture kept of the transport payload of `data`, the
    /// record this was peeked from: `payload_len` bytes of a full capture,
    /// the leading part of them from a clipped one.
    ///
    /// # Panics
    /// Panics if `data` is shorter than the headers [`peek`] walked.
    pub fn payload<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        let (PeekTransport::Udp {
            payload_off,
            payload_len,
        }
        | PeekTransport::Tcp {
            payload_off,
            payload_len,
            ..
        }) = *self;
        &data[payload_off..(payload_off + payload_len).min(data.len())]
    }
}

/// A header-only view of a record: the parsed header summary plus, for
/// UDP, the borrowed payload slice.
///
/// [`peek`] applies exactly the link/IP/transport validation of
/// [`dissect`] — it returns `Err` for precisely the records `dissect`
/// rejects (guaranteed by construction: `dissect` *is* `peek` followed by
/// [`dissect_from`]) — but never touches application payloads, making it
/// an order of magnitude cheaper. The sharded analysis pipeline uses it
/// to route records by flow, shipping [`Peek::info`] to the shard so the
/// header walk happens exactly once per record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Peek<'a> {
    /// Header fields and payload offsets; [`dissect_from`] resumes here.
    pub info: PeekInfo,
    /// UDP payload bytes as captured; `None` when the packet is TCP.
    pub udp_payload: Option<&'a [u8]>,
}

impl Peek<'_> {
    /// The IP 5-tuple.
    pub fn five_tuple(&self) -> &FiveTuple {
        &self.info.five_tuple
    }
}

/// Parse the link/IP/transport headers once, recording payload byte
/// offsets so the dissection can be resumed later by [`dissect_from`].
/// Accepts and rejects exactly the records [`dissect`] does.
pub fn peek(data: &[u8], link_type: LinkType) -> Result<Peek<'_>> {
    let (link, ip_off) = match link_type {
        LinkType::Ethernet => {
            let eth = ethernet::Packet::new_checked(data)?;
            let repr = ethernet::Repr::parse(&eth);
            match repr.ethertype {
                EtherType::Ipv4 | EtherType::Ipv6 => {}
                _ => return Err(Error::Unsupported),
            }
            (Some(repr), ethernet::HEADER_LEN)
        }
        LinkType::RawIp => (None, 0),
        LinkType::Other(_) => return Err(Error::Unsupported),
    };
    let ip_bytes = &data[ip_off..];
    if ip_bytes.is_empty() {
        return Err(Error::Truncated);
    }
    let (src_ip, dst_ip, protocol, transport_off, ip_total_len) = match ip_bytes[0] >> 4 {
        4 => {
            let ip = ipv4::Packet::new_checked(ip_bytes)?;
            (
                IpAddr::V4(ip.src_addr()),
                IpAddr::V4(ip.dst_addr()),
                ip.protocol(),
                ip_off + ip.header_len(),
                ip.total_len() as usize,
            )
        }
        6 => {
            let ip = ipv6::Packet::new_checked(ip_bytes)?;
            (
                IpAddr::V6(ip.src_addr()),
                IpAddr::V6(ip.dst_addr()),
                ip.next_header(),
                ip_off + ipv6::HEADER_LEN,
                ipv6::HEADER_LEN + ip.payload_len() as usize,
            )
        }
        _ => return Err(Error::Malformed),
    };
    // Lengths are what the headers declare; slices stop where the capture
    // did.
    let wire_end = ip_off + ip_total_len;
    let transport_bytes = &data[transport_off..wire_end.min(data.len())];
    let transport_wire_len = wire_end - transport_off;
    match protocol {
        Protocol::Udp => {
            let u = udp::Packet::new_checked(transport_bytes)?;
            let udp_len = u.len() as usize;
            if udp_len > transport_wire_len {
                return Err(Error::Truncated);
            }
            let five_tuple = FiveTuple {
                src_ip,
                dst_ip,
                src_port: u.src_port(),
                dst_port: u.dst_port(),
                protocol: Protocol::Udp,
            };
            let payload_len = udp_len - udp::HEADER_LEN;
            let transport = PeekTransport::Udp {
                payload_off: transport_off + udp::HEADER_LEN,
                payload_len,
            };
            let payload = transport.payload(data);
            // A clipped datagram must still hold everything a parser reads.
            if payload.len() < payload_len && payload.len() < udp_prefix(payload, payload_len) {
                return Err(Error::Truncated);
            }
            Ok(Peek {
                info: PeekInfo {
                    link,
                    five_tuple,
                    ip_total_len,
                    transport,
                },
                udp_payload: Some(payload),
            })
        }
        Protocol::Tcp => {
            // The header, options and all, is everything the analysis
            // reads of a segment.
            let t = tcp::Packet::new_checked(transport_bytes)?;
            let hl = t.header_len();
            Ok(Peek {
                info: PeekInfo {
                    link,
                    five_tuple: FiveTuple {
                        src_ip,
                        dst_ip,
                        src_port: t.src_port(),
                        dst_port: t.dst_port(),
                        protocol: Protocol::Tcp,
                    },
                    ip_total_len,
                    transport: PeekTransport::Tcp {
                        seq: t.seq_number(),
                        ack: t.ack_number(),
                        flags: t.flags(),
                        window: t.window(),
                        payload_off: transport_off + hl,
                        payload_len: transport_wire_len - hl,
                    },
                },
                udp_payload: None,
            })
        }
        _ => Err(Error::Unsupported),
    }
}

/// The record's **analysis prefix**: how many of its leading bytes any
/// parser of any family may read. Everything the estimators use is a
/// header field or a declared length; the media payload behind the
/// headers is encrypted and never opened, so a capture (or a `ZFRG`
/// worker, `frame::FrameWriter`) may drop it: a record cut at or past
/// its prefix dissects exactly like the full one, a record cut short of
/// it is [`DropStage::Truncated`].
///
/// * Zoom media (SFU or P2P framing) and SRTP: through the RTP header,
///   CSRC list and extension included;
/// * Zoom control packets and UDP payloads that carry no framing's
///   signature: through the fixed fields the Zoom framings read off any
///   payload (the SFU encapsulation, the media encapsulation's type,
///   sequence and timestamp);
/// * TCP: through the TCP header, options included;
/// * STUN, RTCP (Zoom-encapsulated or SRTCP), DTLS, RTP with the padding
///   bit set or a header that does not check out, anything [`peek`]
///   rejects: the whole record — these are parsed to their end, or
///   checked against their own length fields. When in doubt, all of it.
///
/// A pure function of the record's bytes, with no registry or flow state:
/// a by-flow split puts a STUN exchange and the P2P flow it announces on
/// different workers, so whether a flow *is* P2P cannot be asked here;
/// what the payload would parse as under each framing can.
pub fn analysis_prefix(data: &[u8], link_type: LinkType) -> usize {
    let Ok(p) = peek(data, link_type) else {
        return data.len();
    };
    let transport = p.info.transport;
    let end = match transport {
        PeekTransport::Udp {
            payload_off,
            payload_len,
        } => payload_off + udp_prefix(transport.payload(data), payload_len),
        PeekTransport::Tcp { payload_off, .. } => payload_off,
    };
    end.min(data.len())
}

/// The fields every Zoom media encapsulation shares (Table 1: type at
/// byte 0, sequence at 9–10, timestamp at 11–14). The P2P framing reads
/// them off any payload, whatever its first byte says it is.
const ZME_COMMON_LEN: usize = 15;

/// [`analysis_prefix`] of a UDP payload that was `wire_len` bytes on the
/// wire: the leading bytes that `classify_udp` under every [`Probe`] and
/// the analysis layer's second chances (`zoom::parse` under either
/// framing, `webrtc::classify`) read between them. Which framing a flow
/// gets depends on state this function does not have, so it answers for
/// all of them; their signatures are disjoint in the first bytes, which
/// is what makes one answer possible.
///
/// `payload` may be clipped: the answer is the one the full payload gives
/// as long as `payload` is at least that long, and more than
/// `payload.len()` otherwise — every byte decided on lies within the
/// answer.
fn udp_prefix(payload: &[u8], wire_len: usize) -> usize {
    use crate::webrtc::{DTLS_APPLICATION_DATA, DTLS_CHANGE_CIPHER_SPEC};

    // A STUN message is parsed to its last attribute; without the cookie
    // nothing parses as one, port 3478 or not.
    if stun::has_magic_cookie(payload) {
        return wire_len;
    }
    let Some(&first) = payload.first() else {
        return wire_len;
    };
    // The end of an RTP header at `at`, unless the padding bit is set: the
    // padding count is the datagram's last octet.
    let rtp_header_end = |at: usize| {
        let rtp = crate::rtp::Packet::new_checked(payload.get(at..)?).ok()?;
        (!rtp.has_padding()).then(|| at + rtp.payload_offset())
    };
    let header_end = if first >> 6 == crate::rtp::VERSION {
        // A bare version-2 packet: SRTP, or — second byte 192–223, RFC
        // 5761 — RTCP, which is parsed to its end.
        match payload.get(1) {
            Some(second) if !(192..=223).contains(second) => rtp_header_end(0),
            _ => None,
        }
    } else if (DTLS_CHANGE_CIPHER_SPEC..=DTLS_APPLICATION_DATA).contains(&first) {
        // A DTLS record is checked against its own length field.
        None
    } else {
        // Everything else the Zoom framings have a reading of: a media
        // encapsulation, behind an SFU encapsulation if 0x05 leads.
        let zme_at = if first == zoom::SFU_TYPE_MEDIA {
            zoom::SFU_ENCAP_LEN
        } else {
            0
        };
        match payload.get(zme_at).map(|&t| zoom::MediaType::from_byte(t)) {
            Some(t) if t.is_rtcp() => None,
            Some(t) => match t.payload_offset() {
                Some(off) => rtp_header_end(zme_at + off),
                None => Some(zme_at + ZME_COMMON_LEN),
            },
            None => None,
        }
    };
    match header_end {
        Some(end) => end.max(ZME_COMMON_LEN).min(wire_len),
        None => wire_len,
    }
}

/// Resume a full dissection from a [`PeekInfo`] over the *same* record
/// bytes the peek ran on. Infallible: every validation already happened
/// in [`peek`], only the application layer (STUN/Zoom classification)
/// remains.
///
/// # Panics
/// Panics if `data` is not the buffer (or an identical copy of the
/// buffer) that produced `info` — the recorded offsets may be out of
/// bounds.
pub fn dissect_from<'a>(
    info: &PeekInfo,
    ts_nanos: u64,
    data: &'a [u8],
    probe: impl Into<Probe>,
) -> Dissection<'a> {
    let probe = probe.into();
    let app = match info.transport {
        PeekTransport::Udp { payload_len, .. } => classify_udp(
            &info.five_tuple,
            info.transport.payload(data),
            payload_len,
            probe,
        ),
        PeekTransport::Tcp { .. } => App::Opaque,
    };
    assemble(info, ts_nanos, data, app)
}

/// Dissect one capture record: [`peek`] + [`dissect_from`] in one call.
///
/// Returns `Err` only for packets that cannot be interpreted at the IP
/// layer or below; an unparseable application payload simply yields
/// [`App::Opaque`].
pub fn dissect<'a>(
    ts_nanos: u64,
    data: &'a [u8],
    link_type: LinkType,
    probe: impl Into<Probe>,
) -> Result<Dissection<'a>> {
    let p = peek(data, link_type)?;
    Ok(dissect_from(&p.info, ts_nanos, data, probe))
}

/// Why a record was rejected by [`peek`]/[`dissect`], at per-stage
/// granularity for drop accounting.
///
/// [`Error`] alone cannot distinguish "not IP" from "not UDP/TCP" (both
/// surface as [`Error::Unsupported`]); [`drop_stage`] re-examines just the
/// link header to split them. This runs only on the (rare) drop path, so
/// the re-check costs nothing on the packet fast path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropStage {
    /// The capture's link type is one the dissector does not decode.
    UnsupportedLink,
    /// An Ethernet frame whose ethertype is neither IPv4 nor IPv6.
    NonIp,
    /// An IP packet carrying a protocol other than UDP or TCP.
    NonTransport,
    /// The record was cut mid-header: it ends short of its
    /// [`analysis_prefix`] (a payload cut short behind the headers is not
    /// a drop), or a header's length field does not fit the packet around
    /// it.
    Truncated,
    /// A structurally invalid header (bad version nibble, length field,
    /// or checksum).
    Malformed,
}

impl DropStage {
    /// Stable lower-case label, used as the metric name suffix.
    pub fn label(self) -> &'static str {
        match self {
            DropStage::UnsupportedLink => "unsupported_link",
            DropStage::NonIp => "non_ip",
            DropStage::NonTransport => "non_transport",
            DropStage::Truncated => "truncated",
            DropStage::Malformed => "malformed",
        }
    }
}

/// Classify a [`peek`]/[`dissect`] rejection into its [`DropStage`].
///
/// `data` and `link_type` must be the inputs that produced `err`; the
/// function inspects at most the two ethertype bytes to disambiguate the
/// [`Error::Unsupported`] cases, so it is O(1).
pub fn drop_stage(data: &[u8], link_type: LinkType, err: Error) -> DropStage {
    match err {
        Error::Truncated => DropStage::Truncated,
        Error::Malformed | Error::Checksum => DropStage::Malformed,
        Error::Unsupported => match link_type {
            LinkType::Other(_) => DropStage::UnsupportedLink,
            LinkType::Ethernet => {
                // peek returned Unsupported either at the ethertype check
                // or at the IP-protocol check; the frame is long enough to
                // hold an Ethernet header in both cases.
                match ethernet::Packet::new_checked(data) {
                    Ok(eth) => match eth.ethertype() {
                        EtherType::Ipv4 | EtherType::Ipv6 => DropStage::NonTransport,
                        _ => DropStage::NonIp,
                    },
                    Err(_) => DropStage::Truncated,
                }
            }
            // Raw IP has no link header to reject, so Unsupported can only
            // have come from the IP protocol field.
            LinkType::RawIp => DropStage::NonTransport,
        },
    }
}

/// Coarse packet class assigned by [`peek_batch`] from header fields and
/// the first payload bytes only — cheap enough to compute during the
/// header walk, precise enough to sort application-layer dispatch into
/// branch-predictable per-class loops.
///
/// The class *predicts* which `classify_udp`-internal branch the record
/// will take; [`dissect_batch`] still runs the full classification per
/// record, so a mispredicted class costs only a branch miss, never a
/// wrong result.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// Port 3478 traffic or a payload passing the STUN magic-cookie check.
    Stun,
    /// Port 8801 (Zoom SFU) traffic whose first payload byte announces a
    /// media encapsulation ([`zoom::SFU_TYPE_MEDIA`]).
    ZmeMedia,
    /// Port 8801 traffic that is not a media frame: SFU control traffic.
    ZmeControl,
    /// A payload carrying the DTLS record signature (WebRTC session
    /// setup).
    Dtls,
    /// A version-2 RTP/RTCP-shaped payload outside every Zoom signal —
    /// native WebRTC media (SRTP/SRTCP) sorts here.
    Rtp,
    /// Valid UDP or TCP that matches no family's signals (P2P Zoom
    /// hides here until the STUN tracker flags the flow).
    NotZoom,
    /// [`peek`] rejected the record; the stored [`Error`] feeds
    /// [`drop_stage`] accounting.
    Undissectable,
}

impl PacketClass {
    /// Stable lower-case label for metrics and logs.
    pub fn label(self) -> &'static str {
        match self {
            PacketClass::Stun => "stun",
            PacketClass::ZmeMedia => "zme_media",
            PacketClass::ZmeControl => "zme_control",
            PacketClass::Dtls => "dtls",
            PacketClass::Rtp => "rtp",
            PacketClass::NotZoom => "not_zoom",
            PacketClass::Undissectable => "undissectable",
        }
    }
}

/// Number of classes that carry application-layer work (everything but
/// [`PacketClass::Undissectable`], which has nothing left to parse). The
/// slot order is the family×class dispatch order of [`dissect_batch`]:
/// shared STUN, then the Zoom family's classes, then WebRTC's, then the
/// residue.
const APP_CLASSES: usize = 6;

fn app_class_slot(class: PacketClass) -> Option<usize> {
    match class {
        PacketClass::Stun => Some(0),
        PacketClass::ZmeMedia => Some(1),
        PacketClass::ZmeControl => Some(2),
        PacketClass::Dtls => Some(3),
        PacketClass::Rtp => Some(4),
        PacketClass::NotZoom => Some(5),
        PacketClass::Undissectable => None,
    }
}

/// Caller-owned, reusable scratch space for [`peek_batch`] /
/// [`dissect_batch`]: per-record peek outcomes, [`PacketClass`] tags,
/// per-class index lists (the sorted dispatch order), and the
/// application-layer results. [`PeekArena::clear`] retains every
/// allocation, so a steady-state batch loop reuses one arena with zero
/// allocations once the high-water capacity is reached.
#[derive(Debug, Default)]
pub struct PeekArena {
    peeks: Vec<core::result::Result<PeekInfo, Error>>,
    classes: Vec<PacketClass>,
    apps: Vec<App>,
    /// Record indices per app-bearing class, in record order within each
    /// class. TCP records classify as `NotZoom` but are *not* indexed —
    /// their app layer is always [`App::Opaque`], so there is no work to
    /// sort.
    by_class: [Vec<u32>; APP_CLASSES],
}

impl PeekArena {
    /// Creates an empty arena; capacity grows on first use and is then
    /// retained across [`clear`](PeekArena::clear).
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the arena while keeping all capacity.
    pub fn clear(&mut self) {
        self.peeks.clear();
        self.classes.clear();
        self.apps.clear();
        for list in &mut self.by_class {
            list.clear();
        }
    }

    /// Number of records described by the last [`peek_batch`] run.
    pub fn len(&self) -> usize {
        self.peeks.len()
    }

    /// Whether the arena currently describes no records.
    pub fn is_empty(&self) -> bool {
        self.peeks.is_empty()
    }

    /// The peek outcome for record `index`: header info, or the error
    /// [`peek`] returned. Panics past the end of the last batch.
    pub fn peek(&self, index: usize) -> core::result::Result<&PeekInfo, Error> {
        self.peeks[index].as_ref().map_err(|e| *e)
    }

    /// The class tag assigned to record `index`.
    pub fn class(&self, index: usize) -> PacketClass {
        self.classes[index]
    }

    /// How many records of the last batch were tagged `class`.
    pub fn class_count(&self, class: PacketClass) -> usize {
        match app_class_slot(class) {
            Some(slot) => self.by_class[slot].len(),
            None => self.peeks.iter().filter(|p| p.is_err()).count(),
        }
    }

    /// Reassemble the full [`Dissection`] of record `index`, moving the
    /// application-layer result out of the arena (the slot is left
    /// [`App::Opaque`]). Requires a prior [`dissect_batch`] over the same
    /// `batch`; returns `None` for records [`peek`] rejected.
    ///
    /// Taking (rather than cloning) keeps the hot path allocation-free:
    /// a parsed [`ZoomPacket`] owns its RTCP list, and the consumer wants
    /// the value anyway.
    pub fn take_dissection<'a>(
        &mut self,
        batch: &'a crate::handoff::RecordBatch,
        index: usize,
    ) -> Option<Dissection<'a>> {
        let info = *self.peeks[index].as_ref().ok()?;
        let record = batch.get(index)?;
        let app = std::mem::replace(&mut self.apps[index], App::Opaque);
        Some(assemble(&info, record.ts_nanos, record.data, app))
    }
}

/// Hint the CPU to pull record `index`'s header bytes into cache while
/// the current record is still being parsed. No-op past the end of the
/// batch and on architectures without a stable prefetch intrinsic.
#[inline]
pub fn prefetch_record(batch: &crate::handoff::RecordBatch, index: usize) {
    if let Some(r) = batch.get(index) {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: prefetch is a pure performance hint; any address is
        // allowed, and this one is a live slice pointer anyway.
        unsafe {
            core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                r.data.as_ptr() as *const i8,
            );
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = r;
    }
}

/// Batch counterpart of [`peek`]: one pass over `batch` in record order,
/// filling `arena` with each record's [`PeekInfo`] (or rejection error)
/// and a [`PacketClass`] tag, and building the per-class index lists that
/// [`dissect_batch`] dispatches from. Prefetches the next record's header
/// bytes ahead of each parse.
///
/// Accepts and rejects exactly what per-record [`peek`] does, record by
/// record (pinned by tests).
pub fn peek_batch(batch: &crate::handoff::RecordBatch, link_type: LinkType, arena: &mut PeekArena) {
    arena.clear();
    let n = batch.len();
    arena.peeks.reserve(n);
    arena.classes.reserve(n);
    for index in 0..n {
        prefetch_record(batch, index + 1);
        // Index came from the 0..n loop: get() cannot fail.
        let record = batch.get(index).expect("index in bounds");
        let (outcome, class) = match peek(record.data, link_type) {
            Ok(p) => {
                let class = match p.udp_payload {
                    Some(payload) => {
                        let ft = &p.info.five_tuple;
                        // Shared STUN signal first, then each family's
                        // peek prediction in dispatch order.
                        if ft.involves_port(stun::STUN_PORT) || stun::looks_like_stun(payload) {
                            PacketClass::Stun
                        } else {
                            ZoomFamily
                                .peek_class(ft, payload)
                                .or_else(|| WebrtcFamily.peek_class(ft, payload))
                                .unwrap_or(PacketClass::NotZoom)
                        }
                    }
                    // TCP: valid headers, no UDP app layer to classify.
                    None => PacketClass::NotZoom,
                };
                if matches!(p.info.transport, PeekTransport::Udp { .. }) {
                    if let Some(slot) = app_class_slot(class) {
                        arena.by_class[slot].push(index as u32);
                    }
                }
                (Ok(p.info), class)
            }
            Err(e) => (Err(e), PacketClass::Undissectable),
        };
        arena.peeks.push(outcome);
        arena.classes.push(class);
    }
}

/// Batch counterpart of [`dissect`]: [`peek_batch`] plus application-layer
/// classification dispatched **class by class** — all STUN records, then
/// all ZME media, then ZME control, then not-zoom — so each inner loop
/// takes the same branches for every record. Results land in the arena in
/// record order; [`PeekArena::take_dissection`] reassembles any record's
/// full [`Dissection`].
///
/// Only the (stateless) parsing is reordered; callers consume records in
/// original order, so output is byte-identical to a per-record
/// [`dissect`] loop (pinned by tests and the differential suites).
pub fn dissect_batch(
    batch: &crate::handoff::RecordBatch,
    link_type: LinkType,
    probe: impl Into<Probe>,
    arena: &mut PeekArena,
) {
    let probe = probe.into();
    peek_batch(batch, link_type, arena);
    arena.apps.resize(batch.len(), App::Opaque);
    for slot in 0..APP_CLASSES {
        for i in 0..arena.by_class[slot].len() {
            let index = arena.by_class[slot][i] as usize;
            if let Some(&next) = arena.by_class[slot].get(i + 1) {
                prefetch_record(batch, next as usize);
            }
            // Indexed records always have Ok peeks with UDP transport
            // (peek_batch only lists those).
            let info = arena.peeks[index].as_ref().expect("indexed record peeked ok");
            let PeekTransport::Udp { payload_len, .. } = info.transport else {
                unreachable!("indexed record is UDP");
            };
            let data = batch.get(index).expect("index in bounds").data;
            let payload = info.transport.payload(data);
            arena.apps[index] = classify_udp(&info.five_tuple, payload, payload_len, probe);
        }
    }
}

/// Build a [`Dissection`] from pre-computed parts (shared by
/// [`dissect_from`] and [`PeekArena::take_dissection`]).
fn assemble<'a>(info: &PeekInfo, ts_nanos: u64, data: &'a [u8], app: App) -> Dissection<'a> {
    let transport = match info.transport {
        PeekTransport::Udp { payload_len, .. } => Transport::Udp { payload_len },
        PeekTransport::Tcp {
            seq,
            ack,
            flags,
            window,
            payload_len,
            ..
        } => Transport::Tcp {
            seq,
            ack,
            flags,
            window,
            payload_len,
        },
    };
    Dissection {
        ts_nanos,
        link: info.link,
        five_tuple: info.five_tuple,
        ip_total_len: info.ip_total_len,
        transport,
        app,
        payload: info.transport.payload(data),
    }
}

/// `payload` is what the capture kept of a datagram that was `wire_len`
/// bytes on the wire; [`peek`] has checked it against [`udp_prefix`].
fn classify_udp(five_tuple: &FiveTuple, payload: &[u8], wire_len: usize, probe: Probe) -> App {
    // STUN first: port 3478 traffic, or anything that passes the magic
    // cookie check. Both families signal sessions via STUN and none of
    // their framings can be confused with it (the leading bits differ),
    // so the check is shared and runs before any family.
    if let Some(app) = family::classify_stun(five_tuple, payload) {
        return app;
    }
    // Families in fixed dispatch order; the first `Some` claims the
    // packet (including a Zoom claim of malformed port-8801 traffic).
    if probe.zoom {
        if let Some(app) = ZoomFamily.classify(five_tuple, payload, wire_len, probe) {
            return app;
        }
    }
    if probe.webrtc == WebrtcProbe::Auto {
        if let Some(app) = WebrtcFamily.classify(five_tuple, payload, wire_len, probe) {
            return app;
        }
    }
    App::Opaque
}

/// Render a Wireshark-style field tree for a dissection — the textual
/// counterpart of the plugin screenshot in Fig. 18 of the paper.
pub fn render_tree(d: &Dissection<'_>) -> String {
    // Sized for the deepest tree (SFU + media + RTP + RTCP lines, ~12
    // lines of ≤ 80 chars); one up-front allocation instead of repeated
    // doubling while the lines accumulate.
    let mut out = String::with_capacity(1024);
    let _ = writeln!(
        out,
        "Frame: {} bytes on wire, ts={} ns",
        d.ip_total_len, d.ts_nanos
    );
    if let Some(link) = &d.link {
        let _ = writeln!(
            out,
            "Ethernet II, Src: {}, Dst: {}",
            link.src_addr, link.dst_addr
        );
    }
    let _ = writeln!(
        out,
        "Internet Protocol, Src: {}, Dst: {}",
        d.five_tuple.src_ip, d.five_tuple.dst_ip
    );
    match &d.transport {
        Transport::Udp { payload_len } => {
            let _ = writeln!(
                out,
                "User Datagram Protocol, Src Port: {}, Dst Port: {}, Payload: {} bytes",
                d.five_tuple.src_port, d.five_tuple.dst_port, payload_len
            );
        }
        Transport::Tcp {
            seq,
            ack,
            flags,
            payload_len,
            ..
        } => {
            let _ = writeln!(
                out,
                "Transmission Control Protocol, Src Port: {}, Dst Port: {}, Seq: {}, Ack: {}, \
                 Flags: [{}{}{}{}], Payload: {} bytes",
                d.five_tuple.src_port,
                d.five_tuple.dst_port,
                seq,
                ack,
                if flags.syn { "S" } else { "" },
                if flags.ack { "A" } else { "" },
                if flags.psh { "P" } else { "" },
                if flags.fin { "F" } else { "" },
                payload_len
            );
        }
    }
    match &d.app {
        App::Stun(s) => {
            let _ = writeln!(out, "Session Traversal Utilities for NAT");
            let _ = writeln!(out, "    Message Type: {:?}", s.message_type);
            if let Some(addr) = s.xor_mapped_address {
                let _ = writeln!(out, "    XOR-MAPPED-ADDRESS: {addr}");
            }
        }
        App::Zoom(framing, z) => {
            if let Some(sfu) = &z.sfu {
                let _ = writeln!(out, "Zoom SFU Encapsulation");
                let _ = writeln!(out, "    Type: {}", sfu.encap_type);
                let _ = writeln!(out, "    Sequence: {}", sfu.sequence);
                let _ = writeln!(
                    out,
                    "    Direction: {} ({})",
                    sfu.direction,
                    if sfu.direction == zoom::DIR_FROM_SFU {
                        "from SFU"
                    } else {
                        "to SFU"
                    }
                );
            }
            let _ = writeln!(
                out,
                "Zoom Media Encapsulation ({})",
                match framing {
                    Framing::Server => "server-based",
                    Framing::P2p => "P2P",
                }
            );
            let _ = writeln!(
                out,
                "    Type: {} ({})",
                z.media.media_type.to_byte(),
                z.media.media_type.label()
            );
            let _ = writeln!(out, "    Sequence: {}", z.media.sequence);
            let _ = writeln!(out, "    Timestamp: {}", z.media.timestamp);
            if let Some(fs) = z.media.frame_sequence {
                let _ = writeln!(out, "    Frame Sequence: {fs}");
            }
            if let Some(pf) = z.media.packets_in_frame {
                let _ = writeln!(out, "    Packets in Frame: {pf}");
            }
            if let Some(rtp) = &z.rtp {
                let _ = writeln!(out, "Real-Time Transport Protocol");
                let _ = writeln!(out, "    Payload Type: {}", rtp.payload_type);
                let _ = writeln!(out, "    Sequence Number: {}", rtp.sequence_number);
                let _ = writeln!(out, "    Timestamp: {}", rtp.timestamp);
                let _ = writeln!(out, "    SSRC: 0x{:08x}", rtp.ssrc);
                let _ = writeln!(out, "    Marker: {}", rtp.marker);
                let _ = writeln!(
                    out,
                    "    Media Payload: {} bytes (encrypted)",
                    z.media_payload_len
                );
            }
            for item in &z.rtcp {
                let _ = writeln!(out, "Real-Time Control Protocol: {item:?}");
            }
        }
        App::Webrtc(pdu) => match pdu {
            crate::webrtc::Pdu::Dtls(r) => {
                let _ = writeln!(out, "Datagram Transport Layer Security");
                let _ = writeln!(out, "    Content Type: {}", r.content_type);
                let _ = writeln!(out, "    Epoch: {}", r.epoch);
                let _ = writeln!(out, "    Sequence Number: {}", r.sequence);
                let _ = writeln!(out, "    Length: {}", r.length);
            }
            crate::webrtc::Pdu::Srtp(s) => {
                let _ = writeln!(out, "Secure Real-Time Transport Protocol");
                let _ = writeln!(out, "    Payload Type: {}", s.rtp.payload_type);
                let _ = writeln!(out, "    Sequence Number: {}", s.rtp.sequence_number);
                let _ = writeln!(out, "    Timestamp: {}", s.rtp.timestamp);
                let _ = writeln!(out, "    SSRC: 0x{:08x}", s.rtp.ssrc);
                let _ = writeln!(out, "    Marker: {}", s.rtp.marker);
                let _ = writeln!(
                    out,
                    "    Media Payload: {} bytes (encrypted)",
                    s.payload_len
                );
            }
            crate::webrtc::Pdu::Srtcp(r) => {
                let _ = writeln!(out, "Secure Real-Time Control Protocol");
                let _ = writeln!(out, "    Packet Type: {}", r.packet_type);
                let _ = writeln!(out, "    SSRC: 0x{:08x}", r.ssrc);
            }
        },
        App::Opaque => {
            let _ = writeln!(out, "Data: {} bytes", d.transport.payload_len());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose;
    use crate::zoom::ZOOM_SFU_PORT;
    use std::net::Ipv4Addr;

    fn server_video_packet() -> Vec<u8> {
        let zoom_payload = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: 9,
                direction: zoom::DIR_FROM_SFU,
            }),
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Video,
                sequence: 100,
                timestamp: 9000,
                frame_sequence: Some(5),
                packets_in_frame: Some(2),
            },
            rtp: Some(crate::rtp::Repr {
                marker: false,
                payload_type: 98,
                sequence_number: 700,
                timestamp: 90_000,
                ssrc: 0x99,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0x5A; 64],
        }
        .build();
        compose::udp_ipv4_ethernet(
            Ipv4Addr::new(52, 202, 62, 1),
            Ipv4Addr::new(10, 8, 0, 3),
            ZOOM_SFU_PORT,
            50_111,
            &zoom_payload,
        )
    }

    #[test]
    fn dissects_server_video() {
        let data = server_video_packet();
        let d = dissect(42, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(d.five_tuple.src_port, ZOOM_SFU_PORT);
        let z = d.zoom().expect("zoom parsed");
        assert_eq!(z.media.media_type, zoom::MediaType::Video);
        assert_eq!(z.rtp.as_ref().unwrap().ssrc, 0x99);
        let tree = render_tree(&d);
        assert!(tree.contains("Zoom SFU Encapsulation"));
        assert!(tree.contains("RTP: Video") || tree.contains("Payload Type: 98"));
    }

    #[test]
    fn opaque_for_unknown_udp() {
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1234,
            5678,
            b"not zoom at all",
        );
        let d = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(d.app, App::Opaque);
    }

    #[test]
    fn stun_classified_on_3478() {
        let msg = stun::Repr {
            message_type: stun::MessageType::BindingRequest,
            transaction_id: [1; 12],
            xor_mapped_address: None,
        };
        let mut payload = vec![0u8; msg.buffer_len()];
        msg.emit(&mut payload);
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(52, 202, 62, 2),
            50_111,
            stun::STUN_PORT,
            &payload,
        );
        let d = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert!(d.is_stun());
    }

    #[test]
    fn p2p_probe_finds_zoom() {
        let zoom_payload = zoom::Builder {
            sfu: None,
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Audio,
                sequence: 4,
                timestamp: 5,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: Some(crate::rtp::Repr {
                marker: false,
                payload_type: 112,
                sequence_number: 20,
                timestamp: 320,
                ssrc: 0x11,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0xEE; 80],
        }
        .build();
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(10, 9, 1, 4),
            50_111,
            61_234,
            &zoom_payload,
        );
        let off = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(off.app, App::Opaque);
        let on = dissect(0, &data, LinkType::Ethernet, P2pProbe::Auto).unwrap();
        match on.app {
            App::Zoom(Framing::P2p, ref z) => {
                assert_eq!(z.media.media_type, zoom::MediaType::Audio)
            }
            ref other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn webrtc_probe_finds_dtls_and_srtp() {
        let dtls = {
            let repr = crate::webrtc::DtlsRepr {
                content_type: crate::webrtc::DTLS_HANDSHAKE,
                version_minor: 0xfd,
                epoch: 0,
                sequence: 1,
                length: 16,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf);
            buf
        };
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(203, 0, 113, 7),
            50_111,
            61_234,
            &dtls,
        );
        // Default probe: WebRTC framing stays opaque (byte-identity with
        // the pre-family dissector).
        let off = dissect(0, &data, LinkType::Ethernet, Probe::default()).unwrap();
        assert_eq!(off.app, App::Opaque);
        // The historic P2pProbe call shape still compiles and behaves
        // identically.
        let legacy = dissect(0, &data, LinkType::Ethernet, P2pProbe::Auto).unwrap();
        assert_eq!(legacy.app, App::Opaque);
        // WebRTC probing on: the DTLS record parses and renders.
        let probe = Probe {
            webrtc: WebrtcProbe::Auto,
            ..Probe::default()
        };
        let on = dissect(0, &data, LinkType::Ethernet, probe).unwrap();
        match &on.app {
            App::Webrtc(crate::webrtc::Pdu::Dtls(r)) => assert_eq!(r.length, 16),
            other => panic!("unexpected {other:?}"),
        }
        let tree = render_tree(&on);
        assert!(tree.contains("Datagram Transport Layer Security"));

        // SRTP: cleartext RTP header over ephemeral ports.
        let rtp = crate::rtp::Repr {
            marker: true,
            payload_type: 96,
            sequence_number: 9,
            timestamp: 3_000,
            ssrc: 0x42,
            csrc_count: 0,
            has_extension: false,
        };
        let mut payload = vec![0u8; rtp.header_len() + 50];
        rtp.emit(&mut crate::rtp::Packet::new_unchecked(&mut payload[..]));
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(203, 0, 113, 7),
            Ipv4Addr::new(10, 8, 0, 3),
            61_234,
            50_111,
            &payload,
        );
        let on = dissect(0, &data, LinkType::Ethernet, probe).unwrap();
        match &on.app {
            App::Webrtc(crate::webrtc::Pdu::Srtp(s)) => {
                assert_eq!(s.rtp.payload_type, 96);
                assert_eq!(s.payload_len, 50 - crate::webrtc::SRTP_AUTH_TAG_LEN);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(render_tree(&on).contains("Secure Real-Time Transport Protocol"));
    }

    #[test]
    fn tcp_dissects_with_seq_ack() {
        let data = compose::tcp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(170, 114, 0, 5),
            50_000,
            443,
            1000,
            2000,
            tcp::Flags {
                ack: true,
                ..Default::default()
            },
            b"x",
        );
        let d = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        match d.transport {
            Transport::Tcp { seq, ack, .. } => {
                assert_eq!(seq, 1000);
                assert_eq!(ack, 2000);
            }
            _ => panic!("expected tcp"),
        }
    }

    #[test]
    fn peek_offsets_resume_identical_dissection() {
        // dissect == peek + dissect_from holds by construction; pin the
        // recorded offsets against the borrowed slices so a regression in
        // the offset arithmetic cannot hide behind that identity.
        let data = server_video_packet();
        let p = peek(&data, LinkType::Ethernet).unwrap();
        assert_eq!(p.info.five_tuple.src_port, ZOOM_SFU_PORT);
        let PeekTransport::Udp {
            payload_off,
            payload_len,
        } = p.info.transport
        else {
            panic!("expected udp transport");
        };
        assert_eq!(
            &data[payload_off..payload_off + payload_len],
            p.udp_payload.unwrap()
        );
        let d = dissect_from(&p.info, 42, &data, P2pProbe::Off);
        assert_eq!(d, dissect(42, &data, LinkType::Ethernet, P2pProbe::Off).unwrap());
        assert!(d.zoom().is_some());

        // TCP: header fields carried through PeekInfo verbatim.
        let tcp_data = compose::tcp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(170, 114, 0, 5),
            50_000,
            443,
            7_000,
            8_000,
            tcp::Flags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            b"abc",
        );
        let p = peek(&tcp_data, LinkType::Ethernet).unwrap();
        assert!(p.udp_payload.is_none());
        let d = dissect_from(&p.info, 7, &tcp_data, P2pProbe::Off);
        assert_eq!(
            d,
            dissect(7, &tcp_data, LinkType::Ethernet, P2pProbe::Off).unwrap()
        );
        match d.transport {
            Transport::Tcp {
                seq,
                ack,
                payload_len,
                ..
            } => {
                assert_eq!((seq, ack, payload_len), (7_000, 8_000, 3));
            }
            _ => panic!("expected tcp"),
        }
    }

    #[test]
    fn analysis_prefix_ends_where_the_parsers_stop_reading() {
        // Ethernet 14 + IPv4 20 + UDP 8 + SFU 8 + video encapsulation 24 +
        // RTP 12; the 64 bytes of media behind them are never read.
        let video = server_video_packet();
        assert_eq!(
            (video.len(), analysis_prefix(&video, LinkType::Ethernet)),
            (150, 86)
        );
        let full = dissect(42, &video, LinkType::Ethernet, P2pProbe::Off).unwrap();
        let cut = dissect(42, &video[..86], LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!((&cut.app, &cut.transport), (&full.app, &full.transport));
        assert_eq!(cut.zoom().unwrap().media_payload_len, 64);
        assert_eq!(cut.transport.payload_len(), 108);
        assert_eq!((cut.payload.len(), cut.ip_total_len), (44, 136));
        // One byte short of it, the record was cut mid-header.
        let err = peek(&video[..85], LinkType::Ethernet).unwrap_err();
        assert_eq!(
            drop_stage(&video[..85], LinkType::Ethernet, err),
            DropStage::Truncated
        );

        // TCP: through the TCP header.
        let tcp_data = compose::tcp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(170, 114, 0, 5),
            50_000,
            443,
            1,
            2,
            tcp::Flags::default(),
            &[0x17; 700],
        );
        assert_eq!(analysis_prefix(&tcp_data, LinkType::Ethernet), 14 + 20 + 20);
        let cut = dissect(0, &tcp_data[..54], LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(cut.transport.payload_len(), 700);
        assert!(cut.payload.is_empty());

        // A payload with no framing's signature: the fixed fields the Zoom
        // framings would read off it. STUN, and anything that does not
        // dissect: all of it.
        let plain = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1234,
            5678,
            &[0x01; 400],
        );
        assert_eq!(analysis_prefix(&plain, LinkType::Ethernet), 42 + 15);
        let msg = stun::Repr {
            message_type: stun::MessageType::BindingSuccess,
            transaction_id: [1; 12],
            xor_mapped_address: Some("10.8.0.3:50111".parse().unwrap()),
        };
        let mut stun_payload = vec![0u8; msg.buffer_len()];
        msg.emit(&mut stun_payload);
        let stun_data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(52, 202, 62, 2),
            Ipv4Addr::new(10, 8, 0, 3),
            stun::STUN_PORT,
            50_111,
            &stun_payload,
        );
        assert_eq!(
            analysis_prefix(&stun_data, LinkType::Ethernet),
            stun_data.len()
        );
        assert_eq!(analysis_prefix(&video, LinkType::Other(9)), video.len());
        assert_eq!(analysis_prefix(&video[..30], LinkType::Ethernet), 30);
    }

    #[test]
    fn peek_rejects_exactly_what_dissect_rejects() {
        let mut arp = server_video_packet();
        arp[12] = 0x08;
        arp[13] = 0x06;
        for data in [&b"x"[..], &[][..], &arp[..], &[0u8; 64][..]] {
            for link in [LinkType::Ethernet, LinkType::RawIp, LinkType::Other(9)] {
                assert_eq!(
                    peek(data, link).err(),
                    dissect(0, data, link, P2pProbe::Off).err(),
                    "link {link:?}, {} bytes",
                    data.len()
                );
            }
        }
    }

    #[test]
    fn render_tree_known_packet_output() {
        // A fully deterministic packet → exact rendered tree. compose
        // derives MACs 02:00:<ip octets> from the addresses.
        let data = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1234,
            5678,
            b"not zoom at all",
        );
        let d = dissect(7, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        let tree = render_tree(&d);
        assert_eq!(
            tree,
            "Frame: 43 bytes on wire, ts=7 ns\n\
             Ethernet II, Src: 02:00:01:01:01:01, Dst: 02:00:02:02:02:02\n\
             Internet Protocol, Src: 1.1.1.1, Dst: 2.2.2.2\n\
             User Datagram Protocol, Src Port: 1234, Dst Port: 5678, Payload: 15 bytes\n\
             Data: 15 bytes\n"
        );
        // The pre-reserved capacity covered the whole render: no growth.
        assert_eq!(tree.capacity(), 1024);
    }

    #[test]
    fn non_ip_ethertype_unsupported() {
        let mut data = server_video_packet();
        data[12] = 0x08;
        data[13] = 0x06; // ARP
        assert_eq!(
            dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn drop_stage_classifies_every_rejection() {
        // Unknown link type.
        let err = peek(&[0u8; 64], LinkType::Other(42)).unwrap_err();
        assert_eq!(
            drop_stage(&[0u8; 64], LinkType::Other(42), err),
            DropStage::UnsupportedLink
        );

        // ARP ethertype: not IP.
        let mut arp = server_video_packet();
        arp[12] = 0x08;
        arp[13] = 0x06;
        let err = peek(&arp, LinkType::Ethernet).unwrap_err();
        assert_eq!(drop_stage(&arp, LinkType::Ethernet, err), DropStage::NonIp);

        // ICMP protocol inside a valid IPv4 header: not UDP/TCP. Rebuild
        // the header checksum so the rejection is really the protocol.
        let mut icmp = server_video_packet();
        icmp[ethernet::HEADER_LEN + 9] = 1; // protocol = ICMP
        let mut ip = ipv4::Packet::new_unchecked(&mut icmp[ethernet::HEADER_LEN..]);
        ip.fill_checksum();
        let err = peek(&icmp, LinkType::Ethernet).unwrap_err();
        assert_eq!(
            drop_stage(&icmp, LinkType::Ethernet, err),
            DropStage::NonTransport
        );
        // Same packet as a raw-IP capture.
        let raw = &icmp[ethernet::HEADER_LEN..];
        let err = peek(raw, LinkType::RawIp).unwrap_err();
        assert_eq!(drop_stage(raw, LinkType::RawIp, err), DropStage::NonTransport);

        // Truncated frame.
        let err = peek(b"x", LinkType::Ethernet).unwrap_err();
        assert_eq!(
            drop_stage(b"x", LinkType::Ethernet, err),
            DropStage::Truncated
        );

        // Bad IP version nibble over raw IP: malformed.
        let junk = [0xF0u8; 40];
        let err = peek(&junk, LinkType::RawIp).unwrap_err();
        assert_eq!(drop_stage(&junk, LinkType::RawIp, err), DropStage::Malformed);

        // Labels are stable metric suffixes.
        assert_eq!(DropStage::NonIp.label(), "non_ip");
        assert_eq!(DropStage::UnsupportedLink.label(), "unsupported_link");
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::compose;
    use crate::handoff::RecordBatch;
    use crate::zoom::ZOOM_SFU_PORT;
    use std::net::Ipv4Addr;

    /// A mixed batch exercising every class: STUN, ZME media, ZME
    /// control, plain UDP, TCP, P2P-framed Zoom, and two rejects.
    fn mixed_batch() -> RecordBatch {
        let mut batch = RecordBatch::new();
        let mut push = |data: &[u8]| {
            let ts = 1_000 * (batch.len() as u64 + 1);
            batch.push(ts, data.len() as u32, data);
        };

        // STUN binding request on 3478.
        let msg = stun::Repr {
            message_type: stun::MessageType::BindingRequest,
            transaction_id: [7; 12],
            xor_mapped_address: None,
        };
        let mut stun_payload = vec![0u8; msg.buffer_len()];
        msg.emit(&mut stun_payload);
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(52, 202, 62, 2),
            50_111,
            stun::STUN_PORT,
            &stun_payload,
        ));

        // ZME media: server-framed video to port 8801.
        let media = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: 9,
                direction: zoom::DIR_FROM_SFU,
            }),
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Video,
                sequence: 100,
                timestamp: 9000,
                frame_sequence: Some(5),
                packets_in_frame: Some(2),
            },
            rtp: Some(crate::rtp::Repr {
                marker: false,
                payload_type: 98,
                sequence_number: 700,
                timestamp: 90_000,
                ssrc: 0x99,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0x5A; 64],
        }
        .build();
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(52, 202, 62, 1),
            Ipv4Addr::new(10, 8, 0, 3),
            ZOOM_SFU_PORT,
            50_111,
            &media,
        ));

        // ZME control: port 8801, first byte is not SFU_TYPE_MEDIA.
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(52, 202, 62, 1),
            Ipv4Addr::new(10, 8, 0, 3),
            ZOOM_SFU_PORT,
            50_111,
            &[0x01, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02],
        ));

        // Plain UDP, nothing Zoom about it.
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1234,
            5678,
            b"not zoom at all",
        ));

        // TCP segment.
        push(&compose::tcp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(170, 114, 0, 5),
            50_000,
            443,
            1000,
            2000,
            tcp::Flags {
                ack: true,
                ..Default::default()
            },
            b"x",
        ));

        // P2P-framed Zoom on ephemeral ports (classifies NotZoom until a
        // probe runs).
        let p2p = zoom::Builder {
            sfu: None,
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::Audio,
                sequence: 4,
                timestamp: 5,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: Some(crate::rtp::Repr {
                marker: false,
                payload_type: 112,
                sequence_number: 20,
                timestamp: 320,
                ssrc: 0x11,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0xEE; 80],
        }
        .build();
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(10, 9, 1, 4),
            50_111,
            61_234,
            &p2p,
        ));

        // Two rejects: an ARP ethertype and a truncated frame.
        let mut arp = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            b"zz",
        );
        arp[12] = 0x08;
        arp[13] = 0x06;
        push(&arp);
        push(b"x");

        batch
    }

    #[test]
    fn peek_batch_matches_per_record_peek() {
        let batch = mixed_batch();
        let mut arena = PeekArena::new();
        peek_batch(&batch, LinkType::Ethernet, &mut arena);
        assert_eq!(arena.len(), batch.len());
        for (i, r) in batch.iter().enumerate() {
            match peek(r.data, LinkType::Ethernet) {
                Ok(p) => assert_eq!(arena.peek(i).unwrap(), &p.info, "record {i}"),
                Err(e) => {
                    assert_eq!(arena.peek(i).unwrap_err(), e, "record {i}");
                    assert_eq!(arena.class(i), PacketClass::Undissectable);
                }
            }
        }
    }

    #[test]
    fn peek_batch_assigns_expected_classes() {
        let batch = mixed_batch();
        let mut arena = PeekArena::new();
        peek_batch(&batch, LinkType::Ethernet, &mut arena);
        let classes: Vec<PacketClass> = (0..batch.len()).map(|i| arena.class(i)).collect();
        assert_eq!(
            classes,
            vec![
                PacketClass::Stun,
                PacketClass::ZmeMedia,
                PacketClass::ZmeControl,
                PacketClass::NotZoom,
                PacketClass::NotZoom, // TCP
                PacketClass::NotZoom, // P2P Zoom hides here pre-probe
                PacketClass::Undissectable,
                PacketClass::Undissectable,
            ]
        );
        assert_eq!(arena.class_count(PacketClass::Stun), 1);
        assert_eq!(arena.class_count(PacketClass::ZmeMedia), 1);
        assert_eq!(arena.class_count(PacketClass::ZmeControl), 1);
        // TCP is NotZoom by class but carries no app work to index.
        assert_eq!(arena.class_count(PacketClass::NotZoom), 2);
        assert_eq!(arena.class_count(PacketClass::Undissectable), 2);
        assert_eq!(PacketClass::ZmeMedia.label(), "zme_media");
    }

    #[test]
    fn dissect_batch_matches_per_record_dissect() {
        let batch = mixed_batch();
        for probe in [P2pProbe::Off, P2pProbe::Auto] {
            let mut arena = PeekArena::new();
            dissect_batch(&batch, LinkType::Ethernet, probe, &mut arena);
            for (i, r) in batch.iter().enumerate() {
                let expected = dissect(r.ts_nanos, r.data, LinkType::Ethernet, probe);
                let got = arena.take_dissection(&batch, i);
                match (expected, got) {
                    (Ok(e), Some(g)) => assert_eq!(e, g, "record {i}, probe {probe:?}"),
                    (Err(_), None) => {}
                    (e, g) => panic!("record {i} mismatch: {e:?} vs {g:?}"),
                }
            }
        }
    }

    #[test]
    fn arena_clear_retains_capacity_across_batches() {
        let batch = mixed_batch();
        let mut arena = PeekArena::new();
        dissect_batch(&batch, LinkType::Ethernet, P2pProbe::Off, &mut arena);
        let caps = (
            arena.peeks.capacity(),
            arena.classes.capacity(),
            arena.apps.capacity(),
        );
        dissect_batch(&batch, LinkType::Ethernet, P2pProbe::Off, &mut arena);
        assert_eq!(
            caps,
            (
                arena.peeks.capacity(),
                arena.classes.capacity(),
                arena.apps.capacity(),
            )
        );
        assert_eq!(arena.len(), batch.len());
    }

    #[test]
    fn webrtc_records_sort_into_their_own_classes() {
        // Append WebRTC-shaped records to the mixed batch: they take the
        // Dtls/Rtp dispatch classes without disturbing the Zoom classes.
        let mut batch = mixed_batch();
        let zoom_len = batch.len();
        let dtls = {
            let repr = crate::webrtc::DtlsRepr {
                content_type: crate::webrtc::DTLS_HANDSHAKE,
                version_minor: 0xfd,
                epoch: 0,
                sequence: 0,
                length: 8,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf);
            buf
        };
        let dtls_rec = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(203, 0, 113, 7),
            50_111,
            61_234,
            &dtls,
        );
        batch.push(9_000, dtls_rec.len() as u32, &dtls_rec);
        let rtp = crate::rtp::Repr {
            marker: false,
            payload_type: 111,
            sequence_number: 1,
            timestamp: 960,
            ssrc: 0x7,
            csrc_count: 0,
            has_extension: false,
        };
        let mut srtp = vec![0u8; rtp.header_len() + 40];
        rtp.emit(&mut crate::rtp::Packet::new_unchecked(&mut srtp[..]));
        let srtp_rec = compose::udp_ipv4_ethernet(
            Ipv4Addr::new(203, 0, 113, 7),
            Ipv4Addr::new(10, 8, 0, 3),
            61_234,
            50_111,
            &srtp,
        );
        batch.push(10_000, srtp_rec.len() as u32, &srtp_rec);

        let mut arena = PeekArena::new();
        peek_batch(&batch, LinkType::Ethernet, &mut arena);
        assert_eq!(arena.class(zoom_len), PacketClass::Dtls);
        assert_eq!(arena.class(zoom_len + 1), PacketClass::Rtp);
        assert_eq!(arena.class_count(PacketClass::Dtls), 1);
        assert_eq!(arena.class_count(PacketClass::Rtp), 1);
        assert_eq!(PacketClass::Dtls.label(), "dtls");
        assert_eq!(PacketClass::Rtp.label(), "rtp");
        // The Zoom-side classes are exactly what the Zoom-only batch had.
        assert_eq!(arena.class_count(PacketClass::Stun), 1);
        assert_eq!(arena.class_count(PacketClass::ZmeMedia), 1);
        assert_eq!(arena.class_count(PacketClass::ZmeControl), 1);
        assert_eq!(arena.class_count(PacketClass::NotZoom), 2);

        // Batched dispatch still matches per-record dissection with a
        // WebRTC-probing configuration.
        let probe = Probe {
            webrtc: WebrtcProbe::Auto,
            ..Probe::default()
        };
        let mut arena = PeekArena::new();
        dissect_batch(&batch, LinkType::Ethernet, probe, &mut arena);
        for (i, r) in batch.iter().enumerate() {
            let expected = dissect(r.ts_nanos, r.data, LinkType::Ethernet, probe);
            let got = arena.take_dissection(&batch, i);
            match (expected, got) {
                (Ok(e), Some(g)) => assert_eq!(e, g, "record {i}"),
                (Err(_), None) => {}
                (e, g) => panic!("record {i} mismatch: {e:?} vs {g:?}"),
            }
        }
    }

    #[test]
    fn prefetch_hint_is_safe_at_any_index() {
        let batch = mixed_batch();
        for i in 0..batch.len() + 2 {
            prefetch_record(&batch, i);
        }
        prefetch_record(&RecordBatch::new(), 0);
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::ipv6;
    use crate::udp;
    use std::net::Ipv6Addr;

    /// Hand-compose an IPv6/UDP packet (no Ethernet).
    fn udp_ipv6_raw(payload: &[u8]) -> Vec<u8> {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let udp_repr = udp::Repr {
            src_port: 5_000,
            dst_port: 8801,
            payload_len: payload.len(),
        };
        let ip_repr = ipv6::Repr {
            src_addr: src,
            dst_addr: dst,
            next_header: crate::ipv4::Protocol::Udp,
            payload_len: udp_repr.total_len(),
            hop_limit: 64,
        };
        let mut buf = vec![0u8; ip_repr.total_len()];
        ip_repr.emit(&mut ipv6::Packet::new_unchecked(&mut buf[..]));
        {
            let mut u = udp::Packet::new_unchecked(&mut buf[ipv6::HEADER_LEN..]);
            udp_repr.emit(&mut u);
            u.payload_mut().copy_from_slice(payload);
            u.fill_checksum_v6(src, dst);
        }
        buf
    }

    #[test]
    fn dissects_ipv6_udp_over_raw_ip() {
        let data = udp_ipv6_raw(b"hello v6");
        let d = dissect(3, &data, LinkType::RawIp, P2pProbe::Off).unwrap();
        assert_eq!(d.five_tuple.src_ip.to_string(), "2001:db8::1");
        assert_eq!(d.five_tuple.dst_port, 8801);
        assert_eq!(d.payload, b"hello v6");
        match d.transport {
            Transport::Udp { payload_len } => assert_eq!(payload_len, 8),
            _ => panic!("expected udp"),
        }
        // Port 8801 ⇒ treated as Zoom server traffic: the payload parses
        // structurally as a (non-media) SFU control frame — opaque but
        // classified, exactly like the ~10 % control packets of Table 2.
        match &d.app {
            App::Zoom(zoom::Framing::Server, z) => {
                assert!(z.rtp.is_none());
                assert!(z.rtcp.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dissects_ipv4_over_raw_ip() {
        let eth = crate::compose::udp_ipv4_ethernet(
            std::net::Ipv4Addr::new(10, 8, 0, 1),
            std::net::Ipv4Addr::new(1, 2, 3, 4),
            1_000,
            2_000,
            b"raw",
        );
        // Strip the Ethernet header: what a DLT_RAW capture stores.
        let d = dissect(0, &eth[ethernet::HEADER_LEN..], LinkType::RawIp, P2pProbe::Off)
            .unwrap();
        assert!(d.link.is_none());
        assert_eq!(d.five_tuple.src_port, 1_000);
        assert_eq!(d.payload, b"raw");
    }

    #[test]
    fn unknown_link_type_unsupported() {
        assert_eq!(
            dissect(0, &[0u8; 64], LinkType::Other(42), P2pProbe::Off).unwrap_err(),
            Error::Unsupported
        );
    }

    #[test]
    fn render_tree_for_rtcp_and_opaque() {
        // RTCP-bearing Zoom packet.
        let sr = crate::rtcp::SenderReportRepr {
            ssrc: 0x42,
            info: crate::rtcp::SenderInfo {
                ntp_timestamp: 1,
                rtp_timestamp: 2,
                packet_count: 3,
                octet_count: 4,
            },
            with_sdes: false,
        };
        let mut body = vec![0u8; sr.buffer_len()];
        sr.emit(&mut body);
        let payload = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: 1,
                direction: zoom::DIR_TO_SFU,
            }),
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::RtcpSr,
                sequence: 2,
                timestamp: 3,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: None,
            payload: body,
        }
        .build();
        let data = crate::compose::udp_ipv4_ethernet(
            std::net::Ipv4Addr::new(10, 8, 0, 1),
            std::net::Ipv4Addr::new(170, 114, 0, 1),
            50_000,
            zoom::ZOOM_SFU_PORT,
            &payload,
        );
        let d = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        let tree = render_tree(&d);
        assert!(tree.contains("Real-Time Control Protocol"));
        assert!(tree.contains("to SFU"));

        // Opaque UDP.
        let data = crate::compose::udp_ipv4_ethernet(
            std::net::Ipv4Addr::new(1, 1, 1, 1),
            std::net::Ipv4Addr::new(2, 2, 2, 2),
            5,
            6,
            b"??",
        );
        let d = dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert!(render_tree(&d).contains("Data: 2 bytes"));
    }
}

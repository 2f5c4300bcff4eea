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
//! Application-layer classification is delegated to the families'
//! claim functions in [`crate::family`], called by [`classify_udp_with`]
//! in a fixed order (STUN, Zoom, WebRTC); the [`Probe`] struct selects
//! which families (and which of their optional heuristics) run. The
//! historic [`P2pProbe`]-taking call shape still compiles everywhere:
//! every entry point accepts `impl Into<Probe>`.

use crate::ethernet::{self, EtherType};
use crate::family;
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

/// An application-layer reading by reference: what [`classify_udp_with`]
/// hands its continuation, the parsed packet left where the parser put
/// it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AppView<'p> {
    /// A parsed STUN message.
    Stun(&'p stun::Repr),
    /// A parsed Zoom packet with the framing that succeeded.
    Zoom(Framing, &'p ZoomPacket),
    /// A parsed native-WebRTC PDU.
    Webrtc(&'p crate::webrtc::Pdu),
    /// The payload did not match anything we decode.
    Opaque,
}

impl AppView<'_> {
    /// The owned [`App`].
    pub fn to_app(self) -> App {
        match self {
            AppView::Stun(repr) => App::Stun(*repr),
            AppView::Zoom(framing, z) => App::Zoom(framing, z.clone()),
            AppView::Webrtc(pdu) => App::Webrtc(*pdu),
            AppView::Opaque => App::Opaque,
        }
    }
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
/// [`dissect`] and the analyzer both classify a record's payload
/// ([`classify_udp_with`]) straight from the peek, so the header walk
/// happens once per record.
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

impl PeekInfo {
    /// The IP 5-tuple.
    pub fn five_tuple(&self) -> &FiveTuple {
        &self.five_tuple
    }
}

/// Parse the link/IP/transport headers once, recording payload byte
/// offsets so the application layer can be classified from them.
///
/// It applies exactly the link/IP/transport validation of [`dissect`] —
/// it returns `Err` for precisely the records `dissect` rejects
/// (guaranteed by construction: `dissect` *is* `peek` followed by
/// [`classify_udp_with`]) — but never touches application payloads,
/// making it an order of magnitude cheaper. The analyzer's per-record
/// loop starts every record with it.
pub fn peek(data: &[u8], link_type: LinkType) -> Result<PeekInfo> {
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
    // Each IP version finishes the walk in its own copy of
    // `peek_transport`, which writes the addresses once, where the peek
    // returns them.
    match ip_bytes.first().map(|b| b >> 4) {
        None => Err(Error::Truncated),
        Some(4) => {
            let ip = ipv4::Packet::new_checked(ip_bytes)?;
            peek_transport(
                data,
                link,
                ip_off,
                IpAddr::V4(ip.src_addr()),
                IpAddr::V4(ip.dst_addr()),
                ip.protocol(),
                ip_off + ip.header_len(),
                ip.total_len() as usize,
            )
        }
        Some(6) => {
            let ip = ipv6::Packet::new_checked(ip_bytes)?;
            peek_transport(
                data,
                link,
                ip_off,
                IpAddr::V6(ip.src_addr()),
                IpAddr::V6(ip.dst_addr()),
                ip.next_header(),
                ip_off + ipv6::HEADER_LEN,
                ipv6::HEADER_LEN + ip.payload_len() as usize,
            )
        }
        Some(_) => Err(Error::Malformed),
    }
}

/// [`peek`] from the transport header on.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn peek_transport(
    data: &[u8],
    link: Option<ethernet::Repr>,
    ip_off: usize,
    src_ip: IpAddr,
    dst_ip: IpAddr,
    protocol: Protocol,
    transport_off: usize,
    ip_total_len: usize,
) -> Result<PeekInfo> {
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
            Ok(PeekInfo {
                link,
                five_tuple: FiveTuple {
                    src_ip,
                    dst_ip,
                    src_port: u.src_port(),
                    dst_port: u.dst_port(),
                    protocol: Protocol::Udp,
                },
                ip_total_len,
                transport,
            })
        }
        Protocol::Tcp => {
            // The header, options and all, is everything the analysis
            // reads of a segment.
            let t = tcp::Packet::new_checked(transport_bytes)?;
            let hl = t.header_len();
            Ok(PeekInfo {
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
    let transport = p.transport;
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

/// Dissect one capture record: [`peek`], then the application layer of
/// a UDP payload ([`classify_udp_with`]; TCP payloads stay
/// [`App::Opaque`]).
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
    let info = peek(data, link_type)?;
    Ok(Dissection {
        ts_nanos,
        link: info.link,
        five_tuple: info.five_tuple,
        ip_total_len: info.ip_total_len,
        transport: info.transport.into(),
        app: app_of(&info, data, probe.into()),
        payload: info.transport.payload(data),
    })
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
    /// A structurally invalid header (bad version nibble or length
    /// field). No checksum is verified: the capture filter's anonymizer
    /// zeroes UDP checksums, and a snap-length record has no whole
    /// datagram to sum.
    Malformed,
}

/// Classify a [`peek`]/[`dissect`] rejection into its [`DropStage`].
///
/// `data` and `link_type` must be the inputs that produced `err`; the
/// function inspects at most the two ethertype bytes to disambiguate the
/// [`Error::Unsupported`] cases, so it is O(1).
pub fn drop_stage(data: &[u8], link_type: LinkType, err: Error) -> DropStage {
    match err {
        Error::Truncated => DropStage::Truncated,
        Error::Malformed => DropStage::Malformed,
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

/// Caller-owned, reusable scratch space for [`peek_batch`] and
/// [`dissect_batch`]: each record's peek outcome and, after
/// [`dissect_batch`], its application-layer reading. Reused across
/// batches it keeps its allocations, so a steady-state batch loop does
/// not allocate once the high-water capacity is reached. No analysis
/// route runs the batch functions (the analyzer peeks and classifies
/// each record once, in its own in-order pass); the benchmark's
/// `wire.dissect.*` probes do.
#[derive(Debug, Default)]
pub struct PeekArena {
    peeks: Vec<Result<PeekInfo>>,
    apps: Vec<App>,
}

impl PeekArena {
    /// Creates an empty arena; capacity grows on first use and is then
    /// retained across batches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of records described by the last batch run.
    pub fn len(&self) -> usize {
        self.peeks.len()
    }

    /// Whether the arena currently describes no records.
    pub fn is_empty(&self) -> bool {
        self.peeks.is_empty()
    }
}

/// Hint the CPU to pull record `index`'s header bytes into cache while
/// the current record is still being parsed. No-op past the end of the
/// batch and on architectures without a stable prefetch intrinsic.
#[inline]
#[allow(unsafe_code)]
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
/// filling `arena` with each record's [`PeekInfo`] (or rejection error),
/// the next record's header bytes prefetched ahead of each parse.
/// Accepts and rejects exactly what per-record [`peek`] does.
pub fn peek_batch(batch: &crate::handoff::RecordBatch, link_type: LinkType, arena: &mut PeekArena) {
    arena.peeks.clear();
    arena.apps.clear();
    for (index, record) in batch.iter().enumerate() {
        prefetch_record(batch, index + 1);
        arena.peeks.push(peek(record.data, link_type));
    }
}

/// Batch counterpart of [`dissect`]: [`peek_batch`], then each record's
/// application-layer reading in record order ([`App::Opaque`] for a
/// rejected record), exactly as a per-record [`dissect`] loop reads them.
pub fn dissect_batch(
    batch: &crate::handoff::RecordBatch,
    link_type: LinkType,
    probe: impl Into<Probe>,
    arena: &mut PeekArena,
) {
    let probe = probe.into();
    peek_batch(batch, link_type, arena);
    for (peeked, record) in arena.peeks.iter().zip(batch.iter()) {
        arena.apps.push(match peeked {
            Ok(info) => app_of(info, record.data, probe),
            Err(_) => App::Opaque,
        });
    }
}

/// The owned application-layer reading of a record `info` was peeked
/// from: [`classify_udp_with`] for UDP, [`App::Opaque`] for TCP.
fn app_of(info: &PeekInfo, data: &[u8], probe: Probe) -> App {
    match info.transport {
        PeekTransport::Udp { payload_len, .. } => classify_udp_with(
            &info.five_tuple,
            info.transport.payload(data),
            payload_len,
            probe,
            |app| app.to_app(),
        ),
        PeekTransport::Tcp { .. } => App::Opaque,
    }
}

impl From<PeekTransport> for Transport {
    /// The header fields of a peeked transport, without the payload's
    /// byte range.
    fn from(t: PeekTransport) -> Transport {
        match t {
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
        }
    }
}

/// The application layer of a UDP datagram under `probe`, handed to
/// `then` where the parser left it: the step [`dissect`] adds to a
/// [`peek`] (which takes the reading owned, as an [`App`]), and all the
/// analyzer runs after its own peek of a record — it builds its packet
/// metadata from the parsed headers, with no [`App`] or [`Dissection`] in
/// between. `payload` is what the capture kept of a datagram that was
/// `wire_len` bytes on the wire; [`peek`] has checked that it holds the
/// record's [`analysis_prefix`].
#[inline]
pub fn classify_udp_with<R>(
    five_tuple: &FiveTuple,
    payload: &[u8],
    wire_len: usize,
    probe: Probe,
    then: impl FnOnce(AppView<'_>) -> R,
) -> R {
    // STUN first: port 3478 traffic, or anything that passes the magic
    // cookie check. Both families signal sessions via STUN and none of
    // their framings can be confused with it (the leading bits differ),
    // so the check is shared and runs before any family.
    if let Some(repr) = family::classify_stun(five_tuple, payload) {
        return then(AppView::Stun(&repr));
    }
    // Families in fixed dispatch order; the first `Some` claims the
    // packet (including a Zoom claim of malformed port-8801 traffic). A
    // family that passes does not call `then`, so it is still ours.
    let mut then = Some(then);
    if probe.zoom {
        let f = |app: AppView<'_>| then.take().expect("called once")(app);
        if let Some(r) = family::claim_zoom(five_tuple, payload, wire_len, probe, f) {
            return r;
        }
    }
    if probe.webrtc == WebrtcProbe::Auto {
        let f = |app: AppView<'_>| then.take().expect("called once")(app);
        if let Some(r) = family::claim_webrtc(payload, wire_len, f) {
            return r;
        }
    }
    then.take().expect("no family called it")(AppView::Opaque)
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
            // The packet keeps a summary; the items are re-walked from the
            // bytes it was parsed from, which validated as a compound then.
            let items = z
                .rtcp_compound(d.payload)
                .and_then(|c| crate::rtcp::parse_compound(c).ok());
            for item in items.iter().flatten() {
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
        // dissect == peek + classify_udp_with holds by construction; pin
        // the recorded offsets against the borrowed slices so a regression
        // in the offset arithmetic cannot hide behind that identity.
        let data = server_video_packet();
        let p = peek(&data, LinkType::Ethernet).unwrap();
        assert_eq!(p.five_tuple.src_port, ZOOM_SFU_PORT);
        let PeekTransport::Udp {
            payload_off,
            payload_len,
        } = p.transport
        else {
            panic!("expected udp transport");
        };
        let d = dissect(42, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(d.five_tuple, p.five_tuple);
        assert_eq!(d.transport, Transport::from(p.transport));
        assert_eq!(d.payload, &data[payload_off..payload_off + payload_len]);
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
        let d = dissect(7, &tcp_data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(d.transport, Transport::from(p.transport));
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
        assert_eq!(
            drop_stage(raw, LinkType::RawIp, err),
            DropStage::NonTransport
        );

        // Truncated frame.
        let err = peek(b"x", LinkType::Ethernet).unwrap_err();
        assert_eq!(
            drop_stage(b"x", LinkType::Ethernet, err),
            DropStage::Truncated
        );

        // Bad IP version nibble over raw IP: malformed.
        let junk = [0xF0u8; 40];
        let err = peek(&junk, LinkType::RawIp).unwrap_err();
        assert_eq!(
            drop_stage(&junk, LinkType::RawIp, err),
            DropStage::Malformed
        );
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use crate::compose;
    use crate::handoff::RecordBatch;
    use crate::zoom::ZOOM_SFU_PORT;
    use std::net::Ipv4Addr;

    /// A mixed batch of every kind of record the dissector tells apart:
    /// STUN, ZME media, ZME control, plain UDP, TCP, P2P-framed Zoom,
    /// WebRTC DTLS and SRTP, and two rejects.
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

        // P2P-framed Zoom on ephemeral ports (opaque unless P2P probing
        // runs).
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

        // WebRTC: a DTLS handshake record and an SRTP packet (opaque
        // unless WebRTC probing runs).
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
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(10, 8, 0, 3),
            Ipv4Addr::new(203, 0, 113, 7),
            50_111,
            61_234,
            &dtls,
        ));
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
        push(&compose::udp_ipv4_ethernet(
            Ipv4Addr::new(203, 0, 113, 7),
            Ipv4Addr::new(10, 8, 0, 3),
            61_234,
            50_111,
            &srtp,
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
            let expected = peek(r.data, LinkType::Ethernet);
            assert_eq!(arena.peeks[i], expected, "record {i}");
        }
    }

    #[test]
    fn dissect_batch_matches_per_record_dissect() {
        let batch = mixed_batch();
        let webrtc = Probe {
            webrtc: WebrtcProbe::Auto,
            ..Probe::default()
        };
        for probe in [P2pProbe::Off.into(), P2pProbe::Auto.into(), webrtc] {
            let mut arena = PeekArena::new();
            dissect_batch(&batch, LinkType::Ethernet, probe, &mut arena);
            assert_eq!(arena.len(), batch.len());
            for (i, r) in batch.iter().enumerate() {
                let expected = dissect(r.ts_nanos, r.data, LinkType::Ethernet, probe);
                match (expected, &arena.peeks[i]) {
                    (Ok(e), Ok(info)) => {
                        assert_eq!(info, &peek(r.data, LinkType::Ethernet).unwrap());
                        assert_eq!(arena.apps[i], e.app, "record {i}, probe {probe:?}");
                    }
                    (Err(e), Err(g)) => {
                        assert_eq!(e, *g, "record {i}");
                        assert_eq!(arena.apps[i], App::Opaque, "record {i}");
                    }
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
        let caps = (arena.peeks.capacity(), arena.apps.capacity());
        dissect_batch(&batch, LinkType::Ethernet, P2pProbe::Off, &mut arena);
        assert_eq!(caps, (arena.peeks.capacity(), arena.apps.capacity()));
        assert_eq!(arena.len(), batch.len());
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
        let udp_len = udp_repr.total_len() as u16;
        let mut buf = ipv6::test_header(src, dst, crate::ipv4::Protocol::Udp, udp_len);
        buf.resize(ipv6::HEADER_LEN + udp_repr.total_len(), 0);
        {
            let mut u = udp::Packet::new_unchecked(&mut buf[ipv6::HEADER_LEN..]);
            udp_repr.emit(&mut u);
        }
        buf[ipv6::HEADER_LEN + udp::HEADER_LEN..].copy_from_slice(payload);
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
        let d = dissect(
            0,
            &eth[ethernet::HEADER_LEN..],
            LinkType::RawIp,
            P2pProbe::Off,
        )
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
        // The tree of an RTCP-bearing Zoom packet carrying `compound`.
        let tree = |compound: Vec<u8>| {
            let payload = zoom::Builder {
                sfu: Some(zoom::SfuEncapRepr {
                    encap_type: zoom::SFU_TYPE_MEDIA,
                    sequence: 1,
                    direction: zoom::DIR_TO_SFU,
                }),
                media: zoom::MediaEncapRepr {
                    media_type: zoom::MediaType::RtcpSrSdes,
                    sequence: 2,
                    timestamp: 3,
                    frame_sequence: None,
                    packets_in_frame: None,
                },
                rtp: None,
                payload: compound,
            }
            .build();
            let data = crate::compose::udp_ipv4_ethernet(
                std::net::Ipv4Addr::new(10, 8, 0, 1),
                std::net::Ipv4Addr::new(170, 114, 0, 1),
                50_000,
                zoom::ZOOM_SFU_PORT,
                &payload,
            );
            render_tree(&dissect(0, &data, LinkType::Ethernet, P2pProbe::Off).unwrap())
        };
        let rtcp_lines = |tree: &str| -> Vec<String> {
            (tree.lines())
                .filter(|l| l.starts_with("Real-Time Control Protocol"))
                .map(str::to_owned)
                .collect()
        };
        let sr = |with_sdes| {
            let sr = crate::rtcp::SenderReportRepr {
                ssrc: 0x42,
                info: crate::rtcp::SenderInfo {
                    ntp_timestamp: 1,
                    rtp_timestamp: 2,
                    packet_count: 3,
                    octet_count: 4,
                },
                with_sdes,
            };
            let mut body = vec![0u8; sr.buffer_len()];
            sr.emit(&mut body);
            body
        };
        const SR_LINE: &str = "Real-Time Control Protocol: SenderReport { ssrc: 66, info: \
            SenderInfo { ntp_timestamp: 1, rtp_timestamp: 2, packet_count: 3, octet_count: 4 }, \
            report_count: 0 }";

        // SR + SDES, Zoom's compound.
        let t = tree(sr(true));
        assert!(t.contains("to SFU"));
        assert_eq!(
            rtcp_lines(&t),
            [
                SR_LINE,
                "Real-Time Control Protocol: SourceDescription { ssrcs: [66] }"
            ]
        );
        // SR + a BYE of three sources: more SSRCs than one SDES chunk.
        let mut compound = sr(false);
        compound.extend_from_slice(&[0x83, 203, 0, 3]);
        for ssrc in [7u32, 8, 9] {
            compound.extend_from_slice(&ssrc.to_be_bytes());
        }
        assert_eq!(
            rtcp_lines(&tree(compound)),
            [
                SR_LINE,
                "Real-Time Control Protocol: Bye { ssrcs: [7, 8, 9] }"
            ]
        );

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

    /// The RTCP lines of a tree come from re-walking the compound in the
    /// dissection's payload; they read exactly as when the parsed packet
    /// carried the item list itself.
    #[test]
    fn render_tree_sr_sdes_packet_output() {
        let sr = crate::rtcp::SenderReportRepr {
            ssrc: 0x42,
            info: crate::rtcp::SenderInfo {
                ntp_timestamp: 0x83AA_7E80_0000_0001,
                rtp_timestamp: 90_000,
                packet_count: 3,
                octet_count: 4_000,
            },
            with_sdes: true,
        };
        let mut body = vec![0u8; sr.buffer_len()];
        sr.emit(&mut body);
        let payload = zoom::Builder {
            sfu: Some(zoom::SfuEncapRepr {
                encap_type: zoom::SFU_TYPE_MEDIA,
                sequence: 1,
                direction: zoom::DIR_FROM_SFU,
            }),
            media: zoom::MediaEncapRepr {
                media_type: zoom::MediaType::RtcpSrSdes,
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
            std::net::Ipv4Addr::new(170, 114, 0, 1),
            std::net::Ipv4Addr::new(10, 8, 0, 1),
            zoom::ZOOM_SFU_PORT,
            50_000,
            &payload,
        );
        let d = dissect(9, &data, LinkType::Ethernet, P2pProbe::Off).unwrap();
        assert_eq!(
            render_tree(&d),
            "Frame: 92 bytes on wire, ts=9 ns\n\
             Ethernet II, Src: 02:00:aa:72:00:01, Dst: 02:00:0a:08:00:01\n\
             Internet Protocol, Src: 170.114.0.1, Dst: 10.8.0.1\n\
             User Datagram Protocol, Src Port: 8801, Dst Port: 50000, Payload: 64 bytes\n\
             Zoom SFU Encapsulation\n\
             \x20   Type: 5\n\
             \x20   Sequence: 1\n\
             \x20   Direction: 4 (from SFU)\n\
             Zoom Media Encapsulation (server-based)\n\
             \x20   Type: 34 (RTCP: SR + SDES)\n\
             \x20   Sequence: 2\n\
             \x20   Timestamp: 3\n\
             Real-Time Control Protocol: SenderReport { ssrc: 66, info: SenderInfo { \
             ntp_timestamp: 9487534653230284801, rtp_timestamp: 90000, packet_count: 3, \
             octet_count: 4000 }, report_count: 0 }\n\
             Real-Time Control Protocol: SourceDescription { ssrcs: [66] }\n"
        );
    }
}

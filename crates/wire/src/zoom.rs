//! Zoom's proprietary encapsulation headers, as reverse-engineered in §4.2
//! of the paper (Table 1, Table 2, Fig. 7).
//!
//! Two headers wrap every Zoom UDP media packet:
//!
//! * **Zoom SFU Encapsulation** — a fixed 8-byte header present only on
//!   server-based (client ⇄ SFU) traffic. Byte 0 is a type field (0x05 on
//!   98.4 % of packets, meaning "media encapsulation follows"), bytes 1–2
//!   are a sequence number, and byte 7 encodes the direction (0x00 toward
//!   the SFU, 0x04 from the SFU).
//! * **Zoom Media Encapsulation** — a variable-length header whose first
//!   byte selects the payload kind and, with it, the offset where the inner
//!   RTP/RTCP header starts (Table 2): screen share (13) → 27, audio (15)
//!   → 19, video (16) → 24, RTCP (33/34) → 16. Video packets additionally
//!   carry a frame sequence number (bytes 21–22) and the number of packets
//!   in the frame (byte 23) — the fields that make passive frame-rate and
//!   frame-size measurement possible. A media-level sequence number sits at
//!   bytes 9–10 and a timestamp at bytes 11–14 (Table 1).
//!
//! P2P traffic starts directly with the media encapsulation; server traffic
//! prefixes the SFU encapsulation. The exact layout of the reserved bytes
//! is not published; this crate fixes the self-consistent layout documented
//! in `DESIGN.md` and treats reserved ranges as opaque.

use crate::{be16, be32, rtcp, rtp, set_be16, set_be32, Error, Result};

/// Length of the Zoom SFU encapsulation header.
pub const SFU_ENCAP_LEN: usize = 8;

/// SFU-encapsulation type value indicating a media encapsulation follows
/// (98.4 % of server-based packets in the paper's trace).
pub const SFU_TYPE_MEDIA: u8 = 0x05;

/// Direction byte: packet traveling toward the SFU.
pub const DIR_TO_SFU: u8 = 0x00;

/// Direction byte: packet traveling from the SFU.
pub const DIR_FROM_SFU: u8 = 0x04;

/// The well-known UDP port of Zoom multi-media routers (SFUs).
pub const ZOOM_SFU_PORT: u16 = 8801;

/// Media-encapsulation type values (Table 2) plus the screen-share /
/// audio / video distinction that drives all downstream classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MediaType {
    /// Type 13: RTP screen sharing, RTP at offset 27.
    ScreenShare,
    /// Type 15: RTP audio, RTP at offset 19.
    Audio,
    /// Type 16: RTP video, RTP at offset 24.
    Video,
    /// Type 33: RTCP sender report, RTCP at offset 16.
    RtcpSr,
    /// Type 34: RTCP sender report + source description, RTCP at offset 16.
    RtcpSrSdes,
    /// Any other type value — the ~10 % of packets the paper classifies as
    /// "other control information, e.g., congestion control".
    Other(u8),
}

impl MediaType {
    /// Decode from the first media-encapsulation byte.
    pub fn from_byte(b: u8) -> MediaType {
        match b {
            13 => MediaType::ScreenShare,
            15 => MediaType::Audio,
            16 => MediaType::Video,
            33 => MediaType::RtcpSr,
            34 => MediaType::RtcpSrSdes,
            other => MediaType::Other(other),
        }
    }

    /// Encode to the first media-encapsulation byte.
    pub fn to_byte(self) -> u8 {
        match self {
            MediaType::ScreenShare => 13,
            MediaType::Audio => 15,
            MediaType::Video => 16,
            MediaType::RtcpSr => 33,
            MediaType::RtcpSrSdes => 34,
            MediaType::Other(other) => other,
        }
    }

    /// Offset (from the start of the media encapsulation) where the inner
    /// RTP/RTCP header begins — Table 2 of the paper. `None` for types we
    /// do not decode.
    pub fn payload_offset(self) -> Option<usize> {
        match self {
            MediaType::ScreenShare => Some(27),
            MediaType::Audio => Some(19),
            MediaType::Video => Some(24),
            MediaType::RtcpSr | MediaType::RtcpSrSdes => Some(16),
            MediaType::Other(_) => None,
        }
    }

    /// True for the three RTP media kinds.
    pub fn is_rtp_media(self) -> bool {
        matches!(
            self,
            MediaType::ScreenShare | MediaType::Audio | MediaType::Video
        )
    }

    /// True for the RTCP kinds.
    pub fn is_rtcp(self) -> bool {
        matches!(self, MediaType::RtcpSr | MediaType::RtcpSrSdes)
    }

    /// Human-readable label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            MediaType::ScreenShare => "RTP: Screen Share",
            MediaType::Audio => "RTP: Audio",
            MediaType::Video => "RTP: Video",
            MediaType::RtcpSr => "RTCP: SR",
            MediaType::RtcpSrSdes => "RTCP: SR + SDES",
            MediaType::Other(_) => "Other",
        }
    }
}

/// RTP payload-type semantics within each Zoom media stream (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RtpPayloadKind {
    /// Video PT 98 — the main video stream.
    VideoMain,
    /// Video PT 110 — forward error correction.
    VideoFec,
    /// Audio PT 112 — participant actively speaking.
    AudioSpeaking,
    /// Audio PT 99 — silence / background noise (fixed 40-byte payload).
    AudioSilent,
    /// Audio PT 113 — mode unknown (observed from the mobile app).
    AudioUnknownMode,
    /// Audio PT 110 — forward error correction.
    AudioFec,
    /// Screen share PT 99 — the main screen-share stream.
    ScreenShareMain,
    /// Any other (media type, payload type) combination (< 0.02 % of the
    /// paper's trace).
    Other,
}

impl RtpPayloadKind {
    /// Classify from the Zoom media type and the inner RTP payload type.
    pub fn classify(media: MediaType, pt: u8) -> RtpPayloadKind {
        match (media, pt) {
            (MediaType::Video, 98) => RtpPayloadKind::VideoMain,
            (MediaType::Video, 110) => RtpPayloadKind::VideoFec,
            (MediaType::Audio, 112) => RtpPayloadKind::AudioSpeaking,
            (MediaType::Audio, 99) => RtpPayloadKind::AudioSilent,
            (MediaType::Audio, 113) => RtpPayloadKind::AudioUnknownMode,
            (MediaType::Audio, 110) => RtpPayloadKind::AudioFec,
            (MediaType::ScreenShare, 99) => RtpPayloadKind::ScreenShareMain,
            _ => RtpPayloadKind::Other,
        }
    }

    /// True for FEC sub-streams.
    pub fn is_fec(self) -> bool {
        matches!(self, RtpPayloadKind::VideoFec | RtpPayloadKind::AudioFec)
    }
}

/// The fixed RTP payload size of Zoom's silent-audio packets (type 99,
/// 40 bytes of RTP payload — §4.2.3 of the paper).
pub const SILENT_AUDIO_PAYLOAD_LEN: usize = 40;

/// Zero-copy view of the Zoom SFU encapsulation.
#[derive(Debug, Clone)]
pub struct SfuEncap<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> SfuEncap<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        SfuEncap { buffer }
    }

    /// Wrap, validating the length.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < SFU_ENCAP_LEN {
            return Err(Error::Truncated);
        }
        Ok(SfuEncap { buffer })
    }

    /// Type byte (0x05 ⇒ media encapsulation follows).
    pub fn encap_type(&self) -> u8 {
        self.buffer.as_ref()[0]
    }

    /// 16-bit sequence number.
    pub fn sequence(&self) -> u16 {
        be16(self.buffer.as_ref(), 1)
    }

    /// Direction byte: [`DIR_TO_SFU`] or [`DIR_FROM_SFU`].
    pub fn direction(&self) -> u8 {
        self.buffer.as_ref()[7]
    }

    /// True if this header announces a media encapsulation.
    pub fn is_media(&self) -> bool {
        self.encap_type() == SFU_TYPE_MEDIA
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> SfuEncap<T> {
    /// Set the type byte.
    pub fn set_encap_type(&mut self, v: u8) {
        self.buffer.as_mut()[0] = v;
    }

    /// Set the sequence number.
    pub fn set_sequence(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 1, v);
    }

    /// Set the direction byte.
    pub fn set_direction(&mut self, v: u8) {
        self.buffer.as_mut()[7] = v;
    }

    /// Zero the reserved bytes 3–6.
    pub fn clear_reserved(&mut self) {
        for b in &mut self.buffer.as_mut()[3..7] {
            *b = 0;
        }
    }
}

/// High-level SFU encapsulation representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SfuEncapRepr {
    /// Encapsulation type byte (e.g. [`SFU_TYPE_MEDIA`]).
    pub encap_type: u8,
    /// Outer SFU sequence number.
    pub sequence: u16,
    /// Direction byte: [`DIR_TO_SFU`] or [`DIR_FROM_SFU`].
    pub direction: u8,
}

impl SfuEncapRepr {
    /// Parse from a checked view.
    pub fn parse<T: AsRef<[u8]>>(p: &SfuEncap<T>) -> SfuEncapRepr {
        SfuEncapRepr {
            encap_type: p.encap_type(),
            sequence: p.sequence(),
            direction: p.direction(),
        }
    }

    /// Emit into a view.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, p: &mut SfuEncap<T>) {
        p.set_encap_type(self.encap_type);
        p.set_sequence(self.sequence);
        p.clear_reserved();
        p.set_direction(self.direction);
    }
}

/// Zero-copy view of the Zoom media encapsulation.
#[derive(Debug, Clone)]
pub struct MediaEncap<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> MediaEncap<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        MediaEncap { buffer }
    }

    /// Wrap, validating that the buffer covers the type-specific header.
    /// Unknown types only require the type byte itself.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let p = MediaEncap { buffer };
        p.check_len()?;
        Ok(p)
    }

    /// Validate structural invariants.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.is_empty() {
            return Err(Error::Truncated);
        }
        if let Some(off) = self.media_type().payload_offset() {
            if data.len() < off {
                return Err(Error::Truncated);
            }
        }
        Ok(())
    }

    /// Media type from the first byte.
    pub fn media_type(&self) -> MediaType {
        MediaType::from_byte(self.buffer.as_ref()[0])
    }

    /// Media-level sequence number (bytes 9–10, Table 1).
    pub fn sequence(&self) -> Option<u16> {
        let data = self.buffer.as_ref();
        if data.len() >= 11 {
            Some(be16(data, 9))
        } else {
            None
        }
    }

    /// Media-level timestamp (bytes 11–14, Table 1).
    pub fn timestamp(&self) -> Option<u32> {
        let data = self.buffer.as_ref();
        if data.len() >= 15 {
            Some(be32(data, 11))
        } else {
            None
        }
    }

    /// Frame sequence number — video packets only (bytes 21–22, Table 1).
    pub fn frame_sequence(&self) -> Option<u16> {
        if self.media_type() != MediaType::Video {
            return None;
        }
        let data = self.buffer.as_ref();
        if data.len() >= 23 {
            Some(be16(data, 21))
        } else {
            None
        }
    }

    /// Number of packets making up the current frame — video packets only
    /// (byte 23, Table 1). This is the field "Method 1" frame-rate
    /// estimation keys on (§5.2).
    pub fn packets_in_frame(&self) -> Option<u8> {
        if self.media_type() != MediaType::Video {
            return None;
        }
        let data = self.buffer.as_ref();
        if data.len() >= 24 {
            Some(data[23])
        } else {
            None
        }
    }

    /// The encapsulated RTP/RTCP bytes, when the type is one we decode.
    pub fn payload(&self) -> Option<&[u8]> {
        let off = self.media_type().payload_offset()?;
        Some(&self.buffer.as_ref()[off..])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> MediaEncap<T> {}

/// High-level media encapsulation representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaEncapRepr {
    /// Media encapsulation type.
    pub media_type: MediaType,
    /// Media-layer sequence number.
    pub sequence: u16,
    /// Media-layer timestamp.
    pub timestamp: u32,
    /// Video only.
    pub frame_sequence: Option<u16>,
    /// Video only.
    pub packets_in_frame: Option<u8>,
}

impl MediaEncapRepr {
    /// Parse from a checked view; fields outside the type's header length
    /// come back as `None`/zero.
    pub fn parse<T: AsRef<[u8]>>(p: &MediaEncap<T>) -> Result<MediaEncapRepr> {
        p.check_len()?;
        Ok(MediaEncapRepr {
            media_type: p.media_type(),
            sequence: p.sequence().unwrap_or(0),
            timestamp: p.timestamp().unwrap_or(0),
            frame_sequence: p.frame_sequence(),
            packets_in_frame: p.packets_in_frame(),
        })
    }

    /// Header length implied by the media type; unknown types get a minimal
    /// 16-byte header when emitted.
    pub fn header_len(&self) -> usize {
        self.media_type.payload_offset().unwrap_or(16)
    }

    /// Emit the header (reserved bytes zeroed) into `buf`, which must be at
    /// least [`Self::header_len`] long. Returns the header length.
    pub fn emit(&self, buf: &mut [u8]) -> usize {
        let len = self.header_len();
        for b in &mut buf[..len] {
            *b = 0;
        }
        buf[0] = self.media_type.to_byte();
        if len >= 15 {
            set_be16(buf, 9, self.sequence);
            set_be32(buf, 11, self.timestamp);
        }
        if self.media_type == MediaType::Video {
            set_be16(buf, 21, self.frame_sequence.unwrap_or(0));
            buf[23] = self.packets_in_frame.unwrap_or(0);
        }
        len
    }
}

/// A fully parsed Zoom UDP payload: optional SFU encapsulation, media
/// encapsulation, and the decoded inner RTP header or a summary of the
/// RTCP compound.
///
/// Every field is a small value, so the packet stays small (80 bytes on a
/// 64-bit target) and moves through the dissector in registers and short
/// copies; the RTCP items themselves are rebuilt on demand from the bytes
/// ([`ZoomPacket::rtcp_compound`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ZoomPacket {
    /// Present on server-based traffic, absent on P2P.
    pub sfu: Option<SfuEncapRepr>,
    /// The media encapsulation header.
    pub media: MediaEncapRepr,
    /// Decoded RTP header for media types 13/15/16.
    pub rtp: Option<rtp::Repr>,
    /// Item count and first sender report of the RTCP compound for types
    /// 33/34; empty for every other type.
    pub rtcp: rtcp::Summary,
    /// Length in bytes of the RTP payload (media bytes after the RTP
    /// header), or of the undecoded remainder for other types.
    pub media_payload_len: usize,
}

impl ZoomPacket {
    /// Where the RTCP compound sits in `payload`, the bytes this packet
    /// was [`parse`]d from (a dissection's
    /// [`payload`](crate::dissect::Dissection::payload)): behind the SFU
    /// encapsulation, if any, and the media encapsulation. `None` unless
    /// the packet carried a compound. [`rtcp::parse_compound`] on the
    /// slice yields every item [`ZoomPacket::rtcp`] summarizes.
    pub fn rtcp_compound<'a>(&self, payload: &'a [u8]) -> Option<&'a [u8]> {
        if self.rtcp.is_empty() {
            return None;
        }
        let sfu = if self.sfu.is_some() { SFU_ENCAP_LEN } else { 0 };
        payload.get(sfu + self.media.media_type.payload_offset()?..)
    }
}

/// How a UDP payload should be interpreted before parsing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Framing {
    /// Server-based traffic: SFU encapsulation first (UDP port 8801).
    Server,
    /// P2P traffic: media encapsulation first.
    P2p,
}

/// Parse a Zoom UDP payload that was `wire_len` bytes on the wire and of
/// which `payload` holds the first part — all of it from a full capture
/// (`wire_len == payload.len()`), the headers at least from a snap-length
/// capture or a trimmed fragment (`dissect::analysis_prefix`). Header
/// fields are read from `payload`; every length in the result is the
/// length on the wire.
///
/// For [`Framing::Server`], the payload must begin with an SFU
/// encapsulation of type 0x05; other SFU types yield a packet with
/// `media.media_type == MediaType::Other` and no decoded payload.
pub fn parse(payload: &[u8], wire_len: usize, framing: Framing) -> Result<ZoomPacket> {
    let (sfu, media_bytes) = match framing {
        Framing::Server => {
            let sfu = SfuEncap::new_checked(payload)?;
            let repr = SfuEncapRepr::parse(&sfu);
            if !sfu.is_media() {
                // Not a media encapsulation — report as opaque.
                return Ok(ZoomPacket {
                    sfu: Some(repr),
                    media: MediaEncapRepr {
                        media_type: MediaType::Other(0),
                        sequence: 0,
                        timestamp: 0,
                        frame_sequence: None,
                        packets_in_frame: None,
                    },
                    rtp: None,
                    rtcp: rtcp::Summary::default(),
                    media_payload_len: wire_len.saturating_sub(SFU_ENCAP_LEN),
                });
            }
            (Some(repr), &payload[SFU_ENCAP_LEN..])
        }
        Framing::P2p => (None, payload),
    };
    // What the media encapsulation measured on the wire.
    let media_wire_len = wire_len.saturating_sub(payload.len() - media_bytes.len());

    let encap = MediaEncap::new_checked(media_bytes)?;
    let media = MediaEncapRepr::parse(&encap)?;
    let mut rtp_repr = None;
    let mut rtcp_summary = rtcp::Summary::default();
    let mut media_payload_len = 0;

    match media.media_type {
        t if t.is_rtp_media() => {
            let off = t.payload_offset().expect("rtp media always has an offset");
            let rtp_pkt = rtp::Packet::new_checked(&media_bytes[off..])?;
            media_payload_len = rtp_pkt.payload_len(media_wire_len.saturating_sub(off));
            rtp_repr = Some(rtp::Repr::parse(&rtp_pkt)?);
        }
        t if t.is_rtcp() => {
            let inner = encap.payload().expect("rtcp always has an offset");
            rtcp_summary = rtcp::summarize(inner)?;
        }
        _ => {
            media_payload_len = media_wire_len.saturating_sub(1);
        }
    }

    Ok(ZoomPacket {
        sfu,
        media,
        rtp: rtp_repr,
        rtcp: rtcp_summary,
        media_payload_len,
    })
}

/// Try both framings: Zoom server traffic is identified by port 8801, but
/// when the port is unknown (e.g. scanning a flow for Zoom-ness) this
/// attempts server framing first, then P2P. `wire_len` as for [`parse`].
pub fn parse_auto(payload: &[u8], wire_len: usize) -> Result<(Framing, ZoomPacket)> {
    if let Ok(p) = parse(payload, wire_len, Framing::Server) {
        if p.rtp.is_some() || !p.rtcp.is_empty() {
            return Ok((Framing::Server, p));
        }
    }
    if let Ok(p) = parse(payload, wire_len, Framing::P2p) {
        if p.rtp.is_some() || !p.rtcp.is_empty() {
            return Ok((Framing::P2p, p));
        }
    }
    // Fall back to whatever structurally parses, preferring server framing.
    parse(payload, wire_len, Framing::Server)
        .map(|p| (Framing::Server, p))
        .or_else(|_| parse(payload, wire_len, Framing::P2p).map(|p| (Framing::P2p, p)))
}

/// Builder that composes a complete Zoom UDP payload: optional SFU encap +
/// media encap + RTP header + payload bytes.
#[derive(Debug, Clone)]
pub struct Builder {
    /// Optional SFU encapsulation (server framing when present).
    pub sfu: Option<SfuEncapRepr>,
    /// Media encapsulation header.
    pub media: MediaEncapRepr,
    /// Optional inner RTP header.
    pub rtp: Option<rtp::Repr>,
    /// RTP payload bytes (media data, typically "encrypted" noise from the
    /// simulator), or raw bytes for non-RTP types.
    pub payload: Vec<u8>,
}

impl Builder {
    /// Total length of the composed UDP payload.
    pub fn buffer_len(&self) -> usize {
        let mut len = 0;
        if self.sfu.is_some() {
            len += SFU_ENCAP_LEN;
        }
        len += self.media.header_len();
        if let Some(rtp) = &self.rtp {
            len += rtp.header_len();
        }
        len + self.payload.len()
    }

    /// Compose into a freshly allocated buffer.
    pub fn build(&self) -> Vec<u8> {
        let mut buf = vec![0u8; self.buffer_len()];
        let mut off = 0;
        if let Some(sfu) = &self.sfu {
            sfu.emit(&mut SfuEncap::new_unchecked(
                &mut buf[off..off + SFU_ENCAP_LEN],
            ));
            off += SFU_ENCAP_LEN;
        }
        off += self.media.emit(&mut buf[off..]);
        if let Some(rtp) = &self.rtp {
            let hl = rtp.header_len();
            rtp.emit(&mut rtp::Packet::new_unchecked(&mut buf[off..off + hl]));
            off += hl;
        }
        buf[off..].copy_from_slice(&self.payload);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn video_builder() -> Builder {
        Builder {
            sfu: Some(SfuEncapRepr {
                encap_type: SFU_TYPE_MEDIA,
                sequence: 77,
                direction: DIR_FROM_SFU,
            }),
            media: MediaEncapRepr {
                media_type: MediaType::Video,
                sequence: 500,
                timestamp: 1_000_000,
                frame_sequence: Some(42),
                packets_in_frame: Some(3),
            },
            rtp: Some(rtp::Repr {
                marker: true,
                payload_type: 98,
                sequence_number: 1234,
                timestamp: 900_000,
                ssrc: 0x21,
                csrc_count: 0,
                has_extension: true,
            }),
            payload: vec![0xAB; 100],
        }
    }

    #[test]
    fn video_roundtrip_server() {
        let buf = video_builder().build();
        let pkt = parse(&buf, buf.len(), Framing::Server).unwrap();
        let sfu = pkt.sfu.unwrap();
        assert_eq!(sfu.sequence, 77);
        assert_eq!(sfu.direction, DIR_FROM_SFU);
        assert_eq!(pkt.media.media_type, MediaType::Video);
        assert_eq!(pkt.media.frame_sequence, Some(42));
        assert_eq!(pkt.media.packets_in_frame, Some(3));
        let rtp = pkt.rtp.unwrap();
        assert_eq!(rtp.sequence_number, 1234);
        assert_eq!(rtp.ssrc, 0x21);
        assert!(rtp.marker);
        assert_eq!(pkt.media_payload_len, 100);
        let kind = RtpPayloadKind::classify(pkt.media.media_type, rtp.payload_type);
        assert_eq!(kind, RtpPayloadKind::VideoMain);
    }

    #[test]
    fn audio_roundtrip_p2p() {
        let b = Builder {
            sfu: None,
            media: MediaEncapRepr {
                media_type: MediaType::Audio,
                sequence: 1,
                timestamp: 2,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: Some(rtp::Repr {
                marker: false,
                payload_type: 99,
                sequence_number: 9,
                timestamp: 160,
                ssrc: 0x31,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![0u8; SILENT_AUDIO_PAYLOAD_LEN],
        };
        let buf = b.build();
        let pkt = parse(&buf, buf.len(), Framing::P2p).unwrap();
        assert!(pkt.sfu.is_none());
        assert_eq!(pkt.media.media_type, MediaType::Audio);
        let pt = pkt.rtp.as_ref().unwrap().payload_type;
        let kind = RtpPayloadKind::classify(pkt.media.media_type, pt);
        assert_eq!(kind, RtpPayloadKind::AudioSilent);
        assert_eq!(pkt.media_payload_len, SILENT_AUDIO_PAYLOAD_LEN);
    }

    #[test]
    fn rtcp_roundtrip() {
        let sr = rtcp::SenderReportRepr {
            ssrc: 0x21,
            info: rtcp::SenderInfo {
                ntp_timestamp: 1,
                rtp_timestamp: 2,
                packet_count: 3,
                octet_count: 4,
            },
            with_sdes: true,
        };
        let mut sr_buf = vec![0u8; sr.buffer_len()];
        sr.emit(&mut sr_buf);
        let b = Builder {
            sfu: Some(SfuEncapRepr {
                encap_type: SFU_TYPE_MEDIA,
                sequence: 5,
                direction: DIR_TO_SFU,
            }),
            media: MediaEncapRepr {
                media_type: MediaType::RtcpSrSdes,
                sequence: 11,
                timestamp: 12,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: None,
            payload: sr_buf.clone(),
        };
        let buf = b.build();
        let pkt = parse(&buf, buf.len(), Framing::Server).unwrap();
        assert_eq!(pkt.media.media_type, MediaType::RtcpSrSdes);
        assert!(!pkt.rtcp.is_empty());
        assert_eq!(pkt.rtcp.sender_report(), Some((0x21, sr.info)));
        // The compound sits behind both encapsulations and re-walks into
        // the items the summary counted.
        let compound = pkt.rtcp_compound(&buf).unwrap();
        assert_eq!(compound, &sr_buf[..]);
        assert_eq!(rtcp::parse_compound(compound).unwrap().len(), 2);

        let p2p = Builder { sfu: None, ..b }.build();
        let pkt = parse(&p2p, p2p.len(), Framing::P2p).unwrap();
        assert_eq!(pkt.rtcp_compound(&p2p), Some(&sr_buf[..]));
        let video = video_builder().build();
        let pkt = parse(&video, video.len(), Framing::Server).unwrap();
        assert_eq!(pkt.rtcp_compound(&video), None);
    }

    #[test]
    fn frame_fields_absent_on_audio() {
        let buf = Builder {
            sfu: None,
            media: MediaEncapRepr {
                media_type: MediaType::Audio,
                sequence: 0,
                timestamp: 0,
                frame_sequence: None,
                packets_in_frame: None,
            },
            rtp: Some(rtp::Repr {
                marker: false,
                payload_type: 112,
                sequence_number: 0,
                timestamp: 0,
                ssrc: 1,
                csrc_count: 0,
                has_extension: false,
            }),
            payload: vec![1, 2, 3],
        }
        .build();
        let encap = MediaEncap::new_checked(&buf[..]).unwrap();
        assert_eq!(encap.frame_sequence(), None);
        assert_eq!(encap.packets_in_frame(), None);
    }

    #[test]
    fn non_media_sfu_type_is_opaque() {
        let mut buf = video_builder().build();
        buf[0] = 0x07; // unknown SFU type
        let pkt = parse(&buf, buf.len(), Framing::Server).unwrap();
        assert!(pkt.rtp.is_none());
        assert_eq!(pkt.media.media_type, MediaType::Other(0));
    }

    #[test]
    fn parse_auto_detects_framing() {
        let server = video_builder().build();
        let (framing, _) = parse_auto(&server, server.len()).unwrap();
        assert_eq!(framing, Framing::Server);

        let mut b = video_builder();
        b.sfu = None;
        let p2p = b.build();
        let (framing, pkt) = parse_auto(&p2p, p2p.len()).unwrap();
        assert_eq!(framing, Framing::P2p);
        assert_eq!(pkt.rtp.unwrap().ssrc, 0x21);
    }

    #[test]
    fn truncated_media_encap() {
        let buf = video_builder().build();
        // Keep SFU encap (8) + 10 bytes of a 24-byte video encap.
        assert_eq!(
            parse(&buf[..18], 18, Framing::Server).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn media_type_table2_offsets() {
        assert_eq!(MediaType::ScreenShare.payload_offset(), Some(27));
        assert_eq!(MediaType::Audio.payload_offset(), Some(19));
        assert_eq!(MediaType::Video.payload_offset(), Some(24));
        assert_eq!(MediaType::RtcpSr.payload_offset(), Some(16));
        assert_eq!(MediaType::RtcpSrSdes.payload_offset(), Some(16));
        assert_eq!(MediaType::Other(30).payload_offset(), None);
    }

    #[test]
    fn payload_kind_table3() {
        use RtpPayloadKind::*;
        assert_eq!(RtpPayloadKind::classify(MediaType::Video, 98), VideoMain);
        assert_eq!(RtpPayloadKind::classify(MediaType::Video, 110), VideoFec);
        assert_eq!(
            RtpPayloadKind::classify(MediaType::Audio, 112),
            AudioSpeaking
        );
        assert_eq!(RtpPayloadKind::classify(MediaType::Audio, 99), AudioSilent);
        assert_eq!(
            RtpPayloadKind::classify(MediaType::Audio, 113),
            AudioUnknownMode
        );
        assert_eq!(RtpPayloadKind::classify(MediaType::Audio, 110), AudioFec);
        assert_eq!(
            RtpPayloadKind::classify(MediaType::ScreenShare, 99),
            ScreenShareMain
        );
        assert_eq!(RtpPayloadKind::classify(MediaType::ScreenShare, 98), Other);
    }

    #[test]
    fn media_type_byte_roundtrip() {
        for b in 0u8..=255 {
            assert_eq!(MediaType::from_byte(b).to_byte(), b);
        }
    }
}

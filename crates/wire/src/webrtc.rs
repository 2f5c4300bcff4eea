//! Native WebRTC wire formats: DTLS record framing and SRTP/SRTCP
//! session headers.
//!
//! WebRTC media travels without any application encapsulation the ZME
//! gives Zoom: after an ICE/STUN exchange the peers run a DTLS handshake
//! on the media 5-tuple and then ship standard RTP/RTCP whose payloads
//! are SRTP-encrypted — the headers stay cleartext (RFC 3711). That is
//! all a passive monitor needs: the RTP header carries SSRC, sequence
//! number, timestamp, and payload type, exactly the fields the
//! analysis-layer estimators consume.
//!
//! This module provides the strict framing checks the
//! [`WebrtcFamily`](crate::family::WebrtcFamily) classifier uses:
//!
//! * [`DtlsRepr`] — the 13-byte DTLS record header (content type,
//!   version, epoch, 48-bit sequence, length), with [`looks_like_dtls`]
//!   as the cheap peek-time signature;
//! * [`SrtpRepr`] — an SRTP packet seen as its cleartext
//!   [`rtp::Repr`] header plus the encrypted payload length;
//! * [`SrtcpRepr`] — the cleartext prefix of an SRTCP compound packet;
//! * [`classify`] — the family's strict DTLS → SRTCP → SRTP decision.
//!
//! None of these can be confused with Zoom framings at the byte level:
//! DTLS content types occupy 20–23 where ZME media-type bytes are
//! 13/15/16/33/34 (and the SFU encapsulation leads with 0x05), and
//! RTP/RTCP version-2 packets start with top bits `10` where every ZME
//! first byte starts `00`. The classifiers therefore never cross-match,
//! which is what keeps Zoom-only traces byte-identical when both
//! families are enabled.

use crate::rtp;
use crate::zoom::MediaType;
use crate::{Error, Result};

/// Length of the DTLS record header (RFC 6347 §4.1).
pub const DTLS_HEADER_LEN: usize = 13;

/// DTLS version major byte (`254` = `0xfe` for every DTLS version).
pub const DTLS_VERSION_MAJOR: u8 = 0xfe;

/// DTLS content type: change_cipher_spec.
pub const DTLS_CHANGE_CIPHER_SPEC: u8 = 20;
/// DTLS content type: alert.
pub const DTLS_ALERT: u8 = 21;
/// DTLS content type: handshake.
pub const DTLS_HANDSHAKE: u8 = 22;
/// DTLS content type: application_data.
pub const DTLS_APPLICATION_DATA: u8 = 23;

/// Authentication-tag length appended to SRTP/SRTCP packets by the
/// default `SRTP_AES128_CM_HMAC_SHA1_80` protection profile.
pub const SRTP_AUTH_TAG_LEN: usize = 10;

/// Minimum bytes of SRTCP cleartext we require: version/type word,
/// length, and the sender SSRC.
pub const SRTCP_MIN_LEN: usize = 8;

/// Fast header signature for a DTLS record: known content type, `0xfe`
/// version major, and a plausible version minor. Used at peek time to
/// tag the batch dispatch class; [`DtlsRepr::parse`] re-validates in
/// full.
pub fn looks_like_dtls(payload: &[u8]) -> bool {
    payload.len() >= DTLS_HEADER_LEN
        && (DTLS_CHANGE_CIPHER_SPEC..=DTLS_APPLICATION_DATA).contains(&payload[0])
        && payload[1] == DTLS_VERSION_MAJOR
        && matches!(payload[2], 0xff | 0xfd)
}

/// Fast header signature for a version-2 RTP packet that is *not* in the
/// RTCP packet-type range (RFC 5761 §4 demultiplexing: a second byte of
/// 192–223 means RTCP).
pub fn looks_like_rtp(payload: &[u8]) -> bool {
    payload.len() >= rtp::HEADER_LEN
        && payload[0] >> 6 == rtp::VERSION
        && !(192..=223).contains(&payload[1])
}

/// Fast header signature for an RTCP packet: version 2 and a packet type
/// in the standard 200–206 range (SR/RR/SDES/BYE/APP/RTPFB/PSFB).
pub fn looks_like_rtcp(payload: &[u8]) -> bool {
    payload.len() >= SRTCP_MIN_LEN
        && payload[0] >> 6 == rtp::VERSION
        && (200..=206).contains(&payload[1])
}

/// Parsed DTLS record header (RFC 6347 §4.1). The record body is
/// ciphertext past the handshake's first flights and is never
/// interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DtlsRepr {
    /// Record content type (20–23).
    pub content_type: u8,
    /// Version minor byte: `0xff` for DTLS 1.0, `0xfd` for DTLS 1.2.
    pub version_minor: u8,
    /// Epoch (increments at each cipher-state change).
    pub epoch: u16,
    /// 48-bit record sequence number within the epoch.
    pub sequence: u64,
    /// Length of the record body in bytes.
    pub length: u16,
}

impl DtlsRepr {
    /// Parse and validate the first DTLS record of a datagram.
    ///
    /// Strict: the content type, version, and the length field (the
    /// record must fit the datagram) are all checked, so arbitrary
    /// payloads essentially never pass — the false-positive rate is what
    /// makes DTLS a safe WebRTC session signal.
    pub fn parse(payload: &[u8]) -> Result<DtlsRepr> {
        if payload.len() < DTLS_HEADER_LEN {
            return Err(Error::Truncated);
        }
        if !(DTLS_CHANGE_CIPHER_SPEC..=DTLS_APPLICATION_DATA).contains(&payload[0])
            || payload[1] != DTLS_VERSION_MAJOR
            || !matches!(payload[2], 0xff | 0xfd)
        {
            return Err(Error::Malformed);
        }
        let epoch = u16::from_be_bytes([payload[3], payload[4]]);
        let sequence = (u64::from(payload[5]) << 40)
            | (u64::from(payload[6]) << 32)
            | (u64::from(payload[7]) << 24)
            | (u64::from(payload[8]) << 16)
            | (u64::from(payload[9]) << 8)
            | u64::from(payload[10]);
        let length = u16::from_be_bytes([payload[11], payload[12]]);
        if DTLS_HEADER_LEN + usize::from(length) > payload.len() {
            return Err(Error::Truncated);
        }
        Ok(DtlsRepr {
            content_type: payload[0],
            version_minor: payload[2],
            epoch,
            sequence,
            length,
        })
    }

    /// Bytes needed to emit this record header plus `length` body bytes.
    pub fn buffer_len(&self) -> usize {
        DTLS_HEADER_LEN + usize::from(self.length)
    }

    /// Emit the record header into `buf` (body bytes are the caller's).
    ///
    /// # Panics
    /// Panics if `buf` is shorter than [`DTLS_HEADER_LEN`].
    pub fn emit(&self, buf: &mut [u8]) {
        buf[0] = self.content_type;
        buf[1] = DTLS_VERSION_MAJOR;
        buf[2] = self.version_minor;
        buf[3..5].copy_from_slice(&self.epoch.to_be_bytes());
        buf[5] = (self.sequence >> 40) as u8;
        buf[6] = (self.sequence >> 32) as u8;
        buf[7] = (self.sequence >> 24) as u8;
        buf[8] = (self.sequence >> 16) as u8;
        buf[9] = (self.sequence >> 8) as u8;
        buf[10] = self.sequence as u8;
        buf[11..13].copy_from_slice(&self.length.to_be_bytes());
    }
}

/// An SRTP packet: the cleartext RTP header plus the length of the
/// encrypted media payload (auth tag excluded).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrtpRepr {
    /// The cleartext RTP header fields.
    pub rtp: rtp::Repr,
    /// Encrypted media bytes between the RTP header and the auth tag.
    pub payload_len: usize,
}

/// Parse an SRTP packet: a strict version-2 RTP header check with the
/// RFC 5761 RTCP range excluded, yielding the header fields and the
/// encrypted payload length — of the `wire_len` bytes the datagram had
/// on the wire, of which `payload` holds the header at least (see
/// [`classify`]).
pub fn parse_srtp(payload: &[u8], wire_len: usize) -> Result<SrtpRepr> {
    if payload.len() >= 2 && (192..=223).contains(&payload[1]) {
        return Err(Error::Malformed); // RTCP range: not an RTP packet
    }
    let pkt = rtp::Packet::new_checked(payload)?;
    let repr = rtp::Repr::parse(&pkt)?;
    let payload_len = pkt.payload_len(wire_len).saturating_sub(SRTP_AUTH_TAG_LEN);
    Ok(SrtpRepr {
        rtp: repr,
        payload_len,
    })
}

/// Cleartext prefix of an SRTCP compound packet: everything after the
/// first SSRC is encrypted, so this is all a passive monitor gets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrtcpRepr {
    /// RTCP packet type of the first (cleartext-headed) packet: 200–206.
    pub packet_type: u8,
    /// Length of the first RTCP packet in bytes (from its length field).
    pub first_packet_len: usize,
    /// Sender SSRC from the first packet.
    pub ssrc: u32,
}

/// Parse the cleartext header of an SRTCP packet: version 2, packet type
/// 200–206, and a length field that fits the datagram (the encrypted
/// remainder, SRTCP index, and auth tag may follow the first packet).
pub fn parse_srtcp(payload: &[u8]) -> Result<SrtcpRepr> {
    if payload.len() < SRTCP_MIN_LEN {
        return Err(Error::Truncated);
    }
    if payload[0] >> 6 != rtp::VERSION || !(200..=206).contains(&payload[1]) {
        return Err(Error::Malformed);
    }
    let words = u16::from_be_bytes([payload[2], payload[3]]);
    let first_packet_len = (usize::from(words) + 1) * 4;
    if first_packet_len > payload.len() {
        return Err(Error::Truncated);
    }
    let ssrc = u32::from_be_bytes([payload[4], payload[5], payload[6], payload[7]]);
    Ok(SrtcpRepr {
        packet_type: payload[1],
        first_packet_len,
        ssrc,
    })
}

/// One parsed WebRTC datagram, as the family classifier hands it to the
/// analysis layer.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pdu {
    /// A DTLS record (handshake, alert, or application data).
    Dtls(DtlsRepr),
    /// An SRTP media packet.
    Srtp(SrtpRepr),
    /// An SRTCP control packet.
    Srtcp(SrtcpRepr),
}

impl Pdu {
    /// Stable lower-case label for metrics and logs.
    pub fn label(&self) -> &'static str {
        match self {
            Pdu::Dtls(_) => "dtls",
            Pdu::Srtp(_) => "srtp",
            Pdu::Srtcp(_) => "srtcp",
        }
    }
}

/// Strict WebRTC classification of a UDP payload: DTLS first (its
/// signature is the strongest), then SRTCP, then SRTP. Errors mean "not
/// WebRTC traffic" — the caller decides whether that counts as a
/// malformed-framing drop (flow known to be a WebRTC session) or simply
/// as unclassified traffic.
///
/// `payload` is what the capture kept of a datagram that was `wire_len`
/// bytes on the wire. DTLS records and SRTCP packets are checked against
/// their own length fields and need all of it; SRTP needs its RTP header
/// (`dissect::analysis_prefix` trims no further than that).
pub fn classify(payload: &[u8], wire_len: usize) -> Result<Pdu> {
    if looks_like_dtls(payload) {
        return DtlsRepr::parse(payload).map(Pdu::Dtls);
    }
    if payload.len() >= 2 && payload[0] >> 6 == rtp::VERSION {
        if (200..=206).contains(&payload[1]) {
            return parse_srtcp(payload).map(Pdu::Srtcp);
        }
        if !(192..=223).contains(&payload[1]) {
            return parse_srtp(payload, wire_len).map(Pdu::Srtp);
        }
    }
    Err(Error::Unsupported)
}

/// Map a WebRTC RTP payload type to the analysis-layer media type, per
/// the common browser/SDK defaults (Opus on 111, PCMU/PCMA/G.722 in the
/// static range, VP8/VP9/H.264 and their RTX/FEC companions in the
/// dynamic video range).
pub fn media_type_for_pt(pt: u8) -> MediaType {
    match pt {
        0 | 8 | 9 | 13 | 63 | 110 | 111 | 126 => MediaType::Audio,
        96..=107 | 112..=125 => MediaType::Video,
        other => MediaType::Other(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtls_record(content_type: u8, len: u16) -> Vec<u8> {
        let repr = DtlsRepr {
            content_type,
            version_minor: 0xfd,
            epoch: 1,
            sequence: 0x0000_0304_0506,
            length: len,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        buf
    }

    fn srtp_packet(pt: u8, marker: bool, payload: usize) -> Vec<u8> {
        let repr = rtp::Repr {
            marker,
            payload_type: pt,
            sequence_number: 42,
            timestamp: 90_000,
            ssrc: 0xABCD_EF01,
            csrc_count: 0,
            has_extension: false,
        };
        let mut buf = vec![0u8; repr.header_len() + payload + SRTP_AUTH_TAG_LEN];
        let mut pkt = rtp::Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut pkt);
        buf
    }

    #[test]
    fn dtls_roundtrip_and_signature() {
        let buf = dtls_record(DTLS_HANDSHAKE, 40);
        assert!(looks_like_dtls(&buf));
        let repr = DtlsRepr::parse(&buf).unwrap();
        assert_eq!(repr.content_type, DTLS_HANDSHAKE);
        assert_eq!(repr.epoch, 1);
        assert_eq!(repr.sequence, 0x0000_0304_0506);
        assert_eq!(repr.length, 40);
        match classify(&buf, buf.len()).unwrap() {
            Pdu::Dtls(d) => assert_eq!(d, repr),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn dtls_rejects_bad_version_type_and_length() {
        let mut buf = dtls_record(DTLS_HANDSHAKE, 4);
        buf[1] = 0x03; // TLS, not DTLS
        assert!(!looks_like_dtls(&buf));
        assert_eq!(DtlsRepr::parse(&buf).unwrap_err(), Error::Malformed);

        let mut buf = dtls_record(DTLS_HANDSHAKE, 4);
        buf[0] = 17; // unknown content type
        assert_eq!(DtlsRepr::parse(&buf).unwrap_err(), Error::Malformed);

        // Length field claims more bytes than the datagram holds.
        let mut buf = dtls_record(DTLS_HANDSHAKE, 4);
        buf[12] = 200;
        assert_eq!(DtlsRepr::parse(&buf).unwrap_err(), Error::Truncated);

        assert_eq!(DtlsRepr::parse(&buf[..5]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn srtp_parse_and_payload_len() {
        let buf = srtp_packet(111, false, 80);
        assert!(looks_like_rtp(&buf));
        let s = parse_srtp(&buf, buf.len()).unwrap();
        assert_eq!(s.rtp.payload_type, 111);
        assert_eq!(s.rtp.ssrc, 0xABCD_EF01);
        assert_eq!(s.payload_len, 80); // auth tag excluded
        match classify(&buf, buf.len()).unwrap() {
            Pdu::Srtp(p) => assert_eq!(p, s),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rtcp_range_excluded_from_rtp() {
        // Marker bit + PT 72 puts the second byte at 200: RTCP range.
        let mut buf = srtp_packet(72, true, 20);
        assert_eq!(buf[1], 200);
        assert!(!looks_like_rtp(&buf));
        assert!(parse_srtp(&buf, buf.len()).is_err());
        // As RTCP, the length field (zeroed by the RTP builder) is 1
        // word = 4 bytes, which fits: it classifies as SRTCP.
        buf[2] = 0;
        buf[3] = 1;
        let r = parse_srtcp(&buf).unwrap();
        assert_eq!(r.packet_type, 200);
        assert!(matches!(classify(&buf, buf.len()).unwrap(), Pdu::Srtcp(_)));
    }

    #[test]
    fn srtcp_rejects_short_and_oversized() {
        let mut buf = vec![0x80, 200, 0, 1, 0, 0, 0, 7];
        let r = parse_srtcp(&buf).unwrap();
        assert_eq!((r.first_packet_len, r.ssrc), (8, 7));
        buf[3] = 9; // 40 bytes claimed, 8 present
        assert_eq!(parse_srtcp(&buf).unwrap_err(), Error::Truncated);
        assert_eq!(parse_srtcp(&[0x80, 200]).unwrap_err(), Error::Truncated);
        assert_eq!(
            parse_srtcp(&[0x80, 99, 0, 0, 0, 0, 0, 0]).unwrap_err(),
            Error::Malformed
        );
    }

    #[test]
    fn zme_bytes_never_classify_as_webrtc() {
        // ZME media-type first bytes and the SFU encapsulation lead byte:
        // none can take the DTLS or RTP branch (top bits are 00).
        for first in [5u8, 13, 15, 16, 33, 34] {
            let mut buf = vec![0u8; 64];
            buf[0] = first;
            assert!(classify(&buf, buf.len()).is_err(), "first byte {first}");
        }
    }

    #[test]
    fn pt_mapping_covers_the_defaults() {
        assert_eq!(media_type_for_pt(111), MediaType::Audio); // Opus
        assert_eq!(media_type_for_pt(0), MediaType::Audio); // PCMU
        assert_eq!(media_type_for_pt(96), MediaType::Video); // VP8
        assert_eq!(media_type_for_pt(98), MediaType::Video); // VP9
        assert_eq!(media_type_for_pt(102), MediaType::Video); // H.264
        assert_eq!(media_type_for_pt(127), MediaType::Other(127));
    }

    #[test]
    fn pdu_labels_are_stable() {
        let (dtls, srtp) = (dtls_record(20, 1), srtp_packet(96, false, 10));
        assert_eq!(classify(&dtls, dtls.len()).unwrap().label(), "dtls");
        assert_eq!(classify(&srtp, srtp.len()).unwrap().label(), "srtp");
    }
}

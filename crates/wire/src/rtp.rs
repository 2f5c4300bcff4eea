//! RTP fixed-header view and emitter (RFC 3550 §5.1).
//!
//! Zoom embeds standard RTP inside its media encapsulation (§4.2.3 of the
//! paper): every media packet carries version 2, a payload type from the
//! small set in Table 3, a 16-bit sequence number, a 32-bit timestamp
//! (90 kHz for video), and a per-meeting SSRC. The marker bit flags the
//! last packet of a frame. CSRC count is always zero in Zoom traffic
//! (evidence of an SFU rather than an MCU), but the parser handles CSRCs
//! and header extensions anyway, because the header-extension path *is*
//! exercised by Zoom video packets.

use crate::{be16, be32, set_be16, set_be32, Error, Result};

/// Fixed RTP header length (before CSRCs and extensions).
pub const HEADER_LEN: usize = 12;

/// The RTP version field value required by RFC 3550.
pub const VERSION: u8 = 2;

/// Zero-copy view of an RTP packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap, validating version and total header length (fixed header +
    /// CSRC list + extension, if flagged).
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Packet { buffer };
        packet.check_len()?;
        Ok(packet)
    }

    /// Validate structural invariants.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != VERSION {
            return Err(Error::Malformed);
        }
        let mut need = HEADER_LEN + usize::from(self.csrc_count()) * 4;
        if data.len() < need {
            return Err(Error::Truncated);
        }
        if self.has_extension() {
            if data.len() < need + 4 {
                return Err(Error::Truncated);
            }
            let ext_words = be16(data, need + 2) as usize;
            need += 4 + ext_words * 4;
            if data.len() < need {
                return Err(Error::Truncated);
            }
        }
        Ok(())
    }

    /// RTP version (2).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 6
    }

    /// Padding flag.
    pub fn has_padding(&self) -> bool {
        self.buffer.as_ref()[0] & 0x20 != 0
    }

    /// Extension flag.
    pub fn has_extension(&self) -> bool {
        self.buffer.as_ref()[0] & 0x10 != 0
    }

    /// CSRC count (always 0 in Zoom traffic).
    pub fn csrc_count(&self) -> u8 {
        self.buffer.as_ref()[0] & 0x0F
    }

    /// Marker bit — set on the last packet of a video frame.
    pub fn marker(&self) -> bool {
        self.buffer.as_ref()[1] & 0x80 != 0
    }

    /// Payload type (Table 3 of the paper: 98/110 video, 99/110/112/113
    /// audio, 99 screen share).
    pub fn payload_type(&self) -> u8 {
        self.buffer.as_ref()[1] & 0x7F
    }

    /// 16-bit sequence number.
    pub fn sequence_number(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// 32-bit media timestamp.
    pub fn timestamp(&self) -> u32 {
        be32(self.buffer.as_ref(), 4)
    }

    /// Synchronization source identifier.
    pub fn ssrc(&self) -> u32 {
        be32(self.buffer.as_ref(), 8)
    }

    /// CSRC list.
    pub fn csrcs(&self) -> Vec<u32> {
        let data = self.buffer.as_ref();
        (0..usize::from(self.csrc_count()))
            .map(|i| be32(data, HEADER_LEN + i * 4))
            .collect()
    }

    /// Extension profile ID, when an extension header is present.
    pub fn extension_profile(&self) -> Option<u16> {
        if !self.has_extension() {
            return None;
        }
        let off = HEADER_LEN + usize::from(self.csrc_count()) * 4;
        Some(be16(self.buffer.as_ref(), off))
    }

    /// Offset where the payload begins (after CSRCs and extension).
    pub fn payload_offset(&self) -> usize {
        let data = self.buffer.as_ref();
        let mut off = HEADER_LEN + usize::from(self.csrc_count()) * 4;
        if self.has_extension() {
            let ext_words = be16(data, off + 2) as usize;
            off += 4 + ext_words * 4;
        }
        off
    }

    /// Payload length of a packet that was `wire_len` bytes on the wire
    /// and whose first bytes — the checked header at least — are in the
    /// buffer. Padding, if flagged, is stripped using the trailing count
    /// octet per RFC 3550 §5.1; that octet is the packet's last, so a
    /// padded packet is only measured right from a complete capture
    /// (`dissect::analysis_prefix` never trims one).
    pub fn payload_len(&self, wire_len: usize) -> usize {
        let data = self.buffer.as_ref();
        let body = wire_len.saturating_sub(self.payload_offset());
        if self.has_padding() && body > 0 && data.len() == wire_len {
            let pad = usize::from(data[wire_len - 1]);
            if pad > 0 && pad <= body {
                return body - pad;
            }
        }
        body
    }

    /// Payload after all headers, padding stripped; the buffer is taken
    /// for the whole packet.
    pub fn payload(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        let start = self.payload_offset();
        &data[start..start + self.payload_len(data.len())]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version, clearing padding/extension/CSRC bits.
    pub fn set_version(&mut self, version: u8) {
        self.buffer.as_mut()[0] = (version & 0x3) << 6;
    }

    /// Set the extension flag.
    pub fn set_has_extension(&mut self, on: bool) {
        let b = &mut self.buffer.as_mut()[0];
        if on {
            *b |= 0x10;
        } else {
            *b &= !0x10;
        }
    }

    /// Set the CSRC count bits.
    pub fn set_csrc_count(&mut self, count: u8) {
        let b = &mut self.buffer.as_mut()[0];
        *b = (*b & !0x0F) | (count & 0x0F);
    }

    /// Set marker bit and payload type together (they share a byte).
    pub fn set_marker_and_payload_type(&mut self, marker: bool, pt: u8) {
        self.buffer.as_mut()[1] = (u8::from(marker) << 7) | (pt & 0x7F);
    }

    /// Set the sequence number.
    pub fn set_sequence_number(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 2, v);
    }

    /// Set the timestamp.
    pub fn set_timestamp(&mut self, v: u32) {
        set_be32(self.buffer.as_mut(), 4, v);
    }

    /// Set the SSRC.
    pub fn set_ssrc(&mut self, v: u32) {
        set_be32(self.buffer.as_mut(), 8, v);
    }
}

/// High-level RTP header representation.
///
/// `has_extension` requests a minimal one-word extension header on emit
/// (profile 0xBEDE, length 1), mimicking Zoom's use of RTP extensions in
/// video packets without modeling their (encrypted) contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Marker bit.
    pub marker: bool,
    /// Payload type.
    pub payload_type: u8,
    /// Sequence number.
    pub sequence_number: u16,
    /// Media timestamp.
    pub timestamp: u32,
    /// Synchronization source.
    pub ssrc: u32,
    /// Number of CSRC entries.
    pub csrc_count: u8,
    /// Extension bit.
    pub has_extension: bool,
}

impl Repr {
    /// Parse a validated view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len()?;
        Ok(Repr {
            marker: packet.marker(),
            payload_type: packet.payload_type(),
            sequence_number: packet.sequence_number(),
            timestamp: packet.timestamp(),
            ssrc: packet.ssrc(),
            csrc_count: packet.csrc_count(),
            has_extension: packet.has_extension(),
        })
    }

    /// Header length on emit (CSRCs are emitted as zeroes).
    pub fn header_len(&self) -> usize {
        HEADER_LEN + usize::from(self.csrc_count) * 4 + if self.has_extension { 8 } else { 0 }
    }

    /// Emit the header into `packet`, whose buffer must hold
    /// [`Repr::header_len`] bytes.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version(VERSION);
        packet.set_csrc_count(self.csrc_count);
        packet.set_has_extension(self.has_extension);
        packet.set_marker_and_payload_type(self.marker, self.payload_type);
        packet.set_sequence_number(self.sequence_number);
        packet.set_timestamp(self.timestamp);
        packet.set_ssrc(self.ssrc);
        let csrc_end = HEADER_LEN + usize::from(self.csrc_count) * 4;
        let buf = packet.buffer.as_mut();
        for b in &mut buf[HEADER_LEN..csrc_end] {
            *b = 0;
        }
        if self.has_extension {
            set_be16(buf, csrc_end, 0xBEDE);
            set_be16(buf, csrc_end + 2, 1);
            set_be32(buf, csrc_end + 4, 0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emit(repr: Repr, payload: &[u8]) -> Vec<u8> {
        let mut buf = vec![0u8; repr.header_len() + payload.len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        let off = repr.header_len();
        buf[off..].copy_from_slice(payload);
        buf
    }

    fn base_repr() -> Repr {
        Repr {
            marker: false,
            payload_type: 98,
            sequence_number: 4321,
            timestamp: 90_000 * 3,
            ssrc: 0x0000_1234,
            csrc_count: 0,
            has_extension: false,
        }
    }

    #[test]
    fn roundtrip_plain() {
        let buf = emit(base_repr(), b"payload");
        let p = Packet::new_checked(&buf[..]).unwrap();
        let r = Repr::parse(&p).unwrap();
        assert_eq!(r, base_repr());
        assert_eq!(p.payload(), b"payload");
        assert_eq!(p.payload_offset(), HEADER_LEN);
    }

    #[test]
    fn roundtrip_with_extension() {
        let repr = Repr {
            has_extension: true,
            marker: true,
            ..base_repr()
        };
        let buf = emit(repr, b"xyz");
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(p.has_extension());
        assert_eq!(p.extension_profile(), Some(0xBEDE));
        assert_eq!(p.payload(), b"xyz");
        assert_eq!(p.payload_offset(), HEADER_LEN + 8);
        assert!(p.marker());
    }

    #[test]
    fn roundtrip_with_csrcs() {
        let repr = Repr {
            csrc_count: 2,
            ..base_repr()
        };
        let buf = emit(repr, b"q");
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.csrc_count(), 2);
        assert_eq!(p.csrcs(), vec![0, 0]);
        assert_eq!(p.payload(), b"q");
    }

    #[test]
    fn version_check_rejects_stun() {
        // A STUN message starts with two zero bits — version 0.
        let buf = [0x00u8; 20];
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn truncated_extension_rejected() {
        let repr = Repr {
            has_extension: true,
            ..base_repr()
        };
        let buf = emit(repr, b"");
        assert_eq!(
            Packet::new_checked(&buf[..14]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn padding_stripped() {
        let mut buf = emit(base_repr(), &[1, 2, 3, 0, 0, 3]);
        buf[0] |= 0x20; // padding flag; last byte says 3 pad bytes
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload(), &[1, 2, 3]);
        assert_eq!(p.payload_len(buf.len()), 3);
    }

    #[test]
    fn payload_len_is_measured_on_the_wire() {
        // The header of a packet that carried 900 bytes of media.
        let header = emit(base_repr(), b"");
        let p = Packet::new_checked(&header[..]).unwrap();
        assert_eq!(p.payload_len(HEADER_LEN + 900), 900);
        assert_eq!(p.payload_len(HEADER_LEN), 0);
        assert!(p.payload().is_empty());
    }

    #[test]
    fn sequence_wraps_are_representable() {
        let repr = Repr {
            sequence_number: u16::MAX,
            timestamp: u32::MAX,
            ..base_repr()
        };
        let buf = emit(repr, b"");
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.sequence_number(), u16::MAX);
        assert_eq!(p.timestamp(), u32::MAX);
    }
}

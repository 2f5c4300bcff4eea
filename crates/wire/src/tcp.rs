//! TCP segment view and emitter (RFC 793).
//!
//! Passive latency estimation ("Method 2" in §5.3 of the paper) matches the
//! sequence numbers of outgoing control-connection segments against the
//! acknowledgment numbers of incoming ones, so the view exposes exactly the
//! fields that estimator needs: ports, SEQ, ACK, flags, and payload length.

use crate::checksum;
use crate::{be16, be32, set_be16, set_be32, Error, Result};
use std::net::Ipv4Addr;

/// Minimum TCP header length (no options).
pub const HEADER_LEN: usize = 20;

/// TCP control flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Flags {
    /// FIN.
    pub fin: bool,
    /// SYN.
    pub syn: bool,
    /// RST.
    pub rst: bool,
    /// PSH.
    pub psh: bool,
    /// ACK.
    pub ack: bool,
    /// URG.
    pub urg: bool,
}

impl Flags {
    /// Build from the low byte of the flags field.
    pub fn from_byte(b: u8) -> Flags {
        Flags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
            urg: b & 0x20 != 0,
        }
    }

    /// Serialize to the low byte of the flags field.
    pub fn to_byte(self) -> u8 {
        let mut b = 0;
        if self.fin {
            b |= 0x01;
        }
        if self.syn {
            b |= 0x02;
        }
        if self.rst {
            b |= 0x04;
        }
        if self.psh {
            b |= 0x08;
        }
        if self.ack {
            b |= 0x10;
        }
        if self.urg {
            b |= 0x20;
        }
        b
    }
}

/// Zero-copy view of a TCP segment.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap, validating header length.
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
        let hl = self.header_len();
        if hl < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if data.len() < hl {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Source port.
    pub fn src_port(&self) -> u16 {
        be16(self.buffer.as_ref(), 0)
    }

    /// Destination port.
    pub fn dst_port(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// Sequence number.
    pub fn seq_number(&self) -> u32 {
        be32(self.buffer.as_ref(), 4)
    }

    /// Acknowledgment number (meaningful only when `flags().ack`).
    pub fn ack_number(&self) -> u32 {
        be32(self.buffer.as_ref(), 8)
    }

    /// Header length in bytes (data offset × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[12] >> 4) * 4
    }

    /// Control flags.
    pub fn flags(&self) -> Flags {
        Flags::from_byte(self.buffer.as_ref()[13])
    }

    /// Receive window.
    pub fn window(&self) -> u16 {
        be16(self.buffer.as_ref(), 14)
    }

    /// Verify the checksum under an IPv4 pseudo header.
    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        let data = self.buffer.as_ref();
        let mut s = checksum::pseudo_header_v4(src, dst, 6, data.len() as u16);
        s.add(data);
        s.finish() == 0
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set source port.
    pub fn set_src_port(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 0, v);
    }

    /// Set destination port.
    pub fn set_dst_port(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 2, v);
    }

    /// Set sequence number.
    pub fn set_seq_number(&mut self, v: u32) {
        set_be32(self.buffer.as_mut(), 4, v);
    }

    /// Set acknowledgment number.
    pub fn set_ack_number(&mut self, v: u32) {
        set_be32(self.buffer.as_mut(), 8, v);
    }

    /// Set data offset (header length in bytes).
    pub fn set_header_len(&mut self, len: usize) {
        debug_assert!(len.is_multiple_of(4) && (HEADER_LEN..=60).contains(&len));
        self.buffer.as_mut()[12] = ((len / 4) as u8) << 4;
    }

    /// Set flags.
    pub fn set_flags(&mut self, f: Flags) {
        self.buffer.as_mut()[13] = f.to_byte();
    }

    /// Set receive window.
    pub fn set_window(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 14, v);
    }
}

/// High-level TCP header representation (options-free emit).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq_number: u32,
    /// Acknowledgment number.
    pub ack_number: u32,
    /// Control flags.
    pub flags: Flags,
    /// Receive window.
    pub window: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Total emitted length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the header; checksum is left zero for the caller to fill.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_seq_number(self.seq_number);
        packet.set_ack_number(self.ack_number);
        packet.set_header_len(HEADER_LEN);
        packet.set_flags(self.flags);
        packet.set_window(self.window);
        set_be16(packet.buffer.as_mut(), 16, 0);
        set_be16(packet.buffer.as_mut(), 18, 0); // urgent pointer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = Repr {
            src_port: 50_123,
            dst_port: 443,
            seq_number: 1_000,
            ack_number: 2_000,
            flags: Flags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            window: 65_535,
            payload_len: 3,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[20..].copy_from_slice(&[1, 2, 3]);
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!((p.src_port(), p.dst_port()), (50_123, 443));
        assert_eq!(p.seq_number(), 1_000);
        assert_eq!(p.ack_number(), 2_000);
        assert!(p.flags().ack && p.flags().psh && !p.flags().syn);
        assert_eq!(p.window(), 65_535);
        assert_eq!(&buf[p.header_len()..], &[1, 2, 3]);
    }

    #[test]
    fn checksum_roundtrip() {
        let src = Ipv4Addr::new(10, 0, 0, 9);
        let dst = Ipv4Addr::new(170, 114, 0, 5);
        let flags = Flags::default();
        let buf = crate::compose::tcp_ipv4_ethernet(src, dst, 51_000, 443, 1, 0, flags, b"abc");
        let segment = &buf[crate::ethernet::HEADER_LEN + crate::ipv4::HEADER_LEN..];
        let p = Packet::new_checked(segment).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
        assert!(!p.verify_checksum_v4(Ipv4Addr::new(10, 0, 0, 8), dst));
    }

    #[test]
    fn options_respected_in_payload() {
        let mut buf = sample();
        buf[12] = 0x60; // header length 24 — beyond buffer only if payload short
        buf.extend_from_slice(&[0, 0, 0, 0]);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.header_len(), 24);
    }

    #[test]
    fn malformed_data_offset() {
        let mut buf = sample();
        buf[12] = 0x10; // header length 4 < 20
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn flags_byte_roundtrip() {
        for b in 0u8..64 {
            assert_eq!(Flags::from_byte(b).to_byte(), b);
        }
    }
}

//! UDP datagram view and emitter (RFC 768).

use crate::checksum;
use crate::{be16, set_be16, Error, Result};
use std::net::Ipv4Addr;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// Zero-copy view of a UDP datagram.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap, validating that the header is there and its length field
    /// covers it. The buffer may hold less than the length field says (a
    /// snap-length capture, a trimmed fragment), in which case
    /// [`payload`](Packet::payload) is the captured part; whether the
    /// field fits the enclosing IP packet is for the caller that knows
    /// that packet's length.
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
        if (self.len() as usize) < HEADER_LEN {
            return Err(Error::Malformed);
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

    /// Length field (header + payload).
    pub fn len(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// True when the length field covers only the header.
    pub fn is_empty(&self) -> bool {
        self.len() as usize == HEADER_LEN
    }

    /// Checksum field (0 means "not computed" for IPv4).
    pub fn checksum(&self) -> u16 {
        be16(self.buffer.as_ref(), 6)
    }

    /// Captured payload bounded by the length field; shorter than the
    /// field says when the capture clipped the datagram.
    pub fn payload(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        let l = self.len() as usize;
        &data[HEADER_LEN..l.min(data.len())]
    }

    /// Verify the checksum under an IPv4 pseudo header. A zero checksum is
    /// accepted as "not present" per RFC 768; a clipped datagram cannot
    /// be verified and fails.
    pub fn verify_checksum_v4(&self, src: Ipv4Addr, dst: Ipv4Addr) -> bool {
        if self.checksum() == 0 {
            return true;
        }
        let l = self.len();
        let Some(datagram) = self.buffer.as_ref().get(..l as usize) else {
            return false;
        };
        let mut s = checksum::pseudo_header_v4(src, dst, 17, l);
        s.add(datagram);
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

    /// Set the length field.
    pub fn set_len(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 4, v);
    }

    /// Zero the checksum field.
    pub fn clear_checksum(&mut self) {
        set_be16(self.buffer.as_mut(), 6, 0);
    }
}

/// High-level UDP header representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Repr {
    /// Total emitted length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit ports and length; the checksum is left zero so callers can fill
    /// it once addresses are known.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_src_port(self.src_port);
        packet.set_dst_port(self.dst_port);
        packet.set_len(self.total_len() as u16);
        packet.clear_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = Repr {
            src_port: 52_000,
            dst_port: 8801,
            payload_len: 5,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[8..].copy_from_slice(b"hello");
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.src_port(), 52_000);
        assert_eq!(p.dst_port(), 8801);
        assert_eq!(p.payload(), b"hello");
    }

    #[test]
    fn checksum_v4_roundtrip() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(3, 7, 35, 1);
        let buf = crate::compose::udp_ipv4_ethernet(src, dst, 52_000, 8801, b"hello");
        let datagram = &buf[crate::ethernet::HEADER_LEN + crate::ipv4::HEADER_LEN..];
        let p = Packet::new_checked(datagram).unwrap();
        assert!(p.verify_checksum_v4(src, dst));
        // Note: swapping src and dst does NOT invalidate the checksum
        // (one's-complement addition is commutative); a different address
        // does.
        assert!(!p.verify_checksum_v4(Ipv4Addr::new(10, 0, 0, 2), dst));
    }

    #[test]
    fn zero_checksum_accepted() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum_v4(Ipv4Addr::UNSPECIFIED, Ipv4Addr::UNSPECIFIED));
    }

    #[test]
    fn bad_len_field() {
        let mut buf = sample();
        buf[4] = 0;
        buf[5] = 4; // len 4 < header
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
        buf[5] = 200; // len beyond buffer: a clipped capture
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!((p.len(), p.payload()), (200, &b"hello"[..]));
        assert_eq!(
            Packet::new_checked(&buf[..7]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn payload_bounded_by_len_field() {
        let mut buf = sample();
        buf.extend_from_slice(&[0xAA; 4]); // padding beyond UDP length
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload(), b"hello");
    }
}

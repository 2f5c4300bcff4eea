//! IPv6 packet view and emitter (RFC 8200, fixed header only).
//!
//! Zoom traffic on the campus trace is overwhelmingly IPv4, but border taps
//! see both families, so the dissector must at least parse the fixed IPv6
//! header and hand UDP/TCP payloads up the stack. Extension headers are
//! reported as [`crate::Error::Unsupported`] rather than mis-parsed.

use crate::ipv4::Protocol;
use crate::{be16, set_be16, Error, Result};
use std::net::Ipv6Addr;

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// Zero-copy view of an IPv6 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap, validating that the fixed header is there and says version 6.
    /// The buffer may hold less than `payload_len` bytes behind it (a
    /// snap-length capture, a trimmed fragment), in which case
    /// [`payload`](Packet::payload) is the captured part.
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
        if self.version() != 6 {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// IP version (must be 6).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Traffic-class byte.
    pub fn traffic_class(&self) -> u8 {
        let d = self.buffer.as_ref();
        (d[0] << 4) | (d[1] >> 4)
    }

    /// Payload length field.
    pub fn payload_len(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// Next-header field, mapped onto the shared [`Protocol`] enum.
    pub fn next_header(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[6])
    }

    /// Hop limit.
    pub fn hop_limit(&self) -> u8 {
        self.buffer.as_ref()[7]
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buffer.as_ref()[8..24]);
        Ipv6Addr::from(o)
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv6Addr {
        let mut o = [0u8; 16];
        o.copy_from_slice(&self.buffer.as_ref()[24..40]);
        Ipv6Addr::from(o)
    }

    /// Captured payload bounded by the payload-length field; shorter than
    /// that field says when the capture clipped the packet.
    pub fn payload(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        let end = HEADER_LEN + self.payload_len() as usize;
        &data[HEADER_LEN..end.min(data.len())]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version 6 with zero traffic class and flow label.
    pub fn set_version(&mut self) {
        let d = self.buffer.as_mut();
        d[0] = 0x60;
        d[1] = 0;
        d[2] = 0;
        d[3] = 0;
    }

    /// Set payload length.
    pub fn set_payload_len(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 4, v);
    }

    /// Set next header.
    pub fn set_next_header(&mut self, v: Protocol) {
        self.buffer.as_mut()[6] = v.into();
    }

    /// Set hop limit.
    pub fn set_hop_limit(&mut self, v: u8) {
        self.buffer.as_mut()[7] = v;
    }

    /// Set source address.
    pub fn set_src_addr(&mut self, v: Ipv6Addr) {
        self.buffer.as_mut()[8..24].copy_from_slice(&v.octets());
    }

    /// Set destination address.
    pub fn set_dst_addr(&mut self, v: Ipv6Addr) {
        self.buffer.as_mut()[24..40].copy_from_slice(&v.octets());
    }

    /// Mutable payload slice.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        let pl = self.payload_len() as usize;
        &mut self.buffer.as_mut()[HEADER_LEN..HEADER_LEN + pl]
    }
}

/// High-level IPv6 header representation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv6Addr,
    /// Destination address.
    pub dst_addr: Ipv6Addr,
    /// Next-header (payload protocol) field.
    pub next_header: Protocol,
    /// Payload length in bytes.
    pub payload_len: usize,
    /// Hop limit.
    pub hop_limit: u8,
}

impl Repr {
    /// Parse a validated view. Extension headers (hop-by-hop, routing,
    /// fragment...) are flagged `Unsupported`.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len()?;
        match packet.next_header() {
            Protocol::Udp | Protocol::Tcp | Protocol::Icmp => {}
            Protocol::Unknown(0)
            | Protocol::Unknown(43)
            | Protocol::Unknown(44)
            | Protocol::Unknown(60) => return Err(Error::Unsupported),
            Protocol::Unknown(_) => {}
        }
        Ok(Repr {
            src_addr: packet.src_addr(),
            dst_addr: packet.dst_addr(),
            next_header: packet.next_header(),
            payload_len: packet.payload_len() as usize,
            hop_limit: packet.hop_limit(),
        })
    }

    /// Emitted header length.
    pub fn header_len(&self) -> usize {
        HEADER_LEN
    }

    /// Total emitted length.
    pub fn total_len(&self) -> usize {
        HEADER_LEN + self.payload_len
    }

    /// Emit the fixed header.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version();
        packet.set_payload_len(self.payload_len as u16);
        packet.set_next_header(self.next_header);
        packet.set_hop_limit(self.hop_limit);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = Repr {
            src_addr: "2001:db8::1".parse().unwrap(),
            dst_addr: "2001:db8::2".parse().unwrap(),
            next_header: Protocol::Udp,
            payload_len: 3,
            hop_limit: 64,
        };
        let mut buf = vec![0u8; repr.total_len()];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[40..].copy_from_slice(&[9, 8, 7]);
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        let r = Repr::parse(&p).unwrap();
        assert_eq!(r.src_addr, "2001:db8::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(r.next_header, Protocol::Udp);
        assert_eq!(p.payload(), &[9, 8, 7]);
    }

    #[test]
    fn version_check() {
        let mut buf = sample();
        buf[0] = 0x40;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn extension_headers_unsupported() {
        let mut buf = sample();
        buf[6] = 0; // hop-by-hop
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(Repr::parse(&p).unwrap_err(), Error::Unsupported);
    }

    #[test]
    fn cut_mid_header_rejected_cut_mid_payload_clipped() {
        let buf = sample();
        assert_eq!(
            Packet::new_checked(&buf[..39]).unwrap_err(),
            Error::Truncated
        );
        let p = Packet::new_checked(&buf[..41]).unwrap();
        assert_eq!(p.payload_len(), 3);
        assert_eq!(p.payload(), &[9]);
    }
}

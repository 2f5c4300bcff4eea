//! IPv4 packet view and emitter (RFC 791).

use crate::checksum;
use crate::{be16, set_be16, Error, Result};
use std::net::Ipv4Addr;

/// Minimum IPv4 header length (no options).
pub const HEADER_LEN: usize = 20;

/// IP protocol numbers this crate cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Any other protocol number, carried verbatim.
    Unknown(u8),
}

impl From<u8> for Protocol {
    fn from(v: u8) -> Self {
        match v {
            1 => Protocol::Icmp,
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            other => Protocol::Unknown(other),
        }
    }
}

impl From<Protocol> for u8 {
    fn from(v: Protocol) -> u8 {
        match v {
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Unknown(other) => other,
        }
    }
}

/// Zero-copy view of an IPv4 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap a buffer, validating version, header length, and total length.
    /// The buffer must hold the whole header; it may hold less than
    /// `total_len` bytes (a snap-length capture, a trimmed fragment), in
    /// which case [`payload`](Packet::payload) is the captured part.
    pub fn new_checked(buffer: T) -> Result<Self> {
        let packet = Packet { buffer };
        packet.check_len()?;
        Ok(packet)
    }

    /// Validate structural invariants without consuming the view.
    pub fn check_len(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != 4 {
            return Err(Error::Malformed);
        }
        let hl = self.header_len();
        if hl < HEADER_LEN {
            return Err(Error::Malformed);
        }
        if data.len() < hl || (self.total_len() as usize) < hl {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// IP version (must be 4).
    pub fn version(&self) -> u8 {
        self.buffer.as_ref()[0] >> 4
    }

    /// Header length in bytes (IHL × 4).
    pub fn header_len(&self) -> usize {
        usize::from(self.buffer.as_ref()[0] & 0x0F) * 4
    }

    /// Total length field (header plus payload).
    pub fn total_len(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// Next-level protocol.
    pub fn protocol(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[9])
    }

    /// Source address.
    pub fn src_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[12], d[13], d[14], d[15])
    }

    /// Destination address.
    pub fn dst_addr(&self) -> Ipv4Addr {
        let d = self.buffer.as_ref();
        Ipv4Addr::new(d[16], d[17], d[18], d[19])
    }

    /// Verify the header checksum.
    pub fn verify_checksum(&self) -> bool {
        let hl = self.header_len();
        checksum::verify(&self.buffer.as_ref()[..hl])
    }

    /// Captured payload as bounded by `total_len` (trailing link padding
    /// excluded); shorter than `total_len - header_len` when the capture
    /// clipped the packet.
    pub fn payload(&self) -> &[u8] {
        let data = self.buffer.as_ref();
        let hl = self.header_len();
        let tl = self.total_len() as usize;
        &data[hl..tl.min(data.len())]
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set version to 4 and IHL to `len / 4`.
    pub fn set_version_and_header_len(&mut self, len: usize) {
        debug_assert!(len.is_multiple_of(4) && (HEADER_LEN..=60).contains(&len));
        self.buffer.as_mut()[0] = 0x40 | (len / 4) as u8;
    }

    /// Set DSCP/ECN.
    pub fn set_dscp_ecn(&mut self, v: u8) {
        self.buffer.as_mut()[1] = v;
    }

    /// Set total length.
    pub fn set_total_len(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 2, v);
    }

    /// Set identification.
    pub fn set_ident(&mut self, v: u16) {
        set_be16(self.buffer.as_mut(), 4, v);
    }

    /// Set flags and fragment offset to "don't fragment".
    pub fn set_dont_frag(&mut self) {
        self.buffer.as_mut()[6] = 0x40;
        self.buffer.as_mut()[7] = 0;
    }

    /// Set TTL.
    pub fn set_ttl(&mut self, v: u8) {
        self.buffer.as_mut()[8] = v;
    }

    /// Set protocol.
    pub fn set_protocol(&mut self, v: Protocol) {
        self.buffer.as_mut()[9] = v.into();
    }

    /// Set source address.
    pub fn set_src_addr(&mut self, v: Ipv4Addr) {
        self.buffer.as_mut()[12..16].copy_from_slice(&v.octets());
    }

    /// Set destination address.
    pub fn set_dst_addr(&mut self, v: Ipv4Addr) {
        self.buffer.as_mut()[16..20].copy_from_slice(&v.octets());
    }

    /// Zero then recompute the header checksum.
    pub fn fill_checksum(&mut self) {
        let hl = self.header_len();
        let buf = self.buffer.as_mut();
        buf[10] = 0;
        buf[11] = 0;
        let c = checksum::checksum(&buf[..hl]);
        set_be16(buf, 10, c);
    }
}

/// High-level IPv4 header representation (options-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Source address.
    pub src_addr: Ipv4Addr,
    /// Destination address.
    pub dst_addr: Ipv4Addr,
    /// Payload protocol.
    pub protocol: Protocol,
    /// Payload length in bytes (total length minus header).
    pub payload_len: usize,
    /// Time to live.
    pub ttl: u8,
    /// DSCP/ECN byte.
    pub dscp_ecn: u8,
    /// Identification field.
    pub ident: u16,
}

impl Repr {
    /// Emit header fields and compute the checksum.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_version_and_header_len(HEADER_LEN);
        packet.set_dscp_ecn(self.dscp_ecn);
        packet.set_total_len((HEADER_LEN + self.payload_len) as u16);
        packet.set_ident(self.ident);
        packet.set_dont_frag();
        packet.set_ttl(self.ttl);
        packet.set_protocol(self.protocol);
        packet.set_src_addr(self.src_addr);
        packet.set_dst_addr(self.dst_addr);
        packet.fill_checksum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let repr = Repr {
            src_addr: Ipv4Addr::new(10, 8, 0, 1),
            dst_addr: Ipv4Addr::new(52, 202, 62, 17),
            protocol: Protocol::Udp,
            payload_len: 4,
            ttl: 64,
            dscp_ecn: 0,
            ident: 0x1234,
        };
        let mut buf = vec![0u8; HEADER_LEN + repr.payload_len];
        repr.emit(&mut Packet::new_unchecked(&mut buf[..]));
        buf[20..].copy_from_slice(&[1, 2, 3, 4]);
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(p.verify_checksum());
        assert_eq!(p.src_addr(), Ipv4Addr::new(10, 8, 0, 1));
        assert_eq!(p.dst_addr(), Ipv4Addr::new(52, 202, 62, 17));
        assert_eq!(p.protocol(), Protocol::Udp);
        assert_eq!(p.payload(), &[1, 2, 3, 4]);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = sample();
        buf[0] = 0x65; // version 6
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn cut_mid_header_rejected_cut_mid_payload_clipped() {
        let buf = sample();
        assert_eq!(
            Packet::new_checked(&buf[..19]).unwrap_err(),
            Error::Truncated
        );
        // Two of the four payload bytes captured: lengths come from the
        // header, the slice from what is there.
        let p = Packet::new_checked(&buf[..22]).unwrap();
        assert_eq!(p.total_len(), 24);
        assert_eq!(p.payload(), &[1, 2]);
        // A total length below the header length is still refused.
        let mut short = sample();
        short[3] = 19;
        assert_eq!(
            Packet::new_checked(&short[..]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn bad_ihl_rejected() {
        let mut buf = sample();
        buf[0] = 0x43; // IHL 12 bytes < 20
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn checksum_flip_detected() {
        let mut buf = sample();
        buf[12] ^= 0x80;
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert!(!p.verify_checksum());
    }

    #[test]
    fn payload_excludes_link_padding() {
        let mut buf = sample();
        buf.extend_from_slice(&[0u8; 10]); // Ethernet trailer padding
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.payload().len(), 4);
    }

    #[test]
    fn protocol_conversion() {
        assert_eq!(Protocol::from(17u8), Protocol::Udp);
        assert_eq!(u8::from(Protocol::Unknown(250)), 250);
    }
}

//! IPv6 packet view (RFC 8200, fixed header only).
//!
//! Zoom traffic on the campus trace is overwhelmingly IPv4, but border taps
//! see both families, so the dissector must at least parse the fixed IPv6
//! header and hand UDP/TCP payloads up the stack. Extension headers are not
//! walked: the dissector reports a next header that is neither UDP nor TCP
//! as [`crate::Error::Unsupported`] rather than mis-parsing it.

use crate::ipv4::Protocol;
use crate::{be16, Error, Result};
use std::net::Ipv6Addr;

/// Fixed IPv6 header length.
pub const HEADER_LEN: usize = 40;

/// Zero-copy view of an IPv6 packet.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap, validating that the fixed header is there and says version 6.
    /// The buffer may hold less than `payload_len` bytes behind it (a
    /// snap-length capture, a trimmed fragment).
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

    /// Payload length field.
    pub fn payload_len(&self) -> u16 {
        be16(self.buffer.as_ref(), 4)
    }

    /// Next-header field, mapped onto the shared [`Protocol`] enum.
    pub fn next_header(&self) -> Protocol {
        Protocol::from(self.buffer.as_ref()[6])
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
}

/// The fixed header of `payload_len` bytes of `next_header` from `src` to
/// `dst`, hop limit 64: the IPv6 packets of the tests.
#[cfg(test)]
pub(crate) fn test_header(
    src: Ipv6Addr,
    dst: Ipv6Addr,
    next_header: Protocol,
    payload_len: u16,
) -> Vec<u8> {
    let mut h = vec![0u8; HEADER_LEN];
    h[0] = 0x60;
    h[4..6].copy_from_slice(&payload_len.to_be_bytes());
    h[6] = next_header.into();
    h[7] = 64;
    h[8..24].copy_from_slice(&src.octets());
    h[24..40].copy_from_slice(&dst.octets());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let src = "2001:db8::1".parse().unwrap();
        let dst = "2001:db8::2".parse().unwrap();
        let mut buf = test_header(src, dst, Protocol::Udp, 3);
        buf.extend_from_slice(&[9, 8, 7]);
        buf
    }

    #[test]
    fn emit_parse_roundtrip() {
        let buf = sample();
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.src_addr(), "2001:db8::1".parse::<Ipv6Addr>().unwrap());
        assert_eq!(p.dst_addr(), "2001:db8::2".parse::<Ipv6Addr>().unwrap());
        assert_eq!(p.next_header(), Protocol::Udp);
        assert_eq!(p.payload_len(), 3);
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
        assert!(Packet::new_checked(&buf[..]).is_ok());
        let err = crate::dissect::peek(&buf, crate::pcap::LinkType::RawIp).unwrap_err();
        assert_eq!(err, Error::Unsupported);
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
    }
}

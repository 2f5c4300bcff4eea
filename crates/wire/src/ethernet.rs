//! Ethernet II frame view and emitter.

use crate::{be16, set_be16, Error, Result};
use std::fmt;

/// Length of the Ethernet II header: two MAC addresses plus the EtherType.
pub const HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Address(pub [u8; 6]);

impl fmt::Display for Address {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            a[0], a[1], a[2], a[3], a[4], a[5]
        )
    }
}

/// EtherType values this crate understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// IPv6 (0x86DD).
    Ipv6,
    /// ARP (0x0806).
    Arp,
    /// Anything else, carried verbatim.
    Unknown(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x86DD => EtherType::Ipv6,
            0x0806 => EtherType::Arp,
            other => EtherType::Unknown(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(v: EtherType) -> u16 {
        match v {
            EtherType::Ipv4 => 0x0800,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Arp => 0x0806,
            EtherType::Unknown(other) => other,
        }
    }
}

/// Zero-copy view of an Ethernet II frame.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without validating its length.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap a buffer, rejecting anything shorter than the fixed header.
    pub fn new_checked(buffer: T) -> Result<Self> {
        if buffer.as_ref().len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        Ok(Packet { buffer })
    }

    /// Destination MAC address.
    pub fn dst_addr(&self) -> Address {
        let d = self.buffer.as_ref();
        let mut a = [0u8; 6];
        a.copy_from_slice(&d[0..6]);
        Address(a)
    }

    /// Source MAC address.
    pub fn src_addr(&self) -> Address {
        let d = self.buffer.as_ref();
        let mut a = [0u8; 6];
        a.copy_from_slice(&d[6..12]);
        Address(a)
    }

    /// EtherType field.
    pub fn ethertype(&self) -> EtherType {
        EtherType::from(be16(self.buffer.as_ref(), 12))
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the destination MAC address.
    pub fn set_dst_addr(&mut self, addr: Address) {
        self.buffer.as_mut()[0..6].copy_from_slice(&addr.0);
    }

    /// Set the source MAC address.
    pub fn set_src_addr(&mut self, addr: Address) {
        self.buffer.as_mut()[6..12].copy_from_slice(&addr.0);
    }

    /// Set the EtherType field.
    pub fn set_ethertype(&mut self, ethertype: EtherType) {
        set_be16(self.buffer.as_mut(), 12, ethertype.into());
    }
}

/// High-level representation of an Ethernet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Destination MAC address.
    pub dst_addr: Address,
    /// Source MAC address.
    pub src_addr: Address,
    /// Payload EtherType.
    pub ethertype: EtherType,
}

impl Repr {
    /// Parse a validated packet view into a representation.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Repr {
        Repr {
            dst_addr: packet.dst_addr(),
            src_addr: packet.src_addr(),
            ethertype: packet.ethertype(),
        }
    }

    /// Emit into the header portion of `packet`.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(&self, packet: &mut Packet<T>) {
        packet.set_dst_addr(self.dst_addr);
        packet.set_src_addr(self.src_addr);
        packet.set_ethertype(self.ethertype);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static FRAME: [u8; 18] = [
        0x02, 0x00, 0x00, 0x00, 0x00, 0x01, // dst
        0x02, 0x00, 0x00, 0x00, 0x00, 0x02, // src
        0x08, 0x00, // IPv4
        0xDE, 0xAD, 0xBE, 0xEF, // payload
    ];

    #[test]
    fn parse_fields() {
        let p = Packet::new_checked(&FRAME[..]).unwrap();
        assert_eq!(p.dst_addr(), Address([0x02, 0, 0, 0, 0, 1]));
        assert_eq!(p.src_addr(), Address([0x02, 0, 0, 0, 0, 2]));
        assert_eq!(p.ethertype(), EtherType::Ipv4);
        assert_eq!(&FRAME[HEADER_LEN..], &[0xDE, 0xAD, 0xBE, 0xEF]);
    }

    #[test]
    fn too_short_is_truncated() {
        assert_eq!(
            Packet::new_checked(&FRAME[..13]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn emit_roundtrip() {
        let repr = Repr {
            dst_addr: Address([0xFF; 6]),
            src_addr: Address([1, 2, 3, 4, 5, 6]),
            ethertype: EtherType::Ipv6,
        };
        let mut buf = [0u8; HEADER_LEN];
        let mut p = Packet::new_unchecked(&mut buf[..]);
        repr.emit(&mut p);
        let parsed = Repr::parse(&Packet::new_checked(&buf[..]).unwrap());
        assert_eq!(parsed, repr);
    }

    #[test]
    fn ethertype_unknown_roundtrip() {
        let t = EtherType::from(0x1234);
        assert_eq!(t, EtherType::Unknown(0x1234));
        assert_eq!(u16::from(t), 0x1234);
    }

    #[test]
    fn display_mac() {
        assert_eq!(
            Address([0xde, 0xad, 0xbe, 0xef, 0x00, 0x01]).to_string(),
            "de:ad:be:ef:00:01"
        );
    }
}

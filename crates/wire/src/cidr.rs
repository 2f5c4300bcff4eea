//! IPv4 CIDR prefixes: the campus networks, the excluded subnets and
//! Zoom's published server networks, as the capture filter and the
//! analyzer both name them.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};
use std::str::FromStr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cidr {
    address: Ipv4Addr,
    prefix_len: u8,
}

/// Error parsing a CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCidrError(pub String);

impl fmt::Display for ParseCidrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR: {}", self.0)
    }
}

impl std::error::Error for ParseCidrError {}

impl Cidr {
    /// Construct, masking the address down to the prefix. Panics if
    /// `prefix_len > 32` (a programming error, not input).
    pub fn new(address: Ipv4Addr, prefix_len: u8) -> Cidr {
        assert!(prefix_len <= 32, "prefix length out of range");
        let masked = u32::from(address) & Self::mask_bits(prefix_len);
        Cidr {
            address: Ipv4Addr::from(masked),
            prefix_len,
        }
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// Network address (already masked).
    pub fn address(&self) -> Ipv4Addr {
        self.address
    }

    /// Prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// First and last covered address, as integers.
    pub fn range(&self) -> (u32, u32) {
        let start = u32::from(self.address);
        (start, start | !Self::mask_bits(self.prefix_len))
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_bits(self.prefix_len) == u32::from(self.address)
    }

    /// Membership test accepting either address family; IPv6 never
    /// matches (the paper's campus capture is IPv4).
    #[inline]
    pub fn contains_addr(&self, ip: IpAddr) -> bool {
        match ip {
            IpAddr::V4(v4) => self.contains(v4),
            IpAddr::V6(_) => false,
        }
    }

    /// The `i`-th address within the prefix (wraps if out of range, which
    /// callers avoid by bounding on [`Cidr::size`]).
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.address).wrapping_add(i as u32))
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.address, self.prefix_len)
    }
}

impl FromStr for Cidr {
    type Err = ParseCidrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| ParseCidrError(s.into()))?;
        let address: Ipv4Addr = addr.parse().map_err(|_| ParseCidrError(s.into()))?;
        let prefix_len: u8 = len.parse().map_err(|_| ParseCidrError(s.into()))?;
        if prefix_len > 32 {
            return Err(ParseCidrError(s.into()));
        }
        Ok(Cidr::new(address, prefix_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let c: Cidr = "10.8.0.0/16".parse().unwrap();
        assert_eq!(c.to_string(), "10.8.0.0/16");
        assert_eq!(c.prefix_len(), 16);
        assert_eq!(c.size(), 65_536);
    }

    #[test]
    fn address_is_masked() {
        let c: Cidr = "10.8.7.6/16".parse().unwrap();
        assert_eq!(c.address(), Ipv4Addr::new(10, 8, 0, 0));
        assert_eq!(c.range(), (0x0A08_0000, 0x0A08_FFFF));
    }

    #[test]
    fn parse_errors() {
        assert!("10.8.0.0".parse::<Cidr>().is_err());
        assert!("10.8.0.0/33".parse::<Cidr>().is_err());
        assert!("zoom/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn contains() {
        let c: Cidr = "192.168.1.0/24".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(192, 168, 1, 200)));
        assert!(!c.contains(Ipv4Addr::new(192, 168, 2, 1)));
    }

    #[test]
    fn zero_prefix_matches_everything() {
        let c: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(c.size(), 1 << 32);
        assert_eq!(c.range(), (0, u32::MAX));
    }

    #[test]
    fn nth_enumerates() {
        let c: Cidr = "10.0.0.0/30".parse().unwrap();
        assert_eq!(c.nth(3), Ipv4Addr::new(10, 0, 0, 3));
    }

    #[test]
    fn ipv6_never_matches() {
        let c: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(!c.contains_addr("2001:db8::1".parse().unwrap()));
        assert!(c.contains_addr("1.2.3.4".parse().unwrap()));
    }
}

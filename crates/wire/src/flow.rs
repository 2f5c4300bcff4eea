//! Flow vocabulary shared by the capture pipeline and the analyzer.

use crate::ipv4::Protocol;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

/// An IP 5-tuple identifying one direction of a transport flow.
///
/// `Hash` is written by hand: the per-packet flow table hashes one of
/// these for every classified record, and the derived impl feeds a
/// hasher eleven separate writes (enum discriminants, slice length
/// prefixes, four-byte address slices, …). The hand-written one packs
/// the same fields into two words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IP address.
    pub src_ip: IpAddr,
    /// Destination IP address.
    pub dst_ip: IpAddr,
    /// Source transport port.
    pub src_port: u16,
    /// Destination transport port.
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl Hash for FiveTuple {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let (addrs, rest) = self.hash_words();
        state.write_u64(addrs);
        state.write_u64(rest);
    }
}

impl FiveTuple {
    /// The tuple packed into the two words its `Hash` impl writes:
    /// both addresses in the first (IPv6 addresses folded to 32 bits
    /// each — equal tuples still give equal words, which is all `Hash`
    /// needs), ports and protocol in the second. The first word's low
    /// half is `src ^ dst`, not `dst` alone: a multiplicative hasher
    /// carries entropy upwards only, and one direction of server traffic
    /// holds either address constant.
    #[inline]
    fn hash_words(&self) -> (u64, u64) {
        #[inline]
        fn fold(ip: IpAddr) -> u64 {
            match ip {
                IpAddr::V4(a) => u64::from(u32::from(a)),
                IpAddr::V6(a) => {
                    let bits = u128::from(a);
                    let half = (bits >> 64) as u64 ^ bits as u64;
                    (half >> 32) ^ (half & 0xFFFF_FFFF)
                }
            }
        }
        let (src, dst) = (fold(self.src_ip), fold(self.dst_ip));
        (
            src << 32 | (src ^ dst),
            u64::from(u8::from(self.protocol)) << 32
                | u64::from(self.src_port) << 16
                | u64::from(self.dst_port),
        )
    }

    /// The same flow seen in the opposite direction.
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A direction-independent key: the smaller (ip, port) endpoint first.
    /// Useful for grouping both directions of a conversation.
    pub fn canonical(&self) -> FiveTuple {
        if (self.src_ip, self.src_port) <= (self.dst_ip, self.dst_port) {
            *self
        } else {
            self.reversed()
        }
    }

    /// True if either endpoint uses the given port.
    pub fn involves_port(&self, port: u16) -> bool {
        self.src_port == port || self.dst_port == port
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let proto = match self.protocol {
            Protocol::Udp => "udp",
            Protocol::Tcp => "tcp",
            Protocol::Icmp => "icmp",
            Protocol::Unknown(n) => {
                return write!(
                    f,
                    "ip[{n}] {}:{} > {}:{}",
                    self.src_ip, self.src_port, self.dst_ip, self.dst_port
                )
            }
        };
        write!(
            f,
            "{proto} {}:{} > {}:{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// An (address, port) endpoint — the key used by the paper's stateful P2P
/// detection registers (§4.1) and the meeting-grouping heuristic (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IP address.
    pub ip: IpAddr,
    /// Transport port.
    pub port: u16,
}

impl Endpoint {
    /// Construct from parts.
    pub fn new(ip: IpAddr, port: u16) -> Self {
        Endpoint { ip, port }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.ip, self.port)
    }
}

impl FiveTuple {
    /// Source endpoint.
    pub fn src(&self) -> Endpoint {
        Endpoint::new(self.src_ip, self.src_port)
    }

    /// Destination endpoint.
    pub fn dst(&self) -> Endpoint {
        Endpoint::new(self.dst_ip, self.dst_port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn t() -> FiveTuple {
        FiveTuple {
            src_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 1)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(3, 7, 35, 1)),
            src_port: 51_000,
            dst_port: 8801,
            protocol: Protocol::Udp,
        }
    }

    #[test]
    fn reverse_is_involutive() {
        assert_eq!(t().reversed().reversed(), t());
    }

    #[test]
    fn canonical_is_direction_independent() {
        assert_eq!(t().canonical(), t().reversed().canonical());
    }

    #[test]
    fn involves_port() {
        assert!(t().involves_port(8801));
        assert!(t().involves_port(51_000));
        assert!(!t().involves_port(3478));
    }

    #[test]
    fn endpoints() {
        assert_eq!(t().src().port, 51_000);
        assert_eq!(t().dst().ip, IpAddr::V4(Ipv4Addr::new(3, 7, 35, 1)));
    }

    #[test]
    fn hash_words_cover_every_field() {
        let base = t();
        let mut variants = vec![base, base.reversed()];
        variants.push(FiveTuple {
            src_port: 51_001,
            ..base
        });
        variants.push(FiveTuple {
            dst_port: 8802,
            ..base
        });
        variants.push(FiveTuple {
            protocol: Protocol::Tcp,
            ..base
        });
        variants.push(FiveTuple {
            src_ip: IpAddr::V4(Ipv4Addr::new(10, 0, 0, 2)),
            ..base
        });
        variants.push(FiveTuple {
            dst_ip: IpAddr::V4(Ipv4Addr::new(3, 7, 35, 2)),
            ..base
        });
        let v6 =
            |last: u16| IpAddr::V6(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, last));
        variants.push(FiveTuple {
            src_ip: v6(1),
            dst_ip: v6(2),
            ..base
        });
        variants.push(FiveTuple {
            src_ip: v6(2),
            dst_ip: v6(1),
            ..base
        });
        let words: std::collections::HashSet<(u64, u64)> =
            variants.iter().map(FiveTuple::hash_words).collect();
        assert_eq!(
            words.len(),
            variants.len(),
            "a field does not reach the hash"
        );
        // Equal tuples hash equally (the `Hash`/`Eq` contract).
        assert_eq!(base.hash_words(), t().hash_words());
    }

    #[test]
    fn display_contains_parts() {
        let s = t().to_string();
        assert!(s.contains("udp") && s.contains("8801"));
    }
}

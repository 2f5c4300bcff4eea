//! Whole-packet composition helpers.
//!
//! The simulator and tests need complete, checksummed Ethernet/IPv4/UDP and
//! TCP packets; these helpers stack the per-layer emitters so callers only
//! provide addresses, ports, and the application payload. The header
//! writers take the payload's length and one's-complement sum instead of
//! its bytes, so a caller that builds the payload itself — or sends one
//! payload in many packets — sums it once and copies it once.

use crate::checksum::{self, Summer};
use crate::ethernet::{self, Address, EtherType};
use crate::ipv4::{self, Protocol};
use crate::tcp;
use crate::udp;
use std::net::Ipv4Addr;

/// Derive a stable, locally administered MAC from an IPv4 address so that
/// synthetic traces look plausible in Wireshark.
pub fn mac_for_ip(ip: Ipv4Addr) -> Address {
    let o = ip.octets();
    Address([0x02, 0x00, o[0], o[1], o[2], o[3]])
}

/// Length of the Ethernet, IPv4 and UDP headers in front of a UDP payload.
pub const UDP_HEADERS_LEN: usize = ethernet::HEADER_LEN + ipv4::HEADER_LEN + udp::HEADER_LEN;
/// Length of the Ethernet, IPv4 and (option-free) TCP headers in front of
/// a TCP payload.
pub const TCP_HEADERS_LEN: usize = ethernet::HEADER_LEN + ipv4::HEADER_LEN + tcp::HEADER_LEN;

/// The Ethernet and IPv4 headers of a packet carrying `ip_payload_len`
/// bytes of `protocol`, written to the front of `buf`; returns the rest.
fn ethernet_ipv4(
    buf: &mut [u8],
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    protocol: Protocol,
    ip_payload_len: usize,
) -> &mut [u8] {
    ethernet::Repr {
        dst_addr: mac_for_ip(dst_ip),
        src_addr: mac_for_ip(src_ip),
        ethertype: EtherType::Ipv4,
    }
    .emit(&mut ethernet::Packet::new_unchecked(&mut buf[..]));
    let ip_bytes = &mut buf[ethernet::HEADER_LEN..];
    ipv4::Repr {
        src_addr: src_ip,
        dst_addr: dst_ip,
        protocol,
        payload_len: ip_payload_len,
        ttl: 64,
        dscp_ecn: 0,
        ident: 0,
    }
    .emit(&mut ipv4::Packet::new_unchecked(&mut ip_bytes[..]));
    &mut ip_bytes[ipv4::HEADER_LEN..]
}

/// The transport checksum of a segment whose header (checksum field
/// zero) is `header` and whose payload sums to `payload_sum`.
fn transport_checksum(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    protocol: Protocol,
    header: &[u8],
    payload_len: usize,
    payload_sum: Summer,
) -> u16 {
    let segment_len = (header.len() + payload_len) as u16;
    let mut s = checksum::pseudo_header_v4(src_ip, dst_ip, protocol.into(), segment_len);
    s.add(header);
    s.merge(payload_sum);
    s.finish()
}

/// The Ethernet/IPv4/UDP headers, both checksums filled, for a payload of
/// `payload_len` bytes whose one's-complement sum is `payload_sum`. The
/// caller appends the payload itself, so a payload shared between several
/// packets is summed once.
pub fn udp_ipv4_ethernet_headers(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload_len: usize,
    payload_sum: Summer,
) -> [u8; UDP_HEADERS_LEN] {
    let udp_repr = udp::Repr {
        src_port,
        dst_port,
        payload_len,
    };
    let mut buf = [0u8; UDP_HEADERS_LEN];
    let udp_bytes = ethernet_ipv4(
        &mut buf,
        src_ip,
        dst_ip,
        Protocol::Udp,
        udp_repr.total_len(),
    );
    udp_repr.emit(&mut udp::Packet::new_unchecked(&mut udp_bytes[..]));
    // RFC 768: a computed zero goes on the wire as all ones.
    let c = match transport_checksum(
        src_ip,
        dst_ip,
        Protocol::Udp,
        udp_bytes,
        payload_len,
        payload_sum,
    ) {
        0 => 0xFFFF,
        c => c,
    };
    udp_bytes[6..8].copy_from_slice(&c.to_be_bytes());
    buf
}

/// The Ethernet/IPv4/TCP headers, both checksums filled, for a payload of
/// `payload_len` bytes whose one's-complement sum is `payload_sum`.
#[allow(clippy::too_many_arguments)]
pub fn tcp_ipv4_ethernet_headers(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
    payload_len: usize,
    payload_sum: Summer,
) -> [u8; TCP_HEADERS_LEN] {
    let tcp_repr = tcp::Repr {
        src_port,
        dst_port,
        seq_number: seq,
        ack_number: ack,
        flags,
        window: 65_535,
        payload_len,
    };
    let mut buf = [0u8; TCP_HEADERS_LEN];
    let tcp_bytes = ethernet_ipv4(
        &mut buf,
        src_ip,
        dst_ip,
        Protocol::Tcp,
        tcp_repr.total_len(),
    );
    tcp_repr.emit(&mut tcp::Packet::new_unchecked(&mut tcp_bytes[..]));
    let c = transport_checksum(
        src_ip,
        dst_ip,
        Protocol::Tcp,
        tcp_bytes,
        payload_len,
        payload_sum,
    );
    tcp_bytes[16..18].copy_from_slice(&c.to_be_bytes());
    buf
}

/// `headers` followed by `payload`, in one allocation.
fn packet(headers: &[u8], payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(headers.len() + payload.len());
    buf.extend_from_slice(headers);
    buf.extend_from_slice(payload);
    buf
}

fn sum_of(payload: &[u8]) -> Summer {
    let mut s = Summer::new();
    s.add(payload);
    s
}

/// Compose Ethernet/IPv4/UDP around `payload`, filling both checksums.
pub fn udp_ipv4_ethernet(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    payload: &[u8],
) -> Vec<u8> {
    let headers = udp_ipv4_ethernet_headers(
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        payload.len(),
        sum_of(payload),
    );
    packet(&headers, payload)
}

/// Compose Ethernet/IPv4/TCP around `payload`, filling both checksums.
#[allow(clippy::too_many_arguments)]
pub fn tcp_ipv4_ethernet(
    src_ip: Ipv4Addr,
    dst_ip: Ipv4Addr,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    ack: u32,
    flags: tcp::Flags,
    payload: &[u8],
) -> Vec<u8> {
    let headers = tcp_ipv4_ethernet_headers(
        src_ip,
        dst_ip,
        src_port,
        dst_port,
        seq,
        ack,
        flags,
        payload.len(),
        sum_of(payload),
    );
    packet(&headers, payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ethernet::Packet as EthPacket, ipv4::Packet as Ip4Packet, udp::Packet as UdpPacket,
    };

    #[test]
    fn udp_compose_is_well_formed() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let buf = udp_ipv4_ethernet(src, dst, 1111, 2222, b"abc");
        let eth = EthPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = Ip4Packet::new_checked(&buf[ethernet::HEADER_LEN..]).unwrap();
        assert!(ip.verify_checksum());
        let u = UdpPacket::new_checked(ip.payload()).unwrap();
        assert!(u.verify_checksum_v4(src, dst));
        assert_eq!(u.payload(), b"abc");
    }

    #[test]
    fn tcp_compose_is_well_formed() {
        let src = Ipv4Addr::new(10, 0, 0, 1);
        let dst = Ipv4Addr::new(10, 0, 0, 2);
        let buf = tcp_ipv4_ethernet(
            src,
            dst,
            1111,
            443,
            7,
            8,
            tcp::Flags {
                ack: true,
                psh: true,
                ..Default::default()
            },
            b"hello",
        );
        let eth = EthPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(eth.ethertype(), EtherType::Ipv4);
        let ip = Ip4Packet::new_checked(&buf[ethernet::HEADER_LEN..]).unwrap();
        assert!(ip.verify_checksum());
        let t = crate::tcp::Packet::new_checked(ip.payload()).unwrap();
        assert!(t.verify_checksum_v4(src, dst));
        assert_eq!(&ip.payload()[t.header_len()..], b"hello");
        assert_eq!(t.seq_number(), 7);
    }

    #[test]
    fn mac_derivation_is_stable_and_unicast() {
        let m = mac_for_ip(Ipv4Addr::new(10, 8, 3, 4));
        assert_eq!(m, mac_for_ip(Ipv4Addr::new(10, 8, 3, 4)));
        assert_eq!(m.0[0] & 0x01, 0, "the group bit is clear");
    }
}

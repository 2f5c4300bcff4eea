//! STUN message view and emitter (RFC 5389).
//!
//! Before a Zoom P2P connection is established, each client exchanges STUN
//! binding requests with a Zoom zone controller on UDP port 3478 from the
//! ephemeral port that will later carry the P2P media flow (§4.1, Fig. 2 of
//! the paper). Detecting that exchange is what makes P2P capture
//! deterministic, so this module parses exactly what that detector needs:
//! the message type, the magic cookie, the transaction ID, and the
//! XOR-MAPPED-ADDRESS attribute.

use crate::{be16, be32, set_be16, set_be32, Error, Result};
use std::net::{IpAddr, Ipv4Addr, SocketAddr};

/// STUN header length.
pub const HEADER_LEN: usize = 20;

/// The fixed magic cookie (RFC 5389 §6).
pub const MAGIC_COOKIE: u32 = 0x2112_A442;

/// The well-known STUN UDP port, used by Zoom zone controllers.
pub const STUN_PORT: u16 = 3478;

/// STUN message classes and methods we understand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Binding request (0x0001).
    BindingRequest,
    /// Binding success response (0x0101).
    BindingSuccess,
    /// Binding error response (0x0111).
    BindingError,
    /// Binding indication (0x0011).
    BindingIndication,
    /// Any other class/method combination, carried verbatim.
    Other(u16),
}

impl From<u16> for MessageType {
    fn from(v: u16) -> Self {
        match v {
            0x0001 => MessageType::BindingRequest,
            0x0101 => MessageType::BindingSuccess,
            0x0111 => MessageType::BindingError,
            0x0011 => MessageType::BindingIndication,
            other => MessageType::Other(other),
        }
    }
}

impl From<MessageType> for u16 {
    fn from(v: MessageType) -> u16 {
        match v {
            MessageType::BindingRequest => 0x0001,
            MessageType::BindingSuccess => 0x0101,
            MessageType::BindingError => 0x0111,
            MessageType::BindingIndication => 0x0011,
            MessageType::Other(other) => other,
        }
    }
}

/// STUN attribute types we understand.
pub mod attr {
    /// MAPPED-ADDRESS (RFC 5389 §15.1).
    pub const MAPPED_ADDRESS: u16 = 0x0001;
    /// XOR-MAPPED-ADDRESS (RFC 5389 §15.2).
    pub const XOR_MAPPED_ADDRESS: u16 = 0x0020;
    /// SOFTWARE (RFC 5389 §15.10).
    pub const SOFTWARE: u16 = 0x8022;
    /// FINGERPRINT (RFC 5389 §15.5).
    pub const FINGERPRINT: u16 = 0x8028;
}

/// Zero-copy view of a STUN message.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap without validation.
    pub fn new_unchecked(buffer: T) -> Self {
        Packet { buffer }
    }

    /// Wrap, validating the header: leading zero bits, magic cookie, and
    /// message length (which must be a multiple of 4 and fit the buffer).
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
        // The two most significant bits of a STUN message are zero.
        if data[0] & 0xC0 != 0 {
            return Err(Error::Malformed);
        }
        if self.magic_cookie() != MAGIC_COOKIE {
            return Err(Error::Malformed);
        }
        let ml = self.message_len() as usize;
        if !ml.is_multiple_of(4) {
            return Err(Error::Malformed);
        }
        if data.len() < HEADER_LEN + ml {
            return Err(Error::Truncated);
        }
        Ok(())
    }

    /// Message type field.
    pub fn message_type(&self) -> MessageType {
        MessageType::from(be16(self.buffer.as_ref(), 0))
    }

    /// Message length field (attributes only, excludes the header).
    pub fn message_len(&self) -> u16 {
        be16(self.buffer.as_ref(), 2)
    }

    /// Magic cookie field.
    pub fn magic_cookie(&self) -> u32 {
        be32(self.buffer.as_ref(), 4)
    }

    /// 96-bit transaction ID.
    pub fn transaction_id(&self) -> [u8; 12] {
        let mut id = [0u8; 12];
        id.copy_from_slice(&self.buffer.as_ref()[8..20]);
        id
    }

    /// Iterate over `(attribute_type, value)` pairs.
    pub fn attributes(&self) -> AttributeIter<'_> {
        let ml = self.message_len() as usize;
        AttributeIter {
            data: &self.buffer.as_ref()[HEADER_LEN..HEADER_LEN + ml],
        }
    }

    /// Decode the XOR-MAPPED-ADDRESS attribute, if present (IPv4 only —
    /// Zoom zone controllers answer over IPv4).
    pub fn xor_mapped_address(&self) -> Option<SocketAddr> {
        for (ty, value) in self.attributes() {
            if ty == attr::XOR_MAPPED_ADDRESS && value.len() >= 8 && value[1] == 0x01 {
                let port = be16(value, 2) ^ (MAGIC_COOKIE >> 16) as u16;
                let raw = be32(value, 4) ^ MAGIC_COOKIE;
                let ip = Ipv4Addr::from(raw);
                return Some(SocketAddr::new(IpAddr::V4(ip), port));
            }
        }
        None
    }
}

/// Iterator over STUN attributes; tolerates a truncated trailing attribute
/// by stopping early (passive captures may clip payloads).
pub struct AttributeIter<'a> {
    data: &'a [u8],
}

impl<'a> Iterator for AttributeIter<'a> {
    type Item = (u16, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.data.len() < 4 {
            return None;
        }
        let ty = be16(self.data, 0);
        let len = be16(self.data, 2) as usize;
        let padded = (len + 3) & !3;
        if self.data.len() < 4 + len {
            self.data = &[];
            return None;
        }
        let value = &self.data[4..4 + len];
        self.data = if self.data.len() >= 4 + padded {
            &self.data[4 + padded..]
        } else {
            &[]
        };
        Some((ty, value))
    }
}

/// High-level STUN message representation; attributes beyond
/// XOR-MAPPED-ADDRESS are not modeled (the detector does not need them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Message class and method.
    pub message_type: MessageType,
    /// 96-bit transaction id.
    pub transaction_id: [u8; 12],
    /// When set, an XOR-MAPPED-ADDRESS attribute is emitted.
    pub xor_mapped_address: Option<SocketAddr>,
}

impl Repr {
    /// Parse a validated view.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>) -> Result<Repr> {
        packet.check_len()?;
        Ok(Repr {
            message_type: packet.message_type(),
            transaction_id: packet.transaction_id(),
            xor_mapped_address: packet.xor_mapped_address(),
        })
    }

    /// Length of the emitted message.
    pub fn buffer_len(&self) -> usize {
        HEADER_LEN
            + if self.xor_mapped_address.is_some() {
                12
            } else {
                0
            }
    }

    /// Emit into `buf`, which must be at least [`Repr::buffer_len`] long.
    /// Returns the number of bytes written.
    pub fn emit(&self, buf: &mut [u8]) -> usize {
        let attrs_len = self.buffer_len() - HEADER_LEN;
        set_be16(buf, 0, self.message_type.into());
        set_be16(buf, 2, attrs_len as u16);
        set_be32(buf, 4, MAGIC_COOKIE);
        buf[8..20].copy_from_slice(&self.transaction_id);
        if let Some(addr) = self.xor_mapped_address {
            let (ip, port) = match addr {
                SocketAddr::V4(v4) => (*v4.ip(), v4.port()),
                SocketAddr::V6(_) => {
                    // We never emit IPv6 mappings; encode the unspecified v4
                    // address so the length stays consistent.
                    (Ipv4Addr::UNSPECIFIED, addr.port())
                }
            };
            set_be16(buf, 20, attr::XOR_MAPPED_ADDRESS);
            set_be16(buf, 22, 8);
            buf[24] = 0;
            buf[25] = 0x01; // family IPv4
            set_be16(buf, 26, port ^ (MAGIC_COOKIE >> 16) as u16);
            set_be32(buf, 28, u32::from(ip) ^ MAGIC_COOKIE);
        }
        self.buffer_len()
    }
}

/// Quick test: does this UDP payload look like a STUN message?
///
/// Used by the capture pipeline (Fig. 13) as the cheap data-plane check
/// before touching the stateful registers.
pub fn looks_like_stun(payload: &[u8]) -> bool {
    Packet::new_checked(payload).is_ok()
}

/// Do the first eight bytes carry the STUN signature — two leading zero
/// bits and the magic cookie? Everything [`looks_like_stun`] accepts
/// does; unlike it, this needs no more of the message than that, so it
/// can tell whether a clipped payload could have been one.
pub fn has_magic_cookie(payload: &[u8]) -> bool {
    payload.len() >= 8 && payload[0] & 0xC0 == 0 && be32(payload, 4) == MAGIC_COOKIE
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> Vec<u8> {
        let repr = Repr {
            message_type: MessageType::BindingRequest,
            transaction_id: [7u8; 12],
            xor_mapped_address: None,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        buf
    }

    fn response(addr: SocketAddr) -> Vec<u8> {
        let repr = Repr {
            message_type: MessageType::BindingSuccess,
            transaction_id: [7u8; 12],
            xor_mapped_address: Some(addr),
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        buf
    }

    #[test]
    fn request_roundtrip() {
        let buf = request();
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.message_type(), MessageType::BindingRequest);
        assert_eq!(p.transaction_id(), [7u8; 12]);
        assert_eq!(p.xor_mapped_address(), None);
    }

    #[test]
    fn xor_mapped_address_roundtrip() {
        let addr: SocketAddr = "192.0.2.7:51234".parse().unwrap();
        let buf = response(addr);
        let p = Packet::new_checked(&buf[..]).unwrap();
        assert_eq!(p.message_type(), MessageType::BindingSuccess);
        assert_eq!(p.xor_mapped_address(), Some(addr));
    }

    #[test]
    fn rejects_bad_cookie() {
        let mut buf = request();
        buf[4] = 0;
        assert_eq!(Packet::new_checked(&buf[..]).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_rtp_like_payload() {
        // RTP version 2 sets the top bits to 10 — the STUN zero-bit check
        // must reject it.
        let buf = [0x80u8; 32];
        assert!(!looks_like_stun(&buf));
    }

    #[test]
    fn rejects_truncated_attributes() {
        let addr: SocketAddr = "192.0.2.7:51234".parse().unwrap();
        let buf = response(addr);
        assert_eq!(
            Packet::new_checked(&buf[..buf.len() - 1]).unwrap_err(),
            Error::Truncated
        );
    }

    #[test]
    fn attribute_iteration_handles_padding() {
        // SOFTWARE attribute with a 5-byte (padded to 8) value followed by
        // a FINGERPRINT.
        let mut buf = vec![0u8; HEADER_LEN];
        set_be16(&mut buf, 0, 0x0001);
        set_be32(&mut buf, 4, MAGIC_COOKIE);
        buf.extend_from_slice(&[0x80, 0x22, 0x00, 0x05]);
        buf.extend_from_slice(b"zoom\0\0\0\0");
        buf.extend_from_slice(&[0x80, 0x28, 0x00, 0x04, 1, 2, 3, 4]);
        let attrs_len = (buf.len() - HEADER_LEN) as u16;
        set_be16(&mut buf, 2, attrs_len);
        let p = Packet::new_checked(&buf[..]).unwrap();
        let attrs: Vec<_> = p.attributes().collect();
        assert_eq!(attrs.len(), 2);
        assert_eq!(attrs[0].0, attr::SOFTWARE);
        assert_eq!(&attrs[0].1[..4], b"zoom");
        assert_eq!(attrs[1].0, attr::FINGERPRINT);
    }

    #[test]
    fn message_type_roundtrip() {
        for v in [0x0001u16, 0x0101, 0x0111, 0x0011, 0x0999] {
            assert_eq!(u16::from(MessageType::from(v)), v);
        }
    }
}

//! # zoom-wire — wire formats for passive Zoom measurement
//!
//! Zero-copy parsers ("views") and emitters for every protocol layer needed
//! to analyze Zoom traffic passively, as reverse-engineered in
//! *"Enabling Passive Measurement of Zoom Performance in Production
//! Networks"* (IMC '22):
//!
//! * Link / network / transport: [`ethernet`], [`ipv4`], [`ipv6`], [`udp`],
//!   [`tcp`]
//! * Session / media: [`stun`] (RFC 5389), [`rtp`] / [`rtcp`] (RFC 3550)
//! * Zoom's proprietary encapsulations: [`zoom`] (Zoom SFU Encapsulation and
//!   Zoom Media Encapsulation, Table 1/2 + Fig. 7 of the paper)
//! * Native WebRTC framing: [`webrtc`] (DTLS records, SRTP/SRTCP headers)
//! * Protocol families: [`family`] (family ids, `--family` selection,
//!   and each family's claim on a UDP payload, called STUN → Zoom →
//!   WebRTC; see `docs/PROTOCOLS.md`)
//! * Trace I/O: [`pcap`] (classic libpcap format, µs and ns resolution)
//! * Capture hand-off: [`handoff`] (arena-packed record batches for
//!   crossing capture→analysis thread boundaries without per-packet
//!   allocation)
//! * Distributed fragments: [`frame`] (length-prefixed frames carrying
//!   record batches and worker accounting across process boundaries for
//!   the shard tier, see `docs/DISTRIBUTED.md`)
//! * A full-stack dissector: [`dissect`] (the library equivalent of the
//!   paper's Wireshark plugin, Appendix C)
//!
//! ## Design
//!
//! The crate follows the smoltcp idiom: a `Packet<T: AsRef<[u8]>>` wrapper
//! per protocol with `new_checked` length validation, plain field accessors,
//! mutable setters for `T: AsMut<[u8]>`, and a `Repr` ("representation")
//! struct with `parse`/`emit` for high-level round-tripping. There is no
//! allocation on the parse path and no async runtime — passive trace
//! analysis is CPU-bound batch work.
//!
//! ```
//! use zoom_wire::rtp;
//!
//! let mut buf = [0u8; 12];
//! let repr = rtp::Repr {
//!     marker: true,
//!     payload_type: 98,
//!     sequence_number: 7,
//!     timestamp: 90_000,
//!     ssrc: 0x11,
//!     csrc_count: 0,
//!     has_extension: false,
//! };
//! repr.emit(&mut rtp::Packet::new_unchecked(&mut buf[..]));
//! let pkt = rtp::Packet::new_checked(&buf[..]).unwrap();
//! assert_eq!(pkt.sequence_number(), 7);
//! assert_eq!(pkt.payload_type(), 98);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod checksum;
pub mod compose;
pub mod dissect;
pub mod ethernet;
pub mod family;
pub mod flow;
pub mod frame;
pub mod handoff;
pub mod ipv4;
pub mod ipv6;
pub mod pcap;
pub mod rtcp;
pub mod rtp;
pub mod stun;
pub mod tcp;
pub mod udp;
pub mod webrtc;
pub mod zoom;

use std::fmt;

/// Errors produced while parsing or emitting wire formats.
///
/// Parsing passively captured traffic must never panic on hostile or
/// truncated input, so every view constructor validates lengths and every
/// semantic check returns one of these variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The buffer is too short to contain the fixed header, or a length
    /// field points past the end of the buffer.
    Truncated,
    /// A version, magic, or type field has a value that identifies the
    /// buffer as *not* being this protocol.
    Malformed,
    /// A checksum did not verify.
    Checksum,
    /// The value is syntactically valid but not supported by this
    /// implementation (e.g. an IPv4 packet with options we refuse to edit).
    Unsupported,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated => write!(f, "truncated packet"),
            Error::Malformed => write!(f, "malformed packet"),
            Error::Checksum => write!(f, "checksum failure"),
            Error::Unsupported => write!(f, "unsupported format"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = core::result::Result<T, Error>;

/// Read a big-endian `u16` at `offset` (caller guarantees bounds).
#[inline]
pub(crate) fn be16(data: &[u8], offset: usize) -> u16 {
    u16::from_be_bytes([data[offset], data[offset + 1]])
}

/// Read a big-endian `u32` at `offset` (caller guarantees bounds).
#[inline]
pub(crate) fn be32(data: &[u8], offset: usize) -> u32 {
    u32::from_be_bytes([
        data[offset],
        data[offset + 1],
        data[offset + 2],
        data[offset + 3],
    ])
}

/// Read a big-endian `u64` at `offset` (caller guarantees bounds).
#[inline]
pub(crate) fn be64(data: &[u8], offset: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[offset..offset + 8]);
    u64::from_be_bytes(b)
}

/// Write a big-endian `u16` at `offset` (caller guarantees bounds).
#[inline]
pub(crate) fn set_be16(data: &mut [u8], offset: usize, value: u16) {
    data[offset..offset + 2].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u32` at `offset` (caller guarantees bounds).
#[inline]
pub(crate) fn set_be32(data: &mut [u8], offset: usize, value: u32) {
    data[offset..offset + 4].copy_from_slice(&value.to_be_bytes());
}

/// Write a big-endian `u64` at `offset` (caller guarantees bounds).
#[inline]
pub(crate) fn set_be64(data: &mut [u8], offset: usize, value: u64) {
    data[offset..offset + 8].copy_from_slice(&value.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endian_helpers_roundtrip() {
        let mut buf = [0u8; 16];
        set_be16(&mut buf, 1, 0xBEEF);
        assert_eq!(be16(&buf, 1), 0xBEEF);
        set_be32(&mut buf, 4, 0xDEAD_BEEF);
        assert_eq!(be32(&buf, 4), 0xDEAD_BEEF);
        set_be64(&mut buf, 8, 0x0123_4567_89AB_CDEF);
        assert_eq!(be64(&buf, 8), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn error_display_is_stable() {
        assert_eq!(Error::Truncated.to_string(), "truncated packet");
        assert_eq!(Error::Malformed.to_string(), "malformed packet");
        assert_eq!(Error::Checksum.to_string(), "checksum failure");
        assert_eq!(Error::Unsupported.to_string(), "unsupported format");
    }
}

//! RTCP view and emitter (RFC 3550 §6).
//!
//! In Zoom traffic the paper observed *only* sender reports (SR), emitted
//! once per second per media stream, sometimes followed by an empty source
//! description (SDES) chunk — and notably *no* receiver reports, which is
//! why the performance metrics of §5 must be derived from RTP alone. This
//! module parses compound RTCP packets (SR, RR, SDES, BYE) — into the full
//! item list ([`parse_compound`], which only the dissector's tree reads)
//! or into the [`Summary`] the analysis reads ([`summarize`]), one walk
//! behind both — and emits Zoom-style SR(+empty SDES) compounds for the
//! simulator.

use crate::{be16, be32, be64, set_be16, set_be32, set_be64, Error, Result};

/// RTCP packet types (RFC 3550 §12.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// SR (200).
    SenderReport,
    /// RR (201).
    ReceiverReport,
    /// SDES (202).
    SourceDescription,
    /// BYE (203).
    Bye,
    /// APP (204).
    ApplicationDefined,
    /// Any other packet type, carried verbatim.
    Other(u8),
}

impl From<u8> for PacketType {
    fn from(v: u8) -> Self {
        match v {
            200 => PacketType::SenderReport,
            201 => PacketType::ReceiverReport,
            202 => PacketType::SourceDescription,
            203 => PacketType::Bye,
            204 => PacketType::ApplicationDefined,
            other => PacketType::Other(other),
        }
    }
}

impl From<PacketType> for u8 {
    fn from(v: PacketType) -> u8 {
        match v {
            PacketType::SenderReport => 200,
            PacketType::ReceiverReport => 201,
            PacketType::SourceDescription => 202,
            PacketType::Bye => 203,
            PacketType::ApplicationDefined => 204,
            PacketType::Other(other) => other,
        }
    }
}

/// The sender-info block of an SR (RFC 3550 §6.4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SenderInfo {
    /// 64-bit NTP timestamp: wall-clock time of this report.
    pub ntp_timestamp: u64,
    /// RTP timestamp corresponding to the same instant — the field that
    /// lets receivers map RTP time onto wall-clock time.
    pub rtp_timestamp: u32,
    /// Cumulative packets sent.
    pub packet_count: u32,
    /// Cumulative payload octets sent.
    pub octet_count: u32,
}

/// One parsed RTCP sub-packet within a compound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// Sender report: originating SSRC plus sender info. Report blocks are
    /// counted but not decoded (Zoom SRs carry none).
    SenderReport {
        /// Originating SSRC.
        ssrc: u32,
        /// NTP/RTP timestamps and sender counters.
        info: SenderInfo,
        /// Number of report blocks (not decoded).
        report_count: u8,
    },
    /// Receiver report: originating SSRC (Zoom never sends these).
    ReceiverReport {
        /// Originating SSRC.
        ssrc: u32,
        /// Number of report blocks (not decoded).
        report_count: u8,
    },
    /// Source description: list of chunk SSRCs (Zoom's are empty of items).
    SourceDescription {
        /// SSRC of each SDES chunk.
        ssrcs: Vec<u32>,
    },
    /// BYE with its SSRC list.
    Bye {
        /// SSRCs leaving the session.
        ssrcs: Vec<u32>,
    },
    /// Anything else, kept opaque.
    Other {
        /// Raw RTCP packet type.
        packet_type: u8,
        /// Sub-packet length in bytes.
        len: usize,
    },
}

/// One sub-packet of a compound as [`walk`] found it: the common header's
/// count and type fields and the body behind them, every length the
/// sub-packet's decoding depends on already checked.
#[derive(Clone, Copy)]
struct SubPacket<'a> {
    /// The 5-bit count field (report blocks, SDES chunks, BYE sources).
    count: u8,
    packet_type: u8,
    /// The bytes after the 4-byte common header, up to where the length
    /// word ends the sub-packet.
    body: &'a [u8],
}

impl SubPacket<'_> {
    /// The originating SSRC and sender info of an SR (whose body [`walk`]
    /// has checked to be long enough).
    fn sender_report(&self) -> (u32, SenderInfo) {
        let body = self.body;
        let info = SenderInfo {
            ntp_timestamp: be64(body, 4),
            rtp_timestamp: be32(body, 12),
            packet_count: be32(body, 16),
            octet_count: be32(body, 20),
        };
        (be32(body, 0), info)
    }

    fn item(&self) -> Item {
        let (rc, body) = (self.count, self.body);
        match PacketType::from(self.packet_type) {
            PacketType::SenderReport => {
                let (ssrc, info) = self.sender_report();
                Item::SenderReport {
                    ssrc,
                    info,
                    report_count: rc,
                }
            }
            PacketType::ReceiverReport => Item::ReceiverReport {
                ssrc: be32(body, 0),
                report_count: rc,
            },
            PacketType::SourceDescription => {
                // Each chunk: SSRC + item list; Zoom emits chunks with a
                // single terminating zero item. We collect chunk SSRCs.
                let mut ssrcs = Vec::new();
                let mut off = 0;
                for _ in 0..rc {
                    if body.len() < off + 4 {
                        break;
                    }
                    ssrcs.push(be32(body, off));
                    off += 4;
                    // Skip SDES items until the zero terminator, then pad
                    // to a 4-byte boundary.
                    while off < body.len() && body[off] != 0 {
                        if body.len() < off + 2 {
                            break;
                        }
                        off += 2 + usize::from(body[off + 1]);
                    }
                    off = (off + 4) & !3;
                }
                Item::SourceDescription { ssrcs }
            }
            PacketType::Bye => {
                let mut ssrcs = Vec::new();
                for i in 0..usize::from(rc) {
                    if body.len() >= (i + 1) * 4 {
                        ssrcs.push(be32(body, i * 4));
                    }
                }
                Item::Bye { ssrcs }
            }
            _ => Item::Other {
                packet_type: self.packet_type,
                len: 4 + body.len(),
            },
        }
    }
}

/// Walk a compound RTCP packet, handing each sub-packet to `each` in
/// order — the one validator behind [`parse_compound`] and [`summarize`].
///
/// Rejects buffers with a sub-packet that is not version 2, whose length
/// word overruns the buffer, or (SR, RR) whose body is too short for its
/// fixed fields. `each` may already have seen the sub-packets before the
/// one that fails.
fn walk<'a>(data: &'a [u8], mut each: impl FnMut(SubPacket<'a>)) -> Result<()> {
    if data.len() < 4 {
        return Err(Error::Truncated);
    }
    let mut rest = data;
    while rest.len() >= 4 {
        if rest[0] >> 6 != 2 {
            return Err(Error::Malformed);
        }
        let total = (usize::from(be16(rest, 2)) + 1) * 4;
        if rest.len() < total {
            return Err(Error::Truncated);
        }
        let sub = SubPacket {
            count: rest[0] & 0x1F,
            packet_type: rest[1],
            body: &rest[4..total],
        };
        let fixed = match PacketType::from(sub.packet_type) {
            PacketType::SenderReport => 24,
            PacketType::ReceiverReport => 4,
            _ => 0,
        };
        if sub.body.len() < fixed {
            return Err(Error::Truncated);
        }
        each(sub);
        rest = &rest[total..];
    }
    Ok(())
}

/// Parse a compound RTCP packet into its items.
///
/// Rejects buffers whose first sub-packet is not version 2 or whose length
/// words overrun the buffer.
pub fn parse_compound(data: &[u8]) -> Result<Vec<Item>> {
    let mut items = Vec::new();
    walk(data, |sub| items.push(sub.item()))?;
    Ok(items)
}

/// What the analysis reads of a compound RTCP packet: how many sub-packets
/// it holds and its first sender report. [`summarize`] fills it from the
/// same walk [`parse_compound`] makes, so it accepts exactly the compounds
/// `parse_compound` accepts, with the same errors — without allocating
/// the item list. The fields are flat so that the whole summary stays 32
/// bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Summary {
    items: u32,
    has_sender_report: bool,
    ssrc: u32,
    ntp_timestamp: u64,
    rtp_timestamp: u32,
    packet_count: u32,
    octet_count: u32,
}

impl Summary {
    /// True when no compound was parsed.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// The originating SSRC and sender info of the compound's first SR,
    /// wherever in the compound it sits.
    pub fn sender_report(&self) -> Option<(u32, SenderInfo)> {
        self.has_sender_report.then_some((
            self.ssrc,
            SenderInfo {
                ntp_timestamp: self.ntp_timestamp,
                rtp_timestamp: self.rtp_timestamp,
                packet_count: self.packet_count,
                octet_count: self.octet_count,
            },
        ))
    }
}

/// Validate a compound RTCP packet exactly as [`parse_compound`] does and
/// keep its [`Summary`]; allocates nothing.
pub fn summarize(data: &[u8]) -> Result<Summary> {
    let mut s = Summary::default();
    walk(data, |sub| {
        s.items += 1;
        if !s.has_sender_report && PacketType::from(sub.packet_type) == PacketType::SenderReport {
            let (ssrc, info) = sub.sender_report();
            s = Summary {
                has_sender_report: true,
                ssrc,
                ntp_timestamp: info.ntp_timestamp,
                rtp_timestamp: info.rtp_timestamp,
                packet_count: info.packet_count,
                octet_count: info.octet_count,
                ..s
            };
        }
    })?;
    Ok(s)
}

/// Search a buffer for any of the given SSRC values at 4-byte-aligned
/// offsets — the technique the paper used (§4.2.1) to locate RTCP packets
/// once RTP SSRCs were known: "RTCP packets always refer to one or more
/// specific SSRCs".
pub fn scan_for_ssrcs(data: &[u8], ssrcs: &[u32]) -> Vec<(usize, u32)> {
    let mut hits = Vec::new();
    if data.len() < 4 {
        return hits;
    }
    for off in (0..=data.len() - 4).step_by(4) {
        let v = be32(data, off);
        if ssrcs.contains(&v) {
            hits.push((off, v));
        }
    }
    hits
}

/// Builder for Zoom-style SR (+ optional empty SDES) compounds.
#[derive(Debug, Clone, Copy)]
pub struct SenderReportRepr {
    /// Originating SSRC.
    pub ssrc: u32,
    /// NTP/RTP timestamps and sender counters.
    pub info: SenderInfo,
    /// Append an SDES chunk naming the same SSRC with no items, as seen in
    /// Zoom type-34 packets.
    pub with_sdes: bool,
}

impl SenderReportRepr {
    /// Emitted length: SR (28 bytes) plus optional SDES (12 bytes).
    pub fn buffer_len(&self) -> usize {
        28 + if self.with_sdes { 12 } else { 0 }
    }

    /// Emit into `buf` (at least [`Self::buffer_len`] long); returns bytes
    /// written.
    pub fn emit(&self, buf: &mut [u8]) -> usize {
        buf[0] = 0x80; // V=2, P=0, RC=0
        buf[1] = PacketType::SenderReport.into();
        set_be16(buf, 2, 6); // 6 words follow = 28 bytes total
        set_be32(buf, 4, self.ssrc);
        set_be64(buf, 8, self.info.ntp_timestamp);
        set_be32(buf, 16, self.info.rtp_timestamp);
        set_be32(buf, 20, self.info.packet_count);
        set_be32(buf, 24, self.info.octet_count);
        if self.with_sdes {
            let b = &mut buf[28..40];
            b[0] = 0x81; // V=2, one chunk
            b[1] = PacketType::SourceDescription.into();
            set_be16(b, 2, 2); // 2 words follow
            set_be32(b, 4, self.ssrc);
            // Zero item terminator + padding.
            b[8] = 0;
            b[9] = 0;
            b[10] = 0;
            b[11] = 0;
        }
        self.buffer_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sr(with_sdes: bool) -> Vec<u8> {
        let repr = SenderReportRepr {
            ssrc: 0x42,
            info: SenderInfo {
                ntp_timestamp: 0x83AA_7E80_0000_0000,
                rtp_timestamp: 123_456,
                packet_count: 1000,
                octet_count: 800_000,
            },
            with_sdes,
        };
        let mut buf = vec![0u8; repr.buffer_len()];
        repr.emit(&mut buf);
        buf
    }

    #[test]
    fn sr_roundtrip() {
        let items = parse_compound(&sr(false)).unwrap();
        assert_eq!(items.len(), 1);
        match &items[0] {
            Item::SenderReport {
                ssrc,
                info,
                report_count,
            } => {
                assert_eq!(*ssrc, 0x42);
                assert_eq!(info.rtp_timestamp, 123_456);
                assert_eq!(info.packet_count, 1000);
                assert_eq!(info.octet_count, 800_000);
                assert_eq!(*report_count, 0);
            }
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn sr_with_empty_sdes() {
        let items = parse_compound(&sr(true)).unwrap();
        assert_eq!(items.len(), 2);
        match &items[1] {
            Item::SourceDescription { ssrcs } => assert_eq!(ssrcs.as_slice(), &[0x42]),
            other => panic!("unexpected item {other:?}"),
        }
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = sr(false);
        buf[0] = 0x40;
        assert_eq!(parse_compound(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn rejects_overrunning_length() {
        let mut buf = sr(false);
        set_be16(&mut buf, 2, 100);
        assert_eq!(parse_compound(&buf).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn bye_parses() {
        let mut buf = vec![0x81, 203, 0x00, 0x01];
        buf.extend_from_slice(&0x1234_5678u32.to_be_bytes());
        let items = parse_compound(&buf).unwrap();
        assert_eq!(
            items,
            [Item::Bye {
                ssrcs: vec![0x1234_5678]
            }]
        );
    }

    #[test]
    fn ssrc_scan_finds_aligned_values() {
        let buf = sr(false);
        let hits = scan_for_ssrcs(&buf, &[0x42]);
        assert!(hits.contains(&(4, 0x42)));
    }

    #[test]
    fn ssrc_scan_empty_input() {
        assert!(scan_for_ssrcs(&[1, 2], &[0x42]).is_empty());
    }

    #[test]
    fn packet_type_roundtrip() {
        for v in [200u8, 201, 202, 203, 204, 250] {
            assert_eq!(u8::from(PacketType::from(v)), v);
        }
    }
}

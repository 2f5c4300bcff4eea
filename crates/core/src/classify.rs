//! Packet-type accounting — the machinery behind Tables 2, 3, and the
//! cross-family Table-6-style breakdown.
//!
//! Counts packets and bytes per protocol family, per Zoom
//! media-encapsulation type, and per (media type, RTP payload type)
//! combination, and renders the same rows the paper reports: type value,
//! packet type label, payload offset, and the percentage of packets and
//! bytes. Tables 2 and 3 are Zoom-family tables by definition (they
//! describe the ZME encapsulation); [`Classifier::table6`] breaks media
//! down per family for multi-family traces.

use crate::position_hinted;
use zoom_wire::family::{FamilyId, ALL_FAMILIES, FAMILY_COUNT};
use zoom_wire::zoom::MediaType;

/// Running (packets, bytes) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Packets counted.
    pub packets: u64,
    /// IP-layer bytes counted.
    pub bytes: u64,
}

impl Counts {
    fn add(&mut self, bytes: usize) {
        self.packets += 1;
        self.bytes += bytes as u64;
    }

    fn merge(&mut self, other: &Counts) {
        self.packets += other.packets;
        self.bytes += other.bytes;
    }
}

/// One row of a rendered table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Row key (type value or media type).
    pub label: String,
    /// Human-readable description.
    pub detail: String,
    /// Percentage of all packets.
    pub packets_pct: f64,
    /// Percentage of all bytes.
    pub bytes_pct: f64,
}

/// The five media-encapsulation type values Table 2 lists.
const KNOWN_TYPES: [u8; 5] = [13, 15, 16, 33, 34];

/// Accumulates the classification tables.
///
/// Every counter is reached by index, not by hashing: the type byte
/// indexes a 256-entry table per family, and the handful of (media type,
/// payload type) pairs a trace carries live in a short vector searched
/// from the most recent hit.
#[derive(Debug)]
pub struct Classifier {
    total: Counts,
    by_family: [Counts; FAMILY_COUNT],
    /// Per family: media type byte → counts. The Zoom family's table is
    /// Table 2; all of them together are Table 6. (Boxed: 8 KiB of
    /// counters should not ride along when an analyzer is moved.)
    by_family_media: Box<[[Counts; 256]; FAMILY_COUNT]>,
    /// Zoom family only: (media type byte, RTP PT) → counts (Table 3),
    /// in first-seen order.
    by_payload_kind: Vec<((u8, u8), Counts)>,
    /// Index into `by_payload_kind` of the pair counted last.
    last_payload_kind: usize,
}

impl Default for Classifier {
    fn default() -> Classifier {
        Classifier {
            total: Counts::default(),
            by_family: [Counts::default(); FAMILY_COUNT],
            by_family_media: Box::new([[Counts::default(); 256]; FAMILY_COUNT]),
            by_payload_kind: Vec::new(),
            last_payload_kind: 0,
        }
    }
}

impl Classifier {
    /// Fresh counters.
    pub fn new() -> Classifier {
        Classifier::default()
    }

    /// Count one classified packet of `media_type` (and RTP payload type
    /// `pt` when it is a media packet) of total IP length `ip_len`, under
    /// `family`. The Zoom-specific tables (2 and 3) only accumulate Zoom
    /// packets; every family feeds the totals and the Table-6 breakdown.
    pub fn record(
        &mut self,
        family: FamilyId,
        media_type: MediaType,
        pt: Option<u8>,
        ip_len: usize,
    ) {
        self.total.add(ip_len);
        self.by_family[family.index()].add(ip_len);
        let type_byte = media_type.to_byte();
        self.by_family_media[family.index()][usize::from(type_byte)].add(ip_len);
        if family != FamilyId::Zoom {
            return;
        }
        if let Some(pt) = pt {
            self.payload_kind_mut((type_byte, pt)).add(ip_len);
        }
    }

    /// The Table-3 counter of `key`, created on first use.
    fn payload_kind_mut(&mut self, key: (u8, u8)) -> &mut Counts {
        let hit = position_hinted(&self.by_payload_kind, self.last_payload_kind, |(k, _)| {
            *k == key
        })
        .unwrap_or_else(|| {
            self.by_payload_kind.push((key, Counts::default()));
            self.by_payload_kind.len() - 1
        });
        self.last_payload_kind = hit;
        &mut self.by_payload_kind[hit].1
    }

    /// The Zoom family's per-type counters (Table 2's source).
    fn zoom_media(&self) -> &[Counts; 256] {
        &self.by_family_media[FamilyId::Zoom.index()]
    }

    /// The Table-6-style cross-family rows for reports: empty when only
    /// Zoom traffic was classified (keeping Zoom-only report JSON
    /// byte-identical), the full [`Classifier::table6`] otherwise.
    pub fn family_table(&self) -> Vec<TableRow> {
        if self.has_non_zoom_family() {
            self.table6()
        } else {
            Vec::new()
        }
    }

    /// Whether any packet outside the Zoom family was classified. Reports
    /// stay byte-identical on Zoom-only traces by gating the family
    /// sections on this.
    pub fn has_non_zoom_family(&self) -> bool {
        ALL_FAMILIES
            .iter()
            .any(|&f| f != FamilyId::Zoom && self.by_family[f.index()].packets > 0)
    }

    /// `c` as percentages of all classified packets and bytes.
    fn shares(&self, c: &Counts) -> (f64, f64) {
        (
            100.0 * c.packets as f64 / self.total.packets.max(1) as f64,
            100.0 * c.bytes as f64 / self.total.bytes.max(1) as f64,
        )
    }

    /// Fraction of packets successfully decoded as one of the five known
    /// media-encapsulation types (the paper: 90.03 % pkts, 94.5 % bytes).
    pub fn decoded_fraction(&self) -> (f64, f64) {
        let mut known = Counts::default();
        for t in KNOWN_TYPES {
            known.merge(&self.zoom_media()[usize::from(t)]);
        }
        (
            known.packets as f64 / self.total.packets.max(1) as f64,
            known.bytes as f64 / self.total.bytes.max(1) as f64,
        )
    }

    /// Table 2: media-encapsulation type values with offsets and shares,
    /// sorted by packet share descending, equal shares by type value.
    pub fn table2(&self) -> Vec<TableRow> {
        let mut rows: Vec<TableRow> = KNOWN_TYPES
            .iter()
            .map(|&t| (t, &self.zoom_media()[usize::from(t)]))
            .filter(|(_, c)| c.packets > 0)
            .map(|(t, c)| {
                let mt = MediaType::from_byte(t);
                let (packets_pct, bytes_pct) = self.shares(c);
                TableRow {
                    label: format!("{t}"),
                    detail: format!(
                        "{} (offset {})",
                        mt.label(),
                        mt.payload_offset().unwrap_or(0)
                    ),
                    packets_pct,
                    bytes_pct,
                }
            })
            .collect();
        // Stable sort over rows built in ascending type order: the type
        // value breaks ties.
        rows.sort_by(|a, b| b.packets_pct.total_cmp(&a.packets_pct));
        rows
    }

    /// Table-6-style cross-family breakdown: one row per (family, media
    /// type) with packet/byte shares of the whole classified load. Rows
    /// sort by family, then packet share descending, then type value —
    /// Zoom rows first, making the table a superset of the single-family
    /// view.
    pub fn table6(&self) -> Vec<TableRow> {
        let mut rows = Vec::new();
        for (fi, table) in self.by_family_media.iter().enumerate() {
            let mut family_rows: Vec<(u8, &Counts)> = (0..=u8::MAX)
                .zip(table.iter())
                .filter(|(_, c)| c.packets > 0)
                .collect();
            family_rows.sort_by(|(ta, a), (tb, b)| {
                b.packets
                    .cmp(&a.packets)
                    .then_with(|| {
                        media_label(MediaType::from_byte(*ta))
                            .cmp(media_label(MediaType::from_byte(*tb)))
                    })
                    .then(ta.cmp(tb))
            });
            rows.extend(family_rows.into_iter().map(|(t, c)| {
                let (packets_pct, bytes_pct) = self.shares(c);
                TableRow {
                    label: ALL_FAMILIES[fi].label().to_string(),
                    detail: media_label(MediaType::from_byte(t)).to_string(),
                    packets_pct,
                    bytes_pct,
                }
            }));
        }
        rows
    }

    /// Share of a specific (media type, payload type) pair.
    pub fn share(&self, mt: MediaType, pt: u8) -> (f64, f64) {
        let key = (mt.to_byte(), pt);
        match self.by_payload_kind.iter().find(|(k, _)| *k == key) {
            Some((_, c)) => self.shares(c),
            None => (0.0, 0.0),
        }
    }
}

fn media_label(mt: MediaType) -> &'static str {
    match mt {
        MediaType::Video => "Video",
        MediaType::Audio => "Audio",
        MediaType::ScreenShare => "Screen Share",
        MediaType::RtcpSr => "RTCP SR",
        MediaType::RtcpSrSdes => "RTCP SR+SDES",
        MediaType::Other(_) => "Other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_correctly() {
        let mut c = Classifier::new();
        for _ in 0..62 {
            c.record(FamilyId::Zoom, MediaType::Video, Some(98), 1_200);
        }
        for _ in 0..26 {
            c.record(FamilyId::Zoom, MediaType::Audio, Some(112), 150);
        }
        for _ in 0..4 {
            c.record(FamilyId::Zoom, MediaType::ScreenShare, Some(99), 900);
        }
        for _ in 0..8 {
            c.record(FamilyId::Zoom, MediaType::Other(30), None, 100);
        }
        let t2 = c.table2();
        let pkt_sum: f64 = t2.iter().map(|r| r.packets_pct).sum();
        assert!((pkt_sum - 92.0).abs() < 1e-9);
        // Video first (largest share).
        assert!(t2[0].detail.contains("Video"));
        let (dp, db) = c.decoded_fraction();
        assert!((dp - 0.92).abs() < 1e-9);
        assert!(db > 0.97); // control packets are tiny
    }

    #[test]
    fn table3_tracks_payload_types() {
        let mut c = Classifier::new();
        c.record(FamilyId::Zoom, MediaType::Video, Some(98), 1_000);
        c.record(FamilyId::Zoom, MediaType::Video, Some(110), 800);
        c.record(FamilyId::Zoom, MediaType::Audio, Some(99), 110);
        assert!(c.share(MediaType::Video, 110).0 > 30.0);
        assert!(c.share(MediaType::Audio, 99).0 > 30.0);
        let (p, b) = c.share(MediaType::Video, 98);
        assert!(p > 30.0 && b > 50.0);
        assert_eq!(c.share(MediaType::Video, 42), (0.0, 0.0));
    }

    #[test]
    fn equal_shares_order_by_type_then_payload_type() {
        // Recorded in descending key order, so neither first-seen order
        // nor any hasher's order happens to be the sorted one.
        let mut c = Classifier::new();
        c.record(FamilyId::Zoom, MediaType::Video, Some(110), 100);
        c.record(FamilyId::Zoom, MediaType::Video, Some(98), 100);
        c.record(FamilyId::Zoom, MediaType::Audio, Some(112), 100);
        c.record(FamilyId::Zoom, MediaType::ScreenShare, Some(99), 100);
        // Table 2: video leads on share; audio and screen share tie and
        // fall back to the type value.
        let t2: Vec<String> = c.table2().into_iter().map(|r| r.label).collect();
        assert_eq!(t2, ["16", "13", "15"]);
        // Table 6: two "Other" types with one packet each share a label;
        // the type value decides.
        c.record(FamilyId::Zoom, MediaType::Other(31), None, 100);
        c.record(FamilyId::Zoom, MediaType::Other(30), None, 100);
        let t6 = c.table6();
        assert_eq!(t6.len(), 5);
        assert_eq!(t6[0].detail, "Video");
        assert_eq!(c.table6(), t6);
    }

    #[test]
    fn empty_classifier_is_sane() {
        let c = Classifier::new();
        assert!(c.table2().is_empty());
        assert!(c.table6().is_empty());
        assert!(!c.has_non_zoom_family());
        assert_eq!(c.decoded_fraction(), (0.0, 0.0));
    }

    #[test]
    fn table6_splits_by_family_without_touching_zoom_tables() {
        let mut c = Classifier::new();
        for _ in 0..6 {
            c.record(FamilyId::Zoom, MediaType::Video, Some(98), 1_000);
        }
        for _ in 0..3 {
            c.record(FamilyId::Webrtc, MediaType::Video, Some(96), 1_200);
        }
        c.record(FamilyId::Webrtc, MediaType::Audio, Some(111), 120);

        assert!(c.has_non_zoom_family());
        assert_eq!(c.total.packets, 10);
        assert_eq!(c.by_family[FamilyId::Zoom.index()].packets, 6);
        assert_eq!(c.by_family[FamilyId::Webrtc.index()].packets, 4);
        // Zoom-specific tables (2/3) never see WebRTC packets.
        assert_eq!(c.share(MediaType::Video, 96), (0.0, 0.0));
        let t2_pkts: f64 = c.table2().iter().map(|r| r.packets_pct).sum();
        assert!((t2_pkts - 60.0).abs() < 1e-9);

        let t6 = c.table6();
        assert_eq!(t6.len(), 3);
        // Zoom rows first, then WebRTC rows by packet share.
        assert_eq!(t6[0].label, "zoom");
        assert_eq!(t6[1].label, "webrtc");
        assert_eq!(t6[1].detail, "Video");
        assert!((t6[1].packets_pct - 30.0).abs() < 1e-9);
        assert_eq!(t6[2].detail, "Audio");
    }
}

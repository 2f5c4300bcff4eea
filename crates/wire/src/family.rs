//! Pluggable protocol families: the contract that generalizes the
//! pipeline beyond Zoom.
//!
//! The paper's estimators (bitrate, fps, jitter, loss, RTT) are
//! RTP-generic; only the encapsulation dissection is Zoom-specific. This
//! module lifts that Zoom-specific part behind the [`ProtocolFamily`]
//! trait so a second conferencing system plugs into the same
//! peek → classify pipeline:
//!
//! * [`FamilyId`] names a family and provides the stable `family=` label
//!   every metric and report row uses;
//! * [`ProtocolFamily`] is the per-family contract — a cheap peek-time
//!   [`PacketClass`] prediction (read by `peek_batch` only), the full
//!   payload classification, and the family-owned malformed-drop label
//!   (satisfying the per-family conservation invariant);
//! * [`ZoomFamily`] wraps the original ZME/SFU dissection with
//!   byte-identical behaviour;
//! * [`WebrtcFamily`] recognizes native WebRTC sessions
//!   (DTLS-SRTP framing + standard RTP/RTCP, see [`crate::webrtc`]);
//! * [`FamilySelect`] is the user-facing `--family auto|zoom|webrtc`
//!   switch, mapping to the dissector [`Probe`] configuration.
//!
//! Families are zero-sized types dispatched statically in the hot loop —
//! the trait buys the *contract*, not vtables. The dispatch order is
//! fixed (shared STUN check, then Zoom, then WebRTC) and the byte-level
//! signatures cannot overlap: DTLS content types (20–23) and RTP version
//! bits (`10`) are disjoint from every ZME leading byte, so enabling one
//! family never changes another family's output. See
//! `docs/PROTOCOLS.md` for the full contract and a worked guide to
//! adding a family.

use crate::dissect::{App, AppView, P2pProbe, PacketClass, Probe, WebrtcProbe};
use crate::flow::FiveTuple;
use crate::stun;
use crate::webrtc;
use crate::zoom::{self, Framing, ZOOM_SFU_PORT};
use std::fmt;
use std::str::FromStr;

/// Identifies a protocol family — the value behind every `family=` label
/// in metrics, reports, and logs.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FamilyId {
    /// Zoom's proprietary encapsulations (ZME/SFU, server and P2P
    /// framings) — the original subject of the paper.
    Zoom,
    /// Native WebRTC: STUN/DTLS-SRTP session framing with standard
    /// RTP/RTCP media.
    Webrtc,
}

/// Number of known families; sizes per-family counter arrays.
pub const FAMILY_COUNT: usize = 2;

/// All known families, in [`FamilyId::index`] order.
pub const ALL_FAMILIES: [FamilyId; FAMILY_COUNT] = [FamilyId::Zoom, FamilyId::Webrtc];

impl FamilyId {
    /// Stable lower-case label for metrics, reports, and logs.
    pub fn label(self) -> &'static str {
        match self {
            FamilyId::Zoom => "zoom",
            FamilyId::Webrtc => "webrtc",
        }
    }

    /// Dense index for per-family counter arrays (`0..FAMILY_COUNT`).
    pub fn index(self) -> usize {
        match self {
            FamilyId::Zoom => 0,
            FamilyId::Webrtc => 1,
        }
    }
}

impl fmt::Display for FamilyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A family (or family-selection) string that is not `auto`, `zoom`, or
/// `webrtc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseFamilyError {
    rejected: String,
}

impl fmt::Display for ParseFamilyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown family {:?} (expected auto, zoom, or webrtc)",
            self.rejected
        )
    }
}

impl std::error::Error for ParseFamilyError {}

impl FromStr for FamilyId {
    type Err = ParseFamilyError;

    fn from_str(s: &str) -> Result<FamilyId, ParseFamilyError> {
        match s {
            "zoom" => Ok(FamilyId::Zoom),
            "webrtc" => Ok(FamilyId::Webrtc),
            other => Err(ParseFamilyError {
                rejected: other.to_string(),
            }),
        }
    }
}

/// User-facing family selection (`--family auto|zoom|webrtc`).
///
/// `parse(display(x)) == x` round-trips, mirroring
/// `SourceSpec`: labels printed in metrics and reports are re-parseable.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FamilySelect {
    /// Recognize every family, session-gated: Zoom parses eagerly
    /// (ports and P2P probing via the STUN tracker, exactly as before),
    /// WebRTC engages only on flows whose endpoints the STUN tracker
    /// has seen. On Zoom-only traffic this is byte-identical to
    /// `Only(FamilyId::Zoom)`.
    #[default]
    Auto,
    /// Restrict dissection to a single family.
    Only(FamilyId),
}

impl FamilySelect {
    /// Stable label: `auto` or the family label.
    pub fn label(self) -> &'static str {
        match self {
            FamilySelect::Auto => "auto",
            FamilySelect::Only(id) => id.label(),
        }
    }

    /// Whether packets of `family` may be classified under this selection.
    pub fn allows(self, family: FamilyId) -> bool {
        match self {
            FamilySelect::Auto => true,
            FamilySelect::Only(id) => id == family,
        }
    }

    /// The dissector [`Probe`] this selection maps to.
    ///
    /// `Auto` keeps the eager probe Zoom-only — identical to today's
    /// dissection, preserving byte-for-byte output on Zoom traffic — and
    /// relies on the analysis layer's session gating (STUN-tracked
    /// endpoints) to route WebRTC second chances. `Only(Webrtc)` probes
    /// WebRTC framing eagerly and disables Zoom parsing entirely.
    pub fn probe(self) -> Probe {
        match self {
            FamilySelect::Auto | FamilySelect::Only(FamilyId::Zoom) => Probe::default(),
            FamilySelect::Only(FamilyId::Webrtc) => Probe {
                zoom: false,
                p2p: P2pProbe::Off,
                webrtc: WebrtcProbe::Auto,
            },
        }
    }
}

impl fmt::Display for FamilySelect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for FamilySelect {
    type Err = ParseFamilyError;

    fn from_str(s: &str) -> Result<FamilySelect, ParseFamilyError> {
        if s == "auto" {
            return Ok(FamilySelect::Auto);
        }
        s.parse().map(FamilySelect::Only)
    }
}

/// The per-family dissection contract.
///
/// A family supplies three things:
///
/// 1. **Peek** ([`peek_class`](ProtocolFamily::peek_class)): a cheap
///    header/first-bytes prediction of the [`PacketClass`], which
///    `peek_batch` tags each record with. No analysis route reads the
///    tags any more — the analyzer peeks and classifies each record once,
///    in record order — so the prediction serves the benchmark's
///    `peek_batch` / `dissect_batch` probes and this crate's tests.
///    Predictions may be wrong — a misprediction costs a branch miss,
///    never a wrong result.
/// 2. **Classify** ([`classify_with`](ProtocolFamily::classify_with)):
///    the full payload parse, handing its reading to a continuation
///    where the parser left it ([`classify`](ProtocolFamily::classify)
///    returns it owned). `Some` claims the packet for this family
///    (including [`AppView::Opaque`] — "mine, but malformed", which stops
///    later families from seeing it); `None` passes it on.
/// 3. **Drop attribution** ([`malformed_label`](ProtocolFamily::malformed_label)):
///    the metric label under which this family's framing failures are
///    counted, so the conservation invariant holds *per family*.
///
/// Implementations are zero-sized and dispatched statically; the shared
/// STUN parse (both families signal sessions via STUN) runs once in the
/// dispatcher, before any family sees the payload.
pub trait ProtocolFamily {
    /// Which family this is.
    fn id(&self) -> FamilyId;

    /// Cheap peek-time class prediction from header fields and the first
    /// payload bytes; `None` when the packet shows none of this family's
    /// signals.
    fn peek_class(&self, five_tuple: &FiveTuple, payload: &[u8]) -> Option<PacketClass>;

    /// Full payload classification, handing the result to `then` where
    /// the parser left it. `Some` claims the packet for this family;
    /// `None` lets the next family try (and `then` is not called).
    /// `payload` is what the capture kept of a datagram that was
    /// `wire_len` bytes on the wire: fields are read from the one,
    /// lengths reported from the other.
    fn classify_with<R>(
        &self,
        five_tuple: &FiveTuple,
        payload: &[u8],
        wire_len: usize,
        probe: Probe,
        then: impl FnOnce(AppView<'_>) -> R,
    ) -> Option<R>;

    /// [`classify_with`](ProtocolFamily::classify_with), the result
    /// owned.
    fn classify(
        &self,
        five_tuple: &FiveTuple,
        payload: &[u8],
        wire_len: usize,
        probe: Probe,
    ) -> Option<App> {
        self.classify_with(five_tuple, payload, wire_len, probe, |app| app.to_app())
    }

    /// Metric label for payloads this family claimed but could not parse.
    fn malformed_label(&self) -> &'static str;
}

/// The Zoom family: ZME/SFU encapsulations, server and P2P framings.
/// First implementor of [`ProtocolFamily`]; behaviour is byte-identical
/// to the pre-trait dissector.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZoomFamily;

impl ProtocolFamily for ZoomFamily {
    fn id(&self) -> FamilyId {
        FamilyId::Zoom
    }

    fn peek_class(&self, five_tuple: &FiveTuple, payload: &[u8]) -> Option<PacketClass> {
        if five_tuple.involves_port(ZOOM_SFU_PORT) {
            Some(if payload.first() == Some(&zoom::SFU_TYPE_MEDIA) {
                PacketClass::ZmeMedia
            } else {
                PacketClass::ZmeControl
            })
        } else {
            None
        }
    }

    #[inline]
    fn classify_with<R>(
        &self,
        five_tuple: &FiveTuple,
        payload: &[u8],
        wire_len: usize,
        probe: Probe,
        then: impl FnOnce(AppView<'_>) -> R,
    ) -> Option<R> {
        if five_tuple.involves_port(ZOOM_SFU_PORT) {
            // Port 8801 is authoritatively Zoom server traffic: parse
            // failures still claim the packet (the caller attributes them
            // under this family's malformed label), exactly as before the
            // family refactor.
            // Matched by reference: the packet is read where the parser
            // wrote it, not moved out of the `Result` first.
            return Some(match &zoom::parse(payload, wire_len, Framing::Server) {
                Ok(z) => then(AppView::Zoom(Framing::Server, z)),
                Err(_) => then(AppView::Opaque),
            });
        }
        if probe.p2p == P2pProbe::Auto {
            if let Ok((framing, z)) = &zoom::parse_auto(payload, wire_len) {
                if z.rtp.is_some() || !z.rtcp.is_empty() {
                    return Some(then(AppView::Zoom(*framing, z)));
                }
            }
        }
        None
    }

    fn malformed_label(&self) -> &'static str {
        "malformed_zme"
    }
}

/// The native WebRTC family: DTLS-SRTP session framing with standard
/// RTP/RTCP ([`crate::webrtc`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WebrtcFamily;

impl ProtocolFamily for WebrtcFamily {
    fn id(&self) -> FamilyId {
        FamilyId::Webrtc
    }

    fn peek_class(&self, _five_tuple: &FiveTuple, payload: &[u8]) -> Option<PacketClass> {
        if webrtc::looks_like_dtls(payload) {
            Some(PacketClass::Dtls)
        } else if !payload.is_empty() && payload[0] >> 6 == crate::rtp::VERSION {
            // Any version-2 packet: SRTP or SRTCP — one dispatch class.
            Some(PacketClass::Rtp)
        } else {
            None
        }
    }

    fn classify_with<R>(
        &self,
        _five_tuple: &FiveTuple,
        payload: &[u8],
        wire_len: usize,
        _probe: Probe,
        then: impl FnOnce(AppView<'_>) -> R,
    ) -> Option<R> {
        let pdu = webrtc::classify(payload, wire_len).ok()?;
        Some(then(AppView::Webrtc(&pdu)))
    }

    fn malformed_label(&self) -> &'static str {
        "malformed_srtp"
    }
}

/// Shared STUN classification, run by the dispatcher before any family:
/// both families signal sessions via STUN, so it belongs to neither.
pub(crate) fn classify_stun(five_tuple: &FiveTuple, payload: &[u8]) -> Option<stun::Repr> {
    if five_tuple.involves_port(stun::STUN_PORT) || stun::looks_like_stun(payload) {
        if let Ok(p) = stun::Packet::new_checked(payload) {
            return stun::Repr::parse(&p).ok();
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Protocol;
    use std::net::{IpAddr, Ipv4Addr};

    fn tuple(src_port: u16, dst_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip: IpAddr::V4(Ipv4Addr::new(10, 8, 0, 3)),
            dst_ip: IpAddr::V4(Ipv4Addr::new(52, 202, 62, 1)),
            src_port,
            dst_port,
            protocol: Protocol::Udp,
        }
    }

    #[test]
    fn family_labels_and_indices_are_stable() {
        assert_eq!(FamilyId::Zoom.label(), "zoom");
        assert_eq!(FamilyId::Webrtc.label(), "webrtc");
        assert_eq!(FamilyId::Zoom.index(), 0);
        assert_eq!(FamilyId::Webrtc.index(), 1);
        for (i, id) in ALL_FAMILIES.iter().enumerate() {
            assert_eq!(id.index(), i);
        }
        assert_eq!(ZoomFamily.id(), FamilyId::Zoom);
        assert_eq!(WebrtcFamily.id(), FamilyId::Webrtc);
        assert_eq!(ZoomFamily.malformed_label(), "malformed_zme");
        assert_eq!(WebrtcFamily.malformed_label(), "malformed_srtp");
    }

    #[test]
    fn family_parsing_roundtrips() {
        for s in ["auto", "zoom", "webrtc"] {
            let sel: FamilySelect = s.parse().unwrap();
            assert_eq!(sel.to_string(), s);
        }
        assert_eq!("zoom".parse::<FamilyId>().unwrap(), FamilyId::Zoom);
        assert_eq!("webrtc".parse::<FamilyId>().unwrap(), FamilyId::Webrtc);
        let err = "meet".parse::<FamilySelect>().unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown family \"meet\" (expected auto, zoom, or webrtc)"
        );
        assert!("auto".parse::<FamilyId>().is_err());
        assert!("Zoom".parse::<FamilyId>().is_err()); // case-sensitive
    }

    #[test]
    fn select_allows_and_probe_mapping() {
        assert!(FamilySelect::Auto.allows(FamilyId::Zoom));
        assert!(FamilySelect::Auto.allows(FamilyId::Webrtc));
        assert!(FamilySelect::Only(FamilyId::Zoom).allows(FamilyId::Zoom));
        assert!(!FamilySelect::Only(FamilyId::Zoom).allows(FamilyId::Webrtc));

        // Auto and Only(Zoom) map to the exact pre-refactor probe: this
        // is what pins Zoom-only byte-identity at the dissector level.
        assert_eq!(FamilySelect::Auto.probe(), Probe::default());
        assert_eq!(FamilySelect::Only(FamilyId::Zoom).probe(), Probe::default());
        let w = FamilySelect::Only(FamilyId::Webrtc).probe();
        assert!(!w.zoom);
        assert_eq!(w.webrtc, WebrtcProbe::Auto);
    }

    #[test]
    fn zoom_family_peeks_and_claims_8801() {
        let ft = tuple(ZOOM_SFU_PORT, 50_111);
        assert_eq!(
            ZoomFamily.peek_class(&ft, &[zoom::SFU_TYPE_MEDIA, 0, 0]),
            Some(PacketClass::ZmeMedia)
        );
        assert_eq!(
            ZoomFamily.peek_class(&ft, &[0x01, 0, 0]),
            Some(PacketClass::ZmeControl)
        );
        assert_eq!(ZoomFamily.peek_class(&tuple(1, 2), &[0x01]), None);
        // Garbage on 8801 is claimed (Opaque), not passed on.
        assert_eq!(
            ZoomFamily.classify(&ft, b"garbage", 7, Probe::default()),
            Some(App::Opaque)
        );
        // Garbage elsewhere is passed on.
        assert_eq!(
            ZoomFamily.classify(&tuple(1, 2), b"garbage", 7, Probe::default()),
            None
        );
    }

    #[test]
    fn webrtc_family_peeks_dtls_and_rtp() {
        let ft = tuple(50_111, 61_234);
        let dtls = {
            let repr = webrtc::DtlsRepr {
                content_type: webrtc::DTLS_HANDSHAKE,
                version_minor: 0xfd,
                epoch: 0,
                sequence: 0,
                length: 0,
            };
            let mut buf = vec![0u8; repr.buffer_len()];
            repr.emit(&mut buf);
            buf
        };
        assert_eq!(WebrtcFamily.peek_class(&ft, &dtls), Some(PacketClass::Dtls));
        assert_eq!(
            WebrtcFamily.peek_class(&ft, &[0x80, 111]),
            Some(PacketClass::Rtp)
        );
        // ZME leading bytes never peek as WebRTC.
        for first in [5u8, 13, 15, 16, 33, 34] {
            assert_eq!(WebrtcFamily.peek_class(&ft, &[first, 0, 0]), None);
        }
        assert!(matches!(
            WebrtcFamily.classify(&ft, &dtls, dtls.len(), Probe::default()),
            Some(App::Webrtc(webrtc::Pdu::Dtls(_)))
        ));
        assert_eq!(
            WebrtcFamily.classify(&ft, b"not webrtc", 10, Probe::default()),
            None
        );
    }
}

//! Entropy-based header analysis — the reverse-engineering methodology of
//! §4.2 (Figs. 3–5) as a reusable toolkit.
//!
//! Given the payloads of one UDP flow, the analyzer extracts the value
//! sequence of every 8/16/32-bit block at every offset and classifies each
//! sequence by its statistical signature:
//!
//! * **Random** — near-maximal entropy over the full value space:
//!   encrypted payload;
//! * **Constant / Identifier** — one or a few horizontal lines: type
//!   fields, stream identifiers, flag masks;
//! * **Counter** — angled lines with small regular increments that wrap:
//!   sequence numbers;
//! * **TimestampLike** — monotonic with large, time-proportional
//!   increments: media timestamps.
//!
//! On top of the generic classifier sit two protocol-aware scanners that
//! replicate the paper's actual discovery steps: [`find_rtp_offsets`]
//! looks for the RTP signature (version bits, a 16-bit counter, a 32-bit
//! timestamp, a 32-bit identifier), and [`find_rtcp_by_ssrc`] locates RTCP
//! by searching remaining payloads for SSRC values learned from RTP.

use std::collections::HashMap;
use zoom_wire::rtp;

/// One extracted field-value sequence.
#[derive(Debug, Clone)]
pub struct FieldSeries {
    /// Field width in bytes (1, 2, or 4).
    pub width: usize,
    /// (capture time, value) pairs — the dots of Figs. 3–5.
    pub values: Vec<(u64, u64)>,
}

/// Statistical signature of a series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Signature {
    /// Shannon entropy normalized by the field width (1.0 = uniform).
    pub normalized_entropy: f64,
    /// Distinct values / total values.
    pub distinct_ratio: f64,
    /// Fraction of consecutive deltas that are non-decreasing (in the
    /// wrapped sense): 1.0 for counters and timestamps, ~0.5 for noise.
    pub monotonic_fraction: f64,
    /// Mean absolute wrapped delta between consecutive values.
    pub mean_abs_delta: f64,
    /// Fraction of consecutive deltas with |Δ| ≤ 64 — robustly high for
    /// counters even when several sub-stream counters overlap in one flow
    /// ("several lines with different slopes", §4.2.1).
    pub small_step_fraction: f64,
    /// Number of distinct values.
    pub distinct: usize,
}

/// Classification of a field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldClass {
    /// A single value.
    Constant,
    /// A small set of repeated values (type fields, identifiers, flags).
    Identifier,
    /// Monotonically increasing small steps, wrapping (sequence numbers).
    Counter,
    /// Monotonically increasing large steps (media timestamps).
    TimestampLike,
    /// High-entropy, near-uniform (encrypted data).
    Random,
    /// None of the above.
    Mixed,
}

/// Extract the series of `width`-byte big-endian values at `offset` from
/// each `(time, payload)`; payloads too short are skipped.
pub fn extract_series<'a>(
    packets: impl IntoIterator<Item = (u64, &'a [u8])>,
    offset: usize,
    width: usize,
) -> FieldSeries {
    assert!(matches!(width, 1 | 2 | 4), "supported widths: 1, 2, 4");
    let mut values = Vec::new();
    for (t, p) in packets {
        if p.len() >= offset + width {
            let v = match width {
                1 => u64::from(p[offset]),
                2 => u64::from(u16::from_be_bytes([p[offset], p[offset + 1]])),
                _ => u64::from(u32::from_be_bytes([
                    p[offset],
                    p[offset + 1],
                    p[offset + 2],
                    p[offset + 3],
                ])),
            };
            values.push((t, v));
        }
    }
    FieldSeries { width, values }
}

impl FieldSeries {
    /// Compute the statistical signature.
    pub fn signature(&self) -> Signature {
        let n = self.values.len();
        if n == 0 {
            return Signature {
                normalized_entropy: 0.0,
                distinct_ratio: 0.0,
                monotonic_fraction: 0.0,
                mean_abs_delta: 0.0,
                small_step_fraction: 0.0,
                distinct: 0,
            };
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        for &(_, v) in &self.values {
            *counts.entry(v).or_default() += 1;
        }
        let entropy: f64 = counts
            .values()
            .map(|&c| {
                let p = c as f64 / n as f64;
                -p * p.log2()
            })
            .sum();
        // Entropy ceiling: min(bits of field, log2(n)) — a short sample
        // cannot exhibit more than log2(n) bits.
        let max_entropy = (self.width as f64 * 8.0).min((n as f64).log2().max(1.0));
        let bits = self.width as u32 * 8;
        let modulus = 1u128 << bits;
        let half = (modulus / 2) as u64;
        let mut forward = 0usize;
        let mut small_steps = 0usize;
        let mut abs_delta_sum = 0f64;
        for w in self.values.windows(2) {
            let (a, b) = (w[0].1, w[1].1);
            // Wrapped signed delta: forward if the wrapped difference is
            // in the lower half of the value space.
            let d = (b as i128 - a as i128).rem_euclid(modulus as i128) as u64;
            let mag = if d < half {
                forward += 1;
                d
            } else {
                (modulus as u64).wrapping_sub(d)
            };
            if mag <= 64 {
                small_steps += 1;
            }
            abs_delta_sum += mag as f64;
        }
        let pairs = n.saturating_sub(1).max(1);
        Signature {
            normalized_entropy: (entropy / max_entropy).min(1.0),
            distinct_ratio: counts.len() as f64 / n as f64,
            monotonic_fraction: forward as f64 / pairs as f64,
            mean_abs_delta: abs_delta_sum / pairs as f64,
            small_step_fraction: small_steps as f64 / pairs as f64,
            distinct: counts.len(),
        }
    }

    /// Classify the series.
    pub fn classify(&self) -> FieldClass {
        let s = self.signature();
        if s.distinct <= 1 {
            return FieldClass::Constant;
        }
        if s.distinct <= 12 && s.distinct_ratio < 0.1 {
            return FieldClass::Identifier;
        }
        if s.monotonic_fraction > 0.85 && s.distinct_ratio > 0.05 {
            // Mostly non-decreasing: counter vs timestamp by step size —
            // sequence numbers advance by ~1 per packet, media timestamps
            // by hundreds-to-thousands of clock ticks per frame.
            if s.mean_abs_delta <= 8.0 {
                return FieldClass::Counter;
            }
            return FieldClass::TimestampLike;
        }
        // Random: near-maximal entropy AND the value set saturates what
        // the sample size could possibly show.
        let max_distinct =
            ((1u128 << (self.width as u32 * 8)) as f64).min(self.values.len() as f64);
        if s.normalized_entropy > 0.9 && s.distinct as f64 > 0.6 * max_distinct {
            return FieldClass::Random;
        }
        FieldClass::Mixed
    }
}

/// Scan a flow: classify every (offset, width) combination up to
/// `max_offset`, returning `(offset, width, class, signature)` rows — the
/// automated version of the paper's "hundreds of plots".
pub fn scan_flow(
    packets: &[(u64, Vec<u8>)],
    max_offset: usize,
) -> Vec<(usize, usize, FieldClass, Signature)> {
    let mut rows = Vec::new();
    for width in [1usize, 2, 4] {
        for offset in 0..=max_offset.saturating_sub(width) {
            let series = extract_series(
                packets.iter().map(|(t, p)| (*t, p.as_slice())),
                offset,
                width,
            );
            if series.values.len() < 8 {
                continue;
            }
            let sig = series.signature();
            rows.push((offset, width, series.classify(), sig));
        }
    }
    rows
}

/// Find offsets where a plausible RTP header begins, by the signature the
/// paper searched for: version bits `10`, a 16-bit counter at +2, a 32-bit
/// timestamp-like field at +4, and a 32-bit identifier at +8. Returns
/// offsets with the fraction of packets matching structurally.
pub fn find_rtp_offsets(packets: &[(u64, Vec<u8>)], max_offset: usize) -> Vec<(usize, f64)> {
    let mut hits = Vec::new();
    for offset in 0..=max_offset {
        // Group packets by structural match first (§4.2.2: "we took a
        // group of packets with the same RTP header offset and compared
        // them with groups of packets with a different offset") — other
        // packet types (RTCP, control) are interleaved in the same flow
        // and must not pollute the field series.
        let mut matching: Vec<(u64, &[u8])> = Vec::new();
        let mut total = 0usize;
        for (t, p) in packets {
            if p.len() < offset + rtp::HEADER_LEN {
                continue;
            }
            total += 1;
            if rtp::Packet::new_checked(&p[offset..]).is_ok() {
                matching.push((*t, p.as_slice()));
            }
        }
        if total < 8 || matching.len() * 2 < total {
            continue;
        }
        let structural = matching.len();
        // A single UDP flow multiplexes several streams ("several such
        // lines, often with different slopes, usually overlap at the
        // level of a UDP flow" — §4.2.1), so the field dynamics must be
        // evaluated per candidate stream: partition by the would-be SSRC
        // word at offset+8 and test each sizeable partition.
        let mut by_ssrc: HashMap<u32, Vec<(u64, &[u8])>> = HashMap::new();
        for &(t, p) in &matching {
            let v =
                u32::from_be_bytes([p[offset + 8], p[offset + 9], p[offset + 10], p[offset + 11]]);
            by_ssrc.entry(v).or_default().push((t, p));
        }
        let sizeable: Vec<&Vec<(u64, &[u8])>> = by_ssrc.values().filter(|g| g.len() >= 8).collect();
        if sizeable.is_empty() {
            continue;
        }
        // The identifier must partition the flow into few real streams
        // covering most packets; random bytes would shatter into
        // singleton groups.
        let covered: usize = sizeable.iter().map(|g| g.len()).sum();
        if sizeable.len() > 16 || covered * 2 < matching.len() {
            continue;
        }
        let ok = sizeable.iter().all(|group| {
            let seq = extract_series(group.iter().copied(), offset + 2, 2);
            let ts = extract_series(group.iter().copied(), offset + 4, 4);
            let seq_sig = seq.signature();
            // Sub-streams (main + FEC) still interleave within one SSRC:
            // require mostly-small steps, not a perfect counter.
            let seq_ok = seq_sig.small_step_fraction > 0.4 && seq_sig.distinct > 4;
            let ts_sig = ts.signature();
            let ts_ok = ts_sig.monotonic_fraction > 0.7 || ts_sig.distinct <= 12;
            seq_ok && ts_ok
        });
        if ok {
            hits.push((offset, structural as f64 / total as f64));
        }
    }
    hits
}

/// Search payloads for known SSRC values at 4-byte alignment — how the
/// paper located RTCP once RTP was understood. Returns, per offset, the
/// number of packets whose word at the offset is one of the SSRCs.
pub fn find_rtcp_by_ssrc(packets: &[(u64, Vec<u8>)], ssrcs: &[u32]) -> HashMap<usize, usize> {
    let mut by_offset: HashMap<usize, usize> = HashMap::new();
    for (_, p) in packets {
        for (off, _) in zoom_wire::rtcp::scan_for_ssrcs(p, ssrcs) {
            *by_offset.entry(off).or_default() += 1;
        }
    }
    by_offset
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn series_of(values: Vec<u64>, width: usize) -> FieldSeries {
        FieldSeries {
            width,
            values: values
                .into_iter()
                .enumerate()
                .map(|(i, v)| (i as u64, v))
                .collect(),
        }
    }

    #[test]
    fn constant_detected() {
        assert_eq!(series_of(vec![7; 100], 1).classify(), FieldClass::Constant);
    }

    #[test]
    fn identifier_detected() {
        // A few repeated type values, like the media-encapsulation type.
        let vals: Vec<u64> = (0..300).map(|i| [13u64, 15, 16][i % 3]).collect();
        assert_eq!(series_of(vals, 1).classify(), FieldClass::Identifier);
    }

    #[test]
    fn counter_detected_with_wrap() {
        let vals: Vec<u64> = (0..1_000u64).map(|i| (65_500 + i) % 65_536).collect();
        assert_eq!(series_of(vals, 2).classify(), FieldClass::Counter);
    }

    #[test]
    fn timestamp_detected() {
        // 90 kHz timestamps at 30 fps: +3000 per step.
        let vals: Vec<u64> = (0..500u64).map(|i| i * 3_000).collect();
        assert_eq!(series_of(vals, 4).classify(), FieldClass::TimestampLike);
    }

    #[test]
    fn random_detected() {
        let mut rng = StdRng::seed_from_u64(1);
        let vals: Vec<u64> = (0..2_000).map(|_| u64::from(rng.gen::<u32>())).collect();
        assert_eq!(series_of(vals, 4).classify(), FieldClass::Random);
    }

    #[test]
    fn random_bytes_detected_at_width_1() {
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<u64> = (0..2_000).map(|_| u64::from(rng.gen::<u8>())).collect();
        assert_eq!(series_of(vals, 1).classify(), FieldClass::Random);
    }

    #[test]
    fn extract_skips_short_packets() {
        let packets: Vec<(u64, Vec<u8>)> = vec![(0, vec![1, 2, 3]), (1, vec![1, 2, 3, 4, 5])];
        let s = extract_series(packets.iter().map(|(t, p)| (*t, p.as_slice())), 2, 2);
        assert_eq!(s.values, vec![(1, 0x0304)]);
    }

    #[test]
    fn rtp_offset_found_in_synthetic_flow() {
        // Build payloads: 4 junk bytes, then a real RTP header, then
        // random payload.
        let mut rng = StdRng::seed_from_u64(3);
        let packets: Vec<(u64, Vec<u8>)> = (0..200u64)
            .map(|i| {
                let repr = rtp::Repr {
                    marker: i % 30 == 0,
                    payload_type: 98,
                    sequence_number: 100 + i as u16,
                    timestamp: 5_000 + (i as u32 / 2) * 3_000,
                    ssrc: 0x21,
                    csrc_count: 0,
                    has_extension: false,
                };
                let mut buf = vec![0u8; 4 + repr.header_len() + 50];
                buf[0] = 5;
                buf[1] = 16;
                repr.emit(&mut rtp::Packet::new_unchecked(&mut buf[4..4 + 12]));
                rng.fill(&mut buf[16..]);
                (i * 33_000_000, buf)
            })
            .collect();
        let hits = find_rtp_offsets(&packets, 8);
        assert!(
            hits.iter().any(|&(off, frac)| off == 4 && frac > 0.9),
            "hits: {hits:?}"
        );
        // And the junk offset 0 (version 0) is not reported.
        assert!(!hits.iter().any(|&(off, _)| off == 0));
    }

    #[test]
    fn scan_flow_classifies_known_layout() {
        // Payload: [0]=type id (identifier), [1..3]=counter, [3..7]=junk
        // random.
        let mut rng = StdRng::seed_from_u64(4);
        let packets: Vec<(u64, Vec<u8>)> = (0..500u64)
            .map(|i| {
                let mut p = vec![0u8; 7];
                p[0] = if i % 4 == 0 { 15 } else { 16 };
                p[1..3].copy_from_slice(&(i as u16).to_be_bytes());
                rng.fill(&mut p[3..]);
                (i, p)
            })
            .collect();
        let rows = scan_flow(&packets, 7);
        let class_at = |off: usize, w: usize| {
            rows.iter()
                .find(|r| r.0 == off && r.1 == w)
                .map(|r| r.2)
                .unwrap()
        };
        assert_eq!(class_at(0, 1), FieldClass::Identifier);
        assert_eq!(class_at(1, 2), FieldClass::Counter);
        assert_eq!(class_at(3, 4), FieldClass::Random);
    }

    #[test]
    fn rtcp_ssrc_scan_counts_offsets() {
        let mut p = vec![0u8; 16];
        p[4..8].copy_from_slice(&0x42u32.to_be_bytes());
        let packets = vec![(0u64, p.clone()), (1, p)];
        let hits = find_rtcp_by_ssrc(&packets, &[0x42]);
        assert_eq!(hits.get(&4), Some(&2));
    }
}

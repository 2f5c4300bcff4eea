//! Internet checksum (RFC 1071) and transport pseudo-header helpers.
//!
//! Used by [`crate::ipv4`], [`crate::udp`], and [`crate::tcp`] to verify
//! checksums on captured packets and to fill them in when the simulator
//! emits synthetic traffic.

use std::net::Ipv4Addr;

/// Incremental one's-complement sum accumulator.
///
/// Fold order does not matter for the one's-complement sum, so data can be
/// added in arbitrary chunks (header, pseudo-header, payload) as long as
/// each chunk starts at an even offset of the checksummed bytes.
///
/// Two properties of the sum (RFC 1071 §2) make it cheap to compute in
/// wide words. Since 2¹⁶ ≡ 1 (mod 2¹⁶ − 1), a word of any even width is
/// congruent to the sum of its 16-bit halves, so whole words can be added
/// and the carries folded once at the end. And the sum is independent of
/// byte order up to a final byte swap, so the words are read in the
/// host's little-endian order: [`Summer::add`] sums 32-bit words into a
/// 64-bit accumulator, which compiles to vector adds, and
/// [`Summer::finish`] swaps the folded result back. The accumulator keeps
/// its end-around carry, so no input length overflows it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Summer {
    /// The sum of the little-endian 16-bit words added so far, modulo
    /// 2¹⁶ − 1; zero only if every word was.
    sum: u64,
}

impl Summer {
    /// Create an accumulator with a zero sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// One's-complement addition: a carry out of bit 63 re-enters at
    /// bit 0. The result is zero only when both operands are.
    #[inline]
    fn add_word(&mut self, word: u64) {
        let (sum, carry) = self.sum.overflowing_add(word);
        self.sum = sum + u64::from(carry);
    }

    /// Add a byte slice; an odd trailing byte is padded with zero as per
    /// RFC 1071.
    pub fn add(&mut self, data: &[u8]) {
        // 2^28 words of under 2^32 each cannot overflow the block sum.
        for block in data.chunks(1 << 30) {
            let mut words = block.chunks_exact(4);
            let mut sum = 0u64;
            for w in &mut words {
                sum += u64::from(u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
            }
            // Up to three trailing bytes, zero-padded to a word: the
            // padding is the odd byte's RFC 1071 zero.
            let tail = words
                .remainder()
                .iter()
                .rev()
                .fold(0u32, |word, &b| word << 8 | u32::from(b));
            sum += u64::from(tail);
            self.add_word(sum);
        }
    }

    /// Append `len` bytes drawn from a stream of 64-bit words to `buf`
    /// and add them in the same pass: each word goes in little-endian,
    /// eight bytes at a time, and a short tail takes the leading bytes of
    /// one more word — the layout `rand`'s `fill_bytes` writes, so a
    /// generator's bytes are summed as they are drawn. The bytes count
    /// where they land: `buf` must start at an even offset of the
    /// checksummed data, the appended bytes may start at an odd one.
    #[inline]
    pub fn extend_and_add(
        &mut self,
        buf: &mut Vec<u8>,
        len: usize,
        mut next_word: impl FnMut() -> u64,
    ) {
        let start = buf.len();
        buf.resize(start + len, 0);
        let mut sum = Summer::new();
        let mut chunks = buf[start..].chunks_exact_mut(8);
        for chunk in &mut chunks {
            let word = next_word();
            chunk.copy_from_slice(&word.to_le_bytes());
            sum.add_word(word);
        }
        let tail = chunks.into_remainder();
        if !tail.is_empty() {
            let word = next_word() & (u64::MAX >> (64 - 8 * tail.len()));
            tail.copy_from_slice(&word.to_le_bytes()[..tail.len()]);
            sum.add_word(word);
        }
        if start % 2 == 1 {
            // One byte later, every byte changes place in its 16-bit
            // word: the sum times 2^8, which modulo 2^16 - 1 is a byte
            // swap of the folded value.
            sum.sum = u64::from(sum.fold().rotate_left(8));
        }
        self.merge(sum);
    }

    /// Add a single big-endian `u16` word.
    pub fn add_u16(&mut self, word: u16) {
        self.add_word(u64::from(word.swap_bytes()));
    }

    /// Add the sum of another accumulator, as if its bytes had been
    /// added here. Exact when those bytes start at an even offset.
    pub fn merge(&mut self, other: Summer) {
        self.add_word(other.sum);
    }

    /// The sum folded to 16 bits with end-around carry: zero only if the
    /// sum was.
    fn fold(self) -> u16 {
        let mut sum = self.sum;
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        sum as u16
    }

    /// Finish: fold carries and return the one's complement.
    pub fn finish(self) -> u16 {
        !self.fold().swap_bytes()
    }
}

/// Checksum of a single contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut s = Summer::new();
    s.add(data);
    s.finish()
}

/// Verify a buffer whose checksum field is already in place: the folded sum
/// over the whole buffer must be zero.
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// IPv4 pseudo-header sum for UDP/TCP (RFC 768 / RFC 793).
pub fn pseudo_header_v4(src: Ipv4Addr, dst: Ipv4Addr, protocol: u8, length: u16) -> Summer {
    let mut s = Summer::new();
    s.add(&src.octets());
    s.add(&dst.octets());
    s.add_u16(u16::from(protocol));
    s.add_u16(length);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_reference_vector() {
        // Example from RFC 1071 §3: 00 01 f2 03 f4 f5 f6 f7 -> sum 0xddf2,
        // checksum is its complement.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_is_zero_padded() {
        assert_eq!(checksum(&[0xFF]), !0xFF00);
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00, 0x00, 0x40, 0x11];
        // Append a correct checksum.
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn chunked_equals_contiguous() {
        let data: Vec<u8> = (0u8..=250).collect();
        let whole = checksum(&data);
        let mut s = Summer::new();
        // Split on an even boundary: one's-complement addition is
        // associative only when chunks keep 16-bit alignment.
        s.add(&data[..100]);
        s.add(&data[100..]);
        assert_eq!(s.finish(), whole);
    }

    #[test]
    fn long_inputs_do_not_overflow() {
        // 100 000 words of 0xFFFF: the sum is a nonzero multiple of
        // 2^16 - 1, so it folds to 0xFFFF and the checksum is zero.
        let data = vec![0xFF; 200_000];
        assert_eq!(checksum(&data), 0x0000);
        assert_eq!(checksum(&data), reference(&[&data]));
    }

    /// RFC 1071 the long way: one 16-bit word at a time, each slice
    /// padding its own odd tail.
    fn reference(slices: &[&[u8]]) -> u16 {
        let mut sum: u64 = 0;
        for slice in slices {
            for pair in slice.chunks(2) {
                sum += u64::from(u16::from_be_bytes([pair[0], *pair.get(1).unwrap_or(&0)]));
            }
        }
        while sum >> 16 != 0 {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    /// Up to 300 KiB, sometimes with every byte's high nibble set so the
    /// words sit near 0xFFFF, and up to five cut points into it.
    fn pieces(mut data: Vec<u8>, high: bool, cuts: &[usize], even: bool) -> Vec<Vec<u8>> {
        if high {
            for b in &mut data {
                *b |= 0xF0;
            }
        }
        let mut at: Vec<usize> = cuts
            .iter()
            .map(|c| c % (data.len() + 1))
            .map(|c| if even { c & !1 } else { c })
            .collect();
        at.sort_unstable();
        let mut out = Vec::new();
        let mut from = 0;
        for to in at {
            out.push(data[from..to].to_vec());
            from = to;
        }
        out.push(data[from..].to_vec());
        out
    }

    proptest::proptest! {
        #[test]
        fn split_adds_match_the_reference(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..300 * 1024),
            high: bool,
            cuts in proptest::collection::vec(proptest::arbitrary::any::<usize>(), 0..6),
        ) {
            let pieces = pieces(data, high, &cuts, false);
            let slices: Vec<&[u8]> = pieces.iter().map(Vec::as_slice).collect();
            let mut s = Summer::new();
            for piece in &slices {
                s.add(piece);
            }
            proptest::prop_assert_eq!(s.finish(), reference(&slices));
        }

        #[test]
        fn extend_and_add_sums_what_it_appends(
            prefix in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..64),
            len in 0usize..2048,
            seed: u64,
        ) {
            let step = |state: &mut u64| {
                *state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                *state
            };
            let mut buf = prefix.clone();
            let mut s = Summer::new();
            s.add(&prefix);
            let mut state = seed;
            s.extend_and_add(&mut buf, len, || step(&mut state));
            // The words again, laid out little-endian and cut to `len`.
            let mut state = seed;
            let words: Vec<u8> = (0..len.div_ceil(8))
                .flat_map(|_| step(&mut state).to_le_bytes())
                .collect();
            proptest::prop_assert_eq!(&buf[..prefix.len()], &prefix[..]);
            proptest::prop_assert_eq!(&buf[prefix.len()..], &words[..len]);
            // An odd prefix pads its last byte for `add`: the reference
            // sums the whole buffer, so the check covers odd offsets.
            proptest::prop_assert_eq!(s.finish(), reference(&[&buf]));
        }

        #[test]
        fn merged_even_offset_sums_match_one_add(
            data in proptest::collection::vec(proptest::arbitrary::any::<u8>(), 0..300 * 1024),
            high: bool,
            cuts in proptest::collection::vec(proptest::arbitrary::any::<usize>(), 0..6),
        ) {
            let pieces = pieces(data, high, &cuts, true);
            let whole = pieces.concat();
            let mut merged = Summer::new();
            for piece in &pieces {
                let mut part = Summer::new();
                part.add(piece);
                merged.merge(part);
            }
            proptest::prop_assert_eq!(merged.finish(), checksum(&whole));
            proptest::prop_assert_eq!(checksum(&whole), reference(&[&whole]));
        }
    }

    #[test]
    fn pseudo_header_v4_known_udp() {
        // Hand-computed: 10.0.0.1 -> 10.0.0.2, UDP(17), len 8.
        let mut s = pseudo_header_v4(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            17,
            8,
        );
        s.add(&[0u8; 0]);
        // 0x0a00 + 0x0001 + 0x0a00 + 0x0002 + 0x0011 + 0x0008 = 0x141c
        assert_eq!(s.finish(), !0x141c);
    }
}

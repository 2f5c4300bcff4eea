//! Sequence-number analysis: loss, retransmission/duplicates, and
//! reordering (§5.5 of the paper).
//!
//! Zoom retransmits lost packets up to twice *reusing the original RTP
//! sequence number*, so a passive monitor mostly sees duplicates rather
//! than holes; remaining holes indicate packets lost on every attempt (or
//! dropped upstream of the vantage point). The paper is explicit that the
//! sequence numbers alone cannot disambiguate retransmissions from
//! reordering with certainty — this tracker reports exactly the quantities
//! that *are* observable: duplicates, out-of-order arrivals, and
//! unaccounted gaps.

/// Summary counters for one RTP sub-stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Total packets observed (including duplicates).
    pub received: u64,
    /// Packets whose sequence number was already seen — retransmission
    /// duplicates.
    pub duplicates: u64,
    /// Packets that arrived after a higher sequence number (late/
    /// reordered or a retransmission of a packet lost before the tap).
    pub reordered: u64,
    /// Sequence numbers in the covered range never observed at all.
    pub missing: u64,
    /// Distinct sequence numbers observed.
    pub unique: u64,
}

impl SeqStats {
    /// Fraction of the sequence space covered that never arrived.
    pub fn loss_fraction(&self) -> f64 {
        let expected = self.unique + self.missing;
        if expected == 0 {
            0.0
        } else {
            self.missing as f64 / expected as f64
        }
    }

    /// Fraction of received packets that were duplicates.
    pub fn duplicate_fraction(&self) -> f64 {
        if self.received == 0 {
            0.0
        } else {
            self.duplicates as f64 / self.received as f64
        }
    }
}

/// Window size (in sequence numbers) within which late arrivals can still
/// be recognized; beyond it a hole is counted as missing.
const WINDOW: usize = 2_048;

/// Up to [`WINDOW`] seen-bits, oldest first, in a fixed ring: a
/// sub-stream's sequence state has one size however long it runs.
#[derive(Debug, Clone)]
struct SeenBits {
    words: [u64; WINDOW / 64],
    /// Ring position of the oldest bit.
    head: usize,
    len: usize,
}

impl SeenBits {
    fn new() -> SeenBits {
        SeenBits {
            words: [0; WINDOW / 64],
            head: 0,
            len: 0,
        }
    }

    /// Word and mask of the `i`-th oldest bit.
    fn slot(&self, i: usize) -> (usize, u64) {
        let at = (self.head + i) % WINDOW;
        (at / 64, 1 << (at % 64))
    }

    fn get(&self, i: usize) -> bool {
        let (w, mask) = self.slot(i);
        self.words[w] & mask != 0
    }

    fn set(&mut self, i: usize) {
        let (w, mask) = self.slot(i);
        self.words[w] |= mask;
    }

    /// Remove and return the oldest bit.
    fn pop_front(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let seen = self.get(0);
        self.head = (self.head + 1) % WINDOW;
        self.len -= 1;
        Some(seen)
    }

    /// Append a bit; when the ring is full the oldest bit leaves first,
    /// and is returned.
    fn push_back(&mut self, seen: bool) -> Option<bool> {
        let left = if self.len == WINDOW {
            self.pop_front()
        } else {
            None
        };
        let (w, mask) = self.slot(self.len);
        if seen {
            self.words[w] |= mask;
        } else {
            self.words[w] &= !mask;
        }
        self.len += 1;
        left
    }
}

/// Tracks one sub-stream's 16-bit sequence space with wraparound.
#[derive(Debug)]
pub struct SeqTracker {
    stats: SeqStats,
    /// Extended (unwrapped) highest sequence seen.
    highest_ext: Option<u64>,
    /// Seen-bits for the trailing window ending at `highest_ext`.
    window: SeenBits,
}

impl Default for SeqTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SeqTracker {
    /// Fresh tracker.
    pub fn new() -> SeqTracker {
        SeqTracker {
            stats: SeqStats::default(),
            highest_ext: None,
            window: SeenBits::new(),
        }
    }

    /// Feed one observed sequence number.
    pub fn on_sequence(&mut self, seq: u16) {
        self.stats.received += 1;
        let Some(highest) = self.highest_ext else {
            self.highest_ext = Some(u64::from(seq) + 65_536);
            self.window.push_back(true);
            self.stats.unique += 1;
            return;
        };
        // Unwrap: interpret seq as the nearest value to `highest`.
        let base = highest & 0xFFFF;
        let diff = i64::from(seq.wrapping_sub(base as u16) as i16);
        let ext = highest.wrapping_add_signed(diff);

        if ext > highest {
            // Forward progress: extend the window, marking skipped
            // sequence numbers unseen for now. Sequence numbers pushed out
            // of the window retire; holes retired unseen become confirmed
            // missing.
            let advance = (ext - highest) as usize;
            let skipped = std::iter::repeat_n(false, advance.saturating_sub(1).min(WINDOW));
            for seen in skipped.chain([true]) {
                if let Some(false) = self.window.push_back(seen) {
                    self.stats.missing += 1;
                }
            }
            self.stats.unique += 1;
            self.highest_ext = Some(ext);
        } else {
            // ext <= highest: late arrival.
            let offset = (highest - ext) as usize;
            if offset < self.window.len {
                let idx = self.window.len - 1 - offset;
                if self.window.get(idx) {
                    self.stats.duplicates += 1;
                } else {
                    self.window.set(idx);
                    self.stats.unique += 1;
                    self.stats.reordered += 1;
                }
            } else {
                // Too old to judge; count as a duplicate-ish late packet.
                self.stats.duplicates += 1;
            }
        }
    }

    /// Snapshot of the counters; call [`SeqTracker::finish`] for final
    /// numbers including holes still inside the window.
    pub fn stats(&self) -> SeqStats {
        self.stats
    }

    /// Close the stream: unseen slots still in the window become missing.
    pub fn finish(mut self) -> SeqStats {
        while let Some(seen) = self.window.pop_front() {
            if !seen {
                self.stats.missing += 1;
            }
        }
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream_is_clean() {
        let mut t = SeqTracker::new();
        for s in 0..1_000u16 {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.received, 1_000);
        assert_eq!(st.unique, 1_000);
        assert_eq!(st.duplicates, 0);
        assert_eq!(st.reordered, 0);
        assert_eq!(st.missing, 0);
        assert_eq!(st.loss_fraction(), 0.0);
    }

    #[test]
    fn duplicates_counted() {
        let mut t = SeqTracker::new();
        for s in [1u16, 2, 3, 2, 3, 4] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.duplicates, 2);
        assert_eq!(st.unique, 4);
        assert!(st.duplicate_fraction() > 0.3);
    }

    #[test]
    fn reordering_counted_once_filled() {
        let mut t = SeqTracker::new();
        for s in [1u16, 2, 4, 3, 5] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.reordered, 1);
        assert_eq!(st.missing, 0);
        assert_eq!(st.unique, 5);
    }

    #[test]
    fn holes_become_missing() {
        let mut t = SeqTracker::new();
        for s in [1u16, 2, /* 3 lost */ 4, 5] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.missing, 1);
        assert!(st.loss_fraction() > 0.15 && st.loss_fraction() < 0.25);
    }

    #[test]
    fn wraparound_handled() {
        let mut t = SeqTracker::new();
        for s in [65_533u16, 65_534, 65_535, 0, 1, 2] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.unique, 6);
        assert_eq!(st.missing, 0);
        assert_eq!(st.reordered, 0);
    }

    #[test]
    fn big_forward_jump_bounded() {
        let mut t = SeqTracker::new();
        t.on_sequence(0);
        t.on_sequence(10_000); // jump larger than the window
        let st = t.finish();
        // Holes are capped at the window size; no panic, sane numbers.
        assert_eq!(st.unique, 2);
        assert!(st.missing > 0);
        assert!(st.missing <= WINDOW as u64);
    }

    /// The seen-window as a queue of bools that grows past [`WINDOW`] and
    /// is then trimmed from the front — what [`SeenBits`] replaced.
    fn queue_model(seqs: &[u16]) -> SeqStats {
        use std::collections::VecDeque;
        let mut stats = SeqStats::default();
        let mut highest: Option<u64> = None;
        let mut window: VecDeque<bool> = VecDeque::new();
        for &seq in seqs {
            stats.received += 1;
            let Some(h) = highest else {
                highest = Some(u64::from(seq) + 65_536);
                window.push_back(true);
                stats.unique += 1;
                continue;
            };
            let diff = i64::from(seq.wrapping_sub(h as u16) as i16);
            let ext = h.wrapping_add_signed(diff);
            if ext > h {
                for _ in 0..((ext - h) as usize).saturating_sub(1).min(WINDOW) {
                    window.push_back(false);
                }
                window.push_back(true);
                stats.unique += 1;
                highest = Some(ext);
                while window.len() > WINDOW {
                    if let Some(false) = window.pop_front() {
                        stats.missing += 1;
                    }
                }
            } else if let Some(idx) = (window.len() - 1).checked_sub((h - ext) as usize) {
                if window[idx] {
                    stats.duplicates += 1;
                } else {
                    window[idx] = true;
                    stats.unique += 1;
                    stats.reordered += 1;
                }
            } else {
                stats.duplicates += 1;
            }
        }
        stats.missing += window.iter().filter(|&&seen| !seen).count() as u64;
        stats
    }

    #[test]
    fn bit_ring_counts_what_the_queue_counted() {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        for run in 0..200 {
            let mut seq = draw(65_536) as u16;
            let seqs: Vec<u16> = (0..3_000)
                .map(|_| {
                    // Mostly the next number; now and then a hole, a
                    // step back, a jump past the window, or a wrap.
                    seq = match draw(40) {
                        0 => seq.wrapping_add(2 + draw(30) as u16),
                        1 => seq.wrapping_sub(draw(3_000) as u16),
                        2 if run % 4 == 0 => seq.wrapping_add(2_000 + draw(20_000) as u16),
                        _ => seq.wrapping_add(1),
                    };
                    seq
                })
                .collect();
            let mut t = SeqTracker::new();
            for &s in &seqs {
                t.on_sequence(s);
            }
            assert_eq!(t.finish(), queue_model(&seqs), "run {run}");
        }
    }

    #[test]
    fn late_beyond_window_is_counted_but_not_reordered() {
        let mut t = SeqTracker::new();
        t.on_sequence(5_000);
        for s in 5_001..8_000u16 {
            t.on_sequence(s);
        }
        t.on_sequence(5_000); // ancient duplicate, far outside the window
        let st = t.stats();
        assert_eq!(st.duplicates, 1);
    }
}

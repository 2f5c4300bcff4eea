//! Sequence-number analysis: loss, retransmission/duplicates, and
//! reordering (§5.5 of the paper).
//!
//! Zoom retransmits lost packets up to twice *reusing the original RTP
//! sequence number*, so a passive monitor mostly sees duplicates rather
//! than holes; remaining holes indicate packets lost on every attempt (or
//! dropped upstream of the vantage point). The paper is explicit that the
//! sequence numbers alone cannot disambiguate retransmissions from
//! reordering with certainty — this tracker reports two quantities that
//! *are* observable: duplicates and unaccounted gaps. A late arrival
//! that fills a hole is neither.

/// Summary counters for one RTP sub-stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SeqStats {
    /// Packets whose sequence number was already seen — retransmission
    /// duplicates.
    pub duplicates: u64,
    /// Sequence numbers in the covered range never observed at all.
    pub missing: u64,
}

/// Window size (in sequence numbers) within which late arrivals can still
/// be recognized; beyond it a hole is counted as missing.
const WINDOW: u64 = 2_048;

/// Most runs of holes a tracker keeps as a list: 64 four-byte runs are
/// the 256 bytes of a seen-bit per window slot, which takes over past it.
const MAX_RUNS: usize = (WINDOW / 8) as usize / size_of::<Run>();

/// A run of consecutive holes: its first sequence number's low 16 bits
/// (the window is far shorter than 2^16, so that names it) and length.
#[derive(Debug, Clone, Copy)]
struct Run {
    start: u16,
    len: u16,
}

/// The holes of a window — its sequence numbers not seen yet.
#[derive(Debug)]
enum Holes {
    /// Ascending, disjoint runs; at most [`MAX_RUNS`] of them.
    Runs(Vec<Run>),
    /// One bit per window slot, set for a hole: sequence number `n` is
    /// bit `n % WINDOW`.
    Bits(Box<[u64; (WINDOW / 64) as usize]>),
}

/// Tracks one sub-stream's 16-bit sequence space with wraparound.
///
/// It keeps a window of the last 2 048 sequence numbers up to the
/// highest one seen, and of that window only its holes — the numbers not
/// seen yet: at the 0–5 % loss measured for Zoom, a few runs. A run
/// leaves the window exactly when a queue of seen-bits trimmed to 2 048
/// would pop it, so [`SeqTracker::stats`] counts what that queue counts
/// after every packet. However lossy the input, the holes take at most
/// 256 bytes of heap: a list of at most 64 four-byte runs, or a bit per
/// window slot once the list would need more (back to an empty list when
/// the last hole goes).
#[derive(Debug)]
pub struct SeqTracker {
    stats: SeqStats,
    /// Extended (unwrapped) highest sequence seen; 0 before the first
    /// packet (extended numbers start at 2^16).
    highest: u64,
    /// Sequence numbers in the window, which ends at `highest`.
    len: u16,
    /// Holes in the window.
    hole_count: u16,
    holes: Holes,
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
            highest: 0,
            len: 0,
            hole_count: 0,
            holes: Holes::Runs(Vec::new()),
        }
    }

    /// Feed one observed sequence number.
    pub fn on_sequence(&mut self, seq: u16) {
        let highest = self.highest;
        if highest == 0 {
            self.highest = u64::from(seq) + 65_536;
            self.len = 1;
            return;
        }
        // Unwrap: interpret seq as the nearest value to `highest`.
        let diff = i64::from(seq.wrapping_sub(highest as u16) as i16);
        let ext = highest.wrapping_add_signed(diff);

        if ext > highest {
            self.advance(ext);
        } else if highest - ext < u64::from(self.len) {
            // A late arrival inside the window: it fills a hole, or it
            // was seen before.
            if !self.fill(ext) {
                self.stats.duplicates += 1;
            }
        } else {
            // Too old to judge; count as a duplicate-ish late packet.
            self.stats.duplicates += 1;
        }
    }

    /// Forward progress to `ext`: the sequence numbers skipped become
    /// holes (at most [`WINDOW`] of them, the nearest), and those that
    /// leave the window retire — unseen ones as confirmed missing.
    fn advance(&mut self, ext: u64) {
        let highest = self.highest;
        if ext == highest + 1 && self.hole_count == 0 {
            // The next number, nothing to retire: the common case.
            self.highest = ext;
            self.len = (self.len + 1).min(WINDOW as u16);
            return;
        }
        let skipped_from = (highest + 1).max(ext - WINDOW);
        let len = (u64::from(self.len) + ext + 1 - skipped_from).min(WINDOW);
        let low = ext + 1 - len;
        let mut missing = self.retire(low);
        // Skipped numbers that leave the window at once.
        missing += low.saturating_sub(skipped_from);
        self.stats.missing += missing;
        self.highest = ext;
        self.len = len as u16;
        let from = skipped_from.max(low);
        if from < ext {
            self.add_run(from, ext - from);
        }
    }

    /// Drop the holes below `low` from the window; how many there were.
    fn retire(&mut self, low: u64) -> u64 {
        if self.hole_count == 0 {
            return 0;
        }
        let highest = self.highest;
        let window_low = highest + 1 - u64::from(self.len);
        let gone = match &mut self.holes {
            Holes::Runs(runs) => {
                let (mut gone, mut whole) = (0, 0);
                for run in runs.iter_mut() {
                    let start = unwrap(highest, run.start);
                    if start >= low {
                        break;
                    }
                    let end = start + u64::from(run.len);
                    if end <= low {
                        gone += u64::from(run.len);
                        whole += 1;
                    } else {
                        gone += low - start;
                        run.len = (end - low) as u16;
                        run.start = low as u16;
                        break;
                    }
                }
                runs.drain(..whole);
                gone
            }
            Holes::Bits(bits) => mark(
                bits,
                window_low,
                low.min(highest + 1).saturating_sub(window_low),
                false,
            ),
        };
        self.hole_count -= gone as u16;
        self.holes_left();
        gone
    }

    /// Append the holes `from .. from + n`, above every hole held.
    fn add_run(&mut self, from: u64, n: u64) {
        self.hole_count += n as u16;
        if let Holes::Runs(runs) = &mut self.holes {
            if runs.len() < MAX_RUNS {
                runs.push(Run {
                    start: from as u16,
                    len: n as u16,
                });
                return;
            }
            self.switch_to_bits();
        }
        if let Holes::Bits(bits) = &mut self.holes {
            mark(bits, from, n, true);
        }
    }

    /// Mark `ext`, inside the window, seen: whether it was a hole.
    fn fill(&mut self, ext: u64) -> bool {
        let highest = self.highest;
        match &mut self.holes {
            Holes::Runs(runs) => {
                let full = runs.len() == MAX_RUNS;
                let at = runs.partition_point(|r| unwrap(highest, r.start) <= ext);
                let Some(run) = at.checked_sub(1).map(|i| &mut runs[i]) else {
                    return false;
                };
                let start = unwrap(highest, run.start);
                let end = start + u64::from(run.len);
                if ext >= end {
                    return false;
                }
                if run.len == 1 {
                    runs.remove(at - 1);
                } else if ext == start {
                    run.start = run.start.wrapping_add(1);
                    run.len -= 1;
                } else if ext == end - 1 {
                    run.len -= 1;
                } else if !full {
                    run.len = (ext - start) as u16;
                    let rest = Run {
                        start: (ext + 1) as u16,
                        len: (end - ext - 1) as u16,
                    };
                    runs.insert(at, rest);
                } else {
                    self.switch_to_bits();
                    return self.fill(ext);
                }
            }
            Holes::Bits(bits) => {
                if mark(bits, ext, 1, false) == 0 {
                    return false;
                }
            }
        }
        self.hole_count -= 1;
        self.holes_left();
        true
    }

    /// Switch the holes from runs to bits.
    fn switch_to_bits(&mut self) {
        let Holes::Runs(runs) = &self.holes else {
            return;
        };
        let mut bits = Box::new([0; (WINDOW / 64) as usize]);
        for run in runs {
            mark(
                &mut bits,
                unwrap(self.highest, run.start),
                u64::from(run.len),
                true,
            );
        }
        self.holes = Holes::Bits(bits);
    }

    /// Back to an empty run list once bits hold no hole.
    fn holes_left(&mut self) {
        if self.hole_count == 0 && matches!(self.holes, Holes::Bits(_)) {
            self.holes = Holes::Runs(Vec::new());
        }
    }

    /// Snapshot of the counters. A hole counts as missing once it leaves
    /// the window; holes still inside it are not counted.
    pub fn stats(&self) -> SeqStats {
        self.stats
    }

    /// Close the stream: holes still in the window become missing.
    #[cfg(test)]
    fn finish(mut self) -> SeqStats {
        self.stats.missing += u64::from(self.hole_count);
        self.stats
    }
}

/// The extended sequence number, at most a window below `highest`, whose
/// low 16 bits are `low`.
fn unwrap(highest: u64, low: u16) -> u64 {
    highest - u64::from((highest as u16).wrapping_sub(low))
}

/// Set (`hole`) or clear the bits of sequence numbers `from .. from + n`,
/// `n` ≤ [`WINDOW`]: how many were set before.
fn mark(bits: &mut [u64; (WINDOW / 64) as usize], from: u64, n: u64, hole: bool) -> u64 {
    let (mut at, mut left, mut was) = (from % WINDOW, n, 0);
    while left > 0 {
        let bit = at % 64;
        let take = left.min(64 - bit);
        let mask = (u64::MAX >> (64 - take)) << bit;
        let word = &mut bits[(at / 64) as usize];
        was += u64::from((*word & mask).count_ones());
        if hole {
            *word |= mask;
        } else {
            *word &= !mask;
        }
        at = (at + take) % WINDOW;
        left -= take;
    }
    was
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
        assert_eq!(st.duplicates, 0);
        assert_eq!(st.missing, 0);
    }

    #[test]
    fn duplicates_counted() {
        let mut t = SeqTracker::new();
        for s in [1u16, 2, 3, 2, 3, 4] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.duplicates, 2);
        assert_eq!(st.missing, 0);
    }

    #[test]
    fn reordering_counted_once_filled() {
        let mut t = SeqTracker::new();
        for s in [1u16, 2, 4, 3, 5] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.duplicates, 0);
        assert_eq!(st.missing, 0);
    }

    #[test]
    fn holes_become_missing() {
        let mut t = SeqTracker::new();
        for s in [1u16, 2, /* 3 lost */ 4, 5] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.missing, 1);
        assert_eq!(st.duplicates, 0);
    }

    #[test]
    fn wraparound_handled() {
        let mut t = SeqTracker::new();
        for s in [65_533u16, 65_534, 65_535, 0, 1, 2] {
            t.on_sequence(s);
        }
        let st = t.finish();
        assert_eq!(st.duplicates, 0);
        assert_eq!(st.missing, 0);
    }

    #[test]
    fn big_forward_jump_bounded() {
        let mut t = SeqTracker::new();
        t.on_sequence(0);
        t.on_sequence(10_000); // jump larger than the window
        let st = t.finish();
        // Holes are capped at the window size; no panic, sane numbers.
        assert_eq!(st.duplicates, 0);
        assert!(st.missing > 0);
        assert!(st.missing <= WINDOW);
    }

    /// The seen-window as a queue of bools that grows past [`WINDOW`] and
    /// is then trimmed from the front — the model the hole runs count
    /// like, packet by packet.
    #[derive(Default)]
    struct QueueModel {
        stats: SeqStats,
        highest: Option<u64>,
        window: std::collections::VecDeque<bool>,
    }

    impl QueueModel {
        fn on_sequence(&mut self, seq: u16) {
            let (stats, window) = (&mut self.stats, &mut self.window);
            let Some(h) = self.highest else {
                self.highest = Some(u64::from(seq) + 65_536);
                window.push_back(true);
                return;
            };
            let diff = i64::from(seq.wrapping_sub(h as u16) as i16);
            let ext = h.wrapping_add_signed(diff);
            if ext > h {
                for _ in 0..(ext - h).saturating_sub(1).min(WINDOW) {
                    window.push_back(false);
                }
                window.push_back(true);
                self.highest = Some(ext);
                while window.len() > WINDOW as usize {
                    if let Some(false) = window.pop_front() {
                        stats.missing += 1;
                    }
                }
            } else if let Some(idx) = (window.len() - 1).checked_sub((h - ext) as usize) {
                if window[idx] {
                    stats.duplicates += 1;
                } else {
                    window[idx] = true;
                }
            } else {
                stats.duplicates += 1;
            }
        }

        fn finish(mut self) -> SeqStats {
            self.stats.missing += self.window.iter().filter(|&&seen| !seen).count() as u64;
            self.stats
        }
    }

    /// Random sequences: mostly the next number; now and then a hole, a
    /// step back, a jump past the window, or a wrap — and, in every
    /// third run, loss heavy enough that the runs give way to bits.
    fn sequences(runs: usize, len: usize) -> Vec<Vec<u16>> {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = move |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % n
        };
        (0..runs)
            .map(|run| {
                let mut seq = draw(65_536) as u16;
                let lossy = run % 3 == 2;
                (0..len)
                    .map(|_| {
                        seq = match draw(40) {
                            0 => seq.wrapping_add(2 + draw(30) as u16),
                            1 => seq.wrapping_sub(draw(3_000) as u16),
                            2 if run % 4 == 0 => seq.wrapping_add(2_000 + draw(20_000) as u16),
                            3..=17 if lossy => seq.wrapping_add(2 + draw(2) as u16),
                            18..=21 if lossy => seq.wrapping_sub(draw(200) as u16),
                            _ => seq.wrapping_add(1),
                        };
                        seq
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn hole_runs_count_what_the_queue_counted_after_every_packet() {
        let (mut went_to_bits, mut came_back) = (0, 0);
        for (run, seqs) in sequences(240, 3_000).iter().enumerate() {
            let mut t = SeqTracker::new();
            let mut model = QueueModel::default();
            let mut in_bits = false;
            for (i, &s) in seqs.iter().enumerate() {
                t.on_sequence(s);
                model.on_sequence(s);
                assert_eq!(t.stats(), model.stats, "run {run}, packet {i}");
                let bits = matches!(t.holes, Holes::Bits(_));
                went_to_bits += usize::from(bits && !in_bits);
                came_back += usize::from(in_bits && !bits);
                in_bits = bits;
                if let Holes::Runs(runs) = &t.holes {
                    assert!(runs.len() <= MAX_RUNS && runs.capacity() <= MAX_RUNS);
                }
            }
            assert_eq!(t.finish(), model.finish(), "run {run}");
        }
        assert!(
            went_to_bits > 10 && came_back > 0,
            "{went_to_bits} {came_back}"
        );
    }

    #[test]
    fn alternating_loss_fills_the_bits_and_empties_back_to_runs() {
        let mut t = SeqTracker::new();
        let mut model = QueueModel::default();
        // Every other number lost across three windows, then a clean
        // window: the holes leave, and so do the bits.
        let seqs = (0..3 * WINDOW as u16)
            .step_by(2)
            .chain(3 * WINDOW as u16..5 * WINDOW as u16);
        for s in seqs {
            t.on_sequence(s);
            model.on_sequence(s);
            assert_eq!(t.stats(), model.stats);
        }
        assert!(matches!(&t.holes, Holes::Runs(r) if r.is_empty()));
        let st = t.finish();
        assert_eq!(st, model.finish());
        assert_eq!(st.missing, 3 * WINDOW / 2);
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

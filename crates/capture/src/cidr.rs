//! The capture filter's address lookup: the campus, excluded and Zoom
//! prefix lists flattened, at set-up, into one table of address ranges.
//!
//! The data-plane pipeline matches every packet against the campus subnets
//! and against Zoom's published server networks (117 prefixes from /16 to
//! /27 at the time of the paper). A Tofino answers each question with one
//! TCAM lookup; the software stand-in is an [`IntervalTable`]: the prefix
//! lists flattened into sorted disjoint `[start, end]` address ranges that
//! each carry one bit per list covering them, behind a 64 Ki-bit (8 KB)
//! bitmap of the /16 blocks any prefix touches. A lookup is one bit test
//! for an address outside every prefix — the common case on a border
//! link. Otherwise the block's rank among the touched blocks (a 4 KB table
//! of set bits before each bitmap word, plus one popcount) indexes the
//! first range reaching into the block, and a short forward scan over the
//! block's ranges — one or two for the published Zoom list — finishes.
//! Nothing on the lookup path hashes or searches the whole set, so its
//! cost depends neither on how many prefixes nor on how many distinct
//! prefix lengths the lists hold.

use std::fmt;
use std::net::Ipv4Addr;
use zoom_wire::cidr::Cidr;

/// Words in the /16 summary bitmap: one bit per /16 block of the IPv4
/// space.
const SUMMARY_WORDS: usize = (1 << 16) / 64;

/// Sorted, disjoint address ranges carrying class bits each, fronted by a
/// bitmap of the /16 blocks any range touches. The one lookup structure of
/// the capture filter.
#[derive(Clone)]
pub(crate) struct IntervalTable {
    summary: Box<[u64; SUMMARY_WORDS]>,
    /// Set bits of `summary` in the words before each word: with a popcount
    /// of the bits below a block in its own word, the block's rank among
    /// the touched blocks.
    rank: Box<[u32; SUMMARY_WORDS]>,
    /// Per touched /16 block, by rank: index into `ranges` of the first
    /// range that reaches into the block.
    first: Vec<u32>,
    /// `(start, end, class bits)`, ascending and non-overlapping.
    ranges: Vec<(u32, u32, u8)>,
}

/// The ranges only: the bitmap and its index are derived from them.
impl fmt::Debug for IntervalTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.ranges).finish()
    }
}

impl IntervalTable {
    /// Flatten prefix lists into ranges: bit `i` of a range's class is
    /// set where `lists[i]` covers it. Between two neighbouring prefix
    /// edges no prefix starts or ends, so each list's answer is the same
    /// for the whole stretch and is asked once, at its first address.
    pub(crate) fn classes(lists: &[&[Cidr]]) -> Self {
        debug_assert!(lists.len() <= 8, "one bit per list");
        let mut edges: Vec<u64> = lists
            .iter()
            .flat_map(|list| list.iter())
            .flat_map(|cidr| {
                let (start, end) = cidr.range();
                [u64::from(start), u64::from(end) + 1]
            })
            .collect();
        edges.sort_unstable();
        edges.dedup();
        let mut table = IntervalTable::new();
        for stretch in edges.windows(2) {
            let first = Ipv4Addr::from(stretch[0] as u32);
            let class = lists
                .iter()
                .enumerate()
                .filter(|(_, list)| list.iter().any(|c| c.contains(first)))
                .fold(0, |class, (bit, _)| class | 1 << bit);
            if class != 0 {
                table.push(stretch[0] as u32, (stretch[1] - 1) as u32, class);
            }
        }
        table
    }

    fn new() -> Self {
        IntervalTable {
            summary: Box::new([0; SUMMARY_WORDS]),
            rank: Box::new([0; SUMMARY_WORDS]),
            first: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Append `[start, end]`, which must lie above every range pushed so
    /// far. A range that continues the previous one with an equal class
    /// extends it instead.
    fn push(&mut self, start: u32, end: u32, value: u8) {
        debug_assert!(start <= end);
        debug_assert!(self.ranges.last().is_none_or(|&(_, e, _)| e < start));
        // Ranges arrive in address order, so the blocks up to the one the
        // previous range ends in already have their first range.
        let decided = self
            .ranges
            .last()
            .map_or(0, |&(_, e, _)| (e >> 16) as usize + 1);
        match self.ranges.last_mut() {
            Some((_, e, v)) if *v == value && e.checked_add(1) == Some(start) => *e = end,
            _ => self.ranges.push((start, end, value)),
        }
        let index = (self.ranges.len() - 1) as u32;
        let fresh = ((start >> 16) as usize).max(decided);
        for block in fresh..=(end >> 16) as usize {
            self.summary[block / 64] |= 1 << (block % 64);
            self.first.push(index);
        }
        // Words up to the one the previous range ended in keep their rank;
        // words past this range's end have no bits a lookup could reach.
        for word in decided.saturating_sub(1) / 64 + 1..=(end >> 16) as usize / 64 {
            self.rank[word] = self.rank[word - 1] + self.summary[word - 1].count_ones();
        }
    }

    /// Index into `ranges` of the first range that reaches into `block`,
    /// or `None` when no range touches it: one bit test, then the block's
    /// rank among the touched blocks.
    #[inline]
    fn first_in_block(&self, block: usize) -> Option<usize> {
        let (word, bit) = (block / 64, block % 64);
        let bits = self.summary[word];
        if bits & (1 << bit) == 0 {
            return None;
        }
        let rank = self.rank[word] + (bits & ((1 << bit) - 1)).count_ones();
        Some(self.first[rank as usize] as usize)
    }

    /// Class bits of the range containing `addr`.
    #[inline]
    pub(crate) fn get(&self, addr: u32) -> Option<u8> {
        let from = self.first_in_block((addr >> 16) as usize)?;
        // The block's ranges, then (only if `addr` lies past them all) the
        // next range, which starts in a later block.
        for &(start, end, value) in &self.ranges[from..] {
            if addr <= end {
                return (start <= addr).then_some(value);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_blocks_rank_finds_its_first_range() {
        // Nested, adjacent, block-spanning and block-sharing prefixes, the
        // ends of the address space, and ranges merged across prefixes.
        let prefixes: Vec<Cidr> = [
            "0.0.0.0/32",
            "0.0.255.255/32",
            "10.0.0.0/8",
            "10.8.0.0/16",
            "10.8.3.0/24",
            "10.8.4.0/24",
            "10.9.255.0/24",
            "10.10.0.0/24",
            "170.114.0.0/15",
            "170.114.3.0/25",
            "170.114.3.128/25",
            "192.0.2.7/32",
            "255.255.255.255/32",
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        // Three lists, so neighbouring ranges carry different classes.
        let lists: Vec<Vec<Cidr>> = (0..3)
            .map(|list| prefixes.iter().skip(list).step_by(3).copied().collect())
            .collect();
        let lists: Vec<&[Cidr]> = lists.iter().map(Vec::as_slice).collect();
        let t = IntervalTable::classes(&lists);
        for block in 0..1 << 16 {
            let (lo, hi) = ((block as u32) << 16, (block as u32) << 16 | 0xFFFF);
            let want = t.ranges.iter().position(|&(s, e, _)| s <= hi && e >= lo);
            assert_eq!(t.first_in_block(block), want, "block {block:#06x}");
        }
    }
}

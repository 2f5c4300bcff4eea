//! IPv4 CIDR prefixes and longest-prefix-match sets.
//!
//! The data-plane pipeline matches every packet against the campus subnets
//! and against Zoom's published server networks (117 prefixes from /16 to
//! /27 at the time of the paper). A Tofino answers each question with one
//! TCAM lookup; the software stand-in is an `IntervalTable`: the prefix
//! set flattened, at configuration time, into sorted disjoint
//! `[start, end]` address ranges that each name the longest prefix covering
//! them, behind a 64 Ki-bit (8 KB) bitmap of the /16 blocks any prefix
//! touches. A lookup is one bit test for an address outside every prefix —
//! the common case on a border link. Otherwise the block's rank among the
//! touched blocks (a 4 KB table of set bits before each bitmap word, plus
//! one popcount) indexes the first range reaching into the block, and a
//! short forward scan over the block's ranges — one or two for the
//! published Zoom list — finishes. Nothing on the lookup path hashes or
//! searches the whole set, so its cost depends neither on how many
//! prefixes nor on how many distinct prefix lengths the set holds.
//!
//! [`PrefixMap::insert`] rebuilds the ranges; it is meant for set-up, not
//! for the packet path.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr};
use std::str::FromStr;

/// An IPv4 CIDR prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cidr {
    address: Ipv4Addr,
    prefix_len: u8,
}

/// Error parsing a CIDR string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCidrError(pub String);

impl fmt::Display for ParseCidrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid CIDR: {}", self.0)
    }
}

impl std::error::Error for ParseCidrError {}

impl Cidr {
    /// Construct, masking the address down to the prefix. Panics if
    /// `prefix_len > 32` (a programming error, not input).
    pub fn new(address: Ipv4Addr, prefix_len: u8) -> Cidr {
        assert!(prefix_len <= 32, "prefix length out of range");
        let masked = u32::from(address) & Self::mask_bits(prefix_len);
        Cidr {
            address: Ipv4Addr::from(masked),
            prefix_len,
        }
    }

    fn mask_bits(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - u32::from(prefix_len))
        }
    }

    /// Network address (already masked).
    pub fn address(&self) -> Ipv4Addr {
        self.address
    }

    /// Prefix length.
    pub fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// First and last covered address, as integers.
    pub(crate) fn range(&self) -> (u32, u32) {
        let start = u32::from(self.address);
        (start, start | !Self::mask_bits(self.prefix_len))
    }

    /// Membership test.
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        u32::from(ip) & Self::mask_bits(self.prefix_len) == u32::from(self.address)
    }

    /// The `i`-th address within the prefix (wraps if out of range, which
    /// callers avoid by bounding on [`Cidr::size`]).
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        Ipv4Addr::from(u32::from(self.address).wrapping_add(i as u32))
    }
}

impl fmt::Display for Cidr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.address, self.prefix_len)
    }
}

impl FromStr for Cidr {
    type Err = ParseCidrError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s.split_once('/').ok_or_else(|| ParseCidrError(s.into()))?;
        let address: Ipv4Addr = addr.parse().map_err(|_| ParseCidrError(s.into()))?;
        let prefix_len: u8 = len.parse().map_err(|_| ParseCidrError(s.into()))?;
        if prefix_len > 32 {
            return Err(ParseCidrError(s.into()));
        }
        Ok(Cidr::new(address, prefix_len))
    }
}

/// Words in the /16 summary bitmap: one bit per /16 block of the IPv4
/// space.
const SUMMARY_WORDS: usize = (1 << 16) / 64;

/// Sorted, disjoint address ranges carrying a small payload each, fronted
/// by a bitmap of the /16 blocks any range touches. The one lookup
/// structure of the capture filter: [`PrefixMap`] stores the index of the
/// longest covering prefix per range, the pipeline's class table stores
/// campus / excluded / Zoom bits.
#[derive(Clone)]
pub(crate) struct IntervalTable<T> {
    summary: Box<[u64; SUMMARY_WORDS]>,
    /// Set bits of `summary` in the words before each word: with a popcount
    /// of the bits below a block in its own word, the block's rank among
    /// the touched blocks.
    rank: Box<[u32; SUMMARY_WORDS]>,
    /// Per touched /16 block, by rank: index into `ranges` of the first
    /// range that reaches into the block.
    first: Vec<u32>,
    /// `(start, end, payload)`, ascending and non-overlapping.
    ranges: Vec<(u32, u32, T)>,
}

/// The ranges only: the bitmap and its index are derived from them.
impl<T: fmt::Debug> fmt::Debug for IntervalTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.ranges).finish()
    }
}

impl<T: Copy + PartialEq> IntervalTable<T> {
    pub(crate) fn new() -> Self {
        IntervalTable {
            summary: Box::new([0; SUMMARY_WORDS]),
            rank: Box::new([0; SUMMARY_WORDS]),
            first: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Append `[start, end]`, which must lie above every range pushed so
    /// far. A range that continues the previous one with an equal payload
    /// extends it instead.
    pub(crate) fn push(&mut self, start: u32, end: u32, value: T) {
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

    /// Payload of the range containing `addr`.
    #[inline]
    pub(crate) fn get(&self, addr: u32) -> Option<T> {
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

/// A longest-prefix-match set mapping prefixes to values.
#[derive(Clone)]
pub struct PrefixMap<V> {
    /// Stored prefixes, sorted by network address, then shortest first.
    entries: Vec<(Cidr, V)>,
    /// Address ranges → index into `entries` of the longest covering
    /// prefix.
    table: IntervalTable<u32>,
}

impl<V> Default for PrefixMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: fmt::Debug> fmt::Debug for PrefixMap<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(c, v)| (c.to_string(), v)))
            .finish()
    }
}

impl<V> PrefixMap<V> {
    /// Empty set.
    pub fn new() -> Self {
        PrefixMap {
            entries: Vec::new(),
            table: IntervalTable::new(),
        }
    }

    /// Insert a prefix → value mapping; replaces an existing entry for the
    /// identical prefix. Rebuilds the lookup table: O(n) per call.
    pub fn insert(&mut self, cidr: Cidr, value: V) {
        match self.entries.binary_search_by_key(&cidr, |&(c, _)| c) {
            Ok(at) => self.entries[at].1 = value,
            Err(at) => {
                self.entries.insert(at, (cidr, value));
                self.rebuild();
            }
        }
    }

    /// Flatten the prefixes into disjoint ranges. Two CIDR prefixes are
    /// nested or disjoint, so one pass in address order with a stack of the
    /// prefixes still open suffices: the innermost open prefix owns every
    /// address up to where the next one starts or it ends itself.
    fn rebuild(&mut self) {
        let mut table = IntervalTable::new();
        // Open prefixes, outermost first: (last address, entry index).
        let mut open: Vec<(u32, u32)> = Vec::new();
        // First address not yet given to a range; u64 so it can pass
        // 255.255.255.255, where a final step closes whatever is open.
        let mut next = 0u64;
        let starts = self.entries.iter().enumerate().map(|(i, (cidr, _))| {
            let (start, end) = cidr.range();
            (u64::from(start), Some((end, i as u32)))
        });
        for (start, opened) in starts.chain([(1 << 32, None)]) {
            while let Some(&(end, entry)) = open.last() {
                let stop = start.min(u64::from(end) + 1);
                if next < stop {
                    table.push(next as u32, (stop - 1) as u32, entry);
                    next = stop;
                }
                if u64::from(end) >= start {
                    break;
                }
                open.pop();
            }
            next = start;
            open.extend(opened);
        }
        self.table = table;
    }

    /// Longest-prefix match.
    #[inline]
    pub fn longest_match(&self, ip: Ipv4Addr) -> Option<(Cidr, &V)> {
        let (cidr, value) = &self.entries[self.table.get(u32::from(ip))? as usize];
        Some((*cidr, value))
    }

    /// Membership test (any prefix).
    #[inline]
    pub fn contains(&self, ip: Ipv4Addr) -> bool {
        self.table.get(u32::from(ip)).is_some()
    }

    /// Membership test accepting either address family; IPv6 never matches
    /// (the paper's campus capture is IPv4).
    pub fn contains_addr(&self, ip: IpAddr) -> bool {
        match ip {
            IpAddr::V4(v4) => self.contains(v4),
            IpAddr::V6(_) => false,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterate over all `(cidr, value)` pairs in address order, a covering
    /// prefix before the prefixes nested in it.
    pub fn iter(&self) -> impl Iterator<Item = (Cidr, &V)> + '_ {
        self.entries.iter().map(|(c, v)| (*c, v))
    }
}

/// A value-less prefix set.
pub type PrefixSet = PrefixMap<()>;

/// Build a [`PrefixSet`] from CIDR strings; panics on invalid literals
/// (intended for static configuration).
pub fn prefix_set(cidrs: &[&str]) -> PrefixSet {
    let mut set = PrefixSet::new();
    for s in cidrs {
        set.insert(s.parse().expect("static CIDR literal"), ());
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display() {
        let c: Cidr = "10.8.0.0/16".parse().unwrap();
        assert_eq!(c.to_string(), "10.8.0.0/16");
        assert_eq!(c.prefix_len(), 16);
        assert_eq!(c.size(), 65_536);
    }

    #[test]
    fn address_is_masked() {
        let c: Cidr = "10.8.7.6/16".parse().unwrap();
        assert_eq!(c.address(), Ipv4Addr::new(10, 8, 0, 0));
    }

    #[test]
    fn parse_errors() {
        assert!("10.8.0.0".parse::<Cidr>().is_err());
        assert!("10.8.0.0/33".parse::<Cidr>().is_err());
        assert!("zoom/8".parse::<Cidr>().is_err());
    }

    #[test]
    fn contains() {
        let c: Cidr = "192.168.1.0/24".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(192, 168, 1, 200)));
        assert!(!c.contains(Ipv4Addr::new(192, 168, 2, 1)));
    }

    #[test]
    fn zero_prefix_matches_everything() {
        let c: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(c.contains(Ipv4Addr::new(255, 255, 255, 255)));
        assert_eq!(c.size(), 1 << 32);
    }

    #[test]
    fn longest_prefix_wins() {
        let mut m = PrefixMap::new();
        m.insert("10.0.0.0/8".parse().unwrap(), "broad");
        m.insert("10.8.0.0/16".parse().unwrap(), "narrow");
        let (c, v) = m.longest_match(Ipv4Addr::new(10, 8, 1, 1)).unwrap();
        assert_eq!(*v, "narrow");
        assert_eq!(c.prefix_len(), 16);
        let (_, v) = m.longest_match(Ipv4Addr::new(10, 9, 1, 1)).unwrap();
        assert_eq!(*v, "broad");
        assert!(m.longest_match(Ipv4Addr::new(11, 0, 0, 1)).is_none());
    }

    #[test]
    fn prefix_set_builder() {
        let s = prefix_set(&["3.7.35.0/25", "52.202.62.192/26"]);
        assert_eq!(s.len(), 2);
        assert!(s.contains(Ipv4Addr::new(3, 7, 35, 100)));
        assert!(!s.contains(Ipv4Addr::new(3, 7, 36, 1)));
    }

    #[test]
    fn nth_enumerates() {
        let c: Cidr = "10.0.0.0/30".parse().unwrap();
        assert_eq!(c.nth(3), Ipv4Addr::new(10, 0, 0, 3));
    }

    #[test]
    fn ipv6_never_matches() {
        let s = prefix_set(&["0.0.0.0/0"]);
        assert!(!s.contains_addr("2001:db8::1".parse().unwrap()));
        assert!(s.contains_addr("1.2.3.4".parse().unwrap()));
    }

    #[test]
    fn insert_same_prefix_replaces() {
        let mut m = PrefixMap::new();
        m.insert("10.0.0.0/8".parse().unwrap(), 1);
        m.insert("10.0.0.0/8".parse().unwrap(), 2);
        assert_eq!(m.len(), 1);
        assert_eq!(*m.longest_match(Ipv4Addr::new(10, 1, 1, 1)).unwrap().1, 2);
    }

    #[test]
    fn a_blocks_rank_finds_its_first_range() {
        // Nested, adjacent, block-spanning and block-sharing prefixes, the
        // ends of the address space, and ranges merged across prefixes.
        let mut m = PrefixMap::new();
        let prefixes = [
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
        ];
        for (i, s) in prefixes.iter().enumerate() {
            m.insert(s.parse().unwrap(), i);
        }
        let t = &m.table;
        for block in 0..1 << 16 {
            let (lo, hi) = ((block as u32) << 16, (block as u32) << 16 | 0xFFFF);
            let want = t.ranges.iter().position(|&(s, e, _)| s <= hi && e >= lo);
            assert_eq!(t.first_in_block(block), want, "block {block:#06x}");
        }
    }

    #[test]
    fn iter_yields_all() {
        let mut m = PrefixMap::new();
        m.insert("10.0.0.0/8".parse().unwrap(), ());
        m.insert("172.16.0.0/12".parse().unwrap(), ());
        assert_eq!(m.iter().count(), 2);
    }
}

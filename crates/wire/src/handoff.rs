//! Arena-packed record batches for cross-thread capture hand-off.
//!
//! A capture thread that forwards packets to an analysis engine one
//! [`Record`](crate::pcap::Record) at a time pays one heap allocation per
//! packet plus one ring-buffer slot per packet. [`RecordBatch`] amortizes
//! both: records are packed back-to-back into a single byte arena with
//! per-record timestamp/length side tables, so a whole batch crosses the
//! thread boundary as one object and — once the receiver recycles empty
//! batches back to the producer — the steady state allocates nothing.
//!
//! The layout is append-only: [`RecordBatch::push`] copies the packet bytes
//! to the end of the arena, [`RecordBatch::iter`] yields borrowed
//! [`RecordRef`]s in insertion order, and [`RecordBatch::clear`] resets the
//! batch for reuse while keeping its capacity.
//!
//! ```
//! use zoom_wire::handoff::RecordBatch;
//!
//! let mut batch = RecordBatch::with_capacity(4, 2048);
//! batch.push(1_000, 60, &[0xAA; 60]);
//! batch.push(2_000, 1500, &[0xBB; 64]); // truncated capture: 64 of 1500
//!
//! assert_eq!(batch.len(), 2);
//! let records: Vec<_> = batch.iter().collect();
//! assert_eq!(records[0].ts_nanos, 1_000);
//! assert_eq!(records[1].orig_len, 1500);
//! assert_eq!(records[1].data.len(), 64);
//!
//! batch.clear(); // arena retained, ready for the next fill
//! assert!(batch.is_empty());
//! ```

/// A single record borrowed from a [`RecordBatch`].
///
/// Mirrors the fields of [`crate::pcap::Record`] but borrows its payload
/// from the batch arena instead of owning a `Vec<u8>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordRef<'a> {
    /// Capture timestamp in nanoseconds since the Unix epoch.
    pub ts_nanos: u64,
    /// Original on-the-wire length (may exceed `data.len()` when the
    /// capture was truncated by a snap length).
    pub orig_len: u32,
    /// Captured bytes, borrowed from the batch arena.
    pub data: &'a [u8],
}

/// Per-record metadata kept alongside the shared byte arena.
#[derive(Debug, Clone, Copy)]
struct Slot {
    ts_nanos: u64,
    orig_len: u32,
    /// Offset of the record's first byte in the arena; its end is the next
    /// slot's offset (or the arena length for the last record).
    offset: u32,
}

/// An owned, recyclable batch of packet records packed into one arena.
///
/// See the [module documentation](self) for the hand-off protocol and a
/// usage example.
#[derive(Debug, Default)]
pub struct RecordBatch {
    slots: Vec<Slot>,
    arena: Vec<u8>,
    /// Causal trace ID stamped by a sampled capture site (`0` =
    /// untraced, the overwhelmingly common case). Rides the batch
    /// through every hand-off so downstream stages can attribute their
    /// span events to the batch's trace; cleared with the records.
    pub trace_id: u64,
}

impl RecordBatch {
    /// Creates an empty batch with no pre-reserved capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch pre-sized for `records` records totalling
    /// `bytes` captured bytes, so steady-state fills don't reallocate.
    pub fn with_capacity(records: usize, bytes: usize) -> Self {
        RecordBatch {
            slots: Vec::with_capacity(records),
            arena: Vec::with_capacity(bytes),
            trace_id: 0,
        }
    }

    /// Appends one record, copying `data` into the arena.
    pub fn push(&mut self, ts_nanos: u64, orig_len: u32, data: &[u8]) {
        debug_assert!(self.arena.len() + data.len() <= u32::MAX as usize);
        self.slots.push(Slot {
            ts_nanos,
            orig_len,
            offset: self.arena.len() as u32,
        });
        self.arena.extend_from_slice(data);
    }

    /// Appends one record whose bytes `fill` writes onto the arena tail:
    /// the staging-free counterpart of [`push`](Self::push), for a reader
    /// that can move its own buffer straight into the arena. Unless `fill`
    /// returns `Ok(true)` the arena is rolled back and no record is added;
    /// its result is passed on either way.
    pub(crate) fn push_with(
        &mut self,
        ts_nanos: u64,
        orig_len: u32,
        fill: impl FnOnce(&mut Vec<u8>) -> std::io::Result<bool>,
    ) -> std::io::Result<bool> {
        let start = self.arena.len();
        let filled = fill(&mut self.arena);
        if matches!(filled, Ok(true)) {
            debug_assert!(self.arena.len() <= u32::MAX as usize);
            self.slots.push(Slot {
                ts_nanos,
                orig_len,
                offset: start as u32,
            });
        } else {
            self.arena.truncate(start);
        }
        filled
    }

    /// Number of records currently in the batch.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total captured bytes currently in the arena.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len()
    }

    /// Returns the record at `index`, or `None` past the end.
    pub fn get(&self, index: usize) -> Option<RecordRef<'_>> {
        let slot = self.slots.get(index)?;
        let start = slot.offset as usize;
        let end = self
            .slots
            .get(index + 1)
            .map(|next| next.offset as usize)
            .unwrap_or(self.arena.len());
        Some(RecordRef {
            ts_nanos: slot.ts_nanos,
            orig_len: slot.orig_len,
            data: &self.arena[start..end],
        })
    }

    /// Iterates the records in insertion order as borrowed [`RecordRef`]s.
    pub fn iter(&self) -> BatchIter<'_> {
        BatchIter {
            batch: self,
            index: 0,
        }
    }

    /// Empties the batch while retaining both the slot table's and the
    /// arena's capacity, making the batch reusable without reallocation.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.arena.clear();
        self.trace_id = 0;
    }
}

impl<'a> IntoIterator for &'a RecordBatch {
    type Item = RecordRef<'a>;
    type IntoIter = BatchIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`RecordBatch`], yielding [`RecordRef`]s.
#[derive(Debug)]
pub struct BatchIter<'a> {
    batch: &'a RecordBatch,
    index: usize,
}

impl<'a> Iterator for BatchIter<'a> {
    type Item = RecordRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let rec = self.batch.get(self.index)?;
        self.index += 1;
        Some(rec)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rest = self.batch.len() - self.index;
        (rest, Some(rest))
    }
}

impl<'a> ExactSizeIterator for BatchIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_iter_roundtrip() {
        let mut b = RecordBatch::new();
        b.push(10, 100, &[1, 2, 3]);
        b.push(20, 4, &[9; 4]);
        b.push(30, 0, &[]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.arena_bytes(), 7);

        let r0 = b.get(0).unwrap();
        assert_eq!((r0.ts_nanos, r0.orig_len, r0.data), (10, 100, &[1, 2, 3][..]));
        let r2 = b.get(2).unwrap();
        assert_eq!(r2.data.len(), 0);
        assert!(b.get(3).is_none());

        let ts: Vec<u64> = b.iter().map(|r| r.ts_nanos).collect();
        assert_eq!(ts, vec![10, 20, 30]);
        assert_eq!(b.iter().len(), 3);
    }

    #[test]
    fn clear_retains_capacity() {
        let mut b = RecordBatch::with_capacity(8, 1024);
        for i in 0..8 {
            b.push(i, 64, &[0u8; 64]);
        }
        let slot_cap = b.slots.capacity();
        let arena_cap = b.arena.capacity();
        b.trace_id = 0xDEAD_BEEF;
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.trace_id, 0, "clear() must reset the trace tag");
        assert_eq!(b.arena_bytes(), 0);
        assert_eq!(b.slots.capacity(), slot_cap);
        assert_eq!(b.arena.capacity(), arena_cap);
        // Refill within capacity: no growth.
        for i in 0..8 {
            b.push(i, 64, &[0u8; 64]);
        }
        assert_eq!(b.slots.capacity(), slot_cap);
        assert_eq!(b.arena.capacity(), arena_cap);
    }
}

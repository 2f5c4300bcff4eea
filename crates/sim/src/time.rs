//! Simulated time and the discrete-event queue.
//!
//! All simulator time is `u64` nanoseconds from trace start — deterministic
//! and free of wall-clock dependencies, so every experiment is exactly
//! reproducible from its seed.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Nanoseconds since trace start.
pub type Nanos = u64;

/// One second in nanoseconds.
pub const SEC: Nanos = 1_000_000_000;
/// One millisecond in nanoseconds.
pub const MS: Nanos = 1_000_000;
/// One microsecond in nanoseconds.
pub const US: Nanos = 1_000;

/// A time-ordered event queue with FIFO tie-breaking.
///
/// Ties are broken by insertion order so that simulations are fully
/// deterministic even when many events share a timestamp (e.g. packets of
/// one frame sent back-to-back).
///
/// The heap orders small `(time, insertion, slot)` keys; the events
/// themselves stay put in a slab of slots, reused through a free list, so
/// a sift moves 24 bytes whatever the size of `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<(Nanos, u64, u32)>>,
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    counter: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            counter: 0,
        }
    }

    /// Schedule `event` at absolute time `at`.
    pub fn push(&mut self, at: Nanos, event: E) {
        self.counter += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slots.push(Some(event));
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.heap.push(Reverse((at, self.counter, slot)));
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(Nanos, E)> {
        let Reverse((at, _, slot)) = self.heap.pop()?;
        self.free.push(slot);
        let event = self.slots[slot as usize]
            .take()
            .expect("a queued slot holds its event");
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    proptest::proptest! {
        /// Any interleaving of pushes and pops, on few distinct times so
        /// ties abound, pops in the order of a stable sort by time of
        /// everything pushed so far and not yet popped. An op `(kind, t)`
        /// pushes at `t` for kinds 0 and 1 and pops for kind 2.
        #[test]
        fn pops_in_stable_time_order(
            ops in proptest::collection::vec((0u8..3, 0u64..6), 0..400),
        ) {
            let mut q = EventQueue::new();
            // (time, push order) of every pending event, kept sorted.
            let mut model: Vec<(Nanos, usize)> = Vec::new();
            for (n, (kind, t)) in ops.into_iter().enumerate() {
                if kind < 2 {
                    q.push(t, n);
                    let at = model.partition_point(|&e| e <= (t, n));
                    model.insert(at, (t, n));
                } else {
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    proptest::prop_assert_eq!(q.pop(), want);
                }
                proptest::prop_assert_eq!(q.heap.len(), model.len());
            }
            while let Some(want) = (!model.is_empty()).then(|| model.remove(0)) {
                proptest::prop_assert_eq!(q.pop(), Some(want));
            }
            proptest::prop_assert_eq!(q.pop(), None);
        }
    }

    #[test]
    fn unit_conversions() {
        assert_eq!(SEC, 1000 * MS);
        assert_eq!(MS, 1000 * US);
    }
}

//! The event queue: a binary heap ordered by `(time, sequence)`.
//!
//! Two events scheduled for the same instant pop in the order they were
//! scheduled. This FIFO tie-break is what makes whole-simulation runs
//! reproducible: `BinaryHeap` alone is not stable, and an unstable order
//! among simultaneous events (job arrival vs. poll tick, say) would make
//! results depend on heap internals.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, HashSet};

use crate::time::SimTime;

pub(crate) struct Entry<E> {
    pub(crate) time: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A stable-order priority queue of timestamped events.
///
/// This type is time-agnostic about "now"; pairing it with a clock is the
/// job of [`crate::Engine`]. It is exposed separately so substrates can be
/// unit-tested against a bare queue.
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    next_seq: u64,
    /// Sequence numbers cancelled while still buried in the heap. A
    /// cancelled entry is dropped lazily when it reaches the top, and the
    /// top is re-drained on every mutation so [`EventQueue::peek_time`]
    /// never observes a dead entry.
    cancelled: HashSet<u64>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Creates an empty queue with room for `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            cancelled: HashSet::new(),
        }
    }

    /// Inserts `event` at instant `time` and returns the sequence number
    /// assigned to it. Events inserted at equal times pop in insertion
    /// order.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.take_seq();
        self.heap.push(Reverse(Entry { time, seq, event }));
        seq
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let out = self.heap.pop().map(|Reverse(e)| (e.time, e.event));
        self.drain_cancelled_top();
        out
    }

    /// Removes and returns the earliest event if its `(time, seq)` key
    /// sorts before `(time, seq)`; otherwise returns `None`.
    pub(crate) fn pop_before(&mut self, time: SimTime, seq: u64) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(Reverse(top)) if (top.time, top.seq) < (time, seq) => self.pop(),
            _ => None,
        }
    }

    /// Timestamp of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.heap.len() - self.cancelled.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The sequence number the next [`EventQueue::push`] will assign.
    /// Monotone over the queue's lifetime (it survives
    /// [`EventQueue::clear`]); exposed so differential tests can assert
    /// both queue implementations assign identical sequences.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Assigns the next sequence number without queueing an entry, for
    /// an event held outside the queue (the engine's fixed-delay lanes)
    /// that must still order against queued events by `(time, seq)`.
    pub(crate) fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Cancels the pending event identified by `(time, seq)` — the values
    /// a [`crate::Engine`] event handle carries — and returns whether it
    /// was found. A cancelled event is never popped. The removal is lazy
    /// (a tombstone dropped when the entry surfaces), but the heap top is
    /// always kept live so `peek_time` stays exact.
    ///
    /// Cancelling an event that was already popped returns `false` and
    /// leaves the queue untouched.
    pub fn cancel(&mut self, time: SimTime, seq: u64) -> bool {
        let _ = time; // the heap locates entries by sequence alone
        if self.cancelled.contains(&seq) || !self.heap.iter().any(|Reverse(e)| e.seq == seq) {
            return false;
        }
        self.cancelled.insert(seq);
        self.drain_cancelled_top();
        true
    }

    /// Drops cancelled entries sitting at the heap top, restoring the
    /// invariant that the top (what `peek_time`/`pop` observe first) is a
    /// live event.
    fn drain_cancelled_top(&mut self) {
        while let Some(Reverse(top)) = self.heap.peek() {
            if self.cancelled.remove(&top.seq) {
                self.heap.pop();
            } else {
                break;
            }
        }
    }

    /// Number of cancelled entries still buried in the heap. Tombstones
    /// are invisible to `len`/`pop`/`peek_time` but occupy heap slots; a
    /// checkpoint must know the count so it can assert the captured
    /// entries account for everything live.
    pub fn tombstone_count(&self) -> usize {
        self.cancelled.len()
    }

    /// The pending **live** events in pop order (`(time, seq)`
    /// ascending), tombstones excluded — the canonical form a checkpoint
    /// serializes. The queue itself is untouched.
    pub fn capture_entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut out: Vec<(SimTime, u64, E)> = self
            .heap
            .iter()
            .filter(|Reverse(e)| !self.cancelled.contains(&e.seq))
            .map(|Reverse(e)| (e.time, e.seq, e.event.clone()))
            .collect();
        out.sort_by_key(|&(t, s, _)| (t, s));
        out
    }

    /// Rebuilds a queue from a captured entry list and sequence counter.
    /// The entries keep their original sequence numbers, so previously
    /// issued `(time, seq)` handles remain cancellable; `next_seq` must
    /// be at least one past every restored sequence.
    pub fn restore_entries(next_seq: u64, entries: Vec<(SimTime, u64, E)>) -> Self {
        debug_assert!(
            entries.iter().all(|&(_, s, _)| s < next_seq),
            "restored sequence numbers must precede next_seq"
        );
        let heap = entries
            .into_iter()
            .map(|(time, seq, event)| Reverse(Entry { time, seq, event }))
            .collect();
        EventQueue {
            heap,
            next_seq,
            cancelled: HashSet::new(),
        }
    }

    /// Drops all pending events but **keeps the sequence counter**:
    /// events pushed after a `clear` still order after anything pushed
    /// before it, so FIFO tie-breaking at equal timestamps remains stable
    /// across the clear. Resetting `next_seq` here would let a post-clear
    /// push overtake the ordering position of a pre-clear push replayed at
    /// the same instant — a reproducibility hazard. The backing
    /// allocation is also retained for reuse.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.cancelled.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(5), "late");
        q.push(SimTime::from_secs(1), "early");
        q.push(SimTime::from_secs(3), "middle");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap().1, "middle");
        assert_eq!(q.pop().unwrap().1, "late");
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn fifo_survives_interleaving_with_other_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.push(t, "a");
        q.push(SimTime::from_secs(1), "x");
        q.push(t, "b");
        q.push(t + SimDuration::from_secs(1), "y");
        q.push(t, "c");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["x", "a", "b", "c", "y"]);
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(42), ());
        q.push(SimTime::from_millis(7), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(7)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(42)));
    }

    #[test]
    fn cancel_is_lazy_but_never_visible() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(3);
        let s_a = q.push(t, "a");
        q.push(t, "b");
        let s_c = q.push(SimTime::from_secs(1), "c");
        // Cancel the current top: it must be drained eagerly so peek_time
        // reflects the next live entry.
        assert!(q.cancel(SimTime::from_secs(1), s_c));
        assert_eq!(q.peek_time(), Some(t));
        // Cancel a buried entry: removed lazily, but len/pop never see it.
        assert!(q.cancel(t, s_a));
        assert!(!q.cancel(t, s_a), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn capture_skips_tombstones_and_restore_round_trips() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(2);
        q.push(t, "a");
        let s_b = q.push(t, "b");
        q.push(SimTime::from_secs(1), "c");
        assert!(q.cancel(t, s_b));
        assert_eq!(q.tombstone_count(), 1, "b is buried, not drained");
        let entries = q.capture_entries();
        assert_eq!(
            entries.iter().map(|&(_, _, e)| e).collect::<Vec<_>>(),
            vec!["c", "a"],
            "pop order, tombstone excluded"
        );
        let mut r = EventQueue::restore_entries(q.next_seq(), entries);
        assert_eq!(r.next_seq(), q.next_seq());
        assert_eq!(r.tombstone_count(), 0, "tombstones are not carried over");
        let order: Vec<_> = std::iter::from_fn(|| r.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["c", "a"]);
        // Sequence numbering continues from where the original left off:
        // a post-restore push at the same instant pops after "a".
        let mut r2 = EventQueue::restore_entries(q.next_seq(), q.capture_entries());
        r2.push(t, "d");
        let order: Vec<_> = std::iter::from_fn(|| r2.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["c", "a", "d"]);
    }

    #[test]
    fn clear_preserves_stable_ordering() {
        let mut q = EventQueue::new();
        q.push(SimTime::ZERO, 1);
        q.clear();
        assert!(q.is_empty());
        let t = SimTime::from_secs(1);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
    }
}

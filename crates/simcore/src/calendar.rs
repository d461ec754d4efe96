//! A calendar (bucket) queue: the O(1)-amortized alternative to the
//! binary-heap [`EventQueue`](crate::EventQueue).
//!
//! The timeline is divided into fixed-width *days*; day `d` covers
//! `[d·width, (d+1)·width)` milliseconds and hashes onto bucket
//! `d mod nbuckets`, so the bucket array is a *year* of `nbuckets · width`
//! milliseconds that wraps around. Each bucket keeps its entries sorted by
//! `(time, seq)` — because [`CalendarQueue::push`] assigns monotonically
//! increasing sequence numbers, sorted insertion is a back-of-the-bucket
//! append in the common case, and FIFO order among same-instant events is
//! preserved *exactly*: two events at the same instant land in the same
//! bucket and sort by sequence, which is insertion order. The pop order is
//! therefore provably identical to the heap's `(time, seq)` order; the
//! differential suite in `tests/queue_differential.rs` drives both
//! implementations in lockstep to pin this.
//!
//! Popping scans days forward from a cursor. The cursor invariant — it
//! never sits past the earliest pending event's day — holds because pops
//! move it to the popped event's day (the global minimum at that moment)
//! and pushes pull it back when an earlier event arrives. If a full year
//! passes without a hit (every pending event is far in the future), a
//! direct search over the bucket heads finds the minimum and teleports the
//! cursor to it.
//!
//! The day width adapts: whenever the queue grows past `2·nbuckets`
//! entries (or shrinks below a quarter), the bucket array is resized and
//! the width is recomputed from the *inter-event gap statistics* of the
//! live entries — the mean gap `(max − min) / len`, clamped to at least
//! one tick — so a day holds about one event regardless of whether the
//! workload spaces events by milliseconds or hours.
//!
//! Size-triggered resizes alone are not enough: a simulator in steady
//! state (pop one, push one) never crosses the length thresholds, so a
//! stale width would pile every live event into one or two buckets and
//! degrade each operation to a linear scan. Pushing into a bucket
//! holding far more than its fair share therefore also triggers a
//! rebuild at the *same* bucket count — re-deriving the width from the
//! current gap statistics — rate-limited to one rebuild per `len`
//! pushes so adversarial mixes (e.g. thousands of events at one
//! instant, which no width can spread) amortize to O(1) per operation.

use std::collections::VecDeque;

use crate::queue::Entry;
use crate::time::SimTime;

/// Buckets never shrink below this (kept a power of two so the day→bucket
/// map is a mask).
const MIN_BUCKETS: usize = 4;

/// Day width used before the first statistics-driven resize: one simulated
/// second, the order of the schedulers' periodic timers.
const INITIAL_WIDTH_MS: u64 = 1_000;

/// The calendar's adaptive-layout parameters, exposed for checkpointing.
///
/// The bucket count, day width, scan cursor and resize rate-limiter are
/// all *history-dependent* — they reflect the resize decisions made along
/// the exact push/pop trajectory — so a faithful restore must reinstate
/// them verbatim rather than rebuild from entry statistics: a rebuilt
/// width would legally differ, and while the pop *order* would survive
/// (it never depends on layout), the subsequent resize trajectory would
/// diverge from the uninterrupted queue's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CalendarTuning {
    /// Number of buckets (always a power of two, ≥ 4).
    pub buckets: usize,
    /// Day width in milliseconds (≥ 1).
    pub width_ms: u64,
    /// The day the pop scan starts from.
    pub cursor_day: u64,
    /// Pushes since the last resize (the overload-rebuild rate limiter).
    pub pushes_since_resize: usize,
}

/// A calendar-queue implementation of the stable event queue.
///
/// API-compatible with [`EventQueue`](crate::EventQueue) — including the
/// [`clear`](CalendarQueue::clear) semantics (the sequence counter and the
/// backing allocation survive) — so the two can be swapped behind
/// [`Engine`](crate::Engine) and differentially tested against each other.
pub struct CalendarQueue<E> {
    /// `buckets.len()` is always a power of two.
    buckets: Vec<VecDeque<Entry<E>>>,
    /// Day width in milliseconds (≥ 1).
    width: u64,
    /// Live entry count across all buckets.
    len: usize,
    next_seq: u64,
    /// The day the pop scan starts from; invariant: no pending entry has
    /// an earlier day.
    cursor_day: u64,
    /// Pushes since the last resize; rate-limits the bucket-overload
    /// width rebuild (see the module docs).
    pushes_since_resize: usize,
}

impl<E> Default for CalendarQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> CalendarQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue sized for about `cap` pending events: the
    /// bucket count starts near `cap` (clamped to at least
    /// `MIN_BUCKETS`), so a driver that knows its steady-state queue depth
    /// avoids the first few doubling resizes. `cap == 0` is valid and
    /// simply starts from the minimum bucket count.
    pub fn with_capacity(cap: usize) -> Self {
        let n = cap.next_power_of_two().clamp(MIN_BUCKETS, 1 << 22);
        CalendarQueue {
            buckets: (0..n).map(|_| VecDeque::new()).collect(),
            width: INITIAL_WIDTH_MS,
            len: 0,
            next_seq: 0,
            cursor_day: 0,
            pushes_since_resize: 0,
        }
    }

    fn day_of(&self, t: SimTime) -> u64 {
        t.as_millis() / self.width
    }

    fn bucket_of_day(&self, day: u64) -> usize {
        (day & (self.buckets.len() as u64 - 1)) as usize
    }

    /// Inserts `event` at instant `time` and returns the sequence number
    /// assigned to it. Events inserted at equal times pop in insertion
    /// order.
    pub fn push(&mut self, time: SimTime, event: E) -> u64 {
        let seq = self.take_seq();
        let day = self.day_of(time);
        if self.len == 0 || day < self.cursor_day {
            self.cursor_day = day;
        }
        let b = self.insert(Entry { time, seq, event });
        self.len += 1;
        self.pushes_since_resize += 1;
        if self.len > self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        } else if self.buckets[b].len() > 32
            && self.buckets[b].len() * 4 > self.len
            && self.pushes_since_resize >= self.len
        {
            // Width degeneracy: a steady-state queue never crosses the
            // length thresholds, so the width can go stale and funnel
            // the whole queue into one bucket. Rebuild at the same
            // bucket count to re-derive the width (rate-limited — see
            // the module docs).
            self.resize(self.buckets.len());
        }
        seq
    }

    /// Sorted insertion by `(time, seq)`. Sequences are assigned
    /// monotonically, so an in-order push lands at the back in O(1); the
    /// backward scan only walks when an earlier-time event arrives late.
    /// Returns the index of the bucket the entry landed in.
    fn insert(&mut self, entry: Entry<E>) -> usize {
        let b = self.bucket_of_day(entry.time.as_millis() / self.width);
        let bucket = &mut self.buckets[b];
        let key = (entry.time, entry.seq);
        let mut idx = bucket.len();
        while idx > 0 {
            let prev = &bucket[idx - 1];
            if (prev.time, prev.seq) < key {
                break;
            }
            idx -= 1;
        }
        bucket.insert(idx, entry);
        b
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX, u64::MAX)
    }

    /// Removes and returns the earliest event if its `(time, seq)` key
    /// sorts before `(time, seq)`; otherwise leaves it queued and returns
    /// `None`. The day scan stops at the bound's day, and the cursor
    /// keeps what the scan proved: every day it passed is empty.
    pub(crate) fn pop_before(&mut self, time: SimTime, seq: u64) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        let bound = (time, seq);
        let bound_day = self.day_of(time);
        let mut day = self.cursor_day;
        for _ in 0..self.buckets.len() {
            if day > bound_day {
                self.cursor_day = day;
                return None;
            }
            let b = self.bucket_of_day(day);
            if let Some(head) = self.buckets[b].front() {
                if head.time.as_millis() / self.width == day {
                    self.cursor_day = day;
                    if (head.time, head.seq) >= bound {
                        return None;
                    }
                    return Some(self.pop_head(b));
                }
            }
            match day.checked_add(1) {
                Some(d) => day = d,
                None => break,
            }
        }
        // A whole year without a hit: every pending event is beyond the
        // current year. Direct search over the bucket heads (each bucket is
        // sorted, so its head is its minimum).
        let (best, t, s) = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.front().map(|h| (i, h.time, h.seq)))
            .min_by_key(|&(_, t, s)| (t, s))
            .expect("len > 0 implies a pending entry");
        self.cursor_day = self.day_of(t);
        if (t, s) >= bound {
            return None;
        }
        Some(self.pop_head(best))
    }

    /// Pops the head of bucket `b`, which the caller found to be the
    /// earliest pending entry (the cursor already sits on its day).
    fn pop_head(&mut self, b: usize) -> (SimTime, E) {
        let e = self.buckets[b].pop_front().expect("head exists");
        self.len -= 1;
        self.maybe_shrink();
        (e.time, e.event)
    }

    /// Timestamp of the earliest pending event, if any. Read-only version
    /// of the [`CalendarQueue::pop`] scan (the cursor does not move).
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        let mut day = self.cursor_day;
        for _ in 0..self.buckets.len() {
            let b = self.bucket_of_day(day);
            if let Some(head) = self.buckets[b].front() {
                if head.time.as_millis() / self.width == day {
                    return Some(head.time);
                }
            }
            match day.checked_add(1) {
                Some(d) => day = d,
                None => break,
            }
        }
        self.buckets
            .iter()
            .filter_map(|b| b.front().map(|h| (h.time, h.seq)))
            .min()
            .map(|(t, _)| t)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The sequence number the next [`CalendarQueue::push`] will assign;
    /// see [`EventQueue::next_seq`](crate::EventQueue::next_seq).
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

    /// Cancels the pending event identified by `(time, seq)` and returns
    /// whether it was found. Unlike the heap's lazy tombstones, the
    /// calendar removes the entry directly: the bucket is located from
    /// `time`, the entry by its unique sequence number.
    pub fn cancel(&mut self, time: SimTime, seq: u64) -> bool {
        let b = self.bucket_of_day(self.day_of(time));
        let Some(idx) = self.buckets[b]
            .iter()
            .position(|e| e.seq == seq && e.time == time)
        else {
            return false;
        };
        self.buckets[b].remove(idx);
        self.len -= 1;
        true
    }

    /// Drops all pending events but **keeps the sequence counter** (FIFO
    /// tie-breaking stays stable across the clear) and the bucket
    /// allocations — the same contract as
    /// [`EventQueue::clear`](crate::EventQueue::clear).
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.len = 0;
        self.cursor_day = 0;
    }

    /// The current adaptive-layout parameters (see [`CalendarTuning`]).
    pub fn tuning(&self) -> CalendarTuning {
        CalendarTuning {
            buckets: self.buckets.len(),
            width_ms: self.width,
            cursor_day: self.cursor_day,
            pushes_since_resize: self.pushes_since_resize,
        }
    }

    /// The pending events in pop order (`(time, seq)` ascending) — the
    /// canonical form a checkpoint serializes. The queue is untouched.
    pub fn capture_entries(&self) -> Vec<(SimTime, u64, E)>
    where
        E: Clone,
    {
        let mut out: Vec<(SimTime, u64, E)> = self
            .buckets
            .iter()
            .flatten()
            .map(|e| (e.time, e.seq, e.event.clone()))
            .collect();
        out.sort_by_key(|&(t, s, _)| (t, s));
        out
    }

    /// Rebuilds a queue from a captured entry list, sequence counter and
    /// [`CalendarTuning`]. The tuning is reinstated **verbatim** and the
    /// entries are placed by sorted insertion only — none of `push`'s
    /// growth/overload resize heuristics fire, so the restored queue's
    /// layout (and therefore its future resize trajectory) is exactly the
    /// captured queue's.
    ///
    /// # Panics
    /// Panics when the tuning is not a power-of-two bucket count or the
    /// width is zero (a corrupt checkpoint; callers validate first).
    pub fn restore_entries(
        next_seq: u64,
        tuning: CalendarTuning,
        entries: Vec<(SimTime, u64, E)>,
    ) -> Self {
        assert!(
            tuning.buckets.is_power_of_two() && tuning.buckets >= MIN_BUCKETS,
            "calendar bucket count must be a power of two ≥ {MIN_BUCKETS}"
        );
        assert!(tuning.width_ms >= 1, "calendar day width must be ≥ 1 ms");
        debug_assert!(
            entries.iter().all(|&(_, s, _)| s < next_seq),
            "restored sequence numbers must precede next_seq"
        );
        let mut q = CalendarQueue {
            buckets: (0..tuning.buckets).map(|_| VecDeque::new()).collect(),
            width: tuning.width_ms,
            len: 0,
            next_seq,
            cursor_day: tuning.cursor_day,
            pushes_since_resize: tuning.pushes_since_resize,
        };
        for (time, seq, event) in entries {
            q.insert(Entry { time, seq, event });
            q.len += 1;
        }
        q
    }

    fn maybe_shrink(&mut self) {
        if self.len > 0 && self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.resize(self.buckets.len() / 2);
        }
    }

    /// Rebuilds the bucket array at `new_n` buckets with a day width
    /// recomputed from the live entries' inter-event gap statistics: the
    /// mean gap `(max − min) / len`, clamped to ≥ 1 ms. Entries keep their
    /// `(time, seq)` keys, so re-inserting them sorted leaves the pop
    /// order untouched.
    fn resize(&mut self, new_n: usize) {
        let new_n = new_n.next_power_of_two().max(MIN_BUCKETS);
        let mut min_t = u64::MAX;
        let mut max_t = 0u64;
        for bucket in &self.buckets {
            for e in bucket {
                let ms = e.time.as_millis();
                min_t = min_t.min(ms);
                max_t = max_t.max(ms);
            }
        }
        let span = max_t.saturating_sub(min_t);
        self.width = (span / self.len.max(1) as u64).max(1);
        self.pushes_since_resize = 0;
        let old = std::mem::replace(
            &mut self.buckets,
            (0..new_n).map(|_| VecDeque::new()).collect(),
        );
        for mut bucket in old {
            for e in bucket.drain(..) {
                self.insert(e);
            }
        }
        self.cursor_day = min_t / self.width;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order_across_resizes() {
        let mut q = CalendarQueue::new();
        // Push enough descending-time events to force growth resizes and
        // the late-insertion path.
        for i in (0..200u64).rev() {
            q.push(SimTime::from_secs(i * 7), i);
        }
        for i in 0..200u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn far_future_events_use_direct_search() {
        let mut q = CalendarQueue::new();
        // One event a decade out: beyond any initial year, so the first
        // pop must fall through to the head search.
        q.push(SimTime::from_secs(315_000_000), "far");
        q.push(SimTime::from_secs(630_000_000), "farther");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(315_000_000)));
        assert_eq!(q.pop().unwrap().1, "far");
        assert_eq!(q.pop().unwrap().1, "farther");
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_and_pops_stay_ordered() {
        let mut q = CalendarQueue::new();
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
    fn push_earlier_than_cursor_is_found() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::from_secs(100), "later");
        assert_eq!(q.pop().unwrap().1, "later");
        // The raw queue (unlike the Engine) accepts pushes in the past of
        // the last pop; the cursor must rewind.
        q.push(SimTime::from_secs(1), "past");
        q.push(SimTime::from_secs(200), "future");
        assert_eq!(q.pop().unwrap().1, "past");
        assert_eq!(q.pop().unwrap().1, "future");
    }

    #[test]
    fn clear_keeps_sequence_counter_and_capacity() {
        let mut q = CalendarQueue::new();
        q.push(SimTime::ZERO, 1);
        q.push(SimTime::ZERO, 2);
        let seq_before = q.next_seq();
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.next_seq(), seq_before, "clear must not reset sequences");
        let t = SimTime::from_secs(1);
        q.push(t, 3);
        q.push(t, 4);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
    }

    #[test]
    fn cancel_removes_exactly_the_named_event() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(5);
        let s1 = q.push(t, "a");
        q.push(t, "b");
        assert!(q.cancel(t, s1));
        assert!(!q.cancel(t, s1), "double cancel is a no-op");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn restore_reinstates_tuning_and_trajectory() {
        // Drive a queue through growth resizes, capture it mid-stream,
        // restore, then continue both copies in lockstep: pops, tuning
        // and sequence numbering must stay identical — the restored
        // queue resumes the *same* adaptive trajectory.
        let mut q = CalendarQueue::new();
        for i in 0..500u64 {
            q.push(SimTime::from_millis(i * 997 % 40_000), i);
        }
        for _ in 0..123 {
            q.pop();
        }
        let tuning = q.tuning();
        let mut r = CalendarQueue::restore_entries(q.next_seq(), tuning, q.capture_entries());
        assert_eq!(r.tuning(), tuning, "tuning is reinstated verbatim");
        assert_eq!(r.len(), q.len());
        assert_eq!(r.next_seq(), q.next_seq());
        for i in 500..1200u64 {
            let t = SimTime::from_millis(40_000 + i * 131 % 90_000);
            assert_eq!(q.push(t, i), r.push(t, i));
            if i % 3 == 0 {
                let (qt, qe) = q.pop().unwrap();
                let (rt, re) = r.pop().unwrap();
                assert_eq!((qt, qe), (rt, re));
            }
            assert_eq!(q.tuning(), r.tuning(), "resize trajectory diverged");
        }
        while let Some(a) = q.pop() {
            assert_eq!(Some(a), r.pop());
        }
        assert!(r.is_empty());
    }

    #[test]
    fn capture_lists_entries_in_pop_order() {
        let mut q = CalendarQueue::new();
        let t = SimTime::from_secs(3);
        q.push(t, "b1");
        q.push(SimTime::from_secs(1), "a");
        q.push(t, "b2");
        let got: Vec<_> = q.capture_entries().into_iter().map(|(_, _, e)| e).collect();
        assert_eq!(got, vec!["a", "b1", "b2"]);
        assert_eq!(q.len(), 3, "capture is read-only");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn restore_rejects_corrupt_bucket_count() {
        let tuning = CalendarTuning {
            buckets: 3,
            width_ms: 1,
            cursor_day: 0,
            pushes_since_resize: 0,
        };
        CalendarQueue::<()>::restore_entries(0, tuning, Vec::new());
    }

    #[test]
    fn shrink_resize_keeps_order() {
        let mut q = CalendarQueue::with_capacity(1024);
        for i in 0..4096u64 {
            q.push(SimTime::from_millis(i * 13), i);
        }
        // Drain most of it so shrink resizes trigger, interleaving a few
        // fresh pushes to exercise post-shrink insertion.
        for i in 0..4096u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert!(q.is_empty());
    }
}

//! The simulation engine: clock + event queue + run bookkeeping.
//!
//! The engine intentionally does **not** own the simulated world. A typical
//! driver loop looks like:
//!
//! ```
//! use simcore::{Engine, SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Tick(u32) }
//!
//! let mut engine: Engine<Ev> = Engine::new();
//! engine.schedule_in(SimDuration::from_secs(1), Ev::Tick(0));
//! let mut ticks = 0;
//! while let Some((now, ev)) = engine.pop() {
//!     match ev {
//!         Ev::Tick(n) if n < 3 => {
//!             ticks += 1;
//!             engine.schedule_in(SimDuration::from_secs(1), Ev::Tick(n + 1));
//!         }
//!         Ev::Tick(_) => { ticks += 1; }
//!     }
//!     assert_eq!(now, engine.now());
//! }
//! assert_eq!(ticks, 4);
//! assert_eq!(engine.now(), SimTime::from_secs(4));
//! ```
//!
//! Keeping the world outside the engine sidesteps every borrow conflict
//! between "handle this event" and "schedule follow-up events", and lets
//! each crate in the workspace define its own event enum.
//!
//! ## Fixed-delay lanes
//!
//! Periodic timers (a KIS poll or queue scan every 10 s) make up a large
//! share of a simulation's events, and each re-arms itself with the same
//! delay. [`Engine::schedule_in_lane`] appends such an event to a FIFO
//! *lane* keyed by its exact delay instead of pushing it into the queue
//! backend. Because the clock never goes backwards, `now + delay` never
//! decreases along a lane, so every lane is sorted by `(time, seq)` by
//! construction. Lane events take their sequence numbers from the
//! backend's counter, and [`Engine::pop`] delivers the minimum
//! `(time, seq)` of the backend's head and the lane heads — the pop order
//! is exactly what it would be had every event gone through the backend.

use std::collections::VecDeque;

use crate::calendar::{CalendarQueue, CalendarTuning};
use crate::queue::{Entry, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Counters the engine maintains about a run; cheap enough to keep always.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Events delivered through [`Engine::pop`].
    pub delivered: u64,
    /// Events scheduled (including not-yet-delivered ones).
    pub scheduled: u64,
    /// Events dropped because they were scheduled past the horizon.
    pub beyond_horizon: u64,
    /// Events removed by [`Engine::cancel`] before delivery.
    pub cancelled: u64,
}

/// Which event-queue implementation an [`Engine`] runs on.
///
/// Both produce *identical* pop orders — `(time, seq)` with FIFO
/// tie-breaking — which the differential suite pins; they differ only in
/// asymptotics. The calendar queue is the default for experiment drivers;
/// the heap is kept as the reference implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum QueueImpl {
    /// The binary-heap [`EventQueue`]: O(log n) push/pop, the reference.
    Heap,
    /// The [`CalendarQueue`]: O(1) amortized push/pop under the
    /// steady-state event mixes simulations produce.
    #[default]
    Calendar,
}

/// An opaque reference to a scheduled event, returned by
/// [`Engine::schedule_at_tracked`] and consumed by [`Engine::cancel`].
///
/// Handles are single-shot: once the event has been delivered (or
/// cancelled), the handle is dead and `cancel` returns `false`. Holding a
/// handle does not keep anything alive — it is just the `(time, sequence)`
/// coordinate of the entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventHandle {
    time: SimTime,
    seq: u64,
}

impl EventHandle {
    /// The instant the referenced event is scheduled for.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The sequence number of the referenced entry — with
    /// [`EventHandle::time`], the full coordinate a checkpoint needs to
    /// persist a live handle.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Reconstructs a handle from a persisted `(time, seq)` coordinate.
    /// Only meaningful for coordinates previously captured from a live
    /// handle and restored together with the queue entries they point at.
    pub fn from_parts(time: SimTime, seq: u64) -> Self {
        EventHandle { time, seq }
    }
}

/// The queue backend: one of the two implementations behind a static
/// dispatch point (a two-arm match, not a vtable — the pop loop is the
/// hottest path in the workspace).
enum Backend<E> {
    Heap(EventQueue<E>),
    Calendar(CalendarQueue<E>),
}

impl<E> Backend<E> {
    fn with_capacity(queue: QueueImpl, cap: usize) -> Self {
        match queue {
            QueueImpl::Heap => Backend::Heap(EventQueue::with_capacity(cap)),
            QueueImpl::Calendar => Backend::Calendar(CalendarQueue::with_capacity(cap)),
        }
    }

    #[inline]
    fn push(&mut self, time: SimTime, event: E) -> u64 {
        match self {
            Backend::Heap(q) => q.push(time, event),
            Backend::Calendar(q) => q.push(time, event),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<(SimTime, E)> {
        match self {
            Backend::Heap(q) => q.pop(),
            Backend::Calendar(q) => q.pop(),
        }
    }

    #[inline]
    fn pop_before(&mut self, time: SimTime, seq: u64) -> Option<(SimTime, E)> {
        match self {
            Backend::Heap(q) => q.pop_before(time, seq),
            Backend::Calendar(q) => q.pop_before(time, seq),
        }
    }

    #[inline]
    fn take_seq(&mut self) -> u64 {
        match self {
            Backend::Heap(q) => q.take_seq(),
            Backend::Calendar(q) => q.take_seq(),
        }
    }

    fn peek_time(&self) -> Option<SimTime> {
        match self {
            Backend::Heap(q) => q.peek_time(),
            Backend::Calendar(q) => q.peek_time(),
        }
    }

    fn len(&self) -> usize {
        match self {
            Backend::Heap(q) => q.len(),
            Backend::Calendar(q) => q.len(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Backend::Heap(q) => q.is_empty(),
            Backend::Calendar(q) => q.is_empty(),
        }
    }

    fn cancel(&mut self, time: SimTime, seq: u64) -> bool {
        match self {
            Backend::Heap(q) => q.cancel(time, seq),
            Backend::Calendar(q) => q.cancel(time, seq),
        }
    }

    fn clear(&mut self) {
        match self {
            Backend::Heap(q) => q.clear(),
            Backend::Calendar(q) => q.clear(),
        }
    }

    fn queue_impl(&self) -> QueueImpl {
        match self {
            Backend::Heap(_) => QueueImpl::Heap,
            Backend::Calendar(_) => QueueImpl::Calendar,
        }
    }
}

/// The events scheduled with one fixed delay through
/// [`Engine::schedule_in_lane`], in `(time, seq)` order.
struct Lane<E> {
    delay: SimDuration,
    entries: VecDeque<Entry<E>>,
}

/// A full capture of an [`Engine`]'s state, produced by
/// [`Engine::capture_state`] and consumed by [`Engine::restore_state`].
///
/// The entry list is in pop order (`(time, seq)` ascending) with heap
/// tombstones already dropped — cancelled events are gone from the
/// engine's observable behaviour, so they are not part of its state.
/// Events waiting in fixed-delay lanes are merged into the list; a
/// restored engine holds them all in its queue backend (lanes are an
/// internal routing choice, not state).
/// `calendar_tuning` is present exactly when `queue_impl` is
/// [`QueueImpl::Calendar`] (the calendar's adaptive layout is
/// history-dependent; see [`CalendarTuning`]); its `cursor_day` is
/// lowered to the earliest lane head's day, so the restored calendar's
/// scan cursor never sits past a pending entry.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineSnapshot<E> {
    /// The clock at capture time.
    pub now: SimTime,
    /// The configured horizon ([`SimTime::MAX`] when unbounded).
    pub horizon: SimTime,
    /// Run counters at capture time.
    pub stats: EngineStats,
    /// Which queue implementation the engine ran on.
    pub queue_impl: QueueImpl,
    /// The sequence number the next push will assign.
    pub next_seq: u64,
    /// Pending live events in pop order.
    pub entries: Vec<(SimTime, u64, E)>,
    /// Calendar layout parameters; `None` on the heap backend.
    pub calendar_tuning: Option<CalendarTuning>,
}

/// Discrete-event simulation engine.
///
/// Generic over the event type `E`; see the module docs for the driver
/// pattern. The clock only moves forward, in the order fixed by the
/// stable queue (heap or calendar, per [`QueueImpl`] — the order is the
/// same either way).
pub struct Engine<E> {
    now: SimTime,
    queue: Backend<E>,
    /// Fixed-delay FIFO lanes, one per distinct delay (a handful at
    /// most); see the module docs.
    lanes: Vec<Lane<E>>,
    horizon: SimTime,
    stats: EngineStats,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an engine at time zero with an unbounded horizon, on the
    /// default queue implementation ([`QueueImpl::Calendar`]).
    pub fn new() -> Self {
        Engine::configured(QueueImpl::default(), None, 0)
    }

    /// Creates an engine on an explicit queue implementation — the
    /// selection point the differential harness uses to run the same
    /// simulation on both backends.
    pub fn with_queue_impl(queue: QueueImpl) -> Self {
        Engine::configured(queue, None, 0)
    }

    /// Creates an engine that silently drops events scheduled at or after
    /// `horizon`. Useful for fixed-length experiments: periodic timers
    /// stop propagating themselves past the end instead of requiring an
    /// explicit cancellation pass.
    pub fn with_horizon(horizon: SimTime) -> Self {
        Engine::configured(QueueImpl::default(), Some(horizon), 0)
    }

    /// Creates an engine whose event queue has room for `cap` pending
    /// events before reallocating. Drivers that know their workload size
    /// up front (e.g. one arrival per job plus periodic timers) use this
    /// to keep the queue from growing incrementally during the run.
    pub fn with_capacity(cap: usize) -> Self {
        Engine::configured(QueueImpl::default(), None, cap)
    }

    /// [`Engine::with_horizon`] and [`Engine::with_capacity`] combined.
    pub fn with_horizon_and_capacity(horizon: SimTime, cap: usize) -> Self {
        Engine::configured(QueueImpl::default(), Some(horizon), cap)
    }

    /// The fully explicit constructor: queue implementation, optional
    /// horizon (`None` = unbounded), and initial queue capacity.
    pub fn configured(queue: QueueImpl, horizon: Option<SimTime>, cap: usize) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: Backend::with_capacity(queue, cap),
            lanes: Vec::new(),
            horizon: horizon.unwrap_or(SimTime::MAX),
            stats: EngineStats::default(),
        }
    }

    /// Which queue implementation this engine runs on.
    pub fn queue_impl(&self) -> QueueImpl {
        self.queue.queue_impl()
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (or zero before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The configured horizon ([`SimTime::MAX`] when unbounded).
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Run statistics so far.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len() + self.lanes.iter().map(|l| l.entries.len()).sum::<usize>()
    }

    /// True when no events are pending.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.lanes.iter().all(|l| l.entries.is_empty())
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// Events in the past are clamped to `now` (they will still run, after
    /// the events already pending at `now`); events at or past the horizon
    /// are dropped and counted in [`EngineStats::beyond_horizon`].
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        let _ = self.schedule_at_tracked(at, event);
    }

    /// Like [`Engine::schedule_at`], but returns a handle that can later
    /// be passed to [`Engine::cancel`]. Returns `None` when the event was
    /// dropped at the horizon (there is nothing to cancel).
    pub fn schedule_at_tracked(&mut self, at: SimTime, event: E) -> Option<EventHandle> {
        let at = at.max(self.now);
        if at >= self.horizon {
            self.stats.beyond_horizon += 1;
            return None;
        }
        self.stats.scheduled += 1;
        let seq = self.queue.push(at, event);
        Some(EventHandle { time: at, seq })
    }

    /// Schedules `event` after the relative delay `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Schedules `event` after `delay` on the FIFO lane for that exact
    /// delay (see the module docs) — for periodic timers, which re-arm
    /// with the same delay every time. Pop order, horizon and counters
    /// are exactly as with [`Engine::schedule_in`]; the difference is
    /// cost: an append to a short deque instead of a queue insertion.
    /// Lane events cannot be cancelled.
    pub fn schedule_in_lane(&mut self, delay: SimDuration, event: E) {
        let time = self.now + delay;
        if time >= self.horizon {
            self.stats.beyond_horizon += 1;
            return;
        }
        self.stats.scheduled += 1;
        let seq = self.queue.take_seq();
        let lane = match self.lanes.iter().position(|l| l.delay == delay) {
            Some(i) => &mut self.lanes[i],
            None => {
                self.lanes.push(Lane {
                    delay,
                    entries: VecDeque::new(),
                });
                self.lanes.last_mut().expect("lane just pushed")
            }
        };
        debug_assert!(
            lane.entries.back().is_none_or(|b| b.time <= time),
            "lane went backwards"
        );
        lane.entries.push_back(Entry { time, seq, event });
    }

    /// The lane whose head is the earliest lane event, with that head's
    /// `(time, seq)` key.
    #[inline]
    fn lane_head(&self) -> Option<(usize, SimTime, u64)> {
        let mut best: Option<(usize, SimTime, u64)> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(h) = lane.entries.front() {
                if best.is_none_or(|(_, t, s)| (h.time, h.seq) < (t, s)) {
                    best = Some((i, h.time, h.seq));
                }
            }
        }
        best
    }

    /// Like [`Engine::schedule_in`], but returns a cancellation handle
    /// (see [`Engine::schedule_at_tracked`]).
    pub fn schedule_in_tracked(&mut self, delay: SimDuration, event: E) -> Option<EventHandle> {
        self.schedule_at_tracked(self.now + delay, event)
    }

    /// Removes a pending event before delivery. Returns `true` when the
    /// handle still referenced a pending event; `false` when it was
    /// already delivered or cancelled (a safe no-op). Cancelled events are
    /// counted in [`EngineStats::cancelled`] and never appear in
    /// [`EngineStats::delivered`] — on either queue implementation, so
    /// cancellation preserves the heap/calendar differential identity.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        let hit = self.queue.cancel(handle.time, handle.seq);
        if hit {
            self.stats.cancelled += 1;
        }
        hit
    }

    /// Schedules `event` to run at the current instant, after everything
    /// already pending at this instant.
    pub fn schedule_now(&mut self, event: E) {
        self.schedule_at(self.now, event);
    }

    /// Pops the earliest event and advances the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = match self.lane_head() {
            None => self.queue.pop()?,
            Some((i, time, seq)) => match self.queue.pop_before(time, seq) {
                Some(hit) => hit,
                None => {
                    let head = self.lanes[i].entries.pop_front().expect("lane head");
                    (head.time, head.event)
                }
            },
        };
        debug_assert!(t >= self.now, "event queue went backwards");
        self.now = t;
        self.stats.delivered += 1;
        Some((t, e))
    }

    /// Timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        let lane = self.lane_head().map(|(_, t, _)| t);
        self.queue.peek_time().into_iter().chain(lane).min()
    }

    /// Drops every pending event (the clock keeps its value).
    ///
    /// Bookkeeping semantics, pinned by regression tests:
    ///
    /// * [`EngineStats::scheduled`] **keeps counting the cleared
    ///   events** — it records how many events were ever accepted by
    ///   `schedule_*`, not how many are still pending or will be
    ///   delivered. After a clear, `scheduled` may permanently exceed
    ///   `delivered` even once the queue drains.
    /// * The underlying [`EventQueue`] keeps its sequence counter, so
    ///   FIFO tie-breaking stays stable across the clear (see
    ///   [`EventQueue::clear`]).
    pub fn clear(&mut self) {
        self.queue.clear();
        for lane in &mut self.lanes {
            lane.entries.clear();
        }
    }

    /// Captures the engine's complete state — clock, horizon, counters,
    /// pending entries in pop order, and (on the calendar backend) the
    /// adaptive layout parameters. The engine is untouched; feeding the
    /// result to [`Engine::restore_state`] yields an engine whose every
    /// future pop, push and resize decision matches this one's.
    pub fn capture_state(&self) -> EngineSnapshot<E>
    where
        E: Clone,
    {
        let (next_seq, mut entries, mut calendar_tuning) = match &self.queue {
            Backend::Heap(q) => (q.next_seq(), q.capture_entries(), None),
            Backend::Calendar(q) => (q.next_seq(), q.capture_entries(), Some(q.tuning())),
        };
        if let Some(tuning) = calendar_tuning.as_mut() {
            if let Some((_, t, _)) = self.lane_head() {
                tuning.cursor_day = tuning.cursor_day.min(t.as_millis() / tuning.width_ms);
            }
        }
        let lanes = self.lanes.iter().flat_map(|l| &l.entries);
        entries.extend(lanes.map(|e| (e.time, e.seq, e.event.clone())));
        entries.sort_by_key(|&(t, s, _)| (t, s));
        EngineSnapshot {
            now: self.now,
            horizon: self.horizon,
            stats: self.stats,
            queue_impl: self.queue.queue_impl(),
            next_seq,
            entries,
            calendar_tuning,
        }
    }

    /// Rebuilds an engine from a captured [`EngineSnapshot`].
    ///
    /// # Panics
    /// Panics when a calendar snapshot lacks its tuning (an impossible
    /// capture; deserializers validate before calling this).
    pub fn restore_state(snap: EngineSnapshot<E>) -> Self {
        let queue = match snap.queue_impl {
            QueueImpl::Heap => {
                Backend::Heap(EventQueue::restore_entries(snap.next_seq, snap.entries))
            }
            QueueImpl::Calendar => {
                let tuning = snap
                    .calendar_tuning
                    .expect("calendar snapshot carries its tuning");
                Backend::Calendar(CalendarQueue::restore_entries(
                    snap.next_seq,
                    tuning,
                    snap.entries,
                ))
            }
        };
        Engine {
            now: snap.now,
            queue,
            lanes: Vec::new(),
            horizon: snap.horizon,
            stats: snap.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_pops() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_secs(2), 2);
        e.schedule_at(SimTime::from_secs(1), 1);
        assert_eq!(e.now(), SimTime::ZERO);
        assert_eq!(e.pop(), Some((SimTime::from_secs(1), 1)));
        assert_eq!(e.now(), SimTime::from_secs(1));
        assert_eq!(e.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(e.now(), SimTime::from_secs(2));
        assert_eq!(e.pop(), None);
        // Popping from an empty queue leaves the clock alone.
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::from_secs(10), "a");
        e.pop();
        e.schedule_at(SimTime::from_secs(3), "late-scheduled");
        let (t, ev) = e.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(10));
        assert_eq!(ev, "late-scheduled");
    }

    #[test]
    fn horizon_drops_far_events() {
        let mut e: Engine<u8> = Engine::with_horizon(SimTime::from_secs(100));
        e.schedule_at(SimTime::from_secs(99), 1);
        e.schedule_at(SimTime::from_secs(100), 2); // at horizon: dropped
        e.schedule_at(SimTime::from_secs(101), 3);
        assert_eq!(e.pending(), 1);
        assert_eq!(e.stats().beyond_horizon, 2);
        assert_eq!(e.pop(), Some((SimTime::from_secs(99), 1)));
        assert!(e.is_idle());
    }

    #[test]
    fn schedule_now_runs_after_pending_at_same_instant() {
        let mut e: Engine<&str> = Engine::new();
        e.schedule_at(SimTime::from_secs(1), "first");
        e.schedule_at(SimTime::from_secs(1), "second");
        let (_, ev) = e.pop().unwrap();
        assert_eq!(ev, "first");
        e.schedule_now("third");
        assert_eq!(e.pop().unwrap().1, "second");
        assert_eq!(e.pop().unwrap().1, "third");
    }

    #[test]
    fn cancel_skips_delivery_on_both_queue_impls() {
        for qi in [QueueImpl::Heap, QueueImpl::Calendar] {
            let mut e: Engine<&str> = Engine::with_queue_impl(qi);
            assert_eq!(e.queue_impl(), qi);
            let h1 = e
                .schedule_at_tracked(SimTime::from_secs(1), "cancelled")
                .unwrap();
            e.schedule_at(SimTime::from_secs(2), "kept");
            assert_eq!(e.pending(), 2);
            assert!(e.cancel(h1));
            assert!(!e.cancel(h1), "handles are single-shot");
            assert_eq!(e.pending(), 1);
            assert_eq!(e.peek_time(), Some(SimTime::from_secs(2)));
            assert_eq!(e.pop(), Some((SimTime::from_secs(2), "kept")));
            assert_eq!(e.pop(), None);
            let s = e.stats();
            assert_eq!((s.scheduled, s.delivered, s.cancelled), (2, 1, 1));
        }
    }

    #[test]
    fn cancel_after_delivery_is_a_safe_noop() {
        for qi in [QueueImpl::Heap, QueueImpl::Calendar] {
            let mut e: Engine<u8> = Engine::with_queue_impl(qi);
            let h = e.schedule_at_tracked(SimTime::from_secs(1), 1).unwrap();
            assert_eq!(e.pop(), Some((SimTime::from_secs(1), 1)));
            assert!(!e.cancel(h));
            assert_eq!(e.stats().cancelled, 0);
        }
    }

    #[test]
    fn tracked_schedule_past_horizon_returns_no_handle() {
        let mut e: Engine<u8> = Engine::with_horizon(SimTime::from_secs(1));
        assert!(e.schedule_at_tracked(SimTime::from_secs(5), 1).is_none());
        assert_eq!(e.stats().beyond_horizon, 1);
    }

    #[test]
    fn capture_restore_resumes_identically_on_both_impls() {
        for qi in [QueueImpl::Heap, QueueImpl::Calendar] {
            let mut e: Engine<u64> = Engine::configured(qi, Some(SimTime::from_secs(5_000)), 8);
            for i in 0..300u64 {
                e.schedule_at(SimTime::from_millis(i * 37 % 20_000), i);
            }
            let h = e
                .schedule_at_tracked(SimTime::from_millis(19_999), 999)
                .unwrap();
            for _ in 0..80 {
                e.pop();
            }
            let snap = e.capture_state();
            assert_eq!(snap.queue_impl, qi);
            assert_eq!(snap.calendar_tuning.is_some(), qi == QueueImpl::Calendar);
            let mut r = Engine::restore_state(snap.clone());
            assert_eq!(r.now(), e.now());
            assert_eq!(r.horizon(), e.horizon());
            assert_eq!(r.stats(), e.stats());
            assert_eq!(r.pending(), e.pending());
            // A persisted handle still cancels after restore.
            let rh = EventHandle::from_parts(h.time(), h.seq());
            assert!(r.cancel(rh));
            assert!(e.cancel(h));
            // Lockstep continuation: schedules and pops stay identical.
            let mut step = 0u64;
            loop {
                let a = e.pop();
                let b = r.pop();
                assert_eq!(a, b);
                let Some((t, _)) = a else { break };
                if step.is_multiple_of(5) {
                    e.schedule_at(t + SimDuration::from_millis(step * 11), 10_000 + step);
                    r.schedule_at(t + SimDuration::from_millis(step * 11), 10_000 + step);
                }
                step += 1;
            }
            assert_eq!(e.stats(), r.stats());
        }
    }

    #[test]
    fn snapshot_is_a_fixed_point_of_capture() {
        let mut e: Engine<u32> = Engine::new();
        for i in 0..50 {
            e.schedule_at(SimTime::from_millis(i as u64 * 97), i);
        }
        e.pop();
        let snap = e.capture_state();
        let r = Engine::restore_state(snap.clone());
        assert_eq!(r.capture_state(), snap);
    }

    #[test]
    fn stats_count_scheduled_and_delivered() {
        let mut e: Engine<u8> = Engine::new();
        for i in 0..10 {
            e.schedule_in(SimDuration::from_millis(i as u64), i);
        }
        while e.pop().is_some() {}
        assert_eq!(e.stats().scheduled, 10);
        assert_eq!(e.stats().delivered, 10);
    }
}

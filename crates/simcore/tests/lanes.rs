//! Fixed-delay lanes against a model.
//!
//! `Engine::schedule_in_lane` holds periodic events outside the queue
//! backend; the engine must still behave exactly like one totally ordered
//! queue. Random mixes of `schedule_at`, `schedule_in`, lane schedules,
//! tracked schedules with cancellation, pops and capture → restore run on
//! both queue implementations against a `BTreeMap<(SimTime, u64), E>`
//! model: pop order, `stats()`, `pending()` and `peek_time()` must agree
//! after every step.

use std::collections::BTreeMap;

use proptest::prelude::*;
use simcore::{Engine, EngineStats, EventHandle, QueueImpl, SimDuration, SimTime};

const HORIZON_MS: u64 = 400_000;
const LANE_DELAYS_MS: [u64; 4] = [0, 1_000, 10_000, 60_000];

/// The reference: one ordered map, a sequence counter and the counters.
struct Model {
    now: SimTime,
    next_seq: u64,
    entries: BTreeMap<(SimTime, u64), u64>,
    stats: EngineStats,
}

impl Model {
    fn new() -> Self {
        Model {
            now: SimTime::ZERO,
            next_seq: 0,
            entries: BTreeMap::new(),
            stats: EngineStats::default(),
        }
    }

    fn schedule_at(&mut self, at: SimTime, ev: u64) -> Option<(SimTime, u64)> {
        let at = at.max(self.now);
        if at >= SimTime::from_millis(HORIZON_MS) {
            self.stats.beyond_horizon += 1;
            return None;
        }
        self.stats.scheduled += 1;
        let key = (at, self.next_seq);
        self.next_seq += 1;
        self.entries.insert(key, ev);
        Some(key)
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let ((t, _), ev) = self.entries.pop_first()?;
        self.now = t;
        self.stats.delivered += 1;
        Some((t, ev))
    }

    fn cancel(&mut self, key: (SimTime, u64)) -> bool {
        let hit = self.entries.remove(&key).is_some();
        if hit {
            self.stats.cancelled += 1;
        }
        hit
    }
}

/// Runs one op sequence on `queue`, checking the engine against the
/// model after every step.
fn check(queue: QueueImpl, ops: &[(u8, u64, u64)]) {
    let mut e: Engine<u64> = Engine::configured(queue, Some(SimTime::from_millis(HORIZON_MS)), 0);
    let mut m = Model::new();
    let mut handles: Vec<EventHandle> = Vec::new();
    for (id, &(op, a, b)) in ops.iter().enumerate() {
        let ev = id as u64;
        match op {
            0 => {
                // Absolute instants, some in the past (clamped to now).
                let at = SimTime::from_millis(a * 40);
                e.schedule_at(at, ev);
                m.schedule_at(at, ev);
            }
            1 => {
                let d = SimDuration::from_millis(a);
                e.schedule_in(d, ev);
                m.schedule_at(m.now + d, ev);
            }
            2 | 3 => {
                let d = SimDuration::from_millis(LANE_DELAYS_MS[b as usize % 4]);
                e.schedule_in_lane(d, ev);
                m.schedule_at(m.now + d, ev);
            }
            4 => {
                let d = SimDuration::from_millis(a);
                let h = e.schedule_in_tracked(d, ev);
                let key = m.schedule_at(m.now + d, ev);
                prop_assert_eq!(h.map(|h| (h.time(), h.seq())), key);
                handles.extend(h);
            }
            5 => {
                if !handles.is_empty() {
                    let h = handles.swap_remove(b as usize % handles.len());
                    prop_assert_eq!(e.cancel(h), m.cancel((h.time(), h.seq())));
                }
            }
            6 => {
                let snap = e.capture_state();
                prop_assert_eq!(snap.entries.len(), e.pending());
                if let (Some(t), Some((first, _, _))) = (snap.calendar_tuning, snap.entries.first())
                {
                    prop_assert!(
                        t.cursor_day <= first.as_millis() / t.width_ms,
                        "captured cursor day {} sits past the earliest entry at {:?}",
                        t.cursor_day,
                        first
                    );
                }
                let restored = Engine::restore_state(snap.clone());
                prop_assert_eq!(restored.capture_state(), snap, "capture is a fixed point");
                e = restored;
                handles = handles
                    .iter()
                    .map(|h| EventHandle::from_parts(h.time(), h.seq()))
                    .collect();
            }
            _ => {
                for _ in 0..=(a % 4) {
                    prop_assert_eq!(e.pop(), m.pop());
                }
            }
        }
        prop_assert_eq!(e.stats(), m.stats);
        prop_assert_eq!(e.pending(), m.entries.len());
        prop_assert_eq!(e.is_idle(), m.entries.is_empty());
        prop_assert_eq!(e.peek_time(), m.entries.keys().next().map(|&(t, _)| t));
    }
    while let Some(got) = e.pop() {
        prop_assert_eq!(Some(got), m.pop());
    }
    prop_assert_eq!(m.pop(), None);
    prop_assert_eq!(e.stats(), m.stats);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lanes_match_a_single_ordered_map(
        ops in prop::collection::vec((0u8..10, 0u64..20_000, 0u64..64), 1..400),
    ) {
        check(QueueImpl::Calendar, &ops);
        check(QueueImpl::Heap, &ops);
    }
}

/// A capture taken while the earliest pending event waits in a lane and
/// the calendar's own cursor sits on a later day: the snapshot must pull
/// the cursor back to the lane head's day, or the restored calendar
/// would start its scan past that event and deliver out of order.
#[test]
fn capture_lowers_the_cursor_to_an_earlier_lane_head() {
    let mut e: Engine<&str> = Engine::with_queue_impl(QueueImpl::Calendar);
    e.schedule_in_lane(SimDuration::from_secs(10), "lane");
    // The calendar is empty, so this push puts its cursor on day 1000.
    e.schedule_at(SimTime::from_secs(1_000), "far");
    let snap = e.capture_state();
    let tuning = snap.calendar_tuning.expect("calendar tuning");
    assert_eq!(tuning.width_ms, 1_000);
    assert_eq!(
        tuning.cursor_day, 10,
        "cursor lowered to the lane head's day"
    );
    let mut r = Engine::restore_state(snap);
    assert_eq!(r.pop(), Some((SimTime::from_secs(10), "lane")));
    assert_eq!(r.pop(), Some((SimTime::from_secs(1_000), "far")));
    assert_eq!(r.pop(), None);
}

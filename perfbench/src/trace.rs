//! Outside-in tracing: per-event-kind aggregation around the public
//! `World` surface, a timing wrapper for job streams, and coarse spans
//! kept in memory until the run ends.
//!
//! Nothing here reaches inside the simulator. The traced pump drives a
//! `World` by hand with `Engine::pop`, `World::handle` and `World::done`
//! — the same loop `World::run_to_summary` runs — and timestamps the
//! gaps between those calls.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Instant;

use appsim::generate::JobStream;
use appsim::workload::SubmittedJob;
use koala::sim::Ev;
use koala::World;
use simcore::{Engine, EngineStats, SimTime};

/// Names of the simulator's event kinds, indexed by [`kind`].
pub const KINDS: [&str; 23] = [
    "Arrival",
    "ArrivalBatch",
    "QueueScan",
    "KisPoll",
    "StartHeld",
    "GrowHeld",
    "SyncDone",
    "ShrinkReleased",
    "Completion",
    "BgArrival",
    "BgComplete",
    "NodeWithdraw",
    "Claim",
    "AppGrowRequest",
    "NodeRestore",
    "MonitorSample",
    "AutoscaleCycle",
    "AutoscaleApply",
    "NodeCrash",
    "CtrlTimeout",
    "OrphanSweep",
    "TransferStart",
    "TransferDone",
];

/// Index of `ev`'s kind in [`KINDS`]. The match is exhaustive on
/// purpose: a new event kind fails to compile here instead of going
/// unattributed.
pub fn kind(ev: &Ev) -> usize {
    match ev {
        Ev::Arrival(_) => 0,
        Ev::ArrivalBatch { .. } => 1,
        Ev::QueueScan => 2,
        Ev::KisPoll => 3,
        Ev::StartHeld { .. } => 4,
        Ev::GrowHeld { .. } => 5,
        Ev::SyncDone { .. } => 6,
        Ev::ShrinkReleased { .. } => 7,
        Ev::Completion { .. } => 8,
        Ev::BgArrival { .. } => 9,
        Ev::BgComplete { .. } => 10,
        Ev::NodeWithdraw { .. } => 11,
        Ev::Claim { .. } => 12,
        Ev::AppGrowRequest { .. } => 13,
        Ev::NodeRestore { .. } => 14,
        Ev::MonitorSample => 15,
        Ev::AutoscaleCycle => 16,
        Ev::AutoscaleApply { .. } => 17,
        Ev::NodeCrash { .. } => 18,
        Ev::CtrlTimeout { .. } => 19,
        Ev::OrphanSweep => 20,
        Ev::TransferStart { .. } => 21,
        Ev::TransferDone { .. } => 22,
    }
}

/// Nanoseconds since the first call in this process — the common time
/// base of every span, whichever thread records it.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// Per-layer tallies of one traced unit of work (a run, a prefix or a
/// fork tail); units merge by addition, peaks by maximum.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Deliveries per event kind.
    pub kind_count: [u64; 23],
    /// Self time per event kind: `World::handle` minus nested stream pulls.
    pub kind_ns: [u64; 23],
    /// `Engine::pop` calls and their time (including the `peek_time`
    /// boundary check of a prefix pump).
    pub pops: u64,
    pub pop_ns: u64,
    /// `World::done` calls and their time.
    pub dones: u64,
    pub done_ns: u64,
    /// Runs built (validate + engine + constructor + bootstrap) and the
    /// builds' self time.
    pub builds: u64,
    pub build_ns: u64,
    /// `World::finish_summary` calls and their time.
    pub finishes: u64,
    pub finish_ns: u64,
    /// `JobStream::next_job` calls and their time.
    pub next_jobs: u64,
    pub next_job_ns: u64,
    /// `World::snapshot` captures, their time and serialized size.
    pub captures: u64,
    pub capture_ns: u64,
    pub snapshot_bytes: u64,
    /// `World::fork_with` calls and their time.
    pub forks: u64,
    pub fork_ns: u64,
    /// `MultiSummary::pooled` calls and their time.
    pub pools: u64,
    pub pool_ns: u64,
    /// Engine counters of the work this unit did (a fork tail excludes
    /// the prefix it restored).
    pub delivered: u64,
    pub scheduled: u64,
    pub cancelled: u64,
    /// Availability-index counters of the work this unit did.
    pub quick_rejects: u64,
    pub rebuilds: u64,
    /// Highest `Engine::pending` seen after any delivery.
    pub pending_peak: usize,
    /// Host time spent in shared warm-fork prefixes.
    pub prefix_ns: u64,
    /// Wall time of the traced units (the coverage denominator).
    pub unit_ns: u64,
}

impl Layers {
    pub fn merge(&mut self, o: &Layers) {
        for k in 0..KINDS.len() {
            self.kind_count[k] += o.kind_count[k];
            self.kind_ns[k] += o.kind_ns[k];
        }
        self.pops += o.pops;
        self.pop_ns += o.pop_ns;
        self.dones += o.dones;
        self.done_ns += o.done_ns;
        self.builds += o.builds;
        self.build_ns += o.build_ns;
        self.finishes += o.finishes;
        self.finish_ns += o.finish_ns;
        self.next_jobs += o.next_jobs;
        self.next_job_ns += o.next_job_ns;
        self.captures += o.captures;
        self.capture_ns += o.capture_ns;
        self.snapshot_bytes += o.snapshot_bytes;
        self.forks += o.forks;
        self.fork_ns += o.fork_ns;
        self.pools += o.pools;
        self.pool_ns += o.pool_ns;
        self.delivered += o.delivered;
        self.scheduled += o.scheduled;
        self.cancelled += o.cancelled;
        self.quick_rejects += o.quick_rejects;
        self.rebuilds += o.rebuilds;
        self.pending_peak = self.pending_peak.max(o.pending_peak);
        self.prefix_ns += o.prefix_ns;
        self.unit_ns += o.unit_ns;
    }

    /// Events attributed to a kind.
    pub fn kind_total(&self) -> u64 {
        self.kind_count.iter().sum()
    }

    /// Self time attributed to some layer.
    pub fn attributed_ns(&self) -> u64 {
        self.kind_ns.iter().sum::<u64>()
            + self.pop_ns
            + self.done_ns
            + self.build_ns
            + self.finish_ns
            + self.next_job_ns
            + self.capture_ns
            + self.fork_ns
            + self.pool_ns
    }

    /// Records the engine and index counters of a unit that ended at
    /// `end` after starting from `start` (zero for a cold run).
    pub fn count_work(
        &mut self,
        end: &EngineStats,
        start: &EngineStats,
        end_idx: (u64, u64),
        start_idx: (u64, u64),
    ) {
        self.delivered += end.delivered - start.delivered;
        self.scheduled += end.scheduled - start.scheduled;
        self.cancelled += end.cancelled - start.cancelled;
        self.quick_rejects += end_idx.0 - start_idx.0;
        self.rebuilds += end_idx.1 - start_idx.1;
    }
}

/// Availability-index counters of a world: `(quick_rejects, rebuilds)`.
pub fn index_counters(world: &World<'_>) -> (u64, u64) {
    let idx = world.avail_index();
    (idx.quick_rejects(), idx.rebuilds())
}

/// Stream-pull tallies shared between a [`TimedStream`] and the pump
/// that must subtract nested pulls from the handler's self time.
#[derive(Debug, Default)]
pub struct StreamTally {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl StreamTally {
    pub fn ns(&self) -> u64 {
        self.ns.get()
    }

    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// A [`JobStream`] that times every pull of the stream it wraps.
pub struct TimedStream<'t> {
    inner: Box<dyn JobStream>,
    tally: &'t StreamTally,
}

impl<'t> TimedStream<'t> {
    pub fn new(inner: Box<dyn JobStream>, tally: &'t StreamTally) -> Self {
        TimedStream { inner, tally }
    }
}

impl JobStream for TimedStream<'_> {
    fn next_job(&mut self) -> Option<SubmittedJob> {
        let t0 = Instant::now();
        let job = self.inner.next_job();
        self.tally
            .ns
            .set(self.tally.ns.get() + ns(t0, Instant::now()));
        self.tally.calls.set(self.tally.calls.get() + 1);
        job
    }

    fn remaining_hint(&self) -> Option<u64> {
        self.inner.remaining_hint()
    }
}

/// The traced event loop. With `until = None` this is `World`'s own pump
/// (pop, handle, stop once done); with `Some(t)` it is `World::run_until`
/// (stop before the first event at or after `t`). Each delivery is timed
/// in three gaps — pop, handle, done — and the handle gap, less any
/// stream pulls nested in it, is charged to the event's kind.
pub fn pump(
    world: &mut World<'_>,
    engine: &mut Engine<Ev>,
    until: Option<SimTime>,
    tally: Option<&StreamTally>,
    l: &mut Layers,
) {
    loop {
        let t0 = Instant::now();
        if let Some(until) = until {
            match engine.peek_time() {
                Some(t) if t < until => {}
                _ => {
                    l.pop_ns += ns(t0, Instant::now());
                    break;
                }
            }
        }
        let Some((_at, ev)) = engine.pop() else {
            l.pop_ns += ns(t0, Instant::now());
            l.pops += 1;
            break;
        };
        let t1 = Instant::now();
        let pulled = tally.map_or(0, StreamTally::ns);
        world.handle(engine, ev);
        let nested = tally.map_or(0, StreamTally::ns) - pulled;
        let t2 = Instant::now();
        let done = world.done();
        let t3 = Instant::now();
        let k = kind(&ev);
        l.kind_count[k] += 1;
        l.kind_ns[k] += ns(t1, t2).saturating_sub(nested);
        l.pops += 1;
        l.pop_ns += ns(t0, t1);
        l.dones += 1;
        l.done_ns += ns(t2, t3);
        l.pending_peak = l.pending_peak.max(engine.pending());
        if done {
            break;
        }
    }
}

/// One coarse span: a named interval, its parent and the thread that
/// recorded it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub label: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: String,
}

/// Coarse spans of one thread's work, kept in memory until the run
/// writes them out.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Opens a span and returns its id.
    pub fn open(
        &mut self,
        name: &'static str,
        label: impl Into<String>,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            label: label.into(),
            parent,
            start_ns: now_ns(),
            end_ns: 0,
            thread: format!("{:?}", std::thread::current().id()),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize) -> u64 {
        let s = &mut self.spans[id];
        s.end_ns = now_ns();
        s.end_ns - s.start_ns
    }

    /// Appends another log's spans, hanging its roots under `parent`.
    pub fn adopt(&mut self, other: SpanLog, parent: usize) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = Some(s.parent.map_or(parent, |p| p + base));
            s
        }));
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let items: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                format!(
                    "{{\"id\":{id},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"thread\":\"{}\"}}",
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.name,
                    escape(&s.label),
                    s.start_ns,
                    s.end_ns,
                    escape(&s.thread),
                )
            })
            .collect();
        format!("[\n{}\n]", items.join(",\n"))
    }
}

/// Escapes a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

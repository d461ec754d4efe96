//! The traced operation: each workload's runs rebuilt from the public
//! functions of each crate, so every layer can be timed from outside.
//! The runs it produces must render byte-identically to the untraced
//! operation's, which shows the harness changes nothing it measures.

use std::collections::BTreeMap;
use std::time::Instant;

use appsim::generate::WorkloadRegistry;
use koala::config::ExperimentConfig;
use koala::parallel::parallel_map;
use koala::report::SummaryReport;
use koala::snapshot::fork_fingerprint;
use koala::{engine_for, Snapshot, World};
use simcore::{Engine, EngineStats, SimTime};

use crate::trace::{index_counters, pump, Layers, SpanLog, StreamTally, TimedStream};
use crate::workloads::{pool, Inputs, Kind, LOOKAHEAD};

/// What one traced operation produced.
pub struct TracedRep {
    pub runs: Vec<SummaryReport>,
    pub layers: Layers,
    pub spans: SpanLog,
    /// Wall time of each run (a fork tail for chaos_fork).
    pub cell_ns: Vec<u64>,
    /// Whether every run's per-kind counts summed to the events its
    /// engine delivered.
    pub kinds_match: bool,
    /// Deliveries per kind as the simulated runs saw them: a fork tail
    /// counts its shared prefix too, like the summaries it is compared
    /// with.
    pub sim_kinds: [u64; 23],
    pub wall_ns: u64,
}

/// One traced unit: its tallies, spans and summary (none for a
/// warm-fork prefix).
struct Unit {
    summary: Option<SummaryReport>,
    layers: Layers,
    spans: SpanLog,
    ns: u64,
    kinds_match: bool,
    sim_kinds: [u64; 23],
}

pub fn traced_rep(inp: &Inputs, threads: usize) -> TracedRep {
    let t0 = Instant::now();
    let mut spans = SpanLog::default();
    let rep = spans.open("rep", inp.kind.name(), None);
    let mut layers = Layers::default();
    let mut kinds_match = true;
    let units: Vec<Unit> = match inp.kind {
        Kind::TraceStream => {
            let (c, seed) = inp.cells[0];
            vec![stream_run(&inp.cfgs[c], seed, inp.jobs_per_run as u64)]
        }
        Kind::PaperSweep => parallel_map(&inp.cells, threads, |&(c, seed)| {
            cold_run(&inp.cfgs[c], seed)
        }),
        Kind::ChaosFork => {
            let (prefixes, tails) = warm_runs(inp, threads);
            for p in prefixes {
                layers.merge(&p.layers);
                spans.adopt(p.spans, rep);
                kinds_match &= p.kinds_match;
            }
            tails
        }
    };
    let mut runs = Vec::with_capacity(units.len());
    let mut cell_ns = Vec::with_capacity(units.len());
    let mut sim_kinds = [0u64; 23];
    for u in units {
        for (k, n) in u.sim_kinds.iter().enumerate() {
            sim_kinds[k] += n;
        }
        layers.merge(&u.layers);
        spans.adopt(u.spans, rep);
        cell_ns.push(u.ns);
        kinds_match &= u.kinds_match;
        runs.push(u.summary.expect("runs and fork tails summarize"));
    }
    let p = spans.open("pool", "", Some(rep));
    let pooled = pool(inp, &runs);
    let pool_ns = spans.close(p);
    layers.pools += pooled.len() as u64;
    layers.pool_ns += pool_ns;
    layers.unit_ns += pool_ns;
    spans.close(rep);
    TracedRep {
        runs,
        layers,
        spans,
        cell_ns,
        kinds_match,
        sim_kinds,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

fn label(cfg: &ExperimentConfig, seed: u64) -> String {
    format!("{} seed {seed}", cfg.name)
}

/// `koala::run_generator_summary_seeded` rebuilt: the streaming world
/// over a timed `trace1m` stream.
fn stream_run(cfg: &ExperimentConfig, seed: u64, jobs: u64) -> Unit {
    let mut l = Layers::default();
    let mut spans = SpanLog::default();
    let run = spans.open("run", label(cfg, seed), None);
    let tally = StreamTally::default();

    let b = spans.open("build", "", Some(run));
    cfg.sched.validate().expect("valid scheduler settings");
    cfg.elasticity
        .validate()
        .expect("valid elasticity settings");
    let name = cfg
        .generator
        .as_deref()
        .expect("trace_stream names a generator");
    let src = WorkloadRegistry::global()
        .source(name)
        .expect("registered generator");
    let mut stream = TimedStream::new(src.stream(seed, jobs), &tally);
    let mut engine = Engine::configured(
        cfg.sched.event_queue,
        cfg.horizon.map(|h| SimTime::ZERO + h),
        LOOKAHEAD * 2 + 64,
    );
    let mut world = World::for_stream_summarized(cfg, seed, &mut stream, LOOKAHEAD);
    world.bootstrap(&mut engine);
    l.build_ns += spans.close(b).saturating_sub(tally.ns());
    l.builds += 1;

    let p = spans.open("pump", "", Some(run));
    pump(&mut world, &mut engine, None, Some(&tally), &mut l);
    spans.close(p);

    let (summary, stats, idx) = finish(world, &engine, &mut l, &mut spans, run);
    l.next_jobs += tally.calls();
    l.next_job_ns += tally.ns();
    l.count_work(&stats, &EngineStats::default(), idx, (0, 0));
    let ns = spans.close(run);
    l.unit_ns += ns;
    Unit {
        summary: Some(summary),
        kinds_match: l.kind_total() == stats.delivered,
        sim_kinds: l.kind_count,
        layers: l,
        spans,
        ns,
    }
}

/// `koala::run_experiment_summary_seeded` rebuilt (no warm fork).
fn cold_run(cfg: &ExperimentConfig, seed: u64) -> Unit {
    let mut l = Layers::default();
    let mut spans = SpanLog::default();
    let run = spans.open("run", label(cfg, seed), None);
    let (mut world, mut engine) = build(cfg, seed, &mut l, &mut spans, run);

    let p = spans.open("pump", "", Some(run));
    pump(&mut world, &mut engine, None, None, &mut l);
    spans.close(p);

    let (summary, stats, idx) = finish(world, &engine, &mut l, &mut spans, run);
    l.count_work(&stats, &EngineStats::default(), idx, (0, 0));
    let ns = spans.close(run);
    l.unit_ns += ns;
    Unit {
        summary: Some(summary),
        kinds_match: l.kind_total() == stats.delivered,
        sim_kinds: l.kind_count,
        layers: l,
        spans,
        ns,
    }
}

/// Validate, `engine_for`, the summarized constructor and bootstrap —
/// the per-run build both cold runs and warm prefixes share.
fn build<'a>(
    cfg: &'a ExperimentConfig,
    seed: u64,
    l: &mut Layers,
    spans: &mut SpanLog,
    parent: usize,
) -> (World<'a>, Engine<koala::sim::Ev>) {
    let b = spans.open("build", "", Some(parent));
    cfg.validate().expect("valid configuration");
    let mut engine = engine_for(cfg);
    let mut world = World::for_seed_summarized(cfg, seed);
    world.bootstrap(&mut engine);
    l.build_ns += spans.close(b);
    l.builds += 1;
    (world, engine)
}

/// `World::finish_summary`, timed; returns the engine and index
/// counters read just before it.
fn finish(
    world: World<'_>,
    engine: &Engine<koala::sim::Ev>,
    l: &mut Layers,
    spans: &mut SpanLog,
    parent: usize,
) -> (SummaryReport, EngineStats, (u64, u64)) {
    let stats = engine.stats();
    let idx = index_counters(&world);
    let f = spans.open("finish", "", Some(parent));
    let summary = world.finish_summary(engine);
    l.finish_ns += spans.close(f);
    l.finishes += 1;
    (summary, stats, idx)
}

/// What a warm-fork prefix hands its forks.
struct Prefix {
    snap: Snapshot,
    stats: EngineStats,
    idx: (u64, u64),
    kinds: [u64; 23],
}

/// `koala::parallel::run_cells_summary_warm` rebuilt: one traced prefix
/// per `(fork fingerprint, seed)` group under the base policies,
/// captured with `World::snapshot`, then one traced fork tail per cell
/// through `World::fork_with`.
fn warm_runs(inp: &Inputs, threads: usize) -> (Vec<Unit>, Vec<Unit>) {
    let cells = inp.cell_refs();
    let mut groups: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
    for (i, cell) in cells.iter().enumerate() {
        groups
            .entry((fork_fingerprint(cell.cfg), cell.seed))
            .or_default()
            .push(i);
    }
    let warmups: Vec<(Vec<usize>, ExperimentConfig, u64, SimTime)> = groups
        .into_values()
        .map(|idxs| {
            let cell = &cells[idxs[0]];
            let wf = cell
                .cfg
                .warm_fork
                .as_ref()
                .expect("chaos_fork cells warm-fork");
            let mut warm = cell.cfg.clone();
            warm.sched.placement = wf.base_placement.clone();
            warm.sched.malleability = wf.base_malleability.clone();
            (idxs, warm, cell.seed, SimTime::ZERO + wf.at)
        })
        .collect();
    let prefixes: Vec<(Unit, Prefix)> = parallel_map(&warmups, threads, |(_, cfg, seed, at)| {
        prefix_run(cfg, *seed, *at)
    });
    let mut prefix_of: Vec<Option<&Prefix>> = vec![None; cells.len()];
    for ((idxs, ..), (_, p)) in warmups.iter().zip(&prefixes) {
        for &i in idxs {
            prefix_of[i] = Some(p);
        }
    }
    let order: Vec<usize> = (0..cells.len()).collect();
    let tails = parallel_map(&order, threads, |&i| {
        let p = prefix_of[i].expect("every chaos_fork cell has a prefix");
        fork_run(cells[i].cfg, cells[i].seed, p)
    });
    (prefixes.into_iter().map(|(u, _)| u).collect(), tails)
}

fn prefix_run(cfg: &ExperimentConfig, seed: u64, at: SimTime) -> (Unit, Prefix) {
    let mut l = Layers::default();
    let mut spans = SpanLog::default();
    let run = spans.open("prefix", label(cfg, seed), None);
    let (mut world, mut engine) = build(cfg, seed, &mut l, &mut spans, run);

    let p = spans.open("pump", "", Some(run));
    pump(&mut world, &mut engine, Some(at), None, &mut l);
    spans.close(p);

    let c = spans.open("capture", "", Some(run));
    let snap = world
        .snapshot(&engine)
        .expect("summarized fixed-intake world captures");
    l.capture_ns += spans.close(c);
    l.captures += 1;
    let stats = engine.stats();
    let idx = index_counters(&world);
    l.count_work(&stats, &EngineStats::default(), idx, (0, 0));
    let ns = spans.close(run);
    l.unit_ns += ns;
    l.prefix_ns += ns;
    l.snapshot_bytes += snap.to_bytes().len() as u64;
    let kinds = l.kind_count;
    let prefix = Prefix {
        snap,
        stats,
        idx,
        kinds,
    };
    let unit = Unit {
        summary: None,
        kinds_match: l.kind_total() == stats.delivered,
        sim_kinds: kinds,
        layers: l,
        spans,
        ns,
    };
    (unit, prefix)
}

fn fork_run(cfg: &ExperimentConfig, seed: u64, p: &Prefix) -> Unit {
    let mut l = Layers::default();
    let mut spans = SpanLog::default();
    let run = spans.open("cell", label(cfg, seed), None);

    let f = spans.open("fork", "", Some(run));
    let (mut world, mut engine) = World::fork_with(cfg, &p.snap).expect("fork-compatible cell");
    l.fork_ns += spans.close(f);
    l.forks += 1;

    let r = spans.open("pump", "", Some(run));
    if !world.done() {
        pump(&mut world, &mut engine, None, None, &mut l);
    }
    spans.close(r);

    let (summary, stats, idx) = finish(world, &engine, &mut l, &mut spans, run);
    l.count_work(&stats, &p.stats, idx, p.idx);
    let ns = spans.close(run);
    l.unit_ns += ns;
    Unit {
        summary: Some(summary),
        kinds_match: p.kinds.iter().sum::<u64>() + l.kind_total() == stats.delivered,
        sim_kinds: std::array::from_fn(|k| p.kinds[k] + l.kind_count[k]),
        layers: l,
        spans,
        ns,
    }
}

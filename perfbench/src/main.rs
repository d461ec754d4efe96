//! The repository benchmark: three workloads of the malleable-KOALA
//! simulator, end-to-end metrics measured with tracing off and per-layer
//! metrics from a separate traced run that times each layer from
//! outside, through the public functions of each crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <trace_stream|paper_sweep|chaos_fork> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --list
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The lines before it
//! name every metric with its unit, the correctness gates, and the
//! run's facts (hardware threads, workers, seeds, job counts, git
//! revision, rustc version); the same, with the coarse spans, go to
//! `perfbench/out/`.

mod catalog;
mod sys;
mod trace;
mod traced;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use koala::report::SummaryReport;
use koala::sim::Ev;

use crate::trace::{escape, Layers, SpanLog, KINDS};
use crate::traced::traced_rep;
use crate::workloads::{
    conserved, pool, render, renders_as, setup, simulated, terminal_jobs, Inputs, Kind,
};

const USAGE: &str = "usage: koala-perfbench --workload <trace_stream|paper_sweep|chaos_fork> \
                     --seed <n> --seconds <s> --trace <0|1>\n       koala-perfbench --list";

/// Set-up is repeated, each time timed alone, in rounds of at least
/// this long with a calibration between rounds; a round's figure is its
/// median set-up time, calibrated, and the reported set-up time is the
/// median over the rounds.
const SETUP_ROUND: Duration = Duration::from_millis(10);
const SETUP_ROUNDS: usize = 9;

/// Reference time of one calibration-kernel pass. Timings are reported
/// in host seconds scaled to a host on which the kernel takes this
/// long: each repetition's wall time is multiplied by this over the
/// mean of the kernel times measured just before and just after it.
/// On a shared host whose speed drifts by a third within seconds, this
/// is what makes two runs of the same code comparable.
const CAL_REF_S: f64 = 0.010;

/// Fewest timed repetitions, whatever the time budget.
const MIN_REPS: usize = 5;

/// Upper bound on the worker threads of the parallel runner.
const MAX_WORKERS: usize = 2;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        print!("{}", catalog::markdown());
        return Ok(None);
    }
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let workload = Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: u64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// Median of `v` (0 for an empty slice).
fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Set-up, timed: returns the inputs and the median seconds per set-up,
/// calibrated like the repetitions.
fn timed_setup(kind: Kind, seed: u64, spans: &mut SpanLog, parent: usize) -> (Inputs, f64) {
    let s = spans.open("setup", "", Some(parent));
    let mut per_round = Vec::with_capacity(SETUP_ROUNDS);
    let mut last = None;
    let mut cal = sys::calibrate(1);
    for _ in 0..SETUP_ROUNDS {
        let mut times = Vec::new();
        let start = Instant::now();
        while times.is_empty() || start.elapsed() < SETUP_ROUND {
            let t0 = Instant::now();
            let inputs = std::hint::black_box(setup(kind, seed));
            times.push(t0.elapsed().as_secs_f64());
            // The previous inputs drop here, outside the timed region.
            last = Some(inputs);
        }
        let next = sys::calibrate(1);
        per_round.push(median(&times) * CAL_REF_S / ((cal + next) / 2.0));
        cal = next;
    }
    spans.close(s);
    (last.expect("at least one set-up ran"), median(&per_round))
}

/// The state of one benchmark run: its inputs, failure accounting, the
/// reference render every operation must reproduce, and its spans.
struct Bench<'i> {
    inp: &'i Inputs,
    workers: usize,
    attempted: u64,
    failed: u64,
    all_terminal: bool,
    repeat_identical: bool,
    gates: Vec<(&'static str, bool)>,
    reference: Option<String>,
    first: Vec<SummaryReport>,
    first_pooled: Vec<SummaryReport>,
    /// The latest calibration-kernel time, and every one measured.
    cal_last: f64,
    cal_all: Vec<f64>,
    /// Unscaled jobs per second of every timed repetition.
    raw_rates: Vec<f64>,
    spans: SpanLog,
    root: usize,
}

impl<'i> Bench<'i> {
    fn cells(&self) -> u64 {
        self.inp.cells.len() as u64
    }

    /// Threads the workload's operation runs on.
    fn op_threads(&self) -> usize {
        match self.inp.kind {
            Kind::TraceStream => 1,
            Kind::PaperSweep | Kind::ChaosFork => self.workers,
        }
    }

    /// Times the calibration kernel and returns the scale of the
    /// operation that ran since the previous calibration.
    fn recalibrate(&mut self) -> f64 {
        let s = self.spans.open("calibrate", "", Some(self.root));
        let cal = sys::calibrate(self.op_threads());
        self.spans.spans[s].label = format!("{cal}");
        self.spans.close(s);
        let scale = CAL_REF_S / ((self.cal_last + cal) / 2.0);
        self.cal_last = cal;
        self.cal_all.push(cal);
        scale
    }

    /// Checks one operation's runs; the first operation's render
    /// becomes the reference. Returns whether all runs passed.
    fn check(&mut self, runs: &[SummaryReport], pooled: Vec<SummaryReport>) -> bool {
        self.attempted += self.cells();
        let bad = runs.iter().filter(|r| !conserved(self.inp, r)).count() as u64;
        self.all_terminal &= bad == 0;
        match &self.reference {
            None => {
                self.reference = Some(render(runs));
                self.first = runs.to_vec();
                self.first_pooled = pooled;
            }
            Some(reference) if !renders_as(runs, reference) => {
                self.repeat_identical = false;
                self.failed += self.cells();
                return false;
            }
            Some(_) => {}
        }
        self.failed += bad;
        bad == 0
    }

    /// One untraced operation; its wall seconds and terminal jobs, or
    /// `None` when it failed.
    fn untraced(&mut self, name: &'static str, threads: usize) -> Option<(f64, u64)> {
        let s = self
            .spans
            .open(name, format!("{threads} threads"), Some(self.root));
        let inp = self.inp;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| {
            let runs = workloads::run(inp, threads);
            let pooled = pool(inp, &runs);
            (runs, pooled)
        }));
        let wall = t0.elapsed().as_secs_f64();
        self.spans.close(s);
        match out {
            Ok((runs, pooled)) => self
                .check(&runs, pooled)
                .then(|| (wall, terminal_jobs(&runs))),
            Err(_) => {
                self.attempted += self.cells();
                self.failed += self.cells();
                None
            }
        }
    }

    /// Repeats the untraced operation for `budget` (at least
    /// [`MIN_REPS`] times), calibrating between repetitions; returns
    /// each good repetition's calibrated seconds and jobs per second.
    fn timed(&mut self, budget: Duration) -> (Vec<f64>, Vec<f64>) {
        let start = Instant::now();
        let (mut walls, mut rates) = (Vec::new(), Vec::new());
        let mut reps = 0;
        self.recalibrate();
        while reps < MIN_REPS || start.elapsed() < budget {
            reps += 1;
            let out = self.untraced("rep", self.workers);
            let scale = self.recalibrate();
            if let Some((wall, jobs)) = out {
                walls.push(wall * scale);
                rates.push(jobs as f64 / (wall * scale));
                self.raw_rates.push(jobs as f64 / wall);
            }
        }
        (walls, rates)
    }

    /// A correctness gate outside the timed region: `f`'s runs must
    /// render exactly like the reference and pass their own checks.
    fn gate(&mut self, name: &'static str, f: impl FnOnce(&Inputs) -> Vec<SummaryReport>) {
        let s = self.spans.open("gate", name, Some(self.root));
        let inp = self.inp;
        let out = catch_unwind(AssertUnwindSafe(|| f(inp)));
        self.spans.close(s);
        self.attempted += self.cells();
        let ok = match &out {
            Ok(runs) => {
                self.reference
                    .as_deref()
                    .is_some_and(|reference| renders_as(runs, reference))
                    && runs.iter().all(|r| conserved(inp, r))
            }
            Err(_) => false,
        };
        if !ok {
            self.failed += self.cells();
        }
        self.gates.push((name, ok));
    }

    /// The workload's own gate: paper_sweep at another thread count,
    /// chaos_fork cold instead of warm-forked.
    fn workload_gate(&mut self) {
        let workers = self.workers;
        match self.inp.kind {
            Kind::TraceStream => {}
            Kind::PaperSweep => {
                let other = if workers > 1 { 1 } else { 2 };
                self.gate("threads_equal", |inp| {
                    koala::parallel::run_cells_summary(&inp.cell_refs(), other)
                });
            }
            Kind::ChaosFork => self.gate("warm_equals_cold", |inp| {
                koala::parallel::run_cells_summary(&inp.cell_refs(), workers)
            }),
        }
    }

    fn finish_gates(&mut self) {
        self.gates.push(("all_terminal", self.all_terminal));
        self.gates.push(("repeat_identical", self.repeat_identical));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.reference.is_some() && self.gates.iter().all(|&(_, ok)| ok)
    }
}

/// End-to-end metrics, tracing off.
fn end_to_end(b: &mut Bench<'_>, seconds: u64, setup_s: f64) -> Vec<(String, f64)> {
    let (_, rates) = b.timed(Duration::from_secs(seconds));
    b.workload_gate();
    let (response, makespan, completed) = simulated(&b.first, &b.first_pooled);
    let rss = sys::peak_rss_mb();
    b.gates.push(("peak_rss_read", rss.is_some()));
    vec![
        ("jobs_per_s".into(), median(&rates)),
        ("setup_s".into(), setup_s),
        ("peak_rss_mb".into(), rss.unwrap_or(0.0)),
        ("sim_response_s".into(), response),
        ("sim_makespan_s".into(), makespan),
        ("sim_completed_frac".into(), completed),
    ]
}

/// Per-layer metrics: untraced and traced repetitions share the time
/// budget, so the tracing overhead is measured in the same process.
fn per_layer(b: &mut Bench<'_>, seconds: u64) -> Vec<(String, f64)> {
    let half = Duration::from_secs_f64(seconds as f64 / 2.0);
    let (untraced_walls, _) = b.timed(half);
    b.workload_gate();

    let mut layers = Layers::default();
    let mut sim_kinds = [0u64; 23];
    let mut traced_walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut traced_ok = true;
    let mut kinds_ok = true;
    let start = Instant::now();
    let mut reps = 0;
    b.recalibrate();
    while reps < MIN_REPS || start.elapsed() < half {
        reps += 1;
        let s = b.spans.open("traced_rep", "", Some(b.root));
        let inp = b.inp;
        let workers = b.workers;
        let out = catch_unwind(AssertUnwindSafe(|| traced_rep(inp, workers)));
        b.spans.close(s);
        let scale = b.recalibrate();
        b.attempted += b.cells();
        let Ok(rep) = out else {
            b.failed += b.cells();
            traced_ok = false;
            continue;
        };
        let identical = b
            .reference
            .as_deref()
            .is_some_and(|reference| renders_as(&rep.runs, reference));
        traced_ok &= identical;
        kinds_ok &= rep.kinds_match;
        if !(identical && rep.kinds_match) {
            b.failed += b.cells();
            continue;
        }
        layers.merge(&rep.layers);
        for (k, n) in rep.sim_kinds.iter().enumerate() {
            sim_kinds[k] += n;
        }
        traced_walls.push(rep.wall_ns as f64 / 1e9 * scale);
        cell_ms.extend(rep.cell_ns.iter().map(|&ns| ns as f64 / 1e6));
        b.spans.adopt(rep.spans, s);
    }
    b.gates.push(("traced_identical", traced_ok));
    b.gates.push(("kinds_sum_to_delivered", kinds_ok));
    let efficiency = parallel_efficiency(b);

    let good = traced_walls.len().max(1) as f64;
    let runs = &b.first;
    let sum = |f: &dyn Fn(&SummaryReport) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let per_call = |ns: u64, calls: u64| ratio(ns as f64, calls as f64);
    let started = sum(&|r| r.jobs_completed + r.jobs_killed + r.jobs_requeued);
    let tries = sum(&|r| r.placement_tries);
    let transfer_done = sim_kinds[trace::kind(&Ev::TransferDone {
        transfer: 0,
        gen: 0,
    })] as f64
        / good;

    let mut v: Vec<(String, f64)> = vec![
        (
            "simcore.pop.ns".into(),
            per_call(layers.pop_ns, layers.pops),
        ),
        ("simcore.events".into(), layers.delivered as f64 / good),
        ("simcore.scheduled".into(), layers.scheduled as f64 / good),
        ("simcore.cancelled".into(), layers.cancelled as f64 / good),
        ("simcore.pending.peak".into(), layers.pending_peak as f64),
    ];
    for (k, name) in KINDS.iter().enumerate() {
        v.push((
            format!("core.handle.{name}.count"),
            layers.kind_count[k] as f64 / good,
        ));
        v.push((
            format!("core.handle.{name}.ns"),
            per_call(layers.kind_ns[k], layers.kind_count[k]),
        ));
    }
    v.extend([
        (
            "core.done.ns".into(),
            per_call(layers.done_ns, layers.dones),
        ),
        (
            "core.build.us".into(),
            per_call(layers.build_ns, layers.builds) / 1e3,
        ),
        (
            "core.live.peak".into(),
            runs.iter().map(|r| r.peak_live_jobs).max().unwrap_or(0) as f64,
        ),
        ("core.placement.tries".into(), tries),
        (
            "core.avail.quick_rejects".into(),
            layers.quick_rejects as f64 / good,
        ),
        ("core.avail.rebuilds".into(), layers.rebuilds as f64 / good),
        (
            "core.placement.useful_ratio".into(),
            ratio(started, started + tries),
        ),
        (
            "core.malleability.grow_accept_ratio".into(),
            ratio(sum(&|r| r.grow_ops), sum(&|r| r.grow_messages)),
        ),
        (
            "core.malleability.shrink_accept_ratio".into(),
            ratio(sum(&|r| r.shrink_ops), sum(&|r| r.shrink_messages)),
        ),
        ("net.transfers".into(), sum(&|r| r.net.transfers_opened)),
        (
            "net.useful_ratio".into(),
            ratio(sum(&|r| r.net.transfers_completed), transfer_done),
        ),
        ("ctrl.timeouts".into(), sum(&|r| r.ctrl.timeouts)),
        ("ctrl.retries".into(), sum(&|r| r.ctrl.retries)),
        (
            "ctrl.flaky_deferrals".into(),
            sum(&|r| r.ctrl.flaky_deferrals),
        ),
        (
            "appsim.next_job.ns".into(),
            per_call(layers.next_job_ns, layers.next_jobs),
        ),
        (
            "appsim.next_job.count".into(),
            layers.next_jobs as f64 / good,
        ),
        (
            "snapshot.capture.us".into(),
            per_call(layers.capture_ns, layers.captures) / 1e3,
        ),
        (
            "snapshot.fork.us".into(),
            per_call(layers.fork_ns, layers.forks) / 1e3,
        ),
        (
            "snapshot.bytes".into(),
            per_call(layers.snapshot_bytes, layers.captures),
        ),
        (
            "snapshot.prefix.share".into(),
            ratio(layers.prefix_ns as f64, layers.unit_ns as f64),
        ),
        ("parallel.efficiency".into(), efficiency),
        ("parallel.cell.p50_ms".into(), median(&cell_ms)),
        (
            "parallel.cell.max_ms".into(),
            cell_ms.iter().copied().fold(0.0, f64::max),
        ),
        (
            "metrics.finish.us".into(),
            per_call(layers.finish_ns, layers.finishes) / 1e3,
        ),
        (
            "metrics.pool.us".into(),
            per_call(layers.pool_ns, layers.pools) / 1e3,
        ),
        (
            "trace.overhead".into(),
            ratio(median(&traced_walls), median(&untraced_walls)) - 1.0,
        ),
        (
            "trace.coverage".into(),
            ratio(layers.attributed_ns() as f64, layers.unit_ns as f64),
        ),
        ("host.calibration.ms".into(), median(&b.cal_all) * 1e3),
        ("host.raw_jobs_per_s".into(), median(&b.raw_rates)),
    ]);
    v
}

/// `t1 / (N * tN)` of the workload's public runner, each side the
/// median of alternating runs. 1 where the workload runs one thread.
fn parallel_efficiency(b: &mut Bench<'_>) -> f64 {
    if b.workers <= 1 || b.inp.kind == Kind::TraceStream {
        return 1.0;
    }
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        if let Some((wall, _)) = b.untraced("efficiency_1", 1) {
            t1.push(wall);
        }
        if let Some((wall, _)) = b.untraced("efficiency_n", b.workers) {
            tn.push(wall);
        }
    }
    ratio(median(&t1), b.workers as f64 * median(&tn))
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    trace::now_ns();
    let workers = sys::hardware_threads().min(MAX_WORKERS);
    let mut spans = SpanLog::default();
    let root = spans.open("workload", args.workload.name(), None);
    let (inp, setup_s) = timed_setup(args.workload, args.seed, &mut spans, root);
    let mut b = Bench {
        inp: &inp,
        workers,
        attempted: 0,
        failed: 0,
        all_terminal: true,
        repeat_identical: true,
        gates: Vec::new(),
        reference: None,
        first: Vec::new(),
        first_pooled: Vec::new(),
        cal_last: 0.0,
        cal_all: Vec::new(),
        raw_rates: Vec::new(),
        spans,
        root,
    };
    // Untimed warm-up: code pages, allocator growth, and the reference
    // render every later operation must reproduce.
    b.untraced("warm_up", workers);
    let values = if args.trace {
        per_layer(&mut b, args.seconds)
    } else {
        end_to_end(&mut b, args.seconds, setup_s)
    };
    b.finish_gates();
    b.spans.close(root);

    let catalog = if args.trace {
        catalog::per_layer()
    } else {
        catalog::end_to_end()
    };
    assert_eq!(
        catalog.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
        values.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>(),
        "reported metrics must match the catalogue"
    );

    let meta = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"seconds\":{},\"hardware_threads\":{},\"worker_threads\":{},\"run_seeds\":{:?},\"cells\":{},\"configurations\":{},\"jobs_per_run\":{},\"git_revision\":\"{}\",\"rustc\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        sys::hardware_threads(),
        workers,
        inp.seeds,
        inp.cells.len(),
        inp.cfgs.len(),
        inp.jobs_per_run,
        escape(&sys::git_revision()),
        escape(sys::rustc_version()),
    );
    println!("meta {meta}");
    for (name, ok) in &b.gates {
        println!("gate {name:<24} {}", if *ok { "pass" } else { "FAIL" });
    }
    println!("runs attempted {} failed {}", b.attempted, b.failed);
    let mut metrics = Vec::new();
    for (m, (_, value)) in catalog.iter().zip(&values) {
        println!(
            "metric {:<44} {:>20} {}",
            m.name,
            json_number(*value),
            m.unit
        );
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(*value),
            m.unit
        ));
    }
    let gates: Vec<String> = b
        .gates
        .iter()
        .map(|(n, ok)| format!("\"{n}\": {ok}"))
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        b.correct(),
        b.attempted,
        b.failed,
        metrics.join(", ")
    );
    let record = format!(
        "{{\"meta\": {meta},\n\"gates\": {{{}}},\n\"result\": {result},\n\"spans\": {}}}\n",
        gates.join(", "),
        b.spans.to_json()
    );
    let dir = std::path::Path::new("perfbench").join("out");
    let path = dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("could not write {}: {e}", path.display());
    }
    println!("{result}");
    ExitCode::SUCCESS
}

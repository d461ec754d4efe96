//! The three workloads: their inputs (made from the seed alone), the
//! untraced operation the end-to-end metrics time, and the correctness
//! checks every operation must pass.

use appsim::generate::WorkloadRegistry;
use appsim::workload::{Arrival, SubmittedJob, WorkloadSpec};
use koala::config::{Approach, ExperimentConfig, RetryConfig};
use koala::parallel::{self, Cell};
use koala::report::{MultiSummary, SummaryReport};
use koala::scenario::Scenario;
use multicluster::{
    BackgroundLoad, ClassLoss, ControlPlaneFaultSpec, FailurePolicy, FailureSpec, FlakyChannelSpec,
};
use simcore::{SimDuration, SimRng};

/// Look-ahead window of the streaming intake (the `trace1m` pipeline's).
pub const LOOKAHEAD: usize = 1024;

/// trace_stream: jobs in the one streamed run.
const STREAM_JOBS: usize = 150_000;

/// paper_sweep: jobs per run and runs per configuration (the paper
/// repeats each configuration four times; six steady the simulated
/// means across benchmark seeds).
const SWEEP_JOBS: usize = 300;
const SWEEP_SEEDS: u64 = 6;

/// chaos_fork: jobs per trace and traces (one run seed each; eight
/// steady the simulated means across benchmark seeds).
const CHAOS_JOBS: usize = 1_200;
const CHAOS_SEEDS: u64 = 8;

/// chaos_fork input pins: every job reads its own 40 GB file, pinned in
/// round-robin at the three smallest DAS-3 sites, so data-blind
/// placement stages (a file once staged is cached at its destination,
/// which is why the files are not shared).
const FILE_HOMES: [u16; 3] = [4, 1, 3];
const FILE_GB: f64 = 40.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    TraceStream,
    PaperSweep,
    ChaosFork,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::TraceStream, Kind::PaperSweep, Kind::ChaosFork];

    pub fn name(self) -> &'static str {
        match self {
            Kind::TraceStream => "trace_stream",
            Kind::PaperSweep => "paper_sweep",
            Kind::ChaosFork => "chaos_fork",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Everything a workload runs, made from the seed during set-up.
pub struct Inputs {
    pub kind: Kind,
    pub cfgs: Vec<ExperimentConfig>,
    /// One simulation run per cell: `(config index, run seed)`.
    pub cells: Vec<(usize, u64)>,
    /// Pooled groups: a name and the cells merged into it.
    pub groups: Vec<(String, Vec<usize>)>,
    /// The run seeds derived from the benchmark seed.
    pub seeds: Vec<u64>,
    pub jobs_per_run: usize,
}

impl Inputs {
    pub fn cell_refs(&self) -> Vec<Cell<'_>> {
        self.cells
            .iter()
            .map(|&(c, seed)| Cell {
                cfg: &self.cfgs[c],
                seed,
            })
            .collect()
    }
}

/// The run seeds of benchmark seed `seed`: distinct across benchmark
/// seeds, so each one is a different set of inputs.
fn run_seeds(seed: u64, n: u64) -> Vec<u64> {
    (0..n)
        .map(|k| seed.wrapping_mul(1_000).wrapping_add(k))
        .collect()
}

/// Set-up: builds and validates every configuration, resolves every
/// registry name and materializes every trace.
pub fn setup(kind: Kind, seed: u64) -> Inputs {
    match kind {
        Kind::TraceStream => trace_stream(seed),
        Kind::PaperSweep => paper_sweep(seed),
        Kind::ChaosFork => chaos_fork(seed),
    }
}

fn trace_stream(seed: u64) -> Inputs {
    let cfg = Scenario::builder()
        .name("trace_stream")
        .workload("trace1m")
        .jobs(STREAM_JOBS)
        .no_horizon()
        .background(BackgroundLoad::none())
        .scheduler(|s| s.koala_share = 0.5)
        .summarized()
        .build()
        .expect("trace_stream scenario is valid")
        .into_config();
    WorkloadRegistry::global()
        .source("trace1m")
        .expect("trace1m is registered");
    Inputs {
        kind: Kind::TraceStream,
        cfgs: vec![cfg],
        cells: vec![(0, seed)],
        groups: vec![("trace_stream".to_string(), vec![0])],
        seeds: vec![seed],
        jobs_per_run: STREAM_JOBS,
    }
}

fn paper_sweep(seed: u64) -> Inputs {
    let seeds = run_seeds(seed, SWEEP_SEEDS);
    let figures = [
        (
            Approach::Pra,
            [("Wm", WorkloadSpec::wm()), ("Wmr", WorkloadSpec::wmr())],
        ),
        (
            Approach::Pwa,
            [
                ("Wm'", WorkloadSpec::wm_prime()),
                ("Wmr'", WorkloadSpec::wmr_prime()),
            ],
        ),
    ];
    let mut cfgs = Vec::new();
    for (approach, workloads) in &figures {
        for m in ["fpsma", "egs"] {
            for (label, w) in workloads {
                let cfg = Scenario::builder()
                    .name(format!("{approach:?}/{m}/{label}"))
                    .placement("worst_fit")
                    .malleability(m)
                    .approach(*approach)
                    .workload(w.clone())
                    .jobs(SWEEP_JOBS)
                    .quantile_capacity(2048)
                    .summarized()
                    .build()
                    .expect("paper_sweep cell is valid")
                    .into_config();
                cfgs.push(cfg);
            }
        }
    }
    let mut cells = Vec::new();
    let mut groups = Vec::new();
    for (c, cfg) in cfgs.iter().enumerate() {
        let first = cells.len();
        cells.extend(seeds.iter().map(|&s| (c, s)));
        groups.push((cfg.name.clone(), (first..cells.len()).collect()));
    }
    Inputs {
        kind: Kind::PaperSweep,
        cfgs,
        cells,
        groups,
        seeds,
        jobs_per_run: SWEEP_JOBS,
    }
}

/// A data-staging trace: Wmr's mix under Poisson arrivals, job `i`
/// reading pinned input file `i`.
fn staging_trace(seed: u64) -> Vec<SubmittedJob> {
    let spec = WorkloadSpec {
        jobs: CHAOS_JOBS,
        arrival: Arrival::Poisson(SimDuration::from_secs(90)),
        ..WorkloadSpec::wmr()
    };
    let mut trace = spec.generate(&mut SimRng::seed_from_u64(seed));
    for (i, job) in trace.iter_mut().enumerate() {
        job.spec.input_files = vec![i as u64];
    }
    trace
}

/// The `chaos` benchmark's fault spec at 10 % loss: duplicates, jitter
/// and a flaky channel on top.
fn fault_spec() -> ControlPlaneFaultSpec {
    ControlPlaneFaultSpec {
        loss: ClassLoss::uniform(0.10),
        duplicate: 0.10,
        max_jitter: SimDuration::from_millis(400),
        flaky: Some(FlakyChannelSpec {
            mean_gap: SimDuration::from_secs(1200),
            mean_duration: SimDuration::from_secs(300),
            loss: 0.6,
        }),
    }
}

fn retry() -> RetryConfig {
    RetryConfig {
        timeout: SimDuration::from_secs(10),
        max_timeout: SimDuration::from_secs(40),
        max_attempts: 4,
        orphan_sweep_period: SimDuration::from_secs(60),
        orphan_grace: SimDuration::from_secs(50),
    }
}

fn chaos_fork(seed: u64) -> Inputs {
    let seeds = run_seeds(seed, CHAOS_SEEDS);
    let policies: Vec<(&str, &str)> = ["worst_fit", "close_to_files"]
        .into_iter()
        .flat_map(|p| ["fpsma", "egs"].into_iter().map(move |m| (p, m)))
        .collect();
    let mut cfgs = Vec::new();
    let mut cells = Vec::new();
    let mut groups: Vec<(String, Vec<usize>)> = policies
        .iter()
        .map(|(p, m)| (format!("chaos/{p}/{m}"), Vec::new()))
        .collect();
    for &s in &seeds {
        let trace = staging_trace(s);
        // Fork at the middle arrival: the shared prefix carries about
        // half of every cell's work.
        let at = SimDuration::from_millis(trace[trace.len() / 2].at.as_millis());
        for (g, (p, m)) in policies.iter().enumerate() {
            let mut b = Scenario::builder()
                .name(format!("chaos/{p}/{m}"))
                .placement(*p)
                .malleability(*m)
                .pwa()
                .workload(WorkloadSpec::wmr())
                .trace(trace.clone())
                .network("das3")
                .reconfig_traffic(0.25)
                .ctrl_faults(fault_spec())
                .retry(retry())
                .failures(FailureSpec::new(
                    SimDuration::from_secs(1800),
                    SimDuration::from_secs(600),
                    12,
                ))
                .failure_policy(FailurePolicy::Requeue)
                .monitor(SimDuration::from_secs(300))
                .warm_fork(at)
                .summarized();
            for i in 0..CHAOS_JOBS {
                b = b.network_file(FILE_GB, [FILE_HOMES[i % FILE_HOMES.len()]]);
            }
            cfgs.push(b.build().expect("chaos_fork cell is valid").into_config());
            groups[g].1.push(cells.len());
            cells.push((cfgs.len() - 1, s));
        }
    }
    Inputs {
        kind: Kind::ChaosFork,
        cfgs,
        cells,
        groups,
        seeds,
        jobs_per_run: CHAOS_JOBS,
    }
}

/// The untraced operation: every cell through the public run API the
/// workload stands for, at `threads` workers.
pub fn run(inp: &Inputs, threads: usize) -> Vec<SummaryReport> {
    match inp.kind {
        Kind::TraceStream => {
            let (c, seed) = inp.cells[0];
            vec![koala::run_generator_summary_seeded(
                &inp.cfgs[c],
                seed,
                LOOKAHEAD,
            )]
        }
        Kind::PaperSweep => parallel::run_cells_summary(&inp.cell_refs(), threads),
        Kind::ChaosFork => parallel::run_cells_summary_warm(&inp.cell_refs(), threads),
    }
}

/// Pools each group's runs, as the figure binaries do.
pub fn pool(inp: &Inputs, runs: &[SummaryReport]) -> Vec<SummaryReport> {
    inp.groups
        .iter()
        .map(|(name, idx)| {
            MultiSummary::new(name.clone(), idx.iter().map(|&i| runs[i].clone()).collect()).pooled()
        })
        .collect()
}

/// One run's own checks: every submitted job reached a terminal state
/// and no processor leaked.
pub fn conserved(inp: &Inputs, r: &SummaryReport) -> bool {
    r.jobs_submitted == inp.jobs_per_run as u64
        && r.jobs_submitted == r.jobs_completed + r.jobs_failed + r.jobs_killed
        && r.ctrl.leaked_allocations == 0
}

/// The byte form two runs of the same inputs must share.
pub fn render(runs: &[SummaryReport]) -> String {
    format!("{runs:?}")
}

/// Whether `runs` render exactly as `expected`, compared as the text is
/// produced so that no second copy is allocated.
pub fn renders_as(runs: &[SummaryReport], expected: &str) -> bool {
    struct SameAs<'a> {
        rest: &'a str,
        same: bool,
    }
    impl std::fmt::Write for SameAs<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            match self.rest.strip_prefix(s) {
                Some(rest) if self.same => self.rest = rest,
                _ => self.same = false,
            }
            Ok(())
        }
    }
    let mut w = SameAs {
        rest: expected,
        same: true,
    };
    std::fmt::write(&mut w, format_args!("{runs:?}")).is_ok() && w.same && w.rest.is_empty()
}

/// Jobs that reached a terminal state.
pub fn terminal_jobs(runs: &[SummaryReport]) -> u64 {
    runs.iter()
        .map(|r| r.jobs_completed + r.jobs_failed + r.jobs_killed)
        .sum()
}

/// The simulated outcomes: mean response time (s, over the pooled
/// groups' completed jobs), mean makespan (s, over runs) and the
/// completed share of submitted jobs.
pub fn simulated(runs: &[SummaryReport], pooled: &[SummaryReport]) -> (f64, f64, f64) {
    let (weighted, count) = pooled.iter().fold((0.0, 0u64), |(w, n), p| {
        let c = p.response_time.count();
        (w + p.response_time.mean().unwrap_or(0.0) * c as f64, n + c)
    });
    let response = weighted / count.max(1) as f64;
    let makespan =
        runs.iter().map(|r| r.makespan.as_secs_f64()).sum::<f64>() / runs.len().max(1) as f64;
    let submitted: u64 = runs.iter().map(|r| r.jobs_submitted).sum();
    let completed: u64 = runs.iter().map(|r| r.jobs_completed).sum();
    (
        response,
        makespan,
        completed as f64 / submitted.max(1) as f64,
    )
}

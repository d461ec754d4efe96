//! Every metric the benchmark reports: its name, unit, which direction
//! is better and — for a layer metric — which end-to-end metric it
//! should move, on which workload, with the share the outside-in
//! prototype measured (a ceiling on what a change to that layer alone
//! can win).

use crate::trace::KINDS;

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// End-to-end metric and workload this one should move.
    pub moves: &'static str,
}

fn m(
    name: impl Into<String>,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        moves,
    }
}

/// The end-to-end metrics, measured with tracing off.
pub fn end_to_end() -> Vec<Metric> {
    vec![
        m("jobs_per_s", "jobs/s", "higher", "simulated jobs reaching a terminal state per calibrated host second of the timed phase (median over repetitions)"),
        m("setup_s", "s", "lower", "calibrated host seconds to build and validate configurations, resolve registry names and materialize traces (median of repeated set-ups)"),
        m("peak_rss_mb", "MB", "lower", "peak resident memory of the process, which runs one workload only"),
        m("sim_response_s", "s", "lower", "simulated mean response time; deterministic per seed"),
        m("sim_makespan_s", "s", "lower", "simulated mean makespan; deterministic per seed"),
        m("sim_completed_frac", "ratio", "higher", "simulated completed / submitted; deterministic per seed"),
    ]
}

/// What each event kind's dispatch should move.
fn handler_moves(kind: &str) -> &'static str {
    match kind {
        "Arrival" => "jobs_per_s on trace_stream (prototype: 29% of host time)",
        "Completion" => "jobs_per_s on trace_stream (prototype: 43% of host time)",
        "StartHeld" => "jobs_per_s on trace_stream",
        "KisPoll" => "jobs_per_s on paper_sweep (prototype: ~40%, malleability); chaos_fork too",
        "QueueScan" => "jobs_per_s on paper_sweep (prototype: ~9%, placement); chaos_fork too",
        "BgArrival" | "BgComplete" => "jobs_per_s on paper_sweep (prototype: ~13% for both)",
        "GrowHeld" | "SyncDone" | "ShrinkReleased" => "jobs_per_s on paper_sweep (malleability)",
        "TransferStart" | "TransferDone" | "CtrlTimeout" | "OrphanSweep" | "NodeCrash"
        | "NodeRestore" | "MonitorSample" => "jobs_per_s on chaos_fork only",
        _ => "none: no workload schedules it; reported so a change that starts to shows",
    }
}

/// The per-layer metrics of the traced run.
pub fn per_layer() -> Vec<Metric> {
    let mut v = vec![
        m("simcore.pop.ns", "ns", "lower", "jobs_per_s on trace_stream (prototype: ~84 ns/pop, ~4%: a queue-only win is worth at most ~4% there and ~0% on chaos_fork)"),
        m("simcore.events", "count", "lower", "jobs_per_s on trace_stream (EngineStats.delivered)"),
        m("simcore.scheduled", "count", "lower", "jobs_per_s on trace_stream"),
        m("simcore.cancelled", "count", "lower", "jobs_per_s on trace_stream"),
        m("simcore.pending.peak", "count", "lower", "peak_rss_mb on trace_stream"),
    ];
    for k in KINDS {
        v.push(m(
            format!("core.handle.{k}.count"),
            "count",
            "lower",
            handler_moves(k),
        ));
        v.push(m(
            format!("core.handle.{k}.ns"),
            "ns",
            "lower",
            handler_moves(k),
        ));
    }
    v.extend([
        m("core.done.ns", "ns", "lower", "jobs_per_s on every workload (prototype: ~5% on trace_stream)"),
        m("core.build.us", "us", "lower", "jobs_per_s on paper_sweep, and setup_s"),
        m("core.live.peak", "count", "lower", "peak_rss_mb on trace_stream"),
        m("core.placement.tries", "count", "lower", "jobs_per_s on paper_sweep and chaos_fork (failed placement tries)"),
        m("core.avail.quick_rejects", "count", "higher", "jobs_per_s on paper_sweep and chaos_fork"),
        m("core.avail.rebuilds", "count", "lower", "jobs_per_s on paper_sweep and chaos_fork"),
        m("core.placement.useful_ratio", "ratio", "higher", "jobs_per_s on paper_sweep and chaos_fork (starts / (starts + failed tries))"),
        m("core.malleability.grow_accept_ratio", "ratio", "higher", "jobs_per_s on paper_sweep (grow_ops / grow_messages)"),
        m("core.malleability.shrink_accept_ratio", "ratio", "higher", "jobs_per_s on paper_sweep (shrink_ops / shrink_messages)"),
        m("net.transfers", "count", "lower", "jobs_per_s on chaos_fork only"),
        m("net.useful_ratio", "ratio", "higher", "jobs_per_s on chaos_fork only (transfers completed / TransferDone deliveries)"),
        m("ctrl.timeouts", "count", "lower", "jobs_per_s on chaos_fork only"),
        m("ctrl.retries", "count", "lower", "jobs_per_s on chaos_fork only"),
        m("ctrl.flaky_deferrals", "count", "lower", "jobs_per_s on chaos_fork only"),
        m("appsim.next_job.ns", "ns", "lower", "jobs_per_s on trace_stream (prototype: ~0.27 us/job, ~3%)"),
        m("appsim.next_job.count", "count", "lower", "jobs_per_s on trace_stream"),
        m("snapshot.capture.us", "us", "lower", "jobs_per_s on chaos_fork"),
        m("snapshot.fork.us", "us", "lower", "jobs_per_s on chaos_fork"),
        m("snapshot.bytes", "bytes", "lower", "peak_rss_mb and jobs_per_s on chaos_fork"),
        m("snapshot.prefix.share", "ratio", "lower", "jobs_per_s on chaos_fork (share of sweep host time in shared prefixes)"),
        m("parallel.efficiency", "ratio", "higher", "jobs_per_s on paper_sweep and chaos_fork (t1 / (N * tN) through the public runner)"),
        m("parallel.cell.p50_ms", "ms", "lower", "jobs_per_s on paper_sweep and chaos_fork"),
        m("parallel.cell.max_ms", "ms", "lower", "jobs_per_s on paper_sweep and chaos_fork (the slowest cell bounds the sweep)"),
        m("metrics.finish.us", "us", "lower", "negligible on every workload; shows work moved into finalization"),
        m("metrics.pool.us", "us", "lower", "negligible on every workload; shows work moved into pooling"),
        m("trace.overhead", "ratio", "lower", "trace quality: traced / untraced wall - 1 (prototype: ~16%)"),
        m("trace.coverage", "ratio", "higher", "trace quality: attributed self time / traced wall (>= 0.9)"),
        m("host.calibration.ms", "ms", "lower", "context, moves nothing: median time of the calibration kernel, the host's momentary speed"),
        m("host.raw_jobs_per_s", "jobs/s", "higher", "context: jobs_per_s before calibration (untraced repetitions of the traced run)"),
    ]);
    v
}

/// The catalogue as a Markdown table.
pub fn markdown() -> String {
    let mut out = String::from("| metric | unit | better | moves |\n|---|---|---|---|\n");
    for (section, metrics) in [("end-to-end", end_to_end()), ("per-layer", per_layer())] {
        out.push_str(&format!("| **{section}** | | | |\n"));
        for x in metrics {
            out.push_str(&format!(
                "| `{}` | {} | {} | {} |\n",
                x.name, x.unit, x.better, x.moves
            ));
        }
    }
    out
}

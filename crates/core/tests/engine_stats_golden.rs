//! Event-queue bookkeeping of the paper presets, pinned.
//!
//! The engine's counters (`delivered`, `scheduled`, `beyond_horizon`,
//! `cancelled`) and the peak of `pending()` after each delivery are a
//! fingerprint of how the event queue is used, independent of how it is
//! implemented. Pinning them for the Fig. 7 and Fig. 8 cells on both
//! queue backends shows that a change to the queue's internals (such as
//! the fixed-delay lanes periodic timers ride) schedules, delivers and
//! holds exactly the same events. Regenerate with
//! `UPDATE_GOLDEN=1 cargo test -p koala --test engine_stats_golden`.

use appsim::workload::WorkloadSpec;
use koala::config::ExperimentConfig;
use koala::{engine_for, World};
use simcore::QueueImpl;

const SEEDS: [u64; 2] = [3, 17];

fn presets() -> Vec<(String, ExperimentConfig)> {
    let mut out = Vec::new();
    for policy in ["fpsma", "egs"] {
        for (tag, w) in [("Wm", WorkloadSpec::wm()), ("Wmr", WorkloadSpec::wmr())] {
            out.push((
                format!("fig7 {policy} {tag}"),
                ExperimentConfig::paper_pra(policy, w),
            ));
        }
        for (tag, w) in [
            ("W'm", WorkloadSpec::wm_prime()),
            ("W'mr", WorkloadSpec::wmr_prime()),
        ] {
            out.push((
                format!("fig8 {policy} {tag}"),
                ExperimentConfig::paper_pwa(policy, w),
            ));
        }
    }
    out
}

/// Runs one cell by hand (bootstrap, then pop/handle until done) and
/// renders its engine counters and peak pending-event count.
fn line(name: &str, cfg: &ExperimentConfig, seed: u64, queue: QueueImpl) -> String {
    let mut cfg = cfg.clone();
    cfg.sched.event_queue = queue;
    let mut engine = engine_for(&cfg);
    let mut world = World::for_seed_summarized(&cfg, seed);
    world.bootstrap(&mut engine);
    let mut peak = engine.pending();
    while let Some((_t, ev)) = engine.pop() {
        world.handle(&mut engine, ev);
        peak = peak.max(engine.pending());
        if world.done() {
            break;
        }
    }
    let s = engine.stats();
    format!(
        "{name} seed {seed}: delivered={} scheduled={} beyond_horizon={} cancelled={} peak_pending={}\n",
        s.delivered, s.scheduled, s.beyond_horizon, s.cancelled, peak
    )
}

fn render(queue: QueueImpl) -> String {
    let mut text = String::from("== engine stats, paper presets (300 jobs) ==\n");
    for (name, cfg) in presets() {
        for seed in SEEDS {
            text.push_str(&line(&name, &cfg, seed, queue));
        }
    }
    text
}

#[test]
fn paper_preset_engine_stats_match_pinned_golden() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("engine_stats.txt");
    let calendar = render(QueueImpl::Calendar);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &calendar).expect("write golden");
    }
    let golden = std::fs::read_to_string(&path).expect("golden present");
    assert_eq!(calendar, golden, "calendar backend drifted from the golden");
    assert_eq!(
        render(QueueImpl::Heap),
        golden,
        "heap backend drifted from the golden"
    );
}

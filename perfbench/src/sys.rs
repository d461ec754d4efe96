//! Process and build facts every output records.

use std::path::Path;

/// Peak resident memory of this process since it started, in MB (10^6
/// bytes): `VmHWM` of `/proc/self/status`, which `exec` resets (unlike
/// `getrusage`, whose peak would include a launcher such as `cargo run`
/// that execs the benchmark). `None` where the kernel does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Hardware threads the process may use.
pub fn hardware_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out revision, read from `.git` in the working directory;
/// `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Host seconds of one pass of a fixed calibration kernel on each of
/// `threads` threads at once (the mean over the threads).
///
/// The kernel is benchmark code that no change to the simulator
/// touches: heap pushes and pops, hash-map updates and integer mixing
/// over an L2-sized working set, the simulator's own mix of work. On a
/// shared host its time tracks the machine's momentary speed, which
/// the benchmark divides out of its timings.
pub fn calibrate(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    let times: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration kernel does not panic"))
            .collect()
    });
    times.iter().sum::<f64>() / times.len() as f64
}

fn kernel() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let t0 = std::time::Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut heap = BinaryHeap::with_capacity(1025);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(4096);
    let mut acc = 0u64;
    for i in 0..200_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000));
        if heap.len() > 1024 {
            if let Some(Reverse(v)) = heap.pop() {
                acc = acc.wrapping_add(v);
            }
        }
        *map.entry(x % 4096).or_insert(0) += i;
    }
    std::hint::black_box((acc, map.len()));
    t0.elapsed().as_secs_f64()
}

//! Property-based tests: random allocation/release/grow/shrink/withdraw
//! sequences never violate cluster invariants, and the per-owner
//! occupancy counters always equal a recount of the allocations.

use multicluster::{AllocId, AllocOwner, Cluster, ClusterSpec, ClusterState};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Allocate(u32),
    Grow(usize, u32),
    Shrink(usize, u32),
    Release(usize),
    WithdrawFree(u32),
    Restore(u32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..20).prop_map(Op::Allocate),
        (0usize..8, 1u32..10).prop_map(|(i, n)| Op::Grow(i, n)),
        (0usize..8, 1u32..10).prop_map(|(i, n)| Op::Shrink(i, n)),
        (0usize..8).prop_map(Op::Release),
        (1u32..30).prop_map(Op::WithdrawFree),
        (1u32..30).prop_map(Op::Restore),
    ]
}

/// Mutations for the occupancy-counter property: both owners, crashes,
/// and capture/restore round-trips interleaved with the rest.
#[derive(Debug, Clone)]
enum OwnedOp {
    Allocate {
        koala: bool,
        n: u32,
    },
    Grow(usize, u32),
    Shrink(usize, u32),
    Release(usize),
    Crash(u32),
    Restore(u32),
    WithdrawFree(u32),
    /// Capture, then restore into a fresh cluster (`true`) or over the
    /// live one (`false`, which must reset rather than add to the
    /// counters).
    RoundTrip(bool),
}

fn owned_op_strategy() -> impl Strategy<Value = OwnedOp> {
    let allocate =
        || (any::<bool>(), 1u32..16).prop_map(|(koala, n)| OwnedOp::Allocate { koala, n });
    prop_oneof![
        // Allocation is listed twice so clusters fill up between crashes.
        allocate(),
        allocate(),
        (0usize..8, 1u32..10).prop_map(|(i, n)| OwnedOp::Grow(i, n)),
        (0usize..8, 1u32..10).prop_map(|(i, n)| OwnedOp::Shrink(i, n)),
        (0usize..8).prop_map(OwnedOp::Release),
        (1u32..12).prop_map(OwnedOp::Crash),
        (1u32..20).prop_map(OwnedOp::Restore),
        (1u32..12).prop_map(OwnedOp::WithdrawFree),
        any::<bool>().prop_map(OwnedOp::RoundTrip),
    ]
}

/// Nodes held per owner kind, recounted from a capture.
fn recount(state: &ClusterState) -> (u32, u32) {
    let (mut koala, mut local) = (0, 0);
    for (_, owner, nodes) in &state.allocs {
        match owner {
            AllocOwner::Koala(_) => koala += nodes.len() as u32,
            AllocOwner::Local(_) => local += nodes.len() as u32,
        }
    }
    (koala, local)
}

proptest! {
    /// `used_by_koala` / `used_by_local` are O(1) counters; after every
    /// mutation they must equal a recount of the live allocations, and
    /// `check_invariants` (which recounts too) must accept the cluster.
    #[test]
    fn occupancy_counters_match_recount(
        ops in prop::collection::vec(owned_op_strategy(), 1..150),
    ) {
        let spec = ClusterSpec::new("prop", 48, "GbE");
        let mut c = Cluster::new(spec.clone());
        let mut live: Vec<AllocId> = Vec::new();
        let mut next_owner = 0u64;
        for op in ops {
            match op {
                OwnedOp::Allocate { koala, n } => {
                    next_owner += 1;
                    let owner = if koala {
                        AllocOwner::Koala(next_owner)
                    } else {
                        AllocOwner::Local(next_owner)
                    };
                    if let Ok(id) = c.allocate(owner, n) {
                        live.push(id);
                    }
                }
                OwnedOp::Grow(i, n) => {
                    if let Some(&id) = live.get(i) {
                        let _ = c.grow(id, n);
                    }
                }
                OwnedOp::Shrink(i, n) => {
                    if let Some(&id) = live.get(i) {
                        let _ = c.shrink(id, n);
                    }
                }
                OwnedOp::Release(i) => {
                    if i < live.len() {
                        let _ = c.release(live.remove(i));
                    }
                }
                OwnedOp::Crash(n) => {
                    c.crash(n);
                }
                OwnedOp::Restore(n) => {
                    c.restore(n);
                }
                OwnedOp::WithdrawFree(n) => {
                    c.withdraw_free(n);
                }
                OwnedOp::RoundTrip(fresh) => {
                    let state = c.capture_state();
                    if fresh {
                        let mut r = Cluster::new(spec.clone());
                        r.restore_state(state.clone()).unwrap();
                        c = r;
                    } else {
                        c.restore_state(state.clone()).unwrap();
                    }
                    prop_assert_eq!(c.capture_state(), state);
                }
            }
            // Shrinks to zero and crashes can destroy allocations.
            live.retain(|&id| c.alloc_size(id).is_some());
            let (koala, local) = recount(&c.capture_state());
            prop_assert_eq!(c.used_by_koala(), koala);
            prop_assert_eq!(c.used_by_local(), local);
            prop_assert_eq!(koala + local, c.used());
            prop_assert!(c.check_invariants().is_ok(), "{:?}", c.check_invariants());
        }
    }

    /// After any operation sequence: node states, free list and counters
    /// stay mutually consistent, and used + idle == capacity.
    #[test]
    fn invariants_hold_under_random_ops(ops in prop::collection::vec(op_strategy(), 1..120)) {
        let mut c = Cluster::new(ClusterSpec::new("prop", 64, "GbE"));
        let mut live: Vec<AllocId> = Vec::new();
        let mut next_owner = 0u64;
        for op in ops {
            match op {
                Op::Allocate(n) => {
                    next_owner += 1;
                    if let Ok(id) = c.allocate(AllocOwner::Koala(next_owner), n) {
                        live.push(id);
                    }
                }
                Op::Grow(i, n) => {
                    if let Some(&id) = live.get(i) {
                        let _ = c.grow(id, n);
                    }
                }
                Op::Shrink(i, n) => {
                    if let Some(&id) = live.get(i) {
                        if c.shrink(id, n).is_ok() && c.alloc_size(id).is_none() {
                            live.remove(i);
                        }
                    }
                }
                Op::Release(i) => {
                    if i < live.len() {
                        let id = live.remove(i);
                        let _ = c.release(id);
                    }
                }
                Op::WithdrawFree(n) => {
                    c.withdraw_free(n);
                }
                Op::Restore(n) => {
                    c.restore(n);
                }
            }
            prop_assert!(c.check_invariants().is_ok(), "{:?}", c.check_invariants());
            prop_assert_eq!(c.used() + c.idle(), c.capacity());
            prop_assert!(c.capacity() <= 64);
        }
        // Releasing everything must return the cluster to fully free.
        for id in live {
            let _ = c.release(id);
        }
        prop_assert_eq!(c.used(), 0);
        prop_assert!(c.check_invariants().is_ok());
    }

    /// Allocation sizes are conserved: what you allocate is what
    /// `alloc_size` reports and what `release` frees.
    #[test]
    fn sizes_are_conserved(sizes in prop::collection::vec(1u32..16, 1..8)) {
        let total: u32 = sizes.iter().sum();
        prop_assume!(total <= 64);
        let mut c = Cluster::new(ClusterSpec::new("prop", 64, "GbE"));
        let ids: Vec<AllocId> = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| c.allocate(AllocOwner::Local(i as u64), n).unwrap())
            .collect();
        prop_assert_eq!(c.used(), total);
        for (&id, &n) in ids.iter().zip(&sizes) {
            prop_assert_eq!(c.alloc_size(id), Some(n));
            prop_assert_eq!(c.release(id).unwrap(), n);
        }
        prop_assert_eq!(c.used(), 0);
    }
}

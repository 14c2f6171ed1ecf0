//! Property-based tests for the buddy allocator and cluster state.

use elasticflow_cluster::{BuddyAllocator, ClusterSpec, ClusterState, GpuId};
use proptest::prelude::*;

/// An operation in a random allocator schedule.
#[derive(Debug, Clone)]
enum Op {
    Alloc { size_exp: u32 },
    Free { index: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..5).prop_map(|size_exp| Op::Alloc { size_exp }),
        (0usize..64).prop_map(|index| Op::Free { index }),
    ]
}

proptest! {
    /// Blocks handed out by the buddy allocator are always aligned,
    /// disjoint, and consistent with the idle counter — under any schedule.
    #[test]
    fn buddy_blocks_stay_aligned_and_disjoint(ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut buddy = BuddyAllocator::new(64);
        let mut held = Vec::new();
        for op in ops {
            match op {
                Op::Alloc { size_exp } => {
                    let size = 1u32 << size_exp;
                    if let Ok(block) = buddy.allocate(size) {
                        prop_assert_eq!(block.size(), size);
                        prop_assert_eq!(block.offset() % size, 0);
                        held.push(block);
                    }
                }
                Op::Free { index } => {
                    if !held.is_empty() {
                        let block = held.swap_remove(index % held.len());
                        buddy.free(block);
                    }
                }
            }
            let held_total: u32 = held.iter().map(|b| b.size()).sum();
            prop_assert_eq!(buddy.idle_gpus(), 64 - held_total);
            for (i, a) in held.iter().enumerate() {
                for b in &held[i + 1..] {
                    let disjoint = a.offset() + a.size() <= b.offset()
                        || b.offset() + b.size() <= a.offset();
                    prop_assert!(disjoint, "overlap: {:?} vs {:?}", a, b);
                }
            }
        }
        // Everything frees back to one maximal block.
        for block in held {
            buddy.free(block);
        }
        prop_assert_eq!(buddy.idle_gpus(), 64);
        prop_assert!(buddy.allocate(64).is_ok());
    }

    /// The §4.3 guarantee: with migration, any power-of-two request no
    /// larger than the idle count succeeds, regardless of history.
    #[test]
    fn defrag_allocation_never_fails_with_capacity(
        ops in prop::collection::vec(op_strategy(), 1..150),
        final_exp in 0u32..6,
    ) {
        let mut cluster = ClusterState::new(ClusterSpec::with_servers(8, 8).build_topology());
        let mut owners: Vec<u64> = Vec::new();
        let mut next_owner = 0u64;
        for op in ops {
            match op {
                Op::Alloc { size_exp } => {
                    let size = 1u32 << size_exp;
                    if cluster.idle_gpus() >= size {
                        let result = cluster.allocate_with_defrag(next_owner, size);
                        prop_assert!(result.is_ok(), "{:?}", result);
                        owners.push(next_owner);
                        next_owner += 1;
                    }
                }
                Op::Free { index } => {
                    if !owners.is_empty() {
                        let owner = owners.swap_remove(index % owners.len());
                        cluster.release(owner).expect("tracked owner");
                    }
                }
            }
        }
        let size = 1u32 << final_exp;
        if cluster.idle_gpus() >= size {
            prop_assert!(cluster.allocate_with_defrag(u64::MAX, size).is_ok());
        }
    }

    /// Placements derived from buddy blocks use the tightest subtree: a
    /// block never spans more servers than strictly necessary.
    #[test]
    fn placements_are_maximally_consolidated(sizes in prop::collection::vec(0u32..4, 1..12)) {
        let topo = ClusterSpec::paper_testbed().build_topology();
        let mut cluster = ClusterState::new(topo);
        for (owner, &exp) in sizes.iter().enumerate() {
            let size = 1u32 << exp;
            if let Ok(p) = cluster.allocate(owner as u64, size) {
                let needed_servers = size.div_ceil(8);
                prop_assert_eq!(p.num_servers(), needed_servers.max(1));
            }
        }
    }

    /// The topology LCA level is monotone: adding more distant GPUs never
    /// lowers the highest crossed level.
    #[test]
    fn lca_level_is_monotone(mut ids in prop::collection::vec(0u32..128, 2..12)) {
        let topo = ClusterSpec::paper_testbed().build_topology();
        ids.sort_unstable();
        ids.dedup();
        prop_assume!(ids.len() >= 2);
        let gpus: Vec<GpuId> = ids.iter().map(|&i| GpuId::new(i)).collect();
        let mut last = 0usize;
        for k in 2..=gpus.len() {
            let level = topo.highest_level_crossed(&gpus[..k]);
            prop_assert!(level >= last);
            last = level;
        }
        // Bandwidth decreases (weakly) with level.
        let bw_pair = topo.bottleneck_bandwidth(&gpus[..2]);
        let bw_all = topo.bottleneck_bandwidth(&gpus);
        prop_assert!(bw_all <= bw_pair + f64::EPSILON);
    }
}

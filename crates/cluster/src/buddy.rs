//! Power-of-two buddy allocation over the GPU leaves.
//!
//! Because the topology tree is itself a hierarchy of power-of-two groups,
//! every aligned buddy block corresponds to a topology subtree: allocating a
//! block of 2^k GPUs automatically gives a job the tightest subtree that can
//! host it. Together with job migration this eliminates fragmentation (paper
//! §4.3): whenever at least 2^k GPUs are idle, a 2^k block can be produced.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::{ClusterError, GpuId};

/// An aligned, power-of-two block of GPUs handed out by the buddy allocator.
///
/// # Example
///
/// ```
/// use elasticflow_cluster::BuddyAllocator;
///
/// let mut buddy = BuddyAllocator::new(16);
/// let block = buddy.allocate(4).unwrap();
/// assert_eq!(block.size(), 4);
/// assert_eq!(block.offset() % 4, 0); // blocks are aligned
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Block {
    order: u32,
    offset: u32,
}

impl Block {
    /// Creates a block covering GPUs `[offset, offset + 2^order)`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not aligned to the block size.
    pub fn new(order: u32, offset: u32) -> Self {
        let size = 1u32 << order;
        assert!(
            offset.is_multiple_of(size),
            "block offset {offset} not aligned to {size}"
        );
        Block { order, offset }
    }

    /// log2 of the block size.
    pub fn order(self) -> u32 {
        self.order
    }

    /// First GPU index covered by the block.
    pub fn offset(self) -> u32 {
        self.offset
    }

    /// Number of GPUs in the block (`2^order`).
    pub fn size(self) -> u32 {
        1 << self.order
    }

    /// The GPUs covered by this block, in ascending order.
    pub fn gpus(self) -> Vec<GpuId> {
        (self.offset..self.offset + self.size())
            .map(GpuId::new)
            .collect()
    }

    /// The sibling block that this block merges with.
    fn buddy(self) -> Block {
        Block {
            order: self.order,
            offset: self.offset ^ self.size(),
        }
    }

    /// `true` when `gpu` lies inside this block.
    pub fn contains(self, gpu: GpuId) -> bool {
        gpu.index() >= self.offset && gpu.index() < self.offset + self.size()
    }
}

/// A buddy allocator over `capacity` GPUs (`capacity` must be a power of two).
///
/// Free blocks at each order are kept in a [`BTreeSet`] so allocation is
/// deterministic: the lowest-offset candidate of the *smallest sufficient
/// order* is always chosen, which is exactly the Best-Fit rule of the paper
/// (§4.3) — the subtree whose idle GPU count is closest to the request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuddyAllocator {
    capacity: u32,
    max_order: u32,
    /// `free[k]` holds the offsets of free blocks of order `k`.
    free: Vec<BTreeSet<u32>>,
    idle: u32,
}

impl BuddyAllocator {
    /// Creates an allocator over `capacity` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two.
    pub fn new(capacity: u32) -> Self {
        assert!(
            capacity.is_power_of_two(),
            "buddy capacity must be a power of two, got {capacity}"
        );
        let max_order = capacity.trailing_zeros();
        let mut free = vec![BTreeSet::new(); (max_order + 1) as usize];
        free[max_order as usize].insert(0);
        BuddyAllocator {
            capacity,
            max_order,
            free,
            idle: capacity,
        }
    }

    /// Total capacity in GPUs.
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Number of currently idle GPUs.
    pub fn idle_gpus(&self) -> u32 {
        self.idle
    }

    /// Allocates an aligned block of exactly `size` GPUs (power of two).
    ///
    /// # Errors
    ///
    /// * [`ClusterError::NotPowerOfTwo`] if `size` is not a power of two;
    /// * [`ClusterError::ExceedsCapacity`] if `size > capacity`;
    /// * [`ClusterError::Insufficient`] if no free block of sufficient order
    ///   exists (the cluster may still have `>= size` idle GPUs scattered —
    ///   that is fragmentation, resolved by migration at a higher layer).
    pub fn allocate(&mut self, size: u32) -> Result<Block, ClusterError> {
        if size == 0 || !size.is_power_of_two() {
            return Err(ClusterError::NotPowerOfTwo { requested: size });
        }
        if size > self.capacity {
            return Err(ClusterError::ExceedsCapacity {
                requested: size,
                capacity: self.capacity,
            });
        }
        let order = size.trailing_zeros();
        // Best fit: smallest order with a free block.
        let (found, offset) = (order..=self.max_order)
            .find_map(|k| {
                let &offset = self.free[k as usize].iter().next()?;
                Some((k, offset))
            })
            .ok_or(ClusterError::Insufficient {
                requested: size,
                idle: self.idle,
            })?;
        self.free[found as usize].remove(&offset);
        // Split down to the requested order, freeing the upper halves.
        let mut k = found;
        while k > order {
            k -= 1;
            let half = 1u32 << k;
            self.free[k as usize].insert(offset + half);
        }
        // Keep the lower half at each split (offset unchanged).
        let block = Block::new(order, offset);
        self.idle -= size;
        Ok(block)
    }

    /// Returns a block to the allocator, merging buddies eagerly.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the block overlaps a free block — i.e. it
    /// was not previously allocated from this allocator.
    pub fn free(&mut self, block: Block) {
        let mut current = block;
        self.idle += block.size();
        debug_assert!(self.idle <= self.capacity, "double free detected");
        while current.order() < self.max_order {
            let buddy = current.buddy();
            if self.free[current.order() as usize].remove(&buddy.offset()) {
                current = Block::new(current.order() + 1, current.offset().min(buddy.offset()));
            } else {
                break;
            }
        }
        let inserted = self.free[current.order() as usize].insert(current.offset());
        debug_assert!(inserted, "double free of block {current:?}");
    }

    /// Allocates the *specific* aligned block `want`, splitting free
    /// ancestors as needed. Used by defragmentation to reserve a victim
    /// region or to re-place blocks at their current positions.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Insufficient`] if any part of the block is already
    /// allocated; [`ClusterError::ExceedsCapacity`] if it lies outside the
    /// cluster.
    pub fn allocate_at(&mut self, want: Block) -> Result<(), ClusterError> {
        if want.offset() + want.size() > self.capacity {
            return Err(ClusterError::ExceedsCapacity {
                requested: want.size(),
                capacity: self.capacity,
            });
        }
        // Find the free ancestor (or exact block) containing `want`.
        let mut found: Option<Block> = None;
        for k in want.order()..=self.max_order {
            let size = 1u32 << k;
            let candidate_offset = want.offset() & !(size - 1);
            if self.free[k as usize].contains(&candidate_offset) {
                found = Some(Block::new(k, candidate_offset));
                break;
            }
        }
        let ancestor = found.ok_or(ClusterError::Insufficient {
            requested: want.size(),
            idle: self.idle,
        })?;
        self.free[ancestor.order() as usize].remove(&ancestor.offset());
        // Split the ancestor down toward `want`, freeing the siblings.
        let mut current = ancestor;
        while current.order() > want.order() {
            let child_order = current.order() - 1;
            let half = 1u32 << child_order;
            let (keep_off, free_off) = if want.offset() & half == 0 {
                (current.offset(), current.offset() + half)
            } else {
                (current.offset() + half, current.offset())
            };
            self.free[child_order as usize].insert(free_off);
            current = Block::new(child_order, keep_off);
        }
        debug_assert_eq!(current, want);
        self.idle -= want.size();
        Ok(())
    }

    /// `true` when a block of `size` GPUs can be allocated right now without
    /// migration.
    #[cfg(test)]
    fn can_allocate(&self, size: u32) -> bool {
        if size == 0 || !size.is_power_of_two() || size > self.capacity {
            return false;
        }
        let order = size.trailing_zeros();
        (order..=self.max_order).any(|k| !self.free[k as usize].is_empty())
    }

    /// A snapshot of the free blocks, ascending by offset.
    #[cfg(test)]
    fn free_blocks(&self) -> Vec<Block> {
        let mut blocks: Vec<Block> = self
            .free
            .iter()
            .enumerate()
            .flat_map(|(k, offsets)| offsets.iter().map(move |&off| Block::new(k as u32, off)))
            .collect();
        blocks.sort_by_key(|b| b.offset());
        blocks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_whole_cluster() {
        let mut b = BuddyAllocator::new(16);
        let block = b.allocate(16).unwrap();
        assert_eq!(block.size(), 16);
        assert_eq!(b.idle_gpus(), 0);
        assert!(b.allocate(1).is_err());
        b.free(block);
        assert_eq!(b.idle_gpus(), 16);
    }

    #[test]
    fn split_and_merge() {
        let mut b = BuddyAllocator::new(16);
        let x = b.allocate(4).unwrap();
        let y = b.allocate(4).unwrap();
        assert_ne!(x.offset(), y.offset());
        assert_eq!(b.idle_gpus(), 8);
        b.free(x);
        b.free(y);
        // Everything must have merged back into one 16-block.
        assert_eq!(b.free_blocks(), vec![Block::new(4, 0)]);
    }

    #[test]
    fn best_fit_prefers_smallest_hole() {
        let mut b = BuddyAllocator::new(16);
        let a = b.allocate(8).unwrap(); // occupies [0, 8)
        let c = b.allocate(2).unwrap(); // splits [8, 16): takes [8, 10)
        assert_eq!(c.offset(), 8);
        // Free the 8-block; holes are now [0,8), [10,12), [12,16).
        b.free(a);
        // A 2-GPU request should take the *smallest* sufficient hole [10,12),
        // not carve up the 8-block.
        let d = b.allocate(2).unwrap();
        assert_eq!(d.offset(), 10);
    }

    #[test]
    fn rejects_bad_sizes() {
        let mut b = BuddyAllocator::new(8);
        assert_eq!(
            b.allocate(3),
            Err(ClusterError::NotPowerOfTwo { requested: 3 })
        );
        assert_eq!(
            b.allocate(0),
            Err(ClusterError::NotPowerOfTwo { requested: 0 })
        );
        assert_eq!(
            b.allocate(16),
            Err(ClusterError::ExceedsCapacity {
                requested: 16,
                capacity: 8
            })
        );
    }

    #[test]
    fn random_schedule_keeps_invariants() {
        // Exercise a long pseudo-random alloc/free schedule and check the
        // accounting invariants: idle count matches held blocks, held blocks
        // never overlap, and frees always merge back at the end.
        let mut b = BuddyAllocator::new(64);
        let mut held: Vec<Block> = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..2000 {
            let r = next();
            if r % 3 == 0 && !held.is_empty() {
                let idx = (r / 3) as usize % held.len();
                let blk = held.swap_remove(idx);
                b.free(blk);
            } else {
                let size = 1u32 << (r % 4); // 1..8
                if b.can_allocate(size) {
                    held.push(b.allocate(size).expect("can_allocate said yes"));
                }
            }
            let held_gpus: u32 = held.iter().map(|blk| blk.size()).sum();
            assert_eq!(b.idle_gpus(), 64 - held_gpus);
            for (i, x) in held.iter().enumerate() {
                for y in &held[i + 1..] {
                    let disjoint =
                        x.offset() + x.size() <= y.offset() || y.offset() + y.size() <= x.offset();
                    assert!(disjoint, "overlapping blocks {x:?} {y:?}");
                }
            }
        }
        for blk in held.drain(..) {
            b.free(blk);
        }
        assert_eq!(b.free_blocks(), vec![Block::new(6, 0)]);
    }

    #[test]
    fn buddy_is_computed_by_xor() {
        let blk = Block::new(2, 4);
        assert_eq!(blk.buddy().offset(), 0);
        let blk = Block::new(2, 0);
        assert_eq!(blk.buddy().offset(), 4);
    }

    #[test]
    fn contains_checks_bounds() {
        let blk = Block::new(3, 8);
        assert!(blk.contains(GpuId::new(8)));
        assert!(blk.contains(GpuId::new(15)));
        assert!(!blk.contains(GpuId::new(16)));
        assert!(!blk.contains(GpuId::new(7)));
    }

    #[test]
    fn can_allocate_is_consistent_with_allocate() {
        let mut b = BuddyAllocator::new(8);
        let _x = b.allocate(4).unwrap();
        let _y = b.allocate(2).unwrap();
        assert!(b.can_allocate(2));
        assert!(!b.can_allocate(4));
        assert!(!b.can_allocate(3));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn misaligned_block_panics() {
        let _ = Block::new(2, 2);
    }
}

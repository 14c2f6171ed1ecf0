//! Cluster-wide allocation bookkeeping with defragmentation.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use crate::table::AllocationTable;
use crate::{Block, BuddyAllocator, ClusterError};

/// A job relocation emitted by defragmentation: move the owner's workers
/// from one block of GPUs to another of the same size.
///
/// Migrations are not free — the simulator charges the checkpoint/restore
/// overhead measured in the paper's Fig. 12(b) for each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Migration {
    /// The owner (job) being moved.
    pub owner: u64,
    /// Block the job currently occupies.
    pub from: Block,
    /// Block the job is moved to.
    pub to: Block,
}

/// Allocation state of a whole cluster: the buddy allocator and the block
/// each owner currently holds.
///
/// Owners are opaque `u64` tags (job ids at higher layers).
///
/// # Example
///
/// ```
/// use elasticflow_cluster::{ClusterSpec, ClusterState};
///
/// let mut cluster = ClusterState::new(ClusterSpec::with_servers(2, 8).total_gpus());
/// cluster.allocate(1, 8)?;
/// let block = cluster.allocate(2, 4)?;
/// assert_eq!(block.size(), 4);
/// assert_eq!(cluster.idle_gpus(), 4);
/// cluster.release(1)?;
/// assert_eq!(cluster.idle_gpus(), 12);
/// # Ok::<(), elasticflow_cluster::ClusterError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterState {
    buddy: BuddyAllocator,
    /// Dense sorted owner → block table; iteration order (ascending owner)
    /// and serialized shape are identical to the former `BTreeMap`.
    allocations: AllocationTable,
    /// Owners whose blocks must never be relocated by defragmentation —
    /// used to fence off failed servers (the block *is* the hardware).
    #[serde(default)]
    pinned: BTreeSet<u64>,
}

impl ClusterState {
    /// Creates an empty cluster of `capacity` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not a power of two (required for
    /// buddy allocation).
    pub fn new(capacity: u32) -> Self {
        ClusterState {
            buddy: BuddyAllocator::new(capacity),
            allocations: AllocationTable::new(),
            pinned: BTreeSet::new(),
        }
    }

    /// Total number of GPUs.
    pub fn capacity(&self) -> u32 {
        self.buddy.capacity()
    }

    /// Number of idle GPUs.
    pub fn idle_gpus(&self) -> u32 {
        self.buddy.idle_gpus()
    }

    /// Number of allocated GPUs.
    pub fn used_gpus(&self) -> u32 {
        self.capacity() - self.idle_gpus()
    }

    /// The block currently held by `owner`, if any.
    pub fn block_of(&self, owner: u64) -> Option<Block> {
        self.allocations.get(&owner).copied()
    }

    /// Allocates `size` GPUs (a power of two) to `owner` **without**
    /// defragmentation.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::AlreadyAllocated`] if the owner holds a block;
    /// * [`ClusterError::NotPowerOfTwo`] / [`ClusterError::ExceedsCapacity`]
    ///   for invalid sizes;
    /// * [`ClusterError::Insufficient`] when no aligned block exists —
    ///   possibly due to fragmentation; see
    ///   [`ClusterState::allocate_with_defrag`].
    pub fn allocate(&mut self, owner: u64, size: u32) -> Result<Block, ClusterError> {
        if self.allocations.contains_key(&owner) {
            return Err(ClusterError::AlreadyAllocated { owner });
        }
        let block = self.buddy.allocate(size)?;
        self.allocations.insert(owner, block);
        Ok(block)
    }

    /// Allocates `size` GPUs to `owner`, migrating existing jobs if needed.
    ///
    /// This realizes the paper's §4.3 guarantee: with power-of-two jobs and
    /// migration, a request succeeds whenever `idle_gpus() >= size`. Returns
    /// the block together with the migrations performed (empty when no
    /// defragmentation was necessary).
    ///
    /// # Errors
    ///
    /// Same as [`ClusterState::allocate`], except fragmentation-induced
    /// [`ClusterError::Insufficient`] is resolved by migration; it is only
    /// returned when idle capacity is genuinely short.
    pub fn allocate_with_defrag(
        &mut self,
        owner: u64,
        size: u32,
    ) -> Result<(Block, Vec<Migration>), ClusterError> {
        match self.allocate(owner, size) {
            Ok(block) => Ok((block, Vec::new())),
            Err(ClusterError::Insufficient { .. }) if self.idle_gpus() >= size => {
                // Minimal-move defragmentation first; full repack only as
                // a fallback (it relocates far more jobs, and every
                // migration pauses a job for a checkpoint/restore).
                let migrations = match self.evict_region(size) {
                    Some(migrations) => migrations,
                    None => self.defragment(),
                };
                let block = self
                    .allocate(owner, size)
                    .map_err(|_| ClusterError::Internal {
                        context: "defragmentation must yield an aligned block when idle >= size",
                    })?;
                Ok((block, migrations))
            }
            Err(e) => Err(e),
        }
    }

    /// Minimal-move defragmentation: picks the aligned `size`-region with
    /// the fewest allocated GPUs and relocates only the blocks inside it.
    /// Returns `None` when the displaced blocks cannot be re-packed outside
    /// the region (the caller falls back to a full repack).
    fn evict_region(&mut self, size: u32) -> Option<Vec<Migration>> {
        debug_assert!(size.is_power_of_two() && size <= self.capacity());
        // Choose the cheapest victim region.
        let mut best: Option<(u32, u32)> = None; // (used_gpus, offset)
        let mut offset = 0u32;
        while offset < self.capacity() {
            let contains_pinned = self.allocations.iter().any(|(o, b)| {
                self.pinned.contains(o) && b.offset() >= offset && b.offset() < offset + size
            });
            // Pinned blocks (failed servers) cannot be relocated; regions
            // containing or contained in them are off limits.
            let covered_by_pinned = self.allocations.iter().any(|(o, b)| {
                self.pinned.contains(o) && b.offset() <= offset && offset < b.offset() + b.size()
            });
            if !contains_pinned && !covered_by_pinned {
                let used: u32 = self
                    .allocations
                    .values()
                    .filter(|b| b.offset() >= offset && b.offset() < offset + size)
                    .map(|b| b.size())
                    .sum();
                if best.map(|(u, _)| used < u).unwrap_or(true) {
                    best = Some((used, offset));
                }
            }
            offset += size;
        }
        let (_, region_offset) = best?;
        let region = Block::new(size.trailing_zeros(), region_offset);
        // Snapshot, then relocate the victims on a scratch copy so failure
        // leaves `self` untouched.
        let victims: Vec<(u64, Block)> = self
            .allocations
            .iter()
            .filter(|(_, b)| region.contains(crate::GpuId::new(b.offset())))
            .map(|(&o, &b)| (o, b))
            .collect();
        let mut scratch_buddy = self.buddy.clone();
        for (_, block) in &victims {
            scratch_buddy.free(*block);
        }
        // Reserve the region, then re-place victims largest-first.
        scratch_buddy.allocate_at(region).ok()?;
        let mut moves = Vec::new();
        let mut sorted = victims.clone();
        sorted.sort_by(|a, b| b.1.size().cmp(&a.1.size()).then(a.0.cmp(&b.0)));
        for (owner, old_block) in sorted {
            let new_block = scratch_buddy.allocate(old_block.size()).ok()?;
            moves.push(Migration {
                owner,
                from: old_block,
                to: new_block,
            });
        }
        // Commit: release the reservation (the caller allocates normally).
        scratch_buddy.free(region);
        self.buddy = scratch_buddy;
        for m in &moves {
            self.allocations.insert(m.owner, m.to);
        }
        Some(moves)
    }

    /// Releases the block held by `owner`.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownOwner`] if the owner holds nothing.
    pub fn release(&mut self, owner: u64) -> Result<(), ClusterError> {
        let block = self
            .allocations
            .remove(&owner)
            .ok_or(ClusterError::UnknownOwner { owner })?;
        self.pinned.remove(&owner);
        self.buddy.free(block);
        Ok(())
    }

    /// Allocates the *exact* block `block` to `owner` and pins it: the
    /// block will never be relocated by defragmentation. Used to fence off
    /// failed servers — the pinned block stands for the dead hardware.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::AlreadyAllocated`] if the owner holds a block;
    /// * [`ClusterError::Insufficient`] if any covered GPU is busy;
    /// * [`ClusterError::ExceedsCapacity`] if the block is out of range.
    pub fn allocate_pinned(&mut self, owner: u64, block: Block) -> Result<(), ClusterError> {
        if self.allocations.contains_key(&owner) {
            return Err(ClusterError::AlreadyAllocated { owner });
        }
        self.buddy.allocate_at(block)?;
        self.allocations.insert(owner, block);
        self.pinned.insert(owner);
        Ok(())
    }

    /// Changes `owner`'s allocation to `new_size`, defragmenting if needed.
    /// Returns the new block and any migrations of *other* jobs.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::UnknownOwner`] if the owner holds nothing;
    /// * [`ClusterError::Insufficient`] if the grow cannot be satisfied (the
    ///   original allocation is restored in that case).
    pub fn resize(
        &mut self,
        owner: u64,
        new_size: u32,
    ) -> Result<(Block, Vec<Migration>), ClusterError> {
        let old = *self
            .allocations
            .get(&owner)
            .ok_or(ClusterError::UnknownOwner { owner })?;
        if old.size() == new_size {
            return Ok((old, Vec::new()));
        }
        if !new_size.is_power_of_two() || new_size == 0 {
            return Err(ClusterError::NotPowerOfTwo {
                requested: new_size,
            });
        }
        if new_size > self.capacity() {
            return Err(ClusterError::ExceedsCapacity {
                requested: new_size,
                capacity: self.capacity(),
            });
        }
        // Prefer resizing *in place*: shrink to the aligned sub-block at
        // the same offset, or grow into the enclosing aligned block when
        // its other half is free. In-place changes relocate nobody, so no
        // bystander migration pauses are charged.
        self.release(owner)?;
        let new_order = new_size.trailing_zeros();
        let in_place = Block::new(new_order, old.offset() & !(new_size - 1));
        if self.buddy.allocate_at(in_place).is_ok() {
            self.allocations.insert(owner, in_place);
            return Ok((in_place, Vec::new()));
        }
        match self.allocate_with_defrag(owner, new_size) {
            Ok(ok) => Ok(ok),
            Err(e) => {
                // Roll back: the old block must still be obtainable because
                // we just freed it and nothing else changed.
                let (restored, _) = self.allocate_with_defrag(owner, old.size()).map_err(|_| {
                    ClusterError::Internal {
                        context: "rollback to the original size must succeed after a failed resize",
                    }
                })?;
                debug_assert_eq!(restored.size(), old.size());
                Err(e)
            }
        }
    }

    /// Compacts all allocations to eliminate fragmentation, returning the
    /// migrations performed. Blocks are re-packed largest-first, which for
    /// power-of-two sizes always succeeds and leaves all idle GPUs mergeable
    /// into maximal aligned blocks.
    pub fn defragment(&mut self) -> Vec<Migration> {
        let mut entries: Vec<(u64, Block)> =
            self.allocations.iter().map(|(&o, &b)| (o, b)).collect();
        // Largest first; owner id breaks ties for determinism.
        entries.sort_by(|a, b| b.1.size().cmp(&a.1.size()).then(a.0.cmp(&b.0)));
        let mut fresh = BuddyAllocator::new(self.capacity());
        let mut migrations = Vec::new();
        let mut new_allocations = AllocationTable::new();
        // Pinned blocks (failed servers) keep their exact positions.
        for (owner, block) in &entries {
            if self.pinned.contains(owner) {
                #[expect(
                    clippy::expect_used,
                    reason = "pinned blocks were disjoint and in range in the old allocator and \
                              the fresh one has identical capacity; a failure here means \
                              corrupted bookkeeping, where continuing would double-assign GPUs"
                )]
                {
                    fresh
                        .allocate_at(*block)
                        .expect("pinned blocks are disjoint and in range");
                }
                new_allocations.insert(*owner, *block);
            }
        }
        for (owner, old_block) in entries {
            if self.pinned.contains(&owner) {
                continue;
            }
            #[expect(
                clippy::expect_used,
                reason = "largest-first repacking of power-of-two blocks that fit before \
                          cannot fail in an equal-capacity buddy allocator; defragment() has \
                          no error channel and a quiet skip would leak the job's GPUs"
            )]
            let new_block = fresh
                .allocate(old_block.size())
                .expect("largest-first packing of power-of-two blocks cannot fail");
            if new_block != old_block {
                migrations.push(Migration {
                    owner,
                    from: old_block,
                    to: new_block,
                });
            }
            new_allocations.insert(owner, new_block);
        }
        self.buddy = fresh;
        self.allocations = new_allocations;
        migrations
    }

    /// Iterates over `(owner, block)` pairs, ascending by owner.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Block)> + '_ {
        self.allocations.iter().map(|(&o, &b)| (o, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ClusterSpec;

    fn cluster_2x8() -> ClusterState {
        ClusterState::new(ClusterSpec::with_servers(2, 8).total_gpus())
    }

    #[test]
    fn allocate_and_release() {
        let mut c = cluster_2x8();
        let block = c.allocate(7, 8).unwrap();
        assert_eq!(block.size(), 8);
        assert_eq!(c.used_gpus(), 8);
        assert_eq!(c.allocations.len(), 1);
        c.release(7).unwrap();
        assert_eq!(c.used_gpus(), 0);
        assert_eq!(c.release(7), Err(ClusterError::UnknownOwner { owner: 7 }));
    }

    #[test]
    fn duplicate_owner_rejected() {
        let mut c = cluster_2x8();
        c.allocate(1, 2).unwrap();
        assert_eq!(
            c.allocate(1, 2),
            Err(ClusterError::AlreadyAllocated { owner: 1 })
        );
    }

    #[test]
    fn paper_defrag_example() {
        // Paper §4.3: 7 GPUs of server 1 to job A, 7 of server 2 to job B
        // leaves 2 idle GPUs but no aligned pair. With powers of two the
        // analogous scenario: jobs of sizes 4+2+1 on each server leave one
        // idle GPU per server; a 2-GPU job then needs migration.
        let mut c = cluster_2x8();
        // Fill the cluster with 16 single-GPU jobs, then release every other
        // one: 8 idle GPUs remain but no two of them form an aligned pair.
        for owner in 0..16u64 {
            c.allocate(owner, 1).unwrap();
        }
        for owner in (1..16u64).step_by(2) {
            c.release(owner).unwrap();
        }
        assert_eq!(c.idle_gpus(), 8);
        assert!(c.allocate(99, 2).is_err());
        let (block, migrations) = c.allocate_with_defrag(99, 2).unwrap();
        assert_eq!(block.size(), 2);
        assert!(!migrations.is_empty());
        assert_eq!(c.idle_gpus(), 6);
        // Migration-enabled allocation keeps satisfying requests as long
        // as idle capacity suffices (§4.3 guarantee).
        assert!(c.allocate_with_defrag(100, 4).is_ok());
        assert_eq!(c.idle_gpus(), 2);
    }

    #[test]
    fn defrag_never_loses_gpus() {
        let mut c = cluster_2x8();
        c.allocate(1, 4).unwrap();
        c.allocate(2, 1).unwrap();
        c.allocate(3, 2).unwrap();
        let before = c.used_gpus();
        let migrations = c.defragment();
        assert_eq!(c.used_gpus(), before);
        // After defrag all sizes preserved.
        assert_eq!(c.block_of(1).unwrap().size(), 4);
        assert_eq!(c.block_of(2).unwrap().size(), 1);
        assert_eq!(c.block_of(3).unwrap().size(), 2);
        // Migrations reference real moves.
        for m in &migrations {
            assert_ne!(m.from, m.to);
        }
    }

    #[test]
    fn resize_grow_and_shrink() {
        let mut c = cluster_2x8();
        c.allocate(1, 2).unwrap();
        let (block, _) = c.resize(1, 8).unwrap();
        assert_eq!(block.size(), 8);
        let (block, _) = c.resize(1, 1).unwrap();
        assert_eq!(block.size(), 1);
        assert_eq!(c.used_gpus(), 1);
    }

    #[test]
    fn resize_failure_rolls_back() {
        let mut c = cluster_2x8();
        c.allocate(1, 8).unwrap();
        c.allocate(2, 8).unwrap();
        let err = c.resize(1, 16).unwrap_err();
        assert!(matches!(err, ClusterError::Insufficient { .. }));
        // Owner 1 still holds its original 8 GPUs.
        assert_eq!(c.block_of(1).unwrap().size(), 8);
        assert_eq!(c.used_gpus(), 16);
    }

    #[test]
    fn guarantee_idle_implies_allocatable() {
        // The §4.3 guarantee: any power-of-two request <= idle succeeds with
        // defrag, whatever the history.
        let mut c = ClusterState::new(ClusterSpec::with_servers(4, 8).total_gpus());
        let mut owner = 0u64;
        let mut state = 12345u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..500 {
            let r = next();
            let owners = c.allocations.len();
            if r % 4 == 0 && owners > 0 {
                let victim = *c.allocations.keys().nth((r / 4) as usize % owners).unwrap();
                c.release(victim).unwrap();
            } else {
                let size = 1u32 << (r % 4);
                if c.idle_gpus() >= size {
                    owner += 1;
                    let res = c.allocate_with_defrag(owner, size);
                    assert!(res.is_ok(), "round {round}: {res:?}");
                }
            }
        }
    }

    #[test]
    fn iter_yields_all_owners() {
        let mut c = cluster_2x8();
        c.allocate(3, 2).unwrap();
        c.allocate(1, 4).unwrap();
        let owners: Vec<u64> = c.iter().map(|(o, _)| o).collect();
        assert_eq!(owners, vec![1, 3]);
    }

    #[test]
    fn serde_roundtrip() {
        let mut c = cluster_2x8();
        c.allocate(1, 4).unwrap();
        let json = serde_json::to_string(&c).unwrap();
        let back: ClusterState = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}

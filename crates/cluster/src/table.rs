//! Dense, sorted owner → block table backing [`crate::ClusterState`].
//!
//! The allocation table used to be a `BTreeMap<u64, Block>`. At mega-cluster
//! scale (tens of thousands of concurrent owners) pointer-chasing through
//! tree nodes dominates the placement path, so the table is now a single
//! sorted `Vec<(u64, Block)>`: lookups are a binary search over one
//! contiguous allocation, iteration is a linear scan in ascending owner
//! order — exactly the order the `BTreeMap` produced — and inserts/removes
//! are a `memmove` within one cache-friendly buffer.
//!
//! Serialization goes through a `BTreeMap` mirror so the JSON wire shape
//! (an object keyed by the stringified owner id, ascending) is byte-for-byte
//! identical to the historical encoding; snapshot fingerprints and golden
//! digests are unaffected by the layout change.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::Block;

/// Sorted dense map from owner tag to allocated block.
///
/// Invariant: `entries` is strictly sorted by owner.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AllocationTable {
    entries: Vec<(u64, Block)>,
}

impl AllocationTable {
    /// An empty table.
    pub(crate) fn new() -> Self {
        AllocationTable::default()
    }

    /// Number of owners holding a block.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    /// Position of `owner` in the sorted entries, or its insertion point.
    fn position(&self, owner: u64) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&owner, |&(o, _)| o)
    }

    /// The block held by `owner`, if any.
    pub(crate) fn get(&self, owner: &u64) -> Option<&Block> {
        self.position(*owner).ok().map(|i| &self.entries[i].1)
    }

    /// `true` when `owner` holds a block.
    pub(crate) fn contains_key(&self, owner: &u64) -> bool {
        self.position(*owner).is_ok()
    }

    /// Inserts or replaces `owner`'s block, returning the previous one.
    pub(crate) fn insert(&mut self, owner: u64, block: Block) -> Option<Block> {
        match self.position(owner) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, block)),
            Err(i) => {
                self.entries.insert(i, (owner, block));
                None
            }
        }
    }

    /// Removes `owner`'s entry, returning its block.
    pub(crate) fn remove(&mut self, owner: &u64) -> Option<Block> {
        match self.position(*owner) {
            Ok(i) => Some(self.entries.remove(i).1),
            Err(_) => None,
        }
    }

    /// Iterates `(owner, block)` pairs, ascending by owner.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&u64, &Block)> {
        self.entries.iter().map(|(o, b)| (o, b))
    }

    /// Iterates blocks, ascending by owner.
    pub(crate) fn values(&self) -> impl Iterator<Item = &Block> {
        self.entries.iter().map(|(_, b)| b)
    }

    /// Iterates owners in ascending order. (Only exercised by in-crate
    /// tests; the engine reaches owners through `iter`.)
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = &u64> {
        self.entries.iter().map(|(o, _)| o)
    }
}

impl Serialize for AllocationTable {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        // Mirror the historical `BTreeMap<u64, Block>` encoding exactly.
        let map: BTreeMap<u64, Block> = self.entries.iter().copied().collect();
        map.serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for AllocationTable {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let map = BTreeMap::<u64, Block>::deserialize(deserializer)?;
        Ok(AllocationTable {
            entries: map.into_iter().collect(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(order: u32, offset: u32) -> Block {
        Block::new(order, offset)
    }

    #[test]
    fn insert_get_remove_keep_sorted_order() {
        let mut t = AllocationTable::new();
        assert_eq!(t.insert(5, block(0, 0)), None);
        assert_eq!(t.insert(1, block(1, 2)), None);
        assert_eq!(t.insert(9, block(2, 4)), None);
        assert_eq!(t.len(), 3);
        assert!(t.contains_key(&1));
        assert!(!t.contains_key(&2));
        assert_eq!(t.get(&5), Some(&block(0, 0)));
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), vec![1, 5, 9]);
        // Replacement returns the old block and keeps one entry per owner.
        assert_eq!(t.insert(5, block(3, 8)), Some(block(0, 0)));
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove(&5), Some(block(3, 8)));
        assert_eq!(t.remove(&5), None);
        assert_eq!(t.keys().copied().collect::<Vec<_>>(), vec![1, 9]);
    }

    #[test]
    fn serde_shape_matches_btreemap() {
        let mut t = AllocationTable::new();
        t.insert(10, block(1, 0));
        t.insert(2, block(0, 2));
        let map: BTreeMap<u64, Block> = t.iter().map(|(&o, &b)| (o, b)).collect();
        let via_table = serde_json::to_string(&t).unwrap();
        let via_map = serde_json::to_string(&map).unwrap();
        // Byte-identical wire encoding: snapshots cannot tell the layouts
        // apart, so fingerprints of either encoding agree.
        assert_eq!(via_table, via_map);
        let back: AllocationTable = serde_json::from_str(&via_table).unwrap();
        assert_eq!(t, back);
    }
}

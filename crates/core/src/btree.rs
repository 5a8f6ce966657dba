//! The STL's per-space locator tree (§4.2, Fig. 6).
//!
//! For an N-D space the STL keeps an N-level tree: the root level
//! corresponds to the highest-order dimension, each level below to the next
//! lower order, and the leaf level to the lowest order. The node degree at
//! the level for dimension *i* is `⌈dᵢ / bbᵢ⌉` — the number of building
//! blocks along that dimension. A leaf entry points to the list of physical
//! access-unit locations of one building block, sorted in the block's
//! sequential unit order.
//!
//! Nodes are allocated lazily along the traversal path, exactly as §4.2
//! describes for requests that reach unallocated entries.

use serde::{Deserialize, Serialize};

use crate::backend::UnitLocation;
use crate::error::NdsError;
use crate::shape::Shape;

/// A leaf entry: the access-unit list of one building block.
///
/// Slot *k* holds unit *k* of the block's sequential byte image; `None`
/// means that unit has never been written (reads of it yield zeroes, like
/// fresh storage).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockEntry {
    /// Unit locations in sequential block order.
    pub units: Vec<Option<UnitLocation>>,
}

impl BlockEntry {
    fn new(unit_count: usize) -> Self {
        BlockEntry {
            units: vec![None; unit_count],
        }
    }

    /// Locations of every allocated unit, in sequential order.
    pub fn allocated_units(&self) -> impl Iterator<Item = UnitLocation> + '_ {
        self.units.iter().filter_map(|u| *u)
    }

    /// Number of allocated units.
    pub fn allocated_count(&self) -> usize {
        self.units.iter().filter(|u| u.is_some()).count()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
enum Node {
    Internal(Vec<Option<Box<Node>>>),
    Leaf(Vec<Option<BlockEntry>>),
}

/// The N-level locator tree of one space.
///
/// # Example
///
/// ```
/// use nds_core::{LocatorTree, Shape, UnitLocation};
///
/// // A 64×64 grid of building blocks, 8 units each.
/// let mut tree = LocatorTree::new(Shape::new([64, 64]), 8);
/// let entry = tree.get_or_insert(&[6, 1]).unwrap();
/// entry.units[0] = Some(UnitLocation { channel: 0, bank: 0, unit: 42 });
/// assert_eq!(tree.get(&[6, 1]).unwrap().allocated_count(), 1);
/// assert!(tree.get(&[0, 0]).is_none(), "untouched blocks stay unallocated");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LocatorTree {
    grid: Shape,
    units_per_block: usize,
    root: Node,
    allocated_blocks: u64,
}

impl LocatorTree {
    /// Creates an empty tree over a `grid` of building blocks, each holding
    /// `units_per_block` access units.
    ///
    /// # Panics
    ///
    /// Panics if `units_per_block` is zero.
    pub fn new(grid: Shape, units_per_block: usize) -> Self {
        assert!(units_per_block > 0, "blocks must hold at least one unit");
        LocatorTree {
            root: Node::empty(&grid, grid.ndims() - 1),
            grid,
            units_per_block,
            allocated_blocks: 0,
        }
    }

    /// The block grid this tree indexes.
    pub fn grid(&self) -> &Shape {
        &self.grid
    }

    /// Number of tree levels (= space dimensionality).
    pub fn levels(&self) -> usize {
        self.grid.ndims()
    }

    /// Units per building block.
    pub fn units_per_block(&self) -> usize {
        self.units_per_block
    }

    /// Number of building blocks with an allocated entry.
    pub fn allocated_blocks(&self) -> u64 {
        self.allocated_blocks
    }

    /// Looks up the entry for block `coord`, if allocated; a coordinate of
    /// the wrong arity or outside the grid names no allocated block.
    ///
    /// The traversal visits one node per level: the root is indexed by the
    /// highest-order coordinate, the leaf by the lowest (Fig. 6).
    pub fn get(&self, coord: &[u64]) -> Option<&BlockEntry> {
        if coord.len() != self.grid.ndims() {
            return None;
        }
        let (&lowest, upper) = coord.split_first()?;
        let mut node = &self.root;
        for &c in upper.iter().rev() {
            let Node::Internal(children) = node else {
                return None;
            };
            node = children.get(c as usize)?.as_deref()?;
        }
        let Node::Leaf(entries) = node else {
            return None;
        };
        entries.get(lowest as usize)?.as_ref()
    }

    /// Returns the entry for block `coord`, allocating every node on the
    /// traversal path if needed (§4.2).
    ///
    /// # Errors
    ///
    /// [`NdsError::ArityMismatch`] if `coord` has the wrong arity,
    /// [`NdsError::OutOfBounds`] if it is outside the grid.
    pub fn get_or_insert(&mut self, coord: &[u64]) -> Result<&mut BlockEntry, NdsError> {
        const MISPLACED: NdsError = NdsError::Inconsistent("locator tree node at the wrong level");
        self.grid.check_coord(coord)?;
        let mut node = &mut self.root;
        for (level, &c) in coord.iter().enumerate().skip(1).rev() {
            let Node::Internal(children) = node else {
                return Err(MISPLACED);
            };
            let slot = children.get_mut(c as usize).ok_or(MISPLACED)?;
            node = slot.get_or_insert_with(|| Box::new(Node::empty(&self.grid, level - 1)));
        }
        let (Node::Leaf(entries), Some(&c)) = (node, coord.first()) else {
            return Err(MISPLACED);
        };
        let slot = entries.get_mut(c as usize).ok_or(MISPLACED)?;
        if slot.is_none() {
            self.allocated_blocks += 1;
        }
        Ok(slot.get_or_insert_with(|| BlockEntry::new(self.units_per_block)))
    }

    /// Visits every allocated block as `(coordinate, entry)`.
    pub fn for_each_block(&self, mut f: impl FnMut(&[u64], &BlockEntry)) {
        let n = self.grid.ndims();
        let mut coord = vec![0u64; n];
        Self::walk(&self.root, n - 1, &mut coord, &mut f);
    }

    fn walk(
        node: &Node,
        level: usize,
        coord: &mut Vec<u64>,
        f: &mut impl FnMut(&[u64], &BlockEntry),
    ) {
        match node {
            Node::Internal(children) => {
                for (i, child) in children.iter().enumerate() {
                    if let (Some(child), Some(c)) = (child, coord.get_mut(level)) {
                        *c = i as u64;
                        Self::walk(child, level.saturating_sub(1), coord, f);
                    }
                }
            }
            Node::Leaf(entries) => {
                for (i, entry) in entries.iter().enumerate() {
                    if let (Some(entry), Some(c)) = (entry, coord.first_mut()) {
                        *c = i as u64;
                        f(coord, entry);
                    }
                }
            }
        }
    }

    /// Drains the tree, returning every allocated unit location (used by
    /// `delete_space` to invalidate a space's building blocks).
    pub fn drain_units(&mut self) -> Vec<UnitLocation> {
        let mut units = Vec::new();
        self.for_each_block(|_, entry| units.extend(entry.allocated_units()));
        self.root = Node::empty(&self.grid, self.grid.ndims() - 1);
        self.allocated_blocks = 0;
        units
    }

    /// An estimate of the tree's memory footprint in bytes (8-byte entries
    /// per node slot plus 16 bytes per allocated unit pointer), used to
    /// check the paper's ≤0.1% space-overhead claim (§7.3).
    pub fn memory_bytes(&self) -> u64 {
        let mut bytes = 0u64;
        fn visit(node: &Node, bytes: &mut u64) {
            match node {
                Node::Internal(children) => {
                    *bytes += 8 * children.len() as u64;
                    for child in children.iter().flatten() {
                        visit(child, bytes);
                    }
                }
                Node::Leaf(entries) => {
                    *bytes += 8 * entries.len() as u64;
                    for e in entries.iter().flatten() {
                        *bytes += 16 * e.units.len() as u64;
                    }
                }
            }
        }
        visit(&self.root, &mut bytes);
        bytes
    }
}

impl Node {
    /// An empty node for tree level `level` of `grid` (0 = the leaf level),
    /// one slot per building block along that dimension.
    fn empty(grid: &Shape, level: usize) -> Node {
        let degree = grid.dim(level) as usize;
        if level == 0 {
            Node::Leaf(vec![None; degree])
        } else {
            Node::Internal(vec![None; degree])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(channel: u32, unit: u64) -> UnitLocation {
        UnitLocation {
            channel,
            bank: 0,
            unit,
        }
    }

    #[test]
    fn fig6_traversal_shape() {
        // Fig. 6: an (8192, 8192, 4) space with (128, 128, 1) blocks has a
        // 64×64×4 grid and a 3-level tree.
        let tree = LocatorTree::new(Shape::new([64, 64, 4]), 8);
        assert_eq!(tree.levels(), 3);
        assert_eq!(tree.grid().dims(), &[64, 64, 4]);
    }

    #[test]
    fn get_after_insert() {
        let mut tree = LocatorTree::new(Shape::new([64, 64, 4]), 8);
        assert!(tree.get(&[6, 0, 1]).is_none());
        tree.get_or_insert(&[6, 0, 1]).unwrap().units[3] = Some(unit(3, 77));
        let entry = tree.get(&[6, 0, 1]).unwrap();
        assert_eq!(entry.units[3], Some(unit(3, 77)));
        assert_eq!(entry.allocated_count(), 1);
        assert_eq!(tree.allocated_blocks(), 1);
    }

    #[test]
    fn lazy_allocation_keeps_siblings_unallocated() {
        let mut tree = LocatorTree::new(Shape::new([4, 4]), 2);
        tree.get_or_insert(&[1, 2]).unwrap();
        assert!(tree.get(&[1, 1]).is_none());
        assert!(tree.get(&[2, 2]).is_none());
        assert!(tree.get(&[1, 2]).is_some());
    }

    #[test]
    fn one_dimensional_tree() {
        let mut tree = LocatorTree::new(Shape::new([16]), 4);
        assert_eq!(tree.levels(), 1);
        tree.get_or_insert(&[7]).unwrap().units[0] = Some(unit(0, 1));
        assert!(tree.get(&[7]).is_some());
        assert!(tree.get(&[8]).is_none());
    }

    #[test]
    fn for_each_block_visits_all_allocated() {
        let mut tree = LocatorTree::new(Shape::new([3, 3]), 1);
        for c in [[0u64, 0], [2, 1], [1, 2]] {
            tree.get_or_insert(&c).unwrap().units[0] = Some(unit(0, c[0]));
        }
        let mut seen = Vec::new();
        tree.for_each_block(|coord, _| seen.push(coord.to_vec()));
        assert_eq!(seen.len(), 3);
        assert!(seen.contains(&vec![2, 1]));
    }

    #[test]
    fn drain_returns_units_and_clears() {
        let mut tree = LocatorTree::new(Shape::new([4, 4]), 2);
        tree.get_or_insert(&[0, 0]).unwrap().units[0] = Some(unit(0, 1));
        tree.get_or_insert(&[3, 3]).unwrap().units[1] = Some(unit(1, 2));
        let drained = tree.drain_units();
        assert_eq!(drained.len(), 2);
        assert_eq!(tree.allocated_blocks(), 0);
        assert!(tree.get(&[0, 0]).is_none());
    }

    #[test]
    fn memory_grows_only_with_allocated_paths() {
        let mut tree = LocatorTree::new(Shape::new([64, 64, 64]), 8);
        let empty = tree.memory_bytes();
        tree.get_or_insert(&[0, 0, 0]).unwrap();
        let one = tree.memory_bytes();
        assert!(one > empty);
        // Allocating a second block in the same leaf adds only unit-list
        // bytes, not new nodes.
        tree.get_or_insert(&[1, 0, 0]).unwrap();
        let two = tree.memory_bytes();
        assert!(two - one < one - empty);
    }

    #[test]
    fn coordinates_outside_the_grid_are_unallocated_or_a_typed_error() {
        let mut tree = LocatorTree::new(Shape::new([4, 4]), 1);
        assert!(tree.get(&[4, 0]).is_none());
        assert!(tree.get(&[1]).is_none());
        assert_eq!(
            tree.get_or_insert(&[0, 4]).unwrap_err(),
            NdsError::OutOfBounds {
                dim: 1,
                end: 5,
                size: 4
            }
        );
        assert_eq!(
            tree.get_or_insert(&[1]).unwrap_err(),
            NdsError::ArityMismatch {
                view: 2,
                request: 1
            }
        );
        assert_eq!(tree.allocated_blocks(), 0);
    }
}

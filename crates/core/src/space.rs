//! Spaces: the STL's per-dataset state.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::block::BlockShape;
use crate::btree::LocatorTree;
use crate::element::ElementType;
use crate::plan_cache::GeometryClass;
use crate::shape::Shape;

/// Identifier of a multi-dimensional address space, as handed back by space
/// creation (the paper's `open_space`, §5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SpaceId(pub u64);

impl fmt::Display for SpaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "space#{}", self.0)
    }
}

/// One multi-dimensional address space: the producer's dimensionality, the
/// element size, the derived building-block geometry, and the locator tree
/// mapping block coordinates to physical units.
#[derive(Debug, Clone)]
pub struct Space {
    id: SpaceId,
    shape: Shape,
    element: ElementType,
    block_shape: BlockShape,
    class: GeometryClass,
    tree: LocatorTree,
}

impl Space {
    pub(crate) fn new(
        id: SpaceId,
        shape: Shape,
        element: ElementType,
        block_shape: BlockShape,
        class: GeometryClass,
    ) -> Self {
        let grid = block_shape.grid_for(&shape);
        let tree = LocatorTree::new(grid, block_shape.unit_count());
        Space {
            id,
            shape,
            element,
            block_shape,
            class,
            tree,
        }
    }

    /// The space identifier.
    pub fn id(&self) -> SpaceId {
        self.id
    }

    /// The producer-defined dimensionality.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The element type.
    pub fn element(&self) -> ElementType {
        self.element
    }

    /// The building-block geometry the STL chose for this space.
    pub fn block_shape(&self) -> &BlockShape {
        &self.block_shape
    }

    /// The class of spaces that translate exactly as this one does (same
    /// shape, same building blocks): what its plans are cached under.
    pub fn geometry_class(&self) -> GeometryClass {
        self.class
    }

    /// The locator tree.
    pub fn tree(&self) -> &LocatorTree {
        &self.tree
    }

    pub(crate) fn tree_mut(&mut self) -> &mut LocatorTree {
        &mut self.tree
    }

    /// Total bytes of elements the space can hold, saturating at
    /// `u64::MAX`.
    pub fn byte_volume(&self) -> u64 {
        self.shape.checked_bytes(self.element).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DeviceSpec;
    use crate::block::BlockDimensionality;

    #[test]
    fn space_derives_grid_and_tree() {
        let shape = Shape::new([512, 512]);
        let bb = BlockShape::for_space(
            &shape,
            ElementType::F32,
            DeviceSpec::new(8, 8, 4096),
            BlockDimensionality::Auto,
            1,
        );
        let class = crate::PlanCache::new(0).class_of(&shape, &bb);
        let space = Space::new(SpaceId(1), shape.clone(), ElementType::F32, bb, class);
        assert_eq!(space.tree().grid().dims(), &[4, 4]);
        assert_eq!(space.tree().levels(), 2);
        assert_eq!(space.byte_volume(), 512 * 512 * 4);
        assert_eq!(space.id(), SpaceId(1));
        assert_eq!(space.shape(), &shape);
    }

    #[test]
    fn space_id_display() {
        assert_eq!(SpaceId(9).to_string(), "space#9");
    }
}

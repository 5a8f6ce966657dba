//! Read assembly into a reused buffer (see `support/dirty_reads.rs`), over
//! the in-memory backend.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use nds_core::{DeviceSpec, MemBackend, Shape, Stl, StlConfig};

#[path = "support/dirty_reads.rs"]
mod dirty_reads;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Small units (64 B) and few channels, so most requests cover several
    /// blocks and many units — some never written, some elided.
    #[test]
    fn read_into_a_dirty_buffer_equals_a_fresh_read(case in dirty_reads::case_strategy(40)) {
        let backend = MemBackend::new(DeviceSpec::new(4, 2, 64), 1 << 14);
        let mut stl = Stl::new(backend, StlConfig::default());
        let id = stl.create_space(Shape::new(case.dims.clone()), case.element).unwrap();
        dirty_reads::check(&mut dirty_reads::StlSpace(&mut stl, id), &case)?;
    }
}

//! `nds-system`'s integration suites, one module each, linked once into one
//! test binary. `alloc_ceiling.rs` stays a binary of its own: its counting
//! global allocator would count every other suite's allocations too.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod dirty_buffer_props;
mod failover_orderings;
mod lifecycle_parity;
mod no_unwind;
mod paper_shapes;
mod tenant_differential;
mod tenant_isolation;
mod timeline_epochs;
mod wfq_qos;

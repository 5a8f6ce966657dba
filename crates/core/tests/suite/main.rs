//! `nds-core`'s integration suites, one module each, linked once into one
//! test binary.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

// Shared with `nds-system`'s suite, which includes the same file.
#[path = "../support/dirty_reads.rs"]
mod dirty_reads;
mod failure;
mod plan_cache_props;
mod proptests;
mod read_assembly_props;
mod strategies;
mod three_d_blocks;
mod translator_oracle;

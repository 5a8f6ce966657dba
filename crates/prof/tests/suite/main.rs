//! `nds-prof`'s integration suites, one module each, linked once into one
//! test binary.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod system_traces;
mod tenant_traces;

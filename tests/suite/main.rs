//! The umbrella crate's integration suites, one module each, linked once
//! into one test binary.

mod cross_arch_props;
mod end_to_end;
mod fault_differential;
mod lifecycle;

//! The one rule for how many threads a divisible job runs on.
//!
//! Two jobs split their output across cores: [`Assembler`](crate::Assembler)
//! copies a large read in contiguous parts, and the workloads' tile GEMM
//! shares out rows of its output tile. Both ask [`parts`] how many threads
//! to use, each with its own smallest worthwhile part, so the core count is
//! read in one place. The answer moves wall time only: both jobs write
//! every output byte the same way whatever it is.

use std::num::NonZeroUsize;
use std::sync::LazyLock;
use std::thread;

/// Cores this process may run on, asked once (on Linux the answer reads the
/// cgroup files).
static CORES: LazyLock<usize> =
    LazyLock::new(|| thread::available_parallelism().map_or(1, NonZeroUsize::get));

/// Parts a job of `work` units is split in: one per core, each at least
/// `min_part` units. A job too small to split never asks for the cores.
#[must_use]
pub fn parts(work: usize, min_part: usize) -> usize {
    match work.checked_div(min_part).unwrap_or(0) {
        0 | 1 => 1,
        parts => parts.min(*CORES),
    }
}

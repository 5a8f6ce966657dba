//! The one rule for how many threads a divisible job runs on, and the one
//! loop that runs it on them.
//!
//! Two jobs split their output across cores: [`Assembler`](crate::Assembler)
//! copies a large read in contiguous parts, and the workloads' tile GEMM
//! shares out rows of its output tile. Both ask [`parts`] how many threads
//! to use, each with its own smallest worthwhile part, so the core count is
//! read in one place, and both hand their pieces to [`in_parts`]. The answer
//! moves wall time only: both jobs write every output byte the same way
//! whatever it is.

use std::num::NonZeroUsize;
use std::sync::{LazyLock, Mutex, PoisonError};
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

/// Runs `each` on every item of `items`, on the calling thread plus up to
/// `parts − 1` scoped workers (never more threads than items). Every thread
/// claims the next item from one shared cursor until none is left, so a
/// worker that could not be spawned leaves its share to the others.
///
/// Every worker is joined here rather than by the scope: a worker frees
/// what its spawn allocated on its way out, and a join waits for that, so
/// the heap the caller goes on with does not depend on when a worker exits.
///
/// # Panics
///
/// Resumes the panic of a worker whose `each` panicked.
pub fn in_parts<I>(parts: usize, items: I, each: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator + Send,
    I::Item: Send,
{
    let workers = parts.min(items.len()).saturating_sub(1);
    let cursor = Mutex::new(items);
    let work = || loop {
        // The lock is held only for `next`; a panic there is resumed at
        // the join, so the others may go on past the poisoned lock.
        let next = cursor.lock().unwrap_or_else(PoisonError::into_inner).next();
        let Some(item) = next else { break };
        each(item);
    };
    thread::scope(|scope| {
        let workers: Vec<_> = (0..workers)
            .filter_map(|_| thread::Builder::new().spawn_scoped(scope, work).ok())
            .collect();
        work();
        for worker in workers {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

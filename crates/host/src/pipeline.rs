//! The blocked-application pipeline executor.
//!
//! Every workload in the paper processes a dataset larger than GPU device
//! memory by streaming it in blocks through a pipeline of stages — typically
//! *I/O → restructure (CPU) → host-to-device copy → compute kernel* — with
//! stage *s* of block *i* overlapping stage *s−1* of block *i+1* (§6.2).
//! Given per-stage, per-block durations, [`run`] computes the schedule under
//! the classic pipeline recurrence
//!
//! ```text
//! finish[s][i] = max(finish[s−1][i], finish[s][i−1]) + t[s][i]
//! ```
//!
//! and reports end-to-end latency plus each stage's busy and idle time.
//! The *idle time of the last stage* is Fig. 10(b)'s "idle time before each
//! pipelined compute kernel": how long the accelerator sits starved because
//! the storage path cannot feed it.

use nds_sim::{ComponentId, Journal, SimDuration, SimTime, TraceContext};
use serde::{Deserialize, Serialize};

/// Per-stage durations for one block flowing through the pipeline.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageTimes {
    /// One duration per stage, in pipeline order.
    pub stages: Vec<SimDuration>,
}

impl StageTimes {
    /// Convenience constructor.
    pub fn new(stages: impl Into<Vec<SimDuration>>) -> Self {
        StageTimes {
            stages: stages.into(),
        }
    }
}

/// The schedule computed by [`run`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PipelineResult {
    /// End-to-end latency: finish time of the last stage of the last block.
    pub total: SimDuration,
    /// Per-stage busy time (sum of that stage's block durations).
    pub stage_busy: Vec<SimDuration>,
    /// Per-stage idle time: gaps where the stage had finished its previous
    /// block but its next input was not ready (excludes initial fill before
    /// the stage's first block — the paper's metric is starvation between
    /// kernels, and we count it the same way).
    pub stage_idle: Vec<SimDuration>,
}

impl PipelineResult {
    /// Idle time of the final stage — Fig. 10(b)'s "idle time before
    /// pipelined compute kernels" when the last stage is the kernel.
    pub fn kernel_idle(&self) -> SimDuration {
        #[allow(clippy::expect_used)] // run_pipeline rejects empty stage lists
        *self.stage_idle.last().expect("pipelines have stages")
    }
}

/// Runs the pipeline recurrence over `blocks` (one [`StageTimes`] each).
///
/// # Panics
///
/// Panics if `blocks` is empty or blocks disagree on stage count.
pub fn run(blocks: &[StageTimes]) -> PipelineResult {
    run_traced(blocks, |_, _, _, _| {})
}

/// Like [`run`], but invokes `observe(stage, block, start, finish)` for every
/// scheduled stage interval — the hook the observability layer uses to build
/// stage timelines. `run` delegates here with a no-op closure, so tracing is
/// schedule-neutral by construction: the recurrence never reads anything the
/// observer could touch.
///
/// # Panics
///
/// Panics if `blocks` is empty or blocks disagree on stage count.
pub fn run_traced(
    blocks: &[StageTimes],
    mut observe: impl FnMut(usize, usize, SimDuration, SimDuration),
) -> PipelineResult {
    assert!(!blocks.is_empty(), "pipeline needs at least one block");
    let stages = blocks[0].stages.len();
    assert!(stages > 0, "pipeline needs at least one stage");
    assert!(
        blocks.iter().all(|b| b.stages.len() == stages),
        "all blocks must have the same stage count"
    );

    let mut finish_prev_stage = vec![SimDuration::ZERO; blocks.len()];
    let mut stage_busy = vec![SimDuration::ZERO; stages];
    let mut stage_idle = vec![SimDuration::ZERO; stages];
    let mut total = SimDuration::ZERO;

    for s in 0..stages {
        let mut finish_this_stage = vec![SimDuration::ZERO; blocks.len()];
        let mut prev_finish = SimDuration::ZERO;
        for (i, block) in blocks.iter().enumerate() {
            let input_ready = finish_prev_stage[i]; // zero for stage 0
            let start = input_ready.max(prev_finish);
            if i > 0 && start > prev_finish {
                stage_idle[s] += start - prev_finish;
            }
            let finish = start + block.stages[s];
            stage_busy[s] += block.stages[s];
            finish_this_stage[i] = finish;
            prev_finish = finish;
            observe(s, i, start, finish);
        }
        total = prev_finish;
        finish_prev_stage = finish_this_stage;
    }

    PipelineResult {
        total,
        stage_busy,
        stage_idle,
    }
}

/// Like [`run`], but additionally records every scheduled stage interval
/// into `journal` as a `SpanBegin`/`SpanEnd` pair — component
/// `host.pipeline[stage]`, label from `labels` (falling back to
/// `"stage"`), tagged with the block's 1-based trace id. This is the
/// bridge from the pipeline recurrence to the Chrome-trace exporter:
/// fig2 renders the interleaved schedule from these span pairs.
///
/// # Panics
///
/// Panics if `blocks` is empty or blocks disagree on stage count.
pub fn run_journaled(
    blocks: &[StageTimes],
    labels: &[&'static str],
    journal: &mut Journal,
) -> PipelineResult {
    let result = run_traced(blocks, |stage, block, start, finish| {
        let component = ComponentId::new("host.pipeline", stage as u32);
        let label = labels.get(stage).copied().unwrap_or("stage");
        journal.set_trace(TraceContext {
            id: block as u64 + 1,
            origin: SimDuration::ZERO,
        });
        journal.begin_span(SimTime::ZERO + start, component, label);
        journal.end_span(SimTime::ZERO + finish, component, label);
    });
    journal.clear_trace();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn uniform(blocks: usize, stages: &[u64]) -> Vec<StageTimes> {
        (0..blocks)
            .map(|_| StageTimes::new(stages.iter().map(|&s| us(s)).collect::<Vec<_>>()))
            .collect()
    }

    #[test]
    fn single_block_is_sum_of_stages() {
        let result = run(&uniform(1, &[10, 20, 30]));
        assert_eq!(result.total, us(60));
        assert_eq!(result.kernel_idle(), SimDuration::ZERO);
    }

    #[test]
    fn balanced_pipeline_overlaps() {
        // 4 blocks × 3 equal stages of 10 us: fill (2×10) + 4×10 drain.
        let result = run(&uniform(4, &[10, 10, 10]));
        assert_eq!(result.total, us(2 * 10 + 4 * 10));
        // A balanced pipeline never starves after fill.
        assert_eq!(result.kernel_idle(), SimDuration::ZERO);
    }

    #[test]
    fn io_bound_pipeline_starves_the_kernel() {
        // I/O takes 50 us, kernel 10 us: the kernel idles 40 us per block
        // after the first.
        let result = run(&uniform(4, &[50, 10]));
        assert_eq!(result.total, us(50 * 4 + 10));
        assert_eq!(result.kernel_idle(), us(40 * 3));
    }

    #[test]
    fn kernel_bound_pipeline_has_no_kernel_idle() {
        let result = run(&uniform(4, &[10, 50]));
        assert_eq!(result.total, us(10 + 50 * 4));
        assert_eq!(result.kernel_idle(), SimDuration::ZERO);
        // The I/O stage (stage 0) never idles either — it is always ahead.
        assert_eq!(result.stage_idle[0], SimDuration::ZERO);
    }

    #[test]
    fn busy_time_is_sum_of_durations() {
        let result = run(&uniform(3, &[5, 7]));
        assert_eq!(result.stage_busy[0], us(15));
        assert_eq!(result.stage_busy[1], us(21));
    }

    #[test]
    fn heterogeneous_blocks() {
        let blocks = vec![
            StageTimes::new([us(10), us(1)]),
            StageTimes::new([us(1), us(10)]),
            StageTimes::new([us(10), us(1)]),
        ];
        let result = run(&blocks);
        // Stage 0 finishes: 10, 11, 21. Stage 1: 10→11, 11→21, 21→22.
        assert_eq!(result.total, us(22));
    }

    #[test]
    fn faster_io_reduces_kernel_idle() {
        let slow = run(&uniform(8, &[50, 10]));
        let fast = run(&uniform(8, &[12, 10]));
        assert!(fast.kernel_idle() < slow.kernel_idle());
        assert!(fast.total < slow.total);
    }

    #[test]
    fn run_traced_matches_run_and_reports_every_interval() {
        let blocks = uniform(4, &[50, 10]);
        let plain = run(&blocks);
        let mut intervals = Vec::new();
        let traced = run_traced(&blocks, |stage, block, start, finish| {
            intervals.push((stage, block, start, finish));
        });
        assert_eq!(plain, traced, "tracing must not move the schedule");
        assert_eq!(intervals.len(), 4 * 2, "one interval per stage per block");
        // Intervals match the recurrence: busy time per stage sums up.
        for s in 0..2 {
            let busy: SimDuration = intervals
                .iter()
                .filter(|&&(stage, _, _, _)| stage == s)
                .map(|&(_, _, start, finish)| finish - start)
                .sum();
            assert_eq!(busy, traced.stage_busy[s]);
        }
    }

    #[test]
    fn run_journaled_matches_run_and_pairs_spans() {
        let blocks = uniform(3, &[50, 10]);
        let plain = run(&blocks);
        let mut journal = Journal::enabled(64);
        let traced = run_journaled(&blocks, &["io", "kernel"], &mut journal);
        assert_eq!(plain, traced, "journaling must not move the schedule");
        assert_eq!(
            journal.events().count(),
            3 * 2 * 2,
            "begin+end per stage per block"
        );
        let events: Vec<_> = journal.events().copied().collect();
        assert!(events.iter().all(|e| e.trace >= 1 && e.trace <= 3));
        assert!(events
            .iter()
            .any(|e| e.component == ComponentId::new("host.pipeline", 1)));
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_pipeline_rejected() {
        let _ = run(&[]);
    }

    #[test]
    #[should_panic(expected = "same stage count")]
    fn ragged_stages_rejected() {
        let blocks = vec![StageTimes::new([us(1)]), StageTimes::new([us(1), us(2)])];
        let _ = run(&blocks);
    }
}

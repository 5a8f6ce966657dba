//! Deterministic virtual-time weighted fair queuing (WFQ) in front of the
//! device's NVMe command stream.
//!
//! The multi-tenant traffic engine admits work from many tenants but the
//! device executes one command stream; [`WfqScheduler`] decides *whose*
//! command goes next. It implements self-clocked fair queuing (SCFQ): each
//! enqueued request is stamped with a virtual *finish tag*
//! `start + cost / weight`, where `start` is the later of the scheduler's
//! virtual clock and the flow's previous finish tag, and the request with
//! the smallest finish tag is served first. Ties break on the flow id and
//! then on arrival order, so the schedule is a pure function of the
//! enqueue/pop sequence — no wall clock, no hashing, no randomness.
//!
//! All tag arithmetic is integer-only (`u128`, with costs scaled by
//! [`COST_SCALE`] before the weight division) so the schedule is exactly
//! reproducible across platforms.
//!
//! # Example
//!
//! ```
//! use nds_interconnect::WfqScheduler;
//!
//! let mut wfq = WfqScheduler::new();
//! wfq.register(0, 1);
//! wfq.register(1, 3);
//! // Equal-cost requests: the weight-3 flow gets ~3 of every 4 slots.
//! for _ in 0..4 {
//!     wfq.enqueue(0, 4096, ()).unwrap();
//!     wfq.enqueue(1, 4096, ()).unwrap();
//! }
//! let order: Vec<u32> = std::iter::from_fn(|| wfq.pop().map(|(f, _)| f)).collect();
//! assert_eq!(order.iter().filter(|&&f| f == 1).take(3).count(), 3);
//! ```

// Rule D5 (DESIGN.md "Determinism contract"): a wrapped finish tag would
// silently reorder every later pop, so no operator here may overflow,
// wrap or divide by zero outside test code.
#![cfg_attr(not(test), deny(clippy::arithmetic_side_effects))]

use std::collections::BTreeMap;
use std::fmt;
use std::num::{NonZeroU128, NonZeroU64};

/// Fixed-point scale applied to costs before dividing by the flow weight,
/// so integer finish tags keep 2⁻²⁰ resolution per cost unit.
pub const COST_SCALE: u128 = 1 << 20;

/// Error from [`WfqScheduler::enqueue`]: the finish-tag arithmetic would
/// wrap the u128 virtual clock. With 64-bit costs and the 2²⁰ fixed-point
/// scale this needs ~2⁴⁴ maximal-cost enqueues on one flow, but wrapping
/// silently would reorder every later pop — so the condition is a typed
/// error, not a debug assertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WfqError {
    /// `start + cost·COST_SCALE/weight` exceeded `u128::MAX`, or the
    /// arrival counter that breaks finish-tag ties would wrap.
    FinishTagOverflow {
        /// The flow whose enqueue overflowed.
        flow: u32,
        /// The offending request cost.
        cost: u64,
    },
}

impl fmt::Display for WfqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WfqError::FinishTagOverflow { flow, cost } => write!(
                f,
                "wfq finish tag overflow: flow {flow} cost {cost} would wrap the virtual clock"
            ),
        }
    }
}

impl std::error::Error for WfqError {}

#[derive(Debug, Clone, PartialEq, Eq)]
struct FlowState {
    weight: NonZeroU64,
    last_finish: u128,
    queued: usize,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Pending<T> {
    flow: u32,
    payload: T,
}

/// A deterministic SCFQ scheduler over `u32` flow ids carrying payloads of
/// type `T` (the traffic engine queues tenant operations).
///
/// Flows are registered with an integer weight (`0` is treated as `1`);
/// unregistered flows are implicitly registered at weight 1 on first
/// enqueue. The scheduler is work-conserving by construction: `pop`
/// returns a request whenever any flow has one queued.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WfqScheduler<T> {
    flows: BTreeMap<u32, FlowState>,
    queue: BTreeMap<(u128, u32, u64), Pending<T>>,
    virtual_now: u128,
    seq: u64,
}

impl<T> Default for WfqScheduler<T> {
    fn default() -> Self {
        WfqScheduler::new()
    }
}

impl<T> WfqScheduler<T> {
    /// An empty scheduler with no flows.
    pub fn new() -> Self {
        WfqScheduler {
            flows: BTreeMap::new(),
            queue: BTreeMap::new(),
            virtual_now: 0,
            seq: 0,
        }
    }

    /// Registers `flow` with `weight` (a weight of 0 is clamped to 1).
    /// Re-registering an existing flow updates its weight for subsequent
    /// enqueues; already-queued requests keep their tags.
    pub fn register(&mut self, flow: u32, weight: u64) {
        let weight = NonZeroU64::new(weight).unwrap_or(NonZeroU64::MIN);
        self.flows
            .entry(flow)
            .and_modify(|f| f.weight = weight)
            .or_insert(FlowState {
                weight,
                last_finish: 0,
                queued: 0,
            });
    }

    /// The configured weight of `flow`, if registered.
    pub fn weight(&self, flow: u32) -> Option<u64> {
        self.flows.get(&flow).map(|f| f.weight.get())
    }

    /// Enqueues a request of `cost` units (bytes, for the traffic engine)
    /// on `flow`, carrying `payload`. A zero cost is treated as 1 so every
    /// request advances the flow's virtual clock.
    ///
    /// The finish tag `start + cost·COST_SCALE/weight` is computed with
    /// checked arithmetic: on u128 overflow the request is rejected with
    /// [`WfqError::FinishTagOverflow`] and the scheduler state is left
    /// exactly as it was (no flow registration, no clock movement).
    pub fn enqueue(&mut self, flow: u32, cost: u64, payload: T) -> Result<(), WfqError> {
        let (weight, last_finish) = self
            .flows
            .get(&flow)
            .map_or((NonZeroU64::MIN, 0), |f| (f.weight, f.last_finish));
        let start = last_finish.max(self.virtual_now);
        let overflow = WfqError::FinishTagOverflow { flow, cost };
        let scaled = u128::from(cost.max(1))
            .checked_mul(COST_SCALE)
            .ok_or(overflow)?;
        let finish = start
            .checked_add(scaled / NonZeroU128::from(weight))
            .ok_or(overflow)?;
        let next_seq = self.seq.checked_add(1).ok_or(overflow)?;
        let state = self.flows.entry(flow).or_insert(FlowState {
            weight: NonZeroU64::MIN,
            last_finish: 0,
            queued: 0,
        });
        state.last_finish = finish;
        state.queued = state.queued.saturating_add(1);
        self.queue
            .insert((finish, flow, self.seq), Pending { flow, payload });
        self.seq = next_seq;
        Ok(())
    }

    /// Advances the virtual clock to `to` without serving anything (the
    /// clock never moves backward). This is the checkpoint-restore hook:
    /// a rebuilt scheduler can resume at a saved virtual time, and the
    /// overflow regression tests use it to place the clock near the u128
    /// boundary without ~2⁴⁴ warm-up enqueues.
    pub fn fast_forward(&mut self, to: u128) {
        self.virtual_now = self.virtual_now.max(to);
    }

    /// Dequeues the request with the smallest `(finish tag, flow id,
    /// arrival order)` key and advances the virtual clock to its finish
    /// tag. Returns `None` when no requests are queued.
    pub fn pop(&mut self) -> Option<(u32, T)> {
        let (key, pending) = self.queue.pop_first()?;
        self.virtual_now = self.virtual_now.max(key.0);
        if let Some(state) = self.flows.get_mut(&pending.flow) {
            state.queued = state.queued.saturating_sub(1);
        }
        Some((pending.flow, pending.payload))
    }

    /// Number of requests queued on `flow`.
    pub fn queued(&self, flow: u32) -> usize {
        self.flows.get(&flow).map_or(0, |f| f.queued)
    }

    /// The scheduler's current virtual time (monotone across pops).
    pub fn virtual_now(&self) -> u128 {
        self.virtual_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(wfq: &mut WfqScheduler<u64>) -> Vec<u32> {
        std::iter::from_fn(|| wfq.pop().map(|(f, _)| f)).collect()
    }

    #[test]
    fn equal_weights_interleave_round_robin() {
        let mut wfq = WfqScheduler::new();
        wfq.register(0, 1);
        wfq.register(1, 1);
        for i in 0..3 {
            wfq.enqueue(0, 100, i).unwrap();
            wfq.enqueue(1, 100, i).unwrap();
        }
        assert_eq!(drain(&mut wfq), vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn weights_shape_service_share() {
        let mut wfq = WfqScheduler::new();
        wfq.register(0, 1);
        wfq.register(1, 3);
        for i in 0..12 {
            wfq.enqueue(0, 4096, i).unwrap();
            wfq.enqueue(1, 4096, i).unwrap();
        }
        // In the first 8 pops, flow 1 (weight 3) should get ~6 slots.
        let order = drain(&mut wfq);
        let head = &order[..8];
        let f1 = head.iter().filter(|&&f| f == 1).count();
        assert!(f1 >= 5, "weight-3 flow got only {f1}/8 early slots");
        // Everything completes (no starvation at the scheduler level).
        assert_eq!(order.len(), 24);
        assert_eq!(order.iter().filter(|&&f| f == 0).count(), 12);
    }

    #[test]
    fn ties_break_on_flow_id_then_seq() {
        let mut wfq = WfqScheduler::new();
        wfq.register(2, 1);
        wfq.register(1, 1);
        wfq.enqueue(2, 64, 0u64).unwrap();
        wfq.enqueue(1, 64, 1u64).unwrap();
        // Same cost, same weight, same start → same finish tag; the lower
        // flow id wins.
        assert_eq!(wfq.pop(), Some((1, 1)));
        assert_eq!(wfq.pop(), Some((2, 0)));
    }

    #[test]
    fn idle_flow_resyncs_to_virtual_now() {
        let mut wfq = WfqScheduler::new();
        wfq.register(0, 1);
        wfq.register(1, 1);
        for i in 0..8 {
            wfq.enqueue(0, 1 << 16, i).unwrap();
        }
        for _ in 0..8 {
            wfq.pop();
        }
        // Flow 1 was idle throughout; SCFQ starts it at the current virtual
        // time, so it owes no debt for service it never requested — its
        // finish tag ties flow 0's and the pair alternates from here.
        wfq.enqueue(1, 1 << 16, 100).unwrap();
        wfq.enqueue(0, 1 << 16, 101).unwrap();
        wfq.enqueue(1, 1 << 16, 102).unwrap();
        wfq.enqueue(0, 1 << 16, 103).unwrap();
        assert_eq!(drain(&mut wfq), vec![0, 1, 0, 1]);
    }

    #[test]
    fn zero_cost_and_unregistered_flow_are_safe() {
        let mut wfq: WfqScheduler<()> = WfqScheduler::new();
        wfq.enqueue(7, 0, ()).unwrap();
        assert_eq!(wfq.queued(7), 1);
        assert_eq!(wfq.weight(7), Some(1));
        assert_eq!(wfq.pop(), Some((7, ())));
        assert_eq!(wfq.queued(7), 0);
        assert!(wfq.virtual_now() > 0, "zero cost still advances the clock");
    }

    #[test]
    fn finish_tag_overflow_is_a_typed_error() {
        let mut wfq: WfqScheduler<()> = WfqScheduler::new();
        wfq.register(9, 1);
        // Park the virtual clock one COST_SCALE below the boundary: a
        // minimal request still fits exactly, a maximal one cannot.
        wfq.fast_forward(u128::MAX - COST_SCALE);
        let err = wfq.enqueue(9, u64::MAX, ()).unwrap_err();
        assert_eq!(
            err,
            WfqError::FinishTagOverflow {
                flow: 9,
                cost: u64::MAX
            }
        );
        assert!(!err.to_string().is_empty());
        // The failed enqueue left no residue: nothing queued, the flow's
        // tag untouched, and a small request still succeeds afterwards.
        assert_eq!(wfq.pop(), None);
        assert_eq!(wfq.queued(9), 0);
        wfq.enqueue(9, 1, ()).unwrap();
        assert_eq!(wfq.pop(), Some((9, ())));
        assert_eq!(wfq.virtual_now(), u128::MAX);
        // At the ceiling, even a minimal request overflows.
        assert!(wfq.enqueue(9, 1, ()).is_err());
    }

    #[test]
    fn extreme_weight_and_cost_stay_exact() {
        // weight u64::MAX with maximal cost: scaled fits u128 (2⁶⁴·2²⁰)
        // and the division keeps the tag small — no precision cliff.
        let mut wfq: WfqScheduler<u8> = WfqScheduler::new();
        wfq.register(0, u64::MAX);
        wfq.register(1, 1);
        wfq.enqueue(0, u64::MAX, 0).unwrap();
        wfq.enqueue(1, u64::MAX, 1).unwrap();
        // The max-weight flow's finish tag is ~2²⁰, the weight-1 flow's is
        // ~2⁸⁴: the heavy flow pops first.
        assert_eq!(wfq.pop(), Some((0, 0)));
        assert_eq!(wfq.pop(), Some((1, 1)));
    }

    #[test]
    fn failed_enqueue_does_not_register_the_flow() {
        let mut wfq: WfqScheduler<()> = WfqScheduler::new();
        wfq.fast_forward(u128::MAX);
        assert!(wfq.enqueue(3, 1, ()).is_err());
        assert_eq!(wfq.weight(3), None);
    }

    #[test]
    fn same_sequence_same_schedule() {
        let build = || {
            let mut wfq = WfqScheduler::new();
            wfq.register(0, 2);
            wfq.register(1, 5);
            wfq.register(2, 1);
            for i in 0..30u64 {
                wfq.enqueue((i % 3) as u32, 1000 + i * 37, i).unwrap();
            }
            let mut order = Vec::new();
            while let Some(item) = wfq.pop() {
                order.push(item);
            }
            order
        };
        assert_eq!(build(), build());
    }
}

//! Property tests of the WFQ admission scheduler: the fairness and
//! ordering guarantees the multi-tenant traffic engine relies on, checked
//! against randomized flow populations and enqueue sequences.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use nds_interconnect::WfqScheduler;

/// A randomized backlogged scenario: per-flow weights and a shared
/// request cost range.
#[derive(Debug, Clone)]
struct Backlog {
    weights: Vec<u64>,
    cost: u64,
    rounds: usize,
}

fn backlog() -> impl Strategy<Value = Backlog> {
    (
        prop::collection::vec(1u64..8, 2..6),
        64u64..8192,
        8usize..40,
    )
        .prop_map(|(weights, cost, rounds)| Backlog {
            weights,
            cost,
            rounds,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Work conservation: as long as anything is queued, `pop` serves it;
    /// the scheduler never "idles" a backlogged queue, and everything
    /// enqueued eventually drains in full.
    #[test]
    fn backlogged_queue_always_serves(b in backlog()) {
        let mut wfq = WfqScheduler::new();
        for (f, &w) in b.weights.iter().enumerate() {
            wfq.register(f as u32, w);
        }
        let mut enqueued = 0u64;
        for r in 0..b.rounds {
            for f in 0..b.weights.len() as u32 {
                wfq.enqueue(f, b.cost, (r, f)).unwrap();
                enqueued += 1;
            }
            // Interleave partial drains: the queue must always yield.
            if r % 2 == 0 {
                prop_assert!(wfq.pop().is_some(), "backlogged pop returned None");
                enqueued -= 1;
            }
        }
        let mut drained = 0u64;
        while wfq.pop().is_some() {
            drained += 1;
        }
        prop_assert_eq!(drained, enqueued, "requests lost or duplicated");
        for f in 0..b.weights.len() as u32 {
            prop_assert_eq!(wfq.queued(f), 0, "flow {} still queued", f);
        }
    }

    /// Determinism: the same enqueue sequence pops in the same order, and
    /// the order is a pure function of (finish tag, flow, seq) — repeated
    /// runs agree element-for-element.
    #[test]
    fn schedule_is_reproducible(b in backlog()) {
        let run = || {
            let mut wfq = WfqScheduler::new();
            for (f, &w) in b.weights.iter().enumerate() {
                wfq.register(f as u32, w);
            }
            for r in 0..b.rounds {
                for f in 0..b.weights.len() as u32 {
                    wfq.enqueue(f, b.cost + (r as u64 % 3), (r, f)).unwrap();
                }
            }
            std::iter::from_fn(|| wfq.pop()).collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Weighted sharing: with every flow continuously backlogged on
    /// equal-cost requests, each flow's share of the first `K` service
    /// slots tracks its weight share within one request per flow (the
    /// SCFQ per-flow lag bound).
    #[test]
    fn service_shares_track_weights(b in backlog()) {
        let mut wfq = WfqScheduler::new();
        let weight_sum: u64 = b.weights.iter().sum();
        for (f, &w) in b.weights.iter().enumerate() {
            wfq.register(f as u32, w);
        }
        // Enough backlog that no flow runs dry inside the observation
        // window: `rounds` requests per unit of weight.
        for r in 0..b.rounds as u64 {
            for (f, &w) in b.weights.iter().enumerate() {
                for _ in 0..w {
                    wfq.enqueue(f as u32, b.cost, r).unwrap();
                }
            }
        }
        let window = weight_sum * b.rounds as u64 / 2;
        let mut served = vec![0u64; b.weights.len()];
        for _ in 0..window {
            let (f, _) = wfq.pop().expect("backlogged");
            served[f as usize] += 1;
        }
        for (f, &w) in b.weights.iter().enumerate() {
            let expected = window * w / weight_sum;
            let got = served[f];
            let slack = 1 + w; // SCFQ lag: ≤ one request per weight unit
            prop_assert!(
                got + slack >= expected && got <= expected + slack,
                "flow {f} (weight {w}): served {got}, expected ~{expected} of {window}"
            );
        }
    }

    /// Re-registration mid-run: changing a flow's weight applies to
    /// *subsequent* enqueues only. Already-queued requests keep their
    /// finish tags, so a scheduler re-registered between enqueue and drain
    /// pops in exactly the order of an untouched clone.
    #[test]
    fn reregistration_leaves_queued_tags_alone(
        b in backlog(),
        target in 0usize..6,
        new_weight in 1u64..512,
    ) {
        let mut wfq = WfqScheduler::new();
        for (f, &w) in b.weights.iter().enumerate() {
            wfq.register(f as u32, w);
        }
        for r in 0..b.rounds {
            for f in 0..b.weights.len() as u32 {
                wfq.enqueue(f, b.cost + r as u64, (r, f)).unwrap();
            }
        }
        let mut untouched = wfq.clone();
        let target = (target % b.weights.len()) as u32;
        wfq.register(target, new_weight);
        prop_assert_eq!(wfq.weight(target), Some(new_weight.max(1)));
        let a = std::iter::from_fn(|| wfq.pop()).collect::<Vec<_>>();
        let b = std::iter::from_fn(|| untouched.pop()).collect::<Vec<_>>();
        prop_assert_eq!(a, b, "re-registration retagged queued requests");
    }

    /// Re-registration mid-run keeps the flow's `last_finish`: a weight
    /// change is not a debt reset. While a flow is backlogged, its next
    /// enqueue must start at its previous finish tag, so per-flow FIFO
    /// order survives an arbitrary weight change — even one that makes the
    /// new request's own service interval tiny. The scheduler's virtual
    /// time is monotone throughout.
    #[test]
    fn reregistration_keeps_last_finish_and_fifo(
        b in backlog(),
        reweights in prop::collection::vec((0usize..6, 1u64..1024), 1..8),
    ) {
        let mut wfq = WfqScheduler::new();
        let flows = b.weights.len();
        for (f, &w) in b.weights.iter().enumerate() {
            wfq.register(f as u32, w);
        }
        // Build a backlog, re-registering flows between rounds so weight
        // changes land while earlier requests are still queued.
        let mut per_flow_seq = vec![0u64; flows];
        let mut enqueued = 0u64;
        for (r, &(t, w)) in reweights.iter().enumerate() {
            for f in 0..flows as u32 {
                wfq.enqueue(f, b.cost, (f, per_flow_seq[f as usize])).unwrap();
                per_flow_seq[f as usize] += 1;
                enqueued += 1;
            }
            wfq.register((t % flows) as u32, w);
            // A request enqueued immediately after the weight change must
            // still start at the flow's last finish tag, never earlier.
            let f = ((t + r) % flows) as u32;
            wfq.enqueue(f, b.cost, (f, per_flow_seq[f as usize])).unwrap();
            per_flow_seq[f as usize] += 1;
            enqueued += 1;
        }
        // Drain: virtual time monotone, per-flow payloads strictly FIFO,
        // nothing lost.
        let mut last_vt = wfq.virtual_now();
        let mut next_expected = vec![0u64; flows];
        let mut drained = 0u64;
        while let Some((f, (pf, seq))) = wfq.pop() {
            prop_assert_eq!(f, pf);
            prop_assert!(
                wfq.virtual_now() >= last_vt,
                "virtual time moved backward across a pop"
            );
            last_vt = wfq.virtual_now();
            prop_assert_eq!(
                seq, next_expected[f as usize],
                "flow {} served out of FIFO order after a weight change", f
            );
            next_expected[f as usize] += 1;
            drained += 1;
        }
        prop_assert_eq!(drained, enqueued);
    }

    /// A flow re-registered to a huge weight while backlogged cannot jump
    /// the queue: its *next* request still starts behind its own backlog
    /// (`last_finish` kept), so an idle competitor enqueued at the current
    /// virtual time is served first.
    #[test]
    fn upweighted_backlog_does_not_preempt_idle_flow(
        backlog_len in 2usize..24,
        cost in 64u64..4096,
        boost in 8u64..u64::MAX,
    ) {
        let mut wfq = WfqScheduler::new();
        wfq.register(0, 1);
        wfq.register(1, 1);
        for i in 0..backlog_len {
            wfq.enqueue(0, cost, i).unwrap();
        }
        // Mid-run weight change on the backlogged flow, then one more
        // request on it and one on the idle flow.
        wfq.register(0, boost);
        wfq.enqueue(0, cost, backlog_len).unwrap();
        wfq.enqueue(1, cost, usize::MAX).unwrap();
        let order = std::iter::from_fn(|| wfq.pop()).collect::<Vec<_>>();
        let pos_new = order.iter().position(|&(f, p)| f == 0 && p == backlog_len).unwrap();
        let pos_idle = order.iter().position(|&(f, _)| f == 1).unwrap();
        prop_assert!(
            pos_idle < pos_new,
            "boosted flow's new request (pos {pos_new}) preempted the idle \
             flow (pos {pos_idle}): last_finish was not preserved"
        );
        // And FIFO within the boosted flow still holds.
        let flow0: Vec<usize> = order.iter().filter(|&&(f, _)| f == 0).map(|&(_, p)| p).collect();
        prop_assert_eq!(flow0, (0..=backlog_len).collect::<Vec<_>>());
    }

    /// No starvation: even a weight-1 flow against arbitrarily heavy
    /// competitors is served within one full round of the others' backlog.
    #[test]
    fn light_flow_is_not_starved(heavy in 1u64..64, backlog_len in 1usize..32) {
        let mut wfq = WfqScheduler::new();
        wfq.register(0, 1);
        wfq.register(1, heavy);
        for i in 0..backlog_len {
            wfq.enqueue(1, 4096, i).unwrap();
        }
        wfq.enqueue(0, 4096, usize::MAX).unwrap();
        let position = std::iter::from_fn(|| wfq.pop())
            .position(|(f, _)| f == 0)
            .expect("light flow served");
        // Finish tag of the light request is bounded by one cost unit,
        // so at most `heavy` of the competitor's requests precede it.
        prop_assert!(
            position as u64 <= heavy,
            "light flow served at position {position}, weight ratio {heavy}"
        );
    }
}

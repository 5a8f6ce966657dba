//! Seeded, deterministic fault plans for the NDS reproduction.
//!
//! The simulator's reliability story (ISSUE 2) needs faults that are
//! *reproducible* — the same `u64` seed must inject the same faults into the
//! same logical events on every run and on every architecture — and
//! *monotone* — raising the fault rate must only ever add faults, never move
//! or remove the ones a lower rate already injected. Both properties fall
//! out of how [`FaultPlan`] decides:
//!
//! * Every fault site (flash page read, flash page program, link command)
//!   draws from a per-kind **logical event counter**. The decision for event
//!   `n` is a pure hash of `(seed, kind, n)` — no shared RNG stream, so the
//!   flash and link decisions cannot perturb each other.
//! * A fault fires when the hashed uniform deviate falls below the
//!   configured rate. Because the deviate for event `n` is the same at every
//!   rate, the fault sets are **nested** across rates: `rate₁ ≤ rate₂`
//!   implies `faults(rate₁) ⊆ faults(rate₂)`. That is what makes modeled
//!   time monotonically non-decreasing in the fault rate.
//! * Severity (how many retries an event needs) hashes the same counter with
//!   a different salt, so it is also stable across rates.
//!
//! Recovery (retries, remaps, backoff) never consumes plan draws — the plan
//! describes *what the media and link do*, not what the host does about it —
//! so event counters stay aligned between a faulty run and its golden run.
//!
//! # Example
//!
//! ```
//! use nds_faults::{FaultConfig, FaultPlan, MediaReadFault};
//!
//! let mut a = FaultPlan::new(FaultConfig::with_rate(7, 0.5));
//! let mut b = FaultPlan::new(FaultConfig::with_rate(7, 0.5));
//! for _ in 0..64 {
//!     assert_eq!(a.next_read_fault(), b.next_read_fault());
//! }
//! let mut off = FaultPlan::new(FaultConfig::disabled());
//! assert_eq!(off.next_read_fault(), MediaReadFault::None);
//! ```

#![warn(missing_docs)]
// The determinism contract's rules D1 and D3 (DESIGN.md "Determinism contract";
// the banned paths are in `clippy.toml`) hold outside test code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![forbid(unsafe_code)]

use nds_sim::{splitmix64, SimDuration};
use serde::{Deserialize, Serialize};

/// The largest number of retries a single injected fault can demand.
///
/// Keeping severity at or below the default retry budgets means a default
/// configuration always recovers; budget-exhaustion paths are exercised by
/// explicitly shrinking the budget below `MAX_SEVERITY`.
pub const MAX_SEVERITY: u32 = 4;

/// Tunable knobs of a deterministic fault plan.
///
/// Rates are per *logical event*: one draw per flash page read, one per
/// flash page program, one per link command. All decisions derive from
/// `seed`, so two configs with equal fields produce identical fault
/// sequences.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Seed every fault decision derives from.
    pub seed: u64,
    /// Probability a page read needs ECC retries.
    pub media_read_rate: f64,
    /// Probability a page program fails permanently (block goes bad).
    pub media_program_rate: f64,
    /// Probability a link command times out or loses its completion.
    pub link_fault_rate: f64,
    /// Read retries the flash path may spend before giving up.
    pub read_retry_budget: u32,
    /// Retransmissions the host queue may spend before giving up.
    pub link_retry_budget: u32,
    /// First retransmission backoff; doubles on each further retry.
    pub link_backoff: SimDuration,
    /// Array reads a block tolerates before preventive migration
    /// (0 disables read-disturb tracking).
    pub read_disturb_limit: u64,
}

impl FaultConfig {
    /// A plan that never injects anything (rates zero, disturb off).
    pub fn disabled() -> Self {
        FaultConfig {
            seed: 0,
            media_read_rate: 0.0,
            media_program_rate: 0.0,
            link_fault_rate: 0.0,
            read_retry_budget: MAX_SEVERITY,
            link_retry_budget: MAX_SEVERITY,
            link_backoff: SimDuration::from_micros(2),
            read_disturb_limit: 0,
        }
    }

    /// A proportioned plan at overall intensity `rate`: page reads fault at
    /// `rate`, programs at `rate / 4` (permanent faults are rarer than
    /// transient ones), link commands at `rate / 2`. Read-disturb stays off
    /// so fault counts scale purely with `rate`.
    pub fn with_rate(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            media_read_rate: rate,
            media_program_rate: rate / 4.0,
            link_fault_rate: rate / 2.0,
            ..FaultConfig::disabled()
        }
    }

    /// True if this config can ever inject a fault or queue a migration.
    pub fn is_active(&self) -> bool {
        self.media_read_rate > 0.0
            || self.media_program_rate > 0.0
            || self.link_fault_rate > 0.0
            || self.read_disturb_limit > 0
    }
}

/// What the media does to one page read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaReadFault {
    /// The read succeeds first try.
    None,
    /// ECC fails; the page needs `retries` extra array reads
    /// (1..=[`MAX_SEVERITY`]) before the data comes back clean.
    Transient {
        /// Extra array reads required.
        retries: u32,
    },
}

/// What the link does to one command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The command completes normally.
    None,
    /// The command times out `failures` times (1..=[`MAX_SEVERITY`]) before
    /// a retransmission succeeds.
    Timeout {
        /// Failed attempts before success.
        failures: u32,
    },
    /// The completion is dropped `failures` times (1..=[`MAX_SEVERITY`]);
    /// the host notices via timeout and retransmits.
    DroppedCompletion {
        /// Failed attempts before success.
        failures: u32,
    },
}

/// A deterministic stream of fault decisions.
///
/// The plan holds one logical event counter per fault kind; each `next_*`
/// call advances its counter and returns the (pure-function-of-seed)
/// decision for that event. See the crate docs for the determinism and
/// nesting guarantees.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    config: FaultConfig,
    reads: u64,
    programs: u64,
    links: u64,
}

/// Domain-separation salts: one per fault kind, one extra per kind for
/// severity so occurrence and severity are independent deviates.
const SALT_READ: u64 = 0x52454144_5f454343; // "READ_ECC"
const SALT_PROGRAM: u64 = 0x50524f47_5f424144; // "PROG_BAD"
const SALT_LINK: u64 = 0x4c494e4b_5f544f00; // "LINK_TO"
const SALT_SEVERITY: u64 = 0x53455645_52495459; // "SEVERITY"

/// The uniform deviate in `[0, 1)` for event `n` of kind `salt`.
fn u01(seed: u64, salt: u64, n: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(salt ^ splitmix64(n)));
    // 53 high bits → exactly representable in f64.
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Severity for event `n` of kind `salt`, in `1..=MAX_SEVERITY`.
fn severity(seed: u64, salt: u64, n: u64) -> u32 {
    let h = splitmix64(seed ^ splitmix64(salt ^ SALT_SEVERITY ^ splitmix64(n)));
    1 + (h % MAX_SEVERITY as u64) as u32
}

impl FaultPlan {
    /// Creates a plan from its configuration.
    pub fn new(config: FaultConfig) -> Self {
        FaultPlan {
            config,
            reads: 0,
            programs: 0,
            links: 0,
        }
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// The decision for the next flash page read.
    pub fn next_read_fault(&mut self) -> MediaReadFault {
        let n = self.reads;
        self.reads += 1;
        if u01(self.config.seed, SALT_READ, n) < self.config.media_read_rate {
            MediaReadFault::Transient {
                retries: severity(self.config.seed, SALT_READ, n),
            }
        } else {
            MediaReadFault::None
        }
    }

    /// The decision for the next flash page program: `true` means the
    /// program fails permanently and the block must be retired.
    pub fn next_program_fault(&mut self) -> bool {
        let n = self.programs;
        self.programs += 1;
        u01(self.config.seed, SALT_PROGRAM, n) < self.config.media_program_rate
    }

    /// The decision for the next link command.
    pub fn next_link_fault(&mut self) -> LinkFault {
        let n = self.links;
        self.links += 1;
        let deviate = u01(self.config.seed, SALT_LINK, n);
        if deviate >= self.config.link_fault_rate {
            return LinkFault::None;
        }
        let failures = severity(self.config.seed, SALT_LINK, n);
        // The failure mode hashes its own bit so the same event keeps the
        // same mode at every rate; both modes recover identically, so the
        // split is cosmetic but must be rate-stable for nesting.
        let mode = splitmix64(SALT_LINK.rotate_left(17) ^ splitmix64(n));
        if splitmix64(self.config.seed ^ mode) & 1 == 0 {
            LinkFault::Timeout { failures }
        } else {
            LinkFault::DroppedCompletion { failures }
        }
    }
}

/// What a device-scope cluster fault event does (ISSUE 9).
///
/// Unlike the per-event media/link faults above, these are *scheduled*
/// events: a cluster run carries an explicit, ordered plan of whole-device
/// failures, so the differential harness can compare a fault-injected run
/// against a golden run op for op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeviceFaultKind {
    /// The device fails permanently: every replica it held is lost and
    /// must be re-replicated onto surviving capacity.
    Kill,
    /// The device's host link goes down: the device is unreachable but its
    /// contents survive. Writes during the outage leave its replicas stale.
    LinkDown,
    /// The device's host link comes back up; stale replicas must resync
    /// before the device serves reads again.
    LinkRestore,
}

impl DeviceFaultKind {
    /// Stable lower-case name used in journals and reports.
    pub const fn name(self) -> &'static str {
        match self {
            DeviceFaultKind::Kill => "kill",
            DeviceFaultKind::LinkDown => "link_down",
            DeviceFaultKind::LinkRestore => "link_restore",
        }
    }
}

/// One device-scope fault event. The cluster applies every event whose
/// `at_op` is at or below the front-end operation counter *before* serving
/// that operation, in plan order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceFault {
    /// 0-based front-end operation index the event fires before.
    pub at_op: u64,
    /// Target device (cluster device index).
    pub device: u32,
    /// What happens to it.
    pub kind: DeviceFaultKind,
}

/// A deterministic schedule of device-scope fault events for a cluster run.
///
/// Events are kept sorted by `at_op` (stably, so same-op events retain the
/// author's order — a `LinkDown` written before a `LinkRestore` at the same
/// op applies first). The empty plan is the golden run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ClusterFaultPlan {
    events: Vec<DeviceFault>,
}

impl ClusterFaultPlan {
    /// Builds a plan from `events`, sorting them stably by `at_op`.
    pub fn new(mut events: Vec<DeviceFault>) -> Self {
        events.sort_by_key(|e| e.at_op);
        ClusterFaultPlan { events }
    }

    /// A convenience plan that kills `device` before op `at_op`.
    pub fn kill_at(at_op: u64, device: u32) -> Self {
        ClusterFaultPlan::new(vec![DeviceFault {
            at_op,
            device,
            kind: DeviceFaultKind::Kill,
        }])
    }

    /// The sorted event schedule.
    pub fn events(&self) -> &[DeviceFault] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_decisions(seed: u64, rate: f64, n: usize) -> Vec<MediaReadFault> {
        let mut plan = FaultPlan::new(FaultConfig::with_rate(seed, rate));
        (0..n).map(|_| plan.next_read_fault()).collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        for seed in [0u64, 1, 42, u64::MAX] {
            assert_eq!(
                read_decisions(seed, 0.3, 256),
                read_decisions(seed, 0.3, 256)
            );
            let mut a = FaultPlan::new(FaultConfig::with_rate(seed, 0.3));
            let mut b = FaultPlan::new(FaultConfig::with_rate(seed, 0.3));
            for _ in 0..256 {
                assert_eq!(a.next_link_fault(), b.next_link_fault());
                assert_eq!(a.next_program_fault(), b.next_program_fault());
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(read_decisions(1, 0.3, 256), read_decisions(2, 0.3, 256));
    }

    #[test]
    fn zero_rate_is_silent() {
        let mut plan = FaultPlan::new(FaultConfig::with_rate(9, 0.0));
        for _ in 0..1024 {
            assert_eq!(plan.next_read_fault(), MediaReadFault::None);
            assert!(!plan.next_program_fault());
            assert_eq!(plan.next_link_fault(), LinkFault::None);
        }
        assert!(!FaultConfig::disabled().is_active());
        assert!(FaultConfig::with_rate(9, 0.1).is_active());
    }

    /// The property monotone modeled time rests on: a fault injected at a
    /// lower rate is injected — with identical severity — at every higher
    /// rate, for every fault kind.
    #[test]
    fn fault_sets_nest_across_rates() {
        let rates = [0.01, 0.05, 0.2, 0.7];
        for seed in [3u64, 17, 999] {
            for w in rates.windows(2) {
                let (lo, hi) = (w[0], w[1]);
                let lo_reads = read_decisions(seed, lo, 512);
                let hi_reads = read_decisions(seed, hi, 512);
                for (l, h) in lo_reads.iter().zip(&hi_reads) {
                    if *l != MediaReadFault::None {
                        assert_eq!(l, h, "read fault lost or changed when rate rose");
                    }
                }
                let mut lo_plan = FaultPlan::new(FaultConfig::with_rate(seed, lo));
                let mut hi_plan = FaultPlan::new(FaultConfig::with_rate(seed, hi));
                for _ in 0..512 {
                    let (l, h) = (lo_plan.next_link_fault(), hi_plan.next_link_fault());
                    if l != LinkFault::None {
                        assert_eq!(l, h, "link fault lost or changed when rate rose");
                    }
                    if lo_plan.next_program_fault() {
                        assert!(hi_plan.next_program_fault());
                    } else {
                        hi_plan.next_program_fault();
                    }
                }
            }
        }
    }

    #[test]
    fn severity_stays_in_bounds_and_rate_one_always_faults() {
        let mut plan = FaultPlan::new(FaultConfig {
            seed: 5,
            media_read_rate: 1.0,
            media_program_rate: 1.0,
            link_fault_rate: 1.0,
            ..FaultConfig::disabled()
        });
        let mut saw_timeout = false;
        let mut saw_drop = false;
        for _ in 0..512 {
            match plan.next_read_fault() {
                MediaReadFault::Transient { retries } => {
                    assert!((1..=MAX_SEVERITY).contains(&retries));
                }
                MediaReadFault::None => panic!("rate 1.0 must always fault"),
            }
            match plan.next_link_fault() {
                LinkFault::Timeout { failures } => {
                    saw_timeout = true;
                    assert!((1..=MAX_SEVERITY).contains(&failures));
                }
                LinkFault::DroppedCompletion { failures } => {
                    saw_drop = true;
                    assert!((1..=MAX_SEVERITY).contains(&failures));
                }
                LinkFault::None => panic!("rate 1.0 must always fault"),
            }
        }
        assert!(saw_timeout && saw_drop, "both link failure modes occur");
    }

    #[test]
    fn cluster_plan_sorts_stably_by_op() {
        let plan = ClusterFaultPlan::new(vec![
            DeviceFault {
                at_op: 9,
                device: 2,
                kind: DeviceFaultKind::LinkDown,
            },
            DeviceFault {
                at_op: 3,
                device: 1,
                kind: DeviceFaultKind::Kill,
            },
            DeviceFault {
                at_op: 9,
                device: 2,
                kind: DeviceFaultKind::LinkRestore,
            },
        ]);
        assert_eq!(plan.events().len(), 3);
        assert_eq!(plan.events()[0].at_op, 3);
        // Same-op events keep author order: down before restore.
        assert_eq!(plan.events()[1].kind, DeviceFaultKind::LinkDown);
        assert_eq!(plan.events()[2].kind, DeviceFaultKind::LinkRestore);
        assert!(ClusterFaultPlan::default().events().is_empty());
        let kill = ClusterFaultPlan::kill_at(5, 0);
        assert_eq!(kill.events()[0].kind, DeviceFaultKind::Kill);
        assert_eq!(DeviceFaultKind::Kill.name(), "kill");
    }

    #[test]
    fn kinds_draw_from_independent_streams() {
        // Consuming read draws must not shift program or link decisions.
        let mut interleaved = FaultPlan::new(FaultConfig::with_rate(11, 0.4));
        let mut alone = FaultPlan::new(FaultConfig::with_rate(11, 0.4));
        let mut interleaved_links = Vec::new();
        for _ in 0..128 {
            let _ = interleaved.next_read_fault();
            let _ = interleaved.next_program_fault();
            interleaved_links.push(interleaved.next_link_fault());
        }
        let alone_links: Vec<_> = (0..128).map(|_| alone.next_link_fault()).collect();
        assert_eq!(interleaved_links, alone_links);
    }
}

//! The interconnect bandwidth model.

use core::fmt;

use nds_faults::{FaultConfig, FaultPlan, LinkFault};
use nds_sim::{
    ComponentId, EventKind, ObsConfig, Observability, Resource, SeriesSnapshot, SimDuration,
    SimTime, Stats, Throughput, TraceContext,
};
use serde::{Deserialize, Serialize};

/// Journal identity of the link singleton.
const LINK_COMPONENT: ComponentId = ComponentId::singleton("link");

/// Errors raised by the fault-aware link path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LinkError {
    /// A command kept timing out (or losing its completion) after the host
    /// queue spent its whole retransmission budget.
    RetriesExhausted {
        /// Payload size of the abandoned command.
        bytes: u64,
        /// Transmission attempts made (original + retries).
        attempts: u32,
    },
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::RetriesExhausted { bytes, attempts } => write!(
                f,
                "link command of {bytes} bytes abandoned after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for LinkError {}

/// Parameters of a host↔device link.
///
/// The model charges every transfer a fixed `per_command` overhead (command
/// submission, doorbell, DMA setup, completion) plus `bytes / peak` of wire
/// time. Effective bandwidth is therefore
/// `peak × bytes / (bytes + peak × per_command)` — the classic
/// request-size-amortization curve behind the paper's \[P2\].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Peak wire bandwidth.
    pub peak: Throughput,
    /// Fixed per-command/transaction overhead.
    pub per_command: SimDuration,
}

impl LinkConfig {
    /// The paper's NVMe-over-Fabrics path: a Mellanox 40 Gbps NIC over
    /// PCIe 3.0 ×8 (§6.1). Peak ≈ 4.7 GiB/s; the 3.4 µs per-command overhead
    /// is fitted so a 32 KB request achieves ≈66% of peak and a 2 MB request
    /// ≈99% — the two points §2.1 \[P2\] reports.
    pub fn nvmeof_40g() -> Self {
        LinkConfig {
            peak: Throughput::mib_per_sec(4800),
            per_command: SimDuration::nanos::<3_400>(),
        }
    }

    /// A PCIe 3.0 ×16 host↔GPU path (H2D copies), ≈12 GiB/s with a smaller
    /// per-transfer cost.
    pub fn pcie3_x16() -> Self {
        LinkConfig {
            peak: Throughput::mib_per_sec(12_000),
            per_command: SimDuration::nanos::<1_500>(),
        }
    }
}

/// A serially-occupied host↔device link with per-command overhead.
///
/// # Example
///
/// ```
/// use nds_interconnect::{Link, LinkConfig};
/// use nds_sim::SimTime;
///
/// let mut link = Link::new(LinkConfig::nvmeof_40g());
/// let t1 = link.transfer(2 * 1024 * 1024, SimTime::ZERO);
/// let t2 = link.transfer(2 * 1024 * 1024, SimTime::ZERO); // queues behind t1
/// assert!(t2 > t1);
/// assert_eq!(link.stats().get("link.commands"), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    config: LinkConfig,
    wire: Resource,
    stats: Stats,
    faults: Option<FaultPlan>,
    obs: Observability,
}

impl Link {
    /// Creates an idle link.
    pub fn new(config: LinkConfig) -> Self {
        Link {
            config,
            wire: Resource::new("link"),
            stats: Stats::new(),
            faults: None,
            obs: Observability::disabled(),
        }
    }

    /// Applies an observability configuration: journal + histograms on the
    /// link, and (when it is collecting) busy-time sampling on the wire.
    /// Hooks stay one-branch no-ops while everything is disabled.
    pub fn configure_observability(&mut self, config: &ObsConfig) {
        self.obs.configure(config);
        if config.collecting() {
            self.wire.enable_timeline();
        }
    }

    /// The link's journal and histograms.
    pub fn observability(&self) -> &Observability {
        &self.obs
    }

    /// Mutable access to the link's journal and histograms.
    pub fn observability_mut(&mut self) -> &mut Observability {
        &mut self.obs
    }

    /// Tags subsequent journal events (command lifecycle, fault/retry)
    /// with a front-end command's trace context; paired with
    /// [`end_trace`](Self::end_trace) around each traced command.
    pub fn begin_trace(&mut self, ctx: TraceContext) {
        self.obs.set_trace(ctx);
    }

    /// Stops trace tagging on the link journal.
    pub fn end_trace(&mut self) {
        self.obs.clear_trace();
    }

    /// The wire's busy-time timeline, if recording was enabled.
    pub fn wire_timeline(&self) -> Option<&SeriesSnapshot> {
        self.wire.timeline()
    }

    /// The link configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.config
    }

    /// Counters: `link.commands`, `link.bytes`.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Time one transfer of `bytes` occupies the link (overhead + wire time).
    pub fn occupancy(&self, bytes: u64) -> SimDuration {
        self.config.per_command + self.config.peak.time_for_bytes(bytes)
    }

    /// The effective bandwidth a single command of `bytes` achieves.
    pub fn effective_bandwidth(&self, bytes: u64) -> Throughput {
        Throughput::from_bytes_over(bytes, self.occupancy(bytes))
    }

    /// Installs a deterministic link-fault plan: subsequent
    /// [`try_transfer`](Self::try_transfer) calls draw one decision per
    /// command. The plain [`transfer`](Self::transfer) path stays fault-free
    /// for golden runs.
    pub fn install_faults(&mut self, config: FaultConfig) {
        self.faults = Some(FaultPlan::new(config));
    }

    /// Schedules one command moving `bytes`, ready at `ready`; returns the
    /// completion instant. Commands serialize FIFO on the wire. This path
    /// never consults the fault plan — use
    /// [`try_transfer`](Self::try_transfer) on operational paths.
    pub fn transfer(&mut self, bytes: u64, ready: SimTime) -> SimTime {
        self.stats.add("link.commands", 1);
        self.stats.add("link.bytes", bytes);
        self.complete(bytes, ready, ready, self.occupancy(bytes))
    }

    /// The shared tail of every command that completes: holds the wire for
    /// `occupancy` from `start`, journals the command from `ready` (the
    /// issue instant — earlier than `start` after retries) to its
    /// completion, and records that latency.
    #[inline]
    fn complete(
        &mut self,
        bytes: u64,
        ready: SimTime,
        start: SimTime,
        occupancy: SimDuration,
    ) -> SimTime {
        let done = self.wire.acquire(start, occupancy);
        self.journal_command(bytes, ready, done);
        self.obs
            .latency("link.command", done.saturating_since(ready));
        done
    }

    /// Journals one command as a single interval, issued at `ready` and
    /// ended at `end`.
    #[inline]
    fn journal_command(&mut self, bytes: u64, ready: SimTime, end: SimTime) {
        self.obs
            .event(ready, LINK_COMPONENT, || EventKind::Command {
                bytes,
                dur: end.saturating_since(ready),
            });
    }

    /// Schedules one command under the installed fault plan.
    ///
    /// A clean command behaves exactly like [`transfer`](Self::transfer). A
    /// faulted command (timeout or dropped completion — the host queue
    /// cannot tell them apart) burns full wire occupancy per failed attempt,
    /// then waits an exponentially doubling backoff before retransmitting;
    /// each retransmission counts in `retries.link`. Retries never draw new
    /// plan decisions, so fault sequences stay aligned across fault rates.
    ///
    /// # Errors
    ///
    /// [`LinkError::RetriesExhausted`] when the command still fails after
    /// the configured retry budget (the spent attempts stay on the wire's
    /// timeline, and the journaled command spans them).
    pub fn try_transfer(&mut self, bytes: u64, ready: SimTime) -> Result<SimTime, LinkError> {
        self.stats.add("link.commands", 1);
        self.stats.add("link.bytes", bytes);
        let occupancy = self.occupancy(bytes);
        // Capture the retry parameters while the plan is borrowed: the
        // fault arms below then need no second (fallible) plan lookup.
        let (decision, budget, initial_backoff) = match self.faults.as_mut() {
            Some(plan) => {
                let cfg = plan.config();
                let (budget, backoff) = (cfg.link_retry_budget, cfg.link_backoff);
                (plan.next_link_fault(), budget, backoff)
            }
            None => (LinkFault::None, 0, SimDuration::ZERO),
        };
        let (failures, mode, fault_kind) = match decision {
            LinkFault::None => return Ok(self.complete(bytes, ready, ready, occupancy)),
            LinkFault::Timeout { failures } => (failures, "faults.link_timeouts", "link.timeout"),
            LinkFault::DroppedCompletion { failures } => {
                (failures, "faults.link_drops", "link.drop")
            }
        };
        self.stats.add("faults.injected", 1);
        self.stats.add(mode, 1);
        let mut backoff = initial_backoff;
        let mut at = ready;
        let mut held = ready;
        for attempt in 0..failures.min(budget) {
            // The failed attempt holds the wire for its full occupancy —
            // the host only learns of the loss by timing out.
            held = self.wire.acquire(at, occupancy);
            self.stats.add("retries.link", 1);
            at = held + backoff;
            backoff = backoff * 2;
            self.obs
                .event(at, LINK_COMPONENT, || EventKind::RetryScheduled {
                    attempt: attempt + 1,
                });
        }
        // The command is journaled once its end is known, ahead of its
        // fault marker at the same `ready` instant; the retries fall later.
        let outcome = if failures > budget {
            self.journal_command(bytes, ready, held);
            Err(LinkError::RetriesExhausted {
                bytes,
                attempts: budget + 1,
            })
        } else {
            self.stats.add("faults.recovered", 1);
            Ok(self.complete(bytes, ready, at, occupancy))
        };
        self.obs
            .event(ready, LINK_COMPONENT, || EventKind::FaultInjected {
                kind: fault_kind,
            });
        outcome
    }

    /// The instant the wire drains all committed transfers.
    pub fn drained_at(&self) -> SimTime {
        self.wire.next_free()
    }

    /// Total wire occupancy accumulated since the last timing reset — the
    /// throughput cost of the scheduled transfers.
    pub fn busy_time(&self) -> SimDuration {
        self.wire.busy_time()
    }

    /// Resets occupancy to idle at t = 0, keeping counters.
    pub fn reset_timing(&mut self) {
        self.wire.reset();
    }

    /// Ends the current per-operation timing epoch after `span` of modeled
    /// time: the wire timeline advances by the operation's end-to-end span
    /// (not just the wire's own drain), keeping it aligned with the
    /// run-long trace clock. Front-ends call this at operation end; see
    /// [`Resource::fold_epoch`](nds_sim::Resource::fold_epoch).
    pub fn fold_timing_epoch(&mut self, span: SimDuration) {
        self.wire.fold_epoch(span);
        self.obs.fold_metrics_epoch(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_p2_curve_points() {
        let link = Link::new(LinkConfig::nvmeof_40g());
        let peak = link.config().peak.bytes_per_sec_f64();
        let at_32k = link.effective_bandwidth(32 * 1024).bytes_per_sec_f64() / peak;
        let at_2m = link
            .effective_bandwidth(2 * 1024 * 1024)
            .bytes_per_sec_f64()
            / peak;
        assert!(
            (at_32k - 0.66).abs() < 0.04,
            "32 KB should reach ~66% of peak, got {:.0}%",
            at_32k * 100.0
        );
        assert!(
            at_2m > 0.98,
            "2 MB should saturate, got {:.0}%",
            at_2m * 100.0
        );
    }

    #[test]
    fn effective_bandwidth_is_monotonic_in_size() {
        let link = Link::new(LinkConfig::nvmeof_40g());
        let mut last = 0.0;
        for shift in 9..24 {
            let bw = link.effective_bandwidth(1 << shift).bytes_per_sec_f64();
            assert!(bw > last);
            last = bw;
        }
    }

    #[test]
    fn many_small_commands_cost_more_than_one_large() {
        let mut a = Link::new(LinkConfig::nvmeof_40g());
        let mut b = Link::new(LinkConfig::nvmeof_40g());
        let total: u64 = 8 * 1024 * 1024;
        let small = total / 256;
        let mut t_many = SimTime::ZERO;
        for _ in 0..256 {
            t_many = a.transfer(small, t_many);
        }
        let t_one = b.transfer(total, SimTime::ZERO);
        assert!(t_many > t_one);
        assert_eq!(a.stats().get("link.bytes"), b.stats().get("link.bytes"));
        assert_eq!(a.stats().get("link.commands"), 256);
    }

    #[test]
    fn transfers_serialize_fifo() {
        let mut link = Link::new(LinkConfig::pcie3_x16());
        let t1 = link.transfer(1 << 20, SimTime::ZERO);
        let t2 = link.transfer(1 << 20, SimTime::ZERO);
        assert_eq!(t2 - t1, t1 - SimTime::ZERO);
    }

    #[test]
    fn overhead_bytes_is_half_peak_point() {
        // The per-command cost's "overhead bytes": the transfer size at
        // which half of peak bandwidth is achieved.
        let cfg = LinkConfig::nvmeof_40g();
        let link = Link::new(cfg);
        let half_point = (cfg.peak.bytes_per_sec_f64() * cfg.per_command.as_secs_f64()) as u64;
        let eff = link.effective_bandwidth(half_point).bytes_per_sec_f64();
        assert!((eff / cfg.peak.bytes_per_sec_f64() - 0.5).abs() < 0.01);
    }

    #[test]
    fn reset_timing_keeps_counters() {
        let mut link = Link::new(LinkConfig::nvmeof_40g());
        link.transfer(4096, SimTime::ZERO);
        link.reset_timing();
        assert_eq!(link.drained_at(), SimTime::ZERO);
        assert_eq!(link.stats().get("link.commands"), 1);
    }

    #[test]
    fn try_transfer_without_plan_matches_transfer() {
        let mut plain = Link::new(LinkConfig::nvmeof_40g());
        let mut faulty = Link::new(LinkConfig::nvmeof_40g());
        for i in 1..32u64 {
            let a = plain.transfer(i * 1024, SimTime::ZERO);
            let b = faulty.try_transfer(i * 1024, SimTime::ZERO).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn zero_rate_plan_is_schedule_identical() {
        let mut plain = Link::new(LinkConfig::nvmeof_40g());
        let mut faulty = Link::new(LinkConfig::nvmeof_40g());
        faulty.install_faults(FaultConfig::with_rate(3, 0.0));
        for i in 1..32u64 {
            let a = plain.transfer(i * 1024, SimTime::ZERO);
            let b = faulty.try_transfer(i * 1024, SimTime::ZERO).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(plain.stats(), faulty.stats());
    }

    #[test]
    fn injected_faults_add_time_and_always_recover_within_budget() {
        let mut plain = Link::new(LinkConfig::nvmeof_40g());
        let mut faulty = Link::new(LinkConfig::nvmeof_40g());
        faulty.install_faults(FaultConfig {
            seed: 7,
            link_fault_rate: 1.0,
            ..FaultConfig::disabled()
        });
        for _ in 0..64 {
            let clean = plain.transfer(8192, SimTime::ZERO);
            let recovered = faulty.try_transfer(8192, SimTime::ZERO).unwrap();
            assert!(recovered > clean, "a faulted command must cost extra time");
        }
        let s = faulty.stats();
        assert_eq!(s.get("faults.injected"), 64);
        assert_eq!(s.get("faults.recovered"), 64);
        assert!(s.get("retries.link") >= 64);
        assert_eq!(
            s.get("faults.link_timeouts") + s.get("faults.link_drops"),
            64
        );
    }

    #[test]
    fn exhausted_budget_is_a_typed_error() {
        let mut link = Link::new(LinkConfig::nvmeof_40g());
        link.install_faults(FaultConfig {
            seed: 7,
            link_fault_rate: 1.0,
            link_retry_budget: 0,
            ..FaultConfig::disabled()
        });
        let err = link.try_transfer(4096, SimTime::ZERO).unwrap_err();
        assert!(matches!(
            err,
            LinkError::RetriesExhausted {
                bytes: 4096,
                attempts: 1
            }
        ));
        assert!(!err.to_string().is_empty());
        assert_eq!(link.stats().get("faults.recovered"), 0);
    }

    #[test]
    fn an_exhausted_command_is_one_event_over_the_wire_time_it_held() {
        // Budget 1 against a fault of 2+ failures: one failed attempt holds
        // the wire, then the retry budget runs out.
        let cfg = FaultConfig {
            seed: 1,
            link_fault_rate: 1.0,
            link_retry_budget: 1,
            ..FaultConfig::disabled()
        };
        let mut probe = nds_faults::FaultPlan::new(cfg);
        let exhausts = |fault| match fault {
            LinkFault::Timeout { failures } | LinkFault::DroppedCompletion { failures } => {
                failures > 1
            }
            LinkFault::None => false,
        };
        let recovered = (0..).take_while(|_| !exhausts(probe.next_link_fault()));
        let mut link = Link::new(LinkConfig::nvmeof_40g());
        link.install_faults(cfg);
        for _ in recovered {
            link.try_transfer(4096, SimTime::ZERO).unwrap();
        }
        let ready = link.drained_at();
        link.configure_observability(&nds_sim::ObsConfig::traced());
        link.begin_trace(nds_sim::TraceContext {
            id: 1,
            origin: SimDuration::ZERO,
        });
        assert!(link.try_transfer(4096, ready).is_err());
        let occ = link.occupancy(4096);
        let events: Vec<_> = link.observability().journal().events().copied().collect();
        let kinds: Vec<_> = events.iter().map(|e| (e.at, e.kind.name())).collect();
        let retry = ready + occ + cfg.link_backoff;
        let expect = [
            (retry, "RetryScheduled"),
            (ready, "Command"),
            (ready, "FaultInjected"),
        ];
        assert_eq!(kinds, expect, "one event per command, ahead of its fault");
        let held = EventKind::Command {
            bytes: 4096,
            dur: occ,
        };
        assert_eq!(events[1].kind, held, "the command spans its failed attempt");
    }

    #[test]
    fn observability_hooks_are_schedule_neutral() {
        let cfg = FaultConfig {
            seed: 7,
            link_fault_rate: 0.5,
            ..FaultConfig::disabled()
        };
        let mut plain = Link::new(LinkConfig::nvmeof_40g());
        plain.install_faults(cfg);
        let mut observed = Link::new(LinkConfig::nvmeof_40g());
        observed.install_faults(cfg);
        observed.configure_observability(&nds_sim::ObsConfig::full());
        for i in 1..64u64 {
            let a = plain.try_transfer(i * 512, SimTime::ZERO);
            let b = observed.try_transfer(i * 512, SimTime::ZERO);
            assert_eq!(a, b, "enabling observability must not move the schedule");
        }
        assert_eq!(plain.stats(), observed.stats());
        assert_eq!(plain.drained_at(), observed.drained_at());
    }

    #[test]
    fn journal_and_histogram_capture_the_command_lifecycle() {
        let mut link = Link::new(LinkConfig::nvmeof_40g());
        link.configure_observability(&nds_sim::ObsConfig::full());
        let done = link.transfer(32 * 1024, SimTime::ZERO);
        link.transfer(32 * 1024, done);
        let summary = link.observability().journal().summary();
        assert_eq!(summary.by_kind.get("Command"), Some(&2));
        assert_eq!(summary.by_kind.len(), 1, "one event per command");
        let h = link
            .observability()
            .histograms()
            .get("link.command")
            .expect("link.command histogram");
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), done.saturating_since(SimTime::ZERO));
        let timeline = link.wire_timeline().expect("wire timeline enabled");
        assert_eq!(
            timeline.buckets.iter().sum::<u64>() + timeline.overflow,
            link.busy_time().as_nanos()
        );
    }

    #[test]
    fn faulted_command_journals_injection_and_retries() {
        let mut link = Link::new(LinkConfig::nvmeof_40g());
        link.install_faults(FaultConfig {
            seed: 7,
            link_fault_rate: 1.0,
            ..FaultConfig::disabled()
        });
        link.configure_observability(&nds_sim::ObsConfig::full());
        for _ in 0..8 {
            link.try_transfer(4096, SimTime::ZERO).unwrap();
        }
        let summary = link.observability().journal().summary();
        assert_eq!(summary.by_kind.get("FaultInjected"), Some(&8));
        assert_eq!(
            summary.by_kind.get("RetryScheduled").copied().unwrap_or(0),
            link.stats().get("retries.link")
        );
    }

    #[test]
    fn backoff_doubles_between_retries() {
        // Budget exactly covers a 2-failure fault: completion must include
        // 3 occupancies + backoff + 2*backoff. Find a seed/command with
        // failures == 2 by scanning the plan deterministically.
        let cfg = FaultConfig {
            seed: 1,
            link_fault_rate: 1.0,
            ..FaultConfig::disabled()
        };
        let mut probe = nds_faults::FaultPlan::new(cfg);
        let mut skip = 0;
        let failures = loop {
            match probe.next_link_fault() {
                LinkFault::Timeout { failures } | LinkFault::DroppedCompletion { failures } => {
                    if failures == 2 {
                        break failures;
                    }
                }
                LinkFault::None => unreachable!("rate 1.0"),
            }
            skip += 1;
        };
        assert_eq!(failures, 2);
        let mut link = Link::new(LinkConfig::nvmeof_40g());
        link.install_faults(cfg);
        let mut at = SimTime::ZERO;
        for _ in 0..skip {
            at = link.try_transfer(4096, at).unwrap();
        }
        let start = link.drained_at();
        let done = link.try_transfer(4096, start).unwrap();
        let occ = link.occupancy(4096);
        let expect = start + occ * 3 + cfg.link_backoff + cfg.link_backoff * 2;
        assert_eq!(done, expect);
    }
}

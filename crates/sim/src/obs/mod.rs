//! Deterministic observability: typed event journal, latency histograms,
//! utilization timelines, and the serializable [`RunReport`].
//!
//! The paper's evaluation (§7) argues from *where modeled time goes* —
//! which channels and banks a layout occupies, how request-size
//! amortization shapes link time \[P2\]. This module gives every timing
//! component a way to expose that: a structured [`Journal`] of typed
//! events, fixed-log2-bucket [`LatencyHistogram`]s registered next to
//! [`Stats`], windowed [`SeriesSnapshot`]s (metric series, and the busy
//! timeline of every [`Resource`](crate::Resource)), and a [`RunReport`]
//! that serializes all of it as deterministic JSON.
//!
//! # Contract: zero-cost when disabled, schedule-neutral always
//!
//! Every hook follows the [`Journal::record`] discipline: the disabled
//! fast path is **one branch**, and event payloads are built by an
//! `FnOnce` closure that never runs while disabled. Hooks only *observe*
//! completion instants that the schedule already computed — they never
//! acquire resources or alter state the scheduler reads — so enabling
//! observability cannot change modeled time.
//! `crates/system/tests/obs_invariance.rs` proves this per architecture.
//!
//! Determinism extends to the artifact: [`RunReport::to_json`] is a
//! hand-rolled emitter (the workspace's serde is a vendored marker-trait
//! stub with no wire format) over `BTreeMap`s and integer nanoseconds
//! only — no floats, no pointer-keyed maps — so two identical runs emit
//! byte-identical JSON.

// Rule D2 (DESIGN.md "Determinism contract"): no hash-ordered container may
// reach a report, so this module and its children deny `HashMap` /
// `HashSet` — and, with them, floats (`clippy.toml`).
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod timeseries;

use std::collections::BTreeMap;
use std::fmt;

use crate::{SimDuration, SimTime, Stats};

pub use timeseries::{
    Mark, MetricSet, SeriesKind, SeriesSnapshot, TIMELINE_BUCKETS, TIMELINE_WINDOW,
};

/// Stable identity of a simulated component inside the journal: a static
/// group name plus an instance index (e.g. `flash.ch[3]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ComponentId {
    /// Component group, e.g. `"flash.ch"` or `"link"`.
    pub group: &'static str,
    /// Instance within the group (0 for singletons).
    pub index: u32,
}

impl ComponentId {
    /// A component instance within a group.
    pub const fn new(group: &'static str, index: u32) -> Self {
        ComponentId { group, index }
    }

    /// A singleton component (index 0).
    pub const fn singleton(group: &'static str) -> Self {
        ComponentId::new(group, 0)
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.group, self.index)
    }
}

/// The typed event taxonomy (DESIGN.md "Observability").
///
/// Variants carry only small `Copy` payloads so deferred construction is
/// cheap even when enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A command crossed a host↔device interface (link or NVMe queue).
    CommandIssued {
        /// Payload bytes the command moves (0 for control commands).
        bytes: u64,
    },
    /// The matching completion of a [`CommandIssued`](Self::CommandIssued).
    CommandCompleted {
        /// Payload bytes the command moved.
        bytes: u64,
    },
    /// A flash page array-read was scheduled.
    PageRead {
        /// Channel of the page.
        channel: u32,
        /// Bank within the channel.
        bank: u32,
    },
    /// A flash page program was scheduled.
    PageProgrammed {
        /// Channel of the page.
        channel: u32,
        /// Bank within the channel.
        bank: u32,
    },
    /// A flash block erase was scheduled.
    BlockErased {
        /// Channel of the block.
        channel: u32,
        /// Bank within the channel.
        bank: u32,
        /// Block index within the bank.
        block: u32,
    },
    /// Garbage collection selected a victim block.
    GcVictimPicked {
        /// Channel of the victim.
        channel: u32,
        /// Bank within the channel.
        bank: u32,
        /// Block index within the bank.
        block: u32,
        /// Live pages that must be relocated.
        valid: u32,
        /// Invalid pages the erase reclaims.
        invalid: u32,
    },
    /// A deterministic fault plan injected a fault.
    FaultInjected {
        /// Which fault: `"flash.read_transient"`, `"flash.program_fail"`,
        /// `"link.timeout"`, `"link.drop"`.
        kind: &'static str,
    },
    /// Recovery scheduled a retry attempt after a fault.
    RetryScheduled {
        /// 1-based attempt number within the current recovery.
        attempt: u32,
    },
    /// Start of a modeled-time interval (paired with
    /// [`SpanEnd`](Self::SpanEnd) by `label` and component).
    SpanBegin {
        /// Span label, e.g. `"read"`.
        label: &'static str,
    },
    /// End of a modeled-time interval.
    SpanEnd {
        /// Span label matching the begin event.
        label: &'static str,
    },
    /// Start of a traced front-end command (paired with
    /// [`TraceEnd`](Self::TraceEnd) by trace id). `at` is the command's
    /// start instant on the run-long trace clock.
    TraceBegin {
        /// Run-unique 1-based trace id.
        trace: u64,
        /// Operation kind: `"read"` or `"write"`.
        op: &'static str,
    },
    /// End of a traced front-end command; `at − begin.at` is the exact
    /// end-to-end modeled latency.
    TraceEnd {
        /// Trace id matching the begin event.
        trace: u64,
    },
    /// One stage of a traced command's latency partition: the `dur`-long
    /// interval starting at `at` is attributed to `stage`. Per trace id
    /// the stage durations sum *exactly* to end-to-end latency (the
    /// attribution invariant `nds-prof` verifies).
    StageSpan {
        /// Trace id the stage belongs to.
        trace: u64,
        /// Pipeline stage the interval is attributed to.
        stage: TraceStage,
        /// Length of the interval.
        dur: SimDuration,
    },
    /// The cluster front-end steered a shard read to a replica device.
    ReplicaRead {
        /// Device the read was served from.
        device: u32,
        /// Shard index within the dataset.
        shard: u32,
    },
    /// The cluster copied a shard replica between devices (re-replication
    /// after a device kill, or resync after a link restore).
    ReplicaCopied {
        /// Source device.
        from: u32,
        /// Destination device.
        to: u32,
        /// Payload bytes copied.
        bytes: u64,
    },
    /// A cluster device became unavailable (killed, or its link went down).
    DeviceDown {
        /// The affected device.
        device: u32,
    },
    /// A cluster device's link was restored.
    DeviceUp {
        /// The affected device.
        device: u32,
    },
}

/// The five-way latency attribution of a traced command (DESIGN.md
/// "Profiling and critical-path attribution").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceStage {
    /// Host-side command submission / NVMe queue occupancy.
    Queue,
    /// Host↔device link transfer on the critical path.
    Link,
    /// Flash channel/bank service on the critical path.
    Flash,
    /// Restructuring work: marshalling, scatter/gather, reassembly.
    Restructure,
    /// Everything else (fixed software costs such as STL traversal).
    Other,
}

impl TraceStage {
    /// Every stage, in attribution-table order.
    pub const ALL: [TraceStage; 5] = [
        TraceStage::Queue,
        TraceStage::Link,
        TraceStage::Flash,
        TraceStage::Restructure,
        TraceStage::Other,
    ];

    /// Stable lower-case name used in exported artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            TraceStage::Queue => "queue",
            TraceStage::Link => "link",
            TraceStage::Flash => "flash",
            TraceStage::Restructure => "restructure",
            TraceStage::Other => "other",
        }
    }
}

impl EventKind {
    /// The variant's stable name, used as the journal-summary key.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::CommandIssued { .. } => "CommandIssued",
            EventKind::CommandCompleted { .. } => "CommandCompleted",
            EventKind::PageRead { .. } => "PageRead",
            EventKind::PageProgrammed { .. } => "PageProgrammed",
            EventKind::BlockErased { .. } => "BlockErased",
            EventKind::GcVictimPicked { .. } => "GcVictimPicked",
            EventKind::FaultInjected { .. } => "FaultInjected",
            EventKind::RetryScheduled { .. } => "RetryScheduled",
            EventKind::SpanBegin { .. } => "SpanBegin",
            EventKind::SpanEnd { .. } => "SpanEnd",
            EventKind::TraceBegin { .. } => "TraceBegin",
            EventKind::TraceEnd { .. } => "TraceEnd",
            EventKind::StageSpan { .. } => "StageSpan",
            EventKind::ReplicaRead { .. } => "ReplicaRead",
            EventKind::ReplicaCopied { .. } => "ReplicaCopied",
            EventKind::DeviceDown { .. } => "DeviceDown",
            EventKind::DeviceUp { .. } => "DeviceUp",
        }
    }

    /// Visits the variant's payload as `(field name, value)` pairs in
    /// declaration order — the one generic rendering of an event, so an
    /// exporter never has to know a variant's fields.
    pub fn args(&self, mut f: impl FnMut(&'static str, ArgValue)) {
        use ArgValue::{Str, U64};
        match *self {
            EventKind::CommandIssued { bytes } | EventKind::CommandCompleted { bytes } => {
                f("bytes", U64(bytes));
            }
            EventKind::PageRead { channel, bank } | EventKind::PageProgrammed { channel, bank } => {
                f("channel", U64(channel.into()));
                f("bank", U64(bank.into()));
            }
            EventKind::BlockErased {
                channel,
                bank,
                block,
            } => {
                f("channel", U64(channel.into()));
                f("bank", U64(bank.into()));
                f("block", U64(block.into()));
            }
            EventKind::GcVictimPicked {
                channel,
                bank,
                block,
                valid,
                invalid,
            } => {
                f("channel", U64(channel.into()));
                f("bank", U64(bank.into()));
                f("block", U64(block.into()));
                f("valid", U64(valid.into()));
                f("invalid", U64(invalid.into()));
            }
            EventKind::FaultInjected { kind } => f("kind", Str(kind)),
            EventKind::RetryScheduled { attempt } => f("attempt", U64(attempt.into())),
            EventKind::SpanBegin { label } | EventKind::SpanEnd { label } => {
                f("label", Str(label));
            }
            EventKind::TraceBegin { trace, op } => {
                f("trace", U64(trace));
                f("op", Str(op));
            }
            EventKind::TraceEnd { trace } => f("trace", U64(trace)),
            EventKind::StageSpan { trace, stage, dur } => {
                f("trace", U64(trace));
                f("stage", Str(stage.name()));
                f("dur", U64(dur.as_nanos()));
            }
            EventKind::ReplicaRead { device, shard } => {
                f("device", U64(device.into()));
                f("shard", U64(shard.into()));
            }
            EventKind::ReplicaCopied { from, to, bytes } => {
                f("from", U64(from.into()));
                f("to", U64(to.into()));
                f("bytes", U64(bytes));
            }
            EventKind::DeviceDown { device } | EventKind::DeviceUp { device } => {
                f("device", U64(device.into()));
            }
        }
    }
}

/// One payload field of an [`EventKind`], as visited by
/// [`EventKind::args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgValue {
    /// An integer field (ids, counts, byte volumes, nanoseconds).
    U64(u64),
    /// A static label field.
    Str(&'static str),
}

/// One retained journal entry: a typed event at a modeled instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Modeled instant of the event on the run-long trace clock.
    pub at: SimTime,
    /// Component that emitted it.
    pub component: ComponentId,
    /// What happened.
    pub kind: EventKind,
    /// Causal trace id of the front-end command in flight when the event
    /// was recorded (never 0: untraced events are not retained).
    pub trace: u64,
}

/// Typed events with per-kind counters.
///
/// While enabled, a journal counts every event it is given (`recorded`,
/// per-kind totals) and retains exactly the trace-tagged ones — those
/// recorded while a [`TraceContext`] is set — all of them, in record
/// order. Untraced events are counted, never stored: no reader reads
/// them, and a traced export is therefore whole.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Journal {
    enabled: bool,
    events: Vec<Event>,
    recorded: u64,
    by_kind: BTreeMap<&'static str, u64>,
    trace: u64,
    origin: SimDuration,
}

impl Journal {
    /// A disabled journal (records nothing until enabled).
    pub fn disabled() -> Self {
        Journal::default()
    }

    /// An enabled journal.
    pub fn enabled() -> Self {
        Journal {
            enabled: true,
            ..Journal::default()
        }
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether events are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one event. When disabled this is a single branch and the
    /// `kind` closure never runs.
    pub fn record(
        &mut self,
        at: SimTime,
        component: ComponentId,
        kind: impl FnOnce() -> EventKind,
    ) {
        if !self.enabled {
            return;
        }
        self.record_built(at, component, kind());
    }

    /// Records an already-built event. One branch when disabled — used by
    /// [`Observability::event`] when another collector (the metric
    /// sampler) forced payload construction anyway. The event is counted,
    /// and retained only while a trace context is set.
    pub fn record_built(&mut self, at: SimTime, component: ComponentId, kind: EventKind) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        *self.by_kind.entry(kind.name()).or_insert(0) += 1;
        if self.trace == 0 {
            return;
        }
        self.events.push(Event {
            at: at + self.origin,
            component,
            kind,
            trace: self.trace,
        });
    }

    /// Tags subsequent events with `ctx`'s trace id and shifts their
    /// timestamps by its run-long origin, so a command epoch's
    /// `SimTime::ZERO`-anchored instants land on the continuous trace
    /// clock; the journal retains them. Cleared with
    /// [`clear_trace`](Self::clear_trace).
    pub fn set_trace(&mut self, ctx: TraceContext) {
        self.trace = ctx.id;
        self.origin = ctx.origin;
    }

    /// Stops trace tagging: subsequent events are counted but not
    /// retained.
    pub fn clear_trace(&mut self) {
        self.trace = 0;
        self.origin = SimDuration::ZERO;
    }

    /// Records a [`EventKind::SpanBegin`] for `label`.
    pub fn begin_span(&mut self, at: SimTime, component: ComponentId, label: &'static str) {
        self.record(at, component, || EventKind::SpanBegin { label });
    }

    /// Records a [`EventKind::SpanEnd`] for `label`.
    pub fn end_span(&mut self, at: SimTime, component: ComponentId, label: &'static str) {
        self.record(at, component, || EventKind::SpanEnd { label });
    }

    /// Retained (trace-tagged) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Total events recorded over the journal's lifetime, traced or not.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The journal's aggregate view for a [`RunReport`].
    pub fn summary(&self) -> JournalSummary {
        JournalSummary {
            recorded: self.recorded,
            retained: self.events.len() as u64,
            dropped: 0,
            by_kind: self
                .by_kind
                .iter()
                .map(|(k, v)| ((*k).to_owned(), *v))
                .collect(),
        }
    }
}

/// Aggregate journal statistics carried by a [`RunReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalSummary {
    /// Events recorded over the run.
    pub recorded: u64,
    /// Trace-tagged events retained for the trace export.
    pub retained: u64,
    /// Always 0: a journal discards no event it records. Kept only because
    /// the benchmark harness still reads it into `sim.journal_dropped`.
    pub dropped: u64,
    /// Recorded events per [`EventKind::name`].
    pub by_kind: BTreeMap<String, u64>,
}

impl JournalSummary {
    /// Folds another summary into this one (multi-component merge).
    pub fn merge(&mut self, other: &JournalSummary) {
        self.recorded += other.recorded;
        self.retained += other.retained;
        for (kind, count) in &other.by_kind {
            *self.by_kind.entry(kind.clone()).or_insert(0) += count;
        }
    }
}

/// A command's identity on the run-long trace clock: its 1-based id and
/// the clock offset at which the command started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Run-unique 1-based trace id (0 is reserved for "untraced").
    pub id: u64,
    /// Run-long trace-clock offset of the command's start.
    pub origin: SimDuration,
}

/// Allocates trace ids and maintains the run-long trace clock.
///
/// Front-ends model each command in its own epoch anchored at
/// [`SimTime::ZERO`]; the tracer concatenates those epochs — exactly like
/// [`Resource::fold_epoch`](crate::Resource::fold_epoch) does for resource
/// occupancy — so exported traces share one continuous clock whose final
/// value is the run's serial makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommandTracer {
    next_id: u64,
    clock: SimDuration,
}

impl CommandTracer {
    /// A tracer at clock zero; the first command gets trace id 1.
    pub fn new() -> Self {
        CommandTracer::default()
    }

    /// Starts the next command at the current clock.
    pub fn begin(&mut self) -> TraceContext {
        self.next_id += 1;
        TraceContext {
            id: self.next_id,
            origin: self.clock,
        }
    }

    /// Finishes the current command, advancing the clock by its
    /// end-to-end latency.
    pub fn finish(&mut self, latency: SimDuration) {
        self.clock += latency;
    }

    /// The trace clock: total modeled time across finished commands.
    pub fn makespan(&self) -> SimDuration {
        self.clock
    }

    /// Commands begun so far.
    pub fn commands(&self) -> u64 {
        self.next_id
    }
}

/// Records a traced command's exact latency partition into `journal`: a
/// [`TraceBegin`](EventKind::TraceBegin) at the epoch origin, one
/// [`StageSpan`](EventKind::StageSpan) per non-empty stage laid end to
/// end, and a [`TraceEnd`](EventKind::TraceEnd) at `latency`. A shortfall
/// between the stage sum and `latency` is padded with
/// [`TraceStage::Other`], so the attribution invariant — stages sum
/// exactly to end-to-end latency — holds by construction.
///
/// Must be called while `journal`'s trace context is set to `ctx`, so
/// the events inherit the id and run-long origin.
pub fn record_command_partition(
    journal: &mut Journal,
    component: ComponentId,
    ctx: TraceContext,
    op: &'static str,
    latency: SimDuration,
    stages: &[(TraceStage, SimDuration)],
) {
    let trace = ctx.id;
    journal.record(SimTime::ZERO, component, || EventKind::TraceBegin {
        trace,
        op,
    });
    let mut offset = SimDuration::ZERO;
    for &(stage, dur) in stages {
        if dur.is_zero() {
            continue;
        }
        journal.record(SimTime::ZERO + offset, component, || EventKind::StageSpan {
            trace,
            stage,
            dur,
        });
        offset += dur;
    }
    debug_assert!(
        offset <= latency,
        "stage partition ({offset:?}) exceeds end-to-end latency ({latency:?})"
    );
    let pad = latency.saturating_sub(offset);
    if !pad.is_zero() {
        journal.record(SimTime::ZERO + offset, component, || EventKind::StageSpan {
            trace,
            stage: TraceStage::Other,
            dur: pad,
        });
    }
    journal.record(SimTime::ZERO + latency, component, || EventKind::TraceEnd {
        trace,
    });
}

/// Everything a front-end exports for one run's causal trace:
/// trace-tagged events on the run-long clock (system, link, and flash
/// journals combined), run-long per-channel/bank busy totals, and the
/// trace clock's final value. Consumed by the Chrome-trace exporter and
/// `nds-prof`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceExport {
    /// Trace-tagged events ordered by instant (stable on ties, so
    /// source order — system, link, flash — breaks them
    /// deterministically).
    pub events: Vec<Event>,
    /// Run-long busy time per flash channel, by resource name.
    pub channels: Vec<(String, SimDuration)>,
    /// Run-long busy time per flash bank, by resource name.
    pub banks: Vec<(String, SimDuration)>,
    /// Final trace-clock value: the sum of traced command latencies.
    pub makespan: SimDuration,
    /// Tenant attribution of trace ids, as `(trace id, tenant id)` pairs
    /// sorted by trace id. Empty for single-stream runs; the multi-tenant
    /// traffic engine fills it so `nds-prof` and the Chrome exporter can
    /// group commands per tenant.
    pub tenants: Vec<(u64, u32)>,
}

/// Number of log2 buckets: bucket 0 holds zero-duration samples, bucket
/// `i ≥ 1` holds durations in `[2^(i−1), 2^i)` nanoseconds, up to bucket
/// 64 for the top of the u64 range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-log2-bucket latency histogram over modeled durations.
///
/// Bucketing is exact integer arithmetic on nanoseconds, so identical
/// runs produce identical histograms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    total: SimDuration,
    min: SimDuration,
    max: SimDuration,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            total: SimDuration::ZERO,
            min: SimDuration::ZERO,
            max: SimDuration::ZERO,
        }
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// The log2 bucket index for a duration.
    pub fn bucket_index(sample: SimDuration) -> usize {
        let nanos = sample.as_nanos();
        if nanos == 0 {
            0
        } else {
            (64 - nanos.leading_zeros()) as usize
        }
    }

    /// The inclusive lower bound of bucket `index`, in nanoseconds.
    pub fn bucket_floor_nanos(index: usize) -> u64 {
        if index == 0 {
            0
        } else {
            1u64 << (index - 1).min(63)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, sample: SimDuration) {
        self.buckets[Self::bucket_index(sample)] += 1;
        if self.count == 0 || sample < self.min {
            self.min = sample;
        }
        if sample > self.max {
            self.max = sample;
        }
        self.count += 1;
        self.total += sample;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn total(&self) -> SimDuration {
        self.total
    }

    /// Smallest sample (zero when empty).
    pub fn min(&self) -> SimDuration {
        self.min
    }

    /// Largest sample (zero when empty).
    pub fn max(&self) -> SimDuration {
        self.max
    }

    /// Sample count per bucket index.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// `(bucket index, count)` for the non-empty buckets, ascending.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// The `q`-quantile (`q` in `[0.0, 1.0]`, clamped) of the recorded
    /// samples, reconstructed deterministically from the log2 buckets.
    ///
    /// `q` is converted once to an integer rank in parts-per-million;
    /// everything after that is exact integer arithmetic: the rank's
    /// bucket is located by cumulative count, the value interpolated at
    /// the midpoint of the rank's equal slice of the bucket's span, and
    /// the result clamped into `[min, max]`. Monotone in `q`; returns
    /// zero for an empty histogram. The result is an approximation of the
    /// true sample quantile with at most one bucket (2×) of error.
    #[expect(
        clippy::disallowed_types,
        reason = "p50/p95/p99 are asked for as fractions; `q` becomes an integer rank at once"
    )]
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let clamped = if q.is_finite() {
            q.clamp(0.0, 1.0)
        } else {
            0.0
        };
        // The only float step: one conversion to parts-per-million.
        let ppm = (clamped * 1_000_000.0) as u128;
        let rank = (ppm * (self.count as u128 - 1) / 1_000_000) as u64;
        let mut seen = 0u64;
        for (idx, count) in self.nonzero_buckets() {
            if rank < seen + count {
                let lo = Self::bucket_floor_nanos(idx);
                let hi = Self::bucket_floor_nanos(idx + 1).max(lo);
                let pos = rank - seen;
                let span = hi - lo;
                // Midpoint of the rank's slice when the bucket span is
                // divided into `count` equal parts.
                let offset = (span as u128 * (2 * pos as u128 + 1) / (2 * count as u128)) as u64;
                let value = (lo + offset).clamp(self.min.as_nanos(), self.max.as_nanos());
                return SimDuration(value);
            }
            seen += count;
        }
        self.max
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count += other.count;
        self.total += other.total;
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }
}

/// A named registry of latency histograms, registered next to [`Stats`]
/// in each timing component.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histograms {
    enabled: bool,
    histograms: BTreeMap<&'static str, LatencyHistogram>,
}

impl Histograms {
    /// A disabled registry (records nothing until enabled).
    pub fn disabled() -> Self {
        Histograms::default()
    }

    /// Turns recording on or off.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether samples are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records `sample` into the histogram named `name`. One branch when
    /// disabled.
    pub fn record(&mut self, name: &'static str, sample: SimDuration) {
        if !self.enabled {
            return;
        }
        self.histograms.entry(name).or_default().record(sample);
    }

    /// The histogram named `name`, if any samples were recorded.
    pub fn get(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// All histograms, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &LatencyHistogram)> {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Drops all recorded samples (keeps enablement).
    pub fn clear(&mut self) {
        self.histograms.clear();
    }
}

/// Configuration for the observability layer, threaded through
/// `SystemConfig` into every timing component. Everything defaults to
/// off; the disabled layer costs one branch per hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsConfig {
    level: ObsLevel,
}

/// What the collectors record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum ObsLevel {
    #[default]
    Off,
    Full,
    Traced,
}

impl ObsConfig {
    /// Everything off (the default): hooks cost one branch each.
    pub const fn disabled() -> Self {
        ObsConfig {
            level: ObsLevel::Off,
        }
    }

    /// Journal counts, histograms, busy timelines and the windowed metric
    /// sampler all on. Tracing stays off, so the journal counts events but
    /// retains none.
    pub const fn full() -> Self {
        ObsConfig {
            level: ObsLevel::Full,
        }
    }

    /// Everything on **plus** causal per-command tracing: every journal
    /// retains each trace-tagged event, whole.
    pub const fn traced() -> Self {
        ObsConfig {
            level: ObsLevel::Traced,
        }
    }

    /// True if journals, histograms, per-resource busy timelines and the
    /// windowed [`MetricSet`] sampler (series and event marks) record.
    pub const fn collecting(&self) -> bool {
        !matches!(self.level, ObsLevel::Off)
    }

    /// True if commands carry causal trace ids: `collecting`, plus a
    /// [`CommandTracer`] per front-end, so journals retain the tagged
    /// events.
    pub const fn tracing(&self) -> bool {
        matches!(self.level, ObsLevel::Traced)
    }
}

/// The per-component observability bundle: one journal, one histogram
/// registry and one metric sampler, all disabled by default.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Observability {
    journal: Journal,
    histograms: Histograms,
    metrics: MetricSet,
}

impl Observability {
    /// A fully disabled bundle (the default).
    pub fn disabled() -> Self {
        Observability::default()
    }

    /// Applies `config`: replaces the journal and the metric sampler, and
    /// flips histogram recording.
    pub fn configure(&mut self, config: &ObsConfig) {
        self.journal = Journal::disabled();
        self.journal.set_enabled(config.collecting());
        self.histograms.set_enabled(config.collecting());
        if !config.collecting() {
            self.histograms.clear();
        }
        self.metrics = if config.collecting() {
            MetricSet::enabled()
        } else {
            MetricSet::disabled()
        };
    }

    /// Records a typed event (one branch when both the journal and the
    /// metric sampler are disabled). The metric sampler derives its
    /// standard throughput/fault/GC/cluster series from the same event,
    /// so instrumented layers need no extra metric hooks.
    pub fn event(&mut self, at: SimTime, component: ComponentId, kind: impl FnOnce() -> EventKind) {
        if !self.journal.is_enabled() && !self.metrics.is_enabled() {
            return;
        }
        let kind = kind();
        self.metrics.observe_event(at, component, &kind);
        self.journal.record_built(at, component, kind);
    }

    /// Records a latency sample (one branch when histograms are
    /// disabled).
    pub fn latency(&mut self, name: &'static str, sample: SimDuration) {
        self.histograms.record(name, sample);
    }

    /// Adds `value` to the counter metric series `name` at epoch-local
    /// instant `at`. One branch when the metric sampler is disabled.
    pub fn metric_add(&mut self, at: SimTime, name: &str, value: u64) {
        self.metrics.add(at, name, value);
    }

    /// Records a gauge sample into the metric series `name` (the window
    /// keeps its maximum). One branch when the metric sampler is disabled.
    pub fn metric_sample(&mut self, at: SimTime, name: &str, value: u64) {
        self.metrics.sample(at, name, value);
    }

    /// Folds a finished epoch's span into the metric sampler's run-long
    /// clock (call next to the component's `fold_timing_epoch`).
    pub fn fold_metrics_epoch(&mut self, span: SimDuration) {
        self.metrics.fold_epoch(span);
    }

    /// The windowed metric sampler.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// Tags subsequent journal events with a command's trace context
    /// (see [`Journal::set_trace`]).
    pub fn set_trace(&mut self, ctx: TraceContext) {
        self.journal.set_trace(ctx);
    }

    /// Stops trace tagging on the journal.
    pub fn clear_trace(&mut self) {
        self.journal.clear_trace();
    }

    /// The event journal.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Mutable access to the event journal.
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// The histogram registry.
    pub fn histograms(&self) -> &Histograms {
        &self.histograms
    }

    /// True if any collector is recording.
    pub fn is_enabled(&self) -> bool {
        self.journal.is_enabled() || self.histograms.is_enabled() || self.metrics.is_enabled()
    }
}

/// The serializable run artifact: named counters, modeled durations,
/// latency histograms, windowed series, event marks, and a journal summary.
///
/// All maps are `BTreeMap`s and all quantities are integers (nanoseconds
/// for time), so [`to_json`](Self::to_json) is deterministic: two
/// identical runs emit byte-identical text.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Free-form run metadata (architecture, workload, parameters).
    pub meta: BTreeMap<String, String>,
    /// Named counters (merged [`Stats`]).
    pub counters: BTreeMap<String, u64>,
    /// Named modeled durations (run totals, stage busy times).
    pub durations: BTreeMap<String, SimDuration>,
    /// Latency histograms by name.
    pub histograms: BTreeMap<String, LatencyHistogram>,
    /// Windowed series by name, every one [`TIMELINE_WINDOW`] wide: the
    /// metric sampler's, and each resource's busy timeline (a counter in
    /// nanoseconds) under `busy.<resource>` (see
    /// [`add_busy`](Self::add_busy)).
    pub series: BTreeMap<String, SeriesSnapshot>,
    /// Event marks on the run-long folded clock, sorted by instant.
    pub marks: Vec<Mark>,
    /// Aggregated journal statistics.
    pub journal: JournalSummary,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Sets one metadata entry.
    pub fn set_meta(&mut self, key: impl Into<String>, value: impl Into<String>) {
        self.meta.insert(key.into(), value.into());
    }

    /// Merges every counter of `stats` into the report (summing on name
    /// collision).
    pub fn add_counters(&mut self, stats: &Stats) {
        for (name, value) in stats.iter() {
            *self.counters.entry(name.to_owned()).or_insert(0) += value;
        }
    }

    /// Adds a named modeled duration (summing on name collision).
    pub fn add_duration(&mut self, name: impl Into<String>, value: SimDuration) {
        let slot = self
            .durations
            .entry(name.into())
            .or_insert(SimDuration::ZERO);
        *slot += value;
    }

    /// Adds `resource`'s busy timeline as the series `busy.<resource>`,
    /// e.g. `busy.link` or `busy.flash.ch[0]`. No sampler series name
    /// starts with `busy.`, so the two never collide.
    pub fn add_busy(&mut self, resource: &str, timeline: &SeriesSnapshot) {
        self.series
            .insert(format!("busy.{resource}"), timeline.clone());
    }

    /// Folds a component's journal, histograms, and metric series into
    /// the report.
    pub fn absorb(&mut self, obs: &Observability) {
        self.journal.merge(&obs.journal().summary());
        for (name, histogram) in obs.histograms().iter() {
            self.histograms
                .entry(name.to_owned())
                .or_default()
                .merge(histogram);
        }
        self.absorb_metrics(obs.metrics());
    }

    /// Folds a standalone metric sampler into the report — used directly
    /// by components (like the traffic engine) that own a [`MetricSet`]
    /// outside an [`Observability`] bundle.
    pub fn absorb_metrics(&mut self, metrics: &MetricSet) {
        for (name, snapshot) in metrics.snapshots() {
            match self.series.get_mut(name) {
                Some(existing) => existing.merge(snapshot),
                None => {
                    self.series.insert(name.to_owned(), snapshot.clone());
                }
            }
        }
        self.marks.extend_from_slice(metrics.marks());
        self.marks.sort_by_key(|m| m.at);
    }

    /// Merges `other` into this report with every key prefixed — how the
    /// multi-architecture bench bins combine per-system reports into one
    /// artifact.
    pub fn merge_prefixed(&mut self, prefix: &str, other: &RunReport) {
        for (k, v) in &other.meta {
            self.meta.insert(format!("{prefix}{k}"), v.clone());
        }
        for (k, v) in &other.counters {
            *self.counters.entry(format!("{prefix}{k}")).or_insert(0) += v;
        }
        for (k, v) in &other.durations {
            let slot = self
                .durations
                .entry(format!("{prefix}{k}"))
                .or_insert(SimDuration::ZERO);
            *slot += *v;
        }
        for (k, v) in &other.histograms {
            self.histograms
                .entry(format!("{prefix}{k}"))
                .or_default()
                .merge(v);
        }
        for (k, v) in &other.series {
            match self.series.get_mut(&format!("{prefix}{k}")) {
                Some(existing) => existing.merge(v),
                None => {
                    self.series.insert(format!("{prefix}{k}"), v.clone());
                }
            }
        }
        for m in &other.marks {
            self.marks.push(Mark {
                at: m.at,
                label: format!("{prefix}{}", m.label),
            });
        }
        self.marks.sort_by_key(|m| m.at);
        self.journal.merge(&other.journal);
    }

    /// Serializes the report as deterministic JSON (sorted keys, integer
    /// nanoseconds, no floats). Hand-rolled because the workspace's serde
    /// is a vendored marker-trait stub with no wire format.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n  \"version\": 1,\n  \"meta\": {");
        write_string_map(&mut out, &self.meta);
        out.push_str("},\n  \"counters\": {");
        write_u64_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k.as_str(), *v)),
        );
        out.push_str("},\n  \"durations_ns\": {");
        write_u64_map(
            &mut out,
            self.durations
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_nanos())),
        );
        out.push_str("},\n  \"histograms\": {");
        let mut first = true;
        for (name, h) in &self.histograms {
            push_sep(&mut out, &mut first);
            out.push_str("    ");
            push_json_string(&mut out, name);
            out.push_str(": { \"count\": ");
            push_u64(&mut out, h.count());
            out.push_str(", \"total_ns\": ");
            push_u64(&mut out, h.total().as_nanos());
            out.push_str(", \"min_ns\": ");
            push_u64(&mut out, h.min().as_nanos());
            out.push_str(", \"max_ns\": ");
            push_u64(&mut out, h.max().as_nanos());
            out.push_str(", \"p50_ns\": ");
            push_u64(&mut out, h.quantile(0.50).as_nanos());
            out.push_str(", \"p95_ns\": ");
            push_u64(&mut out, h.quantile(0.95).as_nanos());
            out.push_str(", \"p99_ns\": ");
            push_u64(&mut out, h.quantile(0.99).as_nanos());
            out.push_str(", \"log2_buckets\": [");
            let mut first_bucket = true;
            for (idx, count) in h.nonzero_buckets() {
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                out.push('[');
                push_u64(&mut out, idx as u64);
                out.push_str(", ");
                push_u64(&mut out, count);
                out.push(']');
            }
            out.push_str("] }");
        }
        close_map(&mut out, first);
        out.push_str(",\n  \"series_window_ns\": ");
        push_u64(&mut out, TIMELINE_WINDOW.as_nanos());
        out.push_str(",\n  \"series\": {");
        self.write_series_entries(&mut out);
        out.push_str(",\n  \"marks\": ");
        self.write_marks_array(&mut out);
        out.push_str(",\n  \"journal\": { \"recorded\": ");
        push_u64(&mut out, self.journal.recorded);
        out.push_str(", \"retained\": ");
        push_u64(&mut out, self.journal.retained);
        out.push_str(", \"by_kind\": {");
        write_u64_map(
            &mut out,
            self.journal.by_kind.iter().map(|(k, v)| (k.as_str(), *v)),
        );
        out.push_str("} },\n  \"obs\": { \"health\": ");
        self.write_health_object(&mut out);
        out.push_str(" }\n}\n");
        out
    }

    /// Writes the metric-series map entries plus the closing brace.
    fn write_series_entries(&self, out: &mut String) {
        let mut first = true;
        for (name, s) in &self.series {
            push_sep(out, &mut first);
            out.push_str("    ");
            push_json_string(out, name);
            out.push_str(": { \"kind\": ");
            push_json_string(out, s.kind.name());
            out.push_str(", \"total\": ");
            push_u64(out, s.total);
            out.push_str(", \"overflow\": ");
            push_u64(out, s.overflow);
            out.push_str(", \"values\": ");
            write_u64_array(out, &s.buckets);
            out.push_str(" }");
        }
        close_map(out, first);
    }

    /// Writes the event-mark array (including brackets).
    fn write_marks_array(&self, out: &mut String) {
        if self.marks.is_empty() {
            out.push_str("[]");
            return;
        }
        out.push('[');
        let mut first = true;
        for m in &self.marks {
            push_sep(out, &mut first);
            out.push_str("    { \"at_ns\": ");
            push_u64(out, m.at.as_nanos());
            out.push_str(", \"label\": ");
            push_json_string(out, &m.label);
            out.push_str(" }");
        }
        out.push_str("\n  ]");
    }

    /// Writes the `health` object: where a collector lost resolution —
    /// saturated histograms (samples in the top log2 bucket) and series
    /// overflow past the window cap.
    fn write_health_object(&self, out: &mut String) {
        out.push_str("{ \"histogram_saturated\": {");
        write_u64_map(
            out,
            self.histograms
                .iter()
                .filter(|(_, h)| h.buckets()[HISTOGRAM_BUCKETS - 1] > 0)
                .map(|(k, h)| (k.as_str(), h.buckets()[HISTOGRAM_BUCKETS - 1])),
        );
        out.push_str("}, \"series_overflow\": {");
        write_u64_map(
            out,
            self.series
                .iter()
                .filter(|(_, s)| s.overflow > 0)
                .map(|(k, s)| (k.as_str(), s.overflow)),
        );
        out.push_str("} }");
    }
}

fn push_sep(out: &mut String, first: &mut bool) {
    if *first {
        out.push('\n');
    } else {
        out.push_str(",\n");
    }
    *first = false;
}

fn close_map(out: &mut String, still_first: bool) {
    if !still_first {
        out.push_str("\n  ");
    }
    out.push('}');
}

fn push_u64(out: &mut String, value: u64) {
    use fmt::Write as _;
    let _ = write!(out, "{value}");
}

/// Writes `values` as a one-line JSON array, brackets included.
fn write_u64_array(out: &mut String, values: &[u64]) {
    out.push('[');
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_u64(out, *v);
    }
    out.push(']');
}

/// Appends `s` to `out` as a quoted, escaped JSON string literal.
pub fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_string_map(out: &mut String, map: &BTreeMap<String, String>) {
    let mut first = true;
    for (k, v) in map {
        push_sep(out, &mut first);
        out.push_str("    ");
        push_json_string(out, k);
        out.push_str(": ");
        push_json_string(out, v);
    }
    close_map(out, first);
    // `close_map` appended the brace; strip it so callers own structure.
    out.pop();
}

fn write_u64_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, u64)>) {
    let mut first = true;
    for (k, v) in entries {
        push_sep(out, &mut first);
        out.push_str("    ");
        push_json_string(out, k);
        out.push_str(": ");
        push_u64(out, v);
    }
    close_map(out, first);
    out.pop();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn event_args_visit_fields_in_declaration_order() {
        let collect = |kind: EventKind| {
            let mut out = Vec::new();
            kind.args(|key, value| out.push((key, value)));
            out
        };
        assert_eq!(
            collect(EventKind::BlockErased {
                channel: 3,
                bank: 1,
                block: 7
            }),
            [
                ("channel", ArgValue::U64(3)),
                ("bank", ArgValue::U64(1)),
                ("block", ArgValue::U64(7))
            ]
        );
        assert_eq!(
            collect(EventKind::FaultInjected {
                kind: "link.timeout"
            }),
            [("kind", ArgValue::Str("link.timeout"))]
        );
    }

    /// A trace context at clock zero: events keep their epoch-local
    /// instants and are retained.
    fn traced() -> TraceContext {
        TraceContext {
            id: 1,
            origin: SimDuration::ZERO,
        }
    }

    #[test]
    fn disabled_journal_records_nothing_and_skips_closure() {
        let mut j = Journal::disabled();
        j.set_trace(traced());
        let mut ran = false;
        j.record(SimTime::ZERO, ComponentId::singleton("x"), || {
            ran = true;
            EventKind::CommandIssued { bytes: 1 }
        });
        assert!(!ran, "payload closure must not run while disabled");
        assert_eq!(j.events().count(), 0);
        assert_eq!(j.recorded(), 0);
    }

    #[test]
    fn span_pairs_record_begin_and_end() {
        let mut j = Journal::enabled();
        j.set_trace(traced());
        let c = ComponentId::singleton("system");
        j.begin_span(SimTime::ZERO, c, "read");
        j.end_span(SimTime::ZERO + us(3), c, "read");
        let kinds: Vec<_> = j.events().map(|e| e.kind.name()).collect();
        assert_eq!(kinds, ["SpanBegin", "SpanEnd"]);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        assert_eq!(LatencyHistogram::bucket_index(SimDuration::ZERO), 0);
        assert_eq!(
            LatencyHistogram::bucket_index(SimDuration::from_nanos(1)),
            1
        );
        assert_eq!(
            LatencyHistogram::bucket_index(SimDuration::from_nanos(2)),
            2
        );
        assert_eq!(
            LatencyHistogram::bucket_index(SimDuration::from_nanos(3)),
            2
        );
        assert_eq!(
            LatencyHistogram::bucket_index(SimDuration::from_nanos(4)),
            3
        );
        assert_eq!(
            LatencyHistogram::bucket_index(SimDuration::from_nanos(u64::MAX)),
            64
        );
        assert_eq!(LatencyHistogram::bucket_floor_nanos(0), 0);
        assert_eq!(LatencyHistogram::bucket_floor_nanos(3), 4);
    }

    #[test]
    fn histogram_tracks_count_total_min_max() {
        let mut h = LatencyHistogram::new();
        h.record(us(10));
        h.record(us(2));
        h.record(us(40));
        assert_eq!(h.count(), 3);
        assert_eq!(h.total(), us(52));
        assert_eq!(h.min(), us(2));
        assert_eq!(h.max(), us(40));
        assert_eq!(h.nonzero_buckets().count(), 3);
    }

    #[test]
    fn histogram_merge_adds_and_extends_bounds() {
        let mut a = LatencyHistogram::new();
        a.record(us(10));
        let mut b = LatencyHistogram::new();
        b.record(us(1));
        b.record(us(100));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), us(1));
        assert_eq!(a.max(), us(100));
        assert_eq!(a.total(), us(111));
    }

    #[test]
    fn disabled_histograms_record_nothing() {
        let mut h = Histograms::disabled();
        h.record("x", us(5));
        assert_eq!(h.iter().count(), 0);
        h.set_enabled(true);
        h.record("x", us(5));
        assert_eq!(h.get("x").map(LatencyHistogram::count), Some(1));
    }

    /// An empty busy timeline: a counter series in nanoseconds.
    fn busy_timeline() -> SeriesSnapshot {
        SeriesSnapshot::new(SeriesKind::Counter)
    }

    #[test]
    fn timeline_distributes_across_windows() {
        let mut t = busy_timeline();
        // [50us, 250us) spans three 100us windows: 50 + 100 + 50.
        t.record_interval(us(50), us(250));
        assert_eq!(t.buckets, [50_000, 100_000, 50_000]);
        assert_eq!(t.total, 200_000);
    }

    #[test]
    fn timeline_folds_epochs_into_continuous_time() {
        let mut r = crate::Resource::new("r");
        r.enable_timeline();
        r.acquire(SimTime::ZERO, us(40)); // op 1: busy 40us of a 100us epoch
        r.fold_epoch(us(100));
        r.acquire(SimTime::ZERO, us(40)); // op 2 lands in the second window
        assert_eq!(
            r.timeline().map(|t| &t.buckets[..]),
            Some(&[40_000, 40_000][..])
        );
    }

    #[test]
    fn timeline_overflow_catches_horizon_excess() {
        let horizon = TIMELINE_WINDOW * TIMELINE_BUCKETS as u64;
        let mut t = busy_timeline();
        t.record_interval(SimDuration::ZERO, horizon + us(300));
        assert_eq!(t.buckets.len(), TIMELINE_BUCKETS);
        assert!(t.buckets.iter().all(|&b| b == TIMELINE_WINDOW.as_nanos()));
        assert_eq!(t.overflow, 300_000);
        assert_eq!(t.total, (horizon + us(300)).as_nanos());
    }

    #[test]
    fn busy_time_past_the_horizon_is_reported_as_series_overflow() {
        let horizon = TIMELINE_WINDOW * TIMELINE_BUCKETS as u64;
        let mut r = crate::Resource::new("flash.ch[0]");
        r.enable_timeline();
        r.acquire(SimTime::ZERO, horizon + us(300));
        let mut report = RunReport::new();
        if let Some(t) = r.timeline() {
            report.add_busy(r.name(), t);
        }
        let json = report.to_json();
        let health = &json[json.find("\"series_overflow\"").unwrap()..];
        assert!(
            health.contains("\"busy.flash.ch[0]\": 300000"),
            "busy overflow missing from health: {health}"
        );
    }

    #[test]
    fn observability_configure_flips_collectors() {
        let mut obs = Observability::disabled();
        assert!(!obs.is_enabled());
        obs.configure(&ObsConfig::full());
        assert!(obs.journal().is_enabled());
        assert!(obs.histograms().is_enabled());
        obs.set_trace(traced());
        obs.event(SimTime::ZERO, ComponentId::singleton("x"), || {
            EventKind::PageRead {
                channel: 0,
                bank: 1,
            }
        });
        obs.latency("x", us(1));
        assert_eq!(obs.journal().events().count(), 1);
        obs.configure(&ObsConfig::disabled());
        assert!(!obs.is_enabled());
        assert_eq!(
            obs.journal().events().count(),
            0,
            "configure resets the journal"
        );
    }

    #[test]
    fn obs_config_states_and_what_configure_makes_of_them() {
        // Every reachable state: (config, collecting, tracing). Every
        // collector, the metric sampler included, records when collecting.
        let table = [
            (ObsConfig::disabled(), false, false),
            (ObsConfig::full(), true, false),
            (ObsConfig::traced(), true, true),
        ];
        for (config, collecting, tracing) in table {
            assert_eq!(config.collecting(), collecting, "{config:?}");
            assert_eq!(config.tracing(), tracing, "{config:?}");

            let mut obs = Observability::disabled();
            obs.configure(&config);
            assert_eq!(obs.journal().is_enabled(), collecting, "{config:?}");
            assert_eq!(obs.histograms().is_enabled(), collecting, "{config:?}");
            assert_eq!(obs.metrics().is_enabled(), collecting, "{config:?}");
        }
        assert_eq!(ObsConfig::default(), ObsConfig::disabled());
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = LatencyHistogram::new();
        for n in [100u64, 200, 400, 800, 1600, 3200, 6400, 12800] {
            h.record(SimDuration::from_nanos(n));
        }
        let mut last = SimDuration::ZERO;
        for step in 0..=100u64 {
            let q = h.quantile(step as f64 / 100.0);
            assert!(q >= last, "quantile must be monotone in q");
            assert!(
                q >= h.min() && q <= h.max(),
                "quantile must be in [min, max]"
            );
            last = q;
        }
        assert_eq!(LatencyHistogram::new().quantile(0.5), SimDuration::ZERO);
        // A single sample: every quantile collapses onto it (clamped).
        let mut one = LatencyHistogram::new();
        one.record(us(7));
        assert_eq!(one.quantile(0.0), us(7));
        assert_eq!(one.quantile(1.0), us(7));
    }

    #[test]
    fn trace_context_tags_and_shifts_events() {
        let mut j = Journal::enabled();
        let c = ComponentId::singleton("x");
        j.record(SimTime::ZERO + us(1), c, || EventKind::CommandIssued {
            bytes: 1,
        });
        let mut tracer = CommandTracer::new();
        tracer.finish(us(10)); // pretend an earlier command took 10us
        let ctx = tracer.begin();
        assert_eq!(ctx.id, 1);
        assert_eq!(ctx.origin, us(10));
        j.set_trace(ctx);
        j.record(SimTime::ZERO + us(2), c, || EventKind::CommandIssued {
            bytes: 2,
        });
        j.clear_trace();
        j.record(SimTime::ZERO + us(3), c, || EventKind::CommandIssued {
            bytes: 3,
        });
        let events: Vec<_> = j.events().copied().collect();
        assert_eq!(events.len(), 1, "only the traced event is retained");
        assert_eq!(events[0].trace, 1);
        assert_eq!(events[0].at, SimTime::ZERO + us(12), "origin-shifted");
        assert!(matches!(
            events[0].kind,
            EventKind::CommandIssued { bytes: 2 }
        ));
        let s = j.summary();
        assert_eq!(s.recorded, 3, "untraced events are still counted");
        assert_eq!(s.retained, 1);
        assert_eq!(s.dropped, 0);
        assert_eq!(s.by_kind.get("CommandIssued"), Some(&3));
    }

    #[test]
    fn command_partition_sums_exactly_to_latency() {
        let mut j = Journal::enabled();
        let c = ComponentId::singleton("system");
        let mut tracer = CommandTracer::new();
        let ctx = tracer.begin();
        j.set_trace(ctx);
        record_command_partition(
            &mut j,
            c,
            ctx,
            "read",
            us(10),
            &[
                (TraceStage::Flash, us(4)),
                (TraceStage::Link, us(3)),
                (TraceStage::Restructure, SimDuration::ZERO),
            ],
        );
        j.clear_trace();
        tracer.finish(us(10));
        let events: Vec<_> = j.events().copied().collect();
        // Begin, flash, link, other-pad, end — the zero stage is skipped.
        assert_eq!(events.len(), 5);
        let mut stage_sum = SimDuration::ZERO;
        let mut begin = SimTime::ZERO;
        let mut end = SimTime::ZERO;
        for e in &events {
            assert_eq!(e.trace, 1);
            match e.kind {
                EventKind::TraceBegin { trace, op } => {
                    assert_eq!((trace, op), (1, "read"));
                    begin = e.at;
                }
                EventKind::TraceEnd { trace } => {
                    assert_eq!(trace, 1);
                    end = e.at;
                }
                EventKind::StageSpan { dur, .. } => stage_sum += dur,
                _ => panic!("unexpected event kind"),
            }
        }
        assert_eq!(stage_sum, us(10), "stages must sum exactly to latency");
        assert_eq!(end.saturating_since(begin), us(10));
        assert_eq!(tracer.makespan(), us(10));
        assert!(matches!(
            events[3].kind,
            EventKind::StageSpan {
                stage: TraceStage::Other,
                dur,
                ..
            } if dur == us(3)
        ));
    }

    #[test]
    fn report_json_is_deterministic_and_escaped() {
        let build = || {
            let mut r = RunReport::new();
            r.set_meta("arch", "hardware-nds");
            r.set_meta("quote\"key", "line\nbreak");
            let mut stats = Stats::new();
            stats.add("link.commands", 7);
            r.add_counters(&stats);
            r.add_duration("run.total", us(42));
            let mut obs = Observability::disabled();
            obs.configure(&ObsConfig::full());
            obs.latency("flash.read_page", us(9));
            obs.event(SimTime::ZERO, ComponentId::singleton("flash"), || {
                EventKind::PageRead {
                    channel: 0,
                    bank: 0,
                }
            });
            r.absorb(&obs);
            let mut t = busy_timeline();
            t.record_interval(SimDuration::ZERO, us(150));
            r.add_busy("flash.ch[0]", &t);
            r
        };
        let a = build().to_json();
        let b = build().to_json();
        assert_eq!(a, b, "identical reports must serialize identically");
        assert!(a.contains("\"link.commands\": 7"));
        assert!(a.contains("\"run.total\": 42000"));
        assert!(a.contains("\"quote\\\"key\": \"line\\nbreak\""));
        assert!(a.contains("\"PageRead\": 1"));
        assert!(a.contains(
            "\"busy.flash.ch[0]\": { \"kind\": \"counter\", \"total\": 150000, \"overflow\": 0, \"values\": [100000, 50000] }"
        ));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn report_merge_prefixed_namespaces_every_section() {
        let mut inner = RunReport::new();
        inner.set_meta("arch", "baseline");
        let mut stats = Stats::new();
        stats.add("c", 1);
        inner.add_counters(&stats);
        inner.add_duration("d", us(1));
        let mut combined = RunReport::new();
        combined.merge_prefixed("baseline.", &inner);
        assert_eq!(combined.counters.get("baseline.c"), Some(&1));
        assert_eq!(combined.durations.get("baseline.d"), Some(&us(1)));
        assert_eq!(
            combined.meta.get("baseline.arch").map(String::as_str),
            Some("baseline")
        );
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let json = RunReport::new().to_json();
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"journal\": { \"recorded\": 0"));
    }
}

//! Windowed telemetry on modeled time: one windowed series for every
//! per-window measure.
//!
//! A [`SeriesSnapshot`] is per-window `u64` values on the run-long
//! *epoch-folded* clock: [`TIMELINE_BUCKETS`] windows of [`TIMELINE_WINDOW`],
//! an overflow tail past the last window, and a run total. One function maps
//! a run-long instant to its window or to the overflow, so every series
//! windows alike. Front-ends model every command in its own epoch anchored
//! at [`SimTime::ZERO`] and fold the finished epoch's span into the clock,
//! so consecutive operations land in consecutive windows instead of all
//! piling into window 0.
//!
//! Two series kinds exist:
//!
//! * **Counter** — per-window values *sum* (ops, bytes, faults). The sum
//!   over all windows plus the overflow tail equals the run total exactly;
//!   `crates/sim` property tests pin this window-fold invariant. A
//!   [`Resource`](crate::Resource)'s busy timeline is a counter series in
//!   nanoseconds whose busy intervals split across the windows they cover.
//! * **Gauge** — per-window values take the *maximum* observed sample
//!   (queue depth, backlog, devices up). The run-level aggregate is the
//!   high-water mark.
//!
//! [`MetricSet`] is the per-component sampler: named series plus
//! point-in-time [`Mark`]s for discrete events (faults, failovers). It
//! obeys the same contract as every other collector here: one branch when
//! disabled, observe-only (nothing in the schedule reads it back), and
//! all-integer so snapshots serialize deterministically.

use std::collections::BTreeMap;

use super::{ComponentId, EventKind};
use crate::{SimDuration, SimTime};

/// Width of every window of every series.
pub const TIMELINE_WINDOW: SimDuration = SimDuration::from_micros(100);

/// Windows per series; what falls past the last one goes to its overflow.
pub const TIMELINE_BUCKETS: usize = 4096;

/// The window a run-long instant falls in, or `None` past the last window.
fn window_of(at: SimDuration) -> Option<usize> {
    let index = at.as_nanos() / TIMELINE_WINDOW.as_nanos();
    usize::try_from(index)
        .ok()
        .filter(|&index| index < TIMELINE_BUCKETS)
}

/// How a series aggregates multiple observations inside one window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SeriesKind {
    /// Values within a window sum; window sums plus overflow equal the
    /// run total.
    Counter,
    /// A window keeps the maximum sample it saw (high-water gauge).
    Gauge,
}

impl SeriesKind {
    /// Stable lower-case name used in exported artifacts.
    pub const fn name(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
        }
    }

    /// Folds `value` into an aggregate of this kind.
    fn fold(self, slot: &mut u64, value: u64) {
        match self {
            SeriesKind::Counter => *slot += value,
            SeriesKind::Gauge => *slot = (*slot).max(value),
        }
    }
}

/// One windowed series over the run-long folded clock: a metric series, or
/// a resource's busy timeline (a counter in nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Aggregation kind of the series.
    pub kind: SeriesKind,
    /// Per-window values, from the start of the run.
    pub buckets: Vec<u64>,
    /// Counter weight (or gauge high-water) past the last window.
    pub overflow: u64,
    /// Run total (counters) or run high-water mark (gauges).
    pub total: u64,
}

impl SeriesSnapshot {
    /// An empty series of `kind`.
    pub(crate) fn new(kind: SeriesKind) -> Self {
        SeriesSnapshot {
            kind,
            buckets: Vec::new(),
            overflow: 0,
            total: 0,
        }
    }

    /// Records `value` at run-long instant `at`: into its window, or into
    /// the overflow past the last one.
    pub(crate) fn observe(&mut self, at: SimDuration, value: u64) {
        self.fold_into(window_of(at), value);
    }

    /// Adds the busy interval `[start, end)` of run-long time to a counter
    /// in nanoseconds, each window taking the part it covers.
    pub(crate) fn record_interval(&mut self, start: SimDuration, end: SimDuration) {
        let (mut at, end) = (start.as_nanos(), end.as_nanos());
        while at < end {
            let window = window_of(SimDuration(at));
            let window_end =
                window.map_or(end, |index| (index as u64 + 1) * TIMELINE_WINDOW.as_nanos());
            let take = end.min(window_end) - at;
            self.fold_into(window, take);
            at += take;
        }
    }

    fn fold_into(&mut self, window: Option<usize>, value: u64) {
        self.kind.fold(&mut self.total, value);
        let slot = match window {
            Some(index) => {
                if self.buckets.len() <= index {
                    self.buckets.resize(index + 1, 0);
                }
                &mut self.buckets[index]
            }
            None => &mut self.overflow,
        };
        self.kind.fold(slot, value);
    }

    /// Folds another snapshot of the same series into this one — counters
    /// sum element-wise, gauges take the element-wise maximum.
    pub fn merge(&mut self, other: &SeriesSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            self.kind.fold(mine, *theirs);
        }
        self.kind.fold(&mut self.overflow, other.overflow);
        self.kind.fold(&mut self.total, other.total);
    }
}

/// A labelled instant on the run-long folded clock — fault injections,
/// device kills, link transitions. The dashboard draws these as vertical
/// event markers over the series.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mark {
    /// Instant on the run-long clock (epoch offset included).
    pub at: SimDuration,
    /// Event label, e.g. `"kill device[2]"`.
    pub label: String,
}

/// Upper bound on retained marks per component (excess is counted, not
/// stored — a runaway fault plan must not grow the artifact unboundedly).
const MAX_MARKS: usize = 1024;

/// The windowed sampler: named [`SeriesKind::Counter`]/[`SeriesKind::Gauge`]
/// series plus event [`Mark`]s, all on the epoch-folded modeled clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricSet {
    enabled: bool,
    epoch_offset: SimDuration,
    series: BTreeMap<String, SeriesSnapshot>,
    marks: Vec<Mark>,
    marks_dropped: u64,
}

impl MetricSet {
    /// A disabled sampler (records nothing until configured on).
    pub fn disabled() -> Self {
        MetricSet::default()
    }

    /// An enabled sampler.
    pub fn enabled() -> Self {
        MetricSet {
            enabled: true,
            ..MetricSet::default()
        }
    }

    /// Whether samples are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The run-long instant of an epoch-local `at`.
    fn folded(&self, at: SimTime) -> SimDuration {
        self.epoch_offset + at.saturating_since(SimTime::ZERO)
    }

    fn observe_named(&mut self, at: SimTime, name: &str, kind: SeriesKind, value: u64) {
        let at = self.folded(at);
        if let Some(series) = self.series.get_mut(name) {
            series.observe(at, value);
            return;
        }
        let mut series = SeriesSnapshot::new(kind);
        series.observe(at, value);
        self.series.insert(name.to_owned(), series);
    }

    /// Adds `value` to the counter series `name` at epoch-local instant
    /// `at`. One branch when disabled.
    pub fn add(&mut self, at: SimTime, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        self.observe_named(at, name, SeriesKind::Counter, value);
    }

    /// Records a gauge sample: window `at` falls into keeps the maximum
    /// sample seen. One branch when disabled.
    pub fn sample(&mut self, at: SimTime, name: &str, value: u64) {
        if !self.enabled {
            return;
        }
        self.observe_named(at, name, SeriesKind::Gauge, value);
    }

    /// Records a labelled event mark at epoch-local instant `at`. The
    /// label closure never runs while disabled.
    pub fn mark(&mut self, at: SimTime, label: impl FnOnce() -> String) {
        if !self.enabled {
            return;
        }
        if self.marks.len() >= MAX_MARKS {
            self.marks_dropped += 1;
            return;
        }
        let at = self.folded(at);
        self.marks.push(Mark { at, label: label() });
    }

    /// Advances the epoch offset by the span of a finished epoch, so the
    /// next operation's samples continue the run-long axis (the
    /// [`Resource::fold_epoch`](crate::Resource::fold_epoch) discipline).
    pub fn fold_epoch(&mut self, span: SimDuration) {
        if !self.enabled {
            return;
        }
        self.epoch_offset += span;
    }

    /// Derives the standard series from a typed journal event — the single
    /// choke point every instrumented layer already routes through
    /// [`Observability::event`](super::Observability::event), so
    /// throughput, fault, GC, and cluster series need no extra hooks.
    pub fn observe_event(&mut self, at: SimTime, component: ComponentId, kind: &EventKind) {
        if !self.enabled {
            return;
        }
        match *kind {
            EventKind::CommandIssued { bytes } => {
                if component.group == "nvme.queue" {
                    self.add(at, "nvme.commands", 1);
                    self.add(at, "nvme.bytes", bytes);
                } else {
                    self.add(at, "link.commands", 1);
                    self.add(at, "link.bytes", bytes);
                }
            }
            EventKind::CommandCompleted { .. } => {}
            EventKind::PageRead { .. } => self.add(at, "flash.page_reads", 1),
            EventKind::PageProgrammed { .. } => self.add(at, "flash.page_programs", 1),
            EventKind::BlockErased { .. } => self.add(at, "flash.block_erases", 1),
            EventKind::GcVictimPicked { valid, .. } => {
                self.add(at, "gc.victims", 1);
                self.add(at, "gc.valid_moved", u64::from(valid));
            }
            EventKind::FaultInjected { .. } => self.add(at, "faults.injected", 1),
            EventKind::RetryScheduled { .. } => self.add(at, "faults.retries", 1),
            EventKind::ReplicaRead { .. } => self.add(at, "cluster.replica_reads", 1),
            EventKind::ReplicaCopied { bytes, .. } => {
                self.add(at, "cluster.replica_copies", 1);
                self.add(at, "cluster.replica_copy_bytes", bytes);
            }
            EventKind::DeviceDown { device } => {
                self.add(at, "cluster.failover_events", 1);
                self.mark(at, || format!("device[{device}] down"));
            }
            EventKind::DeviceUp { device } => {
                self.add(at, "cluster.failover_events", 1);
                self.mark(at, || format!("device[{device}] up"));
            }
            EventKind::SpanBegin { .. }
            | EventKind::SpanEnd { .. }
            | EventKind::TraceBegin { .. }
            | EventKind::TraceEnd { .. }
            | EventKind::StageSpan { .. } => {}
        }
    }

    /// Every series, sorted by name.
    pub fn snapshots(&self) -> impl Iterator<Item = (&str, &SeriesSnapshot)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The run-level total of series `name` (counter sum or gauge
    /// high-water), if recorded.
    pub fn total(&self, name: &str) -> Option<u64> {
        self.series.get(name).map(|s| s.total)
    }

    /// The retained event marks, in record order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Marks discarded after the retention cap filled.
    pub fn marks_dropped(&self) -> u64 {
        self.marks_dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Resource;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    fn at(n: u64) -> SimTime {
        SimTime::ZERO + us(n)
    }

    /// The run-long instant where the last window ends: 409.6 ms.
    const HORIZON_US: u64 = 100 * TIMELINE_BUCKETS as u64;

    #[test]
    fn disabled_sampler_records_nothing_and_skips_label_closure() {
        let mut m = MetricSet::disabled();
        let mut ran = false;
        m.add(at(0), "ops", 1);
        m.sample(at(0), "depth", 4);
        m.mark(at(0), || {
            ran = true;
            "boom".to_owned()
        });
        assert!(!ran, "mark label must not build while disabled");
        assert_eq!(m.snapshots().count(), 0);
        assert!(m.marks().is_empty());
    }

    #[test]
    fn counter_windows_sum_to_run_total() {
        let mut m = MetricSet::enabled();
        m.add(at(1), "bytes", 100);
        m.add(at(120), "bytes", 50);
        m.add(at(120), "bytes", 25);
        let (name, snap) = m.snapshots().next().expect("series recorded");
        assert_eq!(name, "bytes");
        assert_eq!(snap.kind, SeriesKind::Counter);
        assert_eq!(snap.buckets, [100, 75]);
        assert_eq!(snap.total, 175);
        assert_eq!(
            snap.buckets.iter().sum::<u64>() + snap.overflow,
            snap.total,
            "window-fold invariant"
        );
    }

    #[test]
    fn gauge_windows_keep_high_water() {
        let mut m = MetricSet::enabled();
        m.sample(at(1), "depth", 3);
        m.sample(at(20), "depth", 9);
        m.sample(at(99), "depth", 5);
        m.sample(at(150), "depth", 2);
        let (_, snap) = m.snapshots().next().expect("series recorded");
        assert_eq!(snap.kind, SeriesKind::Gauge);
        assert_eq!(snap.buckets, [9, 2]);
        assert_eq!(snap.total, 9);
    }

    #[test]
    fn fold_epoch_moves_later_ops_into_later_windows() {
        let mut m = MetricSet::enabled();
        m.add(at(0), "ops", 1);
        m.fold_epoch(us(100));
        m.add(at(0), "ops", 1);
        m.mark(at(5), || "fault".to_owned());
        let (_, snap) = m.snapshots().next().expect("series recorded");
        assert_eq!(snap.buckets, [1, 1]);
        assert_eq!(m.marks().len(), 1);
        assert_eq!(m.marks()[0].at, us(105), "marks fold like samples");
    }

    #[test]
    fn overflow_keeps_totals_exact_past_the_window_cap() {
        let mut m = MetricSet::enabled();
        m.add(at(5), "ops", 1);
        m.add(at(HORIZON_US + 5_000), "ops", 41);
        m.sample(at(5), "depth", 3);
        m.sample(at(HORIZON_US), "depth", 7);
        m.sample(at(HORIZON_US + 100), "depth", 4);
        let snaps: BTreeMap<_, _> = m.snapshots().collect();
        let ops = snaps["ops"];
        assert_eq!(ops.buckets, [1]);
        assert_eq!(ops.overflow, 41);
        assert_eq!(ops.total, 42);
        let depth = snaps["depth"];
        assert_eq!(depth.buckets, [3]);
        assert_eq!(depth.overflow, 7, "a gauge's overflow keeps its high water");
        assert_eq!(depth.total, 7);
    }

    #[test]
    fn a_busy_interval_and_a_sample_share_the_last_window_edge() {
        // A busy interval straddling the last window's end: its head lands
        // in window 4095, its tail in the overflow.
        let mut r = Resource::new("r");
        r.enable_timeline();
        r.fold_epoch(us(HORIZON_US - 30));
        r.acquire(SimTime::ZERO, us(80));
        let busy = r.timeline().expect("enabled");
        assert_eq!(busy.buckets.len(), TIMELINE_BUCKETS);
        assert_eq!(busy.buckets[TIMELINE_BUCKETS - 1], 30_000);
        assert!(busy.buckets[..TIMELINE_BUCKETS - 1].iter().all(|&b| b == 0));
        assert_eq!(busy.overflow, 50_000);
        assert_eq!(busy.total, 80_000);

        // A counter sample at the instant the interval crosses the edge
        // lands in the overflow too; one nanosecond earlier, in window 4095.
        let mut m = MetricSet::enabled();
        m.fold_epoch(us(HORIZON_US - 30));
        m.add(at(30), "ops", 1);
        m.add(at(30) - SimDuration::from_nanos(1), "ops", 2);
        let (_, ops) = m.snapshots().next().expect("series recorded");
        assert_eq!(ops.overflow, 1);
        assert_eq!(ops.buckets.len(), TIMELINE_BUCKETS);
        assert_eq!(ops.buckets[TIMELINE_BUCKETS - 1], 2);
    }

    #[test]
    fn derived_series_cover_the_event_taxonomy() {
        let mut m = MetricSet::enabled();
        let flash = ComponentId::singleton("flash");
        let queue = ComponentId::singleton("nvme.queue");
        let link = ComponentId::singleton("link");
        let cluster = ComponentId::singleton("cluster");
        m.observe_event(at(0), queue, &EventKind::CommandIssued { bytes: 64 });
        m.observe_event(at(0), link, &EventKind::CommandIssued { bytes: 32 });
        m.observe_event(
            at(0),
            flash,
            &EventKind::PageRead {
                channel: 0,
                bank: 0,
            },
        );
        m.observe_event(
            at(0),
            flash,
            &EventKind::FaultInjected {
                kind: "flash.read_transient",
            },
        );
        m.observe_event(at(0), flash, &EventKind::RetryScheduled { attempt: 1 });
        m.observe_event(at(0), cluster, &EventKind::DeviceDown { device: 2 });
        assert_eq!(m.total("nvme.bytes"), Some(64));
        assert_eq!(m.total("link.bytes"), Some(32));
        assert_eq!(m.total("flash.page_reads"), Some(1));
        assert_eq!(m.total("faults.injected"), Some(1));
        assert_eq!(m.total("faults.retries"), Some(1));
        assert_eq!(m.total("cluster.failover_events"), Some(1));
        assert_eq!(m.marks().len(), 1);
        assert_eq!(m.marks()[0].label, "device[2] down");
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges() {
        let mut a = SeriesSnapshot {
            kind: SeriesKind::Counter,
            buckets: vec![1, 2],
            overflow: 3,
            total: 6,
        };
        let b = SeriesSnapshot {
            kind: SeriesKind::Counter,
            buckets: vec![10, 10, 10],
            overflow: 1,
            total: 31,
        };
        a.merge(&b);
        assert_eq!(a.buckets, [11, 12, 10]);
        assert_eq!(a.overflow, 4);
        assert_eq!(a.total, 37);

        let mut g = SeriesSnapshot {
            kind: SeriesKind::Gauge,
            buckets: vec![5],
            overflow: 0,
            total: 5,
        };
        g.merge(&SeriesSnapshot {
            kind: SeriesKind::Gauge,
            buckets: vec![2, 7],
            overflow: 1,
            total: 7,
        });
        assert_eq!(g.buckets, [5, 7]);
        assert_eq!(g.total, 7);
    }

    #[test]
    fn marks_cap_counts_drops() {
        let mut m = MetricSet::enabled();
        for i in 0..(MAX_MARKS as u64 + 5) {
            m.mark(at(0), || format!("m{i}"));
        }
        assert_eq!(m.marks().len(), MAX_MARKS);
        assert_eq!(m.marks_dropped(), 5);
    }
}

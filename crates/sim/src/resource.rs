//! Occupancy-based resources.
//!
//! The reproduction's timing engine is *resource occupancy accounting*: every
//! serially-shared hardware component (a flash channel, a bank, the PCIe link,
//! a controller core) is a [`Resource`]. Work is scheduled by telling the
//! resource when its inputs are ready and how long the work holds the
//! resource; the resource replies with the completion instant, queueing the
//! work behind whatever it is already committed to. Groups of identical
//! components (the 32 channels of the prototype SSD) are a [`ResourceSet`].

use crate::obs::{BusyTimeline, TimelineSnapshot};
use crate::time::{SimDuration, SimTime};

/// A serially-occupied simulated resource.
///
/// A `Resource` remembers the instant it next becomes free and its cumulative
/// busy time, which is enough to model FIFO occupancy and pace a pipeline.
/// With [`enable_timeline`](Self::enable_timeline) it additionally samples its
/// busy intervals into a windowed [`BusyTimeline`] for the observability
/// layer; sampling only *observes* the computed start/end instants, so it can
/// never change the schedule.
///
/// # Example
///
/// ```
/// use nds_sim::{Resource, SimDuration, SimTime};
///
/// let mut bus = Resource::new("bus");
/// // Two back-to-back 10us transfers queue behind one another.
/// let first = bus.acquire(SimTime::ZERO, SimDuration::from_micros(10));
/// let second = bus.acquire(SimTime::ZERO, SimDuration::from_micros(10));
/// assert_eq!(first, SimTime::ZERO + SimDuration::from_micros(10));
/// assert_eq!(second, SimTime::ZERO + SimDuration::from_micros(20));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    name: String,
    next_free: SimTime,
    busy: SimDuration,
    timeline: Option<Box<BusyTimeline>>,
}

impl Resource {
    /// Creates an idle resource named `name` (names label its timeline in
    /// reports).
    pub fn new(name: impl Into<String>) -> Self {
        Resource {
            name: name.into(),
            next_free: SimTime::ZERO,
            busy: SimDuration::ZERO,
            timeline: None,
        }
    }

    /// Schedules work that becomes ready at `ready` and holds the resource
    /// for `hold`. Returns the completion instant.
    ///
    /// Work starts at `max(ready, next_free)` — i.e. it queues FIFO behind
    /// previously scheduled work.
    pub fn acquire(&mut self, ready: SimTime, hold: SimDuration) -> SimTime {
        let start = ready.max(self.next_free);
        let end = start + hold;
        self.next_free = end;
        self.busy += hold;
        if let Some(timeline) = &mut self.timeline {
            timeline.record(
                start.saturating_since(SimTime::ZERO),
                end.saturating_since(SimTime::ZERO),
            );
        }
        end
    }

    /// The instant the resource next becomes free.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }

    /// Total time the resource has been held in the current epoch.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// The resource's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resets the resource to idle at t = 0, clearing its busy time. A
    /// timeline, if enabled, survives: the finished epoch's span is folded
    /// into its epoch offset so the next epoch's busy intervals continue the
    /// run-long timeline.
    pub fn reset(&mut self) {
        self.fold_epoch(SimDuration::ZERO);
    }

    /// Ends the current per-operation epoch after `span` of modeled time and
    /// resets the resource to idle at t = 0. A timeline, if enabled, folds
    /// the *larger* of `span` and the resource's own drain into its epoch
    /// offset, so the next operation's busy intervals land where the
    /// operation actually started on the run-long clock.
    ///
    /// This matters whenever the operation's end-to-end latency exceeds the
    /// time this particular resource was committed (e.g. a flash channel
    /// that finished early while the link kept streaming): folding by the
    /// resource's own drain — what [`reset`](Self::reset) does — would slide
    /// later epochs backwards relative to the run clock. Front-ends call
    /// `fold_epoch(latency)` at operation end; a subsequent `reset` at the
    /// next operation's start then degenerates to a harmless zero-fold.
    pub fn fold_epoch(&mut self, span: SimDuration) {
        if let Some(timeline) = &mut self.timeline {
            let drain = self.next_free.saturating_since(SimTime::ZERO);
            timeline.fold_epoch(span.max(drain));
        }
        self.next_free = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
    }

    /// Enables windowed busy-time sampling into a [`BusyTimeline`] with the
    /// given bucket width and bucket cap. Replaces any existing timeline.
    pub fn enable_timeline(&mut self, window: SimDuration, max_buckets: usize) {
        self.timeline = Some(Box::new(BusyTimeline::new(window, max_buckets)));
    }

    /// The busy-time timeline, when sampling is enabled.
    pub fn timeline(&self) -> Option<&BusyTimeline> {
        self.timeline.as_deref()
    }

    /// A serializable copy of the timeline, when sampling is enabled.
    pub fn timeline_snapshot(&self) -> Option<TimelineSnapshot> {
        self.timeline.as_deref().map(BusyTimeline::snapshot)
    }
}

/// A bank of identical resources scheduled together.
///
/// `ResourceSet` models component arrays such as parallel flash channels.
/// Work is placed on a specific member: a page lives in one physical
/// channel.
///
/// # Example
///
/// ```
/// use nds_sim::{ResourceSet, SimDuration, SimTime};
///
/// let mut channels = ResourceSet::new("ch", 4);
/// // Four page reads land on four distinct channels: all finish together.
/// let done: Vec<_> = (0..4)
///     .map(|c| channels.acquire(c, SimTime::ZERO, SimDuration::from_micros(50)))
///     .collect();
/// assert!(done.iter().all(|&d| d == done[0]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourceSet {
    members: Vec<Resource>,
}

impl ResourceSet {
    /// Creates `count` idle resources named `name[0..count]`.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero.
    pub fn new(name: &str, count: usize) -> Self {
        assert!(count > 0, "a resource set needs at least one member");
        ResourceSet {
            members: (0..count)
                .map(|i| Resource::new(format!("{name}[{i}]")))
                .collect(),
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True if the set is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Schedules work on member `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn acquire(&mut self, index: usize, ready: SimTime, hold: SimDuration) -> SimTime {
        self.members[index].acquire(ready, hold)
    }

    /// Iterates over members.
    pub fn iter(&self) -> impl Iterator<Item = &Resource> {
        self.members.iter()
    }

    /// The latest next-free instant across members — when the whole set has
    /// drained all committed work.
    pub fn all_free_at(&self) -> SimTime {
        self.members
            .iter()
            .map(Resource::next_free)
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Total busy time summed over members.
    pub fn total_busy(&self) -> SimDuration {
        self.members.iter().map(Resource::busy_time).sum()
    }

    /// Resets every member to idle at t = 0 (timelines, if enabled, fold
    /// their finished epoch and keep accumulating — see
    /// [`Resource::reset`]).
    pub fn reset(&mut self) {
        for m in &mut self.members {
            m.reset();
        }
    }

    /// Ends the current epoch on every member after `span` of modeled time
    /// (see [`Resource::fold_epoch`]): each member's timeline advances by
    /// the same operation span, keeping parallel lanes aligned on the
    /// run-long clock.
    pub fn fold_epoch(&mut self, span: SimDuration) {
        for m in &mut self.members {
            m.fold_epoch(span);
        }
    }

    /// Enables windowed busy-time sampling on every member.
    pub fn enable_timelines(&mut self, window: SimDuration, max_buckets: usize) {
        for m in &mut self.members {
            m.enable_timeline(window, max_buckets);
        }
    }

    /// `(member name, timeline snapshot)` for every member with sampling
    /// enabled, in index order.
    pub fn timeline_snapshots(&self) -> Vec<(String, TimelineSnapshot)> {
        self.members
            .iter()
            .filter_map(|m| m.timeline_snapshot().map(|t| (m.name().to_owned(), t)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_queues_fifo() {
        let mut r = Resource::new("r");
        let a = r.acquire(SimTime::ZERO, SimDuration::from_micros(5));
        let b = r.acquire(SimTime::ZERO, SimDuration::from_micros(5));
        assert_eq!(a.as_nanos(), 5_000);
        assert_eq!(b.as_nanos(), 10_000);
        assert_eq!(r.busy_time(), SimDuration::from_micros(10));
    }

    #[test]
    fn resource_idles_until_ready() {
        let mut r = Resource::new("r");
        let end = r.acquire(SimTime::from_nanos(1_000), SimDuration::from_nanos(10));
        assert_eq!(end.as_nanos(), 1_010);
        // Work ready before next_free still queues.
        let end2 = r.acquire(SimTime::from_nanos(500), SimDuration::from_nanos(10));
        assert_eq!(end2.as_nanos(), 1_020);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = Resource::new("r");
        r.acquire(SimTime::ZERO, SimDuration::from_micros(5));
        r.reset();
        assert_eq!(r.next_free(), SimTime::ZERO);
        assert_eq!(r.busy_time(), SimDuration::ZERO);
    }

    #[test]
    fn timeline_survives_reset_and_concatenates_windows() {
        let mut r = Resource::new("r");
        let w = SimDuration::from_micros(10);
        r.enable_timeline(w, 64);
        r.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        r.reset(); // folds a 10us epoch
        r.acquire(SimTime::ZERO, SimDuration::from_micros(4));
        let timeline = r.timeline().expect("enabled");
        assert_eq!(
            timeline.buckets(),
            &[SimDuration::from_micros(10), SimDuration::from_micros(4)],
            "second window's work lands after the folded epoch"
        );
        assert_eq!(timeline.total_busy(), SimDuration::from_micros(14));
    }

    #[test]
    fn fold_epoch_uses_op_span_not_resource_drain() {
        // Regression (ISSUE 7): a resource that drains before the operation
        // ends must still advance its timeline by the full operation span,
        // or later operations' busy time slides backwards on the run-long
        // clock relative to the command tracer.
        let mut r = Resource::new("r");
        let w = SimDuration::from_micros(10);
        r.enable_timeline(w, 64);
        // Op 1: the resource is busy 10us, but the op takes 30us end to end.
        r.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        r.fold_epoch(SimDuration::from_micros(30));
        // Op 2's work must land in bucket 3 (t = 30us), not bucket 1.
        r.acquire(SimTime::ZERO, SimDuration::from_micros(4));
        let timeline = r.timeline().expect("enabled");
        assert_eq!(
            timeline.buckets(),
            &[
                SimDuration::from_micros(10),
                SimDuration::ZERO,
                SimDuration::ZERO,
                SimDuration::from_micros(4),
            ],
        );
    }

    #[test]
    fn fold_epoch_never_shrinks_below_drain() {
        // A span shorter than the resource's own drain cannot fold epochs
        // on top of each other.
        let mut r = Resource::new("r");
        let w = SimDuration::from_micros(10);
        r.enable_timeline(w, 64);
        r.acquire(SimTime::ZERO, SimDuration::from_micros(20));
        r.fold_epoch(SimDuration::from_micros(5));
        // State is re-anchored like reset().
        assert_eq!(r.next_free(), SimTime::ZERO);
        assert_eq!(r.busy_time(), SimDuration::ZERO);
        r.acquire(SimTime::ZERO, SimDuration::from_micros(10));
        let timeline = r.timeline().expect("enabled");
        assert_eq!(
            timeline.buckets(),
            &[
                SimDuration::from_micros(10),
                SimDuration::from_micros(10),
                SimDuration::from_micros(10),
            ],
            "second epoch starts at the drain (20us), not at 5us"
        );
    }

    #[test]
    fn set_fold_epoch_keeps_lanes_aligned() {
        let mut set = ResourceSet::new("ch", 2);
        set.enable_timelines(SimDuration::from_micros(10), 8);
        // Only lane 0 works in op 1, which spans 20us.
        set.acquire(0, SimTime::ZERO, SimDuration::from_micros(10));
        set.fold_epoch(SimDuration::from_micros(20));
        // Both lanes work in op 2; both must start at t = 20us.
        set.acquire(0, SimTime::ZERO, SimDuration::from_micros(5));
        set.acquire(1, SimTime::ZERO, SimDuration::from_micros(5));
        let snaps = set.timeline_snapshots();
        let z = SimDuration::ZERO;
        let five = SimDuration::from_micros(5);
        assert_eq!(
            snaps[0].1.buckets,
            vec![SimDuration::from_micros(10), z, five]
        );
        assert_eq!(snaps[1].1.buckets, vec![z, z, five]);
    }

    #[test]
    fn timeline_sampling_does_not_change_schedule() {
        let mut plain = Resource::new("r");
        let mut sampled = Resource::new("r");
        sampled.enable_timeline(SimDuration::from_micros(10), 8);
        for i in 0..20u64 {
            let ready = SimTime::ZERO + SimDuration::from_micros(i * 3);
            let hold = SimDuration::from_micros(5);
            assert_eq!(plain.acquire(ready, hold), sampled.acquire(ready, hold));
        }
        assert_eq!(plain.next_free(), sampled.next_free());
        assert_eq!(plain.busy_time(), sampled.busy_time());
    }

    #[test]
    fn set_parallel_members_overlap() {
        let mut set = ResourceSet::new("ch", 8);
        let d = SimDuration::from_micros(50);
        for c in 0..8 {
            let end = set.acquire(c, SimTime::ZERO, d);
            assert_eq!(end, SimTime::ZERO + d, "channel {c} should run in parallel");
        }
        assert_eq!(set.all_free_at(), SimTime::ZERO + d);
        assert_eq!(set.total_busy(), d * 8);
    }

    #[test]
    fn set_same_member_serializes() {
        let mut set = ResourceSet::new("ch", 8);
        let d = SimDuration::from_micros(50);
        set.acquire(3, SimTime::ZERO, d);
        let end = set.acquire(3, SimTime::ZERO, d);
        assert_eq!(end, SimTime::ZERO + d * 2);
    }

    #[test]
    fn set_timeline_snapshots_name_members() {
        let mut set = ResourceSet::new("ch", 2);
        set.enable_timelines(SimDuration::from_micros(10), 8);
        set.acquire(1, SimTime::ZERO, SimDuration::from_micros(5));
        let snaps = set.timeline_snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].0, "ch[0]");
        assert_eq!(snaps[1].0, "ch[1]");
        assert_eq!(snaps[1].1.buckets, vec![SimDuration::from_micros(5)]);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_set_rejected() {
        let _ = ResourceSet::new("x", 0);
    }
}

//! Occupancy-based resources.
//!
//! The reproduction's timing engine is *resource occupancy accounting*: every
//! serially-shared hardware component (a flash channel, a bank, the PCIe link,
//! a controller core) is a [`Resource`]. Work is scheduled by telling the
//! resource when its inputs are ready and how long the work holds the
//! resource; the resource replies with the completion instant, queueing the
//! work behind whatever it is already committed to. Groups of identical
//! components (the 32 channels of the prototype SSD) are a [`ResourceSet`].

use crate::obs::{SeriesKind, SeriesSnapshot};
use crate::time::{SimDuration, SimTime};

/// A serially-occupied simulated resource.
///
/// A `Resource` remembers the instant it next becomes free and its cumulative
/// busy time, which is enough to model FIFO occupancy and pace a pipeline.
/// With [`enable_timeline`](Self::enable_timeline) it additionally records its
/// busy intervals into a busy timeline, a counter [`SeriesSnapshot`] in
/// nanoseconds, for the observability layer; recording only *observes* the
/// computed start/end instants, so it can never change the schedule.
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
    timeline: Option<Box<Timeline>>,
}

/// A resource's busy timeline on the run-long clock.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Timeline {
    /// Where the current epoch starts on the run-long clock.
    epoch_start: SimDuration,
    /// Busy nanoseconds per window.
    busy: SeriesSnapshot,
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
            let origin = timeline.epoch_start;
            timeline.busy.record_interval(
                origin + start.saturating_since(SimTime::ZERO),
                origin + end.saturating_since(SimTime::ZERO),
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
    /// timeline, if enabled, survives: the resource's own drain is folded
    /// into its epoch start so the next epoch's busy intervals continue the
    /// run-long timeline.
    pub fn reset(&mut self) {
        let drain = self.next_free.saturating_since(SimTime::ZERO);
        self.end_epoch(drain);
    }

    /// Ends the current per-operation epoch after `span` of modeled time and
    /// resets the resource to idle at t = 0. A timeline, if enabled, folds
    /// `span` into its epoch start, so the next operation's busy intervals
    /// land where the operation actually started on the run-long clock.
    /// Front-ends call `fold_epoch(latency)` at operation end.
    ///
    /// The resource must have drained within `span` (checked in debug
    /// builds): a lane busy past its operation's end is modeled time that
    /// the operation's latency does not charge.
    pub fn fold_epoch(&mut self, span: SimDuration) {
        debug_assert!(
            self.next_free.saturating_since(SimTime::ZERO) <= span,
            "{} drained at {:?}, past its operation's span {span:?}",
            self.name,
            self.next_free,
        );
        self.end_epoch(span);
    }

    fn end_epoch(&mut self, span: SimDuration) {
        if let Some(timeline) = &mut self.timeline {
            timeline.epoch_start += span;
        }
        self.next_free = SimTime::ZERO;
        self.busy = SimDuration::ZERO;
    }

    /// Enables busy-time recording into a timeline. Replaces any existing
    /// timeline.
    pub fn enable_timeline(&mut self) {
        self.timeline = Some(Box::new(Timeline {
            epoch_start: SimDuration::ZERO,
            busy: SeriesSnapshot::new(SeriesKind::Counter),
        }));
    }

    /// The busy-time timeline, when recording is enabled.
    pub fn timeline(&self) -> Option<&SeriesSnapshot> {
        self.timeline.as_deref().map(|t| &t.busy)
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

    /// Enables busy-time recording on every member.
    pub fn enable_timelines(&mut self) {
        for m in &mut self.members {
            m.enable_timeline();
        }
    }

    /// `(member name, timeline)` for every member with recording enabled,
    /// in index order.
    pub fn timelines(&self) -> impl Iterator<Item = (&str, &SeriesSnapshot)> {
        self.members
            .iter()
            .filter_map(|m| m.timeline().map(|t| (m.name(), t)))
    }

    /// Run-long `(member name, busy time)` of every member with recording
    /// enabled, in index order.
    pub fn busy_totals(&self) -> Vec<(String, SimDuration)> {
        self.timelines()
            .map(|(name, t)| (name.to_owned(), SimDuration(t.total)))
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

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    /// A timeline's per-window busy nanoseconds.
    fn windows(r: &Resource) -> &[u64] {
        &r.timeline().expect("enabled").buckets
    }

    #[test]
    fn timeline_survives_reset_and_concatenates_windows() {
        let mut r = Resource::new("r");
        r.enable_timeline();
        r.acquire(SimTime::ZERO, us(100));
        r.reset(); // folds a 100us epoch: the resource's own drain
        r.acquire(SimTime::ZERO, us(40));
        assert_eq!(
            windows(&r),
            [100_000, 40_000],
            "second window's work lands after the folded epoch"
        );
        assert_eq!(r.timeline().expect("enabled").total, 140_000);
    }

    #[test]
    fn fold_epoch_uses_op_span_not_resource_drain() {
        // Regression (ISSUE 7): a resource that drains before the operation
        // ends must still advance its timeline by the full operation span,
        // or later operations' busy time slides backwards on the run-long
        // clock relative to the command tracer.
        let mut r = Resource::new("r");
        r.enable_timeline();
        // Op 1: the resource is busy 100us, but the op takes 300us end to end.
        r.acquire(SimTime::ZERO, us(100));
        r.fold_epoch(us(300));
        // Op 2's work must land in window 3 (t = 300us), not window 1.
        r.acquire(SimTime::ZERO, us(40));
        assert_eq!(windows(&r), [100_000, 0, 0, 40_000]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "r drained at")]
    fn fold_epoch_short_of_drain_panics() {
        // A lane busy past its operation's span is modeled time that the
        // operation's latency does not charge.
        let mut r = Resource::new("r");
        r.acquire(SimTime::ZERO, us(200));
        r.fold_epoch(us(50));
    }

    #[test]
    fn set_fold_epoch_keeps_lanes_aligned() {
        let mut set = ResourceSet::new("ch", 2);
        set.enable_timelines();
        // Only lane 0 works in op 1, which spans 200us.
        set.acquire(0, SimTime::ZERO, us(100));
        set.fold_epoch(us(200));
        // Both lanes work in op 2; both must start at t = 200us.
        set.acquire(0, SimTime::ZERO, us(50));
        set.acquire(1, SimTime::ZERO, us(50));
        let lanes: Vec<_> = set.timelines().map(|(_, t)| &t.buckets[..]).collect();
        assert_eq!(lanes, [&[100_000, 0, 50_000][..], &[0, 0, 50_000][..]]);
    }

    #[test]
    fn timeline_sampling_does_not_change_schedule() {
        let mut plain = Resource::new("r");
        let mut sampled = Resource::new("r");
        sampled.enable_timeline();
        for i in 0..20u64 {
            let ready = SimTime::ZERO + us(i * 30);
            let hold = us(50);
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
        set.enable_timelines();
        set.acquire(1, SimTime::ZERO, us(50));
        let names: Vec<_> = set.timelines().map(|(name, _)| name).collect();
        assert_eq!(names, ["ch[0]", "ch[1]"]);
        assert_eq!(
            set.timelines().nth(1).map(|(_, t)| &t.buckets[..]),
            Some(&[50_000][..])
        );
        assert_eq!(
            set.busy_totals(),
            [
                ("ch[0]".to_owned(), SimDuration::ZERO),
                ("ch[1]".to_owned(), us(50))
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_set_rejected() {
        let _ = ResourceSet::new("x", 0);
    }
}

//! Regression tests for the busy-timeline epoch fix (the single-stream
//! assumption the multi-tenant engine exposed): device and link resources
//! used to be *reset* at the start of every front-end operation, which
//! compressed every op's busy intervals into the first few timeline
//! buckets. With epoch folding, each operation's busy time lands at its
//! true offset on the run-long clock — op N+1's busy appears *after* the
//! cumulative latency of ops 1..N, never stacked on top of op 1's.

use nds_core::{ElementType, Shape};
use nds_sim::obs::TIMELINE_WINDOW;
use nds_sim::{ObsConfig, SimDuration};
use nds_system::{
    BaselineSystem, DatasetId, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig,
};

const N: u64 = 64;

fn setup(sys: &mut dyn StorageFrontEnd) -> DatasetId {
    let shape = Shape::new([N, N]);
    let id = sys
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let data: Vec<u8> = (0..N * N * 4).map(|i| (i % 251) as u8).collect();
    sys.write(id, &shape, &[0, 0], &[N, N], &data)
        .expect("setup write");
    id
}

/// The nanosecond offset of the last nonzero bucket's *end* across all of
/// the report's busy timelines (its `busy.` series), plus the total recorded
/// busy nanoseconds.
fn timeline_extent(sys: &dyn StorageFrontEnd) -> (u64, u64) {
    let report = sys.run_report();
    let timelines: Vec<_> = report
        .series
        .iter()
        .filter(|(name, _)| name.starts_with("busy."))
        .map(|(_, timeline)| timeline)
        .collect();
    assert!(
        !timelines.is_empty(),
        "full observability records timelines"
    );
    let window = TIMELINE_WINDOW.as_nanos();
    let mut extent = 0u64;
    let mut busy_total = 0u64;
    for timeline in timelines {
        for (i, &busy) in timeline.buckets.iter().enumerate() {
            if busy > 0 {
                extent = extent.max((i as u64 + 1) * window);
                busy_total += busy;
            }
        }
    }
    (extent, busy_total)
}

/// Scattered reads after a full-matrix write: later ops' busy intervals
/// must land beyond the earlier ops' cumulative latency instead of being
/// re-anchored at zero.
fn assert_epochs_accumulate(mut sys: impl StorageFrontEnd) {
    let shape = Shape::new([N, N]);
    let id = setup(&mut sys);
    // Column panels — the scattered pattern that exposed the bug (many
    // small commands per op, device busy spread across lanes).
    let mut elapsed = SimDuration::ZERO;
    let mut buf = Vec::new();
    for i in 0..4u64 {
        let m = sys
            .read_into(id, &shape, &[0, i % 8], &[N, 8], &mut buf)
            .expect("read");
        elapsed += m.latency();
    }
    let (extent, busy_total) = timeline_extent(&sys);
    assert!(busy_total > 0, "no busy time recorded");
    // The last read started after the first three finished, so some busy
    // time must sit beyond the cumulative latency of ops 1..3. Before the
    // epoch fix every op re-anchored to zero and the extent stayed within
    // one op's latency.
    let last = sys
        .read_into(id, &shape, &[0, 4], &[N, 8], &mut buf)
        .expect("read")
        .latency();
    let (extent_after, _) = timeline_extent(&sys);
    assert!(
        extent_after >= elapsed.as_nanos(),
        "timeline extent {extent_after} ns never reached the cumulative \
         latency {} ns of the preceding ops — busy time re-anchored to zero",
        elapsed.as_nanos()
    );
    assert!(
        extent_after >= extent,
        "timeline extent shrank after another op"
    );
    let _ = last;
}

#[test]
fn baseline_timeline_epochs_accumulate() {
    let config = SystemConfig::small_test().with_observability(ObsConfig::full());
    assert_epochs_accumulate(BaselineSystem::new(config));
}

#[test]
fn software_nds_timeline_epochs_accumulate() {
    let config = SystemConfig::small_test().with_observability(ObsConfig::full());
    assert_epochs_accumulate(SoftwareNds::new(config));
}

#[test]
fn hardware_nds_timeline_epochs_accumulate() {
    let config = SystemConfig::small_test().with_observability(ObsConfig::full());
    assert_epochs_accumulate(HardwareNds::new(config));
}

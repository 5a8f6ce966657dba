//! Schedule neutrality and determinism of the observability layer.
//!
//! The observability hooks (event journal, latency histograms, busy
//! timelines, windowed metric series) only *observe* completion instants the schedulers already
//! computed — they never acquire a shared resource or feed state back into
//! a timing decision. These tests prove it the strong way: every modeled
//! quantity of a Fig. 9-style sweep must be bit-identical with full
//! instrumentation on vs everything off, on every architecture — including
//! under an active fault plan, where the retry paths emit the most events.
//!
//! They also pin down report determinism: two identical instrumented runs
//! must serialize to byte-identical [`RunReport`] JSON, and that JSON must
//! match the golden file in `tests/golden/` (regenerate with
//! `NDS_BLESS_GOLDEN=1 cargo test -p nds-system --test obs_invariance`).

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_core::{ElementType, Shape};
use nds_faults::FaultConfig;
use nds_sim::ObsConfig;
use nds_system::{
    BaselineSystem, HardwareNds, NdsCluster, OracleSystem, SoftwareNds, StorageFrontEnd,
    SystemConfig,
};

#[path = "support/invariance.rs"]
mod invariance;

use invariance::{assert_same_outcomes, run, sweep, write_matrix};

const TILE: u64 = 64;

fn config(obs: ObsConfig) -> SystemConfig {
    SystemConfig::small_test().with_observability(obs)
}

fn faulty_config(obs: ObsConfig) -> SystemConfig {
    SystemConfig::small_test()
        .with_faults(FaultConfig::with_rate(424242, 0.05))
        .with_observability(obs)
}

#[test]
fn baseline_outcomes_identical_with_obs_on_and_off() {
    assert_same_outcomes(
        "obs",
        run(&mut BaselineSystem::new(config(ObsConfig::full()))),
        run(&mut BaselineSystem::new(config(ObsConfig::disabled()))),
    );
}

#[test]
fn software_nds_outcomes_identical_with_obs_on_and_off() {
    assert_same_outcomes(
        "obs",
        run(&mut SoftwareNds::new(config(ObsConfig::full()))),
        run(&mut SoftwareNds::new(config(ObsConfig::disabled()))),
    );
}

#[test]
fn hardware_nds_outcomes_identical_with_obs_on_and_off() {
    assert_same_outcomes(
        "obs",
        run(&mut HardwareNds::new(config(ObsConfig::full()))),
        run(&mut HardwareNds::new(config(ObsConfig::disabled()))),
    );
}

#[test]
fn oracle_outcomes_identical_with_obs_on_and_off() {
    assert_same_outcomes(
        "obs",
        run(&mut OracleSystem::with_tile(
            config(ObsConfig::full()),
            vec![TILE, TILE],
        )),
        run(&mut OracleSystem::with_tile(
            config(ObsConfig::disabled()),
            vec![TILE, TILE],
        )),
    );
}

#[test]
fn fault_recovery_outcomes_identical_with_obs_on_and_off() {
    // The retry paths emit the densest event traffic (FaultInjected,
    // RetryScheduled, re-recorded completions); they must stay neutral too.
    assert_same_outcomes(
        "obs",
        run(&mut SoftwareNds::new(faulty_config(ObsConfig::full()))),
        run(&mut SoftwareNds::new(faulty_config(ObsConfig::disabled()))),
    );
    assert_same_outcomes(
        "obs",
        run(&mut HardwareNds::new(faulty_config(ObsConfig::full()))),
        run(&mut HardwareNds::new(faulty_config(ObsConfig::disabled()))),
    );
}

#[test]
fn tracing_outcomes_identical_with_trace_on_and_off() {
    // Causal tracing (PR 5) piggybacks on the same observe-only hooks; the
    // trace clock and per-command partitions must never move a schedule.
    assert_same_outcomes(
        "obs",
        run(&mut BaselineSystem::new(config(ObsConfig::traced()))),
        run(&mut BaselineSystem::new(config(ObsConfig::disabled()))),
    );
    assert_same_outcomes(
        "obs",
        run(&mut SoftwareNds::new(config(ObsConfig::traced()))),
        run(&mut SoftwareNds::new(config(ObsConfig::disabled()))),
    );
    assert_same_outcomes(
        "obs",
        run(&mut HardwareNds::new(config(ObsConfig::traced()))),
        run(&mut HardwareNds::new(config(ObsConfig::disabled()))),
    );
    assert_same_outcomes(
        "obs",
        run(&mut OracleSystem::with_tile(
            config(ObsConfig::traced()),
            vec![TILE, TILE],
        )),
        run(&mut OracleSystem::with_tile(
            config(ObsConfig::disabled()),
            vec![TILE, TILE],
        )),
    );
}

#[test]
fn tracing_outcomes_identical_under_fault_plan() {
    // Retry paths run with a trace context set (tagged FaultInjected /
    // RetryScheduled events); recovery timing must stay bit-identical.
    assert_same_outcomes(
        "obs",
        run(&mut SoftwareNds::new(faulty_config(ObsConfig::traced()))),
        run(&mut SoftwareNds::new(faulty_config(ObsConfig::disabled()))),
    );
    assert_same_outcomes(
        "obs",
        run(&mut HardwareNds::new(faulty_config(ObsConfig::traced()))),
        run(&mut HardwareNds::new(faulty_config(ObsConfig::disabled()))),
    );
}

#[test]
fn trace_export_present_only_when_traced() {
    // Full instrumentation without tracing: no export.
    let mut sys = SoftwareNds::new(config(ObsConfig::full()));
    write_matrix(&mut sys);
    assert!(
        sys.trace_export().is_none(),
        "untraced run must export None"
    );
    // Traced run: export carries tagged events on the run-long clock.
    let mut sys = SoftwareNds::new(config(ObsConfig::traced()));
    let (id, shape, _) = write_matrix(&mut sys);
    sys.read(id, &shape, &[1, 1], &[128, 128]).expect("read");
    let export = sys.trace_export().expect("traced run must export Some");
    assert!(!export.events.is_empty());
    assert!(export.events.iter().all(|e| e.trace != 0));
    assert!(export.makespan > nds_sim::SimDuration::ZERO);
    assert!(!export.channels.is_empty(), "channel busy totals missing");
    let sorted = export.events.windows(2).all(|w| w[0].at <= w[1].at);
    assert!(sorted, "export events must be ordered by instant");
}

/// A 4 MiB write then eight whole reads: 73 728 page events on the one
/// device journal, past 2^16, so a journal bounded at any smaller size
/// would show here as a short export.
fn page_heavy_run(obs: ObsConfig) -> SoftwareNds {
    let side = 1024u64;
    let shape = Shape::new([side, side]);
    let bytes: Vec<u8> = (0..side * side * 4).map(|i| (i % 251) as u8).collect();
    let mut sys = SoftwareNds::new(config(obs));
    let id = sys
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    sys.write(id, &shape, &[0, 0], &[side, side], &bytes)
        .expect("write");
    for _ in 0..8 {
        sys.read(id, &shape, &[0, 0], &[side, side]).expect("read");
    }
    sys
}

#[test]
fn traced_export_keeps_every_event_the_journals_count() {
    let traced = page_heavy_run(ObsConfig::traced());
    let journal = traced.run_report().journal;
    let export = traced.trace_export().expect("traced run must export Some");
    for kind in ["PageProgrammed", "PageRead"] {
        let counted = journal.by_kind.get(kind).copied().unwrap_or(0);
        let exported = export
            .events
            .iter()
            .filter(|e| e.kind.name() == kind)
            .count() as u64;
        assert!(counted > 0, "the run must record {kind}");
        assert_eq!(exported, counted, "the trace lost {kind} events");
    }
    let page_events = journal.by_kind["PageProgrammed"] + journal.by_kind["PageRead"];
    assert!(page_events > 1 << 16, "{page_events} page events");
    assert_eq!(journal.retained, export.events.len() as u64);
    assert_eq!(journal.dropped, 0);

    // Untraced, the journals count the same events, less the traced run's
    // per-command partitions, and retain none.
    let mut untraced_kinds = journal.by_kind.clone();
    for kind in ["Trace", "StageSpan"] {
        untraced_kinds.remove(kind);
    }
    let full = page_heavy_run(ObsConfig::full()).run_report().journal;
    assert_eq!(full.by_kind, untraced_kinds);
    assert_eq!(full.retained, 0);
}

/// One instrumented run's report.
fn instrumented_report<S: StorageFrontEnd>(
    make: impl FnOnce(SystemConfig) -> S,
) -> nds_sim::RunReport {
    let mut sys = make(config(ObsConfig::full()));
    run(&mut sys);
    sys.run_report()
}

#[test]
fn run_report_json_is_byte_identical_across_runs() {
    let first = instrumented_report(SoftwareNds::new).to_json();
    let second = instrumented_report(SoftwareNds::new).to_json();
    assert_eq!(first, second, "repeated runs must serialize identically");
    let hw_first = instrumented_report(HardwareNds::new).to_json();
    let hw_second = instrumented_report(HardwareNds::new).to_json();
    assert_eq!(hw_first, hw_second);
}

/// The metric part of one instrumented run's report: its windowed series
/// and event marks, serialized on their own.
fn metrics_json(report: &nds_sim::RunReport) -> String {
    nds_sim::RunReport {
        series: report.series.clone(),
        marks: report.marks.clone(),
        ..nds_sim::RunReport::new()
    }
    .to_json()
}

#[test]
fn metrics_json_is_byte_identical_across_runs() {
    let first = metrics_json(&instrumented_report(SoftwareNds::new));
    let second = metrics_json(&instrumented_report(SoftwareNds::new));
    assert_eq!(first, second, "repeated runs must serialize identically");
    let hw = instrumented_report(HardwareNds::new);
    let hw_second = instrumented_report(HardwareNds::new);
    assert_eq!(metrics_json(&hw), metrics_json(&hw_second));

    // The controller carries each request as one NVMe command, and each
    // completes before the next is issued.
    let requests = 1 + sweep().len() as u64;
    let total = |name: &str| hw.series.get(name).map(|s| s.total);
    assert_eq!(total("nvme.commands"), Some(requests));
    assert_eq!(total("nvme.queue_depth"), Some(1), "queue-depth high-water");
}

#[test]
fn run_report_matches_golden() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/obs_report_software_nds.json"
    );
    let mut actual = instrumented_report(SoftwareNds::new).to_json();
    actual.push('\n');
    if std::env::var_os("NDS_BLESS_GOLDEN").is_some() {
        std::fs::write(golden_path, &actual).expect("bless golden");
        return;
    }
    let golden = std::fs::read_to_string(golden_path)
        .expect("golden file missing — run with NDS_BLESS_GOLDEN=1 to create it");
    assert_eq!(
        actual, golden,
        "RunReport JSON drifted from tests/golden/obs_report_software_nds.json; \
         if the change is intentional, regenerate with NDS_BLESS_GOLDEN=1"
    );
}

#[test]
fn instrumented_report_actually_contains_observations() {
    // Guard against the neutrality tests passing vacuously because the
    // hooks silently stopped recording.
    let json = instrumented_report(HardwareNds::new).to_json();
    for needle in [
        "\"flash.read_page\"",
        "\"link.command\"",
        "\"read.latency\"",
        "\"write.latency\"",
        "\"journal\"",
        "\"busy.link\"",
        "\"busy.flash.ch[0]\"",
        "\"Command\"",
    ] {
        assert!(json.contains(needle), "report lost {needle}");
    }
}

// ---------------------------------------------------------------------------
// Windowed time-series sampler: it runs whenever the layer collects, so the
// neutrality tests above cover it; what follows pins the series themselves.
// ---------------------------------------------------------------------------

#[test]
fn tenant_engine_neutral_under_metrics() {
    use nds_system::TrafficEngine;
    use nds_workloads::tenants::mixed_open_closed;
    let set = mixed_open_closed(42, 16, 8);
    let run_engine = |metrics: bool| {
        let obs = if metrics {
            ObsConfig::full()
        } else {
            ObsConfig::disabled()
        };
        let sys = HardwareNds::new(SystemConfig::small_test().with_observability(obs));
        let mut engine = TrafficEngine::new(sys, &set).expect("tenant setup");
        engine.run().expect("engine run");
        (engine.makespan(), engine.report().to_json())
    };
    let (makespan_on, report_on) = run_engine(true);
    let (makespan_off, report_off) = run_engine(false);
    assert_eq!(makespan_on, makespan_off, "metrics moved the WFQ schedule");
    // `report()` is built exclusively from always-on engine-side accounting:
    // it must serialize identically whether or not the sampler ran.
    assert_eq!(report_on, report_off, "engine report lost obs-invariance");
}

/// The engine's sampler follows the front-end it drives: built over a
/// collecting system, with no other call, it records its own series, and
/// `report()` still serializes as over a system that collects nothing.
#[test]
fn tenant_engine_samples_when_its_front_end_collects() {
    use nds_system::{ClusterConfig, TrafficEngine};
    use nds_workloads::tenants::mixed_open_closed;
    let set = mixed_open_closed(42, 4, 8);
    let engine_over = |obs: ObsConfig| {
        let sys = HardwareNds::new(config(obs));
        let mut engine = TrafficEngine::new(sys, &set).expect("tenant setup");
        engine.run().expect("engine run");
        engine
    };
    let on = engine_over(ObsConfig::full());
    let off = engine_over(ObsConfig::disabled());
    let series = on.full_report().series;
    for name in ["engine.ops", "tenant[0].bytes"] {
        assert!(series.contains_key(name), "no {name} series");
    }
    assert!(!off.full_report().series.contains_key("engine.ops"));
    assert_eq!(on.report().to_json(), off.report().to_json());

    let cluster = |obs: ObsConfig| {
        NdsCluster::new(ClusterConfig::new(2, 1).with_observability(obs), |_| {
            HardwareNds::new(SystemConfig::small_test())
        })
    };
    assert!(cluster(ObsConfig::full()).collecting());
    assert!(!cluster(ObsConfig::disabled()).collecting());
}

/// Operations of the cluster replay.
const CLUSTER_OPS: u64 = 48;

/// Replays a seeded cluster mix with a device kill half way; returns every
/// modeled per-op outcome, and the cluster.
fn cluster_replay(obs: ObsConfig) -> (Vec<(u64, u64, u64)>, NdsCluster<HardwareNds>) {
    use nds_faults::ClusterFaultPlan;
    use nds_system::ClusterConfig;
    use nds_workloads::cluster::{cluster_dataset, cluster_mix, payload_byte};
    let mix = cluster_mix(7, CLUSTER_OPS as usize, 60);
    let cfg = ClusterConfig::new(4, 2)
        .with_shard_rows(24)
        .with_seed(7)
        .with_observability(obs)
        .with_plan(ClusterFaultPlan::kill_at(CLUSTER_OPS / 2, 0));
    let mut cluster = NdsCluster::new(cfg, |_| {
        HardwareNds::new(SystemConfig::small_test().with_observability(obs))
    });
    let (shape, element) = cluster_dataset();
    let id = cluster
        .create_dataset(shape.clone(), element)
        .expect("create");
    let esize = element.size() as u64;
    let mut outcomes = Vec::new();
    let mut buf = Vec::new();
    for op in &mix {
        if op.write {
            let elems: u64 = op.sub_dims.iter().product();
            let data: Vec<u8> = (0..elems * esize)
                .map(|i| payload_byte(op.salt, i))
                .collect();
            let out = cluster
                .write(id, &shape, &op.coord, &op.sub_dims, &data)
                .expect("clustered write");
            outcomes.push((out.bytes, out.latency.as_nanos(), out.commands));
        } else {
            let m = cluster
                .read_into(id, &shape, &op.coord, &op.sub_dims, &mut buf)
                .expect("clustered read");
            outcomes.push((m.bytes, m.io_latency.as_nanos(), m.commands));
        }
    }
    (outcomes, cluster)
}

#[test]
fn cluster_outcomes_identical_with_metrics_on_and_off_under_fault_plan() {
    assert_eq!(
        cluster_replay(ObsConfig::full()).0,
        cluster_replay(ObsConfig::disabled()).0,
        "cluster failover timing diverges with metrics on vs off"
    );
}

#[test]
fn series_window_sums_match_run_totals() {
    // The fold property: for every counter series, busy timelines included,
    // the retained window values plus the overflow weight account exactly
    // for the run total.
    let report = instrumented_report(SoftwareNds::new);
    let mut counters = 0usize;
    for (name, s) in &report.series {
        if matches!(s.kind, nds_sim::SeriesKind::Counter) {
            assert_eq!(
                s.buckets.iter().sum::<u64>() + s.overflow,
                s.total,
                "window fold of {name} does not sum to the run total"
            );
            counters += 1;
        } else {
            let peak = s.buckets.iter().copied().max().unwrap_or(0).max(s.overflow);
            assert_eq!(peak, s.total, "gauge {name} high-water != max window");
        }
    }
    assert!(counters > 0, "no counter series recorded");
    assert!(
        report
            .series
            .keys()
            .any(|name| name.starts_with("busy.flash.")),
        "no busy timeline among the series"
    );
    // Cross-check one series against ground truth: one write plus the
    // ten-read sweep, each counted once at the host front end.
    let host_ops = report.series.get("host.ops").expect("host.ops series");
    assert_eq!(host_ops.total, 1 + sweep().len() as u64);
}

#[test]
fn cluster_failover_series_is_not_vacuous() {
    // A failover run must actually produce failover telemetry: series hits
    // and a human-readable mark at the kill instant.
    let report = cluster_replay(ObsConfig::full()).1.full_report();
    let failovers = report
        .series
        .get("cluster.failover_events")
        .expect("failover series missing");
    assert!(
        failovers.total > 0,
        "device kill produced no failover events"
    );
    assert!(
        report.marks.iter().any(|m| m.label.contains("down")),
        "no device-down mark recorded"
    );
    let ops_series = report.series.get("cluster.ops").expect("cluster.ops");
    assert_eq!(
        ops_series.total, CLUSTER_OPS,
        "cluster op series lost operations"
    );
}

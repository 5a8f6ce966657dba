//! What the shared command lifecycle and dataset table must keep identical
//! across the three flash-backed front-ends — and the places they differ,
//! written down rather than normalised (DESIGN.md "Command lifecycle").

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_core::{ElementType, Shape};
use nds_sim::{EventKind, ObsConfig};
use nds_system::{
    BaselineSystem, DatasetId, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig, SystemError,
};

const N: u64 = 128;

/// The three architectures, fully instrumented, behind one table.
fn architectures() -> Vec<Box<dyn StorageFrontEnd>> {
    let config =
        || SystemConfig::small_test().with_observability(ObsConfig::traced().with_metrics());
    vec![
        Box::new(BaselineSystem::new(config())),
        Box::new(SoftwareNds::new(config())),
        Box::new(HardwareNds::new(config())),
    ]
}

/// One whole-matrix write, then one strided (column-panel) read.
fn write_then_strided_read(sys: &mut dyn StorageFrontEnd) {
    let shape = Shape::new([N, N]);
    let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
    let data: Vec<u8> = (0..N * N * 4).map(|i| (i % 251) as u8).collect();
    sys.write(id, &shape, &[0, 0], &[N, N], &data).unwrap();
    sys.read(id, &shape, &[1, 0], &[16, N]).unwrap();
}

#[test]
fn system_level_names_are_the_same_set_on_every_architecture() {
    for mut sys in architectures() {
        write_then_strided_read(sys.as_mut());
        let arch = sys.name();
        let report = sys.run_report();

        let system_counters: Vec<&str> = report
            .counters
            .keys()
            .map(String::as_str)
            .filter(|k| k.starts_with("system."))
            .collect();
        assert_eq!(
            system_counters,
            [
                "system.read_bytes",
                "system.read_commands",
                "system.write_bytes",
                "system.write_commands"
            ],
            "{arch}"
        );
        for histogram in ["read.io_latency", "read.latency", "write.latency"] {
            assert!(
                report.histograms.contains_key(histogram),
                "{arch}: no {histogram} histogram"
            );
        }
        let host_series: Vec<&str> = report
            .series
            .keys()
            .map(String::as_str)
            .filter(|k| k.starts_with("host."))
            .collect();
        assert_eq!(host_series, ["host.bytes", "host.ops"], "{arch}");
        assert_eq!(sys.trace_cursor(), 2, "{arch}: one trace id per op");
    }
}

#[test]
fn only_hardware_nds_exports_trace_tagged_request_spans() {
    for mut sys in architectures() {
        write_then_strided_read(sys.as_mut());
        let export = sys.trace_export().expect("tracing is configured");
        let spans = export
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. }
                )
            })
            .count();
        // Hardware NDS records the request span inside the trace scope
        // (a begin/end pair per op); baseline and software NDS record it
        // after the scope closes, so it never reaches the export.
        let expected = if sys.name() == "hardware-nds" { 4 } else { 0 };
        assert_eq!(spans, expected, "{}", sys.name());
    }
}

#[test]
fn unknown_dataset_is_rejected_before_a_trace_id_is_allocated() {
    for mut sys in architectures() {
        write_then_strided_read(sys.as_mut());
        let arch = sys.name();
        let before = sys.trace_cursor();
        let shape = Shape::new([4]);
        let ghost = DatasetId(99);
        let read = sys.read(ghost, &shape, &[0], &[4]).unwrap_err();
        assert!(matches!(read, SystemError::UnknownDataset(_)), "{arch}");
        let write = sys.write(ghost, &shape, &[0], &[4], &[0; 16]).unwrap_err();
        assert!(matches!(write, SystemError::UnknownDataset(_)), "{arch}");
        assert_eq!(sys.trace_cursor(), before, "{arch}: cursor moved");
    }
}

#[test]
fn one_dataset_table_serves_every_architecture() {
    let names = ["baseline", "software-nds", "hardware-nds"];
    for (mut sys, name) in architectures().into_iter().zip(names) {
        assert_eq!(sys.name(), name);
        let shape = Shape::new([32, 32]);
        let unknown = |r: Result<_, SystemError>| matches!(r, Err(SystemError::UnknownDataset(_)));

        let first = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        sys.write(first, &shape, &[0, 0], &[32, 32], &[1; 32 * 32 * 4])
            .unwrap();
        assert!(
            unknown(sys.delete_dataset(DatasetId(99))),
            "{name}: unknown id"
        );
        sys.delete_dataset(first).unwrap();
        assert!(unknown(sys.delete_dataset(first)), "{name}: deleted twice");
        assert!(
            unknown(sys.read(first, &shape, &[0, 0], &[4, 4]).map(drop)),
            "{name}: read of a deleted id"
        );
        assert!(
            unknown(
                sys.write(first, &shape, &[0, 0], &[4, 4], &[0; 64])
                    .map(drop)
            ),
            "{name}: write of a deleted id"
        );
        let second = sys.create_dataset(shape, ElementType::F32).unwrap();
        assert!(second > first, "{name}: id {second:?} reused");

        // Only the controller's deallocation crosses the link as a command.
        let deletes = sys
            .stats()
            .iter()
            .find(|&(counter, _)| counter == "system.delete_commands")
            .map(|(_, n)| n);
        let expected = (name == "hardware-nds").then_some(1);
        assert_eq!(deletes, expected, "{name}");
    }
}

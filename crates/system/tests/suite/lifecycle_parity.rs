//! What the shared command lifecycle and dataset table must keep identical
//! across the four flash-backed front-ends — one trace rule and one call
//! order on every placement (DESIGN.md "Command lifecycle") — and the one
//! place they differ: only the controller's deletes are commands.

use nds_core::{ElementType, NdsError, Shape};
use nds_sim::{EventKind, ObsConfig, TraceExport};
use nds_system::{
    BaselineSystem, DatasetId, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd,
    SystemConfig, SystemError,
};

const N: u64 = 128;

/// The four architectures, fully instrumented, behind one table.
fn architectures() -> Vec<Box<dyn StorageFrontEnd>> {
    let config = || SystemConfig::small_test().with_observability(ObsConfig::traced());
    vec![
        Box::new(BaselineSystem::new(config())),
        Box::new(SoftwareNds::new(config())),
        Box::new(HardwareNds::new(config())),
        Box::new(OracleSystem::with_tile(config(), vec![32, 32])),
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

/// The number of `kind` events in `export`.
fn exported(export: &TraceExport, kind: fn(&EventKind) -> bool) -> usize {
    export.events.iter().filter(|e| kind(&e.kind)).count()
}

#[test]
fn every_placement_exports_trace_tagged_request_spans() {
    for mut sys in architectures() {
        write_then_strided_read(sys.as_mut());
        let export = sys.trace_export().expect("tracing is configured");
        // Every placement records the request span inside the trace scope:
        // a begin/end pair per op.
        let span =
            |k: &EventKind| matches!(k, EventKind::SpanBegin { .. } | EventKind::SpanEnd { .. });
        assert_eq!(exported(&export, span), 4, "{}", sys.name());
    }
}

#[test]
fn every_placement_exports_all_of_its_garbage_collection() {
    for mut sys in architectures() {
        let arch = sys.name();
        let shape = Shape::new([N, N]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data = vec![7; (N * N * 4) as usize];
        // Overwrite until the store has collected once: the smallest churn
        // that triggers GC.
        let gc_runs = |sys: &dyn StorageFrontEnd| -> u64 {
            let stats = sys.stats();
            let runs = stats.iter().filter(|(name, _)| name.ends_with(".gc_runs"));
            runs.map(|(_, n)| n).sum()
        };
        let mut overwrites = 0;
        while gc_runs(sys.as_ref()) == 0 {
            assert!(overwrites < 10_000, "{arch}: overwrites never triggered GC");
            sys.write(id, &shape, &[0, 0], &[N, N], &data).unwrap();
            overwrites += 1;
        }
        let report = sys.run_report();
        let journaled = report.journal.by_kind.get("GcVictimPicked").copied();
        let export = sys.trace_export().expect("tracing is configured");
        let gc = |k: &EventKind| matches!(k, EventKind::GcVictimPicked { .. });
        let exported = exported(&export, gc) as u64;
        assert!(exported > 0, "{arch}: no GC in the trace");
        assert_eq!(
            Some(exported),
            journaled,
            "{arch}: GC missing from the trace"
        );
    }
}

/// A malformed request on a known dataset: what makes it malformed, the
/// request, and the error it must be refused with.
type Refusal = (
    &'static str,
    fn(&mut dyn StorageFrontEnd, DatasetId) -> Result<(), SystemError>,
    fn(&NdsError) -> bool,
);

#[test]
fn a_refused_request_is_one_closed_traced_command_that_changes_nothing() {
    let shape = Shape::new([32, 32]);
    let refusals: [Refusal; 3] = [
        (
            "view-volume mismatch",
            |sys, id| {
                sys.read(id, &Shape::new([16, 16]), &[0, 0], &[16, 16])
                    .map(drop)
            },
            |e| matches!(e, NdsError::ViewVolumeMismatch { .. }),
        ),
        (
            "out-of-bounds coordinate",
            |sys, id| {
                sys.read(id, &Shape::new([32, 32]), &[4, 0], &[8, 8])
                    .map(drop)
            },
            |e| matches!(e, NdsError::OutOfBounds { .. }),
        ),
        (
            "short write payload",
            |sys, id| {
                sys.write(id, &Shape::new([32, 32]), &[0, 0], &[32, 32], &[9; 16])
                    .map(drop)
            },
            |e| matches!(e, NdsError::BadPayloadSize { .. }),
        ),
    ];
    for mut sys in architectures() {
        let arch = sys.name();
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..32 * 32 * 4).map(|i| (i % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[32, 32], &data).unwrap();
        let mut refused = Vec::new();
        for (what, refuse, expected) in refusals {
            let before = sys.trace_cursor();
            let err = refuse(sys.as_mut(), id).expect_err(what);
            assert!(
                matches!(&err, SystemError::Nds(e) if expected(e)),
                "{arch}: {what}: {err:?}"
            );
            assert_eq!(sys.trace_cursor(), before + 1, "{arch}: {what}");
            refused.push((what, before + 1));
            // The refusal changed nothing: the next command reads the
            // dataset's earlier bytes.
            let read = sys.read(id, &shape, &[0, 0], &[32, 32]).unwrap();
            assert_eq!(read.data, data, "{arch}: {what}");
        }

        let export = sys.trace_export().expect("tracing is configured");
        let bound = |trace: u64, end: bool| {
            let event = export.events.iter().find(|e| match e.kind {
                EventKind::TraceBegin { trace: t, .. } => !end && t == trace,
                EventKind::TraceEnd { trace: t } => end && t == trace,
                _ => false,
            });
            event.map(|e| e.at)
        };
        for (what, trace) in refused {
            let begin = bound(trace, false).expect("refused command opened");
            let end = bound(trace, true);
            let end = end.unwrap_or_else(|| panic!("{arch}: {what}: trace {trace} left open"));
            for e in export.events.iter().filter(|e| e.trace == trace) {
                assert!(
                    (begin..=end).contains(&e.at),
                    "{arch}: {what}: {:?} outside its partition",
                    e.kind
                );
            }
            let next = bound(trace + 1, false);
            assert_eq!(next, Some(end), "{arch}: {what}: next command's origin");
        }
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
    let names = ["baseline", "software-nds", "hardware-nds", "oracle"];
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

//! Fault-recovery behavior of the system architectures: exhausted retry
//! budgets surface as *typed* errors (never panics), permanent program
//! failures remap onto fresh blocks without losing acknowledged data, and
//! read-disturb pressure triggers preventive migration that the application
//! never observes, and a failed command leaves no trace scope open.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_core::testing::FlakyBackend;
use nds_core::{DeviceSpec, ElementType, NdsError, Shape, Stl, StlConfig};
use nds_faults::FaultConfig;
use nds_flash::FlashError;
use nds_sim::{EventKind, ObsConfig, SimDuration, SimTime};
use nds_system::{
    BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig, SystemError,
};

fn checkered(n: u64) -> Vec<u8> {
    (0..n * n * 4).map(|i| (i % 251) as u8).collect()
}

/// How long an event's interval lasts (zero for an instant).
fn interval(kind: &EventKind) -> SimDuration {
    match *kind {
        EventKind::Command { dur, .. }
        | EventKind::Span { dur, .. }
        | EventKind::Trace { dur, .. }
        | EventKind::StageSpan { dur, .. } => dur,
        _ => SimDuration::ZERO,
    }
}

fn write_full(sys: &mut dyn StorageFrontEnd, n: u64, data: &[u8]) -> nds_system::DatasetId {
    let shape = Shape::new([n, n]);
    let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
    sys.write(id, &shape, &[0, 0], &[n, n], data).unwrap();
    id
}

#[test]
fn exhausted_link_budget_is_a_typed_error_on_every_architecture() {
    // Every link command faults and there are no retransmissions left.
    let faults = FaultConfig {
        seed: 7,
        link_fault_rate: 1.0,
        link_retry_budget: 0,
        ..FaultConfig::disabled()
    };
    let config = SystemConfig::small_test().with_faults(faults);
    let shape = Shape::new([32, 32]);
    let data = vec![5u8; 32 * 32 * 4];
    let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
        Box::new(BaselineSystem::new(config.clone())),
        Box::new(SoftwareNds::new(config.clone())),
        Box::new(HardwareNds::new(config)),
    ];
    for sys in &mut systems {
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let err = sys
            .write(id, &shape, &[0, 0], &[32, 32], &data)
            .expect_err("zero link budget cannot complete a transfer");
        assert!(
            matches!(err, SystemError::Link(_)),
            "{}: expected a link error, got {err}",
            sys.name()
        );
    }
}

#[test]
fn exhausted_read_budget_is_a_typed_flash_error() {
    // Every media read faults beyond a zero retry budget; programs and the
    // link stay healthy so the data lands intact.
    let faults = FaultConfig {
        seed: 21,
        media_read_rate: 1.0,
        read_retry_budget: 0,
        ..FaultConfig::disabled()
    };
    let config = SystemConfig::small_test().with_faults(faults);
    let n = 32;
    let shape = Shape::new([n, n]);
    let data = checkered(n);
    let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
        Box::new(BaselineSystem::new(config.clone())),
        Box::new(SoftwareNds::new(config.clone())),
        Box::new(HardwareNds::new(config)),
    ];
    for sys in &mut systems {
        let id = write_full(sys.as_mut(), n, &data);
        let err = sys
            .read(id, &shape, &[0, 0], &[n, n])
            .expect_err("unrecoverable ECC failure must surface");
        assert!(
            matches!(err, SystemError::Flash(FlashError::ReadUnrecoverable(_))),
            "{}: expected an unrecoverable-read error, got {err}",
            sys.name()
        );
    }
}

#[test]
fn a_failed_command_closes_its_trace_scope_and_advances_the_trace_clock() {
    // Reads fail unrecoverably (after spending device time); writes succeed.
    let faults = FaultConfig {
        seed: 21,
        media_read_rate: 1.0,
        read_retry_budget: 0,
        ..FaultConfig::disabled()
    };
    let config = SystemConfig::small_test()
        .with_faults(faults)
        .with_observability(ObsConfig::traced());
    let n = 32;
    let shape = Shape::new([n, n]);
    let data = checkered(n);
    let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
        Box::new(BaselineSystem::new(config.clone())),
        Box::new(SoftwareNds::new(config.clone())),
        Box::new(HardwareNds::new(config)),
    ];
    for sys in &mut systems {
        let arch = sys.name();
        // Trace 1 succeeds, trace 2 fails typed, trace 3 succeeds.
        let id = write_full(sys.as_mut(), n, &data);
        sys.read(id, &shape, &[0, 0], &[n, n])
            .expect_err("unrecoverable ECC failure must surface");
        sys.write(id, &shape, &[0, 0], &[n, n], &data).unwrap();
        assert_eq!(sys.trace_cursor(), 3, "{arch}");

        let export = sys.trace_export().expect("tracing is configured");
        let partition = |trace: u64| {
            export
                .events
                .iter()
                .find_map(|e| match e.kind {
                    EventKind::Trace { dur, .. } if e.trace == trace => Some((e.at, e.at + dur)),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{arch}: trace {trace} has no partition"))
        };
        let (failed_begin, failed_end) = partition(2);
        assert!(
            failed_end > failed_begin,
            "{arch}: the failed read spent device time before giving up"
        );
        // No journal kept the failed command's tag or origin: everything
        // recorded under its id lies inside its partition, and the next
        // command's partition starts after it on the run-long clock.
        for e in export.events.iter().filter(|e| e.trace == 2) {
            assert!(
                (failed_begin..=failed_end).contains(&e.at)
                    && e.at + interval(&e.kind) <= failed_end,
                "{arch}: {:?} recorded under the failed command's id outside its partition",
                e.kind
            );
        }
        let (next_begin, next_end) = partition(3);
        assert!(
            next_begin > failed_begin,
            "{arch}: same origin as the failed command"
        );
        assert_eq!(next_begin, failed_end, "{arch}");
        for e in export.events.iter().filter(|e| e.trace == 3) {
            assert!(
                (next_begin..=next_end).contains(&e.at) && e.at + interval(&e.kind) <= next_end,
                "{arch}: {:?}",
                e.kind
            );
        }
        assert_eq!(SimTime::ZERO + export.makespan, next_end, "{arch}");
    }
}

#[test]
fn permanent_program_failures_remap_without_losing_data() {
    // Every logical write draws one permanent program failure; recovery
    // retires the block and re-places the payload on a fresh page.
    let faults = FaultConfig {
        seed: 3,
        media_program_rate: 1.0,
        ..FaultConfig::disabled()
    };
    let config = SystemConfig::small_test().with_faults(faults);
    let n = 32;
    let shape = Shape::new([n, n]);
    let data = checkered(n);
    let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
        Box::new(BaselineSystem::new(config.clone())),
        Box::new(SoftwareNds::new(config.clone())),
        Box::new(HardwareNds::new(config)),
    ];
    for sys in &mut systems {
        let id = write_full(sys.as_mut(), n, &data);
        let r = sys.read(id, &shape, &[0, 0], &[n, n]).unwrap();
        assert_eq!(r.data, data, "{}: remapped data must survive", sys.name());
        let stats = sys.stats();
        assert!(
            stats.get("blocks.retired") > 0,
            "{}: program faults must retire blocks",
            sys.name()
        );
        assert_eq!(
            stats.get("faults.injected"),
            stats.get("faults.recovered"),
            "{}: every program fault must be recovered",
            sys.name()
        );
        assert!(stats.get("retries.flash") > 0, "{}", sys.name());
    }
}

#[test]
fn read_disturb_pressure_migrates_preventively_and_invisibly() {
    // No ECC faults — only disturb accounting, with a limit low enough that
    // repeated tile reads push blocks over it.
    let faults = FaultConfig {
        seed: 9,
        read_disturb_limit: 6,
        ..FaultConfig::disabled()
    };
    let config = SystemConfig::small_test().with_faults(faults);
    let n = 64;
    let shape = Shape::new([n, n]);
    let data = checkered(n);
    let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
        Box::new(BaselineSystem::new(config.clone())),
        Box::new(SoftwareNds::new(config.clone())),
        Box::new(HardwareNds::new(config)),
    ];
    for sys in &mut systems {
        let id = write_full(sys.as_mut(), n, &data);
        for _ in 0..12 {
            let r = sys.read(id, &shape, &[1, 1], &[16, 16]).unwrap();
            assert_eq!(r.bytes, 16 * 16 * 4);
        }
        let r = sys.read(id, &shape, &[0, 0], &[n, n]).unwrap();
        assert_eq!(r.data, data, "{}: migration must be invisible", sys.name());
        assert!(
            sys.stats().get("faults.disturb_migrations") > 0,
            "{}: the disturb limit must have tripped",
            sys.name()
        );
    }
}

#[test]
fn fault_counters_use_the_documented_names() {
    let faults = FaultConfig::with_rate(42, 0.2);
    let config = SystemConfig::small_test().with_faults(faults);
    let n = 64;
    let data = checkered(n);
    let mut sys = SoftwareNds::new(config);
    let id = write_full(&mut sys, n, &data);
    let shape = Shape::new([n, n]);
    for t in 0..4 {
        sys.read(id, &shape, &[t, t], &[16, 16]).unwrap();
    }
    let stats = sys.stats();
    assert!(stats.get("faults.injected") > 0);
    assert_eq!(stats.get("faults.injected"), stats.get("faults.recovered"));
    // Budgets default to 4 and severities cap at 4, so retries appear
    // whenever faults do.
    assert!(stats.get("retries.flash") + stats.get("retries.link") > 0);
}

#[test]
fn shared_flaky_backend_covers_the_host_resident_stl() {
    // The reusable `nds_core::testing` double drives the same
    // degrade-cleanly contract from outside the core crate: a mid-write
    // allocation failure is typed and acknowledged data survives.
    let spec = DeviceSpec::new(4, 2, 512);
    let mut stl = Stl::new(
        FlakyBackend::with_alloc_budget(spec, 1024, 40),
        StlConfig::default(),
    );
    let shape = Shape::new([64, 64]);
    let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
    let a = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    stl.write(a, &shape, &[0, 0], &[64, 64], &data).unwrap();
    let b = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let err = stl
        .write(b, &shape, &[0, 0], &[64, 64], &data)
        .expect_err("budget exhausted mid-write");
    assert!(matches!(err, NdsError::DeviceFull { .. }));
    let (out, _) = stl.read(a, &shape, &[0, 0], &[64, 64]).unwrap();
    assert_eq!(out, data);
}

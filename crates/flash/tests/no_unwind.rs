//! The flash device's public surface never unwinds: every `pub fn` of
//! [`FlashDevice`] that takes a page, block or lane address — inside the
//! geometry, on its edge, or far outside it — returns `Ok` or a typed
//! [`FlashError`], with and without a fault plan installed, and a rejected
//! call leaves the device's counters and page states as they were.
//!
//! Seeds are pinned: the vendored `proptest` derives every case from the
//! test's name and the case index.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use nds_faults::FaultConfig;
use nds_flash::{BlockAddr, FlashConfig, FlashDevice, FlashError, PageAddr, PageState};
use nds_sim::SimTime;

/// One address component against `bound`: mostly inside, then the first
/// value outside, a near miss, and values that overflow naive index math.
fn component(bound: usize, (pick, raw): (u8, u64)) -> usize {
    match pick {
        0..=5 => raw as usize % bound,
        6 => bound,
        7 => bound + raw as usize % 3,
        8 => usize::MAX - raw as usize % 3,
        _ => usize::MAX / (raw as usize % 7 + 1),
    }
}

fn raw_component() -> impl Strategy<Value = (u8, u64)> {
    (0u8..10, any::<u64>())
}

fn raw_page() -> impl Strategy<Value = [(u8, u64); 4]> {
    (
        raw_component(),
        raw_component(),
        raw_component(),
        raw_component(),
    )
        .prop_map(|(c, b, k, p)| [c, b, k, p])
}

fn page_in(device: &FlashDevice, raw: [(u8, u64); 4]) -> PageAddr {
    let g = device.geometry();
    PageAddr {
        channel: component(g.channels, raw[0]),
        bank: component(g.banks_per_channel, raw[1]),
        block: component(g.blocks_per_bank, raw[2]),
        page: component(g.pages_per_block, raw[3]),
    }
}

fn block_in(device: &FlashDevice, raw: [(u8, u64); 4]) -> BlockAddr {
    page_in(device, raw).block_addr()
}

/// Everything an `Err` must leave alone.
fn observable(device: &FlashDevice) -> (nds_sim::Stats, Vec<PageState>, Vec<usize>) {
    let g = *device.geometry();
    let states = (0..g.total_pages())
        .map(|i| device.page_state(g.page_at(i)).unwrap())
        .collect();
    let free = (0..g.channels)
        .flat_map(|c| (0..g.banks_per_channel).map(move |b| (c, b)))
        .map(|(c, b)| device.free_pages_in(c, b).unwrap())
        .collect();
    (device.stats().clone(), states, free)
}

/// A device with pages in all three states, optionally under a fault plan
/// that fails programs, needs read retries and tracks read disturb.
fn device(faulty: bool) -> FlashDevice {
    let mut device = FlashDevice::new(FlashConfig::small_test());
    let g = *device.geometry();
    for i in (0..g.total_pages()).step_by(3) {
        let addr = g.page_at(i);
        device.program(addr, vec![i as u8; g.page_size]).unwrap();
        if i % 2 == 0 {
            device.invalidate(addr).unwrap();
        }
    }
    if faulty {
        device.install_faults(FaultConfig {
            seed: 29,
            media_read_rate: 0.3,
            media_program_rate: 0.3,
            read_disturb_limit: 3,
            ..FaultConfig::disabled()
        });
    }
    device
}

/// Drives one call chosen by `op` with the given (arbitrary) addresses and
/// returns its error, if any. A panic anywhere in here fails the test.
fn call(
    device: &mut FlashDevice,
    op: u8,
    a: PageAddr,
    b: PageAddr,
    short: bool,
) -> Result<(), FlashError> {
    let size = device.geometry().page_size;
    let at = SimTime::ZERO;
    match op {
        0 => device.program(a, vec![7; if short { size - 1 } else { size }]),
        1 => device.read(a).map(drop),
        2 => {
            let _ = device.peek(a);
            Ok(())
        }
        3 => device.invalidate(a),
        4 => device.relocate_page(a, b),
        5 => device.erase_block(a.block_addr()),
        6 => device.page_state(a).map(drop),
        7 => device.erase_count(a.block_addr()).map(drop),
        8 => device.free_pages_in(a.channel, a.bank).map(drop),
        9 => device.find_free_page(a.channel, a.bank).map(drop),
        10 => device
            .find_free_page_excluding(a.channel, a.bank, b.block_addr())
            .map(drop),
        11 => device
            .find_recovery_page(a.channel, a.bank, b.block_addr())
            .map(drop),
        12 => device.gc_victim(a.channel, a.bank).map(drop),
        13 => device.block_occupancy(a.channel, a.bank).map(drop),
        14 => device.schedule_reads(&[b, a], at).map(drop),
        15 => device.schedule_programs(&[b, a], at).map(drop),
        16 => device.schedule_erase(a.block_addr(), at).map(drop),
        17 => device.fault_read_batch(&[b, a], at).map(drop),
        18 => device.next_program_fault(a).map(drop),
        _ => {
            let _ = device.is_bad_block(a.block_addr());
            Ok(())
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn every_address_taking_call_returns_ok_or_a_typed_error(
        faulty in 0u8..2,
        calls in prop::collection::vec((0u8..20, raw_page(), raw_page(), 0u8..4), 1..60),
    ) {
        let mut device = device(faulty == 1);
        for (op, a, b, short) in calls {
            let (a, b) = (page_in(&device, a), page_in(&device, b));
            let before = observable(&device);
            let outcome = call(&mut device, op, a, b, short == 0);
            match outcome {
                Ok(()) => {}
                // The one error that is raised after work was done: the
                // retries a read spent stay on the record.
                Err(FlashError::ReadUnrecoverable(_)) => {}
                Err(e) => {
                    prop_assert!(
                        observable(&device) == before,
                        "op {} on {} / {} failed with `{}` and still changed the device",
                        op, a, b, e
                    );
                }
            }
        }
    }

    /// A page or block outside the geometry is always reported as such, by
    /// every call that is handed one.
    #[test]
    fn an_address_outside_the_geometry_is_always_rejected(
        op in 0u8..19,
        inside in raw_page(),
        axis in 0usize..4,
        excess in 0usize..3,
    ) {
        let mut device = device(false);
        let g = *device.geometry();
        let mut a = page_in(&device, inside.map(|(_, raw)| (0, raw)));
        let b = a;
        match axis {
            0 => a.channel = g.channels + excess,
            1 => a.bank = g.banks_per_channel + excess,
            2 => a.block = g.blocks_per_bank + excess,
            _ => a.page = g.pages_per_block + excess,
        }
        // Lane queries see only channel and bank; block queries not the page.
        let seen = match op {
            8..=13 => axis < 2,
            5 | 7 | 16 => axis < 3,
            2 => false, // `peek` answers `None`
            _ => true,
        };
        let outcome = call(&mut device, op, a, b, false);
        if seen {
            prop_assert!(
                matches!(outcome, Err(FlashError::AddressOutOfRange(_))),
                "op {} accepted {}: {:?}", op, a, outcome
            );
        }
        prop_assert!(device.peek(a).is_none());
        prop_assert!(!device.is_bad_block(block_in(&device, inside)));
    }
}

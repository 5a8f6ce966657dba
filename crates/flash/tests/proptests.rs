//! Property tests of the flash substrate: NAND rules, FTL read-after-write
//! under arbitrary overwrite sequences (with GC firing), timing-model
//! sanity (completion times are consistent and monotone), and the page
//! mapper's two instantiations against a reference model.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};

use nds_faults::FaultConfig;
use nds_flash::{
    DenseIndex, FlashConfig, FlashDevice, FlashError, ForwardIndex, Ftl, FtlConfig, MapperLabels,
    PageAddr, PageMapper, PageState, SparseIndex,
};
use nds_sim::SimTime;

fn small_ftl() -> Ftl {
    Ftl::new(FlashDevice::new(FlashConfig::small_test()), FtlConfig)
}

/// The sparse instantiation's key: a unit handle, `(channel, bank, unit)`.
type Handle = (u32, u32, u64);

/// Keys are confined to two lanes so collection and retirement bite early.
fn lane_of(key: u64) -> (usize, usize) {
    ((key % 2) as usize, 0)
}

fn handle_of(key: u64) -> Handle {
    let (channel, bank) = lane_of(key);
    (channel as u32, bank as u32, key)
}

fn payload_of(key: u64, fill: u8, page_size: usize) -> Vec<u8> {
    let mut payload = vec![fill; page_size];
    payload[0] = key as u8;
    payload
}

/// One mapper instantiation driven next to its reference model: `model`
/// holds the last acknowledged payload of every live key.
struct Modeled<K, F> {
    mapper: PageMapper<K, F>,
    key_of: fn(u64) -> K,
    model: BTreeMap<u64, Vec<u8>>,
    now: SimTime,
}

impl<K: Copy + PartialEq + std::fmt::Debug, F: ForwardIndex<K>> Modeled<K, F> {
    fn new(forward: F, labels: MapperLabels, key_of: fn(u64) -> K, faults: FaultConfig) -> Self {
        let mut mapper =
            PageMapper::new(FlashDevice::new(FlashConfig::small_test()), forward, labels);
        mapper.device_mut().install_faults(faults);
        Modeled {
            mapper,
            key_of,
            model: BTreeMap::new(),
            now: SimTime::ZERO,
        }
    }

    /// An out-of-place write on the modeled timeline, with program-fault
    /// recovery (the baseline FTL's write, over any key type).
    fn write(&mut self, key: u64, payload: Vec<u8>) -> Result<(), FlashError> {
        let (k, (channel, bank)) = ((self.key_of)(key), lane_of(key));
        let m = &mut self.mapper;
        m.supersede(k)?;
        self.now = m.collect_lane(channel, bank, Some(self.now))?;
        let mut target = m
            .device_mut()
            .find_free_page(channel, bank)?
            .ok_or(FlashError::DeviceFull)?;
        if m.device_mut().next_program_fault(target)? {
            self.now = m.evacuate(target.block_addr(), self.now)?;
            self.now = m.collect_lane(channel, bank, Some(self.now))?;
            target = m.recovery_page(target)?.ok_or(FlashError::DeviceFull)?;
        }
        m.program(k, target, payload)
    }

    /// A fault-path read: disturb accounting, then preventive migration.
    fn read(&mut self, key: u64) -> Result<Option<Vec<u8>>, FlashError> {
        let Some(page) = self.mapper.page_of((self.key_of)(key)) else {
            return Ok(None);
        };
        let done = self
            .mapper
            .device_mut()
            .fault_read_batch(&[page], self.now)?;
        let data = self.mapper.device_mut().read(page)?.to_vec();
        self.now = self.mapper.service_disturbed(done)?;
        Ok(Some(data))
    }

    /// Applies one step; returns whether a write ran out of space.
    fn step(&mut self, op: u8, key: u64, fill: u8) -> Result<bool, TestCaseError> {
        let fail = |e: FlashError| TestCaseError::fail(format!("unexpected error {e}"));
        match op {
            // Writes dominate so lanes fill, collect and retire blocks.
            0..=2 => {
                let payload = payload_of(key, fill, self.mapper.device().geometry().page_size);
                match self.write(key, payload.clone()) {
                    Ok(()) => {
                        self.model.insert(key, payload);
                    }
                    // The failing key's own old copy is already superseded
                    // (standard out-of-place update); every other key must
                    // have survived, which `check` verifies.
                    Err(FlashError::DeviceFull) => {
                        self.model.remove(&key);
                        return Ok(true);
                    }
                    Err(e) => return Err(fail(e)),
                }
            }
            3 => {
                let bound = self.mapper.supersede((self.key_of)(key)).map_err(fail)?;
                prop_assert_eq!(bound, self.model.remove(&key).is_some());
            }
            _ => match self.read(key) {
                Ok(data) => prop_assert_eq!(data.as_ref(), self.model.get(&key)),
                // A disturb migration with nowhere to go: typed, and every
                // key is still in place (checked by the caller).
                Err(FlashError::DeviceFull) => return Ok(true),
                Err(e) => return Err(fail(e)),
            },
        }
        Ok(false)
    }

    /// Every live key reads back its last payload from a page of its own,
    /// the tables are inverse, and the device holds no other live page.
    fn check(&self) -> Result<(), TestCaseError> {
        let device = self.mapper.device();
        let mut pages = BTreeSet::new();
        for (&key, payload) in &self.model {
            let k = (self.key_of)(key);
            let page = self.mapper.page_of(k);
            prop_assert!(page.is_some(), "acknowledged key {} lost its page", key);
            let page = page.unwrap();
            prop_assert_eq!(
                self.mapper.key_at(page),
                Some(k),
                "reverse table, key {}",
                key
            );
            prop_assert!(pages.insert(page), "two keys share {}", page);
            prop_assert_eq!(device.peek(page), Some(payload.as_slice()), "key {}", key);
        }
        let g = device.geometry();
        let live = (0..g.total_pages())
            .filter(|&i| device.page_state(g.page_at(i)) == Ok(PageState::Valid))
            .count();
        prop_assert_eq!(live, self.model.len(), "a live page belongs to no key");
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Both instantiations of the page mapper — dense LBA keys, sparse unit
    /// handles — driven through one seeded write / overwrite / drop / read
    /// sequence under program faults and read disturb, against a
    /// `BTreeMap` model: after every step each acknowledged key reads back
    /// its last payload from a page of its own and the tables are inverse;
    /// running out of space is typed and strands nobody; and the key type
    /// never shows in where pages land.
    #[test]
    fn both_mapper_instantiations_match_the_reference_model(
        seed in any::<u64>(),
        rate in 0.0f64..0.3,
        disturb_limit in 0u64..20,
        ops in prop::collection::vec((0u8..6, 0u64..24, any::<u8>()), 1..300),
    ) {
        let faults = FaultConfig {
            seed,
            media_program_rate: rate,
            read_disturb_limit: disturb_limit,
            ..FaultConfig::disabled()
        };
        let mut dense = Modeled::new(DenseIndex::new(24), MapperLabels::FTL, |key| key, faults);
        let mut sparse =
            Modeled::new(SparseIndex::default(), MapperLabels::BACKEND, handle_of, faults);
        for (op, key, fill) in ops {
            let full = dense.step(op, key, fill)?;
            prop_assert_eq!(sparse.step(op, key, fill)?, full);
            if full {
                dense.check()?;
                sparse.check()?;
            }
            for key in 0..24 {
                prop_assert_eq!(
                    dense.mapper.page_of(key),
                    sparse.mapper.page_of(handle_of(key)),
                    "key {} placed differently", key
                );
            }
        }
        dense.check()?;
        sparse.check()?;
    }

    /// An arbitrary sequence of writes over a small LBA window always reads
    /// back the latest value per LBA, even with garbage collection running.
    #[test]
    fn ftl_read_after_write_under_pressure(
        ops in prop::collection::vec((0u64..32, 0u8..=255), 1..400)
    ) {
        let mut ftl = small_ftl();
        let ps = ftl.page_size();
        let mut expected: std::collections::HashMap<u64, u8> =
            std::collections::HashMap::new();
        for (lba, fill) in ops {
            ftl.write(lba, vec![fill; ps], SimTime::ZERO).expect("write");
            expected.insert(lba, fill);
        }
        for (lba, fill) in expected {
            let (data, _) = ftl.read(lba, SimTime::ZERO).expect("read");
            prop_assert!(data.iter().all(|&b| b == fill), "lba {} corrupted", lba);
        }
    }

    /// Valid page counts never exceed the exported capacity and free
    /// accounting stays consistent.
    #[test]
    fn ftl_accounting_is_consistent(
        ops in prop::collection::vec(0u64..64, 1..300)
    ) {
        let mut ftl = small_ftl();
        let ps = ftl.page_size();
        for lba in ops {
            ftl.write(lba, vec![1; ps], SimTime::ZERO).expect("write");
            let g = *ftl.device().geometry();
            for c in 0..g.channels {
                for b in 0..g.banks_per_channel {
                    prop_assert!(ftl.device().free_pages_in(c, b).unwrap() <= g.pages_per_bank());
                }
            }
        }
    }

    /// Batch read completion is monotone in batch size and never earlier
    /// than any sub-batch of the same pages.
    #[test]
    fn read_completion_is_monotone(count in 1usize..64) {
        let config = FlashConfig::small_test();
        let g = config.geometry;
        let addrs: Vec<PageAddr> = (0..count)
            .map(|i| PageAddr {
                channel: i % g.channels,
                bank: (i / g.channels) % g.banks_per_channel,
                block: (i / (g.channels * g.banks_per_channel)) % g.blocks_per_bank,
                page: i % g.pages_per_block,
            })
            .collect();
        let mut full = FlashDevice::new(config.clone());
        let t_full = full.schedule_reads(&addrs, SimTime::ZERO).unwrap();
        let mut prefix = FlashDevice::new(config);
        let t_prefix = prefix.schedule_reads(&addrs[..count / 2 + 1], SimTime::ZERO).unwrap();
        prop_assert!(t_full >= t_prefix, "more work cannot finish earlier");
        prop_assert!(t_full > SimTime::ZERO);
    }

    /// Under random write/program-fault interleavings the FTL never loses a
    /// previously-acknowledged page: every write either lands (and reads
    /// back exactly, with its physical page outside every retired block) or
    /// fails typed with `DeviceFull` once retirement has eaten the spare
    /// space — never a panic, never silent corruption.
    #[test]
    fn bad_block_remap_never_loses_acknowledged_pages(
        seed in any::<u64>(),
        rate in 0.0f64..0.4,
        ops in prop::collection::vec((0u64..24, 0u8..=255), 1..150),
    ) {
        let mut ftl = small_ftl();
        ftl.install_faults(FaultConfig {
            seed,
            media_program_rate: rate,
            ..FaultConfig::disabled()
        });
        let ps = ftl.page_size();
        let mut acknowledged: std::collections::HashMap<u64, u8> =
            std::collections::HashMap::new();
        for (lba, fill) in ops {
            match ftl.write(lba, vec![fill; ps], SimTime::ZERO) {
                Ok(_) => {
                    acknowledged.insert(lba, fill);
                }
                // Retirement can exhaust the tiny test geometry; that must
                // surface as DeviceFull and nothing else. The failing lba's
                // own overwrite already superseded its old copy (standard
                // out-of-place update), so only ITS state is indeterminate —
                // every other acknowledged page must survive untouched.
                Err(FlashError::DeviceFull) => {
                    acknowledged.remove(&lba);
                    break;
                }
                Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
            }
        }
        for (&lba, &fill) in &acknowledged {
            let (data, _) = ftl.read(lba, SimTime::ZERO).expect("acknowledged page");
            prop_assert!(data.iter().all(|&b| b == fill), "lba {} corrupted", lba);
            let phys = ftl.physical_of(lba).expect("acknowledged page is mapped");
            prop_assert!(
                !ftl.device().is_bad_block(phys.block_addr()),
                "lba {} mapped into retired block {:?}",
                lba,
                phys.block_addr()
            );
        }
    }

    /// Retired blocks never re-enter the allocator: across an arbitrary
    /// write stream the bad-block count only grows, and it matches
    /// `blocks.retired`.
    #[test]
    fn retired_blocks_stay_retired(
        seed in any::<u64>(),
        ops in prop::collection::vec(0u64..16, 1..100),
    ) {
        let mut ftl = small_ftl();
        ftl.install_faults(FaultConfig {
            seed,
            media_program_rate: 0.25,
            ..FaultConfig::disabled()
        });
        let ps = ftl.page_size();
        let mut last_bad = 0;
        for lba in ops {
            if ftl.write(lba, vec![1; ps], SimTime::ZERO).is_err() {
                break;
            }
            let bad = ftl.device().bad_block_count();
            prop_assert!(bad >= last_bad, "a retired block came back");
            last_bad = bad;
        }
        // The final count (a failing write may retire one more block before
        // erroring out) must agree with the stats counter exactly.
        let retired = ftl.device().stats().get("blocks.retired");
        prop_assert_eq!(ftl.device().bad_block_count() as u64, retired);
    }

    /// Erase counts only grow, and only via erases.
    #[test]
    fn wear_only_grows(rounds in 1u64..128) {
        let mut ftl = small_ftl();
        let ps = ftl.page_size();
        let block0 = nds_flash::BlockAddr { channel: 0, bank: 0, block: 0 };
        let mut last = ftl.device().erase_count(block0).unwrap();
        for round in 0..rounds {
            ftl.write(0, vec![(round % 251) as u8; ps], SimTime::ZERO).expect("write");
            let now = ftl.device().erase_count(block0).unwrap();
            prop_assert!(now >= last);
            last = now;
        }
    }
}

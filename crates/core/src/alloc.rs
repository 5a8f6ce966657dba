//! The access-unit allocation policy of §4.2.
//!
//! When a request reaches an unallocated leaf entry, the STL must pick
//! physical units so that accessing the finished building block uses the
//! device's parallelism maximally. The paper gives four rules:
//!
//! 1. The block's *first* unit comes from a random channel and bank
//!    (spreading different blocks across the device).
//! 2. Subsequent units come from the channel the block uses *least*, in the
//!    same bank as the most recently allocated unit — filling one bank with
//!    one unit per channel before moving on.
//! 3. Once the block holds a unit from every channel of the current bank,
//!    the STL moves to an unused (or least-used) bank.
//! 4. If every channel × bank combination is used, pick a least-used bank
//!    and repeat from rule 1.
//!
//! Overwrites of an existing unit stay in the same channel and bank as the
//! unit they supersede, so a block's parallelism profile never degrades.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::backend::{NvmBackend, UnitLocation};
use crate::error::NdsError;

/// Which unit-placement policy the allocator follows.
///
/// `Paper` is §4.2's channel-spreading policy; `PackedLinear` is the naive
/// alternative — fill the current lane before moving on — kept as an
/// ablation baseline: it produces blocks confined to few channels, whose
/// reads forfeit the device's internal parallelism exactly as \[P3\] warns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// The paper's §4.2 rules (random start, least-used channel, bank
    /// stripes).
    #[default]
    Paper,
    /// Naive packing: exhaust `(channel 0, bank 0)` first, then the next
    /// lane, and so on.
    PackedLinear,
}

/// Allocates access units for building blocks per the §4.2 policy.
///
/// The allocator is deterministic given its seed, which keeps simulations
/// and tests reproducible while preserving the paper's randomized placement
/// of block origins.
///
/// # Example
///
/// ```
/// use nds_core::{BlockAllocator, DeviceSpec, MemBackend};
///
/// let mut backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 64);
/// let mut alloc = BlockAllocator::new(7);
/// let mut units = vec![None; 8];
/// for slot in 0..8 {
///     let loc = alloc.allocate(&mut backend, &units, None).unwrap();
///     units[slot] = Some(loc);
/// }
/// // A complete minimum block spans all 8 channels in one bank.
/// let channels: std::collections::HashSet<u32> =
///     units.iter().map(|u| u.unwrap().channel).collect();
/// assert_eq!(channels.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct BlockAllocator {
    rng: StdRng,
    policy: AllocationPolicy,
}

impl BlockAllocator {
    /// Creates an allocator with a deterministic seed and the paper's
    /// placement policy.
    pub fn new(seed: u64) -> Self {
        BlockAllocator::with_policy(seed, AllocationPolicy::Paper)
    }

    /// Creates an allocator with an explicit placement policy (ablations).
    pub fn with_policy(seed: u64, policy: AllocationPolicy) -> Self {
        BlockAllocator {
            rng: StdRng::seed_from_u64(seed),
            policy,
        }
    }

    /// Picks and allocates a unit for the next slot of a block whose
    /// already-allocated units are `existing` (slot order = sequential block
    /// order). `overwrite_of` carries the unit being superseded, if this is
    /// an overwrite.
    ///
    /// # Errors
    ///
    /// [`NdsError::DeviceFull`] if no lane can provide a unit.
    pub fn allocate<B: NvmBackend>(
        &mut self,
        backend: &mut B,
        existing: &[Option<UnitLocation>],
        overwrite_of: Option<UnitLocation>,
    ) -> Result<UnitLocation, NdsError> {
        let spec = backend.spec();
        let channels = spec.channels;
        let banks = spec.banks_per_channel;
        if channels == 0 || banks == 0 {
            // `DeviceSpec`'s fields are public: a backend can report a
            // device with no lane to allocate from.
            return Err(NdsError::DeviceFull {
                channel: 0,
                bank: 0,
            });
        }

        if self.policy == AllocationPolicy::PackedLinear {
            // Naive ablation baseline: first lane with free space wins.
            for c in 0..channels {
                for b in 0..banks {
                    if let Some(loc) = backend.alloc_unit(c, b) {
                        return Ok(loc);
                    }
                }
            }
            return Err(NdsError::DeviceFull {
                channel: 0,
                bank: 0,
            });
        }

        // Overwrites keep the superseded unit's lane (§4.2).
        if let Some(old) = overwrite_of {
            if let Some(loc) = backend.alloc_unit(old.channel, old.bank) {
                return Ok(loc);
            }
            // Lane exhausted: fall through to the general policy.
        }

        let mut channel_use = vec![0u32; channels as usize];
        let mut bank_use = vec![0u32; banks as usize];
        let mut lane_use = vec![0u32; (channels * banks) as usize];
        let mut last: Option<UnitLocation> = None;
        for loc in existing.iter().flatten() {
            let (Some(channel), Some(bank), Some(lane)) = (
                channel_use.get_mut(loc.channel as usize),
                bank_use.get_mut(loc.bank as usize),
                lane_use.get_mut(loc.channel as usize * banks as usize + loc.bank as usize),
            ) else {
                return Err(NdsError::Inconsistent(
                    "block holds a unit outside the device spec",
                ));
            };
            *channel += 1;
            *bank += 1;
            *lane += 1;
            last = Some(*loc);
        }
        // Usage counts by channel, bank or lane id; the ids below all come
        // from `0..channels` / `0..banks`, which the tables cover.
        let used = |table: &[u32], id: u32| table.get(id as usize).copied().unwrap_or(0);

        // Candidate (channel, bank) per the four rules.
        let (mut channel, mut bank) = match last {
            None => (
                self.rng.gen_range(0..channels),
                self.rng.gen_range(0..banks),
            ),
            Some(last) => {
                let cur_bank = last.bank;
                let bank_full = (0..channels).all(|c| used(&lane_use, c * banks + cur_bank) > 0);
                let target_bank = if bank_full {
                    // Rule 3/4: an unused bank, else the least-used bank.
                    // Ties break cyclically after the current bank so that
                    // blocks starting in different (random) banks spread
                    // their stripes uniformly over the device rather than
                    // piling onto low bank ids.
                    (0..banks)
                        .min_by_key(|&b| {
                            let cyclic = (b + banks - (cur_bank + 1) % banks) % banks;
                            (used(&bank_use, b), cyclic)
                        })
                        .unwrap_or(cur_bank)
                } else {
                    cur_bank
                };
                // Rule 2: the channel this block uses least (ties: lowest
                // channel without a unit in the target bank, then lowest id).
                let target_channel = (0..channels)
                    .min_by_key(|&c| {
                        (
                            used(&channel_use, c),
                            used(&lane_use, c * banks + target_bank),
                            c,
                        )
                    })
                    .unwrap_or(last.channel);
                (target_channel, target_bank)
            }
        };

        // Allocate, falling back over lanes ordered by this block's usage if
        // the preferred lane is exhausted.
        for _attempt in 0..(channels * banks) {
            if let Some(loc) = backend.alloc_unit(channel, bank) {
                return Ok(loc);
            }
            // Preferred lane is full: take the least-block-used lane with
            // free space.
            let next = (0..channels)
                .flat_map(|c| (0..banks).map(move |b| (c, b)))
                .filter(|&(c, b)| backend.free_units(c, b) > 0)
                .min_by_key(|&(c, b)| (used(&lane_use, c * banks + b), c, b));
            match next {
                Some((c, b)) => {
                    channel = c;
                    bank = b;
                }
                None => break,
            }
        }
        Err(NdsError::DeviceFull { channel, bank })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{DeviceSpec, MemBackend};
    use std::collections::HashSet;

    fn fill_block(
        alloc: &mut BlockAllocator,
        backend: &mut MemBackend,
        units: usize,
    ) -> Vec<UnitLocation> {
        let mut existing: Vec<Option<UnitLocation>> = vec![None; units];
        for slot in 0..units {
            let loc = alloc.allocate(backend, &existing, None).unwrap();
            existing[slot] = Some(loc);
        }
        existing.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn minimum_block_spans_all_channels_one_bank() {
        let mut backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 64);
        let mut alloc = BlockAllocator::new(1);
        for _ in 0..10 {
            let units = fill_block(&mut alloc, &mut backend, 8);
            let channels: HashSet<u32> = units.iter().map(|u| u.channel).collect();
            let banks: HashSet<u32> = units.iter().map(|u| u.bank).collect();
            assert_eq!(channels.len(), 8, "one unit per channel");
            assert_eq!(banks.len(), 1, "minimum block stays in one bank");
        }
    }

    #[test]
    fn double_block_uses_two_banks_full_channels_each() {
        let mut backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 64);
        let mut alloc = BlockAllocator::new(2);
        let units = fill_block(&mut alloc, &mut backend, 16);
        let channels: HashSet<u32> = units.iter().map(|u| u.channel).collect();
        assert_eq!(channels.len(), 8);
        // Each channel used exactly twice.
        for c in 0..8 {
            assert_eq!(units.iter().filter(|u| u.channel == c).count(), 2);
        }
        let banks: HashSet<u32> = units.iter().map(|u| u.bank).collect();
        assert_eq!(banks.len(), 2, "second stripe moves to a fresh bank");
    }

    #[test]
    fn different_blocks_start_at_random_lanes() {
        let mut backend = MemBackend::new(DeviceSpec::new(16, 8, 512), 64);
        let mut alloc = BlockAllocator::new(3);
        let firsts: HashSet<(u32, u32)> = (0..20)
            .map(|_| {
                let existing = vec![None; 16];
                let loc = alloc.allocate(&mut backend, &existing, None).unwrap();
                (loc.channel, loc.bank)
            })
            .collect();
        assert!(
            firsts.len() > 5,
            "random first placements should vary, got {firsts:?}"
        );
    }

    #[test]
    fn determinism_under_same_seed() {
        let run = || {
            let mut backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 64);
            let mut alloc = BlockAllocator::new(42);
            fill_block(&mut alloc, &mut backend, 16)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn overwrite_keeps_lane() {
        let mut backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 64);
        let mut alloc = BlockAllocator::new(4);
        let units = fill_block(&mut alloc, &mut backend, 8);
        let old = units[3];
        let existing: Vec<Option<UnitLocation>> = units.iter().copied().map(Some).collect();
        let replacement = alloc.allocate(&mut backend, &existing, Some(old)).unwrap();
        assert_eq!(replacement.channel, old.channel);
        assert_eq!(replacement.bank, old.bank);
        assert_ne!(replacement.unit, old.unit);
    }

    #[test]
    fn oversubscribed_block_wraps_to_least_used_bank() {
        // A block with more stripes than banks: rule 4 re-enters used banks.
        let mut backend = MemBackend::new(DeviceSpec::new(4, 2, 512), 64);
        let mut alloc = BlockAllocator::new(5);
        let units = fill_block(&mut alloc, &mut backend, 4 * 2 * 3); // 3 units/lane
        for c in 0..4u32 {
            for b in 0..2u32 {
                let lane = units
                    .iter()
                    .filter(|u| u.channel == c && u.bank == b)
                    .count();
                assert_eq!(lane, 3, "lane ({c},{b}) should hold 3 units");
            }
        }
    }

    #[test]
    fn packed_linear_confines_blocks_to_few_channels() {
        let mut backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 64);
        let mut alloc = BlockAllocator::with_policy(9, AllocationPolicy::PackedLinear);
        let units = fill_block(&mut alloc, &mut backend, 8);
        let channels: HashSet<u32> = units.iter().map(|u| u.channel).collect();
        assert_eq!(
            channels.len(),
            1,
            "naive packing should confine a block to one channel"
        );
    }

    #[test]
    fn exhausted_preferred_lane_falls_back() {
        let mut backend = MemBackend::new(DeviceSpec::new(2, 1, 512), 2);
        let mut alloc = BlockAllocator::new(6);
        // 4 units total in the device; allocate all of them.
        let units = fill_block(&mut alloc, &mut backend, 4);
        assert_eq!(units.len(), 4);
        // A fifth allocation must fail cleanly.
        let existing: Vec<Option<UnitLocation>> = units.iter().copied().map(Some).collect();
        let err = alloc.allocate(&mut backend, &existing, None).unwrap_err();
        assert!(matches!(err, NdsError::DeviceFull { .. }));
    }
}

//! Fuzzing of the wire decoder. Arbitrary submission entries, with and
//! without an argument page, must decode to a valid command or a typed
//! [`WireError`] — never a panic — and the outcome may depend only on the
//! bytes the decoded command occupies: no over-read into reserved entry
//! bytes or past the declared arguments on the page.

use proptest::prelude::*;

use nds_interconnect::wire::{self, WireCommand, ARG_PAGE_BYTES, ENTRY_BYTES};
use nds_interconnect::{NvmeCommand, SpaceId, WireError, MAX_DIMENSIONS, MAX_ELEMENTS_PER_DIM};
use nds_sim::splitmix64;

/// One valid command of each kind, with `ndims` dimensions where the kind
/// has any; their encodings supply the opcodes and the mutation seeds.
fn sample(kind: usize, ndims: usize) -> NvmeCommand {
    let dims = vec![3; ndims];
    match kind % 7 {
        0 => NvmeCommand::Read { lba: 5, pages: 2 },
        1 => NvmeCommand::Write { lba: 5, pages: 2 },
        2 => NvmeCommand::OpenSpace {
            dims,
            element_size: 4,
        },
        3 => NvmeCommand::CloseSpace { space: SpaceId(1) },
        4 => NvmeCommand::DeleteSpace { space: SpaceId(1) },
        5 => NvmeCommand::NdsRead {
            space: SpaceId(1),
            coord: vec![0; ndims],
            sub_dims: dims,
        },
        _ => NvmeCommand::NdsWrite {
            space: SpaceId(1),
            coord: vec![0; ndims],
            sub_dims: dims,
        },
    }
}

/// A 4 KB argument page from `seed`. The words an argument list can
/// occupy are in-range extents half the time, so decodes get past the
/// extent check; the rest of the page is arbitrary.
fn page(seed: u64) -> Box<[u8; ARG_PAGE_BYTES]> {
    let mut page = Box::new([0u8; ARG_PAGE_BYTES]);
    for (i, word) in page.chunks_exact_mut(8).enumerate() {
        let r = splitmix64(seed ^ i as u64);
        let value = if i < 2 * MAX_DIMENSIONS && r & 1 == 0 {
            1 + (r >> 1) % MAX_ELEMENTS_PER_DIM
        } else {
            r
        };
        word.copy_from_slice(&value.to_le_bytes());
    }
    page
}

/// The entry and page prefixes a decode with this outcome may read.
fn read_window(outcome: &Result<NvmeCommand, WireError>) -> (usize, usize) {
    match outcome {
        Ok(NvmeCommand::Read { .. } | NvmeCommand::Write { .. }) => (32, 0),
        Ok(NvmeCommand::CloseSpace { .. } | NvmeCommand::DeleteSpace { .. }) => (24, 0),
        Ok(NvmeCommand::OpenSpace { dims, .. }) => (40, 8 * dims.len()),
        Ok(NvmeCommand::NdsRead { coord, .. } | NvmeCommand::NdsWrite { coord, .. }) => {
            (32, 16 * coord.len())
        }
        _ => (40, 16 * MAX_DIMENSIONS),
    }
}

/// Decodes `wired` and checks the outcome:
/// - a decoded command validates and survives an encode/decode round trip;
/// - decoding into a reused command agrees with a fresh decode;
/// - scrambling every byte outside [`read_window`] (with the `noise`
///   stream) leaves the outcome unchanged.
fn check(wired: &WireCommand, noise: u64) -> Result<(), TestCaseError> {
    let outcome = wire::decode(wired);
    if let Ok(cmd) = &outcome {
        prop_assert!(cmd.validate().is_ok(), "decoded an invalid command {cmd:?}");
        let again = wire::encode(cmd).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert_eq!(&wire::decode(&again), &outcome);
    }

    let mut reused = NvmeCommand::NdsWrite {
        space: SpaceId(9),
        coord: vec![7; MAX_DIMENSIONS],
        sub_dims: vec![7; MAX_DIMENSIONS],
    };
    let reused_outcome = wire::decode_into(wired, &mut reused).map(|()| reused);
    prop_assert_eq!(&reused_outcome, &outcome);

    let (entry_len, page_len) = read_window(&outcome);
    let mut scrambled = wired.clone();
    for (i, b) in scrambled.entry.iter_mut().enumerate().skip(entry_len) {
        *b ^= splitmix64(noise ^ i as u64) as u8 | 1;
    }
    if let Some(page) = scrambled.arg_page.as_mut() {
        for (i, b) in page.iter_mut().enumerate().skip(page_len) {
            *b ^= splitmix64(noise ^ (ENTRY_BYTES + i) as u64) as u8 | 1;
        }
    }
    prop_assert_eq!(
        wire::decode(&scrambled),
        outcome,
        "decode read past its window"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary entry words. The opcode byte is a real one half the time,
    /// and the page-presence word is the exact `1` a page needs half the
    /// time, so cases reach every decoder arm; the dimension count is
    /// small half the time, so extended commands reach the page.
    #[test]
    fn arbitrary_entries_decode_or_fail_typed(
        words in prop::collection::vec(any::<u64>(), ENTRY_BYTES / 8),
        opcode in (any::<bool>(), 0usize..7),
        ext in any::<bool>(),
        announce_page in any::<bool>(),
        small_count in (any::<bool>(), 0u64..=MAX_DIMENSIONS as u64 + 1),
        arg_page in (any::<bool>(), any::<u64>()),
        noise in any::<u64>(),
    ) {
        let mut wired = WireCommand::default();
        for (chunk, word) in wired.entry.chunks_exact_mut(8).zip(&words) {
            chunk.copy_from_slice(&word.to_le_bytes());
        }
        if opcode.0 {
            wired.entry[0] = wire::encode(&sample(opcode.1, 1)).unwrap().entry[0];
        }
        wired.entry[7] = (wired.entry[7] & 0x7F) | if ext { 0x80 } else { 0 };
        if announce_page {
            wired.entry[8..16].copy_from_slice(&1u64.to_le_bytes());
        }
        if small_count.0 {
            wired.entry[24..32].copy_from_slice(&small_count.1.to_le_bytes());
        }
        wired.arg_page = arg_page.0.then(|| page(arg_page.1));
        check(&wired, noise)?;
    }

    /// Valid commands with a few bytes overwritten (entry or page) and,
    /// one time in eight, the argument page added or dropped.
    #[test]
    fn mutated_commands_decode_or_fail_typed(
        kind in 0usize..7,
        ndims in 1usize..=MAX_DIMENSIONS,
        edits in prop::collection::vec(
            (0usize..ENTRY_BYTES + 16 * MAX_DIMENSIONS + 8, any::<u8>()),
            0..4,
        ),
        toggle_page in 0u8..8,
        page_seed in any::<u64>(),
        noise in any::<u64>(),
    ) {
        let mut wired = wire::encode(&sample(kind, ndims)).unwrap();
        if toggle_page == 0 {
            wired.arg_page = match wired.arg_page {
                Some(_) => None,
                None => Some(page(page_seed)),
            };
        }
        for (at, value) in edits {
            if let Some(b) = wired.entry.get_mut(at) {
                *b = value;
            } else if let Some(page) = wired.arg_page.as_mut() {
                page[at - ENTRY_BYTES] = value;
            }
        }
        check(&wired, noise)?;
    }
}

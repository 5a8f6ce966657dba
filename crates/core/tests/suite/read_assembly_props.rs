//! Read assembly into a reused buffer (see `support/dirty_reads.rs`), over
//! the in-memory backend; and the assembler's multi-part copy, driven at
//! every part count from 1 to 4 with reads of a few hundred bytes.

use proptest::prelude::*;

use nds_core::testing::{assemble_in_parts, Piece};
use nds_core::{DeviceSpec, MemBackend, Shape, Stl, StlConfig};

use crate::dirty_reads;

/// What the buffer holds before a read: never a byte a read produces.
const STALE: u8 = 0xEE;

/// What one serial pass appending every piece in order produces.
fn serial(pieces: &[Piece]) -> Vec<u8> {
    let mut out = Vec::new();
    for piece in pieces {
        match piece {
            Piece::Stored(bytes) => out.extend_from_slice(bytes),
            Piece::Zeros(len) => out.resize(out.len() + len, 0),
        }
    }
    out
}

/// Up to 24 pieces of up to 24 bytes: stored or a zero run, the stored
/// bytes in `1..STALE`.
fn pieces_strategy() -> impl Strategy<Value = Vec<Piece>> {
    prop::collection::vec((any::<bool>(), 0usize..=24, any::<u8>()), 0..=24).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(stored, len, seed)| {
                if stored {
                    let bytes = (0..len)
                        .map(|i| 1 + (usize::from(seed) + i) as u8 % (STALE - 1))
                        .collect();
                    Piece::Stored(bytes)
                } else {
                    Piece::Zeros(len)
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Small units (64 B) and few channels, so most requests cover several
    /// blocks and many units — some never written, some elided.
    #[test]
    fn read_into_a_dirty_buffer_equals_a_fresh_read(case in dirty_reads::case_strategy(40)) {
        let backend = MemBackend::new(DeviceSpec::new(4, 2, 64), 1 << 14);
        let mut stl = Stl::new(backend, StlConfig::default());
        let id = stl.create_space(Shape::new(case.dims.clone()), case.element).unwrap();
        dirty_reads::check(&mut dirty_reads::StlSpace(&mut stl, id), &case)?;
    }

    /// Parts of at most a few dozen bytes cut through pieces of both kinds
    /// at random; the buffer starts longer or shorter than the read and
    /// full of `STALE`, so a hole left unwritten shows.
    #[test]
    fn every_part_count_places_what_a_serial_append_would(
        pieces in pieces_strategy(),
        parts in 1usize..=4,
        stale in 0usize..=640,
    ) {
        let expected = serial(&pieces);
        let mut buf = vec![STALE; stale];
        assemble_in_parts(&mut buf, expected.len(), parts, &pieces).unwrap();
        prop_assert_eq!(&buf, &expected, "{} parts over {} stale bytes", parts, stale);
    }
}

/// 24 bytes whose zero runs and stored pieces start on, end on or cross
/// the part boundaries of every part count: 12 (two parts), 8 and 16
/// (three), 6, 12 and 18 (four).
#[test]
fn zero_runs_and_stored_pieces_on_and_across_part_boundaries() {
    let pieces = [
        Piece::Zeros(4),           // 0..4
        Piece::Stored(vec![1; 4]), // 4..8: crosses 6, ends on 8
        Piece::Stored(vec![2; 2]), // 8..10: starts on 8
        Piece::Zeros(4),           // 10..14: crosses 12
        Piece::Stored(vec![3; 4]), // 14..18: crosses 16, ends on 18
        Piece::Zeros(4),           // 18..22: starts on 18
        Piece::Stored(vec![4; 2]), // 22..24
    ];
    let expected = serial(&pieces);
    assert_eq!(expected.len(), 24);
    for parts in 1..=4 {
        for stale in [0, 10, 24, 100] {
            let mut buf = vec![STALE; stale];
            assemble_in_parts(&mut buf, 24, parts, &pieces).unwrap();
            assert_eq!(buf, expected, "{parts} parts over {stale} stale bytes");
        }
    }
}

#[test]
fn a_zero_length_read_empties_the_buffer_at_every_part_count() {
    let empty = [Piece::Stored(Vec::new()), Piece::Zeros(0)];
    for parts in 1..=4 {
        for pieces in [&empty[..], &[]] {
            let mut buf = vec![STALE; 9];
            assemble_in_parts(&mut buf, 0, parts, pieces).unwrap();
            assert!(buf.is_empty(), "{parts} parts");
        }
    }
}

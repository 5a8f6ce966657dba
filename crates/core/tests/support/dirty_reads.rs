//! The dirty-buffer read property, shared by `read_assembly_props.rs` here
//! (the STL over `MemBackend`) and `nds-system`'s `dirty_buffer_props.rs`
//! (the STL over `FlashBackend`, the baseline, the cluster): whatever a
//! reused read buffer holds and however long it is, `read_into` leaves
//! exactly what a fresh `read` returns — which is what a dense in-memory
//! copy of the space holds there — and reports the same.

use proptest::prelude::*;

use nds_core::{AccessReport, ElementType, NvmBackend, Region, Shape, SpaceId, Stl};

/// One `(coord, sub_dims)` partition of a view.
pub(crate) type Request = (Vec<u64>, Vec<u64>);

/// A space, what is written to it through the producer's view (the space's
/// own shape), and what is then read back through a consumer view.
#[derive(Debug, Clone)]
pub(crate) struct Case {
    pub dims: Vec<u64>,
    pub element: ElementType,
    /// Partial writes: the partition and a fill byte (0 writes zeros, which
    /// the STL elides unit by unit).
    pub writes: Vec<(Request, u8)>,
    /// How the consumer folds the space: 0 flattens it to one dimension,
    /// 1 merges the two fastest dimensions, 2 the two slowest.
    pub fold: u8,
    /// Reads through the consumer view, as `(selector, selector)` pairs
    /// resolved against that view by [`request_in`].
    pub reads: Vec<Vec<(u64, u64)>>,
}

/// Spaces of 1–3 dimensions of f32 or f64, up to six partial writes, up to
/// eight reads.
pub(crate) fn case_strategy(max_side: u64) -> impl Strategy<Value = Case> {
    let selectors = || prop::collection::vec((0u64..1 << 16, 0u64..1 << 16), 3);
    (
        prop::collection::vec(1u64..=max_side, 1..=3),
        any::<bool>(),
        prop::collection::vec((selectors(), 0u8..4), 0..=6),
        0u8..3,
        prop::collection::vec(selectors(), 1..=8),
    )
        .prop_map(|(dims, wide, writes, fold, reads)| {
            let shape = Shape::new(dims.clone());
            let writes = writes
                .into_iter()
                .map(|(selectors, fill)| (request_in(&shape, &selectors), fill.saturating_sub(1)))
                .collect();
            Case {
                dims,
                element: if wide {
                    ElementType::F64
                } else {
                    ElementType::F32
                },
                writes,
                fold,
                reads,
            }
        })
}

/// Picks a partition of `view` from one `(extent, position)` selector pair
/// per dimension.
pub(crate) fn request_in(view: &Shape, selectors: &[(u64, u64)]) -> Request {
    view.dims()
        .iter()
        .zip(selectors)
        .map(|(&d, &(extent, position))| {
            let sub = 1 + extent % d;
            (position % (d / sub), sub)
        })
        .unzip()
}

/// The consumer's view of a space of `dims`: same volume, other shape.
pub(crate) fn consumer_view(dims: &[u64], fold: u8) -> Shape {
    match (dims, fold) {
        ([a, b, c], 1) => Shape::new([a * b, *c]),
        ([a, b, c], 2) => Shape::new([*a, b * c]),
        _ => Shape::new([dims.iter().product::<u64>()]),
    }
}

/// Something that stores one space and reads partitions of it back.
pub(crate) trait Subject {
    /// What a read reports besides the bytes.
    type Report: PartialEq + std::fmt::Debug;
    fn write(&mut self, view: &Shape, coord: &[u64], sub: &[u64], data: &[u8]);
    fn read(&mut self, view: &Shape, coord: &[u64], sub: &[u64]) -> (Vec<u8>, Self::Report);
    fn read_into(
        &mut self,
        view: &Shape,
        coord: &[u64],
        sub: &[u64],
        buf: &mut Vec<u8>,
    ) -> Self::Report;
}

/// One space of an STL.
pub(crate) struct StlSpace<'a, B: NvmBackend>(pub &'a mut Stl<B>, pub SpaceId);

impl<B: NvmBackend> Subject for StlSpace<'_, B> {
    type Report = AccessReport;

    fn write(&mut self, view: &Shape, coord: &[u64], sub: &[u64], data: &[u8]) {
        self.0.write(self.1, view, coord, sub, data).unwrap();
    }

    fn read(&mut self, view: &Shape, coord: &[u64], sub: &[u64]) -> (Vec<u8>, AccessReport) {
        self.0.read(self.1, view, coord, sub).unwrap()
    }

    fn read_into(
        &mut self,
        view: &Shape,
        coord: &[u64],
        sub: &[u64],
        buf: &mut Vec<u8>,
    ) -> AccessReport {
        self.0.read_into(self.1, view, coord, sub, buf).unwrap()
    }
}

/// Runs `case` on `subject`, which holds a fresh space of `case.dims` ×
/// `case.element`: every read goes once into a fresh buffer and once into
/// one dirty buffer shared by all of them, and both must equal the same
/// bytes of `model`, a dense copy of the space in canonical order.
pub(crate) fn check(subject: &mut impl Subject, case: &Case) -> Result<(), TestCaseError> {
    let producer = Shape::new(case.dims.clone());
    let elem = case.element.size();
    let mut model = vec![0u8; producer.volume() as usize * elem];
    for ((coord, sub), fill) in &case.writes {
        let bytes = sub.iter().product::<u64>() as usize * elem;
        // A zero fill leaves whole units zero; the others never do.
        let data: Vec<u8> = (0..bytes).map(|i| fill * (1 + (i % 7) as u8)).collect();
        subject.write(&producer, coord, sub, &data);
        Region::for_each_request_run(&producer, coord, sub, |at, linear, len| {
            let (at, linear, len) = (
                at as usize * elem,
                linear as usize * elem,
                len as usize * elem,
            );
            model[linear..linear + len].copy_from_slice(&data[at..at + len]);
        })
        .unwrap();
    }
    let consumer = consumer_view(&case.dims, case.fold);
    let mut dirty = Vec::new();
    for (turn, selectors) in case.reads.iter().enumerate() {
        let (coord, sub) = request_in(&consumer, selectors);
        let mut expected = Vec::new();
        Region::for_each_request_run(&consumer, &coord, &sub, |_, linear, len| {
            let (linear, len) = (linear as usize * elem, len as usize * elem);
            expected.extend_from_slice(&model[linear..linear + len]);
        })
        .unwrap();
        let (fresh, fresh_report) = subject.read(&consumer, &coord, &sub);
        prop_assert_eq!(&fresh, &expected, "read {} of {:?}", turn, (&coord, &sub));
        // What the previous request left, longer, or shorter — always dirty.
        match turn % 3 {
            0 => {}
            1 => dirty.resize(expected.len() + 1 + turn * 13, 0),
            _ => dirty.truncate(expected.len() / 2),
        }
        dirty.fill(0xFF);
        let report = subject.read_into(&consumer, &coord, &sub, &mut dirty);
        prop_assert_eq!(
            &dirty,
            &expected,
            "dirty read {} of {:?}",
            turn,
            (&coord, &sub)
        );
        prop_assert_eq!(report, fresh_report);
    }
    Ok(())
}

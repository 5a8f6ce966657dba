//! The sweep `cache_invariance` and `obs_invariance` replay with a feature
//! on and off, and the check that every modeled outcome is the same, included
//! by `#[path]` in each.

use nds_core::{ElementType, Shape};
use nds_system::{DatasetId, ReadOutcome, StorageFrontEnd, WriteOutcome};

/// The side of the swept square matrix.
pub(crate) const N: u64 = 512;

/// The request trace: a miniature Fig. 9 sweep, each request issued twice so
/// the second pass is served from the plan cache when it is enabled.
pub(crate) fn sweep() -> Vec<(Vec<u64>, Vec<u64>)> {
    let mut requests = vec![
        (vec![0, 0], vec![N, 64]),    // rows (9a)
        (vec![0, 0], vec![64, N]),    // columns (9b)
        (vec![1, 1], vec![128, 128]), // submatrix (9c)
        (vec![0, 1], vec![256, 128]), // wide tile
        (vec![0, 0], vec![N, N]),     // whole matrix
    ];
    let repeats = requests.clone();
    requests.extend(repeats);
    requests
}

/// Every modeled outcome of one [`run`].
pub(crate) type Outcomes = (WriteOutcome, Vec<ReadOutcome>);

/// Creates the `N` × `N` f32 matrix on `sys` and writes it whole.
pub(crate) fn write_matrix<S: StorageFrontEnd>(sys: &mut S) -> (DatasetId, Shape, WriteOutcome) {
    let shape = Shape::new([N, N]);
    let id = sys
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let bytes: Vec<u8> = (0..N * N * 4).map(|i| (i % 251) as u8).collect();
    let w = sys
        .write(id, &shape, &[0, 0], &[N, N], &bytes)
        .expect("write");
    (id, shape, w)
}

/// Writes the matrix and replays the sweep on one front-end; returns every
/// modeled outcome.
pub(crate) fn run<S: StorageFrontEnd>(sys: &mut S) -> Outcomes {
    let (id, shape, w) = write_matrix(sys);
    let reads = sweep()
        .iter()
        .map(|(coord, sub)| sys.read(id, &shape, coord, sub).expect("read"))
        .collect();
    (w, reads)
}

/// Asserts that turning `toggled` ("cache", "obs") on moved no outcome.
pub(crate) fn assert_same_outcomes(toggled: &str, on: Outcomes, off: Outcomes) {
    assert_eq!(
        on.0, off.0,
        "write outcome diverges with {toggled} on vs off"
    );
    for (i, (a, b)) in on.1.iter().zip(off.1.iter()).enumerate() {
        assert_eq!(a, b, "read outcome {i} diverges with {toggled} on vs off");
    }
}

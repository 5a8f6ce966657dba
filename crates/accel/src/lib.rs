//! The hardware-accelerator (GPU) model of the NDS reproduction.
//!
//! The paper's challenge *\[C2\]* — *unpredictability of optimal
//! dimensionality in compute kernels* — rests on Fig. 3: different
//! processing engines peak at different input tile sizes (CUDA cores at
//! 2048², Tensor Cores at 512² on an RTX 2080), and neither optimum matches
//! the tile that maximizes any given storage device's bandwidth (\[C3\]).
//!
//! [`ComputeEngine`] models an engine's *effective data-processing rate* as
//! a function of square-tile side with a rise–peak–mild-decline curve fitted
//! to Fig. 3's qualitative shape: small tiles underutilize the engine
//! (launch/occupancy overheads dominate), the rate peaks at the engine's
//! optimum, and very large tiles decay gently (cache/occupancy pressure).
//! [`h2d_link`] builds the host-to-device copy link.
//!
//! # Example
//!
//! ```
//! use nds_accel::ComputeEngine;
//!
//! let cuda = ComputeEngine::cuda_cores();
//! let tc = ComputeEngine::tensor_cores();
//! // Each engine is fastest at its own optimum (paper Fig. 3).
//! assert_eq!(cuda.optimal_tile(), 2048);
//! assert_eq!(tc.optimal_tile(), 512);
//! // Tensor cores hold a large performance lead at their optimum.
//! let tc_rate = tc.rate(512).bytes_per_sec_f64();
//! let cuda_rate = cuda.rate(512).bytes_per_sec_f64();
//! assert!(tc_rate > 4.0 * cuda_rate);
//! ```

#![warn(missing_docs)]
// The determinism contract's rules D1 and D3 (DESIGN.md "Determinism contract";
// the banned paths are in `clippy.toml`) hold outside test code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![forbid(unsafe_code)]

use nds_interconnect::{Link, LinkConfig};
use nds_sim::{SimDuration, Throughput};
use serde::{Deserialize, Serialize};

/// A processing engine with a tile-size-dependent effective data rate.
///
/// `rate(n) = peak / (1 + rise·(n_opt/n)³ + decline·(n/n_opt))`, which peaks
/// at `n = n_opt·(3·rise/decline)^¼`; presets choose `3·rise = decline` so
/// the peak lands exactly on the engine's documented optimum. The cubic
/// rise reproduces Fig. 3's decades-steep left flank; the linear decline
/// keeps the right side gentle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeEngine {
    peak: Throughput,
    n_opt: u64,
    rise: f64,
    decline: f64,
}

impl ComputeEngine {
    /// Builds an engine with an explicit curve.
    ///
    /// # Panics
    ///
    /// Panics if `n_opt` is zero or curve constants are non-positive.
    pub fn new(peak: Throughput, n_opt: u64, rise: f64, decline: f64) -> Self {
        assert!(n_opt > 0, "optimal tile must be non-zero");
        assert!(
            rise > 0.0 && decline > 0.0,
            "curve constants must be positive"
        );
        ComputeEngine {
            peak,
            n_opt,
            rise,
            decline,
        }
    }

    /// RTX 2080-class CUDA cores: optimum 2048×2048 (Fig. 3), ~25 GiB/s-class
    /// peak effective data rate.
    pub fn cuda_cores() -> Self {
        ComputeEngine::new(Throughput::mib_per_sec(25_000), 2048, 0.10 / 3.0, 0.10)
    }

    /// RTX 2080-class Tensor Cores: optimum 512×512 (Fig. 3), roughly an
    /// order of magnitude above the CUDA cores.
    pub fn tensor_cores() -> Self {
        ComputeEngine::new(Throughput::mib_per_sec(250_000), 512, 0.10 / 3.0, 0.10)
    }

    /// A CPU-core fallback engine for host-side kernels (graph traversal
    /// steps that stay on the CPU).
    pub fn host_cpu() -> Self {
        ComputeEngine::new(Throughput::mib_per_sec(3_000), 256, 0.04 / 3.0, 0.04)
    }

    /// Returns the engine with its optimal tile divided by `divisor`
    /// (minimum 1). Scaled-down reproductions shrink kernel tiles along
    /// with the datasets; dividing the optimum by the same linear scale
    /// keeps every workload at the paper's operating point on the rate
    /// curve.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn with_optimum_scaled(mut self, divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be non-zero");
        self.n_opt = (self.n_opt / divisor).max(1);
        self
    }

    /// The tile side at which the rate curve peaks.
    pub fn optimal_tile(&self) -> u64 {
        // n_opt · (3·rise / decline)^(1/4); presets keep the ratio at 1.
        let factor = (3.0 * self.rise / self.decline).powf(0.25);
        ((self.n_opt as f64) * factor).round() as u64
    }

    /// Effective data-processing rate for square tiles of side `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn rate(&self, n: u64) -> Throughput {
        assert!(n > 0, "tile side must be non-zero");
        let x = n as f64 / self.n_opt as f64;
        let denom = 1.0 + self.rise / (x * x * x) + self.decline * x;
        self.peak.scaled(1.0 / denom)
    }

    /// Time for the engine to process `bytes` of input presented as tiles of
    /// side `tile`.
    pub fn kernel_time(&self, bytes: u64, tile: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::ZERO;
        }
        self.rate(tile).time_for_bytes(bytes)
    }
}

/// The host→device copy path (PCIe 3.0 ×16 on the paper's platform).
pub fn h2d_link() -> Link {
    Link::new(LinkConfig::pcie3_x16())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_peaks_at_documented_optimum() {
        for (name, engine) in [
            ("cuda-cores", ComputeEngine::cuda_cores()),
            ("tensor-cores", ComputeEngine::tensor_cores()),
        ] {
            let opt = engine.optimal_tile();
            let at_opt = engine.rate(opt).bytes_per_sec_f64();
            for n in [opt / 8, opt / 2, opt * 2, opt * 8] {
                assert!(
                    engine.rate(n).bytes_per_sec_f64() <= at_opt,
                    "{name} rate({n}) exceeds rate at optimum {opt}"
                );
            }
        }
    }

    #[test]
    fn cuda_optimum_is_2048_tc_is_512() {
        assert_eq!(ComputeEngine::cuda_cores().optimal_tile(), 2048);
        assert_eq!(ComputeEngine::tensor_cores().optimal_tile(), 512);
    }

    #[test]
    fn small_tiles_are_much_slower() {
        let tc = ComputeEngine::tensor_cores();
        let tiny = tc.rate(32).bytes_per_sec_f64();
        let opt = tc.rate(512).bytes_per_sec_f64();
        assert!(opt / tiny > 50.0, "32² should be far below optimum");
    }

    #[test]
    fn decline_past_optimum_is_mild() {
        let cuda = ComputeEngine::cuda_cores();
        let opt = cuda.rate(2048).bytes_per_sec_f64();
        let big = cuda.rate(16384).bytes_per_sec_f64();
        assert!(big / opt > 0.5, "decline beyond optimum should be gentle");
        assert!(big / opt < 1.0);
    }

    #[test]
    fn kernel_time_scales_with_bytes() {
        let tc = ComputeEngine::tensor_cores();
        let one = tc.kernel_time(1 << 20, 512);
        let two = tc.kernel_time(2 << 20, 512);
        // Nanosecond rounding may differ by one.
        assert!(two.as_nanos().abs_diff(one.as_nanos() * 2) <= 1);
        assert_eq!(tc.kernel_time(0, 512), SimDuration::ZERO);
    }

    #[test]
    fn h2d_link_is_fast() {
        let link = h2d_link();
        assert!(link.config().peak.as_mib_per_sec() > 8_000.0);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_tile_rejected() {
        let _ = ComputeEngine::cuda_cores().rate(0);
    }
}

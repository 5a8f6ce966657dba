//! The host CPU cost model.

use nds_sim::{SimDuration, Throughput};
use serde::{Deserialize, Serialize};

/// Costs of the host-side work a storage front-end induces.
///
/// Two activities matter to the paper's evaluation:
///
/// * **I/O submission** — per-request syscall + NVMe submission cost. The
///   baseline's thousands of row requests (Fig. 1 needs 8,192 of them) pay
///   this every time.
/// * **Scattered copies** — marshalling copies small chunks to computed
///   destinations; each chunk pays address-calculation/loop/cache overhead
///   on top of the per-byte cost. Software NDS's 2 KB building-block-row
///   copies (§7.1) live here.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuModel {
    /// Per-I/O-request submission overhead (syscall + driver + doorbell).
    pub io_submit: SimDuration,
    /// Per-chunk overhead of scattered copies (offset computation, loop,
    /// cache/TLB effects of non-streaming access).
    pub scatter_chunk_overhead: SimDuration,
    /// Per-byte bandwidth of scattered copies once a chunk is started.
    pub scatter_copy: Throughput,
}

impl CpuModel {
    /// The paper's host: an AMD Ryzen 3700X-class core (§6.1). Constants are
    /// fitted so that (a) 2 KB-chunk assembly sustains ≈4 GiB/s — yielding
    /// software NDS's ~12% row-fetch penalty of §7.1 — and (b) per-request
    /// submission costs ≈5 µs, making thousands-of-requests baselines
    /// CPU-visible as in Fig. 2(a).
    pub fn ryzen_3700x() -> Self {
        CpuModel {
            io_submit: SimDuration::from_micros(5),
            scatter_chunk_overhead: SimDuration::nanos::<300>(),
            scatter_copy: Throughput::mib_per_sec(10_000),
        }
    }

    /// Cost of submitting `requests` I/O commands.
    pub fn submit_time(&self, requests: u64) -> SimDuration {
        self.io_submit * requests
    }

    /// Cost of copying `bytes` in `chunks` scattered pieces.
    pub fn scatter_copy_time(&self, chunks: u64, bytes: u64) -> SimDuration {
        if bytes == 0 || chunks == 0 {
            return SimDuration::ZERO;
        }
        self.scatter_chunk_overhead * chunks + self.scatter_copy.time_for_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The effective bandwidth of scattered copying at `chunk_bytes` chunks.
    fn scatter_bandwidth(cpu: &CpuModel, chunk_bytes: u64) -> Throughput {
        Throughput::from_bytes_over(chunk_bytes, cpu.scatter_copy_time(1, chunk_bytes))
    }

    #[test]
    fn scatter_bandwidth_grows_with_chunk_size() {
        let cpu = CpuModel::ryzen_3700x();
        let small = scatter_bandwidth(&cpu, 2048).bytes_per_sec_f64();
        let large = scatter_bandwidth(&cpu, 32 * 1024).bytes_per_sec_f64();
        assert!(large > small);
    }

    #[test]
    fn calibration_2kb_chunks_near_4gibs() {
        // §7.1: software NDS assembles rows from 2 KB chunks and lands ~12%
        // under the 4.3 GB/s-class baseline; our scatter bandwidth at 2 KB
        // must therefore sit in the 3.5–5 GiB/s window.
        let cpu = CpuModel::ryzen_3700x();
        let bw = scatter_bandwidth(&cpu, 2048).as_mib_per_sec() / 1024.0;
        assert!((3.5..5.0).contains(&bw), "2 KB scatter bw = {bw:.2} GiB/s");
    }

    #[test]
    fn submission_scales_linearly() {
        let cpu = CpuModel::ryzen_3700x();
        assert_eq!(cpu.submit_time(1000), cpu.submit_time(1) * 1000);
    }

    #[test]
    fn zero_work_is_free() {
        let cpu = CpuModel::ryzen_3700x();
        assert_eq!(cpu.scatter_copy_time(0, 0), SimDuration::ZERO);
        assert_eq!(cpu.submit_time(0), SimDuration::ZERO);
    }
}

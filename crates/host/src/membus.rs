//! The host CPU–memory bus.
//!
//! §2.1 [P2] notes that the workaround of buffering large sequential reads
//! "generates traffic from copying small data blocks on the CPU-memory bus"
//! and "wastes precious main-memory capacity". This model accounts that
//! traffic: DMA transfers cross the bus once; CPU copies cross it twice
//! (read + write). Fig. 2's harness uses it to show how many bus bytes each
//! pipeline configuration burns per tile, and the occupancy face lets
//! systems model bus contention when they need it.

use nds_sim::{Resource, SimDuration, SimTime, Throughput};

/// A serially-occupied host memory bus with traffic accounting.
///
/// # Example
///
/// ```
/// use nds_host::MemoryBus;
///
/// let mut bus = MemoryBus::ddr4_dual_channel();
/// bus.dma(1 << 20);      // device → DRAM: crosses once
/// bus.cpu_copy(1 << 20); // DRAM → DRAM: crosses twice
/// assert_eq!(bus.traffic_bytes(), 3 << 20);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryBus {
    bandwidth: Throughput,
    bus: Resource,
    traffic: u64,
}

impl MemoryBus {
    /// Creates a bus with the given aggregate bandwidth.
    pub fn new(bandwidth: Throughput) -> Self {
        MemoryBus {
            bandwidth,
            bus: Resource::new("host.membus"),
            traffic: 0,
        }
    }

    /// A dual-channel DDR4-3200-class bus (~48 GiB/s aggregate), matching
    /// the paper's Ryzen 3700X platform.
    pub fn ddr4_dual_channel() -> Self {
        MemoryBus::new(Throughput::mib_per_sec(48_000))
    }

    /// Accounts a DMA transfer of `bytes` (crosses the bus once) and
    /// returns its occupancy.
    pub fn dma(&mut self, bytes: u64) -> SimDuration {
        self.traffic += bytes;
        self.hold(bytes)
    }

    /// Accounts a CPU copy of `bytes` (read + write: crosses twice) and
    /// returns its occupancy.
    pub fn cpu_copy(&mut self, bytes: u64) -> SimDuration {
        self.traffic += 2 * bytes;
        self.hold(2 * bytes)
    }

    fn hold(&mut self, bus_bytes: u64) -> SimDuration {
        if bus_bytes == 0 {
            return SimDuration::ZERO;
        }
        let hold = self.bandwidth.time_for_bytes(bus_bytes);
        let end = self.bus.acquire(SimTime::ZERO, hold);
        let _ = end;
        hold
    }

    /// Total bytes that have crossed the bus.
    pub fn traffic_bytes(&self) -> u64 {
        self.traffic
    }

    /// Cumulative bus occupancy.
    pub fn busy_time(&self) -> SimDuration {
        self.bus.busy_time()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dma_crosses_once_copy_twice() {
        let mut bus = MemoryBus::new(Throughput::mib_per_sec(1024));
        bus.dma(1024);
        assert_eq!(bus.traffic_bytes(), 1024);
        bus.cpu_copy(1024);
        assert_eq!(bus.traffic_bytes(), 3 * 1024);
    }

    #[test]
    fn occupancy_reflects_bus_bytes() {
        let mut bus = MemoryBus::new(Throughput::mib_per_sec(1)); // 1 MiB/s
        let dma = bus.dma(1024 * 1024);
        let copy = bus.cpu_copy(1024 * 1024);
        assert_eq!(dma, SimDuration::from_secs(1));
        assert_eq!(copy, SimDuration::from_secs(2));
        assert_eq!(bus.busy_time(), SimDuration::from_secs(3));
    }

    #[test]
    fn zero_bytes_are_free() {
        let mut bus = MemoryBus::ddr4_dual_channel();
        assert_eq!(bus.dma(0), SimDuration::ZERO);
        assert_eq!(bus.traffic_bytes(), 0);
    }
}

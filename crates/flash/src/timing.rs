//! Latency and bandwidth parameters of the flash medium.

use nds_sim::{SimDuration, Throughput};
use serde::{Deserialize, Serialize};

/// Latency/bandwidth parameters for flash array operations.
///
/// A page **read** occupies the page's bank for `read_latency` (the array
/// sense) and then the channel bus for `page_size / channel_bus` (the data
/// transfer). A **program** moves data over the channel first and then holds
/// the bank for `program_latency`. An **erase** holds the bank for
/// `erase_latency`. These are the standard NAND timing abstractions the paper
/// assumes when it reasons about pipelined building-block accesses (§3, §4.1).
///
/// # Example
///
/// ```
/// use nds_flash::FlashTiming;
///
/// let t = FlashTiming::tlc_nand();
/// // One 4 KB page transfer takes on the order of a few microseconds.
/// let xfer = t.transfer_time(4096);
/// assert!(xfer.as_micros() >= 1 && xfer.as_micros() <= 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashTiming {
    /// Array read (sense) latency per page.
    pub read_latency: SimDuration,
    /// Array program latency per page.
    pub program_latency: SimDuration,
    /// Block erase latency.
    pub erase_latency: SimDuration,
    /// Per-channel bus bandwidth.
    pub channel_bus: Throughput,
}

impl FlashTiming {
    /// Representative TLC NAND timings: 50 µs read, 600 µs program, 3 ms
    /// erase, 800 MB/s channel bus — within the envelope the paper cites
    /// ("typically 30 µs–100 µs" page reads, §7.3).
    pub fn tlc_nand() -> Self {
        FlashTiming {
            read_latency: SimDuration::from_micros(50),
            program_latency: SimDuration::from_micros(600),
            erase_latency: SimDuration::from_millis(3),
            channel_bus: Throughput::mib_per_sec(800),
        }
    }

    /// A fast low-latency NVM profile (PCM-like), for the "faster NVM raises
    /// the internal-to-external ratio" discussion in §7.2.
    pub fn fast_nvm() -> Self {
        FlashTiming {
            read_latency: SimDuration::from_micros(5),
            program_latency: SimDuration::from_micros(20),
            erase_latency: SimDuration::from_micros(100),
            channel_bus: Throughput::mib_per_sec(1600),
        }
    }

    /// Time to move `bytes` over one channel bus.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        self.channel_bus.time_for_bytes(bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tlc_profile_in_paper_envelope() {
        let t = FlashTiming::tlc_nand();
        assert!(t.read_latency >= SimDuration::from_micros(30));
        assert!(t.read_latency <= SimDuration::from_micros(100));
        assert!(t.program_latency > t.read_latency);
        assert!(t.erase_latency > t.program_latency);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let t = FlashTiming::tlc_nand();
        let one = t.transfer_time(4096);
        let two = t.transfer_time(8192);
        assert_eq!(two.as_nanos(), one.as_nanos() * 2);
    }

    #[test]
    fn fast_nvm_is_faster() {
        let slow = FlashTiming::tlc_nand();
        let fast = FlashTiming::fast_nvm();
        assert!(fast.read_latency < slow.read_latency);
        assert!(fast.channel_bus.bytes_per_sec_f64() > slow.channel_bus.bytes_per_sec_f64());
    }
}

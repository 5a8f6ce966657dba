//! The NDS controller pipeline (Fig. 8) and its software-NDS counterpart.
//!
//! The paper's NDS-compliant controller runs five pipeline elements on eight
//! ARM A72 cores — (1) a PCIe/NVMe command handler, (2) the space
//! translator/manager, (3) the space allocator with garbage collector,
//! (4) the data assembler, and (5) four channel handlers — connected by
//! dedicated message-queue pairs "to avoid locking and race conditions"
//! (§5.3.2). A request's fixed latency is therefore the sum of each
//! element's handling time plus the queue hops between them, with the
//! B-tree traversal contributing one step per space dimension (§4.2).
//!
//! [`ControllerPipeline::request_latency`] composes those pieces; the
//! defaults are calibrated so a single-page request on a 2-level space costs
//! ≈17 µs — the §7.3 measurement. [`HostStlPath`] is the same decomposition
//! for software NDS, where the request crosses the kernel I/O stack instead
//! of message queues; its default composes to §7.3's ≈41 µs.

use nds_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Fixed-latency model of the in-device STL pipeline (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ControllerPipeline {
    /// PCIe/NVMe command handler: decode the extended command and fetch its
    /// argument page.
    pub command_handler: SimDuration,
    /// Message-queue hop between neighboring pipeline elements.
    pub queue_hop: SimDuration,
    /// Hops a request crosses end to end (command handler → translator →
    /// allocator → assembler → completion).
    pub hops: u32,
    /// Space-translator work per B-tree level (one level per dimension).
    pub per_tree_level: SimDuration,
    /// Allocator/garbage-collector check per request.
    pub allocator_check: SimDuration,
    /// Data-assembler setup (buffer carve-out, DMA descriptors).
    pub assembler_setup: SimDuration,
    /// Completion posting back to the host.
    pub completion: SimDuration,
}

impl ControllerPipeline {
    /// The Stingray-class defaults: composes to 17 µs for a 2-level space —
    /// the §7.3 worst-case single-page measurement.
    pub fn stingray() -> Self {
        ControllerPipeline {
            command_handler: SimDuration::from_micros(3),
            queue_hop: SimDuration::from_micros(1),
            hops: 5,
            per_tree_level: SimDuration::from_micros(2),
            allocator_check: SimDuration::from_micros(1),
            assembler_setup: SimDuration::from_micros(2),
            completion: SimDuration::from_micros(2),
        }
    }

    /// Fixed latency of one request against a space with `tree_levels`
    /// dimensions. Per §7.3, one traversal serves the whole request however
    /// many building blocks it covers, so this does not scale with request
    /// size — which is exactly why the overhead amortizes.
    pub fn request_latency(&self, tree_levels: usize) -> SimDuration {
        self.command_handler
            + self.queue_hop * u64::from(self.hops)
            + self.per_tree_level * tree_levels as u64
            + self.allocator_check
            + self.assembler_setup
            + self.completion
    }

    /// Divides every component by `divisor` (scaled-cost reproductions).
    #[must_use]
    pub fn scaled(mut self, divisor: u64) -> Self {
        self.command_handler = self.command_handler / divisor;
        self.queue_hop = self.queue_hop / divisor;
        self.per_tree_level = self.per_tree_level / divisor;
        self.allocator_check = self.allocator_check / divisor;
        self.assembler_setup = self.assembler_setup / divisor;
        self.completion = self.completion / divisor;
        self
    }
}

/// Fixed-latency model of the software-NDS request path: the STL runs on
/// the host, so every request crosses the syscall boundary, the LightNVM
/// driver, and an interrupt-driven completion (Fig. 7b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostStlPath {
    /// User→kernel crossing and argument marshalling.
    pub syscall: SimDuration,
    /// Space-translator work per B-tree level on the host CPU.
    pub per_tree_level: SimDuration,
    /// Coordinate arithmetic and request-vector construction.
    pub translate: SimDuration,
    /// LightNVM driver work: physical-page vector setup and pinning.
    pub driver_setup: SimDuration,
    /// Completion interrupt and wake-up.
    pub completion: SimDuration,
}

impl HostStlPath {
    /// Defaults composing to 41 µs for a 2-level space (§7.3).
    pub fn linux_lightnvm() -> Self {
        HostStlPath {
            syscall: SimDuration::from_micros(9),
            per_tree_level: SimDuration::nanos::<1_500>(),
            translate: SimDuration::from_micros(4),
            driver_setup: SimDuration::from_micros(15),
            completion: SimDuration::from_micros(10),
        }
    }

    /// Fixed latency of one request against a space with `tree_levels`
    /// dimensions.
    pub fn request_latency(&self, tree_levels: usize) -> SimDuration {
        self.syscall
            + self.per_tree_level * tree_levels as u64
            + self.translate
            + self.driver_setup
            + self.completion
    }

    /// Divides every component by `divisor` (scaled-cost reproductions).
    #[must_use]
    pub fn scaled(mut self, divisor: u64) -> Self {
        self.syscall = self.syscall / divisor;
        self.per_tree_level = self.per_tree_level / divisor;
        self.translate = self.translate / divisor;
        self.driver_setup = self.driver_setup / divisor;
        self.completion = self.completion / divisor;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stingray_composes_to_paper_17us() {
        let p = ControllerPipeline::stingray();
        assert_eq!(
            p.request_latency(2),
            SimDuration::from_micros(17),
            "§7.3: 17 µs added latency for a 2-D space"
        );
    }

    #[test]
    fn host_path_composes_to_paper_41us() {
        let p = HostStlPath::linux_lightnvm();
        assert_eq!(
            p.request_latency(2),
            SimDuration::from_micros(41),
            "§7.3: 41 µs added latency for a 2-D space"
        );
    }

    #[test]
    fn deeper_spaces_cost_more_per_level() {
        let p = ControllerPipeline::stingray();
        let d2 = p.request_latency(2);
        let d3 = p.request_latency(3);
        assert_eq!(d3 - d2, p.per_tree_level);
    }

    #[test]
    fn scaling_divides_components() {
        let p = ControllerPipeline::stingray().scaled(2);
        assert!(p.request_latency(2) <= SimDuration::from_micros(9));
        let h = HostStlPath::linux_lightnvm().scaled(2);
        assert!(h.request_latency(2) <= SimDuration::from_micros(21));
    }
}

//! The common storage front-end trait and operation outcomes.

use nds_core::{ElementType, Shape};
use nds_sim::{RunReport, SimDuration, Stats, Throughput, TraceExport};
use serde::{Deserialize, Serialize};

use crate::error::SystemError;

/// Identifier of a dataset created through a front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DatasetId(pub u64);

/// The result of a front-end read.
///
/// Latency is split the way the paper's pipelines consume it: `io_latency`
/// is the time until the requested object sits in host memory *in whatever
/// layout the front-end delivers*, and `restructure` is the extra host-CPU
/// stage the application must still run to shape that data for the kernel
/// (zero for both NDS variants, whose assembly is inside `io_latency` —
/// overlapped per building block for software NDS, in-device for hardware
/// NDS).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadOutcome {
    /// The requested partition, dense, in the consumer view's canonical
    /// element order.
    pub data: Vec<u8>,
    /// Time for the data to land in host memory.
    pub io_latency: SimDuration,
    /// The throughput-limiting portion of `io_latency`: resource occupancy
    /// (device, link, CPU submission, assembly) without fixed per-request
    /// latencies such as STL lookups. Deeply queued pipelines overlap the
    /// fixed latencies across requests (§7.3 notes one B-tree traversal
    /// amortizes over a large request), so steady-state pipeline stages are
    /// paced by this value while the first block pays full `io_latency`.
    pub io_occupancy: SimDuration,
    /// Host-CPU restructuring still required after `io_latency`.
    pub restructure: SimDuration,
    /// I/O commands that crossed the host↔device interface.
    pub commands: u64,
    /// Application-payload bytes delivered.
    pub bytes: u64,
}

impl ReadOutcome {
    /// End-to-end latency of the read as an unpipelined operation.
    pub fn latency(&self) -> SimDuration {
        self.io_latency + self.restructure
    }

    /// Application-level effective bandwidth (bytes over total latency),
    /// the metric of Fig. 9.
    pub fn effective_bandwidth(&self) -> Throughput {
        Throughput::from_bytes_over(self.bytes, self.latency())
    }

    /// The outcome's accounting without the payload.
    pub fn metrics(&self) -> ReadMetrics {
        ReadMetrics {
            io_latency: self.io_latency,
            io_occupancy: self.io_occupancy,
            restructure: self.restructure,
            commands: self.commands,
            bytes: self.bytes,
        }
    }
}

/// A [`ReadOutcome`] without the payload — what
/// [`read_into`](StorageFrontEnd::read_into) returns when the data lands in
/// the caller's buffer instead. Field meanings match [`ReadOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReadMetrics {
    /// Time for the data to land in host memory.
    pub io_latency: SimDuration,
    /// Throughput-limiting portion of `io_latency` (see [`ReadOutcome`]).
    pub io_occupancy: SimDuration,
    /// Host-CPU restructuring still required after `io_latency`.
    pub restructure: SimDuration,
    /// I/O commands that crossed the host↔device interface.
    pub commands: u64,
    /// Application-payload bytes delivered.
    pub bytes: u64,
}

impl ReadMetrics {
    /// End-to-end latency of the read as an unpipelined operation.
    pub fn latency(&self) -> SimDuration {
        self.io_latency + self.restructure
    }

    /// Application-level effective bandwidth — the metric of Fig. 9.
    pub fn effective_bandwidth(&self) -> Throughput {
        Throughput::from_bytes_over(self.bytes, self.latency())
    }

    /// Reattaches a payload, producing the equivalent [`ReadOutcome`].
    pub fn into_outcome(self, data: Vec<u8>) -> ReadOutcome {
        ReadOutcome {
            data,
            io_latency: self.io_latency,
            io_occupancy: self.io_occupancy,
            restructure: self.restructure,
            commands: self.commands,
            bytes: self.bytes,
        }
    }
}

/// The result of a front-end write.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WriteOutcome {
    /// End-to-end synchronous write latency (the paper measures writes with
    /// asynchronous completion disabled, §7.1).
    pub latency: SimDuration,
    /// I/O commands that crossed the host↔device interface.
    pub commands: u64,
    /// Application-payload bytes accepted.
    pub bytes: u64,
}

impl WriteOutcome {
    /// Effective write bandwidth — the metric of Fig. 9(d).
    pub fn effective_bandwidth(&self) -> Throughput {
        Throughput::from_bytes_over(self.bytes, self.latency)
    }
}

/// A storage system as the workloads see it: dataset creation plus
/// multi-dimensional read/write in an application-defined view.
///
/// The four architectures implement this identically from the caller's
/// perspective; only cost and internal mechanics differ. Views follow the
/// STL convention: any shape whose volume equals the dataset's, with the
/// request being `(coordinate, sub-dimensionality)` in that view.
pub trait StorageFrontEnd {
    /// A short architecture name for reports ("baseline", "software-nds"…).
    fn name(&self) -> &'static str;

    /// Creates a dataset of `shape` × `element`.
    ///
    /// # Errors
    ///
    /// Capacity or STL errors, depending on the architecture.
    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError>;

    /// Writes the partition at `coord`/`sub_dims` of `view`.
    ///
    /// # Errors
    ///
    /// Validation errors for malformed requests; device errors on exhaustion.
    fn write(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError>;

    /// Reads the partition at `coord`/`sub_dims` of `view` into a fresh
    /// buffer — [`read_into`](StorageFrontEnd::read_into) plus the
    /// allocation.
    ///
    /// # Errors
    ///
    /// Same as [`read_into`](StorageFrontEnd::read_into).
    fn read(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<ReadOutcome, SystemError> {
        let mut data = Vec::new();
        let metrics = self.read_into(id, view, coord, sub_dims, &mut data)?;
        Ok(metrics.into_outcome(data))
    }

    /// Reads the partition at `coord`/`sub_dims` of `view` into a
    /// caller-provided buffer, so repeated reads reuse one allocation. On
    /// `Ok`, `buf` holds exactly the partition (`buf.len()` equals the
    /// returned `bytes`) whatever it held or however long it was before: it
    /// is sized once and every byte placed once. On `Err` its contents are
    /// unspecified and its capacity is kept. The buffer only changes who
    /// owns the wall-clock memory traffic, never the modeled time.
    ///
    /// # Errors
    ///
    /// Validation errors for malformed requests.
    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError>;

    /// Permanently deletes a dataset, releasing its storage (the paper's
    /// `delete_space` command, §5.3.1: building blocks are invalidated and
    /// the translation structures removed).
    ///
    /// # Errors
    ///
    /// [`SystemError::UnknownDataset`] if `id` is not registered.
    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError>;

    /// Cumulative counters (commands, bytes, device ops) for reporting.
    fn stats(&self) -> Stats;

    /// The architecture's serializable run artifact: counters plus —
    /// when the system was built with
    /// [`SystemConfig::with_observability`](crate::SystemConfig::with_observability)
    /// — journal summaries, latency histograms, and busy-time timelines
    /// from every timing component. The default reports counters only;
    /// each architecture overrides it to absorb its components.
    fn run_report(&self) -> RunReport {
        let mut report = self.stats().to_report();
        report.set_meta("arch", self.name());
        report
    }

    /// The run's causal trace — every trace-tagged event from the
    /// system/link/device journals on the run-long trace clock, plus
    /// per-channel/bank busy totals — for the Chrome-trace exporter and
    /// `nds-prof`. `None` unless the system was built with
    /// [`ObsConfig::traced`](nds_sim::ObsConfig::traced) (each
    /// architecture overrides this default).
    fn trace_export(&self) -> Option<TraceExport> {
        None
    }

    /// True if the front-end was built with a collecting
    /// [`ObsConfig`](nds_sim::ObsConfig), so a driver on top of it — the
    /// multi-tenant engine's sampler — collects too. The default, for a
    /// front-end with no telemetry of its own, is `false`.
    fn collecting(&self) -> bool {
        false
    }

    /// Number of trace ids allocated so far (the command tracer's cursor);
    /// 0 when tracing is off. A flash-backed front-end allocates one id per
    /// request on a known dataset; callers attributing commands — e.g. the
    /// multi-tenant traffic engine mapping trace ids to tenants — snapshot
    /// the cursor around an operation and claim the ids in
    /// `(before, after]`, which holds for any front-end.
    fn trace_cursor(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_bandwidths() {
        let read = ReadOutcome {
            data: vec![],
            io_latency: SimDuration::from_millis(1),
            io_occupancy: SimDuration::from_millis(1),
            restructure: SimDuration::from_millis(1),
            commands: 4,
            bytes: 2 * 1024 * 1024,
        };
        assert_eq!(read.latency(), SimDuration::from_millis(2));
        // 2 MiB over 2 ms = 1000 MiB/s.
        assert!((read.effective_bandwidth().as_mib_per_sec() - 1000.0).abs() < 1.0);

        let write = WriteOutcome {
            latency: SimDuration::from_millis(4),
            commands: 1,
            bytes: 4 * 1024 * 1024,
        };
        assert!((write.effective_bandwidth().as_mib_per_sec() - 1000.0).abs() < 1.0);
    }
}

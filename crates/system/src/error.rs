//! Error type spanning the system layers.

use core::fmt;

use crate::frontend::DatasetId;

/// Errors raised by the system front-ends.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SystemError {
    /// The STL rejected the operation.
    Nds(nds_core::NdsError),
    /// The flash device or FTL rejected the operation.
    Flash(nds_flash::FlashError),
    /// The request violates the NVMe command extension's interface limits
    /// (§5.3.1: at most 32 dimensions of at most 2²⁴ elements).
    Command(nds_interconnect::CommandError),
    /// The interconnect abandoned a command after exhausting its
    /// retransmission budget.
    Link(nds_interconnect::LinkError),
    /// No dataset with the given identifier.
    UnknownDataset(DatasetId),
    /// The dataset needs more pages than the store can give it: the LBAs
    /// not yet allocated (baseline), or the whole device (NDS).
    CapacityExceeded {
        /// Pages requested.
        requested: u64,
        /// Pages available.
        available: u64,
    },
    /// A tenant addressed a dataset outside its namespace (multi-tenant
    /// traffic engine): tenants own disjoint dataspace sets and may never
    /// read or write another tenant's data.
    TenantIsolation {
        /// The offending tenant.
        tenant: u32,
        /// The foreign dataset it addressed.
        dataset: DatasetId,
    },
    /// The WFQ scheduler rejected an admission (finish-tag overflow of the
    /// u128 virtual clock).
    Scheduler(nds_interconnect::WfqError),
    /// The submission queue rejected a command.
    Queue(nds_interconnect::QueueError),
    /// The wire codec rejected a command on encode or decode.
    Wire(nds_interconnect::WireError),
    /// The NVMe queue-pair protocol was violated: a command did not
    /// surface where the synchronous submit/pop/decode drain expects it.
    Protocol(&'static str),
    /// No alive, fresh, link-up replica can serve the shard (cluster
    /// front-end): the operation is rejected *unacknowledged* rather than
    /// silently dropped.
    ShardUnavailable {
        /// The dataset whose shard is unreachable.
        dataset: DatasetId,
        /// The unreachable shard index.
        shard: u32,
    },
    /// Cluster bookkeeping violated an internal invariant (a replica map
    /// and a buffer range disagreed). Surfaced as a typed error instead of
    /// a panic so the data path stays panic-free.
    ClusterInconsistency(&'static str),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Nds(e) => write!(f, "stl: {e}"),
            SystemError::Flash(e) => write!(f, "flash: {e}"),
            SystemError::Command(e) => write!(f, "command: {e}"),
            SystemError::Link(e) => write!(f, "link: {e}"),
            SystemError::UnknownDataset(id) => write!(f, "no dataset with identifier {id:?}"),
            SystemError::CapacityExceeded {
                requested,
                available,
            } => write!(
                f,
                "dataset needs {requested} pages but only {available} remain"
            ),
            SystemError::TenantIsolation { tenant, dataset } => write!(
                f,
                "tenant {tenant} addressed foreign dataset {dataset:?} outside its namespace"
            ),
            SystemError::Scheduler(e) => write!(f, "scheduler: {e}"),
            SystemError::Queue(e) => write!(f, "queue: {e}"),
            SystemError::Wire(e) => write!(f, "wire: {e}"),
            SystemError::Protocol(what) => write!(f, "nvme protocol violation: {what}"),
            SystemError::ShardUnavailable { dataset, shard } => write!(
                f,
                "no alive fresh replica can serve shard {shard} of dataset {dataset:?}"
            ),
            SystemError::ClusterInconsistency(what) => {
                write!(f, "cluster invariant violated: {what}")
            }
        }
    }
}

impl std::error::Error for SystemError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SystemError::Nds(e) => Some(e),
            SystemError::Flash(e) => Some(e),
            SystemError::Command(e) => Some(e),
            SystemError::Link(e) => Some(e),
            SystemError::Scheduler(e) => Some(e),
            SystemError::Queue(e) => Some(e),
            SystemError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<nds_core::NdsError> for SystemError {
    fn from(e: nds_core::NdsError) -> Self {
        SystemError::Nds(e)
    }
}

impl From<nds_flash::FlashError> for SystemError {
    fn from(e: nds_flash::FlashError) -> Self {
        SystemError::Flash(e)
    }
}

impl From<nds_interconnect::CommandError> for SystemError {
    fn from(e: nds_interconnect::CommandError) -> Self {
        SystemError::Command(e)
    }
}

impl From<nds_interconnect::LinkError> for SystemError {
    fn from(e: nds_interconnect::LinkError) -> Self {
        SystemError::Link(e)
    }
}

impl From<nds_interconnect::WfqError> for SystemError {
    fn from(e: nds_interconnect::WfqError) -> Self {
        SystemError::Scheduler(e)
    }
}

impl From<nds_interconnect::QueueError> for SystemError {
    fn from(e: nds_interconnect::QueueError) -> Self {
        SystemError::Queue(e)
    }
}

impl From<nds_interconnect::WireError> for SystemError {
    fn from(e: nds_interconnect::WireError) -> Self {
        SystemError::Wire(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_and_sources() {
        let e = SystemError::from(nds_core::NdsError::EmptyShape);
        assert!(e.to_string().contains("stl"));
        assert!(std::error::Error::source(&e).is_some());
        let e = SystemError::from(nds_flash::FlashError::DeviceFull);
        assert!(e.to_string().contains("flash"));
        let e = SystemError::UnknownDataset(DatasetId(3));
        assert!(!e.to_string().is_empty());
    }
}

//! [`Spanned`]: a [`StorageFrontEnd`] that forwards every call to the wrapped
//! front-end and accounts it in a shared [`Rec`] — a counter bump when
//! tracing is off, a span and a captured request when it is on. It never
//! changes an argument or a result, so modeled outcomes and `stats()` are
//! those of the bare front-end (`tests` below hold it to that).

use nds_core::{ElementType, Shape};
use nds_sim::{RunReport, Stats, TraceExport};
use nds_system::{DatasetId, ReadMetrics, ReadOutcome, StorageFrontEnd, SystemError, WriteOutcome};

use crate::spans::{OpKind, Rec, Request};

/// A front-end wrapped for accounting.
#[derive(Debug)]
pub struct Spanned<S> {
    inner: S,
    rec: Rec,
    system: u32,
}

impl<S: StorageFrontEnd> Spanned<S> {
    /// Wraps `inner`, accounting into `rec`.
    pub fn new(inner: S, rec: &Rec) -> Self {
        Spanned {
            inner,
            rec: rec.clone(),
            system: rec.next_system(),
        }
    }

    /// The wrapped front-end.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    fn request(
        &self,
        kind: OpKind,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        cost: (u64, u64, u64, u64),
    ) -> Request {
        let (bytes, commands, io_ns, restructure_ns) = cost;
        Request {
            system: self.system,
            arch: self.inner.name(),
            kind,
            dataset: id.0,
            view: view.clone(),
            element: None,
            coord: coord.to_vec(),
            sub_dims: sub_dims.to_vec(),
            bytes,
            commands,
            io_ns,
            restructure_ns,
        }
    }
}

fn read_cost(m: &ReadMetrics) -> (u64, u64, u64, u64) {
    (
        m.bytes,
        m.commands,
        m.io_latency.as_nanos(),
        m.restructure.as_nanos(),
    )
}

impl<S: StorageFrontEnd> StorageFrontEnd for Spanned<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn create_dataset(
        &mut self,
        shape: Shape,
        element: ElementType,
    ) -> Result<DatasetId, SystemError> {
        let started = self.rec.begin_op();
        let kept = started.map(|_| shape.clone());
        let result = self.inner.create_dataset(shape, element);
        self.rec.end_op(
            started,
            OpKind::Create,
            self.inner.name(),
            result.is_ok(),
            0,
            || {
                let view = kept.unwrap_or_else(|| Shape::new([1]));
                let mut r = self.request(
                    OpKind::Create,
                    *result.as_ref().unwrap_or(&DatasetId(0)),
                    &view,
                    &[],
                    &[],
                    (0, 0, 0, 0),
                );
                r.element = Some(element);
                r
            },
        );
        result
    }

    fn write(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        data: &[u8],
    ) -> Result<WriteOutcome, SystemError> {
        let started = self.rec.begin_op();
        let result = self.inner.write(id, view, coord, sub_dims, data);
        let cost = result.as_ref().map_or((0, 0, 0, 0), |w| {
            (w.bytes, w.commands, w.latency.as_nanos(), 0)
        });
        self.rec.end_op(
            started,
            OpKind::Write,
            self.inner.name(),
            result.is_ok(),
            cost.2,
            || self.request(OpKind::Write, id, view, coord, sub_dims, cost),
        );
        result
    }

    fn read(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
    ) -> Result<ReadOutcome, SystemError> {
        let started = self.rec.begin_op();
        let result = self.inner.read(id, view, coord, sub_dims);
        let cost = result
            .as_ref()
            .map_or((0, 0, 0, 0), |r| read_cost(&r.metrics()));
        self.rec.end_op(
            started,
            OpKind::Read,
            self.inner.name(),
            result.is_ok(),
            cost.2 + cost.3,
            || self.request(OpKind::Read, id, view, coord, sub_dims, cost),
        );
        result
    }

    fn read_into(
        &mut self,
        id: DatasetId,
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        buf: &mut Vec<u8>,
    ) -> Result<ReadMetrics, SystemError> {
        let started = self.rec.begin_op();
        let result = self.inner.read_into(id, view, coord, sub_dims, buf);
        let cost = result.as_ref().map_or((0, 0, 0, 0), read_cost);
        self.rec.end_op(
            started,
            OpKind::Read,
            self.inner.name(),
            result.is_ok(),
            cost.2 + cost.3,
            || self.request(OpKind::Read, id, view, coord, sub_dims, cost),
        );
        result
    }

    fn delete_dataset(&mut self, id: DatasetId) -> Result<(), SystemError> {
        let started = self.rec.begin_op();
        let result = self.inner.delete_dataset(id);
        self.rec.end_op(
            started,
            OpKind::Delete,
            self.inner.name(),
            result.is_ok(),
            0,
            || self.request(OpKind::Delete, id, &Shape::new([1]), &[], &[], (0, 0, 0, 0)),
        );
        result
    }

    fn stats(&self) -> Stats {
        self.inner.stats()
    }

    fn run_report(&self) -> RunReport {
        self.inner.run_report()
    }

    fn trace_export(&self) -> Option<TraceExport> {
        self.inner.trace_export()
    }

    fn trace_cursor(&self) -> u64 {
        self.inner.trace_cursor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_sim::ObsConfig;
    use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, SystemConfig};

    /// A small mixed run; returns every outcome the caller can observe.
    fn drive<S: StorageFrontEnd>(sys: &mut S) -> (Vec<String>, Vec<u8>) {
        let shape = Shape::new([64, 64]);
        let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
        let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
        let mut seen = Vec::new();
        seen.push(format!(
            "{:?}",
            sys.write(id, &shape, &[0, 0], &[64, 64], &data).unwrap()
        ));
        let tile: Vec<u8> = (0..16 * 16 * 4).map(|i| (i % 13) as u8).collect();
        seen.push(format!(
            "{:?}",
            sys.write(id, &shape, &[1, 2], &[16, 16], &tile).unwrap()
        ));
        let mut buf = Vec::new();
        seen.push(format!(
            "{:?}",
            sys.read_into(id, &shape, &[0, 3], &[64, 8], &mut buf)
                .unwrap()
        ));
        let out = sys.read(id, &shape, &[1, 2], &[16, 16]).unwrap();
        assert_eq!(out.data, tile);
        seen.push(format!("{:?}", out.metrics()));
        // An error passes through untouched and is counted as failed.
        assert!(sys.read(DatasetId(999), &shape, &[0, 0], &[8, 8]).is_err());
        seen.push(format!("{}", sys.stats()));
        seen.push(sys.run_report().to_json());
        seen.push(format!("{}", sys.trace_cursor()));
        sys.delete_dataset(id).unwrap();
        (seen, buf)
    }

    fn identical<S: StorageFrontEnd>(make: impl Fn(SystemConfig) -> S) {
        for (obs, tracing) in [(ObsConfig::disabled(), false), (ObsConfig::traced(), true)] {
            let config = SystemConfig::small_test().with_observability(obs);
            let bare = drive(&mut make(config.clone()));
            let rec = Rec::new(tracing);
            rec.set_capture(true);
            let mut wrapped = Spanned::new(make(config), &rec);
            assert_eq!(drive(&mut wrapped), bare, "wrapper changed an outcome");
            assert_eq!(wrapped.trace_export().is_some(), tracing);
            // create + 2 writes + 2 reads + delete succeed, one read fails.
            assert_eq!(rec.ops(), (7, 1));
            rec.read(|r| {
                assert_eq!(r.spans.len(), if tracing { 7 } else { 0 });
                assert_eq!(r.requests.len(), if tracing { 6 } else { 0 });
                assert!(r.modeled_ns[wrapped.name()] > 0);
            });
        }
    }

    #[test]
    fn spanned_leaves_outcomes_and_stats_identical() {
        identical(BaselineSystem::new);
        identical(SoftwareNds::new);
        identical(HardwareNds::new);
    }
}

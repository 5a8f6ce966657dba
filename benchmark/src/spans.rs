//! In-memory spans recorded from the benchmark's own files, around the calls
//! into each layer (spans inside the product crates are a later change), plus
//! the always-on front-end accounting the end-to-end metrics are built from.
//!
//! One [`Rec`] is shared by every [`Spanned`](crate::spanned::Spanned)
//! wrapper of a workload. With tracing off it only counts; with tracing on
//! it records a span `{name, start_ns, end_ns, parent, op_id}` per scope and
//! per front-end call, and the request list the layer probes replay.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use nds_core::{ElementType, Shape};

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the recorder was created.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Recorder::names`].
    pub name: u32,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Start instant.
    pub start_ns: u64,
    /// End instant.
    pub end_ns: u64,
    /// Identifier shared by the spans of one front-end request (0 for
    /// scopes that belong to no single request).
    pub op_id: u64,
}

impl Span {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A layer's self time per span: its duration minus the part of that
/// interval its child spans cover. Children of one parent never overlap
/// (the process is single-threaded), so the covered part is their sum.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(c) = covered.get_mut(s.parent as usize) {
            *c += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// The kind of a front-end call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `create_dataset`.
    Create,
    /// `read` / `read_into`.
    Read,
    /// `write`.
    Write,
    /// `delete_dataset`.
    Delete,
}

impl OpKind {
    /// The span name of a call of this kind.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Delete => "delete",
        }
    }
}

/// One front-end call as the layer probes need it: what was asked, of which
/// architecture, and what the front-end said it cost.
#[derive(Debug, Clone)]
pub struct Request {
    /// Which wrapped system took the call, in construction order: a fresh
    /// system of the same architecture starts its dataset ids over.
    pub system: u32,
    /// Architecture name ([`StorageFrontEnd::name`](nds_system::StorageFrontEnd::name)).
    pub arch: &'static str,
    /// Call kind.
    pub kind: OpKind,
    /// Dataset the call addressed (the new id for a create).
    pub dataset: u64,
    /// The request's view (the dataset shape for a create).
    pub view: Shape,
    /// Element type, for creates.
    pub element: Option<ElementType>,
    /// Partition coordinate.
    pub coord: Vec<u64>,
    /// Partition extents.
    pub sub_dims: Vec<u64>,
    /// Payload bytes moved.
    pub bytes: u64,
    /// Device commands the front-end issued.
    pub commands: u64,
    /// Modeled time until the data is in host memory (or written).
    pub io_ns: u64,
    /// Modeled host restructuring after the I/O.
    pub restructure_ns: u64,
}

/// Span storage plus front-end accounting.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    /// Interned span names.
    pub names: Vec<String>,
    /// Recorded spans, in start order.
    pub spans: Vec<Span>,
    stack: Vec<u32>,
    next_op: u64,
    next_system: u32,
    /// Whether front-end calls are appended to [`requests`](Self::requests).
    pub capture: bool,
    /// Captured request list (tracing only).
    pub requests: Vec<Request>,
    /// Front-end calls that returned `Ok`.
    pub ops_ok: u64,
    /// Front-end calls that returned `Err`.
    pub ops_err: u64,
    /// Output checks that failed.
    pub checks_failed: u64,
    /// Modeled nanoseconds of every completed call, per architecture.
    pub modeled_ns: BTreeMap<&'static str, u64>,
    /// Host nanoseconds inside front-end calls, per architecture and kind
    /// (tracing only).
    pub op_wall_ns: BTreeMap<(&'static str, OpKind), u64>,
    untimed_ns: u64,
}

/// Shared handle to a [`Recorder`].
#[derive(Debug, Clone)]
pub struct Rec(Rc<RefCell<Recorder>>);

/// Wall time less the [`Rec::untimed`] sections that ran meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
    untimed_ns: u64,
}

impl Stopwatch {
    /// Seconds on the clock so far.
    pub fn seconds(&self, rec: &Rec) -> f64 {
        let paused = rec.0.borrow().untimed_ns - self.untimed_ns;
        self.started.elapsed().as_secs_f64() - paused as f64 / 1e9
    }
}

/// Closes its span when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    rec: Option<Rec>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(rec) = &self.rec {
            let mut r = rec.0.borrow_mut();
            let now = r.now_ns();
            if let Some(idx) = r.stack.pop() {
                r.spans[idx as usize].end_ns = now;
            }
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn intern(&mut self, name: &str) -> u32 {
        match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_owned());
                (self.names.len() - 1) as u32
            }
        }
    }

    fn open(&mut self, name: &str, op_id: u64, start_ns: u64) -> u32 {
        let name = self.intern(name);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
            op_id,
        });
        (self.spans.len() - 1) as u32
    }

    /// Self time (see [`self_times`]) of the scope spans, summed by name:
    /// `(name, seconds, spans)`. Front-end call spans are left out — they
    /// have no children, so their self time is their duration, which
    /// [`op_wall_ns`](Self::op_wall_ns) already holds.
    pub fn scope_self_times(&self) -> Vec<(&str, f64, u64)> {
        let mut by_name = vec![(0u64, 0u64); self.names.len()];
        for (span, own) in self.spans.iter().zip(self_times(&self.spans)) {
            if span.op_id == 0 {
                let slot = &mut by_name[span.name as usize];
                *slot = (slot.0 + own, slot.1 + 1);
            }
        }
        self.names
            .iter()
            .zip(by_name)
            .filter(|(_, (_, spans))| *spans > 0)
            .map(|(name, (ns, spans))| (name.as_str(), ns as f64 / 1e9, spans))
            .collect()
    }

    /// The spans as compact JSON: a name table and one
    /// `[name, parent, start_ns, end_ns, op_id]` row per span (`parent` is
    /// -1 for a root).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(32 + self.spans.len() * 40);
        out.push_str(
            "{\"columns\":[\"name\",\"parent\",\"start_ns\",\"end_ns\",\"op_id\"],\"names\":[",
        );
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\"", crate::json::escape(n)));
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            out.push_str(&format!(
                "[{},{},{},{},{}]",
                s.name, parent, s.start_ns, s.end_ns, s.op_id
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Rec {
    /// A recorder; `tracing` turns span and request recording on.
    pub fn new(tracing: bool) -> Rec {
        Rec(Rc::new(RefCell::new(Recorder {
            epoch: Instant::now(),
            tracing,
            names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_op: 0,
            next_system: 0,
            capture: false,
            requests: Vec::new(),
            ops_ok: 0,
            ops_err: 0,
            checks_failed: 0,
            modeled_ns: BTreeMap::new(),
            op_wall_ns: BTreeMap::new(),
            untimed_ns: 0,
        })))
    }

    /// Whether spans are recorded.
    pub fn tracing(&self) -> bool {
        self.0.borrow().tracing
    }

    /// Opens a scope span (`workload`, `phase`, `rep`, `arch`, a probe…),
    /// closed when the guard drops. Free when tracing is off.
    pub fn span(&self, name: &str) -> SpanGuard {
        let mut r = self.0.borrow_mut();
        if !r.tracing {
            return SpanGuard { rec: None };
        }
        let now = r.now_ns();
        let idx = r.open(name, 0, now);
        r.stack.push(idx);
        SpanGuard {
            rec: Some(self.clone()),
        }
    }

    /// Marks the start of a front-end call: the start instant when tracing.
    pub fn begin_op(&self) -> Option<u64> {
        let r = self.0.borrow();
        r.tracing.then(|| r.now_ns())
    }

    /// Accounts one finished front-end call: counts it, adds its modeled
    /// time, and — when tracing — records its span and, while capturing,
    /// the request `describe` builds.
    pub fn end_op(
        &self,
        started: Option<u64>,
        kind: OpKind,
        arch: &'static str,
        ok: bool,
        modeled_ns: u64,
        describe: impl FnOnce() -> Request,
    ) {
        let mut r = self.0.borrow_mut();
        if ok {
            r.ops_ok += 1;
            *r.modeled_ns.entry(arch).or_default() += modeled_ns;
        } else {
            r.ops_err += 1;
        }
        if let Some(start) = started {
            let end = r.now_ns();
            *r.op_wall_ns.entry((arch, kind)).or_default() += end.saturating_sub(start);
            r.next_op += 1;
            let op_id = r.next_op;
            let idx = r.open(kind.name(), op_id, start);
            r.spans[idx as usize].end_ns = end;
            if r.capture && ok {
                r.requests.push(describe());
            }
        }
    }

    /// Records the result of an output check; a failed one counts as a
    /// failed operation.
    pub fn check(&self, ok: bool) -> bool {
        if !ok {
            self.0.borrow_mut().checks_failed += 1;
        }
        ok
    }

    /// Runs `f` — the harness's own bookkeeping in the middle of a rep,
    /// such as analysing a finished system's trace — off the clock of every
    /// [`Stopwatch`] that is running.
    pub fn untimed<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = self.span("untimed");
        let started = Instant::now();
        let out = f();
        self.0.borrow_mut().untimed_ns += started.elapsed().as_nanos() as u64;
        out
    }

    /// Starts a stopwatch that [`untimed`](Self::untimed) sections pause.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            started: Instant::now(),
            untimed_ns: self.0.borrow().untimed_ns,
        }
    }

    /// A number for the next wrapped system.
    pub fn next_system(&self) -> u32 {
        let mut r = self.0.borrow_mut();
        r.next_system += 1;
        r.next_system
    }

    /// Moves the captured request list out.
    pub fn take_requests(&self) -> Vec<Request> {
        std::mem::take(&mut self.0.borrow_mut().requests)
    }

    /// Turns request capture on or off (tracing only).
    pub fn set_capture(&self, on: bool) {
        let mut r = self.0.borrow_mut();
        r.capture = on && r.tracing;
    }

    /// `(attempted, failed)` so far: front-end calls issued, and how many
    /// of them returned `Err` or produced output that failed a check.
    pub fn ops(&self) -> (u64, u64) {
        let r = self.0.borrow();
        let attempted = r.ops_ok + r.ops_err;
        (attempted, (r.ops_err + r.checks_failed).min(attempted))
    }

    /// Front-end calls that returned `Ok` so far.
    pub fn ops_ok(&self) -> u64 {
        self.0.borrow().ops_ok
    }

    /// Read access to the recorder.
    pub fn read<T>(&self, f: impl FnOnce(&Recorder) -> T) -> T {
        f(&self.0.borrow())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start: u64, end: u64) -> Span {
        Span {
            name: 0,
            parent,
            start_ns: start,
            end_ns: end,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { b 15..25 }, c 50..90 }
        let spans = [
            span(NO_PARENT, 0, 100),
            span(0, 10, 40),
            span(1, 15, 25),
            span(0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn self_time_of_childless_and_empty() {
        assert_eq!(self_times(&[span(NO_PARENT, 5, 9)]), vec![4]);
        assert!(self_times(&[]).is_empty());
    }

    #[test]
    fn scopes_nest_and_ops_share_the_open_parent() {
        let rec = Rec::new(true);
        {
            let _w = rec.span("workload");
            let _r = rec.span("rep");
            let t = rec.begin_op();
            assert!(t.is_some());
            rec.end_op(t, OpKind::Read, "baseline", true, 7, || unreachable!());
        }
        rec.read(|r| {
            assert_eq!(r.spans.len(), 3);
            assert_eq!(r.spans[0].parent, NO_PARENT);
            assert_eq!(r.spans[1].parent, 0);
            assert_eq!(r.spans[2].parent, 1, "op hangs under the open rep");
            assert_eq!(r.spans[2].op_id, 1);
            assert!(r.spans[0].end_ns >= r.spans[1].end_ns);
            let scopes = r.scope_self_times();
            assert_eq!(scopes.len(), 2, "the op span is not a scope");
            assert_eq!((scopes[0].0, scopes[0].2), ("workload", 1));
            assert_eq!((scopes[1].0, scopes[1].2), ("rep", 1));
            assert_eq!(r.modeled_ns["baseline"], 7);
            assert!(r
                .to_json()
                .contains("\"names\":[\"workload\",\"rep\",\"read\"]"));
        });
    }

    #[test]
    fn untimed_sections_pause_a_stopwatch() {
        let rec = Rec::new(false);
        let watch = rec.stopwatch();
        let outer = Instant::now();
        rec.untimed(|| std::thread::sleep(std::time::Duration::from_millis(20)));
        let on_clock = watch.seconds(&rec);
        assert!(
            on_clock < outer.elapsed().as_secs_f64() - 0.015,
            "{on_clock}"
        );
        assert!(on_clock >= 0.0);
    }

    #[test]
    fn untraced_recorder_only_counts() {
        let rec = Rec::new(false);
        let _g = rec.span("rep");
        let t = rec.begin_op();
        assert!(t.is_none());
        rec.end_op(t, OpKind::Write, "baseline", true, 1, || unreachable!());
        rec.end_op(None, OpKind::Write, "baseline", false, 1, || unreachable!());
        assert!(!rec.check(false));
        assert_eq!(rec.ops(), (2, 2));
        assert!(!rec.check(false));
        assert_eq!(rec.ops(), (2, 2), "failures never exceed attempts");
        assert_eq!(rec.ops_ok(), 1);
        rec.read(|r| assert!(r.spans.is_empty() && r.requests.is_empty()));
    }
}

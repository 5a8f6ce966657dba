//! The metric catalogue — every name, unit, direction and whether the value
//! must repeat exactly — and the value map a run fills in. `BENCHMARK.json`
//! lists the same names; `tests` below keep the two in step.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, `<layer>.<what>` for per-layer metrics.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// True for counts and modeled values: two runs of one commit with one
    /// seed must print the same digits. False for host-clock measurements.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: true,
    }
}

const fn count_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        exact: true,
    }
}

/// The end-to-end metrics, measured with tracing off. Bounds live in
/// `BENCHMARK.json`.
pub const END_TO_END: &[MetricDef] = &[
    host("setup_s", "s"),
    host("wall_s", "s"),
    MetricDef {
        name: "ops_per_wall_s",
        unit: "ops/s",
        better: Better::Higher,
        exact: false,
    },
    host("peak_rss_mib", "MiB"),
];

/// The Table-1 application names, lower-cased, in the paper's order.
pub const APPS: [&str; 10] = [
    "bfs", "sssp", "gemm", "hotspot", "kmeans", "knn", "pagerank", "conv2d", "ttv", "tc",
];

/// The per-layer metrics, reported by the traced run. Layers are the crate
/// names; `process` is the harness's view of its own process, `model` the
/// error against the paper and `bench` the traced/untraced pair the
/// overhead is derived from.
pub const PER_LAYER: &[MetricDef] = &[
    host("process.user_cpu_s", "s"),
    host("process.sys_cpu_s", "s"),
    host("process.sys_cpu_share", "ratio"),
    host("process.minor_faults", "count"),
    host("system.baseline.read_wall_s", "s"),
    host("system.software.read_wall_s", "s"),
    host("system.hardware.read_wall_s", "s"),
    host("system.baseline.write_wall_s", "s"),
    host("system.software.write_wall_s", "s"),
    host("system.hardware.write_wall_s", "s"),
    host("system.create_wall_s", "s"),
    host("system.op_wall_us_p50", "us"),
    host("system.op_wall_us_p99", "us"),
    count("system.read_commands", "count"),
    count("system.write_commands", "count"),
    count("system.read_bytes", "bytes"),
    count("system.write_bytes", "bytes"),
    count("system.baseline.modeled_ns", "ns"),
    count("system.software.modeled_ns", "ns"),
    count("system.hardware.modeled_ns", "ns"),
    host("system.self_wall_s_est", "s"),
    host("system.tenants.run_wall_s", "s"),
    count("system.tenants.makespan_ns", "ns"),
    count_up("system.tenants.jain_milli", "milli"),
    count("system.tenants.max_outstanding", "count"),
    host("system.cluster.healthy_wall_s", "s"),
    host("system.cluster.degraded_wall_s", "s"),
    count("system.cluster.read_subops", "count"),
    count("system.cluster.write_subops", "count"),
    count("system.cluster.degraded_reads", "count"),
    count("system.cluster.rereplicated_bytes", "bytes"),
    count("system.cluster.modeled_io_ns", "ns"),
    host("core.translate_wall_s", "s"),
    count("core.translate_blocks", "count"),
    count("core.translate_segments", "count"),
    count_up("core.plan_cache_hits", "count"),
    count("core.plan_cache_misses", "count"),
    count_up("core.plan_cache_hit_ratio", "ratio"),
    host("core.stl_read_wall_s", "s"),
    host("core.stl_write_wall_s", "s"),
    count("core.translation_bytes", "bytes"),
    host("flash.new_wall_s", "s"),
    host("flash.store_program_wall_s", "s"),
    host("flash.store_read_wall_s", "s"),
    host("flash.schedule_wall_s", "s"),
    host("flash.ftl_write_wall_s", "s"),
    host("flash.ftl_read_wall_s", "s"),
    count("flash.pages_read", "count"),
    count("flash.pages_programmed", "count"),
    count("flash.blocks_erased", "count"),
    count("flash.gc_runs", "count"),
    count("flash.gc_relocated", "count"),
    count("flash.write_amp", "ratio"),
    count("flash.modeled_ns", "ns"),
    host("interconnect.link_transfer_wall_s", "s"),
    count("interconnect.link_commands", "count"),
    count("interconnect.link_bytes", "bytes"),
    host("interconnect.wfq_wall_s", "s"),
    count("interconnect.wfq_ops", "count"),
    host("interconnect.wire_wall_s", "s"),
    count("interconnect.wire_bytes", "bytes"),
    count("interconnect.modeled_link_ns", "ns"),
    count("interconnect.modeled_queue_ns", "ns"),
    host("host.pipeline_wall_s", "s"),
    count("host.pipeline_blocks", "count"),
    count("host.modeled_restructure_ns", "ns"),
    count("accel.modeled_kernel_busy_ns", "ns"),
    count("accel.modeled_kernel_idle_ns", "ns"),
    host("workloads.bfs.wall_s", "s"),
    host("workloads.sssp.wall_s", "s"),
    host("workloads.gemm.wall_s", "s"),
    host("workloads.hotspot.wall_s", "s"),
    host("workloads.kmeans.wall_s", "s"),
    host("workloads.knn.wall_s", "s"),
    host("workloads.pagerank.wall_s", "s"),
    host("workloads.conv2d.wall_s", "s"),
    host("workloads.ttv.wall_s", "s"),
    host("workloads.tc.wall_s", "s"),
    host("workloads.kernel_wall_s", "s"),
    host("workloads.datagen_wall_s", "s"),
    count("workloads.commands", "count"),
    count("workloads.bytes", "bytes"),
    count_up("workloads.sw_speedup_x", "x"),
    count_up("workloads.hw_speedup_x", "x"),
    host("sim.obs_overhead_pct", "%"),
    count("sim.journal_events", "count"),
    count("sim.journal_dropped", "count"),
    host("sim.resource_acquire_wall_s", "s"),
    count("faults.device_kills", "count"),
    host("prof.analyze_wall_s", "s"),
    count("prof.trace_bytes", "bytes"),
    count("model.paper_err_pct", "%"),
    count("model.ops_per_rep", "count"),
    host("bench.untraced_wall_s", "s"),
    host("bench.traced_wall_s", "s"),
];

/// Looks a metric up in both catalogues.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|m| m.name == name)
}

/// A measured value: a count keeps every digit, a real prints the shortest
/// text that round-trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// An exact integer.
    Count(u64),
    /// A measured real.
    Real(f64),
}

impl Value {
    /// The value as JSON number text.
    pub fn text(&self) -> String {
        match self {
            Value::Count(c) => c.to_string(),
            Value::Real(r) if r.is_finite() => format!("{r}"),
            Value::Real(_) => "0".to_owned(),
        }
    }

    /// The value as `f64`.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Count(c) => *c as f64,
            Value::Real(r) => *r,
        }
    }
}

/// The values one run measured, by metric name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub BTreeMap<&'static str, Value>);

impl Metrics {
    /// Sets a count.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue — a typo in the harness.
    pub fn count(&mut self, name: &str, v: u64) {
        self.0.insert(Self::key(name), Value::Count(v));
    }

    /// Sets a real.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in the catalogue — a typo in the harness.
    pub fn real(&mut self, name: &str, v: f64) {
        self.0.insert(Self::key(name), Value::Real(v));
    }

    /// Adds to a real (starting from 0).
    pub fn add_real(&mut self, name: &str, v: f64) {
        let old = self.get(name).map_or(0.0, |x| x.as_f64());
        self.real(name, old + v);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    fn key(name: &str) -> &'static str {
        match lookup(name) {
            Some(def) => def.name,
            None => panic!("metric `{name}` is not in the catalogue"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(m.name), "duplicate metric {}", m.name);
            assert!(m.name.len() <= 64 && m.unit.len() <= 16);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        for app in APPS {
            assert!(lookup(&format!("workloads.{app}.wall_s")).is_some());
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String, String)> = doc
                .get(key)
                .unwrap()
                .items()
                .iter()
                .map(|m| {
                    let f = |k| m.get(k).unwrap().as_str().unwrap().to_owned();
                    (f("name"), f("unit"), f("better"))
                })
                .collect();
            let expected: Vec<(String, String, String)> = defs
                .iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.word().into()))
                .collect();
            assert_eq!(listed, expected, "BENCHMARK.json `{key}` drifted");
        }
        let names: Vec<&str> = doc
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, crate::workloads::NAMES);
    }

    #[test]
    fn values_print_every_digit() {
        assert_eq!(Value::Count(u64::MAX).text(), "18446744073709551615");
        assert_eq!(Value::Real(0.1 + 0.2).text(), "0.30000000000000004");
        assert_eq!(Value::Real(f64::NAN).text(), "0");
        let mut m = Metrics::default();
        m.add_real("wall_s", 1.5);
        m.add_real("wall_s", 0.25);
        assert_eq!(m.get("wall_s"), Some(Value::Real(1.75)));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_is_a_harness_bug() {
        Metrics::default().count("no.such.metric", 1);
    }
}

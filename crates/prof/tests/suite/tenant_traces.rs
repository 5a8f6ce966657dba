//! Acceptance test for the multi-tenant traffic engine (the ISSUE 7
//! contract): a 16-tenant mixed open/closed run on hardware NDS is
//! deterministic (two runs produce byte-identical journals, reports, and
//! Chrome traces), achieves WFQ weight shares within 10% relative error
//! inside the saturated window, and `nds-prof` reports Jain fairness
//! ≥ 0.9 across the equal-weight tenants — all asserted, not observed.

use nds_prof::{analyze, format_report, parse, render};
use nds_sim::ObsConfig;
use nds_system::{HardwareNds, SystemConfig, TrafficEngine};
use nds_workloads::tenants::mixed_open_closed;

const SEED: u64 = 42;
const TENANTS: u32 = 16;
const OPS: u64 = 32;

struct RunArtifacts {
    journal: String,
    report_json: String,
    trace_json: String,
    /// `(finished ns, tenant, bytes)` per completion, in service order.
    completions: Vec<(u64, u32, u64)>,
}

fn run_once() -> RunArtifacts {
    let set = mixed_open_closed(SEED, TENANTS, OPS);
    let config = SystemConfig::small_test().with_observability(ObsConfig::traced());
    let mut engine = TrafficEngine::new(HardwareNds::new(config), &set).expect("tenant setup");
    engine.run().expect("engine run");
    assert!(engine.completions().iter().all(|c| c.data_ok));
    let export = engine.trace_export().expect("tracing was on");
    RunArtifacts {
        journal: engine.journal_lines(),
        report_json: engine.full_report().to_json(),
        trace_json: render(&[("tenants.hardware-nds".to_string(), export)]),
        completions: engine
            .completions()
            .iter()
            .map(|c| (c.finished.as_nanos(), c.tenant, c.bytes))
            .collect(),
    }
}

#[test]
fn sixteen_tenant_run_is_deterministic_fair_and_attributed() {
    let a = run_once();
    let b = run_once();

    // Determinism: every artifact byte-identical across the two runs.
    assert_eq!(a.journal, b.journal, "journal diverged");
    assert_eq!(a.report_json, b.report_json, "report diverged");
    assert_eq!(a.trace_json, b.trace_json, "chrome trace diverged");
    assert_eq!(a.completions.len(), (u64::from(TENANTS) * OPS) as usize);

    // WFQ shares at saturation: within the window that ends when the
    // first tenant completes its run, every equal-weight tenant's byte
    // share must be within 10% relative error of 1/16.
    let horizon = (0..TENANTS)
        .map(|t| {
            a.completions
                .iter()
                .filter(|&&(_, tenant, _)| tenant == t)
                .map(|&(fin, _, _)| fin)
                .max()
                .expect("tenant completed")
        })
        .min()
        .expect("16 tenants");
    let mut served = vec![0u64; TENANTS as usize];
    for &(fin, tenant, bytes) in &a.completions {
        if fin <= horizon {
            served[tenant as usize] += bytes;
        }
    }
    let total: u64 = served.iter().sum();
    let configured_milli = 1000 / u64::from(TENANTS); // 62m for 16 tenants
    for (t, &bytes) in served.iter().enumerate() {
        let achieved_milli = bytes * 1000 / total;
        let err = achieved_milli.abs_diff(configured_milli);
        assert!(
            err * 10 <= configured_milli,
            "tenant {t}: achieved {achieved_milli}m vs configured {configured_milli}m \
             exceeds 10% relative error at saturation"
        );
    }

    // nds-prof round-trip: parse the rendered trace, verify the
    // attribution invariant, and assert tenant-level Jain fairness.
    let profiles = parse(&a.trace_json).expect("parse");
    assert_eq!(profiles.len(), 1);
    let profile = profiles.first().expect("one system");
    let analysis = analyze(profile);
    assert!(
        analysis.violations.is_empty(),
        "attribution invariant violated: {:?}",
        analysis.violations
    );
    assert_eq!(
        analysis.tenants.len(),
        TENANTS as usize,
        "every tenant must appear in the profiler's attribution"
    );
    let jain = analysis.tenant_jain_milli.expect("tenant-attributed trace");
    assert!(
        jain >= 900,
        "nds-prof Jain fairness {jain} milli < 0.9 across equal-weight tenants"
    );

    // The per-tenant section renders in the report text.
    let report = format_report(&[analysis]);
    assert!(report.contains("tenant service (attributed commands only):"));
    assert!(report.contains("tenant fairness: jain"));

    // Perfetto artifacts: one named lane per tenant.
    for t in 0..TENANTS {
        assert!(
            a.trace_json.contains(&format!("\"name\":\"tenant[{t}]\"")),
            "missing Perfetto lane for tenant {t}"
        );
    }
}

//! The benchmark's own checks, at small sizes: every workload verifies,
//! repeats its exact metrics (simulated seconds, counts, result
//! checksums) bit for bit, and emits exactly the metric names and units
//! `BENCHMARK.json` declares.

use apsp_core::telemetry::{parse_json, JsonValue};
use perfbench::{run, Outcome, RunConfig, Scale, Workload};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = parse_json(&text).expect("BENCHMARK.json parses");
    let Some(JsonValue::Array(metrics)) = doc.get(list) else {
        panic!("BENCHMARK.json has no `{list}` list");
    };
    metrics
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(JsonValue::as_str).expect("name and unit");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn small_run(workload: Workload, trace: bool, rep: usize) -> Outcome {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "selftest-{}-{}-{rep}",
        workload.name(),
        u8::from(trace)
    ));
    std::fs::create_dir_all(&work_dir).expect("work dir");
    let out = run(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        scale: Scale::Small,
        work_dir: work_dir.clone(),
    });
    let _ = std::fs::remove_dir_all(&work_dir);
    assert!(
        out.correct(),
        "{} trace {trace}: {:?}",
        workload.name(),
        out.notes
    );
    out
}

fn exact_values(out: &Outcome) -> Vec<(&'static str, u64)> {
    out.metrics
        .iter()
        .filter(|m| m.exact)
        .map(|m| (m.name, m.value.to_bits()))
        .collect()
}

fn check(workload: Workload) {
    for (trace, list) in [(false, "end_to_end"), (true, "per_layer")] {
        let first = small_run(workload, trace, 0);
        let second = small_run(workload, trace, 1);
        assert_eq!(
            exact_values(&first),
            exact_values(&second),
            "{}",
            workload.name()
        );
        assert!(!first.fingerprint.is_empty());
        assert_eq!(first.fingerprint, second.fingerprint, "{}", workload.name());
        let emitted: BTreeMap<String, String> = first
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(emitted.len(), first.metrics.len(), "a metric name repeats");
        assert_eq!(emitted, declared(list), "{} trace {trace}", workload.name());
        if !trace {
            for m in &first.metrics {
                assert!(m.value > 0.0, "end-to-end metric {} reads 0", m.name);
            }
        }
    }
}

#[test]
fn dense_fw_repeats_and_is_declared() {
    check(Workload::DenseFw);
}

#[test]
fn road_boundary_repeats_and_is_declared() {
    check(Workload::RoadBoundary);
}

#[test]
fn durable_johnson_repeats_and_is_declared() {
    check(Workload::DurableJohnson);
}

#[test]
fn serve_hot_repeats_and_is_declared() {
    check(Workload::ServeHot);
}

/// The closed loop never queues, so the traced run's burst pass is what
/// gives the queue-wait metric a value.
#[test]
fn serve_hot_burst_pass_waits_in_the_queue() {
    let out = small_run(Workload::ServeHot, true, 2);
    let wait = out
        .metrics
        .iter()
        .find(|m| m.name == "service.queue_wait_sim_p95_s")
        .expect("queue wait is reported");
    assert!(wait.value > 0.0, "no job waited in the burst pass");
}

#[test]
fn result_line_is_json_with_the_contract_keys() {
    let out = small_run(Workload::RoadBoundary, false, 2);
    let doc = parse_json(&out.to_json()).expect("result line parses");
    assert_eq!(doc.get("correct"), Some(&JsonValue::Bool(true)));
    assert_eq!(
        doc.get("attempted").and_then(JsonValue::as_f64),
        Some(out.attempted as f64)
    );
    assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    let Some(JsonValue::Object(metrics)) = doc.get("metrics") else {
        panic!("no metrics object");
    };
    assert_eq!(metrics.len(), out.metrics.len());
    for (_, m) in metrics {
        assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
        assert!(m.get("unit").and_then(JsonValue::as_str).is_some());
    }
}

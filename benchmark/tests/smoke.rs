//! Runs every workload at smoke size with every correctness check on,
//! and pins the workload and metric names the benchmark emits to the
//! repository's `BENCHMARK.json`.

use std::path::{Path, PathBuf};

use capy_benchmark::{run, Budget, Config, Workload, END_TO_END, PER_LAYER};
use capy_manifest::{parse_json, JsonValue};

fn names<'a>(doc: &'a JsonValue, key: &str) -> Vec<&'a str> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|entry| {
            entry
                .get("name")
                .and_then(JsonValue::as_str)
                .expect("named")
        })
        .collect()
}

fn metric_keys(line: &str) -> Vec<String> {
    let doc = parse_json(line).expect("the result line is JSON");
    assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(doc.get("failed").and_then(JsonValue::as_f64), Some(0.0));
    assert!(doc.get("attempted").and_then(JsonValue::as_f64) >= Some(1.0));
    match doc.get("metrics") {
        Some(JsonValue::Object(pairs)) => pairs.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("no metrics object: {other:?}"),
    }
}

#[test]
fn every_workload_passes_its_checks_and_emits_the_declared_metrics() {
    let declared = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = parse_json(&std::fs::read_to_string(&declared).expect("BENCHMARK.json exists"))
        .expect("BENCHMARK.json parses");

    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names(&doc, "workloads"), workloads);
    let end_to_end = names(&doc, "end_to_end");
    let per_layer = names(&doc, "per_layer");
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let entries = doc.get(key).and_then(JsonValue::as_array).expect("listed");
        assert_eq!(entries.len(), defs.len(), "{key} count");
        for (entry, def) in entries.iter().zip(defs) {
            assert_eq!(
                entry.get("name").and_then(JsonValue::as_str),
                Some(def.name)
            );
            assert_eq!(
                entry.get("unit").and_then(JsonValue::as_str),
                Some(def.unit)
            );
            assert_eq!(
                entry.get("better").and_then(JsonValue::as_str),
                Some(def.better.keyword())
            );
            assert_eq!(entry.get("bound").and_then(JsonValue::as_f64), def.bound);
        }
    }

    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    for workload in Workload::ALL {
        let report = run(&Config {
            workload,
            seed: 1,
            budget: Budget::Trials(1),
            trace: true,
            smoke: true,
            out: out.clone(),
        })
        .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
        assert!(
            report.correct(),
            "{}: {:?}",
            workload.name(),
            report.failures
        );
        assert_eq!(metric_keys(&report.result_line(false)), end_to_end);
        assert_eq!(metric_keys(&report.result_line(true)), per_layer);
        for m in report.end_to_end() {
            assert!(
                m.value > 0.0,
                "{} {} reads {}",
                workload.name(),
                m.name,
                m.value
            );
        }
        let spans = out.join(format!("{}.spans.csv", workload.name()));
        assert!(spans.exists(), "{} wrote no spans", workload.name());
    }
}

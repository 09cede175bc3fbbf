//! `BENCHMARK.json` at the repository root must name exactly the
//! workloads and metrics this benchmark reports, with the same units.

use pcap_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use serde::Value;

fn names(v: &Value, key: &str, field: &str) -> Vec<String> {
    match v.get(key) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| match item.get(field) {
                Some(Value::Str(s)) => s.clone(),
                other => panic!("{key}.{field}: {other:?}"),
            })
            .collect(),
        other => panic!("{key}: {other:?}"),
    }
}

#[test]
fn manifest_matches_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let manifest: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    assert_eq!(names(&manifest, "workloads", "name"), WORKLOADS);
    let pairs = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    let declared = |key: &str| -> Vec<(String, String)> {
        names(&manifest, key, "name")
            .into_iter()
            .zip(names(&manifest, key, "unit"))
            .collect()
    };
    assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
    assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
}

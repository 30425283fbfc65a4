//! Each workload at toy sizes, untraced and traced: every metric
//! `BENCHMARK.json` declares must come out, checked and finite.

use perfbench::report::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use perfbench::workload::{Spec, WORKLOADS};
use perfbench::{run, RunConfig};
use std::path::PathBuf;

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/")
}

/// The string values of `field` in the array under `key`. The three
/// arrays read here hold flat objects, so the array ends at the first
/// `]` after its key.
fn field_values(json: &str, key: &str, field: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("no {key}"));
    let section = &json[start..];
    let section = &section[..section.find(']').expect("array end")];
    let marker = format!("\"{field}\": \"");
    section
        .match_indices(&marker)
        .map(|(i, _)| {
            let rest = &section[i + marker.len()..];
            rest[..rest.find('"').expect("closing quote")].to_owned()
        })
        .collect()
}

fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    field_values(json, key, "name")
        .into_iter()
        .zip(field_values(json, key, "unit"))
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    let json = benchmark_json();
    assert_eq!(declared(&json, "end_to_end"), owned(END_TO_END));
    assert_eq!(declared(&json, "per_layer"), owned(PER_LAYER));
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    assert_eq!(field_values(&json, "workloads", "name"), names);
    for (name, unit) in declared(&json, "end_to_end")
        .iter()
        .chain(&declared(&json, "per_layer"))
    {
        assert!(valid_name(name), "{name}");
        assert!(valid_unit(unit), "{unit}");
    }
}

#[test]
fn every_workload_emits_every_declared_metric() {
    let json = benchmark_json();
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("perfbench-smoke");
    // One workload at a time: a small machine has few cores and a p99 needs
    // a thousand samples.
    for spec in WORKLOADS {
        for trace in [false, true] {
            let cfg = RunConfig {
                spec: Spec::tiny(spec),
                seed: 7,
                seconds: 3.0,
                trace,
                work_dir: root.join(format!("{}-{trace}", spec.name)),
                out_dir: root.clone(),
                setups: 2,
            };
            let out = run(&cfg).unwrap_or_else(|e| panic!("{} trace={trace}: {e}", spec.name));
            assert!(
                out.correct,
                "{} trace={trace}: {:?}",
                spec.name, out.mismatches
            );
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0, "{} trace={trace}", spec.name);
            let key = if trace { "per_layer" } else { "end_to_end" };
            let emitted: Vec<(String, String)> = out
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(emitted, declared(&json, key), "{} trace={trace}", spec.name);
            assert!(out.metrics.iter().all(|m| m.value.is_finite()));
            let line = out.json_line();
            assert!(line.starts_with("{\"correct\": true"), "{line}");
            assert!(!cfg.work_dir.exists(), "scratch data must be removed");
        }
    }
}

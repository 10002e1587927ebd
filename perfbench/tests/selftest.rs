//! Self-tests of the benchmark: metric names, tiny runs of every
//! workload, and traced/untraced agreement on every counter.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::env::fingerprint;
use perfbench::report::{self, valid_name, END_TO_END, PER_LAYER};
use perfbench::workloads::{self, Params, Size, Workload};
use std::collections::BTreeSet;

fn tiny(workload: Workload, seed: u64, trace: bool) -> Params {
    Params {
        workload,
        seed,
        // No time budget: every run makes exactly `min_ops` operations.
        seconds: 0.0,
        trace,
        size: Size::tiny(),
        min_ops: 4,
    }
}

#[test]
fn metric_names_are_legal_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(name), "illegal metric name {name:?}");
        assert!(seen.insert(*name), "metric {name} registered twice");
        assert!(
            !unit.is_empty() && unit.len() <= 16,
            "bad unit {unit:?} of {name}"
        );
    }
}

#[test]
fn registry_matches_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let compact: String = json.split_whitespace().collect();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
        assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        compact.matches("\"unit\":").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists metrics the benchmark does not register"
    );
    for w in Workload::ALL {
        assert!(
            compact.contains(&format!("{{\"name\":\"{}\",\"why\"", w.name())),
            "BENCHMARK.json lacks workload {}",
            w.name()
        );
    }
}

#[test]
fn every_workload_runs_tiny_without_errors() {
    for w in Workload::ALL {
        for trace in [false, true] {
            let m = workloads::run(&tiny(w, 7, trace));
            assert!(m.attempted >= 4, "{}: attempted {}", w.name(), m.attempted);
            assert_eq!(m.failed, 0, "{} trace={trace}: {:?}", w.name(), m.notes);
            let registry = if trace { PER_LAYER } else { END_TO_END };
            let values = if trace { &m.per_layer } else { &m.end_to_end };
            for (name, _) in registry {
                let v = values
                    .get(name)
                    .unwrap_or_else(|| panic!("{}: {name} not measured", w.name()));
                assert!(v.is_finite(), "{}: {name} = {v}", w.name());
            }
            for (name, _) in END_TO_END {
                assert!(m.end_to_end[name] > 0.0, "{}: {name} is 0", w.name());
            }
        }
    }
}

#[test]
fn traced_and_untraced_runs_agree_on_every_counter() {
    for w in Workload::ALL {
        let untraced = workloads::run(&tiny(w, 11, false));
        let traced = workloads::run(&tiny(w, 11, true));
        assert!(!untraced.counters.is_empty(), "{}: no counters", w.name());
        assert_eq!(untraced.counters, traced.counters, "{}", w.name());
        assert!(
            !traced.spans.is_empty(),
            "{}: traced run recorded no spans",
            w.name()
        );
        assert!(
            untraced.spans.is_empty(),
            "{}: untraced run recorded spans",
            w.name()
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_counters() {
    for w in Workload::ALL {
        let a = workloads::run(&tiny(w, 3, false));
        let b = workloads::run(&tiny(w, 3, false));
        assert_eq!(a.counters, b.counters, "{}", w.name());
    }
}

#[test]
fn program_knobs_in_the_environment_are_refused() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "serve",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env("MVIO_ZEROCOPY", "off")
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "printed a result despite a knob");
    assert!(String::from_utf8_lossy(&out.stderr).contains("MVIO_ZEROCOPY"));
}

#[test]
fn the_report_ends_with_the_result_line() {
    let p = tiny(Workload::Join, 5, false);
    assert!(fingerprint(&p).starts_with("fingerprint: commit="));
    let lines = report::lines(&p, &workloads::run(&p)).expect("every metric measured");
    let last = lines.last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    for (name, unit) in END_TO_END {
        assert!(
            last.contains(&format!("\"{name}\": {{\"value\": ")),
            "{name} missing"
        );
        assert!(
            last.contains(&format!("\"unit\": \"{unit}\"")),
            "{unit} missing"
        );
    }
}

#[test]
fn a_traced_report_lists_every_layer_metric_and_its_spans() {
    let p = tiny(Workload::Ingest, 2, true);
    let m = workloads::run(&p);
    let spans = perfbench::trace::to_json_lines(&m.spans);
    assert!(spans
        .lines()
        .any(|l| l.starts_with("{\"name\":\"pipeline.ingest\",")));
    let lines = report::lines(&p, &m).expect("every metric measured");
    let last = lines.last().expect("some output");
    for (name, _) in PER_LAYER {
        assert!(last.contains(&format!("\"{name}\": ")), "{name} missing");
    }
}

//! The package's own test: every workload at smoke size, end to end and
//! traced, against the tables and against `BENCHMARK.json`.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::{report, workloads, DEFAULT_SECONDS};

/// The names in a result line's `metrics`, each with a unit and a finite
/// value, must be exactly `expected`, once each.
fn assert_reports(line: &str, expected: &[(&str, &str)]) {
    let parsed = json::parse(line).expect("result line is JSON");
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert_eq!(parsed.get("failed"), Some(&Value::Num(0.0)), "{line}");
    assert!(parsed.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    for (name, unit) in expected {
        assert_eq!(
            line.matches(&format!("\"{name}\":")).count(),
            1,
            "{name} is reported once"
        );
        let m = parsed
            .get("metrics")
            .and_then(|m| m.get(name))
            .unwrap_or_else(|| panic!("{name} is missing from {line}"));
        assert_eq!(m.get("unit"), Some(&Value::Str(unit.to_string())), "{name}");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{name} = {value:?}");
    }
    assert_eq!(line.matches("\"unit\":").count(), expected.len(), "{line}");
}

/// One test for all of it: the span recorder and the allocation counter
/// are process-wide, so two runs must not overlap.
#[test]
fn every_workload_at_smoke_size() {
    let file = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(file).expect("BENCHMARK.json at the repo's root");
    assert_eq!(
        text,
        report::describe(DEFAULT_SECONDS),
        "BENCHMARK.json is `benchmark describe`"
    );

    let end_to_end: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    let per_layer: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    for w in workloads::NAMES {
        let first = report::run_one(w, 7, 1, false, true);
        assert!(first.valid(), "{w}: {:?}", first.failures);
        assert_reports(&first.contract_json(), &end_to_end);
        // Memory aside: a later run in this one process reuses what an
        // earlier one freed.
        for (name, value) in &first.metrics {
            let grows = *name != "rss_kb_per_session";
            assert!(
                !grows || *value > 0.0,
                "{w}: {name} = {value} is not above zero"
            );
        }

        // Virtual time repeats exactly: same seed, same bytes.
        if w != "typing_udp" {
            let again = report::run_one(w, 7, 1, false, true);
            for name in ["key_response_ms_mean", "wire_bytes_per_key"] {
                let of = |r: &report::RunResult| {
                    let (_, v) = r.metrics.iter().find(|(n, _)| *n == name).expect(name);
                    v.to_bits()
                };
                assert_eq!(
                    of(&first),
                    of(&again),
                    "{w}: {name} differs between two runs"
                );
            }
            assert_eq!(first.attempted, again.attempted, "{w}");
        }

        let traced = report::run_one(w, 7, 3, true, true);
        assert!(traced.valid(), "{w} traced: {:?}", traced.failures);
        assert_reports(&traced.contract_json(), &per_layer);
    }
}

//! Every workload at its `--check` size: zero failed operations, pinned
//! digests hold, the emitted result lines meet the driver's contract, and
//! `BENCHMARK.json` lists exactly the catalogue in `src/metrics.rs`.
//!
//! One test function on purpose: the workloads reset and read the
//! process-wide `VmHWM` and time themselves, so they run one after another.

use express_benchmark::json::{self, Value};
use express_benchmark::metrics::{END_TO_END, PER_LAYER};
use express_benchmark::report;
use express_benchmark::workloads::{self, Cfg, DEFAULT_SEED, NAMES};

fn cfg(seed: u64, trace: bool) -> Cfg {
    Cfg {
        seed,
        seconds: 0.05,
        trace,
        check: true,
        setup_passes: 2,
        short: false,
    }
}

#[test]
fn every_workload_passes_its_checks_and_meets_the_contract() {
    for name in NAMES {
        for (seed, trace) in [(DEFAULT_SEED, false), (DEFAULT_SEED, true), (7, false)] {
            let out = workloads::run_named(name, &cfg(seed, trace)).expect("known workload");
            assert_eq!(
                out.ops_failed, 0,
                "{name} seed {seed} trace {trace}: failed operations: {:?}",
                out.failures
            );
            assert!(out.ops_attempted >= 1, "{name}: nothing attempted");
            if seed == DEFAULT_SEED {
                assert_eq!(
                    out.digest_pinned,
                    Some(true),
                    "{name}: pinned digest not checked"
                );
            }
            assert!(
                !out.ops_rates.is_empty() && !out.fault_ms.is_empty(),
                "{name}: no windows"
            );
            for m in &END_TO_END {
                let v = report::end_to_end_value(&out, m.name);
                assert!(
                    v.is_finite() && v > 0.0,
                    "{name}: {} = {v} must be positive",
                    m.name
                );
            }
            let line = report::contract_line(&out);
            report::validate_contract_line(&line, trace).unwrap_or_else(|e| {
                panic!("{name} trace {trace}: result line breaks the contract: {e}\n{line}")
            });
            if trace {
                for must in [
                    "engine.events_per_op",
                    "budget.residual_share",
                    "trace_overhead_share",
                ] {
                    assert!(
                        out.layers.contains_key(must),
                        "{name}: traced run lacks {must}"
                    );
                }
            }
        }
    }
}

#[test]
fn the_validator_rejects_what_the_contract_forbids() {
    let good = r#"{"correct": true, "attempted": 5, "failed": 0, "metrics": {"ops_per_s": {"value": 1.5, "unit": "1/s"}, "setup_s": {"value": 0.2, "unit": "s"}, "peak_rss_mb": {"value": 3.0, "unit": "MB"}, "fault_ms_p50": {"value": 0.7, "unit": "ms"}}}"#;
    report::validate_contract_line(good, false).expect("the reference line is valid");
    for (what, bad) in [
        (
            "extra key",
            good.replacen("{\"correct\"", "{\"extra\": 1, \"correct\"", 1),
        ),
        (
            "zero attempted",
            good.replace("\"attempted\": 5", "\"attempted\": 0"),
        ),
        (
            "fractional count",
            good.replace("\"failed\": 0", "\"failed\": 0.5"),
        ),
        (
            "missing metric",
            good.replace(", \"fault_ms_p50\": {\"value\": 0.7, \"unit\": \"ms\"}", ""),
        ),
        (
            "wrong unit",
            good.replace("\"unit\": \"MB\"", "\"unit\": \"GB\""),
        ),
    ] {
        assert!(
            report::validate_contract_line(&bad, false).is_err(),
            "{what} was accepted"
        );
    }
}

fn names(v: &Value, key: &str) -> Vec<(String, String, String)> {
    v.get(key)
        .and_then(Value::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_else(|| panic!("`{key}` entry lacks `{k}`"))
                    .to_string()
            };
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let v = json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = v
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let want: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(names(&v, "end_to_end"), want);
    for (m, entry) in END_TO_END
        .iter()
        .zip(v.get("end_to_end").and_then(Value::as_arr).expect("list"))
    {
        assert_eq!(
            entry.get("bound").and_then(Value::as_f64),
            Some(m.bound),
            "{} bound",
            m.name
        );
        assert!(m.bound <= 0.25);
    }
    let want: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.as_str().to_string(),
            )
        })
        .collect();
    assert_eq!(names(&v, "per_layer"), want);
    assert!(PER_LAYER.len() <= 128);

    let listed: Vec<&str> = v
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(listed, NAMES);
    for w in v
        .get("workloads")
        .and_then(Value::as_arr)
        .expect("workloads list")
    {
        let why = w.get("why").and_then(Value::as_str).expect("workload why");
        assert!(
            why.len() <= 200 && !why.contains('\n'),
            "`why` must be one line of at most 200 characters"
        );
    }
}

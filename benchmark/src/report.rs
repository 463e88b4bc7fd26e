//! Turning an [`Outcome`] into the three things the benchmark prints: the
//! one-line result the driver reads, the table a person reads, and the
//! `results.json` a later comparison reads.

use crate::json::{self, escape, Value};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::quantiles::Summary;
use crate::workloads::Outcome;
use std::fmt::Write as _;

/// The value of end-to-end metric `name` in `out`.
pub fn end_to_end_value(out: &Outcome, name: &str) -> f64 {
    match name {
        "ops_per_s" => out.ops().median,
        "setup_s" => out.setup_s(),
        "peak_rss_mb" => out.peak_rss_mb,
        "fault_ms_p50" => out.fault().median,
        other => panic!("unknown end-to-end metric {other}"),
    }
}

/// The value of per-layer metric `name` in a traced `out` (0 for a layer
/// the workload does not exercise).
pub fn per_layer_value(out: &Outcome, name: &str) -> f64 {
    match name {
        "traced.ops_per_s" => out.ops().median,
        "traced.fault_ms_p50" => out.fault().median,
        "traced.windows" => (out.ops_rates.len() + out.fault_ms.len()) as f64,
        "traced.ops_failed" => out.ops_failed as f64,
        _ => out.layers.get(name).copied().unwrap_or(0.0),
    }
}

fn num(v: f64) -> String {
    // Every digit as measured; JSON has no NaN or infinity.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The driver's result line: `correct`, `attempted`, `failed`, `metrics` —
/// the end-to-end metrics of an untraced run, the per-layer metrics of a
/// traced one.
pub fn contract_line(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        out.ops_failed == 0,
        out.ops_attempted.max(1),
        out.ops_failed
    );
    let mut first = true;
    let mut put = |s: &mut String, name: &str, value: f64, unit: &str| {
        if !first {
            s.push_str(", ");
        }
        first = false;
        let _ = write!(
            s,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(value)
        );
    };
    if out.traced {
        for m in &PER_LAYER {
            put(&mut s, m.name, per_layer_value(out, m.name), m.unit);
        }
    } else {
        for m in &END_TO_END {
            put(&mut s, m.name, end_to_end_value(out, m.name), m.unit);
        }
    }
    s.push_str("}}");
    s
}

/// Check a result line against the contract: exactly the four keys,
/// whole-number counts, `attempted ≥ 1`, and exactly the expected metric
/// names, each with a finite `value` and its catalogue `unit`.
pub fn validate_contract_line(line: &str, traced: bool) -> Result<(), String> {
    let v = json::parse(line)?;
    let fields = v.as_obj().ok_or("result is not an object")?;
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("keys are {keys:?}"));
    }
    if !matches!(v.get("correct"), Some(Value::Bool(_))) {
        return Err("`correct` is not a boolean".into());
    }
    for k in ["attempted", "failed"] {
        let n = v
            .get(k)
            .and_then(Value::as_f64)
            .ok_or(format!("`{k}` is not a number"))?;
        if n.fract() != 0.0 || n < 0.0 {
            return Err(format!("`{k}` = {n} is not a whole number"));
        }
    }
    if v.get("attempted").and_then(Value::as_f64) < Some(1.0) {
        return Err("`attempted` is below 1".into());
    }
    let want: Vec<(&str, &str)> = if traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let got = v
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("`metrics` is not an object")?;
    if got.len() != want.len() {
        return Err(format!("{} metrics, expected {}", got.len(), want.len()));
    }
    for ((name, unit), (k, m)) in want.iter().zip(got) {
        if k != name {
            return Err(format!("metric `{k}` where `{name}` was expected"));
        }
        let value = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or(format!("`{name}` has no numeric value"))?;
        if !value.is_finite() {
            return Err(format!("`{name}` is not finite"));
        }
        if m.get("unit").and_then(Value::as_str) != Some(unit) {
            return Err(format!("`{name}` has the wrong unit"));
        }
        if m.as_obj().map(<[_]>::len) != Some(2) {
            return Err(format!("`{name}` has extra keys"));
        }
    }
    Ok(())
}

fn spread(s: &Summary) -> String {
    format!(
        "min {:.4e}  q1 {:.4e}  q3 {:.4e}  max {:.4e}  n={}  iqr {:.1}%",
        s.min,
        s.q1,
        s.q3,
        s.max,
        s.n,
        s.rel_iqr() * 100.0
    )
}

/// The report a person reads: every metric by name with unit and direction.
pub fn human(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {} (seed {}{}) ==",
        out.workload,
        out.seed,
        if out.traced { ", traced" } else { "" }
    );
    for m in &END_TO_END {
        let v = end_to_end_value(out, m.name);
        let detail = match m.name {
            "ops_per_s" => spread(&out.ops()),
            "fault_ms_p50" => spread(&out.fault()),
            "setup_s" => format!(
                "median of the passes after the cold first: {:?}",
                out.setup_passes_s
                    .iter()
                    .map(|x| (x * 1e3).round() / 1e3)
                    .collect::<Vec<_>>()
            ),
            "peak_rss_mb" => format!(
                "{}; pre-faulted to {:.1} MB by the cold pass",
                out.rss_source, out.prefault_mb
            ),
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "  {:<14} {:>14.6e} {:<4} ({} is better, bound {:.0}%)  {}",
            m.name,
            v,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            detail
        );
    }
    let _ = writeln!(
        s,
        "  cold_setup_s   {:>14.6e} s    (un-pre-faulted first pass, informational)",
        out.cold_setup_s()
    );
    for extra in ["obs_slowdown", "ctrl_msgs_per_change"] {
        if let Some(v) = out.layers.get(extra) {
            let _ = writeln!(
                s,
                "  {extra:<22} {v:.6}  (this workload only; not gated by a bound)"
            );
        }
    }
    let _ = writeln!(
        s,
        "  ops_attempted {}  ops_failed {}  digest {}",
        out.ops_attempted,
        out.ops_failed,
        match out.digest_pinned {
            Some(true) => "matches the pinned one",
            Some(false) => "MISMATCHES the pinned one",
            None => "not pinned for this seed (set-up passes agreed)",
        }
    );
    for f in &out.failures {
        let _ = writeln!(s, "    FAILED: {f}");
    }
    if out.traced {
        let _ = writeln!(
            s,
            "  per-layer (traced run; end-to-end numbers above are this run's, not of record):"
        );
        for m in &PER_LAYER {
            let v = per_layer_value(out, m.name);
            if v != 0.0 {
                let arrow = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                let _ = writeln!(
                    s,
                    "    {:<34} {:>14.6e} {:<8} ({arrow} is better)",
                    m.name, v, m.unit
                );
            }
        }
    }
    s
}

/// One run's object in `results.json`, on one line. A traced run's
/// end-to-end figures are its own, not of record; it adds `per_layer`.
pub fn results_object(out: &Outcome) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"workload\": \"{}\", \"seed\": {}, \"traced\": {}, \"end_to_end\": {{",
        out.workload, out.seed, out.traced
    );
    for (i, m) in END_TO_END.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
            m.name,
            num(end_to_end_value(out, m.name)),
            m.unit,
            m.better.as_str(),
            m.bound
        );
    }
    let sum = |x: &Summary| {
        format!(
            "{{\"n\": {}, \"min\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}, \"max\": {}}}",
            x.n,
            num(x.min),
            num(x.q1),
            num(x.median),
            num(x.q3),
            num(x.max)
        )
    };
    let _ = write!(
        s,
        "}}, \"ops_windows\": {}, \"fault_windows\": {}, \"setup_passes_s\": [{}], \"cold_setup_s\": {}, \"prefault_mb\": {}, \"rss_source\": \"{}\", \"ops_attempted\": {}, \"ops_failed\": {}, \"failures\": [{}], \"digest_pinned\": {}",
        sum(&out.ops()),
        sum(&out.fault()),
        out.setup_passes_s.iter().map(|x| num(*x)).collect::<Vec<_>>().join(", "),
        num(out.cold_setup_s()),
        num(out.prefault_mb),
        out.rss_source,
        out.ops_attempted,
        out.ops_failed,
        out.failures.iter().map(|f| format!("\"{}\"", escape(f))).collect::<Vec<_>>().join(", "),
        match out.digest_pinned {
            Some(b) => b.to_string(),
            None => "null".into(),
        }
    );
    for extra in ["obs_slowdown", "ctrl_msgs_per_change"] {
        if let Some(v) = out.layers.get(extra) {
            let _ = write!(s, ", \"{extra}\": {}", num(*v));
        }
    }
    if out.traced {
        s.push_str(", \"per_layer\": {");
        for (i, m) in PER_LAYER.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", m.name, num(per_layer_value(out, m.name)));
        }
        s.push('}');
    }
    s.push('}');
    s
}

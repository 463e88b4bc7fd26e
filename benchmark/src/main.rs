//! The benchmark of record.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml                  # every workload, report + out/results.json
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --trace 1     # … plus the traced per-layer run of each
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --workload tree_1m_data --seed 7 --seconds 6 --trace 0
//!                                                                           # one run; last stdout line is the result
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --check       # toy sizes, a few seconds, exit 1 on any failure
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --aa          # the full set twice, exit 1 past a bound
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --update-expected [--check]
//!                                                                           # re-pin the digests in expected/
//! ```
//!
//! One run of one workload is one process (`--workload`): peak RSS and the
//! allocator's state belong to that workload alone. The modes that cover
//! every workload start one such child per run and wait for it.

use express_benchmark::json::{self, Value};
use express_benchmark::metrics::{Better, END_TO_END};
use express_benchmark::workloads::{self, Cfg, DEFAULT_SEED, NAMES};
use express_benchmark::{hostctl, report, spans};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

/// What `BENCHMARK.json` passes as `--seconds`.
const DEFAULT_SECONDS: f64 = 6.0;
/// Set-up passes per run: the cold one and two that count.
const SETUP_PASSES: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check: bool,
    aa: bool,
    update_expected: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: express-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
         [--check] [--aa] [--update-expected]\n  workloads: {}",
        NAMES.join(", ")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check: false,
        aa: false,
        update_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{flag} needs {what}");
                usage()
            })
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name");
                if !NAMES.contains(&name.as_str()) {
                    eprintln!("unknown workload {name}");
                    usage();
                }
                a.workload = Some(name);
            }
            "--seed" => a.seed = value("a whole number").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value("a number of seconds")
                    .parse()
                    .unwrap_or_else(|_| usage());
                if !(a.seconds > 0.0 && a.seconds <= 60.0) {
                    eprintln!("--seconds must be in (0, 60]");
                    usage();
                }
            }
            "--trace" => {
                a.trace = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--check" => a.check = true,
            "--aa" => a.aa = true,
            "--update-expected" => a.update_expected = true,
            _ => {
                eprintln!("unknown flag {flag}");
                usage();
            }
        }
    }
    a
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn size_label(check: bool) -> &'static str {
    if check {
        "check"
    } else {
        "full"
    }
}

/// One run in this process: the report goes to stderr; stdout gets the
/// `results.json` object of the run and then, as its last line, the result
/// the driver reads. A traced run also writes `out/trace-<workload>.json`.
fn run_here(name: &str, a: &Args) {
    let cfg = Cfg {
        seed: a.seed,
        seconds: if a.check {
            a.seconds.min(0.3)
        } else {
            a.seconds
        },
        trace: a.trace,
        check: a.check,
        setup_passes: SETUP_PASSES,
        short: false,
    };
    let out = workloads::run_named(name, &cfg).expect("workload names are validated at parse time");
    if a.update_expected {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("expected")
            .join(format!("{name}.{}.digest", size_label(a.check)));
        match std::fs::write(&path, out.digest.to_text()) {
            Ok(()) => eprintln!("pinned {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    if cfg.trace {
        let path = out_dir().join(format!("trace-{name}.json"));
        if let Err(e) = std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, spans::to_json(name)))
        {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    eprint!("{}", report::human(&out));
    println!("{}", report::results_object(&out));
    println!("{}", report::contract_line(&out));
}

/// What a child run printed: its `results.json` object and its result line.
struct ChildRun {
    results: String,
    result: Value,
}

/// Start one run as a child process and wait for it. `None` (with the
/// reason printed) if it failed or broke the contract.
fn run_child(name: &str, a: &Args, trace: bool, extra: &[&str]) -> Option<ChildRun> {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if a.check {
        cmd.arg("--check");
    }
    let output = match cmd.output() {
        Ok(o) => o,
        Err(e) => {
            println!("  cannot start the {name} run: {e}");
            return None;
        }
    };
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines = stdout.lines().rev();
    let (Some(result), Some(results)) = (lines.next(), lines.next()) else {
        println!("  the {name} run ({}) printed no result", output.status);
        return None;
    };
    if !output.status.success() {
        println!("  the {name} run ended with {}", output.status);
        return None;
    }
    if let Err(e) = report::validate_contract_line(result, trace) {
        println!("  RESULT LINE BREAKS THE CONTRACT: {e}\n  {result}");
        return None;
    }
    if !trace {
        println!("  result: {result}");
    }
    Some(ChildRun {
        results: results.to_string(),
        result: json::parse(result).expect("validated above"),
    })
}

/// Every workload, untraced (and traced when asked), one child each:
/// reports, result lines, `out/results<label>.json`. Returns the untraced
/// results and whether everything passed.
fn run_all(a: &Args, label: &str) -> (Vec<Value>, bool) {
    let mut ok = true;
    let mut untraced = Vec::new();
    let mut objects = Vec::new();
    for name in NAMES {
        for trace in [false, true] {
            if trace && !a.trace {
                continue;
            }
            match run_child(name, a, trace, &[]) {
                Some(run) => {
                    ok &= run.result.get("correct") == Some(&Value::Bool(true));
                    objects.push(format!("    {}", run.results));
                    if !trace {
                        untraced.push(run.result);
                    }
                }
                None => ok = false,
            }
        }
    }
    let json = format!(
        "{{\n  \"schema\": \"benchmark/v1\",\n  \"claim\": null,\n  \"size\": \"{}\",\n  \"host\": \"{}\",\n  \"runs\": [\n{}\n  ]\n}}\n",
        size_label(a.check),
        json::escape(&hostctl::host_line()),
        objects.join(",\n")
    );
    let path = out_dir().join(format!("results{label}.json"));
    match std::fs::create_dir_all(out_dir()).and_then(|_| std::fs::write(&path, json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            println!("cannot write {}: {e}", path.display());
            ok = false;
        }
    }
    let complete = untraced.len() == NAMES.len();
    (untraced, ok && complete)
}

/// `--aa`: the same code twice; every end-to-end metric's relative
/// difference is printed beside its bound. Pinned digests are checked
/// inside each run, so two passing sets agree on them exactly.
fn aa(a: &Args) -> bool {
    let (first, ok1) = run_all(a, "-aa1");
    let (second, ok2) = run_all(a, "-aa2");
    if !(ok1 && ok2) {
        return false;
    }
    let mut ok = true;
    println!("== A/A: second set against the first ==");
    let value = |run: &Value, metric: &str| {
        run.get("metrics")
            .and_then(|m| m.get(metric))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .expect("validated result lines carry every end-to-end metric")
    };
    for ((name, x), y) in NAMES.iter().zip(&first).zip(&second) {
        for m in &END_TO_END {
            let (vx, vy) = (value(x, m.name), value(y, m.name));
            let worse = match m.better {
                Better::Lower => (vy - vx) / vx,
                Better::Higher => (vx - vy) / vx,
            };
            let verdict = if worse > m.bound { "EXCEEDS" } else { "within" };
            println!(
                "  {:<18} {:<14} {:>13.6e} -> {:>13.6e}  {:+6.2}% worse, {verdict} the {:.0}% bound",
                name,
                m.name,
                vx,
                vy,
                worse * 100.0,
                m.bound * 100.0
            );
            ok &= worse <= m.bound;
        }
    }
    ok
}

/// `--update-expected`: one short default-seed run per workload, each
/// writing its digest into `expected/`.
fn update_expected(a: &Args) -> bool {
    let pin = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 0.1,
        ..*a
    };
    let mut ok = true;
    for name in NAMES {
        // A digest that no longer matches is the reason to re-pin: the
        // child's verdict is not this mode's.
        ok &= run_child(name, &pin, false, &["--update-expected"]).is_some();
    }
    println!("rebuild for the new digests to take effect (they are compiled in)");
    ok
}

fn main() -> ExitCode {
    let a = parse_args();
    let ok = if let Some(name) = &a.workload {
        run_here(name, &a);
        true
    } else if a.update_expected {
        update_expected(&a)
    } else if a.aa {
        aa(&a)
    } else {
        println!(
            "express-benchmark on {} ({} size)",
            hostctl::host_line(),
            size_label(a.check)
        );
        for m in &END_TO_END {
            println!("  {:<13} [{}] {}", m.name, m.unit, m.what);
        }
        // The check exercises the traced path too.
        let all = Args {
            trace: a.trace || a.check,
            ..a
        };
        run_all(&all, if all.check { "-check" } else { "" }).1
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

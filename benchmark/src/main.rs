//! The repository benchmark. See `README.md` beside this package for the
//! workload and metric catalogue, and `../BENCHMARK.json` for the
//! contract the driver reads.
//!
//! ```text
//! zoom-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! zoom-benchmark run [--seed N] [--layers] [--smoke] [--out FILE]
//! zoom-benchmark compare A.json B.json
//! ```
//!
//! The first form is the driver's: one workload per invocation, the last
//! line of stdout one JSON object. `--trace 0` measures the end-to-end
//! metrics with nothing attached to the program; `--trace 1` is the
//! separate traced run that produces the layer table. `run` does all four
//! workloads (passes interleaved) and writes a result file that `compare`
//! reads. Every form takes `--tools PATH` to measure an already built
//! `zoom-tools` (a parent commit's, say) instead of building this
//! checkout's.

mod e2e;
mod json;
mod layers;
mod metrics;
mod stats;
mod sys;
mod traces;
mod workloads;

use e2e::{Env, Samples, Stop};
use json::Json;
use stats::Summary;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use traces::{DataDir, Needs};
use workloads::Workload;

#[global_allocator]
static GLOBAL: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "usage:
  zoom-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--tools PATH]
  zoom-benchmark run [--seed N] [--layers] [--smoke] [--out FILE] [--tools PATH]
  zoom-benchmark compare A.json B.json
workloads: batch-file stream-windowed dist-merge border-filter";

/// Timed passes per workload of `run` (one under `--smoke`).
const RUN_PASSES: usize = 12;
const DEFAULT_SEED: u64 = 7;
const DEFAULT_OUT: &str = "benchmark-result.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some(workloads::LAUNCH) => workloads::launcher(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some(a) if a.starts_with("--") && a != "--help" => cmd_driver(&args),
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    result.unwrap_or_else(|e| {
        eprintln!("zoom-benchmark: {e}");
        ExitCode::FAILURE
    })
}

/// `--key value` pairs for the keys in `valued` and bare `--switch`es;
/// anything else is an error.
fn parse_flags(
    args: &[String],
    valued: &[&str],
    switches: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}\n{USAGE}"))?;
        let value = if switches.contains(&key) {
            String::new()
        } else if valued.contains(&key) {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        } else {
            return Err(format!("unknown option --{key}\n{USAGE}"));
        };
        flags.insert(key.to_string(), value);
    }
    Ok(flags)
}

fn number<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
) -> Result<Option<T>, String> {
    flags
        .get(key)
        .map(|v| {
            v.parse::<T>()
                .map_err(|_| format!("--{key}: {v:?} is not a number"))
        })
        .transpose()
}

/// The checkout the benchmark measures: the working directory when it is
/// one (the driver and the documented commands run from the root), else
/// the checkout this binary was built in.
fn repo_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    if cwd.join("crates/cli/Cargo.toml").is_file() {
        return cwd;
    }
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits one level below the root")
        .to_path_buf()
}

/// Builds the release `zoom-tools` of this checkout and returns its path.
/// A no-op taking a fraction of a second when it is already built.
fn build_tools(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(&cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "zoom-tools",
            "--manifest-path",
        ])
        .arg(root.join("Cargo.toml"))
        .current_dir(root)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("{cargo}: {e}"))?;
    if !status.success() {
        return Err(format!(
            "cargo build --release -p zoom-tools failed in {}",
            root.display()
        ));
    }
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => root.join(dir),
        None => root.join("target"),
    };
    let tools = target.join("release/zoom-tools");
    if !tools.is_file() {
        return Err(format!(
            "{} is missing after a successful build",
            tools.display()
        ));
    }
    Ok(tools)
}

/// Tools, scratch directory (beside this binary, so inside the ignored
/// build directory) and trace parameters.
fn environment(flags: &HashMap<String, String>, shape: traces::Shape) -> Result<Env, String> {
    let tools = match flags.get("tools") {
        Some(path) => std::fs::canonicalize(path).map_err(|e| format!("--tools {path}: {e}"))?,
        None => build_tools(&repo_root())?,
    };
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let data = exe
        .parent()
        .ok_or("own path has no directory")?
        .join(format!("zoom-benchmark-data-{}", std::process::id()));
    let seed = number(flags, "seed")?.unwrap_or(DEFAULT_SEED);
    eprintln!(
        "[benchmark] tools {} | {} | seed {seed} | {} traces",
        tools.display(),
        machine(),
        shape.name
    );
    Ok(Env {
        tools,
        data: DataDir::create(data, &shape)?,
        seed,
        shape,
    })
}

/// Cores and kernel, recorded with every result: rates measured on
/// different boxes are not comparable.
fn machine() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let uname = Command::new("uname")
        .args(["-srm"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    format!("{cores} cores, {uname}")
}

fn print_end_to_end(samples: &Samples, setups: &[f64]) {
    for m in &metrics::END_TO_END {
        let (value, s) = samples.metric(m, setups);
        println!(
            "{:<16} {:<15} {:>14.4} {:<9} median {:.4} q1 {:.4} q3 {:.4} n {} (bound {:.1} %)",
            samples.workload.name(),
            m.name,
            value,
            m.unit,
            s.median,
            s.q1,
            s.q3,
            s.n,
            m.bound * 100.0
        );
    }
}

fn print_layers(table: &[(metrics::Layer, f64)]) {
    for (row, value) in table {
        println!(
            "{:<40} {value:>14.4} {:<6} {:<6} is better | {}",
            row.name,
            row.unit,
            row.better.label(),
            row.probe
        );
    }
}

/// `{"value": …, "unit": …}` per name: how both result forms carry metrics.
fn metrics_json(metrics: impl IntoIterator<Item = (String, f64, &'static str)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name, entry)
            })
            .collect(),
    )
}

fn layer_metrics(table: Vec<(metrics::Layer, f64)>) -> Vec<(String, f64, &'static str)> {
    table
        .into_iter()
        .map(|(row, value)| (row.name, value, row.unit))
        .collect()
}

/// The last line of a driver-form run.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .render()
}

fn cmd_driver(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(
        args,
        &["workload", "seed", "seconds", "trace", "tools"],
        &[],
    )?;
    let name = flags
        .get("workload")
        .ok_or(format!("--workload is required\n{USAGE}"))?;
    let workload =
        Workload::from_name(name).ok_or(format!("unknown workload {name:?}\n{USAGE}"))?;
    let seconds: f64 = number(&flags, "seconds")?.unwrap_or(RUN_SECONDS as f64);
    let traced = match flags.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
    };
    let env = environment(&flags, traces::STANDARD)?;

    if traced {
        // The layer table is one whole: its rows span all four workloads'
        // code paths and its coverage row ties them to an end-to-end
        // figure, so the traced run is the same whichever workload named
        // it, and its length is set by the probe list, not by --seconds.
        let (manifest, _) = e2e::setup(&env, Needs::ALL, 1)?;
        let plain = e2e::measure(
            &env,
            &Workload::ALL,
            &manifest,
            Stop::Passes(layers::CLI_PASSES),
        )?;
        let outcome = layers::run(&env, &manifest, &plain)?;
        print_layers(&outcome.table);
        let attempted =
            outcome.attempted_records + plain.iter().map(Samples::attempted_records).sum::<u64>();
        let failed = outcome.failed_records + plain.iter().map(|s| s.failed_records).sum::<u64>();
        println!(
            "{}",
            result_line(failed == 0, attempted, failed, layer_metrics(outcome.table))
        );
        return Ok(ExitCode::SUCCESS);
    }

    let (manifest, setups) = e2e::setup(&env, workload.needs(), e2e::SETUPS)?;
    let samples = e2e::measure(&env, &[workload], &manifest, Stop::Seconds(seconds))?
        .pop()
        .expect("one workload in, one out");
    print_end_to_end(&samples, &setups);
    let metrics = metrics::END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), samples.metric(m, &setups).0, m.unit))
        .collect();
    println!(
        "{}",
        result_line(
            samples.failed_records == 0,
            samples.attempted_records(),
            samples.failed_records,
            metrics
        )
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_run(args: &[String]) -> Result<ExitCode, String> {
    let flags = parse_flags(args, &["seed", "out", "tools"], &["layers", "smoke"])?;
    let smoke = flags.contains_key("smoke");
    let shape = if smoke {
        traces::SMOKE
    } else {
        traces::STANDARD
    };
    let passes = if smoke { 1 } else { RUN_PASSES };
    let out = flags.get("out").map_or(DEFAULT_OUT, String::as_str);
    let env = environment(&flags, shape)?;

    // Set-up is the whole trace set, built cold once: `run` reports it as
    // one number, not per workload.
    let (manifest, setups) = e2e::setup(&env, Needs::ALL, 1)?;
    let all = e2e::measure(&env, &Workload::ALL, &manifest, Stop::Passes(passes))?;
    for samples in &all {
        print_end_to_end(samples, &setups);
    }
    let failed: u64 = all.iter().map(|s| s.failed_records).sum();

    let mut result = vec![
        ("benchmark", Json::str("zoom-benchmark")),
        ("machine", Json::Str(machine())),
        ("traces", manifest.to_json()),
        (
            "end_to_end",
            Json::Obj(
                all.iter()
                    .map(|s| (s.workload.name().to_string(), s.to_json(&setups)))
                    .collect(),
            ),
        ),
    ];
    let mut layer_failures = 0;
    if flags.contains_key("layers") {
        let outcome = layers::run(&env, &manifest, &all)?;
        print_layers(&outcome.table);
        layer_failures = outcome.failed_records;
        result.push(("per_layer", metrics_json(layer_metrics(outcome.table))));
    }
    result.push(("correct", Json::Bool(failed + layer_failures == 0)));
    std::fs::write(out, Json::obj(result).render_pretty()).map_err(|e| format!("{out}: {e}"))?;
    println!("[json] {out}");
    Ok(if failed + layer_failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How one (workload, metric) pair of two result files compares.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regression,
    /// A side's own inter-quartile range is wider than the bound: the
    /// runs cannot tell a change of that size from noise.
    Unresolved,
}

/// `worse_by` is the share of `a`'s value by which `b` is worse.
fn judge(m: &metrics::EndToEnd, a: (f64, Summary), b: (f64, Summary)) -> (f64, Verdict) {
    let worse_by = match m.better {
        metrics::Better::Higher => (a.0 - b.0) / a.0,
        metrics::Better::Lower => (b.0 - a.0) / a.0,
    };
    let verdict = if a.1.spread() > m.bound || b.1.spread() > m.bound {
        Verdict::Unresolved
    } else if worse_by > m.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse_by, verdict)
}

fn cmd_compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err(format!("compare takes two result files\n{USAGE}"));
    };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let traces = |v: &Json| v.get("traces").and_then(traces::Manifest::from_json);
    match (traces(&a), traces(&b)) {
        (Some(ta), Some(tb)) if ta == tb => {}
        (Some(ta), Some(tb)) => println!(
            "note: the two runs did not see identical inputs: A seed {} {} traces, B seed {} {} traces, {} of {} files equal",
            ta.seed,
            ta.shape,
            tb.seed,
            tb.shape,
            ta.files.iter().filter(|f| tb.files.contains(f)).count(),
            ta.files.len()
        ),
        _ => println!("note: a result file carries no trace manifest; inputs cannot be compared"),
    }
    let entry = |v: &Json, w: &str, m: &str| -> Option<(f64, Summary)> {
        let e = v.at(&["end_to_end", w, m])?;
        Some((e.get("value")?.as_f64()?, Summary::from_json(e)?))
    };
    let mut regressions = 0;
    println!(
        "{:<16} {:<15} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A", "B", "worse by", "bound"
    );
    for w in Workload::ALL {
        for m in &metrics::END_TO_END {
            let (Some(ea), Some(eb)) = (entry(&a, w.name(), m.name), entry(&b, w.name(), m.name))
            else {
                println!("{:<16} {:<15} missing from one side", w.name(), m.name);
                continue;
            };
            let (worse_by, verdict) = judge(m, ea, eb);
            regressions += usize::from(verdict == Verdict::Regression);
            println!(
                "{:<16} {:<15} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%  {}",
                w.name(),
                m.name,
                ea.0,
                eb.0,
                worse_by * 100.0,
                m.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// How long one driver run measures (`run_seconds` of `BENCHMARK.json`).
const RUN_SECONDS: u64 = 20;

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` as the catalogue in `metrics.rs` defines it; the
    /// committed file must say the same.
    fn benchmark_json() -> Json {
        let named = |fields: Vec<(&str, Json)>| Json::obj(fields);
        Json::obj(vec![
            (
                "command",
                Json::Arr(
                    [
                        "cargo",
                        "run",
                        "--release",
                        "--quiet",
                        "--manifest-path",
                        "benchmark/Cargo.toml",
                        "--",
                    ]
                    .iter()
                    .map(|s| Json::str(s))
                    .collect(),
                ),
            ),
            ("paths", Json::Arr(vec![Json::str("benchmark")])),
            ("run_seconds", Json::Num(RUN_SECONDS as f64)),
            (
                "workloads",
                Json::Arr(
                    Workload::ALL
                        .iter()
                        .map(|w| {
                            named(vec![
                                ("name", Json::str(w.name())),
                                ("why", Json::str(w.why())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "end_to_end",
                Json::Arr(
                    metrics::END_TO_END
                        .iter()
                        .map(|m| {
                            named(vec![
                                ("name", Json::str(m.name)),
                                ("unit", Json::str(m.unit)),
                                ("better", Json::str(m.better.label())),
                                ("bound", Json::Num(m.bound)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "per_layer",
                Json::Arr(
                    metrics::layers()
                        .iter()
                        .map(|l| {
                            named(vec![
                                ("name", Json::str(&l.name)),
                                ("unit", Json::str(l.unit)),
                                ("better", Json::str(l.better.label())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(
            true,
            1000,
            0,
            vec![("latency_ms".to_string(), 1.2034, "ms")],
        );
        assert!(!line.contains('\n'));
        let v = Json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("attempted").and_then(Json::as_u64), Some(1000));
        assert_eq!(
            v.at(&["metrics", "latency_ms", "value"])
                .and_then(Json::as_f64),
            Some(1.2034)
        );
        assert_eq!(
            v.at(&["metrics", "latency_ms", "unit"])
                .and_then(Json::as_str),
            Some("ms")
        );
    }

    #[test]
    fn committed_benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(committed, benchmark_json());
    }

    #[test]
    fn compare_verdicts() {
        let by_name = |name| metrics::END_TO_END.iter().find(|m| m.name == name).unwrap();
        let m = by_name(metrics::PKTS_PER_S);
        let b = m.bound;
        let with_spread = |v: f64, spread: f64| {
            let half = v * spread / 2.0;
            (
                v,
                Summary {
                    median: v,
                    q1: v - half,
                    q3: v + half,
                    n: 12,
                },
            )
        };
        let tight = |v: f64| with_spread(v, b / 5.0);
        let loose = |v: f64| with_spread(v, b * 1.2);
        // Slower by half the bound: inside it.
        let (by, v) = judge(m, tight(1000.0), tight(1000.0 * (1.0 - b / 2.0)));
        assert!((by - b / 2.0).abs() < 1e-12);
        assert_eq!(v, Verdict::Ok);
        // Slower by twice the bound: a regression; faster by as much: fine.
        assert_eq!(
            judge(m, tight(1000.0), tight(1000.0 * (1.0 - 2.0 * b))).1,
            Verdict::Regression
        );
        assert_eq!(
            judge(m, tight(1000.0), tight(1000.0 * (1.0 + 2.0 * b))).1,
            Verdict::Ok
        );
        // Either side noisier than the bound: no verdict either way.
        assert_eq!(
            judge(m, loose(1000.0), tight(1000.0 * (1.0 - 2.0 * b))).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(m, tight(1000.0), loose(1000.0)).1,
            Verdict::Unresolved
        );
        // Lower-is-better metrics flip the sign.
        let cpu = by_name(metrics::CPU_NS_PER_PKT);
        let up = 1000.0 * (1.0 + 2.0 * cpu.bound);
        assert_eq!(judge(cpu, tight(1000.0), tight(up)).1, Verdict::Regression);
        assert_eq!(judge(cpu, tight(up), tight(1000.0)).1, Verdict::Ok);
    }
}

//! `vifbench`: the repository's benchmark.
//!
//! ```text
//! vifbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, one pass, in this process; the last line of output is
//!     the result object `BENCHMARK.json` describes
//! vifbench run    [--seed n] [--seconds s]   every workload, both passes
//! vifbench smoke                             the same at 1 s, names checked
//! vifbench repeat [--sets n] [--seed n] [--seconds s]
//!     n sets of untraced runs, workloads interleaved; spread against bound
//! ```
//!
//! `run`, `smoke` and `repeat` start one child process of this binary per
//! workload and pass, so that peak memory does not leak across workloads.

mod api;
mod inputs;
mod json;
mod metrics;
mod runner;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

struct Args {
    command: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    sets: usize,
    canary_steal: bool,
    out: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        command: None,
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        sets: 2,
        canary_steal: true,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        let bad = |v: &str| format!("{arg}: bad value {v}");
        let whole = |v: String| v.parse::<u64>().map_err(|_| bad(&v));
        match arg.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = whole(value()?)?,
            "--seconds" => {
                let v = value()?;
                args.seconds = Some(v.parse::<f64>().map_err(|_| bad(&v))?);
            }
            "--trace" => args.trace = whole(value()?)? != 0,
            "--sets" => args.sets = whole(value()?)? as usize,
            "--canary-steal" => args.canary_steal = whole(value()?)? != 0,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            "run" | "smoke" | "repeat" if args.command.is_none() => args.command = Some(arg),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(s) = args.seconds {
        if !(s > 0.0 && s <= 600.0) {
            return Err(format!("--seconds {s} is out of range"));
        }
    }
    Ok(args)
}

/// Results and traces go beside the binary, inside the build directory.
fn out_dir(args: &Args) -> PathBuf {
    args.out.clone().unwrap_or_else(|| {
        std::env::current_exe()
            .ok()
            .and_then(|exe| exe.parent().map(|dir| dir.join("vifbench-out")))
            .unwrap_or_else(|| PathBuf::from("vifbench-out"))
    })
}

fn result_json(outcome: &runner::Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
}

/// One workload, one pass, here: the mode the driver calls.
fn single(args: &Args, name: &str) -> ExitCode {
    let Some(spec) = workloads::by_name(name) else {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    };
    let outcome = runner::run(
        &spec,
        &runner::RunArgs {
            seed: args.seed,
            seconds: args.seconds.unwrap_or(10.0),
            trace: args.trace,
            canary_steal: args.canary_steal,
            out_dir: out_dir(args),
        },
    );
    println!("workload {name}: {}", spec.why);
    for m in &outcome.metrics {
        let spread = match (m.median, m.p95) {
            (Some(median), Some(p95)) => format!(", median={median}, p95={p95}"),
            _ => String::new(),
        };
        println!("{} {} {} (n={}{spread})", m.name, m.unit, m.value, m.n);
    }
    println!(
        "failed_share ratio {} (ops={})",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    for f in &outcome.failures {
        println!("FAILED {f}");
    }
    println!("{}", result_json(&outcome).encode());
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one pass of one workload in a child process of this binary and
/// parses its last line.
fn child(args: &Args, name: &str, seed: u64, seconds: f64, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(out_dir(args))
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let parsed = Json::parse(last).map_err(|e| format!("{name}: no result line ({e})"))?;
    if !output.status.success() || parsed.get("correct").and_then(Json::as_bool) != Some(true) {
        let failures: Vec<&str> = stdout.lines().filter(|l| l.starts_with("FAILED")).collect();
        return Err(format!("{name} (trace {trace}) failed: {failures:?}"));
    }
    Ok(parsed)
}

fn metric_values(result: &Json) -> Vec<(String, f64, String)> {
    result
        .get("metrics")
        .map_or(&[][..], Json::as_obj)
        .iter()
        .filter_map(|(name, m)| {
            Some((
                name.clone(),
                m.get("value")?.as_f64()?,
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// The benchmark's declaration, from the root of the checkout.
fn benchmark_json() -> Result<Json, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    Json::parse(&text)
}

fn names_of(decl: &Json, key: &str) -> Vec<String> {
    decl.get(key)
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| m.get("name")?.as_str().map(str::to_string))
        .collect()
}

/// Every workload, untraced then traced; with `check`, output names are
/// validated against `BENCHMARK.json`.
fn run_all(args: &Args, seconds: f64, check: bool) -> Result<(), String> {
    let decl = if check { Some(benchmark_json()?) } else { None };
    let env = stats::env_info();
    let mut workloads_out = Vec::new();
    for spec in workloads::all() {
        println!("== {} — {}", spec.name, spec.why);
        let mut passes = Vec::new();
        for trace in [false, true] {
            let result = child(args, spec.name, args.seed, seconds, trace)?;
            let values = metric_values(&result);
            for (name, value, unit) in &values {
                println!("{name} {unit} {value}");
            }
            if let Some(decl) = &decl {
                let key = if trace { "per_layer" } else { "end_to_end" };
                let expected = names_of(decl, key);
                let got: Vec<String> = values.iter().map(|v| v.0.clone()).collect();
                if expected != got {
                    return Err(format!(
                        "{}: {key} names differ from BENCHMARK.json",
                        spec.name
                    ));
                }
                if !trace && values.iter().any(|v| v.1 == 0.0) {
                    return Err(format!("{}: an end-to-end metric read 0", spec.name));
                }
            }
            passes.push((if trace { "per_layer" } else { "end_to_end" }, result));
        }
        workloads_out.push((spec.name, Json::obj(passes)));
    }
    if let Some(decl) = &decl {
        let declared = names_of(decl, "workloads");
        let have: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        if declared != have {
            return Err(format!(
                "workloads {have:?} differ from BENCHMARK.json {declared:?}"
            ));
        }
    }
    let file = Json::obj([
        ("seed", Json::str(args.seed.to_string())),
        ("seconds", Json::Num(seconds)),
        ("nproc", Json::Num(env.nproc as f64)),
        ("cpu_model", Json::str(env.cpu_model)),
        ("rustc", Json::str(env.rustc)),
        ("git_commit", Json::str(env.commit)),
        ("service_config", Json::str(api::service_config_text())),
        ("workloads", Json::obj(workloads_out)),
    ]);
    let dir = out_dir(args);
    let path = dir.join(format!("result-seed{}.json", args.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, file.encode() + "\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results {}", path.display());
    Ok(())
}

/// `sets` untraced runs of every workload, each set on its own seed and
/// the workloads interleaved within a set, so slow drift of the machine
/// spreads over all of them. Prints min / median / max per metric and the
/// interquartile spread as a share of the median, against the bound.
fn repeat(args: &Args, seconds: f64) -> Result<(), String> {
    if args.sets < 2 {
        return Err("--sets must be at least 2".into());
    }
    let decl = benchmark_json()?;
    let bounds: Vec<(String, f64)> = decl
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let specs = workloads::all();
    // series[workload][metric] -> one value per set
    let mut series: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); bounds.len()]; specs.len()];
    for set in 0..args.sets {
        for (w, spec) in specs.iter().enumerate() {
            let result = child(args, spec.name, args.seed + set as u64, seconds, false)?;
            let values = metric_values(&result);
            for (m, (name, _)) in bounds.iter().enumerate() {
                let v = values.iter().find(|v| v.0 == *name);
                series[w][m].push(v.ok_or(format!("{}: {name} missing", spec.name))?.1);
            }
            let shown: Vec<String> = series[w].iter().map(|v| format!("{:.4}", v[set])).collect();
            println!("set {} {} {}", set + 1, spec.name, shown.join(" "));
        }
    }
    println!("workload metric min median max spread bound spread/bound");
    let mut over = Vec::new();
    for (w, spec) in specs.iter().enumerate() {
        for (m, (name, bound)) in bounds.iter().enumerate() {
            let v = &series[w][m];
            let spread = stats::spread(v);
            let min = v.iter().copied().fold(f64::INFINITY, f64::min);
            let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{} {name} {min:.4} {:.4} {max:.4} {spread:.4} {bound} {:.2}",
                spec.name,
                stats::median(v),
                spread / bound
            );
            // Set-up time is checked on its median only, as by the driver.
            if spread > *bound && name != "setup_s" {
                over.push(format!("{} {name}", spec.name));
            }
        }
    }
    if over.is_empty() {
        Ok(())
    } else {
        Err(format!("spread above bound: {over:?}"))
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("vifbench: {e}");
            return ExitCode::from(2);
        }
    };
    let done = match (args.command.as_deref(), &args.workload) {
        (None, Some(name)) => return single(&args, name),
        (Some("run"), _) => run_all(&args, args.seconds.unwrap_or(10.0), false),
        (Some("smoke"), _) => run_all(&args, 1.0, true),
        (Some("repeat"), _) => repeat(&args, args.seconds.unwrap_or(10.0)),
        _ => Err("give --workload <name>, or run | smoke | repeat".into()),
    };
    match done {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("vifbench: {e}");
            ExitCode::FAILURE
        }
    }
}

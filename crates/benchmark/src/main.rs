//! `bonsai-benchmark`: see the crate README for workloads and metrics.
//!
//! ```text
//! bonsai-benchmark [--seed N] [--seconds S] [--workload NAME]
//!                  [--trace [0|1]] [--out PATH] [--repeat N]
//! bonsai-benchmark --list
//! bonsai-benchmark compare A.json B.json
//! ```
//!
//! With `--workload` the workload runs in this process and the last
//! line of standard output is one JSON object (`correct`, `attempted`,
//! `failed`, `metrics`): the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`. Without it, every workload is
//! run in turn, each in a fresh child process so that peak memory and
//! thread state are its own.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use bonsai_benchmark::json::{self, obj, Value};
use bonsai_benchmark::spec::{self, WORKLOADS};
use bonsai_benchmark::{compare, load_width, run_workload, trace, Params, REFUSED_ENV};

/// Default `--seed`.
const DEFAULT_SEED: u64 = 11;

/// Default `--seconds`; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: bonsai-benchmark [--seed N] [--seconds S] [--workload NAME] \
[--trace [0|1]] [--out PATH] [--repeat N] | --list | compare A.json B.json";

struct Args {
    params: Params,
    workload: Option<String>,
    traced: bool,
    out: Option<PathBuf>,
    repeat: usize,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        params: Params {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
        },
        workload: None,
        traced: false,
        out: None,
        repeat: 1,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--seed" => {
                parsed.params.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.params.seconds = seconds;
            }
            "--workload" => {
                let name = value("a workload name")?;
                if spec::workload(&name).is_none() {
                    return Err(format!("unknown workload {name} (see --list)"));
                }
                parsed.workload = Some(name);
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes 0 or 1.
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a path")?)),
            "--repeat" => {
                parsed.repeat = value("a count")?
                    .parse()
                    .ok()
                    .filter(|n| (1..=100).contains(n))
                    .ok_or("--repeat must be 1 to 100")?;
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Where result and span files go when `--out` does not say: the build
/// directory, which every checkout already ignores.
fn scratch_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("bonsai-benchmark")
}

fn out_dir(out: Option<&Path>) -> PathBuf {
    match out.and_then(Path::parent) {
        Some(dir) if dir.as_os_str().is_empty() => PathBuf::from("."),
        Some(dir) => dir.to_path_buf(),
        None => scratch_dir(),
    }
}

fn result_file(params: &Params, runs: Vec<Value>) -> Value {
    obj([
        ("benchmark", Value::Str("bonsai-benchmark".into())),
        ("seed", Value::Num(params.seed as f64)),
        ("seconds", Value::Num(params.seconds)),
        ("load_width", Value::Num(load_width() as f64)),
        ("runs", Value::Arr(runs)),
    ])
}

fn write(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one workload in this process and prints its result line.
fn run_one(workload: &str, args: &Args) -> Result<bool, String> {
    let (outcome, spans) = run_workload(workload, &args.params, args.traced)?;
    print!("{}", outcome.human(workload, args.traced));
    if args.traced {
        let path = out_dir(args.out.as_deref()).join(format!("{workload}.spans.jsonl"));
        write(&path, &trace::to_json_lines(&spans))?;
        println!("{} spans written to {}", spans.len(), path.display());
    }
    if let Some(path) = &args.out {
        let file = result_file(&args.params, vec![outcome.full(workload, args.traced)]);
        write(path, &file.render())?;
    }
    println!("{}", outcome.result(args.traced).render());
    Ok(outcome.correct())
}

/// Runs every workload, each in a fresh child process, `--repeat`
/// times over; with `--trace` each is followed by its traced run.
fn run_suite(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = out_dir(args.out.as_deref());
    println!(
        "bonsai-benchmark: seed {} window {} s load width {} ({} workloads, {} repeat(s){})",
        args.params.seed,
        args.params.seconds,
        load_width(),
        WORKLOADS.len(),
        args.repeat,
        if args.traced { ", traced" } else { "" }
    );
    let mut runs = Vec::new();
    let mut correct = true;
    for _ in 0..args.repeat {
        for w in &WORKLOADS {
            for traced in [false, true] {
                if traced && !args.traced {
                    continue;
                }
                let child_out = dir.join(format!("{}.{}.json", w.name, u8::from(traced)));
                let status = Command::new(&exe)
                    .args(["--workload", w.name])
                    .args(["--seed", &args.params.seed.to_string()])
                    .args(["--seconds", &args.params.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&child_out)
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                correct &= status.success();
                let text = std::fs::read_to_string(&child_out)
                    .map_err(|e| format!("{}: {e}", child_out.display()))?;
                // Merged into the suite's own file below.
                let _ = std::fs::remove_file(&child_out);
                let file = json::parse(&text)?;
                runs.extend(
                    file.get("runs")
                        .and_then(Value::as_arr)
                        .unwrap_or_default()
                        .to_vec(),
                );
            }
        }
    }
    let file = result_file(&args.params, runs);
    println!(
        "== end-to-end, median [q1, q3] over {} run(s) ==",
        args.repeat
    );
    print!("{}", compare::summary(&file));
    if let Some(path) = &args.out {
        write(path, &file.render())?;
        println!("results written to {}", path.display());
    }
    Ok(correct)
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("--list") => {
            print!("{}", spec::list());
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => load(a).and_then(|a| Ok((a, load(b)?))).map(|(a, b)| {
                let (table, agree) = compare::compare(&a, &b);
                print!("{table}");
                println!(
                    "{}",
                    if agree {
                        "every metric agrees within its bound"
                    } else {
                        "some metrics DISAGREE beyond their bound"
                    }
                );
                agree
            }),
            _ => Err(USAGE.to_string()),
        },
        Some("--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => {
            if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
                eprintln!(
                    "bonsai-benchmark: {var} is set; it changes what the measured program does, unset it"
                );
                return ExitCode::from(2);
            }
            match parse_args(&args) {
                Ok(parsed) => match &parsed.workload {
                    Some(workload) => run_one(workload, &parsed),
                    None => run_suite(&parsed),
                },
                Err(e) => {
                    eprintln!("bonsai-benchmark: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bonsai-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

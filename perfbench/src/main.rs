//! `perfbench` — the end-to-end and per-layer benchmark of bagcons.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --smoke
//! ```
//!
//! With `--trace 0` the workload runs through the user's entry points
//! (the release `bagcons` binary and a `bagcons serve` child) and reports
//! the end-to-end metrics; with `--trace 1` the same inputs run through
//! the library's public calls in-process, with a span around each call,
//! and the per-layer metrics are reported. The last line of standard
//! output is the result object. `--smoke` runs every workload at toy size
//! in both modes and checks that every metric `BENCHMARK.json` names is
//! emitted with its unit. See `README.md` beside this file.

mod e2e;
mod inputs;
mod json;
mod layers;
mod proc;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["acyclic", "cyclic", "stream", "serve"];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, (f64, String)>,
    pub notes: Vec<String>,
    pub input_rows: u64,
    pub input_bytes: u64,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Counts one failed operation and keeps its first few messages.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("check failed: {why}");
        }
    }

    pub fn add_input(&mut self, rows: u64, bytes: u64) {
        self.input_rows += rows;
        self.input_bytes += bytes;
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| "--seed expects an integer")?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| "--seconds expects a number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    if !args.smoke && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The repository root: the parent of this package.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("perfbench sits inside the repository")
        .to_path_buf()
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Runs one workload in one mode and returns its outcome.
fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: &inputs::Sizes,
    work: &Path,
) -> Result<Outcome, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    let mut out = Outcome::default();
    if trace {
        let ctx = layers::Ctx {
            work,
            seed,
            seconds,
            sizes,
        };
        layers::run(workload, &ctx, &mut out)?;
    } else {
        let bin = proc::build_bagcons(&repo_root())?;
        let ctx = e2e::Ctx {
            bin: &bin,
            work,
            seed,
            seconds,
            sizes,
        };
        match workload {
            "acyclic" => e2e::acyclic(&ctx, &mut out)?,
            "cyclic" => e2e::cyclic(&ctx, &mut out)?,
            "stream" => e2e::stream(&ctx, &mut out)?,
            "serve" => e2e::serve(&ctx, &mut out)?,
            other => return Err(format!("unknown workload {other}")),
        }
    }
    Ok(out)
}

/// Prints the human-readable report, the run's context, and (last) the
/// result object.
fn report(workload: &str, seed: u64, trace: bool, out: &Outcome) {
    let root = repo_root();
    let root_arg = root.to_string_lossy();
    println!(
        "workload={workload} seed={seed} mode={}",
        if trace { "traced" } else { "end-to-end" }
    );
    for (name, (value, unit)) in &out.metrics {
        println!("  {name:<36} {value:>16.6} {unit}");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "  ops: attempted={} failed={} ops_failed_ratio={failed_ratio}",
        out.attempted, out.failed
    );
    for note in &out.notes {
        println!("  {note}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let context = format!(
        "{{\"context\": {{\"workload\": {}, \"seed\": {seed}, \"input_rows\": {}, \"input_bytes\": {}, \"nproc\": {nproc}, \"cli_threads\": {}, \"commit\": {}, \"rustc\": {}}}}}",
        json::quote(workload),
        out.input_rows,
        out.input_bytes,
        bagcons_core::ExecConfig::default().threads(),
        json::quote(&command_line("git", &["-C", &root_arg, "rev-parse", "HEAD"])),
        json::quote(&command_line("rustc", &["--version"])),
    );
    println!("{context}");
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        json::metrics_object(&out.metrics)
    );
}

/// Runs every workload at toy size in both modes and checks the emitted
/// metric names and units against `BENCHMARK.json`.
fn smoke(work: &Path) -> Result<(), String> {
    let spec_path = repo_root().join("BENCHMARK.json");
    let spec_text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("{}: {e}", spec_path.display()))?;
    let spec = json::parse(&spec_text)?;
    let expected = |key: &str| -> Result<Vec<(String, String)>, String> {
        spec.get(key)
            .and_then(json::Value::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
            .iter()
            .map(|m| {
                let name = m.get("name").and_then(json::Value::as_str);
                let unit = m.get("unit").and_then(json::Value::as_str);
                match (name, unit) {
                    (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
                    _ => Err(format!("malformed {key} entry")),
                }
            })
            .collect()
    };
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(json::Value::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .filter_map(|w| {
            w.get("name")
                .and_then(json::Value::as_str)
                .map(str::to_string)
        })
        .collect();
    for workload in &workloads {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(workload, 1, 0.2, trace, &inputs::SMOKE, work)?;
            report(workload, 1, trace, &out);
            if out.failed > 0 {
                return Err(format!("{workload}: {} checks failed", out.failed));
            }
            let want = expected(key)?;
            for (name, unit) in &want {
                match out.metrics.get(name) {
                    Some((v, u)) if u == unit && v.is_finite() => {}
                    Some((_, u)) => {
                        return Err(format!("{workload}: {name} has unit {u}, expected {unit}"))
                    }
                    None => return Err(format!("{workload}: {name} not emitted")),
                }
            }
            if out.metrics.len() != want.len() {
                return Err(format!(
                    "{workload}: emitted {} {key} metrics, BENCHMARK.json names {}",
                    out.metrics.len(),
                    want.len()
                ));
            }
        }
    }
    println!("smoke: every metric of BENCHMARK.json emitted with its unit on every workload");
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let work = repo_root().join("perfbench").join("work");
    if args.smoke {
        return match smoke(&work.join("smoke")) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("smoke failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let dir = work.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        if args.trace { "traced" } else { "e2e" }
    ));
    match run(
        &args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &inputs::FULL,
        &dir,
    ) {
        Ok(out) => {
            report(&args.workload, args.seed, args.trace, &out);
            if out.failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

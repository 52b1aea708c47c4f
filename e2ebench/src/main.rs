//! `pbte-e2ebench` — end-to-end BTE solve benchmark.
//!
//! ```text
//! pbte-e2ebench --workload <hotspot-seq|headline-gpu|die3d-implicit|all>
//!               --seed <n> --seconds <s> --trace <0|1> [--out DIR]
//! ```
//!
//! Each operation is one solve of the workload's generated `.pbte`
//! scenario, driven only through the public API: `parse_pbte` →
//! `ScenarioSpec::build` → `Solver::build` → `verify_plan` /
//! `check_units` / `check_intervals` (refusing on any error) →
//! `Solver::solve`, restarted from a `Fields` snapshot taken after set-up.
//! Every solve is checked against an untimed `target=seq` reference.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that measures the per-layer metrics and writes the span ledger and
//! the layer tables. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. All artifacts go
//! under `--out` (default `e2ebench/out`, relative to the working
//! directory).

mod ledger;
mod measure;
mod workload;

use ledger::{json_num, json_str};
use measure::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out = PathBuf::from("e2ebench").join("out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&v).ok_or(format!("unknown workload `{v}`"))?]
                });
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace expects 0 or 1, got `{v}`")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("pbte-e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    // The native plan cache (used only by the native tier) stays under
    // the output directory too.
    std::env::set_var("PBTE_NATIVE_CACHE_DIR", args.out.join("native-cache"));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(workload::MAX_THREADS)
        .build()
        .expect("the rayon shim never fails to build a pool");

    let mut results: Vec<(Workload, Outcome)> = Vec::new();
    for &w in &args.workloads {
        let dir = args.out.join(w.name()).join(format!("seed-{}", args.seed));
        let outcome = pool.install(|| measure::run(w, args.seed, args.seconds, args.trace, &dir));
        for line in &outcome.notes {
            println!("[{}] {line}", w.name());
        }
        let json = result_json(&[(w, &outcome)], false);
        let file = dir.join(format!("result-trace{}.json", u8::from(args.trace)));
        if let Err(e) = std::fs::write(&file, format!("{json}\n")) {
            eprintln!("pbte-e2ebench: cannot write {}: {e}", file.display());
        }
        results.push((w, outcome));
    }
    let all: Vec<(Workload, &Outcome)> = results.iter().map(|(w, o)| (*w, o)).collect();
    println!("{}", result_json(&all, all.len() > 1));
    if results.iter().all(|(_, o)| o.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The result object. With several workloads, metric names are prefixed
/// by the workload and the counts are summed.
fn result_json(results: &[(Workload, &Outcome)], prefixed: bool) -> String {
    let correct = results.iter().all(|(_, o)| o.correct);
    let attempted: u64 = results.iter().map(|(_, o)| o.attempted).sum();
    let failed: u64 = results.iter().map(|(_, o)| o.failed).sum();
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|(w, o)| {
            o.metrics.iter().map(move |m| {
                let name = if prefixed {
                    format!("{}.{}", w.name(), m.name)
                } else {
                    m.name.to_string()
                };
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(&name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

//! The repo benchmark: five serving workloads driven over loopback
//! through `nlq_client::Client` against an in-process `nlq_server`,
//! three gated end-to-end metrics plus a failure count, and a traced
//! pass with one probe per crate. See `README.md` beside this package.
//!
//! ```text
//! benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark --smoke
//! benchmark --check A.json B.json
//! ```
//!
//! Without `--workload` every workload runs. The last line of standard
//! output of a single-workload run is the JSON object the driver reads.

mod gen;
mod json;
mod layers;
mod load;
mod report;
mod setup;
mod spans;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::{RunInfo, WorkloadResult};
use setup::Workload;
use workloads::RunPlan;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: PathBuf,
    check: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 15.0,
        traced: false,
        smoke: false,
        out: PathBuf::from(".bench_out"),
        check: None,
    };
    let mut it = std::env::args().skip(1);
    let value = |flag: &str, it: &mut dyn Iterator<Item = String>| {
        it.next().ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload", &mut it)?;
                let w =
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                args.workloads = vec![w];
            }
            "--seed" => {
                args.seed = value("--seed", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds", &mut it)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.traced = match value("--trace", &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--traced" => args.traced = true,
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value("--out", &mut it)?),
            "--check" => {
                args.check = Some((value("--check", &mut it)?, value("--check", &mut it)?));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_check(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (table, regressed) = report::check(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.check {
        return match run_check(a, b) {
            Ok(false) => ExitCode::SUCCESS,
            Ok(true) => ExitCode::from(1),
            Err(e) => {
                eprintln!("benchmark --check: {e}");
                ExitCode::from(2)
            }
        };
    }

    // Smoke: every check on, but small and short enough for CI.
    let (warmup, window, setup_budget, probe_ms) = if args.smoke {
        (0.2, 1.0, 0.0, 20)
    } else {
        (2.0, args.seconds, 1.5, 150)
    };
    let plan = RunPlan {
        seed: args.seed,
        smoke: args.smoke,
        warmup: Duration::from_secs_f64(warmup),
        window: Duration::from_secs_f64(window),
        setup_budget: Duration::from_secs_f64(setup_budget),
        probe_budget: Duration::from_millis(probe_ms),
    };
    let info = RunInfo {
        seed: args.seed,
        smoke: args.smoke,
        traced: args.traced,
        warmup_s: warmup,
        window_s: window,
        setup_budget_s: setup_budget,
    };
    eprintln!(
        "benchmark: host_cpus={} clients={} workers={} seed={} warmup={warmup}s window={window}s \
         traced={} fsync=true group_commit=true",
        setup::host_cpus(),
        setup::clients(),
        setup::host_cpus(),
        args.seed,
        args.traced,
    );

    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let mut spans_jsonl = String::new();
    let results: Vec<WorkloadResult> = args
        .workloads
        .iter()
        .map(|&w| {
            eprintln!("benchmark: {} ...", w.name());
            let result = if args.traced {
                trace::run_traced(w, &plan, &mut spans_jsonl)
            } else {
                workloads::run_end_to_end(w, &plan)
            };
            result.print_lines();
            println!("{}", result.contract_line());
            result
        })
        .collect();

    let name = if args.traced {
        "layers.json"
    } else {
        "result.json"
    };
    let path = args.out.join(name);
    std::fs::write(&path, report::result_json(&info, &results)).expect("write the result file");
    eprintln!("benchmark: wrote {}", path.display());
    if args.traced {
        let path = args.out.join("spans.jsonl");
        std::fs::write(&path, spans_jsonl).expect("write spans.jsonl");
        eprintln!("benchmark: wrote {}", path.display());
    }
    // A wrong answer or a failed operation fails the run — after the
    // result line, so the driver still reads `correct: false`.
    if results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

//! `tsg-perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]`
//!
//! Runs one workload (or all three with `--workload all`), prints its
//! metrics, and ends with one JSON line: `correct`, `attempted`, `failed`
//! and `metrics` — the end-to-end metrics untraced, the per-layer metrics
//! traced. The result file (with the host block) and, for traced runs, the
//! Chrome trace go to `--out` (default `.bench_build/perfbench`).

use std::path::PathBuf;
use std::process::ExitCode;

use tsg_perfbench::host::{nproc, Host};
use tsg_perfbench::library::{self, Outcome};
use tsg_perfbench::report::{Metric, RunResult};
use tsg_perfbench::serve::{self, CLIENTS, WORKERS};
use tsg_perfbench::trace::Tracer;
use tsg_perfbench::workload::{pin_malloc_thresholds, RunConfig, Workload};

const USAGE: &str = "usage: tsg-perfbench --workload <powerlaw-a2|fem-a2|serve-mixed|all> \
                     --seed <n> --seconds <s> --trace <0|1> [--out <dir>]";

struct Args {
    workloads: Vec<Workload>,
    all: bool,
    cfg: RunConfig,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out = PathBuf::from(".bench_build/perfbench");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| "bad --seconds")?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let (workloads, all) = if workload == "all" {
        (Workload::ALL.to_vec(), true)
    } else {
        let w =
            Workload::by_name(&workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
        (vec![w], false)
    };
    Ok(Args {
        workloads,
        all,
        cfg: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            out,
        },
    })
}

/// Runs one workload, prints its metrics (and table), and writes its
/// result file and trace.
fn run_one(w: Workload, cfg: &RunConfig) -> Result<RunResult, String> {
    let tracer = if cfg.trace {
        Tracer::enabled()
    } else {
        Tracer::disabled()
    };
    let Outcome {
        correct,
        attempted,
        failed,
        metrics,
        table,
    } = match w {
        Workload::ServeMixed => serve::run(cfg, &tracer)?,
        _ => library::run(w, cfg, &tracer)?,
    };
    let (workers, clients) = match w {
        Workload::ServeMixed => (WORKERS, CLIENTS),
        // The library loop runs no engine; its traced run adds a served row.
        _ => (if cfg.trace { WORKERS } else { 0 }, 1),
    };
    let result = RunResult {
        workload: w.name().to_string(),
        trace: cfg.trace,
        correct,
        attempted,
        failed,
        metrics,
        host: Host::detect(cfg.seed, workers, clients, nproc()),
    };
    let bad = result.non_finite();
    if !bad.is_empty() {
        return Err(format!("non-finite metrics: {}", bad.join(", ")));
    }
    let kind = if cfg.trace { "traced" } else { "untraced" };
    println!("== {} ({kind}, seed {}) ==", w.name(), cfg.seed);
    println!("{}", result.host.summary());
    for m in &result.metrics {
        println!("  {:<30} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  ops attempted {attempted}, failed {failed}, outputs {}",
        if correct { "verified" } else { "MISMATCHED" }
    );
    if let Some(table) = &table {
        print!("{}", table.render());
    }
    let out = &cfg.out;
    let stem = format!("{}-s{}-{kind}", w.name(), cfg.seed);
    let path = out.join(format!("result-{stem}.json"));
    result
        .write(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    if cfg.trace {
        let path = out.join(format!("trace-{stem}.json"));
        std::fs::write(&path, tracer.chrome_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("  spans: {} -> {}", tracer.spans().len(), path.display());
    }
    Ok(result)
}

fn main() -> ExitCode {
    pin_malloc_thresholds();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("tsg-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.cfg.out) {
        eprintln!("tsg-perfbench: creating {}: {e}", args.cfg.out.display());
        return ExitCode::from(1);
    }
    let mut results = Vec::new();
    for &w in &args.workloads {
        // `all` runs each workload untraced and then traced.
        let passes: &[bool] = if args.all {
            &[false, true]
        } else {
            &[args.cfg.trace]
        };
        for &trace in passes {
            let cfg = RunConfig {
                trace,
                ..args.cfg.clone()
            };
            match run_one(w, &cfg) {
                Ok(r) => results.push(r),
                Err(e) => {
                    eprintln!("tsg-perfbench: {}: {e}", w.name());
                    return ExitCode::from(1);
                }
            }
        }
    }
    let summary = if args.all {
        let mut metrics = Vec::new();
        for r in &results {
            for m in &r.metrics {
                metrics.push(Metric::new(
                    &format!("{}.{}", r.workload, m.name),
                    &m.unit,
                    m.value,
                ));
            }
        }
        RunResult {
            workload: "all".to_string(),
            trace: true,
            correct: results.iter().all(|r| r.correct),
            attempted: results.iter().map(|r| r.attempted).sum(),
            failed: results.iter().map(|r| r.failed).sum(),
            metrics,
            host: results[0].host.clone(),
        }
    } else {
        results.pop().expect("one result")
    };
    println!("{}", summary.summary_line());
    if summary.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

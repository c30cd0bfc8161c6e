//! `ctlbench`: the control plane's benchmark.
//!
//! ```text
//! ctlbench --workload <storm|capped|churn|wave> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's fleet and events from the seed, drives
//! `ControlPlane` through its public API as one closed-loop caller,
//! checks the outputs, and prints one JSON object as the last line of
//! standard output: `correct`, `attempted` and `failed` events, and the
//! metrics with their units — the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. A traced run also writes its
//! spans to `.bench_trace/<workload>-<seed>.json`.
//!
//! Two further options serve the self-test: `--mini` runs a miniature
//! of the workload, and `--threads <n>` overrides its thread count.

mod fleet;
mod probes;
mod procfs;
mod run;
mod trace;

use std::process::ExitCode;
use vda_core::jsonio::{self, Json};

struct Args {
    workload: fleet::Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    threads: Option<usize>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut threads = None;
    let mut mini = false;
    while let Some(flag) = args.next() {
        if flag == "--mini" {
            mini = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    fleet::Workload::by_name(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            "--threads" => threads = Some((number()? as usize).max(1)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: if mini { workload.mini() } else { workload },
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        threads,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ctlbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The vendored rayon reads its thread count on every parallel call;
    // pin it before the first one so each workload runs at its own.
    let threads = args.threads.unwrap_or(args.workload.threads);
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    note(&format!("{} worker thread(s)", threads));

    let outcome = match run::run(&args.workload, args.seed, args.seconds, args.trace) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ctlbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(trace) = &outcome.trace {
        let path = format!(".bench_trace/{}-{}.json", args.workload.name, args.seed);
        if let Err(e) =
            std::fs::create_dir_all(".bench_trace").and_then(|()| std::fs::write(&path, trace))
        {
            eprintln!("ctlbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        note(&format!("spans written to {path}"));
    }
    for line in &outcome.notes {
        note(line);
    }
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, unit)| {
            println!("{name:<36} {} {unit}", jsonio::fmt_f64(value));
            (
                name.to_string(),
                Json::Obj(vec![
                    ("value".into(), Json::Num(value)),
                    ("unit".into(), Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    println!("{}", jsonio::write(&result));
    ExitCode::SUCCESS
}

fn note(line: &str) {
    println!("# {line}");
}

//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <q6-scan|star-join|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --self-test
//! ```
//!
//! Builds the workload's inputs from the seed, runs it for the given
//! host seconds, checks every query result against the benchmark's own
//! oracle, and prints one JSON line last on stdout:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones; with
//! `--trace 1` a separate traced run prints the per-layer ones. Progress
//! notes go to stderr. See README.md for what each number means.

mod calib;
mod engine;
mod gen;
mod host;
mod query;
mod serial;
mod serve;
mod spans;

use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["q6-scan", "star-join", "serve-mix"];

/// One run's settings.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Host seconds to keep measuring (at least one round always runs).
    pub seconds: f64,
    pub trace: bool,
    /// Small tables, for the self-test.
    pub small: bool,
    /// Corrupt one expected result, for the self-test.
    pub corrupt: bool,
}

/// What a run prints as its last line.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

fn run(ctx: &Ctx) -> Report {
    match ctx.workload.as_str() {
        "q6-scan" => serial::q6(ctx),
        "star-join" => serial::star(ctx),
        _ => serve::serve_mix(ctx),
    }
}

fn parse(args: &[String]) -> Result<Ctx, String> {
    let mut ctx = Ctx {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        small: false,
        corrupt: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => ctx.workload = value()?.clone(),
            "--seed" => ctx.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                ctx.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(ctx.seconds >= 0.0 && ctx.seconds <= 600.0) {
                    return Err("--seconds must be in 0..=600".into());
                }
            }
            "--trace" => {
                ctx.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&ctx.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(ctx)
}

/// Show that the oracle check can fail: every workload, on small tables,
/// must report a corrupted expected result as a failed query, and the
/// same run without the corruption must pass.
fn self_test() -> ExitCode {
    let mut ok = true;
    for w in WORKLOADS {
        for corrupt in [false, true] {
            let ctx = Ctx {
                workload: w.to_string(),
                seed: 7,
                seconds: 0.0,
                trace: false,
                small: true,
                corrupt,
            };
            let r = run(&ctx);
            let pass = if corrupt {
                !r.correct && r.failed >= 1
            } else {
                r.correct && r.failed == 0
            };
            ok &= pass;
            println!(
                "self-test {w:<10} corrupted={corrupt:<5} correct={} failed={}/{}: {}",
                r.correct,
                r.failed,
                r.attempted,
                if pass { "ok" } else { "WRONG" }
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--self-test") {
        return self_test();
    }
    let ctx = match parse(&args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = run(&ctx);
    // A metric a failed query left undefined is reported as 0 in a run
    // marked incorrect, so the output stays valid JSON.
    for (name, value, _) in &mut report.metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is undefined after a failure");
            *value = 0.0;
            report.correct = false;
        }
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

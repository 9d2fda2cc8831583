//! Scheduler-query benchmark of the PREDIcT prediction service.
//!
//! ```text
//! predict_perfbench --workload <cold_predict|warm_restart|socket_evaluate>
//!     --seed <n> --seconds <s> --trace <0|1>
//!     [--heldout-seed <n>] [--scale small|default] [--tamper-reference]
//! ```
//!
//! Prints progress and, with `--trace 1`, the per-layer table, then as its
//! last line one JSON object: `correct`, `attempted`, `failed` and the
//! metrics, each with its unit. See `README.md` beside this crate.

mod bench;
mod layers;
mod mix;
mod traced;

use bench::{Options, Workload};
use predict_graph::datasets::DatasetScale;
use std::process::ExitCode;

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut heldout = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = DatasetScale::Default;
    let mut tamper = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = Some(parse_num::<u64>(flag, value()?)?),
            "--heldout-seed" => heldout = Some(parse_num::<u64>(flag, value()?)?),
            "--seconds" => seconds = Some(parse_num::<f64>(flag, value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--scale" => {
                scale = match value()?.as_str() {
                    "small" => DatasetScale::Small,
                    "default" => DatasetScale::Default,
                    other => return Err(format!("--scale takes small or default, not `{other}`")),
                }
            }
            "--tamper-reference" => tamper = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let seed = match heldout {
        Some(h) => mix::MixSeed::new(h, true),
        None => mix::MixSeed::new(seed, false),
    };
    Ok(Options {
        workload,
        scale,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        tamper,
        work_dir: std::path::PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

/// Drops every `PREDICT_*` knob but the worker-binary path: the benchmark
/// sets transport, store and engine explicitly, and an inherited knob
/// (a store directory, a trace file) would change what is measured.
fn clear_knobs() {
    for (key, _) in std::env::vars_os() {
        if let Some(k) = key.to_str() {
            if k.starts_with("PREDICT_") && k != "PREDICT_CLUSTER_WORKER" {
                std::env::remove_var(k);
            }
        }
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    clear_knobs();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = bench::run(&opts);
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    // Removes `.bench_work` itself unless another run still uses it.
    if let Some(parent) = opts.work_dir.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for line in &report.table {
        println!("{line}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

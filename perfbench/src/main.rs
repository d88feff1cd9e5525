//! `perfbench` — the repository benchmark: the `esd-serve` engine driven
//! end to end through its public `EngineHandle` API, the way `esd serve`
//! users reach it.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <read_only|churn_families|durable_churn> \
//!     --seed <n> --seconds <n> --trace <0|1> [--short]
//! ```
//!
//! Every client is closed-loop (it waits for each reply before sending the
//! next request) and the load comes from at most two client threads. The
//! workloads, their rationale, and the metric names are declared in
//! `BENCHMARK.json` at the repository root; `--trace 0` prints the
//! end-to-end metrics, `--trace 1` re-runs the same seeded op stream and
//! prints the per-layer metrics, timed from outside around each layer's
//! public calls. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`; the run exits non-zero
//! when any correctness check fails. `--short` shrinks the
//! fixed-count parts for the benchmark's own tests. `--helper` is
//! internal: a run re-executes itself with it to measure engine starts
//! and restarts in a process of their own.

mod report;
mod stats;
mod trace;
mod verify;
mod workload;

use esd_telemetry::json::Json;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    short: bool,
    /// Internal: serve engine starts to the run that spawned this
    /// process (see `workload::helper`).
    helper: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        short: false,
        helper: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--short" => args.short = true,
            "--helper" => args.helper = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Build and machine facts that decide whether the numbers mean anything.
fn stamp() -> String {
    let commit = std::path::Path::new(".git")
        .exists()
        .then(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "--short=12", "HEAD"])
                .stderr(std::process::Stdio::null())
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        })
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    format!(
        "build: profile={} telemetry={} nproc={} commit={commit}",
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        if esd_telemetry::enabled() {
            "on"
        } else {
            "off"
        },
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Contaminated numbers are refused rather than printed: debug builds
    // are orders of magnitude slower, and armed telemetry adds a span to
    // every layer.
    if cfg!(debug_assertions) {
        eprintln!("error: refusing to measure a debug build; run with --release");
        return ExitCode::from(2);
    }
    if esd_telemetry::enabled() && !args.trace {
        eprintln!("error: refusing an untraced run with esd-telemetry armed");
        return ExitCode::from(2);
    }
    let Some(spec) = workload::find(&args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let opts = workload::Options::new(args.seed, args.seconds, args.trace, args.short);
    if args.helper {
        return match workload::helper(spec, opts) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("{}", stamp());
    let outcome = match workload::run(spec, opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            println!("verified: false");
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        if m.note.is_empty() {
            println!("{} {} {}", m.name, m.value, m.unit);
        } else {
            println!("{} {} {} ({})", m.name, m.value, m.unit, m.note);
        }
    }
    println!(
        "failed_frac {} ({} of {} operations)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for p in &outcome.problems {
        println!("check failed: {p}");
    }
    println!("verified: {}", outcome.verified);
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                Json::obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    let line = Json::obj(vec![
        ("correct", Json::Bool(outcome.verified)),
        ("attempted", Json::num_u64(outcome.attempted.max(1))),
        ("failed", Json::num_u64(outcome.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{}", line.render_compact());
    if outcome.verified {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

//! The benchmark's own tests: a short run of every workload declared in
//! `BENCHMARK.json`, untraced and traced, must print exactly the declared
//! metric names with their units, verify its answers, and see no failed
//! operation on a fault-free engine.
//!
//! ```text
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use esd_telemetry::json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn entries(json: &Json, key: &str) -> Vec<Json> {
    json.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .clone()
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry without {key}"))
}

fn run(workload: &str, trace: bool) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--short"])
        .current_dir(repo_root())
        .output()
        .expect("spawn perfbench")
}

#[test]
fn short_runs_print_the_declared_metrics_verified_and_fault_free() {
    if cfg!(debug_assertions) {
        // A debug build must refuse to measure at all.
        let out = run("durable_churn", false);
        assert!(!out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("refusing"));
        return;
    }
    let bench = benchmark_json();
    for workload in entries(&bench, "workloads") {
        let name = field(&workload, "name");
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let out = run(name, trace);
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{name} trace={trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(stdout.contains("\nverified: true\n"), "{name}: {stdout}");
            assert!(stdout.contains("\nfailed_frac 0 ("), "{name}: {stdout}");
            let last = Json::parse(stdout.trim_end().lines().last().expect("output"))
                .expect("last line is JSON");
            assert_eq!(last.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(last.get("failed").and_then(Json::as_u64), Some(0));
            assert!(last.get("attempted").and_then(Json::as_u64) >= Some(1));
            let printed: Vec<(String, String)> = last
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(Json::as_f64).is_some(),
                        "{k} has no value"
                    );
                    (
                        k.clone(),
                        v.get("unit")
                            .and_then(Json::as_str)
                            .unwrap_or("")
                            .to_string(),
                    )
                })
                .collect();
            let declared: Vec<(String, String)> = entries(&bench, section)
                .iter()
                .map(|m| (field(m, "name").to_string(), field(m, "unit").to_string()))
                .collect();
            assert_eq!(printed, declared, "{name} trace={trace}");
            for (metric, unit) in &declared {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("{metric} "))
                            && l.contains(&format!(" {unit}"))),
                    "{name}: no human-readable line for {metric} [{unit}]"
                );
            }
        }
    }
}

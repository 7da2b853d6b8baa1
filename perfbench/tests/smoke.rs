//! Smoke test of the benchmark command at tiny sizes (n = 2/3): every
//! metric `BENCHMARK.json` names is emitted with its unit, every job
//! passes the verdict gate, and inherited configuration is refused.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

const WORKLOADS: [&str; 3] = ["witness-suite", "registers-check", "atomic-quotient"];

fn perfbench(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args)
        .env_remove("SYMMETRY")
        .env_remove("IOA_EXPLORE_THREADS")
        .env_remove("IOA_EXPLORE_FRONTIER");
    cmd
}

fn tiny(workload: &str, trace: &str) -> Output {
    perfbench(&[
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--scale",
        "tiny",
    ])
    .output()
    .expect("the benchmark binary runs")
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
/// A deliberately small reader for the file's fixed shape: the section
/// is a list of flat objects with string-valued `name` and `unit`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits next to the benchmark directory");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has a {section} section"));
    let body = &text[start..];
    let body = &body[body.find('[').expect("the section is a list")..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj
            .find(&format!("\"{key}\""))
            .expect("every metric has the key")
            + key.len()
            + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("string value") + 1;
        let len = rest[open..].find('"').expect("closed string");
        rest[open..open + len].to_string()
    };
    body.split('}')
        .filter(|obj| obj.contains("\"name\""))
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn result_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("the benchmark prints a result line")
        .to_string()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section);
        assert!(!metrics.is_empty(), "{section} declares metrics");
        for workload in WORKLOADS {
            let out = tiny(workload, trace);
            let line = result_line(&out);
            assert!(out.status.success(), "{workload} --trace {trace}: {line}");
            assert!(line.starts_with("{\"correct\":true,"), "{workload}: {line}");
            assert!(line.contains("\"failed\":0,"), "{workload}: {line}");
            for (name, unit) in &metrics {
                let key = format!("\"{name}\":{{\"value\":");
                let at = line
                    .find(&key)
                    .unwrap_or_else(|| panic!("{workload} --trace {trace} lacks {name}: {line}"));
                let rest = &line[at + key.len()..];
                let value = &rest[..rest.find(',').expect("value then unit")];
                assert!(value.parse::<f64>().is_ok(), "{name} = {value} is a number");
                assert!(
                    rest.starts_with(&format!("{value},\"unit\":\"{unit}\"}}")),
                    "{name} has unit {unit}: {line}"
                );
            }
        }
    }
}

#[test]
fn the_traced_replay_covers_the_job_time() {
    for workload in WORKLOADS {
        let line = result_line(&tiny(workload, "1"));
        let key = "\"trace.coverage\":{\"value\":";
        let rest = &line[line.find(key).expect("coverage is emitted") + key.len()..];
        let coverage: f64 = rest[..rest.find(',').expect("value then unit")]
            .parse()
            .expect("coverage is a number");
        assert!(coverage > 0.9, "{workload}: coverage {coverage}");
    }
}

#[test]
fn inherited_configuration_and_bad_arguments_are_refused() {
    for var in ["SYMMETRY", "IOA_EXPLORE_THREADS", "IOA_EXPLORE_FRONTIER"] {
        let out = perfbench(&[
            "--workload",
            "registers-check",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .env(var, "1")
        .output()
        .expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{var} must be refused");
        assert!(out.stdout.is_empty(), "no result under {var}");
    }
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "registers-check",
            "--seed",
            "1",
            "--seconds",
            "1",
        ][..],
        &[
            "--workload",
            "registers-check",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
    ] {
        let out = perfbench(args).output().expect("the benchmark binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?} must be refused");
        assert!(out.stdout.is_empty(), "no result for {args:?}");
    }
}

//! The Giallar workspace benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <reverify|certify-roundtrip|serve-mixed> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Runs one workload in a closed loop for `--seconds` (finishing the round
//! in flight), checks every op against its known answer, and prints one
//! JSON object as the last line of standard output: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`.  The line
//! before it records the run's context.  `--wrong-answer` perturbs every
//! expected answer, so a working oracle reports `failed` equal to
//! `attempted`.  See `perfbench/README.md` for the metrics.

mod certify;
mod common;
mod reverify;
mod serve;
mod trace;

use std::process::ExitCode;

use giallar_core::json::Value;

use common::{mean, median, percentile, Outcome, RunConfig};

pub const WORKLOADS: [&str; 3] = ["reverify", "certify-roundtrip", "serve-mixed"];

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.  A
/// traced run prints all of them; a layer its workload never calls reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("verifier.verify_ms", "ms"),
    ("verifier.obligations_ms", "ms"),
    ("verifier.fingerprint_ms", "ms"),
    ("verifier.unattributed_ms", "ms"),
    ("cache.invalidate_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.save_ms", "ms"),
    ("cache.load_ms", "ms"),
    ("batch.plan_ms", "ms"),
    ("batch.groups", "count"),
    ("batch.units", "count"),
    ("backend.prewarm_ms", "ms"),
    ("backend.equiv_ms", "ms"),
    ("backend.arith_ms", "ms"),
    ("backend.trivial_ms", "ms"),
    ("backend.discharges", "count"),
    ("passes.baseline_ms", "ms"),
    ("wrapper.transpile_ms", "ms"),
    ("wrapper.overhead_ratio", "ratio"),
    ("symbolic.from_circuit_ms", "ms"),
    ("certificate.emit_ms", "ms"),
    ("certificate.schedule_verify_ms", "ms"),
    ("certificate.evidence_ms", "ms"),
    ("certificate.replay_ms", "ms"),
    ("certificate.decode_ms", "ms"),
    ("certificate.check_ms", "ms"),
    ("certificate.refused", "count"),
    ("json.emit_ms", "ms"),
    ("json.parse_ms", "ms"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.cert_kb", "KB"),
    ("output.2q_gates_mean", "count"),
    ("serve.rtt_ms.verify_all", "ms"),
    ("serve.rtt_ms.verify_pass", "ms"),
    ("serve.rtt_ms.edit", "ms"),
    ("serve.rtt_ms.certify_warm", "ms"),
    ("serve.rtt_ms.certify_cold", "ms"),
    ("serve.engine_ms.verify_all", "ms"),
    ("serve.engine_ms.verify_pass", "ms"),
    ("serve.engine_ms.edit", "ms"),
    ("serve.engine_ms.certify_warm", "ms"),
    ("serve.engine_ms.certify_cold", "ms"),
    ("serve.wire_ms.verify_all", "ms"),
    ("serve.wire_ms.verify_pass", "ms"),
    ("serve.wire_ms.edit", "ms"),
    ("serve.wire_ms.certify_warm", "ms"),
    ("serve.wire_ms.certify_cold", "ms"),
    ("serve.verify_batch_mean", "count"),
    ("serve.shard_hit_ratio", "ratio"),
    ("serve.invalidated", "count"),
    ("serve.certify_cached_ratio", "ratio"),
    ("setup.first_s", "s"),
    ("trace.overhead_p50_ms", "ms"),
    ("trace.overhead_p90_ms", "ms"),
    ("trace.spans", "count"),
];

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut wrong_answer = false;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        if flag == "--wrong-answer" {
            wrong_answer = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}` (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload,
        config: RunConfig {
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.ok_or("missing --trace")?,
            wrong_answer,
        },
    })
}

fn run_workload(name: &str, config: &RunConfig) -> Outcome {
    match name {
        "reverify" => reverify::run(config),
        "certify-roundtrip" => certify::run(config),
        "serve-mixed" => serve::run(config),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object(vec![("value", Value::Float(value)), ("unit", Value::String(unit.to_string()))])
}

/// The end-to-end metrics.  Where rounds repeat the same inputs, the
/// figures come from each input's fastest run; otherwise from the whole
/// measured phase.
fn end_to_end(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let figures = common::fastest_per_input(&outcome.ops, &outcome.marks)
        .unwrap_or_else(|| common::whole_run(&outcome.ops, &outcome.marks));
    let values = [
        figures.ops_per_s,
        figures.p50_ms,
        figures.p90_ms,
        figures.cpu_ms_per_op,
        common::peak_rss_mb(),
        median(&outcome.setup_s),
    ];
    END_TO_END.iter().zip(values).map(|(&(name, unit), value)| (name, value, unit)).collect()
}

fn metric_object(metrics: Vec<(&'static str, f64, &'static str)>) -> Value {
    Value::Object(
        metrics
            .into_iter()
            .map(|(name, value, unit)| (name.to_string(), metric(value, unit)))
            .collect(),
    )
}

/// Every per-layer metric of a traced run, in `PER_LAYER` order: the
/// workload's own layers, the tracing overhead (traced rounds minus
/// untraced rounds of the same run), and the output quality.
fn per_layer(outcome: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let mut layers = outcome.layers.clone();
    let (traced, untraced): (Vec<_>, Vec<_>) = outcome.ops.iter().partition(|op| op.traced);
    let latency = |ops: &[&common::OpSample], pct| {
        percentile(&ops.iter().map(|op| op.latency_ms).collect::<Vec<_>>(), pct)
    };
    for (name, pct) in [("trace.overhead_p50_ms", 50.0), ("trace.overhead_p90_ms", 90.0)] {
        layers.push((name.into(), latency(&traced, pct) - latency(&untraced, pct), "ms"));
    }
    layers.push(("trace.spans".into(), outcome.spans.len() as f64, "count"));
    layers.push(("setup.first_s".into(), outcome.setup_s.first().copied().unwrap_or(0.0), "s"));
    layers.push(("output.2q_gates_mean".into(), mean(&outcome.output_2q), "count"));
    for (name, _, _) in &layers {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "{name} is not a listed per-layer metric"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let mut produced = layers.iter().filter(|(n, _, _)| n == name);
            let value = produced.next().map_or(0.0, |(_, value, produced_unit)| {
                assert_eq!(*produced_unit, unit, "{name} unit");
                *value
            });
            assert!(produced.next().is_none(), "{name} produced twice");
            (name, value, unit)
        })
        .collect()
}

fn named_list(names: &[String]) -> Value {
    Value::Array(names.iter().map(|n| Value::String(n.clone())).collect())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Args { workload, config } = match parse_args(&args) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("perfbench: {error}");
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&workload, &config);

    let attempted = outcome.ops.len();
    let failed = outcome.ops.iter().filter(|op| !op.ok).count();
    let measured_s = outcome.marks.last().map_or(0.0, |m| m.at_s);
    let mut correct = attempted > 0 && failed == 0;
    let mut trace_note = Value::Null;
    let metrics = if config.trace {
        let well_formed = trace::check_well_formed(&outcome.spans);
        correct &= well_formed.is_ok();
        trace_note = match &well_formed {
            Ok(()) => Value::String(write_trace(&workload, &config, &outcome)),
            Err(error) => Value::String(format!("malformed span tree: {error}")),
        };
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };

    let context = Value::object(vec![
        ("workload", Value::String(workload.clone())),
        ("seed", Value::Int(config.seed as i64)),
        ("seconds", Value::Float(config.seconds)),
        ("trace", Value::Bool(config.trace)),
        ("wrong_answer", Value::Bool(config.wrong_answer)),
        ("nproc", Value::Int(std::thread::available_parallelism().map_or(1, |n| n.get()) as i64)),
        ("rayon_threads", Value::Int(rayon::current_num_threads() as i64)),
        ("client_connections", Value::Int(outcome.clients as i64)),
        (
            "build_profile",
            Value::String(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("git_revision", Value::String(common::git_revision())),
        ("backend", Value::String("default".into())),
        ("device", Value::String(certify::DEVICE.into())),
        ("pool", named_list(&outcome.pool)),
        (
            "excluded",
            Value::Array(
                outcome
                    .excluded
                    .iter()
                    .map(|(name, why)| {
                        Value::object(vec![
                            ("circuit", Value::String(name.clone())),
                            ("why", Value::String(why.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("measured_s", Value::Float(measured_s)),
        ("failed_ratio", Value::Float(failed as f64 / attempted.max(1) as f64)),
        (
            "output_2q_gates_mean",
            if outcome.output_2q.is_empty() {
                Value::Null
            } else {
                Value::Float(mean(&outcome.output_2q))
            },
        ),
        ("trace_file", trace_note),
    ]);
    println!("{}", Value::object(vec![("context", context)]).to_compact());
    let result = Value::Object(vec![
        ("correct".to_string(), Value::Bool(correct)),
        ("attempted".to_string(), Value::Int(attempted as i64)),
        ("failed".to_string(), Value::Int(failed as i64)),
        ("metrics".to_string(), metric_object(metrics)),
    ]);
    println!("{}", result.to_compact());
    ExitCode::SUCCESS
}

/// Writes the span list under `perfbench/out/` and returns its path.
fn write_trace(workload: &str, config: &RunConfig, outcome: &Outcome) -> String {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{workload}-seed{}.jsonl", config.seed));
    let header = Value::object(vec![
        ("workload", Value::String(workload.to_string())),
        ("seed", Value::Int(config.seed as i64)),
        (
            "fields",
            named_list(&["op", "parent", "name", "start_ns", "end_ns", "shadow"].map(String::from)),
        ),
    ]);
    let text = trace::render(&header.to_compact(), &outcome.spans);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, text)) {
        Ok(()) => path.display().to_string(),
        Err(error) => format!("not written: {error}"),
    }
}

// These run every workload for one round each; run them with `--release`.
#[cfg(test)]
mod tests {
    use super::*;

    fn one_round(trace: bool, wrong_answer: bool) -> RunConfig {
        RunConfig { seed: 3, seconds: 1e-3, trace, wrong_answer }
    }

    #[test]
    fn every_workload_meets_its_oracle_and_traces_a_well_formed_tree() {
        for workload in WORKLOADS {
            let outcome = run_workload(workload, &one_round(true, false));
            assert!(!outcome.ops.is_empty(), "{workload}");
            assert!(outcome.ops.iter().all(|op| op.ok), "{workload} failed an op");
            trace::check_well_formed(&outcome.spans).unwrap();
            assert_eq!(per_layer(&outcome).len(), PER_LAYER.len());
        }
    }

    #[test]
    fn a_wrong_expected_answer_raises_the_failed_ratio() {
        for workload in WORKLOADS {
            let outcome = run_workload(workload, &one_round(false, true));
            let failed = outcome.ops.iter().filter(|op| !op.ok).count();
            assert!(failed > 0, "{workload}: the oracle accepted a wrong answer");
            assert_eq!(failed, outcome.ops.len(), "{workload}");
        }
    }

    #[test]
    fn benchmark_json_lists_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = giallar_core::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap()
                .iter()
                .map(|entry| entry.get(field).and_then(Value::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        assert_eq!(names("end_to_end", "name"), END_TO_END.map(|(n, _)| n));
        assert_eq!(names("end_to_end", "unit"), END_TO_END.map(|(_, u)| u));
        assert_eq!(names("per_layer", "name"), PER_LAYER.map(|(n, _)| n));
        assert_eq!(names("per_layer", "unit"), PER_LAYER.map(|(_, u)| u));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |line: &str| line.split(' ').map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload reverify --seed 1 --seconds 2 --trace 0")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 1 --seconds 2 --trace 0")).is_err());
        assert!(parse_args(&args("--workload reverify --seed 1 --seconds 2 --trace 2")).is_err());
        assert!(parse_args(&args("--workload reverify --seed 1 --trace 0")).is_err());
    }
}

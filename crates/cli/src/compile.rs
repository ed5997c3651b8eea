//! `giallar compile` — run the transpiler on a circuit and report
//! compilation stats; with `--verified`, run the wrapped (Giallar) pipeline
//! alongside the baseline, report the verification overhead inline, and
//! verify the scheduled passes through the solver-backend registry (once
//! per process: `--certify` reuses those reports).
//! With `--certify <path>`, additionally emit a machine-checkable
//! equivalence certificate that `giallar check-cert` re-validates.

use std::path::Path;
use std::time::Instant;

use giallar_core::certificate::{certify_compilation, verify_pipeline_passes};
use giallar_core::json::Value;
use giallar_core::wrapper::{baseline_transpile, giallar_pipeline_pass_names, giallar_transpile};
use qc_ir::Circuit;

use crate::flags::{list_circuits, parse_device, CompileFlags, OutputFormat};
use crate::{CmdError, CmdResult};

/// Loads the input circuit: a `.qasm` file path, or a named QASMBench
/// circuit from the built-in suite.
fn load_circuit(input: &str) -> Result<(String, Circuit), CmdError> {
    let path = Path::new(input);
    if input.ends_with(".qasm") || path.is_file() {
        let source = std::fs::read_to_string(path)
            .map_err(|error| CmdError::Failed(format!("reading {input}: {error}")))?;
        let circuit = qc_ir::qasm::from_qasm(&source)
            .map_err(|error| CmdError::Failed(format!("parsing {input}: {error}")))?;
        let name = path
            .file_stem()
            .map_or_else(|| input.to_string(), |s| s.to_string_lossy().into_owned());
        return Ok((name, circuit));
    }
    qasmbench::benchmark(input).map(|bench| (bench.name, bench.circuit)).ok_or_else(|| {
        CmdError::Usage(format!(
            "compile: `{input}` is neither a QASM file nor a known circuit \
             (try `giallar compile --list`)"
        ))
    })
}

/// The Figure 11 measurement for one circuit: both pipelines, inline.
struct VerifiedRun {
    giallar_seconds: f64,
    /// Relative overhead of the verified pipeline (0.08 = +8 %).
    overhead: f64,
    /// Pipeline passes verified through the backend registry.
    passes_verified: usize,
    /// Subgoals discharged across those passes.
    subgoals: usize,
    verify_seconds: f64,
}

/// Runs `giallar compile`.
pub fn run(args: &[String]) -> CmdResult {
    let flags = CompileFlags::parse("compile", args)?;
    if flags.list {
        list_circuits();
        return Ok(());
    }
    let CompileFlags {
        input,
        device_spec,
        seed,
        format,
        verified: verified_mode,
        backend,
        certify,
        ..
    } = flags;
    let input =
        input.ok_or_else(|| CmdError::Usage("compile: missing input circuit".to_string()))?;
    let (name, circuit) = load_circuit(&input)?;
    let device = parse_device(&device_spec)?;
    if circuit.num_qubits() > device.num_qubits() {
        return Err(CmdError::Failed(format!(
            "{name} needs {} qubits but device `{device_spec}` has {}",
            circuit.num_qubits(),
            device.num_qubits()
        )));
    }

    let start = Instant::now();
    let result = baseline_transpile(&circuit, &device, seed)
        .map_err(|error| CmdError::Failed(format!("compiling {name}: {error}")))?;
    let seconds = start.elapsed().as_secs_f64();
    let swap_mapped = result.properties.get_bool("is_swap_mapped");

    let pipeline: Vec<String> =
        giallar_pipeline_pass_names(&device, seed).into_iter().map(str::to_string).collect();
    let verified_run = if verified_mode {
        let start = Instant::now();
        let wrapped = giallar_transpile(&circuit, &device, seed)
            .map_err(|error| CmdError::Failed(format!("verified-compiling {name}: {error}")))?;
        let giallar_seconds = start.elapsed().as_secs_f64();
        if wrapped.circuit != result.circuit {
            return Err(CmdError::Failed(format!(
                "verified pipeline diverged from the baseline on {name}: \
                 {} vs {} gates — the wrapper conversions are not transparent",
                wrapped.circuit.size(),
                result.circuit.size()
            )));
        }
        // Verify the passes this compilation actually scheduled, through
        // the selected solver-backend routing.
        let start = Instant::now();
        let reports = verify_pipeline_passes(&pipeline, backend).map_err(CmdError::Failed)?;
        let passes_verified = reports.len();
        let subgoals = reports.iter().map(|report| report.subgoals).sum();
        let verify_seconds = start.elapsed().as_secs_f64();
        let overhead = if seconds > 0.0 { giallar_seconds / seconds - 1.0 } else { 0.0 };
        Some(VerifiedRun { giallar_seconds, overhead, passes_verified, subgoals, verify_seconds })
    } else {
        None
    };

    let certificate = if let Some(path) = &certify {
        let cert =
            certify_compilation(&name, &device_spec, seed, &circuit, &result, &pipeline, backend);
        std::fs::write(path, cert.to_json().to_pretty())
            .map_err(|error| CmdError::Failed(format!("writing {path}: {error}")))?;
        Some((path.clone(), cert))
    } else {
        None
    };

    match format {
        OutputFormat::Table => {
            outln!("circuit:        {name}");
            outln!("device:         {device_spec} ({} qubits)", device.num_qubits());
            outln!("seed:           {seed}");
            outln!(
                "input:          {} qubits, {} gates, depth {}",
                circuit.num_qubits(),
                circuit.size(),
                circuit.depth()
            );
            outln!(
                "output:         {} qubits, {} gates, depth {}",
                result.circuit.num_qubits(),
                result.circuit.size(),
                result.circuit.depth()
            );
            outln!(
                "swap mapped:    {}",
                swap_mapped.map_or("unknown".to_string(), |b| b.to_string())
            );
            outln!("compile time:   {:.2} ms", seconds * 1e3);
            if let Some(run) = &verified_run {
                outln!(
                    "verified run:   {:.2} ms ({:+.1}% overhead, output identical)",
                    run.giallar_seconds * 1e3,
                    run.overhead * 100.0
                );
                outln!(
                    "verification:   {} pipeline passes, {} subgoals proved in {:.2} ms \
                     (backend {backend})",
                    run.passes_verified,
                    run.subgoals,
                    run.verify_seconds * 1e3
                );
            }
            if let Some((path, cert)) = &certificate {
                outln!(
                    "certificate:    {path} ({}, {} wires, backend {})",
                    if cert.verdict.is_proved() { "proved" } else { "NOT PROVED" },
                    cert.evidence.len(),
                    cert.backend
                );
            }
        }
        OutputFormat::Json => {
            let mut members = vec![
                ("schema", Value::String("giallar-compile/v1".to_string())),
                ("circuit", Value::String(name)),
                ("device", Value::String(device_spec)),
                ("seed", Value::Int(seed as i64)),
                (
                    "input",
                    Value::object(vec![
                        ("qubits", Value::Int(circuit.num_qubits() as i64)),
                        ("gates", Value::Int(circuit.size() as i64)),
                        ("depth", Value::Int(circuit.depth() as i64)),
                    ]),
                ),
                (
                    "output",
                    Value::object(vec![
                        ("qubits", Value::Int(result.circuit.num_qubits() as i64)),
                        ("gates", Value::Int(result.circuit.size() as i64)),
                        ("depth", Value::Int(result.circuit.depth() as i64)),
                    ]),
                ),
                ("swap_mapped", swap_mapped.map_or(Value::Null, Value::Bool)),
                ("seconds", Value::Float(seconds)),
            ];
            if let Some(run) = &verified_run {
                members.push((
                    "verified",
                    Value::object(vec![
                        ("backend", Value::String(backend.id().to_string())),
                        ("giallar_seconds", Value::Float(run.giallar_seconds)),
                        ("overhead", Value::Float(run.overhead)),
                        ("output_identical", Value::Bool(true)),
                        ("pipeline_passes", Value::Int(run.passes_verified as i64)),
                        ("subgoals", Value::Int(run.subgoals as i64)),
                        ("verify_seconds", Value::Float(run.verify_seconds)),
                    ]),
                ));
            }
            if let Some((path, cert)) = &certificate {
                members.push((
                    "certificate",
                    Value::object(vec![
                        ("path", Value::String(path.clone())),
                        ("proved", Value::Bool(cert.verdict.is_proved())),
                        ("wires", Value::Int(cert.evidence.len() as i64)),
                        ("backend", Value::String(cert.backend.clone())),
                    ]),
                ));
            }
            out!("{}", Value::object(members).to_pretty());
        }
    }
    if let Some((path, cert)) = &certificate {
        if !cert.verdict.is_proved() {
            return Err(CmdError::Failed(format!(
                "certificate written to {path} but the compilation did not certify: {:?}",
                cert.verdict
            )));
        }
    }
    Ok(())
}

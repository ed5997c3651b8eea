//! `giallar check-cert` — independently re-validate an equivalence
//! certificate emitted by `giallar compile --certify` or the daemon's
//! `certify` op.
//!
//! The checker needs nothing but the certificate file: it recomputes the
//! embedded circuits' fingerprints, matches the rule library and backend
//! routing of this binary, verifies each scheduled pass once per process,
//! replays the pipeline on the embedded input, and compares the wire map,
//! verdict, and per-wire evidence.  Exit code 1 (with the first mismatching field named)
//! on any tampering.

use giallar_core::certificate::{check_certificate, EquivalenceCertificate};
use giallar_core::json::Value;

use crate::flags::OutputFormat;
use crate::{value_of, CmdError, CmdResult};

/// Runs `giallar check-cert`.
pub fn run(args: &[String]) -> CmdResult {
    let mut input: Option<String> = None;
    let mut format = OutputFormat::Table;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => format = OutputFormat::parse(&value_of(args, &mut i, "--format")?)?,
            flag if flag.starts_with("--") => {
                return Err(CmdError::Usage(format!("check-cert: unknown option `{flag}`")))
            }
            positional => {
                if input.is_some() {
                    return Err(CmdError::Usage(
                        "check-cert: more than one certificate given".to_string(),
                    ));
                }
                input = Some(positional.to_string());
            }
        }
        i += 1;
    }
    let path =
        input.ok_or_else(|| CmdError::Usage("check-cert: missing certificate path".to_string()))?;
    let text = std::fs::read_to_string(&path)
        .map_err(|error| CmdError::Failed(format!("reading {path}: {error}")))?;
    let value = giallar_core::json::parse(&text)
        .map_err(|error| CmdError::Failed(format!("parsing {path}: {error}")))?;
    let cert = EquivalenceCertificate::from_json(&value)
        .map_err(|error| CmdError::Failed(format!("{path}: {error}")))?;
    let outcome = check_certificate(&cert);
    match format {
        OutputFormat::Table => {
            outln!("certificate:    {path}");
            outln!("circuit:        {} on {} (seed {})", cert.circuit, cert.device, cert.seed);
            outln!(
                "pipeline:       {} passes, backend {} (selection {})",
                cert.pipeline.len(),
                cert.backend,
                cert.selection
            );
            outln!("wire map:       {:?}", cert.wire_map);
            outln!(
                "evidence:       {} wires, {} agreed",
                cert.evidence.len(),
                cert.evidence.iter().filter(|e| e.agreed).count()
            );
            match &outcome {
                Ok(()) => outln!("verdict:        VALID — replay reproduces the certificate"),
                Err(reason) => outln!("verdict:        REFUSED — {reason}"),
            }
        }
        OutputFormat::Json => {
            let members = vec![
                ("schema", Value::String("giallar-check-cert/v1".to_string())),
                ("path", Value::String(path.clone())),
                ("circuit", Value::String(cert.circuit.clone())),
                ("device", Value::String(cert.device.clone())),
                ("seed", Value::Int(cert.seed as i64)),
                ("backend", Value::String(cert.backend.clone())),
                ("valid", Value::Bool(outcome.is_ok())),
                (
                    "reason",
                    outcome.as_ref().err().map_or(Value::Null, |r| Value::String(r.clone())),
                ),
            ];
            out!("{}", Value::object(members).to_pretty());
        }
    }
    outcome.map_err(|reason| CmdError::Failed(format!("{path}: certificate refused: {reason}")))
}

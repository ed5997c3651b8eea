//! `giallar client` — talk to a running `giallar serve` daemon.
//!
//! `client verify` reconstructs the served reports and renders them through
//! the same code path as `giallar verify`, so at equal cache state the two
//! commands print byte-identical output (the serve-smoke CI job `cmp`s
//! them).  `client compile` accepts the same flag grammar as `giallar
//! compile` (both parse through [`crate::flags::CompileFlags`]); with
//! `--certify <path>` it writes the daemon-emitted certificate, which is
//! byte-identical to what a local `compile --certify` of the same input
//! writes (the certify-smoke CI job `cmp`s them).

use giallar_core::backend::BackendSelection;
use giallar_core::certificate::EquivalenceCertificate;
use giallar_core::json::Value;
use giallar_core::registry::verified_passes;
use giallar_core::verifier::PassReport;
use giallar_serve::client::{Client, ClientError};
use giallar_serve::protocol::DEFAULT_ADDR;

use crate::flags::{list_circuits, parse_device, CompileFlags, OutputFormat};
use crate::verify::{render_reports, Format};
use crate::{parse_count, value_of, CmdError, CmdResult};

fn connect(spec: &str) -> Result<Client, CmdError> {
    Client::connect(spec).map_err(|error| {
        CmdError::Failed(format!(
            "client: could not connect to {spec}: {error} (is `giallar serve` running?)"
        ))
    })
}

fn command_error(error: ClientError) -> CmdError {
    match error {
        ClientError::Server(message) => CmdError::Failed(message),
        other => CmdError::Failed(format!("client: {other}")),
    }
}

struct VerifyOptions {
    passes: Vec<String>,
    backend: BackendSelection,
    format: Format,
    deterministic: bool,
    per_pass: bool,
    expect_passes: Option<usize>,
    min_cache_hits: Option<usize>,
}

fn parse_verify_options(args: &[String]) -> Result<VerifyOptions, CmdError> {
    let mut options = VerifyOptions {
        passes: Vec::new(),
        backend: BackendSelection::Default,
        format: Format::Table,
        deterministic: false,
        per_pass: false,
        expect_passes: None,
        min_cache_hits: None,
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--pass" => options.passes.push(value_of(args, &mut i, "--pass")?),
            "--backend" => options.backend = crate::flags::parse_backend(args, &mut i)?,
            "--format" => options.format = Format::parse(&value_of(args, &mut i, "--format")?)?,
            "--deterministic" => options.deterministic = true,
            "--per-pass" => options.per_pass = true,
            "--expect-passes" => {
                options.expect_passes = Some(parse_count(
                    &value_of(args, &mut i, "--expect-passes")?,
                    "--expect-passes",
                )?)
            }
            "--min-cache-hits" => {
                options.min_cache_hits = Some(parse_count(
                    &value_of(args, &mut i, "--min-cache-hits")?,
                    "--min-cache-hits",
                )?)
            }
            other => {
                return Err(CmdError::Usage(format!("client verify: unknown option `{other}`")))
            }
        }
        i += 1;
    }
    if options.per_pass && !options.passes.is_empty() {
        return Err(CmdError::Usage(
            "client verify: --per-pass replays the whole registry; drop --pass".to_string(),
        ));
    }
    Ok(options)
}

/// Pulls `hits`, `misses`, and the decoded reports out of one `verify`
/// result object.
fn decode_verify(result: &Value) -> Result<(usize, usize, Vec<PassReport>), CmdError> {
    let count = |key: &str| -> Result<usize, CmdError> {
        result
            .get(key)
            .and_then(Value::as_int)
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| CmdError::Failed(format!("client: response missing `{key}`")))
    };
    let reports = match result.get("reports") {
        Some(Value::Array(items)) => items
            .iter()
            .map(PassReport::from_json_value)
            .collect::<Result<Vec<PassReport>, String>>()
            .map_err(|error| CmdError::Failed(format!("client: {error}")))?,
        _ => return Err(CmdError::Failed("client: response missing `reports`".to_string())),
    };
    Ok((count("hits")?, count("misses")?, reports))
}

fn run_verify(client: &mut Client, args: &[String]) -> CmdResult {
    let options = parse_verify_options(args)?;
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut reports: Vec<PassReport> = Vec::new();
    if options.per_pass {
        // Replay the registry one request per pass (the serve-smoke CI job
        // uses this to exercise the warm path pass by pass).  The server
        // walks each request in registry order, so concatenating preserves
        // the order of a whole-registry run.
        for pass in verified_passes() {
            let result = client
                .verify(Some(vec![pass.name.to_string()]), options.backend)
                .map_err(command_error)?;
            let (pass_hits, pass_misses, pass_reports) = decode_verify(&result)?;
            hits += pass_hits;
            misses += pass_misses;
            reports.extend(pass_reports);
        }
    } else {
        let passes = (!options.passes.is_empty()).then(|| options.passes.clone());
        let result = client.verify(passes, options.backend).map_err(command_error)?;
        (hits, misses, reports) = decode_verify(&result)?;
    }

    out!("{}", render_reports(&reports, &options.format, options.deterministic, options.backend));

    let verified = reports.iter().filter(|r| r.verified).count();
    if let Some(first) = reports.iter().find(|r| !r.verified) {
        return Err(CmdError::Failed(format!(
            "{} of {} passes failed verification; first: {} — {}",
            reports.len() - verified,
            reports.len(),
            first.name,
            first.failure.as_deref().unwrap_or("no counterexample recorded")
        )));
    }
    if let Some(expected) = options.expect_passes {
        if reports.len() != expected {
            return Err(CmdError::Failed(format!(
                "pass-count drift: expected {expected} verified passes, got {}",
                reports.len()
            )));
        }
    }
    if let Some(floor) = options.min_cache_hits {
        if hits < floor {
            return Err(CmdError::Failed(format!(
                "cache hits below floor: {hits} < {floor} obligations (server cache colder \
                 than expected)"
            )));
        }
    }
    let _ = misses;
    Ok(())
}

/// Pulls an integer member out of a served result object.
fn int_member(value: &Value, key: &str) -> Result<i64, CmdError> {
    value
        .get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| CmdError::Failed(format!("client: response missing `{key}`")))
}

/// Decodes one `(qubits, gates, depth)` shape object from a served
/// `compile` result.
fn shape_member(value: &Value, key: &str) -> Result<(i64, i64, i64), CmdError> {
    let shape = value
        .get(key)
        .ok_or_else(|| CmdError::Failed(format!("client: response missing `{key}`")))?;
    Ok((int_member(shape, "qubits")?, int_member(shape, "gates")?, int_member(shape, "depth")?))
}

/// `client compile --certify`: certify server-side, persist the daemon's
/// certificate document byte-identically, and report the outcome.
fn run_certify(
    client: &mut Client,
    circuit: &str,
    device_spec: &str,
    seed: u64,
    backend: BackendSelection,
    path: &str,
    format: &OutputFormat,
) -> CmdResult {
    let result = client.certify(circuit, device_spec, seed, backend).map_err(command_error)?;
    let document = result
        .get("certificate")
        .ok_or_else(|| CmdError::Failed("client: response missing `certificate`".to_string()))?;
    // Write exactly what `giallar compile --certify` writes: the pretty
    // printing of the certificate document (member order survives the wire
    // round trip, so the files `cmp` equal).
    std::fs::write(path, document.to_pretty())
        .map_err(|error| CmdError::Failed(format!("writing {path}: {error}")))?;
    let cert = EquivalenceCertificate::from_json(document)
        .map_err(|error| CmdError::Failed(format!("client: malformed certificate: {error}")))?;
    let cached = result.get("cached").and_then(Value::as_bool).unwrap_or(false);
    match format {
        OutputFormat::Table => {
            outln!("circuit:        {}", cert.circuit);
            outln!("device:         {} (seed {})", cert.device, cert.seed);
            outln!(
                "certificate:    {path} ({}, {} wires, backend {})",
                if cert.verdict.is_proved() { "proved" } else { "NOT PROVED" },
                cert.evidence.len(),
                cert.backend
            );
            outln!("served verdict: {}", if cached { "cache hit" } else { "cache miss" });
        }
        OutputFormat::Json => {
            out!(
                "{}",
                Value::object(vec![
                    ("schema", Value::String("giallar-client-certify/v1".to_string())),
                    ("circuit", Value::String(cert.circuit.clone())),
                    ("device", Value::String(cert.device.clone())),
                    ("seed", Value::Int(cert.seed as i64)),
                    (
                        "certificate",
                        Value::object(vec![
                            ("path", Value::String(path.to_string())),
                            ("proved", Value::Bool(cert.verdict.is_proved())),
                            ("wires", Value::Int(cert.evidence.len() as i64)),
                            ("backend", Value::String(cert.backend.clone())),
                        ]),
                    ),
                    ("cached", Value::Bool(cached)),
                ])
                .to_pretty()
            );
        }
    }
    if !cert.verdict.is_proved() {
        return Err(CmdError::Failed(format!(
            "certificate written to {path} but the compilation did not certify: {:?}",
            cert.verdict
        )));
    }
    Ok(())
}

fn run_compile(client: &mut Client, args: &[String]) -> CmdResult {
    let flags = CompileFlags::parse("client compile", args)?;
    if flags.list {
        list_circuits();
        return Ok(());
    }
    let CompileFlags { input, device_spec, seed, format, verified, backend, certify, .. } = flags;
    if verified {
        return Err(CmdError::Usage(
            "client compile: --verified runs the wrapped pipeline locally and is not a served \
             op; use `giallar compile --verified`"
                .to_string(),
        ));
    }
    let circuit =
        input.ok_or_else(|| CmdError::Usage("client compile: missing input circuit".into()))?;
    if let Some(path) = &certify {
        return run_certify(client, &circuit, &device_spec, seed, backend, path, &format);
    }
    let result = client.compile(&circuit, &device_spec, seed).map_err(command_error)?;
    match format {
        OutputFormat::Table => {
            // Mirror the `giallar compile` table (the device qubit count is
            // recomputed locally; the spec grammar is shared).
            let device = parse_device(&device_spec)?;
            let (in_q, in_g, in_d) = shape_member(&result, "input")?;
            let (out_q, out_g, out_d) = shape_member(&result, "output")?;
            outln!("circuit:        {circuit}");
            outln!("device:         {device_spec} ({} qubits)", device.num_qubits());
            outln!("seed:           {seed}");
            outln!("input:          {in_q} qubits, {in_g} gates, depth {in_d}");
            outln!("output:         {out_q} qubits, {out_g} gates, depth {out_d}");
            outln!(
                "swap mapped:    {}",
                match result.get("swap_mapped").and_then(Value::as_bool) {
                    Some(mapped) => mapped.to_string(),
                    None => "unknown".to_string(),
                }
            );
        }
        OutputFormat::Json => outln!("{}", result.to_pretty()),
    }
    Ok(())
}

/// Runs `giallar client`.  The first non-flag argument picks the operation;
/// `--connect <spec>` (default `127.0.0.1:7411`, `unix:<path>` for Unix
/// sockets) must come before it.
pub fn run(args: &[String]) -> CmdResult {
    let mut connect_spec = DEFAULT_ADDR.to_string();
    let mut i = 0;
    while i < args.len() && args[i].starts_with("--") {
        match args[i].as_str() {
            "--connect" => connect_spec = value_of(args, &mut i, "--connect")?,
            other => return Err(CmdError::Usage(format!("client: unknown option `{other}`"))),
        }
        i += 1;
    }
    let Some(op) = args.get(i).map(String::as_str) else {
        return Err(CmdError::Usage(
            "client: missing operation (status | verify | compile | invalidate | compact | \
             evict | shutdown)"
                .to_string(),
        ));
    };
    let rest = &args[i + 1..];
    let mut client = connect(&connect_spec)?;
    match op {
        "verify" => run_verify(&mut client, rest),
        "compile" => run_compile(&mut client, rest),
        "status" => {
            if let Some(extra) = rest.first() {
                return Err(CmdError::Usage(format!("client status: unknown option `{extra}`")));
            }
            let result = client.status().map_err(command_error)?;
            outln!("{}", result.to_pretty());
            Ok(())
        }
        "invalidate" => {
            let mut pass: Option<String> = None;
            let mut backend = BackendSelection::Default;
            let mut i = 0;
            while i < rest.len() {
                match rest[i].as_str() {
                    "--backend" => backend = crate::flags::parse_backend(rest, &mut i)?,
                    other if !other.starts_with('-') && pass.is_none() => {
                        pass = Some(other.to_string())
                    }
                    other => {
                        return Err(CmdError::Usage(format!(
                            "client invalidate: unknown option `{other}`"
                        )))
                    }
                }
                i += 1;
            }
            let pass =
                pass.ok_or_else(|| CmdError::Usage("client invalidate: missing pass name".into()))?;
            let result = client.invalidate(&pass, backend).map_err(command_error)?;
            outln!("{}", result.to_pretty());
            Ok(())
        }
        "compact" => {
            let retired: Vec<String> = rest.to_vec();
            if let Some(flag) = retired.iter().find(|r| r.starts_with('-')) {
                return Err(CmdError::Usage(format!("client compact: unknown option `{flag}`")));
            }
            let result = client.compact(retired).map_err(command_error)?;
            outln!("{}", result.to_pretty());
            Ok(())
        }
        "evict" => {
            let result = client.evict().map_err(command_error)?;
            outln!("{}", result.to_pretty());
            Ok(())
        }
        "shutdown" => {
            let result = client.shutdown().map_err(command_error)?;
            outln!("{}", result.to_pretty());
            Ok(())
        }
        other => Err(CmdError::Usage(format!("client: unknown operation `{other}`"))),
    }
}

//! Shared flag parsing for the compile-shaped subcommands.
//!
//! `giallar compile` and `giallar client compile` accept byte-identical
//! flag surfaces; both route through [`CompileFlags::parse`], so the two
//! grammars cannot drift.  The `--device`, `--backend`, and `--format`
//! parsers also back `verify`, `check-cert`, and the other client
//! operations.

use giallar_core::backend::BackendSelection;
use qc_ir::CouplingMap;

use crate::{value_of, CmdError};

/// Output format of the compile-shaped commands (`table` | `json`).
pub enum OutputFormat {
    /// Human-readable aligned key/value lines.
    Table,
    /// Pretty-printed JSON.
    Json,
}

impl OutputFormat {
    /// Parses a `--format` value.
    pub fn parse(name: &str) -> Result<OutputFormat, CmdError> {
        match name {
            "table" => Ok(OutputFormat::Table),
            "json" => Ok(OutputFormat::Json),
            other => Err(CmdError::Usage(format!("--format: unknown format `{other}`"))),
        }
    }
}

/// Parses a device spec: `falcon27`, `line:<n>`, or `grid:<r>x<c>` (the
/// grammar lives in [`CouplingMap::from_spec`], shared with the serve
/// protocol's `compile` op and the certificate checker).  A malformed or
/// oversized spec is a one-line failure (exit 1), not a usage dump.
pub fn parse_device(spec: &str) -> Result<CouplingMap, CmdError> {
    CouplingMap::from_spec(spec).map_err(|error| CmdError::Failed(format!("--device: {error}")))
}

/// Pops and parses the value of a `--backend` flag (shared by `verify`,
/// `compile`, `check-cert`, and the client operations).  An unknown name —
/// including a retired backend — is a one-line failure (exit 1), not a
/// usage dump.
pub fn parse_backend(args: &[String], index: &mut usize) -> Result<BackendSelection, CmdError> {
    let name = value_of(args, index, "--backend")?;
    BackendSelection::parse(&name).ok_or_else(|| {
        let known: Vec<&str> = BackendSelection::ALL.iter().map(|s| s.id()).collect();
        CmdError::Failed(format!(
            "--backend: unknown backend `{name}`; known backends: {}",
            known.join(", ")
        ))
    })
}

/// The flag surface shared by `giallar compile` and `giallar client
/// compile`.  `cmd` names the subcommand in error messages (`"compile"` or
/// `"client compile"`).
pub struct CompileFlags {
    /// Positional input: a `.qasm` path (local compile only) or a named
    /// QASMBench circuit.
    pub input: Option<String>,
    /// `--device` spec, textual (defaults to `falcon27`).
    pub device_spec: String,
    /// `--seed` routing seed (defaults to 7).
    pub seed: u64,
    /// `--format` output format.
    pub format: OutputFormat,
    /// `--verified`: also run the wrapped pipeline and re-verify the
    /// scheduled passes.
    pub verified: bool,
    /// `--backend` routing for `--verified` re-verification and
    /// `--certify` evidence.
    pub backend: BackendSelection,
    /// `--certify <path>`: emit an equivalence certificate to this path.
    pub certify: Option<String>,
    /// `--list`: list the available named circuits instead of compiling.
    pub list: bool,
}

impl CompileFlags {
    /// Parses the shared compile flag grammar.
    pub fn parse(cmd: &str, args: &[String]) -> Result<CompileFlags, CmdError> {
        let mut flags = CompileFlags {
            input: None,
            device_spec: "falcon27".to_string(),
            seed: 7,
            format: OutputFormat::Table,
            verified: false,
            backend: BackendSelection::Default,
            certify: None,
            list: false,
        };
        let mut backend: Option<BackendSelection> = None;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--device" => flags.device_spec = value_of(args, &mut i, "--device")?,
                "--seed" => {
                    flags.seed = value_of(args, &mut i, "--seed")?
                        .parse()
                        .map_err(|_| CmdError::Usage("--seed: invalid seed".to_string()))?
                }
                "--format" => {
                    flags.format = OutputFormat::parse(&value_of(args, &mut i, "--format")?)?
                }
                "--verified" => flags.verified = true,
                "--backend" => backend = Some(parse_backend(args, &mut i)?),
                "--certify" => flags.certify = Some(value_of(args, &mut i, "--certify")?),
                "--list" => flags.list = true,
                flag if flag.starts_with("--") => {
                    return Err(CmdError::Usage(format!("{cmd}: unknown option `{flag}`")))
                }
                positional => {
                    if flags.input.is_some() {
                        return Err(CmdError::Usage(format!("{cmd}: more than one input given")));
                    }
                    flags.input = Some(positional.to_string());
                }
            }
            i += 1;
        }
        if backend.is_some() && !flags.verified && flags.certify.is_none() {
            // Silently ignoring the flag would let a user believe a
            // reference-backend verification ran when nothing did.
            return Err(CmdError::Usage(format!(
                "{cmd}: --backend selects the re-verification backend and requires \
                 --verified or --certify"
            )));
        }
        flags.backend = backend.unwrap_or_default();
        Ok(flags)
    }
}

/// Prints the built-in QASMBench suite (the `--list` output, shared so the
/// local and served compile commands list identically).
pub fn list_circuits() {
    for bench in qasmbench::benchmark_suite() {
        println!(
            "{:<16} {:>3} qubits {:>5} gates",
            bench.name,
            bench.circuit.num_qubits(),
            bench.circuit.size()
        );
    }
}

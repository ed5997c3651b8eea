//! The `giallar` command line.
//!
//! The first-class entry point to the Giallar reproduction — what a CI job
//! or a user drives instead of the examples:
//!
//! * `giallar verify` — push-button verification of the 44-pass registry
//!   (or one pass), optionally through the incremental verification cache,
//!   with `table`, `markdown`, or `json` output and a nonzero exit code on
//!   any unverified pass.
//! * `giallar compile` — run the baseline transpiler on an OpenQASM file or
//!   a named QASMBench circuit and print compilation stats; `--certify`
//!   additionally emits a machine-checkable equivalence certificate.
//! * `giallar check-cert` — independently re-validate a certificate,
//!   refusing any tampering with fingerprints, wire maps, or evidence.
//! * `giallar bench` — emit the Table 2 / Figure 11 / solver-microbench /
//!   serve-latency JSON artifacts (the committed `BENCH_*.json` files), or
//!   drift-check them against a directory with `--check` (timing fields
//!   ignored).
//! * `giallar fuzz` — the fault-injection campaign: systematically wound
//!   the registry's proof obligations and real compilations, and fail
//!   unless the verifier refutes every wound (the `BENCH_bug_detection`
//!   artifact is this campaign's JSON output).
//! * `giallar serve` — run the resident verification daemon: registry
//!   obligations and solver state stay warm behind a socket, requests batch
//!   by goal class, and verdicts live in one LRU/TTL-evicting cache.
//! * `giallar client` — talk to a running daemon; `client verify` renders
//!   through the same code as `giallar verify`, so served output is
//!   byte-identical at equal cache state.
//!
//! Exit codes: `0` success, `1` verification/compilation failure or a failed
//! `--expect-passes` / `--min-cache-hits` assertion, `2` usage error.  A
//! reader that closes stdout early (`giallar fuzz | head`) ends the process
//! quietly with `0`.

/// `print!` to stdout through [`write_stdout`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` to stdout through [`write_stdout`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod bench_cmd;
mod check_cert;
mod client_cmd;
mod compile;
mod flags;
mod fuzz;
mod serve_cmd;
mod verify;

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

/// Writes to stdout.  Once the reader has closed the pipe no further output
/// can arrive, so the process exits quietly with `0` instead of panicking
/// the way `print!` does.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    if let Err(error) = std::io::stdout().write_fmt(args) {
        if error.kind() == ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {error}");
    }
}

/// How a subcommand failed, mapped to the process exit code.
pub enum CmdError {
    /// Bad invocation (unknown flag, missing value, unknown pass) — exit 2.
    Usage(String),
    /// The command ran and the result is a failure (unverified pass,
    /// pass-count drift, missed cache-hit floor, I/O error) — exit 1.
    Failed(String),
}

/// Result type shared by all subcommands.
pub type CmdResult = Result<(), CmdError>;

/// Pops the value of `--flag value`, advancing the cursor.
pub fn value_of(args: &[String], index: &mut usize, flag: &str) -> Result<String, CmdError> {
    *index += 1;
    args.get(*index).cloned().ok_or_else(|| CmdError::Usage(format!("{flag} needs a value")))
}

/// Parses the value of a numeric flag.
pub fn parse_count(value: &str, flag: &str) -> Result<usize, CmdError> {
    value.parse::<usize>().map_err(|_| CmdError::Usage(format!("{flag}: invalid count `{value}`")))
}

const USAGE: &str =
    "giallar — push-button verification for the Qiskit compiler (PLDI 2022 reproduction)

USAGE:
    giallar <SUBCOMMAND> [OPTIONS]

SUBCOMMANDS:
    verify     verify the 44-pass registry (all passes or --pass <name>)
        --pass <name>          verify one pass (repeatable; typos get
                               suggestions)
        --format <fmt>         table (default) | markdown | json
        --jobs <n>             worker threads for obligation generation and
                               batched group discharge
        --backend <name>       solver backend routing:
                               default | reference
                               (reference = naive normalizer, for
                               differential cross-checks)
        --cache <file>         incremental verification cache (JSON; created
                               when missing, re-discharges only obligations
                               whose fingerprint changed)
        --deterministic        omit machine-dependent timing from the output
        --expect-passes <n>    fail unless exactly n passes were verified
        --min-cache-hits <n>   fail unless the cache answered >= n
                               obligations
    compile    compile an OpenQASM file or a named QASMBench circuit
        <input>                path to a .qasm file, or a circuit name
                               (e.g. qft_16; see --list)
        --device <dev>         falcon27 (default) | line:<n> | grid:<r>x<c>
        --seed <n>             routing seed (default 7)
        --format <fmt>         table (default) | json
        --verified             also run the wrapped (Giallar) pipeline,
                               print the overhead inline, and re-verify the
                               scheduled passes via the backend registry
        --backend <name>       backend for --verified re-verification and
                               --certify evidence
        --certify <path>       emit a machine-checkable equivalence
                               certificate (check it with check-cert);
                               works with or without --verified
        --list                 list the available named circuits
    check-cert independently re-validate an equivalence certificate
        <path>                 certificate file written by compile --certify
                               or the daemon's certify op
        --format <fmt>         table (default) | json
    bench      regenerate or drift-check the committed benchmark artifacts
        --out <dir>            output directory (default: .)
        --seed <n>             Figure 11 routing seed (default 7)
        --timings              include machine-dependent timing sections
        --check <dir>          write nothing; compare regenerated artifacts
                               against the committed files in <dir>, ignoring
                               timing fields (nonzero exit on drift)
    fuzz       run the fault-injection campaign: wound every falsifiable
                               registry obligation and require every backend
                               routing to refute each wound
        --seed <s>             campaign seed: decimal, 0x-hex, or any string
                               (hashed); default 0xg1allar
        --mutants <n>          bound the mutant corpus (default: all)
        --pass <name>          wound a single pass
        --format <fmt>         table (default) | json (the BENCH artifact)
        --timings              include machine-dependent timing sections
        --generate             generative campaign instead: compile a seeded
                               random-circuit corpus, wound each compilation
                               with a drawn sabotage matrix, require every
                               backend to refuse each semantic fault, count
                               the non-semantic faults refused anyway, and
                               delta-debug any survivor to a minimal edit
        --circuits <n>         corpus size (default 200, or the
                               GIALLAR_FUZZ_CIRCUITS environment variable)
        --width <n>            max register width, 2..=device width
                               (default 5)
        --depth <n>            max drawn gate count, 1..=512 (default 16)
        --alphabet <name>      gate alphabet: basis | clifford+t | full |
                               all (default: all, cycling per circuit)
    serve      run the resident verification daemon (giallar-serve/v2;
                               bare v1 client lines still served)
        --listen <spec>        TCP address (default 127.0.0.1:7411) or
                               unix:<path>; TCP port 0 picks a free port
        --max-entries <n>      LRU capacity of the verdict cache (default
                               unbounded)
        --ttl <n>              evict entries idle for n request batches
        --cache <file>         warm-start from this verify cache file and
                               write it back on shutdown
    client     send one operation to a running daemon
        --connect <spec>       daemon endpoint (default 127.0.0.1:7411, or
                               unix:<path>); must precede the operation
        status                 print the resident census and cache stats
        verify                 served verification; renders like `verify`
            --pass <name>      verify one pass (repeatable)
            --per-pass         replay the whole registry one request per pass
            --backend <name>   solver backend routing:
                               default | reference
            --format <fmt>     table (default) | markdown | json
            --deterministic    omit machine-dependent timing from the output
            --expect-passes <n>  fail unless exactly n passes were verified
            --min-cache-hits <n> fail unless the server cache answered >= n
        compile <circuit>      compile a named QASMBench circuit server-side
                               (same flag grammar as `giallar compile`)
            --device <dev>     falcon27 (default) | line:<n> | grid:<r>x<c>
            --seed <n>         routing seed (default 7)
            --format <fmt>     table (default) | json
            --certify <path>   certify server-side and write the daemon's
                               certificate (byte-identical to a local
                               compile --certify of the same input)
            --backend <name>   backend for --certify evidence
            --list             list the available named circuits
        invalidate <pass>      drop one pass's cached verdicts
            --backend <name>   routing whose cache keys to drop
        compact [backend ...]  drop entries from retired backends or a stale
                               rule library
        evict                  run one LRU/TTL eviction sweep now
        shutdown               stop the daemon (it replies first)

Exit codes: 0 success, 1 failure, 2 usage error.
";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("verify") => verify::run(&args[1..]),
        Some("compile") => compile::run(&args[1..]),
        Some("check-cert") => check_cert::run(&args[1..]),
        Some("bench") => bench_cmd::run(&args[1..]),
        Some("fuzz") => fuzz::run(&args[1..]),
        Some("serve") => serve_cmd::run(&args[1..]),
        Some("client") => client_cmd::run(&args[1..]),
        Some("--help") | Some("-h") | Some("help") => {
            out!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(CmdError::Usage(format!("unknown subcommand `{other}`"))),
        None => Err(CmdError::Usage("missing subcommand".to_string())),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CmdError::Failed(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Err(CmdError::Usage(message)) => {
            eprintln!("usage error: {message}\n");
            eprint!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

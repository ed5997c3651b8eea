//! The `giallar-serve` wire protocol (current version: `giallar-serve/v2`).
//!
//! Messages are line-delimited JSON: every request and every response is one
//! compact JSON object ([`giallar_core::json::Value::to_compact`]) followed
//! by a single `\n`.  Both directions carry a `schema` member naming a
//! [`ProtocolVersion`] so either side can reject a peer speaking a version
//! it does not understand, and an `id` chosen by the client and echoed
//! verbatim by the server.
//!
//! # Version negotiation
//!
//! There is no handshake; negotiation is per message, by these rules:
//!
//! * The server accepts **every** supported version ([`ProtocolVersion::ALL`]):
//!   a bare `giallar-serve/v1` line from an old client is served exactly as
//!   before.  The `status` result advertises the supported versions in its
//!   `protocols` member so clients can probe before committing to an op.
//! * The server answers each request **at the version the request carried**,
//!   so an old client never sees a schema it cannot parse.  (Unparseable
//!   request lines are answered with id `-1` at `v1`, the floor every
//!   client understands.)
//! * The client sends each request at the **lowest version that supports
//!   its op** ([`Op::min_version`]) — legacy ops travel as `v1`, `certify`
//!   as `v2` — so a new client interoperates with an old server for every
//!   op the old server has.  When it does not (an old server sees a `v2`
//!   line), the server's schema-mismatch error is the fail-fast signal;
//!   [`crate::client::Client`] surfaces it as a protocol error.
//! * `v2` adds exactly one op, `certify`; every `v1` message is also a
//!   valid `v2` message.  A `certify` request carried at `v1` is refused.
//!
//! Requests:
//!
//! ```json
//! {"schema":"giallar-serve/v1","id":1,"op":"status"}
//! {"schema":"giallar-serve/v1","id":2,"op":"verify","backend":"default"}
//! {"schema":"giallar-serve/v1","id":3,"op":"verify","passes":["CXCancellation"],"backend":"default"}
//! {"schema":"giallar-serve/v1","id":4,"op":"compile","circuit":"qft_16","device":"falcon27","seed":7}
//! {"schema":"giallar-serve/v2","id":5,"op":"certify","circuit":"qft_16","device":"falcon27","seed":7,"backend":"default"}
//! {"schema":"giallar-serve/v1","id":6,"op":"invalidate","pass":"CXCancellation","backend":"default"}
//! {"schema":"giallar-serve/v1","id":7,"op":"compact","retired_backends":["reference"]}
//! {"schema":"giallar-serve/v1","id":8,"op":"evict"}
//! {"schema":"giallar-serve/v1","id":9,"op":"shutdown"}
//! ```
//!
//! Responses (the `schema` echoes the request's version):
//!
//! ```json
//! {"schema":"giallar-serve/v1","id":2,"ok":true,"result":{"reports":[],"hits":104,"misses":0}}
//! {"schema":"giallar-serve/v1","id":3,"ok":false,"error":"verify: unknown pass `CXCancelation`"}
//! ```
//!
//! See `docs/ARCHITECTURE.md` for the full schema of each op's `result`.
//!
//! # Example
//!
//! ```
//! use giallar_core::backend::BackendSelection;
//! use giallar_serve::protocol::{Op, Request, Response};
//!
//! let request = Request::new(
//!     3,
//!     Op::Verify {
//!         passes: Some(vec!["CXCancellation".to_string()]),
//!         backend: BackendSelection::Default,
//!     },
//! );
//! let line = request.to_line();
//! assert!(!line.contains('\n'));
//! let back = Request::from_line(&line).unwrap();
//! assert_eq!(back.id, 3);
//!
//! let response = Response::error(3, "verify: unknown pass `X`");
//! let back = Response::from_line(&response.to_line()).unwrap();
//! assert_eq!(back.result.unwrap_err(), "verify: unknown pass `X`");
//! ```

use giallar_core::backend::BackendSelection;
use giallar_core::json::{parse, Value};

/// A wire protocol version.  `v2` is a strict superset of `v1` (it adds the
/// `certify` op); see the module docs for the negotiation rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProtocolVersion {
    /// `giallar-serve/v1`: status, verify, compile, invalidate, compact,
    /// evict, shutdown.
    V1,
    /// `giallar-serve/v2`: everything in `v1` plus `certify`.
    V2,
}

impl ProtocolVersion {
    /// Every version this build speaks, oldest first (the `status` result
    /// advertises these in its `protocols` member).
    pub const ALL: [ProtocolVersion; 2] = [ProtocolVersion::V1, ProtocolVersion::V2];

    /// The version's `schema` string.
    pub fn schema(self) -> &'static str {
        match self {
            ProtocolVersion::V1 => SCHEMA_V1,
            ProtocolVersion::V2 => SCHEMA,
        }
    }

    /// Parses a `schema` string into a supported version.
    pub fn parse(schema: &str) -> Option<ProtocolVersion> {
        ProtocolVersion::ALL.into_iter().find(|v| v.schema() == schema)
    }
}

/// The current protocol version string.
pub const SCHEMA: &str = "giallar-serve/v2";

/// The `v1` version string, still accepted on the wire so pre-`v2` clients
/// keep working unchanged.
pub const SCHEMA_V1: &str = "giallar-serve/v1";

/// The default TCP address `giallar serve` listens on (and `giallar client`
/// connects to) when `--listen` / `--connect` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// One operation a client can ask of the server.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Report the resident state: registry size, cache census, store
    /// counters.
    Status,
    /// Verify passes through the resident cache.  `passes: None`
    /// verifies the whole registry; otherwise only the named passes, in
    /// registry order.
    Verify {
        /// Pass names to verify, or `None` for the full registry.
        passes: Option<Vec<String>>,
        /// Backend routing for the request.
        backend: BackendSelection,
    },
    /// Compile a named QASMBench circuit with the baseline transpiler.
    Compile {
        /// QASMBench circuit name (e.g. `qft_16`).
        circuit: String,
        /// Device spec: `falcon27`, `line:<n>`, or `grid:<r>x<c>`.
        device: String,
        /// Routing seed.
        seed: u64,
    },
    /// Compile a named QASMBench circuit and emit an equivalence
    /// certificate (a `v2` op; see
    /// [`giallar_core::certificate::EquivalenceCertificate`]).
    Certify {
        /// QASMBench circuit name (e.g. `qft_16`).
        circuit: String,
        /// Device spec: `falcon27`, `line:<n>`, or `grid:<r>x<c>`.
        device: String,
        /// Routing seed.
        seed: u64,
        /// Backend routing for the certificate's equivalence evidence.
        backend: BackendSelection,
    },
    /// Drop one pass's cached verdicts so its next request re-discharges.
    Invalidate {
        /// The pass whose obligations to forget.
        pass: String,
        /// The backend routing whose cache keys to drop.
        backend: BackendSelection,
    },
    /// Drop unpinned entries recorded under retired backends or a stale
    /// rule library.
    Compact {
        /// Backend ids whose entries to retire (e.g. `reference`).
        retired_backends: Vec<String>,
    },
    /// Run one LRU/TTL eviction sweep immediately.
    Evict,
    /// Stop the server (after replying).
    Shutdown,
}

impl Op {
    /// The op's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Status => "status",
            Op::Verify { .. } => "verify",
            Op::Compile { .. } => "compile",
            Op::Certify { .. } => "certify",
            Op::Invalidate { .. } => "invalidate",
            Op::Compact { .. } => "compact",
            Op::Evict => "evict",
            Op::Shutdown => "shutdown",
        }
    }

    /// The lowest protocol version that supports the op — the version a
    /// client should send it at (see the module docs).
    pub fn min_version(&self) -> ProtocolVersion {
        match self {
            Op::Certify { .. } => ProtocolVersion::V2,
            _ => ProtocolVersion::V1,
        }
    }
}

/// A client request: an id (echoed in the response), the operation, and the
/// protocol version the request travels at.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim by the server.
    pub id: i64,
    /// The requested operation.
    pub op: Op,
    /// The version this request is encoded at.  [`Request::new`] picks the
    /// op's [`Op::min_version`]; decoding records whatever the wire said.
    pub version: ProtocolVersion,
}

impl Request {
    /// Builds a request at the lowest version supporting its op.
    pub fn new(id: i64, op: Op) -> Request {
        let version = op.min_version();
        Request { id, op, version }
    }

    /// Encodes the request as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("schema", Value::String(self.version.schema().to_string())),
            ("id", Value::Int(self.id)),
            ("op", Value::String(self.op.name().to_string())),
        ];
        match &self.op {
            Op::Status | Op::Evict | Op::Shutdown => {}
            Op::Verify { passes, backend } => {
                if let Some(passes) = passes {
                    members.push((
                        "passes",
                        Value::Array(passes.iter().map(|p| Value::String(p.clone())).collect()),
                    ));
                }
                members.push(("backend", Value::String(backend.id().to_string())));
            }
            Op::Compile { circuit, device, seed } => {
                members.push(("circuit", Value::String(circuit.clone())));
                members.push(("device", Value::String(device.clone())));
                members.push(("seed", Value::Int(*seed as i64)));
            }
            Op::Certify { circuit, device, seed, backend } => {
                members.push(("circuit", Value::String(circuit.clone())));
                members.push(("device", Value::String(device.clone())));
                members.push(("seed", Value::Int(*seed as i64)));
                members.push(("backend", Value::String(backend.id().to_string())));
            }
            Op::Invalidate { pass, backend } => {
                members.push(("pass", Value::String(pass.clone())));
                members.push(("backend", Value::String(backend.id().to_string())));
            }
            Op::Compact { retired_backends } => {
                members.push((
                    "retired_backends",
                    Value::Array(
                        retired_backends.iter().map(|b| Value::String(b.clone())).collect(),
                    ),
                ));
            }
        }
        Value::object(members)
    }

    /// Encodes the request as one wire line (compact JSON, no trailing
    /// newline — the transport appends it).
    pub fn to_line(&self) -> String {
        self.to_value().to_compact()
    }

    /// Decodes a request from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed member
    /// (including a schema mismatch).
    pub fn from_value(value: &Value) -> Result<Request, String> {
        let version = check_schema(value)?;
        let id = value.get("id").and_then(Value::as_int).ok_or("request: missing `id`")?;
        let op = value.get("op").and_then(Value::as_str).ok_or("request: missing `op`")?;
        let op = match op {
            "status" => Op::Status,
            "evict" => Op::Evict,
            "shutdown" => Op::Shutdown,
            "verify" => {
                let passes = match value.get("passes") {
                    None | Some(Value::Null) => None,
                    Some(Value::Array(items)) => Some(
                        items
                            .iter()
                            .map(|item| {
                                item.as_str()
                                    .map(str::to_string)
                                    .ok_or("request: `passes` must hold strings".to_string())
                            })
                            .collect::<Result<Vec<String>, String>>()?,
                    ),
                    Some(_) => return Err("request: bad `passes`".to_string()),
                };
                Op::Verify { passes, backend: backend_of(value)? }
            }
            "compile" => Op::Compile {
                circuit: string_member(value, "circuit")?,
                device: string_member(value, "device")?,
                seed: seed_member(value)?,
            },
            "certify" => {
                if version < ProtocolVersion::V2 {
                    return Err(format!(
                        "request: op `certify` requires `{SCHEMA}` (request carried `{}`)",
                        version.schema()
                    ));
                }
                Op::Certify {
                    circuit: string_member(value, "circuit")?,
                    device: string_member(value, "device")?,
                    seed: seed_member(value)?,
                    backend: backend_of(value)?,
                }
            }
            "invalidate" => {
                Op::Invalidate { pass: string_member(value, "pass")?, backend: backend_of(value)? }
            }
            "compact" => {
                let retired = match value.get("retired_backends") {
                    None | Some(Value::Null) => Vec::new(),
                    Some(Value::Array(items)) => items
                        .iter()
                        .map(|item| {
                            item.as_str()
                                .map(str::to_string)
                                .ok_or("request: `retired_backends` must hold strings".to_string())
                        })
                        .collect::<Result<Vec<String>, String>>()?,
                    Some(_) => return Err("request: bad `retired_backends`".to_string()),
                };
                Op::Compact { retired_backends: retired }
            }
            other => return Err(format!("request: unknown op `{}`", qc_ir::escaped(other))),
        };
        Ok(Request { id, op, version })
    }

    /// Decodes a request from one wire line.
    ///
    /// # Errors
    ///
    /// Returns a parse or schema error description.
    pub fn from_line(line: &str) -> Result<Request, String> {
        Request::from_value(&parse(line.trim_end()).map_err(|e| format!("request: {e}"))?)
    }
}

/// A server response: the echoed request id plus either the op's result
/// object or an error message, carried at the version of the request it
/// answers.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The id of the request this answers.
    pub id: i64,
    /// The op's result on success, or the error description.
    pub result: Result<Value, String>,
    /// The version this response is encoded at.  The server echoes the
    /// request's version (see [`Response::versioned`]); the constructors
    /// default to the current version.
    pub version: ProtocolVersion,
}

impl Response {
    /// A success response carrying `result`.
    pub fn ok(id: i64, result: Value) -> Response {
        Response { id, result: Ok(result), version: ProtocolVersion::V2 }
    }

    /// An error response carrying a message.
    pub fn error(id: i64, message: impl Into<String>) -> Response {
        Response { id, result: Err(message.into()), version: ProtocolVersion::V2 }
    }

    /// Re-stamps the response at `version` (the server answers each request
    /// at the version it arrived at, so old clients always get a schema
    /// they parse).
    pub fn versioned(mut self, version: ProtocolVersion) -> Response {
        self.version = version;
        self
    }

    /// Encodes the response as a JSON value.
    pub fn to_value(&self) -> Value {
        let mut members = vec![
            ("schema", Value::String(self.version.schema().to_string())),
            ("id", Value::Int(self.id)),
            ("ok", Value::Bool(self.result.is_ok())),
        ];
        match &self.result {
            Ok(result) => members.push(("result", result.clone())),
            Err(message) => members.push(("error", Value::String(message.clone()))),
        }
        Value::object(members)
    }

    /// Encodes the response as one wire line (no trailing newline).
    pub fn to_line(&self) -> String {
        self.to_value().to_compact()
    }

    /// Decodes a response from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed member.
    pub fn from_value(value: &Value) -> Result<Response, String> {
        let version = check_schema(value)?;
        let id = value.get("id").and_then(Value::as_int).ok_or("response: missing `id`")?;
        let ok = value.get("ok").and_then(Value::as_bool).ok_or("response: missing `ok`")?;
        let result = if ok {
            Ok(value.get("result").cloned().ok_or("response: missing `result`")?)
        } else {
            Err(value
                .get("error")
                .and_then(Value::as_str)
                .ok_or("response: missing `error`")?
                .to_string())
        };
        Ok(Response { id, result, version })
    }

    /// Decodes a response from one wire line.
    ///
    /// # Errors
    ///
    /// Returns a parse or schema error description.
    pub fn from_line(line: &str) -> Result<Response, String> {
        Response::from_value(&parse(line.trim_end()).map_err(|e| format!("response: {e}"))?)
    }
}

fn check_schema(value: &Value) -> Result<ProtocolVersion, String> {
    match value.get("schema").and_then(Value::as_str) {
        Some(schema) => ProtocolVersion::parse(schema).ok_or_else(|| {
            format!(
                "schema mismatch: expected `{SCHEMA}` or `{SCHEMA_V1}`, got `{}`",
                qc_ir::escaped(schema)
            )
        }),
        None => Err(format!("missing `schema` (expected `{SCHEMA}` or `{SCHEMA_V1}`)")),
    }
}

fn seed_member(value: &Value) -> Result<u64, String> {
    value
        .get("seed")
        .and_then(Value::as_int)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| "request: missing `seed`".to_string())
}

fn string_member(value: &Value, key: &str) -> Result<String, String> {
    value
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("request: missing `{key}`"))
}

fn backend_of(value: &Value) -> Result<BackendSelection, String> {
    match value.get("backend") {
        None | Some(Value::Null) => Ok(BackendSelection::Default),
        Some(Value::String(name)) => BackendSelection::parse(name)
            .ok_or_else(|| format!("request: unknown backend `{}`", qc_ir::escaped(name))),
        Some(_) => Err("request: bad `backend`".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_round_trips_through_the_wire_encoding() {
        let ops = vec![
            Op::Status,
            Op::Verify { passes: None, backend: BackendSelection::Default },
            Op::Verify {
                passes: Some(vec!["CXCancellation".to_string(), "CheckMap".to_string()]),
                backend: BackendSelection::Reference,
            },
            Op::Compile { circuit: "qft_16".to_string(), device: "falcon27".to_string(), seed: 7 },
            Op::Certify {
                circuit: "qft_16".to_string(),
                device: "falcon27".to_string(),
                seed: 7,
                backend: BackendSelection::Reference,
            },
            Op::Invalidate { pass: "CheckMap".to_string(), backend: BackendSelection::Default },
            Op::Compact { retired_backends: vec!["reference".to_string()] },
            Op::Compact { retired_backends: Vec::new() },
            Op::Evict,
            Op::Shutdown,
        ];
        for (id, op) in ops.into_iter().enumerate() {
            let request = Request::new(id as i64, op);
            let line = request.to_line();
            assert!(!line.contains('\n'), "{line:?}");
            assert_eq!(Request::from_line(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn clients_send_each_op_at_the_lowest_supporting_version() {
        // Legacy ops travel as v1 so old servers keep serving new clients.
        let status = Request::new(1, Op::Status);
        assert_eq!(status.version, ProtocolVersion::V1);
        assert!(status.to_line().contains(SCHEMA_V1));
        // The one v2 op travels as v2.
        let certify = Request::new(
            2,
            Op::Certify {
                circuit: "qft_16".to_string(),
                device: "falcon27".to_string(),
                seed: 7,
                backend: BackendSelection::Default,
            },
        );
        assert_eq!(certify.version, ProtocolVersion::V2);
        assert!(certify.to_line().contains(SCHEMA));
        // A certify request downgraded to v1 is refused at decode time.
        let downgraded = Request { version: ProtocolVersion::V1, ..certify };
        assert!(Request::from_line(&downgraded.to_line())
            .unwrap_err()
            .contains("op `certify` requires `giallar-serve/v2`"));
        // Responses echo the request's version.
        let reply = Response::ok(1, Value::object(vec![])).versioned(ProtocolVersion::V1);
        assert!(reply.to_line().contains(SCHEMA_V1));
        assert_eq!(Response::from_line(&reply.to_line()).unwrap().version, ProtocolVersion::V1);
    }

    #[test]
    fn responses_round_trip_in_both_outcomes() {
        let ok = Response::ok(9, Value::object(vec![("entries", Value::Int(41))]));
        assert_eq!(Response::from_line(&ok.to_line()).unwrap(), ok);
        let err = Response::error(9, "verify: unknown pass `X`");
        assert_eq!(Response::from_line(&err.to_line()).unwrap(), err);
    }

    #[test]
    fn missing_backend_defaults_and_unknown_fields_error() {
        let request =
            Request::from_line(r#"{"schema":"giallar-serve/v1","id":1,"op":"verify"}"#).unwrap();
        assert_eq!(request.op, Op::Verify { passes: None, backend: BackendSelection::Default });
        assert_eq!(request.version, ProtocolVersion::V1);
        assert!(Request::from_line(r#"{"schema":"giallar-serve/v1","id":1,"op":"freeze"}"#)
            .unwrap_err()
            .contains("unknown op"));
        assert!(Request::from_line(r#"{"schema":"giallar-serve/v0","id":1,"op":"status"}"#)
            .unwrap_err()
            .contains("schema mismatch"));
        assert!(Request::from_line("not json").unwrap_err().contains("request:"));
        // A retired backend name is an error, never a silent default.
        assert_eq!(
            Request::from_line(
                r#"{"schema":"giallar-serve/v2","id":1,"op":"verify","backend":"saturate"}"#
            )
            .unwrap_err(),
            "request: unknown backend `saturate`"
        );
    }
}

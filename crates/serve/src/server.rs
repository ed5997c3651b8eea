//! The `giallar serve` daemon: socket front-end, dispatch batching, and the
//! op → [`Engine`] bridge.
//!
//! # Request lifecycle
//!
//! ```text
//! socket ── connection thread ──► dispatcher ──► batcher ──► verdict store
//!                ▲                (1 thread)      (plan)      ├─ hit: pin + snapshot
//!                │                                            └─ miss: worker pool
//!                └──────────────── response ◄─── fold ◄─────────── discharge
//! ```
//!
//! Each accepted connection gets its own thread that reads line-delimited
//! [`crate::protocol`] requests and forwards them, in order, to the single
//! **dispatcher** thread.  The dispatcher drains every request queued at
//! that moment into one *dispatch batch*, serves the batch in arrival
//! order — aggregating consecutive `verify` ops into one
//! [`Engine::verify_batch`] call so their cache misses share goal-class
//! discharge groups — and runs one LRU/TTL eviction sweep after each batch
//! that verified anything.  Because eviction runs only between dispatch
//! batches and in-flight requests pin their snapshot entries, a served
//! request can never lose a verdict it is holding.  The dispatcher sends
//! each answer back over a reply channel, and the connection thread
//! renders it to its wire line while the dispatcher serves the next job.
//!
//! A request line that fails to parse is answered with an error response
//! carrying id `-1` (there is no trustworthy id to echo).  A `shutdown`
//! request is answered first; the dispatcher then finishes the batch, flips
//! the shutdown flag, and wakes the accept loop, so [`Server::run`] returns
//! after every connection thread drains.

use std::io::{self, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use giallar_core::backend::BackendSelection;
use giallar_core::cache::{CacheStats, EvictionSummary};
use giallar_core::certificate::EquivalenceCertificate;
use giallar_core::json::Value;

use crate::engine::{
    CertifyOutcome, CompileOutcome, Engine, StatusSnapshot, VerifyOutcome, VerifyRequest,
};
use crate::net::{ByteStream, Endpoint};
use crate::protocol::{Op, ProtocolVersion, Request, Response};

/// How often blocked reads and response waits recheck the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

enum ListenerKind {
    Tcp(TcpListener),
    Unix(UnixListener, PathBuf),
}

/// A bound (but not yet running) serve daemon.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use giallar_serve::engine::{Engine, EngineConfig};
/// use giallar_serve::net::Endpoint;
/// use giallar_serve::server::Server;
///
/// let engine = Arc::new(Engine::new(EngineConfig::default()));
/// let server = Server::bind(engine, &Endpoint::parse("127.0.0.1:0")).unwrap();
/// println!("listening on {}", server.local_endpoint());
/// server.run().unwrap(); // blocks until a client sends `shutdown`
/// ```
pub struct Server {
    engine: Arc<Engine>,
    listener: ListenerKind,
    local: Endpoint,
}

struct Job {
    request: Request,
    reply: mpsc::Sender<Reply>,
}

/// The dispatcher's answer to one job.  The connection thread renders it
/// to its wire line, so rendering overlaps the dispatcher's next job.
struct Reply {
    response: Response,
    /// A `certify` reply's certificate, written straight into the line as
    /// the result object's leading member.
    certificate: Option<EquivalenceCertificate>,
}

impl Reply {
    /// The reply's wire line, without its newline.
    fn to_line(&self) -> String {
        match &self.certificate {
            Some(certificate) => {
                self.response.to_line_with("certificate", |w| certificate.to_json().write(w))
            }
            None => self.response.to_line(),
        }
    }
}

impl From<Response> for Reply {
    fn from(response: Response) -> Reply {
        Reply { response, certificate: None }
    }
}

impl Server {
    /// Binds the daemon to an endpoint.  TCP port `0` picks a free port —
    /// read the bound one back from [`Server::local_endpoint`].  A stale
    /// Unix socket file at the path is removed first.
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(engine: Arc<Engine>, endpoint: &Endpoint) -> io::Result<Server> {
        let (listener, local) = match endpoint {
            Endpoint::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                let local = Endpoint::Tcp(listener.local_addr()?.to_string());
                (ListenerKind::Tcp(listener), local)
            }
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                (ListenerKind::Unix(listener, path.clone()), Endpoint::Unix(path.clone()))
            }
        };
        Ok(Server { engine, listener, local })
    }

    /// The endpoint actually bound (with the OS-assigned port resolved).
    pub fn local_endpoint(&self) -> &Endpoint {
        &self.local
    }

    /// The resident engine (for exporting the cache after [`Server::run`]
    /// returns).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Serves until a client sends `shutdown`.  Blocks the calling thread;
    /// connection threads and the dispatcher run under a scoped pool and
    /// are joined before this returns.
    ///
    /// # Errors
    ///
    /// Returns the accept-loop error if the listener fails outside a
    /// shutdown.
    pub fn run(self) -> io::Result<()> {
        let shutdown = AtomicBool::new(false);
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let engine = &self.engine;
        let local = &self.local;
        let listener = &self.listener;
        let result = std::thread::scope(|scope| {
            let shutdown = &shutdown;
            scope.spawn(move || dispatch_loop(engine, job_rx, shutdown, local));
            loop {
                let stream = match accept(listener) {
                    Ok(stream) => stream,
                    Err(error) => {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        return Err(error);
                    }
                };
                if shutdown.load(Ordering::SeqCst) {
                    // The dispatcher's wake-up connection.
                    break;
                }
                let jobs = job_tx.clone();
                scope.spawn(move || serve_connection(stream, jobs, shutdown));
            }
            drop(job_tx);
            Ok(())
        });
        if let ListenerKind::Unix(_, path) = &self.listener {
            let _ = std::fs::remove_file(path);
        }
        result
    }
}

fn accept(listener: &ListenerKind) -> io::Result<ByteStream> {
    match listener {
        ListenerKind::Tcp(listener) => listener.accept().map(|(s, _)| ByteStream::Tcp(s)),
        ListenerKind::Unix(listener, _) => listener.accept().map(|(s, _)| ByteStream::Unix(s)),
    }
}

/// Hard cap on one request line.  A legitimate request (the largest is a
/// full-registry `certify` op) is a few KB; anything beyond a megabyte is a
/// runaway or hostile client, and buffering it unboundedly would let one
/// connection exhaust the daemon's memory.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// One connection: read request lines in order, await each response from
/// the dispatcher, write it back.  Exits on EOF, a write error, or the
/// shutdown flag.
///
/// Malformed input never kills the connection: unparseable or non-UTF-8
/// lines get a structured protocol error (non-UTF-8 bytes are replaced
/// lossily before parsing, which then fails cleanly), and a line exceeding
/// [`MAX_REQUEST_LINE`] is answered with one error while the remainder of
/// the oversized line is discarded as it streams in.
fn serve_connection(mut stream: ByteStream, jobs: mpsc::Sender<Job>, shutdown: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // True while swallowing the tail of an over-long line that was already
    // answered with an error; cleared at the next newline.
    let mut discarding = false;
    'connection: loop {
        while let Some(at) = pending.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = pending.drain(..=at).collect();
            if discarding {
                // The tail of a line whose head already got the error.
                discarding = false;
                continue;
            }
            if line.len() > MAX_REQUEST_LINE {
                if !send_line_cap_error(&mut stream) {
                    break 'connection;
                }
                continue;
            }
            let line = String::from_utf8_lossy(&line);
            if line.trim().is_empty() {
                continue;
            }
            let mut wire = match Request::from_line(&line) {
                Ok(request) => dispatch(&jobs, request, shutdown).to_line(),
                // No trustworthy id or version to echo; answer at v1, the
                // floor every client parses.
                Err(error) => Response::error(-1, error).versioned(ProtocolVersion::V1).to_line(),
            };
            wire.push('\n');
            if stream.write_all(wire.as_bytes()).is_err() || stream.flush().is_err() {
                break 'connection;
            }
        }
        // A newline-free line already over the cap: answer once, then
        // drain the rest of it without buffering.
        if pending.len() > MAX_REQUEST_LINE && !discarding {
            discarding = true;
            pending.clear();
            if !send_line_cap_error(&mut stream) {
                break 'connection;
            }
        } else if discarding {
            pending.clear();
        }
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(error)
                if error.kind() == io::ErrorKind::WouldBlock
                    || error.kind() == io::ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
}

/// Writes the oversized-line protocol error; returns false if the
/// connection is gone.
fn send_line_cap_error(stream: &mut ByteStream) -> bool {
    let response = Response::error(-1, format!("request line exceeds {MAX_REQUEST_LINE} bytes"))
        .versioned(ProtocolVersion::V1);
    let mut wire = response.to_line();
    wire.push('\n');
    stream.write_all(wire.as_bytes()).is_ok() && stream.flush().is_ok()
}

/// Forwards one request to the dispatcher and blocks for its response,
/// polling the shutdown flag so a dying server never wedges a connection.
fn dispatch(jobs: &mpsc::Sender<Job>, request: Request, shutdown: &AtomicBool) -> Reply {
    let id = request.id;
    let version = request.version;
    let (reply_tx, reply_rx) = mpsc::channel();
    if jobs.send(Job { request, reply: reply_tx }).is_err() {
        return Response::error(id, "server is shutting down").versioned(version).into();
    }
    loop {
        match reply_rx.recv_timeout(POLL_INTERVAL) {
            Ok(reply) => return reply,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // The dispatcher may legitimately be mid-discharge; only a
                // dropped channel means the reply will never come.
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                return Response::error(id, "server is shutting down").versioned(version).into();
            }
        }
        if shutdown.load(Ordering::SeqCst) {
            // Give the dispatcher one last chance to have replied.
            if let Ok(reply) = reply_rx.try_recv() {
                return reply;
            }
            return Response::error(id, "server is shutting down").versioned(version).into();
        }
    }
}

/// The single dispatcher thread: drain the queue into a dispatch batch,
/// serve it in arrival order with consecutive `verify` ops aggregated into
/// one [`Engine::verify_batch`] call, sweep eviction between batches.
fn dispatch_loop(
    engine: &Engine,
    jobs: mpsc::Receiver<Job>,
    shutdown: &AtomicBool,
    local: &Endpoint,
) {
    while let Ok(first) = jobs.recv() {
        let mut batch = vec![first];
        while let Ok(job) = jobs.try_recv() {
            batch.push(job);
        }
        let mut verified = false;
        let mut stop = false;
        let mut at = 0;
        while at < batch.len() {
            if matches!(batch[at].request.op, Op::Verify { .. }) {
                let mut end = at;
                while end < batch.len() && matches!(batch[end].request.op, Op::Verify { .. }) {
                    end += 1;
                }
                serve_verify_run(engine, &batch[at..end]);
                verified = true;
                at = end;
            } else {
                if serve_one(engine, &batch[at]) {
                    stop = true;
                }
                at += 1;
            }
        }
        if verified {
            engine.evict();
        }
        if stop {
            shutdown.store(true, Ordering::SeqCst);
            // Unblock the accept loop so Server::run can join and return.
            let _ = ByteStream::connect(local);
            break;
        }
    }
}

/// Serves a run of consecutive `verify` jobs as one engine dispatch batch.
fn serve_verify_run(engine: &Engine, run: &[Job]) {
    let requests: Vec<VerifyRequest> = run
        .iter()
        .map(|job| match &job.request.op {
            Op::Verify { passes, backend } => {
                VerifyRequest { passes: passes.clone(), selection: *backend }
            }
            _ => unreachable!("verify runs hold only verify ops"),
        })
        .collect();
    let outcomes = engine.verify_batch(&requests);
    for (job, outcome) in run.iter().zip(outcomes) {
        let response = match (&job.request.op, outcome) {
            (Op::Verify { backend, .. }, Ok(outcome)) => {
                Response::ok(job.request.id, verify_value(&outcome, *backend))
            }
            (_, Ok(_)) => unreachable!("verify runs hold only verify ops"),
            (_, Err(error)) => Response::error(job.request.id, error),
        };
        let _ = job.reply.send(response.versioned(job.request.version).into());
    }
}

/// Serves one non-verify job; returns whether it was a shutdown request.
fn serve_one(engine: &Engine, job: &Job) -> bool {
    let id = job.request.id;
    let mut stop = false;
    let mut certificate = None;
    let response = match &job.request.op {
        Op::Status => Response::ok(id, status_value(&engine.status())),
        Op::Compile { circuit, device, seed } => match engine.compile(circuit, device, *seed) {
            Ok(outcome) => Response::ok(id, compile_value(&outcome)),
            Err(error) => Response::error(id, error),
        },
        Op::Certify { circuit, device, seed, backend } => {
            match engine.certify(circuit, device, *seed, *backend) {
                Ok(outcome) => {
                    let response = Response::ok(id, certify_value(&outcome));
                    certificate = Some(outcome.certificate);
                    response
                }
                Err(error) => Response::error(id, error),
            }
        }
        Op::Invalidate { pass, backend } => match engine.invalidate(pass, *backend) {
            Ok(removed) => Response::ok(
                id,
                Value::object(vec![
                    ("pass", Value::String(pass.clone())),
                    ("backend", Value::String(backend.id().to_string())),
                    ("removed", Value::Int(removed as i64)),
                ]),
            ),
            Err(error) => Response::error(id, error),
        },
        Op::Compact { retired_backends } => {
            let retired: Vec<&str> = retired_backends.iter().map(String::as_str).collect();
            let removed = engine.compact(&retired);
            Response::ok(id, Value::object(vec![("removed", Value::Int(removed as i64))]))
        }
        Op::Evict => Response::ok(id, evict_value(engine.evict())),
        Op::Shutdown => {
            stop = true;
            Response::ok(id, Value::object(vec![("stopping", Value::Bool(true))]))
        }
        Op::Verify { .. } => unreachable!("verify ops are served in runs"),
    };
    let _ =
        job.reply.send(Reply { response: response.versioned(job.request.version), certificate });
    stop
}

/// The `verify` result object.  `reports` carry timing; a deterministic
/// client drops it at render time, so the rendered report is bit-identical
/// to `giallar verify --deterministic` at the same cache state.
fn verify_value(outcome: &VerifyOutcome, backend: BackendSelection) -> Value {
    Value::object(vec![
        ("backend", Value::String(backend.id().to_string())),
        ("all_verified", Value::Bool(outcome.all_verified())),
        ("hits", Value::Int(outcome.hits as i64)),
        ("misses", Value::Int(outcome.misses as i64)),
        ("reports", Value::Array(outcome.reports.iter().map(|r| r.to_json_value(true)).collect())),
    ])
}

fn stats_value(stats: &CacheStats) -> Value {
    Value::object(vec![
        ("hits", Value::Int(stats.hits as i64)),
        ("misses", Value::Int(stats.misses as i64)),
        ("inserted", Value::Int(stats.inserted as i64)),
        ("evicted_lru", Value::Int(stats.evicted_lru as i64)),
        ("evicted_ttl", Value::Int(stats.evicted_ttl as i64)),
        ("compacted", Value::Int(stats.compacted as i64)),
        ("invalidated", Value::Int(stats.invalidated as i64)),
    ])
}

fn optional_count(count: Option<u64>) -> Value {
    match count {
        Some(count) => Value::Int(count as i64),
        None => Value::Null,
    }
}

fn status_value(status: &StatusSnapshot) -> Value {
    Value::object(vec![
        (
            "protocols",
            Value::Array(
                ProtocolVersion::ALL
                    .iter()
                    .map(|v| Value::String(v.schema().to_string()))
                    .collect(),
            ),
        ),
        ("passes", Value::Int(status.passes as i64)),
        ("subgoals", Value::Int(status.subgoals as i64)),
        (
            "policy",
            Value::object(vec![
                ("max_entries", optional_count(status.policy.max_entries.map(|n| n as u64))),
                ("ttl", optional_count(status.policy.ttl)),
            ]),
        ),
        ("ticks", Value::Int(status.ticks as i64)),
        ("served", Value::Int(status.served as i64)),
        ("rule_library_fingerprint", Value::String(status.rule_library.to_hex())),
        ("entries", Value::Int(status.entries as i64)),
        ("pinned", Value::Int(status.pinned as i64)),
        ("stats", stats_value(&status.stats)),
    ])
}

fn shape_value((qubits, gates, depth): (usize, usize, usize)) -> Value {
    Value::object(vec![
        ("qubits", Value::Int(qubits as i64)),
        ("gates", Value::Int(gates as i64)),
        ("depth", Value::Int(depth as i64)),
    ])
}

fn compile_value(outcome: &CompileOutcome) -> Value {
    Value::object(vec![
        ("circuit", Value::String(outcome.circuit.clone())),
        ("device", Value::String(outcome.device.clone())),
        ("seed", Value::Int(outcome.seed as i64)),
        ("input", shape_value(outcome.input)),
        ("output", shape_value(outcome.output)),
        (
            "swap_mapped",
            match outcome.swap_mapped {
                Some(mapped) => Value::Bool(mapped),
                None => Value::Null,
            },
        ),
        ("seconds", Value::Float(outcome.seconds)),
    ])
}

/// The `certify` result object's cache bookkeeping.  The certificate
/// document (what `giallar compile --certify` writes, so a client can
/// persist it byte-identically) leads it, written straight into the line.
fn certify_value(outcome: &CertifyOutcome) -> Value {
    Value::object(vec![
        ("cached", Value::Bool(outcome.cached)),
        ("cache_key", Value::String(outcome.cache_key.to_hex())),
        ("seconds", Value::Float(outcome.seconds)),
    ])
}

fn evict_value(summary: EvictionSummary) -> Value {
    Value::object(vec![
        ("evicted_lru", Value::Int(summary.evicted_lru as i64)),
        ("evicted_ttl", Value::Int(summary.evicted_ttl as i64)),
    ])
}

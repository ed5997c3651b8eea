//! `serve-mixed`: a `giallar serve` daemon on loopback driven by two
//! closed-loop client connections with a seeded mix of verify, edit and
//! certify ops.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use giallar_core::backend::BackendSelection;
use giallar_core::certificate::EquivalenceCertificate;
use giallar_core::json::Value;
use giallar_core::registry::verified_passes;
use giallar_serve::engine::{Engine, EngineConfig, VerifyRequest};
use giallar_serve::net::Endpoint;
use giallar_serve::server::Server;
use giallar_serve::Client;
use qc_symbolic::SymElement;

use crate::certify::DEVICE;
use crate::common::{self, median, shuffled_round, Clock, OpSample, Outcome, Rng, RunConfig};
use crate::trace::{durations_by_op, merge, Span, Tracer};

const SELECTION: BackendSelection = BackendSelection::Default;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
const REGISTRY_SUBGOALS: usize = 104;
const REGISTRY_PASSES: usize = 44;
/// The routing seed every `certify_warm` op uses; set-up prewarms it.
const WARM_SEED: u64 = 7;
/// Set-ups timed per run (each starts, prewarms and stops a daemon); the
/// median is reported.
const SETUPS: usize = 9;
/// Requests of each kind replayed on the engine after the load phase.
const REPLAYS_PER_KIND: usize = 40;

/// The suite circuits whose certificate stays under 50 KB, so the client's
/// parse of the returned certificate does not dominate an op.
const CERTIFY_POOL: [&str; 19] = [
    "bell",
    "deutsch",
    "ghz_3",
    "cat_state_3",
    "ghz_8",
    "cat_state_8",
    "ghz_16",
    "cat_state_16",
    "ghz_24",
    "cat_state_24",
    "bv_4",
    "bv_8",
    "bv_16",
    "adder_7",
    "qft_4",
    "grover_3",
    "qaoa_6_1",
    "wstate_4",
    "wstate_12",
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    VerifyAll,
    VerifyPass,
    Edit,
    CertifyWarm,
    CertifyCold,
}

const KINDS: [Kind; 5] =
    [Kind::VerifyAll, Kind::VerifyPass, Kind::Edit, Kind::CertifyWarm, Kind::CertifyCold];

/// One round per client: 35 % `verify_all`, 25 % `verify_pass`, 15 %
/// `edit`, 15 % `certify_warm`, 10 % `certify_cold`.
const MIX: [(Kind, usize); 5] = [
    (Kind::VerifyAll, 7),
    (Kind::VerifyPass, 5),
    (Kind::Edit, 3),
    (Kind::CertifyWarm, 3),
    (Kind::CertifyCold, 2),
];

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::VerifyAll => "verify_all",
            Kind::VerifyPass => "verify_pass",
            Kind::Edit => "edit",
            Kind::CertifyWarm => "certify_warm",
            Kind::CertifyCold => "certify_cold",
        }
    }

    fn op_span(self) -> &'static str {
        match self {
            Kind::VerifyAll => "serve.op.verify_all",
            Kind::VerifyPass => "serve.op.verify_pass",
            Kind::Edit => "serve.op.edit",
            Kind::CertifyWarm => "serve.op.certify_warm",
            Kind::CertifyCold => "serve.op.certify_cold",
        }
    }

    fn engine_span(self) -> &'static str {
        match self {
            Kind::VerifyAll => "serve.engine.verify_all",
            Kind::VerifyPass => "serve.engine.verify_pass",
            Kind::Edit => "serve.engine.edit",
            Kind::CertifyWarm => "serve.engine.certify_warm",
            Kind::CertifyCold => "serve.engine.certify_cold",
        }
    }
}

/// The drawn inputs of one op.
#[derive(Clone, Copy)]
enum Request {
    All,
    Pass(usize),
    Edit(usize),
    Certify { circuit: usize, seed: u64, warm: bool },
}

/// A finished op, kept for the oracle, the metrics and the engine replay.
struct Done {
    kind: Kind,
    request: Request,
    op_id: u64,
    sample: OpSample,
    /// For certify ops: whether the daemon answered from its cache.
    cached: Option<bool>,
    output_2q: Option<usize>,
}

struct Daemon {
    addr: String,
    engine: Arc<Engine>,
    handle: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Binds a daemon to a free loopback port and serves it on a thread.
    fn start() -> Daemon {
        let engine = Arc::new(Engine::new(EngineConfig::default()));
        let server = Server::bind(Arc::clone(&engine), &Endpoint::parse("127.0.0.1:0"))
            .expect("bind a loopback port");
        let addr = server.local_endpoint().to_string();
        let handle = std::thread::spawn(move || server.run());
        Daemon { addr, engine, handle }
    }

    fn stop(self) {
        let mut client = Client::connect(&self.addr).expect("connect for shutdown");
        client.shutdown().expect("the daemon acknowledges shutdown");
        self.handle.join().expect("server thread").expect("server run");
    }
}

struct Names {
    passes: Vec<String>,
    subgoals: Vec<usize>,
}

/// Starts a daemon, prewarms the registry and the pinned certify seeds,
/// and connects the load clients.
fn set_up() -> (Daemon, Vec<Client>) {
    let daemon = Daemon::start();
    let mut control = Client::connect(&daemon.addr).expect("connect");
    let cold = control.verify(None, SELECTION).expect("prewarm verify");
    assert!(verify_ok(&cold, REGISTRY_SUBGOALS), "the registry must verify during set-up");
    for circuit in CERTIFY_POOL {
        let reply =
            control.certify(circuit, DEVICE, WARM_SEED, SELECTION).expect("prewarm certify");
        assert!(certificate_of(&reply, circuit, WARM_SEED).is_some(), "{circuit} must certify");
    }
    let clients = (0..CLIENTS).map(|_| Client::connect(&daemon.addr).expect("connect")).collect();
    (daemon, clients)
}

fn int(value: &Value, key: &str) -> Option<i64> {
    value.get(key).and_then(Value::as_int)
}

/// A verify reply's known answer: every pass verified, and every subgoal
/// answered as a hit or a miss.
fn verify_ok(reply: &Value, subgoals: usize) -> bool {
    reply.get("all_verified").and_then(Value::as_bool) == Some(true)
        && match (int(reply, "hits"), int(reply, "misses")) {
            (Some(hits), Some(misses)) => hits + misses == subgoals as i64,
            _ => false,
        }
}

/// Decodes a certify reply's certificate; `None` unless it is for the
/// requested compilation and proved.
fn certificate_of(reply: &Value, circuit: &str, seed: u64) -> Option<EquivalenceCertificate> {
    let cert = EquivalenceCertificate::from_json(reply.get("certificate")?).ok()?;
    (cert.circuit == circuit && cert.seed == seed && cert.verdict.is_proved()).then_some(cert)
}

fn two_qubit_gates(cert: &EquivalenceCertificate) -> usize {
    cert.output
        .elements()
        .iter()
        .filter(|e| matches!(e, SymElement::Gate(g) if !g.is_directive() && g.num_qubits() == 2))
        .count()
}

/// Draws the inputs of one op.
fn draw(kind: Kind, rng: &mut Rng, cold_seed: &mut u64) -> Request {
    match kind {
        Kind::VerifyAll => Request::All,
        Kind::VerifyPass => Request::Pass(rng.below(REGISTRY_PASSES)),
        Kind::Edit => Request::Edit(rng.below(REGISTRY_PASSES)),
        Kind::CertifyWarm => {
            Request::Certify { circuit: rng.below(CERTIFY_POOL.len()), seed: WARM_SEED, warm: true }
        }
        Kind::CertifyCold => {
            *cold_seed += 1;
            Request::Certify {
                circuit: rng.below(CERTIFY_POOL.len()),
                seed: *cold_seed,
                warm: false,
            }
        }
    }
}

/// Sends one op and checks its known answer; returns (ok, cached, 2q gates).
fn execute(
    client: &mut Client,
    request: Request,
    names: &Names,
    wrong_answer: bool,
    tracer: &mut Tracer,
) -> (bool, Option<bool>, Option<usize>) {
    // The self-test expects one subgoal too many on every verify.
    let slack = usize::from(wrong_answer);
    match request {
        Request::All => {
            let reply = tracer.time("client.verify", || client.verify(None, SELECTION));
            (reply.is_ok_and(|r| verify_ok(&r, REGISTRY_SUBGOALS + slack)), None, None)
        }
        Request::Pass(pass) | Request::Edit(pass) => {
            let name = &names.passes[pass];
            let removed = match request {
                Request::Edit(_) => {
                    let reply =
                        tracer.time("client.invalidate", || client.invalidate(name, SELECTION));
                    reply.is_ok_and(|r| int(&r, "removed").is_some())
                }
                _ => true,
            };
            let reply =
                tracer.time("client.verify", || client.verify(Some(vec![name.clone()]), SELECTION));
            (
                removed && reply.is_ok_and(|r| verify_ok(&r, names.subgoals[pass] + slack)),
                None,
                None,
            )
        }
        Request::Certify { circuit, seed, warm } => {
            let name = CERTIFY_POOL[circuit];
            let reply =
                tracer.time("client.certify", || client.certify(name, DEVICE, seed, SELECTION));
            let Ok(reply) = reply else { return (false, None, None) };
            let cert = tracer.time("certificate.decode", || certificate_of(&reply, name, seed));
            let cached = reply.get("cached").and_then(Value::as_bool);
            // Warm ops must hit the daemon's cache; fresh seeds must miss.
            let ok = cert.is_some() && cached == Some(warm != wrong_answer);
            (ok, cached, cert.as_ref().map(two_qubit_gates))
        }
    }
}

/// One client's closed loop until the deadline; finishes its last round.
fn client_loop(
    index: usize,
    mut client: Client,
    names: &Names,
    config: &RunConfig,
    start: Instant,
) -> (Vec<Done>, Vec<Span>) {
    let mut rng = Rng::new(config.seed, &format!("serve-mixed/client-{index}"));
    // Fresh seeds never repeat within a client and never meet the other
    // client's range, the engine replay's range or the pinned warm seed.
    let mut cold_seed = (index as u64 + 1) << 32;
    let mut tracer = Tracer::new(start);
    let mut done = Vec::new();
    let mut round_index = 0;
    let mut count = 0u64;
    while start.elapsed().as_secs_f64() < config.seconds {
        let traced = config.traces_round(round_index);
        round_index += 1;
        tracer.set_enabled(traced);
        for kind in shuffled_round(&MIX, &mut rng) {
            count += 1;
            let op_id = count * CLIENTS as u64 + index as u64;
            let request = draw(kind, &mut rng, &mut cold_seed);
            let op_start = Instant::now();
            tracer.begin_op(op_id, kind.op_span());
            let (ok, cached, output_2q) =
                execute(&mut client, request, names, config.wrong_answer, &mut tracer);
            tracer.exit();
            let latency_ms = crate::common::ms_since(op_start);
            let done_s = start.elapsed().as_secs_f64();
            done.push(Done {
                kind,
                request,
                op_id,
                sample: OpSample { latency_ms, ok, traced, done_s, input: None },
                cached,
                output_2q,
            });
        }
    }
    tracer.set_enabled(false);
    (done, tracer.into_spans())
}

/// Replays a sample of the traced requests in process on the daemon's
/// engine, as shadow spans of the ops they came from.  A cold certify
/// replays with a fresh seed of its own range, so it misses the cache as
/// the original did; every certify replay must answer from the cache
/// exactly when its original did.
fn replay_on_engine(engine: &Engine, done: &[Done], names: &Names, tracer: &mut Tracer) {
    let mut replay_seed = (CLIENTS as u64 + 1) << 32;
    for kind in KINDS {
        let traced: Vec<&Done> =
            done.iter().filter(|d| d.kind == kind && d.sample.traced).collect();
        let step = traced.len().div_ceil(REPLAYS_PER_KIND).max(1);
        for op in traced.iter().step_by(step) {
            tracer.begin_shadow(op.op_id, "serve.replay");
            tracer.enter(kind.engine_span());
            let ok = match op.request {
                Request::All => engine.verify(&VerifyRequest::full_registry()).is_ok(),
                Request::Pass(pass) => {
                    engine.verify(&VerifyRequest::single(&names.passes[pass])).is_ok()
                }
                Request::Edit(pass) => {
                    let name = &names.passes[pass];
                    engine.invalidate(name, SELECTION).is_ok()
                        && engine.verify(&VerifyRequest::single(name)).is_ok()
                }
                Request::Certify { circuit, seed, warm } => {
                    let seed = if warm {
                        seed
                    } else {
                        replay_seed += 1;
                        replay_seed
                    };
                    let reply = engine.certify(CERTIFY_POOL[circuit], DEVICE, seed, SELECTION);
                    reply.is_ok_and(|outcome| Some(outcome.cached) == op.cached)
                }
            };
            tracer.exit();
            tracer.exit();
            assert!(ok, "a replayed {} request must succeed", kind.name());
        }
    }
}

/// The counters of the `status` op the metrics difference.
struct Status {
    served: f64,
    ticks: f64,
    hits: f64,
    misses: f64,
    invalidated: f64,
}

fn status(client: &mut Client) -> Status {
    let reply = client.status().expect("status");
    let get = |value: &Value, key: &str| int(value, key).unwrap_or(0) as f64;
    let stats = reply.get("stats").cloned().unwrap_or(Value::Null);
    Status {
        served: get(&reply, "served"),
        ticks: get(&reply, "ticks"),
        hits: get(&stats, "hits"),
        misses: get(&stats, "misses"),
        invalidated: get(&stats, "invalidated"),
    }
}

pub fn run(config: &RunConfig) -> Outcome {
    let passes = verified_passes();
    let names = Names {
        passes: passes.iter().map(|p| p.name.to_string()).collect(),
        subgoals: passes.iter().map(|p| (p.obligations)().len()).collect(),
    };
    assert_eq!(names.passes.len(), REGISTRY_PASSES);
    let mut outcome = Outcome { clients: CLIENTS, ..Outcome::default() };
    outcome.pool = CERTIFY_POOL.iter().map(|c| c.to_string()).collect();
    let device_width = qc_ir::CouplingMap::from_spec(DEVICE).expect("known device").num_qubits();
    outcome.excluded = qasmbench::benchmark_suite()
        .into_iter()
        .filter(|b| {
            b.circuit.num_qubits() <= device_width && !CERTIFY_POOL.contains(&b.name.as_str())
        })
        .map(|b| {
            (b.name, "certificate of 50 KB or more; the client's parse would dominate".to_string())
        })
        .collect();
    let mut running = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let fresh = set_up();
        // The daemon is idle here, so the calibration sees only the host.
        outcome.setup_s.push(common::calibrated_s(start.elapsed()));
        if let Some((daemon, clients)) = running.replace(fresh) {
            drop(clients);
            daemon.stop();
        }
    }
    let (daemon, clients) = running.expect("at least one set-up");
    let mut control = Client::connect(&daemon.addr).expect("connect");
    let before = status(&mut control);

    let mut clock = Clock::start();
    let start = clock.started();
    let results: Vec<(Vec<Done>, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(index, client)| {
                let names = &names;
                scope.spawn(move || client_loop(index, client, names, config, start))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    clock.mark();
    outcome.marks = clock.into_marks();
    let after = status(&mut control);

    let (done, span_lists): (Vec<Vec<Done>>, Vec<Vec<Span>>) = results.into_iter().unzip();
    let done: Vec<Done> = done.into_iter().flatten().collect();
    let mut spans = merge(span_lists);
    if config.trace {
        let mut tracer = Tracer::new(start);
        tracer.set_enabled(true);
        replay_on_engine(&daemon.engine, &done, &names, &mut tracer);
        spans = merge(vec![spans, tracer.into_spans()]);
    }
    drop(control);
    daemon.stop();

    outcome.spans = spans;
    if config.trace {
        layers(&mut outcome, &done, &before, &after);
    }
    for op in done {
        outcome.output_2q.extend(op.output_2q.map(|g| g as f64));
        outcome.ops.push(op.sample);
    }
    outcome
}

fn layers(outcome: &mut Outcome, done: &[Done], before: &Status, after: &Status) {
    let by_op = durations_by_op(&outcome.spans);
    for kind in KINDS {
        let rtt: Vec<f64> = done
            .iter()
            .filter(|d| d.kind == kind && d.sample.traced)
            .map(|d| d.sample.latency_ms)
            .collect();
        let engine: Vec<f64> =
            by_op.values().filter_map(|names| names.get(kind.engine_span()).copied()).collect();
        let (rtt, engine) = (median(&rtt), median(&engine));
        outcome.layer(format!("serve.rtt_ms.{}", kind.name()), rtt, "ms");
        outcome.layer(format!("serve.engine_ms.{}", kind.name()), engine, "ms");
        outcome.layer(format!("serve.wire_ms.{}", kind.name()), rtt - engine, "ms");
    }
    let ticks = (after.ticks - before.ticks).max(1.0);
    outcome.layer("serve.verify_batch_mean", (after.served - before.served) / ticks, "count");
    let lookups = (after.hits - before.hits) + (after.misses - before.misses);
    outcome.layer("serve.shard_hit_ratio", (after.hits - before.hits) / lookups.max(1.0), "ratio");
    outcome.layer("serve.invalidated", after.invalidated - before.invalidated, "count");
    let certifies: Vec<bool> = done.iter().filter_map(|d| d.cached).collect();
    let cached = certifies.iter().filter(|&&c| c).count() as f64;
    outcome.layer("serve.certify_cached_ratio", cached / (certifies.len().max(1) as f64), "ratio");
}

//! The serve-scenario artifact (`BENCH_serve_latency.json`).
//!
//! Replays registry-shaped requests against a real `giallar serve` daemon
//! on a loopback TCP socket and records each scenario's per-request cache
//! shape.  Seven scenarios:
//!
//! * `cold/full_registry` — a fresh daemon: the request pays the full
//!   104-obligation discharge (obligations and fingerprints are already
//!   resident — that is the daemon's cold story).
//! * `warm/full_registry` — one prewarmed daemon: every obligation answers
//!   from the resident cache.
//! * `warm/pass_sweep` — the 44-pass registry replayed one request per pass
//!   against a warm daemon (the shape of the serve-smoke CI job).
//! * `warm/concurrent_clients` — four client threads firing full-registry
//!   requests at once, exercising dispatch batching.
//! * `certify/cold_stream` — a `certify` request with a fresh compile seed:
//!   the seed is part of the certificate's cache key, so the request pays a
//!   full compile + certificate emission (`cached: false`).
//! * `certify/warm_stream` — the certify request repeated at one pinned
//!   seed: after the prewarm, the verdict answers from the resident
//!   certificate cache (`cached: true`).
//! * `certify/concurrent_clients` — four client threads firing warm
//!   certify requests at once, mixing the certify op into the daemon's
//!   dispatch batching.
//!
//! Every row is structural (scenario name, per-request hit and miss counts
//! — for certify scenarios the resident-cache `cached` flag, mapped to
//! 1/0) and drift-checked by `giallar bench --check`.  Daemon latency is
//! measured, with warm-up, sampling, and bounds, by the `serve-mixed`
//! workload of the repository benchmark (`perfbench/`).

use std::sync::Arc;

use giallar_core::backend::BackendSelection;
use giallar_core::json::Value;
use giallar_serve::engine::{Engine, EngineConfig};
use giallar_serve::net::Endpoint;
use giallar_serve::server::Server;
use giallar_serve::Client;

/// Total obligations across the 44-pass registry (Table 2).
const REGISTRY_SUBGOALS: usize = 104;

/// Device every certify-scenario request compiles for.
const CERTIFY_DEVICE: &str = "falcon27";

/// Pinned compile seed of the warm certify scenarios (the cold request
/// uses a fresh seed — the seed is part of the certificate cache key).
const CERTIFY_SEED: u64 = 7;

/// The fresh seed of `certify/cold_stream`, far from any seed other
/// scenarios or tests pin.
const CERTIFY_COLD_SEED: u64 = 9_000;

/// One scenario of the serve harness.
#[derive(Debug, Clone)]
pub struct ServeLatencyRow {
    /// Scenario name, e.g. `warm/full_registry`.
    pub name: String,
    /// Cache hits every request in the scenario observes (deterministic).
    pub hits: usize,
    /// Cache misses every request in the scenario observes (deterministic).
    pub misses: usize,
}

/// Starts a daemon on a free loopback port; returns the address and the
/// server thread handle (joined after a `shutdown` request).
fn start_server() -> (String, std::thread::JoinHandle<std::io::Result<()>>) {
    let engine = Arc::new(Engine::new(EngineConfig::default()));
    let server = Server::bind(engine, &Endpoint::parse("127.0.0.1:0")).expect("bind loopback");
    let addr = server.local_endpoint().to_string();
    (addr, std::thread::spawn(move || server.run()))
}

/// One verify round-trip; asserts the scenario's deterministic hit/miss
/// shape so a caching regression fails the harness.
fn verify(client: &mut Client, hits: usize, misses: usize) {
    let result = client.verify(None, BackendSelection::Default).expect("served verify");
    assert_eq!(result.get("all_verified").and_then(Value::as_bool), Some(true));
    assert_eq!(
        (result.get("hits").and_then(Value::as_int), result.get("misses").and_then(Value::as_int)),
        (Some(hits as i64), Some(misses as i64)),
        "scenario hit/miss shape drifted"
    );
}

/// One `certify` round-trip; asserts the scenario's deterministic
/// resident-cache shape (`cached`) so a certificate-caching regression
/// fails the harness.
fn certify(client: &mut Client, circuit: &str, seed: u64, expect_cached: bool) {
    let result = client
        .certify(circuit, CERTIFY_DEVICE, seed, BackendSelection::Default)
        .expect("served certify");
    assert_eq!(
        result.get("cached").and_then(Value::as_bool),
        Some(expect_cached),
        "certify cache shape drifted"
    );
}

/// Runs `request` once on each of four concurrent client connections.
fn concurrently(addr: &str, request: impl Fn(&mut Client) + Sync) {
    std::thread::scope(|scope| {
        for _ in 0..4 {
            scope.spawn(|| request(&mut Client::connect(addr).expect("connect")));
        }
    });
}

/// The smallest named QASMBench circuit: the certify scenarios exercise the
/// daemon's op dispatch and certificate caching, not compile scaling.
fn certify_circuit() -> String {
    qasmbench::benchmark_suite()
        .into_iter()
        .min_by_key(|b| (b.circuit.num_qubits(), b.circuit.size()))
        .expect("benchmark suite is not empty")
        .name
}

fn shutdown(addr: &str, handle: std::thread::JoinHandle<std::io::Result<()>>) {
    let mut client = Client::connect(addr).expect("connect for shutdown");
    client.shutdown().expect("shutdown");
    handle.join().expect("server thread").expect("server run");
}

/// Runs the seven serve scenarios, one request (per client) each, and
/// returns their cache shapes.
pub fn serve_latency_rows() -> Vec<ServeLatencyRow> {
    let row = |name: &str, hits, misses| ServeLatencyRow { name: name.to_string(), hits, misses };
    let mut rows = Vec::new();

    // --- cold/full_registry: a fresh daemon (empty cache). ---------------
    let (addr, handle) = start_server();
    verify(&mut Client::connect(&addr).expect("connect"), 0, REGISTRY_SUBGOALS);
    shutdown(&addr, handle);
    rows.push(row("cold/full_registry", 0, REGISTRY_SUBGOALS));

    // --- the remaining scenarios share one prewarmed daemon. -------------
    let (addr, handle) = start_server();
    let mut client = Client::connect(&addr).expect("connect");
    verify(&mut client, 0, REGISTRY_SUBGOALS); // prewarm

    verify(&mut client, REGISTRY_SUBGOALS, 0);
    rows.push(row("warm/full_registry", REGISTRY_SUBGOALS, 0));

    // Registry replay, one request per pass: per-pass hit counts vary (the
    // registry's 104 obligations dedupe across passes, but every obligation
    // of a pass is a hit when warm), so assert per-request misses inline.
    for pass in giallar_core::registry::verified_passes() {
        let result = client
            .verify(Some(vec![pass.name.to_string()]), BackendSelection::Default)
            .expect("served per-pass verify");
        assert_eq!(result.get("misses").and_then(Value::as_int), Some(0), "{} not warm", pass.name);
    }
    rows.push(row("warm/pass_sweep", REGISTRY_SUBGOALS, 0));

    concurrently(&addr, |client| verify(client, REGISTRY_SUBGOALS, 0));
    rows.push(row("warm/concurrent_clients", REGISTRY_SUBGOALS, 0));

    // --- certify/cold_stream: a fresh compile seed misses the resident
    // certificate cache and pays the full compile + certificate emission.
    let circuit = certify_circuit();
    certify(&mut client, &circuit, CERTIFY_COLD_SEED, false);
    rows.push(row("certify/cold_stream", 0, 1));

    // --- certify/warm_stream: one pinned seed, prewarmed, answers from
    // the resident certificate cache.
    certify(&mut client, &circuit, CERTIFY_SEED, false); // prewarm
    certify(&mut client, &circuit, CERTIFY_SEED, true);
    rows.push(row("certify/warm_stream", 1, 0));

    // --- certify/concurrent_clients: four clients firing warm certify
    // requests at once.
    concurrently(&addr, |client| certify(client, &circuit, CERTIFY_SEED, true));
    rows.push(row("certify/concurrent_clients", 1, 0));

    shutdown(&addr, handle);
    rows
}

/// The canonical serve-scenario artifact (`BENCH_serve_latency.json`):
/// scenario names and per-request hit/miss shapes, all deterministic.
pub fn serve_latency_artifact_json(rows: &[ServeLatencyRow]) -> String {
    let rows_json: Vec<Value> = rows
        .iter()
        .map(|row| {
            Value::object(vec![
                ("name", Value::String(row.name.clone())),
                ("hits_per_request", Value::Int(row.hits as i64)),
                ("misses_per_request", Value::Int(row.misses as i64)),
            ])
        })
        .collect();
    Value::object(vec![
        ("benchmark", Value::String("serve_latency".to_string())),
        ("schema", Value::String("giallar-bench/v2".to_string())),
        ("protocol", Value::String(giallar_serve::SCHEMA.to_string())),
        ("passes", Value::Int(44)),
        ("subgoals", Value::Int(REGISTRY_SUBGOALS as i64)),
        (
            "rule_library_fingerprint",
            Value::String(qc_symbolic::rule_library_fingerprint().to_hex()),
        ),
        ("scenarios", Value::Int(rows.len() as i64)),
        ("rows", Value::Array(rows_json)),
    ])
    .to_pretty()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_run_and_the_artifact_is_deterministic() {
        let rows = serve_latency_rows();
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].name, "cold/full_registry");
        assert_eq!((rows[0].hits, rows[0].misses), (0, REGISTRY_SUBGOALS));
        assert!(
            rows.iter().filter(|r| r.name.starts_with("warm/")).all(|r| r.misses == 0),
            "warm scenarios never miss"
        );
        let cold_certify = rows.iter().find(|r| r.name == "certify/cold_stream").unwrap();
        assert_eq!((cold_certify.hits, cold_certify.misses), (0, 1));
        for name in ["certify/warm_stream", "certify/concurrent_clients"] {
            let warm_certify = rows.iter().find(|r| r.name == name).unwrap();
            assert_eq!((warm_certify.hits, warm_certify.misses), (1, 0), "{name}");
        }

        let artifact = serve_latency_artifact_json(&rows);
        assert_eq!(artifact, serve_latency_artifact_json(&serve_latency_rows()));
        let doc = giallar_core::json::parse(&artifact).unwrap();
        assert_eq!(crate::strip_timing(&doc), doc, "the artifact carries no timing");
    }
}

//! End-to-end tests of the resident verification service through the
//! facade: served verdicts must match the in-process verifier exactly, and
//! cache-management ops (invalidate, compact, evict) must behave under an
//! aggressive eviction policy without ever corrupting a verdict.

use std::sync::Arc;
use std::thread;

use giallar::core::backend::BackendSelection;
use giallar::core::cache::{EvictionPolicy, VerdictCache};
use giallar::core::json::Value;
use giallar::core::registry::verified_passes;
use giallar::core::verifier::{reports_agree, verify_passes_cached_with, PassReport};
use giallar::serve::engine::{Engine, EngineConfig};
use giallar::serve::net::Endpoint;
use giallar::serve::server::Server;
use giallar::serve::Client;

fn start_server(config: EngineConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let engine = Arc::new(Engine::new(config));
    let server = Server::bind(engine, &Endpoint::parse("127.0.0.1:0")).expect("bind");
    let addr = server.local_endpoint().to_string();
    (addr, thread::spawn(move || server.run()))
}

fn decoded_reports(result: &Value) -> Vec<PassReport> {
    match result.get("reports") {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| PassReport::from_json_value(item).expect("well-formed report"))
            .collect(),
        other => panic!("bad reports member: {other:?}"),
    }
}

#[test]
fn served_reports_match_the_in_process_verifier_cold_and_warm() {
    let (addr, handle) = start_server(EngineConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let mut cache = VerdictCache::new();
    let local =
        verify_passes_cached_with(&verified_passes(), &mut cache, BackendSelection::Default);

    let cold = client.verify(None, BackendSelection::Default).expect("cold");
    assert!(reports_agree(&local, &decoded_reports(&cold)));
    let warm = client.verify(None, BackendSelection::Default).expect("warm");
    assert!(reports_agree(&local, &decoded_reports(&warm)));
    assert_eq!(warm.get("misses").and_then(Value::as_int), Some(0));

    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

#[test]
fn verdicts_stay_correct_under_an_aggressive_eviction_policy() {
    // Capacity far below the 41 unique registry entries and a 1-batch TTL:
    // every eviction sweep (one per dispatch batch) expires whatever the
    // in-flight request is not holding.  Requests must still verify — only
    // the hit ratio may suffer.
    let config = EngineConfig { policy: EvictionPolicy { max_entries: Some(8), ttl: Some(1) } };
    let (addr, handle) = start_server(config);
    let mut client = Client::connect(&addr).expect("connect");

    let mut cache = VerdictCache::new();
    let local =
        verify_passes_cached_with(&verified_passes(), &mut cache, BackendSelection::Default);

    for round in 0..3 {
        let served = client.verify(None, BackendSelection::Default).expect("verify");
        assert!(
            reports_agree(&local, &decoded_reports(&served)),
            "round {round}: eviction pressure changed a served verdict"
        );
    }
    // The policy is actually biting: the resident census stays at or below
    // the configured capacity after the post-batch sweep.
    let status = client.status().expect("status");
    let entries = status.get("entries").and_then(Value::as_int).expect("entries");
    assert!(entries <= 8, "policy ignored: {entries} entries resident");

    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

#[test]
fn invalidate_compact_and_evict_round_trip_over_the_wire() {
    // A bounded store with room for one pass's entries under both routings
    // (at most 2 × 6), so the sweeps after each warm-up keep both sets.
    let (addr, handle) =
        start_server(EngineConfig { policy: EvictionPolicy { max_entries: Some(12), ttl: None } });
    let mut client = Client::connect(&addr).expect("connect");

    // Warm one pass under each routing.
    for backend in [BackendSelection::Default, BackendSelection::Reference] {
        let result = client
            .verify(Some(vec!["CXCancellation".to_string()]), backend)
            .expect("warm one pass");
        assert_eq!(result.get("all_verified").and_then(Value::as_bool), Some(true));
    }
    let entries_before = {
        let status = client.status().expect("status");
        status.get("entries").and_then(Value::as_int).expect("entries")
    };
    assert!(entries_before > 0);

    // Compacting the reference backend drops exactly its entries.
    let compacted = client.compact(vec!["reference".to_string()]).expect("compact");
    let removed = compacted.get("removed").and_then(Value::as_int).expect("removed");
    assert!(removed > 0);

    // Invalidating the pass under the default routing drops the rest.
    let invalidated =
        client.invalidate("CXCancellation", BackendSelection::Default).expect("invalidate");
    assert!(invalidated.get("removed").and_then(Value::as_int).expect("removed") > 0);

    // An explicit eviction sweep on the now-empty cache is a no-op.
    let evicted = client.evict().expect("evict");
    assert_eq!(evicted.get("evicted_lru").and_then(Value::as_int), Some(0));
    let status = client.status().expect("status");
    assert_eq!(status.get("entries").and_then(Value::as_int), Some(0));

    // And the next request simply re-discharges.
    let recheck = client
        .verify(Some(vec!["CXCancellation".to_string()]), BackendSelection::Default)
        .expect("recheck");
    assert_eq!(recheck.get("all_verified").and_then(Value::as_bool), Some(true));
    assert_eq!(recheck.get("hits").and_then(Value::as_int), Some(0));

    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

#[test]
fn concurrent_mixed_traffic_never_disagrees() {
    let (addr, handle) = start_server(EngineConfig::default());
    let mut cache = VerdictCache::new();
    let local =
        verify_passes_cached_with(&verified_passes(), &mut cache, BackendSelection::Default);
    let local = &local;

    thread::scope(|scope| {
        let joins: Vec<_> = (0..6)
            .map(|worker: usize| {
                let addr = addr.clone();
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    for _ in 0..3 {
                        let passes = if worker.is_multiple_of(2) {
                            None
                        } else {
                            Some(vec!["CXCancellation".to_string(), "CheckMap".to_string()])
                        };
                        let result = client
                            .verify(passes.clone(), BackendSelection::Default)
                            .expect("verify");
                        let reports = decoded_reports(&result);
                        match passes {
                            None => assert!(reports_agree(local, &reports)),
                            Some(names) => {
                                assert_eq!(reports.len(), names.len());
                                assert!(reports.iter().all(|r| r.verified));
                            }
                        }
                    }
                })
            })
            .collect();
        for join in joins {
            join.join().expect("worker");
        }
    });

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

/// Sends raw bytes on an existing stream and reads one response line back.
fn raw_round_trip(stream: &mut std::net::TcpStream, payload: &[u8]) -> String {
    use std::io::{BufRead, BufReader, Write};
    stream.write_all(payload).expect("write payload");
    stream.flush().expect("flush");
    let mut line = String::new();
    BufReader::new(stream.try_clone().expect("clone stream"))
        .read_line(&mut line)
        .expect("read response line");
    line
}

fn parse_response(line: &str) -> Value {
    giallar::core::json::parse(line.trim_end()).expect("response is well-formed JSON")
}

#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let (addr, handle) = start_server(EngineConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect raw");

    // Garbage that is not JSON at all.
    let response = parse_response(&raw_round_trip(&mut stream, b"this is not json\n"));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    assert!(response.get("error").and_then(Value::as_str).is_some(), "no structured error");

    // Valid JSON that is not a request.
    let response = parse_response(&raw_round_trip(&mut stream, b"{\"hello\":42}\n"));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));

    // Non-UTF-8 bytes: replaced lossily, then rejected as a parse error.
    let response = parse_response(&raw_round_trip(&mut stream, b"\xff\xfe\x80garbage\xc0\n"));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));

    // A well-formed request naming a retired backend.
    let response = parse_response(&raw_round_trip(
        &mut stream,
        b"{\"schema\":\"giallar-serve/v2\",\"id\":3,\"op\":\"verify\",\"backend\":\"saturate\"}\n",
    ));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    let error = response.get("error").and_then(Value::as_str).expect("error text");
    assert!(error.contains("unknown backend `saturate`"), "unexpected error: {error}");

    // The same connection still serves a valid request afterwards.
    let status = raw_round_trip(
        &mut stream,
        b"{\"schema\":\"giallar-serve/v1\",\"id\":7,\"op\":\"status\"}\n",
    );
    let status = parse_response(&status);
    assert_eq!(status.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(status.get("id").and_then(Value::as_int), Some(7));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

#[test]
fn oversized_request_lines_are_rejected_without_killing_the_connection() {
    use giallar::serve::server::MAX_REQUEST_LINE;
    use std::io::Write;

    let (addr, handle) = start_server(EngineConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect raw");

    // One oversized line delivered whole: exactly one protocol error.
    let mut oversized = vec![b'a'; MAX_REQUEST_LINE + 16];
    oversized.push(b'\n');
    let response = parse_response(&raw_round_trip(&mut stream, &oversized));
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    let error = response.get("error").and_then(Value::as_str).expect("error text");
    assert!(error.contains("exceeds"), "unexpected error: {error}");

    // An oversized line streamed without its newline: the error arrives as
    // soon as the cap is crossed, the tail is discarded as it streams in,
    // and the next line is served normally.
    let chunk = vec![b'b'; MAX_REQUEST_LINE + 4096];
    stream.write_all(&chunk).expect("stream oversized head");
    stream.flush().expect("flush");
    let mut line = String::new();
    {
        use std::io::{BufRead, BufReader};
        BufReader::new(stream.try_clone().expect("clone"))
            .read_line(&mut line)
            .expect("read cap error");
    }
    let response = parse_response(&line);
    assert_eq!(response.get("ok").and_then(Value::as_bool), Some(false));
    // Finish the oversized line (silently swallowed), then a valid request.
    let status = raw_round_trip(
        &mut stream,
        b"tail\n{\"schema\":\"giallar-serve/v1\",\"id\":9,\"op\":\"status\"}\n",
    );
    let status = parse_response(&status);
    assert_eq!(status.get("ok").and_then(Value::as_bool), Some(true));
    assert_eq!(status.get("id").and_then(Value::as_int), Some(9));

    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().expect("join").expect("run");
}

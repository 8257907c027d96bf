//! End-to-end robustness envelope: real sockets, real worker pool, every
//! failure mode driven deterministically through the seeded chaos
//! middleware and asserted from the client side.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;
use wavm3_serve::http::{roundtrip, ClientResponse, MAX_HEAD_BYTES};
use wavm3_serve::{BreakerConfig, ChaosConfig, ServeConfig, ServerHandle};

fn connect(handle: &ServerHandle) -> TcpStream {
    let stream = TcpStream::connect(handle.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

fn post(
    handle: &ServerHandle,
    path: &str,
    body: &str,
    headers: &[(&str, String)],
) -> ClientResponse {
    let mut stream = connect(handle);
    roundtrip(&mut stream, "POST", path, headers, body.as_bytes()).expect("roundtrip")
}

fn get(handle: &ServerHandle, path: &str) -> ClientResponse {
    let mut stream = connect(handle);
    roundtrip(&mut stream, "GET", path, &[], b"").expect("roundtrip")
}

fn degraded_flag(response: &ClientResponse) -> bool {
    let v: serde::Value = serde_json::from_str(&response.body_text()).expect("json body");
    matches!(v.get("degraded"), Some(serde::Value::Bool(true)))
}

fn quiet() -> ServeConfig {
    ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
}

#[test]
fn predict_and_plan_answer_with_real_coefficients() {
    let handle = wavm3_serve::start(quiet()).expect("start");
    let predict = post(
        &handle,
        "/predict",
        r#"{"kind": "live", "ram_mib": 4096}"#,
        &[],
    );
    assert_eq!(predict.status, 200, "{}", predict.body_text());
    let v: serde::Value = serde_json::from_str(&predict.body_text()).unwrap();
    assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("live"));
    assert!(!degraded_flag(&predict));
    match v.get("total_energy_j") {
        Some(serde::Value::F64(e)) => assert!(*e > 0.0 && e.is_finite(), "{e}"),
        other => panic!("total_energy_j missing or non-float: {other:?}"),
    }

    let plan = post(
        &handle,
        "/plan",
        r#"{"kind": "non_live", "ram_mib": 2048, "machine_set": "O"}"#,
        &[],
    );
    assert_eq!(plan.status, 200, "{}", plan.body_text());
    let v: serde::Value = serde_json::from_str(&plan.body_text()).unwrap();
    assert_eq!(v.get("machine_set").and_then(|k| k.as_str()), Some("O"));
    assert!(matches!(v.get("est_bytes"), Some(serde::Value::U64(b)) if *b > 0));

    let health = get(&handle, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.body_text().contains("\"breaker\": \"closed\""));

    let report = handle.join();
    assert_eq!(report.accepted, report.completed + report.shed);
}

#[test]
fn malformed_and_unknown_requests_stay_client_errors() {
    let handle = wavm3_serve::start(quiet()).expect("start");
    let bad = post(&handle, "/predict", "{not json", &[]);
    assert_eq!(bad.status, 400);
    assert!(bad.body_text().contains("bad_request"));

    let missing = post(&handle, "/predict", r#"{"ram_mib": 512}"#, &[]);
    assert_eq!(missing.status, 400);
    assert!(missing
        .body_text()
        .contains("missing required field `kind`"));

    let nowhere = get(&handle, "/nope");
    assert_eq!(nowhere.status, 404);

    let wrong_method = get(&handle, "/predict");
    assert_eq!(wrong_method.status, 405);

    // The head cap counts through the blank line that ends the head, also
    // when the whole head arrives in one write.
    for (len, status) in [(MAX_HEAD_BYTES, "200"), (MAX_HEAD_BYTES + 1, "400")] {
        let start = "GET /healthz HTTP/1.1\r\nx-pad: ";
        let head = format!("{start}{}\r\n\r\n", "a".repeat(len - start.len() - 4));
        assert_eq!(head.len(), len);
        let mut stream = connect(&handle);
        stream.write_all(head.as_bytes()).expect("write head");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert_eq!(
            response.split_whitespace().nth(1),
            Some(status),
            "a {len}-byte head: {response}"
        );
    }

    // A length is `1*DIGIT` (no sign), and repeated lengths must agree
    // (RFC 9112 §6.3). Each request arrives in one write, body included.
    for length in [
        "content-length: +5",
        "content-length: 5\r\ncontent-length: 6",
    ] {
        let request = format!("GET /healthz HTTP/1.1\r\n{length}\r\n\r\nhello");
        let mut stream = connect(&handle);
        stream.write_all(request.as_bytes()).expect("write request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        assert_eq!(
            response.split_whitespace().nth(1),
            Some("400"),
            "{length:?}: {response}"
        );
    }

    let snapshot = handle.registry().snapshot();
    assert_eq!(
        snapshot.counters.get("serve.responses.client_error"),
        Some(&2)
    );
    // Client bugs never feed the breaker.
    assert!(!snapshot.counters.contains_key("serve.breaker.opened"));
    handle.join();
}

#[test]
fn injected_latency_beyond_the_deadline_is_a_503_with_retry_after() {
    let cfg = ServeConfig {
        chaos: ChaosConfig {
            seed: 5,
            latency_probability: 1.0,
            min_latency_ms: 200,
            max_latency_ms: 200,
            error_probability: 0.0,
            drop_probability: 0.0,
        },
        ..quiet()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let response = post(
        &handle,
        "/predict",
        r#"{"kind": "live", "ram_mib": 1024}"#,
        &[("x-wavm3-deadline-ms", "100".to_string())],
    );
    assert_eq!(response.status, 503, "{}", response.body_text());
    assert!(response.body_text().contains("deadline_exceeded"));
    assert_eq!(response.header("retry-after"), Some("1"));

    let snapshot = handle.registry().snapshot();
    assert_eq!(snapshot.counters.get("serve.deadline.breached"), Some(&1));
    assert_eq!(
        snapshot.counters.get("serve.chaos.latency_injected"),
        Some(&1)
    );
    handle.join();
}

#[test]
fn breaker_trips_to_the_degraded_fast_path_instead_of_erroring() {
    let cfg = ServeConfig {
        breaker: BreakerConfig {
            failure_threshold: 3,
            cooldown_us: 3_600_000_000, // stay open for the whole test
            probe_quota: 1,
            probe_successes: 1,
        },
        chaos: ChaosConfig {
            seed: 11,
            latency_probability: 0.0,
            min_latency_ms: 0,
            max_latency_ms: 0,
            error_probability: 1.0,
            drop_probability: 0.0,
        },
        workers: 1, // serialise so the failure order is exact
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let body = r#"{"kind": "live", "ram_mib": 4096}"#;

    // Three consecutive injected failures trip the breaker...
    for i in 0..3 {
        let response = post(&handle, "/predict", body, &[]);
        assert_eq!(
            response.status,
            500,
            "request {i}: {}",
            response.body_text()
        );
        assert!(response.body_text().contains("injected_fault"));
    }
    // ...and every later request degrades to last-known-good instead of
    // surfacing the (still firing) injected fault.
    for i in 0..4 {
        let response = post(&handle, "/predict", body, &[]);
        assert_eq!(
            response.status,
            200,
            "request {i}: {}",
            response.body_text()
        );
        assert!(degraded_flag(&response), "request {i} must be degraded");
        let v: serde::Value = serde_json::from_str(&response.body_text()).unwrap();
        assert_eq!(v.get("breaker").and_then(|b| b.as_str()), Some("open"));
        match v.get("total_energy_j") {
            Some(serde::Value::F64(e)) => assert!(*e > 0.0, "degraded estimate must be usable"),
            other => panic!("degraded response without energy: {other:?}"),
        }
    }
    let health = get(&handle, "/healthz");
    assert!(health.body_text().contains("\"breaker\": \"open\""));

    let snapshot = handle.registry().snapshot();
    assert_eq!(
        snapshot.counters.get("serve.responses.server_error"),
        Some(&3)
    );
    assert_eq!(snapshot.counters.get("serve.responses.degraded"), Some(&4));
    assert_eq!(snapshot.counters.get("serve.breaker.opened"), Some(&1));
    handle.join();
}

#[test]
fn overload_sheds_with_429_and_never_hangs() {
    // One worker stuck 300 ms per request + a one-slot queue: a burst of
    // five connections must produce a mix of 200s and 429s, all answered.
    // The first request goes alone, and the other four follow once the
    // worker sleeps in it; otherwise the accept thread can take all five
    // before the worker pops the first, queue one and shed four.
    let cfg = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        chaos: ChaosConfig {
            seed: 3,
            latency_probability: 1.0,
            min_latency_ms: 300,
            max_latency_ms: 300,
            error_probability: 0.0,
            drop_probability: 0.0,
        },
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let addr = handle.local_addr();
    let client = move || {
        std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
            roundtrip(
                &mut stream,
                "POST",
                "/predict",
                &[],
                br#"{"kind": "live", "ram_mib": 1024}"#,
            )
            .expect("every connection gets an answer")
        })
    };
    let mut clients = vec![client()];
    let sleeping = std::time::Instant::now() + Duration::from_secs(10);
    while handle
        .registry()
        .snapshot()
        .counters
        .get("serve.chaos.latency_injected")
        .is_none_or(|&n| n < 1)
    {
        assert!(
            std::time::Instant::now() < sleeping,
            "the worker never took the first request"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    clients.extend((0..4).map(|_| client()));
    let responses: Vec<ClientResponse> = clients
        .into_iter()
        .map(|t| t.join().expect("client"))
        .collect();

    let ok = responses.iter().filter(|r| r.status == 200).count();
    let shed = responses.iter().filter(|r| r.status == 429).count();
    assert_eq!(
        ok + shed,
        5,
        "statuses: {:?}",
        responses.iter().map(|r| r.status).collect::<Vec<_>>()
    );
    assert!(shed >= 1, "a one-slot queue under a 5-burst must shed");
    assert!(ok >= 2, "the worker plus queue slot must still serve");
    for r in responses.iter().filter(|r| r.status == 429) {
        assert_eq!(r.header("retry-after"), Some("1"));
        assert!(r.body_text().contains("overloaded"));
    }

    let report = handle.join();
    assert_eq!(report.accepted, 5);
    assert_eq!(report.shed as usize, shed);
    assert_eq!(report.accepted, report.completed + report.shed);
}

#[test]
fn graceful_drain_finishes_every_accepted_request() {
    // Every request takes ~150 ms; shutdown fires while all of them are
    // queued or in flight. None may be dropped.
    let cfg = ServeConfig {
        workers: 2,
        queue_capacity: 16,
        chaos: ChaosConfig {
            seed: 9,
            latency_probability: 1.0,
            min_latency_ms: 150,
            max_latency_ms: 150,
            error_probability: 0.0,
            drop_probability: 0.0,
        },
        ..ServeConfig::default()
    };
    let handle = wavm3_serve::start(cfg).expect("start");
    let addr = handle.local_addr();
    let clients: Vec<_> = (0..6)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .expect("read timeout");
                roundtrip(
                    &mut stream,
                    "POST",
                    "/plan",
                    &[],
                    br#"{"kind": "non_live", "ram_mib": 2048}"#,
                )
            })
        })
        .collect();
    // Let the burst land, then drain while requests are still sleeping
    // in the chaos latency stage.
    std::thread::sleep(Duration::from_millis(60));
    let report = handle.join();

    assert_eq!(report.accepted, 6);
    assert_eq!(
        report.accepted,
        report.completed + report.shed,
        "drain must account for every accepted connection"
    );
    for client in clients {
        let response = client.join().expect("client thread").expect("response");
        assert!(
            response.status == 200 || response.status == 429,
            "in-flight request must be answered, got {}",
            response.status
        );
    }
}

//! The open-loop generator against a plain `TcpListener` stub: latency is
//! timed from each request's due instant, a stall shows up as wait on
//! every request that fell due during it, and a rate the stub cannot keep
//! up with misses the capacity limit.

use std::io::Write;
use std::net::{SocketAddr, TcpListener};
use std::thread::JoinHandle;
use std::time::Duration;
use wavm3_e2e_bench::openloop::{self, Load, PhaseReport, Request};
use wavm3_e2e_bench::serve::{LIMIT_MS, LIMIT_SHARE};
use wavm3_e2e_bench::summary::Summary;

const BODY: &str = "{\"ok\":true}";

/// A one-thread HTTP stub that answers `count` requests, one connection
/// at a time: each after `delay`, and request number `stall_at` only
/// after an extra `stall`.
fn stub(
    count: u64,
    delay: Duration,
    stall_at: u64,
    stall: Duration,
) -> (SocketAddr, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("bound address");
    let server = std::thread::spawn(move || {
        for i in 0..count {
            let (mut stream, _) = listener.accept().expect("accept");
            wavm3_serve::http::read_request(&mut stream).expect("a well-formed request");
            if i == stall_at {
                std::thread::sleep(stall);
            }
            std::thread::sleep(delay);
            let head = format!(
                "HTTP/1.1 200 OK\r\ncontent-length: {}\r\nconnection: close\r\n\r\n",
                BODY.len()
            );
            stream.write_all(head.as_bytes()).expect("write head");
            stream.write_all(BODY.as_bytes()).expect("write body");
        }
    });
    (addr, server)
}

fn drive(rate: f64, seconds: f64, delay: Duration, stall_at: u64, stall: Duration) -> PhaseReport {
    let count = (rate * seconds).floor() as u64;
    let (addr, server) = stub(count, delay, stall_at, stall);
    let requests = [Request {
        path: "/predict",
        body: "{}".to_string(),
    }];
    let report = openloop::run(
        addr,
        Load::Rate(rate),
        Duration::from_secs_f64(seconds),
        2,
        &requests,
    );
    server.join().expect("stub thread");
    assert_eq!(report.outcomes.len() as u64, count);
    assert!(report
        .outcomes
        .iter()
        .all(|o| o.status == 200 && o.body == BODY));
    report
}

#[test]
fn a_stall_charges_its_wait_to_every_request_due_during_it() {
    // 500 req/s for 0.2 s; request 20 (due at 40 ms) stalls for 50 ms.
    let report = drive(500.0, 0.2, Duration::ZERO, 20, Duration::from_millis(50));
    let stalled = &report.outcomes[20];
    assert!(stalled.latency_ms() >= 50.0, "{stalled:?}");
    let during: Vec<_> = report
        .outcomes
        .iter()
        .filter(|o| o.due_us > stalled.due_us && o.due_us < stalled.done_us)
        .collect();
    assert!(
        during.len() >= 15,
        "only {} requests fell due during the stall",
        during.len()
    );
    for o in &during {
        // The stub answers in accept order, so nothing due during the
        // stall completes before it ends (give or take which sender thread
        // reads its answer first) — and the wait counts from due.
        assert!(
            o.latency_ms() >= (stalled.done_us - o.due_us) / 1e3 - 2.0,
            "latency must be timed from the due instant: {o:?}"
        );
    }
    // With both senders tied up, later requests started late.
    assert!(during.iter().filter(|o| o.late_ms() > 5.0).count() >= 10);
    let late = Summary::new(report.outcomes.iter().map(|o| o.late_ms()).collect());
    assert!(
        late.at(99.0).unwrap() > 0.0,
        "loadgen.late_p99_ms must see the stall"
    );
}

#[test]
fn a_rate_the_stub_cannot_sustain_fails_capacity() {
    let ok = |o: &openloop::Outcome| o.status == 200;
    // 2 ms per request on one stub thread sustains 50 req/s easily...
    let easy = drive(
        50.0,
        0.4,
        Duration::from_millis(2),
        u64::MAX,
        Duration::ZERO,
    );
    // (Not held to LIMIT_SHARE: one stall of a busy test machine would
    // already cost a 20-request rung its 99 %.)
    assert!(easy.share_within(LIMIT_MS, ok) >= 0.9);
    // ...but not 1000 req/s: the backlog grows and requests miss the limit.
    let hard = drive(
        1000.0,
        0.2,
        Duration::from_millis(2),
        u64::MAX,
        Duration::ZERO,
    );
    assert!(hard.share_within(LIMIT_MS, ok) < LIMIT_SHARE);
    assert!(hard.outcomes.last().unwrap().latency_ms() > 100.0);
}

//! Open-loop HTTP load generator.
//!
//! Request `i` of a fixed-rate phase is *due* at `start + i / rate`,
//! whatever happened to earlier requests, and its latency is timed from
//! that due instant, not from when a sender got round to it: a stall in
//! the server therefore shows up as latency on every request that fell
//! due during it, instead of silently thinning the load. The generator
//! records how late each send was (`late`), so a report whose generator
//! ran late says so.
//!
//! Load comes from at most `senders` threads of this one process, each
//! with one connection in flight (one connection per request, as the
//! service speaks `Connection: close`). A [`Load::Closed`] phase drops
//! the schedule: every sender sends its next request as soon as the last
//! one completes, which measures the rate the server sustains.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Per-connection I/O timeout; a request that exceeds it counts as a
/// connection error.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// One prepared request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// `POST` path.
    pub path: &'static str,
    /// JSON body.
    pub body: String,
}

/// How requests are released.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Open loop: request `i` is due at `i / rate` seconds.
    Rate(f64),
    /// Closed loop: each sender sends again as soon as it has an answer.
    Closed,
}

/// One request's timeline, in microseconds since the phase started.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Request index within the phase (selects the prepared request).
    pub id: u64,
    /// Sender thread that issued it.
    pub sender: u64,
    /// When it was due.
    pub due_us: f64,
    /// When the sender started connecting.
    pub start_us: f64,
    /// When the connection was established.
    pub connected_us: f64,
    /// When the response was fully read (or the attempt failed).
    pub done_us: f64,
    /// HTTP status; 0 when the connection or read failed.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl Outcome {
    /// Latency from the due instant, milliseconds.
    pub fn latency_ms(&self) -> f64 {
        (self.done_us - self.due_us) / 1e3
    }

    /// How late the sender started, milliseconds.
    pub fn late_ms(&self) -> f64 {
        (self.start_us - self.due_us) / 1e3
    }
}

/// Everything one phase observed.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Every request issued, ordered by id.
    pub outcomes: Vec<Outcome>,
    /// When the phase started (the zero of every outcome's clock).
    pub started: Instant,
    /// Wall time of the phase, seconds.
    pub wall_s: f64,
}

impl PhaseReport {
    /// Completed requests per second of phase wall time.
    pub fn achieved_rps(&self) -> f64 {
        self.outcomes.len() as f64 / self.wall_s
    }

    /// Share of requests that `ok` accepts and that finished within
    /// `limit_ms` of their due time. A failed request misses the limit.
    pub fn share_within(&self, limit_ms: f64, ok: impl Fn(&Outcome) -> bool) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        let met = self
            .outcomes
            .iter()
            .filter(|o| o.latency_ms() <= limit_ms && ok(o))
            .count();
        met as f64 / self.outcomes.len() as f64
    }
}

/// Drive one phase against `addr`. Request `id` sends
/// `requests[id % requests.len()]`.
///
/// # Panics
///
/// On an empty request list, zero senders, or a non-positive rate.
pub fn run(
    addr: SocketAddr,
    load: Load,
    duration: Duration,
    senders: usize,
    requests: &[Request],
) -> PhaseReport {
    assert!(!requests.is_empty(), "no requests to send");
    assert!(senders > 0, "at least one sender");
    let count = match load {
        Load::Rate(rate) => {
            assert!(rate > 0.0, "rate must be positive");
            Some((rate * duration.as_secs_f64()).floor().max(1.0) as u64)
        }
        Load::Closed => None,
    };
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let us = |t: Instant| t.saturating_duration_since(started).as_secs_f64() * 1e6;
    let mut outcomes: Vec<Outcome> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..senders as u64)
            .map(|sender| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let due = match (load, count) {
                            (Load::Rate(rate), Some(count)) => {
                                if id >= count {
                                    break;
                                }
                                let due = started + Duration::from_secs_f64(id as f64 / rate);
                                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                                    std::thread::sleep(wait);
                                }
                                due
                            }
                            _ => {
                                let now = Instant::now();
                                if now.duration_since(started) >= duration {
                                    break;
                                }
                                now
                            }
                        };
                        let request = &requests[(id % requests.len() as u64) as usize];
                        let start = Instant::now();
                        let (connected, status, body) = send(addr, request);
                        let done = Instant::now();
                        mine.push(Outcome {
                            id,
                            sender,
                            due_us: us(due),
                            start_us: us(start),
                            connected_us: us(connected.unwrap_or(done)),
                            done_us: us(done),
                            status,
                            body,
                        });
                    }
                    mine
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sender thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    outcomes.sort_by_key(|o| o.id);
    PhaseReport {
        outcomes,
        started,
        wall_s,
    }
}

/// One request on a fresh connection: `(connected at, status, body)`,
/// with status 0 when connecting, writing or reading failed.
fn send(addr: SocketAddr, request: &Request) -> (Option<Instant>, u16, String) {
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, IO_TIMEOUT) else {
        return (None, 0, String::new());
    };
    let connected = Instant::now();
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    match wavm3_serve::http::roundtrip(
        &mut stream,
        "POST",
        request.path,
        &[],
        request.body.as_bytes(),
    ) {
        Ok(response) => (Some(connected), response.status, response.body_text()),
        Err(_) => (Some(connected), 0, String::new()),
    }
}

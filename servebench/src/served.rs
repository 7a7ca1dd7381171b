//! The served run: an in-process `selc-serve` on an ephemeral loopback
//! port with the shipped defaults, driven closed loop by one client
//! thread per connection.

use crate::traffic::{prewarm, Kind, Op, Stream, CLIENTS};
use selc_serve::{Client, Response, ServeConfig, Server};
use std::io;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// One completed request as the client saw it.
pub struct Sample {
    pub op: Op,
    pub latency_ns: u64,
    /// When the response arrived, in seconds since the clients started.
    pub done_s: f64,
    /// `None` when the transport failed.
    pub response: Option<Response>,
}

/// The server configuration a fresh `selc-serve` daemon would pick
/// (worker count and admission limit from the unset knobs), on an
/// ephemeral port.
pub fn default_config() -> ServeConfig {
    ServeConfig { port: 0, ..ServeConfig::from_env() }
}

/// Spawns a server and runs every client's pre-warm list through it;
/// returns the server and the seconds from spawn to the end of the
/// pre-warm.
///
/// # Errors
///
/// Fails if the server cannot bind or any pre-warm request fails.
pub fn set_up(kind: Kind) -> io::Result<(Server, f64)> {
    let started = Instant::now();
    let server = Server::spawn(default_config())?;
    let addr = server.addr();
    thread::scope(|s| {
        let handles: Vec<_> =
            (0..CLIENTS).map(|c| s.spawn(move || prewarm_client(addr, kind, c))).collect();
        handles.into_iter().try_for_each(|h| h.join().expect("pre-warm client panicked"))
    })?;
    Ok((server, started.elapsed().as_secs_f64()))
}

fn prewarm_client(addr: SocketAddr, kind: Kind, client: usize) -> io::Result<()> {
    let mut conn = Client::connect(addr)?;
    for op in prewarm(kind, client) {
        match conn.request(&op.request())? {
            Response::Ok { .. } | Response::EpochBumped { .. } => {}
            other => {
                return Err(io::Error::other(format!("pre-warm {op:?} answered {other:?}")));
            }
        }
    }
    Ok(())
}

/// How often [`drive`] reads the host's steal counter.
const STEAL_SAMPLE: Duration = Duration::from_millis(100);

/// `/proc/stat` readings taken while the clients run: seconds since
/// they started, steal ticks, all ticks. Steal is time the hypervisor
/// gave this guest's CPUs to another guest.
pub struct StealLog(Vec<(f64, u64, u64)>);

impl StealLog {
    fn read(&mut self, start: Instant) {
        if let Some((all, steal)) = cpu_ticks() {
            self.0.push((start.elapsed().as_secs_f64(), steal, all));
        }
    }

    /// Share of CPU time stolen between `a` and `b` seconds after the
    /// start, from the readings just outside that span (0 without two).
    pub fn share(&self, a: f64, b: f64) -> f64 {
        let first = self.0.iter().rev().find(|r| r.0 <= a).or(self.0.first());
        let last = self.0.iter().find(|r| r.0 >= b).or(self.0.last());
        match (first, last) {
            (Some(&(_, s0, t0)), Some(&(_, s1, t1))) if t1 > t0 => {
                s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

/// The outcome of [`drive`].
pub struct Driven {
    /// Each client's samples in send order.
    pub streams: Vec<Vec<Sample>>,
    /// The host's steal counter, read every [`STEAL_SAMPLE`].
    pub steal: StealLog,
    /// Peak RSS in MiB once every client had completed its first
    /// `prefix` requests, with none in flight.
    pub prefix_peak_rss_mb: Option<f64>,
}

/// Runs every client's stream against `addr` until `seconds` pass and
/// every client has completed at least `prefix` requests. Each client
/// finishes the request it has in flight at the deadline. When all of
/// them have completed `prefix` requests they wait for each other while
/// the process's peak RSS is read, so that figure follows a fixed amount
/// of work and not the throughput.
pub fn drive(addr: SocketAddr, kind: Kind, seed: u64, seconds: f64, prefix: usize) -> Driven {
    let start_line = Barrier::new(CLIENTS + 1);
    let prefix_line = Barrier::new(CLIENTS);
    let peak = Mutex::new(None);
    let (streams, steal) = thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (start_line, prefix_line, peak) = (&start_line, &prefix_line, &peak);
                s.spawn(move || {
                    let mut stream = Stream::new(kind, seed, c);
                    let mut conn = Client::connect(addr);
                    start_line.wait();
                    let start = Instant::now();
                    let until = start + Duration::from_secs_f64(seconds);
                    let mut samples = Vec::new();
                    while samples.len() < prefix || Instant::now() < until {
                        let op = stream.next_op();
                        let sent = Instant::now();
                        let response = match &mut conn {
                            Ok(client) => client.request(&op.request()).ok(),
                            Err(_) => None,
                        };
                        let done = Instant::now();
                        if response.is_none() {
                            // A broken session cannot be resynchronised;
                            // the next request gets a new connection.
                            conn = Client::connect(addr);
                        }
                        samples.push(Sample {
                            op,
                            latency_ns: u64::try_from((done - sent).as_nanos()).unwrap_or(u64::MAX),
                            done_s: (done - start).as_secs_f64(),
                            response,
                        });
                        if samples.len() == prefix {
                            if prefix_line.wait().is_leader() {
                                *peak.lock().expect("peak lock poisoned") = peak_rss_mb();
                            }
                            prefix_line.wait();
                        }
                    }
                    samples
                })
            })
            .collect();
        start_line.wait();
        let start = Instant::now();
        let mut steal = StealLog(Vec::new());
        loop {
            steal.read(start);
            if handles.iter().all(thread::ScopedJoinHandle::is_finished) {
                break;
            }
            thread::sleep(STEAL_SAMPLE);
        }
        let streams =
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect();
        (streams, steal)
    });
    Driven { streams, steal, prefix_peak_rss_mb: peak.into_inner().expect("peak lock poisoned") }
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(all, steal)` CPU ticks, summed over CPUs, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> =
        stat.lines().next()?.split_whitespace().skip(1).filter_map(|f| f.parse().ok()).collect();
    Some((fields.iter().sum(), *fields.get(7)?))
}

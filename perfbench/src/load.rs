//! Open-loop HTTP load: seeded Poisson arrivals over keep-alive
//! connections, one connection per sender thread and no more threads
//! than the host has cores. Every request is timed from the moment it
//! was due, so a stall also counts against the requests queued behind
//! it; how late each send left is reported as the send lag.

use crate::inputs::Rng;
use crate::trace::Tracer;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Which endpoint and query shape a request exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Full-space `/density`.
    Density,
    /// `/density` over a subspace (`dims`).
    Subspace,
    /// `/classify`.
    Classify,
}

impl Mode {
    pub fn path(self) -> &'static str {
        match self {
            Mode::Density | Mode::Subspace => "/density",
            Mode::Classify => "/classify",
        }
    }
}

/// Request shares: full-space density, subspace density, classify.
pub const MIX: [(Mode, f64); 3] = [
    (Mode::Density, 0.4),
    (Mode::Subspace, 0.2),
    (Mode::Classify, 0.4),
];
/// Share of requests that repeat one of [`HOT_KEYS`] queries, so the
/// batch queue's dedup has duplicates to find.
pub const HOT_SHARE: f64 = 0.1;
pub const HOT_KEYS: usize = 4;
/// A request unanswered after this long fails.
pub const TIMEOUT: Duration = Duration::from_secs(5);

/// Pre-encoded request bodies per pool key and mode.
pub struct Bodies {
    pub density: Vec<String>,
    pub subspace: Vec<String>,
    pub classify: Vec<String>,
}

impl Bodies {
    fn get(&self, mode: Mode, key: usize) -> &str {
        match mode {
            Mode::Density => &self.density[key],
            Mode::Subspace => &self.subspace[key],
            Mode::Classify => &self.classify[key],
        }
    }
}

/// One answered (or failed) request.
pub struct Sample {
    pub sender: usize,
    pub mode: Mode,
    pub key: usize,
    /// Seconds from due to sent.
    pub lag: f64,
    /// Seconds from due to the last response byte; infinite on failure.
    pub latency: f64,
    /// Seconds from sent to the last response byte.
    pub service: f64,
    /// HTTP status, 0 when the request errored or timed out.
    pub status: u16,
    pub body: String,
}

/// A phase: Poisson arrivals at `rate` requests per second for
/// `duration`, split evenly across `senders` connections.
pub struct Phase {
    pub rate: f64,
    pub duration: Duration,
    pub senders: usize,
    pub seed: u64,
}

struct Arrival {
    due: f64,
    mode: Mode,
    key: usize,
}

/// `/classify` alone, for the closed-loop bursts.
pub const CLASSIFY_ONLY: [(Mode, f64); 1] = [(Mode::Classify, 1.0)];

/// Draws one request of `mix`: a hot key with probability
/// [`HOT_SHARE`], else a uniform pool key.
fn draw(rng: &mut Rng, mix: &[(Mode, f64)], pool: usize) -> (Mode, usize) {
    let key = if rng.unit() < HOT_SHARE {
        rng.below(HOT_KEYS.min(pool))
    } else {
        rng.below(pool)
    };
    let mut u = rng.unit();
    for &(mode, share) in mix {
        if u < share {
            return (mode, key);
        }
        u -= share;
    }
    (mix[mix.len() - 1].0, key)
}

fn schedule(rate: f64, duration: f64, pool: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= duration {
            return out;
        }
        let (mode, key) = draw(&mut rng, &MIX, pool);
        out.push(Arrival { due: t, mode, key });
    }
}

struct Connection {
    addr: SocketAddr,
    reader: Option<BufReader<TcpStream>>,
}

impl Connection {
    fn new(addr: SocketAddr) -> Self {
        Connection { addr, reader: None }
    }

    fn open(&mut self) -> std::io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(TIMEOUT))?;
            self.reader = Some(BufReader::new(stream));
        }
        Ok(self.reader.as_mut().expect("connection just opened"))
    }

    /// POSTs `body` to `path` and returns the status and response body.
    fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let result = self.exchange(path, body);
        if result.is_err() {
            self.reader = None;
        }
        result
    }

    fn exchange(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        let reader = self.open()?;
        let request = format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        reader.get_mut().write_all(request.as_bytes())?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = 0usize;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(std::io::Error::other("connection closed mid-response"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().map_err(std::io::Error::other)?;
                }
            }
        }
        let mut payload = vec![0u8; length];
        reader.read_exact(&mut payload)?;
        String::from_utf8(payload)
            .map(|text| (status, text))
            .map_err(std::io::Error::other)
    }
}

/// Waits for `due` by yielding the core rather than sleeping. On a
/// virtual machine an idle virtual CPU halts, and waking it again waits
/// on the host's scheduler, which under other tenants' load adds
/// milliseconds to the send time; a yielding sender keeps its core
/// awake and still gives way to any runnable daemon thread.
pub fn wait_until(due: Instant) {
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Posts `a` on `conn` inside a `bench.request` span, timing it from
/// `due`, when it was due.
fn send(
    conn: &mut Connection,
    (sender, request): (usize, u64),
    a: &Arrival,
    due: Instant,
    bodies: &Bodies,
    tracer: &Tracer,
) -> Sample {
    let sent = Instant::now();
    let response = {
        let _span = tracer.span("bench.request", (sender as u64) << 32 | request);
        conn.post(a.mode.path(), bodies.get(a.mode, a.key))
    };
    let done = Instant::now();
    let (status, body) = response.unwrap_or_else(|e| (0, e.to_string()));
    Sample {
        sender,
        mode: a.mode,
        key: a.key,
        lag: sent.saturating_duration_since(due).as_secs_f64(),
        latency: if status == 0 {
            f64::INFINITY
        } else {
            done.saturating_duration_since(due).as_secs_f64()
        },
        service: (done - sent).as_secs_f64(),
        status,
        body,
    }
}

/// Runs `phase.senders` threads, each with a keep-alive connection opened
/// before the clock starts; returns what each `sender(index, connection,
/// start)` returned, and the shared start.
fn drive<T: Send>(
    addr: SocketAddr,
    phase: &Phase,
    sender: impl Fn(usize, &mut Connection, Instant) -> T + Sync,
) -> (Vec<T>, Instant) {
    let senders = phase.senders.max(1);
    let barrier = Barrier::new(senders);
    let start_slot = OnceLock::new();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..senders)
            .map(|s| {
                let (barrier, start_slot, sender) = (&barrier, &start_slot, &sender);
                scope.spawn(move || {
                    let mut conn = Connection::new(addr);
                    // Connect before the clock starts.
                    let _ = conn.open();
                    barrier.wait();
                    sender(s, &mut conn, *start_slot.get_or_init(Instant::now))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load sender thread"))
            .collect()
    });
    (results, *start_slot.get().expect("senders started"))
}

/// Runs one open-loop phase and returns its samples in completion order
/// per sender. `tracer` wraps each request in a `bench.request` span.
pub fn run_phase(
    addr: SocketAddr,
    phase: &Phase,
    pool: usize,
    bodies: &Bodies,
    tracer: &Tracer,
) -> Vec<Sample> {
    let senders = phase.senders.max(1);
    let schedules: Vec<Vec<Arrival>> = (0..senders)
        .map(|s| {
            schedule(
                phase.rate / senders as f64,
                phase.duration.as_secs_f64(),
                pool,
                crate::inputs::derive(phase.seed, s as u64),
            )
        })
        .collect();
    let (results, _) = drive(addr, phase, |s, conn, start| {
        let mut samples = Vec::with_capacity(schedules[s].len());
        for (i, a) in schedules[s].iter().enumerate() {
            let due = start + Duration::from_secs_f64(a.due);
            wait_until(due);
            samples.push(send(conn, (s, i as u64), a, due, bodies, tracer));
        }
        samples
    });
    results.into_iter().flatten().collect()
}

/// Runs a closed loop: each of `senders` connections posts seeded
/// requests of `mix`, the next as soon as the previous is answered,
/// until `phase.duration` has passed (`phase.rate` is not used).
/// Returns the samples, each due when it was sent, and the seconds from
/// the start to the last answer.
pub fn run_closed(
    addr: SocketAddr,
    phase: &Phase,
    mix: &[(Mode, f64)],
    pool: usize,
    bodies: &Bodies,
    tracer: &Tracer,
) -> (Vec<Sample>, f64) {
    let (results, start) = drive(addr, phase, |s, conn, start| {
        let mut rng = Rng::new(crate::inputs::derive(phase.seed, s as u64));
        let (mut samples, mut last) = (Vec::new(), start);
        while last - start < phase.duration {
            let due = Instant::now();
            let (mode, key) = draw(&mut rng, mix, pool);
            let a = Arrival {
                due: (due - start).as_secs_f64(),
                mode,
                key,
            };
            samples.push(send(
                conn,
                (s, samples.len() as u64),
                &a,
                due,
                bodies,
                tracer,
            ));
            last = Instant::now();
        }
        (samples, last)
    });
    let end = results.iter().map(|(_, last)| *last).max().unwrap_or(start);
    let samples = results.into_iter().flat_map(|(s, _)| s).collect();
    (samples, (end - start).as_secs_f64())
}

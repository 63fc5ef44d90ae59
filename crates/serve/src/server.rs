//! The daemon: TCP accept loop, routing, drain-aware shutdown.
//!
//! One thread accepts connections (non-blocking poll so shutdown flags
//! are honored promptly), one thread per connection parses and answers
//! requests, one background thread pumps ingest and publishes
//! snapshots, and — when batching is enabled — one worker drains the
//! density batch queue. Graceful shutdown stops accepting, waits for
//! in-flight requests, drains the batch queue, then asks the pump to
//! flush final checkpoints and hand back its [`FinalReport`].

use crate::batch::{BatchConfig, BatchQueue};
use crate::handlers;
use crate::http::{read_request, write_response, Request, Response};
use crate::pump::{FinalReport, IngestPump, PumpConfig, PumpControl};
use crate::snapshot::SnapshotStore;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use udm_classify::DensityClassifier;
use udm_core::{Result, UdmError};
use udm_data::fault::RawRecord;
use udm_kde::KdeConfig;
use udm_microcluster::ingest::IngestPolicy;
use udm_microcluster::shard::{KillPlan, ShardPlan};
use udm_microcluster::MaintainerConfig;

/// Everything the daemon needs to start.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Fault domains for background ingest.
    pub shards: usize,
    /// Per-shard checkpoint cadence.
    pub checkpoint_every: u64,
    /// Dead-shard staleness budget (records).
    pub staleness_budget: u64,
    /// Records between snapshot publishes.
    pub refresh_every: usize,
    /// Density request batching (`None` = inline evaluation).
    pub batch: Option<BatchConfig>,
    /// Checkpoint/state directory (shared across restarts).
    pub state_dir: PathBuf,
    /// `/healthz` degrades below this shard coverage.
    pub min_coverage: f64,
    /// Micro-cluster budget `q`.
    pub max_clusters: usize,
    /// Ingest quarantine/repair policy.
    pub policy: IngestPolicy,
    /// KDE configuration for published snapshots.
    pub kde: KdeConfig,
    /// Fault plan for degradation drills.
    pub kill_plan: KillPlan,
    /// Hold ingest after this many records (chaos-test hook).
    pub ingest_limit: Option<usize>,
    /// Throttle between ingest chunks.
    pub chunk_delay: Duration,
}

impl ServeConfig {
    /// Paper-default serving configuration over a state directory.
    pub fn new(state_dir: PathBuf) -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            checkpoint_every: 64,
            staleness_budget: 64,
            refresh_every: 64,
            batch: Some(BatchConfig::default()),
            state_dir,
            min_coverage: 1.0,
            max_clusters: 60,
            policy: IngestPolicy::default(),
            kde: KdeConfig::error_adjusted(),
            kill_plan: KillPlan::none(),
            ingest_limit: None,
            chunk_delay: Duration::ZERO,
        }
    }
}

/// The training/stream seed the daemon serves.
#[derive(Debug)]
pub struct ServeSeed {
    /// Dimensionality of the stream.
    pub dim: usize,
    /// The record stream fed to background ingest.
    pub records: Vec<RawRecord>,
    /// Pre-fitted classifier (`None` for unlabelled data).
    pub classifier: Option<Arc<DensityClassifier>>,
}

#[derive(Debug, Default)]
struct ServerControl {
    stop_accepting: AtomicBool,
    hard_stop: AtomicBool,
    in_flight: AtomicUsize,
    shutdown_via_http: AtomicBool,
}

/// A running daemon.
pub struct Server {
    addr: SocketAddr,
    store: Arc<SnapshotStore>,
    queue: Option<Arc<BatchQueue>>,
    control: Arc<ServerControl>,
    pump_control: Arc<PumpControl>,
    min_coverage: f64,
    accept_handle: Option<JoinHandle<()>>,
    pump_handle: Option<JoinHandle<Result<Option<FinalReport>>>>,
    batch_handle: Option<JoinHandle<()>>,
    /// Whether this start recovered from existing checkpoints.
    pub warm: bool,
}

impl Server {
    /// Binds, spawns the pump/batch/accept threads and returns.
    ///
    /// # Errors
    ///
    /// Bind failures ([`UdmError::Io`]), plan validation, checkpoint
    /// recovery errors.
    pub fn start(config: &ServeConfig, seed: ServeSeed) -> Result<Server> {
        let listener = TcpListener::bind(&config.addr).map_err(|e| UdmError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| UdmError::Io(e.to_string()))?;
        let addr = listener
            .local_addr()
            .map_err(|e| UdmError::Io(e.to_string()))?;

        let plan = ShardPlan {
            checkpoint_every: config.checkpoint_every,
            staleness_budget: config.staleness_budget,
            ..ShardPlan::new(config.shards, config.state_dir.clone())
        };
        let pump = IngestPump::new(
            seed.dim,
            MaintainerConfig::new(config.max_clusters),
            config.policy.clone(),
            plan,
            seed.records,
            seed.classifier,
            config.kde,
            PumpConfig {
                refresh_every: config.refresh_every,
                kill_plan: config.kill_plan.clone(),
                ingest_limit: config.ingest_limit,
                chunk_delay: config.chunk_delay,
                ..PumpConfig::default()
            },
        )?;
        let warm = pump.warm;

        let store = Arc::new(SnapshotStore::new());
        let control = Arc::new(ServerControl::default());
        let pump_control = Arc::new(PumpControl::default());

        let pump_handle = {
            let store = Arc::clone(&store);
            let pump_control = Arc::clone(&pump_control);
            std::thread::spawn(move || pump.run(&store, &pump_control))
        };

        let queue = config
            .batch
            .as_ref()
            .map(|b| Arc::new(BatchQueue::new(b.clone())));
        let batch_handle = queue.as_ref().map(|q| {
            let q = Arc::clone(q);
            let store = Arc::clone(&store);
            std::thread::spawn(move || q.run_worker(&store))
        });

        let accept_handle = {
            let store = Arc::clone(&store);
            let queue = queue.clone();
            let control = Arc::clone(&control);
            let min_coverage = config.min_coverage;
            std::thread::spawn(move || {
                accept_loop(&listener, &store, &queue, &control, min_coverage);
            })
        };

        Ok(Server {
            addr,
            store,
            queue,
            control,
            pump_control,
            min_coverage: config.min_coverage,
            accept_handle: Some(accept_handle),
            pump_handle: Some(pump_handle),
            batch_handle,
            warm,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The snapshot store (read access for embedding tests/benches).
    pub fn store(&self) -> &Arc<SnapshotStore> {
        &self.store
    }

    /// Serving coverage floor in force.
    pub fn min_coverage(&self) -> f64 {
        self.min_coverage
    }

    /// True once a client has POSTed `/shutdown`.
    pub fn shutdown_via_http(&self) -> bool {
        self.control.shutdown_via_http.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests and
    /// the batch queue, flush final checkpoints, return the pump's
    /// report (`None` only if the pump was hard-stopped first).
    ///
    /// # Errors
    ///
    /// Pump finish failures; [`UdmError::Io`] if a worker panicked.
    pub fn shutdown_graceful(mut self) -> Result<Option<FinalReport>> {
        self.control.stop_accepting.store(true, Ordering::SeqCst);
        // Drain: wait for in-flight requests (bounded grace period).
        let drain_started = Instant::now();
        while self.control.in_flight.load(Ordering::SeqCst) > 0
            && drain_started.elapsed() < Duration::from_secs(10)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(queue) = &self.queue {
            queue.shutdown();
        }
        if let Some(h) = self.batch_handle.take() {
            h.join().map_err(|_| worker_panicked())?;
        }
        self.pump_control.graceful.store(true, Ordering::SeqCst);
        let report = match self.pump_handle.take() {
            Some(h) => h.join().map_err(|_| worker_panicked())??,
            None => None,
        };
        if let Some(h) = self.accept_handle.take() {
            h.join().map_err(|_| worker_panicked())?;
        }
        Ok(report)
    }

    /// Hard stop: abandon ingest state mid-stream (in-process stand-in
    /// for `kill -9` — checkpoints stay at their last cadence write).
    ///
    /// # Errors
    ///
    /// [`UdmError::Io`] if a worker panicked.
    pub fn stop_hard(mut self) -> Result<()> {
        self.control.hard_stop.store(true, Ordering::SeqCst);
        self.control.stop_accepting.store(true, Ordering::SeqCst);
        self.pump_control.hard.store(true, Ordering::SeqCst);
        if let Some(queue) = &self.queue {
            queue.shutdown();
        }
        if let Some(h) = self.batch_handle.take() {
            h.join().map_err(|_| worker_panicked())?;
        }
        if let Some(h) = self.pump_handle.take() {
            h.join().map_err(|_| worker_panicked())??;
        }
        if let Some(h) = self.accept_handle.take() {
            h.join().map_err(|_| worker_panicked())?;
        }
        Ok(())
    }
}

fn worker_panicked() -> UdmError {
    UdmError::Io("server worker thread panicked".into())
}

fn accept_loop(
    listener: &TcpListener,
    store: &Arc<SnapshotStore>,
    queue: &Option<Arc<BatchQueue>>,
    control: &Arc<ServerControl>,
    min_coverage: f64,
) {
    loop {
        if control.stop_accepting.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let store = Arc::clone(store);
                let queue = queue.clone();
                let control = Arc::clone(control);
                std::thread::spawn(move || {
                    serve_connection(stream, &store, queue.as_deref(), &control, min_coverage);
                });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => {
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

fn serve_connection(
    mut stream: TcpStream,
    store: &SnapshotStore,
    queue: Option<&BatchQueue>,
    control: &ServerControl,
    min_coverage: f64,
) {
    // Nagle + delayed ACK would add ~40ms to every small round-trip;
    // a serving daemon always wants immediate writes.
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    loop {
        if control.hard_stop.load(Ordering::SeqCst) {
            return;
        }
        let request = match read_request(&mut stream) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                let body = error_body(&e);
                let _ = write_response(&mut stream, &body, false);
                return;
            }
        };
        control.in_flight.fetch_add(1, Ordering::SeqCst);
        let started = Instant::now();
        let response = route(store, queue, control, min_coverage, &request);
        udm_observe::counter_inc!("udm_serve_requests_total");
        udm_observe::histogram_observe!(
            "udm_serve_request_seconds",
            started.elapsed().as_secs_f64()
        );
        let keep_alive = request.keep_alive && !control.stop_accepting.load(Ordering::SeqCst);
        let write = write_response(&mut stream, &response, keep_alive);
        control.in_flight.fetch_sub(1, Ordering::SeqCst);
        if write.is_err() || !keep_alive {
            return;
        }
    }
}

#[derive(serde::Serialize)]
struct ErrorBody {
    error: String,
    status: u16,
}

fn error_body(err: &UdmError) -> Response {
    let status = handlers::status_for(err);
    let body = ErrorBody {
        error: err.to_string(),
        status,
    };
    json_or_500(status, &body)
}

fn json_or_500<T: serde::Serialize>(status: u16, value: &T) -> Response {
    match serde_json::to_string(value) {
        Ok(body) => Response::json(status, body),
        Err(e) => Response::json(500, format!("{{\"error\":\"encode: {e}\"}}")),
    }
}

fn parse_body<T: serde::Deserialize>(request: &Request) -> Result<T> {
    let text = std::str::from_utf8(&request.body).map_err(|_| UdmError::Parse {
        line: 1,
        message: "request body is not UTF-8".into(),
    })?;
    serde_json::from_str(text).map_err(|e| UdmError::Parse {
        line: 1,
        message: format!("bad JSON body: {e}"),
    })
}

fn route(
    store: &SnapshotStore,
    queue: Option<&BatchQueue>,
    control: &ServerControl,
    min_coverage: f64,
    request: &Request,
) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            udm_observe::counter_inc!("udm_serve_healthz_requests_total");
            let (status, body) = handlers::handle_healthz(store, min_coverage);
            json_or_500(status, &body)
        }
        ("GET", "/metrics") => {
            udm_observe::counter_inc!("udm_serve_metrics_requests_total");
            let snapshot = udm_observe::Snapshot::capture();
            Response::text(200, udm_observe::to_prometheus(&snapshot))
        }
        ("POST", "/density") => {
            udm_observe::counter_inc!("udm_serve_density_requests_total");
            match parse_body(request).and_then(|req| handlers::handle_density(store, queue, &req)) {
                Ok(body) => json_or_500(200, &body),
                Err(e) => error_body(&e),
            }
        }
        ("POST", "/classify") => {
            udm_observe::counter_inc!("udm_serve_classify_requests_total");
            match parse_body(request).and_then(|req| handlers::handle_classify(store, &req)) {
                Ok(body) => json_or_500(200, &body),
                Err(e) => error_body(&e),
            }
        }
        ("POST", "/cluster") => {
            udm_observe::counter_inc!("udm_serve_cluster_requests_total");
            match parse_body(request).and_then(|req| handlers::handle_cluster(store, &req)) {
                Ok(body) => json_or_500(200, &body),
                Err(e) => error_body(&e),
            }
        }
        ("POST", "/shutdown") => {
            control.shutdown_via_http.store(true, Ordering::SeqCst);
            Response::json(200, "{\"status\":\"shutting down\"}".into())
        }
        ("GET", "/") => Response::text(
            200,
            "udm serve: POST /density /classify /cluster, GET /healthz /metrics\n".into(),
        ),
        (
            _,
            "/healthz" | "/metrics" | "/density" | "/classify" | "/cluster" | "/shutdown" | "/",
        ) => Response::json(405, "{\"error\":\"method not allowed\"}".into()),
        _ => Response::json(404, "{\"error\":\"no such endpoint\"}".into()),
    }
}

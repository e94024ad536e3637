//! `served-churn`: the `fedco-serve` binary on loopback under a closed-loop
//! client population that joins, pulls, trains, pushes, heartbeats, goes
//! silent and leaves.
//!
//! The server runs as a child process with the admission, queue and drain
//! caps `FleetDriverConfig::from_scenario` derives for `server-soak`; its
//! ticker advances the logical tick (session expiry, queue drain) every
//! [`TICK_MS`] milliseconds. A load phase replays the scenario's fleet once
//! against a freshly spawned server, as `fedco-drive --connect … --workers
//! 2` does: two client threads, one connection each, step their half of the
//! devices through the scenario's logical ticks. Phases repeat until the
//! time budget is spent.
//!
//! The devices follow the state machine of `fedco_server::driver`, which
//! keeps it private; it is written out again here so that every request can
//! be timed by kind and recorded for the in-process replay.
//! [`run_lockstep`] steps the copy exactly as the driver's in-process run
//! does, so the two can be compared.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
// fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
use std::time::{Duration, Instant};

use fedco_core::scenario::ScenarioSpec;
use fedco_rng::rngs::{SmallRng, SplitMix64};
use fedco_rng::{Rng, SeedableRng};
use fedco_server::driver::{model_checksum, DriverReport, FleetDriverConfig};
use fedco_server::protocol::{Message, Refusal, WireError, WireUpdate};
use fedco_server::service::ServerCore;
use fedco_server::transport::{ChannelTransport, TcpTransport, Transport};
use fedco_world::churn::ChurnSpec;

use crate::measure::{median, peak_rss_mib, proc_status, quantile, repeat_within, Ledger};
use crate::report::{metric, EndToEnd, LayerReport};
use crate::{Ctx, Outcome};

/// The scenario the population and the server caps derive from.
pub const SCENARIO: &str = "server-soak";
/// Client connections (and client threads).
pub const CONNECTIONS: usize = 2;
/// Milliseconds per logical server tick.
pub const TICK_MS: u64 = 1;
/// Server spawns timed for the `setup_s` median.
const SETUP_SPAWNS: usize = 9;
/// Socket timeout of every client request.
const TIMEOUT: Duration = Duration::from_secs(10);
/// Load phases a run makes at least, each against a fresh server.
const MIN_PHASES: usize = 3;
/// Requests per connection kept for the in-process replay of a traced run.
const REPLAY_LIMIT: usize = 100_000;

/// The population and server caps of the served workload for `seed`.
pub fn driver_config(seed: u64) -> FleetDriverConfig {
    let spec = ScenarioSpec::preset(SCENARIO)
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        .unwrap_or_else(|| panic!("missing scenario preset {SCENARIO}"))
        .with_seed(seed);
    FleetDriverConfig::from_scenario(&spec)
}

// ------------------------------------------------------------- the child

/// A running `fedco-serve` child. Dropping it kills and reaps the process
/// unless it already exited, so no server outlives the benchmark.
struct ServerChild {
    child: Child,
    addr: String,
    lines: Receiver<String>,
    reader: Option<JoinHandle<()>>,
}

impl ServerChild {
    /// Spawns the server on a free loopback port and waits for its
    /// `listening=` line.
    fn spawn(bin: &Path, cfg: &FleetDriverConfig) -> Result<ServerChild, String> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0"])
            .args(["--tick-ms", &TICK_MS.to_string()])
            .args(["--model-len", &cfg.model_len.to_string()])
            .args(["--max-sessions", &cfg.max_sessions.to_string()])
            .args(["--queue", &cfg.queue_capacity.to_string()])
            .args(["--drain", &cfg.drain_per_tick.to_string()])
            .args([
                "--heartbeat-timeout",
                &cfg.heartbeat_timeout_ticks.to_string(),
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout: ChildStdout = child.stdout.take().ok_or("child has no stdout")?;
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let mut server = ServerChild {
            child,
            addr: String::new(),
            lines,
            reader: Some(reader),
        };
        let line = server
            .lines
            .recv_timeout(TIMEOUT)
            .map_err(|_| "server printed no listening= line".to_string())?;
        server.addr = line
            .strip_prefix("listening=")
            .ok_or_else(|| format!("unexpected first server line `{line}`"))?
            .to_string();
        Ok(server)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<TcpTransport, String> {
        TcpTransport::connect(&self.addr, TIMEOUT).map_err(|e| format!("connect: {e}"))
    }

    /// Sends `Shutdown`, waits for the process to exit cleanly and returns
    /// its `shutdown:` report line.
    fn shutdown(mut self, transport: &mut TcpTransport) -> Result<String, String> {
        match transport.request(&Message::Shutdown) {
            Ok(Message::ShutdownOk) => {}
            other => return Err(format!("shutdown answered {other:?}")),
        }
        // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
        let deadline = Instant::now() + TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("server did not exit after Shutdown".to_string()),
            }
        };
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        self.lines
            .try_iter()
            .find(|l| l.starts_with("shutdown:"))
            .ok_or_else(|| "server printed no shutdown line".to_string())
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The value of `key=` in a `key=value` report line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
}

/// Spawns a server and times spawn → first reply.
fn spawn_and_probe(bin: &Path, cfg: &FleetDriverConfig) -> Result<(ServerChild, f64), String> {
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    let start = Instant::now();
    let server = ServerChild::spawn(bin, cfg)?;
    let mut probe = server.connect()?;
    match probe.request(&Message::QueryStats) {
        Ok(Message::StatsIs { .. }) => Ok((server, start.elapsed().as_secs_f64())),
        other => Err(format!("first request answered {other:?}")),
    }
}

// ------------------------------------------------------------ the clients

/// A device's state: `fedco_server::driver`'s, which keeps it private.
#[derive(Debug, Clone, Copy)]
enum State {
    Offline { backoff: u64 },
    Training { session: u64, remaining: u64 },
    Pushing { session: u64 },
    Linger { session: u64, remaining: u64 },
}

/// One device of the fleet of `fedco_server::driver`, written out again
/// draw for draw so that every request can be timed by kind and recorded
/// for the in-process replay. [`run_lockstep`] holds it to the original.
#[derive(Debug)]
struct Device {
    id: u64,
    rng: SmallRng,
    state: State,
    base_version: u64,
    /// World churn outage intervals (empty with churn off).
    outages: Vec<(u64, u64)>,
}

/// The request kinds whose latency a traced run reports on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Join,
    Pull,
    Push,
    Other,
}

/// The client-side counts of `DriverReport`.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    joins_attempted: u64,
    joins_refused_seen: u64,
    pushes_sent: u64,
    backpressure_seen: u64,
    silent_deaths: u64,
    world_dropouts: u64,
}

/// Everything measured on one client connection.
#[derive(Debug, Default)]
struct Tallies {
    latencies_ns: Vec<u64>,
    by_kind: Vec<(Kind, u64)>,
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    sent: Vec<(Instant, Message)>,
    requests: u64,
    refusals: u64,
    pushes_accepted: u64,
    counts: Counts,
}

/// One client connection: the transport plus its tallies.
struct Conn<T: Transport> {
    transport: T,
    traced: bool,
    tallies: Tallies,
}

impl<T: Transport> Conn<T> {
    fn new(transport: T, traced: bool) -> Self {
        Conn {
            transport,
            traced,
            tallies: Tallies::default(),
        }
    }

    fn request(&mut self, msg: Message) -> Result<Message, WireError> {
        let kind = match msg {
            Message::Hello { .. } => Kind::Join,
            Message::PullModel { .. } => Kind::Pull,
            Message::PushUpdate { .. } => Kind::Push,
            _ => Kind::Other,
        };
        // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
        let start = Instant::now();
        let reply = self.transport.request(&msg)?;
        let ns = start.elapsed().as_nanos() as u64;
        let t = &mut self.tallies;
        t.requests += 1;
        t.latencies_ns.push(ns);
        if self.traced {
            t.by_kind.push((kind, ns));
            if t.sent.len() < REPLAY_LIMIT {
                t.sent.push((start, msg));
            }
        }
        match reply {
            Message::JoinRefused { .. } | Message::PushRefused { .. } => t.refusals += 1,
            Message::PushApplied { .. } | Message::PushQueued { .. } => t.pushes_accepted += 1,
            _ => {}
        }
        Ok(reply)
    }
}

impl Device {
    fn new(id: u64, cfg: &FleetDriverConfig) -> Device {
        let mut splitter = SplitMix64::seed_from_u64(cfg.seed);
        splitter.absorb(0x5E55_1014); // the driver's domain separator
        Device {
            id,
            rng: SmallRng::seed_from_u64(splitter.absorb(id)),
            state: State::Offline { backoff: 0 },
            base_version: 0,
            outages: cfg.churn.intervals_for(cfg.seed, id as usize, cfg.ticks),
        }
    }

    fn offline(&mut self, min: u64, spread: u64) {
        self.state = State::Offline {
            backoff: min + self.rng.gen_range(0..spread),
        };
    }

    /// One logical tick of the device.
    fn step<T: Transport>(
        &mut self,
        conn: &mut Conn<T>,
        tick: u64,
        cfg: &FleetDriverConfig,
    ) -> Result<(), WireError> {
        // Inside a world outage the device drops its session silently.
        if ChurnSpec::is_offline(&self.outages, tick) {
            if !matches!(self.state, State::Offline { .. }) {
                conn.tallies.counts.world_dropouts += 1;
                self.state = State::Offline { backoff: 0 };
            }
            return Ok(());
        }
        match self.state {
            State::Offline { backoff } if backoff > 0 => {
                self.state = State::Offline {
                    backoff: backoff - 1,
                };
            }
            State::Offline { .. } => {
                if !self.rng.gen_bool(cfg.arrival_p) {
                    return Ok(());
                }
                conn.tallies.counts.joins_attempted += 1;
                match conn.request(Message::Hello { client: self.id })? {
                    Message::Welcome { session, .. } => {
                        if let Message::Model { version, .. } =
                            conn.request(Message::PullModel { session })?
                        {
                            self.base_version = version;
                        }
                        self.state = State::Training {
                            session,
                            remaining: 3 + self.rng.gen_range(0..8u64),
                        };
                    }
                    _ => {
                        conn.tallies.counts.joins_refused_seen += 1;
                        self.offline(2, 6);
                    }
                }
            }
            State::Training { session, remaining } => {
                // Some devices die silently and leave the session to expire.
                if self.rng.gen_bool(0.01) {
                    conn.tallies.counts.silent_deaths += 1;
                    self.state = State::Offline {
                        backoff: cfg.heartbeat_timeout_ticks + 4,
                    };
                    return Ok(());
                }
                // An app interruption stretches the epoch.
                let mut remaining = remaining;
                if self.rng.gen_bool(cfg.arrival_p) {
                    remaining += 1 + self.rng.gen_range(0..4u64);
                }
                if remaining > 1 {
                    if tick % 4 == self.id % 4
                        && !matches!(
                            conn.request(Message::Heartbeat { session })?,
                            Message::HeartbeatAck { .. }
                        )
                    {
                        self.state = State::Offline { backoff: 1 };
                        return Ok(());
                    }
                    self.state = State::Training {
                        session,
                        remaining: remaining - 1,
                    };
                } else {
                    self.push(conn, session, cfg)?;
                }
            }
            State::Pushing { session } => self.push(conn, session, cfg)?,
            State::Linger {
                session,
                remaining: 0,
            } => {
                conn.request(Message::Leave { session })?;
                self.offline(1, 4);
            }
            State::Linger { session, remaining } => {
                if tick % 3 == self.id % 3 {
                    conn.request(Message::Heartbeat { session })?;
                }
                self.state = State::Linger {
                    session,
                    remaining: remaining - 1,
                };
            }
        }
        Ok(())
    }

    fn push<T: Transport>(
        &mut self,
        conn: &mut Conn<T>,
        session: u64,
        cfg: &FleetDriverConfig,
    ) -> Result<(), WireError> {
        conn.tallies.counts.pushes_sent += 1;
        let update = WireUpdate {
            client: self.id,
            base_version: self.base_version,
            num_samples: 16 + self.rng.gen_range(0..64u64),
            train_loss_bits: self.rng.gen_range(0.0..4.0f32).to_bits(),
            train_accuracy_bits: self.rng.gen_range(0.0..1.0f32).to_bits(),
            params: (0..cfg.model_len)
                .map(|_| self.rng.gen_range(-1.0..1.0f32))
                .collect(),
        };
        match conn.request(Message::PushUpdate { session, update })? {
            Message::PushApplied { version, .. } => {
                self.base_version = version;
                // Most devices leave; the rest let the session expire.
                if self.rng.gen_bool(0.7) {
                    conn.request(Message::Leave { session })?;
                    self.offline(1, 4);
                } else {
                    self.state = State::Offline {
                        backoff: self.rng.gen_range(8..20u64),
                    };
                }
            }
            Message::PushQueued { .. } => {
                if self.rng.gen_bool(0.15) {
                    // Walks away; the queued update drains into a dead session.
                    conn.tallies.counts.silent_deaths += 1;
                    self.state = State::Offline {
                        backoff: cfg.heartbeat_timeout_ticks + 4,
                    };
                } else {
                    self.state = State::Linger {
                        session,
                        remaining: 4 + self.rng.gen_range(0..4u64),
                    };
                }
            }
            Message::PushRefused {
                reason: Refusal::Backpressure,
            } => {
                conn.tallies.counts.backpressure_seen += 1;
                self.state = State::Pushing { session };
            }
            _ => self.offline(2, 6),
        }
        Ok(())
    }
}

/// The devices connection `w` of [`CONNECTIONS`] steps: every id `i` with
/// `i % CONNECTIONS == w`, as `fedco_server::driver::run_over_tcp` shards
/// them.
fn devices_of(cfg: &FleetDriverConfig, w: usize) -> Vec<Device> {
    (0..cfg.devices as u64)
        .filter(|id| *id as usize % CONNECTIONS == w)
        .map(|id| Device::new(id, cfg))
        .collect()
}

/// Steps the whole fleet over the in-process channel transport, advancing
/// the server's tick after every sweep, exactly as
/// `fedco_server::driver::run_in_process` does. The two reports must be
/// equal: that pins the devices here to the driver's.
///
/// # Errors
///
/// None occur over the channel transport; the type is the transport's.
pub fn run_lockstep(cfg: &FleetDriverConfig) -> Result<DriverReport, WireError> {
    let core = Arc::new(Mutex::new(ServerCore::new(cfg.server_config())));
    let lock = || {
        // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
        core.lock().expect("server core mutex poisoned")
    };
    let mut conn = Conn::new(ChannelTransport::new(core.clone()), false);
    let mut devices: Vec<Device> = (0..cfg.devices as u64)
        .map(|id| Device::new(id, cfg))
        .collect();
    for tick in 0..cfg.ticks {
        for device in devices.iter_mut() {
            device.step(&mut conn, tick, cfg)?;
        }
        lock().advance_tick();
    }
    let core = lock();
    let (final_version, params) = core.model();
    let c = conn.tallies.counts;
    Ok(DriverReport {
        ticks: cfg.ticks,
        joins_attempted: c.joins_attempted,
        joins_refused_seen: c.joins_refused_seen,
        pushes_sent: c.pushes_sent,
        backpressure_seen: c.backpressure_seen,
        silent_deaths: c.silent_deaths,
        world_dropouts: c.world_dropouts,
        server: core.counters(),
        final_version,
        model_checksum: model_checksum(&params),
        live_sessions: core.live_sessions(),
    })
}

/// What load phases measured, summed over connections.
#[derive(Debug, Default)]
struct Load {
    wall_s: f64,
    conns: Vec<Tallies>,
    wire_errors: u64,
}

impl Load {
    fn requests(&self) -> u64 {
        self.conns.iter().map(|c| c.requests).sum()
    }

    fn sum(&self, f: impl Fn(&Tallies) -> u64) -> u64 {
        self.conns.iter().map(f).sum()
    }

    fn latencies_us(&self, kind: Option<Kind>) -> Vec<f64> {
        match kind {
            None => self
                .conns
                .iter()
                .flat_map(|c| c.latencies_ns.iter().map(|ns| *ns as f64 / 1e3))
                .collect(),
            Some(k) => self
                .conns
                .iter()
                .flat_map(|c| c.by_kind.iter().filter(|(kk, _)| *kk == k))
                .map(|(_, ns)| *ns as f64 / 1e3)
                .collect(),
        }
    }

    /// Adds another phase's measurements to these.
    fn absorb(&mut self, other: Load) {
        self.wall_s += other.wall_s;
        self.conns.extend(other.conns);
        self.wire_errors += other.wire_errors;
    }
}

/// Steps connection `w`'s devices through the scenario's `cfg.ticks`
/// logical ticks. Returns the tallies and whether a request failed.
fn drive_connection(
    addr: &str,
    cfg: &FleetDriverConfig,
    w: usize,
    traced: bool,
) -> (Tallies, bool) {
    let transport = match TcpTransport::connect(addr, TIMEOUT) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("perfbench: connect: {e}");
            return (Tallies::default(), true);
        }
    };
    let mut conn = Conn::new(transport, traced);
    let mut devices = devices_of(cfg, w);
    for tick in 0..cfg.ticks {
        for d in devices.iter_mut() {
            if let Err(e) = d.step(&mut conn, tick, cfg) {
                eprintln!("perfbench: request failed: {e}");
                return (conn.tallies, true);
            }
        }
    }
    (conn.tallies, false)
}

/// One load phase: the whole scenario replayed against `addr`, one thread
/// per connection, as `fedco-drive --connect … --workers 2` replays it.
fn drive(addr: &str, cfg: &FleetDriverConfig, traced: bool) -> Load {
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    let start = Instant::now();
    let results: Vec<(Tallies, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|w| scope.spawn(move || drive_connection(addr, cfg, w, traced)))
            .collect();
        handles
            .into_iter()
            // fedco-audit: allow(panic-surface): benchmark harness: failing here is a bug in the benchmark, so the run stops loudly
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut load = Load {
        wall_s: start.elapsed().as_secs_f64(),
        ..Load::default()
    };
    for (conn, failed) in results {
        load.wire_errors += u64::from(failed);
        load.conns.push(conn);
    }
    load
}

/// Samples the child's thread count until `stop` is set.
fn sample_threads(pid: String, stop: Arc<AtomicBool>, max: Arc<AtomicU64>) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if let Some(n) = proc_status(&pid, "Threads") {
                max.fetch_max(n, Ordering::Relaxed);
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    })
}

/// Checks a finished load against the server's shutdown report and records
/// its operations. Returns the updates the server applied.
fn settle(load: &Load, shutdown: Result<String, String>, ledger: &mut Ledger) -> u64 {
    let requests = load.requests();
    ledger.ok(requests);
    ledger.check(
        load.wire_errors == 0,
        "a client connection hit a wire error",
    );
    let line = match shutdown {
        Ok(line) => line,
        Err(e) => {
            ledger.fail(1, &format!("server shutdown: {e}"));
            return 0;
        }
    };
    let version = field(&line, "version");
    let applied = field(&line, "async_updates");
    ledger.check(
        version.is_some() && version == applied,
        &format!("final model version differs from the pushes applied: {line}"),
    );
    let applied = applied.unwrap_or(0);
    ledger.check(
        applied <= load.sum(|c| c.pushes_accepted),
        "the server applied more pushes than it accepted",
    );
    applied
}

/// What one load phase on a fresh server gave.
struct Phase {
    setup_s: f64,
    load: Load,
    applied: u64,
    rss_mib: f64,
    threads: u64,
}

/// Spawns a server, replays the scenario against it once and shuts it
/// down, checking the outcome into `ledger`.
fn phase(
    bin: &Path,
    cfg: &FleetDriverConfig,
    traced: bool,
    ledger: &mut Ledger,
) -> Result<Phase, String> {
    let (server, setup_s) = spawn_and_probe(bin, cfg)?;
    let stop = Arc::new(AtomicBool::new(false));
    let threads = Arc::new(AtomicU64::new(0));
    let sampler = traced.then(|| sample_threads(server.pid(), stop.clone(), threads.clone()));
    let load = drive(&server.addr, cfg, traced);
    stop.store(true, Ordering::Relaxed);
    if let Some(s) = sampler {
        let _ = s.join();
    }
    let rss_mib = peak_rss_mib(&server.pid());
    let mut control = server.connect()?;
    let applied = settle(&load, server.shutdown(&mut control), ledger);
    Ok(Phase {
        setup_s,
        load,
        applied,
        rss_mib,
        threads: threads.load(Ordering::Relaxed),
    })
}

/// Runs `rep` until the budget is spent, at least [`MIN_PHASES`] times.
/// Stops at the first error.
fn within_budget(ctx: &Ctx, mut rep: impl FnMut() -> Result<(), String>) -> Result<(), String> {
    let mut result = Ok(());
    repeat_within(ctx.budget(), MIN_PHASES, || {
        result = rep();
        result.is_ok()
    });
    result
}

/// Replays the recorded request stream, in client send order, through the
/// in-process channel transport: the server core's cost per request without
/// sockets or threads.
fn replay_ns(load: &Load, cfg: &FleetDriverConfig) -> f64 {
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    let mut sent: Vec<&(Instant, Message)> = load.conns.iter().flat_map(|c| &c.sent).collect();
    sent.sort_by_key(|(at, _)| *at);
    let mut config = cfg.server_config();
    // The live server ticks on the wall clock; the replay ticks after the
    // same number of frames per tick on average.
    let ticks = (load.wall_s * 1e3 / TICK_MS as f64).max(1.0);
    config.tick_every = (load.requests() as f64 / ticks).round().max(1.0) as u64;
    let mut transport = ChannelTransport::new(Arc::new(Mutex::new(ServerCore::new(config))));
    // fedco-audit: allow(wall-clock): the benchmark measures host time; no wall-clock reading feeds a simulated result
    let start = Instant::now();
    for (_, msg) in &sent {
        let _ = transport.request(msg);
    }
    start.elapsed().as_nanos() as f64 / sent.len().max(1) as f64
}

/// The traced run: untraced and traced phases alternate; the per-layer
/// metrics come from the traced ones, the tracing overhead from both.
fn trace(bin: &Path, cfg: &FleetDriverConfig, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let (mut plain, mut traced) = (Load::default(), Load::default());
    let (mut applied, mut threads, mut handle_ns) = (0, 0, None);
    within_budget(ctx, || {
        plain.absorb(phase(bin, cfg, false, &mut out.ledger)?.load);
        let mut p = phase(bin, cfg, true, &mut out.ledger)?;
        handle_ns.get_or_insert_with(|| replay_ns(&p.load, cfg));
        for c in &mut p.load.conns {
            drop(std::mem::take(&mut c.sent));
        }
        applied += p.applied;
        threads = threads.max(p.threads);
        traced.absorb(p.load);
        Ok(())
    })?;
    let per_request = |l: &Load| l.wall_s / l.requests().max(1) as f64;
    let p99 = |kind| quantile(&traced.latencies_us(Some(kind)), 0.99);
    let overhead = per_request(&traced) / per_request(&plain) - 1.0;
    let r: &mut LayerReport = &mut out.layers;
    r.set("server.handle_ns", handle_ns.unwrap_or(0.0));
    r.set("server.join_p99_us", p99(Kind::Join));
    r.set("server.pull_p99_us", p99(Kind::Pull));
    r.set("server.push_p99_us", p99(Kind::Push));
    r.set(
        "server.refused_frac",
        traced.sum(|c| c.refusals) as f64 / traced.requests().max(1) as f64,
    );
    r.set(
        "server.applied_frac",
        applied as f64 / traced.sum(|c| c.counts.pushes_sent).max(1) as f64,
    );
    r.set("server.threads_max", threads as f64);
    r.set("server.requests", traced.requests() as f64);
    r.set(
        "trace.overhead_s",
        overhead * per_request(&plain) * traced.requests() as f64,
    );
    r.set("trace.overhead_frac", overhead);
    Ok(())
}

/// The untraced run: timed spawns, then load phases on fresh servers.
fn measure(
    bin: &Path,
    cfg: &FleetDriverConfig,
    ctx: &Ctx,
    out: &mut Outcome,
) -> Result<(), String> {
    // Set-up samples: spawn-only probes plus the spawn of every load phase.
    let mut setups = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        let (server, setup_s) = spawn_and_probe(bin, cfg)?;
        setups.push(setup_s);
        let mut control = server.connect()?;
        server.shutdown(&mut control)?;
        out.ledger.ok(1);
    }
    let (mut rates, mut rss) = (Vec::new(), Vec::new());
    let (mut total, mut applied) = (Load::default(), 0);
    within_budget(ctx, || {
        let p = phase(bin, cfg, false, &mut out.ledger)?;
        setups.push(p.setup_s);
        rates.push(p.load.requests() as f64 / p.load.wall_s);
        rss.push(p.rss_mib);
        applied += p.applied;
        total.absorb(p.load);
        Ok(())
    })?;
    let latencies = total.latencies_us(None);
    out.e2e = EndToEnd {
        setup_s: median(&setups),
        work_per_s: median(&rates),
        peak_rss_mb: median(&rss),
    };
    out.info = vec![
        metric("request_p50_us", quantile(&latencies, 0.5), "us"),
        metric("request_p99_us", quantile(&latencies, 0.99), "us"),
        metric("request_samples", latencies.len() as f64, "count"),
        metric("pushes_applied", applied as f64, "count"),
        metric("phases", rates.len() as f64, "count"),
    ];
    Ok(())
}

/// `served-churn`.
pub fn served(ctx: &Ctx, out: &mut Outcome) {
    let cfg = driver_config(ctx.seed);
    let Some(bin) = ctx.serve_bin.as_deref() else {
        out.ledger
            .fail(1, "no fedco-serve binary given (--serve-bin)");
        return;
    };
    let result = if ctx.trace {
        trace(bin, &cfg, ctx, out)
    } else {
        measure(bin, &cfg, ctx, out)
    };
    if let Err(e) = result {
        out.ledger.fail(1, &e);
    }
}

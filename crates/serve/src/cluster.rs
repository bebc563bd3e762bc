//! Backend supervision for `gmr-serve cluster`.
//!
//! The supervisor spawns N backend `gmr-serve serve` processes (each on
//! an ephemeral port discovered through its `--port-file`), replicates
//! the artifact directory to all of them by forwarding the same
//! `--artifacts` flag, and keeps them alive: a health thread probes
//! `/healthz` on every backend, and a failed probe (or a reaped child)
//! triggers a kill + respawn while the restart budget lasts. Liveness and
//! addresses flow to the gateway through the shared [`BackendSlot`]s, so
//! routing reacts to restarts without any channel between the two.
//!
//! Shutdown is graceful end to end: each child gets SIGTERM (the
//! backend's own drain path — it finishes in-flight requests and writes
//! its journal) and is escalated to SIGKILL only after a drain timeout.

use crate::client::Client;
use crate::gateway::BackendSlot;
use gmr_obsv::journal::Event;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Backend count.
    pub backends: usize,
    /// The `gmr-serve` binary to spawn (normally `current_exe()`).
    pub exe: PathBuf,
    /// Extra arguments forwarded verbatim to every backend's `serve`
    /// command (`--artifacts DIR`, `--days N`, `--hot-models N`, …).
    pub backend_args: Vec<String>,
    /// Scratch directory for port files and backend journals.
    pub dir: PathBuf,
    /// Restarts allowed per backend before the slot is given up.
    pub restart_budget: u32,
    /// Health-probe period.
    pub health_interval: Duration,
    /// Per-probe connect/read timeout.
    pub probe_timeout: Duration,
    /// Consecutive failed probes before a live child is declared dead
    /// and restarted. A reaped child restarts immediately; the strike
    /// budget only buffers *slow* backends (a loaded box can hold a
    /// `/healthz` answer past one probe window without being dead).
    pub probe_strikes: u32,
    /// How long to wait for a spawned backend's port file.
    pub spawn_timeout: Duration,
    /// How long a SIGTERMed backend may drain before SIGKILL.
    pub drain_timeout: Duration,
}

impl ClusterConfig {
    /// Defaults for `n` backends of `exe`, scratch space under `dir`.
    pub fn new(n: usize, exe: PathBuf, dir: PathBuf) -> ClusterConfig {
        ClusterConfig {
            backends: n,
            exe,
            backend_args: Vec::new(),
            dir,
            restart_budget: 3,
            health_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            probe_strikes: 3,
            spawn_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(10),
        }
    }
}

struct BackendProc {
    child: Option<Child>,
    restarts: u32,
    strikes: u32,
    gave_up: bool,
}

/// A running cluster of supervised backends.
pub struct Cluster {
    config: ClusterConfig,
    slots: Arc<Vec<BackendSlot>>,
    procs: Arc<Mutex<Vec<BackendProc>>>,
    stop: Arc<AtomicBool>,
    health: Option<JoinHandle<()>>,
}

impl Cluster {
    /// Spawn every backend, wait for all of them to come up, start the
    /// health loop.
    pub fn start(config: ClusterConfig) -> io::Result<Cluster> {
        std::fs::create_dir_all(&config.dir)?;
        let slots: Arc<Vec<BackendSlot>> = Arc::new(
            (0..config.backends)
                .map(|_| BackendSlot::default())
                .collect(),
        );
        let mut procs = Vec::with_capacity(config.backends);
        for i in 0..config.backends {
            let (child, addr) = spawn_backend(&config, i)?;
            slots[i].set_addr(addr);
            gmr_obsv::emit(Event::Backend {
                idx: i as u32,
                addr: addr.to_string(),
                state: "up",
                restarts: 0,
            });
            procs.push(BackendProc {
                child: Some(child),
                restarts: 0,
                strikes: 0,
                gave_up: false,
            });
        }
        let procs = Arc::new(Mutex::new(procs));
        let stop = Arc::new(AtomicBool::new(false));
        let health = {
            let slots = Arc::clone(&slots);
            let procs = Arc::clone(&procs);
            let stop = Arc::clone(&stop);
            let config = config.clone();
            thread::Builder::new()
                .name("cluster-health".into())
                .spawn(move || health_loop(&config, &slots, &procs, &stop))?
        };
        Ok(Cluster {
            config,
            slots,
            procs,
            stop,
            health: Some(health),
        })
    }

    /// The slots the gateway routes over.
    pub fn slots(&self) -> Arc<Vec<BackendSlot>> {
        Arc::clone(&self.slots)
    }

    /// Hard-kill one backend (tests exercise failover with this). The
    /// health loop will notice and respawn it.
    pub fn kill_backend(&self, idx: usize) {
        let mut procs = self.procs.lock().unwrap();
        if let Some(child) = procs[idx].child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        procs[idx].child = None;
    }

    /// Graceful shutdown: stop the health loop, SIGTERM every backend,
    /// escalate to SIGKILL after the drain timeout.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.health.take() {
            let _ = h.join();
        }
        let mut procs = self.procs.lock().unwrap();
        for (i, p) in procs.iter_mut().enumerate() {
            let Some(child) = p.child.as_mut() else {
                continue;
            };
            let pid = child.id();
            if !crate::sig::terminate_pid(pid) {
                let _ = child.kill();
            }
            let deadline = Instant::now() + self.config.drain_timeout;
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        thread::sleep(Duration::from_millis(20));
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                }
            }
            self.slots[i].mark_down();
            gmr_obsv::emit(Event::Backend {
                idx: i as u32,
                addr: self.slots[i]
                    .addr_any()
                    .map(|a| a.to_string())
                    .unwrap_or_default(),
                state: "drained",
                restarts: p.restarts,
            });
        }
    }
}

/// Spawn backend `i` on an ephemeral port and wait for its port file.
fn spawn_backend(config: &ClusterConfig, i: usize) -> io::Result<(Child, SocketAddr)> {
    let port_file = config.dir.join(format!("backend-{i}.port"));
    let journal = config.dir.join(format!("backend-{i}.jsonl"));
    let _ = std::fs::remove_file(&port_file);
    let mut cmd = Command::new(&config.exe);
    cmd.arg("serve")
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--port-file")
        .arg(&port_file)
        .arg("--journal")
        .arg(&journal)
        .args(&config.backend_args)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
    let mut child = cmd.spawn()?;
    gmr_obsv::emit(Event::Backend {
        idx: i as u32,
        addr: String::new(),
        state: "spawned",
        restarts: 0,
    });
    match wait_port_file(&port_file, &mut child, config.spawn_timeout) {
        Ok(addr) => Ok((child, addr)),
        Err(e) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(e)
        }
    }
}

/// Poll for the atomically-renamed port file; bail early if the child
/// exits first.
fn wait_port_file(path: &Path, child: &mut Child, timeout: Duration) -> io::Result<SocketAddr> {
    let deadline = Instant::now() + timeout;
    loop {
        if let Ok(text) = std::fs::read_to_string(path) {
            if let Ok(addr) = text.trim().parse() {
                return Ok(addr);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(io::Error::other(format!(
                "backend exited during startup: {status}"
            )));
        }
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "backend did not write its port file",
            ));
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// One HTTP health probe, every socket step bounded by `timeout` (never
/// blocks the loop).
fn probe_healthz(addr: SocketAddr, timeout: Duration) -> bool {
    Client::with_timeout(addr, timeout)
        .request("GET", "/healthz", b"")
        .is_ok_and(|r| r.status == 200)
}

fn health_loop(
    config: &ClusterConfig,
    slots: &[BackendSlot],
    procs: &Mutex<Vec<BackendProc>>,
    stop: &AtomicBool,
) {
    while !stop.load(Ordering::SeqCst) {
        for i in 0..slots.len() {
            if stop.load(Ordering::SeqCst) {
                return;
            }
            // A reaped child is definitely down; otherwise ask /healthz.
            let exited = {
                let mut procs = procs.lock().unwrap();
                if procs[i].gave_up {
                    continue;
                }
                match procs[i].child.as_mut() {
                    None => true,
                    Some(c) => matches!(c.try_wait(), Ok(Some(_))),
                }
            };
            let healthy = !exited
                && matches!(slots[i].addr_any(), Some(addr) if probe_healthz(addr, config.probe_timeout));
            if healthy {
                procs.lock().unwrap()[i].strikes = 0;
                // Revive a slot the gateway marked down on a transient
                // transport error.
                if !slots[i].is_alive() {
                    slots[i].mark_up();
                }
                continue;
            }
            // A live child gets a strike budget: one slow probe on a
            // loaded box is not death. A reaped child restarts now.
            if !exited {
                let mut procs = procs.lock().unwrap();
                procs[i].strikes += 1;
                if procs[i].strikes < config.probe_strikes {
                    continue;
                }
            }
            slots[i].mark_down();
            restart_backend(config, slots, procs, i);
        }
        thread::sleep(config.health_interval);
    }
}

/// Kill whatever is left of backend `i` and respawn it, unless the
/// restart budget is spent.
fn restart_backend(
    config: &ClusterConfig,
    slots: &[BackendSlot],
    procs: &Mutex<Vec<BackendProc>>,
    i: usize,
) {
    let restarts = {
        let mut procs = procs.lock().unwrap();
        if let Some(child) = procs[i].child.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
        procs[i].child = None;
        if procs[i].restarts >= config.restart_budget {
            procs[i].gave_up = true;
            gmr_obsv::emit(Event::Backend {
                idx: i as u32,
                addr: String::new(),
                state: "gave-up",
                restarts: procs[i].restarts,
            });
            return;
        }
        procs[i].restarts += 1;
        procs[i].strikes = 0;
        procs[i].restarts
    };
    match spawn_backend(config, i) {
        Ok((child, addr)) => {
            procs.lock().unwrap()[i].child = Some(child);
            slots[i].set_addr(addr);
            gmr_obsv::emit(Event::Backend {
                idx: i as u32,
                addr: addr.to_string(),
                state: "restarted",
                restarts,
            });
        }
        Err(e) => {
            gmr_obsv::emit(Event::Note {
                name: "cluster.respawn_failed",
                msg: format!("backend {i}: {e}"),
            });
        }
    }
}

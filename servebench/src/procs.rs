//! Server processes started by the benchmark: the shipped `adcast-serve`
//! and `adcast-router` binaries, each in its own process.
//!
//! Every [`Proc`] is killed and waited for when dropped, so an error or
//! a failed check never leaves a server running. The pid registry backs
//! the run's watchdog, which kills whatever is left if a run overstays.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use adcast_net::{Client, ClientConfig, NetError, Request, Response};

use crate::inputs::{SHARDS, USERS};

static LIVE: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// SIGKILL every server still registered (the watchdog's last resort).
pub fn kill_all_registered() {
    let pids = LIVE.lock().map(|l| l.clone()).unwrap_or_default();
    for pid in pids {
        let _ = Command::new("kill")
            .args(["-9", &pid.to_string()])
            .stderr(Stdio::null())
            .status();
    }
}

/// One running server process.
pub struct Proc {
    child: Child,
    /// Kept open so the server's stdout never sees a closed pipe.
    stdout: BufReader<ChildStdout>,
    log: PathBuf,
    pub addr: String,
    pub name: String,
    exited: bool,
}

impl Proc {
    /// Spawn `bin` with `args`, stderr to `log`; see [`Proc::wait_listening`].
    pub fn start(bin: &Path, args: &[String], log: &Path, name: &str) -> Result<Proc, String> {
        let log_file = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        LIVE.lock()
            .map_err(|_| "pid registry poisoned")?
            .push(child.id());
        let stdout = child.stdout.take().ok_or("child stdout missing")?;
        Ok(Proc {
            child,
            stdout: BufReader::new(stdout),
            log: log.to_path_buf(),
            addr: String::new(),
            name: name.to_string(),
            exited: false,
        })
    }

    /// Wait for the `listening on HOST:PORT` line a server prints once
    /// it has recovered and bound its listener.
    pub fn wait_listening(&mut self) -> Result<(), String> {
        let mut line = String::new();
        let read = self.stdout.read_line(&mut line).unwrap_or(0);
        match line.trim().strip_prefix("listening on ") {
            Some(addr) if read > 0 => {
                self.addr = addr.to_string();
                Ok(())
            }
            _ => {
                let tail = std::fs::read_to_string(&self.log).unwrap_or_default();
                Err(format!("{} did not start: {}", self.name, tail.trim()))
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("read status of {}: {e}", self.name))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("no VmHWM for {}", self.name))
    }

    /// CPU time (user + system, every thread, live or exited) the process
    /// has used so far, in seconds.
    pub fn cpu_s(&self) -> Result<f64, String> {
        cpu_s(self.pid()).ok_or_else(|| format!("no CPU times for {}", self.name))
    }

    /// `kill -9` and reap.
    pub fn kill(&mut self) {
        if !self.exited {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.exited = true;
            if let Ok(mut live) = LIVE.lock() {
                let pid = self.child.id();
                live.retain(|p| *p != pid);
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill();
    }
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, which
/// Linux fixes at 100 on every architecture it reports it for).
const USER_HZ: f64 = 100.0;

/// `utime + stime` of process `pid` in seconds. The kernel derives both
/// from the threads' scheduled run time, which leaves out the time the
/// host hypervisor stole from the virtual CPU (`CONFIG_PARAVIRT_TIME_ACCOUNTING`).
fn cpu_s(pid: u32) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name: state is field 3,
    // utime 14 and stime 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<u64>().ok();
    Some((ticks(11)? + ticks(12)?) as f64 / USER_HZ)
}

/// Where the binaries live and where runs keep their data.
pub struct Env {
    pub bin_dir: PathBuf,
    pub work_dir: PathBuf,
}

impl Env {
    fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// Start a durable node (`--fsync always`, default snapshots, 2
    /// shards) on `data`; `cluster` adds `--partition`/`--role`/
    /// `--follower` flags. Wait for it with [`Proc::wait_listening`].
    fn start_node(&self, data: &Path, cluster: &[String], name: &str) -> Result<Proc, String> {
        std::fs::create_dir_all(data).map_err(|e| format!("mkdir {}: {e}", data.display()))?;
        let mut args: Vec<String> = [
            "--addr",
            "127.0.0.1:0",
            "--users",
            &USERS.to_string(),
            "--shards",
            &SHARDS.to_string(),
            "--fsync",
            "always",
            "--data-dir",
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        args.push(data.display().to_string());
        args.extend_from_slice(cluster);
        Proc::start(
            &self.bin("adcast-serve"),
            &args,
            &self.work_dir.join(format!("{name}.log")),
            name,
        )
    }

    /// A standalone node on `data`, started and listening.
    pub fn spawn_node(&self, data: &Path, name: &str) -> Result<Proc, String> {
        let mut node = self.start_node(data, &[], name)?;
        node.wait_listening()?;
        Ok(node)
    }

    /// The cluster on `dir`: 2 partitions, each a primary plus a
    /// follower, behind the router. Nodes of one role recover in
    /// parallel. Returns `[p0, p0 follower, p1, p1 follower, router]`.
    pub fn spawn_cluster(&self, dir: &Path) -> Result<Vec<Proc>, String> {
        let mut followers = Vec::new();
        for p in 0..2u16 {
            followers.push(self.start_node(
                &dir.join(format!("p{p}f")),
                &cluster_args(p, "follower", None),
                &format!("p{p}-follower"),
            )?);
        }
        for f in &mut followers {
            f.wait_listening()?;
        }
        let mut primaries = Vec::new();
        for (p, f) in (0..2u16).zip(&followers) {
            primaries.push(self.start_node(
                &dir.join(format!("p{p}")),
                &cluster_args(p, "primary", Some(&f.addr)),
                &format!("p{p}-primary"),
            )?);
        }
        for p in &mut primaries {
            p.wait_listening()?;
        }
        let mut args = vec!["--addr".to_string(), "127.0.0.1:0".to_string()];
        for (p, f) in primaries.iter().zip(&followers) {
            args.push("--partition".into());
            args.push(format!("{},{}", p.addr, f.addr));
        }
        let mut router = Proc::start(
            &self.bin("adcast-router"),
            &args,
            &self.work_dir.join("router.log"),
            "router",
        )?;
        router.wait_listening()?;
        let mut procs = Vec::new();
        for (p, f) in primaries.into_iter().zip(followers) {
            procs.push(p);
            procs.push(f);
        }
        procs.push(router);
        Ok(procs)
    }
}

fn cluster_args(partition: u16, role: &str, follower: Option<&str>) -> Vec<String> {
    let mut args = vec![
        "--partition".to_string(),
        partition.to_string(),
        "--role".to_string(),
        role.to_string(),
    ];
    if let Some(f) = follower {
        args.push("--follower".into());
        args.push(f.to_string());
    }
    args
}

/// Client settings: a short connect retry (servers are already
/// listening) and a reply timeout well inside the run's time limit.
pub fn client_config() -> ClientConfig {
    ClientConfig {
        connect_attempts: 3,
        initial_backoff: Duration::from_millis(20),
        rpc_timeout: Some(Duration::from_secs(20)),
    }
}

/// Dial `addr` and wait for the first answered Stats RPC; returns the
/// client and the time it took. Retries for up to `limit`, so it also
/// times a server that is still recovering.
pub fn first_stats(addr: &str, limit: Duration) -> Result<(Client, Duration), String> {
    let started = Instant::now();
    loop {
        let attempt = Client::connect(addr, &client_config()).and_then(|mut c| {
            match c.call(&Request::Stats)? {
                Response::Stats(_) => Ok(c),
                other => Err(NetError::Io(std::io::Error::other(format!(
                    "Stats answered {other:?}"
                )))),
            }
        });
        match attempt {
            Ok(c) => return Ok((c, started.elapsed())),
            Err(e) if started.elapsed() > limit => {
                return Err(format!("no Stats answer from {addr} within {limit:?}: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

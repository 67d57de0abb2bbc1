//! The end-to-end run: a workload driven through the shipped binaries,
//! each server in its own process, from at most two client connections.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use adcast_core::Recommendation;
use adcast_graph::UserId;
use adcast_net::{Client, Request, Response, ServerStats, WireError};

use crate::inputs::{Inputs, Workload, CONNS};
use crate::procs::{client_config, first_stats, Env, Proc};
use crate::twin::{Event, Twin};
use crate::util::{median, Report, Rng, Samples};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Fresh connections timed after the load phase.
const CONNECT_PROBES: usize = 40;
/// Longest a restarted node may take to answer.
const RECOVERY_LIMIT: Duration = Duration::from_secs(90);
/// The load phase is cut into this many equal windows; throughput and
/// medians are the median over windows, so a stall of a second or two
/// (on shared virtual CPUs) moves one window, not the
/// result.
const WINDOWS: u32 = 10;
/// Deltas of the workload's own frames in the data directory whose
/// recovery the run times. A fixed amount, so recovery time does
/// not follow how much the load phase managed to ingest.
pub const RECOVERY_DELTAS: usize = 40_000;
/// kill -9 and restart cycles; `recovery_s` and `recovery_cpu_s` are
/// their medians.
const RECOVERIES: usize = 5;
/// Ingest RPCs connection 0 completes before the load's CPU accounting
/// starts. The first frames warm the engine's buffers and cost more per
/// delta, so a slow run, which acks fewer deltas after them, would weigh
/// them more than a fast one.
const WARM_FRAMES: usize = 40;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Ingest,
    Recommend,
}

/// One load-phase RPC: when it completed (ns since the load began), its
/// latency and the deltas it acked.
#[derive(Clone, Copy)]
struct Mark {
    kind: Kind,
    done_ns: u64,
    latency_ns: u64,
    deltas: u64,
}

/// What the run measured and whether every check held.
pub struct Outcome {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// Everything one client connection (or sequential actor) recorded.
#[derive(Default)]
struct ConnLog {
    connect: Samples,
    /// Load-phase RPCs in completion order (not connects, not probes).
    marks: Vec<Mark>,
    acked_deltas: u64,
    attempted: u64,
    failed: u64,
    shed: u64,
    events: Vec<Event>,
}

impl ConnLog {
    fn merge(logs: &[ConnLog]) -> ConnLog {
        let mut all = ConnLog::default();
        for l in logs {
            all.marks.extend(l.marks.iter().copied());
            all.acked_deltas += l.acked_deltas;
            all.attempted += l.attempted;
            all.failed += l.failed;
            all.shed += l.shed;
        }
        all
    }

    /// One RPC; an `Overloaded` shed is counted as a failed attempt and
    /// retried after a short backoff (the caller waits, as a feed would).
    fn call(&mut self, client: &mut Client, req: &Request) -> Result<Response, String> {
        let mut backoff = Duration::from_micros(200);
        loop {
            self.attempted += 1;
            match client.call(req) {
                Ok(Response::Error(WireError::Overloaded)) => {
                    self.shed += 1;
                    self.failed += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(20));
                }
                Ok(Response::Error(e)) => {
                    self.failed += 1;
                    return Err(format!("server refused: {e:?}"));
                }
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    self.failed += 1;
                    return Err(format!("rpc failed: {e}"));
                }
            }
        }
    }

    /// Load-phase latencies of `kind`.
    fn latencies(&self, kind: Kind) -> Samples {
        Samples(
            self.marks
                .iter()
                .filter(|m| m.kind == kind)
                .map(|m| m.latency_ns)
                .collect(),
        )
    }

    /// A timed load-phase RPC that completed at `done`.
    fn mark(
        &mut self,
        kind: Kind,
        began: Instant,
        done: Instant,
        latency: Duration,
        deltas: usize,
    ) {
        let ns = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.marks.push(Mark {
            kind,
            done_ns: ns(done - began),
            latency_ns: ns(latency),
            deltas: deltas as u64,
        });
    }

    fn ingest(&mut self, client: &mut Client, req: &Request, want: usize) -> Result<(), String> {
        match self.call(client, req)? {
            Response::Ingested { accepted } if accepted as usize == want => {
                self.acked_deltas += want as u64;
                Ok(())
            }
            other => Err(format!("Ingest of {want} answered {other:?}")),
        }
    }

    fn recommend(
        &mut self,
        client: &mut Client,
        inputs: &Inputs,
        user: UserId,
    ) -> Result<Vec<Recommendation>, String> {
        match self.call(client, &recommend_req(inputs, user))? {
            Response::Recommendations(recs) => {
                if inputs.sampled.binary_search(&user).is_ok() {
                    self.events.push(Event::Recommend {
                        user,
                        served: recs.clone(),
                    });
                }
                Ok(recs)
            }
            other => Err(format!("Recommend answered {other:?}")),
        }
    }
}

fn recommend_req(inputs: &Inputs, user: UserId) -> Request {
    Request::Recommend {
        user,
        now: inputs.now,
        location: inputs.homes[user.index()],
        k: inputs.k,
    }
}

fn stats(client: &mut Client) -> Result<ServerStats, String> {
    client.stats().map_err(|e| format!("Stats: {e}"))
}

/// A started system: its processes and the address clients dial.
struct System {
    procs: Vec<Proc>,
    addr: String,
}

impl System {
    /// Start (or restart) the workload's servers on the data under `dir`:
    /// one standalone node, or the routed cluster.
    fn start(env: &Env, workload: Workload, dir: &Path) -> Result<System, String> {
        let procs = match workload {
            Workload::IngestHeavy => vec![env.spawn_node(&dir.join("node"), "node")?],
            Workload::RoutedReplicated => env.spawn_cluster(dir)?,
        };
        let addr = procs.last().ok_or("no server started")?.addr.clone();
        Ok(System { procs, addr })
    }

    fn kill(&mut self) {
        for p in &mut self.procs {
            p.kill();
        }
    }

    /// CPU seconds used so far, summed over the server processes.
    fn cpu_s(&self) -> Result<f64, String> {
        self.procs.iter().map(Proc::cpu_s).sum()
    }

    fn rss_mb(&self) -> Result<f64, String> {
        let mut total = 0;
        for p in &self.procs {
            total += p.peak_rss_bytes()?;
        }
        Ok(total as f64 / (1024.0 * 1024.0))
    }
}

/// Start the workload's servers on fresh data directories under `dir`
/// and submit every campaign. Returns the system and a connected client.
fn set_up(
    env: &Env,
    workload: Workload,
    inputs: &Inputs,
    dir: &Path,
) -> Result<(System, Client), String> {
    let system = System::start(env, workload, dir)?;
    let (mut client, _) = first_stats(&system.addr, Duration::from_secs(10))?;
    for (i, spec) in inputs.campaigns.iter().enumerate() {
        let ad = client
            .submit_campaign(spec.clone())
            .map_err(|e| format!("submit campaign {i}: {e}"))?;
        if ad.0 as usize != i {
            return Err(format!("campaign {i} was assigned id {}", ad.0));
        }
    }
    Ok((system, client))
}

/// Server CPU time against the deltas the load has acked.
struct CpuMeter<'a> {
    system: &'a System,
    acked: AtomicU64,
    /// Server CPU seconds and acked deltas when the load began, replaced
    /// when connection 0 acks its `WARM_FRAMES`th Ingest.
    from: Mutex<(f64, u64)>,
}

impl CpuMeter<'_> {
    fn new(system: &System) -> Result<CpuMeter<'_>, String> {
        Ok(CpuMeter {
            system,
            acked: AtomicU64::new(0),
            from: Mutex::new((system.cpu_s()?, 0)),
        })
    }

    fn mark_warm(&self) -> Result<(), String> {
        let now = (self.system.cpu_s()?, self.acked.load(Ordering::SeqCst));
        *self.from.lock().map_err(|_| "CPU meter poisoned")? = now;
        Ok(())
    }

    /// Server CPU microseconds per delta acked since the warm mark.
    fn us_per_delta(&self) -> Result<f64, String> {
        let (cpu0, acked0) = *self.from.lock().map_err(|_| "CPU meter poisoned")?;
        let deltas = self.acked.load(Ordering::SeqCst) - acked0;
        if deltas == 0 {
            return Err("no delta was acked after the warm-up frames".into());
        }
        Ok((self.system.cpu_s()? - cpu0) * 1e6 / deltas as f64)
    }
}

/// Closed loop: send this connection's frames back to back, with one
/// Recommend per `recommend_every` Ingests, until `run` has passed.
#[allow(clippy::too_many_arguments)]
fn closed_loop(
    addr: &str,
    workload: Workload,
    inputs: &Inputs,
    conn: usize,
    seed: u64,
    start: &Barrier,
    run: Duration,
    meter: &CpuMeter<'_>,
) -> Result<ConnLog, String> {
    let mut log = ConnLog::default();
    let mut client = Client::connect(addr, &client_config()).map_err(|e| e.to_string())?;
    stats(&mut client)?; // warm: the connection is accepted before timing starts
    let mut rng = Rng::new(seed, 100 + conn as u64);
    let users = &inputs.users[conn];
    start.wait();
    let began = Instant::now();
    for (i, frame) in inputs.frames[conn].iter().enumerate() {
        if began.elapsed() >= run {
            break;
        }
        let req = Request::Ingest {
            deltas: frame.clone(),
        };
        let t = Instant::now();
        log.ingest(&mut client, &req, frame.len())?;
        let done = Instant::now();
        log.mark(Kind::Ingest, began, done, done - t, frame.len());
        log.events.push(Event::Ingest { conn, frame: i });
        meter.acked.fetch_add(frame.len() as u64, Ordering::SeqCst);
        if conn == 0 && i + 1 == WARM_FRAMES {
            meter.mark_warm()?;
        }
        if (i + 1) % workload.recommend_every() == 0 {
            let user = users[rng.below(users.len() as u64) as usize];
            let t = Instant::now();
            log.recommend(&mut client, inputs, user)?;
            let done = Instant::now();
            log.mark(Kind::Recommend, began, done, done - t, 0);
        }
    }
    if began.elapsed() < run {
        eprintln!("servebench: connection {conn} ran out of input before the run ended");
    }
    Ok(log)
}

/// Time `CONNECT_PROBES` fresh connections to `addr`, each dialed right
/// after the previous one closed, to its first Recommend. The users have
/// even ids, so partition 0 owns them: `addr` may be that partition's
/// primary, and through the router every probe takes one path.
fn connect_probe(
    addr: &str,
    inputs: &Inputs,
    rng: &mut Rng,
    log: &mut ConnLog,
) -> Result<(), String> {
    for _ in 0..CONNECT_PROBES {
        let user = UserId(2 * rng.below(inputs.homes.len() as u64 / 2) as u32);
        let t = Instant::now();
        log.attempted += 1;
        let mut client = Client::connect(addr, &client_config()).map_err(|e| {
            log.failed += 1;
            format!("probe connect: {e}")
        })?;
        log.recommend(&mut client, inputs, user)?;
        log.connect.push(t.elapsed());
    }
    Ok(())
}

/// Sweep every sampled user on `client`, logging the answers.
fn sweep(client: &mut Client, inputs: &Inputs, log: &mut ConnLog) -> Result<(), String> {
    for &user in &inputs.sampled {
        log.recommend(client, inputs, user)?;
    }
    Ok(())
}

/// The RPCs that completed in each of the load's `WINDOWS` equal windows.
fn windows(marks: &[Mark], run: Duration) -> Vec<Vec<Mark>> {
    let width = u64::try_from(run.as_nanos()).unwrap_or(u64::MAX) / u64::from(WINDOWS);
    let mut out = vec![Vec::new(); WINDOWS as usize];
    for m in marks {
        if let Some(w) = out.get_mut((m.done_ns / width) as usize) {
            w.push(*m);
        }
    }
    out
}

/// Acked deltas per second in each window. Each Ingest's deltas are
/// spread evenly over its time in flight, so a window is credited with
/// the part of every RPC that overlapped it, not with whole frames.
fn window_rates(marks: &[Mark], run: Duration) -> Vec<f64> {
    let width = run.as_secs_f64() / f64::from(WINDOWS);
    let mut credit = vec![0.0; WINDOWS as usize];
    for m in marks.iter().filter(|m| m.deltas > 0) {
        let (end, lat) = (
            m.done_ns as f64 / 1e9,
            (m.latency_ns as f64 / 1e9).max(1e-9),
        );
        for (w, c) in credit.iter_mut().enumerate() {
            let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
            *c += m.deltas as f64 * (end.min(hi) - (end - lat).max(lo)).max(0.0) / lat;
        }
    }
    credit.iter().map(|d| d / width).collect()
}

/// Quantile (µs) of one window's `kind` latencies, when it has at least
/// `min` of them.
fn window_quantile(ms: &[Mark], kind: Kind, q: f64, min: usize) -> Option<f64> {
    let v: Vec<u64> = ms
        .iter()
        .filter(|m| m.kind == kind)
        .map(|m| m.latency_ns)
        .collect();
    (v.len() >= min.max(1)).then(|| Samples(v).quantile_us(q))
}

/// Median over windows of `window_quantile` (0 when no window qualifies).
fn window_median(marks: &[Mark], run: Duration, kind: Kind, q: f64, min: usize) -> f64 {
    let values: Vec<f64> = windows(marks, run)
        .iter()
        .filter_map(|w| window_quantile(w, kind, q, min))
        .collect();
    if values.is_empty() {
        0.0
    } else {
        median(&values)
    }
}

/// The machine-wide `cpu` line of `/proc/stat`: user, nice, system,
/// idle, iowait, irq, softirq, steal.
fn cpu_jiffies() -> Option<Vec<u64>> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then_some(fields)
}

fn check_deltas(client: &mut Client, want: u64, when: &str) -> Result<(), String> {
    let got = stats(client)?.deltas;
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "{when}: server counts {got} deltas, clients saw {want} acked"
        ))
    }
}

/// The first frames of the load, alternating between the connections,
/// up to `RECOVERY_DELTAS` deltas: `(connection, frame)` pairs.
fn recovery_prefix(inputs: &Inputs) -> Vec<(usize, usize)> {
    let mut prefix = Vec::new();
    let mut deltas = 0;
    'fill: for frame in 0.. {
        for (conn, frames) in inputs.frames.iter().enumerate() {
            match frames.get(frame) {
                Some(f) if deltas < RECOVERY_DELTAS => {
                    prefix.push((conn, frame));
                    deltas += f.len();
                }
                _ => break 'fill,
            }
        }
    }
    prefix
}

/// Median wall and CPU time of the restarts `recovery` timed.
struct Recovery {
    wall_s: f64,
    cpu_s: f64,
}

/// Build data directories from a set-up plus `recovery_prefix`, then
/// `RECOVERIES` times kill every server process with SIGKILL, restart
/// them on those directories and time them to the first answered Stats
/// RPC, in wall time and in the CPU time the new processes used by then.
/// Every restart must count the acked deltas; after the last, every
/// sampled user must get the answers of a twin fed the same Ingests (a
/// node rebuilt from its log never saw a Recommend, and none was sent
/// before the crash).
fn recovery(
    env: &Env,
    workload: Workload,
    inputs: &Inputs,
    log: &mut ConnLog,
    failures: &mut Vec<String>,
) -> Result<Recovery, String> {
    let dir = env.work_dir.join("recovery");
    let (mut system, mut client) = set_up(env, workload, inputs, &dir)?;
    let mut acked = 0;
    for (conn, frame) in recovery_prefix(inputs) {
        let deltas = &inputs.frames[conn][frame];
        let req = Request::Ingest {
            deltas: deltas.clone(),
        };
        log.ingest(&mut client, &req, deltas.len())?;
        acked += deltas.len() as u64;
        log.events.push(Event::Ingest { conn, frame });
    }
    let (mut took, mut cpu) = (Vec::new(), Vec::new());
    for _ in 0..RECOVERIES {
        drop(client);
        system.kill();
        let started = Instant::now();
        system = System::start(env, workload, &dir)?;
        client = first_stats(&system.addr, RECOVERY_LIMIT)?.0;
        took.push(started.elapsed().as_secs_f64());
        cpu.push(system.cpu_s()?);
        if let Err(e) = check_deltas(&mut client, acked, "after recovery") {
            failures.push(e);
        }
    }
    let ms = |v: &[f64]| {
        v.iter()
            .map(|t| (t * 1e3).round() as i64)
            .collect::<Vec<_>>()
    };
    eprintln!(
        "servebench: recovery of {acked} deltas took {:?} ms, using {:?} ms of server CPU",
        ms(&took),
        ms(&cpu)
    );
    sweep(&mut client, inputs, log)?;
    if let Err(e) = Twin::new(inputs)?.replay(inputs, &log.events, true) {
        failures.push(format!("twin after recovery: {e}"));
    }
    Ok(Recovery {
        wall_s: median(&took),
        cpu_s: median(&cpu),
    })
}

/// Run `workload` for `seconds` and check every answer.
pub fn run(
    env: &Env,
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    // Set up several times; keep the last system for the load.
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for i in 0..SETUPS {
        let dir = env.work_dir.join(format!("setup{i}"));
        let started = Instant::now();
        let up = set_up(env, workload, inputs, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if i + 1 == SETUPS {
            kept = Some(up);
        } else {
            drop(up);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (system, control) = kept.ok_or("no set-up ran")?;
    // The load uses exactly two client connections, one per thread.
    drop(control);

    // The load phase.
    let run = Duration::from_secs(seconds);
    let start = Arc::new(Barrier::new(CONNS));
    let meter = CpuMeter::new(&system)?;
    let cpu_before = cpu_jiffies();
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNS)
            .map(|conn| {
                let (addr, start, meter) = (system.addr.as_str(), Arc::clone(&start), &meter);
                s.spawn(move || closed_loop(addr, workload, inputs, conn, seed, &start, run, meter))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "load thread panicked".to_string())?)
            .collect::<Result<Vec<_>, String>>()
    })?;
    let load = ConnLog::merge(&logs);
    let server_cpu_us_per_delta = meter.us_per_delta()?;
    if let (Some(a), Some(b)) = (cpu_before, cpu_jiffies()) {
        let total: u64 = b.iter().zip(&a).map(|(x, y)| x - y).sum();
        let share = |i: usize| 100.0 * (b[i] - a[i]) as f64 / total.max(1) as f64;
        eprintln!(
            "servebench: machine CPU during the load: busy {:.0}%, iowait {:.1}%, stolen by the host {:.1}%",
            100.0 - share(3) - share(4) - share(7),
            share(4),
            share(7)
        );
    }

    // Fresh connections, after the load so they do not disturb it. The
    // gated probes dial the first server started: the node, or partition
    // 0's primary. Through the router a probe waits for the router's
    // accept poll and then the primary's, and whether those two waits
    // add up to one poll interval or two is set by how the two loops
    // happen to be phased in that run (README.md), so the routed figure
    // is printed but not gated.
    let mut probe = ConnLog::default();
    let mut rng = Rng::new(seed, 300);
    connect_probe(&system.procs[0].addr, inputs, &mut rng, &mut probe)?;
    let mut routed_probe = ConnLog::default();
    if workload == Workload::RoutedReplicated {
        connect_probe(&system.addr, inputs, &mut rng, &mut routed_probe)?;
    }

    // Checks: acked count, then every sampled answer (load, probes and
    // a final sweep) against the twin.
    let (mut control, _) = first_stats(&system.addr, Duration::from_secs(10))?;
    let mut failures = Vec::new();
    if let Err(e) = check_deltas(&mut control, load.acked_deltas, "after load") {
        failures.push(e);
    }
    let mut after_load = ConnLog::default();
    sweep(&mut control, inputs, &mut after_load)?;
    let mut twin = Twin::new(inputs)?;
    let mut twin_checked = 0;
    for events in logs
        .iter()
        .chain([&probe, &routed_probe, &after_load])
        .map(|l| l.events.as_slice())
    {
        match twin.replay(inputs, events, true) {
            Ok(n) => twin_checked += n,
            Err(e) => failures.push(format!("twin: {e}")),
        }
    }
    let rss_mb = system.rss_mb()?;
    drop(control);
    drop(system);
    eprintln!(
        "servebench: checked {twin_checked} sampled answer(s) against the twin; {} user(s) sampled",
        inputs.sampled.len()
    );

    // Crash and recover servers holding a fixed amount of data.
    let mut crash = ConnLog::default();
    let recovered = recovery(env, workload, inputs, &mut crash, &mut failures)?;

    // Report. Wall-clock throughput and latency under load swing with how
    // much CPU the host lends the virtual machine, beyond any bound a
    // gate could hold, so the gate is on the servers' CPU time per delta
    // and the wall-clock figures are printed beside it. Recovery, wall
    // clock or CPU, drifts with the host even when it steals nothing, so
    // it is printed but not gated (README.md).
    let mut report = Report::default();
    report.add("setup_s", median(&setup_s), "s");
    report.add("server_cpu_us_per_delta", server_cpu_us_per_delta, "us");
    report.add("connect_rtt_p50_us", probe.connect.quantile_us(0.50), "us");
    report.add("server_rss_mb", rss_mb, "MB");

    let ingest = load.latencies(Kind::Ingest);
    let recommend = load.latencies(Kind::Recommend);
    eprintln!(
        "servebench: not gated: ingest_deltas_per_s = {:.4} 1/s; ingest_rtt_p50_us = {:.4} us; \
         ingest_rtt_p99_us = {:.4} us; recommend_rtt_p50_us = {:.4} us \
         (Recommends queued behind the other connection's Ingest); recovery_s = {:.4} s; \
         recovery_cpu_s = {:.4} s",
        median(&window_rates(&load.marks, run)),
        window_median(&load.marks, run, Kind::Ingest, 0.50, 1),
        ingest.quantile_us(0.99),
        recommend.quantile_us(0.50),
        recovered.wall_s,
        recovered.cpu_s
    );
    eprintln!(
        "servebench: samples ingest={} recommend={} connect={}; acked deltas={}; \
         load RPCs attempted={} succeeded={} failed={} shed={}",
        ingest.len(),
        recommend.len(),
        probe.connect.len(),
        load.acked_deltas,
        load.attempted,
        load.attempted - load.failed,
        load.failed,
        load.shed
    );
    let round = |v: Vec<f64>| v.iter().map(|x| x.round() as i64).collect::<Vec<_>>();
    eprintln!(
        "servebench: per window: deltas/s {:?}; Ingest p50 us {:?}",
        round(window_rates(&load.marks, run)),
        round(
            windows(&load.marks, run)
                .iter()
                .map(|w| window_quantile(w, Kind::Ingest, 0.50, 1).unwrap_or(0.0))
                .collect()
        ),
    );
    if workload == Workload::RoutedReplicated {
        eprintln!(
            "servebench: not gated: connect_rtt_p50_us through the router = {:.4} us",
            routed_probe.connect.quantile_us(0.50)
        );
    }
    let logs = [&load, &probe, &routed_probe, &after_load, &crash];
    Ok(Outcome {
        report,
        attempted: logs.iter().map(|l| l.attempted).sum(),
        failed: logs.iter().map(|l| l.failed).sum(),
        failures,
    })
}

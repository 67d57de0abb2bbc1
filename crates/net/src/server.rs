//! Threaded TCP server fronting one partition [`Node`].
//!
//! ## Threading model
//!
//! ```text
//! accept thread ──► reader thread per connection
//!                        │ decode frame
//!                        │ try_send ──► bounded cmd queue ──► engine thread
//!                        │   (Full ⇒ Overloaded reply,          │ owns the Node
//!                        │    shed counter++)                   │ (store, driver, WAL)
//!                        ◄──────────── per-RPC reply channel ───┘
//! ```
//!
//! Exactly one thread (the engine thread) ever touches the node, so the
//! serving layer adds no locking to the engine hot paths. The engine
//! validates and dispatches each RPC; every mutation climbs the node's
//! one ack ladder ([`Node::submit`], DESIGN § 14).
//! Readers run a closed loop per connection: read a frame, submit it,
//! wait for the reply, write it back — so per-connection ordering is the
//! processing order.
//!
//! ## Backpressure policy
//!
//! The cmd queue is a [`mpsc::sync_channel`] with a configured bound.
//! Hot-path RPCs ([`Request::Ingest`], [`Request::Recommend`]) are
//! admitted with `try_send`: a full queue sheds the request with a typed
//! [`WireError::Overloaded`] reply instead of buffering unboundedly, and
//! bumps the shed counter reported by [`Request::Stats`]. Control-plane
//! RPCs (submit/pause/stats/shutdown) use a blocking send — they are rare
//! and must not be shed under ingest pressure.
//!
//! ## Telemetry
//!
//! Every layer of the delta lifecycle is timed into the process-wide
//! [`adcast_obs::registry`]: queue wait (enqueue → engine pickup), WAL
//! log + group-commit, engine apply, and per-RPC service time. Admissions,
//! sheds, checkpoints, and slow ingests also land in the process-wide
//! [`flightrec`] ring, which the engine dumps to
//! [`ServerConfig::flightrec_path`] on shutdown and on the
//! [`Request::ObsDump`] RPC.
//!
//! ## Shutdown
//!
//! [`Request::Shutdown`] is acked immediately, then the engine thread
//! raises the shutdown flag, wakes the blocking `accept()` with a dummy
//! connection, drains every already-queued command (each gets its real
//! reply — in-flight requests are never dropped), and exits. Readers
//! observe the flag on their next read-timeout tick and exit; the accept
//! thread joins them; [`Server::join`] joins everything.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use adcast_ads::{AdStore, CampaignState};
use adcast_core::ShardedDriver;
use adcast_durability::{ApplyEffect, Durability, WalRecord};
use adcast_metrics::LatencyHistogram;
use adcast_obs::tracestore::{tracestore, SpanKind, TraceContext};
use adcast_obs::{flightrec, Counter, EventKind, Gauge, Hist};
use adcast_stream::clock::now_ns;

use crate::codec::{self, decode_request, encode_response, read_frame, write_frame, NetError};
use crate::node::Node;
use crate::protocol::{NodeRole, Request, Response, ServerStats, WireError};
use crate::replication::{ClusterState, ReplicaSetup, ReplicationSink};

/// An Ingest whose engine service time exceeds this (in clock
/// nanoseconds) gets a `SlowDelta` flight-recorder event (hot-path budget
/// is microseconds; 10 ms means something is badly wrong — an fsync
/// stall, a pool hiccup).
const SLOW_DELTA_THRESHOLD_NS: u64 = 10_000_000;

/// Serving-layer knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bound of the request queue (the backpressure knob): at most this
    /// many admitted-but-unprocessed RPCs exist at any time.
    pub queue_depth: usize,
    /// How often blocked readers wake to poll the shutdown flag (their
    /// read timeout), so also the granularity of reader shutdown latency.
    pub poll_interval: Duration,
    /// Where the engine dumps the flight recorder on shutdown and on
    /// [`Request::ObsDump`]; `None` refuses the RPC and skips the dump.
    pub flightrec_path: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            queue_depth: 64,
            poll_interval: Duration::from_millis(50),
            flightrec_path: None,
        }
    }
}

/// Cluster-mode wiring for a node: its identity plus the replication
/// plumbing for its role. The default is a standalone node — exactly the
/// pre-cluster server.
#[derive(Default)]
pub struct ClusterConfig {
    /// The node's role, partition, and epoch.
    pub state: ClusterState,
    /// Primary side: transport to this partition's follower. A primary
    /// without one serves degraded (local-durable acks only).
    pub sink: Option<Box<dyn ReplicationSink>>,
    /// Follower side: what [`Node::install_snapshot`] needs to rebuild
    /// the node from a shipped image.
    pub replica: Option<ReplicaSetup>,
}

/// One admitted RPC in flight to the engine thread. (The reader keeps
/// the request id; replies are matched by the per-RPC channel.)
struct Cmd {
    req: Request,
    /// Depth-1 by construction: the engine sends exactly one reply per
    /// command, so the bounded send can never block.
    reply: mpsc::SyncSender<Response>,
    /// When the reader submitted this command (queue-wait span start), in
    /// [`now_ns`] clock nanoseconds.
    enqueued_ns: u64,
}

/// Counters shared between the accept loop, readers, and the engine.
#[derive(Default)]
struct Shared {
    shutdown: AtomicBool,
    shed: AtomicU64,
    connections: AtomicU64,
}

/// Handles into the process-wide metrics registry for the serving layer.
/// Cloning is cheap (each handle is an `Arc`), so every reader thread
/// carries its own copy.
#[derive(Clone)]
struct NetObs {
    rpcs_total: Counter,
    shed_total: Counter,
    connections_total: Counter,
    reader_threads: Gauge,
    queue_wait_ns: Hist,
    ingest_ns: Hist,
    recommend_ns: Hist,
}

impl NetObs {
    fn resolve() -> NetObs {
        let reg = adcast_obs::registry();
        NetObs {
            rpcs_total: reg.counter(
                "adcast_net_rpcs_total",
                "RPCs that reached the engine thread (all kinds).",
            ),
            shed_total: reg.counter(
                "adcast_net_shed_total",
                "Hot-path requests shed because the bounded queue was full.",
            ),
            connections_total: reg.counter("adcast_net_connections_total", "Connections accepted."),
            reader_threads: reg.gauge(
                "adcast_net_reader_threads",
                "Live per-connection reader threads.",
            ),
            queue_wait_ns: reg.hist(
                "adcast_net_queue_wait_ns",
                "Time an admitted RPC waited in the bounded queue before the engine picked it up.",
            ),
            ingest_ns: reg.hist(
                "adcast_net_ingest_ns",
                "Engine service time per successful Ingest RPC.",
            ),
            recommend_ns: reg.hist(
                "adcast_net_recommend_ns",
                "Engine service time per successful Recommend RPC.",
            ),
        }
    }
}

/// The wire kind code of a request, for flight-recorder payloads.
fn req_kind_code(req: &Request) -> u64 {
    u64::from(match req {
        Request::Ingest { .. } => codec::K_INGEST,
        Request::Recommend { .. } => codec::K_RECOMMEND,
        Request::SubmitCampaign(_) => codec::K_SUBMIT,
        Request::PauseCampaign { .. } => codec::K_PAUSE,
        Request::Stats => codec::K_STATS,
        Request::Shutdown => codec::K_SHUTDOWN,
        Request::Impression { .. } => codec::K_IMPRESSION,
        Request::Checkpoint => codec::K_CHECKPOINT,
        Request::ObsDump => codec::K_OBS_DUMP,
        Request::Maintain { .. } => codec::K_MAINTAIN,
        Request::Routed { .. } => codec::K_ROUTED,
        Request::ReplAppend { .. } => codec::K_REPL_APPEND,
        Request::Promote { .. } => codec::K_PROMOTE,
        Request::InstallSnapshot { .. } => codec::K_INSTALL_SNAPSHOT,
        Request::ClusterStatus => codec::K_CLUSTER_STATUS,
    })
}

/// A running server; dropping it does **not** stop it — send
/// [`Request::Shutdown`] (or call [`Server::shutdown`]) and then
/// [`Server::join`].
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_join: Option<JoinHandle<()>>,
    engine_join: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `store` + `driver` on background threads — in-memory only,
    /// no durability (see [`Server::start_durable`]).
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on bind or thread-spawn failures.
    pub fn start(
        addr: &str,
        config: ServerConfig,
        store: AdStore,
        driver: ShardedDriver,
    ) -> Result<Server, NetError> {
        Server::start_durable(addr, config, store, driver, None)
    }

    /// Like [`Server::start`], but with an optional [`Durability`]
    /// handle: every mutating RPC is WAL-logged and group-committed on
    /// the engine thread **before** it is applied or acked, periodic
    /// snapshots fire per its options, and [`Request::Checkpoint`] is
    /// served. Build the handle from [`adcast_durability::recover`]'s
    /// output so the WAL writer continues at the recovered LSN.
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on bind or thread-spawn failures.
    pub fn start_durable(
        addr: &str,
        config: ServerConfig,
        store: AdStore,
        driver: ShardedDriver,
        durability: Option<Durability>,
    ) -> Result<Server, NetError> {
        Server::start_cluster(
            addr,
            config,
            store,
            driver,
            durability,
            ClusterConfig::default(),
        )
    }

    /// Like [`Server::start_durable`], but with a cluster identity: the
    /// node admits `Routed` envelopes for its partition/epoch, a primary
    /// ships committed WAL records through `cluster.sink` before acking
    /// (the replication ack ladder — see DESIGN § 14), and a follower
    /// serves the replication RPCs and refuses client writes with
    /// [`WireError::NotPrimary`].
    ///
    /// # Errors
    ///
    /// [`NetError::Io`] on bind or thread-spawn failures.
    pub fn start_cluster(
        addr: &str,
        config: ServerConfig,
        store: AdStore,
        driver: ShardedDriver,
        durability: Option<Durability>,
        cluster: ClusterConfig,
    ) -> Result<Server, NetError> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let obs = NetObs::resolve();
        let (cmd_tx, cmd_rx) = mpsc::sync_channel::<Cmd>(config.queue_depth.max(1));

        let engine_join = {
            let mut engine = Engine {
                node: Node::new(store, driver, durability, cluster.state, cluster.replica),
                sink: cluster.sink,
                shared: Arc::clone(&shared),
                queue_depth: config.queue_depth.max(1),
                flightrec_path: config.flightrec_path.clone(),
                obs: obs.clone(),
                rpcs: 0,
                cur_trace: TraceContext::NONE,
                ingest_lat: LatencyHistogram::new(),
                recommend_lat: LatencyHistogram::new(),
            };
            std::thread::Builder::new()
                .name("adcast-engine".into())
                .spawn(move || engine.run(&cmd_rx, local))?
        };
        let accept_join = {
            let shared = Arc::clone(&shared);
            let poll = config.poll_interval;
            std::thread::Builder::new()
                .name("adcast-accept".into())
                .spawn(move || accept_loop(&listener, &cmd_tx, &shared, &obs, poll))?
        };
        Ok(Server {
            addr: local,
            shared,
            accept_join: Some(accept_join),
            engine_join: Some(engine_join),
        })
    }

    /// The bound address (real port even when started on port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Trigger shutdown from the hosting process (equivalent to a client
    /// sending [`Request::Shutdown`]).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Poke the accept loop awake; the engine loop notices when the
        // accept loop (last sender) hangs up.
        let _ = TcpStream::connect(self.addr);
    }

    /// Block until every server thread has exited.
    pub fn join(mut self) {
        if let Some(j) = self.accept_join.take() {
            let _ = j.join();
        }
        if let Some(j) = self.engine_join.take() {
            let _ = j.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    cmd_tx: &SyncSender<Cmd>,
    shared: &Arc<Shared>,
    obs: &NetObs,
    poll: Duration,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    // Blocking accept: both shutdown paths self-connect to wake it. Reaping
    // finished readers on every accept keeps the handle list bounded by
    // the live connections plus those that ended since the last accept.
    loop {
        let accepted = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok((stream, _)) = accepted else {
            continue;
        };
        shared.connections.fetch_add(1, Ordering::Relaxed);
        obs.connections_total.inc();
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(poll));
        let tx = cmd_tx.clone();
        let shared = Arc::clone(shared);
        let reader_threads = obs.reader_threads.clone();
        reader_threads.inc();
        let conn_obs = obs.clone();
        match std::thread::Builder::new()
            .name("adcast-conn".into())
            .spawn(move || {
                connection_loop(stream, &tx, &shared, &conn_obs);
                conn_obs.reader_threads.dec();
            }) {
            Ok(join) => readers.push(join),
            Err(_) => reader_threads.dec(),
        }
        readers.retain(|j| !j.is_finished());
    }
    for j in readers {
        let _ = j.join();
    }
    // cmd_tx drops here; once the readers are gone the engine's recv
    // disconnects and it exits (if the Shutdown drain has not already).
}

/// Should this request be shed when the queue is full? Routed envelopes
/// inherit their inner request's class; replication traffic is
/// control-plane (shedding a `ReplAppend` would force a snapshot
/// transfer for a momentary queue spike).
fn sheddable(req: &Request) -> bool {
    match req {
        Request::Ingest { .. } | Request::Recommend { .. } => true,
        Request::Routed { inner, .. } => sheddable(inner),
        _ => false,
    }
}

fn connection_loop(
    mut stream: TcpStream,
    cmd_tx: &SyncSender<Cmd>,
    shared: &Arc<Shared>,
    obs: &NetObs,
) {
    loop {
        let body = match read_frame(&mut stream) {
            Ok(Some(body)) => body,
            Ok(None) => return, // peer hung up cleanly
            Err(NetError::Io(e))
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                // Idle tick (no bytes consumed): poll the shutdown flag.
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return, // transport error or malformed framing
        };
        let (id, req) = match decode_request(body) {
            Ok(pair) => pair,
            Err(e) => {
                // The frame arrived intact but its payload is malformed;
                // tell the peer why, then drop the connection (the stream
                // may be desynchronized).
                let resp = Response::Error(WireError::BadRequest(e.to_string()));
                let _ = write_frame(&mut stream, &encode_response(0, &resp));
                return;
            }
        };
        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let cmd = Cmd {
            req,
            reply: reply_tx,
            enqueued_ns: now_ns(),
        };
        let outcome = if sheddable(&cmd.req) {
            cmd_tx.try_send(cmd)
        } else {
            // Control-plane RPCs block rather than shed.
            cmd_tx
                .send(cmd)
                .map_err(|e| TrySendError::Disconnected(e.0))
        };
        let resp = match outcome {
            Ok(()) => reply_rx
                .recv()
                // The engine exited with this command still queued (it
                // drains everything on Shutdown, so this means the cmd was
                // dropped unprocessed after the engine died or left).
                .unwrap_or(Response::Error(WireError::ShuttingDown)),
            Err(TrySendError::Full(cmd)) => {
                shared.shed.fetch_add(1, Ordering::Relaxed);
                obs.shed_total.inc();
                flightrec().record(EventKind::Shed, req_kind_code(&cmd.req), 0, 0);
                Response::Error(WireError::Overloaded)
            }
            Err(TrySendError::Disconnected(_)) => Response::Error(WireError::ShuttingDown),
        };
        if write_frame(&mut stream, &encode_response(id, &resp)).is_err() {
            return;
        }
        if matches!(resp, Response::ShutdownAck) {
            return;
        }
    }
}

/// The engine thread's state: the partition [`Node`] it drives, plus the
/// queue bookkeeping and telemetry handles its RPC loop feeds.
struct Engine {
    /// The single owner of the store, driver, durability, and cluster
    /// identity; every mutation goes through it.
    node: Node,
    /// Primary side: transport to this partition's follower.
    sink: Option<Box<dyn ReplicationSink>>,
    shared: Arc<Shared>,
    queue_depth: usize,
    flightrec_path: Option<PathBuf>,
    obs: NetObs,
    rpcs: u64,
    /// Trace context of the command being served (the wire context's
    /// child after the queue-wait span); `NONE` for unsampled requests.
    cur_trace: TraceContext,
    ingest_lat: LatencyHistogram,
    recommend_lat: LatencyHistogram,
}

impl Engine {
    fn run(&mut self, cmd_rx: &Receiver<Cmd>, addr: SocketAddr) {
        // Phase 1: serve until a Shutdown command or until every sender is
        // gone (host-side `Server::shutdown` + all readers exited).
        let mut draining = false;
        while let Ok(cmd) = cmd_rx.recv() {
            if self.serve_one(cmd) {
                self.shared.shutdown.store(true, Ordering::SeqCst);
                let _ = TcpStream::connect(addr); // unblock accept()
                draining = true;
                break;
            }
        }
        let mut drained = 0u64;
        if draining {
            // Phase 2: every already-admitted request still gets its real
            // reply — in-flight work is drained, not dropped.
            while let Ok(cmd) = cmd_rx.try_recv() {
                self.serve_one(cmd);
                drained += 1;
            }
        }
        flightrec().record(EventKind::Shutdown, drained, 0, 0);
        if let Some(path) = &self.flightrec_path {
            let _ = flightrec().dump_to_path(path);
        }
        // Dropping the node's durability (with self) joins the persister
        // after any in-flight snapshot finishes.
    }

    /// Run one validated mutation up the node's ack ladder, shipping
    /// through this server's sink.
    fn submit(&mut self, record: WalRecord) -> Result<ApplyEffect, WireError> {
        let sink = self
            .sink
            .as_deref_mut()
            .map(|s| s as &mut dyn ReplicationSink);
        self.node.submit(record, self.cur_trace, sink)
    }

    /// Serve one admitted command; returns whether it acked a shutdown
    /// (the signal for [`Engine::run`] to enter the drain phase).
    fn serve_one(&mut self, cmd: Cmd) -> bool {
        let Cmd {
            req,
            reply,
            enqueued_ns,
        } = cmd;
        self.rpcs += 1;
        self.obs.rpcs_total.inc();
        let queue_wait_ns = now_ns().saturating_sub(enqueued_ns);
        self.obs.queue_wait_ns.record(queue_wait_ns);
        flightrec().record(
            EventKind::Admission,
            req_kind_code(&req),
            queue_wait_ns / 1_000,
            0,
        );
        // A sampled wire context (routed client traffic or a replicated
        // batch) records the queue-wait span here; everything downstream
        // in this command parents on it through `cur_trace`.
        let salt = u64::from(self.node.cluster().partition);
        let wire_trace = match &req {
            Request::Routed { trace, .. } | Request::ReplAppend { trace, .. } => *trace,
            _ => TraceContext::NONE,
        };
        tracestore().record(
            wire_trace,
            SpanKind::QueueWait,
            salt,
            enqueued_ns,
            queue_wait_ns,
        );
        self.cur_trace = wire_trace.child(SpanKind::QueueWait, salt);
        // Unwrap the routing envelope before anything else: partition
        // and epoch admission happens first, and an admitted inner
        // request then flows through exactly the standalone pipeline.
        let req = match req {
            Request::Routed {
                partition,
                epoch,
                trace: _,
                inner,
            } => {
                if let Err(err) = self.node.cluster().admit(partition, epoch) {
                    let _ = reply.send(Response::Error(err));
                    return false;
                }
                *inner
            }
            req => req,
        };
        // Followers mirror the primary and serve only replication and
        // control RPCs; client traffic is refused with a typed error so
        // the router (or a misdirected client) knows to go to the
        // primary rather than seeing timeouts or wrong answers.
        if self.node.cluster().role == NodeRole::Follower
            && matches!(
                req,
                Request::Ingest { .. }
                    | Request::Recommend { .. }
                    | Request::SubmitCampaign(_)
                    | Request::PauseCampaign { .. }
                    | Request::Impression { .. }
                    | Request::Maintain { .. }
            )
        {
            let _ = reply.send(Response::Error(WireError::NotPrimary));
            return false;
        }
        // For a SlowDelta event we need the batch's lead user after the
        // deltas have been moved into the WAL record.
        let ingest_lead_user = match &req {
            Request::Ingest { deltas } => deltas.first().map(|(u, _)| u64::from(u.0)),
            _ => None,
        };
        let started = now_ns();
        let resp = match req {
            Request::Ingest { deltas } => {
                let num_users = self.node.driver().num_users();
                if self.node.driver().is_dead() {
                    Response::Error(WireError::Unavailable)
                } else if let Some((user, _)) =
                    deltas.iter().find(|(u, _)| u.index() >= num_users as usize)
                {
                    // Validate ids *before* logging or dispatch: an
                    // out-of-range user would panic a shard worker, and a
                    // record that cannot apply must never reach the WAL
                    // (replay aborts on apply failures).
                    Response::Error(WireError::BadRequest(format!(
                        "user {} out of range (num_users = {num_users})",
                        user.0
                    )))
                } else {
                    match self.submit(WalRecord::IngestBatch(deltas)) {
                        Ok(ApplyEffect::Ingested { accepted }) => Response::Ingested { accepted },
                        Ok(_) => Response::Error(WireError::Unavailable),
                        Err(err) => Response::Error(err),
                    }
                }
            }
            Request::Recommend {
                user,
                now,
                location,
                k,
            } => {
                let num_users = self.node.driver().num_users();
                if user.index() >= num_users as usize {
                    Response::Error(WireError::BadRequest(format!(
                        "user {} out of range (num_users = {num_users})",
                        user.0
                    )))
                } else {
                    Response::Recommendations(self.node.recommend(user, now, location, k as usize))
                }
            }
            Request::SubmitCampaign(spec) => match spec.try_into_submission() {
                Err(why) => Response::Error(WireError::BadRequest(why)),
                Ok(sub) => {
                    if sub.vector.is_empty() || !(sub.bid.is_finite() && sub.bid > 0.0) {
                        // The store would reject this submission; catch it
                        // before it can reach the WAL.
                        Response::Error(WireError::BadRequest(format!(
                            "empty keyword vector or invalid bid {}",
                            sub.bid
                        )))
                    } else {
                        match self.submit(WalRecord::Submit(sub)) {
                            Ok(ApplyEffect::Submitted { ad }) => Response::CampaignAccepted { ad },
                            Ok(_) => Response::Error(WireError::Unavailable),
                            Err(err) => Response::Error(err),
                        }
                    }
                }
            },
            Request::PauseCampaign { ad } => match self.submit(WalRecord::Pause(ad)) {
                Ok(ApplyEffect::Paused { changed: true }) => Response::CampaignPaused { ad },
                Ok(ApplyEffect::Paused { changed: false }) => {
                    Response::Error(WireError::UnknownCampaign(ad))
                }
                Ok(_) => Response::Error(WireError::Unavailable),
                Err(err) => Response::Error(err),
            },
            Request::Impression {
                ad,
                cost,
                clicked,
                now,
            } => {
                if self.node.store().campaign(ad).is_none() {
                    Response::Error(WireError::UnknownCampaign(ad))
                } else {
                    let record = WalRecord::Impression {
                        ad,
                        cost,
                        clicked,
                        now,
                    };
                    match self.submit(record) {
                        Ok(ApplyEffect::Impression { state }) => Response::ImpressionRecorded {
                            ad,
                            exhausted: state == Some(CampaignState::Exhausted),
                        },
                        Ok(_) => Response::Error(WireError::Unavailable),
                        Err(err) => Response::Error(err),
                    }
                }
            }
            Request::Maintain { now, idle_for } => {
                if self.node.driver().is_dead() {
                    Response::Error(WireError::Unavailable)
                } else {
                    match self.submit(WalRecord::Maintenance { now, idle_for }) {
                        Ok(ApplyEffect::Maintained {
                            scanned,
                            decayed,
                            pruned,
                        }) => Response::Maintained {
                            scanned,
                            decayed,
                            pruned,
                        },
                        Ok(_) => Response::Error(WireError::Unavailable),
                        Err(err) => Response::Error(err),
                    }
                }
            }
            Request::Checkpoint => match self.node.checkpoint() {
                Ok(lsn) => Response::Checkpointed { lsn },
                Err(err) => Response::Error(err),
            },
            Request::ObsDump => match self.flightrec_path.as_deref() {
                None => Response::Error(WireError::BadRequest(
                    "server is running without a data directory (start with --data-dir)".into(),
                )),
                Some(path) => match flightrec().dump_to_path(path) {
                    Ok(events) => Response::ObsDumped { events },
                    Err(_) => Response::Error(WireError::Unavailable),
                },
            },
            Request::Stats => {
                let engine = self.node.driver().stats();
                let dur = self
                    .node
                    .durability()
                    .map(Durability::counters)
                    .unwrap_or_default();
                Response::Stats(ServerStats {
                    deltas: engine.deltas,
                    recommends: engine.recommends,
                    active_campaigns: self.node.store().num_active() as u64,
                    rpcs: self.rpcs,
                    shed: self.shared.shed.load(Ordering::Relaxed),
                    connections: self.shared.connections.load(Ordering::Relaxed),
                    queue_capacity: self.queue_depth as u64,
                    ingest_p50_ns: self.ingest_lat.p50(),
                    ingest_p99_ns: self.ingest_lat.p99(),
                    recommend_p50_ns: self.recommend_lat.p50(),
                    recommend_p99_ns: self.recommend_lat.p99(),
                    wal_records: dur.wal_records,
                    wal_bytes: dur.wal_bytes,
                    wal_fsyncs: dur.wal_fsyncs,
                    snapshots_written: dur.snapshots_written,
                    recovered_records: dur.recovered_records,
                    recovered_truncated_bytes: dur.recovered_truncated_bytes,
                })
            }
            Request::ReplAppend {
                partition,
                epoch,
                trace: _,
                entries,
            } => match self
                .node
                .append_replica(partition, epoch, self.cur_trace, &entries)
            {
                Ok(durable_lsn) => Response::ReplAck { durable_lsn },
                Err(err) => Response::Error(err),
            },
            Request::InstallSnapshot {
                partition,
                epoch,
                snapshot,
            } => match self.node.install_snapshot(partition, epoch, snapshot) {
                Ok(next_lsn) => Response::SnapshotInstalled { next_lsn },
                Err(err) => Response::Error(err),
            },
            Request::Promote { partition, epoch } => match self.node.promote(partition, epoch) {
                Ok(()) => Response::Promoted {
                    epoch: self.node.cluster().epoch,
                    next_lsn: self.node.next_lsn(),
                },
                Err(err) => Response::Error(err),
            },
            Request::ClusterStatus => {
                let cluster = self.node.cluster();
                Response::ClusterStatusReply {
                    role: cluster.role,
                    partition: cluster.partition,
                    epoch: cluster.epoch,
                    durable_lsn: self.node.next_lsn(),
                    fenced: cluster.fenced,
                    degraded: cluster.degraded,
                }
            }
            // Unreachable: the envelope was unwrapped above and the
            // decoder refuses nesting, but the match must stay total.
            Request::Routed { .. } => {
                Response::Error(WireError::BadRequest("nested routed envelope".into()))
            }
            Request::Shutdown => Response::ShutdownAck,
        };
        let elapsed_ns = now_ns().saturating_sub(started);
        match &resp {
            Response::Ingested { .. } => {
                self.ingest_lat
                    .record_duration(Duration::from_nanos(elapsed_ns));
                self.obs.ingest_ns.record(elapsed_ns);
                if elapsed_ns >= SLOW_DELTA_THRESHOLD_NS {
                    flightrec().record(
                        EventKind::SlowDelta,
                        ingest_lead_user.unwrap_or(0),
                        elapsed_ns / 1_000,
                        0,
                    );
                }
            }
            Response::Recommendations(_) => {
                self.recommend_lat
                    .record_duration(Duration::from_nanos(elapsed_ns));
                self.obs.recommend_ns.record(elapsed_ns);
                tracestore().record(
                    self.cur_trace,
                    SpanKind::Recommend,
                    salt,
                    started,
                    elapsed_ns,
                );
            }
            Response::Checkpointed { lsn } => {
                flightrec().record(EventKind::Checkpoint, *lsn, 0, 0);
            }
            _ => {}
        }
        let acked_shutdown = matches!(resp, Response::ShutdownAck);
        // A reader that hung up mid-RPC cannot receive its reply; fine.
        let _ = reply.send(resp);
        acked_shutdown
    }
}

//! The traced run: the workload's Ingest frames replayed in-process
//! through each layer's public functions, as a cumulative ladder.
//!
//! | rung | adds                    | the benchmark calls                      |
//! |------|-------------------------|------------------------------------------|
//! | L0   | the engine              | `ShardedDriver::process_batch`           |
//! | L1   | the mutation path       | `apply_record`                           |
//! | L2   | the WAL, on the disk    | `Durability::log`, `commit`, `apply_record` |
//! | L3   | a loopback server       | `Client::call` on a warm connection      |
//! | L4   | the router, 2 partitions| `Client::call` via `Router`              |
//! | L5   | a follower per partition| `Client::call` via `Router`              |
//!
//! Every rung starts from empty state, submits every campaign untimed,
//! then replays the same first `LADDER_DELTAS_PER_SECOND × seconds`
//! deltas of the workload's frames, in the workload's frame size. Each
//! rung runs twice: untraced (its time is the rung's `ladder.*` value)
//! and traced (spans plus the layer's side measurements), in alternating
//! order from rung to rung; the difference of the two replays is the
//! tracing overhead. Counts come from the program's own counters and
//! repeat exactly for a seed.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use adcast_ads::AdStore;
use adcast_cluster::{PartitionMap, PartitionNodes, Router, RouterConfig, TcpSink};
use adcast_core::{EngineConfig, EngineStats, ShardedDriver};
use adcast_durability::{
    apply_record, fs_backend, recover, Durability, DurabilityOptions, WalOptions, WalRecord,
};
use adcast_graph::UserId;
use adcast_net::codec::{decode_request, encode_request, read_frame};
use adcast_net::{
    replica_append, Client, ClientConfig, ClusterConfig, ClusterState, NetError, ReplicaSetup,
    Request, Response, Server, ServerConfig, ServerStats, TraceContext,
};
use adcast_obs::tracestore::{SpanKind, TraceStore, TRACE_CAPACITY};

use crate::inputs::{Delta, Inputs, Workload, SHARDS, USERS};
use crate::procs::Env;
use crate::served::Outcome;
use crate::spans::Tracer;
use crate::util::{Report, Rng};

/// Deltas each rung replays per second of `--seconds`.
const LADDER_DELTAS_PER_SECOND: usize = 1_200;
/// Timed Recommends per recommend-latency measurement.
const RECOMMENDS: usize = 1_000;
/// Fresh connections timed at L3.
const CONNECTS: usize = 20;
/// Records per observability micro-measurement.
const OBS_RECORDS: u32 = 200_000;

/// Layers whose own calls the benchmark wraps, so a span's self time is
/// that layer's time. `apply_record` spans carry the layer `apply`: the
/// call drives the engine too, and L1 − L0 splits the two. The RPC
/// rungs' spans cover whole round trips, server work included; their
/// layers' costs are the ladder marginals.
const SELF_LAYERS: [&str; 2] = ["core", "durability"];
/// Spans timed to price one span of the benchmark's own recorder.
const SPAN_COST_SAMPLES: u32 = 200_000;

/// A freshly recovered durable node state on its own directory.
struct NodeState {
    store: AdStore,
    driver: ShardedDriver,
    durability: Durability,
    dir: PathBuf,
}

struct Ladder<'a> {
    env: &'a Env,
    inputs: &'a Inputs,
    frames: Vec<&'a Vec<Delta>>,
    deltas: u64,
    dirs: usize,
    /// Spans of the traced replays (self time comes from these).
    replay: Tracer,
    /// Spans of the side measurements.
    side: Tracer,
    report: Report,
    rpcs: u64,
    /// Ingest RTTs (ns) of the traced L4 replay, for the L5 comparison.
    l4_ingest: Vec<u64>,
    /// Work counts by name, from the first pass that took them; every
    /// later pass must reproduce them exactly.
    exact: BTreeMap<String, u64>,
    rng: Rng,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn p50(v: &mut [u64]) -> f64 {
    quantile(v, 0.50)
}

/// Nearest-rank quantile of ns samples, in ns.
fn quantile(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn mean(v: &[u64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<u64>() as f64 / v.len() as f64
    }
}

fn engine_delta(after: EngineStats, before: EngineStats) -> [u64; 7] {
    [
        after.deltas - before.deltas,
        after.postings_scanned - before.postings_scanned,
        after.ads_scored - before.ads_scored,
        after.screened_out - before.screened_out,
        after.promotions - before.promotions,
        after.refreshes - before.refreshes,
        after.fallbacks - before.fallbacks,
    ]
}

fn block_counters() -> (u64, u64) {
    let reg = adcast_obs::registry();
    (
        reg.counter("adcast_index_blocks_scanned_total", "").get(),
        reg.counter("adcast_index_blocks_skipped_total", "").get(),
    )
}

fn expect_ingested(resp: Response, want: usize) -> Result<(), String> {
    match resp {
        Response::Ingested { accepted } if accepted as usize == want => Ok(()),
        other => Err(format!("Ingest of {want} answered {other:?}")),
    }
}

fn expect_stats(resp: Response) -> Result<ServerStats, String> {
    match resp {
        Response::Stats(s) => Ok(s),
        other => Err(format!("Stats answered {other:?}")),
    }
}

fn routed(partition: u16, inner: Request) -> Request {
    Request::Routed {
        partition,
        epoch: 0,
        trace: TraceContext::NONE,
        inner: Box::new(inner),
    }
}

impl<'a> Ladder<'a> {
    fn request_id(rung: u64, frame: usize) -> u64 {
        (rung << 32) | frame as u64
    }

    /// Check a work count against the one an earlier pass recorded.
    fn exact(&mut self, name: &str, value: u64) -> Result<(), String> {
        match self.exact.get(name) {
            Some(&first) if first != value => Err(format!(
                "{name} is not repeatable: {first} in an earlier pass, {value} now"
            )),
            Some(_) => Ok(()),
            None => {
                self.exact.insert(name.to_string(), value);
                Ok(())
            }
        }
    }

    fn fresh_dir(&mut self) -> Result<PathBuf, String> {
        self.dirs += 1;
        let dir = self.env.work_dir.join(format!("ladder{}", self.dirs));
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// A cold durable state: `--fsync always`, default snapshots.
    fn node_state(&mut self) -> Result<NodeState, String> {
        let dir = self.fresh_dir()?;
        let rec = recover(
            &dir,
            USERS,
            SHARDS,
            EngineConfig::default(),
            WalOptions::default(),
        )
        .map_err(err)?;
        let durability = Durability::new(&dir, rec.wal, DurabilityOptions::default(), rec.report);
        Ok(NodeState {
            store: rec.store,
            driver: rec.driver,
            durability,
            dir,
        })
    }

    fn recommend_req(&mut self) -> Request {
        let user = UserId(self.rng.below(self.inputs.homes.len() as u64) as u32);
        Request::Recommend {
            user,
            now: self.inputs.now,
            location: self.inputs.homes[user.index()],
            k: self.inputs.k,
        }
    }

    fn submit_via(&mut self, client: &mut Client) -> Result<(), String> {
        for spec in &self.inputs.campaigns {
            client.submit_campaign(spec.clone()).map_err(err)?;
            self.rpcs += 1;
        }
        Ok(())
    }

    /// Replay every frame as an Ingest RPC on `client`; returns the time.
    fn replay_rpc(
        &mut self,
        rung: u64,
        traced: bool,
        client: &mut Client,
        layer: &'static str,
    ) -> Result<Duration, String> {
        self.replay.set_enabled(traced);
        let began = Instant::now();
        for (i, frame) in self.frames.iter().enumerate() {
            let req = Request::Ingest {
                deltas: (*frame).clone(),
            };
            let id = Self::request_id(rung, i);
            let resp = self
                .replay
                .span(RUNG_NAMES[rung as usize], "ladder", id, |t| {
                    t.span("Client::call(Ingest)", layer, id, |_| client.call(&req))
                });
            expect_ingested(resp.map_err(err)?, frame.len())?;
        }
        let took = began.elapsed();
        self.rpcs += self.frames.len() as u64;
        Ok(took)
    }

    fn l0(&mut self, traced: bool) -> Result<Duration, String> {
        let mut store = AdStore::new();
        let started = Instant::now();
        for spec in &self.inputs.campaigns {
            store.submit(spec.clone().try_into_submission()?)?;
        }
        let submit = started.elapsed();
        let mut driver = ShardedDriver::new(USERS, SHARDS, EngineConfig::default());
        let before = driver.stats();
        let blocks_before = block_counters();
        self.replay.set_enabled(traced);
        let began = Instant::now();
        for (i, frame) in self.frames.iter().enumerate() {
            let batch = (*frame).clone();
            let id = Self::request_id(0, i);
            self.replay
                .span(RUNG_NAMES[0], "ladder", id, |t| {
                    t.span("ShardedDriver::process_batch", "core", id, |_| {
                        driver.process_batch(&store, batch)
                    })
                })
                .map_err(err)?;
        }
        let took = began.elapsed();
        let blocks_after = block_counters();
        let stats = self
            .side
            .span("ShardedDriver::stats", "core", 0, |_| driver.stats());
        let counts = engine_delta(stats, before);
        for (name, n) in [
            "deltas",
            "postings",
            "scored",
            "screened",
            "promotions",
            "refreshes",
            "fallbacks",
        ]
        .iter()
        .zip(counts)
        {
            self.exact(&format!("core.{name}"), n)?;
        }
        if !traced {
            return Ok(took);
        }
        let [deltas, postings, scored, screened, promotions, refreshes, fallbacks] = counts;
        if deltas != self.deltas {
            return Err(format!(
                "L0 engine counts {deltas} deltas, replayed {}",
                self.deltas
            ));
        }
        let per = |n: u64| n as f64 / deltas as f64;
        let r = &mut self.report;
        r.add(
            "core.apply_ns_per_delta",
            took.as_nanos() as f64 / deltas as f64,
            "ns",
        );
        r.add("core.postings_scanned_per_delta", per(postings), "count");
        r.add("core.ads_scored_per_delta", per(scored), "count");
        r.add("core.screened_out_per_delta", per(screened), "count");
        r.add("core.promotions_per_delta", per(promotions), "count");
        r.add("core.refreshes_per_delta", per(refreshes), "count");
        r.add("core.fallbacks_per_delta", per(fallbacks), "count");
        let screen_total = screened + scored;
        r.add(
            "core.screen_ratio",
            if screen_total == 0 {
                0.0
            } else {
                screened as f64 / screen_total as f64
            },
            "ratio",
        );
        let mut recommend_ns = Vec::with_capacity(RECOMMENDS);
        for i in 0..RECOMMENDS {
            let Request::Recommend {
                user,
                now,
                location,
                k,
            } = self.recommend_req()
            else {
                unreachable!("recommend_req builds a Recommend")
            };
            let (_, ns) = self
                .side
                .timed("ShardedDriver::recommend", "core", i as u64, |_| {
                    std::hint::black_box(driver.recommend(
                        &store,
                        user,
                        now,
                        location,
                        usize::from(k),
                    ))
                });
            recommend_ns.push(ns);
        }
        let r = &mut self.report;
        r.add(
            "core.recommend_ns_p50",
            quantile(&mut recommend_ns, 0.50),
            "ns",
        );
        r.add(
            "core.recommend_ns_p99",
            quantile(&mut recommend_ns, 0.99),
            "ns",
        );
        r.add("core.memory_bytes", driver.memory_bytes() as f64, "bytes");
        r.add(
            "adstore.submit_us",
            submit.as_secs_f64() * 1e6 / self.inputs.campaigns.len() as f64,
            "us",
        );
        let (scanned, skipped) = (
            blocks_after.0 - blocks_before.0,
            blocks_after.1 - blocks_before.1,
        );
        r.add(
            "adstore.blocks_skipped_ratio",
            if scanned + skipped == 0 {
                0.0
            } else {
                skipped as f64 / (scanned + skipped) as f64
            },
            "ratio",
        );
        Ok(took)
    }

    fn l1(&mut self, traced: bool) -> Result<Duration, String> {
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(USERS, SHARDS, EngineConfig::default());
        for spec in &self.inputs.campaigns {
            apply_record(
                &mut store,
                &mut driver,
                WalRecord::Submit(spec.clone().try_into_submission()?),
            )?;
        }
        self.replay.set_enabled(traced);
        let began = Instant::now();
        for (i, frame) in self.frames.iter().enumerate() {
            let record = WalRecord::IngestBatch((*frame).clone());
            let id = Self::request_id(1, i);
            self.replay.span(RUNG_NAMES[1], "ladder", id, |t| {
                t.span("apply_record", "apply", id, |_| {
                    apply_record(&mut store, &mut driver, record)
                })
            })?;
        }
        let took = began.elapsed();
        if traced {
            let spans = self.replay.durations("apply_record");
            let tail = &spans[spans.len() - self.frames.len()..];
            self.report.add(
                "durability.apply_record_ns_per_delta",
                tail.iter().sum::<u64>() as f64 / self.deltas as f64,
                "ns",
            );
        }
        Ok(took)
    }

    fn l2(&mut self, traced: bool) -> Result<Duration, String> {
        let NodeState {
            mut store,
            mut driver,
            mut durability,
            dir,
        } = self.node_state()?;
        for spec in &self.inputs.campaigns {
            let record = WalRecord::Submit(spec.clone().try_into_submission()?);
            durability.log(&record).map_err(err)?;
            durability.commit().map_err(err)?;
            apply_record(&mut store, &mut driver, record)?;
        }
        let wal_before = durability.counters().wal_bytes;
        self.replay.set_enabled(traced);
        let began = Instant::now();
        for (i, frame) in self.frames.iter().enumerate() {
            let record = WalRecord::IngestBatch((*frame).clone());
            let id = Self::request_id(2, i);
            self.replay.span(RUNG_NAMES[2], "ladder", id, |t| {
                t.span("Durability::log", "durability", id, |_| {
                    durability.log(&record)
                })
                .map_err(err)?;
                t.span("Durability::commit", "durability", id, |_| {
                    durability.commit()
                })
                .map_err(err)?;
                t.span("apply_record", "apply", id, |_| {
                    apply_record(&mut store, &mut driver, record)
                })
            })?;
        }
        let took = began.elapsed();
        let wal_bytes = durability.counters().wal_bytes - wal_before;
        self.exact("durability.wal_bytes", wal_bytes)?;
        if !traced {
            return Ok(took);
        }
        let batches = self.frames.len();
        let last = |v: Vec<u64>| v[v.len() - batches..].to_vec();
        let log = last(self.replay.durations("Durability::log"));
        let commit = last(self.replay.durations("Durability::commit"));
        drop(durability);
        drop(driver);
        let (recovered, recover_ns) = self.side.timed("recover", "durability", 0, |_| {
            recover(
                &dir,
                USERS,
                SHARDS,
                EngineConfig::default(),
                WalOptions::default(),
            )
        });
        let recovered = recovered.map_err(err)?;
        let replayed = recovered.driver.stats().deltas;
        if replayed != self.deltas {
            return Err(format!(
                "L2 recovery replayed {replayed} deltas, logged {}",
                self.deltas
            ));
        }
        let r = &mut self.report;
        r.add("durability.log_us_per_batch", mean(&log) / 1e3, "us");
        r.add("durability.commit_us_per_batch", mean(&commit) / 1e3, "us");
        r.add(
            "durability.wal_bytes_per_delta",
            wal_bytes as f64 / self.deltas as f64,
            "bytes",
        );
        r.add(
            "durability.recover_us_per_delta",
            recover_ns as f64 / 1e3 / self.deltas as f64,
            "us",
        );
        Ok(took)
    }

    fn l3(&mut self, traced: bool) -> Result<Duration, String> {
        let NodeState {
            store,
            driver,
            durability,
            ..
        } = self.node_state()?;
        let server = Server::start_durable(
            "127.0.0.1:0",
            ServerConfig::default(),
            store,
            driver,
            Some(durability),
        )
        .map_err(err)?;
        let addr = server.addr().to_string();
        let result = (|| {
            let mut client =
                Client::connect(addr.as_str(), &ClientConfig::default()).map_err(err)?;
            self.submit_via(&mut client)?;
            let took = self.replay_rpc(3, traced, &mut client, "net")?;
            let stats = client.stats().map_err(err)?;
            if stats.deltas != self.deltas {
                return Err(format!(
                    "L3 server counts {} deltas, sent {}",
                    stats.deltas, self.deltas
                ));
            }
            if traced {
                self.l3_side(&addr, &mut client)?;
            }
            Ok(took)
        })();
        server.shutdown();
        server.join();
        result
    }

    /// Codec cost and bytes per delta, warm Recommend overhead over the
    /// server's own service time, and connect-to-first-reply time.
    fn l3_side(&mut self, addr: &str, client: &mut Client) -> Result<(), String> {
        let (mut encode_ns, mut decode_ns, mut bytes) = (0u64, 0u64, 0u64);
        for (i, frame) in self.frames.iter().enumerate() {
            let req = Request::Ingest {
                deltas: (*frame).clone(),
            };
            let (encoded, enc) = self
                .side
                .timed("codec::encode_request", "net", i as u64, |_| {
                    encode_request(i as u64, &req)
                });
            let (decoded, dec) = self
                .side
                .timed("codec::decode_request", "net", i as u64, |_| {
                    // The server's path: strip the length prefix, decode.
                    match read_frame(&mut encoded.as_ref()) {
                        Ok(Some(body)) => decode_request(body),
                        Ok(None) => Err(NetError::UnexpectedEof),
                        Err(e) => Err(e),
                    }
                });
            if decoded.map_err(err)?.1 != req {
                return Err(format!("frame {i} does not survive encode → decode"));
            }
            encode_ns += enc;
            decode_ns += dec;
            bytes += encoded.len() as u64;
        }
        let mut rtt = Vec::with_capacity(RECOMMENDS);
        for i in 0..RECOMMENDS {
            let req = self.recommend_req();
            let (resp, ns) = self
                .side
                .timed("Client::call(Recommend)", "net", i as u64, |_| {
                    client.call(&req)
                });
            resp.map_err(err)?;
            rtt.push(ns);
        }
        let stats = self
            .side
            .span("Client::stats", "net", 0, |_| client.stats())
            .map_err(err)?;
        let mut connect = Vec::with_capacity(CONNECTS);
        for i in 0..CONNECTS {
            let (session, ns) = self.side.timed("session", "net", i as u64, |t| {
                let mut c = t
                    .span("Client::connect", "net", i as u64, |_| {
                        Client::connect(addr, &ClientConfig::default())
                    })
                    .map_err(err)?;
                t.span("Client::stats", "net", i as u64, |_| c.stats())
                    .map_err(err)
            });
            session?;
            connect.push(ns);
        }
        let d = self.deltas as f64;
        let r = &mut self.report;
        r.add("net.encode_ns_per_delta", encode_ns as f64 / d, "ns");
        r.add("net.decode_ns_per_delta", decode_ns as f64 / d, "ns");
        r.add("net.frame_bytes_per_delta", bytes as f64 / d, "bytes");
        r.add(
            "net.rpc_overhead_us_p50",
            (p50(&mut rtt) - stats.recommend_p50_ns as f64) / 1e3,
            "us",
        );
        r.add("net.connect_us_p50", p50(&mut connect) / 1e3, "us");
        r.add(
            "net.shed_per_rpc",
            stats.shed as f64 / stats.rpcs.max(1) as f64,
            "ratio",
        );
        Ok(())
    }

    /// Two cluster partitions behind an in-process router; with
    /// `followers`, each primary replicates to its own follower.
    fn cluster(&mut self, rung: u64, traced: bool, followers: bool) -> Result<Duration, String> {
        let mut servers = Vec::new();
        let mut nodes = Vec::new();
        for p in 0..2u16 {
            let follower = if followers {
                let NodeState {
                    store,
                    driver,
                    durability,
                    dir,
                } = self.node_state()?;
                let server = Server::start_cluster(
                    "127.0.0.1:0",
                    ServerConfig::default(),
                    store,
                    driver,
                    Some(durability),
                    ClusterConfig {
                        state: ClusterState::follower(p, 0),
                        sink: None,
                        replica: Some(ReplicaSetup {
                            backend: fs_backend(&dir),
                            options: DurabilityOptions::default(),
                            engine: EngineConfig::default(),
                        }),
                    },
                )
                .map_err(err)?;
                let addr = server.addr().to_string();
                servers.push(server);
                Some(addr)
            } else {
                None
            };
            let NodeState {
                store,
                driver,
                durability,
                ..
            } = self.node_state()?;
            let sink = follower.as_ref().map(|f| {
                Box::new(TcpSink::new(p, f.clone(), ClientConfig::default()))
                    as Box<dyn adcast_net::ReplicationSink>
            });
            let server = Server::start_cluster(
                "127.0.0.1:0",
                ServerConfig::default(),
                store,
                driver,
                Some(durability),
                ClusterConfig {
                    state: ClusterState::primary(p, 0),
                    sink,
                    replica: None,
                },
            )
            .map_err(err)?;
            nodes.push(PartitionNodes {
                primary: server.addr().to_string(),
                follower,
            });
            servers.push(server);
        }
        let primaries: Vec<String> = nodes.iter().map(|n| n.primary.clone()).collect();
        let map = PartitionMap::new(nodes)?;
        let router = Router::start(
            "127.0.0.1:0",
            &map,
            RouterConfig {
                client: ClientConfig::default(),
                poll_interval: Duration::from_millis(50),
                trace_sample: 0,
                trace_seed: 0,
            },
        )
        .map_err(err)?;
        let addr = router.addr().to_string();
        let result = (|| {
            let mut client =
                Client::connect(addr.as_str(), &ClientConfig::default()).map_err(err)?;
            self.submit_via(&mut client)?;
            let layer = if followers { "replication" } else { "cluster" };
            let took = self.replay_rpc(rung, traced, &mut client, layer)?;
            let total = client.stats().map_err(err)?.deltas;
            if total != self.deltas {
                return Err(format!(
                    "L{rung} cluster counts {total} deltas, sent {}",
                    self.deltas
                ));
            }
            if !followers {
                for (p, addr) in primaries.iter().enumerate() {
                    let mut c =
                        Client::connect(addr.as_str(), &ClientConfig::default()).map_err(err)?;
                    let stats =
                        expect_stats(c.call(&routed(p as u16, Request::Stats)).map_err(err)?)?;
                    self.exact(&format!("cluster.partition{p}_deltas"), stats.deltas)?;
                }
            }
            if traced {
                let batches = self.frames.len();
                let spans = self.replay.durations("Client::call(Ingest)");
                let mut ingest = spans[spans.len() - batches..].to_vec();
                if followers {
                    let overhead = (p50(&mut ingest) - p50(&mut self.l4_ingest)) / 1e3;
                    self.report
                        .add("replication.ack_overhead_us_p50", overhead, "us");
                } else {
                    self.l4_ingest = ingest;
                    self.l4_side(&mut client, &primaries)?;
                }
            }
            Ok(took)
        })();
        router.shutdown();
        router.join();
        for server in servers {
            server.shutdown();
            server.join();
        }
        result
    }

    /// Router overhead on identical Recommends (routed vs. sent straight
    /// to the owning node), and the smallest partition's share of deltas.
    fn l4_side(&mut self, client: &mut Client, primaries: &[String]) -> Result<(), String> {
        let mut direct: Vec<Client> = primaries
            .iter()
            .map(|a| Client::connect(a.as_str(), &ClientConfig::default()))
            .collect::<Result<_, _>>()
            .map_err(err)?;
        let shares: Vec<f64> = (0..primaries.len())
            .map(|p| {
                self.exact[&format!("cluster.partition{p}_deltas")] as f64 / self.deltas as f64
            })
            .collect();
        let (mut via_router, mut straight) = (Vec::new(), Vec::new());
        for i in 0..RECOMMENDS {
            let req = self.recommend_req();
            let Request::Recommend { user, .. } = req else {
                unreachable!("recommend_req builds a Recommend")
            };
            let p = user.index() % primaries.len();
            let envelope = routed(p as u16, req.clone());
            let (a, routed_ns) = self.side.timed(
                "Client::call(Recommend) via router",
                "cluster",
                i as u64,
                |_| client.call(&req),
            );
            let (b, direct_ns) =
                self.side
                    .timed("Client::call(Recommend) direct", "net", i as u64, |_| {
                        direct[p].call(&envelope)
                    });
            if a.map_err(err)? != b.map_err(err)? {
                return Err(format!(
                    "user {}: router and owning node answer differently",
                    user.0
                ));
            }
            via_router.push(routed_ns);
            straight.push(direct_ns);
        }
        let r = &mut self.report;
        r.add(
            "cluster.router_overhead_us_p50",
            (p50(&mut via_router) - p50(&mut straight)) / 1e3,
            "us",
        );
        r.add(
            "cluster.partition_share_min",
            shares.iter().copied().fold(f64::INFINITY, f64::min),
            "ratio",
        );
        Ok(())
    }

    /// `replica_append` on a follower's state, one record per frame.
    fn replica_append_cost(&mut self) -> Result<(), String> {
        let NodeState {
            mut store,
            mut driver,
            mut durability,
            ..
        } = self.node_state()?;
        for spec in &self.inputs.campaigns {
            let payload = WalRecord::Submit(spec.clone().try_into_submission()?).encode();
            let entry = [(durability.next_lsn(), payload)];
            replica_append(
                &mut durability,
                &mut store,
                &mut driver,
                TraceContext::NONE,
                &entry,
            )
            .map_err(|e| format!("{e:?}"))?;
        }
        let mut per_batch = Vec::with_capacity(self.frames.len());
        for (i, frame) in self.frames.iter().enumerate() {
            let entry = [(
                durability.next_lsn(),
                WalRecord::IngestBatch((*frame).clone()).encode(),
            )];
            let (appended, ns) = self
                .side
                .timed("replica_append", "replication", i as u64, |_| {
                    replica_append(
                        &mut durability,
                        &mut store,
                        &mut driver,
                        TraceContext::NONE,
                        &entry,
                    )
                });
            appended.map_err(|e| format!("{e:?}"))?;
            per_batch.push(ns);
        }
        self.report.add(
            "replication.append_us_per_batch",
            mean(&per_batch) / 1e3,
            "us",
        );
        Ok(())
    }

    /// Per-record cost of the flight recorder and the span ring.
    fn obs_costs(&mut self) {
        let recorder = adcast_obs::FlightRecorder::new(4096);
        let (_, flightrec_ns) = self.side.timed("FlightRecorder::record", "obs", 0, |_| {
            for i in 0..OBS_RECORDS {
                recorder.record(
                    adcast_obs::EventKind::Admission,
                    1,
                    std::hint::black_box(u64::from(i)),
                    0,
                );
            }
        });
        let flightrec = flightrec_ns as f64 / f64::from(OBS_RECORDS);
        let store = TraceStore::new(TRACE_CAPACITY);
        let ctx = TraceContext {
            trace_id: 0xBEEF,
            parent_span_id: 0,
        };
        let (_, span_ns) = self.side.timed("TraceStore::record", "obs", 0, |_| {
            for i in 0..OBS_RECORDS {
                store.record(
                    std::hint::black_box(ctx),
                    SpanKind::QueueWait,
                    u64::from(i),
                    1,
                    250,
                );
            }
        });
        let span = span_ns as f64 / f64::from(OBS_RECORDS);
        self.report.add("obs.flightrec_record_ns", flightrec, "ns");
        self.report.add("obs.span_record_ns", span, "ns");
    }
}

const RUNG_NAMES: [&str; 6] = [
    "ladder.L0",
    "ladder.L1",
    "ladder.L2",
    "ladder.L3",
    "ladder.L4",
    "ladder.L5",
];

/// Nanoseconds one empty span costs the benchmark's recorder.
fn span_cost_ns() -> f64 {
    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    for i in 0..SPAN_COST_SAMPLES {
        tracer.span("span", "trace", u64::from(i), |_| std::hint::black_box(i));
    }
    started.elapsed().as_nanos() as f64 / f64::from(SPAN_COST_SAMPLES)
}

/// Run the ladder for `workload` and report every per-layer metric.
pub fn run(
    env: &Env,
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    seconds: u64,
) -> Result<Outcome, String> {
    let want = LADDER_DELTAS_PER_SECOND * seconds as usize;
    let mut frames = Vec::new();
    let mut deltas = 0usize;
    let longest = inputs.frames.iter().map(Vec::len).max().unwrap_or(0);
    'fill: for i in 0..longest {
        for conn in &inputs.frames {
            if let Some(f) = conn.get(i) {
                frames.push(f);
                deltas += f.len();
                if deltas >= want {
                    break 'fill;
                }
            }
        }
    }
    let mut ladder = Ladder {
        env,
        inputs,
        frames,
        deltas: deltas as u64,
        dirs: 0,
        replay: Tracer::new(true),
        side: Tracer::new(true),
        report: Report::default(),
        rpcs: 0,
        l4_ingest: Vec::new(),
        exact: BTreeMap::new(),
        rng: Rng::new(seed, 400),
    };
    // Warm-up: the process's first engine pass pays page faults and
    // cold caches that no rung should be charged for.
    ladder.l0(false)?;
    let mut untraced = [Duration::ZERO; 6];
    let mut traced = [Duration::ZERO; 6];
    for (rung, (u, t)) in untraced.iter_mut().zip(traced.iter_mut()).enumerate() {
        // Even rungs run untraced first, odd rungs traced first, so the
        // cost of going first (cold page cache, fresh allocator) lands
        // on both sides of the overhead equally.
        let passes = if rung % 2 == 0 {
            [(false, u), (true, t)]
        } else {
            [(true, t), (false, u)]
        };
        for (pass, slot) in passes {
            *slot = match rung {
                0 => ladder.l0(pass)?,
                1 => ladder.l1(pass)?,
                2 => ladder.l2(pass)?,
                3 => ladder.l3(pass)?,
                4 => ladder.cluster(4, pass, false)?,
                _ => ladder.cluster(5, pass, true)?,
            };
        }
    }
    ladder.replica_append_cost()?;
    ladder.obs_costs();

    let d = ladder.deltas as f64;
    let per_delta = |t: Duration| t.as_secs_f64() * 1e6 / d;
    for (i, t) in untraced.iter().enumerate() {
        ladder
            .report
            .add(format!("ladder.l{i}_us_per_delta"), per_delta(*t), "us");
    }
    for i in 1..6 {
        ladder.report.add(
            format!("ladder.l{i}_marginal_us_per_delta"),
            per_delta(untraced[i]) - per_delta(untraced[i - 1]),
            "us",
        );
    }
    let self_ns = ladder.replay.self_ns_by_layer();
    for layer in SELF_LAYERS {
        let ns = self_ns
            .iter()
            .find(|(l, _)| *l == layer)
            .map_or(0, |(_, n)| *n);
        ladder.report.add(
            format!("self.{layer}_us_per_delta"),
            ns as f64 / 1e3 / d,
            "us",
        );
    }
    let (u, t): (Duration, Duration) = (untraced.iter().sum(), traced.iter().sum());
    ladder.report.add(
        "trace.overhead_pct",
        (t.as_secs_f64() - u.as_secs_f64()) / u.as_secs_f64() * 100.0,
        "%",
    );
    // The same overhead priced instead of timed: the replays' span
    // count times what one span costs the recorder.
    let span_ns = span_cost_ns();
    ladder.report.add(
        "trace.span_cost_pct",
        ladder.replay.spans.len() as f64 * span_ns / u.as_nanos() as f64 * 100.0,
        "%",
    );

    let trace_dir = env.bin_dir.join("servebench-traces");
    for (tracer, kind) in [(&ladder.replay, "replay"), (&ladder.side, "side")] {
        let path = trace_dir.join(format!("{}-seed{seed}-{kind}.jsonl", workload.name()));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    eprintln!(
        "servebench: ladder replayed {} deltas in {} frames per rung; {} spans written to {}",
        ladder.deltas,
        ladder.frames.len(),
        ladder.replay.spans.len() + ladder.side.spans.len(),
        trace_dir.display()
    );
    eprintln!("servebench: rung   untraced us/delta   traced us/delta   marginal");
    for i in 0..6 {
        eprintln!(
            "servebench: L{i}     {:>12.2}   {:>15.2}   {:>8.2}",
            per_delta(untraced[i]),
            per_delta(traced[i]),
            if i == 0 {
                per_delta(untraced[0])
            } else {
                per_delta(untraced[i]) - per_delta(untraced[i - 1])
            }
        );
    }
    Ok(Outcome {
        report: ladder.report,
        attempted: ladder.rpcs,
        failed: 0,
        failures: Vec::new(),
    })
}

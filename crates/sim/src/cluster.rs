//! Multi-node cluster scenarios: replication, failover, and fencing
//! under virtual time.
//!
//! [`run_cluster`] drives N partitions, each a primary/follower pair of
//! [`Node`]s on their own [`MemBackend`]s — the partition node the live
//! server runs, so every write climbs the shipping ack ladder (log →
//! commit → apply → replicate → ack) with its fencing, degraded-mode,
//! and catch-up decisions. No sockets, no threads, no wall clock. The
//! harness plays the roles the network plays in production: it routes
//! ingest sub-batches to the owning partition's primary, and its
//! in-memory [`ReplicationSink`] delivers shipments to the follower
//! node, or drops them while a fault holds the link down.
//!
//! What the scenarios prove, deterministically and in milliseconds:
//!
//! * **Kill the primary** ([`ClusterFault::KillPrimary`]): the follower
//!   promotes under a bumped epoch and every client-acked record is
//!   already durable *and applied* on it — zero acked loss, and the
//!   promoted state is byte-identical to a clean replay of the acked
//!   log (the single-node twin check, now surviving machine loss).
//! * **Isolate the follower** ([`ClusterFault::IsolateFollower`]): the
//!   primary degrades to local-durable acks; on reconnect the follower
//!   refuses the gap with a typed `LsnGap` and catches up by snapshot
//!   transfer, ending byte-identical to the primary.
//! * **Split-brain promotion** ([`ClusterFault::SplitPromote`]): a
//!   false-positive failover promotes the follower while the deposed
//!   primary is still alive; the old primary's next shipment is refused
//!   with `StaleEpoch`, it fences itself (the write is never acked),
//!   and it rejoins as a follower via snapshot transfer.
//!
//! Same config ⇒ byte-identical transcript and summary, like the
//! single-node runner.

use std::sync::Arc;

use adcast_core::EngineConfig;
use adcast_durability::{DurabilityOptions, WalOptions, WalRecord};
use adcast_graph::UserId;
use adcast_net::protocol::WireError;
use adcast_net::replication::{ClusterState, ReplicateError, ReplicationSink};
use adcast_net::synth::{self, SynthConfig, SynthWorkload};
use adcast_net::Node;
use adcast_obs::tracestore::{trace_id_for, TraceContext};
use adcast_stream::clock::{SimClock, Timestamp};
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::MemBackend;
use crate::runner::{event_time, render, NodeSpec};

/// An injectable cluster fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterFault {
    /// `kill -9` the partition's primary: its backend tears to the
    /// durability horizon and the node is never touched again. The
    /// harness promotes the follower under a bumped epoch and
    /// immediately proves zero acked loss + a byte-identical twin.
    KillPrimary {
        /// The partition whose primary dies.
        partition: u16,
    },
    /// The primary⇄follower link drops for this many of the partition's
    /// ingest batches: shipments are lost, the primary degrades to
    /// local-durable acks. Reconnection surfaces the gap as a typed
    /// `LsnGap` refusal and a snapshot-transfer catch-up.
    IsolateFollower {
        /// The partition whose follower goes dark.
        partition: u16,
        /// Ingest batches the link stays down.
        batches: u64,
    },
    /// A false-positive failover: the follower is promoted while the
    /// old primary is still alive. The deposed primary attempts one
    /// more write; epoch fencing refuses it (never acked) and the node
    /// rejoins as a follower by snapshot transfer.
    SplitPromote {
        /// The partition that splits.
        partition: u16,
    },
}

/// A cluster fault pinned to a position in the batch stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterFaultAt {
    /// Fires just before this ingest batch (0-based).
    pub at_batch: usize,
    /// What happens.
    pub fault: ClusterFault,
}

/// Everything that shapes one cluster run.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// Workload shape (users, campaigns, messages, batching, seed).
    pub synth: SynthConfig,
    /// User partitions; each gets a primary/follower pair.
    pub partitions: usize,
    /// Engine shards per node.
    pub num_shards: usize,
    /// Engine knobs (must match across nodes, like production).
    pub engine: EngineConfig,
    /// WAL knobs for every node.
    pub wal: WalOptions,
    /// Background snapshot cadence in WAL records (0 = never).
    pub snapshot_every: u64,
    /// Snapshots retained by pruning.
    pub keep_snapshots: usize,
    /// Virtual cost of one fsync, nanoseconds.
    pub fsync_latency_ns: u64,
    /// Serve a recommendation wave every this many batches (0 = never).
    pub recommend_every: usize,
    /// Users served per wave.
    pub wave_users: usize,
    /// Impression cost charged (broadcast) for each wave's top pick.
    pub impression_cost: f64,
    /// Head-based trace sampling: every `trace_sample`-th acked record
    /// carries a sampled [`TraceContext`] through the real replication
    /// path (0 = off). Trace ids derive from the synth seed and the
    /// record ordinal, so the transcript's trace lines are byte-identical
    /// across runs of the same config.
    pub trace_sample: u64,
    /// The fault script, in firing order.
    pub faults: Vec<ClusterFaultAt>,
}

impl ClusterSimConfig {
    /// A seconds-scale cluster scenario: the single-node smoke workload
    /// split over `partitions` primary/follower pairs, no faults (add
    /// your own).
    #[must_use]
    pub fn smoke(seed: u64, partitions: usize) -> ClusterSimConfig {
        ClusterSimConfig {
            synth: SynthConfig {
                num_users: 400,
                num_ads: 60,
                messages: 1_200,
                batch_size: 200,
                msgs_per_sec: 200.0,
                seed,
            },
            partitions,
            num_shards: 2,
            engine: EngineConfig::default(),
            wal: WalOptions::default(),
            snapshot_every: 0,
            keep_snapshots: 2,
            fsync_latency_ns: 100_000,
            recommend_every: 2,
            wave_users: 6,
            impression_cost: 0.05,
            trace_sample: 4,
            faults: Vec::new(),
        }
    }
}

/// Deterministic cluster run counters.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ClusterCounters {
    /// Partitions in the run.
    pub partitions: u64,
    /// Ingest batches routed (whole-cluster batches, pre-split).
    pub batches: u64,
    /// Feed deltas acked to the client across all partitions.
    pub acked_deltas: u64,
    /// WAL records acked across all partitions (campaigns, ingest,
    /// impressions).
    pub acked_records: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// Recommendations returned across all requests.
    pub served: u64,
    /// Impressions charged (one broadcast = `partitions` records).
    pub impressions: u64,
    /// Replicated shipments acked durable by a follower.
    pub shipments: u64,
    /// Shipments dropped while a follower link was down.
    pub dropped_shipments: u64,
    /// Primaries killed.
    pub kills: u64,
    /// Follower promotions (failover + split-brain).
    pub promotions: u64,
    /// Writes refused because the node was fenced or deposed.
    pub fenced_writes: u64,
    /// Typed `LsnGap` refusals from reconnecting followers.
    pub lsn_gap_refusals: u64,
    /// Snapshot-transfer catch-ups (gap recovery + rejoins).
    pub catch_up_snapshots: u64,
    /// Byte-identical state checks passed (promotion twins, catch-up
    /// convergence, end-of-run replica agreement).
    pub twin_checks: u64,
    /// Times a primary entered degraded mode (its follower unreachable).
    pub degraded_entries: u64,
    /// Times a degraded primary (follower unreachable, or freshly
    /// promoted) had a follower again.
    pub degraded_exits: u64,
}

/// What a cluster run produced.
#[derive(Debug, Clone)]
pub struct ClusterOutcome {
    /// One line per event, stamped with virtual event time.
    /// Byte-identical across runs of the same config.
    pub transcript: String,
    /// Fixed-order `key=value` rendering of [`ClusterCounters`].
    /// Byte-identical across runs of the same config.
    pub summary: String,
    /// The counters behind the summary.
    pub counters: ClusterCounters,
}

/// One partition node on its own simulated disk.
struct SimNode {
    backend: Arc<MemBackend>,
    node: Node,
    alive: bool,
}

/// Both nodes of a pair, `first` and then the other one, borrowed apart.
fn pair_mut(nodes: &mut [SimNode; 2], first: usize) -> (&mut SimNode, &mut SimNode) {
    let [a, b] = nodes;
    if first == 0 {
        (a, b)
    } else {
        (b, a)
    }
}

/// The in-memory replication link from a primary to its follower: it
/// delivers to the follower node's own `append_replica` and
/// `install_snapshot`, refuses everything while the link is down, and
/// maps the follower's refusals onto the sink contract the way the TCP
/// sink does. It also keeps the harness's books: counters, transcript
/// lines, and the byte-identity check on every installed snapshot.
struct MemLink<'a> {
    partition: u16,
    follower: &'a mut Node,
    down: bool,
    now: Timestamp,
    c: &'a mut ClusterCounters,
    transcript: &'a mut Vec<String>,
    /// Set once a live snapshot seeds the follower (see
    /// [`SimPartition::snapshot_seeded`]).
    seeded: &'a mut bool,
    /// A failure the sink contract has no variant for: a bug in the
    /// stack, so the harness fails the run instead of degrading.
    error: Option<String>,
}

impl MemLink<'_> {
    fn line(&mut self, body: String) {
        self.transcript.push(format!("t={} {body}", self.now));
    }

    fn fail(&mut self, why: String) -> ReplicateError {
        self.error = Some(format!("partition {}: {why}", self.partition));
        ReplicateError::Unreachable
    }
}

impl ReplicationSink for MemLink<'_> {
    fn replicate(
        &mut self,
        epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, ReplicateError> {
        if self.down {
            self.c.dropped_shipments += 1;
            return Err(ReplicateError::Unreachable);
        }
        match self
            .follower
            .append_replica(self.partition, epoch, trace, entries)
        {
            Ok(next_lsn) => {
                self.c.shipments += 1;
                Ok(next_lsn)
            }
            Err(WireError::LsnGap { expected }) => {
                self.c.lsn_gap_refusals += 1;
                Err(ReplicateError::LsnGap { expected })
            }
            Err(WireError::StaleEpoch { current }) => Err(ReplicateError::Fenced { current }),
            Err(e) => Err(self.fail(format!("replica append failed: {e}"))),
        }
    }

    fn install(&mut self, epoch: u64, snapshot: Bytes) -> Result<u64, ReplicateError> {
        if self.down {
            return Err(ReplicateError::Unreachable);
        }
        // The follower is unready for the duration of the install, and
        // the transcript pins both edges of the flip.
        let p = self.partition;
        self.line(format!("readyz partition={p} state=catching_up"));
        let installed = self.follower.install_snapshot(p, epoch, snapshot.clone());
        self.line(format!("readyz partition={p} state=ready"));
        let next_lsn = match installed {
            Ok(next_lsn) => next_lsn,
            Err(WireError::StaleEpoch { current }) => {
                return Err(ReplicateError::Fenced { current })
            }
            Err(e) => return Err(self.fail(format!("snapshot install failed: {e}"))),
        };
        *self.seeded = true;
        if self.follower.image() != snapshot {
            return Err(self.fail("installed snapshot recaptures differently".to_string()));
        }
        self.c.catch_up_snapshots += 1;
        self.c.twin_checks += 1;
        self.line(format!("catch_up partition={p} lsn={next_lsn}"));
        Ok(next_lsn)
    }
}

/// One partition's pair plus the harness's router-side view of it.
struct SimPartition {
    /// `nodes[0]` starts as primary, `nodes[1]` as follower.
    nodes: [SimNode; 2],
    /// Index of the current primary in `nodes`.
    serving: usize,
    /// Whether the other node is attached as the primary's follower.
    attached: bool,
    /// The router's epoch for this partition.
    epoch: u64,
    /// Ingest batches the follower link stays down for.
    isolated: u64,
    /// Whether this pair's standby state was seeded by a live-primary
    /// snapshot (catch-up / rejoin). A live snapshot bakes in the
    /// primary's serve-time engine state (score caches, work counters),
    /// so log-replay byte checks no longer apply to the pair — LSN
    /// accounting still does.
    snapshot_seeded: bool,
    /// Every record acked to a client, in ack order — the loss oracle.
    acked_log: Vec<WalRecord>,
}

struct ClusterRunner {
    config: ClusterSimConfig,
    spec: NodeSpec,
    clock: Arc<SimClock>,
    parts: Vec<SimPartition>,
    rng: SmallRng,
    now: Timestamp,
    transcript: Vec<String>,
    /// Acked-record ordinal for head-based trace sampling — advances on
    /// every ack-ladder run, sampled or not, so which records are
    /// sampled is a pure function of the config.
    trace_ordinal: u64,
    c: ClusterCounters,
}

/// Execute one cluster scenario to completion.
///
/// # Errors
///
/// A description when replication, promotion, or a byte-identity check
/// fails (a bug in the cluster stack, not the scenario), or when the
/// fault script references a partition the config doesn't have.
pub fn run_cluster(config: ClusterSimConfig) -> Result<ClusterOutcome, String> {
    if config.partitions == 0 {
        return Err("cluster needs at least one partition".to_string());
    }
    if config.partitions > usize::from(u16::MAX) {
        return Err("partitions exceed the u16 wire header".to_string());
    }
    for f in &config.faults {
        let p = match f.fault {
            ClusterFault::KillPrimary { partition }
            | ClusterFault::IsolateFollower { partition, .. }
            | ClusterFault::SplitPromote { partition } => partition,
        };
        if usize::from(p) >= config.partitions {
            return Err(format!(
                "fault targets partition {p} of {}",
                config.partitions
            ));
        }
    }
    let workload = synth::build(&config.synth);
    let clock = Arc::new(SimClock::new());
    let spec = NodeSpec {
        num_users: workload.num_users,
        num_shards: config.num_shards,
        engine: config.engine.clone(),
        options: DurabilityOptions {
            wal: config.wal,
            snapshot_every: config.snapshot_every,
            keep_snapshots: config.keep_snapshots,
        },
    };
    let mut parts = Vec::with_capacity(config.partitions);
    for p in 0..config.partitions as u16 {
        let [primary, follower] =
            [ClusterState::primary(p, 0), ClusterState::follower(p, 0)].map(|state| {
                let backend = MemBackend::new(Arc::clone(&clock), config.fsync_latency_ns);
                let (node, _) = spec.recover(&backend, state)?;
                Ok::<_, String>(SimNode {
                    backend,
                    node,
                    alive: true,
                })
            });
        parts.push(SimPartition {
            nodes: [primary?, follower?],
            serving: 0,
            attached: true,
            epoch: 0,
            isolated: 0,
            snapshot_seeded: false,
            acked_log: Vec::new(),
        });
    }
    let seed = config.synth.seed;
    let runner = ClusterRunner {
        config,
        spec,
        clock,
        parts,
        rng: SmallRng::seed_from_u64(seed ^ 0xC1_057E2),
        now: Timestamp::EPOCH,
        transcript: Vec::new(),
        trace_ordinal: 0,
        c: ClusterCounters::default(),
    };
    runner.execute(workload)
}

impl ClusterRunner {
    fn execute(mut self, workload: SynthWorkload) -> Result<ClusterOutcome, String> {
        self.c.partitions = self.parts.len() as u64;

        // Campaigns broadcast to every partition in one global order, so
        // replayed campaign ids agree across the cluster (DESIGN §14).
        let total_campaigns = workload.campaigns.len();
        for spec in workload.campaigns {
            let sub = spec.try_into_submission()?;
            for p in 0..self.parts.len() {
                self.ack_ladder(p, WalRecord::Submit(sub.clone()))?;
            }
        }
        self.line(format!(
            "submitted campaigns={total_campaigns} partitions={}",
            self.parts.len()
        ));

        let num_partitions = self.parts.len();
        for (i, batch) in workload.batches.into_iter().enumerate() {
            let due: Vec<ClusterFault> = self
                .config
                .faults
                .iter()
                .filter(|f| f.at_batch == i)
                .map(|f| f.fault)
                .collect();
            for fault in due {
                self.fire(fault)?;
            }

            self.now = event_time(self.now, &batch);

            // The router's split: one sub-batch per owning partition.
            let mut subs: Vec<Vec<(UserId, adcast_feed::FeedDelta)>> =
                vec![Vec::new(); num_partitions];
            for (user, delta) in batch {
                subs[user.index() % num_partitions].push((user, delta));
            }
            let mut routed = 0u64;
            for (p, sub) in subs.into_iter().enumerate() {
                if sub.is_empty() {
                    continue;
                }
                let deltas = sub.len() as u64;
                self.ack_ladder(p, WalRecord::IngestBatch(sub))?;
                self.c.acked_deltas += deltas;
                routed += deltas;
                if self.parts[p].isolated > 0 {
                    self.parts[p].isolated -= 1;
                }
            }
            self.c.batches += 1;
            self.line(format!("ingest batch={i} deltas={routed}"));

            if self.config.recommend_every > 0 && (i + 1) % self.config.recommend_every == 0 {
                self.serve_wave(workload.num_users)?;
            }
        }

        // End-of-run agreement: every live follower that isn't mid-gap
        // must hold the primary's exact bytes (hot standby, not a cold
        // log copy).
        for p in 0..self.parts.len() {
            self.check_replica_agreement(p)?;
            let part = &self.parts[p];
            let primary_lsn = part.nodes[part.serving].node.next_lsn();
            if part.acked_log.len() as u64 != primary_lsn {
                return Err(format!(
                    "partition {p}: {} acked records but primary lsn {primary_lsn}",
                    part.acked_log.len(),
                ));
            }
        }
        self.line(format!(
            "done batches={} acked_records={} twin_checks={}",
            self.c.batches, self.c.acked_records, self.c.twin_checks
        ));

        let summary = self.render_summary();
        let mut transcript = self.transcript.join("\n");
        transcript.push('\n');
        Ok(ClusterOutcome {
            transcript,
            summary,
            counters: self.c,
        })
    }

    /// The head-based sampling decision for the next acked record: the
    /// trace id is a pure function of `(synth seed, ordinal)`, exactly
    /// like the live router's, so reruns sample the same records and
    /// derive the same ids.
    fn sample_trace(&mut self) -> TraceContext {
        let every = self.config.trace_sample;
        if every == 0 {
            return TraceContext::NONE;
        }
        let ordinal = self.trace_ordinal;
        self.trace_ordinal += 1;
        if !ordinal.is_multiple_of(every) {
            return TraceContext::NONE;
        }
        TraceContext {
            trace_id: trace_id_for(self.config.synth.seed, ordinal),
            parent_span_id: 0,
        }
    }

    /// Run `step` on node `from` of partition `p` with the in-memory link
    /// to the pair's other node as its sink. Counts the node's degraded
    /// transitions, and fails the run on any refusal the sink contract
    /// has no variant for.
    fn over_link<T>(
        &mut self,
        p: usize,
        from: usize,
        down: bool,
        step: impl FnOnce(&mut Node, &mut MemLink<'_>) -> T,
    ) -> Result<T, String> {
        let part = &mut self.parts[p];
        let (node, other) = pair_mut(&mut part.nodes, from);
        let mut link = MemLink {
            partition: p as u16,
            follower: &mut other.node,
            down,
            now: self.now,
            c: &mut self.c,
            transcript: &mut self.transcript,
            seeded: &mut part.snapshot_seeded,
            error: None,
        };
        let was_degraded = node.node.cluster().degraded;
        let out = step(&mut node.node, &mut link);
        if let Some(error) = link.error {
            return Err(error);
        }
        match (was_degraded, node.node.cluster().degraded) {
            (false, true) => self.c.degraded_entries += 1,
            (true, false) => self.c.degraded_exits += 1,
            _ => {}
        }
        Ok(out)
    }

    /// One client write on one partition: the primary node's ack ladder
    /// (log → commit → apply → replicate → ack), shipping over the
    /// in-memory link when a follower is attached. Only an acked record
    /// enters the loss oracle.
    fn ack_ladder(&mut self, p: usize, record: WalRecord) -> Result<(), String> {
        let trace = self.sample_trace();
        let part = &self.parts[p];
        let (serving, attached, down) = (part.serving, part.attached, part.isolated > 0);
        if !part.nodes[serving].alive {
            return Err(format!("partition {p}: routed a write to a dead node"));
        }
        let acked = record.clone();
        self.over_link(p, serving, down, |primary, link| {
            let sink = attached.then_some(link as &mut dyn ReplicationSink);
            primary.submit(record, trace, sink)
        })?
        .map_err(|e| format!("partition {p}: write refused: {e}"))?;
        self.parts[p].acked_log.push(acked);
        self.c.acked_records += 1;
        if trace.sampled() {
            // The transcript's trace line is computed purely from the
            // config (never read back from the shared span ring, which a
            // double-run in one process would pollute): the id from the
            // sampling function, the hop list from the ladder just run.
            let ladder = if attached && !down {
                "replicate,follower_commit,follower_apply"
            } else {
                "local_durable"
            };
            self.line(format!(
                "trace partition={p} id={:016x} ladder={ladder}",
                trace.trace_id
            ));
        }
        Ok(())
    }

    fn fire(&mut self, fault: ClusterFault) -> Result<(), String> {
        match fault {
            ClusterFault::KillPrimary { partition } => {
                let p = usize::from(partition);
                {
                    let part = &mut self.parts[p];
                    let primary = &mut part.nodes[part.serving];
                    primary.alive = false;
                    primary.backend.crash();
                }
                self.c.kills += 1;
                self.line(format!("fault kill_primary partition={p}"));
                self.promote_follower(p)?;
                // Zero acked loss: every acked record is durable and
                // applied on the promoted node, byte-for-byte.
                self.check_promoted_twin(p)
            }
            ClusterFault::IsolateFollower { partition, batches } => {
                let p = usize::from(partition);
                if !self.parts[p].attached {
                    return Err(format!("partition {p} has no follower to isolate"));
                }
                self.parts[p].isolated = batches;
                self.line(format!(
                    "fault isolate_follower partition={p} batches={batches}"
                ));
                Ok(())
            }
            ClusterFault::SplitPromote { partition } => {
                let p = usize::from(partition);
                let deposed = self.parts[p].serving;
                self.line(format!("fault split_promote partition={p}"));
                self.promote_follower(p)?;
                // The deposed primary is still alive and doesn't know:
                // it takes one more write and tries to ship it. Fencing
                // refuses the shipment, the node fences itself, and the
                // write is never acked.
                self.stale_write(p, deposed)?;
                // It then rejoins as a follower of the new primary via
                // snapshot transfer.
                self.rejoin(p)
            }
        }
    }

    /// The router's failover: bump the epoch and promote the follower.
    fn promote_follower(&mut self, p: usize) -> Result<(), String> {
        let part = &mut self.parts[p];
        if !part.attached {
            return Err(format!("partition {p}: no follower to promote"));
        }
        let f = 1 - part.serving;
        let next_epoch = part.epoch + 1;
        part.nodes[f]
            .node
            .promote(p as u16, next_epoch)
            .map_err(|e| format!("partition {p}: promotion refused: {e}"))?;
        part.epoch = next_epoch;
        part.serving = f;
        part.attached = false;
        part.isolated = 0;
        self.c.promotions += 1;
        self.line(format!(
            "promoted partition={p} epoch={next_epoch} lsn={}",
            self.parts[p].nodes[f].node.next_lsn()
        ));
        Ok(())
    }

    /// A deposed-but-alive primary takes one more write and ships it to
    /// its old follower, now the promoted primary, which refuses the old
    /// epoch; the deposed node fences itself and never acks the write.
    fn stale_write(&mut self, p: usize, deposed: usize) -> Result<(), String> {
        let record = WalRecord::Maintenance {
            now: self.now,
            idle_for: adcast_stream::clock::Duration::from_secs(1),
        };
        let stale_epoch = self.parts[p].nodes[deposed].node.cluster().epoch;
        let refused = self.over_link(p, deposed, false, |stale, link| {
            let outcome = stale.submit(record, TraceContext::NONE, Some(link));
            (outcome, stale.cluster().fenced)
        })?;
        let (Err(WireError::StaleEpoch { current }), true) = refused else {
            return Err(format!(
                "partition {p}: stale shipment was admitted (epoch {stale_epoch})"
            ));
        };
        self.c.fenced_writes += 1;
        self.line(format!(
            "fenced partition={p} stale_epoch={stale_epoch} current={current}"
        ));
        Ok(())
    }

    /// Re-attach the fenced ex-primary as the follower of the current
    /// primary: adopt the new epoch, then the primary rebuilds it by
    /// snapshot transfer. Its WAL diverged (the fenced write), so the
    /// transfer happens now rather than on the first shipment's gap.
    fn rejoin(&mut self, p: usize) -> Result<(), String> {
        let part = &mut self.parts[p];
        part.attached = true;
        let (serving, epoch) = (part.serving, part.epoch);
        self.over_link(p, serving, false, |primary, link| {
            link.follower.enroll_follower(epoch);
            primary.catch_up_follower(link)
        })?
        .map_err(|e| format!("partition {p}: catch-up refused: {e}"))?;
        self.line(format!("rejoined partition={p} as follower"));
        Ok(())
    }

    /// Follower agreement at end of run: the follower must hold exactly
    /// a clean replay of the acked log up to its LSN — hot standby, not
    /// a cold log copy. Serve-time engine state (score caches, work
    /// counters) lives only on the node that served, so the comparison
    /// is against a replay twin, not the live primary's bytes; a pair
    /// whose standby was seeded by a live snapshot is checked by LSN
    /// accounting alone.
    fn check_replica_agreement(&mut self, p: usize) -> Result<(), String> {
        let part = &self.parts[p];
        if !part.attached {
            return Ok(());
        }
        let f = 1 - part.serving;
        let primary_lsn = part.nodes[part.serving].node.next_lsn();
        let follower_lsn = part.nodes[f].node.next_lsn();
        if part.isolated == 0 && follower_lsn != primary_lsn {
            return Err(format!(
                "partition {p}: follower at lsn {follower_lsn}, primary at {primary_lsn}"
            ));
        }
        self.twin_check(p, f, "follower")
    }

    /// The promoted node must hold exactly the acked log: nothing lost,
    /// nothing extra — and, unless its state was seeded by a live
    /// snapshot, byte-identical to a clean replay.
    fn check_promoted_twin(&mut self, p: usize) -> Result<(), String> {
        let part = &self.parts[p];
        let next_lsn = part.nodes[part.serving].node.next_lsn();
        if next_lsn != part.acked_log.len() as u64 {
            return Err(format!(
                "partition {p}: acked {} records but promoted node is at lsn {next_lsn}",
                part.acked_log.len()
            ));
        }
        self.twin_check(p, part.serving, "promoted")?;
        self.line(format!("twin partition={p} lsn={next_lsn} ok"));
        Ok(())
    }

    /// Unless the pair was seeded by a live snapshot, node `n` must be
    /// byte-identical to a clean replay of the acked log up to its LSN —
    /// the oracle for log-derived state.
    fn twin_check(&mut self, p: usize, n: usize, role: &str) -> Result<(), String> {
        let part = &self.parts[p];
        if part.snapshot_seeded {
            return Ok(());
        }
        let node = &part.nodes[n].node;
        let upto = node.next_lsn();
        let acked = part.acked_log.get(..upto as usize);
        if node.image() != self.spec.replay(acked.unwrap_or(&part.acked_log))? {
            return Err(format!(
                "partition {p}: {role} state diverges from acked-log replay at lsn {upto}"
            ));
        }
        self.c.twin_checks += 1;
        Ok(())
    }

    fn serve_wave(&mut self, num_users: u32) -> Result<(), String> {
        let num_partitions = self.parts.len();
        let mut served = 0u64;
        let mut top = None;
        for _ in 0..self.config.wave_users {
            let user = UserId(self.rng.gen_range(0..num_users));
            let p = user.index() % num_partitions;
            let part = &mut self.parts[p];
            let recs = part.nodes[part.serving].node.recommend(
                user,
                self.now,
                adcast_stream::event::LocationId(0),
                self.config.engine.k,
            );
            served += recs.len() as u64;
            if top.is_none() {
                top = recs.first().map(|r| r.ad);
            }
        }
        self.c.recommends += self.config.wave_users as u64;
        self.c.served += served;
        // Impressions are control-plane: broadcast the charge to every
        // partition in the same order, like the router does.
        if let Some(ad) = top {
            let clicked = self.rng.gen_range(0..10u32) == 0;
            for p in 0..num_partitions {
                self.ack_ladder(
                    p,
                    WalRecord::Impression {
                        ad,
                        cost: self.config.impression_cost,
                        clicked,
                        now: self.now,
                    },
                )?;
            }
            self.c.impressions += 1;
        }
        self.line(format!(
            "wave users={} served={served} impressions={}",
            self.config.wave_users, self.c.impressions
        ));
        Ok(())
    }

    fn line(&mut self, body: String) {
        self.transcript.push(format!("t={} {body}", self.now));
    }

    fn render_summary(&self) -> String {
        let c = &self.c;
        // The shared clock only sequences fsyncs; assert it advanced so
        // a future refactor can't silently bypass the simulated disk.
        debug_assert!(self.clock.now_ns() > 0 || c.acked_records == 0);
        render(&[
            ("partitions", c.partitions),
            ("batches", c.batches),
            ("acked_deltas", c.acked_deltas),
            ("acked_records", c.acked_records),
            ("recommends", c.recommends),
            ("served", c.served),
            ("impressions", c.impressions),
            ("shipments", c.shipments),
            ("dropped_shipments", c.dropped_shipments),
            ("kills", c.kills),
            ("promotions", c.promotions),
            ("fenced_writes", c.fenced_writes),
            ("lsn_gap_refusals", c.lsn_gap_refusals),
            ("catch_up_snapshots", c.catch_up_snapshots),
            ("twin_checks", c.twin_checks),
            ("degraded_entries", c.degraded_entries),
            ("degraded_exits", c.degraded_exits),
        ])
    }
}

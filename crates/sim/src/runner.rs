//! The scenario runner: a simulated day against the production stack.
//!
//! [`run`] executes a [`SimConfig`] single-threaded over virtual time:
//! the synthetic workload's ingest batches, recommendation waves with
//! impression charges, WAL-logged lifecycle maintenance passes, and the
//! fault script — every mutation through [`Node::submit`], the ack ladder
//! the live server runs, against the in-memory [`MemBackend`]. No real
//! sockets, no real disk, no real sleeping.
//!
//! Determinism contract: the transcript and summary derive only from the
//! workload (seeded), the harness's own RNG (seeded), and counters
//! maintained on the caller's thread. The shared [`SimClock`] is advanced
//! by fsyncs — including the background snapshot persister's — so it is
//! **never** printed; virtual *event* time (the workload's timestamps)
//! stamps every transcript line instead.
//!
//! Crash faults additionally prove the bit-identical-twin property: after
//! recovery the runner replays its own committed record log into a fresh
//! store + driver and compares the two [`EngineSetSnapshot`] encodings
//! byte for byte.

use std::sync::Arc;

use adcast_ads::{AdStore, CampaignState};
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_durability::recovery::{recover_on, RecoveryReport};
use adcast_durability::snapshot::EngineSetSnapshot;
use adcast_durability::{
    apply_record, ApplyEffect, Durability, DurabilityOptions, StorageBackend, WalRecord,
};
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::synth::{self, SynthWorkload};
use adcast_net::{ClusterState, Node, ReplicaSetup, TraceContext};
use adcast_stream::clock::{SimClock, Timestamp};
use adcast_stream::event::LocationId;
use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::backend::MemBackend;
use crate::scenario::{Fault, SimConfig};

/// Deterministic run counters (everything the summary renders).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SimCounters {
    /// Campaigns submitted up front.
    pub campaigns: u64,
    /// Ingest batches applied.
    pub batches: u64,
    /// Feed deltas applied.
    pub deltas: u64,
    /// Recommendation requests served.
    pub recommends: u64,
    /// Recommendations returned across all requests.
    pub served: u64,
    /// Impressions charged.
    pub impressions: u64,
    /// Impressions that exhausted a campaign's budget.
    pub exhausted: u64,
    /// Phantom requests shed by the bounded admission queue.
    pub sheds: u64,
    /// Maintenance passes run.
    pub maint_passes: u64,
    /// Users examined by maintenance.
    pub maint_scanned: u64,
    /// Idle users reset by maintenance.
    pub maint_decayed: u64,
    /// Finished-flight campaigns evicted by maintenance.
    pub maint_pruned: u64,
    /// Crash faults executed.
    pub crashes: u64,
    /// Twin checks passed (== `crashes` when the run succeeds).
    pub twin_checks: u64,
    /// Batches lost in crashes before their commit (never acked).
    pub lost_records: u64,
    /// Acked records lost to a crash (possible only when the fsync
    /// policy is weaker than `Always`).
    pub lost_acked: u64,
    /// WAL records replayed across all recoveries.
    pub replayed_records: u64,
    /// Torn bytes truncated across all recoveries.
    pub torn_bytes: u64,
    /// Snapshots persisted (periodic + the final checkpoint).
    pub snapshots_written: u64,
    /// WAL records appended over the whole run.
    pub wal_records: u64,
    /// fsyncs issued by the backend (WAL + snapshot persister).
    pub fsyncs: u64,
    /// Campaigns still active at the end.
    pub store_active: u64,
    /// Data-dir bytes after the final checkpoint settled.
    pub disk_bytes: u64,
    /// Data-dir files after the final checkpoint settled.
    pub disk_files: u64,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// One line per event, stamped with virtual event time. Byte-identical
    /// across runs of the same config.
    pub transcript: String,
    /// Fixed-order `key=value` rendering of [`SimCounters`] plus engine
    /// work counters. Byte-identical across runs of the same config.
    pub summary: String,
    /// The counters behind the summary.
    pub counters: SimCounters,
}

struct Runner {
    config: SimConfig,
    spec: NodeSpec,
    backend: Arc<MemBackend>,
    node: Node,
    /// Every *committed* record in LSN order — the twin-check oracle.
    record_log: Vec<WalRecord>,
    rng: SmallRng,
    now: Timestamp,
    last_maint: Timestamp,
    backlog: u64,
    storm_steps_left: u64,
    storm_arrivals: u64,
    homes: Vec<LocationId>,
    transcript: Vec<String>,
    c: SimCounters,
}

/// Execute one scenario to completion.
///
/// # Errors
///
/// A description when durability fails, a record refuses to apply, or a
/// crash-recovery twin check finds divergence (which would be a bug in
/// the engine/durability stack, not in the scenario).
pub fn run(config: SimConfig) -> Result<SimOutcome, String> {
    let workload = synth::build(&config.synth);
    let backend = MemBackend::new(Arc::new(SimClock::new()), config.fsync_latency_ns);
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
    let (node, _) = spec.recover(&backend, ClusterState::standalone())?;
    let seed = config.synth.seed;
    let runner = Runner {
        config,
        spec,
        backend,
        node,
        record_log: Vec::new(),
        // A distinct stream from the workload generator's, so harness
        // choices (wave users, clicks) never alias workload structure.
        rng: SmallRng::seed_from_u64(seed ^ 0x51D_CA57),
        now: Timestamp::EPOCH,
        last_maint: Timestamp::EPOCH,
        backlog: 0,
        storm_steps_left: 0,
        storm_arrivals: 0,
        homes: Vec::new(),
        transcript: Vec::new(),
        c: SimCounters::default(),
    };
    runner.execute(workload)
}

/// What every node of a run is built from.
pub(crate) struct NodeSpec {
    pub(crate) num_users: u32,
    pub(crate) num_shards: usize,
    pub(crate) engine: EngineConfig,
    pub(crate) options: DurabilityOptions,
}

impl NodeSpec {
    /// A node recovered from `backend` (a cold start when it is empty)
    /// and logging back to it, plus what recovery found.
    pub(crate) fn recover(
        &self,
        backend: &Arc<MemBackend>,
        cluster: ClusterState,
    ) -> Result<(Node, RecoveryReport), String> {
        let disk = Arc::clone(backend) as Arc<dyn StorageBackend>;
        let (users, shards, wal) = (self.num_users, self.num_shards, self.options.wal);
        let recovered = recover_on(Arc::clone(&disk), users, shards, self.engine.clone(), wal)
            .map_err(|e| e.to_string())?;
        let report = recovered.report;
        let durability = Durability::new_on(Arc::clone(&disk), recovered.wal, self.options, report);
        let replica = ReplicaSetup {
            backend: disk,
            options: self.options,
            engine: self.engine.clone(),
        };
        let (store, driver) = (recovered.store, recovered.driver);
        let node = Node::new(store, driver, Some(durability), cluster, Some(replica));
        Ok((node, report))
    }

    /// The image of a fresh store + driver that applied `records`: the
    /// oracle a recovered or replicated node must match byte for byte.
    pub(crate) fn replay(&self, records: &[WalRecord]) -> Result<Bytes, String> {
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(self.num_users, self.num_shards, self.engine.clone());
        for record in records {
            apply_record(&mut store, &mut driver, record.clone())?;
        }
        Ok(EngineSetSnapshot::capture(records.len() as u64, &store, &driver).encode())
    }
}

impl Runner {
    fn execute(mut self, workload: SynthWorkload) -> Result<SimOutcome, String> {
        self.homes = workload.homes;
        self.submit_campaigns(workload.campaigns)?;

        let batches = workload.batches;
        for (i, batch) in batches.into_iter().enumerate() {
            // Fault script first: the fault "arrives" before the batch.
            let mut crash_now = false;
            let due: Vec<Fault> = self
                .config
                .faults
                .iter()
                .filter(|f| f.at_batch == i)
                .map(|f| f.fault)
                .collect();
            for fault in due {
                match fault {
                    Fault::FsyncStall { ms } => {
                        self.backend.stall_next_fsync(ms * 1_000_000);
                        self.line(format!("fault fsync_stall ms={ms}"));
                    }
                    Fault::ShedStorm { arrivals, steps } => {
                        self.storm_arrivals = arrivals;
                        self.storm_steps_left = steps;
                        self.line(format!(
                            "fault shed_storm arrivals={arrivals} steps={steps}"
                        ));
                    }
                    Fault::Crash => crash_now = true,
                }
            }

            self.now = event_time(self.now, &batch);

            if crash_now {
                self.crash_and_recover(WalRecord::IngestBatch(batch))?;
                continue;
            }

            self.admission_step();
            let deltas = batch.len() as u64;
            self.submit(WalRecord::IngestBatch(batch))?;
            self.c.batches += 1;
            self.c.deltas += deltas;
            self.line(format!(
                "ingest batch={i} deltas={deltas} backlog={} shed_total={}",
                self.backlog, self.c.sheds
            ));

            if self.config.recommend_every > 0 && (i + 1) % self.config.recommend_every == 0 {
                self.serve_wave(workload.num_users)?;
            }
            self.maybe_maintain()?;
        }

        // Settle: a final durable checkpoint, then join the persister so
        // disk numbers are stable before we read them.
        self.node.checkpoint().map_err(|e| e.to_string())?;
        let counters = self
            .node
            .take_durability()
            .expect("durability live at end")
            .counters();
        self.c.wal_records = counters.wal_records;
        self.c.snapshots_written = counters.snapshots_written;
        self.c.fsyncs = self.backend.fsyncs();
        self.c.store_active = self.node.store().num_active() as u64;
        self.c.disk_bytes = self.backend.total_bytes();
        self.c.disk_files = self.backend.file_count() as u64;
        self.line(format!(
            "done batches={} wal_records={} disk_bytes={} disk_files={}",
            self.c.batches, self.c.wal_records, self.c.disk_bytes, self.c.disk_files
        ));

        let summary = self.render_summary();
        let mut transcript = self.transcript.join("\n");
        transcript.push('\n');
        Ok(SimOutcome {
            transcript,
            summary,
            counters: self.c,
        })
    }

    fn submit_campaigns(
        &mut self,
        campaigns: Vec<adcast_net::protocol::CampaignSpec>,
    ) -> Result<(), String> {
        let total = campaigns.len();
        for (i, spec) in campaigns.into_iter().enumerate() {
            let sub = spec.try_into_submission()?;
            let effect = self.submit(WalRecord::Submit(sub))?;
            let ApplyEffect::Submitted { ad } = effect else {
                return Err("submit produced a non-submit effect".to_string());
            };
            self.c.campaigns += 1;
            if self.config.paced_every > 0 && i % self.config.paced_every == 0 {
                self.submit(WalRecord::SetPacing {
                    ad,
                    start: Timestamp::EPOCH,
                    end: Timestamp::from_secs(self.config.flight_secs),
                    budget: self.config.flight_budget,
                })?;
            }
        }
        self.line(format!(
            "submitted campaigns={total} paced_every={}",
            self.config.paced_every
        ));
        Ok(())
    }

    /// One step of the bounded-admission model: phantom arrivals compete
    /// for queue space, overflow is shed (mirrors the server's bounded
    /// request queue + `Overloaded` refusal).
    fn admission_step(&mut self) {
        let mut arrivals = 1;
        if self.storm_steps_left > 0 {
            self.storm_steps_left -= 1;
            arrivals += self.storm_arrivals;
        }
        self.backlog += arrivals;
        let drained = self.backlog.min(self.config.drain_per_step);
        self.backlog -= drained;
        if self.backlog > self.config.queue_depth {
            self.c.sheds += self.backlog - self.config.queue_depth;
            self.backlog = self.config.queue_depth;
        }
    }

    fn serve_wave(&mut self, num_users: u32) -> Result<(), String> {
        let mut served = 0u64;
        let mut charges = Vec::with_capacity(self.config.wave_users);
        for _ in 0..self.config.wave_users {
            let user = UserId(self.rng.gen_range(0..num_users));
            let home = self.homes[user.index()];
            let recs = self
                .node
                .recommend(user, self.now, home, self.config.engine.k);
            served += recs.len() as u64;
            if let Some(top) = recs.first() {
                let clicked = self.rng.gen_range(0..10u32) == 0;
                charges.push((top.ad, clicked));
            }
        }
        self.c.recommends += self.config.wave_users as u64;
        self.c.served += served;
        for (ad, clicked) in charges {
            let effect = self.submit(WalRecord::Impression {
                ad,
                cost: self.config.impression_cost,
                clicked,
                now: self.now,
            })?;
            self.c.impressions += 1;
            if let ApplyEffect::Impression {
                state: Some(CampaignState::Exhausted),
            } = effect
            {
                self.c.exhausted += 1;
            }
        }
        self.line(format!(
            "wave users={} served={served} impressions={}",
            self.config.wave_users, self.c.impressions
        ));
        Ok(())
    }

    fn maybe_maintain(&mut self) -> Result<(), String> {
        if self.config.maintenance_every == adcast_stream::clock::Duration::ZERO
            || self.now.since(self.last_maint) < self.config.maintenance_every
        {
            return Ok(());
        }
        self.last_maint = self.now;
        let effect = self.submit(WalRecord::Maintenance {
            now: self.now,
            idle_for: self.config.idle_for,
        })?;
        let ApplyEffect::Maintained {
            scanned,
            decayed,
            pruned,
        } = effect
        else {
            return Err("maintenance produced a non-maintenance effect".to_string());
        };
        self.c.maint_passes += 1;
        self.c.maint_scanned += scanned;
        self.c.maint_decayed += decayed;
        self.c.maint_pruned += pruned;
        self.line(format!(
            "maintenance scanned={scanned} decayed={decayed} pruned={pruned}"
        ));
        Ok(())
    }

    /// The production ack ladder. A record enters the twin-check oracle
    /// only once the node acked it, i.e. after its commit.
    fn submit(&mut self, record: WalRecord) -> Result<ApplyEffect, String> {
        let acked = record.clone();
        let effect = self
            .node
            .submit(record, TraceContext::NONE, None)
            .map_err(|e| e.to_string())?;
        self.record_log.push(acked);
        Ok(effect)
    }

    /// Power loss with `pending` logged but never committed, then
    /// recovery in place and the bit-identical twin check.
    fn crash_and_recover(&mut self, pending: WalRecord) -> Result<(), String> {
        let mut durability = self.node.take_durability().expect("durability live");
        durability.log(&pending).map_err(|e| e.to_string())?;
        // Dropping flushes the writer's buffer (unsynced bytes) and joins
        // the snapshot persister — anything it finished is on "disk".
        drop(durability);
        let crash = self.backend.crash();
        let (node, report) = self
            .spec
            .recover(&self.backend, ClusterState::standalone())?;
        self.node = node;
        let next_lsn = self.node.next_lsn();
        if self.record_log.len() as u64 > next_lsn {
            self.c.lost_acked += self.record_log.len() as u64 - next_lsn;
            self.record_log.truncate(next_lsn as usize);
        }
        self.c.crashes += 1;
        self.c.lost_records += 1; // the pending, never-acked batch
        self.c.replayed_records += report.replayed_records;
        self.c.torn_bytes += report.truncated_bytes + crash.bytes_lost;

        // Twin check: a fresh pair replaying the committed log must be
        // byte-identical to the recovered state.
        if self.node.image() != self.spec.replay(&self.record_log)? {
            return Err(format!(
                "twin check failed at lsn {next_lsn}: recovered state diverges from replay"
            ));
        }
        self.c.twin_checks += 1;
        self.line(format!(
            "crash recovered_lsn={next_lsn} replayed={} snapshot_lsn={} twin=ok",
            report.replayed_records,
            report
                .snapshot_lsn
                .map_or_else(|| "none".to_string(), |l| l.to_string()),
        ));
        Ok(())
    }

    fn line(&mut self, body: String) {
        self.transcript.push(format!("t={} {body}", self.now));
    }

    fn render_summary(&self) -> String {
        let c = &self.c;
        let stats = self.node.driver().stats();
        render(&[
            ("users", u64::from(self.node.driver().num_users())),
            ("shards", self.config.num_shards as u64),
            ("campaigns", c.campaigns),
            ("batches", c.batches),
            ("deltas", c.deltas),
            ("recommends", c.recommends),
            ("served", c.served),
            ("impressions", c.impressions),
            ("exhausted", c.exhausted),
            ("sheds", c.sheds),
            ("maint_passes", c.maint_passes),
            ("maint_scanned", c.maint_scanned),
            ("maint_decayed", c.maint_decayed),
            ("maint_pruned", c.maint_pruned),
            ("crashes", c.crashes),
            ("twin_checks", c.twin_checks),
            ("lost_records", c.lost_records),
            ("lost_acked", c.lost_acked),
            ("replayed_records", c.replayed_records),
            ("torn_bytes", c.torn_bytes),
            ("snapshots_written", c.snapshots_written),
            ("wal_records", c.wal_records),
            ("fsyncs", c.fsyncs),
            ("store_active", c.store_active),
            ("disk_bytes", c.disk_bytes),
            ("disk_files", c.disk_files),
            ("engine_deltas", stats.deltas),
            ("engine_postings_scanned", stats.postings_scanned),
            ("engine_ads_scored", stats.ads_scored),
            ("engine_promotions", stats.promotions),
            ("engine_refreshes", stats.refreshes),
            ("engine_recommends", stats.recommends),
        ])
    }
}

/// A summary: one `key=value` line per pair, in order.
pub(crate) fn render(pairs: &[(&str, u64)]) -> String {
    pairs
        .iter()
        .map(|(key, value)| format!("{key}={value}\n"))
        .collect()
}

/// Virtual event time after `batch`: its newest message, never earlier.
pub(crate) fn event_time(now: Timestamp, batch: &[(UserId, FeedDelta)]) -> Timestamp {
    let stamps = batch.iter().filter_map(|(_, delta)| delta.entered.as_ref());
    stamps.map(|m| m.ts).fold(now, Timestamp::max)
}

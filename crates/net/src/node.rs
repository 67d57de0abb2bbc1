//! One partition node: the single owner of a node's store, driver,
//! durability and cluster identity, and the one place the ack ladder is
//! written (primary: fenced? → log → commit → apply → replicate → ack;
//! follower: admit → log → commit → apply → ack).
//!
//! The server's engine thread hands [`Node::submit`] its TCP
//! [`ReplicationSink`], the single-node simulator none, and the cluster
//! simulator an in-memory link to another `Node`: only the transport
//! differs, so the simulator proves properties of the shipping code.

use adcast_ads::AdStore;
use adcast_core::{Recommendation, ShardedDriver};
use adcast_durability::{apply_record, ApplyEffect, Durability, EngineSetSnapshot, WalRecord};
use adcast_graph::UserId;
use adcast_obs::tracestore::{tracestore, SpanKind, TraceContext};
use adcast_obs::{readiness, Hist, UNREADY_CATCHING_UP, UNREADY_DEGRADED};
use adcast_stream::clock::{now_ns, Timestamp};
use adcast_stream::event::LocationId;
use bytes::Bytes;

use crate::protocol::{NodeRole, WireError};
use crate::replication::{
    install_snapshot_on, replica_append, ClusterState, ReplObs, ReplicaSetup, ReplicateError,
    ReplicationSink,
};

/// One partition's state plus the metric handles its ladder feeds.
pub struct Node {
    store: AdStore,
    driver: ShardedDriver,
    durability: Option<Durability>,
    /// The node's cluster identity; mutated only here (fencing on a
    /// stale-epoch refusal, promotion, degraded-mode transitions).
    cluster: ClusterState,
    /// Follower side: rebuild recipe for snapshot installs.
    replica: Option<ReplicaSetup>,
    wal_commit_ns: Hist,
    engine_apply_ns: Hist,
    repl_obs: ReplObs,
}

impl Node {
    /// Wrap a node's state. `durability` of `None` serves in memory only;
    /// `replica` is what [`Node::install_snapshot`] rebuilds from.
    #[must_use]
    pub fn new(
        store: AdStore,
        driver: ShardedDriver,
        durability: Option<Durability>,
        cluster: ClusterState,
        replica: Option<ReplicaSetup>,
    ) -> Node {
        let reg = adcast_obs::registry();
        let wal_commit_ns = "WAL log + group-commit time per mutating RPC.";
        let engine_apply_ns = "Engine apply time per mutating RPC (after the WAL commit).";
        let repl_obs = ReplObs::resolve(cluster.partition);
        repl_obs.epoch.set(gauge(cluster.epoch));
        repl_obs.degraded.set(i64::from(cluster.degraded));
        Node {
            store,
            driver,
            durability,
            cluster,
            replica,
            wal_commit_ns: reg.hist("adcast_net_wal_commit_ns", wal_commit_ns),
            engine_apply_ns: reg.hist("adcast_net_engine_apply_ns", engine_apply_ns),
            repl_obs,
        }
    }

    #[must_use]
    pub fn store(&self) -> &AdStore {
        &self.store
    }

    #[must_use]
    pub fn driver(&self) -> &ShardedDriver {
        &self.driver
    }

    #[must_use]
    pub fn durability(&self) -> Option<&Durability> {
        self.durability.as_ref()
    }

    /// Detach the durability handle (dropping it joins the persister).
    pub fn take_durability(&mut self) -> Option<Durability> {
        self.durability.take()
    }

    #[must_use]
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// LSN the next logged record will carry (0 without durability).
    #[must_use]
    pub fn next_lsn(&self) -> u64 {
        self.durability.as_ref().map_or(0, Durability::next_lsn)
    }

    /// The node's full state image at [`Node::next_lsn`].
    #[must_use]
    pub fn image(&self) -> Bytes {
        EngineSetSnapshot::capture(self.next_lsn(), &self.store, &self.driver).encode()
    }

    /// Serve a recommendation. Reads are not logged: the engine refreshes
    /// rankings eagerly on ingest, so recommendations are a pure function
    /// of the mutation history the WAL captures.
    pub fn recommend(
        &mut self,
        user: UserId,
        now: Timestamp,
        location: LocationId,
        k: usize,
    ) -> Vec<Recommendation> {
        self.driver.recommend(&self.store, user, now, location, k)
    }

    /// Synchronously snapshot (the `Checkpoint` RPC); returns its `next_lsn`.
    ///
    /// # Errors
    ///
    /// [`WireError::BadRequest`] without durability, else `Unavailable`.
    pub fn checkpoint(&mut self) -> Result<u64, WireError> {
        let Some(d) = self.durability.as_mut() else {
            return Err(WireError::BadRequest(
                "server is running without a data directory (start with --data-dir)".into(),
            ));
        };
        d.checkpoint(&self.store, &self.driver)
            .map_err(|_| WireError::Unavailable)
    }

    /// The primary ack ladder for one validated mutation (DESIGN § 14):
    /// WAL-log and group-commit `record` when durable, apply it, then ship
    /// it through `sink` and wait for the follower's durable ack. A fenced
    /// node refuses before logging; a failed commit is refused unapplied.
    /// The periodic snapshot check follows every success.
    ///
    /// # Errors
    ///
    /// `StaleEpoch` when fenced (or fenced by this shipment), `Unavailable`
    /// on a failed commit or a dead driver, `BadRequest` when unappliable.
    pub fn submit(
        &mut self,
        record: WalRecord,
        trace: TraceContext,
        sink: Option<&mut dyn ReplicationSink>,
    ) -> Result<ApplyEffect, WireError> {
        if self.cluster.fenced {
            // A deposed primary must not accept writes the promoted
            // follower will never see.
            return Err(WireError::StaleEpoch {
                current: self.cluster.epoch,
            });
        }
        let ladder_started = now_ns();
        let salt = u64::from(self.cluster.partition);
        let mut trace = trace;
        let mut shipment = None;
        if let Some(d) = self.durability.as_mut() {
            let wal_started = now_ns();
            let committed = d.log(&record).and_then(|lsn| d.commit().map(|()| lsn));
            let wal_ns = now_ns().saturating_sub(wal_started);
            self.wal_commit_ns.record(wal_ns);
            tracestore().record(trace, SpanKind::WalCommit, salt, wal_started, wal_ns);
            trace = trace.child(SpanKind::WalCommit, salt);
            let Ok(lsn) = committed else {
                return Err(WireError::Unavailable);
            };
            if sink.is_some() {
                shipment = Some((lsn, record.encode()));
            }
        }
        let apply_started = now_ns();
        let outcome = apply_record(&mut self.store, &mut self.driver, record);
        let apply_ns = now_ns().saturating_sub(apply_started);
        self.engine_apply_ns.record(apply_ns);
        tracestore().record(trace, SpanKind::EngineApply, salt, apply_started, apply_ns);
        trace = trace.child(SpanKind::EngineApply, salt);
        let effect = outcome.map_err(|why| {
            if self.driver.is_dead() {
                WireError::Unavailable
            } else {
                WireError::BadRequest(why)
            }
        })?;
        if let (Some((lsn, payload)), Some(sink)) = (shipment, sink) {
            self.replicate(sink, lsn, payload, trace)?;
        }
        self.repl_obs
            .ack_ladder_ns
            .record(now_ns().saturating_sub(ladder_started));
        if let Some(d) = self.durability.as_mut() {
            d.maybe_snapshot(&self.store, &self.driver);
        }
        Ok(effect)
    }

    /// Ship one committed record and block for the follower's durable
    /// ack; an LSN gap falls back to snapshot-transfer catch-up.
    fn replicate(
        &mut self,
        sink: &mut dyn ReplicationSink,
        lsn: u64,
        payload: Bytes,
        trace: TraceContext,
    ) -> Result<(), WireError> {
        let salt = u64::from(self.cluster.partition);
        let ship_started = now_ns();
        // The follower parents its spans on our replicate span — whose id
        // is derived, so it can ride the wire before the span is timed.
        let answer = sink.replicate(
            self.cluster.epoch,
            trace.child(SpanKind::Replicate, salt),
            &[(lsn, payload)],
        );
        let ship_ns = now_ns().saturating_sub(ship_started);
        self.repl_obs.ship_ns.record(ship_ns);
        tracestore().record(trace, SpanKind::Replicate, salt, ship_started, ship_ns);
        match answer {
            Err(ReplicateError::LsnGap { .. }) => self.catch_up_follower(sink),
            answer => {
                if answer.is_ok() {
                    self.repl_obs.shipped_total.inc();
                }
                self.settle(answer)
            }
        }
    }

    /// Snapshot-transfer catch-up: ship the full post-apply image, which
    /// already holds any record whose shipment found a gap. Also how a
    /// rejoining node is rebuilt.
    ///
    /// # Errors
    ///
    /// `StaleEpoch` when the follower holds a newer epoch (this node is
    /// fenced from then on).
    pub fn catch_up_follower(&mut self, sink: &mut dyn ReplicationSink) -> Result<(), WireError> {
        if self.durability.is_none() {
            return Ok(());
        }
        let image = self.image();
        self.repl_obs.snapshots_shipped_total.inc();
        let answer = sink.install(self.cluster.epoch, image);
        self.settle(answer)
    }

    /// Act on the follower's answer: an ack clears degraded mode, an
    /// epoch refusal fences this deposed node, and anything else degrades
    /// the partition to local-durable acks rather than stalling it.
    fn settle(&mut self, answer: Result<u64, ReplicateError>) -> Result<(), WireError> {
        match answer {
            Ok(follower_next) => {
                self.set_degraded(false);
                let lag = self.next_lsn().saturating_sub(follower_next);
                self.repl_obs.lag_records.set(gauge(lag));
                Ok(())
            }
            Err(ReplicateError::Fenced { current }) => {
                self.cluster.fenced = true;
                self.repl_obs.fenced_total.inc();
                Err(WireError::StaleEpoch { current })
            }
            Err(_) => {
                self.set_degraded(true);
                Ok(())
            }
        }
    }

    /// Flip the partition's degraded state everywhere it is visible at
    /// once: the cluster state, the transition counter, the gauge twin,
    /// and the process `/readyz` bit.
    fn set_degraded(&mut self, degraded: bool) {
        if degraded && !self.cluster.degraded {
            self.repl_obs.degraded_total.inc();
        }
        self.cluster.degraded = degraded;
        self.repl_obs.degraded.set(i64::from(degraded));
        readiness().set(UNREADY_DEGRADED, degraded);
    }

    /// Follower side of `ReplAppend`: admit the sender, then log, commit
    /// and apply the batch through [`replica_append`]; returns `next_lsn`.
    ///
    /// # Errors
    ///
    /// Admission refusals, `BadRequest` on a non-follower or a node
    /// without durability, and [`replica_append`]'s errors.
    pub fn append_replica(
        &mut self,
        partition: u16,
        epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, WireError> {
        self.admit_follower(partition, epoch, "replication append to a non-follower")?;
        let Some(d) = self.durability.as_mut() else {
            return Err(WireError::BadRequest(
                "follower is running without a data directory".into(),
            ));
        };
        let durable_lsn = replica_append(d, &mut self.store, &mut self.driver, trace, entries)?;
        d.maybe_snapshot(&self.store, &self.driver);
        Ok(durable_lsn)
    }

    /// Follower side of `InstallSnapshot`: rebuild from a shipped image,
    /// `/readyz` reporting `catching_up` meanwhile; returns `next_lsn`.
    ///
    /// # Errors
    ///
    /// As [`Node::append_replica`], and [`install_snapshot_on`]'s errors.
    pub fn install_snapshot(
        &mut self,
        partition: u16,
        epoch: u64,
        snapshot: Bytes,
    ) -> Result<u64, WireError> {
        self.admit_follower(partition, epoch, "snapshot install on a non-follower")?;
        let Some(setup) = self.replica.as_ref() else {
            return Err(WireError::BadRequest(
                "follower is running without replica setup".into(),
            ));
        };
        readiness().set(UNREADY_CATCHING_UP, true);
        let installed = install_snapshot_on(setup, snapshot);
        readiness().set(UNREADY_CATCHING_UP, false);
        let (store, driver, durability) = installed?;
        let next_lsn = durability.next_lsn();
        self.store = store;
        self.driver = driver;
        self.durability = Some(durability);
        Ok(next_lsn)
    }

    fn admit_follower(&self, partition: u16, epoch: u64, not: &str) -> Result<(), WireError> {
        self.cluster.admit(partition, epoch)?;
        if self.cluster.role != NodeRole::Follower {
            return Err(WireError::BadRequest(not.into()));
        }
        Ok(())
    }

    /// Promote this node to primary (see [`ClusterState::promote`]); it
    /// serves degraded until a follower is enrolled, and `/readyz` says so.
    ///
    /// # Errors
    ///
    /// As [`ClusterState::promote`].
    pub fn promote(&mut self, partition: u16, epoch: u64) -> Result<(), WireError> {
        let was_primary = self.cluster.role == NodeRole::Primary;
        self.cluster.promote(partition, epoch)?;
        if !was_primary {
            self.repl_obs.promotions_total.inc();
        }
        self.repl_obs.epoch.set(gauge(self.cluster.epoch));
        self.repl_obs.degraded.set(i64::from(self.cluster.degraded));
        readiness().set(UNREADY_DEGRADED, self.cluster.degraded);
        Ok(())
    }

    /// Re-enroll a fenced ex-primary as its partition's follower at
    /// `epoch`. Its log diverged (it logged writes nobody acked), so the
    /// primary must rebuild it with [`Node::catch_up_follower`] before it
    /// takes appends.
    pub fn enroll_follower(&mut self, epoch: u64) {
        self.cluster = ClusterState::follower(self.cluster.partition, epoch);
        self.repl_obs.epoch.set(gauge(epoch));
    }
}

/// A `u64` as a gauge value, saturating.
fn gauge(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adcast_ads::{AdSubmission, Budget, Targeting};
    use adcast_core::EngineConfig;
    use adcast_durability::wal::list_segment_lsns_on;
    use adcast_durability::{
        fs_backend, DurabilityOptions, RecoveryReport, StorageBackend, WalOptions, WalWriter,
    };
    use adcast_feed::FeedDelta;
    use adcast_stream::event::{Message, MessageId};
    use adcast_text::dictionary::TermId;
    use adcast_text::SparseVector;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A durable node on a fresh data directory, able to take installs.
    fn node(cluster: ClusterState) -> (Node, Arc<dyn StorageBackend>) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("adcast-node-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let backend = fs_backend(&dir);
        let wal = WalWriter::create_on(Arc::clone(&backend), WalOptions::default(), 0).unwrap();
        let options = DurabilityOptions::default();
        let report = RecoveryReport::default();
        let durability = Durability::new_on(Arc::clone(&backend), wal, options, report);
        let engine = EngineConfig {
            half_life: None,
            ..EngineConfig::default()
        };
        let driver = ShardedDriver::new(8, 1, engine.clone());
        let setup = ReplicaSetup {
            backend: Arc::clone(&backend),
            options,
            engine,
        };
        let node = Node::new(
            AdStore::new(),
            driver,
            Some(durability),
            cluster,
            Some(setup),
        );
        (node, backend)
    }

    fn submit_record(term: u32) -> WalRecord {
        WalRecord::Submit(AdSubmission {
            vector: SparseVector::from_pairs([(TermId(term), 1.0)]),
            bid: 1.0,
            targeting: Targeting::everywhere(),
            budget: Budget::unlimited(),
            topic_hint: None,
        })
    }

    fn delta_record(user: u32, secs: u64) -> WalRecord {
        WalRecord::IngestBatch(vec![(
            UserId(user),
            FeedDelta {
                entered: Some(std::sync::Arc::new(Message {
                    id: MessageId(secs),
                    author: UserId(0),
                    ts: Timestamp::from_secs(secs),
                    location: LocationId(0),
                    vector: SparseVector::from_pairs([(TermId(1), 1.0)]),
                })),
                evicted: vec![],
            },
        )])
    }

    #[test]
    fn follower_append_is_hot_standby_and_lsn_strict() {
        let (mut follower, _) = node(ClusterState::follower(0, 0));
        let records = [submit_record(1), delta_record(0, 1), delta_record(1, 2)];
        let entries: Vec<(u64, Bytes)> = (0..).zip(records.iter().map(WalRecord::encode)).collect();
        assert_eq!(
            follower.append_replica(0, 0, TraceContext::NONE, &entries),
            Ok(3)
        );
        // Applied, not just logged: the campaign is live.
        assert!(follower.store().campaign(adcast_ads::AdId(0)).is_some());
        // A gap is refused wholesale — nothing logged, nothing applied.
        let gap = [(7, submit_record(2).encode())];
        let refused = follower.append_replica(0, 0, TraceContext::NONE, &gap);
        assert_eq!(refused, Err(WireError::LsnGap { expected: 3 }));
        assert_eq!(follower.next_lsn(), 3);
    }

    #[test]
    fn snapshot_install_rebuilds_byte_identical_state() {
        let (mut primary, _) = node(ClusterState::primary(0, 0));
        for record in [submit_record(1), delta_record(2, 5)] {
            primary.submit(record, TraceContext::NONE, None).unwrap();
        }
        // The follower's diverged local WAL gets wiped by the install.
        let (mut follower, backend) = node(ClusterState::follower(0, 0));
        let stale = [(0, submit_record(9).encode())];
        follower
            .append_replica(0, 0, TraceContext::NONE, &stale)
            .unwrap();
        assert_eq!(follower.install_snapshot(0, 0, primary.image()), Ok(2));
        assert_eq!(
            follower.image(),
            primary.image(),
            "installed state is byte-identical"
        );
        // Nothing below the snapshot survives.
        let segments = list_segment_lsns_on(&*backend).unwrap();
        assert!(segments.iter().all(|&base| base >= 2), "{segments:?}");
        // A corrupt image is refused without side effects.
        let corrupt = follower.install_snapshot(0, 0, Bytes::from_static(b"not a snapshot"));
        assert!(
            matches!(corrupt, Err(WireError::BadRequest(_))),
            "{corrupt:?}"
        );
        assert_eq!(follower.image(), primary.image());
    }

    /// A follower stand-in: answers every shipment with one scripted
    /// outcome and keeps what it was sent.
    struct Scripted {
        answer: Result<u64, ReplicateError>,
        shipped: usize,
        installed: Vec<Bytes>,
    }

    impl ReplicationSink for Scripted {
        fn replicate(
            &mut self,
            _: u64,
            _: TraceContext,
            entries: &[(u64, Bytes)],
        ) -> Result<u64, ReplicateError> {
            self.shipped += entries.len();
            self.answer
        }

        fn install(&mut self, _: u64, snapshot: Bytes) -> Result<u64, ReplicateError> {
            self.installed.push(snapshot);
            Ok(0)
        }
    }

    /// Every way a follower can answer a shipment, and what the primary
    /// must do about it. One test, run in order: the `/readyz` mask is
    /// process-wide.
    #[test]
    fn submit_decision_table() {
        use ReplicateError::{Fenced, LsnGap, Unreachable};
        let answers = [
            Ok(0),
            Err(Unreachable),
            Err(LsnGap { expected: 0 }),
            Err(Fenced { current: 9 }),
        ];
        for (i, answer) in answers.into_iter().enumerate() {
            // A partition per case keeps each case's gauges its own; every
            // case starts degraded, so an ack has something to clear.
            let mut cluster = ClusterState::primary(900 + i as u16, 3);
            cluster.degraded = true;
            let (mut node, _) = node(cluster);
            let mut sink = Scripted {
                answer,
                shipped: 0,
                installed: Vec::new(),
            };
            let acked = node.submit(submit_record(1), TraceContext::NONE, Some(&mut sink));
            let (degraded, readyz) = (
                node.cluster().degraded,
                readiness().mask() & UNREADY_DEGRADED,
            );
            match answer {
                Ok(_) => {
                    assert!(acked.is_ok(), "{acked:?}");
                    // The primary is at lsn 1, the follower acked through 0.
                    assert_eq!(node.repl_obs.lag_records.get(), 1);
                    assert!(!degraded && readyz == 0);
                    assert_eq!(node.repl_obs.degraded.get(), 0);
                }
                Err(Unreachable) => {
                    // Acked local-durable: the partition keeps serving.
                    assert!(acked.is_ok(), "{acked:?}");
                    assert!(degraded && readyz != 0);
                    assert_eq!(node.repl_obs.degraded.get(), 1);
                }
                Err(LsnGap { .. }) => {
                    assert!(acked.is_ok(), "{acked:?}");
                    // A post-apply image: it holds the record that found the gap.
                    assert_eq!(node.next_lsn(), 1);
                    assert_eq!(sink.installed, [node.image()]);
                    assert!(!degraded);
                }
                Err(_) => {
                    assert!(matches!(acked, Err(WireError::StaleEpoch { current: 9 })));
                    assert!(node.cluster().fenced);
                    // The next write is refused before it is logged.
                    let again = node.submit(submit_record(2), TraceContext::NONE, Some(&mut sink));
                    assert!(matches!(again, Err(WireError::StaleEpoch { current: 3 })));
                    assert_eq!((node.next_lsn(), sink.shipped), (1, 1));
                }
            }
        }
    }
}

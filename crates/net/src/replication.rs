//! Primary/backup WAL replication core (transport-free): the cluster
//! state, the follower's append and snapshot install, and the sink
//! contract the primary ships through. [`crate::node::Node`] drives all
//! of it, for the server and the simulation harness alike; the TCP sink
//! lives in `adcast-cluster`.
//!
//! **Epoch fencing.** Every routed frame and replication RPC carries the
//! sender's epoch; any mismatch with the node's own epoch is refused
//! with the typed [`WireError::StaleEpoch`] carrying the node's current
//! epoch. Promotion bumps the follower's epoch, so a deposed primary's
//! next `ReplAppend` is refused — it fences itself and stops acking.
//!
//! **LSN alignment.** The follower's own WAL assigns LSNs sequentially;
//! [`replica_append`] refuses a batch that does not continue the local
//! sequence with [`WireError::LsnGap`], and the primary falls back to
//! [`install_snapshot_on`] — full-state transfer that also serves
//! rejoining or rebalanced nodes. The follower logs **and applies** every
//! record through [`apply_record`], so it is a hot standby: promotion is
//! an epoch bump, not a replay.

use std::sync::Arc;

use adcast_ads::AdStore;
use adcast_core::{EngineConfig, ShardedDriver};
use adcast_durability::recovery::RecoveryReport;
use adcast_durability::snapshot::{prune_on, write_snapshot_atomic_on};
use adcast_durability::wal::{list_segment_lsns_on, segment_file_name};
use adcast_durability::{
    apply_record, Durability, DurabilityOptions, EngineSetSnapshot, StorageBackend, WalRecord,
    WalWriter,
};
use adcast_obs::tracestore::{tracestore, SpanKind, TraceContext};
use adcast_obs::{Counter, Gauge, Hist};
use adcast_stream::clock::now_ns;
use adcast_stream::trace::TraceError;
use bytes::Bytes;

use crate::protocol::{NodeRole, WireError};

/// A node's view of its own place in the cluster. The engine thread owns
/// it; the router is the epoch authority and changes it only through the
/// `Promote` RPC.
#[derive(Debug, Clone)]
pub struct ClusterState {
    /// Current role.
    pub role: NodeRole,
    /// Partition this node owns (primary) or mirrors (follower).
    pub partition: u16,
    /// Epoch this node holds; bumped by promotion.
    pub epoch: u64,
    /// A fenced stale primary refuses all writes until re-enrolled.
    pub fenced: bool,
    /// Primary whose follower is unreachable: acks are local-durable
    /// only until the follower answers again.
    pub degraded: bool,
}

impl Default for ClusterState {
    fn default() -> Self {
        ClusterState::standalone()
    }
}

impl ClusterState {
    /// Not in a cluster (the default for `adcast-serve`).
    #[must_use]
    pub fn standalone() -> ClusterState {
        ClusterState {
            role: NodeRole::Standalone,
            partition: 0,
            epoch: 0,
            fenced: false,
            degraded: false,
        }
    }

    /// A partition primary at `epoch`.
    #[must_use]
    pub fn primary(partition: u16, epoch: u64) -> ClusterState {
        ClusterState {
            role: NodeRole::Primary,
            partition,
            epoch,
            fenced: false,
            degraded: false,
        }
    }

    /// A partition follower at `epoch`.
    #[must_use]
    pub fn follower(partition: u16, epoch: u64) -> ClusterState {
        ClusterState {
            role: NodeRole::Follower,
            partition,
            epoch,
            fenced: false,
            degraded: false,
        }
    }

    /// Admission check for a `Routed` client envelope or a replication
    /// RPC: partition must match and epoch must be current (a fenced
    /// node refuses regardless).
    ///
    /// # Errors
    ///
    /// [`WireError::WrongPartition`] / [`WireError::StaleEpoch`].
    pub fn admit(&self, partition: u16, epoch: u64) -> Result<(), WireError> {
        if partition != self.partition {
            return Err(WireError::WrongPartition {
                expected: self.partition,
            });
        }
        if epoch != self.epoch || self.fenced {
            return Err(WireError::StaleEpoch {
                current: self.epoch,
            });
        }
        Ok(())
    }

    /// Become primary of `partition` under a strictly higher epoch.
    /// Idempotent: re-promoting an already-primary node at the epoch it
    /// holds is a no-op success, so the router can safely retry.
    ///
    /// # Errors
    ///
    /// [`WireError::WrongPartition`] when the partition is not this
    /// node's; [`WireError::StaleEpoch`] when `epoch` does not exceed the
    /// held one (except the idempotent re-promote above).
    pub fn promote(&mut self, partition: u16, epoch: u64) -> Result<(), WireError> {
        if partition != self.partition {
            return Err(WireError::WrongPartition {
                expected: self.partition,
            });
        }
        if epoch == self.epoch && self.role == NodeRole::Primary && !self.fenced {
            return Ok(());
        }
        if epoch <= self.epoch {
            return Err(WireError::StaleEpoch {
                current: self.epoch,
            });
        }
        self.epoch = epoch;
        self.role = NodeRole::Primary;
        self.fenced = false;
        // A freshly promoted primary has no follower of its own yet; it
        // serves degraded (local-durable acks) until one is enrolled.
        self.degraded = true;
        Ok(())
    }
}

/// Follower side of `ReplAppend`: check LSN continuity, decode, log,
/// group-commit (one fsync for the batch), then apply every record
/// through the shared [`apply_record`] path — the hot-standby discipline
/// that makes promotion instant. Returns the new highest durable LSN
/// count (`next_lsn` after the batch).
///
/// All-or-nothing: continuity and decode are checked for the whole batch
/// before the first byte is logged, so a refused batch leaves no partial
/// state.
///
/// A sampled `trace` (parented on the node-local queue-wait span) records
/// the follower half of the ack ladder — a `follower_commit` span over the
/// log + group-commit and a `follower_apply` span over the apply loop —
/// into the process-wide [`tracestore`].
///
/// # Errors
///
/// The refusal the primary is answered with: [`WireError::LsnGap`] (fall
/// back to snapshot transfer), [`WireError::BadRequest`] for a corrupt
/// payload, [`WireError::Unavailable`] when the local WAL fails or a
/// committed record does not apply (the replica has diverged).
pub fn replica_append(
    durability: &mut Durability,
    store: &mut AdStore,
    driver: &mut ShardedDriver,
    trace: TraceContext,
    entries: &[(u64, Bytes)],
) -> Result<u64, WireError> {
    let mut records = Vec::with_capacity(entries.len());
    for (expected, (lsn, payload)) in (durability.next_lsn()..).zip(entries.iter()) {
        if *lsn != expected {
            return Err(WireError::LsnGap {
                expected: durability.next_lsn(),
            });
        }
        records.push(WalRecord::decode(payload.clone()).map_err(corrupt)?);
    }
    let salt = 0;
    let commit_started = now_ns();
    for record in &records {
        durability.log(record).map_err(unavailable)?;
    }
    durability.commit().map_err(unavailable)?;
    tracestore().record(
        trace,
        SpanKind::FollowerCommit,
        salt,
        commit_started,
        now_ns().saturating_sub(commit_started),
    );
    let trace = trace.child(SpanKind::FollowerCommit, salt);
    let apply_started = now_ns();
    for record in records {
        apply_record(store, driver, record).map_err(unavailable)?;
    }
    tracestore().record(
        trace,
        SpanKind::FollowerApply,
        salt,
        apply_started,
        now_ns().saturating_sub(apply_started),
    );
    Ok(durability.next_lsn())
}

fn corrupt(e: TraceError) -> WireError {
    WireError::BadRequest(format!("corrupt payload: {e}"))
}

/// A local failure the primary can only retry or route around.
fn unavailable<E>(_: E) -> WireError {
    WireError::Unavailable
}

/// Everything a replica-enabled node needs to rebuild itself from a
/// shipped snapshot: its storage backend, durability knobs, and the
/// engine configuration (topology comes from the snapshot itself).
pub struct ReplicaSetup {
    /// The node's storage backend (data directory or simulated disk).
    pub backend: Arc<dyn StorageBackend>,
    /// WAL/snapshot knobs for the rebuilt [`Durability`].
    pub options: DurabilityOptions,
    /// Engine configuration for the rebuilt driver (must match the
    /// primary's, or recommendations diverge).
    pub engine: EngineConfig,
}

/// Install a shipped [`EngineSetSnapshot`] wholesale: persist the image,
/// discard the local WAL, and rebuild `(store, driver, durability)` with
/// the WAL restarting at the snapshot's `next_lsn`. The image is made
/// durable *before* the old WAL is removed, so a crash anywhere in
/// between recovers to either the old state or the new — never neither.
///
/// # Errors
///
/// [`WireError::BadRequest`] when the image does not decode or validate,
/// [`WireError::Unavailable`] when file management fails; either way the
/// previous on-disk state stays recoverable.
pub fn install_snapshot_on(
    setup: &ReplicaSetup,
    snapshot: Bytes,
) -> Result<(AdStore, ShardedDriver, Durability), WireError> {
    let decoded = EngineSetSnapshot::decode(snapshot.clone()).map_err(corrupt)?;
    let next_lsn = decoded.next_lsn;
    let store = AdStore::from_snapshot(decoded.store).map_err(WireError::BadRequest)?;
    let mut driver = ShardedDriver::new(
        decoded.num_users,
        decoded.num_shards as usize,
        setup.engine.clone(),
    );
    driver
        .restore_snapshots(&decoded.engines)
        .map_err(WireError::BadRequest)?;
    write_snapshot_atomic_on(&*setup.backend, next_lsn, &snapshot).map_err(unavailable)?;
    // Pruning failures only waste disk; the install itself is durable.
    let _ = prune_on(
        &*setup.backend,
        next_lsn,
        setup.options.keep_snapshots.max(1),
    );
    for base in list_segment_lsns_on(&*setup.backend).map_err(unavailable)? {
        setup
            .backend
            .remove(&segment_file_name(base))
            .map_err(unavailable)?;
    }
    let wal = WalWriter::create_on(Arc::clone(&setup.backend), setup.options.wal, next_lsn)
        .map_err(unavailable)?;
    let report = RecoveryReport {
        snapshot_lsn: Some(next_lsn),
        ..RecoveryReport::default()
    };
    let durability = Durability::new_on(Arc::clone(&setup.backend), wal, setup.options, report);
    Ok((store, driver, durability))
}

/// Why the primary's shipping attempt failed, as reported by a
/// [`ReplicationSink`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ReplicateError {
    /// The follower holds a higher epoch: this primary is deposed and
    /// must fence itself.
    Fenced {
        /// Epoch the follower holds.
        current: u64,
    },
    /// The follower's WAL is not at the shipped LSN; fall back to
    /// snapshot transfer.
    LsnGap {
        /// LSN the follower expected.
        expected: u64,
    },
    /// The follower did not answer (connect/RPC failures after the
    /// sink's own retries): enter degraded mode.
    Unreachable,
}

impl std::fmt::Display for ReplicateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicateError::Fenced { current } => {
                write!(f, "fenced by follower at epoch {current}")
            }
            ReplicateError::LsnGap { expected } => {
                write!(f, "follower expects lsn {expected}")
            }
            ReplicateError::Unreachable => write!(f, "follower unreachable"),
        }
    }
}

impl std::error::Error for ReplicateError {}

/// The primary's outbound replication transport. `adcast-cluster`
/// provides the TCP implementation; tests and the simulation harness
/// substitute in-process ones.
pub trait ReplicationSink: Send {
    /// Ship `(lsn, encoded record)` pairs under `epoch`; block until the
    /// follower acks them durable. Returns the follower's `next_lsn`.
    /// `trace` is the context the follower records its spans under
    /// (parented on the primary's `replicate` span); pass
    /// [`TraceContext::NONE`] when unsampled.
    ///
    /// # Errors
    ///
    /// [`ReplicateError`] — see its variants.
    fn replicate(
        &mut self,
        epoch: u64,
        trace: TraceContext,
        entries: &[(u64, Bytes)],
    ) -> Result<u64, ReplicateError>;

    /// Ship a full snapshot image for catch-up; block until installed.
    /// Returns the follower's `next_lsn` after the install.
    ///
    /// # Errors
    ///
    /// [`ReplicateError`] — see its variants.
    fn install(&mut self, epoch: u64, snapshot: Bytes) -> Result<u64, ReplicateError>;
}

/// Handles into the process-wide metrics registry for the replication
/// layer (primary and follower sides both feed it). Every family carries
/// a `partition` label so the router's federated scrape can tell the
/// partitions of one process-group apart.
#[derive(Clone)]
pub struct ReplObs {
    /// Records shipped to the follower (primary side).
    pub shipped_total: Counter,
    /// Replication lag in records: primary `next_lsn` minus the
    /// follower's last durable ack.
    pub lag_records: Gauge,
    /// Transitions into degraded (follower-unreachable) mode.
    pub degraded_total: Counter,
    /// Times this node fenced itself after a stale-epoch refusal.
    pub fenced_total: Counter,
    /// Full-snapshot catch-up transfers initiated.
    pub snapshots_shipped_total: Counter,
    /// Promotions this node accepted (follower → primary).
    pub promotions_total: Counter,
    /// Primary-side ship time per mutating RPC (RPC round trip to the
    /// follower's durable ack).
    pub ship_ns: Hist,
    /// The epoch this node currently holds (health: a lagging epoch means
    /// a deposed node still serving).
    pub epoch: Gauge,
    /// 1 while the partition is degraded (single-node-durable acks), else
    /// 0 — the gauge twin of the `/readyz` `degraded` bit.
    pub degraded: Gauge,
    /// Full ack-ladder time per mutating RPC on the primary: WAL log +
    /// commit + apply + replicate round trip (DESIGN § 14).
    pub ack_ladder_ns: Hist,
}

impl ReplObs {
    /// Register (or re-resolve) the replication families for `partition`.
    #[must_use]
    pub fn resolve(partition: u16) -> ReplObs {
        let reg = adcast_obs::registry();
        let p = partition.to_string();
        let labels: &[(&str, &str)] = &[("partition", &p)];
        ReplObs {
            shipped_total: reg.counter_with(
                "adcast_repl_shipped_total",
                "WAL records shipped to the follower.",
                labels,
            ),
            lag_records: reg.gauge_with(
                "adcast_repl_lag_records",
                "Replication lag: primary next_lsn minus follower durable ack.",
                labels,
            ),
            degraded_total: reg.counter_with(
                "adcast_repl_degraded_total",
                "Transitions into degraded (follower-unreachable) mode.",
                labels,
            ),
            fenced_total: reg.counter_with(
                "adcast_repl_fenced_total",
                "Times this node fenced itself after a stale-epoch refusal.",
                labels,
            ),
            snapshots_shipped_total: reg.counter_with(
                "adcast_repl_snapshots_shipped_total",
                "Full-snapshot catch-up transfers initiated.",
                labels,
            ),
            promotions_total: reg.counter_with(
                "adcast_repl_promotions_total",
                "Promotions accepted (follower became primary).",
                labels,
            ),
            ship_ns: reg.hist_with(
                "adcast_repl_ship_ns",
                "Primary-side replication round trip per mutating RPC.",
                labels,
            ),
            epoch: reg.gauge_with(
                "adcast_repl_epoch",
                "Cluster epoch this node currently holds.",
                labels,
            ),
            degraded: reg.gauge_with(
                "adcast_repl_degraded",
                "1 while this partition acks single-node-durable only.",
                labels,
            ),
            ack_ladder_ns: reg.hist_with(
                "adcast_repl_ack_ladder_ns",
                "Full primary ack ladder per mutating RPC: log, commit, apply, replicate ack.",
                labels,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_checks_partition_epoch_and_fence() {
        let mut state = ClusterState::primary(2, 5);
        assert!(state.admit(2, 5).is_ok());
        assert!(matches!(
            state.admit(1, 5),
            Err(WireError::WrongPartition { expected: 2 })
        ));
        assert!(matches!(
            state.admit(2, 4),
            Err(WireError::StaleEpoch { current: 5 })
        ));
        state.fenced = true;
        assert!(matches!(
            state.admit(2, 5),
            Err(WireError::StaleEpoch { current: 5 })
        ));
    }

    #[test]
    fn promote_bumps_epoch_and_is_idempotent() {
        let mut state = ClusterState::follower(1, 3);
        assert!(matches!(
            state.promote(1, 3),
            Err(WireError::StaleEpoch { current: 3 })
        ));
        state.promote(1, 4).unwrap();
        assert_eq!(state.role, NodeRole::Primary);
        assert_eq!(state.epoch, 4);
        assert!(state.degraded, "fresh primary has no follower yet");
        // Retrying the same promotion is a success, not a StaleEpoch.
        state.promote(1, 4).unwrap();
        assert!(matches!(
            state.promote(2, 5),
            Err(WireError::WrongPartition { expected: 1 })
        ));
    }
}

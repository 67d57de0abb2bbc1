//! Workload definitions and the seeded inputs every phase replays.
//!
//! The feed is one `adcast_net::synth` stream (social graph → posts →
//! push delivery). Users are split over the two client connections by
//! bit 1 of their id, so each connection's frames still span both engine
//! shards and both cluster partitions (those split on bit 0), and every
//! user's deltas travel, in order, on exactly one connection.

use adcast_core::EngineConfig;
use adcast_feed::FeedDelta;
use adcast_graph::UserId;
use adcast_net::synth::{self, SynthConfig};
use adcast_net::CampaignSpec;
use adcast_stream::clock::Timestamp;
use adcast_stream::event::LocationId;

use crate::util::Rng;

/// Users in the graph.
pub const USERS: u32 = 4_000;
/// Campaigns submitted during set-up.
pub const CAMPAIGNS: usize = 2_000;
/// Engine shards per node.
pub const SHARDS: usize = 2;
/// Client connections (the machine has 2 cores).
pub const CONNS: usize = 2;
/// Users whose every answer is checked against the in-process twin.
pub const SAMPLED_USERS: usize = 64;

/// A delta with its user.
pub type Delta = (UserId, FeedDelta);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    IngestHeavy,
    RoutedReplicated,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest-heavy" => Some(Workload::IngestHeavy),
            "routed-replicated" => Some(Workload::RoutedReplicated),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestHeavy => "ingest-heavy",
            Workload::RoutedReplicated => "routed-replicated",
        }
    }

    /// Deltas per Ingest RPC.
    pub fn frame_deltas(self) -> usize {
        match self {
            Workload::IngestHeavy => 500,
            Workload::RoutedReplicated => 500,
        }
    }

    /// Closed loop: one Recommend after every this many Ingest RPCs.
    pub fn recommend_every(self) -> usize {
        match self {
            Workload::IngestHeavy => 8,
            Workload::RoutedReplicated => 4,
        }
    }
}

/// Deltas the stream holds per second of the run: room for a server
/// twice as fast as today's.
const STREAM_DELTAS_PER_SECOND: usize = 70_000;

/// Everything the servers receive, generated from the seed.
pub struct Inputs {
    pub campaigns: Vec<CampaignSpec>,
    pub homes: Vec<LocationId>,
    /// Serve-time "now" for every Recommend.
    pub now: Timestamp,
    /// Top-k requested by every Recommend.
    pub k: u16,
    /// Per connection: its Ingest frames in send order.
    pub frames: Vec<Vec<Vec<Delta>>>,
    /// Per connection: the users it owns.
    pub users: Vec<Vec<UserId>>,
    /// Users checked against the twin, sorted.
    pub sampled: Vec<UserId>,
}

/// Which connection owns `user`.
pub fn conn_of(user: UserId) -> usize {
    (user.index() >> 1) % CONNS
}

/// Generate the inputs of `workload` for a `seconds`-long run.
pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Inputs {
    let want = STREAM_DELTAS_PER_SECOND * seconds as usize;
    // About 11 deltas per post at this graph size; 9 keeps a margin.
    let messages = (want / 9 + 1) as u64;
    let stream = synth::build(&SynthConfig {
        num_users: USERS,
        num_ads: CAMPAIGNS,
        messages,
        batch_size: 4096,
        msgs_per_sec: 200.0,
        seed,
    });
    let mut per_conn: Vec<Vec<Delta>> = vec![Vec::new(); CONNS];
    for d in stream.batches.into_iter().flatten() {
        per_conn[conn_of(d.0)].push(d);
    }
    let frame = workload.frame_deltas();
    let frames = per_conn
        .into_iter()
        .map(|all| {
            let mut out = Vec::with_capacity(all.len() / frame + 1);
            let mut current = Vec::with_capacity(frame);
            for d in all {
                current.push(d);
                if current.len() == frame {
                    out.push(std::mem::replace(&mut current, Vec::with_capacity(frame)));
                }
            }
            if !current.is_empty() {
                out.push(current);
            }
            out
        })
        .collect();
    let mut users = vec![Vec::new(); CONNS];
    for u in 0..USERS {
        users[conn_of(UserId(u))].push(UserId(u));
    }
    let mut rng = Rng::new(seed, 0x5A);
    let mut sampled: Vec<UserId> = Vec::with_capacity(SAMPLED_USERS);
    while sampled.len() < SAMPLED_USERS {
        let u = UserId(rng.below(u64::from(USERS)) as u32);
        if !sampled.contains(&u) {
            sampled.push(u);
        }
    }
    sampled.sort_unstable();
    Inputs {
        campaigns: stream.campaigns,
        homes: stream.homes,
        now: stream.end_time,
        k: u16::try_from(EngineConfig::default().k).unwrap_or(u16::MAX),
        frames,
        users,
        sampled,
    }
}

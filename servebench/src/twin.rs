//! The in-process twin: `ShardedDriver` + `apply_record` fed the same
//! records the servers acknowledged, restricted to the sampled users.
//!
//! A user's engine state depends only on that user's own deltas and
//! Recommends (a Recommend may refresh the user's buffer), so replaying
//! just the sampled users' events, in each connection's order, rebuilds
//! their state exactly. Every answer a server gave a sampled user must
//! then be bit-identical to the twin's.

use adcast_ads::{AdId, AdStore};
use adcast_core::{EngineConfig, Recommendation, ShardedDriver};
use adcast_durability::{apply_record, ApplyEffect, WalRecord};
use adcast_graph::UserId;

use crate::inputs::{Delta, Inputs, SHARDS, USERS};

/// One step a client connection took, as far as the twin cares.
pub enum Event {
    /// `Inputs::frames[conn][frame]` was acknowledged.
    Ingest { conn: usize, frame: usize },
    /// A sampled user was served `served`.
    Recommend {
        user: UserId,
        served: Vec<Recommendation>,
    },
}

pub struct Twin {
    store: AdStore,
    driver: ShardedDriver,
}

impl Twin {
    /// Submit every campaign, checking the ids the servers assigned.
    pub fn new(inputs: &Inputs) -> Result<Twin, String> {
        let mut store = AdStore::new();
        let mut driver = ShardedDriver::new(USERS, SHARDS, EngineConfig::default());
        for (i, spec) in inputs.campaigns.iter().enumerate() {
            let sub = spec.clone().try_into_submission()?;
            match apply_record(&mut store, &mut driver, WalRecord::Submit(sub))? {
                ApplyEffect::Submitted { ad } if ad == AdId(i as u32) => {}
                other => return Err(format!("twin submit {i}: unexpected {other:?}")),
            }
        }
        Ok(Twin { store, driver })
    }

    fn ingest(&mut self, inputs: &Inputs, deltas: &[Delta]) -> Result<(), String> {
        let mine: Vec<Delta> = deltas
            .iter()
            .filter(|(u, _)| inputs.sampled.binary_search(u).is_ok())
            .cloned()
            .collect();
        if !mine.is_empty() {
            apply_record(
                &mut self.store,
                &mut self.driver,
                WalRecord::IngestBatch(mine),
            )?;
        }
        Ok(())
    }

    /// Replay `log`. Recommends are replayed (and their answers checked)
    /// only when `recommends` is true; a twin of a node rebuilt from its
    /// WAL skips the ones before the crash, as the WAL does.
    pub fn replay(
        &mut self,
        inputs: &Inputs,
        log: &[Event],
        recommends: bool,
    ) -> Result<u64, String> {
        let mut checked = 0;
        for event in log {
            match event {
                Event::Ingest { conn, frame } => {
                    self.ingest(inputs, &inputs.frames[*conn][*frame])?;
                }
                Event::Recommend { user, served } => {
                    if !recommends {
                        continue;
                    }
                    let local = self.driver.recommend(
                        &self.store,
                        *user,
                        inputs.now,
                        inputs.homes[user.index()],
                        usize::from(inputs.k),
                    );
                    if &local != served {
                        return Err(format!(
                            "user {}: served {} ad(s) {:?}, twin computed {} ad(s) {:?}",
                            user.0,
                            served.len(),
                            served.iter().map(|r| r.ad.0).collect::<Vec<_>>(),
                            local.len(),
                            local.iter().map(|r| r.ad.0).collect::<Vec<_>>()
                        ));
                    }
                    checked += 1;
                }
            }
        }
        Ok(checked)
    }
}

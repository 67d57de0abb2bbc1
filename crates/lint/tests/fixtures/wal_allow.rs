// Fixture: an apply with no preceding commit, silenced by a pragma with a
// reason. Linted under the node.rs rel path; never compiled.

// adcast-lint: allow(wal-ordering) -- fixture: replay path; records here are already durable
fn replay_one(store: &mut AdStore, record: WalRecord) -> Result<(), WireError> {
    apply_record(store, &record).map_err(|_| WireError::Unavailable)
}

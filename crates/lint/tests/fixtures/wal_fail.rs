// Fixture: applying a record to the in-memory store before the WAL commit
// must trip `wal-ordering`. Linted under the node.rs rel path; never
// compiled.

fn submit(d: &mut Durability, store: &mut AdStore, record: WalRecord) -> Result<(), WireError> {
    apply_record(store, &record).map_err(|_| WireError::Unavailable)?;
    d.log(&record).map_err(|_| WireError::Unavailable)?;
    d.commit().map_err(|_| WireError::Unavailable)
}

// Fixture: the correct order — commit before apply — passes without a
// pragma. Linted under the node.rs rel path; never compiled.

fn submit(d: &mut Durability, store: &mut AdStore, record: WalRecord) -> Result<(), WireError> {
    d.log(&record).map_err(|_| WireError::Unavailable)?;
    d.commit().map_err(|_| WireError::Unavailable)?;
    apply_record(store, &record).map_err(|_| WireError::Unavailable)
}

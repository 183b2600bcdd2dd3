//! Fixture: a lock in a deterministic crate.
//! Seeded violation — trips exactly `determinism`.

/// Shared extent table guarded as if another thread could touch it.
pub struct ExtentTable {
    slots: std::sync::Mutex<Vec<u64>>,
}

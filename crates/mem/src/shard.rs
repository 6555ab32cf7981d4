//! Shard-aware I-structure access for parallel engines.
//!
//! A machine with one global structure table serializes every `I-FETCH`
//! and `I-STORE` on that table. The TTDA instead spreads structures over
//! independent storage modules; [`IStructureShard`] is the software
//! analogue: each worker thread owns the shard of structures whose ids
//! hash to it, so operations on different shards proceed with no shared
//! state at all. A shard also maintains its *outstanding deferred read*
//! count incrementally, so the machine-wide figure (for peak-deferred
//! statistics and deadlock detection) is a sum of per-shard counters
//! instead of a walk over every cell.
//!
//! Operations on *distinct* structures commute, so routing each
//! operation to its owning shard loses nothing a sequential run would
//! compute.

use std::collections::HashMap;

use crate::istore::{IStructureError, ReadOutcome};
use crate::module::Addr;
use crate::IStructure;

/// The shard that owns structure `id` when the table is split `shards`
/// ways. Allocation ids are dense (0, 1, 2, …), so plain round-robin
/// already spreads consecutive allocations across shards.
pub fn shard_of(id: u32, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    id as usize % shards
}

/// One worker's slice of the structure table: the structures whose ids
/// hash to this shard, plus an incrementally-maintained count of
/// deferred reads outstanding within the shard.
///
/// Methods that address a structure return `None` when the id does not
/// live in this shard (either never allocated, or a routing bug in the
/// caller); the inner `Result` carries the per-cell errors of
/// [`IStructure`] itself.
#[derive(Debug)]
pub struct IStructureShard<T, R = u64> {
    stores: HashMap<u32, IStructure<T, R>>,
    deferred_outstanding: usize,
}

// Manual impl: the derive would demand `T: Default, R: Default`, which
// an empty shard does not need.
impl<T, R> Default for IStructureShard<T, R> {
    fn default() -> Self {
        IStructureShard::new()
    }
}

impl<T, R> IStructureShard<T, R> {
    /// An empty shard.
    pub fn new() -> Self {
        IStructureShard {
            stores: HashMap::new(),
            deferred_outstanding: 0,
        }
    }

    /// Adds a freshly allocated structure of `size` cells under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already present: allocation ids are unique per
    /// run, so a collision is an engine bug, not a program error.
    pub fn create(&mut self, id: u32, size: usize) {
        let prev = self.stores.insert(id, IStructure::new(size));
        assert!(prev.is_none(), "duplicate i-structure allocation id {id}");
    }

    /// Adds a structure of `size` cells under `id` if it is not already
    /// present. Used by engines that materialize a module's slice of a
    /// structure lazily on first access (the timed machine's memory
    /// modules), where "already created" is the common case, not a bug.
    pub fn ensure(&mut self, id: u32, size: usize) {
        self.stores
            .entry(id)
            .or_insert_with(|| IStructure::new(size));
    }

    /// Shared access to a structure, if this shard owns it.
    pub fn store(&self, id: u32) -> Option<&IStructure<T, R>> {
        self.stores.get(&id)
    }

    /// Number of structures in the shard.
    pub fn len(&self) -> usize {
        self.stores.len()
    }

    /// Whether the shard holds no structures.
    pub fn is_empty(&self) -> bool {
        self.stores.is_empty()
    }

    /// Deferred reads currently parked across the whole shard. This is
    /// maintained incrementally by [`read`](Self::read) /
    /// [`write`](Self::write), so it is O(1).
    pub fn deferred_outstanding(&self) -> usize {
        self.deferred_outstanding
    }
}

impl<T: Clone, R> IStructureShard<T, R> {
    /// Visits every deferred reader parked anywhere in the shard,
    /// structure by structure in no particular order.
    pub fn for_each_deferred(&self, mut f: impl FnMut(&R)) {
        for st in self.stores.values() {
            st.for_each_deferred(&mut f);
        }
    }

    /// Reads `addr` of structure `id` on behalf of `reader`, updating
    /// the shard's outstanding-deferred count when the read parks.
    pub fn read(
        &mut self,
        id: u32,
        addr: Addr,
        reader: R,
    ) -> Option<Result<ReadOutcome<T>, IStructureError>> {
        let r = self.stores.get_mut(&id)?.read(addr, reader);
        if matches!(r, Ok(ReadOutcome::Deferred)) {
            self.deferred_outstanding += 1;
        }
        Some(r)
    }

    /// Writes `value` to `addr` of structure `id`, returning the
    /// released deferred readers (in arrival order) and decrementing the
    /// outstanding-deferred count by as many.
    pub fn write(
        &mut self,
        id: u32,
        addr: Addr,
        value: T,
    ) -> Option<Result<Vec<R>, IStructureError>> {
        let r = self.stores.get_mut(&id)?.write(addr, value);
        if let Ok(released) = &r {
            self.deferred_outstanding -= released.len();
        }
        Some(r)
    }

    /// Streaming variant of [`write`](Self::write): released readers go
    /// straight to `release` in arrival order (the engines' hot path —
    /// no `Vec` is allocated). Returns the release count on success.
    pub fn write_with(
        &mut self,
        id: u32,
        addr: Addr,
        value: T,
        release: impl FnMut(R),
    ) -> Option<Result<usize, IStructureError>> {
        let r = self.stores.get_mut(&id)?.write_with(addr, value, release);
        if let Ok(released) = &r {
            self.deferred_outstanding -= released;
        }
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_ownership() {
        assert_eq!(shard_of(0, 4), 0);
        assert_eq!(shard_of(5, 4), 1);
        assert_eq!(shard_of(7, 1), 0);
    }

    #[test]
    fn tracks_outstanding_deferred_incrementally() {
        let mut sh: IStructureShard<i64, &str> = IStructureShard::new();
        sh.create(2, 4);
        assert_eq!(sh.deferred_outstanding(), 0);
        assert_eq!(
            sh.read(2, Addr(0), "a").unwrap().unwrap(),
            ReadOutcome::Deferred
        );
        assert_eq!(
            sh.read(2, Addr(0), "b").unwrap().unwrap(),
            ReadOutcome::Deferred
        );
        assert_eq!(sh.deferred_outstanding(), 2);
        let released = sh.write(2, Addr(0), 9).unwrap().unwrap();
        assert_eq!(released, vec!["a", "b"]);
        assert_eq!(sh.deferred_outstanding(), 0);
        assert_eq!(
            sh.read(2, Addr(0), "c").unwrap().unwrap(),
            ReadOutcome::Value(9)
        );
        assert_eq!(sh.deferred_outstanding(), 0);
    }

    #[test]
    fn unknown_id_is_none_cell_error_is_inner() {
        let mut sh: IStructureShard<i64, u64> = IStructureShard::new();
        sh.create(0, 1);
        assert!(sh.read(3, Addr(0), 1).is_none());
        assert!(sh.write(0, Addr(7), 1).unwrap().is_err());
        // A failed access must not disturb the deferred count.
        assert_eq!(sh.deferred_outstanding(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_id_panics() {
        let mut sh: IStructureShard<i64, u64> = IStructureShard::new();
        sh.create(1, 1);
        sh.create(1, 2);
    }
}

//! Dense storage for a cluster's live containers with O(1) lookup by id.
//!
//! Containers sit unordered in a `Vec`. An id-offset index maps id
//! `base + i` to the container's position, or to [`HOLE`] once that id
//! has retired. This works because the cluster issues ids consecutively
//! and never reuses one: lookup is one subtraction and two loads,
//! removal is a `swap_remove` plus one patched index slot, and walking
//! the index visits the live containers in id (creation) order.
//!
//! Memory is the live containers plus 4 bytes per retired id between
//! the oldest live id and the newest: leading holes are popped as soon
//! as the oldest live container goes.

use crate::container::Container;
use crate::ids::ContainerId;
use std::collections::VecDeque;

/// Index slot of a retired id.
const HOLE: u32 = u32::MAX;

/// Live containers keyed by [`ContainerId`] (see the module docs).
#[derive(Debug, Clone, Default)]
pub(crate) struct ContainerStore {
    dense: Vec<Container>,
    /// `index[i]` is the position in `dense` of id `base + i`, or `HOLE`.
    /// Never starts with a hole.
    index: VecDeque<u32>,
    base: u64,
}

impl ContainerStore {
    /// The slot of `id` in the index, if it lies in the indexed span.
    fn slot(&self, id: ContainerId) -> Option<usize> {
        let off = usize::try_from(id.0.checked_sub(self.base)?).ok()?;
        (off < self.index.len()).then_some(off)
    }

    /// Position of `id` in `dense`, if it is live.
    fn position(&self, id: ContainerId) -> Option<usize> {
        let pos = self.index[self.slot(id)?];
        (pos != HOLE).then_some(pos as usize)
    }

    /// Add a container. Ids start at 0 and go up by one per insert, so
    /// `base + index.len()` is always the next id.
    pub(crate) fn insert(&mut self, ctr: Container) {
        assert_eq!(
            ctr.id().0,
            self.base + self.index.len() as u64,
            "container ids must be inserted consecutively"
        );
        let pos = u32::try_from(self.dense.len()).expect("fewer than u32::MAX live containers");
        self.index.push_back(pos);
        self.dense.push(ctr);
    }

    /// Remove and return the container `id`.
    pub(crate) fn remove(&mut self, id: ContainerId) -> Option<Container> {
        let slot = self.slot(id)?;
        let pos = self.index[slot];
        if pos == HOLE {
            return None;
        }
        self.index[slot] = HOLE;
        let ctr = self.dense.swap_remove(pos as usize);
        if let Some(moved) = self.dense.get(pos as usize) {
            let moved_slot = self.slot(moved.id()).expect("live container indexed");
            self.index[moved_slot] = pos;
        }
        while self.index.front() == Some(&HOLE) {
            self.index.pop_front();
            self.base += 1;
        }
        Some(ctr)
    }

    /// The container `id`, if live.
    pub(crate) fn get(&self, id: ContainerId) -> Option<&Container> {
        self.position(id).map(|pos| &self.dense[pos])
    }

    /// Mutable access to the container `id`, if live.
    pub(crate) fn get_mut(&mut self, id: ContainerId) -> Option<&mut Container> {
        self.position(id).map(|pos| &mut self.dense[pos])
    }

    /// Live containers in id (creation) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Container> {
        self.index
            .iter()
            .filter(|&&pos| pos != HOLE)
            .map(|&pos| &self.dense[pos as usize])
    }

    /// Number of live containers.
    pub(crate) fn len(&self) -> usize {
        self.dense.len()
    }

    /// Number of index slots (live and retired ids in the indexed span).
    #[cfg(test)]
    pub(crate) fn index_len(&self) -> usize {
        self.index.len()
    }

    /// Verify the index: it walks strictly increasing ids, each found
    /// again by lookup, covers every live container, starts at the
    /// oldest live id and ends just before `next_id`, the id the next
    /// insert will get. Panics on violation.
    pub(crate) fn check_invariants(&self, next_id: u64) {
        let mut prev: Option<ContainerId> = None;
        let mut live = 0;
        for ctr in self.iter() {
            assert!(prev < Some(ctr.id()), "container store out of id order");
            let found = self.get(ctr.id()).expect("live container indexed");
            assert!(
                std::ptr::eq(found, ctr),
                "index points at the wrong container"
            );
            prev = Some(ctr.id());
            live += 1;
        }
        assert_eq!(live, self.len(), "container store count drift");
        assert_ne!(self.index.front(), Some(&HOLE), "index starts with a hole");
        assert_eq!(
            self.base + self.index.len() as u64,
            next_id,
            "index does not end at the newest id"
        );
    }
}

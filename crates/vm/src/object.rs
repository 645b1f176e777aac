//! Memory objects: the unit of backing and residency.
//!
//! A `VmObject` represents a contiguous pageable entity — a memory-mapped
//! file or an anonymous (zero-fill) region — exactly as in Mach. It tracks
//! which of its pages are resident and in which frames. HiPEC attaches a
//! *container* to an object (paper §4.1); the container itself lives in
//! `hipec-core`, the object only records the attachment key.

use hipec_sim::{IntMap, IntSet};

use crate::types::{DeviceId, FrameId, ObjectId, PageOffset};

/// How an object's non-resident pages are materialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backing {
    /// Zero-filled on first touch; paged to swap only if evicted dirty.
    Anonymous,
    /// Backed by a file extent on the paging device; faults read from disk.
    File,
}

/// A Mach-style memory object.
#[derive(Debug, Clone)]
pub struct VmObject {
    /// This object's identifier.
    pub id: ObjectId,
    /// Length in pages.
    pub size_pages: u64,
    /// Backing kind.
    pub backing: Backing,
    /// True once a swap extent has been allocated (anonymous objects only).
    pub swap_allocated: bool,
    /// Resident pages: object page offset → physical frame.
    pub resident: IntMap<u64, FrameId>,
    /// Pages that have been written to backing store at least once
    /// (anonymous objects: a zero-fill is only correct before first pageout).
    pub paged_out: IntSet<u64>,
    /// HiPEC container attachment key, if this object is under specific
    /// application control.
    pub container: Option<u32>,
    /// The backing device this object pages against. Bound at creation;
    /// re-bound only by the migration machinery
    /// ([`crate::Kernel::migrate_object`], [`crate::Kernel::remove_device`]
    /// and Dead-device escalation), which copies the object's backing pages
    /// onto the new device.
    pub device: DeviceId,
    /// Faults taken against this object since the last
    /// [`crate::Kernel::rebalance_tiers`] interval — the hot/cold signal
    /// that drives steady-state tier migration.
    pub fault_rate: u64,
    /// Lifetime device re-bindings (hot/cold promotions, demotions and
    /// forced drains).
    pub migrations: u64,
}

impl VmObject {
    /// Creates an object with no resident pages.
    pub fn new(id: ObjectId, size_pages: u64, backing: Backing) -> Self {
        VmObject {
            id,
            size_pages,
            backing,
            swap_allocated: false,
            resident: IntMap::default(),
            paged_out: IntSet::default(),
            container: None,
            device: DeviceId(0),
            fault_rate: 0,
            migrations: 0,
        }
    }

    /// The frame holding `offset`, if resident.
    pub fn lookup(&self, offset: PageOffset) -> Option<FrameId> {
        self.resident.get(&offset.0).copied()
    }

    /// Marks `offset` resident in `frame`.
    pub fn insert(&mut self, offset: PageOffset, frame: FrameId) {
        self.resident.insert(offset.0, frame);
    }

    /// Removes the residency entry for `offset`, returning its frame.
    pub fn evict(&mut self, offset: PageOffset) -> Option<FrameId> {
        self.resident.remove(&offset.0)
    }

    /// Number of resident pages.
    pub fn resident_count(&self) -> usize {
        self.resident.len()
    }

    /// True if a fault on `offset` must read from the paging device.
    pub fn fault_needs_io(&self, offset: PageOffset) -> bool {
        match self.backing {
            Backing::File => true,
            Backing::Anonymous => self.paged_out.contains(&offset.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residency_tracking() {
        let mut o = VmObject::new(ObjectId(1), 16, Backing::Anonymous);
        assert_eq!(o.lookup(PageOffset(3)), None);
        o.insert(PageOffset(3), FrameId(7));
        assert_eq!(o.lookup(PageOffset(3)), Some(FrameId(7)));
        assert_eq!(o.resident_count(), 1);
        assert_eq!(o.evict(PageOffset(3)), Some(FrameId(7)));
        assert_eq!(o.resident_count(), 0);
    }

    #[test]
    fn file_pages_always_need_io() {
        let o = VmObject::new(ObjectId(1), 4, Backing::File);
        assert!(o.fault_needs_io(PageOffset(0)));
    }

    #[test]
    fn anonymous_pages_need_io_only_after_pageout() {
        let mut o = VmObject::new(ObjectId(1), 4, Backing::Anonymous);
        assert!(!o.fault_needs_io(PageOffset(2)));
        o.paged_out.insert(2);
        assert!(o.fault_needs_io(PageOffset(2)));
        assert!(!o.fault_needs_io(PageOffset(3)));
    }
}

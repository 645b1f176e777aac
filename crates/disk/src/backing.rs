//! Backing-store layout: mapping memory-object pages onto disk blocks.
//!
//! Each memory object that needs paging gets a contiguous extent of logical
//! blocks, in creation order — the layout a 1990s paging partition would
//! produce for the single-application experiments in the paper.

use hipec_sim::IntMap;

use crate::model::Lba;

/// The disk location of one page of a memory object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageLocation {
    /// Logical block that holds the page.
    pub lba: Lba,
}

#[derive(Debug, Clone, Copy)]
struct Extent {
    base: u64,
    pages: u64,
}

/// Allocates disk extents to memory objects and resolves page addresses.
///
/// Keys are caller-chosen 64-bit object identifiers (the VM crate uses its
/// `ObjectId`). Extents are never recycled — the simulated experiments are
/// short-lived and a paging partition does not need compaction fidelity.
#[derive(Debug, Clone, Default)]
pub struct BackingStore {
    extents: IntMap<u64, Extent>,
    next_free: u64,
    capacity: u64,
}

/// Errors from backing-store allocation and lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackingError {
    /// The device has no room for the requested extent.
    OutOfSpace {
        /// Pages requested.
        requested: u64,
        /// Pages remaining.
        available: u64,
    },
    /// The object already owns an extent.
    AlreadyAllocated(u64),
    /// The object has no extent.
    NoExtent(u64),
    /// The page offset is outside the object's extent.
    OutOfRange {
        /// Offending page offset.
        offset: u64,
        /// Extent size in pages.
        pages: u64,
    },
}

impl std::fmt::Display for BackingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackingError::OutOfSpace {
                requested,
                available,
            } => write!(
                f,
                "backing store exhausted: requested {requested} pages, {available} available"
            ),
            BackingError::AlreadyAllocated(id) => {
                write!(f, "object {id} already has a backing extent")
            }
            BackingError::NoExtent(id) => write!(f, "object {id} has no backing extent"),
            BackingError::OutOfRange { offset, pages } => {
                write!(f, "page offset {offset} outside extent of {pages} pages")
            }
        }
    }
}

impl std::error::Error for BackingError {}

impl BackingStore {
    /// Creates a store over a device with the given page capacity.
    pub fn new(capacity_pages: u64) -> Self {
        BackingStore {
            extents: IntMap::default(),
            next_free: 0,
            capacity: capacity_pages,
        }
    }

    /// Pages not yet assigned to any extent.
    pub fn available_pages(&self) -> u64 {
        self.capacity - self.next_free
    }

    /// Allocates a contiguous extent of `pages` for `object`.
    pub fn allocate(&mut self, object: u64, pages: u64) -> Result<(), BackingError> {
        if self.extents.contains_key(&object) {
            return Err(BackingError::AlreadyAllocated(object));
        }
        if pages > self.available_pages() {
            return Err(BackingError::OutOfSpace {
                requested: pages,
                available: self.available_pages(),
            });
        }
        self.extents.insert(
            object,
            Extent {
                base: self.next_free,
                pages,
            },
        );
        self.next_free += pages;
        Ok(())
    }

    /// True if `object` has an extent.
    pub fn has_extent(&self, object: u64) -> bool {
        self.extents.contains_key(&object)
    }

    /// Resolves the disk location of `object`'s page at `page_offset`.
    pub fn locate(&self, object: u64, page_offset: u64) -> Result<PageLocation, BackingError> {
        let extent = self
            .extents
            .get(&object)
            .ok_or(BackingError::NoExtent(object))?;
        if page_offset >= extent.pages {
            return Err(BackingError::OutOfRange {
                offset: page_offset,
                pages: extent.pages,
            });
        }
        Ok(PageLocation {
            lba: Lba(extent.base + page_offset),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extents_are_contiguous_and_disjoint() {
        let mut b = BackingStore::new(100);
        b.allocate(1, 10).expect("first extent");
        b.allocate(2, 20).expect("second extent");
        assert_eq!(b.locate(1, 0).expect("page").lba, Lba(0));
        assert_eq!(b.locate(1, 9).expect("page").lba, Lba(9));
        assert_eq!(b.locate(2, 0).expect("page").lba, Lba(10));
        assert_eq!(b.available_pages(), 70);
    }

    #[test]
    fn double_allocation_is_rejected() {
        let mut b = BackingStore::new(100);
        b.allocate(1, 10).expect("first");
        assert_eq!(b.allocate(1, 5), Err(BackingError::AlreadyAllocated(1)));
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut b = BackingStore::new(16);
        b.allocate(1, 10).expect("fits");
        assert_eq!(
            b.allocate(2, 10),
            Err(BackingError::OutOfSpace {
                requested: 10,
                available: 6
            })
        );
    }

    #[test]
    fn out_of_range_and_missing_lookups_fail() {
        let mut b = BackingStore::new(16);
        b.allocate(1, 4).expect("fits");
        assert_eq!(
            b.locate(1, 4),
            Err(BackingError::OutOfRange {
                offset: 4,
                pages: 4
            })
        );
        assert_eq!(b.locate(9, 0), Err(BackingError::NoExtent(9)));
        assert!(b.has_extent(1));
        assert!(!b.has_extent(9));
    }

    #[test]
    fn errors_display() {
        let e = BackingError::OutOfSpace {
            requested: 5,
            available: 2,
        };
        assert!(e.to_string().contains("requested 5"));
    }
}

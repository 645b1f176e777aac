//! Tasks: an address map plus a software pmap.
//!
//! The pmap is the machine-dependent translation layer in Mach; here it is a
//! hash map from virtual page to frame. Reference/modify bits live on the
//! frame (see [`crate::frame::FrameTable::touch`]), as Mach keeps them on
//! `vm_page` via pmap emulation.

use hipec_sim::IntMap;

use crate::map::VmMap;
use crate::types::{FrameId, TaskId};

/// One simulated task (process address space).
#[derive(Debug, Clone)]
pub struct Task {
    /// Task identifier.
    pub id: TaskId,
    /// The task's address map.
    pub map: VmMap,
    /// Installed translations: virtual page → frame.
    pub pmap: IntMap<u64, FrameId>,
}

impl Task {
    /// Creates a task with an empty map and pmap.
    pub fn new(id: TaskId) -> Self {
        Task {
            id,
            map: VmMap::new(),
            pmap: IntMap::default(),
        }
    }

    /// Looks up the translation for a virtual page.
    pub fn translate(&self, vpage: u64) -> Option<FrameId> {
        self.pmap.get(&vpage).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translations() {
        let mut t = Task::new(TaskId(3));
        assert_eq!(t.translate(5), None);
        t.pmap.insert(5, FrameId(9));
        assert_eq!(t.translate(5), Some(FrameId(9)));
    }
}

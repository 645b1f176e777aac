//! A Mach-style virtual-memory substrate, in deterministic simulation.
//!
//! This crate is the operating-system foundation the HiPEC reproduction
//! runs on: physical frames with intrusive page queues ([`frame`]), memory
//! objects ([`object`]), per-task address maps and pmaps ([`map`], [`task`]),
//! a fault path and frame pool ([`kernel`]), and the Mach pageout daemon
//! with FIFO-second-chance replacement ([`pageout`]).
//!
//! Used alone, [`kernel::Kernel`] *is* the unmodified Mach 3.0 baseline of
//! the paper's experiments. The `hipec-core` crate layers containers, the
//! policy executor, the security checker and the global frame manager on the
//! hooks this crate exposes.

pub mod breaker;
pub mod counters;
pub mod device;
pub mod frame;
pub mod kernel;
pub mod lifecycle;
pub mod map;
pub mod object;
pub mod pageout;
pub mod task;
pub mod trace;
pub mod types;

pub use breaker::{BreakerCounters, BreakerParams, BreakerState, CircuitBreaker};
pub use counters::{VmCounter, VmStats};
pub use device::{BackingDevice, DeviceState, MigrTag};
pub use frame::{Frame, FrameTable, QueueId};
pub use kernel::{
    AccessKind, AccessOutcome, AccessResult, DeadFlush, Kernel, KernelParams, PolicyFaultInfo,
    RetryTag,
};
pub use map::{MapEntry, VmMap};
pub use object::{Backing, VmObject};
pub use task::Task;
pub use trace::{EventRing, TraceRecord, VmEvent};
pub use types::{
    bytes_to_pages, DeviceId, FrameId, ObjectId, PageOffset, TaskId, VAddr, VmError, PAGE_SIZE,
};

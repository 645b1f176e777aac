//! HiPEC: High Performance External Virtual Memory Caching.
//!
//! A from-scratch reproduction of the mechanism from Lee, Chen & Chang
//! (OSDI 1994): applications install their own page-replacement policies as
//! sequences of 32-bit commands that the kernel interprets at page-fault
//! time — no kernel/user crossing, no upcalls, no IPC.
//!
//! The crate layers on the `hipec-vm` Mach-style substrate:
//!
//! * [`command`] — the 20-command set (plus the `Migrate` extension) and
//!   its binary encoding;
//! * [`program`] — policy programs, operand declarations and the
//!   command-buffer wire format;
//! * [`container`] — the per-region kernel object holding the operand
//!   array, private frame queues and execution timestamps;
//! * [`executor`] — the in-kernel interpreter;
//! * [`checker`] — static validation and adaptive timeout detection;
//! * [`admission`] — per-tenant weighted share classes and bursty-arrival
//!   throttling ahead of the `minFrame` admission;
//! * [`manager`] — the global frame manager (partition_burst, minFrame,
//!   FAFR reclamation, asynchronous flush);
//! * [`kernel`] — [`HipecKernel`], the modified kernel with
//!   `vm_allocate_hipec` / `vm_map_hipec`;
//! * [`trace`] — the merged deterministic event ring plus streaming
//!   [`TraceSink`]s with a stable JSONL schema (feature `trace`, default
//!   on);
//! * [`metrics`] — [`KernelStats`] counter snapshots with `diff`;
//! * [`hist`] / [`obs`] — fixed-footprint log-linear latency histograms
//!   and the attribution layer surfacing them as [`LatencyRow`]s and
//!   Prometheus-style text exposition (recording sites behind the
//!   `metrics` feature, default on).
//!
//! # Examples
//!
//! ```
//! use hipec_core::{HipecKernel, PolicyProgram, OperandDecl};
//! use hipec_core::command::{build, QueueEnd, NO_OPERAND};
//! use hipec_vm::{KernelParams, VAddr, PAGE_SIZE};
//!
//! // A trivial policy: serve faults straight from the private free list.
//! let mut program = PolicyProgram::new();
//! let free_q = program.declare(OperandDecl::FreeQueue);
//! let page = program.declare(OperandDecl::Page);
//! program.add_event("PageFault", vec![
//!     build::dequeue(page, free_q, QueueEnd::Head),
//!     build::ret(page),
//! ]);
//! program.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
//!
//! let mut kernel = HipecKernel::new(KernelParams::paper_64mb());
//! let task = kernel.vm.create_task();
//! let (addr, _object, _key) = kernel
//!     .vm_allocate_hipec(task, 8 * PAGE_SIZE, program, 8)
//!     .expect("install policy");
//! kernel.access(task, addr, false).expect("fault resolved by policy");
//! kernel.access(task, VAddr(addr.0 + PAGE_SIZE), true).expect("again");
//! ```

pub mod admission;
pub mod analysis;
pub mod checker;
pub mod command;
pub mod container;
pub mod error;
pub mod executor;
pub mod health;
pub mod hist;
pub mod invariants;
pub mod kernel;
pub mod manager;
pub mod metrics;
pub mod obs;
pub mod operand;
pub mod program;
mod text;
pub mod trace;

pub use admission::{AdmissionControl, AdmitReject, ShareClass};
pub use analysis::analyze_program;
pub use checker::{validate_program, SecurityChecker};
pub use command::{OpCode, RawCmd, NO_OPERAND};
pub use container::{Container, ContainerStats, OpProfile};
pub use error::{HipecError, PolicyFault};
pub use executor::{ExecBackend, ExecLimits, ExecValue};
pub use health::{ContainerHealth, HealthPolicy, HealthState};
pub use hist::LatencyHistogram;
pub use invariants::FramePartition;
pub use kernel::{ContainerKey, HipecKernel};
pub use manager::GlobalFrameManager;
pub use metrics::{ContainerCounters, DeviceRow, KernelStats};
pub use obs::{stats_export, LatencyMetric, LatencyRow, ObsState};
pub use operand::{KernelVar, OperandDecl, OperandSlot};
pub use program::{
    PolicyProgram, WireError, EVENT_PAGE_FAULT, EVENT_RECLAIM_FRAME, HIPEC_MAGIC, OPERAND_SLOTS,
};
pub use trace::{
    event_kind, render_jsonl, render_jsonl_into, CountingSink, EventRing, JsonlSink, MemorySink,
    TraceEvent, TraceRecord, TraceSink,
};

//! The container: HiPEC's per-region kernel object.
//!
//! One container is mounted under a VM object when `vm_map_hipec` or
//! `vm_allocate_hipec` is invoked (paper §4.1). It records the installed
//! program, the 256-entry operand array, the private frame queues allocated
//! by the global frame manager, and the execution timestamp the security
//! checker inspects.

use hipec_sim::{LatencyHistogram, SimDuration, SimTime};
use hipec_vm::{Kernel, ObjectId, QueueId, TaskId};

use crate::command::OpCode;
use crate::operand::{KernelVar, OperandDecl, OperandSlot};
use crate::program::PolicyProgram;

/// Per-container statistics the experiments read back.
#[derive(Debug, Clone, Copy, Default)]
pub struct ContainerStats {
    /// Policy-resolved page faults.
    pub faults: u64,
    /// Commands interpreted.
    pub commands: u64,
    /// Event invocations (including `Activate`).
    pub events: u64,
    /// Frames obtained via `Request`.
    pub requested: u64,
    /// Frames given back via `Release` or reclamation.
    pub released: u64,
    /// `Flush` exchanges performed.
    pub flushes: u64,
    /// Device faults surfaced to this container (abandoned write-backs
    /// whose data was lost after the retry budget ran out).
    pub device_faults: u64,
}

/// Per-opcode execution profile: how many times each HiPEC command ran and
/// how much virtual time its interpretation cost (fetch/decode plus the
/// command's own charges, I/O wait included).
///
/// Counts cover every decoded command; time is attributed when a command
/// finishes, so a command that ends its event in a policy fault is counted
/// but its partial cost is not attributed. `Activate` is attributed its
/// whole nested event (whose commands are also attributed individually), so
/// summed attribution can exceed wall-clock time under nesting. Reading the
/// profile never charges the clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpProfile {
    counts: [u64; OpCode::ALL.len()],
    time_ns: [u64; OpCode::ALL.len()],
}

impl OpProfile {
    /// Bumps the execution count of `op` (recorded at decode).
    pub fn bump(&mut self, op: OpCode) {
        self.counts[op as usize] += 1;
    }

    /// Attributes `spent` virtual time to `op` (recorded at completion).
    pub fn attribute(&mut self, op: OpCode, spent: SimDuration) {
        self.time_ns[op as usize] = self.time_ns[op as usize].saturating_add(spent.as_ns());
    }

    /// Times `op` was decoded.
    pub fn count(&self, op: OpCode) -> u64 {
        self.counts[op as usize]
    }

    /// Virtual time attributed to completed runs of `op`.
    pub fn time(&self, op: OpCode) -> SimDuration {
        SimDuration::from_ns(self.time_ns[op as usize])
    }

    /// Total commands decoded across all opcodes.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// True if no command was ever decoded.
    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Every opcode with activity, as `(opcode, count, time)`.
    pub fn nonzero(&self) -> impl Iterator<Item = (OpCode, u64, SimDuration)> + '_ {
        OpCode::ALL.iter().filter_map(move |&op| {
            let (c, t) = (self.count(op), self.time(op));
            (c != 0 || !t.is_zero()).then_some((op, c, t))
        })
    }

    /// Element-wise difference against an earlier snapshot (saturating).
    pub fn diff(&self, earlier: &OpProfile) -> OpProfile {
        let mut out = OpProfile::default();
        for i in 0..OpCode::ALL.len() {
            out.counts[i] = self.counts[i].saturating_sub(earlier.counts[i]);
            out.time_ns[i] = self.time_ns[i].saturating_sub(earlier.time_ns[i]);
        }
        out
    }
}

/// A HiPEC container.
#[derive(Debug, Clone)]
pub struct Container {
    /// This container's key (index in the HiPEC kernel's container list).
    pub key: u32,
    /// The VM object under which the container is mounted.
    pub object: ObjectId,
    /// The owning task.
    pub task: TaskId,
    /// The installed (validated) policy program.
    pub program: PolicyProgram,
    /// The operand array.
    pub operands: Vec<OperandSlot>,
    /// The container's private free queue.
    pub free_q: QueueId,
    /// Every queue the container owns (free queue included), for
    /// reclamation sweeps.
    pub queues: Vec<QueueId>,
    /// The administratively configured minimum allocation (`minFrame`).
    pub min_frames: u64,
    /// Frames currently allocated to this container.
    pub allocated: u64,
    /// Set while the executor is running this container's policy; the
    /// security checker compares it against the timeout period.
    pub exec_started: Option<SimTime>,
    /// Set when a policy exhausts its fuel: the executor is considered
    /// stuck until the checker terminates the application.
    pub runaway: bool,
    /// Set when the application has been terminated.
    pub terminated: bool,
    /// Creation sequence for FAFR (first-allocated, first-reclaimed).
    pub created_seq: u64,
    /// The weighted share class this container's tenant installs under
    /// (admission control; see [`crate::admission`]). Legacy entry points
    /// install as [`crate::admission::ShareClass::Standard`].
    pub share: crate::admission::ShareClass,
    /// Frames the global frame manager currently wants back (visible to the
    /// policy as [`KernelVar::ReclaimTarget`] during `ReclaimFrame`).
    pub reclaim_target: u64,
    /// Statistics.
    pub stats: ContainerStats,
    /// Per-opcode command counts and virtual-time attribution.
    pub op_profile: OpProfile,
    /// Fault-service latency distribution: `access` entry to frame-ready,
    /// per policy-resolved fault. Storage is unconditional; recording is
    /// behind the `metrics` feature.
    pub lat_fault: LatencyHistogram,
    /// `run_event` duration distribution (one sample per top-level policy
    /// event, nested `Activate` events included in their parent's span).
    pub lat_event: LatencyHistogram,
    /// Device faults surfaced asynchronously (abandoned write-backs), not
    /// yet drained by `HipecKernel::take_surfaced_faults`.
    pub pending_faults: Vec<crate::error::PolicyFault>,
    /// Health state machine driving quarantine and fallback.
    pub health: crate::health::ContainerHealth,
    /// `minFrame` frames still owed from a ramped restore: admitted in
    /// tranches on clean checker intervals instead of one post-restore
    /// burst (see `HealthPolicy::restore_tranche`).
    pub restore_pending: u64,
}

impl Container {
    /// Builds a container for `program`, creating its declared queues in the
    /// kernel's frame table and initializing the operand array.
    pub fn new(
        key: u32,
        object: ObjectId,
        task: TaskId,
        program: PolicyProgram,
        min_frames: u64,
        created_seq: u64,
        kernel: &mut Kernel,
    ) -> Self {
        let free_q = kernel.frames.new_queue(false);
        let mut queues = vec![free_q];
        let operands = program
            .decls
            .iter()
            .map(|d| match *d {
                OperandDecl::Int(v) => OperandSlot::Int(v),
                OperandDecl::Bool(b) => OperandSlot::Bool(b),
                OperandDecl::Page => OperandSlot::Page(None),
                OperandDecl::FreeQueue => OperandSlot::Queue(free_q),
                OperandDecl::Queue { recency } => {
                    let q = kernel.frames.new_queue(recency);
                    queues.push(q);
                    OperandSlot::Queue(q)
                }
                OperandDecl::Kernel(v) => OperandSlot::Kernel(v),
            })
            .collect();
        Container {
            key,
            object,
            task,
            program,
            operands,
            free_q,
            queues,
            min_frames,
            allocated: 0,
            exec_started: None,
            runaway: false,
            terminated: false,
            created_seq,
            share: crate::admission::ShareClass::default(),
            reclaim_target: 0,
            stats: ContainerStats::default(),
            op_profile: OpProfile::default(),
            lat_fault: LatencyHistogram::EMPTY,
            lat_event: LatencyHistogram::EMPTY,
            pending_faults: Vec::new(),
            health: crate::health::ContainerHealth::default(),
            restore_pending: 0,
        }
    }

    /// Resolves a kernel variable for this container.
    pub fn kernel_var(&self, var: KernelVar, kernel: &Kernel) -> i64 {
        match var {
            KernelVar::FreeCount => kernel.frames.queue_len(self.free_q).unwrap_or(0) as i64,
            KernelVar::ActiveCount => self.nth_queue_len(1, kernel),
            KernelVar::InactiveCount => self.nth_queue_len(2, kernel),
            KernelVar::AllocatedCount => self.allocated as i64,
            KernelVar::MinFrames => self.min_frames as i64,
            KernelVar::GlobalFreeCount => kernel.free_count() as i64,
            KernelVar::ReclaimTarget => self.reclaim_target as i64,
        }
    }

    /// Length of the container's `n`-th queue (0 = free queue), or 0.
    fn nth_queue_len(&self, n: usize, kernel: &Kernel) -> i64 {
        self.queues
            .get(n)
            .and_then(|q| kernel.frames.queue_len(*q).ok())
            .unwrap_or(0) as i64
    }

    /// Frames the container holds beyond its guaranteed minimum.
    pub fn surplus(&self) -> u64 {
        self.allocated.saturating_sub(self.min_frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hipec_vm::KernelParams;

    fn kernel() -> Kernel {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 64;
        p.wired_frames = 4;
        Kernel::new(p)
    }

    fn program() -> PolicyProgram {
        let mut p = PolicyProgram::new();
        p.declare(OperandDecl::FreeQueue);
        p.declare(OperandDecl::Queue { recency: true }); // active
        p.declare(OperandDecl::Queue { recency: false }); // inactive
        p.declare(OperandDecl::Int(5));
        p.declare(OperandDecl::Bool(false));
        p.declare(OperandDecl::Page);
        p.declare(OperandDecl::Kernel(KernelVar::FreeCount));
        p
    }

    #[test]
    fn operand_array_initialization() {
        let mut k = kernel();
        let obj = k
            .create_object(16, hipec_vm::Backing::Anonymous)
            .expect("object");
        let task = k.create_task();
        let c = Container::new(0, obj, task, program(), 8, 0, &mut k);
        assert_eq!(c.operands.len(), 7);
        assert_eq!(c.operands[0], OperandSlot::Queue(c.free_q));
        assert!(matches!(c.operands[1], OperandSlot::Queue(_)));
        assert_eq!(c.operands[3], OperandSlot::Int(5));
        assert_eq!(c.operands[4], OperandSlot::Bool(false));
        assert_eq!(c.operands[5], OperandSlot::Page(None));
        assert_eq!(c.queues.len(), 3, "free + two declared queues");
    }

    #[test]
    fn kernel_vars_resolve() {
        let mut k = kernel();
        let obj = k
            .create_object(16, hipec_vm::Backing::Anonymous)
            .expect("object");
        let task = k.create_task();
        let mut c = Container::new(0, obj, task, program(), 8, 0, &mut k);
        assert_eq!(c.kernel_var(KernelVar::FreeCount, &k), 0);
        assert_eq!(c.kernel_var(KernelVar::MinFrames, &k), 8);
        assert_eq!(c.kernel_var(KernelVar::AllocatedCount, &k), 0);
        assert_eq!(c.kernel_var(KernelVar::GlobalFreeCount, &k), 60);
        // Put two frames on the container free queue.
        let frames = k.take_free_frames(2).expect("frames");
        for f in frames {
            k.frames.enqueue_tail(c.free_q, f).expect("enqueue");
        }
        c.allocated = 2;
        assert_eq!(c.kernel_var(KernelVar::FreeCount, &k), 2);
        assert_eq!(c.kernel_var(KernelVar::AllocatedCount, &k), 2);
        assert_eq!(c.kernel_var(KernelVar::GlobalFreeCount, &k), 58);
    }

    #[test]
    fn surplus_accounting() {
        let mut k = kernel();
        let obj = k
            .create_object(16, hipec_vm::Backing::Anonymous)
            .expect("object");
        let task = k.create_task();
        let mut c = Container::new(0, obj, task, program(), 8, 0, &mut k);
        c.allocated = 6;
        assert_eq!(c.surplus(), 0);
        c.allocated = 11;
        assert_eq!(c.surplus(), 3);
    }
}

//! The application-specific policy executor (paper §4.3.2).
//!
//! Invoked by the page-fault handler or the global frame manager, the
//! executor fetches commands from the installed policy buffer, decodes them
//! and performs the operations — in kernel mode, with no kernel/user
//! crossing. Each command charges [`hipec_sim::CostModel::cmd_fetch_decode`]
//! plus the native cost of the operation it performs, so interpreted
//! policies pay exactly the decode overhead the paper measures on top of
//! the work a native policy would do.
//!
//! Execution is *fuel-limited*: a policy that exceeds its per-invocation
//! budget is marked runaway and sits "stuck" until the security checker's
//! timeout detection terminates the application, as in the paper.

use hipec_vm::{FrameId, QueueId};

use crate::command::{ArithOp, CompOp, JumpMode, LogicOp, OpCode, PageBit, QueueEnd, NO_OPERAND};
use crate::error::PolicyFault;
use crate::kernel::HipecKernel;
use crate::operand::OperandSlot;

/// Executor resource limits.
#[derive(Debug, Clone, Copy)]
pub struct ExecLimits {
    /// Commands one top-level invocation may interpret.
    pub fuel: u32,
    /// Maximum `Activate` nesting depth.
    pub max_depth: u8,
}

impl Default for ExecLimits {
    fn default() -> Self {
        ExecLimits {
            fuel: 100_000,
            max_depth: 8,
        }
    }
}

/// The value a policy event returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecValue {
    /// `Return` with no operand.
    None,
    /// A page (the `PageFault` contract).
    Page(FrameId),
    /// An integer.
    Int(i64),
    /// A boolean.
    Bool(bool),
}

/// The executor [`HipecKernel::run_event`] runs policies on. There is one:
/// the interpreter below (see [`HipecKernel::backend`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecBackend {
    /// Fetch, decode and dispatch each 32-bit command on every execution.
    Interpreter,
}

impl ExecBackend {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ExecBackend::Interpreter => "interpreter",
        }
    }
}

impl HipecKernel {
    /// Interprets one event of container `cidx`'s policy.
    ///
    /// `depth` is the `Activate` nesting level; `fuel` is shared across the
    /// whole invocation.
    pub(crate) fn run_event(
        &mut self,
        cidx: usize,
        event: u8,
        depth: u8,
        fuel: &mut u32,
    ) -> Result<ExecValue, PolicyFault> {
        let before = self.containers[cidx].stats.commands;
        #[cfg(feature = "metrics")]
        let entered = self.vm.now();
        let result = self.interpret(cidx, event, depth, fuel);
        let delta = self.containers[cidx].stats.commands - before;
        // Top-level events get one duration sample each; a nested
        // `Activate` is part of its parent's span, not a sample of its own.
        #[cfg(feature = "metrics")]
        if depth == 0 {
            let spent = self.vm.now().since(entered);
            self.containers[cidx].lat_event.record(spent);
        }
        self.emit(crate::trace::TraceEvent::PolicyEvent {
            container: self.containers[cidx].key,
            event,
            commands: delta.min(u32::MAX as u64) as u32,
            ok: result.is_ok(),
        });
        result
    }

    /// The interpreter (paper §4.3.2): fetch, decode and execute one 32-bit
    /// command at a time.
    fn interpret(
        &mut self,
        cidx: usize,
        event: u8,
        depth: u8,
        fuel: &mut u32,
    ) -> Result<ExecValue, PolicyFault> {
        let seg = self.containers[cidx]
            .program
            .event(event)
            .cloned()
            .ok_or(PolicyFault::UnknownEvent(event))?;
        self.containers[cidx].stats.events += 1;
        let mut cc: usize = 0;
        let mut cond = false;
        loop {
            if cc >= seg.len() {
                return Err(PolicyFault::MissingReturn);
            }
            if *fuel == 0 {
                self.containers[cidx].runaway = true;
                return Err(PolicyFault::OutOfFuel);
            }
            *fuel -= 1;
            let cmd = seg[cc];
            // Profile anchor: everything the command charges (decode, queue
            // ops, I/O wait) lands between here and the attribution point.
            let t0 = self.vm.now();
            self.vm.charge(self.vm.cost.cmd_fetch_decode);
            self.containers[cidx].stats.commands += 1;
            let op = cmd.opcode().ok_or(PolicyFault::BadOpcode { cmd, cc })?;
            self.containers[cidx].op_profile.bump(op);
            let mut new_cond = false;
            match op {
                OpCode::Return => {
                    // Resolve the value first: a faulting Return (empty page
                    // slot, queue operand) is counted but not attributed,
                    // like every other faulting command.
                    let value = if cmd.a() == NO_OPERAND {
                        ExecValue::None
                    } else {
                        match *self.slot(cidx, cmd.a(), cc)? {
                            OperandSlot::Int(v) => ExecValue::Int(v),
                            OperandSlot::Bool(b) => ExecValue::Bool(b),
                            OperandSlot::Page(Some(f)) => ExecValue::Page(f),
                            OperandSlot::Page(None) => {
                                return Err(PolicyFault::EmptyPageSlot { index: cmd.a(), cc })
                            }
                            OperandSlot::Kernel(v) => {
                                ExecValue::Int(self.containers[cidx].kernel_var(v, &self.vm))
                            }
                            OperandSlot::Queue(_) => {
                                return Err(PolicyFault::TypeMismatch {
                                    expected: "returnable value",
                                    found: "queue",
                                    cc,
                                })
                            }
                        }
                    };
                    let spent = self.vm.now().since(t0);
                    self.profile_op(cidx, op, spent);
                    return Ok(value);
                }
                OpCode::Arith => {
                    let aop = ArithOp::from_u8(cmd.c()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    let a = self.read_int(cidx, cmd.a(), cc)?;
                    let b = match aop {
                        ArithOp::Inc | ArithOp::Dec => 1,
                        _ => self.read_int(cidx, cmd.b(), cc)?,
                    };
                    let v = match aop {
                        ArithOp::Add | ArithOp::Inc => a.wrapping_add(b),
                        ArithOp::Sub | ArithOp::Dec => a.wrapping_sub(b),
                        ArithOp::Mul => a.wrapping_mul(b),
                        ArithOp::Div => {
                            if b == 0 {
                                return Err(PolicyFault::DivideByZero { cc });
                            }
                            a.wrapping_div(b)
                        }
                        ArithOp::Mod => {
                            if b == 0 {
                                return Err(PolicyFault::DivideByZero { cc });
                            }
                            a.wrapping_rem(b)
                        }
                        ArithOp::Mov => b,
                    };
                    self.write_int(cidx, cmd.a(), v, cc)?;
                }
                OpCode::Comp => {
                    let cop = CompOp::from_u8(cmd.c()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    let a = self.read_int(cidx, cmd.a(), cc)?;
                    let b = self.read_int(cidx, cmd.b(), cc)?;
                    new_cond = cop.eval(a, b);
                }
                OpCode::Logic => {
                    let lop = LogicOp::from_u8(cmd.c()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    match lop {
                        LogicOp::And => {
                            new_cond = self.read_bool(cidx, cmd.a(), cc)?
                                && self.read_bool(cidx, cmd.b(), cc)?
                        }
                        LogicOp::Or => {
                            new_cond = self.read_bool(cidx, cmd.a(), cc)?
                                || self.read_bool(cidx, cmd.b(), cc)?
                        }
                        LogicOp::Xor => {
                            new_cond = self.read_bool(cidx, cmd.a(), cc)?
                                ^ self.read_bool(cidx, cmd.b(), cc)?
                        }
                        LogicOp::Not => new_cond = !self.read_bool(cidx, cmd.a(), cc)?,
                        LogicOp::StoreCond => {
                            self.write_bool(cidx, cmd.a(), cond, cc)?;
                            new_cond = cond;
                        }
                        LogicOp::LoadCond => new_cond = self.read_bool(cidx, cmd.a(), cc)?,
                    }
                }
                OpCode::EmptyQ => {
                    let q = self.read_queue(cidx, cmd.a(), cc)?;
                    new_cond = self.vm.frames.queue_is_empty(q)?;
                }
                OpCode::InQ => {
                    let q = self.read_queue(cidx, cmd.a(), cc)?;
                    let page = self.read_page(cidx, cmd.b(), cc)?;
                    new_cond = self.vm.frames.queue_of(page)? == Some(q);
                }
                OpCode::Jump => {
                    let mode =
                        JumpMode::from_u8(cmd.a()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    let take = match mode {
                        JumpMode::IfFalse => !cond,
                        JumpMode::Always => true,
                        JumpMode::IfTrue => cond,
                    };
                    if take {
                        let target = cmd.jump_target();
                        if (target as usize) >= seg.len() {
                            return Err(PolicyFault::JumpOutOfRange {
                                target,
                                len: seg.len(),
                            });
                        }
                        cc = target as usize;
                        cond = false;
                        // Taken jumps bypass the loop tail; attribute here.
                        let spent = self.vm.now().since(t0);
                        self.profile_op(cidx, op, spent);
                        continue;
                    }
                }
                OpCode::DeQueue => {
                    let q = self.read_queue(cidx, cmd.b(), cc)?;
                    let end = QueueEnd::from_u8(cmd.c()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    let page = match end {
                        QueueEnd::Head => self.vm.frames.dequeue_head(q)?,
                        QueueEnd::Tail => self.vm.frames.dequeue_tail(q)?,
                    };
                    self.vm.charge(self.vm.cost.queue_op);
                    self.write_page(cidx, cmd.a(), page, cc)?;
                }
                OpCode::EnQueue => {
                    let page = self.read_page(cidx, cmd.a(), cc)?;
                    let q = self.read_queue(cidx, cmd.b(), cc)?;
                    let end = QueueEnd::from_u8(cmd.c()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    // Pushing onto the container's free queue is the eviction
                    // point: the page must be clean and gets unmapped.
                    if q == self.containers[cidx].free_q {
                        let frame = self.vm.frames.frame(page)?;
                        if frame.mod_bit {
                            return Err(PolicyFault::DirtyFree);
                        }
                        if frame.owner.is_some() {
                            self.vm.evict_frame(page)?;
                        }
                    }
                    if self.vm.frames.queue_of(page)?.is_some() {
                        self.vm.frames.remove(page)?;
                        self.vm.charge(self.vm.cost.queue_op);
                    }
                    match end {
                        QueueEnd::Head => self.vm.frames.enqueue_head(q, page)?,
                        QueueEnd::Tail => self.vm.frames.enqueue_tail(q, page)?,
                    }
                    self.vm.charge(self.vm.cost.queue_op);
                }
                OpCode::Request => {
                    let n = self.read_int(cidx, cmd.a(), cc)?;
                    let granted = self.gfm_request(cidx, n.max(0) as u64)?;
                    if cmd.b() != NO_OPERAND {
                        self.write_int(cidx, cmd.b(), granted as i64, cc)?;
                    }
                    new_cond = granted == n.max(0) as u64 && n > 0;
                }
                OpCode::Release => {
                    let page = self.read_page(cidx, cmd.a(), cc)?;
                    self.gfm_release(cidx, page)?;
                    self.write_page(cidx, cmd.a(), None, cc)?;
                }
                OpCode::Flush => {
                    let page = self.read_page(cidx, cmd.a(), cc)?;
                    let replacement = self.flush_exchange(cidx, page)?;
                    self.write_page(cidx, cmd.a(), Some(replacement), cc)?;
                }
                OpCode::Set => {
                    let page = self.read_page(cidx, cmd.a(), cc)?;
                    let bit = PageBit::from_u8(cmd.b()).ok_or(PolicyFault::BadFlag { cmd, cc })?;
                    let value = match cmd.c() {
                        0 => false,
                        1 => true,
                        _ => return Err(PolicyFault::BadFlag { cmd, cc }),
                    };
                    self.vm.charge(self.vm.cost.bit_op);
                    let frame = self.vm.frames.frame_mut(page)?;
                    match bit {
                        PageBit::Reference => frame.ref_bit = value,
                        PageBit::Modify => {
                            if !value && frame.mod_bit {
                                // Clearing the modify bit of a dirty page
                                // would lose data; policies must Flush.
                                return Err(PolicyFault::UnsafeModClear);
                            }
                            frame.mod_bit = value;
                        }
                    }
                }
                OpCode::Ref => {
                    let page = self.read_page(cidx, cmd.a(), cc)?;
                    self.vm.charge(self.vm.cost.bit_op);
                    new_cond = self.vm.frames.frame(page)?.ref_bit;
                }
                OpCode::Mod => {
                    let page = self.read_page(cidx, cmd.a(), cc)?;
                    self.vm.charge(self.vm.cost.bit_op);
                    new_cond = self.vm.frames.frame(page)?.mod_bit;
                }
                OpCode::Find => {
                    let vaddr = self.read_int(cidx, cmd.b(), cc)?;
                    let task = self.containers[cidx].task;
                    let vpage = (vaddr.max(0) as u64) / hipec_vm::PAGE_SIZE;
                    let frame = self
                        .vm
                        .task(task)
                        .map_err(PolicyFault::Vm)?
                        .translate(vpage);
                    self.vm.charge(self.vm.cost.mem_touch);
                    self.write_page(cidx, cmd.a(), frame, cc)?;
                }
                OpCode::Activate => {
                    if depth >= self.limits.max_depth {
                        return Err(PolicyFault::DepthExceeded);
                    }
                    // Procedure-call semantics: the nested event's return
                    // value is discarded.
                    self.run_event(cidx, cmd.a(), depth + 1, fuel)?;
                }
                OpCode::Fifo | OpCode::Lru | OpCode::Mru => {
                    let q = self.read_queue(cidx, cmd.a(), cc)?;
                    let victim = match op {
                        // FIFO and LRU reclaim the head (oldest-enqueued /
                        // least-recently-used of a recency queue); MRU the
                        // tail.
                        OpCode::Fifo | OpCode::Lru => self.vm.frames.dequeue_head(q)?,
                        _ => self.vm.frames.dequeue_tail(q)?,
                    };
                    self.vm.charge(self.vm.cost.queue_op);
                    match victim {
                        Some(v) => {
                            let freed = self.reclaim_one(cidx, v)?;
                            if cmd.b() != NO_OPERAND {
                                self.write_page(cidx, cmd.b(), Some(freed), cc)?;
                            }
                            new_cond = true;
                        }
                        None => new_cond = false,
                    }
                }
                OpCode::Migrate => {
                    let target = self.read_int(cidx, cmd.a(), cc)?;
                    self.migrate_frame(cidx, target)?;
                }
            }
            let spent = self.vm.now().since(t0);
            self.profile_op(cidx, op, spent);
            cond = if op.is_test() { new_cond } else { false };
            cc += 1;
        }
    }

    /// Turns a replacement victim into a clean free frame on the container's
    /// free queue (the body of the `FIFO`/`LRU`/`MRU` complex commands).
    /// Returns the frame that landed on the free queue.
    pub(crate) fn reclaim_one(
        &mut self,
        cidx: usize,
        victim: FrameId,
    ) -> Result<FrameId, PolicyFault> {
        self.vm.charge(self.vm.cost.bit_op);
        let dirty = self.vm.frames.frame(victim)?.mod_bit;
        let freed = if dirty {
            self.flush_exchange(cidx, victim)?
        } else {
            self.vm.evict_frame(victim)?;
            victim
        };
        let free_q = self.containers[cidx].free_q;
        self.vm.frames.enqueue_tail(free_q, freed)?;
        self.vm.charge(self.vm.cost.queue_op);
        Ok(freed)
    }

    // --- Typed operand access ------------------------------------------------

    pub(crate) fn slot(
        &self,
        cidx: usize,
        idx: u8,
        cc: usize,
    ) -> Result<&OperandSlot, PolicyFault> {
        self.containers[cidx]
            .operands
            .get(idx as usize)
            .ok_or(PolicyFault::BadOperandIndex { index: idx, cc })
    }

    pub(crate) fn read_int(&self, cidx: usize, idx: u8, cc: usize) -> Result<i64, PolicyFault> {
        match *self.slot(cidx, idx, cc)? {
            OperandSlot::Int(v) => Ok(v),
            OperandSlot::Kernel(v) => Ok(self.containers[cidx].kernel_var(v, &self.vm)),
            ref s => Err(PolicyFault::TypeMismatch {
                expected: "int",
                found: s.type_name(),
                cc,
            }),
        }
    }

    pub(crate) fn write_int(
        &mut self,
        cidx: usize,
        idx: u8,
        v: i64,
        cc: usize,
    ) -> Result<(), PolicyFault> {
        match self.slot(cidx, idx, cc)? {
            OperandSlot::Int(_) => {
                self.containers[cidx].operands[idx as usize] = OperandSlot::Int(v);
                Ok(())
            }
            OperandSlot::Kernel(_) => Err(PolicyFault::ReadOnlySlot { index: idx, cc }),
            s => Err(PolicyFault::TypeMismatch {
                expected: "int",
                found: s.type_name(),
                cc,
            }),
        }
    }

    pub(crate) fn read_bool(&self, cidx: usize, idx: u8, cc: usize) -> Result<bool, PolicyFault> {
        match *self.slot(cidx, idx, cc)? {
            OperandSlot::Bool(b) => Ok(b),
            ref s => Err(PolicyFault::TypeMismatch {
                expected: "bool",
                found: s.type_name(),
                cc,
            }),
        }
    }

    pub(crate) fn write_bool(
        &mut self,
        cidx: usize,
        idx: u8,
        v: bool,
        cc: usize,
    ) -> Result<(), PolicyFault> {
        match self.slot(cidx, idx, cc)? {
            OperandSlot::Bool(_) => {
                self.containers[cidx].operands[idx as usize] = OperandSlot::Bool(v);
                Ok(())
            }
            s => Err(PolicyFault::TypeMismatch {
                expected: "bool",
                found: s.type_name(),
                cc,
            }),
        }
    }

    pub(crate) fn read_page(
        &self,
        cidx: usize,
        idx: u8,
        cc: usize,
    ) -> Result<FrameId, PolicyFault> {
        match *self.slot(cidx, idx, cc)? {
            OperandSlot::Page(Some(f)) => Ok(f),
            OperandSlot::Page(None) => Err(PolicyFault::EmptyPageSlot { index: idx, cc }),
            ref s => Err(PolicyFault::TypeMismatch {
                expected: "page",
                found: s.type_name(),
                cc,
            }),
        }
    }

    pub(crate) fn write_page(
        &mut self,
        cidx: usize,
        idx: u8,
        v: Option<FrameId>,
        cc: usize,
    ) -> Result<(), PolicyFault> {
        let prev = match *self.slot(cidx, idx, cc)? {
            OperandSlot::Page(p) => p,
            ref s => {
                return Err(PolicyFault::TypeMismatch {
                    expected: "page",
                    found: s.type_name(),
                    cc,
                })
            }
        };
        if let Some(old) = prev {
            if v != Some(old) {
                // Overwriting the slot may destroy the last handle to a
                // parked frame; the kernel reclaims it rather than letting
                // a buggy policy leak it (see `reclaim_orphaned_frame`).
                self.reclaim_orphaned_frame(cidx, idx, old);
            }
        }
        self.containers[cidx].operands[idx as usize] = OperandSlot::Page(v);
        Ok(())
    }

    pub(crate) fn read_queue(
        &self,
        cidx: usize,
        idx: u8,
        cc: usize,
    ) -> Result<QueueId, PolicyFault> {
        match *self.slot(cidx, idx, cc)? {
            OperandSlot::Queue(q) => Ok(q),
            ref s => Err(PolicyFault::TypeMismatch {
                expected: "queue",
                found: s.type_name(),
                cc,
            }),
        }
    }
}

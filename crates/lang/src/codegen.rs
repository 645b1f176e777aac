//! Code generation: AST → HiPEC command streams.
//!
//! The generator targets the condition-flag architecture of the command
//! set: conditions compile to *test* commands followed by moded `Jump`s,
//! `&&`/`||` short-circuit through labels, and integer expressions compile
//! to the two-address `Arith` command through a small pool of temporary
//! operand slots. Jumps are backpatched once an event's layout is final.

use std::collections::HashMap;

use hipec_core::command::{build, ArithOp, JumpMode, OpCode, PageBit, QueueEnd, RawCmd};
use hipec_core::{KernelVar, OperandDecl, PolicyProgram, NO_OPERAND};

use crate::ast::{
    Builtin, Cond, Decl, EventDef, IntBinOp, IntExpr, PageExpr, Policy, ReplaceKind, RetVal, Stmt,
};
use crate::diag::{Diagnostic, Span};

/// Compiles a parsed policy into a [`PolicyProgram`].
pub fn compile_ast(ast: &Policy) -> Result<PolicyProgram, Vec<Diagnostic>> {
    Codegen::default().run(ast)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SymKind {
    Int,
    Bool,
    Page,
    Queue,
    KernelInt,
}

#[derive(Debug, Clone, Copy)]
struct Sym {
    slot: u8,
    kind: SymKind,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Label(usize);

#[derive(Default)]
struct Codegen {
    decls: Vec<OperandDecl>,
    scopes: Vec<HashMap<String, Sym>>,
    const_slots: HashMap<i64, u8>,
    temp_free: Vec<u8>,
    temp_slots: Vec<u8>,
    event_ids: HashMap<String, u8>,
    code: Vec<RawCmd>,
    labels: Vec<Option<u16>>,
    fixups: Vec<(usize, Label)>,
    /// (head, exit) labels of enclosing `while` loops.
    loop_stack: Vec<(Label, Label)>,
    errors: Vec<Diagnostic>,
}

const KERNEL_COUNTERS: [(&str, KernelVar); 7] = [
    ("free_count", KernelVar::FreeCount),
    ("active_count", KernelVar::ActiveCount),
    ("inactive_count", KernelVar::InactiveCount),
    ("allocated_count", KernelVar::AllocatedCount),
    ("min_frames", KernelVar::MinFrames),
    ("global_free_count", KernelVar::GlobalFreeCount),
    ("reclaim_target", KernelVar::ReclaimTarget),
];

type CgResult<T> = Result<T, Diagnostic>;

impl Codegen {
    fn run(mut self, ast: &Policy) -> Result<PolicyProgram, Vec<Diagnostic>> {
        self.scopes.push(HashMap::new());

        // Event numbering: PageFault = 0, ReclaimFrame = 1, rest in order.
        let mut ordered: Vec<Option<&EventDef>> = vec![None, None];
        for ev in &ast.events {
            let id = match ev.name.as_str() {
                "PageFault" => 0,
                "ReclaimFrame" => 1,
                _ => {
                    ordered.push(Some(ev));
                    ordered.len() - 1
                }
            };
            if id < 2 {
                if ordered[id].is_some() {
                    self.errors.push(Diagnostic::new(
                        ev.span,
                        format!("duplicate event `{}`", ev.name),
                    ));
                }
                ordered[id] = Some(ev);
            }
            if self.event_ids.insert(ev.name.clone(), id as u8).is_some() && id >= 2 {
                self.errors.push(Diagnostic::new(
                    ev.span,
                    format!("duplicate event `{}`", ev.name),
                ));
            }
        }
        if ordered[0].is_none() {
            self.errors.push(Diagnostic::new(
                Span::default(),
                "missing mandatory event `PageFault`",
            ));
        }
        if ordered[1].is_none() {
            self.errors.push(Diagnostic::new(
                Span::default(),
                "missing mandatory event `ReclaimFrame`",
            ));
        }

        // Globals.
        for d in &ast.globals {
            if let Err(e) = self.global_decl(d) {
                self.errors.push(e);
            }
        }

        // Events.
        let mut program = PolicyProgram::new();
        let mut compiled: Vec<(String, Vec<RawCmd>)> = Vec::new();
        for ev in ordered.iter().flatten() {
            match self.event(ev) {
                Ok(code) => compiled.push((ev.name.clone(), code)),
                Err(e) => self.errors.push(e),
            }
        }
        if !self.errors.is_empty() {
            return Err(self.errors);
        }
        program.decls = self.decls;
        for (name, code) in compiled {
            program.add_event(name, code);
        }
        Ok(program)
    }

    // --- Declarations and symbols -------------------------------------------

    fn declare_slot(&mut self, decl: OperandDecl, span: Span) -> CgResult<u8> {
        if self.decls.len() >= 255 {
            return Err(Diagnostic::new(
                span,
                "too many variables: the operand array holds 255 slots",
            ));
        }
        self.decls.push(decl);
        Ok((self.decls.len() - 1) as u8)
    }

    fn define(&mut self, name: &str, sym: Sym, span: Span) -> CgResult<()> {
        let scope = self.scopes.last_mut().expect("scope stack is non-empty");
        if scope.insert(name.to_string(), sym).is_some() {
            return Err(Diagnostic::new(
                span,
                format!("`{name}` is already declared in this scope"),
            ));
        }
        Ok(())
    }

    fn lookup(&mut self, name: &str, span: Span) -> CgResult<Sym> {
        for scope in self.scopes.iter().rev() {
            if let Some(s) = scope.get(name) {
                return Ok(*s);
            }
        }
        // Kernel symbols materialize on first use.
        if name == "free_queue" {
            let slot = self.declare_slot(OperandDecl::FreeQueue, span)?;
            let sym = Sym {
                slot,
                kind: SymKind::Queue,
            };
            self.scopes[0].insert(name.to_string(), sym);
            return Ok(sym);
        }
        if let Some((_, var)) = KERNEL_COUNTERS.iter().find(|(n, _)| *n == name) {
            let slot = self.declare_slot(OperandDecl::Kernel(*var), span)?;
            let sym = Sym {
                slot,
                kind: SymKind::KernelInt,
            };
            self.scopes[0].insert(name.to_string(), sym);
            return Ok(sym);
        }
        Err(Diagnostic::new(
            span,
            format!("undeclared identifier `{name}`"),
        ))
    }

    fn lookup_kind(&mut self, name: &str, kind: SymKind, span: Span) -> CgResult<Sym> {
        let s = self.lookup(name, span)?;
        if s.kind != kind && !(kind == SymKind::Int && s.kind == SymKind::KernelInt) {
            return Err(Diagnostic::new(
                span,
                format!("`{name}` has the wrong type here"),
            ));
        }
        Ok(s)
    }

    fn const_slot(&mut self, v: i64, span: Span) -> CgResult<u8> {
        if let Some(&s) = self.const_slots.get(&v) {
            return Ok(s);
        }
        let s = self.declare_slot(OperandDecl::Int(v), span)?;
        self.const_slots.insert(v, s);
        Ok(s)
    }

    fn alloc_temp(&mut self, span: Span) -> CgResult<u8> {
        if let Some(t) = self.temp_free.pop() {
            return Ok(t);
        }
        let t = self.declare_slot(OperandDecl::Int(0), span)?;
        self.temp_slots.push(t);
        Ok(t)
    }

    fn free_temp(&mut self, slot: u8) {
        if self.temp_slots.contains(&slot) {
            self.temp_free.push(slot);
        }
    }

    fn global_decl(&mut self, d: &Decl) -> CgResult<()> {
        match d {
            Decl::Int { name, init, span } => {
                let IntExpr::Lit(v) = init else {
                    return Err(Diagnostic::new(
                        *span,
                        "top-level int initializers must be literals",
                    ));
                };
                let slot = self.declare_slot(OperandDecl::Int(*v), *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Int,
                    },
                    *span,
                )
            }
            Decl::Bool { name, init, span } => {
                let slot = self.declare_slot(OperandDecl::Bool(*init), *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Bool,
                    },
                    *span,
                )
            }
            Decl::Page { name, init, span } => {
                if init.is_some() {
                    return Err(Diagnostic::new(
                        *span,
                        "top-level page declarations cannot have initializers",
                    ));
                }
                let slot = self.declare_slot(OperandDecl::Page, *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Page,
                    },
                    *span,
                )
            }
            Decl::Queue {
                name,
                recency,
                span,
            } => {
                let slot = self.declare_slot(OperandDecl::Queue { recency: *recency }, *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Queue,
                    },
                    *span,
                )
            }
        }
    }

    // --- Labels ---------------------------------------------------------------

    fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    fn bind(&mut self, l: Label) {
        debug_assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.code.len() as u16);
    }

    fn jump(&mut self, mode: JumpMode, l: Label) {
        self.fixups.push((self.code.len(), l));
        self.code.push(build::jump(mode, 0xFFFF));
    }

    // --- Events ----------------------------------------------------------------

    fn event(&mut self, ev: &EventDef) -> CgResult<Vec<RawCmd>> {
        self.code.clear();
        self.labels.clear();
        self.fixups.clear();
        self.loop_stack.clear();
        self.scopes.push(HashMap::new());
        let result = self.block(&ev.body);
        self.scopes.pop();
        result?;
        // Implicit `return;` when control can reach the end of the segment:
        // either by falling through the last instruction, or via a label
        // bound one past it.
        let end = self.code.len() as u16;
        let label_at_end = self.labels.contains(&Some(end));
        let falls_through = match self.code.last() {
            None => true,
            Some(c) if c.op_byte() == OpCode::Return as u8 => false,
            Some(c) if c.op_byte() == OpCode::Jump as u8 => c.a() != JumpMode::Always as u8,
            Some(_) => true,
        };
        if label_at_end || falls_through {
            self.code.push(build::ret(NO_OPERAND));
        }
        // Backpatch.
        for (at, l) in std::mem::take(&mut self.fixups) {
            let target = self.labels[l.0].ok_or_else(|| {
                Diagnostic::new(ev.span, "internal error: unbound label".to_string())
            })?;
            let mode = self.code[at].a();
            self.code[at] = build::jump(
                JumpMode::from_u8(mode).expect("mode was emitted by us"),
                target,
            );
        }
        Ok(std::mem::take(&mut self.code))
    }

    fn block(&mut self, stmts: &[Stmt]) -> CgResult<()> {
        self.scopes.push(HashMap::new());
        let r = stmts.iter().try_for_each(|s| self.stmt(s));
        self.scopes.pop();
        r
    }

    fn stmt(&mut self, s: &Stmt) -> CgResult<()> {
        match s {
            Stmt::Decl(d) => self.local_decl(d),
            Stmt::AssignInt(target, e, span) => {
                let sym = self.lookup(target, *span)?;
                match sym.kind {
                    SymKind::Int => self.int_into(sym.slot, e, *span),
                    SymKind::Page => match e {
                        IntExpr::Var(v) => {
                            let src = self.lookup_kind(v, SymKind::Page, *span)?;
                            if src.slot == sym.slot {
                                Ok(())
                            } else {
                                Err(Diagnostic::new(
                                    *span,
                                    "page-to-page copies are not expressible in the command set",
                                ))
                            }
                        }
                        _ => Err(Diagnostic::new(
                            *span,
                            format!("`{target}` is a page; assign a page expression"),
                        )),
                    },
                    SymKind::Bool => match e {
                        IntExpr::Var(v) => {
                            let src = self.lookup_kind(v, SymKind::Bool, *span)?;
                            self.code.push(build::logic(
                                src.slot,
                                NO_OPERAND,
                                hipec_core::command::LogicOp::LoadCond,
                            ));
                            self.code.push(build::logic(
                                sym.slot,
                                NO_OPERAND,
                                hipec_core::command::LogicOp::StoreCond,
                            ));
                            Ok(())
                        }
                        _ => Err(Diagnostic::new(
                            *span,
                            format!("`{target}` is a bool; assign a condition"),
                        )),
                    },
                    SymKind::KernelInt => Err(Diagnostic::new(
                        *span,
                        format!("`{target}` is a read-only kernel counter"),
                    )),
                    SymKind::Queue => Err(Diagnostic::new(
                        *span,
                        format!("`{target}` is a queue and cannot be assigned"),
                    )),
                }
            }
            Stmt::AssignPage(target, pe, span) => {
                let sym = self.lookup_kind(target, SymKind::Page, *span)?;
                self.page_into(sym.slot, pe, *span)
            }
            Stmt::AssignBool(target, c, span) => {
                let sym = self.lookup_kind(target, SymKind::Bool, *span)?;
                self.bool_assign(sym.slot, c, *span)
            }
            Stmt::If(c, then_b, else_b, span) => {
                let lt = self.label();
                let lf = self.label();
                let lend = self.label();
                self.cond(c, lt, lf, *span)?;
                self.bind(lt);
                self.block(then_b)?;
                self.jump(JumpMode::Always, lend);
                self.bind(lf);
                self.block(else_b)?;
                self.bind(lend);
                Ok(())
            }
            Stmt::While(c, body, span) => {
                let lhead = self.label();
                let lt = self.label();
                let lf = self.label();
                self.bind(lhead);
                self.cond(c, lt, lf, *span)?;
                self.bind(lt);
                self.loop_stack.push((lhead, lf));
                let body_result = self.block(body);
                self.loop_stack.pop();
                body_result?;
                self.jump(JumpMode::Always, lhead);
                self.bind(lf);
                Ok(())
            }
            Stmt::Return(value, span) => {
                let slot = match value {
                    None => NO_OPERAND,
                    Some(RetVal::Page(pe)) => self.page_to_slot(pe, *span)?,
                    Some(RetVal::Int(IntExpr::Var(v))) => self.lookup(v, *span)?.slot,
                    Some(RetVal::Int(e)) => self.int_to_slot(e, *span)?,
                };
                self.code.push(build::ret(slot));
                Ok(())
            }
            Stmt::Activate(name, span) => {
                let id = *self
                    .event_ids
                    .get(name)
                    .ok_or_else(|| Diagnostic::new(*span, format!("unknown event `{name}`")))?;
                self.code.push(build::activate(id));
                Ok(())
            }
            Stmt::Break(span) => {
                let (_, exit) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| Diagnostic::new(*span, "`break` outside of a loop"))?;
                self.jump(JumpMode::Always, exit);
                Ok(())
            }
            Stmt::Continue(span) => {
                let (head, _) = *self
                    .loop_stack
                    .last()
                    .ok_or_else(|| Diagnostic::new(*span, "`continue` outside of a loop"))?;
                self.jump(JumpMode::Always, head);
                Ok(())
            }
            Stmt::Call(b, span) => self.builtin(b, *span),
        }
    }

    fn local_decl(&mut self, d: &Decl) -> CgResult<()> {
        match d {
            Decl::Int { name, init, span } => {
                let slot = self.declare_slot(OperandDecl::Int(0), *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Int,
                    },
                    *span,
                )?;
                self.int_into(slot, init, *span)
            }
            Decl::Bool { name, init, span } => {
                let slot = self.declare_slot(OperandDecl::Bool(*init), *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Bool,
                    },
                    *span,
                )?;
                self.bool_assign(slot, &Cond::Lit(*init), *span)
            }
            Decl::Page { name, init, span } => {
                let slot = self.declare_slot(OperandDecl::Page, *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Page,
                    },
                    *span,
                )?;
                if let Some(pe) = init {
                    self.page_into(slot, pe, *span)?;
                }
                Ok(())
            }
            Decl::Queue {
                name,
                recency,
                span,
            } => {
                let slot = self.declare_slot(OperandDecl::Queue { recency: *recency }, *span)?;
                self.define(
                    name,
                    Sym {
                        slot,
                        kind: SymKind::Queue,
                    },
                    *span,
                )
            }
        }
    }

    fn builtin(&mut self, b: &Builtin, span: Span) -> CgResult<()> {
        match b {
            Builtin::EnqueueHead(q, p) | Builtin::EnqueueTail(q, p) => {
                let qs = self.lookup_kind(q, SymKind::Queue, span)?;
                let ps = self.lookup_kind(p, SymKind::Page, span)?;
                let end = if matches!(b, Builtin::EnqueueHead(..)) {
                    QueueEnd::Head
                } else {
                    QueueEnd::Tail
                };
                self.code.push(build::enqueue(ps.slot, qs.slot, end));
                Ok(())
            }
            Builtin::Flush(p) => {
                let ps = self.lookup_kind(p, SymKind::Page, span)?;
                self.code.push(build::flush(ps.slot));
                Ok(())
            }
            Builtin::Release(p) => {
                let ps = self.lookup_kind(p, SymKind::Page, span)?;
                self.code.push(build::release(ps.slot));
                Ok(())
            }
            Builtin::SetBit {
                page,
                reference,
                value,
            } => {
                let ps = self.lookup_kind(page, SymKind::Page, span)?;
                let bit = if *reference {
                    PageBit::Reference
                } else {
                    PageBit::Modify
                };
                self.code.push(build::set(ps.slot, bit, *value));
                Ok(())
            }
            Builtin::Migrate(e) => {
                let slot = self.int_to_slot(e, span)?;
                self.code.push(build::migrate(slot));
                self.free_temp(slot);
                Ok(())
            }
            Builtin::Request(e) => {
                let slot = self.int_to_slot(e, span)?;
                self.code.push(build::request(slot, NO_OPERAND));
                self.free_temp(slot);
                Ok(())
            }
            Builtin::Replace(kind, q) => self.replace(*kind, q, NO_OPERAND, span),
        }
    }

    /// Emits `fifo`/`lru`/`mru` over queue `q`, landing the freed page in
    /// `dst`. LRU and MRU read the kernel-maintained recency order, so `q`
    /// must be declared `recency queue` (the validator rejects the command
    /// otherwise; reporting it here gives the user a source position).
    fn replace(&mut self, kind: ReplaceKind, q: &str, dst: u8, span: Span) -> CgResult<()> {
        let qs = self.lookup_kind(q, SymKind::Queue, span)?;
        let recency = self.decls[qs.slot as usize] == OperandDecl::Queue { recency: true };
        let cmd = match kind {
            ReplaceKind::Fifo => build::fifo(qs.slot, dst),
            ReplaceKind::Lru if recency => build::lru(qs.slot, dst),
            ReplaceKind::Mru if recency => build::mru(qs.slot, dst),
            ReplaceKind::Lru | ReplaceKind::Mru => {
                let name = if kind == ReplaceKind::Lru {
                    "lru"
                } else {
                    "mru"
                };
                return Err(Diagnostic::new(
                    span,
                    format!(
                        "`{name}` needs a recency-ordered queue: declare `{q}` as `recency queue`"
                    ),
                ));
            }
        };
        self.code.push(cmd);
        Ok(())
    }

    // --- Page expressions -------------------------------------------------------

    fn page_into(&mut self, dst: u8, pe: &PageExpr, span: Span) -> CgResult<()> {
        match pe {
            PageExpr::Var(v) => {
                let src = self.lookup_kind(v, SymKind::Page, span)?;
                if src.slot == dst {
                    Ok(())
                } else {
                    Err(Diagnostic::new(
                        span,
                        "page-to-page copies are not expressible in the command set",
                    ))
                }
            }
            PageExpr::DequeueHead(q) => {
                let qs = self.lookup_kind(q, SymKind::Queue, span)?;
                self.code.push(build::dequeue(dst, qs.slot, QueueEnd::Head));
                Ok(())
            }
            PageExpr::DequeueTail(q) => {
                let qs = self.lookup_kind(q, SymKind::Queue, span)?;
                self.code.push(build::dequeue(dst, qs.slot, QueueEnd::Tail));
                Ok(())
            }
            PageExpr::Replace(kind, q) => self.replace(*kind, q, dst, span),
            PageExpr::Find(e) => {
                let slot = self.int_to_slot(e, span)?;
                self.code.push(build::find(dst, slot));
                self.free_temp(slot);
                Ok(())
            }
        }
    }

    fn page_to_slot(&mut self, pe: &PageExpr, span: Span) -> CgResult<u8> {
        if let PageExpr::Var(v) = pe {
            return Ok(self.lookup_kind(v, SymKind::Page, span)?.slot);
        }
        let dst = self.declare_slot(OperandDecl::Page, span)?;
        self.page_into(dst, pe, span)?;
        Ok(dst)
    }

    // --- Integer expressions ------------------------------------------------------

    fn int_to_slot(&mut self, e: &IntExpr, span: Span) -> CgResult<u8> {
        match e {
            IntExpr::Lit(v) => self.const_slot(*v, span),
            IntExpr::Var(v) => Ok(self.lookup_kind(v, SymKind::Int, span)?.slot),
            IntExpr::Bin(l, op, r) => {
                let dst = self.alloc_temp(span)?;
                let ls = self.int_to_slot(l, span)?;
                self.code.push(build::arith(dst, ls, ArithOp::Mov));
                self.free_temp(ls);
                let rs = self.int_to_slot(r, span)?;
                self.code.push(build::arith(dst, rs, arith_op(*op)));
                self.free_temp(rs);
                Ok(dst)
            }
        }
    }

    fn int_into(&mut self, dst: u8, e: &IntExpr, span: Span) -> CgResult<()> {
        // Evaluate into a fresh slot first so `x = y - x` reads the old `x`.
        let src = self.int_to_slot(e, span)?;
        if src != dst {
            self.code.push(build::arith(dst, src, ArithOp::Mov));
        }
        self.free_temp(src);
        Ok(())
    }

    // --- Conditions ------------------------------------------------------------------

    fn cond(&mut self, c: &Cond, lt: Label, lf: Label, span: Span) -> CgResult<()> {
        match c {
            Cond::Lit(true) => {
                self.jump(JumpMode::Always, lt);
                Ok(())
            }
            Cond::Lit(false) => {
                self.jump(JumpMode::Always, lf);
                Ok(())
            }
            Cond::Cmp(l, op, r) => {
                let ls = self.int_to_slot(l, span)?;
                let rs = self.int_to_slot(r, span)?;
                self.code.push(build::comp(ls, rs, *op));
                self.free_temp(ls);
                self.free_temp(rs);
                self.branch(lt, lf);
                Ok(())
            }
            Cond::Referenced(p) => {
                let ps = self.lookup_kind(p, SymKind::Page, span)?;
                self.code.push(build::is_ref(ps.slot));
                self.branch(lt, lf);
                Ok(())
            }
            Cond::Modified(p) => {
                let ps = self.lookup_kind(p, SymKind::Page, span)?;
                self.code.push(build::is_mod(ps.slot));
                self.branch(lt, lf);
                Ok(())
            }
            Cond::Empty(q) => {
                let qs = self.lookup_kind(q, SymKind::Queue, span)?;
                self.code.push(build::emptyq(qs.slot));
                self.branch(lt, lf);
                Ok(())
            }
            Cond::InQueue(q, p) => {
                let qs = self.lookup_kind(q, SymKind::Queue, span)?;
                let ps = self.lookup_kind(p, SymKind::Page, span)?;
                self.code.push(build::inq(qs.slot, ps.slot));
                self.branch(lt, lf);
                Ok(())
            }
            Cond::Request(e) => {
                let slot = self.int_to_slot(e, span)?;
                self.code.push(build::request(slot, NO_OPERAND));
                self.free_temp(slot);
                self.branch(lt, lf);
                Ok(())
            }
            Cond::Var(v) => {
                let vs = self.lookup_kind(v, SymKind::Bool, span)?;
                self.code.push(build::logic(
                    vs.slot,
                    NO_OPERAND,
                    hipec_core::command::LogicOp::LoadCond,
                ));
                self.branch(lt, lf);
                Ok(())
            }
            Cond::Not(inner) => self.cond(inner, lf, lt, span),
            Cond::And(a, b) => {
                let mid = self.label();
                self.cond(a, mid, lf, span)?;
                self.bind(mid);
                self.cond(b, lt, lf, span)
            }
            Cond::Or(a, b) => {
                let mid = self.label();
                self.cond(a, lt, mid, span)?;
                self.bind(mid);
                self.cond(b, lt, lf, span)
            }
        }
    }

    /// After a test command: branch to `lt` on true, `lf` on false.
    fn branch(&mut self, lt: Label, lf: Label) {
        self.jump(JumpMode::IfTrue, lt);
        self.jump(JumpMode::Always, lf);
    }

    fn bool_assign(&mut self, dst: u8, c: &Cond, span: Span) -> CgResult<()> {
        let lt = self.label();
        let lf = self.label();
        let lend = self.label();
        let zero = self.const_slot(0, span)?;
        self.cond(c, lt, lf, span)?;
        self.bind(lt);
        // Force the flag true, store it.
        self.code
            .push(build::comp(zero, zero, hipec_core::command::CompOp::Eq));
        self.code.push(build::logic(
            dst,
            NO_OPERAND,
            hipec_core::command::LogicOp::StoreCond,
        ));
        self.jump(JumpMode::Always, lend);
        self.bind(lf);
        self.code
            .push(build::comp(zero, zero, hipec_core::command::CompOp::Ne));
        self.code.push(build::logic(
            dst,
            NO_OPERAND,
            hipec_core::command::LogicOp::StoreCond,
        ));
        self.bind(lend);
        Ok(())
    }
}

fn arith_op(op: IntBinOp) -> ArithOp {
    match op {
        IntBinOp::Add => ArithOp::Add,
        IntBinOp::Sub => ArithOp::Sub,
        IntBinOp::Mul => ArithOp::Mul,
        IntBinOp::Div => ArithOp::Div,
        IntBinOp::Mod => ArithOp::Mod,
    }
}

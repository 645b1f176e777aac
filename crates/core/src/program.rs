//! Policy programs: event segments, operand declarations, wire format.
//!
//! A policy program is what a specific application installs: operand
//! declarations plus one command segment per event. Events `0`
//! ([`EVENT_PAGE_FAULT`]) and `1` ([`EVENT_RECLAIM_FRAME`]) are
//! kernel-defined and mandatory (paper §4.2); further events are reached
//! via `Activate`.
//!
//! The wire format mirrors the paper's command buffer: a stream of 32-bit
//! words starting with a magic number, wired read-only in user space. The
//! [`PolicyProgram::to_words`]/[`PolicyProgram::from_words`] pair
//! round-trips it.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::command::RawCmd;
use crate::operand::{KernelVar, OperandDecl};

/// The kernel-defined page-fault event.
pub const EVENT_PAGE_FAULT: u8 = 0;
/// The kernel-defined frame-reclaim event.
pub const EVENT_RECLAIM_FRAME: u8 = 1;

/// The magic number heading every command buffer ("HiPE").
pub const HIPEC_MAGIC: u32 = 0x4869_5045;
/// Wire-format version.
pub const WIRE_VERSION: u32 = 1;
/// Entries in a container's operand array: the most declarations a
/// command buffer may carry.
pub const OPERAND_SLOTS: u32 = 256;

/// A complete application policy.
#[derive(Debug, Clone)]
pub struct PolicyProgram {
    /// Operand-array declarations (slot *i* is entry *i*).
    pub decls: Vec<OperandDecl>,
    /// Command segments, indexed by event number.
    pub events: Vec<Arc<Vec<RawCmd>>>,
    /// Event names for diagnostics (parallel to `events`).
    pub event_names: Vec<String>,
}

// Hand-written (de)serialization: the `Arc` wrapper around each event
// segment is an in-memory sharing detail, so the serialized form flattens
// events to plain `Vec<Vec<u32>>` command words.
impl Serialize for PolicyProgram {
    fn to_value(&self) -> serde::Value {
        let plain: Vec<Vec<u32>> = self
            .events
            .iter()
            .map(|e| e.iter().map(|c| c.0).collect())
            .collect();
        let mut m = serde::Map::new();
        m.insert("decls".to_string(), self.decls.to_value());
        m.insert("events".to_string(), plain.to_value());
        m.insert("event_names".to_string(), self.event_names.to_value());
        serde::Value::Object(m)
    }
}

impl Deserialize for PolicyProgram {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let m = v
            .as_object()
            .ok_or_else(|| serde::DeError::custom("expected object for PolicyProgram"))?;
        let field = |name: &str| {
            m.get(name)
                .ok_or_else(|| serde::DeError::custom(format!("missing field `{name}`")))
        };
        let plain = Vec::<Vec<u32>>::from_value(field("events")?)?;
        Ok(PolicyProgram {
            decls: Deserialize::from_value(field("decls")?)?,
            events: plain
                .into_iter()
                .map(|e| Arc::new(e.into_iter().map(RawCmd).collect()))
                .collect(),
            event_names: Deserialize::from_value(field("event_names")?)?,
        })
    }
}

/// Errors from decoding a wire-format command buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The buffer does not start with [`HIPEC_MAGIC`].
    BadMagic(u32),
    /// Unsupported wire version.
    BadVersion(u32),
    /// The buffer ended mid-structure.
    Truncated,
    /// An operand declaration tag is unknown.
    BadDeclTag(u32),
    /// A kernel-variable code is unknown.
    BadKernelVar(u32),
    /// The buffer declares more operands than the operand array holds.
    TooManyDecls(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad magic 0x{m:08x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated => write!(f, "truncated command buffer"),
            WireError::BadDeclTag(t) => write!(f, "unknown operand declaration tag {t}"),
            WireError::BadKernelVar(v) => write!(f, "unknown kernel variable code {v}"),
            WireError::TooManyDecls(n) => write!(
                f,
                "{n} operand declarations; the operand array holds {OPERAND_SLOTS}"
            ),
        }
    }
}

impl std::error::Error for WireError {}

const KERNEL_VARS: [KernelVar; 7] = [
    KernelVar::FreeCount,
    KernelVar::ActiveCount,
    KernelVar::InactiveCount,
    KernelVar::AllocatedCount,
    KernelVar::MinFrames,
    KernelVar::GlobalFreeCount,
    KernelVar::ReclaimTarget,
];

fn kernel_var_code(v: KernelVar) -> u32 {
    KERNEL_VARS
        .iter()
        .position(|k| *k == v)
        .expect("all kernel vars listed") as u32
}

impl PolicyProgram {
    /// Creates an empty program (no events, no declarations).
    pub fn new() -> Self {
        PolicyProgram {
            decls: Vec::new(),
            events: Vec::new(),
            event_names: Vec::new(),
        }
    }

    /// Adds an operand declaration, returning its slot index.
    pub fn declare(&mut self, decl: OperandDecl) -> u8 {
        let idx = self.decls.len();
        assert!(idx < 255, "operand array holds at most 255 slots");
        self.decls.push(decl);
        idx as u8
    }

    /// Adds an event segment, returning its event number.
    pub fn add_event(&mut self, name: impl Into<String>, cmds: Vec<RawCmd>) -> u8 {
        let id = self.events.len();
        assert!(id < 256, "at most 256 events");
        self.events.push(Arc::new(cmds));
        self.event_names.push(name.into());
        id as u8
    }

    /// The command segment of `event`, if defined.
    pub fn event(&self, event: u8) -> Option<&Arc<Vec<RawCmd>>> {
        self.events.get(event as usize)
    }

    /// Total commands across all events.
    pub fn total_commands(&self) -> usize {
        self.events.iter().map(|e| e.len()).sum()
    }

    /// Serializes the program to the 32-bit-word command-buffer format.
    pub fn to_words(&self) -> Vec<u32> {
        let mut w = vec![HIPEC_MAGIC, WIRE_VERSION, self.decls.len() as u32];
        for d in &self.decls {
            match *d {
                OperandDecl::Int(v) => {
                    w.push(0);
                    w.push((v as u64 >> 32) as u32);
                    w.push(v as u64 as u32);
                }
                OperandDecl::Bool(b) => {
                    w.push(1);
                    w.push(b as u32);
                    w.push(0);
                }
                OperandDecl::Page => {
                    w.push(2);
                    w.push(0);
                    w.push(0);
                }
                OperandDecl::FreeQueue => {
                    w.push(3);
                    w.push(0);
                    w.push(0);
                }
                OperandDecl::Queue { recency } => {
                    w.push(4);
                    w.push(recency as u32);
                    w.push(0);
                }
                OperandDecl::Kernel(v) => {
                    w.push(5);
                    w.push(kernel_var_code(v));
                    w.push(0);
                }
            }
        }
        w.push(self.events.len() as u32);
        for e in &self.events {
            w.push(e.len() as u32);
            w.extend(e.iter().map(|c| c.0));
        }
        w
    }

    /// Decodes a command buffer produced by [`PolicyProgram::to_words`].
    ///
    /// Event names are not part of the wire format; decoded programs get
    /// `event<N>` placeholders.
    ///
    /// The buffer is untrusted: every count it carries is checked against
    /// the words that remain before anything is allocated for it, so the
    /// allocation is bounded by the input length and a corrupt count is a
    /// typed error rather than an abort.
    pub fn from_words(words: &[u32]) -> Result<PolicyProgram, WireError> {
        let mut it = words.iter().copied();
        fn next(it: &mut impl Iterator<Item = u32>) -> Result<u32, WireError> {
            it.next().ok_or(WireError::Truncated)
        }
        let magic = next(&mut it)?;
        if magic != HIPEC_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = next(&mut it)?;
        if version != WIRE_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let ndecls = next(&mut it)?;
        if ndecls > OPERAND_SLOTS {
            return Err(WireError::TooManyDecls(ndecls));
        }
        let mut decls = Vec::with_capacity((ndecls as usize).min(it.len() / 3));
        for _ in 0..ndecls {
            let tag = next(&mut it)?;
            let p1 = next(&mut it)?;
            let p2 = next(&mut it)?;
            decls.push(match tag {
                0 => OperandDecl::Int((((p1 as u64) << 32) | p2 as u64) as i64),
                1 => OperandDecl::Bool(p1 != 0),
                2 => OperandDecl::Page,
                3 => OperandDecl::FreeQueue,
                4 => OperandDecl::Queue { recency: p1 != 0 },
                5 => OperandDecl::Kernel(
                    KERNEL_VARS
                        .get(p1 as usize)
                        .copied()
                        .ok_or(WireError::BadKernelVar(p1))?,
                ),
                t => return Err(WireError::BadDeclTag(t)),
            });
        }
        let nevents = next(&mut it)?;
        // Each event takes at least its length word.
        let cap = (nevents as usize).min(it.len());
        let mut events = Vec::with_capacity(cap);
        let mut event_names = Vec::with_capacity(cap);
        for i in 0..nevents {
            let len = next(&mut it)?;
            let mut cmds = Vec::with_capacity((len as usize).min(it.len()));
            for _ in 0..len {
                cmds.push(RawCmd(next(&mut it)?));
            }
            events.push(Arc::new(cmds));
            event_names.push(format!("event{i}"));
        }
        Ok(PolicyProgram {
            decls,
            events,
            event_names,
        })
    }
}

impl Default for PolicyProgram {
    fn default() -> Self {
        PolicyProgram::new()
    }
}

// `RawCmd` serde: serialize as the raw u32.
impl Serialize for RawCmd {
    fn to_value(&self) -> serde::Value {
        self.0.to_value()
    }
}

impl Deserialize for RawCmd {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        u32::from_value(v).map(RawCmd)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{build, JumpMode, QueueEnd, NO_OPERAND};

    fn sample() -> PolicyProgram {
        let mut p = PolicyProgram::new();
        let free_q = p.declare(OperandDecl::FreeQueue);
        let page = p.declare(OperandDecl::Page);
        let lo = p.declare(OperandDecl::Int(-7));
        let hi = p.declare(OperandDecl::Int(i64::MAX - 3));
        let _flag = p.declare(OperandDecl::Bool(true));
        let _act = p.declare(OperandDecl::Queue { recency: true });
        let _fc = p.declare(OperandDecl::Kernel(KernelVar::FreeCount));
        let _ = (lo, hi);
        p.add_event(
            "PageFault",
            vec![
                build::dequeue(page, free_q, QueueEnd::Head),
                build::ret(page),
            ],
        );
        p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
        p.add_event(
            "helper",
            vec![build::jump(JumpMode::Always, 1), build::ret(NO_OPERAND)],
        );
        p
    }

    #[test]
    fn declare_and_lookup() {
        let p = sample();
        assert_eq!(p.decls.len(), 7);
        assert_eq!(p.events.len(), 3);
        assert_eq!(p.event(EVENT_PAGE_FAULT).expect("present").len(), 2);
        assert!(p.event(99).is_none());
        assert_eq!(p.total_commands(), 5);
    }

    #[test]
    fn wire_round_trip() {
        let p = sample();
        let words = p.to_words();
        assert_eq!(words[0], HIPEC_MAGIC);
        let q = PolicyProgram::from_words(&words).expect("decode");
        assert_eq!(q.decls, p.decls);
        assert_eq!(q.events.len(), p.events.len());
        for (a, b) in q.events.iter().zip(p.events.iter()) {
            assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    #[test]
    fn wire_rejects_corruption() {
        let p = sample();
        let mut words = p.to_words();
        // Bad magic.
        let saved = words[0];
        words[0] = 0xDEAD_BEEF;
        assert_eq!(
            PolicyProgram::from_words(&words).expect_err("bad magic"),
            WireError::BadMagic(0xDEAD_BEEF)
        );
        words[0] = saved;
        // Bad version.
        words[1] = 99;
        assert_eq!(
            PolicyProgram::from_words(&words).expect_err("bad version"),
            WireError::BadVersion(99)
        );
        words[1] = WIRE_VERSION;
        // Truncation at every prefix must error, not panic.
        for cut in 0..words.len() {
            assert!(PolicyProgram::from_words(&words[..cut]).is_err());
        }
        // Bad declaration tag.
        words[3] = 42;
        assert_eq!(
            PolicyProgram::from_words(&words).expect_err("bad tag"),
            WireError::BadDeclTag(42)
        );
    }

    /// Word images whose counts once reached `Vec::with_capacity` unchecked
    /// and aborted the process with multi-gigabyte allocations.
    #[test]
    fn wire_rejects_oversized_counts_without_allocating_them() {
        let words = sample().to_words();
        let ndecls_at = 2;
        let nevents_at = 3 + 3 * words[ndecls_at] as usize;
        let len_at = nevents_at + 1;
        for huge in [u32::MAX, 0x8000_0000, 0x0100_0000] {
            let mut w = words.clone();
            w[ndecls_at] = huge;
            assert_eq!(
                PolicyProgram::from_words(&w).expect_err("ndecls"),
                WireError::TooManyDecls(huge)
            );
            for at in [nevents_at, len_at] {
                let mut w = words.clone();
                w[at] = huge;
                assert_eq!(
                    PolicyProgram::from_words(&w).expect_err("count"),
                    WireError::Truncated
                );
            }
        }
        for image in [
            &[HIPEC_MAGIC, WIRE_VERSION, 0, u32::MAX][..],
            &[HIPEC_MAGIC, WIRE_VERSION, 0, 1, u32::MAX][..],
        ] {
            assert_eq!(
                PolicyProgram::from_words(image).expect_err("count"),
                WireError::Truncated
            );
        }
        // The slot limit itself: 256 declarations decode, 257 do not.
        let mut full = vec![HIPEC_MAGIC, WIRE_VERSION, OPERAND_SLOTS];
        full.extend([2, 0, 0].repeat(OPERAND_SLOTS as usize));
        full.push(0);
        let p = PolicyProgram::from_words(&full).expect("256 declarations");
        assert_eq!(p.decls.len(), OPERAND_SLOTS as usize);
        full[2] = OPERAND_SLOTS + 1;
        assert_eq!(
            PolicyProgram::from_words(&full).expect_err("257 declarations"),
            WireError::TooManyDecls(OPERAND_SLOTS + 1)
        );
    }

    #[test]
    fn json_round_trip() {
        let p = sample();
        let json = serde_json::to_string(&p).expect("serialize");
        let q: PolicyProgram = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(q.decls, p.decls);
        assert_eq!(q.event_names, p.event_names);
        assert_eq!(
            q.event(0).expect("event").as_slice(),
            p.event(0).expect("event").as_slice()
        );
    }

    #[test]
    fn wire_errors_display() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::BadKernelVar(9).to_string().contains("9"));
        assert!(WireError::TooManyDecls(300).to_string().contains("300"));
    }
}

//! A library of page-replacement policies for HiPEC.
//!
//! Three forms of every policy, mirroring how the paper's artifacts would
//! ship:
//!
//! * [`sources`] — pseudo-code source text (the paper's Figure 4 style),
//!   compiled on demand by the `hipec-lang` translator;
//! * [`asm_listings`] — hand-coded assembler listings (the paper's Table 2
//!   style), for users who bypass the translator;
//! * [`native`] — plain-Rust reference implementations over abstract page
//!   traces, used as baselines and oracles in tests and benchmarks.
//!
//! [`analytic`] provides the paper's closed-form fault-count models for the
//! nested-loops join (PF_l, PF_m and the gain equation from §5.3).

pub mod analytic;
pub mod asm_listings;
pub mod native;
pub mod sources;

use hipec_core::PolicyProgram;

/// The replacement policies shipped with this library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Plain FIFO over a private pool.
    Fifo,
    /// FIFO with second chance (the paper's Figure 4 / Mach default).
    FifoSecondChance,
    /// Exact LRU over a kernel-maintained recency queue.
    Lru,
    /// MRU — the right policy for cyclic scans (paper §5.3).
    Mru,
    /// Clock (second chance on a circulating queue, simple commands only).
    Clock,
    /// Simplified 2Q: FIFO probation + protected LRU (scan-resistant).
    TwoQueue,
    /// LearnedCache: integer-weight perceptron over operand-slot features.
    Learned,
    /// AWRP: adaptive weight ranking over recency/frequency classes.
    Awrp,
}

impl PolicyKind {
    /// All shipped policies.
    pub const ALL: [PolicyKind; 8] = [
        PolicyKind::Fifo,
        PolicyKind::FifoSecondChance,
        PolicyKind::Lru,
        PolicyKind::Mru,
        PolicyKind::Clock,
        PolicyKind::TwoQueue,
        PolicyKind::Learned,
        PolicyKind::Awrp,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Fifo => "FIFO",
            PolicyKind::FifoSecondChance => "FIFO-2ndChance",
            PolicyKind::Lru => "LRU",
            PolicyKind::Mru => "MRU",
            PolicyKind::Clock => "Clock",
            PolicyKind::TwoQueue => "2Q",
            PolicyKind::Learned => "Learned",
            PolicyKind::Awrp => "AWRP",
        }
    }

    /// The pseudo-code source for this policy.
    pub fn source(self) -> &'static str {
        match self {
            PolicyKind::Fifo => sources::FIFO,
            PolicyKind::FifoSecondChance => sources::FIFO_SECOND_CHANCE,
            PolicyKind::Lru => sources::LRU,
            PolicyKind::Mru => sources::MRU,
            PolicyKind::Clock => sources::CLOCK,
            PolicyKind::TwoQueue => sources::TWO_QUEUE,
            PolicyKind::Learned => sources::LEARNED,
            PolicyKind::Awrp => sources::AWRP,
        }
    }

    /// Compiles the policy's pseudo-code into an installable program.
    ///
    /// # Panics
    ///
    /// Never in practice: the shipped sources are compile-tested; a panic
    /// here means the library itself is broken.
    pub fn program(self) -> PolicyProgram {
        hipec_lang::compile(self.source())
            .unwrap_or_else(|e| panic!("shipped policy {self:?} failed to compile: {e:?}"))
    }

    /// Like [`PolicyKind::program`], with the peephole optimizer applied
    /// (fewer commands per fault, identical behaviour).
    pub fn program_optimized(self) -> PolicyProgram {
        hipec_lang::optimize(&self.program())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_shipped_policy_compiles_and_validates() {
        for kind in PolicyKind::ALL {
            let program = kind.program();
            hipec_core::validate_program(&program)
                .unwrap_or_else(|e| panic!("{} failed validation: {e:?}", kind.name()));
            assert!(
                program.total_commands() > 2,
                "{} is non-trivial",
                kind.name()
            );
        }
    }

    #[test]
    fn names_are_distinct() {
        let mut names: Vec<_> = PolicyKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PolicyKind::ALL.len());
    }
}

//! Simulation substrate for the HiPEC reproduction.
//!
//! This crate provides the deterministic foundations every other crate in the
//! workspace builds on:
//!
//! * [`SimTime`] / [`SimDuration`] — a virtual nanosecond clock domain.
//! * [`VirtualClock`] — the single monotonic clock a simulated kernel owns.
//! * [`EventQueue`] — a deterministic discrete-event queue (FIFO tie-break).
//! * [`DetRng`] — a seedable RNG with the distributions the workloads need.
//! * [`CostModel`] — virtual-time cost constants, calibrated against the
//!   measurements published in the HiPEC paper (OSDI '94, Tables 3 and 4).
//! * [`stats`] — online moments, histograms and series used by the
//!   experiment harnesses.
//! * [`hash`] — a seedless multiplicative hasher for the integer-keyed page
//!   tables on the fault path.
//! * [`hist`] — fixed-footprint log-linear latency histograms with the
//!   merge/diff algebra the observability layer's snapshots need.
//!
//! Everything here is pure computation: no wall-clock reads, no I/O, no
//! threads. Simulations are bit-reproducible given the same seed.

pub mod clock;
pub mod cost;
pub mod event;
pub mod hash;
pub mod hist;
pub mod rng;
pub mod stats;
pub mod time;

pub use clock::VirtualClock;
pub use cost::CostModel;
pub use event::EventQueue;
pub use hash::{IntMap, IntSet};
pub use hist::LatencyHistogram;
pub use rng::{DetRng, ZipfTable};
pub use time::{SimDuration, SimTime};

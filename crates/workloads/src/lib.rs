//! Workloads for the HiPEC evaluation (paper §5).
//!
//! * [`kernel_iface`] — a small trait letting every workload run unchanged
//!   on the plain Mach kernel (`hipec-vm`) and on the HiPEC kernel
//!   (`hipec-core`), which is exactly the comparison the paper draws.
//! * [`scan`] — reference-trace generators (sequential, cyclic, random,
//!   Zipf, strided, hot/cold) and a trace-replay driver.
//! * [`fault_sweep`] — the §5.1 measurement: page-fault handling time over
//!   a 40 MB region, with and without disk I/O (Table 3).
//! * [`join`] — the §5.3 nested-loops join with a pinned 4 KB inner table
//!   (Figure 6).
//! * [`aim`] — an AIM-Suite-III-like multiuser throughput benchmark over a
//!   round-robin one-CPU scheduler (Figure 5).
//! * [`db`] — database access patterns (B-tree probes + table scans) with
//!   per-region policies, the paper's §6 DBMS direction.
//! * [`matrix`] — out-of-core matrix multiply (naive vs blocked), the
//!   introduction's scientific-simulator motivation.
//! * [`zipf_kv`] — a Zipf-distributed key-value store (web/KV skew).
//! * [`tenants`] — a multi-tenant consolidation cell: Zipf tenant
//!   population, bursty arrivals under admission control, mixed policies
//!   and an all-torn storm device isolated by the weighted pump.
//! * [`web_cache`] — a scan-resistant edge cache: Zipf user traffic with
//!   periodic one-shot crawler sweeps.
//! * [`tournament`] — the cross-policy harness: every shipped policy ×
//!   every workload shape × clean/chaos fault plans, with uniform per-cell
//!   metrics.

pub mod aim;
pub mod db;
pub mod fault_sweep;
pub mod join;
pub mod kernel_iface;
pub mod matrix;
pub mod scan;
pub mod tenants;
pub mod tournament;
pub mod web_cache;
pub mod zipf_kv;

pub use kernel_iface::SysKernel;

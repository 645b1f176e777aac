//! The policy tournament: every shipped policy × every workload shape ×
//! clean/chaos fault plans, with uniform per-cell metrics.
//!
//! The existing workload harnesses (`db`, `matrix`, `join`, …) each build
//! their own kernel and report their own result shape, which is right for
//! reproducing individual paper figures but useless for a cross-policy
//! matrix. The tournament therefore replays *traces* — each workload shape
//! is reduced to a deterministic `(page, is_write)` sequence — through one
//! uniform cell driver: fresh kernel, optional injected-fault plan, one
//! HiPEC-managed region, periodic whole-kernel invariant audits, and a
//! fixed metric row per cell ([`Cell`]).
//!
//! Everything is seeded: the same [`TournamentConfig`] produces the same
//! traces, the same injected faults, and therefore the same matrix,
//! bit-for-bit — which is what lets `tests/tournament.rs` pin the matrix
//! as a golden.

use hipec_core::{HipecKernel, LatencyMetric, PolicyProgram};
use hipec_disk::FaultConfig;
use hipec_policies::PolicyKind;
use hipec_sim::{DetRng, SimDuration};
use hipec_vm::{KernelParams, VAddr, PAGE_SIZE};

use crate::{web_cache, zipf_kv};

/// Injected-fault regime for one tournament cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// No injected device faults.
    Clean,
    /// A fixed, seeded mix of read/write errors, delays and torn writes.
    Chaos,
}

impl Plan {
    /// Stable name used in cell rows and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Plan::Clean => "clean",
            Plan::Chaos => "chaos",
        }
    }

    /// The fault plan to install for this regime, if any. The seed is
    /// derived per workload, so every policy faces the identical
    /// injected-fault dice.
    fn fault_config(self, seed: u64) -> Option<FaultConfig> {
        match self {
            Plan::Clean => None,
            Plan::Chaos => Some(FaultConfig {
                seed,
                read_error_permille: 25,
                write_error_permille: 25,
                delay_permille: 80,
                max_delay: SimDuration::from_us(300),
                torn_permille: 40,
            }),
        }
    }
}

/// One workload shape, reduced to a deterministic reference trace.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Stable name used in cell rows and JSON.
    pub name: &'static str,
    /// Region size in pages.
    pub region_pages: u64,
    /// Private frame pool for the region (the cache size under test).
    pub pool: u64,
    /// The `(page, is_write)` reference sequence.
    pub trace: Vec<(u64, bool)>,
}

/// Tournament shape: which policies are implicit (always [`PolicyKind::ALL`]);
/// this picks the scale and the fault regimes.
#[derive(Debug, Clone)]
pub struct TournamentConfig {
    /// Master seed; every trace and fault plan derives from it.
    pub seed: u64,
    /// Approximate references per workload trace.
    pub ops: u64,
    /// Fault regimes to run every cell under.
    pub plans: Vec<Plan>,
    /// Whole-kernel invariant audit cadence (accesses between audits).
    pub check_every: u64,
}

impl TournamentConfig {
    /// The short matrix the golden regression test pins: small traces,
    /// both fault regimes.
    pub fn short() -> Self {
        TournamentConfig {
            seed: 0x70F0,
            ops: 700,
            plans: vec![Plan::Clean, Plan::Chaos],
            check_every: 64,
        }
    }

    /// The full matrix the bench binary reports.
    pub fn full() -> Self {
        TournamentConfig {
            seed: 0x70F0,
            ops: 4_000,
            plans: vec![Plan::Clean, Plan::Chaos],
            check_every: 256,
        }
    }
}

/// Per-workload seed: mixes the workload's index so shapes are decorrelated
/// but stay stable when the list grows at the end.
fn workload_seed(master: u64, index: u64) -> u64 {
    master ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// B-tree probes interleaved with a cycling table scan (the `db` shape):
/// page 0 is the root, 1–3 inner nodes, 4–23 leaves, 24–95 the heap table.
fn db_shape(ops: u64, seed: u64) -> Workload {
    let mut rng = DetRng::new(seed);
    let (region, table_base) = (96u64, 24u64);
    let mut trace = Vec::with_capacity(ops as usize + 4);
    let mut table = table_base;
    while (trace.len() as u64) < ops {
        trace.push((table, rng.chance(0.05)));
        table += 1;
        if table == region {
            table = table_base;
        }
        trace.push((0, false));
        trace.push((1 + rng.below(3), false));
        trace.push((4 + rng.below(20), rng.chance(0.10)));
    }
    Workload {
        name: "db",
        region_pages: region,
        pool: 32,
        trace,
    }
}

/// Out-of-core matrix multiply (the `scientific` shape): row pages of A
/// (0–11), a streamed B (12–47), and an accumulated C row (48–59).
fn scientific_shape(ops: u64) -> Workload {
    let mut trace = Vec::with_capacity(ops as usize + 40);
    let mut row = 0u64;
    'outer: loop {
        trace.push((row, false));
        for b in 12..48u64 {
            trace.push((b, false));
            if (b - 12) % 3 == 0 {
                trace.push((48 + row, true));
            }
            if (trace.len() as u64) >= ops {
                break 'outer;
            }
        }
        row = (row + 1) % 12;
    }
    // Pool of 30 against a 36-page B stream: the loop *almost* fits, the
    // regime where retention strategy (MRU-like vs LRU-like) actually
    // discriminates instead of everyone thrashing identically.
    Workload {
        name: "scientific",
        region_pages: 60,
        pool: 30,
        trace,
    }
}

/// A re-referenced hot set polluted by long sequential sweeps (the `scan`
/// shape): 8 hot pages, then cold pages from a rotating cursor. The first
/// rounds sweep gently (8 pages) so the hot set gets re-referenced while
/// still resident — scan-resistant policies promote it then and survive
/// the later 40-page sweeps; recency-only policies lose it every round.
fn scan_shape(ops: u64, seed: u64) -> Workload {
    let mut rng = DetRng::new(seed);
    let region = 256u64;
    let mut trace = Vec::with_capacity(ops as usize + 48);
    let mut cursor = 0u64;
    let mut round = 0u64;
    while (trace.len() as u64) < ops {
        for hot in 0..8u64 {
            trace.push((hot, rng.chance(0.25)));
        }
        let sweep = if round < 4 { 8 } else { 40 };
        for i in 0..sweep {
            trace.push((8 + (cursor + i) % (region - 8), false));
        }
        cursor = (cursor + sweep) % (region - 8);
        round += 1;
    }
    Workload {
        name: "scan",
        region_pages: region,
        pool: 24,
        trace,
    }
}

/// Nested-loops join (the `join` shape): a cycling outer table (0–63), a
/// small inner table (64–67) touched between outer tuples, and an output
/// page written every fourth tuple.
fn join_shape(ops: u64) -> Workload {
    let mut trace = Vec::with_capacity(ops as usize + 8);
    let mut outer = 0u64;
    while (trace.len() as u64) < ops {
        trace.push((outer % 64, false));
        for inner in 64..68u64 {
            trace.push((inner, false));
        }
        if outer.is_multiple_of(4) {
            trace.push((68 + (outer / 4) % 4, true));
        }
        outer += 1;
    }
    Workload {
        name: "join",
        region_pages: 72,
        pool: 20,
        trace,
    }
}

/// Zipf key-value shape, via [`zipf_kv::trace`].
fn zipf_kv_shape(ops: u64, seed: u64) -> Workload {
    let mut cfg = zipf_kv::ZipfKvConfig::small();
    cfg.keys = 192;
    cfg.ops = ops;
    cfg.pool = 48;
    cfg.seed = seed;
    Workload {
        name: "zipf-kv",
        region_pages: cfg.keys,
        pool: cfg.pool,
        trace: zipf_kv::trace(&cfg),
    }
}

/// Scan-resistant web-cache shape, via [`web_cache::trace`].
fn web_cache_shape(ops: u64, seed: u64) -> Workload {
    let mut cfg = web_cache::WebCacheConfig::small();
    cfg.pages = 320;
    // trace length = requests + (requests / crawl_every) * crawl_span; with
    // a 60-page sweep every 150 requests that is requests * 1.4.
    cfg.requests = (ops * 5) / 7;
    cfg.crawl_every = 150;
    cfg.crawl_span = 60;
    cfg.pool = 40;
    cfg.seed = seed;
    Workload {
        name: "web-cache",
        region_pages: cfg.pages,
        pool: cfg.pool,
        trace: web_cache::trace(&cfg),
    }
}

/// The six workload shapes at the configured scale, in matrix order.
pub fn workloads(cfg: &TournamentConfig) -> Vec<Workload> {
    vec![
        db_shape(cfg.ops, workload_seed(cfg.seed, 0)),
        scientific_shape(cfg.ops),
        scan_shape(cfg.ops, workload_seed(cfg.seed, 2)),
        join_shape(cfg.ops),
        zipf_kv_shape(cfg.ops, workload_seed(cfg.seed, 4)),
        web_cache_shape(cfg.ops, workload_seed(cfg.seed, 5)),
    ]
}

/// One (policy × workload × plan) measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Policy name ([`PolicyKind::name`]).
    pub policy: &'static str,
    /// Workload name.
    pub workload: &'static str,
    /// Fault regime name.
    pub plan: &'static str,
    /// References issued (the trace length).
    pub accesses: u64,
    /// References that completed without a surfaced error.
    pub ok: u64,
    /// Policy-resolved page faults in the region's container.
    pub faults: u64,
    /// Successful references served without a fault.
    pub hits: u64,
    /// `hits * 1000 / accesses`.
    pub hit_permille: u64,
    /// Median fault-handling latency (virtual ns).
    pub p50_fault_ns: u64,
    /// Tail fault-handling latency (virtual ns).
    pub p99_fault_ns: u64,
    /// Tail top-level policy-event duration in the region's container
    /// (virtual ns, interval histogram; 0 when metrics are compiled out).
    pub p99_event_ns: u64,
    /// Tail flush completion latency on the boot paging device (virtual
    /// ns, interval histogram; 0 when metrics are compiled out).
    pub p99_flush_ns: u64,
    /// Policy commands executed.
    pub commands: u64,
    /// Policy event invocations.
    pub events: u64,
    /// `Flush` exchanges performed.
    pub flushes: u64,
    /// Frames released back to the kernel.
    pub released: u64,
    /// Device faults surfaced to the container.
    pub device_faults: u64,
    /// Times the container entered quarantine.
    pub quarantines: u64,
    /// Elapsed virtual time (ns).
    pub elapsed_ns: u64,
}

/// Runs one tournament cell: fresh kernel, optional fault plan, the
/// workload's trace replayed against one policy-managed region, with the
/// whole-kernel invariant audit every `check_every` references.
pub fn run_cell(
    kind: PolicyKind,
    workload: &Workload,
    plan: Plan,
    plan_seed: u64,
    check_every: u64,
) -> Result<Cell, String> {
    run_cell_with(
        kind.name(),
        kind.program(),
        workload,
        plan,
        plan_seed,
        check_every,
    )
}

/// [`run_cell`] for an arbitrary compiled program (used by tests that pit
/// hand-assembled listings against the translator's output).
pub fn run_cell_with(
    policy_name: &'static str,
    program: PolicyProgram,
    workload: &Workload,
    plan: Plan,
    plan_seed: u64,
    check_every: u64,
) -> Result<Cell, String> {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 2_048;
    params.wired_frames = 64;
    let mut k = HipecKernel::new(params);
    if let Some(fc) = plan.fault_config(plan_seed) {
        k.vm.set_fault_plan(fc);
    }
    let task = k.vm.create_task();
    let (base, _obj, key) = k
        .vm_map_hipec(
            task,
            workload.region_pages * PAGE_SIZE,
            program,
            workload.pool,
        )
        .map_err(|e| format!("{policy_name}/{}: install failed: {e:?}", workload.name))?;
    let per_ref = k.vm.cost.tuple_op * 4;
    let snap = k.kernel_stats();
    let start = k.vm.now();
    let mut ok = 0u64;
    for (i, &(page, write)) in workload.trace.iter().enumerate() {
        // Under chaos an access may surface a typed device error; the cell
        // records how many completed, and the audit below still must pass.
        if k.access_sync(task, VAddr(base.0 + page * PAGE_SIZE), write)
            .is_ok()
        {
            ok += 1;
        }
        k.charge(per_ref);
        k.vm.pump();
        if (i as u64 + 1).is_multiple_of(check_every) {
            k.check_invariants().map_err(|e| {
                format!(
                    "{policy_name}/{}/{}: invariant audit failed mid-run: {e}",
                    workload.name,
                    plan.name()
                )
            })?;
        }
    }
    k.check_invariants().map_err(|e| {
        format!(
            "{policy_name}/{}/{}: final invariant audit failed: {e}",
            workload.name,
            plan.name()
        )
    })?;
    let stats = k.kernel_stats().diff(&snap);
    let row = stats.container(key.0).copied().unwrap_or_default();
    let accesses = workload.trace.len() as u64;
    let hits = ok.saturating_sub(row.faults);
    Ok(Cell {
        policy: policy_name,
        workload: workload.name,
        plan: plan.name(),
        accesses,
        ok,
        faults: row.faults,
        hits,
        hit_permille: hits * 1_000 / accesses.max(1),
        p50_fault_ns: k.vm.fault_latency.quantile(0.5).as_ns(),
        p99_fault_ns: k.vm.fault_latency.quantile(0.99).as_ns(),
        p99_event_ns: stats
            .latency_row(LatencyMetric::ContainerEvent, key.0 as u64)
            .map(|r| r.p99().as_ns())
            .unwrap_or(0),
        p99_flush_ns: stats
            .latency_row(LatencyMetric::DeviceFlush, 0)
            .map(|r| r.p99().as_ns())
            .unwrap_or(0),
        commands: row.commands,
        events: row.events,
        flushes: row.flushes,
        released: row.released,
        device_faults: row.device_faults,
        quarantines: row.quarantines,
        elapsed_ns: k.vm.now().since(start).as_ns(),
    })
}

/// A policy's standing in the overall ranking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankRow {
    /// Policy name.
    pub policy: &'static str,
    /// Borda score: sum of the policy's 0-based position in each
    /// workload's clean-plan fault ordering. Lower is better.
    pub points: u64,
    /// Total clean-plan faults across all workloads (first tie-break).
    pub clean_faults: u64,
}

/// The complete matrix plus the overall ranking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tournament {
    /// Master seed the matrix derives from.
    pub seed: u64,
    /// References per workload trace.
    pub ops: u64,
    /// Workload names, in matrix order.
    pub workloads: Vec<&'static str>,
    /// Every cell, in (workload, policy, plan) order.
    pub cells: Vec<Cell>,
    /// Overall ranking, best first.
    pub ranking: Vec<RankRow>,
}

/// Ranks policies by Borda points over the clean-plan cells.
fn rank(cells: &[Cell], workload_names: &[&'static str]) -> Vec<RankRow> {
    let mut rows: Vec<RankRow> = PolicyKind::ALL
        .iter()
        .map(|k| RankRow {
            policy: k.name(),
            points: 0,
            clean_faults: 0,
        })
        .collect();
    for &wl in workload_names {
        let mut column: Vec<(u64, &'static str)> = cells
            .iter()
            .filter(|c| c.workload == wl && c.plan == "clean")
            .map(|c| (c.faults, c.policy))
            .collect();
        column.sort();
        for (pos, &(faults, policy)) in column.iter().enumerate() {
            let row = rows
                .iter_mut()
                .find(|r| r.policy == policy)
                .expect("ranking covers every shipped policy");
            row.points += pos as u64;
            row.clean_faults += faults;
        }
    }
    rows.sort_by_key(|r| (r.points, r.clean_faults, r.policy));
    rows
}

/// Runs the full matrix: every shipped policy × every workload × every
/// configured plan.
pub fn run(cfg: &TournamentConfig) -> Result<Tournament, String> {
    let shapes = workloads(cfg);
    let mut cells = Vec::with_capacity(shapes.len() * PolicyKind::ALL.len() * cfg.plans.len());
    for (widx, wl) in shapes.iter().enumerate() {
        let plan_seed = workload_seed(cfg.seed, widx as u64) ^ 0xFA_17;
        for kind in PolicyKind::ALL {
            for &plan in &cfg.plans {
                cells.push(run_cell(kind, wl, plan, plan_seed, cfg.check_every)?);
            }
        }
    }
    let workload_names: Vec<&'static str> = shapes.iter().map(|w| w.name).collect();
    let ranking = rank(&cells, &workload_names);
    Ok(Tournament {
        seed: cfg.seed,
        ops: cfg.ops,
        workloads: workload_names,
        cells,
        ranking,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_sized() {
        let cfg = TournamentConfig::short();
        let a = workloads(&cfg);
        let b = workloads(&cfg);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace, y.trace, "{} trace must be reproducible", x.name);
            assert!(
                x.trace.len() as u64 >= cfg.ops / 2,
                "{} trace too short: {}",
                x.name,
                x.trace.len()
            );
            assert!(
                x.pool < x.region_pages,
                "{} pool must be under memory pressure",
                x.name
            );
            let max_page = x.trace.iter().map(|&(p, _)| p).max().unwrap();
            assert!(max_page < x.region_pages, "{} trace escapes region", x.name);
        }
    }

    #[test]
    fn a_single_cell_is_reproducible() {
        let cfg = TournamentConfig::short();
        let wl = &workloads(&cfg)[0];
        let a = run_cell(PolicyKind::Lru, wl, Plan::Chaos, 7, cfg.check_every).expect("cell");
        let b = run_cell(PolicyKind::Lru, wl, Plan::Chaos, 7, cfg.check_every).expect("cell");
        assert_eq!(a, b, "same cell inputs must give a bit-identical row");
        assert!(a.faults > 0 && a.hits > 0);
    }
}

//! Experiment harnesses regenerating every table and figure of the paper.
//!
//! Each binary prints the paper-style rows/series and a `paper:` reference
//! line so the shapes can be compared at a glance:
//!
//! * `table3` — HiPEC mechanism overhead (Comparison I),
//! * `table4` — dispatch primitives (Comparison II),
//! * `fig5` — AIM-like multiuser throughput, Mach vs HiPEC kernel,
//! * `fig6` — nested-loops join elapsed time, LRU vs HiPEC MRU,
//! * `ablation_commands` — complex vs simple command policies,
//! * `ablation_checker` — adaptive vs fixed checker wakeup,
//! * `ablation_partition` — `partition_burst` sweep,
//! * `ablation_dispatch` — in-kernel interpretation vs upcall vs IPC.
//!
//! Results are also dumped as JSON under `target/hipec-results/` so
//! EXPERIMENTS.md can cite exact numbers. Every binary also accepts
//! `--json`, which suppresses the human-readable report and emits the
//! result document (schema version [`JSON_SCHEMA_VERSION`]) as the sole
//! stdout output, so CI can redirect it straight into a `BENCH_*.json`
//! artifact.

use std::fs;
use std::path::PathBuf;

use hipec_core::KernelStats;
use serde_json::Value;

pub mod analyze;

pub use hipec_sim::stats::{Series, TextTable};

/// Version of the `--json` output schema emitted by every bench binary.
///
/// The document shape is `{"bench": <name>, "schema": N, "data": {...}}`;
/// bump this when a field inside `data` changes meaning, never reuse.
///
/// v2: kernel snapshots gained a `devices` array (one row per backing
/// device with `breaker_trips` / `breaker_closes` / `queue_depth` and the
/// rest of [`hipec_core::DeviceRow`]); the flat `breaker_*` / `dev_*` /
/// `retryq_*` globals became sums over those rows.
///
/// v3: the envelope gained a top-level `backend` field naming the policy
/// executor the binary ran under (`"interpreter"` or `"native"`, the
/// build's default [`hipec_core::ExecBackend`]), so results from JIT-on
/// and JIT-off builds are distinguishable after the fact.
///
/// v4: the `tournament` binary's `data` is a policy × workload × backend ×
/// plan matrix: `cells[]` rows each carry `policy`, `workload`, `backend`,
/// `plan` (`"clean"`/`"chaos"`), `accesses`/`ok`/`faults`/`hits`/
/// `hit_permille`, `p50_fault_ns`/`p99_fault_ns`, and the per-container
/// counter diff (`commands`, `events`, `flushes`, `released`,
/// `device_faults`, `quarantines`); `ranking[]` orders policies by Borda
/// points over the clean cells. Unlike the envelope's `backend` (still the
/// build default), each cell's `backend` names the executor that produced
/// that row.
///
/// v5: kernel snapshots gained a `latency` array — one row per
/// [`hipec_core::LatencyRow`] with `metric`, `key` (the human label: opcode
/// mnemonic for `op_charge`, decimal container key / device id otherwise),
/// `count`, `saturated`, `p50_ns`/`p90_ns`/`p99_ns`/`p999_ns` and `max_ns`,
/// in the snapshot's fixed deterministic row order. The `tournament`
/// matrix's cells gained `p99_event_ns` (per-container top-level event
/// duration) and `p99_flush_ns` (device-0 flush completion latency) beside
/// the existing fault percentiles.
///
/// v6: device rows gained the lifecycle and tier surface — `tier` (0 disk,
/// 1 flash), `state` (0 Active, 1 Draining, 2 Removed, 3 Dead),
/// `migrations` (copies landed on this device), `migr_pending` (queued or
/// in-flight copies, a gauge), and the flash wear counters
/// `write_amp_milli` (integer milli-units, `programs * 1000 /
/// host_writes`), `max_wear` (highest per-block erase count) and
/// `gc_pauses` (erase stalls). All zero for disks, so v5 consumers that
/// ignored unknown fields keep working; the version still bumps because
/// rows now appear for Removed/Dead devices whose ids stay in the table.
///
/// v7: kernel snapshots' `latency` arrays gained `class_fault` rows — one
/// per occupied tenant share class, keyed by the class name (`free` /
/// `standard` / `premium`) — aggregating fault service latency per class.
/// The new `tenants_soak` binary's `data` carries a `classes` array with
/// one row per class (`class`, `tenants`, `installed`, `faults`,
/// `p50_fault_ns`, `p99_fault_ns`) plus the admission counters
/// `admission_throttled` and `admission_over_share`.
///
/// v8: the executor is no longer a choice, so `backend` is gone from both
/// places it appeared: the envelope's top-level field (v3) and each
/// `tournament` cell (v4). The tournament matrix is policy × workload ×
/// plan, half the cells of v7; every remaining cell is byte-identical to
/// its v7 `"interpreter"` row.
pub const JSON_SCHEMA_VERSION: u64 = 8;

/// True when the binary was invoked with `--json`: machine-readable mode.
///
/// In this mode the human-readable report must be suppressed; the JSON
/// document printed by [`finish`] is the sole stdout output.
pub fn json_mode() -> bool {
    std::env::args().any(|a| a == "--json")
}

/// Serializes a [`KernelStats`] snapshot (or a `diff` of two) to JSON.
///
/// Gauges, the full global counter map, `dropped_records`, one row per
/// container — including the per-opcode profile as
/// `{"<mnemonic>": {"count": N, "time_ns": N}}` — and the occupied latency
/// rows with their percentiles, all as integers so the output is stable
/// across platforms.
pub fn kernel_stats_json(stats: &KernelStats) -> Value {
    let mut global = serde_json::Map::new();
    for (&k, &v) in &stats.global {
        global.insert(k.to_string(), serde_json::to_value(&v));
    }
    let containers: Vec<Value> = stats
        .containers
        .iter()
        .map(|c| {
            let mut ops = serde_json::Map::new();
            for (op, count, time) in c.ops.nonzero() {
                ops.insert(
                    op.mnemonic().to_string(),
                    serde_json::json!({
                        "count": count,
                        "time_ns": time.as_ns(),
                    }),
                );
            }
            serde_json::json!({
                "key": c.key,
                "faults": c.faults,
                "commands": c.commands,
                "events": c.events,
                "requested": c.requested,
                "released": c.released,
                "flushes": c.flushes,
                "device_faults": c.device_faults,
                "quarantines": c.quarantines,
                "restores": c.restores,
                "allocated": c.allocated,
                "terminated": c.terminated,
                "quarantined": c.quarantined,
                "ops": Value::Object(ops),
            })
        })
        .collect();
    let devices: Vec<Value> = stats
        .devices
        .iter()
        .map(|d| {
            serde_json::json!({
                "id": d.id,
                "reads": d.reads,
                "writes": d.writes,
                "read_errors": d.read_errors,
                "write_errors": d.write_errors,
                "torn_writes": d.torn_writes,
                "breaker_trips": d.breaker_trips,
                "breaker_closes": d.breaker_closes,
                "breaker_probes": d.breaker_probes,
                "breaker_deferred": d.breaker_deferred,
                "breaker_open": d.breaker_open,
                "inflight": d.inflight,
                "queue_depth": d.queue_depth,
                "retryq_pushes": d.retryq_pushes,
                "retryq_pops": d.retryq_pops,
                "tier": d.tier,
                "state": d.state,
                "migrations": d.migrations,
                "migr_pending": d.migr_pending,
                "write_amp_milli": d.write_amp_milli,
                "max_wear": d.max_wear,
                "gc_pauses": d.gc_pauses,
            })
        })
        .collect();
    let latency: Vec<Value> = stats
        .latency
        .iter()
        .filter(|r| !r.hist.is_empty())
        .map(|r| {
            serde_json::json!({
                "metric": r.metric.name(),
                "key": r.key_label(),
                "count": r.count(),
                "saturated": r.saturated(),
                "p50_ns": r.p50().as_ns(),
                "p90_ns": r.p90().as_ns(),
                "p99_ns": r.p99().as_ns(),
                "p999_ns": r.p999().as_ns(),
                "max_ns": r.max().as_ns(),
            })
        })
        .collect();
    serde_json::json!({
        "at_ns": stats.at.as_ns(),
        "free_frames": stats.free_frames,
        "total_specific": stats.total_specific,
        "inflight_flushes": stats.inflight_flushes,
        "retry_depth": stats.retry_depth,
        "dropped_records": stats.dropped_records,
        "global": Value::Object(global),
        "devices": Value::Array(devices),
        "containers": Value::Array(containers),
        "latency": Value::Array(latency),
    })
}

/// Finishes a bench binary: dumps `data` under `target/hipec-results/`
/// and, in [`json_mode`], prints the wrapped document
/// `{"bench", "schema", "data"}` to stdout as the machine-readable result.
pub fn finish(name: &str, data: &Value) {
    dump_json(name, data);
    if json_mode() {
        let doc = serde_json::json!({
            "bench": name,
            "schema": JSON_SCHEMA_VERSION,
            "data": data.clone(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).unwrap_or_default());
    }
}

/// Where JSON result dumps go.
pub fn results_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
            .join("hipec-results");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Dumps a JSON value for EXPERIMENTS.md provenance.
pub fn dump_json(name: &str, value: &serde_json::Value) {
    let path = results_dir().join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(text) => {
            if let Err(e) = fs::write(&path, text) {
                eprintln!("warning: could not write {}: {e}", path.display());
            } else if !json_mode() {
                // In --json mode the wrapped document is the sole stdout
                // output; the provenance pointer would corrupt it.
                println!("(json: {})", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Prints a figure as aligned text series.
pub fn print_series(title: &str, xlabel: &str, series: &[Series]) {
    println!("\n== {title} ==");
    print!("{xlabel:>10}");
    for s in series {
        print!("{:>16}", s.label);
    }
    println!();
    if let Some(first) = series.first() {
        for (i, (x, _)) in first.points.iter().enumerate() {
            print!("{x:>10.1}");
            for s in series {
                match s.points.get(i) {
                    Some((_, y)) => print!("{y:>16.2}"),
                    None => print!("{:>16}", "-"),
                }
            }
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_is_creatable() {
        let d = results_dir();
        assert!(d.exists());
    }

    #[test]
    fn series_print_does_not_panic() {
        let mut a = Series::new("LRU");
        a.push(20.0, 1.0);
        a.push(40.0, 2.0);
        let mut b = Series::new("MRU");
        b.push(20.0, 1.0);
        print_series("test", "MB", &[a, b]);
    }
}

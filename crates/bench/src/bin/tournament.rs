//! Policy tournament: every shipped policy × every workload shape ×
//! clean/chaos fault plans.
//!
//! Human mode prints one ranked table per workload (clean-plan faults and
//! hit rates) plus the overall Borda ranking; `--json` emits the full cell
//! matrix (see [`hipec_bench::JSON_SCHEMA_VERSION`]). Every
//! number derives from the seed, so two runs with the same flags produce
//! bit-identical output — `scripts/verify.sh` gates on that.
//!
//! Usage: `tournament [--seed S] [--ops N] [--short] [--json]`

use hipec_bench::finish;
use hipec_workloads::tournament::{run, Cell, Tournament, TournamentConfig};
use serde_json::Value;

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn cell_json(c: &Cell) -> Value {
    serde_json::json!({
        "policy": c.policy,
        "workload": c.workload,
        "plan": c.plan,
        "accesses": c.accesses,
        "ok": c.ok,
        "faults": c.faults,
        "hits": c.hits,
        "hit_permille": c.hit_permille,
        "p50_fault_ns": c.p50_fault_ns,
        "p99_fault_ns": c.p99_fault_ns,
        "p99_event_ns": c.p99_event_ns,
        "p99_flush_ns": c.p99_flush_ns,
        "commands": c.commands,
        "events": c.events,
        "flushes": c.flushes,
        "released": c.released,
        "device_faults": c.device_faults,
        "quarantines": c.quarantines,
        "elapsed_ns": c.elapsed_ns,
    })
}

fn report(t: &Tournament) {
    println!(
        "== HiPEC policy tournament (seed {:#x}, {} refs/workload) ==",
        t.seed, t.ops
    );
    for &wl in &t.workloads {
        println!("\n-- {wl} (clean plan) --");
        println!(
            "{:>10} {:>8} {:>8} {:>6} {:>12} {:>12} {:>12} {:>12}",
            "policy", "faults", "hits", "hit‰", "p50_fault", "p99_fault", "p99_event", "p99_flush"
        );
        let mut rows: Vec<&Cell> = t
            .cells
            .iter()
            .filter(|c| c.workload == wl && c.plan == "clean")
            .collect();
        rows.sort_by_key(|c| (c.faults, c.policy));
        for c in rows {
            println!(
                "{:>10} {:>8} {:>8} {:>6} {:>10}ns {:>10}ns {:>10}ns {:>10}ns",
                c.policy,
                c.faults,
                c.hits,
                c.hit_permille,
                c.p50_fault_ns,
                c.p99_fault_ns,
                c.p99_event_ns,
                c.p99_flush_ns
            );
        }
    }
    println!("\n-- chaos resilience --");
    println!(
        "{:>10} {:>10} {:>10} {:>12} {:>12}",
        "policy", "ok_refs", "dev_faults", "quarantines", "flushes"
    );
    for kind in hipec_policies::PolicyKind::ALL {
        let (mut ok, mut dev, mut q, mut fl) = (0u64, 0u64, 0u64, 0u64);
        for c in t
            .cells
            .iter()
            .filter(|c| c.policy == kind.name() && c.plan == "chaos")
        {
            ok += c.ok;
            dev += c.device_faults;
            q += c.quarantines;
            fl += c.flushes;
        }
        println!(
            "{:>10} {:>10} {:>10} {:>12} {:>12}",
            kind.name(),
            ok,
            dev,
            q,
            fl
        );
    }
    println!("\n-- overall ranking (Borda points over clean cells; lower is better) --");
    for (i, r) in t.ranking.iter().enumerate() {
        println!(
            "{:>2}. {:<10} points {:>3}  total clean faults {:>8}",
            i + 1,
            r.policy,
            r.points,
            r.clean_faults
        );
    }
}

fn main() {
    let mut cfg = if std::env::args().any(|a| a == "--short") {
        TournamentConfig::short()
    } else {
        TournamentConfig::full()
    };
    if let Some(s) = arg_value("--seed") {
        cfg.seed = parse_u64(&s, "--seed");
    }
    if let Some(s) = arg_value("--ops") {
        cfg.ops = parse_u64(&s, "--ops");
    }
    let t = match run(&cfg) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("tournament: FAIL: {e}");
            std::process::exit(1);
        }
    };
    if !hipec_bench::json_mode() {
        report(&t);
    }
    let data = serde_json::json!({
        "seed": t.seed,
        "ops": t.ops,
        "workloads": t.workloads,
        "policies": hipec_policies::PolicyKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>(),
        "cells": t.cells.iter().map(cell_json).collect::<Vec<_>>(),
        "ranking": t.ranking.iter().map(|r| serde_json::json!({
            "policy": r.policy,
            "points": r.points,
            "clean_faults": r.clean_faults,
        })).collect::<Vec<_>>(),
    });
    finish("tournament", &data);
}

fn parse_u64(s: &str, flag: &str) -> u64 {
    let digits = s.trim_start_matches("0x");
    let radix = if digits.len() < s.len() { 16 } else { 10 };
    match u64::from_str_radix(digits, radix) {
        Ok(v) => v,
        Err(_) => {
            eprintln!("tournament: bad value for {flag}: {s}");
            std::process::exit(2);
        }
    }
}

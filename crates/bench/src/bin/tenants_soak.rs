//! Tenants soak: the multi-tenant QoS gauntlet, traced and self-gating.
//!
//! Runs the `tenants` workload — a Zipf tenant population in three
//! weighted share classes, bursty arrivals under admission control,
//! mixed policies, and a storm device (all-torn write-backs + injected
//! completion delays) under the Free tier — and gates the QoS story:
//!
//! 1. the arrival bursts must trip the admission throttle, and every
//!    throttled Standard/Premium tenant must eventually install;
//! 2. the storm class must visibly degrade: its p99 fault latency ends
//!    well above the healthy classes';
//! 3. the healthy classes must be isolated: their p99 stays under an
//!    absolute bound even though the storm device's retry backlog rides
//!    the same pump (the head-of-line regression this tree fixes).
//!
//! The per-class rows come from the kernel's own `class_fault`
//! histograms and are emitted in the `--json` document (schema v7 and later) as a
//! `classes` array. The whole run is a pure function of the seed;
//! `scripts/verify.sh` runs the binary twice and `cmp`s the JSON.
//!
//! Usage: `tenants_soak [--ops N] [--seed S] [--json]`

use hipec_bench::{finish, json_mode, kernel_stats_json, results_dir};
use hipec_core::ShareClass;
use hipec_workloads::tenants::{run, TenantsConfig};

fn arg_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == name {
            return args.next();
        }
    }
    None
}

fn fail(msg: &str) -> ! {
    eprintln!("tenants_soak: FAIL: {msg}");
    std::process::exit(1);
}

/// Healthy classes must stay under this p99 bound while the storm rages.
/// The boot disk's unloaded fault p99 sits near 30 ms; the bound leaves
/// 2x headroom before the gate calls it head-of-line blocking.
const HEALTHY_P99_BOUND_NS: u64 = 60_000_000;

fn main() {
    let mut cfg = TenantsConfig::small();
    if let Some(ops) = arg_value("--ops").and_then(|s| s.parse().ok()) {
        cfg.ops = ops;
    }
    if let Some(seed) = arg_value("--seed").and_then(|s| {
        let s = s.trim_start_matches("0x");
        u64::from_str_radix(s, 16).ok()
    }) {
        cfg.seed = seed;
    }
    let json = json_mode();

    let r = match run(&cfg) {
        Ok(r) => r,
        Err(e) => fail(&format!("workload refused: {e}")),
    };

    if r.throttled == 0 {
        fail("arrival bursts never tripped the admission throttle");
    }
    for class in [ShareClass::Standard, ShareClass::Premium] {
        let row = &r.classes[class.index()];
        if row.installed != row.tenants {
            fail(&format!(
                "{} tenant(s) of class {} never installed (throttle must be retryable)",
                row.tenants - row.installed,
                class.name()
            ));
        }
        if row.faults == 0 {
            fail(&format!("class {} served no faults", class.name()));
        }
        let p99 = row.p99_fault.as_ns();
        if p99 > HEALTHY_P99_BOUND_NS {
            fail(&format!(
                "class {} p99 {}ns exceeds the {HEALTHY_P99_BOUND_NS}ns isolation bound",
                class.name(),
                p99
            ));
        }
    }
    let free = &r.classes[ShareClass::Free.index()];
    if free.faults == 0 {
        fail("the storm class served no faults");
    }
    let healthy_worst = [ShareClass::Standard, ShareClass::Premium]
        .iter()
        .map(|c| r.classes[c.index()].p99_fault.as_ns())
        .max()
        .unwrap_or(0);
    if free.p99_fault.as_ns() <= healthy_worst {
        fail(&format!(
            "the storm class did not degrade (free p99 {}ns <= healthy worst {healthy_worst}ns)",
            free.p99_fault.as_ns()
        ));
    }

    let classes: Vec<serde_json::Value> = r
        .classes
        .iter()
        .map(|c| {
            serde_json::json!({
                "class": c.class.name(),
                "tenants": c.tenants,
                "installed": c.installed,
                "faults": c.faults,
                "p50_fault_ns": c.p50_fault.as_ns(),
                "p99_fault_ns": c.p99_fault.as_ns(),
            })
        })
        .collect();
    let data = serde_json::json!({
        "ops": cfg.ops,
        "seed": cfg.seed,
        "accesses": r.accesses,
        "errors": r.errors,
        "installs": r.installs,
        "admission_throttled": r.throttled,
        "admission_over_share": r.over_share,
        "elapsed_ns": r.elapsed.as_ns(),
        "healthy_p99_bound_ns": HEALTHY_P99_BOUND_NS,
        "classes": classes,
        "kernel": kernel_stats_json(&r.stats),
    });
    if json {
        finish("tenants_soak", &data);
    } else {
        println!(
            "tenants_soak: {} ops over {} tenant(s), {} install(s) \
             ({} throttled, {} over share), seed {:#x}",
            r.accesses, cfg.tenants, r.installs, r.throttled, r.over_share, cfg.seed
        );
        for c in &r.classes {
            println!(
                "  {:>8}: {}/{} installed, {:>6} faults, p50 {} p99 {}",
                c.class.name(),
                c.installed,
                c.tenants,
                c.faults,
                c.p50_fault,
                c.p99_fault
            );
        }
        println!("(results: {})", results_dir().display());
        finish("tenants_soak", &data);
    }
}

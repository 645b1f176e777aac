//! Offline JSONL trace analysis.
//!
//! Replays a trace written by a `JsonlSink` (e.g. by `trace_soak`) and
//! reports frame lifecycles, fault/flush latency histograms and any
//! anomalies: frame leaks (flushes that never complete), retry storms,
//! abandoned write-backs, checker timeouts, and sequence gaps (records
//! lost to ring overwrites). Exits non-zero when anomalies are found, so
//! it can gate CI.
//!
//! Usage: `trace_analyze [FILE] [--json] [--gate-p99-fault-ns N]
//! [--gate-p99-flush-ns N]` — reads stdin when no file (or `-`) is given.
//! The `--gate-p99-*` flags turn
//! a latency tail past N virtual ns into an anomaly (and a non-zero exit),
//! so CI can pin percentile regressions, not just lifecycle bugs.

use std::io::Read;

use hipec_bench::analyze::{analyze_lines_with, AnalyzeOptions};
use hipec_bench::{finish, json_mode};

fn parse_gate(value: Option<String>, flag: &str) -> u64 {
    match value.and_then(|s| s.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("trace_analyze: {flag} needs an integer ns value");
            std::process::exit(2);
        }
    }
}

fn main() {
    let json = json_mode();
    let mut gate_fault = 0u64;
    let mut gate_flush = 0u64;
    let mut path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" | "-" => {}
            "--gate-p99-fault-ns" => gate_fault = parse_gate(args.next(), "--gate-p99-fault-ns"),
            "--gate-p99-flush-ns" => gate_flush = parse_gate(args.next(), "--gate-p99-flush-ns"),
            _ => path = Some(a),
        }
    }
    let text = match &path {
        Some(p) => match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("trace_analyze: cannot read {p}: {e}");
                std::process::exit(2);
            }
        },
        None => {
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                eprintln!("trace_analyze: cannot read stdin: {e}");
                std::process::exit(2);
            }
            buf
        }
    };

    let options = AnalyzeOptions {
        gate_p99_fault_ns: gate_fault,
        gate_p99_flush_ns: gate_flush,
    };
    let analysis = match analyze_lines_with(text.lines(), options) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("trace_analyze: malformed trace: {e}");
            std::process::exit(2);
        }
    };

    if json {
        finish("trace_analyze", &analysis.to_json());
    } else {
        print!("{analysis}");
        finish("trace_analyze", &analysis.to_json());
    }

    if !analysis.is_clean() {
        eprintln!(
            "trace_analyze: FAIL: {} anomaly(ies)",
            analysis.anomalies.len()
        );
        std::process::exit(1);
    }
}

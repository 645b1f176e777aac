//! Wall-clock overhead measurement for the `metrics` feature.
//!
//! Ignored by default: this is a measurement harness, not a correctness
//! test. It drives a pressured FIFO policy soak (faults, replacements,
//! flush exchanges, pump) twice — once bare (worst case: nothing but the
//! kernel hot loop) and once with a `JsonlSink` streaming to disk (the
//! `trace_soak` deployment shape the ≤ 5% soak budget is stated
//! against) — and prints the elapsed wall times, so the same binary can
//! be timed with the recording sites compiled in and out:
//!
//! ```text
//! cargo test --release -p hipec-core --test overhead -- --ignored --nocapture
//! cargo test --release -p hipec-core --no-default-features --features trace \
//!   --test overhead -- --ignored --nocapture
//! ```
//!
//! EXPERIMENTS.md records the measured numbers; the acceptance bound for
//! the metrics feature is ≤ 5% overhead on the sink-attached soak.

use std::time::Instant;

use hipec_core::command::{build, ArithOp, CompOp, JumpMode, QueueEnd};
use hipec_core::{HipecKernel, KernelVar, OperandDecl, PolicyProgram, NO_OPERAND};
use hipec_vm::{KernelParams, VAddr, PAGE_SIZE};

/// The Table 2-style FIFO policy: private free queue, FIFO eviction via a
/// reclaim helper, fault order remembered on a plain queue.
fn fifo_policy() -> PolicyProgram {
    let mut p = PolicyProgram::new();
    let free_q = p.declare(OperandDecl::FreeQueue);
    let fifo_q = p.declare(OperandDecl::Queue { recency: false });
    let page = p.declare(OperandDecl::Page);
    let free_count = p.declare(OperandDecl::Kernel(KernelVar::FreeCount));
    let zero = p.declare(OperandDecl::Int(0));
    p.add_event(
        "PageFault",
        vec![
            build::comp(free_count, zero, CompOp::Gt),
            build::jump(JumpMode::IfFalse, 3),
            build::jump(JumpMode::Always, 4),
            build::activate(2),
            build::dequeue(page, free_q, QueueEnd::Head),
            build::enqueue(page, fifo_q, QueueEnd::Tail),
            build::ret(page),
        ],
    );
    let want = p.declare(OperandDecl::Kernel(KernelVar::ReclaimTarget));
    let released = p.declare(OperandDecl::Int(0));
    let rpage = p.declare(OperandDecl::Page);
    p.add_event(
        "ReclaimFrame",
        vec![
            build::arith(released, zero, ArithOp::Mov),
            build::comp(released, want, CompOp::Lt),
            build::jump(JumpMode::IfFalse, 10),
            build::emptyq(free_q),
            build::jump(JumpMode::IfFalse, 6),
            build::fifo(fifo_q, rpage),
            build::dequeue(rpage, free_q, QueueEnd::Head),
            build::release(rpage),
            build::arith(released, zero, ArithOp::Inc),
            build::jump(JumpMode::Always, 1),
            build::ret(NO_OPERAND),
        ],
    );
    p.add_event(
        "Lack_free_frame",
        vec![build::fifo(fifo_q, page), build::ret(NO_OPERAND)],
    );
    p
}

/// Builds the pressured kernel, optionally attaches a JSONL sink, drives
/// `steps` references, and reports elapsed wall time plus the recorded
/// sample count.
fn run_soak(steps: u64, sink_path: Option<&std::path::Path>) -> (f64, u64) {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 256;
    params.wired_frames = 16;
    params.free_target = 16;
    params.free_min = 8;
    params.inactive_target = 32;

    let mut k = HipecKernel::new(params);
    #[cfg(feature = "trace")]
    if let Some(path) = sink_path {
        let file = std::fs::File::create(path).expect("create sink file");
        let sink = hipec_core::JsonlSink::new(std::io::BufWriter::new(file));
        k.set_sink(Box::new(std::rc::Rc::new(std::cell::RefCell::new(sink))));
    }
    #[cfg(not(feature = "trace"))]
    let _ = sink_path;
    let task = k.vm.create_task();
    let pages = 64u64;
    let (base, _obj, _key) = k
        .vm_allocate_hipec(task, pages * PAGE_SIZE, fifo_policy(), 32)
        .expect("install");

    let t0 = Instant::now();
    for s in 0..steps {
        let p = (s * 7 + 3) % pages;
        k.access_sync(task, VAddr(base.0 + p * PAGE_SIZE), s % 2 == 0)
            .expect("pressured access");
        k.pump();
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = k.kernel_stats();
    let recorded: u64 = stats.latency.iter().map(|r| r.count()).sum();
    if sink_path.is_none() {
        let mut by_metric: std::collections::BTreeMap<&str, u64> = Default::default();
        for r in &stats.latency {
            *by_metric.entry(r.metric.name()).or_insert(0) += r.count();
        }
        for (m, n) in by_metric {
            println!("  {m}: {n}");
        }
    }
    (elapsed, recorded)
}

#[test]
#[ignore = "measurement harness, see EXPERIMENTS.md"]
fn metrics_overhead_soak() {
    const STEPS: u64 = 400_000;
    let (bare, recorded) = run_soak(STEPS, None);
    println!(
        "metrics_overhead_soak[bare]: {STEPS} refs in {bare:.3}s ({:.0} refs/s), \
         {recorded} histogram samples recorded",
        STEPS as f64 / bare,
    );
    #[cfg(feature = "trace")]
    {
        let sink_path =
            std::env::temp_dir().join(format!("hipec_overhead_{}.jsonl", std::process::id()));
        let (sunk, _) = run_soak(STEPS, Some(&sink_path));
        let _ = std::fs::remove_file(&sink_path);
        println!(
            "metrics_overhead_soak[jsonl sink]: {STEPS} refs in {sunk:.3}s ({:.0} refs/s)",
            STEPS as f64 / sunk,
        );
    }
}

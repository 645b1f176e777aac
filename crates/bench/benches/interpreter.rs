//! Real (host wall-clock) performance of the policy executor: how fast
//! does this implementation fetch, decode and dispatch HiPEC commands?
//!
//! The paper's ≈150 ns figure is for a 1994 i486-50; this measures the
//! Rust interpreter on the machine running the benchmark.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hipec_core::command::{build, ArithOp, CompOp, JumpMode, QueueEnd};
use hipec_core::{HipecKernel, KernelVar, OperandDecl, PolicyProgram, NO_OPERAND};
use hipec_vm::{KernelParams, PAGE_SIZE};

/// The 3-command simple fault path: Comp, DeQueue, Return.
fn fast_path() -> PolicyProgram {
    let mut p = PolicyProgram::new();
    let free_q = p.declare(OperandDecl::FreeQueue);
    let page = p.declare(OperandDecl::Page);
    let free_count = p.declare(OperandDecl::Kernel(KernelVar::FreeCount));
    let zero = p.declare(OperandDecl::Int(0));
    p.add_event(
        "PageFault",
        vec![
            build::comp(free_count, zero, CompOp::Gt),
            build::dequeue(page, free_q, QueueEnd::Head),
            build::ret(page),
        ],
    );
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p
}

/// A 64-iteration arithmetic loop: pure fetch/decode/dispatch work.
fn arith_loop() -> PolicyProgram {
    let mut p = PolicyProgram::new();
    let _fq = p.declare(OperandDecl::FreeQueue);
    let i = p.declare(OperandDecl::Int(0));
    let n = p.declare(OperandDecl::Int(64));
    let zero = p.declare(OperandDecl::Int(0));
    p.add_event(
        "PageFault",
        vec![
            build::arith(i, zero, ArithOp::Mov),
            build::comp(i, n, CompOp::Lt),
            build::jump(JumpMode::IfFalse, 5),
            build::arith(i, zero, ArithOp::Inc),
            build::jump(JumpMode::Always, 1),
            build::ret(i),
        ],
    );
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p
}

fn setup(program: PolicyProgram) -> (HipecKernel, hipec_core::ContainerKey) {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 512;
    params.wired_frames = 16;
    let mut k = HipecKernel::new(params);
    let task = k.vm.create_task();
    let (_a, _o, key) = k
        .vm_allocate_hipec(task, 64 * PAGE_SIZE, program, 64)
        .expect("install");
    (k, key)
}

fn bench_interpreter(c: &mut Criterion) {
    let mut group = c.benchmark_group("interpreter");
    group.sample_size(30);

    // Simple fault path (3 commands + one queue op); the page is
    // handed back each round so the free queue never drains.
    let (mut k, key) = setup(fast_path());
    group.throughput(Throughput::Elements(3));
    group.bench_function("fast_path_3_commands", |b| {
        b.iter(|| {
            let v = k.run_event_raw(key, 0).expect("fast path");
            if let hipec_core::ExecValue::Page(f) = v {
                let free_q = k.containers[key.0 as usize].free_q;
                k.vm.frames.enqueue_tail(free_q, f).expect("give back");
            }
            v
        })
    });

    // Arithmetic loop: ≈ 258 commands per invocation, no kernel
    // objects — pure fetch/decode/dispatch cost.
    let (mut k, key) = setup(arith_loop());
    group.throughput(Throughput::Elements(64 * 4 + 2));
    group.bench_function("arith_loop_64", |b| {
        b.iter(|| k.run_event_raw(key, 0).expect("loop runs"))
    });

    group.finish();
}

criterion_group!(benches, bench_interpreter);
criterion_main!(benches);

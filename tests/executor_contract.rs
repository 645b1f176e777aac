//! Pinned contract tests for the policy executor.
//!
//! Per installed command the interpreter charges `cmd_fetch_decode` plus
//! the operation's native costs, burns one fuel unit, and bumps and
//! attributes the container's op profile. These tests pin that contract
//! where it is easiest to get wrong: fuel exhaustion, `Activate` depth,
//! device faults raised mid-policy, a faulting `Return`, and a runaway
//! policy caught by the security checker. A property sweep also checks
//! the peephole optimizer end to end: an optimized program must reach the
//! same outcome and final container state as its unoptimized source in no
//! more virtual time.

use proptest::prelude::*;

use hipec_core::command::{build, ArithOp, CompOp, JumpMode, LogicOp, PageBit, QueueEnd};
use hipec_core::{
    HipecError, HipecKernel, OpCode, OperandDecl, PolicyProgram, EVENT_PAGE_FAULT, NO_OPERAND,
};
use hipec_disk::FaultConfig;
use hipec_policies::PolicyKind;
use hipec_vm::{FrameId, KernelParams, VAddr, PAGE_SIZE};

// --- Harness ------------------------------------------------------------------

fn small_params() -> KernelParams {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 128;
    params.wired_frames = 8;
    params
}

fn fault_config(seed: u64, read_err: u16, write_err: u16, delay: u16, torn: u16) -> FaultConfig {
    FaultConfig {
        seed,
        read_error_permille: read_err,
        write_error_permille: write_err,
        delay_permille: delay,
        max_delay: hipec_sim::SimDuration::from_us(500),
        torn_permille: torn,
    }
}

/// Runs `trace` through a shipped policy with fault injection, returning
/// each access's outcome.
fn drive_shipped(kind: PolicyKind, trace: &[u64], cap: u64, cfg: FaultConfig) -> Vec<String> {
    let mut k = HipecKernel::new(small_params());
    k.vm.set_fault_plan(cfg);
    let task = k.vm.create_task();
    let (base, _o, _key) = k
        .vm_allocate_hipec(task, 24 * PAGE_SIZE, kind.program(), cap)
        .expect("install");
    let mut outcomes = Vec::with_capacity(trace.len());
    for &p in trace {
        let addr = VAddr(base.0 + p * PAGE_SIZE);
        let r = k.access_sync(task, addr, p % 2 == 0);
        outcomes.push(format!("{r:?}"));
        k.pump();
        k.check_invariants().expect("invariants hold");
    }
    outcomes
}

// --- Structured random programs -----------------------------------------------
//
// Straight-line kernel ops plus tests, forward jumps and condition-flag
// stores: enough control flow to exercise every optimizer pass.
// Forward-only jumps guarantee termination, so optimized and unoptimized
// forms can be compared state-for-state without fuel-exhaustion skew.

#[derive(Debug, Clone, Copy)]
enum GenCmd {
    Request,
    DequeueFree,
    DequeueQ,
    EnqueueFree,
    EnqueueQ,
    Release,
    Flush,
    Fifo,
    Mru,
    RefBit,
    ModBit,
    SetRef(bool),
    SetMod(bool),
    Test(bool),
    StoreCond,
    LoadCond,
    /// `Jump mode -> min(self + 1 + skip, last)`: always forward, always in
    /// range, `skip == 0` makes it a jump-to-next.
    Jump(u8, u8),
}

fn gen_cmd() -> impl Strategy<Value = GenCmd> {
    prop_oneof![
        Just(GenCmd::Request),
        Just(GenCmd::DequeueFree),
        Just(GenCmd::DequeueQ),
        Just(GenCmd::EnqueueFree),
        Just(GenCmd::EnqueueQ),
        Just(GenCmd::Release),
        Just(GenCmd::Flush),
        Just(GenCmd::Fifo),
        Just(GenCmd::Mru),
        Just(GenCmd::RefBit),
        Just(GenCmd::ModBit),
        any::<bool>().prop_map(GenCmd::SetRef),
        any::<bool>().prop_map(GenCmd::SetMod),
        any::<bool>().prop_map(GenCmd::Test),
        Just(GenCmd::StoreCond),
        Just(GenCmd::LoadCond),
        (0u8..3, 0u8..5).prop_map(|(m, s)| GenCmd::Jump(m, s)),
    ]
}

/// Assembles a validator-friendly program from the generated commands.
/// Slots: 0 free queue, 1 recency queue, 2 page, 3 int(1), 4 int(0), 5 bool.
fn assemble(gen: &[GenCmd]) -> PolicyProgram {
    let mut p = PolicyProgram::new();
    let free = p.declare(OperandDecl::FreeQueue);
    let q = p.declare(OperandDecl::Queue { recency: true });
    let page = p.declare(OperandDecl::Page);
    let one = p.declare(OperandDecl::Int(1));
    let zero = p.declare(OperandDecl::Int(0));
    let flag = p.declare(OperandDecl::Bool(false));
    let last = gen.len() as u16; // index of the final Return
    let mut cmds = Vec::with_capacity(gen.len() + 1);
    for (i, g) in gen.iter().enumerate() {
        cmds.push(match *g {
            GenCmd::Request => build::request(one, NO_OPERAND),
            GenCmd::DequeueFree => build::dequeue(page, free, QueueEnd::Head),
            GenCmd::DequeueQ => build::dequeue(page, q, QueueEnd::Head),
            GenCmd::EnqueueFree => build::enqueue(page, free, QueueEnd::Tail),
            GenCmd::EnqueueQ => build::enqueue(page, q, QueueEnd::Tail),
            GenCmd::Release => build::release(page),
            GenCmd::Flush => build::flush(page),
            GenCmd::Fifo => build::fifo(q, NO_OPERAND),
            GenCmd::Mru => build::mru(q, NO_OPERAND),
            GenCmd::RefBit => build::is_ref(page),
            GenCmd::ModBit => build::is_mod(page),
            GenCmd::SetRef(v) => build::set(page, PageBit::Reference, v),
            GenCmd::SetMod(v) => build::set(page, PageBit::Modify, v),
            GenCmd::Test(true) => build::comp(one, one, CompOp::Eq),
            GenCmd::Test(false) => build::comp(one, zero, CompOp::Eq),
            GenCmd::StoreCond => build::logic(flag, NO_OPERAND, LogicOp::StoreCond),
            GenCmd::LoadCond => build::logic(flag, NO_OPERAND, LogicOp::LoadCond),
            GenCmd::Jump(mode, skip) => {
                let mode = JumpMode::from_u8(mode).expect("mode in range");
                let target = (i as u16 + 1 + skip as u16).min(last);
                build::jump(mode, target)
            }
        });
    }
    cmds.push(build::ret(NO_OPERAND));
    p.add_event("PageFault", cmds);
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p
}

/// What a [`drive_program`] run leaves behind: per-event outcomes, the
/// final virtual clock, and the container's operand and queue state.
struct Outcome {
    results: Vec<String>,
    now_ns: u64,
    operands: Vec<String>,
    queues: Vec<Vec<FrameId>>,
}

/// Installs `program` and runs `rounds` PageFault events. `None` when
/// static validation rejects the stream (a skip, not a failure).
fn drive_program(program: PolicyProgram, rounds: usize, cfg: FaultConfig) -> Option<Outcome> {
    let mut params = small_params();
    params.total_frames = 64;
    params.wired_frames = 4;
    let mut k = HipecKernel::new(params);
    k.vm.set_fault_plan(cfg);
    let task = k.vm.create_task();
    let (_, _, key) = match k.vm_allocate_hipec(task, 16 * PAGE_SIZE, program, 4) {
        Ok(r) => r,
        Err(HipecError::InvalidProgram(_)) => return None,
        Err(e) => panic!("install failed: {e}"),
    };
    let mut results = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let r = k.run_event_raw(key, EVENT_PAGE_FAULT);
        results.push(format!("{r:?}"));
        k.check_invariants().expect("invariants hold");
    }
    while let Some(done) = k.vm.next_flush_completion() {
        k.vm.clock.advance_to(done);
        k.pump();
    }
    let container = k.container(key).expect("container");
    let operands: Vec<String> = container
        .operands
        .iter()
        .map(|s| format!("{s:?}"))
        .collect();
    let queues: Vec<Vec<FrameId>> = container
        .queues
        .iter()
        .map(|&q| k.vm.frames.iter_queue(q).collect())
        .collect();
    Some(Outcome {
        results,
        now_ns: k.vm.now().as_ns(),
        operands,
        queues,
    })
}

// --- The optimizer preserves outcomes ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The peephole optimizer must preserve outcomes — same per-event
    /// results and faults (modulo the `cc` a fault names, which
    /// legitimately shifts when commands are deleted), same final operand
    /// and queue state — and can only ever *save* virtual time (fewer
    /// commands means fewer decode charges, never more).
    #[test]
    fn optimized_streams_match_unoptimized_outcomes(
        gen in prop::collection::vec(gen_cmd(), 0..32),
        rounds in 1usize..6,
        seed in any::<u64>(),
        write_err in 0u16..200,
    ) {
        let cfg = fault_config(seed, 0, write_err, 100, 0);
        let program = assemble(&gen);
        let optimized = hipec_lang::optimize(&program);
        let (Some(plain), Some(opt)) =
            (drive_program(program, rounds, cfg), drive_program(optimized, rounds, cfg))
        else {
            // Validation verdicts must at least agree.
            return Ok(());
        };
        let plain_out: Vec<String> = plain.results.iter().map(|s| strip_cc(s)).collect();
        let opt_out: Vec<String> = opt.results.iter().map(|s| strip_cc(s)).collect();
        prop_assert_eq!(&plain_out, &opt_out, "results or faults diverged");
        prop_assert_eq!(&plain.operands, &opt.operands, "operand state diverged");
        prop_assert_eq!(&plain.queues, &opt.queues, "queue state diverged");
        prop_assert!(
            opt.now_ns <= plain.now_ns,
            "the optimizer may only remove charges: {} > {}",
            opt.now_ns,
            plain.now_ns
        );
    }
}

/// Replaces every `cc: <digits>` in a fault's debug rendering with
/// `cc: _`: the source position a fault names is the one field the
/// optimizer is allowed to move.
fn strip_cc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find("cc: ") {
        out.push_str(&rest[..i + 4]);
        rest = &rest[i + 4..];
        let end = rest
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(rest.len());
        out.push('_');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

// --- Fault-path charges (pinned unit tests) -----------------------------------

/// Installs `program` on a small kernel, no fault plan.
fn bare_kernel(program: PolicyProgram) -> (HipecKernel, hipec_core::ContainerKey) {
    let mut k = HipecKernel::new(small_params());
    let task = k.vm.create_task();
    let (_, _, key) = k
        .vm_allocate_hipec(task, 16 * PAGE_SIZE, program, 4)
        .expect("install");
    (k, key)
}

fn fuel_program() -> PolicyProgram {
    let mut p = PolicyProgram::new();
    p.declare(OperandDecl::FreeQueue);
    let n = p.declare(OperandDecl::Int(0));
    let one = p.declare(OperandDecl::Int(1));
    let cmds = vec![
        build::arith(n, one, ArithOp::Add),
        build::jump(JumpMode::Always, 0),
    ];
    p.add_event("PageFault", cmds);
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p
}

/// Fuel exhaustion mid-stream stops after exactly the fuel budget in
/// commands, charges one decode per command, and marks the policy runaway
/// (the stop at `executor.rs`'s fuel check).
#[test]
fn fuel_exhaustion_charges_identically() {
    let (mut k, key) = bare_kernel(fuel_program());
    k.limits.fuel = 7;
    let start = k.vm.now();
    let r = k.run_event_raw(key, EVENT_PAGE_FAULT);
    let c = k.container(key).expect("container");
    assert!(format!("{r:?}").contains("OutOfFuel"));
    assert_eq!(c.stats.commands, 7, "exactly the fuel budget in commands");
    assert!(c.runaway, "fuel exhaustion marks the policy runaway");
    assert_eq!(
        k.vm.now().since(start),
        k.vm.cost.cmd_fetch_decode * 7,
        "Arith and Jump charge only their decode"
    );
    assert_eq!(
        c.op_profile.count(OpCode::Arith) + c.op_profile.count(OpCode::Jump),
        7
    );
}

/// An `Activate` chain that exceeds the depth limit faults once the nesting
/// reaches `max_depth`, having charged one decode per `Activate` run.
#[test]
fn activate_depth_fault_charges_identically() {
    let mut p = PolicyProgram::new();
    p.declare(OperandDecl::FreeQueue);
    // PageFault activates Deep; Deep activates itself until the limit.
    p.add_event(
        "PageFault",
        vec![build::activate(2), build::ret(NO_OPERAND)],
    );
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p.add_event("Deep", vec![build::activate(2), build::ret(NO_OPERAND)]);

    let (mut k, key) = bare_kernel(p);
    let start = k.vm.now();
    let r = k.run_event_raw(key, EVENT_PAGE_FAULT);
    assert!(format!("{r:?}").contains("DepthExceeded"));
    // One `Activate` at each depth 0..=max_depth; the last one faults.
    let activations = u64::from(k.limits.max_depth) + 1;
    let c = k.container(key).expect("container");
    assert_eq!(c.stats.commands, activations);
    assert_eq!(c.stats.events, activations);
    assert_eq!(c.op_profile.count(OpCode::Activate), activations);
    assert_eq!(
        k.vm.now().since(start),
        k.vm.cost.cmd_fetch_decode * activations
    );
}

/// A device fault raised mid-policy (a `Flush` of a dirty victim refused
/// once the device's breaker trips under persistent write failures) must
/// abort the event with a typed `Device` fault.
#[test]
fn device_fault_charges_identically() {
    // Dirty every page (even page numbers are writes in `drive_shipped`)
    // and evict constantly with a tiny cap, so FIFO-2ndChance keeps
    // flushing modified victims into a device where every write fails.
    let trace: Vec<u64> = (0..12u64).map(|i| (i * 2) % 24).cycle().take(96).collect();
    let cfg = fault_config(0xD15C, 0, 1000, 0, 0);
    let outcomes = drive_shipped(PolicyKind::FifoSecondChance, &trace, 4, cfg);
    assert!(
        outcomes.iter().any(|s| s.contains("Device")),
        "a flush under a persistently failing device must eventually raise \
         the Device fault mid-policy: {outcomes:?}"
    );
}

/// A faulting `Return` is counted but NOT attributed, like every other
/// faulting command.
#[test]
fn faulting_return_is_counted_but_not_attributed() {
    let mut p = PolicyProgram::new();
    p.declare(OperandDecl::FreeQueue);
    let page = p.declare(OperandDecl::Page);
    // The page slot is empty, so `Return page` faults.
    p.add_event("PageFault", vec![build::ret(page)]);
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);

    let (mut k, key) = bare_kernel(p);
    let r = k.run_event_raw(key, EVENT_PAGE_FAULT);
    assert!(format!("{r:?}").contains("EmptyPageSlot"));
    let profile = k.container(key).expect("container").op_profile;
    assert_eq!(profile.count(OpCode::Return), 1);
    assert!(
        profile.time(OpCode::Return).as_ns() == 0,
        "a faulting Return must not be attributed"
    );
}

/// A runaway compiled policy must sit stuck until the security checker's
/// timeout detection terminates it, rather than being killed directly.
#[test]
fn runaway_compiled_policy_trips_checker_timeout_identically() {
    let mut p = PolicyProgram::new();
    p.declare(OperandDecl::FreeQueue);
    p.add_event("PageFault", vec![build::jump(JumpMode::Always, 0)]);
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);

    let mut k = HipecKernel::new(small_params());
    let task = k.vm.create_task();
    let (base, _, key) = k
        .vm_allocate_hipec(task, 16 * PAGE_SIZE, p, 4)
        .expect("install");
    let err = k
        .access(task, base, false)
        .expect_err("runaway must be killed")
        .to_string();
    assert!(
        err.contains("timeout detected after"),
        "the checker, not a direct kill, must terminate the runaway: {err}"
    );
    assert!(
        k.container(key).expect("container").terminated,
        "the application is terminated"
    );
}

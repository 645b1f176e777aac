//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use hipec_core::{HipecKernel, PolicyProgram, OPERAND_SLOTS};
use hipec_policies::native::{CacheSim, Fifo, Lru, Mru};
use hipec_policies::PolicyKind;
use hipec_vm::{FrameId, FrameTable, KernelParams, VAddr, PAGE_SIZE};

// --- Intrusive frame queues vs a VecDeque model ------------------------------

#[derive(Debug, Clone)]
enum QueueOp {
    EnqueueTail(u8),
    EnqueueHead(u8),
    DequeueHead,
    DequeueTail,
    Remove(u8),
    Touch(u8),
}

fn queue_op() -> impl Strategy<Value = QueueOp> {
    prop_oneof![
        (0u8..32).prop_map(QueueOp::EnqueueTail),
        (0u8..32).prop_map(QueueOp::EnqueueHead),
        Just(QueueOp::DequeueHead),
        Just(QueueOp::DequeueTail),
        (0u8..32).prop_map(QueueOp::Remove),
        (0u8..32).prop_map(QueueOp::Touch),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The intrusive queue behaves exactly like a VecDeque, including the
    /// auto-recency move-to-tail on touch.
    #[test]
    fn frame_queue_matches_vecdeque_model(ops in prop::collection::vec(queue_op(), 1..200)) {
        let mut table = FrameTable::new(32);
        let q = table.new_queue(true);
        let mut model: std::collections::VecDeque<u8> = Default::default();

        for op in ops {
            match op {
                QueueOp::EnqueueTail(i) => {
                    let res = table.enqueue_tail(q, FrameId(i as u32));
                    if model.contains(&i) {
                        prop_assert!(res.is_err(), "double enqueue must fail");
                    } else {
                        prop_assert!(res.is_ok());
                        model.push_back(i);
                    }
                }
                QueueOp::EnqueueHead(i) => {
                    let res = table.enqueue_head(q, FrameId(i as u32));
                    if model.contains(&i) {
                        prop_assert!(res.is_err());
                    } else {
                        prop_assert!(res.is_ok());
                        model.push_front(i);
                    }
                }
                QueueOp::DequeueHead => {
                    let got = table.dequeue_head(q).expect("valid queue");
                    prop_assert_eq!(got.map(|f| f.0 as u8), model.pop_front());
                }
                QueueOp::DequeueTail => {
                    let got = table.dequeue_tail(q).expect("valid queue");
                    prop_assert_eq!(got.map(|f| f.0 as u8), model.pop_back());
                }
                QueueOp::Remove(i) => {
                    let res = table.remove(FrameId(i as u32));
                    match model.iter().position(|&x| x == i) {
                        Some(pos) => {
                            prop_assert!(res.is_ok());
                            model.remove(pos);
                        }
                        None => prop_assert!(res.is_err()),
                    }
                }
                QueueOp::Touch(i) => {
                    table.touch(FrameId(i as u32), false).expect("valid frame");
                    if let Some(pos) = model.iter().position(|&x| x == i) {
                        // Auto-recency: member frames move to the tail.
                        model.remove(pos);
                        model.push_back(i);
                    }
                }
            }
            // Full structural comparison after every operation.
            let ours: Vec<u8> = table.iter_queue(q).map(|f| f.0 as u8).collect();
            let theirs: Vec<u8> = model.iter().copied().collect();
            prop_assert_eq!(ours, theirs);
            prop_assert_eq!(table.queue_len(q).expect("len"), model.len() as u64);
        }
    }

    /// The wire decoder never panics on arbitrary word streams.
    #[test]
    fn wire_decoder_is_total(words in prop::collection::vec(any::<u32>(), 0..64)) {
        let _ = PolicyProgram::from_words(&words);
    }

    /// One mutated word anywhere in a shipped policy's wire image decodes
    /// to a typed error or to a program no larger than its input: no count
    /// in the buffer reaches an allocation unchecked.
    #[test]
    fn wire_decoder_survives_single_word_mutations(
        idx in 0usize..PolicyKind::ALL.len(),
        at in any::<usize>(),
        word in any::<u32>(),
    ) {
        let mut words = PolicyKind::ALL[idx].program().to_words();
        let at = at % words.len();
        words[at] = word;
        if let Ok(p) = PolicyProgram::from_words(&words) {
            prop_assert!(p.decls.len() <= OPERAND_SLOTS as usize);
            let consumed = 4 + 3 * p.decls.len() + p.events.len() + p.total_commands();
            prop_assert!(consumed <= words.len());
        }
    }

    /// Wire encoding round-trips every program the translator can produce
    /// from the shipped sources (parameterized by which policy).
    #[test]
    fn wire_round_trip_shipped_policies(idx in 0usize..PolicyKind::ALL.len()) {
        let program = PolicyKind::ALL[idx].program();
        let decoded = PolicyProgram::from_words(&program.to_words()).expect("round trip");
        prop_assert_eq!(&decoded.decls, &program.decls);
        for (a, b) in decoded.events.iter().zip(program.events.iter()) {
            prop_assert_eq!(a.as_slice(), b.as_slice());
        }
    }

    /// The lexer and parser never panic on arbitrary input.
    #[test]
    fn translator_frontend_is_total(src in "\\PC{0,200}") {
        let _ = hipec_lang::compile(&src);
    }

    /// Static validation never panics on arbitrary command streams.
    #[test]
    fn validator_is_total(
        words in prop::collection::vec(any::<u32>(), 1..32),
        decl_count in 0usize..6,
    ) {
        use hipec_core::OperandDecl;
        let mut p = PolicyProgram::new();
        for i in 0..decl_count {
            p.declare(match i % 4 {
                0 => OperandDecl::FreeQueue,
                1 => OperandDecl::Page,
                2 => OperandDecl::Int(7),
                _ => OperandDecl::Bool(false),
            });
        }
        p.add_event("PageFault", words.iter().map(|&w| hipec_core::RawCmd(w)).collect());
        p.add_event("ReclaimFrame", vec![hipec_core::command::build::ret(hipec_core::NO_OPERAND)]);
        let _ = hipec_core::validate_program(&p);
    }
}

// --- Interpreted vs native policy equivalence ---------------------------------

fn run_interpreted(kind: PolicyKind, trace: &[u64], region: u64, cap: u64) -> u64 {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 512;
    params.wired_frames = 16;
    let mut k = HipecKernel::new(params);
    let task = k.vm.create_task();
    let (base, _o, key) = k
        .vm_allocate_hipec(task, region * PAGE_SIZE, kind.program(), cap)
        .expect("install");
    for &p in trace {
        k.access_sync(task, VAddr(base.0 + p * PAGE_SIZE), false)
            .expect("access");
        k.vm.pump();
    }
    k.container(key).expect("container").stats.faults
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// On any trace, the interpreted FIFO/LRU/MRU policies fault exactly
    /// like their native oracles.
    #[test]
    fn interpreted_policies_match_oracles(
        trace in prop::collection::vec(0u64..24, 1..150),
        cap in 2u64..16,
    ) {
        let region = 24u64;
        let fifo = run_interpreted(PolicyKind::Fifo, &trace, region, cap);
        prop_assert_eq!(
            fifo,
            CacheSim::new(Fifo::default(), cap as usize).run(trace.iter().copied())
        );
        let lru = run_interpreted(PolicyKind::Lru, &trace, region, cap);
        prop_assert_eq!(
            lru,
            CacheSim::new(Lru::default(), cap as usize).run(trace.iter().copied())
        );
        let mru = run_interpreted(PolicyKind::Mru, &trace, region, cap);
        prop_assert_eq!(
            mru,
            CacheSim::new(Mru::default(), cap as usize).run(trace.iter().copied())
        );
    }

    /// Belady's OPT lower-bounds every shipped policy on every trace.
    #[test]
    fn opt_is_a_universal_lower_bound(
        trace in prop::collection::vec(0u64..32, 1..200),
        cap in 2usize..12,
    ) {
        let opt = hipec_policies::native::opt_faults(&trace, cap);
        for faults in [
            CacheSim::new(Fifo::default(), cap).run(trace.iter().copied()),
            CacheSim::new(Lru::default(), cap).run(trace.iter().copied()),
            CacheSim::new(Mru::default(), cap).run(trace.iter().copied()),
            CacheSim::new(hipec_policies::native::Clock::default(), cap)
                .run(trace.iter().copied()),
        ] {
            prop_assert!(opt <= faults);
        }
    }
}

// --- Random policies under deterministic fault injection ----------------------

use hipec_disk::FaultConfig;
use hipec_vm::TaskId;

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

/// Runs `trace` through a policy-managed region with faults injected, and
/// audits every kernel step. Returns the injected-fault trace and a few
/// counters (the determinism fingerprint).
fn drive_faulty(
    kind: PolicyKind,
    trace: &[u64],
    cap: u64,
    cfg: FaultConfig,
) -> (Vec<hipec_disk::InjectedFault>, u64, u64) {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 128;
    params.wired_frames = 8;
    let mut k = HipecKernel::new(params);
    k.vm.set_fault_plan(cfg);
    let task = k.vm.create_task();
    let (base, _o, _key) = k
        .vm_allocate_hipec(task, 24 * PAGE_SIZE, kind.program(), cap)
        .expect("install");
    for &p in trace {
        // Accesses either succeed or raise a typed error (a device fault,
        // or the security checker terminating the policy); the kernel
        // state must stay consistent either way.
        let addr = VAddr(base.0 + p * PAGE_SIZE);
        // Writes make pages dirty so flushes (and torn flushes) happen.
        let _ = k.access_sync(task, addr, p % 2 == 0);
        k.pump();
        k.check_invariants()
            .expect("invariants must survive injected faults");
    }
    let faults =
        k.vm.device()
            .fault_plan()
            .expect("plan installed")
            .trace()
            .to_vec();
    (
        faults,
        k.vm.stats.get("torn_flushes"),
        k.vm.stats.get("read_errors"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random replacement policy, random trace, random fault plan: every
    /// kernel step either succeeds or raises a typed fault, and the
    /// invariant audit passes after every step.
    #[test]
    fn policies_under_faults_preserve_invariants(
        kind_idx in 0usize..PolicyKind::ALL.len(),
        trace in prop::collection::vec(0u64..24, 1..60),
        cap in 2u64..12,
        seed in any::<u64>(),
        read_err in 0u16..120,
        write_err in 0u16..120,
        delay in 0u16..200,
        torn in 0u16..150,
    ) {
        let cfg = fault_config(seed, read_err, write_err, delay, torn);
        drive_faulty(PolicyKind::ALL[kind_idx], &trace, cap, cfg);
    }

    /// Fault injection is deterministic: the same seed yields the same
    /// injected-fault trace and the same failure counters, twice over.
    #[test]
    fn fault_injection_replays_exactly(
        kind_idx in 0usize..PolicyKind::ALL.len(),
        trace in prop::collection::vec(0u64..24, 1..40),
        cap in 2u64..12,
        seed in any::<u64>(),
    ) {
        let cfg = fault_config(seed, 80, 80, 150, 120);
        let a = drive_faulty(PolicyKind::ALL[kind_idx], &trace, cap, cfg);
        let b = drive_faulty(PolicyKind::ALL[kind_idx], &trace, cap, cfg);
        prop_assert_eq!(a, b, "same seed must replay the same failure trace");
    }
}

// --- Weighted pump under random multi-device fault plans -----------------------

/// Two containers on two devices, an arbitrary flat fault plan on the
/// second; interleaves `trace` over both regions, pumping and auditing
/// the frame-conservation invariants after every step, then returns the
/// full JSONL trace bytes plus the stats fingerprint the weighted pump
/// touches. The weighted submission order is a pure function of kernel
/// state, so the whole record must be a pure function of the inputs.
fn drive_two_device_faulty(trace: &[u64], cfg: FaultConfig) -> (Vec<u8>, u64, u64, u64) {
    use std::cell::RefCell;
    use std::rc::Rc;

    let mut params = KernelParams::paper_64mb();
    params.total_frames = 48;
    params.wired_frames = 8;
    params.free_target = 8;
    params.free_min = 4;
    params.inactive_target = 12;
    let mut k = HipecKernel::new(params);
    let dev_bad = k.add_device(hipec_disk::DeviceParams::default());
    k.vm.set_fault_plan_on(dev_bad, cfg);

    let sink = Rc::new(RefCell::new(hipec_core::JsonlSink::new(Vec::<u8>::new())));
    k.set_sink(Box::new(Rc::clone(&sink)));

    let t_a = k.vm.create_task();
    let (base_a, _, _) = k
        .vm_allocate_hipec(t_a, 24 * PAGE_SIZE, PolicyKind::Lru.program(), 4)
        .expect("install on the clean device");
    let t_b = k.vm.create_task();
    let (base_b, _, _) = k
        .vm_allocate_hipec_on(dev_bad, t_b, 24 * PAGE_SIZE, PolicyKind::Fifo.program(), 4)
        .expect("install on the faulty device");

    for (s, &p) in trace.iter().enumerate() {
        let _ = k.access_sync(t_a, VAddr(base_a.0 + p * PAGE_SIZE), s % 2 == 0);
        let _ = k.access_sync(t_b, VAddr(base_b.0 + (p * 7 % 24) * PAGE_SIZE), s % 3 != 0);
        k.pump();
        k.check_invariants()
            .expect("conservation invariants must survive the fault plan");
    }
    // Bounded drain: flat plans may keep tearing forever, but the retry
    // budget abandons each flush eventually, so the backlog always dries.
    let mut guard = 0u32;
    while let Some(done) = k.vm.next_flush_completion() {
        k.vm.clock.advance_to(done);
        k.pump();
        k.check_invariants()
            .expect("invariants hold during the drain");
        guard += 1;
        assert!(guard <= 200_000, "drain never quiesced");
    }

    let stats = k.kernel_stats();
    k.take_sink();
    let bytes = sink.borrow().get_ref().clone();
    (
        bytes,
        stats.get("torn_flushes").unwrap_or(0),
        stats.get("pump_budget_deferrals").unwrap_or(0),
        stats.get("flush_abandoned").unwrap_or(0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across random multi-device fault plans, the deadline/pressure-
    /// weighted pump keeps the frame books balanced after every step and
    /// replays its full JSONL trace bit-for-bit — the weighted order and
    /// the submission budget are pure functions of kernel state, never of
    /// host randomness or wall-clock time.
    #[test]
    fn weighted_pump_conserves_and_replays_under_random_plans(
        trace in prop::collection::vec(0u64..24, 1..50),
        seed in any::<u64>(),
        write_err in 0u16..120,
        delay in 0u16..400,
        torn in 0u16..=1000,
    ) {
        let cfg = fault_config(seed, 0, write_err, delay, torn);
        let a = drive_two_device_faulty(&trace, cfg);
        let b = drive_two_device_faulty(&trace, cfg);
        prop_assert_eq!(a, b, "same inputs must replay the same trace and counters");
    }
}

// --- Random command streams under faults ---------------------------------------

#[derive(Debug, Clone, Copy)]
enum PolicyOp {
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
}

fn policy_op() -> impl Strategy<Value = PolicyOp> {
    prop_oneof![
        Just(PolicyOp::Request),
        Just(PolicyOp::DequeueFree),
        Just(PolicyOp::DequeueQ),
        Just(PolicyOp::EnqueueFree),
        Just(PolicyOp::EnqueueQ),
        Just(PolicyOp::Release),
        Just(PolicyOp::Flush),
        Just(PolicyOp::Fifo),
        Just(PolicyOp::Mru),
        Just(PolicyOp::RefBit),
        Just(PolicyOp::ModBit),
    ]
}

/// Assembles a straight-line policy event from the op list. Slot layout:
/// 0 free queue, 1 extra queue, 2 page, 3 int(1).
fn assemble(ops: &[PolicyOp]) -> hipec_core::PolicyProgram {
    use hipec_core::command::{build, QueueEnd};
    use hipec_core::{OperandDecl, PolicyProgram, NO_OPERAND};
    let mut p = PolicyProgram::new();
    let free = p.declare(OperandDecl::FreeQueue);
    let q = p.declare(OperandDecl::Queue { recency: false });
    let page = p.declare(OperandDecl::Page);
    let one = p.declare(OperandDecl::Int(1));
    let mut cmds = Vec::with_capacity(ops.len() + 1);
    for op in ops {
        cmds.push(match op {
            PolicyOp::Request => build::request(one, NO_OPERAND),
            PolicyOp::DequeueFree => build::dequeue(page, free, QueueEnd::Head),
            PolicyOp::DequeueQ => build::dequeue(page, q, QueueEnd::Head),
            PolicyOp::EnqueueFree => build::enqueue(page, free, QueueEnd::Tail),
            PolicyOp::EnqueueQ => build::enqueue(page, q, QueueEnd::Tail),
            PolicyOp::Release => build::release(page),
            PolicyOp::Flush => build::flush(page),
            PolicyOp::Fifo => build::fifo(q, NO_OPERAND),
            PolicyOp::Mru => build::mru(q, NO_OPERAND),
            PolicyOp::RefBit => build::is_ref(page),
            PolicyOp::ModBit => build::is_mod(page),
        });
    }
    cmds.push(build::ret(NO_OPERAND));
    p.add_event("PageFault", cmds.clone());
    p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary well-typed command streams, run repeatedly under a random
    /// fault plan, either complete or abort with a typed policy fault — and
    /// the kernel invariants hold after every event, no matter what the
    /// policy did to its queues and slots.
    #[test]
    fn random_command_streams_cannot_corrupt_the_kernel(
        ops in prop::collection::vec(policy_op(), 0..24),
        seed in any::<u64>(),
        write_err in 0u16..200,
        torn in 0u16..200,
        rounds in 1usize..6,
    ) {
        let mut params = KernelParams::paper_64mb();
        params.total_frames = 64;
        params.wired_frames = 4;
        let mut k = HipecKernel::new(params);
        k.vm.set_fault_plan(fault_config(seed, 0, write_err, 100, torn));
        let task = k.vm.create_task();
        let program = assemble(&ops);
        let (_, _, key) = match k.vm_allocate_hipec(task, 16 * PAGE_SIZE, program, 4) {
            Ok(r) => r,
            // Static validation may reject some streams; that is a typed
            // failure, not a property violation.
            Err(hipec_core::HipecError::InvalidProgram(_)) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("install failed: {e}"))),
        };
        for _ in 0..rounds {
            // Each event run either returns a value or a typed fault.
            let _ = k.run_event_raw(key, hipec_core::EVENT_PAGE_FAULT);
            k.check_invariants()
                .expect("invariants must survive arbitrary policies");
        }
        // Drain any in-flight flushes the policy started.
        while let Some(done) = k.vm.next_flush_completion() {
            k.vm.clock.advance_to(done);
            k.pump();
        }
        k.check_invariants().expect("invariants hold after drain");
        let _ = TaskId(0);
    }
}

// --- Event queue vs a sorted-model oracle -------------------------------------

#[derive(Debug, Clone)]
enum EvOp {
    Schedule(u32),
    CancelRecent,
    Pop,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The deterministic event queue pops in (time, insertion) order and
    /// honours cancellation, exactly like a stable-sorted model.
    #[test]
    fn event_queue_matches_sorted_model(
        ops in prop::collection::vec(
            prop_oneof![
                (0u32..100).prop_map(EvOp::Schedule),
                Just(EvOp::CancelRecent),
                Just(EvOp::Pop),
            ],
            1..120,
        )
    ) {
        use hipec_sim::{EventQueue, SimTime};
        let mut q: EventQueue<u64> = EventQueue::new();
        // Model: (time, seq, payload, cancelled).
        let mut model: Vec<(u64, u64, u64, bool)> = Vec::new();
        let mut seq = 0u64;
        let mut ids = Vec::new();
        for op in ops {
            match op {
                EvOp::Schedule(t) => {
                    let id = q.schedule(SimTime::from_ns(t as u64), seq);
                    model.push((t as u64, seq, seq, false));
                    ids.push((id, seq));
                    seq += 1;
                }
                EvOp::CancelRecent => {
                    if let Some((id, s)) = ids.pop() {
                        let was_live = model
                            .iter()
                            .any(|(_, ms, _, c)| *ms == s && !c);
                        prop_assert_eq!(q.cancel(id), was_live);
                        for m in model.iter_mut() {
                            if m.1 == s {
                                m.3 = true;
                            }
                        }
                    }
                }
                EvOp::Pop => {
                    let expected = model
                        .iter()
                        .filter(|(_, _, _, c)| !c)
                        .min_by_key(|(t, s, _, _)| (*t, *s))
                        .map(|(t, s, p, _)| (*t, *s, *p));
                    match (q.pop(), expected) {
                        (Some((at, payload)), Some((t, s, p))) => {
                            prop_assert_eq!(at.as_ns(), t);
                            prop_assert_eq!(payload, p);
                            model.retain(|(_, ms, _, _)| *ms != s);
                        }
                        (None, None) => {}
                        (got, want) => {
                            return Err(TestCaseError::fail(format!(
                                "pop mismatch: {got:?} vs {want:?}"
                            )))
                        }
                    }
                }
            }
            let live = model.iter().filter(|(_, _, _, c)| !c).count();
            prop_assert_eq!(q.len(), live);
        }
    }

    /// VmMap region allocation never overlaps and lookups hit the right
    /// entry, against a brute-force interval model.
    #[test]
    fn vm_map_matches_interval_model(
        regions in prop::collection::vec((1u64..32, 0u64..200), 1..24),
        probes in prop::collection::vec(0u64..8_192, 1..64),
    ) {
        use hipec_vm::{ObjectId, TaskId, VmMap, PAGE_SIZE};
        let mut map = VmMap::new();
        let mut model: Vec<(u64, u64, u32)> = Vec::new(); // (start_vpage, pages, obj)
        for (i, (pages, offset)) in regions.into_iter().enumerate() {
            let base = map
                .insert_anywhere(pages, ObjectId(i as u32), offset)
                .expect("insert");
            let start = base.vpage();
            for (ms, mp, _) in &model {
                prop_assert!(
                    start + pages <= *ms || *ms + *mp <= start,
                    "regions overlap"
                );
            }
            model.push((start, pages, i as u32));
        }
        let origin = model.first().map(|(s, _, _)| *s).unwrap_or(0);
        for probe in probes {
            let vpage = origin + probe;
            let addr = hipec_vm::VAddr(vpage * PAGE_SIZE + 1);
            let expect = model
                .iter()
                .find(|(s, p, _)| vpage >= *s && vpage < s + p)
                .map(|(_, _, o)| *o);
            let got = map.lookup(TaskId(0), addr).ok().map(|e| e.object.0);
            prop_assert_eq!(got, expect);
        }
    }
}

// --- SecurityChecker adaptation: the WakeUp equation's clamp ------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// From *any* starting interval — including ones far outside the
    /// paper's band, as after a privileged reconfiguration — `adapt`
    /// halves on a detected timeout and doubles otherwise, and the result
    /// is always clamped into `[min_interval, max_interval]` from both
    /// sides.
    #[test]
    fn checker_adaptation_is_always_clamped(
        start_ns in 1u64..20_000_000_000,
        outcomes in prop::collection::vec(any::<bool>(), 1..40),
    ) {
        use hipec_core::SecurityChecker;
        use hipec_sim::SimDuration;

        let mut checker = SecurityChecker::new();
        checker.interval = SimDuration::from_ns(start_ns);
        let min = checker.min_interval;
        let max = checker.max_interval;
        for &timed_out in &outcomes {
            let before = checker.interval;
            checker.adapt(timed_out);
            let after = checker.interval;
            prop_assert!(after >= min, "interval fell below the 250 ms floor");
            prop_assert!(after <= max, "interval rose above the 8 s ceiling");
            // Inside the band the adaptation is exactly the WakeUp
            // equation: halve on timeout, double otherwise, each clamped
            // only in the direction it moves.
            if before >= min && before <= max {
                let expect = if timed_out {
                    before.halved_with_floor(min)
                } else {
                    before.doubled_with_ceil(max)
                };
                prop_assert_eq!(after, expect);
            }
        }

        // A non-adaptive checker (the ablation) never moves at all.
        let mut frozen = SecurityChecker::new();
        frozen.interval = SimDuration::from_ns(start_ns);
        frozen.adaptive = false;
        frozen.adapt(true);
        frozen.adapt(false);
        prop_assert_eq!(frozen.interval, SimDuration::from_ns(start_ns));
    }
}

// --- Learned/adaptive policy properties ---------------------------------------

use hipec_core::OperandSlot;
use hipec_policies::native::{Awrp, LearnedCache, AWRP_W_MAX, LEARNED_W_MAX};

/// Replays `trace` in-kernel under `kind` and returns every integer
/// operand slot of the region's container afterwards.
fn int_slots_after(kind: PolicyKind, trace: &[u64], cap: u64) -> Vec<i64> {
    let mut params = KernelParams::paper_64mb();
    params.total_frames = 256;
    params.wired_frames = 8;
    let mut k = HipecKernel::new(params);
    let task = k.vm.create_task();
    let (base, _o, key) = k
        .vm_allocate_hipec(task, 32 * PAGE_SIZE, kind.program(), cap)
        .expect("install");
    for &p in trace {
        k.access_sync(task, VAddr(base.0 + p * PAGE_SIZE), p % 3 == 0)
            .expect("access");
        k.vm.pump();
    }
    k.container(key)
        .expect("container")
        .operands
        .iter()
        .filter_map(|s| match s {
            OperandSlot::Int(v) => Some(*v),
            _ => None,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The perceptron's saturating updates hold under arbitrary traces:
    /// the native reference's weights never leave `[-W_MAX, W_MAX]`.
    #[test]
    fn learned_weights_saturate_on_any_trace(
        trace in prop::collection::vec(0u64..48, 1..600),
        cap in 2usize..16,
    ) {
        let mut sim = CacheSim::new(LearnedCache::default(), cap);
        sim.run(trace.iter().copied());
        let (w_surv, w_bias) = sim.policy().weights();
        prop_assert!(w_surv.abs() <= LEARNED_W_MAX);
        prop_assert!(w_bias.abs() <= LEARNED_W_MAX);
    }

    /// The same guarantee through the whole stack: after an arbitrary
    /// in-kernel trace, every integer operand slot of the compiled Learned
    /// policy is still inside the envelope its saturating updates imply
    /// (weights at most ±w_max, the score at most the weight sum, loop
    /// counters at most the scan budget).
    #[test]
    fn learned_kernel_slots_stay_inside_the_saturation_envelope(
        trace in prop::collection::vec(0u64..32, 1..250),
        cap in 2u64..12,
    ) {
        for v in int_slots_after(PolicyKind::Learned, &trace, cap) {
            prop_assert!(v.abs() <= 3 * LEARNED_W_MAX, "slot escaped the envelope: {}", v);
        }
    }

    /// AWRP's eviction rank is a strict total order over any page set
    /// (its page-id tie-break makes every key distinct) and its component
    /// weights never leave `[1, AWRP_W_MAX]`.
    #[test]
    fn awrp_rank_is_a_strict_total_order_on_any_trace(
        trace in prop::collection::vec(0u64..48, 1..600),
        cap in 2usize..16,
    ) {
        let mut sim = CacheSim::new(Awrp::default(), cap);
        sim.run(trace.iter().copied());
        let (w_r, w_f) = sim.policy().weights();
        prop_assert!((1..=AWRP_W_MAX).contains(&w_r));
        prop_assert!((1..=AWRP_W_MAX).contains(&w_f));
        let mut keys: Vec<_> = (0..48u64).map(|p| sim.policy().rank_key(p)).collect();
        keys.sort();
        prop_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "rank keys must be pairwise distinct and strictly ordered"
        );
    }
}

// --- Latency histograms: shard/merge equivalence, saturation, empties ---------

mod hist_props {
    use proptest::prelude::*;

    use hipec_core::hist::{LatencyHistogram, SATURATION_NS};
    use hipec_sim::SimDuration;

    fn record_all(ns: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::new();
        for &v in ns {
            h.record(SimDuration::from_ns(v));
        }
        h
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Recording a sample set in two shards and merging is bit-identical
        /// to recording it all into one histogram, so every quantile agrees
        /// too — the property that makes `LatencyRow::merge` across
        /// containers or intervals honest.
        #[test]
        fn merge_then_quantile_equals_record_all_then_quantile(
            ns in prop::collection::vec(0u64..SATURATION_NS * 2, 0..400),
            split in 0usize..400,
            q_permille in 0u64..=1000,
        ) {
            let q = q_permille as f64 / 1000.0;
            let cut = split.min(ns.len());
            let mut merged = record_all(&ns[..cut]);
            merged.merge(&record_all(&ns[cut..]));
            let all = record_all(&ns);
            prop_assert_eq!(merged, all);
            prop_assert_eq!(merged.quantile(q), all.quantile(q));
        }

        /// Saturated samples stay in the books twice over: they clamp into
        /// the top bucket (so `count` covers every sample) and bump the
        /// dedicated saturation counter; the exact maximum survives intact.
        #[test]
        fn saturation_counting_matches_the_input(
            ns in prop::collection::vec(0u64..SATURATION_NS * 2, 1..200),
        ) {
            let h = record_all(&ns);
            let expect_sat = ns.iter().filter(|&&v| v >= SATURATION_NS).count() as u64;
            prop_assert_eq!(h.count(), ns.len() as u64);
            prop_assert_eq!(h.saturated(), expect_sat);
            prop_assert_eq!(h.max().as_ns(), ns.iter().copied().max().unwrap_or(0));
        }

        /// The empty histogram is zero everywhere, an identity under merge,
        /// and what diffing a snapshot against itself leaves behind (the
        /// interval's buckets, counts and totals all drain to zero; only the
        /// conservative max upper bound is retained).
        #[test]
        fn empty_histogram_edge_cases(
            ns in prop::collection::vec(0u64..SATURATION_NS * 2, 0..100),
            q_permille in 0u64..=1000,
        ) {
            let q = q_permille as f64 / 1000.0;
            let empty = LatencyHistogram::EMPTY;
            prop_assert_eq!(empty.count(), 0);
            prop_assert_eq!(empty.saturated(), 0);
            prop_assert_eq!(empty.quantile(q).as_ns(), 0);
            prop_assert_eq!(empty.nonzero_buckets().count(), 0);

            let h = record_all(&ns);
            let mut merged = h;
            merged.merge(&empty);
            prop_assert_eq!(merged, h);

            let drained = h.diff(&h);
            prop_assert_eq!(drained.count(), 0);
            prop_assert_eq!(drained.saturated(), 0);
            prop_assert_eq!(drained.total_ns(), 0);
            prop_assert_eq!(drained.nonzero_buckets().count(), 0);
        }
    }
}

// --- Device unplug conserves objects and pages under random fault plans -------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hot-unplugging a device under an arbitrary flat fault plan never
    /// violates a kernel invariant, never loses the object, and abandons
    /// no further page from the unplug onward: drain traffic is
    /// budget-exempt, so conservation holds no matter how hostile the
    /// removed device's plan stays. The drain also always quiesces,
    /// because everything re-homes onto the clean boot device.
    #[test]
    fn remove_device_conserves_objects_and_pages_under_random_faults(
        seed in any::<u64>(),
        read_err in 0u16..=150,
        write_err in 0u16..=150,
        torn in 0u16..=1000,
        delay in 0u16..=1000,
        steps in 40usize..120,
    ) {
        let mut params = KernelParams::paper_64mb();
        params.total_frames = 48;
        params.wired_frames = 8;
        params.free_target = 8;
        params.free_min = 4;
        params.inactive_target = 12;
        let mut k = HipecKernel::new(params);
        let dev = k.add_device(hipec_disk::DeviceParams::default());
        k.vm.set_fault_plan_on(dev, fault_config(seed, read_err, write_err, delay, torn));

        let task = k.vm.create_task();
        let (base, obj) = k.vm.vm_allocate_on(dev, task, 40 * PAGE_SIZE).expect("region");
        for s in 0..steps {
            let p = (s as u64 * 13 + 7) % 40;
            let _ = k.access_sync(task, VAddr(base.0 + p * PAGE_SIZE), true);
            k.pump();
            k.check_invariants().expect("invariants survive the fault plan");
        }

        let abandoned_before = k.kernel_stats().get("flush_abandoned").unwrap_or(0);
        let survivor = k.remove_device(dev).expect("unplug under faults");
        prop_assert_eq!(survivor, hipec_vm::DeviceId(0));
        k.check_invariants().expect("invariants hold right after the unplug");

        let mut guard = 0u32;
        while let Some(done) = k.vm.next_flush_completion() {
            k.vm.clock.advance_to(done);
            k.pump();
            k.check_invariants().expect("invariants hold during the drain");
            guard += 1;
            prop_assert!(guard <= 200_000, "drain never quiesced");
        }

        // Conservation: the object survives on the boot device, the drain
        // abandoned nothing, and every page reads back through the
        // survivor (dev#0 never had a fault plan installed).
        prop_assert_eq!(k.vm.device_of(obj).expect("still bound"), hipec_vm::DeviceId(0));
        let stats = k.kernel_stats();
        prop_assert_eq!(stats.get("flush_abandoned").unwrap_or(0), abandoned_before);
        prop_assert_eq!(stats.get("devices_unplugged"), Some(1));
        for p in 0..40u64 {
            prop_assert!(
                k.access_sync(task, VAddr(base.0 + p * PAGE_SIZE), false).is_ok(),
                "page {} lost in the drain", p
            );
        }
    }
}

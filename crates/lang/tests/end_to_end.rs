//! End-to-end translator tests: pseudo-code → commands → real faults.

use hipec_core::{validate_program, HipecKernel};
use hipec_vm::{KernelParams, TaskId, VAddr, PAGE_SIZE};

fn params() -> KernelParams {
    let mut p = KernelParams::paper_64mb();
    p.total_frames = 256;
    p.wired_frames = 16;
    p
}

fn sweep(k: &mut HipecKernel, task: TaskId, base: VAddr, pages: u64, write: bool) {
    for i in 0..pages {
        k.access_sync(task, VAddr(base.0 + i * PAGE_SIZE), write)
            .expect("access");
        k.vm.pump();
    }
}

/// The paper's Figure 4: FIFO with second chance, written in pseudo-code.
const FIFO_SECOND_CHANCE: &str = r#"
    queue active_q;
    queue inactive_q;
    int inactive_target = 8;
    int free_target = 2;

    event PageFault() {
        if (free_count == 0) {
            activate Lack_free_frame;
        }
        page p = dequeue_head(free_queue);
        enqueue_tail(active_q, p);
        return p;
    }

    event Lack_free_frame() {
        // FIFO with second chance.
        while (inactive_count < inactive_target && active_count > 0) {
            page p = dequeue_head(active_q);
            reset_ref(p);
            enqueue_tail(inactive_q, p);
        }
        while (free_count < free_target && inactive_count > 0) {
            page q = dequeue_head(inactive_q);
            if (referenced(q)) {
                enqueue_tail(active_q, q);
                reset_ref(q);
            } else {
                if (modified(q)) {
                    flush(q);
                }
                enqueue_head(free_queue, q);
            }
        }
    }

    event ReclaimFrame() {
        int released = 0;
        while (released < reclaim_target) {
            if (free_count == 0) {
                activate Lack_free_frame;
            }
            page p = dequeue_head(free_queue);
            release(p);
            released = released + 1;
        }
    }
"#;

#[test]
fn figure4_policy_compiles_validates_and_runs() {
    let program = hipec_lang::compile(FIFO_SECOND_CHANCE).expect("compiles");
    validate_program(&program).expect("passes the security checker");
    assert_eq!(program.event_names[0], "PageFault");
    assert_eq!(program.event_names[1], "ReclaimFrame");

    let mut k = HipecKernel::new(params());
    let task = k.vm.create_task();
    let pages = 96u64;
    let (addr, _obj, key) = k
        .vm_allocate_hipec(task, pages * PAGE_SIZE, program, 48)
        .expect("install");
    // Two read sweeps: the 96-page region cycles through 48 frames.
    sweep(&mut k, task, addr, pages, false);
    sweep(&mut k, task, addr, pages, false);
    let c = k.container(key).expect("container");
    assert!(!c.terminated, "the compiled policy must run cleanly");
    assert_eq!(c.stats.faults, 2 * pages, "cyclic FIFO faults every page");
    // Dirtying sweep: flushes must happen.
    sweep(&mut k, task, addr, pages, true);
    sweep(&mut k, task, addr, pages, false);
    let c = k.container(key).expect("container");
    assert!(c.stats.flushes > 0, "dirty pages go through flush()");
}

#[test]
fn compiled_mru_matches_the_papers_fault_formula() {
    let source = r#"
        recency queue rq;

        event PageFault() {
            if (free_count == 0) {
                mru(rq);
            }
            page p = dequeue_head(free_queue);
            enqueue_tail(rq, p);
            return p;
        }
        event ReclaimFrame() { return; }
    "#;
    let program = hipec_lang::compile(source).expect("compiles");
    validate_program(&program).expect("valid");

    let mut k = HipecKernel::new(params());
    let task = k.vm.create_task();
    let (pages, min, loops) = (60u64, 40u64, 5u64);
    let (addr, _obj, key) = k
        .vm_allocate_hipec(task, pages * PAGE_SIZE, program, min)
        .expect("install");
    for _ in 0..loops {
        sweep(&mut k, task, addr, pages, false);
    }
    let faults = k.container(key).expect("container").stats.faults;
    let expected = (pages - min) * (loops - 1) + pages; // the paper's PF_m
    assert_eq!(faults, expected);
}

#[test]
fn arithmetic_and_bool_plumbing_work_at_runtime() {
    // Exercises temporaries, &&/||, bool variables and else-if chains in a
    // policy that still serves pages correctly.
    let source = r#"
        queue q;
        int counter = 0;
        bool warm = false;

        event PageFault() {
            counter = counter * 2 + 1;
            if (counter > 100 && !warm) {
                warm = true;
            }
            if (warm || counter % 2 == 1) {
                page p = dequeue_head(free_queue);
                enqueue_tail(q, p);
                return p;
            } else if (counter == 0) {
                return;
            }
            page fallback = dequeue_head(free_queue);
            return fallback;
        }
        event ReclaimFrame() { return; }
    "#;
    let program = hipec_lang::compile(source).expect("compiles");
    validate_program(&program).expect("valid");
    let mut k = HipecKernel::new(params());
    let task = k.vm.create_task();
    let (addr, _obj, key) = k
        .vm_allocate_hipec(task, 8 * PAGE_SIZE, program, 8)
        .expect("install");
    sweep(&mut k, task, addr, 8, false);
    let c = k.container(key).expect("container");
    assert!(!c.terminated);
    assert_eq!(c.stats.faults, 8);
}

#[test]
fn undeclared_identifier_is_a_compile_error() {
    let errs = hipec_lang::compile(
        "event PageFault() { page p = dequeue_head(mystery_queue); return p; }\n\
         event ReclaimFrame() { return; }",
    )
    .expect_err("must fail");
    assert!(errs.iter().any(|d| d.message.contains("mystery_queue")));
}

#[test]
fn missing_mandatory_event_is_a_compile_error() {
    let errs = hipec_lang::compile("event PageFault() { return; }").expect_err("must fail");
    assert!(errs.iter().any(|d| d.message.contains("ReclaimFrame")));
}

#[test]
fn type_errors_are_caught_by_the_translator() {
    // Enqueueing an int, comparing a queue, assigning to a kernel counter.
    let errs = hipec_lang::compile(
        r#"
        queue q;
        int x = 1;
        event PageFault() {
            enqueue_tail(q, x);
            return;
        }
        event ReclaimFrame() {
            free_count = 3;
        }
        "#,
    )
    .expect_err("must fail");
    assert!(errs.len() >= 2, "got: {errs:?}");
}

/// `lru`/`mru` over a queue not declared `recency queue` is a translator
/// error at the call's source position, so `compile` never hands the
/// validator a program it rejects for "requires a recency-ordered queue".
#[test]
fn lru_and_mru_need_a_recency_queue() {
    let errs = hipec_lang::compile(
        "queue plain;\n\
         event PageFault() { page p = dequeue_head(free_queue); return p; }\n\
         event ReclaimFrame() {\n\
             lru(plain);\n\
             return;\n\
         }",
    )
    .expect_err("lru over a plain queue must not compile");
    let d = errs
        .iter()
        .find(|d| d.message.contains("recency"))
        .unwrap_or_else(|| panic!("no recency diagnostic in {errs:?}"));
    assert_eq!(
        d.span.line, 4,
        "the diagnostic points at the `lru` call: {d}"
    );

    // Every replacement command × queue kind × statement/expression
    // position: either a diagnostic, or a program the validator accepts.
    for queue in ["queue", "recency queue"] {
        for op in ["fifo", "lru", "mru"] {
            for (target, body) in [
                ("q", format!("{op}(q);")),
                ("q", format!("page v = {op}(q); release(v);")),
                ("free_queue", format!("{op}(free_queue);")),
            ] {
                let src = format!(
                    "{queue} q;\n\
                     event PageFault() {{ page p = dequeue_head(free_queue); return p; }}\n\
                     event ReclaimFrame() {{ {body} return; }}"
                );
                let recency = queue == "recency queue" && target == "q";
                match hipec_lang::compile(&src) {
                    Ok(program) => {
                        assert!(
                            op == "fifo" || recency,
                            "`{op}` over a non-recency queue compiled:\n{src}"
                        );
                        validate_program(&program)
                            .unwrap_or_else(|e| panic!("validator rejects\n{src}\n{e:?}"));
                    }
                    Err(errs) => {
                        assert!(op != "fifo" && !recency, "{src}\n{errs:?}");
                        assert!(errs.iter().any(|d| d.message.contains("recency")));
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_programs_round_trip_through_the_wire_format() {
    let program = hipec_lang::compile(FIFO_SECOND_CHANCE).expect("compiles");
    let words = program.to_words();
    let back = hipec_core::PolicyProgram::from_words(&words).expect("decodes");
    assert_eq!(back.decls, program.decls);
    for (a, b) in back.events.iter().zip(program.events.iter()) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
    // And the disassembly of a compiled program reassembles identically.
    let text = hipec_lang::disassemble(&program);
    let re = hipec_lang::assemble(&text).expect("reassembles");
    for (a, b) in re.events.iter().zip(program.events.iter()) {
        assert_eq!(a.as_slice(), b.as_slice());
    }
}

#[test]
fn break_and_continue_compile_and_run() {
    // A policy whose reclaim loop skips every other candidate (continue)
    // and bails out entirely after releasing three frames (break).
    let source = r#"
        queue q;

        event PageFault() {
            if (free_count == 0) {
                fifo(q);
            }
            page p = dequeue_head(free_queue);
            enqueue_tail(q, p);
            return p;
        }

        event ReclaimFrame() {
            int released = 0;
            int seen = 0;
            while (allocated_count > 0) {
                seen = seen + 1;
                if (seen % 2 == 0) {
                    continue;
                }
                if (free_count == 0) {
                    fifo(q);
                }
                page p = dequeue_head(free_queue);
                release(p);
                released = released + 1;
                if (released == 3) {
                    break;
                }
            }
            return released;
        }
    "#;
    let program = hipec_lang::compile(source).expect("compiles");
    validate_program(&program).expect("valid");
    let mut k = HipecKernel::new(params());
    let task = k.vm.create_task();
    let (addr, _obj, key) = k
        .vm_allocate_hipec(task, 16 * PAGE_SIZE, program, 12)
        .expect("install");
    sweep(&mut k, task, addr, 16, false);
    // Drive ReclaimFrame directly: it must release exactly 3 frames.
    let before = k.container(key).expect("container").allocated;
    let v = k
        .run_event_raw(key, hipec_core::EVENT_RECLAIM_FRAME)
        .expect("reclaim runs");
    assert_eq!(v, hipec_core::ExecValue::Int(3));
    assert_eq!(k.container(key).expect("container").allocated, before - 3);
}

#[test]
fn break_outside_loop_is_a_compile_error() {
    let errs =
        hipec_lang::compile("event PageFault() { break; }\nevent ReclaimFrame() { return; }")
            .expect_err("must fail");
    assert!(errs.iter().any(|d| d.message.contains("outside")));
}

#[test]
fn compile_optimized_preserves_behaviour_and_shrinks() {
    let program = hipec_lang::compile(FIFO_SECOND_CHANCE).expect("compiles");
    let optimized = hipec_lang::compile_optimized(FIFO_SECOND_CHANCE).expect("compiles");
    assert!(optimized.total_commands() <= program.total_commands());
    validate_program(&optimized).expect("valid");
    let run = |prog: hipec_core::PolicyProgram| -> u64 {
        let mut k = HipecKernel::new(params());
        let task = k.vm.create_task();
        let (addr, _obj, key) = k
            .vm_allocate_hipec(task, 96 * PAGE_SIZE, prog, 48)
            .expect("install");
        sweep(&mut k, task, addr, 96, false);
        sweep(&mut k, task, addr, 96, false);
        k.container(key).expect("container").stats.faults
    };
    assert_eq!(run(program), run(optimized));
}

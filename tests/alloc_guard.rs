//! Allocation guards for the observability text outputs.
//!
//! A counting global allocator (per thread, so concurrently running tests
//! do not disturb each other's counts) checks two promises:
//!
//! * a [`JsonlSink`] renders every record into one reused line buffer, so
//!   after a warm-up record it allocates nothing, whatever it records;
//! * `stats_export` sizes its output once, so its allocation count does not
//!   grow with the number of latency rows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hipec_core::{
    stats_export, JsonlSink, KernelStats, LatencyHistogram, LatencyMetric, LatencyRow, TraceEvent,
    TraceRecord, TraceSink,
};
use hipec_sim::{SimDuration, SimTime};
use hipec_vm::{AccessKind, DeviceId, FrameId, ObjectId, TaskId, VmEvent};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made by
/// the current thread.
struct Counting;

fn count_one() {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only a const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread made while running `f`.
fn allocations_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

/// Record `i` of a mixed stream: cycles through substrate and kernel
/// events, the widest lines (every field near its maximum) included.
fn mixed_record(i: u64) -> TraceRecord<TraceEvent> {
    let big = u64::MAX - i;
    let small = (i * 2_654_435_761) % 100_000;
    let id = u32::try_from(small).unwrap();
    let event = match i % 12 {
        // The widest line of all: `minor_fault`, `false` and every
        // integer at full width.
        0 => TraceEvent::Vm(VmEvent::Fault {
            task: TaskId(u32::MAX),
            vpage: big,
            kind: AccessKind::MinorFault,
            write: i.is_multiple_of(24),
            latency: SimDuration::from_ns(big),
        }),
        1 => TraceEvent::Vm(VmEvent::ObjectMigrated {
            object: ObjectId(u32::MAX),
            from: DeviceId(u32::MAX),
            to: DeviceId(id),
            pages: big,
            forced: false,
        }),
        2 => TraceEvent::Vm(VmEvent::FlushStart {
            device: DeviceId(1),
            frame: FrameId(id),
            torn: true,
        }),
        3 => TraceEvent::Vm(VmEvent::TornRetry {
            device: DeviceId(1),
            frame: FrameId(id),
            attempt: u8::MAX,
        }),
        4 => TraceEvent::Vm(VmEvent::PumpDeferred { deferred: small }),
        5 => TraceEvent::PolicyEvent {
            container: id,
            event: 1,
            commands: u32::MAX,
            ok: true,
        },
        6 => TraceEvent::PolicyFaultResolved {
            container: id,
            frame: FrameId(id),
            latency: SimDuration::from_ns(small),
        },
        7 => TraceEvent::RestoreRamp {
            container: u32::MAX,
            admitted: big,
            outstanding: big,
        },
        8 => TraceEvent::FlushExchange {
            container: id,
            dirty: FrameId(u32::MAX),
            replacement: FrameId(id),
        },
        9 => TraceEvent::AdmissionRejected {
            class: 2,
            asked: big,
            throttled: false,
        },
        10 => TraceEvent::CheckerWake { detected: false },
        _ => TraceEvent::Request {
            container: id,
            asked: big,
            granted: 0,
        },
    };
    TraceRecord {
        at: SimTime::from_ns(big),
        seq: big,
        event,
    }
}

#[test]
fn jsonl_sink_allocates_nothing_after_warm_up() {
    let records: Vec<_> = (0..10_000).map(mixed_record).collect();
    let mut sink = JsonlSink::new(std::io::sink());
    sink.record(&mixed_record(0));
    let (allocations, ()) = allocations_during(|| {
        for r in &records {
            sink.record(r);
        }
    });
    assert_eq!(sink.written(), 10_001);
    assert_eq!(sink.io_errors(), 0);
    assert_eq!(allocations, 0, "JsonlSink::record allocated");
}

/// A snapshot with `rows` latency rows of a few occupied buckets each.
fn snapshot_with_rows(rows: u64) -> KernelStats {
    let latency = (0..rows)
        .map(|key| {
            let mut hist = LatencyHistogram::new();
            for ns in [key, 1_000 + key * 17, 5_000_000 + key * 99_991, u64::MAX] {
                hist.record(SimDuration::from_ns(ns));
            }
            LatencyRow {
                metric: LatencyMetric::ContainerFault,
                key,
                hist,
            }
        })
        .collect();
    KernelStats {
        at: SimTime::from_ns(rows),
        global: [("faults", rows), ("pageouts", 3)].into_iter().collect(),
        containers: Vec::new(),
        devices: Vec::new(),
        free_frames: 0,
        total_specific: 0,
        inflight_flushes: 0,
        retry_depth: 0,
        dropped_records: 0,
        latency,
    }
}

#[test]
fn stats_export_allocations_do_not_grow_with_rows() {
    let small = snapshot_with_rows(10);
    let large = snapshot_with_rows(200);
    let (small_allocs, small_text) = allocations_during(|| stats_export(&small));
    let (large_allocs, large_text) = allocations_during(|| stats_export(&large));
    assert!(large_text.len() > 10 * small_text.len());
    assert_eq!(
        small_allocs, large_allocs,
        "stats_export allocations grew with the row count"
    );
    assert!(
        small_allocs <= 2,
        "stats_export made {small_allocs} allocations"
    );
}

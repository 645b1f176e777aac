//! Byte-for-byte goldens for the two observability text formats.
//!
//! * `golden/trace_events.jsonl` — one JSONL line per [`TraceEvent`] and
//!   [`VmEvent`] variant (every `vm.fault` access kind included), each
//!   rendered once with its smallest field values (0, `false`) and once
//!   with its largest (`u32::MAX`, `u64::MAX`, `u8::MAX`, `true`).
//! * `golden/stats_export.prom` — the `stats_export` of a fixed, hand-built
//!   [`KernelStats`]: several devices, op-charge and share-class labels
//!   (plus the decimal fallbacks for unknown keys), an empty row, a
//!   saturated row and a `_sum` above `u64::MAX`.
//!
//! Replay and `cmp` gates only check that a build agrees with itself; these
//! goldens pin the formats themselves, so a renderer change that drifts a
//! byte fails here. If a format change is deliberate, regenerate both files
//! with `HIPEC_BLESS_GOLDENS=1 cargo test -p hipec-integration --test
//! output_format` and review the diff.

use std::collections::BTreeMap;
use std::path::PathBuf;

use hipec_core::{
    render_jsonl, stats_export, ContainerCounters, DeviceRow, JsonlSink, KernelStats,
    LatencyHistogram, LatencyMetric, LatencyRow, OpCode, TraceEvent, TraceRecord, TraceSink,
};
use hipec_sim::{SimDuration, SimTime};
use hipec_vm::{AccessKind, DeviceId, FrameId, ObjectId, TaskId, VmEvent};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("HIPEC_BLESS_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).expect("read golden");
    if expected == actual {
        return;
    }
    let first_diff = expected
        .lines()
        .zip(actual.lines())
        .position(|(e, a)| e != a)
        .unwrap_or_else(|| expected.lines().count().min(actual.lines().count()));
    panic!(
        "{name} drifted from its golden at line {}:\n  golden: {:?}\n  actual: {:?}\n\
         ({} golden lines, {} actual)",
        first_diff + 1,
        expected.lines().nth(first_diff),
        actual.lines().nth(first_diff),
        expected.lines().count(),
        actual.lines().count(),
    );
}

/// Every event variant with each field at its type's minimum (`hi ==
/// false`) or maximum (`hi == true`), so each line is all-minimum or
/// all-maximum.
fn every_event(hi: bool) -> Vec<TraceEvent> {
    let u8v = if hi { u8::MAX } else { 0 };
    let u32v = if hi { u32::MAX } else { 0 };
    let u64v = if hi { u64::MAX } else { 0 };
    let dur = SimDuration::from_ns(u64v);
    let dev = DeviceId(u32v);
    let frame = FrameId(u32v);
    let mut events: Vec<TraceEvent> = [
        AccessKind::Hit,
        AccessKind::MinorFault,
        AccessKind::ZeroFill,
        AccessKind::PageIn,
    ]
    .into_iter()
    .map(|kind| {
        TraceEvent::Vm(VmEvent::Fault {
            task: TaskId(u32v),
            vpage: u64v,
            kind,
            write: hi,
            latency: dur,
        })
    })
    .collect();
    let vm = [
        VmEvent::ReadError {
            device: dev,
            object: ObjectId(u32v),
            offset: u64v,
        },
        VmEvent::PageoutScan {
            freed: u64v,
            flushed: u64v,
        },
        VmEvent::FlushStart {
            device: dev,
            frame,
            torn: hi,
        },
        VmEvent::FlushComplete { device: dev, frame },
        VmEvent::TornRetry {
            device: dev,
            frame,
            attempt: u8v,
        },
        VmEvent::RetryRejected {
            device: dev,
            frame,
            attempt: u8v,
        },
        VmEvent::FlushAbandoned {
            device: dev,
            frame,
            attempts: u8v,
        },
        VmEvent::PumpDeferred { deferred: u64v },
        VmEvent::BreakerTrip {
            device: dev,
            ewma_milli: u64v,
        },
        VmEvent::BreakerProbe {
            device: dev,
            ok: hi,
        },
        VmEvent::BreakerClose {
            device: dev,
            ewma_milli: u64v,
        },
        VmEvent::DeviceDraining {
            device: dev,
            to: DeviceId(u32v),
            objects: u64v,
            pages: u64v,
        },
        VmEvent::DeviceDrained { device: dev },
        VmEvent::DeviceDead {
            device: dev,
            ewma_milli: u64v,
        },
        VmEvent::ObjectMigrated {
            object: ObjectId(u32v),
            from: dev,
            to: DeviceId(u32v),
            pages: u64v,
            forced: hi,
        },
    ];
    events.extend(vm.into_iter().map(TraceEvent::Vm));
    events.extend([
        TraceEvent::AdmissionRejected {
            class: u8v,
            asked: u64v,
            throttled: hi,
        },
        TraceEvent::Install {
            container: u32v,
            min_frames: u64v,
        },
        TraceEvent::PolicyEvent {
            container: u32v,
            event: u8v,
            commands: u32v,
            ok: hi,
        },
        TraceEvent::PolicyFaultResolved {
            container: u32v,
            frame,
            latency: dur,
        },
        TraceEvent::Terminated {
            container: u32v,
            graceful: hi,
        },
        TraceEvent::Request {
            container: u32v,
            asked: u64v,
            granted: u64v,
        },
        TraceEvent::Release {
            container: u32v,
            frame,
        },
        TraceEvent::FlushExchange {
            container: u32v,
            dirty: frame,
            replacement: FrameId(u32v),
        },
        TraceEvent::Migrate {
            from: u32v,
            to: u32v,
            frame,
        },
        TraceEvent::NormalReclaim {
            container: u32v,
            asked: u64v,
            recovered: u64v,
        },
        TraceEvent::ForcedReclaim {
            container: u32v,
            taken: u64v,
        },
        TraceEvent::ForcedSeize {
            container: u32v,
            frame,
        },
        TraceEvent::OrphanRecovered {
            container: u32v,
            frame,
        },
        TraceEvent::CheckerWake { detected: hi },
        TraceEvent::CheckerTimeout { container: u32v },
        TraceEvent::DeviceFaultSurfaced {
            container: u32v,
            frame,
        },
        TraceEvent::HealthDegraded {
            container: u32v,
            strikes: u64v,
        },
        TraceEvent::Quarantined {
            container: u32v,
            reclaimed: u64v,
        },
        TraceEvent::FallbackRestored {
            container: u32v,
            readmitted: u64v,
        },
        TraceEvent::RestoreRamp {
            container: u32v,
            admitted: u64v,
            outstanding: u64v,
        },
    ]);
    events
}

/// The golden record stream: all-minimum variants stamped at `seq` 0 and
/// time 0 first, then all-maximum variants stamped at `u64::MAX`.
fn golden_records() -> Vec<TraceRecord<TraceEvent>> {
    let lo = every_event(false).into_iter().map(|event| TraceRecord {
        at: SimTime::from_ns(0),
        seq: 0,
        event,
    });
    let hi = every_event(true).into_iter().map(|event| TraceRecord {
        at: SimTime::from_ns(u64::MAX),
        seq: u64::MAX,
        event,
    });
    lo.chain(hi).collect()
}

#[test]
fn jsonl_lines_match_the_golden() {
    let records = golden_records();
    // 4 access kinds + 15 other VM variants + 20 kernel variants, twice.
    assert_eq!(records.len(), 2 * (4 + 15 + 20));
    let rendered: String = records
        .iter()
        .map(|r| render_jsonl(r) + "\n")
        .collect::<String>();
    check_golden("trace_events.jsonl", &rendered);

    // The sink writes the same bytes, one line per record.
    let mut sink = JsonlSink::new(Vec::new());
    for r in &records {
        sink.record(r);
    }
    assert_eq!(sink.written(), records.len() as u64);
    assert_eq!(String::from_utf8(sink.into_inner()).unwrap(), rendered);
}

fn hist_of(ns: &[u64]) -> LatencyHistogram {
    let mut h = LatencyHistogram::new();
    for &v in ns {
        h.record(SimDuration::from_ns(v));
    }
    h
}

fn row(metric: LatencyMetric, key: u64, hist: LatencyHistogram) -> LatencyRow {
    LatencyRow { metric, key, hist }
}

/// A fixed snapshot exercising every part of the export.
fn golden_stats() -> KernelStats {
    let mut global = BTreeMap::new();
    for (name, value) in [
        ("faults", 1_234),
        ("pageouts", 0),
        ("gfm_grants", 77),
        ("dev_reads", u64::MAX),
        ("trace_recorded", 4_000_000_000),
    ] {
        global.insert(name, value);
    }
    let devices = (0..3)
        .map(|id| DeviceRow {
            id,
            tier: u64::from(id),
            state: u64::from(id) % 4,
            migrations: u64::from(id) * 3,
            migr_pending: 1,
            write_amp_milli: if id == 2 { 1_375 } else { 0 },
            max_wear: u64::from(id) * 11,
            gc_pauses: if id == 2 { u64::MAX } else { 0 },
            ..DeviceRow::default()
        })
        .collect();
    let containers = vec![ContainerCounters {
        key: 1,
        faults: 9,
        ..ContainerCounters::default()
    }];
    let wide = hist_of(&[0, 1, 15, 16, 17, 100, 1_000, 65_535, 1 << 20, 123_456_789]);
    let saturated = hist_of(&[500, 1 << 38, u64::MAX >> 8]);
    // Two u64::MAX samples put the u128 sum above u64::MAX.
    let huge_sum = hist_of(&[u64::MAX, u64::MAX, 42]);
    let latency = vec![
        row(
            LatencyMetric::CheckerInterval,
            0,
            hist_of(&[2_000_000, 4_000_000]),
        ),
        row(LatencyMetric::PumpDrain, 0, LatencyHistogram::EMPTY),
        row(
            LatencyMetric::OpCharge,
            OpCode::Request as u64,
            hist_of(&[40, 40, 80]),
        ),
        row(
            LatencyMetric::OpCharge,
            OpCode::Return as u64,
            hist_of(&[1]),
        ),
        row(LatencyMetric::OpCharge, 200, hist_of(&[7])),
        row(LatencyMetric::ClassFault, 0, wide),
        row(LatencyMetric::ClassFault, 2, hist_of(&[30_000_000])),
        row(LatencyMetric::ClassFault, 9, hist_of(&[3])),
        row(LatencyMetric::ContainerFault, 1, wide),
        row(LatencyMetric::ContainerEvent, 1, LatencyHistogram::EMPTY),
        row(
            LatencyMetric::ContainerFault,
            u64::from(u32::MAX),
            saturated,
        ),
        row(LatencyMetric::DeviceRead, 0, huge_sum),
        row(LatencyMetric::DeviceFlush, 1, hist_of(&[9_999_999])),
        row(LatencyMetric::DeviceTornRetry, 2, LatencyHistogram::EMPTY),
    ];
    KernelStats {
        at: SimTime::from_ns(987_654_321),
        global,
        containers,
        devices,
        free_frames: 12,
        total_specific: 0,
        inflight_flushes: 3,
        retry_depth: u64::MAX,
        dropped_records: 0,
        latency,
    }
}

#[test]
fn stats_export_matches_the_golden() {
    let stats = golden_stats();
    assert!(stats.latency[11].hist.total_ns() > u128::from(u64::MAX));
    assert_eq!(stats.latency[10].saturated(), 2);
    check_golden("stats_export.prom", &stats_export(&stats));
}

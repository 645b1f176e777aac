//! Kernel-wide deterministic event tracing.
//!
//! The HiPEC kernel keeps one bounded [`EventRing`] of [`TraceEvent`]s
//! covering both layers: its own events (policy execution, frame-manager
//! commands, checker activity) and, via the [`TraceEvent::Vm`] wrapper,
//! everything the VM substrate records (fault resolution, pageout scans,
//! the flush/retry lifecycle). Immediately before each HiPEC-layer event is
//! pushed — and at the end of every kernel entry point — the VM ring is
//! drained into the master ring, so the merged trace preserves causal
//! order across layers.
//!
//! **Determinism contract.** Events are stamped with the virtual clock and
//! a monotonic sequence number; recording charges no virtual time and
//! allocates nothing in steady state. Two runs of the same seeded workload
//! therefore produce bit-for-bit identical traces, and turning tracing off
//! (at run time or compile time, via the `trace` feature) cannot change
//! any simulation outcome.

use std::fmt;

use hipec_sim::SimDuration;
use hipec_vm::{FrameId, VmEvent};

use crate::text::push_u64;

pub use hipec_vm::trace::{EventRing, TraceRecord, DEFAULT_TRACE_CAPACITY};

/// One event in the merged kernel trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// An event recorded by the VM substrate.
    Vm(VmEvent),
    /// Per-tenant admission control rejected a policy install (see
    /// [`crate::admission`]).
    AdmissionRejected {
        /// Share-class index of the rejected install (position in
        /// [`crate::admission::ShareClass::ALL`]).
        class: u8,
        /// The `minFrame` reservation the install asked for.
        asked: u64,
        /// True for the bursty-arrival throttle, false for the weighted
        /// share cap.
        throttled: bool,
    },
    /// A policy was installed (`vm_allocate_hipec` / `vm_map_hipec`).
    Install {
        /// The new container's key.
        container: u32,
        /// Its guaranteed `minFrame` allocation.
        min_frames: u64,
    },
    /// One policy event ran to completion (nested `Activate` runs are
    /// recorded separately, innermost first).
    PolicyEvent {
        /// The executing container.
        container: u32,
        /// The event index (0 = PageFault, 1 = ReclaimFrame, …).
        event: u8,
        /// Commands interpreted by this invocation (nested runs included).
        commands: u32,
        /// False if the run ended in a policy fault.
        ok: bool,
    },
    /// A policy resolved a page fault with a frame.
    PolicyFaultResolved {
        /// The resolving container.
        container: u32,
        /// The frame the policy returned.
        frame: FrameId,
        /// Virtual time from fault entry to resolution (I/O wait included).
        latency: SimDuration,
    },
    /// A container was terminated (kill or graceful deallocate).
    Terminated {
        /// The terminated container.
        container: u32,
        /// True for graceful `vm_deallocate_hipec`, false for kills.
        graceful: bool,
    },
    /// A `Request` command was serviced.
    Request {
        /// The requesting container.
        container: u32,
        /// Frames asked for.
        asked: u64,
        /// Frames granted (0 = rejected).
        granted: u64,
    },
    /// A `Release` command returned a frame to the global pool.
    Release {
        /// The releasing container.
        container: u32,
        /// The released frame.
        frame: FrameId,
    },
    /// A `Flush` exchanged a dirty page for a clean frame.
    FlushExchange {
        /// The flushing container.
        container: u32,
        /// The dirty page handed to the flush machinery.
        dirty: FrameId,
        /// The clean frame handed back.
        replacement: FrameId,
    },
    /// A `Migrate` moved a free frame between containers.
    Migrate {
        /// Source container.
        from: u32,
        /// Destination container.
        to: u32,
        /// The migrated frame.
        frame: FrameId,
    },
    /// A normal (`ReclaimFrame`-event) reclamation pass on one container.
    NormalReclaim {
        /// The container asked to give frames back.
        container: u32,
        /// Frames the manager wanted.
        asked: u64,
        /// Frames actually recovered (kill path included).
        recovered: u64,
    },
    /// Forced reclamation seized frames from one container.
    ForcedReclaim {
        /// The container frames were taken from.
        container: u32,
        /// Frames seized.
        taken: u64,
    },
    /// One frame taken by forced reclamation (or a stranded-frame sweep).
    /// Emitted per frame so offline residency audits can retire exactly the
    /// pages that left, instead of conservatively clearing the container's
    /// whole entry set on the count-only [`TraceEvent::ForcedReclaim`].
    ForcedSeize {
        /// The container the frame was taken from.
        container: u32,
        /// The seized frame.
        frame: FrameId,
    },
    /// An orphaned frame (last slot handle overwritten) was recovered.
    OrphanRecovered {
        /// The container that held the orphan.
        container: u32,
        /// The recovered frame.
        frame: FrameId,
    },
    /// The security checker woke up.
    CheckerWake {
        /// True if this wakeup detected (and killed) a timed-out policy.
        detected: bool,
    },
    /// The checker terminated a container for exceeding the timeout.
    CheckerTimeout {
        /// The killed container.
        container: u32,
    },
    /// An abandoned flush's data loss was attributed to its container as a
    /// surfaced `PolicyFault::Device`.
    DeviceFaultSurfaced {
        /// The owning container.
        container: u32,
        /// The frame whose write-back was abandoned.
        frame: FrameId,
    },
    /// Environmental fault strikes degraded a container's health.
    HealthDegraded {
        /// The degraded container.
        container: u32,
        /// Strikes outstanding at the transition.
        strikes: u64,
    },
    /// A container was quarantined: policy suspended, frames returned, its
    /// region reverted to default management (`minFrame` is preserved).
    Quarantined {
        /// The quarantined container.
        container: u32,
        /// Frames the quarantine sweep returned to the global pool.
        reclaimed: u64,
    },
    /// Probation completed: the container's policy was re-mounted and the
    /// first tranche of its `minFrame` reservation re-admitted.
    FallbackRestored {
        /// The restored container.
        container: u32,
        /// Frames re-granted to the container's free queue.
        readmitted: u64,
    },
    /// A clean interval admitted another tranche of a ramping restore's
    /// outstanding `minFrame` reservation.
    RestoreRamp {
        /// The ramping container.
        container: u32,
        /// Frames admitted by this tranche.
        admitted: u64,
        /// Frames still owed after it.
        outstanding: u64,
    },
}

impl From<VmEvent> for TraceEvent {
    fn from(e: VmEvent) -> Self {
        TraceEvent::Vm(e)
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Vm(e) => write!(f, "vm: {e:?}"),
            TraceEvent::AdmissionRejected {
                class,
                asked,
                throttled,
            } => write!(
                f,
                "admission-rejected class={class} asked={asked} ({})",
                if throttled { "throttled" } else { "share cap" }
            ),
            TraceEvent::Install {
                container,
                min_frames,
            } => write!(f, "install c{container} min_frames={min_frames}"),
            TraceEvent::PolicyEvent {
                container,
                event,
                commands,
                ok,
            } => write!(
                f,
                "policy-event c{container} ev{event} commands={commands} {}",
                if ok { "ok" } else { "fault" }
            ),
            TraceEvent::PolicyFaultResolved {
                container,
                frame,
                latency,
            } => {
                write!(
                    f,
                    "policy-fault-resolved c{container} frame={} latency={latency}",
                    frame.0
                )
            }
            TraceEvent::Terminated {
                container,
                graceful,
            } => write!(
                f,
                "terminated c{container} ({})",
                if graceful { "dealloc" } else { "kill" }
            ),
            TraceEvent::Request {
                container,
                asked,
                granted,
            } => write!(f, "request c{container} asked={asked} granted={granted}"),
            TraceEvent::Release { container, frame } => {
                write!(f, "release c{container} frame={}", frame.0)
            }
            TraceEvent::FlushExchange {
                container,
                dirty,
                replacement,
            } => write!(
                f,
                "flush-exchange c{container} dirty={} replacement={}",
                dirty.0, replacement.0
            ),
            TraceEvent::Migrate { from, to, frame } => {
                write!(f, "migrate c{from}->c{to} frame={}", frame.0)
            }
            TraceEvent::NormalReclaim {
                container,
                asked,
                recovered,
            } => write!(
                f,
                "normal-reclaim c{container} asked={asked} recovered={recovered}"
            ),
            TraceEvent::ForcedReclaim { container, taken } => {
                write!(f, "forced-reclaim c{container} taken={taken}")
            }
            TraceEvent::ForcedSeize { container, frame } => {
                write!(f, "forced-seize c{container} frame={}", frame.0)
            }
            TraceEvent::OrphanRecovered { container, frame } => {
                write!(f, "orphan-recovered c{container} frame={}", frame.0)
            }
            TraceEvent::CheckerWake { detected } => {
                write!(
                    f,
                    "checker-wake{}",
                    if detected { " (timeout detected)" } else { "" }
                )
            }
            TraceEvent::CheckerTimeout { container } => {
                write!(f, "checker-timeout c{container}")
            }
            TraceEvent::DeviceFaultSurfaced { container, frame } => {
                write!(f, "device-fault-surfaced c{container} frame={}", frame.0)
            }
            TraceEvent::HealthDegraded { container, strikes } => {
                write!(f, "health-degraded c{container} strikes={strikes}")
            }
            TraceEvent::Quarantined {
                container,
                reclaimed,
            } => write!(f, "quarantined c{container} reclaimed={reclaimed}"),
            TraceEvent::FallbackRestored {
                container,
                readmitted,
            } => write!(f, "fallback-restored c{container} readmitted={readmitted}"),
            TraceEvent::RestoreRamp {
                container,
                admitted,
                outstanding,
            } => write!(
                f,
                "restore-ramp c{container} admitted={admitted} outstanding={outstanding}"
            ),
        }
    }
}

/// Renders the newest `n` records of a ring, one per line, oldest first —
/// the "last events leading up to a violation" block of invariant reports.
pub fn render_tail(ring: &EventRing<TraceEvent>, n: usize) -> String {
    let held = ring.len();
    let skip = held.saturating_sub(n);
    let mut out = String::new();
    for rec in ring.iter().skip(skip) {
        out.push_str(&format!("    [{:>6}] {} {}\n", rec.seq, rec.at, rec.event));
    }
    out
}

/// A consumer of merged trace records, fed as each record is pushed onto
/// the master ring (i.e. at every merge point). A kernel with a sink
/// attached therefore loses no history to ring overwrites, no matter how
/// long the run: the bounded ring remains only a tail buffer for failure
/// reports.
///
/// Sinks observe the simulation; they must never feed back into it. The
/// kernel guarantees the records a sink sees are identical across two runs
/// of the same seeded workload (the determinism contract above), so a
/// [`JsonlSink`] writing to a file yields bit-for-bit reproducible traces.
pub trait TraceSink {
    /// Consumes one record. Called in emission (sequence-number) order.
    fn record(&mut self, rec: &TraceRecord<TraceEvent>);

    /// Flushes any buffered output. Called by [`crate::HipecKernel::take_sink`];
    /// default is a no-op.
    fn flush_sink(&mut self) {}
}

/// The stable machine-readable name of an event, as used in the JSONL
/// schema's `"type"` field (`vm.*` for substrate events).
pub fn event_kind(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::Vm(e) => match e {
            VmEvent::Fault { .. } => "vm.fault",
            VmEvent::ReadError { .. } => "vm.read_error",
            VmEvent::PageoutScan { .. } => "vm.pageout_scan",
            VmEvent::FlushStart { .. } => "vm.flush_start",
            VmEvent::FlushComplete { .. } => "vm.flush_complete",
            VmEvent::TornRetry { .. } => "vm.torn_retry",
            VmEvent::RetryRejected { .. } => "vm.retry_rejected",
            VmEvent::FlushAbandoned { .. } => "vm.flush_abandoned",
            VmEvent::PumpDeferred { .. } => "vm.pump_deferred",
            VmEvent::BreakerTrip { .. } => "vm.breaker_trip",
            VmEvent::BreakerProbe { .. } => "vm.breaker_probe",
            VmEvent::BreakerClose { .. } => "vm.breaker_close",
            VmEvent::DeviceDraining { .. } => "vm.device_draining",
            VmEvent::DeviceDrained { .. } => "vm.device_drained",
            VmEvent::DeviceDead { .. } => "vm.device_dead",
            VmEvent::ObjectMigrated { .. } => "vm.object_migrated",
        },
        TraceEvent::AdmissionRejected { .. } => "admission_rejected",
        TraceEvent::Install { .. } => "install",
        TraceEvent::PolicyEvent { .. } => "policy_event",
        TraceEvent::PolicyFaultResolved { .. } => "policy_fault_resolved",
        TraceEvent::Terminated { .. } => "terminated",
        TraceEvent::Request { .. } => "request",
        TraceEvent::Release { .. } => "release",
        TraceEvent::FlushExchange { .. } => "flush_exchange",
        TraceEvent::Migrate { .. } => "migrate",
        TraceEvent::NormalReclaim { .. } => "normal_reclaim",
        TraceEvent::ForcedReclaim { .. } => "forced_reclaim",
        TraceEvent::ForcedSeize { .. } => "forced_seize",
        TraceEvent::OrphanRecovered { .. } => "orphan_recovered",
        TraceEvent::CheckerWake { .. } => "checker_wake",
        TraceEvent::CheckerTimeout { .. } => "checker_timeout",
        TraceEvent::DeviceFaultSurfaced { .. } => "device_fault_surfaced",
        TraceEvent::HealthDegraded { .. } => "health_degraded",
        TraceEvent::Quarantined { .. } => "quarantined",
        TraceEvent::FallbackRestored { .. } => "fallback_restored",
        TraceEvent::RestoreRamp { .. } => "restore_ramp",
    }
}

/// Bytes a [`JsonlSink`] reserves for its line buffer: the longest line
/// any record renders to (every field at its type's maximum), newline
/// included, fits, so the buffer never grows.
const JSONL_LINE_CAPACITY: usize = 256;

/// Renders one record as a single JSONL object (no trailing newline).
///
/// The schema is stable: every line carries `seq`, `at_ns` and `type`
/// (see [`event_kind`]), followed by the event's fields in declaration
/// order. All values are integers, booleans or bare identifier strings,
/// so the rendering needs no string escaping and is byte-stable across
/// runs.
pub fn render_jsonl(rec: &TraceRecord<TraceEvent>) -> String {
    let mut s = String::with_capacity(JSONL_LINE_CAPACITY);
    render_jsonl_into(&mut s, rec);
    s
}

/// Appends the [`render_jsonl`] rendering of `rec` to `out`, allocating
/// only if `out` lacks the capacity.
pub fn render_jsonl_into(out: &mut String, rec: &TraceRecord<TraceEvent>) {
    let mut bytes = std::mem::take(out).into_bytes();
    write_jsonl(&mut bytes, rec);
    *out = String::from_utf8(bytes).expect("JSONL lines are ASCII");
}

/// Appends the [`render_jsonl`] bytes of `rec` to `out`.
fn write_jsonl(out: &mut Vec<u8>, rec: &TraceRecord<TraceEvent>) {
    out.extend_from_slice(b"{\"seq\":");
    push_u64(out, rec.seq);
    let mut f = Fields(out);
    f.num("at_ns", rec.at.as_ns())
        .ident("type", event_kind(&rec.event));
    match rec.event {
        TraceEvent::Vm(e) => match e {
            VmEvent::Fault {
                task,
                vpage,
                kind,
                write,
                latency,
            } => {
                let kind = match kind {
                    hipec_vm::AccessKind::Hit => "hit",
                    hipec_vm::AccessKind::MinorFault => "minor_fault",
                    hipec_vm::AccessKind::ZeroFill => "zero_fill",
                    hipec_vm::AccessKind::PageIn => "page_in",
                };
                f.num("task", task.0)
                    .num("vpage", vpage)
                    .ident("kind", kind)
                    .flag("write", write)
                    .num("latency_ns", latency.as_ns());
            }
            VmEvent::ReadError {
                device,
                object,
                offset,
            } => {
                f.num("device", device.0)
                    .num("object", object.0)
                    .num("offset", offset);
            }
            VmEvent::PageoutScan { freed, flushed } => {
                f.num("freed", freed).num("flushed", flushed);
            }
            VmEvent::FlushStart {
                device,
                frame,
                torn,
            } => {
                f.num("device", device.0)
                    .num("frame", frame.0)
                    .flag("torn", torn);
            }
            VmEvent::FlushComplete { device, frame } => {
                f.num("device", device.0).num("frame", frame.0);
            }
            VmEvent::TornRetry {
                device,
                frame,
                attempt,
            }
            | VmEvent::RetryRejected {
                device,
                frame,
                attempt,
            } => {
                f.num("device", device.0)
                    .num("frame", frame.0)
                    .num("attempt", attempt);
            }
            VmEvent::FlushAbandoned {
                device,
                frame,
                attempts,
            } => {
                f.num("device", device.0)
                    .num("frame", frame.0)
                    .num("attempts", attempts);
            }
            VmEvent::PumpDeferred { deferred } => {
                f.num("deferred", deferred);
            }
            VmEvent::BreakerTrip { device, ewma_milli }
            | VmEvent::BreakerClose { device, ewma_milli }
            | VmEvent::DeviceDead { device, ewma_milli } => {
                f.num("device", device.0).num("ewma_milli", ewma_milli);
            }
            VmEvent::BreakerProbe { device, ok } => {
                f.num("device", device.0).flag("ok", ok);
            }
            VmEvent::DeviceDraining {
                device,
                to,
                objects,
                pages,
            } => {
                f.num("device", device.0)
                    .num("to", to.0)
                    .num("objects", objects)
                    .num("pages", pages);
            }
            VmEvent::DeviceDrained { device } => {
                f.num("device", device.0);
            }
            VmEvent::ObjectMigrated {
                object,
                from,
                to,
                pages,
                forced,
            } => {
                f.num("object", object.0)
                    .num("from", from.0)
                    .num("to", to.0)
                    .num("pages", pages)
                    .flag("forced", forced);
            }
        },
        TraceEvent::AdmissionRejected {
            class,
            asked,
            throttled,
        } => {
            f.num("class", class)
                .num("asked", asked)
                .flag("throttled", throttled);
        }
        TraceEvent::Install {
            container,
            min_frames,
        } => {
            f.num("container", container).num("min_frames", min_frames);
        }
        TraceEvent::PolicyEvent {
            container,
            event,
            commands,
            ok,
        } => {
            f.num("container", container)
                .num("event", event)
                .num("commands", commands)
                .flag("ok", ok);
        }
        TraceEvent::PolicyFaultResolved {
            container,
            frame,
            latency,
        } => {
            f.num("container", container)
                .num("frame", frame.0)
                .num("latency_ns", latency.as_ns());
        }
        TraceEvent::Terminated {
            container,
            graceful,
        } => {
            f.num("container", container).flag("graceful", graceful);
        }
        TraceEvent::Request {
            container,
            asked,
            granted,
        } => {
            f.num("container", container)
                .num("asked", asked)
                .num("granted", granted);
        }
        TraceEvent::Release { container, frame }
        | TraceEvent::ForcedSeize { container, frame }
        | TraceEvent::OrphanRecovered { container, frame }
        | TraceEvent::DeviceFaultSurfaced { container, frame } => {
            f.num("container", container).num("frame", frame.0);
        }
        TraceEvent::FlushExchange {
            container,
            dirty,
            replacement,
        } => {
            f.num("container", container)
                .num("dirty", dirty.0)
                .num("replacement", replacement.0);
        }
        TraceEvent::Migrate { from, to, frame } => {
            f.num("from", from).num("to", to).num("frame", frame.0);
        }
        TraceEvent::NormalReclaim {
            container,
            asked,
            recovered,
        } => {
            f.num("container", container)
                .num("asked", asked)
                .num("recovered", recovered);
        }
        TraceEvent::ForcedReclaim { container, taken } => {
            f.num("container", container).num("taken", taken);
        }
        TraceEvent::CheckerWake { detected } => {
            f.flag("detected", detected);
        }
        TraceEvent::CheckerTimeout { container } => {
            f.num("container", container);
        }
        TraceEvent::HealthDegraded { container, strikes } => {
            f.num("container", container).num("strikes", strikes);
        }
        TraceEvent::Quarantined {
            container,
            reclaimed,
        } => {
            f.num("container", container).num("reclaimed", reclaimed);
        }
        TraceEvent::FallbackRestored {
            container,
            readmitted,
        } => {
            f.num("container", container).num("readmitted", readmitted);
        }
        TraceEvent::RestoreRamp {
            container,
            admitted,
            outstanding,
        } => {
            f.num("container", container)
                .num("admitted", admitted)
                .num("outstanding", outstanding);
        }
    }
    out.push(b'}');
}

/// The JSONL field writer: each call appends `,"name":` and one value.
struct Fields<'a>(&'a mut Vec<u8>);

impl Fields<'_> {
    #[inline]
    fn key(&mut self, name: &str) -> &mut Vec<u8> {
        self.0.extend_from_slice(b",\"");
        self.0.extend_from_slice(name.as_bytes());
        self.0.extend_from_slice(b"\":");
        self.0
    }

    /// An unsigned integer field.
    #[inline]
    fn num(&mut self, name: &str, value: impl Into<u64>) -> &mut Self {
        let value = value.into();
        push_u64(self.key(name), value);
        self
    }

    /// A `true` / `false` field.
    #[inline]
    fn flag(&mut self, name: &str, value: bool) -> &mut Self {
        self.key(name)
            .extend_from_slice(if value { b"true" } else { b"false" });
        self
    }

    /// A bare identifier string field (no escaping needed).
    #[inline]
    fn ident(&mut self, name: &str, value: &str) -> &mut Self {
        let out = self.key(name);
        out.push(b'"');
        out.extend_from_slice(value.as_bytes());
        out.push(b'"');
        self
    }
}

/// A sink that renders each record as one JSONL line into a writer.
///
/// Lines follow the schema of [`render_jsonl`]. Writing is buffered by the
/// caller's writer choice; [`TraceSink::flush_sink`] forwards to
/// [`std::io::Write::flush`]. I/O errors are counted rather than panicking
/// (a broken sink must never abort the simulation).
pub struct JsonlSink<W: std::io::Write> {
    out: W,
    /// The line being rendered, reused for every record so steady-state
    /// recording allocates nothing.
    line: Vec<u8>,
    written: u64,
    io_errors: u64,
}

impl<W: std::io::Write> JsonlSink<W> {
    /// A sink writing JSONL lines to `out`.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: Vec::with_capacity(JSONL_LINE_CAPACITY),
            written: 0,
            io_errors: 0,
        }
    }

    /// Lines successfully written.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Write errors swallowed so far.
    pub fn io_errors(&self) -> u64 {
        self.io_errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.out.flush();
        self.out
    }

    /// A view of the underlying writer (e.g. an in-memory buffer).
    pub fn get_ref(&self) -> &W {
        &self.out
    }
}

impl<W: std::io::Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, rec: &TraceRecord<TraceEvent>) {
        self.line.clear();
        write_jsonl(&mut self.line, rec);
        self.line.push(b'\n');
        match self.out.write_all(&self.line) {
            Ok(()) => self.written += 1,
            Err(_) => self.io_errors += 1,
        }
    }

    fn flush_sink(&mut self) {
        let _ = self.out.flush();
    }
}

/// A sink that keeps every record in memory (unbounded, for tests and
/// offline analysis inside one process).
#[derive(Default)]
pub struct MemorySink {
    records: Vec<TraceRecord<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// All records received, in emission order.
    pub fn records(&self) -> &[TraceRecord<TraceEvent>] {
        &self.records
    }

    /// Consumes the sink and returns its records.
    pub fn into_records(self) -> Vec<TraceRecord<TraceEvent>> {
        self.records
    }
}

impl TraceSink for MemorySink {
    fn record(&mut self, rec: &TraceRecord<TraceEvent>) {
        self.records.push(*rec);
    }
}

/// A sink that only counts records per event type — the cheapest way to
/// watch a long soak without retaining history.
#[derive(Default)]
pub struct CountingSink {
    total: u64,
    by_kind: std::collections::BTreeMap<&'static str, u64>,
}

impl CountingSink {
    /// An empty sink.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Total records received.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records received for one [`event_kind`] name.
    pub fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// All (kind, count) pairs, sorted by kind.
    pub fn counts(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.by_kind.iter().map(|(&k, &v)| (k, v))
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: &TraceRecord<TraceEvent>) {
        self.total += 1;
        *self.by_kind.entry(event_kind(&rec.event)).or_insert(0) += 1;
    }
}

/// Shared-handle sinks: callers that need to inspect a sink while the
/// kernel owns it can attach an `Rc<RefCell<S>>` clone.
impl<S: TraceSink> TraceSink for std::rc::Rc<std::cell::RefCell<S>> {
    fn record(&mut self, rec: &TraceRecord<TraceEvent>) {
        self.borrow_mut().record(rec);
    }

    fn flush_sink(&mut self) {
        self.borrow_mut().flush_sink();
    }
}

//! Latency attribution: which histogram each virtual-time span lands in,
//! and how the distributions leave the kernel.
//!
//! The engine ([`crate::hist`]) is storage and algebra; this module is the
//! *attribution* layer on top:
//!
//! * [`ObsState`] — the kernel-scope histograms ([`HipecKernel`] owns one):
//!   sampled per-opcode executor charges, the security checker's adaptive
//!   wakeup interval, and the pageout pump's drain cadence. Per-container
//!   fault/event latency lives on [`crate::Container`]; per-device
//!   read/flush/torn-retry latency lives on the VM device table.
//! * [`LatencyRow`] — the snapshot surface: one `(metric, key, histogram)`
//!   row, mergeable and diffable, carried in [`KernelStats::latency`] so
//!   interval percentiles fall out of the same `diff` the counters use.
//! * [`stats_export`] — Prometheus-style text exposition of a snapshot,
//!   deterministic byte-for-byte for a given snapshot (verify.sh runs the
//!   same seeded soak twice and `cmp`s the files).
//!
//! **Sampling rule.** Opcode charges are recorded every
//! [`OP_SAMPLE_EVERY`]-th *attributed* command, counted by a global
//! sequence number that advances once per command the executor
//! attributes, so the sample set is a pure function of the command
//! stream. Everything else is recorded unsampled. All recording sites
//! sit behind the `metrics` feature; storage is unconditional so snapshot
//! shapes and kernel behavior never depend on the feature.

use std::fmt;

use hipec_sim::{SimDuration, SimTime};

use crate::command::OpCode;
use crate::hist::{LatencyHistogram, SATURATION_NS};
use crate::kernel::HipecKernel;
use crate::metrics::KernelStats;
use crate::text::{decimal_len, push_u128, push_u64};

/// One in how many attributed commands gets its charge recorded into the
/// per-opcode histograms. Sampling keeps the profiling hook off the hot
/// path's cache footprint (the measured soak budget is ≤ 5% wall-clock,
/// see EXPERIMENTS.md); the exact totals remain in each container's
/// [`crate::OpProfile`].
pub const OP_SAMPLE_EVERY: u64 = 32;

/// Which latency surface a [`LatencyRow`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatencyMetric {
    /// Security-checker wakeup interval as scheduled (key: 0).
    CheckerInterval,
    /// Virtual time between pageout-pump invocations (key: 0).
    PumpDrain,
    /// Sampled executor charge per opcode (key: the opcode byte).
    OpCharge,
    /// Fault service latency aggregated per tenant share class (key: the
    /// class index in [`crate::ShareClass::ALL`]).
    ClassFault,
    /// Fault service latency, `access` entry to frame-ready (key: the
    /// container key).
    ContainerFault,
    /// Top-level `run_event` duration (key: the container key).
    ContainerEvent,
    /// Demand-read completion latency (key: the device id).
    DeviceRead,
    /// First-issue flush completion latency (key: the device id).
    DeviceFlush,
    /// Torn-retry re-issue completion latency (key: the device id).
    DeviceTornRetry,
}

impl LatencyMetric {
    /// Stable snake_case name used in `stats_export` labels and bench
    /// `--json`.
    pub fn name(self) -> &'static str {
        match self {
            LatencyMetric::CheckerInterval => "checker_interval",
            LatencyMetric::PumpDrain => "pump_drain",
            LatencyMetric::OpCharge => "op_charge",
            LatencyMetric::ClassFault => "class_fault",
            LatencyMetric::ContainerFault => "container_fault",
            LatencyMetric::ContainerEvent => "container_event",
            LatencyMetric::DeviceRead => "dev_read",
            LatencyMetric::DeviceFlush => "dev_flush",
            LatencyMetric::DeviceTornRetry => "dev_torn_retry",
        }
    }
}

/// One latency distribution in a [`KernelStats`] snapshot: a metric, the
/// entity it is keyed on, and the full histogram (so rows merge and diff
/// exactly, not just their summary percentiles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyRow {
    /// Which surface this row describes.
    pub metric: LatencyMetric,
    /// Container key, device id, or opcode byte (0 for kernel-scope rows).
    pub key: u64,
    /// The distribution itself.
    pub hist: LatencyHistogram,
}

impl LatencyRow {
    /// The key rendered for humans and export labels: the opcode mnemonic
    /// for [`LatencyMetric::OpCharge`] rows, the share-class name for
    /// [`LatencyMetric::ClassFault`] rows, the decimal key otherwise.
    pub fn key_label(&self) -> String {
        let mut label = Vec::new();
        self.push_key_label(&mut label);
        String::from_utf8(label).expect("key labels are ASCII")
    }

    /// Appends [`LatencyRow::key_label`] to `out`.
    fn push_key_label(&self, out: &mut Vec<u8>) {
        let name = match self.metric {
            LatencyMetric::OpCharge => OpCode::from_u8(self.key as u8).map(OpCode::mnemonic),
            LatencyMetric::ClassFault => {
                crate::ShareClass::from_index(self.key as usize).map(crate::ShareClass::name)
            }
            _ => None,
        };
        match name {
            Some(name) => out.extend_from_slice(name.as_bytes()),
            None => push_u64(out, self.key),
        }
    }

    /// Median latency.
    pub fn p50(&self) -> SimDuration {
        self.hist.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> SimDuration {
        self.hist.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> SimDuration {
        self.hist.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> SimDuration {
        self.hist.quantile(0.999)
    }

    /// Exact maximum recorded sample.
    pub fn max(&self) -> SimDuration {
        self.hist.max()
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    /// Samples that clamped into the saturation bucket.
    pub fn saturated(&self) -> u64 {
        self.hist.saturated()
    }

    /// Interval row between an earlier snapshot of the same `(metric,
    /// key)` row and this one.
    pub fn diff(&self, earlier: &LatencyRow) -> LatencyRow {
        debug_assert_eq!((self.metric, self.key), (earlier.metric, earlier.key));
        LatencyRow {
            metric: self.metric,
            key: self.key,
            hist: self.hist.diff(&earlier.hist),
        }
    }

    /// Merges another row of the same `(metric, key)` into this one.
    pub fn merge(&mut self, other: &LatencyRow) {
        debug_assert_eq!((self.metric, self.key), (other.metric, other.key));
        self.hist.merge(&other.hist);
    }
}

impl fmt::Display for LatencyRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: n={} p50={} p90={} p99={} p999={} max={}{}",
            self.metric.name(),
            self.key_label(),
            self.count(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max(),
            if self.saturated() != 0 {
                " [saturated]"
            } else {
                ""
            }
        )
    }
}

/// Kernel-scope latency state owned by [`HipecKernel`].
#[derive(Debug, Clone)]
pub struct ObsState {
    /// Sampled executor charge per opcode.
    pub op_charge: [LatencyHistogram; OpCode::ALL.len()],
    /// Attributed-command sequence number driving the 1-in-
    /// [`OP_SAMPLE_EVERY`] sampling decision. Advances in attribution
    /// order, so reruns sample the same commands.
    pub op_seq: u64,
    /// Fault service latency per tenant share class, indexed by
    /// [`crate::ShareClass::ALL`] position. The per-class aggregate the
    /// `tenants` workload gates on; rows appear only once a class faults.
    pub class_fault: [LatencyHistogram; crate::ShareClass::ALL.len()],
    /// The adaptive checker interval, recorded as scheduled at each wakeup.
    pub checker_interval: LatencyHistogram,
    /// Virtual time between consecutive pageout-pump invocations (the pump
    /// itself advances no virtual time, so cadence — not span — is the
    /// observable). Same-instant re-pumps are not recorded.
    pub pump_drain: LatencyHistogram,
    /// The previous time-advancing pump instant, for the cadence
    /// measurement.
    pub last_pump: Option<SimTime>,
}

impl Default for ObsState {
    fn default() -> Self {
        ObsState {
            op_charge: [LatencyHistogram::EMPTY; OpCode::ALL.len()],
            op_seq: 0,
            class_fault: [LatencyHistogram::EMPTY; crate::ShareClass::ALL.len()],
            checker_interval: LatencyHistogram::EMPTY,
            pump_drain: LatencyHistogram::EMPTY,
            last_pump: None,
        }
    }
}

impl HipecKernel {
    /// Attributes `spent` virtual time to a completed command: the exact
    /// per-container profile always, plus the sampled kernel-scope opcode
    /// histogram. Every attribution site in the executor funnels through
    /// here, so the sampling sequence follows attribution order exactly.
    #[inline]
    pub(crate) fn profile_op(&mut self, cidx: usize, op: OpCode, spent: SimDuration) {
        self.containers[cidx].op_profile.attribute(op, spent);
        #[cfg(feature = "metrics")]
        {
            self.obs.op_seq += 1;
            if self.obs.op_seq.is_multiple_of(OP_SAMPLE_EVERY) {
                self.obs.op_charge[op as usize].record(spent);
            }
        }
    }

    /// Assembles the latency rows of a snapshot, in a fixed deterministic
    /// order: kernel scope, occupied opcodes, containers, devices.
    pub(crate) fn latency_rows(&self) -> Vec<LatencyRow> {
        // Each row carries a whole histogram, so the vector is allocated
        // at its final length rather than grown (and copied) by doubling.
        let occupied = |hists: &[LatencyHistogram]| hists.iter().filter(|h| !h.is_empty()).count();
        let len = 2
            + occupied(&self.obs.op_charge)
            + occupied(&self.obs.class_fault)
            + 2 * self.containers.len()
            + 3 * self.vm.devices_iter().count();
        let mut rows = Vec::with_capacity(len);
        rows.push(LatencyRow {
            metric: LatencyMetric::CheckerInterval,
            key: 0,
            hist: self.obs.checker_interval,
        });
        rows.push(LatencyRow {
            metric: LatencyMetric::PumpDrain,
            key: 0,
            hist: self.obs.pump_drain,
        });
        for (i, h) in self.obs.op_charge.iter().enumerate() {
            if !h.is_empty() {
                rows.push(LatencyRow {
                    metric: LatencyMetric::OpCharge,
                    key: i as u64,
                    hist: *h,
                });
            }
        }
        for (i, h) in self.obs.class_fault.iter().enumerate() {
            if !h.is_empty() {
                rows.push(LatencyRow {
                    metric: LatencyMetric::ClassFault,
                    key: i as u64,
                    hist: *h,
                });
            }
        }
        for c in &self.containers {
            rows.push(LatencyRow {
                metric: LatencyMetric::ContainerFault,
                key: c.key as u64,
                hist: c.lat_fault,
            });
            rows.push(LatencyRow {
                metric: LatencyMetric::ContainerEvent,
                key: c.key as u64,
                hist: c.lat_event,
            });
        }
        for d in self.vm.devices_iter() {
            let (read, flush, torn) = d.latency();
            let key = d.id().0 as u64;
            rows.push(LatencyRow {
                metric: LatencyMetric::DeviceRead,
                key,
                hist: *read,
            });
            rows.push(LatencyRow {
                metric: LatencyMetric::DeviceFlush,
                key,
                hist: *flush,
            });
            rows.push(LatencyRow {
                metric: LatencyMetric::DeviceTornRetry,
                key,
                hist: *torn,
            });
        }
        debug_assert_eq!(rows.len(), len);
        rows
    }
}

/// Renders a [`KernelStats`] snapshot as Prometheus-style text exposition:
/// global counters, the snapshot gauges, and one histogram family over
/// every latency row (cumulative `le` buckets over occupied buckets, plus
/// `_sum` / `_count` and the saturation counter). Output bytes are a pure
/// function of the snapshot — identically seeded runs export identical
/// files.
///
/// The text is bounded first and then written into one buffer of that
/// size, so an export costs the same two allocations (the output and a
/// row-label scratch buffer) whatever the snapshot's size.
pub fn stats_export(stats: &KernelStats) -> String {
    let mut labels = Vec::with_capacity(ROW_LABELS_CAPACITY);
    let mut bound = ByteBound(0);
    write_export(&mut bound, stats, &mut labels);
    let mut out = Vec::with_capacity(bound.0);
    write_export(&mut out, stats, &mut labels);
    debug_assert!(out.len() <= bound.0, "{} > {}", out.len(), bound.0);
    String::from_utf8(out).expect("the export is ASCII")
}

/// Room for the longest row label, `{metric="container_event",key="` plus
/// twenty digits and the closing quote.
const ROW_LABELS_CAPACITY: usize = 64;

/// Where [`write_export`] sends the export: the output buffer, or a
/// [`ByteBound`] that sizes it beforehand.
trait ExportOut {
    fn text(&mut self, s: &[u8]);
    fn num(&mut self, v: u64);
    fn wide(&mut self, v: u128);
    /// One `hipec_latency_ns_bucket{…,le="…"} …` line per occupied bucket
    /// of `hist`, with cumulative counts.
    fn buckets(&mut self, labels: &[u8], hist: &LatencyHistogram);

    /// Ends a sample line: `} ` and its value.
    fn value(&mut self, v: u64) {
        self.text(b"} ");
        self.num(v);
        self.text(b"\n");
    }
}

impl ExportOut for Vec<u8> {
    fn text(&mut self, s: &[u8]) {
        self.extend_from_slice(s);
    }
    fn num(&mut self, v: u64) {
        push_u64(self, v);
    }
    fn wide(&mut self, v: u128) {
        push_u128(self, v);
    }
    fn buckets(&mut self, labels: &[u8], hist: &LatencyHistogram) {
        let mut cumulative = 0u64;
        for (_, upper, count) in hist.nonzero_buckets() {
            cumulative += count;
            self.text(BUCKET);
            self.text(labels);
            self.text(b",le=\"");
            self.num(upper);
            self.text(b"\"");
            self.value(cumulative);
        }
    }
}

/// An upper bound on the bytes an export writes: exact except for bucket
/// lines, which are bounded per histogram (widest `le`, cumulative count
/// at most the total) so the buckets need only be counted, not walked.
struct ByteBound(usize);

impl ExportOut for ByteBound {
    fn text(&mut self, s: &[u8]) {
        self.0 += s.len();
    }
    fn num(&mut self, v: u64) {
        self.0 += decimal_len(v);
    }
    fn wide(&mut self, v: u128) {
        self.0 += decimal_len(v);
    }
    fn buckets(&mut self, labels: &[u8], hist: &LatencyHistogram) {
        // Every bucket's upper bound is below the saturation point.
        const LE_DIGITS: usize = SATURATION_NS.ilog10() as usize + 1;
        let line = BUCKET.len()
            + labels.len()
            + ",le=\"\"} \n".len()
            + LE_DIGITS
            + decimal_len(hist.count());
        self.0 += hist.occupied_buckets() * line;
    }
}

const BUCKET: &[u8] = b"hipec_latency_ns_bucket";

/// The body of [`stats_export`]; `labels` is scratch space for each
/// row's `{metric="…",key="…"` label, built once per row.
fn write_export<O: ExportOut>(out: &mut O, stats: &KernelStats, labels: &mut Vec<u8>) {
    out.text(b"# HELP hipec_counter Global kernel counters.\n# TYPE hipec_counter counter\n");
    for (name, &value) in &stats.global {
        out.text(b"hipec_counter{name=\"");
        out.text(name.as_bytes());
        out.text(b"\"");
        out.value(value);
    }
    out.text(b"# HELP hipec_gauge Kernel snapshot gauges.\n# TYPE hipec_gauge gauge\n");
    for (name, value) in [
        ("at_ns", stats.at.as_ns()),
        ("free_frames", stats.free_frames),
        ("total_specific", stats.total_specific),
        ("inflight_flushes", stats.inflight_flushes),
        ("retry_depth", stats.retry_depth),
        ("dropped_records", stats.dropped_records),
    ] {
        out.text(b"hipec_gauge{name=\"");
        out.text(name.as_bytes());
        out.text(b"\"");
        out.value(value);
    }
    out.text(
        b"# HELP hipec_device Per-device lifecycle, tier and flash-wear state.\n\
          # TYPE hipec_device gauge\n",
    );
    for d in &stats.devices {
        for (name, value) in [
            ("tier", d.tier),
            ("state", d.state),
            ("migrations", d.migrations),
            ("migr_pending", d.migr_pending),
            ("write_amp_milli", d.write_amp_milli),
            ("max_wear", d.max_wear),
            ("gc_pauses", d.gc_pauses),
        ] {
            out.text(b"hipec_device{device=\"");
            out.num(u64::from(d.id));
            out.text(b"\",name=\"");
            out.text(name.as_bytes());
            out.text(b"\"");
            out.value(value);
        }
    }
    out.text(
        b"# HELP hipec_latency_ns Virtual-time latency distributions.\n\
          # TYPE hipec_latency_ns histogram\n",
    );
    for row in &stats.latency {
        labels.clear();
        labels.extend_from_slice(b"{metric=\"");
        labels.extend_from_slice(row.metric.name().as_bytes());
        labels.extend_from_slice(b"\",key=\"");
        row.push_key_label(labels);
        labels.push(b'"');
        out.buckets(labels, &row.hist);
        out.text(BUCKET);
        out.text(labels);
        out.text(b",le=\"+Inf\"");
        out.value(row.count());
        out.text(b"hipec_latency_ns_sum");
        out.text(labels);
        out.text(b"} ");
        out.wide(row.hist.total_ns());
        out.text(b"\n");
        for (family, value) in [
            (&b"hipec_latency_ns_count"[..], row.count()),
            (b"hipec_latency_saturated", row.saturated()),
            (b"hipec_latency_max_ns", row.max().as_ns()),
        ] {
            out.text(family);
            out.text(labels);
            out.value(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row_with(ns: &[u64]) -> LatencyRow {
        let mut hist = LatencyHistogram::new();
        for &v in ns {
            hist.record(SimDuration::from_ns(v));
        }
        LatencyRow {
            metric: LatencyMetric::ContainerFault,
            key: 3,
            hist,
        }
    }

    #[test]
    fn row_percentiles_and_display() {
        let row = row_with(&[100, 200, 300, 400, 50_000]);
        assert_eq!(row.count(), 5);
        assert!(row.p50() <= row.p90() && row.p90() <= row.p99());
        assert_eq!(row.max().as_ns(), 50_000);
        let s = row.to_string();
        assert!(s.starts_with("container_fault[3]: n=5"), "{s}");
    }

    #[test]
    fn row_diff_recovers_interval() {
        let earlier = row_with(&[100, 200]);
        let later = row_with(&[100, 200, 5_000, 5_000]);
        let d = later.diff(&earlier);
        assert_eq!(d.count(), 2);
        assert_eq!(d.p50().as_ns(), d.p99().as_ns());
    }

    #[test]
    fn op_charge_key_label_uses_mnemonic() {
        let row = LatencyRow {
            metric: LatencyMetric::OpCharge,
            key: OpCode::Request as u64,
            hist: LatencyHistogram::EMPTY,
        };
        assert_eq!(row.key_label(), OpCode::Request.mnemonic());
    }

    #[test]
    fn export_is_deterministic_and_cumulative() {
        let mut k = HipecKernel::new(hipec_vm::KernelParams::paper_64mb());
        k.obs.checker_interval.record(SimDuration::from_ms(2));
        k.obs.checker_interval.record(SimDuration::from_ms(4));
        let stats = k.kernel_stats();
        let a = stats_export(&stats);
        let b = stats_export(&stats);
        assert_eq!(a, b);
        assert!(a.contains("# TYPE hipec_latency_ns histogram"));
        assert!(
            a.contains("hipec_latency_ns_count{metric=\"checker_interval\",key=\"0\"} 2"),
            "{a}"
        );
        assert!(a.contains("le=\"+Inf\"} 2"));
    }
}

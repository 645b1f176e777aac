//! Offline analysis of JSONL kernel traces.
//!
//! Consumes the line-per-record stream written by
//! `hipec_core::JsonlSink` (schema of `hipec_core::render_jsonl`) and
//! reconstructs what the kernel did: per-type event counts, fault and
//! flush latency histograms, frame flush lifecycles, frame-residency
//! lifecycles (fault → migrate/release → reclaim), and a list of
//! anomalies — frame leaks (a `vm.flush_start` never matched by a
//! completion), double residency, commands executed by a quarantined or
//! terminated container, retry storms, abandoned write-backs, checker
//! timeouts and sequence gaps (records lost to ring overwrites).
//!
//! The analyzer is degradation-aware and device-aware: between a
//! `vm.breaker_trip` and its `vm.breaker_close` *that* paging device is
//! known-sick, so device collateral carrying its id (abandoned write-backs,
//! retry storms) is counted as *expected degradation* instead of flagged —
//! collateral on a different, healthy device is still an anomaly. A breaker
//! left open on any device, or a container left quarantined without a
//! `fallback_restored`, at the end of a trace is still an anomaly — the
//! graceful-degradation contract demands recovery. Records without a
//! `device` field (traces from before the device dimension) fold onto
//! device 0, which reproduces the old single-breaker semantics.
//!
//! The frame-residency audit is exact: frames leave the map only on the
//! per-frame events that retire them (`release`, `forced_seize`,
//! `orphan_recovered`, `flush_exchange`) or on whole-container transitions
//! (`terminated`, `quarantined`). Count-only `normal_reclaim` /
//! `forced_reclaim` records do not clear a container's entry set. The
//! `trace_analyze` binary wraps this module; tests feed it synthetic
//! traces.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use hipec_sim::stats::Histogram;
use hipec_sim::SimDuration;
use serde_json::Value;

/// A torn write-back retried this many times (or more) counts as a retry
/// storm anomaly — the paging device is effectively wedged on that frame.
pub const RETRY_STORM_THRESHOLD: u64 = 6;

/// Everything the analyzer learned from one trace.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Total records parsed.
    pub events: u64,
    /// Sequence number of the first record (None for an empty trace).
    /// Non-zero means the trace starts mid-run (ring overwrote history
    /// before a sink attached), so unmatched completions are not flagged.
    pub first_seq: Option<u64>,
    /// Sequence number of the last record.
    pub last_seq: Option<u64>,
    /// Records missing between consecutive lines (sum of gap sizes).
    pub seq_gaps: u64,
    /// Record counts per `"type"` field.
    pub by_type: BTreeMap<String, u64>,
    /// Substrate fault latencies (`vm.fault` `latency_ns`).
    pub fault_latency: Histogram,
    /// Policy-resolved fault latencies (`policy_fault_resolved`).
    pub policy_fault_latency: Histogram,
    /// Write-back latencies (`vm.flush_start` → `vm.flush_complete`).
    pub flush_latency: Histogram,
    /// Write-backs abandoned after exhausting retries.
    pub abandoned_flushes: u64,
    /// Policies the security checker timed out.
    pub checker_timeouts: u64,
    /// Torn write-back re-issues.
    pub torn_retries: u64,
    /// Retries rejected by the bounded retry queue.
    pub retry_rejected: u64,
    /// Deepest retry attempt seen on any frame.
    pub max_retry_attempt: u64,
    /// Frames whose flush never completed by end of trace (leaks).
    pub leaked_flushes: u64,
    /// Circuit-breaker trips (`vm.breaker_trip`).
    pub breaker_trips: u64,
    /// Circuit-breaker closes (`vm.breaker_close`).
    pub breaker_closes: u64,
    /// Half-open probe writes (`vm.breaker_probe`).
    pub breaker_probes: u64,
    /// Health degradations (`health_degraded`).
    pub degrades: u64,
    /// Containers quarantined into default management (`quarantined`).
    pub quarantines: u64,
    /// Quarantined containers restored to HiPEC management
    /// (`fallback_restored`).
    pub restores: u64,
    /// Device collateral (abandoned write-backs, retry storms, checker
    /// timeouts) absorbed inside open-breaker windows or attributed to
    /// already-quarantined containers instead of flagged as anomalies.
    pub expected_degradations: u64,
    /// Frames still resident under each live container when the trace
    /// ended, reconstructed from the residency lifecycle (container key →
    /// frame count). Informational, not an anomaly: live specific
    /// applications legitimately hold their working set.
    pub resident_at_end: BTreeMap<u64, u64>,
    /// Human-readable anomaly descriptions; empty on a clean trace.
    pub anomalies: Vec<String>,
}

impl Analysis {
    /// True when the trace shows no anomalies.
    pub fn is_clean(&self) -> bool {
        self.anomalies.is_empty()
    }

    /// Serializes the analysis (including histograms as
    /// `[[floor_ns, ceil_ns, count], ...]` bucket triples) to JSON.
    pub fn to_json(&self) -> Value {
        fn hist(h: &Histogram) -> Value {
            serde_json::json!({
                "count": h.count(),
                "total_ns": h.total_ns() as u64,
                "mean_ns": h.mean().as_ns(),
                "p50_ns": h.quantile(0.5).as_ns(),
                "p99_ns": h.quantile(0.99).as_ns(),
                "buckets": Value::Array(
                    h.nonzero_buckets()
                        .map(|(lo, hi, n)| serde_json::json!([lo, hi, n]))
                        .collect(),
                ),
            })
        }
        let mut by_type = serde_json::Map::new();
        for (k, v) in &self.by_type {
            by_type.insert(k.clone(), serde_json::to_value(v));
        }
        let mut resident = serde_json::Map::new();
        for (k, v) in &self.resident_at_end {
            resident.insert(k.to_string(), serde_json::to_value(v));
        }
        serde_json::json!({
            "events": self.events,
            "first_seq": self.first_seq.map(Value::U64).unwrap_or(Value::Null),
            "last_seq": self.last_seq.map(Value::U64).unwrap_or(Value::Null),
            "seq_gaps": self.seq_gaps,
            "by_type": Value::Object(by_type),
            "fault_latency": hist(&self.fault_latency),
            "policy_fault_latency": hist(&self.policy_fault_latency),
            "flush_latency": hist(&self.flush_latency),
            "abandoned_flushes": self.abandoned_flushes,
            "checker_timeouts": self.checker_timeouts,
            "torn_retries": self.torn_retries,
            "retry_rejected": self.retry_rejected,
            "max_retry_attempt": self.max_retry_attempt,
            "leaked_flushes": self.leaked_flushes,
            "breaker_trips": self.breaker_trips,
            "breaker_closes": self.breaker_closes,
            "breaker_probes": self.breaker_probes,
            "degrades": self.degrades,
            "quarantines": self.quarantines,
            "restores": self.restores,
            "expected_degradations": self.expected_degradations,
            "resident_at_end": Value::Object(resident),
            "anomalies": Value::Array(
                self.anomalies
                    .iter()
                    .map(|a| Value::Str(a.clone()))
                    .collect(),
            ),
        })
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events (seq {}..{}), {} missing",
            self.events,
            self.first_seq.map_or("-".to_string(), |s| s.to_string()),
            self.last_seq.map_or("-".to_string(), |s| s.to_string()),
            self.seq_gaps
        )?;
        writeln!(f, "events by type:")?;
        for (k, v) in &self.by_type {
            writeln!(f, "  {k:>24}: {v}")?;
        }
        for (name, h) in [
            ("fault latency", &self.fault_latency),
            ("policy fault latency", &self.policy_fault_latency),
            ("flush latency", &self.flush_latency),
        ] {
            if h.count() == 0 {
                continue;
            }
            writeln!(
                f,
                "{name}: n={} mean={} p50={} p99={}",
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.99)
            )?;
            for (lo, hi, n) in h.nonzero_buckets() {
                writeln!(f, "  [{lo:>12} ns, {hi:>12} ns]: {n}")?;
            }
        }
        if self.breaker_trips + self.breaker_closes + self.breaker_probes != 0 {
            writeln!(
                f,
                "breaker: {} trip(s), {} close(s), {} probe(s)",
                self.breaker_trips, self.breaker_closes, self.breaker_probes
            )?;
        }
        if self.degrades + self.quarantines + self.restores != 0 {
            writeln!(
                f,
                "health: {} degrade(s), {} quarantine(s), {} restore(s), \
                 {} expected degradation(s) absorbed",
                self.degrades, self.quarantines, self.restores, self.expected_degradations
            )?;
        }
        if !self.resident_at_end.is_empty() {
            write!(f, "frames resident at end:")?;
            for (c, n) in &self.resident_at_end {
                write!(f, " c{c}={n}")?;
            }
            writeln!(f)?;
        }
        if self.anomalies.is_empty() {
            writeln!(f, "anomalies: none")?;
        } else {
            writeln!(f, "anomalies ({}):", self.anomalies.len())?;
            for a in &self.anomalies {
                writeln!(f, "  ! {a}")?;
            }
        }
        Ok(())
    }
}

fn field_u64(obj: &serde_json::Map, key: &str) -> Option<u64> {
    obj.get(key).and_then(Value::as_u64)
}

/// Knobs for [`analyze_lines_with`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnalyzeOptions {
    /// Flag an anomaly when the substrate fault latency p99 exceeds this
    /// many virtual ns (0 disables the gate).
    pub gate_p99_fault_ns: u64,
    /// Flag an anomaly when the flush latency p99 exceeds this many
    /// virtual ns (0 disables the gate).
    pub gate_p99_flush_ns: u64,
}

/// Analyzes a JSONL trace given as an iterator of lines, with default
/// options (exact residency audit).
///
/// Returns `Err` only on malformed input (unparseable line, missing
/// `seq`/`at_ns`/`type`); kernel-level problems are reported through
/// [`Analysis::anomalies`].
pub fn analyze_lines<'a, I>(lines: I) -> Result<Analysis, String>
where
    I: IntoIterator<Item = &'a str>,
{
    analyze_lines_with(lines, AnalyzeOptions::default())
}

/// Analyzes a JSONL trace with explicit [`AnalyzeOptions`].
pub fn analyze_lines_with<'a, I>(lines: I, options: AnalyzeOptions) -> Result<Analysis, String>
where
    I: IntoIterator<Item = &'a str>,
{
    let mut a = Analysis::default();
    // frame -> (flush_start at_ns, start seq), for lifecycle matching.
    let mut inflight: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    // frame -> owning container, for residency lifecycle matching. Frames
    // leave via the per-frame events that retire them (release,
    // forced_seize, orphan_recovered, flush_exchange) or on whole-container
    // transitions, so a surviving entry is a hard claim of residency.
    let mut resident: BTreeMap<u64, u64> = BTreeMap::new();
    // Containers currently under default management (terminated or
    // quarantined): HiPEC commands from them are anomalies.
    let mut in_fallback: BTreeSet<u64> = BTreeSet::new();
    // Containers currently quarantined (awaiting restore).
    let mut quarantined_now: BTreeSet<u64> = BTreeSet::new();
    // Devices between a vm.breaker_trip and the matching vm.breaker_close:
    // those devices are known-sick, so their collateral is expected, not
    // anomalous. Pre-device traces fold onto device 0.
    let mut open_devices: BTreeSet<u64> = BTreeSet::new();
    let mut prev_seq: Option<u64> = None;

    for (lineno, line) in lines.into_iter().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let v: Value = serde_json::from_str(line)
            .map_err(|e| format!("line {}: bad JSON: {e:?}", lineno + 1))?;
        let obj = v
            .as_object()
            .ok_or_else(|| format!("line {}: not an object", lineno + 1))?;
        let seq = field_u64(obj, "seq").ok_or_else(|| format!("line {}: no seq", lineno + 1))?;
        let at_ns =
            field_u64(obj, "at_ns").ok_or_else(|| format!("line {}: no at_ns", lineno + 1))?;
        let kind = obj
            .get("type")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no type", lineno + 1))?;

        a.events += 1;
        if a.first_seq.is_none() {
            a.first_seq = Some(seq);
        }
        if let Some(prev) = prev_seq {
            if seq <= prev {
                a.anomalies
                    .push(format!("seq {seq} after {prev}: sequence not increasing"));
            } else if seq != prev + 1 {
                let missing = seq - prev - 1;
                a.seq_gaps += missing;
                a.anomalies.push(format!(
                    "{missing} record(s) dropped between seq {prev} and {seq}"
                ));
            }
        }
        prev_seq = Some(seq);
        a.last_seq = Some(seq);
        *a.by_type.entry(kind.to_string()).or_insert(0) += 1;

        // Residency lifecycle: a HiPEC command naming a container that the
        // trace already put under default management is a contract breach.
        let fallback_guard =
            |a: &mut Analysis, in_fallback: &BTreeSet<u64>, container: u64, what: &str| {
                if in_fallback.contains(&container) {
                    a.anomalies.push(format!(
                        "container {container}: {what} at seq {seq} while under \
                         default management (terminated or quarantined)"
                    ));
                }
            };

        match kind {
            "vm.fault" => {
                if let Some(ns) = field_u64(obj, "latency_ns") {
                    a.fault_latency.record(SimDuration::from_ns(ns));
                }
            }
            "policy_fault_resolved" => {
                if let Some(ns) = field_u64(obj, "latency_ns") {
                    a.policy_fault_latency.record(SimDuration::from_ns(ns));
                }
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                let frame = field_u64(obj, "frame").unwrap_or(u64::MAX);
                fallback_guard(&mut a, &in_fallback, container, "resolved a policy fault");
                if let Some(&owner) = resident.get(&frame) {
                    if owner != container {
                        a.anomalies.push(format!(
                            "frame {frame}: resolved a fault for container {container} \
                             at seq {seq} while still resident under container {owner} \
                             (double residency)"
                        ));
                    }
                }
                resident.insert(frame, container);
            }
            "request" => {
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                fallback_guard(&mut a, &in_fallback, container, "issued a Request");
            }
            "release" => {
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                let frame = field_u64(obj, "frame").unwrap_or(u64::MAX);
                fallback_guard(&mut a, &in_fallback, container, "issued a Release");
                resident.remove(&frame);
            }
            "flush_exchange" => {
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                fallback_guard(&mut a, &in_fallback, container, "issued a Flush");
                if let Some(dirty) = field_u64(obj, "dirty") {
                    resident.remove(&dirty);
                }
                if let Some(replacement) = field_u64(obj, "replacement") {
                    if let Some(&owner) = resident.get(&replacement) {
                        if owner != container {
                            a.anomalies.push(format!(
                                "frame {replacement}: flush replacement for container \
                                 {container} at seq {seq} while still resident under \
                                 container {owner} (double residency)"
                            ));
                        }
                    }
                    resident.insert(replacement, container);
                }
            }
            "migrate" => {
                let to = field_u64(obj, "to").unwrap_or(u64::MAX);
                fallback_guard(&mut a, &in_fallback, to, "received a Migrate");
                if let Some(frame) = field_u64(obj, "frame") {
                    // Migrated frames come off the source's free queue; a
                    // tracked one simply changes owner.
                    if let Some(owner) = resident.get_mut(&frame) {
                        *owner = to;
                    }
                }
            }
            "orphan_recovered" => {
                if let Some(frame) = field_u64(obj, "frame") {
                    resident.remove(&frame);
                }
            }
            "forced_seize" => {
                if let Some(frame) = field_u64(obj, "frame") {
                    resident.remove(&frame);
                }
            }
            "terminated" => {
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                in_fallback.insert(container);
                quarantined_now.remove(&container);
                resident.retain(|_, owner| *owner != container);
            }
            "quarantined" => {
                a.quarantines += 1;
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                in_fallback.insert(container);
                quarantined_now.insert(container);
                resident.retain(|_, owner| *owner != container);
            }
            "fallback_restored" => {
                a.restores += 1;
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                if !quarantined_now.remove(&container) {
                    a.anomalies.push(format!(
                        "container {container}: fallback_restored at seq {seq} \
                         without a preceding quarantine"
                    ));
                }
                in_fallback.remove(&container);
            }
            "health_degraded" => {
                a.degrades += 1;
            }
            "vm.breaker_trip" => {
                a.breaker_trips += 1;
                open_devices.insert(field_u64(obj, "device").unwrap_or(0));
            }
            "vm.breaker_close" => {
                a.breaker_closes += 1;
                open_devices.remove(&field_u64(obj, "device").unwrap_or(0));
            }
            "vm.breaker_probe" => {
                a.breaker_probes += 1;
            }
            "vm.flush_start" => {
                let frame = field_u64(obj, "frame").unwrap_or(u64::MAX);
                if let Some((start_ns, start_seq)) = inflight.insert(frame, (at_ns, seq)) {
                    a.anomalies.push(format!(
                        "frame {frame}: flush_start at seq {seq} while flush from \
                         seq {start_seq} (at {start_ns} ns) still open"
                    ));
                }
            }
            "vm.flush_complete" => {
                let frame = field_u64(obj, "frame").unwrap_or(u64::MAX);
                match inflight.remove(&frame) {
                    Some((start_ns, _)) => a
                        .flush_latency
                        .record(SimDuration::from_ns(at_ns.saturating_sub(start_ns))),
                    // Only a complete-from-birth trace can call an
                    // unmatched completion an anomaly; a mid-run capture
                    // legitimately misses the start.
                    None if a.first_seq == Some(0) && a.seq_gaps == 0 => {
                        a.anomalies
                            .push(format!("frame {frame}: flush_complete without flush_start"));
                    }
                    None => {}
                }
            }
            "vm.flush_abandoned" => {
                let frame = field_u64(obj, "frame").unwrap_or(u64::MAX);
                inflight.remove(&frame);
                a.abandoned_flushes += 1;
                let attempts = field_u64(obj, "attempts").unwrap_or(0);
                // Collateral is excused only on the device whose breaker is
                // actually open — a healthy device abandoning write-backs
                // is anomalous no matter what its neighbors are doing.
                if open_devices.contains(&field_u64(obj, "device").unwrap_or(0)) {
                    a.expected_degradations += 1;
                } else {
                    a.anomalies.push(format!(
                        "frame {frame}: write-back abandoned after {attempts} attempts"
                    ));
                }
            }
            "vm.torn_retry" => {
                a.torn_retries += 1;
                let attempt = field_u64(obj, "attempt").unwrap_or(0);
                a.max_retry_attempt = a.max_retry_attempt.max(attempt);
                if attempt >= RETRY_STORM_THRESHOLD {
                    if open_devices.contains(&field_u64(obj, "device").unwrap_or(0)) {
                        a.expected_degradations += 1;
                    } else {
                        let frame = field_u64(obj, "frame").unwrap_or(u64::MAX);
                        a.anomalies
                            .push(format!("frame {frame}: retry storm (attempt {attempt})"));
                    }
                }
            }
            "vm.retry_rejected" => {
                a.retry_rejected += 1;
            }
            "checker_timeout" => {
                a.checker_timeouts += 1;
                let container = field_u64(obj, "container").unwrap_or(u64::MAX);
                // A timeout while the device is tripped, or one that the
                // checker answered by quarantining the container, is the
                // environment's fault; a timeout that killed a healthy
                // container is the policy's own.
                if !open_devices.is_empty() || quarantined_now.contains(&container) {
                    a.expected_degradations += 1;
                } else {
                    a.anomalies
                        .push(format!("container {container}: checker timeout"));
                }
            }
            _ => {}
        }
    }

    a.leaked_flushes = inflight.len() as u64;
    for (frame, (start_ns, start_seq)) in &inflight {
        a.anomalies.push(format!(
            "frame {frame}: flush started at seq {start_seq} ({start_ns} ns) \
             never completed (leak)"
        ));
    }
    // The graceful-degradation contract requires recovery: a breaker still
    // open, or a container still quarantined, when the trace closes means
    // the run ended degraded.
    for device in &open_devices {
        a.anomalies.push(format!(
            "device {device}: circuit breaker still open at end of trace"
        ));
    }
    for container in &quarantined_now {
        a.anomalies.push(format!(
            "container {container}: still quarantined at end of trace \
             (no recovery cycle)"
        ));
    }
    for owner in resident.values() {
        *a.resident_at_end.entry(*owner).or_insert(0) += 1;
    }
    // Percentile gates: a seeded soak has a deterministic latency
    // distribution, so a tail drifting past the configured ceiling is a
    // regression even when every lifecycle closes cleanly.
    if options.gate_p99_fault_ns != 0 {
        let p99 = a.fault_latency.quantile(0.99).as_ns();
        if p99 > options.gate_p99_fault_ns {
            a.anomalies.push(format!(
                "fault latency p99 {p99} ns exceeds gate {} ns",
                options.gate_p99_fault_ns
            ));
        }
    }
    if options.gate_p99_flush_ns != 0 {
        let p99 = a.flush_latency.quantile(0.99).as_ns();
        if p99 > options.gate_p99_flush_ns {
            a.anomalies.push(format!(
                "flush latency p99 {p99} ns exceeds gate {} ns",
                options.gate_p99_flush_ns
            ));
        }
    }
    Ok(a)
}

/// Analyzes a whole JSONL document held in memory.
pub fn analyze_str(text: &str) -> Result<Analysis, String> {
    analyze_lines(text.lines())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_trace_has_no_anomalies() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"install\",\"container\":1,\"min_frames\":4}
{\"seq\":1,\"at_ns\":100,\"type\":\"vm.fault\",\"task\":0,\"vpage\":3,\"kind\":\"page_in\",\"write\":false,\"latency_ns\":2500}
{\"seq\":2,\"at_ns\":200,\"type\":\"vm.flush_start\",\"frame\":7,\"torn\":false}
{\"seq\":3,\"at_ns\":900,\"type\":\"vm.flush_complete\",\"frame\":7}
";
        let a = analyze_str(trace).unwrap();
        assert!(a.is_clean(), "anomalies: {:?}", a.anomalies);
        assert_eq!(a.events, 4);
        assert_eq!(a.first_seq, Some(0));
        assert_eq!(a.last_seq, Some(3));
        assert_eq!(a.seq_gaps, 0);
        assert_eq!(a.by_type.get("vm.fault"), Some(&1));
        assert_eq!(a.fault_latency.count(), 1);
        assert_eq!(a.flush_latency.count(), 1);
        assert_eq!(a.flush_latency.total_ns(), 700);
    }

    #[test]
    fn percentile_gates_flag_slow_tails_only() {
        let trace = "\
{\"seq\":0,\"at_ns\":100,\"type\":\"vm.fault\",\"task\":0,\"vpage\":3,\"kind\":\"page_in\",\"write\":false,\"latency_ns\":2500}
{\"seq\":1,\"at_ns\":200,\"type\":\"vm.flush_start\",\"frame\":7,\"torn\":false}
{\"seq\":2,\"at_ns\":900,\"type\":\"vm.flush_complete\",\"frame\":7}
";
        let generous = AnalyzeOptions {
            gate_p99_fault_ns: 1_000_000,
            gate_p99_flush_ns: 1_000_000,
        };
        let a = analyze_lines_with(trace.lines(), generous).unwrap();
        assert!(a.is_clean(), "anomalies: {:?}", a.anomalies);

        let tight = AnalyzeOptions {
            gate_p99_fault_ns: 1_000,
            gate_p99_flush_ns: 100,
        };
        let a = analyze_lines_with(trace.lines(), tight).unwrap();
        assert_eq!(a.anomalies.len(), 2, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("fault latency p99"));
        assert!(a.anomalies[1].contains("flush latency p99"));
    }

    #[test]
    fn seq_gap_counts_dropped_records() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"checker_wake\",\"detected\":0}
{\"seq\":4,\"at_ns\":50,\"type\":\"checker_wake\",\"detected\":0}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.seq_gaps, 3);
        assert_eq!(a.anomalies.len(), 1);
        assert!(a.anomalies[0].contains("3 record(s) dropped"));
    }

    #[test]
    fn flush_leak_and_double_start_flagged() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"vm.flush_start\",\"frame\":3,\"torn\":false}
{\"seq\":1,\"at_ns\":10,\"type\":\"vm.flush_start\",\"frame\":3,\"torn\":false}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.leaked_flushes, 1);
        assert_eq!(a.anomalies.len(), 2);
        assert!(a.anomalies[0].contains("still open"));
        assert!(a.anomalies[1].contains("never completed"));
    }

    #[test]
    fn retry_storm_abandonment_and_timeouts_flagged() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"vm.torn_retry\",\"frame\":2,\"attempt\":1}
{\"seq\":1,\"at_ns\":10,\"type\":\"vm.torn_retry\",\"frame\":2,\"attempt\":6}
{\"seq\":2,\"at_ns\":20,\"type\":\"vm.flush_abandoned\",\"frame\":2,\"attempts\":7}
{\"seq\":3,\"at_ns\":30,\"type\":\"checker_timeout\",\"container\":5}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.torn_retries, 2);
        assert_eq!(a.max_retry_attempt, 6);
        assert_eq!(a.abandoned_flushes, 1);
        assert_eq!(a.checker_timeouts, 1);
        assert_eq!(a.anomalies.len(), 3);
    }

    #[test]
    fn midrun_capture_tolerates_unmatched_completion() {
        // first_seq != 0: the ring overwrote history before the sink
        // attached, so an orphan completion is expected, not an anomaly.
        let trace = "{\"seq\":40,\"at_ns\":500,\"type\":\"vm.flush_complete\",\"frame\":9}\n";
        let a = analyze_str(trace).unwrap();
        assert!(a.is_clean(), "anomalies: {:?}", a.anomalies);
    }

    #[test]
    fn complete_trace_flags_unmatched_completion() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"checker_wake\",\"detected\":0}
{\"seq\":1,\"at_ns\":500,\"type\":\"vm.flush_complete\",\"frame\":9}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.anomalies.len(), 1);
        assert!(a.anomalies[0].contains("without flush_start"));
    }

    #[test]
    fn malformed_input_is_an_error() {
        assert!(analyze_str("not json\n").is_err());
        assert!(analyze_str("{\"at_ns\":0,\"type\":\"x\"}\n").is_err());
        let err = analyze_str("{\"seq\":0,\"at_ns\":0}\n").unwrap_err();
        assert!(err.contains("no type"));
    }

    #[test]
    fn breaker_window_absorbs_device_collateral() {
        // Abandonment, a deep retry and a quarantine-path timeout all land
        // inside the trip..close window (or on a quarantined container):
        // expected degradation, not anomalies — and the full
        // quarantine-then-restore cycle leaves the trace clean.
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"install\",\"container\":0,\"min_frames\":4}
{\"seq\":1,\"at_ns\":10,\"type\":\"vm.breaker_trip\",\"ewma_milli\":578}
{\"seq\":2,\"at_ns\":20,\"type\":\"vm.torn_retry\",\"frame\":3,\"attempt\":7}
{\"seq\":3,\"at_ns\":30,\"type\":\"vm.flush_abandoned\",\"frame\":3,\"attempts\":8}
{\"seq\":4,\"at_ns\":40,\"type\":\"health_degraded\",\"container\":0,\"strikes\":3}
{\"seq\":5,\"at_ns\":50,\"type\":\"quarantined\",\"container\":0,\"reclaimed\":6}
{\"seq\":6,\"at_ns\":60,\"type\":\"vm.breaker_probe\",\"ok\":true}
{\"seq\":7,\"at_ns\":70,\"type\":\"vm.breaker_close\",\"ewma_milli\":90}
{\"seq\":8,\"at_ns\":80,\"type\":\"checker_timeout\",\"container\":0}
{\"seq\":9,\"at_ns\":90,\"type\":\"fallback_restored\",\"container\":0,\"readmitted\":4}
";
        let a = analyze_str(trace).unwrap();
        assert!(a.is_clean(), "anomalies: {:?}", a.anomalies);
        assert_eq!(a.breaker_trips, 1);
        assert_eq!(a.breaker_closes, 1);
        assert_eq!(a.breaker_probes, 1);
        assert_eq!(a.degrades, 1);
        assert_eq!(a.quarantines, 1);
        assert_eq!(a.restores, 1);
        assert_eq!(a.expected_degradations, 3);
        assert_eq!(a.abandoned_flushes, 1);
        assert_eq!(a.checker_timeouts, 1);
    }

    #[test]
    fn unrecovered_degradation_is_flagged() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"vm.breaker_trip\",\"ewma_milli\":600}
{\"seq\":1,\"at_ns\":10,\"type\":\"quarantined\",\"container\":2,\"reclaimed\":5}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.anomalies.len(), 2, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("breaker still open"));
        assert!(a.anomalies[1].contains("still quarantined"));
    }

    #[test]
    fn fallback_container_activity_is_flagged() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"quarantined\",\"container\":1,\"reclaimed\":3}
{\"seq\":1,\"at_ns\":10,\"type\":\"policy_fault_resolved\",\"container\":1,\"frame\":9,\"latency_ns\":100}
{\"seq\":2,\"at_ns\":20,\"type\":\"fallback_restored\",\"container\":1,\"readmitted\":3}
{\"seq\":3,\"at_ns\":30,\"type\":\"fallback_restored\",\"container\":1,\"readmitted\":3}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.anomalies.len(), 2, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("while under default management"));
        assert!(a.anomalies[1].contains("without a preceding quarantine"));
    }

    #[test]
    fn residency_lifecycle_flags_double_residency() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"policy_fault_resolved\",\"container\":1,\"frame\":5,\"latency_ns\":100}
{\"seq\":1,\"at_ns\":10,\"type\":\"policy_fault_resolved\",\"container\":2,\"frame\":5,\"latency_ns\":100}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.anomalies.len(), 1, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("double residency"));
    }

    #[test]
    fn residency_lifecycle_follows_release_seize_and_migrate() {
        // fault -> release frees frame 5 for container 2; forced
        // reclamation names frame 7 in a per-frame forced_seize, so its
        // reuse by container 1 is legitimate; the migrated frame 9 ends
        // under container 2.
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"policy_fault_resolved\",\"container\":1,\"frame\":5,\"latency_ns\":100}
{\"seq\":1,\"at_ns\":10,\"type\":\"release\",\"container\":1,\"frame\":5}
{\"seq\":2,\"at_ns\":20,\"type\":\"policy_fault_resolved\",\"container\":2,\"frame\":5,\"latency_ns\":100}
{\"seq\":3,\"at_ns\":30,\"type\":\"policy_fault_resolved\",\"container\":2,\"frame\":7,\"latency_ns\":100}
{\"seq\":4,\"at_ns\":40,\"type\":\"forced_seize\",\"container\":2,\"frame\":7}
{\"seq\":5,\"at_ns\":40,\"type\":\"forced_reclaim\",\"container\":2,\"taken\":1}
{\"seq\":6,\"at_ns\":50,\"type\":\"policy_fault_resolved\",\"container\":1,\"frame\":7,\"latency_ns\":100}
{\"seq\":7,\"at_ns\":60,\"type\":\"policy_fault_resolved\",\"container\":1,\"frame\":9,\"latency_ns\":100}
{\"seq\":8,\"at_ns\":70,\"type\":\"migrate\",\"from\":1,\"to\":2,\"frame\":9}
";
        let a = analyze_str(trace).unwrap();
        assert!(a.is_clean(), "anomalies: {:?}", a.anomalies);
        assert_eq!(a.resident_at_end.get(&1), Some(&1)); // frame 7
        assert_eq!(a.resident_at_end.get(&2), Some(&2)); // frames 5 and 9
    }

    #[test]
    fn exact_audit_flags_reuse_not_covered_by_a_seize() {
        // The count-only reclaim no longer clears container 2's entries, so
        // container 1 re-faulting frame 7 without a forced_seize (or
        // release) naming it first is exactly the double residency the
        // conservative clearing used to hide.
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"policy_fault_resolved\",\"container\":2,\"frame\":7,\"latency_ns\":100}
{\"seq\":1,\"at_ns\":10,\"type\":\"normal_reclaim\",\"container\":2,\"asked\":1,\"recovered\":1}
{\"seq\":2,\"at_ns\":20,\"type\":\"policy_fault_resolved\",\"container\":1,\"frame\":7,\"latency_ns\":100}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.anomalies.len(), 1, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("double residency"));
    }

    #[test]
    fn breaker_gating_is_per_device() {
        // Device 1 is tripped; its abandonment is expected degradation.
        // Device 0's breaker is closed, so identical collateral there is an
        // anomaly — a sick neighbor excuses nothing.
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"vm.breaker_trip\",\"device\":1,\"ewma_milli\":578}
{\"seq\":1,\"at_ns\":10,\"type\":\"vm.flush_abandoned\",\"device\":1,\"frame\":3,\"attempts\":8}
{\"seq\":2,\"at_ns\":20,\"type\":\"vm.flush_abandoned\",\"device\":0,\"frame\":4,\"attempts\":8}
{\"seq\":3,\"at_ns\":30,\"type\":\"vm.breaker_close\",\"device\":1,\"ewma_milli\":90}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.expected_degradations, 1);
        assert_eq!(a.anomalies.len(), 1, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("frame 4"));
    }

    #[test]
    fn unclosed_breakers_are_reported_per_device() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"vm.breaker_trip\",\"device\":2,\"ewma_milli\":600}
{\"seq\":1,\"at_ns\":10,\"type\":\"vm.breaker_trip\",\"device\":0,\"ewma_milli\":600}
{\"seq\":2,\"at_ns\":20,\"type\":\"vm.breaker_close\",\"device\":2,\"ewma_milli\":90}
";
        let a = analyze_str(trace).unwrap();
        assert_eq!(a.anomalies.len(), 1, "anomalies: {:?}", a.anomalies);
        assert!(a.anomalies[0].contains("device 0"));
        assert!(a.anomalies[0].contains("breaker still open"));
    }

    #[test]
    fn to_json_round_trips() {
        let trace = "\
{\"seq\":0,\"at_ns\":0,\"type\":\"vm.fault\",\"task\":0,\"vpage\":1,\"kind\":\"hit\",\"write\":true,\"latency_ns\":5}
";
        let a = analyze_str(trace).unwrap();
        let v = a.to_json();
        let text = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(
            back.as_object().unwrap().get("events").unwrap().as_u64(),
            Some(1)
        );
        let fl = back.as_object().unwrap().get("fault_latency").unwrap();
        assert_eq!(
            fl.as_object().unwrap().get("count").unwrap().as_u64(),
            Some(1)
        );
    }
}

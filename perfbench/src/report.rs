//! Turning episodes into metrics: end-to-end summaries, per-layer span
//! statistics, the workload shape guards, and the result document.

use std::time::Instant;

use hipec_core::{KernelStats, LatencyHistogram, ShareClass};
use hipec_policies::analytic;
use hipec_sim::SimDuration;
use hipec_vm::PAGE_SIZE;

use crate::calib;
use crate::probe::{Layer, Spans, LAYERS};
use crate::workloads::{join, Episode, Fingerprint, Workload, NS_MASK};

/// Nearest-rank quantile of a sorted sample.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Everything the metrics need from one episode, without its buffers.
pub struct Summary {
    pub fingerprint: Fingerprint,
    /// Set-up seconds at the reference host speed (see [`calib`]).
    pub setup_s: f64,
    /// Accesses completed per second of the measured phase, at the
    /// reference host speed (see [`calib`]) and as timed.
    pub normalized_rate: f64,
    pub raw_rate: f64,
    pub accesses: u64,
    /// `access` calls that returned a hit.
    pub hits: u64,
    pub errors: u64,
    pub kinds: [u64; 4],
    pub ops: u64,
    pub failed_ops: u64,
    pub sim_elapsed: SimDuration,
    /// Size of the fault sample, its p50 and p99 (ns), and how many
    /// samples lie beyond the p99.
    pub fault_samples: u64,
    pub fault_p50_ns: u64,
    pub fault_p99_ns: u64,
    pub beyond_p99: u64,
    /// p99 (ns) of each share class's part of the sample.
    pub class_p99_ns: [u64; 3],
    pub installs: u64,
    pub admitted: u64,
    pub throttled: u64,
    pub over_share: u64,
    pub scrapes: u64,
    pub export_bytes: u64,
    pub sink_bytes: u64,
    pub metrics_on: bool,
    pub trace_on: bool,
    pub backend: &'static str,
}

impl Summary {
    /// Summarises `ep`, sorting its fault sample in place.
    pub fn of(ep: &mut Episode) -> Summary {
        let o = &mut ep.obs;
        let completed = (o.accesses - o.errors) as f64;
        // Sorting the class-tagged words orders the sample by class, then
        // by service time, so each class is one sorted run.
        o.faults.sort_unstable();
        let mut class_p99_ns = [0; 3];
        for class in ShareClass::ALL {
            let tag = (class.index() as u64) << 62;
            let lo = o.faults.partition_point(|&v| v < tag);
            let hi = o.faults.partition_point(|&v| v <= (tag | NS_MASK));
            let part = &o.faults[lo..hi];
            class_p99_ns[class.index()] = quantile(part, 0.99) & NS_MASK;
        }
        // Strip the tags; the sample is then sorted by service time.
        for v in o.faults.iter_mut() {
            *v &= NS_MASK;
        }
        o.faults.sort_unstable();
        let fault_p99_ns = quantile(&o.faults, 0.99);
        let beyond_p99 = (o.faults.len() - o.faults.partition_point(|&v| v <= fault_p99_ns)) as u64;
        Summary {
            fingerprint: ep.fingerprint,
            setup_s: ep.setup.normalized_s(),
            normalized_rate: completed / calib::normalized_s(&ep.slices, &ep.calib),
            raw_rate: completed / (ep.slices.iter().sum::<u64>() as f64 / 1e9),
            accesses: o.accesses,
            hits: o.kinds[0],
            errors: o.errors,
            kinds: o.kinds,
            ops: o.ops,
            failed_ops: o.failed_ops,
            sim_elapsed: ep.sim_elapsed,
            fault_samples: o.faults.len() as u64,
            fault_p50_ns: quantile(&o.faults, 0.50),
            fault_p99_ns,
            beyond_p99,
            class_p99_ns,
            installs: o.installs,
            admitted: o.admitted,
            throttled: o.throttled,
            over_share: o.over_share,
            scrapes: o.scrapes,
            export_bytes: o.export_bytes,
            sink_bytes: ep.sink_bytes,
            metrics_on: ep.metrics_on,
            trace_on: ep.trace_on,
            backend: ep.backend,
        }
    }
}

/// Reasons the episode drifted off its workload's purpose, or broke an
/// invariant of what the benchmark observes.
pub fn shape_violations(w: Workload, s: &Summary, stats: &KernelStats) -> Vec<String> {
    let device_writes: u64 = stats.devices.iter().map(|d| d.writes).sum();
    let policy_faults: u64 = stats.containers.iter().map(|c| c.faults).sum();
    let mut out = Vec::new();
    let mut require = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    require(
        s.kinds.iter().sum::<u64>() + s.errors == s.accesses,
        format!("access kinds do not add up to the {} calls", s.accesses),
    );
    require(
        s.beyond_p99 >= 10,
        format!(
            "only {} of {} fault samples lie beyond the p99",
            s.beyond_p99, s.fault_samples
        ),
    );
    let hit_share = s.hits as f64 / s.accesses as f64;
    match w {
        Workload::Join => {
            let pf_l = analytic::pf_lru(join::OUTER_BYTES, join::LOOPS, PAGE_SIZE);
            require(
                s.hits == 0 && s.errors == 0,
                format!(
                    "join: {} hits, {} errors; every access must fault",
                    s.hits, s.errors
                ),
            );
            require(
                policy_faults == pf_l && s.accesses == pf_l,
                format!(
                    "join: {} policy faults over {} accesses, the paper's PF_l is {pf_l}",
                    policy_faults, s.accesses
                ),
            );
            require(
                device_writes == 0,
                format!(
                    "join: {} device writes; the scan is read-only",
                    device_writes
                ),
            );
        }
        Workload::KvZipf => {
            require(
                (0.85..=0.97).contains(&hit_share),
                format!("kv_zipf: hit share {hit_share:.4} is outside 0.85..=0.97"),
            );
            require(
                device_writes > 0,
                "kv_zipf: no dirty write-backs".to_string(),
            );
        }
        Workload::TenantsStorm => {
            let storm_trips = stats.device(1).map_or(0, |d| d.breaker_trips);
            require(
                s.throttled > 0,
                "tenants_storm: the throttle never tripped".into(),
            );
            require(
                storm_trips > 0,
                "tenants_storm: the storm device's breaker never tripped".into(),
            );
            let err_share = s.errors as f64 / s.accesses as f64;
            require(
                s.errors > 0 && err_share < 0.05,
                format!("tenants_storm: failed-access share {err_share:.4} is not in (0, 0.05)"),
            );
        }
    }
    out
}

/// Host-time statistics of one layer's spans.
pub struct SpanStats {
    pub calls: u64,
    pub p50_ns: u64,
    pub p99_ns: u64,
    pub total_ns: u64,
}

/// Per-layer host times from the traced episodes.
#[derive(Default)]
pub struct LayerTimes {
    pub episodes: u64,
    pub samples: [Vec<u64>; LAYERS],
    pub sink_calls: u64,
    pub sink_ns: u64,
    /// Histogram records replayed and the host ns they took.
    pub hist_records: u64,
    pub hist_ns: u64,
}

/// Records replayed into the latency histogram per traced episode, at
/// least: enough for a steady per-call time on every workload.
const HIST_REPLAY_MIN: u64 = 2_000_000;

impl LayerTimes {
    /// Adds one traced episode. Call before [`Summary::of`], which
    /// reorders the fault sample the histogram replay uses.
    pub fn add(&mut self, spans: Spans, ep: &Episode) {
        self.episodes += 1;
        for (acc, s) in self.samples.iter_mut().zip(spans.samples) {
            acc.extend(s);
        }
        self.sink_calls += spans.sink.calls.get();
        self.sink_ns += spans.sink.ns.get();
        let finite: Vec<SimDuration> = ep
            .obs
            .faults
            .iter()
            .map(|&v| v & NS_MASK)
            .filter(|&ns| ns != NS_MASK)
            .map(SimDuration::from_ns)
            .collect();
        if finite.is_empty() {
            return;
        }
        let rounds = HIST_REPLAY_MIN.div_ceil(finite.len() as u64);
        let start = Instant::now();
        for _ in 0..rounds {
            let mut h = LatencyHistogram::new();
            for &d in &finite {
                h.record(std::hint::black_box(d));
            }
            std::hint::black_box(&h);
        }
        self.hist_ns += start.elapsed().as_nanos() as u64;
        self.hist_records += rounds * finite.len() as u64;
    }

    pub fn layer(&mut self, layer: Layer) -> SpanStats {
        let s = &mut self.samples[layer as usize];
        s.sort_unstable();
        SpanStats {
            calls: s.len() as u64 / self.episodes.max(1),
            p50_ns: quantile(s, 0.50),
            p99_ns: quantile(s, 0.99),
            total_ns: s.iter().sum::<u64>() / self.episodes.max(1),
        }
    }
}

/// One metric of the result document.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The per-layer metrics of a traced run: `s` and `stats` describe the
/// first traced episode (counts repeat exactly between episodes of one
/// seed), `t` holds the pooled span times, `overhead_pct` is the traced
/// slowdown.
pub fn layer_metrics(
    s: &Summary,
    stats: &KernelStats,
    t: &mut LayerTimes,
    overhead_pct: f64,
) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut add = |name: String, value: f64, unit: &'static str| m.push(metric(name, value, unit));
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let counter = |name: &str| stats.get(name).unwrap_or(0) as f64;

    for (name, layer) in [("hit", Layer::Hit), ("pagein", Layer::PageIn)] {
        let st = t.layer(layer);
        add(
            format!("core.access.{name}.calls"),
            st.calls as f64,
            "count",
        );
        add(
            format!("core.access.{name}.self_ns_p50"),
            st.p50_ns as f64,
            "ns",
        );
        add(
            format!("core.access.{name}.self_ns_p99"),
            st.p99_ns as f64,
            "ns",
        );
        add(format!("core.access.{name}.self_ms"), ms(st.total_ns), "ms");
    }
    let other = t.layer(Layer::OtherFault).calls as f64;
    add("core.access.other.calls".into(), other, "count");
    let errors = t.layer(Layer::AccessError).calls as f64;
    add("core.access.error.calls".into(), errors, "count");

    let (mut events, mut commands, mut faults, mut exec_ns) = (0, 0, 0, 0);
    for c in &stats.containers {
        events += c.events;
        commands += c.commands;
        faults += c.faults;
        exec_ns += c.ops.nonzero().map(|(_, _, t)| t.as_ns()).sum::<u64>();
    }
    let per_fault = commands as f64 / faults.max(1) as f64;
    add("core.executor.events".into(), events as f64, "count");
    add("core.executor.commands".into(), commands as f64, "count");
    add(
        "core.executor.commands_per_fault".into(),
        per_fault,
        "ratio",
    );
    add("core.executor.sim_ms".into(), ms(exec_ns), "sim_ms");

    let pump = t.layer(Layer::Pump);
    add("vm.pump.calls".into(), pump.calls as f64, "count");
    add("vm.pump.self_ns_p50".into(), pump.p50_ns as f64, "ns");
    add("vm.pump.self_ns_p99".into(), pump.p99_ns as f64, "ns");
    add("vm.pump.self_ms".into(), ms(pump.total_ns), "ms");
    for (name, key) in [
        ("vm.pump.budget_deferrals", "pump_budget_deferrals"),
        ("vm.pageout.pageouts", "pageouts"),
        ("vm.pageout.flush_completions", "flush_completions"),
        ("vm.pageout.flush_retries", "flush_retries"),
    ] {
        add(name.into(), counter(key), "count");
    }
    for id in 0..2u32 {
        let d = stats.device(id).copied().unwrap_or_default();
        for (name, v) in [
            ("reads", d.reads),
            ("writes", d.writes),
            ("torn_writes", d.torn_writes),
            ("breaker_trips", d.breaker_trips),
        ] {
            add(format!("disk.device.{id}.{name}"), v as f64, "count");
        }
    }

    for (name, v) in [
        ("calls", s.installs),
        ("admitted", s.admitted),
        ("throttled", s.throttled),
        ("over_share", s.over_share),
    ] {
        add(format!("core.admission.install.{name}"), v as f64, "count");
    }
    let install = t.layer(Layer::Install);
    add(
        "core.admission.install.self_us_p50".into(),
        us(install.p50_ns),
        "us",
    );
    for class in ShareClass::ALL {
        add(
            format!("core.admission.class.{}.sim_fault_p99_us", class.name()),
            us(s.class_p99_ns[class.index()]),
            "sim_us",
        );
    }

    let compile = t.layer(Layer::Compile);
    add("lang.compile.calls".into(), compile.calls as f64, "count");
    add("lang.compile.self_us_p50".into(), us(compile.p50_ns), "us");

    let per_ep = t.episodes.max(1);
    add(
        "core.trace.sink.calls".into(),
        (t.sink_calls / per_ep) as f64,
        "count",
    );
    add("core.trace.sink.bytes".into(), s.sink_bytes as f64, "bytes");
    add(
        "core.trace.sink.self_ms".into(),
        ms(t.sink_ns / per_ep),
        "ms",
    );
    add(
        "core.trace.dropped".into(),
        stats.dropped_records as f64,
        "count",
    );

    let scrape = t.layer(Layer::Scrape);
    add("core.obs.scrape.calls".into(), s.scrapes as f64, "count");
    add(
        "core.obs.scrape.self_us_p50".into(),
        us(scrape.p50_ns),
        "us",
    );
    add(
        "core.obs.export.bytes".into(),
        s.export_bytes as f64,
        "bytes",
    );

    add(
        "core.checker.wakeups".into(),
        counter("checker_wakeups"),
        "count",
    );
    let hist_ns = t.hist_ns as f64 / t.hist_records.max(1) as f64;
    add("sim.hist.record.ns_per_call".into(), hist_ns, "ns");
    add("bench.trace_overhead_pct".into(), overhead_pct, "%");
    m
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The result document's last line.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

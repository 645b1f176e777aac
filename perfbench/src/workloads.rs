//! The three workloads, each run as one *episode*: set-up (kernel boot,
//! device attach, policy compile and install, warm-up) followed by the
//! measured phase over the generated inputs. Every episode of one seed
//! does exactly the same simulated work, so its virtual-time results
//! repeat bit for bit and only host time varies between episodes.

use std::rc::Rc;
use std::time::Instant;

use hipec_core::{
    stats_export, AdmissionControl, HipecError, HipecKernel, JsonlSink, KernelStats, ShareClass,
    TraceSink,
};
use hipec_disk::{DeviceParams, FaultConfig};
use hipec_policies::PolicyKind;
use hipec_sim::{SimDuration, SimTime};
use hipec_vm::{AccessKind, DeviceId, KernelParams, TaskId, VAddr, PAGE_SIZE};

use crate::calib;
use crate::gen::{self, Op};
use crate::probe::{ByteCounter, Layer, Probe, SinkTally, Spans, TimedSink};

/// Seed of the default run, whose fingerprint is stored in `main.rs`.
pub const DEFAULT_SEED: u64 = 1;

/// Attempts per operation before it counts as failed. A client whose
/// access returns an error backs off and retries, as an application
/// would after a transient device error.
const MAX_ATTEMPTS: u32 = 8;
/// Virtual back-off a client waits before retrying a failed access.
const RETRY_BACKOFF: SimDuration = SimDuration::from_ms(5);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Join,
    KvZipf,
    TenantsStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Join, Workload::KvZipf, Workload::TenantsStorm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Join => "join",
            Workload::KvZipf => "kv_zipf",
            Workload::TenantsStorm => "tenants_storm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

const MB: u64 = 1024 * 1024;

/// §5.3 nested-loops join at the paper's 60 MB point: the outer table is
/// scanned once per 64-byte tuple of the 4 KB inner table.
pub mod join {
    use super::*;
    pub const OUTER_BYTES: u64 = 60 * MB;
    pub const POOL_BYTES: u64 = 40 * MB;
    pub const LOOPS: u64 = 4096 / 64;
    pub const TUPLE_BYTES: u64 = 64;
    pub const POLICY: PolicyKind = PolicyKind::FifoSecondChance;
}

/// Zipf key-value store under LRU on one healthy device.
pub mod kv {
    use super::*;
    pub const KEYS: u64 = 16 * 1024;
    pub const POOL: u64 = 7 * 1024;
    pub const OPS: u64 = 1_000_000;
    pub const ZIPF_S: f64 = 1.1;
    pub const PUT_PERMILLE: u64 = 200;
    pub const POLICY: PolicyKind = PolicyKind::Lru;
}

/// Multi-tenant consolidation with an all-torn, delayed storm device.
pub mod tenants {
    use super::*;
    pub const TENANTS: u64 = 96;
    pub const PAGES: u64 = 16;
    pub const POOL: u64 = 6;
    pub const OPS: u64 = 240_000;
    pub const ZIPF_S: f64 = 1.1;
    pub const WRITE_PERMILLE: u64 = 350;
    pub const BURST_BASE: u32 = 2;
    /// Virtual time between two `kernel_stats` + `stats_export` scrapes.
    pub const SCRAPE_EVERY: SimDuration = SimDuration::from_secs(10);

    pub fn params() -> KernelParams {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 2_048;
        p.wired_frames = 64;
        p.free_target = 96;
        p.free_min = 32;
        p.inactive_target = 128;
        p
    }

    /// Share class by index: the population splits evenly over the tiers.
    pub fn class_of(tenant: u64) -> ShareClass {
        ShareClass::ALL[(tenant % 3) as usize]
    }

    /// Policy by index, cycled over the classic replacement set.
    pub fn policy_of(tenant: u64) -> PolicyKind {
        const MIX: [PolicyKind; 4] = [
            PolicyKind::Lru,
            PolicyKind::Clock,
            PolicyKind::Fifo,
            PolicyKind::TwoQueue,
        ];
        MIX[(tenant / 3) as usize % MIX.len()]
    }

    /// Even tenants arrive at boot, odd ones as a mid-run second wave.
    pub fn wave_of(tenant: u64) -> u64 {
        tenant % 2
    }

    pub fn storm_plan(seed: u64) -> FaultConfig {
        FaultConfig {
            seed: gen::Rng::new(seed, 4).next_u64(),
            read_error_permille: 0,
            write_error_permille: 0,
            delay_permille: 400,
            max_delay: SimDuration::from_ms(40),
            torn_permille: 1000,
        }
    }
}

/// The generated inputs of one workload.
pub enum Inputs {
    Join,
    Kv(Vec<Op>),
    Tenants { ops: Vec<Op>, storm: FaultConfig },
}

impl Inputs {
    pub fn generate(w: Workload, seed: u64) -> Inputs {
        match w {
            Workload::Join => Inputs::Join,
            Workload::KvZipf => Inputs::Kv(gen::kv_ops(
                seed,
                1,
                kv::OPS,
                kv::KEYS,
                kv::ZIPF_S,
                kv::PUT_PERMILLE,
            )),
            Workload::TenantsStorm => Inputs::Tenants {
                ops: gen::tenant_ops(
                    seed,
                    tenants::OPS,
                    tenants::TENANTS,
                    tenants::PAGES,
                    tenants::ZIPF_S,
                    tenants::WRITE_PERMILLE,
                ),
                storm: tenants::storm_plan(seed),
            },
        }
    }

    /// Operations in the measured phase.
    pub fn ops(&self) -> u64 {
        match self {
            Inputs::Join => join::OUTER_BYTES / PAGE_SIZE * join::LOOPS,
            Inputs::Kv(ops) | Inputs::Tenants { ops, .. } => ops.len() as u64,
        }
    }

    /// Input sizes, for the run metadata.
    pub fn describe(&self) -> String {
        match self {
            Inputs::Join => format!(
                "{{\"outer_mb\":{},\"pool_mb\":{},\"scans\":{},\"accesses\":{}}}",
                join::OUTER_BYTES / MB,
                join::POOL_BYTES / MB,
                join::LOOPS,
                self.ops()
            ),
            Inputs::Kv(ops) => format!(
                "{{\"keys\":{},\"pool_frames\":{},\"ops\":{},\"zipf_s\":{},\"put_permille\":{}}}",
                kv::KEYS,
                kv::POOL,
                ops.len(),
                kv::ZIPF_S,
                kv::PUT_PERMILLE
            ),
            Inputs::Tenants { ops, .. } => format!(
                "{{\"tenants\":{},\"pages_per_tenant\":{},\"pool_per_tenant\":{},\"ops\":{},\"zipf_s\":{},\"write_permille\":{}}}",
                tenants::TENANTS,
                tenants::PAGES,
                tenants::POOL,
                ops.len(),
                tenants::ZIPF_S,
                tenants::WRITE_PERMILLE
            ),
        }
    }
}

/// FNV-1a over the virtual-time results observed through the API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }

    fn fold(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Bits of a fault sample that hold the service time (ns); the top two
/// hold the share class of the accessed region.
pub const NS_MASK: u64 = (1 << 62) - 1;

/// What the benchmark observed from outside the kernel during the
/// measured phase of one episode. The caller allocates it once, before
/// the resident-memory baseline, and recycles it between episodes.
#[derive(Debug, Clone)]
pub struct Observed {
    /// `access` calls made.
    pub accesses: u64,
    /// `access` calls that returned `Err`.
    pub errors: u64,
    /// Calls per returned kind: hit, minor fault, zero fill, page-in.
    pub kinds: [u64; 4],
    /// Operations issued and those that failed every attempt.
    pub ops: u64,
    pub failed_ops: u64,
    /// One sample per operation that did not hit on its first attempt:
    /// `class << 62 | service_ns`, where a failed operation's service
    /// time is `NS_MASK` (infinitely slow).
    pub faults: Vec<u64>,
    /// Installs attempted and admitted, over the whole episode.
    pub installs: u64,
    pub admitted: u64,
    /// Installs admission control turned away: throttled, over share.
    pub throttled: u64,
    pub over_share: u64,
    /// `stats_export` scrapes and the bytes they produced.
    pub scrapes: u64,
    pub export_bytes: u64,
}

impl Observed {
    /// Room for `ops` fault samples, touched so the memory is resident
    /// before the baseline is read.
    pub fn with_capacity(ops: u64) -> Self {
        let mut faults = vec![NS_MASK; ops as usize];
        faults.clear();
        Observed {
            accesses: 0,
            errors: 0,
            kinds: [0; 4],
            ops: 0,
            failed_ops: 0,
            faults,
            installs: 0,
            admitted: 0,
            throttled: 0,
            over_share: 0,
            scrapes: 0,
            export_bytes: 0,
        }
    }

    /// Forgets everything observed, keeping the sample buffer.
    pub fn reset(mut self) -> Self {
        let mut faults = std::mem::take(&mut self.faults);
        faults.clear();
        Observed {
            faults,
            ..Observed::with_capacity(0)
        }
    }

    /// Forgets the accesses observed so far (the warm-up), keeping the
    /// install counts.
    fn clear_accesses(&mut self) {
        let (installs, admitted) = (self.installs, self.admitted);
        *self = std::mem::replace(self, Observed::with_capacity(0)).reset();
        self.installs = installs;
        self.admitted = admitted;
    }

    fn sample(&mut self, class: ShareClass, ns: u64) {
        self.faults
            .push((class.index() as u64) << 62 | ns.min(NS_MASK));
    }
}

/// One episode's results.
pub struct Episode {
    pub setup: Setup,
    /// Host ns of each slice of the measured phase, and of the
    /// calibration loop run after it.
    pub slices: Vec<u64>,
    pub calib: Vec<u64>,
    pub obs: Observed,
    pub fingerprint: Fingerprint,
    /// Virtual time of the measured phase.
    pub sim_elapsed: SimDuration,
    /// Counter activity of the whole episode (a diff against boot).
    pub stats: KernelStats,
    /// Bytes the trace sink wrote.
    pub sink_bytes: u64,
    /// True when the kernel recorded latency histograms (the `metrics`
    /// feature) and trace records (the `trace` feature).
    pub metrics_on: bool,
    pub trace_on: bool,
    /// The executor backend the kernel dispatched to.
    pub backend: &'static str,
}

/// Host time of an episode's set-up, with the calibration loop run just
/// before and just after it.
pub struct Setup {
    pub ns: u64,
    pub calib_ns: [u64; 2],
}

impl Setup {
    fn end(start: Instant, calib_before: u64) -> Setup {
        let ns = start.elapsed().as_nanos() as u64;
        Setup {
            ns,
            calib_ns: [calib_before, calib::reference_loop_ns()],
        }
    }

    /// Set-up seconds at the reference host speed.
    pub fn normalized_s(&self) -> f64 {
        let loop_ns = (self.calib_ns[0] + self.calib_ns[1]) as f64 / 2.0;
        self.ns as f64 * calib::REF_NS / loop_ns / 1e9
    }
}

/// The kernel plus the benchmark's view of it.
struct Harness<'p, P: Probe> {
    k: HipecKernel,
    task: TaskId,
    probe: &'p mut P,
    obs: Observed,
    fp: Fingerprint,
}

fn kind_index(kind: AccessKind) -> usize {
    match kind {
        AccessKind::Hit => 0,
        AccessKind::MinorFault => 1,
        AccessKind::ZeroFill => 2,
        AccessKind::PageIn => 3,
    }
}

impl<P: Probe> Harness<'_, P> {
    fn now(&self) -> SimTime {
        self.k.vm.now()
    }

    fn pump(&mut self) {
        let m = self.probe.open();
        self.k.pump();
        self.probe.close(m, Layer::Pump);
    }

    fn compile(&mut self, kind: PolicyKind) -> hipec_core::PolicyProgram {
        let m = self.probe.open();
        let program = kind.program();
        self.probe.close(m, Layer::Compile);
        program
    }

    fn install(
        &mut self,
        class: Option<ShareClass>,
        device: DeviceId,
        pages: u64,
        kind: PolicyKind,
        pool: u64,
    ) -> Result<VAddr, HipecError> {
        let program = self.compile(kind);
        let bytes = pages * PAGE_SIZE;
        let m = self.probe.open();
        let r = match class {
            Some(class) => self
                .k
                .vm_map_hipec_as(class, device, self.task, bytes, program, pool),
            None => self.k.vm_map_hipec(self.task, bytes, program, pool),
        };
        self.probe.close(m, Layer::Install);
        self.obs.installs += 1;
        if r.is_ok() {
            self.obs.admitted += 1;
        }
        r.map(|(addr, _, _)| addr)
    }

    /// One operation: `access`, completing any page-in it started, and
    /// retrying after a back-off if it returns an error.
    fn op(&mut self, addr: VAddr, write: bool, class: ShareClass) {
        let first = self.now();
        self.obs.ops += 1;
        for attempt in 0..MAX_ATTEMPTS {
            let before = self.now();
            let m = self.probe.open();
            let r = self.k.access(self.task, addr, write);
            self.obs.accesses += 1;
            match r {
                Ok(res) => {
                    let i = kind_index(res.kind);
                    self.probe.close(
                        m,
                        match res.kind {
                            AccessKind::Hit => Layer::Hit,
                            AccessKind::PageIn => Layer::PageIn,
                            _ => Layer::OtherFault,
                        },
                    );
                    let end = res.io_until.unwrap_or_else(|| self.now());
                    self.fp.fold(i as u64);
                    self.fp.fold(end.since(before).as_ns());
                    self.obs.kinds[i] += 1;
                    if res.kind != AccessKind::Hit || attempt > 0 {
                        self.obs.sample(class, end.since(first).as_ns());
                    }
                    if let Some(done) = res.io_until {
                        self.k.vm.clock.advance_to(done);
                        self.pump();
                    }
                    return;
                }
                Err(_) => {
                    self.probe.close(m, Layer::AccessError);
                    self.obs.errors += 1;
                    self.fp.fold(0xFF);
                    self.fp.fold(self.now().since(before).as_ns());
                    self.k.charge(RETRY_BACKOFF);
                    self.pump();
                }
            }
        }
        self.obs.failed_ops += 1;
        self.obs.sample(class, NS_MASK);
    }

    fn scrape(&mut self) {
        let m = self.probe.open();
        let stats = self.k.kernel_stats();
        let text = stats_export(&stats);
        self.probe.close(m, Layer::Scrape);
        self.obs.scrapes += 1;
        self.obs.export_bytes += text.len() as u64;
        std::hint::black_box(text);
    }
}

/// One admission round of the tenants workload: each pending tenant
/// tries to install once. Throttled installs stay pending for the next
/// round; share-capped ones are dropped.
fn admission_round<P: Probe>(
    d: &mut Harness<P>,
    pending: &mut Vec<u64>,
    bases: &mut [Option<VAddr>],
    storm_dev: DeviceId,
) -> Result<(), String> {
    let mut still = Vec::new();
    for t in pending.drain(..) {
        let class = tenants::class_of(t);
        let dev = if class == ShareClass::Free {
            storm_dev
        } else {
            DeviceId(0)
        };
        match d.install(
            Some(class),
            dev,
            tenants::PAGES,
            tenants::policy_of(t),
            tenants::POOL,
        ) {
            Ok(base) => bases[t as usize] = Some(base),
            Err(HipecError::AdmissionRejected { throttled, .. }) => {
                if throttled {
                    still.push(t);
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    *pending = still;
    Ok(())
}

/// Attaches a `JsonlSink` over a byte-counting discard writer, timed when
/// `tally` is given, and returns the byte count.
fn attach_sink(k: &mut HipecKernel, tally: Option<Rc<SinkTally>>) -> ByteCounter {
    let bytes = ByteCounter::default();
    let sink = JsonlSink::new(bytes.clone());
    let boxed: Box<dyn TraceSink> = match tally {
        Some(tally) => Box::new(TimedSink { inner: sink, tally }),
        None => Box::new(sink),
    };
    k.set_sink(boxed);
    bytes
}

/// Runs one episode of `inputs` with `probe` (and `sink_tally`, when
/// the trace sink is to be timed).
pub fn run_episode<P: Probe>(
    w: Workload,
    inputs: &Inputs,
    probe: &mut P,
    sink_tally: Option<Rc<SinkTally>>,
    obs: Observed,
) -> Result<Episode, String> {
    let calib_before = calib::reference_loop_ns();
    let setup_start = Instant::now();
    let params = match w {
        Workload::TenantsStorm => tenants::params(),
        _ => KernelParams::paper_64mb(),
    };
    let mut k = HipecKernel::new(params);
    let boot = k.kernel_stats();
    let task = k.vm.create_task();
    let mut d = Harness {
        k,
        task,
        probe,
        obs,
        fp: Fingerprint::new(),
    };
    let mut sink = None;
    let err = |e: HipecError| e.to_string();

    let (laps, sim_elapsed, setup) = match inputs {
        Inputs::Join => {
            let outer_pages = join::OUTER_BYTES / PAGE_SIZE;
            let base = d
                .install(
                    None,
                    DeviceId(0),
                    outer_pages,
                    join::POLICY,
                    join::POOL_BYTES / PAGE_SIZE,
                )
                .map_err(err)?;
            let class = ShareClass::default();
            let setup = Setup::end(setup_start, calib_before);
            let compute =
                d.k.vm
                    .cost
                    .tuple_op
                    .saturating_mul(PAGE_SIZE / join::TUPLE_BYTES);
            let mut laps = Laps::start();
            let sim_start = d.now();
            for _ in 0..join::LOOPS {
                d.k.charge(d.k.vm.cost.mem_touch);
                for p in 0..outer_pages {
                    d.op(VAddr(base.0 + p * PAGE_SIZE), false, class);
                    d.k.charge(compute);
                }
                laps.lap();
            }
            d.pump();
            (laps, d.now().since(sim_start), setup)
        }
        Inputs::Kv(ops) => {
            let base = d
                .install(None, DeviceId(0), kv::KEYS, kv::POLICY, kv::POOL)
                .map_err(err)?;
            let class = ShareClass::default();
            let per_op = d.k.vm.cost.tuple_op.saturating_mul(4);
            // Warm-up: read the pool's worth of hottest keys once, so
            // the measured phase starts from a full pool.
            for rank in 0..kv::POOL {
                let page = gen::scatter(rank, kv::KEYS);
                d.op(VAddr(base.0 + page * PAGE_SIZE), false, class);
            }
            d.pump();
            d.obs.clear_accesses();
            let setup = Setup::end(setup_start, calib_before);
            let mut laps = Laps::start();
            let sim_start = d.now();
            for slice in ops.chunks(slice_len(ops)) {
                for op in slice {
                    d.op(VAddr(base.0 + op.page() * PAGE_SIZE), op.write(), class);
                    d.k.charge(per_op);
                    d.pump();
                }
                laps.lap();
            }
            (laps, d.now().since(sim_start), setup)
        }
        Inputs::Tenants { ops, storm } => {
            d.k.admission = AdmissionControl::enabled_with(tenants::BURST_BASE);
            let storm_dev = d.k.add_device(DeviceParams::default());
            d.k.vm.set_fault_plan_on(storm_dev, *storm);
            sink = Some(attach_sink(&mut d.k, sink_tally));
            let mut bases: Vec<Option<VAddr>> = vec![None; tenants::TENANTS as usize];
            let mut pending: Vec<u64> = (0..tenants::TENANTS)
                .filter(|&t| tenants::wave_of(t) == 0)
                .collect();
            let mut second: Vec<u64> = (0..tenants::TENANTS)
                .filter(|&t| tenants::wave_of(t) == 1)
                .collect();
            admission_round(&mut d, &mut pending, &mut bases, storm_dev)?;
            let setup = Setup::end(setup_start, calib_before);
            let per_op = d.k.vm.cost.tuple_op.saturating_mul(4);
            let mut laps = Laps::start();
            let sim_start = d.now();
            let mut next_scrape = sim_start;
            // One admission round per slice; the second wave arrives
            // halfway through.
            for (i, slice) in ops.chunks(slice_len(ops)).enumerate() {
                if i > 0 {
                    if i >= SLICES / 2 {
                        pending.append(&mut second);
                    }
                    admission_round(&mut d, &mut pending, &mut bases, storm_dev)?;
                }
                for op in slice {
                    let tenant = op.page() / tenants::PAGES;
                    if let Some(base) = bases[tenant as usize] {
                        let page = op.page() % tenants::PAGES;
                        d.op(
                            VAddr(base.0 + page * PAGE_SIZE),
                            op.write(),
                            tenants::class_of(tenant),
                        );
                        d.k.charge(per_op);
                        d.pump();
                    }
                    if d.now() >= next_scrape {
                        d.scrape();
                        next_scrape = d.now() + tenants::SCRAPE_EVERY;
                    }
                }
                laps.lap();
            }
            (laps, d.now().since(sim_start), setup)
        }
    };

    d.obs.throttled = d.k.admission.throttled.iter().sum();
    d.obs.over_share = d.k.admission.over_share.iter().sum();
    let final_clock = d.now();
    d.fp.fold(d.obs.errors);
    d.fp.fold(final_clock.as_ns());
    let sink_bytes = match sink {
        Some(bytes) => {
            d.k.take_sink();
            bytes.0.get()
        }
        None => 0,
    };
    let stats = d.k.kernel_stats().diff(&boot);
    let metrics_on = stats.latency.iter().any(|r| !r.hist.is_empty());
    let trace_on = !d.k.trace.is_empty() || sink_bytes > 0;
    Ok(Episode {
        backend: d.k.backend().name(),
        setup,
        slices: laps.ns,
        calib: laps.calib,
        fingerprint: d.fp,
        sim_elapsed,
        sink_bytes,
        stats,
        metrics_on,
        trace_on,
        obs: d.obs,
    })
}

/// Slices the measured phase is timed in: one per scan of the join, and
/// as many equal runs of operations for the other workloads. The same
/// slice of every episode does the same simulated work.
pub const SLICES: usize = 64;

fn slice_len(ops: &[Op]) -> usize {
    ops.len().div_ceil(SLICES).max(1)
}

/// Host-time laps over the slices of a measured phase, each followed by
/// one run of the calibration loop.
struct Laps {
    last: Instant,
    ns: Vec<u64>,
    calib: Vec<u64>,
}

impl Laps {
    fn start() -> Self {
        Laps {
            last: Instant::now(),
            ns: Vec::with_capacity(SLICES),
            calib: Vec::with_capacity(SLICES),
        }
    }

    fn lap(&mut self) {
        self.ns.push(self.last.elapsed().as_nanos() as u64);
        self.calib.push(calib::reference_loop_ns());
        self.last = Instant::now();
    }
}

/// Runs one traced episode.
pub fn run_traced(w: Workload, inputs: &Inputs, obs: Observed) -> Result<(Episode, Spans), String> {
    let mut spans = Spans::default();
    let tally = Rc::clone(&spans.sink);
    let ep = run_episode(w, inputs, &mut spans, Some(tally), obs)?;
    Ok((ep, spans))
}

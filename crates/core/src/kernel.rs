//! The HiPEC kernel: the modified Mach kernel of the paper.
//!
//! [`HipecKernel`] wraps the `hipec-vm` kernel and adds everything §4
//! describes: containers, the policy executor, the security checker and the
//! global frame manager. Non-specific applications run through
//! [`HipecKernel::access`] exactly as on plain Mach (plus the per-fault
//! region check the paper measures); specific applications install policies
//! with [`HipecKernel::vm_allocate_hipec`] / [`HipecKernel::vm_map_hipec`].

use hipec_disk::DeviceParams;
use hipec_sim::SimDuration;
#[cfg(feature = "trace")]
use hipec_vm::VmEvent;
use hipec_vm::{
    AccessOutcome, AccessResult, Backing, DeviceId, Kernel, KernelParams, ObjectId, TaskId, VAddr,
    VmCounter, VmError,
};

use crate::admission::{AdmissionControl, AdmitReject, ShareClass};
use crate::checker::{validate_program, SecurityChecker};
use crate::container::Container;
use crate::error::{HipecError, PolicyFault};
use crate::executor::{ExecBackend, ExecLimits, ExecValue};
use crate::health::{HealthPolicy, HealthState};
use crate::manager::GlobalFrameManager;
use crate::program::{PolicyProgram, EVENT_PAGE_FAULT};
use crate::trace::{EventRing, TraceEvent, DEFAULT_TRACE_CAPACITY};
#[cfg(feature = "trace")]
use crate::trace::{TraceRecord, TraceSink};

/// The handle an application receives when it invokes HiPEC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContainerKey(pub u32);

/// The modified (HiPEC) kernel.
pub struct HipecKernel {
    /// The underlying VM substrate (fault path, frame pool, paging device).
    pub vm: Kernel,
    /// All containers ever created (terminated ones stay for inspection).
    pub containers: Vec<Container>,
    /// The global frame manager state.
    pub gfm: GlobalFrameManager,
    /// The security checker.
    pub checker: SecurityChecker,
    /// Per-tenant admission control (weighted share classes and
    /// bursty-arrival throttling; disabled at boot — see
    /// [`crate::admission`]).
    pub admission: AdmissionControl,
    /// Thresholds of the container health state machine (quarantine and
    /// default-management fallback).
    pub health_policy: HealthPolicy,
    /// Rotating start of the restore-ramp scan: advances one container per
    /// health tick so concurrent ramps take turns at a tight free pool
    /// instead of lowest-id-wins (see [`HipecKernel::health_tick`]).
    pub(crate) ramp_cursor: usize,
    /// Executor fuel and nesting limits.
    pub limits: ExecLimits,
    /// Which executor backend `run_event` dispatches to (see
    /// [`ExecBackend`]); both observe the same accounting contract.
    pub(crate) backend: ExecBackend,
    /// Kernel-scope latency histograms (sampled opcode charges, checker
    /// interval, pump cadence); see [`crate::obs`].
    pub obs: crate::obs::ObsState,
    /// The merged kernel event trace (HiPEC layer + drained VM events).
    pub trace: EventRing<TraceEvent>,
    next_seq: u64,
    /// Call counter for sampled invariant audits (see `invariants`;
    /// `debug_check` is compiled out of release builds, as is this).
    #[cfg(debug_assertions)]
    pub(crate) check_tick: std::cell::Cell<u64>,
    /// Reused drain buffer so merging the VM ring never allocates in
    /// steady state.
    #[cfg(feature = "trace")]
    trace_scratch: Vec<TraceRecord<VmEvent>>,
    /// Streaming consumer of the merged trace, fed at every master-ring
    /// push so ring overwrites cannot lose history.
    #[cfg(feature = "trace")]
    sink: Option<Box<dyn TraceSink>>,
    /// Master-ring overwrites that happened while no sink was attached
    /// (the record was lost before any consumer saw it).
    #[cfg(feature = "trace")]
    unsunk_dropped: u64,
}

impl HipecKernel {
    /// Boots the modified kernel. `partition_burst` is set to 50 % of the
    /// free frames after startup (paper §4.3.1).
    pub fn new(params: KernelParams) -> Self {
        let mut vm = Kernel::new(params);
        vm.hipec_check_enabled = true;
        let burst = vm.free_count() / 2;
        HipecKernel {
            vm,
            containers: Vec::new(),
            gfm: GlobalFrameManager::new(burst),
            checker: SecurityChecker::new(),
            admission: AdmissionControl::default(),
            health_policy: HealthPolicy::default(),
            ramp_cursor: 0,
            limits: ExecLimits::default(),
            backend: ExecBackend::default(),
            obs: crate::obs::ObsState::default(),
            trace: EventRing::new(DEFAULT_TRACE_CAPACITY),
            next_seq: 0,
            #[cfg(debug_assertions)]
            check_tick: std::cell::Cell::new(0),
            #[cfg(feature = "trace")]
            trace_scratch: Vec::with_capacity(DEFAULT_TRACE_CAPACITY),
            #[cfg(feature = "trace")]
            sink: None,
            #[cfg(feature = "trace")]
            unsunk_dropped: 0,
        }
    }

    /// Pushes one record onto the master ring and forwards the stored copy
    /// to the attached sink, if any. Overwrites that no sink observed are
    /// tallied for [`HipecKernel::dropped_records`].
    #[cfg(feature = "trace")]
    fn push_master(&mut self, at: hipec_sim::SimTime, event: TraceEvent) {
        match self.sink.as_mut() {
            Some(sink) => {
                if let Some(rec) = self.trace.push(at, event) {
                    sink.record(&rec);
                }
            }
            None => {
                let before = self.trace.dropped();
                self.trace.push(at, event);
                self.unsunk_dropped += self.trace.dropped() - before;
            }
        }
    }

    /// Attaches a streaming trace sink, returning the previous one. The
    /// sink sees every record pushed onto the master ring from now on
    /// (attach before driving work to capture a complete trace). Pending
    /// VM-ring events are merged first so they are attributed to the old
    /// sink (or counted as unsunk), never delivered out of order.
    #[cfg(feature = "trace")]
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) -> Option<Box<dyn TraceSink>> {
        self.sync_trace();
        self.sink.replace(sink)
    }

    /// Detaches the current sink after merging any pending VM-ring events
    /// into it and flushing its buffered output.
    #[cfg(feature = "trace")]
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sync_trace();
        let mut sink = self.sink.take();
        if let Some(s) = sink.as_mut() {
            s.flush_sink();
        }
        sink
    }

    /// Trace records lost to ring overwrites before any consumer saw them.
    ///
    /// VM-ring overwrites always count (they happen before the merge);
    /// master-ring overwrites count only when they happened with no sink
    /// attached — with a sink, every record was already delivered when it
    /// was pushed, so the bounded ring is just a tail buffer. Surfaced as
    /// [`crate::KernelStats::dropped_records`].
    pub fn dropped_records(&self) -> u64 {
        #[cfg(feature = "trace")]
        {
            self.vm.trace.dropped() + self.unsunk_dropped
        }
        #[cfg(not(feature = "trace"))]
        {
            self.vm.trace.dropped() + self.trace.dropped()
        }
    }

    /// Records a HiPEC-layer trace event, first draining the VM substrate's
    /// ring so the merged trace stays in causal order. Free of clock
    /// charges; a no-op with the `trace` feature compiled out.
    #[inline]
    pub(crate) fn emit(&mut self, event: TraceEvent) {
        #[cfg(feature = "trace")]
        {
            self.sync_trace();
            self.push_master(self.vm.now(), event);
        }
        #[cfg(not(feature = "trace"))]
        let _ = event;
    }

    /// Moves any events the VM layer recorded since the last merge into the
    /// master trace (stamped with their original virtual times).
    pub fn sync_trace(&mut self) {
        #[cfg(feature = "trace")]
        {
            if self.vm.trace.is_empty() {
                return;
            }
            self.trace_scratch.clear();
            self.vm.trace.drain_into(&mut self.trace_scratch);
            // The scratch buffer cannot be borrowed while pushing; swap it
            // out so this stays allocation-free.
            let mut scratch = std::mem::take(&mut self.trace_scratch);
            for rec in &scratch {
                self.push_master(rec.at, TraceEvent::Vm(rec.event));
            }
            scratch.clear();
            self.trace_scratch = scratch;
        }
    }

    /// Turns event recording on or off at run time for both layers.
    /// Recording state never affects simulation behavior.
    pub fn set_tracing(&mut self, on: bool) {
        self.trace.set_enabled(on);
        self.vm.trace.set_enabled(on);
    }

    /// The newest `n` trace events rendered one per line (oldest first) —
    /// appended to invariant-violation reports. VM-ring events not yet
    /// merged into the master ring (merging needs `&mut self`) are all
    /// newer than the master's contents, so they render after it.
    pub fn trace_tail(&self, n: usize) -> String {
        let mut out = crate::trace::render_tail(&self.trace, n);
        let pending = self.vm.trace.len();
        for rec in self.vm.trace.iter().skip(pending.saturating_sub(n)) {
            out.push_str(&format!(
                "    [{:>6}] {} vm: {:?}\n",
                rec.seq, rec.at, rec.event
            ));
        }
        out
    }

    /// Registers an additional backing device and returns its id. Regions
    /// bind to a device at setup time via the `_on` variants; device 0 (the
    /// boot paging device) always exists and backs everything else.
    pub fn add_device(&mut self, params: DeviceParams) -> DeviceId {
        self.vm.add_device(params)
    }

    /// Hot-unplugs a backing device (see [`hipec_vm::Kernel::remove_device`]):
    /// every object it backs re-binds to the returned survivor and the
    /// drain completes as the pump runs. HiPEC containers are unaffected
    /// except that their health machinery now gates restores on the
    /// survivor's breaker, since `device_of` follows the re-bind.
    pub fn remove_device(&mut self, dev: DeviceId) -> Result<DeviceId, HipecError> {
        let survivor = self.vm.remove_device(dev)?;
        self.sync_trace();
        self.debug_check();
        Ok(survivor)
    }

    /// Re-binds one object to another Active device, queueing backing-page
    /// copies (see [`hipec_vm::Kernel::migrate_object`]).
    pub fn migrate_object(&mut self, object: ObjectId, to: DeviceId) -> Result<u64, HipecError> {
        let pages = self.vm.migrate_object(object, to)?;
        self.sync_trace();
        self.debug_check();
        Ok(pages)
    }

    /// Fault-rate-driven hot/cold rebalancing across storage tiers (see
    /// [`hipec_vm::Kernel::rebalance_tiers`]).
    pub fn rebalance_tiers(&mut self, hot_threshold: u64) -> (u64, u64) {
        let moved = self.vm.rebalance_tiers(hot_threshold);
        self.sync_trace();
        self.debug_check();
        moved
    }

    /// `vm_allocate_hipec`: an anonymous region under the given policy,
    /// paging against the boot device.
    pub fn vm_allocate_hipec(
        &mut self,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region(
            DeviceId(0),
            task,
            bytes,
            program,
            min_frames,
            Backing::Anonymous,
        )
    }

    /// `vm_allocate_hipec` with an explicit backing device.
    pub fn vm_allocate_hipec_on(
        &mut self,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region(device, task, bytes, program, min_frames, Backing::Anonymous)
    }

    /// `vm_map_hipec`: a file-backed region under the given policy, paging
    /// against the boot device.
    pub fn vm_map_hipec(
        &mut self,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region(DeviceId(0), task, bytes, program, min_frames, Backing::File)
    }

    /// `vm_map_hipec` with an explicit backing device.
    pub fn vm_map_hipec_on(
        &mut self,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region(device, task, bytes, program, min_frames, Backing::File)
    }

    /// `vm_allocate_hipec` under an explicit share class and backing
    /// device — the multi-tenant entry point admission control meters.
    pub fn vm_allocate_hipec_as(
        &mut self,
        share: ShareClass,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region_as(
            share,
            device,
            task,
            bytes,
            program,
            min_frames,
            Backing::Anonymous,
        )
    }

    /// `vm_map_hipec` under an explicit share class and backing device.
    pub fn vm_map_hipec_as(
        &mut self,
        share: ShareClass,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region_as(
            share,
            device,
            task,
            bytes,
            program,
            min_frames,
            Backing::File,
        )
    }

    fn setup_hipec_region(
        &mut self,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
        backing: Backing,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        self.setup_hipec_region_as(
            ShareClass::default(),
            device,
            task,
            bytes,
            program,
            min_frames,
            backing,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn setup_hipec_region_as(
        &mut self,
        share: ShareClass,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
        program: PolicyProgram,
        min_frames: u64,
        backing: Backing,
    ) -> Result<(VAddr, ObjectId, ContainerKey), HipecError> {
        // The security checker validates the command buffer before the
        // container is mounted (paper §4.3).
        if let Err(report) = validate_program(&program) {
            return Err(HipecError::InvalidProgram(report.join("; ")));
        }
        // Per-tenant admission: the weighted share cap and the
        // bursty-arrival throttle run before any frame moves, so a
        // rejected install leaves no kernel state behind.
        let class_frames: u64 = self
            .containers
            .iter()
            .filter(|c| !c.terminated && c.share == share)
            .map(|c| c.allocated)
            .sum();
        if let Err(why) =
            self.admission
                .admit(share, min_frames, class_frames, self.gfm.partition_burst)
        {
            let throttled = why == AdmitReject::Throttled;
            self.vm.stats.bump(VmCounter::AdmissionRejects);
            self.emit(TraceEvent::AdmissionRejected {
                class: share.index() as u8,
                asked: min_frames,
                throttled,
            });
            return Err(HipecError::AdmissionRejected {
                class: share.name(),
                throttled,
            });
        }
        // minFrame admission: reclaim from existing containers if the free
        // pool alone cannot cover the request.
        let frames = self.admit_frames(min_frames)?;

        let pages = hipec_vm::bytes_to_pages(bytes);
        let object = self.vm.create_object_on(device, pages, backing)?;
        let addr = self.vm.map_object(task, object, 0, pages)?;
        let key = self.containers.len() as u32;
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut container =
            Container::new(key, object, task, program, min_frames, seq, &mut self.vm);
        container.share = share;
        for f in frames {
            self.vm
                .frames
                .enqueue_tail(container.free_q, f)
                .map_err(HipecError::Vm)?;
        }
        container.allocated = min_frames;
        self.gfm.total_specific += min_frames;
        self.vm.object_mut(object)?.container = Some(key);
        self.containers.push(container);
        // Installing the policy costs one system call.
        self.vm.charge(self.vm.cost.null_syscall);
        self.vm.stats.bump(VmCounter::HipecInstalls);
        self.emit(TraceEvent::Install {
            container: key,
            min_frames,
        });
        self.debug_check();
        Ok((addr, object, ContainerKey(key)))
    }

    /// Performs one memory access, resolving HiPEC faults via the policy
    /// executor.
    pub fn access(
        &mut self,
        task: TaskId,
        addr: VAddr,
        write: bool,
    ) -> Result<AccessResult, HipecError> {
        self.poll_checker();
        let result = match self.vm.access(task, addr, write) {
            Ok(AccessOutcome::Done(r)) => Ok(r),
            Ok(AccessOutcome::NeedsPolicy(info)) => self.policy_fault(info),
            Err(e) => Err(e.into()),
        };
        self.sync_trace();
        self.debug_check();
        result
    }

    fn policy_fault(
        &mut self,
        info: hipec_vm::PolicyFaultInfo,
    ) -> Result<AccessResult, HipecError> {
        let cidx = info.container as usize;
        let container = self
            .containers
            .get(cidx)
            .ok_or(HipecError::NoSuchContainer(info.container))?;
        if container.terminated {
            return Err(HipecError::Terminated {
                container: info.container,
                reason: "already terminated".into(),
            });
        }
        // Invoke the policy executor: container lookup, operand binding,
        // start timestamp (inspected by the checker).
        self.vm.charge(self.vm.cost.executor_invoke);
        let fault_start = self.vm.now();
        self.containers[cidx].exec_started = Some(fault_start);
        let mut fuel = self.limits.fuel;
        let outcome = self.run_event(cidx, EVENT_PAGE_FAULT, 0, &mut fuel);
        match outcome {
            Ok(ExecValue::Page(frame)) => {
                self.containers[cidx].exec_started = None;
                self.containers[cidx].stats.faults += 1;
                // Defensive checks on the returned frame: it must be clean
                // and evicted, and must not linger on the free queue.
                let free_q = self.containers[cidx].free_q;
                if self.vm.frames.queue_of(frame)? == Some(free_q) {
                    self.vm.frames.remove(frame)?;
                }
                if self.vm.frames.frame(frame)?.owner.is_some() {
                    return Err(self.kill(cidx, "PageFault returned an owned page"));
                }
                let result = match self.vm.complete_policy_fault(info, frame) {
                    Ok(r) => r,
                    Err(VmError::Device(d)) => {
                        // Environmental failure while filling the frame: the
                        // policy's frame goes back to its free queue (it is
                        // still the container's) and the fault is surfaced
                        // without terminating the application.
                        let _ = self.vm.frames.enqueue_tail(free_q, frame);
                        self.note_strike(cidx);
                        return Err(HipecError::Vm(VmError::Device(d)));
                    }
                    Err(e) => return Err(e.into()),
                };
                let end = result.io_until.unwrap_or_else(|| self.vm.now());
                let latency = end.since(fault_start);
                self.vm.fault_latency.record(latency);
                #[cfg(feature = "metrics")]
                self.containers[cidx].lat_fault.record(latency);
                #[cfg(feature = "metrics")]
                self.obs.class_fault[self.containers[cidx].share.index()].record(latency);
                self.emit(TraceEvent::PolicyFaultResolved {
                    container: info.container,
                    frame,
                    latency,
                });
                Ok(result)
            }
            Ok(_) => Err(self.kill(cidx, &PolicyFault::NoPageReturned.to_string())),
            Err(PolicyFault::OutOfFuel) => {
                // A runaway policy: the executor is stuck until the security
                // checker's timeout detection terminates the application.
                // Model the detection latency by running the checker forward.
                let reason = self.detect_runaway(cidx);
                Err(reason)
            }
            Err(PolicyFault::Device(d)) => {
                // Environmental device failure mid-policy: abort the event
                // without killing the application (the page stays faulted;
                // the access can be retried).
                self.containers[cidx].exec_started = None;
                self.note_strike(cidx);
                Err(HipecError::Vm(VmError::Device(d)))
            }
            Err(_) if self.containers[cidx].health.state != HealthState::Healthy => {
                // A policy that wedges while already degraded by
                // environmental faults (its free queue empties when the
                // breaker refuses its flushes) is collateral damage, not
                // misbehavior: quarantine it into default management,
                // mirroring the checker's timeout handling. The faulted
                // access retries through the default pageout path.
                self.quarantine(cidx);
                Err(HipecError::Quarantined {
                    container: self.containers[cidx].key,
                })
            }
            Err(fault) => Err(self.kill(cidx, &fault.to_string())),
        }
    }

    /// Terminates a container: reclaims every frame it holds and reverts its
    /// region to default management.
    pub(crate) fn kill(&mut self, cidx: usize, reason: &str) -> HipecError {
        self.containers[cidx].terminated = true;
        self.containers[cidx].exec_started = None;
        let _ = self.reclaim_all_frames(cidx);
        let object = self.containers[cidx].object;
        if let Ok(obj) = self.vm.object_mut(object) {
            obj.container = None;
        }
        self.revert_stranded_frames(cidx);
        self.vm.stats.bump(VmCounter::HipecKills);
        self.emit(TraceEvent::Terminated {
            container: self.containers[cidx].key,
            graceful: false,
        });
        HipecError::Terminated {
            container: self.containers[cidx].key,
            reason: reason.to_string(),
        }
    }

    /// Advances the security checker until it detects the runaway policy in
    /// `cidx`, then terminates the application. Returns the termination
    /// error (carrying the detection latency in its reason).
    fn detect_runaway(&mut self, cidx: usize) -> HipecError {
        let started = self.containers[cidx]
            .exec_started
            .expect("runaway policies have a start stamp");
        // The checker only acts on executions older than the timeout
        // period; step wakeup by wakeup until it does. A degraded container
        // is quarantined rather than killed, so stop on either outcome.
        let mut guard = 0;
        while !self.containers[cidx].terminated
            && self.containers[cidx].health.state != HealthState::Quarantined
        {
            let next = self.checker.next_wakeup;
            self.vm.clock.advance_to(next);
            self.poll_checker();
            guard += 1;
            if guard > 10_000 {
                // Unreachable by construction; fail closed rather than hang.
                let _ = self.kill(cidx, "runaway (checker fallback)");
                break;
            }
        }
        if self.containers[cidx].health.state == HealthState::Quarantined {
            return HipecError::Quarantined {
                container: self.containers[cidx].key,
            };
        }
        let latency = self.vm.now().since(started);
        HipecError::Terminated {
            container: self.containers[cidx].key,
            reason: format!("policy execution timeout detected after {latency}"),
        }
    }

    /// Runs the security checker if its wakeup time has passed.
    pub fn poll_checker(&mut self) {
        while self.vm.now() >= self.checker.next_wakeup {
            self.checker_wakeup();
        }
    }

    /// Total frames currently allocated to specific applications.
    pub fn specific_total(&self) -> u64 {
        self.gfm.total_specific
    }

    /// Convenience: access and, if the access started device I/O, advance
    /// the clock to its completion (single-job drivers).
    pub fn access_sync(
        &mut self,
        task: TaskId,
        addr: VAddr,
        write: bool,
    ) -> Result<AccessResult, HipecError> {
        let r = self.access(task, addr, write)?;
        if let Some(done) = r.io_until {
            self.vm.clock.advance_to(done);
            self.pump();
        }
        Ok(r)
    }

    /// Completes due device I/O (a [`hipec_vm::Kernel::pump`] that also runs
    /// the debug-build invariant audit), then attributes any abandoned
    /// write-backs: a flush whose retry budget ran out lost its page's
    /// data, and the owning container gets a surfaced
    /// [`PolicyFault::Device`] it can drain via
    /// [`HipecKernel::take_surfaced_faults`].
    pub fn pump(&mut self) {
        // The pump itself advances no virtual time, so the observable
        // latency dimension is its cadence: the span since the last pump.
        // Same-instant re-pumps (common when callers pump defensively
        // inside one access) carry no cadence information, so only spans
        // that advanced virtual time are recorded — this also keeps the
        // hot loop's recording cost proportional to time, not call count.
        #[cfg(feature = "metrics")]
        {
            let now = self.vm.now();
            match self.obs.last_pump {
                Some(last) if now > last => {
                    self.obs.pump_drain.record(now.since(last));
                    self.obs.last_pump = Some(now);
                }
                Some(_) => {}
                None => self.obs.last_pump = Some(now),
            }
        }
        self.vm.pump();
        for dead in self.vm.take_dead_flushes() {
            let owner = self
                .vm
                .object(dead.object)
                .ok()
                .and_then(|o| o.container)
                .map(|key| key as usize)
                .filter(|&i| i < self.containers.len())
                .or_else(|| {
                    // A quarantined container is unlinked from its object
                    // (default management owns the region) but not dead:
                    // data lost to its write-backs still belongs to it and
                    // must be drainable after restore. Terminated
                    // containers stay unattributed.
                    self.containers
                        .iter()
                        .position(|c| c.object == dead.object && !c.terminated)
                });
            if let Some(i) = owner {
                self.containers[i].stats.device_faults += 1;
                // Bounded: a pathological device cannot grow this without
                // the application ever draining it.
                if self.containers[i].pending_faults.len() < 64 {
                    self.containers[i]
                        .pending_faults
                        .push(PolicyFault::Device(dead.fault));
                }
                self.emit(TraceEvent::DeviceFaultSurfaced {
                    container: self.containers[i].key,
                    frame: dead.frame,
                });
                // Abandoned write-backs are health strikes: enough of them
                // quarantines the container into default management.
                self.note_strike(i);
            }
        }
        self.sync_trace();
        self.debug_check();
    }

    /// Drains the device faults surfaced to container `key` (data lost to
    /// abandoned write-backs) since the last call.
    pub fn take_surfaced_faults(&mut self, key: ContainerKey) -> Vec<PolicyFault> {
        self.containers
            .get_mut(key.0 as usize)
            .map(|c| std::mem::take(&mut c.pending_faults))
            .unwrap_or_default()
    }

    /// Reclaims up to `want` frames from specific applications (normal
    /// FAFR reclamation first, then forced). Returns the number reclaimed.
    ///
    /// Public wrapper over the global frame manager's reclamation path for
    /// drivers and tests; the kernel itself triggers it from admission and
    /// balance checks.
    pub fn reclaim_frames(&mut self, want: u64) -> u64 {
        let got = self.reclaim_specific(want);
        self.debug_check();
        got
    }

    /// A container view by key.
    pub fn container(&self, key: ContainerKey) -> Result<&Container, HipecError> {
        self.containers
            .get(key.0 as usize)
            .ok_or(HipecError::NoSuchContainer(key.0))
    }

    /// `vm_deallocate_hipec`: tears down a HiPEC region (paper §4.3.1,
    /// deallocation trigger 1: "when their VM region is deallocated").
    ///
    /// Every frame the container holds — queued, resident or parked in an
    /// operand slot — returns to the global pool (dirty contents are
    /// discarded with the region), the container is retired gracefully
    /// (it does not count as a kill) and the address range is unmapped.
    pub fn vm_deallocate_hipec(
        &mut self,
        task: TaskId,
        addr: VAddr,
        key: ContainerKey,
    ) -> Result<u64, HipecError> {
        let cidx = key.0 as usize;
        if cidx >= self.containers.len() {
            return Err(HipecError::NoSuchContainer(key.0));
        }
        // Contents are being destroyed: clear modify bits so the sweep
        // frees instead of flushing.
        let queues = self.containers[cidx].queues.clone();
        for q in queues {
            let members: Vec<_> = self.vm.frames.iter_queue(q).collect();
            for f in members {
                self.vm.frames.frame_mut(f)?.mod_bit = false;
            }
        }
        let parked: Vec<_> = self.containers[cidx]
            .operands
            .iter()
            .filter_map(|slot| match slot {
                crate::operand::OperandSlot::Page(Some(f)) => Some(*f),
                _ => None,
            })
            .collect();
        for f in parked {
            self.vm.frames.frame_mut(f)?.mod_bit = false;
        }
        let reclaimed = self.reclaim_all_frames(cidx);
        self.containers[cidx].terminated = true;
        self.containers[cidx].exec_started = None;
        let object = self.containers[cidx].object;
        self.vm.object_mut(object)?.container = None;
        self.revert_stranded_frames(cidx);
        let freed = self.vm.vm_deallocate(task, addr)?;
        self.vm.stats.bump(VmCounter::HipecDeallocations);
        self.emit(TraceEvent::Terminated {
            container: key.0,
            graceful: true,
        });
        self.debug_check();
        Ok(reclaimed + freed)
    }

    /// Runs one event of `key`'s policy outside the fault path.
    ///
    /// Measurement hook: benchmarks and tests use it to drive the
    /// interpreter's fetch/decode/dispatch loop in isolation. The event
    /// executes with a fresh fuel budget; faults are returned, not killed.
    pub fn run_event_raw(
        &mut self,
        key: ContainerKey,
        event: u8,
    ) -> Result<ExecValue, PolicyFault> {
        if self
            .containers
            .get(key.0 as usize)
            .is_some_and(|c| c.health.quarantined())
        {
            return Err(PolicyFault::Quarantined);
        }
        let mut fuel = self.limits.fuel;
        let result = self.run_event(key.0 as usize, event, 0, &mut fuel);
        self.sync_trace();
        self.debug_check();
        result
    }

    /// The executor backend events currently dispatch to.
    pub fn backend(&self) -> ExecBackend {
        self.backend
    }

    /// Selects the executor backend. Takes effect on the next event; both
    /// backends are bit-identical in virtual time, traces and faults, so
    /// switching mid-run never changes simulation results — only how much
    /// host CPU the dispatch burns.
    pub fn set_backend(&mut self, backend: ExecBackend) {
        self.backend = backend;
    }

    /// Charges the cost of one null syscall (used by comparison harnesses).
    pub fn charge_syscall(&mut self) {
        self.vm.charge(self.vm.cost.null_syscall);
    }

    /// Charges an arbitrary CPU cost (workload compute time).
    pub fn charge(&mut self, d: SimDuration) {
        self.vm.charge(d);
    }
}

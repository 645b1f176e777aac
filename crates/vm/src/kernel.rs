//! The simulated Mach kernel: fault path, frame pool and syscalls.
//!
//! [`Kernel`] owns the virtual clock, the frame table, all tasks and memory
//! objects, the paging device and the global page queues. Running it alone
//! gives the *unmodified Mach kernel* baseline of the paper's experiments;
//! `hipec-core` layers containers, the policy executor, the security checker
//! and the global frame manager on top of the hooks exposed here
//! ([`AccessOutcome::NeedsPolicy`], [`Kernel::complete_policy_fault`],
//! [`Kernel::take_free_frames`], …).

use hipec_disk::{DeviceParams, DiskFault, FaultConfig, PagingDevice, PhasedFaultConfig};
use hipec_sim::stats::Histogram;
use hipec_sim::{CostModel, SimDuration, SimTime, VirtualClock};

use crate::breaker::{BreakerTransition, CircuitBreaker};
use crate::counters::{VmCounter, VmStats};
use crate::device::BackingDevice;
use crate::frame::{FrameTable, QueueId};
use crate::object::{Backing, VmObject};
use crate::task::Task;
use crate::trace::{EventRing, VmEvent, DEFAULT_TRACE_CAPACITY};
use crate::types::{
    bytes_to_pages, DeviceId, FrameId, ObjectId, PageOffset, TaskId, VAddr, VmError,
};

/// Static configuration of a simulated machine.
#[derive(Debug, Clone)]
pub struct KernelParams {
    /// Physical frames (64 MB ⇒ 16 384).
    pub total_frames: u32,
    /// Frames permanently wired for kernel text/data.
    pub wired_frames: u32,
    /// The pageout daemon refills the free queue to this level.
    pub free_target: u64,
    /// A fault that finds fewer free frames than this triggers the daemon.
    pub free_min: u64,
    /// The daemon keeps this many pages on the inactive queue.
    pub inactive_target: u64,
    /// Paging-device kind and geometry.
    pub disk: DeviceParams,
    /// Virtual-time cost constants.
    pub cost: CostModel,
}

impl KernelParams {
    /// The paper's Acer Altos 10000: 64 MB of memory, 1994 SCSI paging disk.
    pub fn paper_64mb() -> Self {
        KernelParams {
            total_frames: 16_384,
            wired_frames: 1_024,
            free_target: 256,
            free_min: 64,
            inactive_target: 1_024,
            disk: DeviceParams::Disk(hipec_disk::DiskParams::paper_scsi()),
            cost: CostModel::acer_altos_486(),
        }
    }

    /// The paper machine, paging against the §6 flash extension instead of
    /// the disk.
    pub fn paper_64mb_flash() -> Self {
        let mut p = KernelParams::paper_64mb();
        p.disk = DeviceParams::Flash(hipec_disk::FlashParams::early_flash_card());
        p
    }

    /// A machine with exactly `pageable` pageable frames (plus wired kernel
    /// overhead), for experiments that constrain resident-set size.
    pub fn with_pageable_frames(pageable: u32) -> Self {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = pageable + p.wired_frames;
        p
    }
}

impl Default for KernelParams {
    fn default() -> Self {
        KernelParams::paper_64mb()
    }
}

/// How an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Translation present; no fault.
    Hit,
    /// Page was resident but unmapped in this task.
    MinorFault,
    /// Fresh anonymous page, zero-filled.
    ZeroFill,
    /// Page read from the paging device.
    PageIn,
}

/// The result of a completed access.
#[derive(Debug, Clone, Copy)]
pub struct AccessResult {
    /// How the access resolved.
    pub kind: AccessKind,
    /// If the access started a device read, the completion instant. The
    /// kernel does **not** advance its clock to this time — single-job
    /// drivers fast-forward, multi-job drivers overlap other work.
    pub io_until: Option<SimTime>,
}

/// A fault inside a HiPEC-controlled region, to be resolved by the policy
/// executor in `hipec-core`.
#[derive(Debug, Clone, Copy)]
pub struct PolicyFaultInfo {
    /// Faulting task.
    pub task: TaskId,
    /// Faulting virtual page.
    pub vpage: u64,
    /// Backing object.
    pub object: ObjectId,
    /// Page within the object.
    pub offset: PageOffset,
    /// True for write accesses.
    pub write: bool,
    /// The container key attached to the object.
    pub container: u32,
}

/// Outcome of [`Kernel::access`].
#[derive(Debug, Clone, Copy)]
pub enum AccessOutcome {
    /// The kernel resolved the access.
    Done(AccessResult),
    /// The page belongs to a HiPEC region; the caller must run the policy
    /// and then call [`Kernel::complete_policy_fault`].
    NeedsPolicy(PolicyFaultInfo),
}

/// A dirty page in flight to the paging device.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightFlush {
    pub done: SimTime,
    pub frame: FrameId,
    /// The device reported the write torn; it is re-issued when reaped.
    pub torn: bool,
    /// Write submissions so far (the initial one counts).
    pub attempts: u8,
    /// The draining device this flush was re-homed from, if any. Re-homed
    /// flushes carry drained data and are exempt from the retry budget.
    pub rehomed_from: Option<DeviceId>,
}

/// Retry-queue tag: the frame being re-flushed and how many submissions it
/// has burned so far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryTag {
    /// The busy frame awaiting a successful write-back.
    pub frame: FrameId,
    /// Write submissions so far.
    pub attempts: u8,
    /// The draining (or dead) device this retry was re-homed from, if any.
    /// Re-homed retries carry the drained page's only copy, so they are
    /// exempt from [`Kernel::flush_retry_budget`] — they re-queue until
    /// the surviving device accepts the write.
    pub rehomed_from: Option<DeviceId>,
}

/// The submission allowance of one [`Kernel::pump`] call, shared by every
/// device's full-speed re-issue and migration loops (see
/// [`Kernel::pump_submit_budget`]). Tracks how many parked submissions the
/// exhausted budget left waiting, for the deferral stat and trace event.
pub(crate) struct PumpBudget {
    /// Submissions remaining in this pump call.
    pub(crate) left: u32,
    /// Parked entries a submission loop walked away from because the
    /// budget ran out (they stay queued for the next pump call).
    pub(crate) deferred: u64,
}

/// A write-back that exhausted its retry budget: the page's data is lost.
///
/// The frame has already been freed; the HiPEC layer drains these via
/// [`Kernel::take_dead_flushes`] and surfaces a device fault to the owning
/// container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadFlush {
    /// The device whose faults exhausted the budget.
    pub device: DeviceId,
    /// The frame that was carrying the page (already back on the free queue).
    pub frame: FrameId,
    /// The object the page belonged to.
    pub object: ObjectId,
    /// The page within the object.
    pub offset: PageOffset,
    /// The fault that exhausted the budget.
    pub fault: DiskFault,
}

/// The simulated kernel.
pub struct Kernel {
    /// The virtual clock; advanced by every charged operation.
    pub clock: VirtualClock,
    /// Cost constants.
    pub cost: CostModel,
    /// The frame table and all page queues.
    pub frames: FrameTable,
    /// Global free queue.
    pub free_q: QueueId,
    /// Global active queue (default-pool pages).
    pub active_q: QueueId,
    /// Global inactive queue.
    pub inactive_q: QueueId,
    /// When true, every fault pays the HiPEC region check the paper adds to
    /// the fault handler (set by the HiPEC kernel wrapper).
    pub hipec_check_enabled: bool,
    /// Event counters.
    pub stats: VmStats,
    /// Latency distribution of completed faults (trap to resolution,
    /// including any device wait).
    pub fault_latency: Histogram,
    /// Structured event trace of the VM layer (virtual-time stamped; see
    /// [`crate::trace`]). Recording is free of clock charges, so it never
    /// perturbs the simulation.
    pub trace: EventRing<VmEvent>,
    /// Write submissions a single dirty page may burn (initial + retries)
    /// before its flush is abandoned and surfaced as a [`DeadFlush`].
    pub flush_retry_budget: u8,
    /// Write submissions (torn-retry re-issues plus migration copies) one
    /// [`Kernel::pump`] call may make across the whole device table. Reaps
    /// are never budgeted — claiming a due completion is always pure
    /// progress — and neither are degraded probes, which the breaker
    /// already gates to a bounded burst per backoff window. The budget
    /// bounds only the full-speed submission loops, so a device with
    /// thousands of parked writes spreads them over several pump calls
    /// instead of monopolising one.
    pub pump_submit_budget: u32,
    pub(crate) objects: Vec<VmObject>,
    pub(crate) tasks: Vec<Task>,
    /// The backing-device table. Entry 0 is built from
    /// [`KernelParams::disk`] and always exists; further entries are added
    /// with [`Kernel::add_device`]. Each entry owns its paging device,
    /// extent map, circuit breaker, in-flight list and retry queue.
    pub(crate) devices: Vec<BackingDevice>,
    pub(crate) dead_flushes: Vec<DeadFlush>,
    pub(crate) free_target: u64,
    pub(crate) free_min: u64,
    pub(crate) inactive_target: u64,
}

impl Kernel {
    /// Boots a machine: wires the kernel's frames, frees the rest.
    pub fn new(params: KernelParams) -> Self {
        let mut frames = FrameTable::new(params.total_frames);
        let free_q = frames.new_queue(false);
        let active_q = frames.new_queue(false);
        let inactive_q = frames.new_queue(false);
        for i in 0..params.total_frames {
            if i < params.wired_frames {
                frames.frame_mut(FrameId(i)).expect("frame exists").wired = true;
            } else {
                frames
                    .enqueue_tail(free_q, FrameId(i))
                    .expect("fresh frame is unqueued");
            }
        }
        let devices = vec![BackingDevice::new(DeviceId(0), &params.disk)];
        Kernel {
            clock: VirtualClock::new(),
            cost: params.cost,
            frames,
            free_q,
            active_q,
            inactive_q,
            hipec_check_enabled: false,
            stats: VmStats::default(),
            fault_latency: Histogram::new(),
            trace: EventRing::new(DEFAULT_TRACE_CAPACITY),
            flush_retry_budget: 8,
            pump_submit_budget: 64,
            objects: Vec::new(),
            tasks: Vec::new(),
            devices,
            dead_flushes: Vec::new(),
            free_target: params.free_target,
            free_min: params.free_min,
            inactive_target: params.inactive_target,
        }
    }

    /// Adds a backing device to the table, returning its id. Regions bind
    /// to it via [`Kernel::create_object_on`].
    pub fn add_device(&mut self, params: DeviceParams) -> DeviceId {
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(BackingDevice::new(id, &params));
        id
    }

    /// Number of configured backing devices (≥ 1).
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// The device table, in id order (for audits and metrics snapshots).
    pub fn devices_iter(&self) -> impl Iterator<Item = &BackingDevice> {
        self.devices.iter()
    }

    /// One device-table entry.
    pub fn backing_device(&self, dev: DeviceId) -> Result<&BackingDevice, VmError> {
        self.devices
            .get(dev.0 as usize)
            .ok_or(VmError::NoSuchDevice(dev))
    }

    /// The circuit breaker of device `dev` (device 0 always exists).
    ///
    /// # Panics
    /// If `dev` is not in the device table.
    pub fn breaker(&self, dev: DeviceId) -> &CircuitBreaker {
        &self.devices[dev.0 as usize].breaker
    }

    /// Mutable breaker access, for tests and tooling that pre-condition a
    /// device's health state.
    ///
    /// # Panics
    /// If `dev` is not in the device table.
    pub fn breaker_mut(&mut self, dev: DeviceId) -> &mut CircuitBreaker {
        &mut self.devices[dev.0 as usize].breaker
    }

    /// True if any device's breaker is not closed (some write-back pipeline
    /// is degraded).
    pub fn any_breaker_open(&self) -> bool {
        self.devices.iter().any(|d| !d.breaker.is_closed())
    }

    /// The backing device `object` is bound to.
    pub fn device_of(&self, object: ObjectId) -> Result<DeviceId, VmError> {
        Ok(self.object(object)?.device)
    }

    /// Advances the clock by `d` (a charged CPU cost).
    pub fn charge(&mut self, d: SimDuration) {
        self.clock.advance(d);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// Records a trace event. Recording charges no virtual time and does
    /// not allocate; with the `trace` feature compiled out it is a no-op.
    #[inline]
    pub(crate) fn emit(&mut self, event: VmEvent) {
        #[cfg(feature = "trace")]
        self.trace.push(self.clock.now(), event);
        #[cfg(not(feature = "trace"))]
        let _ = event;
    }

    /// Feeds one write-submission outcome (`ok` = accepted and not torn)
    /// to device `di`'s circuit breaker, emitting any resulting transition.
    pub(crate) fn breaker_record_write(&mut self, di: usize, ok: bool) {
        let now = self.clock.now();
        let device = self.devices[di].id;
        match self.devices[di].breaker.record(now, ok) {
            BreakerTransition::Tripped => {
                self.stats.bump(VmCounter::BreakerTrips);
                let ewma_milli = self.devices[di].breaker.ewma_milli();
                self.emit(VmEvent::BreakerTrip { device, ewma_milli });
            }
            BreakerTransition::Probed { ok } => {
                self.emit(VmEvent::BreakerProbe { device, ok });
            }
            BreakerTransition::Closed => {
                self.stats.bump(VmCounter::BreakerCloses);
                let ewma_milli = self.devices[di].breaker.ewma_milli();
                self.emit(VmEvent::BreakerClose { device, ewma_milli });
            }
            BreakerTransition::Exhausted => {
                // The backoff budget is spent: flag the entry for
                // permanent-failure escalation. The escalation itself (the
                // Dead transition and forced drain) runs at the top of the
                // next pump, outside the re-issue loops that call here.
                self.stats.bump(VmCounter::BreakerExhausted);
                self.devices[di].dead_pending = true;
                self.emit(VmEvent::BreakerProbe { device, ok: false });
            }
            BreakerTransition::None => {}
        }
    }

    /// Feeds a read outcome to device `di`'s breaker. Reads share the
    /// write path's scoreboard in every breaker state: while closed they
    /// move the score (so a device failing only reads still trips), and
    /// while open or half-open a read outcome counts as a probe alongside
    /// the gated write probes (so clean reads help close the breaker).
    pub(crate) fn breaker_record_read(&mut self, di: usize, ok: bool) {
        self.breaker_record_write(di, ok);
    }

    /// Frames on the global free queue.
    pub fn free_count(&self) -> u64 {
        self.frames
            .queue_len(self.free_q)
            .expect("free queue exists")
    }

    /// Frames on the global inactive queue.
    pub fn inactive_count(&self) -> u64 {
        self.frames
            .queue_len(self.inactive_q)
            .expect("inactive queue exists")
    }

    /// Frames on the global active queue.
    pub fn active_count(&self) -> u64 {
        self.frames
            .queue_len(self.active_q)
            .expect("active queue exists")
    }

    /// The pageout daemon's free-queue refill level.
    pub fn free_target(&self) -> u64 {
        self.free_target
    }

    /// The daemon's inactive-queue target.
    pub fn inactive_target(&self) -> u64 {
        self.inactive_target
    }

    // --- Task and object management ----------------------------------------

    /// Creates an empty task.
    pub fn create_task(&mut self) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Task::new(id));
        id
    }

    /// Creates a memory object bound to device 0. File-backed objects get
    /// a disk extent now.
    pub fn create_object(
        &mut self,
        size_pages: u64,
        backing: Backing,
    ) -> Result<ObjectId, VmError> {
        self.create_object_on(DeviceId(0), size_pages, backing)
    }

    /// Creates a memory object bound to `device`: every page-in, write-back
    /// and swap extent of this object routes to that device. File-backed
    /// objects get a disk extent on it now.
    pub fn create_object_on(
        &mut self,
        device: DeviceId,
        size_pages: u64,
        backing: Backing,
    ) -> Result<ObjectId, VmError> {
        let di = device.0 as usize;
        if di >= self.devices.len() {
            return Err(VmError::NoSuchDevice(device));
        }
        if !self.devices[di].is_active() {
            return Err(VmError::DeviceUnavailable(device));
        }
        let id = ObjectId(self.objects.len() as u32);
        if backing == Backing::File {
            self.devices[di].backing.allocate(id.0 as u64, size_pages)?;
        }
        let mut object = VmObject::new(id, size_pages, backing);
        object.device = device;
        self.objects.push(object);
        Ok(id)
    }

    /// Maps `pages` of `object` (starting at `object_offset`) into `task` at
    /// a kernel-chosen address.
    pub fn map_object(
        &mut self,
        task: TaskId,
        object: ObjectId,
        object_offset: u64,
        pages: u64,
    ) -> Result<VAddr, VmError> {
        self.object(object)?;
        self.task_mut(task)?
            .map
            .insert_anywhere(pages, object, object_offset)
    }

    /// `vm_allocate`: a fresh anonymous region of `bytes` (device 0).
    pub fn vm_allocate(&mut self, task: TaskId, bytes: u64) -> Result<(VAddr, ObjectId), VmError> {
        self.vm_allocate_on(DeviceId(0), task, bytes)
    }

    /// `vm_allocate` with the region's swap routed to `device`.
    pub fn vm_allocate_on(
        &mut self,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
    ) -> Result<(VAddr, ObjectId), VmError> {
        let pages = bytes_to_pages(bytes);
        let object = self.create_object_on(device, pages, Backing::Anonymous)?;
        let addr = self.map_object(task, object, 0, pages)?;
        self.charge(self.cost.null_syscall);
        Ok((addr, object))
    }

    /// `vm_map`: maps a file-like object of `bytes` into the task (device 0).
    pub fn vm_map(&mut self, task: TaskId, bytes: u64) -> Result<(VAddr, ObjectId), VmError> {
        self.vm_map_on(DeviceId(0), task, bytes)
    }

    /// `vm_map` with the file extent allocated on `device`.
    pub fn vm_map_on(
        &mut self,
        device: DeviceId,
        task: TaskId,
        bytes: u64,
    ) -> Result<(VAddr, ObjectId), VmError> {
        let pages = bytes_to_pages(bytes);
        let object = self.create_object_on(device, pages, Backing::File)?;
        let addr = self.map_object(task, object, 0, pages)?;
        self.charge(self.cost.null_syscall);
        Ok((addr, object))
    }

    /// `vm_deallocate`: tears down the region starting at `addr`, discarding
    /// its contents. Resident frames (including dirty ones — the data is
    /// being destroyed, so nothing is flushed) return to the global free
    /// pool. Returns the number of frames freed.
    ///
    /// The region must not be under HiPEC control (the HiPEC kernel drains
    /// the container first and then calls this).
    pub fn vm_deallocate(&mut self, task: TaskId, addr: VAddr) -> Result<u64, VmError> {
        let entry = self
            .task_mut(task)?
            .map
            .remove(addr)
            .ok_or(VmError::UnmappedAddress(task, addr))?;
        let object = entry.object;
        let mut resident: Vec<FrameId> = self.object(object)?.resident.values().copied().collect();
        // The residency map is a HashMap; sort so the freed frames join the
        // free queue in a replay-stable order.
        resident.sort_unstable();
        let mut freed = 0;
        for frame in resident {
            self.unmap_frame(frame)?;
            {
                let f = self.frames.frame_mut(frame)?;
                f.owner = None;
                f.ref_bit = false;
                f.mod_bit = false; // contents discarded, not flushed
            }
            if self.frames.queue_of(frame)?.is_some() {
                self.frames.remove(frame)?;
            }
            self.frames.enqueue_tail(self.free_q, frame)?;
            freed += 1;
        }
        self.object_mut(object)?.resident.clear();
        self.charge(self.cost.null_syscall);
        self.stats.add(VmCounter::DeallocatedFrames, freed);
        Ok(freed)
    }

    /// Immutable object access.
    pub fn object(&self, id: ObjectId) -> Result<&VmObject, VmError> {
        self.objects
            .get(id.0 as usize)
            .ok_or(VmError::NoSuchObject(id))
    }

    /// Mutable object access.
    pub fn object_mut(&mut self, id: ObjectId) -> Result<&mut VmObject, VmError> {
        self.objects
            .get_mut(id.0 as usize)
            .ok_or(VmError::NoSuchObject(id))
    }

    /// Immutable task access.
    pub fn task(&self, id: TaskId) -> Result<&Task, VmError> {
        self.tasks.get(id.0 as usize).ok_or(VmError::NoSuchTask(id))
    }

    /// Mutable task access.
    pub fn task_mut(&mut self, id: TaskId) -> Result<&mut Task, VmError> {
        self.tasks
            .get_mut(id.0 as usize)
            .ok_or(VmError::NoSuchTask(id))
    }

    /// Read-only view of the primary paging device (device 0).
    pub fn device(&self) -> &PagingDevice {
        &self.devices[0].disk
    }

    /// Read-only view of device 0's disk statistics (zeroed for flash
    /// devices).
    pub fn disk_stats(&self) -> hipec_disk::model::DiskStats {
        self.devices[0]
            .disk
            .as_disk()
            .map(|d| d.stats())
            .unwrap_or_default()
    }

    // --- The access / fault path --------------------------------------------

    /// Performs one memory access at `addr` by `task`.
    ///
    /// Resident accesses cost [`CostModel::mem_touch`]. Faults charge the
    /// fault path; faults inside HiPEC regions return
    /// [`AccessOutcome::NeedsPolicy`] for `hipec-core` to resolve.
    pub fn access(
        &mut self,
        task: TaskId,
        addr: VAddr,
        write: bool,
    ) -> Result<AccessOutcome, VmError> {
        let vpage = addr.vpage();
        if let Some(frame) = self.task(task)?.translate(vpage) {
            self.frames.touch(frame, write)?;
            self.charge(self.cost.mem_touch);
            self.stats.bump(VmCounter::Hits);
            return Ok(AccessOutcome::Done(AccessResult {
                kind: AccessKind::Hit,
                io_until: None,
            }));
        }

        // Fault.
        self.stats.bump(VmCounter::Faults);
        let fault_start = self.now();
        self.charge(self.cost.fault_base);
        if self.hipec_check_enabled {
            self.charge(self.cost.hipec_region_check);
        }
        let entry = *self.task(task)?.map.lookup(task, addr)?;
        let offset = PageOffset(entry.object_page(vpage));
        let object = entry.object;
        // The per-object fault rate is the hot/cold signal for tier
        // rebalancing; it counts every fault kind, policy faults included.
        self.object_mut(object)?.fault_rate += 1;

        if let Some(frame) = self.object(object)?.lookup(offset) {
            // Minor fault: resident, just install the translation.
            self.pmap_enter(task, vpage, frame)?;
            self.charge(self.cost.pmap_enter);
            self.frames.touch(frame, write)?;
            self.stats.bump(VmCounter::MinorFaults);
            let latency = self.now().since(fault_start);
            self.fault_latency.record(latency);
            self.emit(VmEvent::Fault {
                task,
                vpage,
                kind: AccessKind::MinorFault,
                write,
                latency,
            });
            return Ok(AccessOutcome::Done(AccessResult {
                kind: AccessKind::MinorFault,
                io_until: None,
            }));
        }

        if let Some(container) = self.object(object)?.container {
            return Ok(AccessOutcome::NeedsPolicy(PolicyFaultInfo {
                task,
                vpage,
                object,
                offset,
                write,
                container,
            }));
        }

        // Default pool: obtain a frame (running the pageout daemon if low).
        let frame = self.obtain_free_frame()?;
        let result = match self.fill_and_map(task, vpage, object, offset, frame, write) {
            Ok(r) => r,
            Err(e) => {
                // The device read failed (or the fill aborted) before the
                // frame was attached to anything: give it back so it cannot
                // leak off every queue.
                let _ = self.frames.enqueue_head(self.free_q, frame);
                return Err(e);
            }
        };
        // Default-pool pages live on the global active queue.
        self.frames.enqueue_tail(self.active_q, frame)?;
        self.charge(self.cost.queue_op);
        let end = result.io_until.unwrap_or_else(|| self.now());
        let latency = end.since(fault_start);
        self.fault_latency.record(latency);
        self.emit(VmEvent::Fault {
            task,
            vpage,
            kind: result.kind,
            write,
            latency,
        });
        Ok(AccessOutcome::Done(result))
    }

    /// Completes a HiPEC fault with the frame the policy chose.
    ///
    /// The frame must be clean and unowned (the policy evicted or flushed
    /// its previous content); it may already sit on a container queue.
    pub fn complete_policy_fault(
        &mut self,
        info: PolicyFaultInfo,
        frame: FrameId,
    ) -> Result<AccessResult, VmError> {
        debug_assert!(self.frames.frame(frame)?.owner.is_none());
        self.fill_and_map(
            info.task,
            info.vpage,
            info.object,
            info.offset,
            frame,
            info.write,
        )
    }

    /// Installs `frame` as (object, offset), filling it by zero-fill or
    /// device read, and maps it into the faulting task.
    fn fill_and_map(
        &mut self,
        task: TaskId,
        vpage: u64,
        object: ObjectId,
        offset: PageOffset,
        frame: FrameId,
        write: bool,
    ) -> Result<AccessResult, VmError> {
        let needs_io = self.object(object)?.fault_needs_io(offset);
        let (kind, io_until) = if needs_io {
            self.charge(self.cost.pagein_cpu);
            let device = self.object(object)?.device;
            let di = device.0 as usize;
            let loc = self.devices[di].backing.locate(object.0 as u64, offset.0)?;
            // Submit before mutating any frame/object state so an injected
            // device failure needs no rollback here.
            let now = self.clock.now();
            let done = match self.devices[di].disk.read(loc.lba, now) {
                Ok(done) => {
                    self.breaker_record_read(di, true);
                    // In virtual time a submission's completion instant is
                    // already known: record the read's service latency here.
                    #[cfg(feature = "metrics")]
                    self.devices[di].lat_read.record(done.since(now));
                    done
                }
                Err(fault) => {
                    self.breaker_record_read(di, false);
                    self.stats.bump(VmCounter::ReadErrors);
                    self.emit(VmEvent::ReadError {
                        device,
                        object,
                        offset: offset.0,
                    });
                    return Err(VmError::Device(fault));
                }
            };
            self.stats.bump(VmCounter::Pageins);
            (AccessKind::PageIn, Some(done))
        } else {
            self.charge(self.cost.zero_fill);
            self.stats.bump(VmCounter::ZeroFills);
            (AccessKind::ZeroFill, None)
        };
        {
            let f = self.frames.frame_mut(frame)?;
            f.owner = Some((object, offset));
            f.ref_bit = false;
            f.mod_bit = false;
        }
        self.object_mut(object)?.insert(offset, frame);
        self.pmap_enter(task, vpage, frame)?;
        self.charge(self.cost.pmap_enter);
        self.frames.touch(frame, write)?;
        Ok(AccessResult { kind, io_until })
    }

    fn pmap_enter(&mut self, task: TaskId, vpage: u64, frame: FrameId) -> Result<(), VmError> {
        self.task_mut(task)?.pmap.insert(vpage, frame);
        self.frames.frame_mut(frame)?.mappings.push((task, vpage));
        Ok(())
    }

    /// Removes every translation of `frame` and detaches it from its object.
    ///
    /// The frame must be clean ([`VmError::DirtyFrameFreed`] otherwise — the
    /// caller must flush first) and not busy.
    pub fn evict_frame(&mut self, frame: FrameId) -> Result<(), VmError> {
        if self.frames.frame(frame)?.busy {
            // An in-flight flush retains its owner so the completion (or a
            // torn-write retry) can find its backing block; evicting now
            // would orphan the write. Stale aliases to flushed frames land
            // here instead of corrupting the frame.
            return Err(VmError::FrameBusy(frame));
        }
        if self.frames.frame(frame)?.mod_bit {
            return Err(VmError::DirtyFrameFreed(frame));
        }
        self.unmap_frame(frame)?;
        if let Some((object, offset)) = self.frames.frame(frame)?.owner {
            self.object_mut(object)?.evict(offset);
        }
        let f = self.frames.frame_mut(frame)?;
        f.owner = None;
        f.ref_bit = false;
        Ok(())
    }

    /// Removes all pmap translations of `frame` (charging per mapping).
    pub fn unmap_frame(&mut self, frame: FrameId) -> Result<(), VmError> {
        let mappings = std::mem::take(&mut self.frames.frame_mut(frame)?.mappings);
        let n = mappings.len() as u64;
        for (task, vpage) in mappings {
            self.task_mut(task)?.pmap.remove(&vpage);
        }
        self.charge(self.cost.pmap_remove.saturating_mul(n));
        Ok(())
    }

    // --- Frame-pool interface for the global frame manager ------------------

    /// Takes `n` frames out of the global free pool (running the pageout
    /// daemon and waiting on in-flight flushes as needed). The returned
    /// frames are detached from every queue.
    pub fn take_free_frames(&mut self, n: u64) -> Result<Vec<FrameId>, VmError> {
        let mut out = Vec::with_capacity(n as usize);
        while (out.len() as u64) < n {
            match self.obtain_free_frame() {
                Ok(f) => out.push(f),
                Err(e) => {
                    // Undo: give back what we took.
                    for f in out {
                        let _ = self.frames.enqueue_head(self.free_q, f);
                    }
                    return Err(e);
                }
            }
        }
        Ok(out)
    }

    /// Returns a clean, evicted frame to the global free pool.
    pub fn return_frame(&mut self, frame: FrameId) -> Result<(), VmError> {
        {
            let f = self.frames.frame(frame)?;
            if f.busy {
                return Err(VmError::FrameBusy(frame));
            }
            if f.mod_bit {
                return Err(VmError::DirtyFrameFreed(frame));
            }
        }
        // Free frames must be fully anonymous: detach any residual mapping
        // and queue membership before handing the frame to the pool.
        if self.frames.frame(frame)?.owner.is_some() {
            self.evict_frame(frame)?;
        }
        if self.frames.queue_of(frame)?.is_some() {
            self.frames.remove(frame)?;
        }
        self.frames.enqueue_tail(self.free_q, frame)
    }

    /// Bound on consecutive "dry" pumps [`Kernel::obtain_free_frame`] may
    /// burn — pumps taken with nothing in flight anywhere, only parked
    /// queues whose submissions keep being rejected. Derived from
    /// [`Kernel::flush_retry_budget`]: once every parked write has had a
    /// budget's worth of chances to get a submission through, the pool is
    /// genuinely dry and `OutOfFrames` is the honest answer.
    fn dry_pump_budget(&self) -> u32 {
        u32::from(self.flush_retry_budget)
    }

    /// One clean frame off the free queue, replenishing it if necessary.
    ///
    /// When the pool is empty the wait is event-driven off
    /// [`Kernel::next_flush_completion`], which covers every source of
    /// future frames: in-flight flushes, parked torn retries *and* the
    /// drain/migration traffic of an unplug — so a fault arriving
    /// mid-unplug blocks on the drain instead of spuriously reporting
    /// `OutOfFrames`. Pumps that find nothing in flight anywhere (each
    /// pump draws fresh fault decisions, so a few attempts normally get a
    /// rejected submission through) are bounded by
    /// [`Kernel::dry_pump_budget`] so a device rejecting every write
    /// still surfaces `OutOfFrames`.
    pub(crate) fn obtain_free_frame(&mut self) -> Result<FrameId, VmError> {
        if self.free_count() < self.free_min {
            self.pageout_scan()?;
        }
        let mut dry_pumps = 0u32;
        loop {
            if let Some(f) = self.frames.dequeue_head(self.free_q)? {
                self.charge(self.cost.queue_op);
                return Ok(f);
            }
            // Nothing free: wait for write-back (or migration) progress.
            let Some(due) = self.next_flush_completion() else {
                return Err(VmError::OutOfFrames {
                    requested: 1,
                    available: 0,
                });
            };
            let inflight = self
                .devices
                .iter()
                .any(|d| !d.inflight.is_empty() || !d.migr_inflight.is_empty());
            if !inflight {
                dry_pumps += 1;
                if dry_pumps > self.dry_pump_budget() {
                    return Err(VmError::OutOfFrames {
                        requested: 1,
                        available: 0,
                    });
                }
            }
            if due > self.clock.now() {
                self.clock.advance_to(due);
            }
            self.pump();
        }
    }

    /// Completes any in-flight flushes due by now, freeing their frames.
    ///
    /// Torn completions do not free their frame: the write is re-issued
    /// (FCFS through the retry queue) and the frame stays busy until a
    /// clean completion is reaped. A re-issue the device rejects outright
    /// stays queued for the next pump. Each page gets at most
    /// [`Kernel::flush_retry_budget`] submissions in total; past that the
    /// flush is abandoned — the page's data is lost, the frame returns to
    /// the free pool, and a [`DeadFlush`] is surfaced so the retry queue
    /// always drains even against a device rejecting every write.
    /// (Re-homed flushes from a draining device are the exception: they
    /// carry the drained page's only copy and re-queue without a budget.)
    ///
    /// The pump also drives the device-lifecycle machinery: migration
    /// copies queued by drains and tier rebalancing, pending
    /// permanent-failure escalations, and drain-completion detection.
    ///
    /// Devices are serviced in **pressure order**, not id order: each
    /// entry's [`BackingDevice::pressure`] score (due completions, ageing
    /// of the oldest claimable one, in-flight depth, parked backlog) is
    /// computed against the state at pump entry and the table is walked
    /// highest-score first, ties broken by ascending id. Combined with the
    /// per-call [`Kernel::pump_submit_budget`] this removes the
    /// head-of-line blocking of the old id-order walk: a storming device's
    /// thousand parked retries can no longer starve a healthy sibling's
    /// reap inside a single call. The score is a pure function of kernel
    /// state, so the weighted order — and everything downstream of it —
    /// is bit-identical across replays.
    ///
    /// Most calls find nothing to do (no completion due, nothing parked),
    /// so the pump first asks every entry whether it is
    /// [idle](BackingDevice::pump_idle) and returns before ordering the
    /// table when all are.
    pub fn pump(&mut self) {
        let now = self.clock.now();
        if self.devices.iter().all(|d| d.pump_idle(now)) {
            return;
        }
        let mut order: Vec<(u64, usize)> = self
            .devices
            .iter()
            .enumerate()
            .map(|(di, d)| (d.pressure(now), di))
            .collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut budget = PumpBudget {
            left: self.pump_submit_budget,
            deferred: 0,
        };
        for (_, di) in order {
            self.pump_device(di, &mut budget);
            self.pump_migration(di, &mut budget);
        }
        if budget.deferred > 0 {
            self.stats.bump(VmCounter::PumpBudgetDeferrals);
            self.emit(VmEvent::PumpDeferred {
                deferred: budget.deferred,
            });
        }
        self.process_dead_pending();
        self.finish_drains();
    }

    /// Reaps and re-issues on one device-table entry. Each device's
    /// breaker, in-flight window and retry queue are independent, so a
    /// storm on one device never stalls another's drain.
    fn pump_device(&mut self, di: usize, budget: &mut PumpBudget) {
        let now = self.clock.now();
        let device = self.devices[di].id;
        let mut done = Vec::new();
        self.devices[di].inflight.retain(|i| {
            if i.done <= now {
                done.push((i.frame, i.torn, i.attempts, i.rehomed_from));
                false
            } else {
                true
            }
        });
        for (frame, torn, attempts, rehomed_from) in done {
            if torn {
                self.stats.bump(VmCounter::TornFlushes);
                // A torn completion re-homes to the owning object's current
                // device: after a drain (or a tier migration) the object is
                // re-bound elsewhere, its extent allocated there, so the
                // retry writes the page to the store that now serves it.
                // Re-homed retries are budget-exempt — including a write
                // whose budget ran out while it was in flight and its
                // object was drained away: the page follows its object
                // instead of dying with the old device.
                let home = self
                    .frames
                    .frame(frame)
                    .ok()
                    .and_then(|f| f.owner)
                    .map(|(o, _)| self.objects[o.0 as usize].device)
                    .unwrap_or(device);
                if home == device && attempts >= self.flush_retry_budget && rehomed_from.is_none() {
                    self.abandon_flush(di, frame, attempts);
                    continue;
                }
                let (ri, rehomed_from) = if home != device {
                    self.stats.bump(VmCounter::RetriesRehomed);
                    (home.0 as usize, Some(device))
                } else {
                    (di, rehomed_from)
                };
                let lba = self
                    .flush_target(ri, frame)
                    .expect("in-flight frames keep their owner");
                self.devices[ri].retry_q.push(
                    lba,
                    RetryTag {
                        frame,
                        attempts,
                        rehomed_from,
                    },
                );
                self.emit(VmEvent::TornRetry {
                    device: self.devices[ri].id,
                    frame,
                    attempt: attempts,
                });
                continue;
            }
            let f = self
                .frames
                .frame_mut(frame)
                .expect("inflight frames are valid");
            f.busy = false;
            f.owner = None;
            self.frames
                .enqueue_tail(self.free_q, frame)
                .expect("flushed frame is unqueued");
            self.stats.bump(VmCounter::FlushCompletions);
            self.emit(VmEvent::FlushComplete { device, frame });
        }
        // Re-issue torn writes (one attempt per entry per pump; a rejected
        // re-issue goes back on the queue until its budget runs out). While
        // the breaker is closed this drains the queue up to the pump call's
        // submission budget; once it trips mid-drain the rest waits for the
        // degraded path below.
        let mut still_torn = Vec::new();
        while self.devices[di].breaker.is_closed() {
            if !self.devices[di].retry_q.is_empty() && budget.left == 0 {
                budget.deferred += self.devices[di].retry_q.len() as u64;
                break;
            }
            let Some(pending) = self.devices[di].retry_q.pop_next(0, |_| 0) else {
                break;
            };
            budget.left -= 1;
            let RetryTag {
                frame,
                attempts,
                rehomed_from,
            } = pending.tag;
            let now = self.clock.now();
            match self.devices[di].disk.write(pending.lba, now) {
                Ok(c) => {
                    self.breaker_record_write(di, !c.torn);
                    #[cfg(feature = "metrics")]
                    self.devices[di].lat_torn_retry.record(c.done.since(now));
                    self.devices[di].inflight.push(InflightFlush {
                        done: c.done,
                        frame,
                        torn: c.torn,
                        attempts: attempts.saturating_add(1),
                        rehomed_from,
                    });
                    self.stats.bump(VmCounter::FlushRetries);
                }
                Err(_) => {
                    self.breaker_record_write(di, false);
                    self.stats.bump(VmCounter::FlushRetryErrors);
                    self.emit(VmEvent::RetryRejected {
                        device,
                        frame,
                        attempt: attempts,
                    });
                    let spent = attempts.saturating_add(1);
                    if spent >= self.flush_retry_budget && rehomed_from.is_none() {
                        self.abandon_flush(di, frame, spent);
                    } else {
                        still_torn.push((
                            pending.lba,
                            RetryTag {
                                frame,
                                attempts: spent,
                                rehomed_from,
                            },
                        ));
                    }
                }
            }
        }
        for (lba, tag) in still_torn {
            self.devices[di].retry_q.push(lba, tag);
        }
        // Degraded re-issue: at most one backoff-gated probe burst per pump,
        // bounded by the breaker's in-flight window. A failed probe goes
        // back to the queue *head* so the FCFS retry order is preserved.
        if !self.devices[di].breaker.is_closed() {
            while self.devices[di]
                .breaker
                .probe_due(self.clock.now(), self.devices[di].degraded_inflight())
            {
                let Some(pending) = self.devices[di].retry_q.pop_next(0, |_| 0) else {
                    break;
                };
                let RetryTag {
                    frame,
                    attempts,
                    rehomed_from,
                } = pending.tag;
                let now = self.clock.now();
                match self.devices[di].disk.write(pending.lba, now) {
                    Ok(c) => {
                        self.breaker_record_write(di, !c.torn);
                        #[cfg(feature = "metrics")]
                        self.devices[di].lat_torn_retry.record(c.done.since(now));
                        self.devices[di].inflight.push(InflightFlush {
                            done: c.done,
                            frame,
                            torn: c.torn,
                            attempts: attempts.saturating_add(1),
                            rehomed_from,
                        });
                        self.stats.bump(VmCounter::FlushRetries);
                    }
                    Err(_) => {
                        self.breaker_record_write(di, false);
                        self.stats.bump(VmCounter::FlushRetryErrors);
                        self.emit(VmEvent::RetryRejected {
                            device,
                            frame,
                            attempt: attempts,
                        });
                        let spent = attempts.saturating_add(1);
                        if spent >= self.flush_retry_budget && rehomed_from.is_none() {
                            self.abandon_flush(di, frame, spent);
                        } else {
                            self.devices[di].retry_q.push_front(
                                pending.lba,
                                RetryTag {
                                    frame,
                                    attempts: spent,
                                    rehomed_from,
                                },
                            );
                        }
                    }
                }
            }
            if !self.devices[di].retry_q.is_empty() {
                self.devices[di].breaker.note_deferred();
            }
        }
    }

    /// Gives up on a flush whose retry budget ran out: the page's data is
    /// lost (it was evicted when the flush started), the frame is scrubbed
    /// and returned to the free pool, and a [`DeadFlush`] records the loss
    /// for the HiPEC layer to attribute.
    fn abandon_flush(&mut self, di: usize, frame: FrameId, attempts: u8) {
        let device = self.devices[di].id;
        let (object, offset) = self
            .frames
            .frame(frame)
            .expect("retry frames are valid")
            .owner
            .expect("in-flight frames keep their owner");
        let lba = self.devices[di]
            .backing
            .locate(object.0 as u64, offset.0)
            .map(|l| l.lba)
            .unwrap_or(hipec_disk::Lba(0));
        {
            let f = self
                .frames
                .frame_mut(frame)
                .expect("retry frames are valid");
            f.busy = false;
            f.owner = None;
            f.mod_bit = false;
            f.ref_bit = false;
        }
        self.frames
            .enqueue_tail(self.free_q, frame)
            .expect("abandoned frame is unqueued");
        self.stats.bump(VmCounter::FlushAbandoned);
        self.dead_flushes.push(DeadFlush {
            device,
            frame,
            object,
            offset,
            fault: DiskFault::WriteError(lba),
        });
        self.emit(VmEvent::FlushAbandoned {
            device,
            frame,
            attempts,
        });
    }

    /// Drains the record of abandoned flushes (data-loss events) since the
    /// last call.
    pub fn take_dead_flushes(&mut self) -> Vec<DeadFlush> {
        std::mem::take(&mut self.dead_flushes)
    }

    /// The backing-store block an in-flight flush on device `di` writes to
    /// (derived from the frame's retained owner).
    pub(crate) fn flush_target(
        &self,
        di: usize,
        frame: FrameId,
    ) -> Result<hipec_disk::Lba, VmError> {
        let (object, offset) = self
            .frames
            .frame(frame)?
            .owner
            .ok_or(VmError::FrameNotQueued(frame))?;
        Ok(self.devices[di]
            .backing
            .locate(object.0 as u64, offset.0)?
            .lba)
    }

    /// Installs a deterministic fault-injection plan on device 0.
    pub fn set_fault_plan(&mut self, cfg: FaultConfig) {
        self.set_fault_plan_on(DeviceId(0), cfg);
    }

    /// Installs a deterministic fault-injection plan on device `dev`.
    ///
    /// # Panics
    /// If `dev` is not in the device table.
    pub fn set_fault_plan_on(&mut self, dev: DeviceId, cfg: FaultConfig) {
        self.devices[dev.0 as usize].disk.set_fault_plan(cfg);
    }

    /// Installs a phased fault plan (time-windowed by operation index) on
    /// device 0.
    pub fn set_phased_fault_plan(&mut self, cfg: PhasedFaultConfig) {
        self.set_phased_fault_plan_on(DeviceId(0), cfg);
    }

    /// Installs a phased fault plan on device `dev`.
    ///
    /// # Panics
    /// If `dev` is not in the device table.
    pub fn set_phased_fault_plan_on(&mut self, dev: DeviceId, cfg: PhasedFaultConfig) {
        self.devices[dev.0 as usize].disk.set_phased_fault_plan(cfg);
    }

    /// Earliest virtual instant at which pumping makes write-back progress
    /// (for event-driven drivers): the minimum over the per-device
    /// progress instants — each device's next in-flight completion, or,
    /// when it only has torn retries parked, its breaker's next probe
    /// window (now, if that breaker is closed). `None` only once every
    /// write-back lifecycle on every device has closed.
    pub fn next_flush_completion(&self) -> Option<SimTime> {
        let now = self.clock.now();
        self.devices
            .iter()
            .filter_map(|d| d.next_progress(now))
            .min()
    }

    // --- Read-only state inspection (invariant checkers, audits) ------------

    /// Frames with an in-flight flush (completion not yet reaped), across
    /// every device.
    pub fn inflight_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.devices
            .iter()
            .flat_map(|d| d.inflight.iter().map(|i| i.frame))
    }

    /// Frames whose torn flush awaits re-issue, across every device.
    pub fn retry_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.devices
            .iter()
            .flat_map(|d| d.retry_q.iter().map(|p| p.tag.frame))
    }

    /// Lifetime (pushes, pops) of the torn-write retry queues, summed
    /// across every device.
    pub fn retry_queue_counters(&self) -> (u64, u64) {
        self.devices.iter().fold((0, 0), |(pushes, pops), d| {
            (pushes + d.retry_q.pushes(), pops + d.retry_q.pops())
        })
    }

    /// Abandoned flushes not yet drained by [`Kernel::take_dead_flushes`].
    pub fn pending_dead_flushes(&self) -> usize {
        self.dead_flushes.len()
    }

    /// All VM objects, for state audits.
    pub fn objects_iter(&self) -> impl Iterator<Item = &VmObject> {
        self.objects.iter()
    }

    /// All tasks, for state audits.
    pub fn tasks_iter(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::PAGE_SIZE;

    fn small_kernel() -> Kernel {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 128;
        p.wired_frames = 8;
        p.free_target = 16;
        p.free_min = 8;
        p.inactive_target = 24;
        Kernel::new(p)
    }

    #[test]
    fn boot_frees_unwired_frames() {
        let k = small_kernel();
        assert_eq!(k.free_count(), 120);
        assert_eq!(k.active_count(), 0);
    }

    #[test]
    fn zero_fill_fault_then_hit() {
        let mut k = small_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_allocate(t, 4 * PAGE_SIZE).expect("allocate");
        let before = k.now();
        let r = match k.access(t, addr, false).expect("access") {
            AccessOutcome::Done(r) => r,
            AccessOutcome::NeedsPolicy(_) => panic!("anonymous region is not HiPEC"),
        };
        assert_eq!(r.kind, AccessKind::ZeroFill);
        assert!(r.io_until.is_none());
        // Fault cost ≈ fault_base + zero_fill + pmap_enter (+ queue op).
        let elapsed = k.now().since(before);
        assert!(elapsed >= k.cost.fault_zero_fill());
        // Second touch is a hit.
        let r = match k.access(t, addr, true).expect("access") {
            AccessOutcome::Done(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(r.kind, AccessKind::Hit);
        assert_eq!(k.stats.get("hits"), 1);
        assert_eq!(k.stats.get("faults"), 1);
    }

    #[test]
    fn file_fault_reads_from_disk() {
        let mut k = small_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_map(t, 2 * PAGE_SIZE).expect("map");
        let r = match k.access(t, addr, false).expect("access") {
            AccessOutcome::Done(r) => r,
            _ => unreachable!(),
        };
        assert_eq!(r.kind, AccessKind::PageIn);
        let done = r.io_until.expect("page-in has device time");
        assert!(done > k.now());
        assert_eq!(k.stats.get("pageins"), 1);
    }

    #[test]
    fn each_page_faults_once_when_memory_is_ample() {
        let mut k = small_kernel();
        let t = k.create_task();
        let pages = 40u64;
        let (addr, _) = k.vm_allocate(t, pages * PAGE_SIZE).expect("allocate");
        for round in 0..3 {
            for p in 0..pages {
                k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false)
                    .expect("access");
            }
            if round == 0 {
                assert_eq!(k.stats.get("faults"), pages);
            }
        }
        assert_eq!(k.stats.get("faults"), pages, "no replacement needed");
        assert_eq!(k.stats.get("hits"), 2 * pages);
    }

    #[test]
    fn replacement_kicks_in_under_pressure() {
        let mut k = small_kernel(); // 120 pageable frames
        let t = k.create_task();
        let pages = 200u64; // working set larger than memory
        let (addr, _) = k.vm_allocate(t, pages * PAGE_SIZE).expect("allocate");
        for p in 0..pages {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), true)
                .expect("access");
        }
        assert_eq!(k.stats.get("faults"), pages);
        assert!(k.stats.get("pageouts") > 0, "dirty pages must be flushed");
        // A second sequential sweep with LRU-ish FIFO replacement faults again.
        let before = k.stats.get("faults");
        for p in 0..pages {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false)
                .expect("access");
        }
        assert!(k.stats.get("faults") > before, "cyclic sweep must re-fault");
    }

    #[test]
    fn unmapped_access_is_an_error() {
        let mut k = small_kernel();
        let t = k.create_task();
        assert!(matches!(
            k.access(t, VAddr(0x100), false),
            Err(VmError::UnmappedAddress(_, _))
        ));
    }

    #[test]
    fn take_and_return_frames() {
        let mut k = small_kernel();
        let before = k.free_count();
        let taken = k.take_free_frames(10).expect("available");
        assert_eq!(taken.len(), 10);
        assert_eq!(k.free_count(), before - 10);
        for f in &taken {
            assert!(k.frames.queue_of(*f).expect("valid").is_none());
        }
        for f in taken {
            k.return_frame(f).expect("clean return");
        }
        assert_eq!(k.free_count(), before);
    }

    #[test]
    fn busy_frames_cannot_be_evicted_or_returned() {
        let mut k = small_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_allocate(t, PAGE_SIZE).expect("allocate");
        k.access(t, addr, true).expect("dirty the page");
        let frame = k
            .task(t)
            .expect("task")
            .translate(addr.vpage())
            .expect("mapped");
        k.start_flush(frame).expect("flush starts");
        assert!(k.frames.frame(frame).expect("frame").busy);
        // A stale handle to the in-flight frame must bounce, not corrupt
        // the retained owner the completion path needs.
        assert_eq!(k.evict_frame(frame), Err(VmError::FrameBusy(frame)));
        assert_eq!(k.return_frame(frame), Err(VmError::FrameBusy(frame)));
        let done = k.next_flush_completion().expect("in flight");
        k.clock.advance_to(done);
        k.pump();
        assert!(!k.frames.frame(frame).expect("frame").busy);
    }

    #[test]
    fn read_only_faults_trip_and_clean_reads_close_the_breaker() {
        let mut k = small_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_map(t, 16 * PAGE_SIZE).expect("map");
        // A device failing *only* reads: the breaker must still trip.
        k.set_fault_plan(FaultConfig {
            seed: 9,
            read_error_permille: 1000,
            write_error_permille: 0,
            delay_permille: 0,
            max_delay: SimDuration::ZERO,
            torn_permille: 0,
        });
        for p in 0..3 {
            let r = k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false);
            assert!(matches!(r, Err(VmError::Device(_))), "read must fail");
        }
        assert!(
            !k.breaker(DeviceId(0)).is_closed(),
            "three failed reads must trip the breaker"
        );
        assert_eq!(k.stats.get("breaker_trips"), 1);
        // The device heals: clean reads serve as probes and close the
        // breaker again without a single write.
        k.set_fault_plan(FaultConfig {
            seed: 9,
            read_error_permille: 0,
            write_error_permille: 0,
            delay_permille: 0,
            max_delay: SimDuration::ZERO,
            torn_permille: 0,
        });
        for p in 0..16 {
            if k.breaker(DeviceId(0)).is_closed() {
                break;
            }
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false)
                .expect("clean read");
        }
        assert!(
            k.breaker(DeviceId(0)).is_closed(),
            "clean reads must close the breaker via probing"
        );
        assert_eq!(k.stats.get("breaker_closes"), 1);
        assert_eq!(k.device().stats().writes, 0, "no write ever probed");
    }

    #[test]
    fn flushes_route_to_the_owning_device() {
        let mut k = small_kernel();
        let dev1 = k.add_device(DeviceParams::default());
        assert_eq!(k.device_count(), 2);
        let t = k.create_task();
        let (a0, o0) = k.vm_allocate(t, PAGE_SIZE).expect("dev0 region");
        let (a1, o1) = k.vm_allocate_on(dev1, t, PAGE_SIZE).expect("dev1 region");
        assert_eq!(k.device_of(o0).expect("bound"), DeviceId(0));
        assert_eq!(k.device_of(o1).expect("bound"), dev1);
        k.access(t, a0, true).expect("dirty dev0 page");
        k.access(t, a1, true).expect("dirty dev1 page");
        let f0 = k
            .task(t)
            .expect("task")
            .translate(a0.vpage())
            .expect("mapped");
        let f1 = k
            .task(t)
            .expect("task")
            .translate(a1.vpage())
            .expect("mapped");
        k.start_flush(f0).expect("flush to dev0");
        k.start_flush(f1).expect("flush to dev1");
        assert_eq!(
            k.backing_device(DeviceId(0)).expect("dev0").stats().writes,
            1
        );
        assert_eq!(k.backing_device(dev1).expect("dev1").stats().writes, 1);
        assert_eq!(k.backing_device(dev1).expect("dev1").inflight_depth(), 1);
        while let Some(done) = k.next_flush_completion() {
            k.clock.advance_to(done);
            k.pump();
        }
        assert_eq!(k.stats.get("flush_completions"), 2);
        assert_eq!(k.inflight_frames().count(), 0);
    }

    #[test]
    fn take_too_many_frames_fails_and_rolls_back() {
        let mut k = small_kernel();
        let before = k.free_count();
        assert!(k.take_free_frames(10_000).is_err());
        assert_eq!(k.free_count(), before, "partial takes are rolled back");
    }

    #[test]
    fn dirty_frame_cannot_be_returned() {
        let mut k = small_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_allocate(t, PAGE_SIZE).expect("allocate");
        k.access(t, addr, true).expect("dirtying write");
        let frame = k
            .task(t)
            .expect("task")
            .translate(addr.vpage())
            .expect("mapped");
        assert_eq!(k.return_frame(frame), Err(VmError::DirtyFrameFreed(frame)));
        assert_eq!(k.evict_frame(frame), Err(VmError::DirtyFrameFreed(frame)));
    }

    #[test]
    fn evict_frame_unmaps_and_detaches() {
        let mut k = small_kernel();
        let t = k.create_task();
        let (addr, obj) = k.vm_allocate(t, PAGE_SIZE).expect("allocate");
        k.access(t, addr, false).expect("read fault");
        let frame = k
            .task(t)
            .expect("task")
            .translate(addr.vpage())
            .expect("mapped");
        k.frames.remove(frame).expect("off the active queue");
        k.evict_frame(frame).expect("clean eviction");
        assert_eq!(k.task(t).expect("task").translate(addr.vpage()), None);
        assert_eq!(k.object(obj).expect("object").resident_count(), 0);
        assert!(k.frames.frame(frame).expect("frame").owner.is_none());
    }
}

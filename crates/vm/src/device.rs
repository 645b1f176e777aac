//! The kernel's backing-device table.
//!
//! Mach 3.0's external-pager lineage routes each memory object to its own
//! pager; the single-disk kernel of earlier revisions collapsed that into
//! one global paging device, one write-back circuit breaker and one torn
//! -write retry queue — so one sick device degraded every container. A
//! [`BackingDevice`] restores the per-pager structure: each table entry
//! owns its paging device, its backing-store extent map, its circuit
//! breaker, its in-flight flush list and its retry queue. Objects bind to
//! a device at creation ([`crate::Kernel::create_object_on`]) and the
//! pageout pump routes every read, flush and retry to the owning entry,
//! so fault-plan storms on one device leave the others' write-back
//! pipelines untouched.
//!
//! Entries are a managed *lifecycle*, not a static table: a device starts
//! [`DeviceState::Active`], a hot-unplug ([`crate::Kernel::remove_device`])
//! moves it through [`DeviceState::Draining`] to [`DeviceState::Removed`],
//! and a breaker that exhausts its backoff budget escalates straight to
//! [`DeviceState::Dead`]. Both exits run the same drain: objects re-bind
//! to a surviving entry and their backing pages are copied over through
//! the per-entry migration queue driven by the pageout pump.

use hipec_disk::{BackingStore, DeviceParams, DiskQueue, Lba, PagingDevice};
use hipec_sim::{LatencyHistogram, SimTime};

use crate::breaker::CircuitBreaker;
use crate::kernel::{InflightFlush, RetryTag};
use crate::types::{DeviceId, ObjectId};

/// Where a device-table entry is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DeviceState {
    /// In service: accepts new object bindings, reads and write-backs.
    #[default]
    Active,
    /// Hot-unplug in progress: objects are re-bound and backing pages are
    /// being copied onto a sibling; no new bindings are accepted.
    Draining,
    /// Hot-unplug complete: no outstanding work traces back to the entry.
    Removed,
    /// Permanently failed (breaker backoff budget exhausted). Terminal;
    /// the forced drain runs while the entry stays Dead.
    Dead,
}

/// One queued backing-page copy: a page of `object` being re-homed from
/// device `from` onto the device whose migration queue holds the tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrTag {
    /// The object whose page is being copied.
    pub object: ObjectId,
    /// The page within the object.
    pub offset: u64,
    /// The device the page is leaving.
    pub from: DeviceId,
    /// Copy submissions so far. Migration copies carry the drained data,
    /// so they are never abandoned — a torn or rejected copy re-queues
    /// until the receiving device accepts it.
    pub attempts: u32,
}

/// A migration copy submitted to the device and not yet reaped.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InflightMigration {
    pub done: SimTime,
    /// The device accepted the copy but will complete it torn.
    pub torn: bool,
    pub lba: Lba,
    pub tag: MigrTag,
}

/// One entry in the kernel's device table: a paging device plus all the
/// per-device write-back machinery (extent map, breaker, in-flight list,
/// torn-write retry queue, migration queue, lifecycle state).
#[derive(Debug)]
pub struct BackingDevice {
    pub(crate) id: DeviceId,
    pub(crate) disk: PagingDevice,
    pub(crate) backing: BackingStore,
    pub(crate) breaker: CircuitBreaker,
    pub(crate) inflight: Vec<InflightFlush>,
    /// Torn flushes awaiting re-issue (FCFS — retry order is submission
    /// order; tags carry the frame and its spent attempts).
    pub(crate) retry_q: DiskQueue<RetryTag>,
    /// Lifecycle state (see [`DeviceState`]).
    pub(crate) state: DeviceState,
    /// While draining (or dead), the surviving device absorbing this
    /// entry's objects, re-homed retries and page copies.
    pub(crate) drain_to: Option<DeviceId>,
    /// Set by the breaker's `Exhausted` transition; the next pump
    /// escalates the entry to [`DeviceState::Dead`] outside the re-issue
    /// loops.
    pub(crate) dead_pending: bool,
    /// A Dead entry whose forced drain has completed (Removed implies it).
    pub(crate) drained: bool,
    /// Backing-page copies queued *onto* this device by drains and tier
    /// migrations (FCFS, driven by the pageout pump like the retry queue).
    pub(crate) migr_q: DiskQueue<MigrTag>,
    /// Migration copies submitted to this device and not yet reaped.
    pub(crate) migr_inflight: Vec<InflightMigration>,
    /// Migration copies that completed clean on this device.
    pub(crate) migr_done: u64,
    /// Completion latency of demand reads issued to this device. In the
    /// virtual-time simulation a submission's completion instant is known
    /// at issue, so latency is recorded at the submission site (behind
    /// the `metrics` feature; the storage is unconditional so snapshot
    /// shapes don't change).
    pub(crate) lat_read: LatencyHistogram,
    /// Completion latency of first-issue write-back flushes.
    pub(crate) lat_flush: LatencyHistogram,
    /// Completion latency of torn-write retry re-issues.
    pub(crate) lat_torn_retry: LatencyHistogram,
}

impl BackingDevice {
    /// Builds a fresh, fault-free table entry from device parameters.
    pub(crate) fn new(id: DeviceId, params: &DeviceParams) -> Self {
        BackingDevice {
            id,
            disk: params.build(),
            backing: BackingStore::new(params.capacity_pages()),
            breaker: CircuitBreaker::default(),
            inflight: Vec::new(),
            retry_q: DiskQueue::new(hipec_disk::QueueDiscipline::Fcfs),
            state: DeviceState::Active,
            drain_to: None,
            dead_pending: false,
            drained: false,
            migr_q: DiskQueue::new(hipec_disk::QueueDiscipline::Fcfs),
            migr_inflight: Vec::new(),
            migr_done: 0,
            lat_read: LatencyHistogram::EMPTY,
            lat_flush: LatencyHistogram::EMPTY,
            lat_torn_retry: LatencyHistogram::EMPTY,
        }
    }

    /// This entry's id (its index in the device table).
    pub fn id(&self) -> DeviceId {
        self.id
    }

    /// Read-only view of the paging device itself.
    pub fn device(&self) -> &PagingDevice {
        &self.disk
    }

    /// This device's error scoreboard.
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// Lifecycle state of this entry.
    pub fn state(&self) -> DeviceState {
        self.state
    }

    /// True while the entry accepts new bindings and write-backs.
    pub fn is_active(&self) -> bool {
        self.state == DeviceState::Active
    }

    /// The surviving device this entry is draining onto, if a drain has
    /// been started.
    pub fn drain_target(&self) -> Option<DeviceId> {
        self.drain_to
    }

    /// Storage tier of this entry: 1 for flash (the fast tier), 0 for a
    /// rotational disk. Hot objects are promoted toward higher tiers.
    pub fn tier(&self) -> u32 {
        if self.disk.as_flash().is_some() {
            1
        } else {
            0
        }
    }

    /// FTL statistics when this entry is flash-backed (`None` for disks).
    pub fn flash_stats(&self) -> Option<hipec_disk::flash::FlashStats> {
        self.disk.as_flash().map(|f| f.stats())
    }

    /// Highest per-block erase count when flash-backed (0 for disks).
    pub fn max_wear(&self) -> u32 {
        self.disk.as_flash().map(|f| f.max_wear()).unwrap_or(0)
    }

    /// Cumulative operation counters of the underlying device.
    pub fn stats(&self) -> hipec_disk::DeviceStats {
        self.disk.stats()
    }

    /// Write-backs submitted to this device and not yet reaped.
    pub fn inflight_depth(&self) -> usize {
        self.inflight.len()
    }

    /// Torn flushes parked on this device's retry queue.
    pub fn retry_depth(&self) -> usize {
        self.retry_q.len()
    }

    /// Lifetime (pushes, pops) of this device's retry queue.
    pub fn retry_counters(&self) -> (u64, u64) {
        (self.retry_q.pushes(), self.retry_q.pops())
    }

    /// Backing-page copies queued or in flight *onto* this device.
    pub fn migr_pending(&self) -> usize {
        self.migr_q.len() + self.migr_inflight.len()
    }

    /// Migration copies that completed clean on this device.
    pub fn migrations_completed(&self) -> u64 {
        self.migr_done
    }

    /// Completion-latency histograms for this device, as `(read, flush,
    /// torn_retry)` — the snapshot surface `KernelStats` latency rows
    /// are assembled from. Empty when the `metrics` feature is off.
    pub fn latency(&self) -> (&LatencyHistogram, &LatencyHistogram, &LatencyHistogram) {
        (&self.lat_read, &self.lat_flush, &self.lat_torn_retry)
    }

    /// Writes in flight that count against the breaker's degraded
    /// in-flight window (flushes and migration copies alike).
    pub(crate) fn degraded_inflight(&self) -> usize {
        self.inflight.len() + self.migr_inflight.len()
    }

    /// Deterministic pressure score steering the pump's per-call service
    /// order: higher scores drain first. Combines, in decreasing weight:
    ///
    /// * completions already due — each reap frees a frame or retires a
    ///   migration copy, the direct head-of-line payload;
    /// * how long the oldest due completion has been claimable — deadline
    ///   ageing, so work parked across many pump calls rises to the front
    ///   instead of starving behind a perpetually-stormy sibling;
    /// * the in-flight depth (flushes and copies alike);
    /// * the parked backlog (torn retries plus queued copies), discounted
    ///   while the breaker is open because a gated device can only submit
    ///   bounded probe bursts no matter how early it is served.
    ///
    /// A pure function of device state and `now` — no host time, no
    /// randomness — so the weighted order is replay-stable.
    pub(crate) fn pressure(&self, now: SimTime) -> u64 {
        /// Score per completion already due.
        const DUE_WEIGHT: u64 = 64;
        /// Score per microsecond the oldest due completion has waited.
        const LATENESS_WEIGHT: u64 = 4;
        /// Ageing saturates here (≈1 s) so one ancient completion cannot
        /// overflow the score or drown every other component forever.
        const LATENESS_CAP_US: u64 = 1 << 20;
        /// Score per in-flight submission (not yet due).
        const INFLIGHT_WEIGHT: u64 = 2;

        let mut due = 0u64;
        let mut oldest_due: Option<SimTime> = None;
        for done in self
            .inflight
            .iter()
            .map(|i| i.done)
            .chain(self.migr_inflight.iter().map(|m| m.done))
        {
            if done <= now {
                due += 1;
                oldest_due = Some(oldest_due.map_or(done, |o| o.min(done)));
            }
        }
        let lateness_us = oldest_due
            .map_or(0, |o| now.since(o).as_ns() / 1_000)
            .min(LATENESS_CAP_US);
        let backlog = (self.retry_q.len() + self.migr_q.len()) as u64;
        let backlog = if self.breaker.is_closed() {
            backlog
        } else {
            backlog / 2
        };
        due * DUE_WEIGHT
            + lateness_us * LATENESS_WEIGHT
            + self.degraded_inflight() as u64 * INFLIGHT_WEIGHT
            + backlog
    }

    /// True while a drain out of this entry has yet to be declared
    /// complete: it is Draining, or Dead with a forced drain started and
    /// not yet finished.
    pub(crate) fn drain_unfinished(&self) -> bool {
        match self.state {
            DeviceState::Draining => true,
            DeviceState::Dead => !self.drained && self.drain_to.is_some(),
            DeviceState::Active | DeviceState::Removed => false,
        }
    }

    /// True when a pump at `now` would change nothing on this entry: no
    /// flush or migration copy is due (`done <= now`), the retry and
    /// migration queues are empty (so neither the full-speed loops nor a
    /// degraded probe can submit), no Dead escalation is pending, and no
    /// drain is left to finish. [`crate::Kernel::pump`] returns at once
    /// when every entry is idle; the check reads only what the full pump
    /// would act on, so skipping is bit-identical to pumping.
    pub(crate) fn pump_idle(&self, now: SimTime) -> bool {
        !self.dead_pending
            && self.retry_q.is_empty()
            && self.migr_q.is_empty()
            && !self.drain_unfinished()
            && self.inflight.iter().all(|i| i.done > now)
            && self.migr_inflight.iter().all(|m| m.done > now)
    }

    /// Earliest virtual instant at which pumping *this* device makes
    /// write-back or migration progress: its next in-flight completion
    /// (flush or page copy), or — when nothing is in flight but torn
    /// retries or queued copies are parked — its breaker's next probe
    /// window (`now` if the breaker is closed). `None` once every
    /// write-back and migration lifecycle on this device has closed.
    pub(crate) fn next_progress(&self, now: SimTime) -> Option<SimTime> {
        if let Some(done) = self
            .inflight
            .iter()
            .map(|i| i.done)
            .chain(self.migr_inflight.iter().map(|m| m.done))
            .min()
        {
            return Some(done);
        }
        if self.retry_q.is_empty() && self.migr_q.is_empty() {
            return None;
        }
        Some(if self.breaker.is_closed() {
            now
        } else {
            self.breaker.next_probe_at().max(now)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_entry_is_healthy_and_idle() {
        let d = BackingDevice::new(DeviceId(3), &DeviceParams::default());
        assert_eq!(d.id(), DeviceId(3));
        assert!(d.breaker().is_closed());
        assert_eq!(d.state(), DeviceState::Active);
        assert!(d.is_active());
        assert_eq!(d.drain_target(), None);
        assert_eq!(d.tier(), 0, "default device is rotational");
        assert_eq!(d.flash_stats().map(|s| s.programs), None);
        assert_eq!(d.max_wear(), 0);
        assert_eq!(d.inflight_depth(), 0);
        assert_eq!(d.retry_depth(), 0);
        assert_eq!(d.migr_pending(), 0);
        assert_eq!(d.migrations_completed(), 0);
        assert_eq!(d.retry_counters(), (0, 0));
        assert_eq!(d.stats(), hipec_disk::DeviceStats::default());
        assert_eq!(d.next_progress(SimTime::ZERO), None);
    }

    #[test]
    fn flash_entries_report_the_fast_tier() {
        let d = BackingDevice::new(
            DeviceId(1),
            &DeviceParams::Flash(hipec_disk::FlashParams::early_flash_card()),
        );
        assert_eq!(d.tier(), 1);
        assert!(d.flash_stats().is_some());
    }

    #[test]
    fn next_progress_prefers_inflight_over_retries() {
        let mut d = BackingDevice::new(DeviceId(0), &DeviceParams::default());
        let now = SimTime::from_ns(100);
        let done = SimTime::from_ns(5_000);
        d.inflight.push(InflightFlush {
            done,
            frame: crate::types::FrameId(1),
            torn: false,
            attempts: 1,
            rehomed_from: None,
        });
        assert_eq!(d.next_progress(now), Some(done));
        d.inflight.clear();
        d.retry_q.push(
            hipec_disk::Lba(0),
            RetryTag {
                frame: crate::types::FrameId(1),
                attempts: 1,
                rehomed_from: None,
            },
        );
        // Closed breaker: retries can be re-issued immediately.
        assert_eq!(d.next_progress(now), Some(now));
    }

    #[test]
    fn next_progress_covers_queued_and_inflight_migrations() {
        let mut d = BackingDevice::new(DeviceId(0), &DeviceParams::default());
        let now = SimTime::from_ns(100);
        let tag = MigrTag {
            object: ObjectId(7),
            offset: 3,
            from: DeviceId(1),
            attempts: 0,
        };
        d.migr_q.push(hipec_disk::Lba(3), tag);
        // A queued copy alone is progress at the next submission window.
        assert_eq!(d.next_progress(now), Some(now));
        assert_eq!(d.migr_pending(), 1);
        let done = SimTime::from_ns(9_000);
        d.migr_q.pop_next(0, |_| 0);
        d.migr_inflight.push(InflightMigration {
            done,
            torn: false,
            lba: hipec_disk::Lba(3),
            tag,
        });
        assert_eq!(d.next_progress(now), Some(done));
        assert_eq!(d.degraded_inflight(), 1);
    }

    /// The pump's idle skip: one test per condition [`BackingDevice::pump_idle`]
    /// checks. Each builds a state where only that condition holds, checks
    /// the predicate sees it, and checks the pump makes the progress the
    /// condition calls for (counters and trace).
    mod pump_skip {
        use hipec_sim::SimTime;

        use crate::kernel::{Kernel, KernelParams, RetryTag};
        use crate::trace::VmEvent;
        use crate::types::{DeviceId, FrameId, ObjectId, TaskId, VAddr, PAGE_SIZE};

        fn small_kernel() -> Kernel {
            let mut p = KernelParams::paper_64mb();
            p.total_frames = 128;
            p.wired_frames = 8;
            p.free_target = 16;
            p.free_min = 8;
            p.inactive_target = 24;
            Kernel::new(p)
        }

        /// Dirties the first page of a fresh anonymous region on `dev` and
        /// returns its task, region, object and frame.
        fn dirty_page(k: &mut Kernel, dev: DeviceId) -> (TaskId, VAddr, ObjectId, FrameId) {
            let t = k.create_task();
            let (addr, obj) = k.vm_allocate_on(dev, t, 4 * PAGE_SIZE).expect("allocate");
            k.access(t, addr, true).expect("dirtying write");
            let frame = k
                .task(t)
                .expect("task")
                .translate(addr.vpage())
                .expect("mapped");
            (t, addr, obj, frame)
        }

        fn idle(k: &Kernel) -> bool {
            let now = k.now();
            k.devices.iter().all(|d| d.pump_idle(now))
        }

        /// Counters and trace length, to show an idle pump changes neither.
        fn observable(k: &Kernel) -> (Vec<(&'static str, u64)>, u64) {
            (k.stats.iter().collect(), k.trace.recorded())
        }

        /// Pumps, asserting the pump was a no-op exactly when the predicate
        /// said the table was idle.
        fn pump_checked(k: &mut Kernel) {
            let was_idle = idle(k);
            let before = observable(k);
            k.pump();
            if was_idle {
                assert_eq!(observable(k), before, "an idle pump changed state");
            }
        }

        /// With tracing compiled in, `want` was recorded at or after `seq`.
        fn assert_traced(k: &Kernel, seq: u64, want: VmEvent) {
            if cfg!(feature = "trace") {
                assert!(
                    k.trace.iter().any(|r| r.seq >= seq && r.event == want),
                    "{want:?} not traced"
                );
            }
        }

        /// Moves device `di`'s only in-flight flush onto its retry queue,
        /// exactly as the reap of a torn completion does.
        fn park_as_torn_retry(k: &mut Kernel, di: usize) {
            let i = k.devices[di].inflight.pop().expect("a flush in flight");
            let lba = k.flush_target(di, i.frame).expect("owned frame");
            k.devices[di].retry_q.push(
                lba,
                RetryTag {
                    frame: i.frame,
                    attempts: i.attempts,
                    rehomed_from: None,
                },
            );
        }

        #[test]
        fn a_completion_due_exactly_now_is_reaped() {
            let mut k = small_kernel();
            let (_, _, _, frame) = dirty_page(&mut k, DeviceId(0));
            let done = k.start_flush(frame).expect("flush");
            assert!(idle(&k), "nothing is due before the completion");
            pump_checked(&mut k);
            k.clock.advance_to(SimTime::from_ns(done.as_ns() - 1));
            assert!(idle(&k), "one nanosecond early is still idle");
            pump_checked(&mut k);
            assert_eq!(k.stats.get("flush_completions"), 0);
            k.clock.advance_to(done);
            assert!(!idle(&k), "done == now is due");
            let seq = k.trace.recorded();
            pump_checked(&mut k);
            assert_eq!(k.stats.get("flush_completions"), 1);
            assert_traced(
                &k,
                seq,
                VmEvent::FlushComplete {
                    device: DeviceId(0),
                    frame,
                },
            );
            assert!(idle(&k));
        }

        #[test]
        fn a_parked_retry_behind_a_closed_breaker_is_reissued() {
            let mut k = small_kernel();
            let (_, _, _, frame) = dirty_page(&mut k, DeviceId(0));
            k.start_flush(frame).expect("flush");
            park_as_torn_retry(&mut k, 0);
            assert!(k.devices[0].breaker.is_closed());
            assert!(!idle(&k), "a parked retry is work");
            pump_checked(&mut k);
            assert_eq!(k.stats.get("flush_retries"), 1);
            assert_eq!(k.devices[0].retry_depth(), 0);
            assert_eq!(k.devices[0].inflight_depth(), 1);
        }

        #[test]
        fn a_parked_retry_behind_an_open_breaker_probes_when_due() {
            let mut k = small_kernel();
            let (_, _, _, frame) = dirty_page(&mut k, DeviceId(0));
            k.start_flush(frame).expect("flush");
            park_as_torn_retry(&mut k, 0);
            let now = k.now();
            while k.devices[0].breaker.is_closed() {
                k.breaker_mut(DeviceId(0)).record(now, false);
            }
            // Before the probe window the pump only notes the deferral.
            assert!(!idle(&k));
            pump_checked(&mut k);
            assert_eq!(k.devices[0].breaker.counters().deferred, 1);
            assert_eq!(k.stats.get("flush_retries"), 0);
            k.clock.advance_to(k.devices[0].breaker.next_probe_at());
            assert!(!idle(&k));
            let seq = k.trace.recorded();
            pump_checked(&mut k);
            assert_eq!(k.stats.get("flush_retries"), 1);
            assert_eq!(k.devices[0].retry_depth(), 0);
            assert_traced(
                &k,
                seq,
                VmEvent::BreakerProbe {
                    device: DeviceId(0),
                    ok: true,
                },
            );
        }

        #[test]
        fn a_queued_migration_copy_is_submitted() {
            let mut k = small_kernel();
            let dev = k.add_device(hipec_disk::DeviceParams::default());
            let (_, _, obj, frame) = dirty_page(&mut k, DeviceId(0));
            let done = k.start_flush(frame).expect("flush");
            k.clock.advance_to(done);
            pump_checked(&mut k);
            assert!(idle(&k));
            assert_eq!(k.migrate_object(obj, dev).expect("migrate"), 1);
            assert!(!idle(&k), "a queued copy is work");
            pump_checked(&mut k);
            let di = dev.0 as usize;
            assert_eq!(k.devices[di].migr_q.len(), 0);
            assert_eq!(k.devices[di].migr_inflight.len(), 1);
            let copied = k.devices[di].migr_inflight[0].done;
            k.clock.advance_to(copied);
            pump_checked(&mut k);
            assert_eq!(k.stats.get("migrated_pages"), 1);
            assert!(idle(&k));
        }

        #[test]
        fn a_pending_dead_escalation_runs() {
            let mut k = small_kernel();
            let dev = k.add_device(hipec_disk::DeviceParams::default());
            let (_, _, obj, _) = dirty_page(&mut k, dev);
            assert!(idle(&k));
            // What a breaker `Exhausted` transition on a page-out
            // submission (outside the pump) leaves for the next pump.
            k.devices[dev.0 as usize].dead_pending = true;
            assert!(!idle(&k));
            let seq = k.trace.recorded();
            pump_checked(&mut k);
            assert_eq!(k.stats.get("devices_dead"), 1);
            assert_eq!(k.devices[dev.0 as usize].state(), super::DeviceState::Dead);
            assert_eq!(k.device_of(obj).expect("object"), DeviceId(0));
            assert_traced(&k, seq, VmEvent::DeviceDrained { device: dev });
            assert_eq!(k.stats.get("devices_dead_drained"), 1);
            assert!(idle(&k));
        }

        #[test]
        fn a_draining_device_ready_to_finish_is_removed() {
            let mut k = small_kernel();
            let dev = k.add_device(hipec_disk::DeviceParams::default());
            assert!(idle(&k));
            // A drain that queued nothing, before its completion check (as
            // `remove_device` leaves the entry mid-call).
            let di = dev.0 as usize;
            k.devices[di].state = super::DeviceState::Draining;
            k.devices[di].drain_to = Some(DeviceId(0));
            assert!(!idle(&k), "an unfinished drain is work");
            let seq = k.trace.recorded();
            pump_checked(&mut k);
            assert_eq!(k.devices[di].state(), super::DeviceState::Removed);
            assert_eq!(k.stats.get("devices_removed"), 1);
            assert_traced(&k, seq, VmEvent::DeviceDrained { device: dev });
            assert!(idle(&k));
        }
    }
}

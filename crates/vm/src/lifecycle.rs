//! Device lifecycle: hot-unplug drains, permanent-failure escalation and
//! hot/cold tier migration.
//!
//! The device table stops being static here. [`Kernel::remove_device`]
//! drains a live device onto a surviving sibling: every bound object is
//! re-routed, its backing pages are queued as *migration copies* on the
//! survivor, parked torn retries are re-homed (budget-exempt — they carry
//! the drained page's only copy), and in-flight flushes complete naturally
//! with torn completions re-homing at reap time. The same drain runs when
//! a circuit breaker exhausts its backoff budget and the entry is declared
//! [`DeviceState::Dead`], and the same copy machinery serves steady-state
//! hot/cold migration between storage tiers
//! ([`Kernel::migrate_object`], [`Kernel::rebalance_tiers`]).
//!
//! Everything is driven by the pageout pump and the virtual clock, so a
//! drain against a mid-breaker-trip sibling parks deterministically and
//! resumes on that breaker's half-open probe windows — unplug storms
//! replay bit-for-bit.

use std::collections::HashSet;

use hipec_sim::IntSet;

use crate::counters::VmCounter;
use crate::device::{DeviceState, InflightMigration, MigrTag};
use crate::kernel::{Kernel, PumpBudget, RetryTag};
use crate::object::Backing;
use crate::trace::VmEvent;
use crate::types::{DeviceId, ObjectId, VmError};

impl Kernel {
    /// Hot-unplugs device `dev`: re-binds every object it backs onto the
    /// lowest-id surviving Active device, queues backing-page copies for
    /// the move, re-homes parked torn retries, and leaves in-flight
    /// flushes to complete (torn completions re-home at reap). Returns
    /// the survivor.
    ///
    /// The entry transitions `Active → Draining` immediately and reaches
    /// `Removed` once no outstanding work traces back to it — drive the
    /// pump ([`Kernel::pump`] / [`Kernel::next_flush_completion`]) to
    /// completion. The drain parks while the survivor's breaker is open
    /// and resumes on its half-open probes; no page is ever abandoned.
    pub fn remove_device(&mut self, dev: DeviceId) -> Result<DeviceId, VmError> {
        let di = dev.0 as usize;
        if di >= self.devices.len() {
            return Err(VmError::NoSuchDevice(dev));
        }
        if !self.devices[di].is_active() {
            return Err(VmError::DeviceUnavailable(dev));
        }
        let target = self.pick_survivor(dev)?;
        self.devices[di].state = DeviceState::Draining;
        if let Err(e) = self.drain_device(di, target, false) {
            // Extent allocation on the survivor failed before any state
            // was touched: the unplug is refused, the entry stays Active.
            self.devices[di].state = DeviceState::Active;
            self.devices[di].drain_to = None;
            return Err(e);
        }
        self.stats.bump(VmCounter::DevicesUnplugged);
        self.charge(self.cost.null_syscall);
        // An idle device with nothing to copy completes immediately.
        self.finish_drains();
        Ok(target)
    }

    /// Re-binds `object` to Active device `to`, queueing backing-page
    /// copies for every page the new device must be able to serve (all
    /// pages of a file object; the paged-out set of an anonymous one).
    /// Returns the number of copies queued. The copies are driven by the
    /// pump on the receiving device; in-flight work on the old device
    /// completes there and torn retries follow the object at reap time.
    pub fn migrate_object(&mut self, object: ObjectId, to: DeviceId) -> Result<u64, VmError> {
        let ti = to.0 as usize;
        if ti >= self.devices.len() {
            return Err(VmError::NoSuchDevice(to));
        }
        if !self.devices[ti].is_active() {
            return Err(VmError::DeviceUnavailable(to));
        }
        let (from, offs, size, need_extent) = {
            let o = self.object(object)?;
            let offs = copy_offsets(o.backing, o.size_pages, &o.paged_out);
            let need_extent =
                matches!(o.backing, Backing::File) || o.swap_allocated || !offs.is_empty();
            (o.device, offs, o.size_pages, need_extent)
        };
        if from == to {
            return Ok(0);
        }
        if need_extent && !self.devices[ti].backing.has_extent(object.0 as u64) {
            self.devices[ti].backing.allocate(object.0 as u64, size)?;
        }
        for off in &offs {
            let lba = self.devices[ti].backing.locate(object.0 as u64, *off)?.lba;
            self.devices[ti].migr_q.push(
                lba,
                MigrTag {
                    object,
                    offset: *off,
                    from,
                    attempts: 0,
                },
            );
        }
        let pages = offs.len() as u64;
        let om = self.object_mut(object)?;
        om.device = to;
        om.migrations += 1;
        self.stats.bump(VmCounter::ObjectMigrations);
        self.emit(VmEvent::ObjectMigrated {
            object,
            from,
            to,
            pages,
            forced: false,
        });
        self.charge(self.cost.null_syscall);
        Ok(pages)
    }

    /// Hot/cold tier rebalancing driven by per-object fault rates: objects
    /// with at least `hot_threshold` faults since the last call are
    /// promoted to the fastest Active tier, objects with none are demoted
    /// to the slowest; every fault counter then resets for the next
    /// interval. Returns `(promotions, demotions)`.
    pub fn rebalance_tiers(&mut self, hot_threshold: u64) -> (u64, u64) {
        let fast = self
            .devices
            .iter()
            .filter(|d| d.is_active())
            .max_by_key(|d| (d.tier(), std::cmp::Reverse(d.id.0)))
            .map(|d| d.id);
        let slow = self
            .devices
            .iter()
            .filter(|d| d.is_active())
            .min_by_key(|d| (d.tier(), d.id.0))
            .map(|d| d.id);
        let (Some(fast), Some(slow)) = (fast, slow) else {
            return (0, 0);
        };
        let mut promotions = 0;
        let mut demotions = 0;
        if fast != slow {
            for i in 0..self.objects.len() {
                let (oid, dev, faults) = {
                    let o = &self.objects[i];
                    (o.id, o.device, o.fault_rate)
                };
                if !self.devices[dev.0 as usize].is_active() {
                    continue;
                }
                if faults >= hot_threshold.max(1) && dev != fast {
                    if self.migrate_object(oid, fast).is_ok() {
                        promotions += 1;
                    }
                } else if faults == 0 && dev != slow && self.migrate_object(oid, slow).is_ok() {
                    demotions += 1;
                }
            }
        }
        for o in &mut self.objects {
            o.fault_rate = 0;
        }
        self.stats.add(VmCounter::TierPromotions, promotions);
        self.stats.add(VmCounter::TierDemotions, demotions);
        (promotions, demotions)
    }

    /// The lowest-id Active device other than `dev`.
    pub(crate) fn pick_survivor(&self, dev: DeviceId) -> Result<DeviceId, VmError> {
        self.devices
            .iter()
            .find(|d| d.is_active() && d.id != dev)
            .map(|d| d.id)
            .ok_or(VmError::LastDevice(dev))
    }

    /// The shared drain: re-binds every object bound to `devices[di]` onto
    /// `target`, allocating target extents up front (so an out-of-space
    /// survivor fails before any state changes), cancelling copies queued
    /// *onto* the dying entry (their offsets re-enter through the plan),
    /// queueing migration copies, and re-homing parked torn retries.
    pub(crate) fn drain_device(
        &mut self,
        di: usize,
        target: DeviceId,
        forced: bool,
    ) -> Result<(), VmError> {
        let dev = self.devices[di].id;
        let ti = target.0 as usize;
        // Pages whose frames sit in this device's retry queue or torn
        // in-flight list need no copy: the re-homed flush writes the page
        // to its new home directly.
        let mut rehoming: HashSet<(ObjectId, u64)> = HashSet::new();
        for p in self.devices[di].retry_q.iter() {
            if let Some((o, off)) = self.frames.frame(p.tag.frame)?.owner {
                rehoming.insert((o, off.0));
            }
        }
        for i in &self.devices[di].inflight {
            if i.torn {
                if let Some((o, off)) = self.frames.frame(i.frame)?.owner {
                    rehoming.insert((o, off.0));
                }
            }
        }
        // Plan (object id order — deterministic): which offsets each
        // re-bound object needs copied onto the target.
        let mut plan: Vec<(ObjectId, u64, Vec<u64>, bool)> = Vec::new();
        for o in &self.objects {
            if o.device != dev {
                continue;
            }
            let mut offs = copy_offsets(o.backing, o.size_pages, &o.paged_out);
            offs.retain(|off| !rehoming.contains(&(o.id, *off)));
            let need_extent =
                matches!(o.backing, Backing::File) || o.swap_allocated || !offs.is_empty();
            plan.push((o.id, o.size_pages, offs, need_extent));
        }
        // Allocate every needed target extent before mutating anything.
        for (oid, size, _, need_extent) in &plan {
            if *need_extent && !self.devices[ti].backing.has_extent(oid.0 as u64) {
                self.devices[ti].backing.allocate(oid.0 as u64, *size)?;
            }
        }
        self.devices[di].drain_to = Some(target);
        // Cancel copies queued onto the dying entry: the objects they
        // serve are bound to it, so the plan re-covers their offsets
        // against the new target.
        let mut cancelled = self.devices[di].migr_inflight.len() as u64;
        self.devices[di].migr_inflight.clear();
        while self.devices[di].migr_q.pop_next(0, |_| 0).is_some() {
            cancelled += 1;
        }
        if cancelled > 0 {
            self.stats.add(VmCounter::MigrationsCancelled, cancelled);
        }
        let objects = plan.len() as u64;
        let pages: u64 = plan.iter().map(|(_, _, v, _)| v.len() as u64).sum();
        self.emit(VmEvent::DeviceDraining {
            device: dev,
            to: target,
            objects,
            pages,
        });
        self.stats.bump(VmCounter::DeviceDrains);
        // Re-bind and queue the copies.
        for (oid, _, offs, _) in plan {
            for off in &offs {
                let lba = self.devices[ti].backing.locate(oid.0 as u64, *off)?.lba;
                self.devices[ti].migr_q.push(
                    lba,
                    MigrTag {
                        object: oid,
                        offset: *off,
                        from: dev,
                        attempts: 0,
                    },
                );
            }
            let n = offs.len() as u64;
            let om = self.object_mut(oid)?;
            om.device = target;
            om.migrations += 1;
            self.stats.bump(VmCounter::ObjectMigrations);
            if forced {
                self.stats.bump(VmCounter::ForcedMigrations);
                self.stats.add(VmCounter::ForcedMigrationPages, n);
            }
            self.emit(VmEvent::ObjectMigrated {
                object: oid,
                from: dev,
                to: target,
                pages: n,
                forced,
            });
        }
        // Re-home parked torn retries to their objects' new homes. Their
        // frames carry the only copy of the data, so the tags are marked
        // budget-exempt.
        let mut moved = Vec::new();
        while let Some(p) = self.devices[di].retry_q.pop_next(0, |_| 0) {
            moved.push(p.tag);
        }
        for tag in moved {
            let (o, off) = self
                .frames
                .frame(tag.frame)?
                .owner
                .expect("retry frames keep their owner");
            let home = self.object(o)?.device;
            let hi = home.0 as usize;
            let lba = self.devices[hi].backing.locate(o.0 as u64, off.0)?.lba;
            self.devices[hi].retry_q.push(
                lba,
                RetryTag {
                    frame: tag.frame,
                    attempts: tag.attempts,
                    rehomed_from: Some(dev),
                },
            );
            self.stats.bump(VmCounter::RetriesRehomed);
        }
        Ok(())
    }

    /// Escalates entries whose breaker reported `Exhausted` since the last
    /// pump: `→ Dead`, then the same drain as a hot-unplug (attributed as
    /// forced migration). Runs outside the re-issue loops.
    pub(crate) fn process_dead_pending(&mut self) {
        for di in 0..self.devices.len() {
            if !self.devices[di].dead_pending {
                continue;
            }
            self.devices[di].dead_pending = false;
            let was = self.devices[di].state;
            match was {
                DeviceState::Active | DeviceState::Draining => {}
                _ => continue,
            }
            let device = self.devices[di].id;
            let ewma_milli = self.devices[di].breaker.ewma_milli();
            self.devices[di].state = DeviceState::Dead;
            self.stats.bump(VmCounter::DevicesDead);
            self.emit(VmEvent::DeviceDead { device, ewma_milli });
            if was == DeviceState::Draining {
                // The unplug drain is already running; it continues
                // unchanged while the entry stays Dead.
                continue;
            }
            match self.pick_survivor(device) {
                Ok(target) => {
                    if self.drain_device(di, target, true).is_err() {
                        // The survivor has no room for the extents; the
                        // entry stays Dead with nothing re-bound.
                        self.stats.bump(VmCounter::DrainFailed);
                    }
                }
                Err(_) => {
                    // The last Active device died: its objects have
                    // nowhere to go and keep faulting against it.
                    self.stats.bump(VmCounter::DeadWithoutSurvivor);
                }
            }
        }
    }

    /// Drives one device's migration queue: reaps due copies (torn ones
    /// re-queue — migration copies are never abandoned), then submits
    /// queued copies while the breaker is closed — up to the pump call's
    /// shared submission budget — or as gated probes while it is open.
    /// Mirrors the torn-retry pump, so a drain against a tripped survivor
    /// parks and resumes on half-open probes.
    pub(crate) fn pump_migration(&mut self, di: usize, budget: &mut PumpBudget) {
        let now = self.clock.now();
        let mut done = Vec::new();
        self.devices[di].migr_inflight.retain(|m| {
            if m.done <= now {
                done.push(*m);
                false
            } else {
                true
            }
        });
        for m in done {
            if m.torn {
                self.stats.bump(VmCounter::MigrationRetries);
                self.devices[di].migr_q.push(m.lba, m.tag);
                continue;
            }
            self.devices[di].migr_done += 1;
            self.stats.bump(VmCounter::MigratedPages);
        }
        let mut still = Vec::new();
        while self.devices[di].breaker.is_closed() {
            if !self.devices[di].migr_q.is_empty() && budget.left == 0 {
                budget.deferred += self.devices[di].migr_q.len() as u64;
                break;
            }
            let Some(pending) = self.devices[di].migr_q.pop_next(0, |_| 0) else {
                break;
            };
            budget.left -= 1;
            let now = self.clock.now();
            match self.devices[di].disk.write(pending.lba, now) {
                Ok(c) => {
                    self.breaker_record_write(di, !c.torn);
                    #[cfg(feature = "metrics")]
                    self.devices[di].lat_flush.record(c.done.since(now));
                    self.devices[di].migr_inflight.push(InflightMigration {
                        done: c.done,
                        torn: c.torn,
                        lba: pending.lba,
                        tag: bump_attempts(pending.tag),
                    });
                }
                Err(_) => {
                    self.breaker_record_write(di, false);
                    self.stats.bump(VmCounter::MigrationRejects);
                    still.push((pending.lba, bump_attempts(pending.tag)));
                }
            }
        }
        for (lba, tag) in still {
            self.devices[di].migr_q.push(lba, tag);
        }
        if !self.devices[di].breaker.is_closed() {
            while self.devices[di]
                .breaker
                .probe_due(self.clock.now(), self.devices[di].degraded_inflight())
            {
                let Some(pending) = self.devices[di].migr_q.pop_next(0, |_| 0) else {
                    break;
                };
                let now = self.clock.now();
                match self.devices[di].disk.write(pending.lba, now) {
                    Ok(c) => {
                        self.breaker_record_write(di, !c.torn);
                        #[cfg(feature = "metrics")]
                        self.devices[di].lat_flush.record(c.done.since(now));
                        self.devices[di].migr_inflight.push(InflightMigration {
                            done: c.done,
                            torn: c.torn,
                            lba: pending.lba,
                            tag: bump_attempts(pending.tag),
                        });
                    }
                    Err(_) => {
                        self.breaker_record_write(di, false);
                        self.stats.bump(VmCounter::MigrationRejects);
                        // A failed probe pushed the next window out; keep
                        // FCFS order and wait for it.
                        self.devices[di]
                            .migr_q
                            .push_front(pending.lba, bump_attempts(pending.tag));
                    }
                }
            }
            if !self.devices[di].migr_q.is_empty() {
                self.devices[di].breaker.note_deferred();
            }
        }
    }

    /// Completes drains: a Draining entry becomes Removed (a Dead one is
    /// marked drained) once it holds no work and no migration copy or
    /// re-homed flush anywhere still traces back to it.
    pub(crate) fn finish_drains(&mut self) {
        for di in 0..self.devices.len() {
            if !self.devices[di].drain_unfinished() {
                continue;
            }
            let dev = self.devices[di].id;
            let local_idle = self.devices[di].inflight.is_empty()
                && self.devices[di].retry_q.is_empty()
                && self.devices[di].migr_q.is_empty()
                && self.devices[di].migr_inflight.is_empty();
            if !local_idle {
                continue;
            }
            let outstanding = self.devices.iter().any(|d| {
                d.migr_q.iter().any(|p| p.tag.from == dev)
                    || d.migr_inflight.iter().any(|m| m.tag.from == dev)
                    || d.retry_q.iter().any(|p| p.tag.rehomed_from == Some(dev))
                    || d.inflight.iter().any(|i| i.rehomed_from == Some(dev))
            });
            if outstanding {
                continue;
            }
            self.devices[di].drained = true;
            if self.devices[di].state == DeviceState::Draining {
                self.devices[di].state = DeviceState::Removed;
                self.stats.bump(VmCounter::DevicesRemoved);
            } else {
                self.stats.bump(VmCounter::DevicesDeadDrained);
            }
            self.emit(VmEvent::DeviceDrained { device: dev });
        }
    }
}

/// The offsets a device newly backing an object must be able to serve:
/// every page of a file object, the paged-out set of an anonymous one
/// (sorted — the set iterates in hash order).
fn copy_offsets(backing: Backing, size_pages: u64, paged_out: &IntSet<u64>) -> Vec<u64> {
    match backing {
        Backing::File => (0..size_pages).collect(),
        Backing::Anonymous => {
            let mut v: Vec<u64> = paged_out.iter().copied().collect();
            v.sort_unstable();
            v
        }
    }
}

/// One more submission on a migration copy (saturating — copies are never
/// abandoned, so long storms must not overflow the counter).
fn bump_attempts(tag: MigrTag) -> MigrTag {
    MigrTag {
        attempts: tag.attempts.saturating_add(1),
        ..tag
    }
}

#[cfg(test)]
mod tests {
    use hipec_disk::{DeviceParams, FaultConfig, FlashParams};

    use crate::device::DeviceState;
    use crate::kernel::{Kernel, KernelParams};
    use crate::types::{DeviceId, VAddr, VmError, PAGE_SIZE};

    fn tight_kernel() -> Kernel {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 64;
        p.wired_frames = 4;
        p.free_target = 8;
        p.free_min = 4;
        p.inactive_target = 12;
        Kernel::new(p)
    }

    /// Drives the pump until every write-back and migration lifecycle on
    /// every device has closed.
    fn drive(k: &mut Kernel) {
        for _ in 0..100_000 {
            let Some(t) = k.next_flush_completion() else {
                return;
            };
            k.clock.advance_to(t);
            k.pump();
        }
        panic!("pump did not quiesce");
    }

    fn state_of(k: &Kernel, dev: DeviceId) -> DeviceState {
        k.backing_device(dev).expect("device exists").state()
    }

    #[test]
    fn removing_an_idle_device_completes_immediately() {
        let mut k = tight_kernel();
        let dev = k.add_device(DeviceParams::default());
        let t = k.create_task();
        // An anonymous region that never pages out: nothing to copy.
        let (_, obj) = k.vm_allocate_on(dev, t, 4 * PAGE_SIZE).expect("allocate");
        let survivor = k.remove_device(dev).expect("unplug");
        assert_eq!(survivor, DeviceId(0));
        assert_eq!(state_of(&k, dev), DeviceState::Removed);
        assert_eq!(k.device_of(obj).expect("object"), DeviceId(0));
        assert_eq!(k.stats.get("devices_removed"), 1);
        // The table entry is never compacted; ids stay stable.
        assert_eq!(k.device_count(), 2);
    }

    #[test]
    fn removed_and_draining_devices_reject_new_bindings_and_reremoval() {
        let mut k = tight_kernel();
        let dev = k.add_device(DeviceParams::default());
        k.remove_device(dev).expect("unplug");
        let t = k.create_task();
        assert!(matches!(
            k.vm_allocate_on(dev, t, PAGE_SIZE),
            Err(VmError::DeviceUnavailable(_))
        ));
        assert!(matches!(
            k.remove_device(dev),
            Err(VmError::DeviceUnavailable(_))
        ));
        assert!(matches!(
            k.remove_device(DeviceId(0)),
            Err(VmError::LastDevice(_))
        ));
    }

    #[test]
    fn unplug_with_paged_out_data_copies_it_and_serves_reads_from_the_survivor() {
        let mut k = tight_kernel();
        let dev = k.add_device(DeviceParams::default());
        let t = k.create_task();
        let (addr, obj) = k.vm_allocate_on(dev, t, 100 * PAGE_SIZE).expect("allocate");
        for p in 0..100 {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), true)
                .expect("write");
        }
        drive(&mut k);
        assert!(k.stats.get("pageouts") > 0, "workload must page out");
        // The drain queues a copy for every paged-out page even though the
        // pump queue is empty; next_flush_completion must surface the
        // migration work so an event-driven driver reaches completion.
        k.remove_device(dev).expect("unplug");
        assert_eq!(state_of(&k, dev), DeviceState::Draining);
        assert!(
            k.next_flush_completion().is_some(),
            "queued migration copies must schedule pump progress"
        );
        drive(&mut k);
        assert_eq!(state_of(&k, dev), DeviceState::Removed);
        assert_eq!(k.device_of(obj).expect("object"), DeviceId(0));
        assert!(k.stats.get("migrated_pages") > 0);
        assert_eq!(k.stats.get("flush_abandoned"), 0);
        // Every page reads back through the survivor.
        for p in 0..100 {
            let r = k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false);
            assert!(r.is_ok(), "page {p} lost in the drain: {r:?}");
        }
        drive(&mut k);
        assert_eq!(k.pending_dead_flushes(), 0);
    }

    #[test]
    fn breaker_exhaustion_declares_the_device_dead_and_force_drains_it() {
        let mut k = tight_kernel();
        let dev = k.add_device(DeviceParams::default());
        // Every accepted write completes torn, forever: the breaker trips,
        // every half-open probe fails, the backoff pegs at its ceiling and
        // the dead budget runs out.
        k.set_fault_plan_on(
            dev,
            FaultConfig {
                torn_permille: 1000,
                ..FaultConfig::quiet(7)
            },
        );
        k.breaker_mut(dev).set_dead_budget(Some(2));
        let t = k.create_task();
        let (addr, obj) = k.vm_allocate_on(dev, t, 100 * PAGE_SIZE).expect("allocate");
        for p in 0..100 {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), true)
                .expect("write");
        }
        drive(&mut k);
        assert_eq!(state_of(&k, dev), DeviceState::Dead);
        assert_eq!(k.stats.get("devices_dead"), 1);
        assert_eq!(k.stats.get("breaker_exhausted"), 1);
        assert!(k.stats.get("forced_migrations") > 0);
        assert_eq!(k.device_of(obj).expect("object"), DeviceId(0));
        // The torn retries parked on the dead device re-homed to the
        // survivor and completed there: no page was abandoned.
        assert_eq!(k.stats.get("flush_abandoned"), 0);
        assert_eq!(k.pending_dead_flushes(), 0);
        assert!(k.stats.get("retries_rehomed") > 0);
        assert_eq!(k.stats.get("devices_dead_drained"), 1);
        for p in 0..100 {
            assert!(
                k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false).is_ok(),
                "page {p} lost in the escalation"
            );
        }
    }

    #[test]
    fn rebalance_promotes_hot_objects_to_flash_and_demotes_cold_ones() {
        let mut k = tight_kernel();
        let flash = k.add_device(DeviceParams::Flash(FlashParams::early_flash_card()));
        let t = k.create_task();
        let (hot_addr, hot) = k.vm_allocate(t, 4 * PAGE_SIZE).expect("hot");
        let (_, cold) = k.vm_allocate(t, 4 * PAGE_SIZE).expect("cold");
        for p in 0..4 {
            k.access(t, VAddr(hot_addr.0 + p * PAGE_SIZE), false)
                .expect("touch hot");
        }
        let (promoted, _) = k.rebalance_tiers(4);
        assert_eq!(promoted, 1);
        assert_eq!(k.device_of(hot).expect("hot"), flash);
        assert_eq!(k.device_of(cold).expect("cold"), DeviceId(0));
        assert_eq!(k.object(hot).expect("hot").migrations, 1);
        // Fault rates reset: with no new faults the hot object demotes back.
        let (_, demoted) = k.rebalance_tiers(4);
        assert!(demoted >= 1);
        assert_eq!(k.device_of(hot).expect("hot"), DeviceId(0));
        drive(&mut k);
    }

    #[test]
    fn migrate_object_carries_swapped_pages_to_the_new_device() {
        let mut k = tight_kernel();
        let dev = k.add_device(DeviceParams::default());
        let t = k.create_task();
        let (addr, obj) = k.vm_allocate(t, 100 * PAGE_SIZE).expect("allocate");
        for p in 0..100 {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), true)
                .expect("write");
        }
        drive(&mut k);
        let swapped = k.object(obj).expect("object").paged_out.len() as u64;
        assert!(swapped > 0);
        let copies = k.migrate_object(obj, dev).expect("migrate");
        assert_eq!(copies, swapped);
        drive(&mut k);
        assert_eq!(k.stats.get("migrated_pages"), copies);
        assert_eq!(k.device_of(obj).expect("object"), dev);
        for p in 0..100 {
            assert!(
                k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false).is_ok(),
                "page {p} unreadable after migration"
            );
        }
        drive(&mut k);
        assert_eq!(k.pending_dead_flushes(), 0);
    }
}

//! The pageout daemon: Mach's FIFO-with-second-chance replacement.
//!
//! This is the default-pool policy the paper's Table 2 re-expresses in HiPEC
//! commands: keep `inactive_target` pages on the inactive queue (clearing
//! their reference bits on the way), then reclaim from the inactive head —
//! referenced pages get a second chance back on the active queue, dirty
//! pages are flushed asynchronously, clean pages are freed.

use hipec_sim::SimTime;

use crate::counters::VmCounter;
use crate::kernel::{InflightFlush, Kernel};
use crate::trace::VmEvent;
use crate::types::{FrameId, VmError};

impl Kernel {
    /// Runs the pageout daemon until the free queue reaches `free_target`
    /// or no further progress is possible (everything left is in flight).
    pub(crate) fn pageout_scan(&mut self) -> Result<(), VmError> {
        self.stats.bump(VmCounter::Scans);
        let mut total_freed = 0;
        let mut total_flushed = 0;
        loop {
            let moved = self.refill_inactive()?;
            let (freed, flushed) = self.reclaim_inactive()?;
            total_freed += freed;
            total_flushed += flushed;
            if self.free_count() >= self.free_target || (moved + freed + flushed) == 0 {
                if self.free_count() < self.free_target && self.any_breaker_open() {
                    // The normal pass stalled and some device's breaker is
                    // tripped: its dirty pages cannot be flushed, so
                    // balance must make progress on clean pages alone,
                    // reference bits be damned. This is degraded mode's
                    // forced synchronous reclaim.
                    total_freed += self.forced_clean_reclaim()?;
                }
                self.emit(VmEvent::PageoutScan {
                    freed: total_freed,
                    flushed: total_flushed,
                });
                return Ok(());
            }
        }
    }

    /// Degraded-mode reclamation: free clean pages from the inactive (then
    /// active) queue regardless of reference bits. Dirty pages are skipped —
    /// they are the breaker's problem. Bounded by one pass over both queues.
    fn forced_clean_reclaim(&mut self) -> Result<u64, VmError> {
        let mut freed = 0;
        let mut budget = self.inactive_count() + self.active_count();
        while self.free_count() < self.free_target && budget > 0 {
            budget -= 1;
            let f = match self.frames.dequeue_head(self.inactive_q)? {
                Some(f) => f,
                None => match self.frames.dequeue_head(self.active_q)? {
                    Some(f) => f,
                    None => break,
                },
            };
            self.charge(self.cost.queue_op + self.cost.bit_op);
            if self.frames.frame(f)?.mod_bit {
                self.frames.enqueue_tail(self.inactive_q, f)?;
                continue;
            }
            self.evict_frame(f)?;
            self.frames.enqueue_tail(self.free_q, f)?;
            self.charge(self.cost.queue_op);
            freed += 1;
        }
        if freed > 0 {
            self.stats.add(VmCounter::ForcedSyncReclaims, freed);
        }
        Ok(freed)
    }

    /// Stage 1: move pages from the active head to the inactive tail,
    /// clearing reference bits, until the inactive target is met.
    fn refill_inactive(&mut self) -> Result<u64, VmError> {
        let mut moved = 0;
        while self.inactive_count() < self.inactive_target {
            let Some(f) = self.frames.dequeue_head(self.active_q)? else {
                break;
            };
            self.frames.frame_mut(f)?.ref_bit = false;
            self.frames.enqueue_tail(self.inactive_q, f)?;
            self.charge(self.cost.queue_op * 2 + self.cost.bit_op);
            moved += 1;
        }
        Ok(moved)
    }

    /// Stage 2: reclaim from the inactive head with second chance.
    ///
    /// A dirty page whose flush submission fails (injected device fault)
    /// goes back to the inactive tail and the scan moves on; the pop budget
    /// bounds the pass so an all-faulting device cannot livelock it.
    fn reclaim_inactive(&mut self) -> Result<(u64, u64), VmError> {
        let mut freed = 0;
        let mut flushed = 0;
        let mut budget = self.inactive_count();
        while self.free_count() < self.free_target && budget > 0 {
            budget -= 1;
            let Some(f) = self.frames.dequeue_head(self.inactive_q)? else {
                break;
            };
            self.charge(self.cost.queue_op + self.cost.bit_op);
            let frame = self.frames.frame(f)?;
            if frame.ref_bit {
                // Second chance: it was referenced while inactive.
                self.frames.frame_mut(f)?.ref_bit = false;
                self.frames.enqueue_tail(self.active_q, f)?;
                self.charge(self.cost.queue_op + self.cost.bit_op);
                self.stats.bump(VmCounter::Reactivations);
                continue;
            }
            if frame.mod_bit {
                match self.start_flush(f) {
                    Ok(_) => flushed += 1,
                    Err(VmError::Device(_)) => {
                        // The page is untouched (still dirty and resident);
                        // park it at the inactive tail for a later pass.
                        self.frames.enqueue_tail(self.inactive_q, f)?;
                    }
                    Err(e) => return Err(e),
                }
            } else {
                self.evict_frame(f)?;
                self.frames.enqueue_tail(self.free_q, f)?;
                self.charge(self.cost.queue_op);
                freed += 1;
            }
        }
        Ok((freed, flushed))
    }

    /// Starts an asynchronous write-back of a dirty frame.
    ///
    /// The frame is unmapped and evicted from its object immediately (a
    /// subsequent fault re-reads from the paging device, which the FIFO
    /// device ordering makes safe), marked busy, and its write is submitted.
    /// [`Kernel::pump`] frees it when the write completes. Returns the
    /// completion instant.
    pub fn start_flush(&mut self, frame: FrameId) -> Result<SimTime, VmError> {
        let (object, offset) = self
            .frames
            .frame(frame)?
            .owner
            .ok_or(VmError::FrameNotQueued(frame))?;
        // Route to the owning object's backing device.
        let device = self.object(object)?.device;
        let di = device.0 as usize;
        // While that device's breaker is tripped, flushes wait out the
        // backoff unless this submission can serve as a probe. Refusing
        // here consumes no fault-plan operation and leaves the page exactly
        // as it was; the caller sees the same device error a rejected
        // submission raises.
        if !self.devices[di].breaker.is_closed()
            && !self.devices[di]
                .breaker
                .probe_due(self.clock.now(), self.devices[di].degraded_inflight())
        {
            self.devices[di].breaker.note_deferred();
            self.stats.bump(VmCounter::FlushDeferred);
            return Err(VmError::Device(hipec_disk::DiskFault::WriteError(
                hipec_disk::Lba(0),
            )));
        }
        // Anonymous objects get a swap extent the first time any of their
        // pages is written out.
        let key = object.0 as u64;
        if !self.devices[di].backing.has_extent(key) {
            let size = self.object(object)?.size_pages;
            self.devices[di].backing.allocate(key, size)?;
        }
        // Submit the write *before* mutating any frame or object state: an
        // injected submission failure then leaves the page exactly as it
        // was (dirty, mapped, resident) and needs no rollback.
        let loc = self.devices[di].backing.locate(key, offset.0)?;
        let now = self.clock.now();
        let completion = match self.devices[di].disk.write(loc.lba, now) {
            Ok(c) => c,
            Err(fault) => {
                self.breaker_record_write(di, false);
                self.stats.bump(VmCounter::FlushErrors);
                return Err(VmError::Device(fault));
            }
        };
        self.breaker_record_write(di, !completion.torn);
        // Completion instants are known at submission in virtual time:
        // record the flush's service latency here.
        #[cfg(feature = "metrics")]
        self.devices[di]
            .lat_flush
            .record(completion.done.since(now));
        // Busy frames sit on no queue: detach callers that flush straight
        // off a queue (the pageout path has already dequeued its victim).
        if self.frames.queue_of(frame)?.is_some() {
            self.frames.remove(frame)?;
        }
        self.unmap_frame(frame)?;
        {
            let obj = self.object_mut(object)?;
            obj.swap_allocated = true;
            obj.paged_out.insert(offset.0);
            obj.evict(offset);
        }
        {
            let f = self.frames.frame_mut(frame)?;
            f.mod_bit = false;
            f.ref_bit = false;
            f.busy = true;
        }
        self.charge(self.cost.flush_handoff);
        self.devices[di].inflight.push(InflightFlush {
            done: completion.done,
            frame,
            torn: completion.torn,
            attempts: 1,
            rehomed_from: None,
        });
        self.stats.bump(VmCounter::Pageouts);
        self.emit(VmEvent::FlushStart {
            device,
            frame,
            torn: completion.torn,
        });
        Ok(completion.done)
    }
}

#[cfg(test)]
mod tests {
    use crate::kernel::{AccessOutcome, Kernel, KernelParams};
    use crate::types::{VAddr, PAGE_SIZE};

    fn tight_kernel() -> Kernel {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 64;
        p.wired_frames = 4;
        p.free_target = 8;
        p.free_min = 4;
        p.inactive_target = 12;
        Kernel::new(p)
    }

    #[test]
    fn clean_pages_are_reclaimed_without_io() {
        let mut k = tight_kernel(); // 60 pageable
        let t = k.create_task();
        let (addr, _) = k.vm_allocate(t, 100 * PAGE_SIZE).expect("allocate");
        // Read-only touches: pages stay clean, reclamation never writes.
        for p in 0..100 {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), false)
                .expect("access");
        }
        assert_eq!(k.stats.get("pageouts"), 0);
        assert!(k.stats.get("scans") > 0);
        // Zero-filled clean pages are dropped and re-zero-filled on return.
        assert_eq!(k.stats.get("pageins"), 0);
    }

    #[test]
    fn dirty_pages_are_flushed_and_read_back() {
        let mut k = tight_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_allocate(t, 100 * PAGE_SIZE).expect("allocate");
        for p in 0..100 {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), true)
                .expect("write");
        }
        assert!(k.stats.get("pageouts") > 0);
        // Sweep again: previously paged-out pages come back from swap.
        for p in 0..100 {
            let out = k
                .access(t, VAddr(addr.0 + p * PAGE_SIZE), false)
                .expect("read");
            if let AccessOutcome::Done(r) = out {
                if let Some(done) = r.io_until {
                    k.clock.advance_to(done);
                    k.pump();
                }
            }
        }
        assert!(k.stats.get("pageins") > 0, "swapped pages must page in");
    }

    #[test]
    fn second_chance_protects_referenced_pages() {
        let mut k = tight_kernel(); // 60 pageable frames
        let t = k.create_task();
        // A small hot set plus a large cold sweep. The hot pages are touched
        // between sweeps, so second chance must keep them resident.
        let (hot, _) = k.vm_allocate(t, 8 * PAGE_SIZE).expect("hot region");
        let (cold, _) = k.vm_allocate(t, 120 * PAGE_SIZE).expect("cold region");
        for p in 0..8 {
            k.access(t, VAddr(hot.0 + p * PAGE_SIZE), false)
                .expect("warm hot set");
        }
        let mut hot_faults_after_warmup = 0;
        for sweep in 0..4 {
            for p in 0..120 {
                k.access(t, VAddr(cold.0 + p * PAGE_SIZE), false)
                    .expect("cold");
                // Keep the hot set referenced throughout the sweep.
                if p % 10 == 0 {
                    for h in 0..8 {
                        let before = k.stats.get("faults");
                        k.access(t, VAddr(hot.0 + h * PAGE_SIZE), false)
                            .expect("hot");
                        if sweep > 0 {
                            hot_faults_after_warmup += k.stats.get("faults") - before;
                        }
                    }
                }
            }
        }
        assert!(k.stats.get("reactivations") > 0, "second chance must fire");
        // 288 post-warm-up hot touches: without second chance a 120-page
        // cyclic sweep over 60 frames would evict the hot set before every
        // burst (~96 faults). Second chance must keep it well below that.
        assert!(
            hot_faults_after_warmup < 72,
            "hot set was evicted {hot_faults_after_warmup} times"
        );
    }

    #[test]
    fn flush_completions_return_frames_to_free() {
        let mut k = tight_kernel();
        let t = k.create_task();
        let (addr, _) = k.vm_allocate(t, 100 * PAGE_SIZE).expect("allocate");
        for p in 0..100 {
            k.access(t, VAddr(addr.0 + p * PAGE_SIZE), true)
                .expect("write");
        }
        if let Some(done) = k.next_flush_completion() {
            k.clock.advance_to(done);
            k.pump();
            assert!(k.stats.get("flush_completions") > 0);
        }
    }
}

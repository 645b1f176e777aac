//! Container health tracking: policy quarantine and default-management
//! fallback.
//!
//! A policy that keeps tripping over a faulty paging device — surfaced
//! device faults, abandoned write-backs, device errors mid-event — is not
//! necessarily *malicious*, so killing it (the security checker's answer to
//! bad policies) would punish the application for the environment. Instead
//! each container carries a [`ContainerHealth`] state machine:
//!
//! ```text
//!   Healthy --(strikes >= degrade_after)--> Degraded
//!   Degraded --(strikes >= quarantine_after, or a timeout)--> Quarantined
//!   Degraded --(a clean checker interval decays strikes)--> Healthy
//!   Quarantined --(probation_intervals clean intervals,
//!                  breaker closed, restore sweep succeeds)--> Healthy
//! ```
//!
//! **Quarantine** stops HiPEC execution for the container without tearing
//! it down: its frames return to the global pool, its region reverts to the
//! built-in default FIFO manager (the object's container link is cleared,
//! so the pageout daemon's kernel-managed queues take over), but the
//! container keeps its program, queues and `minFrame` reservation.
//! **Probation** runs on the security checker's wakeup tick: after enough
//! strike-free intervals — and only once the circuit breaker of the device
//! the region pages against has closed — [`HipecKernel::try_restore`] sweeps
//! the region's default-managed pages back out, re-admits a first tranche of
//! the `minFrame` reservation and re-mounts the policy. The remaining
//! reservation ramps in one tranche per clean interval
//! ([`HealthPolicy::restore_tranche`]), so a just-recovered device is not
//! hit with the whole re-fault burst at once.

use hipec_vm::{FrameId, VmCounter};

use crate::error::HipecError;
use crate::kernel::HipecKernel;
use crate::trace::TraceEvent;

/// Where a container is in the degradation lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealthState {
    /// Executing normally.
    #[default]
    Healthy,
    /// Accumulating fault strikes; one clean checker interval decays them.
    Degraded,
    /// HiPEC execution suspended; the region runs under default management.
    Quarantined,
}

/// Per-container health record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ContainerHealth {
    /// Current state.
    pub state: HealthState,
    /// Fault strikes outstanding (decayed by clean checker intervals).
    pub strikes: u64,
    /// Strikes recorded during the current checker interval.
    pub interval_strikes: u64,
    /// Consecutive strike-free checker intervals while quarantined.
    pub clean_intervals: u32,
    /// Times this container entered quarantine.
    pub quarantines: u64,
    /// Times it was restored to HiPEC management.
    pub restores: u64,
}

impl ContainerHealth {
    /// True while the container's policy is suspended.
    pub fn quarantined(&self) -> bool {
        self.state == HealthState::Quarantined
    }
}

/// Kernel-wide thresholds of the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Strikes at which a healthy container degrades.
    pub degrade_after: u64,
    /// Strikes at which a degraded container is quarantined.
    pub quarantine_after: u64,
    /// Clean checker intervals required before a restore attempt.
    pub probation_intervals: u32,
    /// Frames a restore re-admits per tranche. The first tranche lands with
    /// the restore itself; each subsequent clean checker interval admits
    /// another until the `minFrame` reservation is whole. Re-admitting the
    /// whole reservation at once floods a freshly recovered device with the
    /// backlog of faults the quarantined region accumulated; ramping spreads
    /// that burst across probation-paced intervals. `0` disables ramping
    /// (single-sweep re-admission).
    pub restore_tranche: u64,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            degrade_after: 3,
            quarantine_after: 8,
            probation_intervals: 2,
            restore_tranche: 2,
        }
    }
}

impl HipecKernel {
    /// Records one environmental fault strike against container `cidx`
    /// (surfaced device fault, abandoned write-back, device error
    /// mid-event), advancing the health state machine.
    pub(crate) fn note_strike(&mut self, cidx: usize) {
        let Some(c) = self.containers.get(cidx) else {
            return;
        };
        if c.terminated || c.health.quarantined() {
            return;
        }
        self.containers[cidx].health.strikes += 1;
        self.containers[cidx].health.interval_strikes += 1;
        let strikes = self.containers[cidx].health.strikes;
        match self.containers[cidx].health.state {
            HealthState::Healthy if strikes >= self.health_policy.degrade_after => {
                self.containers[cidx].health.state = HealthState::Degraded;
                self.vm.stats.bump(VmCounter::HipecDegrades);
                self.emit(TraceEvent::HealthDegraded {
                    container: self.containers[cidx].key,
                    strikes,
                });
            }
            HealthState::Degraded if strikes >= self.health_policy.quarantine_after => {
                self.quarantine(cidx);
            }
            _ => {}
        }
    }

    /// Suspends container `cidx`'s policy and reverts its region to the
    /// default FIFO manager.
    ///
    /// Unlike [`HipecKernel::kill`] the container is *not* terminated: its
    /// program, queues and `minFrame` reservation survive for probation.
    /// Every frame it holds returns to the global pool (dirty pages whose
    /// flush submission the device refuses stay on its books, exactly as on
    /// the kill path, and are retried by the restore sweep), and clearing
    /// the object's container link routes subsequent faults through the
    /// default pageout path.
    pub(crate) fn quarantine(&mut self, cidx: usize) {
        let Some(c) = self.containers.get(cidx) else {
            return;
        };
        if c.terminated || c.health.quarantined() {
            return;
        }
        self.containers[cidx].health.state = HealthState::Quarantined;
        self.containers[cidx].health.clean_intervals = 0;
        self.containers[cidx].health.quarantines += 1;
        self.containers[cidx].exec_started = None;
        self.containers[cidx].runaway = false;
        // A ramp interrupted by re-quarantine is void: the next restore
        // starts a fresh one.
        self.containers[cidx].restore_pending = 0;
        let reclaimed = self.reclaim_all_frames(cidx);
        let object = self.containers[cidx].object;
        if let Ok(obj) = self.vm.object_mut(object) {
            obj.container = None;
        }
        self.revert_stranded_frames(cidx);
        self.vm.stats.bump(VmCounter::HipecQuarantines);
        self.emit(TraceEvent::Quarantined {
            container: self.containers[cidx].key,
            reclaimed,
        });
    }

    /// One probation pass over every live container, run on each security
    /// checker wakeup (the virtual-time interval the thresholds count in).
    ///
    /// Healthy containers just reset their interval counter; degraded ones
    /// decay a strike per clean interval and recover once below the degrade
    /// threshold; quarantined ones accumulate clean intervals toward a
    /// restore attempt.
    pub(crate) fn health_tick(&mut self) {
        let n = self.containers.len();
        let mut ramp_ready = vec![false; n];
        for (i, ready) in ramp_ready.iter_mut().enumerate() {
            if self.containers[i].terminated {
                continue;
            }
            let clean = self.containers[i].health.interval_strikes == 0;
            self.containers[i].health.interval_strikes = 0;
            match self.containers[i].health.state {
                HealthState::Healthy => {
                    // Ramped restore: each clean interval re-admits another
                    // tranche of the still-owed `minFrame` reservation.
                    *ready = clean && self.containers[i].restore_pending > 0;
                }
                HealthState::Degraded => {
                    if clean {
                        let strikes = self.containers[i].health.strikes.saturating_sub(1);
                        self.containers[i].health.strikes = strikes;
                        if strikes < self.health_policy.degrade_after {
                            self.containers[i].health.state = HealthState::Healthy;
                        }
                    }
                }
                HealthState::Quarantined => {
                    if clean {
                        self.containers[i].health.clean_intervals += 1;
                    } else {
                        self.containers[i].health.clean_intervals = 0;
                    }
                    if self.containers[i].health.clean_intervals
                        >= self.health_policy.probation_intervals
                    {
                        let _ = self.try_restore(i);
                    }
                }
            }
        }
        // Tranche order rotates one container per tick: when `admit_frames`
        // can only cover some of the concurrent ramps, each takes its turn
        // at the front instead of the lowest id draining the pool every
        // interval. Purely a function of kernel state (the cursor advances
        // with the tick count), so replay is bit-identical.
        if n > 0 {
            let start = self.ramp_cursor % n;
            for off in 0..n {
                let i = (start + off) % n;
                if ramp_ready[i] {
                    self.ramp_tick(i);
                }
            }
            self.ramp_cursor = (self.ramp_cursor + 1) % n;
        }
    }

    /// Admits one tranche of a ramping restore's outstanding `minFrame` debt
    /// (run by [`HipecKernel::health_tick`] on clean intervals only).
    /// Admission failure is not an error — the tranche simply waits for the
    /// next clean interval.
    fn ramp_tick(&mut self, cidx: usize) {
        let tranche = self
            .health_policy
            .restore_tranche
            .max(1)
            .min(self.containers[cidx].restore_pending);
        let Ok(frames) = self.admit_frames(tranche) else {
            return;
        };
        let admitted = frames.len() as u64;
        let free_q = self.containers[cidx].free_q;
        for f in frames {
            if self.vm.frames.enqueue_tail(free_q, f).is_err() {
                return;
            }
        }
        self.containers[cidx].allocated += admitted;
        self.gfm.total_specific += admitted;
        self.containers[cidx].restore_pending -= admitted;
        let outstanding = self.containers[cidx].restore_pending;
        self.emit(TraceEvent::RestoreRamp {
            container: self.containers[cidx].key,
            admitted,
            outstanding,
        });
    }

    /// Attempts to re-admit a quarantined container's policy. Returns true
    /// on success; a false return leaves the container quarantined and the
    /// next probation tick retries.
    ///
    /// Preconditions enforced here: the device circuit breaker must be
    /// closed (restoring onto a faulty device would immediately re-strike),
    /// any frames stuck on the container's books from the quarantine sweep
    /// must now be reclaimable, and the region's default-managed resident
    /// pages must all leave the global queues (flushed if dirty, freed if
    /// clean) before the container link goes back up — frames on the global
    /// active/inactive queues must never belong to a container-linked
    /// object (invariant 5).
    pub(crate) fn try_restore(&mut self, cidx: usize) -> bool {
        let Some(c) = self.containers.get(cidx) else {
            return false;
        };
        if c.terminated || !c.health.quarantined() {
            return false;
        }
        // Only the breaker of the device this region pages against gates the
        // restore: a storm on some other backing device is not this
        // container's problem.
        let device = match self.vm.device_of(c.object) {
            Ok(d) => d,
            Err(_) => return false,
        };
        if !self.vm.breaker(device).is_closed() {
            return false;
        }
        // Frames the quarantine sweep could not take (dirty pages the open
        // breaker refused to flush): the device is healthy now, retry.
        if self.containers[cidx].allocated > 0 {
            let _ = self.reclaim_all_frames(cidx);
            if self.containers[cidx].allocated > 0 {
                return false;
            }
        }
        let object = self.containers[cidx].object;
        let mut resident: Vec<FrameId> = match self.vm.object(object) {
            Ok(o) => o.resident.values().copied().collect(),
            Err(_) => return false,
        };
        // The residency map is a HashMap; sort for replay-stable order.
        resident.sort_unstable();
        for f in resident {
            let Ok(frame) = self.vm.frames.frame(f) else {
                return false;
            };
            if frame.busy || frame.wired {
                return false;
            }
            if frame.mod_bit {
                if self.vm.start_flush(f).is_err() {
                    return false;
                }
            } else if self.vm.evict_frame(f).is_err() || self.vm.return_frame(f).is_err() {
                return false;
            }
        }
        // Re-admit the minFrame reservation, reclaiming from other specific
        // applications if the free pool alone cannot cover it. With ramping
        // enabled only the first tranche lands here; the remainder is owed
        // via `restore_pending` and admitted a tranche per clean interval by
        // `health_tick`, so a freshly recovered device sees a paced trickle
        // of re-faults instead of the full post-restore burst.
        let want = self.containers[cidx].min_frames;
        let first = match self.health_policy.restore_tranche {
            0 => want,
            t => t.min(want),
        };
        let frames = match self.admit_frames(first) {
            Ok(fs) => fs,
            Err(HipecError::MinFramesUnavailable { .. }) => return false,
            Err(_) => return false,
        };
        let readmitted = frames.len() as u64;
        let free_q = self.containers[cidx].free_q;
        for f in frames {
            if self.vm.frames.enqueue_tail(free_q, f).is_err() {
                return false;
            }
        }
        self.containers[cidx].allocated += readmitted;
        self.gfm.total_specific += readmitted;
        self.containers[cidx].restore_pending = want.saturating_sub(readmitted);
        if let Ok(obj) = self.vm.object_mut(object) {
            obj.container = Some(self.containers[cidx].key);
        }
        let health = &mut self.containers[cidx].health;
        health.state = HealthState::Healthy;
        health.strikes = 0;
        health.interval_strikes = 0;
        health.clean_intervals = 0;
        health.restores += 1;
        self.vm.stats.bump(VmCounter::HipecRestores);
        self.emit(TraceEvent::FallbackRestored {
            container: self.containers[cidx].key,
            readmitted,
        });
        true
    }
}

#[cfg(test)]
mod tests {
    use hipec_vm::{DeviceId, KernelParams, PAGE_SIZE};

    use super::*;
    use crate::command::{build, NO_OPERAND};
    use crate::kernel::{ContainerKey, HipecKernel};
    use crate::operand::OperandDecl;
    use crate::program::PolicyProgram;

    fn small_kernel() -> HipecKernel {
        let mut p = KernelParams::paper_64mb();
        p.total_frames = 64;
        p.wired_frames = 4;
        p.free_target = 8;
        p.free_min = 4;
        p.inactive_target = 12;
        HipecKernel::new(p)
    }

    fn idle_program() -> PolicyProgram {
        let mut p = PolicyProgram::new();
        p.declare(OperandDecl::FreeQueue);
        p.declare(OperandDecl::Page);
        p.add_event("PageFault", vec![build::ret(NO_OPERAND)]);
        p.add_event("ReclaimFrame", vec![build::ret(NO_OPERAND)]);
        p
    }

    fn install(k: &mut HipecKernel, min: u64) -> ContainerKey {
        let t = k.vm.create_task();
        let (_, _, key) = k
            .vm_allocate_hipec(t, 32 * PAGE_SIZE, idle_program(), min)
            .expect("install");
        key
    }

    #[test]
    fn strikes_degrade_then_quarantine() {
        let mut k = small_kernel();
        let key = install(&mut k, 4);
        let i = key.0 as usize;
        for _ in 0..2 {
            k.note_strike(i);
        }
        assert_eq!(k.containers[i].health.state, HealthState::Healthy);
        k.note_strike(i);
        assert_eq!(k.containers[i].health.state, HealthState::Degraded);
        for _ in 0..4 {
            k.note_strike(i);
        }
        assert_eq!(k.containers[i].health.state, HealthState::Degraded);
        k.note_strike(i);
        assert_eq!(k.containers[i].health.state, HealthState::Quarantined);
        assert_eq!(k.containers[i].health.quarantines, 1);
        assert!(!k.containers[i].terminated, "quarantine is not a kill");
        assert_eq!(k.containers[i].allocated, 0, "frames returned to the pool");
        assert_eq!(
            k.vm.object(k.containers[i].object)
                .expect("object lives")
                .container,
            None,
            "region reverts to default management"
        );
        k.check_invariants().expect("consistent after quarantine");
    }

    #[test]
    fn clean_intervals_decay_degraded_back_to_healthy() {
        let mut k = small_kernel();
        let key = install(&mut k, 4);
        let i = key.0 as usize;
        for _ in 0..3 {
            k.note_strike(i);
        }
        assert_eq!(k.containers[i].health.state, HealthState::Degraded);
        // The interval the strikes landed in is itself dirty: the first
        // tick only clears the interval counter.
        k.health_tick();
        assert_eq!(k.containers[i].health.state, HealthState::Degraded);
        k.health_tick();
        assert_eq!(
            k.containers[i].health.state,
            HealthState::Healthy,
            "one clean interval decays below the degrade threshold"
        );
        assert_eq!(k.containers[i].health.strikes, 2);
    }

    #[test]
    fn probation_restores_a_quarantined_container() {
        let mut k = small_kernel();
        let key = install(&mut k, 4);
        let i = key.0 as usize;
        for _ in 0..8 {
            k.note_strike(i);
        }
        assert!(k.containers[i].health.quarantined());
        // The strike interval is dirty; then two clean checker intervals
        // (the default probation) earn the restore.
        k.health_tick();
        assert!(k.containers[i].health.quarantined(), "strike interval");
        k.health_tick();
        assert!(k.containers[i].health.quarantined(), "probation not yet up");
        k.health_tick();
        assert_eq!(k.containers[i].health.state, HealthState::Healthy);
        assert_eq!(k.containers[i].health.restores, 1);
        // The restore admits only the first tranche; the rest of the
        // reservation ramps in on subsequent clean intervals.
        let tranche = k.health_policy.restore_tranche;
        assert_eq!(k.containers[i].allocated, tranche);
        assert_eq!(
            k.containers[i].restore_pending,
            k.containers[i].min_frames - tranche
        );
        k.health_tick();
        assert_eq!(k.containers[i].allocated, k.containers[i].min_frames);
        assert_eq!(k.containers[i].restore_pending, 0);
        assert_eq!(
            k.vm.object(k.containers[i].object)
                .expect("object lives")
                .container,
            Some(key.0),
            "policy re-mounted"
        );
        k.check_invariants().expect("consistent after restore");
    }

    #[test]
    fn restore_waits_for_the_breaker_to_close() {
        let mut k = small_kernel();
        let key = install(&mut k, 4);
        let i = key.0 as usize;
        for _ in 0..8 {
            k.note_strike(i);
        }
        assert!(k.containers[i].health.quarantined());
        // Trip the region's device breaker: three consecutive failures.
        for _ in 0..3 {
            let now = k.vm.now();
            let _ = k.vm.breaker_mut(DeviceId(0)).record(now, false);
        }
        assert!(!k.vm.breaker(DeviceId(0)).is_closed());
        for _ in 0..5 {
            k.health_tick();
        }
        assert!(
            k.containers[i].health.quarantined(),
            "no restore onto a tripped device"
        );
        let _ = key;
    }

    #[test]
    fn quarantined_regions_fault_through_the_default_path() {
        let mut k = small_kernel();
        let t = k.vm.create_task();
        let (addr, _, key) = k
            .vm_allocate_hipec(t, 8 * PAGE_SIZE, idle_program(), 4)
            .expect("install");
        let i = key.0 as usize;
        for _ in 0..8 {
            k.note_strike(i);
        }
        assert!(k.containers[i].health.quarantined());
        // The idle policy returns no page, so a policy-routed fault would
        // kill the container; under default management the access succeeds.
        let faults_before = k.containers[i].stats.faults;
        k.access_sync(t, addr, false)
            .expect("default path serves it");
        assert!(!k.containers[i].terminated);
        assert_eq!(k.containers[i].stats.faults, faults_before);
        k.check_invariants().expect("consistent under fallback");
    }
}

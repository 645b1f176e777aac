//! Typed event counters of the VM layer.
//!
//! Every counter the kernel (or the HiPEC layer above it) bumps is a
//! [`VmCounter`] variant, so a bump is an array index instead of a
//! string-keyed map update, and a misspelt counter at a bump site is a
//! compile error. [`VmStats`] keeps the reader contract of the string-keyed
//! set it replaced: [`VmStats::get`] reads by name, [`VmStats::iter`] yields
//! `(name, value)` in name order, and a counter appears in the iteration
//! once it has been touched — including by `add(counter, 0)` — so snapshot
//! and export bytes do not depend on how the counters are stored.

macro_rules! vm_counters {
    ($($variant:ident => $name:literal,)*) => {
        /// One VM event counter. Variants are declared in name order, so a
        /// variant's index is its rank in name order.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum VmCounter {
            $(#[doc = concat!("`", $name, "`")] $variant,)*
        }

        impl VmCounter {
            /// Every counter, in name order.
            pub const ALL: &'static [VmCounter] = &[$(VmCounter::$variant,)*];
            /// Counter names, indexed like [`VmCounter::ALL`].
            const NAMES: &'static [&'static str] = &[$($name,)*];
        }
    };
}

vm_counters! {
    AdmissionRejects => "admission_rejects",
    BreakerCloses => "breaker_closes",
    BreakerExhausted => "breaker_exhausted",
    BreakerTrips => "breaker_trips",
    DeadWithoutSurvivor => "dead_without_survivor",
    DeallocatedFrames => "deallocated_frames",
    DeviceDrains => "device_drains",
    DevicesDead => "devices_dead",
    DevicesDeadDrained => "devices_dead_drained",
    DevicesRemoved => "devices_removed",
    DevicesUnplugged => "devices_unplugged",
    DrainFailed => "drain_failed",
    Faults => "faults",
    FlushAbandoned => "flush_abandoned",
    FlushCompletions => "flush_completions",
    FlushDeferred => "flush_deferred",
    FlushErrors => "flush_errors",
    FlushRetries => "flush_retries",
    FlushRetryErrors => "flush_retry_errors",
    ForcedMigrationPages => "forced_migration_pages",
    ForcedMigrations => "forced_migrations",
    ForcedSyncReclaims => "forced_sync_reclaims",
    HipecDeallocations => "hipec_deallocations",
    HipecDegrades => "hipec_degrades",
    HipecInstalls => "hipec_installs",
    HipecKills => "hipec_kills",
    HipecQuarantines => "hipec_quarantines",
    HipecRestores => "hipec_restores",
    Hits => "hits",
    MigratedPages => "migrated_pages",
    MigrationRejects => "migration_rejects",
    MigrationRetries => "migration_retries",
    MigrationsCancelled => "migrations_cancelled",
    MinorFaults => "minor_faults",
    ObjectMigrations => "object_migrations",
    Pageins => "pageins",
    Pageouts => "pageouts",
    PumpBudgetDeferrals => "pump_budget_deferrals",
    Reactivations => "reactivations",
    ReadErrors => "read_errors",
    RetriesRehomed => "retries_rehomed",
    Scans => "scans",
    TierDemotions => "tier_demotions",
    TierPromotions => "tier_promotions",
    TornFlushes => "torn_flushes",
    ZeroFills => "zero_fills",
}

impl VmCounter {
    /// Number of counters.
    pub const COUNT: usize = Self::ALL.len();

    /// The counter's snapshot and export name.
    pub fn name(self) -> &'static str {
        Self::NAMES[self as usize]
    }

    /// The counter named `name`, if there is one.
    pub fn from_name(name: &str) -> Option<VmCounter> {
        Self::NAMES.binary_search(&name).ok().map(|i| Self::ALL[i])
    }
}

// `VmStats::touched` holds one bit per counter.
const _: () = assert!(VmCounter::COUNT <= u64::BITS as usize);

/// The VM layer's event counters: one `u64` per [`VmCounter`].
#[derive(Debug, Clone)]
pub struct VmStats {
    values: [u64; VmCounter::COUNT],
    /// Bit `i` is set once counter `i` has been added to (even by zero);
    /// only touched counters appear in [`VmStats::iter`].
    touched: u64,
}

impl Default for VmStats {
    fn default() -> Self {
        VmStats {
            values: [0; VmCounter::COUNT],
            touched: 0,
        }
    }
}

impl VmStats {
    /// Adds `n` to `counter`, making it visible to [`VmStats::iter`] even
    /// when `n` is zero.
    #[inline]
    pub fn add(&mut self, counter: VmCounter, n: u64) {
        self.values[counter as usize] += n;
        self.touched |= 1 << counter as usize;
    }

    /// Increments `counter` by one.
    #[inline]
    pub fn bump(&mut self, counter: VmCounter) {
        self.add(counter, 1);
    }

    /// Reads the counter named `name` (zero if never touched).
    ///
    /// # Panics
    /// If `name` is not a [`VmCounter`] name, so a misspelt read fails
    /// instead of silently reading zero.
    pub fn get(&self, name: &str) -> u64 {
        let counter =
            VmCounter::from_name(name).unwrap_or_else(|| panic!("`{name}` is not a VM counter"));
        self.values[counter as usize]
    }

    /// Iterates over the touched counters as `(name, value)`, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        VmCounter::ALL
            .iter()
            .filter(|&&c| self.touched & (1 << c as usize) != 0)
            .map(|&c| (c.name(), self.values[c as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_strictly_sorted_and_round_trip() {
        assert!(VmCounter::NAMES.windows(2).all(|w| w[0] < w[1]));
        for &c in VmCounter::ALL {
            assert_eq!(VmCounter::from_name(c.name()), Some(c));
        }
        assert_eq!(VmCounter::from_name("hit"), None);
    }

    #[test]
    fn add_zero_makes_a_counter_visible_and_iteration_is_name_ordered() {
        let mut s = VmStats::default();
        assert_eq!(s.iter().count(), 0);
        s.bump(VmCounter::ZeroFills);
        s.add(VmCounter::DeallocatedFrames, 0);
        s.add(VmCounter::Hits, 3);
        s.bump(VmCounter::Hits);
        let rows: Vec<_> = s.iter().collect();
        assert_eq!(
            rows,
            [("deallocated_frames", 0), ("hits", 4), ("zero_fills", 1)]
        );
        assert_eq!(s.get("hits"), 4);
        assert_eq!(s.get("faults"), 0, "untouched counters read zero");
    }

    #[test]
    #[should_panic(expected = "`hitz` is not a VM counter")]
    fn reading_an_unknown_name_panics() {
        VmStats::default().get("hitz");
    }
}

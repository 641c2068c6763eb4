//! The deterministic chaos nemesis: a seeded schedule composer.
//!
//! A nemesis run interleaves every fault dimension the stack already has —
//! crash/overload pressure (ingest bursts), network partitions, in-memory
//! replica corruption, on-disk bit-rot, and failovers — into one soak
//! schedule. The composer is **pure**: same seed, same schedule, no clock
//! and no I/O. The driver (tests/chaos.rs, the bench harness) executes the
//! events against a live [`crate::Cluster`] and asserts that the cluster
//! reconverges byte-identically afterwards, with nothing lost or
//! duplicated.
//!
//! Schedules are self-closing by construction: every `Partition` is
//! followed by a matching `Heal`, every disruption is eventually followed
//! by a `Scrub` (which repairs what it finds), and the schedule ends with
//! heal-everything / rejoin-everyone / scrub — so a run that does *not*
//! converge indicates a repair bug, never an unfinished schedule.

/// One step of a nemesis schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NemesisEvent {
    /// Ingest the next `n` annotations through the cluster.
    Ingest(u32),
    /// Cut every transport link to `node`.
    Partition {
        /// The node to isolate.
        node: usize,
    },
    /// Restore every transport link to `node`.
    Heal {
        /// The node to reconnect.
        node: usize,
    },
    /// Corrupt replica `replica`'s in-memory state
    /// ([`crate::Replica::chaos_corrupt`]).
    Corrupt {
        /// The replica to poison.
        replica: usize,
    },
    /// Roll the seeded bit-rot sites against the primary's durability
    /// directory ([`nebula_durable::inject_rot`]).
    BitRot,
    /// Run an anti-entropy scrub and repair everything it finds.
    Scrub,
    /// Quiesce, then promote the best failover candidate (epoch bump;
    /// the old primary is deposed).
    Failover,
    /// Re-admit every deposed primary as a replica of the current epoch.
    Rejoin,
    /// Ingest `n` annotations as one unthrottled burst (overload
    /// pressure for the admission-control path).
    Burst(u32),
    /// Flip one at-rest bit in the paged store's page file. The `Scrub`
    /// that follows must detect it with zero false positives and heal it
    /// in place (single-bit rot corrects via CRC linearity).
    PageRot,
    /// Flush the paged store while `PageFsync`/`PageWrite` faults are
    /// armed: the failed shadow commit must leave the old on-disk image
    /// intact, and the retry after the plan clears must land every page.
    PageFsyncFail,
    /// Sweep every live record in the paged store through a buffer pool
    /// smaller than the file, driving the clock hand through full
    /// eviction churn while reads stay byte-correct.
    EvictStorm,
    /// Checkpoint the primary's log (sealing the live WAL run into the
    /// archive) and capture a verified bundle, recording the state digest
    /// at the bundle's head LSN for a later [`NemesisEvent::RestoreCheck`].
    Backup,
    /// Flip at-rest bits in the archived history (the seeded
    /// `ArchiveRot` site). The [`NemesisEvent::BackupScrub`] that follows
    /// must find every flip before any restore trusts the files.
    ArchiveRot,
    /// Re-derive every digest in the archive and the newest bundle; the
    /// driver asserts the scrub finds exactly the injected rot (100%
    /// detection, zero false positives) and re-captures a clean bundle.
    BackupScrub,
    /// Restore the most recent clean bundle into a scratch engine and
    /// assert its digest matches the one recorded at capture time —
    /// point-in-time recovery proven mid-soak, not just at the end.
    RestoreCheck,
}

/// The optional fault dimensions a schedule composes on top of the core
/// ones (ingest, partitions, corruption, bit-rot, failover, bursts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NemesisDims {
    /// Page rot, fsync-failed shadow commits and eviction storms against
    /// a paged store.
    pub disk: bool,
    /// Bundle captures, archive rot, backup scrubs and mid-soak restore
    /// checks.
    pub backup: bool,
}

impl NemesisDims {
    /// The core dimensions only.
    pub const CORE: NemesisDims = NemesisDims { disk: false, backup: false };
    /// The core dimensions plus the disk dimension.
    pub const DISK: NemesisDims = NemesisDims { disk: true, backup: false };
    /// The core dimensions plus the backup dimension.
    pub const BACKUP: NemesisDims = NemesisDims { disk: false, backup: true };
}

/// A composed schedule plus the seed that produced it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NemesisPlan {
    /// The composing seed.
    pub seed: u64,
    /// Replica count the schedule was composed for.
    pub replicas: usize,
    /// The optional dimensions composed in.
    pub dims: NemesisDims,
    /// Total annotations across all `Ingest`/`Burst` events.
    pub total_ops: u64,
    /// The schedule, in execution order.
    pub events: Vec<NemesisEvent>,
}

impl NemesisPlan {
    /// How many events of each disruptive kind the plan holds, for
    /// asserting a soak actually exercised every dimension.
    pub fn disruption_counts(&self) -> (usize, usize, usize, usize, usize) {
        let mut partitions = 0;
        let mut corruptions = 0;
        let mut rots = 0;
        let mut failovers = 0;
        let mut bursts = 0;
        for e in &self.events {
            match e {
                NemesisEvent::Partition { .. } => partitions += 1,
                NemesisEvent::Corrupt { .. } => corruptions += 1,
                NemesisEvent::BitRot => rots += 1,
                NemesisEvent::Failover => failovers += 1,
                NemesisEvent::Burst(_) => bursts += 1,
                _ => {}
            }
        }
        (partitions, corruptions, rots, failovers, bursts)
    }

    /// How many backup-dimension events the plan holds:
    /// `(backups, archive_rots, backup_scrubs, restore_checks)`.
    pub fn backup_disruption_counts(&self) -> (usize, usize, usize, usize) {
        let mut backups = 0;
        let mut rots = 0;
        let mut scrubs = 0;
        let mut checks = 0;
        for e in &self.events {
            match e {
                NemesisEvent::Backup => backups += 1,
                NemesisEvent::ArchiveRot => rots += 1,
                NemesisEvent::BackupScrub => scrubs += 1,
                NemesisEvent::RestoreCheck => checks += 1,
                _ => {}
            }
        }
        (backups, rots, scrubs, checks)
    }

    /// How many disk-dimension disruptions the plan holds:
    /// `(page_rots, fsync_fails, evict_storms)`.
    pub fn disk_disruption_counts(&self) -> (usize, usize, usize) {
        let mut rots = 0;
        let mut fsyncs = 0;
        let mut storms = 0;
        for e in &self.events {
            match e {
                NemesisEvent::PageRot => rots += 1,
                NemesisEvent::PageFsyncFail => fsyncs += 1,
                NemesisEvent::EvictStorm => storms += 1,
                _ => {}
            }
        }
        (rots, fsyncs, storms)
    }
}

/// xorshift64* — the same tiny deterministic generator the fault plans
/// use, reimplemented here so the composer stays clock- and plan-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Compose a deterministic chaos schedule for a cluster with `replicas`
/// replicas, ingesting `total_ops` annotations in all, over the core
/// dimensions plus the optional ones in `dims`. Pure: same inputs, same
/// schedule.
///
/// The disk dimension adds at-rest page rot, fsync-failed shadow commits
/// and eviction storms; every `PageRot` is followed by a `Scrub` (which
/// must heal it). The backup dimension adds bundle captures, at-rest
/// archive rot, backup scrubs and mid-soak restore checks: the rot and
/// restore slots compose a `Backup` first if none exists yet, every
/// `ArchiveRot` is followed by a `BackupScrub`, and a schedule that
/// captured any bundle ends with a final `BackupScrub` + `RestoreCheck`
/// after convergence.
pub fn compose_schedule(
    seed: u64,
    replicas: usize,
    dims: NemesisDims,
    total_ops: u64,
) -> NemesisPlan {
    let mut rng = Rng(seed ^ 0x9E37_79B9_7F4A_7C15);
    let mut events = Vec::new();
    let mut remaining = total_ops;
    let mut open_partition: Option<usize> = None;
    let mut deposed_pending = false;
    let mut backup_taken = false;
    let NemesisDims { disk, backup } = dims;
    // Slot layout: 0..8 core (7 is a calm slot), then 3 disk slots when
    // paged, then 3 backup slots when archiving. The layout is fixed so
    // that plans stay byte-identical across releases (pinned by
    // `plans_match_golden_digests`).
    const DISK_BASE: u64 = 8;
    let backup_base = DISK_BASE + if disk { 3 } else { 0 };
    let slots = backup_base + if backup { 3 } else { 0 };

    // Reserve a calm tail so the final convergence runs over real traffic.
    let tail = (total_ops / 10).clamp(10, 50).min(total_ops);
    while remaining > tail {
        let chunk = (20 + rng.below(41)).min(remaining - tail) as u32;
        events.push(NemesisEvent::Ingest(chunk));
        remaining -= u64::from(chunk);
        if remaining <= tail {
            break;
        }
        match rng.below(slots) {
            0 | 1 => {
                // Partition a replica for the next chunk, then heal it.
                if open_partition.is_none() && replicas > 0 {
                    let node = 1 + rng.below(replicas as u64) as usize;
                    events.push(NemesisEvent::Partition { node });
                    open_partition = Some(node);
                } else if let Some(node) = open_partition.take() {
                    events.push(NemesisEvent::Heal { node });
                    events.push(NemesisEvent::Scrub);
                }
            }
            2 if replicas > 0 => {
                let replica = 1 + rng.below(replicas as u64) as usize;
                // Never poison the partitioned node: its divergence
                // would go undetected until after the heal, crossing
                // wires with the partition's own repair.
                if open_partition != Some(replica) {
                    events.push(NemesisEvent::Corrupt { replica });
                    events.push(NemesisEvent::Scrub);
                }
            }
            3 => {
                events.push(NemesisEvent::BitRot);
                events.push(NemesisEvent::Scrub);
            }
            4 => {
                // A failover needs every link up to quiesce cleanly.
                if let Some(node) = open_partition.take() {
                    events.push(NemesisEvent::Heal { node });
                }
                events.push(NemesisEvent::Failover);
                deposed_pending = true;
            }
            5 if deposed_pending => {
                events.push(NemesisEvent::Rejoin);
                deposed_pending = false;
            }
            6 => {
                let n = (30 + rng.below(31)).min(remaining - tail) as u32;
                if n > 0 {
                    events.push(NemesisEvent::Burst(n));
                    remaining -= u64::from(n);
                }
            }
            n if disk && n == DISK_BASE => {
                events.push(NemesisEvent::PageRot);
                events.push(NemesisEvent::Scrub);
            }
            n if disk && n == DISK_BASE + 1 => {
                events.push(NemesisEvent::PageFsyncFail);
            }
            n if disk && n == DISK_BASE + 2 => {
                events.push(NemesisEvent::EvictStorm);
            }
            n if backup && n == backup_base => {
                events.push(NemesisEvent::Backup);
                backup_taken = true;
            }
            n if backup && n == backup_base + 1 => {
                // Rot needs archived bytes to damage; capture first.
                if !backup_taken {
                    events.push(NemesisEvent::Backup);
                    backup_taken = true;
                }
                events.push(NemesisEvent::ArchiveRot);
                events.push(NemesisEvent::BackupScrub);
            }
            n if backup && n == backup_base + 2 => {
                if !backup_taken {
                    events.push(NemesisEvent::Backup);
                    backup_taken = true;
                }
                events.push(NemesisEvent::RestoreCheck);
            }
            _ => {} // calm stretch
        }
    }

    // Close the schedule: heal, re-admit, scrub, and drain the tail.
    if let Some(node) = open_partition.take() {
        events.push(NemesisEvent::Heal { node });
    }
    events.push(NemesisEvent::Rejoin);
    events.push(NemesisEvent::Scrub);
    if remaining > 0 {
        events.push(NemesisEvent::Ingest(remaining as u32));
    }
    events.push(NemesisEvent::Scrub);
    // A soak that captured any bundle proves recovery end-to-end: scrub
    // the archive one last time, then restore and compare digests.
    if backup && backup_taken {
        events.push(NemesisEvent::BackupScrub);
        events.push(NemesisEvent::RestoreCheck);
    }

    NemesisPlan { seed, replicas, dims, total_ops, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ingest_total(plan: &NemesisPlan) -> u64 {
        plan.events
            .iter()
            .map(|e| match e {
                NemesisEvent::Ingest(n) | NemesisEvent::Burst(n) => u64::from(*n),
                _ => 0,
            })
            .sum()
    }

    /// FNV-1a over the `Debug` rendering of a plan's events.
    fn digest(plan: &NemesisPlan) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in format!("{:?}", plan.events).bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// Every (replicas, dims, ops) shape the chaos soaks compose, plus
    /// both optional dimensions at once, pinned to digests recorded from
    /// the earlier per-dimension composers this one replaced. A change to
    /// the slot layout or the draw order fails here first.
    #[test]
    fn plans_match_golden_digests() {
        let both = NemesisDims { disk: true, backup: true };
        #[rustfmt::skip]
        let golden: &[(u64, usize, NemesisDims, u64, u64, usize)] = &[
            (0xF00D, 2, NemesisDims::CORE, 500, 0x9376_ce8d_2964_579f, 25),
            (0xF00D, 0, NemesisDims::DISK, 600, 0x0a35_441d_e3e1_c16a, 27),
            (0xF00D, 2, NemesisDims::BACKUP, 500, 0x5348_7b7a_17de_cbba, 26),
            (0xF00D, 2, both, 2500, 0x8b0e_baf9_00f0_bcc0, 142),
            (0xBAD5EED, 2, NemesisDims::CORE, 500, 0xd357_346c_0cba_71a7, 30),
            (0xBAD5EED, 0, NemesisDims::DISK, 600, 0x2c53_06db_80cf_0d8f, 25),
            (0xBAD5EED, 2, NemesisDims::BACKUP, 500, 0x0576_3f03_c6f8_1a05, 26),
            (0xBAD5EED, 2, both, 2500, 0xbf5f_5aa1_a4fa_d206, 135),
            (12345, 2, NemesisDims::CORE, 500, 0x560a_153d_908c_fed6, 26),
            (12345, 0, NemesisDims::DISK, 600, 0x2c11_0907_f2d1_0d46, 23),
            (12345, 2, NemesisDims::BACKUP, 500, 0x1f91_4a39_e67b_ec0b, 29),
            (12345, 2, both, 2500, 0x6e03_1679_ef6b_e4f4, 115),
            (0xDEAD, 2, NemesisDims::CORE, 500, 0xcce4_8648_5273_8844, 23),
            (0xDEAD, 0, NemesisDims::DISK, 600, 0x1f70_4722_0e52_c918, 27),
            (0xDEAD, 2, NemesisDims::BACKUP, 500, 0xccb4_905e_4834_7811, 27),
            (0xDEAD, 2, both, 2500, 0xd5bf_859d_37b0_8ce8, 146),
        ];
        for &(seed, replicas, dims, ops, want, len) in golden {
            let plan = compose_schedule(seed, replicas, dims, ops);
            assert_eq!(
                (digest(&plan), plan.events.len()),
                (want, len),
                "seed {seed:#x} replicas={replicas} {dims:?} ops={ops}: plan drifted"
            );
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = compose_schedule(0xF00D, 2, NemesisDims::CORE, 500);
        let b = compose_schedule(0xF00D, 2, NemesisDims::CORE, 500);
        assert_eq!(a, b);
        let c = compose_schedule(0xF00E, 2, NemesisDims::CORE, 500);
        assert_ne!(a.events, c.events);
    }

    #[test]
    fn ingest_totals_are_exact() {
        for seed in [1u64, 0xF00D, 0xBAD5EED, 12345] {
            let plan = compose_schedule(seed, 3, NemesisDims::CORE, 500);
            assert_eq!(ingest_total(&plan), 500, "seed {seed:#x}");
        }
    }

    #[test]
    fn partitions_are_always_healed_and_schedule_self_closes() {
        for seed in [7u64, 0xF00D, 0xBAD5EED, 12345, 999] {
            let plan = compose_schedule(seed, 2, NemesisDims::CORE, 600);
            let mut open: Option<usize> = None;
            for e in &plan.events {
                match e {
                    NemesisEvent::Partition { node } => {
                        assert!(open.is_none(), "seed {seed:#x}: overlapping partitions");
                        open = Some(*node);
                    }
                    NemesisEvent::Heal { node } => {
                        assert_eq!(open, Some(*node), "seed {seed:#x}: heal without partition");
                        open = None;
                    }
                    NemesisEvent::Failover => {
                        assert!(open.is_none(), "seed {seed:#x}: failover under partition");
                    }
                    _ => {}
                }
            }
            assert!(open.is_none(), "seed {seed:#x}: schedule ends partitioned");
            // Every schedule ends with rejoin + scrub before/after the tail.
            assert!(plan.events.iter().any(|e| matches!(e, NemesisEvent::Rejoin)));
            assert!(matches!(plan.events.last(), Some(NemesisEvent::Scrub)));
        }
    }

    #[test]
    fn disk_schedules_self_close_every_page_rot_with_a_scrub() {
        for seed in [7u64, 0xF00D, 0xBAD5EED, 12345, 999] {
            let plan = compose_schedule(seed, 2, NemesisDims::DISK, 1500);
            assert!(plan.dims.disk);
            let mut pending_rot = false;
            for e in &plan.events {
                match e {
                    NemesisEvent::PageRot => pending_rot = true,
                    NemesisEvent::Scrub => pending_rot = false,
                    _ => {}
                }
            }
            assert!(!pending_rot, "seed {seed:#x}: schedule ends with unhealed page rot");
            assert_eq!(ingest_total(&plan), 1500, "seed {seed:#x}: ingest total drifted");
        }
    }

    #[test]
    fn disk_soaks_exercise_the_disk_dimension() {
        let plan = compose_schedule(0xF00D, 2, NemesisDims::DISK, 2500);
        let (rots, fsyncs, storms) = plan.disk_disruption_counts();
        assert!(rots > 0, "no page rot composed");
        assert!(fsyncs > 0, "no fsync failures composed");
        assert!(storms > 0, "no eviction storms composed");
        // The core dimensions keep firing alongside the disk ones.
        let (partitions, corruptions, wal_rots, failovers, bursts) = plan.disruption_counts();
        assert!(partitions > 0 && corruptions > 0 && wal_rots > 0);
        assert!(failovers > 0 && bursts > 0);
    }

    #[test]
    fn backup_schedules_self_close_and_prove_recovery() {
        for seed in [7u64, 0xF00D, 0xBAD5EED, 12345, 999] {
            let plan = compose_schedule(seed, 2, NemesisDims::BACKUP, 1500);
            assert!(plan.dims.backup);
            let mut backups = 0;
            let mut pending_rot = false;
            for e in &plan.events {
                match e {
                    NemesisEvent::Backup => backups += 1,
                    NemesisEvent::ArchiveRot => {
                        assert!(backups > 0, "seed {seed:#x}: rot before any bundle exists");
                        pending_rot = true;
                    }
                    NemesisEvent::BackupScrub => pending_rot = false,
                    NemesisEvent::RestoreCheck => {
                        assert!(backups > 0, "seed {seed:#x}: restore before any bundle exists");
                    }
                    _ => {}
                }
            }
            assert!(!pending_rot, "seed {seed:#x}: schedule ends with unscrubbed archive rot");
            if backups > 0 {
                assert!(
                    matches!(plan.events.last(), Some(NemesisEvent::RestoreCheck)),
                    "seed {seed:#x}: a soak that captured bundles must end by restoring one"
                );
            }
            assert_eq!(ingest_total(&plan), 1500, "seed {seed:#x}: ingest total drifted");
        }
    }

    #[test]
    fn backup_soaks_exercise_the_backup_dimension() {
        let plan = compose_schedule(0xF00D, 2, NemesisDims { disk: true, backup: true }, 2500);
        let (backups, rots, scrubs, checks) = plan.backup_disruption_counts();
        assert!(backups > 0, "no bundle captures composed");
        assert!(rots > 0, "no archive rot composed");
        assert!(scrubs >= rots, "every rot needs a scrub");
        assert!(checks > 0, "no restore checks composed");
        // The core and disk dimensions keep firing alongside.
        let (partitions, corruptions, wal_rots, failovers, bursts) = plan.disruption_counts();
        assert!(partitions > 0 && corruptions > 0 && wal_rots > 0);
        assert!(failovers > 0 && bursts > 0);
        let (page_rots, fsyncs, storms) = plan.disk_disruption_counts();
        assert!(page_rots > 0 && fsyncs > 0 && storms > 0);
    }

    #[test]
    fn long_soaks_exercise_every_dimension() {
        let plan = compose_schedule(0xF00D, 2, NemesisDims::CORE, 2000);
        let (partitions, corruptions, rots, failovers, bursts) = plan.disruption_counts();
        assert!(partitions > 0, "no partitions composed");
        assert!(corruptions > 0, "no corruptions composed");
        assert!(rots > 0, "no bit-rot composed");
        assert!(failovers > 0, "no failovers composed");
        assert!(bursts > 0, "no bursts composed");
    }
}

//! Deterministic, seeded fault injection.
//!
//! A [`FaultPlan`] describes *where* and *how often* faults fire; the plan
//! carries its own xorshift64* stream so that a given seed replays the exact
//! same fault sequence, independent of wall clock or thread scheduling.

use std::fmt;
use std::time::Duration;

/// The injection points wired into the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// A relstore/executor query errors out before producing results.
    Query,
    /// An inverted-index probe fails; executors fall back to a scan.
    IndexProbe,
    /// Artificial latency at a pipeline stage boundary.
    Latency,
    /// A panic at a pipeline stage boundary (tests batch containment).
    Panic,
    /// A WAL append is cut short at byte `k` and the partial bytes stay on
    /// disk, as if the process lost power mid-write.
    TornWrite,
    /// A write call persists fewer bytes than asked and reports it, so the
    /// caller can repair by truncating back to the pre-write offset.
    ShortWrite,
    /// An `fsync` fails after the bytes were handed to the OS.
    FsyncFail,
    /// One bit of a checkpoint image flips before it reaches disk.
    BitFlip,
    /// One bit of the at-rest WAL file flips on disk (silent media rot,
    /// found by the anti-entropy scrubber rather than at recovery).
    WalRot,
    /// One bit of the at-rest checkpoint file flips on disk (silent media
    /// rot, found by the anti-entropy scrubber rather than at recovery).
    CheckpointRot,
    /// A replication transport frame vanishes in flight.
    NetDrop,
    /// A replication transport frame is held back before delivery.
    NetDelay,
    /// A replication transport frame overtakes an earlier one.
    NetReorder,
    /// A replication transport frame is delivered twice.
    NetDuplicate,
    /// A buffer-pool page read fails before the page leaves the kernel
    /// (transient; the pool retries the syscall).
    PageRead,
    /// A page write-back fails mid-syscall during the in-place apply
    /// phase (the shadow image on disk makes the apply replayable).
    PageWrite,
    /// An `fsync` of the page file or its shadow image fails.
    PageFsync,
    /// One bit of an at-rest page flips on disk (silent media rot, found
    /// by the page scrubber's CRC walk rather than at read time).
    PageRot,
    /// An archive-segment write is cut short mid-write, leaving a torn
    /// file in the backup directory (detected by the backup scrubber and
    /// by checkpoint refusing to truncate the WAL).
    ArchiveWrite,
    /// One bit of an at-rest archive file flips on disk (silent media
    /// rot in the backup directory, found by the backup scrubber).
    ArchiveRot,
    /// An `fsync` of an archived segment fails after the write.
    ArchiveFsync,
    /// A write returns no-space (`ENOSPC`); write paths must degrade to
    /// a typed wedge instead of panicking.
    Enospc,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::Query => "query",
            FaultSite::IndexProbe => "index-probe",
            FaultSite::Latency => "latency",
            FaultSite::Panic => "panic",
            FaultSite::TornWrite => "torn-write",
            FaultSite::ShortWrite => "short-write",
            FaultSite::FsyncFail => "fsync-fail",
            FaultSite::BitFlip => "bit-flip",
            FaultSite::WalRot => "wal-rot",
            FaultSite::CheckpointRot => "checkpoint-rot",
            FaultSite::NetDrop => "net-drop",
            FaultSite::NetDelay => "net-delay",
            FaultSite::NetReorder => "net-reorder",
            FaultSite::NetDuplicate => "net-duplicate",
            FaultSite::PageRead => "page-read",
            FaultSite::PageWrite => "page-write",
            FaultSite::PageFsync => "page-fsync",
            FaultSite::PageRot => "page-rot",
            FaultSite::ArchiveWrite => "archive-write",
            FaultSite::ArchiveRot => "archive-rot",
            FaultSite::ArchiveFsync => "archive-fsync",
            FaultSite::Enospc => "enospc",
        };
        write!(f, "{s}")
    }
}

/// A fault that actually fired at a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Where it fired.
    pub site: FaultSite,
    /// Transient faults are retryable; permanent ones are not.
    pub transient: bool,
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.transient { "transient" } else { "permanent" };
        write!(f, "injected {kind} fault at {} site", self.site)
    }
}

impl std::error::Error for InjectedFault {}

/// Probability + flavor for one site.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Firing probability in `[0, 1]`.
    pub rate: f64,
    /// Whether fired faults are transient (retryable).
    pub transient: bool,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec { rate: 0.0, transient: true }
    }
}

/// Firing rates for the seeded I/O fault sites exercised by the durability
/// layer. All rates are probabilities in `[0, 1]` and default to zero, so
/// plans built before the durability layer existed behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IoFaultSpec {
    /// Torn-write rate ([`FaultSite::TornWrite`]).
    pub torn_write: f64,
    /// Short-write rate ([`FaultSite::ShortWrite`]).
    pub short_write: f64,
    /// Fsync-failure rate ([`FaultSite::FsyncFail`]).
    pub fsync_fail: f64,
    /// Checkpoint bit-flip rate ([`FaultSite::BitFlip`]).
    pub bit_flip: f64,
    /// At-rest WAL bit-rot rate ([`FaultSite::WalRot`]).
    pub wal_rot: f64,
    /// At-rest checkpoint bit-rot rate ([`FaultSite::CheckpointRot`]).
    pub checkpoint_rot: f64,
    /// Torn archive-segment write rate ([`FaultSite::ArchiveWrite`]).
    pub archive_write: f64,
    /// At-rest archive bit-rot rate ([`FaultSite::ArchiveRot`]).
    pub archive_rot: f64,
    /// Archive fsync-failure rate ([`FaultSite::ArchiveFsync`]).
    pub archive_fsync: f64,
    /// No-space (`ENOSPC`) rate ([`FaultSite::Enospc`]).
    pub enospc: f64,
}

/// Firing rates for the seeded replication-transport fault sites. All
/// rates are probabilities in `[0, 1]` and default to zero, so plans built
/// before the replication layer existed behave identically.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetFaultSpec {
    /// Frame-drop rate ([`FaultSite::NetDrop`]).
    pub drop: f64,
    /// Frame-delay rate ([`FaultSite::NetDelay`]).
    pub delay: f64,
    /// Frame-reorder rate ([`FaultSite::NetReorder`]).
    pub reorder: f64,
    /// Frame-duplication rate ([`FaultSite::NetDuplicate`]).
    pub duplicate: f64,
}

/// Firing rates for the seeded page-store fault sites. All rates are
/// probabilities in `[0, 1]` and default to zero, so plans built before
/// the page store existed behave identically.
///
/// The page store rolls these against its **own** [`FaultPlan`] (the
/// owned-plan discipline [`FaultPlan::roll_net`] established), so page
/// I/O faults never shift the engine's thread-local fault stream — the
/// property the mem-vs-paged digest-identity tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PageFaultSpec {
    /// Page-read failure rate ([`FaultSite::PageRead`]).
    pub read: f64,
    /// Page write-back failure rate ([`FaultSite::PageWrite`]).
    pub write: f64,
    /// Page-file fsync failure rate ([`FaultSite::PageFsync`]).
    pub fsync: f64,
    /// At-rest page bit-rot rate ([`FaultSite::PageRot`]).
    pub rot: f64,
    /// Disk-full rate for page-file writes ([`FaultSite::Enospc`]).
    pub enospc: f64,
}

/// A page-store fault that fired, with its seed-derived parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageFault {
    /// The read syscall fails; no bytes are delivered. Transient — the
    /// buffer pool retries it.
    ReadError,
    /// The write-back syscall fails mid-apply; the on-disk page may hold
    /// any mix of old and new bytes. The shadow image makes the apply
    /// replayable, so recovery re-drives it.
    WriteError,
    /// The `fsync` call fails after the bytes were handed to the OS.
    FsyncFail,
    /// Bit number `bit` (little-endian within the page) flips at rest.
    Rot {
        /// Flipped bit index in `[0, page_len * 8)`.
        bit: usize,
    },
    /// The filesystem reports no space left (`ENOSPC`) before any byte of
    /// the commit reaches disk. The store must wedge with a typed error —
    /// the old page image stays intact.
    NoSpace,
}

/// A transport fault that fired, with its seed-derived parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The frame is dropped on the floor; the shipping protocol must
    /// retransmit.
    Drop,
    /// The frame is held for `ticks` delivery polls before it becomes
    /// deliverable (head-of-line: later frames on the link wait behind it
    /// unless a reorder moved them ahead).
    Delay {
        /// Polls to hold the frame, in `[1, 4]`.
        ticks: u32,
    },
    /// The frame is inserted *ahead* of the frames already queued on its
    /// link, overtaking them.
    Reorder,
    /// The frame is enqueued twice.
    Duplicate,
}

/// An I/O fault that fired, with its seed-derived parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// Only the first `keep` bytes of the buffer reach the file; the rest
    /// vanish as if the process died mid-write. `keep` is always strictly
    /// less than the buffer length.
    TornWrite {
        /// Bytes that made it to disk.
        keep: usize,
    },
    /// The write persists `keep` bytes and reports the shortfall, so the
    /// caller can truncate back and surface a clean error.
    ShortWrite {
        /// Bytes that made it to disk.
        keep: usize,
    },
    /// The `fsync` call fails after the write.
    FsyncFail,
    /// Bit number `bit` (little-endian within the buffer) flips before the
    /// buffer is written.
    BitFlip {
        /// Flipped bit index in `[0, len * 8)`.
        bit: usize,
    },
    /// The filesystem reports no space left (`ENOSPC`); nothing reaches
    /// the file. Callers must wedge with a typed error, not panic.
    NoSpace,
}

/// A seeded schedule of faults across all injection sites.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was built from (for display/reproduction).
    pub seed: u64,
    /// Query-execution errors.
    pub query: FaultSpec,
    /// Index-probe failure rate (always recoverable via scan fallback).
    pub index_probe: f64,
    /// Stage-boundary latency rate.
    pub latency: f64,
    /// Latency injected per firing.
    pub latency_per_site: Duration,
    /// Stage-boundary panic rate.
    pub panic_rate: f64,
    /// Seeded I/O fault rates for the durability layer.
    pub io: IoFaultSpec,
    /// Seeded transport fault rates for the replication layer.
    pub net: NetFaultSpec,
    /// Seeded page-store fault rates for the paged storage backend.
    pub pages: PageFaultSpec,
    state: u64,
}

impl FaultPlan {
    /// A plan with the given seed and all rates zero.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            query: FaultSpec::default(),
            index_probe: 0.0,
            latency: 0.0,
            latency_per_site: Duration::from_micros(50),
            panic_rate: 0.0,
            io: IoFaultSpec::default(),
            net: NetFaultSpec::default(),
            pages: PageFaultSpec::default(),
            state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Every non-panic site fires at `rate`; query faults are transient.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        plan.query = FaultSpec { rate, transient: true };
        plan.index_probe = rate;
        plan.latency = rate;
        plan
    }

    /// Errors at every injection site: transient query errors and
    /// index-probe failures always fire, every stage boundary stalls.
    /// Panics stay off — they are opt-in via [`FaultPlan::with_panics`].
    pub fn hostile(seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed);
        plan.query = FaultSpec { rate: 1.0, transient: true };
        plan.index_probe = 1.0;
        plan.latency = 1.0;
        plan
    }

    /// Builder: set the query-error rate and flavor.
    pub fn with_query(mut self, rate: f64, transient: bool) -> FaultPlan {
        self.query = FaultSpec { rate, transient };
        self
    }

    /// Builder: set the index-probe failure rate.
    pub fn with_index_probe(mut self, rate: f64) -> FaultPlan {
        self.index_probe = rate;
        self
    }

    /// Builder: set the stage-latency rate and per-firing delay.
    pub fn with_latency(mut self, rate: f64, delay: Duration) -> FaultPlan {
        self.latency = rate;
        self.latency_per_site = delay;
        self
    }

    /// Builder: set the stage-panic rate.
    pub fn with_panics(mut self, rate: f64) -> FaultPlan {
        self.panic_rate = rate;
        self
    }

    /// Builder: set the torn-write rate.
    pub fn with_torn_writes(mut self, rate: f64) -> FaultPlan {
        self.io.torn_write = rate;
        self
    }

    /// Builder: set the short-write rate.
    pub fn with_short_writes(mut self, rate: f64) -> FaultPlan {
        self.io.short_write = rate;
        self
    }

    /// Builder: set the fsync-failure rate.
    pub fn with_fsync_failures(mut self, rate: f64) -> FaultPlan {
        self.io.fsync_fail = rate;
        self
    }

    /// Builder: set the checkpoint bit-flip rate.
    pub fn with_bit_flips(mut self, rate: f64) -> FaultPlan {
        self.io.bit_flip = rate;
        self
    }

    /// Builder: set the at-rest bit-rot rate for both storage artifacts
    /// (the WAL file and the checkpoint file).
    pub fn with_bit_rot(mut self, wal: f64, checkpoint: f64) -> FaultPlan {
        self.io.wal_rot = wal;
        self.io.checkpoint_rot = checkpoint;
        self
    }

    /// Builder: set the three archive fault rates (torn segment writes,
    /// at-rest archive rot, archive fsync failures) at once.
    pub fn with_archive_faults(mut self, write: f64, rot: f64, fsync: f64) -> FaultPlan {
        self.io.archive_write = write;
        self.io.archive_rot = rot;
        self.io.archive_fsync = fsync;
        self
    }

    /// Builder: set the no-space (`ENOSPC`) rate.
    pub fn with_enospc(mut self, rate: f64) -> FaultPlan {
        self.io.enospc = rate;
        self
    }

    /// Builder: set all four replication-transport fault rates at once.
    pub fn with_net(mut self, drop: f64, delay: f64, reorder: f64, duplicate: f64) -> FaultPlan {
        self.net = NetFaultSpec { drop, delay, reorder, duplicate };
        self
    }

    /// Roll the seeded stream at one transport fault site. Valid sites are
    /// the four `Net*` variants; anything else never fires.
    ///
    /// Every call consumes exactly **two** draws (the Bernoulli roll and
    /// the parameter draw) whether or not the fault fires, so toggling one
    /// site's rate never shifts the stream seen by the other sites — the
    /// same discipline `inject_io` follows.
    pub fn roll_net(&mut self, site: FaultSite) -> Option<NetFault> {
        let rate = match site {
            FaultSite::NetDrop => self.net.drop,
            FaultSite::NetDelay => self.net.delay,
            FaultSite::NetReorder => self.net.reorder,
            FaultSite::NetDuplicate => self.net.duplicate,
            _ => 0.0,
        };
        let fired = self.roll(rate);
        let param = self.draw();
        if !fired {
            return None;
        }
        match site {
            FaultSite::NetDrop => Some(NetFault::Drop),
            FaultSite::NetDelay => Some(NetFault::Delay { ticks: (param % 4) as u32 + 1 }),
            FaultSite::NetReorder => Some(NetFault::Reorder),
            FaultSite::NetDuplicate => Some(NetFault::Duplicate),
            _ => None,
        }
    }

    /// Builder: set the four core page-store fault rates at once (the
    /// disk-full rate is set separately via
    /// [`FaultPlan::with_page_enospc`]).
    pub fn with_pages(mut self, read: f64, write: f64, fsync: f64, rot: f64) -> FaultPlan {
        self.pages = PageFaultSpec { read, write, fsync, rot, ..self.pages };
        self
    }

    /// Builder: set the page-store disk-full rate.
    pub fn with_page_enospc(mut self, rate: f64) -> FaultPlan {
        self.pages.enospc = rate;
        self
    }

    /// Roll the seeded stream at one page-store fault site. Valid sites
    /// are the four `Page*` variants plus [`FaultSite::Enospc`]; anything
    /// else never fires. `page_len` bounds the bit index a
    /// [`PageFault::Rot`] can name.
    ///
    /// Every call consumes exactly **two** draws (the Bernoulli roll and
    /// the parameter draw) whether or not the fault fires, so toggling one
    /// site's rate never shifts the stream seen by the other sites — the
    /// same discipline [`FaultPlan::roll_net`] and `inject_io` follow.
    pub fn roll_page(&mut self, site: FaultSite, page_len: usize) -> Option<PageFault> {
        let rate = match site {
            FaultSite::PageRead => self.pages.read,
            FaultSite::PageWrite => self.pages.write,
            FaultSite::PageFsync => self.pages.fsync,
            FaultSite::PageRot => self.pages.rot,
            FaultSite::Enospc => self.pages.enospc,
            _ => 0.0,
        };
        let fired = self.roll(rate);
        let param = self.draw();
        if !fired {
            return None;
        }
        match site {
            FaultSite::PageRead => Some(PageFault::ReadError),
            FaultSite::PageWrite => Some(PageFault::WriteError),
            FaultSite::PageFsync => Some(PageFault::FsyncFail),
            FaultSite::PageRot => {
                Some(PageFault::Rot { bit: (param as usize) % (page_len * 8).max(1) })
            }
            FaultSite::Enospc => Some(PageFault::NoSpace),
            _ => None,
        }
    }

    /// Human-readable one-liner for `SHOW FAULTS`.
    pub fn describe(&self) -> String {
        format!(
            "seed={} query={:.2}{} index-probe={:.2} latency={:.2}@{}us panic={:.2} \
             io[torn={:.2} short={:.2} fsync={:.2} flip={:.2} rot={:.2}/{:.2}] \
             net[drop={:.2} delay={:.2} reorder={:.2} dup={:.2}] \
             page[read={:.2} write={:.2} fsync={:.2} rot={:.2} enospc={:.2}] \
             archive[write={:.2} rot={:.2} fsync={:.2}] enospc={:.2}",
            self.seed,
            self.query.rate,
            if self.query.transient { " (transient)" } else { " (permanent)" },
            self.index_probe,
            self.latency,
            self.latency_per_site.as_micros(),
            self.panic_rate,
            self.io.torn_write,
            self.io.short_write,
            self.io.fsync_fail,
            self.io.bit_flip,
            self.io.wal_rot,
            self.io.checkpoint_rot,
            self.net.drop,
            self.net.delay,
            self.net.reorder,
            self.net.duplicate,
            self.pages.read,
            self.pages.write,
            self.pages.fsync,
            self.pages.rot,
            self.pages.enospc,
            self.io.archive_write,
            self.io.archive_rot,
            self.io.archive_fsync,
            self.io.enospc,
        )
    }

    /// xorshift64* step; the plan is its own RNG so injection order is a
    /// pure function of the seed and the call sequence.
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// One Bernoulli draw at `rate`. Always consumes a draw so that toggling
    /// one site's rate does not shift the stream seen by other sites.
    pub(crate) fn roll(&mut self, rate: f64) -> bool {
        let draw = (self.next() >> 11) as f64 / (1u64 << 53) as f64;
        rate > 0.0 && draw < rate
    }

    /// One raw 64-bit draw, used to derive fault parameters (torn-write
    /// offsets, flipped bit indexes) from the same seeded stream.
    pub(crate) fn draw(&mut self) -> u64 {
        self.next()
    }
}

/// Per-thread tally of injection activity, for tests and `SHOW FAULTS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Query errors injected.
    pub query_errors: u64,
    /// Index-probe failures injected.
    pub index_probe_failures: u64,
    /// Latency stalls injected.
    pub latency_injections: u64,
    /// Panics injected.
    pub panics: u64,
    /// Torn writes injected.
    pub torn_writes: u64,
    /// Short writes injected.
    pub short_writes: u64,
    /// Fsync failures injected.
    pub fsync_failures: u64,
    /// Checkpoint bit flips injected.
    pub bit_flips: u64,
    /// At-rest WAL bit-rot flips injected.
    pub wal_rots: u64,
    /// At-rest checkpoint bit-rot flips injected.
    pub checkpoint_rots: u64,
    /// Faults absorbed without surfacing an error (e.g. scan fallback).
    pub recovered: u64,
    /// Retry attempts made against transient faults.
    pub retries: u64,
    /// Torn archive-segment writes injected.
    pub archive_writes: u64,
    /// At-rest archive bit-rot flips injected.
    pub archive_rots: u64,
    /// Archive fsync failures injected.
    pub archive_fsyncs: u64,
    /// No-space (`ENOSPC`) faults injected.
    pub enospc_faults: u64,
}

impl FaultStats {
    /// Total faults injected across all sites.
    pub fn total_injected(&self) -> u64 {
        self.query_errors
            + self.index_probe_failures
            + self.latency_injections
            + self.panics
            + self.torn_writes
            + self.short_writes
            + self.fsync_failures
            + self.bit_flips
            + self.wal_rots
            + self.checkpoint_rots
            + self.archive_writes
            + self.archive_rots
            + self.archive_fsyncs
            + self.enospc_faults
    }
}

/// Bounded exponential backoff for retrying transient faults.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (so 3 = 1 try + 2 retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(200),
            max_backoff: Duration::from_millis(5),
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (0-based): base * 2^attempt,
    /// capped at `max_backoff`.
    pub fn backoff(&self, attempt: u32) -> Duration {
        let factor = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base_backoff.checked_mul(factor).map_or(self.max_backoff, |d| d.min(self.max_backoff))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roll_net_replays_identically_for_a_seed() {
        let sites = [
            FaultSite::NetDrop,
            FaultSite::NetDelay,
            FaultSite::NetReorder,
            FaultSite::NetDuplicate,
        ];
        let mut a = FaultPlan::new(0xF00D).with_net(0.3, 0.3, 0.3, 0.3);
        let mut b = FaultPlan::new(0xF00D).with_net(0.3, 0.3, 0.3, 0.3);
        for i in 0..256 {
            let site = sites[i % sites.len()];
            assert_eq!(a.roll_net(site), b.roll_net(site), "call {i}");
        }
    }

    #[test]
    fn roll_net_consumes_fixed_draws_regardless_of_rates() {
        // With drop off in one plan and on in the other, the *other*
        // sites must still see the same stream: every roll_net call
        // consumes exactly two draws.
        let mut quiet = FaultPlan::new(42).with_net(0.0, 0.5, 0.5, 0.5);
        let mut noisy = FaultPlan::new(42).with_net(1.0, 0.5, 0.5, 0.5);
        for _ in 0..64 {
            assert_eq!(quiet.roll_net(FaultSite::NetDrop), None);
            assert!(noisy.roll_net(FaultSite::NetDrop).is_some());
            assert_eq!(quiet.roll_net(FaultSite::NetDelay), noisy.roll_net(FaultSite::NetDelay));
            assert_eq!(
                quiet.roll_net(FaultSite::NetReorder),
                noisy.roll_net(FaultSite::NetReorder)
            );
        }
    }

    #[test]
    fn delay_ticks_stay_in_range() {
        let mut plan = FaultPlan::new(7).with_net(0.0, 1.0, 0.0, 0.0);
        for _ in 0..128 {
            match plan.roll_net(FaultSite::NetDelay) {
                Some(NetFault::Delay { ticks }) => assert!((1..=4).contains(&ticks)),
                other => panic!("delay at rate 1.0 must fire: {other:?}"),
            }
        }
    }

    #[test]
    fn non_net_sites_never_fire_in_roll_net() {
        let mut plan = FaultPlan::hostile(1).with_net(1.0, 1.0, 1.0, 1.0);
        assert_eq!(plan.roll_net(FaultSite::Query), None);
        assert_eq!(plan.roll_net(FaultSite::TornWrite), None);
    }

    #[test]
    fn roll_page_replays_identically_for_a_seed() {
        let sites =
            [FaultSite::PageRead, FaultSite::PageWrite, FaultSite::PageFsync, FaultSite::PageRot];
        let mut a = FaultPlan::new(0xBEEF).with_pages(0.3, 0.3, 0.3, 0.3);
        let mut b = FaultPlan::new(0xBEEF).with_pages(0.3, 0.3, 0.3, 0.3);
        for i in 0..256 {
            let site = sites[i % sites.len()];
            assert_eq!(a.roll_page(site, 4096), b.roll_page(site, 4096), "call {i}");
        }
    }

    #[test]
    fn roll_page_consumes_fixed_draws_regardless_of_rates() {
        // With read faults off in one plan and on in the other, the
        // *other* sites must still see the same stream: every roll_page
        // call consumes exactly two draws.
        let mut quiet = FaultPlan::new(42).with_pages(0.0, 0.5, 0.5, 0.5);
        let mut noisy = FaultPlan::new(42).with_pages(1.0, 0.5, 0.5, 0.5);
        for _ in 0..64 {
            assert_eq!(quiet.roll_page(FaultSite::PageRead, 4096), None);
            assert!(noisy.roll_page(FaultSite::PageRead, 4096).is_some());
            assert_eq!(
                quiet.roll_page(FaultSite::PageWrite, 4096),
                noisy.roll_page(FaultSite::PageWrite, 4096)
            );
            assert_eq!(
                quiet.roll_page(FaultSite::PageRot, 4096),
                noisy.roll_page(FaultSite::PageRot, 4096)
            );
        }
    }

    #[test]
    fn page_rot_bit_stays_in_range() {
        let mut plan = FaultPlan::new(9).with_pages(0.0, 0.0, 0.0, 1.0);
        for _ in 0..128 {
            match plan.roll_page(FaultSite::PageRot, 512) {
                Some(PageFault::Rot { bit }) => assert!(bit < 512 * 8),
                other => panic!("rot at rate 1.0 must fire: {other:?}"),
            }
        }
        // A zero-length page cannot panic on the modulus.
        assert!(plan.roll_page(FaultSite::PageRot, 0).is_some());
    }

    #[test]
    fn non_page_sites_never_fire_in_roll_page() {
        let mut plan = FaultPlan::hostile(1).with_pages(1.0, 1.0, 1.0, 1.0);
        assert_eq!(plan.roll_page(FaultSite::Query, 4096), None);
        assert_eq!(plan.roll_page(FaultSite::NetDrop, 4096), None);
    }

    #[test]
    fn page_enospc_rolls_without_shifting_the_other_page_sites() {
        let mut plan = FaultPlan::new(5).with_page_enospc(1.0);
        assert_eq!(plan.roll_page(FaultSite::Enospc, 4096), Some(PageFault::NoSpace));
        // The rate lives in its own field: the four core sites still
        // default to zero, and toggling enospc never shifts their stream.
        let mut quiet = FaultPlan::new(6).with_pages(0.0, 0.5, 0.0, 0.5);
        let mut full = FaultPlan::new(6).with_pages(0.0, 0.5, 0.0, 0.5).with_page_enospc(1.0);
        for _ in 0..64 {
            assert_eq!(quiet.roll_page(FaultSite::Enospc, 4096), None);
            assert_eq!(full.roll_page(FaultSite::Enospc, 4096), Some(PageFault::NoSpace));
            assert_eq!(
                quiet.roll_page(FaultSite::PageWrite, 4096),
                full.roll_page(FaultSite::PageWrite, 4096)
            );
            assert_eq!(
                quiet.roll_page(FaultSite::PageRot, 4096),
                full.roll_page(FaultSite::PageRot, 4096)
            );
        }
    }
}

//! The closed loop shared by every workload: repeated timed set-up,
//! the measured loop of rounds, the output check, and the metric sheet.

use crate::probe;
use nebula_core::ProcessOutcome;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Unmeasured warm-up before the measured window, as a share of it.
const WARMUP_SHARE: f64 = 0.1;
/// Set-up is timed at least this many times per run (median reported).
const SETUP_REPS: usize = 3;
/// Cheap set-ups repeat until this much set-up time has been measured...
const SETUP_MIN_TOTAL_S: f64 = 3.0;
/// ...but never more often than this.
const SETUP_MAX_REPS: usize = 100;

/// How big the generated inputs are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes (D_large, D_mid, tiny; 600 annotations).
    Bench,
    /// Every dataset shrunk to the tiny preset; only the tests use it.
    #[cfg_attr(not(test), allow(dead_code))]
    Smoke,
}

/// One run's parameters, as given on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run: install the probes and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
}

/// Everything a run counts, across all rounds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Annotations offered plus tuple writes attempted.
    pub attempted: u64,
    /// Errored, degraded, quarantined or shed annotations plus failed
    /// tuple writes.
    pub failed: u64,
    /// Annotations offered (committed or not), in order.
    pub offered: u64,
    /// Annotations that committed.
    pub committed: u64,
    /// Commit latency of each committed annotation.
    pub annotation_ns: Vec<u64>,
    /// Latency of each tuple replacement.
    pub tuple_write_ns: Vec<u64>,
    /// Running digest of every annotation's routing decisions.
    pub digest: Digest,
}

impl Tally {
    /// Account one offered annotation: its latency and its pipeline
    /// outcome (`None` when it errored, was quarantined or was shed).
    pub fn annotation(&mut self, ns: u64, outcome: Option<&ProcessOutcome>) {
        self.attempted += 1;
        self.offered += 1;
        match outcome {
            Some(outcome) => {
                self.committed += 1;
                self.annotation_ns.push(ns);
                if !outcome.degradations.is_empty() {
                    self.failed += 1;
                }
                self.digest.outcome(outcome);
            }
            None => {
                self.failed += 1;
                self.digest.error();
            }
        }
    }

    /// Account one tuple replacement.
    pub fn tuple_write(&mut self, ns: u64, ok: bool) {
        self.attempted += 1;
        if ok {
            self.tuple_write_ns.push(ns);
        } else {
            self.failed += 1;
        }
    }
}

/// FNV-1a over every annotation's accepted, pending and rejected tuple
/// ids with their confidences (pending = candidates minus the other two),
/// in processing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn list(&mut self, tag: u64, items: impl Iterator<Item = (relstore::TupleId, f64)>) {
        self.word(tag);
        for (tid, confidence) in items {
            self.word(u64::from(tid.table.0));
            self.word(tid.row);
            self.word(confidence.to_bits());
        }
    }

    /// Fold in one processed annotation's decisions.
    pub fn outcome(&mut self, outcome: &ProcessOutcome) {
        self.list(1, outcome.accepted.iter().copied());
        self.list(2, outcome.candidates.iter().map(|c| (c.tuple, c.confidence)));
        self.list(3, outcome.rejected.iter().copied());
    }

    /// Fold in an annotation whose processing failed.
    pub fn error(&mut self) {
        self.word(4);
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit }
}

/// A workload: timed set-up, one round of closed-loop work, and the output
/// check that runs after the measured window.
pub trait Workload: Sized {
    /// Generate the inputs, load the backend, build the ACG and start the
    /// engine and its sink. Everything here counts toward `setup_s`.
    fn setup(params: &Params) -> Result<Self, String>;

    /// Install the timing wrappers in the engine's seams (traced run only).
    fn install_probes(&mut self);

    /// One round of work; returns the nanoseconds spent in the workload's
    /// own calls (probe-only calls excluded).
    fn round(&mut self, tally: &mut Tally) -> u64;

    /// Verify the run's outputs; `Err` names the first mismatch.
    fn check(&mut self, tally: &Tally) -> Result<(), String>;

    /// Values of the [`EXTRA_METRICS`] only this workload can measure.
    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// What one run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Counts and samples.
    pub tally: Tally,
    /// The output check's verdict.
    pub check: Result<(), String>,
    /// The metrics of the requested mode.
    pub metrics: Vec<Metric>,
}

/// Run workload `W`: set it up several times (keeping the last), drive the
/// measured loop, check its outputs, and collect the metrics.
pub fn run<W: Workload>(params: &Params) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut workload: Option<W> = None;
    while setup_s.len() < SETUP_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_TOTAL_S && setup_s.len() < SETUP_MAX_REPS)
    {
        // Free the previous copy first so set-ups never overlap in memory.
        drop(workload.take());
        let t0 = Instant::now();
        workload = Some(W::setup(params)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up ran");
    if params.trace {
        workload.install_probes();
    }

    // Warm-up: let the pool, caches and allocator reach their steady
    // state. Its operations count toward `attempted`/`failed` and the
    // decision digest (the output check replays them), not the samples.
    let mut tally = Tally::default();
    let warm = Instant::now();
    while warm.elapsed().as_secs_f64() < params.seconds * WARMUP_SHARE {
        workload.round(&mut tally);
    }
    tally.annotation_ns.clear();
    tally.tuple_write_ns.clear();

    probe::reset();
    let mut timed = [RoundTimes::default(); 2];
    let mut waits = QueueWaits::default();
    let start = Instant::now();
    let mut round = 0usize;
    while start.elapsed().as_secs_f64() < params.seconds || (params.trace && round < 2) || round < 1
    {
        let on = params.trace && round % 2 == 1;
        probe::set_recording(on);
        let before = tally.committed;
        let ns = workload.round(&mut tally);
        probe::set_recording(false);
        let committed = tally.committed - before;
        timed[usize::from(on)].add(ns, committed);
        if on {
            waits.drain_traces();
        }
        round += 1;
    }

    // Set-up and the measured loop's high-water mark, read before the
    // output check (a WAL recovery, a RAM twin) can raise it.
    let peak_rss_mb = probe::peak_rss_mb();
    let check = workload.check(&tally);
    let metrics = if params.trace {
        let [off, on] = timed;
        let overhead_pct = (on.per_round() / off.per_round() - 1.0) * 100.0;
        layer_metrics(&tally, on.annotations, overhead_pct, &waits, workload.layer_extras())
    } else {
        // The whole window's committed annotations over its busy time: a
        // mean, which averages the host's speed over the run.
        let [all, _] = timed;
        let annotations_per_s = all.annotations as f64 / (all.ns as f64 / 1e9);
        let latencies = &mut tally.annotation_ns;
        vec![
            metric("annotations_per_s", annotations_per_s, "1/s"),
            metric("annotation_p50_ms", percentile_ms(latencies, 50.0), "ms"),
            metric("annotation_p95_ms", percentile_ms(latencies, 95.0), "ms"),
            metric("setup_s", median(&mut setup_s), "s"),
            metric("peak_rss_mb", peak_rss_mb, "MiB"),
        ]
    };
    Ok(Outcome { tally, check, metrics })
}

/// Round time and committed annotations of one class of rounds.
#[derive(Debug, Clone, Copy, Default)]
struct RoundTimes {
    rounds: u64,
    ns: u128,
    annotations: u64,
}

impl RoundTimes {
    fn add(&mut self, ns: u64, annotations: u64) {
        self.rounds += 1;
        self.ns += u128::from(ns);
        self.annotations += annotations;
    }

    fn per_round(&self) -> f64 {
        self.ns as f64 / self.rounds.max(1) as f64
    }
}

/// Total and count of the ingest queue-wait spans, drained from the
/// bounded trace ring after every recording round.
#[derive(Debug, Default)]
struct QueueWaits {
    ns: u64,
    spans: u64,
}

impl QueueWaits {
    fn drain_traces(&mut self) {
        for trace in nebula_obs::trace::traces() {
            for span in trace.spans.iter().filter(|s| s.label == "ingest.queue_wait") {
                self.ns += span.duration_ns;
                self.spans += 1;
            }
        }
        nebula_obs::trace::reset();
    }

    fn mean_ms(&self) -> f64 {
        self.ns as f64 / self.spans.max(1) as f64 / 1e6
    }
}

/// The per-layer sheet of a traced run. Counts are per committed
/// annotation of the recording rounds unless the name says otherwise.
fn layer_metrics(
    tally: &Tally,
    annotations: u64,
    overhead_pct: f64,
    waits: &QueueWaits,
    extras: Vec<(&'static str, f64)>,
) -> Vec<Metric> {
    let snap = nebula_obs::snapshot();
    let n = annotations.max(1) as f64;
    let count = |name: &str| snap.counters.get(name).copied().unwrap_or(0) as f64;
    let per = |name: &str| count(name) / n;
    let stage_ms = |name: &str| snap.histograms.get(name).map_or(0.0, |h| h.mean_ns() / 1e6);
    let per_annotation_ms = |probe_name: &str| probe::timer(probe_name).ns as f64 / n / 1e6;
    let minidb = probe::timer("core.build_minidb");
    let mut writes = tally.tuple_write_ns.clone();
    let mut sheet = vec![
        metric("core.stage0_ms", stage_ms("stage0.register"), "ms"),
        metric("core.stage1_querygen_ms", stage_ms("stage1.querygen"), "ms"),
        metric("core.stage2_execute_ms", stage_ms("stage2.execute"), "ms"),
        metric("core.stage3_route_ms", stage_ms("stage3.route"), "ms"),
        metric("core.queries", per("core.queries_generated"), "count"),
        metric("core.candidates", per("core.candidates"), "count"),
        metric("core.accepted", per("core.accepted"), "count"),
        metric("core.minidb_ms", minidb.mean_ms(), "ms"),
        metric("core.minidb_tuples", minidb.units as f64 / minidb.calls.max(1) as f64, "count"),
        metric("core.on_tuple_deleted_ms", probe::timer("core.on_tuple_deleted").mean_ms(), "ms"),
        metric("textsearch.run_group_ms", per_annotation_ms("textsearch.run_group"), "ms"),
        metric("textsearch.configurations", per("textsearch.configurations"), "count"),
        metric("textsearch.compiled_queries", per("textsearch.compiled_queries"), "count"),
        metric("textsearch.tuples_inspected", per("textsearch.tuples_inspected"), "count"),
        metric(
            "textsearch.useful_ratio",
            count("core.candidates") / count("textsearch.tuples_inspected").max(1.0),
            "ratio",
        ),
        metric("relstore.index_probes", per("relstore.index_probes"), "count"),
        metric("relstore.tuples_scanned", per("relstore.tuples_scanned"), "count"),
        metric("relstore.delete_ms", probe::timer("relstore.delete").mean_ms(), "ms"),
        metric("relstore.insert_ms", probe::timer("relstore.insert").mean_ms(), "ms"),
        metric("relstore.storage_errors", count("relstore.storage_errors"), "count"),
        metric("durable.record_ms", per_annotation_ms("durable.record"), "ms"),
        metric("durable.records", probe::timer("durable.record").calls as f64 / n, "count"),
        metric("durable.bytes", per("durable.bytes_appended"), "bytes"),
        metric("durable.fsyncs", per("durable.fsyncs"), "count"),
        metric("durable.append_failures", count("durable.append_failures"), "count"),
        metric("replica.record_ms", per_annotation_ms("replica.record"), "ms"),
        metric("replica.records_shipped", per("repl.records_shipped"), "count"),
        metric("replica.acks", per("repl.acks"), "count"),
        metric("replica.divergences", count("repl.divergences"), "count"),
        metric("ingest.batch_ms", probe::timer("ingest.batch").mean_ms(), "ms"),
        metric("ingest.queue_wait_ms", waits.mean_ms(), "ms"),
        metric("ingest.completed", count("ingest.completed"), "count"),
        metric("ingest.shed", count("ingest.shed"), "count"),
        metric("trace.overhead_pct", overhead_pct, "%"),
        metric("tuple_write_p50_ms", percentile_ms(&mut writes, 50.0), "ms"),
        metric("tuple_write_p95_ms", percentile_ms(&mut writes, 95.0), "ms"),
        metric("failed_fraction", tally.failed as f64 / tally.attempted.max(1) as f64, "ratio"),
    ];
    for (name, unit) in EXTRA_METRICS {
        let value = extras.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
        sheet.push(metric(name, value, unit));
    }
    sheet
}

/// Per-layer metrics that only one workload can measure, with their
/// units: pagestore (`annotate-paged`) and replica drain
/// (`replicated-tiny`). Other workloads report them as 0.
const EXTRA_METRICS: [(&str, &str); 8] = [
    ("pagestore.hits", "count"),
    ("pagestore.misses", "count"),
    ("pagestore.hit_ratio", "ratio"),
    ("pagestore.evictions", "count"),
    ("pagestore.write_backs", "count"),
    ("pagestore.flush_ms", "ms"),
    ("pagestore.file_pages", "pages"),
    ("replica.drain_rounds", "count"),
];

/// Nearest-rank percentile of nanosecond samples, in milliseconds (0 when
/// there are none).
pub fn percentile_ms(samples: &mut [u64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
    samples[rank.min(samples.len()) - 1] as f64 / 1e6
}

fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len().is_multiple_of(2) {
        (values[mid - 1] + values[mid]) / 2.0
    } else {
        values[mid]
    }
}

/// The directory every run writes under, relative to the working
/// directory (the checkout root).
pub const WORK_ROOT: &str = ".perfbench_work";

/// A fresh directory under [`WORK_ROOT`], removed again on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Create a unique, empty directory tagged `tag`.
    pub fn new(tag: &str) -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(WORK_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the root in place while another directory still uses it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

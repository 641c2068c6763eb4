//! Outside-in attribution: timers the benchmark wraps around its own calls
//! into each layer, and the two wrappers it installs in the engine's seams.
//!
//! Everything here is inert until [`set_recording`] turns it on. The traced
//! run installs the wrappers once and alternates recording rounds with
//! pass-through rounds, so the per-layer numbers and the tracing overhead
//! come from the same engine; the untraced run never installs them.

use annostore::AnnotationStore;
use nebula_core::{
    CommitRule, GroupSearch, Mutation, MutationSink, NebulaMeta, ReplicationStatus, SinkError,
};
use relstore::Database;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use textsearch::{
    ExecutionMode, KeywordQuery, KeywordSearch, SearchBackend, SearchError, SearchHit,
    SearchOptions, SearchStats,
};

static RECORDING: AtomicBool = AtomicBool::new(false);

/// Busy time and call count per probe name.
static TIMERS: Mutex<BTreeMap<&'static str, Timer>> = Mutex::new(BTreeMap::new());

/// Accumulated busy time of one probe.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timer {
    /// Total busy time in nanoseconds.
    pub ns: u128,
    /// Calls timed.
    pub calls: u64,
    /// A work count the caller attached to the calls (tuples, bytes, ...).
    pub units: u64,
}

impl Timer {
    /// Mean busy time per call in milliseconds (0 when never called).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64 / 1e6
        }
    }
}

/// Turn recording on or off: the benchmark's probes, the `nebula_obs`
/// counters and histograms, and its trace spans, together.
pub fn set_recording(on: bool) {
    RECORDING.store(on, Ordering::Relaxed);
    nebula_obs::set_enabled(on);
    nebula_obs::trace::set_enabled(on);
}

/// Is a recording round in progress?
pub fn recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Clear every probe and the `nebula_obs` registry and trace ring.
pub fn reset() {
    TIMERS.lock().expect("probe table is never poisoned").clear();
    nebula_obs::reset();
    nebula_obs::trace::reset();
}

/// Run `f`, charging its wall time to probe `name` when recording.
pub fn time<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    time_units(name, |_| 0, f)
}

/// [`time`], also charging `units(&result)` work units to the probe.
pub fn time_units<R>(
    name: &'static str,
    units: impl FnOnce(&R) -> u64,
    f: impl FnOnce() -> R,
) -> R {
    if !recording() {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos();
    let n = units(&out);
    let mut timers = TIMERS.lock().expect("probe table is never poisoned");
    let timer = timers.entry(name).or_default();
    timer.ns += ns;
    timer.calls += 1;
    timer.units += n;
    out
}

/// The accumulated timer of probe `name` (zero when it never ran).
pub fn timer(name: &str) -> Timer {
    TIMERS.lock().expect("probe table is never poisoned").get(name).copied().unwrap_or_default()
}

/// A [`MutationSink`] that charges each `record` call to probe `name`
/// and forwards everything to the wrapped sink.
#[derive(Debug)]
pub struct TimedSink {
    name: &'static str,
    inner: Box<dyn MutationSink>,
}

impl TimedSink {
    /// Wrap `inner`, charging its record time to probe `name`.
    pub fn new(name: &'static str, inner: Box<dyn MutationSink>) -> TimedSink {
        TimedSink { name, inner }
    }
}

impl MutationSink for TimedSink {
    fn record(&mut self, mutation: &Mutation<'_>) -> Result<u64, SinkError> {
        let inner = &mut self.inner;
        time(self.name, || inner.record(mutation))
    }

    fn checkpoint_due(&self) -> bool {
        self.inner.checkpoint_due()
    }

    fn checkpoint(&mut self, db: &Database, store: &AnnotationStore) -> Result<u64, SinkError> {
        self.inner.checkpoint(db, store)
    }

    fn flush(&mut self) -> Result<(), SinkError> {
        self.inner.flush()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn commit_rule(&self) -> CommitRule {
        self.inner.commit_rule()
    }

    fn replication(&self) -> Option<ReplicationStatus> {
        self.inner.replication()
    }

    fn healthy(&self) -> bool {
        self.inner.healthy()
    }
}

/// A [`GroupSearch`] that runs the engine's own full-database search —
/// a [`KeywordSearch`] over the repository vocabulary, built per call
/// exactly as the engine builds it — and charges each group to probe
/// `textsearch.run_group`.
#[derive(Debug)]
pub struct TimedSearch {
    meta: NebulaMeta,
}

impl TimedSearch {
    /// Search with the vocabulary of `meta`.
    pub fn new(meta: NebulaMeta) -> TimedSearch {
        TimedSearch { meta }
    }
}

impl GroupSearch for TimedSearch {
    fn run_group(
        &self,
        queries: &[KeywordQuery],
        db: &Database,
        mode: ExecutionMode,
    ) -> Result<(Vec<Vec<SearchHit>>, SearchStats), SearchError> {
        time("textsearch.run_group", || {
            let engine = KeywordSearch::new(SearchOptions {
                vocab: self.meta.to_vocabulary(db),
                ..Default::default()
            });
            engine.run_group(queries, db, mode)
        })
    }

    fn label(&self) -> &'static str {
        "timed-local"
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?.trim();
                kb.parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

//! The four workloads. Each drives only the engine's public API from a
//! single process; the seed determines every generated input.

use crate::probe::{self, TimedSearch, TimedSink};
use crate::run::{Params, Scale, Tally, WorkDir, Workload};
use annostore::{Annotation, AnnotationStore};
use nebula_core::{
    build_minidb, distort, Acg, CommitRule, Nebula, NebulaConfig, SearchMode, VerificationBounds,
};
use nebula_durable::harness::state_digest;
use nebula_durable::{recover, Durability, DurabilityOptions, SyncPolicy};
use nebula_ingest::{ingest_batch, IngestConfig, IngestItem};
use nebula_pagestore::{PagedStorage, PoolStats};
use nebula_replica::{Cluster, ClusterConfig, ClusterSink, SimTransport};
use nebula_workload::{build_workload, generate_dataset, DatasetBundle, DatasetSpec, WorkloadSpec};
use relstore::{snapshot, Database, TupleId, Value};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Annotations per sequential round.
const ROUND: usize = 16;
/// Tuple replacements per `churn-focal` round.
const CHURN_WRITES: usize = 4;
/// Annotations per `churn-focal` ingest batch.
const CHURN_BATCH: usize = 8;
/// Fixed focal-spreading radius of `churn-focal`.
const CHURN_K: usize = 2;
/// Buffer-pool frames of `annotate-paged` (far below its page file).
const POOL_FRAMES: usize = 256;
/// Replicas behind the primary in `replicated-tiny`.
const REPLICAS: usize = 3;
/// Pump rounds after which a replica that has not caught up counts as a
/// failed drain.
const DRAIN_CAP: u64 = 100_000;

/// The names the command line accepts.
pub const NAMES: [&str; 4] = ["annotate-large", "annotate-paged", "churn-focal", "replicated-tiny"];

/// An annotation with its focal attachments.
type Item = (Annotation, Vec<TupleId>);

fn dataset(params: &Params, spec: DatasetSpec) -> DatasetBundle {
    let spec = match params.scale {
        Scale::Bench => spec,
        Scale::Smoke => DatasetSpec::tiny(),
    };
    generate_dataset(&spec, params.seed)
}

/// The L^100 and L^500 groups, each annotation with its first ideal tuple
/// as focal, shuffled by the seed so every prefix mixes sizes and bands.
fn items(bundle: &DatasetBundle, params: &Params) -> Vec<Item> {
    let per_subset = match params.scale {
        Scale::Bench => 100,
        Scale::Smoke => 4,
    };
    let spec = WorkloadSpec { sizes: vec![100, 500], per_subset };
    let mut items: Vec<Item> = build_workload(bundle, &spec, params.seed)
        .into_iter()
        .flat_map(|set| set.annotations)
        .map(|wa| (wa.annotation, distort(&wa.ideal, 1).0))
        .collect();
    // Fisher-Yates driven by splitmix64.
    let mut state = params.seed;
    for i in (1..items.len()).rev() {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        items.swap(i, (z % (i as u64 + 1)) as usize);
    }
    items
}

/// An engine over `bundle` whose ACG is pre-built from the dataset's
/// annotations and treated as mature (§8.1).
fn engine(bundle: &DatasetBundle, search_mode: SearchMode) -> Nebula {
    let mut nebula = Nebula::new(engine_config(search_mode), bundle.meta.clone());
    let mut acg = Acg::build_from_store(&bundle.annotations);
    acg.set_stable(true);
    *nebula.acg_mut() = acg;
    nebula
}

/// Verification bounds β = (0.4, 0.85); focal spreading engages whenever
/// the search mode asks for it.
fn engine_config(search_mode: SearchMode) -> NebulaConfig {
    NebulaConfig {
        bounds: VerificationBounds::new(0.4, 0.85),
        search_mode,
        require_stable: false,
        ..Default::default()
    }
}

/// Route the engine's full searches through a [`TimedSearch`].
fn time_search(nebula: &mut Nebula) {
    let meta = nebula.meta().clone();
    nebula.set_group_search(Some(Box::new(TimedSearch::new(meta))));
}

/// [`time_search`], and wrap the installed sink in a [`TimedSink`]
/// charging probe `probe_name`.
fn time_search_and_sink(nebula: &mut Nebula, probe_name: &'static str) {
    time_search(nebula);
    let inner = nebula.take_mutation_sink().expect("the workload installed a sink");
    nebula.set_mutation_sink(Some(Box::new(TimedSink::new(probe_name, inner))));
}

/// One sequential round: `ROUND` annotations, each timed from call to
/// return. Returns the summed call time.
fn sequential_round(
    nebula: &mut Nebula,
    db: &Database,
    store: &mut AnnotationStore,
    items: &[Item],
    next: &mut usize,
    tally: &mut Tally,
) -> u64 {
    let mut busy = 0u64;
    for _ in 0..ROUND {
        let (annotation, focal) = &items[*next % items.len()];
        *next += 1;
        let t0 = Instant::now();
        let result = nebula.process_annotation(db, store, annotation, focal);
        let ns = elapsed_ns(t0);
        busy += ns;
        tally.annotation(ns, result.as_ref().ok());
    }
    busy
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn flush_sink(nebula: &mut Nebula) -> Result<(), String> {
    match nebula.take_mutation_sink() {
        Some(mut sink) => sink.flush().map_err(|e| format!("final sink flush: {e}")),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// annotate-large
// ---------------------------------------------------------------------

/// D_large on the RAM backend, full-database search, every mutation
/// committed through a WAL that fsyncs each record.
pub struct AnnotateLarge {
    db: Database,
    store: AnnotationStore,
    nebula: Nebula,
    items: Vec<Item>,
    next: usize,
    dir: WorkDir,
}

impl Workload for AnnotateLarge {
    fn setup(params: &Params) -> Result<Self, String> {
        let bundle = dataset(params, DatasetSpec::large());
        let items = items(&bundle, params);
        let mut nebula = engine(&bundle, SearchMode::Full);
        let dir = WorkDir::new("annotate-large")?;
        let options = DurabilityOptions { sync: SyncPolicy::EveryRecord, checkpoint_every: None };
        let wal = Durability::begin(dir.path(), &bundle.db, &bundle.annotations, options)
            .map_err(|e| format!("start the WAL: {e}"))?;
        nebula.set_mutation_sink(Some(Box::new(wal)));
        Ok(AnnotateLarge { db: bundle.db, store: bundle.annotations, nebula, items, next: 0, dir })
    }

    fn install_probes(&mut self) {
        time_search_and_sink(&mut self.nebula, "durable.record");
    }

    fn round(&mut self, tally: &mut Tally) -> u64 {
        let AnnotateLarge { db, store, nebula, items, next, .. } = self;
        sequential_round(nebula, db, store, items, next, tally)
    }

    fn check(&mut self, _tally: &Tally) -> Result<(), String> {
        flush_sink(&mut self.nebula)?;
        let recovered = recover(self.dir.path()).map_err(|e| format!("recover the WAL: {e}"))?;
        let live = state_digest(&self.db, &self.store);
        let replayed = state_digest(&recovered.db, &recovered.store);
        if live != replayed {
            return Err(format!("recovered state digest {replayed:?} != live {live:?}"));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// annotate-paged
// ---------------------------------------------------------------------

/// D_mid loaded onto the paged backend with a pool far below the file;
/// full-database search, no sink. A RAM twin, generated again from the
/// seed after the measured window, replays the run to check it.
pub struct AnnotatePaged {
    paged: Database,
    storage: PagedStorage,
    store: AnnotationStore,
    nebula: Nebula,
    items: Vec<Item>,
    next: usize,
    params: Params,
    flush_ms: f64,
    load: PoolStats,
    run: PoolStats,
    recorded: u64,
    _dir: WorkDir,
}

impl Workload for AnnotatePaged {
    fn setup(params: &Params) -> Result<Self, String> {
        let bundle = dataset(params, DatasetSpec::mid());
        let items = items(&bundle, params);
        let nebula = engine(&bundle, SearchMode::Full);
        let dir = WorkDir::new("annotate-paged")?;
        let frames = match params.scale {
            Scale::Bench => POOL_FRAMES,
            Scale::Smoke => 8,
        };
        let storage = PagedStorage::open(dir.path(), frames)
            .map_err(|e| format!("open the page file: {e}"))?;
        let image = snapshot::save(&bundle.db);
        let paged = snapshot::load_with(&image, Some(Arc::new(storage.clone())))
            .map_err(|e| format!("load onto pages: {e}"))?;
        let t0 = Instant::now();
        storage.flush_pages().map_err(|e| format!("flush the loaded pages: {e}"))?;
        let flush_ms = t0.elapsed().as_secs_f64() * 1e3;
        let load = storage.metrics().pool;
        // The RAM copy (`bundle.db`) is dropped here: only the paged
        // database lives through the run.
        Ok(AnnotatePaged {
            paged,
            storage,
            store: bundle.annotations,
            nebula,
            items,
            next: 0,
            params: *params,
            flush_ms,
            load,
            run: PoolStats::default(),
            recorded: 0,
            _dir: dir,
        })
    }

    fn install_probes(&mut self) {
        time_search(&mut self.nebula);
    }

    fn round(&mut self, tally: &mut Tally) -> u64 {
        let before = probe::recording().then(|| (self.storage.metrics().pool, tally.committed));
        let AnnotatePaged { paged, store, nebula, items, next, .. } = self;
        let busy = sequential_round(nebula, paged, store, items, next, tally);
        if let Some((pool, committed)) = before {
            let after = self.storage.metrics().pool;
            self.run.hits += after.hits - pool.hits;
            self.run.misses += after.misses - pool.misses;
            self.run.evictions += after.evictions - pool.evictions;
            self.recorded += tally.committed - committed;
        }
        busy
    }

    fn check(&mut self, tally: &Tally) -> Result<(), String> {
        let bundle = dataset(&self.params, DatasetSpec::mid());
        let mut twin = engine(&bundle, SearchMode::Full);
        let DatasetBundle { db: ram, annotations: mut store, .. } = bundle;
        let mut twin_tally = Tally::default();
        let mut next = 0usize;
        while twin_tally.offered < tally.offered {
            let (annotation, focal) = &self.items[next % self.items.len()];
            next += 1;
            let result = twin.process_annotation(&ram, &mut store, annotation, focal);
            twin_tally.annotation(0, result.as_ref().ok());
        }
        if twin_tally.digest != tally.digest {
            return Err("paged decisions differ from the RAM twin's".into());
        }
        if snapshot::fingerprint(&self.paged) != snapshot::fingerprint(&ram) {
            return Err("paged database fingerprint differs from the RAM twin's".into());
        }
        self.storage.flush_pages().map_err(|e| format!("final page flush: {e}"))?;
        let scrub = self.storage.scrub().map_err(|e| format!("scrub the page file: {e}"))?;
        if !scrub.is_clean() {
            return Err(format!("page file scrub found damage: {scrub:?}"));
        }
        Ok(())
    }

    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        let n = self.recorded.max(1) as f64;
        let run = self.run;
        let accesses = (run.hits + run.misses).max(1) as f64;
        vec![
            ("pagestore.hits", run.hits as f64 / n),
            ("pagestore.misses", run.misses as f64 / n),
            ("pagestore.hit_ratio", run.hits as f64 / accesses),
            ("pagestore.evictions", run.evictions as f64 / n),
            ("pagestore.write_backs", self.load.write_backs as f64),
            ("pagestore.flush_ms", self.flush_ms),
            ("pagestore.file_pages", f64::from(self.storage.metrics().page_count)),
        ]
    }
}

// ---------------------------------------------------------------------
// churn-focal
// ---------------------------------------------------------------------

/// D_large on RAM with fixed-K focal spreading. Each round replaces
/// publication rows (delete + deletion hook + insert) and then ingests a
/// batch of annotations through the worker pool.
pub struct ChurnFocal {
    db: Database,
    store: AnnotationStore,
    nebula: Nebula,
    items: Vec<Item>,
    next: usize,
    victims: VecDeque<TupleId>,
    replaced: u64,
    seed: u64,
    workers: usize,
    tuples: usize,
    unaccounted: Vec<String>,
}

impl Workload for ChurnFocal {
    fn setup(params: &Params) -> Result<Self, String> {
        let bundle = dataset(params, DatasetSpec::large());
        let items = items(&bundle, params);
        // Workload annotations embed gene and protein references only, so
        // no publication row is one a workload annotation references.
        let victims = bundle.publication_tuples.iter().copied().collect();
        let nebula = engine(&bundle, SearchMode::FocalSpread { k: CHURN_K });
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        Ok(ChurnFocal {
            tuples: bundle.db.total_tuples(),
            db: bundle.db,
            store: bundle.annotations,
            nebula,
            items,
            next: 0,
            victims,
            replaced: 0,
            seed: params.seed,
            workers,
            unaccounted: Vec::new(),
        })
    }

    /// Nothing to wrap: there is no sink, and focal-spread searches never
    /// reach the group-search seam. The rounds time their own calls.
    fn install_probes(&mut self) {}

    fn round(&mut self, tally: &mut Tally) -> u64 {
        let mut busy = 0u64;
        for _ in 0..CHURN_WRITES {
            busy += self.replace_one(tally);
        }

        let batch: Vec<IngestItem> = (0..CHURN_BATCH)
            .map(|_| {
                let (annotation, focal) = &self.items[self.next % self.items.len()];
                self.next += 1;
                IngestItem::new(annotation.clone(), focal.clone())
            })
            .collect();
        if probe::recording() {
            // Outside the timed work: the miniDB each item's search will
            // build (against the ACG as it stands before the batch).
            for item in &batch {
                probe::time_units(
                    "core.build_minidb",
                    |(mini, _): &(Database, _)| mini.total_tuples() as u64,
                    || build_minidb(&self.db, self.nebula.acg(), &item.focal, CHURN_K),
                );
            }
        }
        let config = IngestConfig::deterministic(self.workers, CHURN_BATCH);
        let t0 = Instant::now();
        let report = probe::time("ingest.batch", || {
            ingest_batch(&mut self.nebula, &self.db, &mut self.store, &batch, &config)
        });
        busy += elapsed_ns(t0);

        let mut seen = [0u8; CHURN_BATCH];
        for shed in &report.sheds {
            seen[shed.index] += 1;
            tally.annotation(0, None);
        }
        for (entry, &ns) in report.batch.entries.iter().zip(&report.latencies_ns) {
            seen[entry.index] += 1;
            tally.annotation(ns, entry.outcome.as_ref());
        }
        if report.latencies_ns.len() != report.batch.entries.len() || seen.iter().any(|&n| n != 1) {
            self.unaccounted.push(format!(
                "batch at item {}: per-item counts {seen:?}, {} latencies for {} entries",
                self.next,
                report.latencies_ns.len(),
                report.batch.entries.len()
            ));
        }
        busy
    }

    fn check(&mut self, _tally: &Tally) -> Result<(), String> {
        if let Some(first) = self.unaccounted.first() {
            return Err(format!(
                "{} batches lost or duplicated items; {first}",
                self.unaccounted.len()
            ));
        }
        if self.db.total_tuples() != self.tuples {
            return Err(format!(
                "{} tuples after replacements, expected {}",
                self.db.total_tuples(),
                self.tuples
            ));
        }
        Ok(())
    }
}

impl ChurnFocal {
    /// Replace the oldest victim row with a fresh copy under a new key;
    /// returns the time of the delete + hook + insert.
    fn replace_one(&mut self, tally: &mut Tally) -> u64 {
        let victim = self.victims.pop_front().expect("every replacement re-queues a victim");
        let Some(row) = self.db.get(victim) else {
            tally.tuple_write(0, false);
            return 0;
        };
        self.replaced += 1;
        let mut values = row.values;
        values[0] = Value::text(format!("PUBR{:x}-{:07}", self.seed, self.replaced));

        let t0 = Instant::now();
        let deleted = probe::time("relstore.delete", || self.db.delete(victim));
        let hook = probe::time("core.on_tuple_deleted", || {
            self.nebula.on_tuple_deleted(&mut self.store, victim)
        });
        let inserted = probe::time("relstore.insert", || self.db.insert("publication", values));
        let ns = elapsed_ns(t0);

        let ok = deleted && hook.is_ok() && inserted.is_ok();
        self.victims.push_back(inserted.unwrap_or(victim));
        tally.tuple_write(ns, ok);
        ns
    }
}

// ---------------------------------------------------------------------
// replicated-tiny
// ---------------------------------------------------------------------

/// Tiny datasets per `replicated-tiny` run, taken in turn by successive
/// cluster lifetimes (one tiny dataset is too small a sample to give a
/// seed-independent figure).
const REPLICATED_DATASETS: u64 = 8;

/// One tiny dataset's initial state and annotations.
struct TinyInput {
    db: Database,
    store: Vec<u8>,
    acg: Acg,
    meta: nebula_core::NebulaMeta,
    items: Vec<Item>,
    next: usize,
}

/// The tiny preset committed through a three-replica cluster that waits
/// for a quorum of two acknowledgements per record. Each round runs on a
/// fresh cluster over the next dataset's initial state; before the next
/// round the cluster is drained and checked. The per-record state digest
/// thus works on a bounded store, and every round does the same work,
/// which keeps traced and untraced rounds comparable.
pub struct ReplicatedTiny {
    inputs: Vec<TinyInput>,
    current: usize,
    store: AnnotationStore,
    nebula: Nebula,
    cluster: ClusterSink,
    used: bool,
    traced: bool,
    clusters: u64,
    drain_rounds: u64,
    failures: Vec<String>,
    _dir: WorkDir,
}

impl Workload for ReplicatedTiny {
    fn setup(params: &Params) -> Result<Self, String> {
        let inputs: Vec<TinyInput> = (0..REPLICATED_DATASETS)
            .map(|k| {
                let params = Params {
                    seed: params.seed.wrapping_mul(REPLICATED_DATASETS).wrapping_add(k),
                    ..*params
                };
                let bundle = dataset(&params, DatasetSpec::tiny());
                let nebula = engine(&bundle, SearchMode::Full);
                TinyInput {
                    items: items(&bundle, &params),
                    store: annostore::snapshot::save(&bundle.annotations).to_vec(),
                    acg: nebula.acg().clone(),
                    meta: bundle.meta,
                    db: bundle.db,
                    next: 0,
                }
            })
            .collect();
        let config = engine_config(SearchMode::Full);
        let (store, nebula, cluster, dir) = start_cluster(&inputs, 0, config)?;
        Ok(ReplicatedTiny {
            inputs,
            current: 0,
            store,
            nebula,
            cluster,
            used: false,
            traced: false,
            clusters: 0,
            drain_rounds: 0,
            failures: Vec::new(),
            _dir: dir,
        })
    }

    fn install_probes(&mut self) {
        self.traced = true;
        time_search_and_sink(&mut self.nebula, "replica.record");
    }

    fn round(&mut self, tally: &mut Tally) -> u64 {
        if self.used {
            if let Err(e) = self.finish_cluster().and_then(|()| self.restart()) {
                self.failures.push(e);
            }
        }
        self.used = true;
        let input = &mut self.inputs[self.current];
        let (nebula, store) = (&mut self.nebula, &mut self.store);
        sequential_round(nebula, &input.db, store, &input.items, &mut input.next, tally)
    }

    fn check(&mut self, _tally: &Tally) -> Result<(), String> {
        if let Err(e) = self.finish_cluster() {
            self.failures.push(e);
        }
        match self.failures.first() {
            Some(first) => Err(format!("{} cluster checks failed; {first}", self.failures.len())),
            None => Ok(()),
        }
    }

    fn layer_extras(&self) -> Vec<(&'static str, f64)> {
        vec![("replica.drain_rounds", self.drain_rounds as f64 / self.clusters.max(1) as f64)]
    }
}

/// The initial store, an engine and a fresh cluster for dataset `k`.
fn start_cluster(
    inputs: &[TinyInput],
    k: usize,
    config: NebulaConfig,
) -> Result<(AnnotationStore, Nebula, ClusterSink, WorkDir), String> {
    let input = &inputs[k];
    let store = annostore::snapshot::load(&input.store)
        .map_err(|e| format!("reload the initial store: {e}"))?;
    let mut nebula = Nebula::new(config, input.meta.clone());
    *nebula.acg_mut() = input.acg.clone();
    let dir = WorkDir::new("replicated-tiny")?;
    let cluster_config = ClusterConfig { rule: CommitRule::Quorum(2), ..ClusterConfig::default() };
    let transport = Box::new(SimTransport::reliable(REPLICAS + 1));
    let cluster = Cluster::new(dir.path(), &input.db, &store, REPLICAS, transport, cluster_config)
        .map_err(|e| format!("start the cluster: {e}"))?;
    let sink = ClusterSink::new(cluster);
    let handle = sink.handle();
    nebula.set_mutation_sink(Some(Box::new(sink)));
    Ok((store, nebula, handle, dir))
}

impl ReplicatedTiny {
    /// Drain the cluster and check that every replica reached the
    /// primary's shadow digest, which must equal the live state's.
    fn finish_cluster(&mut self) -> Result<(), String> {
        flush_sink(&mut self.nebula)?;
        self.clusters += 1;
        let mut cluster = self.cluster.lock();
        let last = cluster.primary().last_lsn();
        let mut rounds = 0;
        while cluster.primary().min_acked() < last && rounds < DRAIN_CAP {
            cluster.pump(1);
            rounds += 1;
        }
        self.drain_rounds += rounds;
        let want = cluster.primary().shadow_digest();
        if want != state_digest(&self.inputs[self.current].db, &self.store) {
            return Err("primary shadow digest differs from the live state".into());
        }
        if !cluster.primary().divergences().is_empty() {
            return Err(format!("{} divergences", cluster.primary().divergences().len()));
        }
        for replica in cluster.replicas() {
            if replica.is_wedged() || replica.applied() != last || replica.digest() != want {
                return Err(format!(
                    "a replica did not drain: wedged={} applied={} of {last}",
                    replica.is_wedged(),
                    replica.applied()
                ));
            }
        }
        Ok(())
    }

    /// Start the next dataset's cluster from its initial state.
    fn restart(&mut self) -> Result<(), String> {
        self.current = (self.current + 1) % self.inputs.len();
        let config = self.nebula.config().clone();
        let (store, nebula, cluster, dir) = start_cluster(&self.inputs, self.current, config)?;
        (self.store, self.nebula, self.cluster, self._dir) = (store, nebula, cluster, dir);
        self.used = false;
        if self.traced {
            time_search_and_sink(&mut self.nebula, "replica.record");
        }
        Ok(())
    }
}

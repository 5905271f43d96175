//! The evaluation API: one shared analysis store and the stateless sweep
//! executors that simulate against it.
//!
//! The paper's evaluation runs one trace-generation pass (Algorithm 2) per
//! workload and then simulates that workload under many defense designs.
//! This module memoizes each [`AnalysisBundle`] keyed by the program's
//! content fingerprint
//! ([`cassandra_trace::fingerprint::program_fingerprint`]), so a full
//! multi-experiment evaluation analyzes every distinct program **exactly
//! once** no matter how many design points, experiments or concurrent
//! requests consume it — as long as the store holds at most
//! [`STORE_CAPACITY`] programs; past that, an evicted program costs one
//! re-analysis when it comes back.
//!
//! ## The two layers
//!
//! * [`AnalysisStore`] — analyse once. A fingerprint-keyed map of at most
//!   [`STORE_CAPACITY`] `Arc<AnalysisBundle>`s behind one `RwLock`, with
//!   second-chance (CLOCK) eviction and per-fingerprint **in-flight
//!   guards**: when two threads request the same un-analyzed program, one
//!   runs Algorithm 2 and the other blocks until the result lands, so the
//!   exactly-once property holds under concurrency. Cache counters are
//!   atomics, observable through [`AnalysisStore::stats`], and the whole
//!   store serializes to an [`AnalysisSnapshot`] for warm-starts (the
//!   server's cache journal).
//! * [`SweepExecutor`] — simulate many. A stateless engine borrowing a
//!   store: [`SweepExecutor::simulate`] runs one workload under one
//!   [`CpuConfig`], and [`SweepExecutor::sweep_matrix`] /
//!   [`SweepExecutor::sweep_stream`] evaluate workload × design matrices
//!   ([`DesignPoint`]s: a label plus a complete [`CpuConfig`]) into
//!   [`EvalRecord`]s. Any number of executors can run against one store
//!   concurrently; every experiment in [`crate::registry`] runs on one, and
//!   the evaluation server builds one per request over its shared store.
//!   Sweeps honor a [`CancelToken`], checked between design-point cells.
//!
//! Sweeps simulate design points on all available cores using scoped
//! threads; analysis stays serial (guarded per fingerprint) so the
//! exactly-once property is trivially preserved. (The vendored offline
//! toolchain has no `rayon`; the thread pool is a small
//! `std::thread::scope` work queue with identical output ordering.)

use crate::AnalysisBundle;
use cassandra_analysis::StaticReport;
use cassandra_btu::unit::ContextBtuStats;
use cassandra_cpu::config::{CpuConfig, DefenseMode};
use cassandra_cpu::pipeline::{simulate, SimOutcome};
use cassandra_cpu::stats::SimStats;
use cassandra_isa::error::IsaError;
use cassandra_isa::program::Program;
use cassandra_kernels::workload::{Workload, WorkloadGroup};
use cassandra_trace::fingerprint::program_fingerprint;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard,
};
use std::time::{Duration, Instant};

mod clock;

use clock::ClockMap;

/// One point of the design matrix: a named, complete processor
/// configuration.
///
/// Most design points are plain defenses over the Table-3 baseline
/// ([`DesignPoint::from_defense`]); arbitrary [`CpuConfig`] overrides (BTU
/// geometry, flush intervals, memory latency, …) use [`DesignPoint::new`]
/// with the `CpuConfig::with_*` builders.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// Column label used in records and reports.
    pub label: String,
    /// The complete processor configuration simulated at this point.
    pub config: CpuConfig,
}

impl DesignPoint {
    /// A design point with an explicit label and configuration.
    pub fn new(label: impl Into<String>, config: CpuConfig) -> Self {
        DesignPoint {
            label: label.into(),
            config,
        }
    }

    /// The Table-3 baseline configuration under `defense`, labelled with the
    /// defense's paper name.
    pub fn from_defense(defense: DefenseMode) -> Self {
        let config = CpuConfig::golden_cove_like().with_defense(defense);
        DesignPoint {
            label: defense.label().to_string(),
            config,
        }
    }

    /// A design point for `config`, labelled by how it differs from the
    /// baseline (see [`CpuConfig::design_label`]).
    pub fn from_config(config: CpuConfig) -> Self {
        DesignPoint {
            label: config.design_label(),
            config,
        }
    }
}

/// Analysis-cache counters of one [`AnalysisStore`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Analyses served from the memoization cache.
    pub hits: u64,
    /// Analyses that ran Algorithm 2 (one per distinct program, plus one
    /// per return of an evicted program).
    pub misses: u64,
    /// Analyses dropped to keep the store within [`STORE_CAPACITY`].
    /// Omitted from serialized counters while zero, so the encodings of
    /// stores that never filled up are unchanged.
    #[serde(skip_if_default)]
    pub evictions: u64,
}

impl CacheStats {
    /// Total analysis requests.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// Wall-clock timing of one evaluation record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvalTiming {
    /// Time spent generating this workload's analysis (the first time; 0 is
    /// possible for sub-microsecond analyses, see `analysis_cached`).
    pub analysis: Duration,
    /// True if the analysis was served from the store's cache.
    pub analysis_cached: bool,
    /// Time spent in the cycle-level simulation of this design point.
    pub simulate: Duration,
}

/// One row of the uniform evaluation stream: a workload simulated at one
/// design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalRecord {
    /// Workload name.
    pub workload: String,
    /// Workload library group.
    pub group: WorkloadGroup,
    /// Design-point label.
    pub design: String,
    /// The defense simulated at this point.
    pub defense: DefenseMode,
    /// Simulation statistics (cycles, IPC inputs, BPU/BTU/cache counters).
    pub stats: SimStats,
    /// Wall-clock timing breakdown.
    pub timing: EvalTiming,
    /// Per-context BTU statistics, one entry per application context the BTU
    /// saw. Empty (and omitted from serialized records) for single-context
    /// runs, so existing record streams are byte-identical.
    #[serde(skip_if_default)]
    pub btu_contexts: Vec<ContextBtuStats>,
}

// --------------------------------------------------------------- cancel

/// A cooperative cancellation handle.
///
/// Cloning shares the flag: hand one clone to a sweep and keep the other to
/// cancel it from another thread. Sweeps check the token **between
/// design-point cells** (and between per-workload analyses), so
/// cancellation latency is bounded by one simulation, never observed
/// mid-cell.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raises the flag; every sweep holding a clone stops at its next
    /// between-cells check.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called on any clone.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// How a cancellable sweep ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepOutcome {
    /// Every cell of the matrix was evaluated and emitted.
    Complete,
    /// The sweep stopped early: its [`CancelToken`] was raised (or the emit
    /// callback declined a record). Already-completed analyses stay in the
    /// store; unemitted records are dropped.
    Cancelled,
}

// ------------------------------------------------------- analysis store

/// Most analyses one [`AnalysisStore`] holds (and most static lint reports
/// it memoizes). Sized to a service's working set: the 21 paper programs,
/// the smoke kernels and the kernels its clients submit, about 150 KB of
/// analyses at their measured ~580 bytes each. Past it, the store evicts
/// by second chance (CLOCK): a program that comes back after its eviction
/// costs one re-analysis.
pub const STORE_CAPACITY: usize = 256;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

struct StoreEntry {
    bundle: Arc<AnalysisBundle>,
    elapsed: Duration,
    /// One past the largest analyzed branch PC: the length of the
    /// PC-indexed tables every BTU built from `bundle` allocates.
    pc_bound: usize,
}

impl StoreEntry {
    fn new(bundle: Arc<AnalysisBundle>, elapsed: Duration) -> Self {
        // Hints come in PC order, so the last one bounds the tables.
        let pc_bound = bundle
            .encoded
            .hints()
            .last()
            .map_or(0, |(max_pc, _)| max_pc + 1);
        StoreEntry {
            bundle,
            elapsed,
            pc_bound,
        }
    }
}

/// How an in-flight analysis ended, as its waiters see it.
#[derive(Default)]
enum Flight {
    #[default]
    Running,
    /// The analysis and its wall time. Waiters take it from here rather
    /// than from the store, which may already have evicted it.
    Landed(Arc<AnalysisBundle>, Duration),
    Failed,
}

/// Rendezvous point for threads requesting a fingerprint that is being
/// analyzed right now.
#[derive(Default)]
struct InFlight {
    state: Mutex<Flight>,
    ready: Condvar,
}

/// Releases an in-flight guard on every exit path (success, error, panic):
/// removes the fingerprint from the in-flight map, hands the waiters the
/// analysis (or the failure) and wakes them.
struct AnalyzerGuard<'a> {
    store: &'a AnalysisStore,
    key: u64,
    flight: Arc<InFlight>,
    landed: Option<(Arc<AnalysisBundle>, Duration)>,
}

impl Drop for AnalyzerGuard<'_> {
    fn drop(&mut self) {
        lock(&self.store.in_flight).remove(&self.key);
        *lock(&self.flight.state) = match self.landed.take() {
            Some((bundle, elapsed)) => Flight::Landed(bundle, elapsed),
            None => Flight::Failed,
        };
        self.flight.ready.notify_all();
    }
}

/// Callback invoked (outside all store locks) each time a *fresh* analysis
/// lands in the store — the hook the evaluation server's journal mode uses
/// to persist entries incrementally. Cache hits and absorbed snapshots do
/// not fire it.
pub type InsertObserver = Arc<dyn Fn(&SnapshotEntry) + Send + Sync>;

/// The thread-safe analysis cache: one fingerprint-keyed map of at most
/// [`STORE_CAPACITY`] `Arc<AnalysisBundle>`s behind an `RwLock`,
/// exactly-once analysis under concurrency via per-fingerprint in-flight
/// guards, and atomic [`CacheStats`].
///
/// A store is the shared half of an evaluation: any number of
/// [`SweepExecutor`]s can consume one store concurrently — this is what
/// lets the evaluation server run N requests in flight against one cache.
/// Lookups take the entry map's read lock only, for one hash probe, a
/// reference-bit store and an `Arc` clone; Algorithm 2 itself runs with
/// **no** store lock held, so a slow analysis never blocks hits on other
/// programs.
///
/// A full store evicts by second chance (CLOCK): an insert sweeps a hand
/// over the entries in insertion order, passing over (once) each entry hit
/// since the hand last passed it, and drops the first that was not.
/// Eviction only forgets: `Arc`s already handed out stay valid, threads
/// waiting on an in-flight analysis receive it even if it is evicted
/// before they wake, and the entry being inserted is never the one
/// evicted.
///
/// Lock order: `in_flight` may be held while taking `entries` (the
/// analyzer-election re-check), never the reverse; `lints` and `observer`
/// are leaves.
pub struct AnalysisStore {
    entries: RwLock<ClockMap<StoreEntry>>,
    in_flight: Mutex<HashMap<u64, Arc<InFlight>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    lints: RwLock<ClockMap<Arc<StaticReport>>>,
    observer: RwLock<Option<InsertObserver>>,
}

enum Role<'a> {
    Analyzer(AnalyzerGuard<'a>),
    Waiter(Arc<InFlight>),
}

impl Default for AnalysisStore {
    fn default() -> Self {
        Self::new()
    }
}

impl AnalysisStore {
    /// An empty store.
    pub fn new() -> Self {
        AnalysisStore {
            entries: RwLock::new(ClockMap::new(STORE_CAPACITY)),
            in_flight: Mutex::default(),
            hits: AtomicU64::default(),
            misses: AtomicU64::default(),
            evictions: AtomicU64::default(),
            lints: RwLock::new(ClockMap::new(STORE_CAPACITY)),
            observer: RwLock::default(),
        }
    }

    /// Installs (or clears, with `None`) the fresh-analysis observer. The
    /// callback runs on the analyzing thread after the entry is published,
    /// outside all store locks; the server's `--cache-file` journal mode
    /// uses it to append each completed analysis to disk.
    pub fn set_insert_observer(&self, observer: Option<InsertObserver>) {
        *write(&self.observer) = observer;
    }

    /// Cache counters (hits/misses/evictions) accumulated so far. Entries
    /// loaded from an [`AnalysisSnapshot`] count as neither hit nor miss
    /// until first use, then as hits.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct programs currently held (at most
    /// [`STORE_CAPACITY`]).
    pub fn len(&self) -> usize {
        read(&self.entries).len()
    }

    /// True if no program has been analyzed or absorbed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn lookup(&self, key: u64) -> Option<(Arc<AnalysisBundle>, Duration, usize)> {
        read(&self.entries)
            .get(key)
            .map(|e| (Arc::clone(&e.bundle), e.elapsed, e.pc_bound))
    }

    /// Stores `entry` under `key`, counting the eviction it may cost.
    fn publish(&self, entries: &mut ClockMap<StoreEntry>, key: u64, entry: StoreEntry) {
        if entries.insert(key, entry).is_some() {
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn notify_observer(&self, entry: &SnapshotEntry) {
        let observer = read(&self.observer).clone();
        if let Some(observer) = observer {
            observer(entry);
        }
    }

    /// The memoized analysis of `program`, with its timing and cache
    /// disposition. Exactly one thread runs Algorithm 2 per fingerprint:
    /// concurrent requests for an in-flight program block until the result
    /// lands and then count as hits, even if the store has evicted it by
    /// the time they wake.
    ///
    /// Cache hits deliberately ignore `step_limit`: a stored bundle is
    /// **budget-independent** — Algorithm 2 *errors* (`StepLimitExceeded`)
    /// rather than truncating when a profiling run exhausts its budget, so
    /// every bundle that exists came from a run that halted on its own and
    /// any sufficient budget produces the identical bundle. The budget
    /// only gates whether a *cold* analysis completes.
    ///
    /// An entry whose branch PCs lie past the end of `program` (a corrupt
    /// or hostile journal line) is dropped and analyzed afresh as a miss:
    /// replaying it would size every BTU's PC-indexed tables by that PC.
    ///
    /// # Errors
    ///
    /// Propagates profiling-run errors from Algorithm 2. On error the
    /// in-flight guard is released, so a later request retries the
    /// analysis.
    pub fn entry(
        &self,
        program: &Program,
        step_limit: u64,
    ) -> Result<(Arc<AnalysisBundle>, EvalTiming), IsaError> {
        let key = program_fingerprint(program);
        let cached = |bundle, elapsed| {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Ok((
                bundle,
                EvalTiming {
                    analysis: elapsed,
                    analysis_cached: true,
                    simulate: Duration::ZERO,
                },
            ))
        };
        loop {
            if let Some((bundle, elapsed, pc_bound)) = self.lookup(key) {
                if pc_bound <= program.len() {
                    return cached(bundle, elapsed);
                }
                let mut entries = write(&self.entries);
                if entries
                    .peek(key)
                    .is_some_and(|e| e.pc_bound > program.len())
                {
                    entries.remove(key);
                }
            }
            let role = {
                let mut in_flight = lock(&self.in_flight);
                // Close the race where the analyzer finished (and dropped
                // its guard) between our lookup above and this lock.
                if read(&self.entries).contains_key(key) {
                    continue;
                }
                match in_flight.entry(key) {
                    Entry::Occupied(e) => Role::Waiter(Arc::clone(e.get())),
                    Entry::Vacant(v) => {
                        let flight = Arc::new(InFlight::default());
                        v.insert(Arc::clone(&flight));
                        Role::Analyzer(AnalyzerGuard {
                            store: self,
                            key,
                            flight,
                            landed: None,
                        })
                    }
                }
            };
            match role {
                Role::Waiter(flight) => {
                    let mut state = lock(&flight.state);
                    while matches!(*state, Flight::Running) {
                        state = flight
                            .ready
                            .wait(state)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                    if let Flight::Landed(bundle, elapsed) = &*state {
                        return cached(Arc::clone(bundle), *elapsed);
                    }
                    // The analyzer failed: contend to become the next one.
                }
                Role::Analyzer(mut guard) => {
                    let start = Instant::now();
                    let analysis = Arc::new(AnalysisBundle::analyze(program, step_limit)?);
                    let elapsed = start.elapsed();
                    self.publish(
                        &mut write(&self.entries),
                        key,
                        StoreEntry::new(Arc::clone(&analysis), elapsed),
                    );
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    guard.landed = Some((Arc::clone(&analysis), elapsed));
                    drop(guard);
                    self.notify_observer(&SnapshotEntry {
                        fingerprint: key,
                        elapsed,
                        analysis: (*analysis).clone(),
                    });
                    return Ok((
                        analysis,
                        EvalTiming {
                            analysis: elapsed,
                            analysis_cached: false,
                            simulate: Duration::ZERO,
                        },
                    ));
                }
            }
        }
    }

    /// The memoized static constant-time report of `program` (see
    /// [`cassandra_analysis::analyze`]), keyed by the same content
    /// fingerprint as the dynamic (Algorithm 2) analyses but held in a
    /// separate map of the same capacity and eviction: static lint is
    /// deterministic and infallible, so it needs no in-flight guard — a
    /// rare duplicate computation under concurrency produces an identical
    /// report and one copy wins.
    ///
    /// Lint results do **not** count towards [`stats`](Self::stats): those
    /// counters meter Algorithm-2 profiling runs only, and several tests
    /// pin their exact arithmetic.
    pub fn lint(&self, program: &Program) -> Arc<StaticReport> {
        let key = program_fingerprint(program);
        if let Some(report) = read(&self.lints).get(key) {
            return Arc::clone(report);
        }
        let report = Arc::new(cassandra_analysis::analyze(program));
        let mut lints = write(&self.lints);
        if let Some(held) = lints.peek(key) {
            return Arc::clone(held);
        }
        lints.insert(key, Arc::clone(&report));
        report
    }

    /// Number of distinct programs with a memoized static lint report.
    pub fn linted_programs(&self) -> usize {
        read(&self.lints).len()
    }

    /// Serializes the store's contents for a later warm-start. Entries are
    /// ordered by fingerprint, so equal stores snapshot identically. The
    /// read lock is held only while the entries' `Arc`s are copied out;
    /// every bundle is cloned (its summary copied, its encoding shared)
    /// after it is released, so a journal compaction delays a fresh insert
    /// by an `Arc` copy per entry (at most [`STORE_CAPACITY`]), not by a
    /// copy of the whole store. Static lint reports are not snapshotted —
    /// recomputing them is milliseconds, unlike Algorithm-2 profiling runs.
    pub fn snapshot(&self) -> AnalysisSnapshot {
        let mut held: Vec<(u64, Duration, Arc<AnalysisBundle>)> = read(&self.entries)
            .iter()
            .map(|(fingerprint, e)| (fingerprint, e.elapsed, Arc::clone(&e.bundle)))
            .collect();
        held.sort_unstable_by_key(|&(fingerprint, ..)| fingerprint);
        let entries = held
            .into_iter()
            .map(|(fingerprint, elapsed, bundle)| SnapshotEntry {
                fingerprint,
                elapsed,
                analysis: (*bundle).clone(),
            })
            .collect();
        AnalysisSnapshot { entries }
    }

    /// Loads a snapshot's analyses into the store in order, skipping
    /// fingerprints it already holds, and returns how many of them the
    /// store holds afterwards. Absorbed entries go in unreferenced, so when
    /// a snapshot holds more than [`STORE_CAPACITY`] new programs the
    /// later ones win (a journal's most recent lines). Warmed entries count
    /// as cache hits on first use (they never re-run Algorithm 2), which is
    /// how a warm-started server's `Done.cache` reports them. Absorbed
    /// entries do not fire the insert observer — the journal only records
    /// analyses this process ran.
    pub fn absorb(&self, snapshot: AnalysisSnapshot) -> usize {
        let mut added = Vec::new();
        let mut entries = write(&self.entries);
        for entry in snapshot.entries {
            if !entries.contains_key(entry.fingerprint) {
                self.publish(
                    &mut entries,
                    entry.fingerprint,
                    StoreEntry::new(Arc::new(entry.analysis), entry.elapsed),
                );
                added.push(entry.fingerprint);
            }
        }
        // A fingerprint evicted and then met again later in the snapshot
        // was added twice.
        added.sort_unstable();
        added.dedup();
        added.retain(|&fingerprint| entries.contains_key(fingerprint));
        added.len()
    }
}

/// One serialized [`AnalysisStore`] entry: the program fingerprint, the
/// original analysis wall time, and the full [`AnalysisBundle`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// Content fingerprint the store keys this analysis by.
    pub fingerprint: u64,
    /// Wall time of the original Algorithm-2 run (reported by cached
    /// timings).
    pub elapsed: Duration,
    /// The memoized analysis.
    pub analysis: AnalysisBundle,
}

/// The serializable contents of an [`AnalysisStore`] (see
/// [`AnalysisStore::snapshot`] / [`AnalysisStore::absorb`]); the evaluation
/// server's `--cache-file` warm-start format.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AnalysisSnapshot {
    /// Stored analyses, ordered by fingerprint.
    pub entries: Vec<SnapshotEntry>,
}

// ------------------------------------------------------- sweep executor

/// A stateless sweep engine over a borrowed [`AnalysisStore`]: simulates
/// workloads under design points, honoring a [`CancelToken`] between
/// design-point cells.
///
/// Executors hold no mutable state of their own, so any number can run
/// concurrently against one store — the server materializes one per
/// request. [`SweepExecutor::simulate`] runs one cell;
/// [`SweepExecutor::sweep_matrix`] collects the records of a full matrix;
/// [`SweepExecutor::sweep_stream`] emits them in matrix order as cells
/// complete, which is what the wire protocol streams.
///
/// ```
/// use cassandra_core::eval::{AnalysisStore, DesignPoint, SweepExecutor};
/// use cassandra_cpu::config::DefenseMode;
/// use cassandra_kernels::suite;
///
/// let store = AnalysisStore::new();
/// let ex = SweepExecutor::new(&store);
/// let workloads = [suite::des_workload(4)];
/// let designs = [DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]
///     .map(DesignPoint::from_defense);
///
/// let records = ex.sweep_matrix(&workloads, &designs)?;
/// assert_eq!(records.len(), 2);
///
/// // Sweeping again reuses the memoized analysis: one miss, ever.
/// ex.sweep_matrix(&workloads, &designs)?;
/// assert_eq!(store.stats().misses, 1);
/// assert!(store.stats().hits >= 1);
/// # Ok::<(), cassandra_isa::error::IsaError>(())
/// ```
pub struct SweepExecutor<'a> {
    store: &'a AnalysisStore,
    threads: Option<usize>,
}

impl<'a> SweepExecutor<'a> {
    /// An executor over `store` using every available core.
    pub fn new(store: &'a AnalysisStore) -> Self {
        SweepExecutor {
            store,
            threads: None,
        }
    }

    /// Overrides the worker-thread count of streaming sweeps (default: all
    /// available cores, capped at the job count). `Some(1)` forces the
    /// serial path. Tests use this to pin result determinism across thread
    /// counts.
    #[must_use]
    pub fn with_threads(mut self, threads: Option<usize>) -> Self {
        self.threads = threads;
        self
    }

    /// The store this executor evaluates against.
    pub fn store(&self) -> &'a AnalysisStore {
        self.store
    }

    /// Simulates a workload under `cfg`, analyzing it first if the store
    /// has not seen its program yet.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors.
    pub fn simulate(&self, workload: &Workload, cfg: &CpuConfig) -> Result<SimOutcome, IsaError> {
        let kernel = &workload.kernel;
        let (analysis, _) = self.store.entry(&kernel.program, kernel.step_limit)?;
        simulate_cell(workload, &analysis, cfg)
    }

    /// Evaluates the full workload × design matrix, returning the records
    /// in matrix order (workload-major). Analyses run exactly once per
    /// distinct program; simulations run in parallel.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors.
    pub fn sweep_matrix(
        &self,
        workloads: &[Workload],
        designs: &[DesignPoint],
    ) -> Result<Vec<EvalRecord>, IsaError> {
        let mut records = Vec::with_capacity(workloads.len() * designs.len());
        let outcome = self.sweep_stream(workloads, designs, &CancelToken::new(), |record| {
            records.push(record);
            true
        })?;
        debug_assert_eq!(
            outcome,
            SweepOutcome::Complete,
            "nothing cancels this token"
        );
        Ok(records)
    }

    /// Evaluates the matrix like [`SweepExecutor::sweep_matrix`], but emits
    /// each record through `emit` — in matrix order, as soon as its cell
    /// (and every earlier cell) has completed — instead of collecting them.
    ///
    /// Cancellation is checked between design-point cells: once `cancel` is
    /// raised (or `emit` returns `false`), workers stop picking up cells,
    /// nothing more is emitted, and the sweep returns
    /// [`SweepOutcome::Cancelled`]. Analyses completed before the
    /// cancellation stay in the store.
    ///
    /// # Errors
    ///
    /// Propagates analysis or simulation errors (the first one, if several
    /// cells fail concurrently).
    pub fn sweep_stream<F>(
        &self,
        workloads: &[Workload],
        designs: &[DesignPoint],
        cancel: &CancelToken,
        emit: F,
    ) -> Result<SweepOutcome, IsaError>
    where
        F: FnMut(EvalRecord) -> bool + Send,
    {
        // Phase 1 (serial): analyze every workload once, through the store;
        // the in-flight guards make concurrent sweeps share, not duplicate,
        // this work.
        let mut analyses: Vec<(Arc<AnalysisBundle>, EvalTiming)> =
            Vec::with_capacity(workloads.len());
        for w in workloads {
            if cancel.is_cancelled() {
                return Ok(SweepOutcome::Cancelled);
            }
            analyses.push(self.store.entry(&w.kernel.program, w.kernel.step_limit)?);
        }

        // Phase 2: simulate every (workload, design) cell.
        let jobs: Vec<(usize, usize)> = (0..workloads.len())
            .flat_map(|wi| (0..designs.len()).map(move |di| (wi, di)))
            .collect();
        let run_one = |&(wi, di): &(usize, usize)| -> Result<EvalRecord, IsaError> {
            let (w, d) = (&workloads[wi], &designs[di]);
            let (bundle, mut timing) = (&analyses[wi].0, analyses[wi].1);
            let start = Instant::now();
            let outcome = simulate_cell(w, bundle, &d.config)?;
            timing.simulate = start.elapsed();
            Ok(EvalRecord {
                workload: w.name.clone(),
                group: w.group,
                design: d.label.clone(),
                defense: d.config.defense,
                stats: outcome.stats,
                timing,
                btu_contexts: outcome.btu_contexts,
            })
        };
        stream_jobs(&jobs, run_one, cancel, emit, self.threads)
    }
}

/// One matrix cell: `workload` under `config` with its analysis, the
/// instruction budget raised to the workload's own step limit.
fn simulate_cell(
    workload: &Workload,
    analysis: &AnalysisBundle,
    config: &CpuConfig,
) -> Result<SimOutcome, IsaError> {
    let mut cfg = *config;
    cfg.max_instructions = cfg.max_instructions.max(workload.kernel.step_limit);
    simulate_program(&workload.kernel.program, Some(analysis), &cfg)
}

/// Simulates `program` under `config` with a caller-provided analysis,
/// touching no store: the primitive behind every executor cell. The BTU is
/// built only when the configured frontend replays traces.
///
/// # Errors
///
/// Propagates simulation errors.
pub fn simulate_program(
    program: &Program,
    analysis: Option<&AnalysisBundle>,
    config: &CpuConfig,
) -> Result<SimOutcome, IsaError> {
    let btu = if config.resolved_policy().frontend.uses_btu() {
        analysis.map(|a| a.make_btu(config))
    } else {
        None
    };
    simulate(program, *config, btu)
}

/// The single-threaded job loop: cancellation checked between cells.
fn stream_serial<J, R, F>(
    jobs: &[J],
    run_one: R,
    cancel: &CancelToken,
    mut emit: F,
) -> Result<SweepOutcome, IsaError>
where
    R: Fn(&J) -> Result<EvalRecord, IsaError>,
    F: FnMut(EvalRecord) -> bool,
{
    for job in jobs {
        if cancel.is_cancelled() {
            return Ok(SweepOutcome::Cancelled);
        }
        let record = run_one(job)?;
        if !emit(record) {
            return Ok(SweepOutcome::Cancelled);
        }
    }
    Ok(SweepOutcome::Complete)
}

/// Runs `run_one` over `jobs` on all available cores (or the explicit
/// `threads` override), emitting results in job order as the completed
/// prefix grows. Workers check `cancel` before every cell.
fn stream_jobs<J, R, F>(
    jobs: &[J],
    run_one: R,
    cancel: &CancelToken,
    emit: F,
    threads: Option<usize>,
) -> Result<SweepOutcome, IsaError>
where
    J: Sync,
    R: Fn(&J) -> Result<EvalRecord, IsaError> + Sync,
    F: FnMut(EvalRecord) -> bool + Send,
{
    let threads = threads
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .min(jobs.len().max(1))
        .max(1);
    if threads <= 1 {
        return stream_serial(jobs, run_one, cancel, emit);
    }
    stream_parallel(jobs, run_one, cancel, emit, threads)
}

/// The multi-worker body of [`stream_jobs`], with an explicit thread count
/// (separate so tests exercise it on any host).
fn stream_parallel<J, R, F>(
    jobs: &[J],
    run_one: R,
    cancel: &CancelToken,
    emit: F,
    threads: usize,
) -> Result<SweepOutcome, IsaError>
where
    J: Sync,
    R: Fn(&J) -> Result<EvalRecord, IsaError> + Sync,
    F: FnMut(EvalRecord) -> bool + Send,
{
    use std::sync::atomic::AtomicUsize;

    /// In-order emission state: completed cells park in `slots` until the
    /// contiguous prefix reaches them. `emitting` designates the one
    /// worker currently delivering records, so the (possibly slow — on the
    /// server it is a TCP write) emit call runs with **no** lock on this
    /// state: other workers keep depositing results and picking up cells.
    struct EmitState {
        next: usize,
        slots: Vec<Option<EvalRecord>>,
        emitting: bool,
    }

    let state = Mutex::new(EmitState {
        next: 0,
        slots: (0..jobs.len()).map(|_| None).collect(),
        emitting: false,
    });
    // Only the designated emitter touches `emit`, so this lock is never
    // contended; it exists to make the callback shareable across workers.
    let emitter = Mutex::new(emit);
    let next_job = AtomicUsize::new(0);
    let error: Mutex<Option<IsaError>> = Mutex::new(None);

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if cancel.is_cancelled() {
                    return;
                }
                let i = next_job.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    return;
                }
                match run_one(&jobs[i]) {
                    Ok(record) => {
                        lock(&state).slots[i] = Some(record);
                        // Emit the contiguous completed prefix, in order,
                        // unless another worker is already on it (it will
                        // re-check for our deposit after each emit).
                        loop {
                            let record = {
                                let mut st = lock(&state);
                                if st.emitting || cancel.is_cancelled() || st.next >= st.slots.len()
                                {
                                    break;
                                }
                                let slot = st.next;
                                let Some(record) = st.slots[slot].take() else {
                                    break;
                                };
                                st.next += 1;
                                st.emitting = true;
                                record
                            };
                            let keep = {
                                let mut emit = lock(&emitter);
                                (*emit)(record)
                            };
                            lock(&state).emitting = false;
                            if !keep {
                                cancel.cancel();
                                break;
                            }
                        }
                    }
                    Err(e) => {
                        lock(&error).get_or_insert(e);
                        cancel.cancel();
                    }
                }
            });
        }
    });

    if let Some(e) = error.into_inner().unwrap_or_else(PoisonError::into_inner) {
        return Err(e);
    }
    if cancel.is_cancelled() {
        return Ok(SweepOutcome::Cancelled);
    }
    Ok(SweepOutcome::Complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_kernels::suite;
    use cassandra_trace::genproc::generate_traces;

    fn designs(defenses: &[DefenseMode]) -> Vec<DesignPoint> {
        defenses
            .iter()
            .copied()
            .map(DesignPoint::from_defense)
            .collect()
    }

    #[test]
    fn analysis_is_memoized_per_program() {
        let store = AnalysisStore::new();
        let w = suite::chacha20_workload(64);
        let (a1, _) = store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
        let (a2, _) = store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
        assert!(Arc::ptr_eq(&a1, &a2));
        assert_eq!(
            store.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                evictions: 0
            }
        );
        // A different program misses.
        let other = suite::des_workload(4);
        store
            .entry(&other.kernel.program, other.kernel.step_limit)
            .unwrap();
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn sweep_covers_the_design_matrix_in_order() {
        let store = AnalysisStore::new();
        let records = SweepExecutor::new(&store)
            .sweep_matrix(
                &[suite::chacha20_workload(64), suite::des_workload(4)],
                &designs(&[DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]),
            )
            .unwrap();
        assert_eq!(records.len(), 4);
        assert_eq!(records[0].workload, "ChaCha20_ct");
        assert_eq!(records[0].design, "UnsafeBaseline");
        assert_eq!(records[1].design, "Cassandra");
        assert_eq!(records[2].workload, "DES_ct");
        assert_eq!(store.stats().misses, 2, "one analysis per workload");
        for r in &records {
            assert!(r.stats.cycles > 0);
            if r.defense == DefenseMode::Cassandra {
                assert_eq!(r.stats.mispredictions, 0);
            }
        }
    }

    #[test]
    fn repeated_sweeps_reuse_the_cache() {
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let workloads = [suite::sha256_workload(96)];
        let designs = designs(&[DefenseMode::UnsafeBaseline]);
        let first = ex.sweep_matrix(&workloads, &designs).unwrap();
        let second = ex.sweep_matrix(&workloads, &designs).unwrap();
        assert_eq!(store.stats().misses, 1);
        assert_eq!(
            first[0].stats, second[0].stats,
            "simulation is deterministic"
        );
        assert!(second[0].timing.analysis_cached);
        assert!(!first[0].timing.analysis_cached);
    }

    #[test]
    fn eval_matches_free_function_pipeline() {
        let w = suite::poly1305_workload(32);
        let design = DesignPoint::from_defense(DefenseMode::Cassandra);
        let store = AnalysisStore::new();
        let ex = SweepExecutor::new(&store);
        let record = ex
            .sweep_matrix(std::slice::from_ref(&w), std::slice::from_ref(&design))
            .unwrap()
            .remove(0);

        let analysis = AnalysisBundle::analyze(&w.kernel.program, w.kernel.step_limit).unwrap();
        let mut cfg = design.config;
        cfg.max_instructions = cfg.max_instructions.max(w.kernel.step_limit);
        let outcome = simulate_program(&w.kernel.program, Some(&analysis), &cfg).unwrap();
        assert_eq!(record.stats, outcome.stats);
        assert_eq!(
            ex.simulate(&w, &design.config).unwrap().stats,
            outcome.stats
        );
    }

    #[test]
    fn design_point_labels() {
        let p = DesignPoint::from_defense(DefenseMode::CassandraStl);
        assert_eq!(p.label, "Cassandra+STL");
        let cfg = CpuConfig::golden_cove_like()
            .with_defense(DefenseMode::Cassandra)
            .with_btu_flush_interval(5000);
        let p = DesignPoint::from_config(cfg);
        assert_eq!(p.label, "Cassandra+flush5000");
    }

    #[test]
    fn sessions_share_one_store() {
        let store = AnalysisStore::new();
        let workloads = [suite::des_workload(4)];
        SweepExecutor::new(&store)
            .sweep_matrix(&workloads, &designs(&[DefenseMode::Cassandra]))
            .unwrap();
        assert_eq!(store.stats().misses, 1);

        // A second executor over the same store reuses the analysis.
        let records = SweepExecutor::new(&store)
            .with_threads(Some(1))
            .sweep_matrix(&workloads, &designs(&[DefenseMode::UnsafeBaseline]))
            .unwrap();
        assert_eq!(store.stats().misses, 1, "no re-analysis across executors");
        assert!(records[0].timing.analysis_cached);
    }

    #[test]
    fn concurrent_requests_analyze_exactly_once() {
        let store = AnalysisStore::new();
        let w = suite::chacha20_workload(64);
        let threads = 8;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
                });
            }
        });
        let stats = store.stats();
        assert_eq!(stats.misses, 1, "in-flight guard deduplicates analysis");
        assert_eq!(stats.hits, threads - 1);
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn cancelled_sweep_stops_early_and_keeps_analyses() {
        let store = AnalysisStore::new();
        let executor = SweepExecutor::new(&store);
        let workloads = [suite::chacha20_workload(64)];
        let designs: Vec<DesignPoint> = DefenseMode::ALL
            .into_iter()
            .map(DesignPoint::from_defense)
            .collect();

        // Cancel from inside the emit callback after the first record.
        let cancel = CancelToken::new();
        let mut emitted = 0usize;
        let outcome = executor
            .sweep_stream(&workloads, &designs, &cancel, |_| {
                emitted += 1;
                cancel.cancel();
                true
            })
            .unwrap();
        assert_eq!(outcome, SweepOutcome::Cancelled);
        assert!(
            emitted < designs.len(),
            "cancellation must stop the stream early ({emitted} records)"
        );

        // The workload's analysis survived: a full re-sweep is pure hits.
        let misses = store.stats().misses;
        assert_eq!(misses, 1);
        let records = executor.sweep_matrix(&workloads, &designs).unwrap();
        assert_eq!(records.len(), designs.len());
        assert_eq!(store.stats().misses, misses, "repeat sweep re-analyzed");
        assert!(records.iter().all(|r| r.timing.analysis_cached));
    }

    #[test]
    fn pre_cancelled_sweep_emits_nothing() {
        let store = AnalysisStore::new();
        let executor = SweepExecutor::new(&store);
        let cancel = CancelToken::new();
        cancel.cancel();
        let outcome = executor
            .sweep_stream(
                &[suite::des_workload(4)],
                &[DesignPoint::from_defense(DefenseMode::Cassandra)],
                &cancel,
                |_| panic!("nothing may be emitted after cancellation"),
            )
            .unwrap();
        assert_eq!(outcome, SweepOutcome::Cancelled);
        assert_eq!(store.stats().requests(), 0);
    }

    #[test]
    fn sweep_stream_emits_in_matrix_order() {
        let store = AnalysisStore::new();
        let executor = SweepExecutor::new(&store);
        let workloads = [suite::chacha20_workload(64), suite::des_workload(4)];
        let designs: Vec<DesignPoint> = [
            DefenseMode::UnsafeBaseline,
            DefenseMode::Cassandra,
            DefenseMode::Fence,
        ]
        .into_iter()
        .map(DesignPoint::from_defense)
        .collect();
        let mut streamed = Vec::new();
        let outcome = executor
            .sweep_stream(&workloads, &designs, &CancelToken::new(), |r| {
                streamed.push(r);
                true
            })
            .unwrap();
        assert_eq!(outcome, SweepOutcome::Complete);
        let collected = executor.sweep_matrix(&workloads, &designs).unwrap();
        assert_eq!(streamed.len(), collected.len());
        for (s, c) in streamed.iter().zip(&collected) {
            assert_eq!((&s.workload, &s.design), (&c.workload, &c.design));
            assert_eq!(s.stats, c.stats);
        }
    }

    /// A synthetic record for driving the emitter machinery without real
    /// simulations.
    fn dummy_record(i: usize) -> EvalRecord {
        EvalRecord {
            workload: i.to_string(),
            group: WorkloadGroup::Synthetic,
            design: "dummy".to_string(),
            defense: DefenseMode::UnsafeBaseline,
            stats: SimStats::default(),
            timing: EvalTiming::default(),
            btu_contexts: Vec::new(),
        }
    }

    /// The parallel emitter must deliver records in job order even when
    /// cells complete out of order, on any host (thread count forced).
    #[test]
    fn parallel_emitter_preserves_job_order() {
        let jobs: Vec<usize> = (0..64).collect();
        let run_one = |&i: &usize| {
            // Earlier jobs finish later, forcing out-of-order completion
            // and slot parking.
            std::thread::sleep(Duration::from_micros(((64 - i) % 7) as u64 * 100));
            Ok(dummy_record(i))
        };
        let mut seen = Vec::new();
        let outcome = stream_parallel(
            &jobs,
            run_one,
            &CancelToken::new(),
            |r| {
                seen.push(r.workload.clone());
                true
            },
            4,
        )
        .unwrap();
        assert_eq!(outcome, SweepOutcome::Complete);
        let expected: Vec<String> = (0..64).map(|i| i.to_string()).collect();
        assert_eq!(seen, expected, "records must stream in matrix order");
    }

    /// Declining a record from the emit callback cancels the sweep: nothing
    /// further is emitted and workers stop picking up cells.
    #[test]
    fn parallel_emitter_stops_when_emit_declines() {
        let jobs: Vec<usize> = (0..64).collect();
        let run_one = |&i: &usize| Ok(dummy_record(i));
        let cancel = CancelToken::new();
        let mut emitted = 0usize;
        let outcome = stream_parallel(
            &jobs,
            run_one,
            &cancel,
            |_| {
                emitted += 1;
                emitted < 5
            },
            4,
        )
        .unwrap();
        assert_eq!(outcome, SweepOutcome::Cancelled);
        assert_eq!(emitted, 5, "nothing streams after the declined record");
        assert!(cancel.is_cancelled());
    }

    /// A failing cell aborts the sweep with its error, even with other
    /// cells in flight.
    #[test]
    fn parallel_emitter_propagates_cell_errors() {
        let jobs: Vec<usize> = (0..32).collect();
        let run_one = |&i: &usize| {
            if i == 10 {
                Err(IsaError::StepLimitExceeded { limit: 10 })
            } else {
                Ok(dummy_record(i))
            }
        };
        let err = stream_parallel(&jobs, run_one, &CancelToken::new(), |_| true, 4).unwrap_err();
        assert!(matches!(err, IsaError::StepLimitExceeded { limit: 10 }));
    }

    #[test]
    fn analyses_are_budget_independent() {
        // The property cache hits rely on: Algorithm 2 errors rather than
        // truncating when the budget runs out, so any sufficient budget
        // produces the identical bundle…
        let w = suite::des_workload(4);
        let (program, limit) = (&w.kernel.program, w.kernel.step_limit);
        let mut exact = AnalysisBundle::analyze(program, limit).unwrap();
        let generous = AnalysisBundle::analyze(program, limit * 16).unwrap();
        // Wall-clock timings differ between runs; the replay form must not.
        exact.summary.timing = generous.summary.timing;
        assert_eq!(exact, generous);
        // The same holds for the full Algorithm 2 output behind it.
        assert_eq!(
            generate_traces(program, None, limit).unwrap().branches,
            generate_traces(program, None, limit * 16).unwrap().branches
        );
        // …and an insufficient budget is a hard error, never a bundle.
        let err = AnalysisBundle::analyze(&w.kernel.program, 1_000).unwrap_err();
        assert!(matches!(
            err,
            cassandra_isa::error::IsaError::StepLimitExceeded { .. }
        ));
    }

    #[test]
    fn snapshot_round_trips_and_warm_starts() {
        let store = AnalysisStore::new();
        let w = suite::des_workload(4);
        store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
        let snapshot = store.snapshot();
        assert_eq!(snapshot.entries.len(), 1);

        // The snapshot survives the wire format.
        let json = serde_json::to_string(&snapshot).unwrap();
        let back: AnalysisSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snapshot);

        // A fresh store absorbs it and serves the entry as a hit.
        let warmed = AnalysisStore::new();
        assert_eq!(warmed.absorb(back.clone()), 1);
        assert_eq!(warmed.absorb(back), 0, "duplicate entries are skipped");
        let (_, timing) = warmed
            .entry(&w.kernel.program, w.kernel.step_limit)
            .unwrap();
        assert!(timing.analysis_cached);
        assert_eq!(
            warmed.stats(),
            CacheStats {
                hits: 1,
                misses: 0,
                evictions: 0
            }
        );
    }

    #[test]
    fn shard_snapshots_union_to_the_full_snapshot() {
        // One store analyzes every program; each of three partial stores
        // analyzes one. The partial snapshots, absorbed into a fresh store,
        // rebuild exactly the full snapshot.
        let workloads = [
            suite::chacha20_workload(64),
            suite::sha256_workload(96),
            suite::des_workload(4),
        ];
        let many = AnalysisStore::new();
        for w in &workloads {
            many.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
        }
        let full = many.snapshot();
        assert_eq!(full.entries.len(), 3);
        assert!(full
            .entries
            .windows(2)
            .all(|pair| pair[0].fingerprint < pair[1].fingerprint));

        let union = AnalysisStore::new();
        let absorbed: usize = workloads
            .iter()
            .map(|w| {
                let part = AnalysisStore::new();
                part.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
                union.absorb(part.snapshot())
            })
            .sum();
        assert_eq!(absorbed, 3);
        let mut rebuilt = union.snapshot();
        // Wall-clock timings differ between runs; the analyses must not.
        for (r, f) in rebuilt.entries.iter_mut().zip(&full.entries) {
            r.elapsed = f.elapsed;
            r.analysis.summary.timing = f.analysis.summary.timing;
        }
        assert_eq!(rebuilt, full);

        // The full snapshot also absorbs whole into a fresh store.
        let fresh = AnalysisStore::new();
        assert_eq!(fresh.absorb(full.clone()), 3);
        assert_eq!(fresh.snapshot(), full);
    }

    #[test]
    fn insert_observer_fires_once_per_fresh_analysis() {
        let store = AnalysisStore::new();
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        store.set_insert_observer(Some(Arc::new(move |e: &SnapshotEntry| {
            lock(&sink).push(e.fingerprint);
        })));

        // Eight concurrent requests, one fresh analysis, one event.
        let w = suite::des_workload(4);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
                });
            }
        });
        assert_eq!(lock(&seen).len(), 1);
        assert_eq!(lock(&seen)[0], program_fingerprint(&w.kernel.program));

        // Cache hits and absorbed snapshots stay silent.
        store.entry(&w.kernel.program, w.kernel.step_limit).unwrap();
        let other = suite::chacha20_workload(64);
        let mut donor_snapshot = {
            let donor = AnalysisStore::new();
            donor
                .entry(&other.kernel.program, other.kernel.step_limit)
                .unwrap();
            donor.snapshot()
        };
        assert_eq!(store.absorb(donor_snapshot.clone()), 1);
        assert_eq!(lock(&seen).len(), 1, "hits/absorbs must not fire");

        // Clearing the observer silences fresh analyses too.
        store.set_insert_observer(None);
        donor_snapshot.entries.clear();
        let third = suite::sha256_workload(96);
        store
            .entry(&third.kernel.program, third.kernel.step_limit)
            .unwrap();
        assert_eq!(lock(&seen).len(), 1);
    }

    /// Step budget of [`tiny_program`]'s analyses.
    const TINY_STEPS: u64 = 1_000;

    /// A distinct small crypto program per `seed`: a two-trip loop behind
    /// a seed-dependent constant. Cheap to analyze, so tests can fill the
    /// store several times over.
    fn tiny_program(seed: u64) -> Program {
        use cassandra_isa::builder::ProgramBuilder;
        use cassandra_isa::reg::{A0, A1, ZERO};
        let mut b = ProgramBuilder::new("tiny");
        b.begin_crypto();
        b.li(A1, seed);
        b.li(A0, 2);
        b.label("loop");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "loop");
        b.end_crypto();
        b.halt();
        b.build().expect("valid program")
    }

    fn holds(store: &AnalysisStore, program: &Program) -> bool {
        read(&store.entries).contains_key(program_fingerprint(program))
    }

    #[test]
    fn store_at_capacity_stays_at_capacity() {
        let store = AnalysisStore::new();
        let programs: Vec<Program> = (0..3 * STORE_CAPACITY as u64).map(tiny_program).collect();
        for (i, program) in programs.iter().enumerate() {
            store.entry(program, TINY_STEPS).unwrap();
            assert_eq!(store.len(), (i + 1).min(STORE_CAPACITY));
        }
        let n = programs.len() as u64;
        assert_eq!(
            store.stats(),
            CacheStats {
                hits: 0,
                misses: n,
                evictions: n - STORE_CAPACITY as u64,
            }
        );
        assert_eq!(store.snapshot().entries.len(), STORE_CAPACITY);
        // Without hits the store keeps the most recent programs.
        let (gone, kept) = programs.split_at(programs.len() - STORE_CAPACITY);
        assert!(kept.iter().all(|p| holds(&store, p)));
        assert!(!gone.iter().any(|p| holds(&store, p)));
    }

    #[test]
    fn evicted_program_reanalyses_to_an_equal_bundle() {
        let store = AnalysisStore::new();
        let w = suite::des_workload(4);
        let (program, limit) = (&w.kernel.program, w.kernel.step_limit);
        let (first, _) = store.entry(program, limit).unwrap();
        for seed in 0..STORE_CAPACITY as u64 {
            store.entry(&tiny_program(seed), TINY_STEPS).unwrap();
        }
        assert!(
            !holds(&store, program),
            "the oldest entry, never hit, goes first"
        );
        assert_eq!(store.stats().evictions, 1);

        let misses = store.stats().misses;
        let (again, timing) = store.entry(program, limit).unwrap();
        assert!(!timing.analysis_cached);
        assert_eq!(store.stats().misses, misses + 1, "exactly one more miss");
        assert!(!Arc::ptr_eq(&first, &again));
        // Wall-clock timings differ between runs; the analyses must not.
        let mut again = (*again).clone();
        again.summary.timing = first.summary.timing;
        assert_eq!(again, *first);
    }

    #[test]
    fn a_hit_entry_survives_one_pass_of_cold_inserts() {
        let store = AnalysisStore::new();
        let programs: Vec<Program> = (0..2 * STORE_CAPACITY as u64).map(tiny_program).collect();
        let (full, cold) = programs.split_at(STORE_CAPACITY);
        for program in full {
            store.entry(program, TINY_STEPS).unwrap();
        }
        // The oldest entry, next in line for eviction, is hit once.
        let (_, timing) = store.entry(&full[0], TINY_STEPS).unwrap();
        assert!(timing.analysis_cached);

        for program in &cold[..STORE_CAPACITY - 1] {
            store.entry(program, TINY_STEPS).unwrap();
        }
        assert!(holds(&store, &full[0]), "a hit buys a second chance");
        assert!(
            !full[1..].iter().any(|p| holds(&store, p)),
            "every unhit entry of its age is gone"
        );
        // The second chance is spent: the next cold insert takes it.
        store.entry(&cold[STORE_CAPACITY - 1], TINY_STEPS).unwrap();
        assert!(!holds(&store, &full[0]));
        assert_eq!(store.len(), STORE_CAPACITY);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn waiters_receive_an_analysis_evicted_before_they_wake() {
        let store = AnalysisStore::new();
        let w = suite::des_workload(4);
        let (program, limit) = (&w.kernel.program, w.kernel.step_limit);
        let key = program_fingerprint(program);
        // This thread takes the analyzer role by hand, so the waiters
        // provably queue behind an analysis that a flood of cold programs
        // evicts before it lands for them.
        let flight = Arc::new(InFlight::default());
        lock(&store.in_flight).insert(key, Arc::clone(&flight));
        let mut guard = AnalyzerGuard {
            store: &store,
            key,
            flight: Arc::clone(&flight),
            landed: None,
        };
        const WAITERS: usize = 4;
        std::thread::scope(|scope| {
            let waiters: Vec<_> = (0..WAITERS)
                .map(|_| scope.spawn(|| store.entry(program, limit).unwrap()))
                .collect();
            // Each waiter holds a clone besides the map's, the guard's and
            // this thread's.
            while Arc::strong_count(&flight) < 3 + WAITERS {
                std::thread::yield_now();
            }
            let analysis = Arc::new(AnalysisBundle::analyze(program, limit).unwrap());
            store.publish(
                &mut write(&store.entries),
                key,
                StoreEntry::new(Arc::clone(&analysis), Duration::ZERO),
            );
            for seed in 0..STORE_CAPACITY as u64 {
                store.entry(&tiny_program(seed), TINY_STEPS).unwrap();
            }
            assert!(!holds(&store, program), "evicted before the waiters woke");
            guard.landed = Some((Arc::clone(&analysis), Duration::ZERO));
            drop(guard);
            for waiter in waiters {
                let (bundle, timing) = waiter.join().unwrap();
                assert!(Arc::ptr_eq(&bundle, &analysis));
                assert!(timing.analysis_cached);
            }
        });
        let stats = store.stats();
        assert_eq!(stats.hits, WAITERS as u64);
        assert_eq!(
            stats.misses, STORE_CAPACITY as u64,
            "only the cold programs ran Algorithm 2"
        );
    }

    #[test]
    fn absorb_of_a_larger_snapshot_keeps_the_capacity() {
        let extra = 16;
        let entries: Vec<SnapshotEntry> = (0..(STORE_CAPACITY + extra) as u64)
            .map(|seed| {
                let program = tiny_program(seed);
                SnapshotEntry {
                    fingerprint: program_fingerprint(&program),
                    elapsed: Duration::ZERO,
                    analysis: AnalysisBundle::analyze(&program, TINY_STEPS).unwrap(),
                }
            })
            .collect();
        let mut newest: Vec<u64> = entries[extra..].iter().map(|e| e.fingerprint).collect();
        newest.sort_unstable();

        let store = AnalysisStore::new();
        assert_eq!(store.absorb(AnalysisSnapshot { entries }), STORE_CAPACITY);
        assert_eq!(store.len(), STORE_CAPACITY);
        let held: Vec<u64> = store
            .snapshot()
            .entries
            .iter()
            .map(|e| e.fingerprint)
            .collect();
        assert_eq!(held, newest, "the most recent entries win");
        assert_eq!(store.stats().evictions, extra as u64);
        assert_eq!(store.stats().requests(), 0);
    }

    #[test]
    fn lint_memo_stays_at_capacity() {
        let store = AnalysisStore::new();
        for seed in 0..(STORE_CAPACITY + 8) as u64 {
            store.lint(&tiny_program(seed));
        }
        assert_eq!(store.linted_programs(), STORE_CAPACITY);
        assert_eq!(
            store.stats(),
            CacheStats::default(),
            "lints are not counted"
        );
    }
}

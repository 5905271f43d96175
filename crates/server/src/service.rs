//! The request handler: one long-lived evaluation session behind the wire
//! protocol, safe to drive from any number of threads at once.
//!
//! An [`EvalService`] owns the server's [`AnalysisStore`] — the same
//! thread-safe cache offline [`SweepExecutor`] runs use — so every
//! Algorithm-2 analysis is memoized by program fingerprint and shared
//! across *all* client requests: the second client to sweep a workload pays
//! zero analysis time, observable through the [`SweepSummary::cache`]
//! counters. It also holds the session's policy set — the fixed standard
//! [`PolicyRegistry`], which every `Sweep` label resolves against (a
//! `GridSweep`'s expansion lives only for that request) — and the set of
//! submitted workloads behind a lock. [`EvalService::handle`] therefore
//! takes `&self`: requests from different connections run
//! **concurrently**, a sweep simulating its matrix while other requests are
//! answered. Sweeps stream their records as cells complete and honor
//! per-request cancellation ([`Request::Cancel`] against the id of an
//! in-flight request).
//!
//! Lock hierarchy (never hold two at once except as listed): `workloads`
//! is a leaf lock taken briefly to resolve a request's selection; the
//! policy set is immutable and needs none; `cancels` maps in-flight
//! request ids to [`CancelToken`]s; the store's internal locks are below
//! all of them. No lock is held while a sweep simulates or while
//! responses are written.
//!
//! The service is transport-agnostic and has one request entry point:
//! [`EvalService::handle`] maps one [`Request`] to a stream of
//! [`Response`]s through a caller-provided sink. A request that arrived
//! with a client-supplied id is first registered with
//! [`EvalService::reserve`] — the only place ids are checked for
//! duplicates — and served under the returned [`Reservation`], whose
//! cancel token a concurrent [`Request::Cancel`] raises. The loopback
//! tests drive the service both in-process and over TCP. With
//! [`EvalService::with_cache_file`] the analysis store warm-starts from the
//! file (replaying any appended journal entries), **appends** each freshly
//! completed analysis to it as a journal line — so a crashed server keeps
//! everything analyzed before the crash — and compacts the journal back to
//! a single snapshot line periodically and on a clean `Shutdown`. The store
//! holds at most [`STORE_CAPACITY`] analyses, so a compaction writes at
//! most that many entries and the journal never holds more than
//! `STORE_CAPACITY + COMPACT_EVERY`.
//!
//! [`STORE_CAPACITY`]: cassandra_core::eval::STORE_CAPACITY

use crate::protocol::{Request, Response, SweepSummary, WorkloadSpec, PROTOCOL_VERSION};
use cassandra_core::eval::{
    AnalysisSnapshot, AnalysisStore, CancelToken, DesignPoint, EvalRecord, SnapshotEntry,
    SweepExecutor, SweepOutcome,
};
use cassandra_core::frontier::{self, AdaptiveSearch};
use cassandra_core::lint::LintRow;
use cassandra_core::policies::PolicyRegistry;
use cassandra_core::registry::{Experiment, ExperimentOutput};
use cassandra_core::report;
use cassandra_kernels::suite;
use cassandra_kernels::workload::Workload;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// A sink receiving the response stream of one request. `Send` because a
/// streaming sweep emits records from its worker threads.
pub type ResponseSink<'a> = dyn FnMut(Response) -> io::Result<()> + Send + 'a;

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The server-side evaluation session: a shared [`AnalysisStore`], the
/// standard policy registry and the submitted workload set, so requests
/// proceed concurrently. See the [module documentation](self).
pub struct EvalService {
    store: Arc<AnalysisStore>,
    policies: PolicyRegistry,
    workloads: Mutex<Vec<Workload>>,
    /// In-flight request ids → their cancellation tokens.
    cancels: Mutex<HashMap<String, CancelToken>>,
    journal: Option<Arc<CacheJournal>>,
}

/// Appended journal entries tolerated before the file is compacted back to
/// a single snapshot line (keeps replay and file size bounded).
const COMPACT_EVERY: usize = 32;

/// Most workloads one session holds. A `Submit` of a new name past it is
/// an `Error`; resubmitting a held name still replaces that workload.
const MAX_SUBMITTED_WORKLOADS: usize = 1024;

/// Most program bytes (instructions plus data image) one session's
/// submitted workloads hold together; a `Submit` past it is an `Error`.
/// The suite holds 157 KiB, a 1 MiB `chacha20` 2 MiB, a 131,072-block
/// `des` (its limit) about as much.
const MAX_SUBMITTED_BYTES: usize = 64 << 20;

fn program_bytes(workload: &Workload) -> usize {
    let program = &workload.kernel.program;
    let data: usize = program.data.iter().map(|region| region.bytes.len()).sum();
    std::mem::size_of_val(&program.instrs[..]) + data
}

/// The incremental `--cache-file` persistence: an NDJSON file whose first
/// line is an [`AnalysisSnapshot`] (the compacted form) and whose following
/// lines are individual [`SnapshotEntry`]s appended as analyses complete.
/// See `docs/PROTOCOL.md` § "Cache journal file" for the on-disk format.
struct CacheJournal {
    path: PathBuf,
    state: Mutex<JournalState>,
}

struct JournalState {
    /// Open append handle, kept across appends; `None` until first use or
    /// after an append failure (re-opened lazily).
    file: Option<File>,
    /// Journal lines appended since the last compaction.
    appended: usize,
}

impl CacheJournal {
    fn new(path: PathBuf) -> Self {
        CacheJournal {
            path,
            state: Mutex::new(JournalState {
                file: None,
                appended: 0,
            }),
        }
    }

    /// Replays the journal into `store`: the leading snapshot line (if
    /// any) and every appended entry, stopping with a warning at the first
    /// malformed line — a crash can truncate the final append mid-line,
    /// and everything before it is still good. The lines are absorbed as
    /// one snapshot in file order, so past the store's capacity the most
    /// recent ones win. A corrupt journal is **repaired** on the spot by
    /// compacting the replayed prefix back to the file: the corrupt line is
    /// usually newline-less, so appending to it would concatenate the next
    /// entry onto the partial line (destroying both) and strand anything
    /// after it. Returns how many analyses the store holds from the file.
    fn replay(&self, store: &AnalysisStore) -> usize {
        let Ok(text) = std::fs::read_to_string(&self.path) else {
            return 0; // No file yet: cold start.
        };
        let mut entries = Vec::new();
        let mut corrupt_line = None;
        for (index, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            // A compacted snapshot line and a journal entry line are both
            // accepted at any position; the writer only ever emits a
            // snapshot first, but self-describing lines make replay
            // order-independent.
            if let Ok(snapshot) = serde_json::from_str::<AnalysisSnapshot>(line) {
                entries.extend(snapshot.entries);
            } else if let Ok(entry) = serde_json::from_str::<SnapshotEntry>(line) {
                entries.push(entry);
            } else {
                corrupt_line = Some(index + 1);
                break;
            }
        }
        let loaded = store.absorb(AnalysisSnapshot { entries });
        if let Some(line) = corrupt_line {
            eprintln!(
                "cassandra-server: cache journal {} corrupt at line {line} — \
                 keeping the {loaded} analyses replayed before it",
                self.path.display(),
            );
            match self.compact(store) {
                Ok(kept) => eprintln!(
                    "cassandra-server: cache journal {} compacted to its valid \
                     prefix ({kept} analyses)",
                    self.path.display()
                ),
                Err(e) => eprintln!(
                    "cassandra-server: corrupt cache journal {} not repaired: {e} \
                     (appends may be lost after another crash)",
                    self.path.display()
                ),
            }
        }
        loaded
    }

    /// Appends one freshly completed analysis as a journal line, compacting
    /// the file once [`COMPACT_EVERY`] lines have accumulated. Best-effort:
    /// persistence failures are logged, never propagated into the request
    /// that completed the analysis.
    fn append(&self, entry: &SnapshotEntry, store: &AnalysisStore) {
        let mut state = lock(&self.state);
        if state.appended + 1 >= COMPACT_EVERY {
            // The entry is already published in the store, so compacting
            // instead of appending persists it too.
            if let Err(e) = self.compact_locked(&mut state, store) {
                eprintln!(
                    "cassandra-server: cache journal compaction failed: {e} \
                     (journal left as-is)"
                );
            }
            return;
        }
        if state.file.is_none() {
            state.file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&self.path)
                .map_err(|e| {
                    eprintln!(
                        "cassandra-server: cache journal {} not appendable: {e}",
                        self.path.display()
                    );
                })
                .ok();
        }
        let Some(file) = state.file.as_mut() else {
            return;
        };
        let mut line = serde_json::to_string(entry).expect("vendored serde_json is infallible");
        line.push('\n');
        match file.write_all(line.as_bytes()).and_then(|()| file.flush()) {
            Ok(()) => state.appended += 1,
            Err(e) => {
                eprintln!(
                    "cassandra-server: cache journal append failed: {e} \
                     (analysis kept in memory only)"
                );
                state.file = None;
            }
        }
    }

    /// Replaces the file with a single compacted snapshot line of the whole
    /// store (at most `STORE_CAPACITY` entries). Returns how many analyses
    /// were written.
    fn compact(&self, store: &AnalysisStore) -> io::Result<usize> {
        let mut state = lock(&self.state);
        self.compact_locked(&mut state, store)
    }

    /// The snapshot goes to a sibling temporary file, synced, then renamed
    /// over the journal: a kill mid-compaction leaves the old journal whole
    /// instead of a truncated first line that replay would reject.
    fn compact_locked(&self, state: &mut JournalState, store: &AnalysisStore) -> io::Result<usize> {
        let snapshot = store.snapshot();
        let entries = snapshot.entries.len();
        let mut text = serde_json::to_string(&snapshot).expect("vendored serde_json is infallible");
        text.push('\n');
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        let replaced = File::create(&tmp)
            .and_then(|mut file| {
                file.write_all(text.as_bytes())?;
                file.sync_all()
            })
            .and_then(|()| std::fs::rename(&tmp, &self.path));
        if let Err(e) = replaced {
            let _ = std::fs::remove_file(&tmp);
            return Err(e);
        }
        // The append handle still points at the replaced file.
        state.file = None;
        state.appended = 0;
        // Sync the directory too, so the rename itself survives a crash.
        let dir = match self.path.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => dir,
            _ => Path::new("."),
        };
        File::open(dir)?.sync_all()?;
        Ok(entries)
    }
}

impl Default for EvalService {
    fn default() -> Self {
        Self::new()
    }
}

/// A request id reserved on the dispatching thread *before* the request
/// enters the server's worker-pool queue, so a `Cancel` that races the
/// queue already finds a token to raise — the queued request then starts
/// pre-cancelled and terminates with `Cancelled` without simulating
/// anything. Deregisters the id on drop, i.e. after
/// [`EvalService::handle`] has finished serving the request.
pub struct Reservation {
    service: Arc<EvalService>,
    id: String,
    token: CancelToken,
}

impl Reservation {
    /// The reserved request id.
    pub fn id(&self) -> &str {
        &self.id
    }
}

impl Drop for Reservation {
    fn drop(&mut self) {
        lock(&self.service.cancels).remove(&self.id);
    }
}

impl EvalService {
    /// A fresh session: the standard policy registry, no workloads ingested
    /// yet, an empty analysis store.
    pub fn new() -> Self {
        EvalService {
            store: Arc::new(AnalysisStore::new()),
            policies: PolicyRegistry::standard(),
            workloads: Mutex::new(Vec::new()),
            cancels: Mutex::new(HashMap::new()),
            journal: None,
        }
    }

    /// Enables incremental cache persistence on `path`: warm-starts the
    /// analysis store by replaying the file (best-effort: a missing file
    /// starts cold, a corrupt line stops the replay there with a logged
    /// warning — never a panic), then journals every freshly completed
    /// analysis to it as an appended line, so a crashed server keeps
    /// everything analyzed before the crash. The journal is compacted back
    /// to a single snapshot line every `COMPACT_EVERY` (32) appends and on
    /// a clean `Shutdown`. Warmed entries never re-run Algorithm 2, so
    /// `Done.cache` reports them as hits. A journal holding more than
    /// [`STORE_CAPACITY`] analyses warms the store with its most recent
    /// ones.
    ///
    /// [`STORE_CAPACITY`]: cassandra_core::eval::STORE_CAPACITY
    #[must_use]
    pub fn with_cache_file(mut self, path: impl Into<PathBuf>) -> Self {
        let journal = Arc::new(CacheJournal::new(path.into()));
        journal.replay(&self.store);
        // The observer must not keep the store alive (the store owns the
        // observer): go through a weak reference for the compaction path.
        let weak: Weak<AnalysisStore> = Arc::downgrade(&self.store);
        let hook = Arc::clone(&journal);
        self.store
            .set_insert_observer(Some(Arc::new(move |entry: &SnapshotEntry| {
                if let Some(store) = weak.upgrade() {
                    hook.append(entry, &store);
                }
            })));
        self.journal = Some(journal);
        self
    }

    /// Compacts the cache journal to a single snapshot line of the current
    /// store, returning how many analyses were written (0 without a cache
    /// file). Called on a clean `Shutdown`; crash persistence does not
    /// depend on it (completed analyses are already journaled).
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors from writing the snapshot.
    pub fn save_cache(&self) -> io::Result<usize> {
        match &self.journal {
            Some(journal) => journal.compact(&self.store),
            None => Ok(0),
        }
    }

    /// The session's shared analysis store (for cache introspection and
    /// cross-session sharing).
    pub fn store(&self) -> &Arc<AnalysisStore> {
        &self.store
    }

    /// Names of the workloads ingested so far, in submission order.
    pub fn workload_names(&self) -> Vec<String> {
        lock(&self.workloads)
            .iter()
            .map(|w| w.name.clone())
            .collect()
    }

    /// Reserves `id` in the in-flight table ahead of dispatch, so the id
    /// is already cancellable while its request sits in the worker-pool
    /// queue. Serve the request with [`EvalService::handle`] and keep the
    /// reservation alive until it returns.
    ///
    /// # Errors
    ///
    /// The id is already in flight.
    pub fn reserve(self: &Arc<Self>, id: &str) -> Result<Reservation, String> {
        let token = CancelToken::new();
        let mut cancels = lock(&self.cancels);
        if cancels.contains_key(id) {
            return Err(format!("request id `{id}` is already in flight"));
        }
        cancels.insert(id.to_string(), token.clone());
        drop(cancels);
        Ok(Reservation {
            service: Arc::clone(self),
            id: id.to_string(),
            token,
        })
    }

    /// Serves one request, writing the response stream to `sink`. A
    /// request that arrived with a client-supplied id runs under the
    /// [`Reservation`] [`EvalService::reserve`] returned for it: a
    /// `Cancel` naming the id raises the reservation's token, whether it
    /// arrives before the request starts or while it streams. Without a
    /// reservation the request is uncancellable (the v1 framing).
    /// Protocol and evaluation failures become [`Response::Error`]
    /// envelopes; `Err` is reserved for sink (I/O) failures.
    ///
    /// # Errors
    ///
    /// Propagates errors returned by `sink`.
    pub fn handle(
        &self,
        reservation: Option<&Reservation>,
        request: Request,
        sink: &mut ResponseSink<'_>,
    ) -> io::Result<()> {
        match request {
            Request::Ping => sink(Response::Pong {
                protocol: PROTOCOL_VERSION,
            }),
            Request::ListPolicies => sink(Response::Policies {
                labels: self
                    .policies
                    .labels()
                    .into_iter()
                    .map(str::to_string)
                    .collect(),
            }),
            Request::ListWorkloads => sink(Response::Workloads {
                names: self.workload_names(),
            }),
            Request::Submit { spec } => {
                let submitted = resolve_spec(&spec).and_then(|workload| {
                    let response = Response::Submitted {
                        name: workload.name.clone(),
                        group: workload.group.to_string(),
                    };
                    self.ingest(workload).map(|()| response)
                });
                match submitted {
                    Ok(response) => {
                        // Ingestion is a single cell; the 1/1 Progress line
                        // gives Submit the same stream shape as the sweeps.
                        sink(Response::Progress {
                            cells_done: 1,
                            cells_total: 1,
                        })?;
                        sink(response)
                    }
                    Err(message) => sink(Response::Error { message }),
                }
            }
            Request::Sweep {
                workloads,
                policies,
            } => match self.select_designs(&policies) {
                Ok(designs) => self.run_sweep(reservation, &workloads, designs, sink),
                Err(message) => sink(Response::Error { message }),
            },
            Request::GridSweep { workloads, grid } => match grid.to_grid() {
                Ok(grid) => {
                    // Bound the expansion before building it: every cell
                    // is a design point and a simulation per workload.
                    if grid.len().is_none_or(|cells| cells > MAX_GRID_CELLS) {
                        return sink(Response::Error {
                            message: format!("grid expands to more than {MAX_GRID_CELLS} cells"),
                        });
                    }
                    // The cells live only for this request: nothing is
                    // added to the session's policy set.
                    let designs = grid.expand().into_iter().collect();
                    self.run_sweep(reservation, &workloads, designs, sink)
                }
                Err(message) => sink(Response::Error { message }),
            },
            Request::Lint { workloads } => match self.select_workloads(&workloads) {
                Ok(selected) => {
                    // Pure static pass served from the shared store: repeat
                    // lints of a program another request (or session) already
                    // linted are cache lookups, like sweep analyses.
                    let rows: Vec<LintRow> = selected
                        .iter()
                        .map(|w| LintRow::from_report(w, &self.store.lint(&w.kernel.program)))
                        .collect();
                    let report = report::render_text(&ExperimentOutput::Lint(rows.clone()));
                    sink(Response::LintReport { rows, report })
                }
                Err(message) => sink(Response::Error { message }),
            },
            Request::Experiment { name, workloads } => {
                match self.select_workloads(&workloads) {
                    Ok(selected) => {
                        // The frontier experiment is the one streamed
                        // experiment: it honors the reservation's token (so
                        // `Cancel` can prune it mid-rung) and emits
                        // `Progress` lines before its terminal reply.
                        if name == "frontier" {
                            return self.run_frontier(reservation, selected, sink);
                        }
                        let Some(experiment) = Experiment::named(&name) else {
                            let names: Vec<&str> = Experiment::standard()
                                .iter()
                                .map(Experiment::name)
                                .collect();
                            return sink(Response::Error {
                                message: format!(
                                    "unknown experiment `{name}`; registered: {}",
                                    names.join(", ")
                                ),
                            });
                        };
                        // A per-request executor over the shared store: the
                        // experiment reuses every analysis any request has
                        // memoized, and leaves its own behind for the next.
                        let ex = SweepExecutor::new(&self.store);
                        match experiment.run(&ex, &selected) {
                            Ok(run) => {
                                let report = report::render_text(&run.output);
                                sink(Response::Experiment {
                                    name: run.name,
                                    title: run.title,
                                    output: run.output,
                                    report,
                                })
                            }
                            Err(e) => sink(Response::Error {
                                message: format!("experiment failed: {e}"),
                            }),
                        }
                    }
                    Err(message) => sink(Response::Error { message }),
                }
            }
            Request::Cancel { id: target } => {
                let token = lock(&self.cancels).get(&target).cloned();
                match token {
                    Some(token) => {
                        token.cancel();
                        sink(Response::Cancelled { id: target })
                    }
                    None => sink(Response::Error {
                        message: format!("no in-flight request with id `{target}`"),
                    }),
                }
            }
            Request::Shutdown => {
                // Warm-start snapshot on clean shutdown. A failed write must
                // not block the acknowledgement, but it must not be silent
                // either: the operator is about to lose the warmed cache, so
                // the failure goes to stderr and onto the wire as an `Error`
                // line ahead of `ShuttingDown`.
                if let Err(e) = self.save_cache() {
                    let message = format!("analysis cache snapshot not saved: {e}");
                    eprintln!("cassandra-server: {message}");
                    sink(Response::Error { message })?;
                }
                sink(Response::ShuttingDown)
            }
        }
    }

    /// Adds `workload` to the submitted set, last in submission order. A
    /// workload of the same name is replaced. A new name past
    /// [`MAX_SUBMITTED_WORKLOADS`], or a total past [`MAX_SUBMITTED_BYTES`], is refused.
    fn ingest(&self, workload: Workload) -> Result<(), String> {
        let mut workloads = lock(&self.workloads);
        let held = workloads.iter().position(|w| w.name == workload.name);
        let replaced = held.map_or(0, |i| program_bytes(&workloads[i]));
        let bytes = workloads.iter().map(program_bytes).sum::<usize>() - replaced
            + program_bytes(&workload);
        if bytes > MAX_SUBMITTED_BYTES {
            return Err(format!(
                "`{}` would raise the submitted programs to {bytes} bytes, past the \
                 limit of {MAX_SUBMITTED_BYTES}; resubmit a held name to replace it",
                workload.name
            ));
        }
        match held {
            Some(held) => {
                workloads.remove(held);
            }
            None if workloads.len() >= MAX_SUBMITTED_WORKLOADS => {
                return Err(format!(
                    "the session already holds {MAX_SUBMITTED_WORKLOADS} submitted \
                     workloads, the limit; resubmit one of their names to replace it"
                ));
            }
            None => {}
        }
        workloads.push(workload);
        Ok(())
    }

    /// Resolves policy labels against the registry; empty selects all.
    fn select_designs(&self, labels: &[String]) -> Result<Vec<DesignPoint>, String> {
        let policies = &self.policies;
        if labels.is_empty() {
            return Ok(policies.designs().to_vec());
        }
        labels
            .iter()
            .map(|label| {
                policies.get(label).cloned().ok_or_else(|| {
                    format!(
                        "unknown policy `{label}`; registered: {}",
                        policies.labels().join(", ")
                    )
                })
            })
            .collect()
    }

    /// Resolves workload names against the submitted set; empty selects
    /// all.
    fn select_workloads(&self, names: &[String]) -> Result<Vec<Workload>, String> {
        let workloads = lock(&self.workloads);
        if workloads.is_empty() {
            return Err(
                "no workloads submitted; send a Submit request before sweeping".to_string(),
            );
        }
        if names.is_empty() {
            return Ok(workloads.clone());
        }
        names
            .iter()
            .map(|name| {
                workloads
                    .iter()
                    .find(|w| &w.name == name)
                    .cloned()
                    .ok_or_else(|| {
                        format!(
                            "unknown workload `{name}`; submitted: {}",
                            workloads
                                .iter()
                                .map(|w| w.name.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        )
                    })
            })
            .collect()
    }

    /// Runs workloads × designs against the shared store, streaming each
    /// record as its cell (and every earlier cell) completes, then the
    /// closing summary — or `Cancelled`, with nothing further, when the
    /// request's token is raised mid-sweep. No service lock is held while
    /// the sweep simulates.
    fn run_sweep(
        &self,
        reservation: Option<&Reservation>,
        workload_names: &[String],
        designs: Vec<DesignPoint>,
        sink: &mut ResponseSink<'_>,
    ) -> io::Result<()> {
        let workloads = match self.select_workloads(workload_names) {
            Ok(workloads) => workloads,
            Err(message) => return sink(Response::Error { message }),
        };
        if designs.is_empty() {
            return sink(Response::Error {
                message: "the sweep selects no design points".to_string(),
            });
        }

        let mut streamed: Vec<EvalRecord> = Vec::new();
        let mut sink_error: Option<io::Error> = None;
        let token = cancel_token(reservation);
        let executor = SweepExecutor::new(&self.store);
        // One matrix cell per record: each record is chased by a Progress
        // line (monotone cells_done, constant cells_total) so pipelined
        // clients can make backpressure and cancel decisions mid-sweep.
        let cells_total = workloads.len() * designs.len();
        let mut cells_done = 0usize;
        let outcome = executor.sweep_stream(&workloads, &designs, &token, |record| {
            let emitted = sink(Response::Record(record.clone())).and_then(|()| {
                cells_done += 1;
                sink(Response::Progress {
                    cells_done,
                    cells_total,
                })
            });
            match emitted {
                Ok(()) => {
                    streamed.push(record);
                    true
                }
                Err(e) => {
                    sink_error = Some(e);
                    false
                }
            }
        });
        if let Some(e) = sink_error {
            return Err(e);
        }
        match outcome {
            Ok(SweepOutcome::Complete) => {
                let summary = SweepSummary {
                    records: streamed.len(),
                    designs: designs.iter().map(|d| d.label.clone()).collect(),
                    cache: self.store.stats(),
                    analyzed_programs: self.store.len(),
                    // The exact formatter offline Experiment runs use.
                    report: report::render_text(&ExperimentOutput::Records(streamed)),
                };
                sink(Response::Done(summary))
            }
            Ok(SweepOutcome::Cancelled) => sink(cancelled(reservation)),
            Err(e) => sink(Response::Error {
                message: format!("evaluation failed: {e}"),
            }),
        }
    }

    /// Serves a wire `frontier` Experiment: the successive-halving search
    /// over the standard grid, streaming one [`Response::Progress`] line per
    /// completed simulation cell before the terminal reply. The grid is
    /// consumed as plain design points, like a `GridSweep`'s.
    fn run_frontier(
        &self,
        reservation: Option<&Reservation>,
        workloads: Vec<Workload>,
        sink: &mut ResponseSink<'_>,
    ) -> io::Result<()> {
        let token = cancel_token(reservation);
        let mut sink_error: Option<io::Error> = None;
        let outcome = {
            let sink = &mut *sink;
            let sink_error = &mut sink_error;
            frontier::frontier_with(
                &SweepExecutor::new(&self.store),
                &workloads,
                &frontier::standard_grid(),
                Some(AdaptiveSearch::default()),
                &token,
                move |p| {
                    if sink_error.is_none() {
                        if let Err(e) = sink(Response::Progress {
                            cells_done: p.cells_done,
                            cells_total: p.cells_total,
                        }) {
                            *sink_error = Some(e);
                        }
                    }
                },
            )
        };
        if let Some(e) = sink_error {
            return Err(e);
        }
        match outcome {
            Ok(Some(result)) => {
                let experiment = Experiment::Frontier { adaptive: true };
                let output = ExperimentOutput::Frontier(result);
                let report = report::render_text(&output);
                sink(Response::Experiment {
                    name: experiment.name().to_string(),
                    title: experiment.title().to_string(),
                    output,
                    report,
                })
            }
            Ok(None) => sink(cancelled(reservation)),
            Err(e) => sink(Response::Error {
                message: format!("experiment failed: {e}"),
            }),
        }
    }
}

/// The token a heavy request runs under: its reservation's, or a fresh
/// one nothing can raise when the request carried no id.
fn cancel_token(reservation: Option<&Reservation>) -> CancelToken {
    reservation.map_or_else(CancelToken::new, |r| r.token.clone())
}

/// The terminal line of a cancelled stream, naming the reserved id.
fn cancelled(reservation: Option<&Reservation>) -> Response {
    Response::Cancelled {
        id: reservation.map_or("", Reservation::id).to_string(),
    }
}

/// Upper bound on `WorkloadSpec::Kernel` sizes. The sized kernels allocate
/// message buffers proportional to `size` and simulation time grows with
/// it; an unchecked size would let one request abort or wedge the
/// long-lived server (and lose its warmed analysis cache).
const MAX_KERNEL_SIZE: u64 = 1 << 20;

/// Upper bound on `des` kernel sizes, in blocks. Its program grows by about
/// 16 bytes a block, so the largest one (about 2.1 MB) matches the largest
/// `chacha20`; refusing a larger size here, before the kernel is built,
/// keeps a refused `Submit` from allocating it first.
const MAX_DES_BLOCKS: u64 = 1 << 17;

/// Upper bound on the cells one `GridSweep` may expand to (the product of
/// its axis lengths, counted before same-label collapsing).
const MAX_GRID_CELLS: usize = 1 << 10;

/// Builds the workload a [`WorkloadSpec`] names.
fn resolve_spec(spec: &WorkloadSpec) -> Result<Workload, String> {
    match spec {
        WorkloadSpec::Suite { name } => {
            let mut workloads = suite::full_suite();
            match workloads.iter().position(|w| &w.name == name) {
                Some(found) => Ok(workloads.swap_remove(found)),
                None => {
                    let names: Vec<&str> = workloads.iter().map(|w| w.name.as_str()).collect();
                    Err(format!(
                        "unknown suite workload `{name}`; available: {}",
                        names.join(", ")
                    ))
                }
            }
        }
        WorkloadSpec::Kernel { family, size, name } => {
            if *size > MAX_KERNEL_SIZE {
                return Err(format!(
                    "kernel size {size} exceeds the limit of {MAX_KERNEL_SIZE}"
                ));
            }
            if matches!(family.as_str(), "des" | "feistel") && *size > MAX_DES_BLOCKS {
                return Err(format!(
                    "`{family}` size {size} exceeds its limit of {MAX_DES_BLOCKS} blocks"
                ));
            }
            // The block-cipher builders assert on partial blocks; reject
            // those sizes here rather than panic the serving thread.
            let block: u64 = match family.as_str() {
                "chacha20" => 64,
                "aes128" | "aes" | "poly1305" => 16,
                _ => 1,
            };
            if block > 1 && (*size == 0 || *size % block != 0) {
                return Err(format!(
                    "kernel family `{family}` needs a size that is a positive \
                     multiple of {block}, got {size}"
                ));
            }
            let size = (*size as usize).max(1);
            let mut workload = match family.as_str() {
                "chacha20" => suite::chacha20_workload(size),
                "sha256" => suite::sha256_workload(size),
                "aes128" | "aes" => suite::aes_ctr_workload(size),
                "des" | "feistel" => suite::des_workload(size),
                "poly1305" => suite::poly1305_workload(size),
                "modexp" => suite::modpow_workload(),
                "x25519" => suite::ec_c25519_workload(),
                "kyber" => suite::kyber512_workload(),
                "sphincs" => suite::sphincs_shake_workload(),
                other => {
                    return Err(format!(
                        "unknown kernel family `{other}`; available: chacha20, sha256, \
                         aes128, des, poly1305, modexp, x25519, kyber, sphincs"
                    ))
                }
            };
            if let Some(name) = name {
                workload.name = name.clone();
            }
            Ok(workload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::GridSpec;
    use cassandra_cpu::config::DefenseMode;

    fn collect(service: &EvalService, request: Request) -> Vec<Response> {
        let mut out = Vec::new();
        service
            .handle(None, request, &mut |r| {
                out.push(r);
                Ok(())
            })
            .unwrap();
        out
    }

    fn policy_labels(service: &EvalService) -> Vec<String> {
        let responses = collect(service, Request::ListPolicies);
        let [Response::Policies { labels }] = &responses[..] else {
            panic!("expected Policies, got {responses:?}");
        };
        labels.clone()
    }

    #[test]
    fn ping_reports_the_protocol_version() {
        let service = EvalService::new();
        assert_eq!(
            collect(&service, Request::Ping),
            [Response::Pong {
                protocol: PROTOCOL_VERSION
            }]
        );
    }

    #[test]
    fn list_policies_matches_the_standard_registry() {
        let service = EvalService::new();
        let responses = collect(&service, Request::ListPolicies);
        let Response::Policies { labels } = &responses[0] else {
            panic!("expected Policies, got {responses:?}");
        };
        assert_eq!(labels.len(), DefenseMode::ALL.len());
        assert!(labels.iter().any(|l| l == "Cassandra-part"));
    }

    #[test]
    fn submit_by_kernel_family_and_rename() {
        let service = EvalService::new();
        let responses = collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "chacha20".to_string(),
                    size: 64,
                    name: Some("my-stream".to_string()),
                },
            },
        );
        assert_eq!(
            responses,
            [
                Response::Progress {
                    cells_done: 1,
                    cells_total: 1
                },
                Response::Submitted {
                    name: "my-stream".to_string(),
                    group: "BearSSL".to_string()
                }
            ]
        );
        assert_eq!(service.workload_names(), ["my-stream"]);
        // Resubmitting the same name replaces, not duplicates.
        collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "chacha20".to_string(),
                    size: 128,
                    name: Some("my-stream".to_string()),
                },
            },
        );
        assert_eq!(service.workload_names(), ["my-stream"]);
    }

    #[test]
    fn lint_reports_static_verdicts_from_the_shared_store() {
        use cassandra_analysis::StaticVerdict;
        let service = EvalService::new();
        collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "chacha20".to_string(),
                    size: 64,
                    name: None,
                },
            },
        );
        collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Suite {
                    name: "AES_CTR".to_string(),
                },
            },
        );
        let responses = collect(
            &service,
            Request::Lint {
                workloads: Vec::new(),
            },
        );
        let [Response::LintReport { rows, report }] = responses.as_slice() else {
            panic!("expected one LintReport, got {responses:?}");
        };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, StaticVerdict::CtClean);
        assert_eq!(rows[1].verdict, StaticVerdict::ArchLeak, "table AES");
        assert!(report.contains("ct-clean") && report.contains("arch-leak"));
        // Served from the store: no Algorithm-2 runs, reports memoized.
        assert_eq!(service.store.stats().misses, 0);
        assert_eq!(service.store.linted_programs(), 2);
        collect(
            &service,
            Request::Lint {
                workloads: vec!["AES_CTR".to_string()],
            },
        );
        assert_eq!(service.store.linted_programs(), 2, "repeat lints are hits");
    }

    #[test]
    fn lint_without_workloads_is_an_error_envelope() {
        let service = EvalService::new();
        let responses = collect(
            &service,
            Request::Lint {
                workloads: Vec::new(),
            },
        );
        assert!(
            matches!(&responses[0], Response::Error { message } if message.contains("Submit")),
            "{responses:?}"
        );
    }

    #[test]
    fn sweep_without_workloads_is_an_error_envelope() {
        let service = EvalService::new();
        let responses = collect(
            &service,
            Request::Sweep {
                workloads: Vec::new(),
                policies: Vec::new(),
            },
        );
        assert!(
            matches!(&responses[0], Response::Error { message } if message.contains("Submit")),
            "{responses:?}"
        );
    }

    #[test]
    fn unknown_policy_label_is_an_error_envelope() {
        let service = EvalService::new();
        collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Suite {
                    name: "DES_ct".to_string(),
                },
            },
        );
        let responses = collect(
            &service,
            Request::Sweep {
                workloads: Vec::new(),
                policies: vec!["NotAPolicy".to_string()],
            },
        );
        assert!(
            matches!(&responses[0], Response::Error { message } if message.contains("NotAPolicy")),
            "{responses:?}"
        );
    }

    #[test]
    fn oversized_kernel_submit_is_rejected() {
        let service = EvalService::new();
        let submit = |family: &str, size: u64| {
            collect(
                &service,
                Request::Submit {
                    spec: WorkloadSpec::Kernel {
                        family: family.to_string(),
                        size,
                        name: None,
                    },
                },
            )
        };
        let responses = submit("chacha20", u64::MAX);
        assert!(
            matches!(&responses[0], Response::Error { message } if message.contains("limit")),
            "{responses:?}"
        );
        // Sizes the block-cipher builders would assert on are errors too.
        for (family, size) in [
            ("chacha20", 200),
            ("chacha20", 0),
            ("aes128", 24),
            ("aes128", 0),
            ("poly1305", 8),
            ("poly1305", 0),
        ] {
            let responses = submit(family, size);
            assert!(
                matches!(&responses[..], [Response::Error { message }]
                    if message.contains("positive multiple")),
                "{family} {size}: {responses:?}"
            );
        }
        // `des` is capped in blocks, before its kernel is built.
        let responses = submit("des", 131_073);
        assert!(
            matches!(&responses[..], [Response::Error { message }]
                if message.contains("limit of 131072 blocks")),
            "{responses:?}"
        );
        assert!(service.workload_names().is_empty());
    }

    #[test]
    fn oversized_grid_sweep_is_rejected_before_expansion() {
        let service = EvalService::new();
        collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "des".to_string(),
                    size: 4,
                    name: None,
                },
            },
        );
        let before = policy_labels(&service);
        let axis: Vec<u64> = (0..1 << 13).collect();
        let overflowing = GridSpec {
            defenses: vec!["Cassandra".to_string()],
            tournament_thresholds: (0..1 << 13).collect(),
            btu_partitions: (0..1 << 13).collect(),
            btu_entries: (0..1 << 13).collect(),
            miss_penalties: axis.clone(),
            redirect_penalties: axis,
        };
        let just_over = GridSpec {
            defenses: vec!["Cassandra".to_string()],
            tournament_thresholds: Vec::new(),
            btu_partitions: Vec::new(),
            btu_entries: Vec::new(),
            miss_penalties: (0..=MAX_GRID_CELLS as u64).collect(),
            redirect_penalties: Vec::new(),
        };
        assert_eq!(overflowing.to_grid().unwrap().len(), None);
        assert_eq!(just_over.to_grid().unwrap().len(), Some(MAX_GRID_CELLS + 1));
        for grid in [overflowing, just_over] {
            let responses = collect(
                &service,
                Request::GridSweep {
                    workloads: Vec::new(),
                    grid,
                },
            );
            assert!(
                matches!(&responses[..], [Response::Error { message }]
                    if message.contains("cells")),
                "{responses:?}"
            );
            assert_eq!(policy_labels(&service), before);
        }
    }

    #[test]
    fn frontier_experiment_streams_progress_then_a_terminal_reply() {
        let service = EvalService::new();
        for (family, size) in [("chacha20", 64), ("des", 4)] {
            collect(
                &service,
                Request::Submit {
                    spec: WorkloadSpec::Kernel {
                        family: family.to_string(),
                        size,
                        name: None,
                    },
                },
            );
        }
        let before = policy_labels(&service).len();
        let responses = collect(
            &service,
            Request::Experiment {
                name: "frontier".to_string(),
                workloads: Vec::new(),
            },
        );
        // Every line but the last is a Progress line with a fixed total.
        let (terminal, progress) = responses.split_last().unwrap();
        assert!(!progress.is_empty(), "{responses:?}");
        let mut last_done = 0;
        for line in progress {
            let Response::Progress {
                cells_done,
                cells_total,
            } = line
            else {
                panic!("expected Progress, got {line:?}");
            };
            assert!(!line.is_terminal());
            assert!(*cells_done > last_done && cells_done <= cells_total);
            last_done = *cells_done;
        }
        let Response::Experiment { name, output, .. } = terminal else {
            panic!("expected Experiment, got {terminal:?}");
        };
        assert_eq!(name, "frontier");
        let ExperimentOutput::Frontier(result) = output else {
            panic!("expected Frontier output");
        };
        assert!(result.adaptive, "the wire path runs successive halving");
        assert!(!result.frontier.is_empty());
        // The grid expansion is consumed as plain design points: no
        // registry residue.
        assert_eq!(policy_labels(&service).len(), before);
    }

    #[test]
    fn cancel_of_unknown_id_is_an_error_envelope() {
        let service = EvalService::new();
        let responses = collect(
            &service,
            Request::Cancel {
                id: "nope".to_string(),
            },
        );
        assert!(
            matches!(&responses[0], Response::Error { message } if message.contains("nope")),
            "{responses:?}"
        );
    }

    #[test]
    fn pre_cancelled_sweep_terminates_with_cancelled_and_no_records() {
        let service = Arc::new(EvalService::new());
        collect(
            &service,
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "des".to_string(),
                    size: 4,
                    name: None,
                },
            },
        );
        // Cancel the id from inside the sink on the first response the
        // sweep emits — deterministic without a second thread: the id is
        // reserved before the sweep evaluates anything, so cancelling on
        // the first record stops the stream immediately after it.
        let service_ref = &service;
        let reservation = service.reserve("s1").unwrap();
        let mut responses = Vec::new();
        service_ref
            .handle(
                Some(&reservation),
                Request::Sweep {
                    workloads: Vec::new(),
                    policies: Vec::new(),
                },
                &mut |r| {
                    if matches!(r, Response::Record(_)) {
                        let cancels = collect(
                            service_ref,
                            Request::Cancel {
                                id: "s1".to_string(),
                            },
                        );
                        assert_eq!(
                            cancels,
                            [Response::Cancelled {
                                id: "s1".to_string()
                            }]
                        );
                    }
                    responses.push(r);
                    Ok(())
                },
            )
            .unwrap();
        let records = responses
            .iter()
            .filter(|r| matches!(r, Response::Record(_)))
            .count();
        assert!(
            records < DefenseMode::ALL.len(),
            "cancellation must stop the stream early ({records} records)"
        );
        assert_eq!(
            responses.last(),
            Some(&Response::Cancelled {
                id: "s1".to_string()
            }),
            "cancelled sweeps terminate with Cancelled, not Done"
        );
        // The id is free again once the reservation drops.
        drop(reservation);
        let responses = collect(
            &service,
            Request::Cancel {
                id: "s1".to_string(),
            },
        );
        assert!(matches!(&responses[0], Response::Error { .. }));
    }

    fn submit_kernel(service: &EvalService, family: &str, size: u64, name: &str) -> Vec<Response> {
        collect(
            service,
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: family.to_string(),
                    size,
                    name: Some(name.to_string()),
                },
            },
        )
    }

    #[test]
    fn submitted_workloads_are_capped_but_held_names_still_replace() {
        let service = EvalService::new();
        for i in 0..MAX_SUBMITTED_WORKLOADS {
            let responses = submit_kernel(&service, "des", 1, &format!("w{i}"));
            assert!(matches!(responses.last(), Some(Response::Submitted { .. })));
        }
        let refused = submit_kernel(&service, "des", 1, "one-too-many");
        assert!(
            matches!(&refused[..], [Response::Error { message }] if message.contains("1024")),
            "{refused:?}"
        );
        assert_eq!(service.workload_names().len(), MAX_SUBMITTED_WORKLOADS);

        // A held name is replaced and moves to the end of the list.
        let replaced = submit_kernel(&service, "des", 2, "w0");
        assert!(matches!(replaced.last(), Some(Response::Submitted { .. })));
        let names = service.workload_names();
        assert_eq!(names.len(), MAX_SUBMITTED_WORKLOADS);
        assert_eq!(names.last().map(String::as_str), Some("w0"));
        assert!(!names.iter().any(|n| n == "one-too-many"));
    }

    #[test]
    fn submitted_program_bytes_are_capped_but_held_names_still_replace() {
        let service = EvalService::new();
        let big = |name: &str| submit_kernel(&service, "chacha20", MAX_KERNEL_SIZE, name);
        let ok = |reply: Vec<Response>| matches!(reply.last(), Some(Response::Submitted { .. }));
        let fit = MAX_SUBMITTED_BYTES / program_bytes(&suite::chacha20_workload(1 << 20));
        assert!((0..fit).all(|i| ok(big(&format!("big{i}")))));
        let refused = big("one-too-many");
        let refused_for_bytes =
            matches!(&refused[..], [Response::Error { message }] if message.contains("bytes"));
        assert!(refused_for_bytes, "{refused:?}");
        // A held name's old bytes come off the sum before its new ones count.
        assert!(ok(big("big0")));
        let names = service.workload_names();
        assert_eq!((names.len(), &names[fit - 1]), (fit, &"big0".to_string()));
    }

    /// Fresh programs past the store's capacity, served with a cache
    /// journal: the store, the journal and a warm boot from it all stay
    /// within their bounds, and every replayed analysis is a hit.
    #[test]
    fn fresh_program_soak_keeps_store_and_journal_bounded() {
        use cassandra_core::eval::{CacheStats, STORE_CAPACITY};
        use cassandra_trace::fingerprint::program_fingerprint;

        let path =
            std::env::temp_dir().join(format!("cassandra-soak-{}.ndjson", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let operations = STORE_CAPACITY + 64;
        let service = EvalService::new().with_cache_file(&path);
        for (i, size) in (1..=operations as u64).enumerate() {
            // Four names in rotation, as a client sweeping kernel sizes
            // would use them.
            let name = format!("soak-{}", i % 4);
            let submitted = submit_kernel(&service, "sha256", size, &name);
            assert!(matches!(submitted.last(), Some(Response::Submitted { .. })));
            let swept = collect(
                &service,
                Request::Sweep {
                    workloads: vec![name],
                    policies: vec!["UnsafeBaseline".to_string()],
                },
            );
            let Some(Response::Done(summary)) = swept.last() else {
                panic!("expected Done, got {:?}", swept.last());
            };
            assert_eq!(summary.cache.misses, i as u64 + 1, "a fresh program");
            assert!(summary.analyzed_programs <= STORE_CAPACITY);
        }
        let store = service.store();
        assert_eq!(store.len(), STORE_CAPACITY);
        assert_eq!(
            store.stats().evictions,
            (operations - STORE_CAPACITY) as u64
        );
        assert_eq!(service.workload_names().len(), 4);

        // One snapshot line of at most the capacity, then fewer than
        // COMPACT_EVERY appended entries.
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() <= COMPACT_EVERY, "{} lines", lines.len());
        let snapshot: AnalysisSnapshot = serde_json::from_str(lines[0]).unwrap();
        assert!(snapshot.entries.len() <= STORE_CAPACITY);
        for line in &lines[1..] {
            serde_json::from_str::<SnapshotEntry>(line).unwrap();
        }
        let journaled = snapshot.entries.len() + lines.len() - 1;
        assert!(journaled <= STORE_CAPACITY + COMPACT_EVERY, "{journaled}");

        // A warm boot replays at most the capacity, and every replayed
        // analysis is served without re-running Algorithm 2.
        let warm = EvalService::new().with_cache_file(&path);
        let replayed = warm.store().len();
        assert!(replayed > 0 && replayed <= STORE_CAPACITY, "{replayed}");
        let held: Vec<u64> = warm
            .store()
            .snapshot()
            .entries
            .iter()
            .map(|e| e.fingerprint)
            .collect();
        let mut hits = 0;
        for size in 1..=operations {
            let kernel = suite::sha256_workload(size).kernel;
            if held.contains(&program_fingerprint(&kernel.program)) {
                let (_, timing) = warm
                    .store()
                    .entry(&kernel.program, kernel.step_limit)
                    .unwrap();
                assert!(timing.analysis_cached);
                hits += 1;
            }
        }
        assert_eq!(
            hits, replayed,
            "every replayed entry is a submitted program"
        );
        assert_eq!(
            warm.store().stats(),
            CacheStats {
                hits: replayed as u64,
                misses: 0,
                evictions: 0,
            }
        );
        let _ = std::fs::remove_file(&path);
    }
}

//! The runtime Branch Trace Unit: fetch, commit, squash, eviction, flush and
//! per-context partitioning flows (§5.3 of the paper, plus the Q4 discussion
//! of context switches between crypto applications).

use crate::cursor::TraceCursor;
use crate::element::entry_storage_bits;
use crate::encode::EncodedTraces;
use cassandra_trace::hints::BranchHint;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Sentinel in the PC → slot table for PCs that are not multi-target
/// branches.
const NO_SLOT: u32 = u32::MAX;

/// Configuration of the BTU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtuConfig {
    /// Number of entries in the Pattern Table / Trace Cache / Checkpoint
    /// Table (16 in the paper's Table 3).
    pub entries: usize,
    /// Extra frontend latency (cycles) when a multi-target branch misses in
    /// the Trace Cache and its trace must be fetched from the data pages.
    pub miss_penalty: u64,
    /// Number of way-partitions the Trace Cache is split into for
    /// per-context isolation (discussion Q4): `1` is the paper's
    /// unpartitioned unit, `n > 1` divides the `entries` ways across up to
    /// `n` concurrently resident crypto-application contexts, so a context
    /// switch costs a partition reassignment instead of a whole-unit flush.
    pub partitions: usize,
}

impl Default for BtuConfig {
    fn default() -> Self {
        BtuConfig {
            entries: 16,
            miss_penalty: 20,
            partitions: 1,
        }
    }
}

/// Statistics kept by the BTU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtuStats {
    /// Total fetch-time lookups.
    pub lookups: u64,
    /// Lookups that hit a resident Trace Cache entry.
    pub hits: u64,
    /// Lookups that missed and had to stream the trace in.
    pub misses: u64,
    /// Entries evicted to make room (checkpoints written back).
    pub evictions: u64,
    /// Lookups answered from the single-target hint (no BTU entry used).
    pub single_target_lookups: u64,
    /// Lookups for branches without replayable traces (fetch must stall).
    pub stall_lookups: u64,
    /// Whole-unit flushes (context switches between crypto applications, Q4).
    pub flushes: u64,
    /// Committed crypto branches.
    pub commits: u64,
    /// Squash recoveries.
    pub squashes: u64,
    /// Context switches served by activating a (possibly new) partition
    /// instead of flushing the whole unit. A switch to the already-active
    /// context and the first registration of a context are not switches;
    /// this counter agrees with the pipeline's `context_switches`.
    pub partition_switches: u64,
    /// Partition reassignments that had to steal an owned partition from
    /// another context (evicting its residents).
    pub partition_steals: u64,
}

/// Per-context slice of the BTU statistics, tracked once contexts start
/// switching (single-context runs keep this list empty). Rates are derived
/// by reports: hit rate is `hits / (hits + misses)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextBtuStats {
    /// The context id these counters belong to.
    pub context: u64,
    /// Fetch-time lookups made while this context was active.
    pub lookups: u64,
    /// Trace Cache hits while this context was active.
    pub hits: u64,
    /// Trace Cache misses while this context was active.
    pub misses: u64,
    /// Entries evicted from this context's partition (capacity pressure,
    /// steals and reassignment drains all count).
    pub evictions: u64,
    /// Counted switches onto this context.
    pub partition_switches: u64,
    /// Times this context's partition was stolen by another context.
    pub steals_suffered: u64,
    /// Exponentially-weighted estimate of this context's resident
    /// working-set size, updated each time it is switched out. This is what
    /// the scheduler-driven victim policy reads.
    pub working_set_estimate: u64,
}

impl ContextBtuStats {
    /// Trace Cache hit rate of this context (0 when it never used the
    /// cache).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// How [`BranchTraceUnit::assign_partition`] picks a steal victim when
/// every partition is owned. Runtime-only (not part of [`BtuConfig`]): the
/// OS-scheduler model flips it per run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum VictimPolicy {
    /// Steal the partition furthest from the active one in round-robin
    /// order — the context that will run again last.
    #[default]
    FurthestFromActive,
    /// Steal the owned partition whose owner has the smallest observed
    /// working-set estimate (ties fall back to furthest-from-active); the
    /// scheduler-driven policy of the consolidation experiment.
    SmallestWorkingSet,
}

/// The answer of a fetch-time BTU lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtuLookup {
    /// The next PC dictated by the sequential trace, if available.
    pub next_pc: Option<usize>,
    /// True if the branch hit a resident entry (or needed none).
    pub hit: bool,
    /// True if the frontend must stall until the branch resolves (no trace).
    pub needs_stall: bool,
    /// Extra frontend latency in cycles (trace miss streaming).
    pub extra_latency: u64,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
struct BranchState {
    /// Speculative fetch-side cursor.
    fetch: TraceCursor,
    /// Committed cursor (the Checkpoint Table contents).
    committed: TraceCursor,
}

/// One way-partition of the Trace Cache: the context owning it plus its
/// resident branch PCs, most recently used last.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Partition {
    owner: Option<u64>,
    resident: Vec<usize>,
}

/// One program's replay state: its shared encoded traces plus this unit's
/// own PC-indexed tables (the hint LUT and the PC → slot table) and
/// per-slot cursors. A single-tenant BTU holds exactly one image (the
/// construction image); multi-tenant consolidation registers one per
/// context ([`BranchTraceUnit::register_context`]) because distinct
/// programs' branch PCs overlap.
#[derive(Debug, Clone)]
struct TraceImage {
    /// The program's traces, shared with the analysis they came from; slot
    /// `k` replays its `k`-th multi-target branch.
    encoded: Arc<EncodedTraces>,
    /// PC-indexed hint LUT mirroring `encoded`'s hints.
    hint_of: Vec<Option<BranchHint>>,
    /// PC-indexed slot table: `NO_SLOT` for PCs that are not multi-target
    /// branches.
    slot_of: Vec<u32>,
    /// Per-slot replay state; conceptually the Checkpoint Table backed by
    /// the trace data pages, so it survives evictions, flushes and partition
    /// reassignments.
    slots: Vec<BranchState>,
}

impl TraceImage {
    fn new(encoded: Arc<EncodedTraces>) -> Self {
        // Hints come in PC order, so the last one bounds the tables.
        let table_len = encoded.hints().last().map_or(0, |(max_pc, _)| max_pc + 1);
        let mut hint_of = vec![None; table_len];
        let mut slot_of = vec![NO_SLOT; table_len];
        let mut slots = 0;
        for (pc, hint) in encoded.hints() {
            hint_of[pc] = Some(hint);
            if let BranchHint::MultiTarget { .. } = hint {
                slot_of[pc] = slots;
                slots += 1;
            }
        }
        TraceImage {
            hint_of,
            slot_of,
            slots: vec![BranchState::default(); slots as usize],
            encoded,
        }
    }
}

/// The Branch Trace Unit.
///
/// Per-branch structures are slot-indexed dense tables built once at
/// construction rather than tree maps: branch PCs are small instruction
/// indices, so a PC-indexed LUT answers the hint in O(1), and each
/// multi-target branch gets a slot holding its replay cursors, which read
/// the branch's elements straight out of the shared [`EncodedTraces`].
/// Fetch, commit and the squash scan touch only flat arrays — the hot
/// per-branch path does no tree walks and construction copies no trace.
#[derive(Debug, Clone)]
pub struct BranchTraceUnit {
    config: BtuConfig,
    /// Per-program replay tables; index 0 is the construction image, which
    /// serves every context without a registered image of its own (the
    /// single-tenant case).
    images: Vec<TraceImage>,
    /// Context → image index (linear scan; tenant counts are tiny).
    context_images: Vec<(u64, usize)>,
    /// Cached image index of the active context, so the hot lookup path
    /// pays one indirection and no scan.
    active_image: usize,
    /// The context fetch is serving, once any context has registered via
    /// [`BranchTraceUnit::switch_context`]. `None` is the single-tenant
    /// state: no per-context attribution happens.
    active_context: Option<u64>,
    /// Steal-victim selection for oversubscribed partitions.
    victim_policy: VictimPolicy,
    /// The Trace Cache residency, split into way-partitions (a single
    /// partition models the paper's unpartitioned unit).
    partitions: Vec<Partition>,
    /// Index of the partition serving the active context.
    active: usize,
    stats: BtuStats,
    /// Per-context counters, in first-seen order; empty until a context
    /// switch happens.
    context_stats: Vec<ContextBtuStats>,
}

impl BranchTraceUnit {
    /// Creates a BTU for a program's encoded traces, sharing them rather
    /// than copying when handed an `Arc`.
    pub fn new(config: BtuConfig, encoded: impl Into<Arc<EncodedTraces>>) -> Self {
        BranchTraceUnit {
            config,
            images: vec![TraceImage::new(encoded.into())],
            context_images: Vec::new(),
            active_image: 0,
            active_context: None,
            victim_policy: VictimPolicy::default(),
            partitions: vec![Partition::default(); config.partitions.max(1)],
            active: 0,
            stats: BtuStats::default(),
            context_stats: Vec::new(),
        }
    }

    /// Registers `context`'s own encoded traces, so lookups made while that
    /// context is active replay *its* program rather than the construction
    /// image — distinct tenants' branch PCs overlap, so consolidation needs
    /// one image per context. Re-registering a context replaces its image
    /// (fresh cursors). Contexts without a registered image are served by
    /// the construction image, preserving the single-program behavior.
    pub fn register_context(&mut self, context: u64, encoded: impl Into<Arc<EncodedTraces>>) {
        let image = TraceImage::new(encoded.into());
        if let Some(idx) = self
            .context_images
            .iter()
            .find(|(c, _)| *c == context)
            .map(|&(_, i)| i)
        {
            self.images[idx] = image;
        } else {
            self.context_images.push((context, self.images.len()));
            self.images.push(image);
        }
        if self.active_context == Some(context) {
            self.active_image = self.image_of(context);
        }
    }

    /// The image index serving `context` (0 — the construction image — when
    /// the context registered no image of its own).
    fn image_of(&self, context: u64) -> usize {
        self.context_images
            .iter()
            .find(|(c, _)| *c == context)
            .map_or(0, |&(_, i)| i)
    }

    /// The mutable per-context counter row for `context`, created on first
    /// use.
    fn context_stats_mut(&mut self, context: u64) -> &mut ContextBtuStats {
        let idx = match self.context_stats.iter().position(|c| c.context == context) {
            Some(idx) => idx,
            None => {
                self.context_stats.push(ContextBtuStats {
                    context,
                    ..ContextBtuStats::default()
                });
                self.context_stats.len() - 1
            }
        };
        &mut self.context_stats[idx]
    }

    /// The configuration in use.
    #[inline]
    pub fn config(&self) -> BtuConfig {
        self.config
    }

    /// Serves lookups from `context`'s registered image (the construction
    /// image when it registered none) without touching the partitions or
    /// the counters: the context switch of a hint-only unit, which models no
    /// residency to reassign (Cassandra-lite).
    pub fn serve_image_of(&mut self, context: u64) {
        self.active_image = self.image_of(context);
    }

    /// Accumulated statistics.
    #[inline]
    pub fn stats(&self) -> BtuStats {
        self.stats
    }

    /// Per-context statistics in first-seen order; empty until a context
    /// switch happens (single-tenant runs never pay for the attribution).
    #[inline]
    pub fn context_stats(&self) -> &[ContextBtuStats] {
        &self.context_stats
    }

    /// The steal-victim policy in use.
    #[inline]
    pub fn victim_policy(&self) -> VictimPolicy {
        self.victim_policy
    }

    /// Selects how oversubscribed partition steals pick their victim (the
    /// OS-scheduler model switches this to [`VictimPolicy::SmallestWorkingSet`]).
    pub fn set_victim_policy(&mut self, policy: VictimPolicy) {
        self.victim_policy = policy;
    }

    /// Total BTU storage in bits (for the area model). Partitioning divides
    /// the existing ways; it adds no storage.
    pub fn storage_bits(&self) -> usize {
        self.config.entries * entry_storage_bits()
    }

    /// The hint of an analyzed crypto branch, answered from the dense LUT.
    ///
    /// Equivalent to `encoded().hint(pc)` without the binary search; frontends
    /// probe this once per fetched branch.
    #[inline]
    pub fn hint(&self, pc: usize) -> Option<BranchHint> {
        self.images[self.active_image]
            .hint_of
            .get(pc)
            .copied()
            .flatten()
    }

    // ------------------------------------------------------- partitioning

    /// Number of Trace Cache ways owned by partition `idx`: the `entries`
    /// ways are divided as evenly as possible, earlier partitions taking the
    /// remainder.
    pub fn partition_capacity(&self, idx: usize) -> usize {
        let n = self.partitions.len();
        self.config.entries / n + usize::from(idx < self.config.entries % n)
    }

    /// The partition currently serving fetch.
    #[inline]
    pub fn active_partition(&self) -> usize {
        self.active
    }

    /// The context owning partition `idx`, if any.
    pub fn partition_owner(&self, idx: usize) -> Option<u64> {
        self.partitions.get(idx).and_then(|p| p.owner)
    }

    /// Resident entry count per partition (used by tests and reports).
    pub fn partition_occupancy(&self) -> Vec<usize> {
        self.partitions.iter().map(|p| p.resident.len()).collect()
    }

    /// Returns the partition assigned to `context`, assigning one if the
    /// context has none yet: an unowned partition if available (drained
    /// first — leftover residency belongs to whoever filled it before the
    /// partition was claimed, and contexts never share ways), otherwise an
    /// owned partition is stolen per the [`VictimPolicy`] (its residents are
    /// evicted — their checkpoints live in the data pages and survive). The
    /// victim is never the active partition when more than one partition
    /// exists; with a single partition the steal degrades to a
    /// flush-equivalent (counted as a flush, not a steal).
    pub fn assign_partition(&mut self, context: u64) -> usize {
        if let Some(idx) = self
            .partitions
            .iter()
            .position(|p| p.owner == Some(context))
        {
            return idx;
        }
        if let Some(idx) = self.partitions.iter().position(|p| p.owner.is_none()) {
            self.evict_partition(idx);
            self.partitions[idx].owner = Some(context);
            return idx;
        }
        // All partitions owned: pick a steal victim.
        let n = self.partitions.len();
        if n == 1 {
            // Nothing to steal but the active context's own ways: that is a
            // whole-unit flush, not a partition steal — drain the unit and
            // hand the single partition over.
            self.stats.flushes += 1;
            self.evict_partition(0);
            self.partitions[0].owner = Some(context);
            return 0;
        }
        let victim = self.pick_victim();
        debug_assert_ne!(victim, self.active, "never steal the active partition");
        self.stats.partition_steals += 1;
        if let Some(owner) = self.partitions[victim].owner {
            self.context_stats_mut(owner).steals_suffered += 1;
        }
        self.evict_partition(victim);
        self.partitions[victim].owner = Some(context);
        victim
    }

    /// The steal victim among the (all-owned) non-active partitions:
    /// furthest from the active in round-robin order, or — under
    /// [`VictimPolicy::SmallestWorkingSet`] — the owner with the smallest
    /// observed working set (ties fall back to furthest).
    fn pick_victim(&self) -> usize {
        let n = self.partitions.len();
        let furthest = (self.active + n - 1) % n;
        match self.victim_policy {
            VictimPolicy::FurthestFromActive => furthest,
            VictimPolicy::SmallestWorkingSet => {
                let ws_of = |idx: usize| -> u64 {
                    self.partitions[idx]
                        .owner
                        .and_then(|owner| self.context_stats.iter().find(|c| c.context == owner))
                        .map_or(0, |c| c.working_set_estimate)
                };
                // Walk non-active partitions furthest-first so ties keep
                // the furthest victim.
                let mut victim = furthest;
                let mut best = ws_of(furthest);
                for distance in (1..n - 1).rev() {
                    let idx = (self.active + distance) % n;
                    let ws = ws_of(idx);
                    if ws < best {
                        victim = idx;
                        best = ws;
                    }
                }
                victim
            }
        }
    }

    /// Explicitly moves `context` onto partition `idx` (clamped to the
    /// partition count): the target's foreign residents are evicted, and the
    /// context's previous partition (if different) is disowned and drained.
    /// If the moved context was the active one, the active partition follows
    /// it, so fetch never fills a disowned partition. This is the Q4
    /// partition-reassignment primitive; [`switch_context`] is the common
    /// assign-and-activate flow on top of [`assign_partition`].
    ///
    /// [`switch_context`]: BranchTraceUnit::switch_context
    /// [`assign_partition`]: BranchTraceUnit::assign_partition
    pub fn reassign(&mut self, context: u64, idx: usize) {
        let idx = idx.min(self.partitions.len() - 1);
        if let Some(old) = self
            .partitions
            .iter()
            .position(|p| p.owner == Some(context))
        {
            if old == idx {
                return;
            }
            self.evict_partition(old);
            self.partitions[old].owner = None;
            if self.active == old {
                self.active = idx;
            }
        }
        if self.partitions[idx].owner.is_some() {
            self.stats.partition_steals += 1;
        }
        self.evict_partition(idx);
        self.partitions[idx].owner = Some(context);
    }

    /// A context switch served by partition reassignment instead of a
    /// whole-unit flush (Q4): the incoming context's partition becomes the
    /// active one, leaving every other partition's residency warm. Returns
    /// true if the active context actually changed — a switch to the
    /// already-active context is a no-op, and the very first call merely
    /// registers the initial context; neither counts as a switch, so
    /// `partition_switches` agrees with the pipeline's `context_switches`.
    pub fn switch_context(&mut self, context: u64) -> bool {
        if self.active_context == Some(context) {
            return false;
        }
        // Update the outgoing context's working-set estimate from what it
        // left resident (an integer EWMA: half old estimate, half current).
        if let Some(outgoing) = self.active_context {
            let resident = self.partitions[self.active].resident.len() as u64;
            let stats = self.context_stats_mut(outgoing);
            stats.working_set_estimate = (stats.working_set_estimate + resident).div_ceil(2);
        }
        let first = self.active_context.is_none();
        self.active_context = Some(context);
        self.active = self.assign_partition(context);
        self.active_image = self.image_of(context);
        if first {
            // Registration of the initial context, not a switch.
            return false;
        }
        self.stats.partition_switches += 1;
        self.context_stats_mut(context).partition_switches += 1;
        true
    }

    /// Drops every resident of partition `idx`, counting the evictions
    /// (attributed to the partition's owner, when it has one).
    fn evict_partition(&mut self, idx: usize) {
        let drained = self.partitions[idx].resident.len();
        self.stats.evictions += drained as u64;
        if drained > 0 {
            if let Some(owner) = self.partitions[idx].owner {
                self.context_stats_mut(owner).evictions += drained as u64;
            }
        }
        self.partitions[idx].resident.clear();
    }

    // ------------------------------------------------------------ lookups

    /// Fetch flow (§5.3): determines the next PC for a crypto branch being
    /// fetched and advances the speculative trace position.
    #[inline]
    pub fn fetch_lookup(&mut self, pc: usize) -> BtuLookup {
        self.stats.lookups += 1;
        if let Some(context) = self.active_context {
            self.context_stats_mut(context).lookups += 1;
        }
        match self.hint(pc) {
            // Single-target branches carry their target in the hint bytes and
            // consume no BTU resources.
            Some(BranchHint::SingleTarget { target }) => {
                self.stats.single_target_lookups += 1;
                BtuLookup {
                    next_pc: Some(target),
                    hit: true,
                    needs_stall: false,
                    extra_latency: 0,
                }
            }
            // No usable trace: the frontend stalls until the branch resolves
            // (footnote 4 / §4.3).
            Some(BranchHint::InputDependent) | Some(BranchHint::NotExecuted) | None => {
                self.stats.stall_lookups += 1;
                BtuLookup {
                    next_pc: None,
                    hit: false,
                    needs_stall: true,
                    extra_latency: 0,
                }
            }
            Some(BranchHint::MultiTarget { .. }) => {
                let (hit, extra_latency) = self.touch_entry(pc);
                let image = &mut self.images[self.active_image];
                // Every multi-target branch has a slot (`TraceImage::new`).
                let slot = image.slot_of[pc] as usize;
                let trace = image.encoded.trace_at(slot, pc);
                let next_pc = image.slots[slot].fetch.next_target(trace);
                if next_pc.is_none() {
                    // An empty trace: nothing to replay, so fetch stalls.
                    self.stats.stall_lookups += 1;
                }
                BtuLookup {
                    next_pc,
                    hit,
                    needs_stall: next_pc.is_none(),
                    extra_latency,
                }
            }
        }
    }

    /// Commit flow (§5.3): a crypto branch retired, so the committed position
    /// (Checkpoint Table) advances by one execution.
    #[inline]
    pub fn commit_branch(&mut self, pc: usize) {
        if !matches!(self.hint(pc), Some(BranchHint::MultiTarget { .. })) {
            return;
        }
        self.stats.commits += 1;
        let image = &mut self.images[self.active_image];
        let slot = image.slot_of[pc] as usize;
        let trace = image.encoded.trace_at(slot, pc);
        let _ = image.slots[slot].committed.next_target(trace);
    }

    /// Squash recovery (§5.3): undo all speculative fetch-side progress, for
    /// every branch of every image, back to the committed checkpoints (only
    /// the active image can have run ahead, but rolling back all of them is
    /// cheap and unconditionally correct).
    pub fn squash(&mut self) {
        self.stats.squashes += 1;
        for image in &mut self.images {
            for state in &mut image.slots {
                let committed = state.committed.position();
                state.fetch.restore(committed);
            }
        }
    }

    /// Flushes the Trace Cache residency of every partition (the whole-unit
    /// context-switch model of discussion Q4). Replay positions survive in
    /// the checkpoint data pages, but the next lookups pay the miss latency
    /// again.
    pub fn flush(&mut self) {
        self.stats.flushes += 1;
        for partition in &mut self.partitions {
            partition.resident.clear();
        }
    }

    /// Marks `pc` resident in the active partition, evicting its least
    /// recently used entry if the partition is full. Returns
    /// `(hit, extra_latency)`.
    fn touch_entry(&mut self, pc: usize) -> (bool, u64) {
        let active_ctx = self.active_context;
        let capacity = self.partition_capacity(self.active);
        if capacity == 0 {
            // No Trace Cache ways for this context: nothing is ever
            // resident, every lookup streams.
            self.stats.misses += 1;
            if let Some(ctx) = active_ctx {
                self.context_stats_mut(ctx).misses += 1;
            }
            return (false, self.config.miss_penalty);
        }
        let partition = &mut self.partitions[self.active];
        if let Some(idx) = partition.resident.iter().position(|&p| p == pc) {
            partition.resident.remove(idx);
            partition.resident.push(pc);
            self.stats.hits += 1;
            if let Some(ctx) = active_ctx {
                self.context_stats_mut(ctx).hits += 1;
            }
            return (true, 0);
        }
        self.stats.misses += 1;
        let mut evicted = false;
        if partition.resident.len() >= capacity {
            partition.resident.remove(0);
            self.stats.evictions += 1;
            evicted = true;
        }
        partition.resident.push(pc);
        if let Some(ctx) = active_ctx {
            let stats = self.context_stats_mut(ctx);
            stats.misses += 1;
            if evicted {
                stats.evictions += 1;
            }
        }
        (false, self.config.miss_penalty)
    }

    /// Read-only access to the active context's encoded traces (the
    /// construction image in single-tenant runs; used by reports).
    #[inline]
    pub fn encoded(&self) -> &EncodedTraces {
        &self.images[self.active_image].encoded
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::program::Program;
    use cassandra_isa::reg::{A0, A1, ZERO};
    use cassandra_trace::genproc::generate_traces;

    fn nested_program() -> Program {
        let mut b = ProgramBuilder::new("nested");
        b.begin_crypto();
        b.li(A0, 3);
        b.label("outer");
        b.li(A1, 2);
        b.label("inner");
        b.addi(A1, A1, -1);
        b.bne(A1, ZERO, "inner");
        b.addi(A0, A0, -1);
        b.bne(A0, ZERO, "outer");
        b.end_crypto();
        b.halt();
        b.build().unwrap()
    }

    fn btu_with(program: &Program, config: BtuConfig) -> BranchTraceUnit {
        let bundle = generate_traces(program, None, 100_000).unwrap();
        let encoded = EncodedTraces::from_bundle(program, &bundle);
        BranchTraceUnit::new(config, encoded)
    }

    fn btu_for(program: &Program) -> BranchTraceUnit {
        btu_with(program, BtuConfig::default())
    }

    /// Replays a program's crypto branches through the BTU and checks every
    /// redirection against the functional execution.
    #[test]
    fn btu_replays_exactly_the_sequential_trace() {
        let program = nested_program();
        let raw = cassandra_trace::collect::collect_raw_traces(&program, 100_000).unwrap();
        let mut btu = btu_for(&program);
        // Interleave lookups in program order: walk the recorded outcomes.
        let mut per_branch_expected: Vec<(usize, usize)> = Vec::new();
        for (pc, trace) in &raw {
            for &t in &trace.targets {
                per_branch_expected.push((*pc, t));
            }
        }
        // For each branch, lookups must yield targets in recorded order.
        let mut positions: std::collections::BTreeMap<usize, usize> = Default::default();
        for (pc, expected) in per_branch_expected {
            let lookup = btu.fetch_lookup(pc);
            btu.commit_branch(pc);
            let i = positions.entry(pc).or_insert(0);
            *i += 1;
            assert_eq!(lookup.next_pc, Some(expected), "branch {pc}, execution {i}");
            assert!(!lookup.needs_stall);
        }
    }

    #[test]
    fn squash_rolls_back_uncommitted_lookups() {
        let program = nested_program();
        let mut btu = btu_for(&program);
        let inner_pc = 3;
        // Fetch two outcomes speculatively without committing.
        let first = btu.fetch_lookup(inner_pc).next_pc;
        let _second = btu.fetch_lookup(inner_pc).next_pc;
        btu.squash();
        // After the squash the replay restarts from the committed position.
        assert_eq!(btu.fetch_lookup(inner_pc).next_pc, first);
        assert!(btu.stats().squashes >= 1);
    }

    #[test]
    fn flush_only_costs_a_refill() {
        let program = nested_program();
        let mut btu = btu_for(&program);
        let inner_pc = 3;
        let a = btu.fetch_lookup(inner_pc);
        btu.commit_branch(inner_pc);
        assert_eq!(a.extra_latency, btu.config().miss_penalty, "cold miss");
        btu.flush();
        let b = btu.fetch_lookup(inner_pc);
        // The replay position survives the flush; only the miss latency is
        // paid again.
        assert_eq!(b.extra_latency, btu.config().miss_penalty);
        assert!(b.next_pc.is_some());
        assert_eq!(btu.stats().flushes, 1);
    }

    #[test]
    fn lru_eviction_under_pressure() {
        // A tiny 1-entry BTU with two multi-target branches must evict.
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 1,
                miss_penalty: 5,
                ..BtuConfig::default()
            },
        );
        let inner_pc = 3;
        let outer_pc = 5;
        btu.fetch_lookup(inner_pc);
        btu.fetch_lookup(outer_pc);
        btu.fetch_lookup(inner_pc);
        assert!(btu.stats().evictions >= 1);
        assert_eq!(btu.stats().hits, 0);
    }

    #[test]
    fn one_entry_btu_restores_checkpoints_under_squash_despite_eviction() {
        // A 1-entry Trace Cache thrashed by two multi-target branches must
        // still replay correctly after a squash: the Checkpoint Table state
        // lives in the data pages and survives evictions.
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 1,
                miss_penalty: 7,
                ..BtuConfig::default()
            },
        );
        let inner_pc = 3;
        let outer_pc = 5;

        // Commit the first inner execution, then run ahead speculatively.
        let first = btu.fetch_lookup(inner_pc).next_pc.unwrap();
        btu.commit_branch(inner_pc);
        let second = btu.fetch_lookup(inner_pc).next_pc.unwrap();
        // Touching the outer branch evicts the inner entry (capacity 1).
        let outer = btu.fetch_lookup(outer_pc);
        assert!(btu.stats().evictions >= 1, "the 1-entry cache must evict");
        assert_eq!(outer.extra_latency, 7, "outer is a cold miss");

        // Squash: both fetch cursors roll back to their committed positions.
        btu.squash();
        let replayed = btu.fetch_lookup(inner_pc);
        assert_eq!(
            replayed.next_pc,
            Some(second),
            "inner replay resumes at the committed checkpoint, not at {first}"
        );
        assert_eq!(
            replayed.extra_latency, 7,
            "the evicted entry pays the miss penalty again"
        );
        // The outer branch restarts from its (never-committed) beginning.
        assert_eq!(btu.fetch_lookup(outer_pc).next_pc, outer.next_pc);
    }

    #[test]
    fn zero_entry_trace_cache_always_misses() {
        // entries == 0 models Cassandra-noTC: nothing is ever resident, every
        // multi-target lookup streams its trace and pays the miss penalty.
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 0,
                miss_penalty: 9,
                ..BtuConfig::default()
            },
        );
        let inner_pc = 3;
        for _ in 0..4 {
            let lookup = btu.fetch_lookup(inner_pc);
            assert!(lookup.next_pc.is_some(), "replay still works without a TC");
            assert_eq!(lookup.extra_latency, 9);
            btu.commit_branch(inner_pc);
        }
        assert_eq!(btu.stats().hits, 0);
        assert_eq!(btu.stats().misses, 4);
    }

    #[test]
    fn unknown_branches_stall() {
        let program = nested_program();
        let mut btu = btu_for(&program);
        let lookup = btu.fetch_lookup(999);
        assert!(lookup.needs_stall);
        assert_eq!(lookup.next_pc, None);
    }

    #[test]
    fn storage_is_about_the_papers_budget() {
        let program = nested_program();
        let btu = btu_for(&program);
        let kib = btu.storage_bits() as f64 / 8.0 / 1024.0;
        assert!(kib > 1.0 && kib < 2.5, "{kib:.2} KiB");
    }

    // --------------------------------------------------------- partitioning

    #[test]
    fn partition_capacities_split_the_ways_evenly() {
        let program = nested_program();
        let btu = btu_with(
            &program,
            BtuConfig {
                entries: 5,
                partitions: 2,
                ..BtuConfig::default()
            },
        );
        assert_eq!(btu.partition_capacity(0), 3);
        assert_eq!(btu.partition_capacity(1), 2);
        assert_eq!(btu.partition_occupancy(), vec![0, 0]);
    }

    #[test]
    fn context_switch_keeps_the_other_partition_warm() {
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        let inner_pc = 3;
        // Context 0 warms up its partition.
        btu.switch_context(0);
        assert_eq!(btu.fetch_lookup(inner_pc).extra_latency, 11, "cold miss");
        assert_eq!(btu.fetch_lookup(inner_pc).extra_latency, 0, "warm hit");
        // Context 1 gets its own partition; its first lookup is cold.
        assert!(btu.switch_context(1));
        assert_eq!(btu.fetch_lookup(inner_pc).extra_latency, 11);
        // Switching back to context 0 is free: its partition stayed warm.
        assert!(btu.switch_context(0));
        assert_eq!(btu.fetch_lookup(inner_pc).extra_latency, 0);
        // The first switch_context(0) registered the initial context; only
        // the two real changes count.
        assert_eq!(btu.stats().partition_switches, 2);
        assert_eq!(btu.stats().partition_steals, 0);
        assert_eq!(btu.partition_occupancy(), vec![1, 1]);
    }

    #[test]
    fn switching_to_the_active_context_is_not_a_switch() {
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        // First call registers the initial context: not a switch.
        assert!(!btu.switch_context(0));
        assert_eq!(btu.stats().partition_switches, 0);
        // Re-switching to the already-active context is a no-op.
        for _ in 0..5 {
            assert!(!btu.switch_context(0));
        }
        assert_eq!(btu.stats().partition_switches, 0);
        assert_eq!(btu.stats().partition_steals, 0);
        // A real change counts exactly once.
        assert!(btu.switch_context(1));
        assert_eq!(btu.stats().partition_switches, 1);
    }

    #[test]
    fn steals_never_pick_the_active_partition() {
        // Property: whenever a steal happens (n > 1, all partitions owned),
        // the victim is not the partition the outgoing context was running
        // on — its residency survives the switch.
        let program = nested_program();
        let inner_pc = 3;
        for partitions in 2..=4 {
            let mut btu = btu_with(
                &program,
                BtuConfig {
                    entries: 8,
                    miss_penalty: 5,
                    partitions,
                },
            );
            // Saturate: one context per partition, each with residency.
            for ctx in 0..partitions as u64 {
                btu.switch_context(ctx);
                btu.fetch_lookup(inner_pc);
                btu.commit_branch(inner_pc);
            }
            // Every further context must steal — never from the partition
            // that was active at the moment of the steal.
            for ctx in partitions as u64..3 * partitions as u64 {
                let outgoing = btu.active_partition();
                let outgoing_occupancy = btu.partition_occupancy()[outgoing];
                let steals_before = btu.stats().partition_steals;
                btu.switch_context(ctx);
                assert_eq!(btu.stats().partition_steals, steals_before + 1);
                assert_ne!(
                    btu.active_partition(),
                    outgoing,
                    "{partitions} partitions: stole the active partition"
                );
                assert_eq!(
                    btu.partition_occupancy()[outgoing],
                    outgoing_occupancy,
                    "{partitions} partitions: the outgoing partition must stay warm"
                );
                btu.fetch_lookup(inner_pc);
                btu.commit_branch(inner_pc);
            }
        }
    }

    #[test]
    fn single_partition_oversubscription_degrades_to_a_flush() {
        // With one partition there is nothing to steal but the active
        // context's own ways: rotating contexts must be priced as
        // whole-unit flushes, never as silent self-steals.
        let program = nested_program();
        let inner_pc = 3;
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 1,
            },
        );
        btu.switch_context(0);
        btu.fetch_lookup(inner_pc);
        btu.commit_branch(inner_pc);
        let first = btu.switch_context(1);
        assert!(first, "the context did change");
        assert_eq!(btu.stats().partition_steals, 0, "no silent self-steal");
        assert_eq!(btu.stats().flushes, 1, "priced as a flush");
        assert_eq!(btu.partition_owner(0), Some(1));
        assert_eq!(btu.partition_occupancy(), vec![0], "drained like a flush");
        // Replay continues correctly from the checkpointed position.
        let lookup = btu.fetch_lookup(inner_pc);
        assert!(lookup.next_pc.is_some());
        assert_eq!(lookup.extra_latency, 11, "cold refill after the flush");
    }

    #[test]
    fn working_set_victim_policy_steals_from_the_smallest_context() {
        let program = nested_program();
        let inner_pc = 3;
        let outer_pc = 5;
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 9,
                miss_penalty: 5,
                partitions: 3,
            },
        );
        btu.set_victim_policy(VictimPolicy::SmallestWorkingSet);
        assert_eq!(btu.victim_policy(), VictimPolicy::SmallestWorkingSet);
        // Context 0 keeps a 1-entry working set (estimate settles at 1);
        // context 1 keeps a 2-entry one and is switched out twice so its
        // estimate grows to 2; context 2 runs last on the active partition.
        btu.switch_context(0); // registers on partition 0
        btu.fetch_lookup(inner_pc);
        btu.switch_context(1); // partition 1
        btu.fetch_lookup(inner_pc);
        btu.fetch_lookup(outer_pc);
        btu.switch_context(0);
        btu.switch_context(1);
        btu.switch_context(0);
        btu.switch_context(2); // partition 2 (now active)
        btu.fetch_lookup(inner_pc);
        // Furthest-from-active would pick partition 1 (context 1); the
        // working-set policy must instead steal from context 0, the
        // smallest non-active owner.
        btu.switch_context(3);
        assert_eq!(btu.stats().partition_steals, 1);
        assert_eq!(
            btu.partition_owner(btu.active_partition()),
            Some(3),
            "context 3 owns the stolen partition"
        );
        assert!(
            !(0..3).any(|idx| btu.partition_owner(idx) == Some(0)),
            "context 0 (smallest working set) was the victim"
        );
        let p1_occupancy = (0..3)
            .find(|&idx| btu.partition_owner(idx) == Some(1))
            .map(|idx| btu.partition_occupancy()[idx])
            .unwrap();
        assert_eq!(
            p1_occupancy, 2,
            "context 1's bigger working set stayed warm"
        );
    }

    #[test]
    fn per_context_stats_attribute_hits_and_steals() {
        let program = nested_program();
        let inner_pc = 3;
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        assert!(
            btu.context_stats().is_empty(),
            "no attribution before switches"
        );
        btu.switch_context(0);
        btu.fetch_lookup(inner_pc); // miss
        btu.fetch_lookup(inner_pc); // hit
        btu.switch_context(1);
        btu.fetch_lookup(inner_pc); // miss in its own partition
        btu.switch_context(2); // steals context 0's partition
        let of = |ctx: u64| {
            *btu.context_stats()
                .iter()
                .find(|c| c.context == ctx)
                .unwrap()
        };
        assert_eq!(of(0).lookups, 2);
        assert_eq!(of(0).hits, 1);
        assert_eq!(of(0).misses, 1);
        assert_eq!(of(0).steals_suffered, 1);
        assert_eq!(of(0).evictions, 1, "the steal drained its entry");
        assert!((of(0).hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(of(1).lookups, 1);
        assert_eq!(of(1).misses, 1);
        assert_eq!(of(1).steals_suffered, 0);
        assert_eq!(of(2).partition_switches, 1);
        assert!(
            of(0).working_set_estimate >= 1,
            "context 0 was switched out with residency"
        );
    }

    #[test]
    fn oversubscribed_contexts_steal_partitions() {
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        let inner_pc = 3;
        btu.switch_context(0);
        btu.fetch_lookup(inner_pc);
        btu.switch_context(1);
        btu.fetch_lookup(inner_pc);
        // A third context must steal a partition (not the active one).
        btu.switch_context(2);
        assert_eq!(btu.stats().partition_steals, 1);
        assert_eq!(btu.partition_owner(btu.active_partition()), Some(2));
        // The stolen partition was drained.
        assert_eq!(
            btu.partition_occupancy().iter().sum::<usize>(),
            1,
            "only the surviving context's entry remains resident"
        );
    }

    #[test]
    fn reassign_moves_a_context_and_drains_both_partitions() {
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        let inner_pc = 3;
        btu.switch_context(0);
        btu.fetch_lookup(inner_pc);
        btu.switch_context(1);
        btu.fetch_lookup(inner_pc);
        let evictions_before = btu.stats().evictions;
        // Move context 0 onto context 1's partition: both the old partition
        // and the stolen one are drained.
        let target = 1 - btu.active_partition();
        btu.reassign(0, btu.active_partition());
        assert_eq!(btu.partition_owner(1 - target), Some(0));
        assert_eq!(btu.stats().evictions, evictions_before + 2);
        assert_eq!(btu.stats().partition_steals, 1);
        // Reassigning a context to its own partition is a no-op.
        let steals = btu.stats().partition_steals;
        btu.reassign(0, 1 - target);
        assert_eq!(btu.stats().partition_steals, steals);
    }

    #[test]
    fn partition_reassignment_preserves_replay_positions() {
        // The checkpoint state lives in the data pages: arbitrary partition
        // churn changes only residency (latency), never the replayed target.
        let program = nested_program();
        let raw = cassandra_trace::collect::collect_raw_traces(&program, 100_000).unwrap();
        let inner_pc = 3;
        let expected: &[usize] = raw
            .iter()
            .find(|(pc, _)| **pc == inner_pc)
            .map(|(_, t)| t.targets.as_slice())
            .unwrap();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 2,
                miss_penalty: 3,
                partitions: 2,
            },
        );
        for (i, want) in expected.iter().enumerate() {
            btu.switch_context((i % 3) as u64); // includes steals
            let lookup = btu.fetch_lookup(inner_pc);
            btu.commit_branch(inner_pc);
            assert_eq!(lookup.next_pc, Some(*want), "execution {i}");
        }
    }

    #[test]
    fn claiming_an_unowned_partition_drains_leftover_residency() {
        // Residency filled before any context registered (owner None) must
        // not be inherited by the first context that claims the partition:
        // contexts never share warm ways.
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        let inner_pc = 3;
        btu.fetch_lookup(inner_pc); // warms unowned partition 0
        assert_eq!(btu.partition_occupancy(), vec![1, 0]);
        btu.switch_context(7); // first registered context claims partition 0
        assert_eq!(btu.partition_owner(0), Some(7));
        assert_eq!(
            btu.partition_occupancy(),
            vec![0, 0],
            "the claimed partition starts cold"
        );
        assert_eq!(btu.fetch_lookup(inner_pc).extra_latency, 11);
    }

    #[test]
    fn reassigning_the_active_context_moves_the_active_partition() {
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        btu.switch_context(0);
        assert_eq!(btu.active_partition(), 0);
        btu.reassign(0, 1);
        assert_eq!(
            btu.active_partition(),
            1,
            "fetch must follow the reassigned active context"
        );
        assert_eq!(btu.partition_owner(1), Some(0));
        assert_eq!(btu.partition_owner(0), None);
        // Fetch now fills the owned partition, not the disowned one.
        btu.fetch_lookup(3);
        assert_eq!(btu.partition_occupancy(), vec![0, 1]);
    }

    #[test]
    fn whole_flush_drains_every_partition() {
        let program = nested_program();
        let mut btu = btu_with(
            &program,
            BtuConfig {
                entries: 4,
                miss_penalty: 11,
                partitions: 2,
            },
        );
        btu.switch_context(0);
        btu.fetch_lookup(3);
        btu.switch_context(1);
        btu.fetch_lookup(3);
        btu.flush();
        assert_eq!(btu.partition_occupancy(), vec![0, 0]);
        assert_eq!(btu.stats().flushes, 1);
    }
}

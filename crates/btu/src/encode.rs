//! Conversion from compressed k-mers traces to the BTU's hardware
//! representation (pattern set + trace elements, §5.2), and the flat,
//! immutable form a whole program's traces and hints are stored in.

use crate::element::{
    PatternElement, TraceElement, MAX_PATTERN_REPS, MAX_TRACE_COUNTER, PATTERN_ELEMENT_BITS,
    TRACE_ELEMENT_BITS,
};
use cassandra_isa::program::Program;
use cassandra_trace::genproc::TraceBundle;
use cassandra_trace::hints::{BranchHint, HINT_BITS_PER_BRANCH};
use cassandra_trace::kmers::KmersTrace;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Narrows a PC, an arena offset or a trace size to the stored width.
/// Programs and profiling runs stay far below 2^32 instructions, so this
/// never fails for a program that can be built and profiled.
fn narrow(n: usize) -> u32 {
    u32::try_from(n).expect("PCs and trace sizes fit 32 bits")
}

/// Appends the encoding of the branch at `pc` to the two element arenas:
/// its pattern set to `patterns` and its trace elements to `trace`. Pattern
/// indices count from the branch's first pattern element, at full width.
fn encode_kmers(
    pc: usize,
    kmers: &KmersTrace,
    patterns: &mut Vec<PatternElement>,
    trace: &mut Vec<TraceElement>,
) {
    let base = patterns.len();
    // Symbol → (first element index, element count, total executions).
    let mut placement: BTreeMap<u32, (u32, u32, u64)> = BTreeMap::new();
    for (&symbol, elements) in &kmers.patterns.patterns {
        let start = patterns.len();
        let mut executions = 0u64;
        for e in elements {
            executions += e.count;
            let mut remaining = e.count;
            // Split repetitions that exceed the 8-bit field, as in §5.2.
            while remaining > MAX_PATTERN_REPS {
                patterns.push(PatternElement {
                    target_offset: e.target as i32 - pc as i32,
                    repetitions: MAX_PATTERN_REPS as u8,
                });
                remaining -= MAX_PATTERN_REPS;
            }
            patterns.push(PatternElement {
                target_offset: e.target as i32 - pc as i32,
                repetitions: remaining as u8,
            });
        }
        placement.insert(
            symbol,
            (
                narrow(start - base),
                narrow(patterns.len() - start),
                executions,
            ),
        );
    }

    let first = trace.len();
    for run in &kmers.runs {
        let (pattern_index, pattern_size, executions) = placement[&run.symbol];
        let mut remaining = run.repeat;
        while remaining > 0 {
            let chunk = remaining.min(MAX_TRACE_COUNTER);
            trace.push(TraceElement {
                pattern_index,
                pattern_size,
                // A statistic, not read by replay: saturates at 16 bits.
                pattern_counter: executions.min(u64::from(u16::MAX)) as u16,
                trace_counter: chunk as u8,
                end_of_trace: false,
            });
            remaining -= chunk;
        }
    }
    if let Some(last) = trace[first..].last_mut() {
        last.end_of_trace = true;
    }
}

/// One branch's encoded trace, borrowed from wherever it is stored: the
/// pattern set (Pattern Table contents) and the trace elements (Trace Cache
/// contents, possibly longer than one entry — the hardware streams them in
/// 16-element windows).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchTrace<'a> {
    /// The branch PC, which pattern-element offsets are relative to.
    pub pc: usize,
    /// The pattern set.
    pub patterns: &'a [PatternElement],
    /// The trace elements, the last one carrying End-of-Trace.
    pub trace: &'a [TraceElement],
}

impl<'a> BranchTrace<'a> {
    /// The pattern a trace element selects from the pattern set.
    #[inline]
    pub fn pattern(&self, element: &TraceElement) -> &'a [PatternElement] {
        let start = element.pattern_index as usize;
        &self.patterns[start..start + element.pattern_size as usize]
    }

    /// Total number of stored elements (pattern + trace).
    pub fn stored_elements(&self) -> usize {
        self.patterns.len() + self.trace.len()
    }

    /// Expands the encoded trace back into the sequence of target PCs for one
    /// full pass over the trace (until the End-of-Trace marker).
    pub fn expand_targets(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for te in self.trace {
            let pattern = self.pattern(te);
            for _ in 0..te.trace_counter {
                for pe in pattern {
                    for _ in 0..pe.repetitions {
                        out.push(pe.target(self.pc));
                    }
                }
            }
        }
        out
    }
}

/// The encoded trace of one branch on its own (tests and tools encode a
/// single k-mers trace this way; a program's traces live in
/// [`EncodedTraces`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EncodedBranchTrace {
    /// The branch PC.
    pub pc: usize,
    /// The pattern set.
    pub patterns: Vec<PatternElement>,
    /// The trace elements.
    pub trace: Vec<TraceElement>,
}

impl EncodedBranchTrace {
    /// Builds the encoded form of a branch's compressed trace.
    pub fn from_kmers(pc: usize, kmers: &KmersTrace) -> Self {
        let mut encoded = EncodedBranchTrace {
            pc,
            ..Self::default()
        };
        encode_kmers(pc, kmers, &mut encoded.patterns, &mut encoded.trace);
        encoded
    }

    /// The borrowed view the cursor and the expansion read.
    pub fn as_trace(&self) -> BranchTrace<'_> {
        BranchTrace {
            pc: self.pc,
            patterns: &self.patterns,
            trace: &self.trace,
        }
    }
}

/// An analyzed branch's hint as stored: a multi-target branch names its
/// trace record, which holds the short-trace mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum StoredHint {
    SingleTarget(u32),
    MultiTarget(u32),
    InputDependent,
    NotExecuted,
}

/// One analyzed crypto branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct AnalyzedBranch {
    pc: u32,
    hint: StoredHint,
}

/// One multi-target branch's trace: where its elements end in the two
/// arenas (they start where the previous record's end), its short-trace
/// mark, and the two sizes Table 1 reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct TraceRecord {
    pattern_end: u32,
    element_end: u32,
    /// Vanilla (RLE) trace size in elements.
    vanilla_len: u32,
    /// k-mers size (trace + pattern set) in elements.
    kmers_size: u32,
    short_trace: bool,
}

/// The Table 1 sizes of one multi-target branch's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSizes {
    /// Branch PC.
    pub pc: usize,
    /// Vanilla (RLE) trace size in elements.
    pub vanilla_len: usize,
    /// k-mers representation size (trace + pattern set) in elements.
    pub kmers_size: usize,
}

/// The encoded traces and hints of a whole program ("trace data pages" plus
/// the hint information embedded in the binary), in one immutable flat form
/// that the analysis store and every Branch Trace Unit built from it share.
///
/// Each fact is stored once:
/// * `branches` — every analyzed branch by PC, with its hint;
/// * `traces` — one record per multi-target branch, in PC order, so the
///   k-th multi-target branch owns record k;
/// * `patterns` and `elements` — the pattern and trace elements of every
///   record, concatenated in record order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct EncodedTraces {
    branches: Box<[AnalyzedBranch]>,
    traces: Box<[TraceRecord]>,
    patterns: Box<[PatternElement]>,
    elements: Box<[TraceElement]>,
}

impl EncodedTraces {
    /// Encodes every analyzed branch of a [`TraceBundle`]. A multi-target
    /// branch takes its trace from `bundle.branches`; Algorithm 2 stores a
    /// trace for exactly those branches, and one missing from a hand-built
    /// bundle encodes as an empty trace (fetch stalls on it).
    pub fn from_bundle(_program: &Program, bundle: &TraceBundle) -> Self {
        let mut branches = Vec::with_capacity(bundle.hints.len());
        let mut traces = Vec::with_capacity(bundle.branches.len());
        // Exact unless a count overflows its 8-bit field and splits.
        let kmers = bundle.branches.values().map(|data| &data.kmers);
        let mut patterns =
            Vec::with_capacity(kmers.clone().map(|k| k.patterns.element_count()).sum());
        let mut elements = Vec::with_capacity(kmers.map(|k| k.runs.len()).sum());
        for (&pc, &hint) in &bundle.hints.hints {
            let hint = match hint {
                BranchHint::SingleTarget { target } => StoredHint::SingleTarget(narrow(target)),
                BranchHint::MultiTarget { short_trace } => {
                    let (vanilla_len, kmers_size) = match bundle.branches.get(&pc) {
                        Some(data) => {
                            encode_kmers(pc, &data.kmers, &mut patterns, &mut elements);
                            (data.vanilla.len(), data.kmers.total_size())
                        }
                        None => (0, 0),
                    };
                    traces.push(TraceRecord {
                        pattern_end: narrow(patterns.len()),
                        element_end: narrow(elements.len()),
                        vanilla_len: narrow(vanilla_len),
                        kmers_size: narrow(kmers_size),
                        short_trace,
                    });
                    StoredHint::MultiTarget(narrow(traces.len() - 1))
                }
                BranchHint::InputDependent => StoredHint::InputDependent,
                BranchHint::NotExecuted => StoredHint::NotExecuted,
            };
            branches.push(AnalyzedBranch {
                pc: narrow(pc),
                hint,
            });
        }
        EncodedTraces {
            branches: branches.into_boxed_slice(),
            traces: traces.into_boxed_slice(),
            patterns: patterns.into_boxed_slice(),
            elements: elements.into_boxed_slice(),
        }
    }

    fn branch(&self, pc: usize) -> Option<&AnalyzedBranch> {
        let pc = u32::try_from(pc).ok()?;
        let index = self.branches.binary_search_by_key(&pc, |b| b.pc).ok()?;
        Some(&self.branches[index])
    }

    fn expand_hint(&self, hint: StoredHint) -> BranchHint {
        match hint {
            StoredHint::SingleTarget(target) => BranchHint::SingleTarget {
                target: target as usize,
            },
            StoredHint::MultiTarget(index) => BranchHint::MultiTarget {
                short_trace: self.traces[index as usize].short_trace,
            },
            StoredHint::InputDependent => BranchHint::InputDependent,
            StoredHint::NotExecuted => BranchHint::NotExecuted,
        }
    }

    /// The hint for a branch, if it was analyzed.
    pub fn hint(&self, pc: usize) -> Option<BranchHint> {
        self.branch(pc).map(|b| self.expand_hint(b.hint))
    }

    /// Every analyzed branch with its hint, by PC.
    pub fn hints(&self) -> impl Iterator<Item = (usize, BranchHint)> + '_ {
        self.branches
            .iter()
            .map(|b| (b.pc as usize, self.expand_hint(b.hint)))
    }

    /// The encoded trace of a branch, if one exists.
    pub fn trace(&self, pc: usize) -> Option<BranchTrace<'_>> {
        match self.branch(pc)?.hint {
            StoredHint::MultiTarget(index) => Some(self.trace_at(index as usize, pc)),
            _ => None,
        }
    }

    /// The trace of record `index` (the `index`-th multi-target branch, at
    /// `pc`).
    #[inline]
    pub(crate) fn trace_at(&self, index: usize, pc: usize) -> BranchTrace<'_> {
        let (pattern_start, element_start) = match index.checked_sub(1) {
            Some(previous) => {
                let previous = &self.traces[previous];
                (previous.pattern_end, previous.element_end)
            }
            None => (0, 0),
        };
        let record = &self.traces[index];
        BranchTrace {
            pc,
            patterns: &self.patterns[pattern_start as usize..record.pattern_end as usize],
            trace: &self.elements[element_start as usize..record.element_end as usize],
        }
    }

    /// Number of analyzed branches.
    pub fn analyzed_branches(&self) -> usize {
        self.branches.len()
    }

    /// Number of multi-target branches, each with a trace record.
    pub fn multi_target_count(&self) -> usize {
        self.traces.len()
    }

    /// Number of single-target branches.
    pub fn single_target_count(&self) -> usize {
        self.branches
            .iter()
            .filter(|b| matches!(b.hint, StoredHint::SingleTarget(_)))
            .count()
    }

    /// The Table 1 sizes of every multi-target branch, by PC.
    pub fn trace_sizes(&self) -> impl Iterator<Item = TraceSizes> + '_ {
        self.branches.iter().filter_map(|b| match b.hint {
            StoredHint::MultiTarget(index) => {
                let record = &self.traces[index as usize];
                Some(TraceSizes {
                    pc: b.pc as usize,
                    vanilla_len: record.vanilla_len as usize,
                    kmers_size: record.kmers_size as usize,
                })
            }
            _ => None,
        })
    }

    /// Total storage of the trace data pages in bits (used by the hint/trace
    /// storage statistics).
    pub fn storage_bits(&self) -> usize {
        self.patterns.len() * PATTERN_ELEMENT_BITS
            + self.elements.len() * TRACE_ELEMENT_BITS
            + self.branches.len() * HINT_BITS_PER_BRANCH
    }

    /// Checks the invariants replay relies on, so a decoded journal entry
    /// can never index outside its arenas.
    fn check(&self) -> Result<(), String> {
        if self.branches.windows(2).any(|w| w[0].pc >= w[1].pc) {
            return Err("branches are not sorted by PC".into());
        }
        let mut records = 0usize;
        for branch in self.branches.iter() {
            if let StoredHint::MultiTarget(index) = branch.hint {
                if index as usize != records {
                    return Err(format!(
                        "branch {} names trace {index} out of order",
                        branch.pc
                    ));
                }
                records += 1;
            }
        }
        if records != self.traces.len() {
            return Err("trace records do not match the multi-target branches".into());
        }
        let (mut pattern_start, mut element_start) = (0, 0);
        for record in self.traces.iter() {
            let (pattern_end, element_end) =
                (record.pattern_end as usize, record.element_end as usize);
            if pattern_end < pattern_start
                || pattern_end > self.patterns.len()
                || element_end < element_start
                || element_end > self.elements.len()
            {
                return Err("trace record ranges leave their arenas".into());
            }
            let set = pattern_end - pattern_start;
            let fits = |e: &TraceElement| {
                (e.pattern_index as usize)
                    .checked_add(e.pattern_size as usize)
                    .is_some_and(|end| end <= set)
            };
            if !self.elements[element_start..element_end].iter().all(fits) {
                return Err("a trace element selects outside its pattern set".into());
            }
            (pattern_start, element_start) = (pattern_end, element_end);
        }
        if pattern_start != self.patterns.len() || element_start != self.elements.len() {
            return Err("arena elements belong to no trace record".into());
        }
        Ok(())
    }
}

impl Deserialize for EncodedTraces {
    fn from_value(value: &Value) -> Result<Self, serde::Error> {
        let field = |name: &str| {
            value
                .get_field(name)
                .ok_or_else(|| serde::Error::custom(format!("missing field `{name}`")))
        };
        let encoded = EncodedTraces {
            branches: Deserialize::from_value(field("branches")?)?,
            traces: Deserialize::from_value(field("traces")?)?,
            patterns: Deserialize::from_value(field("patterns")?)?,
            elements: Deserialize::from_value(field("elements")?)?,
        };
        encoded.check().map_err(serde::Error::custom)?;
        Ok(encoded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unit::{BranchTraceUnit, BtuConfig};
    use cassandra_isa::builder::ProgramBuilder;
    use cassandra_isa::instr::BranchKind;
    use cassandra_trace::genproc::BranchTraceData;
    use cassandra_trace::kmers::{compress, KmersConfig, PatternSet, TraceRun};
    use cassandra_trace::vanilla::{VanillaElement, VanillaTrace};

    fn encode_targets(pc: usize, targets: &[usize]) -> EncodedBranchTrace {
        let vanilla = VanillaTrace::from_targets(targets);
        let kmers = compress(&vanilla, &KmersConfig::default());
        EncodedBranchTrace::from_kmers(pc, &kmers)
    }

    #[test]
    fn loop_trace_roundtrips() {
        // Taken 4 times to pc 1, then falls through to pc 5 (branch at pc 4).
        let targets = vec![1, 1, 1, 1, 5];
        let enc = encode_targets(4, &targets);
        assert_eq!(enc.as_trace().expand_targets(), targets);
        assert!(enc.trace.last().unwrap().end_of_trace);
    }

    #[test]
    fn nested_loop_trace_roundtrips() {
        // Inner loop of 3 iterations re-entered 4 times: (T T F) × 4.
        let mut targets = Vec::new();
        for _ in 0..4 {
            targets.extend_from_slice(&[10, 10, 20]);
        }
        let enc = encode_targets(19, &targets);
        assert_eq!(enc.as_trace().expand_targets(), targets);
        let stored = enc.as_trace().stored_elements();
        assert!(stored <= 6, "got {stored}");
    }

    #[test]
    fn large_repetition_counts_are_split() {
        // 600 consecutive taken outcomes exceed the 8-bit repetition field.
        let mut targets = vec![2usize; 600];
        targets.push(9);
        let enc = encode_targets(8, &targets);
        assert!(enc
            .patterns
            .iter()
            .all(|p| u64::from(p.repetitions) <= MAX_PATTERN_REPS));
        assert_eq!(enc.as_trace().expand_targets(), targets);
    }

    #[test]
    fn negative_offsets_encode_backward_branches() {
        let targets = vec![1, 1, 9];
        let enc = encode_targets(8, &targets);
        assert!(enc.patterns.iter().any(|p| p.target_offset < 0));
        assert_eq!(enc.as_trace().expand_targets(), targets);
    }

    #[test]
    fn storage_accounting_is_positive() {
        let targets = vec![1, 1, 1, 5];
        let enc = encode_targets(4, &targets);
        assert!(enc.as_trace().stored_elements() >= 2);
    }

    /// A branch at PC 40 whose pattern set has 300 one-element patterns,
    /// each used once, so its trace elements index past 255: its k-mers
    /// trace and the branch alone, encoded as a program's traces.
    fn wide_branch() -> (usize, KmersTrace, EncodedTraces) {
        let pc = 40;
        let mut patterns = BTreeMap::new();
        let mut runs = Vec::new();
        for symbol in 0..300u32 {
            let target = if symbol % 2 == 0 { 10 } else { 41 };
            let count = u64::from(symbol % 3 + 1);
            patterns.insert(symbol, vec![VanillaElement { target, count }]);
            runs.push(TraceRun { symbol, repeat: 1 });
        }
        let kmers = KmersTrace {
            runs,
            patterns: PatternSet { patterns },
        };
        let mut bundle = TraceBundle::default();
        bundle
            .hints
            .hints
            .insert(pc, BranchHint::MultiTarget { short_trace: false });
        bundle.branches.insert(
            pc,
            BranchTraceData {
                pc,
                kind: BranchKind::CondDirect,
                vanilla: VanillaTrace::from_targets(&kmers.expand()),
                kmers: kmers.clone(),
            },
        );
        let mut b = ProgramBuilder::new("wide");
        b.halt();
        let encoded = EncodedTraces::from_bundle(&b.build().unwrap(), &bundle);
        (pc, kmers, encoded)
    }

    #[test]
    fn pattern_sets_past_255_elements_replay_exactly() {
        let (pc, kmers, encoded) = wide_branch();
        let expected = kmers.expand();
        let single = EncodedBranchTrace::from_kmers(pc, &kmers);
        assert_eq!(single.patterns.len(), 300);
        assert!(single.trace.iter().any(|e| e.pattern_index > 255));
        assert_eq!(single.as_trace().expand_targets(), expected);
        assert_eq!(encoded.trace(pc).unwrap().expand_targets(), expected);

        let mut btu = BranchTraceUnit::new(BtuConfig::default(), encoded);
        let replay: Vec<usize> = expected
            .iter()
            .map(|_| {
                let next = btu.fetch_lookup(pc).next_pc.expect("a replayable trace");
                btu.commit_branch(pc);
                next
            })
            .collect();
        assert_eq!(replay, expected);
    }

    #[test]
    fn decoding_checks_every_element_against_its_pattern_set() {
        let (_, _, encoded) = wide_branch();
        let json = serde_json::to_string(&encoded).unwrap();
        assert_eq!(
            serde_json::from_str::<EncodedTraces>(&json).unwrap(),
            encoded
        );
        let corrupt = json.replacen("\"pattern_index\":299", "\"pattern_index\":300", 1);
        assert_ne!(corrupt, json);
        assert!(serde_json::from_str::<EncodedTraces>(&corrupt).is_err());
    }
}

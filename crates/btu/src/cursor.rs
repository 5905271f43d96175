//! A cursor over an encoded branch trace.
//!
//! The cursor tracks the position of the next branch execution inside the
//! (pattern set, trace elements) representation and yields target PCs one
//! execution at a time, wrapping around at the End-of-Trace marker exactly as
//! the hardware rotates / re-streams the trace (§5.3).

use crate::encode::BranchTrace;
use serde::{Deserialize, Serialize};

/// A position inside an encoded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TracePosition {
    /// Index of the current trace element.
    pub trace_index: usize,
    /// How many iterations of the current pattern have completed.
    pub pattern_iteration: u64,
    /// Index of the current pattern element within the pattern.
    pub element_index: usize,
    /// How many repetitions of the current pattern element have been
    /// consumed.
    pub repetition: u64,
}

/// A cursor yielding branch targets from an encoded trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceCursor {
    position: TracePosition,
}

impl TraceCursor {
    /// A cursor at the start of the trace.
    pub fn new() -> Self {
        TraceCursor {
            position: TracePosition::default(),
        }
    }

    /// The current position (used for checkpointing / statistics).
    #[inline]
    pub fn position(&self) -> TracePosition {
        self.position
    }

    /// Restores a previously saved position.
    #[inline]
    pub fn restore(&mut self, position: TracePosition) {
        self.position = position;
    }

    /// Returns the target PC of the next branch execution and advances the
    /// cursor. Returns `None` only for traces with no elements.
    #[inline]
    pub fn next_target(&mut self, trace: BranchTrace<'_>) -> Option<usize> {
        if trace.trace.is_empty() {
            return None;
        }
        let pos = &mut self.position;
        // Normalise: the trace index always points at a valid element.
        if pos.trace_index >= trace.trace.len() {
            *pos = TracePosition::default();
        }
        let te = &trace.trace[pos.trace_index];
        let pattern = trace.pattern(te);
        if pattern.is_empty() {
            return None;
        }
        let element = &pattern[pos.element_index.min(pattern.len() - 1)];
        let target = element.target(trace.pc);

        // Advance within the element / pattern / trace element / trace.
        pos.repetition += 1;
        if pos.repetition >= u64::from(element.repetitions) {
            pos.repetition = 0;
            pos.element_index += 1;
            if pos.element_index >= pattern.len() {
                pos.element_index = 0;
                pos.pattern_iteration += 1;
                if pos.pattern_iteration >= u64::from(te.trace_counter) {
                    pos.pattern_iteration = 0;
                    pos.trace_index += 1;
                    if pos.trace_index >= trace.trace.len() {
                        // End of trace: restart from the beginning (the
                        // End-of-Trace rotation of §5.2).
                        pos.trace_index = 0;
                    }
                }
            }
        }
        Some(target)
    }
}

impl Default for TraceCursor {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::EncodedBranchTrace;
    use cassandra_trace::kmers::{compress, KmersConfig};
    use cassandra_trace::vanilla::VanillaTrace;

    fn encode(pc: usize, targets: &[usize]) -> EncodedBranchTrace {
        let vanilla = VanillaTrace::from_targets(targets);
        let kmers = compress(&vanilla, &KmersConfig::default());
        EncodedBranchTrace::from_kmers(pc, &kmers)
    }

    #[test]
    fn cursor_replays_the_sequential_trace() {
        let targets = vec![1, 1, 1, 5, 1, 1, 1, 5, 1, 1, 1, 5];
        let enc = encode(4, &targets);
        let mut cursor = TraceCursor::new();
        let replay: Vec<usize> = (0..targets.len())
            .map(|_| cursor.next_target(enc.as_trace()).unwrap())
            .collect();
        assert_eq!(replay, targets);
    }

    #[test]
    fn cursor_wraps_at_end_of_trace() {
        let targets = vec![1, 1, 9];
        let enc = encode(8, &targets);
        let mut cursor = TraceCursor::new();
        let mut replay = Vec::new();
        for _ in 0..9 {
            replay.push(cursor.next_target(enc.as_trace()).unwrap());
        }
        assert_eq!(replay, vec![1, 1, 9, 1, 1, 9, 1, 1, 9]);
    }

    #[test]
    fn positions_checkpoint_and_restore() {
        let targets = vec![1, 1, 1, 1, 7];
        let enc = encode(6, &targets);
        let mut cursor = TraceCursor::new();
        cursor.next_target(enc.as_trace());
        cursor.next_target(enc.as_trace());
        let checkpoint = cursor.position();
        let after_two: Vec<usize> = (0..3)
            .map(|_| cursor.next_target(enc.as_trace()).unwrap())
            .collect();
        cursor.restore(checkpoint);
        let replayed: Vec<usize> = (0..3)
            .map(|_| cursor.next_target(enc.as_trace()).unwrap())
            .collect();
        assert_eq!(after_two, replayed);
    }

    #[test]
    fn empty_trace_yields_none() {
        let enc = EncodedBranchTrace::default();
        let mut cursor = TraceCursor::new();
        assert_eq!(cursor.next_target(enc.as_trace()), None);
    }
}

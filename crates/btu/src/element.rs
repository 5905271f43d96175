//! The BTU element formats of the paper's Figure 4.
//!
//! * A **pattern element** is a 12-bit signed target offset plus an 8-bit
//!   repetition count (20 bits).
//! * A **trace element** selects a slice of the pattern set (4-bit index,
//!   4-bit size), carries the total number of branch executions covered by
//!   one iteration of the pattern (16-bit pattern counter) and how many times
//!   the pattern repeats before advancing (8-bit trace counter): 32 bits.
//!   The hardware streams a longer pattern set in 16-element windows, so the
//!   model carries the index and size at full width while its storage
//!   accounting keeps the 32-bit hardware element.
//! * A **checkpoint element** records the committed position within the
//!   trace so evictions, interrupts and squashes can restore it.

use serde::{Deserialize, Serialize};

/// Number of elements per Pattern Table / Trace Cache entry.
pub const ELEMENTS_PER_ENTRY: usize = 16;
/// Bits of one pattern element (12-bit offset + 8-bit repetitions).
pub const PATTERN_ELEMENT_BITS: usize = 20;
/// Bits of one trace element (4 + 4 + 16 + 8).
pub const TRACE_ELEMENT_BITS: usize = 32;
/// Bits of one checkpoint element (12 + 8 + 16 + 8 + 16).
pub const CHECKPOINT_ELEMENT_BITS: usize = 60;
/// Maximum repetition count representable by one pattern element.
pub const MAX_PATTERN_REPS: u64 = u8::MAX as u64;
/// Maximum trace-counter value of one trace element.
pub const MAX_TRACE_COUNTER: u64 = u8::MAX as u64;

/// One pattern element: a branch-relative target offset and its repetitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PatternElement {
    /// Signed difference between the target PC and the branch PC (the
    /// paper's 12-bit δ).
    pub target_offset: i32,
    /// Number of consecutive repetitions of this target (8-bit).
    pub repetitions: u8,
}

impl PatternElement {
    /// Recovers the absolute target PC for a branch at `branch_pc`.
    pub fn target(&self, branch_pc: usize) -> usize {
        (branch_pc as i64 + i64::from(self.target_offset)) as usize
    }

    /// True if the offset fits the 12-bit signed field of Figure 4(a).
    pub fn offset_fits_hardware(&self) -> bool {
        (-2048..=2047).contains(&self.target_offset)
    }
}

/// One trace element referencing a pattern from the pattern set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceElement {
    /// Index of the pattern's first element in the branch's pattern set
    /// (4-bit in hardware, within the streamed window).
    pub pattern_index: u32,
    /// Number of pattern elements forming the pattern (4-bit in hardware).
    pub pattern_size: u32,
    /// Total branch executions covered by one iteration of the pattern
    /// (sum of the repetitions of its elements, 16-bit).
    pub pattern_counter: u16,
    /// Number of times the pattern repeats before advancing to the next
    /// trace element (8-bit).
    pub trace_counter: u8,
    /// End-of-Trace marker (§5.2): when the last element carries it, the
    /// trace restarts from the beginning.
    pub end_of_trace: bool,
}

impl TraceElement {
    /// Total branch executions this trace element covers.
    pub fn executions(&self) -> u64 {
        u64::from(self.pattern_counter) * u64::from(self.trace_counter)
    }
}

/// The committed position of a branch inside its trace (Figure 4(c)).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CheckpointElement {
    /// Index of the trace element the execution must resume from.
    pub trace_index: u32,
    /// Remaining pattern-counter value of that element.
    pub latest_pattern_counter: u16,
    /// Remaining trace-counter value of that element.
    pub latest_trace_counter: u8,
    /// The element's original pattern counter (to refresh rotated entries).
    pub original_pattern_counter: u16,
    /// The element's original trace counter.
    pub original_trace_counter: u8,
}

/// Storage accounting for one BTU entry (pattern + trace + checkpoint), in
/// bits. Used by the power/area model.
pub fn entry_storage_bits() -> usize {
    ELEMENTS_PER_ENTRY * PATTERN_ELEMENT_BITS
        + ELEMENTS_PER_ENTRY * TRACE_ELEMENT_BITS
        + CHECKPOINT_ELEMENT_BITS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_element_target_roundtrip() {
        let e = PatternElement {
            target_offset: -3,
            repetitions: 7,
        };
        assert_eq!(e.target(10), 7);
        assert!(e.offset_fits_hardware());
        let far = PatternElement {
            target_offset: 5000,
            repetitions: 1,
        };
        assert!(!far.offset_fits_hardware());
    }

    #[test]
    fn trace_element_execution_count() {
        let t = TraceElement {
            pattern_index: 0,
            pattern_size: 2,
            pattern_counter: 5,
            trace_counter: 3,
            end_of_trace: false,
        };
        assert_eq!(t.executions(), 15);
    }

    #[test]
    fn entry_storage_matches_paper_budget() {
        // 16 entries of (16 patterns + 16 trace elements + checkpoint) should
        // be in the vicinity of the paper's 1.74 KiB BTU.
        let total_bits = 16 * entry_storage_bits();
        let kib = total_bits as f64 / 8.0 / 1024.0;
        assert!(kib > 1.0 && kib < 2.5, "BTU storage is {kib:.2} KiB");
    }
}

//! Vanilla traces: run-length encoding of raw branch traces (step 2 of the
//! paper's Figure 1).

use crate::collect::RawTrace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// One element of a vanilla trace: a branch target and the number of
/// consecutive repetitions (`PC × count` in the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VanillaElement {
    /// The branch target (next PC).
    pub target: usize,
    /// How many consecutive times this target was observed.
    pub count: u64,
}

impl fmt::Display for VanillaElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PC{}×{}", self.target, self.count)
    }
}

/// The run-length-encoded trace of one static branch.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VanillaTrace {
    /// The RLE elements in order.
    pub elements: Vec<VanillaElement>,
}

impl VanillaTrace {
    /// Builds a vanilla trace from a raw trace by run-length encoding.
    pub fn from_raw(raw: &RawTrace) -> Self {
        Self::from_targets(&raw.targets)
    }

    /// Builds a vanilla trace from a plain target sequence.
    pub fn from_targets(targets: &[usize]) -> Self {
        let mut elements: Vec<VanillaElement> = Vec::new();
        for &t in targets {
            match elements.last_mut() {
                Some(last) if last.target == t => last.count += 1,
                _ => elements.push(VanillaElement {
                    target: t,
                    count: 1,
                }),
            }
        }
        VanillaTrace { elements }
    }

    /// Number of RLE elements (the paper's "vanilla trace size").
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True if the branch never executed.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Total number of dynamic branch executions represented.
    pub fn dynamic_count(&self) -> u64 {
        self.elements.iter().map(|e| e.count).sum()
    }

    /// The set of distinct targets in the trace.
    pub fn distinct_targets(&self) -> Vec<usize> {
        let mut t: Vec<usize> = self.elements.iter().map(|e| e.target).collect();
        t.sort_unstable();
        t.dedup();
        t
    }

    /// True if every dynamic execution went to the same single target.
    pub fn is_single_target(&self) -> bool {
        self.distinct_targets().len() <= 1
    }

    /// Expands back to the raw target sequence (used by tests to check the
    /// encoding is lossless).
    pub fn expand(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for e in &self.elements {
            out.extend(std::iter::repeat_n(e.target, e.count as usize));
        }
        out
    }
}

impl fmt::Display for VanillaTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.elements.iter().map(|e| e.to_string()).collect();
        write!(f, "{}", parts.join(" · "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_of_loop_trace() {
        // The paper's example: PC1 PC1 PC1 PC1 PC0 → PC1×4 · PC0×1
        let v = VanillaTrace::from_targets(&[1, 1, 1, 1, 0]);
        assert_eq!(
            v.elements,
            vec![
                VanillaElement {
                    target: 1,
                    count: 4
                },
                VanillaElement {
                    target: 0,
                    count: 1
                }
            ]
        );
        assert_eq!(v.len(), 2);
        assert_eq!(v.dynamic_count(), 5);
        assert_eq!(v.to_string(), "PC1×4 · PC0×1");
    }

    #[test]
    fn expansion_is_lossless() {
        let targets = vec![3, 3, 7, 7, 7, 3, 9, 9, 9, 9];
        let v = VanillaTrace::from_targets(&targets);
        assert_eq!(v.expand(), targets);
    }

    #[test]
    fn single_target_detection() {
        assert!(VanillaTrace::from_targets(&[5, 5, 5]).is_single_target());
        assert!(!VanillaTrace::from_targets(&[5, 6]).is_single_target());
        assert!(VanillaTrace::from_targets(&[]).is_single_target());
    }

    #[test]
    fn distinct_targets_sorted() {
        let v = VanillaTrace::from_targets(&[9, 2, 9, 4, 2]);
        assert_eq!(v.distinct_targets(), vec![2, 4, 9]);
    }
}

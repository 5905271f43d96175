//! Branch Prediction Unit: PHT (conditional direction), BTB (indirect
//! targets) and RSB (return targets), the three speculation primitives the
//! paper attacks and Cassandra bypasses for crypto code.
//!
//! The direction predictor is a gshare-style global-history predictor
//! standing in for the LTAGE predictor of the paper's Table 3: what matters
//! for the evaluation is that easily-predictable crypto loop branches are
//! mostly predicted correctly and that mispredictions cost squashes — both
//! properties hold for gshare.

use cassandra_isa::instr::BranchKind;
use serde::{Deserialize, Serialize};

/// `Some(n - 1)` when `n` is a power of two — a modulo-by-mask shortcut.
fn mask_of(n: usize) -> Option<usize> {
    n.is_power_of_two().then(|| n - 1)
}

/// Statistics of BPU usage (also feeds the power model).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BpuStats {
    /// Direction predictions made.
    pub pht_lookups: u64,
    /// Target predictions made (BTB).
    pub btb_lookups: u64,
    /// Return-address predictions made (RSB).
    pub rsb_lookups: u64,
    /// Predictor updates.
    pub updates: u64,
}

/// The branch prediction unit.
#[derive(Debug, Clone)]
pub struct BranchPredictionUnit {
    pht: Vec<u8>,
    /// `pht.len() - 1` when the PHT size is a power of two (the configured
    /// geometry), so indexing is a mask, not a hardware division.
    pht_mask: Option<usize>,
    global_history: u64,
    btb: Vec<Option<(usize, usize)>>,
    /// As `pht_mask`, for the BTB.
    btb_mask: Option<usize>,
    rsb: Vec<usize>,
    rsb_capacity: usize,
    stats: BpuStats,
}

/// A predicted outcome for a fetched branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prediction {
    /// The predicted next PC, if the BPU can produce one.
    pub target: Option<usize>,
    /// For conditional branches, the predicted direction.
    pub taken: bool,
}

impl BranchPredictionUnit {
    /// Creates a predictor with the given table sizes.
    pub fn new(pht_entries: usize, btb_entries: usize, rsb_entries: usize) -> Self {
        BranchPredictionUnit {
            // Initialise to weakly taken: loop back-edges start out predicted
            // taken, and never-taken "guard" branches mispredict on first
            // encounter — the classic Spectre training state.
            pht: vec![2u8; pht_entries.max(1)],
            pht_mask: mask_of(pht_entries.max(1)),
            global_history: 0,
            btb: vec![None; btb_entries.max(1)],
            btb_mask: mask_of(btb_entries.max(1)),
            rsb: Vec::new(),
            rsb_capacity: rsb_entries.max(1),
            stats: BpuStats::default(),
        }
    }

    /// A fresh, untrained predictor with the same table geometry.
    pub fn fresh_like(&self) -> Self {
        Self::new(self.pht.len(), self.btb.len(), self.rsb_capacity)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> BpuStats {
        self.stats
    }

    #[inline]
    fn pht_index(&self, pc: usize) -> usize {
        let hashed = ((pc as u64) ^ self.global_history) as usize;
        match self.pht_mask {
            Some(mask) => hashed & mask,
            None => hashed % self.pht.len(),
        }
    }

    #[inline]
    fn btb_index(&self, pc: usize) -> usize {
        match self.btb_mask {
            Some(mask) => pc & mask,
            None => pc % self.btb.len(),
        }
    }

    /// Predicts the outcome of a branch at `pc` with fall-through
    /// `fallthrough` and (for direct branches) static target `direct_target`.
    #[inline]
    pub fn predict(
        &mut self,
        pc: usize,
        kind: BranchKind,
        direct_target: Option<usize>,
        fallthrough: usize,
    ) -> Prediction {
        match kind {
            BranchKind::CondDirect => {
                self.stats.pht_lookups += 1;
                let taken = self.pht[self.pht_index(pc)] >= 2;
                let target = if taken {
                    direct_target
                } else {
                    Some(fallthrough)
                };
                Prediction { target, taken }
            }
            BranchKind::UncondDirect | BranchKind::Call => {
                // Direct targets are known at decode; calls also push the RSB.
                if kind == BranchKind::Call {
                    self.push_return(fallthrough);
                }
                Prediction {
                    target: direct_target,
                    taken: true,
                }
            }
            BranchKind::Indirect | BranchKind::CallIndirect => {
                self.stats.btb_lookups += 1;
                let entry = self.btb[self.btb_index(pc)];
                let target = entry.and_then(|(tag, t)| if tag == pc { Some(t) } else { None });
                if kind == BranchKind::CallIndirect {
                    self.push_return(fallthrough);
                }
                Prediction {
                    target,
                    taken: true,
                }
            }
            BranchKind::Return => {
                self.stats.rsb_lookups += 1;
                let target = self.rsb.pop();
                Prediction {
                    target,
                    taken: true,
                }
            }
        }
    }

    /// Updates the predictor with the resolved outcome of a branch.
    #[inline]
    pub fn update(&mut self, pc: usize, kind: BranchKind, taken: bool, target: usize) {
        self.stats.updates += 1;
        match kind {
            BranchKind::CondDirect => {
                let idx = self.pht_index(pc);
                let counter = &mut self.pht[idx];
                if taken {
                    *counter = (*counter + 1).min(3);
                } else {
                    *counter = counter.saturating_sub(1);
                }
                self.global_history = (self.global_history << 1) | u64::from(taken);
            }
            BranchKind::Indirect | BranchKind::CallIndirect => {
                let idx = self.btb_index(pc);
                self.btb[idx] = Some((pc, target));
            }
            _ => {}
        }
    }

    fn push_return(&mut self, return_pc: usize) {
        if self.rsb.len() == self.rsb_capacity {
            self.rsb.remove(0);
        }
        self.rsb.push(return_pc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bpu() -> BranchPredictionUnit {
        BranchPredictionUnit::new(1024, 64, 8)
    }

    #[test]
    fn loop_branch_learns_taken() {
        let mut b = bpu();
        // Train: taken many times.
        for _ in 0..8 {
            let p = b.predict(10, BranchKind::CondDirect, Some(2), 11);
            b.update(10, BranchKind::CondDirect, true, 2);
            let _ = p;
        }
        let p = b.predict(10, BranchKind::CondDirect, Some(2), 11);
        assert!(p.taken);
        assert_eq!(p.target, Some(2));
    }

    #[test]
    fn never_taken_branch_mispredicts_first_then_learns() {
        let mut b = bpu();
        let first = b.predict(20, BranchKind::CondDirect, Some(99), 21);
        assert!(first.taken, "weakly-taken initial state");
        b.update(20, BranchKind::CondDirect, false, 21);
        b.update(20, BranchKind::CondDirect, false, 21);
        let later = b.predict(20, BranchKind::CondDirect, Some(99), 21);
        assert!(!later.taken);
        assert_eq!(later.target, Some(21));
    }

    #[test]
    fn btb_caches_indirect_targets() {
        let mut b = bpu();
        assert_eq!(b.predict(5, BranchKind::Indirect, None, 6).target, None);
        b.update(5, BranchKind::Indirect, true, 77);
        assert_eq!(b.predict(5, BranchKind::Indirect, None, 6).target, Some(77));
    }

    #[test]
    fn rsb_predicts_matching_returns() {
        let mut b = bpu();
        b.predict(3, BranchKind::Call, Some(50), 4);
        b.predict(60, BranchKind::Call, Some(80), 61);
        assert_eq!(b.predict(81, BranchKind::Return, None, 82).target, Some(61));
        assert_eq!(b.predict(51, BranchKind::Return, None, 52).target, Some(4));
        assert_eq!(
            b.predict(51, BranchKind::Return, None, 52).target,
            None,
            "underflow"
        );
    }

    #[test]
    fn rsb_overflow_drops_oldest() {
        let mut b = BranchPredictionUnit::new(16, 16, 2);
        b.predict(1, BranchKind::Call, Some(100), 2);
        b.predict(3, BranchKind::Call, Some(100), 4);
        b.predict(5, BranchKind::Call, Some(100), 6);
        assert_eq!(b.predict(0, BranchKind::Return, None, 1).target, Some(6));
        assert_eq!(b.predict(0, BranchKind::Return, None, 1).target, Some(4));
        assert_eq!(b.predict(0, BranchKind::Return, None, 1).target, None);
    }

    #[test]
    fn stats_count_lookups() {
        let mut b = bpu();
        b.predict(1, BranchKind::CondDirect, Some(5), 2);
        b.predict(2, BranchKind::Indirect, None, 3);
        b.predict(3, BranchKind::Return, None, 4);
        let s = b.stats();
        assert_eq!(s.pht_lookups, 1);
        assert_eq!(s.btb_lookups, 1);
        assert_eq!(s.rsb_lookups, 1);
    }
}

//! The defense-policy layer.
//!
//! A [`DefensePolicy`] is the structured, mechanism-level description of a
//! secure-speculation design: which [frontend](FrontendKind) steers fetch at
//! branches, whether store-to-load forwarding is allowed, and which
//! execution-delay rules apply to speculative instructions. The pipeline
//! resolves a [`crate::config::DefenseMode`] into a policy **once** at
//! `Simulator::new` and never matches on the mode again — adding a new
//! defense scenario means describing it as a policy value, not editing the
//! pipeline core.

use serde::{Deserialize, Serialize};

/// Which decision the [`crate::frontend::Frontend`] makes at each fetched
/// branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrontendKind {
    /// The branch prediction unit (PHT/BTB/RSB) predicts every branch.
    Bpu,
    /// Crypto branches are replayed from the Branch Trace Unit; non-crypto
    /// branches use the BPU guarded by the crypto-range integrity check.
    Btu,
    /// Only single-target crypto hints are honoured; multi-target crypto
    /// branches stall fetch until they resolve (Cassandra-lite, Q3).
    BtuLite,
    /// Serializing baseline: every branch stalls fetch until it resolves.
    /// The classic speculation-free lower bound.
    Fence,
    /// Hybrid tournament: per-PC confidence counters arbitrate each crypto
    /// branch between BTU replay (hot branches that earned a trace) and the
    /// speculative BPU (cold branches); non-crypto branches use the guarded
    /// BPU as under Cassandra.
    Tournament,
}

impl FrontendKind {
    /// True if this frontend consumes BTU traces / hints for crypto branches.
    pub fn uses_btu(self) -> bool {
        matches!(
            self,
            FrontendKind::Btu | FrontendKind::BtuLite | FrontendKind::Tournament
        )
    }
}

/// How the execution core treats speculative instructions under a defense.
///
/// The pipeline consults only this value (resolved once from the configured
/// [`crate::config::DefenseMode`]); the flag methods on `DefenseMode` are
/// thin views over it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DefensePolicy {
    /// The decision steering fetch at branches.
    pub frontend: FrontendKind,
    /// Whether loads may forward from older in-flight stores. Disabled by
    /// the data-flow protection of Cassandra+STL.
    pub stl_forwarding: bool,
    /// SPT-style rule: transmitters (loads and branches) may not execute
    /// while speculative, and never execute on the wrong path.
    pub delay_transmitters: bool,
    /// ProSpeCT-style rule: instructions with tainted (secret-derived)
    /// operands may not execute while speculative.
    pub block_tainted: bool,
}

impl DefensePolicy {
    /// The unprotected out-of-order baseline: BPU everywhere, forwarding on,
    /// nothing delayed.
    pub const fn baseline() -> Self {
        DefensePolicy {
            frontend: FrontendKind::Bpu,
            stl_forwarding: true,
            delay_transmitters: false,
            block_tainted: false,
        }
    }

    /// The same policy with a different frontend.
    #[must_use]
    pub const fn with_frontend(mut self, frontend: FrontendKind) -> Self {
        self.frontend = frontend;
        self
    }

    /// The same policy with store-to-load forwarding disabled.
    #[must_use]
    pub const fn without_stl_forwarding(mut self) -> Self {
        self.stl_forwarding = false;
        self
    }

    /// The same policy with the SPT transmitter-delay rule enabled.
    #[must_use]
    pub const fn delaying_transmitters(mut self) -> Self {
        self.delay_transmitters = true;
        self
    }

    /// The same policy with the ProSpeCT taint-blocking rule enabled.
    #[must_use]
    pub const fn blocking_tainted(mut self) -> Self {
        self.block_tainted = true;
        self
    }
}

impl Default for DefensePolicy {
    fn default() -> Self {
        Self::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_policy_is_permissive() {
        let p = DefensePolicy::baseline();
        assert_eq!(p.frontend, FrontendKind::Bpu);
        assert!(p.stl_forwarding);
        assert!(!p.delay_transmitters);
        assert!(!p.block_tainted);
    }

    #[test]
    fn builders_compose() {
        let p = DefensePolicy::baseline()
            .with_frontend(FrontendKind::Btu)
            .without_stl_forwarding()
            .blocking_tainted();
        assert_eq!(p.frontend, FrontendKind::Btu);
        assert!(!p.stl_forwarding);
        assert!(p.block_tainted);
        assert!(!p.delay_transmitters);
    }

    #[test]
    fn frontend_btu_usage() {
        assert!(FrontendKind::Btu.uses_btu());
        assert!(FrontendKind::BtuLite.uses_btu());
        assert!(FrontendKind::Tournament.uses_btu());
        assert!(!FrontendKind::Bpu.uses_btu());
        assert!(!FrontendKind::Fence.uses_btu());
    }
}

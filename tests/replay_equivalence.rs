//! Replay equivalence of the stored analysis form on real programs.
//!
//! An analysis store keeps each program's traces only in their flat BTU
//! encoding. For the paper's 21 programs and the store-footprint sample,
//! every multi-target branch must replay from that form — by expansion
//! and through Branch Trace Unit lookups — exactly the target sequence of
//! its vanilla trace, and every analyzed branch's hint must equal the
//! Algorithm 2 hint.

mod common;

use cassandra::btu::encode::EncodedTraces;
use cassandra::btu::unit::{BranchTraceUnit, BtuConfig};
use cassandra::kernels::suite;
use cassandra::trace::genproc::generate_traces;
use std::sync::Arc;

#[test]
fn stored_traces_replay_every_vanilla_trace_and_hint() {
    let mut workloads = suite::full_suite();
    assert_eq!(workloads.len(), 21);
    workloads.extend(common::submit_sample());
    for w in &workloads {
        let kernel = &w.kernel;
        let bundle = generate_traces(&kernel.program, None, kernel.step_limit)
            .unwrap_or_else(|e| panic!("{}: {e:?}", w.name));
        let encoded = Arc::new(EncodedTraces::from_bundle(&kernel.program, &bundle));

        let hints: Vec<_> = encoded.hints().collect();
        let want: Vec<_> = bundle.hints.hints.iter().map(|(&pc, &h)| (pc, h)).collect();
        assert_eq!(hints, want, "{}: hints", w.name);
        for &(pc, hint) in &want {
            assert_eq!(encoded.hint(pc), Some(hint), "{} @{pc}", w.name);
        }

        // One BTU with enough Trace Cache ways that no branch is evicted;
        // replay is exact either way, this only keeps the run short.
        let config = BtuConfig {
            entries: bundle.branches.len().max(1),
            ..BtuConfig::default()
        };
        let mut btu = BranchTraceUnit::new(config, Arc::clone(&encoded));
        for (&pc, data) in &bundle.branches {
            let targets = data.vanilla.expand();
            let trace = encoded
                .trace(pc)
                .unwrap_or_else(|| panic!("{} @{pc}: no stored trace", w.name));
            assert_eq!(trace.expand_targets(), targets, "{} @{pc}", w.name);
            for (i, &target) in targets.iter().enumerate() {
                let lookup = btu.fetch_lookup(pc);
                assert_eq!(lookup.next_pc, Some(target), "{} @{pc} #{i}", w.name);
                btu.commit_branch(pc);
            }
            // End of trace: the replay wraps to the start.
            assert_eq!(btu.fetch_lookup(pc).next_pc, targets.first().copied());
        }
    }
}

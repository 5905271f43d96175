//! Spectre demonstration: the transient register-leak gadget of the paper's
//! Figure 5(a) leaks a secret on the unsafe baseline and is blocked by
//! Cassandra.
//!
//! Run with `cargo run --release --example spectre_demo`. Pass defense
//! labels (e.g. `Cassandra-lite Fence`) to compare other designs, or `all`
//! for every modelled defense — labels are parsed with
//! `DefenseMode::from_str`, so nothing here hard-codes the variant list.

use cassandra::core::security::observe_with;
use cassandra::kernels::gadgets::{scenario, BranchSite, LeakGadget};
use cassandra::prelude::*;

fn transient_trace(ex: &SweepExecutor<'_>, defense: DefenseMode, secret: u64) -> Vec<u64> {
    let gadget = scenario(BranchSite::Crypto, LeakGadget::CryptoRegister, secret);
    let cfg = CpuConfig::golden_cove_like().with_defense(defense);
    let obs = observe_with(ex, &gadget.program, &cfg).expect("simulation succeeds");
    obs.transient_accesses().to_vec()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let defenses: Vec<DefenseMode> = if args.iter().any(|a| a == "all") {
        DefenseMode::ALL.to_vec()
    } else if args.is_empty() {
        vec![DefenseMode::UnsafeBaseline, DefenseMode::Cassandra]
    } else {
        args.iter()
            .map(|a| a.parse::<DefenseMode>())
            .collect::<Result<_, _>>()?
    };

    println!("Transient register leak (Figure 5a): the branch is never taken");
    println!("architecturally, but its taken path leaks a secret register.\n");

    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    for defense in defenses {
        let t0 = transient_trace(&ex, defense, 0x0000_0000_0000_0000);
        let t1 = transient_trace(&ex, defense, 0xffff_ffff_ffff_ffff);
        println!("--- {} ---", defense.label());
        println!("transient accesses with secret bit 0: {t0:x?}");
        println!("transient accesses with secret bit 1: {t1:x?}");
        if t0 == t1 {
            println!("=> no secret-dependent transient activity: PROTECTED\n");
        } else {
            println!("=> the attacker-visible cache footprint depends on the secret: LEAK\n");
        }
    }
    Ok(())
}

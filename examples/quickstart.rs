//! Quickstart: analyze a constant-time kernel and compare the unsafe
//! baseline against a Cassandra-enabled processor.
//!
//! Run with `cargo run --release --example quickstart`.

use cassandra::kernels::suite;
use cassandra::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pick a workload: BearSSL-style ChaCha20 over 256 bytes.
    let workload = suite::chacha20_workload(256);
    println!("workload: {workload}");
    println!(
        "kernel: {} instructions, {} static crypto branches",
        workload.kernel.program.len(),
        workload.kernel.program.crypto_branches().len()
    );

    // 2. Run the paper's Algorithm 2: collect, compress and encode the
    //    sequential branch traces. The store caches the result, so the
    //    simulations below reuse it.
    let store = AnalysisStore::new();
    let kernel = &workload.kernel;
    let (analysis, _) = store.entry(&kernel.program, kernel.step_limit)?;
    println!(
        "branch analysis: {} branches analyzed ({} single-target, {} with compressed traces)",
        analysis.analyzed_branches(),
        analysis.encoded.single_target_count(),
        analysis.encoded.multi_target_count(),
    );
    for branch in analysis.encoded.trace_sizes() {
        println!(
            "  branch @{}: vanilla {} elements -> k-mers {} elements",
            branch.pc, branch.vanilla_len, branch.kmers_size
        );
    }

    // 3. Simulate the unsafe baseline and Cassandra.
    let ex = SweepExecutor::new(&store);
    let base_cfg = CpuConfig::golden_cove_like();
    let baseline = ex.simulate(&workload, &base_cfg)?;
    let cassandra = ex.simulate(&workload, &base_cfg.with_defense(DefenseMode::Cassandra))?;

    println!("\n                         baseline      cassandra");
    println!(
        "cycles                 {:>10}    {:>10}",
        baseline.stats.cycles, cassandra.stats.cycles
    );
    println!(
        "IPC                    {:>10.3}    {:>10.3}",
        baseline.stats.ipc(),
        cassandra.stats.ipc()
    );
    println!(
        "branch mispredictions  {:>10}    {:>10}",
        baseline.stats.mispredictions, cassandra.stats.mispredictions
    );
    println!(
        "squashed instructions  {:>10}    {:>10}",
        baseline.stats.squashed_instructions, cassandra.stats.squashed_instructions
    );
    let speedup = (1.0 - cassandra.stats.cycles as f64 / baseline.stats.cycles as f64) * 100.0;
    println!("\nCassandra speedup on this kernel: {speedup:+.2}%");
    Ok(())
}

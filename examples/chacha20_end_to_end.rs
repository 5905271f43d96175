//! End-to-end ChaCha20: encrypt a message with the ISA kernel on the
//! simulated processor, check it against the pure-Rust reference, and show
//! the branch-trace compression the kernel's control flow admits.
//!
//! Run with `cargo run --release --example chacha20_end_to_end`.

use cassandra::core::eval::simulate_program;
use cassandra::kernels::kernel::chacha20;
use cassandra::kernels::reference::chacha20 as reference;
use cassandra::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
    let nonce = [1u8; 12];
    let message =
        b"Cassandra replays the sequential control flow of constant-time code!...........";
    // Pad to a whole number of 64-byte blocks, as the kernel expects.
    let mut padded = message.to_vec();
    padded.resize(padded.len().div_ceil(64) * 64, 0);

    // Build and functionally execute the kernel.
    let kernel = chacha20::build(&key, 1, &nonce, &padded);
    let ciphertext = kernel.run_functional()?;
    let expected = reference::encrypt(&key, 1, &nonce, &padded);
    assert_eq!(ciphertext, expected, "kernel must match the RFC reference");
    println!("ciphertext (first 32 bytes): {:02x?}", &ciphertext[..32]);

    // Analyze its branches and inspect the compression.
    let analysis = AnalysisBundle::analyze(&kernel.program, kernel.step_limit)?;
    println!("\nper-branch trace compression:");
    for branch in analysis.encoded.trace_sizes() {
        println!(
            "  branch @{:<4} vanilla {:>5} elements   k-mers {:>3} elements   ({}x)",
            branch.pc,
            branch.vanilla_len,
            branch.kmers_size,
            branch.vanilla_len / branch.kmers_size.max(1)
        );
    }

    // Run it on the Cassandra processor model and decrypt on the reference
    // side to close the loop.
    let cfg = CpuConfig::golden_cove_like().with_defense(DefenseMode::Cassandra);
    let outcome = simulate_program(&kernel.program, Some(&analysis), &cfg)?;
    println!(
        "\nsimulated on Cassandra: {} cycles, IPC {:.2}, {} crypto branches replayed, 0 mispredictions ({} observed)",
        outcome.stats.cycles,
        outcome.stats.ipc(),
        outcome.stats.committed_crypto_branches,
        outcome.stats.mispredictions
    );
    let decrypted = reference::encrypt(&key, 1, &nonce, &ciphertext);
    assert_eq!(&decrypted[..message.len()], message);
    println!(
        "round-trip decryption OK: {:?}",
        String::from_utf8_lossy(&decrypted[..message.len()])
    );
    Ok(())
}

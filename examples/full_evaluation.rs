//! Regenerates the paper's evaluation tables and figures through the
//! `Experiment` enum, and fronts the long-running evaluation service.
//!
//! Usage:
//!
//! ```text
//! cargo run --release --example full_evaluation -- \
//!     [EXPERIMENT] [--format text|csv|json] [--designs LABEL,LABEL,...] [--adaptive]
//! cargo run --release --example full_evaluation -- \
//!     serve [--addr HOST:PORT] [--threads N] [--cache-file PATH] [--smoke]
//! cargo run --release --example full_evaluation -- \
//!     connect [--addr HOST:PORT] [REQUEST-JSON ...]
//! ```
//!
//! `EXPERIMENT` is an experiment name (`table1`, `fig7`, `fig8`, `fig9`,
//! `q3`, `q4`, `security`, `tracegen`, `lint`, `consolidation`, `frontier`,
//! `sweep`),
//! `all` (every experiment on the full 21-workload suite — takes a few
//! minutes in release mode), or nothing for a quick subset. All experiments
//! run on one executor over one analysis store, so each workload's
//! Algorithm-2 analysis runs exactly once. `lint` renders the static
//! constant-time/speculative-leakage verdict table without running a
//! single simulation; `--smoke` with a named experiment swaps in the quick
//! workload subset (CI runs `lint --smoke` and `frontier --smoke`). The
//! same verdicts are served over the wire via the protocol's `Lint` request
//! (`connect '{"Lint":{"workloads":[]}}'`). `frontier` computes the
//! performance × security Pareto frontier of the standard design grid;
//! `--adaptive` switches it from the exhaustive sweep to the
//! successive-halving search (full-suite simulation only for cells
//! surviving the smoke rung).
//!
//! `--designs` selects the `sweep` experiment's design matrix by defense
//! label (e.g. `--designs UnsafeBaseline,Fence,Tournament,Cassandra-part`);
//! the labels are parsed with `DefenseMode::from_str`, and the default
//! matrix enumerates the standard policy registry — no variant is
//! hand-listed here, so the tournament and partitioned-BTU design points
//! flow through the sweep (and the security experiment, which enumerates
//! the same registry) with zero edits to this file.
//! `q4` reports the context-switch cost priced both as whole-BTU flushes
//! and as partition reassignments on the way-partitioned BTU.
//!
//! `serve` runs the evaluation service (see `docs/PROTOCOL.md`): one
//! long-lived session whose memoized analyses are shared across every
//! client request, with tagged requests pipelined — even two sweeps on
//! one connection interleave their streams (protocol v5). `--threads`
//! sizes the shared request worker pool; when omitted it is auto-sized
//! from `std::thread::available_parallelism` and the choice is logged at
//! startup. `--cache-file PATH` journals the analysis store: replayed on
//! boot, appended as analyses complete (so a crash keeps the warm state),
//! compacted on a clean client `Shutdown`, after which the server prints
//! how many analyses its store holds (the count the next boot replays).
//! `--smoke` instead runs a
//! self-contained concurrent round trip (spawn on an ephemeral port, two
//! overlapping tagged sweeps multiplexed on ONE connection while a second
//! connection pings mid-sweep, a check that the grid's cells left the
//! session's policy set standard, a static Lint of the submitted workloads,
//! a `consolidation` Experiment and a streamed `frontier` search over the
//! wire, clean shutdown) — CI uses it. `connect` sends newline-delimited
//! JSON requests (from the command line or stdin) and prints each
//! response line.

use cassandra::core::experiments::quick_workloads;
use cassandra::kernels::suite;
use cassandra::prelude::*;
use cassandra::server::{
    default_worker_threads, serve, Client, EvalService, GridSpec, Request, Response, WorkloadSpec,
};

const DEFAULT_ADDR: &str = "127.0.0.1:9417";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format = ReportFormat::Text;
    let mut designs: Option<Vec<DesignPoint>> = None;
    let mut addr = DEFAULT_ADDR.to_string();
    let mut threads: Option<usize> = None;
    let mut smoke = false;
    let mut adaptive = false;
    let mut cache_file: Option<String> = None;
    let mut positional: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--format" {
            format = match iter.next().map(String::as_str) {
                Some("csv") => ReportFormat::Csv,
                Some("json") => ReportFormat::Json,
                Some("text") => ReportFormat::Text,
                Some(other) => {
                    return Err(
                        format!("unknown format `{other}`; expected text, csv or json").into(),
                    )
                }
                None => return Err("--format requires a value (text, csv or json)".into()),
            };
        } else if arg == "--designs" {
            let spec = iter
                .next()
                .ok_or("--designs requires a comma-separated list of defense labels")?;
            designs = Some(
                spec.split(',')
                    .map(|label| label.trim().parse().map(DesignPoint::from_defense))
                    .collect::<Result<_, _>>()?,
            );
        } else if arg == "--addr" {
            addr = iter
                .next()
                .ok_or("--addr requires a HOST:PORT value")?
                .clone();
        } else if arg == "--threads" {
            threads = Some(
                iter.next()
                    .ok_or("--threads requires a worker count")?
                    .parse()?,
            );
        } else if arg == "--smoke" {
            smoke = true;
        } else if arg == "--adaptive" {
            adaptive = true;
        } else if arg == "--cache-file" {
            cache_file = Some(
                iter.next()
                    .ok_or("--cache-file requires a snapshot path")?
                    .clone(),
            );
        } else {
            positional.push(arg.clone());
        }
    }
    let experiment = positional
        .first()
        .cloned()
        .unwrap_or_else(|| "quick".to_string());

    match experiment.as_str() {
        "serve" => return run_server(&addr, threads, smoke, cache_file.as_deref()),
        "connect" => return run_client(&addr, &positional[1..]),
        _ => {}
    }

    // The standard set plus the raw sweep, by default over every design
    // point of the standard policy registry. An override moves its
    // experiment to the end of the report.
    let mut experiments = Experiment::standard();
    let mut replace = |experiment: Experiment| {
        experiments.retain(|e| e.name() != experiment.name());
        experiments.push(experiment);
    };
    replace(Experiment::Sweep {
        designs: designs.unwrap_or_else(|| PolicyRegistry::standard().designs().to_vec()),
    });
    if adaptive {
        replace(Experiment::Frontier { adaptive: true });
    }
    if experiment != "quick" {
        replace(Experiment::Fig8 { scale: 20 });
    }
    if !matches!(experiment.as_str(), "quick" | "all") {
        let Some(found) = experiments.iter().position(|e| e.name() == experiment) else {
            let mut names: Vec<&str> = experiments.iter().map(Experiment::name).collect();
            names.push("all");
            return Err(format!(
                "unknown experiment `{experiment}`; available: {}",
                names.join(", ")
            )
            .into());
        };
        experiments = vec![experiments.swap_remove(found)];
    }
    // `--smoke` trades the paper-sized suite for the quick subset so CI can
    // exercise a single experiment end-to-end in seconds.
    let workloads = if experiment == "quick" || (smoke && experiment != "all") {
        quick_workloads()
    } else {
        suite::full_suite()
    };

    let store = AnalysisStore::new();
    let ex = SweepExecutor::new(&store);
    let runs = experiments
        .iter()
        .map(|experiment| experiment.run(&ex, &workloads))
        .collect::<Result<Vec<_>, _>>()?;
    for run in runs {
        println!("=== {} ===", run.title);
        println!("{}", report::render(&run.output, format)?);
    }
    let stats = store.stats();
    println!(
        "(analysis cache: {} distinct programs analyzed once, {} cache hits, {} requests)",
        stats.misses,
        stats.hits,
        stats.requests()
    );
    Ok(())
}

// ------------------------------------------------------ evaluation service

/// `serve`: run the evaluation service until a client sends `Shutdown` (or,
/// with `--smoke`, drive one concurrent loopback round trip and exit).
fn run_server(
    addr: &str,
    threads: Option<usize>,
    smoke: bool,
    cache_file: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let bind_addr = if smoke { "127.0.0.1:0" } else { addr };
    // `--threads` bounds concurrent heavy requests (the shared request
    // pool), not connections; absent, size it from the machine.
    let (threads, sized) = match threads {
        Some(n) => (n, "--threads"),
        None => (default_worker_threads(), "available_parallelism"),
    };
    let mut service = EvalService::new();
    if let Some(path) = cache_file {
        service = service.with_cache_file(path);
        println!(
            "analysis cache: replayed {} analyses from the {path} journal \
             (appended incrementally, compacted on clean Shutdown)",
            service.store().len()
        );
    }
    let store = std::sync::Arc::clone(service.store());
    let handle = serve(bind_addr, service, threads)?;
    println!(
        "cassandra-server listening on {} ({threads} workers via {sized}); \
         protocol: docs/PROTOCOL.md",
        handle.addr(),
    );
    if smoke {
        smoke_round_trip(handle.addr())?;
    }
    handle.join();
    println!(
        "server stopped; the analysis store holds {} analyses",
        store.len()
    );
    Ok(())
}

/// The CI smoke run: two overlapping id-tagged sweeps multiplexed on ONE
/// connection (protocol v3 pipelining) while a second connection pings
/// mid-sweep — asserting interleaved streams, the session's cache
/// metadata, a standard policy set after the grid, a static Lint of the submitted workloads, a `consolidation`
/// Experiment, a streamed `frontier` search, and a clean shutdown.
fn smoke_round_trip(addr: std::net::SocketAddr) -> Result<(), Box<dyn std::error::Error>> {
    use std::time::Instant;

    let mut sweeper = Client::connect(addr)?;
    sweeper.request(&Request::Submit {
        spec: WorkloadSpec::Kernel {
            family: "chacha20".to_string(),
            size: 4096,
            name: None,
        },
    })?;

    // Two overlapping tagged requests on the SAME connection: a 2 defenses
    // × 2 thresholds × 3 miss penalties = 12-cell grid (long enough that
    // the probes provably land mid-sweep) plus a short 2-policy sweep.
    // The server must interleave both streams instead of serializing them.
    sweeper.send_tagged(
        "smoke-grid",
        &Request::GridSweep {
            workloads: Vec::new(),
            grid: GridSpec {
                defenses: vec!["Cassandra".to_string(), "Tournament".to_string()],
                tournament_thresholds: vec![2, 8],
                btu_partitions: Vec::new(),
                btu_entries: Vec::new(),
                miss_penalties: vec![10, 20, 40],
                redirect_penalties: Vec::new(),
            },
        },
    )?;
    sweeper.send_tagged(
        "smoke-sweep",
        &Request::Sweep {
            workloads: Vec::new(),
            policies: vec!["UnsafeBaseline".to_string(), "Cassandra".to_string()],
        },
    )?;
    let drain = std::thread::spawn(move || -> std::io::Result<_> {
        let streams = sweeper.collect_multiplexed(&["smoke-grid", "smoke-sweep"])?;
        Ok((streams, Instant::now()))
    });

    // Second connection: short requests must complete while the sweeps
    // stream.
    let mut prober = Client::connect(addr)?;
    let pong = prober.request(&Request::Ping)?;
    if !matches!(pong[0], Response::Pong { .. }) {
        return Err(format!("smoke Ping failed: {pong:?}").into());
    }
    let pong_at = Instant::now();

    let (streams, done_at) = drain.join().expect("smoke drain thread")?;
    let grid_stream = &streams["smoke-grid"];
    let records = grid_stream
        .iter()
        .filter(|r| matches!(r, Response::Record(_)))
        .count();
    let Some(Response::Done(summary)) = grid_stream.last() else {
        return Err(format!("smoke GridSweep failed: {:?}", grid_stream.last()).into());
    };
    println!("{}", summary.report);
    println!(
        "smoke: {} records over {} designs, cache {:?}; ping answered mid-sweep: {}",
        summary.records,
        summary.designs.len(),
        summary.cache,
        pong_at < done_at,
    );
    if summary.records == 0 || records != summary.records {
        return Err("smoke GridSweep streamed no (or miscounted) records".into());
    }
    if pong_at >= done_at {
        return Err("smoke Ping did not complete before the sweeps' Done".into());
    }
    let Some(Response::Done(short_summary)) = streams["smoke-sweep"].last() else {
        return Err(format!(
            "smoke pipelined Sweep failed: {:?}",
            streams["smoke-sweep"].last()
        )
        .into());
    };
    if short_summary.records == 0 {
        return Err("smoke pipelined Sweep streamed no records".into());
    }
    println!(
        "smoke: pipelined second sweep on the same connection streamed {} records",
        short_summary.records
    );

    // The grid's cells lived only for its request: the session still
    // offers exactly the standard policies.
    let policies = prober.request(&Request::ListPolicies)?;
    let standard = PolicyRegistry::standard();
    let [Response::Policies { labels }] = policies.as_slice() else {
        return Err(format!("smoke ListPolicies failed: {policies:?}").into());
    };
    if !labels.iter().map(String::as_str).eq(standard.labels()) {
        return Err(format!("smoke GridSweep left policies behind: {labels:?}").into());
    }
    println!(
        "smoke: ListPolicies still answers the {} standard labels",
        labels.len()
    );

    // Static lint over every submitted workload: pure analysis, no
    // simulation, served from the same shared store.
    let lint = prober.request(&Request::Lint {
        workloads: Vec::new(),
    })?;
    let Some(Response::LintReport { rows, report }) = lint.last() else {
        return Err(format!("smoke Lint failed: {lint:?}").into());
    };
    println!("{report}");
    if rows.is_empty() {
        return Err("smoke Lint returned no rows".into());
    }

    // A registry experiment over the wire: the 4-tenant consolidation mix
    // on a small kernel, sharing the session's analysis store.
    prober.request(&Request::Submit {
        spec: WorkloadSpec::Kernel {
            family: "poly1305".to_string(),
            size: 64,
            name: Some("Poly1305_smoke".to_string()),
        },
    })?;
    let consolidation = prober.request(&Request::Experiment {
        name: "consolidation".to_string(),
        workloads: vec!["Poly1305_smoke".to_string()],
    })?;
    let Some(Response::Experiment { output, report, .. }) = consolidation.last() else {
        return Err(format!("smoke consolidation failed: {consolidation:?}").into());
    };
    println!("{report}");
    let cassandra::core::registry::ExperimentOutput::Consolidation(result) = output else {
        return Err("smoke consolidation returned the wrong output kind".into());
    };
    if result.policies.len() != 3 || result.policies.iter().any(|p| p.tenants.is_empty()) {
        return Err("smoke consolidation covered no tenants".into());
    }

    // The streamed frontier experiment over the wire: successive halving
    // over the standard grid, progress lines first, the Pareto set last.
    let frontier = prober.request(&Request::Experiment {
        name: "frontier".to_string(),
        workloads: vec!["Poly1305_smoke".to_string()],
    })?;
    let progress_lines = frontier
        .iter()
        .filter(|r| matches!(r, Response::Progress { .. }))
        .count();
    let Some(Response::Experiment { output, report, .. }) = frontier.last() else {
        return Err(format!("smoke frontier failed: {:?}", frontier.last()).into());
    };
    println!("{report}");
    let cassandra::core::registry::ExperimentOutput::Frontier(result) = output else {
        return Err("smoke frontier returned the wrong output kind".into());
    };
    if progress_lines == 0 || result.frontier.is_empty() || !result.adaptive {
        return Err("smoke frontier streamed no progress or found no Pareto set".into());
    }
    println!(
        "smoke: frontier streamed {progress_lines} progress lines, {} Pareto points",
        result.frontier.len()
    );

    prober.request(&Request::Shutdown)?;
    Ok(())
}

/// `connect`: send requests (command-line args, or stdin lines if none) to
/// a running server and print every response line.
fn run_client(addr: &str, requests: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut client = Client::connect(addr)?;
    let lines: Vec<String> = if requests.is_empty() {
        use std::io::BufRead;
        std::io::stdin().lock().lines().collect::<Result<_, _>>()?
    } else {
        requests.to_vec()
    };
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        for response in client.request_raw(&line)? {
            println!("{}", cassandra::server::protocol::encode(&response));
        }
    }
    Ok(())
}

//! `bench-runner` — the simulator-throughput CLI behind `BENCH_<pr>.json`.
//!
//! Four subcommands:
//!
//! * `run --suite smoke|paper [--out FILE]` — time the suite across the
//!   representative policies and emit one `Measurement` as JSON (stdout or
//!   `FILE`). Used to capture a PR's "before" numbers from its base commit.
//! * `emit --pr N --before-smoke FILE --before-paper FILE --out FILE` —
//!   re-run both suites now (the "after" numbers), merge them with the
//!   given "before" measurements and write the full trajectory document.
//! * `check --against FILE [--suite smoke] [--max-regression 0.25]` —
//!   validate the committed trajectory's schema, re-run the suite and fail
//!   (exit 1) if current throughput regressed more than the allowed
//!   fraction below the committed `after` cells/sec. This is the CI gate.
//! * `server [--clients 1,4,8] [--repeat N] [--before-addr HOST:PORT]
//!   [--out FILE]` — time end-to-end wire throughput against an in-process
//!   server at each client count; with `--before-addr` (an externally
//!   started pre-PR server binary) the rounds interleave before/after in
//!   the same wall-clock window and the output is a full
//!   `ServerSuiteTrajectory`, which `emit --server FILE` merges into the
//!   trajectory document. `check --suite server` re-drives the in-process
//!   server and gates on the committed after wire cells/sec at the highest
//!   client count.

use cassandra_bench::{
    guarded_speedup, measure_server_suite, measure_suite_best, validate_trajectory,
    BenchTrajectory, Measurement, ServerMeasurement, ServerSuiteTrajectory, SuiteTrajectory,
    REPRESENTATIVE_POLICIES, SERVER_SUITE_CLIENTS, TRAJECTORY_SCHEMA,
};
use std::process::ExitCode;

/// Best-of-N runs used everywhere a suite is timed (see
/// [`measure_suite_best`]); before/after and gate comparisons all use the
/// same procedure.
const DEFAULT_REPEATS: u32 = 3;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         bench-runner run --suite smoke|paper [--repeat N] [--out FILE]\n  \
         bench-runner emit --pr N --before-smoke FILE --before-paper FILE \
         [--server FILE] --out FILE\n  \
         bench-runner check --against FILE [--suite smoke|paper|server] \
         [--max-regression 0.25]\n  \
         bench-runner server [--clients 1,4,8] [--repeat N] \
         [--before-addr HOST:PORT] [--out FILE]"
    );
    std::process::exit(2);
}

/// Pulls the value of `flag` out of `args`, removing both tokens.
fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let idx = args.iter().position(|a| a == flag)?;
    if idx + 1 >= args.len() {
        eprintln!("missing value for {flag}");
        usage();
    }
    let value = args.remove(idx + 1);
    args.remove(idx);
    Some(value)
}

fn read_measurement(path: &str) -> Measurement {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read measurement `{path}`: {e}"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse measurement `{path}`: {e}"))
}

fn write_or_print(out: Option<&str>, text: &str) {
    match out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| panic!("cannot write `{path}`: {e}"));
            eprintln!("wrote {path}");
        }
        None => println!("{text}"),
    }
}

fn summarize(m: &Measurement) {
    eprintln!(
        "{}: {} cells in {:.3}s — {:.1} cells/s, {:.3e} sim cycles/s",
        m.suite, m.cells, m.wall_seconds, m.cells_per_sec, m.sim_cycles_per_sec
    );
    for p in &m.policies {
        eprintln!(
            "  {:<16} {:>8.1} cells/s  {:>12.3e} sim cycles/s",
            p.policy, p.cells_per_sec, p.sim_cycles_per_sec
        );
    }
}

fn cmd_run(mut args: Vec<String>) -> ExitCode {
    let suite = take_flag(&mut args, "--suite").unwrap_or_else(|| usage());
    let out = take_flag(&mut args, "--out");
    let repeats: u32 = take_flag(&mut args, "--repeat")
        .map(|v| v.parse().expect("--repeat takes a number"))
        .unwrap_or(DEFAULT_REPEATS);
    if !args.is_empty() {
        usage();
    }
    let m = measure_suite_best(&suite, repeats);
    summarize(&m);
    let text = serde_json::to_string(&m).expect("serializable measurement");
    write_or_print(out.as_deref(), &text);
    ExitCode::SUCCESS
}

fn cmd_emit(mut args: Vec<String>) -> ExitCode {
    let pr: u32 = take_flag(&mut args, "--pr")
        .unwrap_or_else(|| usage())
        .parse()
        .expect("--pr takes a number");
    let before_smoke =
        read_measurement(&take_flag(&mut args, "--before-smoke").unwrap_or_else(|| usage()));
    let before_paper =
        read_measurement(&take_flag(&mut args, "--before-paper").unwrap_or_else(|| usage()));
    let server: Option<ServerSuiteTrajectory> = take_flag(&mut args, "--server").map(|path| {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read server trajectory `{path}`: {e}"));
        serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("cannot parse server trajectory `{path}`: {e}"))
    });
    let out = take_flag(&mut args, "--out").unwrap_or_else(|| usage());
    if !args.is_empty() {
        usage();
    }

    let after_smoke = measure_suite_best("smoke", DEFAULT_REPEATS);
    summarize(&after_smoke);
    let after_paper = measure_suite_best("paper", DEFAULT_REPEATS);
    summarize(&after_paper);

    let trajectory = BenchTrajectory {
        schema: TRAJECTORY_SCHEMA.to_string(),
        pr,
        policies: REPRESENTATIVE_POLICIES
            .iter()
            .map(|s| s.to_string())
            .collect(),
        smoke: SuiteTrajectory {
            speedup_cells_per_sec: guarded_speedup(
                after_smoke.cells_per_sec,
                before_smoke.cells_per_sec,
            ),
            before: before_smoke,
            after: after_smoke,
        },
        paper: SuiteTrajectory {
            speedup_cells_per_sec: guarded_speedup(
                after_paper.cells_per_sec,
                before_paper.cells_per_sec,
            ),
            before: before_paper,
            after: after_paper,
        },
        server,
    };
    let problems = validate_trajectory(&trajectory);
    assert!(
        problems.is_empty(),
        "emitted trajectory invalid: {problems:?}"
    );
    eprintln!(
        "speedup: smoke ×{:.2}, paper ×{:.2}",
        trajectory.smoke.speedup_cells_per_sec, trajectory.paper.speedup_cells_per_sec
    );
    if let Some(server) = &trajectory.server {
        eprintln!(
            "server wire speedup: ×{:.2} single client, ×{:.2} at {} clients",
            server.speedup_single_client,
            server.speedup_max_clients,
            server.after.max_clients_run().map_or(0, |r| r.clients)
        );
    }
    let text = serde_json::to_string(&trajectory).expect("serializable trajectory");
    write_or_print(Some(&out), &text);
    ExitCode::SUCCESS
}

fn cmd_check(mut args: Vec<String>) -> ExitCode {
    let against = take_flag(&mut args, "--against").unwrap_or_else(|| usage());
    let suite = take_flag(&mut args, "--suite").unwrap_or_else(|| "smoke".to_string());
    let max_regression: f64 = take_flag(&mut args, "--max-regression")
        .unwrap_or_else(|| "0.25".to_string())
        .parse()
        .expect("--max-regression takes a fraction");
    if !args.is_empty() {
        usage();
    }

    let text = std::fs::read_to_string(&against)
        .unwrap_or_else(|e| panic!("cannot read trajectory `{against}`: {e}"));
    let trajectory: BenchTrajectory = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("cannot parse trajectory `{against}`: {e}"));
    let problems = validate_trajectory(&trajectory);
    if !problems.is_empty() {
        eprintln!("{against} failed schema validation:");
        for p in &problems {
            eprintln!("  - {p}");
        }
        return ExitCode::FAILURE;
    }
    eprintln!("{against}: schema valid (PR {})", trajectory.pr);

    if suite == "server" {
        return check_server(&trajectory, &against, max_regression);
    }
    let committed = match suite.as_str() {
        "smoke" => &trajectory.smoke.after,
        "paper" => &trajectory.paper.after,
        other => panic!("unknown suite `{other}`"),
    };
    let current = measure_suite_best(&suite, DEFAULT_REPEATS);
    summarize(&current);
    let floor = committed.cells_per_sec * (1.0 - max_regression);
    eprintln!(
        "committed after: {:.1} cells/s, floor ({:.0}% regression allowed): {:.1}, current: {:.1}",
        committed.cells_per_sec,
        max_regression * 100.0,
        floor,
        current.cells_per_sec
    );
    if current.cells_per_sec < floor {
        eprintln!("FAIL: throughput regressed more than the allowed fraction");
        return ExitCode::FAILURE;
    }
    eprintln!("OK: throughput within budget");
    ExitCode::SUCCESS
}

/// The `check --suite server` gate: re-drive an in-process server at the
/// committed client counts and fail if wire cells/sec at the highest
/// count fell more than the allowed fraction below the committed `after`.
fn check_server(trajectory: &BenchTrajectory, against: &str, max_regression: f64) -> ExitCode {
    let Some(server) = &trajectory.server else {
        eprintln!("{against} has no server suite to check against");
        return ExitCode::FAILURE;
    };
    let counts: Vec<usize> = server.after.runs.iter().map(|r| r.clients).collect();
    let (current, _) = measure_server_suite(None, &counts, DEFAULT_REPEATS);
    summarize_server(&current);
    let committed = server
        .after
        .max_clients_run()
        .expect("validated trajectory has runs");
    let measured = current.max_clients_run().expect("measured suite has runs");
    let floor = committed.cells_per_sec * (1.0 - max_regression);
    eprintln!(
        "committed after @{} clients: {:.1} wire cells/s, floor ({:.0}% regression \
         allowed): {:.1}, current: {:.1}",
        committed.clients,
        committed.cells_per_sec,
        max_regression * 100.0,
        floor,
        measured.cells_per_sec
    );
    if measured.cells_per_sec < floor {
        eprintln!("FAIL: wire throughput regressed more than the allowed fraction");
        return ExitCode::FAILURE;
    }
    eprintln!("OK: wire throughput within budget");
    ExitCode::SUCCESS
}

fn summarize_server(m: &ServerMeasurement) {
    for run in &m.runs {
        eprintln!(
            "server @{} clients: {} wire cells in {:.3}s — {:.1} cells/s",
            run.clients, run.cells, run.wall_seconds, run.cells_per_sec
        );
    }
}

/// `server`: time the wire suite. With `--before-addr`, interleave rounds
/// against the externally started pre-PR server and emit a full
/// `ServerSuiteTrajectory`; without it, emit the after-side
/// `ServerMeasurement` only.
fn cmd_server(mut args: Vec<String>) -> ExitCode {
    let clients: Vec<usize> = take_flag(&mut args, "--clients")
        .map(|list| {
            list.split(',')
                .map(|n| n.trim().parse().expect("--clients takes numbers"))
                .collect()
        })
        .unwrap_or_else(|| SERVER_SUITE_CLIENTS.to_vec());
    let repeats: u32 = take_flag(&mut args, "--repeat")
        .map(|v| v.parse().expect("--repeat takes a number"))
        .unwrap_or(DEFAULT_REPEATS);
    let before_addr = take_flag(&mut args, "--before-addr").map(|addr| {
        std::net::ToSocketAddrs::to_socket_addrs(&addr)
            .unwrap_or_else(|e| panic!("cannot resolve --before-addr `{addr}`: {e}"))
            .next()
            .unwrap_or_else(|| panic!("--before-addr `{addr}` resolved to nothing"))
    });
    let out = take_flag(&mut args, "--out");
    if !args.is_empty() {
        usage();
    }

    let (after, before) = measure_server_suite(before_addr, &clients, repeats);
    summarize_server(&after);
    let text = match before {
        Some(before) => {
            let trajectory = cassandra_bench::server_trajectory(before, after);
            eprintln!(
                "server wire speedup: ×{:.2} single client, ×{:.2} at {} clients",
                trajectory.speedup_single_client,
                trajectory.speedup_max_clients,
                trajectory.after.max_clients_run().map_or(0, |r| r.clients)
            );
            let problems = cassandra_bench::validate_server_trajectory(&trajectory);
            assert!(
                problems.is_empty(),
                "emitted server trajectory invalid: {problems:?}"
            );
            serde_json::to_string(&trajectory).expect("serializable trajectory")
        }
        None => serde_json::to_string(&after).expect("serializable measurement"),
    };
    write_or_print(out.as_deref(), &text);
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let cmd = args.remove(0);
    match cmd.as_str() {
        "run" => cmd_run(args),
        "emit" => cmd_emit(args),
        "check" => cmd_check(args),
        "server" => cmd_server(args),
        _ => usage(),
    }
}

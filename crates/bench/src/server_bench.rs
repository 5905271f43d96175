//! The wire-throughput `server` suite: end-to-end cells/sec through a
//! running evaluation server, measured at several concurrent multiplexed
//! client counts.
//!
//! Where the `smoke`/`paper` suites time the bare simulator, this suite
//! times the whole serving stack — TCP framing, request pipelining, the
//! shared worker pool and the shared analysis store — by driving a
//! loopback server with N clients, each multiplexing several id-tagged
//! sweeps on ONE connection (protocol v3). The metric is wire cells/sec:
//! `EvalRecord` lines received across all clients divided by the
//! wall-clock window from the synchronized start to the last client's
//! final `Done`.
//!
//! Before/after runs are **same-window interleaved** like the simulator
//! suites: `measure_server_suite` alternates rounds against the "before"
//! server (an externally started pre-PR binary, via `--before-addr`) and
//! the in-process "after" server, so machine-load noise hits both sides
//! alike. Analyses are warmed on each server before its clock starts: the
//! suite measures serving throughput, not Algorithm 2.

use crate::{guarded_speedup, per_second, suite_workloads, REPRESENTATIVE_POLICIES};
use cassandra_server::{serve, Client, EvalService, Request, Response, ServerHandle, WorkloadSpec};
use serde::{Deserialize, Serialize};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Client counts the committed trajectory reports, lowest first.
pub const SERVER_SUITE_CLIENTS: &[usize] = &[1, 4, 8];

/// Tagged sweeps each client keeps in flight on its one connection.
pub const SERVER_SWEEPS_PER_CLIENT: usize = 2;

/// Worker threads for the benched servers — pinned to the pre-PR server's
/// fixed default so before/after compare serving architecture, not pool
/// size.
pub const SERVER_BENCH_THREADS: usize = 4;

/// The kernel specs behind the smoke workload set, submitted to every
/// benched server.
const SERVER_SUITE_KERNELS: &[(&str, u64)] = &[
    ("chacha20", 64),
    ("sha256", 96),
    ("poly1305", 64),
    ("des", 4),
];

/// Wire throughput at one concurrent-client count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerThroughput {
    /// Concurrent clients, each multiplexing
    /// [`SERVER_SWEEPS_PER_CLIENT`] tagged sweeps on one connection.
    pub clients: usize,
    /// Total `EvalRecord` lines received across all clients.
    pub cells: u64,
    /// Wall-clock seconds from the synchronized start to the last `Done`.
    pub wall_seconds: f64,
    /// Wire cells per second — the server-throughput metric.
    pub cells_per_sec: f64,
}

/// One timed pass of the server suite across every client count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerMeasurement {
    /// Always `server`.
    pub suite: String,
    /// Workload names every sweep covers.
    pub workloads: Vec<String>,
    /// Policy labels every sweep covers.
    pub policies: Vec<String>,
    /// Tagged sweeps each client pipelines.
    pub sweeps_per_client: usize,
    /// One entry per client count, lowest first.
    pub runs: Vec<ServerThroughput>,
}

impl ServerMeasurement {
    /// The run at exactly `clients` concurrent clients.
    pub fn run_at(&self, clients: usize) -> Option<&ServerThroughput> {
        self.runs.iter().find(|r| r.clients == clients)
    }

    /// The run with the most concurrent clients.
    pub fn max_clients_run(&self) -> Option<&ServerThroughput> {
        self.runs.iter().max_by_key(|r| r.clients)
    }
}

/// Before/after server-suite trajectory committed in `BENCH_<pr>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSuiteTrajectory {
    /// Measured against the pre-PR server binary.
    pub before: ServerMeasurement,
    /// Measured against the in-process (post-PR) server.
    pub after: ServerMeasurement,
    /// `after / before` wire cells/sec at one client.
    pub speedup_single_client: f64,
    /// `after / before` wire cells/sec at the highest client count.
    pub speedup_max_clients: f64,
}

/// The sweep every bench client sends: all submitted workloads across the
/// representative policy set.
fn sweep_request() -> Request {
    Request::Sweep {
        workloads: Vec::new(),
        policies: REPRESENTATIVE_POLICIES
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
    }
}

/// Submits the suite's workloads to the server at `addr` and runs one
/// untimed warm-up sweep so every analysis is cached before the clock
/// starts.
///
/// # Errors
///
/// Propagates socket errors; fails if the server rejects a request.
pub fn prepare_server_session(addr: SocketAddr) -> io::Result<()> {
    let mut client = Client::connect(addr)?;
    for (family, size) in SERVER_SUITE_KERNELS {
        let responses = client.request(&Request::Submit {
            spec: WorkloadSpec::Kernel {
                family: (*family).to_string(),
                size: *size,
                name: None,
            },
        })?;
        if !matches!(responses.last(), Some(Response::Submitted { .. })) {
            return Err(io::Error::other(format!(
                "warm-up Submit of {family}({size}) failed: {responses:?}"
            )));
        }
    }
    let responses = client.request(&sweep_request())?;
    if !matches!(responses.last(), Some(Response::Done(_))) {
        return Err(io::Error::other(format!(
            "warm-up sweep failed: {:?}",
            responses.last()
        )));
    }
    Ok(())
}

/// One timed round: `clients` threads connect, synchronize on a barrier,
/// each pipelines [`SERVER_SWEEPS_PER_CLIENT`] tagged sweeps on its one
/// connection and drains the multiplexed streams; the wall clock covers
/// the barrier release to the last client's final `Done`.
///
/// # Panics
///
/// Panics if a client errors or a stream ends without `Done` — a bench
/// run against a broken server has no meaningful result.
pub fn measure_server_round(addr: SocketAddr, clients: usize) -> ServerThroughput {
    let barrier = Arc::new(Barrier::new(clients + 1));
    let mut handles = Vec::with_capacity(clients);
    for c in 0..clients {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || -> io::Result<u64> {
            let mut client = Client::connect(addr)?;
            let ids: Vec<String> = (0..SERVER_SWEEPS_PER_CLIENT)
                .map(|s| format!("bench-{c}-{s}"))
                .collect();
            barrier.wait();
            for id in &ids {
                client.send_tagged(id, &sweep_request())?;
            }
            let id_refs: Vec<&str> = ids.iter().map(String::as_str).collect();
            let streams = client.collect_multiplexed(&id_refs)?;
            let mut cells = 0u64;
            for (id, stream) in &streams {
                assert!(
                    matches!(stream.last(), Some(Response::Done(_))),
                    "bench stream {id} ended with {:?}",
                    stream.last()
                );
                cells += stream
                    .iter()
                    .filter(|r| matches!(r, Response::Record(_)))
                    .count() as u64;
            }
            Ok(cells)
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let cells: u64 = handles
        .into_iter()
        .map(|h| {
            h.join()
                .expect("bench client thread panicked")
                .expect("bench client failed")
        })
        .sum();
    let wall = start.elapsed().as_secs_f64().max(f64::EPSILON);
    ServerThroughput {
        clients,
        cells,
        wall_seconds: wall,
        cells_per_sec: per_second(cells as f64, wall),
    }
}

fn empty_measurement() -> ServerMeasurement {
    ServerMeasurement {
        suite: "server".to_string(),
        workloads: suite_workloads("smoke")
            .iter()
            .map(|w| w.name.clone())
            .collect(),
        policies: REPRESENTATIVE_POLICIES
            .iter()
            .map(|s| (*s).to_string())
            .collect(),
        sweeps_per_client: SERVER_SWEEPS_PER_CLIENT,
        runs: Vec::new(),
    }
}

fn keep_best(measurement: &mut ServerMeasurement, run: ServerThroughput) {
    match measurement
        .runs
        .iter_mut()
        .find(|r| r.clients == run.clients)
    {
        Some(best) if best.cells_per_sec >= run.cells_per_sec => {}
        Some(best) => *best = run,
        None => {
            measurement.runs.push(run);
            measurement.runs.sort_by_key(|r| r.clients);
        }
    }
}

/// Measures the server suite against an in-process post-PR server and —
/// when `before_addr` names an externally started pre-PR server —
/// interleaves before/after rounds in the same wall-clock window,
/// best-of-`repeats` per client count per side. Returns `(after,
/// before)`.
///
/// # Panics
///
/// Panics if a server cannot be driven; see [`measure_server_round`].
pub fn measure_server_suite(
    before_addr: Option<SocketAddr>,
    clients: &[usize],
    repeats: u32,
) -> (ServerMeasurement, Option<ServerMeasurement>) {
    let handle: ServerHandle = serve("127.0.0.1:0", EvalService::new(), SERVER_BENCH_THREADS)
        .expect("bind the in-process bench server");
    prepare_server_session(handle.addr()).expect("warm the in-process bench server");
    if let Some(addr) = before_addr {
        prepare_server_session(addr).expect("warm the before server");
    }

    let mut after = empty_measurement();
    let mut before = before_addr.map(|_| empty_measurement());
    for _ in 0..repeats.max(1) {
        for &count in clients {
            // Alternate sides inside the window so load noise is shared.
            if let (Some(addr), Some(before)) = (before_addr, before.as_mut()) {
                keep_best(before, measure_server_round(addr, count));
            }
            keep_best(&mut after, measure_server_round(handle.addr(), count));
        }
    }
    handle.shutdown();
    handle.join();
    (after, before)
}

/// Builds the committed trajectory from a before/after measurement pair.
pub fn server_trajectory(
    before: ServerMeasurement,
    after: ServerMeasurement,
) -> ServerSuiteTrajectory {
    let rate = |run: Option<&ServerThroughput>| run.map_or(0.0, |r| r.cells_per_sec);
    let single = guarded_speedup(rate(after.run_at(1)), rate(before.run_at(1)));
    let max = guarded_speedup(
        rate(after.max_clients_run()),
        rate(before.max_clients_run()),
    );
    ServerSuiteTrajectory {
        before,
        after,
        speedup_single_client: single,
        speedup_max_clients: max,
    }
}

/// Structural validation of a server-suite trajectory; returns every
/// violation found (empty means valid). Called from
/// [`crate::validate_trajectory`] when the optional `server` field is
/// present.
pub fn validate_server_trajectory(t: &ServerSuiteTrajectory) -> Vec<String> {
    let mut problems = Vec::new();
    for (phase, m) in [("before", &t.before), ("after", &t.after)] {
        if m.suite != "server" {
            problems.push(format!(
                "server.{phase}.suite is `{}`, expected `server`",
                m.suite
            ));
        }
        if m.runs.is_empty() || m.workloads.is_empty() || m.policies.is_empty() {
            problems.push(format!("server.{phase} has no runs"));
        }
        for run in &m.runs {
            if run.clients == 0 || run.cells == 0 {
                problems.push(format!("server.{phase} run has no clients or cells"));
            }
            if !(run.cells_per_sec.is_finite() && run.cells_per_sec > 0.0) {
                problems.push(format!(
                    "server.{phase}@{} cells_per_sec is not positive",
                    run.clients
                ));
            }
            if !(run.wall_seconds.is_finite() && run.wall_seconds > 0.0) {
                problems.push(format!(
                    "server.{phase}@{} wall_seconds is not positive",
                    run.clients
                ));
            }
        }
    }
    let before_counts: Vec<usize> = t.before.runs.iter().map(|r| r.clients).collect();
    let after_counts: Vec<usize> = t.after.runs.iter().map(|r| r.clients).collect();
    if before_counts != after_counts {
        problems.push(format!(
            "server before/after client counts differ: {before_counts:?} vs {after_counts:?}"
        ));
    }
    for (name, speedup) in [
        ("single_client", t.speedup_single_client),
        ("max_clients", t.speedup_max_clients),
    ] {
        if !(speedup.is_finite() && speedup > 0.0) {
            problems.push(format!("server.speedup_{name} is not positive"));
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One client, one round, against an in-process server: the suite's
    /// cell arithmetic holds (workloads × policies × sweeps per client).
    #[test]
    fn one_round_counts_every_wire_cell() {
        let handle = serve("127.0.0.1:0", EvalService::new(), SERVER_BENCH_THREADS).expect("bind");
        prepare_server_session(handle.addr()).expect("warm");
        let run = measure_server_round(handle.addr(), 1);
        assert_eq!(run.clients, 1);
        let expected = (SERVER_SUITE_KERNELS.len()
            * REPRESENTATIVE_POLICIES.len()
            * SERVER_SWEEPS_PER_CLIENT) as u64;
        assert_eq!(run.cells, expected);
        assert!(run.cells_per_sec > 0.0 && run.cells_per_sec.is_finite());
    }

    #[test]
    fn suite_measures_each_client_count_and_round_trips_as_json() {
        let (after, before) = measure_server_suite(None, &[1, 2], 1);
        assert!(before.is_none());
        assert_eq!(after.suite, "server");
        assert_eq!(
            after.runs.iter().map(|r| r.clients).collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(after.run_at(1).unwrap().clients, 1);
        assert_eq!(after.max_clients_run().unwrap().clients, 2);

        let text = serde_json::to_string(&after).unwrap();
        let back: ServerMeasurement = serde_json::from_str(&text).unwrap();
        assert_eq!(back, after);

        // A self-trajectory validates and reports a ×1 speedup.
        let t = server_trajectory(after.clone(), after);
        assert!(validate_server_trajectory(&t).is_empty());
        assert!((t.speedup_single_client - 1.0).abs() < 1e-9);
        assert!((t.speedup_max_clients - 1.0).abs() < 1e-9);
    }

    #[test]
    fn validation_flags_broken_server_trajectories() {
        let (after, _) = measure_server_suite(None, &[1], 1);
        let mut bad = server_trajectory(after.clone(), after);
        bad.before.suite = "nonsense".to_string();
        bad.after.runs[0].cells_per_sec = f64::NAN;
        bad.speedup_max_clients = 0.0;
        let problems = validate_server_trajectory(&bad);
        assert!(problems.iter().any(|p| p.contains("suite")));
        assert!(problems.iter().any(|p| p.contains("cells_per_sec")));
        assert!(problems.iter().any(|p| p.contains("speedup_max_clients")));
    }
}

//! The throughput bench harness behind `bench-runner` and the committed
//! `BENCH_*.json` perf trajectory.
//!
//! This library measures **simulator throughput**: how many (workload ×
//! policy) sweep cells per second and how many simulated cycles per second
//! the core sustains. Every downstream
//! layer (grid sweeps, the evaluation service, frontier search) multiplies
//! the cost of one `Simulator` tick loop, so this number is the repo's
//! primary performance metric and is tracked PR-over-PR in `BENCH_<pr>.json`
//! at the repository root.
//!
//! Three suites are defined:
//!
//! * `smoke` — the four quick workloads the integration tests share; fast
//!   enough for CI to run on every push and compare against the committed
//!   baseline;
//! * `paper` — the full 21-workload evaluation suite of Table 1 / Fig. 7;
//! * `server` — end-to-end **wire** cells/sec through a running
//!   evaluation server at 1/4/8 concurrent multiplexed clients (see
//!   [`server_bench`]); optional in the trajectory document, present from
//!   `BENCH_10.json` on.
//!
//! Both run across the same representative policy set (one per frontend
//! family: the unsafe baseline, the fence lower bound, the two speculative
//! defenses SPT/ProSpeCT, full Cassandra, Cassandra-lite and the
//! tournament hybrid). Analyses are warmed before the clock starts: the
//! bench times *simulation* throughput, not Algorithm-2 trace generation.

use cassandra_core::eval::{AnalysisStore, DesignPoint, SweepExecutor};
use cassandra_core::policies::PolicyRegistry;
use cassandra_kernels::suite;
use cassandra_kernels::workload::Workload;
use serde::{Deserialize, Serialize};
use std::time::Instant;

pub mod server_bench;

pub use server_bench::{
    measure_server_round, measure_server_suite, prepare_server_session, server_trajectory,
    validate_server_trajectory, ServerMeasurement, ServerSuiteTrajectory, ServerThroughput,
    SERVER_BENCH_THREADS, SERVER_SUITE_CLIENTS, SERVER_SWEEPS_PER_CLIENT,
};

/// Schema identifier written into every trajectory file.
pub const TRAJECTORY_SCHEMA: &str = "cassandra-bench-trajectory/v1";

/// The representative policy labels benched by both suites: one per
/// frontend family, in reporting order.
pub const REPRESENTATIVE_POLICIES: &[&str] = &[
    "UnsafeBaseline",
    "Fence",
    "SPT",
    "ProSpeCT",
    "Cassandra",
    "Cassandra-lite",
    "Tournament",
];

/// Throughput of one policy across the suite's workloads.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyThroughput {
    /// The policy label (a `PolicyRegistry::standard()` design point).
    pub policy: String,
    /// Number of (workload × policy) cells simulated — the workload count.
    pub cells: u64,
    /// Wall-clock seconds for all cells of this policy.
    pub wall_seconds: f64,
    /// Cells per second — the sweep-throughput metric.
    pub cells_per_sec: f64,
    /// Total simulated cycles across the cells.
    pub simulated_cycles: u64,
    /// Simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
}

/// One timed run of a suite across the representative policies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Suite name (`smoke` or `paper`).
    pub suite: String,
    /// Workload names, in run order.
    pub workloads: Vec<String>,
    /// Total cells (workloads × policies).
    pub cells: u64,
    /// Total wall-clock seconds (simulation only; analyses pre-warmed).
    pub wall_seconds: f64,
    /// Aggregate cells per second.
    pub cells_per_sec: f64,
    /// Total simulated cycles.
    pub simulated_cycles: u64,
    /// Aggregate simulated cycles per wall-clock second.
    pub sim_cycles_per_sec: f64,
    /// Per-policy breakdown.
    pub policies: Vec<PolicyThroughput>,
}

/// Before/after trajectory of one suite within a PR.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SuiteTrajectory {
    /// Measured on the PR's base (pre-optimization) simulator.
    pub before: Measurement,
    /// Measured on the PR's final simulator.
    pub after: Measurement,
    /// `after.cells_per_sec / before.cells_per_sec`.
    pub speedup_cells_per_sec: f64,
}

/// The committed `BENCH_<pr>.json` document.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchTrajectory {
    /// Always [`TRAJECTORY_SCHEMA`].
    pub schema: String,
    /// The PR number the trajectory belongs to.
    pub pr: u32,
    /// The benched policy labels.
    pub policies: Vec<String>,
    /// The CI-tracked fast suite.
    pub smoke: SuiteTrajectory,
    /// The full paper suite.
    pub paper: SuiteTrajectory,
    /// The wire-throughput server suite — absent from trajectories
    /// committed before PR 10 (the field deserializes as `None` there and
    /// is omitted on serialize while `None`).
    #[serde(skip_if_default)]
    pub server: Option<ServerSuiteTrajectory>,
}

/// The workloads of a named suite.
///
/// # Panics
///
/// Panics on an unknown suite name (the CLI validates first).
pub fn suite_workloads(suite_name: &str) -> Vec<Workload> {
    match suite_name {
        "smoke" => vec![
            suite::chacha20_workload(64),
            suite::sha256_workload(96),
            suite::poly1305_workload(64),
            suite::des_workload(4),
        ],
        "paper" => suite::full_suite(),
        other => panic!("unknown bench suite `{other}` (expected `smoke` or `paper`)"),
    }
}

/// The representative design points, resolved from the standard registry.
pub fn representative_designs() -> Vec<DesignPoint> {
    let registry = PolicyRegistry::standard();
    REPRESENTATIVE_POLICIES
        .iter()
        .map(|label| {
            registry
                .get(label)
                .unwrap_or_else(|| panic!("policy `{label}` missing from the standard registry"))
                .clone()
        })
        .collect()
}

/// `count / wall_seconds` with the denominator clamped away from zero.
///
/// Coarse clocks can report a zero-second wall for a trivially short suite,
/// and a raw division would put `inf` into the committed trajectory — which
/// the bundled JSON writer serializes as `null`, so the file would no longer
/// re-read as a `BenchTrajectory` under `bench-runner check`. A `NaN` wall
/// clamps too (`f64::max` discards a `NaN` operand), so the result is always
/// finite for finite `count`.
pub fn per_second(count: f64, wall_seconds: f64) -> f64 {
    count / wall_seconds.max(f64::EPSILON)
}

/// The throughput ratio `after / before`, guarded against degenerate
/// baselines.
///
/// The measured path can only produce large-but-finite rates (walls are
/// clamped via [`per_second`]), but `emit` also compares against numbers
/// re-read from a baseline file, which a truncated or hand-edited JSON can
/// leave zero, negative or non-finite. Dividing by those would persist
/// `inf`/`NaN`; instead any such pair yields `0.0`, which
/// [`validate_trajectory`] rejects as "not positive" — the failure is loud
/// at emit/check time rather than silently committed.
pub fn guarded_speedup(after_cells_per_sec: f64, before_cells_per_sec: f64) -> f64 {
    let defined = after_cells_per_sec.is_finite()
        && before_cells_per_sec.is_finite()
        && after_cells_per_sec > 0.0
        && before_cells_per_sec > 0.0;
    if defined {
        after_cells_per_sec / before_cells_per_sec
    } else {
        0.0
    }
}

/// Runs `suite_name` across the representative policies and returns the
/// timed measurement. Analyses are generated (and cached) before timing
/// starts, so the wall clock covers simulation only.
///
/// # Panics
///
/// Panics if a workload fails to analyze or simulate — a bench run on a
/// broken simulator has no meaningful result.
pub fn measure_suite(suite_name: &str) -> Measurement {
    let workloads = suite_workloads(suite_name);
    let designs = representative_designs();
    let store = AnalysisStore::new();
    for w in &workloads {
        store
            .entry(&w.kernel.program, w.kernel.step_limit)
            .unwrap_or_else(|e| panic!("{}: analysis failed: {e:?}", w.name));
    }
    let ex = SweepExecutor::new(&store);

    let mut policies = Vec::with_capacity(designs.len());
    let mut total_wall = 0.0f64;
    let mut total_cycles = 0u64;
    for design in &designs {
        let start = Instant::now();
        let mut cycles = 0u64;
        for w in &workloads {
            let outcome = ex
                .simulate(w, &design.config)
                .unwrap_or_else(|e| panic!("{} under {}: {e:?}", w.name, design.label));
            cycles += outcome.stats.cycles;
        }
        let wall = start.elapsed().as_secs_f64().max(f64::EPSILON);
        total_wall += wall;
        total_cycles += cycles;
        policies.push(PolicyThroughput {
            policy: design.label.clone(),
            cells: workloads.len() as u64,
            wall_seconds: wall,
            cells_per_sec: per_second(workloads.len() as f64, wall),
            simulated_cycles: cycles,
            sim_cycles_per_sec: per_second(cycles as f64, wall),
        });
    }

    let cells = (workloads.len() * designs.len()) as u64;
    Measurement {
        suite: suite_name.to_string(),
        workloads: workloads.iter().map(|w| w.name.clone()).collect(),
        cells,
        wall_seconds: total_wall,
        cells_per_sec: per_second(cells as f64, total_wall),
        simulated_cycles: total_cycles,
        sim_cycles_per_sec: per_second(total_cycles as f64, total_wall),
        policies,
    }
}

/// Best-of-`repeats` [`measure_suite`]: returns the run with the highest
/// aggregate cells/sec. Short suites (smoke is tens of milliseconds) are
/// noisy under machine load; the regression gate and the committed numbers
/// both use the best of a few runs so the comparison measures the
/// simulator, not the scheduler.
pub fn measure_suite_best(suite_name: &str, repeats: u32) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..repeats.max(1) {
        let m = measure_suite(suite_name);
        if best
            .as_ref()
            .is_none_or(|b| m.cells_per_sec > b.cells_per_sec)
        {
            best = Some(m);
        }
    }
    best.expect("at least one run")
}

/// Structural validation of a trajectory document: schema tag, policy list,
/// suite naming and strictly positive throughput numbers. Returns every
/// violation found (empty means valid).
pub fn validate_trajectory(t: &BenchTrajectory) -> Vec<String> {
    let mut problems = Vec::new();
    if t.schema != TRAJECTORY_SCHEMA {
        problems.push(format!(
            "schema is `{}`, expected `{TRAJECTORY_SCHEMA}`",
            t.schema
        ));
    }
    if t.policies.is_empty() {
        problems.push("empty policy list".to_string());
    }
    for (name, suite) in [("smoke", &t.smoke), ("paper", &t.paper)] {
        for (phase, m) in [("before", &suite.before), ("after", &suite.after)] {
            if m.suite != name {
                problems.push(format!(
                    "{name}.{phase}.suite is `{}`, expected `{name}`",
                    m.suite
                ));
            }
            if m.cells == 0 || m.workloads.is_empty() {
                problems.push(format!("{name}.{phase} has no cells"));
            }
            if !(m.cells_per_sec.is_finite() && m.cells_per_sec > 0.0) {
                problems.push(format!("{name}.{phase}.cells_per_sec is not positive"));
            }
            if !(m.wall_seconds.is_finite() && m.wall_seconds > 0.0) {
                problems.push(format!("{name}.{phase}.wall_seconds is not positive"));
            }
            if m.policies.len() != t.policies.len() {
                problems.push(format!(
                    "{name}.{phase} covers {} policies, trajectory lists {}",
                    m.policies.len(),
                    t.policies.len()
                ));
            }
        }
        if !(suite.speedup_cells_per_sec.is_finite() && suite.speedup_cells_per_sec > 0.0) {
            problems.push(format!("{name}.speedup_cells_per_sec is not positive"));
        }
    }
    if let Some(server) = &t.server {
        problems.extend(validate_server_trajectory(server));
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_policies_resolve_in_the_standard_registry() {
        let designs = representative_designs();
        assert_eq!(designs.len(), REPRESENTATIVE_POLICIES.len());
        for (design, label) in designs.iter().zip(REPRESENTATIVE_POLICIES) {
            assert_eq!(design.label, *label);
        }
    }

    #[test]
    fn smoke_suite_measures_every_cell() {
        let m = measure_suite("smoke");
        assert_eq!(m.suite, "smoke");
        assert_eq!(m.workloads.len(), 4);
        assert_eq!(m.cells, 4 * REPRESENTATIVE_POLICIES.len() as u64);
        assert!(m.cells_per_sec > 0.0);
        assert!(m.simulated_cycles > 0);
        assert_eq!(m.policies.len(), REPRESENTATIVE_POLICIES.len());
        // A measurement round-trips through the JSON it is persisted as.
        let text = serde_json::to_string(&m).unwrap();
        let back: Measurement = serde_json::from_str(&text).unwrap();
        assert_eq!(back.cells, m.cells);
        assert_eq!(back.policies.len(), m.policies.len());
    }

    #[test]
    fn degenerate_wall_clocks_stay_finite_and_round_trip_as_json() {
        // A zero-second wall (coarse clock, trivially short suite) must not
        // put inf into the measurement...
        let rate = per_second(4.0, 0.0);
        assert!(rate.is_finite() && rate > 0.0, "rate = {rate}");
        // ...and neither must a NaN wall (f64::max discards the NaN).
        assert!(per_second(4.0, f64::NAN).is_finite());

        let m = Measurement {
            suite: "smoke".to_string(),
            workloads: vec!["w".to_string()],
            cells: 4,
            wall_seconds: 0.0_f64.max(f64::EPSILON),
            cells_per_sec: rate,
            simulated_cycles: 9,
            sim_cycles_per_sec: per_second(9.0, 0.0),
            policies: Vec::new(),
        };
        // The persisted JSON carries real numbers (the bundled writer emits
        // `null` for non-finite floats, which would not re-read as f64)...
        let text = serde_json::to_string(&m).unwrap();
        assert!(
            !text.contains("null"),
            "degenerate measurement leaked a non-finite number: {text}"
        );
        // ...and the document round-trips to an equal, usable value.
        let back: Measurement = serde_json::from_str(&text).unwrap();
        assert_eq!(back.cells, m.cells);
        assert!(back.cells_per_sec.is_finite() && back.cells_per_sec > 0.0);
        assert!(back.sim_cycles_per_sec.is_finite());
    }

    #[test]
    fn speedup_is_guarded_against_degenerate_baselines() {
        assert_eq!(guarded_speedup(3.0, 1.5), 2.0);
        for (after, before) in [
            (5.0, 0.0),
            (5.0, -1.0),
            (5.0, f64::NAN),
            (5.0, f64::INFINITY),
            (f64::NAN, 5.0),
            (f64::INFINITY, 5.0),
            (0.0, 5.0),
        ] {
            let s = guarded_speedup(after, before);
            assert_eq!(s, 0.0, "speedup({after}, {before}) = {s}");
        }
    }

    #[test]
    fn validation_flags_a_broken_trajectory() {
        let m = measure_suite("smoke");
        let good = BenchTrajectory {
            schema: TRAJECTORY_SCHEMA.to_string(),
            pr: 7,
            policies: REPRESENTATIVE_POLICIES
                .iter()
                .map(|s| s.to_string())
                .collect(),
            smoke: SuiteTrajectory {
                before: m.clone(),
                after: m.clone(),
                speedup_cells_per_sec: 1.0,
            },
            paper: SuiteTrajectory {
                before: {
                    let mut p = m.clone();
                    p.suite = "paper".to_string();
                    p
                },
                after: {
                    let mut p = m.clone();
                    p.suite = "paper".to_string();
                    p
                },
                speedup_cells_per_sec: 1.0,
            },
            server: None,
        };
        assert!(validate_trajectory(&good).is_empty());

        // Pre-PR-10 trajectory files have no `server` key: the field must
        // deserialize as `None` and stay omitted on re-serialize.
        let text = serde_json::to_string(&good).unwrap();
        assert!(!text.contains("\"server\""), "None must be omitted: {text}");
        let back: BenchTrajectory = serde_json::from_str(&text).unwrap();
        assert!(back.server.is_none());

        let mut bad = good.clone();
        bad.schema = "nonsense".to_string();
        bad.smoke.after.cells_per_sec = f64::NAN;
        // A degenerate baseline flows through the guard as 0.0, which
        // validation must reject rather than pass as a "finite" speedup.
        bad.paper.speedup_cells_per_sec = guarded_speedup(m.cells_per_sec, 0.0);
        let problems = validate_trajectory(&bad);
        assert!(problems.iter().any(|p| p.contains("schema")));
        assert!(problems.iter().any(|p| p.contains("cells_per_sec")));
        assert!(
            problems
                .iter()
                .any(|p| p.contains("paper.speedup_cells_per_sec")),
            "guarded speedup sentinel not flagged: {problems:?}"
        );
    }
}

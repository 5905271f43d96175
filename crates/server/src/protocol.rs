//! The wire protocol: request/response types, request-id envelopes and
//! newline-delimited JSON framing.
//!
//! Every message is one JSON value on one line (`\n`-terminated, no
//! newlines inside a message — the vendored `serde_json` never emits them
//! in compact mode). Requests and responses are externally tagged serde
//! enums: unit variants are bare JSON strings (`"Ping"`), data variants are
//! single-entry objects (`{"Submit": {...}}`). The full format, with a
//! literal example per message type, is documented in `docs/PROTOCOL.md`.
//!
//! Since protocol v2 a request may carry a client-supplied **id** by
//! wrapping itself in a [`RequestEnvelope`]
//! (`{"id":"sweep-1","request":{...}}`); the server then echoes that id in
//! a [`ResponseEnvelope`] around **every** line of the response stream, and
//! the id becomes a handle for [`Request::Cancel`]. Bare (un-enveloped)
//! requests keep working exactly as in v1 and get bare responses, so the
//! two framings never mix within one request's stream.
//!
//! Since protocol v3 **enveloped requests pipeline**: a client may send any
//! number of tagged requests on one connection without waiting for earlier
//! response streams to finish, and the server interleaves the streams
//! line-by-line (the id on every line is what demultiplexes them). Within
//! one id the line order is unchanged from v2; bare v1 requests are still
//! served one at a time in arrival order. v4 is v3 minus its two
//! store-snapshot requests (`AbsorbSnapshot` and the matching export) and
//! their replies: a server only ever holds analyses it ran itself or
//! replayed from its own cache journal. v5 keeps a `GridSweep`'s cells to
//! that request: the session's policy set is always the standard one.
//!
//! A request line is at most [`MAX_REQUEST_LINE`] bytes, newline included;
//! a longer line is answered with one `Error` and the connection closes.
//! The client reads response lines of up to [`MAX_RESPONSE_LINE`] bytes.
//!
//! Wire-level strings name things the way the CLI does: defense design
//! points by their [`DefenseMode::label`] (`"Cassandra-part"`, not the Rust
//! variant name) and workloads by their paper name (`"ChaCha20_ct"`).

use cassandra_core::eval::{CacheStats, EvalRecord};
use cassandra_core::lint::LintRow;
use cassandra_core::policies::GridSweep;
use cassandra_core::registry::ExperimentOutput;
use cassandra_cpu::config::DefenseMode;
use serde::{Deserialize, Serialize};

/// Protocol revision reported by [`Response::Pong`]; bumped on breaking wire
/// changes. v2 added request-id envelopes, `Cancel` and `Cancelled` (v1
/// bare framing still decodes). The static-analysis `Lint`/`LintReport`
/// pair is a purely additive v2 extension — old clients never see it, so
/// the revision is unchanged. v3 lifts the one-request-at-a-time-per-
/// connection restriction (enveloped requests pipeline and their response
/// streams interleave — a behavioral change old clients can observe, hence
/// the bump). v4 removes v3's store-snapshot export/`AbsorbSnapshot` pair:
/// a line carrying either no longer decodes. v5 stops registering a
/// `GridSweep`'s cells into the session: `ListPolicies` always answers the
/// standard labels, and a `Sweep` naming a grid label is an `Error`.
pub const PROTOCOL_VERSION: u32 = 5;

/// Longest request line the server reads, in bytes including the
/// terminating newline. The largest legitimate request (a `GridSweep` or a
/// `Sweep` naming many workloads) is a few KiB.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Longest response line [`crate::Client`] reads, in bytes including the
/// terminating newline. The largest reply the test suites and the smoke
/// run produce is about 13 KB (a 96-record `Done` report); a full-suite
/// `sweep` experiment is about 0.5 MB.
pub const MAX_RESPONSE_LINE: usize = 16 << 20;

/// How a [`Request::Submit`] names the workload to ingest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSpec {
    /// A named program from the paper's evaluation suite
    /// (`cassandra_kernels::suite::full_suite`), e.g. `"ChaCha20_ct"`,
    /// `"kyber512"`, `"RSA_i62"`.
    Suite {
        /// The suite workload name (Table-1 spelling).
        name: String,
    },
    /// A kernel family instantiated at a given size, optionally renamed.
    Kernel {
        /// Kernel family id: `chacha20`, `sha256`, `aes128`, `des`,
        /// `poly1305`, `modexp`, `x25519`, `kyber` or `sphincs`.
        family: String,
        /// Input size (stream/message bytes, or block count for `des`);
        /// ignored by the fixed-shape families (`modexp`, `x25519`,
        /// `kyber`, `sphincs`).
        size: u64,
        /// Optional name for the ingested workload (defaults to the
        /// family's suite name).
        name: Option<String>,
    },
}

/// The wire form of a [`GridSweep`]: defense design points are named by
/// label and every axis is listed explicitly (empty = keep the Table-3
/// baseline value for that knob).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridSpec {
    /// Base defense labels (`"Cassandra"`, `"Tournament"`, …), parsed with
    /// [`DefenseMode`]'s `FromStr`. Must be non-empty.
    pub defenses: Vec<String>,
    /// Tournament promotion-threshold axis.
    pub tournament_thresholds: Vec<u32>,
    /// BTU partition-count axis.
    pub btu_partitions: Vec<usize>,
    /// BTU entry-count axis.
    pub btu_entries: Vec<usize>,
    /// Trace Cache miss-penalty axis (cycles).
    pub miss_penalties: Vec<u64>,
    /// Mispredict redirect-penalty axis (cycles).
    pub redirect_penalties: Vec<u64>,
}

/// Largest accepted `btu_partitions` axis value. The BTU allocates one
/// partition (40 bytes) per count, so an unbounded count is an unbounded
/// allocation; at this limit a cell's BTU holds 320 KiB of partitions.
pub const MAX_GRID_BTU_PARTITIONS: usize = 1 << 13;

/// Largest accepted `btu_entries` axis value (the paper's unit has 16).
pub const MAX_GRID_BTU_ENTRIES: usize = 1 << 16;

/// Largest accepted `miss_penalties` or `redirect_penalties` axis value, in
/// cycles. The timing model adds a penalty to a cycle count per branch, so
/// a value near `u64::MAX` would overflow it.
pub const MAX_GRID_PENALTY: u64 = 1_000_000;

/// The first value of `values` above `max`, as an error naming the axis.
fn check_axis<T: Copy + PartialOrd + std::fmt::Display>(
    axis: &str,
    values: &[T],
    max: T,
) -> Result<(), String> {
    match values.iter().find(|&&v| v > max) {
        Some(v) => Err(format!(
            "GridSweep {axis} value {v} is above the limit of {max}"
        )),
        None => Ok(()),
    }
}

impl GridSpec {
    /// Parses the defense labels, checks every axis value against its limit
    /// and builds the typed grid.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for an empty defense list, an
    /// unknown label or an axis value above its limit
    /// ([`MAX_GRID_BTU_PARTITIONS`], [`MAX_GRID_BTU_ENTRIES`],
    /// [`MAX_GRID_PENALTY`]).
    pub fn to_grid(&self) -> Result<GridSweep, String> {
        if self.defenses.is_empty() {
            return Err("GridSweep requires at least one defense label".to_string());
        }
        check_axis(
            "btu_partitions",
            &self.btu_partitions,
            MAX_GRID_BTU_PARTITIONS,
        )?;
        check_axis("btu_entries", &self.btu_entries, MAX_GRID_BTU_ENTRIES)?;
        check_axis("miss_penalties", &self.miss_penalties, MAX_GRID_PENALTY)?;
        check_axis(
            "redirect_penalties",
            &self.redirect_penalties,
            MAX_GRID_PENALTY,
        )?;
        let defenses: Vec<DefenseMode> = self
            .defenses
            .iter()
            .map(|label| label.parse::<DefenseMode>().map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        Ok(GridSweep::over(defenses)
            .tournament_thresholds(self.tournament_thresholds.iter().copied())
            .btu_partitions(self.btu_partitions.iter().copied())
            .btu_entries(self.btu_entries.iter().copied())
            .miss_penalties(self.miss_penalties.iter().copied())
            .redirect_penalties(self.redirect_penalties.iter().copied()))
    }
}

/// One client request (one line on the wire).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Liveness / version check. → [`Response::Pong`].
    Ping,
    /// Enumerate the standard design points. → [`Response::Policies`].
    ListPolicies,
    /// Enumerate the ingested workloads. → [`Response::Workloads`].
    ListWorkloads,
    /// Ingest a workload into the session. → [`Response::Submitted`].
    Submit {
        /// What to ingest.
        spec: WorkloadSpec,
    },
    /// Evaluate workloads × standard policies. → a stream of
    /// [`Response::Record`] followed by [`Response::Done`].
    Sweep {
        /// Submitted workload names; empty = every submitted workload.
        workloads: Vec<String>,
        /// Standard policy labels; empty = every standard policy.
        policies: Vec<String>,
    },
    /// Expand a parameter grid into design points (for this request only)
    /// and evaluate workloads × grid. → a stream of [`Response::Record`]
    /// followed by [`Response::Done`].
    GridSweep {
        /// Submitted workload names; empty = every submitted workload.
        workloads: Vec<String>,
        /// The grid specification.
        grid: GridSpec,
    },
    /// Statically lint workloads with the constant-time &
    /// speculative-leakage analyzer — a pure static pass served from the
    /// session's shared analysis store; nothing is executed or simulated.
    /// → [`Response::LintReport`].
    Lint {
        /// Submitted workload names; empty = every submitted workload.
        workloads: Vec<String>,
    },
    /// Run one standard experiment (`table1`, `fig7`, …, `consolidation`)
    /// over the submitted workloads, through the server's shared analysis
    /// store. A purely additive v2 extension, like `Lint`. →
    /// [`Response::Experiment`], or [`Response::Error`] for an unknown
    /// experiment name.
    Experiment {
        /// Key of the experiment (`Experiment::standard` names: `table1`,
        /// `fig7`, `fig8`, `fig9`, `q3`, `q4`, `security`, `tracegen`,
        /// `lint`, `consolidation`, `frontier`). `frontier` runs the
        /// successive-halving search and streams [`Response::Progress`]
        /// lines before its terminal reply.
        name: String,
        /// Submitted workload names; empty = every submitted workload.
        workloads: Vec<String>,
    },
    /// Cancel the in-flight request carrying this client-supplied id (see
    /// [`RequestEnvelope`]); its stream terminates with
    /// [`Response::Cancelled`] instead of `Done`, and so does this
    /// request's. → [`Response::Cancelled`], or [`Response::Error`] when no
    /// in-flight request carries the id.
    Cancel {
        /// The id the target request was submitted under.
        id: String,
    },
    /// Stop the server after this response. → [`Response::ShuttingDown`].
    Shutdown,
}

/// The v2 request framing: a client-supplied id around a [`Request`]. The
/// server echoes the id in a [`ResponseEnvelope`] around every line of this
/// request's response stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestEnvelope {
    /// Client-chosen id; in-flight ids must be unique per server, and a
    /// sweep's id is the handle [`Request::Cancel`] takes.
    pub id: String,
    /// The wrapped request.
    pub request: Request,
}

/// The v2 response framing: the request's id echoed around each
/// [`Response`] line. Only sent for requests that arrived in a
/// [`RequestEnvelope`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseEnvelope {
    /// The id of the request this line answers.
    pub id: String,
    /// The wrapped response.
    pub response: Response,
}

/// Metadata closing a sweep response stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Number of [`Response::Record`] lines streamed before this summary.
    pub records: usize,
    /// Labels of the design points evaluated, in record (column) order.
    pub designs: Vec<String>,
    /// Analysis-cache counters of the server's session *after* this sweep —
    /// a repeated identical request shows pure hits here.
    pub cache: CacheStats,
    /// Analyses the session's store holds (at most
    /// [`STORE_CAPACITY`](cassandra_core::eval::STORE_CAPACITY)).
    pub analyzed_programs: usize,
    /// The same plain-text rendering offline runs print
    /// (`cassandra_core::report::render_text` over the record stream).
    pub report: String,
}

/// One server response (one line on the wire).
// Record dominates the enum's size by design: it is the streamed payload
// and exists in bulk; boxing it would only add indirection (and the
// vendored serde shim does not derive through `Box`).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Liveness reply carrying [`PROTOCOL_VERSION`].
    Pong {
        /// The server's protocol revision.
        protocol: u32,
    },
    /// The standard design-point labels, in registration order.
    Policies {
        /// Policy labels (also valid in [`Request::Sweep`]).
        labels: Vec<String>,
    },
    /// The ingested workload names, in submission order.
    Workloads {
        /// Workload names (also valid in sweep requests).
        names: Vec<String>,
    },
    /// A workload was ingested (or replaced an identically named one).
    Submitted {
        /// The workload's name inside the session.
        name: String,
        /// Its library group (`BearSSL`, `OpenSSL`, `PQC`, `Synthetic`).
        group: String,
    },
    /// One evaluation record of a streaming sweep response.
    Record(EvalRecord),
    /// End of a sweep stream, with session metadata.
    Done(SweepSummary),
    /// The static-lint verdicts for a [`Request::Lint`], one row per
    /// workload in request order, plus the same plain-text table offline
    /// `lint` runs print.
    LintReport {
        /// Per-workload verdict rows.
        rows: Vec<LintRow>,
        /// `cassandra_core::report::render_text` over the rows.
        report: String,
    },
    /// A completed standard experiment for a [`Request::Experiment`]: the
    /// typed output plus the same plain-text rendering offline runs print.
    Experiment {
        /// Key of the experiment that ran.
        name: String,
        /// Human-readable title.
        title: String,
        /// The typed output (renderable with `cassandra_core::report`).
        output: ExperimentOutput,
        /// `cassandra_core::report::render_text` over the output.
        report: String,
    },
    /// Non-terminal progress line of a streamed run: how many workload
    /// simulations have completed out of a total that is fixed before the
    /// first one starts (so clients can render a stable bar). Streamed by
    /// `frontier` Experiment runs and (since v3) by `Sweep`/`GridSweep`
    /// (one line after each `Record`) and `Submit` (a single `1/1` line),
    /// always before the stream's terminal line; `cells_done` is strictly
    /// monotone and `cells_total` constant within one request.
    Progress {
        /// Simulations completed so far.
        cells_done: usize,
        /// Total simulations this run will perform (constant per run).
        cells_total: usize,
    },
    /// Terminal line of a sweep stream stopped by [`Request::Cancel`] (no
    /// further `Record`s follow), and the acknowledgement sent to the
    /// canceling connection. Analyses completed before the cancellation
    /// stay cached.
    Cancelled {
        /// The cancelled request's id.
        id: String,
    },
    /// Acknowledgement of [`Request::Shutdown`]; the server stops accepting
    /// connections after sending it.
    ShuttingDown,
    /// The error envelope: the request could not be parsed or served. The
    /// connection stays usable.
    Error {
        /// Human-readable description.
        message: String,
    },
}

impl Response {
    /// True for every response that terminates a request's reply stream
    /// (everything except the streamed [`Response::Record`] and
    /// [`Response::Progress`] lines).
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Response::Record(_) | Response::Progress { .. })
    }
}

/// Encodes one message as its single-line wire form (no trailing newline).
pub fn encode<T: Serialize>(message: &T) -> String {
    serde_json::to_string(message).expect("vendored serde_json is infallible")
}

/// Decodes one wire line into a message.
///
/// # Errors
///
/// Returns the underlying serde error on malformed JSON or a shape
/// mismatch.
pub fn decode<T: Deserialize>(line: &str) -> Result<T, serde_json::Error> {
    serde_json::from_str(line.trim())
}

/// True for a value shaped like an envelope: an object carrying an `id`
/// field plus the given payload field.
fn is_envelope(value: &serde::Value, payload: &str) -> bool {
    value.get_field("id").is_some() && value.get_field(payload).is_some()
}

/// Decodes one request line in either framing: a [`RequestEnvelope`]
/// (v2, `{"id":…,"request":…}`) yields `(Some(id), request)`, a bare
/// [`Request`] (v1) yields `(None, request)`.
///
/// # Errors
///
/// Returns the underlying serde error on malformed JSON or a line that is
/// neither framing.
pub fn decode_request(line: &str) -> Result<(Option<String>, Request), serde_json::Error> {
    let value: serde::Value = serde_json::from_str(line.trim())?;
    if is_envelope(&value, "request") {
        let envelope = RequestEnvelope::from_value(&value)?;
        Ok((Some(envelope.id), envelope.request))
    } else {
        Ok((None, Request::from_value(&value)?))
    }
}

/// Decodes one response line in either framing (the mirror of
/// [`decode_request`], used by clients).
///
/// # Errors
///
/// Returns the underlying serde error on malformed JSON or a line that is
/// neither framing.
pub fn decode_response(line: &str) -> Result<(Option<String>, Response), serde_json::Error> {
    let value: serde::Value = serde_json::from_str(line.trim())?;
    if is_envelope(&value, "response") {
        let envelope = ResponseEnvelope::from_value(&value)?;
        Ok((Some(envelope.id), envelope.response))
    } else {
        Ok((None, Response::from_value(&value)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_requests_are_bare_strings() {
        assert_eq!(encode(&Request::Ping), "\"Ping\"");
        assert_eq!(encode(&Request::ListPolicies), "\"ListPolicies\"");
        assert_eq!(
            decode::<Request>("\"Shutdown\"").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Ping,
            Request::ListPolicies,
            Request::ListWorkloads,
            Request::Submit {
                spec: WorkloadSpec::Suite {
                    name: "ChaCha20_ct".to_string(),
                },
            },
            Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "sha256".to_string(),
                    size: 128,
                    name: Some("my-hash".to_string()),
                },
            },
            Request::Sweep {
                workloads: vec!["ChaCha20_ct".to_string()],
                policies: vec!["Cassandra".to_string(), "Fence".to_string()],
            },
            Request::GridSweep {
                workloads: Vec::new(),
                grid: GridSpec {
                    defenses: vec!["Tournament".to_string()],
                    tournament_thresholds: vec![2, 8],
                    btu_partitions: Vec::new(),
                    btu_entries: vec![8],
                    miss_penalties: Vec::new(),
                    redirect_penalties: Vec::new(),
                },
            },
            Request::Lint {
                workloads: vec!["ChaCha20_ct".to_string()],
            },
            Request::Experiment {
                name: "consolidation".to_string(),
                workloads: Vec::new(),
            },
            Request::Cancel {
                id: "sweep-1".to_string(),
            },
            Request::Shutdown,
        ];
        for request in requests {
            let line = encode(&request);
            assert!(!line.contains('\n'), "framing must stay single-line");
            assert_eq!(decode::<Request>(&line).unwrap(), request);
        }
    }

    #[test]
    fn envelopes_round_trip_and_coexist_with_bare_framing() {
        let envelope = RequestEnvelope {
            id: "sweep-1".to_string(),
            request: Request::Sweep {
                workloads: Vec::new(),
                policies: vec!["Cassandra".to_string()],
            },
        };
        let line = encode(&envelope);
        assert!(line.starts_with("{\"id\":\"sweep-1\""), "{line}");
        assert_eq!(
            decode_request(&line).unwrap(),
            (Some("sweep-1".to_string()), envelope.request.clone())
        );

        // Bare v1 framing still decodes, with no id.
        assert_eq!(decode_request("\"Ping\"").unwrap(), (None, Request::Ping));
        assert_eq!(
            decode_request(&encode(&envelope.request)).unwrap(),
            (None, envelope.request)
        );

        // Responses mirror the request framing.
        let tagged = ResponseEnvelope {
            id: "sweep-1".to_string(),
            response: Response::Cancelled {
                id: "sweep-1".to_string(),
            },
        };
        let line = encode(&tagged);
        assert_eq!(
            decode_response(&line).unwrap(),
            (Some("sweep-1".to_string()), tagged.response.clone())
        );
        assert_eq!(
            decode_response(&encode(&tagged.response)).unwrap(),
            (None, tagged.response)
        );
        assert_eq!(
            decode_response("\"ShuttingDown\"").unwrap(),
            (None, Response::ShuttingDown)
        );
    }

    #[test]
    fn cancel_and_cancelled_are_terminal_and_single_line() {
        let cancel = Request::Cancel {
            id: "grid".to_string(),
        };
        assert_eq!(encode(&cancel), "{\"Cancel\":{\"id\":\"grid\"}}");
        let cancelled = Response::Cancelled {
            id: "grid".to_string(),
        };
        assert_eq!(encode(&cancelled), "{\"Cancelled\":{\"id\":\"grid\"}}");
        assert!(cancelled.is_terminal());
        assert_eq!(decode::<Response>(&encode(&cancelled)).unwrap(), cancelled);
    }

    #[test]
    fn lint_request_and_report_round_trip() {
        let lint = Request::Lint {
            workloads: Vec::new(),
        };
        assert_eq!(encode(&lint), "{\"Lint\":{\"workloads\":[]}}");
        assert_eq!(decode::<Request>(&encode(&lint)).unwrap(), lint);

        let report = Response::LintReport {
            rows: Vec::new(),
            report: "Workload ...\n".to_string(),
        };
        assert!(report.is_terminal(), "a lint reply is a single line");
        assert_eq!(decode::<Response>(&encode(&report)).unwrap(), report);
    }

    #[test]
    fn grid_spec_parses_defense_labels() {
        let spec = GridSpec {
            defenses: vec!["Cassandra-part".to_string(), "tournament".to_string()],
            tournament_thresholds: vec![4],
            btu_partitions: vec![2, 4],
            btu_entries: Vec::new(),
            miss_penalties: Vec::new(),
            redirect_penalties: Vec::new(),
        };
        let grid = spec.to_grid().unwrap();
        assert_eq!(
            grid.defenses,
            [DefenseMode::CassandraPartitioned, DefenseMode::Tournament]
        );
        assert_eq!(
            grid.len(),
            Some(4),
            "2 defenses x 1 threshold x 2 partitions"
        );
    }

    #[test]
    fn grid_spec_rejects_bad_input() {
        let empty = GridSpec {
            defenses: Vec::new(),
            tournament_thresholds: Vec::new(),
            btu_partitions: Vec::new(),
            btu_entries: Vec::new(),
            miss_penalties: Vec::new(),
            redirect_penalties: Vec::new(),
        };
        assert!(empty.to_grid().unwrap_err().contains("at least one"));
        let unknown = GridSpec {
            defenses: vec!["NotADefense".to_string()],
            ..empty
        };
        assert!(unknown.to_grid().unwrap_err().contains("NotADefense"));
    }

    #[test]
    fn grid_spec_bounds_every_limited_axis() {
        let at_limits = GridSpec {
            defenses: vec!["Cassandra".to_string()],
            tournament_thresholds: vec![u32::MAX],
            btu_partitions: vec![MAX_GRID_BTU_PARTITIONS],
            btu_entries: vec![MAX_GRID_BTU_ENTRIES],
            miss_penalties: vec![MAX_GRID_PENALTY],
            redirect_penalties: vec![MAX_GRID_PENALTY],
        };
        assert!(at_limits.to_grid().is_ok());
        let over = [
            GridSpec {
                btu_partitions: vec![2, MAX_GRID_BTU_PARTITIONS + 1],
                ..at_limits.clone()
            },
            GridSpec {
                btu_entries: vec![MAX_GRID_BTU_ENTRIES + 1],
                ..at_limits.clone()
            },
            GridSpec {
                miss_penalties: vec![MAX_GRID_PENALTY + 1],
                ..at_limits.clone()
            },
            GridSpec {
                redirect_penalties: vec![u64::MAX],
                ..at_limits.clone()
            },
        ];
        for (spec, axis) in over.iter().zip([
            "btu_partitions",
            "btu_entries",
            "miss_penalties",
            "redirect_penalties",
        ]) {
            let message = spec.to_grid().unwrap_err();
            assert!(message.contains(axis), "{message}");
        }
    }

    #[test]
    fn experiment_request_and_response_round_trip() {
        let request = Request::Experiment {
            name: "consolidation".to_string(),
            workloads: vec!["ChaCha20_ct".to_string()],
        };
        assert_eq!(
            encode(&request),
            "{\"Experiment\":{\"name\":\"consolidation\",\"workloads\":[\"ChaCha20_ct\"]}}"
        );
        assert_eq!(decode::<Request>(&encode(&request)).unwrap(), request);

        let response = Response::Experiment {
            name: "consolidation".to_string(),
            title: "Consolidation: N-tenant mixes on one shared core".to_string(),
            output: ExperimentOutput::Consolidation(
                cassandra_core::consolidation::ConsolidationResult {
                    tenant_count: 4,
                    quantum: 5_000,
                    policies: Vec::new(),
                },
            ),
            report: "Consolidation: 4 tenants\n".to_string(),
        };
        assert!(response.is_terminal(), "an experiment reply is one line");
        let line = encode(&response);
        assert!(!line.contains('\n'), "framing must stay single-line");
        assert_eq!(decode::<Response>(&line).unwrap(), response);
    }

    #[test]
    fn progress_lines_are_non_terminal_and_round_trip() {
        let progress = Response::Progress {
            cells_done: 3,
            cells_total: 24,
        };
        assert_eq!(
            encode(&progress),
            "{\"Progress\":{\"cells_done\":3,\"cells_total\":24}}"
        );
        assert!(!progress.is_terminal(), "a stream continues after Progress");
        assert_eq!(decode::<Response>(&encode(&progress)).unwrap(), progress);

        let tagged = ResponseEnvelope {
            id: "frontier-1".to_string(),
            response: progress.clone(),
        };
        assert_eq!(
            decode_response(&encode(&tagged)).unwrap(),
            (Some("frontier-1".to_string()), progress)
        );
    }

    #[test]
    fn removed_store_snapshot_requests_do_not_decode() {
        assert!(decode_request("{\"SnapshotShard\":{\"shard\":0}}").is_err());
        assert!(decode_request("{\"AbsorbSnapshot\":{\"snapshot\":{\"entries\":[]}}}").is_err());
        assert!(decode_request(
            "{\"id\":\"a\",\"request\":{\"AbsorbSnapshot\":{\"snapshot\":{\"entries\":[]}}}}"
        )
        .is_err());
    }

    #[test]
    fn error_envelope_round_trips() {
        let resp = Response::Error {
            message: "invalid request: expected `,` or `}` in JSON object".to_string(),
        };
        let line = encode(&resp);
        assert!(line.starts_with("{\"Error\""));
        assert_eq!(decode::<Response>(&line).unwrap(), resp);
        assert!(resp.is_terminal());
    }
}

//! Loopback integration tests: a real server thread driven over TCP, with
//! the results cross-checked against a direct offline `SweepExecutor` run.

use cassandra_core::eval::{AnalysisStore, EvalRecord, SweepExecutor};
use cassandra_core::policies::PolicyRegistry;
use cassandra_kernels::suite;
use cassandra_server::protocol::{MAX_REQUEST_LINE, MAX_RESPONSE_LINE};
use cassandra_server::{
    serve, Client, EvalService, GridSpec, Request, Response, SweepSummary, WorkloadSpec,
    PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

fn start() -> (cassandra_server::ServerHandle, Client) {
    let handle = serve("127.0.0.1:0", EvalService::new(), 2).expect("bind loopback");
    let client = Client::connect(handle.addr()).expect("connect");
    (handle, client)
}

fn submit_quick_pair(client: &mut Client) {
    for spec in [
        WorkloadSpec::Kernel {
            family: "chacha20".to_string(),
            size: 64,
            name: None,
        },
        WorkloadSpec::Suite {
            name: "DES_ct".to_string(),
        },
    ] {
        let responses = client.request(&Request::Submit { spec }).unwrap();
        assert!(
            matches!(responses.last(), Some(Response::Submitted { .. })),
            "{responses:?}"
        );
    }
}

fn quick_grid() -> GridSpec {
    GridSpec {
        defenses: vec!["Cassandra".to_string(), "Tournament".to_string()],
        tournament_thresholds: vec![2],
        btu_partitions: Vec::new(),
        btu_entries: vec![8, 16],
        miss_penalties: Vec::new(),
        redirect_penalties: Vec::new(),
    }
}

/// Splits a sweep response stream into its records and closing summary,
/// checking the interleaved `Progress` lines count every record exactly
/// once: `cells_done` is strictly monotone, `cells_total` never changes.
fn split_stream(responses: Vec<Response>) -> (Vec<EvalRecord>, SweepSummary) {
    let mut records = Vec::new();
    let mut summary = None;
    let mut last_done = 0usize;
    let mut total = None;
    for response in responses {
        match response {
            Response::Record(record) => records.push(record),
            Response::Progress {
                cells_done,
                cells_total,
            } => {
                assert!(
                    cells_done > last_done,
                    "progress must be strictly monotone ({last_done} -> {cells_done})"
                );
                last_done = cells_done;
                assert_eq!(
                    *total.get_or_insert(cells_total),
                    cells_total,
                    "cells_total must be constant across the stream"
                );
            }
            Response::Done(done) => summary = Some(done),
            other => panic!("unexpected response in sweep stream: {other:?}"),
        }
    }
    if let Some(total) = total {
        assert_eq!(last_done, total, "the final progress line covers the grid");
        assert_eq!(total, records.len(), "one progress tick per record");
    }
    (records, summary.expect("sweep stream must end with Done"))
}

/// The wire form of a record with wall-clock times zeroed: everything else
/// (stats, labels, cache flags) must match an offline run byte for byte.
fn canonical_json(record: &EvalRecord) -> String {
    let mut record = record.clone();
    record.timing.analysis = Duration::ZERO;
    record.timing.simulate = Duration::ZERO;
    serde_json::to_string(&record).expect("serialize record")
}

#[test]
fn grid_sweep_matches_offline_evaluator_byte_for_byte() {
    let (handle, mut client) = start();
    submit_quick_pair(&mut client);

    let responses = client
        .request(&Request::GridSweep {
            workloads: Vec::new(),
            grid: quick_grid(),
        })
        .unwrap();
    let (records, summary) = split_stream(responses);

    // Offline reference: the same grid expanded by the same code, swept by a
    // fresh executor over the same workloads.
    let designs = quick_grid().to_grid().unwrap().expand().designs().to_vec();
    let workloads = vec![suite::chacha20_workload(64), suite::des_workload(32)];
    let store = AnalysisStore::new();
    let expected = SweepExecutor::new(&store)
        .sweep_matrix(&workloads, &designs)
        .unwrap();

    assert_eq!(summary.records, records.len());
    assert_eq!(records.len(), expected.len(), "2 workloads × 4 grid cells");
    for (served, local) in records.iter().zip(&expected) {
        assert_eq!(
            canonical_json(served),
            canonical_json(local),
            "{}/{} diverged between server and offline run",
            served.workload,
            served.design
        );
    }

    // The summary reuses the offline Experiment formatter verbatim.
    assert_eq!(
        summary.report,
        cassandra_core::report::render_text(&cassandra_core::registry::ExperimentOutput::Records(
            expected
        ))
    );
    // The threshold axis annotates every base defense (it is ignored by
    // non-tournament frontends but kept in the label for self-description).
    assert_eq!(
        summary.designs,
        [
            "Cassandra+btu8+thr2",
            "Cassandra+thr2",
            "Tournament+btu8+thr2",
            "Tournament+thr2"
        ]
    );

    client.request(&Request::Shutdown).unwrap();
    handle.join();
}

/// Sweeps stream one `Progress` line per completed cell in the pinned PR 9
/// wire encoding, and `Submit` reports its single unit of work the same
/// way. (The monotone/constant invariants are asserted by `split_stream`
/// on every sweep in this suite; this test pins the raw bytes.)
#[test]
fn sweeps_and_submit_stream_pinned_progress_lines() {
    let (_handle, mut client) = start();

    let responses = client
        .request(&Request::Submit {
            spec: WorkloadSpec::Kernel {
                family: "chacha20".to_string(),
                size: 64,
                name: None,
            },
        })
        .unwrap();
    assert_eq!(
        responses.first(),
        Some(&Response::Progress {
            cells_done: 1,
            cells_total: 1
        }),
        "Submit reports its single unit of work before Submitted"
    );
    assert!(matches!(responses.last(), Some(Response::Submitted { .. })));

    // The raw wire bytes of a sweep's progress lines are the pinned PR 9
    // encoding — read the stream line by line instead of via the client's
    // decoder.
    client
        .send(&Request::Sweep {
            workloads: Vec::new(),
            policies: vec!["UnsafeBaseline".to_string(), "Cassandra".to_string()],
        })
        .unwrap();
    let mut progress_lines = Vec::new();
    loop {
        let (_, response) = client.recv_tagged().unwrap();
        if let Response::Progress {
            cells_done,
            cells_total,
        } = &response
        {
            progress_lines.push(format!(
                "{{\"Progress\":{{\"cells_done\":{cells_done},\"cells_total\":{cells_total}}}}}"
            ));
            assert_eq!(
                serde_json::to_string(&response).unwrap(),
                progress_lines.last().unwrap().as_str(),
                "Progress keeps the pinned PR 9 field order"
            );
        }
        if response.is_terminal() {
            break;
        }
    }
    assert_eq!(
        progress_lines,
        [
            "{\"Progress\":{\"cells_done\":1,\"cells_total\":2}}",
            "{\"Progress\":{\"cells_done\":2,\"cells_total\":2}}"
        ]
    );
}

#[test]
fn second_identical_request_is_served_from_the_analysis_cache() {
    let (_handle, mut client) = start();
    submit_quick_pair(&mut client);

    let first = client
        .request(&Request::GridSweep {
            workloads: Vec::new(),
            grid: quick_grid(),
        })
        .unwrap();
    let (first_records, first_summary) = split_stream(first);
    assert_eq!(first_summary.cache.misses, 2, "one analysis per workload");
    assert!(first_records.iter().all(|r| !r.timing.analysis_cached));

    let second = client
        .request(&Request::GridSweep {
            workloads: Vec::new(),
            grid: quick_grid(),
        })
        .unwrap();
    let (second_records, second_summary) = split_stream(second);

    // No new analyses; the memoized bundles served the repeat request.
    assert_eq!(second_summary.cache.misses, first_summary.cache.misses);
    assert!(
        second_summary.cache.hits >= first_summary.cache.hits + 2,
        "repeat request must hit the cache: {:?} -> {:?}",
        first_summary.cache,
        second_summary.cache
    );
    assert_eq!(second_summary.analyzed_programs, 2);
    assert!(second_records.iter().all(|r| r.timing.analysis_cached));

    // And the simulations themselves are deterministic.
    for (a, b) in first_records.iter().zip(&second_records) {
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.design, b.design);
    }
}

#[test]
fn grid_cells_do_not_outlive_their_request() {
    let (_handle, mut client) = start();
    submit_quick_pair(&mut client);

    // Two different grids, both naming `Tournament+thr2`, each served in
    // full.
    let overlapping = GridSpec {
        defenses: vec!["Tournament".to_string()],
        tournament_thresholds: vec![2, 8],
        ..quick_grid()
    };
    for grid in [quick_grid(), overlapping] {
        let responses = client
            .request(&Request::GridSweep {
                workloads: Vec::new(),
                grid,
            })
            .unwrap();
        let (_, summary) = split_stream(responses);
        assert!(summary.designs.iter().any(|d| d == "Tournament+thr2"));
    }

    // The session's policy set is still exactly the standard one…
    let responses = client.request(&Request::ListPolicies).unwrap();
    let [Response::Policies { labels }] = responses.as_slice() else {
        panic!("expected Policies, got {responses:?}");
    };
    assert_eq!(labels, &PolicyRegistry::standard().labels());

    // …so a Sweep cannot address a grid cell by label.
    let responses = client
        .request(&Request::Sweep {
            workloads: Vec::new(),
            policies: vec!["Tournament+thr2".to_string()],
        })
        .unwrap();
    assert!(
        matches!(&responses[..], [Response::Error { message }]
            if message.contains("unknown policy `Tournament+thr2`")),
        "{responses:?}"
    );

    let responses = client.request(&Request::Ping).unwrap();
    assert_eq!(responses, [Response::Pong { protocol: 5 }]);
}

#[test]
fn malformed_requests_get_an_error_envelope_and_the_connection_survives() {
    let (_handle, mut client) = start();

    // Unparseable JSON.
    let responses = client.request_raw("{this is not json").unwrap();
    assert!(
        matches!(&responses[0], Response::Error { message } if message.contains("invalid request")),
        "{responses:?}"
    );

    // Valid JSON, wrong shape.
    let responses = client.request_raw("{\"NoSuchRequest\": {}}").unwrap();
    assert!(
        matches!(&responses[0], Response::Error { .. }),
        "{responses:?}"
    );

    // Unknown workload spec inside a valid request.
    let responses = client
        .request(&Request::Submit {
            spec: WorkloadSpec::Suite {
                name: "NotAWorkload".to_string(),
            },
        })
        .unwrap();
    assert!(
        matches!(&responses[0], Response::Error { message } if message.contains("NotAWorkload")),
        "{responses:?}"
    );

    // The same connection still serves well-formed requests.
    let responses = client.request(&Request::Ping).unwrap();
    assert_eq!(
        responses,
        [Response::Pong {
            protocol: PROTOCOL_VERSION
        }]
    );
}

#[test]
fn out_of_range_grid_values_get_an_error_and_the_connection_survives() {
    let (_handle, mut client) = start();
    submit_quick_pair(&mut client);
    let registered = client.request(&Request::ListPolicies).unwrap();
    let grid = |defense: &str| GridSpec {
        defenses: vec![defense.to_string()],
        tournament_thresholds: Vec::new(),
        btu_partitions: Vec::new(),
        btu_entries: Vec::new(),
        miss_penalties: Vec::new(),
        redirect_penalties: Vec::new(),
    };
    // Each value once aborted the process (a 2^40-partition BTU) or
    // overflowed a cycle count (a penalty of u64::MAX).
    let hostile = [
        GridSpec {
            btu_partitions: vec![1 << 40],
            ..grid("Cassandra-part")
        },
        GridSpec {
            btu_entries: vec![usize::MAX],
            ..grid("Cassandra")
        },
        GridSpec {
            btu_entries: vec![0],
            miss_penalties: vec![u64::MAX],
            ..grid("Cassandra")
        },
        GridSpec {
            redirect_penalties: vec![u64::MAX],
            ..grid("UnsafeBaseline")
        },
    ];
    for (spec, axis) in hostile.into_iter().zip([
        "btu_partitions",
        "btu_entries",
        "miss_penalties",
        "redirect_penalties",
    ]) {
        let responses = client
            .request(&Request::GridSweep {
                workloads: Vec::new(),
                grid: spec,
            })
            .unwrap();
        assert!(
            matches!(&responses[..], [Response::Error { message }] if message.contains(axis)),
            "{responses:?}"
        );
        let responses = client.request(&Request::Ping).unwrap();
        assert_eq!(
            responses,
            [Response::Pong {
                protocol: PROTOCOL_VERSION
            }]
        );
    }
    // Nothing was registered for the rejected grids.
    assert_eq!(client.request(&Request::ListPolicies).unwrap(), registered);
}

#[test]
fn two_clients_share_one_session() {
    let (handle, mut first) = start();
    submit_quick_pair(&mut first);
    let responses = first
        .request(&Request::Sweep {
            workloads: vec!["DES_ct".to_string()],
            policies: vec!["Cassandra".to_string()],
        })
        .unwrap();
    let (_, summary) = split_stream(responses);
    assert_eq!(summary.cache.misses, 1);

    // A second client sees the submitted workloads and hits the same cache.
    let mut second = Client::connect(handle.addr()).unwrap();
    let responses = second.request(&Request::ListWorkloads).unwrap();
    let Response::Workloads { names } = &responses[0] else {
        panic!("expected Workloads, got {responses:?}");
    };
    assert_eq!(names, &["ChaCha20_ct", "DES_ct"]);

    let responses = second
        .request(&Request::Sweep {
            workloads: vec!["DES_ct".to_string()],
            policies: vec!["Cassandra".to_string()],
        })
        .unwrap();
    let (records, summary) = split_stream(responses);
    assert_eq!(summary.cache.misses, 1, "no re-analysis for client #2");
    assert!(summary.cache.hits >= 1);
    assert!(records[0].timing.analysis_cached);
}

#[test]
fn shutdown_request_stops_the_server_cleanly() {
    let (handle, mut client) = start();
    let responses = client.request(&Request::Shutdown).unwrap();
    assert_eq!(responses, [Response::ShuttingDown]);
    // join() only returns once the accept loop and workers have exited.
    handle.join();
}

#[test]
fn shutdown_with_unwritable_cache_file_completes_but_reports_the_failure() {
    // A directory path is a guaranteed-unwritable snapshot target on every
    // platform the suite runs on.
    let service = EvalService::new().with_cache_file(std::env::temp_dir());
    let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).unwrap();

    // The failed snapshot surfaces as an Error line *before* ShuttingDown;
    // read the stream manually since Error is itself a terminal response.
    client.send(&Request::Shutdown).unwrap();
    let first = client.recv().unwrap();
    assert!(
        matches!(&first, Response::Error { message } if message.contains("not saved")),
        "expected the snapshot failure, got {first:?}"
    );
    let second = client.recv().unwrap();
    assert_eq!(second, Response::ShuttingDown);

    // The failure must not wedge the shutdown: the accept loop and workers
    // still exit.
    handle.join();
}

#[test]
fn consolidation_experiment_runs_over_the_wire() {
    let (_handle, mut client) = start();

    // Experiments need workloads, like sweeps.
    let responses = client
        .request(&Request::Experiment {
            name: "consolidation".to_string(),
            workloads: Vec::new(),
        })
        .unwrap();
    assert!(
        matches!(&responses[0], Response::Error { message } if message.contains("Submit")),
        "{responses:?}"
    );

    submit_quick_pair(&mut client);

    // Unknown experiment names are error envelopes listing the registry.
    let responses = client
        .request(&Request::Experiment {
            name: "nope".to_string(),
            workloads: Vec::new(),
        })
        .unwrap();
    assert!(
        matches!(&responses[0], Response::Error { message }
            if message.contains("nope") && message.contains("consolidation")),
        "{responses:?}"
    );

    let responses = client
        .request(&Request::Experiment {
            name: "consolidation".to_string(),
            workloads: Vec::new(),
        })
        .unwrap();
    let [Response::Experiment {
        name,
        title,
        output,
        report,
    }] = responses.as_slice()
    else {
        panic!("expected one Experiment response, got {responses:?}");
    };
    assert_eq!(name, "consolidation");
    assert!(title.contains("Consolidation"));
    let cassandra_core::registry::ExperimentOutput::Consolidation(result) = output else {
        panic!("expected Consolidation output, got {output:?}");
    };
    // The standard registry experiment: a 4-tenant mix cycled from the two
    // submitted workloads, under all three switch policies, with per-context
    // BTU statistics and per-tenant slowdowns vs solo.
    assert_eq!(result.tenant_count, 4);
    assert_eq!(
        result
            .policies
            .iter()
            .map(|p| p.policy.as_str())
            .collect::<Vec<_>>(),
        ["flush", "partition", "scheduler"]
    );
    for policy in &result.policies {
        assert_eq!(policy.tenants.len(), 4);
        assert!(policy.context_switches > 0, "{}", policy.policy);
        for tenant in &policy.tenants {
            assert!(tenant.btu.lookups > 0, "{}", tenant.workload);
            assert!((0.0..=1.0).contains(&tenant.btu.hit_rate()));
            assert!(tenant.slowdown.is_finite() && tenant.slowdown > 0.0);
            assert!(tenant.solo_cycles > 0);
        }
    }
    // The wire report is the offline text rendering, verbatim.
    assert_eq!(report, &cassandra_core::report::render_text(output));
    assert!(report.contains("Policy flush"));
    assert!(report.contains("HitRate"));
}

/// A raw connection to `handle`, with a read timeout so a server that
/// never answers fails the test instead of hanging it.
fn raw_connect(handle: &cassandra_server::ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (stream, reader)
}

/// A request split inside a multi-byte character, with a pause longer
/// than the server's read poll between the halves, is still read whole.
#[test]
fn request_split_mid_character_across_a_pause_is_answered() {
    let (handle, _client) = start();
    let (mut stream, mut reader) = raw_connect(&handle);
    let line = "{\"Submit\":{\"spec\":{\"Suite\":{\"name\":\"wörk\"}}}}\n".as_bytes();
    // Cut between the two bytes of `ö`.
    let cut = line.iter().position(|&b| b == 0xc3).unwrap() + 1;
    stream.write_all(&line[..cut]).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));
    stream.write_all(&line[cut..]).unwrap();

    let mut reply = String::new();
    let read = reader.read_line(&mut reply).unwrap();
    assert_ne!(read, 0, "the server dropped the connection");
    let (_, response) = cassandra_server::protocol::decode_response(&reply).unwrap();
    assert!(
        matches!(&response, Response::Error { message } if message.contains("`wörk`")),
        "{reply}"
    );
}

/// A request line over the cap gets one `Error`, then the server closes
/// the connection.
#[test]
fn overlong_request_line_gets_an_error_then_eof() {
    let (handle, _client) = start();
    let (mut stream, mut reader) = raw_connect(&handle);
    stream.write_all(&vec![b'a'; MAX_REQUEST_LINE + 1]).unwrap();

    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    let (_, response) = cassandra_server::protocol::decode_response(&reply).unwrap();
    assert!(
        matches!(&response, Response::Error { message } if message.contains("exceeds")),
        "{reply}"
    );
    reply.clear();
    assert_eq!(
        reader.read_line(&mut reply).unwrap(),
        0,
        "then EOF: {reply}"
    );
}

/// The client bounds response lines too: a peer that sends more than the
/// cap without a newline gets `InvalidData`, not an ever-growing buffer.
#[test]
fn overlong_response_line_is_invalid_data() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // The client hangs up once it has read the cap; a write error after
        // that is expected.
        let _ = stream.write_all(&vec![b'a'; MAX_RESPONSE_LINE + 1]);
    });
    let mut client = Client::connect(addr).unwrap();
    let err = client.recv().unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(err.to_string().contains("exceeds"), "{err}");
    drop(client);
    peer.join().unwrap();
}

#[test]
fn cache_file_warm_starts_a_restarted_server() {
    let path =
        std::env::temp_dir().join(format!("cassandra-warm-start-{}.json", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let sweep = Request::Sweep {
        workloads: Vec::new(),
        policies: vec!["Cassandra".to_string(), "UnsafeBaseline".to_string()],
    };

    // First server lifetime: analyze two workloads, then a clean Shutdown
    // serializes the analysis store to the cache file.
    {
        let service = EvalService::new().with_cache_file(&path);
        let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        submit_quick_pair(&mut client);
        let (_, summary) = split_stream(client.request(&sweep).unwrap());
        assert_eq!(summary.cache.misses, 2, "cold start analyzes");
        client.request(&Request::Shutdown).unwrap();
        handle.join();
    }
    assert!(path.exists(), "clean Shutdown must write the snapshot");

    // Second lifetime: the store warm-starts from disk, so the same sweep
    // never runs Algorithm 2 — warmed entries surface as pure hits.
    {
        let service = EvalService::new().with_cache_file(&path);
        let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        submit_quick_pair(&mut client);
        let (records, summary) = split_stream(client.request(&sweep).unwrap());
        assert_eq!(summary.cache.misses, 0, "warm start: {:?}", summary.cache);
        assert_eq!(summary.cache.hits, 2);
        assert_eq!(summary.analyzed_programs, 2);
        assert!(records.iter().all(|r| r.timing.analysis_cached));
        client.request(&Request::Shutdown).unwrap();
        handle.join();
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn missing_or_corrupt_cache_file_starts_cold() {
    let path = std::env::temp_dir().join(format!(
        "cassandra-corrupt-cache-{}.json",
        std::process::id()
    ));
    std::fs::write(&path, "{not a snapshot").unwrap();
    let service = EvalService::new().with_cache_file(&path);
    assert!(service.store().is_empty(), "corrupt snapshots are ignored");
    let missing = EvalService::new()
        .with_cache_file(std::env::temp_dir().join("cassandra-never-written.json"));
    assert!(missing.store().is_empty());
    let _ = std::fs::remove_file(&path);
}

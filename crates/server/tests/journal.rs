//! Incremental cache-journal integration tests: completed analyses are
//! appended to `--cache-file` as they happen, so an *aborted* server (no
//! clean `Shutdown`) still restarts warm; a corrupt journal tail keeps the
//! valid prefix, and a garbage-only or old-format journal boots cold
//! without panicking.

use cassandra_server::{serve, Client, EvalService, Request, Response, WorkloadSpec};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn journal_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cassandra-journal-{tag}-{}.jsonl",
        std::process::id()
    ))
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

fn sweep() -> Request {
    Request::Sweep {
        workloads: Vec::new(),
        policies: vec!["Cassandra".to_string(), "UnsafeBaseline".to_string()],
    }
}

/// Runs one server lifetime against `path` and returns the sweep's cache
/// counters; `clean` issues a `Shutdown` request (which compacts the
/// journal), otherwise the handle is dropped without one — the abort case.
fn lifetime(path: &Path, clean: bool) -> (u64, u64) {
    let service = EvalService::new().with_cache_file(path);
    let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).unwrap();
    submit_quick_pair(&mut client);
    let responses = client.request(&sweep()).unwrap();
    let Some(Response::Done(summary)) = responses.last() else {
        panic!("expected Done, got {:?}", responses.last());
    };
    let counters = (summary.cache.hits, summary.cache.misses);
    if clean {
        client.request(&Request::Shutdown).unwrap();
        handle.join();
    }
    // !clean: the handle drops here without a Shutdown request — the
    // journal never compacts and save_cache never runs, like a crash
    // between appends.
    counters
}

/// An aborted server (dropped handle, no `Shutdown`) leaves its per-entry
/// journal appends on disk: the restarted server replays them and the
/// repeat sweep is pure cache hits.
#[test]
fn aborted_server_restarts_warm_from_the_journal() {
    let path = journal_path("abort");
    let _ = std::fs::remove_file(&path);

    let (_, misses) = lifetime(&path, false);
    assert_eq!(misses, 2, "cold start analyzes both workloads");

    // The journal holds one SnapshotEntry line per fresh analysis — no
    // compacted snapshot, because nothing ever shut down cleanly.
    let journal = std::fs::read_to_string(&path).expect("journal written incrementally");
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 2, "one appended line per analysis:\n{journal}");
    assert!(
        lines.iter().all(|l| l.contains("\"fingerprint\"")),
        "appended lines are individual entries:\n{journal}"
    );

    let (hits, misses) = lifetime(&path, false);
    assert_eq!(misses, 0, "replayed journal serves the repeat sweep");
    assert_eq!(hits, 2);
    let _ = std::fs::remove_file(&path);
}

/// A clean `Shutdown` compacts the journal to a single snapshot line,
/// which also warm-starts the next lifetime.
#[test]
fn clean_shutdown_compacts_the_journal_to_one_snapshot_line() {
    let path = journal_path("compact");
    let _ = std::fs::remove_file(&path);

    let (_, misses) = lifetime(&path, true);
    assert_eq!(misses, 2);
    let journal = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = journal.lines().collect();
    assert_eq!(lines.len(), 1, "compaction folds the appends:\n{journal}");
    assert!(
        lines[0].starts_with("{\"entries\":["),
        "the compacted line is a whole-store snapshot:\n{journal}"
    );

    let (hits, misses) = lifetime(&path, true);
    assert_eq!(misses, 0, "the snapshot warm-starts the next lifetime");
    assert_eq!(hits, 2);
    let _ = std::fs::remove_file(&path);
}

/// Compaction writes a sibling file and renames it over the journal rather
/// than truncating the live file: a reader that opened the journal before
/// the compaction still sees every pre-compaction byte (an in-place
/// rewrite would hand it the new snapshot, or a partial line after a kill
/// mid-write), and no temporary file is left behind.
#[test]
fn compaction_replaces_the_journal_without_truncating_it() {
    let path = journal_path("replace");
    let _ = std::fs::remove_file(&path);
    lifetime(&path, false);
    let appended = std::fs::read_to_string(&path).expect("both analyses are journaled");
    let mut early_reader = std::fs::File::open(&path).unwrap();

    let service = EvalService::new().with_cache_file(&path);
    assert_eq!(service.save_cache().unwrap(), 2);
    let mut seen = String::new();
    early_reader.read_to_string(&mut seen).unwrap();
    assert_eq!(seen, appended, "the pre-compaction file must stay whole");
    let journal = std::fs::read_to_string(&path).unwrap();
    assert_eq!(journal.lines().count(), 1, "{journal}");
    assert!(journal.starts_with("{\"entries\":["), "{journal}");

    let name = path.file_name().unwrap().to_string_lossy().into_owned();
    let leftovers: Vec<String> = std::fs::read_dir(path.parent().unwrap())
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|other| other.starts_with(&name) && *other != name)
        .collect();
    assert!(leftovers.is_empty(), "temporary files left: {leftovers:?}");
    let _ = std::fs::remove_file(&path);
}

/// A corrupt tail (crash mid-append) costs only the truncated line: replay
/// keeps every valid line before it, logs a warning, and does not panic.
#[test]
fn corrupt_journal_tail_keeps_the_valid_prefix() {
    let path = journal_path("tail");
    let _ = std::fs::remove_file(&path);

    let (_, misses) = lifetime(&path, false);
    assert_eq!(misses, 2);

    // Simulate a crash mid-append: a truncated, unparseable final line.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(b"{\"fingerprint\":12345,\"elapsed\"")
        .unwrap();
    drop(file);

    let (hits, misses) = lifetime(&path, false);
    assert_eq!(
        misses, 0,
        "the two valid lines before the corrupt tail must replay"
    );
    assert_eq!(hits, 2);
    let _ = std::fs::remove_file(&path);
}

/// Replay does not just tolerate a corrupt tail — it *repairs* the file
/// (compacting the valid prefix back to one snapshot line), so analyses
/// journaled after the corruption survive the next restart. Without the
/// repair, the first post-corruption append concatenates onto the
/// newline-less partial line, destroying that entry and stranding every
/// later one behind the corruption.
#[test]
fn corrupt_tail_is_repaired_so_later_appends_survive() {
    let path = journal_path("repair");
    let _ = std::fs::remove_file(&path);

    let (_, misses) = lifetime(&path, false);
    assert_eq!(misses, 2);

    // Crash mid-append: a truncated final line with no trailing newline.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    file.write_all(b"{\"fingerprint\":12345,\"elapsed\"")
        .unwrap();
    drop(file);

    // This lifetime replays the two-entry prefix (repairing the file) and
    // then journals a *third* analysis the prefix has not seen — and is
    // aborted without a clean Shutdown, so only the repair plus the append
    // persist it.
    {
        let service = EvalService::new().with_cache_file(&path);
        let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        submit_quick_pair(&mut client);
        let responses = client
            .request(&Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "sha256".to_string(),
                    size: 64,
                    name: None,
                },
            })
            .unwrap();
        assert!(matches!(responses.last(), Some(Response::Submitted { .. })));
        let responses = client.request(&sweep()).unwrap();
        let Some(Response::Done(summary)) = responses.last() else {
            panic!("expected Done, got {:?}", responses.last());
        };
        assert_eq!(
            summary.cache.misses, 1,
            "only the new sha256 workload is analyzed: {:?}",
            summary.cache
        );
        drop(handle); // Abort: no Shutdown, no closing compaction.
    }

    // The next lifetime must replay all three analyses: the repaired
    // prefix *and* the post-corruption append.
    {
        let service = EvalService::new().with_cache_file(&path);
        let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
        let mut client = Client::connect(handle.addr()).unwrap();
        submit_quick_pair(&mut client);
        let responses = client
            .request(&Request::Submit {
                spec: WorkloadSpec::Kernel {
                    family: "sha256".to_string(),
                    size: 64,
                    name: None,
                },
            })
            .unwrap();
        assert!(matches!(responses.last(), Some(Response::Submitted { .. })));
        let responses = client.request(&sweep()).unwrap();
        let Some(Response::Done(summary)) = responses.last() else {
            panic!("expected Done, got {:?}", responses.last());
        };
        assert_eq!(
            summary.cache.misses, 0,
            "the post-repair append must replay alongside the valid prefix: {:?}",
            summary.cache
        );
        assert_eq!(summary.cache.hits, 3);
    }
    let _ = std::fs::remove_file(&path);
}

/// A journal that is garbage from the first line boots cold — a logged
/// warning, an empty store, no panic.
#[test]
fn garbage_journal_boots_cold_without_panicking() {
    let path = journal_path("garbage");
    std::fs::write(&path, "this is not a journal\n{nor is this\n").unwrap();

    let service = EvalService::new().with_cache_file(&path);
    assert!(
        service.store().is_empty(),
        "garbage journals must be ignored, not replayed"
    );

    // The service still works (and journals fresh analyses) on top of it.
    let (_, misses) = lifetime(&path, false);
    assert_eq!(misses, 2, "cold start after a garbage journal");
    let _ = std::fs::remove_file(&path);
}

/// Journals written by older servers no longer parse: v3 entries carried
/// the whole Algorithm 2 output, and v4 entries held the encoding in
/// per-branch maps beside a per-branch summary (both captured from live
/// sessions). The server boots cold with the corrupt-journal warning,
/// rewrites the file, and journals on top of it.
#[test]
fn old_format_journal_boots_cold_and_is_rewritten() {
    for (version, old, marker) in [
        (
            "v3",
            include_str!("fixtures/cache_journal_v3.jsonl"),
            "\"bundle\":{\"program_name\"",
        ),
        (
            "v4",
            include_str!("fixtures/cache_journal_v4.jsonl"),
            "\"encoded\":{\"traces\":{",
        ),
    ] {
        let path = journal_path(version);
        assert!(old.contains(marker), "a {version} entry");
        assert_eq!(old.lines().count(), 1, "a one-line {version} journal");
        std::fs::write(&path, old).unwrap();

        let service = EvalService::new().with_cache_file(&path);
        assert!(
            service.store().is_empty(),
            "a {version} entry must not replay"
        );
        let rewritten = std::fs::read_to_string(&path).unwrap();
        assert_eq!(rewritten, "{\"entries\":[]}\n", "replay rewrites the file");
        drop(service);

        let (_, misses) = lifetime(&path, false);
        assert_eq!(misses, 2, "cold start over the {version} journal");
        let (hits, misses) = lifetime(&path, false);
        assert_eq!(misses, 0, "appends after the rewrite survive a restart");
        assert_eq!(hits, 2);
        let _ = std::fs::remove_file(&path);
    }
}

/// The records and cache counters of a `Sweep` of the chacha20 kernel on a
/// server booted from `path`; the handle is dropped without a `Shutdown`,
/// so the journal keeps its appended lines.
fn chacha20_sweep(path: &Path) -> (Vec<String>, u64) {
    let service = EvalService::new().with_cache_file(path);
    let handle = serve("127.0.0.1:0", service, 2).expect("bind loopback");
    let mut client = Client::connect(handle.addr()).unwrap();
    let spec = WorkloadSpec::Kernel {
        family: "chacha20".to_string(),
        size: 64,
        name: None,
    };
    let responses = client.request(&Request::Submit { spec }).unwrap();
    assert!(matches!(responses.last(), Some(Response::Submitted { .. })));
    let mut records = Vec::new();
    let mut misses = None;
    for response in client.request(&sweep()).unwrap() {
        match response {
            Response::Record(mut record) => {
                record.timing.analysis = Duration::ZERO;
                record.timing.simulate = Duration::ZERO;
                records.push(serde_json::to_string(&record).unwrap());
            }
            Response::Done(summary) => misses = Some(summary.cache.misses),
            _ => {}
        }
    }
    drop(handle);
    (records, misses.expect("sweep stream must end with Done"))
}

/// A journal entry whose largest branch PC lies far past the end of its
/// program would make every BTU built from it allocate PC-indexed tables
/// of that size (about 48 GB here). The store drops such an entry at
/// lookup and analyzes the program afresh, so the sweep streams the same
/// records as a cold store.
#[test]
fn out_of_range_branch_pc_in_the_journal_is_reanalyzed() {
    let path = journal_path("pc-range");
    let _ = std::fs::remove_file(&path);

    let (cold, misses) = chacha20_sweep(&path);
    assert_eq!(misses, 1, "cold start analyzes the kernel");
    assert!(!cold.is_empty());

    // Rewrite the entry's last (largest) branch PC.
    let journal = std::fs::read_to_string(&path).unwrap();
    assert_eq!(journal.lines().count(), 1, "one appended entry:\n{journal}");
    let branches = journal.find("\"branches\":[").expect("an encoded entry");
    let end = branches + journal[branches..].find(']').unwrap();
    let pc = branches + journal[branches..end].rfind("\"pc\":").expect("a branch") + 5;
    let digits = journal[pc..].find(|c: char| !c.is_ascii_digit()).unwrap();
    let tampered = format!("{}4000000000{}", &journal[..pc], &journal[pc + digits..]);
    std::fs::write(&path, tampered).unwrap();
    assert_eq!(
        EvalService::new().with_cache_file(&path).store().len(),
        1,
        "the tampered entry passes the journal's own checks"
    );

    let (warm, misses) = chacha20_sweep(&path);
    assert_eq!(misses, 1, "the tampered entry is analyzed again");
    assert_eq!(warm, cold, "records match a cold store's");
    let _ = std::fs::remove_file(&path);
}

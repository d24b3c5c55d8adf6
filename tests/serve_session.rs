//! Integration tests for the `bagcons serve` daemon: concurrent clients
//! over loopback, bit-identical decision traces against sequential
//! replay, protocol-error recovery, timeouts, disconnects, and graceful
//! shutdown. No sleeps anywhere — all ordering is via barriers and the
//! request/response framing itself.

mod serve_util;

use bagcons::report::ReportFormat;
use bagcons::session::Session;
use bagcons::stream::ConsistencyStream;
use bagcons_core::io::parse_delta_line;
use bagcons_core::{AttrNames, Bag, DeltaSet};
use bagcons_serve::protocol::decision_response;
use bagcons_serve::ServeOptions;
use serve_util::{Client, TestServer, R_TEXT, S_TEXT};
use std::path::Path;
use std::sync::{Arc, Barrier};

/// The writer's delta script (protocol lines; also replayed through the
/// library directly).
const WRITER_DELTAS: [&str; 2] = ["0 0 0 : 1", "0 0 0 : -1"];
const WRITER_BATCH: [&str; 2] = ["0 0 0 : 1", "1 0 7 : 1"];

/// Parses a protocol delta line into a stream edit exactly as the daemon
/// does.
fn parse_edit(bags: &[Arc<Bag>], line: &str) -> (usize, DeltaSet) {
    let (index, row, delta) = parse_delta_line(line, 0)
        .expect("delta parses")
        .expect("delta line is not blank");
    let mut set = DeltaSet::new(bags[index].schema().clone());
    set.bump(row, delta).expect("bump");
    (index, set)
}

/// Opens the fixture through the library (same text the daemon loads
/// from files) with the given thread cap.
fn open_fixture(threads: usize) -> (Session, ConsistencyStream) {
    let mut session = Session::builder()
        .threads(threads)
        .build()
        .expect("session");
    let r = session.load_bag(R_TEXT).expect("load R");
    let s = session.load_bag(S_TEXT).expect("load S");
    let stream = session.open_stream(vec![r, s]).expect("open stream");
    (session, stream)
}

/// The daemon's `ok open`/`ok sync` line for a stream pinned at `seq`.
fn pinned_line(verb: &str, seq: u64, stream: &ConsistencyStream) -> String {
    let mut line = format!("ok {verb} dataset=fixture gen={seq}");
    if verb == "open" {
        line.push_str(&format!(" bags={}", stream.bags().len()));
    }
    line.push_str(&format!(
        " decision={} branch={} status={}",
        stream.decision().as_str(),
        stream.branch().as_str(),
        stream.decision().exit_code()
    ));
    line
}

/// Sequentially replays the writer's script through the library and
/// renders each response exactly as the daemon would.
fn expected_writer_trace(threads: usize) -> Vec<String> {
    let names = AttrNames::new();
    let (_session, mut stream) = open_fixture(threads);
    let mut trace = vec![pinned_line("open", 0, &stream)];
    for line in WRITER_DELTAS {
        let (bag, set) = parse_edit(stream.bags(), line);
        let out = stream.update(bag, &set).expect("update");
        trace.push(decision_response(ReportFormat::Text, &out, &names));
    }
    let edits: Vec<(usize, DeltaSet)> = WRITER_BATCH
        .iter()
        .map(|line| parse_edit(stream.bags(), line))
        .collect();
    let out = stream.update_batch(&edits).expect("batch");
    trace.push(decision_response(ReportFormat::Text, &out, &names));
    trace.push("ok commit dataset=fixture gen=1".to_string());
    trace
}

/// Sequentially replays a reader's script: open at gen 0, check, sync to
/// the post-commit generation, check again.
fn expected_reader_trace(threads: usize) -> Vec<String> {
    let names = AttrNames::new();
    let (session, mut gen0) = open_fixture(threads);
    let mut trace = vec![pinned_line("open", 0, &gen0)];
    let out = gen0.update_batch(&[]).expect("check");
    trace.push(decision_response(ReportFormat::Text, &out, &names));

    // Generation 1 is the writer's bags after its full script.
    let (_wsession, mut writer) = open_fixture(threads);
    for line in WRITER_DELTAS {
        let (bag, set) = parse_edit(writer.bags(), line);
        writer.update(bag, &set).expect("update");
    }
    let edits: Vec<(usize, DeltaSet)> = WRITER_BATCH
        .iter()
        .map(|line| parse_edit(writer.bags(), line))
        .collect();
    writer.update_batch(&edits).expect("batch");
    let mut gen1 = session
        .open_stream_shared(writer.share_bags())
        .expect("open gen 1");
    trace.push(pinned_line("sync", 1, &gen1));
    let out = gen1.update_batch(&[]).expect("check");
    trace.push(decision_response(ReportFormat::Text, &out, &names));
    trace
}

/// Runs the live daemon with one writer + three readers, returning
/// `(writer trace, reader traces)`.
fn live_traces(threads: usize) -> (Vec<String>, Vec<Vec<String>>) {
    let server = TestServer::start(Some(threads));
    let addr = server.addr;
    let opened = Arc::new(Barrier::new(4));
    let committed = Arc::new(Barrier::new(4));

    let writer = {
        let (opened, committed) = (Arc::clone(&opened), Arc::clone(&committed));
        std::thread::spawn(move || {
            let mut c = Client::connect(addr);
            let mut trace = vec![c.request("open fixture")];
            opened.wait();
            for line in WRITER_DELTAS {
                trace.push(c.request(line));
            }
            c.send("batch");
            for line in WRITER_BATCH {
                c.send(line);
            }
            trace.push(c.request("end"));
            trace.push(c.request("commit"));
            committed.wait();
            assert_eq!(c.request("quit"), "ok bye");
            trace
        })
    };

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let (opened, committed) = (Arc::clone(&opened), Arc::clone(&committed));
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let mut trace = vec![c.request("open fixture")];
                opened.wait();
                // Concurrent with the writer's deltas: the reader's
                // pinned generation must be unaffected.
                trace.push(c.request("check"));
                committed.wait();
                trace.push(c.request("sync"));
                trace.push(c.request("check"));
                assert_eq!(c.request("quit"), "ok bye");
                trace
            })
        })
        .collect();

    let writer_trace = writer.join().expect("writer thread");
    let reader_traces = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .collect();
    server.stop();
    (writer_trace, reader_traces)
}

/// Acceptance: four concurrent clients (three readers + one writer) over
/// loopback produce decision traces bit-identical to sequential library
/// replay, at thread caps 1, 2, and 4.
#[test]
fn concurrent_clients_match_sequential_replay() {
    for threads in [1usize, 2, 4] {
        let expected_writer = expected_writer_trace(threads);
        let expected_reader = expected_reader_trace(threads);
        // The script is decision-bearing in every position: the interim
        // add must flip the fixture inconsistent, the revert flip it
        // back, and the batch (which grows both marginals together) keep
        // it consistent.
        assert!(
            expected_writer[1].starts_with("status=1 "),
            "{expected_writer:?}"
        );
        assert!(
            expected_writer[2].starts_with("status=0 "),
            "{expected_writer:?}"
        );
        assert!(
            expected_writer[3].starts_with("status=0 "),
            "{expected_writer:?}"
        );
        assert!(
            expected_writer[3].contains("batch of 2"),
            "batch decision should be amortized: {expected_writer:?}"
        );

        let (writer, readers) = live_traces(threads);
        assert_eq!(writer, expected_writer, "writer trace, threads={threads}");
        for (i, reader) in readers.iter().enumerate() {
            assert_eq!(
                reader, &expected_reader,
                "reader {i} trace, threads={threads}"
            );
        }
    }
}

/// A protocol error is answered with a structured error and the
/// connection keeps serving — across unknown commands, bad deltas, and
/// misuse of session-scoped requests.
#[test]
fn protocol_errors_keep_the_connection() {
    let server = TestServer::start(None);
    let mut c = server.client();
    assert_eq!(c.request("ping"), "ok pong");

    let resp = c.request("frobnicate");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    let resp = c.request("open nosuch");
    assert!(resp.starts_with("err open:"), "{resp}");
    let resp = c.request("0 0 0 : 1");
    assert!(resp.starts_with("err usage:"), "{resp}");
    let resp = c.request("end");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    let resp = c.request("ping too many args");
    assert!(resp.starts_with("err protocol:"), "{resp}");

    // Still serving after five consecutive errors.
    assert!(c.request("open fixture").starts_with("ok open "));
    let resp = c.request("9 0 0 : 1");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    assert!(resp.contains("out of range"), "{resp}");
    let resp = c.request("0 0 0 : zzz");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    assert!(
        c.request("0 0 0 : 0").starts_with("status=0 "),
        "noop delta"
    );
    server.stop();
}

/// JSON format: decisions carry `"status"` as the first key, errors are
/// single-line objects, and the format is per-connection.
#[test]
fn json_format_round_trip() {
    let server = TestServer::start(None);
    let mut c = server.client();
    assert_eq!(
        c.request("format json"),
        "{\"report\":\"ok\",\"verb\":\"format\",\"format\":\"json\"}"
    );
    let open = c.request("open fixture");
    assert!(
        open.starts_with("{\"report\":\"ok\",\"verb\":\"open\""),
        "{open}"
    );
    let dec = c.request("0 0 0 : 1");
    assert!(dec.starts_with("{\"status\":1,"), "{dec}");
    assert!(dec.contains("\"decision\":\"inconsistent\""), "{dec}");
    let e = c.request("frobnicate");
    assert!(e.starts_with('{') && e.contains("\"status\":2"), "{e}");

    // A second connection still defaults to text.
    let mut c2 = server.client();
    assert_eq!(c2.request("ping"), "ok pong");
    server.stop();
}

/// `timeout 0` degrades that session's requests to `status=3` with an
/// abort reason, without touching other connections; `timeout none` +
/// `sync` recovers determinism.
#[test]
fn timeout_degrades_one_session_only() {
    let server = TestServer::start(None);
    let mut slow = server.client();
    let mut fast = server.client();
    assert!(slow.request("open fixture").starts_with("ok open "));
    assert!(fast.request("open fixture").starts_with("ok open "));

    assert_eq!(slow.request("timeout 0"), "ok timeout ms=0");
    let degraded = slow.request("0 0 0 : 1");
    assert!(degraded.starts_with("status=3 "), "{degraded}");
    assert!(degraded.contains("deadline"), "{degraded}");

    // The other connection is unaffected, concurrently.
    assert!(fast.request("0 0 0 : 1").starts_with("status=1 "));
    assert!(fast.request("0 0 0 : -1").starts_with("status=0 "));

    // Recovery: lift the budget, re-pin, and the session is
    // deterministic again.
    assert_eq!(slow.request("timeout none"), "ok timeout ms=none");
    let synced = slow.request("sync");
    assert!(
        synced.starts_with("ok sync dataset=fixture gen=0 "),
        "{synced}"
    );
    assert!(slow.request("0 0 0 : 1").starts_with("status=1 "));
    server.stop();
}

/// Batch grouping: one decision per `end`, errors inside a batch do not
/// poison it, and `batch` misuse is answered structurally.
#[test]
fn batch_semantics_and_errors() {
    let server = TestServer::start(None);
    let mut c = server.client();
    assert!(c.request("open fixture").starts_with("ok open "));

    c.send("batch");
    let resp = c.request("batch");
    assert!(resp.starts_with("err protocol:"), "double batch: {resp}");
    c.send("0 0 0 : 1");
    let resp = c.request("9 0 0 : 1");
    assert!(
        resp.starts_with("err protocol:"),
        "bad delta in batch: {resp}"
    );
    c.send("1 0 7 : 1");
    let end = c.request("end");
    assert!(end.starts_with("status=0 "), "{end}");
    assert!(
        end.contains("batch of 2"),
        "bad edit must not enqueue: {end}"
    );

    // `end` without a batch, and an empty batch.
    let resp = c.request("end");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    c.send("batch");
    let end = c.request("end");
    assert!(end.starts_with("status=0 "), "empty batch decides: {end}");
    server.stop();
}

/// Clients that vanish mid-request — inside an open batch, or with an
/// unterminated half-line — must not wedge the daemon.
#[test]
fn mid_request_disconnects_are_contained() {
    let server = TestServer::start(None);
    {
        let mut c = server.client();
        assert!(c.request("open fixture").starts_with("ok open "));
        c.send("batch");
        c.send("0 0 0 : 1");
        // Dropped with the batch open.
    }
    {
        let mut c = server.client();
        assert!(c.request("ping").starts_with("ok pong"));
        use std::io::Write;
        let mut raw = c.into_stream();
        raw.write_all(b"open fix").expect("partial write");
        raw.flush().expect("flush");
        // Dropped mid-line; the daemon parses the fragment at EOF and
        // discards the failed open with the connection.
    }
    // A fresh client gets full service.
    let mut c = server.client();
    assert!(c.request("open fixture").starts_with("ok open "));
    assert!(c.request("0 0 0 : 1").starts_with("status=1 "));
    server.stop();
}

/// `shutdown` drains: the requester gets its response, idle connections
/// are closed, and `run()` returns.
#[test]
fn shutdown_request_drains_and_exits() {
    let server = TestServer::start(None);
    let mut idle = server.client();
    assert_eq!(idle.request("ping"), "ok pong");
    let mut c = server.client();
    assert_eq!(c.request("shutdown"), "ok shutdown");
    // stop() joins the accept loop: it must return because a client
    // asked, not because the handle forced it.
    server.stop();
    assert!(idle.at_eof(), "idle connection closed by the drain");
}

/// A worker budget of one still serves four concurrent writers
/// correctly — requests queue on the semaphore instead of interleaving.
#[test]
fn worker_budget_queues_concurrent_decisions() {
    let server = TestServer::start_with(|opts| opts.worker_budget = Some(1));
    let addr = server.addr;
    let handles: Vec<_> = (0..4)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                assert!(c.request("open fixture").starts_with("ok open "));
                for _ in 0..3 {
                    assert!(c.request("0 0 0 : 1").starts_with("status=1 "));
                    assert!(c.request("0 0 0 : -1").starts_with("status=0 "));
                }
                assert_eq!(c.request("quit"), "ok bye");
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread");
    }
    server.stop();
}

/// Two writers racing from the same generation: the first commit wins,
/// the loser gets a `conflict` and succeeds after `sync`.
#[test]
fn commit_conflict_resolves_via_sync() {
    let server = TestServer::start(None);
    let mut a = server.client();
    let mut b = server.client();
    assert!(a.request("open fixture").starts_with("ok open "));
    assert!(b.request("open fixture").starts_with("ok open "));

    assert!(a.request("0 0 0 : 1").starts_with("status=1 "));
    assert_eq!(a.request("commit"), "ok commit dataset=fixture gen=1");

    assert!(b.request("1 0 7 : 1").starts_with("status=1 "));
    let resp = b.request("commit");
    assert!(resp.starts_with("err conflict:"), "{resp}");
    assert!(b
        .request("sync")
        .starts_with("ok sync dataset=fixture gen=1 "));
    assert!(b.request("1 0 7 : 1").starts_with("status=0 "));
    assert_eq!(b.request("commit"), "ok commit dataset=fixture gen=2");
    server.stop();
}

/// `load` registers new datasets at runtime; `list` enumerates; double
/// registration is refused.
#[test]
fn load_and_list_datasets() {
    let server = TestServer::start(None);
    let dir = serve_util::temp_dir();
    let files = serve_util::write_fixture(&dir);
    let mut c = server.client();
    assert_eq!(c.request("list"), "ok list datasets=fixture:gen=0:bags=2");
    let resp = c.request(&format!("load extra {} {}", files[0], files[1]));
    assert_eq!(resp, "ok load dataset=extra gen=0 bags=2");
    assert_eq!(
        c.request("list"),
        "ok list datasets=extra:gen=0:bags=2,fixture:gen=0:bags=2"
    );
    let resp = c.request(&format!("load extra {}", files[0]));
    assert!(resp.starts_with("err load:"), "{resp}");
    // A filesystem failure is the world's fault, not the caller's: it
    // answers `err io:`, distinct from the `err load:` policy errors.
    let resp = c.request("load ghost /nonexistent/path.bag");
    assert!(resp.starts_with("err io:"), "{resp}");
    assert!(c.request("open extra").starts_with("ok open "));
    let _ = std::fs::remove_dir_all(&dir);
    server.stop();
}

/// `close` ends the session but keeps the connection.
#[test]
fn close_keeps_connection() {
    let server = TestServer::start(None);
    let mut c = server.client();
    assert!(c.request("open fixture").starts_with("ok open "));
    assert_eq!(c.request("close"), "ok close");
    assert!(c.request("check").starts_with("err usage:"));
    assert!(c.request("open fixture").starts_with("ok open "));
    server.stop();
}

/// The unix-domain listener speaks the same protocol.
#[cfg(unix)]
#[test]
fn unix_socket_serves_the_protocol() {
    use std::io::{BufRead, BufReader, Write};
    let dir = serve_util::temp_dir();
    let path = dir.join("serve.sock");
    let server = TestServer::start_with(|opts| {
        opts.unix = Some(path.clone());
    });
    let stream = std::os::unix::net::UnixStream::connect(&path).expect("connect unix");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut request = |line: &str| -> String {
        writeln!(writer, "{line}").expect("send");
        writer.flush().expect("flush");
        let mut resp = String::new();
        assert!(reader.read_line(&mut resp).expect("recv") > 0);
        resp.trim_end().to_string()
    };
    assert_eq!(request("ping"), "ok pong");
    assert!(request("open fixture").starts_with("ok open "));
    assert!(request("0 0 0 : 1").starts_with("status=1 "));
    assert_eq!(request("quit"), "ok bye");
    server.stop();
    assert!(!path.exists(), "socket file removed on drain");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Connections beyond `max_connections` are refused with `err busy`
/// while admitted ones keep working.
#[test]
fn connection_cap_refuses_excess_clients() {
    let server = TestServer::start_with(|opts| opts.max_connections = 2);
    let mut a = server.client();
    let mut b = server.client();
    assert_eq!(a.request("ping"), "ok pong");
    assert_eq!(b.request("ping"), "ok pong");
    let mut c = server.client();
    let resp = c.recv();
    assert!(resp.starts_with("err busy:"), "{resp}");
    assert!(c.at_eof());
    assert_eq!(a.request("ping"), "ok pong");
    server.stop();
}

/// `ServeOptions::default` binds loopback TCP with no unix socket.
#[test]
fn default_options_bind_loopback() {
    let opts = ServeOptions::default();
    assert_eq!(opts.tcp.as_deref(), Some("127.0.0.1:0"));
    assert!(opts.unix.is_none());
}

/// Options no connection session could run under are refused at bind
/// (before any socket is claimed), not by resetting every client.
#[test]
fn bind_refuses_invalid_session_options() {
    for threads in [0, 100_000] {
        let err = bagcons_serve::Server::bind(ServeOptions {
            threads: Some(threads),
            ..Default::default()
        })
        .err()
        .expect("invalid thread count must not bind");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{err}");
    }
}

/// Writes the fixture as one sealed two-bag snapshot file, returning
/// its path.
fn write_snapshot_fixture(dir: &Path) -> String {
    let mut session = Session::builder().build().expect("session");
    let mut r = session.load_bag(R_TEXT).expect("parse r");
    let mut s = session.load_bag(S_TEXT).expect("parse s");
    r.seal();
    s.seal();
    let path = dir.join("fixture.snap");
    session
        .write_snapshot(&path, &[&r, &s])
        .expect("write snapshot");
    path.display().to_string()
}

/// A dataset loaded from a binary snapshot serves the same decision
/// trace as the same data loaded from text files — at thread caps 1,
/// 2, and 4. Only the dataset name may differ between the responses.
#[test]
fn snapshot_dataset_matches_text_dataset_traces() {
    const SCRIPT: [&str; 4] = ["0 0 0 : 1", "0 0 0 : -1", "1 0 7 : 2", "1 0 7 : -2"];
    for threads in [1usize, 2, 4] {
        let server = TestServer::start(Some(threads));
        let dir = serve_util::temp_dir();
        let files = serve_util::write_fixture(&dir);
        let snap = write_snapshot_fixture(&dir);
        let mut c = server.client();
        assert!(c
            .request(&format!("load text {} {}", files[0], files[1]))
            .starts_with("ok load dataset=text gen=0 bags=2"));
        assert!(c
            .request(&format!("load snap {snap}"))
            .starts_with("ok load dataset=snap gen=0 bags=2"));

        let trace_of = |c: &mut Client, dataset: &str| -> Vec<String> {
            let open = c.request(&format!("open {dataset}"));
            let (_, pinned) = open
                .split_once(" bags=")
                .unwrap_or_else(|| panic!("unexpected open response: {open}"));
            let mut trace = vec![pinned.to_string()];
            for line in SCRIPT {
                trace.push(c.request(line));
            }
            trace.push(c.request("check"));
            assert_eq!(c.request("close"), "ok close");
            trace
        };
        let text_trace = trace_of(&mut c, "text");
        let snap_trace = trace_of(&mut c, "snap");
        assert_eq!(text_trace, snap_trace, "threads={threads}");
        // The script is decision-bearing, not a vacuous equality.
        assert!(text_trace[1].starts_with("status=1 "), "{text_trace:?}");
        assert!(text_trace[2].starts_with("status=0 "), "{text_trace:?}");
        server.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// `save` writes the current generation as a snapshot that `load`
/// round-trips into an equivalent dataset — including edits committed
/// after the original load.
#[test]
fn save_round_trips_through_load() {
    let server = TestServer::start(None);
    let dir = serve_util::temp_dir();
    let out = dir.join("saved.snap").display().to_string();
    let mut c = server.client();

    // Commit an edit so the saved generation differs from the files.
    assert!(c.request("open fixture").starts_with("ok open "));
    assert!(c.request("0 0 0 : 1").starts_with("status=1 "));
    assert_eq!(c.request("commit"), "ok commit dataset=fixture gen=1");
    let resp = c.request(&format!("save fixture {out}"));
    assert!(
        resp.starts_with("ok save dataset=fixture gen=1 bags=2 file="),
        "{resp}"
    );

    let resp = c.request(&format!("load restored {out}"));
    assert_eq!(resp, "ok load dataset=restored gen=0 bags=2");
    assert_eq!(c.request("close"), "ok close");
    let open = c.request("open restored");
    assert!(
        open.contains("decision=inconsistent") && open.ends_with("status=1"),
        "the committed edit must survive the save/load round trip: {open}"
    );
    // Reverting the edit restores consistency — the restored bags are
    // live, not a frozen replay.
    assert!(c.request("0 0 0 : -1").starts_with("status=0 "));

    let resp = c.request(&format!("save ghost {out}"));
    assert!(resp.starts_with("err save:"), "{resp}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `--data-dir`, client-supplied paths resolve under the allowlist
/// root and anything escaping it — absolute paths elsewhere, `..` hops,
/// write targets outside — is refused as `err usage:` without touching
/// the filesystem.
#[test]
fn data_dir_allowlist_confines_load_and_save() {
    let dir = serve_util::temp_dir();
    serve_util::write_fixture(&dir);
    let outside = serve_util::temp_dir();
    let outside_bag = outside.join("r.bag");
    std::fs::write(&outside_bag, R_TEXT).expect("write outside bag");
    let server = {
        let dir = dir.clone();
        TestServer::start_with(move |opts| opts.data_dir = Some(dir))
    };
    let mut c = server.client();

    // Relative paths resolve under the root.
    assert_eq!(
        c.request("load rel r.bag s.bag"),
        "ok load dataset=rel gen=0 bags=2"
    );
    // Absolute paths inside the root are fine too.
    let inside = dir.join("r.bag").display().to_string();
    assert_eq!(
        c.request(&format!("load abs {inside}")),
        "ok load dataset=abs gen=0 bags=1"
    );

    // Escapes: absolute path elsewhere, `..` hop, and a write target
    // outside the root.
    let resp = c.request(&format!("load esc {}", outside_bag.display()));
    assert!(resp.starts_with("err usage:"), "{resp}");
    let resp = c.request("load esc ../x.bag");
    assert!(resp.starts_with("err usage:"), "{resp}");
    let resp = c.request("save rel ../out.snap");
    assert!(resp.starts_with("err usage:"), "{resp}");
    let escaped = outside.join("out.snap");
    let resp = c.request(&format!("save rel {}", escaped.display()));
    assert!(resp.starts_with("err usage:"), "{resp}");
    assert!(!escaped.exists(), "refused save must not create the file");

    // A confined save round-trips. The echoed path is canonicalized
    // (symlink-resolved), so compare against the canonical root.
    let canon = dir.canonicalize().expect("canonicalize data dir");
    assert_eq!(
        c.request("save rel saved.snap"),
        format!(
            "ok save dataset=rel gen=0 bags=2 file={}",
            canon.join("saved.snap").display()
        )
    );
    assert_eq!(
        c.request("load resaved saved.snap"),
        "ok load dataset=resaved gen=0 bags=2"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&outside);
}

/// `bulk` applies a whole delta group in one framed line — one payload,
/// one round trip, one decision — bit-identical to the incremental
/// `batch`…`end` path over the same edits, with an all-or-nothing parse.
#[test]
fn bulk_is_one_round_trip_batch() {
    let names = AttrNames::new();
    let (_session, mut stream) = open_fixture(2);
    let edits: Vec<(usize, DeltaSet)> = ["0 0 0 : 1", "1 0 7 : 1"]
        .iter()
        .map(|line| parse_edit(stream.bags(), line))
        .collect();
    let expected = decision_response(
        ReportFormat::Text,
        &stream.update_batch(&edits).expect("batch"),
        &names,
    );

    let server = TestServer::start(Some(2));
    let mut c = server.client();
    // Needs an open session, like every decision-bearing verb.
    assert!(c
        .request("bulk 0 0 0 : 1; 1 0 7 : 1")
        .starts_with("err usage:"));
    assert!(c.request("open fixture").starts_with("ok open "));
    assert_eq!(c.request("bulk 0 0 0 : 1; 1 0 7 : 1"), expected);

    // All-or-nothing: a payload with one bad delta commits nothing —
    // the follow-up empty batch still sees the post-bulk state only.
    let resp = c.request("bulk 0 0 0 : 1; 9 0 0 : 1");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    let resp = c.request("bulk 0 0 0 : bogus");
    assert!(resp.starts_with("err protocol:"), "{resp}");

    // Inside an open incremental batch the verb is refused: the two
    // framings are aliases of the same operation, not nestable.
    c.send("batch");
    let resp = c.request("bulk 0 0 0 : 1");
    assert!(resp.starts_with("err protocol:"), "{resp}");
    let after_batch = c.request("end");
    assert!(after_batch.starts_with("status="), "{after_batch}");

    // The JSON rendering carries the same status contract.
    assert!(c.request("format json").starts_with("{\"report\":\"ok\""));
    let resp = c.request("bulk 0 0 0 : 1; 0 0 0 : -1");
    assert!(resp.starts_with("{\"status\":"), "{resp}");
    server.stop();
}

/// Filesystem failures during `save` answer `err io:` — distinct from
/// `err usage:` (confinement/grammar) and `err save:` (unknown dataset).
#[test]
fn save_io_failures_answer_err_io() {
    let server = TestServer::start(None);
    let mut c = server.client();
    let resp = c.request("save fixture /nonexistent/dir/out.snap");
    assert!(resp.starts_with("err io:"), "{resp}");
    // Unknown dataset remains a `save` policy error.
    let resp = c.request("save ghost /tmp/out.snap");
    assert!(resp.starts_with("err save:"), "{resp}");
    server.stop();
}

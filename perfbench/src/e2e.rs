//! The untraced run: every workload driven through the user's entry
//! points — the release `bagcons` binary for one-shot commands and
//! `watch`, a `bagcons serve` child over loopback — with every output
//! checked outside the timed region.

use crate::inputs::{self, Delta, Expect, Instance, Sizes};
use crate::json::{self, Value};
use crate::proc;
use crate::stats::{median, ms, quantile};
use crate::Outcome;
use bagcons::session::Session;
use bagcons_core::Bag;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A run repeats its set-up at least `MIN_SETUPS` times and until it has
/// spent `MIN_SETUP_TIME` on it (at most `MAX_SETUPS` times); `setup_s`
/// is the median, so a set-up of a few milliseconds is not one noisy
/// sample.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 50;
const MIN_SETUP_TIME: Duration = Duration::from_secs(1);

pub struct Ctx<'a> {
    pub bin: &'a Path,
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: &'a Sizes,
}

/// Repeats the set-up `f`, returning the last result and the median wall
/// time in seconds.
fn setup_median<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut spent = Duration::ZERO;
    let mut last = None;
    while times.len() < MIN_SETUPS || (spent < MIN_SETUP_TIME && times.len() < MAX_SETUPS) {
        // Drop the previous set-up (and stop its processes) first.
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        let dt = t.elapsed();
        spent += dt;
        times.push(dt.as_secs_f64());
    }
    Ok((last.expect("at least one set-up ran"), median(&times)))
}

/// The five end-to-end metrics every workload reports. Throughput is
/// ops over `window`, the time the load kept the program busy. The
/// median and the 99th percentile (the highest with at least ten samples
/// beyond it, on the delta and request workloads) are printed with the
/// sample count; the mean carries the slow path into a bounded metric.
fn finish(
    out: &mut Outcome,
    setup_s: f64,
    latencies_ms: &[f64],
    window: Duration,
    peak_rss_kb: u64,
) {
    let mean = latencies_ms.iter().sum::<f64>() / latencies_ms.len() as f64;
    out.metric("setup_s", setup_s, "s");
    out.metric("latency_p50_ms", quantile(latencies_ms, 0.5), "ms");
    out.metric("latency_mean_ms", mean, "ms");
    out.metric(
        "throughput_per_s",
        latencies_ms.len() as f64 / window.as_secs_f64(),
        "1/s",
    );
    out.metric("peak_rss_mb", peak_rss_kb as f64 / 1024.0, "MB");
    out.note(format!(
        "samples={} p99_ms={:.6}",
        latencies_ms.len(),
        quantile(latencies_ms, 0.99)
    ));
}

/// One instance written as text files: the set-up of a one-shot
/// workload.
struct Prepared {
    paths: Vec<PathBuf>,
    expect: Expect,
    rows: u64,
    bytes: u64,
}

fn prepare(inst: &Instance, dir: &Path) -> Result<Prepared, String> {
    let (paths, bytes) = inputs::write_text(inst, dir).map_err(|e| e.to_string())?;
    Ok(Prepared {
        paths,
        expect: inst.expect,
        rows: inputs::rows(inst),
        bytes,
    })
}

fn arg_refs<'a>(cmd: &'a str, paths: &'a [PathBuf]) -> Vec<&'a Path> {
    let mut args: Vec<&Path> = vec![Path::new(cmd), Path::new("--format"), Path::new("json")];
    args.extend(paths.iter().map(PathBuf::as_path));
    args
}

/// The report's witness section, which repeats byte for byte on the
/// same input (the trailing `stages` hold timings and do not).
fn witness_section(report: &str) -> &str {
    let start = report.find("\"witness\":").unwrap_or(0);
    let end = report.rfind(",\"stages\":").unwrap_or(report.len());
    &report[start..end.max(start)]
}

/// Checks a `--format json` report of `witness` or `check` against the
/// expected answer; a witness must marginalize back onto every input.
/// Returns the support of a witness rendered in full.
fn verify_report(text: &str, inputs: &[PathBuf], expect: Expect) -> Result<Option<usize>, String> {
    let report = json::parse(text.trim()).map_err(|e| format!("unparseable report: {e}"))?;
    let decision = report.get("decision").and_then(Value::as_str);
    if decision != Some(expect.as_str()) {
        return Err(format!(
            "decision {decision:?}, expected {}",
            expect.as_str()
        ));
    }
    let witness = report.get("witness").ok_or("report has no witness field")?;
    let Some(rows) = witness.get("rows").and_then(Value::as_array) else {
        return match (expect, witness) {
            (Expect::Inconsistent, Value::Null) => Ok(None),
            (Expect::Consistent, Value::Object(_)) => Ok(None),
            _ => Err("witness field does not match the decision".to_string()),
        };
    };
    let names: Vec<&str> = witness
        .get("schema")
        .and_then(Value::as_array)
        .ok_or("witness has no schema")?
        .iter()
        .map(|v| v.as_str().ok_or("schema name is not a string"))
        .collect::<Result<_, _>>()?;
    let mut bag_text = names.join(" ");
    bag_text.push_str(" #\n");
    for row in rows {
        let cells = row
            .get("row")
            .and_then(Value::as_array)
            .ok_or("witness row has no cells")?;
        for c in cells {
            bag_text.push_str(&c.as_u64().ok_or("witness cell is not a u64")?.to_string());
            bag_text.push(' ');
        }
        let count = row
            .get("count")
            .and_then(Value::as_u64)
            .ok_or("witness row has no count")?;
        bag_text.push_str(&format!(": {count}\n"));
    }
    let mut session = Session::default();
    let bags: Vec<Bag> = inputs
        .iter()
        .map(|p| session.load_bag_file(p).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let w = session.load_bag(&bag_text).map_err(|e| e.to_string())?;
    let refs: Vec<&Bag> = bags.iter().collect();
    if !session
        .is_global_witness(&w, &refs)
        .map_err(|e| e.to_string())?
    {
        return Err("witness does not marginalize back onto the inputs".to_string());
    }
    Ok(Some(rows.len()))
}

/// One timed invocation of a one-shot command; the report lands in
/// `report` for checking.
fn invoke(
    ctx: &Ctx,
    cmd: &str,
    paths: &[PathBuf],
    expect: Expect,
    report: &Path,
) -> Result<(Duration, proc::Exit, String), String> {
    let (dt, exit) = proc::run_to_file(ctx.bin, &arg_refs(cmd, paths), report)?;
    let text = std::fs::read_to_string(report).map_err(|e| e.to_string())?;
    let want = match expect {
        Expect::Consistent => 0,
        Expect::Inconsistent => 1,
    };
    if exit.code != Some(want) {
        return Err(format!(
            "{cmd} exited with {:?}, expected {want}",
            exit.code
        ));
    }
    Ok((dt, exit, text))
}

/// One one-shot invocation of a pass: command, files, expected answer.
struct Call {
    cmd: &'static str,
    paths: Vec<PathBuf>,
    expect: Expect,
}

/// Repeats passes over `calls` for the run's window: a pass starts only
/// if it is expected to end inside the window (at least 3 passes run).
/// The first pass is checked in full; later passes must reproduce its
/// witness sections exactly. Returns the pass latencies, their sum (the
/// busy time), and the peak RSS over every invocation.
fn one_shot_loop(
    ctx: &Ctx,
    out: &mut Outcome,
    calls: &[Call],
) -> Result<(Vec<f64>, Duration, u64), String> {
    let report = ctx.work.join("report.json");
    let mut reference: Vec<Option<String>> = vec![None; calls.len()];
    let mut latencies = Vec::new();
    let mut peak = 0u64;
    let mut busy = Duration::ZERO;
    let start = Instant::now();
    let mut last = Duration::ZERO;
    while latencies.len() < 3 || (start.elapsed() + last).as_secs_f64() < ctx.seconds {
        let mut pass = Duration::ZERO;
        for (i, call) in calls.iter().enumerate() {
            out.attempted += 1;
            let (dt, exit, text) = match invoke(ctx, call.cmd, &call.paths, call.expect, &report) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            };
            pass += dt;
            peak = peak.max(exit.max_rss_kb);
            let section = witness_section(&text);
            match &reference[i] {
                Some(r) if r == section => {}
                Some(_) => out.fail(format!("{} output changed between passes", call.cmd)),
                None => match verify_report(&text, &call.paths, call.expect) {
                    Ok(support) => {
                        if let Some(n) = support {
                            out.note(format!("call {i} ({}): witness support {n}", call.cmd));
                        }
                        reference[i] = Some(section.to_string());
                    }
                    Err(e) => out.fail(format!("{}: {e}", call.cmd)),
                },
            }
        }
        busy += pass;
        last = pass;
        latencies.push(ms(pass));
    }
    Ok((latencies, busy, peak))
}

/// Runs `bagcons snapshot save <snap> <paths>...`.
fn snapshot_save(ctx: &Ctx, snap: &Path, paths: &[PathBuf]) -> Result<(), String> {
    let mut args: Vec<&Path> = vec![Path::new("snapshot"), Path::new("save"), snap];
    args.extend(paths.iter().map(PathBuf::as_path));
    let log = snap.with_extension("log");
    let (_, exit) = proc::run_to_file(ctx.bin, &args, &log)?;
    if exit.code != Some(0) {
        return Err(format!("snapshot save exited with {:?}", exit.code));
    }
    Ok(())
}

/// `acyclic`: one op is the user's pass over the planted path(7)
/// family — `bagcons witness` on its text files, `bagcons check` on its
/// snapshot, and `bagcons check` on the text files with one tuple bumped
/// (the refusal, which skips every witness layer).
pub fn acyclic(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.work.join("acyclic");
    let snap = dir.join("path7.snap");
    let ((good, bumped), setup_s) = setup_median(|| {
        let good = prepare(&inputs::acyclic(ctx.seed, ctx.sizes), &dir)?;
        let bumped = prepare(&inputs::refute(ctx.seed, ctx.sizes), &dir)?;
        snapshot_save(ctx, &snap, &good.paths)?;
        Ok((good, bumped))
    })?;
    out.add_input(good.rows + bumped.rows, good.bytes + bumped.bytes);
    let calls = [
        Call {
            cmd: "witness",
            paths: good.paths,
            expect: good.expect,
        },
        Call {
            cmd: "check",
            paths: vec![snap],
            expect: good.expect,
        },
        Call {
            cmd: "check",
            paths: bumped.paths,
            expect: bumped.expect,
        },
    ];
    let (lat, busy, peak) = one_shot_loop(ctx, out, &calls)?;
    finish(out, setup_s, &lat, busy, peak);
    Ok(())
}

/// `cyclic`: one op is a pass of `bagcons witness --format json` over
/// every cyclic instance.
pub fn cyclic(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.work.join("cyclic");
    let (set, setup_s) = setup_median(|| {
        inputs::cyclic(ctx.seed, ctx.sizes)
            .iter()
            .map(|inst| prepare(inst, &dir))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let calls: Vec<Call> = set
        .into_iter()
        .map(|p| {
            out.add_input(p.rows, p.bytes);
            Call {
                cmd: "witness",
                paths: p.paths,
                expect: p.expect,
            }
        })
        .collect();
    let (lat, busy, peak) = one_shot_loop(ctx, out, &calls)?;
    finish(out, setup_s, &lat, busy, peak);
    Ok(())
}

/// A `bagcons watch` child with its pipes.
struct Watch {
    child: Option<Child>,
    stdin: Option<std::process::ChildStdin>,
    stdout: BufReader<std::process::ChildStdout>,
}

impl Watch {
    fn spawn(bin: &Path, files: &[PathBuf]) -> Result<Watch, String> {
        let mut child = Command::new(bin)
            .arg("watch")
            .args(files)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn watch: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut w = Watch {
            child: Some(child),
            stdin: Some(stdin),
            stdout,
        };
        let open = w.read_line()?;
        if !open.starts_with("open: consistent") {
            return Err(format!("watch opened with {open:?}"));
        }
        Ok(w)
    }

    /// Writes one line and reads the one-line reply.
    fn request(&mut self, line: &str) -> Result<String, String> {
        let stdin = self.stdin.as_mut().expect("stdin open until close");
        stdin
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("watch stdin: {e}"))?;
        self.read_line()
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("watch stdout: {e}"))?;
        if n == 0 {
            return Err("watch closed its output".to_string());
        }
        Ok(line)
    }

    /// Closes stdin and reaps the child.
    fn close(mut self) -> Result<proc::Exit, String> {
        drop(self.stdin.take());
        proc::wait(self.child.take().expect("live child"))
    }
}

impl Drop for Watch {
    fn drop(&mut self) {
        drop(self.stdin.take());
        if let Some(child) = self.child.take() {
            let _ = proc::wait(child);
        }
    }
}

/// Checks one `watch` reply against the delta's expected decision and
/// repair path.
fn check_delta_reply(reply: &str, d: &Delta) -> Result<(), String> {
    let want = format!("{} (bag ", d.expect.as_str());
    let path_ok = if d.support_change {
        reply.contains(" rows;")
    } else {
        reply.contains("in-place;")
    };
    if reply.starts_with(&want) && path_ok {
        Ok(())
    } else {
        Err(format!("delta {:?} answered {:?}", d.line, reply.trim()))
    }
}

/// `stream`: one client drives `bagcons watch` in a closed loop, one
/// delta line then one decision line.
pub fn stream(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.work.join("stream");
    let pair = inputs::pair(ctx.seed, ctx.sizes.stream_support);
    let script = inputs::stream_script(&pair, ctx.seed, 50);
    let (paths, bytes) = inputs::write_text(&pair, &dir).map_err(|e| e.to_string())?;
    out.add_input(inputs::rows(&pair), bytes);
    let (mut watch, setup_s) = setup_median(|| Watch::spawn(ctx.bin, &paths))?;
    let mut latencies = Vec::new();
    let start = Instant::now();
    // Stop only on cycle boundaries, where the bags are back to their
    // consistent starting state.
    while latencies.len() % 4 != 0
        || latencies.len() < 200
        || start.elapsed().as_secs_f64() < ctx.seconds
    {
        let d = &script[latencies.len() % script.len()];
        let t = Instant::now();
        let reply = watch.request(&d.line)?;
        latencies.push(ms(t.elapsed()));
        out.attempted += 1;
        if let Err(e) = check_delta_reply(&reply, d) {
            out.fail(e);
        }
    }
    let window = start.elapsed();
    let exit = watch.close()?;
    if exit.code != Some(0) {
        out.fail(format!("watch exited with {:?}", exit.code));
    }
    finish(out, setup_s, &latencies, window, exit.max_rss_kb);
    Ok(())
}

/// One line-protocol connection to the daemon.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        // A daemon that stops answering fails the run instead of hanging it.
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(s.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn { reader, writer: s })
    }

    pub fn request(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Ok(reply)
    }
}

/// Whether a reply to `request` has the expected status.
pub fn serve_reply_ok(request: &str, reply: &str) -> bool {
    match request.split_whitespace().next() {
        Some("check") | Some("bulk") => reply.starts_with("status=0 consistent"),
        Some("commit") => reply.starts_with("ok commit"),
        Some("sync") => reply.starts_with("ok sync") && reply.contains("decision=consistent"),
        Some("open") => reply.starts_with("ok open") && reply.contains("decision=consistent"),
        _ => false,
    }
}

/// One request of the serve mix: verb, latency, and whether the reply
/// had the expected status.
pub struct Req {
    pub verb: &'static str,
    pub start: Instant,
    pub latency: Duration,
    pub ok: bool,
}

/// When a serve traffic loop stops.
#[derive(Clone, Copy)]
pub enum Until {
    /// At the first stopping point after this instant.
    Deadline(Instant),
    /// After this many requests from the reader and the writer.
    Requests(usize, usize),
}

/// The serve traffic: a reader looping `check` with a `sync` every 10
/// requests, and a writer looping a `bulk` of matched in-place deltas
/// followed by `commit`, each a closed loop on its own connection.
/// Returns both connections' requests.
pub fn serve_traffic(
    reader: &mut Conn,
    writer: &mut Conn,
    bulks: &[String],
    until: Until,
) -> Result<Vec<Req>, String> {
    let more = |done: usize, wanted: usize| match until {
        Until::Deadline(t) => done < 22 || Instant::now() < t,
        Until::Requests(..) => done < wanted,
    };
    let (read_n, write_n) = match until {
        Until::Deadline(_) => (0, 0),
        Until::Requests(r, w) => (r, w),
    };
    let read_loop = |conn: &mut Conn| -> Result<Vec<Req>, String> {
        let mut reqs = Vec::new();
        while more(reqs.len(), read_n) {
            let verb = if reqs.len() % 11 == 10 {
                "sync"
            } else {
                "check"
            };
            let t = Instant::now();
            let reply = conn.request(verb)?;
            reqs.push(Req {
                verb,
                start: t,
                latency: t.elapsed(),
                ok: serve_reply_ok(verb, &reply),
            });
        }
        Ok(reqs)
    };
    let write_loop = |conn: &mut Conn| -> Result<Vec<Req>, String> {
        let mut reqs = Vec::new();
        // Stop only after a `-1` bulk and its commit: the dataset is back
        // to its starting state.
        while reqs.len() % 4 != 0 || more(reqs.len(), write_n) {
            let i = reqs.len();
            let (verb, line) = if i % 2 == 0 {
                ("bulk", bulks[(i / 2) % bulks.len()].as_str())
            } else {
                ("commit", "commit")
            };
            let t = Instant::now();
            let reply = conn.request(line)?;
            reqs.push(Req {
                verb,
                start: t,
                latency: t.elapsed(),
                ok: serve_reply_ok(line, &reply),
            });
        }
        Ok(reqs)
    };
    let (r, w) = std::thread::scope(|s| {
        let r = s.spawn(|| read_loop(reader));
        let w = write_loop(writer);
        (r.join().expect("reader thread"), w)
    });
    let mut all = r?;
    all.extend(w?);
    Ok(all)
}

/// A `bagcons serve` child with its two client connections open on the
/// preloaded dataset.
struct Daemon {
    child: Option<Child>,
    reader: Conn,
    writer: Conn,
}

impl Daemon {
    fn spawn(bin: &Path, files: &[PathBuf]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0", "--name", "bench"])
            .args(files)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn serve: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = match stdout.read_line(&mut line) {
            Ok(n) if n > 0 => line
                .trim()
                .strip_prefix("listening on ")
                .map(str::to_string),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = proc::wait(child);
            return Err(format!("serve did not report its address: {line:?}"));
        };
        let mut daemon = Daemon {
            child: Some(child),
            reader: Conn::connect(&addr)?,
            writer: Conn::connect(&addr)?,
        };
        for conn in [&mut daemon.reader, &mut daemon.writer] {
            let reply = conn.request("open bench")?;
            if !serve_reply_ok("open", &reply) {
                return Err(format!("open answered {:?}", reply.trim()));
            }
        }
        Ok(daemon)
    }

    /// Asks the daemon to drain and reaps it.
    fn shutdown(mut self) -> Result<proc::Exit, String> {
        let reply = self.writer.request("shutdown")?;
        if !reply.starts_with("ok shutdown") {
            return Err(format!("shutdown answered {:?}", reply.trim()));
        }
        let _ = self.reader.writer.shutdown(std::net::Shutdown::Both);
        let _ = self.writer.writer.shutdown(std::net::Shutdown::Both);
        proc::wait(self.child.take().expect("live child"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = self.writer.request("shutdown");
            let _ = self.reader.writer.shutdown(std::net::Shutdown::Both);
            let _ = self.writer.writer.shutdown(std::net::Shutdown::Both);
            // A daemon that does not drain within a few seconds is killed.
            let t = Instant::now();
            while t.elapsed() < Duration::from_secs(5) {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// `serve`: a preloaded `bagcons serve` child driven over loopback by
/// two closed-loop connections.
pub fn serve(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.work.join("serve");
    let pair = inputs::pair(ctx.seed, ctx.sizes.serve_support);
    let bulks = inputs::serve_script(&pair, ctx.seed, 500);
    let (paths, bytes) = inputs::write_text(&pair, &dir).map_err(|e| e.to_string())?;
    out.add_input(inputs::rows(&pair), bytes);
    let (mut daemon, setup_s) = setup_median(|| Daemon::spawn(ctx.bin, &paths))?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let reqs = serve_traffic(
        &mut daemon.reader,
        &mut daemon.writer,
        &bulks,
        Until::Deadline(deadline),
    )?;
    let window = start.elapsed();
    let exit = daemon.shutdown()?;
    if exit.code != Some(0) {
        out.fail(format!("serve exited with {:?}", exit.code));
    }
    out.attempted += reqs.len() as u64;
    for r in reqs.iter().filter(|r| !r.ok) {
        out.fail(format!("{} got an unexpected reply", r.verb));
    }
    let latencies: Vec<f64> = reqs.iter().map(|r| ms(r.latency)).collect();
    for verb in ["check", "sync", "bulk", "commit"] {
        let n = reqs.iter().filter(|r| r.verb == verb).count();
        out.note(format!("{verb}_requests={n}"));
    }
    finish(out, setup_s, &latencies, window, exit.max_rss_kb);
    Ok(())
}

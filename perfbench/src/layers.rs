//! The traced run: the workload's inputs pushed through the library's
//! public calls in-process, one span around each call into a layer.
//!
//! Passes alternate untraced and traced over the same calls; the median
//! traced pass minus the median untraced pass is `trace.overhead_ms`.
//! Layer metrics are medians over traced passes (per-call medians for
//! the per-delta and per-request metrics); a layer the workload never
//! calls reports 0.

use crate::e2e::{serve_traffic, Conn, Until};
use crate::inputs::{self, Expect, Sizes};
use crate::stats::{median, ms, us};
use crate::trace::Tracer;
use crate::Outcome;
use bagcons::acyclic::WitnessStrategy;
use bagcons::global::{witness_from_ilp, IlpDecision};
use bagcons::protocol::parse_delta_edit;
use bagcons::report::Render;
use bagcons::session::{Branch, CheckOutcome, Decision, Session, WitnessOutcome};
use bagcons_core::Bag;
use bagcons_flow::ConsistencyNetwork;
use bagcons_lp::ilp::solve_with_stats;
use bagcons_lp::{ConsistencyProgram, IlpOutcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-pass totals reported as the median over traced passes, in ms:
/// (metric, span name).
const PASS_TOTALS_MS: [(&str, &str); 12] = [
    ("core.parse_ms", "core.parse"),
    ("core.seal_ms", "core.seal"),
    ("snap.open_ms", "snap.open"),
    ("consistency.pairwise_ms", "consistency.pairwise"),
    (
        "consistency.acyclic_witness_ms",
        "consistency.acyclic_witness",
    ),
    ("flow.network_build_ms", "flow.network_build"),
    ("flow.solve_ms", "flow.solve"),
    ("consistency.render_ms", "consistency.render"),
    ("lp.program_build_ms", "lp.program_build"),
    ("lp.search_ms", "lp.search"),
    ("consistency.ilp_witness_ms", "consistency.ilp_witness"),
    ("consistency.stream_open_ms", "consistency.stream_open"),
];

/// Per-pass counter totals: (metric, counter name).
const PASS_COUNTS: [(&str, &str); 7] = [
    ("consistency.witness_support", "witness_support"),
    ("flow.middle_edges", "middle_edges"),
    ("lp.join_size", "join_size"),
    ("lp.search_nodes", "search_nodes"),
    ("consistency.pairs_repaired", "pairs_repaired"),
    ("consistency.pairs_rebuilt", "pairs_rebuilt"),
    ("serve.err_replies", "err_replies"),
];

/// Per-call medians in µs: (metric, span name).
const CALL_MEDIANS_US: [(&str, &str); 9] = [
    (
        "consistency.update_inplace_us",
        "consistency.update_inplace",
    ),
    ("core.delta_inplace_us", "core.delta_inplace"),
    (
        "consistency.update_support_us",
        "consistency.update_support",
    ),
    ("core.delta_support_us", "core.delta_support"),
    ("consistency.pair_decide_us", "consistency.pair_decide"),
    ("serve.check_us", "serve.check"),
    ("serve.bulk_us", "serve.bulk"),
    ("serve.commit_us", "serve.commit"),
    ("serve.sync_us", "serve.sync"),
];

pub struct Ctx<'a> {
    pub work: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: &'a Sizes,
}

/// The session the CLI builds: default threads, default node budget.
fn cli_session() -> Result<Session, String> {
    Session::builder()
        .budget(50_000_000)
        .build()
        .map_err(|e| e.to_string())
}

fn read_all(paths: &[PathBuf]) -> Result<Vec<String>, String> {
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// Parses and seals every text under its own spans, as the CLI loads
/// text files.
fn load(t: &mut Tracer, session: &mut Session, texts: &[String]) -> Result<Vec<Bag>, String> {
    texts
        .iter()
        .map(|text| {
            let mut bag = t
                .span("core.parse", |_| session.load_bag(text))
                .map_err(|e| e.to_string())?;
            t.span("core.seal", |_| bag.seal());
            Ok(bag)
        })
        .collect()
}

/// Renders a consistent outcome's witness as `bagcons witness --format
/// json` does.
fn render_witness(t: &mut Tracer, session: &Session, check: CheckOutcome) -> usize {
    let outcome = WitnessOutcome { check };
    t.span("consistency.render", |_| {
        outcome.json(session.names()).len()
    })
}

fn outcome(decision: Decision, branch: Branch, nodes: u64, witness: Option<Bag>) -> CheckOutcome {
    CheckOutcome {
        decision,
        branch,
        search_nodes: nodes,
        witness,
        inconsistent_pair: None,
        abort_reason: None,
        stages: Vec::new(),
    }
}

/// Alternates untraced and traced passes for the run's window; `pass`
/// gets the pass-pair index, so both halves of a pair do the same work.
/// A pair starts only if it is expected to end inside the window (at
/// least one pair runs).
fn alternate(
    ctx: &Ctx,
    t: &mut Tracer,
    out: &mut Outcome,
    mut pass: impl FnMut(&mut Tracer, usize, &mut Outcome) -> Result<(), String>,
) -> Result<(), String> {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut last = 0.0;
    let mut k = 0;
    while k == 0 || start.elapsed().as_secs_f64() + last < ctx.seconds {
        let pair = Instant::now();
        for on in [false, true] {
            t.set_enabled(on);
            let t0 = Instant::now();
            pass(t, k, out)?;
            let dt = ms(t0.elapsed());
            if on {
                traced.push(dt);
            } else {
                plain.push(dt);
            }
        }
        last = pair.elapsed().as_secs_f64();
        k += 1;
    }
    t.set_enabled(false);
    out.metric("trace.overhead_ms", median(&traced) - median(&plain), "ms");
    out.note(format!("pass_pairs={k}"));
    Ok(())
}

pub fn run(workload: &str, ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let mut t = Tracer::new();
    match workload {
        "acyclic" => acyclic(ctx, &mut t, out)?,
        "cyclic" => cyclic(ctx, &mut t, out)?,
        "stream" => stream(ctx, &mut t, out)?,
        "serve" => serve(ctx, &mut t, out)?,
        other => return Err(format!("unknown workload {other}")),
    }
    summarize(&t, out);
    let spans = ctx.work.join("spans.jsonl");
    t.write_jsonl(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    out.note(format!("spans={}", spans.display()));
    Ok(())
}

/// Folds the recorded spans into the layer metrics.
fn summarize(t: &Tracer, out: &mut Outcome) {
    let passes: Vec<usize> = t.roots().collect();
    let per_pass = |f: &dyn Fn(usize) -> f64| -> f64 {
        let values: Vec<f64> = passes.iter().map(|&r| f(r)).collect();
        if values.is_empty() {
            0.0
        } else {
            median(&values)
        }
    };
    for (metric, span) in PASS_TOTALS_MS {
        let v = per_pass(&|r| ms(t.total_under(r, span)));
        out.metric(metric, v, "ms");
    }
    for (metric, counter) in PASS_COUNTS {
        let v = per_pass(&|r| t.counter_under(r, counter) as f64);
        out.metric(metric, v, "count");
    }
    for (metric, span) in CALL_MEDIANS_US {
        let d: Vec<f64> = t.durations(span).into_iter().map(us).collect();
        out.metric(metric, if d.is_empty() { 0.0 } else { median(&d) }, "us");
    }
    out.metric("trace.uncovered_share", t.uncovered_share(), "ratio");
}

/// Screens the pairs and builds the Theorem 6 witness chain, as
/// `bagcons check` and `bagcons witness` do once the bags are loaded.
fn screen_and_witness(t: &mut Tracer, session: &Session, bags: &[Bag]) -> Result<Bag, String> {
    let refs: Vec<&Bag> = bags.iter().collect();
    let pair = t
        .span("consistency.pairwise", |_| {
            session.first_inconsistent_pair(&refs)
        })
        .map_err(|e| e.to_string())?;
    if pair.is_some() {
        return Err(format!("planted family refuted at pair {pair:?}"));
    }
    t.span("consistency.acyclic_witness", |_| {
        session.acyclic_global_witness(&refs, WitnessStrategy::Saturated)
    })
    .map_err(|e| e.to_string())
}

/// `acyclic`: the end-to-end pass's three commands on the path(7) family
/// — `witness` on the text files (parse, seal, Lemma 2 screen, witness
/// chain, render), `check` on the snapshot (open instead of parse),
/// `check` on the bumped text (parse and screen only) — plus the
/// consistency network of the first overlapping pair on its own.
fn acyclic(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let dir = ctx.work.join("acyclic");
    let good = inputs::acyclic(ctx.seed, ctx.sizes);
    let bumped = inputs::refute(ctx.seed, ctx.sizes);
    let (paths, bytes) = inputs::write_text(&good, &dir).map_err(|e| e.to_string())?;
    let (bumped_paths, bumped_bytes) =
        inputs::write_text(&bumped, &dir).map_err(|e| e.to_string())?;
    out.add_input(
        inputs::rows(&good) + inputs::rows(&bumped),
        bytes + bumped_bytes,
    );
    let snap = dir.join("path7.snap");
    {
        let mut session = cli_session()?;
        let bags = load(&mut Tracer::new(), &mut session, &read_all(&paths)?)?;
        let refs: Vec<&Bag> = bags.iter().collect();
        session
            .write_snapshot(&snap, &refs)
            .map_err(|e| e.to_string())?;
    }
    alternate(ctx, t, out, |t, _, out| {
        out.attempted += 3;
        let mut witness_session = cli_session()?;
        let mut snap_session = cli_session()?;
        let mut refute_session = cli_session()?;
        let (bags, witnesses) = t.span("pass", |t| -> Result<_, String> {
            // bagcons witness <text>
            let bags = load(t, &mut witness_session, &read_all(&paths)?)?;
            let w = screen_and_witness(t, &witness_session, &bags)?;
            t.count("witness_support", w.support_size() as u64);
            let check = outcome(Decision::Consistent, Branch::Acyclic, 0, Some(w.clone()));
            render_witness(t, &witness_session, check);
            // bagcons check <snapshot>
            let opened = t
                .span("snap.open", |_| snap_session.load_snapshot(&snap))
                .map_err(|e| e.to_string())?;
            let w_snap = screen_and_witness(t, &snap_session, &opened)?;
            // bagcons check <bumped text>
            let bad = load(t, &mut refute_session, &read_all(&bumped_paths)?)?;
            let refs: Vec<&Bag> = bad.iter().collect();
            let pair = t
                .span("consistency.pairwise", |_| {
                    refute_session.first_inconsistent_pair(&refs)
                })
                .map_err(|e| e.to_string())?;
            if pair.is_none() {
                return Err("bumped family passed the pairwise screen".to_string());
            }
            t.span("flow.probe", |t| {
                let net = t
                    .span("flow.network_build", |_| {
                        ConsistencyNetwork::build(&bags[0], &bags[1])
                    })
                    .map_err(|e| e.to_string())?;
                t.count("middle_edges", net.num_middle_edges() as u64);
                match t.span("flow.solve", |_| net.solve()) {
                    Some(_) => Ok(()),
                    None => Err("consistent pair has no saturating flow".to_string()),
                }
            })?;
            Ok((bags, [w, w_snap]))
        })?;
        let refs: Vec<&Bag> = bags.iter().collect();
        let [w, w_snap] = &witnesses;
        if !witness_session
            .is_global_witness(w, &refs)
            .map_err(|e| e.to_string())?
        {
            out.fail("acyclic witness does not marginalize back".to_string());
        }
        if w_snap != w {
            out.fail("text and snapshot loads built different witnesses".to_string());
        }
        Ok(())
    })
}

/// `cyclic`: what `bagcons witness` does on each cyclic instance — parse,
/// seal, build the program over J, search, materialize the witness,
/// render.
fn cyclic(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let set = inputs::cyclic(ctx.seed, ctx.sizes);
    let mut files = Vec::new();
    for inst in &set {
        let (paths, bytes) =
            inputs::write_text(inst, &ctx.work.join("cyclic")).map_err(|e| e.to_string())?;
        out.add_input(inputs::rows(inst), bytes);
        files.push((paths, inst.expect));
    }
    alternate(ctx, t, out, |t, _, out| {
        t.span("pass", |t| {
            for (paths, expect) in &files {
                out.attempted += 1;
                let mut session = cli_session()?;
                let texts = read_all(paths)?;
                let bags = load(t, &mut session, &texts)?;
                let refs: Vec<&Bag> = bags.iter().collect();
                let prog = t
                    .span("lp.program_build", |t| {
                        let p = ConsistencyProgram::build(&refs);
                        if let Ok(p) = &p {
                            t.count("join_size", p.num_variables() as u64);
                        }
                        p
                    })
                    .map_err(|e| e.to_string())?;
                let (ilp, stats) = t.span("lp.search", |t| {
                    let r = solve_with_stats(&prog, session.solver());
                    t.count("search_nodes", r.1.nodes);
                    r
                });
                let decision = IlpDecision {
                    outcome: ilp,
                    stats,
                    num_variables: prog.num_variables(),
                };
                let (answer, witness) = match &decision.outcome {
                    IlpOutcome::Sat(_) => {
                        let w = t
                            .span("consistency.ilp_witness", |_| {
                                witness_from_ilp(&refs, &decision)
                            })
                            .map_err(|e| e.to_string())?;
                        (Expect::Consistent, w)
                    }
                    IlpOutcome::Unsat => (Expect::Inconsistent, None),
                    IlpOutcome::Aborted(reason) => {
                        out.fail(format!("search aborted: {reason:?}"));
                        continue;
                    }
                };
                if answer != *expect {
                    out.fail(format!("cyclic instance decided {}", answer.as_str()));
                    continue;
                }
                if let Some(w) = &witness {
                    if !session
                        .is_global_witness(w, &refs)
                        .map_err(|e| e.to_string())?
                    {
                        out.fail("cyclic witness does not marginalize back".to_string());
                    }
                    let check = outcome(
                        Decision::Consistent,
                        Branch::CyclicSearch,
                        decision.stats.nodes,
                        witness.clone(),
                    );
                    render_witness(t, &session, check);
                }
            }
            Ok(())
        })
    })
}

/// `stream`: what `bagcons watch` does — load the pair, open the
/// stream, then apply the delta script one update at a time — with each
/// delta also applied to a mirror bag on its own (`Bag::apply_delta`) and
/// a from-scratch Lemma 2 decision of the edited pair every 50 deltas.
fn stream(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let pair = inputs::pair(ctx.seed, ctx.sizes.stream_support);
    let script = inputs::stream_script(&pair, ctx.seed, 50);
    let (paths, bytes) =
        inputs::write_text(&pair, &ctx.work.join("stream")).map_err(|e| e.to_string())?;
    out.add_input(inputs::rows(&pair), bytes);
    let group = script.len() / 50;
    alternate(ctx, t, out, |t, k, out| {
        let mut session = cli_session()?;
        let texts = read_all(&paths)?;
        t.span("pass", |t| -> Result<(), String> {
            let bags = load(t, &mut session, &texts)?;
            let mut mirror = bags.clone();
            let mut stream = t
                .span("consistency.stream_open", |_| session.open_stream(bags))
                .map_err(|e| e.to_string())?;
            let deltas = &script[(k % 50) * group..(k % 50 + 1) * group];
            for (i, d) in deltas.iter().enumerate() {
                out.attempted += 1;
                let (index, set) = parse_delta_edit(&d.line, i + 1, stream.bags())?
                    .ok_or("script line carries no delta")?;
                let (update, apply) = if d.support_change {
                    ("consistency.update_support", "core.delta_support")
                } else {
                    ("consistency.update_inplace", "core.delta_inplace")
                };
                let outcome = t
                    .span(update, |t| {
                        let o = stream.update(index, &set);
                        if let Ok(o) = &o {
                            t.count("pairs_repaired", o.pairs_repaired as u64);
                            t.count("pairs_rebuilt", o.pairs_rebuilt as u64);
                        }
                        o
                    })
                    .map_err(|e| e.to_string())?;
                t.span(apply, |_| mirror[index].apply_delta(&set))
                    .map_err(|e| e.to_string())?;
                let want = match d.expect {
                    Expect::Consistent => Decision::Consistent,
                    Expect::Inconsistent => Decision::Inconsistent,
                };
                if outcome.decision != want || outcome.applied.support_changed() != d.support_change
                {
                    out.fail(format!("delta {:?} decided {:?}", d.line, outcome.decision));
                }
                if i % 50 == 49 {
                    let bags = stream.bags();
                    let ok = t
                        .span("consistency.pair_decide", |_| {
                            session.bags_consistent(&bags[0], &bags[1])
                        })
                        .map_err(|e| e.to_string())?;
                    if ok != (want == Decision::Consistent) {
                        out.fail("pairwise decision disagrees with the stream".to_string());
                    }
                }
            }
            Ok(())
        })
    })
}

/// `serve`: an in-process `Server` on loopback driven by the same two
/// closed-loop connections as the end-to-end run (each request a span,
/// timed on its client thread), plus `Session::open_stream` on the
/// dataset on its own — the work behind `open` and `sync`.
fn serve(ctx: &Ctx, t: &mut Tracer, out: &mut Outcome) -> Result<(), String> {
    let pair = inputs::pair(ctx.seed, ctx.sizes.serve_support);
    let bulks = inputs::serve_script(&pair, ctx.seed, 500);
    let (paths, bytes) =
        inputs::write_text(&pair, &ctx.work.join("serve")).map_err(|e| e.to_string())?;
    out.add_input(inputs::rows(&pair), bytes);
    let server = bagcons_serve::Server::bind(bagcons_serve::ServeOptions {
        tcp: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    let files: Vec<String> = paths
        .iter()
        .map(|p| p.to_string_lossy().into_owned())
        .collect();
    server.preload("bench", &files)?;
    let addr = server
        .local_addr()
        .ok_or("server has no TCP address")?
        .to_string();
    let handle = server.handle();
    std::thread::scope(|s| -> Result<(), String> {
        let daemon = s.spawn(move || server.run());
        let result = (|| -> Result<(), String> {
            let mut reader = Conn::connect(&addr)?;
            let mut writer = Conn::connect(&addr)?;
            for conn in [&mut reader, &mut writer] {
                let reply = conn.request("open bench")?;
                if !crate::e2e::serve_reply_ok("open", &reply) {
                    return Err(format!("open answered {:?}", reply.trim()));
                }
            }
            let mut session = cli_session()?;
            let texts = read_all(&paths)?;
            let bags = load(&mut Tracer::new(), &mut session, &texts)?;
            alternate(ctx, t, out, |t, _, out| {
                t.span("pass", |t| -> Result<(), String> {
                    t.span("consistency.stream_open", |_| {
                        session.open_stream(bags.clone())
                    })
                    .map_err(|e| e.to_string())?;
                    let reqs =
                        serve_traffic(&mut reader, &mut writer, &bulks, Until::Requests(44, 80))?;
                    let mut errs = 0;
                    for r in &reqs {
                        out.attempted += 1;
                        if !r.ok {
                            errs += 1;
                            out.fail(format!("{} got an unexpected reply", r.verb));
                        }
                        let name = match r.verb {
                            "check" => "serve.check",
                            "sync" => "serve.sync",
                            "bulk" => "serve.bulk",
                            _ => "serve.commit",
                        };
                        t.record(name, r.start, r.latency);
                    }
                    t.count("err_replies", errs);
                    Ok(())
                })
            })
        })();
        handle.shutdown();
        let served = daemon.join().expect("server thread");
        result?;
        served.map_err(|e| format!("server: {e}"))
    })
}

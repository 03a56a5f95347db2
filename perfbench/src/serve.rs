//! The `serve` operation: an in-process daemon with two specs loaded and
//! two closed-loop connections.
//!
//! Connection A writes: it opens a monitor watching `B sees N0` and
//! `Env has Kab`, streams a seeded 256-event trace into it one `EVENT`
//! at a time, then opens a fresh monitor and starts over. Connection B
//! reads: a repeating mix of 16 `EVAL`, 2 `ANALYZE`, 1 `INJECT` with a
//! fresh plan seed and 1 `RELOAD` that appends one assumption to the
//! Needham–Schroeder session or takes it away again. Every answer is
//! compared with what the library gives in-process.

use crate::gen::{monitor_stream, Rng, WATCHED};
use crate::report::Report;
use crate::stats::{label, Samples};
use crate::sweep::belief_assumptions;
use atl_core::annotate::{analyze_at, render_analysis, AtProtocol};
use atl_core::enact::enact;
use atl_core::goodruns::construct_on;
use atl_core::inject::{inject_report, InjectRequest};
use atl_core::monitor::Monitor;
use atl_core::parallel::Pool;
use atl_core::semantics::{GoodRuns, Semantics};
use atl_core::serve::{Client, Response, ServeConfig, ServeStats, Server};
use atl_core::spec::parse_spec;
use atl_lang::parser::{parse_formula, Symbols};
use atl_lang::Formula;
use atl_model::{execute_with_faults, ExecOptions, ExecutionCache, FaultPlan, Point, System};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const NS_PATH: &str = "specs/needham_schroeder.atl";
pub const KERBEROS_PATH: &str = "specs/kerberos_figure1.atl";
/// Where the edited Needham–Schroeder spec is written, relative to the
/// source tree root.
pub const EDITED_PATH: &str = ".bench_work/needham_schroeder_edited.atl";
/// The assumption the reader's `RELOAD` appends and removes in turn.
const APPENDED: &str = "assume A believes fresh(Nb)";
const EVENTS_PER_STREAM: usize = 256;
/// Distinct `EVAL` draws the reader cycles through.
const DRAWS: usize = 64;
/// Drop probability of every `INJECT`.
const INJECT_DROP: f64 = 0.3;
/// A request that takes longer than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// One version of a loaded spec, with what a fresh library pipeline
/// answers for it (the replica `tests/e17_serve.rs` also uses).
struct Version {
    path: &'static str,
    at: AtProtocol,
    syms: Symbols,
    analysis: Response,
    system: System,
    goods: GoodRuns,
}

impl Version {
    fn build(path: &'static str, text: &str) -> Result<Version, String> {
        let (at, syms) = parse_spec(text).map_err(|e| e.diagnostic(path))?;
        let analysis = Response::from_text(&render_analysis(&at, &analyze_at(&at)));
        let (run, _) =
            execute_with_faults(&enact(&at), &ExecOptions::default(), &FaultPlan::new(0))
                .map_err(|e| format!("{path}: fault-free execution failed: {e}"))?;
        let system = System::new([run]);
        let goods = match construct_on(&system, &belief_assumptions(&at), &Pool::new(1)) {
            Ok((g, _)) => g,
            Err(_) => GoodRuns::all_runs(&system),
        };
        Ok(Version {
            path,
            at,
            syms,
            analysis,
            system,
            goods,
        })
    }

    /// The first line of a `LOAD`/`RELOAD` answer for session `id`.
    fn load_line(&self, id: u64) -> String {
        format!(
            "session {id}: protocol {} ({} assumption(s), {} step(s), {} goal(s))",
            self.at.name,
            self.at.assumptions.len(),
            self.at.steps.len(),
            self.at.goals.len()
        )
    }

    fn eval(&self, sem: &Semantics, point: Point, text: &str) -> Response {
        let phi = match parse_formula(text, &self.syms) {
            Ok(f) => f,
            Err(e) => return Response::err(e.diagnostic("<formula>")),
        };
        match sem.eval(point, &phi) {
            Ok(v) => Response::from_text(&format!(
                "at (run {}, time {}): {phi} = {v}",
                point.run, point.time
            )),
            Err(e) => Response::err(e.to_string()),
        }
    }

    fn inject(&self, seed: u64) -> Response {
        let req = inject_request(seed);
        match inject_report(&self.at, &req, &Pool::new(1), &ExecutionCache::new()) {
            Ok(out) => Response::from_text(&out.report),
            Err(e) => Response::err(e.to_string()),
        }
    }
}

/// What `INJECT <id> --seed <seed> --drop 0.3` asks for (the daemon's
/// defaults: patience 6, two resends).
fn inject_request(seed: u64) -> InjectRequest {
    InjectRequest {
        plan: FaultPlan::new(seed).drop(INJECT_DROP),
        policy: crate::policy(),
        options: ExecOptions::default(),
    }
}

/// One `EVAL` draw: session, point, formula text, and the expected
/// answer under each version of that session.
struct Draw {
    session: usize,
    point: Point,
    text: String,
    expected: Vec<Response>,
}

/// Everything the serve loop sends and expects, derived from the seed.
pub struct ServeInput {
    /// `sessions[0]`: Needham–Schroeder, base and edited; `sessions[1]`:
    /// Kerberos Figure 1.
    sessions: Vec<Vec<Version>>,
    draws: Vec<Draw>,
    seed: u64,
}

/// Builds the seeded request mix and its in-process answers, writing
/// the edited spec under `.bench_work/`.
pub fn input(seed: u64) -> Result<ServeInput, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let ns = read(NS_PATH)?;
    let edited = format!("{ns}\n{APPENDED}\n");
    let dir = Path::new(EDITED_PATH)
        .parent()
        .expect("edited spec has a directory");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    std::fs::write(EDITED_PATH, &edited).map_err(|e| format!("cannot write {EDITED_PATH}: {e}"))?;
    let sessions = vec![
        vec![
            Version::build(NS_PATH, &ns)?,
            Version::build(EDITED_PATH, &edited)?,
        ],
        vec![Version::build(KERBEROS_PATH, &read(KERBEROS_PATH)?)?],
    ];

    // Candidates: every point of each session's system × every goal
    // subformula whose text parses back to itself.
    let mut candidates: Vec<(usize, Point, String)> = Vec::new();
    for (s, versions) in sessions.iter().enumerate() {
        let base = &versions[0];
        let mut texts = BTreeSet::new();
        for goal in &base.at.goals {
            for f in subformulas(goal) {
                let text = f.to_string();
                if parse_formula(&text, &base.syms).as_ref() == Ok(f) {
                    texts.insert(text);
                }
            }
        }
        for point in base.system.points() {
            for text in &texts {
                candidates.push((s, point, text.clone()));
            }
        }
    }
    let sems: Vec<Vec<Semantics>> = sessions
        .iter()
        .map(|vs| {
            vs.iter()
                .map(|v| Semantics::new(&v.system, v.goods.clone()))
                .collect()
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut draws = Vec::new();
    let mut tries = 0;
    while draws.len() < DRAWS && tries < DRAWS * 16 {
        tries += 1;
        let (session, point, text) = candidates[rng.below(candidates.len())].clone();
        let expected: Vec<Response> = sessions[session]
            .iter()
            .zip(&sems[session])
            .map(|(v, sem)| v.eval(sem, point, &text))
            .collect();
        // Only draws every version answers: no request is meant to fail.
        if expected.iter().all(|r| r.ok) {
            draws.push(Draw {
                session,
                point,
                text,
                expected,
            });
        }
    }
    drop(sems);
    if draws.is_empty() {
        return Err("no EVAL draw evaluates".to_string());
    }
    Ok(ServeInput {
        sessions,
        draws,
        seed,
    })
}

fn subformulas(f: &Formula) -> Vec<&Formula> {
    let mut out = vec![f];
    match f {
        Formula::Not(a) | Formula::Believes(_, a) | Formula::Controls(_, a) => {
            out.extend(subformulas(a));
        }
        Formula::And(a, b) => {
            out.extend(subformulas(a));
            out.extend(subformulas(b));
        }
        _ => {}
    }
    out
}

/// A running daemon with both specs loaded.
struct Daemon {
    server: Server,
    ids: [u64; 2],
}

/// Starts a daemon (`ServeConfig` defaults on an ephemeral port) and
/// loads both specs, timing the two `LOAD` round trips into `load_ms`.
fn start(load_ms: &mut Samples) -> Result<Daemon, String> {
    let server = Server::start(ServeConfig {
        port: 0,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut ids = [0u64; 2];
    for (slot, path) in ids.iter_mut().zip([NS_PATH, KERBEROS_PATH]) {
        let t = Instant::now();
        *slot = client.load(path).map_err(|e| format!("LOAD {path}: {e}"))?;
        load_ms.push_ms(t.elapsed());
    }
    Ok(Daemon { server, ids })
}

impl Daemon {
    fn stop(self) {
        if let Ok(mut c) = Client::connect(self.server.addr()) {
            let _ = c.shutdown();
        }
        self.server.join();
    }
}

/// Daemon counters from `Server::stats` and a `METRICS` scrape, summed
/// over the daemons of a run (peaks: the highest).
#[derive(Default)]
pub struct Counters {
    stats: ServeStats,
    busy_workers_peak: f64,
    queue_depth_peak: f64,
    rejected: f64,
}

impl Counters {
    fn add(&mut self, daemon: &Daemon, rep: &mut Report) {
        let metrics = Client::connect(daemon.server.addr())
            .and_then(|mut c| c.request("METRICS"))
            .map(|r| r.payload())
            .unwrap_or_default();
        let series = |name: &str| {
            metrics
                .lines()
                .find_map(|l| l.strip_prefix(name)?.trim().parse::<f64>().ok())
        };
        let mut read = |name: &str| {
            let v = series(name);
            rep.check(v.is_some(), || format!("METRICS has no {name}"));
            v.unwrap_or(0.0)
        };
        self.busy_workers_peak = self
            .busy_workers_peak
            .max(read("atl_serve_busy_workers_peak"));
        self.queue_depth_peak = self
            .queue_depth_peak
            .max(read("atl_serve_queue_depth_peak"));
        self.rejected += read("atl_serve_rejected_total");
        let s = daemon.server.stats();
        let t = &mut self.stats;
        t.eval_served += s.eval_served;
        t.eval_warm += s.eval_warm;
        t.inject_served += s.inject_served;
        t.inject_exec_hits += s.inject_exec_hits;
        t.monitor_points_reused += s.monitor_points_reused;
        t.monitor_delta += s.monitor_delta;
        t.monitor_full += s.monitor_full;
    }
}

/// Monitor streams per daemon cycle. The daemon has no verb that closes
/// a monitor, and a finished 256-event monitor keeps about 55 MiB, so
/// the benchmark replaces the daemon after this many streams (outside
/// the timed requests) to keep memory bounded. Four streams of 259
/// `EVENT`s give each cycle enough samples for its own p99.
const STREAMS_PER_CYCLE: usize = 4;

/// One daemon cycle: start a daemon and load both specs, run both
/// connections until the writer has streamed [`STREAMS_PER_CYCLE`]
/// traces, add the daemon's counters, and stop it. Returns the round
/// trips, the `INJECT` answers for [`verify_injects`], and how long the
/// start and `LOAD`s took. `n` numbers the cycles of a run so stream and
/// inject seeds never repeat.
pub fn cycle(
    input: &ServeInput,
    n: u64,
    load_ms: &mut Samples,
    counters: &mut Counters,
    rep: &mut Report,
) -> Result<(LoopSamples, Vec<InjectSeen>, Duration), String> {
    let t = Instant::now();
    let daemon = start(load_ms)?;
    let setup = t.elapsed();
    let (samples, injects) = closed_loop(&daemon, input, n, rep);
    counters.add(&daemon, rep);
    daemon.stop();
    Ok((samples, injects, setup))
}

/// Checks every `INJECT` answer against an in-process `inject_report`
/// of the same plan on the session version the daemon held.
pub fn verify_injects(input: &ServeInput, injects: &[InjectSeen], rep: &mut Report) {
    let answers = Pool::auto().map(injects, |_, seen| {
        input.sessions[seen.session][seen.version].inject(seen.seed)
    });
    for (seen, want) in injects.iter().zip(answers) {
        rep.check(seen.response.ok && seen.response == want, || {
            format!(
                "INJECT --seed {} answered {:?}",
                seen.seed,
                seen.response.lines.first()
            )
        });
    }
}

/// Round trips of daemon cycles.
#[derive(Default)]
pub struct LoopSamples {
    pub event_us: Samples,
    pub eval_us: Samples,
    pub analyze_us: Samples,
    pub inject_us: Samples,
    pub reload_us: Samples,
    /// Every reader request.
    pub query_us: Samples,
    /// Every request of either connection.
    pub all_us: Samples,
    pub requests: u64,
    pub wall: Duration,
    /// Seeds of the monitor streams the writer started.
    pub stream_seeds: Vec<u64>,
    /// Each cycle's own `EVENT` and reader p99 (cycles with enough
    /// samples for one), so a noisy second moves one value, not the tail.
    pub event_p99s: Samples,
    pub query_p99s: Samples,
}

impl LoopSamples {
    /// Adds another cycle's round trips (wall times add up too).
    pub fn merge(&mut self, other: LoopSamples) {
        self.event_us.extend(&other.event_us);
        self.eval_us.extend(&other.eval_us);
        self.analyze_us.extend(&other.analyze_us);
        self.inject_us.extend(&other.inject_us);
        self.reload_us.extend(&other.reload_us);
        self.query_us.extend(&other.query_us);
        self.all_us.extend(&other.all_us);
        self.requests += other.requests;
        self.wall += other.wall;
        self.stream_seeds.extend(other.stream_seeds);
        self.event_p99s.extend(&other.event_p99s);
        self.query_p99s.extend(&other.query_p99s);
    }
}

/// What the reader saw for one `INJECT`, checked after the run.
pub struct InjectSeen {
    session: usize,
    version: usize,
    seed: u64,
    response: Response,
}

/// Runs both connections against `daemon` until the writer has streamed
/// [`STREAMS_PER_CYCLE`] traces, checking every answer into `rep`.
fn closed_loop(
    daemon: &Daemon,
    input: &ServeInput,
    cycle: u64,
    rep: &mut Report,
) -> (LoopSamples, Vec<InjectSeen>) {
    let addr = daemon.server.addr();
    let writer_done = AtomicBool::new(false);
    let t0 = Instant::now();
    let ((w, wrep), (r, rrep, injects)) = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let out = writer(addr, input.seed, cycle);
            writer_done.store(true, Ordering::SeqCst);
            out
        });
        let reader = s.spawn(|| reader(addr, daemon.ids, input, cycle, &writer_done));
        (
            writer.join().expect("writer thread"),
            reader.join().expect("reader thread"),
        )
    });
    let wall = t0.elapsed();
    rep.absorb(wrep);
    rep.absorb(rrep);
    let mut all_us = w.all_us;
    all_us.extend(&r.all_us);
    let p99 = |s: &Samples| {
        let mut out = Samples::new();
        if let Some((v, q)) = s.tail(0.99) {
            if q == 0.99 {
                out.push(v);
            }
        }
        out
    };
    let samples = LoopSamples {
        event_p99s: p99(&w.event_us),
        query_p99s: p99(&r.query_us),
        event_us: w.event_us,
        eval_us: r.eval_us,
        analyze_us: r.analyze_us,
        inject_us: r.inject_us,
        reload_us: r.reload_us,
        query_us: r.query_us,
        all_us,
        requests: w.requests + r.requests,
        wall,
        stream_seeds: w.stream_seeds,
    };
    (samples, injects)
}

fn connect(addr: SocketAddr) -> std::io::Result<Client> {
    let mut c = Client::connect(addr)?;
    c.set_timeout(Some(TIMEOUT))?;
    Ok(c)
}

/// Sends one request, timing it; an I/O failure or timeout is a failed
/// operation and ends the connection's loop.
fn timed(client: &mut Client, line: &str, rep: &mut Report) -> Option<(Response, Duration)> {
    let t = Instant::now();
    match client.request(line) {
        Ok(resp) => Some((resp, t.elapsed())),
        Err(e) => {
            rep.check(false, || format!("{line:.40}: {e}"));
            None
        }
    }
}

fn writer(addr: SocketAddr, seed: u64, cycle: u64) -> (LoopSamples, Report) {
    let mut rep = Report::default();
    let mut out = LoopSamples::default();
    let Ok(mut client) = connect(addr) else {
        rep.check(false, || "writer cannot connect".to_string());
        return (out, rep);
    };
    let monitor_line = format!("MONITOR {}", WATCHED.join(";"));
    'streams: for n in 0..STREAMS_PER_CYCLE as u64 {
        let stream_seed = seed.wrapping_mul(1_000_003).wrapping_add(cycle << 32 | n);
        let stream = monitor_stream(&mut Rng::new(stream_seed), EVENTS_PER_STREAM);
        out.stream_seeds.push(stream_seed);
        let Some((resp, rtt)) = timed(&mut client, &monitor_line, &mut rep) else {
            break;
        };
        out.all_us.push_us(rtt);
        out.requests += 1;
        let id = resp
            .lines
            .first()
            .and_then(|l| l.strip_prefix("monitor "))
            .and_then(|l| l.split(':').next())
            .and_then(|id| id.parse::<u64>().ok());
        rep.check(resp.ok && id.is_some(), || {
            format!("MONITOR answered {:?}", resp.lines)
        });
        let Some(id) = id else { break };
        for (line, want) in stream.lines.iter().zip(&stream.expected) {
            let Some((resp, rtt)) = timed(&mut client, &format!("EVENT {id} {line}"), &mut rep)
            else {
                break 'streams;
            };
            out.event_us.push_us(rtt);
            out.all_us.push_us(rtt);
            out.requests += 1;
            rep.check(resp.ok && &resp.lines == want, || {
                format!("EVENT {line} answered {:?}, expected {want:?}", resp.lines)
            });
        }
    }
    (out, rep)
}

/// The reader's repeating 20-request cycle.
#[derive(Clone, Copy)]
enum Query {
    Eval,
    Analyze,
    Inject,
    Reload,
}

const CYCLE: [Query; 20] = {
    use Query::*;
    [
        Eval, Eval, Eval, Eval, Eval, Eval, Eval, Eval, Analyze, Eval, Eval, Eval, Eval, Eval,
        Eval, Eval, Eval, Analyze, Inject, Reload,
    ]
};

/// What a reader request must be answered with.
enum Expect {
    Exact(Response),
    /// Checked after the loop against an in-process `inject_report`.
    Inject {
        session: usize,
        seed: u64,
    },
    /// The session's load line, after which it is at version `next`.
    Reload {
        next: usize,
    },
}

fn reader(
    addr: SocketAddr,
    ids: [u64; 2],
    input: &ServeInput,
    cycle: u64,
    writer_done: &AtomicBool,
) -> (LoopSamples, Report, Vec<InjectSeen>) {
    let mut rep = Report::default();
    let mut out = LoopSamples::default();
    let mut injects = Vec::new();
    let Ok(mut client) = connect(addr) else {
        rep.check(false, || "reader cannot connect".to_string());
        return (out, rep, injects);
    };
    // Each daemon starts with both sessions at their base version.
    let mut version = [0usize; 2];
    let (mut evals, mut analyzes, mut inject_n) = (0usize, 0usize, 0u64);
    for step in 0usize.. {
        if writer_done.load(Ordering::SeqCst) {
            break;
        }
        let query = CYCLE[step % CYCLE.len()];
        let (line, expect) = match query {
            Query::Eval => {
                let d = &input.draws[evals % input.draws.len()];
                evals += 1;
                let line = format!(
                    "EVAL {} {}:{} {}",
                    ids[d.session], d.point.run, d.point.time, d.text
                );
                (line, Expect::Exact(d.expected[version[d.session]].clone()))
            }
            Query::Analyze => {
                let s = analyzes % 2;
                analyzes += 1;
                let v = &input.sessions[s][version[s]];
                (
                    format!("ANALYZE {}", ids[s]),
                    Expect::Exact(v.analysis.clone()),
                )
            }
            Query::Inject => {
                let seed = (input.seed << 32 | cycle << 20).wrapping_add(inject_n);
                let session = (inject_n % 2) as usize;
                inject_n += 1;
                (
                    format!("INJECT {} --seed {seed} --drop {INJECT_DROP}", ids[session]),
                    Expect::Inject { session, seed },
                )
            }
            Query::Reload => {
                let next = 1 - version[0];
                let path = input.sessions[0][next].path;
                (format!("RELOAD {} {path}", ids[0]), Expect::Reload { next })
            }
        };
        let Some((resp, rtt)) = timed(&mut client, &line, &mut rep) else {
            break;
        };
        out.query_us.push_us(rtt);
        out.all_us.push_us(rtt);
        out.requests += 1;
        match query {
            Query::Eval => out.eval_us.push_us(rtt),
            Query::Analyze => out.analyze_us.push_us(rtt),
            Query::Inject => out.inject_us.push_us(rtt),
            Query::Reload => out.reload_us.push_us(rtt),
        }
        match expect {
            Expect::Exact(want) => {
                rep.check(resp == want, || {
                    format!("{line:.60} answered {:?}", resp.lines.first())
                });
            }
            Expect::Inject { session, seed } => injects.push(InjectSeen {
                session,
                version: version[session],
                seed,
                response: resp,
            }),
            Expect::Reload { next } => {
                let want = input.sessions[0][next].load_line(ids[0]);
                rep.check(resp.ok && resp.lines.first() == Some(&want), || {
                    format!("RELOAD answered {:?}", resp.lines.first())
                });
                if resp.ok {
                    version[0] = next;
                }
            }
        }
    }
    (out, rep, injects)
}

/// Reports the end-to-end metrics of a closed-loop phase.
pub fn report_end_to_end(rep: &mut Report, s: &LoopSamples) {
    let n = |x: &Samples| x.len();
    rep.metric_noted(
        "event_us_p50",
        s.event_us.median().unwrap_or(f64::NAN),
        "us",
        format!("p50 of {}", n(&s.event_us)),
    );
    // The EVENT tail is reported at p90: on a 2-CPU host its p98 and p99
    // vary by a third or more between identical runs (a late-stream
    // event meeting an INJECT on the other connection), while p90
    // follows the monitor's per-event cost growth.
    rep.metric_noted(
        "event_us_p90",
        s.event_us.quantile(EVENT_TAIL).unwrap_or(f64::NAN),
        "us",
        format!("{} of {}", label(EVENT_TAIL), n(&s.event_us)),
    );
    rep.metric_noted(
        "query_us_p50",
        s.query_us.median().unwrap_or(f64::NAN),
        "us",
        format!("p50 of {}", n(&s.query_us)),
    );
    let (v, note) = cycle_p99(&s.query_p99s, &s.query_us);
    rep.metric_noted("query_us_p99", v, "us", note);
    rep.metric_noted(
        "requests_per_s",
        s.requests as f64 / s.wall.as_secs_f64(),
        "1/s",
        format!(
            "{} round trips in {:.2} s, 2 connections",
            s.requests,
            s.wall.as_secs_f64()
        ),
    );
}

/// The tail percentile of the end-to-end `EVENT` metric.
const EVENT_TAIL: f64 = 0.9;

/// The median of the cycles' own p99s, so one noisy cycle moves one
/// value rather than the whole tail; without any cycle long enough for a
/// p99, the highest tail the pooled samples support.
fn cycle_p99(p99s: &Samples, all: &Samples) -> (f64, String) {
    match p99s.median() {
        Some(v) => (
            v,
            format!("p50 over {} cycles of each cycle's p99", p99s.len()),
        ),
        None => {
            let (v, q) = all.tail(0.99).unwrap_or((f64::NAN, 0.99));
            (
                v,
                format!("{} of {} (10+ samples beyond)", label(q), all.len()),
            )
        }
    }
}

/// In-process replays and daemon counters behind the per-layer metrics.
pub fn report_layers(
    rep: &mut Report,
    input: &ServeInput,
    s: &LoopSamples,
    counters: &Counters,
    load_ms: &Samples,
) {
    let p50 = |x: &Samples| x.median().unwrap_or(f64::NAN);
    for (verb, x) in [
        ("event", &s.event_us),
        ("eval", &s.eval_us),
        ("analyze", &s.analyze_us),
        ("inject", &s.inject_us),
        ("reload", &s.reload_us),
    ] {
        rep.metric_noted(
            format!("serve.rtt_us.{verb}"),
            p50(x),
            "us",
            format!("p50 of {}", x.len()),
        );
    }

    let (v, note) = cycle_p99(&s.event_p99s, &s.event_us);
    rep.metric_noted("serve.event_us_p99", v, "us", note);

    // The writer's first streams, replayed through `Monitor::feed_line`
    // on the daemon's pool width.
    let pool = Pool::auto();
    let mut feed = Samples::new();
    let mut growth = Samples::new();
    for &seed in s.stream_seeds.iter().take(3) {
        let stream = monitor_stream(&mut Rng::new(seed), EVENTS_PER_STREAM);
        let mut m = Monitor::new("replay", WATCHED.iter().map(|w| w.to_string()))
            .expect("watched formulas parse");
        let mut events = Samples::new();
        for (i, (line, want)) in stream.lines.iter().zip(&stream.expected).enumerate() {
            let t = Instant::now();
            let out = m.feed_line(line, &pool);
            let took = t.elapsed();
            rep.check(out.as_ref() == Ok(want), || {
                format!("in-process feed of {line}")
            });
            feed.push_us(took);
            if i >= 3 {
                events.push_us(took);
            }
        }
        if let Some(g) = events.growth() {
            growth.push(g);
        }
    }
    let feed_p50 = p50(&feed);
    rep.metric_noted(
        "core.monitor.feed_us_p50",
        feed_p50,
        "us",
        format!("p50 of {}", feed.len()),
    );
    rep.metric_noted(
        "core.monitor.feed_growth",
        p50(&growth),
        "ratio",
        format!("last/first quarter of {} stream(s)", growth.len()),
    );
    rep.metric("serve.event_overhead_us", p50(&s.event_us) - feed_p50, "us");

    // The same EVAL draws on warm in-process evaluators.
    let mut eval = Samples::new();
    for (si, versions) in input.sessions.iter().enumerate() {
        for (vi, v) in versions.iter().enumerate() {
            let sem = Semantics::new(&v.system, v.goods.clone());
            let mine: Vec<&Draw> = input.draws.iter().filter(|d| d.session == si).collect();
            for d in &mine {
                v.eval(&sem, d.point, &d.text);
            }
            for d in &mine {
                let t = Instant::now();
                let got = v.eval(&sem, d.point, &d.text);
                eval.push_us(t.elapsed());
                rep.check(got == d.expected[vi], || {
                    format!("in-process EVAL {}", d.text)
                });
            }
        }
    }
    rep.metric_noted(
        "core.semantics.eval_us_p50",
        p50(&eval),
        "us",
        format!("p50 of {}", eval.len()),
    );

    let stats = counters.stats;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.metric(
        "serve.eval_warm_ratio",
        ratio(stats.eval_warm, stats.eval_served),
        "ratio",
    );
    rep.metric(
        "serve.inject_exec_hit_ratio",
        ratio(stats.inject_exec_hits, stats.inject_served),
        "ratio",
    );
    rep.metric(
        "serve.monitor_points_reused",
        stats.monitor_points_reused as f64,
        "count",
    );
    rep.metric("serve.monitor_delta", stats.monitor_delta as f64, "count");
    rep.metric("serve.monitor_full", stats.monitor_full as f64, "count");
    rep.metric(
        "serve.busy_workers_peak",
        counters.busy_workers_peak,
        "count",
    );
    rep.metric("serve.queue_depth_peak", counters.queue_depth_peak, "count");
    rep.metric("serve.rejected", counters.rejected, "count");
    rep.metric_noted(
        "serve.load_ms",
        p50(load_ms),
        "ms",
        format!("p50 of {}", load_ms.len()),
    );
}

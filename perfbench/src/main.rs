//! The atl benchmark: one command that runs a workload in-process
//! against the release library crates, checks every output, and prints
//! every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <sweep|hunt|serve> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Every workload measures all three user-facing operations — a cold
//! fault sweep, a cold attack hunt, and daemon round trips — interleaved,
//! so every run reports every end-to-end metric. The workload names the
//! operation that gets the extra share of the time ([`MAIN_WEIGHT`]).
//! Why each workload exists:
//!
//! - `sweep`: cold `fault_sweep` of the Needham–Schroeder spec over plan
//!   seeds `[40 s, 40 s + 40)` × drop {0, .3, .6} × replay {0, 1} (240
//!   plans), fresh cache, default pool. The only operation where the
//!   distinct-run `System`, the good-run construction and `valid_on` do
//!   most of the work, and where the default pool width has lost to
//!   width 1.
//! - `hunt`: cold `hunt_report` on the same spec, budget 256, fresh
//!   cache, default pool, cycling over hunt seeds derived from `s`.
//!   Execution and mutation/shrinking dominate; no `System`, good runs
//!   or semantics, so a semantic-layer change should not move it.
//! - `serve`: an in-process daemon with the Needham–Schroeder and
//!   Kerberos specs loaded and two closed-loop connections: a monitor
//!   writer streaming seeded 256-event traces, and a reader mixing
//!   memoized `EVAL`s, `ANALYZE`, cold `INJECT`s and `RELOAD`s on the
//!   same worker pool. The round trip users of the daemon feel.
//!
//! With `--trace 1` the run prints the per-layer metrics instead: each
//! call into a layer's public function is timed from this benchmark's
//! own code (see `README.md` for which end-to-end metric each should
//! move).

mod gen;
mod hunt;
mod report;
mod serve;
mod stats;
mod sweep;

use atl_core::annotate::AtProtocol;
use atl_core::enact::{enact_with, EnactOptions};
use atl_core::parallel::Pool;
use atl_core::spec::parse_spec;
use atl_model::ExpectPolicy;
use report::Report;
use stats::Samples;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Relative time each operation gets in a run, before the workload's
/// own operation is weighted by [`MAIN_WEIGHT`]. A hunt takes about a
/// second and its cost varies with the hunt seed's trajectory, so it
/// needs the most samples to give a steady median.
const WEIGHTS: [f64; 3] = [2.0, 3.0, 1.5];
/// Extra weight of the workload's own operation.
const MAIN_WEIGHT: f64 = 2.0;
/// Fewest units of each operation a run measures, whatever `--seconds`
/// says: cold sweeps, cold hunts (one per hunt seed), daemon cycles.
const MIN_UNITS: [usize; 3] = [12, 14, 8];
/// The floors of a traced run, whose per-layer metrics carry no bound.
const MIN_TRACED_UNITS: [usize; 3] = [4, 4, 3];
/// Hunt seeds per run: `[16 s, 16 s + 16)`, used in turn.
const HUNT_SEEDS: u64 = 16;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Op {
    Sweep,
    Hunt,
    Serve,
}

struct Args {
    workload: Op,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (0u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value()?.as_str() {
                    "sweep" => Op::Sweep,
                    "hunt" => Op::Hunt,
                    "serve" => Op::Serve,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sweep|hunt|serve> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = run(&args);
    let _ = std::fs::remove_file(serve::EDITED_PATH);
    match result {
        Ok(rep) => {
            for f in rep.failures() {
                eprintln!("perfbench: FAILED {f}");
            }
            print!("{}", rep.table());
            println!("{}", rep.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// The expect policy every operation uses: `atl`'s default, wait 6
/// rounds, resend twice, then skip.
fn policy() -> ExpectPolicy {
    ExpectPolicy::resend_after(6, 2)
}

/// Reads, parses and enacts the Needham–Schroeder spec once; returns the
/// parse and enact times.
fn parse_and_enact() -> Result<(AtProtocol, Duration, Duration), String> {
    let t = Instant::now();
    let text = std::fs::read_to_string(serve::NS_PATH)
        .map_err(|e| format!("cannot read {}: {e}", serve::NS_PATH))?;
    let (at, _) = parse_spec(&text).map_err(|e| e.diagnostic(serve::NS_PATH))?;
    let parse = t.elapsed();
    let t = Instant::now();
    let proto = enact_with(
        &at,
        EnactOptions {
            expect_policy: policy(),
        },
    );
    std::hint::black_box(proto);
    Ok((at, parse, t.elapsed()))
}

const OPS: [Op; 3] = [Op::Sweep, Op::Hunt, Op::Serve];

fn run(args: &Args) -> Result<Report, String> {
    let pool = Pool::auto();
    println!("{}", report::host_line(pool.jobs()));
    println!(
        "workload {:?} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut rep = Report::default();
    let (at, _, _) = parse_and_enact()?;
    let mut w = Work::new(args, at, pool)?;

    // Interleave units of the three operations so each gets its weighted
    // share of the run: always run the operation furthest below its
    // share. A burst of outside load then lands on every operation
    // alike instead of on whichever phase it hit.
    let weights: Vec<f64> = OPS
        .iter()
        .zip(WEIGHTS)
        .map(|(op, w)| {
            if *op == args.workload {
                w * MAIN_WEIGHT
            } else {
                w
            }
        })
        .collect();
    let floors = if args.trace {
        MIN_TRACED_UNITS
    } else {
        MIN_UNITS
    };
    let mut used = [0.0f64; 3];
    let mut units = [0usize; 3];
    let t0 = Instant::now();
    let mut step = 0u64;
    loop {
        let time_left = t0.elapsed().as_secs_f64() < args.seconds;
        let next = (0..3)
            .filter(|&i| time_left || units[i] < floors[i])
            .min_by(|&a, &b| (used[a] / weights[a]).total_cmp(&(used[b] / weights[b])));
        let Some(i) = next else { break };
        // In a traced run the workload's own operation alternates between
        // untraced and traced units, so the two can be compared.
        let traced = args.trace && (OPS[i] != args.workload || units[i] % 2 == 1);
        report::reset_peak_rss();
        let t = Instant::now();
        w.unit(OPS[i], traced, &mut rep)?;
        used[i] += t.elapsed().as_secs_f64();
        units[i] += 1;
        if OPS[i] == args.workload {
            w.rss_mb.push(report::peak_rss_mb().unwrap_or(f64::NAN));
        }
        // Every unit starts from a trimmed heap, as a one-shot process
        // starts from an empty one. Without this, each daemon cycle's
        // fresh threads leave freed memory in their malloc arenas, and
        // peak RSS and daemon start-up vary with thread scheduling.
        report::release_freed_memory();
        // A set-up sample between units, for the workloads whose set-up
        // is parse and enact only.
        if args.workload != Op::Serve {
            w.setup_sample()?;
        }
        step += 1;
    }
    eprintln!(
        "perfbench: {step} units in {:.1} s (sweep {} / {:.1} s, hunt {} / {:.1} s, serve {} / {:.1} s)",
        t0.elapsed().as_secs_f64(),
        units[0],
        used[0],
        units[1],
        used[1],
        units[2],
        used[2],
    );
    w.finish(args, &mut rep);
    Ok(rep)
}

/// Inputs, references and samples of one run.
struct Work {
    seed: u64,
    workload: Op,
    trace: bool,
    at: AtProtocol,
    pool: Pool,
    sweep_input: sweep::SweepInput,
    sweep_reference: Option<String>,
    hunt_renders: Vec<Option<String>>,
    hunt_next: usize,
    serve_input: serve::ServeInput,
    serve_cycle: u64,
    serve_counters: serve::Counters,
    injects: Vec<serve::InjectSeen>,
    /// Set-up: the whole of it, its parse and enact parts, and the `LOAD`
    /// round trips of every daemon start.
    setup_s: Samples,
    parse_us: Samples,
    enact_us: Samples,
    load_ms: Samples,
    // Untraced samples.
    sweep_ms: Samples,
    hunt_ms: Samples,
    serve: serve::LoopSamples,
    // Traced samples.
    wide: sweep::Stages,
    narrow: sweep::Stages,
    hunt_layers: hunt::Layers,
    serve_traced: serve::LoopSamples,
    /// Peak RSS of each unit of the workload's own operation (the
    /// kernel's high-water mark is reset before every unit).
    rss_mb: Samples,
}

impl Work {
    fn new(args: &Args, at: AtProtocol, pool: Pool) -> Result<Work, String> {
        Ok(Work {
            seed: args.seed,
            workload: args.workload,
            trace: args.trace,
            sweep_input: sweep::input(&at, args.seed),
            at,
            pool,
            sweep_reference: None,
            hunt_renders: vec![None; HUNT_SEEDS as usize],
            hunt_next: 0,
            serve_input: serve::input(args.seed)?,
            serve_cycle: 0,
            serve_counters: serve::Counters::default(),
            injects: Vec::new(),
            setup_s: Samples::new(),
            parse_us: Samples::new(),
            enact_us: Samples::new(),
            load_ms: Samples::new(),
            sweep_ms: Samples::new(),
            hunt_ms: Samples::new(),
            serve: serve::LoopSamples::default(),
            wide: sweep::Stages::default(),
            narrow: sweep::Stages::default(),
            hunt_layers: hunt::Layers::default(),
            serve_traced: serve::LoopSamples::default(),
            rss_mb: Samples::new(),
        })
    }

    /// One parse-and-enact set-up.
    fn setup_sample(&mut self) -> Result<Duration, String> {
        let (_, parse, enact) = parse_and_enact()?;
        self.parse_us.push_us(parse);
        self.enact_us.push_us(enact);
        if self.workload != Op::Serve {
            self.setup_s.push((parse + enact).as_secs_f64());
        }
        Ok(parse + enact)
    }

    /// One unit of `op`: a cold sweep, a cold hunt, or a daemon cycle.
    fn unit(&mut self, op: Op, traced: bool, rep: &mut Report) -> Result<(), String> {
        match op {
            Op::Sweep => {
                let reference = self.sweep_reference(rep).to_string();
                if traced {
                    sweep::traced(
                        &self.sweep_input,
                        &self.pool,
                        &mut self.wide,
                        rep,
                        &reference,
                    );
                    sweep::traced(
                        &self.sweep_input,
                        &Pool::new(1),
                        &mut self.narrow,
                        rep,
                        &reference,
                    );
                } else {
                    let t = Instant::now();
                    let (report, text) = sweep::cold(&self.sweep_input, &self.pool);
                    self.sweep_ms.push_ms(t.elapsed());
                    sweep::check(rep, &report, &text, &reference);
                }
            }
            Op::Hunt => {
                // A traced run of the hunt workload alternates untraced and
                // traced hunts; both of a pair use the same hunt seed.
                let pair = if self.trace && self.workload == Op::Hunt {
                    2
                } else {
                    1
                };
                let slot = (self.hunt_next / pair) % HUNT_SEEDS as usize;
                self.hunt_next += 1;
                let hunt_seed = self.hunt_seed(slot);
                let settings = hunt::settings(&self.at, hunt_seed);
                if slot == 0 && self.hunt_renders[0].is_none() {
                    // The width-1 reference, made once, with the fixture
                    // check.
                    self.hunt_renders[0] = Some(hunt::reference(&self.at, &settings, rep));
                }
                let (report, text) = if traced {
                    hunt::traced(&self.at, &settings, &self.pool, &mut self.hunt_layers, rep)
                } else {
                    let t = Instant::now();
                    let done = hunt::cold(&self.at, &settings, &self.pool);
                    self.hunt_ms.push_ms(t.elapsed());
                    done
                };
                hunt::check_minimal(&self.at, &settings, &report.outcome, rep);
                match &self.hunt_renders[slot] {
                    Some(first) => hunt::check(rep, hunt_seed, &text, first),
                    None => self.hunt_renders[slot] = Some(text),
                }
            }
            Op::Serve => {
                // The serve set-up is parse and enact plus the daemon's
                // start and both LOADs.
                let local = if self.workload == Op::Serve {
                    self.setup_sample()?
                } else {
                    Duration::ZERO
                };
                self.serve_cycle += 1;
                let (samples, injects, start) = serve::cycle(
                    &self.serve_input,
                    self.serve_cycle,
                    &mut self.load_ms,
                    &mut self.serve_counters,
                    rep,
                )?;
                if self.workload == Op::Serve {
                    self.setup_s.push((local + start).as_secs_f64());
                }
                self.injects.extend(injects);
                if traced {
                    self.serve_traced.merge(samples);
                } else {
                    self.serve.merge(samples);
                }
            }
        }
        Ok(())
    }

    /// The hunt seed of slot `slot`: seeds `[16 s, 16 s + 16)`.
    fn hunt_seed(&self, slot: usize) -> u64 {
        self.seed
            .saturating_mul(HUNT_SEEDS)
            .saturating_add(slot as u64)
    }

    fn sweep_reference(&mut self, rep: &mut Report) -> &str {
        if self.sweep_reference.is_none() {
            let (report, text) = sweep::cold(&self.sweep_input, &Pool::new(1));
            sweep::check(rep, &report, &text, &text);
            self.sweep_reference = Some(text);
        }
        self.sweep_reference.as_deref().expect("set above")
    }

    fn finish(self, args: &Args, rep: &mut Report) {
        serve::verify_injects(&self.serve_input, &self.injects, rep);
        let p50 = |s: &Samples| s.median().unwrap_or(f64::NAN);
        let n = |s: &Samples| format!("p50 of {}", s.len());
        if !args.trace {
            rep.metric_noted("setup_s", p50(&self.setup_s), "s", n(&self.setup_s));
            rep.metric_noted(
                "peak_rss_mb",
                p50(&self.rss_mb),
                "MiB",
                format!("p50 over {} units", self.rss_mb.len()),
            );
            rep.metric_noted("sweep_ms_p50", p50(&self.sweep_ms), "ms", n(&self.sweep_ms));
            rep.metric_noted("hunt_ms_p50", p50(&self.hunt_ms), "ms", n(&self.hunt_ms));
            serve::report_end_to_end(rep, &self.serve);
            return;
        }
        sweep::report_layers(rep, &self.wide, &self.narrow);
        hunt::report_layers(rep, &self.hunt_layers);
        serve::report_layers(
            rep,
            &self.serve_input,
            &self.serve_traced,
            &self.serve_counters,
            &self.load_ms,
        );
        rep.metric_noted(
            "spec.parse_us",
            p50(&self.parse_us),
            "us",
            n(&self.parse_us),
        );
        rep.metric_noted("enact.us", p50(&self.enact_us), "us", n(&self.enact_us));
        // Tracing overhead of the workload's own operation: its traced
        // median minus its untraced median.
        let (traced_ms, untraced_ms) = match args.workload {
            Op::Sweep => (p50(&self.wide.total_ms), p50(&self.sweep_ms)),
            Op::Hunt => (p50(&self.hunt_layers.total_ms), p50(&self.hunt_ms)),
            Op::Serve => (
                p50(&self.serve_traced.all_us) / 1e3,
                p50(&self.serve.all_us) / 1e3,
            ),
        };
        rep.metric_noted(
            "trace.overhead_ms",
            traced_ms - untraced_ms,
            "ms",
            format!("traced {traced_ms:.4} - untraced {untraced_ms:.4}"),
        );
    }
}

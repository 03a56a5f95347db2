//! The single-plan fault-injection report, shared by `atl inject` and
//! the serve-mode daemon.
//!
//! [`inject_report`] runs one [`FaultPlan`] against an idealized
//! protocol and renders the belief-survival report the CLI has always
//! printed: execution summary, injected faults, the restriction 1–5
//! audit, and which annotation-procedure beliefs survive the
//! degradation. Execution is routed through
//! [`sweep_plans_on`](atl_model::sweep_plans_on) with a caller-supplied
//! [`ExecutionCache`], so a long-lived process (the daemon) answers
//! repeated plans as reference bumps while a one-shot CLI invocation
//! just passes a fresh cache — the report bytes are identical either
//! way (the e16 suite pins swept outcomes to direct execution).
//!
//! [`FaultRequest`] parses the fault-plan flags of both frontends.

use crate::annotate::{analyze_at, AtProtocol, AtStep};
use crate::enact::{enact_with, EnactOptions};
use crate::fabric::FabricConfig;
use crate::hunt::{default_space, HuntSettings};
use crate::parallel::Pool;
use atl_lang::{Formula, Key, KeyTerm, Message, Principal};
use atl_model::{
    sweep_plans_on, validate_run, Action, ExecOptions, ExecutionCache, ExpectPolicy, FaultPlan,
    HuntConfig, ModelError, Run, SweepGrid,
};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

/// Everything that determines one `inject` execution: the plan, the
/// expect policy the roles are enacted with, and the executor options.
#[derive(Clone, Debug)]
pub struct InjectRequest {
    /// The fault plan to execute.
    pub plan: FaultPlan,
    /// How waiting roles cope with missing messages.
    pub policy: ExpectPolicy,
    /// Executor options (public channel, round caps, …).
    pub options: ExecOptions,
}

/// The request a fault-flag string is parsed for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultVerb {
    /// `atl inject` and `INJECT`: one plan, or a grid under `--sweep`.
    Inject,
    /// `atl hunt` and `HUNT`: a coverage-guided attack search.
    Hunt,
}

/// Where a parsed request runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Frontend {
    /// The one-shot CLI, which reads and writes local files and reaches
    /// other daemons.
    Cli,
    /// The serve-mode daemon, which answers from a loaded session only.
    Daemon,
}

/// A parsed fault-plan request: every flag of `atl inject`, `atl hunt`,
/// `INJECT` and `HUNT`, read by [`FaultRequest::parse`]. Both frontends
/// hand the same typed value to the engines, so a request answers the
/// same bytes, or fails with the same message, wherever it is sent.
#[derive(Clone, Debug)]
pub struct FaultRequest {
    /// The spec path (the CLI's one positional argument).
    pub path: Option<String>,
    /// `--sweep`: grid the probability step lists instead of running
    /// one plan.
    pub sweep: bool,
    /// `--emit-trace FILE`: where a single-plan inject writes its run.
    pub emit_trace: Option<String>,
    /// `--store DIR`: the fabric's outcome store under `inject --sweep`,
    /// the hunt corpus under `hunt`.
    pub store: Option<PathBuf>,
    /// `--from-monitor FILE`: a monitor checkpoint that seeds a hunt.
    pub from_monitor: Option<String>,
    seed: u64,
    seeds: u64,
    /// The probability step lists and delay rounds.
    grid: SweepGrid,
    compromises: Vec<(Key, i64)>,
    patience: u32,
    retries: u32,
    public: bool,
    /// The hunt's budget and batch.
    hunt: HuntConfig,
    steps: Option<Vec<f64>>,
    fabric: FabricConfig,
}

/// Flag bits: the modes a flag applies to, plus `LOCAL` and `SWITCH`.
const SINGLE: u8 = 1;
const SWEEP: u8 = 2;
const HUNT: u8 = 4;
const INJECT: u8 = SINGLE | SWEEP;
const ANY: u8 = INJECT | HUNT;
/// The flag needs the local machine (a file, or other daemons), so the
/// daemon refuses it.
const LOCAL: u8 = 8;
/// The flag is a switch and takes no value.
const SWITCH: u8 = 16;

/// One flag of the grammar: its name, its mode bits, and how its value
/// sets the request. A setter's error is prefixed with the flag's name.
type Flag = (
    &'static str,
    u8,
    fn(&mut FaultRequest, &str) -> Result<(), String>,
);

fn value<T: FromStr>(v: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    v.parse().map_err(|e: T::Err| e.to_string())
}

fn steps(v: &str) -> Result<Vec<f64>, String> {
    v.split(',').map(value).collect()
}

fn on(switch: &mut bool) -> Result<(), String> {
    *switch = true;
    Ok(())
}

fn set_delay(r: &mut FaultRequest, v: &str) -> Result<(), String> {
    let (p, rounds) = match v.split_once(':') {
        Some((p, rounds)) => (p, value(rounds).map_err(|e| format!("rounds: {e}"))?),
        None => (v, 2),
    };
    r.grid.delay_steps = steps(p)?;
    r.grid.delay_rounds = rounds;
    Ok(())
}

fn add_compromise(r: &mut FaultRequest, v: &str) -> Result<(), String> {
    let (key, t) = v.split_once('@').ok_or("takes KEY@TIME, e.g. Kab@2")?;
    let t = value(t).map_err(|e| format!("time: {e}"))?;
    r.compromises.push((Key::new(key), t));
    Ok(())
}

fn set_workers(r: &mut FaultRequest, v: &str) -> Result<(), String> {
    let workers = v.split(',').filter(|w| !w.is_empty());
    r.fabric.workers = workers.map(str::to_string).collect();
    Ok(())
}

fn set_steps(r: &mut FaultRequest, v: &str) -> Result<(), String> {
    let parsed = steps(v)?;
    if let Some(p) = parsed.iter().find(|p| !(0.0..=1.0).contains(*p)) {
        return Err(format!("probability {p} is outside [0, 1]"));
    }
    r.steps = Some(parsed);
    Ok(())
}

/// Every flag, once.
const FLAGS: &[Flag] = &[
    ("--sweep", INJECT | LOCAL | SWITCH, |r, _| on(&mut r.sweep)),
    ("--seed", ANY, |r, v| value(v).map(|n| r.seed = n)),
    ("--seeds", SWEEP, |r, v| value(v).map(|n| r.seeds = n)),
    ("--drop", INJECT, |r, v| {
        steps(v).map(|s| r.grid.drop_steps = s)
    }),
    ("--dup", INJECT, |r, v| {
        steps(v).map(|s| r.grid.duplicate_steps = s)
    }),
    ("--delay", INJECT, set_delay),
    ("--reorder", INJECT, |r, v| {
        steps(v).map(|s| r.grid.reorder_steps = s)
    }),
    ("--replay", INJECT, |r, v| {
        steps(v).map(|s| r.grid.replay_steps = s)
    }),
    ("--compromise", ANY, add_compromise),
    ("--patience", ANY, |r, v| value(v).map(|n| r.patience = n)),
    ("--retries", ANY, |r, v| value(v).map(|n| r.retries = n)),
    ("--public", ANY | SWITCH, |r, _| on(&mut r.public)),
    ("--emit-trace", SINGLE | LOCAL, |r, v| {
        value(v).map(|f| r.emit_trace = Some(f))
    }),
    ("--store", SWEEP | HUNT | LOCAL, |r, v| {
        value(v).map(|d| r.store = Some(d))
    }),
    ("--workers", SWEEP | LOCAL, set_workers),
    ("--shard", SWEEP | LOCAL, |r, v| {
        value(v).map(|n: usize| r.fabric.shard_plans = n.max(1))
    }),
    ("--deadline-ms", SWEEP | LOCAL, |r, v| {
        value(v).map(|ms: u64| r.fabric.deadline = Duration::from_millis(ms.max(1)))
    }),
    ("--shard-retries", SWEEP | LOCAL, |r, v| {
        value(v).map(|n| r.fabric.shard_retries = n)
    }),
    ("--worker-failures", SWEEP | LOCAL, |r, v| {
        value(v).map(|n| r.fabric.worker_failures = n)
    }),
    ("--backoff-ms", SWEEP | LOCAL, |r, v| {
        value(v).map(|ms| r.fabric.backoff = Duration::from_millis(ms))
    }),
    ("--budget", HUNT, |r, v| value(v).map(|n| r.hunt.budget = n)),
    ("--batch", HUNT, |r, v| {
        value(v).map(|n: usize| r.hunt.batch = n.max(1))
    }),
    ("--steps", HUNT, set_steps),
    ("--from-monitor", HUNT | LOCAL, |r, v| {
        value(v).map(|f| r.from_monitor = Some(f))
    }),
];

impl FaultRequest {
    /// Parses the whitespace-separated `tokens` of a `verb` request
    /// bound for `frontend`. The CLI's tokens may carry the spec path;
    /// the daemon's are the flags after the session id.
    ///
    /// # Errors
    ///
    /// A message naming the offending token: an unknown flag, a missing
    /// or malformed value, a flag the chosen mode does not take, or, for
    /// [`Frontend::Daemon`], a spec path or a flag that needs the local
    /// machine.
    pub fn parse<T: AsRef<str>>(
        verb: FaultVerb,
        frontend: Frontend,
        tokens: impl IntoIterator<Item = T>,
    ) -> Result<FaultRequest, String> {
        let mut req = FaultRequest {
            path: None,
            sweep: false,
            emit_trace: None,
            store: None,
            from_monitor: None,
            seed: 0,
            seeds: 4,
            grid: SweepGrid::new(),
            compromises: Vec::new(),
            patience: 6,
            retries: 2,
            public: false,
            hunt: HuntConfig::default(),
            steps: None,
            fabric: FabricConfig::default(),
        };
        let mut given: Vec<&Flag> = Vec::new();
        let mut tokens = tokens.into_iter();
        while let Some(token) = tokens.next() {
            let token = token.as_ref();
            let Some(flag @ (_, modes, set)) = FLAGS.iter().find(|f| f.0 == token) else {
                if token.starts_with("--") || req.path.is_some() {
                    return Err(format!("unknown flag {token}"));
                }
                req.path = Some(token.to_string());
                continue;
            };
            let value = match modes & SWITCH {
                0 => Some(tokens.next().ok_or(format!("{token} needs a value"))?),
                _ => None,
            };
            let value = value.as_ref().map_or("", AsRef::as_ref);
            set(&mut req, value).map_err(|e| format!("{token}: {e}"))?;
            given.push(flag);
        }
        let (mode, mode_name) = match verb {
            FaultVerb::Hunt => (HUNT, "hunt"),
            FaultVerb::Inject if req.sweep => (SWEEP, "inject --sweep"),
            FaultVerb::Inject => (SINGLE, "inject without --sweep"),
        };
        if let Some((name, modes, _)) = given.iter().find(|f| f.1 & mode == 0) {
            // A hunt-only flag fits neither inject mode.
            let scope = if modes & INJECT == 0 {
                "inject"
            } else {
                mode_name
            };
            return Err(format!("{name} does not apply to {scope}"));
        }
        if frontend == Frontend::Daemon {
            let flag = given
                .iter()
                .find(|f| f.1 & LOCAL != 0)
                .map(|f| f.0.to_string());
            let path = req.path.as_ref().map(|p| format!("spec path {p}"));
            if let Some(what) = path.or(flag) {
                return Err(format!(
                    "{what} needs the local machine; the daemon does not take it"
                ));
            }
        }
        Ok(req)
    }

    /// The single fault plan of an `inject` without `--sweep`.
    ///
    /// # Errors
    ///
    /// A message naming a probability flag that lists several steps.
    pub fn plan(&self) -> Result<FaultPlan, String> {
        let one = |name: &str, steps: &[f64]| match steps {
            [] => Ok(0.0),
            [p] => Ok(*p),
            _ => Err(format!(
                "{name} lists multiple steps; use --sweep to grid them"
            )),
        };
        let g = &self.grid;
        let mut plan = FaultPlan::new(self.seed)
            .drop(one("--drop", &g.drop_steps)?)
            .duplicate(one("--dup", &g.duplicate_steps)?)
            .delay(one("--delay", &g.delay_steps)?, g.delay_rounds)
            .reorder(one("--reorder", &g.reorder_steps)?)
            .replay(one("--replay", &g.replay_steps)?);
        plan.compromises = self.compromises.clone();
        Ok(plan)
    }

    /// The plan grid of an `inject --sweep`: `--seeds` seeds starting at
    /// `--seed`, the cartesian product of every step list, and (when
    /// keys are compromised) both the clean and the compromised
    /// schedule.
    pub fn grid(&self) -> SweepGrid {
        let choices = if self.compromises.is_empty() {
            Vec::new()
        } else {
            vec![Vec::new(), self.compromises.clone()]
        };
        SweepGrid {
            seeds: self.seed..self.seed.saturating_add(self.seeds),
            compromise_choices: choices,
            ..self.grid.clone()
        }
    }

    /// Wait `--patience` rounds, then resend up to `--retries` times
    /// (skip when `--retries 0`).
    pub fn policy(&self) -> ExpectPolicy {
        if self.retries > 0 {
            ExpectPolicy::resend_after(self.patience, self.retries)
        } else {
            ExpectPolicy::skip_after(self.patience)
        }
    }

    /// The executor options: `--public` opens the channel.
    pub fn options(&self) -> ExecOptions {
        ExecOptions {
            public_channel: self.public,
            ..ExecOptions::default()
        }
    }

    /// The single-plan request [`inject_report`] runs.
    ///
    /// # Errors
    ///
    /// As for [`plan`](FaultRequest::plan).
    pub fn inject_request(&self) -> Result<InjectRequest, String> {
        Ok(InjectRequest {
            plan: self.plan()?,
            policy: self.policy(),
            options: self.options(),
        })
    }

    /// The fabric configuration of an `inject --sweep` that names
    /// workers or a store; `None` for a purely local sweep.
    pub fn fabric(&self) -> Option<FabricConfig> {
        (!self.fabric.workers.is_empty() || self.store.is_some()).then(|| FabricConfig {
            store: self.store.clone(),
            ..self.fabric.clone()
        })
    }

    /// The hunt over `at`: its [`default_space`], with `--steps` as the
    /// probability palette and each `--compromise` added as a candidate.
    /// The seed corpus starts empty; the CLI fills it from
    /// `--from-monitor`.
    pub fn hunt_settings(&self, at: &AtProtocol) -> HuntSettings {
        let mut space = default_space(at);
        if let Some(steps) = &self.steps {
            space.prob_steps = steps.clone();
        }
        for (key, t) in &self.compromises {
            if !space.compromise_candidates.contains(&(key.clone(), *t)) {
                space = space.candidate(key.clone(), *t);
            }
        }
        HuntSettings {
            config: HuntConfig {
                seed: self.seed,
                space,
                ..self.hunt.clone()
            },
            options: self.options(),
            expect_policy: self.policy(),
        }
    }
}

/// The result of a single-plan injection: the rendered report plus the
/// pieces callers layer extras on (the CLI's `--emit-trace`, the
/// daemon's cache counters).
#[derive(Clone, Debug)]
pub struct InjectOutcome {
    /// The canonical report text (every line newline-terminated).
    pub report: String,
    /// The faulted run.
    pub run: Run,
    /// True if the run satisfied restrictions 1–5.
    pub ok: bool,
    /// True if the execution was answered by `cache` rather than run.
    pub cache_hit: bool,
}

/// Executes `req` against `at` and renders the belief-survival report.
///
/// The baseline/degraded annotation pair is sharded over `pool`;
/// execution goes through the sweep engine so `cache` can answer
/// repeats.
///
/// # Errors
///
/// [`ModelError`] if the plan is invalid or execution stalls.
pub fn inject_report(
    at: &AtProtocol,
    req: &InjectRequest,
    pool: &Pool,
    cache: &ExecutionCache,
) -> Result<InjectOutcome, ModelError> {
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: req.policy,
        },
    );
    let outcome = sweep_plans_on(
        &proto,
        &req.options,
        std::slice::from_ref(&req.plan),
        pool,
        cache,
    );
    let cache_hit = outcome.stats.cache_hits > 0;
    let result = outcome.results.into_iter().next().expect("one plan in");
    let (run, report) = match result.outcome.as_ref() {
        Ok((run, report)) => (run.clone(), report.clone()),
        Err(e) => return Err(e.clone()),
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "protocol {}: {} roles, seed {}",
        at.name,
        proto.roles().len(),
        req.plan.seed
    );
    let _ = writeln!(
        out,
        "execution: {} rounds, times {}..={}, {} sends, {} retransmissions",
        report.rounds,
        run.start_time(),
        run.horizon(),
        run.send_records().len(),
        report.retries
    );
    if report.faults.is_empty() {
        let _ = writeln!(out, "faults injected: none");
    } else {
        let _ = writeln!(out, "faults injected:");
        for f in &report.faults {
            let _ = writeln!(out, "  t={} {}: {}", f.time, f.kind, f.detail);
        }
    }
    for a in &report.abandoned {
        let _ = writeln!(
            out,
            "  !! {} abandoned step {}: {}",
            a.principal, a.step_index, a.detail
        );
    }

    let violations = validate_run(&run);
    if violations.is_empty() {
        let _ = writeln!(
            out,
            "audit: restrictions 1-5 all satisfied by the faulted run"
        );
    } else {
        for v in &violations {
            let _ = writeln!(out, "  !! {v}");
        }
    }

    // Belief survival: re-run the annotation procedure over only the
    // steps whose messages were actually delivered in the faulted run.
    let delivered = |to: &Principal, m: &Message| {
        *to == Principal::environment()
            || run.events().any(|(_, e)| {
                e.actor == *to && matches!(&e.action, Action::Receive { message } if message == m)
            })
    };
    let mut degraded = at.clone();
    degraded.steps = at
        .steps
        .iter()
        .filter(|s| match s {
            AtStep::Send { to, message, .. } => delivered(to, message),
            AtStep::NewKey { .. } => true,
        })
        .cloned()
        .collect();
    let sends = |steps: &[AtStep]| {
        steps
            .iter()
            .filter(|s| matches!(s, AtStep::Send { .. }))
            .count()
    };
    let dropped_steps = sends(&at.steps) - sends(&degraded.steps);
    // The baseline and degraded analyses are independent; prove the
    // pair concurrently when the pool has more than one worker.
    let (at_job, degraded_job) = (at.clone(), degraded.clone());
    let mut analyses = pool.run(vec![
        Box::new(move || analyze_at(&at_job)) as Box<dyn FnOnce() -> _ + Send>,
        Box::new(move || analyze_at(&degraded_job)),
    ]);
    let after = analyses.pop().expect("two analyses");
    let baseline = analyses.pop().expect("two analyses");
    let _ = writeln!(
        out,
        "beliefs: {} of {} idealized messages delivered",
        sends(&degraded.steps),
        sends(&at.steps)
    );
    let mut lost = 0;
    for ((goal, base_ok), (_, now_ok)) in baseline.goals.iter().zip(&after.goals) {
        let tag = match (base_ok, now_ok) {
            (true, true) => "survives",
            (true, false) => {
                lost += 1;
                "degraded"
            }
            (false, _) => "unproven",
        };
        let _ = writeln!(out, "  [{tag}] {goal}");
        for (key, t) in &req.plan.compromises {
            if formula_mentions_key(goal, key) {
                let _ = writeln!(
                    out,
                    "      note: mentions {key}, compromised at t={t} — the \
                     environment holds this key from then on"
                );
            }
        }
    }
    if dropped_steps == 0 && lost == 0 && violations.is_empty() {
        let _ = writeln!(
            out,
            "verdict: run well-formed; all idealized beliefs survive this plan"
        );
    } else {
        let _ = writeln!(
            out,
            "verdict: run {}; {lost} belief(s) degraded, {dropped_steps} message(s) undelivered",
            if violations.is_empty() {
                "well-formed"
            } else {
                "ILL-FORMED"
            }
        );
    }
    Ok(InjectOutcome {
        report: out,
        run,
        ok: violations.is_empty(),
        cache_hit,
    })
}

/// Does `f` mention the key `k` anywhere (directly or inside a message)?
pub fn formula_mentions_key(f: &Formula, k: &Key) -> bool {
    let kt = |t: &KeyTerm| matches!(t, KeyTerm::Key(key) if key == k || &key.inverse() == k);
    match f {
        Formula::Prop(_) | Formula::True => false,
        Formula::Not(g) => formula_mentions_key(g, k),
        Formula::And(a, b) => formula_mentions_key(a, k) || formula_mentions_key(b, k),
        Formula::Believes(_, g) | Formula::Controls(_, g) => formula_mentions_key(g, k),
        Formula::Sees(_, m) | Formula::Said(_, m) | Formula::Says(_, m) | Formula::Fresh(m) => {
            message_mentions_key(m, k)
        }
        Formula::SharedSecret(_, m, _) => message_mentions_key(m, k),
        Formula::SharedKey(_, t, _) | Formula::Has(_, t) | Formula::PublicKey(t, _) => kt(t),
    }
}

/// Does `m` mention the key `k` anywhere (directly, as an encryption
/// key, or inside an embedded formula)?
pub fn message_mentions_key(m: &Message, k: &Key) -> bool {
    let kt = |t: &KeyTerm| matches!(t, KeyTerm::Key(key) if key == k || &key.inverse() == k);
    match m {
        Message::Key(key) => key == k,
        Message::Formula(f) => formula_mentions_key(f, k),
        Message::Tuple(items) => items.iter().any(|i| message_mentions_key(i, k)),
        Message::Encrypted { body, key, .. }
        | Message::Signed { body, key, .. }
        | Message::PubEncrypted { body, key, .. } => kt(key) || message_mentions_key(body, k),
        Message::Combined { body, secret, .. } => {
            message_mentions_key(body, k) || message_mentions_key(secret, k)
        }
        Message::Forwarded(body) => message_mentions_key(body, k),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atl_lang::Nonce;

    fn toy() -> AtProtocol {
        let a = Principal::new("A");
        let b = Principal::new("B");
        let k = Key::new("Kab");
        AtProtocol::new("toy")
            .assume(Formula::believes(
                a.clone(),
                Formula::shared_key(a.clone(), k.clone(), b.clone()),
            ))
            .step(
                a.clone(),
                b.clone(),
                Message::encrypted(Message::nonce(Nonce::new("Na")), k.clone(), a.clone()),
            )
            .goal(Formula::sees(
                b,
                Message::encrypted(Message::nonce(Nonce::new("Na")), k, a),
            ))
    }

    fn req(plan: FaultPlan) -> InjectRequest {
        InjectRequest {
            plan,
            policy: ExpectPolicy::resend_after(6, 2),
            options: ExecOptions::default(),
        }
    }

    #[test]
    fn report_is_deterministic_and_cache_aware() {
        let at = toy();
        let pool = Pool::new(1);
        let cache = ExecutionCache::new();
        let first = inject_report(&at, &req(FaultPlan::new(3)), &pool, &cache).expect("clean run");
        assert!(!first.cache_hit);
        assert!(first.ok);
        assert!(first.report.starts_with("protocol toy: "));
        let second = inject_report(&at, &req(FaultPlan::new(3)), &pool, &cache).expect("clean run");
        assert!(second.cache_hit, "second identical plan must hit the cache");
        assert_eq!(first.report, second.report);
    }

    #[test]
    fn mentions_key_sees_inverse_and_nesting() {
        let k = Key::new("Kab");
        let f = Formula::shared_key(Principal::new("A"), k.clone(), Principal::new("B"));
        assert!(formula_mentions_key(&f, &k));
        assert!(!formula_mentions_key(&Formula::True, &k));
        let m = Message::encrypted(Message::key(k.clone()), Key::new("Kother"), "A");
        assert!(message_mentions_key(&m, &k));
    }

    fn parse(verb: FaultVerb, frontend: Frontend, text: &str) -> Result<FaultRequest, String> {
        FaultRequest::parse(verb, frontend, text.split_whitespace())
    }

    #[test]
    fn plan_flags_parse_like_the_cli() {
        let text = "--seed 9 --drop 0.5 --delay 0.25:3 --compromise Kab@2";
        for frontend in [Frontend::Cli, Frontend::Daemon] {
            let plan = parse(FaultVerb::Inject, frontend, text)
                .and_then(|req| req.plan())
                .expect("valid flags");
            assert_eq!(plan.seed, 9);
            assert_eq!(plan.compromises, vec![(Key::new("Kab"), 2)]);
            let want = FaultPlan::new(9).drop(0.5).delay(0.25, 3);
            assert_eq!(plan, want.compromise("Kab", 2));
        }
        let daemon = |text| parse(FaultVerb::Inject, Frontend::Daemon, text).unwrap_err();
        let local = "needs the local machine; the daemon does not take it";
        assert_eq!(daemon("--sweep"), format!("--sweep {local}"));
        assert_eq!(
            daemon("spec.atl --seed 1"),
            format!("spec path spec.atl {local}")
        );
        assert_eq!(daemon("--drop"), "--drop needs a value");
        assert_eq!(daemon("--drop nan-ish"), "--drop: invalid float literal");
        assert_eq!(
            daemon("--compromise Kab"),
            "--compromise: takes KEY@TIME, e.g. Kab@2"
        );
        let listed = parse(FaultVerb::Inject, Frontend::Daemon, "--drop 0,1").expect("parses");
        assert_eq!(
            listed.plan().unwrap_err(),
            "--drop lists multiple steps; use --sweep to grid them"
        );
    }

    #[test]
    fn each_mode_rejects_the_flags_it_ignores() {
        use FaultVerb::{Hunt, Inject};
        let err = |verb, text| parse(verb, Frontend::Cli, text).unwrap_err();
        let single = "does not apply to inject without --sweep";
        for (verb, text, want) in [
            (Inject, "--seed 7 --seeds 10", format!("--seeds {single}")),
            (Inject, "--workers h:1", format!("--workers {single}")),
            (Inject, "--store d", format!("--store {single}")),
            (
                Inject,
                "--budget 5",
                "--budget does not apply to inject".to_string(),
            ),
            (
                Inject,
                "--sweep --emit-trace f",
                "--emit-trace does not apply to inject --sweep".to_string(),
            ),
            (
                Hunt,
                "--drop 0.5",
                "--drop does not apply to hunt".to_string(),
            ),
            (
                Hunt,
                "--sweep",
                "--sweep does not apply to hunt".to_string(),
            ),
            (Inject, "--nope", "unknown flag --nope".to_string()),
            (Hunt, "a.atl b.atl", "unknown flag b.atl".to_string()),
        ] {
            assert_eq!(err(verb, text), want, "{text}");
        }
        let hunt = parse(Hunt, Frontend::Daemon, "--store d").unwrap_err();
        assert!(
            hunt.starts_with("--store needs the local machine"),
            "{hunt}"
        );
        let sweep = parse(Inject, Frontend::Cli, "x.atl --sweep --drop 0,1 --store d")
            .expect("sweep flags");
        assert_eq!(sweep.grid().len(), 4 * 2);
        assert!(sweep.fabric().is_some_and(|f| f.store.is_some()));
    }

    #[test]
    fn policy_and_hunt_settings_come_from_the_flags() {
        let default = parse(FaultVerb::Hunt, Frontend::Daemon, "").expect("no flags");
        assert_eq!(default.policy(), ExpectPolicy::resend_after(6, 2));
        let skip = parse(
            FaultVerb::Hunt,
            Frontend::Daemon,
            "--retries 0 --patience 3",
        )
        .expect("policy flags");
        assert_eq!(skip.policy(), ExpectPolicy::skip_after(3));
        let at = toy();
        let req = parse(
            FaultVerb::Hunt,
            Frontend::Daemon,
            "--seed 4 --batch 0 --steps 0,1 --compromise Kab@5 --compromise Kab@0",
        )
        .expect("hunt flags");
        let settings = req.hunt_settings(&at);
        let defaults = default_space(&at);
        assert_eq!((settings.config.seed, settings.config.batch), (4, 1));
        assert_eq!(settings.config.space.prob_steps, vec![0.0, 1.0]);
        let candidates = &settings.config.space.compromise_candidates;
        assert_eq!(candidates.len(), defaults.compromise_candidates.len() + 1);
        assert!(candidates.contains(&(Key::new("Kab"), 5)));
        assert!(parse(FaultVerb::Hunt, Frontend::Cli, "--steps 0,1.5")
            .unwrap_err()
            .contains("outside [0, 1]"));
    }
}

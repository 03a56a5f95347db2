//! The `sweep` operation: a cold belief-survival fault sweep of the
//! Needham–Schroeder spec, as `atl inject --sweep` runs it, and its
//! traced variant that times every pipeline stage from this file.
//!
//! The traced variant re-runs the stages of
//! `atl_core::sweep::survival_report` one by one through public items.
//! Two helpers of that function are crate-private (the delivery mask and
//! the belief assumptions), so they are recomputed here; the rendered
//! report of the re-run must equal the library's, byte for byte.

use crate::report::Report;
use crate::stats::Samples;
use atl_core::annotate::{analyze_at, AtProtocol, AtStep};
use atl_core::enact::{enact_with, EnactOptions};
use atl_core::goodruns::{construct_on, InitialAssumptions};
use atl_core::parallel::Pool;
use atl_core::semantics::{GoodRuns, Semantics};
use atl_core::sweep::{
    degrade_at, fault_sweep, survival_report, FaultSweepReport, GoalSurvival, PlanVerdict,
    SweepConfig,
};
use atl_lang::{Formula, Message, Principal};
use atl_model::{
    sweep_plans_on, validate_run, Action, ExecOptions, ExecutionCache, FaultPlan, Run, SweepGrid,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Plan seeds per sweep: seeds `[40 s, 40 s + 40)` for workload seed `s`.
const SEEDS_PER_SWEEP: u64 = 40;

/// One sweep's input: the spec and its plan grid.
pub struct SweepInput {
    pub at: AtProtocol,
    pub config: SweepConfig,
}

/// The ROADMAP's baseline grid, `--seeds 40 --drop 0,0.3,0.6 --replay
/// 0,1` (240 plans), starting at plan seed `40 s`, with the CLI's
/// default expect policy (patience 6, two resends).
pub fn input(at: &AtProtocol, seed: u64) -> SweepInput {
    let lo = seed.saturating_mul(SEEDS_PER_SWEEP);
    let grid = SweepGrid::new()
        .seeds(lo..lo.saturating_add(SEEDS_PER_SWEEP))
        .drop_steps([0.0, 0.3, 0.6])
        .replay_steps([0.0, 1.0]);
    SweepInput {
        at: at.clone(),
        config: SweepConfig {
            grid,
            options: ExecOptions::default(),
            expect_policy: crate::policy(),
        },
    }
}

/// One cold sweep (fresh execution cache) and its rendered report.
pub fn cold(input: &SweepInput, pool: &Pool) -> (FaultSweepReport, String) {
    let report = fault_sweep(&input.at, &input.config, pool);
    let text = report.to_string();
    (report, text)
}

/// Counts one sweep: every plan executed, every run restriction-clean,
/// and the bytes of the width-1 reference render.
pub fn check(rep: &mut Report, report: &FaultSweepReport, text: &str, reference: &str) {
    rep.check(
        report.stats.failed == 0 && report.audit_violations == 0 && text == reference,
        || {
            format!(
                "sweep: {} failed plan(s), {} audit violation(s), bytes {}",
                report.stats.failed,
                report.audit_violations,
                if text == reference {
                    "match"
                } else {
                    "differ from the width-1 reference"
                }
            )
        },
    );
}

/// Per-stage samples of traced sweeps at one pool width.
#[derive(Default)]
pub struct Stages {
    /// Enact + execute + `survival_report` + render: the traced sweep as
    /// a user sees it (the staged re-run excluded).
    pub total_ms: Samples,
    pub execute_ms: Samples,
    pub annotate_ms: Samples,
    pub system_ms: Samples,
    pub audit_ms: Samples,
    pub construct_ms: Samples,
    pub valid_on_ms: Samples,
    pub render_us: Samples,
    pub report_other_ms: Samples,
    pub counts: Counts,
}

/// Deterministic work counts of the last traced sweep.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    pub enumerated: usize,
    pub executed: usize,
    pub ok_runs: usize,
    pub distinct_runs: usize,
    pub passes: usize,
    pub stages: usize,
    pub points: usize,
}

/// One traced sweep at `pool`'s width: each stage is timed around its
/// call, and `survival_report` is also timed whole so the part of it
/// the stages do not cover shows as `report_other_ms`.
pub fn traced(input: &SweepInput, pool: &Pool, st: &mut Stages, rep: &mut Report, reference: &str) {
    let at = &input.at;
    let plans = input.config.grid.plans();
    let t = Instant::now();
    let proto = enact_with(
        at,
        EnactOptions {
            expect_policy: input.config.expect_policy,
        },
    );
    let enact = t.elapsed();
    let t = Instant::now();
    let outcome = sweep_plans_on(
        &proto,
        &input.config.options,
        &plans,
        pool,
        &ExecutionCache::new(),
    );
    let execute = t.elapsed();
    // The staged re-run works on a copy, dropped before `survival_report`
    // runs, so the library call frees the outcome inside its timed span
    // as it does in an untraced sweep.
    let for_library = outcome.clone();

    // The stages of `survival_report`, one call each.
    let t = Instant::now();
    let masks: Vec<Option<Vec<bool>>> = outcome
        .results
        .iter()
        .map(|r| r.ok().map(|(run, _)| delivery_mask(at, run)))
        .collect();
    let mut mask_slot: BTreeMap<&[bool], usize> = BTreeMap::new();
    let mut jobs: Vec<&[bool]> = Vec::new();
    for mask in masks.iter().flatten() {
        if !mask_slot.contains_key(mask.as_slice()) {
            mask_slot.insert(mask, jobs.len());
            jobs.push(mask);
        }
    }
    type Job = Box<dyn FnOnce() -> Vec<bool> + Send>;
    let tasks: Vec<Job> = std::iter::once(None)
        .chain(jobs.iter().map(Some))
        .map(|mask| {
            let degraded = match mask {
                None => at.clone(),
                Some(mask) => degrade_at(at, mask),
            };
            Box::new(move || {
                analyze_at(&degraded)
                    .goals
                    .iter()
                    .map(|(_, ok)| *ok)
                    .collect()
            }) as Job
        })
        .collect();
    let passes = tasks.len();
    let goal_flags = pool.run(tasks);
    let annotate = t.elapsed();
    let (baseline_flags, mask_flags) = goal_flags.split_first().expect("baseline pass");

    let total_sends = at
        .steps
        .iter()
        .filter(|s| matches!(s, AtStep::Send { .. }))
        .count();
    let mut survived = vec![0usize; at.goals.len()];
    let mut lost = vec![0usize; at.goals.len()];
    let verdicts: Vec<(FaultPlan, PlanVerdict)> = outcome
        .results
        .iter()
        .zip(&masks)
        .map(|(r, mask)| {
            let verdict = match (r.ok(), mask) {
                (Some((_, report)), Some(mask)) => {
                    let flags = &mask_flags[mask_slot[mask.as_slice()]];
                    let mut beliefs_lost = 0;
                    for (g, (base, now)) in baseline_flags.iter().zip(flags).enumerate() {
                        if *base && *now {
                            survived[g] += 1;
                        } else if *base {
                            beliefs_lost += 1;
                            lost[g] += 1;
                        }
                    }
                    PlanVerdict::Ok {
                        degraded: report.degraded(),
                        faults: report.faults.len(),
                        abandoned: report.abandoned.len(),
                        delivered: mask
                            .iter()
                            .zip(&at.steps)
                            .filter(|(keep, s)| **keep && matches!(s, AtStep::Send { .. }))
                            .count(),
                        beliefs_lost,
                    }
                }
                _ => PlanVerdict::Failed(match r.outcome.as_ref() {
                    Err(e) => e.to_string(),
                    Ok(_) => "unreachable: ok run without mask".to_string(),
                }),
            };
            (r.plan.clone(), verdict)
        })
        .collect();

    let t = Instant::now();
    let system = outcome.system();
    let system_time = t.elapsed();

    let t = Instant::now();
    let audit_violations = pool
        .map(system.runs(), |_, run| validate_run(run).len())
        .into_iter()
        .filter(|n| *n > 0)
        .count();
    let audit = t.elapsed();

    let t = Instant::now();
    let (goods, stages) = if system.is_empty() {
        (None, 0)
    } else {
        match construct_on(&system, &belief_assumptions(at), pool) {
            Ok((g, report)) => (Some(g), report.depth()),
            Err(_) => (Some(GoodRuns::all_runs(&system)), 0),
        }
    };
    let construct = t.elapsed();

    let t = Instant::now();
    let semantic: Vec<String> = at
        .goals
        .iter()
        .map(|goal| match &goods {
            None => "no runs".to_string(),
            Some(goods) => match Semantics::valid_on(&system, goods, goal, pool) {
                Ok(true) => "valid".to_string(),
                Ok(false) => "fails".to_string(),
                Err(e) => format!("error: {e}"),
            },
        })
        .collect();
    let valid_on = t.elapsed();

    let survival: Vec<GoalSurvival> = at
        .goals
        .iter()
        .zip(semantic)
        .enumerate()
        .map(|(g, (goal, semantic))| GoalSurvival {
            goal: goal.clone(),
            baseline: baseline_flags[g],
            survived: survived[g],
            lost: lost[g],
            semantic,
        })
        .collect();
    let staged = FaultSweepReport {
        protocol: at.name.clone(),
        stats: outcome.stats,
        verdicts,
        survival,
        total_sends,
        distinct_runs: system.len(),
        audit_violations,
    };
    let t = Instant::now();
    let staged_text = staged.to_string();
    let render = t.elapsed();
    let counts = Counts {
        enumerated: outcome.stats.enumerated,
        executed: outcome.stats.executed,
        ok_runs: outcome.ok_results().count(),
        distinct_runs: system.len(),
        passes,
        stages,
        points: system.points().count() * at.goals.len(),
    };
    drop(outcome);

    let t = Instant::now();
    let library = survival_report(at, for_library, pool);
    let whole = t.elapsed();
    let t = Instant::now();
    let library_text = library.to_string();
    let total = enact + execute + whole + t.elapsed();
    rep.check(staged_text == library_text, || {
        "traced sweep: the staged re-run renders differently from survival_report".to_string()
    });
    check(rep, &library, &library_text, reference);

    let children = annotate + system_time + audit + construct + valid_on;
    st.total_ms.push_ms(total);
    st.execute_ms.push_ms(execute);
    st.annotate_ms.push_ms(annotate);
    st.system_ms.push_ms(system_time);
    st.audit_ms.push_ms(audit);
    st.construct_ms.push_ms(construct);
    st.valid_on_ms.push_ms(valid_on);
    st.render_us.push_us(render);
    st.report_other_ms
        .push((whole.as_secs_f64() - children.as_secs_f64()) * 1e3);
    st.counts = counts;
}

/// Names of the timed stages, each reported at the default width and,
/// with the `.j1` suffix, at width 1.
pub const TIMED_STAGES: [(&str, &str); 8] = [
    ("model.sweep.execute_ms", "ms"),
    ("model.system.build_ms", "ms"),
    ("model.validate.audit_ms", "ms"),
    ("core.annotate.ms", "ms"),
    ("core.goodruns.construct_ms", "ms"),
    ("core.semantics.valid_on_ms", "ms"),
    ("render.us", "us"),
    ("core.sweep.report_other_ms", "ms"),
];

/// The suffix of the width-1 twin of a timed stage metric.
pub const WIDTH1_SUFFIX: &str = ".j1";

impl Stages {
    /// The samples behind each name of [`TIMED_STAGES`], in that order.
    fn timed(&self) -> [&Samples; 8] {
        [
            &self.execute_ms,
            &self.system_ms,
            &self.audit_ms,
            &self.annotate_ms,
            &self.construct_ms,
            &self.valid_on_ms,
            &self.render_us,
            &self.report_other_ms,
        ]
    }
}

/// Reports the traced sweep table: every timed stage at the default
/// width and at width 1, then the work counts and ratios.
pub fn report_layers(rep: &mut Report, wide: &Stages, narrow: &Stages) {
    for (suffix, st) in [("", wide), (WIDTH1_SUFFIX, narrow)] {
        for ((name, unit), samples) in TIMED_STAGES.iter().zip(st.timed()) {
            rep.metric_noted(
                format!("{name}{suffix}"),
                samples.median().unwrap_or(f64::NAN),
                unit,
                format!("p50 of {}", samples.len()),
            );
        }
    }
    let c = wide.counts;
    let ratio = |a: usize, b: usize| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    rep.metric("model.sweep.enumerated", c.enumerated as f64, "count");
    rep.metric("model.sweep.executed", c.executed as f64, "count");
    rep.metric(
        "model.sweep.exec_ratio",
        ratio(c.executed, c.enumerated),
        "ratio",
    );
    rep.metric(
        "model.system.distinct_ratio",
        ratio(c.distinct_runs, c.ok_runs),
        "ratio",
    );
    rep.metric("core.annotate.passes", c.passes as f64, "count");
    rep.metric("core.goodruns.stages", c.stages as f64, "count");
    rep.metric("core.semantics.points", c.points as f64, "count");
}

/// Is `message`, addressed to `to`, delivered somewhere in `run`?
fn delivered(run: &Run, to: &Principal, message: &Message) -> bool {
    *to == Principal::environment()
        || run.events().any(|(_, e)| {
            e.actor == *to && matches!(&e.action, Action::Receive { message: m } if m == message)
        })
}

/// Which idealized steps `run` carried out (`newkey` steps always).
fn delivery_mask(at: &AtProtocol, run: &Run) -> Vec<bool> {
    at.steps
        .iter()
        .map(|s| match s {
            AtStep::Send { to, message, .. } => delivered(run, to, message),
            AtStep::NewKey { .. } => true,
        })
        .collect()
}

/// The belief-shaped assumptions as the good-run construction's input.
pub fn belief_assumptions(at: &AtProtocol) -> InitialAssumptions {
    let mut init = InitialAssumptions::new();
    for f in &at.assumptions {
        if let Formula::Believes(p, body) = f {
            init.assume(p.clone(), (**body).clone());
        }
    }
    init
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_timed_stage_has_a_width1_twin() {
        let mut rep = Report::default();
        report_layers(&mut rep, &Stages::default(), &Stages::default());
        let names: Vec<&str> = rep.metrics.iter().map(|m| m.name.as_str()).collect();
        for (name, _) in TIMED_STAGES {
            let twin = format!("{name}{WIDTH1_SUFFIX}");
            assert!(names.contains(&name), "{name} missing");
            assert!(names.contains(&twin.as_str()), "{twin} missing");
        }
        // Only timed stages are doubled: counts come from one width.
        let j1 = names.iter().filter(|n| n.ends_with(WIDTH1_SUFFIX)).count();
        assert_eq!(j1, TIMED_STAGES.len());
    }

    #[test]
    fn the_staged_sweep_matches_the_library_at_both_widths() {
        let text = std::fs::read_to_string("../specs/needham_schroeder.atl").expect("spec");
        let (at, _) = atl_core::spec::parse_spec(&text).expect("spec parses");
        let mut small = input(&at, 1);
        small.config.grid = small.config.grid.seeds(40..42);
        let (_, reference) = cold(&small, &Pool::new(1));
        for jobs in [1, 2] {
            let (mut st, mut rep) = (Stages::default(), Report::default());
            traced(&small, &Pool::new(jobs), &mut st, &mut rep, &reference);
            assert_eq!(rep.failed, 0, "{:?}", rep.failures());
            assert_eq!(st.counts.enumerated, 12);
            assert_eq!(st.execute_ms.len(), 1);
        }
    }
}

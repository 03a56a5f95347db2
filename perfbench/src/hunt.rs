//! The `hunt` operation: a cold coverage-guided attack hunt over the
//! Needham–Schroeder spec, as `atl hunt --budget 256` runs it, its
//! width-1 reference with the known-answer checks, and its traced
//! variant.

use crate::report::Report;
use crate::stats::Samples;
use atl_core::annotate::AtProtocol;
use atl_core::enact::{enact_with, EnactOptions};
use atl_core::hunt::{default_space, hunt_report, HuntReport, HuntSettings, SignatureClassifier};
use atl_core::parallel::Pool;
use atl_model::{
    execute_with_faults, hunt_plans_on, sweep_plans_on, ExecOptions, ExecutionCache, FaultPlan,
    HuntConfig, HuntOutcome, HuntStats, PlanFingerprint, Protocol,
};
use atl_protocols::attacks::attack_fixtures;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// The CLI's default hunt budget: resolved plans before shrinking.
const BUDGET: usize = 256;

/// The spec the fixtures must name to apply to this hunt.
const SPEC_NAME: &str = "needham_schroeder";

/// `atl hunt --budget 256 --seed <hunt_seed>` settings: the spec's
/// default mutation space and the CLI's default expect policy.
pub fn settings(at: &AtProtocol, hunt_seed: u64) -> HuntSettings {
    HuntSettings {
        config: HuntConfig {
            seed: hunt_seed,
            budget: BUDGET,
            batch: 32,
            space: default_space(at),
            seed_plans: Vec::new(),
        },
        options: ExecOptions::default(),
        expect_policy: crate::policy(),
    }
}

/// One cold hunt (fresh execution cache, no store) and its render.
pub fn cold(at: &AtProtocol, settings: &HuntSettings, pool: &Pool) -> (HuntReport, String) {
    let report = hunt_report(at, settings, pool, &ExecutionCache::new(), None);
    let text = report.to_string();
    (report, text)
}

fn enacted(at: &AtProtocol, settings: &HuntSettings) -> Protocol {
    enact_with(
        at,
        EnactOptions {
            expect_policy: settings.expect_policy,
        },
    )
}

fn report_of(
    at: &AtProtocol,
    s: &HuntSettings,
    c: &SignatureClassifier,
    o: HuntOutcome,
) -> HuntReport {
    HuntReport {
        protocol: at.name.clone(),
        goals: at.goals.clone(),
        baseline_flags: c.baseline_flags().to_vec(),
        seed: s.config.seed,
        budget: s.config.budget,
        outcome: o,
    }
}

/// A width-1 hunt that records every plan it classifies, rendered and
/// checked against the attack fixtures ([`check_fixtures`]).
pub fn reference(at: &AtProtocol, settings: &HuntSettings, rep: &mut Report) -> String {
    let proto = enacted(at, settings);
    let mut classifier = SignatureClassifier::new(at);
    let mut plans: Vec<FaultPlan> = Vec::new();
    let outcome = hunt_plans_on(
        &proto,
        &settings.options,
        &settings.config,
        &Pool::new(1),
        &ExecutionCache::new(),
        None,
        |plan, exec| {
            plans.push(plan.clone());
            classifier.signature(exec)
        },
    );
    check_fixtures(&proto, settings, &mut classifier, &plans, &outcome, rep);
    report_of(at, settings, &classifier, outcome).to_string()
}

/// Every Needham–Schroeder attack fixture whose plan the search reached
/// must have its signature among the classes. `classified` is every plan
/// handed to the classifier, in order; the last `shrink_trials` of them
/// are shrinking probes, which only test a class's signature and never
/// found one, so they do not count as reached.
fn check_fixtures(
    proto: &Protocol,
    settings: &HuntSettings,
    classifier: &mut SignatureClassifier,
    classified: &[FaultPlan],
    outcome: &HuntOutcome,
    rep: &mut Report,
) {
    let seed = settings.config.seed;
    let searched = classified.len().saturating_sub(outcome.stats.shrink_trials);
    let reached: BTreeSet<PlanFingerprint> = classified[..searched]
        .iter()
        .map(PlanFingerprint::of)
        .collect();
    let signatures: BTreeSet<&str> = outcome
        .classes
        .iter()
        .map(|c| c.signature.as_str())
        .collect();
    for fixture in attack_fixtures()
        .iter()
        .filter(|f| f.spec_name == SPEC_NAME)
    {
        if !reached.contains(&PlanFingerprint::of(&fixture.plan)) {
            continue;
        }
        let sig = classifier.signature(&execute_with_faults(
            proto,
            &settings.options,
            &fixture.plan,
        ));
        rep.check(signatures.contains(sig.as_str()), || {
            format!(
                "hunt seed {seed}: fixture {} ({sig}) reached but not a class",
                fixture.name
            )
        });
    }
}

/// Every class's minimal plan, re-executed, must give its own signature.
pub fn check_minimal(
    at: &AtProtocol,
    settings: &HuntSettings,
    outcome: &HuntOutcome,
    rep: &mut Report,
) {
    let proto = enacted(at, settings);
    let mut classifier = SignatureClassifier::new(at);
    let seed = settings.config.seed;
    for class in &outcome.classes {
        let sig = classifier.signature(&execute_with_faults(
            &proto,
            &settings.options,
            &class.minimal,
        ));
        rep.check(sig == class.signature, || {
            format!(
                "hunt seed {seed}: minimal plan {} gives {sig}, not its class {}",
                class.minimal, class.signature
            )
        });
    }
}

/// Counts one hunt: its bytes must equal the seed's first render (the
/// width-1 reference where one was made).
pub fn check(rep: &mut Report, seed: u64, text: &str, first: &str) {
    rep.check(text == first, || {
        format!("hunt seed {seed}: report differs from the seed's first render")
    });
}

/// Samples of traced hunts.
#[derive(Default)]
pub struct Layers {
    /// Enact + classifier + search + render: the traced hunt as a user
    /// sees it.
    pub total_ms: Samples,
    pub hunt_ms: Samples,
    pub classify_ms: Samples,
    pub other_ms: Samples,
    pub replay_ms: Samples,
    pub replay_pool_ms: Samples,
    pub classify_calls: usize,
    pub stats: HuntStats,
}

/// One traced hunt at `pool`'s width. `SignatureClassifier::signature`
/// is timed inside the closure handed to `hunt_plans_on`; the plans it
/// sees are then re-run through `sweep_plans_on` with a fresh cache, at
/// width 1 (`replay_ms`) and at the hunt's width (`replay_pool_ms`).
/// What the search spends beyond classifying and executing is
/// `other_ms`: the search time minus both (the pool-width replay
/// standing in for the executions).
pub fn traced(
    at: &AtProtocol,
    settings: &HuntSettings,
    pool: &Pool,
    layers: &mut Layers,
    rep: &mut Report,
) -> (HuntReport, String) {
    let t_total = Instant::now();
    let proto = enacted(at, settings);
    let mut classifier = SignatureClassifier::new(at);
    let mut plans: Vec<FaultPlan> = Vec::new();
    let mut classify = Duration::ZERO;
    let t = Instant::now();
    let outcome = hunt_plans_on(
        &proto,
        &settings.options,
        &settings.config,
        pool,
        &ExecutionCache::new(),
        None,
        |plan, exec| {
            plans.push(plan.clone());
            let t = Instant::now();
            let sig = classifier.signature(exec);
            classify += t.elapsed();
            sig
        },
    );
    let hunt = t.elapsed();
    let stats = outcome.stats;
    let report = report_of(at, settings, &classifier, outcome);
    let text = report.to_string();
    let total = t_total.elapsed();
    check_fixtures(
        &proto,
        settings,
        &mut classifier,
        &plans,
        &report.outcome,
        rep,
    );

    let replay = |pool: &Pool| {
        let t = Instant::now();
        sweep_plans_on(
            &proto,
            &settings.options,
            &plans,
            pool,
            &ExecutionCache::new(),
        );
        t.elapsed()
    };
    let replay_j1 = replay(&Pool::new(1));
    let replay_pool = replay(pool);

    layers.total_ms.push_ms(total);
    layers.hunt_ms.push_ms(hunt);
    layers.classify_ms.push_ms(classify);
    layers.replay_ms.push_ms(replay_j1);
    layers.replay_pool_ms.push_ms(replay_pool);
    layers
        .other_ms
        .push((hunt.as_secs_f64() - classify.as_secs_f64() - replay_pool.as_secs_f64()) * 1e3);
    layers.classify_calls = plans.len();
    layers.stats = stats;
    (report, text)
}

/// Reports the traced hunt metrics.
pub fn report_layers(rep: &mut Report, l: &Layers) {
    let p50 = |s: &Samples| s.median().unwrap_or(f64::NAN);
    let note = |s: &Samples| format!("p50 of {}", s.len());
    rep.metric_noted(
        "model.search.hunt_ms",
        p50(&l.hunt_ms),
        "ms",
        note(&l.hunt_ms),
    );
    rep.metric_noted(
        "core.hunt.classify_ms",
        p50(&l.classify_ms),
        "ms",
        note(&l.classify_ms),
    );
    rep.metric("core.hunt.classify_calls", l.classify_calls as f64, "count");
    rep.metric_noted(
        "model.search.other_ms",
        p50(&l.other_ms),
        "ms",
        note(&l.other_ms),
    );
    rep.metric_noted(
        "model.executor.replay_ms",
        p50(&l.replay_ms),
        "ms",
        "width 1",
    );
    rep.metric_noted(
        "model.executor.replay_pool_ms",
        p50(&l.replay_pool_ms),
        "ms",
        "hunt's width",
    );
    let s = l.stats;
    rep.metric("model.search.generated", s.generated as f64, "count");
    rep.metric("model.search.duplicates", s.duplicates as f64, "count");
    rep.metric("model.search.executed", s.executed as f64, "count");
    rep.metric("model.search.cache_hits", s.cache_hits as f64, "count");
    rep.metric(
        "model.search.shrink_trials",
        s.shrink_trials as f64,
        "count",
    );
    let novel = if s.generated == 0 {
        0.0
    } else {
        (s.generated - s.duplicates) as f64 / s.generated as f64
    };
    rep.metric("model.search.novel_ratio", novel, "ratio");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fixture check rests on this: every plan classified before the
    /// shrinking probes has its signature among the classes.
    #[test]
    fn plans_classified_before_shrinking_all_found_classes() {
        let text = std::fs::read_to_string("../specs/needham_schroeder.atl").expect("spec");
        let (at, _) = atl_core::spec::parse_spec(&text).expect("spec parses");
        let mut settings = settings(&at, 4864);
        settings.config.budget = 48;
        let proto = enacted(&at, &settings);
        let mut classifier = SignatureClassifier::new(&at);
        let mut seen: Vec<String> = Vec::new();
        let outcome = hunt_plans_on(
            &proto,
            &settings.options,
            &settings.config,
            &Pool::new(1),
            &ExecutionCache::new(),
            None,
            |_, exec| {
                let sig = classifier.signature(exec);
                seen.push(sig.clone());
                sig
            },
        );
        assert!(outcome.stats.shrink_trials > 0);
        let searched = seen.len() - outcome.stats.shrink_trials;
        for sig in &seen[..searched] {
            assert!(
                outcome.classes.iter().any(|c| &c.signature == sig),
                "{sig} classified during the search but not a class"
            );
        }
    }
}

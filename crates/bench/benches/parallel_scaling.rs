//! Parallel-engine scaling: wall-clock for a cold fault sweep at 1/2
//! workers and for batch proving at 1/2/4/8 workers.
//!
//! The 1-worker point is the sequential reference path (the pool is
//! bypassed entirely), so each curve shows both the parallel speedup on
//! multi-core machines and the sharding overhead where there is nothing
//! to gain. Results are identical at every worker count by construction
//! (tests/e15_parallel.rs, tests/e16_sweep.rs); only the wall-clock may
//! differ.

use atl_core::parallel::Pool;
use atl_core::prover::{BatchProver, Prover};
use atl_core::spec::parse_spec;
use atl_core::sweep::{fault_sweep, SweepConfig};
use atl_lang::{Formula, Key, Message, Nonce};
use atl_model::{ExecOptions, ExpectPolicy, SweepGrid};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Duration;

const WORKERS: &[usize] = &[1, 2, 4, 8];

/// `n` parallel Figure 1 sessions with disjoint names (prover_scaling's
/// fact generator).
fn at_sessions(n: usize) -> Vec<Formula> {
    let mut facts = Vec::new();
    for i in 0..n {
        let a = format!("A{i}");
        let b = format!("B{i}");
        let kab = Formula::shared_key(a.as_str(), Key::new(format!("Kab{i}")), b.as_str());
        let ts = Message::nonce(Nonce::new(format!("Ts{i}")));
        let kbs = Key::new(format!("Kbs{i}"));
        facts.push(Formula::believes(
            b.as_str(),
            Formula::shared_key(b.as_str(), kbs.clone(), "S"),
        ));
        facts.push(Formula::believes(b.as_str(), Formula::fresh(ts.clone())));
        facts.push(Formula::believes(
            b.as_str(),
            Formula::controls("S", kab.clone()),
        ));
        facts.push(Formula::has(b.as_str(), kbs.clone()));
        facts.push(Formula::sees(
            b.as_str(),
            Message::encrypted(Message::tuple([ts, kab.into_message()]), kbs, "S"),
        ));
    }
    facts
}

/// A cold belief-survival sweep of Needham–Schroeder whose 24 plans
/// leave 16 distinct runs, at the widths a sweep can use on two cores.
/// What runs in parallel is plan execution, the annotation passes, the
/// audit, and the three goals' validity sweeps (one evaluator per
/// goal); the `G^j` construction runs on one thread.
fn bench_parallel_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_sweep_16_runs");
    let spec = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../specs/needham_schroeder.atl"
    ))
    .expect("spec file present");
    let (at, _) = parse_spec(&spec).expect("spec parses");
    let config = SweepConfig {
        grid: SweepGrid::new()
            .seeds(0..6)
            .drop_steps([0.0, 0.5])
            .replay_steps([0.0, 1.0]),
        options: ExecOptions::default(),
        expect_policy: ExpectPolicy::resend_after(6, 2),
    };
    assert_eq!(
        fault_sweep(&at, &config, &Pool::sequential()).distinct_runs,
        16
    );
    for jobs in [1, 2] {
        let pool = Pool::new(jobs);
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &pool, |b, pool| {
            b.iter(|| black_box(fault_sweep(&at, &config, pool).distinct_runs))
        });
    }
    g.finish();
}

/// Batch proving 8 independent 8-session saturation jobs.
fn bench_batch_prover(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_batch_prover_8x8");
    let goal = |i: usize| {
        Formula::believes(
            format!("B{i}").as_str(),
            Formula::shared_key(
                format!("A{i}").as_str(),
                Key::new(format!("Kab{i}")),
                format!("B{i}").as_str(),
            ),
        )
    };
    for &jobs in WORKERS {
        let batch = BatchProver::new(Pool::new(jobs));
        g.bench_with_input(BenchmarkId::from_parameter(jobs), &batch, |b, batch| {
            b.iter(|| {
                let work: Vec<(Prover, Vec<Formula>)> = (0..8)
                    .map(|i| (Prover::new(at_sessions(8)), vec![goal(i)]))
                    .collect();
                black_box(batch.prove_all(work).len())
            })
        });
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(1200))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_parallel_sweep, bench_batch_prover
}
criterion_main!(benches);

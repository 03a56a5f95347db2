//! E12 — the protocol spec format and the artifacts shipped in `specs/`.

use atl::ban::{analyze, render_annotated};
use atl::core::annotate::analyze_at;
use atl::core::spec::{parse_spec, render_spec};
use atl::protocols::kerberos;

fn spec(name: &str) -> String {
    std::fs::read_to_string(format!("{}/specs/{name}", env!("CARGO_MANIFEST_DIR"))).unwrap()
}

#[test]
fn shipped_kerberos_spec_succeeds() {
    let (proto, _) = parse_spec(&spec("kerberos_figure1.atl")).unwrap();
    let analysis = analyze_at(&proto);
    assert!(
        analysis.succeeded(),
        "failed: {:?}",
        analysis.failed_goals().collect::<Vec<_>>()
    );
    assert!(analysis.unstable_assumptions.is_empty());
}

#[test]
fn shipped_wmf_spec_succeeds() {
    let (proto, _) = parse_spec(&spec("wide_mouthed_frog.atl")).unwrap();
    assert!(analyze_at(&proto).succeeded());
}

#[test]
fn shipped_flawed_andrew_spec_fails_as_documented() {
    let (proto, _) = parse_spec(&spec("andrew_flawed.atl")).unwrap();
    let analysis = analyze_at(&proto);
    assert!(!analysis.succeeded());
}

#[test]
fn spec_parsed_kerberos_matches_the_builtin_idealization() {
    // The file and the in-code idealization derive the same key goals.
    let (proto, _) = parse_spec(&spec("kerberos_figure1.atl")).unwrap();
    let from_file = analyze_at(&proto);
    let builtin = analyze_at(&kerberos::figure1_at());
    for (goal, achieved) in &builtin.goals {
        if *achieved {
            assert!(
                from_file.prover.holds(goal),
                "file-based analysis missing {goal}"
            );
        }
    }
    let _ = from_file;
}

#[test]
fn render_parse_roundtrip_for_all_shipped_specs() {
    for name in [
        "kerberos_figure1.atl",
        "wide_mouthed_frog.atl",
        "andrew_flawed.atl",
    ] {
        let (proto, _) = parse_spec(&spec(name)).unwrap();
        let rendered = render_spec(&proto, &["A", "B", "S"], &["Kab", "Kas", "Kbs", "KabNew"]);
        let (again, _) = parse_spec(&rendered).unwrap();
        assert_eq!(proto, again, "roundtrip failed for {name}");
    }
}

#[test]
fn annotated_rendering_covers_every_step() {
    let proto = kerberos::figure1_ban();
    let analysis = analyze(&proto);
    let text = render_annotated(&proto, &analysis);
    for i in 1..=proto.steps.len() {
        assert!(text.contains(&format!("{i}. ")), "step {i} missing");
    }
    // Every goal line appears with a verdict.
    assert_eq!(
        text.matches("[ok]").count() + text.matches("[--]").count(),
        proto.goals.len()
    );
}

#[test]
fn cli_analyze_exit_codes() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_atl");
    let dir = env!("CARGO_MANIFEST_DIR");
    let ok = Command::new(bin)
        .args(["analyze", &format!("{dir}/specs/kerberos_figure1.atl")])
        .output()
        .unwrap();
    assert!(ok.status.success());
    let out = String::from_utf8_lossy(&ok.stdout);
    assert!(out.contains("[ok] B believes (A <-Kab-> B)"), "{out}");

    let flawed = Command::new(bin)
        .args(["analyze", &format!("{dir}/specs/andrew_flawed.atl")])
        .output()
        .unwrap();
    assert_eq!(flawed.status.code(), Some(1));

    let bad_usage = Command::new(bin).output().unwrap();
    assert_eq!(bad_usage.status.code(), Some(2));
}

/// `atl inject` refuses a flag its mode would silently ignore, naming
/// the flag, and runs nothing.
#[test]
fn cli_inject_rejects_flags_its_mode_ignores() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_atl");
    let spec = format!("{}/specs/kerberos_figure1.atl", env!("CARGO_MANIFEST_DIR"));
    let trace = std::env::temp_dir().join(format!("atl-e12-{}-sweep.run", std::process::id()));
    let trace_arg = trace.to_str().expect("utf-8 temp path");
    let _ = std::fs::remove_file(&trace);
    for (flags, want) in [
        (
            &["--seed", "7", "--drop", "0.5", "--seeds", "10"][..],
            "error: --seeds does not apply to inject without --sweep\n",
        ),
        (
            &["--sweep", "--drop", "0,1", "--emit-trace", trace_arg][..],
            "error: --emit-trace does not apply to inject --sweep\n",
        ),
        (
            &["--budget", "5"][..],
            "error: --budget does not apply to inject\n",
        ),
    ] {
        let out = Command::new(bin)
            .arg("inject")
            .arg(&spec)
            .args(flags)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?} ran anyway");
    }
    assert!(!trace.exists(), "a rejected sweep wrote its trace");
}

#[test]
fn cli_trace_and_proof() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_atl");
    let dir = env!("CARGO_MANIFEST_DIR");
    let trace = Command::new(bin)
        .args([
            "trace",
            &format!("{dir}/specs/kerberos_figure1.atl"),
            "B believes (A <-Kab-> B)",
        ])
        .output()
        .unwrap();
    assert!(trace.status.success());
    let out = String::from_utf8_lossy(&trace.stdout);
    assert!(out.contains("jurisdiction (A15)"), "{out}");

    let proof = Command::new(bin)
        .args(["proof", "message-meaning"])
        .output()
        .unwrap();
    assert!(proof.status.success());
    let out = String::from_utf8_lossy(&proof.stdout);
    assert!(out.contains("-- checked: ok"), "{out}");
}

#[test]
fn cli_suite_prints_the_table() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_atl");
    let suite = Command::new(bin).arg("suite").output().unwrap();
    assert!(suite.status.success());
    let out = String::from_utf8_lossy(&suite.stdout);
    assert!(out.contains("kerberos-figure1"));
    assert!(out.contains("nessett"));
}

#[test]
fn cli_check_run_and_eval() {
    use std::process::Command;
    let bin = env!("CARGO_BIN_EXE_atl");
    let dir = env!("CARGO_MANIFEST_DIR");
    let trace_path = format!("{dir}/specs/denning_sacco.run");

    let audit = Command::new(bin)
        .args(["check-run", &trace_path])
        .output()
        .unwrap();
    assert!(audit.status.success());
    assert!(String::from_utf8_lossy(&audit.stdout).contains("all satisfied"));

    // The attack's semantic signature, straight from the trace file.
    let bad_key = Command::new(bin)
        .args(["eval", &trace_path, "A <-Kab-> B"])
        .output()
        .unwrap();
    assert_eq!(bad_key.status.code(), Some(1)); // false ⇒ exit 1
    assert!(String::from_utf8_lossy(&bad_key.stdout).contains("= false"));

    let stale = Command::new(bin)
        .args(["eval", &trace_path, "fresh(<<A <-Kab-> B>>)"])
        .output()
        .unwrap();
    assert_eq!(stale.status.code(), Some(1));

    // And a true fact, at an explicit time.
    let sees = Command::new(bin)
        .args(["eval", &trace_path, "B sees {<<A <-Kab-> B>>}Kbs@S", "0"])
        .output()
        .unwrap();
    assert!(sees.status.success());
}

#[test]
fn trace_file_matches_the_builtin_attack() {
    // The shipped .run file and the programmatic construction agree on
    // every semantic verdict the E9 tests assert.
    use atl::core::semantics::{GoodRuns, Semantics};
    use atl::lang::Formula;
    use atl::model::{parse_trace, Point, System};
    let dir = env!("CARGO_MANIFEST_DIR");
    let text = std::fs::read_to_string(format!("{dir}/specs/denning_sacco.run")).unwrap();
    let (from_file, _) = parse_trace(&text).unwrap();
    let built = atl::protocols::attacks::denning_sacco_run();
    let kab = atl::protocols::needham_schroeder::kab();
    for run in [from_file, built] {
        let end = run.horizon();
        let sys = System::new([run]);
        let sem = Semantics::new(&sys, GoodRuns::all_runs(&sys));
        assert!(!sem.eval(Point::new(0, end), &kab).unwrap());
        assert!(!sem
            .eval(
                Point::new(0, end),
                &Formula::says("A", kab.clone().into_message())
            )
            .unwrap());
        assert!(sem
            .eval(
                Point::new(0, end),
                &Formula::said("S", kab.clone().into_message())
            )
            .unwrap());
    }
}

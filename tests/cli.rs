//! End-to-end tests of the `olp` command-line binary against the
//! shipped sample programs (`examples/programs/*.olp`).

use std::process::Command;

fn olp(args: &[&str]) -> (String, String, bool) {
    let (out, err, code) = olp_code(args);
    (out, err, code == 0)
}

/// Like [`olp`] but exposes the exact exit code, needed by the
/// resource-limit tests (124 = exhausted, 2 = usage, 1 = error).
fn olp_code(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_olp"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by signal"),
    )
}

/// A program whose stable-model enumeration is combinatorial: `n`
/// mutually defeating pairs in an incomparable layout give 2^n stable
/// models, enough to outlast any small budget.
fn big_choice(n: usize) -> String {
    let dir = std::env::temp_dir().join(format!("olp_cli_big_choice_{n}.olp"));
    let mut src = String::from("module c2 {\n");
    for i in 0..n {
        src.push_str(&format!("  a{i}. b{i}.\n"));
    }
    src.push_str("}\nmodule c1 < c2 {\n");
    for i in 0..n {
        src.push_str(&format!("  -a{i} :- b{i}.\n  -b{i} :- a{i}.\n"));
    }
    src.push_str("}\n");
    std::fs::write(&dir, src).unwrap();
    dir.to_str().unwrap().to_owned()
}

fn sample(name: &str) -> String {
    format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn check_reports_structure() {
    let (out, _, ok) = olp(&["check", &sample("penguin.olp")]);
    assert!(ok);
    assert!(out.contains("2 components"));
    assert!(out.contains("inherits from c2"));
    assert!(out.contains("overrule"));
}

#[test]
fn models_least_default() {
    let (out, _, ok) = olp(&["models", &sample("penguin.olp"), "c1"]);
    assert!(ok);
    assert!(out.contains("-fly(penguin)"));
    assert!(out.contains("fly(pigeon)"));
}

#[test]
fn models_stable_on_p5() {
    let (out, _, ok) = olp(&["models", &sample("p5.olp"), "c1", "--stable"]);
    assert!(ok, "{out}");
    assert!(out.contains("{-b, a, c} (total)"));
    assert!(out.contains("{-a, b, c} (total)"));
}

#[test]
fn models_skeptical_on_p5() {
    let (out, _, ok) = olp(&["models", &sample("p5.olp"), "c1", "--skeptical"]);
    assert!(ok);
    assert!(out.contains("skeptical: {c}"));
}

#[test]
fn models_credulous_on_p5() {
    let (out, _, ok) = olp(&["models", &sample("p5.olp"), "c1", "--credulous"]);
    assert!(ok);
    assert!(out.contains("credulous: {a, -a, b, -b, c}"), "{out}");
}

#[test]
fn query_ground_with_explanation() {
    let (out, _, ok) = olp(&[
        "query",
        &sample("penguin.olp"),
        "c1",
        "fly(penguin)",
        "--explain",
    ]);
    assert!(ok);
    assert!(out.contains("false"));
    assert!(out.contains("overruled by"));
}

#[test]
fn query_pattern_enumerates() {
    let (out, _, ok) = olp(&["query", &sample("penguin.olp"), "c1", "fly(X)"]);
    assert!(ok);
    assert!(out.contains("X = pigeon"));
    assert!(out.contains("(1 answers)"));
}

#[test]
fn loan_scenario_resolves() {
    let (out, _, ok) = olp(&["query", &sample("loan.olp"), "myself", "take_loan"]);
    assert!(ok);
    assert!(out.contains("true"), "{out}");
}

#[test]
fn unknown_component_is_a_clean_error() {
    let (_, err, ok) = olp(&["query", &sample("penguin.olp"), "nobody", "fly(X)"]);
    assert!(!ok);
    assert!(err.contains("unknown component"));
    assert!(err.contains("c1"), "suggests existing names: {err}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let (_, err, ok) = olp(&["check", "/nonexistent.olp"]);
    assert!(!ok);
    assert!(err.contains("cannot read"));
}

#[test]
fn bad_usage_prints_usage() {
    let (_, err, ok) = olp(&["frobnicate"]);
    assert!(!ok);
    assert!(err.contains("usage:"));
}

#[test]
fn removed_no_decomp_flag_is_a_usage_error() {
    let (out, err, code) = olp_code(&["models", &sample("p5.olp"), "--stable", "--no-decomp"]);
    assert_eq!(code, 2, "{out}{err}");
    assert!(err.contains("--no-decomp"), "the flag must be named: {err}");
    assert!(out.is_empty(), "nothing is evaluated: {out}");
}

#[test]
fn misspelled_flag_is_a_usage_error() {
    let (out, err, code) = olp_code(&["models", &sample("p5.olp"), "c1", "--stabel"]);
    assert_eq!(code, 2, "{out}{err}");
    assert!(err.contains("--stabel"), "the flag must be named: {err}");
    // Every documented mode flag is accepted, `--least` included.
    for mode in [
        "--least",
        "--stable",
        "--af",
        "--skeptical",
        "--credulous",
        "--all-semantics",
    ] {
        let (out, err, code) = olp_code(&["models", &sample("p5.olp"), "c1", mode]);
        assert_eq!(code, 0, "{mode}: {out}{err}");
    }
}

#[test]
fn check_warns_on_unsafe_rules() {
    let dir = std::env::temp_dir().join("olp_cli_unsafe.olp");
    std::fs::write(
        &dir,
        "q(a).
p(X) :- q(Y).
",
    )
    .unwrap();
    let (out, _, ok) = olp(&["check", dir.to_str().unwrap()]);
    assert!(ok, "warnings alone must not change the exit code: {out}");
    assert!(out.contains("warning[W01]"), "{out}");
    assert!(out.contains("unsafe rule"), "{out}");
    assert!(out.contains("p(X) :- q(Y)."));
    // The diagnostic carries the position of the offending rule.
    assert!(out.contains(":2:1:"), "span for line 2, col 1: {out}");
}

#[test]
fn check_deny_warnings_gates_the_exit_code() {
    // penguin.olp ships with an intentional W05 (the Fig. 1 shadowed
    // rule), so the gate must trip there and stay quiet on loan.olp.
    let (out, err, code) = olp_code(&["check", &sample("penguin.olp"), "--deny", "warnings"]);
    assert_eq!(code, 1, "{out}{err}");
    assert!(out.contains("warning[W05]"), "{out}");
    assert!(err.contains("denied"), "{err}");
    let (out, _, code) = olp_code(&["check", &sample("loan.olp"), "--deny", "warnings"]);
    assert_eq!(code, 0, "loan.olp lints clean: {out}");
}

#[test]
fn check_format_json_emits_positioned_diagnostics() {
    let (out, _, code) = olp_code(&["check", &sample("penguin.olp"), "--format", "json"]);
    assert_eq!(code, 0);
    assert!(out.trim_start().starts_with('['), "{out}");
    assert!(out.contains("\"code\":\"W05\""), "{out}");
    assert!(out.contains("\"line\":5,\"col\":5"), "{out}");
    assert!(
        !out.contains("components"),
        "json mode suppresses the human report: {out}"
    );
    // p5 carries the W09 profile note (Info severity, exit still 0).
    let (out, _, code) = olp_code(&["check", &sample("p5.olp"), "--format", "json"]);
    assert_eq!(code, 0);
    assert!(out.contains("\"code\":\"W09\""), "{out}");
    assert!(out.contains("\"severity\":\"info\""), "{out}");
    // A clean program yields an empty array.
    let clean = std::env::temp_dir().join("olp_cli_clean.olp");
    std::fs::write(&clean, "p(a). q(X) :- p(X), p(X).\n").unwrap();
    let (out, _, code) = olp_code(&["check", clean.to_str().unwrap(), "--format", "json"]);
    assert_eq!(code, 0);
    assert_eq!(out.trim(), "[]");
}

#[test]
fn check_rejects_bad_deny_and_format_values() {
    let (_, err, code) = olp_code(&["check", &sample("p5.olp"), "--deny", "everything"]);
    assert_eq!(code, 2);
    assert!(err.contains("--deny"), "{err}");
    let (_, err, code) = olp_code(&["check", &sample("p5.olp"), "--format", "xml"]);
    assert_eq!(code, 2);
    assert!(err.contains("--format"), "{err}");
}

#[test]
fn check_order_cycle_is_an_error_even_without_deny() {
    let dir = std::env::temp_dir().join("olp_cli_cycle.olp");
    std::fs::write(
        &dir,
        "module a { p. }\nmodule b { q. }\norder a < b.\norder b < a.\n",
    )
    .unwrap();
    let (out, err, code) = olp_code(&["check", dir.to_str().unwrap()]);
    assert_eq!(code, 1, "{out}{err}");
    assert!(out.contains("error[E01]"), "{out}");
    assert!(out.contains("cyclic"), "{out}");
}

#[test]
fn exhaustive_flag_accepted() {
    let (out, _, ok) = olp(&["check", &sample("p5.olp"), "--exhaustive"]);
    assert!(ok);
    assert!(out.contains("OK"));
}

/// Runs the repl with the given stdin script and returns stdout.
fn repl(args: &[&str], script: &str) -> String {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_olp"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(script.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{:?}", out);
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn repl_live_updates_assert_and_retract() {
    let out = repl(
        &["repl", &sample("penguin.olp")],
        "fly(sparrow)\nassert bird(sparrow).\nfly(sparrow)\nretract bird(sparrow).\nfly(sparrow)\nretract bird(dodo).\nquit\n",
    );
    assert!(out.contains("asserted into `c2`"), "{out}");
    assert!(out.contains("epoch 1"), "timing/epoch line expected: {out}");
    assert!(out.contains("retracted from `c2`"), "{out}");
    assert!(out.contains("nothing retracted"), "{out}");
    // Verdict flips with the mutations: undefined -> true -> undefined.
    let verdicts: Vec<&str> = out
        .lines()
        .filter(|l| l.contains("fly(sparrow) in `c2`:"))
        .collect();
    assert_eq!(verdicts.len(), 3, "{out}");
    assert!(verdicts[0].contains("undefined"));
    assert!(verdicts[1].contains("true"));
    assert!(verdicts[2].contains("undefined"));
}

#[test]
fn interactive_flag_is_a_repl_alias() {
    let out = repl(&["--interactive", &sample("penguin.olp")], "models\nquit\n");
    assert!(out.contains("least model:"), "{out}");
    assert!(out.contains("fly(pigeon)"), "{out}");
}

// ---- resource limits ------------------------------------------------

#[test]
fn timeout_exits_124_promptly_with_partial_banner() {
    let file = big_choice(24);
    let start = std::time::Instant::now();
    let (out, _, code) = olp_code(&["models", &file, "c1", "--stable", "--timeout", "0.5"]);
    let elapsed = start.elapsed();
    assert_eq!(code, 124, "{out}");
    assert!(out.contains("PARTIAL"), "banner expected: {out}");
    assert!(out.contains("deadline exceeded"), "{out}");
    assert!(
        elapsed < std::time::Duration::from_secs(10),
        "deadline must stop a 2^24-model enumeration quickly, took {elapsed:?}"
    );
}

#[test]
fn max_steps_exits_124() {
    let (out, err, code) = olp_code(&["models", &sample("penguin.olp"), "c1", "--max-steps", "1"]);
    assert_eq!(code, 124, "out: {out} err: {err}");
    // With a 1-step budget even grounding trips; either message is a
    // legitimate exhaustion report.
    assert!(
        out.contains("PARTIAL") || err.contains("interrupted"),
        "out: {out} err: {err}"
    );
}

#[test]
fn max_models_truncates_stable_enumeration() {
    let (out, _, code) = olp_code(&[
        "models",
        &sample("p5.olp"),
        "c1",
        "--stable",
        "--max-models",
        "1",
    ]);
    assert_eq!(code, 124, "{out}");
    assert!(out.contains("PARTIAL"), "{out}");
    assert!(out.contains("model cap reached"), "{out}");
}

#[test]
fn generous_limits_leave_results_exact() {
    // Same invocation as `models_stable_on_p5`, but budgeted: ample
    // limits must not change the answer or the exit code.
    let (out, _, code) = olp_code(&[
        "models",
        &sample("p5.olp"),
        "c1",
        "--stable",
        "--timeout=30",
        "--max-steps=100000000",
    ]);
    assert_eq!(code, 0, "{out}");
    assert!(out.contains("{-b, a, c} (total)"));
    assert!(out.contains("{-a, b, c} (total)"));
    assert!(!out.contains("PARTIAL"), "{out}");
}

#[test]
fn budgeted_query_marks_partial_verdicts() {
    // Sweep the step budget from starvation to completion: every
    // under-budget run must exit 124 with a diagnosed interruption, and
    // somewhere between "grounding trips" and "enough" the query itself
    // must get interrupted and flag its verdict `(partial)`.
    let mut saw_partial_verdict = false;
    let mut completed = false;
    for k in 1..=200u32 {
        let (out, err, code) = olp_code(&[
            "query",
            &sample("loan.olp"),
            "myself",
            "take_loan",
            "--max-steps",
            &k.to_string(),
        ]);
        match code {
            0 => {
                assert!(out.contains("true"), "k={k}: {out}");
                completed = true;
                break;
            }
            124 => {
                assert!(
                    out.contains("(partial)") || err.contains("interrupted"),
                    "k={k}: out: {out} err: {err}"
                );
                saw_partial_verdict |= out.contains("(partial)");
            }
            other => panic!("k={k}: unexpected exit {other}: {out} {err}"),
        }
    }
    assert!(completed, "budget of 200 steps should suffice for loan.olp");
    assert!(
        saw_partial_verdict,
        "some budget should interrupt the query after grounding succeeds"
    );
}

#[test]
fn bad_limit_value_is_a_usage_error() {
    for args in [
        ["check", "x.olp", "--timeout", "banana"],
        ["check", "x.olp", "--max-steps", "-3"],
        ["check", "x.olp", "--timeout", "-1"],
    ] {
        let (_, err, code) = olp_code(&args);
        assert_eq!(code, 2, "{args:?}");
        assert!(err.contains("error:"), "{args:?}: {err}");
    }
}

/// Runs the binary with `input` piped to stdin (REPL sessions).
fn olp_stdin(args: &[&str], input: &str) -> (String, String, i32) {
    use std::io::Write;
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_olp"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    // Error-path sessions exit before reading stdin; the broken pipe
    // is expected there.
    let _ = child.stdin.take().unwrap().write_all(input.as_bytes());
    let out = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().expect("not killed by signal"),
    )
}

fn scratch_dir(name: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("olp_cli_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

#[test]
fn repl_db_create_mutate_reopen() {
    let db = scratch_dir("db_roundtrip");
    let db = db.to_str().unwrap();
    let (out, err, code) = olp_stdin(
        &["repl", &sample("penguin.olp"), "--db", db],
        "assert bird(sparrow).\nfly(sparrow)\nquit\n",
    );
    assert_eq!(code, 0, "out: {out} err: {err}");
    assert!(out.contains(&format!("created database {db}")), "{out}");
    assert!(out.contains("logged seq 1"), "{out}");
    assert!(out.contains("fly(sparrow) in `c2`: true"), "{out}");

    // Reopen with no FILE: the snapshot + WAL replay restore the state.
    let (out, err, code) = olp_stdin(&["repl", "--db", db], "fly(sparrow)\nquit\n");
    assert_eq!(code, 0, "out: {out} err: {err}");
    assert!(out.contains("seq 1, 1 op replayed"), "{out}");
    assert!(out.contains("fly(sparrow) in `c2`: true"), "{out}");
    std::fs::remove_dir_all(db).ok();
}

#[test]
fn repl_db_corrupt_is_a_clean_error() {
    let db = scratch_dir("db_corrupt");
    std::fs::create_dir_all(&db).unwrap();
    std::fs::write(db.join("snapshot.olps"), b"this is not a snapshot").unwrap();
    let db = db.to_str().unwrap();
    let (out, err, code) = olp_stdin(&["repl", "--db", db], "quit\n");
    assert_eq!(code, 1, "out: {out} err: {err}");
    assert!(
        err.contains(&format!("error: cannot open database {db}")),
        "{err}"
    );
    assert!(err.contains("not an olp snapshot"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(db).ok();
}

#[test]
fn repl_db_truncated_snapshot_is_a_clean_error() {
    // Build a valid database, then chop the snapshot mid-frame: the
    // checksum layer must reject it with a positioned corruption
    // message rather than load garbage.
    let db = scratch_dir("db_truncated");
    let dbs = db.to_str().unwrap();
    let (_, _, code) = olp_stdin(&["repl", &sample("penguin.olp"), "--db", dbs], "quit\n");
    assert_eq!(code, 0);
    let snap = db.join("snapshot.olps");
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() / 2]).unwrap();
    let (out, err, code) = olp_stdin(&["repl", "--db", dbs], "quit\n");
    assert_eq!(code, 1, "out: {out} err: {err}");
    assert!(err.contains("error: cannot open database"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    std::fs::remove_dir_all(&db).ok();
}

#[test]
fn repl_db_missing_without_file_is_an_error() {
    let db = scratch_dir("db_missing");
    let (out, err, code) = olp_stdin(&["repl", "--db", db.to_str().unwrap()], "quit\n");
    assert_eq!(code, 1, "out: {out} err: {err}");
    assert!(err.contains("no database there"), "{err}");
}

#[test]
fn repl_db_bad_durability_is_a_usage_error() {
    let (_, err, code) = olp_code(&["repl", "--db", "whatever", "--durability", "paranoid"]);
    assert_eq!(code, 2);
    assert!(err.contains("--durability"), "{err}");
}

#[test]
fn repl_save_without_db_reports_error_and_save_dir_works() {
    let copy = scratch_dir("db_savecopy");
    let copys = copy.to_str().unwrap();
    let (out, _, code) = olp_stdin(
        &["repl", &sample("penguin.olp")],
        &format!("save\nsave {copys}\nquit\n"),
    );
    assert_eq!(code, 0);
    assert!(out.contains("error: no database attached"), "{out}");
    assert!(
        out.contains(&format!("database written to {copys}")),
        "{out}"
    );
    // The copy is a complete, openable database.
    let (out, err, code) = olp_stdin(&["repl", "--db", copys], "models\nquit\n");
    assert_eq!(code, 0, "out: {out} err: {err}");
    assert!(out.contains("least model:"), "{out}");
    std::fs::remove_dir_all(&copy).ok();
}

/// Byte goldens of the CLI's output under `tests/golden/`: `NAME.stdout`
/// holds the exact standard output of one command run from the
/// repository root with repo-relative paths, and `NAME.stderr` its
/// standard error (no file means it prints nothing there). `check`
/// prints instance counts and join-planner statistics, so these pin the
/// grounder as well as the semantics. To regenerate one after an
/// intended change, run the command from the repository root with its
/// output redirected into the two files.
#[test]
fn cli_output_matches_goldens() {
    let root = env!("CARGO_MANIFEST_DIR");
    let names = ["loan", "p5", "penguin"];
    let files = names.map(|n| format!("examples/programs/{n}.olp"));
    let mut cases: Vec<(String, Vec<&str>)> = Vec::new();
    for (name, file) in names.iter().zip(&files) {
        cases.push((
            format!("models_{name}"),
            vec!["models", file, "--all-semantics"],
        ));
        cases.push((
            format!("check_{name}"),
            vec!["check", file, "--threads", "1"],
        ));
    }
    let explain = "query examples/programs/penguin.olp c1 fly(penguin) --explain";
    cases.push(("query_explain_penguin".into(), explain.split(' ').collect()));
    let mut mismatches = Vec::new();
    for (name, args) in &cases {
        let out = Command::new(env!("CARGO_BIN_EXE_olp"))
            .args(args)
            .current_dir(root)
            .output()
            .expect("binary runs");
        assert_eq!(out.status.code(), Some(0), "olp {}", args.join(" "));
        let golden = |ext: &str| {
            std::fs::read(format!("{root}/tests/golden/{name}.{ext}")).unwrap_or_default()
        };
        for (ext, got) in [("stdout", &out.stdout), ("stderr", &out.stderr)] {
            if *got != golden(ext) {
                mismatches.push(format!(
                    "olp {} ({ext} differs from tests/golden/{name}.{ext}):\n{}",
                    args.join(" "),
                    String::from_utf8_lossy(got)
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

//! End-to-end tests of the `bcag` binary: spawn the real executable and
//! check its output and exit codes.

use std::process::Command;

fn bcag(args: &[&str]) -> (String, String, i32) {
    output(Command::new(env!("CARGO_BIN_EXE_bcag")).args(args))
}

/// Runs `cmd` and returns its stdout, stderr and exit code.
fn output(cmd: &mut Command) -> (String, String, i32) {
    let out = cmd.output().expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn table_reproduces_the_worked_example() {
    let (stdout, _, code) = bcag(&[
        "table", "--p", "4", "--k", "8", "--l", "4", "--s", "9", "--m", "1",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("start global=13 local=5"), "{stdout}");
    assert!(
        stdout.contains("AM=[3, 12, 15, 12, 3, 12, 3, 12]"),
        "{stdout}"
    );
}

#[test]
fn table_all_processors_and_methods() {
    for method in [
        "lattice",
        "sorting",
        "sorting-cmp",
        "sorting-radix",
        "oracle",
    ] {
        let (stdout, _, code) = bcag(&[
            "table", "--p", "4", "--k", "8", "--l", "4", "--s", "9", "--method", method,
        ]);
        assert_eq!(code, 0, "method {method}");
        assert_eq!(stdout.lines().filter(|l| l.starts_with("proc ")).count(), 4);
        assert!(
            stdout.contains("proc 1: start global=13"),
            "{method}: {stdout}"
        );
    }
}

#[test]
fn basis_prints_r_and_l() {
    let (stdout, _, code) = bcag(&["basis", "--p", "4", "--k", "8", "--s", "9"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("R = (4, 1)"), "{stdout}");
    assert!(stdout.contains("L = (5, -1)"), "{stdout}");
}

#[test]
fn layout_renders_section() {
    let (stdout, _, code) = bcag(&[
        "layout", "--p", "4", "--k", "8", "--l", "0", "--s", "9", "--rows", "3",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("(0)"));
    assert!(stdout.contains("[9]"));
}

#[test]
fn codegen_emits_c() {
    let (stdout, _, code) = bcag(&[
        "codegen", "--p", "4", "--k", "8", "--l", "4", "--u", "301", "--s", "9", "--m", "1",
        "--shape", "b",
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("void node_m1(double *A)"), "{stdout}");
    assert!(
        stdout.contains("deltaM[8] = { 3, 12, 15, 12, 3, 12, 3, 12 }"),
        "{stdout}"
    );
}

#[test]
fn verify_runs_clean() {
    let (stdout, _, code) = bcag(&["verify", "--trials", "50", "--max-p", "4", "--max-k", "8"]);
    assert_eq!(code, 0);
    assert!(stdout.contains("all methods agree"), "{stdout}");
}

#[test]
fn run_executes_a_script() {
    let dir = std::env::temp_dir();
    let path = dir.join("bcag_cli_test_script.hpf");
    std::fs::write(
        &path,
        "PROCESSORS P(4)
         TEMPLATE T(320)
         REAL A(320)
         ALIGN A(i) WITH T(i)
         DISTRIBUTE T(CYCLIC(8)) ONTO P
         INIT A LINEAR 1 0
         PRINT SUM A(0:9:1)
         PRINT TABLE A(4:301:9) 1",
    )
    .expect("write script");
    let (stdout, _, code) = bcag(&["run", "--file", path.to_str().unwrap()]);
    assert_eq!(code, 0);
    assert!(stdout.contains("SUM A(0:9:1) = 45"), "{stdout}");
    assert!(
        stdout.contains("AM=[3, 12, 15, 12, 3, 12, 3, 12]"),
        "{stdout}"
    );
}

/// The exact `bcag run` output of every example script. Both sides of the
/// `--procs 4` parity tests run the same interpreter, so only fixed text
/// catches a change in what the interpreter prints.
#[test]
fn example_scripts_print_their_golden_output() {
    let golden: [(&str, &[&str]); 4] = [
        (
            "triad",
            &[
                "TABLE A(4:301:9) proc 1: start=Some(5) AM=[3, 12, 15, 12, 3, 12, 3, 12]",
                "SUM A(0:99:3) = 3009",
                "A(0:15:3) = [6.0, 11.0, 16.0, 21.0, 26.0, 31.0]",
                "A(0:15:3) = [6.0, 11.0, 16.0, 21.0, 26.0, 31.0]",
            ],
        ),
        ("cache_loop", &["SUM A(0:99:3) = 3009"]),
        (
            "mixed",
            &[
                "SUM A(0:399:1) = 81634",
                "A(0:30:3) = [26.0, 33.0, 40.0, 47.0, 54.0, 61.0, 68.0, 75.0, 82.0, 89.0, 96.0]",
                "SUM B(0:399:1) = 78877.5",
                "SUM C(0:399:1) = 105170",
                "A(0:15:3) = [0.5, 33.0, 3.5, 47.0, 14.5, 61.0]",
            ],
        ),
        (
            "matrix",
            &[
                "SUM2 M(0:1:1, 0:1:1) = 202",
                "SUM2 M(0:23:1, 0:23:1) = 552720",
            ],
        ),
    ];
    for (name, want) in golden {
        let script = format!(
            "{}/../../examples/scripts/{name}.hpf",
            env!("CARGO_MANIFEST_DIR")
        );
        let (stdout, stderr, code) = bcag(&["run", "--file", &script]);
        assert_eq!(code, 0, "{name}: stderr:\n{stderr}");
        assert_eq!(stdout, want.join("\n") + "\n", "{name}");
    }
}

#[test]
fn unknown_flag_errors_name_the_flag() {
    // Every subcommand rejects unknown flags and names the offender.
    let (_, stderr, code) = bcag(&["table", "--bogus", "1"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--bogus"), "{stderr}");
    assert!(stderr.contains("allowed:"), "{stderr}");

    let (_, stderr, code) = bcag(&["trace", "--frob", "x"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--frob"), "{stderr}");

    // The global --trace flag must come with a value.
    let (_, stderr, code) = bcag(&["table", "--p", "4", "--trace"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("--trace"), "{stderr}");
}

fn read_json(path: &std::path::Path) -> bcag_harness::json::Json {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    bcag_harness::json::Json::parse(&text)
        .unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}

#[test]
fn trace_subcommand_writes_both_artifacts() {
    let dir = std::env::temp_dir();
    let script = dir.join("bcag_cli_trace_script.hpf");
    std::fs::write(
        &script,
        "PROCESSORS P(4)
         TEMPLATE T(320)
         REAL A(320)
         ALIGN A(i) WITH T(i)
         DISTRIBUTE T(CYCLIC(8)) ONTO P
         TEMPLATE TB(640)
         REAL B(640)
         ALIGN B(i) WITH TB(i)
         DISTRIBUTE TB(CYCLIC(5)) ONTO P
         INIT B LINEAR 1 0
         INIT A CONST 0
         ASSIGN A(0:99:3) = B(2:68:2)
         PRINT SUM A(0:99:3)",
    )
    .expect("write script");
    let out = dir.join("bcag_cli_trace_out.json");
    let chrome = dir.join("bcag_cli_trace_out.chrome.json");
    let (stdout, stderr, code) = bcag(&[
        "trace",
        "--p",
        "8",
        "--k",
        "4",
        script.to_str().unwrap(),
        "--trace",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");

    let summary = read_json(&out);
    assert_eq!(
        summary.get("format").and_then(|f| f.as_str()),
        Some("bcag-trace/v2"),
        "{stdout}"
    );
    // --p 8 took effect: per-node lanes exist for all eight nodes.
    let lanes = summary.get("lanes").and_then(|l| l.as_arr()).unwrap();
    let labels: Vec<&str> = lanes
        .iter()
        .filter_map(|l| l.get("label").and_then(|s| s.as_str()))
        .collect();
    for m in 0..8 {
        assert!(
            labels.contains(&format!("node-{m}").as_str()),
            "missing node-{m} lane in {labels:?}"
        );
    }
    assert!(summary.get("counters").is_some());
    assert!(summary.get("critical_path_ns").is_some());

    let events = read_json(&chrome);
    let evs = events.get("traceEvents").and_then(|e| e.as_arr()).unwrap();
    assert!(!evs.is_empty());
    // Metadata names the node lanes; complete events carry durations.
    let phases: Vec<&str> = evs
        .iter()
        .filter_map(|e| e.get("ph").and_then(|p| p.as_str()))
        .collect();
    assert!(phases.contains(&"M"), "{phases:?}");
    assert!(phases.contains(&"X"), "{phases:?}");

    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(&chrome);
}

#[test]
fn trace_synthetic_fallback_and_global_flag() {
    let dir = std::env::temp_dir();

    // No script: the built-in synthetic workload runs.
    let out = dir.join("bcag_cli_trace_synth.json");
    let (stdout, stderr, code) = bcag(&[
        "trace",
        "--p",
        "3",
        "--k",
        "4",
        "--trace",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("synthetic workload"), "{stdout}");
    let summary = read_json(&out);
    let counters = summary.get("counters").unwrap();
    assert!(counters.get("table_entries").and_then(|c| c.as_i64()) > Some(0));
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(dir.join("bcag_cli_trace_synth.chrome.json"));

    // Global flag on an ordinary subcommand traces the whole run.
    let out = dir.join("bcag_cli_trace_global.json");
    let (stdout, _, code) = bcag(&[
        "table",
        "--p",
        "4",
        "--k",
        "8",
        "--l",
        "4",
        "--s",
        "9",
        "--trace",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    assert!(stdout.contains("start global=13"), "{stdout}");
    let summary = read_json(&out);
    assert_eq!(
        summary.get("format").and_then(|f| f.as_str()),
        Some("bcag-trace/v2")
    );
    let counters = summary.get("counters").unwrap();
    assert!(counters.get("table_entries").and_then(|c| c.as_i64()) > Some(0));
    let _ = std::fs::remove_file(&out);
    let _ = std::fs::remove_file(dir.join("bcag_cli_trace_global.chrome.json"));
}

/// `bcag trace` prints the human-readable digest (top-spans table +
/// histogram percentiles) and `--prom` writes a Prometheus exposition.
#[test]
fn trace_prints_summary_tables_and_writes_prometheus() {
    let dir = std::env::temp_dir();
    let out = dir.join("bcag_cli_trace_prom.json");
    let prom = dir.join("bcag_cli_trace_prom.prom");
    let (stdout, stderr, code) = bcag(&[
        "trace",
        "--p",
        "4",
        "--k",
        "8",
        "--prom",
        prom.to_str().unwrap(),
        "--trace",
        out.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("top spans by total time:"), "{stdout}");
    assert!(stdout.contains("histogram percentiles:"), "{stdout}");
    assert!(stdout.contains("recv_wait_ns"), "{stdout}");
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# TYPE bcag_messages_sent counter"), "{text}");
    assert!(text.contains("bcag_recv_wait_ns_bucket{le="), "{text}");
    assert!(text.contains("bcag_recv_wait_ns_count"), "{text}");
    for f in [&out, &prom, &dir.join("bcag_cli_trace_prom.chrome.json")] {
        let _ = std::fs::remove_file(f);
    }
}

/// `bcag stats` runs its built-in script and prints the flight-recorder
/// table, cache effectiveness and headline percentiles.
#[test]
fn stats_prints_flight_recorder_and_percentiles() {
    let (stdout, stderr, code) = bcag(&["stats"]);
    assert_eq!(code, 0, "stderr:\n{stderr}");
    assert!(stdout.contains("flight recorder: last"), "{stdout}");
    assert!(stdout.contains("rt.ASSIGN"), "{stdout}");
    assert!(stdout.contains("REDISTRIBUTE A CYCLIC(5)"), "{stdout}");
    assert!(stdout.contains("schedule cache: hits="), "{stdout}");
    assert!(stdout.contains("histogram percentiles:"), "{stdout}");
    assert!(stdout.contains("rt_statement_ns"), "{stdout}");
    // The blocking line: resolved L2 and how many epochs ran blocked.
    assert!(stdout.contains("blocking: l2="), "{stdout}");
    assert!(
        stdout.contains("KiB (BCAG_L2_KB) blocked_epochs="),
        "{stdout}"
    );
    // The flight recorder's blocking column.
    assert!(stdout.contains(" blk "), "{stdout}");
}

/// Runs `bcag run` on the repository's triad script with the two cache
/// env vars cleared, then `var = value` set if given.
fn run_triad_with(var: Option<(&str, &str)>) -> (String, String, i32) {
    let script = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/scripts/triad.hpf"
    );
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bcag"));
    cmd.args(["run", "--file", script])
        .env_remove("BCAG_CACHE_SHARDS")
        .env_remove("BCAG_SCHED_CACHE_CAP");
    if let Some((k, v)) = var {
        cmd.env(k, v);
    }
    output(&mut cmd)
}

#[test]
fn hostile_cache_env_values_are_clamped() {
    let (want, stderr, code) = run_triad_with(None);
    assert_eq!(code, 0, "stderr:\n{stderr}");
    for (var, value) in [
        ("BCAG_CACHE_SHARDS", "1099511627776"),
        ("BCAG_SCHED_CACHE_CAP", "1099511627776"),
        ("BCAG_SCHED_CACHE_CAP", "18446744073709551615"),
    ] {
        let (got, stderr, code) = run_triad_with(Some((var, value)));
        assert_eq!(code, 0, "{var}={value}: stderr:\n{stderr}");
        assert_eq!(got, want, "{var}={value} changed the output");
    }
}

#[test]
fn bad_input_fails_with_diagnostics() {
    let (_, stderr, code) = bcag(&["table", "--p", "0", "--k", "8", "--l", "0", "--s", "9"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("processor count"), "{stderr}");

    let (_, stderr, code) = bcag(&["table", "--p", "4"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("missing required flag"), "{stderr}");

    let (_, stderr, code) = bcag(&["frobnicate"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown subcommand"), "{stderr}");
}

#[test]
fn help_lists_subcommands() {
    let (stdout, _, code) = bcag(&["help"]);
    assert_eq!(code, 0);
    for sub in [
        "table", "layout", "visits", "basis", "plan", "hpf", "codegen", "verify", "run", "trace",
    ] {
        assert!(stdout.contains(sub), "help missing `{sub}`");
    }
}

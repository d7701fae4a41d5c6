//! End-to-end tests of `bcag spmd`: real OS processes, real pipes.
//!
//! These spawn the actual binary as the launcher, which itself re-spawns
//! it `p` more times as node children, so the whole star — frame
//! routing, wire-encoded exchanges, output funneling, trace merging and
//! poison broadcast — is exercised exactly as a user runs it.

use std::io::Read;
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one `bcag` run may take before the test kills it and fails:
/// a hung launch must fail the suite, not stall it.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs the binary and returns `(stdout, stderr, exit code)`, killing it
/// and failing the test if it is still running after [`DEADLINE`].
fn bcag(args: &[&str], envs: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_bcag"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("binary runs");
    let stdout = drain(child.stdout.take().expect("piped stdout"));
    let stderr = drain(child.stderr.take().expect("piped stderr"));
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll the binary") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            let _ = child.kill();
            let _ = child.wait();
            panic!("`bcag {}` still running after {DEADLINE:?}", args.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    (
        stdout.join().expect("stdout reader"),
        stderr.join().expect("stderr reader"),
        status.code().unwrap_or(-1),
    )
}

/// Reads a pipe to its end on a thread of its own, so a chatty child
/// never blocks on a full pipe while the test polls it.
fn drain(mut pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut bytes = Vec::new();
        let _ = pipe.read_to_end(&mut bytes);
        String::from_utf8_lossy(&bytes).into_owned()
    })
}

fn script_path(name: &str) -> String {
    format!(
        "{}/../../examples/scripts/{name}",
        env!("CARGO_MANIFEST_DIR")
    )
}

/// Every communicating statement kind — one- and two-operand mixed
/// layouts, the general-case stride, self-reference, `CSHIFT` and
/// `REDISTRIBUTE` — runs as fused programs in both modes, and rank-2
/// statements run replicated in every node, so the multi-process output
/// must match the in-process one byte for byte.
#[test]
fn spmd_matches_in_process_run() {
    for name in ["triad.hpf", "cache_loop.hpf", "mixed.hpf", "matrix.hpf"] {
        let script = script_path(name);
        let (in_process, _, code) = bcag(&["run", "--file", &script], &[]);
        assert_eq!(code, 0, "{name}");
        let (multi_process, stderr, code) = bcag(&["spmd", "--file", &script, "--procs", "4"], &[]);
        assert_eq!(code, 0, "{name}: {stderr}");
        assert_eq!(
            multi_process, in_process,
            "{name}: output must be bit-identical"
        );
        if name == "matrix.hpf" {
            assert!(
                multi_process.contains("SUM2 M(0:23:1, 0:23:1) = 552720"),
                "{multi_process}"
            );
        } else if name != "mixed.hpf" {
            assert!(
                multi_process.contains("SUM A(0:99:3) = 3009"),
                "{multi_process}"
            );
        }
    }
}

/// A statement whose every node sends far more than the pipes hold
/// before it receives anything: `A` is `CYCLIC(1)`, `B` one block per
/// node, so each node ships almost its whole block to its peers. The
/// router must keep draining every child while a destination's stdin is
/// full, or every node blocks in `write`.
#[test]
fn spmd_survives_sends_past_the_pipe_buffers() {
    let dir = std::env::temp_dir().join(format!("bcag-spmd-bulk-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    // (p, n): one message per peer pair either way, each far past a
    // pipe buffer.
    for (p, n) in [(4i64, 400_000i64), (2, 160_000)] {
        let script = format!(
            "PROCESSORS P({p})\n\
             TEMPLATE TA({n})\nREAL A({n})\n\
             !HPF$ ALIGN A(i) WITH TA(i)\n\
             !HPF$ DISTRIBUTE TA(CYCLIC(1)) ONTO P\n\
             TEMPLATE TB({n})\nREAL B({n})\n\
             !HPF$ ALIGN B(i) WITH TB(i)\n\
             !HPF$ DISTRIBUTE TB(CYCLIC({})) ONTO P\n\
             INIT B LINEAR 1 0\nINIT A CONST 0\n\
             ASSIGN A(0:{}:1) = B(0:{}:1) + 1\n\
             PRINT SUM A(0:{}:1)\n",
            n / p,
            n - 1,
            n - 1,
            n - 1
        );
        let path = dir.join(format!("bulk_p{p}_n{n}.hpf"));
        std::fs::write(&path, script).unwrap();
        let path = path.to_str().unwrap();
        let (in_process, stderr, code) = bcag(&["run", "--file", path], &[]);
        assert_eq!(code, 0, "p={p} n={n}: {stderr}");
        let procs = p.to_string();
        let (multi_process, stderr, code) = bcag(&["spmd", "--file", path, "--procs", &procs], &[]);
        assert_eq!(code, 0, "p={p} n={n}: {stderr}");
        assert_eq!(multi_process, in_process, "p={p} n={n}");
        assert!(multi_process.starts_with("SUM A("), "{multi_process}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spmd_trace_merges_per_node_lanes() {
    let script = script_path("cache_loop.hpf");
    let dir = std::env::temp_dir().join(format!("bcag-spmd-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("spmd.json");
    let out_str = out.to_str().unwrap();
    let (stdout, stderr, code) = bcag(
        &[
            "spmd", "--file", &script, "--procs", "4", "--trace", out_str,
        ],
        &[],
    );
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("SUM A(0:99:3) = 3009"), "{stdout}");
    let summary = std::fs::read_to_string(&out).unwrap();
    assert!(
        summary.contains("\"format\": \"bcag-trace/v2\""),
        "{summary}"
    );
    // One lane per node process survives the merge.
    for m in 0..4 {
        assert!(summary.contains(&format!("\"node-{m}\"")), "{summary}");
    }
    // The per-backend tag and the transport byte counters made it across.
    assert!(summary.contains("\"transport\": \"proc\""), "{summary}");
    assert!(summary.contains("\"transport_bytes_tx\""), "{summary}");
    let chrome = dir.join("spmd.chrome.json");
    assert!(chrome.exists(), "chrome twin written next to the summary");
    std::fs::remove_dir_all(&dir).ok();
}

/// The traffic- and wait-shaped histograms must merge *exactly* across
/// node processes: the merged trace's total counts equal one in-process
/// traced run of the same script, message for message. (Per-process
/// histograms like `rt_statement_ns` legitimately multiply by p — every
/// node interprets the whole script — so only the distributions driven
/// by the compiled programs' message blocks are compared.) Each process
/// counts only its own row, so `msg_bytes` (one sample per logical
/// message) and `recv_wait_ns` (one per received block) sum to the
/// in-process totals, as do the epoch-phase histograms (one sample per
/// node per epoch, each process timing only its own node).
#[test]
fn spmd_merged_histogram_counts_match_in_process_run() {
    let dir = std::env::temp_dir().join(format!("bcag-spmd-hist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for name in ["cache_loop.hpf", "mixed.hpf"] {
        let script = script_path(name);
        let spmd_out = dir.join(format!("{name}.spmd.json"));
        let inproc_out = dir.join(format!("{name}.inproc.json"));
        let (_, stderr, code) = bcag(
            &[
                "spmd",
                "--file",
                &script,
                "--procs",
                "4",
                "--trace",
                spmd_out.to_str().unwrap(),
            ],
            &[],
        );
        assert_eq!(code, 0, "{name}: {stderr}");
        let (_, stderr, code) = bcag(
            &[
                "trace",
                "--file",
                &script,
                "--trace",
                inproc_out.to_str().unwrap(),
            ],
            &[],
        );
        assert_eq!(code, 0, "{name}: {stderr}");
        let parse = |path: &std::path::Path| {
            bcag_harness::json::Json::parse(&std::fs::read_to_string(path).unwrap())
                .expect("trace summary parses")
        };
        let (spmd, inproc) = (parse(&spmd_out), parse(&inproc_out));
        let count = |doc: &bcag_harness::json::Json, hist: &str| {
            doc.get("histograms")
                .and_then(|h| h.get(hist))
                .and_then(|h| h.get("count"))
                .and_then(|c| c.as_i64())
                .unwrap_or_else(|| panic!("{name}: histogram {hist} missing"))
        };
        for hist in [
            "recv_wait_ns",
            "msg_bytes",
            "fuse_stage_ns",
            "fuse_send_ns",
            "fuse_drain_ns",
            "fuse_apply_ns",
        ] {
            let (s, i) = (count(&spmd, hist), count(&inproc, hist));
            assert_eq!(
                s, i,
                "{name} {hist}: merged spmd count {s} != in-process {i}"
            );
            assert!(s > 0, "{name} {hist}: empty distribution");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Statements whose sections reach past their arrays — the LHS, or an
/// operand, of rank 1 or 2 — whose operand triplet is not an integer, or
/// whose `PRINT TABLE` names a processor outside the machine fail with a
/// typed error, in process and in every node process of a session
/// alike: exit 2 with an `error:` line, the same as an out-of-range
/// `PRINT`, and no node panics.
#[test]
fn hostile_statements_fail_cleanly() {
    let dir = std::env::temp_dir().join(format!("bcag-out-of-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let rank1 = "PROCESSORS P(4)\n\
                  TEMPLATE TA(400)\nREAL A(400)\n\
                  !HPF$ ALIGN A(i) WITH TA(i)\n\
                  !HPF$ DISTRIBUTE TA(CYCLIC(8)) ONTO P\n\
                  TEMPLATE TB(400)\nREAL B(400)\n\
                  !HPF$ ALIGN B(i) WITH TB(i)\n\
                  !HPF$ DISTRIBUTE TB(CYCLIC(5)) ONTO P\n\
                  INIT B LINEAR 1 0\nINIT A CONST 0\n";
    let rank2 = "PROCESSORS G(2, 2)\n\
                 TEMPLATE TM(24, 24)\nREAL M(24, 24)\n\
                 !HPF$ ALIGN M(i, j) WITH TM(i, j)\n\
                 !HPF$ DISTRIBUTE TM(CYCLIC(3), CYCLIC(4)) ONTO G\n\
                 TEMPLATE TN(24, 24)\nREAL N(24, 24)\n\
                 !HPF$ ALIGN N(i, j) WITH TN(i, j)\n\
                 !HPF$ DISTRIBUTE TN(CYCLIC(5), CYCLIC(2)) ONTO G\n\
                 INIT2 N LINEAR2 100 1 0\n";
    let cases = [
        (rank1, "ASSIGN A(0:1000:3) = B(0:1000:3) + 1"),
        (rank1, "ASSIGN A(0:10:1) = B(390:400:1) + 1"),
        (rank1, "ASSIGN A(0:9:1) = B(0.7:9.9:1) + 1"),
        (rank1, "PRINT SUM A(0:1000:3)"),
        (rank1, "PRINT TABLE A(0:99:1) 7"),
        (rank1, "PRINT TABLE A(0:99:1) -1"),
        (rank2, "ASSIGN2 M(0:30:1, 0:23:1) = N(0:30:1, 0:23:1)"),
        (rank2, "ASSIGN2 M(0:23:1, 0:23:1) = N(0:23:1, 5:28:1)"),
        (rank2, "ASSIGN2 M(1:23:2, 0:40:3) = -1"),
    ];
    for (i, (header, stmt)) in cases.iter().enumerate() {
        let path = dir.join(format!("hostile{i}.hpf"));
        let trailer = if *header == rank1 {
            "PRINT SUM A(0:99:3)"
        } else {
            "PRINT2 SUM M(0:23:1, 0:23:1)"
        };
        std::fs::write(&path, format!("{header}{stmt}\n{trailer}\n")).unwrap();
        let script = path.to_str().unwrap();
        for args in [
            vec!["run", "--file", script],
            vec!["spmd", "--file", script, "--procs", "4"],
        ] {
            let (_, stderr, code) = bcag(&args, &[]);
            assert_eq!(code, 2, "{stmt} under {}: {stderr}", args[0]);
            assert!(
                stderr.lines().any(|l| l.starts_with("error:")),
                "{stmt} under {}: {stderr}",
                args[0]
            );
            assert!(
                !stderr.contains("panicked"),
                "{stmt} under {}: {stderr}",
                args[0]
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn spmd_rejects_mismatched_procs() {
    let script = script_path("triad.hpf");
    let (_, stderr, code) = bcag(&["spmd", "--file", &script, "--procs", "3"], &[]);
    assert_eq!(code, 2);
    assert!(stderr.contains("PROCESSORS(4)"), "{stderr}");
}

#[test]
fn spmd_node_failure_poisons_the_launch() {
    let script = script_path("cache_loop.hpf");
    let (_, stderr, code) = bcag(
        &["spmd", "--file", &script, "--procs", "4"],
        &[("BCAG_SPMD_PANIC_NODE", "2")],
    );
    assert_ne!(code, 0, "a dead node must fail the launch");
    assert!(stderr.contains("injected failure"), "{stderr}");
    assert!(stderr.contains("failed"), "{stderr}");
}

//! The benchmark's own guarantees: outputs are really checked, the traced
//! decomposition is the path the end-to-end numbers measure, and the
//! ledger closes.

use std::sync::Mutex;

use bcag_ledger::bank::{OpFacts, ReplayCounts};
use bcag_ledger::run::{self, Config, END_TO_END, PER_LAYER};
use bcag_ledger::spans::Ledger;
use bcag_ledger::workload::{self, Scale, Setup, Workload, NAMES};
use bcag_spmd::{cache, fuse, pool, transport};

/// The plan cache, pools and trace sink are process-wide: tests that
/// read their deltas must not interleave.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn test_workload(name: &str, seed: u64) -> Box<dyn Workload> {
    workload::make(name, seed, Scale::Test).expect("known workload")
}

fn config(name: &str, trace: bool) -> Config {
    Config {
        workload: name.into(),
        seed: 7,
        seconds: 0.2,
        trace,
    }
}

/// Corrupts the image of every third op after it ran.
struct Corrupting {
    inner: Box<dyn Workload>,
    ops: u64,
}

impl Workload for Corrupting {
    fn warm(&self) -> bool {
        self.inner.warm()
    }
    fn setup(&mut self) -> Result<Setup, String> {
        self.inner.setup()
    }
    fn next(&mut self) {
        self.inner.next()
    }
    fn run(&mut self, c: u64) -> Result<(), String> {
        self.inner.run(c)?;
        self.ops += 1;
        if self.ops.is_multiple_of(3) {
            self.inner.corrupt();
        }
        Ok(())
    }
    fn run_traced(&mut self, c: u64, led: &mut Ledger) -> Result<OpFacts, String> {
        self.inner.run_traced(c, led)
    }
    fn check(&mut self, c: u64) -> bool {
        self.inner.check(c)
    }
    fn replay(&mut self, led: &mut Ledger, counts: &mut ReplayCounts) {
        self.inner.replay(led, counts)
    }
    fn corrupt(&mut self) {
        self.inner.corrupt()
    }
    fn image(&self) -> Vec<u64> {
        self.inner.image()
    }
}

#[test]
fn corrupted_images_drive_ok_rate_below_one() {
    let _g = serial();
    for name in NAMES {
        let clean = run::run_untraced(&config(name, false), test_workload(name, 7).as_mut())
            .expect("clean run");
        assert!(clean.correct, "{name}: clean run must check correct");
        assert_eq!(clean.failed, 0, "{name}");

        let mut bad = Corrupting {
            inner: test_workload(name, 7),
            ops: 0,
        };
        let report = run::run_untraced(&config(name, false), &mut bad).expect("corrupted run");
        let ok_rate = report
            .metrics
            .iter()
            .find(|m| m.0 == "ok_rate")
            .expect("ok_rate reported")
            .1;
        assert!(!report.correct, "{name}: corruption must be caught");
        assert!(ok_rate < 1.0, "{name}: ok_rate {ok_rate}");
        // Set-up ops are checked but not counted as attempted; every
        // corrupted timed op fails exactly once.
        assert!(
            report.failed > 0 && report.failed < report.attempted,
            "{name}"
        );
    }
}

/// Path counts of a run of `ops` ops, from the program's own trace.
fn path_counts(trace: &bcag_trace::Trace) -> (usize, u64) {
    (
        trace.span_count("pool.dispatch"),
        trace.counter_total("fused_epochs"),
    )
}

#[test]
fn traced_decomposition_matches_the_default_path() {
    let _g = serial();
    assert_eq!(fuse::default_fused(), fuse::FusedMode::On);
    let kind = transport::active_transport();
    let launch = pool::default_launch();
    for name in NAMES {
        let ops = 40;
        let mut outcome = Vec::new();
        for traced in [false, true] {
            let mut w = test_workload(name, 11);
            cache::clear();
            w.setup().expect("setup");
            let s0 = cache::stats();
            let ((), trace) = bcag_trace::capture(|| {
                let mut led = Ledger::default();
                for c in 0..ops {
                    w.next();
                    if traced {
                        w.run_traced(c, &mut led).expect("traced op");
                    } else {
                        w.run(c).expect("default op");
                    }
                    assert!(w.check(c), "{name}: op {c} (traced={traced})");
                }
            });
            let s1 = cache::stats();
            outcome.push((
                w.image(),
                (
                    s1.hits - s0.hits,
                    s1.misses - s0.misses,
                    s1.evictions - s0.evictions,
                ),
                path_counts(&trace),
                transport::active_transport(),
                pool::default_launch(),
            ));
        }
        let (a, b) = (&outcome[0], &outcome[1]);
        assert!(!a.0.is_empty(), "{name}: image is not empty");
        assert!(a.0 == b.0, "{name}: images must be bit-identical");
        assert_eq!(a.1, b.1, "{name}: cache hit/miss/eviction deltas");
        assert_eq!(a.2, b.2, "{name}: dispatches and fused epochs");
        assert_eq!((a.3, a.4), (kind, launch), "{name}");
        assert_eq!((b.3, b.4), (kind, launch), "{name}");
    }
}

#[test]
fn traced_runs_close_the_ledger() {
    let _g = serial();
    for name in NAMES {
        let report = run::run_traced(&config(name, true), test_workload(name, 3).as_mut())
            .expect("traced run");
        assert!(report.correct, "{name}");
        let get = |m: &str| {
            report
                .metrics
                .iter()
                .find(|x| x.0 == m)
                .unwrap_or_else(|| panic!("{m} reported"))
                .1
        };
        let (op, layers, residue) = (
            get("closure.op_us"),
            get("closure.layers_us"),
            get("closure.residue_us"),
        );
        assert!(op > 0.0, "{name}");
        assert!(
            (layers + residue - op).abs() <= 1e-9 * op,
            "{name}: {layers} + {residue} != {op}"
        );
        assert!(residue >= 0.0 && layers > 0.0, "{name}");
        assert!(get("trace.ops") >= 1.0, "{name}");
        assert_eq!(
            get("path.fused_epochs_per_op") > 0.0,
            get("trace.counted_ops") > 0.0
        );
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, want, "{name}: every per-layer metric, in order");
    }
}

#[test]
fn benchmark_manifest_lists_every_metric() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists exactly the reported metrics"
    );
    for name in NAMES {
        assert!(text.contains(&format!("{{\"name\": \"{name}\"")), "{name}");
    }
}

//! One benchmark run: set-up, the closed loop, and the metrics it reports.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

use bcag_core::tune;
use bcag_spmd::{cache, fuse, pool, transport};

use crate::bank::ReplayCounts;
use crate::probe::{self, Bulk, Host, HostSample};
use crate::spans::{mean, median, percentile, ratio, Ledger, ROOT};
use crate::workload::{self, Scale, Setup, Workload, P};

/// End-to-end metrics, reported with tracing off: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("ops_per_s", "1/s"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. Layers
/// are named after the module whose public call is timed.
pub const PER_LAYER: [(&str, &str); 59] = [
    ("host.memcpy_l2_gb_per_s", "GB/s"),
    ("host.memcpy_big_gb_per_s", "GB/s"),
    ("host.stride64_gb_per_s", "GB/s"),
    ("host.calib_ns", "ns"),
    ("hpf.parse.us", "us"),
    ("hpf.parse.share", "ratio"),
    ("rt.interp.us", "us"),
    ("rt.interp.residue_us", "us"),
    ("rt.interp.share", "ratio"),
    ("spmd.darray.alloc_us", "us"),
    ("spmd.darray.share", "ratio"),
    ("core.lattice_alg.us_per_node", "us"),
    ("core.lattice_alg.ns_per_entry", "ns"),
    ("core.lattice_alg.plan_share", "ratio"),
    ("core.runs.us_per_plan", "us"),
    ("core.runs.segments_per_plan", "count"),
    ("core.runs.plan_share", "ratio"),
    ("core.locality.us_per_plan", "us"),
    ("spmd.cache.hit_ns", "ns"),
    ("spmd.cache.miss_us", "us"),
    ("spmd.cache.plans_miss_us", "us"),
    ("spmd.cache.lookups_per_op", "count"),
    ("spmd.cache.misses_per_op", "count"),
    ("spmd.cache.evictions_per_op", "count"),
    ("spmd.cache.share", "ratio"),
    ("spmd.cache.miss.plans_share", "ratio"),
    ("spmd.cache.miss.comm_share", "ratio"),
    ("spmd.cache.miss.compile_share", "ratio"),
    ("spmd.comm.build_us", "us"),
    ("spmd.comm.transfers_per_op", "count"),
    ("spmd.comm.redistribute_us", "us"),
    ("spmd.comm.redistribute_share", "ratio"),
    ("spmd.fuse.compile_us", "us"),
    ("spmd.fuse.exec_us", "us"),
    ("spmd.fuse.exec_gb_per_s", "GB/s"),
    ("spmd.fuse.roofline_frac", "ratio"),
    ("spmd.fuse.msgs_per_op", "count"),
    ("spmd.fuse.send_blocks_per_op", "count"),
    ("spmd.fuse.apply_segments_per_op", "count"),
    ("spmd.fuse.blocked_frac", "ratio"),
    ("spmd.fuse.exec_share", "ratio"),
    ("spmd.pool.boot_ms", "ms"),
    ("spmd.pool.dispatch_us", "us"),
    ("spmd.pool.dispatch_share", "ratio"),
    ("spmd.transport.pingpong_us", "us"),
    ("spmd.transport.bulk_gb_per_s", "GB/s"),
    ("spmd.transport.bulk_roofline_frac", "ratio"),
    ("path.dispatches_per_op", "count"),
    ("path.decision_lookups_per_op", "count"),
    ("path.pack_calls_per_op", "count"),
    ("path.fused_epochs_per_op", "count"),
    ("closure.op_us", "us"),
    ("closure.layers_us", "us"),
    ("closure.residue_us", "us"),
    ("closure.residue_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.ops", "count"),
    ("trace.untraced_ops", "count"),
    ("trace.counted_ops", "count"),
];

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name (see [`workload::NAMES`]).
    pub workload: String,
    /// Seed the inputs are drawn from.
    pub seed: u64,
    /// Seconds the closed loop runs.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The result line of a run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Every op and every cold set-up execution matched its reference.
    pub correct: bool,
    /// Ops attempted in the timed loop.
    pub attempted: u64,
    /// Ops whose output did not match.
    pub failed: u64,
    /// `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// The result as the one-line JSON object the benchmark prints last.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                // `+ 0.0` turns a negative zero into zero.
                let v = if v.is_finite() { v + 0.0 } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |m| m.1)
    }
}

fn sysfs_cache(index: u32) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_string())
    .unwrap_or_else(|_| "unknown".into())
}

/// The configuration the run measures, resolved from the program itself,
/// as one JSON object.
pub fn header(cfg: &Config) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"p\": {P}, \
         \"nproc\": {nproc}, \"l2\": \"{}\", \"l3\": \"{}\", \"tune_l2_bytes\": {}, \
         \"transport\": \"{}\", \"launch\": \"{}\", \"fused\": \"{}\", \"tune\": \"{}\", \
         \"cache_capacity\": {}, \"cache_shards\": {}}}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        sysfs_cache(2),
        sysfs_cache(3),
        tune::l2_bytes(),
        transport::active_transport().name(),
        pool::default_launch().name(),
        fuse::default_fused().name(),
        tune::default_tune().name(),
        cache::capacity(),
        cache::shards(),
    )
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn malloc_trim(pad: usize) -> std::os::raw::c_int;
}

/// Returns freed heap pages to the OS and restarts the peak-RSS count
/// from the current resident set, so the timed phase's peak does not
/// depend on how the allocator happened to recycle set-up memory.
fn restart_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: `malloc_trim` takes no pointers and only releases free
    // memory the allocator holds; it is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
    // Writing 5 resets this process's `VmHWM` to its current RSS.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cumulative CPU time the hypervisor gave to other guests (`steal` of
/// `/proc/stat`, in clock ticks), or 0 where it is not reported.
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// Length of one steal window.
const WINDOW_S: f64 = 0.02;

/// Length of one segment of the timed loop.
const SEGMENT_S: f64 = 1.0;

/// Fewest clean samples a segment's statistics come from: ten beyond the
/// p90 needs 100.
const MIN_SEGMENT_SAMPLES: usize = 100;

/// The timing statistics of one segment.
struct SegmentStats {
    p50: f64,
    p90: f64,
    rate: f64,
}

/// Op samples of the timed loop, in one-second segments of 20 ms windows.
///
/// A window during which the hypervisor stole CPU time from this guest is
/// set aside: with one node per vCPU, a descheduled vCPU stalls every op
/// until it runs again, and that delay belongs to the host, not to the
/// program. Each segment reports its own median, p90 and rate, and the
/// run reports the median of each over its segments, so a host
/// disturbance covering a minority of the run does not move the result.
#[derive(Default)]
struct Segments {
    kept: Vec<f64>,
    stolen: Vec<f64>,
    open: Vec<f64>,
    window: Option<(Instant, u64)>,
    segment: Option<Instant>,
    stats: Vec<SegmentStats>,
    clean: usize,
    total: usize,
}

impl Segments {
    fn push(&mut self, s: f64) {
        let now = Instant::now();
        let segment = *self.segment.get_or_insert(now);
        let (window, _) = *self.window.get_or_insert_with(|| (now, steal_ticks()));
        self.open.push(s);
        if window.elapsed().as_secs_f64() >= WINDOW_S {
            self.close_window();
            if segment.elapsed().as_secs_f64() >= SEGMENT_S {
                self.close_segment();
            }
        }
    }

    fn close_window(&mut self) {
        if let Some((_, steal0)) = self.window.take() {
            let clean = steal_ticks() == steal0;
            self.total += self.open.len();
            if clean {
                self.clean += self.open.len();
                self.kept.append(&mut self.open);
            } else {
                self.stolen.append(&mut self.open);
            }
        }
    }

    /// Closes the segment; one with too few clean samples falls back to
    /// all of its samples.
    fn close_segment(&mut self) {
        self.segment = None;
        if self.kept.len() < MIN_SEGMENT_SAMPLES {
            self.kept.append(&mut self.stolen);
        }
        if self.kept.len() >= MIN_SEGMENT_SAMPLES || self.stats.is_empty() {
            self.stats.push(SegmentStats {
                p50: median(&self.kept),
                p90: percentile(&self.kept, 0.9),
                rate: ratio(self.kept.len() as f64, self.kept.iter().sum()),
            });
        }
        self.kept.clear();
        self.stolen.clear();
    }

    fn finish(&mut self) {
        self.close_window();
        self.close_segment();
    }

    fn median_of(&self, f: fn(&SegmentStats) -> f64) -> f64 {
        median(&self.stats.iter().map(f).collect::<Vec<_>>())
    }
}

/// Minimum and maximum cold set-ups per run, and the set-up seconds after
/// which no more are started once the minimum is met.
const SETUP_REPS: (usize, usize) = (5, 101);
const SETUP_BUDGET_S: f64 = 1.0;

/// Runs cold set-ups — plan cache cleared before each — until the budget
/// is spent; returns them all. The workload stays set up by the last one.
fn setups(w: &mut dyn Workload) -> Result<Vec<Setup>, String> {
    let mut out: Vec<Setup> = Vec::new();
    let t = Instant::now();
    while out.len() < SETUP_REPS.0
        || (out.len() < SETUP_REPS.1 && t.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        cache::clear();
        out.push(w.setup()?);
    }
    Ok(out)
}

/// One untimed pass over the corpus, so lazy state (arena buffers, page
/// mappings) is in place before timing.
fn warm_pass(w: &mut dyn Workload, c: &mut u64) -> Result<(), String> {
    for _ in 0..16 {
        w.next();
        *c += 1;
        w.run(*c)?;
        w.check(*c);
    }
    Ok(())
}

/// Fails the run if a warm workload's timed phase missed in the plan
/// cache or booted a pool.
fn guard_warm(w: &dyn Workload, misses: u64, pool0: &Arc<pool::Pool>) -> Result<(), String> {
    if !w.warm() {
        return Ok(());
    }
    if misses > 0 {
        return Err(format!(
            "warm workload saw {misses} plan-cache misses in its timed phase"
        ));
    }
    if !Arc::ptr_eq(pool0, &probe::resident_pool(P)) {
        return Err("warm workload booted a pool in its timed phase".into());
    }
    Ok(())
}

/// Runs `cfg` at full scale.
pub fn run(cfg: &Config) -> Result<Report, String> {
    let mut w = workload::make(&cfg.workload, cfg.seed, Scale::Full)
        .ok_or_else(|| format!("unknown workload `{}`", cfg.workload))?;
    if cfg.trace {
        run_traced(cfg, w.as_mut())
    } else {
        run_untraced(cfg, w.as_mut())
    }
}

/// The end-to-end run: tracing off, every op timed and checked.
pub fn run_untraced(cfg: &Config, w: &mut dyn Workload) -> Result<Report, String> {
    probe::resident_pool(P);
    let setups = setups(w)?;
    let setup_failed: u64 = setups.iter().map(|s| s.failed).sum();
    let mut c = 0u64;
    warm_pass(w, &mut c)?;
    restart_peak_rss();
    let pool0 = probe::resident_pool(P);
    let misses0 = cache::stats().misses;
    let mut segments = Segments::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        w.next();
        c += 1;
        let t = Instant::now();
        w.run(c)?;
        segments.push(t.elapsed().as_secs_f64());
        attempted += 1;
        if !w.check(c) {
            failed += 1;
        }
    }
    segments.finish();
    let peak_rss = peak_rss_mb();
    guard_warm(w, cache::stats().misses - misses0, &pool0)?;
    eprintln!(
        "ledger {}: {} ops in {} segments, {:.1}% in windows without steal",
        cfg.workload,
        attempted,
        segments.stats.len(),
        100.0 * ratio(segments.clean as f64, segments.total as f64)
    );
    let setup_s: Vec<f64> = setups.iter().map(|s| s.secs).collect();
    let values = [
        segments.median_of(|s| s.p50) * 1e6,
        segments.median_of(|s| s.p90) * 1e6,
        segments.median_of(|s| s.rate),
        ratio((attempted - failed) as f64, attempted as f64),
        median(&setup_s),
        peak_rss,
    ];
    Ok(Report {
        correct: failed == 0 && setup_failed == 0,
        attempted,
        failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| (name, value, unit))
            .collect(),
    })
}

/// Running totals of the traced ops.
#[derive(Default)]
struct Traced {
    ops: u64,
    op_ns: Vec<f64>,
    children_ns: Vec<f64>,
    bytes: u64,
    ws_bytes: u64,
    sends: u64,
    send_blocks: u64,
    apply_segments: u64,
    blocked: u64,
    lookups: u64,
    misses: u64,
    evictions: u64,
    missed: HashSet<u32>,
    miss_cache_ns: Vec<f64>,
    hit_cache_ns: Vec<f64>,
    counted: u64,
    dispatches: u64,
    decisions: u64,
    packs: u64,
    epochs: u64,
    moved: u64,
}

/// Every this many traced ops, one more op runs with the program's trace
/// counters on; path facts (dispatches, epochs, pack calls) come from
/// those ops.
const COUNT_EVERY: u64 = 8;

/// Seconds between interleaved probe samples.
const SPMD_PROBE_EVERY_S: f64 = 0.02;
const HOST_PROBE_EVERY_S: f64 = 0.25;

/// The traced run: untraced and traced ops alternate, with probes
/// interleaved, and every layer metric is derived from the spans.
pub fn run_traced(cfg: &Config, w: &mut dyn Workload) -> Result<Report, String> {
    let t = Instant::now();
    let pool0 = probe::resident_pool(P);
    let boot_ms = t.elapsed().as_secs_f64() * 1e3;
    cache::clear();
    let setup = w.setup()?;
    let mut c = 0u64;
    warm_pass(w, &mut c)?;
    let mut host = Host::default();
    let bulk = Bulk::default();
    let mut host_samples: Vec<HostSample> = vec![host.sample()];
    let (mut dispatch, mut pingpong, mut bulk_gbps) = (Vec::new(), Vec::new(), Vec::new());
    let mut led = Ledger::default();
    let mut replays = Ledger::default();
    let mut counts = ReplayCounts::default();
    let mut tr = Traced::default();
    let mut untraced: Vec<f64> = Vec::new();
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let misses0 = cache::stats().misses;
    let t0 = Instant::now();
    let (mut next_spmd, mut next_host) = (0.0, HOST_PROBE_EVERY_S);
    while t0.elapsed().as_secs_f64() < cfg.seconds {
        w.next();
        c += 1;
        let t = Instant::now();
        w.run(c)?;
        untraced.push(t.elapsed().as_secs_f64());
        attempted += 1;
        failed += u64::from(!w.check(c));

        w.next();
        c += 1;
        led.op = tr.ops as u32;
        let s0 = cache::stats();
        let op = led.begin("op");
        let facts = w.run_traced(c, &mut led);
        led.end(op);
        let s1 = cache::stats();
        let facts = facts?;
        attempted += 1;
        failed += u64::from(!w.check(c));

        let span = led.spans[op as usize];
        let children = led.children_ns(op);
        tr.op_ns.push(span.dur_ns() as f64);
        tr.children_ns.push(children as f64);
        let cache_ns: u64 = led.spans[op as usize + 1..]
            .iter()
            .filter(|s| s.parent == op && s.name == "spmd.cache")
            .map(|s| s.dur_ns())
            .sum();
        if s1.misses > s0.misses {
            tr.missed.insert(led.op);
            tr.miss_cache_ns.push(cache_ns as f64);
        } else {
            tr.hit_cache_ns.push(cache_ns as f64);
        }
        tr.lookups += (s1.hits + s1.misses) - (s0.hits + s0.misses);
        tr.misses += s1.misses - s0.misses;
        tr.evictions += s1.evictions - s0.evictions;
        tr.bytes += facts.bytes;
        tr.ws_bytes += facts.ws_bytes;
        tr.sends += facts.census.sends as u64;
        tr.send_blocks += facts.census.send_blocks as u64;
        tr.apply_segments += facts.census.apply_segments as u64;
        tr.blocked += u64::from(facts.blocked);
        tr.ops += 1;

        if tr.ops.is_multiple_of(COUNT_EVERY) {
            // A counted op: the program's own trace counters are on, which
            // changes what some layers do (locality analytics run only
            // when tracing records), so its time is not used.
            w.next();
            c += 1;
            bcag_trace::start();
            let facts = w.run_traced(c, &mut Ledger::default());
            let trace = bcag_trace::stop();
            facts?;
            attempted += 1;
            failed += u64::from(!w.check(c));
            tr.counted += 1;
            tr.dispatches += trace.span_count("pool.dispatch") as u64;
            tr.decisions += trace.counter_total("tune_decision_runs")
                + trace.counter_total("tune_decision_per_element");
            tr.packs += (trace.span_count("spmd.pack") + trace.span_count("spmd.unpack")) as u64;
            tr.epochs += trace.counter_total("fused_epochs");
            tr.moved += trace.counter_total("elements_moved");
        }

        replays.op = led.op;
        w.replay(&mut replays, &mut counts);

        let now = t0.elapsed().as_secs_f64();
        if now >= next_spmd {
            for _ in 0..4 {
                dispatch.push(probe::dispatch_s(&pool0));
            }
            pingpong.push(probe::pingpong_s(&pool0));
            bulk_gbps.push(bulk.sample(&pool0));
            next_spmd = now + SPMD_PROBE_EVERY_S;
        }
        if now >= next_host {
            host_samples.push(host.sample());
            next_host = now + HOST_PROBE_EVERY_S;
        }
    }
    guard_warm(w, cache::stats().misses - misses0, &pool0)?;
    let ledger_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let _ = led.write_tsv(&ledger_dir.join(format!("{}.spans.tsv", cfg.workload)));
    let _ = replays.write_tsv(&ledger_dir.join(format!("{}.replays.tsv", cfg.workload)));

    let hs = |f: fn(&HostSample) -> f64| median(&host_samples.iter().map(f).collect::<Vec<_>>());
    let memcpy_l2 = hs(|h| h.memcpy_l2);
    let memcpy_big = hs(|h| h.memcpy_big);
    let ops = tr.ops.max(1) as f64;
    let counted = tr.counted.max(1) as f64;
    let op_total: f64 = tr.op_ns.iter().sum();
    let per_op = |name: &str| led.durations(name).iter().sum::<f64>() / ops;
    let share = |name: &str| ratio(led.durations(name).iter().sum(), op_total);
    let med_us = |l: &Ledger, name: &str| median(&l.durations(name)) / 1e3;
    let replay_sum = |name: &str, only_missed: bool| -> f64 {
        replays
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent == ROOT)
            .filter(|s| !only_missed || tr.missed.contains(&s.op))
            .map(|s| s.dur_ns() as f64)
            .sum()
    };
    let miss_total: f64 = tr.miss_cache_ns.iter().sum();
    let plans_total = replay_sum("spmd.cache.plans_build", false);
    let scripts = cfg.workload == "scripts";
    let untraced_p50_us = median(&untraced) * 1e6;
    let traced_p50_us = median(&tr.op_ns) / 1e3;
    // One pass over the spans: a run holds hundreds of thousands of them.
    let mut exec_per_op = vec![0.0; tr.ops as usize];
    for s in led.spans.iter().filter(|s| s.name == "spmd.fuse.exec") {
        if let Some(v) = exec_per_op.get_mut(s.op as usize) {
            *v += s.dur_ns() as f64;
        }
    }
    let exec_us = median(&exec_per_op) / 1e3;
    let exec_gbps = ratio(
        tr.bytes as f64,
        led.durations("spmd.fuse.exec").iter().sum(),
    );
    let roofline = if tr.ws_bytes as f64 / ops <= tune::l2_bytes() as f64 {
        memcpy_l2
    } else {
        memcpy_big
    };
    let dispatch_us = median(&dispatch) * 1e6;
    let bulk_med = median(&bulk_gbps);
    let op_mean_us = mean(&tr.op_ns) / 1e3;
    let layers_us = mean(&tr.children_ns) / 1e3;
    let v: Vec<f64> = vec![
        memcpy_l2,
        memcpy_big,
        hs(|h| h.stride64),
        hs(|h| h.calib_ns),
        per_op("hpf.parse") / 1e3,
        share("hpf.parse"),
        if scripts { untraced_p50_us } else { 0.0 },
        if scripts {
            untraced_p50_us - traced_p50_us
        } else {
            0.0
        },
        share("rt.interp"),
        if scripts {
            per_op("spmd.darray") / 1e3
        } else {
            median(&setup.alloc_secs) * 1e6
        },
        share("spmd.darray"),
        med_us(&replays, "core.lattice_alg"),
        ratio(replay_sum("core.lattice_alg", false), counts.entries as f64),
        ratio(replay_sum("core.lattice_alg", false), plans_total),
        med_us(&replays, "core.runs"),
        ratio(counts.segments as f64, counts.plans as f64),
        ratio(replay_sum("core.runs", false), plans_total),
        med_us(&replays, "core.locality"),
        median(&tr.hit_cache_ns),
        median(&tr.miss_cache_ns) / 1e3,
        med_us(&replays, "spmd.cache.plans_build"),
        tr.lookups as f64 / ops,
        tr.misses as f64 / ops,
        tr.evictions as f64 / ops,
        share("spmd.cache"),
        ratio(replay_sum("spmd.cache.plans_build", true), miss_total),
        ratio(replay_sum("spmd.comm.build", true), miss_total),
        ratio(replay_sum("spmd.fuse.compile", true), miss_total),
        med_us(&replays, "spmd.comm.build"),
        tr.moved as f64 / counted,
        per_op("spmd.comm.redistribute") / 1e3,
        share("spmd.comm.redistribute"),
        med_us(&replays, "spmd.fuse.compile"),
        exec_us,
        exec_gbps,
        ratio(exec_gbps, roofline),
        tr.sends as f64 / ops,
        tr.send_blocks as f64 / ops,
        tr.apply_segments as f64 / ops,
        tr.blocked as f64 / ops,
        share("spmd.fuse.exec"),
        boot_ms,
        dispatch_us,
        ratio(dispatch_us * tr.dispatches as f64 / counted, exec_us),
        median(&pingpong) * 1e6,
        bulk_med,
        ratio(bulk_med, memcpy_l2),
        tr.dispatches as f64 / counted,
        tr.decisions as f64 / counted,
        tr.packs as f64 / counted,
        tr.epochs as f64 / counted,
        op_mean_us,
        layers_us,
        op_mean_us - layers_us,
        ratio(op_mean_us - layers_us, op_mean_us),
        ratio(traced_p50_us, untraced_p50_us) - 1.0,
        tr.ops as f64,
        untraced.len() as f64,
        tr.counted as f64,
    ];
    let metrics = PER_LAYER
        .iter()
        .zip(v)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let report = Report {
        correct: failed == 0 && setup.failed == 0,
        attempted,
        failed,
        metrics,
    };
    eprintln!(
        "ledger {}: traced op mean {:.2} us = layers {:.2} us + residue {:.2} us; \
         transport {}, {:.2} lookups/op, {:.2} dispatches/op",
        cfg.workload,
        report.value("closure.op_us"),
        report.value("closure.layers_us"),
        report.value("closure.residue_us"),
        transport::active_transport().name(),
        report.value("spmd.cache.lookups_per_op"),
        report.value("path.dispatches_per_op"),
    );
    Ok(report)
}

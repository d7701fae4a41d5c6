//! Disabled-tracing overhead budget.
//!
//! The instrumentation in `bcag-core` must be free when tracing is off: the
//! fast path is one relaxed atomic load per site. This test holds that to a
//! budget instead of trusting it: it measures the per-call cost of the
//! disabled primitives, multiplies by a generous upper bound on the number
//! of instrumentation hits in one `build_all`, and asserts the product is
//! under 2% of the measured `build_all` time itself.

use std::time::Instant;

use bcag_core::lattice_alg::build_all;
use bcag_core::params::Problem;

/// Wall time of one call of `f`, in nanoseconds.
fn time_ns(f: &mut dyn FnMut()) -> u64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_nanos() as u64
}

/// Median of each arm's wall time over `rounds` interleaved rounds: each
/// round times every arm once, in order, so drift in the host's speed
/// lands on all arms alike instead of on whichever arm ran during it.
fn interleaved_medians_ns(rounds: usize, arms: &mut [&mut dyn FnMut()]) -> Vec<u64> {
    let mut samples: Vec<Vec<u64>> = vec![Vec::with_capacity(rounds); arms.len()];
    for _ in 0..rounds {
        for (arm, out) in arms.iter_mut().zip(&mut samples) {
            out.push(time_ns(*arm));
        }
    }
    samples
        .into_iter()
        .map(|mut s| {
            s.sort_unstable();
            s[s.len() / 2]
        })
        .collect()
}

#[test]
fn disabled_instrumentation_overhead_under_two_percent() {
    // The paper's iPSC/860 scale with a large block: long enough tables
    // that the timing is stable, small enough to keep the test fast.
    let problem = Problem::new(32, 512, 4, 9).unwrap();

    // Count span hits once with tracing on; counter sites are bounded
    // analytically (every build touches a handful of `count` calls).
    let (patterns, trace) = bcag_trace::capture(|| build_all(&problem).unwrap());
    assert_eq!(patterns.len(), 32);
    let span_hits: usize = trace.lanes.iter().map(|l| l.events.len()).sum();
    assert!(span_hits >= 33, "expected per-proc spans, got {span_hits}");
    // Generous bound: every span plus 20 counter calls per processor.
    let hits = (span_hits + 20 * 33) as u64;

    // Per-call cost of the disabled primitives, sampled in the same
    // rounds as the workload itself: instrumented, tracing disabled
    // (`capture` stopped the session above). The histogram sites added
    // for percentile telemetry share the contract: record / timed_span /
    // gauge are one relaxed load when off.
    assert!(!bcag_trace::enabled());
    let batch = 10_000u64;
    let medians = interleaved_medians_ns(
        30,
        &mut [
            &mut || {
                for _ in 0..batch {
                    let _sp = bcag_trace::span("overhead.probe");
                }
            },
            &mut || {
                for _ in 0..batch {
                    bcag_trace::count("overhead_probe", 1);
                }
            },
            &mut || {
                for _ in 0..batch {
                    bcag_trace::record("overhead_probe_ns", 42);
                }
            },
            &mut || {
                for _ in 0..batch {
                    let _t = bcag_trace::timed_span("overhead_probe_ns");
                }
            },
            &mut || {
                for _ in 0..batch {
                    bcag_trace::gauge("overhead_probe_depth", 3);
                }
            },
            &mut || {
                std::hint::black_box(build_all(&problem).unwrap());
            },
        ],
    );
    let (primitives, build_ns) = (&medians[..5], medians[5]);
    let per_hit_ns = primitives
        .iter()
        .map(|ns| ns / batch)
        .max()
        .unwrap_or(0)
        .max(1);

    let overhead_ns = per_hit_ns * hits;
    let budget_ns = build_ns / 50; // 2%
    assert!(
        overhead_ns < budget_ns,
        "disabled-tracing overhead {overhead_ns}ns ({hits} hits x {per_hit_ns}ns) \
         exceeds 2% of build_all ({build_ns}ns median)"
    );

    // Absolute sanity: a disabled primitive is a few atomic loads, not a
    // lock. Allow a loose 200ns ceiling for noisy CI machines.
    assert!(
        per_hit_ns < 200,
        "disabled primitive costs {per_hit_ns}ns per call"
    );
}

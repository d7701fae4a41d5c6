//! Quick text report of the ablations A1–A6 from DESIGN.md (the Criterion
//! benches give the statistically robust version; this binary prints a
//! one-screen summary in seconds).
//!
//! Usage: `ablations [--reps N]`

use std::time::Duration;

use bcag_bench::timing::{as_micros, best_of};
use bcag_core::method::{build, Method};
use bcag_core::params::Problem;
use bcag_core::section::RegularSection;
use bcag_core::walker::Walker;
use bcag_spmd::comm::CommSchedule;

fn main() {
    let mut reps = 50usize;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--reps" => {
                reps = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--reps needs a positive integer");
                    std::process::exit(2)
                })
            }
            other => {
                eprintln!("unknown argument {other}");
                std::process::exit(2);
            }
        }
    }
    let p = 32i64;

    println!("== A1: sort choice inside the Chatterjee baseline (µs, proc 31) ==");
    println!(
        "{:>6} {:>10} | {:>10} {:>10} {:>10}",
        "k", "stride", "lattice", "cmp-sort", "radix"
    );
    for k in [64i64, 256, 512] {
        for (label, s) in [("7", 7i64), ("pk-1", p * k - 1), ("pk+1", p * k + 1)] {
            let problem = Problem::new(p, k, 0, s).unwrap();
            let t = |method: Method| -> f64 {
                as_micros(best_of(reps, || build(&problem, 31, method).unwrap()))
            };
            println!(
                "{:>6} {:>10} | {:>10.2} {:>10.2} {:>10.2}",
                k,
                label,
                t(Method::Lattice),
                t(Method::SortingComparison),
                t(Method::SortingRadix)
            );
        }
    }

    println!("\n== A2: table-free walker vs stored-table traversal (µs, 10k accesses) ==");
    println!(
        "{:>6} {:>6} | {:>12} {:>12}",
        "k", "s", "walker", "table-8(b)"
    );
    for (k, s) in [(32i64, 15i64), (256, 99)] {
        let accesses = 10_000i64;
        let u = s * accesses * p;
        let problem = Problem::new(p, k, 0, s).unwrap();
        let m = p - 1;
        let pat = build(&problem, m, Method::Lattice).unwrap();
        let walker_t = best_of(reps.min(10), || {
            let w = Walker::new(&problem, m).unwrap();
            let mut acc = 0i64;
            for a in w.up_to(u) {
                acc = acc.wrapping_add(a.local);
            }
            acc
        });
        let gaps = pat.gaps().to_vec();
        let last = pat.last_local(u).unwrap().unwrap_or(-1);
        let start = pat.start_local().unwrap_or(0);
        let table_t = best_of(reps.min(10), || {
            let mut acc = 0i64;
            let mut base = start;
            let mut i = 0usize;
            while base <= last {
                acc = acc.wrapping_add(base);
                base += gaps[i];
                i += 1;
                if i == gaps.len() {
                    i = 0;
                }
            }
            acc
        });
        println!(
            "{:>6} {:>6} | {:>12.1} {:>12.1}",
            k,
            s,
            as_micros(walker_t),
            as_micros(table_t)
        );
    }

    println!("\n== A3: effect of d = gcd(s, pk) at k=256 (µs, proc 31) ==");
    println!(
        "{:>8} {:>6} {:>8} | {:>10} {:>10}",
        "s", "d", "tbl len", "lattice", "sorting"
    );
    for s in [3i64, 4, 32, 96, 128] {
        let problem = Problem::new(p, 256, 0, s).unwrap();
        let pat = build(&problem, 31, Method::Lattice).unwrap();
        let lat = as_micros(best_of(reps, || {
            build(&problem, 31, Method::Lattice).unwrap()
        }));
        let srt = as_micros(best_of(reps, || {
            build(&problem, 31, Method::SortingAuto).unwrap()
        }));
        println!(
            "{:>8} {:>6} {:>8} | {:>10.2} {:>10.2}",
            s,
            problem.d(),
            pat.len(),
            lat,
            srt
        );
    }

    println!("\n== A5: effect of varying p at fixed k (paper: \"only minor\") ==");
    println!("{:>6} | {:>10} {:>10}", "p", "lattice", "sorting");
    for pp in [2i64, 8, 32, 128, 512] {
        let problem = Problem::new(pp, 64, 0, 7).unwrap();
        let lat = as_micros(best_of(reps, || {
            build(&problem, pp - 1, Method::Lattice).unwrap()
        }));
        let srt = as_micros(best_of(reps, || {
            build(&problem, pp - 1, Method::SortingAuto).unwrap()
        }));
        println!("{:>6} | {:>10.2} {:>10.2}", pp, lat, srt);
    }

    println!("\n== A6: enumeration schemes (µs, 10k accesses; §7 related work) ==");
    println!(
        "{:>6} {:>6} | {:>12} {:>14} {:>13}",
        "k", "s", "lattice", "virt-cyclic", "virt-block"
    );
    for (k, s) in [(32i64, 15i64), (256, 99)] {
        use bcag_core::virtual_views::{lattice_order, virtual_block, virtual_cyclic};
        let problem = Problem::new(p, k, 0, s).unwrap();
        let m = p - 1;
        let u = s * 10_000 * p;
        let r = reps.min(5);
        let lat = as_micros(best_of(r, || lattice_order(&problem, m, u).unwrap()));
        let vc = as_micros(best_of(r, || virtual_cyclic(&problem, m, u).unwrap()));
        let vb = as_micros(best_of(r, || virtual_block(&problem, m, u).unwrap()));
        println!(
            "{:>6} {:>6} | {:>12.1} {:>14.1} {:>13.1}",
            k, s, lat, vc, vb
        );
    }

    println!("\n== A4: comm schedule, period build vs lattice/CRT (µs) ==");
    println!(
        "{:>10} | {:>12} {:>12} {:>12}",
        "elements", "period", "lattice-crt", "heap bytes"
    );
    for count in [100i64, 1_000, 10_000, 100_000, 1_000_000] {
        let pp = 8i64;
        let sec_a = RegularSection::new(2, 2 + (count - 1) * 4, 4).unwrap();
        let sec_b = RegularSection::new(1, 1 + (count - 1) * 4, 4).unwrap();
        let r = reps.min(10);
        let build = || CommSchedule::build(pp, 8, &sec_a, 3, &sec_b, Method::Lattice).unwrap();
        let period: Duration = best_of(r, build);
        // The CRT construction materializes every transfer: its arm
        // stops at 10⁵ elements.
        let lattice = (count <= 100_000).then(|| {
            as_micros(best_of(r, || {
                CommSchedule::build_lattice(pp, 8, &sec_a, 3, &sec_b).unwrap()
            }))
        });
        println!(
            "{:>10} | {:>12.1} {:>12} {:>12}",
            count,
            as_micros(period),
            lattice.map_or("-".to_string(), |us| format!("{us:.1}")),
            build().heap_bytes()
        );
    }
}

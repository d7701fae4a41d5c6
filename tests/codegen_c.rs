//! The ultimate codegen check: compile the generated C node code with the
//! system C compiler, run it, and compare the addresses it touches against
//! the Rust enumeration. Skips silently when no `cc` is installed.

use std::process::Command;

use bcag::core::codegen::{emit_c, Shape};
use bcag::core::method::{build, Method};
use bcag::core::start::last_location;
use bcag::{Layout, Problem};

fn have_cc() -> bool {
    Command::new("cc")
        .arg("--version")
        .output()
        .map(|o| o.status.success())
        .unwrap_or(false)
}

/// A scratch directory that is removed when dropped, so a failing
/// assertion cleans up too.
struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let dir = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&dir).expect("tmp dir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Compiles `node_m<m>` plus a driver that prints every touched address,
/// runs it, and returns the addresses.
fn run_generated(c_code: &str, m: i64, mem_size: i64) -> Vec<i64> {
    let dir = TempDir::new(&format!("bcag_codegen_{}_{}", std::process::id(), m));
    let src_path = dir.0.join("node.c");
    let bin_path = dir.0.join("node");
    let driver = format!(
        r#"
#include <stdio.h>
#include <stdlib.h>
{c_code}
int main(void) {{
    double *A = calloc({mem_size}, sizeof(double));
    node_m{m}(A);
    for (long i = 0; i < {mem_size}; i++)
        if (A[i] != 0.0) printf("%ld\n", i);
    free(A);
    return 0;
}}
"#
    );
    std::fs::write(&src_path, driver).expect("write C source");
    let out = Command::new("cc")
        .arg("-O2")
        .arg("-o")
        .arg(&bin_path)
        .arg(&src_path)
        .output()
        .expect("cc runs");
    assert!(
        out.status.success(),
        "cc failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let run = Command::new(&bin_path).output().expect("binary runs");
    assert!(run.status.success());
    String::from_utf8_lossy(&run.stdout)
        .lines()
        .map(|l| l.trim().parse().expect("address"))
        .collect()
}

#[test]
fn generated_c_touches_exactly_the_enumerated_addresses() {
    if !have_cc() {
        eprintln!("skipping: no C compiler");
        return;
    }
    for (p, k, l, s, u) in [
        (4i64, 8i64, 4i64, 9i64, 301i64),
        (3, 4, 0, 7, 200),
        (2, 16, 5, 3, 300),
        (4, 8, 0, 33, 1500),
    ] {
        let pr = Problem::new(p, k, l, s).unwrap();
        let lay = Layout::new(&pr);
        for m in 0..p {
            let pat = build(&pr, m, Method::Lattice).unwrap();
            if pat.is_empty() {
                continue;
            }
            let Some(last_g) = last_location(&pr, m, u).unwrap() else {
                continue;
            };
            let mem_size = lay.local_addr(last_g) + 1;
            let expect = pat.locals_to(u);
            for shape in [
                Shape::ModLoop,
                Shape::BranchLoop,
                Shape::SplitLoop,
                Shape::TwoTableLoop,
            ] {
                let code = emit_c(&pr, m, u, &pat, shape, "1.0").unwrap();
                let touched = run_generated(&code, m, mem_size);
                assert_eq!(
                    touched, expect,
                    "shape {shape:?} p={p} k={k} l={l} s={s} u={u} m={m}"
                );
            }
        }
    }
}

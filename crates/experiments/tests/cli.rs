//! The `wavm3-experiments` binary's contract: the first argument selects
//! a target, and a missing or unknown target or a bad flag exits 2. Only
//! targets that run no campaign are started here; CI runs every target.

use std::process::{Command, Output};

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wavm3-experiments"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("the binary starts")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn table2_prints_the_table_and_exits_0() {
    let out = run(&["table2"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        wavm3_experiments::tables::table2()
    );
}

#[test]
fn a_missing_or_unknown_target_exits_2_and_lists_the_targets() {
    for args in [&[][..], &["table8"][..]] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = stderr(&out);
        for target in ["table1", "fig7", "reproduce_all", "campaign", "regress"] {
            assert!(
                err.contains(&format!("\n  {target} ")),
                "{args:?} does not list {target}: {err}"
            );
        }
    }
}

#[test]
fn a_bad_flag_exits_2() {
    let out = run(&["table1", "--bogus"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("unknown flag --bogus"));
}

#[test]
fn regress_requires_a_current_snapshot() {
    let out = run(&["regress", "--baseline", "../../BENCH_baseline.json"]);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("--current is required"));
}

#[test]
fn the_crate_doc_lists_every_target_that_help_lists() {
    let out = run(&["--help"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    let help = String::from_utf8(out.stdout).unwrap();
    let doc = include_str!("../src/lib.rs");
    let rows: Vec<&str> = help.lines().filter_map(|l| l.strip_prefix("  ")).collect();
    assert_eq!(rows.len(), 24, "{help}");
    for row in rows {
        let (name, about) = row.split_once(' ').unwrap();
        let line = format!("//! | `{name}` | {} |", about.trim());
        assert!(doc.contains(&line), "the crate doc lacks {line}");
    }
}

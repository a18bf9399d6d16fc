//! Diffs two machine-readable benchmark reports (`BENCH_*.json`).
//!
//! `bench_diff BASELINE CURRENT`
//!
//! The report format puts one metric per line, so the diff is
//! line-by-line with no JSON parser: the `date` line is exempt (reports
//! from different days still match), and every other line (every
//! counter, key and bracket) must match byte-for-byte — all of them are
//! deterministic.
//!
//! Exit codes: 0 clean, 1 mismatch, 2 usage/IO error.

use std::process::exit;

/// Extracts `(key, value)` from a `"key": "value"` line, if it is one.
fn scalar_line(line: &str) -> Option<(&str, &str)> {
    let t = line.trim();
    let rest = t.strip_prefix('"')?;
    let (key, rest) = rest.split_once("\": ")?;
    let v = rest.strip_prefix('"')?;
    let v = v.strip_suffix(',').unwrap_or(v);
    let v = v.strip_suffix('"')?;
    Some((key, v))
}

fn main() {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = paths.iter().find(|a| a.starts_with("--")) {
        eprintln!("unknown flag {flag}");
        exit(2);
    }
    if paths.len() != 2 {
        eprintln!("usage: bench_diff BASELINE CURRENT");
        exit(2);
    }
    let read = |p: &str| {
        std::fs::read_to_string(p).unwrap_or_else(|e| {
            eprintln!("cannot read {p}: {e}");
            exit(2);
        })
    };
    let baseline = read(&paths[0]);
    let current = read(&paths[1]);

    let (bl, cl): (Vec<&str>, Vec<&str>) = (baseline.lines().collect(), current.lines().collect());
    if bl.len() != cl.len() {
        eprintln!(
            "FAIL: reports have different shapes: {} has {} lines, {} has {}",
            paths[0],
            bl.len(),
            paths[1],
            cl.len()
        );
        exit(1);
    }

    let mut mismatches = 0u32;
    for (n, (b, c)) in bl.iter().zip(&cl).enumerate() {
        let dates =
            matches!((scalar_line(b), scalar_line(c)), (Some(("date", _)), Some(("date", _))));
        if b != c && !dates {
            mismatches += 1;
            eprintln!("FAIL line {}:\n  baseline: {b}\n  current:  {c}", n + 1);
        }
    }

    println!("compared {} lines: {mismatches} counter mismatches", bl.len());
    if mismatches > 0 {
        exit(1);
    }
}

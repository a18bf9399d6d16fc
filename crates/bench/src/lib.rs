//! # mc-bench — the experiment harness
//!
//! Reproduces every figure and every evaluation claim of the paper as a
//! parameterized experiment producing labeled metric rows (virtual time,
//! message counts, bytes, stalls). The same runners back:
//!
//! * the `report` binary (`cargo run -p mc-bench --bin report`), which
//!   regenerates the tables recorded in `EXPERIMENTS.md`;
//! * `report --json` and `bench_diff`, which pin every number against a
//!   committed baseline.
//!
//! Every number here is exact: virtual time, message and byte counts,
//! schedule counts. Wall-clock costs are measured by `mcbench`
//! (`benchmark/`).
//!
//! Experiment index (see `DESIGN.md` §5): E1 protocol access costs,
//! C1/F2/F3 solver comparison, C2/F5 Cholesky variants, C3 asynchronous
//! relaxation, E2 lock propagation variants, E3 barrier scaling, F4 FDTD
//! scaling.

#![warn(missing_docs)]

use std::fmt::Write as _;

use mixed_consistency::{Metrics, SimTime};

pub mod experiments;

/// One labeled row of an experiment table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Experiment-specific key columns (already formatted).
    pub keys: Vec<(&'static str, String)>,
    /// Metric columns.
    pub vals: Vec<(&'static str, String)>,
}

impl Row {
    /// Builds a row from key and value columns.
    pub fn new(keys: Vec<(&'static str, String)>, vals: Vec<(&'static str, String)>) -> Self {
        Row { keys, vals }
    }
}

/// A titled experiment table, renderable as Markdown.
#[derive(Clone, Debug)]
pub struct Table {
    /// Experiment id (e.g. "C1").
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// The paper's corresponding claim or figure.
    pub paper_ref: &'static str,
    /// Data rows.
    pub rows: Vec<Row>,
}

impl Table {
    /// Renders the table as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "### {} — {}", self.id, self.title);
        let _ = writeln!(s, "*Paper:* {}\n", self.paper_ref);
        if self.rows.is_empty() {
            let _ = writeln!(s, "(no rows)");
            return s;
        }
        let header: Vec<&str> = self.rows[0]
            .keys
            .iter()
            .map(|(k, _)| *k)
            .chain(self.rows[0].vals.iter().map(|(k, _)| *k))
            .collect();
        let _ = writeln!(s, "| {} |", header.join(" | "));
        let _ = writeln!(s, "|{}|", header.iter().map(|_| "---").collect::<Vec<_>>().join("|"));
        for r in &self.rows {
            let cells: Vec<&str> = r
                .keys
                .iter()
                .map(|(_, v)| v.as_str())
                .chain(r.vals.iter().map(|(_, v)| v.as_str()))
                .collect();
            let _ = writeln!(s, "| {} |", cells.join(" | "));
        }
        s
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the full machine-readable report: experiment id → titled row
/// list, each row's metrics under `counters`. Every scalar is a string
/// and every metric sits on its own line, so two reports can be compared
/// line-by-line without a JSON parser (`bench_diff` does exactly that;
/// the `date` line is exempt).
pub fn report_json(date: &str, tables: &[Table]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"mc-bench/1\",");
    let _ = writeln!(s, "  \"date\": \"{}\",", json_escape(date));
    let _ =
        writeln!(s, "  \"command\": \"cargo run -p mc-bench --bin report --release -- --json\",");
    s.push_str("  \"experiments\": {\n");
    for (ti, t) in tables.iter().enumerate() {
        let _ = writeln!(s, "    \"{}\": {{", json_escape(t.id));
        let _ = writeln!(s, "      \"title\": \"{}\",", json_escape(t.title));
        let _ = writeln!(s, "      \"paper\": \"{}\",", json_escape(t.paper_ref));
        s.push_str("      \"rows\": [\n");
        for (ri, r) in t.rows.iter().enumerate() {
            let key: Vec<String> = r.keys.iter().map(|(k, v)| format!("{k}={v}")).collect();
            s.push_str("        {\n");
            let _ = writeln!(s, "          \"key\": \"{}\",", json_escape(&key.join(" ")));
            s.push_str("          \"counters\": {\n");
            for (ci, (k, v)) in r.vals.iter().enumerate() {
                let comma = if ci + 1 < r.vals.len() { "," } else { "" };
                let _ = writeln!(
                    s,
                    "            \"{}\": \"{}\"{comma}",
                    json_escape(k),
                    json_escape(v)
                );
            }
            s.push_str("          }\n");
            let comma = if ri + 1 < t.rows.len() { "," } else { "" };
            let _ = writeln!(s, "        }}{comma}");
        }
        s.push_str("      ]\n");
        let comma = if ti + 1 < tables.len() { "," } else { "" };
        let _ = writeln!(s, "    }}{comma}");
    }
    s.push_str("  }\n}\n");
    s
}

/// Formats `secs` seconds since the Unix epoch as a UTC `YYYY-MM-DD`
/// date (Howard Hinnant's `civil_from_days` algorithm — no external
/// date crate needed).
pub fn utc_date(secs: u64) -> String {
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097) as u64;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe as i64 + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Formats the standard metric columns from a [`Metrics`].
pub fn metric_cols(m: &Metrics) -> Vec<(&'static str, String)> {
    vec![
        ("virtual time", m.finish_time.to_string()),
        ("messages", m.messages.to_string()),
        ("kbytes", format!("{:.1}", m.bytes as f64 / 1024.0)),
        ("stall", m.stall_time.to_string()),
    ]
}

/// Formats a `SimTime` ratio as `x.xx×`.
pub fn speedup(base: SimTime, other: SimTime) -> String {
    if other.as_nanos() == 0 {
        return "∞".into();
    }
    format!("{:.2}×", base.as_nanos() as f64 / other.as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let t = Table {
            id: "X0",
            title: "demo",
            paper_ref: "none",
            rows: vec![Row::new(vec![("mode", "pram".into())], vec![("messages", "3".into())])],
        };
        let md = t.to_markdown();
        assert!(md.contains("| mode | messages |"));
        assert!(md.contains("| pram | 3 |"));
        assert!(md.contains("### X0"));
    }

    #[test]
    fn empty_table() {
        let t = Table { id: "X1", title: "t", paper_ref: "p", rows: vec![] };
        assert!(t.to_markdown().contains("(no rows)"));
    }

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup(SimTime::from_nanos(200), SimTime::from_nanos(100)), "2.00×");
        assert_eq!(speedup(SimTime::from_nanos(1), SimTime::ZERO), "∞");
    }

    #[test]
    fn utc_date_handles_epoch_and_leap_years() {
        assert_eq!(utc_date(0), "1970-01-01");
        assert_eq!(utc_date(86_399), "1970-01-01");
        assert_eq!(utc_date(86_400), "1970-01-02");
        // 2000-02-29 00:00:00 UTC — a century leap day.
        assert_eq!(utc_date(951_782_400), "2000-02-29");
    }

    #[test]
    fn report_json_is_line_oriented_and_deterministic() {
        let table = || Table {
            id: "E1",
            title: "demo \"quoted\"",
            paper_ref: "none",
            rows: vec![Row::new(
                vec![("n", "4".into()), ("mode", "mixed".into())],
                vec![("messages", "3".into()), ("virtual time", "1.5ms".into())],
            )],
        };
        let json = report_json("2026-08-05", &[table()]);
        assert!(json.contains("\"key\": \"n=4 mode=mixed\""));
        assert!(json.contains("\"date\": \"2026-08-05\""));
        assert!(json.contains("\"title\": \"demo \\\"quoted\\\"\""));
        // Every metric sits alone on its own line, inside `counters`.
        let lines: Vec<&str> = json.lines().map(str::trim).collect();
        let counters = lines.iter().position(|l| *l == "\"counters\": {").unwrap();
        assert_eq!(lines[counters + 1], "\"messages\": \"3\",");
        assert_eq!(lines[counters + 2], "\"virtual time\": \"1.5ms\"");
        // Deterministic: same input, same bytes.
        assert_eq!(json, report_json("2026-08-05", &[table()]));
    }
}

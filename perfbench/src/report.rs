//! Metric declarations, name validation and the result line.
//!
//! The two metric tables below are the benchmark's contract with
//! `BENCHMARK.json`: a test checks that the file declares exactly these
//! names and units, and a run fails rather than print a result line
//! that misses one.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("edit_p50_us", "us"),
    ("edit_p99_us", "us"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics, printed by every traced run (`--trace 1`).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.roundtrip_p50_us", "us"),
    ("server.transport_self_p50_us", "us"),
    ("server.busy_rejections", "count"),
    ("server.protocol_errors", "count"),
    ("proto.encode_p50_ns", "ns"),
    ("proto.decode_p50_ns", "ns"),
    ("proto.bytes_per_op", "B"),
    ("service.handle_p50_us", "us"),
    ("service.handle_busy_s", "s"),
    ("service.self_p50_us", "us"),
    ("service.errors", "count"),
    ("shard.fault_ins", "count"),
    ("shard.evictions", "count"),
    ("shard.checkpoints", "count"),
    ("shard.resident_hit_ratio", "ratio"),
    ("shard.recovery_s", "s"),
    ("wal.append_p50_us", "us"),
    ("wal.append_p99_us", "us"),
    ("wal.records", "count"),
    ("wal.bytes_per_user_byte", "B/B"),
    ("dynamic.edit_p50_us", "us"),
    ("dynamic.edit_busy_s", "s"),
    ("dynamic.snapshot_p50_us", "us"),
    ("dynamic.snapshot_busy_s", "s"),
    ("dynamic.read_p50_us", "us"),
    ("tally.kemeny_p50_us", "us"),
    ("tally.kemeny_busy_s", "s"),
    ("prepared.prepare_p50_us", "us"),
    ("prepared.kprof_p50_us", "us"),
    ("prepared.fprof_p50_us", "us"),
    ("prepared.khaus_p50_us", "us"),
    ("prepared.fhaus_p50_us", "us"),
    ("prepared.busy_s", "s"),
    ("weighted.footrule_p50_us", "us"),
    ("weighted.top_diff_p50_us", "us"),
    ("minmax.aggregate_p50_us", "us"),
    ("minmax.aggregate_busy_s", "s"),
    ("trace.overhead_pct", "%"),
];

/// A metric name: 1 to 64 letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// A unit: 1 to 16 letters, digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok)
}

/// One measured value. `samples` is the count a percentile or mean was
/// taken over (`Some(0)` marks a layer this workload never calls).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// Declared unit.
    pub unit: &'static str,
    /// The value as measured, unrounded.
    pub value: f64,
    /// Sample count behind the value, where it is a statistic.
    pub samples: Option<usize>,
}

/// The outcome of one run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Ops sent in the timed window(s).
    pub attempted: u64,
    /// Ops answered with a typed error, with `Busy`, or not at all.
    pub failed: u64,
    /// The declared metrics of the run's mode, in declaration order.
    pub metrics: Vec<Metric>,
    /// Further numbers printed for people, never in the result line.
    pub notes: Vec<String>,
    /// Output-check failures, one line each.
    pub mismatches: Vec<String>,
}

/// Looks up a declared metric's unit.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Builds a declared metric.
///
/// # Panics
/// On an undeclared name — a bug in this benchmark.
pub fn metric(name: &'static str, value: f64, samples: Option<usize>) -> Metric {
    let unit = unit_of(name).unwrap_or_else(|| panic!("undeclared metric {name}"));
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

impl Outcome {
    /// Checks the metrics against a declaration table: every declared
    /// name exactly once, nothing else, every value finite.
    pub fn check_against(&self, decl: &[(&str, &str)]) -> Result<(), String> {
        for (name, unit) in decl {
            let hits: Vec<&Metric> = self.metrics.iter().filter(|m| m.name == *name).collect();
            match hits.as_slice() {
                [m] if m.unit == *unit && m.value.is_finite() => {}
                [m] => return Err(format!("metric {name}: bad unit or value {m:?}")),
                [] => return Err(format!("metric {name} was not measured")),
                _ => return Err(format!("metric {name} reported twice")),
            }
        }
        if let Some(m) = self
            .metrics
            .iter()
            .find(|m| !decl.iter().any(|(n, _)| *n == m.name))
        {
            return Err(format!("metric {} is not declared for this mode", m.name));
        }
        Ok(())
    }

    /// The human-readable lines: one per metric with unit and sample
    /// count, then the notes.
    pub fn human_lines(&self, workload: &str) -> Vec<String> {
        let mut out: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let n = match m.samples {
                    Some(0) => " (n=0: not on this workload's path)".to_owned(),
                    Some(n) => format!(" (n={n})"),
                    None => String::new(),
                };
                format!("{workload} {} = {} {}{n}", m.name, m.value, m.unit)
            })
            .collect();
        out.extend(self.notes.iter().map(|s| format!("{workload} {s}")));
        out
    }

    /// The final result line: one JSON object with `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            debug_assert!(valid_name(m.name) && valid_unit(m.unit));
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that reads back as the
            // same f64, always with a decimal point or exponent.
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_alphabet() {
        assert!(valid_name("read_p50_us"));
        assert!(valid_name("server.transport_self_p50_us"));
        assert!(valid_name("a-b.c_d9"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name(".lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name("percent%"));
        assert!(!valid_name("ünï"));
        assert!(valid_name(&"x".repeat(64)));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("B/B"));
        assert!(!valid_unit("µs") && !valid_unit("") && !valid_unit(&"s".repeat(17)));
    }

    #[test]
    fn declarations_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert_eq!(all.iter().filter(|n| *n == name).count(), 1, "{name}");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    #[test]
    fn result_line_is_json_with_full_precision() {
        let out = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                metric("setup_s", 0.123456789, None),
                metric("ops_per_s", 2.0, None),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            out.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.123456789, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
        assert!(
            out.check_against(END_TO_END).is_err(),
            "missing metrics must fail"
        );
    }
}

//! Shared helpers for the benchmark harness.
//!
//! The `experiments` binary (see `src/bin/experiments.rs`) regenerates every
//! table and figure of the paper's evaluation; [`suite`] and [`gate`] are the
//! `esd bench` suite and its regression gate against `bench/baseline.json`.

#![warn(missing_docs)]

pub mod gate;
pub mod report;
pub mod suite;

use std::time::{Duration, Instant};

/// Times a closure once and returns `(result, elapsed)`.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Wall-time distribution over the repetitions of one benchmark, from
/// [`time_stats`]. Each repetition is timed individually, so outliers (a
/// cold cache, a page-fault storm) show up in `max` instead of silently
/// inflating the mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeStats {
    /// Number of repetitions measured.
    pub reps: usize,
    /// Fastest single repetition.
    pub min: Duration,
    /// Median repetition.
    pub p50: Duration,
    /// Slowest single repetition.
    pub max: Duration,
    /// Arithmetic mean over all repetitions.
    pub mean: Duration,
}

/// Times a closure over `reps` repetitions, each timed individually, and
/// returns the min/median/max/mean distribution.
pub fn time_stats(reps: usize, mut f: impl FnMut()) -> TimeStats {
    assert!(reps > 0);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed());
    }
    samples.sort_unstable();
    let total: Duration = samples.iter().sum();
    TimeStats {
        reps,
        min: samples[0],
        p50: samples[reps / 2],
        max: samples[reps - 1],
        mean: total / reps as u32,
    }
}

/// Times a closure over `reps` repetitions and returns the mean duration of
/// one call. Prefer [`time_stats`] where the spread matters — a mean alone
/// hides outlier repetitions.
pub fn time_avg(reps: usize, f: impl FnMut()) -> Duration {
    time_stats(reps, f).mean
}

/// Formats a duration in the unit that reads best.
pub fn fmt_duration(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.2} µs", s * 1e6)
    }
}

/// Formats a byte count in MiB/KiB.
pub fn fmt_bytes(bytes: usize) -> String {
    const MIB: f64 = 1024.0 * 1024.0;
    let b = bytes as f64;
    if b >= MIB {
        format!("{:.1} MiB", b / MIB)
    } else {
        format!("{:.1} KiB", b / 1024.0)
    }
}

/// A minimal fixed-width text table writer for paper-style output.
#[derive(Debug)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// A table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders as RFC-4180-ish CSV (quotes applied when a cell contains a
    /// comma, quote, or newline).
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        let push_row = |cells: &[String], out: &mut String| {
            let line: Vec<String> = cells.iter().map(|c| quote(c)).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        };
        push_row(&self.header, &mut out);
        for row in &self.rows {
            push_row(row, &mut out);
        }
        out
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<width$}", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(&["name", "m"]);
        t.row(vec!["x".into(), "10".into()]);
        t.row(vec!["longer".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("name"));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_row() {
        let mut t = TextTable::new(&["a"]);
        t.row(vec!["x".into(), "y".into()]);
    }

    #[test]
    fn csv_escaping() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row(vec!["plain".into(), "has,comma".into()]);
        t.row(vec!["has\"quote".into(), "x".into()]);
        let csv = t.to_csv();
        assert_eq!(csv.lines().next(), Some("a,b"));
        assert!(csv.contains("\"has,comma\""));
        assert!(csv.contains("\"has\"\"quote\""));
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_duration(Duration::from_secs(2)), "2.00 s");
        assert_eq!(fmt_duration(Duration::from_millis(5)), "5.00 ms");
        assert_eq!(fmt_duration(Duration::from_micros(7)), "7.00 µs");
    }

    #[test]
    fn timing_helpers() {
        let (v, d) = time(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(d.as_secs() < 5);
        let avg = time_avg(3, || {});
        assert!(avg.as_secs() < 1);
    }

    #[test]
    fn time_stats_orders_the_distribution() {
        let mut i = 0u64;
        let stats = time_stats(5, || {
            i += 1;
            if i == 3 {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        assert_eq!(stats.reps, 5);
        assert!(stats.min <= stats.p50);
        assert!(stats.p50 <= stats.max);
        assert!(stats.max >= Duration::from_millis(2), "outlier in max");
        assert!(stats.min <= stats.mean && stats.mean <= stats.max);
    }

    #[test]
    #[should_panic(expected = "reps > 0")]
    fn time_stats_rejects_zero_reps() {
        let _ = time_stats(0, || {});
    }
}

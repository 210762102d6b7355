//! Table/CSV output for the experiment binaries, and the report rows of
//! `perf_report` and `tournament`.

/// A simple result table: header row plus data rows, printed either as an
/// aligned text table (human) or CSV (machines).
#[derive(Clone, Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    #[must_use]
    pub fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| (*s).to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push_row(&mut self, row: Vec<String>) {
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as CSV.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Renders as an aligned text table.
    #[must_use]
    pub fn to_aligned(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints CSV when `csv` is set, the aligned table otherwise.
    pub fn print(&self, csv: bool) {
        if csv {
            print!("{}", self.to_csv());
        } else {
            print!("{}", self.to_aligned());
        }
    }
}

/// Formats a rate as a percentage with adaptive precision (tiny rates keep
/// significant digits, like the paper's "0.0001%").
#[must_use]
pub fn pct(rate: f64) -> String {
    let p = rate * 100.0;
    if p == 0.0 {
        "0".into()
    } else if p < 0.01 {
        format!("{p:.4}")
    } else if p < 1.0 {
        format!("{p:.3}")
    } else {
        format!("{p:.1}")
    }
}

/// Formats a byte count as mebibytes with one decimal.
#[must_use]
pub fn mib(bytes: u64) -> String {
    format!("{:.1}", bytes as f64 / (1024.0 * 1024.0))
}

/// How `ci/bench_guard.py` compares a report row with the committed
/// baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Bigger is better; fails when it falls more than 30% below the
    /// baseline.
    Higher,
    /// Smaller is better; fails when `baseline / fresh` falls below 0.70.
    Lower,
    /// Printed, never fails.
    Info,
    /// Must equal the baseline: deterministic results and the run's scale.
    Exact,
    /// A correctness check; must be `true` in the fresh report.
    Flag,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Higher => "higher",
            Kind::Lower => "lower",
            Kind::Info => "info",
            Kind::Exact => "exact",
            Kind::Flag => "flag",
        }
    }
}

/// A row value: a float with a fixed number of decimals, a count, or a
/// boolean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    /// `(value, decimals)`.
    Float(f64, usize),
    /// An integer count.
    Int(u64),
    /// A boolean.
    Bool(bool),
}

impl From<(f64, usize)> for Value {
    fn from((v, decimals): (f64, usize)) -> Self {
        Value::Float(v, decimals)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Int(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Int(v as u64)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Value::Float(v, decimals) => write!(f, "{v:.decimals$}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// The rows of a bench report, rendered one JSON object per line:
/// `{"name": "…", "unit": "…", "value": …, "kind": "…"}`.
#[derive(Clone, Debug, Default)]
pub struct Rows {
    rows: Vec<(String, &'static str, Value, Kind)>,
}

impl Rows {
    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if a [`Kind::Flag`] row is given a non-boolean value.
    pub fn push(
        &mut self,
        kind: Kind,
        name: impl Into<String>,
        unit: &'static str,
        value: impl Into<Value>,
    ) {
        let (name, value) = (name.into(), value.into());
        assert!(
            kind != Kind::Flag || matches!(value, Value::Bool(_)),
            "flag row {name} needs a boolean"
        );
        self.rows.push((name, unit, value, kind));
    }

    /// Appends a [`Kind::Flag`] row: `ok` must be `true` for the run to pass.
    pub fn flag(&mut self, name: impl Into<String>, ok: bool) {
        self.push(Kind::Flag, name, "bool", ok);
    }

    /// Appends `rows` with each name prefixed by `section.`.
    pub fn nest(&mut self, section: &str, rows: Rows) {
        for (name, unit, value, kind) in rows.rows {
            self.rows
                .push((format!("{section}.{name}"), unit, value, kind));
        }
    }

    /// Names of the flag rows whose value is `false`.
    #[must_use]
    pub fn failed_flags(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|(_, _, value, kind)| *kind == Kind::Flag && *value == Value::Bool(false))
            .map(|(name, ..)| name.as_str())
            .collect()
    }

    /// Renders every row, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        self.rows
            .iter()
            .map(|(name, unit, value, kind)| {
                format!(
                    "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"value\": {value}, \"kind\": \"{}\"}}\n",
                    kind.as_str()
                )
            })
            .collect()
    }

    /// Renders `existing` (a report in this format) with its rows named
    /// `prefix…` replaced by these rows. Lines that are not rows are dropped.
    #[must_use]
    pub fn replace_in(&self, existing: &str, prefix: &str) -> String {
        let kept = existing.lines().filter(|line| {
            line.strip_prefix("{\"name\": \"")
                .is_some_and(|rest| !rest.starts_with(prefix))
        });
        kept.map(|line| format!("{line}\n"))
            .chain(std::iter::once(self.render()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round() {
        let mut t = Table::new(&["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "a,b\n1,2\n");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn aligned_pads() {
        let mut t = Table::new(&["col", "x"]);
        t.push_row(vec!["1".into(), "value".into()]);
        let s = t.to_aligned();
        assert!(s.contains("col"));
        assert!(s.contains("value"));
        assert!(s.lines().count() == 3);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_checked() {
        let mut t = Table::new(&["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.0), "0");
        assert_eq!(pct(0.232), "23.2");
        assert_eq!(pct(0.000001), "0.0001");
        assert_eq!(pct(0.0023), "0.230");
    }

    #[test]
    fn mib_formats() {
        assert_eq!(mib(1024 * 1024), "1.0");
        assert_eq!(mib(1536 * 1024), "1.5");
    }

    #[test]
    fn rows_render_each_kind() {
        let mut rows = Rows::default();
        rows.push(Kind::Higher, "a.tput", "chunks/ms", (5894.43, 1));
        rows.push(Kind::Lower, "a.latency_ms", "ms", (0.126, 2));
        rows.push(Kind::Info, "a.count", "count", 42usize);
        rows.push(Kind::Exact, "a.rate", "frac", (0.000023, 6));
        rows.flag("a.ok", true);
        assert_eq!(
            rows.render(),
            "{\"name\": \"a.tput\", \"unit\": \"chunks/ms\", \"value\": 5894.4, \"kind\": \"higher\"}\n\
             {\"name\": \"a.latency_ms\", \"unit\": \"ms\", \"value\": 0.13, \"kind\": \"lower\"}\n\
             {\"name\": \"a.count\", \"unit\": \"count\", \"value\": 42, \"kind\": \"info\"}\n\
             {\"name\": \"a.rate\", \"unit\": \"frac\", \"value\": 0.000023, \"kind\": \"exact\"}\n\
             {\"name\": \"a.ok\", \"unit\": \"bool\", \"value\": true, \"kind\": \"flag\"}\n"
        );
        assert!(rows.failed_flags().is_empty());
        rows.flag("b.ok", false);
        assert_eq!(rows.failed_flags(), ["b.ok"]);
    }

    #[test]
    #[should_panic(expected = "needs a boolean")]
    fn flag_rows_are_boolean() {
        Rows::default().push(Kind::Flag, "x", "bool", 1u64);
    }

    #[test]
    fn replace_in_swaps_prefixed_rows() {
        let mut old = Rows::default();
        old.push(Kind::Info, "threads", "threads", 1usize);
        old.push(Kind::Exact, "defense.chunks", "chunks", 10usize);
        let mut defense = Rows::default();
        defense.push(Kind::Exact, "chunks", "chunks", 20usize);
        let mut new = Rows::default();
        new.nest("defense", defense);
        let merged = new.replace_in(&format!("not a row\n{}", old.render()), "defense.");
        let names: Vec<&str> = merged
            .lines()
            .map(|l| l.split('"').nth(3).expect("row name"))
            .collect();
        assert_eq!(names, ["threads", "defense.chunks"]);
        assert!(merged.ends_with("\"value\": 20, \"kind\": \"exact\"}\n"));
    }
}

//! Plain-text report formatting for the experiment binaries.
//!
//! Experiments print fixed-width tables (readable in a terminal, trivially
//! parsed as whitespace-separated values) with one row per dataset or sweep
//! point, mirroring the layout of the paper's tables.

use std::fmt::Write as _;

/// A simple column-aligned report builder.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    notes: Vec<String>,
}

impl Report {
    /// Creates a report with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a data row; the cell count must match the header.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.header.len(),
            "row arity {} != header arity {}",
            cells.len(),
            self.header.len()
        );
        self.rows.push(cells);
    }

    /// Appends a free-form note printed under the table.
    pub fn add_note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    /// Number of data rows so far.
    #[cfg(test)]
    pub(crate) fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Renders the report as fixed-width text.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (i, h) in self.header.iter().enumerate() {
            let _ = write!(line, "{:<width$}  ", h, width = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:<width$}  ", cell, width = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// Prints the rendered report to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Formats a float with three decimals (the paper's precision for ratios).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with two decimals (the paper's precision for coverage).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a duration in seconds with millisecond resolution.
pub fn secs(d: std::time::Duration) -> String {
    format!("{:.3}", d.as_secs_f64())
}

/// Formats a large count with thousands separators for readability.
pub fn count(n: u64) -> String {
    let s = n.to_string();
    let mut out = String::with_capacity(s.len() + s.len() / 3);
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut r = Report::new("Table X", &["Dataset", "P", "R"]);
        r.add_row(vec!["Web tables".into(), "0.81".into(), "0.93".into()]);
        r.add_row(vec!["Synth-50".into(), "1.00".into(), "0.88".into()]);
        r.add_note("quick scale");
        let text = r.render();
        assert!(text.contains("== Table X =="));
        assert!(text.contains("Web tables"));
        assert!(text.contains("note: quick scale"));
        assert_eq!(r.row_count(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut r = Report::new("t", &["a", "b"]);
        r.add_row(vec!["only one".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(0.12345), "0.123");
        assert_eq!(f2(0.999), "1.00");
        assert_eq!(secs(std::time::Duration::from_millis(1500)), "1.500");
        assert_eq!(count(1_234_567), "1,234,567");
        assert_eq!(count(42), "42");
    }
}

//! Plain-text table rendering and CSV output for experiment results.

use std::fmt::Write as _;
use std::path::Path;

/// A simple results table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    /// Table title, printed above the header.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "ragged table row");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(ncols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "## {}", self.title);
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
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
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{}", self.headers.join(","));
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| csv_escape(c)).collect();
            let _ = writeln!(out, "{}", cells.join(","));
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Writes a table as CSV under `results/` (created on demand). Returns the
/// path written. Failures are reported, not fatal — experiments still
/// print their tables.
pub fn write_csv(table: &Table, name: &str) -> Option<std::path::PathBuf> {
    let dir = Path::new("results");
    let path = dir.join(format!("{name}.csv"));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, table.to_csv())) {
        Ok(()) => Some(path),
        Err(e) => {
            eprintln!("warning: could not write {}: {e}", path.display());
            None
        }
    }
}

/// Formats a float with limited precision for tables.
pub fn f(v: f64) -> String {
    if v.is_infinite() {
        "inf".to_string()
    } else if v >= 100.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

/// Formats a byte count as mebibytes.
pub fn mib(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("## demo"));
        assert!(s.contains("long-header"));
        assert_eq!(s.lines().count(), 5);
    }

    #[test]
    fn csv_escapes_commas_and_quotes() {
        let mut t = Table::new("x", &["c"]);
        t.row(vec!["a,b".into()]);
        t.row(vec!["q\"q".into()]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"q\"\"q\""));
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(1.234), "1.23");
        assert_eq!(f(1234.5), "1234"); // {:.0} rounds half-to-even
        assert_eq!(f(f64::INFINITY), "inf");
        assert_eq!(mib(1024 * 1024), "1.00");
    }
}

//! Table printing and CSV artefacts.

use std::fs;
use std::io::Write;
use std::path::Path;

/// A simple fixed-width table printer for paper-style outputs.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub(crate) fn new(header: &[&str]) -> Self {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header length).
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header.
    pub(crate) fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to stdout (suppressed under `--quiet`, like
    /// every other [`atom_obs::info!`]-level result line).
    pub(crate) fn print(&self) {
        if !atom_obs::log::enabled(atom_obs::Verbosity::Info) {
            return;
        }
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.len());
            }
        }
        let line = |cells: &[String]| {
            let fields: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("  {}", fields.join("  "));
        };
        line(&self.header);
        println!(
            "  {}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            line(row);
        }
    }

    /// Writes the table as CSV to `path`, creating parent directories.
    ///
    /// # Panics
    ///
    /// Panics on I/O errors — artefact writing is not a recoverable
    /// condition for the harness.
    pub(crate) fn write_csv(&self, path: &Path) {
        if let Some(parent) = path.parent() {
            fs::create_dir_all(parent).expect("create results dir");
        }
        let mut f = fs::File::create(path).expect("create csv");
        let esc = |s: &str| {
            if s.contains(',') || s.contains('"') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.to_string()
            }
        };
        writeln!(
            f,
            "{}",
            self.header
                .iter()
                .map(|h| esc(h))
                .collect::<Vec<_>>()
                .join(",")
        )
        .expect("write header");
        for row in &self.rows {
            writeln!(
                f,
                "{}",
                row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(",")
            )
            .expect("write row");
        }
    }
}

/// Formats a float with the given number of decimals.
pub(crate) fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Percent error between a model value and a measurement.
pub(crate) fn pct_err(model: f64, measured: f64) -> f64 {
    if measured.abs() < 1e-12 {
        0.0
    } else {
        100.0 * (model - measured).abs() / measured.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["1".into(), "x,y".into()]);
        let dir = std::env::temp_dir().join("atom-bench-test");
        let path = dir.join("t.csv");
        t.write_csv(&path);
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("a,b"));
        assert!(content.contains("\"x,y\""));
        t.print();
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        Table::new(&["a"]).row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn pct_err_basics() {
        assert!((pct_err(110.0, 100.0) - 10.0).abs() < 1e-12);
        assert_eq!(pct_err(1.0, 0.0), 0.0);
    }
}

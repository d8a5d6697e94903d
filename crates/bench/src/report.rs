//! The result table every experiment returns, and its Markdown and CSV
//! renderings.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One row of an experiment results table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRow {
    /// Row label (e.g. framework or building name).
    pub label: String,
    /// Column values.
    pub values: Vec<f32>,
}

/// What an experiment measured: a labelled grid of numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows, in the order they are reported.
    pub rows: Vec<TableRow>,
}

impl Table {
    /// An empty table with the given columns.
    pub fn new<C: Into<String>>(columns: impl IntoIterator<Item = C>) -> Self {
        Table {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push(&mut self, label: impl Into<String>, values: Vec<f32>) {
        self.rows.push(TableRow {
            label: label.into(),
            values,
        });
    }

    /// The cell at (`row`, `column`); `None` when the table has no such row
    /// or column.
    pub fn value(&self, row: &str, column: &str) -> Option<f32> {
        let row = self.rows.iter().find(|r| r.label == row)?;
        let index = self.columns.iter().position(|c| c == column)?;
        row.values.get(index).copied()
    }

    /// The table as aligned Markdown: what the binary prints and what
    /// `REPRODUCTION.md` holds.
    pub fn render(&self) -> String {
        let header = std::iter::once(String::new()).chain(self.columns.iter().cloned());
        let mut lines: Vec<Vec<String>> = vec![header.collect()];
        for row in &self.rows {
            let values = row.values.iter().map(|v| format!("{v:.3}"));
            lines.push(std::iter::once(row.label.clone()).chain(values).collect());
        }
        let chars = |line: &Vec<String>, i: usize| line[i].chars().count();
        let widths: Vec<usize> = (0..=self.columns.len())
            .map(|i| lines.iter().map(|l| chars(l, i)).fold(2, usize::max))
            .collect();
        let rule = widths.iter().map(|w| format!("{}:", "-".repeat(w - 1)));
        lines.insert(1, rule.collect());
        let mut out = String::new();
        for line in &lines {
            let cells = line.iter().zip(&widths).map(|(c, w)| format!("{c:>w$}"));
            out.push_str(&format!("| {} |\n", cells.collect::<Vec<_>>().join(" | ")));
        }
        out
    }

    /// Writes the rows as CSV under `target/experiments/<name>.csv`,
    /// returning the path written.
    ///
    /// # Errors
    /// Returns an I/O error if the directory or file cannot be written.
    pub fn write_csv(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = Path::new("target").join("experiments");
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{name}.csv"));
        let mut file = fs::File::create(&path)?;
        writeln!(file, "label,{}", self.columns.join(","))?;
        for row in &self.rows {
            let values: Vec<String> = row.values.iter().map(|v| format!("{v:.4}")).collect();
            writeln!(file, "{},{}", row.label, values.join(","))?;
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut table = Table::new(["mean", "min", "max"]);
        table.push("VITAL", vec![1.18, 0.0, 3.0]);
        table.push("WiDeep", vec![3.73, 0.1, 8.2]);
        table
    }

    #[test]
    fn table_renders_all_rows_and_columns() {
        let expected = "\
|        |  mean |   min |   max |
| -----: | ----: | ----: | ----: |
|  VITAL | 1.180 | 0.000 | 3.000 |
| WiDeep | 3.730 | 0.100 | 8.200 |
";
        assert_eq!(sample().render(), expected);
    }

    #[test]
    fn cells_are_addressed_by_label() {
        let table = sample();
        assert_eq!(table.value("WiDeep", "min"), Some(0.1));
        assert_eq!(table.value("ANVIL", "min"), None);
        assert_eq!(table.value("VITAL", "p95"), None);
    }

    #[test]
    fn csv_is_written() {
        let mut table = Table::new(["x", "y"]);
        table.push("a", vec![1.0, 2.0]);
        let path = table.write_csv("unit_test_output").unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("label,x,y"));
        assert!(content.contains("a,1.0000,2.0000"));
    }
}

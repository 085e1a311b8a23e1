//! Minimal aligned-text table rendering for experiment reports.

/// A simple text table with a header row.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table under `header`: column names separated by `", "`.
    pub fn new(header: &str) -> Self {
        Table {
            header: header.split(", ").map(str::to_string).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
                .trim_end()
                .to_string()
        };
        let mut out = fmt_row(&self.header);
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  "),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats microseconds as milliseconds with 1 decimal.
pub fn ms(us: u64) -> String {
    format!("{:.1}", us as f64 / 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("n, value");
        t.row(vec!["1".into(), "short".into()]);
        t.row(vec!["100".into(), "x".into()]);
        let text = t.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("n  "));
        assert!(lines[1].starts_with("---"));
        assert!(lines[2].contains("short"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        Table::new("a").row(vec!["1".into(), "2".into()]);
    }
}

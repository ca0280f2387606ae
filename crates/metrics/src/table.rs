//! Paper-style result tables: aligned text for the terminal.

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// A table with the given title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; must match the header arity.
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row arity mismatch in table `{}`",
            self.title
        );
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
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
    fn renders_aligned() {
        let mut t = Table::new("demo", &["k", "latency"]);
        t.row(&["2".into(), "927".into()]);
        t.row(&["16".into(), "301".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("latency"));
        assert_eq!(t.num_rows(), 2);
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut t = Table::new("d", &["a", "b"]);
        t.row(&["1".into()]);
    }
}

//! Plain-text table rendering for experiment results.

/// A simple aligned text table, used by the bench targets to print the
/// paper's rows/series.
///
/// # Examples
///
/// ```
/// use sibyl_sim::report::Table;
/// let mut t = Table::new(["workload", "Sibyl"]);
/// t.add_row(vec!["hm_1".into(), "1.23".into()]);
/// let s = t.render();
/// assert!(s.contains("hm_1"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<H: Into<String>>(headers: impl IntoIterator<Item = H>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row. Short rows are padded with empty cells; long rows
    /// extend the column count.
    pub fn add_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// The column headers, in order. Exposed so structured writers (the
    /// bench JSON exporter) can serialize a table without re-parsing its
    /// rendered text.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The data rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// `true` when no rows were added.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self
            .rows
            .iter()
            .map(Vec::len)
            .chain(std::iter::once(self.headers.len()))
            .max()
            .unwrap_or(0);
        let mut widths = vec![0usize; cols];
        let all_rows = std::iter::once(&self.headers).chain(self.rows.iter());
        for row in all_rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let render_row = |row: &[String], widths: &[usize], out: &mut String| {
            for (i, w) in widths.iter().enumerate() {
                let cell = row.get(i).map(String::as_str).unwrap_or("");
                if i == 0 {
                    out.push_str(&format!("{cell:<w$}"));
                } else {
                    out.push_str(&format!("  {cell:>w$}"));
                }
            }
            out.push('\n');
        };
        render_row(&self.headers, &widths, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            render_row(row, &widths, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["a", "value"]);
        t.add_row(vec!["workload-with-long-name".into(), "1".into()]);
        t.add_row(vec!["x".into(), "123.45".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        // All lines equal width (padded).
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn empty_table_renders_headers_only() {
        let t = Table::new(["only"]);
        assert!(t.is_empty());
        assert!(t.render().contains("only"));
    }
}

//! `Report`: one builder for everything an `exp_*` binary prints.
//!
//! Replaces the pre-redesign pattern of ad-hoc `Table::render()` +
//! scattered `println!` calls per binary: a report is built once from
//! tables, notes, and preformatted text blocks, then rendered for the
//! terminal ([`Report::render`] / [`Report::print`]).

/// A fixed-width text table ([`Report`]'s tabular building block).
///
/// Lived in `vdce_sim::metrics` before the observability redesign; that
/// path re-exports this type.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Table { header: header.iter().map(|s| s.to_string()).collect(), rows: Vec::new() }
    }

    /// Append a row (must match the header width).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{c:<w$}", w = width[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &width));
            out.push('\n');
        }
        out
    }
}

enum Item {
    Table(Table),
    Note(String),
    Text(String),
}

/// Builder for one experiment's full terminal/JSON output.
pub struct Report {
    title: String,
    items: Vec<Item>,
}

impl Report {
    /// Report with the given headline (rendered as `=== title ===`).
    pub fn new(title: &str) -> Self {
        Report { title: title.to_string(), items: Vec::new() }
    }

    /// Append a table.
    pub fn table(mut self, t: Table) -> Self {
        self.items.push(Item::Table(t));
        self
    }

    /// Append a parenthesised footnote.
    pub fn note(mut self, s: impl Into<String>) -> Self {
        self.items.push(Item::Note(s.into()));
        self
    }

    /// Append a preformatted text block, printed verbatim.
    pub fn text(mut self, s: impl Into<String>) -> Self {
        self.items.push(Item::Text(s.into()));
        self
    }

    /// Render the whole report for the terminal.
    pub fn render(&self) -> String {
        let mut out = format!("=== {} ===\n", self.title);
        for item in &self.items {
            match item {
                Item::Table(t) => {
                    out.push('\n');
                    out.push_str(&t.render());
                }
                Item::Note(n) => {
                    out.push_str(&format!("({n})\n"));
                }
                Item::Text(t) => {
                    out.push('\n');
                    out.push_str(t);
                    if !t.ends_with('\n') {
                        out.push('\n');
                    }
                }
            }
        }
        out
    }

    /// Print the rendered report to stdout.
    ///
    /// The one sanctioned stdout sink for experiment binaries (library
    /// crates deny `clippy::print_stdout`; this method carries the
    /// exemption so binaries don't have to).
    #[allow(clippy::print_stdout)]
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(&["algo", "makespan"]);
        t.row(&["vdce".to_string(), "1.25".to_string()]);
        t.row(&["min-min".to_string(), "2.5".to_string()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines[0], "algo     makespan");
        assert_eq!(lines[2], "vdce     1.25");
        assert_eq!(lines[3], "min-min  2.5");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(&["only-one".to_string()]);
    }

    #[test]
    fn report_renders_every_item() {
        let mut t = Table::new(&["k", "v"]);
        t.row(&["x".to_string(), "1".to_string()]);
        let r = Report::new("demo").table(t).note("a footnote").text("block");
        let s = r.render();
        assert!(s.starts_with("=== demo ===\n"));
        assert!(s.contains("k  v\n"));
        assert!(s.contains("(a footnote)\n"));
        assert!(s.contains("block\n"));
    }
}

//! Plain-text table reporting for the bench binaries.

use std::fmt;

/// A simple column-aligned table renderable as markdown or CSV.
///
/// ```
/// let mut t = udma::Table::new("Table 1", &["DMA algorithm", "µs"]);
/// t.row(&["Kernel-level DMA", "18.6"]);
/// let md = t.to_markdown();
/// assert!(md.contains("| Kernel-level DMA | 18.6 |"));
/// ```
#[derive(Clone, Debug)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: &[&str]) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells.iter().map(|s| s.to_string()).collect());
        self
    }

    /// Appends a row of owned strings.
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row_owned(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders as a markdown table (with title line).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!("|{}\n", self.headers.iter().map(|_| "---|").collect::<String>()));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_markdown())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1", "2"]).row(&["x, y", "q\"z"]);
        t
    }

    #[test]
    fn markdown_shape() {
        let md = sample().to_markdown();
        assert!(md.starts_with("### T"));
        assert!(md.contains("| a | b |"));
        assert!(md.contains("|---|---|"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn wrong_width_panics() {
        Table::new("T", &["a"]).row(&["1", "2"]);
    }

    #[test]
    fn len_and_display() {
        let t = sample();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.to_string(), t.to_markdown());
    }
}

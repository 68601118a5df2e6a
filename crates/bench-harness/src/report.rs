//! Table rendering: each figure is regenerated as an aligned text table
//! with one row per x-axis point and one column per scheme, mirroring the
//! series of the paper's plots.

use std::fmt;

/// A rendered figure: rows of `(x, values-per-scheme)`.
#[derive(Debug, Clone)]
pub struct FigureTable {
    /// Figure id and description, e.g. `Fig 8c — Michael hash map, ...`.
    pub title: String,
    /// X-axis label (e.g. `threads`, `stalled`).
    pub x_label: String,
    /// Metric label (e.g. `Mops/s`, `unreclaimed/op`).
    pub metric: String,
    /// Scheme (column) names.
    pub schemes: Vec<String>,
    /// `(x, one value per scheme; None = combination unsupported)`.
    pub rows: Vec<(usize, Vec<Option<f64>>)>,
}

impl FigureTable {
    /// Creates an empty table.
    pub fn new(
        title: impl Into<String>,
        x_label: impl Into<String>,
        metric: impl Into<String>,
        schemes: &[&str],
    ) -> Self {
        Self {
            title: title.into(),
            x_label: x_label.into(),
            metric: metric.into(),
            schemes: schemes.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, x: usize, values: Vec<Option<f64>>) {
        assert_eq!(values.len(), self.schemes.len());
        self.rows.push((x, values));
    }

    /// The value for `(x, scheme)`, if present.
    pub fn value(&self, x: usize, scheme: &str) -> Option<f64> {
        let col = self.schemes.iter().position(|s| s == scheme)?;
        self.rows
            .iter()
            .find(|(row_x, _)| *row_x == x)
            .and_then(|(_, vals)| vals[col])
    }
}

impl fmt::Display for FigureTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# {} [{}]", self.title, self.metric)?;
        // Columns must fit the longest scheme name (series like
        // `Hyaline-S-adaptive` exceed any fixed width) plus a two-space
        // gutter; 11 keeps short-named tables visually identical to the
        // historical fixed-width rendering.
        let width = self
            .schemes
            .iter()
            .map(|s| s.len() + 2)
            .max()
            .unwrap_or(0)
            .max(11);
        let x_width = self.x_label.len().max(10);
        write!(f, "{:<x_width$}", self.x_label)?;
        for s in &self.schemes {
            write!(f, "{s:>width$}")?;
        }
        writeln!(f)?;
        for (x, vals) in &self.rows {
            write!(f, "{x:<x_width$}")?;
            for v in vals {
                match v {
                    Some(v) if *v >= 1000.0 => write!(f, "{v:>width$.1}")?,
                    Some(v) => write!(f, "{v:>width$.4}")?,
                    None => write!(f, "{:>width$}", "-")?,
                }
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FigureTable {
        let mut t = FigureTable::new("Fig X", "threads", "Mops/s", &["A", "B"]);
        t.push_row(1, vec![Some(1.5), None]);
        t.push_row(2, vec![Some(3.0), Some(2.25)]);
        t
    }

    #[test]
    fn lookup_by_scheme() {
        let t = sample();
        assert_eq!(t.value(2, "B"), Some(2.25));
        assert_eq!(t.value(1, "B"), None);
        assert_eq!(t.value(9, "A"), None);
    }

    #[test]
    fn renders_na_for_unsupported() {
        let t = sample();
        let text = t.to_string();
        assert!(text.contains("Fig X"));
        assert!(text.contains('-'));
    }

    #[test]
    #[should_panic]
    fn row_arity_checked() {
        let mut t = sample();
        t.push_row(3, vec![Some(1.0)]);
    }

    #[test]
    fn long_scheme_names_keep_columns_aligned() {
        let mut t = FigureTable::new(
            "Fig 10a",
            "stalled",
            "unreclaimed",
            &["HP", "Hyaline-S-adaptive"],
        );
        t.push_row(0, vec![Some(1.0), Some(2.0)]);
        t.push_row(12, vec![Some(12345.6789), None]);
        let text = t.to_string();
        let lines: Vec<&str> = text.lines().skip(1).collect();
        assert!(lines.len() >= 3);
        // Header and every row must have identical rendered widths, and
        // each column must end at the same offset in every line.
        let widths: Vec<usize> = lines.iter().map(|l| l.chars().count()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "ragged columns: {widths:?}\n{text}"
        );
        assert!(lines[0].ends_with("Hyaline-S-adaptive"));
    }
}

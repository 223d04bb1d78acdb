//! Report rendering: aligned ASCII tables (the paper's Tables II–IV),
//! JSON export and a small ASCII chart for the speedup figures.

use std::io::Write as _;
use std::path::Path;

use serde::Serialize;

/// A simple table with a header row.
#[derive(Debug, Clone, Default, Serialize)]
pub struct Table {
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each must have `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(headers: impl IntoIterator<Item = impl Into<String>>) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics when the cell count differs from the header count.
    pub fn push_row(&mut self, row: impl IntoIterator<Item = impl Into<String>>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders with aligned columns (first column left-aligned, the rest
    /// right-aligned, numbers being the common case).
    pub fn render(&self) -> String {
        // widths in chars, the unit `format!` pads by
        let chars = |cell: &String| cell.chars().count();
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(chars).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(chars(cell));
            }
        }
        let mut out = String::new();
        let fmt_row = |row: &[String], out: &mut String| {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                if i == 0 {
                    out.push_str(&format!("{cell:<width$}", width = widths[i]));
                } else {
                    out.push_str(&format!("{cell:>width$}", width = widths[i]));
                }
            }
            out.push('\n');
        };
        fmt_row(&self.headers, &mut out);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols.saturating_sub(1));
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(row, &mut out);
        }
        out
    }
}

/// Serializes any value as pretty JSON to `path` (used by the bench bins
/// to leave machine-readable results next to EXPERIMENTS.md).
pub fn write_json<T: Serialize>(path: impl AsRef<Path>, value: &T) -> std::io::Result<()> {
    let json = serde_json::to_string_pretty(value)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
    let mut f = std::fs::File::create(path)?;
    f.write_all(json.as_bytes())?;
    f.write_all(b"\n")
}

/// Renders speedup-style series as an ASCII chart: x = threads,
/// y = speedup, one mark per series. Series are `(label, points)` with
/// points `(x, y)`.
pub fn ascii_chart(series: &[(String, Vec<(f64, f64)>)], width: usize, height: usize) -> String {
    let width = width.max(16);
    let height = height.max(6);
    let all: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|(_, pts)| pts.iter().copied())
        .collect();
    if all.is_empty() {
        return String::from("(no data)\n");
    }
    let xmax = all.iter().map(|p| p.0).fold(1.0, f64::max);
    let ymax = all.iter().map(|p| p.1).fold(1.0, f64::max);
    let marks = ['*', 'o', '+', 'x', '#', '@', '%', '&'];
    let mut grid = vec![vec![' '; width]; height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let mark = marks[si % marks.len()];
        for &(x, y) in pts {
            let col = ((x / xmax) * (width - 1) as f64).round() as usize;
            let row = height - 1 - ((y / ymax) * (height - 1) as f64).round() as usize;
            grid[row.min(height - 1)][col.min(width - 1)] = mark;
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{ymax:>6.1} ┤\n"));
    for row in &grid {
        out.push_str("       │");
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str("       └");
    out.push_str(&"─".repeat(width));
    out.push('\n');
    out.push_str(&format!("        1{:>width$.0}\n", xmax, width = width - 1));
    for (si, (label, _)) in series.iter().enumerate() {
        out.push_str(&format!("  {} {}\n", marks[si % marks.len()], label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["Image", "Min", "Max"]);
        t.push_row(["aerial-1", "2.5", "86.64"]);
        t.push_row(["a", "13.68", "1.0"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("Image"));
        assert!(lines[1].starts_with("---"));
        // right alignment of numeric columns
        assert!(lines[2].contains("  2.5"));
        assert_eq!(lines.len(), 4);
    }

    #[test]
    fn multi_byte_cells_are_padded_by_chars() {
        let mut t = Table::new(["Mode", "ms"]);
        t.push_row(["decode∥scan∥merge", "85.0"]);
        t.push_row(["sync", "136.9"]);
        let s = t.render();
        let widths: Vec<usize> = s.lines().map(|l| l.chars().count()).collect();
        // "decode∥scan∥merge" is 17 chars (21 bytes): every line, the rule
        // included, is 17 + 2 + 5 chars wide
        assert_eq!(widths, vec![24; 4], "{s}");
        assert!(s.lines().nth(2).unwrap().starts_with("decode∥scan∥merge  "));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.push_row(["only one"]);
    }

    #[test]
    fn json_round_trips() {
        let dir = std::env::temp_dir().join("ccl_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        let mut t = Table::new(["x"]);
        t.push_row(["1"]);
        write_json(&path, &t).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"headers\""));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chart_renders_marks_and_legend() {
        let series = vec![
            ("image 6".to_string(), vec![(2.0, 1.9), (24.0, 20.1)]),
            ("image 1".to_string(), vec![(2.0, 1.5), (24.0, 6.0)]),
        ];
        let chart = ascii_chart(&series, 40, 12);
        assert!(chart.contains('*'));
        assert!(chart.contains('o'));
        assert!(chart.contains("image 6"));
    }

    #[test]
    fn chart_empty() {
        assert_eq!(ascii_chart(&[], 10, 5), "(no data)\n");
    }
}

//! A bench target's table, declared once: each [`Col`] says how the
//! console shows its values and how `<name>.csv` writes them, so the
//! printed rows and the CSV come from the same pushed values.

use crate::{emit::write_csv, suite::Csv};
use serde_json::Value;
use std::fmt::Display;

/// One column of a [`Table`]: a console side (header, width, alignment,
/// number format) and a CSV side (key and [`Csv`] format). Either side may
/// be absent: [`Col::csv_only`] has no console side, and a column without
/// [`csv`](Col::csv) stays out of the CSV.
#[derive(Clone, Copy, Debug)]
pub struct Col {
    head: Option<&'static str>,
    width: usize,
    left: bool,
    scale: f64,
    prec: Option<usize>,
    suffix: &'static str,
    key: &'static str,
    csv: Csv,
}

impl Col {
    /// A console column headed `head`, right-aligned in `width`
    /// characters. Numbers print as `Display` writes them until a format
    /// is set.
    pub const fn show(head: &'static str, width: usize) -> Col {
        Col {
            head: Some(head),
            width,
            left: false,
            scale: 1.0,
            prec: None,
            suffix: "",
            key: "",
            csv: Csv::Skip,
        }
    }

    /// A column only the CSV writes, under `key`.
    pub const fn csv_only(key: &'static str, csv: Csv) -> Col {
        let mut col = Col::show("", 0).csv(key, csv);
        col.head = None;
        col
    }

    /// Left-aligns the console column.
    pub const fn left(mut self) -> Col {
        self.left = true;
        self
    }

    /// Prints numbers with `prec` decimals.
    pub const fn fixed(mut self, prec: usize) -> Col {
        self.prec = Some(prec);
        self
    }

    /// Prints numbers as percentages: ×100, `prec` decimals and a `%`.
    pub const fn pct(mut self, prec: usize) -> Col {
        self.scale = 100.0;
        self.fixed(prec).suffix("%")
    }

    /// Appends `suffix` to every console value, inside the column width.
    pub const fn suffix(mut self, suffix: &'static str) -> Col {
        self.suffix = suffix;
        self
    }

    /// Adds the CSV side: the column is written under `key` as `csv` says.
    pub const fn csv(mut self, key: &'static str, csv: Csv) -> Col {
        (self.key, self.csv) = (key, csv);
        self
    }

    fn pad(&self, text: &str) -> String {
        match self.left {
            true => format!("{text:<w$}", w = self.width),
            false => format!("{text:>w$}", w = self.width),
        }
    }

    /// `v` on the console (`None` off it): text as is, numbers scaled
    /// and rounded to the column's precision; then the suffix, all padded
    /// to the width.
    fn console_cell(&self, v: &Value) -> Option<String> {
        self.head?;
        let text = match (v, self.prec) {
            (Value::String(s), _) => s.clone(),
            (v, Some(p)) => format!("{:.p$}", v.as_f64().unwrap_or(f64::NAN) * self.scale),
            (Value::Number(n), None) => n.to_string(),
            (v, None) => v.to_string(),
        };
        Some(self.pad(&(text + self.suffix)))
    }
}

/// A bench target's table: rows in print order, optionally under group
/// headings, and a note printed below them. [`emit`](Table::emit) prints
/// it and writes `<name>.csv`.
pub struct Table {
    cols: Vec<Col>,
    /// The console text so far.
    console: String,
    /// One CSV line per row.
    csv: Vec<String>,
    note: String,
}

impl Table {
    /// An empty table over `cols`.
    pub fn new(cols: &[Col]) -> Table {
        Table {
            cols: cols.to_vec(),
            console: String::new(),
            csv: Vec::new(),
            note: String::new(),
        }
    }

    fn header(&self) -> String {
        line(self.cols.iter().filter_map(|c| Some(c.pad(c.head?))))
    }

    /// Starts a group: the console prints `--- heading ---` and the
    /// header again. The CSV has no groups.
    pub fn group(&mut self, heading: impl Display) {
        self.console += &format!("\n--- {heading} ---\n{}", self.header());
    }

    /// Appends a row: one value per declared column, in column order. A
    /// table whose first line is a row starts with the header.
    pub fn row(&mut self, cells: impl IntoIterator<Item = Value>) {
        let cells: Vec<Value> = cells.into_iter().collect();
        assert_eq!(cells.len(), self.cols.len(), "one value per column");
        if self.console.is_empty() {
            self.console = self.header();
        }
        let cells = self.cols.iter().zip(&cells);
        self.console += &line(cells.clone().filter_map(|(c, v)| c.console_cell(v)));
        let csv: Vec<String> = cells.filter_map(|(c, v)| c.csv.cell(v)).collect();
        self.csv.push(csv.join(","));
    }

    /// Sets the text printed below the table (the paper's expected shape).
    pub fn note(&mut self, text: impl Into<String>) {
        self.note = text.into();
    }

    /// The console text: the rows under their headers, then the note
    /// after a blank line.
    fn console(&self) -> String {
        match self.note.as_str() {
            "" => self.console.clone(),
            note => format!("{}\n{note}\n", self.console),
        }
    }

    /// The CSV header: the keys of the columns the CSV writes.
    fn csv_header(&self) -> String {
        let written = self.cols.iter().filter(|c| c.csv != Csv::Skip);
        written.map(|c| c.key).collect::<Vec<_>>().join(",")
    }

    /// Prints the console text.
    pub fn print(&self) {
        print!("{}", self.console());
    }

    /// Prints the table, then writes `<name>.csv` under the results
    /// directory.
    pub fn emit(&self, name: &str) {
        self.print();
        write_csv(name, &self.csv_header(), &self.csv);
    }
}

/// One console line: the cells joined by a space, without trailing blanks.
fn line(cells: impl Iterator<Item = String>) -> String {
    cells.collect::<Vec<_>>().join(" ").trim_end().to_string() + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    const COLS: [Col; 5] = [
        Col::csv_only("scenario", Csv::Plain),
        Col::show("cutoff", 8).left().csv("cutoff_ms", Csv::Plain),
        Col::show("hit", 7).pct(1).csv("hit_rate", Csv::Fixed(4)),
        Col::show("cost", 9).fixed(2).suffix("x"),
        Col::show("n", 4).csv("count", Csv::Plain),
    ];

    fn table() -> Table {
        let mut t = Table::new(&COLS);
        t.group("strict-light");
        t.row([
            "strict-light".into(),
            1.0.into(),
            0.78126.into(),
            1.5.into(),
            3u64.into(),
        ]);
        t.row([
            "strict-light".into(),
            0.5.into(),
            0.0.into(),
            12.0.into(),
            40u64.into(),
        ]);
        t.note("paper shape: none");
        t
    }

    #[test]
    fn csv_bytes_follow_the_declared_formats() {
        let t = table();
        let mut csv = t.csv_header();
        for row in t.csv {
            csv += &format!("\n{row}");
        }
        // The cut-off is Display-formatted: 1.0 writes as `1`, not `1.0`.
        assert_eq!(
            csv,
            "scenario,cutoff_ms,hit_rate,count\n\
             strict-light,1,0.7813,3\n\
             strict-light,0.5,0.0000,40"
        );
    }

    #[test]
    fn console_rows_line_up_with_the_header() {
        let console = table().console();
        let lines: Vec<&str> = console.lines().collect();
        assert_eq!(lines[0], "");
        assert_eq!(lines[1], "--- strict-light ---");
        assert_eq!(lines[2], "cutoff       hit      cost    n");
        assert_eq!(lines[3], "1          78.1%     1.50x    3");
        assert_eq!(lines[4], "0.5         0.0%    12.00x   40");
        assert_eq!(&lines[5..], ["", "paper shape: none"]);
        let width = |l: &str| l.split_whitespace().count();
        for row in &lines[3..5] {
            assert_eq!(width(row), width(lines[2]));
            assert_eq!(row.chars().count(), lines[2].chars().count());
        }
    }

    #[test]
    fn a_one_sided_column_appears_only_where_declared() {
        let t = table();
        let console = t.console();
        // CSV-only: the scenario key never reaches the console rows.
        assert!(t.csv_header().starts_with("scenario,"));
        assert_eq!(console.matches("strict-light").count(), 1, "{console}");
        // Console-only: the cost column is not in the CSV.
        assert!(console.contains("cost"));
        assert!(!t.csv_header().contains("cost"));
        assert!(t.csv.iter().all(|r| !r.contains("1.5")));
    }

    #[test]
    fn a_table_without_groups_starts_with_its_header() {
        let mut t = Table::new(&COLS[1..3]);
        t.row([10.0.into(), 0.5.into()]);
        assert_eq!(t.console(), "cutoff       hit\n10         50.0%\n");
        assert_eq!(t.csv_header(), "cutoff_ms,hit_rate");
        assert_eq!(t.csv, ["10,0.5000"]);
    }
}

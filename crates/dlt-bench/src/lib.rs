//! Shared helpers for the experiment binaries.
//!
//! Each `src/bin/eNN_*.rs` binary regenerates one table or figure of
//! the paper (see DESIGN.md §4 for the index and EXPERIMENTS.md for the
//! paper-vs-measured record). The binaries print fixed-width text
//! tables via [`Table`] and open with [`banner`], whose returned
//! [`Report`] guard mirrors every printed table into a JSON file when
//! `DLT_JSON_OUT` is set (CI smoke tests parse that file).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod faults;
pub mod shardnet;
pub mod trace;

use std::cell::RefCell;

use dlt_testkit::json::Json;

/// Prints one simulation's dispatch hash to stdout as
/// `dispatch_hash[<label>]=0x…`, the run's behaviour fingerprint. Run
/// the same experiment twice and diff the hash lines to check
/// run-to-run determinism of the full dispatch schedule.
pub fn print_dispatch_hash<M, N: dlt_sim::engine::SimNode<M>>(
    label: &str,
    sim: &dlt_sim::engine::Simulation<M, N>,
) {
    println!("dispatch_hash[{label}]=0x{:016x}", sim.dispatch_hash());
}

thread_local! {
    /// Tables printed so far on this thread, captured for [`Report`].
    static PRINTED_TABLES: RefCell<Vec<Json>> = const { RefCell::new(Vec::new()) };
}

/// A minimal fixed-width text-table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(row);
        self
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (cell, width) in cells.iter().zip(widths) {
                line.push_str(&format!(" {cell:<width$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let mut sep = String::from("|");
        for width in &widths {
            sep.push_str(&format!("{}|", "-".repeat(width + 2)));
        }
        out.push_str(&sep);
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout and records it for the active
    /// [`Report`] (if any) so `DLT_JSON_OUT` captures it.
    pub fn print(&self) {
        print!("{}", self.render());
        let json = Json::object([
            (
                "headers",
                Json::Array(
                    self.headers
                        .iter()
                        .map(|h| Json::String(h.clone()))
                        .collect(),
                ),
            ),
            (
                "rows",
                Json::Array(
                    self.rows
                        .iter()
                        .map(|row| {
                            Json::Array(row.iter().map(|c| Json::String(c.clone())).collect())
                        })
                        .collect(),
                ),
            ),
        ]);
        PRINTED_TABLES.with(|tables| tables.borrow_mut().push(json));
    }
}

/// Formats a byte count with a binary-ish human unit.
pub fn human_bytes(bytes: f64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut value = bytes;
    let mut unit = 0;
    while value >= 1000.0 && unit < UNITS.len() - 1 {
        value /= 1000.0;
        unit += 1;
    }
    format!("{value:.2} {}", UNITS[unit])
}

/// Prints an experiment banner and returns the guard that writes the
/// machine-readable report on exit.
///
/// Bind the result for the whole of `main` (`let _report = banner(...)`)
/// so every table printed afterwards lands in the JSON file.
#[must_use = "bind as `let _report = banner(...)` so the JSON report is written on exit"]
pub fn banner(id: &str, title: &str, paper_ref: &str) -> Report {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper: {paper_ref}");
    println!("==============================================================");
    PRINTED_TABLES.with(|tables| tables.borrow_mut().clear());
    Report {
        id: id.to_string(),
        title: title.to_string(),
        paper_ref: paper_ref.to_string(),
    }
}

/// Whether `DLT_SMOKE` asks for tiny parameters (CI smoke runs).
///
/// Experiments with long-running sweeps scale their workloads down
/// when this is set; the output keeps its structure, only the
/// statistics get noisier.
pub fn smoke() -> bool {
    std::env::var_os("DLT_SMOKE").is_some_and(|v| !v.is_empty())
}

/// Prints a lighter divider for a second act within one experiment.
pub fn section(title: &str) {
    println!("--------------------------------------------------------------");
    println!("{title}");
    println!("--------------------------------------------------------------");
}

/// Guard returned by [`banner`]: on drop, writes the experiment id and
/// all tables printed since the banner as JSON to the path named by the
/// `DLT_JSON_OUT` environment variable (no-op when unset or empty).
///
/// The JSON is deterministic — object keys are sorted and table rows
/// keep print order — so a seeded experiment run twice produces
/// byte-identical files.
pub struct Report {
    id: String,
    title: String,
    paper_ref: String,
}

impl Drop for Report {
    fn drop(&mut self) {
        let Ok(path) = std::env::var("DLT_JSON_OUT") else {
            return;
        };
        if path.is_empty() {
            return;
        }
        let tables = PRINTED_TABLES.with(|tables| tables.borrow_mut().split_off(0));
        let json = Json::object([
            ("id", Json::String(self.id.clone())),
            ("title", Json::String(self.title.clone())),
            ("paper", Json::String(self.paper_ref.clone())),
            ("tables", Json::Array(tables)),
        ]);
        if let Err(err) = std::fs::write(&path, format!("{json}\n")) {
            eprintln!("warning: could not write {path}: {err}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer-name", "200"]);
        let text = t.render();
        assert!(text.contains("| name        | value |"));
        assert!(text.contains("| longer-name | 200   |"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn bytes_humanised() {
        assert_eq!(human_bytes(512.0), "512.00 B");
        assert_eq!(human_bytes(1_500.0), "1.50 KB");
        assert_eq!(human_bytes(145.95e9), "145.95 GB");
    }
}

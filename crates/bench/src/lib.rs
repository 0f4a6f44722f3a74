#![forbid(unsafe_code)]
//! Shared harness utilities for the experiment binaries that regenerate
//! the paper's tables and figures (see DESIGN.md §4 for the index).

pub mod cli;
pub mod heatmap;
pub mod report;
pub mod serve_report;
pub mod sizes;
pub mod stability;
pub mod table;

pub use cli::Args;
pub use heatmap::{polluted_count, polluted_rows, render_heatmap};
pub use report::{cores, merge_records, parse_bench_json, write_bench_json, Record, Value};
pub use serve_report::{loadgen_records, service_records};
pub use sizes::{paper_sizes, scaled_sizes, smoke};
pub use table::{pct, sci, Table};

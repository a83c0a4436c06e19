//! The `scenario` CLI: lists and runs named scenario suites.
//!
//! ```text
//! cargo run --release --bin scenario -- list
//! cargo run --release --bin scenario -- run --suite paper
//! cargo run --release --bin scenario -- trace events.jsonl --out trace.json
//! ```
//!
//! All logic lives in [`ga_scenario::cli`]; this shim only exists so the
//! binary is runnable from the workspace root package.

fn main() {
    std::process::exit(ga_scenario::cli::main(std::env::args().skip(1).collect()));
}

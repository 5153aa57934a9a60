//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a provenance header, a readable report and, as its last line,
//! one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. Exits non-zero without a result line when it cannot run.

fn main() {
    let result =
        perfbench::run::parse_args(std::env::args().skip(1)).and_then(perfbench::run::main);
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}

//! Crashes one strict-DL row of `fault::strict::ROWS` at every k-th
//! persist point of its script and checks each recovery (see
//! `fault::strict`). Prints the report; exits 1 on any lost key,
//! failed `validate` or hang.
//!
//! `strict_sweep --row <name> [--inserts N] [--stride K] [--torn SEED]`
//! (defaults: 150 inserts, every point, plain crashes).

use fault::strict::ROWS;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = |flag: &str| {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        })
    };
    let number = |flag: &str, default: u64| {
        arg(flag).map_or(default, |v| {
            htm_sim::rng::parse_seed(v)
                .unwrap_or_else(|| panic!("{flag} takes a number, got {v:?}"))
        })
    };
    let row = arg("--row").map(String::as_str).unwrap_or_default();
    let Some((_, sweep)) = ROWS.iter().find(|(name, _)| *name == row) else {
        let names: Vec<&str> = ROWS.iter().map(|(name, _)| *name).collect();
        eprintln!("--row must be one of {names:?}");
        std::process::exit(2);
    };
    let torn = arg("--torn").map(|_| number("--torn", 0));
    fault::silence_crash_panics();
    let report = sweep(number("--inserts", 150), torn, number("--stride", 1));
    println!("{report}");
    if !report.ok() {
        std::process::exit(1);
    }
}

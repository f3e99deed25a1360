//! The repo benchmark: one run of one workload per invocation.
//!
//! ```text
//! bdhtm-benchmark --workload NAME --seed N --seconds S --trace 0|1
//!                 [--smoke] [--out DIR] | --list
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; a human-readable
//! table of the same metrics goes to standard error. The exit code is
//! non-zero when any check failed. See `benchmark/README.md`.

mod metrics;
mod probes;
mod run;
mod stats;
mod store;
mod trace;
mod workload;

use metrics::Metric;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workload::{Spec, WORKLOADS};

/// `--smoke` divides the window and the operation counts by this.
const SMOKE_DIVISOR: u64 = 20;

struct Args {
    spec: Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, 1u64, 12.0f64, false, false);
    let mut out = PathBuf::from("benchmark/out");
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--list" => {
                for spec in WORKLOADS {
                    println!("{}", spec.name);
                }
                return Ok(None);
            }
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required (see --list)")?;
    let mut spec = Spec::by_name(&name).ok_or(format!("unknown workload {name} (see --list)"))?;
    if !(seconds.is_finite() && (0.05..=60.0).contains(&seconds)) {
        return Err(format!(
            "--seconds must be between 0.05 and 60, not {seconds}"
        ));
    }
    if smoke {
        spec = spec.scaled_down(SMOKE_DIVISOR);
        seconds /= SMOKE_DIVISOR as f64;
    }
    Ok(Some(Args {
        spec,
        seed,
        seconds,
        trace,
        out,
    }))
}

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("bdhtm-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let spec = &args.spec;
    let mut tracer = Tracer::new(args.trace);
    let mut data = run::run(spec, args.seed, args.seconds, &mut tracer);

    let metrics = if args.trace {
        let mut m = metrics::per_layer(&mut data);
        m.extend(probes::all(spec, args.seed, &mut tracer, None));
        m
    } else {
        metrics::end_to_end(&mut data)
    };

    if args.trace {
        let pid = 1 + WORKLOADS
            .iter()
            .position(|w| w.name == spec.name)
            .unwrap_or(0);
        let written = std::fs::create_dir_all(&args.out)
            .and_then(|()| {
                tracer.write(
                    &args.out.join(format!("{}.trace.json", spec.name)),
                    spec.name,
                    pid,
                )
            })
            .and_then(|()| {
                std::fs::write(
                    args.out.join(format!("{}.flight.json", spec.name)),
                    data.flight_trace.take().unwrap_or_default(),
                )
            });
        if let Err(e) = written {
            eprintln!(
                "bdhtm-benchmark: writing traces to {}: {e}",
                args.out.display()
            );
            return ExitCode::FAILURE;
        }
    }

    let window = &data.window;
    eprintln!(
        "{}  seed {}  {} ops in {:.2} s ({} slices{})  attempted {}  failed {}",
        spec.name,
        args.seed,
        window.ops,
        window.secs,
        window.slices.len(),
        if window.exhausted {
            ", key space exhausted"
        } else {
            ""
        },
        data.attempted,
        data.failed
    );
    for m in &metrics {
        eprintln!("  {:<36} {:>18.4} {}", m.name, m.value, m.unit);
    }
    for e in &data.errors {
        eprintln!("  FAILED: {e}");
    }
    let correct = data.failed == 0;
    println!(
        "{}",
        result_json(correct, data.attempted, data.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdhtm_core::JsonValue;

    /// BENCHMARK.json and the harness name the same workloads, and a run
    /// prints exactly the metrics (and units) the file lists: the
    /// end-to-end ones untraced, the per-layer ones traced.
    #[test]
    fn benchmark_json_matches_what_a_run_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = JsonValue::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str, field: &str| -> Vec<String> {
            let entries = json.get(key).and_then(|v| v.as_arr()).unwrap();
            entries
                .iter()
                .map(|e| e.get(field).and_then(|v| v.as_str()).unwrap().to_string())
                .collect()
        };
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(listed("workloads", "name"), ours);

        let spec = Spec::by_name("skiplist-update-optane")
            .unwrap()
            .scaled_down(100);
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let mut tracer = Tracer::new(trace);
            let mut data = run::run(&spec, 1, 0.3, &mut tracer);
            assert_eq!(data.failed, 0, "{:?}", data.errors);
            let printed = if trace {
                let mut m = metrics::per_layer(&mut data);
                m.extend(probes::all(&spec, 1, &mut tracer, None));
                m
            } else {
                metrics::end_to_end(&mut data)
            };
            let mut printed: Vec<(String, String)> = printed
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            let mut wanted: Vec<(String, String)> = listed(key, "name")
                .into_iter()
                .zip(listed(key, "unit"))
                .collect();
            printed.sort();
            wanted.sort();
            assert_eq!(printed, wanted, "{key}");
        }
    }
}

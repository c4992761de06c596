//! Benchmark entry point:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sanity_low_activity --seed 1 --seconds 5 --trace 0
//! ```
//!
//! Prints a context line (host fingerprint and sizes), then, as the last
//! line, `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).

use std::path::Path;
use std::process::ExitCode;

use gatspi_perfbench::report::result_line;
use gatspi_perfbench::workload::{Scale, Workload};
use gatspi_perfbench::{run, BenchResult, RunConfig};

fn parse_args() -> BenchResult<RunConfig> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse()?),
            "--seconds" => seconds = Some(value.parse::<f64>()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`").into()),
                });
            }
            _ => return Err(format!("unknown option `{flag}`").into()),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(RunConfig {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
        scale: Scale::Full,
        out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|cfg| {
        std::fs::create_dir_all(&cfg.out_dir)?;
        run(&cfg)
    });
    match result {
        Ok(outcome) => {
            if let Some(path) = &outcome.trace_file {
                eprintln!("trace written to {}", path.display());
            }
            println!("{{\"context\": {}}}", outcome.context);
            println!(
                "{}",
                result_line(outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::FAILURE
        }
    }
}

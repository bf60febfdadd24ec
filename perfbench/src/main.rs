//! The FaaSMem simulator's benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload offload_mix --seed 12001 --seconds 55 --trace 0
//! ```
//!
//! Runs one workload (see [`workloads`]) in rounds for `--seconds` host
//! seconds, at least [`MIN_ROUNDS`] times. Each round sets up every cell
//! (trace synthesis, platform and policy build), repeated back to back,
//! then runs, summarizes and exports each cell. Set-up and the timed
//! phase are timed apart: set-up as the median over every repeat of the
//! run, the timed phase as the median over rounds. Each round prints one
//! line to stderr.
//!
//! `--trace 0` reports the end-to-end metrics from untraced rounds.
//! `--trace 1` alternates untraced rounds with traced ones — every
//! policy wrapped in the benchmark's timing decorator, every call into a
//! layer timed — and, where the workload's instruments are on, rounds
//! with them off; it reports the per-layer metrics and the overhead of
//! the tracing and of the instruments.
//!
//! Every cell's output is checked, and every round must reproduce the
//! first round's simulated statistics. The last line of standard output
//! is one JSON object: `correct`, `attempted` and `failed` (cells over
//! all rounds), and `metrics`.

mod report;
mod round;
mod timed;
mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use faasmem_trace::JsonValue;
use report::{evaluate, Evaluation};
use round::{run_round, Mode};
use workloads::{Workload, NAMES};

/// Untraced rounds a `--trace 0` run makes however short `--seconds`.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The result line. Numbers keep all their digits; a non-finite metric
/// (which `JsonValue` writes as `null`) has already made the run incorrect.
fn json_line(eval: &Evaluation) -> String {
    let mut metrics = JsonValue::obj();
    for m in &eval.metrics {
        let mut entry = JsonValue::obj();
        entry
            .push("value", JsonValue::Num(m.value))
            .push("unit", JsonValue::Str(m.unit.to_string()));
        metrics.push(&m.name, entry);
    }
    let mut line = JsonValue::obj();
    line.push("correct", JsonValue::Bool(eval.correct))
        .push("attempted", JsonValue::Num(eval.attempted as f64))
        .push("failed", JsonValue::Num(eval.failed as f64))
        .push("metrics", metrics);
    line.to_compact()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let modes: &[Mode] = match (args.trace, workload.instruments) {
        (false, _) => &[Mode::Plain],
        (true, false) => &[Mode::Plain, Mode::Traced],
        (true, true) => &[Mode::Plain, Mode::Traced, Mode::Bare],
    };

    // Each cell's panic is caught and reported as that cell's failure;
    // keep the default hook's backtrace noise off the report.
    std::panic::set_hook(Box::new(|info| eprintln!("perfbench: {info}")));

    // A traced run makes at least one cycle of its modes. No cycle
    // starts that the previous one's length says would overrun the budget.
    let min_cycles = if args.trace { 1 } else { MIN_ROUNDS };
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut rounds = Vec::new();
    let mut cycles = 0;
    let mut last_cycle = Duration::ZERO;
    while cycles < min_cycles || started.elapsed() + last_cycle <= budget {
        let cycle_started = Instant::now();
        for &mode in modes {
            let mut round = run_round(&workload, mode);
            eprintln!(
                "round {:>3} {:<6} setup {:.6} s, timed {:.4} s, {:.1} sim_s/s",
                rounds.len(),
                format!("{mode:?}"),
                round.setup_s(),
                round.timed_s,
                round.sim_s() / round.timed_s
            );
            // Only the first round of each mode keeps its per-request
            // samples, so host memory does not grow with the round count.
            if rounds.iter().any(|r: &round::Round| r.mode == mode) {
                round.drop_samples();
            }
            rounds.push(round);
        }
        cycles += 1;
        last_cycle = cycle_started.elapsed();
    }

    let mut eval = evaluate(&workload, args.seed, &rounds, args.trace);
    for m in &eval.metrics {
        if !m.value.is_finite() {
            eval.correct = false;
            let why = format!("FAILED metric {} is not finite: {}", m.name, m.value);
            eval.lines.push(why);
        }
    }
    for line in &eval.lines {
        println!("{line}");
    }
    for m in &eval.metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!(" ({})", m.note)
        };
        println!("{:<44} {:>18.6} {}{note}", m.name, m.value, m.unit);
    }
    println!("{}", json_line(&eval));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use faasmem_trace::json;

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        match doc.get(key) {
            Some(JsonValue::Arr(items)) => items,
            other => panic!("BENCHMARK.json {key}: expected an array, got {other:?}"),
        }
    }

    fn field(entry: &JsonValue, key: &str) -> String {
        entry
            .get(key)
            .and_then(JsonValue::as_str)
            .unwrap_or_else(|| panic!("entry without {key}: {entry:?}"))
            .to_string()
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_benchmark_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");

        let workloads: Vec<String> = entries(&doc, "workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, NAMES);

        let mut w = Workload::build("offload_mix", 1).expect("known workload");
        w.groups.truncate(1);
        let rounds = vec![run_round(&w, Mode::Plain), run_round(&w, Mode::Traced)];
        for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
            let listed: Vec<(String, String)> = entries(&doc, key)
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect();
            let reported: Vec<(String, String)> = evaluate(&w, 1, &rounds, traced)
                .metrics
                .into_iter()
                .map(|m| (m.name, m.unit.to_string()))
                .collect();
            assert_eq!(listed, reported, "{key}");
        }
    }
}

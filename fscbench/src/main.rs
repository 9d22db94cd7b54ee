//! The repository benchmark.
//!
//! ```text
//! fscbench --workload <paper-stream|serve-ingest|serve-mixed> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload against the public APIs of `fsc`, `fsc-engine` and
//! `fsc-serve`, checks every answer against an exact oracle, and prints one
//! JSON line as the last line of standard output: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  A
//! readable report goes to standard error.  The exit code is non-zero when any
//! check fails.  See `README.md` next to this file.

mod paper;
mod replay;
mod report;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Metrics, Outcome};
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Untraced,
    Traced,
}

/// The exact results of one pass: a fixed seed reproduces them bit-for-bit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    pub items: u64,
    pub state_changes: u64,
    pub word_writes: u64,
    pub peak_words: u64,
    pub durable_bytes: u64,
    /// The estimate's relative error against ground truth, compared
    /// bit-for-bit.
    pub rel_error_bits: u64,
}

impl Counts {
    pub fn report(&self, m: &mut Metrics) {
        let items = self.items as f64;
        m.set(
            "state_changes_per_item",
            self.state_changes as f64 / items,
            "count",
        );
        m.set(
            "word_writes_per_item",
            self.word_writes as f64 / items,
            "count",
        );
        m.set("peak_words", self.peak_words as f64, "words");
        m.set(
            "durable_bytes_per_item",
            self.durable_bytes as f64 / items,
            "B",
        );
    }

    pub fn rel_error(&self) -> f64 {
        f64::from_bits(self.rel_error_bits)
    }
}

/// Every end-to-end metric, as `BENCHMARK.json` lists them.
const END_TO_END: &[(&str, &str)] = &[
    ("items_per_s", "1/s"),
    ("write_us_p50", "us"),
    ("read_us_p50", "us"),
    ("read_us_p90", "us"),
    ("ok_rate", "ratio"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("state_changes_per_item", "count"),
    ("word_writes_per_item", "count"),
    ("peak_words", "words"),
    ("durable_bytes_per_item", "B"),
];

/// End-to-end timings whose traced-minus-untraced difference is reported.
const TIMED: &[&str] = &[
    "items_per_s",
    "write_us_p50",
    "read_us_p50",
    "read_us_p90",
    "setup_s",
    "recovery_s",
];

/// Layers that spans are attributed to (the part of a span name before `:`).
const LAYERS: &[&str] = &[
    "fsc",
    "baselines",
    "state",
    "engine",
    "serve.protocol",
    "serve.wal",
    "serve.storage",
    "serve.server",
    "serve.client",
];

/// Every per-layer metric, as `BENCHMARK.json` lists them.  A workload that
/// never calls a layer reports 0 for that layer's metrics.
const PER_LAYER: &[(&str, &str)] = &[
    ("fsc.fp_ns_per_item", "ns"),
    ("fsc.hh_ns_per_item", "ns"),
    ("fsc.sah_ns_per_item", "ns"),
    ("fsc.fsah_ns_per_item", "ns"),
    ("fsc.query_moment_us", "us"),
    ("fsc.query_hh_us", "us"),
    ("fsc.fp_rel_error", "ratio"),
    ("state.delta_encode_us", "us"),
    ("state.delta_bytes", "B"),
    ("state.reads_per_item", "count"),
    ("state.redundant_writes_per_item", "count"),
    ("baselines.count_min_ns_per_item", "ns"),
    ("baselines.count_min_rel_error", "ratio"),
    ("engine.ingest_us", "us"),
    ("engine.refresh_view_us", "us"),
    ("engine.checkpoint_bytes", "B"),
    ("engine.rebuilds_per_write", "ratio"),
    ("engine.rebuilds_read_ratio", "ratio"),
    ("engine.view_serve_us", "us"),
    ("engine.restore_us", "us"),
    ("serve.storage.load_us", "us"),
    ("serve.wal.replay_us", "us"),
    ("serve.protocol.decode_us", "us"),
    ("serve.protocol.encode_us", "us"),
    ("serve.protocol.bytes_per_item", "B"),
    ("serve.wal.append_us", "us"),
    ("serve.wal.bytes_per_item", "B"),
    ("serve.wal.fsync_us_p50", "us"),
    ("serve.wal.fsync_us_p99", "us"),
    ("serve.wal.fsyncs", "count"),
    ("serve.wal.fsyncs_per_write", "ratio"),
    ("serve.storage.persist_us", "us"),
    ("serve.write_layers_us", "us"),
    ("serve.frontend_us", "us"),
    ("serve.read_frontend_us", "us"),
    ("client.retries", "count"),
    ("client.overloaded", "count"),
    ("client.reconnects", "count"),
    ("serve.write_us_p99", "us"),
    ("serve.write_samples", "count"),
    ("serve.read_us_p99", "us"),
    ("serve.read_samples", "count"),
    ("fsc.self_ns_per_item", "ns"),
    ("baselines.self_ns_per_item", "ns"),
    ("state.self_ns_per_item", "ns"),
    ("engine.self_ns_per_item", "ns"),
    ("serve.protocol.self_ns_per_item", "ns"),
    ("serve.wal.self_ns_per_item", "ns"),
    ("serve.storage.self_ns_per_item", "ns"),
    ("serve.server.self_ns_per_item", "ns"),
    ("serve.client.self_ns_per_item", "ns"),
    ("trace.overhead.items_per_s", "1/s"),
    ("trace.overhead.write_us_p50", "us"),
    ("trace.overhead.read_us_p50", "us"),
    ("trace.overhead.read_us_p90", "us"),
    ("trace.overhead.setup_s", "s"),
    ("trace.overhead.recovery_s", "s"),
];

/// Adds each layer's self time per item (`items` is the work the spans cover).
pub fn self_times(tr: &Tracer, items: f64, m: &mut Metrics) {
    for (layer, ns) in tr.self_time_ns() {
        debug_assert!(LAYERS.contains(&layer), "span layer {layer} is not listed");
        m.set(format!("{layer}.self_ns_per_item"), ns / items, "ns");
    }
}

/// The tracing overhead: traced minus untraced, for each end-to-end timing.
pub fn overhead(untraced: &Metrics, traced: &Metrics, m: &mut Metrics) {
    for (name, unit) in END_TO_END.iter().filter(|(n, _)| TIMED.contains(n)) {
        let diff = traced.get(name).unwrap_or(0.0) - untraced.get(name).unwrap_or(0.0);
        m.set(format!("trace.overhead.{name}"), diff, unit);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    mode: Mode,
}

const USAGE: &str = "usage: fscbench --workload <paper-stream|serve-ingest|serve-mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut mode) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| bad())?)
                    .filter(|s| *s > 0.0 && s.is_finite())
            }
            "--trace" => {
                mode = match value.as_str() {
                    "0" => Some(Mode::Untraced),
                    "1" => Some(Mode::Traced),
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds must be a positive number")?,
        mode: mode.ok_or("--trace is required")?,
    })
}

/// Keeps exactly the listed metrics, in list order.  A listed metric the
/// workload did not produce is 0 when `fill` (a layer it never calls) and a
/// failure otherwise; an unlisted one is a failure.
fn canonical(
    m: &Metrics,
    listed: &[(&str, &'static str)],
    fill: bool,
    out: &mut Outcome,
) -> Metrics {
    let mut keep = Metrics::default();
    for &(name, unit) in listed {
        let value = m.get(name);
        out.check(value.is_some() || fill, || {
            format!("metric {name} was not measured")
        });
        let value = value.unwrap_or(0.0);
        out.check(value.is_finite(), || format!("metric {name} is {value}"));
        keep.set(name, if value.is_finite() { value } else { 0.0 }, unit);
    }
    for (name, _, _) in m.iter() {
        out.check(listed.iter().any(|(n, _)| n == name), || {
            format!("metric {name} is not listed")
        });
    }
    keep
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let data = served::DataDir(here.join(".data").join(format!(
        "{}-{}",
        args.workload,
        std::process::id()
    )));
    let mut out = Outcome::default();
    let (measured, tracers): (Metrics, Vec<(&str, Tracer)>) = match args.workload.as_str() {
        "paper-stream" => {
            let (m, tr) = paper::run(args.seed, args.seconds, args.mode, &mut out);
            (m, vec![("spans", tr)])
        }
        "serve-ingest" => served::run(
            served::INGEST,
            args.seed,
            args.seconds,
            args.mode,
            &data.0,
            &mut out,
        ),
        "serve-mixed" => served::run(
            served::MIXED,
            args.seed,
            args.seconds,
            args.mode,
            &data.0,
            &mut out,
        ),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    drop(data);
    // Leaves `.data` only while another run still uses it.
    let _ = std::fs::remove_dir(here.join(".data"));

    let metrics = match args.mode {
        Mode::Untraced => {
            let mut m = canonical(&measured, END_TO_END, false, &mut out);
            // ok_rate is final only now that every check has run.
            m.replace("ok_rate", out.ok_rate());
            m
        }
        Mode::Traced => {
            let m = canonical(&measured, PER_LAYER, true, &mut out);
            for (name, tr) in &tracers {
                let path: PathBuf = here
                    .join("traces")
                    .join(format!("{}-{name}.tsv", args.workload));
                if let Err(e) = tr.write(&path) {
                    out.check(false, || format!("writing {}: {e}", path.display()));
                } else {
                    eprintln!("spans written to {}", path.display());
                }
            }
            m
        }
    };

    eprintln!(
        "{} seed {} ({:?}): {} operations, {} failed",
        args.workload, args.seed, args.mode, out.attempted, out.failed
    );
    for (name, value, unit) in metrics.iter() {
        eprintln!("  {name:<36} {value:>16.6} {unit}");
    }
    for f in out.failures() {
        eprintln!("FAILED: {f}");
    }
    println!("{}", metrics.to_json(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists here and in `BENCHMARK.json` name the same metrics.
    #[test]
    fn lists_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let quoted = |name: &str| format!("\"name\": \"{name}\"");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&quoted(name)),
                "{name} missing from BENCHMARK.json"
            );
            let entry = format!("{}, \"unit\": \"{unit}\"", quoted(name));
            assert!(json.contains(&entry), "{name}: unit {unit} differs");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for layer in LAYERS {
            let name = format!("{layer}.self_ns_per_item");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
    }
}

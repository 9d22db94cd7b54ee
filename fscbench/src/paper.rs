//! `paper-stream`: the paper's algorithms used in-process, as a library.
//!
//! One thread feeds a Zipf(1.1) stream over `n = 2^16` through the registry's
//! `fp_estimator` and `few_state_heavy_hitters` in 4096-item batches.  Every 64
//! batches it polls `Query::Moment` and `Query::HeavyHitters` and appends a
//! `checkpoint_delta` of each algorithm to a delta chain.  A pass ends with
//! exact checks against `FrequencyVector` ground truth and a restore of both
//! algorithms from their chains.  Every pass ingests the same stream from fresh
//! instances, so the counts of one pass repeat bit-for-bit.

use std::time::{Duration, Instant};

use fsc::{FewStateHeavyHitters, FpEstimator, Params};
use fsc_bench::registry::{spec, MakeCtx};
use fsc_state::delta::{BaseRef, CheckpointChain};
use fsc_state::{Answer, Query, Queryable, Snapshot, StateReport, StreamAlgorithm};
use fsc_streamgen::zipf::zipf_stream;
use fsc_streamgen::FrequencyVector;

use crate::report::{Metrics, Outcome};
use crate::stats::{mean_over, Samples};
use crate::trace::Tracer;
use crate::{Counts, Mode};

const UNIVERSE: usize = 1 << 16;
const ZIPF_S: f64 = 1.1;
const BATCH: usize = 4096;
const POLL_EVERY: usize = 64;
/// Items per pass: eight polls of 64 batches.
const PASS_ITEMS: usize = 8 * POLL_EVERY * BATCH;
/// The registry's accuracy targets for `fp_estimator` and
/// `few_state_heavy_hitters` (`fsc_bench::registry`).
const FP_EPS: f64 = 0.3;
const HH_EPS: f64 = 0.25;
/// Constructions timed per pass; the median of all of them is `setup_s`.
const SETUP_SAMPLES: usize = 5;
/// Restores from the delta chains timed per pass; their median is `recovery_s`.
const RECOVERY_SAMPLES: usize = 3;

/// The generated input and its exact answers.
struct Input {
    stream: Vec<u64>,
    f2: f64,
    l2: f64,
    heavy: Vec<u64>,
}

fn fp_params() -> Params {
    Params::new(2.0, FP_EPS, UNIVERSE, PASS_ITEMS)
}

fn hh_params() -> Params {
    Params::new(2.0, HH_EPS, UNIVERSE, PASS_ITEMS)
}

/// One pass's timings and exact results.
struct Pass {
    setup: Samples,
    elapsed_s: f64,
    write_us: Samples,
    read_us: Samples,
    recovery_s: Samples,
    counts: Counts,
    reads: u64,
    redundant_writes: u64,
    delta_bytes: Samples,
}

fn moment(alg: &FpEstimator) -> f64 {
    alg.query(&Query::Moment).scalar().unwrap_or(f64::NAN)
}

fn run_pass(input: &Input, tr: &mut Tracer, out: &mut Outcome) -> Pass {
    let mut setup = Samples::default();
    let mut built = None;
    for _ in 0..SETUP_SAMPLES {
        let t = Instant::now();
        let fp = FpEstimator::new(fp_params());
        let hh = FewStateHeavyHitters::new(hh_params());
        let fp_chain = CheckpointChain::new(fp.checkpoint(), 0);
        let hh_chain = CheckpointChain::new(hh.checkpoint(), 0);
        setup.push(t.elapsed().as_secs_f64());
        built = Some((fp, hh, fp_chain, hh_chain));
    }
    let (mut fp, mut hh, fp_chain, hh_chain) = built.expect("at least one construction");
    let mut fp_chain = fp_chain.expect("a fresh checkpoint is a valid chain base");
    let mut hh_chain = hh_chain.expect("a fresh checkpoint is a valid chain base");

    let mut write_us = Samples::default();
    let mut read_us = Samples::default();
    let mut delta_bytes = Samples::default();
    let start = Instant::now();
    for (b, batch) in input.stream.chunks(BATCH).enumerate() {
        let req = b as u64;
        let t = Instant::now();
        tr.leaf("fsc:fp.process_batch", req, || fp.process_batch(batch));
        tr.leaf("fsc:hh.process_batch", req, || hh.process_batch(batch));
        write_us.push_us(t.elapsed());
        out.completed(1);
        if (b + 1) % POLL_EVERY != 0 {
            continue;
        }
        let t = Instant::now();
        let f2 = tr.leaf("fsc:query.moment", req, || moment(&fp));
        let threshold = 0.5 * HH_EPS * f2.max(0.0).sqrt();
        let answer = tr.leaf("fsc:query.heavy_hitters", req, || {
            hh.query(&Query::HeavyHitters { threshold })
        });
        read_us.push_us(t.elapsed());
        out.check(
            f2.is_finite() && matches!(answer, Answer::ItemWeights(_)),
            || format!("poll {b}: moment {f2}, heavy hitters {answer:?}"),
        );
        for (alg, chain) in [
            (&fp as &dyn Snapshot, &mut fp_chain),
            (&hh as &dyn Snapshot, &mut hh_chain),
        ] {
            let base = BaseRef::new(chain.tip_bytes().to_vec(), chain.tip_epoch());
            let delta = tr.leaf("state:checkpoint_delta", req, || {
                alg.checkpoint_delta(&base)
            });
            let appended = delta.map_err(|e| e.to_string()).and_then(|d| {
                delta_bytes.push(d.len() as f64);
                tr.leaf("state:chain.append", req, || chain.append_delta(d))
                    .map_err(|e| e.to_string())
            });
            out.check(appended.is_ok(), || format!("poll {b}: delta {appended:?}"));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    // Recovery: both algorithms back from base + deltas, answering identically.
    let mut recovery_s = Samples::default();
    let mut restored = None;
    for _ in 0..RECOVERY_SAMPLES {
        let t = Instant::now();
        restored = Some(tr.leaf("state:chain.restore", 0, || {
            (
                fp_chain.restore::<FpEstimator>(),
                hh_chain.restore::<FewStateHeavyHitters>(),
            )
        }));
        recovery_s.push(t.elapsed().as_secs_f64());
    }
    match restored.expect("at least one restore") {
        (Ok(fp2), Ok(hh2)) => {
            out.check(fp2.checkpoint() == fp.checkpoint(), || {
                "fp_estimator restored from its chain differs from the live one".into()
            });
            out.check(hh2.checkpoint() == hh.checkpoint(), || {
                "few_state_heavy_hitters restored from its chain differs".into()
            });
        }
        (fp2, hh2) => out.check(false, || {
            format!("chain restore failed: {:?} / {:?}", fp2.err(), hh2.err())
        }),
    }

    // Oracle: F2 within the estimator's epsilon, every exact heavy hitter found.
    let estimate = moment(&fp);
    let rel_error = (estimate - input.f2).abs() / input.f2;
    out.check(rel_error <= FP_EPS, || {
        format!(
            "F2 estimate {estimate} vs exact {} (rel error {rel_error})",
            input.f2
        )
    });
    let threshold = 0.5 * HH_EPS * input.l2;
    let reported: Vec<u64> = match hh.query(&Query::HeavyHitters { threshold }) {
        Answer::ItemWeights(w) => w.into_iter().map(|(i, _)| i).collect(),
        _ => Vec::new(),
    };
    let missed: Vec<u64> = input
        .heavy
        .iter()
        .copied()
        .filter(|i| !reported.contains(i))
        .collect();
    out.check(missed.is_empty(), || {
        format!("heavy hitters missed: {missed:?}")
    });

    let (fr, hr) = (fp.report(), hh.report());
    let sum = |f: fn(&StateReport) -> u64| f(&fr) + f(&hr);
    Pass {
        setup,
        elapsed_s,
        write_us,
        read_us,
        recovery_s,
        counts: Counts {
            items: input.stream.len() as u64,
            state_changes: sum(|r| r.state_changes),
            word_writes: sum(|r| r.word_writes),
            peak_words: (fr.words_peak + hr.words_peak) as u64,
            durable_bytes: delta_bytes.sum() as u64,
            rel_error_bits: rel_error.to_bits(),
        },
        reads: sum(|r| r.reads),
        redundant_writes: sum(|r| r.redundant_writes),
        delta_bytes,
    }
}

/// The end-to-end metrics of a set of passes.  Latency percentiles are taken
/// per pass and averaged over the passes, so a run that straddles a change in
/// host speed reads as the mix it saw rather than jumping to either side.
fn end_to_end(passes: &[Pass], out: &Outcome) -> Metrics {
    let mut setup = Samples::default();
    let mut recovery = Samples::default();
    for p in passes {
        setup.extend(&p.setup);
        recovery.extend(&p.recovery_s);
    }
    let items: f64 = passes.iter().map(|p| p.counts.items as f64).sum();
    let seconds: f64 = passes.iter().map(|p| p.elapsed_s).sum();
    let mut m = Metrics::default();
    m.set("items_per_s", items / seconds, "1/s");
    m.set(
        "write_us_p50",
        mean_over(passes, |p| p.write_us.median()),
        "us",
    );
    m.set(
        "read_us_p50",
        mean_over(passes, |p| p.read_us.median()),
        "us",
    );
    m.set(
        "read_us_p90",
        mean_over(passes, |p| p.read_us.quantile(0.9)),
        "us",
    );
    m.set("ok_rate", out.ok_rate(), "ratio");
    m.set("setup_s", setup.median(), "s");
    m.set("recovery_s", recovery.median(), "s");
    passes[0].counts.report(&mut m);
    m
}

fn prepare(seed: u64) -> Input {
    let stream = zipf_stream(UNIVERSE, PASS_ITEMS, ZIPF_S, seed);
    let truth = FrequencyVector::from_stream(&stream);
    Input {
        f2: truth.fp(2.0),
        l2: truth.lp(2.0),
        heavy: truth
            .heavy_hitters(2.0, HH_EPS)
            .into_iter()
            .map(|(i, _)| i)
            .collect(),
        stream,
    }
}

/// Whether the algorithms built here are the registry's: same geometry and
/// seeds, so byte-identical fresh checkpoints.
fn check_registry_twins(out: &mut Outcome) {
    let ctx = MakeCtx::new(UNIVERSE, PASS_ITEMS);
    for (id, ours) in [
        ("fp_estimator", FpEstimator::new(fp_params()).checkpoint()),
        (
            "few_state_heavy_hitters",
            FewStateHeavyHitters::new(hh_params()).checkpoint(),
        ),
    ] {
        let twin = spec(id).map(|s| (s.snapshot)(&ctx).checkpoint());
        out.check(twin.as_deref() == Some(&ours[..]), || {
            format!("{id}: benchmark construction differs from the registry's")
        });
    }
}

/// Runs passes until `budget` has elapsed (at least one), checking that every
/// pass reproduces the first one's counts.
fn passes(input: &Input, budget: Duration, tr: &mut Tracer, out: &mut Outcome) -> Vec<Pass> {
    let start = Instant::now();
    let mut done: Vec<Pass> = Vec::new();
    while done.is_empty() || start.elapsed() < budget {
        let pass = run_pass(input, tr, out);
        if let Some(first) = done.first() {
            out.check(pass.counts == first.counts, || {
                format!(
                    "pass counts differ: {:?} vs {:?}",
                    pass.counts, first.counts
                )
            });
        }
        done.push(pass);
    }
    done
}

pub fn run(seed: u64, seconds: f64, mode: Mode, out: &mut Outcome) -> (Metrics, Tracer) {
    let input = prepare(seed);
    check_registry_twins(out);
    match mode {
        Mode::Untraced => {
            let mut tr = Tracer::new(false);
            let done = passes(&input, Duration::from_secs_f64(seconds), &mut tr, out);
            (end_to_end(&done, out), tr)
        }
        Mode::Traced => {
            let half = Duration::from_secs_f64(seconds / 2.0);
            let plain = passes(&input, half, &mut Tracer::new(false), out);
            let mut tr = Tracer::new(true);
            let traced = passes(&input, half, &mut tr, out);
            let base = end_to_end(&plain, out);
            let with_spans = end_to_end(&traced, out);
            let items = (traced.len() * PASS_ITEMS) as f64;

            let mut m = Metrics::default();
            let ns_per_item = |name| tr.durations_us(name).sum() * 1e3 / items;
            m.set(
                "fsc.fp_ns_per_item",
                ns_per_item("fsc:fp.process_batch"),
                "ns",
            );
            m.set(
                "fsc.hh_ns_per_item",
                ns_per_item("fsc:hh.process_batch"),
                "ns",
            );
            building_blocks(&input, &mut m);
            m.set(
                "fsc.query_moment_us",
                tr.durations_us("fsc:query.moment").median(),
                "us",
            );
            m.set(
                "fsc.query_hh_us",
                tr.durations_us("fsc:query.heavy_hitters").median(),
                "us",
            );
            m.set(
                "state.delta_encode_us",
                tr.durations_us("state:checkpoint_delta").median(),
                "us",
            );
            let first = &traced[0];
            m.set("fsc.fp_rel_error", first.counts.rel_error(), "ratio");
            m.set("state.delta_bytes", first.delta_bytes.median(), "B");
            let per_item = first.counts.items as f64;
            m.set(
                "state.reads_per_item",
                first.reads as f64 / per_item,
                "count",
            );
            m.set(
                "state.redundant_writes_per_item",
                first.redundant_writes as f64 / per_item,
                "count",
            );
            crate::self_times(&tr, items, &mut m);
            crate::overhead(&base, &with_spans, &mut m);
            (m, tr)
        }
    }
}

/// The two building blocks of the paper's algorithms, standalone from the
/// registry, over the same stream: `ns_per_item` of their batch kernels.
fn building_blocks(input: &Input, m: &mut Metrics) {
    let ctx = MakeCtx::new(UNIVERSE, PASS_ITEMS);
    for (id, name) in [
        ("sample_and_hold", "fsc.sah_ns_per_item"),
        ("full_sample_and_hold", "fsc.fsah_ns_per_item"),
    ] {
        let mut alg = (spec(id).expect("registry entry").make)(&ctx);
        let t = Instant::now();
        for batch in input.stream.chunks(BATCH) {
            alg.process_batch(batch);
        }
        m.set(
            name,
            t.elapsed().as_nanos() as f64 / input.stream.len() as f64,
            "ns",
        );
    }
}

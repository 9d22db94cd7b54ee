//! `serve-ingest` and `serve-mixed`: the served write path over TCP.
//!
//! An in-process `fsc_serve::Server` (default `ServerConfig`: ack after apply,
//! group commit 8) serves one 2-shard `count_min` tenant to one closed-loop
//! connection, because per-tenant ingest is request/response with consecutive
//! sequence numbers.  A pass provisions a fresh server and tenant, sends
//! 1224 batches with a `Checkpoint` after each of the first four runs of 256,
//! so every pass ends exactly 200 batches after a checkpoint and crash recovery
//! always replays the same 200-record journal.  The pass then crashes the
//! server, restarts it over the same directory, and checks every answer
//! against a registry twin fed the acked batches.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use fsc_bench::registry::{serve_factory, spec, MakeCtx};
use fsc_engine::{DynEngine, EngineConfig};
use fsc_serve::{Client, ClientConfig, ClientCounters, EngineFactory, Server, ServerConfig};
use fsc_state::{Answer, Query};
use fsc_streamgen::zipf::zipf_stream;
use fsc_streamgen::FrequencyVector;

use crate::replay;
use crate::report::{Metrics, Outcome};
use crate::stats::{mean_over, Samples};
use crate::trace::Tracer;
use crate::{Counts, Mode};

pub const ALGORITHM: &str = "count_min";
pub const SHARDS: u32 = 2;
pub const TENANT: &str = "bench";
pub const CHECKPOINT_EVERY: usize = 256;
pub const CHECKPOINTS: usize = 4;
/// Batches after the last checkpoint: the journal every recovery replays.
pub const TAIL: usize = 200;
pub const BATCHES: usize = CHECKPOINT_EVERY * CHECKPOINTS + TAIL;
const UNIVERSE: usize = 1 << 16;
const ZIPF_S: f64 = 1.1;
/// Keys read back after every pass and after every recovery.
const CHECK_KEYS: usize = 256;

/// The two served workloads: batch size and point reads after each batch.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub batch: usize,
    pub reads_per_batch: usize,
}

pub const INGEST: Shape = Shape {
    batch: 1024,
    reads_per_batch: 0,
};

pub const MIXED: Shape = Shape {
    batch: 256,
    reads_per_batch: 4,
};

/// Whether batch `i` (0-based) is followed by a checkpoint.
pub fn checkpoint_after(i: usize) -> bool {
    (i + 1).is_multiple_of(CHECKPOINT_EVERY) && i < CHECKPOINT_EVERY * CHECKPOINTS
}

/// The generated input and what the registry twin answers on it.
pub struct Input {
    pub shape: Shape,
    pub stream: Vec<u64>,
    /// Keys read after the pass (the most frequent half, then seeded draws).
    pub check_keys: Vec<u64>,
    /// Twin answers: every read after batch `i`, in order.
    pub read_answers: Vec<f64>,
    /// Twin answers for `check_keys` after the whole pass.
    pub final_answers: Vec<f64>,
    pub twin: Box<dyn DynEngine>,
    pub estimate_rel_error: f64,
}

impl Input {
    pub fn batches(&self) -> std::slice::Chunks<'_, u64> {
        self.stream.chunks(self.shape.batch)
    }
}

/// The keys read after batch `items` was acked: evenly spaced positions.
pub fn read_keys(shape: Shape, items: &[u64]) -> impl Iterator<Item = u64> + '_ {
    let step = shape.batch / shape.reads_per_batch.max(1);
    (0..shape.reads_per_batch).map(move |j| items[j * step])
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        shards: SHARDS as usize,
        ..EngineConfig::default()
    }
}

pub fn registry_engine(factory: &EngineFactory) -> Box<dyn DynEngine> {
    factory(ALGORITHM, engine_config()).expect("count_min has an engine factory")
}

fn point(engine: &dyn DynEngine, key: u64) -> f64 {
    engine
        .query(&Query::Point(key))
        .ok()
        .and_then(|a| a.scalar())
        .unwrap_or(f64::NAN)
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn prepare(shape: Shape, seed: u64, factory: &EngineFactory) -> Input {
    let stream = zipf_stream(UNIVERSE, BATCHES * shape.batch, ZIPF_S, seed);
    let truth = FrequencyVector::from_stream(&stream);
    let mut check_keys: Vec<u64> = truth
        .top_k(CHECK_KEYS / 2)
        .into_iter()
        .map(|(k, _)| k)
        .collect();
    let mut state = seed ^ 0x5EED_CAFE;
    while check_keys.len() < CHECK_KEYS {
        check_keys.push(stream[(splitmix(&mut state) % stream.len() as u64) as usize]);
    }

    let mut twin = registry_engine(factory);
    let mut read_answers = Vec::with_capacity(BATCHES * shape.reads_per_batch);
    for items in stream.chunks(shape.batch) {
        twin.ingest(items);
        for key in read_keys(shape, items) {
            read_answers.push(point(twin.as_ref(), key));
        }
    }
    let final_answers: Vec<f64> = check_keys
        .iter()
        .map(|&k| point(twin.as_ref(), k))
        .collect();
    let (mut err, mut total) = (0.0, 0.0);
    for (&k, &est) in check_keys.iter().zip(&final_answers) {
        let f = truth.frequency(k) as f64;
        err += (est - f).abs();
        total += f;
    }
    Input {
        shape,
        stream,
        check_keys,
        read_answers,
        final_answers,
        twin,
        estimate_rel_error: err / total,
    }
}

/// One pass's timings and exact results.
struct Pass {
    setup_s: f64,
    elapsed_s: f64,
    write_us: Samples,
    read_us: Samples,
    recovery_s: f64,
    counts: Counts,
    rebuilds_per_write: f64,
    counters: ClientCounters,
}

/// A data directory that is removed when dropped.
pub struct DataDir(pub PathBuf);

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn delta_file_bytes(tenant_dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(tenant_dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("delta-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

fn add_counters(total: &mut ClientCounters, c: &ClientCounters) {
    total.retried_requests += c.retried_requests;
    total.retries += c.retries;
    total.overloaded += c.overloaded;
    total.reconnects += c.reconnects;
    total.duplicate_acks += c.duplicate_acks;
}

/// Reads every check key and checks each answer against the twin's.
fn read_check_keys(
    client: &mut Client,
    input: &Input,
    when: &str,
    read_us: &mut Samples,
    tr: &mut Tracer,
    out: &mut Outcome,
) {
    for (&key, &want) in input.check_keys.iter().zip(&input.final_answers) {
        let t = Instant::now();
        let got = tr.leaf("serve.client:query", key, || {
            client.query(TENANT, Query::Point(key))
        });
        read_us.push_us(t.elapsed());
        out.check(matches!(got, Ok(Answer::Scalar(v)) if v == want), || {
            format!("{when}: key {key} served {got:?}, twin {want}")
        });
    }
}

fn run_pass(
    input: &Input,
    factory: &EngineFactory,
    dir: &Path,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Option<Pass> {
    let shape = input.shape;
    let t = Instant::now();
    let started = Server::start("127.0.0.1:0", ServerConfig::new(dir), factory.clone());
    let Ok((server, boot)) = started else {
        out.check(false, || format!("server start: {:?}", started.err()));
        return None;
    };
    let mut client = Client::new(server.addr(), ClientConfig::default());
    let created = client.create_tenant(TENANT, ALGORITHM, SHARDS);
    let setup_s = t.elapsed().as_secs_f64();
    out.check(boot.tenants.is_empty() && created.is_ok(), || {
        format!("provisioning: boot {boot:?}, create {created:?}")
    });

    let mut write_us = Samples::default();
    let mut read_us = Samples::default();
    let mut answers = input.read_answers.iter();
    let start = Instant::now();
    for (i, items) in input.batches().enumerate() {
        let seq = i as u64;
        let t = Instant::now();
        let acked = tr.leaf("serve.client:ingest", seq, || {
            client.ingest(TENANT, seq, items)
        });
        write_us.push_us(t.elapsed());
        out.check(matches!(acked, Ok(true)), || {
            format!("ingest {seq}: {acked:?}")
        });
        for key in read_keys(shape, items) {
            let want = answers.next().copied();
            let t = Instant::now();
            let got = tr.leaf("serve.client:query", seq, || {
                client.query(TENANT, Query::Point(key))
            });
            read_us.push_us(t.elapsed());
            out.check(
                matches!(got, Ok(Answer::Scalar(v)) if Some(v) == want),
                || format!("batch {seq} key {key}: served {got:?}, twin {want:?}"),
            );
        }
        if checkpoint_after(i) {
            let done = tr.leaf("serve.client:checkpoint", seq, || client.checkpoint(TENANT));
            out.check(done.is_ok(), || format!("checkpoint after {seq}: {done:?}"));
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();

    read_check_keys(&mut client, input, "after the pass", &mut read_us, tr, out);
    let stats = client.stats(TENANT);
    let status = client.status();
    let (rebuilds_per_write, wal_bytes) = match (&stats, &status) {
        (Ok(s), Ok(st)) if s.next_seq == BATCHES as u64 && st.tenants.len() == 1 => (
            s.rebuilds as f64 / s.next_seq as f64,
            st.tenants[0].wal_appended_bytes,
        ),
        _ => {
            out.check(false, || format!("stats {stats:?}, status {status:?}"));
            (0.0, 0)
        }
    };
    let durable_bytes = wal_bytes + delta_file_bytes(&dir.join(TENANT));
    let mut counters = client.counters;
    drop(client);
    server.crash();

    // Recovery: restart over the same directory, until the tenant answers.
    let t = Instant::now();
    let restarted = Server::start("127.0.0.1:0", ServerConfig::new(dir), factory.clone());
    let Ok((server, boot)) = restarted else {
        out.check(false, || format!("restart: {:?}", restarted.err()));
        return None;
    };
    let mut client = Client::new(server.addr(), ClientConfig::default());
    let first = client.query(TENANT, Query::Point(input.check_keys[0]));
    let recovery_s = t.elapsed().as_secs_f64();
    out.check(
        first.is_ok() && boot.is_clean() && boot.recovered() == 1,
        || format!("recovery: first answer {first:?}, report {boot:?}"),
    );
    let mut recovered_reads = Samples::default();
    read_check_keys(
        &mut client,
        input,
        "after recovery",
        &mut recovered_reads,
        tr,
        out,
    );
    let resumed = client.stats(TENANT).map(|s| s.next_seq);
    out.check(matches!(resumed, Ok(n) if n == BATCHES as u64), || {
        format!("recovered cursor {resumed:?}, acked {BATCHES}")
    });
    add_counters(&mut counters, &client.counters);
    drop(client);
    server.crash();

    let report = input.twin.report();
    Some(Pass {
        setup_s,
        elapsed_s,
        write_us,
        read_us,
        recovery_s,
        counts: Counts {
            items: input.stream.len() as u64,
            state_changes: report.state_changes,
            word_writes: report.word_writes,
            peak_words: report.words_peak as u64,
            durable_bytes,
            rel_error_bits: input.estimate_rel_error.to_bits(),
        },
        rebuilds_per_write,
        counters,
    })
}

fn passes(
    input: &Input,
    factory: &EngineFactory,
    root: &Path,
    budget: Duration,
    tr: &mut Tracer,
    out: &mut Outcome,
) -> Vec<Pass> {
    let start = Instant::now();
    let mut done: Vec<Pass> = Vec::new();
    let mut attempts = 0;
    while attempts == 0 || start.elapsed() < budget {
        let dir = DataDir(root.join(format!("pass-{attempts}")));
        attempts += 1;
        let Some(pass) = run_pass(input, factory, &dir.0, tr, out) else {
            break;
        };
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

struct Summary {
    metrics: Metrics,
    write_us: Samples,
    read_us: Samples,
}

/// The end-to-end metrics of a set of passes, as in `paper::end_to_end`:
/// latency percentiles per pass, averaged over the passes.
fn summarize(passes: &[Pass], out: &Outcome) -> Summary {
    let mut setup = Samples::default();
    let mut recovery = Samples::default();
    let mut write = Samples::default();
    let mut read = Samples::default();
    for p in passes {
        setup.push(p.setup_s);
        recovery.push(p.recovery_s);
        write.extend(&p.write_us);
        read.extend(&p.read_us);
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
    if let Some(first) = passes.first() {
        first.counts.report(&mut m);
    }
    Summary {
        metrics: m,
        write_us: write,
        read_us: read,
    }
}

pub fn run(
    shape: Shape,
    seed: u64,
    seconds: f64,
    mode: Mode,
    root: &Path,
    out: &mut Outcome,
) -> (Metrics, Vec<(&'static str, Tracer)>) {
    let factory = serve_factory();
    let input = prepare(shape, seed, &factory);
    match mode {
        Mode::Untraced => {
            let mut tr = Tracer::new(false);
            let budget = Duration::from_secs_f64(seconds);
            let done = passes(&input, &factory, root, budget, &mut tr, out);
            if done.is_empty() {
                return (Metrics::default(), Vec::new());
            }
            (summarize(&done, out).metrics, Vec::new())
        }
        Mode::Traced => {
            // Untraced and traced client passes share the budget; the
            // in-process replay of one pass follows.
            let half = Duration::from_secs_f64(seconds * 0.4);
            let plain = passes(&input, &factory, root, half, &mut Tracer::new(false), out);
            let mut client_tr = Tracer::new(true);
            let traced = passes(&input, &factory, root, half, &mut client_tr, out);
            if plain.is_empty() || traced.is_empty() {
                return (Metrics::default(), Vec::new());
            }
            let base = summarize(&plain, out);
            let with_spans = summarize(&traced, out);

            let mut m = Metrics::default();
            let replay_dir = DataDir(root.join("replay"));
            let replay_tr =
                replay::run(&input, &factory, &replay_dir.0, &base.metrics, &mut m, out);
            m.set(
                "engine.rebuilds_per_write",
                plain[0].rebuilds_per_write,
                "ratio",
            );
            let report = input.twin.report();
            let items = input.stream.len() as f64;
            m.set("state.reads_per_item", report.reads as f64 / items, "count");
            m.set(
                "state.redundant_writes_per_item",
                report.redundant_writes as f64 / items,
                "count",
            );
            m.set(
                "baselines.count_min_ns_per_item",
                count_min_ns_per_item(&input),
                "ns",
            );
            m.set(
                "baselines.count_min_rel_error",
                input.estimate_rel_error,
                "ratio",
            );
            let mut counters = ClientCounters::default();
            for p in plain.iter().chain(&traced) {
                add_counters(&mut counters, &p.counters);
            }
            m.set("client.retries", counters.retries as f64, "count");
            m.set("client.overloaded", counters.overloaded as f64, "count");
            m.set("client.reconnects", counters.reconnects as f64, "count");
            m.set("serve.write_us_p99", base.write_us.quantile(0.99), "us");
            m.set("serve.write_samples", base.write_us.len() as f64, "count");
            m.set("serve.read_us_p99", base.read_us.quantile(0.99), "us");
            m.set("serve.read_samples", base.read_us.len() as f64, "count");

            crate::self_times(&client_tr, items * traced.len() as f64, &mut m);
            crate::self_times(&replay_tr, items, &mut m);
            crate::overhead(&base.metrics, &with_spans.metrics, &mut m);
            (m, vec![("client", client_tr), ("replay", replay_tr)])
        }
    }
}

/// The registry's standalone `count_min` (the geometry `serve_factory` gives
/// each shard) over the served batches: its batch kernel alone, per item.
fn count_min_ns_per_item(input: &Input) -> f64 {
    let spec = spec(ALGORITHM).expect("count_min is registered");
    let mut alg = (spec.make)(&MakeCtx::new(1 << 12, 1 << 14));
    let mut ns = 0u128;
    for items in input.batches() {
        let t = Instant::now();
        alg.process_batch(items);
        ns += t.elapsed().as_nanos();
    }
    ns as f64 / input.stream.len() as f64
}

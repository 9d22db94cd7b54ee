//! In-process replay of one served pass, for the traced run.
//!
//! The server has no spans of its own yet, so the traced run replays the
//! identical request sequence through the same public calls, in the order the
//! server's write path makes them: `Request::decode` → `Wal::append` →
//! `Wal::maybe_sync(8)` → `DynEngine::ingest` → `DynEngine::refresh_view` →
//! `Response::encode`.  Reads go `Request::decode` → `ServeHandle::serve` →
//! `Response::encode`; checkpoints take the persist path (engine checkpoint,
//! `encode_delta`, chain append, `TenantStorage::append_delta`,
//! `Wal::truncate`); recovery takes `load_tenant` → `restore_from` →
//! `Wal::open` plus journal replay.  What the client sees beyond the sum of
//! these steps is the front-end: socket, thread wake-up, tenant lock.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use fsc_engine::{DynEngine, ServeHandle};
use fsc_serve::storage::{load_tenant, TenantMeta, TenantSnapshot, TenantStorage};
use fsc_serve::{EngineFactory, FaultPlan, Request, Response, Wal};
use fsc_state::delta::{encode_delta, CheckpointChain};
use fsc_state::Query;

use crate::report::{Metrics, Outcome};
use crate::served::{
    checkpoint_after, read_keys, registry_engine, Input, ALGORITHM, SHARDS, TENANT,
};
use crate::stats::Samples;
use crate::trace::Tracer;

/// The server's default group-commit window (`ServerConfig::new`).
const GROUP_COMMIT: u64 = 8;

/// One tenant's server-side state, held by the replay instead of a server.
struct Tenant {
    engine: Box<dyn DynEngine>,
    /// The lock-free reader face the server keeps per tenant.
    serve: Arc<dyn ServeHandle>,
    next_seq: u64,
    chain: CheckpointChain,
    storage: TenantStorage,
    wal: Wal,
}

fn provision(factory: &EngineFactory, root: &Path) -> Result<Tenant, String> {
    let engine = registry_engine(factory);
    engine.refresh_view().map_err(|e| e.to_string())?;
    let base = TenantSnapshot {
        next_seq: 0,
        epoch: 0,
        engine: engine.checkpoint(),
    };
    let meta = TenantMeta {
        algorithm: ALGORITHM.to_string(),
        shards: SHARDS,
    };
    let storage = TenantStorage::create(root, TENANT, &meta, &base, &FaultPlan::none())
        .map_err(|e| e.to_string())?;
    let wal = Wal::create(storage.dir()).map_err(|e| e.to_string())?;
    let chain = CheckpointChain::new(base.encode(), 0).map_err(|e| e.to_string())?;
    Ok(Tenant {
        serve: engine.serve_handle(),
        engine,
        next_seq: 0,
        chain,
        storage,
        wal,
    })
}

/// The persist path of a `Checkpoint` request.
fn persist(t: &mut Tenant, tr: &mut Tracer, delta_bytes: &mut Samples) -> Result<(), String> {
    let req = t.next_seq;
    let span = tr.begin("serve.storage:persist", req);
    let engine = tr.leaf("engine:checkpoint", req, || t.engine.checkpoint());
    let full = TenantSnapshot {
        next_seq: t.next_seq,
        epoch: t.next_seq,
        engine,
    }
    .encode();
    let (tip, tip_epoch) = (t.chain.tip_bytes(), t.chain.tip_epoch());
    let delta = tr.leaf("state:encode_delta", req, || {
        encode_delta(tip, &full, tip_epoch, req)
    });
    let result = delta.map_err(|e| e.to_string()).and_then(|delta| {
        delta_bytes.push(delta.len() as f64);
        tr.leaf("state:chain.append", req, || {
            t.chain.append_delta(delta.clone())
        })
        .map_err(|e| e.to_string())?;
        let faults = FaultPlan::none();
        tr.leaf("serve.storage:append_delta", req, || {
            t.storage.append_delta(&delta, &faults)
        })
        .map_err(|e| e.to_string())?;
        tr.leaf("serve.wal:truncate", req, || t.wal.truncate())
            .map_err(|e| e.to_string())
    });
    tr.end(span);
    result
}

/// Tracks whether each view rebuild was read before the next one.
#[derive(Default)]
struct RebuildUse {
    rebuilds: u64,
    read: u64,
    pending: bool,
}

impl RebuildUse {
    fn rebuilt(&mut self) {
        self.rebuilds += 1;
        self.pending = true;
    }

    fn served(&mut self) {
        if self.pending {
            self.read += 1;
            self.pending = false;
        }
    }
}

fn read(
    t: &Tenant,
    key: u64,
    want: f64,
    req: u64,
    tr: &mut Tracer,
    uses: &mut RebuildUse,
) -> Result<(), String> {
    let frame = Request::Query {
        tenant: TENANT.into(),
        query: Query::Point(key),
    }
    .encode();
    let decoded = tr.leaf("serve.protocol:decode_query", req, || {
        Request::decode(&frame)
    });
    let Ok(Request::Query { query, .. }) = decoded else {
        return Err(format!("query frame decoded to {decoded:?}"));
    };
    let answer = tr.leaf("engine:serve", req, || t.serve.serve(&query));
    uses.served();
    let Some(answer) = answer else {
        return Err(format!("key {key}: nothing published"));
    };
    let got = answer.scalar();
    tr.leaf("serve.protocol:encode_answer", req, || {
        Response::Answer(answer).encode()
    });
    match got {
        Some(v) if v == want => Ok(()),
        _ => Err(format!("key {key}: replay served {got:?}, twin {want}")),
    }
}

/// Replays one pass; sets the replay's per-layer metrics on `m`.  `client`
/// holds the untraced end-to-end metrics the front-end residuals come from.
pub fn run(
    input: &Input,
    factory: &EngineFactory,
    root: &Path,
    client: &Metrics,
    m: &mut Metrics,
    out: &mut Outcome,
) -> Tracer {
    let mut tr = Tracer::new(true);
    let mut t = match provision(factory, root) {
        Ok(t) => t,
        Err(e) => {
            out.check(false, || format!("replay provisioning: {e}"));
            return tr;
        }
    };
    let mut uses = RebuildUse::default();
    uses.rebuilt();
    let mut fsync_us = Samples::default();
    let mut delta_bytes = Samples::default();
    let mut frame_bytes = 0usize;
    let mut answers = input.read_answers.iter();
    let faults = FaultPlan::none();

    for (i, items) in input.batches().enumerate() {
        let req = i as u64;
        let frame = Request::Ingest {
            tenant: TENANT.into(),
            seq: req,
            items: items.to_vec(),
        }
        .encode();
        frame_bytes += frame.len() + 4;
        let decoded = tr.leaf("serve.protocol:decode_ingest", req, || {
            Request::decode(&frame)
        });
        let Ok(Request::Ingest { seq, items, .. }) = decoded else {
            out.check(false, || {
                format!("ingest frame {req} decoded to {decoded:?}")
            });
            return tr;
        };
        let appended = tr.leaf("serve.wal:append", req, || {
            t.wal.append(seq, &items, &faults)
        });
        let synced_before = t.wal.synced_len();
        let clock = Instant::now();
        let synced = tr.leaf("serve.wal:maybe_sync", req, || {
            t.wal.maybe_sync(GROUP_COMMIT)
        });
        if t.wal.synced_len() != synced_before {
            fsync_us.push_us(clock.elapsed());
        }
        tr.leaf("engine:ingest", req, || t.engine.ingest(&items));
        t.next_seq += 1;
        let rebuilt = tr.leaf("engine:refresh_view", req, || t.engine.refresh_view());
        if matches!(rebuilt, Ok(true)) {
            uses.rebuilt();
        }
        tr.leaf("serve.protocol:encode_ack", req, || {
            Response::IngestAck { seq, applied: true }.encode()
        });
        out.check(
            appended.is_ok() && synced.is_ok() && rebuilt.is_ok(),
            || {
                format!(
                    "replay batch {req}: append {appended:?}, sync {synced:?}, view {rebuilt:?}"
                )
            },
        );
        for key in read_keys(input.shape, &items) {
            let want = answers.next().copied().unwrap_or(f64::NAN);
            let r = read(&t, key, want, req, &mut tr, &mut uses);
            out.check(r.is_ok(), || format!("replay batch {req}: {r:?}"));
        }
        if checkpoint_after(i) {
            let r = persist(&mut t, &mut tr, &mut delta_bytes);
            out.check(r.is_ok(), || {
                format!("replay checkpoint after {req}: {r:?}")
            });
        }
    }
    for (&key, &want) in input.check_keys.iter().zip(&input.final_answers) {
        let r = read(&t, key, want, t.next_seq, &mut tr, &mut uses);
        out.check(r.is_ok(), || format!("replay final read: {r:?}"));
    }
    let live = t.engine.checkpoint();
    let wal_bytes = t.wal.appended_bytes();
    let items = input.stream.len() as f64;
    let writes = input.batches().len() as f64;

    // Crash: drop the in-memory tenant, then recover it from disk.
    drop(t);
    let span = tr.begin("serve.server:recover", 0);
    let recovered = recover(factory, root, &mut tr);
    tr.end(span);
    match recovered {
        Ok(engine) => out.check(engine.checkpoint() == live, || {
            "replay recovery differs from the live engine".into()
        }),
        Err(e) => out.check(false, || format!("replay recovery: {e}")),
    }

    let p50 = |name: &str| tr.durations_us(name).median();
    let write_path: f64 = [
        "serve.protocol:decode_ingest",
        "serve.wal:append",
        "serve.wal:maybe_sync",
        "engine:ingest",
        "engine:refresh_view",
        "serve.protocol:encode_ack",
    ]
    .iter()
    .map(|n| p50(n))
    .sum();
    let read_path: f64 = [
        "serve.protocol:decode_query",
        "engine:serve",
        "serve.protocol:encode_answer",
    ]
    .iter()
    .map(|n| p50(n))
    .sum();

    m.set("engine.ingest_us", p50("engine:ingest"), "us");
    m.set("engine.refresh_view_us", p50("engine:refresh_view"), "us");
    m.set("engine.checkpoint_bytes", live.len() as f64, "B");
    m.set(
        "engine.rebuilds_read_ratio",
        uses.read as f64 / uses.rebuilds as f64,
        "ratio",
    );
    m.set("engine.view_serve_us", p50("engine:serve"), "us");
    m.set("engine.restore_us", p50("engine:restore"), "us");
    m.set("serve.storage.load_us", p50("serve.storage:load"), "us");
    m.set("serve.wal.replay_us", p50("serve.wal:replay"), "us");
    m.set(
        "serve.protocol.decode_us",
        p50("serve.protocol:decode_ingest"),
        "us",
    );
    m.set(
        "serve.protocol.encode_us",
        p50("serve.protocol:encode_ack"),
        "us",
    );
    m.set(
        "serve.protocol.bytes_per_item",
        frame_bytes as f64 / items,
        "B",
    );
    m.set("serve.wal.append_us", p50("serve.wal:append"), "us");
    m.set("serve.wal.bytes_per_item", wal_bytes as f64 / items, "B");
    m.set("serve.wal.fsync_us_p50", fsync_us.median(), "us");
    m.set("serve.wal.fsync_us_p99", fsync_us.quantile(0.99), "us");
    m.set("serve.wal.fsyncs", fsync_us.len() as f64, "count");
    m.set(
        "serve.wal.fsyncs_per_write",
        fsync_us.len() as f64 / writes,
        "ratio",
    );
    m.set(
        "serve.storage.persist_us",
        p50("serve.storage:persist"),
        "us",
    );
    m.set("state.delta_encode_us", p50("state:encode_delta"), "us");
    m.set("state.delta_bytes", delta_bytes.median(), "B");
    m.set("serve.write_layers_us", write_path, "us");
    let client_p50 = |name| client.get(name).unwrap_or(f64::NAN);
    m.set(
        "serve.frontend_us",
        client_p50("write_us_p50") - write_path,
        "us",
    );
    m.set(
        "serve.read_frontend_us",
        client_p50("read_us_p50") - read_path,
        "us",
    );
    tr
}

/// The server's recovery of one tenant, step by step.
fn recover(
    factory: &EngineFactory,
    root: &Path,
    tr: &mut Tracer,
) -> Result<Box<dyn DynEngine>, String> {
    let loaded = tr.leaf("serve.storage:load", 0, || load_tenant(root, TENANT))?;
    let mut engine = registry_engine(factory);
    tr.leaf("engine:restore", 0, || {
        engine.restore_from(&loaded.snapshot.engine)
    })
    .map_err(|e| e.to_string())?;
    let storage = TenantStorage::open(root, TENANT).map_err(|e| e.to_string())?;
    let span = tr.begin("serve.wal:replay", 0);
    let opened = Wal::open(storage.dir(), loaded.snapshot.next_seq);
    if let Ok((_, recovery)) = &opened {
        for record in &recovery.replay {
            tr.leaf("engine:ingest", record.seq, || engine.ingest(&record.items));
        }
    }
    tr.end(span);
    let (_, recovery) = opened.map_err(|e| e.to_string())?;
    if recovery.replay.len() != crate::served::TAIL {
        return Err(format!(
            "journal replayed {} records, expected {}",
            recovery.replay.len(),
            crate::served::TAIL
        ));
    }
    tr.leaf("engine:refresh_view", 0, || engine.refresh_view())
        .map_err(|e| e.to_string())?;
    Ok(engine)
}

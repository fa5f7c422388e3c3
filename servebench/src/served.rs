//! The end-to-end phase: the release `mileena-server` binary as a child
//! process, driven through `TcpWire` by at most two client threads, with
//! every reply checked against the in-process reference answer.

use crate::server::{dir_bytes, Server};
use crate::stats::{mean, ms};
use crate::workload::{Kind, Workload};
use mileena_core::wire::WireRegisterRequest;
use mileena_core::{
    CentralPlatform, PlatformConfig, PlatformService, ProviderUpload, SearchReply, ShardedPlatform,
    StoragePolicy, TcpWire, WIRE_VERSION,
};
use mileena_search::{SearchConfig, SketchedRequest};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Kill/respawn cycles per run; `restart_ms` is their median.
const RESTART_REPS: usize = 15;
/// The volatile workloads' register latency comes from re-registering the
/// first `REREGISTER` uploads into each respawned server, each sent
/// `REREGISTER_PAUSE` after the previous reply: fifteen windows, each in a
/// fresh process. Paced, every upload meets an idle server, as one does on
/// `ingest_sharded`. Sent back to back, `private_repeat`'s latency had two
/// modes (0.17 and 0.28 ms) by where the scheduler put the client and
/// server threads; sent on a fixed schedule, how many uploads found the
/// server idle depended on how fast the machine ran that minute. The
/// pauses also stretch the samples over seconds of the machine's drift in
/// speed rather than the 0.2 s unpaced windows took.
const REREGISTER: usize = 100;
const REREGISTER_PAUSE: Duration = Duration::from_millis(3);
/// Closed-loop clients of the search-only workloads (the machine's cores).
const CLIENTS: usize = 2;

/// One open-loop upload: its index among the timed uploads, how late it
/// was sent and its latency from its due time (ms), and its outcome.
struct Upload {
    index: usize,
    lag_ms: f64,
    latency_ms: f64,
    result: Result<(), String>,
}

/// Where a run keeps its files: the server binary and a scratch directory
/// inside the checkout.
pub struct Env {
    pub server_bin: PathBuf,
    pub work: PathBuf,
    pub seconds: u64,
}

/// One timed search as the client saw it.
struct Record {
    req: usize,
    wall: Duration,
    /// Timed uploads finished before the search was sent, and started
    /// before its reply arrived: the corpus it ran on holds a prefix of
    /// the timed uploads whose length lies in `lo..=hi`.
    lo: usize,
    hi: usize,
    reply: Result<SearchReply, String>,
}

/// Everything the end-to-end phase measured, plus what the traced phase
/// and the oracle need afterwards.
pub struct Served {
    pub setup_s: Vec<f64>,
    pub restart_ms: Vec<f64>,
    pub search_ms: Vec<f64>,
    pub searches_per_s: f64,
    pub register_ms: Vec<f64>,
    pub cpu_ms_per_op: f64,
    pub peak_rss_mb: f64,
    pub final_r2: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Observations for the run log that are not failures.
    pub notes: Vec<String>,
    pub queue_wait_ms: f64,
    pub run_ms: f64,
    pub unaccounted_ms: f64,
    pub gather_visits_per_search: f64,
    pub generator_lag_p90_ms: f64,
    pub storage_bytes_per_upload_byte: f64,
    pub reopen_ms: f64,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// Every upload the server holds at the end, in registration order.
    pub uploads: Vec<ProviderUpload>,
    /// In-process platform loaded with `uploads`.
    pub reference: Arc<CentralPlatform>,
    /// One server reply per request index, from the final corpus.
    pub final_replies: BTreeMap<usize, SearchReply>,
}

impl Served {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// The reference answer for a request: the in-process synchronous search.
pub fn reference_answer(
    platform: &CentralPlatform,
    request: &SketchedRequest,
    config: &SearchConfig,
) -> Result<SearchReply, String> {
    platform
        .search_sketched(request, config)
        .map(|r| SearchReply::from_outcome(&r.outcome, &r.model))
        .map_err(|e| e.to_string())
}

/// Bit-for-bit agreement on what a requester acts on: the committed steps
/// in order (augmentation and score after each) and the final score.
pub fn same_answer(a: &SearchReply, b: &SearchReply) -> bool {
    a.final_score.to_bits() == b.final_score.to_bits()
        && a.steps.len() == b.steps.len()
        && a.steps.iter().zip(&b.steps).all(|(x, y)| {
            x.augmentation == y.augmentation && x.score_after.to_bits() == y.score_after.to_bits()
        })
}

fn volatile_platform(uploads: &[ProviderUpload]) -> Result<CentralPlatform, String> {
    let platform = CentralPlatform::new(PlatformConfig::default());
    for u in uploads {
        platform.register(u.clone()).map_err(|e| format!("reference register: {e}"))?;
    }
    Ok(platform)
}

pub fn upload_wire_bytes(upload: &ProviderUpload) -> usize {
    serde_json::to_string(&WireRegisterRequest { v: WIRE_VERSION, upload: upload.clone() })
        .map_or(0, |s| s.len())
}

/// A live server with its client connection.
struct Live {
    server: Server,
    wire: TcpWire,
}

fn connect(server: Server) -> Result<Live, String> {
    let wire = TcpWire::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
    Ok(Live { server, wire })
}

fn search(wire: &TcpWire, w: &Workload, req: usize) -> Result<SearchReply, String> {
    wire.search(w.requests[req].clone(), Some(w.search.clone())).map_err(|e| e.to_string())
}

pub fn run(env: &Env, w: &Workload) -> Result<Served, String> {
    let durable = w.kind == Kind::IngestSharded;
    let log = env.work.join("server.log");
    let data_dir = |rep: usize| env.work.join(format!("data-{rep}"));

    // ---- set-up: prepare → spawn → register → first search, repeated ----
    let mut setup_s = Vec::new();
    let mut first_replies = Vec::new();
    let preload = &w.uploads[..w.preload];
    let mut live: Option<Live> = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = live.take() {
            previous.server.kill();
        }
        if durable && rep > 0 {
            let _ = std::fs::remove_dir_all(data_dir(rep - 1));
        }
        let started = Instant::now();
        let uploads = (0..w.preload)
            .map(|i| w.prepare_upload(i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("prepare_upload: {e}"))?;
        let dir = durable.then(|| data_dir(rep));
        let l = connect(Server::spawn(&env.server_bin, &w.server_args, dir.as_deref(), &log)?)?;
        for u in &uploads {
            l.wire.register(u.clone()).map_err(|e| format!("set-up register: {e}"))?;
        }
        first_replies.push(search(&l.wire, w, 0));
        setup_s.push(started.elapsed().as_secs_f64());
        if uploads != preload {
            return Err("prepare_upload is not deterministic across set-ups".into());
        }
        live = Some(l);
    }
    let live = live.expect("at least one set-up");

    let timed_uploads = &w.uploads[w.preload..];

    // ---- timed phase ----------------------------------------------------
    let gather_before = gather_visits(&live.wire);
    let cpu_before = live.server.cpu_time();
    let phase_start = Instant::now();
    let deadline = phase_start + Duration::from_secs(env.seconds);
    let records: Mutex<Vec<Record>> = Mutex::new(Vec::new());
    let next_distinct = AtomicUsize::new(1);
    let uploads_started = AtomicUsize::new(0);
    let uploads_done = AtomicUsize::new(0);
    let upload_results: Mutex<Vec<Upload>> = Mutex::new(Vec::new());
    let addr = live.server.addr;
    let searchers = if durable { 1 } else { CLIENTS };
    let pool_exhausted = AtomicBool::new(false);
    std::thread::scope(|scope| {
        for client in 0..searchers {
            let records = &records;
            let next_distinct = &next_distinct;
            let uploads_started = &uploads_started;
            let uploads_done = &uploads_done;
            let pool_exhausted = &pool_exhausted;
            scope.spawn(move || {
                let Ok(wire) = TcpWire::connect(addr) else {
                    records.lock().expect("records lock").push(Record {
                        req: 0,
                        wall: Duration::ZERO,
                        lo: 0,
                        hi: 0,
                        reply: Err("client connect failed".into()),
                    });
                    return;
                };
                let mut sent = 0usize;
                while Instant::now() < deadline {
                    let req = if w.distinct {
                        let i = next_distinct.fetch_add(1, Ordering::SeqCst);
                        if i >= w.requests.len() {
                            pool_exhausted.store(true, Ordering::SeqCst);
                            break;
                        }
                        i
                    } else {
                        (sent * searchers + client) % w.requests.len()
                    };
                    sent += 1;
                    let request = w.requests[req].clone();
                    let config = Some(w.search.clone());
                    let lo = uploads_done.load(Ordering::SeqCst);
                    let t = Instant::now();
                    let reply = wire.search(request, config).map_err(|e| e.to_string());
                    let wall = t.elapsed();
                    let hi = uploads_started.load(Ordering::SeqCst);
                    records.lock().expect("records lock").push(Record { req, wall, lo, hi, reply });
                }
            });
        }
        if durable {
            let upload_results = &upload_results;
            let uploads_started = &uploads_started;
            let uploads_done = &uploads_done;
            scope.spawn(move || {
                let Ok(wire) = TcpWire::connect(addr) else {
                    let result = Err("uploader connect failed".to_string());
                    let failed = Upload { index: 0, lag_ms: 0.0, latency_ms: 0.0, result };
                    upload_results.lock().expect("upload lock").push(failed);
                    return;
                };
                for (j, (upload, &at)) in timed_uploads.iter().zip(&w.arrivals).enumerate() {
                    let due = phase_start + Duration::from_secs_f64(at);
                    if due >= deadline {
                        break;
                    }
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let upload = upload.clone();
                    let lag_ms = ms(Instant::now().saturating_duration_since(due));
                    uploads_started.fetch_add(1, Ordering::SeqCst);
                    let result = wire.register(upload).map_err(|e| e.to_string());
                    let latency_ms = ms(Instant::now().saturating_duration_since(due));
                    uploads_done.fetch_add(1, Ordering::SeqCst);
                    let done = Upload { index: j, lag_ms, latency_ms, result };
                    upload_results.lock().expect("upload lock").push(done);
                }
            });
        }
    });
    let timed = phase_start.elapsed();
    let cpu = live.server.cpu_time().saturating_sub(cpu_before);
    let gather_after = gather_visits(&live.wire);
    let peak_rss_mb = live.server.peak_rss_mb();
    let records = records.into_inner().expect("records lock");
    let upload_results = upload_results.into_inner().expect("upload lock");

    let mut served = Served {
        setup_s,
        restart_ms: Vec::new(),
        search_ms: Vec::new(),
        searches_per_s: 0.0,
        register_ms: Vec::new(),
        cpu_ms_per_op: 0.0,
        peak_rss_mb,
        final_r2: 0.0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
        queue_wait_ms: 0.0,
        run_ms: 0.0,
        unaccounted_ms: 0.0,
        gather_visits_per_search: 0.0,
        generator_lag_p90_ms: 0.0,
        storage_bytes_per_upload_byte: 0.0,
        reopen_ms: 0.0,
        timed_s: timed.as_secs_f64(),
        uploads: Vec::new(),
        reference: Arc::new(CentralPlatform::new(PlatformConfig::default())),
        final_replies: BTreeMap::new(),
    };
    if pool_exhausted.load(Ordering::SeqCst) {
        // A platform fast enough to use up the pool ends the timed phase
        // early; the rates above are over the time it actually lasted.
        served.notes.push(format!(
            "the distinct-request pool of {} ran dry; the timed phase ended after {:.2} s",
            w.requests.len(),
            served.timed_s
        ));
    }

    // Timed uploads: the acknowledged ones, in order, join the corpus.
    let mut acked = vec![false; timed_uploads.len()];
    let mut lags = Vec::new();
    for u in &upload_results {
        served.attempted += 1;
        lags.push(u.lag_ms);
        match &u.result {
            Ok(()) => {
                acked[u.index] = true;
                served.register_ms.push(u.latency_ms);
            }
            Err(e) => served.fail(format!("timed register {}: {e}", u.index)),
        }
    }
    served.generator_lag_p90_ms = crate::stats::percentile(&lags, 0.9);

    let registered_timed = acked.iter().filter(|&&a| a).count();

    let ok: Vec<&SearchReply> = records.iter().filter_map(|r| r.reply.as_ref().ok()).collect();
    served.search_ms = records.iter().filter(|r| r.reply.is_ok()).map(|r| ms(r.wall)).collect();
    served.searches_per_s = ok.len() as f64 / timed.as_secs_f64();
    let ops = ok.len() + registered_timed;
    served.cpu_ms_per_op = if ops == 0 { 0.0 } else { ms(cpu) / ops as f64 };
    served.final_r2 = mean(&ok.iter().map(|r| r.final_score).collect::<Vec<_>>());
    served.queue_wait_ms =
        mean(&ok.iter().map(|r| r.spans.queue_wait_ns as f64 / 1e6).collect::<Vec<_>>());
    served.run_ms = mean(&ok.iter().map(|r| r.spans.run_ns as f64 / 1e6).collect::<Vec<_>>());
    served.unaccounted_ms = mean(
        &records
            .iter()
            .filter_map(|r| {
                r.reply.as_ref().ok().map(|reply| ms(r.wall) - reply.spans.total_ns as f64 / 1e6)
            })
            .collect::<Vec<_>>(),
    );
    served.gather_visits_per_search = if ok.is_empty() {
        0.0
    } else {
        gather_after.saturating_sub(gather_before) as f64 / ok.len() as f64
    };

    // ---- the final corpus once more, then restarts -------------------------
    // These replies are what the traced phase replays against.
    let final_searches: Vec<(usize, Result<SearchReply, String>)> =
        (0..w.requests.len().min(8)).map(|req| (req, search(&live.wire, w, req))).collect();
    // SIGKILL, respawn, banner, first search. A durable server reopens its
    // directory and must hold every acknowledged upload; a volatile one
    // comes back empty.
    let final_dir = data_dir(SETUP_REPS - 1);
    let mut restarts = Vec::new();
    let mut live = live;
    for _ in 0..RESTART_REPS {
        live.server.kill();
        let t = Instant::now();
        let dir = durable.then_some(final_dir.as_path());
        let l = connect(Server::spawn(&env.server_bin, &w.server_args, dir, &log)?)?;
        let first = search(&l.wire, w, 0);
        served.restart_ms.push(ms(t.elapsed()));
        restarts.push((first, l.wire.stats().map(|s| s.datasets).map_err(|e| e.to_string())));
        if !durable {
            for u in preload.iter().take(REREGISTER) {
                std::thread::sleep(REREGISTER_PAUSE);
                let u = u.clone();
                let t = Instant::now();
                served.attempted += 1;
                match l.wire.register(u) {
                    Ok(()) => served.register_ms.push(ms(t.elapsed())),
                    Err(e) => served.fail(format!("re-register after restart: {e}")),
                }
            }
        }
        live = l;
    }
    drop(live.wire);
    if let Err(e) = live.server.shutdown() {
        served.fail(format!("server shutdown: {e}"));
    }

    // ---- oracle ------------------------------------------------------------
    let mut uploads = preload.to_vec();
    uploads.extend(timed_uploads.iter().zip(&acked).filter(|(_, &a)| a).map(|(u, _)| u.clone()));
    let expected_datasets = uploads.len();
    check_searches(w, &mut served, preload, timed_uploads, &acked, &records, &first_replies)?;
    let reference = Arc::new(volatile_platform(&uploads)?);
    for (req, reply) in final_searches {
        served.attempted += 1;
        match reply {
            Ok(reply) => {
                let want = reference_answer(&reference, &w.requests[req], &w.search)?;
                if same_answer(&reply, &want) {
                    served.final_replies.insert(req, reply);
                } else {
                    served.fail(format!("final-corpus search {req} differs from the reference"));
                }
            }
            Err(e) => served.fail(format!("final-corpus search {req}: {e}")),
        }
    }
    let (restarted, restarted_datasets) = if durable {
        (Arc::clone(&reference), expected_datasets)
    } else {
        (Arc::new(volatile_platform(&[])?), 0)
    };
    let want = reference_answer(&restarted, &w.requests[0], &w.search)?;
    for (i, (first, datasets)) in restarts.into_iter().enumerate() {
        served.attempted += 1;
        match (first, datasets) {
            (Ok(reply), Ok(n)) if n == restarted_datasets && same_answer(&reply, &want) => {}
            (Ok(_), Ok(n)) if n != restarted_datasets => {
                served.fail(format!("restart {i} holds {n} datasets, {restarted_datasets} acked"))
            }
            (Ok(_), Ok(_)) => served.fail(format!("restart {i}: first search differs")),
            (Err(e), _) | (_, Err(e)) => served.fail(format!("restart {i}: {e}")),
        }
    }
    if durable {
        check_ledger(&mut served, &final_dir, &uploads)?;
        let wire_bytes: usize = uploads.iter().map(upload_wire_bytes).sum();
        served.storage_bytes_per_upload_byte =
            dir_bytes(&final_dir) as f64 / wire_bytes.max(1) as f64;
    }
    served.uploads = uploads;
    served.reference = reference;
    Ok(served)
}

/// Count of per-shard gather visits the server has recorded.
fn gather_visits(wire: &TcpWire) -> u64 {
    wire.metrics()
        .ok()
        .and_then(|m| m.histogram("shard_gather_ns").map(|h| h.summary.count))
        .unwrap_or(0)
}

/// Check every timed and set-up reply against the reference answer for
/// the corpus it ran on.
fn check_searches(
    w: &Workload,
    served: &mut Served,
    preload: &[ProviderUpload],
    timed_uploads: &[ProviderUpload],
    acked: &[bool],
    records: &[Record],
    first_replies: &[Result<SearchReply, String>],
) -> Result<(), String> {
    // Which (corpus prefix, request) answers are needed.
    let mut needed: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    needed.entry(0).or_default().insert(0);
    for r in records.iter().filter(|r| r.reply.is_ok()) {
        for k in r.lo..=r.hi.max(r.lo) {
            needed.entry(k).or_default().insert(r.req);
        }
    }
    let mut answers: HashMap<(usize, usize), Result<SearchReply, String>> = HashMap::new();
    let platform = volatile_platform(preload)?;
    let mut grown = 0usize;
    for (k, reqs) in needed {
        while grown < k.min(timed_uploads.len()) {
            if acked[grown] {
                platform
                    .register(timed_uploads[grown].clone())
                    .map_err(|e| format!("reference register: {e}"))?;
            }
            grown += 1;
        }
        for req in reqs {
            answers.insert((k, req), reference_answer(&platform, &w.requests[req], &w.search));
        }
    }
    for (rep, reply) in first_replies.iter().enumerate() {
        served.attempted += 1;
        match (reply, &answers[&(0, 0)]) {
            (Ok(got), Ok(want)) if same_answer(got, want) => {}
            (Ok(_), Ok(_)) => served.fail(format!("set-up {rep}: first search differs")),
            (Err(e), _) => served.fail(format!("set-up {rep}: first search: {e}")),
            (_, Err(e)) => return Err(format!("reference search: {e}")),
        }
    }
    for r in records {
        served.attempted += 1;
        let reply = match &r.reply {
            Ok(reply) => reply,
            Err(e) => {
                served.fail(format!("search {}: {e}", r.req));
                continue;
            }
        };
        let matched = (r.lo..=r.hi.max(r.lo)).any(
            |k| matches!(answers.get(&(k, r.req)), Some(Ok(want)) if same_answer(reply, want)),
        );
        if !matched {
            served.fail(format!(
                "search {} (corpus prefix {}..={}) differs from the reference",
                r.req, r.lo, r.hi
            ));
        }
    }
    Ok(())
}

/// Reopen the stopped server's directory in-process: every acknowledged
/// upload is there and no dataset has spent more than its grant.
fn check_ledger(served: &mut Served, dir: &Path, uploads: &[ProviderUpload]) -> Result<(), String> {
    let t = Instant::now();
    let platform = ShardedPlatform::open_with(PlatformConfig {
        shards: 2,
        storage: Some(StoragePolicy::at(dir)),
        ..Default::default()
    })
    .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
    served.reopen_ms = ms(t.elapsed());
    served.attempted += 1;
    if platform.num_datasets() != uploads.len() {
        served.fail(format!(
            "reopen holds {} datasets, {} acked",
            platform.num_datasets(),
            uploads.len()
        ));
    }
    for u in uploads {
        let Some(grant) = u.budget else { continue };
        served.attempted += 1;
        let name = &u.sketch.name;
        match platform.budget_spent(name) {
            Some(spent) if spent.epsilon <= grant.epsilon && spent.delta <= grant.delta => {}
            Some(spent) => served.fail(format!(
                "{name} spent (ε={}, δ={}) over its grant (ε={}, δ={})",
                spent.epsilon, spent.delta, grant.epsilon, grant.delta
            )),
            None => served.fail(format!("{name} has no ledger entry after reopen")),
        }
    }
    Ok(())
}

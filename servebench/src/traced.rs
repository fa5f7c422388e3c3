//! The traced phase: the public functions of each layer, timed in-process
//! on the workload's own inputs. Spans are recorded by this file around
//! the calls it makes (the program itself is not instrumented), kept in
//! memory, and written out as JSON lines when the phase ends.

use crate::served::{reference_answer, same_answer, upload_wire_bytes, Served};
use crate::stats::{mean, median, ms, Report};
use crate::workload::{Kind, Workload};
use mileena_core::wire::{WireRegisterRequest, WireSearchRequest, WireSearchResponse};
use mileena_core::{
    InProcess, JsonWire, PlatformConfig, PlatformService, SearchReply, ShardedPlatform,
    StoragePolicy, TcpServer, TcpServerConfig, TcpWire, WIRE_VERSION,
};
use mileena_discovery::{DatasetProfile, DiscoveryConfig, DiscoveryIndex};
use mileena_ml::{LinearModel, RidgeConfig};
use mileena_privacy::{clip_relation, FactorizedMechanism, FpmConfig};
use mileena_search::modes::materialized_utility;
use mileena_search::{
    build_sketched_state, enumerate_candidates, Augmentation, Candidate, CandidateCache,
    GreedySearch,
};
use mileena_sketch::{build_sketch, eval_join, eval_union, KeyedSketch, SketchConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Requests replayed per run, and times each is replayed.
const SAMPLE_REQUESTS: usize = 6;
const REPLAYS: usize = 4;
/// Uploads whose preparation is timed.
const SAMPLE_UPLOADS: usize = 16;
/// Passes over the candidate set when timing the sketch kernels.
const KERNEL_PASSES: usize = 20;
/// Pooled admin round trips timed.
const ADMIN_CALLS: usize = 50;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
}

/// In-memory span recorder, with counters kept at the same boundaries.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), counters: BTreeMap::new() }
    }

    fn count(&mut self, name: &'static str, n: usize) {
        *self.counters.entry(name).or_default() += n as u64;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    fn span_ms(&self, id: usize) -> f64 {
        (self.spans[id].end_ns - self.spans[id].start_ns) as f64 / 1e6
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Per span name: (count, total duration, self time), in ms. Self time
    /// is a span's duration less the durations of its direct children.
    fn summary(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = (s.end_ns - s.start_ns) as f64 / 1e6;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur - child_ns[i] as f64 / 1e6;
        }
        out
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

/// Results the traced phase checks rather than reports.
pub struct Traced {
    pub report: Report,
    /// Replayed selections that differ from the server's reply.
    pub mismatches: Vec<String>,
    pub replays: u64,
    /// Human-readable lines for the run log.
    pub notes: Vec<String>,
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms(t.elapsed()))
}

pub fn run(w: &Workload, served: &Served, work: &Path, spans_out: &Path) -> Result<Traced, String> {
    let mut tr = Tracer::new();
    let mut notes = Vec::new();
    let mut mismatches = Vec::new();
    let refp = &served.reference;
    let store = refp.store().frozen();
    let mut index = DiscoveryIndex::new(DiscoveryConfig::default());
    for u in &served.uploads {
        index.register(u.profile.clone());
    }
    let cfg = &w.search;
    let search = GreedySearch::new(cfg.clone());
    let mut request_id = 0u64;
    let mut next_id = || {
        request_id += 1;
        request_id
    };

    // ---- provider side: prepare_upload and its parts ---------------------
    let budget = w.provider_budget();
    for i in 0..SAMPLE_UPLOADS.min(w.uploads.len()) {
        let rid = next_id();
        let local = w.store(i);
        let seed = w.upload_seed(i);
        let upload =
            tr.time("local.prepare_upload", None, rid, || local.prepare_upload(budget, seed));
        let upload = upload.map_err(|e| e.to_string())?;
        let relation = local.relation();
        tr.time("discovery.profile", None, rid, || black_box(DatasetProfile::of(relation, 128)));
        let sketch_cfg = SketchConfig::default();
        match budget {
            None => {
                tr.time("sketch.build", None, rid, || {
                    black_box(build_sketch(relation, &sketch_cfg))
                })
                .map_err(|e| e.to_string())?;
            }
            Some(b) => {
                let cols: Vec<String> =
                    relation.schema().numeric_names().into_iter().map(str::to_string).collect();
                let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
                let clipped = clip_relation(relation, &refs, FpmConfig::default().bound)
                    .map_err(|e| e.to_string())?;
                let raw = tr
                    .time("sketch.build", None, rid, || build_sketch(&clipped, &sketch_cfg))
                    .map_err(|e| e.to_string())?;
                let fpm = FactorizedMechanism::new(FpmConfig::default());
                let released = tr
                    .time("privacy.fpm_privatize", None, rid, || fpm.privatize(&raw, b, seed))
                    .map_err(|e| e.to_string())?;
                if released.sketch != upload.sketch {
                    mismatches.push(format!("upload {i}: privatize differs from prepare_upload"));
                }
            }
        }
        let envelope = WireRegisterRequest { v: WIRE_VERSION, upload };
        tr.time("wire.upload_codec", None, rid, || {
            let json = serde_json::to_string(&envelope).expect("upload encodes");
            black_box(serde_json::from_str::<WireRegisterRequest>(&json).expect("upload decodes"))
        });
    }

    // ---- requester side and the search layers ---------------------------
    let sample: Vec<usize> = served.final_replies.keys().copied().take(SAMPLE_REQUESTS).collect();
    if sample.is_empty() {
        return Err("no verified server reply to replay".into());
    }
    let mut run_wall = Vec::new();
    let mut cache_wall = Vec::new();
    let mut round_wall = Vec::new();
    let mut commit_wall = Vec::new();
    let mut overhead = Vec::new();
    let mut rounds = Vec::new();
    let mut evaluations = Vec::new();
    let mut skips = Vec::new();
    let mut candidates = Vec::new();
    let mut replays = 0u64;
    // The replay's selections are compared on steps and scores only, so
    // the reply is built with an unfitted model.
    let unfitted = LinearModel::new(RidgeConfig::default());
    for replay_round in 0..REPLAYS {
        for &req in &sample {
            let rid = next_id();
            let sketched = tr
                .time("local.sketch_request", None, rid, || w.sketch_request(req))
                .map_err(|e| e.to_string())?;
            if sketched != w.requests[req] {
                mismatches.push(format!("request {req}: re-sketch differs"));
            }
            let envelope = WireSearchRequest {
                v: WIRE_VERSION,
                request: sketched.clone(),
                config: Some(cfg.clone()),
                request_id: Some(rid),
            };
            tr.time("wire.request_codec", None, rid, || {
                let json = serde_json::to_string(&envelope).expect("request encodes");
                black_box(
                    serde_json::from_str::<WireSearchRequest>(&json).expect("request decodes"),
                )
            });

            // The same three calls untraced; they run before the traced
            // replay on even rounds and after it on odd ones, so drift in
            // machine speed falls on both sides alike.
            let untraced = || -> Result<f64, String> {
                let t = Instant::now();
                let state = build_sketched_state(&sketched, cfg).map_err(|e| e.to_string())?;
                let set = enumerate_candidates(&index, &store, &sketched.profile, &cfg.limits);
                let outcome = search.run(state, set, &store).map_err(|e| e.to_string())?;
                let wall = ms(t.elapsed());
                drop(black_box(outcome));
                Ok(wall)
            };
            let first = if replay_round % 2 == 0 { Some(untraced()?) } else { None };

            let replay = tr.open("search.replay", None, rid);
            let state = tr
                .time("search.build_state", Some(replay), rid, || {
                    build_sketched_state(&sketched, cfg)
                })
                .map_err(|e| e.to_string())?;
            let set = tr.time("discovery.enumerate", Some(replay), rid, || {
                enumerate_candidates(&index, &store, &sketched.profile, &cfg.limits)
            });
            candidates.push(set.candidates.len() as f64);
            let run = tr.open("search.run", Some(replay), rid);
            let outcome = search.run(state, set, &store).map_err(|e| e.to_string())?;
            tr.close(run);
            tr.close(replay);
            let untraced_ms = match first {
                Some(t) => t,
                None => untraced()?,
            };
            overhead.push(tr.span_ms(replay) - untraced_ms);

            // `CandidateCache::build` on its own, on the same state and
            // candidates the run started from.
            let state = build_sketched_state(&sketched, cfg).map_err(|e| e.to_string())?;
            let set = enumerate_candidates(&index, &store, &sketched.profile, &cfg.limits);
            let cache = tr.open("search.cache_build", None, rid);
            let built = CandidateCache::build(&state, set.candidates.clone(), &store, cfg.pruning);
            tr.close(cache);
            drop(black_box(built));

            // Rounds come from the run's own `round_eval_ns`; commits are
            // the rest of the run (the base score, each commit's apply and
            // the refresh a join triggers).
            let round_ms: Vec<f64> =
                outcome.round_eval_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
            let (run_ms, cache_ms) = (tr.span_ms(run), tr.span_ms(cache));
            run_wall.push(run_ms);
            cache_wall.push(cache_ms);
            commit_wall.push(run_ms - cache_ms - round_ms.iter().sum::<f64>());
            rounds.push(round_ms.len() as f64);
            round_wall.extend(round_ms);
            evaluations.push(outcome.evaluations as f64);
            skips.push(outcome.bound_skips as f64);
            replays += 1;
            let replayed = SearchReply::from_outcome(&outcome, &unfitted);
            if !same_answer(&replayed, &served.final_replies[&req]) {
                mismatches
                    .push(format!("request {req}: replayed selections differ from the server's"));
            }

            // Sketch kernels, batched over this request's candidates.
            time_kernels(&mut tr, rid, &sketched, &set.candidates, &store);

            let reply = served.final_replies[&req].clone();
            tr.time("wire.reply_codec", None, rid, || {
                let json =
                    serde_json::to_string(&WireSearchResponse::ok(reply)).expect("reply encodes");
                black_box(serde_json::from_str::<WireSearchResponse>(&json).expect("reply decodes"))
            });
        }
    }

    // ---- platform, scheduler, transport and shard layers -----------------
    let in_process = InProcess::new(Arc::clone(refp));
    let json_wire = JsonWire::new(Arc::clone(refp));
    let sharded = ShardedPlatform::new(PlatformConfig { shards: 2, ..Default::default() });
    for u in &served.uploads {
        sharded.register(u.clone()).map_err(|e| format!("sharded register: {e}"))?;
    }
    let server = TcpServer::bind(
        "127.0.0.1:0",
        Arc::clone(refp) as Arc<dyn PlatformService + Send + Sync>,
        TcpServerConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let tcp = TcpWire::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    let (mut direct, mut session, mut jsonw, mut tcpw, mut shard) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..REPLAYS {
        for &req in &sample {
            let request = &w.requests[req];
            let want = reference_answer(refp, request, cfg)?;
            let (_, t) = timed_ms(|| refp.search_sketched(request, cfg));
            direct.push(t);
            for (times, service) in [
                (&mut session, &in_process as &dyn PlatformService),
                (&mut jsonw, &json_wire as &dyn PlatformService),
                (&mut tcpw, &tcp as &dyn PlatformService),
                (&mut shard, &sharded as &dyn PlatformService),
            ] {
                let request = request.clone();
                let (reply, t) = timed_ms(|| service.search(request, Some(cfg.clone())));
                times.push(t);
                match reply {
                    Ok(reply) if same_answer(&reply, &want) => {}
                    Ok(_) => mismatches.push(format!("request {req}: a transport's reply differs")),
                    Err(e) => mismatches.push(format!("request {req}: transport error {e}")),
                }
            }
        }
    }
    let admin: Vec<f64> = (0..ADMIN_CALLS).map(|_| timed_ms(|| tcp.num_datasets()).1).collect();
    drop(tcp);
    server.shutdown();

    // ---- storage layer (durable workload only) ----------------------------
    let (mut register_overhead, mut checkpoint) = (0.0, 0.0);
    if w.kind == Kind::IngestSharded {
        let dir = work.join("traced-store");
        let _ = std::fs::remove_dir_all(&dir);
        let durable = ShardedPlatform::open_with(PlatformConfig {
            shards: 2,
            storage: Some(StoragePolicy::at(&dir)),
            ..Default::default()
        })
        .map_err(|e| format!("open traced store: {e}"))?;
        let volatile = ShardedPlatform::new(PlatformConfig { shards: 2, ..Default::default() });
        let (mut dur, mut vol, mut ckpt) = (Vec::new(), Vec::new(), Vec::new());
        for (i, u) in served.uploads.iter().enumerate() {
            let (a, b) = (u.clone(), u.clone());
            let (r, t) =
                timed_ms(|| tr.time("storage.register_durable", None, 0, || durable.register(a)));
            r.map_err(|e| format!("durable register: {e}"))?;
            dur.push(t);
            let (r, t) = timed_ms(|| volatile.register(b));
            r.map_err(|e| format!("volatile register: {e}"))?;
            vol.push(t);
            if (i + 1) % 50 == 0 {
                let (r, t) =
                    timed_ms(|| tr.time("storage.checkpoint", None, 0, || durable.checkpoint()));
                r.map_err(|e| format!("checkpoint: {e}"))?;
                ckpt.push(t);
            }
        }
        register_overhead = median(&dur) - median(&vol);
        checkpoint = median(&ckpt);
        drop(durable);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // ---- result quality -----------------------------------------------------
    // The paper's Figure-5 task utility: the server's selections
    // materialized on the raw relations and retrained without privacy.
    let mut utility = Vec::new();
    for &req in &sample {
        let selections: Vec<Augmentation> =
            served.final_replies[&req].steps.iter().map(|s| s.augmentation.clone()).collect();
        let u =
            materialized_utility(&w.raw_request(req), &selections, &w.corpus.providers, cfg.lambda)
                .map_err(|e| format!("task utility: {e}"))?;
        utility.push(u);
    }

    tr.write(spans_out).map_err(|e| format!("write spans: {e}"))?;
    let spans = tr.summary();
    let per_call = |name: &str| spans.get(name).map_or(0.0, |&(n, total, _)| total / n as f64);
    let kernel_us = |name: &str| {
        let calls = tr.counters.get(name).copied().unwrap_or(0).max(1) as f64;
        spans.get(name).map_or(0.0, |&(_, total, _)| total * 1e3) / calls
    };

    let mut r = Report::default();
    r.put("local.prepare_upload_ms", per_call("local.prepare_upload"), "ms");
    r.put("local.sketch_request_ms", per_call("local.sketch_request"), "ms");
    r.put("discovery.profile_ms", per_call("discovery.profile"), "ms");
    r.put("sketch.build_ms", per_call("sketch.build"), "ms");
    r.put("privacy.fpm_privatize_ms", per_call("privacy.fpm_privatize"), "ms");
    r.put("sketch.eval_join_us", kernel_us("sketch.eval_join"), "us");
    r.put("sketch.eval_union_us", kernel_us("sketch.eval_union"), "us");
    r.put("discovery.enumerate_ms", per_call("discovery.enumerate"), "ms");
    r.put("discovery.candidates", mean(&candidates), "count");
    r.put("search.build_state_ms", per_call("search.build_state"), "ms");
    r.put("search.cache_build_ms", mean(&cache_wall), "ms");
    r.put("search.round_ms", mean(&round_wall), "ms");
    r.put("search.commit_ms", mean(&commit_wall), "ms");
    r.put("search.run_ms", mean(&run_wall), "ms");
    r.put("search.rounds", mean(&rounds), "count");
    r.put("search.evaluations", mean(&evaluations), "count");
    let (e, s) = (evaluations.iter().sum::<f64>(), skips.iter().sum::<f64>());
    r.put("search.prune_ratio", if e + s > 0.0 { s / (e + s) } else { 0.0 }, "ratio");
    r.put("platform.search_sketched_ms", median(&direct), "ms");
    r.put("sched.session_overhead_ms", median(&session) - median(&direct), "ms");
    r.put("wire.request_bytes", request_bytes(w, &sample), "bytes");
    r.put("wire.reply_bytes", reply_bytes(served, &sample), "bytes");
    r.put(
        "wire.upload_bytes",
        mean(&served.uploads.iter().map(|u| upload_wire_bytes(u) as f64).collect::<Vec<_>>()),
        "bytes",
    );
    r.put("wire.request_codec_ms", per_call("wire.request_codec"), "ms");
    r.put("wire.reply_codec_ms", per_call("wire.reply_codec"), "ms");
    r.put("wire.upload_codec_ms", per_call("wire.upload_codec"), "ms");
    r.put("register_p90_ms", crate::stats::percentile(&served.register_ms, 0.9), "ms");
    r.put("net.hop_ms", median(&tcpw) - median(&jsonw), "ms");
    r.put("net.admin_rtt_ms", median(&admin), "ms");
    r.put("net.unaccounted_ms", served.unaccounted_ms, "ms");
    r.put("span.queue_wait_ms", served.queue_wait_ms, "ms");
    r.put("span.run_ms", served.run_ms, "ms");
    r.put("shard.overhead_ms", median(&shard) - median(&session), "ms");
    r.put("shard.gather_visits_per_search", served.gather_visits_per_search, "count");
    r.put("storage.register_overhead_ms", register_overhead, "ms");
    r.put("storage.checkpoint_ms", checkpoint, "ms");
    r.put("storage.reopen_ms", served.reopen_ms, "ms");
    r.put("storage.bytes_per_upload_byte", served.storage_bytes_per_upload_byte, "ratio");
    r.put("harness.generator_lag_p90_ms", served.generator_lag_p90_ms, "ms");
    r.put("quality.final_r2", served.final_r2, "R2");
    r.put("quality.task_utility", mean(&utility), "R2");
    // Paired per replay, so that drift between replays cancels; a mean,
    // so that the alternating order of the pair cancels too.
    let overhead = mean(&overhead);
    r.put("trace.overhead_ms", overhead, "ms");
    notes.push(format!(
        "GreedySearch::run {:.3} ms = cache_build {:.3} + {:.1} rounds × {:.3} + commits \
         {:.3} ms (means over {replays} replays); tracing overhead (traced − untraced \
         replay) {overhead:.3} ms",
        mean(&run_wall),
        mean(&cache_wall),
        mean(&rounds),
        mean(&round_wall),
        mean(&commit_wall),
    ));
    for (name, (n, total, self_ms)) in &spans {
        notes.push(format!("span {name}: {n} calls, {total:.3} ms total, {self_ms:.3} ms self"));
    }
    Ok(Traced { report: r, mismatches, replays, notes })
}

/// Time `eval_join` / `eval_union` over every candidate of a request,
/// `KERNEL_PASSES` times, as one span per kernel; the calls inside each
/// span are counted under the span's name.
fn time_kernels(
    tr: &mut Tracer,
    rid: u64,
    request: &mileena_search::SketchedRequest,
    candidates: &[Candidate],
    store: &mileena_sketch::SketchStore,
) {
    let mut joins: Vec<(&KeyedSketch, KeyedSketch)> = Vec::new();
    let mut unions = Vec::new();
    for c in candidates {
        let Ok(sketch) = store.get_by_id(c.dataset()) else { continue };
        match c {
            Candidate::Join { query_key, candidate_key, .. } => {
                let (Ok(train), Ok(cand)) =
                    (request.train_sketch.keyed_for(query_key), sketch.keyed_for(candidate_key))
                else {
                    continue;
                };
                let aligned = KeyedSketch::from_arena(
                    cand.key_column.clone(),
                    cand.arena().reinterned(train.arena().interner()),
                );
                if eval_join(train, &aligned).is_ok() {
                    joins.push((train, aligned));
                }
            }
            Candidate::Union { .. } => {
                // Project the provider's triple onto the requester's
                // features first, as the search's union projection does.
                let train = &request.train_sketch.full;
                let prefix = format!("{}.", sketch.name);
                let renamed = sketch
                    .full
                    .rename_features(|n| n.strip_prefix(&prefix).unwrap_or(n).to_string());
                let Ok(projected) = renamed.project(&train.feature_names()) else { continue };
                if eval_union(train, &projected, str::to_string).is_ok() {
                    unions.push(projected);
                }
            }
        }
    }
    if !joins.is_empty() {
        tr.time("sketch.eval_join", None, rid, || {
            for _ in 0..KERNEL_PASSES {
                for (train, cand) in &joins {
                    black_box(eval_join(train, cand).ok());
                }
            }
        });
        tr.count("sketch.eval_join", KERNEL_PASSES * joins.len());
    }
    if !unions.is_empty() {
        tr.time("sketch.eval_union", None, rid, || {
            for _ in 0..KERNEL_PASSES {
                for cand in &unions {
                    black_box(eval_union(&request.train_sketch.full, cand, str::to_string).ok());
                }
            }
        });
        tr.count("sketch.eval_union", KERNEL_PASSES * unions.len());
    }
}

fn request_bytes(w: &Workload, sample: &[usize]) -> f64 {
    mean(
        &sample
            .iter()
            .map(|&req| {
                let envelope = WireSearchRequest {
                    v: WIRE_VERSION,
                    request: w.requests[req].clone(),
                    config: Some(w.search.clone()),
                    request_id: Some(1),
                };
                serde_json::to_string(&envelope).map_or(0.0, |s| s.len() as f64)
            })
            .collect::<Vec<_>>(),
    )
}

fn reply_bytes(served: &Served, sample: &[usize]) -> f64 {
    mean(
        &sample
            .iter()
            .map(|req| {
                let envelope = WireSearchResponse::ok(served.final_replies[req].clone());
                serde_json::to_string(&envelope).map_or(0.0, |s| s.len() as f64)
            })
            .collect::<Vec<_>>(),
    )
}

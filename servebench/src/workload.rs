//! Workload inputs. Everything here is a pure function of the workload
//! name and the seed: the corpus, the uploads prepared from it, the request
//! pool and the search configuration. The server only ever sees the
//! prepared uploads and the sketched requests.
//!
//! The corpus (and the FPM noise of its uploads) comes from the fixed
//! [`CORPUS_SEED`]; the run seed draws the requests. Search cost differs by
//! up to 2.4× between corpus seeds (`paper_scale` seeds 1–8 ran 5 to 9
//! greedy rounds, 26–64 ms per search), far more than any bound a
//! regression check could use, while a run averages over hundreds of
//! requests drawn from the seed.

use mileena_core::{LocalDataStore, ProviderUpload};
use mileena_datagen::{generate_corpus, CorpusConfig, NycCorpus};
use mileena_privacy::PrivacyBudget;
use mileena_relation::Relation;
use mileena_search::{SearchConfig, SearchRequest, SketchedRequest, TaskSpec};

/// Requests each closed-loop client of `paper_search` may draw per second
/// of run time before the distinct-request pool runs dry: three times the
/// 16/s one client reached when the benchmark was written. A platform that
/// outruns the pool ends the timed phase early, and its rates are taken
/// over the time the phase lasted; no request is ever sent twice.
const PAPER_POOL_PER_SECOND: usize = 50;
/// Rows kept from the 2000-row training relation per request.
const SAMPLE_ROWS: usize = 1600;
/// Distinct privatized requester releases the private workloads cycle
/// through.
const PRIVATE_POOL: usize = 16;
/// Seed of every workload's corpus: the generator's default.
pub const CORPUS_SEED: u64 = 42;
/// Uploads registered before timing starts on `ingest_sharded`.
pub const INGEST_PRELOAD: usize = 100;
/// Open-loop upload rate of `ingest_sharded`, per second. Arrivals are a
/// Poisson process conditioned on its count: exactly rate × seconds
/// uploads at uniform random times. A fixed period would lock into phase
/// with the server's 20 ms accept-poll cycle, and which phase a run
/// happened to lock into moved its register latency by 2× from run to run.
/// A free count moved the size of the data directory the restarts reopen
/// by seed (458 to 562 uploads over ten seeds).
pub const INGEST_RATE: f64 = 50.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PaperSearch,
    PrivateRepeat,
    IngestSharded,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper_search" => Some(Kind::PaperSearch),
            "private_repeat" => Some(Kind::PrivateRepeat),
            "ingest_sharded" => Some(Kind::IngestSharded),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::PaperSearch => "paper_search",
            Kind::PrivateRepeat => "private_repeat",
            Kind::IngestSharded => "ingest_sharded",
        }
    }
}

/// One request of the pool, in the form that regenerates its relations.
#[derive(Debug, Clone, Copy)]
struct RequestSpec {
    sample_seed: u64,
    noise_seed: u64,
}

pub struct Workload {
    pub kind: Kind,
    pub corpus: NycCorpus,
    provider_budget: Option<PrivacyBudget>,
    requester_budget: Option<PrivacyBudget>,
    /// Uploads registered during set-up; the rest (ingest only) arrive in
    /// the timed phase.
    pub preload: usize,
    pub search: SearchConfig,
    specs: Vec<RequestSpec>,
    /// Every provider's upload, prepared once.
    pub uploads: Vec<ProviderUpload>,
    /// The sketched request pool, index-aligned with `specs`.
    pub requests: Vec<SketchedRequest>,
    /// `true`: every request is sent once (the pool is a sequence);
    /// `false`: requests are drawn from the pool again and again.
    pub distinct: bool,
    /// Server flags besides the address (`--dir` is added per spawn).
    pub server_args: Vec<String>,
    /// Due times of the timed uploads, in seconds from the start of the
    /// timed phase (ingest only).
    pub arrivals: Vec<f64>,
}

fn mix(seed: u64, salt: u64) -> u64 {
    // SplitMix64 finaliser: decorrelates nearby seeds.
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uploads `ingest_sharded` registers in its timed phase.
fn ingest_count(seconds: u64) -> usize {
    (INGEST_RATE * seconds as f64).round() as usize
}

fn task() -> TaskSpec {
    TaskSpec::new("y", &["base_x"])
}

fn keys() -> Vec<String> {
    vec!["zone".to_string()]
}

impl Workload {
    pub fn new(kind: Kind, seed: u64, seconds: u64) -> Workload {
        let fpm_provider = PrivacyBudget::new(1.0, 1e-6).expect("valid provider budget");
        let fpm_requester = PrivacyBudget::new(10.0, 1e-5).expect("valid requester budget");
        let private_search =
            SearchConfig { max_augmentations: 5, max_join_fanout: 60.0, ..Default::default() };
        let (config, provider_budget, requester_budget, search, pool, distinct, server_args) =
            match kind {
                Kind::PaperSearch => (
                    CorpusConfig::paper_scale(CORPUS_SEED),
                    None,
                    None,
                    SearchConfig::default(),
                    PAPER_POOL_PER_SECOND * 2 * seconds as usize,
                    true,
                    vec![],
                ),
                Kind::PrivateRepeat => (
                    CorpusConfig::privacy_scale(200, CORPUS_SEED),
                    Some(fpm_provider),
                    Some(fpm_requester),
                    private_search,
                    PRIVATE_POOL,
                    false,
                    vec![],
                ),
                Kind::IngestSharded => {
                    let timed = ingest_count(seconds);
                    (
                        CorpusConfig::privacy_scale(INGEST_PRELOAD + timed, CORPUS_SEED),
                        Some(fpm_provider),
                        Some(fpm_requester),
                        private_search,
                        PRIVATE_POOL,
                        false,
                        vec!["--shards".to_string(), "2".to_string()],
                    )
                }
            };
        let corpus = generate_corpus(&config);
        let preload = match kind {
            Kind::IngestSharded => INGEST_PRELOAD,
            _ => corpus.providers.len(),
        };
        let specs: Vec<RequestSpec> = (0..pool as u64)
            .map(|i| RequestSpec {
                sample_seed: mix(seed, 2 * i + 1),
                noise_seed: mix(seed, 2 * i + 2),
            })
            .collect();
        let mut arrivals = Vec::new();
        if kind == Kind::IngestSharded {
            // Uniform draws in [0, 1), scaled to the timed phase.
            arrivals = (0..ingest_count(seconds) as u64)
                .map(|i| (mix(seed, 1 << 40 | i) >> 11) as f64 / (1u64 << 53) as f64)
                .map(|u| u * seconds as f64)
                .collect();
            arrivals.sort_by(f64::total_cmp);
        }
        let mut workload = Workload {
            kind,
            corpus,
            provider_budget,
            requester_budget,
            preload,
            search,
            specs,
            uploads: Vec::new(),
            requests: Vec::new(),
            distinct,
            server_args,
            arrivals,
        };
        // Uploads before requests: the server meets the corpus first too,
        // and the order in which a process first sees join-key values can
        // move the last bit of a score (see the README).
        workload.uploads = (0..workload.corpus.providers.len())
            .map(|i| workload.prepare_upload(i).expect("generated uploads prepare"))
            .collect();
        workload.requests = (0..workload.specs.len())
            .map(|i| workload.sketch_request(i).expect("generated requests sketch"))
            .collect();
        workload
    }

    /// The raw training and test relations of request `i`.
    pub fn request_relations(&self, i: usize) -> (Relation, Relation) {
        let train = self.corpus.train.sample(SAMPLE_ROWS, self.specs[i].sample_seed);
        (train, self.corpus.test.clone())
    }

    /// Request `i` in raw form, as the requester holds it.
    pub fn raw_request(&self, i: usize) -> SearchRequest {
        let (train, test) = self.request_relations(i);
        SearchRequest { train, test, task: task(), budget: None, key_columns: Some(keys()) }
    }

    /// Sketch request `i` the way its requester does: privatized with the
    /// requester's budget on the private workloads.
    pub fn sketch_request(&self, i: usize) -> mileena_search::Result<SketchedRequest> {
        let (train, test) = self.request_relations(i);
        let keys = keys();
        let sketched = match self.requester_budget {
            None => SketchedRequest::sketch(&train, &test, &task(), Some(&keys))?,
            Some(budget) => SketchedRequest::sketch_private(
                &train,
                &test,
                &task(),
                Some(&keys),
                budget,
                1.0,
                self.specs[i].noise_seed,
            )?,
        };
        Ok(sketched.with_requester(format!("requester-{}", i % 2)))
    }

    pub fn provider_budget(&self) -> Option<PrivacyBudget> {
        self.provider_budget
    }

    pub fn upload_seed(&self, i: usize) -> u64 {
        mix(CORPUS_SEED, 1 << 32 | i as u64)
    }

    pub fn store(&self, i: usize) -> LocalDataStore {
        LocalDataStore::new(self.corpus.providers[i].clone())
    }

    /// Prepare provider `i`'s upload (sketch, profile, and FPM release on
    /// the private workloads).
    pub fn prepare_upload(&self, i: usize) -> mileena_core::Result<ProviderUpload> {
        self.store(i).prepare_upload(self.provider_budget, self.upload_seed(i))
    }
}

//! The workloads: what data each generates from the seed, the DMatch
//! configuration it resolves under, the CDC churn its admitter sends and
//! the tuples its reader asks about.

use dcer_core::{DcerSession, DmatchConfig};
use dcer_datagen::{bib, tpch, GroundTruth};
use dcer_relation::{Dataset, RelId, Tid, UpdateBatch};

#[derive(Debug, Clone, Copy)]
pub enum Data {
    /// TPC-H-style, 8 relations.
    Tpch { scale: f64 },
    /// Bibliographic: article, author, article_author.
    Bib { articles: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    /// DMatch workers `n`.
    pub workers: usize,
    /// Threaded BSP executor (else simulated).
    pub threaded: bool,
    /// Relation the admitter churns.
    pub churn_rel: &'static str,
    /// Relation whose rows the reader asks about. Its clusters must not
    /// hinge on a few matches that some seeds miss, or the cost of a read
    /// swings with the seed.
    pub probe_rel: &'static str,
    /// `(model, relation, attribute)` triples the ML kernels are timed on.
    pub models: &'static [(&'static str, &'static str, &'static str)],
}

const TPCH_MODELS: &[(&str, &str, &str)] = &[
    ("country_sim", "nation", "name"),
    ("desc_sim", "part", "pdesc"),
    ("name_sim", "customer", "cname"),
];
const BIB_MODELS: &[(&str, &str, &str)] =
    &[("au_sim", "author", "auname"), ("abs_sim", "article", "abstract_")];

/// `part` is TPC-H's probe relation: customer and order clusters need the
/// nation duplicates matched first, which some seeds' country-name typos
/// defeat (F1 drops from about 0.99 to about 0.67), while part clusters
/// form on every seed.
pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "tpch-batch",
        data: Data::Tpch { scale: 0.8 },
        workers: 8,
        threaded: false,
        churn_rel: "customer",
        probe_rel: "part",
        models: TPCH_MODELS,
    },
    Spec {
        name: "dblp-ml",
        data: Data::Bib { articles: 600 },
        workers: 2,
        threaded: true,
        churn_rel: "author",
        probe_rel: "article",
        models: BIB_MODELS,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Every rule and model name any workload has, in a fixed order, so every
/// run reports the same per-layer metric names.
pub fn all_rules() -> Vec<String> {
    let mut names = Vec::new();
    for spec in &WORKLOADS {
        let session = spec.session().expect("workload rules parse");
        names.extend(session.rules().rules().iter().map(|r| r.name.clone()));
    }
    names
}

pub fn all_models() -> Vec<&'static str> {
    TPCH_MODELS.iter().chain(BIB_MODELS).map(|m| m.0).collect()
}

impl Spec {
    /// The same workload with its data shrunk by `factor` (self-test).
    pub fn scaled(mut self, factor: f64) -> Spec {
        self.data = match self.data {
            Data::Tpch { scale } => Data::Tpch { scale: scale * factor },
            Data::Bib { articles } => Data::Bib { articles: (articles as f64 * factor) as usize },
        };
        self
    }

    pub fn config(&self) -> DmatchConfig {
        let cfg = DmatchConfig::new(self.workers);
        if self.threaded {
            cfg.threaded()
        } else {
            cfg
        }
    }

    pub fn execution(&self) -> &'static str {
        if self.threaded {
            "threaded"
        } else {
            "simulated"
        }
    }

    /// Generate the workload's data from `seed`.
    pub fn generate(&self, seed: u64) -> (Dataset, GroundTruth) {
        match self.data {
            Data::Tpch { scale } => tpch::generate(&tpch::TpchConfig { scale, dup: 0.3, seed }),
            Data::Bib { articles } => bib::generate(&bib::BibConfig { articles, dup: 0.3, seed }),
        }
    }

    pub fn session(&self) -> Result<DcerSession, String> {
        match self.data {
            Data::Tpch { .. } => DcerSession::from_source(
                tpch::catalog(),
                tpch::rules_source(),
                tpch::make_registry(),
            ),
            Data::Bib { .. } => {
                DcerSession::from_source(bib::catalog(), bib::rules_source(), bib::make_registry())
            }
        }
    }

    pub fn rel_id(data: &Dataset, name: &str) -> RelId {
        data.catalog().rel(name).expect("workload relations are in the catalog")
    }
}

/// The admitter's CDC stream, stationary however many batches a run sends:
/// batch `b` inserts clones of about 1% of the churned relation's original
/// rows, deletes the clones batch `b - 1` inserted (live rows whose matches
/// with their donors must be retracted) and deletes again the clones batch
/// `b - 2` inserted (rows already dead). Original rows are never deleted:
/// deleting them would drain the relation over a long run, and admits would
/// change cost mid-run. `offset` comes from the seed.
pub struct Churn {
    rel: RelId,
    base: Vec<Tid>,
    per_batch: usize,
    offset: usize,
    next: usize,
    /// Tuples the last two batches inserted, newest first.
    inserted: [Vec<Tid>; 2],
}

impl Churn {
    pub fn new(data: &Dataset, rel: RelId, seed: u64) -> Churn {
        let base: Vec<Tid> = data.relation(rel).tuples().iter().map(|t| t.tid).collect();
        let per_batch = (base.len() / 100).max(1);
        let offset = (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % base.len().max(1);
        Churn { rel, base, per_batch, offset, next: 0, inserted: Default::default() }
    }

    pub fn next_batch(&mut self, data: &Dataset) -> UpdateBatch {
        let b = self.next;
        self.next += 1;
        let mut batch = UpdateBatch::new();
        for &tid in self.inserted.iter().flatten() {
            batch.delete(tid);
        }
        for i in 0..self.per_batch {
            let donor = (self.offset + (b * self.per_batch + i) * 13) % self.base.len();
            let donor = data.tuple(self.base[donor]).expect("base rows are retained");
            batch.insert(self.rel, donor.values.to_vec());
        }
        batch
    }

    /// Record the identities the last batch's inserts were given.
    pub fn inserted(&mut self, tids: &[Tid]) {
        self.inserted.swap(0, 1);
        self.inserted[0] = tids.to_vec();
    }
}

//! One benchmark run of one workload: set-up, alternating resolve and serve
//! rounds, the correctness checks, and with tracing on one extra traced
//! iteration that yields the per-layer metrics.

use crate::spec::{Churn, Spec};
use crate::stats::{self, NsRecorder};
use dcer_core::{DcerSession, ResidentResolver, Snapshot};
use dcer_datagen::GroundTruth;
use dcer_obs::{InMemoryCollector, Metric};
use dcer_relation::{Dataset, Tid, UpdateBatch, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. The first is made before
/// the rounds, the others one at the start of each of the first rounds, so
/// a slow stretch of the host weighs on set-up as it does on the rest.
const SETUP_REPS: usize = 5;
/// Budget of one resolve + serve round, and the fewest rounds a run makes
/// however short `--seconds` is.
const ROUND_SECS: f64 = 2.0;
const MIN_ROUNDS: usize = 5;
/// Share of each round spent resolving; the rest is spent serving.
const RESOLVE_SHARE: f64 = 0.5;
/// Admits (0-based) whose snapshot is checked besides the final one.
const CHECKED_ADMITS: [usize; 2] = [0, 7];
/// Admits made under the collector in a traced run.
const TRACED_ADMITS: usize = 3;
/// `peak_rss_mb` is read this many admits after the set-ups end, so that
/// it holds for the same work however many admits the host's speed allows
/// (deleted rows stay stored, so memory grows with every admit).
const RSS_ADMITS: usize = 10;
/// Reads per admit when there is no second core for a concurrent reader.
const INLINE_READS: usize = 2000;

pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What a run measured. `metrics` holds every metric the run computed:
/// the end-to-end ones always, the per-layer ones when traced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Run-record fields: sample counts, percentiles, paths taken.
    pub record: BTreeMap<&'static str, String>,
}

impl Outcome {
    fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.record.insert(key, value.to_string());
    }
}

struct World {
    data: Dataset,
    truth: GroundTruth,
    session: DcerSession,
    resolver: ResidentResolver,
}

pub fn run(spec: &Spec, opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Setups::default();
    let world = setups.setup(spec, opts.seed)?;
    out.note("tuples", world.data.total_live());
    let reference = world.session.try_run_sequential(&world.data)?.matches.clusters();
    let mut serve = ServeState::new(spec, &world, opts.seed);

    // Resolve and serve alternate in short rounds until `--seconds` is
    // spent, so a slow stretch of the host weighs on both alike.
    let round = ROUND_SECS.min(opts.seconds / MIN_ROUNDS as f64);
    let resolve_budget = Duration::from_secs_f64(round * RESOLVE_SHARE);
    let serve_budget = Duration::from_secs_f64(round * (1.0 - RESOLVE_SHARE));
    let deadline = Instant::now() + Duration::from_secs_f64(opts.seconds);
    let mut resolves = Vec::new();
    let mut served = Served::default();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        if setups.totals.len() < SETUP_REPS {
            drop(setups.setup(spec, opts.seed)?);
            if setups.totals.len() == SETUP_REPS {
                // From here on the high-water mark is that of the one world
                // the run keeps, not of a set-up made beside it.
                out.note("peak_rss_reset", reset_peak_rss());
                served.rss_at = Some(served.admit_secs.len() + RSS_ADMITS);
            }
        }
        resolve_round(spec, &world, &reference, resolve_budget, &mut resolves, &mut out);
        serve_round(&world, &mut serve, serve_budget, &mut served, &mut out);
        rounds += 1;
    }
    setups.report(&mut out);
    report_resolves(&resolves, &mut out);
    served.report(&mut out);

    if opts.trace {
        traced_resolve(spec, &world, &reference, &mut out);
        traced_serve(&world, &mut serve, &mut out);
        kernels(spec, &world.data, &world.session, &mut out);
    }
    serve.checked.push((world.resolver.snapshot(), serve.shadow.clone()));
    check_epochs(&world.session, &serve.checked, &mut out);
    Ok(out)
}

/// Timings of the set-ups a run makes.
#[derive(Default)]
struct Setups {
    totals: Vec<f64>,
    gens: Vec<f64>,
}

impl Setups {
    /// Generate the data, build the session and boot the resolver.
    fn setup(&mut self, spec: &Spec, seed: u64) -> Result<World, String> {
        let t = Instant::now();
        let (data, truth) = spec.generate(seed);
        self.gens.push(t.elapsed().as_secs_f64());
        let session = spec.session()?;
        let resolver = session.resident(&data, &spec.config())?;
        self.totals.push(t.elapsed().as_secs_f64());
        Ok(World { data, truth, session, resolver })
    }

    fn report(&self, out: &mut Outcome) {
        if let Some(m) = stats::median(&self.totals) {
            out.set("setup_s", m);
        }
        if let Some(m) = stats::median(&self.gens) {
            out.set("datagen.generate_s", m);
        }
        out.note("setups", self.totals.len());
    }
}

/// Resolve from scratch until `budget` is spent (at least once), checking
/// every result against the sequential reference.
fn resolve_round(
    spec: &Spec,
    world: &World,
    reference: &[Vec<Tid>],
    budget: Duration,
    times: &mut Vec<f64>,
    out: &mut Outcome,
) {
    let deadline = Instant::now() + budget;
    loop {
        let t = Instant::now();
        let report = world.session.run_parallel(&world.data, &spec.config());
        let secs = t.elapsed().as_secs_f64();
        let mut report = match report {
            Ok(r) => r,
            Err(e) => return out.op(false, || format!("run_parallel: {e}")),
        };
        times.push(secs);
        if times.len() == 1 {
            let f1 = dcer_eval::evaluate_matchset(&mut report.outcome.matches, &world.truth);
            out.set("eval.f1", f1.f_measure);
            out.note("supersteps", report.bsp.supersteps);
        }
        let same = report.outcome.matches.clusters() == reference;
        out.op(same, || "run_parallel clusters differ from run_sequential".into());
        if !another_fits(deadline, secs) {
            return;
        }
    }
}

/// Whether one more operation as long as the last (`secs`) ends by
/// `deadline`, so a round keeps to its budget instead of overrunning it by
/// up to a whole operation.
fn another_fits(deadline: Instant, secs: f64) -> bool {
    Instant::now() + Duration::from_secs_f64(secs) <= deadline
}

fn report_resolves(times: &[f64], out: &mut Outcome) {
    if let Some(m) = stats::median(times) {
        out.set("resolve_s", m);
    }
    out.note("resolves", times.len());
}

/// The admitter's side of serving, kept across the serve rounds, the
/// traced admits and the final check.
struct ServeState {
    churn: Churn,
    /// The original data with exactly the admitted batches applied.
    shadow: Dataset,
    admits: usize,
    /// Tuples the reader asks about: the probe relation's rows at boot,
    /// clustered or not.
    probe: Vec<Tid>,
    /// Snapshots to check, each with the shadow prefix it must equal.
    checked: Vec<(Arc<Snapshot>, Dataset)>,
}

impl ServeState {
    fn new(spec: &Spec, world: &World, seed: u64) -> ServeState {
        let churn = Churn::new(&world.data, Spec::rel_id(&world.data, spec.churn_rel), seed);
        let probe_rel = Spec::rel_id(&world.data, spec.probe_rel);
        let probe = world.data.relation(probe_rel).tuples().iter().map(|t| t.tid).collect();
        ServeState { churn, shadow: world.data.clone(), admits: 0, probe, checked: Vec::new() }
    }

    /// Admit the next churn batch; `None` when it failed (recorded in `out`).
    fn admit(
        &mut self,
        world: &World,
        out: &mut Outcome,
        in_flight: &AtomicBool,
    ) -> Option<(f64, dcer_core::AdmitReport)> {
        let batch: UpdateBatch = self.churn.next_batch(&world.data);
        let expect = match self.shadow.apply_update(&batch) {
            Ok(r) => r,
            Err(e) => {
                out.op(false, || format!("shadow apply_update: {e}"));
                return None;
            }
        };
        self.churn.inserted(&expect.inserted);
        in_flight.store(true, Ordering::Release);
        let t = Instant::now();
        let got = world.resolver.admit(batch);
        let secs = t.elapsed().as_secs_f64();
        in_flight.store(false, Ordering::Release);
        let report = match got {
            Ok(r) => r,
            Err(e) => {
                out.op(false, || format!("admit: {e}"));
                return None;
            }
        };
        let snap = world.resolver.snapshot();
        let ok = report.inserted == expect.inserted
            && report.deleted == expect.deleted
            && snap.epoch() == report.epoch;
        out.op(ok, || format!("admit {} disagrees with its shadow batch", report.epoch));
        if CHECKED_ADMITS.contains(&self.admits) {
            self.checked.push((snap, self.shadow.clone()));
        }
        self.admits += 1;
        Some((secs, report))
    }
}

/// One read: `snapshot()`, `cluster_of(tid)`, plus `explain` to a cluster
/// peer when the tuple is clustered. Returns whether the answer is
/// consistent (a clustered tuple has a chain to its peer).
fn read(resolver: &ResidentResolver, tid: Tid) -> bool {
    let snap = resolver.snapshot();
    let Some(cluster) = snap.cluster_of(tid) else { return true };
    let peer = snap.members(cluster).iter().copied().find(|&m| m != tid);
    let chain = peer.and_then(|p| snap.explain(p, tid));
    chain.is_some_and(|c| !c.is_empty())
}

struct ReadStats {
    lat: NsRecorder,
    attempted: u64,
    failed: u64,
}

impl ReadStats {
    fn new() -> ReadStats {
        ReadStats { lat: NsRecorder::new(), attempted: 0, failed: 0 }
    }

    /// Make the next read of the probe sequence; time it only if `timed`.
    fn read_next(&mut self, resolver: &ResidentResolver, probe: &[Tid], timed: bool) {
        let tid = probe[(self.attempted as usize * 7919) % probe.len()];
        let t = Instant::now();
        let ok = read(resolver, tid);
        let ns = t.elapsed().as_nanos() as u64;
        self.attempted += 1;
        self.failed += u64::from(!ok);
        if timed {
            self.lat.record(ns);
        }
    }
}

/// Median reading of a timer started and read back to back: the floor
/// under every timed read.
fn timer_floor_ns() -> u128 {
    let mut ns: Vec<u128> = (0..10_000).map(|_| Instant::now().elapsed().as_nanos()).collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

/// What the serve rounds measured, accumulated across rounds.
#[derive(Default)]
struct Served {
    admit_secs: Vec<f64>,
    repartitioned: usize,
    retracted: usize,
    deduced: usize,
    reads: Option<ReadStats>,
    /// Admit count at which to read the peak resident set, and the figure.
    rss_at: Option<usize>,
    peak_rss_mb: Option<f64>,
}

impl Served {
    fn report(self, out: &mut Outcome) {
        let n = self.admit_secs.len();
        // A run too short to reach `rss_at` reads it at its end.
        out.set("peak_rss_mb", self.peak_rss_mb.unwrap_or_else(peak_rss_mb));
        out.note("peak_rss_at_admit", self.peak_rss_mb.and(self.rss_at).unwrap_or(n));
        if let Some(m) = stats::median(&self.admit_secs) {
            out.set("admit_p50_s", m);
        }
        if let Some(t) = stats::tail(&self.admit_secs) {
            out.set("admit_tail_s", t.value);
            out.note("admit_tail_percentile", t.percentile);
        }
        out.note("admits", n);
        out.note("repartitioned_admits", self.repartitioned);
        out.note("admit_retracted_total", self.retracted);
        out.note("admit_deduced_total", self.deduced);
        out.set("core.update.repartition_share", self.repartitioned as f64 / n.max(1) as f64);
        out.set("core.update.retracted", self.retracted as f64 / n.max(1) as f64);
        out.set("core.update.deduced", self.deduced as f64 / n.max(1) as f64);

        let Some(mut reads) = self.reads else { return };
        out.attempted += reads.attempted;
        if reads.failed > 0 {
            out.failed += reads.failed;
            out.failures.push(format!(
                "{} reads found a clustered tuple with no explain chain",
                reads.failed
            ));
        }
        if let Some(q) = reads.lat.quantile(0.5) {
            out.set("core.serve.read_p50_us", q.value / 1e3);
        }
        if let Some(q) = reads.lat.quantile(0.99) {
            out.set("read_p99_us", q.value / 1e3);
            out.note("read_p99_percentile", q.percentile);
        }
        out.note("reads_timed", reads.lat.count());
        out.note("timer_floor_ns", timer_floor_ns());
        out.note("reads", reads.attempted);
    }
}

/// Admit back to back until `budget` is spent (at least once) while a
/// reader thread issues reads, timing those made with an admit in flight.
fn serve_round(
    world: &World,
    serve: &mut ServeState,
    budget: Duration,
    served: &mut Served,
    out: &mut Outcome,
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.note("load_threads", cores.min(2));
    let reads = served.reads.get_or_insert_with(ReadStats::new);
    let probe = serve.probe.clone();
    let stop = AtomicBool::new(false);
    let in_flight = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The admitter is this thread; a reader thread only when a second
        // core can run it, so load generators never outnumber the cores.
        let mut inline = None;
        if cores >= 2 {
            let (stop, in_flight, probe) = (&stop, &in_flight, &probe);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let during_admit = in_flight.load(Ordering::Acquire);
                    reads.read_next(&world.resolver, probe, during_admit);
                }
            });
        } else {
            inline = Some(reads);
        }
        let deadline = Instant::now() + budget;
        while let Some((secs, report)) = serve.admit(world, out, &in_flight) {
            served.admit_secs.push(secs);
            served.repartitioned += usize::from(report.repartitioned);
            served.retracted += report.retracted;
            served.deduced += report.deduced;
            if served.rss_at == Some(served.admit_secs.len()) {
                served.peak_rss_mb = Some(peak_rss_mb());
            }
            if let Some(reads) = inline.as_deref_mut() {
                // One core: read between admits instead of beside them.
                for _ in 0..INLINE_READS {
                    reads.read_next(&world.resolver, &probe, true);
                }
            }
            if !another_fits(deadline, secs) {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
}

/// Compare every checked snapshot with the from-scratch sequential closure
/// of the shadow dataset that applied exactly that epoch's prefix.
fn check_epochs(session: &DcerSession, checked: &[(Arc<Snapshot>, Dataset)], out: &mut Outcome) {
    for (snap, prefix) in checked {
        let ok = epoch_matches(session, snap, prefix);
        out.op(ok, || {
            format!("snapshot at epoch {} differs from the closure of its prefix", snap.epoch())
        });
    }
    out.note("epochs_checked", checked.len());
}

pub fn epoch_matches(session: &DcerSession, snap: &Snapshot, prefix: &Dataset) -> bool {
    match session.try_run_sequential(prefix) {
        Ok(mut closure) => snap.clusters() == closure.matches.clusters().as_slice(),
        Err(_) => false,
    }
}

/// Run `f` with a fresh collector installed.
fn collect<T>(f: impl FnOnce() -> T) -> (T, Arc<InMemoryCollector>) {
    let collector = Arc::new(InMemoryCollector::new());
    dcer_obs::install(collector.clone());
    let got = f();
    dcer_obs::uninstall();
    (got, collector)
}

fn span_secs(collector: &InMemoryCollector, name: &str) -> (f64, usize) {
    let spans: Vec<_> = collector.spans().into_iter().filter(|s| s.name == name).collect();
    (spans.iter().map(|s| s.dur_ns).sum::<u64>() as f64 / 1e9, spans.len())
}

fn traced_resolve(spec: &Spec, world: &World, reference: &[Vec<Tid>], out: &mut Outcome) {
    let cfg = spec.config();
    let pool = world.session.pool();
    let steals = pool.stats().steals;
    let ((report, wall, part), collector) = collect(|| {
        let t = Instant::now();
        let report = {
            let _span = dcer_obs::span("bench.run_parallel");
            world.session.run_parallel(&world.data, &cfg)
        };
        let wall = t.elapsed().as_secs_f64();
        out.set("pool.steals", (pool.stats().steals - steals) as f64);
        let mut hp = dcer_hypart::HyPartConfig::new(spec.workers);
        hp.threads = pool.size();
        hp.pool = Some(Arc::clone(pool));
        let part = {
            let _span = dcer_obs::span("bench.partition");
            dcer_hypart::partition(&world.data, world.session.rules(), &hp)
        };
        (report, wall, part)
    });
    let mut report = match report {
        Ok(r) => r,
        Err(e) => return out.op(false, || format!("traced run_parallel: {e}")),
    };
    let same = report.outcome.matches.clusters() == reference;
    out.op(same, || "traced run_parallel clusters differ from run_sequential".into());
    let p = &report.partition;
    let same_partition = part.stats.fragment_sizes == p.fragment_sizes
        && part.stats.replication_factor == p.replication_factor;
    out.op(same_partition, || "hypart::partition differs from the pipeline's partition".into());

    let sizes: Vec<f64> = p.fragment_sizes.iter().map(|&s| s as f64).collect();
    let mean = sizes.iter().sum::<f64>() / sizes.len().max(1) as f64;
    let max = sizes.iter().copied().fold(0.0, f64::max);
    out.set("hypart.replication_factor", p.replication_factor);
    out.set("hypart.fragment_imbalance", if mean > 0.0 { max / mean } else { 1.0 });
    out.set("hypart.hash_computations", p.hash_computations as f64);
    let hashes = p.hash_computations + p.hash_memo_hits;
    out.set("hypart.hash_memo_hit_ratio", p.hash_memo_hits as f64 / hashes.max(1) as f64);
    out.set("hypart.refinements", f64::from(p.refinements));

    let c = &report.outcome.stats;
    out.set("chase.valuations", c.valuations as f64);
    out.set("chase.facts_deduced", c.facts_deduced as f64);
    out.set("chase.rounds", c.rounds as f64);
    out.set("chase.seeded_joins", c.seeded_joins as f64);
    out.set("chase.deps_fired", c.deps_fired as f64);
    out.set("ml.calls", c.ml_calls as f64);
    out.set(
        "ml.memo_hit_ratio",
        c.ml_cache_hits as f64 / (c.ml_calls + c.ml_cache_hits).max(1) as f64,
    );

    let b = &report.bsp;
    out.set("bsp.supersteps", b.supersteps as f64);
    out.set("bsp.messages", b.messages as f64);
    out.set("bsp.bytes", b.bytes as f64);
    out.set("bsp.deduped_facts", b.deduped_facts as f64);
    out.set("bsp.simulated_makespan_s", b.makespan_secs);

    // Rule self time from the program's `chase.rule` spans, every rule
    // of every workload listed so the names never vary.
    let rules: Vec<String> = world.session.rules().rules().iter().map(|r| r.name.clone()).collect();
    let mut rule_ns: BTreeMap<String, u64> =
        crate::spec::all_rules().into_iter().map(|r| (r, 0)).collect();
    for s in collector.spans().iter().filter(|s| s.name == "chase.rule") {
        if let Some(name) = s.arg.and_then(|(_, idx)| rules.get(idx as usize)) {
            *rule_ns.entry(name.clone()).or_default() += s.dur_ns;
        }
    }
    for (rule, ns) in rule_ns {
        out.set(&format!("chase.rule_s.{rule}"), ns as f64 / 1e9);
    }

    let Some(profile) = report.profile.as_ref() else {
        return out.fail("traced run_parallel built no RunProfile".into());
    };
    let bucket = |name: &str| {
        dcer_obs::profile::PHASES
            .iter()
            .find(|ph| ph.name() == name)
            .and_then(|ph| profile.phase_ns.get(ph))
            .map_or(0.0, |&ns| ns as f64 / 1e9)
    };
    for (metric, phase) in [
        ("hypart.partition_s", "partition"),
        ("chase.index_build_s", "index_build"),
        ("chase.deduce_s", "deduce"),
        ("bsp.exchange_s", "exchange"),
        ("bsp.barrier_wait_s", "barrier_wait"),
        ("core.pipeline.assemble_s", "assemble"),
        ("pool.scheduler_s", "scheduler"),
        ("core.pipeline.other_s", "other"),
    ] {
        out.set(metric, bucket(phase));
    }
    let utilization = profile.workers.iter().map(|w| w.utilization()).fold(1.0, f64::min);
    let straggler = profile.steps.iter().map(|s| s.straggler_index()).fold(1.0, f64::max);
    out.set("core.pipeline.worker_utilization_min", utilization);
    out.set("core.pipeline.straggler_index_max", straggler);
    // The buckets should sum to the traced wall: the error is 0 when they do.
    let ratio = profile.decomposition_sum_ns() as f64 / 1e9 / wall;
    out.note("profile_sum_ratio", format!("{ratio:.4}"));
    out.set("obs.profile_sum_error", (ratio - 1.0).abs());
    let untraced = out.metrics.get("resolve_s").copied().unwrap_or(wall);
    out.set("obs.trace_overhead", wall / untraced);
}

fn traced_serve(world: &World, serve: &mut ServeState, out: &mut Outcome) {
    let idle = AtomicBool::new(false);
    let (admitted, collector) = collect(|| {
        let mut admitted = 0usize;
        for _ in 0..TRACED_ADMITS {
            let _span = dcer_obs::span("bench.admit");
            admitted += usize::from(serve.admit(world, out, &idle).is_some());
        }
        admitted
    });
    let per = |total: f64, n: usize| if n == 0 { 0.0 } else { total / n as f64 };
    let (run, runs) = span_secs(&collector, "update.run");
    out.set("core.update.run_s", per(run, runs));
    let (publish, publishes) = span_secs(&collector, "serve.snapshot");
    out.set("core.serve.publish_s", per(publish, publishes));
    let rounds = match collector.registry().get("update.notice_rounds", None) {
        Some(Metric::Histogram(h)) => h.sum() as f64,
        _ => 0.0,
    };
    out.set("core.update.notice_rounds", per(rounds, admitted));

    let snap = world.resolver.snapshot();
    out.set("core.serve.provenance_entries", snap.provenance().len() as f64);
    out.set("core.serve.clusters", snap.clusters().len() as f64);
    const LOADS: usize = 1024;
    let mut per_load = Vec::new();
    for _ in 0..64 {
        let t = Instant::now();
        for _ in 0..LOADS {
            std::hint::black_box(world.resolver.snapshot());
        }
        per_load.push(t.elapsed().as_nanos() as f64 / LOADS as f64);
    }
    out.set("core.serve.snapshot_load_ns", stats::median(&per_load).expect("64 batches"));
}

/// Time each model's `classify_batch` on a fixed sample of the workload's
/// own value pairs.
fn kernels(spec: &Spec, data: &Dataset, session: &DcerSession, out: &mut Outcome) {
    const PAIRS: usize = 256;
    for model in crate::spec::all_models() {
        out.set(&format!("ml.kernel_ns_per_pair.{model}"), 0.0);
    }
    for &(model, rel, attr) in spec.models {
        let Some(classifier) = session.registry().get(model) else {
            out.fail(format!("model {model} is not registered"));
            continue;
        };
        let (rel, attr) = data.catalog().attr(rel, attr).expect("model attribute exists");
        let values: Vec<&Value> = data.relation(rel).tuples().iter().map(|t| t.get(attr)).collect();
        if values.is_empty() {
            continue;
        }
        let pairs: Vec<(Vec<Value>, Vec<Value>)> = (0..PAIRS)
            .map(|i| {
                let a = values[i % values.len()].clone();
                let b = values[(i * 7 + 1) % values.len()].clone();
                (vec![a], vec![b])
            })
            .collect();
        let mut ns = Vec::new();
        let t0 = Instant::now();
        while ns.len() < 5 || (t0.elapsed() < Duration::from_millis(200) && ns.len() < 50) {
            let t = Instant::now();
            let _span = dcer_obs::span("bench.classify_batch");
            std::hint::black_box(classifier.classify_batch(std::hint::black_box(&pairs)));
            ns.push(t.elapsed().as_nanos() as f64 / PAIRS as f64);
        }
        out.set(&format!("ml.kernel_ns_per_pair.{model}"), stats::median(&ns).expect("5 samples"));
    }
}

/// Reset the process's peak resident set to its current one; whether it
/// could.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set (VmHWM) in MB; 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hand both correctness checks a wrong reference and report each one that
/// does not fire.
pub fn check_fires_on_wrong_reference(spec: &Spec, seed: u64) -> Result<Vec<String>, String> {
    let world = Setups::default().setup(spec, seed)?;
    let mut problems = Vec::new();

    let mut wrong = world.session.try_run_sequential(&world.data)?.matches.clusters();
    let Some(cluster) = wrong.first_mut() else {
        return Ok(vec!["toy data resolves to no clusters".into()]);
    };
    cluster.pop();
    let mut out = Outcome::default();
    resolve_round(spec, &world, &wrong, Duration::ZERO, &mut Vec::new(), &mut out);
    if out.failed == 0 {
        problems.push("resolve check passed against a wrong reference".into());
    }

    // A prefix that deleted one clustered tuple the resolver never saw.
    let snap = world.resolver.snapshot();
    let mut prefix = world.data.clone();
    prefix.delete(snap.clusters()[0][0]);
    let mut out = Outcome::default();
    check_epochs(&world.session, &[(snap, prefix)], &mut out);
    if out.failed == 0 {
        problems.push("epoch check passed against a wrong prefix".into());
    }
    Ok(problems)
}

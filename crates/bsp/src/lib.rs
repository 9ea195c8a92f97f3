//! A Bulk Synchronous Parallel (BSP \[63\]) runtime for the fixpoint model of
//! Section III-B: `n` workers proceeding in supersteps until global
//! quiescence (`ΔΓᵢ = ∅` for all `i`).
//!
//! ## Sharded exchange
//!
//! Unlike the classical formulation where a master `P₀` receives, unions and
//! re-routes every fact, workers here route *directly by destination shard*:
//! [`Worker::superstep`] returns `(recipient, message)` pairs and the runtime
//! deposits each message straight into the recipient's mailbox. The
//! coordinator role is reduced to what `P₀` fundamentally must do — detect
//! global quiescence (a superstep that delivered nothing) — so no single
//! process is a serialization point for message payloads.
//!
//! Messages implement [`Message`] and are expected to be *cheaply shareable*:
//! routing one batch to `k` recipients costs `k` clones of the message
//! handle (an `Arc` bump for `DeltaBatch`-style types), never a deep copy of
//! the payload.
//!
//! ## One superstep loop (see `DESIGN.md` §5)
//!
//! Every run, in either [`ExecutionMode`], goes through the same loop.
//! Each superstep has three parts:
//!
//! 1. **Compute** — one [`dcer_pool::WorkPool::run`] batch with one task
//!    per worker. A task makes the fault decisions for its worker (crash,
//!    stall, restore and replay), runs `initial`/`superstep`, takes the
//!    checkpoint, and returns its busy time and routed messages. Its spans
//!    land on a dedicated `worker-{k}` trace track. The batch join is the
//!    superstep barrier.
//! 2. **Exchange** — on the calling thread, in fixed worker order: pending
//!    retransmissions and delayed deliveries that are due, then every
//!    routed message passes the fault injector and lands in its
//!    recipient's inbox. This moves `Arc` handles, never payloads; no
//!    worker ever waits on a peer's mailbox.
//! 3. **Accounting** — per-worker busy times and the step's bytes enter
//!    [`BspStats`]; a superstep that delivered nothing with nothing in
//!    flight is global quiescence.
//!
//! Stats, fault decisions and flow edges therefore come from one code path
//! and are identical in both modes. The mode only picks where the compute
//! batch runs:
//!
//! - [`ExecutionMode::Simulated`]: inline on the calling thread, in worker
//!   order. Busy times are uncontended, so the *simulated parallel time*
//!   (makespan) `Σ_steps max_worker(busy)` plus a per-byte communication
//!   cost measures exactly what parallel scalability (Theorem 7) is about,
//!   independent of how many cores the host has.
//! - [`ExecutionMode::Threaded`]: on a work-stealing pool — the caller's
//!   ([`run_bsp_on`]) or a transient one of `min(workers, cores)` lanes —
//!   so supersteps run under true concurrency.
//!
//! ## Fault tolerance (see `DESIGN.md` §11)
//!
//! [`run_bsp_with`] accepts a [`FaultConfig`]: superstep-boundary
//! checkpointing into a [`CheckpointStore`], a deterministic [`FaultPlan`]
//! injector (crash / drop / delay / duplicate / stall), and a recovery path
//! that restores a failed worker from its last checkpoint and replays the
//! exchanges it missed from a per-recipient delivery log. Replay is
//! idempotent for `DeltaBatch`-style canonical messages, so the recovered
//! fixpoint equals the fault-free one (Church–Rosser). Every fault decision
//! is keyed by `(worker, step)` / `(from, to, step)`, so [`RecoveryStats`]
//! are identical across modes for a given plan. An inactive config (the
//! default used by [`run_bsp`]) skips checkpoints, injector and logs.

pub mod checkpoint;
pub mod fault;

pub use checkpoint::CheckpointStore;
pub use fault::{EdgeFault, Fault, FaultConfig, FaultPlan, RecoveryStats};

use dcer_obs::TrackId;
use dcer_pool::WorkPool;
use serde::Serialize;
use std::time::Instant;

/// Worker index within a run.
pub type WorkerId = usize;

/// A routable message: cheap to clone (hand an `Arc`-backed batch to `k`
/// recipients with `k` pointer bumps) and sized exactly for communication
/// accounting.
pub trait Message: Send + Clone + 'static {
    /// Exact wire size of the payload in bytes.
    fn size_bytes(&self) -> usize;

    /// Number of logical units (facts) carried; `1` for scalar messages.
    fn unit_count(&self) -> usize {
        1
    }

    /// Serialize the payload for on-disk checkpoint spill. `None` (the
    /// default) keeps checkpoints of this message type memory-only.
    fn encode(&self) -> Option<Vec<u8>> {
        None
    }

    /// Inverse of [`Message::encode`]; `None` on unsupported or malformed
    /// input.
    fn decode(_bytes: &[u8]) -> Option<Self> {
        None
    }
}

macro_rules! scalar_message {
    ($($t:ty),*) => {$(
        impl Message for $t {
            fn size_bytes(&self) -> usize {
                std::mem::size_of::<$t>()
            }
            fn encode(&self) -> Option<Vec<u8>> {
                Some(self.to_le_bytes().to_vec())
            }
            fn decode(bytes: &[u8]) -> Option<$t> {
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

scalar_message!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A BSP worker. `initial` is the partial-evaluation superstep (`A` in the
/// paper); `superstep` is the incremental step (`A_Δ`). Both return messages
/// *already routed* to their destination shards; deliveries to `self` are
/// filtered by the runtime.
pub trait Worker: Send {
    /// The message type exchanged between shards.
    type Msg: Message;

    /// Superstep 0: compute local results from the worker's fragment and
    /// route them.
    fn initial(&mut self) -> Vec<(WorkerId, Self::Msg)>;

    /// Superstep r ≥ 1: incorporate delivered messages, route new local
    /// results. Returning nothing signals local quiescence.
    fn superstep(&mut self, inbox: Vec<Self::Msg>) -> Vec<(WorkerId, Self::Msg)>;

    /// Units received over the whole run that the worker already knew
    /// (duplicates absorbed by local dedup). Read once at the end of the
    /// run for [`BspStats::deduped_facts`].
    fn absorbed_duplicates(&self) -> u64 {
        0
    }

    /// Capture the worker's durable state as one message for superstep
    /// checkpointing. `None` (the default) opts this worker out of
    /// checkpointing; recovery then rebuilds from immutable inputs alone.
    fn snapshot(&mut self) -> Option<Self::Msg> {
        None
    }

    /// Rebuild after a failure: discard in-memory state, reload from
    /// `checkpoint` (the latest [`Worker::snapshot`], if any) and return
    /// messages to route — the re-announcement of recovered state, which is
    /// essential when the failure precedes `initial`. Workers that a
    /// [`FaultPlan`] may crash must override this; the default keeps stale
    /// state and announces nothing.
    fn restore(&mut self, _checkpoint: Option<&Self::Msg>) -> Vec<(WorkerId, Self::Msg)> {
        Vec::new()
    }
}

/// How to execute the workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Supersteps compute inline on the calling thread, one worker after
    /// the other, with per-worker busy-time accounting (simulated cluster).
    Simulated,
    /// Supersteps compute as one work-stealing pool batch, one task per
    /// worker, concurrently on as many lanes as the pool has.
    Threaded,
}

/// Cost model for the simulated cluster.
///
/// ```
/// let cost = dcer_bsp::CostModel::default();
/// // 8e-8 s/B = 12.5 MB/s = 1e8 bit/s = 100 Mbit/s.
/// assert!((cost.secs_per_byte - 8e-8).abs() < 1e-20);
/// assert!((1.0 / cost.secs_per_byte * 8.0 - 100e6).abs() < 1e-3);
/// assert!((cost.barrier_secs - 1e-4).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Serialize)]
pub struct CostModel {
    /// Seconds per byte routed between workers. The default `8e-8` s/B is
    /// 12.5 MB/s ≈ 100 Mbit/s — the network of the paper's evaluation
    /// cluster. Zero ignores communication.
    pub secs_per_byte: f64,
    /// Fixed per-superstep synchronization barrier cost in seconds.
    pub barrier_secs: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel { secs_per_byte: 8e-8, barrier_secs: 1e-4 }
    }
}

/// Statistics of one BSP run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct BspStats {
    /// Number of supersteps executed (including superstep 0).
    pub supersteps: usize,
    /// Batches (messages) delivered worker→worker.
    pub batches: u64,
    /// Logical units (facts) delivered: Σ `unit_count` over deliveries.
    pub messages: u64,
    /// Total bytes delivered (per [`Message::size_bytes`]).
    pub bytes: u64,
    /// Bytes received per destination shard.
    pub shard_bytes: Vec<u64>,
    /// Units delivered that recipients already knew (absorbed duplicates).
    pub deduped_facts: u64,
    /// Per superstep: the maximum single-worker busy time (seconds).
    pub step_max_secs: Vec<f64>,
    /// Per superstep: the sum of worker busy times (seconds).
    pub step_total_secs: Vec<f64>,
    /// Per worker: total busy seconds across supersteps.
    pub worker_busy_secs: Vec<f64>,
    /// Simulated parallel time: Σ max-per-step + communication + barriers.
    pub makespan_secs: f64,
    /// Total compute across all workers (the sequential-equivalent work).
    pub total_compute_secs: f64,
    /// Wall-clock time of the whole run.
    pub wall_secs: f64,
    /// Fault-tolerance layer counters (all zero on fault-free runs).
    pub recovery: RecoveryStats,
}

impl BspStats {
    fn new(n: usize) -> BspStats {
        BspStats { worker_busy_secs: vec![0.0; n], shard_bytes: vec![0; n], ..Default::default() }
    }

    /// Publish this run's aggregates into the global [`dcer_obs`] registry
    /// (no-op unless a recorder is installed). Scalars become `bsp.*`
    /// counters/gauges; per-shard series carry the shard index as label.
    pub fn publish(&self) {
        if !dcer_obs::enabled() {
            return;
        }
        dcer_obs::counter_add("bsp.supersteps", self.supersteps as u64);
        dcer_obs::counter_add("bsp.batches", self.batches);
        dcer_obs::counter_add("bsp.messages", self.messages);
        dcer_obs::counter_add("bsp.bytes", self.bytes);
        dcer_obs::counter_add("bsp.deduped_facts", self.deduped_facts);
        dcer_obs::gauge_set("bsp.makespan_secs", self.makespan_secs);
        dcer_obs::gauge_set("bsp.total_compute_secs", self.total_compute_secs);
        dcer_obs::gauge_set("bsp.wall_secs", self.wall_secs);
        for (i, &b) in self.shard_bytes.iter().enumerate() {
            dcer_obs::counter_add_labeled("bsp.shard_bytes", i as u32, b);
        }
        for (i, &s) in self.worker_busy_secs.iter().enumerate() {
            dcer_obs::gauge_set_labeled("bsp.worker_busy_secs", i as u32, s);
        }
        for &m in &self.step_max_secs {
            dcer_obs::histogram_record("bsp.step_max_us", (m * 1e6) as u64);
        }
        self.recovery.publish();
    }

    fn account_step(&mut self, cost: &CostModel, durations: &[f64], step_bytes: u64) {
        let max = durations.iter().copied().fold(0.0, f64::max);
        let total: f64 = durations.iter().sum();
        self.step_max_secs.push(max);
        self.step_total_secs.push(total);
        for (w, d) in durations.iter().enumerate() {
            self.worker_busy_secs[w] += d;
        }
        self.supersteps += 1;
        self.makespan_secs += max + cost.barrier_secs + step_bytes as f64 * cost.secs_per_byte;
        self.total_compute_secs += total;
    }
}

/// A BSP run that could not complete under its [`FaultConfig`]: a dropped
/// delivery exhausted its retransmission budget. Carries the statistics of
/// the aborted attempt so callers can degrade gracefully (rerun fault-free)
/// while still reporting what the fault layer did.
#[derive(Debug)]
pub struct BspAbort {
    /// Human-readable cause.
    pub reason: String,
    /// Statistics of the aborted attempt (recovery counters included).
    /// Boxed: keeps the `Result` err variant small on the hot return path.
    pub stats: Box<BspStats>,
}

impl std::fmt::Display for BspAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BSP run aborted: {}", self.reason)
    }
}

impl std::error::Error for BspAbort {}

/// Run a BSP computation to global quiescence. Returns the workers (with
/// their final state) and the run statistics.
pub fn run_bsp<W: Worker>(
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
) -> (Vec<W>, BspStats) {
    match run_bsp_with(workers, mode, cost, &FaultConfig::none()) {
        Ok(result) => result,
        Err(_) => unreachable!("an inactive FaultConfig never aborts"),
    }
}

/// Run a BSP computation to global quiescence under a fault-tolerance
/// configuration. With an inactive config this is exactly [`run_bsp`]
/// (zero overhead); with checkpointing and/or a [`FaultPlan`] the runtime
/// checkpoints at superstep boundaries, injects the planned faults and
/// recovers failed workers. Returns [`BspAbort`] when a dropped delivery
/// exhausts its retransmission budget.
pub fn run_bsp_with<W: Worker>(
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
    faults: &FaultConfig,
) -> Result<(Vec<W>, BspStats), BspAbort> {
    run_bsp_inner(workers, mode, cost, faults, None)
}

/// Like [`run_bsp_with`], but a threaded run computes its supersteps on
/// the shared [`WorkPool`] instead of a transient pool of its own. A
/// simulated run computes inline and ignores the pool. Supersteps, stats
/// and flow edges are the same either way.
pub fn run_bsp_on<W: Worker>(
    pool: &WorkPool,
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
    faults: &FaultConfig,
) -> Result<(Vec<W>, BspStats), BspAbort> {
    run_bsp_inner(workers, mode, cost, faults, Some(pool))
}

fn run_bsp_inner<W: Worker>(
    workers: Vec<W>,
    mode: ExecutionMode,
    cost: &CostModel,
    faults: &FaultConfig,
    pool: Option<&WorkPool>,
) -> Result<(Vec<W>, BspStats), BspAbort> {
    if workers.is_empty() {
        // No workers, no supersteps: the loop would still account one.
        return Ok((workers, BspStats::new(0)));
    }
    let faults = faults.active().then_some(faults);
    let result = match (mode, pool) {
        (ExecutionMode::Simulated, _) => run_loop(&WorkPool::new(1), workers, cost, faults),
        (ExecutionMode::Threaded, Some(pool)) => run_loop(pool, workers, cost, faults),
        (ExecutionMode::Threaded, None) => {
            let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
            run_loop(&WorkPool::new(workers.len().min(cores)), workers, cost, faults)
        }
    };
    if let Ok((_, stats)) = &result {
        stats.publish();
    }
    result
}

/// The phase-span name for a superstep: superstep 0 runs the partial
/// evaluation `A` ("deduce"), later supersteps run `A_Δ` ("incdeduce").
fn step_span_name(first: bool) -> &'static str {
    if first {
        "deduce"
    } else {
        "incdeduce"
    }
}

/// Deterministic id for the `bsp.send` flow edge of one batch handoff:
/// derived from the routing coordinates `(exchange step, from, to)`, so
/// the edge set is a function of the run, never of scheduling (pinned
/// across modes by `tests/flow_parity.rs`). Stays far below 2^53, so the
/// id survives JSON number round-trips.
fn bsp_flow_id(step: u64, from: WorkerId, to: WorkerId) -> u64 {
    (step << 32) | ((from as u64) << 16) | to as u64
}

/// Deterministic id for the `bsp.spawn` flow edge linking the calling
/// thread (which just partitioned and built the fleet) to each worker's
/// first superstep. Namespaced above every possible [`bsp_flow_id`].
fn spawn_flow_id(worker: WorkerId) -> u64 {
    (1u64 << 50) | worker as u64
}

/// One worker's slot in the superstep loop.
struct Shard<W: Worker> {
    worker: W,
    /// Batches delivered at the last exchange, consumed by the next compute.
    inbox: Vec<W::Msg>,
    /// Every delivery since the worker's last checkpoint — what a failed
    /// worker replays. Kept only when the plan can fail a worker.
    log: Vec<W::Msg>,
    /// The worker's `worker-{k}` trace timeline.
    track: TrackId,
}

/// What one worker's compute task hands to the exchange.
struct Computed<M> {
    /// Compute time plus any sub-timeout stall: the worker's share of the
    /// superstep in the virtual makespan.
    busy_secs: f64,
    /// `(recipient, message)` pairs, self-routes included.
    routed: Vec<(WorkerId, M)>,
    /// Fault counters this task moved (crash, stall, recovery, checkpoint).
    rec: RecoveryStats,
    /// When the task ended, on the trace clock (`None` while tracing is
    /// off): the start of the worker's `bsp.barrier_wait` span.
    end_ns: Option<u64>,
}

/// The compute part of superstep `step` for worker `k`: the plan's crash
/// and stall decisions, restore and replay after a failure,
/// `initial`/`superstep`, and the checkpoint.
fn compute<W: Worker>(
    k: WorkerId,
    shard: &mut Shard<W>,
    step: u64,
    faults: Option<(&FaultConfig, &CheckpointStore<W::Msg>)>,
) -> Computed<W::Msg> {
    // On a pool the OS thread is a reused `pool-{i}` (or the caller): the
    // worker's spans go to its own timeline whichever thread runs it.
    let _track = dcer_obs::redirect_thread_track(shard.track);
    let span = dcer_obs::span(step_span_name(step == 0)).with_arg("step", step);
    let t0 = Instant::now();
    let mut rec = RecoveryStats::default();
    let mut stall_secs = 0.0f64;
    let mut failed = false;
    if let Some((cfg, _)) = faults {
        failed = cfg.plan.crashed(k, step);
        if failed {
            rec.crashes += 1;
            dcer_obs::instant("bsp.fault.crash");
        }
        if let Some(ms) = cfg.plan.stall_millis(k, step) {
            rec.stalls += 1;
            dcer_obs::instant("bsp.fault.stall");
            stall_secs = ms as f64 / 1e3;
            failed |= stall_secs > cfg.stall_timeout_secs;
        }
    }
    let inbox = std::mem::take(&mut shard.inbox);
    let w = &mut shard.worker;
    let routed = match faults {
        Some((_, store)) if failed => {
            // The volatile state and the undrained inbox are lost; the log
            // still holds everything since the last checkpoint, the inbox
            // included. A stall that failed is recovery, not a slow step.
            drop(inbox);
            stall_secs = 0.0;
            let ckpt = store.latest(k);
            let mut out = w.restore(ckpt.as_ref().map(|(_, m)| m));
            let replay = shard.log.clone();
            rec.replayed_batches += replay.len() as u64;
            rec.replayed_facts += replay.iter().map(|m| m.unit_count() as u64).sum::<u64>();
            rec.recoveries += 1;
            dcer_obs::instant("bsp.recovery.restore");
            out.extend(w.superstep(replay));
            out
        }
        _ if step == 0 => w.initial(),
        _ => w.superstep(inbox),
    };
    // Checkpoint inside the timed window: its cost is part of the worker's
    // step in the virtual makespan.
    if let Some((cfg, store)) = faults {
        if cfg.checkpoint_interval > 0 && step.is_multiple_of(cfg.checkpoint_interval) {
            let c0 = dcer_obs::enabled().then(Instant::now);
            if let Some(snap) = w.snapshot() {
                rec.checkpoints += 1;
                rec.checkpoint_facts += snap.unit_count() as u64;
                rec.checkpoint_bytes += snap.size_bytes() as u64;
                store.put(k, step, snap);
                // Replay after a later failure starts from this checkpoint,
                // which covers every delivery logged so far.
                shard.log.clear();
            }
            if let Some(c0) = c0 {
                dcer_obs::histogram_record("bsp.checkpoint_ns", c0.elapsed().as_nanos() as u64);
            }
        }
    }
    let busy_secs = t0.elapsed().as_secs_f64() + stall_secs;
    drop(span);
    Computed { busy_secs, routed, rec, end_ns: dcer_obs::enabled().then(dcer_obs::now_ns) }
}

/// A message held back by the injector: either a scheduled retransmission
/// of a dropped delivery (`retry`) or a delayed delivery already past the
/// injector. Due at the exchange of superstep `due`.
struct PendingSend<M> {
    from: WorkerId,
    to: WorkerId,
    msg: M,
    attempts: u32,
    due: u64,
    retry: bool,
}

/// `(from, to, message)` triples of one exchange, in delivery order.
type Sends<M> = Vec<(WorkerId, WorkerId, M)>;

/// The exchange side of the fault layer: the plan's edge faults, the
/// messages they hold back, and the run's fault counters.
struct Injector<'a, M> {
    cfg: &'a FaultConfig,
    pending: Vec<PendingSend<M>>,
    rec: RecoveryStats,
}

impl<M: Message> Injector<'_, M> {
    /// Pass one exchange through the plan: the held-back messages due at
    /// `step` first, then this superstep's `sends`, in the order given.
    /// Returns what is delivered now; errs when a dropped delivery
    /// exhausts its retransmission budget.
    fn route(&mut self, sends: Sends<M>, step: u64) -> Result<Sends<M>, String> {
        let mut out = Vec::with_capacity(sends.len());
        let (due, later): (Vec<_>, Vec<_>) =
            std::mem::take(&mut self.pending).into_iter().partition(|p| p.due <= step);
        self.pending = later;
        for p in due {
            if p.retry {
                self.rec.retries += 1;
                self.send(p.from, p.to, p.msg, step, p.attempts, &mut out)?;
            } else {
                // A delayed delivery already passed the injector.
                out.push((p.from, p.to, p.msg));
            }
        }
        for (from, to, msg) in sends {
            self.send(from, to, msg, step, 0, &mut out)?;
        }
        Ok(out)
    }

    /// One send attempt on `from -> to` at `step`, after `attempts` prior
    /// drops of this message: it lands in `out` (twice when duplicated) or
    /// waits in `pending`. Pure in the `(plan, edge, step, attempts)` key.
    fn send(
        &mut self,
        from: WorkerId,
        to: WorkerId,
        msg: M,
        step: u64,
        attempts: u32,
        out: &mut Sends<M>,
    ) -> Result<(), String> {
        let (due, attempts, retry) = match self.cfg.plan.edge(from, to, step) {
            EdgeFault::Deliver => {
                out.push((from, to, msg));
                return Ok(());
            }
            EdgeFault::Duplicate => {
                self.rec.duplicated_batches += 1;
                dcer_obs::instant("bsp.fault.dup");
                out.push((from, to, msg.clone()));
                out.push((from, to, msg));
                return Ok(());
            }
            EdgeFault::Delay(d) => {
                self.rec.delayed_batches += 1;
                dcer_obs::instant("bsp.fault.delay");
                (step.saturating_add(d), attempts, false)
            }
            EdgeFault::Drop => {
                self.rec.dropped_batches += 1;
                dcer_obs::instant("bsp.fault.drop");
                if attempts >= self.cfg.max_retries {
                    return Err(format!(
                        "delivery {from}->{to} dropped {} times by superstep {step}; \
                         retries exhausted",
                        attempts + 1
                    ));
                }
                // Exponential backoff: the r-th retry waits base << r steps.
                (step.saturating_add(self.cfg.retry_backoff_steps << attempts), attempts + 1, true)
            }
        };
        self.pending.push(PendingSend { from, to, msg, attempts, due, retry });
        Ok(())
    }
}

/// The superstep loop: compute on `pool`, exchange and account on the
/// caller, until a superstep delivers nothing with nothing held back.
fn run_loop<W: Worker>(
    pool: &WorkPool,
    workers: Vec<W>,
    cost: &CostModel,
    faults: Option<&FaultConfig>,
) -> Result<(Vec<W>, BspStats), BspAbort> {
    let n = workers.len();
    let wall = Instant::now();
    let mut stats = BspStats::new(n);
    let store = faults.map(|cfg| CheckpointStore::new(n, cfg.checkpoint_dir.clone()));
    let mut injector =
        faults.map(|cfg| Injector { cfg, pending: Vec::new(), rec: RecoveryStats::default() });
    // Failures come from the plan alone: an empty plan never replays, so
    // it keeps no delivery log.
    let replayable = faults.is_some_and(|cfg| !cfg.plan.is_empty());
    let mut shards: Vec<Shard<W>> = workers
        .into_iter()
        .enumerate()
        .map(|(k, worker)| {
            let track = if dcer_obs::enabled() {
                dcer_obs::alloc_track(&format!("worker-{k}"))
            } else {
                TrackId::UNTRACKED
            };
            // Causal edge from the calling thread, which partitioned and
            // built the fleet, to the worker's first superstep.
            dcer_obs::flow_begin("bsp.spawn", spawn_flow_id(k));
            dcer_obs::flow_end_on("bsp.spawn", spawn_flow_id(k), track);
            Shard { worker, inbox: Vec::new(), log: Vec::new(), track }
        })
        .collect();
    let ctx = faults.zip(store.as_ref());
    let mut step = 0u64;
    loop {
        // Compute: one task per worker; the batch join is the barrier.
        let tasks: Vec<_> = shards
            .iter_mut()
            .enumerate()
            .map(|(k, shard)| move || compute(k, shard, step, ctx))
            .collect();
        let computed = pool.run(tasks, None);
        let join_ns = dcer_obs::enabled().then(dcer_obs::now_ns);

        // Exchange, in fixed worker order.
        let exchange = dcer_obs::span("exchange").with_arg("step", step);
        let mut durations = Vec::with_capacity(n);
        let mut sends = Vec::new();
        for (k, c) in computed.into_iter().enumerate() {
            durations.push(c.busy_secs);
            if let Some(inj) = injector.as_mut() {
                inj.rec.add(&c.rec);
            }
            if let (Some(end), Some(join)) = (c.end_ns, join_ns) {
                // Real time from the worker's task end to the join: its
                // wait on the superstep's straggler.
                if join > end {
                    let arg = Some(("step", step));
                    dcer_obs::record_span(
                        "bsp.barrier_wait",
                        shards[k].track,
                        end,
                        join - end,
                        arg,
                    );
                }
            }
            for (to, msg) in c.routed {
                if to == k {
                    continue; // self-routes are free and filtered
                }
                assert!(to < n, "routed to nonexistent shard {to}");
                sends.push((k, to, msg));
            }
        }
        let routed = match injector.as_mut() {
            Some(inj) => inj.route(sends, step),
            None => Ok(sends),
        };
        let deliveries = match routed {
            Ok(deliveries) => deliveries,
            Err(reason) => {
                stats.recovery = injector.map_or_else(RecoveryStats::default, |inj| inj.rec);
                stats.wall_secs = wall.elapsed().as_secs_f64();
                return Err(BspAbort { reason, stats: Box::new(stats) });
            }
        };
        let delivered = deliveries.len();
        let mut step_bytes = 0u64;
        for (from, to, msg) in deliveries {
            let b = msg.size_bytes() as u64;
            step_bytes += b;
            stats.bytes += b;
            stats.shard_bytes[to] += b;
            stats.batches += 1;
            stats.messages += msg.unit_count() as u64;
            dcer_obs::histogram_record("bsp.batch_bytes", b);
            // One causal edge per delivered batch, sender timeline to
            // recipient timeline.
            let id = bsp_flow_id(step, from, to);
            dcer_obs::flow_begin_on("bsp.send", id, shards[from].track);
            dcer_obs::flow_end_on("bsp.send", id, shards[to].track);
            if replayable {
                shards[to].log.push(msg.clone());
            }
            shards[to].inbox.push(msg);
        }
        dcer_obs::histogram_record("bsp.step_bytes", step_bytes);
        drop(exchange);

        // Accounting and quiescence. Held-back messages (retransmissions,
        // delayed deliveries) keep the run alive: a delayed batch must not
        // silently vanish from the fixpoint.
        stats.account_step(cost, &durations, step_bytes);
        step += 1;
        if delivered == 0 && injector.as_ref().is_none_or(|inj| inj.pending.is_empty()) {
            break;
        }
    }
    stats.deduped_facts = shards.iter().map(|s| s.worker.absorbed_duplicates()).sum();
    if let Some(inj) = injector {
        stats.recovery = inj.rec;
    }
    stats.wall_secs = wall.elapsed().as_secs_f64();
    Ok((shards.into_iter().map(|s| s.worker).collect(), stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy computation: a "fact" spreads max values; workers emit to every
    /// peer when their local max increases. Converges to the global max
    /// everywhere. `seed` is the worker's durable input: a crash resets
    /// `local_max` to the latest checkpoint (or the seed).
    #[derive(Debug)]
    struct MaxWorker {
        id: WorkerId,
        peers: usize,
        seed: u64,
        local_max: u64,
    }

    impl MaxWorker {
        fn broadcast(&self) -> Vec<(WorkerId, u64)> {
            (0..self.peers).filter(|&w| w != self.id).map(|w| (w, self.local_max)).collect()
        }
    }

    impl Worker for MaxWorker {
        type Msg = u64;
        fn initial(&mut self) -> Vec<(WorkerId, u64)> {
            self.broadcast()
        }
        fn superstep(&mut self, inbox: Vec<u64>) -> Vec<(WorkerId, u64)> {
            let incoming = inbox.into_iter().max().unwrap_or(0);
            if incoming > self.local_max {
                self.local_max = incoming;
                self.broadcast()
            } else {
                Vec::new()
            }
        }
        fn snapshot(&mut self) -> Option<u64> {
            Some(self.local_max)
        }
        fn restore(&mut self, checkpoint: Option<&u64>) -> Vec<(WorkerId, u64)> {
            self.local_max = checkpoint.copied().unwrap_or(self.seed);
            self.broadcast()
        }
    }

    fn fleet(maxes: &[u64]) -> Vec<MaxWorker> {
        let n = maxes.len();
        maxes
            .iter()
            .enumerate()
            .map(|(id, &m)| MaxWorker { id, peers: n, seed: m, local_max: m })
            .collect()
    }

    fn run(mode: ExecutionMode) -> (Vec<MaxWorker>, BspStats) {
        run_bsp(fleet(&[3, 17, 5, 11]), mode, &CostModel::default())
    }

    fn run_faulty(mode: ExecutionMode, cfg: &FaultConfig) -> (Vec<MaxWorker>, BspStats) {
        run_bsp_with(fleet(&[3, 17, 5, 11]), mode, &CostModel::default(), cfg)
            .expect("run should not abort")
    }

    const MODES: [ExecutionMode; 2] = [ExecutionMode::Simulated, ExecutionMode::Threaded];

    #[test]
    fn simulated_converges_to_global_max() {
        let (workers, stats) = run(ExecutionMode::Simulated);
        assert!(workers.iter().all(|w| w.local_max == 17));
        assert!(stats.supersteps >= 2);
        assert!(stats.batches > 0);
        assert_eq!(stats.bytes, stats.batches * 8);
        assert_eq!(stats.messages, stats.batches, "scalar messages carry one unit");
        assert_eq!(stats.step_max_secs.len(), stats.supersteps);
        assert_eq!(stats.shard_bytes.iter().sum::<u64>(), stats.bytes);
        assert!(stats.makespan_secs > 0.0);
    }

    #[test]
    fn threaded_converges_to_global_max() {
        let (workers, stats) = run(ExecutionMode::Threaded);
        assert!(workers.iter().all(|w| w.local_max == 17));
        assert!(stats.supersteps >= 2);
        assert_eq!(stats.worker_busy_secs.len(), 4);
        assert_eq!(stats.shard_bytes.iter().sum::<u64>(), stats.bytes);
    }

    #[test]
    fn modes_agree_on_results_and_traffic() {
        let (_, sim) = run(ExecutionMode::Simulated);
        let (_, thr) = run(ExecutionMode::Threaded);
        assert_eq!(sim.batches, thr.batches);
        assert_eq!(sim.messages, thr.messages);
        assert_eq!(sim.bytes, thr.bytes);
        assert_eq!(sim.supersteps, thr.supersteps);
    }

    #[test]
    fn quiescent_from_start_terminates_after_one_step() {
        struct Quiet;
        impl Worker for Quiet {
            type Msg = u64;
            fn initial(&mut self) -> Vec<(WorkerId, u64)> {
                Vec::new()
            }
            fn superstep(&mut self, _: Vec<u64>) -> Vec<(WorkerId, u64)> {
                unreachable!("never reached without messages")
            }
        }
        for mode in MODES {
            let (_, stats) = run_bsp(vec![Quiet, Quiet], mode, &CostModel::default());
            assert_eq!(stats.supersteps, 1, "{mode:?}");
            assert_eq!(stats.batches, 0, "{mode:?}");
        }
    }

    #[test]
    fn self_routes_are_filtered() {
        struct Selfish {
            id: WorkerId,
        }
        impl Worker for Selfish {
            type Msg = u64;
            fn initial(&mut self) -> Vec<(WorkerId, u64)> {
                vec![(self.id, 7)]
            }
            fn superstep(&mut self, inbox: Vec<u64>) -> Vec<(WorkerId, u64)> {
                assert!(inbox.is_empty(), "self-routed messages must not arrive");
                Vec::new()
            }
        }
        for mode in MODES {
            let (_, stats) =
                run_bsp(vec![Selfish { id: 0 }, Selfish { id: 1 }], mode, &CostModel::default());
            assert_eq!(stats.batches, 0, "{mode:?}: self-deliveries never count");
            assert_eq!(stats.supersteps, 1, "{mode:?}");
        }
    }

    #[test]
    fn communication_cost_enters_makespan() {
        let free = CostModel { secs_per_byte: 0.0, barrier_secs: 0.0 };
        let costly = CostModel { secs_per_byte: 1e-3, barrier_secs: 0.0 };
        let (_, a) = run_bsp(fleet(&[3, 17]), ExecutionMode::Simulated, &free);
        let (_, b) = run_bsp(fleet(&[3, 17]), ExecutionMode::Simulated, &costly);
        assert!(b.makespan_secs > a.makespan_secs);
    }

    #[test]
    fn stats_serialize_to_json() {
        let (_, stats) = run(ExecutionMode::Simulated);
        let j = serde_json::to_value(&stats);
        assert_eq!(j["supersteps"], stats.supersteps);
        assert!(!j["shard_bytes"].is_null());
        assert_eq!(j["recovery"]["crashes"], 0u64);
    }

    #[test]
    fn checkpointing_only_run_matches_plain_stats() {
        for mode in MODES {
            let (_, plain) = run(mode);
            let (workers, ckpt) = run_faulty(mode, &FaultConfig::checkpointing());
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(plain.supersteps, ckpt.supersteps, "{mode:?}");
            assert_eq!(plain.batches, ckpt.batches, "{mode:?}");
            assert_eq!(plain.bytes, ckpt.bytes, "{mode:?}");
            assert_eq!(ckpt.recovery.checkpoints, 4 * ckpt.supersteps as u64, "{mode:?}");
            assert_eq!(ckpt.recovery.crashes, 0, "{mode:?}");
        }
    }

    #[test]
    fn crash_recovers_from_checkpoint() {
        for mode in MODES {
            for step in 0..3 {
                let cfg = FaultConfig::with_plan(FaultPlan::crash(1, step));
                let (workers, stats) = run_faulty(mode, &cfg);
                assert!(
                    workers.iter().all(|w| w.local_max == 17),
                    "{mode:?} crash 1@{step}: {:?}",
                    workers.iter().map(|w| w.local_max).collect::<Vec<_>>()
                );
                assert_eq!(stats.recovery.crashes, 1, "{mode:?} crash 1@{step}");
                assert_eq!(stats.recovery.recoveries, 1, "{mode:?} crash 1@{step}");
            }
        }
    }

    #[test]
    fn dropped_delivery_is_retried_and_converges() {
        let plan = FaultPlan::parse("drop 1->0@0").unwrap();
        for mode in MODES {
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.dropped_batches, 1, "{mode:?}");
            assert_eq!(stats.recovery.retries, 1, "{mode:?}");
        }
    }

    #[test]
    fn delayed_delivery_keeps_run_alive_until_it_lands() {
        // Regression (quiescence vs in-flight messages): with only two
        // workers and the one useful message delayed 3 steps, nothing is
        // delivered at steps 1 and 2. The old halt rule (delivered == 0)
        // would terminate there and worker 0 would finish with 3 ≠ 17.
        let plan = FaultPlan::parse("delay 1->0@0+3").unwrap();
        for mode in MODES {
            let (workers, stats) = run_bsp_with(
                fleet(&[3, 17]),
                mode,
                &CostModel::default(),
                &FaultConfig::with_plan(plan.clone()),
            )
            .expect("run should not abort");
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert!(stats.supersteps > 3, "{mode:?}: must outlive the delay window");
            assert_eq!(stats.recovery.delayed_batches, 1, "{mode:?}");
        }
    }

    #[test]
    fn duplicate_delivery_counts_twice_and_converges() {
        let plan = FaultPlan::parse("dup 1->0@0").unwrap();
        for mode in MODES {
            let (_, plain) = run(mode);
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.duplicated_batches, 1, "{mode:?}");
            assert_eq!(stats.batches, plain.batches + 1, "{mode:?}");
        }
    }

    #[test]
    fn stall_within_timeout_only_slows_the_step() {
        let plan = FaultPlan::parse("stall 1@1=10").unwrap();
        for mode in MODES {
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.stalls, 1, "{mode:?}");
            assert_eq!(stats.recovery.recoveries, 0, "{mode:?}: 10ms < 50ms timeout");
            assert!(stats.step_max_secs[1] >= 0.01, "{mode:?}: stall enters busy time");
        }
    }

    #[test]
    fn stall_past_timeout_is_crash_equivalent() {
        let plan = FaultPlan::parse("stall 1@1=200").unwrap();
        for mode in MODES {
            let (workers, stats) = run_faulty(mode, &FaultConfig::with_plan(plan.clone()));
            assert!(workers.iter().all(|w| w.local_max == 17), "{mode:?}");
            assert_eq!(stats.recovery.stalls, 1, "{mode:?}");
            assert_eq!(stats.recovery.recoveries, 1, "{mode:?}: 200ms > 50ms timeout");
            assert_eq!(stats.recovery.crashes, 0, "{mode:?}");
        }
    }

    #[test]
    fn exhausted_retries_abort_with_stats() {
        // Backoff schedule for a message first dropped at step 0 with base
        // 1: retries land at steps 1, 3, 7 — drop them all to exhaust the
        // default budget of 3. The run must stay alive between retries
        // (nothing else is in flight) and then abort, not hang.
        let plan = FaultPlan::parse("drop 1->0@0; drop 1->0@1; drop 1->0@3; drop 1->0@7").unwrap();
        for mode in MODES {
            let err = run_bsp_with(
                fleet(&[3, 17]),
                mode,
                &CostModel::default(),
                &FaultConfig::with_plan(plan.clone()),
            )
            .expect_err("retry budget must exhaust");
            assert!(err.reason.contains("retries exhausted"), "{mode:?}: {}", err.reason);
            assert_eq!(err.stats.recovery.dropped_batches, 4, "{mode:?}");
            assert_eq!(err.stats.recovery.retries, 3, "{mode:?}");
        }
    }
}

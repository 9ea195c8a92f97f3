//! Unified tracing and metrics for the dcer execution stack.
//!
//! The paper's evaluation (Section VI, Fig. 6(c)–(l)) attributes time and
//! communication to individual phases — partitioning, `Deduce`, exchange,
//! `IncDeduce` rounds. This crate is the substrate that makes the same
//! attribution possible in our reproduction: every execution-layer crate
//! emits *spans* (named, timed intervals on a track) and *metrics*
//! (counters, gauges, log-bucketed histograms) through one global,
//! pluggable [`Recorder`].
//!
//! ## Design
//!
//! - **Off by default, free when off.** With no recorder installed every
//!   instrumentation call is a single relaxed atomic load and an early
//!   return: no clock read, no thread-local touch, no allocation (asserted
//!   by the `noop_alloc` integration test).
//! - **Thread-aware spans.** [`span()`] opens an RAII guard on the calling
//!   thread's track (allocated lazily, named after the thread); nested
//!   guards maintain a thread-local span stack whose depth is recorded
//!   with each span. [`span_on`] targets an explicit [`TrackId`] instead,
//!   and [`redirect_thread_track`] lends the calling thread to one: that
//!   is how the BSP loop gives each logical worker its own timeline
//!   whichever thread runs its compute.
//! - **Pluggable sinks.** [`Recorder`] is the sink interface;
//!   [`NoopRecorder`] drops everything, [`InMemoryCollector`] aggregates
//!   metrics into a [`MetricsRegistry`] and buffers span events for export
//!   as Chrome trace-event JSON ([`InMemoryCollector::chrome_trace`],
//!   loadable in Perfetto / `about:tracing`) or a flat metrics JSON
//!   ([`InMemoryCollector::metrics_json`]).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//!
//! let collector = Arc::new(dcer_obs::InMemoryCollector::new());
//! dcer_obs::install(collector.clone());
//! {
//!     let _outer = dcer_obs::span("partition");
//!     let _inner = dcer_obs::span("hypart.distribute").with_arg("cells", 16);
//!     dcer_obs::counter_add("hypart.hash_computations", 42);
//! }
//! dcer_obs::uninstall();
//! assert_eq!(collector.spans().len(), 2);
//! assert!(collector.chrome_trace().contains("\"partition\""));
//! ```

pub mod collect;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod recorder;
pub mod span;

pub use collect::{FlowEvent, InMemoryCollector, InstantEvent, SpanEvent};
pub use metrics::{Histogram, Metric, MetricsRegistry};
pub use profile::{CriticalPath, Phase, RunProfile};
pub use recorder::FlowDir;
pub use recorder::{enabled, install, uninstall, with_collector, Label, NoopRecorder, Recorder};
pub use span::{alloc_track, current_track, name_current_track, span, span_depth, span_on};
pub use span::{redirect_thread_track, SpanGuard, TrackId, TrackRedirectGuard};

use recorder::with;

/// Add `value` to the unlabeled counter `name`.
#[inline]
pub fn counter_add(name: &'static str, value: u64) {
    if enabled() {
        with(|r| r.counter_add(name, None, value));
    }
}

/// Add `value` to counter `name` under numeric label `label` (by
/// convention a worker/shard index).
#[inline]
pub fn counter_add_labeled(name: &'static str, label: u32, value: u64) {
    if enabled() {
        with(|r| r.counter_add(name, Some(label), value));
    }
}

/// Set the unlabeled gauge `name` to `value`.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if enabled() {
        with(|r| r.gauge_set(name, None, value));
    }
}

/// Set gauge `name` under `label` to `value`.
#[inline]
pub fn gauge_set_labeled(name: &'static str, label: u32, value: f64) {
    if enabled() {
        with(|r| r.gauge_set(name, Some(label), value));
    }
}

/// Record `value` into the log-bucketed histogram `name`.
#[inline]
pub fn histogram_record(name: &'static str, value: u64) {
    if enabled() {
        with(|r| r.histogram_record(name, None, value));
    }
}

/// Record `value` into histogram `name` under `label`.
#[inline]
pub fn histogram_record_labeled(name: &'static str, label: u32, value: u64) {
    if enabled() {
        with(|r| r.histogram_record(name, Some(label), value));
    }
}

/// Mark an instantaneous event on the current thread's track.
#[inline]
pub fn instant(name: &'static str) {
    if enabled() {
        let track = current_track();
        with(|r| r.instant(name, track, recorder::now_ns()));
    }
}

/// Mark the *send* endpoint of causal flow edge `id` on the current
/// thread's track, now. The matching [`flow_end`] (any track, same `id`)
/// completes the edge; Perfetto renders it as an arrow between the spans
/// enclosing the two endpoints.
///
/// Ids are caller-chosen; derive them deterministically from routing
/// coordinates (e.g. `(step, from, to)`) so both BSP executors emit the
/// identical edge set for the same run. Keep ids below 2^53 so they
/// survive JSON number round-trips.
#[inline]
pub fn flow_begin(name: &'static str, id: u64) {
    if enabled() {
        let track = current_track();
        with(|r| r.flow(name, id, track, recorder::now_ns(), FlowDir::Begin));
    }
}

/// Mark the *receive* endpoint of flow edge `id` on the current thread's
/// track, now. See [`flow_begin`].
#[inline]
pub fn flow_end(name: &'static str, id: u64) {
    if enabled() {
        let track = current_track();
        with(|r| r.flow(name, id, track, recorder::now_ns(), FlowDir::End));
    }
}

/// [`flow_begin`] on an explicit track — how the simulated BSP executor
/// stamps send endpoints onto virtual worker timelines. No-op for
/// [`TrackId::UNTRACKED`].
#[inline]
pub fn flow_begin_on(name: &'static str, id: u64, track: TrackId) {
    if enabled() && track != TrackId::UNTRACKED {
        with(|r| r.flow(name, id, track, recorder::now_ns(), FlowDir::Begin));
    }
}

/// [`flow_end`] on an explicit track. No-op for [`TrackId::UNTRACKED`].
#[inline]
pub fn flow_end_on(name: &'static str, id: u64, track: TrackId) {
    if enabled() && track != TrackId::UNTRACKED {
        with(|r| r.flow(name, id, track, recorder::now_ns(), FlowDir::End));
    }
}

/// Record an already-measured span directly, bypassing the RAII guard:
/// `name` ran on `track` from `start_ns` for `dur_ns` (both in the
/// [`recorder::now_ns`] epoch), at depth 0 with an optional argument.
///
/// This is for intervals measured on one thread and recorded for another
/// track — e.g. the BSP loop's per-worker `bsp.barrier_wait` spans, which
/// run from a worker's task end to the superstep's join, as seen by the
/// thread that joined. No-op while tracing is off or for
/// [`TrackId::UNTRACKED`].
#[inline]
pub fn record_span(
    name: &'static str,
    track: TrackId,
    start_ns: u64,
    dur_ns: u64,
    arg: Option<(&'static str, u64)>,
) {
    if enabled() && track != TrackId::UNTRACKED {
        with(|r| r.span(name, track, start_ns, dur_ns, 0, arg));
    }
}

/// The current monotonic timestamp spans and flows are stamped with —
/// exposed so callers can place [`record_span`] intervals on the same
/// clock.
#[inline]
pub fn now_ns() -> u64 {
    recorder::now_ns()
}

//! Barrier-wait spans are real time inside the run: in a traced run of
//! either execution mode, every `bsp.barrier_wait` span runs from a
//! worker's task end to the superstep's join, so none may end after
//! `run_bsp_with` returns — a span past the return would make the profile's
//! buckets sum to more than the run's wall time.
//!
//! Lives in its own integration binary because it installs the process
//! global recorder.

use dcer_bsp::{run_bsp_with, CostModel, ExecutionMode, FaultConfig, Worker, WorkerId};
use dcer_obs::InMemoryCollector;
use std::sync::Arc;
use std::time::Duration;

/// A two-step relay in which worker 0 is the straggler of every
/// superstep, the last one included, so every other worker waits on it.
struct Relay {
    id: WorkerId,
    n: usize,
}

impl Relay {
    fn straggle(&self) {
        if self.id == 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Worker for Relay {
    type Msg = u64;

    fn initial(&mut self) -> Vec<(WorkerId, u64)> {
        self.straggle();
        vec![((self.id + 1) % self.n, self.id as u64)]
    }

    fn superstep(&mut self, _inbox: Vec<u64>) -> Vec<(WorkerId, u64)> {
        self.straggle();
        Vec::new()
    }
}

#[test]
fn barrier_wait_spans_end_before_the_run_returns() {
    let n = 4;
    for mode in [ExecutionMode::Simulated, ExecutionMode::Threaded] {
        let collector = Arc::new(InMemoryCollector::new());
        dcer_obs::install(collector.clone());
        let fleet = (0..n).map(|id| Relay { id, n }).collect();
        let result = run_bsp_with(fleet, mode, &CostModel::default(), &FaultConfig::none());
        let returned_ns = dcer_obs::now_ns();
        dcer_obs::uninstall();
        let (_, stats) = result.expect("a fault-free run never aborts");
        assert_eq!(stats.supersteps, 2, "{mode:?}");

        let waits: Vec<_> =
            collector.spans().into_iter().filter(|s| s.name == "bsp.barrier_wait").collect();
        assert!(!waits.is_empty(), "{mode:?}: workers wait on the straggler");
        for w in &waits {
            let end = w.start_ns + w.dur_ns;
            assert!(
                end <= returned_ns,
                "{mode:?}: barrier wait at step {:?} ends {} ns after run_bsp_with returned",
                w.arg,
                end - returned_ns
            );
        }
        let last_step = waits.iter().filter(|w| w.arg == Some(("step", 1))).count();
        assert!(last_step > 0, "{mode:?}: the final superstep records its waits too");
    }
}

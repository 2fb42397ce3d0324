//! `DLT_TRACE` support for the experiment binaries.
//!
//! Setting `DLT_TRACE=1` (any non-empty value other than `0`) makes an
//! experiment capture the engine's schedule/dispatch/drop events plus
//! protocol marks into a [`TraceLog`] and dump the structured JSON
//! event log when the run finishes — to `DLT_TRACE_OUT` if set,
//! otherwise `results/trace_<experiment>.json`. When the variable is
//! unset the helper is inert: no tracer is installed, the engine's
//! emit points stay disabled, and stdout is unchanged (so the
//! byte-determinism guarantees are unaffected).

use std::path::PathBuf;

use dlt_sim::engine::{SimNode, Simulation};
use dlt_sim::time::SimTime;
use dlt_sim::trace::{TraceEvent, TraceLog};

/// One experiment's trace session; see the module docs.
pub struct ExperimentTrace {
    id: &'static str,
    log: Option<TraceLog>,
}

/// Creates the trace session for experiment `id` from the
/// environment: enabled iff `DLT_TRACE` is set to a non-empty value
/// other than `0`.
pub fn from_env(id: &'static str) -> ExperimentTrace {
    let enabled = std::env::var("DLT_TRACE").is_ok_and(|v| !v.is_empty() && v != "0");
    ExperimentTrace {
        id,
        log: enabled.then(TraceLog::new),
    }
}

impl ExperimentTrace {
    /// Whether tracing is on for this run.
    pub fn enabled(&self) -> bool {
        self.log.is_some()
    }

    /// Makes a simulation record into this session's log. No-op when
    /// tracing is off. Repeated sweeps can install into each
    /// simulation; all events land in one log.
    pub fn install<M, N: SimNode<M>>(&self, sim: &mut Simulation<M, N>) {
        if let Some(log) = &self.log {
            sim.set_tracer(log.clone());
        }
    }

    /// This session's log for engine-less runners (e.g.
    /// `dlt_core::ledger::run_workload_traced`): `Some` when tracing
    /// is on, `None` when off.
    pub fn tracer(&self) -> Option<&TraceLog> {
        self.log.as_ref()
    }

    /// Emits a harness-level mark (timestamped at simulated zero —
    /// harness marks delimit sweep points rather than in-run moments).
    pub fn mark(&self, label: &'static str, value: u64) {
        if let Some(log) = &self.log {
            log.push(TraceEvent::Mark {
                at: SimTime::ZERO,
                label,
                value,
            });
        }
    }

    fn out_path(&self) -> PathBuf {
        if let Ok(path) = std::env::var("DLT_TRACE_OUT") {
            if !path.is_empty() {
                return PathBuf::from(path);
            }
        }
        PathBuf::from("results").join(format!("trace_{}.json", self.id))
    }
}

impl Drop for ExperimentTrace {
    fn drop(&mut self) {
        let Some(log) = &self.log else { return };
        let path = self.out_path();
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        let mut text = log.to_json().to_string();
        text.push('\n');
        // Diagnostics go to stderr: stdout is the byte-compared
        // experiment output.
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!("trace: {} events -> {}", log.len(), path.display()),
            Err(err) => eprintln!("trace: failed to write {}: {err}", path.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_session_is_inert() {
        // No DLT_TRACE manipulation here (tests run in parallel);
        // construct the disabled state directly.
        let trace = ExperimentTrace {
            id: "test",
            log: None,
        };
        assert!(!trace.enabled());
        trace.mark("anything", 1); // no-op, must not panic
        assert!(trace.tracer().is_none());
    }

    #[test]
    fn enabled_session_collects_marks() {
        let trace = ExperimentTrace {
            id: "test",
            log: Some(TraceLog::new()),
        };
        trace.mark("sweep.start", 3);
        let tracer = trace.tracer().expect("tracing is on");
        tracer.push(TraceEvent::Mark {
            at: SimTime::ZERO,
            label: "x",
            value: 1,
        });
        let log = trace.log.as_ref().unwrap();
        assert_eq!(log.len(), 2);
        // Avoid the Drop file write in tests.
        std::mem::forget(trace);
    }
}

//! Event tracing hooks for the discrete-event engine.
//!
//! The engine calls a [`Tracer`] at every send, schedule, dispatch,
//! and network-drop point; protocol code can add its own
//! [`TraceEvent::Mark`] observations through `Context::trace_mark`. With
//! no tracer installed the engine skips event construction entirely on
//! the hot path. A [`RecordingTracer`]
//! captures events into a shared buffer for tests and for the
//! `DLT_TRACE` experiment-binary mode, and the buffer renders to
//! deterministic JSON via `dlt_testkit::json`.

use std::cell::RefCell;
use std::rc::Rc;

use dlt_testkit::json::Json;

use crate::network::NodeId;
use crate::time::SimTime;

/// What kind of engine event was scheduled or dispatched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A message delivery.
    Deliver {
        /// The sending node.
        from: NodeId,
        /// The receiving node.
        to: NodeId,
    },
    /// A timer firing.
    Timer {
        /// The node whose timer fires.
        node: NodeId,
        /// The protocol-chosen timer id.
        id: u64,
    },
}

/// One observation from the engine or a protocol-level mark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A node attempted a send. Emitted once per send, after the
    /// network model and any installed
    /// [`Interceptor`](crate::fault::Interceptor) decided its fate,
    /// carrying the final delivery count (`0` = dropped; `2+` =
    /// duplicated). The `deliveries` Schedule events that follow a
    /// `Sent` belong to it — that grouping is what
    /// [`ReplayScript`](crate::fault::ReplayScript) reconstructs.
    Sent {
        /// Simulated time of the send.
        at: SimTime,
        /// The sending node.
        from: NodeId,
        /// The addressed recipient.
        to: NodeId,
        /// How many deliveries were scheduled for this send.
        deliveries: u32,
    },
    /// An event entered the queue.
    Schedule {
        /// Simulated time the event will fire at.
        at: SimTime,
        /// The event's tie-breaking sequence number.
        seq: u64,
        /// What was scheduled.
        kind: EventKind,
    },
    /// An event was popped and handed to a node.
    Dispatch {
        /// Simulated time the event fired at.
        at: SimTime,
        /// The event's tie-breaking sequence number.
        seq: u64,
        /// What was dispatched.
        kind: EventKind,
    },
    /// The network dropped a send (lossy link or partition).
    Dropped {
        /// Simulated time of the attempted send.
        at: SimTime,
        /// The sending node.
        from: NodeId,
        /// The unreachable recipient.
        to: NodeId,
    },
    /// A protocol-level observation (e.g. "block mined at height h").
    Mark {
        /// Simulated time of the observation.
        at: SimTime,
        /// A static label naming the observation.
        label: &'static str,
        /// An observation-specific value.
        value: u64,
    },
}

/// Receives engine trace events. Implementations must be cheap: an
/// installed tracer sees every event on the hot path.
pub trait Tracer {
    /// Consumes one event.
    fn trace(&mut self, event: TraceEvent);
}

/// A shared handle onto a [`RecordingTracer`]'s event buffer. Clones
/// share the same buffer, so callers can keep a handle while the
/// tracer itself is moved into the engine.
#[derive(Debug, Clone, Default)]
pub struct TraceLog(Rc<RefCell<Vec<TraceEvent>>>);

impl TraceLog {
    /// Creates an empty, unshared log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Number of events captured so far.
    pub fn len(&self) -> usize {
        self.0.borrow().len()
    }

    /// Whether no events were captured.
    pub fn is_empty(&self) -> bool {
        self.0.borrow().is_empty()
    }

    /// A copy of the captured events, in capture order.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.0.borrow().clone()
    }

    /// Appends one event directly (used by experiment harnesses to
    /// add marks outside any engine).
    pub fn push(&self, event: TraceEvent) {
        self.0.borrow_mut().push(event);
    }

    /// Discards all captured events.
    pub fn clear(&self) {
        self.0.borrow_mut().clear();
    }

    /// Renders the captured events as a deterministic JSON document:
    /// `{"events": [...], "n": count}`.
    pub fn to_json(&self) -> Json {
        let events: Vec<Json> = self.0.borrow().iter().map(event_to_json).collect();
        let mut doc = std::collections::BTreeMap::new();
        doc.insert("n".to_string(), Json::Number(events.len() as f64));
        doc.insert("events".to_string(), Json::Array(events));
        Json::Object(doc)
    }
}

fn kind_to_json(obj: &mut std::collections::BTreeMap<String, Json>, kind: &EventKind) {
    match kind {
        EventKind::Deliver { from, to } => {
            obj.insert("kind".to_string(), Json::String("deliver".to_string()));
            obj.insert("from".to_string(), Json::Number(from.0 as f64));
            obj.insert("to".to_string(), Json::Number(to.0 as f64));
        }
        EventKind::Timer { node, id } => {
            obj.insert("kind".to_string(), Json::String("timer".to_string()));
            obj.insert("node".to_string(), Json::Number(node.0 as f64));
            obj.insert("timer_id".to_string(), Json::Number(*id as f64));
        }
    }
}

fn event_to_json(event: &TraceEvent) -> Json {
    let mut obj = std::collections::BTreeMap::new();
    match event {
        TraceEvent::Sent {
            at,
            from,
            to,
            deliveries,
        } => {
            obj.insert("type".to_string(), Json::String("send".to_string()));
            obj.insert("at_us".to_string(), Json::Number(at.as_micros() as f64));
            obj.insert("from".to_string(), Json::Number(from.0 as f64));
            obj.insert("to".to_string(), Json::Number(to.0 as f64));
            obj.insert("n".to_string(), Json::Number(*deliveries as f64));
        }
        TraceEvent::Schedule { at, seq, kind } => {
            obj.insert("type".to_string(), Json::String("schedule".to_string()));
            obj.insert("at_us".to_string(), Json::Number(at.as_micros() as f64));
            obj.insert("seq".to_string(), Json::Number(*seq as f64));
            kind_to_json(&mut obj, kind);
        }
        TraceEvent::Dispatch { at, seq, kind } => {
            obj.insert("type".to_string(), Json::String("dispatch".to_string()));
            obj.insert("at_us".to_string(), Json::Number(at.as_micros() as f64));
            obj.insert("seq".to_string(), Json::Number(*seq as f64));
            kind_to_json(&mut obj, kind);
        }
        TraceEvent::Dropped { at, from, to } => {
            obj.insert("type".to_string(), Json::String("dropped".to_string()));
            obj.insert("at_us".to_string(), Json::Number(at.as_micros() as f64));
            obj.insert("from".to_string(), Json::Number(from.0 as f64));
            obj.insert("to".to_string(), Json::Number(to.0 as f64));
        }
        TraceEvent::Mark { at, label, value } => {
            obj.insert("type".to_string(), Json::String("mark".to_string()));
            obj.insert("at_us".to_string(), Json::Number(at.as_micros() as f64));
            obj.insert("label".to_string(), Json::String((*label).to_string()));
            obj.insert("value".to_string(), Json::Number(*value as f64));
        }
    }
    Json::Object(obj)
}

/// A tracer that appends every event to a shared [`TraceLog`].
#[derive(Debug, Clone, Default)]
pub struct RecordingTracer {
    log: TraceLog,
}

impl RecordingTracer {
    /// Creates a tracer with a fresh buffer.
    pub fn new() -> Self {
        RecordingTracer::default()
    }

    /// Creates a tracer that appends into an existing shared log.
    pub fn sharing(log: TraceLog) -> Self {
        RecordingTracer { log }
    }

    /// A shared handle onto this tracer's buffer.
    pub fn log(&self) -> TraceLog {
        self.log.clone()
    }
}

impl Tracer for RecordingTracer {
    fn trace(&mut self, event: TraceEvent) {
        self.log.push(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_tracer_shares_its_buffer() {
        let mut tracer = RecordingTracer::new();
        let log = tracer.log();
        assert!(log.is_empty());
        tracer.trace(TraceEvent::Mark {
            at: SimTime::ZERO,
            label: "x",
            value: 7,
        });
        assert_eq!(log.len(), 1);
        assert_eq!(
            log.snapshot(),
            vec![TraceEvent::Mark {
                at: SimTime::ZERO,
                label: "x",
                value: 7,
            }]
        );
        log.clear();
        assert!(log.is_empty());
    }

    #[test]
    fn trace_log_renders_parseable_json() {
        let log = TraceLog::new();
        log.push(TraceEvent::Schedule {
            at: SimTime::from_millis(5),
            seq: 0,
            kind: EventKind::Deliver {
                from: NodeId(0),
                to: NodeId(1),
            },
        });
        log.push(TraceEvent::Dispatch {
            at: SimTime::from_millis(5),
            seq: 0,
            kind: EventKind::Timer {
                node: NodeId(2),
                id: 9,
            },
        });
        log.push(TraceEvent::Dropped {
            at: SimTime::from_millis(6),
            from: NodeId(0),
            to: NodeId(3),
        });
        let text = log.to_json().to_string();
        let parsed = dlt_testkit::json::parse(&text).expect("trace JSON parses");
        let events = parsed
            .get("events")
            .and_then(|v| v.as_array())
            .expect("events array");
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("type").and_then(|v| v.as_str()),
            Some("schedule")
        );
        assert_eq!(
            events[2].get("type").and_then(|v| v.as_str()),
            Some("dropped")
        );
    }
}

//! Benchmark-side timers around the program's public layer traits.
//!
//! Nothing here changes program code: [`Timed`] wraps any
//! [`SimNode`], [`TimedInterceptor`] wraps any fault [`Interceptor`],
//! and the shard workload wraps [`dlt_sim::shard::ShardWorker`] the same
//! way. With tracing off the wrappers hold `None` and forward directly,
//! so the untraced run pays one branch per event.
//!
//! Fine-grained calls (one per event) are aggregated into counters and
//! nanosecond totals where they happen; coarse phases (set-up steps,
//! run slices, shard epochs) are kept as spans in memory and written out
//! when the run ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use dlt_sim::engine::{Context, Payload, SimNode};
use dlt_sim::fault::Interceptor;
use dlt_sim::metrics::CounterId;
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;
use dlt_testkit::json::Json;

/// Nanoseconds elapsed since `since`.
pub fn ns_since(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// One coarse span: a named interval with an optional parent.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer/phase` name.
    pub name: String,
    /// Start, in ns since the trace origin.
    pub start_ns: u64,
    /// End, in ns since the trace origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Per-layer counters plus the coarse span log of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    values: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose span clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            values: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    /// Sets the named layer metric.
    pub fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    /// Records a finished span; returns its index so later spans can
    /// name it as their parent.
    pub fn record(
        &mut self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let since_origin = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: since_origin(start),
            end_ns: since_origin(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Records a span from `start` until now.
    pub fn record_since(&mut self, name: &str, start: Instant, parent: Option<usize>) -> usize {
        self.record(name, start, Instant::now(), parent)
    }

    /// All layer metrics.
    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    /// The span log as JSON.
    pub fn spans_json(&self) -> Json {
        Json::Array(
            self.spans
                .iter()
                .map(|s| {
                    Json::object([
                        ("name", Json::string(s.name.clone())),
                        ("start_ns", Json::number(s.start_ns as f64)),
                        ("end_ns", Json::number(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::number(p as f64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Counters of one wrapped node population, split by message class.
#[derive(Debug, Default, Clone)]
pub struct NodeStats {
    /// Deliveries per message class.
    pub msgs: [u64; 2],
    /// Handler nanoseconds per message class.
    pub ns: [u64; 2],
    /// Deliveries per class that caused at least one send (a relay).
    pub useful: [u64; 2],
    /// Timer firings.
    pub timers: u64,
    /// Handler nanoseconds of timer firings.
    pub timer_ns: u64,
    /// Timer firings that produced something (a mined block).
    pub produced: u64,
    /// Handler nanoseconds of the producing timer firings.
    pub produce_ns: u64,
}

impl NodeStats {
    /// Dispatched events (every event runs exactly one handler).
    pub fn events(&self) -> u64 {
        self.msgs[0] + self.msgs[1] + self.timers
    }

    /// Handler nanoseconds over all events.
    pub fn handler_ns(&self) -> u64 {
        self.ns[0] + self.ns[1] + self.timer_ns
    }
}

/// Shared probe state of a node population.
pub struct NodeProbe<M> {
    classify: fn(&M) -> usize,
    produced_counter: &'static str,
    ids: RefCell<Option<(CounterId, CounterId)>>,
    /// The aggregated counters.
    pub stats: RefCell<NodeStats>,
}

impl<M> NodeProbe<M> {
    /// A probe that splits deliveries with `classify` (returns 0 or 1)
    /// and counts a timer firing as productive when it raises the
    /// program's `produced_counter` metric.
    pub fn new(classify: fn(&M) -> usize, produced_counter: &'static str) -> Rc<Self> {
        Rc::new(NodeProbe {
            classify,
            produced_counter,
            ids: RefCell::new(None),
            stats: RefCell::new(NodeStats::default()),
        })
    }

    fn ids(&self, ctx: &mut Context<'_, M>) -> (CounterId, CounterId) {
        if let Some(ids) = *self.ids.borrow() {
            return ids;
        }
        let metrics = ctx.metrics();
        let ids = (
            metrics.counter("net.messages"),
            metrics.counter(self.produced_counter),
        );
        *self.ids.borrow_mut() = Some(ids);
        ids
    }
}

/// A node with an optional timer around each handler call.
pub struct Timed<N, M> {
    /// The program's node.
    pub node: N,
    probe: Option<Rc<NodeProbe<M>>>,
}

impl<N, M> Timed<N, M> {
    /// Wraps `node`; `probe = None` forwards without timing.
    pub fn new(node: N, probe: Option<Rc<NodeProbe<M>>>) -> Self {
        Timed { node, probe }
    }
}

impl<M, N: SimNode<M>> SimNode<M> for Timed<N, M> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        self.node.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: Payload<M>) {
        let Some(probe) = &self.probe else {
            self.node.on_message(ctx, from, msg);
            return;
        };
        let (sent_id, _) = probe.ids(ctx);
        let class = (probe.classify)(&msg);
        let sent_before = ctx.metrics().counter_value(sent_id);
        let start = Instant::now();
        self.node.on_message(ctx, from, msg);
        let dt = ns_since(start);
        let relayed = ctx.metrics().counter_value(sent_id) > sent_before;
        let mut stats = probe.stats.borrow_mut();
        stats.msgs[class] += 1;
        stats.ns[class] += dt;
        stats.useful[class] += u64::from(relayed);
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: u64) {
        let Some(probe) = &self.probe else {
            self.node.on_timer(ctx, timer);
            return;
        };
        let (_, produced_id) = probe.ids(ctx);
        let produced_before = ctx.metrics().counter_value(produced_id);
        let start = Instant::now();
        self.node.on_timer(ctx, timer);
        let dt = ns_since(start);
        let produced = ctx.metrics().counter_value(produced_id) > produced_before;
        let mut stats = probe.stats.borrow_mut();
        stats.timers += 1;
        stats.timer_ns += dt;
        if produced {
            stats.produced += 1;
            stats.produce_ns += dt;
        }
    }
}

/// Counters of the fault layer.
#[derive(Debug, Default, Clone)]
pub struct FaultStats {
    /// Sends inspected.
    pub intercepts: u64,
    /// Nanoseconds inside the interceptor.
    pub ns: u64,
    /// Sends the interceptor emptied (the network had not dropped them).
    pub dropped: u64,
}

/// An interceptor with a timer around each call.
pub struct TimedInterceptor<I> {
    inner: I,
    stats: Rc<RefCell<FaultStats>>,
}

impl<I> TimedInterceptor<I> {
    /// Wraps `inner`, accumulating into `stats`.
    pub fn new(inner: I, stats: Rc<RefCell<FaultStats>>) -> Self {
        TimedInterceptor { inner, stats }
    }
}

impl<I: Interceptor> Interceptor for TimedInterceptor<I> {
    fn intercept(&mut self, now: SimTime, from: NodeId, to: NodeId, deliveries: &mut Vec<SimTime>) {
        let had = !deliveries.is_empty();
        let start = Instant::now();
        self.inner.intercept(now, from, to, deliveries);
        let dt = ns_since(start);
        let mut stats = self.stats.borrow_mut();
        stats.intercepts += 1;
        stats.ns += dt;
        stats.dropped += u64::from(had && deliveries.is_empty());
    }
}

/// Writes the engine, fault and node-population metrics shared by the
/// two network workloads. `run_ns` is the time spent inside
/// `run_until`; the engine's self time is what the handlers did not use.
pub fn engine_metrics(trace: &mut Trace, run_ns: u64, msgs_scheduled: u64, nodes: &NodeStats) {
    let events = nodes.events();
    trace.set("engine.events", events as f64);
    trace.set("engine.msgs_scheduled", msgs_scheduled as f64);
    let self_ns = run_ns.saturating_sub(nodes.handler_ns());
    trace.set(
        "engine.self_ns_per_event",
        ratio(self_ns as f64, events as f64),
    );
}

/// Writes the fault-layer metrics.
pub fn fault_metrics(trace: &mut Trace, fault: &FaultStats) {
    trace.set("fault.intercepts", fault.intercepts as f64);
    trace.set(
        "fault.ns_per_intercept",
        ratio(fault.ns as f64, fault.intercepts as f64),
    );
    trace.set("fault.dropped", fault.dropped as f64);
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

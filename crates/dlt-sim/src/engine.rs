//! The discrete-event loop.
//!
//! A [`Simulation`] owns a set of nodes implementing [`SimNode`] and a
//! time-ordered event queue. Nodes react to message deliveries and
//! timers through a [`Context`], which lets them send messages (subject
//! to the [`Network`] topology and latency, and to any installed fault
//! [`Interceptor`]), broadcast to their peers, set timers, and record
//! metrics.
//!
//! Execution is deterministic: events are ordered by `(time, sequence
//! number)`, and all randomness comes from the simulation's seeded RNG.
//!
//! The send path allocates nothing beyond the queue itself: scheduled
//! message payloads are shared behind [`Payload`] (an `Rc`), so an
//! N-peer broadcast allocates the message once and every relay
//! re-shares the same allocation; each send's delivery delays go into
//! one buffer the engine reuses, and a broadcast walks the peer list
//! in place; the engine's own counters go through pre-interned
//! [`crate::metrics::CounterId`] handles. Every send, schedule,
//! dispatch, and network-drop point also pushes into the installed
//! [`TraceLog`] (none by default — see [`Simulation::set_tracer`]), and
//! every send consults the installed fault [`Interceptor`] (none by
//! default — see [`Simulation::set_interceptor`]).
//!
//! Each gossiped object is hashed once per simulation: a node asks
//! [`Context::object_id`] for the id of the block or transfer a
//! delivered payload carries, and the engine computes it on the first
//! request for that allocation and answers every later delivery of the
//! same flood from a table ([`ObjectId`]). The table is only looked
//! up, never iterated into output, so it changes no event, RNG draw or
//! dispatch hash.
//!
//! Every dispatched event is folded into a running fingerprint,
//! [`Simulation::dispatch_hash`]: two runs of the same seeded workload
//! must end with the same value, so every run carries a behaviour
//! check without recording a trace.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap};
use std::rc::{Rc, Weak};

use dlt_crypto::Digest;

use crate::fault::Interceptor;
use crate::latency::LatencyModel;
use crate::metrics::{CounterId, Metrics};
use crate::network::{Network, NodeId};
use crate::rng::SimRng;
use crate::shard::mix;
use crate::time::SimTime;
use crate::trace::{EventKind, TraceEvent, TraceLog};

/// A shared, immutable message payload. One broadcast allocates the
/// message once; every scheduled delivery and every relay hop shares
/// that allocation.
pub type Payload<M> = Rc<M>;

/// The identity of the object a message carries, for deduplication.
///
/// Implemented once per message type. The id must be a pure function
/// of the message's content, and the content must not change while it
/// is shared as a [`Payload`]: [`Context::object_id`] computes it once
/// per allocation and answers every later request from its table.
pub trait ObjectId {
    /// The id of the block or transfer this message carries, or `None`
    /// when it carries no object (a vote, say).
    fn object_id(&self) -> Option<Digest>;
}

/// Table size below which [`Context::object_id`] never sweeps.
const ID_SWEEP_FLOOR: usize = 64;

/// Behaviour of one simulated node.
///
/// `M` is the message type of the whole simulation (typically an enum
/// of the protocol's message kinds).
pub trait SimNode<M> {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message from `from` is delivered to this node.
    /// The payload is shared: clone the `Payload` (cheap) to relay it,
    /// clone the inner `M` only when ownership is really needed.
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: Payload<M>);

    /// Called when a timer set via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_, M>, _timer: u64) {}
}

impl<M, T: SimNode<M> + ?Sized> SimNode<M> for Box<T> {
    fn on_start(&mut self, ctx: &mut Context<'_, M>) {
        (**self).on_start(ctx)
    }
    fn on_message(&mut self, ctx: &mut Context<'_, M>, from: NodeId, msg: Payload<M>) {
        (**self).on_message(ctx, from, msg)
    }
    fn on_timer(&mut self, ctx: &mut Context<'_, M>, timer: u64) {
        (**self).on_timer(ctx, timer)
    }
}

/// What the engine schedules.
#[derive(Debug)]
enum Event<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        msg: Payload<M>,
    },
    Timer {
        node: NodeId,
        id: u64,
    },
}

impl<M> Event<M> {
    fn kind(&self) -> EventKind {
        match self {
            Event::Deliver { from, to, .. } => EventKind::Deliver {
                from: *from,
                to: *to,
            },
            Event::Timer { node, id } => EventKind::Timer {
                node: *node,
                id: *id,
            },
        }
    }
}

struct Scheduled<M> {
    at: SimTime,
    seq: u64,
    event: Event<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Engine state shared between the simulation and node contexts.
struct Core<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Scheduled<M>>,
    network: Network,
    rng: SimRng,
    metrics: Metrics,
    node_count: usize,
    net_messages: CounterId,
    // Observation and fault-injection / replay hooks; `None` keeps
    // the emit points and the send path on their plain branches.
    tracer: Option<TraceLog>,
    interceptor: Option<Box<dyn Interceptor>>,
    // Every dispatched event is folded into this hash, so two runs of
    // the same seeded workload can be compared event-for-event without
    // recording a full trace.
    dispatch_hash: u64,
    // Optional message fingerprint, folded per delivery when set.
    msg_digester: Option<fn(&M) -> u64>,
    // Delivery delays of the send in progress, reused by every send so
    // the send path allocates nothing.
    deliveries: Vec<SimTime>,
    // Object ids of payloads, keyed by the payload's address. The
    // `Weak` keeps that allocation reserved while the entry exists, so
    // no other payload can take its address; entries whose payload has
    // no strong holder left are swept once the table reaches
    // `ids_sweep_at`.
    ids: BTreeMap<usize, (Weak<M>, Option<Digest>)>,
    ids_sweep_at: usize,
}

impl<M> Core<M> {
    fn schedule(&mut self, at: SimTime, event: Event<M>) {
        let seq = self.seq;
        self.seq += 1;
        if let Some(log) = &self.tracer {
            log.push(TraceEvent::Schedule {
                at,
                seq,
                kind: event.kind(),
            });
        }
        self.queue.push(Scheduled { at, seq, event });
    }

    fn send_from(&mut self, from: NodeId, to: NodeId, msg: Payload<M>) {
        let mut deliveries = std::mem::take(&mut self.deliveries);
        self.network
            .deliveries(from, to, &mut self.rng, &mut deliveries);
        if let Some(interceptor) = self.interceptor.as_deref_mut() {
            interceptor.intercept(self.now, from, to, &mut deliveries);
        }
        if let Some(log) = &self.tracer {
            log.push(TraceEvent::Sent {
                at: self.now,
                from,
                to,
                deliveries: deliveries.len() as u32,
            });
        }
        if deliveries.is_empty() {
            if let Some(log) = &self.tracer {
                log.push(TraceEvent::Dropped {
                    at: self.now,
                    from,
                    to,
                });
            }
        }
        for &delay in &deliveries {
            self.metrics.inc(self.net_messages);
            self.schedule(
                self.now.saturating_add(delay),
                Event::Deliver {
                    from,
                    to,
                    msg: Rc::clone(&msg),
                },
            );
        }
        self.deliveries = deliveries;
    }

    fn mark(&mut self, label: &'static str, value: u64) {
        if let Some(log) = &self.tracer {
            log.push(TraceEvent::Mark {
                at: self.now,
                label,
                value,
            });
        }
    }
}

/// The API a node sees while handling an event.
pub struct Context<'a, M> {
    core: &'a mut Core<M>,
    node: NodeId,
}

impl<'a, M> Context<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The handled node's own id.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Number of nodes in the simulation.
    pub fn node_count(&self) -> usize {
        self.core.node_count
    }

    /// The simulation's deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.core.rng
    }

    /// The shared metrics sink. Register handles in
    /// [`SimNode::on_start`] and update through them afterwards.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Emits a protocol-level [`TraceEvent::Mark`] into the installed
    /// trace log (free when tracing is off).
    pub fn trace_mark(&mut self, label: &'static str, value: u64) {
        self.core.mark(label, value);
    }

    /// Sends `msg` to `to`, subject to the network's latency and the
    /// installed fault interceptor. Messages to unreachable nodes (not
    /// a peer, self, across a partition) are silently dropped, as on a
    /// real network. Accepts either an owned `M` or an already-shared
    /// [`Payload<M>`].
    pub fn send(&mut self, to: NodeId, msg: impl Into<Payload<M>>) {
        let from = self.node;
        self.core.send_from(from, to, msg.into());
    }

    /// Sends `msg` to every current peer (full mesh unless an explicit
    /// topology was installed). Each copy samples its own latency, so
    /// different peers hear about it at different times — the root cause
    /// of the soft forks in paper §IV-A. The payload is allocated (at
    /// most) once and shared across all scheduled deliveries; relaying
    /// a received [`Payload<M>`] re-shares the original allocation.
    pub fn broadcast(&mut self, msg: impl Into<Payload<M>>) {
        let msg = msg.into();
        let from = self.node;
        let mut k = 0;
        while let Some(to) = self.core.network.peer(from, k, self.core.node_count) {
            self.core.send_from(from, to, Rc::clone(&msg));
            k += 1;
        }
    }

    /// Schedules this node's [`SimNode::on_timer`] to fire after
    /// `delay` with the given id.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) {
        let node = self.node;
        let at = self.core.now.saturating_add(delay);
        self.core.schedule(at, Event::Timer { node, id });
    }
}

impl<M: ObjectId> Context<'_, M> {
    /// The [`ObjectId`] of the message `msg` carries, computed once per
    /// payload allocation in this simulation: every delivery of one
    /// flood shares the allocation, so a duplicate delivery costs a
    /// table lookup instead of a re-hash. An equal message in another
    /// allocation is hashed again, and gets the same id.
    ///
    /// Entries of dead payloads are swept whenever the table has
    /// doubled since the last sweep (and holds at least 64 entries), so
    /// it stays within about twice the number of live payloads.
    pub fn object_id(&mut self, msg: &Payload<M>) -> Option<Digest> {
        let core = &mut *self.core;
        let addr = Rc::as_ptr(msg).addr();
        if let Some(&(_, id)) = core.ids.get(&addr) {
            return id;
        }
        if core.ids.len() >= core.ids_sweep_at {
            core.ids
                .retain(|_, (payload, _)| payload.strong_count() > 0);
            core.ids_sweep_at = (2 * core.ids.len()).max(ID_SWEEP_FLOOR);
        }
        let id = msg.object_id();
        core.ids.insert(addr, (Rc::downgrade(msg), id));
        id
    }
}

/// A deterministic discrete-event simulation over nodes of type `N`.
///
/// For heterogeneous node sets use `N = Box<dyn SimNode<M>>`.
pub struct Simulation<M, N> {
    nodes: Vec<N>,
    core: Core<M>,
}

impl<M, N: SimNode<M>> Simulation<M, N> {
    /// Creates a simulation with a fault-free full-mesh network using
    /// the given latency model.
    pub fn new(seed: u64, latency: LatencyModel) -> Self {
        let mut metrics = Metrics::new();
        let net_messages = metrics.counter("net.messages");
        Simulation {
            nodes: Vec::new(),
            core: Core {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                network: Network::new(latency),
                rng: SimRng::new(seed),
                metrics,
                node_count: 0,
                net_messages,
                tracer: None,
                interceptor: None,
                dispatch_hash: 0,
                msg_digester: None,
                deliveries: Vec::new(),
                ids: BTreeMap::new(),
                ids_sweep_at: ID_SWEEP_FLOOR,
            },
        }
    }

    /// Records every send, schedule, dispatch, drop and mark into
    /// `log` from now on. Install before adding nodes to capture
    /// `on_start` activity too. Clones of a [`TraceLog`] share one
    /// buffer, so the caller keeps a clone to read the events.
    pub fn set_tracer(&mut self, log: TraceLog) {
        self.core.tracer = Some(log);
    }

    /// Installs a fault-injection (or replay) interceptor that will
    /// see every send from now on, after the network model samples the
    /// baseline deliveries. Sends issued before installation — e.g.
    /// `on_start` bootstrap traffic — are not intercepted.
    pub fn set_interceptor(&mut self, interceptor: impl Interceptor + 'static) {
        self.core.interceptor = Some(Box::new(interceptor));
    }

    /// Adds a node and invokes its [`SimNode::on_start`]. Returns the
    /// node's id.
    pub fn add_node(&mut self, node: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(node);
        self.core.node_count = self.nodes.len();
        let mut ctx = Context {
            core: &mut self.core,
            node: id,
        };
        self.nodes[id.0].on_start(&mut ctx);
        id
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Immutable access to a node (e.g. to inspect final state).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Mutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node_mut(&mut self, id: NodeId) -> &mut N {
        &mut self.nodes[id.0]
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// The network, to install an explicit topology. Faults (loss,
    /// duplication, partitions) go through [`Simulation::set_interceptor`].
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.core.network
    }

    /// The shared metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Consumes the simulation and returns its metrics — the shard
    /// executor's hand-off path ([`crate::shard::ShardWorker::finish`]).
    /// Consuming (rather than `mem::take`-style borrowing) keeps the
    /// engine's pre-interned counter handles from ever pointing into an
    /// emptied table.
    pub fn into_metrics(self) -> Metrics {
        self.core.metrics
    }

    /// Injects a message from `from` to `to` as if `from` had sent it
    /// now (samples network latency and faults).
    ///
    /// # Panics
    ///
    /// Panics if either node id is out of range.
    pub fn send_external(&mut self, from: NodeId, to: NodeId, msg: impl Into<Payload<M>>) {
        assert!(from.0 < self.nodes.len() && to.0 < self.nodes.len());
        self.core.send_from(from, to, msg.into());
    }

    /// Delivers a message directly at an absolute time, bypassing the
    /// network model — used by workload generators that model clients
    /// outside the peer-to-peer fabric.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range or `at` is in the past.
    pub fn deliver_at(
        &mut self,
        at: SimTime,
        from: NodeId,
        to: NodeId,
        msg: impl Into<Payload<M>>,
    ) {
        assert!(to.0 < self.nodes.len(), "unknown destination node");
        assert!(at >= self.core.now, "cannot schedule in the past");
        self.core.schedule(
            at,
            Event::Deliver {
                from,
                to,
                msg: msg.into(),
            },
        );
    }

    /// Schedules a timer on a node from outside the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn set_timer_for(&mut self, node: NodeId, delay: SimTime, id: u64) {
        assert!(node.0 < self.nodes.len(), "unknown node");
        let at = self.core.now.saturating_add(delay);
        self.core.schedule(at, Event::Timer { node, id });
    }

    /// Processes the next event, if any. Returns `false` when the queue
    /// is empty.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.core.queue.pop() else {
            return false;
        };
        debug_assert!(scheduled.at >= self.core.now, "time went backwards");
        self.core.now = scheduled.at;
        if let Some(log) = &self.core.tracer {
            log.push(TraceEvent::Dispatch {
                at: scheduled.at,
                seq: scheduled.seq,
                kind: scheduled.event.kind(),
            });
        }
        // The event's own word (kind, endpoints or timer id, message
        // digest) does not depend on the running hash, so only the last
        // `mix` sits on the chain from one dispatch to the next. Node
        // ids sit far below 2^31, so bit 63 tells a timer's node from a
        // delivery's packed endpoints.
        let word = match &scheduled.event {
            Event::Deliver { from, to, msg } => {
                let digest = self.core.msg_digester.map_or(0, |f| f(msg));
                mix(mix(0, from.0 as u64 | (to.0 as u64) << 32), digest)
            }
            Event::Timer { node, id } => mix(mix(1 << 63, node.0 as u64), *id),
        };
        self.core.dispatch_hash = mix(
            self.core.dispatch_hash ^ word,
            scheduled.at.as_micros() ^ scheduled.seq.rotate_left(32),
        );
        match scheduled.event {
            Event::Deliver { from, to, msg } => {
                let mut ctx = Context {
                    core: &mut self.core,
                    node: to,
                };
                // dlt-lint: allow(D5, reason = "NodeId is bounds-checked at schedule time (deliver_at/send asserts); indexing cannot fail here")
                self.nodes[to.0].on_message(&mut ctx, from, msg);
            }
            Event::Timer { node, id } => {
                let mut ctx = Context {
                    core: &mut self.core,
                    node,
                };
                // dlt-lint: allow(D5, reason = "NodeId is bounds-checked at schedule time (set_timer_for/set_timer asserts); indexing cannot fail here")
                self.nodes[node.0].on_timer(&mut ctx, id);
            }
        }
        true
    }

    /// Runs all events scheduled at or before `deadline`, then advances
    /// the clock to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        while let Some(next) = self.core.queue.peek() {
            if next.at > deadline {
                break;
            }
            self.step();
        }
        self.core.now = deadline;
    }

    /// Runs until the event queue drains or the next event would exceed
    /// `limit`. The clock stays at the last processed event (it does
    /// not jump to `limit`).
    pub fn run_until_idle(&mut self, limit: SimTime) {
        while let Some(next) = self.core.queue.peek() {
            if next.at > limit {
                break;
            }
            self.step();
        }
    }

    /// Number of events waiting in the queue.
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// The running dispatch hash: every dispatched event's `(time,
    /// seq, kind, node ids, msg digest)` folded in dispatch order. Two
    /// runs of the same seeded workload must produce the same value; a
    /// mismatch means nondeterminism slipped past the static lint
    /// (`dlt-lint`). Use `trace_diff` on two recorded traces to
    /// localize the first diverging event.
    pub fn dispatch_hash(&self) -> u64 {
        self.core.dispatch_hash
    }

    /// Installs a per-message fingerprint function folded into the
    /// dispatch hash on every delivery (none by default: the hash then
    /// covers timing, ordering, and routing but not payload bytes).
    pub fn set_msg_digester(&mut self, digester: fn(&M) -> u64) {
        self.core.msg_digester = Some(digester);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::collections::BTreeSet;

    use crate::fault::FaultInterceptor;

    #[derive(Debug, Clone, PartialEq)]
    enum Msg {
        Ping(u32),
        Pong(u32),
    }

    #[derive(Default)]
    struct Recorder {
        received: Vec<(NodeId, Msg, SimTime)>,
        timers: Vec<(u64, SimTime)>,
        reply: bool,
    }

    impl SimNode<Msg> for Recorder {
        fn on_message(&mut self, ctx: &mut Context<'_, Msg>, from: NodeId, msg: Payload<Msg>) {
            self.received.push((from, (*msg).clone(), ctx.now()));
            if self.reply {
                if let Msg::Ping(n) = *msg {
                    ctx.send(from, Msg::Pong(n));
                }
            }
        }
        fn on_timer(&mut self, ctx: &mut Context<'_, Msg>, timer: u64) {
            self.timers.push((timer, ctx.now()));
        }
    }

    fn fixed(ms: u64) -> LatencyModel {
        LatencyModel::Fixed(SimTime::from_millis(ms))
    }

    #[test]
    fn message_arrives_after_latency() {
        let mut sim = Simulation::new(1, fixed(10));
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        sim.send_external(a, b, Msg::Ping(1));
        sim.run_until_idle(SimTime::from_secs(1));
        let received = &sim.node(b).received;
        assert_eq!(received.len(), 1);
        assert_eq!(received[0].0, a);
        assert_eq!(received[0].1, Msg::Ping(1));
        assert_eq!(received[0].2, SimTime::from_millis(10));
    }

    #[test]
    fn reply_round_trip() {
        let mut sim = Simulation::new(2, fixed(10));
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder {
            reply: true,
            ..Default::default()
        });
        sim.send_external(a, b, Msg::Ping(7));
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(sim.node(a).received.len(), 1);
        assert_eq!(sim.node(a).received[0].1, Msg::Pong(7));
        assert_eq!(sim.node(a).received[0].2, SimTime::from_millis(20));
        assert_eq!(sim.now(), SimTime::from_millis(20));
    }

    #[test]
    fn broadcast_reaches_all_peers() {
        struct Broadcaster;
        impl SimNode<Msg> for Broadcaster {
            fn on_start(&mut self, ctx: &mut Context<'_, Msg>) {
                ctx.broadcast(Msg::Ping(0));
            }
            fn on_message(&mut self, _: &mut Context<'_, Msg>, _: NodeId, _: Payload<Msg>) {}
        }
        let mut sim: Simulation<Msg, Box<dyn SimNode<Msg>>> = Simulation::new(3, fixed(5));
        let r1 = sim.add_node(Box::new(Recorder::default()) as Box<dyn SimNode<Msg>>);
        let r2 = sim.add_node(Box::new(Recorder::default()));
        let _b = sim.add_node(Box::new(Broadcaster));
        sim.run_until_idle(SimTime::from_secs(1));
        // Downcast-free check via metrics instead: 2 messages sent.
        assert_eq!(sim.metrics().count("net.messages"), 2);
        let _ = (r1, r2);
    }

    #[test]
    fn broadcast_shares_one_payload_allocation() {
        struct Relay {
            seen: bool,
        }
        impl SimNode<Msg> for Relay {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, msg: Payload<Msg>) {
                if !self.seen {
                    self.seen = true;
                    // Relaying the received payload re-shares the
                    // original allocation instead of deep-cloning.
                    ctx.broadcast(msg);
                }
            }
        }
        let mut sim: Simulation<Msg, Relay> = Simulation::new(12, fixed(5));
        for _ in 0..4 {
            sim.add_node(Relay { seen: false });
        }
        let payload = Payload::new(Msg::Ping(1));
        sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(1),
            Rc::clone(&payload),
        );
        sim.run_until_idle(SimTime::from_secs(1));
        // Every node relayed once (3 peers each); all deliveries shared
        // the single original allocation.
        assert_eq!(sim.metrics().count("net.messages"), 12);
        assert!(sim.nodes().iter().all(|n| n.seen));
        // Only our local handle remains once the queue drains.
        assert_eq!(Rc::strong_count(&payload), 1);
    }

    /// A message whose [`ObjectId`] counts how often it is computed.
    struct Counted {
        tag: u32,
        calls: Rc<Cell<u32>>,
    }

    fn content_id(tag: u32) -> Digest {
        dlt_crypto::sha256::sha256(&tag.to_be_bytes())
    }

    impl ObjectId for Counted {
        fn object_id(&self) -> Option<Digest> {
            self.calls.set(self.calls.get() + 1);
            Some(content_id(self.tag))
        }
    }

    /// Relays each object id once and checks every id it is given
    /// against the message's content.
    #[derive(Default)]
    struct IdRelay {
        seen: BTreeSet<Digest>,
        deliveries: u32,
    }

    impl SimNode<Counted> for IdRelay {
        fn on_message(&mut self, ctx: &mut Context<'_, Counted>, _: NodeId, msg: Payload<Counted>) {
            self.deliveries += 1;
            let id = ctx.object_id(&msg);
            assert_eq!(id, Some(content_id(msg.tag)), "the id of this content");
            if id.is_some_and(|id| self.seen.insert(id)) {
                ctx.broadcast(msg);
            }
        }
    }

    fn id_net(seed: u64, nodes: usize) -> Simulation<Counted, IdRelay> {
        let mut sim = Simulation::new(seed, fixed(5));
        for _ in 0..nodes {
            sim.add_node(IdRelay::default());
        }
        sim
    }

    #[test]
    fn a_flood_computes_its_object_id_once() {
        let mut sim = id_net(31, 4);
        let calls = Rc::new(Cell::new(0));
        let payload = Payload::new(Counted {
            tag: 7,
            calls: Rc::clone(&calls),
        });
        sim.deliver_at(
            SimTime::from_millis(1),
            NodeId(0),
            NodeId(1),
            Rc::clone(&payload),
        );
        sim.run_until_idle(SimTime::from_secs(1));
        // One injection and three relays by each of the four nodes.
        let deliveries: u32 = sim.nodes().iter().map(|n| n.deliveries).sum();
        assert_eq!(deliveries, 13);
        assert_eq!(calls.get(), 1, "one id computation for the whole flood");
        // The table holds no strong reference.
        assert_eq!(Rc::strong_count(&payload), 1);
        assert_eq!(sim.core.ids.len(), 1);
    }

    #[test]
    fn an_equal_message_in_another_allocation_is_hashed_again() {
        let mut sim = id_net(32, 4);
        let calls = Rc::new(Cell::new(0));
        for at in [1, 100] {
            let msg = Counted {
                tag: 7,
                calls: Rc::clone(&calls),
            };
            sim.deliver_at(SimTime::from_millis(at), NodeId(0), NodeId(1), msg);
            sim.run_until_idle(SimTime::from_secs(1));
        }
        assert_eq!(calls.get(), 2, "one computation per allocation");
        // The second copy has the first one's id, so node 1 drops it.
        let deliveries: u32 = sim.nodes().iter().map(|n| n.deliveries).sum();
        assert_eq!(deliveries, 14);
    }

    #[test]
    fn the_id_table_forgets_dead_payloads_and_never_answers_for_a_new_one() {
        let mut sim = id_net(33, 2);
        let calls = Rc::new(Cell::new(0));
        let mut live = Vec::new();
        for tag in 0..1_000 {
            let payload = Payload::new(Counted {
                tag,
                calls: Rc::clone(&calls),
            });
            sim.deliver_at(sim.now(), NodeId(0), NodeId(0), Rc::clone(&payload));
            sim.run_until_idle(SimTime::from_secs(3_600));
            // Keep every hundredth payload alive; the rest die here,
            // and later payloads may take their addresses.
            if tag % 100 == 0 {
                live.push(payload);
            }
            assert!(
                sim.core.ids.len() <= ID_SWEEP_FLOOR,
                "{} entries with at most {} live payloads",
                sim.core.ids.len(),
                live.len() + 1
            );
        }
        assert_eq!(calls.get(), 1_000);
        // Each live payload still gets its own content's id (IdRelay
        // asserts it), from the table: no computation.
        for payload in &live {
            sim.deliver_at(sim.now(), NodeId(1), NodeId(1), Rc::clone(payload));
        }
        sim.run_until_idle(SimTime::from_secs(3_600));
        assert_eq!(calls.get(), 1_000);
        assert!(live.iter().all(|p| Rc::strong_count(p) == 1));
    }

    #[test]
    fn timers_fire_in_order() {
        let mut sim = Simulation::new(4, fixed(1));
        let a = sim.add_node(Recorder::default());
        sim.set_timer_for(a, SimTime::from_millis(30), 3);
        sim.set_timer_for(a, SimTime::from_millis(10), 1);
        sim.set_timer_for(a, SimTime::from_millis(20), 2);
        sim.run_until_idle(SimTime::from_secs(1));
        let ids: Vec<u64> = sim.node(a).timers.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, vec![1, 2, 3]);
    }

    #[test]
    fn same_time_events_fire_in_schedule_order() {
        let mut sim = Simulation::new(5, fixed(1));
        let a = sim.add_node(Recorder::default());
        for id in 0..10 {
            sim.set_timer_for(a, SimTime::from_millis(5), id);
        }
        sim.run_until_idle(SimTime::from_secs(1));
        let ids: Vec<u64> = sim.node(a).timers.iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new(6, fixed(1));
        let a = sim.add_node(Recorder::default());
        sim.set_timer_for(a, SimTime::from_millis(10), 1);
        sim.set_timer_for(a, SimTime::from_millis(100), 2);
        sim.run_until(SimTime::from_millis(50));
        assert_eq!(sim.node(a).timers.len(), 1);
        assert_eq!(sim.now(), SimTime::from_millis(50));
        assert_eq!(sim.pending_events(), 1);
        sim.run_until(SimTime::from_millis(200));
        assert_eq!(sim.node(a).timers.len(), 2);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<(u64, SimTime)> {
            let mut sim = Simulation::new(
                seed,
                LatencyModel::Uniform {
                    min: SimTime::from_millis(1),
                    max: SimTime::from_millis(50),
                },
            );
            let a = sim.add_node(Recorder::default());
            let b = sim.add_node(Recorder {
                reply: true,
                ..Default::default()
            });
            for i in 0..20 {
                sim.send_external(a, b, Msg::Ping(i));
            }
            sim.run_until_idle(SimTime::from_secs(10));
            sim.node(b)
                .received
                .iter()
                .map(|(_, m, t)| {
                    let Msg::Ping(n) = m else { panic!() };
                    (u64::from(*n), *t)
                })
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn deliver_at_bypasses_network_faults() {
        let mut sim = Simulation::new(8, fixed(10));
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        sim.set_interceptor(FaultInterceptor::new(8).drop_messages(1.0));
        sim.deliver_at(SimTime::from_millis(5), a, b, Msg::Ping(1));
        sim.run_until_idle(SimTime::from_secs(1));
        assert_eq!(sim.node(b).received.len(), 1);
    }

    #[test]
    fn step_returns_false_on_empty_queue() {
        let mut sim: Simulation<Msg, Recorder> = Simulation::new(10, fixed(1));
        assert!(!sim.step());
    }

    #[test]
    #[should_panic(expected = "cannot schedule in the past")]
    fn deliver_at_rejects_past() {
        let mut sim = Simulation::new(11, fixed(1));
        let a = sim.add_node(Recorder::default());
        sim.set_timer_for(a, SimTime::from_millis(100), 1);
        sim.run_until(SimTime::from_millis(200));
        sim.deliver_at(SimTime::from_millis(50), a, a, Msg::Ping(0));
    }

    #[test]
    fn tracer_is_none_until_installed() {
        let mut sim: Simulation<Msg, Recorder> = Simulation::new(14, fixed(1));
        assert!(sim.core.tracer.is_none());
        sim.set_tracer(TraceLog::new());
        assert!(sim.core.tracer.is_some());
    }

    #[test]
    fn dispatch_hash_fingerprints_the_run() {
        fn run(seed: u64, pings: u32) -> u64 {
            let mut sim = Simulation::new(
                seed,
                LatencyModel::Uniform {
                    min: SimTime::from_millis(1),
                    max: SimTime::from_millis(50),
                },
            );
            let a = sim.add_node(Recorder::default());
            let b = sim.add_node(Recorder {
                reply: true,
                ..Default::default()
            });
            for i in 0..pings {
                sim.send_external(a, b, Msg::Ping(i));
            }
            sim.set_timer_for(a, SimTime::from_millis(25), 9);
            sim.run_until_idle(SimTime::from_secs(10));
            sim.dispatch_hash()
        }
        let base = run(42, 20);
        assert_ne!(base, 0, "every run carries a live fingerprint");
        assert_eq!(base, run(42, 20), "same seed, same schedule");
        assert_ne!(base, run(43, 20), "another seed samples other latencies");
        assert_ne!(
            base,
            run(42, 19),
            "another schedule dispatches other events"
        );
    }

    #[test]
    fn recording_tracer_observes_schedule_dispatch_and_drop() {
        let log = TraceLog::new();
        let mut sim = Simulation::new(13, fixed(10));
        sim.set_tracer(log.clone());
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        sim.send_external(a, b, Msg::Ping(1));
        sim.set_timer_for(b, SimTime::from_millis(3), 77);
        sim.set_interceptor(FaultInterceptor::new(13).drop_messages(1.0));
        sim.send_external(a, b, Msg::Ping(2));
        sim.run_until_idle(SimTime::from_secs(1));

        let events = log.snapshot();
        let schedules = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Schedule { .. }))
            .count();
        let dispatches: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Dispatch { at, seq, kind } => Some((*at, *seq, *kind)),
                _ => None,
            })
            .collect();
        let drops = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Dropped { .. }))
            .count();
        // One delivery and one timer were scheduled and dispatched;
        // the second send was dropped by the fault interceptor. Each of
        // the two send attempts also emitted a Sent event.
        let sent: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Sent { deliveries, .. } => Some(*deliveries),
                _ => None,
            })
            .collect();
        assert_eq!(sent, vec![1, 0]);
        assert_eq!(schedules, 2);
        assert_eq!(drops, 1);
        assert_eq!(
            dispatches,
            vec![
                (
                    SimTime::from_millis(3),
                    1,
                    EventKind::Timer { node: b, id: 77 }
                ),
                (
                    SimTime::from_millis(10),
                    0,
                    EventKind::Deliver { from: a, to: b }
                ),
            ]
        );
        // The captured log renders to parseable JSON.
        let text = log.to_json().to_string();
        let parsed = dlt_testkit::json::parse(&text).expect("trace log parses");
        assert_eq!(parsed.get("n").and_then(|v| v.as_f64()), Some(7.0));
    }

    #[test]
    fn interceptor_partition_heals_after_window() {
        let mut sim = Simulation::new(21, fixed(10));
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        sim.set_interceptor(
            FaultInterceptor::new(1)
                .partition(2, &[&[a], &[b]])
                .during(SimTime::ZERO, SimTime::from_secs(1)),
        );
        sim.send_external(a, b, Msg::Ping(1));
        sim.run_until(SimTime::from_secs(1));
        assert!(sim.node(b).received.is_empty());
        sim.send_external(a, b, Msg::Ping(2));
        sim.run_until_idle(SimTime::from_secs(2));
        assert_eq!(sim.node(b).received.len(), 1);
        assert_eq!(sim.node(b).received[0].1, Msg::Ping(2));
    }

    #[test]
    fn interceptor_drop_still_counts_as_dropped() {
        let log = TraceLog::new();
        let mut sim = Simulation::new(22, fixed(10));
        sim.set_tracer(log.clone());
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        sim.set_interceptor(FaultInterceptor::new(2).drop_messages(1.0));
        sim.send_external(a, b, Msg::Ping(1));
        sim.run_until_idle(SimTime::from_secs(1));
        assert!(sim.node(b).received.is_empty());
        let events = log.snapshot();
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Dropped { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TraceEvent::Sent { deliveries: 0, .. })));
    }

    #[test]
    fn reused_delivery_buffer_carries_nothing_between_sends() {
        // Empties the first send, adds two delays to the second and
        // leaves every later send alone.
        struct Script {
            sends: u32,
        }
        impl Interceptor for Script {
            fn intercept(&mut self, _: SimTime, _: NodeId, _: NodeId, d: &mut Vec<SimTime>) {
                self.sends += 1;
                match self.sends {
                    1 => d.clear(),
                    2 => d.extend([SimTime::from_millis(20), SimTime::from_millis(30)]),
                    _ => {}
                }
            }
        }
        let mut sim = Simulation::new(23, fixed(10));
        let a = sim.add_node(Recorder::default());
        let b = sim.add_node(Recorder::default());
        sim.set_interceptor(Script { sends: 0 });
        let mut scheduled = Vec::new();
        for i in 0..3 {
            sim.send_external(a, b, Msg::Ping(i));
            scheduled.push(sim.pending_events());
            sim.run_until_idle(SimTime::from_secs(1));
        }
        assert_eq!(scheduled, vec![0, 3, 1]);
        let received: Vec<Msg> = sim.node(b).received.iter().map(|r| r.1.clone()).collect();
        assert_eq!(
            received,
            vec![Msg::Ping(1), Msg::Ping(1), Msg::Ping(1), Msg::Ping(2)]
        );
        assert_eq!(sim.metrics().count("net.messages"), 4);
    }

    #[test]
    fn broadcast_addresses_peers_in_topology_order_across_partitions() {
        struct Broadcaster;
        impl SimNode<Msg> for Broadcaster {
            fn on_message(&mut self, ctx: &mut Context<'_, Msg>, _: NodeId, _: Payload<Msg>) {
                ctx.broadcast(Msg::Ping(0));
            }
        }
        // Every send `broadcaster` makes, as (to, deliveries).
        fn sends(
            configure: impl FnOnce(&mut Simulation<Msg, Broadcaster>),
            broadcaster: NodeId,
        ) -> Vec<(usize, u32)> {
            let log = TraceLog::new();
            let mut sim = Simulation::new(24, fixed(10));
            for _ in 0..4 {
                sim.add_node(Broadcaster);
            }
            configure(&mut sim);
            sim.set_tracer(log.clone());
            sim.deliver_at(SimTime::ZERO, broadcaster, broadcaster, Msg::Ping(0));
            sim.step();
            log.snapshot()
                .iter()
                .filter_map(|e| match e {
                    TraceEvent::Sent {
                        from,
                        to,
                        deliveries,
                        ..
                    } if *from == broadcaster => Some((to.0, *deliveries)),
                    _ => None,
                })
                .collect()
        }
        let split = |sim: &mut Simulation<Msg, Broadcaster>| {
            sim.set_interceptor(
                FaultInterceptor::new(24)
                    .partition(4, &[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]]),
            );
        };
        // Full mesh: every other node in id order.
        assert_eq!(sends(|_| {}, NodeId(2)), vec![(0, 1), (1, 1), (3, 1)]);
        // A partition still addresses every peer; cross-group sends drop.
        assert_eq!(sends(split, NodeId(2)), vec![(0, 0), (1, 0), (3, 1)]);
        // An explicit topology: adjacency-list order, not id order.
        let star = |sim: &mut Simulation<Msg, Broadcaster>| {
            sim.network_mut().set_topology(vec![
                vec![NodeId(3), NodeId(1), NodeId(2)],
                vec![],
                vec![],
                vec![],
            ]);
        };
        assert_eq!(sends(star, NodeId(0)), vec![(3, 1), (1, 1), (2, 1)]);
        assert_eq!(sends(star, NodeId(1)), vec![]);
        assert_eq!(
            sends(
                |sim| {
                    star(sim);
                    split(sim);
                },
                NodeId(0)
            ),
            vec![(3, 0), (1, 1), (2, 0)]
        );
    }

    #[test]
    fn recorded_run_replays_identically() {
        use crate::fault::{FaultInterceptor, ReplayInterceptor, ReplayScript};

        fn build(seed: u64) -> Simulation<Msg, Recorder> {
            let mut sim = Simulation::new(
                seed,
                LatencyModel::Uniform {
                    min: SimTime::from_millis(1),
                    max: SimTime::from_millis(40),
                },
            );
            sim.add_node(Recorder::default());
            sim.add_node(Recorder {
                reply: true,
                ..Default::default()
            });
            sim
        }
        fn drive(sim: &mut Simulation<Msg, Recorder>) {
            let (a, b) = (NodeId(0), NodeId(1));
            for i in 0..20 {
                sim.send_external(a, b, Msg::Ping(i));
            }
            sim.run_until_idle(SimTime::from_secs(10));
        }
        fn outcome(sim: &Simulation<Msg, Recorder>) -> Vec<(NodeId, Msg, SimTime)> {
            let mut all = sim.node(NodeId(0)).received.clone();
            all.extend(sim.node(NodeId(1)).received.iter().cloned());
            all
        }

        // Record a faulty run.
        let log = TraceLog::new();
        let mut recording = build(77);
        recording.set_tracer(log.clone());
        recording.set_interceptor(
            FaultInterceptor::new(5)
                .drop_messages(0.2)
                .reorder(0.5, SimTime::from_millis(30)),
        );
        drive(&mut recording);

        // Replay it twice from the captured script: same seed, same
        // workload, ReplayInterceptor instead of the fault stack.
        let script = ReplayScript::from_log(&log);
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            let replay = ReplayInterceptor::new(script.clone());
            let cursor = replay.cursor();
            let mut sim = build(77);
            sim.set_interceptor(replay);
            drive(&mut sim);
            assert_eq!(cursor.consumed(), script.len(), "script fully consumed");
            outcomes.push(outcome(&sim));
        }
        assert_eq!(outcomes[0], outcomes[1]);
        assert_eq!(outcomes[0], outcome(&recording));
    }

    dlt_testkit::prop! {
        fn dispatch_order_matches_sorted_reference(g, cases = 64) {
            // A unified log node: every dispatched event lands in one
            // list, in dispatch order.
            #[derive(Default)]
            struct OrderLog {
                fired: Vec<(u64, SimTime)>,
            }
            impl SimNode<u64> for OrderLog {
                fn on_message(
                    &mut self,
                    ctx: &mut Context<'_, u64>,
                    _from: NodeId,
                    msg: Payload<u64>,
                ) {
                    self.fired.push((*msg, ctx.now()));
                }
                fn on_timer(&mut self, ctx: &mut Context<'_, u64>, timer: u64) {
                    self.fired.push((timer, ctx.now()));
                }
            }

            // Random schedule with heavy same-tick ties, mixing
            // deliveries and timers. Event i carries id i.
            let n = g.usize_in(1, 40);
            let mut sim: Simulation<u64, OrderLog> =
                Simulation::new(1, LatencyModel::Fixed(SimTime::ZERO));
            let a = sim.add_node(OrderLog::default());
            let mut schedule: Vec<(u64, u64)> = Vec::new();
            for i in 0..n as u64 {
                let at_ms = g.u64_below(8);
                if g.any_bool() {
                    sim.deliver_at(SimTime::from_millis(at_ms), a, a, i);
                } else {
                    sim.set_timer_for(a, SimTime::from_millis(at_ms), i);
                }
                schedule.push((at_ms, i));
            }
            sim.run_until_idle(SimTime::from_secs(1));

            // Naive reference model: stable sort by (time, seq), where
            // seq is the order the events were scheduled in.
            let mut reference = schedule.clone();
            reference.sort_by_key(|&(at_ms, seq)| (at_ms, seq));
            let fired: Vec<(u64, u64)> = sim
                .node(a)
                .fired
                .iter()
                .map(|&(id, at)| (at.as_millis(), id))
                .collect();
            assert_eq!(fired, reference, "dispatch order diverged from (time, seq)");
        }
    }
}

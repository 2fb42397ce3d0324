//! Fault injection and deterministic trace replay.
//!
//! This module is the one place faults enter a run. The engine consults
//! an installed [`Interceptor`] on every send, *after* the
//! [`Network`](crate::network::Network) has sampled the latency of the
//! message's one delivery (none when the recipient is not a peer). The
//! interceptor sees that list of delivery delays and may rewrite it:
//! clear it (drop, partition), stretch it (delay, Byzantine lag),
//! extend it (duplicate) or scramble it (reorder). Two implementations
//! ship here:
//!
//! * [`FaultInterceptor`] — a composable, seed-driven policy stack.
//!   Every probabilistic decision draws from its own
//!   [`SimRng`] stream, separate from the simulation RNG, so adding or
//!   removing fault rules never perturbs the baseline network
//!   sampling, and every fault schedule is reproducible from its seed.
//! * [`ReplayInterceptor`] — re-imposes the delivery schedule captured
//!   in a previous run's [`TraceLog`], turning any interesting run
//!   into a regression fixture (see [`ReplayScript`]).
//!
//! Determinism contract: with the same seed and the same sequence of
//! `intercept` calls, a `FaultInterceptor` makes identical decisions;
//! a `ReplayInterceptor` is deterministic by construction.

use std::cell::Cell;
use std::rc::Rc;

use crate::network::NodeId;
use crate::rng::SimRng;
use crate::time::SimTime;
use crate::trace::{EventKind, TraceEvent, TraceLog};

/// Rewrites the delivery schedule of one send.
///
/// Called by the engine once per send attempt, after the network
/// sampled the baseline `deliveries` (relative delays; empty when the
/// recipient is not a peer). Implementations mutate the list in
/// place; whatever remains is scheduled.
pub trait Interceptor {
    /// Inspects and possibly rewrites one send's delivery delays.
    fn intercept(&mut self, now: SimTime, from: NodeId, to: NodeId, deliveries: &mut Vec<SimTime>);
}

/// One fault policy inside a [`FaultInterceptor`].
#[derive(Debug, Clone)]
enum FaultAction {
    /// Drop the whole send with probability `p`.
    Drop { p: f64 },
    /// Push every delivery of the send `by` later, with probability `p`.
    Delay { p: f64, by: SimTime },
    /// With probability `p`, add one extra delivery `lag` after the
    /// first one.
    Duplicate { p: f64, lag: SimTime },
    /// With probability `p`, forget the sampled latencies and re-draw
    /// each delivery uniformly in `[0, window)` — adjacent sends on the
    /// same link then overtake each other.
    Reorder { p: f64, window: SimTime },
    /// Partition group per node, built by
    /// [`FaultInterceptor::partition`]; cross-group sends are dropped.
    Partition { groups: Vec<usize> },
    /// Byzantine scheduling: sends *to* any victim arrive `by` later.
    /// `victims` is sorted for binary search.
    Lag { victims: Vec<NodeId>, by: SimTime },
}

#[derive(Debug, Clone)]
struct FaultRule {
    /// Half-open active window `[start, end)`; `None` = always active.
    window: Option<(SimTime, SimTime)>,
    action: FaultAction,
}

/// A composable, seed-driven stack of fault policies.
///
/// Rules apply in the order they were added; each probabilistic rule
/// draws from the interceptor's own RNG stream exactly once per send
/// it is active for, so the decision sequence is a pure function of
/// the seed and the send sequence.
///
/// ```
/// use dlt_sim::fault::FaultInterceptor;
/// use dlt_sim::network::NodeId;
/// use dlt_sim::time::SimTime;
///
/// let faults = FaultInterceptor::new(7)
///     .drop_messages(0.3)
///     .partition(4, &[&[NodeId(0), NodeId(1)], &[NodeId(2), NodeId(3)]])
///     .during(SimTime::ZERO, SimTime::from_secs(60));
/// # let _ = faults;
/// ```
#[derive(Debug, Clone)]
pub struct FaultInterceptor {
    rng: SimRng,
    rules: Vec<FaultRule>,
}

fn assert_probability(p: f64) {
    assert!((0.0..=1.0).contains(&p), "probability out of range");
}

impl FaultInterceptor {
    /// Creates an empty policy stack drawing from its own seeded RNG
    /// stream (independent of the simulation RNG).
    pub fn new(seed: u64) -> Self {
        FaultInterceptor {
            rng: SimRng::new(seed),
            rules: Vec::new(),
        }
    }

    fn push(mut self, action: FaultAction) -> Self {
        self.rules.push(FaultRule {
            window: None,
            action,
        });
        self
    }

    /// Drops each send entirely with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn drop_messages(self, p: f64) -> Self {
        assert_probability(p);
        self.push(FaultAction::Drop { p })
    }

    /// With probability `p`, delays every delivery of a send by `by`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn delay(self, p: f64, by: SimTime) -> Self {
        assert_probability(p);
        self.push(FaultAction::Delay { p, by })
    }

    /// With probability `p`, duplicates a send: one extra delivery is
    /// scheduled `lag` after the first.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn duplicate(self, p: f64, lag: SimTime) -> Self {
        assert_probability(p);
        self.push(FaultAction::Duplicate { p, lag })
    }

    /// With probability `p`, discards a send's sampled latencies and
    /// re-draws each uniformly in `[0, window)`, so sends on the same
    /// link can overtake each other (message reordering).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]` or `window` is zero.
    pub fn reorder(self, p: f64, window: SimTime) -> Self {
        assert_probability(p);
        assert!(window > SimTime::ZERO, "reorder window must be positive");
        self.push(FaultAction::Reorder { p, window })
    }

    /// Splits the first `node_count` nodes into disjoint partitions:
    /// cross-group sends are dropped. Nodes absent from every listed
    /// part share an implicit spare group, and nodes at or beyond
    /// `node_count` are isolated. Combine with
    /// [`FaultInterceptor::during`] for a partition that heals at a
    /// chosen time.
    pub fn partition(self, node_count: usize, parts: &[&[NodeId]]) -> Self {
        let mut groups = vec![usize::MAX; node_count];
        for (g, part) in parts.iter().enumerate() {
            for node in *part {
                if let Some(slot) = groups.get_mut(node.0) {
                    *slot = g;
                }
            }
        }
        let spare = parts.len();
        for g in groups.iter_mut() {
            if *g == usize::MAX {
                *g = spare;
            }
        }
        self.push(FaultAction::Partition { groups })
    }

    /// Byzantine scheduling: every send addressed to one of `victims`
    /// arrives `by` later than the network decided — the rest of the
    /// network hears everything first.
    pub fn lag_nodes(self, victims: &[NodeId], by: SimTime) -> Self {
        let mut victims = victims.to_vec();
        victims.sort_unstable();
        victims.dedup();
        self.push(FaultAction::Lag { victims, by })
    }

    /// Restricts the most recently added rule to the half-open window
    /// `[start, end)` of simulated time.
    ///
    /// # Panics
    ///
    /// Panics if no rule was added yet or `start >= end`.
    pub fn during(mut self, start: SimTime, end: SimTime) -> Self {
        assert!(start < end, "empty fault window");
        let rule = self
            .rules
            .last_mut()
            .expect("during() must follow a fault rule");
        rule.window = Some((start, end));
        self
    }
}

impl Interceptor for FaultInterceptor {
    fn intercept(
        &mut self,
        now: SimTime,
        _from: NodeId,
        to: NodeId,
        deliveries: &mut Vec<SimTime>,
    ) {
        // Destructure instead of indexing `self.rules[i]`: the rule
        // walk is on the per-send hot path and must stay panic-free
        // (dlt-lint D5).
        let FaultInterceptor { rng, rules } = self;
        for rule in rules.iter() {
            if let Some((start, end)) = rule.window {
                if now < start || now >= end {
                    continue;
                }
            }
            // Probabilistic rules draw exactly once per active send —
            // even when the list is already empty — so the fault RNG
            // stream depends only on the send sequence, not on what
            // earlier rules (or the network) decided.
            match &rule.action {
                FaultAction::Drop { p } => {
                    if rng.chance(*p) {
                        deliveries.clear();
                    }
                }
                FaultAction::Delay { p, by } => {
                    let by = *by;
                    if rng.chance(*p) {
                        for d in deliveries.iter_mut() {
                            *d = d.saturating_add(by);
                        }
                    }
                }
                FaultAction::Duplicate { p, lag } => {
                    let lag = *lag;
                    if rng.chance(*p) {
                        if let Some(&first) = deliveries.first() {
                            deliveries.push(first.saturating_add(lag));
                        }
                    }
                }
                FaultAction::Reorder { p, window } => {
                    let window = window.as_micros();
                    if rng.chance(*p) {
                        for d in deliveries.iter_mut() {
                            *d = SimTime::from_micros(rng.below(window));
                        }
                    }
                }
                FaultAction::Partition { groups } => {
                    let cross = match (groups.get(_from.0), groups.get(to.0)) {
                        (Some(a), Some(b)) => a != b,
                        // Nodes beyond the declared count are isolated.
                        _ => true,
                    };
                    if cross {
                        deliveries.clear();
                    }
                }
                FaultAction::Lag { victims, by } => {
                    if victims.binary_search(&to).is_ok() {
                        let by = *by;
                        for d in deliveries.iter_mut() {
                            *d = d.saturating_add(by);
                        }
                    }
                }
            }
        }
    }
}

/// One recorded send: who addressed whom, and the absolute times the
/// deliveries were scheduled for (empty = the send was dropped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendRecord {
    /// The sending node.
    pub from: NodeId,
    /// The addressed recipient.
    pub to: NodeId,
    /// Absolute delivery times, in schedule order.
    pub deliveries: Vec<SimTime>,
}

/// The delivery schedule extracted from a recorded [`TraceLog`]: one
/// [`SendRecord`] per [`TraceEvent::Sent`], in send order.
///
/// Feed it to a [`ReplayInterceptor`] to re-impose the recorded
/// schedule on a fresh run with the same seed and workload — the run
/// then reproduces the original event order exactly, so its metrics
/// and trace are byte-identical to the recording.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplayScript {
    sends: Vec<SendRecord>,
}

impl ReplayScript {
    /// Extracts the send schedule from a recorded log.
    pub fn from_log(log: &TraceLog) -> Self {
        Self::from_events(&log.snapshot())
    }

    /// Extracts the send schedule from raw trace events.
    ///
    /// Each [`TraceEvent::Sent`] opens a record; the `deliveries`
    /// Schedule events that immediately follow it (the engine emits
    /// them back-to-back) supply the absolute times. Schedule events
    /// with no open send — direct `deliver_at` injections and timers —
    /// are skipped: a replay run re-issues those itself.
    pub fn from_events(events: &[TraceEvent]) -> Self {
        let mut sends: Vec<SendRecord> = Vec::new();
        let mut open: Option<(usize, u32)> = None;
        for event in events {
            match event {
                TraceEvent::Sent {
                    from,
                    to,
                    deliveries,
                    ..
                } => {
                    sends.push(SendRecord {
                        from: *from,
                        to: *to,
                        deliveries: Vec::new(),
                    });
                    open = (*deliveries > 0).then_some((sends.len() - 1, *deliveries));
                }
                TraceEvent::Schedule {
                    at,
                    kind: EventKind::Deliver { from, to },
                    ..
                } => {
                    if let Some((idx, remaining)) = open {
                        let record = &mut sends[idx];
                        if record.from == *from && record.to == *to {
                            record.deliveries.push(*at);
                            open = (remaining > 1).then_some((idx, remaining - 1));
                        }
                    }
                }
                _ => {}
            }
        }
        ReplayScript { sends }
    }

    /// Parses a script from the JSON rendering of a [`TraceLog`]
    /// (`TraceLog::to_json().to_string()`) — the format committed
    /// fixtures use. The send and deliver-schedule events are decoded
    /// back into [`TraceEvent`]s and grouped by
    /// [`ReplayScript::from_events`].
    pub fn parse(text: &str) -> Result<ReplayScript, String> {
        let doc = dlt_testkit::json::parse(text).map_err(|e| e.to_string())?;
        let events = doc
            .get("events")
            .and_then(|v| v.as_array())
            .ok_or("trace document has no \"events\" array")?;
        let mut trace = Vec::new();
        for (i, event) in events.iter().enumerate() {
            let num = |key: &str| {
                event
                    .get(key)
                    .and_then(|v| v.as_f64())
                    .map(|v| v as u64)
                    .ok_or_else(|| format!("trace event #{i}: missing numeric \"{key}\""))
            };
            let node = |key: &str| num(key).map(|v| NodeId(v as usize));
            let ty = event
                .get("type")
                .and_then(|v| v.as_str())
                .ok_or_else(|| format!("trace event #{i}: missing \"type\""))?;
            match ty {
                "send" => trace.push(TraceEvent::Sent {
                    at: SimTime::from_micros(num("at_us")?),
                    from: node("from")?,
                    to: node("to")?,
                    deliveries: num("n")? as u32,
                }),
                "schedule" if event.get("kind").and_then(|v| v.as_str()) == Some("deliver") => {
                    trace.push(TraceEvent::Schedule {
                        at: SimTime::from_micros(num("at_us")?),
                        seq: num("seq")?,
                        kind: EventKind::Deliver {
                            from: node("from")?,
                            to: node("to")?,
                        },
                    });
                }
                _ => {}
            }
        }
        Ok(Self::from_events(&trace))
    }

    /// The recorded sends, in order.
    pub fn sends(&self) -> &[SendRecord] {
        &self.sends
    }

    /// Number of recorded sends.
    pub fn len(&self) -> usize {
        self.sends.len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
    }
}

/// A shared read-out of how many recorded sends a
/// [`ReplayInterceptor`] has consumed — keep a handle to assert a
/// replay ran the script to completion.
#[derive(Debug, Clone, Default)]
pub struct ReplayCursor(Rc<Cell<usize>>);

impl ReplayCursor {
    /// Number of recorded sends consumed so far.
    pub fn consumed(&self) -> usize {
        self.0.get()
    }
}

/// Re-imposes a recorded delivery schedule on a fresh run.
///
/// Every send's delays are replaced by the recorded absolute times
/// (converted back to offsets from the current instant), so the replay
/// schedules exactly the events the recording did.
///
/// # Panics
///
/// `intercept` panics if the run diverges from the script — more sends
/// than recorded, or a send addressed differently than the recording.
/// That means the replay was driven with a different seed or workload.
#[derive(Debug, Clone)]
pub struct ReplayInterceptor {
    script: ReplayScript,
    cursor: ReplayCursor,
}

impl ReplayInterceptor {
    /// Wraps a script for installation via
    /// [`Simulation::set_interceptor`](crate::engine::Simulation::set_interceptor).
    pub fn new(script: ReplayScript) -> Self {
        ReplayInterceptor {
            script,
            cursor: ReplayCursor::default(),
        }
    }

    /// A shared handle counting consumed sends (usable after the
    /// interceptor moved into the engine).
    pub fn cursor(&self) -> ReplayCursor {
        self.cursor.clone()
    }
}

impl Interceptor for ReplayInterceptor {
    fn intercept(&mut self, now: SimTime, from: NodeId, to: NodeId, deliveries: &mut Vec<SimTime>) {
        let i = self.cursor.0.get();
        let record = self.script.sends.get(i).unwrap_or_else(|| {
            // dlt-lint: allow(D5, reason = "replay divergence must abort loudly; a silent fallback would corrupt the replayed schedule")
            panic!("replay diverged: send #{i} ({from}->{to}) beyond the recorded script")
        });
        assert!(
            record.from == from && record.to == to,
            "replay diverged at send #{i}: recorded {}->{}, run attempted {}->{}",
            record.from,
            record.to,
            from,
            to,
        );
        self.cursor.0.set(i + 1);
        deliveries.clear();
        deliveries.extend(record.deliveries.iter().map(|&at| at.saturating_sub(now)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_delivery() -> Vec<SimTime> {
        vec![SimTime::from_millis(10)]
    }

    #[test]
    fn drop_rule_clears_deliveries() {
        for (p, dropped) in [(1.0, 10_000..10_001), (0.3, 2_500..3_500)] {
            let mut f = FaultInterceptor::new(1).drop_messages(p);
            let n = (0..10_000)
                .filter(|_| {
                    let mut d = one_delivery();
                    f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut d);
                    d.is_empty()
                })
                .count();
            assert!(dropped.contains(&n), "p = {p}: dropped {n}");
        }
    }

    #[test]
    fn delay_rule_shifts_every_delivery() {
        let mut f = FaultInterceptor::new(2).delay(1.0, SimTime::from_millis(500));
        let mut d = vec![SimTime::from_millis(10), SimTime::from_millis(20)];
        f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut d);
        assert_eq!(
            d,
            vec![SimTime::from_millis(510), SimTime::from_millis(520)]
        );
    }

    #[test]
    fn duplicate_rule_adds_a_lagged_copy() {
        let mut f = FaultInterceptor::new(3).duplicate(1.0, SimTime::from_millis(5));
        let mut d = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut d);
        assert_eq!(d, vec![SimTime::from_millis(10), SimTime::from_millis(15)]);
        // An already-dropped send stays dropped.
        let mut empty = Vec::new();
        f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn reorder_rule_redraws_within_window() {
        let window = SimTime::from_millis(100);
        let mut f = FaultInterceptor::new(4).reorder(1.0, window);
        for _ in 0..50 {
            let mut d = vec![SimTime::from_secs(5)];
            f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut d);
            assert_eq!(d.len(), 1);
            assert!(d[0] < window, "redrawn delay {} escapes window", d[0]);
        }
    }

    #[test]
    fn partition_drops_cross_group_only() {
        let mut f = FaultInterceptor::new(5).partition(4, &[&[NodeId(0), NodeId(1)], &[NodeId(2)]]);
        let mut same = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut same);
        assert_eq!(same, one_delivery());
        let mut cross = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(1), NodeId(2), &mut cross);
        assert!(cross.is_empty());
        // Node 3 is unlisted: spare group, isolated from both parts.
        let mut spare = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(3), NodeId(0), &mut spare);
        assert!(spare.is_empty());
        // A node beyond the declared count is isolated.
        let mut beyond = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(9), NodeId(0), &mut beyond);
        assert!(beyond.is_empty());
    }

    #[test]
    fn lag_rule_targets_victims_only() {
        let mut f =
            FaultInterceptor::new(6).lag_nodes(&[NodeId(2), NodeId(1)], SimTime::from_secs(1));
        let mut victim = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(0), NodeId(2), &mut victim);
        assert_eq!(victim, vec![SimTime::from_millis(1010)]);
        let mut honest = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(2), NodeId(0), &mut honest);
        assert_eq!(honest, one_delivery());
    }

    #[test]
    fn during_gates_the_preceding_rule() {
        let mut f = FaultInterceptor::new(7)
            .drop_messages(1.0)
            .during(SimTime::from_secs(1), SimTime::from_secs(2));
        let mut before = one_delivery();
        f.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut before);
        assert_eq!(before, one_delivery());
        let mut inside = one_delivery();
        f.intercept(SimTime::from_secs(1), NodeId(0), NodeId(1), &mut inside);
        assert!(inside.is_empty());
        // The window is half-open: the end instant is healed.
        let mut at_end = one_delivery();
        f.intercept(SimTime::from_secs(2), NodeId(0), NodeId(1), &mut at_end);
        assert_eq!(at_end, one_delivery());
    }

    #[test]
    #[should_panic(expected = "must follow a fault rule")]
    fn during_requires_a_rule() {
        let _ = FaultInterceptor::new(8).during(SimTime::ZERO, SimTime::from_secs(1));
    }

    #[test]
    fn same_seed_same_decisions() {
        fn run(seed: u64) -> Vec<Vec<SimTime>> {
            let mut f = FaultInterceptor::new(seed)
                .drop_messages(0.3)
                .reorder(0.5, SimTime::from_millis(50));
            (0..200)
                .map(|i| {
                    let mut d = one_delivery();
                    f.intercept(SimTime::from_millis(i), NodeId(0), NodeId(1), &mut d);
                    d
                })
                .collect()
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    fn sample_log() -> TraceLog {
        let log = TraceLog::new();
        // A duplicated send: two deliveries.
        log.push(TraceEvent::Sent {
            at: SimTime::ZERO,
            from: NodeId(0),
            to: NodeId(1),
            deliveries: 2,
        });
        log.push(TraceEvent::Schedule {
            at: SimTime::from_millis(10),
            seq: 0,
            kind: EventKind::Deliver {
                from: NodeId(0),
                to: NodeId(1),
            },
        });
        log.push(TraceEvent::Schedule {
            at: SimTime::from_millis(14),
            seq: 1,
            kind: EventKind::Deliver {
                from: NodeId(0),
                to: NodeId(1),
            },
        });
        // A deliver_at injection with no Sent: must be skipped.
        log.push(TraceEvent::Schedule {
            at: SimTime::from_millis(20),
            seq: 2,
            kind: EventKind::Deliver {
                from: NodeId(0),
                to: NodeId(1),
            },
        });
        // A dropped send.
        log.push(TraceEvent::Sent {
            at: SimTime::from_millis(5),
            from: NodeId(1),
            to: NodeId(0),
            deliveries: 0,
        });
        // A timer schedule: ignored.
        log.push(TraceEvent::Schedule {
            at: SimTime::from_millis(30),
            seq: 3,
            kind: EventKind::Timer {
                node: NodeId(0),
                id: 9,
            },
        });
        log
    }

    fn expected_script() -> ReplayScript {
        ReplayScript {
            sends: vec![
                SendRecord {
                    from: NodeId(0),
                    to: NodeId(1),
                    deliveries: vec![SimTime::from_millis(10), SimTime::from_millis(14)],
                },
                SendRecord {
                    from: NodeId(1),
                    to: NodeId(0),
                    deliveries: Vec::new(),
                },
            ],
        }
    }

    #[test]
    fn script_groups_schedules_under_their_send() {
        let script = ReplayScript::from_log(&sample_log());
        assert_eq!(script, expected_script());
    }

    #[test]
    fn script_parses_from_trace_json() {
        let text = sample_log().to_json().to_string();
        let script = ReplayScript::parse(&text).expect("fixture parses");
        assert_eq!(script, expected_script());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(ReplayScript::parse("not json").is_err());
        assert!(ReplayScript::parse("{\"n\": 0}").is_err());
    }

    #[test]
    fn replay_restores_recorded_absolute_times() {
        let mut replay = ReplayInterceptor::new(expected_script());
        let cursor = replay.cursor();
        // The run's own network sampled some other delay; the replay
        // overwrites it with the recorded schedule, relative to now.
        let mut d = vec![SimTime::from_millis(999)];
        replay.intercept(SimTime::from_millis(4), NodeId(0), NodeId(1), &mut d);
        assert_eq!(d, vec![SimTime::from_millis(6), SimTime::from_millis(10)]);
        let mut d2 = one_delivery();
        replay.intercept(SimTime::from_millis(5), NodeId(1), NodeId(0), &mut d2);
        assert!(d2.is_empty());
        assert_eq!(cursor.consumed(), 2);
    }

    #[test]
    #[should_panic(expected = "replay diverged at send #0")]
    fn replay_panics_on_mismatched_send() {
        let mut replay = ReplayInterceptor::new(expected_script());
        let mut d = one_delivery();
        replay.intercept(SimTime::ZERO, NodeId(3), NodeId(2), &mut d);
    }

    #[test]
    #[should_panic(expected = "beyond the recorded script")]
    fn replay_panics_past_the_script_end() {
        let mut replay = ReplayInterceptor::new(ReplayScript::default());
        let mut d = one_delivery();
        replay.intercept(SimTime::ZERO, NodeId(0), NodeId(1), &mut d);
    }
}

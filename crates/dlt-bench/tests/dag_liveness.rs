//! Liveness floor for the DAG act of e18: under each fault scenario,
//! the least-confirming representative confirms at least as many
//! blocks as the pinned floor. A relay or dedup change that saves
//! messages by losing confirmations fails here.
//!
//! The runs are e18's full-size ones (10 sends plus a double spend,
//! 120 s), built through `dlt_bench::faults` as the binary builds them.

use dlt_bench::faults::{run_dag_scenario, scenarios, DAG_REPS};
use dlt_sim::network::NodeId;
use dlt_sim::time::SimTime;

/// `confirmed (min node)` per scenario, in report order: the values
/// from before votes stopped being relayed past a node's decision
/// (since then `drop 30%` confirms 9). Votes are flooded once and never
/// re-requested, so dropped votes can leave a node short of a quorum.
const FLOOR: [(&str, usize); 6] = [
    ("baseline", 11),
    ("drop 10%", 10),
    ("drop 30%", 7),
    ("partition+heal", 11),
    ("byzantine lag", 11),
    ("chaos", 11),
];

#[test]
fn every_dag_fault_scenario_confirms_at_least_its_floor() {
    let all = scenarios();
    assert_eq!(all.len(), FLOOR.len());
    for (i, (scenario, (name, floor))) in all.iter().zip(FLOOR).enumerate() {
        assert_eq!(scenario.name, name);
        let sim = run_dag_scenario(i, scenario, 10, SimTime::from_secs(120), |_| {});
        let confirmed_min = (0..DAG_REPS)
            .map(|node| sim.node(NodeId(node)).confirmed_count())
            .min()
            .unwrap_or(0);
        assert!(
            confirmed_min >= floor,
            "{name}: the least-confirming node confirmed {confirmed_min}, floor {floor}"
        );
    }
}

//! Workspace-level checks of the scenario subsystem through the facade:
//! the paper suite carries all nine ports (e1–e8 and the legislative
//! election) and every shipped suite passes its own verdicts.

use game_authority_suite::scenario::prelude::*;
use game_authority_suite::scenario::suites;

#[test]
fn paper_suite_carries_all_nine_ports_and_passes() {
    let suite = suites::find("paper").expect("paper suite registered");
    let scenarios = suite.scenarios();
    assert!(scenarios.len() >= 9, "got {}", scenarios.len());
    for e in 1..=8 {
        assert!(
            scenarios
                .iter()
                .any(|s| s.name().starts_with(&format!("e{e}_"))),
            "missing e{e} port"
        );
    }
    assert!(scenarios.iter().any(|s| s.name() == "legislative_election"));
    let summary = suite.run(Some(1), 4);
    assert!(
        summary.all_passed(),
        "paper verdict failures: {:?}",
        summary
            .records
            .iter()
            .filter(|r| !r.verdict.passed())
            .map(|r| (&r.scenario, &r.verdict))
            .collect::<Vec<_>>()
    );
}

#[test]
fn examples_suite_passes() {
    let summary = suites::find("examples")
        .expect("examples suite registered")
        .run(Some(1), 2);
    assert!(summary.all_passed());
    assert!(summary.runs() >= 2, "at least two example ports");
}

#[test]
fn facade_exposes_the_spec_builder() {
    // A spec built entirely through the facade path, with churn.
    let spec = ScenarioSpec::new("facade_star", TopologyFamily::Star(5), |id, _n| {
        Box::new(MaxGossip::new(id.index() as u64)) as Box<dyn Process>
    })
    .schedule(Schedule::new().at(2, ScheduledAction::Disconnect(ProcessId(4))))
    .max_rounds(12)
    .verdict(|sim, _| {
        Verdict::check(
            game_authority_suite::scenario::workload::gossip_agreed(sim, 0..4),
            "survivors agree",
        )
    });
    let record = spec.run(1);
    assert!(record.verdict.passed());
    assert_eq!(record.rounds, 12);
}

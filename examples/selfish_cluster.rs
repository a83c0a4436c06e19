//! A distributed selfish-computer system, end to end.
//!
//! Four processors run the *fully distributed* game authority over the
//! synchronous simulator: a self-stabilizing clock schedules each play as
//! commit, reveal and one Byzantine agreement on the foul set — §3.3 of
//! the paper executed literally. One processor plays deliberate non-best
//! responses and its executive disconnects it on the agreed foul set; then a
//! total transient fault (`CorruptionFamily::total`) scrambles every
//! processor's state and turns the channels to garbage, and the middleware
//! recovers (Theorem 1's self-stabilization).
//!
//! ```text
//! cargo run --example selfish_cluster
//! ```

use game_authority_suite::authority::agent::Behavior;
use game_authority_suite::authority::distributed::{
    build_authority_sim, AuthorityCluster, AuthorityProcess,
};
use game_authority_suite::games::congestion;
use game_authority_suite::simnet::fault::CorruptionFamily;
use game_authority_suite::simnet::ids::ProcessId;

fn main() {
    // A 4-agent, 2-resource congestion game: cost = peers on my resource.
    // Every agent is a `Behavior` of the same model the centralized
    // `Authority` audits; processor 3 plays foul.
    let behaviors = vec![
        Behavior::honest_pure(0),
        Behavior::honest_pure(0),
        Behavior::honest_pure(0),
        Behavior::worst_response(),
    ];
    let cluster = AuthorityCluster::new(congestion(4), 1).modes(behaviors);
    let mut sim = build_authority_sim(&cluster, 42);

    // One play per clock period: commit, reveal, BA 3 and the executive.
    let modulus = cluster.play_len();

    println!("running 4 plays ({} pulses each)…", modulus);
    sim.run(modulus * 4 + 2);
    let p0 = sim.process_as::<AuthorityProcess>(ProcessId(0)).unwrap();
    for (i, rec) in p0.records().iter().enumerate() {
        println!(
            "play {i}: outcome {:?}  agreed fouls {:#06b}",
            rec.outcome.actions(),
            rec.fouls
        );
    }
    println!("processor 3 disconnected? {}\n", p0.punished()[3]);

    println!("injecting a total transient fault (arbitrary configuration)…");
    sim.corrupt(&CorruptionFamily::total(0xDEAD));
    sim.run(modulus * 40);
    let before = sim
        .process_as::<AuthorityProcess>(ProcessId(0))
        .unwrap()
        .records()
        .len();
    sim.run(modulus * 3);
    let p0 = sim.process_as::<AuthorityProcess>(ProcessId(0)).unwrap();
    let after = p0.records().len();
    println!(
        "plays completed after recovery: {} → {} (self-stabilized: {})",
        before,
        after,
        after > before
    );
    let last = p0.records().last().unwrap();
    println!(
        "latest agreed outcome: {:?} (fouls {:#06b})",
        last.outcome.actions(),
        last.fouls
    );

    // The same §3.3 play families, spec-driven: the scenario engine's
    // `authority` suite sweeps honest / selfish-cluster / mute / churn /
    // noise variants (seed-derived adversary placement included) with
    // deterministic summaries — `scenario run --suite authority`.
    let suite = game_authority_suite::scenario::suites::find("authority").expect("registered");
    let summary = suite.run(Some(1), 2);
    println!(
        "\nscenario suite `authority`: {}/{} runs passed",
        summary.passed(),
        summary.runs()
    );
    for scenario in &summary.scenarios {
        println!(
            "  {:<26} plays {:>2}  punished {}",
            scenario.name,
            scenario.metric("plays").map_or(0.0, |m| m.mean),
            scenario.metric("punished").map_or(0.0, |m| m.mean),
        );
    }
}

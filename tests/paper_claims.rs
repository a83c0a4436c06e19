//! The paper's claims as executable assertions, via the experiment
//! library (`ga-bench`). These are the same computations the `paper`
//! scenario suite runs as verdicts; here they gate CI.

use ga_bench::{e1_fig1, e2_pom_pennies, e3_rra, e5_virus, e6_overhead, e7_dynamics};

/// Fig. 1 and §5.1: the manipulation shifts (A, B) from (0, 0) to (−4, +4).
#[test]
fn claim_fig1_expected_profits() {
    let r = e1_fig1::run();
    assert_eq!(r.expected[0], (0.0, 0.0));
    assert_eq!(r.expected[1], (0.0, 0.0));
    assert_eq!(r.expected[2], (-4.0, 4.0));
}

/// §5.4: the authority reduces the price of malice — A's damage shrinks by
/// more than an order of magnitude and detection is immediate.
#[test]
fn claim_pom_reduction() {
    let r = e2_pom_pennies::run(100, 5);
    let unsupervised = &r.regimes[0];
    let supervised = &r.regimes[1];
    assert!(
        unsupervised.honest_payoff < -250.0,
        "≈ −4/round unsupervised"
    );
    assert_eq!(supervised.detected_at, Some(0));
    assert!(
        supervised.honest_payoff > -10.0,
        "damage capped at one play"
    );
}

/// Theorem 5 + Lemma 6: R(k) ≤ 1 + 2b/k and Δ(k) ≤ 2n−1 throughout; R→1.
#[test]
fn claim_theorem_5_and_lemma_6() {
    let points = e3_rra::run(&[(4, 2), (8, 4)], &[100, 2000], 17);
    for p in &points {
        assert!(p.bounds_held_throughout, "{p:?}");
    }
    let late = points.iter().find(|p| p.n == 8 && p.k == 2000).unwrap();
    assert!(late.ratio < 1.02, "asymptotically optimal: {}", late.ratio);
}

/// PoM in the virus inoculation game: grows with k unsupervised, collapses
/// to ≈1 supervised.
#[test]
fn claim_virus_pom() {
    let points = e5_virus::run(6, 1.0, 36.0, &[0, 4, 9]);
    assert!(points[1].pom_unsupervised > 1.2);
    assert!(points[2].pom_unsupervised > points[1].pom_unsupervised);
    for p in &points {
        assert!(p.pom_supervised < 1.2, "{p:?}");
    }
}

/// §3.3 protocol cost shapes at a fixed fault budget (f = 2). With
/// honest sources an OM relay part says its one value once, so OM's bytes
/// grow like n³ — n(n - 1) frames a round, n - 1 parts a frame — and the
/// n^(f+1) of the textbook is left to the equivocation envelope, which
/// noise senders do not reach; phase-king's constant-size messages stay an
/// order of n below that, but it needs more rounds.
#[test]
fn claim_overhead_shapes() {
    let points = e6_overhead::run(&[7, 13], 23);
    let om7 = points
        .iter()
        .find(|p| p.backend == ga_agreement::harness::Backend::Om && p.n == 7)
        .unwrap();
    let om13 = points
        .iter()
        .find(|p| p.backend == ga_agreement::harness::Backend::Om && p.n == 13)
        .unwrap();
    let pk13 = points
        .iter()
        .find(|p| p.backend == ga_agreement::harness::Backend::PhaseKing && p.n == 13)
        .unwrap();
    assert!(om13.bytes > 5 * om7.bytes, "n³: (13/7)³ ≈ 6.4");
    assert!(pk13.bytes < om13.bytes / 5, "phase-king stays near n²");
    assert!(pk13.rounds > om13.rounds, "…at the cost of more rounds");
    assert!(points.iter().all(|p| p.agreement));
}

/// E7: cheating diverges the load gap; supervision restores the envelope.
#[test]
fn claim_dynamics_envelope() {
    let r = e7_dynamics::run(6, 3, &[500], 31);
    assert!(r.honest[0] <= r.envelope);
    assert!(r.cheated[0] > r.envelope);
    assert!(
        r.supervised[0] <= r.envelope + 6,
        "supervision restores order"
    );
}

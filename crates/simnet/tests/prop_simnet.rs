//! Property tests for the simulator substrate.

use ga_simnet::prelude::*;
use proptest::prelude::*;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// A process that broadcasts a constant and counts receipts.
struct Beacon {
    received: usize,
}

impl Process for Beacon {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        self.received += ctx.inbox().len();
        ctx.broadcast(vec![0xBE]);
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Simulation histories are a pure function of the seed.
    #[test]
    fn determinism(seed in any::<u64>(), n in 3usize..8, rounds in 1u64..20) {
        let build = || Simulation::builder(Topology::complete(n))
            .seed(seed)
            .build_with(|_| Box::new(Beacon { received: 0 }) as Box<dyn Process>);
        let mut a = build();
        let mut b = build();
        a.run(rounds);
        b.run(rounds);
        prop_assert_eq!(a.trace(), b.trace());
    }

    /// On a complete graph, every broadcast reaches everyone: counts are
    /// exactly n(n−1) per routed round.
    #[test]
    fn conservation_of_messages(n in 2usize..8, rounds in 1u64..10) {
        let mut sim = Simulation::builder(Topology::complete(n))
            .build_with(|_| Box::new(Beacon { received: 0 }) as Box<dyn Process>);
        sim.run(rounds);
        prop_assert_eq!(
            sim.trace().messages_delivered,
            rounds * (n * (n - 1)) as u64
        );
        prop_assert_eq!(sim.trace().messages_dropped_no_link, 0);
    }

    /// Ring topologies always have vertex connectivity exactly 2.
    #[test]
    fn ring_connectivity(n in 3usize..10) {
        let t = Topology::ring(n);
        prop_assert!(t.is_connected());
        prop_assert!(t.vertex_connectivity_at_least(2));
        prop_assert!(!t.vertex_connectivity_at_least(3));
    }

    /// Complete graphs on n vertices are exactly (n−1)-connected — the
    /// paper's 2f+1 disjoint-paths condition holds for all f < n/2 there.
    #[test]
    fn complete_graph_connectivity(n in 2usize..8) {
        let t = Topology::complete(n);
        prop_assert!(t.vertex_connectivity_at_least(n - 1));
        if n > 2 {
            prop_assert!(!t.vertex_connectivity_at_least(n));
        }
    }

    /// Random k-connected constructions meet their minimum degree and stay
    /// connected.
    #[test]
    fn random_k_connected_sane(seed in any::<u64>(), n in 6usize..14, k in 2usize..5) {
        prop_assume!(k < n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = Topology::random_k_connected(n, k, 0.05, &mut rng);
        prop_assert!(t.min_degree() >= k);
        prop_assert!(t.is_connected());
    }

    /// `connected`, `degree` and the neighbor rows agree with an independent
    /// edge-set model on random graphs driven through random
    /// cut/heal/link/isolate sequences: the sorted-row binary search is
    /// checked against a reference that shares none of its code.
    #[test]
    fn connected_matches_reference_under_mutation(
        seed in any::<u64>(),
        n in 4usize..12,
        k in 2usize..4,
        ops in proptest::collection::vec((0usize..4, 0usize..12, 0usize..12), 0..24),
    ) {
        prop_assume!(k < n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut t = Topology::random_k_connected(n, k, 0.1, &mut rng);
        let mut model = BTreeSet::new();
        for a in 0..n {
            for &b in t.neighbors(ProcessId(a)) {
                model.insert((a, b));
            }
        }
        for (op, a, b) in ops {
            let (a, b) = (a % n, b % n);
            let (pa, pb) = (ProcessId(a), ProcessId(b));
            match op {
                0 if a != b => {
                    let had = model.remove(&(a, b)) | model.remove(&(b, a));
                    prop_assert_eq!(t.cut_link(pa, pb), Ok(had));
                }
                1 | 2 if a != b => {
                    let added = model.insert((a, b)) | model.insert((b, a));
                    let got = if op == 1 { t.heal_link(pa, pb) } else { t.link(pa, pb) };
                    prop_assert_eq!(got, Ok(added));
                }
                3 => {
                    model.retain(|&(u, v)| u != a && v != a);
                    t.isolate(pa);
                }
                _ => prop_assert!(t.cut_link(pa, pb).is_err(), "self loops are rejected"),
            }
            for i in 0..n {
                let row = t.neighbors(ProcessId(i));
                let expect: Vec<usize> = model.range((i, 0)..(i + 1, 0)).map(|&(_, v)| v).collect();
                prop_assert_eq!(row, &expect[..], "row {} diverged from the model", i);
                prop_assert_eq!(t.degree(ProcessId(i)), expect.len());
                for j in 0..n {
                    prop_assert_eq!(
                        t.connected(ProcessId(i), ProcessId(j)),
                        model.contains(&(i, j)),
                        "connected({}, {}) diverged", i, j
                    );
                }
            }
        }
    }

    /// Disconnecting a vertex removes all its deliveries and only its own.
    #[test]
    fn disconnect_isolates(n in 3usize..7, victim in 0usize..7, rounds in 1u64..8) {
        let victim = victim % n;
        let mut sim = Simulation::builder(Topology::complete(n))
            .build_with(|_| Box::new(Beacon { received: 0 }) as Box<dyn Process>);
        sim.disconnect(ProcessId(victim));
        sim.run(rounds);
        prop_assert_eq!(sim.trace().delivered_to(ProcessId(victim)), 0);
        for i in 0..n {
            if i != victim && rounds > 1 {
                prop_assert!(sim.trace().delivered_to(ProcessId(i)) > 0);
            }
        }
    }
}

//! Self-stabilizing BFS spanning tree with a *certified* convergence
//! bound.
//!
//! The `stabilize` suite charts recovery times for workloads whose true
//! stabilization time is unknown — the percentiles are numbers we plot,
//! not numbers we can check. This module closes that gap with the classic
//! BFS spanning-tree construction of Dolev, Israeli & Moran, whose
//! convergence under a synchronous daemon has a round bound stated purely
//! in terms of the topology (revisited and certified by Altisen & Bozga,
//! arXiv 2502.17035): [`certified_bound`] computes it from
//! [`Topology::diameter`], and verdicts compare the *measured*
//! `rounds_to_stabilize` against it.
//!
//! ## The protocol
//!
//! Every processor keeps two volatile registers — a `distance` estimate
//! and a `parent` pointer — plus one ROM bit (`is_root`) that corruption
//! cannot touch. Each pulse:
//!
//! * the root resets `distance = 0`, `parent = None` and broadcasts `0`;
//! * every other processor takes the smallest distance claim heard this
//!   pulse (ties broken toward the lower sender id), adopts `claim + 1`
//!   and the claiming sender as parent, and broadcasts its own distance.
//!
//! ## Why the bound holds (sketch)
//!
//! Claims can be arbitrarily corrupted, but a non-root's new distance is
//! always `1 +` some claim heard, so the minimum non-root estimate rises
//! by at least one per pulse — fake low values age out linearly — while
//! the root's genuine `0` wave reaches every vertex at true BFS distance
//! `d` within `d` pulses. Once the fake floor clears a vertex's true
//! distance, the root wave is the minimum and both registers lock to the
//! BFS tree: recovery takes at most `ecc(root) ≤ diameter` pulses plus a
//! constant for message latency (claims heard this pulse were sent the
//! previous one) and the burst's channel wipe. [`certified_bound`] adds
//! that constant: `diameter + 2`.

use ga_simnet::prelude::*;
use rand::rngs::StdRng;
use rand::RngCore;

/// The id every spec in this module roots the tree at.
pub const ROOT: ProcessId = ProcessId(0);

/// A self-stabilizing BFS spanning-tree processor (see the module docs).
///
/// `is_root` is ROM — [`scramble`](Process::scramble) randomizes only the
/// volatile `distance`/`parent` registers, modelling a transient fault
/// that cannot rewrite program identity.
#[derive(Debug, Clone)]
pub struct BfsTree {
    /// ROM: whether this processor is the tree root.
    pub is_root: bool,
    /// Volatile register: estimated hop distance from the root.
    pub distance: u64,
    /// Volatile register: the neighbor this processor currently routes
    /// through (`None` for the root — or for a processor that has heard
    /// nothing yet).
    pub parent: Option<ProcessId>,
}

impl BfsTree {
    /// A fresh processor; `id == ROOT` pins the root role.
    pub fn new(id: ProcessId) -> BfsTree {
        BfsTree {
            is_root: id == ROOT,
            distance: if id == ROOT { 0 } else { u64::MAX },
            parent: None,
        }
    }

    /// Wire format: the claimed distance as 8 little-endian bytes.
    pub fn encode(distance: u64) -> Vec<u8> {
        distance.to_le_bytes().to_vec()
    }

    /// Inverse of [`encode`](BfsTree::encode); `None` for ill-formed
    /// payloads (adversarial or corrupted bytes of the wrong shape).
    pub fn decode(bytes: &[u8]) -> Option<u64> {
        Some(u64::from_le_bytes(bytes.try_into().ok()?))
    }
}

impl Process for BfsTree {
    fn on_pulse(&mut self, ctx: &mut Context<'_>) {
        if self.is_root {
            self.distance = 0;
            self.parent = None;
        } else {
            // Adopt the smallest claim heard this pulse, ties toward the
            // lower sender id — a pure function of the inbox contents, so
            // sharding never changes the choice.
            let best = ctx
                .inbox()
                .iter()
                .filter_map(|m| BfsTree::decode(m.bytes()).map(|d| (d, m.from)))
                .min_by_key(|&(d, from)| (d, from.index()));
            if let Some((claim, from)) = best {
                self.distance = claim.saturating_add(1);
                self.parent = Some(from);
            }
            // An empty (or undecodable) inbox keeps the registers: the
            // processor has no evidence to revise its estimate with.
        }
        ctx.broadcast(BfsTree::encode(self.distance));
    }

    fn scramble(&mut self, rng: &mut StdRng) {
        // Volatile registers only; the ROM root bit survives. The distance
        // is bounded so a scrambled claim is garbage, not an overflow.
        self.distance = rng.next_u64() % (1 << 20);
        self.parent = Some(ProcessId((rng.next_u64() % 64) as usize));
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn name(&self) -> &'static str {
        "bfs_tree"
    }
}

/// The certified convergence bound, in rounds, for [`BfsTree`] on
/// `topology` under the synchronous daemon: `diameter + 2` (see the module
/// docs for the derivation; the `+ 2` covers message latency and the
/// corruption burst's channel wipe).
///
/// Returns `None` when the topology is disconnected — no spanning tree
/// exists, so no bound does either.
pub fn certified_bound(topology: &Topology) -> Option<u64> {
    Some(topology.diameter()? + 2)
}

/// The legality predicate: every processor's `distance` register equals
/// its true BFS distance from [`ROOT`] and every non-root's parent is a
/// neighbor one hop closer to the root — i.e. the parent pointers form a
/// correct BFS spanning tree. (On a disconnected topology there is no
/// legal configuration and this returns `false`.)
pub fn bfs_tree_legal(sim: &Simulation) -> bool {
    let topology = sim.topology();
    let truth = topology.bfs_distances(ROOT);
    (0..topology.len()).all(|i| {
        let id = ProcessId(i);
        let (Some(p), Some(true_d)) = (sim.process_as::<BfsTree>(id), truth[i]) else {
            return false;
        };
        if p.distance != true_d {
            return false;
        }
        if id == ROOT {
            p.parent.is_none()
        } else {
            p.parent.is_some_and(|parent| {
                topology.connected(id, parent)
                    && truth[parent.index()] == Some(true_d.saturating_sub(1))
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ga_simnet::rng::process_rng;

    // Homogeneous population: exercise the slab build path (byte-identical
    // to boxed storage) through a real protocol, scrambles included.
    fn build(topology: Topology) -> Simulation {
        Simulation::builder(topology)
            .seed(7)
            .build_slab(BfsTree::new)
    }

    #[test]
    fn converges_to_the_bfs_tree_within_the_certified_bound() {
        for topology in [Topology::ring(8), Topology::grid(3, 3), Topology::star(7)] {
            let bound = certified_bound(&topology).unwrap();
            let mut sim = build(topology);
            for _ in 0..bound {
                sim.step();
            }
            assert!(bfs_tree_legal(&sim), "legal within {bound} rounds");
            let truth = sim.topology().bfs_distances(ROOT);
            for (i, true_d) in truth.iter().enumerate() {
                let p = sim.process_as::<BfsTree>(ProcessId(i)).unwrap();
                assert_eq!(Some(p.distance), *true_d);
            }
        }
    }

    #[test]
    fn recovers_from_a_scramble_within_the_certified_bound() {
        // Scramble every register and wipe the in-flight claims (with the
        // channels intact one pulse re-adopts the pre-fault claims and the
        // scramble is unobservable) — the genuine worst case the bound is
        // stated for.
        let fault = CorruptionFamily {
            drop_messages_p: 1.0,
            ..CorruptionFamily::state_only(0..8, 0)
        };
        for seed_salt in [3, 4, 5] {
            let topology = Topology::ring(8);
            let bound = certified_bound(&topology).unwrap();
            let mut sim = build(topology);
            for _ in 0..bound {
                sim.step();
            }
            assert!(bfs_tree_legal(&sim));
            sim.corrupt(&CorruptionFamily {
                salt: seed_salt,
                ..fault.clone()
            });
            assert!(!bfs_tree_legal(&sim), "the scramble breaks legality");
            let recovery = (1..=bound)
                .find(|_| {
                    sim.step();
                    bfs_tree_legal(&sim)
                })
                .expect("re-legal within the certified bound");
            assert!(recovery <= bound);
        }
    }

    #[test]
    fn root_rom_bit_survives_scramble() {
        let mut root = BfsTree::new(ROOT);
        let mut rng = process_rng(2, ROOT, Round(1));
        root.scramble(&mut rng);
        assert!(root.is_root, "ROM survives");
        let before = (root.distance, root.parent);
        let mut rng2 = process_rng(3, ROOT, Round(2));
        root.scramble(&mut rng2);
        assert_ne!(
            before,
            (root.distance, root.parent),
            "volatile registers actually change"
        );
    }

    #[test]
    fn decode_rejects_ill_formed_payloads() {
        assert_eq!(BfsTree::decode(&[]), None);
        assert_eq!(BfsTree::decode(&[1, 2, 3]), None);
        assert_eq!(BfsTree::decode(&BfsTree::encode(42)), Some(42));
    }

    #[test]
    fn legality_rejects_wrong_distance_and_wrong_parent() {
        let topology = Topology::ring(6);
        let mut sim = build(topology);
        sim.run(8);
        assert!(bfs_tree_legal(&sim));
        sim.process_as_mut::<BfsTree>(ProcessId(3))
            .unwrap()
            .distance = 0;
        assert!(!bfs_tree_legal(&sim), "wrong distance is illegal");
        sim.process_as_mut::<BfsTree>(ProcessId(3))
            .unwrap()
            .distance = 3;
        sim.process_as_mut::<BfsTree>(ProcessId(3)).unwrap().parent = Some(ProcessId(3));
        assert!(!bfs_tree_legal(&sim), "non-neighbor parent is illegal");
    }

    #[test]
    fn certified_bound_tracks_the_diameter() {
        assert_eq!(certified_bound(&Topology::ring(8)), Some(6));
        assert_eq!(certified_bound(&Topology::grid(3, 3)), Some(6));
        assert_eq!(certified_bound(&Topology::complete(5)), Some(3));
        assert_eq!(
            certified_bound(&Topology::from_edges(4, &[(0, 1), (2, 3)]).unwrap()),
            None,
            "no spanning tree on a disconnected graph"
        );
    }
}

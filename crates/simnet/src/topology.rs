//! Communication graphs.
//!
//! The paper requires the communication graph to remain well connected in
//! spite of Byzantine processors: "there are 2f + 1 vertex disjoint paths
//! between any 2 processes, in the presence of at most f Byzantine
//! processes" (footnote 2 / §4.1). [`Topology`] models the graph and
//! provides a max-flow based [vertex-connectivity
//! check](Topology::vertex_connectivity_at_least) so harnesses can validate
//! that assumption before running a protocol.
//!
//! ## Representation: CSR rows
//!
//! Adjacency is stored in compressed-sparse-row form: one flat neighbor
//! array plus per-vertex `(start, len)` row descriptors. Sparse families
//! (rings, grids, bounded-degree random graphs) therefore cost O(n + E)
//! memory, which is what makes 10⁵–10⁶-process rounds feasible. It is the
//! only representation, at every n: [`connected`](Topology::connected) is
//! a binary search on the sorted row (O(log deg)).
//!
//! Mutation keeps CSR rows sorted in place: [`cut_link`](Topology::cut_link)
//! and [`isolate`](Topology::isolate) shrink rows (leaving slack capacity
//! in the gap), [`heal_link`](Topology::heal_link) re-inserts into that
//! slack, and only linking a *never-present* edge with no slack triggers an
//! O(n + E) rebuild — so cut/heal churn schedules never rebuild.
//!
//! ## Construction: streaming CSR, no per-vertex intermediates
//!
//! Every constructor builds the CSR arrays directly. Family constructors
//! (`ring`/`grid`/`star`/`complete`) know each row's exact degree and
//! sorted order up front, so they emit rows straight into a pre-sized flat
//! array in one pass — no counting pass, no sort, no dedup.
//! [`from_edges`](Topology::from_edges) takes two passes over the edge
//! list (count degrees into row offsets, then scatter endpoints through
//! per-row cursors) followed by an in-place per-row sort+dedup; duplicate
//! edges become row slack. Either way a 10⁶-vertex build performs O(1)
//! allocations instead of the n per-vertex `Vec`s the old adjacency-list
//! intermediate cost.

use crate::ids::ProcessId;
use crate::SimError;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::VecDeque;

/// An undirected communication graph over processors `0..n`.
///
/// Equality compares the *logical* graph (vertex count and live neighbor
/// rows) — two topologies compare equal regardless of internal row layout
/// after mutation churn.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    /// CSR row offsets into `flat`: row `u` lives at
    /// `flat[starts[u] .. starts[u] + lens[u]]`, with slack capacity up to
    /// `starts[u + 1]`. `starts.len() == n + 1` (sentinel at the end).
    starts: Vec<usize>,
    /// Live length of each CSR row (`lens[u] <= starts[u+1] - starts[u]`).
    lens: Vec<usize>,
    /// Flat sorted neighbor array, one row per vertex.
    flat: Vec<usize>,
}

impl PartialEq for Topology {
    fn eq(&self, other: &Topology) -> bool {
        self.n == other.n && (0..self.n).all(|u| self.row(u) == other.row(u))
    }
}

impl Eq for Topology {}

impl Topology {
    /// The old construction path, kept as the reference the property tests
    /// pin the streaming builders against: materializes per-vertex `Vec`
    /// adjacency lists, then packs them into CSR.
    #[cfg(test)]
    fn from_adj(n: usize, adj: Vec<Vec<usize>>) -> Topology {
        let total: usize = adj.iter().map(Vec::len).sum();
        let mut starts = Vec::with_capacity(n + 1);
        let mut lens = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(total);
        for list in &adj {
            starts.push(flat.len());
            lens.push(list.len());
            flat.extend_from_slice(list);
        }
        starts.push(flat.len());
        Topology::finish(n, starts, lens, flat)
    }

    /// Final assembly shared by every construction path.
    fn finish(n: usize, starts: Vec<usize>, lens: Vec<usize>, flat: Vec<usize>) -> Topology {
        Topology {
            n,
            starts,
            lens,
            flat,
        }
    }

    /// Streaming single-pass CSR builder for constructors whose rows can
    /// be emitted directly in sorted order: `emit(u, flat)` appends vertex
    /// `u`'s sorted neighbor row to the flat array. No per-vertex `Vec`
    /// intermediates and no sort/dedup pass — one pre-sized allocation for
    /// `flat` (from `total`, the exact directed-edge count family
    /// constructors know up front) plus one each for `starts`/`lens`.
    fn from_sorted_rows(
        n: usize,
        total: usize,
        mut emit: impl FnMut(usize, &mut Vec<usize>),
    ) -> Topology {
        let mut starts = Vec::with_capacity(n + 1);
        let mut lens = Vec::with_capacity(n);
        let mut flat = Vec::with_capacity(total);
        for u in 0..n {
            let before = flat.len();
            starts.push(before);
            emit(u, &mut flat);
            lens.push(flat.len() - before);
            debug_assert!(
                flat[before..].windows(2).all(|w| w[0] < w[1]),
                "row {u} must be emitted strictly sorted"
            );
        }
        starts.push(flat.len());
        Topology::finish(n, starts, lens, flat)
    }

    /// Two-pass streaming CSR builder from a validated undirected edge
    /// list: pass 1 counts degrees into the row offsets, pass 2 scatters
    /// endpoints into the pre-sized flat array through per-row write
    /// cursors, then each row is sorted and deduplicated in place
    /// (duplicate edges become row slack). Three allocations total,
    /// independent of E.
    fn from_edge_list(n: usize, edges: &[(usize, usize)]) -> Topology {
        let mut cursors = vec![0usize; n];
        for &(a, b) in edges {
            cursors[a] += 1;
            cursors[b] += 1;
        }
        let mut starts = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        starts.push(0);
        for count in &mut cursors {
            acc += *count;
            starts.push(acc);
            *count = 0; // reused as the pass-2 write cursor
        }
        let mut flat = vec![0usize; acc];
        for &(a, b) in edges {
            flat[starts[a] + cursors[a]] = b;
            cursors[a] += 1;
            flat[starts[b] + cursors[b]] = a;
            cursors[b] += 1;
        }
        let mut lens = Vec::with_capacity(n);
        for u in 0..n {
            let row = &mut flat[starts[u]..starts[u + 1]];
            row.sort_unstable();
            let mut live = 0;
            for i in 0..row.len() {
                if live == 0 || row[i] != row[live - 1] {
                    row[live] = row[i];
                    live += 1;
                }
            }
            lens.push(live); // duplicates leave slack at the row tail
        }
        Topology::finish(n, starts, lens, flat)
    }

    /// Live neighbor row of vertex `u`.
    #[inline]
    fn row(&self, u: usize) -> &[usize] {
        &self.flat[self.starts[u]..self.starts[u] + self.lens[u]]
    }

    /// Allocated capacity of row `u` (live length plus slack).
    #[inline]
    fn cap(&self, u: usize) -> usize {
        self.starts[u + 1] - self.starts[u]
    }

    /// Removes the element at `pos` of row `u` by shifting the row tail
    /// left; the freed slot becomes slack capacity for later inserts.
    fn remove_at(&mut self, u: usize, pos: usize) {
        let start = self.starts[u];
        let len = self.lens[u];
        self.flat
            .copy_within(start + pos + 1..start + len, start + pos);
        self.lens[u] = len - 1;
    }

    /// Inserts `v` at `pos` of row `u` by shifting the row tail right into
    /// slack capacity. Caller guarantees `lens[u] < cap(u)`.
    fn insert_at(&mut self, u: usize, pos: usize, v: usize) {
        let start = self.starts[u];
        let len = self.lens[u];
        self.flat
            .copy_within(start + pos..start + len, start + pos + 1);
        self.flat[start + pos] = v;
        self.lens[u] = len + 1;
    }

    /// O(n + E) fallback for [`link`](Topology::link) when a row has no
    /// slack: re-packs every live row into a fresh flat array with the new
    /// edge merged in. Only reached for never-before-present edges —
    /// cut-then-heal churn always finds slack and stays in place.
    fn rebuild_with_edge(&mut self, a: usize, b: usize) {
        let live: usize = self.lens.iter().sum();
        let mut starts = Vec::with_capacity(self.n + 1);
        let mut lens = Vec::with_capacity(self.n);
        let mut flat = Vec::with_capacity(live + 2);
        for u in 0..self.n {
            starts.push(flat.len());
            let row = &self.flat[self.starts[u]..self.starts[u] + self.lens[u]];
            let extra = if u == a {
                Some(b)
            } else if u == b {
                Some(a)
            } else {
                None
            };
            match extra {
                Some(v) => {
                    let pos = row.binary_search(&v).unwrap_err();
                    flat.extend_from_slice(&row[..pos]);
                    flat.push(v);
                    flat.extend_from_slice(&row[pos..]);
                    lens.push(row.len() + 1);
                }
                None => {
                    flat.extend_from_slice(row);
                    lens.push(row.len());
                }
            }
        }
        starts.push(flat.len());
        self.starts = starts;
        self.lens = lens;
        self.flat = flat;
    }

    /// The complete graph on `n` processors — the paper's default setting
    /// (every BA activation is a broadcast to everyone).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn complete(n: usize) -> Topology {
        assert!(n > 0, "topology needs at least one processor");
        Topology::from_sorted_rows(n, n * (n - 1), |i, flat| {
            flat.extend((0..n).filter(|&j| j != i));
        })
    }

    /// A ring on `n` processors (useful for worst-case connectivity tests).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn ring(n: usize) -> Topology {
        assert!(n >= 3, "a ring needs at least 3 processors");
        // With n >= 3 the two ring neighbors are always distinct, so each
        // row is exactly {prev, next} in ascending order.
        Topology::from_sorted_rows(n, 2 * n, |i, flat| {
            let (prev, next) = ((i + n - 1) % n, (i + 1) % n);
            flat.push(prev.min(next));
            flat.push(prev.max(next));
        })
    }

    /// A star on `n` processors: processor 0 is the hub, every other
    /// processor has the hub as its only neighbor. The minimal connected
    /// topology with a single point of failure — disconnecting the hub
    /// partitions everyone, which makes it the worst case for churn
    /// scenarios.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn star(n: usize) -> Topology {
        assert!(n >= 2, "a star needs a hub and at least one leaf");
        Topology::from_sorted_rows(n, 2 * (n - 1), |i, flat| {
            if i == 0 {
                flat.extend(1..n);
            } else {
                flat.push(0);
            }
        })
    }

    /// A `w × h` grid (4-neighbor lattice); vertex `(x, y)` has index
    /// `y * w + x`. The topology of the virus-inoculation game's network
    /// and a natural setting for spatially local fault scenarios.
    ///
    /// # Panics
    ///
    /// Panics if `w == 0` or `h == 0`.
    pub fn grid(w: usize, h: usize) -> Topology {
        assert!(w > 0 && h > 0, "grid needs positive dimensions");
        let n = w * h;
        // (w−1)·h horizontal + w·(h−1) vertical undirected edges, each
        // appearing in two rows; the up/left/right/down emit order is
        // ascending by index.
        let total = 2 * ((w - 1) * h + w * (h - 1));
        Topology::from_sorted_rows(n, total, |i, flat| {
            let (x, y) = (i % w, i / w);
            if y > 0 {
                flat.push(i - w);
            }
            if x > 0 {
                flat.push(i - 1);
            }
            if x + 1 < w {
                flat.push(i + 1);
            }
            if y + 1 < h {
                flat.push(i + w);
            }
        })
    }

    /// Builds a topology from explicit undirected edges.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadTopology`] for self-loops or out-of-range
    /// endpoints.
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Result<Topology, SimError> {
        if n == 0 {
            return Err(SimError::BadTopology("zero processors".into()));
        }
        // Validate every edge before any n-sized allocation: a bad edge on
        // a 10⁶-vertex call must fail fast, not after the big build.
        for &(a, b) in edges {
            if a == b {
                return Err(SimError::BadTopology(format!("self loop at {a}")));
            }
            if a >= n || b >= n {
                return Err(SimError::BadTopology(format!(
                    "edge ({a},{b}) out of range for n={n}"
                )));
            }
        }
        Ok(Topology::from_edge_list(n, edges))
    }

    /// A random graph where every vertex gets at least `k` neighbors:
    /// a Harary-style `k`-connected backbone (each vertex linked to its `k/2`
    /// successors around a ring) plus random extra edges at `extra_p`
    /// probability.
    ///
    /// The extra-edge sweep is O(n²) draws; with `extra_p == 0.0` it is
    /// skipped entirely (the result is identical — no draw can add an
    /// edge), which keeps the pure backbone usable at 10⁵⁺ vertices.
    ///
    /// # Panics
    ///
    /// Panics if `k >= n` or `k < 2`.
    pub fn random_k_connected(n: usize, k: usize, extra_p: f64, rng: &mut impl Rng) -> Topology {
        assert!(k >= 2 && k < n, "need 2 <= k < n");
        let half = k.div_ceil(2);
        // The Harary backbone is exactly n·⌈k/2⌉ edges, known up front.
        let mut edges = Vec::with_capacity(n * half);
        for i in 0..n {
            for d in 1..=half {
                edges.push((i, (i + d) % n));
            }
        }
        if extra_p > 0.0 {
            for i in 0..n {
                for j in i + 1..n {
                    if rng.gen_bool(extra_p) {
                        edges.push((i, j));
                    }
                }
            }
            edges.shuffle(rng);
        }
        Topology::from_edges(n, &edges).expect("generated edges are valid")
    }

    /// Number of processors.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the topology has no processors (never true — constructors
    /// require `n > 0`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Neighbor ids of processor `id` (sorted).
    pub fn neighbors(&self, id: ProcessId) -> &[usize] {
        self.row(id.index())
    }

    /// Degree of processor `id` — the basis for worst-case-by-degree
    /// adversary placement.
    pub fn degree(&self, id: ProcessId) -> usize {
        self.lens[id.index()]
    }

    /// The `k` highest-degree processors, ties broken toward the lower id,
    /// returned in ascending id order. Heap-selected in O(n log k) — the
    /// shared helper behind worst-case-by-degree corruption targeting and
    /// adversary placement, which previously each sorted all n degrees.
    pub fn top_k_by_degree(&self, k: usize) -> Vec<ProcessId> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let k = k.min(self.n);
        if k == 0 {
            return Vec::new();
        }
        // Min-heap of the k best (degree, Reverse(id)) keys: higher degree
        // wins, lower id wins ties.
        let mut heap: BinaryHeap<Reverse<(usize, Reverse<usize>)>> =
            BinaryHeap::with_capacity(k + 1);
        for u in 0..self.n {
            let key = (self.lens[u], Reverse(u));
            if heap.len() < k {
                heap.push(Reverse(key));
            } else if heap.peek().is_some_and(|&Reverse(min)| key > min) {
                heap.pop();
                heap.push(Reverse(key));
            }
        }
        let mut ids: Vec<ProcessId> = heap
            .into_iter()
            .map(|Reverse((_, Reverse(u)))| ProcessId(u))
            .collect();
        ids.sort_unstable_by_key(|id| id.index());
        ids
    }

    /// Whether `a` and `b` share an edge — an O(log deg) binary search on
    /// `a`'s sorted CSR row.
    pub fn connected(&self, a: ProcessId, b: ProcessId) -> bool {
        self.row(a.index()).binary_search(&b.index()).is_ok()
    }

    /// Removes every edge incident to `id`, in place.
    ///
    /// This is the executive's punitive disconnection. Unlike rebuilding
    /// the topology from its surviving edge list (O(n²)), this mutates the
    /// CSR rows directly: O(deg(id) · deg(peer)) overall, leaving the
    /// freed slots as slack for later [`link`](Topology::link)s.
    pub fn isolate(&mut self, id: ProcessId) {
        let victim = id.index();
        let peers: Vec<usize> = self.row(victim).to_vec();
        self.lens[victim] = 0;
        for peer in peers {
            if let Ok(pos) = self.row(peer).binary_search(&victim) {
                self.remove_at(peer, pos);
            }
        }
    }

    /// Adds the undirected edge `(a, b)` in place, keeping the CSR rows
    /// sorted. The inverse of [`isolate`](Topology::isolate) at
    /// single-edge granularity — churn schedules use it to model
    /// recoveries. Re-inserting into slack left by an earlier cut is
    /// O(deg); a brand-new edge with no slack falls back to an O(n + E)
    /// row re-pack.
    ///
    /// Returns `Ok(true)` if the edge was inserted, `Ok(false)` if it
    /// already existed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadTopology`] for self-loops or out-of-range
    /// endpoints.
    pub fn link(&mut self, a: ProcessId, b: ProcessId) -> Result<bool, SimError> {
        let (a, b) = (a.index(), b.index());
        if a == b {
            return Err(SimError::BadTopology(format!("self loop at {a}")));
        }
        if a >= self.n || b >= self.n {
            return Err(SimError::BadTopology(format!(
                "edge ({a},{b}) out of range for n={}",
                self.n
            )));
        }
        let Err(pos_a) = self.row(a).binary_search(&b) else {
            return Ok(false);
        };
        if self.lens[a] < self.cap(a) && self.lens[b] < self.cap(b) {
            self.insert_at(a, pos_a, b);
            if let Err(pos_b) = self.row(b).binary_search(&a) {
                self.insert_at(b, pos_b, a);
            }
        } else {
            self.rebuild_with_edge(a, b);
        }
        Ok(true)
    }

    /// Removes the single undirected edge `(a, b)` in place, keeping the
    /// CSR rows sorted — the edge-level counterpart of
    /// [`isolate`](Topology::isolate), used by partition churn schedules
    /// ([`ScheduledAction::CutLink`]). The freed slots remain as slack so
    /// a later heal never rebuilds.
    ///
    /// Returns `Ok(true)` if the edge was removed, `Ok(false)` if it was
    /// not present.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadTopology`] for self-loops or out-of-range
    /// endpoints.
    ///
    /// [`ScheduledAction::CutLink`]: crate::schedule::ScheduledAction::CutLink
    pub fn cut_link(&mut self, a: ProcessId, b: ProcessId) -> Result<bool, SimError> {
        let (a, b) = (a.index(), b.index());
        if a == b {
            return Err(SimError::BadTopology(format!("self loop at {a}")));
        }
        if a >= self.n || b >= self.n {
            return Err(SimError::BadTopology(format!(
                "edge ({a},{b}) out of range for n={}",
                self.n
            )));
        }
        let Ok(pos_a) = self.row(a).binary_search(&b) else {
            return Ok(false);
        };
        self.remove_at(a, pos_a);
        if let Ok(pos_b) = self.row(b).binary_search(&a) {
            self.remove_at(b, pos_b);
        }
        Ok(true)
    }

    /// Re-adds the single undirected edge `(a, b)` — the healing inverse
    /// of [`cut_link`](Topology::cut_link), with the same contract as
    /// [`link`](Topology::link) (`Ok(false)` when already present).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::BadTopology`] for self-loops or out-of-range
    /// endpoints.
    pub fn heal_link(&mut self, a: ProcessId, b: ProcessId) -> Result<bool, SimError> {
        self.link(a, b)
    }

    /// Minimum degree over all vertices — an upper bound on connectivity.
    pub fn min_degree(&self) -> usize {
        self.lens.iter().copied().min().unwrap_or(0)
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.lens.iter().sum::<usize>() / 2
    }

    /// Whether the graph is connected (BFS reachability).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut seen = vec![false; self.n];
        let mut queue = VecDeque::from([0usize]);
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = queue.pop_front() {
            for &v in self.row(u) {
                if !seen[v] {
                    seen[v] = true;
                    count += 1;
                    queue.push_back(v);
                }
            }
        }
        count == self.n
    }

    /// Breadth-first hop distances from `from` to every vertex: `None` for
    /// unreachable vertices (and for everything when `from` is out of
    /// range). `O(n + E)` off the CSR rows.
    ///
    /// This is the ground truth self-stabilizing spanning-tree workloads
    /// check their distance registers against, and the building block of
    /// [`diameter`](Topology::diameter) — the quantity certified
    /// convergence bounds are stated in.
    pub fn bfs_distances(&self, from: ProcessId) -> Vec<Option<u64>> {
        let mut dist = vec![None; self.n];
        if from.index() >= self.n {
            return dist;
        }
        dist[from.index()] = Some(0);
        let mut queue = VecDeque::from([from.index()]);
        while let Some(u) = queue.pop_front() {
            let d = dist[u].expect("queued vertices have a distance");
            for &v in self.row(u) {
                if dist[v].is_none() {
                    dist[v] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// The graph diameter (largest finite hop distance over all pairs), or
    /// `None` when the graph is disconnected or empty. `O(n · (n + E))` —
    /// one BFS per vertex, fine at simulator scales.
    pub fn diameter(&self) -> Option<u64> {
        if self.n == 0 {
            return None;
        }
        let mut best = 0;
        for u in 0..self.n {
            for d in self.bfs_distances(ProcessId(u)) {
                best = best.max(d?);
            }
        }
        Some(best)
    }

    /// Checks that every pair of distinct vertices has at least `k` vertex
    /// disjoint paths (Menger / max-flow with vertex splitting).
    ///
    /// For the paper's resilience condition use `k = 2f + 1`.
    /// Runs `O(n² · k · E)` — fine for the simulator's scales.
    pub fn vertex_connectivity_at_least(&self, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        if self.n < 2 {
            return false;
        }
        for s in 0..self.n {
            for t in s + 1..self.n {
                if !self.pair_connectivity_at_least(s, t, k) {
                    return false;
                }
            }
        }
        true
    }

    /// Max-flow check for a single (s, t) pair.
    ///
    /// Adjacent pairs: an edge is itself a path that no vertex cut can
    /// remove, so we count the direct edge plus the connectivity of the graph
    /// without it (standard Menger adjustment via flow on the split graph,
    /// where the direct arc bypasses interior capacities).
    fn pair_connectivity_at_least(&self, s: usize, t: usize, k: usize) -> bool {
        // Vertex splitting: vertex v becomes v_in (2v) -> v_out (2v+1) with
        // capacity 1, except s and t which have infinite self-capacity.
        // Edge (u,v) becomes u_out -> v_in and v_out -> u_in with capacity 1:
        // vertex-disjoint paths never share an edge, and unit capacity keeps
        // a direct (s,t) edge from being counted as more than one path.
        let inf = (k + 1) as i64;
        let nodes = 2 * self.n;
        let mut graph: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nodes]; // (to, edge index)
        let mut cap: Vec<i64> = Vec::new();
        let add_edge = |graph: &mut Vec<Vec<(usize, usize)>>,
                        cap: &mut Vec<i64>,
                        u: usize,
                        v: usize,
                        c: i64| {
            graph[u].push((v, cap.len()));
            cap.push(c);
            graph[v].push((u, cap.len()));
            cap.push(0);
        };
        for v in 0..self.n {
            let c = if v == s || v == t { inf } else { 1 };
            add_edge(&mut graph, &mut cap, 2 * v, 2 * v + 1, c);
        }
        for u in 0..self.n {
            for &v in self.row(u) {
                // Each undirected edge appears twice (u->v and v->u); add
                // the directed arc each time.
                add_edge(&mut graph, &mut cap, 2 * u + 1, 2 * v, 1);
            }
        }
        let source = 2 * s + 1; // s_out
        let sink = 2 * t; // t_in
        let mut flow = 0i64;
        while flow < k as i64 {
            // BFS for an augmenting path.
            let mut parent: Vec<Option<(usize, usize)>> = vec![None; nodes];
            let mut queue = VecDeque::from([source]);
            while let Some(u) = queue.pop_front() {
                if u == sink {
                    break;
                }
                for &(v, e) in &graph[u] {
                    if cap[e] > 0 && parent[v].is_none() && v != source {
                        parent[v] = Some((u, e));
                        queue.push_back(v);
                    }
                }
            }
            if parent[sink].is_none() {
                break;
            }
            // Unit augmentation (all path bottlenecks are 1 or inf).
            let mut v = sink;
            while v != source {
                let (u, e) = parent[v].expect("path exists");
                cap[e] -= 1;
                cap[e ^ 1] += 1;
                v = u;
            }
            flow += 1;
        }
        flow >= k as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_structure() {
        let t = Topology::complete(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.edge_count(), 10);
        assert_eq!(t.min_degree(), 4);
        assert!(t.connected(ProcessId(0), ProcessId(4)));
        assert!(!t.connected(ProcessId(2), ProcessId(2)));
    }

    #[test]
    fn ring_structure() {
        let t = Topology::ring(6);
        assert_eq!(t.edge_count(), 6);
        assert_eq!(t.min_degree(), 2);
        assert!(t.connected(ProcessId(0), ProcessId(5)));
        assert!(!t.connected(ProcessId(0), ProcessId(3)));
    }

    /// The `connected` answer must agree with the adjacency rows for every
    /// ordered pair: the binary search against a linear scan of the row.
    fn assert_connected_matches_rows(t: &Topology) {
        for a in 0..t.len() {
            for b in 0..t.len() {
                assert_eq!(
                    t.connected(ProcessId(a), ProcessId(b)),
                    t.neighbors(ProcessId(a)).contains(&b),
                    "connected disagrees with adjacency on ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn star_structure_and_parity() {
        let t = Topology::star(7);
        assert_eq!(t.len(), 7);
        assert_eq!(t.edge_count(), 6, "one spoke per leaf");
        assert_eq!(t.neighbors(ProcessId(0)).len(), 6);
        assert_eq!(t.min_degree(), 1);
        assert!(t.is_connected());
        assert!(t.vertex_connectivity_at_least(1));
        assert!(!t.vertex_connectivity_at_least(2), "hub is a cut vertex");
        for leaf in 1..7 {
            assert!(t.connected(ProcessId(0), ProcessId(leaf)));
            assert_eq!(t.neighbors(ProcessId(leaf)), &[0]);
        }
        assert!(!t.connected(ProcessId(1), ProcessId(2)));
        assert_connected_matches_rows(&t);
    }

    #[test]
    fn star_crosses_word_boundary() {
        let t = Topology::star(70);
        assert!(t.connected(ProcessId(0), ProcessId(69)));
        assert!(!t.connected(ProcessId(65), ProcessId(69)));
        assert_connected_matches_rows(&t);
    }

    #[test]
    fn grid_structure_and_parity() {
        let t = Topology::grid(4, 3);
        assert_eq!(t.len(), 12);
        // Horizontal edges: 3 per row × 3 rows; vertical: 4 per column gap × 2.
        assert_eq!(t.edge_count(), 3 * 3 + 4 * 2);
        // Corner (0,0) has degree 2, edge cell (1,0) degree 3, interior (1,1)
        // degree 4.
        assert_eq!(t.neighbors(ProcessId(0)), &[1, 4]);
        assert_eq!(t.neighbors(ProcessId(1)), &[0, 2, 5]);
        assert_eq!(t.neighbors(ProcessId(5)), &[1, 4, 6, 9]);
        assert!(t.is_connected());
        assert!(t.vertex_connectivity_at_least(2));
        assert!(!t.vertex_connectivity_at_least(3));
        assert_connected_matches_rows(&t);
    }

    #[test]
    fn grid_degenerate_shapes() {
        // 1×1: a single isolated vertex.
        let t = Topology::grid(1, 1);
        assert_eq!(t.len(), 1);
        assert_eq!(t.edge_count(), 0);
        // 1×5: a path.
        let path = Topology::grid(1, 5);
        assert_eq!(path.edge_count(), 4);
        assert!(path.is_connected());
        assert!(!path.vertex_connectivity_at_least(2));
        assert_connected_matches_rows(&path);
        // 5×1 is the same path transposed.
        assert_eq!(Topology::grid(5, 1).edge_count(), 4);
    }

    #[test]
    fn link_inserts_edge_and_keeps_parity() {
        let mut t = Topology::ring(6);
        assert!(!t.connected(ProcessId(0), ProcessId(3)));
        assert_eq!(t.link(ProcessId(0), ProcessId(3)), Ok(true));
        assert!(t.connected(ProcessId(0), ProcessId(3)));
        assert!(t.connected(ProcessId(3), ProcessId(0)));
        assert_eq!(t.neighbors(ProcessId(0)), &[1, 3, 5], "stays sorted");
        assert_eq!(t.link(ProcessId(0), ProcessId(3)), Ok(false), "idempotent");
        assert_eq!(t.edge_count(), 7);
        assert_connected_matches_rows(&t);
    }

    #[test]
    fn link_rejects_bad_input() {
        let mut t = Topology::ring(4);
        assert!(t.link(ProcessId(1), ProcessId(1)).is_err());
        assert!(t.link(ProcessId(0), ProcessId(4)).is_err());
    }

    #[test]
    fn link_undoes_isolate() {
        let mut t = Topology::star(5);
        let before = t.clone();
        t.isolate(ProcessId(0));
        assert_eq!(t.edge_count(), 0);
        for leaf in 1..5 {
            t.link(ProcessId(0), ProcessId(leaf)).unwrap();
        }
        assert_eq!(t, before, "reconnecting every spoke restores the star");
        assert_connected_matches_rows(&t);
    }

    #[test]
    fn cut_link_removes_one_edge_and_keeps_parity() {
        let mut t = Topology::complete(5);
        assert_eq!(t.cut_link(ProcessId(1), ProcessId(3)), Ok(true));
        assert!(!t.connected(ProcessId(1), ProcessId(3)));
        assert!(!t.connected(ProcessId(3), ProcessId(1)));
        assert_eq!(t.edge_count(), 9);
        assert_eq!(
            t.cut_link(ProcessId(1), ProcessId(3)),
            Ok(false),
            "already cut"
        );
        // Other edges untouched.
        assert!(t.connected(ProcessId(1), ProcessId(2)));
        assert_connected_matches_rows(&t);
        // heal_link is the exact inverse.
        assert_eq!(t.heal_link(ProcessId(3), ProcessId(1)), Ok(true));
        assert_eq!(t, Topology::complete(5));
    }

    #[test]
    fn cut_link_rejects_bad_input() {
        let mut t = Topology::ring(4);
        assert!(t.cut_link(ProcessId(2), ProcessId(2)).is_err());
        assert!(t.cut_link(ProcessId(0), ProcessId(9)).is_err());
        assert!(t.heal_link(ProcessId(0), ProcessId(9)).is_err());
    }

    #[test]
    fn from_edges_rejects_bad_input() {
        assert!(Topology::from_edges(3, &[(0, 0)]).is_err());
        assert!(Topology::from_edges(3, &[(0, 3)]).is_err());
        assert!(Topology::from_edges(0, &[]).is_err());
    }

    #[test]
    fn from_edges_dedups() {
        let t = Topology::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn connectivity_of_complete_graph() {
        let t = Topology::complete(6);
        assert!(t.vertex_connectivity_at_least(5));
        assert!(!t.vertex_connectivity_at_least(6));
    }

    #[test]
    fn connectivity_of_ring_is_two() {
        let t = Topology::ring(7);
        assert!(t.vertex_connectivity_at_least(2));
        assert!(!t.vertex_connectivity_at_least(3));
    }

    #[test]
    fn path_graph_has_connectivity_one() {
        let t = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(t.is_connected());
        assert!(t.vertex_connectivity_at_least(1));
        assert!(!t.vertex_connectivity_at_least(2));
    }

    #[test]
    fn disconnected_graph_detected() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!t.is_connected());
        assert!(!t.vertex_connectivity_at_least(1));
    }

    #[test]
    fn bfs_distances_on_known_shapes() {
        let ring = Topology::ring(8);
        let d = ring.bfs_distances(ProcessId(0));
        assert_eq!(
            d,
            [0u64, 1, 2, 3, 4, 3, 2, 1].map(Some).to_vec(),
            "ring distances wrap both ways"
        );
        // Grid (3×3): vertex (x, y) = y*3 + x, corner to corner is 4 hops.
        let grid = Topology::grid(3, 3);
        assert_eq!(grid.bfs_distances(ProcessId(0))[8], Some(4));
        assert_eq!(grid.bfs_distances(ProcessId(4))[0], Some(2));
        // Star: hub at 0, every leaf 1 from hub and 2 from each other.
        let star = Topology::star(6);
        assert_eq!(star.bfs_distances(ProcessId(0))[5], Some(1));
        assert_eq!(star.bfs_distances(ProcessId(1))[5], Some(2));
    }

    #[test]
    fn bfs_distances_handle_unreachable_and_out_of_range() {
        let t = Topology::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        let d = t.bfs_distances(ProcessId(0));
        assert_eq!(d, vec![Some(0), Some(1), None, None]);
        assert!(t.bfs_distances(ProcessId(9)).iter().all(|d| d.is_none()));
    }

    #[test]
    fn diameter_of_known_shapes() {
        assert_eq!(Topology::complete(5).diameter(), Some(1));
        assert_eq!(Topology::ring(8).diameter(), Some(4));
        assert_eq!(Topology::ring(7).diameter(), Some(3));
        assert_eq!(Topology::grid(3, 3).diameter(), Some(4));
        assert_eq!(Topology::grid(1, 5).diameter(), Some(4), "path graph");
        assert_eq!(Topology::star(6).diameter(), Some(2));
        assert_eq!(Topology::grid(1, 1).diameter(), Some(0), "single vertex");
        assert_eq!(
            Topology::from_edges(4, &[(0, 1), (2, 3)])
                .unwrap()
                .diameter(),
            None,
            "disconnected graphs have no finite diameter"
        );
    }

    #[test]
    fn paper_condition_2f_plus_1_on_complete_graph() {
        // With n = 7, f = 2: need 2f+1 = 5 disjoint paths; K7 offers 6.
        let t = Topology::complete(7);
        assert!(t.vertex_connectivity_at_least(5));
    }

    #[test]
    fn random_k_connected_meets_min_degree() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let t = Topology::random_k_connected(12, 4, 0.1, &mut rng);
        assert!(t.min_degree() >= 4);
        assert!(t.is_connected());
        assert!(t.vertex_connectivity_at_least(3));
    }

    #[test]
    fn random_k_connected_skips_extra_edge_sweep_at_zero_p() {
        // With extra_p == 0 the result is the pure Harary backbone and no
        // RNG draw is consumed — the O(n²) sweep must be skipped.
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let t = Topology::random_k_connected(10, 2, 0.0, &mut rng);
        assert_eq!(t, Topology::ring(10), "k=2 backbone is the ring");
        let mut fresh = rand::rngs::StdRng::seed_from_u64(7);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>(), "rng untouched");
    }

    #[test]
    fn isolate_removes_only_incident_edges() {
        let mut t = Topology::complete(5);
        let before = t.clone();
        t.isolate(ProcessId(2));
        assert!(t.neighbors(ProcessId(2)).is_empty());
        assert_eq!(t.edge_count(), 6, "C(4,2) survivors");
        for u in [0usize, 1, 3, 4] {
            assert!(!t.connected(ProcessId(u), ProcessId(2)));
            assert!(!t.connected(ProcessId(2), ProcessId(u)));
            for v in [0usize, 1, 3, 4] {
                if u != v {
                    assert!(t.connected(ProcessId(u), ProcessId(v)), "{u}-{v} kept");
                }
            }
        }
        // Equivalent to the O(n²) rebuild the scheduler used to do.
        let n = before.len();
        let mut edges = Vec::new();
        for u in 0..n {
            for &v in before.neighbors(ProcessId(u)) {
                if u < v && u != 2 && v != 2 {
                    edges.push((u, v));
                }
            }
        }
        assert_eq!(t, Topology::from_edges(n, &edges).unwrap());
    }

    #[test]
    fn isolate_twice_is_idempotent() {
        let mut t = Topology::ring(5);
        t.isolate(ProcessId(0));
        t.isolate(ProcessId(0));
        assert!(t.neighbors(ProcessId(0)).is_empty());
        assert_eq!(t.edge_count(), 3);
    }

    #[test]
    fn connected_on_a_wide_complete_graph() {
        let t = Topology::complete(130);
        assert!(t.connected(ProcessId(0), ProcessId(129)));
        assert!(t.connected(ProcessId(65), ProcessId(64)));
        assert!(!t.connected(ProcessId(65), ProcessId(65)));
    }

    #[test]
    fn neighbors_sorted_and_correct() {
        let t = Topology::from_edges(4, &[(2, 0), (2, 3), (2, 1)]).unwrap();
        assert_eq!(t.neighbors(ProcessId(2)), &[0, 1, 3]);
    }

    #[test]
    fn degree_matches_neighbor_counts() {
        let t = Topology::star(5);
        assert_eq!(t.degree(ProcessId(0)), 4, "hub");
        for leaf in 1..5 {
            assert_eq!(t.degree(ProcessId(leaf)), 1);
        }
        let mut t = Topology::complete(4);
        assert_eq!(t.degree(ProcessId(2)), 3);
        t.isolate(ProcessId(2));
        assert_eq!(t.degree(ProcessId(2)), 0);
    }

    #[test]
    fn connected_matches_rows_after_churn() {
        let mut t = Topology::grid(4, 4);
        t.cut_link(ProcessId(1), ProcessId(2)).unwrap();
        t.isolate(ProcessId(5));
        t.heal_link(ProcessId(1), ProcessId(2)).unwrap();
        t.link(ProcessId(0), ProcessId(15)).unwrap();
        assert_connected_matches_rows(&t);
    }

    #[test]
    fn link_without_slack_rebuilds_rows() {
        // Fresh from a constructor, rows have zero slack, so a brand-new
        // edge exercises the rebuild path.
        let mut t = Topology::ring(6);
        assert_eq!(t.link(ProcessId(0), ProcessId(3)), Ok(true));
        assert_eq!(t.neighbors(ProcessId(0)), &[1, 3, 5]);
        assert_eq!(t.neighbors(ProcessId(3)), &[0, 2, 4]);
        assert_eq!(t.edge_count(), 7);
        assert_connected_matches_rows(&t);
    }

    /// The old construction path: per-vertex adjacency `Vec`s, sorted and
    /// deduped, then packed. The streaming builders must reproduce it
    /// exactly (logical rows, hence equality, and every `connected` answer).
    fn reference_from_edges(n: usize, edges: &[(usize, usize)]) -> Topology {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Topology::from_adj(n, adj)
    }

    #[test]
    fn family_constructors_match_the_reference_path() {
        // Each family's streaming emitter vs the same graph routed through
        // the old per-vertex-Vec reference, across shapes that cover hubs,
        // and degenerate rows.
        for n in [1usize, 2, 5, 64] {
            if n >= 3 {
                let edges: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 1) % n)).collect();
                assert_eq!(
                    Topology::ring(n),
                    reference_from_edges(n, &edges),
                    "ring({n})"
                );
            }
            if n >= 2 {
                let spokes: Vec<(usize, usize)> = (1..n).map(|leaf| (0, leaf)).collect();
                assert_eq!(
                    Topology::star(n),
                    reference_from_edges(n, &spokes),
                    "star({n})"
                );
            }
            let mut all = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    all.push((a, b));
                }
            }
            assert_eq!(
                Topology::complete(n),
                reference_from_edges(n, &all),
                "complete({n})"
            );
        }
        for (w, h) in [(1usize, 1usize), (1, 5), (5, 1), (4, 3), (8, 8)] {
            let n = w * h;
            let mut edges = Vec::new();
            for i in 0..n {
                let (x, y) = (i % w, i / w);
                if x + 1 < w {
                    edges.push((i, i + 1));
                }
                if y + 1 < h {
                    edges.push((i, i + w));
                }
            }
            assert_eq!(
                Topology::grid(w, h),
                reference_from_edges(n, &edges),
                "grid({w},{h})"
            );
        }
    }

    #[test]
    fn from_edges_fails_fast_before_allocating() {
        // A bad edge must be rejected even at a vertex count where the
        // old allocate-first path would have built 10⁶ Vecs to find it.
        let err = Topology::from_edges(1_000_000, &[(0, 1), (5, 1_000_000)]);
        assert!(err.is_err());
        let err = Topology::from_edges(1_000_000, &[(0, 1), (7, 7)]);
        assert!(err.is_err());
    }

    mod streaming_matches_reference {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The two-pass streaming `from_edges` is indistinguishable
            /// from the old per-vertex-Vec path for arbitrary edge sets —
            /// duplicates, reversed duplicates and unsorted input included.
            #[test]
            fn from_edges_matches_from_adj(
                n in 1usize..40,
                raw in proptest::collection::vec((0usize..40, 0usize..40), 0..120),
            ) {
                let edges: Vec<(usize, usize)> = raw
                    .into_iter()
                    .map(|(a, b)| (a % n, b % n))
                    .filter(|&(a, b)| a != b)
                    .collect();
                let streamed = Topology::from_edges(n, &edges).unwrap();
                let reference = reference_from_edges(n, &edges);
                prop_assert_eq!(&streamed, &reference);
                prop_assert_eq!(streamed.edge_count(), reference.edge_count());
                for u in 0..n {
                    prop_assert_eq!(
                        streamed.neighbors(ProcessId(u)),
                        reference.neighbors(ProcessId(u)),
                        "row {} diverged", u
                    );
                    for v in 0..n {
                        prop_assert_eq!(
                            streamed.connected(ProcessId(u), ProcessId(v)),
                            reference.connected(ProcessId(u), ProcessId(v)),
                            "connected({}, {}) diverged", u, v
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn top_k_by_degree_selects_hubs_with_stable_ties() {
        // Star: hub 0 has degree 6, leaves degree 1 — ties break low-id.
        let star = Topology::star(7);
        assert_eq!(star.top_k_by_degree(1), vec![ProcessId(0)]);
        assert_eq!(
            star.top_k_by_degree(3),
            vec![ProcessId(0), ProcessId(1), ProcessId(2)]
        );
        // k larger than n clamps; k == 0 is empty.
        assert_eq!(star.top_k_by_degree(99).len(), 7);
        assert!(star.top_k_by_degree(0).is_empty());
        // Matches a full sort on an irregular graph.
        let t = Topology::grid(5, 4);
        for k in [1, 3, 7, 20] {
            let mut ids: Vec<usize> = (0..t.len()).collect();
            ids.sort_by_key(|&id| (std::cmp::Reverse(t.degree(ProcessId(id))), id));
            let mut expect: Vec<ProcessId> = ids[..k.min(t.len())]
                .iter()
                .map(|&id| ProcessId(id))
                .collect();
            expect.sort_unstable_by_key(|id| id.index());
            assert_eq!(t.top_k_by_degree(k), expect, "k={k}");
        }
    }
}

//! A simple undirected graph.
//!
//! The shape of conflict graphs: no loops, no parallel edges. Stored as
//! sorted adjacency lists over dense `usize` vertex ids.

/// Simple undirected graph over vertices `0..n`.
#[derive(Clone, Debug, Default)]
pub struct UGraph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl UGraph {
    /// Empty graph with `n` isolated vertices.
    pub fn new(n: usize) -> Self {
        UGraph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Build from an edge list (duplicates and loops are ignored).
    pub fn from_edges(n: usize, edges: &[(usize, usize)]) -> Self {
        let mut g = UGraph::new(n);
        for &(a, b) in edges {
            g.add_edge(a, b);
        }
        g
    }

    /// Build directly from pre-sorted deduplicated adjacency (used to adapt
    /// `dagwave_paths::ConflictGraph` without copying through an edge list).
    pub fn from_sorted_adjacency(adj: Vec<Vec<u32>>) -> Self {
        let edges = adj.iter().map(|n| n.len()).sum::<usize>() / 2;
        debug_assert!(adj.iter().all(|ns| ns.windows(2).all(|w| w[0] < w[1])));
        UGraph { adj, edges }
    }

    /// Add edge `{a, b}`; returns `false` for loops and duplicates.
    pub fn add_edge(&mut self, a: usize, b: usize) -> bool {
        if a == b || a >= self.adj.len() || b >= self.adj.len() {
            return false;
        }
        match self.adj[a].binary_search(&(b as u32)) {
            Ok(_) => false,
            Err(pos_a) => {
                self.adj[a].insert(pos_a, b as u32);
                let pos_b = self.adj[b]
                    .binary_search(&(a as u32))
                    .expect_err("asymmetric adjacency");
                self.adj[b].insert(pos_b, a as u32);
                self.edges += 1;
                true
            }
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|ns| ns.len()).max().unwrap_or(0)
    }

    /// Adjacency test.
    #[inline]
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&(b as u32)).is_ok()
    }

    /// Edge list with `a < b`.
    pub fn edge_list(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.edges);
        for (a, ns) in self.adj.iter().enumerate() {
            for &b in ns {
                let b = b as usize;
                if a < b {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Vertices sorted by decreasing degree (Welsh–Powell order).
    pub fn largest_first_order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.vertex_count()).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(self.degree(v)));
        order
    }

    /// Smallest-last (degeneracy) order: repeatedly remove a minimum-degree
    /// vertex; returns the removal sequence reversed. Greedy coloring along
    /// this order uses at most `degeneracy + 1` colors.
    pub fn smallest_last_order(&self) -> Vec<usize> {
        let n = self.vertex_count();
        let mut deg: Vec<usize> = (0..n).map(|v| self.degree(v)).collect();
        let mut removed = vec![false; n];
        let max_deg = self.max_degree();
        // Bucket queue over degrees.
        let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); max_deg + 1];
        for v in 0..n {
            buckets[deg[v]].push(v);
        }
        let mut order = Vec::with_capacity(n);
        let mut cursor = 0usize;
        for _ in 0..n {
            // Find the non-empty bucket with the smallest degree. Degrees only
            // decrease, so the cursor may need to step back by at most 1 per
            // removal; rescan from 0 for simplicity guarded by cursor hint.
            cursor = cursor.saturating_sub(1);
            let v = loop {
                if let Some(&cand) = buckets[cursor].last() {
                    if removed[cand] || deg[cand] != cursor {
                        buckets[cursor].pop();
                        continue;
                    }
                    buckets[cursor].pop();
                    break cand;
                }
                cursor += 1;
            };
            removed[v] = true;
            order.push(v);
            for &w in self.neighbors(v) {
                let w = w as usize;
                if !removed[w] {
                    deg[w] -= 1;
                    buckets[deg[w]].push(w);
                }
            }
        }
        order.reverse();
        order
    }

    /// The degeneracy (max over the smallest-last process of the degree at
    /// removal time).
    pub fn degeneracy(&self) -> usize {
        let order = self.smallest_last_order();
        // Recompute: degeneracy = max back-degree along the order.
        let pos: Vec<usize> = {
            let mut p = vec![0; order.len()];
            for (i, &v) in order.iter().enumerate() {
                p[v] = i;
            }
            p
        };
        (0..self.vertex_count())
            .map(|v| {
                self.neighbors(v)
                    .iter()
                    .filter(|&&w| pos[w as usize] < pos[v])
                    .count()
            })
            .max()
            .unwrap_or(0)
    }
}

/// Build the cycle graph `C_n`.
pub fn cycle_graph(n: usize) -> UGraph {
    let mut g = UGraph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n);
    }
    g
}

/// Build the complete graph `K_n`.
pub fn complete_graph(n: usize) -> UGraph {
    let mut g = UGraph::new(n);
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge(a, b);
        }
    }
    g
}

/// Build the complete bipartite graph `K_{m,n}` (left part first).
pub fn complete_bipartite(m: usize, n: usize) -> UGraph {
    let mut g = UGraph::new(m + n);
    for a in 0..m {
        for b in 0..n {
            g.add_edge(a, m + b);
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_dedup_and_loops() {
        let mut g = UGraph::new(3);
        assert!(g.add_edge(0, 1));
        assert!(!g.add_edge(1, 0), "duplicate rejected");
        assert!(!g.add_edge(2, 2), "loop rejected");
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn degrees_and_neighbors() {
        let g = UGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert_eq!(g.neighbors(0), &[1, 2, 3]);
    }

    #[test]
    fn standard_graphs() {
        let c5 = cycle_graph(5);
        assert_eq!(c5.edge_count(), 5);
        assert!(c5.has_edge(4, 0));
        let k4 = complete_graph(4);
        assert_eq!(k4.edge_count(), 6);
        let k23 = complete_bipartite(2, 3);
        assert_eq!(k23.edge_count(), 6);
        assert!(k23.has_edge(0, 2) && !k23.has_edge(0, 1));
    }

    #[test]
    fn largest_first_is_sorted_by_degree() {
        let g = UGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2)]);
        let order = g.largest_first_order();
        assert_eq!(order[0], 0);
        for w in order.windows(2) {
            assert!(g.degree(w[0]) >= g.degree(w[1]));
        }
    }

    #[test]
    fn smallest_last_covers_all_vertices() {
        let g = cycle_graph(7);
        let order = g.smallest_last_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn degeneracy_of_standard_graphs() {
        assert_eq!(cycle_graph(5).degeneracy(), 2);
        assert_eq!(complete_graph(4).degeneracy(), 3);
        let tree = UGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (1, 4)]);
        assert_eq!(tree.degeneracy(), 1);
        assert_eq!(UGraph::new(3).degeneracy(), 0);
    }

    #[test]
    fn edge_list_canonical() {
        let g = UGraph::from_edges(4, &[(3, 1), (2, 0)]);
        assert_eq!(g.edge_list(), vec![(0, 2), (1, 3)]);
    }

    #[test]
    fn from_sorted_adjacency_roundtrip() {
        let g = cycle_graph(4);
        let adj: Vec<Vec<u32>> = (0..4).map(|v| g.neighbors(v).to_vec()).collect();
        let g2 = UGraph::from_sorted_adjacency(adj);
        assert_eq!(g2.edge_count(), 4);
        assert!(g2.has_edge(0, 3));
    }
}

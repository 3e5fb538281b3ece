//! Weighted undirected graph in adjacency-list form, plus the subgraph and
//! coarse-graph constructions the multilevel algorithm needs.

/// Undirected graph with u64 vertex and edge weights. Adjacency lists store
/// each edge in both directions; parallel edges are merged at construction.
#[derive(Clone, Debug)]
pub struct Graph {
    adj: Vec<Vec<(u32, u64)>>,
    vwgt: Vec<u64>,
    total_vwgt: u64,
}

impl Graph {
    /// Build from raw adjacency lists (`adj[u]` lists `(v, edge_weight)`; both
    /// directions must be present) and per-vertex weights.
    pub fn from_adj(adj: Vec<Vec<(u32, u64)>>, vwgt: Vec<u64>) -> Self {
        assert_eq!(adj.len(), vwgt.len());
        let total_vwgt = vwgt.iter().sum();
        Graph { adj, vwgt, total_vwgt }
    }

    /// Build from an undirected edge list, merging duplicates.
    pub fn from_edges(n: u32, edges: &[(u32, u32, u64)], vwgt: Vec<u64>) -> Self {
        let mut adj: Vec<std::collections::HashMap<u32, u64>> =
            vec![std::collections::HashMap::new(); n as usize];
        for &(u, v, w) in edges {
            assert!(u < n && v < n && u != v);
            *adj[u as usize].entry(v).or_insert(0) += w;
            *adj[v as usize].entry(u).or_insert(0) += w;
        }
        let adj = adj
            .into_iter()
            .map(|m| {
                let mut v: Vec<(u32, u64)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        Graph::from_adj(adj, vwgt)
    }

    /// Vertex count.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of `u` with merged edge weights.
    pub fn neighbors(&self, u: u32) -> &[(u32, u64)] {
        &self.adj[u as usize]
    }

    /// Weight of vertex `u`.
    pub fn vwgt(&self, u: u32) -> u64 {
        self.vwgt[u as usize]
    }

    /// Sum of all vertex weights.
    pub fn total_vwgt(&self) -> u64 {
        self.total_vwgt
    }

    /// Total edge weight of the graph (each undirected edge counted once).
    pub fn total_ewgt(&self) -> u64 {
        self.adj.iter().flatten().map(|&(_, w)| w).sum::<u64>() / 2
    }

    /// Extract the induced subgraph over `verts` (which must be unique).
    /// Returns the subgraph and the mapping `sub vertex -> original vertex`.
    pub fn subgraph(&self, verts: &[u32]) -> (Graph, Vec<u32>) {
        let mut to_sub = vec![u32::MAX; self.len()];
        for (i, &v) in verts.iter().enumerate() {
            to_sub[v as usize] = i as u32;
        }
        let mut adj = Vec::with_capacity(verts.len());
        let mut vwgt = Vec::with_capacity(verts.len());
        for &v in verts {
            let mut row = Vec::new();
            for &(n, w) in self.neighbors(v) {
                let s = to_sub[n as usize];
                if s != u32::MAX {
                    row.push((s, w));
                }
            }
            adj.push(row);
            vwgt.push(self.vwgt(v));
        }
        (Graph::from_adj(adj, vwgt), verts.to_vec())
    }

    /// Contract the graph along a matching. `matched[u]` is `u`'s partner (or
    /// `u` itself if unmatched). Returns the coarse graph and the map
    /// `fine vertex -> coarse vertex`.
    pub fn contract(&self, matched: &[u32]) -> (Graph, Vec<u32>) {
        let n = self.len();
        let mut coarse_of = vec![u32::MAX; n];
        let mut next = 0u32;
        for u in 0..n as u32 {
            if coarse_of[u as usize] != u32::MAX {
                continue;
            }
            let m = matched[u as usize];
            coarse_of[u as usize] = next;
            if m != u {
                coarse_of[m as usize] = next;
            }
            next += 1;
        }
        let cn = next as usize;
        let mut vwgt = vec![0u64; cn];
        let mut maps: Vec<std::collections::HashMap<u32, u64>> =
            vec![std::collections::HashMap::new(); cn];
        for u in 0..n as u32 {
            let cu = coarse_of[u as usize];
            vwgt[cu as usize] += self.vwgt(u);
            for &(v, w) in self.neighbors(u) {
                let cv = coarse_of[v as usize];
                if cu != cv {
                    *maps[cu as usize].entry(cv).or_insert(0) += w;
                }
            }
        }
        let adj = maps
            .into_iter()
            .map(|m| {
                let mut v: Vec<(u32, u64)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect();
        (Graph::from_adj(adj, vwgt), coarse_of)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Graph {
        // 0-1, 1-2, 2-3, 3-0
        Graph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)], vec![1; 4])
    }

    #[test]
    fn edge_merge() {
        let g = Graph::from_edges(2, &[(0, 1, 1), (1, 0, 2)], vec![1, 1]);
        assert_eq!(g.neighbors(0), &[(1, 3)]);
        assert_eq!(g.total_ewgt(), 3);
    }

    #[test]
    fn subgraph_keeps_internal_edges() {
        let g = square();
        let (s, map) = g.subgraph(&[0, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_ewgt(), 1);
        assert_eq!(map, vec![0, 1]);
    }

    #[test]
    fn contract_merges_weights() {
        let g = square();
        // Match 0-1 and 2-3.
        let matched = vec![1, 0, 3, 2];
        let (c, map) = g.contract(&matched);
        assert_eq!(c.len(), 2);
        assert_eq!(c.vwgt(0), 2);
        // Two parallel fine edges (1-2 and 3-0) merge into weight 2.
        assert_eq!(c.neighbors(0), &[(1, 2)]);
        assert_eq!(map, vec![0, 0, 1, 1]);
    }

    #[test]
    fn contract_with_unmatched_vertex() {
        let g = Graph::from_edges(3, &[(0, 1, 1), (1, 2, 1)], vec![1; 3]);
        let matched = vec![1, 0, 2]; // 2 unmatched
        let (c, _) = g.contract(&matched);
        assert_eq!(c.len(), 2);
        assert_eq!(c.total_ewgt(), 1);
    }
}

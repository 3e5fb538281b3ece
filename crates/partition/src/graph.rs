//! Weighted undirected graph in compressed-row form, plus the subgraph and
//! coarse-graph constructions the multilevel algorithm needs.

/// Undirected graph with u64 vertex and edge weights. Every edge is stored
/// in both directions; parallel edges are merged at construction. The
/// neighbour lists of all vertices sit in one array, so a subgraph or a
/// coarse graph is built with two allocations, not one per vertex.
#[derive(Clone, Debug)]
pub struct Graph {
    /// `adj[xadj[u]..xadj[u + 1]]` are `u`'s neighbours.
    xadj: Vec<u32>,
    adj: Vec<(u32, u64)>,
    vwgt: Vec<u64>,
    total_vwgt: u64,
}

impl Graph {
    fn from_rows(xadj: Vec<u32>, adj: Vec<(u32, u64)>, vwgt: Vec<u64>) -> Self {
        debug_assert_eq!(xadj.len(), vwgt.len() + 1);
        let total_vwgt = vwgt.iter().sum();
        Graph { xadj, adj, vwgt, total_vwgt }
    }

    /// Build from raw adjacency lists (`adj[u]` lists `(v, edge_weight)`; both
    /// directions must be present) and per-vertex weights. The order of each
    /// list is kept.
    pub fn from_adj(adj: Vec<Vec<(u32, u64)>>, vwgt: Vec<u64>) -> Self {
        assert_eq!(adj.len(), vwgt.len());
        let mut xadj = Vec::with_capacity(adj.len() + 1);
        xadj.push(0);
        let mut flat = Vec::with_capacity(adj.iter().map(Vec::len).sum());
        for row in adj {
            flat.extend(row);
            xadj.push(flat.len() as u32);
        }
        Graph::from_rows(xadj, flat, vwgt)
    }

    /// Build from an undirected edge list, merging duplicates. Each
    /// neighbour list comes out ascending by neighbour.
    pub fn from_edges(n: u32, edges: &[(u32, u32, u64)], vwgt: Vec<u64>) -> Self {
        assert_eq!(n as usize, vwgt.len());
        let mut arcs = Vec::with_capacity(2 * edges.len());
        for &(u, v, w) in edges {
            assert!(u < n && v < n && u != v);
            arcs.push((u, v, w));
            arcs.push((v, u, w));
        }
        arcs.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut xadj = Vec::with_capacity(n as usize + 1);
        xadj.push(0);
        let mut adj: Vec<(u32, u64)> = Vec::with_capacity(arcs.len());
        let mut arcs = arcs.into_iter().peekable();
        for u in 0..n {
            let row = adj.len();
            while let Some((_, v, w)) = arcs.next_if(|a| a.0 == u) {
                push_merged(&mut adj, row, v, w);
            }
            xadj.push(adj.len() as u32);
        }
        Graph::from_rows(xadj, adj, vwgt)
    }

    /// Vertex count.
    pub fn len(&self) -> usize {
        self.vwgt.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vwgt.is_empty()
    }

    /// Neighbors of `u` with merged edge weights.
    pub fn neighbors(&self, u: u32) -> &[(u32, u64)] {
        &self.adj[self.xadj[u as usize] as usize..self.xadj[u as usize + 1] as usize]
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
        self.adj.iter().map(|&(_, w)| w).sum::<u64>() / 2
    }

    /// The induced subgraph over `verts` (which must be unique): its vertex
    /// `i` is `verts[i]`, and each neighbour list keeps its order.
    pub(crate) fn subgraph(&self, verts: &[u32]) -> Graph {
        let mut to_sub = vec![u32::MAX; self.len()];
        for (i, &v) in verts.iter().enumerate() {
            to_sub[v as usize] = i as u32;
        }
        let mut xadj = Vec::with_capacity(verts.len() + 1);
        xadj.push(0);
        let mut adj = Vec::with_capacity(verts.iter().map(|&v| self.neighbors(v).len()).sum());
        for &v in verts {
            for &(n, w) in self.neighbors(v) {
                let s = to_sub[n as usize];
                if s != u32::MAX {
                    adj.push((s, w));
                }
            }
            xadj.push(adj.len() as u32);
        }
        Graph::from_rows(xadj, adj, verts.iter().map(|&v| self.vwgt(v)).collect())
    }

    /// Contract the graph along a matching. `matched[u]` is `u`'s partner (or
    /// `u` itself if unmatched). Returns the coarse graph — coarse vertices
    /// numbered by their lowest fine vertex, neighbour lists ascending — and
    /// the map `fine vertex -> coarse vertex`.
    pub(crate) fn contract(&self, matched: &[u32]) -> (Graph, Vec<u32>) {
        let n = self.len();
        let mut coarse_of = vec![u32::MAX; n];
        // The lowest fine vertex of each coarse vertex, in coarse order.
        let mut firsts = Vec::with_capacity(n);
        for u in 0..n as u32 {
            if coarse_of[u as usize] != u32::MAX {
                continue;
            }
            coarse_of[u as usize] = firsts.len() as u32;
            coarse_of[matched[u as usize] as usize] = firsts.len() as u32;
            firsts.push(u);
        }
        let mut xadj = Vec::with_capacity(firsts.len() + 1);
        xadj.push(0);
        let mut adj: Vec<(u32, u64)> = Vec::with_capacity(self.adj.len());
        let mut vwgt = Vec::with_capacity(firsts.len());
        let mut arcs: Vec<(u32, u64)> = Vec::new();
        for (cu, &u) in firsts.iter().enumerate() {
            let m = matched[u as usize];
            let members = if m == u { &[u][..] } else { &[u, m][..] };
            vwgt.push(members.iter().map(|&x| self.vwgt(x)).sum());
            for &x in members {
                let coarse = self.neighbors(x).iter().map(|&(v, w)| (coarse_of[v as usize], w));
                arcs.extend(coarse.filter(|&(cv, _)| cv != cu as u32));
            }
            arcs.sort_unstable_by_key(|&(cv, _)| cv);
            let row = adj.len();
            for (cv, w) in arcs.drain(..) {
                push_merged(&mut adj, row, cv, w);
            }
            xadj.push(adj.len() as u32);
        }
        (Graph::from_rows(xadj, adj, vwgt), coarse_of)
    }
}

/// Append arc `(v, w)` to the row that starts at `adj[row]`, merging it
/// into the row's last arc when that one also goes to `v`.
fn push_merged(adj: &mut Vec<(u32, u64)>, row: usize, v: u32, w: u64) {
    match adj[row..].last_mut() {
        Some(last) if last.0 == v => last.1 += w,
        _ => adj.push((v, w)),
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
        let s = g.subgraph(&[0, 1]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_ewgt(), 1);
        assert_eq!(s.neighbors(0), &[(1, 1)]);
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

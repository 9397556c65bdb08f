//! Validated directed acyclic graphs.

use esg_model::{AppSpec, Fnv};
use std::fmt;

/// Errors raised while constructing or analysing a DAG.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DagError {
    /// The graph has no nodes.
    Empty,
    /// An edge referenced a node index out of range.
    EdgeOutOfRange {
        /// Edge source.
        from: usize,
        /// Edge destination.
        to: usize,
        /// Number of nodes in the graph.
        nodes: usize,
    },
    /// The edge set contains a cycle (or a self loop).
    Cycle,
    /// A node is unreachable from the entry set.
    Unreachable {
        /// The unreachable node index.
        node: usize,
    },
    /// The DAG is not hierarchically reducible: a split has more than one
    /// join continuation, so the paper's reduction (Fig. 4) does not apply.
    NotReducible {
        /// The split node at which reduction failed.
        split: usize,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::Empty => write!(f, "DAG has no nodes"),
            DagError::EdgeOutOfRange { from, to, nodes } => {
                write!(f, "edge ({from},{to}) out of range for {nodes} nodes")
            }
            DagError::Cycle => write!(f, "graph contains a cycle"),
            DagError::Unreachable { node } => {
                write!(f, "node {node} is unreachable from the entries")
            }
            DagError::NotReducible { split } => {
                write!(
                    f,
                    "DAG is not hierarchically reducible at split node {split}"
                )
            }
        }
    }
}

impl std::error::Error for DagError {}

/// A validated DAG with forward and backward adjacency.
#[derive(Clone, Debug)]
pub struct Dag {
    succs: Vec<Vec<u32>>,
    preds: Vec<Vec<u32>>,
    topo: Vec<u32>,
}

impl Dag {
    /// Builds a DAG from a node count and an edge list, validating indices,
    /// acyclicity, and reachability from the entry set (nodes without
    /// predecessors).
    pub fn new(n: usize, edges: &[(usize, usize)]) -> Result<Dag, DagError> {
        if n == 0 {
            return Err(DagError::Empty);
        }
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &(a, b) in edges {
            if a >= n || b >= n {
                return Err(DagError::EdgeOutOfRange {
                    from: a,
                    to: b,
                    nodes: n,
                });
            }
            if a == b {
                return Err(DagError::Cycle);
            }
            // Ignore duplicate edges: they do not change reachability,
            // dominance, or workflow join semantics.
            if !succs[a].contains(&(b as u32)) {
                succs[a].push(b as u32);
                preds[b].push(a as u32);
            }
        }

        // Kahn's algorithm: topological order + cycle detection.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut stack: Vec<u32> = (0..n as u32).filter(|&v| indeg[v as usize] == 0).collect();
        // Process in ascending index order for deterministic topo output.
        stack.sort_unstable_by(|a, b| b.cmp(a));
        let mut topo = Vec::with_capacity(n);
        while let Some(v) = stack.pop() {
            topo.push(v);
            // Collect newly-free successors, keep deterministic order.
            let mut freed: Vec<u32> = Vec::new();
            for &s in &succs[v as usize] {
                indeg[s as usize] -= 1;
                if indeg[s as usize] == 0 {
                    freed.push(s);
                }
            }
            freed.sort_unstable_by(|a, b| b.cmp(a));
            stack.extend(freed);
            stack.sort_unstable_by(|a, b| b.cmp(a));
        }
        if topo.len() != n {
            return Err(DagError::Cycle);
        }

        let dag = Dag { succs, preds, topo };
        // Every node must be reachable from some entry; with acyclicity this
        // is equivalent to "no node is in a cycle", already guaranteed, but a
        // node could still be an isolated island — that is fine (it is its
        // own entry). Nothing further to validate.
        Ok(dag)
    }

    /// Builds the DAG of an application spec.
    pub fn from_app(app: &AppSpec) -> Result<Dag, DagError> {
        Dag::new(app.nodes.len(), &app.edges)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// True when the DAG has no nodes (cannot occur via the constructor).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Successors of `v`.
    #[inline]
    pub fn succs(&self, v: usize) -> &[u32] {
        &self.succs[v]
    }

    /// Predecessors of `v`.
    #[inline]
    pub fn preds(&self, v: usize) -> &[u32] {
        &self.preds[v]
    }

    /// A topological order of all nodes (deterministic: lowest index first
    /// among ready nodes).
    #[inline]
    pub fn topo_order(&self) -> &[u32] {
        &self.topo
    }

    /// Nodes with no predecessors.
    pub fn entries(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.preds[v].is_empty())
            .collect()
    }

    /// Nodes with no successors.
    pub fn exits(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&v| self.succs[v].is_empty())
            .collect()
    }

    /// True when the DAG is a single chain.
    pub fn is_chain(&self) -> bool {
        self.entries().len() == 1
            && (0..self.len()).all(|v| self.succs[v].len() <= 1 && self.preds[v].len() <= 1)
    }

    /// A structural fingerprint of the DAG: FNV-1a over the node count and
    /// the sorted edge list. Two DAGs share a fingerprint iff they have the
    /// same shape (same node indices, same edges) — the raw component of
    /// the plan-cache key when the reduction of [`crate::Hierarchy`] is not
    /// applicable. Stable across processes (no pointer or RandomState
    /// input).
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.len() as u64);
        for v in 0..self.len() {
            // succs are stored in first-seen edge order; hash sorted so
            // logically equal DAGs built from permuted edge lists agree.
            let mut ss = self.succs[v].clone();
            ss.sort_unstable();
            for s in ss {
                h.write_u64(v as u64);
                h.write_u64(s as u64);
            }
        }
        h.finish()
    }

    /// Whether `target` is reachable from `from` (inclusive of equality).
    pub fn reaches(&self, from: usize, target: usize) -> bool {
        if from == target {
            return true;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![from as u32];
        seen[from] = true;
        while let Some(v) = stack.pop() {
            for &s in &self.succs[v as usize] {
                if s as usize == target {
                    return true;
                }
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Enumerates every path from `from` to `to` (small graphs only; used by
    /// tests to cross-check dominance by its all-paths definition).
    pub fn all_paths(&self, from: usize, to: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        let mut path = vec![from];
        self.paths_rec(from, to, &mut path, &mut out);
        out
    }

    fn paths_rec(&self, cur: usize, to: usize, path: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur == to {
            out.push(path.clone());
            return;
        }
        for &s in &self.succs[cur] {
            path.push(s as usize);
            self.paths_rec(s as usize, to, path, out);
            path.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esg_model::FnId;

    fn diamond() -> Dag {
        Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("valid")
    }

    #[test]
    fn chain_properties() {
        let d = Dag::new(3, &[(0, 1), (1, 2)]).expect("valid");
        assert!(d.is_chain());
        assert_eq!(d.topo_order(), &[0, 1, 2]);
        assert_eq!(d.entries(), vec![0]);
        assert_eq!(d.exits(), vec![2]);
        assert!(d.reaches(0, 2));
        assert!(!d.reaches(2, 0));
    }

    #[test]
    fn diamond_properties() {
        let d = diamond();
        assert!(!d.is_chain());
        assert_eq!(d.entries(), vec![0]);
        assert_eq!(d.exits(), vec![3]);
        assert_eq!(d.topo_order(), &[0, 1, 2, 3]);
        assert_eq!(d.all_paths(0, 3).len(), 2);
    }

    #[test]
    fn cycle_detected() {
        assert_eq!(
            Dag::new(2, &[(0, 1), (1, 0)]).expect_err("cycle"),
            DagError::Cycle
        );
        assert_eq!(
            Dag::new(1, &[(0, 0)]).expect_err("self loop"),
            DagError::Cycle
        );
    }

    #[test]
    fn out_of_range_edge() {
        match Dag::new(2, &[(0, 5)]) {
            Err(DagError::EdgeOutOfRange {
                from: 0,
                to: 5,
                nodes: 2,
            }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Dag::new(0, &[]).expect_err("empty"), DagError::Empty);
    }

    #[test]
    fn duplicate_edges_ignored() {
        let d = Dag::new(2, &[(0, 1), (0, 1)]).expect("valid");
        assert_eq!(d.succs(0), &[1]);
        assert_eq!(d.preds(1), &[0]);
    }

    #[test]
    fn from_app_spec() {
        let app = AppSpec::pipeline("p", vec![FnId(0), FnId(1)]);
        let d = Dag::from_app(&app).expect("valid");
        assert!(d.is_chain());
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn topo_is_deterministic_and_valid() {
        let d = Dag::new(6, &[(0, 2), (1, 2), (2, 3), (2, 4), (3, 5), (4, 5)]).expect("ok");
        let topo = d.topo_order();
        // Every edge goes forward in topo order.
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &v) in topo.iter().enumerate() {
                p[v as usize] = i;
            }
            p
        };
        for v in 0..6 {
            for &s in d.succs(v) {
                assert!(pos[v] < pos[s as usize]);
            }
        }
        // Lowest-index-first tie-break.
        assert_eq!(topo[0], 0);
        assert_eq!(topo[1], 1);
    }

    #[test]
    fn disconnected_island_is_its_own_entry() {
        let d = Dag::new(3, &[(0, 1)]).expect("valid");
        assert_eq!(d.entries(), vec![0, 2]);
    }

    #[test]
    fn all_paths_counts() {
        // Two stacked diamonds: 0->{1,2}->3->{4,5}->6 has 4 paths 0->6.
        let d = Dag::new(
            7,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        )
        .expect("valid");
        assert_eq!(d.all_paths(0, 6).len(), 4);
        assert_eq!(d.all_paths(6, 0).len(), 0);
        assert_eq!(d.all_paths(3, 3), vec![vec![3]]);
    }

    #[test]
    fn fingerprint_is_shape_sensitive_and_edge_order_insensitive() {
        let a = Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("valid");
        let b = Dag::new(4, &[(2, 3), (1, 3), (0, 2), (0, 1)]).expect("valid");
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "edge order must not matter"
        );
        let chain = Dag::new(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid");
        assert_ne!(a.fingerprint(), chain.fingerprint());
        let smaller = Dag::new(3, &[(0, 1), (1, 2)]).expect("valid");
        assert_ne!(
            chain.fingerprint(),
            smaller.fingerprint(),
            "node count hashed"
        );
    }
}

//! Hierarchical reduction of the dominator tree (paper §3.3, Fig. 4).
//!
//! The paper traverses the dominator tree post-order; whenever a node has
//! several children it *reduces* the parallel branches into one generated
//! node whose ANL is the maximum of the branch ANL sums, until the whole
//! tree collapses into a list. Recording the reductions lets the SLO
//! assignment later reverse them.
//!
//! We materialise the same information as an explicit series/parallel
//! [`Hierarchy`]: a chain of [`Item`]s, where an item is either an original
//! DAG node or a `Parallel` group of sub-chains (the paper's "generated
//! node"). Building the hierarchy *is* the reduction; recursing into
//! `Parallel` items *is* the reversal.

use crate::dominator::DominatorTree;
use crate::graph::{Dag, DagError};

/// One element of a reduced chain.
#[derive(Clone, Debug, PartialEq)]
pub enum Item {
    /// An original DAG node (index into the application's node list).
    Node(usize),
    /// A generated node subsuming parallel branches (paper Fig. 4 `p`, `q`).
    Parallel(Vec<Hierarchy>),
}

/// A chain of items — the reduced, list-shaped form of (part of) the DAG.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Hierarchy {
    /// The chain items in execution order.
    pub items: Vec<Item>,
}

impl Hierarchy {
    /// Reduces `dag` into a series/parallel hierarchy via its dominator
    /// tree. Fails with [`DagError::NotReducible`] when a split has more
    /// than one join continuation (the DAG is not hierarchically reducible
    /// in the paper's sense).
    pub fn build(dag: &Dag) -> Result<Hierarchy, DagError> {
        let domtree = DominatorTree::build(dag);
        let roots = domtree.roots();
        debug_assert!(!roots.is_empty());
        if roots.len() == 1 {
            let items = chain_from(dag, &domtree, roots[0] as usize)?;
            return Ok(Hierarchy { items });
        }
        // Multi-entry DAG: entries behave like branches of a virtual root;
        // a node dominated only by the virtual root but with predecessors is
        // the join continuation.
        let (heads, conts): (Vec<usize>, Vec<usize>) = {
            let mut heads = Vec::new();
            let mut conts = Vec::new();
            for &r in roots {
                if dag.preds(r as usize).is_empty() {
                    heads.push(r as usize);
                } else {
                    conts.push(r as usize);
                }
            }
            (heads, conts)
        };
        if conts.len() > 1 {
            return Err(DagError::NotReducible { split: conts[0] });
        }
        let mut items = Vec::new();
        let branches = heads
            .into_iter()
            .map(|h| {
                Ok(Hierarchy {
                    items: chain_from(dag, &domtree, h)?,
                })
            })
            .collect::<Result<Vec<_>, DagError>>()?;
        items.push(Item::Parallel(branches));
        if let Some(&c) = conts.first() {
            items.extend(chain_from(dag, &domtree, c)?);
        }
        Ok(Hierarchy { items })
    }

    /// Total ANL of this chain: node ANLs sum along the chain; a parallel
    /// group contributes the **maximum** of its branch sums (the paper's
    /// reduce rule).
    pub fn anl_total(&self, anl: &[f64]) -> f64 {
        self.items.iter().map(|it| item_anl(it, anl)).sum()
    }

    /// All original node indices contained in the hierarchy (depth first).
    pub fn nodes(&self) -> Vec<usize> {
        let mut out = Vec::new();
        collect_nodes(&self.items, &mut out);
        out
    }

    /// A structural fingerprint of the *reduced* DAG: FNV-1a over the
    /// series/parallel shape (chain positions, branch structure, original
    /// node indices). This is the DAG component of the scheduler's
    /// plan-cache key — two applications whose reductions coincide share
    /// search structure, and a key built on the reduction is stable across
    /// processes (pure FNV, no randomised hasher state).
    pub fn fingerprint(&self) -> u64 {
        let mut h = esg_model::Fnv::new();
        hash_items(&self.items, &mut h);
        h.finish()
    }

    /// Depth of parallel nesting (0 for a pure chain).
    pub fn nesting_depth(&self) -> usize {
        self.items
            .iter()
            .map(|it| match it {
                Item::Node(_) => 0,
                Item::Parallel(branches) => {
                    1 + branches
                        .iter()
                        .map(|b| b.nesting_depth())
                        .max()
                        .unwrap_or(0)
                }
            })
            .max()
            .unwrap_or(0)
    }
}

/// ANL of a single item (paper reduce rule for generated nodes).
pub fn item_anl(item: &Item, anl: &[f64]) -> f64 {
    match item {
        Item::Node(v) => anl[*v],
        Item::Parallel(branches) => branches
            .iter()
            .map(|b| b.anl_total(anl))
            .fold(0.0, f64::max),
    }
}

/// Post-order structural hash: every item contributes a tag so `[Node(1),
/// Node(2)]` and `[Parallel([Node(1), Node(2)])]` cannot collide.
fn hash_items(items: &[Item], h: &mut esg_model::Fnv) {
    h.write_u64(items.len() as u64);
    for it in items {
        match it {
            Item::Node(v) => {
                h.write_u64(1);
                h.write_u64(*v as u64);
            }
            Item::Parallel(branches) => {
                h.write_u64(2);
                h.write_u64(branches.len() as u64);
                for b in branches {
                    hash_items(&b.items, h);
                }
            }
        }
    }
}

fn collect_nodes(items: &[Item], out: &mut Vec<usize>) {
    for it in items {
        match it {
            Item::Node(v) => out.push(*v),
            Item::Parallel(branches) => {
                for b in branches {
                    collect_nodes(&b.items, out);
                }
            }
        }
    }
}

/// Walks the dominator subtree rooted at `x`, emitting the chain of items.
fn chain_from(dag: &Dag, domtree: &DominatorTree, x: usize) -> Result<Vec<Item>, DagError> {
    let mut items = Vec::new();
    let mut cur = Some(x);
    while let Some(u) = cur {
        items.push(Item::Node(u));
        let kids = domtree.children(u);
        match kids.len() {
            0 => cur = None,
            1 => cur = Some(kids[0] as usize),
            _ => {
                // Split point. Children entered directly (all DAG preds are
                // `u`) are branch heads; a child with predecessors inside the
                // branches is the join continuation.
                let mut heads = Vec::new();
                let mut conts = Vec::new();
                for &k in kids {
                    let k = k as usize;
                    if dag.preds(k).iter().all(|&p| p as usize == u) {
                        heads.push(k);
                    } else {
                        conts.push(k);
                    }
                }
                if conts.len() > 1 || heads.is_empty() {
                    return Err(DagError::NotReducible { split: u });
                }
                let branches = heads
                    .into_iter()
                    .map(|h| {
                        Ok(Hierarchy {
                            items: chain_from(dag, domtree, h)?,
                        })
                    })
                    .collect::<Result<Vec<_>, DagError>>()?;
                items.push(Item::Parallel(branches));
                cur = conts.first().copied();
            }
        }
    }
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes_of(items: &[Item]) -> Vec<usize> {
        let mut out = Vec::new();
        collect_nodes(items, &mut out);
        out
    }

    #[test]
    fn chain_reduces_to_itself() {
        let d = Dag::new(4, &[(0, 1), (1, 2), (2, 3)]).expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        assert_eq!(
            h.items,
            vec![Item::Node(0), Item::Node(1), Item::Node(2), Item::Node(3)]
        );
        assert_eq!(h.nesting_depth(), 0);
    }

    #[test]
    fn diamond_reduces_to_series_parallel() {
        let d = Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        assert_eq!(h.items.len(), 3);
        assert_eq!(h.items[0], Item::Node(0));
        match &h.items[1] {
            Item::Parallel(branches) => {
                assert_eq!(branches.len(), 2);
                assert_eq!(branches[0].items, vec![Item::Node(1)]);
                assert_eq!(branches[1].items, vec![Item::Node(2)]);
            }
            other => panic!("expected parallel, got {other:?}"),
        }
        assert_eq!(h.items[2], Item::Node(3));
        assert_eq!(h.nesting_depth(), 1);
    }

    #[test]
    fn diamond_anl_uses_max_branch() {
        let d = Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        let anl = vec![0.1, 0.5, 0.2, 0.2];
        // chain = 0.1 + max(0.5, 0.2) + 0.2
        assert!((h.anl_total(&anl) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn nested_split() {
        // 0 -> {1, 2}; 1 -> {3, 4} -> 5; {5, 2} -> 6 -> 7
        let d = Dag::new(
            8,
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (1, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (2, 6),
                (6, 7),
            ],
        )
        .expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        assert_eq!(h.nesting_depth(), 2);
        let mut ns = h.nodes();
        ns.sort_unstable();
        assert_eq!(ns, (0..8).collect::<Vec<_>>());
        // Top level: 0, Parallel, 6, 7.
        assert_eq!(h.items.len(), 4);
        assert_eq!(h.items[0], Item::Node(0));
        assert_eq!(h.items[2], Item::Node(6));
        assert_eq!(h.items[3], Item::Node(7));
    }

    #[test]
    fn bypass_edge_is_single_branch_parallel() {
        // 0 -> 1 -> 2 and 0 -> 2.
        let d = Dag::new(3, &[(0, 1), (1, 2), (0, 2)]).expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        assert_eq!(h.items.len(), 3);
        match &h.items[1] {
            Item::Parallel(branches) => assert_eq!(branches.len(), 1),
            other => panic!("expected parallel, got {other:?}"),
        }
        // ANL of single-branch parallel equals the branch sum, so the bypass
        // does not distort totals.
        let anl = vec![0.3, 0.4, 0.3];
        assert!((h.anl_total(&anl) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multi_entry_reduces_via_virtual_root() {
        // 0 -> 2 <- 1, then 2 -> 3.
        let d = Dag::new(4, &[(0, 2), (1, 2), (2, 3)]).expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        match &h.items[0] {
            Item::Parallel(branches) => assert_eq!(branches.len(), 2),
            other => panic!("expected parallel, got {other:?}"),
        }
        assert_eq!(h.items[1], Item::Node(2));
        assert_eq!(h.items[2], Item::Node(3));
    }

    #[test]
    fn non_reducible_double_join_rejected() {
        // 0 -> {1, 2}; both 1->3, 2->3 and 1->4, 2->4: joins 3 and 4 are
        // both dominated by 0 with cross preds -> two continuations.
        let d = Dag::new(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 4)]).expect("valid");
        match Hierarchy::build(&d) {
            Err(DagError::NotReducible { split: 0 }) => {}
            other => panic!("expected NotReducible at 0, got {other:?}"),
        }
    }

    #[test]
    fn nodes_cover_every_dag_node_once() {
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
        let h = Hierarchy::build(&d).expect("reducible");
        let mut ns = nodes_of(&h.items);
        ns.sort_unstable();
        assert_eq!(ns, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn fingerprint_distinguishes_series_from_parallel() {
        let chain =
            Hierarchy::build(&Dag::new(3, &[(0, 1), (1, 2)]).expect("valid")).expect("reducible");
        let diamond =
            Hierarchy::build(&Dag::new(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("valid"))
                .expect("reducible");
        assert_ne!(chain.fingerprint(), diamond.fingerprint());
        // Deterministic: rebuilding the same DAG reproduces the value.
        let again =
            Hierarchy::build(&Dag::new(3, &[(0, 1), (1, 2)]).expect("valid")).expect("reducible");
        assert_eq!(chain.fingerprint(), again.fingerprint());
        // Nesting is tagged: a flat chain over {1,2} differs from the
        // parallel group over {1,2}.
        let bypass = Hierarchy::build(&Dag::new(3, &[(0, 1), (1, 2), (0, 2)]).expect("valid"))
            .expect("reducible");
        assert_ne!(chain.fingerprint(), bypass.fingerprint());
    }

    #[test]
    fn single_node_graph() {
        let d = Dag::new(1, &[]).expect("valid");
        let h = Hierarchy::build(&d).expect("reducible");
        assert_eq!(h.items, vec![Item::Node(0)]);
        assert_eq!(h.anl_total(&[1.0]), 1.0);
    }
}

//! The ternary-tree data structure of paper §III-A: a complete ternary
//! tree with `N` internal nodes (qubits) and `2N+1` leaves (Majorana
//! slots), from which Pauli strings are extracted by root-to-leaf walks.
//!
//! Node identifiers follow the paper's `O_i` convention: leaves are
//! `O_0 … O_2N`, internal nodes are `O_{2N+1} … O_{3N}` with internal node
//! `O_{2N+1+q}` carrying qubit `q`.
//!
//! # Examples
//!
//! Build the paper's Figure 4(b) caterpillar bottom-up and read off a
//! leaf string (each ancestor contributes its branch letter):
//!
//! ```
//! use hatt_mappings::TernaryTreeBuilder;
//!
//! let mut b = TernaryTreeBuilder::new(3);
//! let i0 = b.attach([0, 1, 2]);      // qubit 0 over leaves 0, 1, 2
//! let i1 = b.attach([3, 4, i0]);     // qubit 1, chain on the Z branch
//! let _root = b.attach([5, 6, i1]);  // qubit 2
//! let tree = b.finish();
//! assert_eq!(tree.string_for_leaf(0).to_string(), "ZZX");
//! assert_eq!(tree.desc_z(tree.root()), 2);
//! ```

use hatt_pauli::{Pauli, PauliString};

use crate::mapping::{FermionMapping, TableMapping};

/// Identifier of a tree node (leaf or internal).
pub type NodeId = usize;

/// A branch label: the child slot of an internal node, contributing the
/// corresponding Pauli letter to extracted strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Branch {
    /// Left child — contributes `X`.
    X,
    /// Middle child — contributes `Y`.
    Y,
    /// Right child — contributes `Z`.
    Z,
}

impl Branch {
    /// All branches in `X, Y, Z` order.
    pub const ALL: [Branch; 3] = [Branch::X, Branch::Y, Branch::Z];

    /// The Pauli letter this branch contributes.
    pub fn pauli(self) -> Pauli {
        match self {
            Branch::X => Pauli::X,
            Branch::Y => Pauli::Y,
            Branch::Z => Pauli::Z,
        }
    }

    /// Child-slot index (0, 1, 2).
    pub fn index(self) -> usize {
        match self {
            Branch::X => 0,
            Branch::Y => 1,
            Branch::Z => 2,
        }
    }
}

/// A complete ternary tree over `N` internal nodes and `2N+1` leaves.
///
/// # Examples
///
/// Build the 1-mode tree (one internal node, three leaves) and extract its
/// strings:
///
/// ```
/// use hatt_mappings::{TernaryTree, TernaryTreeBuilder};
///
/// let mut b = TernaryTreeBuilder::new(1);
/// b.attach([0, 1, 2]);
/// let tree = b.finish();
/// let strings = tree.leaf_strings();
/// let rendered: Vec<String> = strings.iter().map(|s| s.to_string()).collect();
/// assert_eq!(rendered, vec!["X", "Y", "Z"]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TernaryTree {
    n_modes: usize,
    children: Vec<Option<[NodeId; 3]>>,
    parent: Vec<Option<(NodeId, Branch)>>,
    root: NodeId,
}

impl TernaryTree {
    /// Number of fermionic modes `N` (= internal nodes = qubits).
    #[inline]
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Number of leaves, `2N + 1`.
    #[inline]
    pub fn n_leaves(&self) -> usize {
        2 * self.n_modes + 1
    }

    /// Total node count, `3N + 1`.
    #[inline]
    pub fn n_nodes(&self) -> usize {
        3 * self.n_modes + 1
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns `true` when `node` is a leaf (`O_0 … O_2N`).
    #[inline]
    pub fn is_leaf(&self, node: NodeId) -> bool {
        node < self.n_leaves()
    }

    /// The qubit carried by an internal node.
    ///
    /// # Panics
    ///
    /// Panics when `node` is a leaf.
    #[inline]
    pub fn qubit_of(&self, node: NodeId) -> usize {
        assert!(!self.is_leaf(node), "leaf {node} carries no qubit");
        node - self.n_leaves()
    }

    /// The internal node carrying `qubit`.
    #[inline]
    pub fn internal_of(&self, qubit: usize) -> NodeId {
        self.n_leaves() + qubit
    }

    /// The `[X, Y, Z]` children of an internal node (`None` for leaves).
    #[inline]
    pub fn children(&self, node: NodeId) -> Option<[NodeId; 3]> {
        self.children[node]
    }

    /// The parent and incoming branch of a node (`None` for the root).
    #[inline]
    pub fn parent(&self, node: NodeId) -> Option<(NodeId, Branch)> {
        self.parent[node]
    }

    /// The Z-descendant `descZ(node)`: the leaf reached by walking down
    /// `Z` branches (paper §IV-B, Definition I).
    pub fn desc_z(&self, mut node: NodeId) -> NodeId {
        while let Some(ch) = self.children[node] {
            node = ch[Branch::Z.index()];
        }
        node
    }

    /// Extracts the Pauli string of one leaf: each internal node on the
    /// root-to-leaf path contributes its branch letter on its qubit
    /// (paper §III-A.2).
    ///
    /// # Panics
    ///
    /// Panics when `leaf` is not a leaf.
    pub fn string_for_leaf(&self, leaf: NodeId) -> PauliString {
        assert!(self.is_leaf(leaf), "node {leaf} is not a leaf");
        let mut s = PauliString::identity(self.n_modes);
        let mut node = leaf;
        while let Some((p, branch)) = self.parent[node] {
            s.set_op(self.qubit_of(p), branch.pauli());
            node = p;
        }
        s
    }

    /// All `2N + 1` leaf strings in leaf order.
    pub fn leaf_strings(&self) -> Vec<PauliString> {
        (0..self.n_leaves())
            .map(|l| self.string_for_leaf(l))
            .collect()
    }

    /// Depth of a node (root has depth 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut v = node;
        while let Some((p, _)) = self.parent[v] {
            d += 1;
            v = p;
        }
        d
    }

    /// Mean leaf depth — the average string weight of the raw mapping.
    pub fn mean_leaf_depth(&self) -> f64 {
        let total: usize = (0..self.n_leaves()).map(|l| self.depth(l)).sum();
        total as f64 / self.n_leaves() as f64
    }

    /// Renders the tree as indented ASCII, one node per line, with branch
    /// labels — handy for inspecting what HATT built.
    ///
    /// ```text
    /// q0
    /// ├─X─ L0
    /// ├─Y─ L1
    /// └─Z─ q1
    ///      ├─X─ L2 …
    /// ```
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(self.root, "", None, &mut out);
        out
    }

    fn render_node(&self, node: NodeId, indent: &str, branch: Option<Branch>, out: &mut String) {
        let connector = match branch {
            None => String::new(),
            Some(b) => {
                let glyph = if b == Branch::Z { "└" } else { "├" };
                format!("{glyph}─{}─ ", b.pauli().symbol())
            }
        };
        if self.is_leaf(node) {
            out.push_str(&format!("{indent}{connector}L{node}\n"));
            return;
        }
        out.push_str(&format!("{indent}{connector}q{}\n", self.qubit_of(node)));
        let child_indent = if branch.is_none() {
            indent.to_string()
        } else {
            format!("{indent}     ")
        };
        #[allow(clippy::expect_used)]
        // hatt-lint: allow(panic) -- render_node recurses only into internal nodes, which always have children
        let ch = self.children[node].expect("internal node has children");
        for b in Branch::ALL {
            self.render_node(ch[b.index()], &child_indent, Some(b), out);
        }
    }

    /// Pairs the leaves for vacuum-state preservation: for every internal
    /// node `v`, the Z-descendants of its X and Y children form a valid
    /// pair (they share the root→`v` prefix, carry `(X, Y)` on `v`'s
    /// qubit, and their Z-tails act trivially on `|0⟩`). Returns the `N`
    /// pairs ordered by `v`'s qubit and the one unpaired leaf
    /// (`descZ(root)`).
    pub fn pair_leaves(&self) -> (Vec<(NodeId, NodeId)>, NodeId) {
        let mut pairs = Vec::with_capacity(self.n_modes);
        for q in 0..self.n_modes {
            let v = self.internal_of(q);
            #[allow(clippy::expect_used)]
            // hatt-lint: allow(panic) -- internal_of(q) returns an internal node, which always has children
            let ch = self.children[v].expect("internal node has children");
            pairs.push((
                self.desc_z(ch[Branch::X.index()]),
                self.desc_z(ch[Branch::Y.index()]),
            ));
        }
        (pairs, self.desc_z(self.root))
    }
}

/// Incremental bottom-up builder for [`TernaryTree`], mirroring the
/// paper's construction: start from `2N+1` free leaves and repeatedly
/// attach a new internal node to three current roots.
#[derive(Debug, Clone)]
pub struct TernaryTreeBuilder {
    n_modes: usize,
    children: Vec<Option<[NodeId; 3]>>,
    parent: Vec<Option<(NodeId, Branch)>>,
    attached_internals: usize,
}

impl TernaryTreeBuilder {
    /// Starts a build for `n_modes` modes (`2·n_modes + 1` free leaves).
    ///
    /// # Panics
    ///
    /// Panics when `n_modes` is zero.
    pub fn new(n_modes: usize) -> Self {
        assert!(n_modes > 0, "need at least one mode");
        let n_nodes = 3 * n_modes + 1;
        TernaryTreeBuilder {
            n_modes,
            children: vec![None; n_nodes],
            parent: vec![None; n_nodes],
            attached_internals: 0,
        }
    }

    /// Number of modes.
    pub fn n_modes(&self) -> usize {
        self.n_modes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        2 * self.n_modes + 1
    }

    /// Attaches the next internal node (qubit = number of nodes attached
    /// so far) with the given `[X, Y, Z]` children. Returns the new node's
    /// id, `O_{2N+1+qubit}`.
    ///
    /// # Panics
    ///
    /// Panics when all internal nodes are used, when a child does not
    /// exist or already has a parent, or when children repeat.
    pub fn attach(&mut self, ch: [NodeId; 3]) -> NodeId {
        assert!(
            self.attached_internals < self.n_modes,
            "all {} internal nodes already attached",
            self.n_modes
        );
        assert!(
            ch[0] != ch[1] && ch[1] != ch[2] && ch[0] != ch[2],
            "children must be distinct: {ch:?}"
        );
        let node = self.n_leaves() + self.attached_internals;
        for (slot, &c) in ch.iter().enumerate() {
            assert!(c < node, "child {c} does not exist yet");
            assert!(self.parent[c].is_none(), "child {c} already has a parent");
            self.parent[c] = Some((node, Branch::ALL[slot]));
        }
        self.children[node] = Some(ch);
        self.attached_internals += 1;
        node
    }

    /// Current roots (the paper's node set `U`), in ascending id order.
    pub fn roots(&self) -> Vec<NodeId> {
        let created = self.n_leaves() + self.attached_internals;
        (0..created).filter(|&v| self.parent[v].is_none()).collect()
    }

    /// Z-descendant of a node under the current partial structure
    /// (walks the tree — the `O(N)` version; Algorithm 3's maps make this
    /// `O(1)` inside HATT).
    pub fn desc_z(&self, mut node: NodeId) -> NodeId {
        while let Some(ch) = self.children[node] {
            node = ch[Branch::Z.index()];
        }
        node
    }

    /// One step of the Z-descendant walk: the Z child of `node`, or `None`
    /// when `node` has no children yet.
    pub fn child_z(&self, node: NodeId) -> Option<NodeId> {
        self.children[node].map(|ch| ch[Branch::Z.index()])
    }

    /// The `[X, Y, Z]` children of `node`, or `None` while it has none.
    pub fn children_of(&self, node: NodeId) -> Option<[NodeId; 3]> {
        self.children[node]
    }

    /// The current parent of `node`, or `None` while it is a root.
    pub fn parent_of(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node].map(|(p, _)| p)
    }

    /// Walks up from a node to its current root (the paper's
    /// `traverse_up`).
    pub fn root_of(&self, mut node: NodeId) -> NodeId {
        while let Some((p, _)) = self.parent[node] {
            node = p;
        }
        node
    }

    /// Finalizes the tree.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `n_modes` internal nodes were attached (which
    /// guarantees a single root remains).
    pub fn finish(self) -> TernaryTree {
        assert_eq!(
            self.attached_internals, self.n_modes,
            "expected {} attach() calls, saw {}",
            self.n_modes, self.attached_internals
        );
        let roots = self.roots();
        assert_eq!(roots.len(), 1, "tree must have a single root");
        TernaryTree {
            n_modes: self.n_modes,
            children: self.children,
            parent: self.parent,
            root: roots[0],
        }
    }
}

/// Builds the *balanced* ternary tree of `n_modes` modes (paper baseline
/// `BTT`, paper ref. 20): internal nodes fill level by level in BFS order, so
/// string weights are `⌈log3(2N+1)⌉` on average.
pub fn balanced_tree(n_modes: usize) -> TernaryTree {
    assert!(n_modes > 0, "need at least one mode");
    let n = n_modes;
    // BFS array: positions 0..N are internal nodes (qubit = position),
    // positions N..3N+1 are leaves. Children of position p sit at
    // 3p+1, 3p+2, 3p+3.
    let bfs_node = |pos: usize| -> NodeId {
        if pos < n {
            2 * n + 1 + pos // internal node for qubit `pos`
        } else {
            pos - n // leaf
        }
    };
    let mut children_of_qubit: Vec<[NodeId; 3]> = Vec::with_capacity(n);
    for q in 0..n {
        children_of_qubit.push([
            bfs_node(3 * q + 1),
            bfs_node(3 * q + 2),
            bfs_node(3 * q + 3),
        ]);
    }
    build_with_qubit_children(n, &children_of_qubit)
}

/// Builds a tree from an explicit `qubit → [X, Y, Z] children` table,
/// attaching in dependency order while preserving qubit identities.
///
/// # Panics
///
/// Panics if the table does not describe a valid complete ternary tree.
pub fn build_with_qubit_children(n_modes: usize, children_of_qubit: &[[NodeId; 3]]) -> TernaryTree {
    assert_eq!(
        children_of_qubit.len(),
        n_modes,
        "one child triple per qubit"
    );
    let n_leaves = 2 * n_modes + 1;
    // Topological attach order: a qubit can attach once its internal
    // children are attached.
    let mut attached = vec![false; n_modes];
    let mut tree_children: Vec<Option<[NodeId; 3]>> = vec![None; 3 * n_modes + 1];
    let mut tree_parent: Vec<Option<(NodeId, Branch)>> = vec![None; 3 * n_modes + 1];
    let mut remaining = n_modes;
    while remaining > 0 {
        let mut progressed = false;
        for q in 0..n_modes {
            if attached[q] {
                continue;
            }
            let ch = children_of_qubit[q];
            let ready = ch.iter().all(|&c| c < n_leaves || attached[c - n_leaves]);
            if !ready {
                continue;
            }
            let node = n_leaves + q;
            for (slot, &c) in ch.iter().enumerate() {
                assert!(tree_parent[c].is_none(), "node {c} assigned two parents");
                tree_parent[c] = Some((node, Branch::ALL[slot]));
            }
            tree_children[node] = Some(ch);
            attached[q] = true;
            remaining -= 1;
            progressed = true;
        }
        assert!(progressed, "cyclic child table");
    }
    let roots: Vec<NodeId> = (0..3 * n_modes + 1)
        .filter(|&v| tree_parent[v].is_none())
        .collect();
    assert_eq!(roots.len(), 1, "tree must have a single root");
    TernaryTree {
        n_modes,
        children: tree_children,
        parent: tree_parent,
        root: roots[0],
    }
}

/// A fermion-to-qubit mapping backed by a ternary tree.
///
/// Two Majorana-assignment policies exist:
///
/// * [`TreeMapping::with_identity_assignment`] — leaf `O_k` is Majorana
///   `M_k` (`k < 2N`; leaf `O_2N` is discarded). This is the convention
///   fixed *before* construction in HATT (paper §IV-B): vacuum
///   preservation then depends on how the tree was built.
/// * [`TreeMapping::with_paired_assignment`] — Majorana indices are
///   assigned from the Z-descendant pairing, guaranteeing vacuum
///   preservation for *any* tree (used by the balanced-tree baseline).
#[derive(Debug, Clone, PartialEq)]
pub struct TreeMapping {
    name: String,
    tree: TernaryTree,
    strings: Vec<PauliString>,
    leaf_of_majorana: Vec<NodeId>,
}

impl TreeMapping {
    /// Identity assignment: `M_k ↔` leaf `O_k`.
    pub fn with_identity_assignment(name: impl Into<String>, tree: TernaryTree) -> Self {
        let leaf_of_majorana: Vec<NodeId> = (0..2 * tree.n_modes()).collect();
        Self::from_assignment(name, tree, leaf_of_majorana)
    }

    /// Vacuum-preserving assignment from the Z-descendant pairing: pair
    /// `j` (ordered by internal-node qubit) becomes `(M_2j, M_2j+1)`.
    pub fn with_paired_assignment(name: impl Into<String>, tree: TernaryTree) -> Self {
        let (pairs, _unpaired) = tree.pair_leaves();
        let mut leaf_of_majorana = Vec::with_capacity(2 * tree.n_modes());
        for (x, y) in pairs {
            leaf_of_majorana.push(x);
            leaf_of_majorana.push(y);
        }
        Self::from_assignment(name, tree, leaf_of_majorana)
    }

    /// Explicit assignment of Majorana index → leaf.
    ///
    /// # Panics
    ///
    /// Panics unless exactly `2N` distinct leaves are given.
    pub fn from_assignment(
        name: impl Into<String>,
        tree: TernaryTree,
        leaf_of_majorana: Vec<NodeId>,
    ) -> Self {
        assert_eq!(
            leaf_of_majorana.len(),
            2 * tree.n_modes(),
            "need 2N Majorana leaves"
        );
        let strings = leaf_of_majorana
            .iter()
            .map(|&l| tree.string_for_leaf(l))
            .collect();
        TreeMapping {
            name: name.into(),
            tree,
            strings,
            leaf_of_majorana,
        }
    }

    /// The underlying tree.
    pub fn tree(&self) -> &TernaryTree {
        &self.tree
    }

    /// The leaf assigned to each Majorana index.
    pub fn leaf_of_majorana(&self) -> &[NodeId] {
        &self.leaf_of_majorana
    }

    /// Converts into a plain string-table mapping.
    pub fn to_table(&self) -> TableMapping {
        TableMapping::new(self.name.clone(), self.tree.n_modes(), self.strings.clone())
    }
}

impl FermionMapping for TreeMapping {
    fn n_modes(&self) -> usize {
        self.tree.n_modes()
    }

    fn majorana(&self, k: usize) -> &PauliString {
        &self.strings[k]
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Builds the balanced-ternary-tree mapping (paper baseline `BTT`) with
/// the vacuum-preserving pair assignment.
///
/// # Examples
///
/// ```
/// use hatt_mappings::{balanced_ternary_tree, validate, FermionMapping};
///
/// let btt = balanced_ternary_tree(4);
/// let report = validate(&btt);
/// assert!(report.is_valid());
/// assert!(report.vacuum_preserving);
/// ```
pub fn balanced_ternary_tree(n_modes: usize) -> TreeMapping {
    TreeMapping::with_paired_assignment("BTT", balanced_tree(n_modes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn one_mode_tree_is_xyz() {
        let mut b = TernaryTreeBuilder::new(1);
        let root = b.attach([0, 1, 2]);
        assert_eq!(root, 3);
        let tree = b.finish();
        assert_eq!(tree.root(), 3);
        assert_eq!(tree.qubit_of(root), 0);
        let s: Vec<String> = tree.leaf_strings().iter().map(|s| s.to_string()).collect();
        assert_eq!(s, vec!["X", "Y", "Z"]);
    }

    #[test]
    fn paper_figure_4b_unbalanced_tree() {
        // 3 modes, the unbalanced tree of Fig. 4(b):
        //   q0 = root, children (leaf, q1, q2)… we reproduce a caterpillar:
        //   q2's children are leaves; q1's children include q2.
        // Build: I2 = (l0, l1, l2); I1 = (l3, l4, I2); I0(root) = (l5, l6, I1).
        let mut b = TernaryTreeBuilder::new(3);
        let i2 = b.attach([0, 1, 2]);
        let i1 = b.attach([3, 4, i2]);
        let _i0 = b.attach([5, 6, i1]);
        let tree = b.finish();
        // Leaf 0 path: root -Z-> q1 -Z-> q0(first attached) ... check string:
        // leaf0 is X child of i2 (qubit 0); i2 is Z child of i1 (qubit 1);
        // i1 is Z child of i0 (qubit 2). String = Z2 Z1 X0 = "ZZX".
        assert_eq!(tree.string_for_leaf(0).to_string(), "ZZX");
        assert_eq!(tree.string_for_leaf(5).to_string(), "XII");
        assert_eq!(tree.desc_z(tree.root()), 2);
        assert_eq!(tree.depth(0), 3);
        assert!(tree.mean_leaf_depth() > 1.0);
    }

    #[test]
    fn builder_rejects_reuse_and_duplicates() {
        let mut b = TernaryTreeBuilder::new(2);
        b.attach([0, 1, 2]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b2 = b.clone();
            b2.attach([0, 3, 4]) // leaf 0 already has a parent
        }));
        assert!(result.is_err());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut b2 = b.clone();
            b2.attach([3, 3, 4]) // duplicate child
        }));
        assert!(result.is_err());
    }

    #[test]
    fn roots_shrink_by_two_per_attach() {
        let mut b = TernaryTreeBuilder::new(3);
        assert_eq!(b.roots().len(), 7);
        b.attach([0, 1, 2]);
        assert_eq!(b.roots().len(), 5);
        b.attach([3, 4, 7]);
        assert_eq!(b.roots().len(), 3);
        b.attach([5, 6, 8]);
        assert_eq!(b.roots().len(), 1);
    }

    #[test]
    fn desc_z_and_root_of_walk_correctly() {
        let mut b = TernaryTreeBuilder::new(2);
        let i0 = b.attach([0, 1, 2]);
        assert_eq!(b.desc_z(i0), 2);
        assert_eq!(b.root_of(1), i0);
        let i1 = b.attach([3, i0, 4]);
        assert_eq!(b.desc_z(i1), 4);
        assert_eq!(b.root_of(2), i1);
    }

    #[test]
    fn balanced_tree_structure() {
        for n in 1..=9 {
            let tree = balanced_tree(n);
            assert_eq!(tree.n_leaves(), 2 * n + 1);
            // Root is qubit 0 in BFS numbering.
            assert_eq!(tree.qubit_of(tree.root()), 0);
            // Depth is logarithmic.
            let max_depth = (0..tree.n_leaves()).map(|l| tree.depth(l)).max().unwrap();
            let bound = ((2 * n + 1) as f64).log(3.0).ceil() as usize + 1;
            assert!(max_depth <= bound, "depth {max_depth} > {bound} for n={n}");
        }
    }

    #[test]
    fn balanced_mapping_is_valid_and_vacuum_preserving() {
        for n in 1..=10 {
            let btt = balanced_ternary_tree(n);
            let report = validate(&btt);
            assert!(report.is_valid(), "BTT({n}) invalid: {report:?}");
            assert!(report.vacuum_preserving, "BTT({n}) breaks vacuum");
        }
    }

    #[test]
    fn identity_assignment_uses_leaf_order() {
        let mut b = TernaryTreeBuilder::new(1);
        b.attach([0, 1, 2]);
        let m = TreeMapping::with_identity_assignment("T", b.finish());
        assert_eq!(m.majorana(0).to_string(), "X");
        assert_eq!(m.majorana(1).to_string(), "Y");
        assert_eq!(m.leaf_of_majorana(), &[0, 1]);
        let report = validate(&m);
        assert!(report.is_valid());
        assert!(report.vacuum_preserving); // (X, Y) pair on qubit 0
    }

    #[test]
    fn pairing_covers_all_but_desc_z_of_root() {
        let tree = balanced_tree(4);
        let (pairs, unpaired) = tree.pair_leaves();
        assert_eq!(pairs.len(), 4);
        assert_eq!(unpaired, tree.desc_z(tree.root()));
        let mut seen: Vec<NodeId> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
        seen.push(unpaired);
        seen.sort_unstable();
        assert_eq!(seen, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn tree_mapping_to_table_roundtrip() {
        let btt = balanced_ternary_tree(3);
        let table = btt.to_table();
        for k in 0..6 {
            assert_eq!(table.majorana(k), btt.majorana(k));
        }
    }

    #[test]
    fn render_shows_structure() {
        let mut b = TernaryTreeBuilder::new(1);
        b.attach([0, 1, 2]);
        let tree = b.finish();
        let art = tree.render();
        assert!(art.contains("q0"));
        assert!(art.contains("├─X─ L0"));
        assert!(art.contains("├─Y─ L1"));
        assert!(art.contains("└─Z─ L2"));
        // Nested case: balanced 2-mode tree renders all 5 leaves.
        let art = balanced_tree(2).render();
        assert_eq!(art.matches('L').count(), 5);
        assert_eq!(art.matches('q').count(), 2);
    }

    #[test]
    #[should_panic(expected = "cyclic")]
    fn self_referential_child_table_rejected() {
        // Qubit 1's node id is 6; listing it among its own children can
        // never become ready.
        build_with_qubit_children(2, &[[0, 1, 2], [3, 4, 6]]);
    }

    #[test]
    #[should_panic(expected = "two parents")]
    fn doubly_parented_child_rejected() {
        build_with_qubit_children(2, &[[0, 1, 2], [0, 3, 4]]);
    }
}

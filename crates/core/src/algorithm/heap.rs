//! The incremental candidate heap behind greedy Algorithm 3 and the
//! remap kernel.
//!
//! A paired candidate is a pair of current roots `{lo, hi}` (the X/Y
//! children, matched through their Z-descendant leaves) plus a third
//! root `z`. Its [`TripleScore`](hatt_mappings::TripleScore) depends only on the incidence sets of
//! those three nodes, and a node's incidence never changes while it is a
//! root — so a candidate scored once stays correct for as long as all
//! three of its nodes are roots. The pairing of two roots is just as
//! stable: it is fixed by their Z-descendants, which only change when a
//! root gains a parent.
//!
//! The heap therefore keeps every scored candidate as an immutable
//! *fact*. Each merge into a new parent `p` invalidates every fact
//! naming one of the three merged children, and creates exactly two
//! groups of new candidates:
//!
//! * `p`'s row — the pair `{p, r}`, where `r` is the root owning the
//!   partner of `p`'s Z-descendant leaf, with every other root as `z`;
//! * `p`'s column — `p` as `z` under every other pair.
//!
//! That is at most `|U| − 2 + ⌊(|U| − 1)/2⌋` scores per step instead of
//! the full scan's `(|U| − 1)(|U| − 2)`, so scoring drops from `Θ(N³)`
//! to `Θ(N²)` over a construction, with `O(N² log N)` heap work. Stale
//! facts are dropped lazily when they surface at the top, and the heap
//! is rebuilt without them once they outnumber the live ones.
//!
//! Facts pop in `(key, residual, lo, z)` order. The full scan visits
//! `(O_X, O_Z)` over the ascending node set and keeps the first strict
//! minimum, and the first visit of a candidate is the one with
//! `O_X = min(lo, hi)` — so this order is exactly the scan's tie-break,
//! and the heap elects bit-identical winners (`tests/kernel_differential.rs`
//! pins it against [`Variant::Paired`](super::Variant::Paired)).
//!
//! # Scope: the remap kernel
//!
//! A remap rebuilds after a delta that added or removed terms on a few
//! *touched* Majorana indices, replaying the ancestor's merge sequence.
//! A node is touched when its subtree holds a touched leaf; a candidate
//! naming no touched node meets no edited term, so it scores the same
//! as in the ancestor's build. A [`CandidateHeap::scoped`] heap holds
//! only the *in-scope* facts — those naming a touched node — scored once
//! and reused across steps like any fact; a new parent adds only the
//! in-scope part of its row and column. While the build still matches
//! the ancestor and the ancestor's winner `prev` is untouched, `prev`
//! beats every untouched candidate, so the step winner is the smaller of
//! `prev` and the top in-scope fact under the pop order.
//!
//! That argument breaks at the first step where `prev` is touched, or
//! after a touched fact beat `prev` (the build left the ancestor). There
//! the heap *widens*: it scores every untouched fact over the current
//! node set once — the facts a cold build would already hold — and runs
//! as the plain greedy heap to the end.
//!
//! Both builds pass through the same node sets, so every fact a remap
//! scores is one the cold build of the edited Hamiltonian scores too.
//! Each `prev` that wins is attached at once and never scored again;
//! only a `prev` beaten by a touched fact can still be live when the
//! heap widens and be scored a second time. A remap therefore scores
//! at most one candidate more than the cold build.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use hatt_mappings::{Blend, NodeId, TermEngine, TernaryTreeBuilder};

use super::{score_of, HattOptions, PairingState, Selection};
use crate::error::HattError;
use crate::stats::IterationStats;

/// One scored candidate. Field order is the pop order (derived `Ord`
/// is lexicographic); `hi` is last only to make the order total —
/// among live facts `(lo, z)` already identifies the candidate.
///
/// Node ids and the residual fit `u32`: a tree has `3N + 1` nodes and
/// `TermEngine` caps the term count at `u32::MAX`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Fact {
    key: i64,
    residual: u32,
    lo: u32,
    z: u32,
    hi: u32,
}

// The heap holds Θ(N²) facts; keep each at 24 bytes.
const _: () = assert!(std::mem::size_of::<Reverse<Fact>>() <= 24);

/// A lazy min-heap of candidate facts that follows one construction.
///
/// Each [`CandidateHeap::select`] first scores what the previous merge
/// created, then returns the best live candidate. The first call scores
/// every in-scope candidate of the node set it finds.
#[derive(Debug)]
pub(super) struct CandidateHeap {
    heap: BinaryHeap<Reverse<Fact>>,
    /// The newest root already scored; `None` before the first select.
    newest: Option<NodeId>,
    /// Live facts over the current node set, pairs × (|U| − 2) — an
    /// upper bound on the live in-scope ones while scoped.
    live: usize,
    n: usize,
    options: HattOptions,
    blend: Blend,
    /// `Some` while the heap is scoped to a remap's delta; `None` holds
    /// every fact.
    scope: Option<Scope>,
}

/// What a scoped heap knows about the remap it serves.
#[derive(Debug)]
struct Scope {
    /// `touched[v]`: node `v`'s subtree holds a touched leaf.
    touched: Vec<bool>,
    /// The ancestor's winners still to replay, the next one last;
    /// emptied once the build leaves the ancestor.
    ancestor: Vec<[NodeId; 3]>,
}

impl CandidateHeap {
    /// An empty heap for an `n`-mode construction scoring under `blend`.
    pub(super) fn new(n: usize, options: &HattOptions, blend: Blend) -> Self {
        CandidateHeap {
            heap: BinaryHeap::new(),
            newest: None,
            live: 0,
            n,
            options: *options,
            blend,
            scope: None,
        }
    }

    /// An empty heap for a remap replaying the merge sequence
    /// `ancestor` after a delta that touched the Majorana indices
    /// `touched`; it holds only in-scope facts until it widens.
    pub(super) fn scoped(
        n: usize,
        options: &HattOptions,
        blend: Blend,
        ancestor: &[[NodeId; 3]],
        touched: &[u32],
    ) -> Self {
        let mut scope = Scope {
            touched: vec![false; 3 * n + 1],
            ancestor: ancestor.iter().rev().copied().collect(),
        };
        for &i in touched {
            if (i as usize) < 2 * n {
                scope.touched[i as usize] = true;
            }
        }
        CandidateHeap {
            scope: Some(scope),
            ..CandidateHeap::new(n, options, blend)
        }
    }

    /// Scores the candidates the last merge created (or, on the first
    /// call, every in-scope candidate of the current node set) and
    /// returns the best live one as ordered `[X, Y, Z]` children. The
    /// winner stays in the heap; once the caller attaches it, it is
    /// stale and drops.
    ///
    /// A scoped heap elects the smaller of the ancestor's untouched
    /// winner at this step and the top in-scope fact, and widens first
    /// when there is no untouched ancestor winner to compare with.
    pub(super) fn select(
        &mut self,
        engine: &mut TermEngine,
        state: &PairingState,
        builder: &TernaryTreeBuilder,
        stats: &mut IterationStats,
    ) -> Result<Selection, HattError> {
        let u = builder.roots();
        // Roots are ascending and the last-attached parent is always a
        // root, so the newest node is the last one.
        let newest = u.last().copied();
        if self.newest.is_none() {
            self.score_all(engine, state, &u, true, stats);
        } else if let Some(p) = newest.filter(|&p| Some(p) != self.newest) {
            self.push_parent(engine, state, builder, &u, p, stats);
        }
        self.newest = newest;
        let prev = self.scope.as_mut().and_then(|scope| {
            let prev = scope.ancestor.pop()?;
            (!prev.iter().any(|&v| scope.touched[v])).then_some(prev)
        });
        if self.scope.is_some() && prev.is_none() {
            // Widen: add the untouched facts and drop the scope.
            self.score_all(engine, state, &u, false, stats);
            self.scope = None;
        }
        if self.heap.len() > 2 * self.live {
            self.heap.retain(|f| is_live(builder, &f.0));
        }
        let best = loop {
            match self.heap.peek() {
                Some(Reverse(top)) if !is_live(builder, top) => {
                    self.heap.pop();
                }
                top => break top.map(|r| r.0),
            }
        };
        let (lo, hi, z) = match (prev, best) {
            (Some([x, y, z]), Some(top)) => {
                stats.candidates += 1;
                let prev = self.fact(engine, x.min(y), x.max(y), z);
                let win = top.min(prev);
                if win != prev {
                    // A touched fact won: the build leaves the ancestor,
                    // so the next step widens.
                    if let Some(scope) = self.scope.as_mut() {
                        scope.ancestor.clear();
                    }
                }
                (win.lo as NodeId, win.hi as NodeId, win.z as NodeId)
            }
            (Some([x, y, z]), None) => (x.min(y), x.max(y), z),
            (None, best) => {
                // Infallible for every reachable input: `|U| >= 3`
                // always admits a paired candidate (see `select_paired`),
                // and every live candidate has been pushed.
                debug_assert!(best.is_some(), "candidate heap ran dry");
                let top = best.ok_or(HattError::Internal(
                    "candidate heap found no candidate although |U| >= 3",
                ))?;
                (top.lo as NodeId, top.hi as NodeId, top.z as NodeId)
            }
        };
        // The X branch takes the even leaf of the pair (Algorithm 2 line
        // 15), as in the full scan.
        let children = if state.mdown[lo] % 2 == 0 {
            [lo, hi, z]
        } else {
            [hi, lo, z]
        };
        Ok(Selection {
            children,
            weight: engine.weight_of_triple(lo, hi, z),
        })
    }

    /// Scores every paired candidate over the node set `u` that is in
    /// scope (`in_scope`) or out of it (`!in_scope`), and heapifies them
    /// together with the facts already held.
    fn score_all(
        &mut self,
        engine: &mut TermEngine,
        state: &PairingState,
        u: &[NodeId],
        in_scope: bool,
        stats: &mut IterationStats,
    ) {
        let mut facts = std::mem::take(&mut self.heap).into_vec();
        let before = facts.len();
        let mut pairs_seen = 0;
        for (lo, hi) in pairs(state, self.n, u) {
            pairs_seen += 1;
            for &z in u {
                if z != lo && z != hi && self.in_scope(lo, hi, z) == in_scope {
                    facts.push(Reverse(self.fact(engine, lo, hi, z)));
                }
            }
        }
        stats.candidates += (facts.len() - before) as u64;
        self.live = pairs_seen * (u.len() - 2);
        self.heap = BinaryHeap::from(facts);
    }

    /// Scores the in-scope row and column of the new root `parent` over
    /// the node set `u` (which contains it).
    fn push_parent(
        &mut self,
        engine: &mut TermEngine,
        state: &PairingState,
        builder: &TernaryTreeBuilder,
        u: &[NodeId],
        parent: NodeId,
        stats: &mut IterationStats,
    ) {
        if let (Some(scope), Some(children)) = (&mut self.scope, builder.children_of(parent)) {
            scope.touched[parent] = children.iter().any(|&c| scope.touched[c]);
        }
        let before = self.heap.len();
        let mut pairs_seen = 0;
        if let Some(r) = partner(state, self.n, parent) {
            pairs_seen += 1;
            let (lo, hi) = (parent.min(r), parent.max(r));
            for &z in u {
                if z != lo && z != hi && self.in_scope(lo, hi, z) {
                    let fact = self.fact(engine, lo, hi, z);
                    self.heap.push(Reverse(fact));
                }
            }
        }
        for (lo, hi) in pairs(state, self.n, u) {
            if lo != parent && hi != parent {
                pairs_seen += 1;
                if self.in_scope(lo, hi, parent) {
                    let fact = self.fact(engine, lo, hi, parent);
                    self.heap.push(Reverse(fact));
                }
            }
        }
        stats.candidates += (self.heap.len() - before) as u64;
        self.live = pairs_seen * (u.len() - 2);
    }

    /// Whether the candidate `{lo, hi}` × `z` belongs in the heap.
    fn in_scope(&self, lo: NodeId, hi: NodeId, z: NodeId) -> bool {
        self.scope.as_ref().is_none_or(|scope| {
            let t = &scope.touched;
            t[lo] || t[hi] || t[z]
        })
    }

    fn fact(&self, engine: &mut TermEngine, lo: NodeId, hi: NodeId, z: NodeId) -> Fact {
        let score = score_of(engine, &self.options, self.blend, lo, hi, z);
        Fact {
            key: score.key,
            residual: score.residual as u32,
            lo: lo as u32,
            z: z as u32,
            hi: hi as u32,
        }
    }
}

/// The pairs `{lo, hi}` (`lo < hi`) of the node set `u`.
fn pairs<'a>(
    state: &'a PairingState,
    n: usize,
    u: &'a [NodeId],
) -> impl Iterator<Item = (NodeId, NodeId)> + 'a {
    u.iter().filter_map(move |&lo| {
        partner(state, n, lo)
            .filter(|&hi| lo < hi)
            .map(|hi| (lo, hi))
    })
}

/// The root paired with `root`: the owner of the partner of its
/// Z-descendant leaf (even `x` pairs with `x + 1`, odd with `x − 1`).
/// `None` for the root whose Z-descendant is `O_2N`, which never pairs.
fn partner(state: &PairingState, n: usize, root: NodeId) -> Option<NodeId> {
    let leaf = state.mdown[root];
    (leaf != 2 * n).then(|| state.mup[leaf ^ 1])
}

/// A fact is live while all three of its nodes are roots.
fn is_live(builder: &TernaryTreeBuilder, f: &Fact) -> bool {
    [f.lo, f.hi, f.z]
        .iter()
        .all(|&v| builder.parent_of(v as NodeId).is_none())
}
